"""Labelled instance sets with precomputed interval feature tables.

Every instance is a feature cube; for each feature function, attribute and
interval the table stores the function applied to the points the interval
covers.  Modal mode precomputes all T*(T+1)/2 intervals, propositional mode
only the full interval (0, T).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import FeatureCube
from .intervals import frame

FEATURE_FNS = ("max", "min", "mean", "median", "std",
               "entropy_pairs", "transition_var", "stretch_high",
               "stretch_decr")
FN_INDEX = {name: i for i, name in enumerate(FEATURE_FNS)}

_NUMERIC_FNS = ("max", "min", "mean", "median", "std")
_SYMBOLIC_FNS = ("entropy_pairs", "transition_var", "stretch_high",
                 "stretch_decr")


@dataclass(frozen=True)
class Atom:
    """Threshold test fn(attr) op threshold with op in {'<=', '>='}."""
    fn: str
    attr: int
    op: str
    threshold: float


def compute_feature(fn, series, w):
    """Apply fn to the points covered by interval w = (x, y): series[x:y]."""
    x, y = w
    seg = np.asarray(series, dtype=np.float64)[x:y]
    if seg.size == 0:
        raise ValueError(f"interval {w} covers no points")
    if fn == "max":
        return float(np.max(seg))
    if fn == "min":
        return float(np.min(seg))
    if fn == "mean":
        return float(np.mean(seg))
    if fn == "median":
        return float(np.median(seg))
    if fn == "std":
        return float(np.std(seg, ddof=1)) if seg.size > 1 else 0.0
    if seg.size == 1:
        return 0.0
    if fn == "entropy_pairs":
        return _entropy_pairs(_bins3(seg))
    if fn == "transition_var":
        return _transition_var(_bins3(seg))
    if fn == "stretch_high":
        return float(_longest_run(seg > np.mean(seg)))
    if fn == "stretch_decr":
        return float(_longest_run(np.diff(seg) < 0.0))
    raise ValueError(f"unknown feature function {fn!r}")


def _bins3(seg):
    # three equal-width bins between the subseries min and max;
    # a constant subseries maps everything to bin 0
    lo = seg.min()
    hi = seg.max()
    if hi == lo:
        return np.zeros(len(seg), dtype=np.int64)
    idx = np.floor((seg - lo) / (hi - lo) * 3.0).astype(np.int64)
    return np.minimum(idx, 2)


def _entropy_pairs(bins):
    # Shannon entropy (nats) of the consecutive bin-pair distribution
    pairs = bins[:-1] * 3 + bins[1:]
    counts = np.bincount(pairs, minlength=9).astype(np.float64)
    p = counts[counts > 0.0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _transition_var(bins):
    # variance of the 9 transition probability entries; rows with no
    # outgoing transitions stay all zero
    counts = np.zeros((3, 3))
    np.add.at(counts, (bins[:-1], bins[1:]), 1.0)
    rowsum = counts.sum(axis=1, keepdims=True)
    probs = np.divide(counts, rowsum, out=np.zeros_like(counts),
                      where=rowsum > 0.0)
    return float(np.var(probs))


def _longest_run(mask):
    best = run = 0
    for hit in mask:
        run = run + 1 if hit else 0
        if run > best:
            best = run
    return best


def atom_values(table, atom):
    """The atom's feature at every world: table[..., fn, attr, :]."""
    try:
        fn = FN_INDEX[atom.fn]
    except KeyError:
        raise ValueError(f"unknown feature function {atom.fn!r}") from None
    if not 0 <= atom.attr < table.shape[-2]:
        raise ValueError(f"atom references unknown attribute {atom.attr}")
    return table[..., fn, atom.attr, :]


def compare(op, vals, threshold):
    """vals op threshold, elementwise, for op in {'<=', '>='}."""
    if op == "<=":
        return vals <= threshold
    if op == ">=":
        return vals >= threshold
    raise ValueError(f"unknown comparison {op!r}")


@dataclass
class LogisetInstance:
    cube: FeatureCube
    label: int
    table: np.ndarray   # (n_fns, n_attrs, n_intervals)
    frame: object       # intervals.Frame naming the table columns
    T: int

    def eval_atom(self, atom, w):
        try:
            col = self.frame.index[w]
        except KeyError:
            raise ValueError(
                f"interval {w} is not in the precomputed table") from None
        return bool(compare(atom.op, atom_values(self.table, atom)[col],
                            atom.threshold))


def _instance_table(values, intervals):
    n_attrs, T = values.shape
    table = np.empty((len(FEATURE_FNS), n_attrs, len(intervals)))
    for col, (x, y) in enumerate(intervals):
        seg = values[:, x:y]
        npts = y - x
        table[FN_INDEX["max"], :, col] = seg.max(axis=1)
        table[FN_INDEX["min"], :, col] = seg.min(axis=1)
        table[FN_INDEX["mean"], :, col] = seg.mean(axis=1)
        table[FN_INDEX["median"], :, col] = np.median(seg, axis=1)
        if npts > 1:
            table[FN_INDEX["std"], :, col] = seg.std(axis=1, ddof=1)
            for fn in _SYMBOLIC_FNS:
                fi = FN_INDEX[fn]
                for a in range(n_attrs):
                    table[fi, a, col] = compute_feature(fn, values[a], (x, y))
        else:
            table[FN_INDEX["std"], :, col] = 0.0
            for fn in _SYMBOLIC_FNS:
                table[FN_INDEX[fn], :, col] = 0.0
    return table


@dataclass
class Logiset:
    instances: list
    classes: tuple        # ordered label vocabulary
    T: int
    mode: str
    attr_names: tuple
    frame: object         # intervals.Frame naming the table columns
    table: np.ndarray     # (m, n_fns, n_attrs, n_intervals), rows per instance

    @property
    def n_attrs(self):
        return len(self.attr_names)


def instance_from_cube(cube, mode, label=-1):
    """Standalone instance with its own table, for prediction on new data."""
    T = cube.values.shape[1]
    f = frame(mode, T)
    return LogisetInstance(cube=cube, label=label,
                           table=_instance_table(cube.values, f.intervals),
                           frame=f, T=T)


def build_logiset(cubes, labels, mode="modal", classes=None):
    """Bundle labelled cubes into a logiset with precomputed tables.

    All cubes must share attribute names and series length.  The class
    vocabulary defaults to the sorted distinct labels.
    """
    cubes = list(cubes)
    labels = list(labels)
    if not cubes:
        raise ValueError("empty instance set")
    if len(cubes) != len(labels):
        raise ValueError("cubes and labels differ in length")
    names = cubes[0].names
    T = cubes[0].values.shape[1]
    for c in cubes:
        if c.names != names:
            raise ValueError("instances disagree on attribute names")
        if c.values.shape[1] != T:
            raise ValueError("instances disagree on series length")
    if classes is None:
        classes = tuple(sorted(set(labels)))
    else:
        classes = tuple(classes)
    class_id = {c: i for i, c in enumerate(classes)}
    for lab in labels:
        if lab not in class_id:
            raise ValueError(f"label {lab!r} missing from the class vocabulary")
    f = frame(mode, T)
    table = np.empty((len(cubes), len(FEATURE_FNS), len(names),
                      len(f.intervals)))
    instances = []
    for i, (cube, lab) in enumerate(zip(cubes, labels)):
        table[i] = _instance_table(cube.values, f.intervals)
        instances.append(LogisetInstance(cube=cube, label=class_id[lab],
                                         table=table[i], frame=f, T=T))
    return Logiset(instances=instances, classes=classes, T=T, mode=mode,
                   attr_names=names, frame=f, table=table)
