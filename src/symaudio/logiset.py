"""Labelled instance sets with precomputed interval feature tables.

Every instance is a feature cube; for each feature function, attribute and
interval the table stores the function applied to the points the interval
covers.  Modal mode precomputes all T*(T+1)/2 intervals, propositional mode
only the full interval (0, T).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import FeatureCube, _physical_memory
from .intervals import frame

FEATURE_FNS = ("max", "min", "mean", "median", "std",
               "entropy_pairs", "transition_var", "stretch_high",
               "stretch_decr")
FN_INDEX = {name: i for i, name in enumerate(FEATURE_FNS)}


@dataclass(frozen=True)
class Atom:
    """Threshold test fn(attr) op threshold with op in {'<=', '>='}."""
    fn: str
    attr: int
    op: str
    threshold: float


def compute_feature(fn, series, w):
    """Apply fn to the points covered by interval w = (x, y): series[x:y]."""
    if fn not in FN_INDEX:
        raise ValueError(f"unknown feature function {fn!r}")
    values = np.asarray(series, dtype=np.float64)
    x, y = w
    if not 0 <= x < y <= values.size:
        raise ValueError(f"interval {w} covers no points of a series of "
                         f"length {values.size}")
    table = _feature_table(values[None, None], [w])
    return float(table[0, FN_INDEX[fn], 0, 0])


def _feature_table(values, intervals):
    """Every feature function over every interval of every series.

    values has shape (m, n_attrs, T); the result has shape
    (m, n_fns, n_attrs, len(intervals)).  Each interval is one numpy pass
    over (instances, attributes, points).  Every reduction runs along the
    last, contiguous axis, so each entry is bit-identical to the same
    function applied to one series alone.
    """
    m, n_attrs, T = values.shape
    need = m * len(FEATURE_FNS) * n_attrs * len(intervals) * 8
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"the feature table for {m} instances with n_points={T} needs "
            f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB "
            f"of memory")
    table = np.empty((m, len(FEATURE_FNS), n_attrs, len(intervals)))
    for col, (x, y) in enumerate(intervals):
        seg = values[..., x:y]
        out = table[..., col]
        mean = seg.mean(axis=-1)
        out[:, FN_INDEX["max"]] = seg.max(axis=-1)
        out[:, FN_INDEX["min"]] = seg.min(axis=-1)
        out[:, FN_INDEX["mean"]] = mean
        out[:, FN_INDEX["median"]] = np.median(seg, axis=-1)
        if y - x == 1:
            out[:, FN_INDEX["std"]:] = 0.0
            continue
        out[:, FN_INDEX["std"]] = seg.std(axis=-1, ddof=1)
        counts = _pair_counts(seg)
        out[:, FN_INDEX["entropy_pairs"]] = _pair_entropy(counts, y - x - 1)
        out[:, FN_INDEX["transition_var"]] = _transition_variance(counts)
        out[:, FN_INDEX["stretch_high"]] = _longest_runs(seg > mean[..., None])
        out[:, FN_INDEX["stretch_decr"]] = _longest_runs(
            np.diff(seg, axis=-1) < 0.0)
    return table


def _pair_counts(seg):
    # Counts (..., 9) of the consecutive bin pairs 3*a + b of each series,
    # with three equal-width bins between the series' min and max; a
    # constant series maps everything to bin 0.
    lo = seg.min(axis=-1, keepdims=True)
    span = seg.max(axis=-1, keepdims=True) - lo
    scaled = (seg - lo) / np.where(span == 0.0, 1.0, span) * 3.0
    bins = np.minimum(np.floor(scaled).astype(np.int64), 2)
    pairs = bins[..., :-1] * 3 + bins[..., 1:]
    return (pairs[..., None] == np.arange(9)).sum(axis=-2, dtype=np.float64)


def _pair_entropy(counts, n_pairs):
    # Shannon entropy (nats) of the pair distribution.  The nonzero terms
    # are summed in the order np.sum takes them once the empty bins are
    # dropped: one by one below 8 terms, else numpy's pairwise block of 8
    # accumulators and then the ninth term.  Summing the 9 zero-padded
    # terms directly would differ in the last bit.
    hit = counts > 0.0
    p = counts / n_pairs
    terms = np.where(hit, p * np.log(np.where(hit, p, 1.0)), 0.0)
    t = np.take_along_axis(terms, np.argsort(~hit, axis=-1, kind="stable"),
                           axis=-1)
    total = t[..., 0]
    for j in range(1, 9):
        total = total + t[..., j]
    block = (((t[..., 0] + t[..., 1]) + (t[..., 2] + t[..., 3]))
             + ((t[..., 4] + t[..., 5]) + (t[..., 6] + t[..., 7]))) + t[..., 8]
    return -np.where(hit.sum(axis=-1) >= 8, block, total)


def _transition_variance(counts):
    # variance of the 9 transition probability entries; rows with no
    # outgoing transitions stay all zero
    c = counts.reshape(counts.shape[:-1] + (3, 3))
    rowsum = c.sum(axis=-1, keepdims=True)
    probs = np.divide(c, rowsum, out=np.zeros_like(c), where=rowsum > 0.0)
    return probs.reshape(counts.shape).var(axis=-1)


def _longest_runs(mask):
    # length of the longest run of True along the last axis
    run = np.zeros(mask.shape[:-1], dtype=np.int64)
    best = run.copy()
    for j in range(mask.shape[-1]):
        run = np.where(mask[..., j], run + 1, 0)
        np.maximum(best, run, out=best)
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
    label: int
    table: np.ndarray   # (n_fns, n_attrs, n_intervals)
    frame: object       # intervals.Frame naming the table columns
    T: int


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
    table = _feature_table(cube.values[None], f.intervals)[0]
    return LogisetInstance(label=label, table=table, frame=f, T=T)


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
    table = _feature_table(np.stack([c.values for c in cubes]), f.intervals)
    instances = [LogisetInstance(label=class_id[lab], table=table[i],
                                 frame=f, T=T)
                 for i, lab in enumerate(labels)]
    return Logiset(instances=instances, classes=classes, T=T, mode=mode,
                   attr_names=names, frame=f, table=table)
