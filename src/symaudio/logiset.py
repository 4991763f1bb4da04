"""Labelled instance sets with precomputed interval feature tables.

Every instance is a feature cube; for each feature function, attribute and
interval the table stores the function applied to the points the interval
covers.  Modal mode precomputes all T*(T+1)/2 intervals, propositional mode
only the full interval (0, T).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import FeatureCube, require_memory  # FeatureCube re-exported
from .intervals import frame

FEATURE_FNS = ("max", "min", "mean", "median", "std",
               "entropy_pairs", "transition_var", "stretch_high",
               "stretch_decr")
FN_INDEX = {name: i for i, name in enumerate(FEATURE_FNS)}

# entries per block of instances; a lane counts max(its points, n_fns)
TABLE_BLOCK = 2 ** 17


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
    (m, n_fns, n_attrs, len(intervals)).  The intervals of one length must
    start at consecutive points, as they do in every frame.

    The kernel makes one pass per interval length L.  A pass lays the
    windows of length L out as L rows of lanes, one lane per (window
    start, series), so that every function is elementwise work over long
    contiguous rows.  Each entry stays bit-identical to the same function
    applied to one series alone: wherever numpy's order of operations
    across the rows could differ from its order along a window's points,
    the kernel reduces along the points (_length_features).  Instances go
    through in blocks of about TABLE_BLOCK lane entries, which bounds the
    memory a build needs beside the table.
    """
    m, n_attrs, T = values.shape
    require_memory(m * len(FEATURE_FNS) * n_attrs * len(intervals) * 8,
                   f"the feature table for {m} instances with n_points={T}")
    n_fns = len(FEATURE_FNS)
    table = np.empty((m, n_fns, n_attrs, len(intervals)))
    if table.size == 0:
        return table
    by_length = {}   # L -> (first start, table columns by start)
    for col, (x, y) in sorted(enumerate(intervals), key=lambda c: c[1]):
        by_length.setdefault(y - x, (x, []))[1].append(col)
    entries = n_attrs * sum(max(y - x, n_fns) for x, y in intervals)
    step = max(1, TABLE_BLOCK // entries)
    for i0 in range(0, m, step):
        block = values[i0:i0 + step]
        n = block.shape[0] * n_attrs
        series = block.reshape(n, T)
        by_point = np.ascontiguousarray(series.T).reshape(-1)
        for L, (x, cols) in by_length.items():
            S = len(cols)
            # row r, lane (s, q) holds point x + s + r of series q
            rows = sliding_window_view(
                by_point[x * n:(x + S + L - 1) * n], S * n)[::n]
            windows = sliding_window_view(series[:, x:x + S + L - 1], L,
                                          axis=1)
            feats = _length_features(rows, windows)
            table[i0:i0 + step, :, :, cols] = feats.reshape(
                n_fns, S, -1, n_attrs).transpose(2, 0, 3, 1)
    return table


def _length_features(rows, windows):
    # The (n_fns, lanes) features of the windows of one length: rows is
    # (L, lanes), windows the same windows as (series, starts, L).
    L, lanes = rows.shape
    feats = np.empty((len(FEATURE_FNS), lanes))

    # A max or min across the rows is the one along the points, up to which
    # of two equal zeros it keeps; numpy's choice there depends on the width
    # of its vector loop.
    hi = _zeros_along_points(rows.max(axis=0), windows, np.max)
    lo = _zeros_along_points(rows.min(axis=0), windows, np.min)

    def along_points(fn, **kwargs):
        # numpy adds fewer than 8 numbers one by one, so there a mean or std
        # across the rows has the bits of one along each window's points,
        # at a fraction of the cost; from 8 points on it adds them pairwise
        # along the points
        if L < 8:
            return fn(rows, axis=0, **kwargs)
        return fn(windows, axis=-1, **kwargs).T.reshape(-1)

    mean = along_points(np.mean)
    feats[FN_INDEX["max"]] = hi
    feats[FN_INDEX["min"]] = lo
    feats[FN_INDEX["mean"]] = mean
    feats[FN_INDEX["median"]] = _median(rows, windows)
    if L == 1:
        feats[FN_INDEX["std"]:] = 0.0
        return feats
    feats[FN_INDEX["std"]] = along_points(np.std, ddof=1)
    counts = _pair_counts(rows, lo, hi)
    feats[FN_INDEX["entropy_pairs"]] = _pair_entropy(counts, L - 1)
    feats[FN_INDEX["transition_var"]] = _transition_variance(counts)
    feats[FN_INDEX["stretch_high"]] = _longest_runs(rows > mean)
    feats[FN_INDEX["stretch_decr"]] = _longest_runs(rows[1:] - rows[:-1] < 0.0)
    return feats


def _zeros_along_points(values, windows, reduce):
    # each zero in values taken again by reduce along its window's points,
    # as a series alone is reduced, where the sign of a zero found across
    # the rows may differ
    zero = np.flatnonzero(values == 0.0)
    if zero.size:
        n = windows.shape[0]
        values[zero] = reduce(windows[zero % n, zero // n], axis=-1)
    return values


def _pair_counts(rows, lo, hi):
    # Integer counts (9, lanes) of the consecutive bin pairs 3*a + b of
    # each lane, with three equal-width bins between the lane's min and
    # max; a constant lane maps everything to bin 0.  A lane whose max - min
    # overflows is binned from its values halved, which is exact there, so
    # it gets the bins of the same window at half scale.
    with np.errstate(over="ignore"):
        span = hi - lo
    wide = np.isinf(span)
    if wide.any():
        half = np.where(wide, 0.5, 1.0)
        rows, lo = rows * half, lo * half
        span = hi * half - lo
    scaled = rows - lo
    scaled /= np.where(span == 0.0, 1.0, span)
    scaled *= 3.0
    bins = np.floor(scaled, out=scaled).astype(np.int64)
    np.minimum(bins, 2, out=bins)
    codes = bins[:-1] * 3
    codes += bins[1:]
    lanes = rows.shape[1]
    codes *= lanes
    codes += np.arange(lanes)
    return np.bincount(codes.reshape(-1), minlength=9 * lanes).reshape(
        9, lanes)


def _pair_entropy(counts, n_pairs):
    # Shannon entropy (nats) of the pair distribution.  A count c gives the
    # term p*log(p) with p = c / n_pairs, looked up by c.  np.sum adds the
    # nonzero terms one by one below 8 of them, and the zero terms of the
    # empty bins change no such sum.  From 8 nonzero terms on it sums them
    # pairwise, so those lanes put their empty bins last and numpy sums
    # each lane's 9 terms along a contiguous axis.
    p = np.arange(1, n_pairs + 1) / n_pairs
    terms = np.concatenate([[0.0], p * np.log(p)])[counts]
    total = np.zeros(counts.shape[1])
    for row in terms:
        total += row
    if n_pairs >= 8:
        hit = counts.T > 0
        rich = np.flatnonzero(hit.sum(axis=1) >= 8)
        order = np.argsort(~hit[rich], axis=1, kind="stable")
        total[rich] = np.ascontiguousarray(
            np.take_along_axis(terms.T[rich], order, axis=1)).sum(axis=1)
    return -total


def _transition_variance(counts):
    # variance of the 9 transition probability entries of each lane, in
    # numpy's order along 9 contiguous entries: eight pairwise, then the
    # ninth; rows with no outgoing transitions stay all zero
    c = counts.astype(np.float64)
    rows = c.reshape(3, 3, -1)
    rows /= np.maximum(rows[:, 0] + rows[:, 1] + rows[:, 2], 1.0)[:, None]
    c -= _sum9(c) / 9
    c *= c
    return _sum9(c) / 9


def _sum9(c):
    return (((c[0] + c[1]) + (c[2] + c[3])) +
            ((c[4] + c[5]) + (c[6] + c[7]))) + c[8]


def _median(rows, windows):
    # Up to 5 points, the median by compare-exchange across the rows.  It
    # keeps the value numpy picks up to the sign of a zero (np.median turns
    # even a single -0.0 into 0.0).
    L = rows.shape[0]
    if L > 5:
        return np.median(rows, axis=0)
    if L == 1:
        med = rows[0].copy()
    elif L == 2:
        med = (rows[0] + rows[1]) / 2
    else:
        lo = np.minimum(rows[0], rows[1])
        hi = np.maximum(rows[0], rows[1])
        if L == 3:
            med = np.maximum(lo, np.minimum(hi, rows[2]))
        else:
            # the middle two of four points
            lo = np.maximum(lo, np.minimum(rows[2], rows[3]))
            hi = np.minimum(hi, np.maximum(rows[2], rows[3]))
            if L == 4:
                med = (lo + hi) / 2
            else:
                med = np.maximum(np.minimum(lo, hi), np.minimum(
                    np.maximum(lo, hi), rows[4]))
    return _zeros_along_points(med, windows, np.median)


def _longest_runs(mask):
    # length of the longest run of True in each lane, over the rows
    run = np.zeros(mask.shape[1])
    best = run.copy()
    for row in mask:
        run += 1.0
        run *= row
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
        if len(set(classes)) != len(classes):
            raise ValueError(f"class names {classes!r} are not unique")
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
