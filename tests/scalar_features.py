"""The scalar feature code the batched kernel in symaudio.logiset replaced.

Kept verbatim as the reference for bitwise tests: `compute_feature` applies
one function to one series, and `instance_table` builds one instance's
(n_fns, n_attrs, n_intervals) table from it the way the library once did,
with the numeric functions reduced per attribute row and the symbolic ones
computed one series at a time.
"""
import numpy as np

from symaudio.logiset import FEATURE_FNS, FN_INDEX

_SYMBOLIC_FNS = ("entropy_pairs", "transition_var", "stretch_high",
                 "stretch_decr")


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


def instance_table(values, intervals):
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


def reference_table(values, intervals):
    """The (m, n_fns, n_attrs, n_intervals) table of values (m, n_attrs, T)."""
    return np.stack([instance_table(v, intervals) for v in values])
