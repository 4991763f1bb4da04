"""The split search that the O(m) candidate search in symaudio.trees replaced.

Kept verbatim as the reference for bitwise tests: every distinct feature
value at the reachable worlds is a threshold, the instances' extrema are
merged into each attribute's sorted pool by one stable argsort over
(instances + pool), and the exact gain is looked up per distinct left
histogram in a dict.  Thresholds are compared by `repr`, which shows the
sign of zero that `==` cannot.
"""
import math

import numpy as np

from symaudio.intervals import REL_ORDER
from symaudio.logiset import FEATURE_FNS, FN_INDEX, Atom
from symaudio.trees import Decision, entropy


def _gain(parent_h, left_hist, right_hist, total, ent_cache):
    def h(hist):
        val = ent_cache.get(hist)
        if val is None:
            val = entropy(hist)
            ent_cache[hist] = val
        return val
    nl = sum(left_hist)
    nr = sum(right_hist)
    return parent_h - (nl * h(left_hist) + nr * h(right_hist)) / total


def _class_runs(parent_hist, limit):
    radix = np.ones(len(parent_hist), dtype=np.int64)
    run = np.zeros(len(parent_hist), dtype=np.intp)
    ranges = [1]
    for c, n in enumerate(parent_hist):
        if ranges[-1] * (n + 1) > limit:
            ranges.append(1)
        radix[c] = ranges[-1]
        run[c] = len(ranges) - 1
        ranges[-1] *= n + 1
    return radix, run, ranges


def _block_best(vals, reach, weight, ranges, gains_of):
    m, n_attrs = vals.shape[:2]
    lo = vals.min(axis=2, where=reach[:, None, :], initial=np.inf).T
    hi = vals.max(axis=2, where=reach[:, None, :], initial=-np.inf).T
    pool = vals.transpose(1, 0, 2)[:, reach]   # (attrs, pool), no padding
    pool.sort(axis=1)
    n_pool = pool.shape[1]
    # Merge each attribute's instances into its pool, stably and instances
    # first: the instances ahead of a pool value v are those with min <= v
    # (op <=) or, over negated values with the pool reversed, those with
    # max >= v (op >=).
    merged = np.empty((n_attrs, 2, m + n_pool))
    merged[:, 0, :m], merged[:, 0, m:] = lo, pool
    merged[:, 1, :m] = -hi
    np.negative(pool[:, ::-1], out=merged[:, 1, m:])
    n_true = np.flatnonzero(np.argsort(merged, axis=2, kind="stable") >= m)
    del merged
    n_true %= m + n_pool
    n_true = n_true.reshape(n_attrs, 2, n_pool)
    n_true -= np.arange(n_pool)
    n_true[:, 1] = n_true[:, 1, ::-1].copy()
    # those instances are a prefix of the instances sorted the same way, so
    # prefix sums of their class weights are the left histograms' codes
    by = np.argsort(np.stack([lo, -hi], axis=1), axis=2)
    cum = np.zeros((len(ranges), n_attrs, 2, m + 1), dtype=np.int64)
    np.cumsum(weight[:, by], axis=3, out=cum[..., 1:])
    codes = np.take_along_axis(cum, n_true[None], axis=3)
    # rank-compress the code before adding the next run's digits
    code, steps = codes[0], []
    for g in range(1, len(ranges)):
        uniq, rank = np.unique(code, return_inverse=True)
        steps.append(uniq)
        code = rank.reshape(code.shape) * ranges[g] + codes[g]
    # repeated pool values and splits with an empty side are no candidates
    repeat = np.zeros(pool.shape, dtype=bool)
    repeat[:, 1:] = pool[:, 1:] == pool[:, :-1]
    code[repeat[:, None, :] | (n_true == 0) | (n_true == m)] = -1
    uniq = np.sort(code, axis=None)
    uniq = uniq[np.append(True, uniq[1:] != uniq[:-1]) & (uniq >= 0)]
    if not uniq.size:
        return None
    keys, c = [], uniq
    for g in range(len(ranges) - 1, 0, -1):
        keys.append(c % ranges[g])
        c = steps[g - 1][c // ranges[g]]
    gains = gains_of(np.stack([c] + keys[::-1]))
    top = gains.max()
    j, o, t = np.unravel_index(
        np.argmax(np.isin(code, uniq[gains == top])), code.shape)
    return float(top), int(j), ("<=", ">=")[o], float(pool[j, t])


def best_split(ls, rows, worlds, *, relations, functions, attrs):
    rows = np.asarray(rows)
    m = len(rows)
    if m < 2:
        return None
    k = len(ls.classes)
    labels = np.array([ls.instances[i].label for i in rows])
    parent_hist = tuple(int(c) for c in np.bincount(labels, minlength=k))
    ent_cache = {}
    parent_h = entropy(parent_hist)
    if parent_h == 0.0:
        return None

    attrs = sorted(attrs)
    fns = [fn for fn in FEATURE_FNS if fn in set(functions)]
    # a rank below the candidate count times a run's range must fit int64
    n_cand = 2 * len(attrs) * m * worlds.shape[1]
    radix, run, ranges = _class_runs(
        parent_hist, np.iinfo(np.int64).max // (n_cand + 1))
    weight = np.zeros((len(ranges), m), dtype=np.int64)
    weight[run[labels], np.arange(m)] = radix[labels]
    base = np.array(parent_hist) + 1
    gain_of = {}   # run codes -> exact gain, shared by the node's blocks

    def gains_of(keys):
        lefts = (keys[run].T // radix) % base
        gains = np.empty(keys.shape[1])
        for u, key in enumerate(zip(*keys.tolist())):
            g = gain_of.get(key)
            if g is None:
                left = tuple(lefts[u].tolist())
                right = tuple(n - c for n, c in zip(parent_hist, left))
                g = gain_of[key] = _gain(parent_h, left, right, m, ent_cache)
            gains[u] = g
        return gains

    best = None  # (gain, key, Decision)
    for rel in relations:
        reach = ls.frame.reach(rel, worlds)
        if not reach.any():
            continue
        for fn in fns:
            fi = FN_INDEX[fn]
            found = _block_best(ls.table[rows[:, None], fi, attrs], reach,
                                weight, ranges, gains_of)
            if found is None:
                continue
            g, j, op, thr = found
            key = (REL_ORDER[rel], attrs[j], fi, op, thr)
            if best is None or g > best[0] or \
                    (g == best[0] and key < best[1]):
                dec = Decision(rel, Atom(fn=fn, attr=attrs[j], op=op,
                                         threshold=thr))
                best = (g, key, dec)
    if best is None:
        return None
    return best[2], best[0]
