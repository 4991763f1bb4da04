"""Independent reference implementations the tests compare against.

Everything here is rebuilt from the definitions in a deliberately
different style from the library (point sets, scalar python arithmetic,
brute-force scans) so that agreement is meaningful evidence and not an
echo of the same code.
"""
import itertools
import math
import statistics
from collections import Counter

from symaudio.intervals import And, Box, Diamond, Not, Or

# canonical orders; spelled out by hand, part of the tie-break contract
REL_RANK = {"Id": 0, "L": 1, "Linv": 2, "AO": 3, "AOinv": 4,
            "DBE": 5, "DBEinv": 6, "G": 7}
FN_RANK = {"max": 0, "min": 1, "mean": 2, "median": 3, "std": 4,
           "entropy_pairs": 5, "transition_var": 6,
           "stretch_high": 7, "stretch_decr": 8}


# --- intervals via point sets -----------------------------------------------

def o_intervals(T):
    return [(x, y) for x, y in itertools.combinations(range(T + 1), 2)]


def _pts(w):
    # interval (x, y) covers the points x+1 .. y
    return set(range(w[0] + 1, w[1] + 1))


def o_relates(rel, w, v):
    pw, pv = _pts(w), _pts(v)
    if rel == "Id":
        return pw == pv
    if rel == "L":
        return min(pv) > max(pw) + 1
    if rel == "Linv":
        return o_relates("L", v, w)
    if rel == "AO":
        meets = min(pv) == max(pw) + 1
        overlaps = min(pw) < min(pv) <= max(pw) < max(pv)
        return meets or overlaps
    if rel == "AOinv":
        return o_relates("AO", v, w)
    if rel == "DBE":
        return pv < pw
    if rel == "DBEinv":
        return o_relates("DBE", v, w)
    if rel == "G":
        return True
    raise ValueError(rel)


_ACC_CACHE = {}


def o_accessible(rel, w, T):
    key = (rel, w, T)
    got = _ACC_CACHE.get(key)
    if got is None:
        got = [v for v in o_intervals(T) if o_relates(rel, w, v)]
        _ACC_CACHE[key] = got
    return got


# --- feature functions, scalar style ----------------------------------------

def o_bins3(seg):
    lo, hi = min(seg), max(seg)
    if hi == lo:
        return [0] * len(seg)
    out = []
    for v in seg:
        b = int(math.floor((v - lo) / (hi - lo) * 3.0))
        out.append(2 if b > 2 else b)
    return out


def o_entropy_pairs(seg):
    if len(seg) < 2:
        return 0.0
    b = o_bins3(seg)
    pairs = Counter(3 * a + c for a, c in zip(b, b[1:]))
    n = sum(pairs.values())
    h = 0.0
    for code in sorted(pairs):
        p = pairs[code] / n
        h -= p * math.log(p)
    return h


def o_transition_var(seg):
    if len(seg) < 2:
        return 0.0
    b = o_bins3(seg)
    counts = [[0] * 3 for _ in range(3)]
    for a, c in zip(b, b[1:]):
        counts[a][c] += 1
    probs = []
    for row in counts:
        s = sum(row)
        probs.extend((v / s if s else 0.0) for v in row)
    return statistics.pvariance(probs)


def o_stretch_high(seg):
    if len(seg) < 2:
        return 0.0
    m = statistics.mean(seg)
    best = run = 0
    for v in seg:
        run = run + 1 if v > m else 0
        best = max(best, run)
    return float(best)


def o_stretch_decr(seg):
    if len(seg) < 2:
        return 0.0
    best = run = 0
    for a, c in zip(seg, seg[1:]):
        run = run + 1 if c < a else 0
        best = max(best, run)
    return float(best)


def o_stat(fn, series, w):
    seg = [float(v) for v in series[w[0]:w[1]]]
    if not seg:
        raise ValueError("empty interval")
    if fn == "max":
        return max(seg)
    if fn == "min":
        return min(seg)
    if fn == "mean":
        return statistics.mean(seg)
    if fn == "median":
        return statistics.median(seg)
    if fn == "std":
        return statistics.stdev(seg) if len(seg) > 1 else 0.0
    if fn == "entropy_pairs":
        return o_entropy_pairs(seg)
    if fn == "transition_var":
        return o_transition_var(seg)
    if fn == "stretch_high":
        return o_stretch_high(seg)
    if fn == "stretch_decr":
        return o_stretch_decr(seg)
    raise ValueError(fn)


# --- independent model checker ----------------------------------------------

def o_check(phi, series_by_attr, T, w, stat_cache=None):
    """Evaluate a formula at interval w over raw attribute series.

    series_by_attr: sequence of per-attribute point lists, length-T each.
    """
    if isinstance(phi, Not):
        return not o_check(phi.sub, series_by_attr, T, w, stat_cache)
    if isinstance(phi, And):
        return all(o_check(p, series_by_attr, T, w, stat_cache)
                   for p in phi.parts)
    if isinstance(phi, Or):
        return any(o_check(p, series_by_attr, T, w, stat_cache)
                   for p in phi.parts)
    if isinstance(phi, Diamond):
        return any(o_check(phi.sub, series_by_attr, T, v, stat_cache)
                   for v in o_accessible(phi.rel, w, T))
    if isinstance(phi, Box):
        return all(o_check(phi.sub, series_by_attr, T, v, stat_cache)
                   for v in o_accessible(phi.rel, w, T))
    # atom: anything exposing fn / attr / op / threshold
    if stat_cache is not None:
        key = (phi.fn, phi.attr, w)
        val = stat_cache.get(key)
        if val is None:
            val = o_stat(phi.fn, series_by_attr[phi.attr], w)
            stat_cache[key] = val
    else:
        val = o_stat(phi.fn, series_by_attr[phi.attr], w)
    if phi.op == "<=":
        return val <= phi.threshold
    if phi.op == ">=":
        return val >= phi.threshold
    raise ValueError(phi.op)


# --- entropy / gain, identical expression shape ------------------------------

def o_entropy(hist):
    total = sum(hist)
    h = 0.0
    for c in hist:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def o_gain(parent_h, left, right, m):
    nl, nr = sum(left), sum(right)
    return parent_h - (nl * o_entropy(left) + nr * o_entropy(right)) / m


# --- brute-force split search ------------------------------------------------

def naive_best_split(ls, states, relations, functions, attrs):
    """Triple-loop candidate scan with oracle accessibility.

    Reads feature values from the precomputed tables (the search logic,
    not the feature arithmetic, is what this cross-checks).  Returns
    ((rel, fn, attr, op, thr), gain) or None.
    """
    m = len(states)
    if m < 2:
        return None
    k = len(ls.classes)
    labels = [ls.instances[s.index].label for s in states]
    parent = [labels.count(c) for c in range(k)]
    parent_h = o_entropy(parent)
    if parent_h == 0.0:
        return None

    def value(state, fn, attr, v):
        inst = ls.instances[state.index]
        return float(inst.table[FN_RANK[fn], attr, ls.frame.index[v]])

    best = None  # (gain, key, decision)
    for rel in relations:
        reach = []
        for s in states:
            if rel == "G":
                reach.append(o_intervals(ls.T))
            elif rel == "Id":
                reach.append(sorted(s.worlds))
            else:
                ws = set()
                for w in s.worlds:
                    ws.update(o_accessible(rel, w, ls.T))
                reach.append(sorted(ws))
        for fn in functions:
            for attr in attrs:
                vals = [[value(s, fn, attr, v) for v in worlds]
                        for s, worlds in zip(states, reach)]
                pool = sorted({x for row in vals for x in row})
                for op in ("<=", ">="):
                    for thr in pool:
                        if op == "<=":
                            sat = [any(x <= thr for x in row) for row in vals]
                        else:
                            sat = [any(x >= thr for x in row) for row in vals]
                        nl = sum(sat)
                        if nl == 0 or nl == m:
                            continue
                        left = [0] * k
                        right = [0] * k
                        for hit, lab in zip(sat, labels):
                            (left if hit else right)[lab] += 1
                        g = o_gain(parent_h, left, right, m)
                        key = (REL_RANK[rel], attr, FN_RANK[fn], op, thr)
                        if best is None or g > best[0] or \
                                (g == best[0] and key < best[1]):
                            best = (g, key, (rel, fn, attr, op, thr))
    if best is None:
        return None
    return best[2], best[0]


# --- classic tabular entropy learner -----------------------------------------

def o_tabular_tree(X, y, k, min_gain, max_leaf_entropy, colmeta):
    """Textbook top-down tree on a plain feature matrix.

    X: list of rows of floats; colmeta: per-column (attr, fn) pairs in
    attr-major order with functions inner.  Nodes come back as nested
    tuples: ("leaf", class_id, hist) or ("split", attr, fn, op, thr, l, r).
    """
    def hist(idx):
        h = [0] * k
        for i in idx:
            h[y[i]] += 1
        return h

    def leaf(idx):
        h = hist(idx)
        return ("leaf", h.index(max(h)), tuple(h))

    def grow(idx):
        h_node = hist(idx)
        parent_h = o_entropy(h_node)
        if parent_h <= max_leaf_entropy or len(idx) < 2:
            return leaf(idx)
        best = None
        for col, (attr, fn) in enumerate(colmeta):
            pool = sorted({X[i][col] for i in idx})
            for op in ("<=", ">="):
                for thr in pool:
                    if op == "<=":
                        sat = {i for i in idx if X[i][col] <= thr}
                    else:
                        sat = {i for i in idx if X[i][col] >= thr}
                    nl = len(sat)
                    if nl == 0 or nl == len(idx):
                        continue
                    left = [0] * k
                    right = [0] * k
                    for i in idx:
                        (left if i in sat else right)[y[i]] += 1
                    g = o_gain(parent_h, left, right, len(idx))
                    key = (attr, FN_RANK[fn], op, thr)
                    if best is None or g > best[0] or \
                            (g == best[0] and key < best[1]):
                        best = (g, key, (attr, fn, op, thr), sat)
        if best is None or best[0] < min_gain:
            return leaf(idx)
        attr, fn, op, thr = best[2]
        sat = best[3]
        lidx = [i for i in idx if i in sat]
        ridx = [i for i in idx if i not in sat]
        return ("split", attr, fn, op, thr, grow(lidx), grow(ridx))

    return grow(list(range(len(X))))
