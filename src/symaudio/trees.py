"""Decision tree and forest learning over interval feature tables.

Each internal node tests a decision (relation, atom): the node is true for an
instance when some world reachable from its current world set under the
relation satisfies the atom.  Taking the true branch refines the world set to
the witnesses; the false branch leaves it unchanged.  Propositional trees fix
the relation to Id on the single full interval, modal trees are rooted at the
global relation G.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from .cubefile import atomic_write
from .intervals import REL_ORDER, RELATIONS, frame
from .logiset import (FEATURE_FNS, FN_INDEX, Atom, atom_values, compare,
                      instance_from_cube)

DEFAULT_RELATIONS = ("L", "Linv", "AO", "AOinv", "DBE", "DBEinv", "G")

MODEL_SCHEMA_VERSION = 1

# Entries of the largest p * log2(p) term table a split search keeps for a
# node (8 MiB of float64); bigger nodes look their terms up block by block
TERM_TABLE_MAX = 1 << 20


@dataclass(frozen=True)
class Decision:
    relation: str
    atom: Atom


@dataclass(frozen=True)
class Leaf:
    class_id: int
    histogram: tuple


@dataclass(frozen=True)
class Split:
    decision: Decision
    left: object   # true branch
    right: object  # false branch


@dataclass(frozen=True)
class LearnParams:
    mode: str = "modal"
    min_gain: float = 0.01
    max_leaf_entropy: float = 0.6
    relations: tuple = DEFAULT_RELATIONS
    functions: tuple = FEATURE_FNS
    n_trees: int = 100
    instance_frac: float = 0.7
    attr_frac: float = 0.5
    seed: object = 0   # an int or a sequence of ints; stored as a tuple

    def __post_init__(self):
        seed = self.seed if isinstance(self.seed, (tuple, list)) else \
            (self.seed,)
        for x in (self.min_gain, self.max_leaf_entropy, self.n_trees,
                  self.instance_frac, self.attr_frac, *seed):
            # bool is an Integral, but True is no tree count, seed or fraction
            if isinstance(x, bool) or not isinstance(x, Real):
                raise ValueError(f"params hold {x!r} for a number")
        if self.mode not in ("propositional", "modal"):
            raise ValueError(f"bad mode {self.mode!r}")
        if not (self.min_gain >= 0 and self.max_leaf_entropy >= 0):
            raise ValueError("min_gain and max_leaf_entropy must be >= 0")
        if not (0.0 < self.instance_frac <= 1.0 and 0.0 < self.attr_frac <= 1.0):
            raise ValueError("sampling fractions must be in (0, 1]")
        # a string is a sequence of names to `in`, and "L" or "LG" would
        # pass; a set or a dict has no order to search or save names in
        for names in (self.relations, self.functions):
            if isinstance(names, str):
                raise ValueError("params hold a string for a list of names")
            if not isinstance(names, (tuple, list)):
                raise ValueError(f"params hold {names!r} for a list of names")
        for r in self.relations:
            if r not in RELATIONS or r == "Id":
                raise ValueError(f"bad relation {r!r} in params")
        for fn in self.functions:
            if fn not in FEATURE_FNS:
                raise ValueError(f"bad feature function {fn!r} in params")
        # a name given twice would be searched twice at every node
        for kind, names in (("relation", self.relations),
                            ("feature function", self.functions)):
            if len(set(names)) != len(names):
                raise ValueError(f"params name a {kind} twice: "
                                 f"{list(names)}")
        if not (isinstance(self.n_trees, Integral) and self.n_trees >= 1):
            raise ValueError(f"bad n_trees {self.n_trees!r} in params")
        if not seed or \
                not all(isinstance(s, Integral) and s >= 0 for s in seed):
            raise ValueError(f"bad seed {self.seed!r} in params")
        # Python ints, so that a numpy integer seed still writes as JSON
        object.__setattr__(self, "seed", tuple(int(s) for s in seed))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "functions", tuple(self.functions))


@dataclass(frozen=True)
class Model:
    kind: str             # "tree" or "forest"
    params: LearnParams
    classes: tuple
    attr_names: tuple
    trees: tuple
    attr_subsets: tuple = ()


def entropy(histogram):
    """Shannon entropy in bits of a class count histogram."""
    total = sum(histogram)
    if total <= 0:
        raise ValueError("empty histogram")
    h = 0.0
    for c in histogram:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def witnesses(decision, vals, worlds, frame):
    """Apply decision to boolean world rows: (truth, refined worlds).

    vals holds the decision's feature at every world of frame, shaped like
    worlds (one row per instance, or a single row).  A row is true when some
    world reachable from it under the relation satisfies the atom; a true row
    becomes the set of those witnesses, a false row stays as it was.
    """
    atom = decision.atom
    sat = frame.reach(decision.relation, worlds) & \
        compare(atom.op, vals, atom.threshold)
    truth = sat.any(axis=-1)
    return truth, np.where(truth[..., None], sat, worlds)


# --- split search -----------------------------------------------------------

def _class_runs(parent_hist):
    """Split the classes into runs whose mixed-radix codes fit int64.

    A left histogram with counts l_c <= n_c (n_c the node's count of class
    c) has the code sum(l_c * radix[c]) in each run, radix[c] being the
    product of (n_c' + 1) over the classes c' before c in its run.  Returns
    (radix, run): run[c] is the run holding class c.  One run covers every
    class unless its codes would pass int64.
    """
    radix = np.ones(len(parent_hist), dtype=np.int64)
    run = np.zeros(len(parent_hist), dtype=np.intp)
    span = 1   # the code range of the current run
    for c, n in enumerate(parent_hist):
        if span * (n + 1) > np.iinfo(np.int64).max:
            run[c:] += 1
            span = 1
        radix[c] = span
        span *= n + 1
    return radix, run


def _log_terms(at, m):
    """p * log2(p) for p = count / total at each index count * (m + 1) +
    total, with math.log2 as entropy has it: np.log2 can differ from it in
    the last bit."""
    p = (at // (m + 1)) / (at % (m + 1))
    return p * np.array([math.log2(x) if x else 0.0 for x in p.tolist()])


def _block_best(vals, reach, miss, weight, gains_of):
    """The best candidate of one (relation, function) block, or None.

    vals (worlds, m, attrs) holds the block's feature values, worlds first,
    reach (m, worlds) each instance's reachable worlds, miss (worlds, m, 1)
    0.0 at reachable and NaN at unreachable worlds, and weight (runs, m)
    each instance's class digit weight per run.  gains_of maps the run codes
    (runs, n) of n left histograms to their gains.  Returns (gain, attr
    position, op, threshold) of the first top-gain candidate in (attr, op,
    threshold) order.

    The left set of `<= t` is the instances whose minimum over their
    reachable worlds is <= t, and of `>= t` those whose maximum is >= t, so
    it changes only at an instance's extremum.  Each attribute and op thus
    has one candidate per distinct finite extremum, whose left set is a
    prefix of the instances sorted by it; only the winner's threshold is
    looked up among the reachable values.
    """
    m = vals.shape[1]
    # each instance's minimum and negated maximum over its reachable worlds:
    # fmin and fmax skip the NaN that miss puts at unreachable worlds, and
    # reducing over the leading axis is numpy's fast path.  An instance
    # with no reachable world keys +inf, as in the exhaustive search, where
    # it counts as lying left of `<= inf` and `>= -inf`.
    v = vals + miss
    key = np.stack([np.fmin.reduce(v, axis=0),
                    -np.fmax.reduce(v, axis=0)]).transpose(2, 0, 1)
    key[np.isnan(key)] = np.inf
    by = np.argsort(key, axis=2)
    key = np.sort(key, axis=2)   # (attrs, op, m), in the order of by
    # position p puts the first p + 1 sorted instances on the left: the
    # last position of each run of equal keys is a candidate, unless it
    # puts every instance on the left (so a +inf key never is)
    cand = np.zeros(key.shape, dtype=bool)
    cand[..., :-1] = key[..., 1:] != key[..., :-1]
    codes = np.cumsum(weight[:, by], axis=3)
    # `>=` thresholds rise as the maximum falls
    cand[:, 1] = cand[:, 1, ::-1].copy()
    codes[:, :, 1] = codes[:, :, 1, ::-1].copy()
    at = np.flatnonzero(cand)
    if not at.size:
        return None
    gains = gains_of(codes.reshape(len(codes), -1)[:, at])
    top = gains.max()
    j, o, p = np.unravel_index(at[np.argmax(gains == top)], cand.shape)
    # The threshold is the left set's least reachable value: the instance
    # minimum for `<=`, and for `>=` the least value above the next lower
    # instance maximum.  It is read from the sorted values themselves,
    # which keeps their sign of zero.
    pool = np.sort(vals[:, :, j].T[reach])
    if o == 0:
        t = np.searchsorted(pool, key[j, 0, p], "left")
    else:
        # -(next lower maximum), +inf when there is none or it is -inf: the
        # search then passes over any -inf in the pool
        t = np.searchsorted(pool, -key[j, 1, m - p], "right")
    return float(top), int(j), ("<=", ">=")[o], float(pool[t])


def best_split(ls, rows, worlds, *, relations, functions, attrs):
    """Exhaustive search over relation x function x attribute x op x threshold.

    The node holds the instances `rows` of ls, each with its boolean world
    row in `worlds`.  Thresholds are the distinct feature values observed at
    the reachable worlds of the node's instances.  Returns (Decision, gain)
    maximizing entropy gain, ties broken by the canonical (relation, attr,
    fn, op, threshold) order; None when no candidate partitions the node.

    Each (relation, function) block scores every attribute at once (see
    _block_best), and the exact gain of each candidate is computed in one
    vectorised pass from a table of the node's p * log2(p) terms.
    """
    rows = np.asarray(rows)
    m = len(rows)
    if m < 2:
        return None
    k = len(ls.classes)
    labels = np.array([ls.instances[i].label for i in rows])
    parent_hist = tuple(int(c) for c in np.bincount(labels, minlength=k))
    parent_h = entropy(parent_hist)
    if parent_h == 0.0:
        return None

    attrs = sorted(attrs)
    fns = [fn for fn in FEATURE_FNS if fn in set(functions)]
    radix, run = _class_runs(parent_hist)
    weight = np.zeros((run[-1] + 1, m), dtype=np.int64)
    weight[run[labels], np.arange(m)] = radix[labels]
    base = np.array(parent_hist) + 1
    # p * log2(p) for p = count / total at index count * (m + 1) + total: a
    # table filled as the node's blocks first need it, while it holds at
    # most TERM_TABLE_MAX entries; past that, each block computes its own
    # distinct indices, so memory grows with the candidates, not with m**2
    size = (max(parent_hist) + 1) * (m + 1)
    table = np.full(size, np.nan) if size <= TERM_TABLE_MAX else None

    def terms(at):
        if table is None:
            new, inv = np.unique(at, return_inverse=True)
            return _log_terms(new, m)[inv.reshape(at.shape)]
        got = table[at]
        new = np.isnan(got)
        if new.any():
            new = np.unique(at[new])
            table[new] = _log_terms(new, m)
            got = table[at]
        return got

    def gains_of(codes):
        lefts = codes[run] // radix[:, None] % base[:, None]
        hists = np.concatenate([lefts, base[:, None] - 1 - lefts], axis=1)
        # total * entropy(hist) of each left and right histogram, as entropy
        # computes it: the terms subtracted class by class, a zero count
        # subtracting 0.0
        total = hists.sum(axis=0)
        got = terms(hists * (m + 1) + total)
        h = np.zeros(hists.shape[1])
        for t in got:
            h -= t
        nh, n = total * h, lefts.shape[1]
        return parent_h - (nh[:n] + nh[n:]) / m

    reaches = [(rel, ls.frame.reach(rel, worlds)) for rel in relations]
    reaches = [(rel, reach, np.where(reach.T, 0.0, np.nan)[:, :, None])
               for rel, reach in reaches if reach.any()]
    if not reaches:
        return None
    best = None  # (gain, key, Decision)
    for fn in fns:
        fi = FN_INDEX[fn]
        # one gather per function serves every relation's block
        vals = np.ascontiguousarray(
            ls.table[rows[:, None], fi, attrs].transpose(2, 0, 1))
        for rel, reach, miss in reaches:
            found = _block_best(vals, reach, miss, weight, gains_of)
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


# --- tree learning ----------------------------------------------------------

def _node_relations(params, depth):
    if params.mode == "propositional":
        return ("Id",)
    if depth == 0:
        return ("G",)
    return ("Id", *params.relations)


def learn_tree(ls, params, indices=None, attrs=None):
    """Grow a tree top-down; leaves stop at low entropy or insufficient gain."""
    if params.mode != ls.mode:
        raise ValueError("learner mode does not match the logiset mode")
    if indices is None:
        indices = range(len(ls.instances))
    indices = sorted(indices)
    if not indices:
        raise ValueError("cannot learn from an empty instance set")
    if attrs is None:
        attrs = range(ls.n_attrs)
    attrs = sorted(attrs)
    k = len(ls.classes)

    def grow(rows, worlds, depth):
        labels = np.array([ls.instances[i].label for i in rows])
        hist = tuple(int(c) for c in np.bincount(labels, minlength=k))
        leaf = Leaf(class_id=int(np.argmax(hist)), histogram=hist)
        if entropy(hist) <= params.max_leaf_entropy or len(rows) < 2:
            return leaf
        found = best_split(ls, rows, worlds,
                           relations=_node_relations(params, depth),
                           functions=params.functions, attrs=attrs)
        if found is None or found[1] < params.min_gain:
            return leaf
        decision = found[0]
        truth, refined = witnesses(
            decision, atom_values(ls.table, decision.atom)[rows], worlds,
            ls.frame)
        if truth.all() or not truth.any():
            return leaf
        return Split(decision=decision,
                     left=grow(rows[truth], refined[truth], depth + 1),
                     right=grow(rows[~truth], refined[~truth], depth + 1))

    # every instance starts at every world of the frame
    return grow(np.array(indices),
                np.ones((len(indices), len(ls.frame.intervals)), dtype=bool),
                0)


def route_tree(tree, inst, mode):
    """Follow decisions from every world; returns (leaf, branch path)."""
    if inst.frame is not frame(mode, inst.T):
        raise ValueError(f"instance table is not in {mode} mode")
    worlds = np.ones(len(inst.frame.intervals), dtype=bool)
    node = tree
    path = []
    while isinstance(node, Split):
        truth, worlds = witnesses(
            node.decision, atom_values(inst.table, node.decision.atom),
            worlds, inst.frame)
        node = node.left if truth else node.right
        path.append(bool(truth))
    return node, path


def predict_tree(tree, inst, mode):
    leaf, _ = route_tree(tree, inst, mode)
    return leaf.class_id


# --- forests ----------------------------------------------------------------

_FOREST_TAG = 23


def learn_forest(ls, params, indices=None):
    """Bagged trees on instance and attribute subsamples, grown to purity."""
    if indices is None:
        indices = range(len(ls.instances))
    indices = sorted(indices)
    m = len(indices)
    n_inst = math.ceil(params.instance_frac * m)
    n_attr = math.ceil(params.attr_frac * ls.n_attrs)
    grow_params = replace(params, min_gain=0.0, max_leaf_entropy=0.0)
    trees = []
    subsets = []
    for t in range(params.n_trees):
        rng = np.random.default_rng((*params.seed, _FOREST_TAG, t))
        inst_sample = sorted(rng.choice(indices, size=n_inst, replace=False))
        attr_sample = sorted(rng.choice(ls.n_attrs, size=n_attr,
                                        replace=False))
        trees.append(learn_tree(ls, grow_params, indices=inst_sample,
                                attrs=[int(a) for a in attr_sample]))
        subsets.append(tuple(int(a) for a in attr_sample))
    return Model(kind="forest", params=params, classes=ls.classes,
                 attr_names=ls.attr_names, trees=tuple(trees),
                 attr_subsets=tuple(subsets))


def predict_forest(model, inst):
    """Plurality vote over the model's trees, ties going to the lowest class
    index; a tree model is a forest of one, whose vote is its prediction."""
    votes = np.zeros(len(model.classes), dtype=np.int64)
    for tree in model.trees:
        votes[predict_tree(tree, inst, model.params.mode)] += 1
    return int(np.argmax(votes))


# --- serialization ----------------------------------------------------------

def model_from_tree(tree, params, classes, attr_names):
    return Model(kind="tree", params=params, classes=tuple(classes),
                 attr_names=tuple(attr_names), trees=(tree,))


def predict_model(model, cube):
    if tuple(cube.names) != model.attr_names:
        raise ValueError("cube attributes do not match the model schema")
    inst = instance_from_cube(cube, model.params.mode)
    return model.params.mode, predict_forest(model, inst)


def _node_to_dict(node, classes, attr_names):
    if isinstance(node, Leaf):
        return {"leaf": classes[node.class_id],
                "histogram": list(node.histogram)}
    d = node.decision
    return {
        "decision": {"relation": d.relation, "fn": d.atom.fn,
                     "attr_name": attr_names[d.atom.attr], "op": d.atom.op,
                     "threshold": d.atom.threshold},
        "left": _node_to_dict(node.left, classes, attr_names),
        "right": _node_to_dict(node.right, classes, attr_names),
    }


def _node_from_dict(doc, model, depth):
    if "leaf" in doc:
        if doc["leaf"] not in model.classes:
            raise ValueError(f"leaf names unknown class {doc['leaf']!r}")
        hist = doc["histogram"]
        if not (isinstance(hist, list) and len(hist) == len(model.classes)
                and all(type(c) is int and c >= 0 for c in hist)):
            raise ValueError(f"bad leaf histogram {hist!r}")
        return Leaf(class_id=model.classes.index(doc["leaf"]),
                    histogram=tuple(hist))
    d = doc["decision"]
    if d["attr_name"] not in model.attr_names:
        raise ValueError(f"decision names unknown attribute "
                         f"{d['attr_name']!r}")
    threshold = d["threshold"]
    # a decision the model's parameters allow at this depth, on a JSON number
    if d["relation"] not in _node_relations(model.params, depth) or \
            d["fn"] not in model.params.functions or \
            d["op"] not in ("<=", ">=") or \
            type(threshold) not in (int, float) or \
            not math.isfinite(threshold):
        raise ValueError(f"bad decision {d!r} at depth {depth}")
    atom = Atom(fn=d["fn"], attr=model.attr_names.index(d["attr_name"]),
                op=d["op"], threshold=float(threshold))
    return Split(decision=Decision(d["relation"], atom),
                 left=_node_from_dict(doc["left"], model, depth + 1),
                 right=_node_from_dict(doc["right"], model, depth + 1))


def model_to_dict(model):
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind,
        "params": asdict(model.params),
        "classes": list(model.classes),
        "attr_names": list(model.attr_names),
        "trees": [_node_to_dict(t, model.classes, model.attr_names)
                  for t in model.trees],
        "attr_subsets": [list(s) for s in model.attr_subsets],
    }


def model_from_dict(doc):
    """Rebuild a model from its JSON document; ValueError if it is malformed."""
    try:
        return _model_from_dict(doc)
    except (AttributeError, KeyError, TypeError, OverflowError) as e:
        raise ValueError(f"malformed model document: {e!r}") from None
    except RecursionError:
        raise ValueError("model document nests too deeply") from None


_PARAM_KEYS = {f.name for f in fields(LearnParams)}


def _model_from_dict(doc):
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ValueError("unsupported model schema version")
    p = doc["params"]
    if set(p) != _PARAM_KEYS:
        raise ValueError(f"model params hold {sorted(p)!r}, not "
                         f"{sorted(_PARAM_KEYS)!r}")
    for value in (p["seed"], p["relations"], p["functions"], doc["classes"],
                  doc["attr_names"], doc["trees"], doc["attr_subsets"]):
        if not isinstance(value, list):
            raise ValueError(f"model document holds {value!r}, not a list")
    for names in (doc["classes"], doc["attr_names"]):
        if len(set(names)) != len(names):
            raise ValueError(f"model document repeats a name in {names!r}")
    params = LearnParams(**p)
    if doc["kind"] not in ("tree", "forest") or not doc["trees"] or \
            (doc["kind"] == "tree" and len(doc["trees"]) != 1):
        raise ValueError(f"a {doc['kind']!r} model cannot hold "
                         f"{len(doc['trees'])} trees")
    # a forest holds one attribute subset per tree, a tree none
    subsets = doc["attr_subsets"]
    n_subsets = len(doc["trees"]) if doc["kind"] == "forest" else 0
    if len(subsets) != n_subsets or not all(
            isinstance(s, list) and
            all(type(a) is int and 0 <= a < len(doc["attr_names"])
                for a in s) and len(set(s)) == len(s) for s in subsets):
        raise ValueError(f"bad attr_subsets {subsets!r} for a "
                         f"{doc['kind']} of {len(doc['trees'])} trees")
    model = Model(kind=doc["kind"], params=params,
                  classes=tuple(doc["classes"]),
                  attr_names=tuple(doc["attr_names"]), trees=(),
                  attr_subsets=tuple(tuple(s) for s in doc["attr_subsets"]))
    return replace(model, trees=tuple(_node_from_dict(t, model, 0)
                                      for t in doc["trees"]))


def model_to_json(model):
    return json.dumps(model_to_dict(model), sort_keys=True,
                      separators=(",", ":")) + "\n"


def save_model(model, path):
    atomic_write(path, model_to_json(model).encode("utf-8"))


def load_model(path):
    """Read a model file; ValueError if it is not a well-formed model."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"model file {path} nests too deeply") from None
    return model_from_dict(doc)
