"""Decision construction, split search, tree/forest learning, model files."""
import json
import math
import tracemalloc
from functools import lru_cache
from itertools import compress
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import reference_split
from symaudio import trees
from symaudio.audio import FeatureCube
from symaudio.evaluation import leaf_count
from symaudio.intervals import frame
from symaudio.logiset import Atom, atom_values, build_logiset, \
    instance_from_cube
from symaudio.trees import (DEFAULT_RELATIONS, Decision, Leaf, LearnParams,
                            Model, Split, best_split, entropy, learn_forest,
                            learn_tree, load_model, model_from_dict,
                            model_from_tree, model_to_dict, model_to_json,
                            predict_forest, predict_model, predict_tree,
                            route_tree, save_model, witnesses)


def _cube(values, names=None):
    arr = np.asarray(values, dtype=np.float64)
    if names is None:
        names = tuple(f"a{i}" for i in range(arr.shape[0]))
    return FeatureCube(names, arr)


def _ls(series_list, labels, mode="modal"):
    cubes = [_cube(s) for s in series_list]
    return build_logiset(cubes, labels, mode=mode)


def _all_worlds(ls, m):
    return np.ones((m, len(ls.frame.intervals)), dtype=bool)


def _oracle_states(ls, rows, worlds):
    """The node as the oracle reads it: index and interval frozenset."""
    return [SimpleNamespace(index=int(i),
                            worlds=frozenset(compress(ls.frame.intervals, w)))
            for i, w in zip(rows, worlds)]


def _apply(decision, ls, worlds):
    """Route instance 0 of ls from an interval set: (truth, new set)."""
    f = ls.frame
    row = np.array([w in worlds for w in f.intervals])
    truth, new = witnesses(decision, atom_values(ls.table[0], decision.atom),
                           row, f)
    return bool(truth), frozenset(compress(f.intervals, new))


def _random_ls(rng, m, T, n_attrs, mode="modal"):
    series = [rng.integers(0, 9, size=(n_attrs, T)) / 8.0 for _ in range(m)]
    labels = [int(x) for x in rng.integers(0, 2, size=m)]
    if len(set(labels)) < 2:
        labels[0] = 1 - labels[0]
    return _ls(series, labels, mode=mode)


# --- entropy -----------------------------------------------------------------

def test_entropy_vectors():
    assert entropy((5, 5)) == 1.0
    assert entropy((10, 0)) == 0.0
    assert entropy((25, 25, 25, 25)) == 2.0
    assert entropy((1, 3)) == pytest.approx(0.8112781244591328)
    with pytest.raises(ValueError):
        entropy(())


def test_default_relations():
    assert DEFAULT_RELATIONS == ("L", "Linv", "AO", "AOinv", "DBE",
                                 "DBEinv", "G")


def test_initial_worlds():
    assert frozenset(frame("propositional", 5).intervals) == \
        frozenset([(0, 5)])
    modal = frozenset(frame("modal", 3).intervals)
    assert modal == frozenset([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                               (2, 3)])


def test_learn_params_validation():
    with pytest.raises(ValueError):
        LearnParams(mode="sideways")
    with pytest.raises(ValueError):
        LearnParams(relations=("Id", "L"))
    with pytest.raises(ValueError):
        LearnParams(relations=("Later",))
    with pytest.raises(ValueError):
        LearnParams(instance_frac=0.0)
    with pytest.raises(ValueError):
        LearnParams(attr_frac=1.5)
    with pytest.raises(ValueError):
        LearnParams(min_gain=-0.1)
    with pytest.raises(ValueError):
        LearnParams(functions=("max", "sum"))
    # a name given twice would be searched twice at every node
    with pytest.raises(ValueError, match="relation twice"):
        LearnParams(relations=("L", "L", "G"))
    with pytest.raises(ValueError, match="feature function twice"):
        LearnParams(functions=("max", "min", "max"))
    # bool is an Integral, but no boolean is a count, a seed or a fraction;
    # nor is a string, which compares as a TypeError
    for bad in [{"n_trees": True}, {"seed": True}, {"seed": (1, False)},
                {"seed": [False]}, {"min_gain": True},
                {"max_leaf_entropy": False}, {"instance_frac": True},
                {"attr_frac": True}, {"min_gain": "0.5"},
                {"attr_frac": "1"}]:
        with pytest.raises(ValueError):
            LearnParams(**bad)
    # every character of "L" or "LG" is a relation name, but a model file
    # written from such params could not be read back
    for bad in [{"relations": "L"}, {"relations": "LG"},
                {"functions": "max"}]:
        with pytest.raises(ValueError, match="string"):
            LearnParams(**bad)


def test_learn_params_store_one_form():
    # a seed and the names are stored as tuples, whatever sequence came in
    tupled = LearnParams(seed=(3,), relations=("L", "G"),
                         functions=("max", "min"))
    for seed in (3, (3,), [3], np.int64(3), [np.int64(3)]):
        for relations in (("L", "G"), ["L", "G"]):
            for functions in (("max", "min"), ["max", "min"]):
                params = LearnParams(seed=seed, relations=relations,
                                     functions=functions)
                assert params == tupled
                assert hash(params) == hash(tupled)
                assert type(params.seed[0]) is int
    assert LearnParams().seed == (0,)
    assert LearnParams(seed=[5, 2]).seed == (5, 2)
    assert LearnParams(relations=["G"]).relations == ("G",)
    assert LearnParams(functions=["max"]).functions == ("max",)


def test_learn_params_refuse_unordered_names():
    # a set or a dict has no order to search or save names in, and a
    # string is no list of names
    for field, names in (("relations", "L"), ("functions", "max")):
        for bad in ({names}, {names: 1}, names):
            with pytest.raises(ValueError, match="for a list of names"):
                LearnParams(**{field: bad})


# --- decision application ----------------------------------------------------

def test_apply_decision_refines_to_all_witnesses():
    ls = _ls([[[1, 2, 3, 4, 5]]], [0])
    dec = Decision("L", Atom(fn="max", attr=0, op=">=", threshold=5.0))
    truth, new = _apply(dec, ls, frozenset([(0, 2)]))
    assert truth is True
    # every later interval whose max reaches 5 becomes a world
    assert new == frozenset([(3, 5), (4, 5)])


def test_apply_decision_false_keeps_worlds():
    ls = _ls([[[1, 2, 3, 4, 5]]], [0])
    dec = Decision("L", Atom(fn="max", attr=0, op=">=", threshold=9.0))
    truth, new = _apply(dec, ls, frozenset([(0, 2)]))
    assert truth is False
    assert new == frozenset([(0, 2)])


def test_apply_decision_propositional_identity():
    ls = _ls([[[1, 2, 3, 4, 5]]], [0], mode="propositional")
    dec = Decision("Id", Atom(fn="mean", attr=0, op=">=", threshold=2.0))
    truth, new = _apply(dec, ls, frozenset([(0, 5)]))
    assert truth is True
    assert new == frozenset([(0, 5)])


def test_apply_decision_global_sweep():
    ls = _ls([[[0, 0, 7, 0]]], [0])
    dec = Decision("G", Atom(fn="max", attr=0, op=">=", threshold=7.0))
    truth, new = _apply(dec, ls, frozenset([(0, 1)]))
    assert truth is True
    # all intervals covering the spike at point 3
    assert new == frozenset([(0, 3), (0, 4), (1, 3), (1, 4), (2, 3),
                             (2, 4)])


def test_apply_decision_id_filters_worlds():
    ls = _ls([[[0, 0, 7, 0]]], [0])
    dec = Decision("Id", Atom(fn="max", attr=0, op=">=", threshold=7.0))
    truth, new = _apply(dec, ls, frozenset([(0, 1), (0, 3), (2, 3)]))
    assert truth is True
    assert new == frozenset([(0, 3), (2, 3)])


# --- split search ------------------------------------------------------------

def test_best_split_separable_propositional():
    ls = _ls([[[0, 0, 0]], [[0, 0.1, 0]], [[0.1, 0, 0]],
              [[1, 1, 1]], [[0.9, 1, 1]], [[1, 0.9, 1]]],
             [0, 0, 0, 1, 1, 1], mode="propositional")
    found = best_split(ls, np.arange(6), _all_worlds(ls, 6),
                       relations=("Id",),
                       functions=("max", "min", "mean"), attrs=(0,))
    assert found is not None
    dec, gain = found
    assert gain == 1.0
    assert dec == Decision("Id", Atom(fn="max", attr=0, op="<=",
                                      threshold=0.1))


def test_best_split_pure_node_is_none():
    ls = _ls([[[0, 1, 0]], [[1, 0, 1]]], [0, 0])
    assert best_split(ls, np.arange(2), _all_worlds(ls, 2), relations=("G",),
                      functions=("max",), attrs=(0,)) is None


def test_best_split_identical_instances_is_none():
    ls = _ls([[[0.5, 0.5, 0.5]]] * 4, [0, 1, 0, 1])
    assert best_split(ls, np.arange(4), _all_worlds(ls, 4), relations=("G",),
                      functions=("max", "min", "mean", "std"),
                      attrs=(0,)) is None


def _check_against_oracle(ls, rows, worlds, relations, functions, attrs):
    got = best_split(ls, rows, worlds, relations=relations,
                     functions=functions, attrs=attrs)
    want = oracles.naive_best_split(ls, _oracle_states(ls, rows, worlds),
                                    relations, functions, attrs)
    if want is None:
        assert got is None
        return False
    (rel, fn, attr, op, thr), w_gain = want
    dec, gain = got
    assert dec == Decision(rel, Atom(fn=fn, attr=attr, op=op, threshold=thr))
    assert gain == w_gain
    return True


def test_best_split_matches_naive_oracle():
    rng = np.random.default_rng(9)
    rel_menu = [("G",), ("G", "L"), ("L", "AO", "DBE"),
                ("Id", "G", "Linv", "AOinv", "DBEinv")]
    fn_menu = [("max",), ("max", "min", "mean"), ("median", "std"),
               ("entropy_pairs", "transition_var", "stretch_high",
                "stretch_decr")]
    for trial in range(10):
        ls = _random_ls(rng, m=6, T=3, n_attrs=2)
        rows, worlds = np.arange(6), _all_worlds(ls, 6)
        relations = rel_menu[trial % len(rel_menu)]
        functions = fn_menu[trial % len(fn_menu)]
        _check_against_oracle(ls, rows, worlds, relations, functions,
                              (0, 1))


def test_best_split_oracle_classes_subsets_and_unreachable_worlds():
    # 3 or 4 classes with one absent from the node, attribute subsets with
    # gaps, tie-heavy values, and instances whose only world is the full
    # interval, which has no L or AO successor
    rng = np.random.default_rng(23)
    rel_menu = [("Id", "L", "AO", "DBE"), ("L", "AOinv", "G"),
                ("AO", "Linv", "DBEinv")]
    fn_menu = [("max", "min", "std"), ("mean", "median"),
               ("entropy_pairs", "stretch_high", "stretch_decr"),
               ("transition_var", "min")]
    subsets = [(0, 2, 3), (1, 4), (0, 1, 2, 3, 4), (4,)]
    n_found = 0
    for trial in range(40):
        n_classes = 3 + trial % 2
        m, T = 9 + trial % 4, 3 + trial % 2
        series = [rng.integers(0, 3, size=(5, T)) / 2.0 for _ in range(m)]
        labels = [i % n_classes for i in range(m)]
        ls = _ls(series, labels)
        rows = np.array([i for i in range(m)
                         if labels[i] != trial % n_classes])
        f = ls.frame
        worlds = rng.random((len(rows), len(f.intervals))) < 0.4
        worlds[:, f.index[(0, T)]] = True
        worlds[::3] = False
        worlds[::3, f.index[(0, T)]] = True
        n_found += _check_against_oracle(
            ls, rows, worlds, rel_menu[trial % len(rel_menu)],
            fn_menu[trial % len(fn_menu)], subsets[trial % len(subsets)])
    assert n_found >= 30


def test_best_split_oracle_codes_past_int64():
    # 40 classes of 2: the left histograms' mixed-radix codes range over
    # 3**40 > 2**63, so the search compresses them run by run
    rng = np.random.default_rng(29)
    labels = [i % 40 for i in range(80)]
    assert math.prod(labels.count(c) + 1 for c in range(40)) > 2 ** 63
    for trial in range(2):
        series = [rng.integers(0, 9, size=(5, 2)) / 4.0 for _ in labels]
        ls = _ls(series, labels, mode="propositional")
        assert _check_against_oracle(
            ls, np.arange(80), _all_worlds(ls, 80), ("Id",),
            ("max", "mean", "std"), (0, 3, 4))


def test_best_split_gain_bounds():
    rng = np.random.default_rng(13)
    for _ in range(10):
        ls = _random_ls(rng, m=8, T=3, n_attrs=2)
        labels = [inst.label for inst in ls.instances]
        parent = oracles.o_entropy([labels.count(c) for c in (0, 1)])
        found = best_split(ls, np.arange(8), _all_worlds(ls, 8),
                           relations=("G", "L", "DBE"),
                           functions=("max", "mean"), attrs=(0, 1))
        if found is not None:
            assert -1e-12 <= found[1] <= parent + 1e-12


def _same_split(got, want):
    """Assert got is want bit for bit; return the atom, or None for no split.

    Thresholds are also compared by repr, which shows the sign of zero that
    == cannot and that model.json writes."""
    if want is None:
        assert got is None
        return None
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert repr(got[0].atom.threshold) == repr(want[0].atom.threshold)
    return want[0].atom


def test_best_split_matches_reference_at_every_node(monkeypatch):
    # trees grown to purity on tie-heavy noise cubes, in both modes, with
    # 2-4 classes and attribute subsets: every node's search must return
    # what the replaced search returns, -0.0 thresholds included (a
    # one-pair entropy_pairs value is -0.0, a one-point one +0.0)
    atoms = []

    def both(ls, rows, worlds, **kw):
        got = best_split(ls, rows, worlds, **kw)
        atoms.append(_same_split(
            got, reference_split.best_split(ls, rows, worlds, **kw)))
        return got

    monkeypatch.setattr(trees, "best_split", both)
    rng = np.random.default_rng(3)
    for trial in range(12):
        mode = ("modal", "propositional")[trial % 2]
        m, T = 16 + 4 * (trial % 3), 3 + trial % 3
        step = (0.5, 1.0)[trial % 2]
        series = [np.round(rng.normal(size=(4, T)) / step) * step
                  for _ in range(m)]
        labels = [int(c) for c in rng.integers(0, 2 + trial % 3, size=m)]
        learn_tree(_ls(series, labels, mode=mode),
                   LearnParams(mode=mode, min_gain=0.0, max_leaf_entropy=0.0),
                   attrs=[(0, 1, 2, 3), (0, 2, 3), (1, 3)][trial % 3])
    found = [a for a in atoms if a is not None]
    assert len(found) >= 60
    assert {a.op for a in found if repr(a.threshold) == "-0.0"} == \
        {"<=", ">="}


@pytest.mark.parametrize("table_max", [trees.TERM_TABLE_MAX, 0])
def test_best_split_matches_reference_unreachable_worlds_and_codes(
        monkeypatch, table_max):
    # random world rows, some holding only the full interval, which has no
    # L or AO successor; then 40 classes of 2, whose left-histogram codes
    # range over 3**40 > 2**63.  A term table cap of 0 sends every node
    # down the path that big nodes take.
    monkeypatch.setattr(trees, "TERM_TABLE_MAX", table_max)
    rng = np.random.default_rng(31)
    fn_menu = [("max", "min", "std"), ("mean", "median"),
               ("entropy_pairs", "stretch_high", "stretch_decr"),
               ("transition_var", "min")]
    n_found = 0
    for trial in range(24):
        n_classes = 2 + trial % 3
        m, T = 10 + trial % 5, 3 + trial % 3
        series = [rng.integers(0, 3, size=(5, T)) / 2.0 for _ in range(m)]
        ls = _ls(series, [i % n_classes for i in range(m)])
        f = ls.frame
        worlds = rng.random((m, len(f.intervals))) < 0.3
        worlds[::3] = False
        worlds[:, f.index[(0, T)]] = True
        kw = dict(relations=("Id", "L", "AO", "DBE", "Linv", "G"),
                  functions=fn_menu[trial % len(fn_menu)],
                  attrs=[(0, 2, 3), (1, 4), (0, 1, 2, 3, 4)][trial % 3])
        n_found += _same_split(
            best_split(ls, np.arange(m), worlds, **kw),
            reference_split.best_split(ls, np.arange(m), worlds,
                                       **kw)) is not None
    assert n_found >= 20
    labels = [i % 40 for i in range(80)]
    series = [rng.integers(0, 9, size=(5, 2)) / 4.0 for _ in labels]
    ls = _ls(series, labels, mode="propositional")
    kw = dict(relations=("Id",), functions=("max", "mean", "std"),
              attrs=(0, 3, 4))
    rows, worlds = np.arange(80), _all_worlds(ls, 80)
    assert _same_split(best_split(ls, rows, worlds, **kw),
                       reference_split.best_split(ls, rows, worlds, **kw))
    # left (65, 9), right (0, 1): np.log2(65 / 74) can be one ulp off
    # math.log2's, which this gain shows
    ls = _ls([[[0.0]]] * 74 + [[[1.0]]], [0] * 65 + [1] * 10,
             mode="propositional")
    kw = dict(relations=("Id",), functions=("max",), attrs=(0,))
    rows, worlds = np.arange(75), _all_worlds(ls, 75)
    assert _same_split(best_split(ls, rows, worlds, **kw),
                       reference_split.best_split(ls, rows, worlds, **kw))



@pytest.mark.parametrize("table_max", [trees.TERM_TABLE_MAX, 0])
def test_best_split_matches_reference_with_infinite_values(
        monkeypatch, table_max):
    # a feature of values near the float64 limit can overflow to +-inf;
    # an instance whose reachable values are all +inf must still differ
    # from one with no reachable world, and a maximum of -inf from none
    monkeypatch.setattr(trees, "TERM_TABLE_MAX", table_max)
    rng = np.random.default_rng(37)
    n_found = 0
    for trial in range(30):
        m, T = 8 + trial % 5, 3
        series = [rng.integers(0, 3, size=(3, T)) / 2.0 for _ in range(m)]
        ls = _ls(series, [i % (2 + trial % 2) for i in range(m)])
        table = ls.table
        table[rng.random(table.shape) < 0.15] = np.inf
        table[rng.random(table.shape) < 0.15] = -np.inf
        table[0, :, :, :] = (np.inf, -np.inf)[trial % 2]
        worlds = rng.random((m, len(ls.frame.intervals))) < 0.3
        worlds[1::3] = False
        worlds[:, ls.frame.index[(0, T)]] = True
        kw = dict(relations=("Id", "L", "AO", "DBEinv", "G"),
                  functions=("max", "mean", "std"), attrs=(0, 1, 2))
        n_found += _same_split(
            best_split(ls, np.arange(m), worlds, **kw),
            reference_split.best_split(ls, np.arange(m), worlds,
                                       **kw)) is not None
    assert n_found >= 20
    # three instances whose every value is +inf, three with no L successor
    # of their one world, the full interval: `>= inf` under L parts them,
    # while `<= inf` counts the three without a successor left as well
    ls = _ls([[[0.0, 1.0, 2.0]]] * 6, [0, 0, 0, 1, 1, 1])
    ls.table[:3] = np.inf
    worlds = np.zeros((6, len(ls.frame.intervals)), dtype=bool)
    worlds[:3, ls.frame.index[(0, 1)]] = True
    worlds[3:, ls.frame.index[(0, 3)]] = True
    kw = dict(relations=("L",), functions=("max",), attrs=(0,))
    atom = _same_split(
        best_split(ls, np.arange(6), worlds, **kw),
        reference_split.best_split(ls, np.arange(6), worlds, **kw))
    assert (atom.op, atom.threshold) == (">=", np.inf)
    # maxima 5, 5 (class 1) and -inf (class 0): `>=` parts them at the
    # least value above -inf, 1.0, not at the pool's least, -inf
    ls = _ls([[[0.0, 0.0]]] * 6, [0, 0, 1, 1, 1, 1])
    w = [ls.frame.index[(0, 1)], ls.frame.index[(1, 2)]]
    ls.table[:, 0, 0, w] = [[-np.inf, -np.inf]] * 2 + [[1.0, 5.0]] * 2 + \
        [[-np.inf, 5.0]] * 2
    worlds = np.zeros((6, len(ls.frame.intervals)), dtype=bool)
    worlds[:, w] = True
    kw = dict(relations=("Id",), functions=("max",), attrs=(0,))
    atom = _same_split(
        best_split(ls, np.arange(6), worlds, **kw),
        reference_split.best_split(ls, np.arange(6), worlds, **kw))
    assert (atom.op, atom.threshold) == (">=", 1.0)


def test_best_split_memory_grows_with_candidates_not_nodes():
    # a table of p * log2(p) over every (count, total) of a two-class node
    # of 20,000 instances would take 10,001 * 20,001 float64s (1.6 GB)
    m = 20_000
    ls = _ls([[[float(i % 97)]] for i in range(m)], [i % 2 for i in range(m)],
             mode="propositional")
    rows, worlds = np.arange(m), _all_worlds(ls, m)
    tracemalloc.start()
    try:
        found = best_split(ls, rows, worlds, relations=("Id",),
                           functions=("max",), attrs=(0,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found is not None
    assert peak < 32 * 2**20


# --- tree learning -----------------------------------------------------------

def test_learn_tree_separable():
    ls = _ls([[[0, 0, 0]], [[0, 0.1, 0]], [[0.1, 0, 0]],
              [[1, 1, 1]], [[0.9, 1, 1]], [[1, 0.9, 1]]],
             [0, 0, 0, 1, 1, 1], mode="propositional")
    tree = learn_tree(ls, LearnParams(mode="propositional"))
    assert isinstance(tree, Split)
    assert isinstance(tree.left, Leaf) and isinstance(tree.right, Leaf)
    for inst in ls.instances:
        assert predict_tree(tree, inst, "propositional") == inst.label


def test_learn_tree_single_class_is_leaf():
    ls = build_logiset([_cube([[0, 1, 2]]), _cube([[2, 1, 0]])], [1, 1],
                       classes=(0, 1))
    tree = learn_tree(ls, LearnParams())
    assert tree == Leaf(class_id=1, histogram=(0, 2))


def test_learn_tree_modal_root_is_global():
    rng = np.random.default_rng(21)
    for _ in range(5):
        ls = _random_ls(rng, m=8, T=3, n_attrs=2)
        tree = learn_tree(ls, LearnParams(min_gain=0.0,
                                          max_leaf_entropy=0.0))
        if isinstance(tree, Split):
            assert tree.decision.relation == "G"


def test_full_growth_reaches_purity_when_separable():
    rng = np.random.default_rng(17)
    # distinct series make every pair separable by some interval statistic
    series = [rng.normal(size=(2, 4)) for _ in range(8)]
    labels = [0, 1] * 4
    ls = _ls(series, labels)
    tree = learn_tree(ls, LearnParams(min_gain=0.0, max_leaf_entropy=0.0))
    for inst in ls.instances:
        assert predict_tree(tree, inst, "modal") == inst.label


def test_route_path_replays_decisions():
    rng = np.random.default_rng(19)
    ls = _random_ls(rng, m=10, T=3, n_attrs=2)
    tree = learn_tree(ls, LearnParams(min_gain=0.0, max_leaf_entropy=0.0))
    for inst in ls.instances:
        leaf, path = route_tree(tree, inst, "modal")
        node = tree
        worlds = np.ones(len(inst.frame.intervals), dtype=bool)
        for went_left in path:
            assert isinstance(node, Split)
            truth, refined = witnesses(
                node.decision, atom_values(inst.table, node.decision.atom),
                worlds, inst.frame)
            assert bool(truth) is went_left
            if truth:
                worlds = refined
                node = node.left
            else:
                node = node.right
        assert node == leaf


def test_expressivity_gap_on_burst_position():
    # class 0 bursts early, class 1 late; both h=1 and h=2 bursts appear,
    # so the single global interval carries no class signal at all
    series, labels = [], []
    for h in (1.0, 2.0):
        for _ in range(4):
            series.append([[h, 0, 0, 0, 0]])
            labels.append(0)
            series.append([[0, 0, 0, 0, h]])
            labels.append(1)
    fns = ("max", "min", "mean")
    prop = learn_tree(build_logiset([_cube(s) for s in series], labels,
                                    mode="propositional"),
                      LearnParams(mode="propositional", min_gain=0.0,
                                  max_leaf_entropy=0.0, functions=fns))
    prop_ls = build_logiset([_cube(s) for s in series], labels,
                            mode="propositional")
    prop_acc = np.mean([predict_tree(prop, inst, "propositional") == inst.label
                        for inst in prop_ls.instances])
    assert prop_acc == 0.5

    modal_ls = build_logiset([_cube(s) for s in series], labels)
    modal = learn_tree(modal_ls, LearnParams(min_gain=0.0,
                                             max_leaf_entropy=0.0,
                                             functions=fns))
    modal_acc = np.mean([predict_tree(modal, inst, "modal") == inst.label
                         for inst in modal_ls.instances])
    assert modal_acc == 1.0


# --- forests -----------------------------------------------------------------

def test_forest_structure_and_determinism():
    rng = np.random.default_rng(23)
    ls = _random_ls(rng, m=10, T=3, n_attrs=6)
    params = LearnParams(n_trees=5, seed=42)
    forest = learn_forest(ls, params)
    assert len(forest.trees) == 5
    assert len(forest.attr_subsets) == 5
    for sub in forest.attr_subsets:
        assert len(sub) == 3  # ceil(0.5 * 6)
        assert list(sub) == sorted(sub)
        assert all(0 <= a < 6 for a in sub)
    again = learn_forest(ls, params)
    assert forest == again
    other = learn_forest(ls, LearnParams(n_trees=5, seed=43))
    assert other != forest


def test_forest_of_one_matches_its_tree():
    rng = np.random.default_rng(29)
    ls = _random_ls(rng, m=8, T=3, n_attrs=4)
    forest = learn_forest(ls, LearnParams(n_trees=1, seed=3))
    params = LearnParams(min_gain=0.0, max_leaf_entropy=0.0)
    tree = learn_tree(ls, params)
    model = model_from_tree(tree, params, ls.classes, ls.attr_names)
    assert leaf_count(tree) > 2
    for inst in ls.instances:
        assert predict_forest(forest, inst) == \
            predict_tree(forest.trees[0], inst, "modal")
        # a tree model votes like its tree
        assert predict_forest(model, inst) == predict_tree(tree, inst, "modal")
    assert leaf_count(model) == leaf_count(tree)


def test_forest_tie_vote_goes_to_lowest_class():
    leaf0 = Leaf(class_id=0, histogram=(1, 0))
    leaf1 = Leaf(class_id=1, histogram=(0, 1))
    forest = Model(kind="forest", params=LearnParams(), classes=(0, 1),
                   attr_names=("a0",), trees=(leaf0, leaf1),
                   attr_subsets=((0,), (0,)))
    inst = instance_from_cube(_cube([[1.0, 2.0, 3.0]]), "modal")
    assert predict_forest(forest, inst) == 0


# --- model files -------------------------------------------------------------

def test_model_round_trip_tree():
    rng = np.random.default_rng(31)
    ls = _random_ls(rng, m=8, T=3, n_attrs=2)
    params = LearnParams()
    tree = learn_tree(ls, params)
    model = model_from_tree(tree, params, ls.classes, ls.attr_names)
    doc = model_to_dict(model)
    back = model_from_dict(json.loads(json.dumps(doc)))
    assert back == model
    assert model_to_json(model) == model_to_json(back)


def test_model_round_trip_forest(tmp_path):
    rng = np.random.default_rng(37)
    ls = _random_ls(rng, m=8, T=3, n_attrs=4)
    params = LearnParams(n_trees=3, seed=(5, 2))
    model = learn_forest(ls, params)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path) == model
    save_model(model, path)
    assert load_model(path) == model


def test_model_round_trip_with_tuple_params(tmp_path):
    rng = np.random.default_rng(39)
    ls = _random_ls(rng, m=8, T=3, n_attrs=2)
    params = LearnParams(relations=("L", "G"), functions=("max", "min"))
    model = model_from_tree(learn_tree(ls, params), params, ls.classes,
                            ls.attr_names)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path) == model
    assert load_model(path).params.relations == ("L", "G")


def test_forest_seed_round_trips_in_either_form(tmp_path):
    rng = np.random.default_rng(40)
    ls = _random_ls(rng, m=8, T=3, n_attrs=4)
    one = learn_forest(ls, LearnParams(n_trees=3, seed=(7,)))
    path = tmp_path / "model.json"
    save_model(one, path)
    assert load_model(path) == one
    # seed=7 and seed=(7,) are one seed: the same forest, the same bytes
    bare = learn_forest(ls, LearnParams(n_trees=3, seed=7))
    assert bare == one
    assert model_to_json(bare) == path.read_text(encoding="utf-8")


def test_model_json_stable_bytes():
    rng = np.random.default_rng(41)
    ls = _random_ls(rng, m=6, T=3, n_attrs=2)
    params = LearnParams()
    model = model_from_tree(learn_tree(ls, params), params, ls.classes,
                            ls.attr_names)
    assert model_to_json(model) == model_to_json(model)
    assert model_to_json(model).endswith("\n")


def test_model_schema_version_checked():
    rng = np.random.default_rng(43)
    ls = _random_ls(rng, m=6, T=3, n_attrs=2)
    params = LearnParams()
    model = model_from_tree(learn_tree(ls, params), params, ls.classes,
                            ls.attr_names)
    doc = model_to_dict(model)
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        model_from_dict(doc)


def _edit(path, value=None, drop=False):
    """A mutation that sets (or drops) doc[path[0]][path[1]]...; it
    returns the edited document."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        if drop:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return doc
    return mutate


def _leaf_edit(key, value):
    """A mutation that sets the leftmost leaf's key to value."""
    def mutate(doc):
        node = doc["trees"][0]
        while "leaf" not in node:
            node = node["left"]
        node[key] = value
        return doc
    return mutate


def _repeat_first_name(names, rename):
    """A mutation that repeats the first of doc[names] in place of every
    other and has each node name it through rename(node, name), so that
    the repeat is all that is wrong."""
    def mutate(doc):
        first = doc[names][0]
        doc[names] = [first] * len(doc[names])
        stack = list(doc["trees"])
        while stack:
            node = stack.pop()
            rename(node, first)
            stack.extend(node[k] for k in ("left", "right") if k in node)
        return doc
    return mutate


def _name_first_param_twice(key):
    """A mutation that appends the first name of the params list key once
    more, so that the repeat is all that is wrong."""
    def mutate(doc):
        names = doc["params"][key]
        names.append(names[0])
        return doc
    return mutate


def _rename_leaf(node, name):
    if "leaf" in node:
        node["leaf"] = name


def _rename_decision(node, name):
    if "decision" in node:
        node["decision"]["attr_name"] = name


def _two_trees(doc):
    doc["trees"].append(doc["trees"][0])
    return doc


def _forest(subsets):
    """The tree document as a forest of one tree with these subsets."""
    def mutate(doc):
        doc["kind"] = "forest"
        doc["attr_subsets"] = subsets
        return doc
    return mutate


ROOT = ("trees", 0, "decision")
MALFORMED_MODELS = {
    "not an object": lambda doc: [doc],
    "missing params": _edit(("params",), drop=True),
    "missing trees": _edit(("trees",), drop=True),
    "missing decision op": _edit(ROOT + ("op",), drop=True),
    "unknown leaf class": _leaf_edit("leaf", "no-such-class"),
    "unknown attr_name": _edit(ROOT + ("attr_name",), "zzz"),
    "trees not a list": _edit(("trees",), 5),
    "trees an object": lambda doc: _edit(("trees",), doc["trees"][0])(doc),
    "classes a string": _edit(("classes",), "ab"),
    "NaN threshold": _edit(ROOT + ("threshold",), float("nan")),
    "infinite threshold": _edit(ROOT + ("threshold",), float("inf")),
    "text threshold": _edit(ROOT + ("threshold",), "high"),
    "numeric-string threshold": _edit(ROOT + ("threshold",), "0.5"),
    "padded numeric-string threshold": _edit(ROOT + ("threshold",), " 1e3 "),
    "boolean threshold": _edit(ROOT + ("threshold",), True),
    "bogus kind": _edit(("kind",), "bogus"),
    "empty trees": _edit(("trees",), []),
    "tree kind with two trees": _two_trees,
    "empty seed": _edit(("params", "seed"), []),
    "negative seed": _edit(("params", "seed"), [-1]),
    "NaN min_gain": _edit(("params", "min_gain"), float("nan")),
    "zero n_trees": _edit(("params", "n_trees"), 0),
    "boolean n_trees": _edit(("params", "n_trees"), True),
    "boolean seed": _edit(("params", "seed"), [True]),
    "boolean seed entry": _edit(("params", "seed"), [1, False]),
    "boolean min_gain": _edit(("params", "min_gain"), False),
    "bad params mode": _edit(("params", "mode"), "sideways"),
    "unknown params key": _edit(("params", "max_depth"), 3),
    "params repeat a relation": _name_first_param_twice("relations"),
    "params repeat a function": _name_first_param_twice("functions"),
    "relation Q": _edit(ROOT + ("relation",), "Q"),
    "relation L at the modal root": _edit(ROOT + ("relation",), "L"),
    "function nope": _edit(ROOT + ("fn",), "nope"),
    "op ==": _edit(ROOT + ("op",), "=="),
    "text histogram": _leaf_edit("histogram", "ab"),
    "short histogram": _leaf_edit("histogram", [1]),
    "negative histogram count": _leaf_edit("histogram", [3, -1]),
    "fractional histogram count": _leaf_edit("histogram", [1.5, 0]),
    "boolean histogram count": _leaf_edit("histogram", [True, 0]),
    "tree with attr_subsets": _edit(("attr_subsets",), [[0, 1]]),
    "forest without attr_subsets": _forest([]),
    "forest with two subsets for one tree": _forest([[0], [1]]),
    "forest subset out of range": _forest([[99, -5]]),
    "forest subset of names": _forest([["x"]]),
    "forest subset repeats an attribute": _forest([[0, 0]]),
    "forest subset not a list": _forest([1]),
    "classes repeat a name": _repeat_first_name("classes", _rename_leaf),
    "attr_names repeat a name": _repeat_first_name("attr_names",
                                                   _rename_decision),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_document_rejected(case):
    rng = np.random.default_rng(47)
    ls = _random_ls(rng, m=8, T=3, n_attrs=2)
    params = LearnParams(min_gain=0.0, max_leaf_entropy=0.0)
    model = model_from_tree(learn_tree(ls, params), params, ls.classes,
                            ls.attr_names)
    doc = json.loads(json.dumps(model_to_dict(model)))
    assert "decision" in doc["trees"][0]
    assert model_from_dict(json.loads(json.dumps(doc))) == model
    forest = _forest([[1, 0]])(json.loads(json.dumps(doc)))
    assert model_from_dict(forest).attr_subsets == ((1, 0),)
    # Python's json reads NaN and Infinity, so a model file can hold them
    bad = json.loads(json.dumps(MALFORMED_MODELS[case](doc)))
    with pytest.raises(ValueError):
        model_from_dict(bad)


@lru_cache(maxsize=None)
def _model_json(kind):
    rng = np.random.default_rng(53)
    ls = _random_ls(rng, m=10, T=3, n_attrs=3)
    params = LearnParams(min_gain=0.0, max_leaf_entropy=0.0, n_trees=2)
    if kind == "forest":
        return model_to_json(learn_forest(ls, params))
    return model_to_json(model_from_tree(learn_tree(ls, params), params,
                                         ls.classes, ls.attr_names))


def _paths(node, prefix=()):
    """The key path of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_HOSTILE = [None, True, -1, 2 ** 64, 10 ** 400, float("nan"), float("inf"),
            "zz", [], {}]


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) |
    st.integers(-3, 3) | st.sampled_from([2 ** 64, -(10 ** 400), 10 ** 400]),
    lambda kids: st.lists(kids, max_size=3) |
    st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=5)


@settings(max_examples=300)
@given(st.sampled_from(["tree", "forest"]), st.data())
def test_mutated_model_document_raises_only_value_errors(kind, data):
    # drop, retype, nest or push out of range one to three of a valid
    # document's values: the result loads or is a ValueError, nothing else
    doc = json.loads(_model_json(kind))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        key, value = path[-1], node[path[-1]]
        how = data.draw(st.sampled_from(
            ["drop", "retype", "nest", "out of range"]))
        if how == "drop":
            del node[key]
        elif how == "retype":
            node[key] = data.draw(_JSON)
        elif how == "nest":
            node[key] = data.draw(st.sampled_from([[value], {"x": value}]))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            node[key] = data.draw(st.sampled_from(
                [-1, 10 ** 400, value + 1, -value, float("inf")]))
        else:
            node[key] = data.draw(st.sampled_from(_HOSTILE))
    try:
        model = model_from_dict(doc)
    except ValueError:
        return
    assert isinstance(model, Model)


@pytest.mark.parametrize("kind", ["tree", "forest"])
def test_each_model_value_mutated_raises_only_value_errors(kind):
    # every value of a valid document, in turn dropped, nested or replaced
    # by a wrong type or an out-of-range value
    for path in _paths(json.loads(_model_json(kind))):
        for how in ["drop", "nest"] + _HOSTILE:
            doc = json.loads(_model_json(kind))
            node = doc
            for key in path[:-1]:
                node = node[key]
            if how == "drop":
                del node[path[-1]]
            elif how == "nest":
                node[path[-1]] = [node[path[-1]]]
            else:
                node[path[-1]] = how
            try:
                model = model_from_dict(doc)
            except ValueError:
                continue
            assert isinstance(model, Model)


def test_deep_model_documents_raise_value_error(tmp_path):
    # a document nested 100,000 deep stops json.loads, a tree 3,000 splits
    # deep the reader; both are malformed input, not an internal fault
    path = tmp_path / "model.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(path)
    doc = json.loads(_model_json("tree"))
    doc["params"]["mode"] = "propositional"
    node = {"leaf": doc["classes"][0], "histogram": [1, 0]}
    for _ in range(3000):
        node = {"decision": {"relation": "Id", "fn": "max",
                             "attr_name": doc["attr_names"][0], "op": "<=",
                             "threshold": 0.5},
                "left": node, "right": node}
    doc["trees"] = [node]
    with pytest.raises(ValueError):
        model_from_dict(doc)


def test_predict_model_validates_attrs():
    ls = _ls([[[0, 0, 0]], [[1, 1, 1]]], [0, 1])
    params = LearnParams()
    model = model_from_tree(learn_tree(ls, params), params, ls.classes,
                            ls.attr_names)
    mode, pred = predict_model(model, _cube([[1.0, 1.0, 1.0]]))
    assert mode == "modal" and pred in (0, 1)
    with pytest.raises(ValueError):
        predict_model(model, _cube([[1.0, 1.0, 1.0]], names=("other",)))
