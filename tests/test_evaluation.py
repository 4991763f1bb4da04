"""Metrics, balanced holdout protocol, and rule extraction."""
import numpy as np
import pytest

import reference_rules
from symaudio.audio import FeatureCube
from symaudio.intervals import And, Box, Diamond, format_formula
from symaudio.logiset import Atom, build_logiset, instance_from_cube
from symaudio.evaluation import (MetricsReport, Rule, accuracy,
                                 balanced_holdout, cohen_kappa,
                                 confusion_matrix, evaluate, extract_rules,
                                 flip_atom, leaf_count, metrics_rows,
                                 rule_metrics, rule_satisfied, rules_rows)
from symaudio.trees import (Decision, Leaf, LearnParams, Model, Split,
                            learn_tree, model_from_tree, route_tree)


def _cube(values, names=None):
    arr = np.asarray(values, dtype=np.float64)
    if names is None:
        names = tuple(f"a{i}" for i in range(arr.shape[0]))
    return FeatureCube(names, arr)


# --- scalar metrics ----------------------------------------------------------

def test_confusion_matrix():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert cm.tolist() == [[1, 1], [0, 2]]
    with pytest.raises(ValueError):
        confusion_matrix([0, 1], [0], 2)


def test_accuracy():
    cm = np.array([[40, 10], [5, 45]])
    assert accuracy(cm) == 85.0
    with pytest.raises(ValueError):
        accuracy(np.zeros((2, 2), dtype=np.int64))


def test_kappa_vectors():
    assert cohen_kappa(np.array([[50, 0], [0, 50]])) == 100.0
    assert cohen_kappa(np.array([[25, 25], [25, 25]])) == 0.0
    assert cohen_kappa(np.array([[40, 10], [5, 45]])) == \
        pytest.approx(70.0, abs=1e-9)


def test_kappa_degenerate_chance_agreement():
    # every instance in one class and predicted as such: p_e = 1
    assert cohen_kappa(np.array([[10, 0], [0, 0]])) == 0.0


def test_leaf_count():
    one = Leaf(class_id=0, histogram=(3,))
    assert leaf_count(one) == 1
    dec = Decision("Id", Atom(fn="max", attr=0, op=">=", threshold=0.0))
    two = Split(decision=dec, left=one, right=one)
    assert leaf_count(two) == 2
    three = Split(decision=dec, left=two, right=one)
    five = Split(decision=dec, left=three, right=two)
    forest = Model(kind="forest", params=LearnParams(), classes=(0, 1),
                   attr_names=("a0",), trees=(three, five),
                   attr_subsets=((0,), (0,)))
    assert leaf_count(forest) == 4.0
    model = model_from_tree(two, LearnParams(), (0, 1), ("a0",))
    assert leaf_count(model) == 2
    with pytest.raises(TypeError):
        leaf_count("shrub")


# --- holdout protocol --------------------------------------------------------

def test_balanced_holdout_counts():
    labels = [0] * 100 + [1] * 60
    splits = balanced_holdout(labels, repeats=4, seed=1)
    assert len(splits) == 4
    for train, test in splits:
        assert len(train) == 96 and len(test) == 24
        assert set(train).isdisjoint(test)
        tr_labels = [labels[i] for i in train]
        te_labels = [labels[i] for i in test]
        assert tr_labels.count(0) == 48 and tr_labels.count(1) == 48
        assert te_labels.count(0) == 12 and te_labels.count(1) == 12


def test_balanced_holdout_deterministic_and_varied():
    labels = [0] * 20 + [1] * 20
    a = balanced_holdout(labels, repeats=3, seed=7)
    b = balanced_holdout(labels, repeats=3, seed=7)
    for (ta, sa), (tb, sb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(sa, sb)
    assert not np.array_equal(a[0][0], a[1][0])
    c = balanced_holdout(labels, repeats=3, seed=8)
    assert not np.array_equal(a[0][0], c[0][0])


def test_balanced_holdout_small_class_rejected():
    with pytest.raises(ValueError, match="at least 5"):
        balanced_holdout([0] * 10 + [1] * 4)
    with pytest.raises(ValueError):
        balanced_holdout([0] * 10 + [1] * 10, train_frac=0.01)


# --- evaluation loop ---------------------------------------------------------

def _separable_ls(mode="propositional", per_class=10):
    series, labels = [], []
    rng = np.random.default_rng(0)
    for i in range(per_class):
        series.append([[0.0, float(rng.integers(0, 2)) / 10.0, 0.0]])
        labels.append(0)
        series.append([[1.0, 1.0 - float(rng.integers(0, 2)) / 10.0, 1.0]])
        labels.append(1)
    return build_logiset([_cube(s) for s in series], labels, mode=mode)


def test_evaluate_separable_tree():
    ls = _separable_ls()
    report = evaluate(ls, LearnParams(mode="propositional"), repeats=3,
                      seed=0)
    assert report.kappa == [100.0, 100.0, 100.0]
    assert report.accuracy == [100.0, 100.0, 100.0]
    assert report.kappa_mean == 100.0 and report.kappa_std == 0.0
    assert report.leaves == [2, 2, 2]


def test_evaluate_separable_forest():
    ls = _separable_ls()
    report = evaluate(ls, LearnParams(mode="propositional", n_trees=3),
                      model="forest", repeats=2, seed=0)
    assert report.accuracy == [100.0, 100.0]


def test_evaluate_single_repeat_std_zero():
    ls = _separable_ls()
    report = evaluate(ls, LearnParams(mode="propositional"), repeats=1,
                      seed=3)
    assert report.kappa_std == 0.0 and report.accuracy_std == 0.0


def test_evaluate_random_labels_scores_near_chance():
    rng = np.random.default_rng(5)
    series = [rng.integers(0, 9, size=(1, 2)) / 8.0 for _ in range(30)]
    labels = [i % 2 for i in range(30)]
    rng.shuffle(labels)
    ls = build_logiset([_cube(s) for s in series], labels,
                       mode="propositional")
    report = evaluate(ls, LearnParams(mode="propositional"), repeats=10,
                      seed=0)
    assert abs(report.kappa_mean) <= 40.0
    assert 25.0 <= report.accuracy_mean <= 75.0


def test_evaluate_argument_validation():
    ls = _separable_ls()
    with pytest.raises(ValueError):
        evaluate(ls, LearnParams(mode="propositional"), model="jungle")
    with pytest.raises(ValueError):
        evaluate(ls, LearnParams(mode="modal"))  # logiset is propositional


# --- rule extraction ---------------------------------------------------------

def test_flip_atom():
    a = Atom(fn="mean", attr=2, op=">=", threshold=0.5)
    b = flip_atom(a)
    assert b == Atom(fn="mean", attr=2, op="<=", threshold=0.5)
    assert flip_atom(b) == a


def test_extract_rules_propositional_pair():
    hi = Atom(fn="mean", attr=0, op=">=", threshold=0.5)
    tree = Split(decision=Decision("Id", hi),
                 left=Leaf(class_id=1, histogram=(0, 3)),
                 right=Leaf(class_id=0, histogram=(3, 0)))
    rules = extract_rules(tree, mode="propositional")
    assert [r.consequent for r in rules] == [1, 0]
    assert rules[0].antecedent == hi
    assert rules[1].antecedent == flip_atom(hi)


def test_extract_rules_leaf_only():
    rules = extract_rules(Leaf(class_id=1, histogram=(0, 4)), mode="modal")
    assert len(rules) == 1
    assert rules[0].antecedent == And(())
    assert format_formula(rules[0].antecedent, ("a",)) == "true"


def test_extract_rules_modal_shapes():
    p = Atom(fn="max", attr=0, op=">=", threshold=2.0)
    q = Atom(fn="min", attr=0, op="<=", threshold=0.0)
    inner = Split(decision=Decision("AO", q),
                  left=Leaf(class_id=0, histogram=(2, 0)),
                  right=Leaf(class_id=1, histogram=(0, 2)))
    tree = Split(decision=Decision("G", p), left=inner,
                 right=Leaf(class_id=1, histogram=(0, 3)))
    rules = extract_rules(tree, mode="modal")
    assert len(rules) == 3
    assert rules[0].antecedent == Diamond("G", And((p, Diamond("AO", q))))
    assert rules[1].antecedent == Diamond("G", And((p, Box("AO",
                                                           flip_atom(q)))))
    assert rules[2].antecedent == Box("G", flip_atom(p))
    text = format_formula(rules[0].antecedent, ("a",))
    assert text == "<G>(max(a) >= 2.0 & <AO>(min(a) <= 0.0))"


def test_extract_rules_rejects_modal_decision_in_prop_mode():
    p = Atom(fn="max", attr=0, op=">=", threshold=2.0)
    tree = Split(decision=Decision("L", p),
                 left=Leaf(class_id=0, histogram=(1, 0)),
                 right=Leaf(class_id=1, histogram=(0, 1)))
    with pytest.raises(ValueError):
        extract_rules(tree, mode="propositional")


def _leaf_index(tree, path):
    def count(node):
        if isinstance(node, Leaf):
            return 1
        return count(node.left) + count(node.right)

    idx = 0
    node = tree
    for went_left in path:
        if went_left:
            node = node.left
        else:
            idx += count(node.left)
            node = node.right
    return idx


def test_rules_match_routing_as_ordered_list():
    rng = np.random.default_rng(11)
    for _ in range(5):
        series = [rng.integers(0, 9, size=(2, 4)) / 8.0 for _ in range(10)]
        labels = [int(x) for x in rng.integers(0, 2, size=10)]
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        ls = build_logiset([_cube(s) for s in series], labels)
        tree = learn_tree(ls, LearnParams(min_gain=0.0,
                                          max_leaf_entropy=0.0))
        rules = extract_rules(tree, mode="modal")
        fresh = [instance_from_cube(
            _cube(rng.integers(0, 9, size=(2, 4)) / 8.0), "modal")
            for _ in range(10)]
        for inst in list(ls.instances) + fresh:
            leaf, path = route_tree(tree, inst, "modal")
            want = _leaf_index(tree, path)
            got = next(i for i, r in enumerate(rules)
                       if rule_satisfied(r, inst))
            assert got == want
            assert rules[got].consequent == leaf.class_id


def _assert_rules_match_reference(tree, mode, names):
    want = reference_rules.extract_rules(tree, mode=mode)
    got = extract_rules(tree, mode=mode)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.antecedent == w.antecedent
        assert g.consequent == w.consequent
        assert format_formula(g.antecedent, names) == \
            format_formula(w.antecedent, names)
    return len(got)


def test_extract_rules_matches_reference_on_grown_trees():
    # trees grown to purity: every modal root splits under G, and a root
    # whose false branch splits again is where no witness scope is open
    names = ("a0", "a1", "a2")
    n_rules = 0
    root_false_splits = {"modal": 0, "propositional": 0}
    for mode in ("modal", "propositional"):
        for seed in range(32):
            rng = np.random.default_rng((seed, 17))
            T = 3 + seed % 4
            k = 2 + seed % 3
            series = rng.integers(0, 9, size=(28, 3, T)) / 8.0
            labels = [int(x) for x in rng.integers(0, k, size=28)]
            ls = build_logiset([_cube(s, names) for s in series], labels,
                               mode=mode)
            tree = learn_tree(ls, LearnParams(mode=mode, min_gain=0.0,
                                              max_leaf_entropy=0.0))
            n_rules += _assert_rules_match_reference(tree, mode, names)
            if isinstance(tree, Split) and isinstance(tree.right, Split):
                root_false_splits[mode] += 1
    assert n_rules >= 500
    assert min(root_false_splits.values()) >= 10


def _random_tree(rng, relations, depth):
    if depth == 0 or rng.random() < 0.2:
        return Leaf(class_id=int(rng.integers(0, 3)), histogram=(1, 1, 1))
    atom = Atom(fn="mean", attr=int(rng.integers(0, 2)),
                op=(">=", "<=")[int(rng.integers(0, 2))],
                threshold=float(rng.integers(-4, 5)) / 4.0)
    rel = relations[int(rng.integers(0, len(relations)))]
    return Split(decision=Decision(rel, atom),
                 left=_random_tree(rng, relations, depth - 1),
                 right=_random_tree(rng, relations, depth - 1))


def _relations(node):
    if isinstance(node, Leaf):
        return set()
    return {node.decision.relation} | _relations(node.left) | \
        _relations(node.right)


@pytest.mark.parametrize("mode", ["modal", "propositional"])
def test_extract_rules_matches_reference_on_any_edge_sequence(mode):
    # any relation on any edge, including G below the root and Id while no
    # scope is open; every eighth propositional tree may hold modal
    # relations, which are refused there even below a G edge, where the
    # reference let them open <R> scopes
    relations = ("Id", "G", "L", "Linv", "AO", "DBEinv")
    names = ("a0", "a1")
    rng = np.random.default_rng(23 if mode == "modal" else 29)
    n_rules = n_refused = 0
    for i in range(200):
        rels = relations if mode == "modal" or i % 8 == 0 else ("Id", "G")
        tree = _random_tree(rng, rels, 5)
        if mode == "propositional" and _relations(tree) - {"Id", "G"}:
            with pytest.raises(ValueError, match="propositional tree"):
                extract_rules(tree, mode=mode)
            n_refused += 1
            continue
        n_rules += _assert_rules_match_reference(tree, mode, names)
    assert n_rules >= 500
    assert (n_refused > 0) == (mode == "propositional")


def test_rule_metrics_filters():
    # nine high-mean instances (eight of class 0), eleven low fillers
    insts = []
    for i in range(9):
        inst = instance_from_cube(_cube([[5.0, 5.0, 5.0]]), "modal")
        inst.label = 0 if i < 8 else 1
        insts.append(inst)
    for _ in range(11):
        inst = instance_from_cube(_cube([[0.0, 0.0, 0.0]]), "modal")
        inst.label = 1
        insts.append(inst)

    high = Rule(Diamond("G", Atom(fn="mean", attr=0, op=">=", threshold=4.0)),
                0)
    kept = rule_metrics([high], insts)
    assert len(kept) == 1
    assert kept[0].coverage == 9
    assert kept[0].confidence == pytest.approx(8.0 / 9.0)

    # coverage exactly at the cutoff is dropped
    kept = rule_metrics([high], insts[:8] + insts[9:])
    assert kept == []

    # confidence exactly at the cutoff is dropped
    even = Rule(And(()), 0)
    balanced = insts[:8] + insts[9:17]
    assert [inst.label for inst in balanced].count(0) == 8
    kept = rule_metrics([even], balanced)
    assert kept == []

    # a rule nothing satisfies is silently skipped
    never = Rule(Diamond("G", Atom(fn="mean", attr=0, op=">=",
                                   threshold=99.0)), 0)
    assert rule_metrics([never], insts) == []

    # and no instances cover no rule
    assert rule_metrics([even], [], min_confidence=0.0, min_coverage=0) == []


def _scan_rule_metrics(rules, instances, min_confidence, min_coverage):
    # rule_metrics as a plain scan: each rule checked on each instance
    kept = []
    for rule in rules:
        covered = [inst for inst in instances if rule_satisfied(rule, inst)]
        if not covered:
            continue
        conf = sum(1 for inst in covered
                   if inst.label == rule.consequent) / len(covered)
        if conf > min_confidence and len(covered) > min_coverage:
            kept.append(Rule(rule.antecedent, rule.consequent,
                             len(covered), conf))
    return kept


@pytest.mark.parametrize("mode", ["modal", "propositional"])
def test_rule_metrics_equals_a_per_instance_scan(mode):
    rng = np.random.default_rng(29)

    def draw(n):
        return [_cube(rng.integers(0, 9, size=(2, 4)) / 8.0)
                for _ in range(n)]
    for _ in range(4):
        labels = [int(x) for x in rng.integers(0, 3, size=30)]
        ls = build_logiset(draw(30), labels, mode=mode)
        tree = learn_tree(ls, LearnParams(mode=mode, min_gain=0.0,
                                          max_leaf_entropy=0.0))
        rules = extract_rules(tree, mode=mode)
        fresh = [instance_from_cube(c, mode, label=int(rng.integers(3)))
                 for c in draw(25)]
        for insts in (ls.instances, fresh):
            for cutoffs in ((0.0, 0), (0.5, 8)):
                got = rule_metrics(rules, insts, *cutoffs)
                assert got == _scan_rule_metrics(rules, insts, *cutoffs)
                assert all(type(r.coverage) is int
                           and type(r.confidence) is float for r in got)


def test_first_rule_is_pure_on_training_data():
    rng = np.random.default_rng(13)
    series = [rng.normal(size=(2, 4)) for _ in range(8)]
    labels = [0, 1] * 4
    ls = build_logiset([_cube(s) for s in series], labels)
    tree = learn_tree(ls, LearnParams(min_gain=0.0, max_leaf_entropy=0.0))
    rules = extract_rules(tree, mode="modal")
    kept = rule_metrics([rules[0]], ls.instances, min_confidence=0.0,
                        min_coverage=0)
    assert len(kept) == 1
    assert kept[0].confidence == 1.0


# --- report shaping ----------------------------------------------------------

def test_metrics_rows():
    report = MetricsReport(kappa=[70.0, 90.0], accuracy=[85.0, 95.0],
                           leaves=[2, 4])
    rows = metrics_rows(report, "demo", "modal", "tree")
    assert rows[0] == ["demo", "modal", "tree", "0", "70.0", "85.0", "2.0"]
    assert rows[1] == ["demo", "modal", "tree", "1", "90.0", "95.0", "4.0"]
    assert rows[2][:4] == ["demo", "modal", "tree", "mean"]
    assert rows[2][4] == "80.0"
    assert rows[3][3] == "std"
    assert float(rows[3][4]) == pytest.approx(14.142135623730951)


def test_rules_rows():
    atom = Atom(fn="mean", attr=0, op=">=", threshold=0.5)
    rule = Rule(Diamond("G", atom), 1, coverage=12, confidence=0.75)
    rows = rules_rows([rule], ("quiet", "loud"), ("energy",))
    assert rows == [["<G>(mean(energy) >= 0.5)", "loud", "12", "0.75"]]
