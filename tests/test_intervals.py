"""Interval domain, accessibility relations, and the model checker."""
from dataclasses import replace
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from symaudio import audio, intervals
from symaudio.audio import FeatureCube
from symaudio.intervals import (And, Box, Diamond, Not, Or, RELATIONS, check,
                                enumerate_intervals, format_formula, frame,
                                holds, parse_formula, relates)
from symaudio.logiset import Atom, instance_from_cube


def test_interval_counts():
    for T in range(1, 11):
        assert len(enumerate_intervals(T)) == T * (T + 1) // 2


def test_interval_examples():
    assert enumerate_intervals(1) == [(0, 1)]
    assert enumerate_intervals(2) == [(0, 1), (0, 2), (1, 2)]
    assert len(enumerate_intervals(5)) == 15


def test_intervals_lexicographic_and_strict():
    for T in (3, 5, 8):
        ivs = enumerate_intervals(T)
        assert ivs == sorted(ivs)
        assert all(0 <= x < y <= T for x, y in ivs)
        assert len(set(ivs)) == len(ivs)


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        enumerate_intervals(0)


def test_relates_examples():
    assert relates("L", (0, 2), (3, 5))
    assert not relates("L", (0, 2), (2, 4))  # meets, not strictly later
    assert relates("AO", (0, 2), (2, 4))
    assert relates("AO", (0, 3), (2, 5))
    assert relates("DBE", (0, 5), (1, 3))
    assert not relates("DBE", (0, 5), (0, 5))
    assert relates("DBE", (0, 5), (0, 3))   # begins folded in
    assert relates("DBE", (0, 5), (2, 5))   # ends folded in
    assert relates("Id", (1, 3), (1, 3))
    assert relates("G", (0, 1), (4, 5))


def test_relates_matches_point_set_oracle():
    for T in range(1, 7):
        for w in enumerate_intervals(T):
            for v in enumerate_intervals(T):
                for rel in RELATIONS:
                    assert relates(rel, w, v) == oracles.o_relates(rel, w, v), \
                        (rel, w, v)


def test_inverse_symmetry():
    pairs = [("L", "Linv"), ("AO", "AOinv"), ("DBE", "DBEinv")]
    for T in range(1, 7):
        for w in enumerate_intervals(T):
            for v in enumerate_intervals(T):
                for rel, inv in pairs:
                    assert relates(rel, w, v) == relates(inv, v, w)
                    assert relates(inv, w, v) == relates(rel, v, w)


def test_directional_relations_partition_distinct_pairs():
    # every ordered pair of distinct intervals satisfies exactly one of
    # the six directional relations; Id holds exactly on equal pairs
    directional = ("L", "Linv", "AO", "AOinv", "DBE", "DBEinv")
    for T in range(1, 7):
        for w in enumerate_intervals(T):
            for v in enumerate_intervals(T):
                hits = [rel for rel in directional if relates(rel, w, v)]
                if w == v:
                    assert hits == []
                    assert relates("Id", w, v)
                else:
                    assert len(hits) == 1, (w, v, hits)
                    assert not relates("Id", w, v)
                assert relates("G", w, v)


def _successors(rel, w, T):
    # the intervals reachable from w under rel: w's row of the frame matrix
    f = frame("modal", T)
    return tuple(compress(f.intervals, f.R[rel][f.index[w]]))


def test_accessible_examples():
    assert list(_successors("G", (0, 1), 5)) == enumerate_intervals(5)
    assert _successors("Id", (1, 3), 5) == ((1, 3),)
    assert _successors("L", (0, 2), 5) == ((3, 4), (3, 5), (4, 5))
    # nothing starts strictly after endpoint 4 within 0..5
    assert _successors("L", (0, 4), 5) == ()
    assert _successors("DBE", (0, 2), 5) == ((0, 1), (1, 2))


def test_accessible_matches_oracle():
    for T in range(1, 7):
        for w in enumerate_intervals(T):
            for rel in RELATIONS:
                assert list(_successors(rel, w, T)) == \
                    oracles.o_accessible(rel, w, T)


def test_frame_matrices_equal_a_relates_loop():
    # the matrices are filled from endpoint arrays; relates on each pair of
    # intervals is the definition they must match
    build = intervals.frame.__wrapped__
    cases = [("modal", T) for T in range(1, 21)] + [("propositional", 7)]
    for mode, T in cases:
        f = build(mode, T)
        for rel in RELATIONS:
            want = [[relates(rel, w, v) for v in f.intervals]
                    for w in f.intervals]
            assert f.R[rel].dtype == bool and not f.R[rel].flags.writeable
            assert f.R[rel].tolist() == want, (mode, T, rel)


def test_frame_asks_the_memory_budget_before_building(monkeypatch):
    # T=17: 153 intervals, 8 relation matrices of 153^2 bytes; the cached
    # frame() would not build it again, so the guard runs uncached
    build = intervals.frame.__wrapped__
    need = len(RELATIONS) * 153 * 153
    monkeypatch.setattr(audio, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="modal frame for n_points=17"):
        build("modal", 17)
    assert build("propositional", 17).intervals == ((0, 17),)
    monkeypatch.setattr(audio, "_physical_memory", lambda: need)
    assert sum(m.nbytes for m in build("modal", 17).R.values()) == need


def _instance(series_by_attr, names=None):
    arr = np.asarray(series_by_attr, dtype=np.float64)
    if names is None:
        names = tuple(f"a{i}" for i in range(arr.shape[0]))
    return instance_from_cube(FeatureCube(names, arr), "modal")


def test_check_atom_and_diamond():
    inst = _instance([[1, 2, 3, 4, 5]])
    hi = Atom(fn="max", attr=0, op=">=", threshold=5.0)
    assert not check(hi, inst, (0, 2))
    assert check(hi, inst, (0, 5))
    assert check(Diamond("L", hi), inst, (0, 2))
    assert not check(Diamond("L", hi), inst, (0, 4))  # no later interval


def test_check_box_vacuous_at_full_interval():
    inst = _instance([[1, 2, 3, 4, 5]])
    absurd = Atom(fn="max", attr=0, op="<=", threshold=-99.0)
    assert check(Box("L", absurd), inst, (0, 5))
    assert not check(Diamond("L", absurd), inst, (0, 5))


def test_check_connectives():
    inst = _instance([[0, 1, 0, 1]])
    lo = Atom(fn="min", attr=0, op="<=", threshold=0.0)
    hi = Atom(fn="max", attr=0, op=">=", threshold=1.0)
    w = (0, 4)
    assert check(And((lo, hi)), inst, w)
    assert check(Or((lo, Not(hi))), inst, w)
    assert not check(And((lo, Not(hi))), inst, w)
    assert check(And(()), inst, w)       # empty conjunction is true
    assert not check(Or(()), inst, w)    # empty disjunction is false


def test_check_quantifies_over_the_instance_frame():
    # a propositional instance has the one world (0, T): G reaches only it,
    # L reaches nothing
    cube = FeatureCube(("a0",), np.array([[1.0, 2.0, 3.0]]))
    inst = instance_from_cube(cube, "propositional")
    w = (0, 3)
    for threshold in (2.0, 9.0):
        phi = Atom(fn="mean", attr=0, op=">=", threshold=threshold)
        assert check(phi, inst, w) == (threshold == 2.0)
        assert check(Diamond("G", phi), inst, w) == check(phi, inst, w)
        assert check(Box("G", phi), inst, w) == check(phi, inst, w)
        assert not check(Diamond("L", phi), inst, w)
        assert check(Box("L", phi), inst, w)
    # a world outside the instance's frame is an error for every formula
    modal = _instance([[0, 1, 0, 1]])
    for phi in (And(()), Or(()), Not(And(()))):
        with pytest.raises(ValueError):
            check(phi, modal, (0, 99))
    with pytest.raises(ValueError):
        check(And(()), inst, (0, 2))


def test_check_unknown_relation_rejected():
    inst = _instance([[0, 1, 0, 1]])
    for cls in (Diamond, Box):
        with pytest.raises(ValueError, match="unknown relation"):
            check(cls("Q", And(())), inst, (0, 4))


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(fn=str(rng.choice(["max", "min", "mean", "std"])),
                    attr=int(rng.integers(2)),
                    op=str(rng.choice(["<=", ">="])),
                    threshold=float(rng.integers(-2, 8)) / 2.0)
    kind = int(rng.integers(5))
    if kind == 0:
        return Not(_random_formula(rng, depth - 1))
    if kind in (1, 2):
        cls = And if kind == 1 else Or
        n = int(rng.integers(2, 4))
        return cls(tuple(_random_formula(rng, depth - 1) for _ in range(n)))
    cls = Diamond if kind == 3 else Box
    rel = str(rng.choice(list(RELATIONS)))
    return cls(rel, _random_formula(rng, depth - 1))


def test_diamond_box_duality():
    rng = np.random.default_rng(7)
    T = 5
    inst = _instance(rng.integers(0, 9, size=(2, T)) / 8.0)
    worlds = enumerate_intervals(T)
    for _ in range(200):
        phi = _random_formula(rng, int(rng.integers(1, 4)))
        rel = str(rng.choice(list(RELATIONS)))
        w = worlds[int(rng.integers(len(worlds)))]
        assert check(Diamond(rel, phi), inst, w) == \
            (not check(Box(rel, Not(phi)), inst, w))


def test_check_agrees_with_independent_checker():
    rng = np.random.default_rng(3)
    T = 4
    values = rng.integers(0, 9, size=(2, T)) / 8.0
    inst = _instance(values)
    series = [list(map(float, row)) for row in values]
    for _ in range(150):
        phi = _random_formula(rng, int(rng.integers(0, 4)))
        w = enumerate_intervals(T)[int(rng.integers(10))]
        assert check(phi, inst, w) == oracles.o_check(phi, series, T, w)


def test_stacked_check_equals_per_instance_check():
    # a table with instances stacked on its leading axes gives each
    # instance's own truth, in both modes, for the empty connectives and
    # for both modalities on every relation
    rng = np.random.default_rng(21)
    T = 4
    for mode in ("modal", "propositional"):
        insts = [instance_from_cube(
            FeatureCube(("a0", "a1"), rng.integers(0, 9, size=(2, T)) / 8.0),
            mode) for _ in range(6)]
        table = np.stack([inst.table for inst in insts])
        stacks = [replace(insts[0], table=t)
                  for t in (table, table[:1],
                            table.reshape(2, 3, *table.shape[1:]))]
        phis = [And(()), Or(()), Not(Or(())), And((Or(()), Not(And(()))))]
        phis += [cls(rel, _random_formula(rng, int(rng.integers(0, 3))))
                 for cls in (Diamond, Box) for rel in RELATIONS]
        phis += [_random_formula(rng, int(rng.integers(0, 4)))
                 for _ in range(40)]
        for phi in phis:
            for w in insts[0].frame.intervals:
                want = [check(phi, inst, w) for inst in insts]
                for stack in stacks:
                    got = check(phi, stack, w)
                    assert got.shape == stack.table.shape[:-3]
                    assert got.ravel().tolist() == want[:got.size]


def test_format_examples():
    names = ("a", "b")
    atom = Atom(fn="mean", attr=0, op=">=", threshold=1.5)
    assert format_formula(atom, names) == "mean(a) >= 1.5"
    assert format_formula(And(()), names) == "true"
    phi = Diamond("G", And((atom, Box("AO", Not(atom)))))
    assert format_formula(phi, names) == \
        "<G>(mean(a) >= 1.5 & [AO](!(mean(a) >= 1.5)))"


def test_parse_examples():
    names = ("a", "b")
    assert parse_formula("true", names) == And(())
    assert parse_formula("max(b) <= 0.25", names) == \
        Atom(fn="max", attr=1, op="<=", threshold=0.25)
    phi = parse_formula("<L>(min(a) >= 1.0 | std(b) <= 2.0)", names)
    assert isinstance(phi, Diamond) and phi.rel == "L"
    assert isinstance(phi.sub, Or) and len(phi.sub.parts) == 2


def test_parse_errors():
    names = ("a", "b")
    for bad in ("max(zzz) >= 1", "wobble(a) >= 1", "max(a >= 1",
                "max(a) >> 1", "<Q>(max(a) >= 1)", "max(a) >= 1 )",
                "max(a) >= 1 max(b) <= 2", "max(a) >= 1e999",
                "min(b) <= -1e400", "!" * 5000 + "max(a) >= 1",
                "(" * 5000 + "true" + ")" * 5000):
        with pytest.raises(ValueError):
            parse_formula(bad, names)


_FORMULA_TOKENS = st.sampled_from(
    ["!", "&", "|", "(", ")", "<L>", "[G]", "<AOinv>", "[Id]", "<Q>", "max",
     "stretch_high", "(a)", "(b)", "a", "<=", ">=", "1.5", "-0", "2e-3",
     "1e999", ".5", "true", " ", "max(a) <= 1", "min(b) >= -2.25",
     "mean(b) >= ", "!" * 400, "(" * 400, "<DBE>" * 400])


@settings(max_examples=300)
@given(st.one_of(st.lists(_FORMULA_TOKENS, max_size=25).map("".join),
                 st.text(max_size=30)))
def test_formula_text_raises_only_value_errors(text):
    names = ("a", "b")
    try:
        phi = parse_formula(text, names)
    except ValueError:
        return
    assert parse_formula(format_formula(phi, names), names) == phi


def test_format_parse_round_trip():
    rng = np.random.default_rng(11)
    names = ("a", "b")
    for _ in range(200):
        phi = _random_formula(rng, int(rng.integers(0, 4)))
        text = format_formula(phi, names)
        assert parse_formula(text, names) == phi


def test_empty_or_text_parses_back_to_false():
    # an empty Or holds nowhere, so its text must not read as "true"
    names = ("a",)
    inst = instance_from_cube(FeatureCube(names, np.zeros((1, 4))), "modal")
    atom = Atom(fn="max", attr=0, op=">=", threshold=0.0)
    for phi in (Or(()), Diamond("L", Or(())), And((atom, Or(()))),
                Or((Or(()), Or(())))):
        back = parse_formula(format_formula(phi, names), names)
        assert not holds(back, inst).any()
        assert holds(back, inst).tolist() == holds(phi, inst).tolist()


def test_operator_precedence():
    names = ("a",)
    x = Atom(fn="max", attr=0, op=">=", threshold=1.0)
    y = Atom(fn="min", attr=0, op="<=", threshold=0.0)
    z = Atom(fn="mean", attr=0, op=">=", threshold=2.0)
    # & binds tighter than |
    phi = parse_formula("max(a) >= 1.0 & min(a) <= 0.0 | mean(a) >= 2.0",
                        names)
    assert phi == Or((And((x, y)), z))
