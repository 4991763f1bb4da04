"""Feature functions, per-instance tables, and logiset assembly."""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import scalar_features
from symaudio import audio, logiset
from symaudio.audio import FeatureCube
from symaudio.intervals import check, enumerate_intervals
from symaudio.logiset import (Atom, FEATURE_FNS, FN_INDEX, build_logiset,
                              compute_feature, instance_from_cube)


def test_feature_fn_roster():
    assert FEATURE_FNS == ("max", "min", "mean", "median", "std",
                           "entropy_pairs", "transition_var",
                           "stretch_high", "stretch_decr")
    assert FN_INDEX["max"] == 0 and FN_INDEX["stretch_decr"] == 8


def test_basic_stats_on_example():
    s = [1.0, 2.0, 3.0]
    w = (0, 3)
    assert compute_feature("max", s, w) == 3.0
    assert compute_feature("min", s, w) == 1.0
    assert compute_feature("mean", s, w) == 2.0
    assert compute_feature("median", s, w) == 2.0
    assert compute_feature("std", s, w) == 1.0


def test_interval_covers_points_after_start():
    # (x, y) covers points x+1 .. y, i.e. positions x .. y-1
    s = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert compute_feature("max", s, (0, 2)) == 20.0
    assert compute_feature("min", s, (2, 5)) == 30.0
    assert compute_feature("mean", s, (4, 5)) == 50.0


def test_symbolic_examples():
    assert compute_feature("stretch_decr", [3, 2, 1, 2, 1], (0, 5)) == 2.0
    assert compute_feature("stretch_high", [1, 5, 5, 1, 5], (0, 5)) == 2.0
    assert compute_feature("entropy_pairs", [4, 4, 4, 4], (0, 4)) == 0.0
    assert compute_feature("transition_var", [4, 4, 4, 4], (0, 4)) == \
        pytest.approx(8.0 / 81.0, abs=1e-15)


def test_length_one_degenerates():
    s = [7.0, 3.0]
    for fn in ("std", "entropy_pairs", "transition_var",
               "stretch_high", "stretch_decr"):
        assert compute_feature(fn, s, (1, 2)) == 0.0


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        compute_feature("max", [1.0, 2.0], (2, 2))
    with pytest.raises(ValueError):
        compute_feature("max", [1.0, 2.0], (1, 3))
    with pytest.raises(ValueError):
        compute_feature("nope", [1.0, 2.0], (1, 2))


def test_feature_fns_match_scalar_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        s = rng.integers(-4, 9, size=n) / 4.0
        x = int(rng.integers(0, n))
        y = int(rng.integers(x + 1, n + 1))
        for fn in FEATURE_FNS:
            got = compute_feature(fn, s, (x, y))
            want = oracles.o_stat(fn, list(map(float, s)), (x, y))
            assert got == pytest.approx(want, abs=1e-12), (fn, s, x, y)


def _cube(values, names=None):
    arr = np.asarray(values, dtype=np.float64)
    if names is None:
        names = tuple(f"a{i}" for i in range(arr.shape[0]))
    return FeatureCube(names, arr)


def test_table_sizes():
    rng = np.random.default_rng(0)
    cube = _cube(rng.normal(size=(77, 5)))
    modal = instance_from_cube(cube, "modal")
    prop = instance_from_cube(cube, "propositional")
    assert modal.table.shape == (9, 77, 15)
    assert modal.table.size == 10395
    assert prop.table.shape == (9, 77, 1)
    assert prop.table.size == 693


def test_table_fidelity():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(3, 6))
    inst = instance_from_cube(_cube(values), "modal")
    ivs = enumerate_intervals(6)
    for _ in range(1000):
        fn = FEATURE_FNS[int(rng.integers(9))]
        attr = int(rng.integers(3))
        w = ivs[int(rng.integers(len(ivs)))]
        direct = scalar_features.compute_feature(fn, values[attr], w)
        assert inst.table[FN_INDEX[fn], attr, inst.frame.index[w]] == direct
        assert compute_feature(fn, values[attr], w) == direct


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_tables_match_reference(values, mode):
    cubes = [_cube(v) for v in values]
    ls = build_logiset(cubes, [0] * len(cubes), mode=mode)
    want = scalar_features.reference_table(values, ls.frame.intervals)
    assert _same_bits(ls.table, want)
    for cube, row in zip(cubes, want):
        assert _same_bits(instance_from_cube(cube, mode).table, row)


def _pair_rich(rng, m, n, T):
    # a walk through all nine bin pairs: every interval of at least 9 points
    # sees >= 8 distinct pairs, the case where np.sum switches from
    # one-by-one to blocked summation of the entropy terms
    walk = np.array([0, 0, 1, 1, 2, 2, 0, 2, 1, 0], dtype=np.float64)
    base = np.resize(walk, (m, n, T)) + rng.uniform(0.0, 0.1, (m, n, T))
    return base * rng.uniform(0.5, 2.0, (m, n, 1))


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_median_across_rows_keeps_np_median_bits(L):
    # signed zeros, ties, opposite values, infinities and sums that overflow
    # in windows of L points, laid out as the kernel lays them: lane (s, q)
    # holds window s of series q
    rng = np.random.default_rng(L)
    levels = [-np.inf, -1e308, -1.5, -1.0, -0.0, 0.0, 1.0, 1.5, 1e308, np.inf]
    windows = rng.choice(levels, size=(3, 500, L))
    rows = np.ascontiguousarray(windows.transpose(2, 1, 0)).reshape(L, -1)
    with np.errstate(invalid="ignore", over="ignore"):
        got = logiset._median(rows, windows)
        want = np.median(windows, axis=-1).T.reshape(-1)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    real = ~np.isnan(want)
    assert _same_bits(got[real], want[real])


def test_transition_variance_keeps_np_var_bits():
    # the lane-wise sums against np.var along each lane's 9 contiguous
    # entries, with empty rows and lanes
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 6, (9, 3000))
    counts[:, :20] = 0
    counts[rng.integers(0, 9, 500), rng.integers(0, 3000, 500)] = 0
    probs = np.ascontiguousarray(counts.T, dtype=np.float64)
    rows = probs.reshape(-1, 3, 3)
    rows /= np.maximum(rows.sum(axis=-1), 1.0)[:, :, None]
    want = probs.var(axis=-1)
    assert _same_bits(logiset._transition_variance(counts), want)


@pytest.mark.parametrize("mode", ["modal", "propositional"])
@pytest.mark.parametrize("T", [2, 3, 5, 8, 9, 12, 20])
def test_table_matches_scalar_reference_bitwise(mode, T):
    rng = np.random.default_rng(T)
    m, n = 3, 4
    rich = _pair_rich(rng, m, n, T)
    if T >= 9:
        bins = scalar_features._bins3(rich[0, 0, :9])
        assert len(set(zip(bins[:-1], bins[1:]))) == 8
    # from 8 points on, a reduction over the points may keep either zero
    zeros = rng.choice([-0.0, 0.0], size=(m, n, T))
    mixed = np.where(rng.random((m, n, T)) < 0.3, 1.0, zeros)
    for values in (rng.normal(size=(m, n, T)),
                   np.round(rng.normal(size=(m, n, T)) * 2.0) / 2.0,
                   np.full((m, n, T), -1.75),
                   rich, zeros, mixed, -mixed):
        _assert_tables_match_reference(values, mode)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 14),
       st.sampled_from(["modal", "propositional"]), st.data())
def test_table_matches_scalar_reference_property(m, n, T, mode, data):
    # a few levels make ties, constant runs and repeated pairs common;
    # both zeros test which one max, min and median keep
    levels = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.5])
    flat = data.draw(st.lists(levels, min_size=m * n * T,
                              max_size=m * n * T))
    _assert_tables_match_reference(np.reshape(flat, (m, n, T)), mode)


@pytest.mark.parametrize("mode", ["modal", "propositional"])
def test_table_matches_scalar_reference_past_overflow(mode):
    # sums of a few such values pass the largest float: mean and std
    # overflow, while max - min stays finite
    rng = np.random.default_rng(7)
    values = rng.choice([-1.0, 1.0], size=(3, 2, 12)) \
        * rng.uniform(0.5, 0.8, size=(3, 2, 12)) * 1e308
    values[0, 0] = np.abs(values[0, 0])
    values[1] = rng.normal(size=(2, 12)) * 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        want = scalar_features.reference_table(values, ((0, 12),))
        assert np.isinf(want[:, FN_INDEX["mean"]]).any()
        assert np.isinf(want[:, FN_INDEX["std"]]).any()
        _assert_tables_match_reference(values, mode)


def test_table_builds_when_max_minus_min_overflows():
    # max - min overflows to inf: the pair functions bin such a window at
    # half scale, with no NaN bin to cast, so they read as on the halved
    # cube; the other functions are unaffected
    values = np.array([[[-1.7e308, 1.7e308, 0.0, 1e308, -1e308, 5.0]]])
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(over="ignore", invalid="warn"):
        warnings.simplefilter("always")
        ls = build_logiset([_cube(values[0])], [0])
        for fn in ("max", "min", "mean", "median", "std"):
            for w in ls.frame.intervals:
                want = scalar_features.compute_feature(fn, values[0, 0], w)
                got = ls.table[0, FN_INDEX[fn], 0, ls.frame.index[w]]
                assert _same_bits(np.float64(got), np.float64(want))
    assert not [w for w in caught if "cast" in str(w.message)]
    with np.errstate(over="ignore", invalid="ignore"):
        halved = build_logiset([_cube(values[0] / 2.0)], [0])
    for fn in ("entropy_pairs", "transition_var"):
        got = ls.table[0, FN_INDEX[fn]]
        want = halved.table[0, FN_INDEX[fn]]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("T", [129, 300])
def test_table_matches_scalar_reference_long_series(T):
    # past 128 points numpy splits a sum in halves, recursively
    rng = np.random.default_rng(T)
    for values in (rng.normal(size=(3, 4, T)), _pair_rich(rng, 3, 4, T),
                   np.round(rng.normal(size=(3, 4, T)) * 2.0) / 2.0):
        _assert_tables_match_reference(values, "propositional")


@pytest.mark.parametrize("mode", ["modal", "propositional"])
def test_cube_without_attributes_builds_an_empty_table(mode):
    cube = FeatureCube((), np.zeros((0, 5)))
    ls = build_logiset([cube, cube], [0, 1], mode=mode)
    n_intervals = len(ls.frame.intervals)
    assert ls.table.shape == (2, len(FEATURE_FNS), 0, n_intervals)
    assert instance_from_cube(cube, mode).table.shape == \
        (len(FEATURE_FNS), 0, n_intervals)


def test_table_size_guard(monkeypatch):
    # 4 instances x 9 functions x 3 attributes x 15 intervals x 8 bytes
    need = 4 * 9 * 3 * 15 * 8
    cubes = [_cube(np.zeros((3, 5))) for _ in range(4)]
    monkeypatch.setattr(audio, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=r"4 instances with n_points=5"):
        build_logiset(cubes, [0, 1, 0, 1])
    monkeypatch.setattr(audio, "_physical_memory", lambda: need // 4 - 1)
    with pytest.raises(ValueError, match=r"1 instances with n_points=5"):
        instance_from_cube(cubes[0], "modal")
    monkeypatch.setattr(audio, "_physical_memory", lambda: need)
    assert build_logiset(cubes, [0, 1, 0, 1]).table.nbytes == need
    monkeypatch.setattr(audio, "_physical_memory", lambda: None)
    assert build_logiset(cubes, [0, 1, 0, 1]).table.nbytes == need


def test_build_memory_beside_the_table_is_bounded():
    # 4000 x 2 series of 8 points: 288,000 lanes over 8 lengths.  Without
    # blocks of instances the work arrays alone would take about 20 MiB.
    values = np.random.default_rng(3).normal(size=(4000, 2, 8))
    cubes = [_cube(v) for v in values]
    labels = [i % 2 for i in range(len(cubes))]
    tracemalloc.start()
    try:
        table = build_logiset(cubes, labels).table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == 4000 * 9 * 2 * 36 * 8
    assert peak - table.nbytes < 8 * 2**20


def test_atom_eval_examples():
    inst = instance_from_cube(_cube([[1.0, 2.0, 3.0]]), "modal")
    assert check(Atom(fn="mean", attr=0, op=">=", threshold=2.0), inst,
                 (0, 3))
    assert not check(Atom(fn="max", attr=0, op="<=", threshold=0.0), inst,
                     (0, 3))
    near = instance_from_cube(_cube([[1.5, 1.6, 1.4]]), "modal")
    assert check(Atom(fn="min", attr=0, op=">=", threshold=1.46), near,
                 (0, 2))
    assert not check(Atom(fn="min", attr=0, op=">=", threshold=1.46), near,
                     (0, 3))


def test_atom_eval_errors():
    inst = instance_from_cube(_cube([[1.0, 2.0, 3.0]]), "modal")
    with pytest.raises(ValueError):
        check(Atom(fn="max", attr=0, op=">=", threshold=0.0), inst, (0, 9))
    with pytest.raises(ValueError):
        check(Atom(fn="nope", attr=0, op=">=", threshold=0.0), inst, (0, 2))
    with pytest.raises(ValueError):
        check(Atom(fn="max", attr=5, op=">=", threshold=0.0), inst, (0, 2))
    with pytest.raises(ValueError):
        check(Atom(fn="max", attr=0, op="==", threshold=0.0), inst, (0, 2))


def test_propositional_instance_only_has_full_interval():
    inst = instance_from_cube(_cube([[1.0, 2.0, 3.0]]), "propositional")
    assert inst.frame.intervals == ((0, 3),)
    assert check(Atom(fn="mean", attr=0, op=">=", threshold=2.0), inst,
                 (0, 3))
    with pytest.raises(ValueError):
        check(Atom(fn="mean", attr=0, op=">=", threshold=2.0), inst, (0, 2))


series = st.lists(st.integers(-8, 8).map(lambda k: k / 4.0),
                  min_size=2, max_size=8)


@given(series, st.integers(-3, 3), st.integers(1, 4))
def test_mean_affine(s, b, a):
    w = (0, len(s))
    base = compute_feature("mean", s, w)
    shifted = compute_feature("mean", [a * v + b for v in s], w)
    assert shifted == pytest.approx(a * base + b, abs=1e-9)


@given(series, st.integers(1, 4))
def test_std_scale(s, a):
    w = (0, len(s))
    assert compute_feature("std", [a * v for v in s], w) == \
        pytest.approx(a * compute_feature("std", s, w), abs=1e-9)


@given(series, st.integers(1, 3), st.integers(0, 2))
def test_stretch_high_affine_invariant(s, a, b):
    w = (0, len(s))
    assert compute_feature("stretch_high", [a * v + b for v in s], w) == \
        compute_feature("stretch_high", s, w)


@given(series)
def test_max_min_bound_mean_median(s):
    w = (0, len(s))
    lo = compute_feature("min", s, w)
    hi = compute_feature("max", s, w)
    for fn in ("mean", "median"):
        assert lo - 1e-12 <= compute_feature(fn, s, w) <= hi + 1e-12


@given(series, st.integers(1, 7))
def test_max_min_split_associativity(s, cut):
    if cut >= len(s):
        cut = len(s) - 1
    whole_max = compute_feature("max", s, (0, len(s)))
    assert whole_max == max(compute_feature("max", s, (0, cut)),
                            compute_feature("max", s, (cut, len(s))))
    whole_min = compute_feature("min", s, (0, len(s)))
    assert whole_min == min(compute_feature("min", s, (0, cut)),
                            compute_feature("min", s, (cut, len(s))))


def test_build_logiset_shapes_and_classes():
    rng = np.random.default_rng(2)
    cubes = [_cube(rng.normal(size=(4, 5))) for _ in range(6)]
    labels = [1, 0, 1, 1, 0, 1]
    ls = build_logiset(cubes, labels)
    assert ls.mode == "modal"
    assert ls.T == 5
    assert ls.classes == (0, 1)
    assert ls.attr_names == cubes[0].names
    assert len(ls.instances) == 6
    assert ls.table.shape == (6, 9, 4, 15)
    for i, inst in enumerate(ls.instances):
        assert inst.label == labels[i]
        assert np.shares_memory(inst.table, ls.table)


def test_build_logiset_explicit_classes():
    cubes = [_cube([[1.0, 2.0, 3.0, 4.0, 5.0]]) for _ in range(2)]
    ls = build_logiset(cubes, ["dog", "cat"],
                       classes=("cat", "dog", "frog"))
    assert ls.classes == ("cat", "dog", "frog")
    assert [inst.label for inst in ls.instances] == [1, 0]
    with pytest.raises(ValueError):
        build_logiset(cubes, ["dog", "mouse"], classes=("cat", "dog"))
    # a class named twice would map one label to two ids
    with pytest.raises(ValueError, match="not unique"):
        build_logiset(cubes, ["dog", "cat"], classes=("cat", "dog", "cat"))


def test_build_logiset_errors():
    a = _cube(np.zeros((2, 5)) + 1.0)
    b = _cube(np.zeros((2, 6)) + 1.0)
    with pytest.raises(ValueError):
        build_logiset([a, b], [0, 1])  # length mismatch
    c = _cube(np.ones((3, 5)))
    with pytest.raises(ValueError):
        build_logiset([a, c], [0, 1])  # attribute mismatch
    with pytest.raises(ValueError):
        build_logiset([], [])


def test_accessible_indices_consistent():
    rng = np.random.default_rng(4)
    cubes = [_cube(rng.normal(size=(2, 5))) for _ in range(2)]
    ls = build_logiset(cubes, [0, 1])
    f = ls.frame
    for rel in ("L", "AO", "DBE", "G", "Id"):
        for w in f.intervals:
            idx = np.flatnonzero(f.R[rel][f.index[w]])
            want = [f.index[v] for v in oracles.o_accessible(rel, w, 5)]
            assert list(idx) == want
