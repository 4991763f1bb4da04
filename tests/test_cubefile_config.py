"""Cube container format and experiment config files."""
import dataclasses
import math
import struct
import tempfile
import tracemalloc
import zlib
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symaudio import audio
from symaudio.config import (MAX_RESAMPLE_HZ, ConfigError, ExperimentConfig,
                             learn_params_from, load_config, parse_config,
                             serialize_config)
from symaudio.cubefile import (CubeFileError, load_cube_file, write_cube_file)
from symaudio.trees import DEFAULT_RELATIONS, LearnParams


def _sample_cube(rng):
    values = rng.normal(size=(3, 4, 5))
    values[0, 0, 0] = np.pi
    values[1, 2, 3] = 1e-300
    values[2, 3, 4] = -0.0
    return ("a", "b", "c", "d"), ("quiet", "loud"), values, [0, 1, 1]


def test_cube_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    names, classes, values, labels = _sample_cube(rng)
    path = tmp_path / "features.cube"
    write_cube_file(path, names, classes, values, labels)
    cf = load_cube_file(path)
    assert cf.attr_names == names
    assert cf.classes == classes
    assert cf.labels == labels
    assert cf.values.shape == values.shape
    assert np.array_equal(
        cf.values.view(np.uint64), values.view(np.uint64))


def test_cube_write_is_byte_stable(tmp_path):
    rng = np.random.default_rng(1)
    names, classes, values, labels = _sample_cube(rng)
    a, b = tmp_path / "a.cube", tmp_path / "b.cube"
    write_cube_file(a, names, classes, values, labels)
    write_cube_file(b, names, classes, values, labels)
    assert a.read_bytes() == b.read_bytes()


def test_cube_detects_bit_flip(tmp_path):
    rng = np.random.default_rng(2)
    names, classes, values, labels = _sample_cube(rng)
    path = tmp_path / "x.cube"
    write_cube_file(path, names, classes, values, labels)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    path.write_bytes(bytes(raw))
    with pytest.raises(CubeFileError, match="corrupt"):
        load_cube_file(path)


def test_cube_detects_truncation_and_trailing_bytes(tmp_path):
    rng = np.random.default_rng(3)
    names, classes, values, labels = _sample_cube(rng)
    path = tmp_path / "x.cube"
    write_cube_file(path, names, classes, values, labels)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(CubeFileError):
        load_cube_file(path)
    path.write_bytes(raw + b"junk")
    with pytest.raises(CubeFileError):
        load_cube_file(path)
    # valid checksum, but the header asks for 4e6 x 4 x 4000 values
    body = b"MTSD1" + struct.pack("<III", 4_000_000, 4, 4000)
    body += b"".join(struct.pack("<I", 1) + c for c in (b"a", b"b", b"c", b"d"))
    body += struct.pack("<I", 0)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CubeFileError, match="truncated"):
        load_cube_file(path)


def _packed_cube(names, classes, values, labels):
    """The cube file layout of the module docstring, packed field by field."""
    def text(s):
        raw = s.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    body = b"MTSD1" + struct.pack("<III", *values.shape)
    body += b"".join(text(name) for name in names)
    body += struct.pack("<I", len(classes))
    body += b"".join(text(c) for c in classes)
    for label, series in zip(labels, values):
        body += struct.pack("<I", label) + series.astype("<f8").tobytes()
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("shape", [(3, 4, 5), (0, 4, 5), (3, 0, 5),
                                   (3, 4, 0), (1, 1, 1)])
def test_cube_bytes_follow_the_documented_layout(tmp_path, shape):
    rng = np.random.default_rng(4)
    m, n, _ = shape
    names = tuple(f"attr_{i}" for i in range(n))
    classes = ("quiet", "loud", "silence")
    values = rng.normal(size=shape)
    labels = [int(l) for l in rng.integers(0, 3, size=m)]
    path = tmp_path / "x.cube"
    write_cube_file(path, names, classes, values, labels)
    raw = _packed_cube(names, classes, values, labels)
    assert path.read_bytes() == raw
    cf = load_cube_file(path)
    assert cf.labels == labels and all(type(l) is int for l in cf.labels)
    assert cf.values.shape == shape and cf.values.flags.c_contiguous
    assert cf.values.tobytes() == values.tobytes()
    # labels are checked in file order: the first one out of range is named
    if m == 3:
        path.write_bytes(_packed_cube(names, classes, values, [0, 7, 5]))
        with pytest.raises(CubeFileError, match="label id 7 outside"):
            load_cube_file(path)


def test_cube_load_holds_the_file_bytes_once(tmp_path):
    # the file's bytes and the values copied out of them, and no copy of
    # the bytes besides: about twice the file size at the peak
    values = np.random.default_rng(7).normal(size=(30, 77, 300))
    names = tuple(f"a{i}" for i in range(77))
    path = tmp_path / "big.cube"
    write_cube_file(path, names, ("x", "y"), values,
                    [i % 2 for i in range(30)])
    size = path.stat().st_size
    tracemalloc.start()
    try:
        cf = load_cube_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(cf.values, values)
    assert peak < 2.5 * size


def test_cube_of_oversized_instances_is_rejected(tmp_path):
    # no instances, but each would hold 2^32 - 1 values: numpy cannot shape
    # one record of them
    body = b"MTSD1" + struct.pack("<III", 0, 1, 2 ** 32 - 1)
    body += struct.pack("<I", 1) + b"a" + struct.pack("<I", 0)
    path = tmp_path / "x.cube"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CubeFileError, match="too large"):
        load_cube_file(path)


@lru_cache(maxsize=None)
def _small_cube_bytes():
    # names and classes make up most of the bytes, so most mutations land
    # in the strings the loader decodes
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "small.cube"
        write_cube_file(path, ("spectral_centroid", "zero_crossing_rate"),
                        ("speech_sample", "background_noise"),
                        np.array([[[0.5], [-1.25]]]), [1])
        return path.read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cube_mutations_raise_only_cube_errors(data):
    body = bytearray(_small_cube_bytes()[:-4])
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(body) - 1),
                                         st.integers(0, 255)),
                               min_size=1, max_size=4))
    for pos, byte in edits:
        body[pos] = byte
    # refresh the CRC32 trailer so the mutation reaches the parser
    raw = bytes(body) + struct.pack("<I", zlib.crc32(body))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "mutated.cube"
        path.write_bytes(raw)
        try:
            load_cube_file(path)
        except CubeFileError:
            pass


def test_cube_rejects_wrong_magic(tmp_path):
    path = tmp_path / "x.cube"
    path.write_bytes(b"WRONG" + b"\0" * 64)
    with pytest.raises(CubeFileError, match="not a cube file"):
        load_cube_file(path)
    tiny = tmp_path / "tiny.cube"
    tiny.write_bytes(b"MT")
    with pytest.raises(CubeFileError, match="not a cube file"):
        load_cube_file(tiny)


def test_cube_writer_validation(tmp_path):
    path = tmp_path / "x.cube"
    values = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        write_cube_file(path, ("a", "b"), ("c0",), values, [0, 0])
    with pytest.raises(ValueError):
        write_cube_file(path, ("a", "b", "c"), ("c0",), values, [0])
    with pytest.raises(ValueError):
        write_cube_file(path, ("a", "a", "b"), ("c0",), values, [0, 0])
    with pytest.raises(ValueError):
        write_cube_file(path, ("a", "b", "c"), ("c0",), values, [0, 1])
    with pytest.raises(ValueError):
        write_cube_file(path, ("a", "b", "c"), ("c0",),
                        np.full((2, 3, 4), np.nan), [0, 0])
    with pytest.raises(ValueError):
        write_cube_file(path, ("a",), ("c0",), np.zeros((2, 2)), [0, 0])
    with pytest.raises(ValueError, match="class names must be unique"):
        write_cube_file(path, ("a", "b", "c"), ("x", "y", "x"), values,
                        [0, 2])
    assert not path.exists()


def test_cube_with_a_class_named_twice_is_rejected(tmp_path):
    # ("x", "y", "x") crafted into a file with a valid checksum
    path = tmp_path / "x.cube"
    write_cube_file(path, ("a",), ("x", "y", "z"), np.zeros((2, 1, 3)),
                    [0, 2])
    body = path.read_bytes()[:-4]
    z = struct.pack("<I", 1) + b"z"
    assert body.count(z) == 1
    body = body.replace(z, struct.pack("<I", 1) + b"x")
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CubeFileError, match="class names are not unique"):
        load_cube_file(path)


# --- config ------------------------------------------------------------------

def test_parse_defaults():
    assert parse_config("") == ExperimentConfig()
    assert parse_config("# just a comment\n\n") == ExperimentConfig()


def test_parse_assignments_and_comments():
    cfg = parse_config(
        "# experiment\n"
        "task = vowels\n"
        "resample_hz=16000\n"
        "trim = true\n"
        "bandpass_low = 300\n"
        "bandpass_high = 4000\n"
        "mode = prop\n"
        "relations = L, AO ,G\n"
        "clip_seconds = none\n")
    assert cfg.task == "vowels"
    assert cfg.resample_hz == 16000
    assert cfg.trim is True
    assert cfg.bandpass_low == 300.0 and cfg.bandpass_high == 4000.0
    assert cfg.mode == "propositional"
    assert cfg.relations == ("L", "AO", "G")
    assert cfg.clip_seconds is None


def test_parse_round_trip():
    text = ("task=demo\nmode=prop\nmodel=forest\nn_trees=7\n"
            "overlap=0.25\ntrim=true\nbandpass_low=250\n"
            "bandpass_high=3500\nrelations=L,G\nseed=9\n")
    once = parse_config(text)
    again = parse_config(serialize_config(once))
    assert again == once
    assert parse_config(serialize_config(again)) == once


def test_parse_errors():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("wibble=1")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed=1\nseed=2")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("this is not an assignment")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("seed=banana")
    with pytest.raises(ConfigError, match="number"):
        parse_config("overlap=much")
    with pytest.raises(ConfigError, match="true or false"):
        parse_config("trim=unsure")
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode=diagonal")
    with pytest.raises(ConfigError, match="model"):
        parse_config("model=shrubbery")
    with pytest.raises(ConfigError, match="relation"):
        parse_config("relations=L,Q")
    with pytest.raises(ConfigError, match="relation"):
        parse_config("relations=Id")


def test_validation_errors():
    bad = [
        "resample_hz=0",
        "n_points=1",
        "overlap=1.0",
        "train_frac=1.0",
        "train_frac=0.0",
        "n_mfcc=30",
        "bandpass_low=300",
        "bandpass_high=200\nbandpass_low=300",
        "clip_seconds=0",
        "n_trees=0",
        "instance_frac=0",
        "trim_threshold_db=0",
        "seed=-1",
        # non-finite numbers, and clips that are no usable sample count
        "clip_seconds=inf",
        "clip_seconds=1e308",
        "clip_seconds=nan",
        "clip_seconds=1e-9",
        "resample_hz=1" + "0" * 400 + "\nclip_seconds=1",
        # rates above MAX_RESAMPLE_HZ, clips beyond physical memory
        "resample_hz=384001",
        "resample_hz=100000000",
        "clip_seconds=1e7",
        "min_gain=nan",
        "max_leaf_entropy=nan",
        "trim_frame_ms=nan",
        "trim_threshold_db=-inf",
        "bandpass_low=nan\nbandpass_high=300",
    ]
    for text in bad:
        with pytest.raises(ConfigError):
            parse_config(text)


def test_rate_and_clip_bounds(monkeypatch):
    assert MAX_RESAMPLE_HZ == 384_000
    assert parse_config("resample_hz=384000").resample_hz == 384_000
    # one 10 s clip at 8 kHz is 640,000 bytes
    monkeypatch.setattr(audio, "_physical_memory", lambda: 640_000)
    assert parse_config("clip_seconds=10").clip_seconds == 10.0
    with pytest.raises(ConfigError, match="one clip of clip_seconds=10.0001 "
                       "at resample_hz=8000 needs 0.0 GiB"):
        parse_config("clip_seconds=10.0001")
    monkeypatch.setattr(audio, "_physical_memory", lambda: None)
    assert parse_config("clip_seconds=1e7").clip_seconds == 1e7


def test_serialize_shapes():
    text = serialize_config(ExperimentConfig())
    lines = text.strip().split("\n")
    assert lines[0] == "manifest="
    assert "bandpass_low=none" in lines
    assert "trim=false" in lines
    assert f"relations={','.join(DEFAULT_RELATIONS)}" in lines
    assert text.endswith("\n")


def test_load_config(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("task=demo\nseed=4\n", encoding="utf-8")
    cfg = load_config(p)
    assert cfg.task == "demo" and cfg.seed == 4
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_learn_params_from_config():
    cfg = parse_config("mode=prop\nmin_gain=0.05\nn_trees=12\nseed=3\n"
                       "relations=L,G\nattr_frac=0.25\n")
    params = learn_params_from(cfg)
    assert params.mode == "propositional"
    assert params.min_gain == 0.05
    assert params.n_trees == 12
    assert params.seed == (3,)
    assert params.relations == ("L", "G")
    assert params.attr_frac == 0.25


def test_config_and_learner_settings_stay_in_step():
    # learn_params_from maps the learner settings onto LearnParams by name
    assert learn_params_from(ExperimentConfig()) == LearnParams()
    config_keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    learner_keys = {f.name for f in dataclasses.fields(LearnParams)}
    assert learner_keys - config_keys == {"functions"}


_CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(ExperimentConfig))
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e308", "1e-9",
                     "0.5", "1", "0", "-1", "9" * 30, "1_0", "none", "",
                     "\u0661\u0662"]),
    st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["true", "FALSE", "prop", "modal", "forest", "L,G", "Id",
                     ","]),
    st.text(max_size=8))
_CONFIG_TEXTS = st.one_of(
    st.dictionaries(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES,
                    min_size=1, max_size=3).map(
        lambda d: "\n".join(f"{k}={v}" for k, v in d.items())),
    st.text(max_size=40))


@settings(max_examples=300, deadline=None)
@given(_CONFIG_TEXTS)
def test_config_text_raises_only_config_errors(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    # a config that parses holds finite numbers and survives a round trip
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        assert not isinstance(value, float) or math.isfinite(value), f.name
    assert parse_config(serialize_config(cfg)) == cfg
