"""End-to-end command line tests on a tiny synthetic tone corpus."""

import hashlib
import importlib
import importlib.util
import json
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from scipy.io import wavfile

from symaudio import audio, cli
from symaudio.audio import decode_wav
from symaudio.cubefile import load_cube_file, write_cube_file
from symaudio.trees import load_model, predict_model, save_model
from symaudio.logiset import FeatureCube

SR = 8000


def _tone_wav(path, freq, seconds=0.3, amp=0.4, rate=SR):
    t = np.arange(int(round(seconds * rate))) / rate
    x = np.rint(amp * np.sin(2 * np.pi * freq * t) * 32767)
    wavfile.write(str(path), rate, x.astype(np.int16))


def _make_corpus(root, n_per_class=6, rate=SR):
    """Two tone classes far apart in pitch; returns the manifest path."""
    root.mkdir(parents=True, exist_ok=True)
    lines = ["path,label"]
    for i in range(n_per_class):
        name = f"lo_{i}.wav"
        _tone_wav(root / name, 400 + 7 * i, rate=rate)
        lines.append(f"{name},lo")
    for i in range(n_per_class):
        name = f"hi_{i}.wav"
        _tone_wav(root / name, 1500 + 7 * i, rate=rate)
        lines.append(f"{name},hi")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _write_config(path, out_dir, extra=()):
    lines = [f"out_dir={out_dir}",
             "clip_seconds=0.3",
             "repeats=3",
             "rules_trees=2",
             "seed=0",
             "mode=modal",
             "model=tree"]
    lines.extend(extra)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus featurized once; train/evaluate/rules reuse the cube."""
    base = tmp_path_factory.mktemp("cli")
    manifest = _make_corpus(base / "wavs")
    out = base / "out"
    cfg = _write_config(base / "exp.cfg", out)
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg)])
    assert rc == 0
    return {"base": base, "manifest": manifest, "cfg": cfg, "out": out}


# --- featurize --------------------------------------------------------------

def test_featurize_outputs(workspace):
    cube_path = workspace["out"] / "features.cube"
    cf = load_cube_file(str(cube_path))
    assert cf.values.shape == (12, 77, 5)
    assert cf.classes == ("hi", "lo")
    assert len(cf.attr_names) == 77
    assert cf.attr_names[38] == "mfcc_0"
    lo = [i for i, l in enumerate(cf.labels) if cf.classes[l] == "lo"]
    assert len(lo) == 6


def test_featurize_report(workspace):
    report = (workspace["out"] / "features.report.txt").read_text()
    lines = report.splitlines()
    assert len(lines) == 13
    assert lines[0] == "lo_0.wav\tok"
    assert all(l.endswith("\tok") for l in lines[:-1])
    assert lines[-1] == "processed 12/12"


def test_featurize_missing_file_within_tolerance(tmp_path, capsys):
    manifest = _make_corpus(tmp_path / "wavs")
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("ghost.wav,lo\n")
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out)
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg)])
    # 1 of 13 failed: the rest still ship and the run counts as a success
    assert rc == 0
    cf = load_cube_file(str(out / "features.cube"))
    assert cf.values.shape[0] == 12
    report = (out / "features.report.txt").read_text().splitlines()
    ghost = [l for l in report if l.startswith("ghost.wav\t")]
    assert len(ghost) == 1 and "error:" in ghost[0]
    assert report[-1] == "processed 12/13"


def test_featurize_too_many_failures(tmp_path, capsys):
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=3)
    with open(manifest, "a", encoding="utf-8") as fh:
        for i in range(3):
            fh.write(f"ghost_{i}.wav,lo\n")
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out)
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg)])
    assert rc == 2
    assert "failed" in capsys.readouterr().err
    # partial outputs still land on disk for inspection
    cf = load_cube_file(str(out / "features.cube"))
    assert cf.values.shape[0] == 6
    report = (out / "features.report.txt").read_text().splitlines()
    assert report[-1] == "processed 6/9"


def test_featurize_zero_pads_short_clip(tmp_path):
    manifest = _make_corpus(tmp_path / "wavs")
    _tone_wav(tmp_path / "wavs" / "lo_0.wav", 400, seconds=0.2)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out)
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg)])
    assert rc == 0
    report = (out / "features.report.txt").read_text().splitlines()
    assert report[0] == "lo_0.wav\tok (zero-padded 1600 -> 2400 samples)"
    cf = load_cube_file(str(out / "features.cube"))
    assert cf.values.shape[0] == 12


def test_featurize_report_lines_are_pinned(tmp_path, capsys):
    # one outcome per manifest row, in manifest order: ok, a missing file,
    # a zero-padded clip
    wavs = tmp_path / "wavs"
    manifest = _make_corpus(wavs, n_per_class=2)
    _tone_wav(wavs / "lo_1.wav", 400, seconds=0.2)
    lines = manifest.read_text().splitlines()
    lines.insert(2, "ghost.wav,lo")
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out)
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg)])
    # 1 of 5 rows failed, more than 10%: outputs land, the exit says so
    assert rc == 2
    assert "featurize: 1 of 5 files failed" in capsys.readouterr().err
    missing = str(wavs / "ghost.wav")
    assert (out / "features.report.txt").read_text() == (
        "lo_0.wav\tok\n"
        f"ghost.wav\terror: [Errno 2] No such file or directory: "
        f"{missing!r}\n"
        "lo_1.wav\tok (zero-padded 1600 -> 2400 samples)\n"
        "hi_0.wav\tok\n"
        "hi_1.wav\tok\n"
        "processed 4/5\n")
    assert load_cube_file(str(out / "features.cube")).values.shape[0] == 4


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_featurize_every_row_failing_the_second_pass(tmp_path, capsys, jobs):
    # 3000 Mel filters over 129 FFT bins collide after rounding: every clip
    # decodes, then every featurization fails
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=2)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out, ["n_mel=3000"])
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                   "--jobs", jobs])
    assert rc == 2
    assert "featurize: no usable audio among 4 files" in \
        capsys.readouterr().err
    error = "error: Mel centers collide after rounding to integer Hz"
    assert (out / "features.report.txt").read_text().splitlines() == [
        f"{name}.wav\t{error}" for name in ("lo_0", "lo_1", "hi_0", "hi_1")
    ] + ["processed 0/4"]
    assert not (out / "features.cube").exists()


def test_featurize_clip_too_short_for_the_windows_writes_nothing(tmp_path,
                                                                  capsys):
    # 80 samples cannot fill 5 windows of 256 at hop 128 (768 samples)
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=2)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"out_dir={out}\nclip_seconds=0.01\n", encoding="utf-8")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error: 80 samples per clip" in err and "768" in err
    assert not out.exists()


def test_commands_write_into_a_directory_not_made_yet(workspace, tmp_path):
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=2)
    out = tmp_path / "new" / "deeper"
    cfg = _write_config(tmp_path / "exp.cfg", out)
    assert cli.main(["featurize", str(manifest), "--config", str(cfg)]) == 0
    assert load_cube_file(str(out / "features.cube")).values.shape[0] == 4
    assert (out / "features.report.txt").read_text().endswith(
        "processed 4/4\n")
    trained = tmp_path / "trained" / "here"
    cube = workspace["out"] / "features.cube"
    assert cli.main(["train", str(cube), "--config", str(workspace["cfg"]),
                     "--out", str(trained)]) == 0
    assert load_model(str(trained / "model.json")).kind == "tree"


def test_writers_make_their_own_directory(workspace, tmp_path):
    cube = tmp_path / "cubes" / "a.cube"
    write_cube_file(str(cube), ("a",), ("x", "y"), np.zeros((2, 1, 3)),
                    [0, 1])
    assert load_cube_file(str(cube)).labels == [0, 1]
    assert cli.main(["train", str(workspace["out"] / "features.cube"),
                     "--config", str(workspace["cfg"]),
                     "--out", str(tmp_path)]) == 0
    model = load_model(str(tmp_path / "model.json"))
    path = tmp_path / "models" / "model.json"
    save_model(model, str(path))
    assert load_model(str(path)) == model


def _limited_address_space():
    import resource
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = 7 * 2**29   # 3.5 GiB
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("rate,verdict", [
    # 8e8 samples out (6 GiB) do not fit the address space
    (1, "error: resampling 100000 samples from 1 Hz"),
    # 400,001 taps per sample, one output row per block
    (50_000_000, "ok (zero-padded 16 -> 2400 samples)"),
    # 1,200,001 taps per sample, beyond the cap
    (150_000_000, "taps per sample, more than 1048576")])
def test_featurize_survives_crafted_header_rate(tmp_path, rate, verdict):
    # a 200 KB WAV whose header claims an absurd rate, next to a good file,
    # featurized in a process limited to a 3.5 GiB address space
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    _tone_wav(wavs / "good.wav", 440)
    noise = np.random.default_rng(0).integers(-2000, 2000, 100_000)
    wavfile.write(str(wavs / "crafted.wav"), rate, noise.astype(np.int16))
    manifest = wavs / "manifest.csv"
    manifest.write_text("good.wav,a\ncrafted.wav,b\n", encoding="utf-8")
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "symaudio.cli", "featurize", str(manifest),
         "--config", str(cfg)],
        capture_output=True, text=True, preexec_fn=_limited_address_space,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == (0 if verdict.startswith("ok") else 2), \
        proc.stderr
    report = (out / "features.report.txt").read_text().splitlines()
    assert report[0] == "good.wav\tok"
    assert report[1].startswith("crafted.wav\t") and verdict in report[1]


@pytest.mark.parametrize("claim", [2 ** 20, 0xFFFFFFF0])
def test_featurize_reads_the_frames_a_long_header_overclaims(tmp_path, claim):
    # a data chunk whose header claims up to 4 GiB more than the file holds
    # decodes to the frames present (scipy may warn on stderr) and is
    # featurized like any clip, in a process limited to a 3.5 GiB address
    # space
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    _tone_wav(wavs / "good.wav", 440)
    _tone_wav(wavs / "crafted.wav", 1500)
    blob = bytearray((wavs / "crafted.wav").read_bytes())
    at = blob.index(b"data") + 4
    blob[at:at + 4] = struct.pack("<I", claim)
    (wavs / "crafted.wav").write_bytes(bytes(blob))
    assert len(decode_wav(str(wavs / "crafted.wav")).samples) == \
        len(decode_wav(str(wavs / "good.wav")).samples) == 2400
    manifest = wavs / "manifest.csv"
    manifest.write_text("good.wav,a\ncrafted.wav,b\n", encoding="utf-8")
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "symaudio.cli", "featurize", str(manifest),
         "--config", str(cfg)],
        capture_output=True, text=True, preexec_fn=_limited_address_space,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert (out / "features.report.txt").read_text().splitlines() == \
        ["good.wav\tok", "crafted.wav\tok", "processed 2/2"]


def test_featurize_manifest_field_past_csv_limit_is_data_error(tmp_path,
                                                              capsys):
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=1)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("x" * 200_000 + ".wav,lo\n")
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg)])
    assert rc == 2
    assert "data error: manifest line 4:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_featurize_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=1)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                   "--jobs", jobs])
    assert rc == 1
    assert "usage error:" in capsys.readouterr().err


@pytest.mark.parametrize("cpus,pools", [(64, [3]), (2, [2]),
                                        (1, []), (None, [])])
def test_featurize_pool_is_no_larger_than_cpus_and_files(
        tmp_path, monkeypatch, cpus, pools):
    # the pool is a recorder that runs in-process: nothing is forked; one
    # pool serves both passes of a command
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    for i in range(3):
        _tone_wav(wavs / f"t{i}.wav", 400 + 700 * (i % 2))
    manifest = wavs / "manifest.csv"
    manifest.write_text("t0.wav,a\nt1.wav,b\nt2.wav,a\n", encoding="utf-8")
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                   "--jobs", "50000"])
    assert rc == 0
    assert sizes == pools


def test_featurize_long_manifest_of_missing_files(tmp_path, monkeypatch,
                                                  capsys):
    # 20,000 rows go to the workers in chunks, not as one future per row
    submits = []

    class Counting(cli.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submits.append(1)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Counting)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(f"ghost_{i}.wav,{'ab'[i % 2]}\n"
                                for i in range(20_000)), encoding="utf-8")
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                   "--jobs", "2"])
    assert rc == 2
    assert "no usable audio among 20000 files" in capsys.readouterr().err
    assert len(submits) <= 2 * 32 + 1
    report = (tmp_path / "out" / "features.report.txt").read_text()
    assert report.splitlines()[-1] == "processed 0/20000"


def test_featurize_without_manifest_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", "--config", str(cfg)])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err


# --- train / evaluate / rules ----------------------------------------------

def test_train_writes_loadable_model(workspace):
    rc = cli.main(["train", "--config", str(workspace["cfg"])])
    assert rc == 0
    model = load_model(str(workspace["out"] / "model.json"))
    assert model.kind == "tree"
    assert model.classes == ("hi", "lo")
    assert model.params.mode == "modal"
    assert len(model.attr_names) == 77

    cf = load_cube_file(str(workspace["out"] / "features.cube"))
    preds = []
    for i in range(cf.values.shape[0]):
        mode, cid = predict_model(model,
                                  FeatureCube(cf.attr_names, cf.values[i]))
        assert mode == "modal"
        preds.append(cid)
    # the winning split has gain 1.0, so the tree is pure on its train set
    assert preds == list(cf.labels)


def test_evaluate_writes_metrics(workspace, capsys):
    rc = cli.main(["evaluate", "--config", str(workspace["cfg"])])
    assert rc == 0
    assert "kappa" in capsys.readouterr().out
    text = (workspace["out"] / "metrics.csv").read_text()
    rows = [r.split(",") for r in text.splitlines()]
    assert rows[0] == ["task", "mode", "model", "repeat", "kappa",
                       "accuracy", "leaves"]
    # 3 repeats plus mean and std
    assert len(rows) == 6
    assert [r[3] for r in rows[1:]] == ["0", "1", "2", "mean", "std"]
    assert rows[1][:3] == ["features", "modal", "tree"]
    # two well separated tones stay well above chance on every repeat
    assert float(rows[4][5]) >= 75.0


def test_rules_writes_csv(workspace, capsys):
    rc = cli.main(["rules", "--config", str(workspace["cfg"])])
    assert rc == 0
    assert "rules ->" in capsys.readouterr().out
    rows = (workspace["out"] / "rules.csv").read_text().splitlines()
    assert rows[0] == "antecedent,consequent,coverage,confidence"


@pytest.mark.parametrize("mode, digest", [
    ("modal",
     "2111bb813a030687c119200f5170c22a227af9924ec2741ccc9a716c26bce64c"),
    ("prop",
     "f74567211f57c2e1a890c58c464b2884c05c6bcccaeb15cbf4265217c99a73a0"),
])
def test_rules_csv_bytes_are_pinned(tmp_path, mode, digest):
    # a cube whose held-out halves keep 5-6 rules per mode, among them
    # modal ones whose path leaves the root's false branch with no witness
    # scope open; the digests were recorded before the edge rule was
    # rewritten and pin the rule text byte for byte
    rng = np.random.default_rng(46)
    values = rng.integers(0, 9, size=(80, 3, 5)) / 8.0
    rises = np.diff(values[:, 0], axis=1).max(axis=1) >= 0.5
    cube = tmp_path / "rise.cube"
    write_cube_file(str(cube), ("a0", "a1", "a2"), ("flat", "rise"), values,
                    [int(r) for r in rises])
    cfg = tmp_path / "rules.cfg"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\nmode={mode}\n"
                   "train_frac=0.5\nrules_trees=3\nseed=0\n",
                   encoding="utf-8")
    rc = cli.main(["rules", str(cube), "--config", str(cfg)])
    assert rc == 0
    data = (tmp_path / "out" / "rules.csv").read_bytes()
    assert len(data.splitlines()) > 5
    assert hashlib.sha256(data).hexdigest() == digest


def test_explicit_cube_argument(workspace, tmp_path):
    out2 = tmp_path / "other"
    cfg2 = _write_config(tmp_path / "exp.cfg", out2)
    cube = workspace["out"] / "features.cube"
    rc = cli.main(["train", str(cube), "--config", str(cfg2)])
    assert rc == 0
    assert (out2 / "model.json").exists()



def test_train_on_cube_without_attributes(tmp_path, capsys):
    cube = tmp_path / "empty.cube"
    write_cube_file(str(cube), (), ("a", "b"), np.zeros((6, 0, 5)),
                    [0, 1] * 3)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["train", str(cube), "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "out" / "model.json").exists()

# --- determinism ------------------------------------------------------------

def test_featurize_deterministic_across_runs_and_jobs(tmp_path):
    manifest = _make_corpus(tmp_path / "wavs")
    blobs = []
    for sub, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / sub
        cfg = _write_config(tmp_path / f"{sub}.cfg", out)
        rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                       "--jobs", jobs])
        assert rc == 0
        blobs.append((out / "features.cube").read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]


def test_evaluate_deterministic(workspace, tmp_path, capsys):
    cube = workspace["out"] / "features.cube"
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = _write_config(tmp_path / f"{sub}.cfg", out)
        rc = cli.main(["evaluate", str(cube), "--config", str(cfg)])
        assert rc == 0
        texts.append((out / "metrics.csv").read_bytes())
    assert texts[0] == texts[1]


# --- exit codes -------------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage error:" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "usage error:" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(capsys):
    assert cli.main(["featurize", "--jobs", "many"]) == 1
    assert "usage error:" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("wibble=3\n", encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "clip_seconds=inf", "clip_seconds=1e308", "clip_seconds=nan",
    "min_gain=nan", "max_leaf_entropy=nan", "trim_frame_ms=nan",
    "trim_threshold_db=nan"])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, line):
    manifest = _make_corpus(tmp_path / "wav", n_per_class=2)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\ntrim=true\n{line}\n",
                   encoding="utf-8")
    rc = cli.main(["featurize", "--config", str(cfg), str(manifest),
                   "--jobs", "1"])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, error", [
    # stft needs two samples a window, the Mel filterbank two filters
    (["window_len=1"], "window_len must be at least 2"),
    (["n_mel=1", "n_mfcc=1"], "n_mel must be at least 2"),
    # the band-pass runs after resampling, so 8 kHz caps it at 4 kHz
    (["bandpass_low=100", "bandpass_high=4001"],
     "bandpass_high cannot exceed resample_hz / 2 = 4000.0")])
def test_config_every_clip_would_fail_is_config_error(tmp_path, capsys,
                                                      lines, error):
    manifest = _make_corpus(tmp_path / "wav", n_per_class=2)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out, lines)
    rc = cli.main(["featurize", "--config", str(cfg), str(manifest)])
    assert rc == 1
    assert f"config error: {error}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "relations=L,Q", "min_gain=-1", "attr_frac=1.5"])
def test_bad_learner_setting_is_config_error(workspace, capsys, line):
    # LearnParams rejects these; the command still reports a config error
    cfg = _write_config(workspace["base"] / "bad.cfg", workspace["out"],
                        [line])
    rc = cli.main(["train", "--config", str(cfg)])
    assert rc == 1
    assert "config error:" in capsys.readouterr().err


def test_missing_cube_is_data_error(tmp_path, capsys):
    rc = cli.main(["evaluate", str(tmp_path / "nope.cube")])
    assert rc == 2
    assert "data error:" in capsys.readouterr().err


def test_corrupt_cube_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.cube"
    bad.write_bytes(b"MTSD1" + b"\x00" * 40)
    rc = cli.main(["train", str(bad)])
    assert rc == 2
    assert "data error:" in capsys.readouterr().err


def test_crafted_cube_header_is_data_error(tmp_path, capsys):
    # valid checksum, but the header asks for 4e6 x 4 x 4000 values
    body = b"MTSD1" + struct.pack("<III", 4_000_000, 4, 4000)
    body += b"".join(struct.pack("<I", 1) + c for c in (b"a", b"b", b"c", b"d"))
    body += struct.pack("<I", 0)
    bad = tmp_path / "crafted.cube"
    bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    assert cli.main(["train", str(bad)]) == 2
    assert "data error:" in capsys.readouterr().err


def test_oversized_table_is_data_error(tmp_path, monkeypatch, capsys):
    cube = tmp_path / "small.cube"
    write_cube_file(str(cube), ("a", "b"), ("lo", "hi"),
                    np.arange(32.0).reshape(4, 2, 4), [0, 1, 0, 1])
    # no clip_seconds: one 0.3 s clip alone would exceed the budget
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"out_dir={tmp_path / 'out'}\n", encoding="utf-8")
    monkeypatch.setattr(audio, "_physical_memory", lambda: 1024)
    assert cli.main(["evaluate", str(cube), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "n_points=4" in err
    assert not (tmp_path / "out").exists()


def test_long_series_cube_is_data_error(tmp_path, capsys):
    # 500,500 modal intervals: 8 relation matrices of 500,500^2 bytes are
    # refused before the first is built
    cube = tmp_path / "long.cube"
    write_cube_file(str(cube), ("a",), ("lo", "hi"),
                    np.zeros((10, 1, 1000)), [0, 1] * 5)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    assert cli.main(["train", str(cube), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data error: the modal frame for n_points=1000 needs" in err
    assert not (tmp_path / "out").exists()


def test_duplicate_class_cube_is_data_error(tmp_path, capsys):
    # a valid checksum over the class vocabulary ("x", "y", "x"); its labels
    # 0 and 2 would name one class by two ids
    body = b"MTSD1" + struct.pack("<III", 4, 1, 3)
    body += struct.pack("<I", 1) + b"a" + struct.pack("<I", 3)
    body += b"".join(struct.pack("<I", 1) + c for c in (b"x", b"y", b"x"))
    for i in range(4):
        body += struct.pack("<I", 2 * (i % 2)) + struct.pack("<3d", i, 1, 2)
    bad = tmp_path / "twice.cube"
    bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    assert cli.main(["train", str(bad), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data error:" in err and "class names are not unique" in err
    assert not (tmp_path / "out").exists()


def test_model_commands_leave_scipy_unloaded(workspace, tmp_path):
    # only featurize needs scipy; importing it costs more than training
    cube, cfg = workspace["out"] / "features.cube", workspace["cfg"]
    script = f"""
import json, sys
parts = ("scipy.fft", "scipy.io", "scipy.signal")
loaded = lambda: [p for p in parts if p in sys.modules]
import symaudio
from symaudio import cli
seen = {{"import": loaded()}}
for command in ("train", "evaluate", "rules"):
    rc = cli.main([command, {str(cube)!r}, "--config", {str(cfg)!r},
                   "--out", {str(tmp_path)!r}])
    seen[command] = [rc] + loaded()
print(json.dumps(seen))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": [], "train": [0], "evaluate": [0],
                    "rules": [0]}


def test_benchmark_trace_hooks_resolve():
    # the benchmark's span recorder wraps these functions by name; one that
    # no longer resolves is skipped there and its metric silently reads 0
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = [t[:2] for t in spans.TARGETS] + [c[:2] for c in spans.COUNTED]
    assert len(hooks) > 20
    missing = [f"{mod}.{attr}" for mod, attr in hooks
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert missing == []


def test_benchmark_span_names_are_all_recorded(tmp_path):
    # a wrapped name that resolves but that no command calls leaves its
    # metric at 0 as silently as one that does not resolve: run every
    # command with the benchmark's recorder and look for every span name
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    manifest = _make_corpus(tmp_path / "wavs", rate=16000)
    cfg = str(_write_config(tmp_path / "exp.cfg", tmp_path / "out",
                            ["trim=true", "bandpass_low=100",
                             "bandpass_high=3500", "n_trees=3"]))
    rec = spans.Recorder(str(tmp_path))
    restore = spans.install(rec)
    try:
        assert cli.main(["featurize", str(manifest), "--config", cfg,
                         "--jobs", "1"]) == 0
        for argv in (["train"], ["train", "--model", "forest"],
                     ["evaluate"], ["evaluate", "--model", "forest"],
                     ["rules"]):
            assert cli.main(argv + ["--config", cfg]) == 0
    finally:
        restore()
    recorded = {s["name"] for s in rec.collect()}
    assert sorted({t[2] for t in spans.TARGETS} - recorded) == []


def test_readme_demo_script_runs(tmp_path):
    # the README's quick demo, on a smaller corpus
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "run_demo_experiment.py")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, script, "--workdir", str(tmp_path / "demo"),
         "--n-per-class", "6"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    table = proc.stdout.split("\nmetrics:\n")[1].split("\n\nrules:")[0]
    rows = [line.split() for line in table.splitlines()]
    assert rows[0] == ["task", "mode", "model", "repeat", "kappa",
                       "accuracy", "leaves"]
    assert [row[3] for row in rows[1:]] == \
        ["0", "1", "2", "3", "4", "mean", "std"]


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "symaudio.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "usage error:" in proc.stderr
