"""End-to-end command line tests on a tiny synthetic tone corpus."""

import collections
import hashlib
import importlib
import importlib.util
import json
import multiprocessing
import os
import shutil
import signal
import struct
import subprocess
import sys
import threading
import time
import zlib
from multiprocessing.connection import Connection
from types import SimpleNamespace

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


def _make_corpus(root, n_per_class=6, rate=SR, seconds=0.3):
    """Two tone classes far apart in pitch; returns the manifest path."""
    root.mkdir(parents=True, exist_ok=True)
    lines = ["path,label"]
    for i in range(n_per_class):
        name = f"lo_{i}.wav"
        _tone_wav(root / name, 400 + 7 * i, seconds=seconds, rate=rate)
        lines.append(f"{name},lo")
    for i in range(n_per_class):
        name = f"hi_{i}.wav"
        _tone_wav(root / name, 1500 + 7 * i, seconds=seconds, rate=rate)
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


class _Hung(BaseException):
    """The deadline's alarm: no Exception, so cli.main cannot turn it into
    an exit code."""


@pytest.fixture(autouse=True)
def deadline():
    # a command that waits forever, say on a lost featurize worker, fails
    # its test instead of stalling the run
    def hung(signum, frame):
        raise _Hung

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


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


def test_featurize_bandpass_clip_too_short_is_one_error_row(tmp_path):
    # a 2 ms clip (16 samples) is shorter than the band-pass's 28-sample
    # minimum: its row says so, and the other 12 clips are featurized
    manifest = _make_corpus(tmp_path / "wavs")
    _tone_wav(tmp_path / "wavs" / "blip.wav", 440, seconds=0.002)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("blip.wav,lo\n")
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out,
                        ["bandpass_low=100", "bandpass_high=3500"])
    assert cli.main(["featurize", str(manifest), "--config", str(cfg),
                     "--jobs", "2"]) == 0
    report = (out / "features.report.txt").read_text().splitlines()
    assert [l for l in report if "error" in l] == [
        "blip.wav\terror: a band-pass needs a clip of at least 28 samples, "
        "not 16"]
    assert report[-1] == "processed 12/13"
    assert load_cube_file(str(out / "features.cube")).values.shape[0] == 12


def test_featurize_without_section_kernel_is_internal_fault(
        tmp_path, capsys, monkeypatch):
    # a scipy without its compiled section kernel fails before any worker
    # is forked, with exit 3 and the directory searched
    import importlib.util
    from symaudio import audio
    spec = importlib.util.spec_from_file_location(
        "scipy", tmp_path / "__init__.py",
        submodule_search_locations=[str(tmp_path)])
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=1)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out",
                        ["bandpass_low=100", "bandpass_high=3500"])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    audio.sosfilt_kernel.cache_clear()
    try:
        rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                       "--jobs", "2"])
    finally:
        monkeypatch.undo()
        audio.sosfilt_kernel.cache_clear()
    assert rc == 3
    assert str(tmp_path / "signal") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    # float samples of 1e200 are taken as they are: every clip decodes,
    # then every featurization overflows to a non-finite cube
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=2)
    for wav in (tmp_path / "wavs").glob("*.wav"):
        rate, x = wavfile.read(str(wav))
        wavfile.write(str(wav), rate, x * 1e200)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "exp.cfg", out)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                       "--jobs", jobs])
    assert rc == 2
    assert "featurize: no usable audio among 4 files" in \
        capsys.readouterr().err
    error = "error: cube contains non-finite values"
    assert (out / "features.report.txt").read_text().splitlines() == [
        f"{name}.wav\t{error}" for name in ("lo_0", "lo_1", "hi_0", "hi_1")
    ] + ["processed 0/4"]
    assert not (out / "features.cube").exists()


def _no_children_left():
    # every worker was reaped: none is listed and none waits to be
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_featurize_clip_too_short_for_the_windows_writes_nothing(tmp_path,
                                                                  capsys):
    # clips of 80 samples cannot fill 5 windows of 256 at hop 128 (768
    # samples); at --jobs 2 that is found between the workers' two passes
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=2, seconds=0.01)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"out_dir={out}\n", encoding="utf-8")
    for jobs in ("1", "2"):
        rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                       "--jobs", jobs])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data error: 80 samples per clip" in err and "768" in err
        assert not out.exists()
        assert cli._clips == {}
        _no_children_left()


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
    # featurize forks min(--jobs, files, CPUs) workers once for both of its
    # passes, and with one worker forks none and runs every job here
    forked, here = [], []
    map_jobs, featurize_signal = cli._map_jobs, cli.featurize_signal

    def recording_map_jobs(fn, jobs, n_workers, workers):
        had = len(workers)
        result = map_jobs(fn, jobs, n_workers, workers)
        if len(workers) > had:
            forked.append(len(workers) - had)
        return result

    def recording_featurize_signal(*args, **kwargs):
        here.append(os.getpid())   # a forked worker appends to its own copy
        return featurize_signal(*args, **kwargs)

    monkeypatch.setattr(cli, "_map_jobs", recording_map_jobs)
    monkeypatch.setattr(cli, "featurize_signal", recording_featurize_signal)
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
    assert forked == pools
    assert here == ([] if pools else [os.getpid()] * 3)
    _no_children_left()


def test_featurize_long_manifest_of_missing_files(tmp_path, monkeypatch,
                                                  capsys):
    # 20,000 rows cross each worker's pipe in one request and one reply per
    # pass, not one message per row
    messages = collections.Counter()
    send, recv = Connection.send, Connection.recv

    def counting_send(self, obj):
        messages[id(self)] += 1
        return send(self, obj)

    def counting_recv(self):
        messages[id(self)] += 1
        return recv(self)

    monkeypatch.setattr(Connection, "send", counting_send)
    monkeypatch.setattr(Connection, "recv", counting_recv)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(f"ghost_{i}.wav,{'ab'[i % 2]}\n"
                                for i in range(20_000)), encoding="utf-8")
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                   "--jobs", "2"])
    assert rc == 2
    assert "no usable audio among 20000 files" in capsys.readouterr().err
    # every clip fails to decode, so only the first pass runs
    assert sorted(messages.values()) == [2, 2]
    report = (tmp_path / "out" / "features.report.txt").read_text()
    assert report.splitlines()[-1] == "processed 0/20000"
    _no_children_left()


def _mixed_corpus(root):
    """Six clips of three lengths.  The shortest are on odd rows only, so
    at --jobs 2 worker 0 cuts its clips to a length it never saw."""
    root.mkdir(parents=True)
    lines = []
    for i, seconds in enumerate((0.3, 0.25, 0.35, 0.3, 0.35, 0.25)):
        name = f"c{i}.wav"
        _tone_wav(root / name, 400 + 900 * (i % 2) + 7 * i, seconds=seconds)
        lines.append(f"{name},{'lo' if i % 2 == 0 else 'hi'}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


@pytest.mark.parametrize("clip", [None, "0.4"])
def test_featurize_mixed_lengths_same_bytes_at_any_jobs(tmp_path, clip):
    # without clip_seconds every clip is cut to the shortest; with 0.4 s
    # every clip is zero-padded: each worker must featurize the clips it
    # conditioned itself
    manifest = _mixed_corpus(tmp_path / "wavs")
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        cfg = tmp_path / f"{jobs}.cfg"
        cfg.write_text(f"out_dir={out}\n" + ("" if clip is None else
                                             f"clip_seconds={clip}\n"),
                       encoding="utf-8")
        assert cli.main(["featurize", str(manifest), "--config", str(cfg),
                         "--jobs", jobs]) == 0
        outputs.append([(out / name).read_bytes() for name in
                        ("features.cube", "features.report.txt")])
    assert outputs[0] == outputs[1]
    report = outputs[0][1].decode()
    if clip is None:
        assert load_cube_file(str(tmp_path / "jobs1" / "features.cube")) \
            .values.shape[0] == 6
        assert "c2.wav\tok\n" in report and "zero-padded" not in report
    else:
        assert "c1.wav\tok (zero-padded 2000 -> 3200 samples)" in report
        assert report.count("zero-padded") == 6
    _no_children_left()


def test_featurize_worker_fault_is_internal_error(tmp_path, monkeypatch,
                                                  capsys):
    # an unexpected error in a worker's job ends the command with exit 3
    # and the worker's own traceback
    def broken(*args, **kwargs):
        raise RuntimeError("feature kernel fault")

    monkeypatch.setattr(cli, "featurize_signal", broken)
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=2)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                   "--jobs", "2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "RuntimeError: feature kernel fault" in err
    assert "in _feat_one" in err and "in broken" in err
    assert not (tmp_path / "out" / "features.cube").exists()
    _no_children_left()


class _LockedError(RuntimeError):
    """An exception that pickle cannot carry: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def test_featurize_unpicklable_worker_fault_keeps_its_traceback(
        tmp_path, monkeypatch, capsys):
    # the worker's traceback crosses the pipe as text, so a fault whose
    # exception cannot be pickled still shows where it came from
    def broken(*args, **kwargs):
        raise _LockedError("fault holding a lock")

    monkeypatch.setattr(cli, "featurize_signal", broken)
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=2)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                   "--jobs", "2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "_LockedError: fault holding a lock" in err
    assert "in _feat_one" in err and "in broken" in err
    assert "cannot pickle" not in err
    assert not (tmp_path / "out" / "features.cube").exists()
    _no_children_left()


def test_featurize_unpicklable_worker_result_is_internal_error(
        tmp_path, monkeypatch, capfd):
    # a reply that cannot be pickled is no lost parent: the worker ends with
    # its own traceback, and the command with exit 3
    def locked(*args, **kwargs):
        return SimpleNamespace(names=("a",), values=threading.Lock())

    monkeypatch.setattr(cli, "featurize_signal", locked)
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=2)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                   "--jobs", "2"])
    assert rc == 3
    # the worker writes its traceback to the file descriptor it shares
    err = capfd.readouterr().err
    assert "Traceback" in err and "cannot pickle" in err
    assert "ended with exit code 1" in err
    assert not (tmp_path / "out" / "features.cube").exists()
    _no_children_left()


def test_featurize_killed_worker_is_internal_error(tmp_path, monkeypatch,
                                                   capsys):
    # a worker that dies inside a job ends the command with exit 3, not a
    # wait for a reply that never comes
    me = os.getpid()

    def killed(*args, **kwargs):
        if os.getpid() != me:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli, "featurize_signal", killed)
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=2)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg),
                   "--jobs", "2"])
    assert rc == 3
    assert "exit code -9" in capsys.readouterr().err
    _no_children_left()


def _running(pid):
    # a process that has not ended; a zombie has ended
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="needs /proc to see processes")
def test_featurize_workers_end_with_a_killed_parent(tmp_path):
    # a featurize killed by a signal cannot stop its workers: each must find
    # its pipe closed and end, whether it is busy or waiting for a batch
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    for i in range(3):
        _tone_wav(wavs / f"t{i}.wav", 400 + 700 * (i % 2))
    manifest = wavs / "manifest.csv"
    manifest.write_text("t0.wav,a\nt1.wav,b\nt2.wav,a\n", encoding="utf-8")
    pids = tmp_path / "pids"
    script = f"""
import os, time
from symaudio import cli
featurize_signal = cli.featurize_signal
def slow(*args, **kwargs):
    with open({str(pids)!r}, "a") as fh:
        fh.write(f"{{os.getpid()}}\\n")
    time.sleep(0.5)
    return featurize_signal(*args, **kwargs)
cli.featurize_signal = slow
cli.main(["featurize", {str(manifest)!r}, "--out", {str(tmp_path / "out")!r},
          "--jobs", "2"])
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    err = tmp_path / "stderr"
    with open(err, "wb") as fh:
        proc = subprocess.Popen([sys.executable, "-c", script], stderr=fh,
                                env=dict(os.environ, PYTHONPATH=src))
    workers = set()
    try:
        while len(workers) < 2:
            assert proc.poll() is None
            time.sleep(0.05)
            if pids.exists():
                workers = {int(p) for p in pids.read_text().split()}
        # worker 1 has one row and waits for the next batch; worker 0 is
        # busy with its second
        time.sleep(0.7)
        proc.kill()
        proc.wait()
        for _ in range(100):
            if not any(_running(pid) for pid in workers):
                break
            time.sleep(0.1)
        assert [pid for pid in workers if _running(pid)] == []
        # a worker that finds its parent gone ends quietly
        assert "Traceback" not in err.read_text(encoding="utf-8")
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


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


def test_trim_frame_longer_than_every_clip_keeps_them_whole(tmp_path):
    # 1e308 ms of samples overflows a float: the frame is the whole clip
    manifest = _make_corpus(tmp_path / "wav", n_per_class=2)
    cubes = []
    for sub, lines in (("a", ["trim=true", "trim_frame_ms=1e308"]),
                       ("b", [])):
        out = tmp_path / sub
        cfg = _write_config(tmp_path / f"{sub}.cfg", out, lines)
        rc = cli.main(["featurize", "--config", str(cfg), str(manifest),
                       "--jobs", "1"])
        assert rc == 0
        cubes.append((out / "features.cube").read_bytes())
    assert cubes[0] == cubes[1]


# --- the resampler's rows, built before the fork -----------------------------

def _rates_corpus(root, first, rates):
    """A manifest of the WAV `first` (a name, or None for none), then 0.3 s
    tones at each of rates in turn, of two classes."""
    root.mkdir(parents=True, exist_ok=True)
    lines = [] if first is None else [f"{first},lo"]
    for i, rate in enumerate(rates):
        name = f"r{i}_{rate}.wav"
        _tone_wav(root / name, 400 + 900 * (i % 2) + 7 * i, rate=rate)
        lines.append(f"{name},{'hi' if i % 2 else 'lo'}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _featurized(manifest, cfg, jobs, rc=0):
    out = cfg.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    assert cli.main(["featurize", str(manifest), "--config", str(cfg),
                     "--jobs", jobs]) == rc
    return [(out / name).read_bytes() if (out / name).exists() else None
            for name in ("features.cube", "features.report.txt")]


def test_featurize_interleaved_rates_same_bytes_at_any_jobs(tmp_path,
                                                           monkeypatch):
    # at --jobs 2 each worker meets three rate pairs in turn, so it replaces
    # its one pair's rows and plan again and again; a second featurize in
    # this process starts from the rows the first one left
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    manifest = _rates_corpus(tmp_path / "wavs", None, (
        44100, 48000, 16000, 8000, 48000, 44100,
        8000, 16000, 16000, 8000, 44100, 48000))
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    outputs = [_featurized(manifest, cfg, jobs) for jobs in "122"]
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][1].decode().count("\tok\n") == 12
    _no_children_left()


def _rf64_claiming(path, frames):
    """The 16-bit mono WAV at path rewritten as RF64, whose ds64 chunk
    claims `frames` frames of data."""
    rate, x = wavfile.read(str(path))
    ds64 = struct.pack("<QQQI", 0xFFFFFFFF, 2 * frames, frames, 0)
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    path.write_bytes(
        b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE"
        + b"ds64" + struct.pack("<I", len(ds64)) + ds64
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", 0xFFFFFFFF) + x.astype("<i2").tobytes())


def _first_row(root, case):
    root.mkdir(parents=True)
    path = root / "first.wav"
    if case == "not a WAV":
        path.write_bytes(b"path,label\n")
    elif case == "at the target rate":
        _tone_wav(path, 700)
    elif case == "2^40 frames claimed":
        _tone_wav(path, 700, rate=44100)
        _rf64_claiming(path, 2 ** 40)
    elif case == "a named pipe":
        os.mkfifo(path)
    elif case == "49,999,999 Hz":
        # 20,000 frames: 3 outputs of 400,001 taps each
        noise = np.random.default_rng(5).integers(-2000, 2000, 20_000)
        wavfile.write(str(path), 49_999_999, noise.astype(np.int16))
    return path.name


def _feed(pipe, blob):
    """Write blob into the named pipe at pipe once, when a reader opens it,
    as a process piping one clip in would."""
    def feed():
        with open(pipe, "wb") as fh:
            fh.write(blob)
    threading.Thread(target=feed, daemon=True).start()


@pytest.mark.parametrize("case", [
    "missing", "not a WAV", "at the target rate", "2^40 frames claimed",
    "49,999,999 Hz",
    pytest.param("a named pipe", marks=pytest.mark.skipif(
        not hasattr(os, "mkfifo"), reason="no named pipes"))])
def test_featurize_first_row_the_resampler_cannot_warm_for(tmp_path,
                                                           monkeypatch, case):
    # the rows built before the fork come from row 0's header alone; a row
    # 0 they cannot come from is reported by its own job, as at --jobs 1.
    # A named pipe is not opened for its header, since what was read from
    # it would be gone for the row's job (which would then wait forever)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    first = _first_row(tmp_path / "wavs", case)
    manifest = _rates_corpus(tmp_path / "wavs", first, (44100,) * 3)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    rc = 2 if case in ("missing", "not a WAV") else 0
    if case == "a named pipe":
        _tone_wav(tmp_path / "piped.wav", 700, rate=44100)
    runs = []
    for jobs in "12":
        if case == "a named pipe":
            _feed(tmp_path / "wavs" / first,
                  (tmp_path / "piped.wav").read_bytes())
        runs.append(_featurized(manifest, cfg, jobs, rc))
    serial = runs[0]
    assert runs[1] == serial
    first_line = serial[1].decode().splitlines()[0]
    assert first_line.startswith("first.wav\t" +
                                 ("error: " if rc else "ok"))
    _no_children_left()


def test_featurize_builds_the_resampler_rows_once_before_forking(
        tmp_path, monkeypatch):
    # a fresh 44.1 kHz featurize --jobs 2 builds every kernel row and the
    # Mel bank in this process, before it forks, and a second one in this
    # process builds none anywhere
    log = tmp_path / "built.log"

    def logged(fn, what):
        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{what} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(audio._kernel_rows, "store", None, raising=False)
    monkeypatch.setattr(audio, "_kernel", logged(audio._kernel, "rows"))
    monkeypatch.setattr(audio, "mel_filterbank",
                        logged(audio.mel_filterbank, "mel"))
    audio._mel_bank.cache_clear()
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    manifest = _make_corpus(tmp_path / "wavs", n_per_class=3, rate=44100)
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out")
    built = []
    for _ in range(2):
        _featurized(manifest, cfg, "2")
        built.append(log.read_text().splitlines() if log.exists() else [])
        log.unlink(missing_ok=True)
    here = str(os.getpid())
    assert sorted(set(built[0])) == [f"mel {here}", f"rows {here}"]
    assert built[1] == []
    _no_children_left()


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


def _missing_files_manifest(root):
    manifest = root / "manifest.csv"
    manifest.write_text("path,label\nnone_0.wav,a\nnone_1.wav,b\n",
                        encoding="utf-8")
    return manifest


@pytest.mark.parametrize("lines, error", [
    (["clip_seconds=0.01"], "80 samples per clip cannot fill 5 windows of "
     "256 at hop 128 (need at least 768)"),
    # edges within a hair of 0 Hz or Nyquist leave no filter
    (["bandpass_low=1e-5", "bandpass_high=4000"],
     "no band-pass filter from 1e-05 to 4000.0 Hz at resample_hz=8000: "
     "Singular matrix"),
    (["bandpass_low=1e-5", "bandpass_high=3000"],
     "no band-pass filter from 1e-05 to 3000.0 Hz at resample_hz=8000"),
    (["bandpass_low=100", "bandpass_high=3999.9999999999995"],
     "no band-pass filter from 100.0 to 3999.9999999999995 Hz")])
def test_config_found_before_any_file_is_opened(tmp_path, capsys, lines,
                                                error):
    # featurize would report the missing files and exit 2, had it read the
    # manifest
    manifest = _missing_files_manifest(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("\n".join([f"out_dir={out}", *lines]) + "\n",
                   encoding="utf-8")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg)])
    assert rc == 1
    assert f"config error: {error}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("high", ["3000", "4000"])
def test_band_edges_that_design_pass_the_config(tmp_path, high):
    # the benchmark's band and the Nyquist high-pass: the missing files are
    # then reported one by one
    manifest = _missing_files_manifest(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"out_dir={out}\nbandpass_low=100\n"
                   f"bandpass_high={high}\n", encoding="utf-8")
    rc = cli.main(["featurize", str(manifest), "--config", str(cfg)])
    assert rc == 2
    assert (out / "features.report.txt").read_text().endswith(
        "processed 0/2\n")


@pytest.mark.parametrize("n_mel, rc", [("3000", 1), ("1000", 2)])
def test_mel_centers_that_collide_are_a_config_error(tmp_path, capsys, n_mel,
                                                     rc):
    # 3000 Mel filters up to 4 kHz have centers less than 1 Hz apart, so
    # their names collide; 1000 do not, and the missing files are reported
    manifest = _missing_files_manifest(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"out_dir={out}\nn_mel={n_mel}\n", encoding="utf-8")
    assert cli.main(["featurize", str(manifest), "--config", str(cfg)]) == rc
    if rc == 1:
        assert "config error: n_mel=3000 at resample_hz=8000: Mel centers " \
            "collide after rounding to integer Hz" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert (out / "features.report.txt").read_text().endswith(
            "processed 0/2\n")


def test_model_commands_never_design_the_band_filter(workspace, tmp_path):
    # only featurize filters, so only featurize designs the filter, before
    # it reads its manifest
    cfg = _write_config(tmp_path / "band.cfg", tmp_path / "out",
                        ["bandpass_low=100", "bandpass_high=3000"])
    cube = str(workspace["out"] / "features.cube")
    audio._band_zi.cache_clear()
    for command in ("train", "evaluate", "rules"):
        assert cli.main([command, cube, "--config", str(cfg)]) == 0
    info = audio._band_zi.cache_info()
    assert info.hits == info.misses == 0
    rc = cli.main(["featurize", str(_missing_files_manifest(tmp_path)),
                   "--config", str(cfg)])
    assert rc == 2 and audio._band_zi.cache_info().misses == 1


@pytest.mark.parametrize("line", [
    "relations=L,Q", "relations=L,L,G", "min_gain=-1", "attr_frac=1.5"])
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


def _scipy_loaded_by(script):
    # the scipy modules a fresh interpreter holds after script
    script += """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_loaded_by("import symaudio.cli") == []


def _scipy_loaded_by_featurize(tmp_path, extra=()):
    # the scipy modules a fresh interpreter holds after featurizing two
    # clips with two workers
    wavs = tmp_path / "wavs"
    wavs.mkdir()
    _tone_wav(wavs / "a.wav", 440)
    _tone_wav(wavs / "b.wav", 1500)
    manifest = wavs / "manifest.csv"
    manifest.write_text("a.wav,lo\nb.wav,hi\n", encoding="utf-8")
    cfg = _write_config(tmp_path / "exp.cfg", tmp_path / "out", extra)
    return _scipy_loaded_by(f"""
from symaudio import cli
assert cli.main(["featurize", {str(manifest)!r}, "--config", {str(cfg)!r},
                 "--jobs", "2"]) == 0
""")


def test_featurize_without_bandpass_loads_no_scipy(tmp_path):
    # WAV files are read without scipy.io, the cepstral DCT is computed
    # without scipy.fft, and scipy.signal is loaded only for a band-pass
    assert _scipy_loaded_by_featurize(tmp_path) == []


def test_featurize_with_bandpass_loads_only_the_section_kernel(tmp_path):
    # the filter is designed in numpy and run by scipy's compiled section
    # kernel, loaded from its own file: no scipy.signal package, and none of
    # the subpackages its import would pull in.  A Cython 3 kernel enters
    # sys.modules under its own name, with scipy's top-level package.
    loaded = _scipy_loaded_by_featurize(
        tmp_path, ["bandpass_low=100", "bandpass_high=3500"])
    assert "scipy.signal" not in loaded
    subpackages = {m.split(".")[1] for m in loaded if "." in m}
    assert not subpackages & {"sparse", "linalg", "optimize", "special",
                              "fft", "io"}
    assert {m for m in loaded if m.startswith("scipy.signal")} <= \
        {"scipy.signal._sosfilt"}


def test_readme_demo_featurize_loads_no_scipy(tmp_path):
    # the README demo writes its clips and featurizes them in one process,
    # without a band-pass
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "make_demo_audio.py")
    loaded = _scipy_loaded_by(f"""
import importlib.util
spec = importlib.util.spec_from_file_location("make_demo_audio", {script!r})
demo = importlib.util.module_from_spec(spec)
spec.loader.exec_module(demo)
_, cfg = demo.generate({str(tmp_path / "data")!r}, n_per_class=2)
from symaudio import cli
assert cli.main(["featurize", "--config", cfg, "--out",
                 {str(tmp_path / "out")!r}, "--jobs", "2"]) == 0
""")
    assert loaded == []


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
