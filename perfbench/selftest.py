"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a symaudio checkout.  It checks that
- a tiny-corpus pass of each workload runs every command without error, and
  writes byte-identical outputs with and without the tracing wrappers, and
  with `featurize --jobs 1` and `--jobs 2`;
- the traced spans name exactly the per-layer metrics BENCHMARK.json lists,
  pool workers' spans are not lost, and self times account for each
  command's wall time;
- a real run of each workload reports error_rate 0 against the recorded
  digests, with exactly the metric names BENCHMARK.json lists;
- without the program's sources the benchmark fails without a result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import spans
import workloads as W

ROOT = os.getcwd()
BENCHMARK = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")

# Tiny corpora: big enough for a balanced holdout (five per class).
TINY = {"DEMO_PER_CLASS": 5, "WILD_PER_CLASS": 5, "NOISE_SHAPE": (15, 3, 4)}


def _declared():
    with open(BENCHMARK, encoding="utf-8") as fh:
        doc = json.load(fh)
    return ([m["name"] for m in doc["end_to_end"]],
            [m["name"] for m in doc["per_layer"]])


def _digests(out_dir, commands):
    return {f: run.sha256(os.path.join(out_dir, f))
            for c in commands for f in W.OUTPUTS[c]}


def _tiny_passes(cli, work):
    """Untraced and traced tiny passes of each workload; yields
    (workload, untraced digests, traced digests, spans, inputs)."""
    saved = {k: getattr(W, k) for k in TINY}
    for k, v in TINY.items():
        setattr(W, k, v)
    try:
        for name, wl in sorted(W.WORKLOADS.items()):
            inputs = W.generate(name, 0, os.path.join(work, name, "inputs"))
            got = []
            for traced in (False, True):
                rec = spans.Recorder(os.path.join(work, name))
                restore = spans.install(rec) if traced else None
                out_dir = os.path.join(work, name, f"traced-{traced}")
                try:
                    for command, argv in wl.argv(inputs, out_dir):
                        span = rec.start(f"cli.{command}")
                        rc, _, err = run.run_command(cli, argv)
                        rec.stop(span)
                        rec.finish(span)
                        assert rc == 0, f"{name} {command} exited {rc}: {err}"
                finally:
                    if restore:
                        restore()
                got.append(_digests(out_dir, dict(wl.commands)))
            yield wl, got[0], got[1], rec.collect(), inputs
    finally:
        for k, v in saved.items():
            setattr(W, k, v)


def test_tiny_passes(cli, work):
    _, per_layer = _declared()
    for wl, plain, traced, trace, inputs in _tiny_passes(cli, work):
        assert plain == traced, f"{wl.name}: tracing changed output bytes"
        names = {s["name"] for s in trace}
        for name in names:
            assert spans.span_metric(name) in per_layer, \
                f"span {name} feeds no declared per-layer metric"
        metrics = spans.layer_metrics(trace)
        assert set(metrics) | set(run.RUN_LAYER_UNITS) == set(per_layer)
        for command, wall, total_self, overlap in spans.accounting(trace):
            residual = wall - total_self + overlap
            assert abs(residual) < 1e-6, \
                f"{wl.name} {command}: {residual} s unaccounted"
        if "featurize" in dict(wl.commands):
            workers = {s["pid"] for s in trace
                       if s["name"] == "audio.resample"}
            assert workers and os.getpid() not in workers, \
                f"{wl.name}: resample spans of pool workers are missing"
            assert 0 < metrics["audio.worker_busy_ratio"] <= 1.0
            out_dir = os.path.join(work, wl.name, "jobs-1")
            _, argv = wl.argv(inputs, out_dir, jobs=1)[0]
            assert run.run_command(cli, argv)[0] == 0
            assert _digests(out_dir, ["featurize"]) == \
                {f: plain[f] for f in W.OUTPUTS["featurize"]}, \
                f"{wl.name}: --jobs 1 and --jobs 2 cubes differ"
        print(f"  {wl.name}: {len(trace)} spans, outputs identical")


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_real_runs(cli, work):
    end_to_end, per_layer = _declared()
    for name in sorted(W.WORKLOADS):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            proc = _bench(ROOT, name, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert sorted(result["metrics"]) == sorted(declared)
            print(f"  {name} --trace {trace}: error_rate 0 over "
                  f"{result['attempted']} commands")


def test_fails_without_program(cli, work):
    bare = os.path.join(work, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, bare)
    proc = _bench(bare, "noise-forest", 0)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main():
    cli, _ = run.import_cli(ROOT)
    os.makedirs(os.path.join(ROOT, run.WORK_DIR), exist_ok=True)
    failed = 0
    for test in (test_tiny_passes, test_fails_without_program,
                 test_real_runs):
        work = tempfile.mkdtemp(prefix="selftest-",
                                dir=os.path.join(ROOT, run.WORK_DIR))
        try:
            test(cli, work)
            print(f"PASS {test.__name__}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {test.__name__}: {e}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
