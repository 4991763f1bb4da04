"""symaudio benchmark: seeded CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload demo-modal --seed 3 --seconds 50 \\
        --trace 0

Run from the root of a symaudio checkout; the program is imported from its
`src/`.  Each run is one client in a closed loop, in one fresh process: it
times the set-up (interpreter start, `import symaudio`, input generation)
several times in child processes, then repeats the workload's command
sequence through `symaudio.cli.main`, each command starting when the
previous one returned, until `--seconds` are spent.  Every command's output
files are checked against the SHA-256 digests in digests.json.

With `--trace 0` the passes are untraced and the result holds the
end-to-end metrics.  With `--trace 1` untraced and traced passes alternate;
the traced passes give the per-layer metrics (spans.py), and the difference
between the two kinds is the tracing overhead.

The last line of standard output is the result as JSON; the lines before it
report every metric with its median, a high percentile and the sample count.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SAMPLES = 3
DIGESTS = os.path.join(HERE, "digests.json")
WORK_DIR = ".bench_work"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics the run itself measures, besides those from spans.
RUN_LAYER_UNITS = {**{f"cli.{c}_s": "s" for c in spans.COMMANDS},
                   "cli.error_rate": "ratio", "trace.overhead_s": "s"}
PER_LAYER = {**spans.UNITS, **RUN_LAYER_UNITS}


class ProgramMissing(Exception):
    pass


def import_cli(root):
    """symaudio.cli from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "symaudio", "cli.py")):
        raise ProgramMissing(f"no src/symaudio/cli.py under {root}")
    sys.path.insert(0, src)
    import symaudio.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"symaudio imported from {cli.__file__}")
    return cli, src


def time_setup(src, name, seed, work):
    """Set-up times of SETUP_SAMPLES fresh processes; the last one's inputs
    are the run's."""
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for k in range(SETUP_SAMPLES):
        out_dir = os.path.join(work, f"inputs-{k}")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, W.__file__, name, str(seed), out_dir],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times, W.input_paths(name, out_dir)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_command(cli, argv):
    """One CLI command in this process; (exit code, wall seconds, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, wall, err.getvalue()


def check_outputs(command, rc, out_dir, expected, stderr):
    """Failure message for one command, or None when its exit code is 0 and
    each output file matches its recorded digest."""
    if rc != 0:
        return f"{command} exited {rc}: {stderr.strip()[-400:]}"
    for fname in W.OUTPUTS[command]:
        path = os.path.join(out_dir, fname)
        if not os.path.exists(path):
            return f"{command} wrote no {fname}"
        if expected is None or fname not in expected:
            return f"{command}: no recorded digest for {fname}"
        if sha256(path) != expected[fname]:
            return f"{command}: {fname} differs from its recorded digest"
    return None


def run_pass(cli, wl, inputs, out_dir, expected, rec=None):
    """One command sequence; returns per-command walls and failures."""
    walls, failures = {}, []
    results = []
    t_first = time.perf_counter()
    for command, argv in wl.argv(inputs, out_dir):
        span = rec.start(f"cli.{command}") if rec else None
        rc, wall, err = run_command(cli, argv)
        if rec:
            rec.stop(span)
            rec.finish(span)
        walls[command] = wall
        results.append((command, rc, err))
    walls["pass"] = time.perf_counter() - t_first
    for command, rc, err in results:
        msg = check_outputs(command, rc, out_dir, expected, err)
        if msg:
            failures.append(msg)
    return walls, len(results), failures


def load_expected(wl, seed):
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(wl.name, {}).get(str(wl.corpus(seed)))


def percentile_label(values):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or the maximum when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        return f"p{p}", xs[max(0, math.ceil(p / 100 * n) - 1)]
    return "max", xs[-1]


def stamp(src):
    import numpy
    import scipy
    loc = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    loc += sum(1 for _ in fh)
    return (f"machine: nproc={os.cpu_count()}"
            f" python={platform.python_version()}"
            f" numpy={numpy.__version__} scipy={scipy.__version__}"
            f" src_loc={loc}")


def report(title, samples, units):
    print(f"{title:<34} {'median':>12} {'high':>16} {'n':>4}  unit")
    for name, unit in units.items():
        xs = samples.get(name) or [0.0]
        label, hi = percentile_label(xs)
        print(f"{name:<34} {statistics.median(xs):>12.6g} "
              f"{label + ' ' + format(hi, '.6g'):>16} {len(xs):>4}  {unit}")


def measure(seconds, step, min_passes):
    """Call step(k) until the next pass would end after `seconds`."""
    t0 = time.perf_counter()
    took = []
    while True:
        start = time.perf_counter()
        step(len(took))
        took.append(time.perf_counter() - start)
        if len(took) >= min_passes and \
                time.perf_counter() + statistics.median(took) > t0 + seconds:
            return


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = os.getcwd()
    try:
        cli, src = import_cli(root)
    except (ProgramMissing, ImportError) as e:
        print(f"bench: cannot load symaudio: {e}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    work = os.path.join(root, WORK_DIR, f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return bench(cli, src, wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(cli, src, wl, args, work):
    setup, first_inputs = time_setup(src, wl.name, args.seed, work)
    inputs = {args.seed: first_inputs}
    spill = os.path.join(work, "spill")
    os.makedirs(spill)
    rec = spans.Recorder(spill)
    tally = {"attempted": 0, "failed": 0}
    untraced, traced = [], []

    def step(k):
        # Pass k runs on the inputs of seed + k (a traced pass on those of
        # the untraced pass before it), so a run's medians span corpora.
        use_trace = args.trace == 1 and k % 2 == 1
        seed = args.seed + (k // 2 if args.trace else k)
        if seed not in inputs:
            inputs[seed] = W.generate(wl.name, seed,
                                      os.path.join(work, f"inputs-s{seed}"))
        out_dir = os.path.join(work, f"pass-{k}")
        gc.collect()   # every pass starts without the last one's garbage
        restore = None
        if use_trace:
            rec.run_id = f"{wl.name}-{args.seed}-{k}"
            restore = spans.install(rec)
        try:
            walls, n, failures = run_pass(cli, wl, inputs[seed], out_dir,
                                          load_expected(wl, seed),
                                          rec if use_trace else None)
        finally:
            if restore:
                restore()
        tally["attempted"] += n
        tally["failed"] += len(failures)
        for msg in failures:
            print(f"bench: pass {k}: {msg}", file=sys.stderr)
        if use_trace:
            trace = rec.collect()
            traced.append((walls, spans.layer_metrics(trace), trace))
        else:
            untraced.append(walls)
        shutil.rmtree(out_dir)

    measure(args.seconds, step, 2 if args.trace else 1)
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    peak_rss_mb = max(usage) / 1024.0   # ru_maxrss is in KiB on Linux

    if "featurize" in dict(wl.commands):
        # Serial and parallel featurize must write the same cube bytes.
        out_dir = os.path.join(work, "jobs-1")
        command, argv = wl.argv(first_inputs, out_dir, jobs=1)[0]
        rc, _, err = run_command(cli, argv)
        msg = check_outputs(command, rc, out_dir,
                            load_expected(wl, args.seed), err)
        tally["attempted"] += 1
        if msg:
            tally["failed"] += 1
            print(f"bench: --jobs 1: {msg}", file=sys.stderr)

    e2e = {"setup_s": setup,
           "wall_s": [w["pass"] for w in untraced],
           "peak_rss_mb": [peak_rss_mb]}
    print(f"workload {wl.name} seed {args.seed} corpus {wl.corpus(args.seed)}"
          f" trace {args.trace}; {stamp(src)}")
    report("end-to-end (untraced passes)", e2e, END_TO_END)
    for command, _ in wl.commands:
        xs = [w[command] for w in untraced]
        print(f"  {command + '_s':<32} {statistics.median(xs):>12.6g}"
              f" {'max ' + format(max(xs), '.6g'):>16} {len(xs):>4}  s")
    error_rate = tally["failed"] / tally["attempted"]
    print(f"commands attempted {tally['attempted']} failed {tally['failed']}"
          f" error_rate {error_rate:.6g}")

    if args.trace:
        layer = {name: [t[1][name] for t in traced] for name in spans.UNITS}
        for command in spans.COMMANDS:
            layer[f"cli.{command}_s"] = [w.get(command, 0.0)
                                         for w in untraced]
        layer["cli.error_rate"] = [error_rate]
        layer["trace.overhead_s"] = [
            statistics.median(t[0]["pass"] for t in traced)
            - statistics.median(e2e["wall_s"])]
        report("per-layer (traced passes)", layer, PER_LAYER)
        print_accounting(traced[-1][2])
        trace_path = os.path.join(os.path.dirname(work),
                                  f"trace-{wl.name}-{args.seed}.jsonl")
        write_trace(traced, trace_path)
        print(f"spans of the traced passes: {trace_path}")
        metrics = {n: {"value": statistics.median(layer[n]), "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": statistics.median(e2e[n]), "unit": u}
                   for n, u in END_TO_END.items()}
    print(json.dumps({"correct": tally["failed"] == 0,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


def print_accounting(trace):
    """Each command of a traced pass: its wall time against the summed self
    times of its spans, less the time pool workers overlap each other; then
    the pass's self time per layer."""
    for name, wall, total_self, overlap in spans.accounting(trace):
        print(f"accounting {name}: wall {wall:.6f} s = self times "
              f"{total_self:.6f} s - worker overlap {overlap:.6f} s "
              f"(residual {wall - total_self + overlap:.1e} s)")
    layers = {}
    for s in trace:
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s["self"]
    print("self time by layer: " + ", ".join(
        f"{k} {v:.6g} s" for k, v in sorted(layers.items(),
                                            key=lambda kv: -kv[1])))


def write_trace(traced, path):
    with open(path, "w", encoding="utf-8") as fh:
        for _, _, trace in traced:
            fh.writelines(json.dumps(s) + "\n" for s in trace)


if __name__ == "__main__":
    sys.exit(main())
