"""Stdlib-only span recorder for the traced benchmark pass.

`install` wraps symaudio's layer functions at the names their callers look
up (for example `symaudio.cli.build_logiset`, `symaudio.evaluation.learn_tree`
and `symaudio.trees.best_split`), so no file of the program changes.  Each
span records its name, start, end, parent span and run id, plus counts taken
at the same boundary.  Spans stay in memory and are collected when a pass
ends, except in pool worker processes: those leave through `os._exit`, which
skips every exit hook, so a worker writes each span to disk as it ends.

`layer_metrics` turns one pass's spans into the per-layer metrics named in
BENCHMARK.json.  A span's self time is its duration minus the part of it
that its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import sys
import time
from collections import defaultdict


class Recorder:
    """Open-span stack and finished spans of one process tree."""

    def __init__(self, spill_dir):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.run_id = None
        self.spans = []
        self.stack = []
        self.calls = defaultdict(int)   # counted calls, by counter name
        self._ids = itertools.count()
        self._spill = None

    def start(self, name):
        pid = os.getpid()
        span = {"name": name, "id": f"{pid}.{next(self._ids)}",
                "parent": self.stack[-1] if self.stack else None,
                "run": self.run_id, "pid": pid, "counts": {},
                "calls_at_start": dict(self.calls),
                "start": time.perf_counter()}
        self.stack.append(span["id"])
        return span

    def stop(self, span):
        span["end"] = time.perf_counter()
        self.stack.pop()

    def finish(self, span, counts=None):
        """File a stopped span, with its counts and counted-call deltas."""
        before = span.pop("calls_at_start")
        for key, n in self.calls.items():
            if n - before.get(key, 0):
                span["counts"][key] = n - before.get(key, 0)
        if counts:
            span["counts"].update(counts)
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            self._spill_span(span)

    def _spill_span(self, span):
        pid = os.getpid()
        if self._spill is None or self._spill[0] != pid:
            path = os.path.join(self.spill_dir, f"worker-{pid}.jsonl")
            self._spill = (pid, open(path, "a", encoding="utf-8"))
        fh = self._spill[1]
        fh.write(json.dumps(span) + "\n")
        fh.flush()

    def collect(self):
        """All spans filed since the last call, workers' included."""
        spans, self.spans = self.spans, []
        for name in sorted(os.listdir(self.spill_dir)):
            if name.startswith("worker-") and name.endswith(".jsonl"):
                path = os.path.join(self.spill_dir, name)
                with open(path, encoding="utf-8") as fh:
                    spans.extend(json.loads(line) for line in fh if line)
                os.remove(path)
        return spans


# --- what gets wrapped ------------------------------------------------------

def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _table_bytes(args, kwargs, result):
    table = getattr(result, "table", None)
    return {"table_bytes": int(getattr(table, "nbytes", 0))}


def _split_found(args, kwargs, result):
    return {"found": int(result is not None)}


def _rules_kept(args, kwargs, result):
    return {"rules_in": len(args[0]), "rules_kept": len(result)}


def _samples_out(args, kwargs, result):
    return {"samples_out": len(result.samples)}


def _pool_jobs(args, kwargs, result):
    return {"jobs": max(1, int(args[2]))}


# (module, attribute, span name, counts(args, kwargs, result) or None).  The
# attribute is the name the caller looks the function up under.
TARGETS = (
    ("symaudio.cli", "load_config", "config.load", None),
    ("symaudio.cli", "load_cube_file", "cubefile.load", _file_bytes),
    ("symaudio.cli", "write_cube_file", "cubefile.write", _file_bytes),
    ("symaudio.cli", "build_logiset", "logiset.build", _table_bytes),
    ("symaudio.cli", "learn_tree", "trees.learn_tree", None),
    ("symaudio.cli", "learn_forest", "trees.learn_forest", None),
    ("symaudio.evaluation", "learn_tree", "trees.learn_tree", None),
    ("symaudio.evaluation", "learn_forest", "trees.learn_forest", None),
    ("symaudio.trees", "learn_tree", "trees.learn_tree", None),
    ("symaudio.trees", "best_split", "trees.best_split", _split_found),
    ("symaudio.evaluation", "predict_tree", "trees.predict", None),
    ("symaudio.evaluation", "predict_forest", "trees.predict", None),
    ("symaudio.cli", "save_model", "trees.save_model", None),
    ("symaudio.cli", "evaluate", "evaluation.evaluate", None),
    ("symaudio.cli", "balanced_holdout", "evaluation.balanced_holdout", None),
    ("symaudio.evaluation", "balanced_holdout", "evaluation.balanced_holdout",
     None),
    ("symaudio.cli", "extract_rules", "evaluation.extract_rules", None),
    ("symaudio.cli", "rule_metrics", "evaluation.rule_metrics", _rules_kept),
    # top-level checks only: check's own recursion stays unwrapped
    ("symaudio.evaluation", "check", "intervals.check", None),
    ("symaudio.cli", "decode_wav", "audio.decode_wav", None),
    ("symaudio.cli", "trim_nonspeech", "audio.trim", None),
    ("symaudio.cli", "resample", "audio.resample", _samples_out),
    ("symaudio.cli", "bandpass", "audio.bandpass", None),
    ("symaudio.cli", "featurize_signal", "audio.featurize_signal", None),
    ("symaudio.cli", "_map_jobs", "cli.map_jobs", _pool_jobs),
    ("symaudio.cli", "_prep_one", "cli.job", None),
    ("symaudio.cli", "_feat_one", "cli.job", None),
)

# Called too often for a span each; only the calls are counted.
COUNTED = (
    ("symaudio.logiset", "compute_feature", "compute_feature_calls"),
)

COMMANDS = ("featurize", "evaluate", "train", "rules")


def _traced(rec, name, counts, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.start(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.stop(span)
        rec.finish(span, counts(args, kwargs, result) if counts else None)
        return result
    return traced


def _counted(rec, key, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.calls[key] += 1
        return fn(*args, **kwargs)
    return counted


def install(rec):
    """Wrap every target for `rec`; returns a function restoring them all.

    functools.wraps keeps each wrapper's module and qualified name, so the
    pool can still pickle the wrapped job functions by reference.  The pool
    workers inherit the wrappers because they are forked.
    """
    saved = []
    wrappers = [(m, a, functools.partial(_traced, rec, n, c))
                for m, a, n, c in TARGETS]
    wrappers += [(m, a, functools.partial(_counted, rec, k))
                 for m, a, k in COUNTED]
    for module_name, attr, wrap in wrappers:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: {module_name}.{attr} not found, not traced",
                  file=sys.stderr)
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, wrap(fn))

    def restore():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
    return restore


# --- per-layer metrics ------------------------------------------------------

# Metric name -> unit, in report order.  Span "x.y" feeds the self-time
# metric "x.y_s"; command spans "cli.<command>" and the pool spans feed
# "cli.<command>.self_s" and "cli.self_s".
UNITS = {
    "logiset.build_s": "s",
    "logiset.builds": "count",
    "logiset.compute_feature_calls": "count",
    "logiset.table_bytes": "bytes",
    "trees.best_split_s": "s",
    "trees.best_split_calls": "count",
    "trees.best_split_node_ms_p50": "ms",
    "trees.best_split_node_ms_p90": "ms",
    "trees.split_found_ratio": "ratio",
    "trees.learn_tree_s": "s",
    "trees.learn_forest_s": "s",
    "trees.predict_s": "s",
    "trees.predictions": "count",
    "trees.save_model_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.balanced_holdout_s": "s",
    "evaluation.extract_rules_s": "s",
    "evaluation.rule_metrics_s": "s",
    "evaluation.rules_kept_ratio": "ratio",
    "intervals.check_calls": "count",
    "intervals.check_s": "s",
    "audio.decode_wav_s": "s",
    "audio.trim_s": "s",
    "audio.resample_s": "s",
    "audio.bandpass_s": "s",
    "audio.featurize_signal_s": "s",
    "audio.clips": "count",
    "audio.resample_samples_out": "count",
    "audio.worker_busy_ratio": "ratio",
    "cubefile.write_s": "s",
    "cubefile.load_s": "s",
    "cubefile.bytes": "bytes",
    "config.load_s": "s",
    "cli.self_s": "s",
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
}

# Span names whose self time is the cli layer's.
_CLI_SPANS = {f"cli.{c}" for c in COMMANDS} | {"cli.map_jobs", "cli.job"}


def span_metric(name):
    """The self-time metric a span name feeds."""
    return "cli.self_s" if name in _CLI_SPANS else f"{name}_s"


def _union_length(intervals, lo, hi):
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Set span["self"]: duration minus the union its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    for s in spans:
        covered = _union_length(children[s["id"]], s["start"], s["end"])
        s["self"] = s["end"] - s["start"] - covered


def _nearest_rank(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _root(span, by_id):
    while span["parent"] in by_id:
        span = by_id[span["parent"]]
    return span


def accounting(spans):
    """Per command span: (name, wall, summed self times, worker overlap).

    Summed self times count each second that pool workers run side by side
    once per worker; less that overlap they equal the command's wall time.
    """
    self_times(spans)
    by_id = {s["id"]: s for s in spans}
    rows = {s["id"]: [s["name"], s["end"] - s["start"], 0.0, 0.0]
            for s in spans if s["parent"] is None}
    jobs = defaultdict(list)
    for s in spans:
        rows[_root(s, by_id)["id"]][2] += s["self"]
        if s["name"] == "cli.job" and s["parent"] in by_id:
            jobs[s["parent"]].append((s["start"], s["end"]))
    for pool_id, ivs in jobs.items():
        pool = by_id[pool_id]
        rows[_root(pool, by_id)["id"]][3] += sum(b - a for a, b in ivs) \
            - _union_length(ivs, pool["start"], pool["end"])
    return [tuple(r) for r in rows.values()]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, every name in UNITS present."""
    self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out = dict.fromkeys(UNITS, 0.0)
    counts = defaultdict(float)
    n_spans = defaultdict(int)
    node_ms = []
    for s in spans:
        name = s["name"]
        n_spans[name] += 1
        for key, n in s["counts"].items():
            counts[(name, key)] += n
        metric = span_metric(name)
        if metric in out:
            out[metric] += s["self"]
        if name in _CLI_SPANS:
            cmd_metric = f"{_root(s, by_id)['name']}.self_s"
            if cmd_metric in out:
                out[cmd_metric] += s["self"]
        if name == "trees.best_split":
            node_ms.append(1000.0 * (s["end"] - s["start"]))

    node_ms.sort()
    calls = len(node_ms)
    pool_wall = sum(s["counts"]["jobs"] * (s["end"] - s["start"])
                    for s in spans if s["name"] == "cli.map_jobs")
    busy = sum(s["end"] - s["start"] for s in spans
               if s["name"] == "cli.job")
    rules_in = counts[("evaluation.rule_metrics", "rules_in")]
    out.update({
        "logiset.builds": n_spans["logiset.build"],
        # counted calls show on every span open around them; take the roots
        "logiset.compute_feature_calls": sum(
            s["counts"].get("compute_feature_calls", 0)
            for s in spans if s["parent"] is None),
        "logiset.table_bytes": counts[("logiset.build", "table_bytes")],
        "trees.best_split_calls": calls,
        "trees.best_split_node_ms_p50": _nearest_rank(node_ms, 0.5),
        "trees.best_split_node_ms_p90": _nearest_rank(node_ms, 0.9),
        "trees.split_found_ratio": (
            counts[("trees.best_split", "found")] / calls if calls else 0.0),
        "trees.predictions": n_spans["trees.predict"],
        "evaluation.rules_kept_ratio": (
            counts[("evaluation.rule_metrics", "rules_kept")] / rules_in
            if rules_in else 0.0),
        "intervals.check_calls": n_spans["intervals.check"],
        "audio.clips": n_spans["audio.decode_wav"],
        "audio.resample_samples_out": counts[("audio.resample",
                                              "samples_out")],
        "audio.worker_busy_ratio": busy / pool_wall if pool_wall else 0.0,
        "cubefile.bytes": (counts[("cubefile.load", "bytes")]
                           + counts[("cubefile.write", "bytes")]),
    })
    return out
