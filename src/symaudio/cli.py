"""Command line front end: featurize, train, evaluate, rules.

Exit codes: 0 success, 1 usage or configuration problem, 2 bad input data,
3 internal fault.  All outputs are written atomically, and every command is
deterministic for a fixed config and seed, at any --jobs level.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import multiprocessing
import os
import sys
import traceback
from dataclasses import replace

import numpy as np

from .audio import (AudioSignal, FeatureCube, bandpass, decode_wav,
                    featurize_signal, require_windows, resample,
                    sosfilt_kernel, trim_nonspeech, warm_resampler,
                    wav_header)
from .config import (ConfigError, ExperimentConfig, learn_params_from,
                     load_config, normalize_mode, validate_config,
                     validate_front_end)
from .cubefile import atomic_write, load_cube_file, write_cube_file
from .evaluation import (METRICS_COLUMNS, RULES_COLUMNS, balanced_holdout,
                         evaluate, extract_rules, metrics_rows, rule_metrics,
                         rules_rows)
from .logiset import build_logiset
from .trees import learn_forest, learn_tree, model_from_tree, save_model

CUBE_NAME = "features.cube"
REPORT_NAME = "features.report.txt"
MODEL_NAME = "model.json"
METRICS_NAME = "metrics.csv"
RULES_NAME = "rules.csv"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _jobs(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"--jobs must be at least 1, not {n}")
    return n


def _build_parser():
    parser = _Parser(prog="symaudio",
                     description="symbolic audio classification toolkit")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--mode", choices=["prop", "modal"],
                       help="representation: prop or modal")
        p.add_argument("--model", choices=["tree", "forest"],
                       help="classifier family")

    p = sub.add_parser("featurize", help="WAV manifest to a feature cube")
    common(p)
    p.add_argument("manifest", nargs="?",
                   help="CSV of path,label rows (default: config manifest)")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="parallel feature extraction workers (at least 1)")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit a classifier on a feature cube")
    common(p)
    p.add_argument("cube", nargs="?", help="cube file (default: out dir)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="balanced repeated holdout metrics")
    common(p)
    p.add_argument("cube", nargs="?", help="cube file (default: out dir)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rules", help="extract and score decision rules")
    common(p)
    p.add_argument("cube", nargs="?", help="cube file (default: out dir)")
    p.set_defaults(func=cmd_rules)
    return parser


def _load_cfg(args):
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.mode is not None:
        cfg = replace(cfg, mode=normalize_mode(args.mode))
    if args.model is not None:
        cfg = replace(cfg, model=args.model)
    return validate_config(cfg)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError("a command is required "
                              "(featurize, train, evaluate, rules)")
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        cfg = _load_cfg(args)
        return args.func(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


# --- shared output helpers --------------------------------------------------

def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue().encode("utf-8"))


def _load_logiset(args, cfg):
    path = args.cube or os.path.join(cfg.out_dir, CUBE_NAME)
    cf = load_cube_file(path)
    cubes = [FeatureCube(cf.attr_names, cf.values[i])
             for i in range(cf.values.shape[0])]
    labels = [cf.classes[l] for l in cf.labels]
    ls = build_logiset(cubes, labels, mode=cfg.mode, classes=cf.classes)
    return ls, path


def _task_name(cfg, cube_path):
    if cfg.task:
        return cfg.task
    return os.path.splitext(os.path.basename(cube_path))[0]


# --- featurize --------------------------------------------------------------

def _csv_rows(fh):
    """csv rows of fh; a line csv cannot read, such as one with a field past
    its 131,072-character limit, is a ValueError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as e:
        raise ValueError(f"manifest line {reader.line_num}: {e}") from None


def _read_manifest(path):
    """Rows of (resolved_path, listed_path, label); paths resolve against
    the manifest's own directory."""
    base = os.path.dirname(os.path.abspath(path))
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(_csv_rows(fh)):
            if not row or all(not c.strip() for c in row):
                continue
            if i == 0 and [c.strip().lower() for c in row] == \
                    ["path", "label"]:
                continue
            if len(row) != 2 or not row[0].strip() or not row[1].strip():
                raise ValueError(
                    f"manifest line {i + 1}: expected 'path,label'")
            listed = row[0].strip()
            resolved = listed if os.path.isabs(listed) \
                else os.path.join(base, listed)
            rows.append((resolved, listed, row[1].strip()))
    if not rows:
        raise ValueError(f"manifest {path} lists no files")
    return rows


# Conditioned clips by manifest row, held by the process that featurizes
# the row: its worker, or this process when featurize runs without workers.
_clips = {}


def _prep_one(job):
    """Decode and condition the file of manifest row i and keep its samples
    in _clips; returns ('ok', length) or ('error', message)."""
    i, path, cfg = job
    try:
        sig = decode_wav(path)
        if cfg.trim:
            sig = trim_nonspeech(sig, frame_ms=cfg.trim_frame_ms,
                                 threshold_db=cfg.trim_threshold_db)
        sig = resample(sig, cfg.resample_hz)
        if cfg.bandpass_low is not None:
            sig = bandpass(sig, cfg.bandpass_low, cfg.bandpass_high)
        _clips[i] = sig.samples
        return ("ok", len(sig.samples))
    except (OSError, ValueError) as e:
        return ("error", str(e))


def _feat_one(job):
    """Featurize row i's kept clip cut or padded to n_target samples;
    returns ('ok', (names, values)) or ('error', message)."""
    i, n_target, cfg = job
    samples = _clips.pop(i)
    try:
        if len(samples) >= n_target:
            samples = samples[:n_target]
        else:
            samples = np.concatenate(
                [samples, np.zeros(n_target - len(samples))])
        sig = AudioSignal(samples=samples, sample_rate=cfg.resample_hz)
        cube = featurize_signal(sig, window_len=cfg.window_len, hop=cfg.hop,
                                n_mel=cfg.n_mel, n_mfcc=cfg.n_mfcc,
                                n_points=cfg.n_points, overlap=cfg.overlap)
        return ("ok", (cube.names, cube.values))
    except ValueError as e:
        return ("error", str(e))


def _serve(conn, parent_ends):
    """A worker's loop: run each batch (fn, jobs) and reply ("ok", results),
    or ("fault", traceback text) when a job raises."""
    # Copies of the parent's pipe ends would keep the pipes open after the
    # parent dies unstopped (SIGTERM, SIGKILL); closed, a worker then reads
    # end-of-file or fails to send, and ends.
    for c in parent_ends:
        c.close()
    # The one way out: the parent is gone.  A pipe is a socket pair, so
    # that shows as end-of-file or a reset on recv, a broken pipe on send.
    with contextlib.suppress(EOFError, ConnectionError):
        while True:
            fn, jobs = conn.recv()
            try:
                reply = ("ok", [fn(j) for j in jobs])
            except Exception:
                reply = ("fault", traceback.format_exc())
            conn.send(reply)


def _reply(conn, proc):
    """The results of the batch sent to worker proc; a job's fault, or the
    worker's end without a reply, is a RuntimeError naming the worker."""
    try:
        kind, payload = conn.recv()
    except (EOFError, OSError):   # the worker is gone
        proc.join()
        raise RuntimeError(f"featurize worker {proc.pid} ended with exit "
                           f"code {proc.exitcode}") from None
    if kind == "fault":
        raise RuntimeError(f"featurize worker {proc.pid} failed:\n{payload}")
    return payload


def _stop_workers(workers):
    """Kill and reap every worker, busy or idle; all are killed before the
    first is reaped, so that they end side by side."""
    for conn, proc in workers:
        proc.kill()
        conn.close()
    for _, proc in workers:
        proc.join()


def _map_jobs(fn, jobs, n_workers, workers):
    # [fn(job) for job in jobs].  A job's first item is its manifest row i;
    # worker i % n_workers runs it, so a row's second job finds the clip its
    # first one kept.  The first call forks the workers into the empty list
    # `workers` as (pipe end, process) pairs; one worker means this process.
    # Each worker gets its jobs in one message and replies in one.
    if n_workers == 1:
        return [fn(j) for j in jobs]
    if not workers:
        ctx = multiprocessing.get_context("fork")
        for _ in range(n_workers):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_serve, daemon=True, args=(
                child, [c for c, _ in workers] + [conn]))
            proc.start()
            child.close()
            workers.append((conn, proc))
    shares = [[] for _ in workers]
    for job in jobs:
        shares[job[0] % n_workers].append(job)
    for (conn, _), share in zip(workers, shares):
        with contextlib.suppress(OSError):   # _reply says what went wrong
            conn.send((fn, share))
    results = {}
    for (conn, proc), share in zip(workers, shares):
        results.update(zip((job[0] for job in share), _reply(conn, proc)))
    return [results[job[0]] for job in jobs]


def cmd_featurize(args, cfg):
    validate_front_end(cfg)
    manifest = args.manifest or cfg.manifest
    if not manifest:
        raise ConfigError("featurize needs a manifest "
                          "(argument or config key)")
    rows = _read_manifest(manifest)

    # The workers are forked: load the band-pass filter's compiled kernel
    # here, once, rather than in every worker.
    if cfg.bandpass_low is not None:
        sosfilt_kernel()

    # Workers are forked all at once, so there are no more than files and
    # CPUs.  They keep each row's clip from the first pass to the second,
    # so they must be forked, not spawned.
    n_workers = min(args.jobs, len(rows), os.cpu_count() or 1)
    if "fork" not in multiprocessing.get_all_start_methods():
        n_workers = 1
    if n_workers > 1:
        # Build the resampler's rows for row 0's rate here, from its header,
        # so that every worker inherits them.  Best effort: whatever fails
        # here is left to the row's own job to report.
        with contextlib.suppress(Exception):
            rate, frames = wav_header(rows[0][0])
            if rate != cfg.resample_hz:
                warm_resampler(rate, cfg.resample_hz, frames)
    workers = []
    try:
        return _featurize_rows(rows, cfg, n_workers, workers)
    finally:
        _stop_workers(workers)
        _clips.clear()


def _featurize_rows(rows, cfg, n_workers, workers):
    n_total = len(rows)
    outcome = {}   # listed path -> report text, for each row not plain ok
    prepped = _map_jobs(_prep_one,
                        [(i, r[0], cfg) for i, r in enumerate(rows)],
                        n_workers, workers)
    lengths = {}   # row -> conditioned length, for each row still alive
    for i, (kind, payload) in enumerate(prepped):
        if kind == "ok":
            lengths[i] = payload
        else:
            outcome[rows[i][1]] = f"error: {payload}"

    cubes, labels = [], []
    if lengths:
        if cfg.clip_seconds is not None:
            n_target = int(round(cfg.clip_seconds * cfg.resample_hz))
        else:
            n_target = min(lengths.values())
        require_windows(n_target, cfg.window_len, cfg.hop, cfg.n_points)
        feats = _map_jobs(_feat_one, [(i, n_target, cfg) for i in lengths],
                          n_workers, workers)
        for (i, length), (kind, payload) in zip(lengths.items(), feats):
            _, listed, label = rows[i]
            if kind != "ok":
                outcome[listed] = f"error: {payload}"
                continue
            names, values = payload
            cubes.append(values)
            labels.append(label)
            if length < n_target:
                outcome[listed] = (f"ok (zero-padded {length} -> "
                                   f"{n_target} samples)")

    n_ok = len(cubes)
    report = [f"{listed}\t{outcome.get(listed, 'ok')}"
              for _, listed, _ in rows]
    report.append(f"processed {n_ok}/{n_total}")
    atomic_write(os.path.join(cfg.out_dir, REPORT_NAME),
                 ("\n".join(report) + "\n").encode("utf-8"))
    if not cubes:
        print(f"featurize: no usable audio among {n_total} files",
              file=sys.stderr)
        return 2

    classes = tuple(sorted(set(labels)))
    class_id = {c: i for i, c in enumerate(classes)}
    write_cube_file(os.path.join(cfg.out_dir, CUBE_NAME), names, classes,
                    np.stack(cubes), [class_id[l] for l in labels])
    n_failed = n_total - n_ok
    print(f"featurized {n_ok}/{n_total} files "
          f"-> {os.path.join(cfg.out_dir, CUBE_NAME)}")
    if n_failed > 0.1 * n_total:
        print(f"featurize: {n_failed} of {n_total} files failed",
              file=sys.stderr)
        return 2
    return 0


# --- model commands ---------------------------------------------------------

def cmd_train(args, cfg):
    ls, _ = _load_logiset(args, cfg)
    params = learn_params_from(cfg)
    if cfg.model == "tree":
        model = model_from_tree(learn_tree(ls, params), params, ls.classes,
                                ls.attr_names)
    else:
        model = learn_forest(ls, params)
    out = os.path.join(cfg.out_dir, MODEL_NAME)
    save_model(model, out)
    print(f"trained {cfg.model} ({cfg.mode}) -> {out}")
    return 0


def cmd_evaluate(args, cfg):
    ls, cube_path = _load_logiset(args, cfg)
    params = learn_params_from(cfg)
    report = evaluate(ls, params, model=cfg.model,
                      train_frac=cfg.train_frac, repeats=cfg.repeats,
                      seed=cfg.seed)
    rows = metrics_rows(report, _task_name(cfg, cube_path), cfg.mode,
                        cfg.model)
    out = os.path.join(cfg.out_dir, METRICS_NAME)
    _write_csv(out, METRICS_COLUMNS, rows)
    print(f"kappa {report.kappa_mean:.2f} +- {report.kappa_std:.2f}, "
          f"accuracy {report.accuracy_mean:.2f} +- "
          f"{report.accuracy_std:.2f} -> {out}")
    return 0


def cmd_rules(args, cfg):
    ls, _ = _load_logiset(args, cfg)
    params = learn_params_from(cfg)
    labels = [inst.label for inst in ls.instances]
    splits = balanced_holdout(labels, train_frac=cfg.train_frac,
                              repeats=cfg.rules_trees, seed=cfg.seed)
    rows = []
    for train, test in splits:
        tree = learn_tree(ls, params, indices=train)
        rules = extract_rules(tree, mode=cfg.mode)
        kept = rule_metrics(rules, [ls.instances[i] for i in test])
        rows.extend(rules_rows(kept, ls.classes, ls.attr_names))
    out = os.path.join(cfg.out_dir, RULES_NAME)
    _write_csv(out, RULES_COLUMNS, rows)
    print(f"{len(rows)} rules -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
