"""Record the output digests every benchmark run is checked against.

    python3 perfbench/record_digests.py [workload ...]

Run from the root of a symaudio checkout whose outputs are known to be
right.  For each workload (default: all) and each of its corpora it runs one
untraced pass, checks that `featurize --jobs 1` writes the same cube bytes
as `--jobs 2`, and stores the SHA-256 of every output file in digests.json.
Entries of workloads not named are kept.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as W


def record(cli, wl, corpus, work):
    inputs = W.generate(wl.name, corpus, os.path.join(work, "inputs"))
    digests = {}
    for jobs in (2, 1):
        out_dir = os.path.join(work, f"jobs-{jobs}")
        for command, argv in wl.argv(inputs, out_dir, jobs=jobs):
            if jobs == 1 and command != "featurize":
                continue
            rc, _, err = run.run_command(cli, argv)
            if rc != 0:
                raise SystemExit(f"{wl.name} corpus {corpus}: {command} "
                                 f"exited {rc}: {err}")
            for fname in W.OUTPUTS[command]:
                got = run.sha256(os.path.join(out_dir, fname))
                if digests.setdefault(fname, got) != got:
                    raise SystemExit(f"{wl.name} corpus {corpus}: {fname} "
                                     "differs between --jobs 1 and 2")
    shutil.rmtree(work)
    return digests


def main(names):
    cli, _ = run.import_cli(os.getcwd())
    with open(run.DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    work = os.path.join(os.getcwd(), run.WORK_DIR, f"record-{os.getpid()}")
    for name in names or sorted(W.WORKLOADS):
        wl = W.WORKLOADS[name]
        table[name] = {str(c): record(cli, wl, c, work)
                       for c in range(W.N_CORPORA)}
        print(f"{name}: {W.N_CORPORA} corpora recorded")
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
