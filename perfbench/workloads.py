"""Seeded inputs and command sequences of the benchmark workloads.

Each workload is a fixed sequence of `symaudio` CLI commands run on inputs
this module generates from the workload seed.  symaudio only ever sees the
generated WAVs, manifest, config and cube.

Run as a script it generates one workload's inputs into a directory; the
benchmark times that (interpreter start, `import symaudio`, generation) as
its set-up:

    python3 perfbench/workloads.py demo-modal 7 .bench_work/inputs
"""
from __future__ import annotations

import os
import sys
import wave
from dataclasses import dataclass

import numpy as np

# Inputs are drawn from one of N_CORPORA corpora per workload, chosen by the
# seed, so that every run's output bytes can be checked against digests
# recorded when the benchmark was defined (see digests.json).  Why each
# workload was chosen is recorded in BENCHMARK.json.  noise-forest is not
# listed there: on a 2-CPU VM its run-to-run spread came close to, and twice
# over, the 0.25 bound.  It stays runnable for split-search work.
N_CORPORA = 16

CUBE = "features.cube"
REPORT = "features.report.txt"
METRICS = "metrics.csv"
MODEL = "model.json"
RULES = "rules.csv"

# Output files each command writes; a command fails when any of them differs
# from its recorded digest.
OUTPUTS = {
    "featurize": (CUBE, REPORT),
    "evaluate": (METRICS,),
    "train": (MODEL,),
    "rules": (RULES,),
}


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int                 # keeps the workloads' random streams apart
    commands: tuple          # (command, extra args); input paths are added

    def corpus(self, seed):
        return seed % N_CORPORA

    def argv(self, inputs, out_dir, jobs=2):
        """The command lines of one pass, as (command, argv) pairs."""
        seq = []
        for command, extra in self.commands:
            argv = [command, "--config", inputs["config"], "--out", out_dir]
            if command == "featurize":
                argv.append(inputs["manifest"])
                argv += ["--jobs", str(jobs)]
            elif "cube" in inputs:
                argv.append(inputs["cube"])
            seq.append((command, argv + list(extra)))
        return seq


WORKLOADS = {w.name: w for w in (
    Workload(name="demo-modal", tag=1,
             commands=(("featurize", ()), ("evaluate", ()), ("train", ()),
                       ("rules", ()))),
    Workload(name="noise-forest", tag=2,
             commands=(("train", ("--model", "forest")), ("evaluate", ()))),
    Workload(name="wild-rate-prop", tag=3,
             commands=(("featurize", ()),
                       ("evaluate", ("--mode", "prop")))),
)}

# demo-modal: the README demo corpus (make_demo_audio style) at 8 kHz.
DEMO_PER_CLASS = 12
DEMO_RATE = 8000
DEMO_CONFIG = ("task=demo\nclip_seconds=1.0\nmode=modal\nmodel=tree\n"
               "repeats=2\nrules_trees=2\n")

# noise-forest: a cube of standard-normal series with random labels.  The
# evaluated trees grow to purity like the forest's: pre-pruning would stop
# them at a depth that varies from corpus to corpus.
NOISE_SHAPE = (24, 6, 5)
NOISE_CLASSES = ("c0", "c1", "c2")
NOISE_CONFIG = ("task=noise\nmode=modal\nmodel=tree\nn_trees=8\nrepeats=8\n"
                "min_gain=0\nmax_leaf_entropy=0\n")

# wild-rate-prop: tone bursts between quiet noise at 44.1 kHz.
WILD_PER_CLASS = 8
WILD_RATE = 44100
WILD_CONFIG = ("task=wild\ntrim=true\nbandpass_low=100\nbandpass_high=3000\n"
               "mode=prop\nmodel=tree\nrepeats=5\n")


def _write_wav(path, rate, x):
    pcm = np.round(np.clip(x, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def _tone_mix(rng, band, t):
    lo, hi = (300.0, 500.0) if band == "lowband" else (1200.0, 1800.0)
    x = np.zeros_like(t)
    for _ in range(2):
        f = rng.uniform(lo, hi)
        x += rng.uniform(0.4, 0.8) * np.sin(2 * np.pi * f * t
                                            + rng.uniform(0, 2 * np.pi))
    return x * (1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(2.0, 6.0) * t))


def _demo_clip(rng, band):
    t = np.arange(DEMO_RATE) / DEMO_RATE
    x = _tone_mix(rng, band, t) + 0.05 * rng.standard_normal(len(t))
    return 0.8 * x / np.max(np.abs(x))


def _wild_clip(rng, band):
    t = np.arange(WILD_RATE) / WILD_RATE
    x = _tone_mix(rng, band, t)
    # Quiet lead-in and tail that trim=true removes.  Their total is fixed so
    # that every seed leaves the same amount of audio to resample.
    lead = int(rng.uniform(0.05, 0.25) * WILD_RATE)
    tail = int(0.3 * WILD_RATE) - lead
    env = np.zeros(len(t))
    env[lead:len(t) - tail] = 1.0
    x = x * env + 0.003 * rng.standard_normal(len(t))
    return 0.7 * x / np.max(np.abs(x))


def input_paths(name, out_dir):
    """Where generate() puts workload `name`'s inputs under out_dir."""
    paths = {"config": os.path.join(out_dir, "bench.cfg")}
    if name == "noise-forest":
        paths["cube"] = os.path.join(out_dir, "noise.cube")
    else:
        paths["manifest"] = os.path.join(out_dir, "manifest.csv")
    return paths


def _write_corpus(paths, rng, per_class, rate, clip):
    out_dir = os.path.dirname(paths["manifest"])
    rows = []
    for band in ("lowband", "highband"):
        for i in range(per_class):
            name = f"{band}_{i:02d}.wav"
            _write_wav(os.path.join(out_dir, name), rate, clip(rng, band))
            rows.append(f"{name},{band}\n")
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        fh.write("path,label\n" + "".join(rows))


def _write_noise_cube(path, rng):
    from symaudio.cubefile import write_cube_file
    m, n, T = NOISE_SHAPE
    values = rng.standard_normal((m, n, T))
    # random labels in equal numbers, so every seed holds out as many
    labels = rng.permutation(np.arange(m) % len(NOISE_CLASSES))
    write_cube_file(path, [f"attr_{a:02d}" for a in range(n)],
                    NOISE_CLASSES, values, labels)


def generate(name, seed, out_dir):
    """Write the inputs of workload `name` for `seed` under out_dir."""
    wl = WORKLOADS[name]
    corpus = wl.corpus(seed)
    rng = np.random.default_rng((wl.tag, corpus))
    os.makedirs(out_dir, exist_ok=True)
    paths = input_paths(name, out_dir)
    if name == "demo-modal":
        _write_corpus(paths, rng, DEMO_PER_CLASS, DEMO_RATE, _demo_clip)
        config = DEMO_CONFIG
    elif name == "wild-rate-prop":
        _write_corpus(paths, rng, WILD_PER_CLASS, WILD_RATE, _wild_clip)
        config = WILD_CONFIG
    else:
        _write_noise_cube(paths["cube"], rng)
        config = NOISE_CONFIG
    with open(paths["config"], "w", encoding="utf-8") as fh:
        fh.write(config + f"seed={corpus}\n")
    return paths


def _main(argv):
    name, seed, out_dir = argv[0], int(argv[1]), argv[2]
    import symaudio  # noqa: F401  part of the timed set-up
    generate(name, seed, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
