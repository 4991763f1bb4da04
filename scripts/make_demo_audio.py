"""Generate a small two-class synthetic audio corpus for the demo.

Writes WAV files, a manifest.csv, and a ready-to-run demo.cfg into the
output directory.  Class "lowband" mixes tones around 300-500 Hz, class
"highband" around 1200-1800 Hz, both with amplitude modulation and noise,
so spectral features separate them while staying non-trivial.
"""
import argparse
import os
import wave

import numpy as np


def synth_clip(rng, band, seconds, rate):
    t = np.arange(int(seconds * rate)) / rate
    lo, hi = (300.0, 500.0) if band == "lowband" else (1200.0, 1800.0)
    x = np.zeros_like(t)
    for _ in range(2):
        f = rng.uniform(lo, hi)
        x += rng.uniform(0.4, 0.8) * np.sin(2 * np.pi * f * t
                                            + rng.uniform(0, 2 * np.pi))
    am = 1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(2.0, 6.0) * t)
    x = x * am + 0.05 * rng.standard_normal(len(t))
    x = 0.8 * x / np.max(np.abs(x))
    return (x * 32767).astype(np.int16)


def _write_wav(path, rate, pcm):
    # 16-bit mono PCM with the standard library, so that a process that
    # writes the demo clips and then featurizes them loads no scipy
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def generate(out_dir, n_per_class=12, seconds=1.0, rate=8000, seed=0):
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for band in ("lowband", "highband"):
        for i in range(n_per_class):
            name = f"{band}_{i:02d}.wav"
            _write_wav(os.path.join(out_dir, name), rate,
                       synth_clip(rng, band, seconds, rate))
            rows.append((name, band))
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("path,label\n")
        for name, band in rows:
            fh.write(f"{name},{band}\n")
    cfg_path = os.path.join(out_dir, "demo.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(
            "# demo experiment: two synthetic tone bands\n"
            f"manifest={manifest}\n"
            "task=demo\n"
            f"clip_seconds={seconds}\n"
            "mode=modal\n"
            "model=tree\n"
            "repeats=5\n"
            "rules_trees=3\n"
            "seed=0\n")
    return manifest, cfg_path


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_data")
    ap.add_argument("--n-per-class", type=int, default=12)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--rate", type=int, default=8000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    manifest, cfg = generate(args.out, args.n_per_class, args.seconds,
                             args.rate, args.seed)
    print(f"wrote {2 * args.n_per_class} clips, {manifest}, {cfg}")


if __name__ == "__main__":
    main()
