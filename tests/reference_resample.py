"""The resampler that the blocked one in symaudio.audio replaced.

Kept verbatim as the reference for bitwise tests: blocks of 8,192 output
rows, the Kaiser window evaluated by `np.i0` on the in-support taps only,
and the input read through `clip` and `where`.
"""
import math

import numpy as np

from symaudio.audio import AudioSignal


def resample(sig, target_rate):
    """Windowed-sinc resampling (Kaiser beta=8), output length round(n*ratio)."""
    if target_rate <= 0:
        raise ValueError("target rate must be positive")
    sr = sig.sample_rate
    if target_rate == sr:
        return AudioSignal(sig.samples.copy(), sr)
    x = sig.samples
    n_in = len(x)
    n_out = int(round(n_in * target_rate / sr))
    if n_out < 1:
        raise ValueError("signal too short for requested rate")
    ratio = target_rate / sr
    cutoff = min(1.0, ratio)           # fraction of the input Nyquist
    half = 32.0 / cutoff               # kernel half-width in input samples
    taps = 2 * math.ceil(half) + 1
    i0_beta = float(np.i0(8.0))
    offsets = np.arange(taps)
    out = np.empty(n_out)
    for b0 in range(0, n_out, 8192):
        nn = np.arange(b0, min(b0 + 8192, n_out))
        pos = nn / ratio
        start = np.ceil(pos - half).astype(np.int64)
        k = start[:, None] + offsets[None, :]
        t = k - pos[:, None]
        u = t / half
        win = np.zeros_like(t)
        inside = np.abs(u) < 1.0
        win[inside] = np.i0(8.0 * np.sqrt(1.0 - u[inside] ** 2)) / i0_beta
        kern = cutoff * np.sinc(cutoff * t) * win
        valid = (k >= 0) & (k < n_in)
        xv = np.where(valid, x[np.clip(k, 0, n_in - 1)], 0.0)
        out[nn] = (xv * kern).sum(axis=1)
    return AudioSignal(out, int(target_rate))
