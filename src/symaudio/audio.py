"""Audio front end: WAV decoding, conditioning, and spectral feature series.

The pipeline turns a mono signal into a fixed set of named feature series
(12 spectral shape descriptors, a Mel filterbank, and cepstral coefficients
with their first and second temporal slopes), then shrinks the time axis to a
small number of averaged windows.  At the default settings the result is a
77 x 5 cube per recording.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import mmap
import os
import stat
import struct
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Only the band-pass filter needs scipy, and from it only the compiled
# loop over second-order sections, loaded from its own file when the first
# band-pass runs (sosfilt_kernel): the filter is designed here in numpy, and
# the scipy.signal package, whose import loads some 800 modules and 76 MB,
# is never imported.  WAV files are read here, not by scipy.io, and the
# cepstral DCT is computed from numpy's FFT, not by scipy.fft, whose import
# alone keeps about 25 MB more resident in the featurize process.


class AudioDecodeError(ValueError):
    pass


@dataclass(frozen=True)
class AudioSignal:
    samples: np.ndarray  # mono float64
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("signal must be a non-empty 1-D array")
        if not np.isfinite(s).all():
            raise ValueError("signal contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        object.__setattr__(self, "samples", s)

    @property
    def duration(self):
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    magnitudes: np.ndarray  # (bins, frames)
    bin_freqs: np.ndarray   # (bins,), 0 .. sample_rate/2
    frame_hop: int
    window_len: int
    sample_rate: int


@dataclass(frozen=True)
class FeatureCube:
    names: tuple
    values: np.ndarray  # (n_attrs, T) float64

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        names = tuple(self.names)
        if v.ndim != 2 or v.shape[0] != len(names) or v.shape[1] < 1:
            raise ValueError("cube values must be (n_attrs, T) with T >= 1")
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names")
        if not np.isfinite(v).all():
            raise ValueError("cube contains non-finite values")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", v)

    @property
    def n_attrs(self):
        return len(self.names)

    @property
    def n_points(self):
        return self.values.shape[1]


# --- decoding and conditioning ----------------------------------------------

# WAVE format tags; a WAVE_FORMAT_EXTENSIBLE header carries the real tag in
# the first bytes of its sub-format GUID, which ends in this tail
_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}
# (tag, bytes per sample) -> numpy kind of the samples read
_SAMPLE_KINDS = {(_PCM, 1): "u1", (_PCM, 2): "i2", (_PCM, 3): "i4",
                 (_PCM, 4): "i4", (_FLOAT, 4): "f4", (_FLOAT, 8): "f8"}


def _read_wav(buf):
    """(rate, samples) of the RIFF, RIFX or RF64 WAVE file in buf.

    The samples come as scipy.io.wavfile.read gives them, in native byte
    order: uint8 for PCM of up to 8 bits, int16 or int32 for wider PCM
    (24-bit samples left-justified in int32), float32 or float64 for IEEE
    float; 1-D for one channel, (frames, channels) for more.  A data chunk
    is read as far as the file goes, in whole frames.
    """
    rate, order, (form, body) = _wav_chunks(memoryview(buf))
    return rate, _wav_samples(body, order, *form)


def _wav_chunks(view):
    """The chunk walk of a WAVE file in the buffer view: (rate, byte order,
    ((tag, channels, bytes per sample), body)) of its last `fmt ` chunk and
    of its last `data` chunk, with the format in force there.  Chunks other
    than `fmt `, `data` and RF64's `ds64` are skipped, with their pad
    bytes.  A data chunk's body ends where the file does, if before its
    size.
    """
    magic = bytes(view[:4])
    order = ">" if magic == b"RIFX" else "<"
    if magic not in (b"RIFF", b"RIFX", b"RF64") or view[8:12] != b"WAVE":
        raise ValueError(f"not a WAVE file (starts {bytes(view[:12])!r})")
    riff_size = struct.unpack_from(order + "I", view, 4)[0]
    fmt = data = long_size = None
    pos = 12
    while pos < riff_size + 8 and pos + 8 <= len(view):
        cid, size = struct.unpack_from(order + "4sI", view, pos)
        pos += 8
        if cid == b"ds64" and magic == b"RF64":
            long_size = struct.unpack_from("<Q", view, pos + 8)[0]
        elif cid == b"fmt ":
            fmt = _wav_format(view[pos:pos + size], order)
        elif cid == b"data":
            if fmt is None:
                raise ValueError("data chunk before fmt chunk")
            if magic == b"RF64" and size == 0xFFFFFFFF:
                size = long_size
            data = fmt[1:], view[pos:pos + size]
        pos += size + (size & 1)
    if data is None:
        raise ValueError("no data chunk")
    return fmt[0], order, data


def _wav_format(body, order):
    # (rate, tag, channels, bytes per sample) of a fmt chunk
    if len(body) < 16:
        raise ValueError(f"fmt chunk of {len(body)} bytes, fewer than 16")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(
        order + "HHIIHH", body)
    if tag == _EXTENSIBLE and len(body) >= 40 and \
            body[28:40] == _GUID_TAIL[order]:
        tag = struct.unpack_from(order + "I", body, 24)[0]
    if channels == 0:
        raise ValueError("fmt chunk declares no channels")
    width = block_align // channels
    if tag == _PCM:
        known = 0 < bits <= 8 if width == 1 else 8 < bits <= 64
    else:
        known = bits in (32, 64)
    if not known or (tag, width) not in _SAMPLE_KINDS:
        raise ValueError(f"unsupported sample format: tag {tag:#06x}, "
                         f"{bits} bits in {width}-byte samples")
    return rate, tag, channels, width


def _wav_samples(body, order, tag, channels, width):
    n = len(body) // (width * channels) * channels
    kind = order + _SAMPLE_KINDS[tag, width]
    if width == 3:
        # left-justify each 3-byte sample in 4 bytes, low byte zero
        wide = np.zeros((n, 4), np.uint8)
        wide[:, slice(1, 4) if order == "<" else slice(0, 3)] = \
            np.frombuffer(body, np.uint8, 3 * n).reshape(n, 3)
        samples = wide.view(kind)[:, 0]
    else:
        samples = np.frombuffer(body, kind, n)
    samples = samples.astype(samples.dtype.newbyteorder("="), copy=False)
    return samples.reshape(-1, channels) if channels > 1 else samples


def decode_wav(path):
    """Decode a PCM or float WAV file to a mono float64 signal in [-1, 1]."""
    try:
        with open(path, "rb") as fh:
            rate, data = _read_wav(fh.read())
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise AudioDecodeError(f"unreadable WAV file {path!r}: {exc}") from exc
    if data.size == 0:
        raise AudioDecodeError(f"zero-length audio in {path!r}")
    kind = data.dtype
    mono = data.astype(np.float64)
    if mono.ndim == 2:
        mono = mono.mean(axis=1)
    # float samples are taken as they are
    if kind == np.int16:
        mono = mono / 32768.0
    elif kind == np.int32:
        mono = mono / 2147483648.0
    elif kind == np.uint8:
        mono = (mono - 128.0) / 128.0
    return AudioSignal(mono, int(rate))


def wav_header(path):
    """(rate, frames) of the WAV file at path, from its chunk headers as
    decode_wav reads them.  The file is mapped, not read, so no sample is
    loaded.  Only a regular file is opened: what is read from a named pipe
    or a device is gone for decode_wav."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"not a regular file: {path!r}")
    with open(path, "rb") as fh:
        view = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
    # the mapping ends with the last view of it, on return
    rate, _, ((_, channels, width), body) = _wav_chunks(view)
    return rate, len(body) // (channels * width)


def _physical_memory():
    """Bytes of physical memory, or of the address-space limit (`ulimit -v`)
    when that is smaller; None where the platform says neither."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        have = None
    try:
        import resource
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    except (ImportError, ValueError, OSError):
        return have
    if limit == resource.RLIM_INFINITY:
        return have
    return limit if have is None else min(have, limit)


def require_memory(need, what):
    """The memory budget, asked before allocating: ValueError naming `what`
    if `need` bytes exceed _physical_memory(), where the platform says it."""
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(f"{what} needs {need / 2**30:.1f} GiB, more than "
                         f"the {have / 2**30:.1f} GiB of memory")


KAISER_BETA = 8.0
RESAMPLE_BLOCK = 2 ** 15   # kernel entries per block of output samples
KERNEL_CACHE = 2 ** 18     # kernel entries kept for reuse across blocks
MAX_TAPS = 2 ** 20         # taps per output sample: a 1:16384 rate ratio
PLAN_CAP = 2 ** 16         # outputs whose first tap and row are kept per pair
I0_BETA = float(np.i0(KAISER_BETA))   # the Kaiser window's normaliser
_kernel_rows = threading.local()   # .store: see _row_store


def _kernel(t, half, cutoff):
    """cutoff * sinc(cutoff * t) * kaiser(t / half), as the reference
    resampler computes it: the Kaiser window i0(8*sqrt(1 - u*u)) / i0(8)
    at u = t / half, zero where |u| >= 1."""
    u = t / half
    win = np.i0(KAISER_BETA * np.sqrt(np.maximum(1.0 - u * u, 0.0))) / I0_BETA
    win[np.abs(u) >= 1.0] = 0.0
    return cutoff * np.sinc(cutoff * t) * win


class _RowStore:
    """The kernel rows kept for one rate pair and table size: `slot_of`, a
    dict from row key to slot, and the (n_table, taps) `table` those slots
    index.  Beside them, the plan of outputs 0..planned-1: `plan[0, n]` is
    output n's first input tap as a row of the padded input's windows, and
    `plan[1, n]` its slot in the table."""

    def __init__(self, key, n_table, taps):
        self.key = key
        self.slot_of = {}
        self.table = np.empty((n_table, taps))
        self.plan = np.empty((2, PLAN_CAP), dtype=np.intp)
        self.planned = 0


def _row_store(sr, target_rate, n_table, taps):
    """This thread's _RowStore for the rate pair and table size; another
    pair or size starts an empty one."""
    key = (sr, target_rate, n_table)
    store = getattr(_kernel_rows, "store", None)
    if store is None or store.key != key:
        _kernel_rows.store = None          # free the old table first
        store = _kernel_rows.store = _RowStore(key, n_table, taps)
    return store


def _block_rows(store, lo, hi, ratio, half, cutoff):
    """First taps (as window rows) and table slots of outputs lo..hi-1,
    with the rows missing from the table computed into it; a block that
    starts within the plan extends it, up to the plan's cap."""
    taps = store.table.shape[1]
    # Tap k of output n sits at t = k - pos, pos = n / ratio, and k runs
    # from ceil(pos - half).  Both frac(pos) and ceil(pos - half) -
    # floor(pos) are exact, and the pair fixes every t of the row, so rows
    # with the same pair share one kernel row, bit for bit.
    pos = np.arange(lo, hi) / ratio
    start = np.ceil(pos - half).astype(np.int64)
    whole = np.floor(pos)
    keys = list(zip((pos - whole).tolist(), (start - whole).tolist()))
    cache, table = store.slot_of, store.table
    slots = list(map(cache.get, keys))
    if None in slots:
        if len(cache) + len(keys) > len(table):
            cache.clear()
            store.planned = 0      # its slots named the rows now dropped
        # the first position of each new key; keys join the cache only
        # once their rows are in the table, so the store stays whole
        # if the kernel fails
        fresh = {}
        for i, key in enumerate(keys):
            if key not in cache:
                fresh.setdefault(key, i)
        new = list(fresh.values())
        n_old = len(cache)
        t = (start[new, None] + np.arange(taps)) - pos[new, None]
        table[n_old:n_old + len(new)] = _kernel(t, half, cutoff)
        cache.update(zip(fresh, range(n_old, n_old + len(new))))
        slots = list(map(cache.get, keys))
    first = start + taps                   # x[k] is xpad[k + taps]
    slots = np.array(slots, dtype=np.intp)
    done, end = store.planned, min(hi, store.plan.shape[1])
    if lo <= done < end:
        store.plan[0, done:end] = first[done - lo:end - lo]
        store.plan[1, done:end] = slots[done - lo:end - lo]
        store.planned = end
    return first, slots


def resample(sig, target_rate):
    """Windowed-sinc resampling (Kaiser beta=8), output length round(n*ratio).

    Output samples are computed in blocks of about RESAMPLE_BLOCK kernel
    entries.  Up to KERNEL_CACHE entries of kernel rows are kept for reuse
    across blocks and across calls at the same rate pair in one process
    (per thread), so the working set stays a few MB at any rate ratio, and
    clips at one rate pair after the first compute few rows or none.  The
    first tap and kernel row of the first PLAN_CAP outputs are kept with
    those rows, so later clips at that pair read them instead of working
    them out.  Each output sample is the sum of its own row of tap
    products, each kernel entry computed by np.sinc and np.i0 alone, so
    neither the blocks nor the reuse change a bit of the result.
    """
    if target_rate <= 0:
        raise ValueError("target rate must be positive")
    sr = sig.sample_rate
    if target_rate == sr:
        return AudioSignal(sig.samples.copy(), sr)
    x = sig.samples
    n_in = len(x)
    n_out, rows, store, shape = _resampler(sr, target_rate, n_in)
    taps = store.table.shape[1]
    xpad = np.zeros(n_in + 2 * taps)   # x[k] is xpad[k + taps], 0 outside
    xpad[taps:taps + n_in] = x
    # the input taps of an output whose first tap is k: windows[k + taps]
    windows = np.lib.stride_tricks.sliding_window_view(xpad, taps)
    out = np.empty(n_out)
    for lo in range(0, n_out, rows):
        hi = min(lo + rows, n_out)
        if hi <= store.planned:
            first, slots = store.plan[:, lo:hi]
        else:
            first, slots = _block_rows(store, lo, hi, *shape)
        xv = windows[first]
        xv *= store.table[slots]
        xv.sum(axis=1, out=out[lo:hi])
    return AudioSignal(out, int(target_rate))


def _resampler(sr, target_rate, n_in):
    """resample's checks and set-up for n_in samples from sr to target_rate
    Hz: (outputs, outputs per block, this thread's _RowStore for the pair,
    the kernel's (ratio, half-width, cutoff))."""
    n_out = int(round(n_in * target_rate / sr))
    if n_out < 1:
        raise ValueError("signal too short for requested rate")
    ratio = target_rate / sr
    cutoff = min(1.0, ratio)           # fraction of the input Nyquist
    half = 32.0 / cutoff               # kernel half-width in input samples
    taps = 2 * math.ceil(half) + 1
    if taps > MAX_TAPS:
        raise ValueError(f"resampling {sr} Hz to {target_rate} Hz needs "
                         f"{taps} taps per sample, more than {MAX_TAPS}")
    require_memory(n_out * 8, f"resampling {n_in} samples from {sr} Hz "
                              f"to {target_rate} Hz")
    rows = max(1, RESAMPLE_BLOCK // taps)
    store = _row_store(sr, target_rate, max(rows, KERNEL_CACHE // taps), taps)
    return n_out, rows, store, (ratio, half, cutoff)


def warm_resampler(sr, target_rate, n_in):
    """Compute into this thread's store the kernel rows and plan that
    resample would for a clip of n_in samples from sr to target_rate Hz,
    before any clip is resampled: for its first PLAN_CAP outputs at most,
    and no further than the table holds, since past that resample would
    drop them.  The checks are resample's, and raise as there."""
    n_out, rows, store, shape = _resampler(sr, target_rate, n_in)
    for lo in range(store.planned, min(n_out, PLAN_CAP), rows):
        hi = min(lo + rows, n_out)
        if len(store.slot_of) + hi - lo > len(store.table):
            break
        _block_rows(store, lo, hi, *shape)


BAND_ORDER = 4
_REAL_TOL = 100 * np.finfo(np.float64).eps


@lru_cache(maxsize=1)
def sosfilt_kernel():
    """scipy's compiled loop over second-order sections, _sosfilt(sos, x,
    zi), which filters the rows of x in place.  It is loaded from its own
    file, scipy/signal/_sosfilt*.so, once per process: importing the
    scipy.signal package would load some 800 modules and 76 MB with it."""
    scipy = importlib.util.find_spec("scipy")
    where = os.path.join(scipy.submodule_search_locations[0], "signal") \
        if scipy is not None else "(scipy is not installed)"
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.signal._sosfilt")
    if spec is None:
        raise RuntimeError(f"scipy's compiled section filter _sosfilt is "
                           f"not in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._sosfilt


def _butter_zpk(sample_rate, low, high):
    """Digital zeros, poles and gain of scipy.signal.butter(BAND_ORDER,
    (low, high), "bandpass", fs=sample_rate), or of its "highpass" at low
    when high is Nyquist, in scipy 1.17's order of operations: buttap,
    pre-warping, lp2bp_zpk or lp2hp_zpk, bilinear_zpk at fs = 2."""
    p = -np.exp(1j * np.pi * np.arange(-BAND_ORDER + 1, BAND_ORDER, 2,
                                       dtype=np.float64) / (2 * BAND_ORDER))
    fs = float(sample_rate)
    highpass = high >= fs / 2.0
    wn = np.asarray(low if highpass else [low, high], dtype=np.float64)
    warped = 2 * 2.0 * np.tan(np.pi * (wn / (fs / 2)) / 2.0)
    if highpass:
        # every zero at 0 Hz; the gain prod(-z) / prod(-p), with no zeros
        wo = float(warped)
        k = np.real(1 / np.prod(-p))
        z, p = np.zeros(BAND_ORDER), wo / p
    else:
        # half the zeros at 0 Hz, half at infinity (added at Nyquist below)
        bw, wo = float(warped[1] - warped[0]), \
            float(np.sqrt(warped[0] * warped[1]))
        p = p * bw / 2
        root = np.sqrt(p**2 - wo**2)
        p = np.concatenate((p + root, p - root))
        z = np.zeros(BAND_ORDER, dtype=np.complex128)
        k = bw**BAND_ORDER
    fs2 = 2.0 * 2.0
    k = k * np.real(np.prod(fs2 - z) / np.prod(fs2 - p))
    z = np.concatenate(((fs2 + z) / (fs2 - z), -np.ones(len(p) - len(z))))
    return z, (fs2 + p) / (fs2 - p), k


def _cplxreal(p):
    """scipy's _cplxreal: (one pole of each conjugate pair, averaged with
    its partner; the poles it takes as real), each sorted by real part,
    runs of nearly equal real parts of the pairs by |imag|.  Poles count
    as real within 100 ulps, which the bilinear transform reaches when an
    edge lies within a hair of 0 Hz or Nyquist."""
    p = p[np.lexsort((abs(p.imag), p.real))]
    real = abs(p.imag) <= _REAL_TOL * abs(p)
    zp, zn = p[~real & (p.imag > 0)], p[~real & (p.imag < 0)]
    same_real = np.diff(zp.real) <= _REAL_TOL * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.nonzero(diffs > 0)[0],
                           np.nonzero(diffs < 0)[0] + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    return (zp + zn.conj()) / 2, p[real].real


def _poly(roots):
    """The coefficients of the monic polynomial of roots, as np.poly
    convolves them, real parts only."""
    a = np.ones(1, dtype=roots.dtype)
    for r in roots:
        a = np.convolve(a, np.stack((np.ones_like(r), -r)))
    return a.real


@lru_cache(maxsize=16)
def _band_sos(sample_rate, low, high):
    """The read-only second-order sections of bandpass's filter: scipy's
    zpk2sos with "nearest" pairing, for zeros that are all +1 or -1 and
    poles that are complex or, taken as real, come in twos."""
    z, p, k = _butter_zpk(sample_rate, low, high)
    sos = np.zeros((len(p) // 2, 6))
    z, p = np.sort(z.real), np.concatenate(_cplxreal(p))
    for si in range(len(sos) - 1, -1, -1):
        # the pole nearest the unit circle with its conjugate, or with the
        # real pole nearest the circle after it (real poles come in twos),
        # and the two zeros nearest to it
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            i = real[np.argmin(np.abs(1 - np.abs(p[real])))]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):
            j = np.argsort(np.abs(z - p1))[0]
            zeros.append(z[j])
            z = np.delete(z, j)
        sos[si, :3] = _poly(np.asarray(zeros))
        sos[si, 3:] = _poly(np.asarray([p1, p2]))
    sos[0, :3] *= k
    sos.setflags(write=False)
    return sos


@lru_cache(maxsize=16)
def _band_zi(sample_rate, low, high):
    """scipy's sosfilt_zi of _band_sos: each section's steady state for a
    unit step (lfilter_zi, from its companion matrix), scaled by the gain
    of the sections before it; read-only."""
    sos = _band_sos(sample_rate, low, high)
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for s, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        # I - A^T, A the companion matrix of a, whose a[0] is 1
        step = np.array([[1 + a[1], -1.0], [a[2], 1.0]])
        zi[s] = scale * np.linalg.solve(step, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    zi.setflags(write=False)
    return zi


def bandpass(sig, low, high):
    """Zero-phase 4th-order Butterworth band-pass between low and high Hz:
    scipy.signal.sosfiltfilt of butter's sections, bit for bit.  The filter
    of each (rate, low, high) is designed once per process."""
    nyq = sig.sample_rate / 2.0
    if not (0.0 < low < high <= nyq):
        raise ValueError(f"band edges must satisfy 0 < low < high <= {nyq}")
    kernel = sosfilt_kernel()
    sos = _band_sos(sig.sample_rate, low, high)
    zi = _band_zi(sig.sample_rate, low, high)
    # sosfiltfilt's default padding: three times the taps of the sections
    # (no denominator here ends in zero, so scipy drops none)
    edge = 3 * (2 * len(sos) + 1)
    x = sig.samples
    if len(x) <= edge:
        raise ValueError(f"a band-pass needs a clip of at least {edge + 1} "
                         f"samples, not {len(x)}")
    # the clip extended by its odd reflection at both ends, filtered
    # forwards, then backwards, each pass starting from the steady state
    # of its first sample; the kernel takes only writable sections
    y = np.concatenate((2 * x[:1] - x[edge:0:-1], x,
                        2 * x[-1:] - x[-2:-edge - 2:-1]))[None]
    sos = sos.copy()
    kernel(sos, y, (zi * y[0, :1])[None])
    y = y[:, ::-1].copy()
    kernel(sos, y, (zi * y[0, :1])[None])
    return AudioSignal(y[0, ::-1][edge:-edge], sig.sample_rate)


def trim_nonspeech(sig, frame_ms=25.0, threshold_db=35.0):
    """Drop frames whose RMS sits more than threshold_db below the peak frame.
    A frame longer than the signal is the whole signal."""
    if frame_ms <= 0:
        raise ValueError("frame length must be positive")
    x = sig.samples
    n = sig.sample_rate * frame_ms / 1000.0
    n = len(x) if n >= len(x) else max(1, int(round(n)))
    whole = len(x) // n * n
    # each frame's mean square, the last partial frame apart
    ms = np.mean(np.square(x[:whole].reshape(-1, n)), axis=1)
    if whole < len(x):
        ms = np.append(ms, np.mean(np.square(x[whole:])))
    rms = np.sqrt(ms)
    peak = rms.max()
    if peak <= 0.0:
        raise ValueError("no speech detected: signal is silent")
    keep = rms >= peak * 10.0 ** (-threshold_db / 20.0)
    return AudioSignal(x[np.repeat(keep, n)[:len(x)]], sig.sample_rate)


# --- spectrogram ------------------------------------------------------------

def _cos_turns(frac):
    # cos(2*pi*frac) with exact values at quarter turns; frac reduction is
    # exact for the dyadic fractions k/K used by the window.
    r = np.asarray(frac, dtype=np.float64) % 1.0
    r = np.where(r > 0.5, 1.0 - r, r)
    sign = np.where(r > 0.25, -1.0, 1.0)
    r = np.where(r > 0.25, 0.5 - r, r)
    return sign * np.sin(2.0 * np.pi * (0.25 - r))


def hann_window(window_len):
    """Periodic Hann window w[k] = 0.5*(1 - cos(2*pi*k/K))."""
    k = np.arange(window_len)
    return 0.5 * (1.0 - _cos_turns(k / window_len))


@lru_cache(maxsize=16)
def _hann(window_len):
    """hann_window(window_len), read-only, computed once per process."""
    w = hann_window(window_len)
    w.setflags(write=False)
    return w


def stft(sig, window_len=256, hop=128):
    """Magnitude spectrogram with a periodic Hann window, no padding."""
    if window_len < 2 or hop < 1:
        raise ValueError("window_len must be >= 2 and hop >= 1")
    n = len(sig.samples)
    if n < window_len:
        raise ValueError(f"signal shorter than one window ({n} < {window_len})")
    frames = np.lib.stride_tricks.sliding_window_view(
        sig.samples, window_len)[::hop] * _hann(window_len)
    mags = np.abs(np.fft.rfft(frames, axis=1)).T
    return Spectrogram(magnitudes=mags,
                       bin_freqs=stft_freqs(window_len, sig.sample_rate),
                       frame_hop=hop, window_len=window_len,
                       sample_rate=sig.sample_rate)


def stft_freqs(window_len, sample_rate):
    """The frequencies in Hz of stft's bins, 0 to sample_rate / 2."""
    return np.arange(window_len // 2 + 1) * (sample_rate / window_len)


def require_windows(n_samples, window_len, hop, n_points):
    """Raise a ValueError unless n_samples give stft n_points frames."""
    need = window_len + (n_points - 1) * hop
    if n_samples < need:
        raise ValueError(
            f"{n_samples} samples per clip cannot fill {n_points} "
            f"windows of {window_len} at hop {hop} (need at least {need})")


# --- frame-level features ---------------------------------------------------

SPECTRAL_FEATURES = (
    "centroid", "crest", "decrease", "entropy", "f0", "flatness",
    "flux", "kurtosis", "rolloff", "skewness", "slope", "spread",
)

ROLLOFF_FRACTION = 0.95
F0_MIN_HZ = 60.0
F0_MAX_HZ = 1000.0
F0_MIN_PEAK = 0.3


def spectral_features(spec):
    """Twelve per-frame descriptors of the magnitude spectrum.

    Degenerate all-zero frames take fixed values: moment features, slope and
    decrease are 0, flatness is 1, entropy is log2(bins), crest is 0.
    Returned dict is in alphabetical attribute order.
    """
    m = spec.magnitudes
    f = spec.bin_freqs
    bins, n_frames = m.shape
    tot = m.sum(axis=0)
    zero = tot == 0.0
    safe_tot = np.where(zero, 1.0, tot)
    p = m / safe_tot

    centroid = (p * f[:, None]).sum(axis=0)
    dev = f[:, None] - centroid[None, :]
    spread = np.sqrt(np.maximum((p * dev ** 2).sum(axis=0), 0.0))
    nz_spread = spread > 0.0
    skewness = np.zeros(n_frames)
    kurtosis = np.zeros(n_frames)
    skewness[nz_spread] = (p * dev ** 3).sum(axis=0)[nz_spread] / spread[nz_spread] ** 3
    kurtosis[nz_spread] = (p * dev ** 4).sum(axis=0)[nz_spread] / spread[nz_spread] ** 4

    with np.errstate(divide="ignore"):
        log_m = np.log(m, out=np.full_like(m, -np.inf), where=m > 0.0)
    gmean = np.exp(log_m.mean(axis=0))
    gmean[np.isneginf(log_m).any(axis=0)] = 0.0
    amean = m.mean(axis=0)
    flatness = np.where(zero, 1.0, gmean / np.where(zero, 1.0, amean))

    crest = np.where(zero, 0.0, m.max(axis=0) / np.where(zero, 1.0, amean))

    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    entropy = -plogp.sum(axis=0)
    entropy[zero] = math.log2(bins)

    prev = np.concatenate([np.zeros((bins, 1)), m[:, :-1]], axis=1)
    flux = np.sqrt(((m - prev) ** 2).sum(axis=0))

    cum = np.cumsum(m, axis=0)
    hit = cum >= ROLLOFF_FRACTION * tot[None, :]
    rolloff = f[np.argmax(hit, axis=0)]

    fdev = f - f.mean()
    mdev = m - amean[None, :]
    slope = (fdev[:, None] * mdev).sum(axis=0) / float((fdev ** 2).sum())

    rest = m[1:, :]
    denom = rest.sum(axis=0)
    weights = 1.0 / np.arange(1, bins)
    decrease = np.where(denom > 0.0,
                        (weights[:, None] * (rest - m[0][None, :])).sum(axis=0)
                        / np.where(denom > 0.0, denom, 1.0),
                        0.0)

    f0 = _fundamental(spec)

    out = {
        "centroid": centroid, "crest": crest, "decrease": decrease,
        "entropy": entropy, "f0": f0, "flatness": flatness, "flux": flux,
        "kurtosis": kurtosis, "rolloff": rolloff, "skewness": skewness,
        "slope": slope, "spread": spread,
    }
    return {k: out[k] for k in SPECTRAL_FEATURES}


def _fundamental(spec):
    # normalized autocorrelation via the power spectrum, peak in [60, 1000] Hz
    sr = spec.sample_rate
    n_frames = spec.magnitudes.shape[1]
    r = np.fft.irfft(spec.magnitudes ** 2, n=spec.window_len, axis=0)
    r0 = r[0]
    lag_lo = max(1, math.ceil(sr / F0_MAX_HZ))
    lag_hi = min(spec.window_len - 1, math.floor(sr / F0_MIN_HZ))
    if lag_lo > lag_hi:
        return np.zeros(n_frames)
    seg = r[lag_lo:lag_hi + 1]
    norm = np.where(r0 > 0.0, r0, 1.0)
    seg = seg / norm[None, :]
    best = np.argmax(seg, axis=0)
    peak = seg[best, np.arange(n_frames)]
    voiced = (r0 > 0.0) & (peak >= F0_MIN_PEAK)
    return np.where(voiced, sr / (lag_lo + best), 0.0)


# --- Mel filterbank and cepstrum --------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_filters, sample_rate, bin_freqs):
    """Triangular filters with centers evenly spaced on the Mel scale.

    Returns (weights, centers): weights is (n_filters, bins), each row
    non-negative, unimodal, renormalized to peak exactly 1 over the bins.
    """
    if n_filters < 2:
        raise ValueError("need at least 2 Mel filters")
    pts = mel_to_hz(np.linspace(0.0, float(hz_to_mel(sample_rate / 2.0)),
                                n_filters + 2))
    centers = pts[1:-1]
    weights = np.zeros((n_filters, len(bin_freqs)))
    for i in range(n_filters):
        weights[i] = triangle_response(bin_freqs, pts[i], pts[i + 1], pts[i + 2])
        peak = weights[i].max()
        if peak > 0.0:
            weights[i] /= peak
    return weights, centers


def triangle_response(f, left, center, right):
    """Piecewise-linear bump: 0 at the edges, exactly 1 at the center."""
    f = np.asarray(f, dtype=np.float64)
    up = (f - left) / (center - left)
    down = (right - f) / (right - center)
    return np.maximum(0.0, np.minimum(up, down))


@lru_cache(maxsize=16)
def _mel_bank(n_filters, sample_rate, freq_bytes):
    """mel_spectrogram's read-only weights and tuple of names for the bin
    frequencies whose float64 bytes are freq_bytes, built once per
    process; a collision raises on every call, since nothing is kept."""
    weights, centers = mel_filterbank(n_filters, sample_rate,
                                      np.frombuffer(freq_bytes))
    names = tuple(f"mel_{int(round(c))}" for c in centers)
    if len(set(names)) != len(names):
        raise ValueError("Mel centers collide after rounding to integer Hz")
    weights.setflags(write=False)
    return weights, names


def mel_spectrogram(spec, n_filters=26):
    """Mel-filtered magnitudes; names carry the center frequency in Hz."""
    freqs = np.asarray(spec.bin_freqs, dtype=np.float64)
    weights, names = _mel_bank(n_filters, spec.sample_rate, freqs.tobytes())
    return dict(zip(names, weights @ spec.magnitudes))


LOG_FLOOR = 1e-10

# pi as pocketfft writes it, a long double literal; its sqrt(2) literal
# rounds to this double
_PI_L = np.longdouble("3.141592653589793238462643383279502884197")
_SQRT2 = 1.4142135623730951


@lru_cache(maxsize=16)
def _dct_plan(n):
    """pocketfft's constants of the length-n DCT-II: the scale
    1/sqrt(2n), rounded once from long double, and the twiddles w[i], the
    cosines of 2*pi*(i+1)/(4n), as (w[k-1], w[n-k-1]) columns for k from 1
    to (n+1)//2 - 1, and w[n//2 - 1].  Each twiddle is pocketfft's product
    of two table roots, v1[j & mask] times v2[j >> shift] for j = i+1, and
    each root comes from libm's cos and sin at a multiple of pi/(16n) of at
    most pi/4.  Read-only, built once per n."""
    ang = float(np.longdouble(0.25) * _PI_L / np.longdouble(4 * n))
    shift = 1
    while (1 << shift) ** 2 < 2 * n + 1:
        shift += 1
    mask = (1 << shift) - 1

    def root(x):   # (cos, sin) of 2*pi*x/(4n), for 0 <= x <= n
        y = 8 * x
        if y < 4 * n:
            return math.cos(y * ang), math.sin(y * ang)
        if y < 8 * n:
            return math.sin((8 * n - y) * ang), math.cos((8 * n - y) * ang)
        return -0.0, 1.0   # pocketfft's -sin(0), cos(0)

    w = []
    for j in range(1, n + 1):
        (ar, ai), (br, bi) = root(j & mask), root(j >> shift << shift)
        w.append(ar * br - ai * bi)
    h = (n + 1) // 2
    wk = np.array(w[:h - 1])[:, None]
    wkc = np.array(w[n - 2:n - h - 1:-1])[:, None]
    wk.setflags(write=False)
    wkc.setflags(write=False)
    fct = float(np.longdouble(1) / np.sqrt(np.longdouble(2 * n)))
    return fct, wk, wkc, w[n // 2 - 1]


def _dct(x):
    """scipy.fft.dct(x, type=2, axis=0, norm="ortho") of a 2-d x, bit for
    bit on numpy >= 2: pocketfft's DCT-II in its own order of operations
    around numpy's real FFT, which is the same pocketfft."""
    c = np.asarray(x, dtype=np.float64)
    n = c.shape[0]
    fct, wk, wkc, wmid = _dct_plan(n)
    h, p = (n + 1) // 2, (n - 1) // 2
    lo, hi = slice(1, h), slice(n - 1, n - h, -1)   # rows k and n-k
    odd, even = slice(1, 2 * p, 2), slice(2, 2 * p + 1, 2)
    out = np.empty_like(c)
    # pocketfft's half-complex input 2c[0], c[2]+c[1], c[2]-c[1], ... as
    # bins; irfft reads no imaginary part of bin 0 or bin n/2
    z = np.zeros((n // 2 + 1, c.shape[1]), dtype=np.complex128)
    np.multiply(c[0], 2.0, out=z.real[0])
    np.add(c[even], c[odd], out=z.real[1:p + 1])
    np.subtract(c[even], c[odd], out=z.imag[1:p + 1])
    if n % 2 == 0:
        np.multiply(c[n - 1], 2.0, out=z.real[n // 2])
    y = np.fft.irfft(z, n=n, axis=0, norm="forward")
    y *= fct
    t1 = wk * y[hi]
    t1 += wkc * y[lo]
    t2 = wk * y[lo]
    t2 -= wkc * y[hi]
    np.add(t1, t2, out=out[lo])
    np.subtract(t1, t2, out=out[hi])
    out[lo] *= 0.5
    out[hi] *= 0.5
    if n % 2 == 0:
        np.multiply(y[h], wmid, out=out[h])
    np.multiply(y[0], _SQRT2 * 0.5, out=out[0])
    return out


def mel_to_mfcc(mel_matrix, n_coeffs=13):
    """Log (floored at 1e-10) then orthonormal DCT-II, keep n_coeffs rows."""
    logm = np.log(np.maximum(mel_matrix, LOG_FLOOR))
    return _dct(logm)[:n_coeffs]


def delta(series, half_window=2):
    """Two-sided regression slope over +-half_window frames, edges replicated."""
    s = np.atleast_2d(np.asarray(series, dtype=np.float64))
    h = half_window
    padded = np.concatenate(
        [np.repeat(s[:, :1], h, axis=1), s, np.repeat(s[:, -1:], h, axis=1)],
        axis=1)
    num = np.zeros_like(s)
    for k in range(1, h + 1):
        num += k * (padded[:, h + k:h + k + s.shape[1]]
                    - padded[:, h - k:h - k + s.shape[1]])
    out = num / (2.0 * sum(k * k for k in range(1, h + 1)))
    return out if np.asarray(series).ndim == 2 else out[0]


def mfcc_with_deltas(mel, n_coeffs=13):
    """Cepstral coefficients 0..n-1 plus first and second slope series of
    the named Mel band series."""
    mel_matrix = np.vstack(list(mel.values()))
    if n_coeffs < 1 or n_coeffs > mel_matrix.shape[0]:
        raise ValueError("n_coeffs must be in 1..n_filters")
    c = mel_to_mfcc(mel_matrix, n_coeffs)
    d = delta(c)
    dd = delta(d)
    out = {}
    for i in range(n_coeffs):
        out[f"mfcc_{i}"] = c[i]
    for i in range(n_coeffs):
        out[f"delta_{i}"] = d[i]
    for i in range(n_coeffs):
        out[f"deltadelta_{i}"] = dd[i]
    return out


# --- cube assembly ----------------------------------------------------------

def assemble_cube(spectral, mel, mfcc):
    """Concatenate the three feature groups into one named cube.

    Order: spectral (alphabetical), Mel (ascending center), cepstral blocks.
    """
    names = []
    rows = []
    for group in (spectral, mel, mfcc):
        for name, series in group.items():
            names.append(name)
            rows.append(np.asarray(series, dtype=np.float64))
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ValueError(f"feature series lengths differ: {sorted(lengths)}")
    return FeatureCube(tuple(names), np.vstack(rows))


def temporal_downsample(cube, n_points=5, overlap=0.2):
    """Average the series over n_points windows with fractional overlap."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not (0.0 <= overlap < 1.0):
        raise ValueError("overlap must be in [0, 1)")
    T = cube.values.shape[1]
    if T < n_points:
        raise ValueError(f"series of length {T} cannot yield {n_points} windows")
    denom = n_points - (n_points - 1) * overlap
    width = int(math.ceil(T / denom - 1e-9))
    hop = max(1, int(math.floor((1.0 - overlap) * width + 1e-9)))
    cols = []
    for i in range(n_points):
        lo = i * hop
        hi = min(lo + width, T)
        if lo >= T:
            raise ValueError("window placement ran past the series end")
        cols.append(cube.values[:, lo:hi].mean(axis=1))
    return FeatureCube(cube.names, np.stack(cols, axis=1))


def featurize_signal(sig, *, window_len=256, hop=128, n_mel=26, n_mfcc=13,
                     n_points=5, overlap=0.2):
    """Signal to downsampled feature cube (the full spectral front end)."""
    spec = stft(sig, window_len=window_len, hop=hop)
    spectral = spectral_features(spec)
    mel = mel_spectrogram(spec, n_filters=n_mel)
    ceps = mfcc_with_deltas(mel, n_coeffs=n_mfcc)
    cube = assemble_cube(spectral, mel, ceps)
    return temporal_downsample(cube, n_points=n_points, overlap=overlap)
