"""WAV decoding, DSP front end, and feature cube assembly."""
import io
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import butter, sosfilt_zi, sosfiltfilt

import reference_resample
from symaudio import audio
from symaudio.audio import (AudioDecodeError, AudioSignal, FeatureCube,
                            SPECTRAL_FEATURES, Spectrogram, assemble_cube,
                            bandpass, decode_wav, delta, featurize_signal,
                            hann_window, hz_to_mel, mel_filterbank,
                            mel_spectrogram, mel_to_hz, mel_to_mfcc,
                            mfcc_with_deltas, resample,
                            spectral_features, stft, temporal_downsample,
                            triangle_response, trim_nonspeech)

SR = 8000


def _tone(freq, seconds=1.0, rate=SR, amp=1.0):
    t = np.arange(int(round(seconds * rate))) / rate
    return AudioSignal(amp * np.sin(2.0 * np.pi * freq * t), rate)


# --- decoding ----------------------------------------------------------------

def test_decode_int16(tmp_path):
    p = tmp_path / "a.wav"
    wavfile.write(p, SR, np.array([0, 16384, -16384], dtype=np.int16))
    sig = decode_wav(p)
    assert sig.sample_rate == SR
    assert list(sig.samples) == [0.0, 0.5, -0.5]


def test_decode_int32(tmp_path):
    p = tmp_path / "a.wav"
    wavfile.write(p, SR, np.array([0, 2 ** 30], dtype=np.int32))
    assert list(decode_wav(p).samples) == [0.0, 0.5]


def test_decode_uint8(tmp_path):
    p = tmp_path / "a.wav"
    wavfile.write(p, SR, np.array([128, 192, 64], dtype=np.uint8))
    assert list(decode_wav(p).samples) == [0.0, 0.5, -0.5]


def test_decode_float_passthrough(tmp_path):
    p = tmp_path / "a.wav"
    wavfile.write(p, SR, np.array([0.25, -0.75], dtype=np.float32))
    got = decode_wav(p).samples
    assert got == pytest.approx([0.25, -0.75], abs=1e-7)


def test_decode_stereo_mean(tmp_path):
    p = tmp_path / "a.wav"
    frames = np.array([[0.2, 0.4], [-0.2, -0.4]], dtype=np.float32)
    wavfile.write(p, SR, frames)
    got = decode_wav(p).samples
    assert got == pytest.approx([0.3, -0.3], abs=1e-6)


def test_decode_errors(tmp_path):
    empty = tmp_path / "empty.wav"
    wavfile.write(empty, SR, np.array([], dtype=np.int16))
    with pytest.raises(AudioDecodeError):
        decode_wav(empty)
    junk = tmp_path / "junk.wav"
    junk.write_bytes(b"this is not audio at all")
    with pytest.raises(AudioDecodeError):
        decode_wav(junk)
    with pytest.raises(FileNotFoundError):
        decode_wav(tmp_path / "missing.wav")


# WAV files written byte by byte: (format tag, bytes per sample, bits, and
# the range of the integers written) per sample kind
_KINDS = {"u8": (1, 1, 8, 0, 255), "s16": (1, 2, 16, -2 ** 15, 2 ** 15 - 1),
          "s24": (1, 3, 24, -2 ** 23, 2 ** 23 - 1),
          "s32": (1, 4, 32, -2 ** 31, 2 ** 31 - 1),
          "f32": (3, 4, 32, -1, 1), "f64": (3, 8, 64, -1, 1)}


def _chunk(cid, body, order="<", size=None):
    size = len(body) if size is None else size
    return cid + struct.pack(order + "I", size) + body + b"\0" * (len(body) % 2)


def _fmt(order, tag, channels, width, bits, extensible=False):
    body = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag,
                       channels, SR, SR * channels * width, channels * width,
                       bits)
    if extensible:
        # cbSize, valid bits, channel mask, then the sub-format GUID, whose
        # first three fields are in the file's byte order
        body += struct.pack(order + "HHIIHH", 22, bits, 0, tag, 0, 0x10)
        body += b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return _chunk(b"fmt ", body, order)


def _wave(chunks, order="<", magic=None):
    body = b"WAVE" + b"".join(chunks)
    magic = magic or (b"RIFF" if order == "<" else b"RIFX")
    return magic + struct.pack(order + "I", len(body)) + body


def _pack(order, kind, values):
    if kind == "s24":
        four = [struct.pack(order + "i", v) for v in values]
        return b"".join(b[:3] if order == "<" else b[1:] for b in four)
    code = {"u8": "B", "s16": "h", "s32": "i", "f32": "f", "f64": "d"}[kind]
    return struct.pack(f"{order}{len(values)}{code}", *values)


def _written(kind, channels, rng, frames=6):
    # the values a file holds, the samples scipy.io.wavfile gives for them
    # (24-bit left-justified in int32), and decode_wav's mono signal
    tag, _, _, lo, hi = _KINDS[kind]
    if tag == 3:
        values = rng.uniform(lo, hi, (frames, channels)).astype(
            np.float32 if kind == "f32" else np.float64)
        raw, mono = values, values.astype(np.float64).mean(axis=1)
    else:
        values = rng.integers(lo, hi, (frames, channels), endpoint=True)
        values[0, 0], values[-1, -1] = lo, hi
        mean = values.astype(np.float64).mean(axis=1)
        raw, mono = {
            "u8": (values.astype(np.uint8), (mean - 128.0) / 128.0),
            "s16": (values.astype(np.int16), mean / 2.0 ** 15),
            "s24": ((values * 256).astype(np.int32), mean / 2.0 ** 23),
            "s32": (values.astype(np.int32), mean / 2.0 ** 31)}[kind]
    return values, (raw if channels > 1 else raw[:, 0]), mono


def _scipy_read(blob):
    # scipy.io.wavfile's reading in native byte order, or None if it fails
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rate, data = wavfile.read(io.BytesIO(blob))
    except ValueError:
        return None
    return rate, data.astype(data.dtype.newbyteorder("="))


def _assert_reads(tmp_path, blob, raw, mono):
    rate, got = audio._read_wav(blob)
    assert rate == SR and got.dtype == raw.dtype and got.shape == raw.shape
    assert got.tobytes() == raw.tobytes()
    path = tmp_path / "crafted.wav"
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sig = decode_wav(path)
    assert sig.sample_rate == SR and sig.samples.tobytes() == mono.tobytes()
    return got


@pytest.mark.parametrize("order", ["<", ">"])
@pytest.mark.parametrize("extensible", [False, True])
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_decode_formats_bit_for_bit(tmp_path, kind, channels, extensible,
                                    order):
    # RIFF and RIFX, plain and WAVE_FORMAT_EXTENSIBLE headers, an odd-sized
    # LIST chunk and its pad byte before the data; the expected samples come
    # from the integers written, and match scipy's wherever it reads the file
    tag, width, bits = _KINDS[kind][:3]
    values, raw, mono = _written(kind, channels, np.random.default_rng(
        [sorted(_KINDS).index(kind), channels, extensible, order == "<"]))
    blob = _wave([_fmt(order, tag, channels, width, bits, extensible),
                  _chunk(b"LIST", b"INFOodd", order),
                  _chunk(b"data", _pack(order, kind, values.ravel().tolist()),
                         order)], order)
    got = _assert_reads(tmp_path, blob, raw, mono)
    old = _scipy_read(blob)
    if order == "<" and not extensible:
        assert old is not None
    if old is not None:
        assert old[0] == SR and old[1].dtype == got.dtype
        assert old[1].shape == got.shape
        assert old[1].tobytes() == got.tobytes()


def test_decode_reads_the_whole_frames_of_a_ragged_data_chunk(tmp_path):
    # 4 stereo 16-bit frames and 3 bytes more (so a pad byte), then a chunk
    # the reader skips
    values, raw, mono = _written("s16", 2, np.random.default_rng(1), 4)
    data = _pack("<", "s16", values.ravel().tolist()) + b"\x01\x02\x03"
    blob = _wave([_fmt("<", 1, 2, 2, 16), _chunk(b"data", data),
                  _chunk(b"LIST", b"INFO")])
    _assert_reads(tmp_path, blob, raw, mono)


@pytest.mark.parametrize("claim", [2 ** 20, 0xFFFFFFF0])
def test_decode_reads_an_overclaimed_data_chunk_without_warning(tmp_path,
                                                                claim):
    # a recording cut short: its data chunk and RIFF size claim more bytes
    # than the file holds, and the last frame is cut too
    values, raw, mono = _written("s24", 2, np.random.default_rng(2), 5)
    data = _pack("<", "s24", values.ravel().tolist()) + b"\x07\x08"
    blob = bytearray(_wave([_fmt("<", 1, 2, 3, 24),
                            _chunk(b"data", data, size=claim)]))
    blob[4:8] = struct.pack("<I", min(claim + 36, 0xFFFFFFFF))
    _assert_reads(tmp_path, bytes(blob), raw, mono)
    old = _scipy_read(bytes(blob)[:-2])
    if old is not None:
        assert old[1].tobytes() == raw.tobytes()


def test_decode_rf64_stops_at_the_data_size_in_ds64(tmp_path):
    # RF64's data chunk says 0xFFFFFFFF; its size is in the ds64 chunk, and
    # a chunk after the data is not read as samples
    values, raw, mono = _written("s16", 1, np.random.default_rng(3), 7)
    data = _pack("<", "s16", values.ravel().tolist())
    ds64 = struct.pack("<QQQI", 0xFFFFFFFF, len(data), len(values), 0)
    blob = _wave([_chunk(b"ds64", ds64), _fmt("<", 1, 1, 2, 16),
                  _chunk(b"data", data, size=0xFFFFFFFF),
                  _chunk(b"LIST", b"INFOtail")], magic=b"RF64")
    blob = blob[:4] + struct.pack("<I", 0xFFFFFFFF) + blob[8:]
    _assert_reads(tmp_path, blob, raw, mono)
    old = _scipy_read(blob)
    if old is not None:
        assert old[1].tobytes() == raw.tobytes()


def _malformed():
    data = _chunk(b"data", _pack("<", "s16", [1, -1, 2, -2]))
    good = _wave([_fmt("<", 1, 1, 2, 16), data])
    return {"no fmt chunk": _wave([data]),
            "data before fmt": _wave([data, _fmt("<", 1, 1, 2, 16)]),
            "mu-law": _wave([_fmt("<", 7, 1, 1, 8), data]),
            "float of 16 bits": _wave([_fmt("<", 3, 1, 2, 16), data]),
            "no channels": _wave([_fmt("<", 1, 0, 2, 16), data]),
            "header cut in fmt": good[:24],
            "header cut in RIFF": good[:10],
            "RIFF form not WAVE": good[:8] + b"AVI " + good[12:]}


@pytest.mark.parametrize("case", sorted(_malformed()))
def test_decode_rejects_malformed_headers(tmp_path, case):
    path = tmp_path / "bad.wav"
    path.write_bytes(_malformed()[case])
    with pytest.raises(AudioDecodeError, match="unreadable WAV file"):
        decode_wav(path)


def _headed_blobs():
    # RIFX stereo 24-bit after a LIST chunk, a mono data chunk that claims
    # more than the file holds, and RF64 with its size in ds64
    rng = np.random.default_rng(4)
    wide = _written("s24", 2, rng, 5)[0].ravel().tolist()
    mono = _pack("<", "s16", _written("s16", 1, rng, 7)[0].ravel().tolist())
    ds64 = struct.pack("<QQQI", 0xFFFFFFFF, len(mono), 7, 0)
    rf64 = _wave([_chunk(b"ds64", ds64), _fmt("<", 1, 1, 2, 16),
                  _chunk(b"data", mono, size=0xFFFFFFFF)], magic=b"RF64")
    return [_wave([_fmt(">", 1, 2, 3, 24), _chunk(b"LIST", b"INFOodd", ">"),
                   _chunk(b"data", _pack(">", "s24", wide), ">")], ">"),
            _wave([_fmt("<", 1, 1, 2, 16),
                   _chunk(b"data", mono + b"\x01", size=2 ** 20)]),
            rf64[:4] + struct.pack("<I", 0xFFFFFFFF) + rf64[8:]]


def test_wav_header_reads_the_rate_and_frames_decode_wav_does(tmp_path):
    path = tmp_path / "clip.wav"
    for blob in _headed_blobs():
        path.write_bytes(blob)
        assert audio.wav_header(path) == (SR, len(decode_wav(path).samples))
    for blob in [b"", *_malformed().values()]:
        path.write_bytes(blob)
        with pytest.raises(ValueError):
            audio.wav_header(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_wav_header_leaves_a_named_pipe_unread(tmp_path):
    # what a header read took from a pipe would be gone for decode_wav
    path = tmp_path / "clip.wav"
    os.mkfifo(path)
    blob = _headed_blobs()[0]
    fd = os.open(path, os.O_RDWR)   # a writer, so no open of the pipe waits
    try:
        os.write(fd, blob)
        with pytest.raises(ValueError, match="not a regular file"):
            audio.wav_header(path)
        assert os.read(fd, len(blob) + 1) == blob
    finally:
        os.close(fd)


# --- resampling and filtering ------------------------------------------------

def test_resample_identity():
    sig = _tone(440.0, 0.1)
    out = resample(sig, SR)
    assert out.sample_rate == SR
    assert np.array_equal(out.samples, sig.samples)
    assert out.samples is not sig.samples


def test_resample_length_law():
    sig = _tone(440.0, 1.0, rate=16000)
    out = resample(sig, 8000)
    assert len(out.samples) == 8000
    odd = AudioSignal(np.ones(1001), 16000)
    assert len(resample(odd, 8000).samples) == round(1001 * 0.5)


def test_resample_preserves_tone():
    sig = _tone(1000.0, 0.5, rate=16000)
    out = resample(sig, 8000)
    spec = stft(out)
    dominant = spec.bin_freqs[np.argmax(spec.magnitudes.mean(axis=1))]
    assert abs(dominant - 1000.0) <= 8000.0 / 256


@pytest.mark.parametrize("sr,target", [(44100, 8000), (48000, 16000),
                                       (22050, 8000), (8000, 44100),
                                       (8000, 16000), (44101, 8000)])
def test_resample_bitwise_equals_reference(sr, target, monkeypatch):
    taps = 2 * math.ceil(32.0 / min(1.0, target / sr)) + 1
    rng = np.random.default_rng(sr + target)
    # inputs shorter than the kernel, and one of several default blocks
    for n in (40, taps - 1, int(3.5 * audio.RESAMPLE_BLOCK / taps * sr
                                / target)):
        sig = AudioSignal(rng.standard_normal(n), sr)
        want = reference_resample.resample(sig, target).samples
        n_out = len(want)
        # the default block and kernel cache, all rows in one block, blocks
        # whose last one is partial, and a cache cleared at every block
        for rows, cache in ((None, None), (n_out, None),
                            (n_out // 3 + 1, None), (n_out // 3 + 1, 0)):
            if rows is not None:
                monkeypatch.setattr(audio, "RESAMPLE_BLOCK", rows * taps)
            if cache is not None:
                monkeypatch.setattr(audio, "KERNEL_CACHE", cache)
            got = resample(sig, target).samples
            assert got.view(np.uint64).tolist() == \
                want.view(np.uint64).tolist()
        monkeypatch.undo()


def test_resample_rows_reused_across_rate_pairs_stay_bitwise():
    # the kept rows follow the rate pair: a call at another pair replaces
    # them, and coming back builds them again
    rng = np.random.default_rng(7)
    for sr, target in ((44100, 8000), (48000, 16000), (44100, 8000)):
        for n in (40, 3001, 22050):
            sig = AudioSignal(rng.standard_normal(n), sr)
            got = resample(sig, target).samples
            want = reference_resample.resample(sig, target).samples
            assert got.view(np.uint64).tolist() == \
                want.view(np.uint64).tolist()


@pytest.fixture
def plan_calls(monkeypatch):
    """An empty row store for this thread, and the (lo, hi) of every block
    whose first taps and slots resample works out rather than reads from
    the plan."""
    monkeypatch.setattr(audio._kernel_rows, "store", None, raising=False)
    calls = []

    def recording(store, lo, hi, *args):
        calls.append((lo, hi))
        return block_rows(store, lo, hi, *args)

    block_rows = audio._block_rows
    monkeypatch.setattr(audio, "_block_rows", recording)
    return calls


def test_resample_second_call_computes_no_rows(monkeypatch, plan_calls):
    # nor any row keys: the second clip reads every block from the plan
    rows = []

    def counting(t, *args):
        rows.append(len(t))
        return kernel(t, *args)

    kernel = audio._kernel
    monkeypatch.setattr(audio, "_kernel", counting)
    sig = AudioSignal(np.random.default_rng(8).standard_normal(22050), 44100)
    resample(AudioSignal(np.ones(500), 22050), 8000)   # another pair first
    first = resample(sig, 8000).samples
    assert 0 < sum(rows) < len(first)
    assert audio._kernel_rows.store.planned == len(first)
    rows.clear()
    plan_calls.clear()
    again = resample(sig, 8000).samples
    assert rows == [] and plan_calls == []
    assert again.view(np.uint64).tolist() == first.view(np.uint64).tolist()
    want = reference_resample.resample(sig, 8000).samples
    assert first.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_resample_threads_keep_their_own_rows():
    # each thread keeps its own rows and plan, so threads that switch rate
    # pairs and lengths under one another still match the reference
    rng = np.random.default_rng(10)
    pairs = ((44100, 8000), (48000, 16000))
    jobs = [(AudioSignal(rng.standard_normal(n), sr), target)
            for n in (3001, 22050, 9001) for sr, target in pairs] * 3
    want = [reference_resample.resample(sig, target).samples.tobytes()
            for sig, target in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = [f.result(timeout=60).samples.tobytes() for f in
                   [pool.submit(resample, *job) for job in jobs]]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def _bitwise_reference(sig, target):
    got = resample(sig, target).samples
    want = reference_resample.resample(sig, target).samples
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    return len(got)


def test_resample_plan_extends_and_reads_a_prefix(plan_calls):
    rng = np.random.default_rng(12)
    short, long = 9001, 30001
    n_short = _bitwise_reference(
        AudioSignal(rng.standard_normal(short), 44100), 8000)
    plan_calls.clear()
    # a longer clip works out only the blocks past the plan, then extends it
    n_long = _bitwise_reference(
        AudioSignal(rng.standard_normal(long), 44100), 8000)
    assert plan_calls and all(hi > n_short for lo, hi in plan_calls)
    assert audio._kernel_rows.store.planned == n_long
    plan_calls.clear()
    # a shorter one reads a prefix of it
    _bitwise_reference(AudioSignal(rng.standard_normal(short), 44100), 8000)
    assert plan_calls == []
    assert audio._kernel_rows.store.planned == n_long


def test_resample_plan_stops_at_its_cap(plan_calls, monkeypatch):
    cap = 250                  # not a whole number of 92-row blocks
    monkeypatch.setattr(audio, "PLAN_CAP", cap)
    rng = np.random.default_rng(13)
    sig = AudioSignal(rng.standard_normal(3500), 44100)
    n_out = _bitwise_reference(sig, 8000)
    store = audio._kernel_rows.store
    assert n_out > cap and store.planned == cap
    assert store.plan.shape == (2, cap)
    plan_calls.clear()
    # blocks past the cap work out their keys as before, in the same loop
    _bitwise_reference(AudioSignal(rng.standard_normal(3500), 44100), 8000)
    rows = audio.RESAMPLE_BLOCK // store.table.shape[1]
    assert plan_calls == [(lo, min(lo + rows, n_out))
                          for lo in range(0, n_out, rows) if lo + rows > cap]
    assert store.planned == cap


def test_resample_plan_dropped_with_a_table_cleared_every_block(
        plan_calls, monkeypatch):
    # a table of one block's rows is cleared whenever a block needs a new
    # row, and the plan with it, since its slots name the rows dropped
    monkeypatch.setattr(audio, "KERNEL_CACHE", 0)
    rng = np.random.default_rng(14)
    for n in (30001, 30001, 9001, 40):
        _bitwise_reference(AudioSignal(rng.standard_normal(n), 44100), 8000)
        store = audio._kernel_rows.store
        assert store.planned <= len(store.table)


def test_resample_plan_within_its_cap_at_1_to_6250(plan_calls, monkeypatch):
    # 50 MHz to 8 kHz: one output every 6250 inputs, 400,001 taps, and a
    # table of six rows, enough for every key of the six outputs
    sr, target = 50_000_000, 8000
    taps = 2 * math.ceil(32.0 * sr / target) + 1
    monkeypatch.setattr(audio, "KERNEL_CACHE", 6 * taps)
    monkeypatch.setattr(audio, "PLAN_CAP", 4)
    sig = AudioSignal(np.random.default_rng(15).standard_normal(6 * 6250), sr)
    assert _bitwise_reference(sig, target) == 6
    store = audio._kernel_rows.store
    assert store.planned == 4 and store.plan.shape == (2, 4)
    plan_calls.clear()
    _bitwise_reference(sig, target)
    assert plan_calls == [(4, 5), (5, 6)]


def test_warmed_rows_are_the_rows_resample_uses(monkeypatch, plan_calls):
    # rows and plan built from a rate pair and a length alone: clips of that
    # length or shorter then compute no row and read every block from the
    # plan, bit for bit, and warming again builds nothing
    rows = []

    def counting(t, *args):
        rows.append(len(t))
        return kernel(t, *args)

    kernel = audio._kernel
    monkeypatch.setattr(audio, "_kernel", counting)
    audio.warm_resampler(44100, 8000, 22050)
    assert 0 < sum(rows) < 4000
    assert audio._kernel_rows.store.planned == 4000
    rows.clear()
    plan_calls.clear()
    rng = np.random.default_rng(16)
    for n in (22050, 9001):
        _bitwise_reference(AudioSignal(rng.standard_normal(n), 44100), 8000)
    audio.warm_resampler(44100, 8000, 22050)
    assert rows == [] and plan_calls == []


def test_warming_stops_where_the_table_is_full(monkeypatch, plan_calls):
    # 44,101 Hz shares almost no row between outputs: warming fills the
    # table once and stops, rather than build rows that resample would drop
    monkeypatch.setattr(audio, "PLAN_CAP", 2000)
    audio.warm_resampler(44101, 8000, 30001)
    store = audio._kernel_rows.store
    assert 0 < len(store.table) - 92 < len(store.slot_of) <= len(store.table)
    assert store.planned == len(store.slot_of)
    _bitwise_reference(
        AudioSignal(np.random.default_rng(17).standard_normal(30001), 44101),
        8000)


@pytest.mark.parametrize("sr,n_in,error", [
    (44100, 2, "signal too short"),
    (150_000_000, 10 ** 6, "taps per sample, more than 1048576"),
    (44100, 2 ** 62, "needs")])
def test_warming_checks_as_resample_does(sr, n_in, error):
    with pytest.raises(ValueError, match=error):
        audio.warm_resampler(sr, 8000, n_in)


def _reference_kernel(t, half, cutoff):
    # the kernel as reference_resample computes it: np.i0 evaluated on the
    # taps inside the support only, and the window zero outside
    u = t / half
    win = np.zeros_like(t)
    inside = np.abs(u) < 1.0
    i0_beta = float(np.i0(8.0))
    win[inside] = np.i0(8.0 * np.sqrt(1.0 - u[inside] ** 2)) / i0_beta
    return cutoff * np.sinc(cutoff * t) * win


@pytest.mark.parametrize("sr,target", [(44100, 8000), (8000, 44100),
                                       (50_000_000, 8000)])
def test_kernel_equals_the_reference_at_its_edges(sr, target):
    # t = 0 (sinc's zero substitution), t = +-half (u*u is 1, the window
    # must be zero), the floats either side of +-half, and random taps
    cutoff = min(1.0, target / sr)
    half = 32.0 / cutoff
    edges = np.array([half, np.nextafter(half, 0.0),
                      np.nextafter(half, np.inf)])
    rng = np.random.default_rng(sr + target)
    t = np.concatenate([[0.0], edges, -edges,
                        rng.uniform(-1.25 * half, 1.25 * half, 20_000)])
    got = audio._kernel(t, half, cutoff)
    want = _reference_kernel(t, half, cutoff)
    assert got[[1, 4]].tolist() == [0.0, 0.0]
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_resample_memory_is_bounded():
    sig = AudioSignal(np.random.default_rng(0).standard_normal(44100), 44100)
    tracemalloc.start()
    try:
        resample(sig, 8000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_resample_memory_is_bounded_at_the_widest_rows(monkeypatch):
    # 1:8192 gives 524,289 taps, one row per block and a table of one row;
    # the peak counts the padded input, the row's taps and products, the
    # table and np.i0's temporaries, about 16 rows' bytes in all
    monkeypatch.setattr(audio._kernel_rows, "store", None, raising=False)
    sr, target = 8_192_000, 1000
    row_bytes = 8 * (2 * 32 * 8192 + 1)
    sig = AudioSignal(np.random.default_rng(0).standard_normal(4 * 8192), sr)
    tracemalloc.start()
    try:
        assert len(resample(sig, target).samples) == 4
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * row_bytes


def test_resample_rejects_rates_beyond_bounds(monkeypatch):
    sig = AudioSignal(np.ones(10_000), 8000)
    # 2**20 taps per sample cap the downsampling ratio near 1:16384
    with pytest.raises(ValueError, match="taps per sample"):
        resample(AudioSignal(np.ones(100_000), 44100), 2)
    monkeypatch.setattr(audio, "_physical_memory", lambda: 8 * 10**5 - 1)
    with pytest.raises(ValueError, match="GiB of memory"):
        resample(sig, 80_000)      # 1e5 samples out: 8e5 bytes
    monkeypatch.setattr(audio, "_physical_memory", lambda: 8 * 10**5)
    assert len(resample(sig, 80_000).samples) == 10**5


def test_physical_memory_honours_address_space_limit(monkeypatch):
    import resource
    monkeypatch.setattr(resource, "getrlimit", lambda which: (2**30, 2**31))
    assert audio._physical_memory() <= 2**30
    monkeypatch.setattr(resource, "getrlimit",
                        lambda which: (resource.RLIM_INFINITY,) * 2)
    assert audio._physical_memory() > 2**30


def test_bandpass_attenuates_stopband():
    low = _tone(100.0, 2.0)
    mid = _tone(1000.0, 2.0)
    sl = slice(SR // 2, 3 * SR // 2)

    def rms(x):
        return math.sqrt(float(np.mean(x[sl] ** 2)))

    out_low = bandpass(low, 300.0, 2000.0)
    out_mid = bandpass(mid, 300.0, 2000.0)
    assert rms(out_low.samples) < 0.1 * rms(low.samples)
    assert abs(rms(out_mid.samples) / rms(mid.samples) - 1.0) < 0.1


def test_bandpass_upper_edge_at_nyquist_becomes_highpass():
    low = _tone(100.0, 2.0)
    mid = _tone(1000.0, 2.0)
    sl = slice(SR // 2, 3 * SR // 2)

    def rms(x):
        return math.sqrt(float(np.mean(x[sl] ** 2)))

    assert rms(bandpass(low, 300.0, 4000.0).samples) < 0.1 * rms(low.samples)
    ratio = rms(bandpass(mid, 300.0, 4000.0).samples) / rms(mid.samples)
    assert abs(ratio - 1.0) < 0.1


def test_bandpass_equals_uncached_design():
    sig = AudioSignal(np.random.default_rng(9).standard_normal(4000), SR)
    for low, high, design in (
            (100.0, 3000.0, dict(N=4, Wn=[100.0, 3000.0], btype="bandpass")),
            (300.0, 4000.0, dict(N=4, Wn=300.0, btype="highpass"))):
        want = sosfiltfilt(butter(**design, fs=SR, output="sos"), sig.samples)
        for _ in range(2):   # the second call uses the kept design
            got = bandpass(sig, low, high).samples
            assert got.view(np.uint64).tolist() == \
                want.view(np.uint64).tolist()
    assert not audio._band_sos(SR, 100.0, 3000.0).flags.writeable


def _butter_sos(rate, low, high):
    # bandpass's filter as scipy designs it: the high-pass at low when high
    # is Nyquist
    if high >= rate / 2:
        return butter(4, low, btype="highpass", fs=rate, output="sos")
    return butter(4, [low, high], btype="bandpass", fs=rate, output="sos")


def _band_edges(rate):
    # the last two come so near Nyquist that scipy takes some poles as real
    # and pairs them with each other
    nyq = rate / 2
    return [(100.0, 3000.0), (1e-3, 1.0), (0.5, 40.0), (1e-3, nyq - 1e-3),
            (nyq - 10.0, nyq - 1e-3), (nyq / 3, nyq - 0.5), (300.0, nyq),
            (1e-3, nyq), (nyq - 1.0, nyq), (100.0, nyq * (1 - 1e-14)),
            (nyq / 3, np.nextafter(nyq, 0.0))]


def test_band_design_matches_scipy_bit_for_bit():
    # the sections and the initial-state rows, designed in numpy, equal
    # butter's and sosfilt_zi's bytes, with edges near 0 Hz and near
    # Nyquist, and for the high-pass at a Nyquist upper edge
    for rate in (8000, 11025, 16000, 22050, 44100):
        for low, high in _band_edges(rate):
            want = _butter_sos(rate, low, high)
            sos = audio._band_sos.__wrapped__(rate, low, high)
            zi = audio._band_zi.__wrapped__(rate, low, high)
            assert sos.tobytes() == want.tobytes(), (rate, low, high)
            assert zi.tobytes() == sosfilt_zi(want).tobytes(), \
                (rate, low, high)
            assert not sos.flags.writeable and not zi.flags.writeable


def test_bandpass_matches_sosfiltfilt_bit_for_bit():
    # 28 samples is the shortest clip a band-pass takes (sosfiltfilt's
    # 27-sample odd extension needs one more)
    rng = np.random.default_rng(20)
    for rate in (8000, 44100):
        for low, high in _band_edges(rate):
            sos = _butter_sos(rate, low, high)
            for n in (28, 29, 1001, 5797):
                x = rng.standard_normal(n)
                got = bandpass(AudioSignal(x, rate), low, high).samples
                assert got.tobytes() == sosfiltfilt(sos, x).tobytes(), \
                    (rate, low, high, n)


def test_bandpass_degenerate_design_is_a_value_error():
    # edges so near 0 Hz or Nyquist that a section's poles sit at 1 to
    # working precision (at 1e-11 Hz only once real poles pair as scipy
    # pairs them): scipy's sosfilt_zi meets a singular matrix, and so does
    # bandpass, as a ValueError that featurize reports per clip
    x = np.random.default_rng(4).standard_normal(200)
    for low, high in ((1e-5, SR / 2), (1e-11, SR / 2),
                      (100.0, SR / 2 * (1 - 1e-15))):
        with pytest.raises(ValueError):
            sosfiltfilt(_butter_sos(SR, low, high), x)
        with pytest.raises(ValueError):
            bandpass(AudioSignal(x, SR), low, high)


def test_bandpass_after_scipy_signal_is_imported():
    # the kernel is loaded first, then scipy.signal, which imports the
    # same extension module: both filters still give the same bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(audio.__file__)))
    script = """
import sys
import numpy as np
from symaudio import audio
audio.sosfilt_kernel()
assert "scipy.signal" not in sys.modules
from scipy.signal import butter, sosfiltfilt
x = np.random.default_rng(5).standard_normal(3000)
sos = butter(4, [100.0, 3000.0], btype="bandpass", fs=8000, output="sos")
want = sosfiltfilt(sos, x)
got = audio.bandpass(audio.AudioSignal(x, 8000), 100.0, 3000.0).samples
assert got.tobytes() == want.tobytes()
assert sosfiltfilt(sos, x).tobytes() == want.tobytes()
print("same")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stdout.split() == ["same"], \
        proc.stdout + proc.stderr


def test_bandpass_names_the_shortest_clip_it_takes():
    x = np.random.default_rng(3).standard_normal(28)
    assert len(bandpass(AudioSignal(x, SR), 100.0, 3000.0).samples) == 28
    with pytest.raises(ValueError, match="a band-pass needs a clip of at "
                                         "least 28 samples, not 27"):
        bandpass(AudioSignal(x[:27], SR), 100.0, 3000.0)
    # the high-pass has two sections, so a 15-sample extension
    assert len(bandpass(AudioSignal(x[:16], SR), 300.0, 4000.0).samples) \
        == 16
    with pytest.raises(ValueError, match="at least 16 samples, not 15"):
        bandpass(AudioSignal(x[:15], SR), 300.0, 4000.0)


def test_bandpass_bad_edges():
    sig = _tone(440.0, 0.1)
    for low, high in ((500.0, 300.0), (0.0, 300.0), (-10.0, 300.0),
                      (300.0, 5000.0), (300.0, 300.0)):
        with pytest.raises(ValueError):
            bandpass(sig, low, high)


def test_trim_drops_silence():
    t = np.arange(4000) / SR
    sig = AudioSignal(np.concatenate([np.zeros(4000),
                                      np.sin(2.0 * np.pi * 440.0 * t)]), SR)
    out = trim_nonspeech(sig)
    assert abs(out.duration - 0.5) <= 0.025  # within one frame


def test_trim_keeps_constant_level():
    sig = _tone(440.0, 0.5)
    out = trim_nonspeech(sig)
    assert np.array_equal(out.samples, sig.samples)


def test_trim_silent_signal_rejected():
    with pytest.raises(ValueError, match="no speech"):
        trim_nonspeech(AudioSignal(np.zeros(1000), SR))


def _trim_frame_by_frame(sig, frame_ms, threshold_db):
    n = max(1, int(round(sig.sample_rate * frame_ms / 1000.0)))
    frames = [sig.samples[i:i + n] for i in range(0, len(sig.samples), n)]
    rms = np.array([math.sqrt(float(np.mean(f ** 2))) for f in frames])
    keep = rms >= rms.max() * 10.0 ** (-threshold_db / 20.0)
    return np.concatenate([f for f, k in zip(frames, keep) if k])


def test_trim_equals_frame_by_frame_rms():
    # whole frames from one reshape, the last partial frame apart
    rng = np.random.default_rng(17)
    for n, rate in ((44100, 44100), (8001, 8000), (8000, 8000), (150, 8000),
                    (199, 8000), (30011, 22050)):
        level = np.repeat(rng.uniform(0.0, 1.0, n // 97 + 1) ** 4, 97)[:n]
        sig = AudioSignal(rng.standard_normal(n) * level, rate)
        for frame_ms, db in ((25.0, 35.0), (10.5, 10.0), (0.01, 60.0),
                             (1000.0 * n / rate * 0.999, 35.0)):
            got = trim_nonspeech(sig, frame_ms, db).samples
            want = _trim_frame_by_frame(sig, frame_ms, db)
            assert got.view(np.uint64).tolist() == \
                want.view(np.uint64).tolist()


def test_trim_frame_longer_than_the_signal_is_one_frame():
    sig = _tone(440.0, 0.2)
    # 1e308 ms of samples is past a float
    for frame_ms in (200.0, 1e6, 1e308):
        out = trim_nonspeech(sig, frame_ms=frame_ms)
        assert np.array_equal(out.samples, sig.samples)
    with pytest.raises(ValueError, match="no speech"):
        trim_nonspeech(AudioSignal(np.zeros(100), SR), frame_ms=1e308)


# --- spectrogram -------------------------------------------------------------

def test_frame_count_law():
    for n in (256, 300, 8000, 1024):
        sig = AudioSignal(np.ones(n), SR)
        spec = stft(sig)
        assert spec.magnitudes.shape == (129, (n - 256) // 128 + 1)


def test_short_signal_rejected():
    with pytest.raises(ValueError):
        stft(AudioSignal(np.ones(255), SR))


def test_stft_frames_equal_an_index_gather():
    # frames cut by index arrays, hop * frame + offset, give the same bytes
    rng = np.random.default_rng(8)
    for window_len, hop in ((2, 1), (7, 3), (256, 128), (100, 100), (64, 97)):
        for n in (window_len, window_len + 1, 3 * window_len + 5, 2000):
            x = rng.standard_normal(n)
            idx = hop * np.arange((n - window_len) // hop + 1)[:, None] \
                + np.arange(window_len)
            frames = x[idx] * hann_window(window_len)
            want = np.abs(np.fft.rfft(frames, axis=1)).T
            got = stft(AudioSignal(x, SR), window_len=window_len, hop=hop)
            assert got.magnitudes.tobytes() == want.tobytes()


def test_hann_quarter_turns_exact():
    assert list(hann_window(4)) == [0.0, 0.5, 1.0, 0.5]
    w = hann_window(256)
    assert w[0] == 0.0 and w[128] == 1.0 and w[64] == 0.5 and w[192] == 0.5


def test_bin_freqs():
    spec = stft(_tone(440.0, 0.5))
    assert spec.bin_freqs[0] == 0.0
    assert spec.bin_freqs[-1] == 4000.0
    assert np.all(np.diff(spec.bin_freqs) == 31.25)


def test_tone_lands_in_matching_bin():
    for freq in (500.0, 1000.0, 2000.0):
        spec = stft(_tone(freq, 0.5))
        dominant = spec.bin_freqs[np.argmax(spec.magnitudes.mean(axis=1))]
        assert abs(dominant - freq) <= 31.25


# --- frame features ----------------------------------------------------------

def _manual_spec(mags, rate=SR, wl=8):
    mags = np.asarray(mags, dtype=np.float64)
    bins = mags.shape[0]
    freqs = np.arange(bins) * (rate / (2.0 * (bins - 1)))
    return Spectrogram(magnitudes=mags, bin_freqs=freqs, frame_hop=4,
                       window_len=wl, sample_rate=rate)


def test_spectral_names_alphabetical():
    assert SPECTRAL_FEATURES == tuple(sorted(SPECTRAL_FEATURES))
    feats = spectral_features(stft(_tone(440.0, 0.5)))
    assert tuple(feats) == SPECTRAL_FEATURES


def test_single_bin_spectrum():
    m = np.zeros((5, 1))
    m[2, 0] = 3.0
    spec = _manual_spec(m)
    feats = spectral_features(spec)
    assert feats["centroid"][0] == spec.bin_freqs[2]
    assert feats["spread"][0] == 0.0
    assert feats["skewness"][0] == 0.0
    assert feats["kurtosis"][0] == 0.0
    assert feats["flatness"][0] == 0.0
    assert feats["crest"][0] == 5.0  # peak over mean = number of bins
    assert feats["entropy"][0] == 0.0
    assert feats["rolloff"][0] == spec.bin_freqs[2]


def test_flat_spectrum():
    spec = _manual_spec(np.ones((8, 2)))
    feats = spectral_features(spec)
    assert feats["flatness"] == pytest.approx([1.0, 1.0])
    assert feats["entropy"] == pytest.approx([3.0, 3.0])
    assert feats["crest"] == pytest.approx([1.0, 1.0])
    assert feats["slope"] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert feats["flux"][1] == 0.0  # identical consecutive frames


def test_zero_frame_degenerates():
    spec = _manual_spec(np.zeros((8, 1)))
    feats = spectral_features(spec)
    assert feats["centroid"][0] == 0.0
    assert feats["spread"][0] == 0.0
    assert feats["flatness"][0] == 1.0
    assert feats["entropy"][0] == 3.0
    assert feats["crest"][0] == 0.0
    assert feats["slope"][0] == 0.0
    assert feats["decrease"][0] == 0.0
    assert feats["f0"][0] == 0.0


def test_f0_tracks_tone():
    feats = spectral_features(stft(_tone(200.0, 1.0)))
    assert abs(float(np.median(feats["f0"])) - 200.0) <= 15.0


def test_f0_zero_on_noise():
    rng = np.random.default_rng(0)
    sig = AudioSignal(0.3 * rng.normal(size=SR), SR)
    feats = spectral_features(stft(sig))
    assert float(np.median(feats["f0"])) == 0.0


def test_centroid_follows_tone():
    for freq in (500.0, 1000.0, 2000.0):
        feats = spectral_features(stft(_tone(freq, 0.5)))
        assert abs(float(np.median(feats["centroid"])) - freq) <= 62.5


# --- Mel and cepstrum --------------------------------------------------------

def test_mel_scale_reference_point():
    assert float(hz_to_mel(700.0)) == pytest.approx(781.17, abs=0.01)
    assert float(hz_to_mel(0.0)) == 0.0
    assert float(mel_to_hz(hz_to_mel(1234.5))) == pytest.approx(1234.5,
                                                               abs=1e-9)


def test_filterbank_shape_and_peaks():
    spec = stft(_tone(440.0, 0.5))
    weights, centers = mel_filterbank(26, SR, spec.bin_freqs)
    assert weights.shape == (26, 129)
    assert np.all(np.diff(centers) > 0)
    assert np.all(weights >= 0.0)
    for row in weights:
        assert row.max() == 1.0


def test_filterbank_rows_unimodal():
    spec = stft(_tone(440.0, 0.5))
    weights, _ = mel_filterbank(26, SR, spec.bin_freqs)
    for row in weights:
        peak = int(np.argmax(row))
        assert np.all(np.diff(row[:peak + 1]) >= 0.0)
        assert np.all(np.diff(row[peak:]) <= 0.0)


def test_triangle_response_exact_center():
    assert triangle_response(np.array([100.0]), 50.0, 100.0, 300.0)[0] == 1.0
    assert triangle_response(np.array([50.0, 300.0]), 50.0, 100.0,
                             300.0).tolist() == [0.0, 0.0]


def test_front_end_constants_kept_read_only():
    spec = stft(_tone(440.0, 0.5))
    w = audio._hann(256)
    assert w is audio._hann(256) and not w.flags.writeable
    assert w.tobytes() == hann_window(256).tobytes()
    want, centers = mel_filterbank(26, SR, spec.bin_freqs)
    for _ in range(2):    # the second call reads the kept weights
        mel = mel_spectrogram(spec)
        assert list(mel) == [f"mel_{int(round(c))}" for c in centers]
        assert np.vstack(list(mel.values())).tobytes() == \
            (want @ spec.magnitudes).tobytes()
    weights, _ = audio._mel_bank(26, SR, spec.bin_freqs.tobytes())
    assert not weights.flags.writeable
    # a collision is not kept: every call raises it again
    for _ in range(2):
        with pytest.raises(ValueError, match="Mel centers collide"):
            mel_spectrogram(spec, n_filters=3000)


def test_mel_names_and_zero_input():
    spec = _manual_spec(np.zeros((129, 3)), wl=256)
    mel = mel_spectrogram(spec)
    assert len(mel) == 26
    assert all(name.startswith("mel_") for name in mel)
    assert len(set(mel)) == 26
    for series in mel.values():
        assert np.all(series == 0.0)


def test_mfcc_constant_column():
    mel = np.full((26, 4), 2.5)
    c = mel_to_mfcc(mel)
    assert c.shape == (13, 4)
    assert abs(c[0, 0] - math.sqrt(26) * math.log(2.5)) < 1e-9
    assert np.all(np.abs(c[1:]) < 1e-9)


def test_mfcc_log_floor():
    c = mel_to_mfcc(np.zeros((26, 2)))
    assert np.isfinite(c).all()
    assert c[0, 0] == pytest.approx(math.sqrt(26) * math.log(1e-10))


def test_dct_round_trip():
    from scipy.fft import idct
    rng = np.random.default_rng(1)
    mel = np.abs(rng.normal(size=(26, 7))) + 0.1
    logm = np.log(np.maximum(mel, 1e-10))
    back = idct(mel_to_mfcc(mel, n_coeffs=26), type=2, axis=0, norm="ortho")
    assert np.allclose(back, logm, rtol=1e-9, atol=1e-12)


NUMPY_2 = int(np.__version__.split(".")[0]) >= 2


def _assert_same_transform(ours, ref):
    # numpy >= 2 runs the C++ pocketfft that scipy runs, and the DCT keeps
    # its order of operations: the bytes match.  numpy 1's C pocketfft
    # rounds otherwise; both stay within a few units in the last place of
    # each column's largest value, though near-zero outputs may differ in
    # many of their own.
    if NUMPY_2:
        assert ours.tobytes() == ref.tobytes()
    else:
        scale = np.spacing(np.abs(ref).max(axis=0))
        assert np.all(np.abs(ours - ref) <= 16 * scale)


_NEAR_FLOOR = np.array([0.0, np.nextafter(1e-10, 0.0), 1e-10,
                        np.nextafter(1e-10, 1.0)])


def test_dct_matches_scipy_bit_for_bit():
    from scipy.fft import dct
    rng = np.random.default_rng(19)
    for n in range(2, 65):
        for width in (1, 1 + n % 80, 80):
            # Mel energies from 1e-12 to 1e2, with zeros and values at and
            # next to the 1e-10 log floor
            mel = 10.0 ** rng.uniform(-12.0, 2.0, size=(n, width))
            spots = rng.random((n, width)) < 0.3
            mel[spots] = rng.choice(_NEAR_FLOOR, size=spots.sum())
            logm = np.log(np.maximum(mel, 1e-10))
            ref = dct(logm, type=2, axis=0, norm="ortho")
            _assert_same_transform(mel_to_mfcc(mel, n_coeffs=n), ref)
            _assert_same_transform(mel_to_mfcc(mel, n_coeffs=n // 2 + 1),
                                   ref[:n // 2 + 1])


@pytest.mark.skipif(not NUMPY_2, reason="numpy 2's CPU dispatch names")
def test_dct_matches_scipy_bit_for_bit_on_avx2_dispatch():
    # numpy dispatches as on an AVX2 CPU in the child; its FFT and scipy's
    # must still agree
    src = os.path.dirname(os.path.dirname(os.path.abspath(audio.__file__)))
    env = dict(os.environ, PYTHONPATH=src,
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_dct_matches_scipy_bit_for_bit"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(not NUMPY_2, reason="numpy 2's CPU dispatch names")
def test_band_filter_matches_scipy_bit_for_bit_on_avx2_dispatch():
    # the design goes through exp, tan and sqrt, which numpy dispatches by
    # CPU: in the child it dispatches as on an AVX2 CPU
    src = os.path.dirname(os.path.dirname(os.path.abspath(audio.__file__)))
    env = dict(os.environ, PYTHONPATH=src,
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_band_design_matches_scipy_bit_for_bit",
         f"{__file__}::test_bandpass_matches_sosfiltfilt_bit_for_bit"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_delta_properties():
    assert np.all(delta(np.full(9, 3.25)) == 0.0)
    ramp = np.arange(7.0)
    d = delta(ramp)
    assert d[2:5] == pytest.approx([1.0, 1.0, 1.0])
    rng = np.random.default_rng(2)
    x = rng.normal(size=11)
    assert delta(3.0 * x + 5.0) == pytest.approx(3.0 * delta(x), abs=1e-12)


def test_mfcc_with_deltas_names():
    mel = {f"mel_{i}": np.arange(4.0) + i for i in range(26)}
    out = mfcc_with_deltas(mel)
    assert list(out) == [f"mfcc_{i}" for i in range(13)] + \
        [f"delta_{i}" for i in range(13)] + \
        [f"deltadelta_{i}" for i in range(13)]
    with pytest.raises(ValueError):
        mfcc_with_deltas(mel, n_coeffs=27)


# --- assembly and downsampling ----------------------------------------------

def test_assemble_order_and_width():
    cube = featurize_signal(_tone(440.0, 1.0))
    assert len(cube.names) == 77
    assert cube.names[:12] == SPECTRAL_FEATURES
    assert cube.names[12].startswith("mel_")
    assert cube.names[37].startswith("mel_")
    assert cube.names[38] == "mfcc_0"
    assert cube.names[51] == "delta_0"
    assert cube.names[64] == "deltadelta_0"
    assert cube.values.shape == (77, 5)
    assert np.isfinite(cube.values).all()


def test_assemble_length_mismatch():
    with pytest.raises(ValueError):
        assemble_cube({"a": np.ones(4)}, {"b": np.ones(5)}, {})


def test_downsample_window_law():
    cube = FeatureCube(("a",), np.arange(21.0)[None, :])
    out = temporal_downsample(cube)
    assert out.values[0].tolist() == [2.0, 6.0, 10.0, 14.0, 18.0]

    short = FeatureCube(("a",), np.arange(5.0)[None, :])
    out = temporal_downsample(short)
    assert out.values[0].tolist() == [0.5, 1.5, 2.5, 3.5, 4.0]


def test_downsample_constant_and_errors():
    cube = FeatureCube(("a", "b"), np.full((2, 17), 4.5))
    out = temporal_downsample(cube)
    assert np.all(out.values == 4.5)
    with pytest.raises(ValueError):
        temporal_downsample(FeatureCube(("a",), np.ones((1, 4))))
    with pytest.raises(ValueError):
        temporal_downsample(cube, overlap=1.0)
    with pytest.raises(ValueError):
        temporal_downsample(cube, n_points=0)


def test_downsample_lengths():
    for T in range(5, 41):
        cube = FeatureCube(("a",), np.arange(float(T))[None, :])
        out = temporal_downsample(cube)
        assert out.values.shape == (1, 5)
        assert np.all(np.diff(out.values[0]) > 0)


def test_featurize_deterministic():
    sig = _tone(440.0, 1.0)
    a = featurize_signal(sig)
    b = featurize_signal(sig)
    assert a.names == b.names
    assert np.array_equal(a.values, b.values)
