"""Flat key=value experiment configuration.

One key per line, '#' starts a comment line, unknown keys are rejected.
parse(serialize(cfg)) reproduces cfg exactly.
"""
from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass

from .audio import (_band_zi, _mel_bank, require_memory,
                    require_windows, stft_freqs)
from .trees import LearnParams


class ConfigError(ValueError):
    pass


# The highest rate in common audio use; a higher target rate only makes
# every array of the front end larger.
MAX_RESAMPLE_HZ = 384_000


@dataclass
class ExperimentConfig:
    # a field named like one of LearnParams takes its default from there,
    # and learn_params_from passes it on
    manifest: str = ""
    task: str = ""
    out_dir: str = "out"
    resample_hz: int = 8000
    bandpass_low: float | None = None
    bandpass_high: float | None = None
    trim: bool = False
    trim_frame_ms: float = 25.0
    trim_threshold_db: float = 35.0
    clip_seconds: float | None = None
    window_len: int = 256
    hop: int = 128
    n_mel: int = 26
    n_mfcc: int = 13
    n_points: int = 5
    overlap: float = 0.2
    mode: str = LearnParams.mode
    model: str = "tree"
    min_gain: float = LearnParams.min_gain
    max_leaf_entropy: float = LearnParams.max_leaf_entropy
    relations: tuple = LearnParams.relations
    n_trees: int = LearnParams.n_trees
    instance_frac: float = LearnParams.instance_frac
    attr_frac: float = LearnParams.attr_frac
    train_frac: float = 0.8
    repeats: int = 10
    rules_trees: int = 3
    seed: int = LearnParams.seed


# each key is read as the type its field is annotated with
_KEY_TYPES = typing.get_type_hints(ExperimentConfig)

_MODE_ALIASES = {"prop": "propositional", "propositional": "propositional",
                 "modal": "modal"}


def normalize_mode(value):
    try:
        return _MODE_ALIASES[value]
    except KeyError:
        raise ConfigError(f"mode must be prop or modal, got {value!r}") \
            from None


def _coerce(key, value):
    if key == "mode":
        return normalize_mode(value)
    if key == "model":
        if value not in ("tree", "forest"):
            raise ConfigError(f"model must be tree or forest, got {value!r}")
        return value
    if key == "relations":
        names = tuple(tok.strip() for tok in value.split(",") if tok.strip())
        if not names:
            raise ConfigError("relations cannot be empty")
        return names
    kind = _KEY_TYPES[key]
    if kind is str:
        return value
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}") \
                from None
    if kind is bool:
        if value.lower() == "true":
            return True
        if value.lower() == "false":
            return False
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    # float, or float | None
    optional = kind == float | None
    if optional and value.lower() in ("", "none"):
        return None
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number"
                          f"{' or none' if optional else ''}, got {value!r}")
    return number


def validate_config(cfg):
    def bad(msg):
        raise ConfigError(msg)
    if not 0 < cfg.resample_hz <= MAX_RESAMPLE_HZ:
        bad(f"resample_hz must lie in 1..{MAX_RESAMPLE_HZ}")
    if cfg.window_len < 2 or cfg.hop <= 0:
        bad("window_len must be at least 2 and hop positive")
    if cfg.n_mel < 2 or cfg.n_mfcc <= 0:
        bad("n_mel must be at least 2 and n_mfcc positive")
    if cfg.n_mfcc > cfg.n_mel:
        bad("n_mfcc cannot exceed n_mel")
    if cfg.n_points < 2:
        bad("n_points must be at least 2")
    if not 0.0 <= cfg.overlap < 1.0:
        bad("overlap must lie in [0, 1)")
    if cfg.repeats < 1 or cfg.rules_trees < 1:
        bad("repeats and rules_trees must be at least 1")
    if not 0.0 < cfg.train_frac < 1.0:
        bad("train_frac must lie strictly between 0 and 1")
    if (cfg.bandpass_low is None) != (cfg.bandpass_high is None):
        bad("bandpass_low and bandpass_high must be set together")
    if cfg.bandpass_low is not None:
        if not 0.0 < cfg.bandpass_low < cfg.bandpass_high:
            bad("bandpass edges must satisfy 0 < low < high")
        # the band-pass filters the resampled signal
        if cfg.bandpass_high > cfg.resample_hz / 2:
            bad(f"bandpass_high cannot exceed resample_hz / 2 = "
                f"{cfg.resample_hz / 2}")
    if cfg.clip_seconds is not None:
        try:
            n_samples = round(cfg.clip_seconds * cfg.resample_hz)
        except OverflowError:
            n_samples = 0
        if n_samples < 1:
            bad(f"clip_seconds={cfg.clip_seconds} at resample_hz="
                f"{cfg.resample_hz} is not a usable sample count")
        try:
            require_memory(n_samples * 8, f"one clip of clip_seconds="
                           f"{cfg.clip_seconds} at resample_hz="
                           f"{cfg.resample_hz}")
            require_windows(n_samples, cfg.window_len, cfg.hop, cfg.n_points)
        except ValueError as e:
            raise ConfigError(str(e)) from None
    if cfg.trim_frame_ms <= 0:
        bad("trim_frame_ms must be positive")
    if cfg.trim_threshold_db <= 0:
        bad("trim_threshold_db must be positive")
    # the learner settings are checked where they are used
    try:
        learn_params_from(cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return cfg


def validate_front_end(cfg):
    """featurize's own config checks: the band filter and the Mel bank are
    designed, as every clip would use them, and kept for the clips.  The
    other commands never filter, so they do not pay for the designs."""
    if cfg.bandpass_low is not None:
        # edges near 0 Hz or Nyquist leave no filter
        try:
            _band_zi(cfg.resample_hz, cfg.bandpass_low, cfg.bandpass_high)
        except ValueError as e:
            raise ConfigError(
                f"no band-pass filter from {cfg.bandpass_low} to "
                f"{cfg.bandpass_high} Hz at resample_hz={cfg.resample_hz}: "
                f"{e}") from None
    # the bank of stft's bins at resample_hz, as mel_spectrogram keys it
    try:
        _mel_bank(cfg.n_mel, cfg.resample_hz,
                  stft_freqs(cfg.window_len, cfg.resample_hz).tobytes())
    except ValueError as e:
        raise ConfigError(f"n_mel={cfg.n_mel} at resample_hz="
                          f"{cfg.resample_hz}: {e}") from None


def parse_config(text):
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, "
                              f"got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        seen[key] = _coerce(key, value)
    return validate_config(ExperimentConfig(**seen))


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text)


def serialize_config(cfg):
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            text = "none"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(value)
        else:
            text = str(value)
        lines.append(f"{f.name}={text}")
    return "\n".join(lines) + "\n"


def learn_params_from(cfg):
    """The config's learner settings, LearnParams's defaults for the rest."""
    return LearnParams(**{f.name: getattr(cfg, f.name)
                          for f in dataclasses.fields(LearnParams)
                          if f.name in _KEY_TYPES})
