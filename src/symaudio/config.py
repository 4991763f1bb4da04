"""Flat key=value experiment configuration.

One key per line, '#' starts a comment line, unknown keys are rejected.
parse(serialize(cfg)) reproduces cfg exactly.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .audio import require_memory
from .logiset import FEATURE_FNS
from .trees import DEFAULT_RELATIONS, LearnParams


class ConfigError(ValueError):
    pass


# The highest rate in common audio use; a higher target rate only makes
# every array of the front end larger.
MAX_RESAMPLE_HZ = 384_000


@dataclass
class ExperimentConfig:
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
    mode: str = "modal"
    model: str = "tree"
    min_gain: float = 0.01
    max_leaf_entropy: float = 0.6
    relations: tuple = DEFAULT_RELATIONS
    n_trees: int = 100
    instance_frac: float = 0.7
    attr_frac: float = 0.5
    train_frac: float = 0.8
    repeats: int = 10
    rules_trees: int = 3
    seed: int = 0


_STR_KEYS = {"manifest", "task", "out_dir"}
_INT_KEYS = {"resample_hz", "window_len", "hop", "n_mel", "n_mfcc",
             "n_points", "n_trees", "repeats", "rules_trees", "seed"}
_FLOAT_KEYS = {"trim_frame_ms", "trim_threshold_db", "overlap", "min_gain",
               "max_leaf_entropy", "instance_frac", "attr_frac", "train_frac"}
_OPT_FLOAT_KEYS = {"bandpass_low", "bandpass_high", "clip_seconds"}
_BOOL_KEYS = {"trim"}

_MODE_ALIASES = {"prop": "propositional", "propositional": "propositional",
                 "modal": "modal"}


def normalize_mode(value):
    try:
        return _MODE_ALIASES[value]
    except KeyError:
        raise ConfigError(f"mode must be prop or modal, got {value!r}") \
            from None


def _coerce(key, value):
    if key in _STR_KEYS:
        return value
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}") \
                from None
    if key in _FLOAT_KEYS or key in _OPT_FLOAT_KEYS:
        if key in _OPT_FLOAT_KEYS and value.lower() in ("", "none"):
            return None
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ConfigError(f"{key} must be a finite number"
                              f"{' or none' if key in _OPT_FLOAT_KEYS else ''}"
                              f", got {value!r}")
        return number
    if key in _BOOL_KEYS:
        if value.lower() == "true":
            return True
        if value.lower() == "false":
            return False
        raise ConfigError(f"{key} must be true or false, got {value!r}")
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
    raise ConfigError(f"unknown config key {key!r}")


def validate_config(cfg):
    def bad(msg):
        raise ConfigError(msg)
    if not 0 < cfg.resample_hz <= MAX_RESAMPLE_HZ:
        bad(f"resample_hz must lie in 1..{MAX_RESAMPLE_HZ}")
    if cfg.window_len <= 0 or cfg.hop <= 0:
        bad("window_len and hop must be positive")
    if cfg.n_mel <= 0 or cfg.n_mfcc <= 0:
        bad("n_mel and n_mfcc must be positive")
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


def parse_config(text):
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
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
        if key not in known:
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
    return LearnParams(mode=cfg.mode, min_gain=cfg.min_gain,
                       max_leaf_entropy=cfg.max_leaf_entropy,
                       relations=tuple(cfg.relations),
                       functions=FEATURE_FNS, n_trees=cfg.n_trees,
                       instance_frac=cfg.instance_frac,
                       attr_frac=cfg.attr_frac, seed=cfg.seed)
