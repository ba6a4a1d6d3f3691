"""Flat key-value run configuration files.

Format: one `key = value` pair per line; blank lines and lines starting
with '#' are ignored. Values take the type of their field's resolved
hint; booleans accept true/false/1/0/yes/no, and `none` is accepted only
where the hint admits None. One reader rejects unknown keys in either file
so typos fail loudly. The training CLI requires `epochs` and `batch_size`
to be stated explicitly; every other key falls back to its documented
default. An error the file's own values cause names the file; an
override's names its key alone, even when the file also fails alone.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import asdict, fields

from .errors import ConfigError
from .features import FeatureConfig
from .ioutil import text_lines
from .model import ModelConfig
from .training import TrainConfig

TRAIN_REQUIRED_KEYS = ("epochs", "batch_size")

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}
_NUMBER = {int: "an integer", float: "a number"}  # each number type, as its error names it


def parse_kv_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in text_lines(path, ConfigError):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = raw
    return values


def _convert(key: str, raw: str, hint):
    """raw as the field's resolved type hint; `none` only where it admits None."""
    types = typing.get_args(hint) or (hint,)
    if raw.lower() == "none":
        if type(None) not in types:
            raise ConfigError(f"key {key!r}: 'none' is only allowed for optional keys")
        return None
    target_type = next(t for t in types if t is not type(None))
    if target_type is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    if target_type in _NUMBER:
        try:
            return target_type(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected {_NUMBER[target_type]}, got {raw!r}") from exc
    return raw


# every settable run-config key; not keys: n_classes (2, binary labels) and the
# fields training.model_config_for resolves from use_dsaf and the data
RUN_CONFIG_KEYS = frozenset(f.name for cls in (TrainConfig, ModelConfig) for f in fields(cls)) - {
    "cross_attention", "mel_bands", "coch_channels", "frame_count", "n_classes"}


def _build(cls, path, values: dict, overrides: dict):
    """cls from the values of the file at path that name its fields, typed by
    the resolved field hints, with the already-typed overrides replacing
    them. A ConfigError names path when a file value does not convert or the
    file alone fails with the same message; any other the overrides cause,
    and it names the key and no file."""
    hints = typing.get_type_hints(cls)
    try:
        kwargs = {k: _convert(k, raw, hints[k]) for k, raw in values.items() if k in hints}
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        return cls(**{**kwargs, **{k: v for k, v in overrides.items() if k in hints}})
    except ConfigError as exc:
        try:
            cls(**kwargs)
        except ConfigError as alone:
            if str(alone) == str(exc):
                raise ConfigError(f"{path}: {exc}") from None
        raise


def _read(path, keys, kind: str) -> dict[str, str]:
    """The file's key = value pairs; a key outside keys raises ConfigError naming the file."""
    values = parse_kv_file(path)
    unknown = set(values) - keys
    if unknown:
        raise ConfigError(f"{path}: unknown {kind} key(s): {', '.join(sorted(unknown))}")
    return values


def load_train_configs(path, overrides: dict | None = None) -> tuple[TrainConfig, ModelConfig]:
    """Parse a run config file into the trainer and model configs; `model_config_for` completes the latter.

    overrides (already-typed values, e.g. from CLI flags) replace file
    values. Unknown keys and missing required keys raise ConfigError.
    """
    values = _read(path, RUN_CONFIG_KEYS, "config")
    overrides = overrides or {}
    for key in TRAIN_REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"{path}: missing required config key: {key}")
    bad = set(overrides) - RUN_CONFIG_KEYS
    if bad:
        raise ConfigError(f"unknown override(s): {', '.join(sorted(bad))}")

    return _build(TrainConfig, path, values, overrides), _build(ModelConfig, path, values, overrides)


def load_feature_config(path=None) -> FeatureConfig:
    values = _read(path, {f.name for f in fields(FeatureConfig)}, "feature config") if path else {}
    return _build(FeatureConfig, path, values, {})


# inference-time choices that do not alter what was trained
_HASH_EXEMPT = {"ensemble_eval"}


def run_config_hash(train_cfg: TrainConfig, model_cfg: ModelConfig) -> str:
    """Stable digest of the resolved run configuration; stamped into
    checkpoints and verified at evaluation time."""
    items = []
    for prefix, cfg in (("train", train_cfg), ("model", model_cfg)):
        for name, value in sorted(asdict(cfg).items()):
            if name in _HASH_EXEMPT:
                continue
            items.append(f"{prefix}.{name}={value!r}")
    return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()[:16]
