"""Flat key=value layer-config files: one `key=value` per line, `#` comments.

The keys are the fields of :class:`LayerConfig`.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ContractError
from .layer import LayerConfig

_INT_KEYS = {f.name for f in fields(LayerConfig) if f.type in (int, "int")}
_KEYS = {f.name for f in fields(LayerConfig)}


def layer_config_to_text(cfg: LayerConfig) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def layer_config_from_text(text: str) -> LayerConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep or not key:
            raise ContractError(f"line {lineno}: expected key=value, got {raw!r}")
        if key not in _KEYS:
            raise ContractError(f"line {lineno}: unknown config key {key!r}")
        if key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError as exc:
                raise ContractError(f"line {lineno}: {key} must be an integer") from exc
        else:
            values[key] = val
    missing = {"c", "cp"} - values.keys()
    if missing:
        raise ContractError(f"config is missing required keys: {sorted(missing)}")
    return LayerConfig(**values)  # type: ignore[arg-type]


def load_config_file(path) -> LayerConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ContractError(f"cannot read config file {path}: {exc.strerror}") from exc
    return layer_config_from_text(text)
