"""Flat key=value text files: one `key=value` per line, `#` comments.

Layer-config files (keys: the fields of :class:`LayerConfig`) and the toy
trainer's checkpoint ``config.txt`` and ``manifest.txt`` share one reader.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ContractError
from .layer import LayerConfig

_INT_KEYS = {f.name for f in fields(LayerConfig) if f.type in (int, "int")}
_KEYS = {f.name for f in fields(LayerConfig)}


def parse_entries(text: str) -> dict[str, str]:
    """The entries in file order; a line without a key or ``=``, or a repeated
    key, raises :class:`ContractError` naming the line."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise ContractError(f"line {lineno}: expected key=value, got {raw!r}")
        if key in entries:
            raise ContractError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = val
    return entries


def read_entries(path, error: type[Exception] = ContractError) -> dict[str, str]:
    """:func:`parse_entries` of the file at ``path``; failures raise ``error`` naming the file."""
    try:
        with open(path) as fh:
            return parse_entries(fh.read())
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc
    except ContractError as exc:
        raise error(f"{path}: {exc}") from exc


def layer_config_to_text(cfg: LayerConfig) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def _layer_config(entries: dict[str, str]) -> LayerConfig:
    values: dict[str, object] = {}
    for key, val in entries.items():
        if key not in _KEYS:
            raise ContractError(f"unknown config key {key!r}")
        try:
            values[key] = int(val) if key in _INT_KEYS else val
        except ValueError as exc:
            raise ContractError(f"{key} must be an integer, got {val!r}") from exc
    missing = {"c", "cp"} - values.keys()
    if missing:
        raise ContractError(f"config is missing required keys: {sorted(missing)}")
    return LayerConfig(**values)  # type: ignore[arg-type]


def layer_config_from_text(text: str) -> LayerConfig:
    return _layer_config(parse_entries(text))


def load_config_file(path) -> LayerConfig:
    return _layer_config(read_entries(path))
