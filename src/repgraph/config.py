"""The package's text formats: flat key=value files and CSV tables.

A key=value file has one `key=value` per line and `#` comments.  Layer-config
files (keys: the fields of :class:`LayerConfig`) and the toy trainer's
checkpoint ``config.txt``, ``layer.txt`` (a layer-config file) and
``manifest.txt`` share one writer and one reader.  Every CSV table the
package writes in one go comes from :func:`write_csv`.
"""

from __future__ import annotations

import csv
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


def read_entries(path, error: type[Exception] = ContractError, parse=parse_entries):
    """``parse`` of the text at ``path``; any failure raises ``error`` naming the file."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc
    except ContractError as exc:
        raise error(f"{path}: {exc}") from exc


def write_entries(path, entries: dict) -> None:
    """Write one ``key=value`` line per entry of ``entries``, in order."""
    with open(path, "w") as fh:
        fh.writelines(f"{key}={val}\n" for key, val in entries.items())


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` to ``path`` as CSV rows ending in CRLF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def layer_config_from_text(text: str) -> LayerConfig:
    values: dict[str, object] = {}
    for key, val in parse_entries(text).items():
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


def load_config_file(path, error: type[Exception] = ContractError) -> LayerConfig:
    return read_entries(path, error, layer_config_from_text)
