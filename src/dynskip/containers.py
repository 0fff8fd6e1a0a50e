"""Every on-disk format of the package, the one header check and its int rule.

- npz container: a JSON header plus named arrays in one npz. Policy and
  skip-module checkpoints and expert datasets use it. np.savez stamps zip
  members with a constant epoch date, so saving the same header and arrays
  twice produces byte-identical files; arrays are stored raw (never
  pickled), so round-trips are bit-exact.
- Episode traces: JSON lines, a header record then one record per step,
  as many as the header's `n_steps`, written and read by `runtime`. A
  step record lists every block the step ran in `executed_layers`, a
  verified step's re-run included, so `flops.flop_estimate_record` can
  re-price it alone.
- CSV tables (train and stage logs, reports, profiles and the zero-shot
  study): `write_csv`, read back with `read_csv`.

Every header carries `kind` and `schema_version`; loaders pass it through
`check_header`, so a wrong or stale artifact, or a header field that is
missing, unexpected or of the wrong JSON type, fails with ConfigError.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError

_HEADER_KEY = "__header__"
_ARRAY_PREFIX = "a:"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON value checks by type name; a JSON true/false is no number
_JSON_TYPES = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "list[int]": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "bool": lambda v: isinstance(v, bool),
    "dict": lambda v: isinstance(v, dict),
}


def is_json_type(value, type_name: str) -> bool:
    """Whether a decoded JSON value is of the type `type_name` names: "int",
    "float" (an int passes), "list[int]", "bool" or "dict"."""
    return _JSON_TYPES[type_name](value)


def _check_fields(values, spec: dict[str, str], path, what: str) -> None:
    """ConfigError, naming the field, unless `values` is a JSON object with
    exactly the fields of `spec`, each of the type spec names for it (see
    is_json_type)."""
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: {what} is {values!r}, not an object")
    for name, type_name in spec.items():
        if name not in values:
            raise ConfigError(f"{path}: {what} has no field {name!r}")
        if not is_json_type(values[name], type_name):
            raise ConfigError(f"{path}: {what} field {name!r} is {values[name]!r}, "
                              f"expected {type_name}")
    unknown = sorted(set(values) - set(spec))
    if unknown:
        raise ConfigError(f"{path}: {what} has unexpected field {unknown[0]!r}")


def check_header(header: dict, kind: str, version: int, path,
                 fields: dict[str, str] | None = None) -> None:
    """ConfigError unless the header is an object naming `kind` at schema
    `version`; with `fields` given, the rest must pass _check_fields on it."""
    if not isinstance(header, dict):
        raise ConfigError(f"{path}: header is a {type(header).__name__}, not an object")
    if header.get("kind") != kind:
        raise ConfigError(f"{path} is not a {kind} artifact (kind {header.get('kind')!r})")
    found = header.get("schema_version", "none")
    if found != version:
        raise ConfigError(f"{path}: {kind} artifact has schema_version {found}, expected {version}")
    if fields is not None:
        rest = {k: v for k, v in header.items() if k not in ("kind", "schema_version")}
        _check_fields(rest, fields, path, f"{kind} header")


def check_int_fields(config, **minimums: int) -> None:
    """ConfigError, naming the field, unless each int field of the dataclass
    `config` passes _is_int (no bool, float, nan or inf) and is >= its entry
    in `minimums` (a seed's is 0)."""
    for f in dataclasses.fields(config):
        if f.type != "int":
            continue
        value = getattr(config, f.name)
        low = minimums.get(f.name, 0 if f.name == "seed" else None)
        if not _is_int(value) or (low is not None and value < low):
            bound = "" if low is None else f" >= {low}"
            raise ConfigError(f"{f.name} must be an int{bound}, got {value!r}")


def config_from_header(cls, values, path, what: str):
    """cls(**values) for a dataclass `cls`, once _check_fields has found in
    values exactly its fields, each of its annotated type."""
    spec = {f.name: f.type if isinstance(f.type, str) else f.type.__name__
            for f in dataclasses.fields(cls)}
    _check_fields(values, spec, path, what)
    return cls(**values)


def save_arrays(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    payload = {
        _HEADER_KEY: np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
    }
    for name, arr in arrays.items():
        payload[_ARRAY_PREFIX + name] = np.asarray(arr)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_arrays(path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        z = np.load(path)  # a file that is no zip or .npy falls through to unpickling
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"{path} is not an npz container") from exc
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path} is not an npz container")
    with z:
        if _HEADER_KEY not in z.files:
            raise ConfigError(f"{path} is not an npz container (no header)")
        header = json.loads(z[_HEADER_KEY].tobytes().decode("utf-8"))
        arrays = {
            name[len(_ARRAY_PREFIX):]: z[name].copy()
            for name in z.files
            if name.startswith(_ARRAY_PREFIX)
        }
    return header, arrays


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return value


def write_csv(path, columns, rows, comment: str | None = None) -> None:
    """One header row then `rows`, preceded by a `comment` line when given.
    Cells: None is empty, a float is written with repr (round-trip exact),
    anything else as the csv module formats it."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(comment + "\n")
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([_cell(v) for v in row] for row in rows)


def read_csv(path) -> list[dict]:
    """Rows of a write_csv table as dicts of strings; '#' lines are skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
