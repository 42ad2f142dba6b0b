"""JSON file formats for domains, mappings, and reports.

All files are JSON objects with a "kind" discriminator:

- kind "domain": {"atoms": n, "weights": [...], "geometry": null}, or for
  a grid {"atoms": n, "geometry": {"dim": d, "cells_per_axis": k}}, whose
  weights all equal cell_size**dim and are not stored (older files list
  them; they still load).  Weights may contain Infinity (the JSON
  extension emitted and accepted by the json module).  Maps store their
  domain inline; a domain file is read only through a {"path"} reference.
- kind "map": {"domain": <inline domain | {"path": relative}>, "space":
  <descriptor>, "values": [[...], ...]} -- or, for large payloads,
  "values_file": a sibling raw little-endian float64 file, atom-major.
  Domain and sidecar paths must resolve inside the map file's directory.
- kind "simple_map": a "map" whose "values" (or "values_file" and
  "values_shape") hold the value table, one row per distinct value, plus
  integer "labels", one per atom and always inline, and optional
  "base_flag" (-1 when atoms defer to the base mapping, null otherwise).

Floats round-trip exactly: json serializes Python floats with repr
(shortest exact form) and numpy float64 survives the list round trip.

Every file is written atomically: the bytes go to a temporary file in the
target's directory, which then replaces the target, so a failed or
interrupted write leaves the old file as it was.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import secrets
from pathlib import Path

import numpy as np

from .domain import Domain, GridGeometry
from .errors import DataError, GeometryError
from .maps import MeasurableMap, SimpleMap
from .spaces import space_from_descriptor

SIDECAR_THRESHOLD = 4096  # payload floats above which values go binary


def write_atomic(path: str | os.PathLike, data: str | bytes) -> None:
    """Write `data` (text is encoded as UTF-8) to `path` through a temporary
    file in the same directory and `os.replace`; on any failure the target
    is untouched and the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _domain_payload(domain: Domain) -> dict:
    geo = domain.geometry
    if geo is None:
        return {"kind": "domain", "atoms": domain.atom_count,
                "weights": domain.weights.tolist(), "geometry": None}
    return {"kind": "domain", "atoms": domain.atom_count,
            "geometry": {"dim": geo.dim, "cells_per_axis": geo.cells_per_axis}}


def _domain_from_payload(obj: dict, rows: int) -> Domain:
    """The domain a payload describes; a grid whose size differs from `rows`
    (the map's atom count) is refused before it is built."""
    try:
        geo = obj.get("geometry")
        geometry = (
            None if geo is None else GridGeometry(geo["dim"], geo["cells_per_axis"])
        )
        if "weights" in obj:
            weights = np.asarray(obj["weights"], dtype=np.float64)
            if "atoms" in obj and obj["atoms"] != weights.size:
                raise DataError("atom count does not match the weight list")
            return Domain(weights, geometry)
        if geometry is None:
            raise DataError("domain has neither weights nor grid geometry")
        k, dim = geometry.cells_per_axis, geometry.dim
        # k**dim > rows once dim > rows.bit_length() (k >= 2; k == 1 gives 1),
        # so the capped power decides the comparison without a huge integer.
        if k ** min(dim, rows.bit_length() + 1) != rows:
            raise DataError(f"a grid of {k}**{dim} cells does not match the map's {rows} atoms")
        if obj.get("atoms", k**dim) != k**dim:
            raise DataError("atom count does not match the grid geometry")
        return Domain.grid(dim, k)
    except (KeyError, TypeError, ValueError, GeometryError) as exc:
        raise DataError(f"malformed domain payload: {exc}") from exc


def _read_domain_file(path: str | os.PathLike) -> dict:
    obj = _read_json(path)
    if obj.get("kind") != "domain":
        raise DataError(f"{path}: expected a domain file")
    return obj


def _read_json(path: str | os.PathLike) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    return obj


def _confined(base_dir: Path, name) -> Path:
    """The file `name` refers to, relative to `base_dir`; refuses any path
    that resolves outside that directory."""
    if not isinstance(name, str):
        raise DataError(f"file reference must be a string, got {name!r}")
    path = base_dir / name
    if not path.resolve().is_relative_to(base_dir.resolve()):
        raise DataError(f"{name!r} resolves outside the map file's directory")
    return path


def _resolve_domain(obj: dict, base_dir: Path, rows: int) -> Domain:
    dom = obj.get("domain")
    if isinstance(dom, dict) and "path" in dom:
        dom = _read_domain_file(_confined(base_dir, dom["path"]))
    if isinstance(dom, dict):
        return _domain_from_payload(dom, rows)
    raise DataError("map file lacks a domain")


def _values_to_payload(values: np.ndarray, path: Path, payload: dict) -> None:
    if values.size > SIDECAR_THRESHOLD:
        name = path.name + ".values.bin"
        write_atomic(path.parent / name, np.ascontiguousarray(values, dtype="<f8").tobytes())
        payload["values_file"] = name
        payload["values_shape"] = list(values.shape)
    else:
        payload["values"] = values.tolist()


def _values_from_payload(obj: dict, base_dir: Path) -> np.ndarray:
    try:
        if "values_file" in obj:
            # the bytes are read once, straight into the array returned
            with open(_confined(base_dir, obj["values_file"]), "rb") as fh:
                shape = tuple(obj["values_shape"])
                size = os.fstat(fh.fileno()).st_size
                if size % 8:  # numpy's words for a ragged float64 buffer
                    raise ValueError("buffer size must be a multiple of element size")
                vals = np.empty(size // 8, dtype="<f8")
                # an exact product: a float entry such as Infinity has no integer size
                if fh.readinto(vals) != size or vals.size != math.prod(shape):
                    raise DataError("sidecar length does not match the declared shape")
            return vals.astype(np.float64, copy=False).reshape(shape)
        if "values" not in obj:
            raise DataError("map file lacks values")
        return np.asarray(obj["values"], dtype=np.float64)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed map values ({exc})") from exc


def save_map(f: MeasurableMap, path: str | os.PathLike) -> None:
    path = Path(path)
    payload: dict = {"kind": "map", "space": f.space.descriptor(),
                     "domain": _domain_payload(f.domain)}
    _values_to_payload(f.values, path, payload)
    write_atomic(path, json.dumps(payload))


def save_simple_map(g: SimpleMap, path: str | os.PathLike) -> None:
    """Write `g`; its value table is stored as a map's values are."""
    path = Path(path)
    payload: dict = {"kind": "simple_map", "space": g.space.descriptor(),
                     "labels": g.labels.tolist()}
    _values_to_payload(g.value_table, path, payload)
    payload["base_flag"] = g.base_flag
    payload["domain"] = _domain_payload(g.domain)
    write_atomic(path, json.dumps(payload))


def load_any_map(path: str | os.PathLike) -> MeasurableMap | SimpleMap:
    """Load a map or simple-map file, parsing it once: a simple map's table
    is read as a map's values are, and its atoms are its labels."""
    path = Path(path)
    obj = _read_json(path)
    kind = obj.get("kind")
    if kind not in ("map", "simple_map"):
        raise DataError(f"{path}: unsupported kind {kind!r}")
    simple = kind == "simple_map"
    raw = obj.get("labels")
    # np.asarray would read 1.5 as 1 and true as 1
    if simple and (not isinstance(raw, list) or set(map(type, raw)) - {int}):
        raise DataError(f"{path}: simple-map labels must be a list of integers")
    values = _values_from_payload(obj, path.parent)
    rows = len(raw) if simple else len(values) if values.ndim else 1
    domain = _resolve_domain(obj, path.parent, rows)
    try:
        space = space_from_descriptor(obj["space"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad space descriptor ({exc})") from exc
    if not simple:
        return MeasurableMap(domain, space, values)
    try:
        # reshape(-1, 0) is ambiguous: a single-point space keeps the row count
        table = values.reshape(-1, space.dim) if space.dim else values.reshape(len(values), 0)
        return SimpleMap(domain, space, np.asarray(raw, dtype=np.int64), table,
                         obj.get("base_flag"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed simple map ({exc})") from exc


def jsonable(obj):
    """Recursively convert dataclasses/numpy/tuples for json.dump."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def save_report(obj, path: str | os.PathLike) -> None:
    write_atomic(path, json.dumps(jsonable(obj), indent=1, default=str))
