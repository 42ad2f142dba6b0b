"""JSON file formats for domains, mappings, and reports.

All files are JSON objects with a "kind" discriminator:

- kind "domain": {"atoms": n, "weights": [...], "geometry":
  {"dim": d, "cells_per_axis": k} | null}.  Weights may contain Infinity
  (the JSON extension emitted and accepted by the json module).
- kind "map": {"domain": <inline domain | {"path": relative}>, "space":
  <descriptor>, "values": [[...], ...]} -- or, for large payloads,
  "values_file": a sibling raw little-endian float64 file, atom-major.
  Domain and sidecar paths must resolve inside the map file's directory.
- kind "simple_map": like "map" plus integer "labels" and optional
  "base_flag" (-1 when atoms defer to the base mapping, null otherwise).

Floats round-trip exactly: json serializes Python floats with repr
(shortest exact form) and numpy float64 survives the list round trip.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from .domain import Domain, GridGeometry
from .errors import DataError
from .maps import MeasurableMap, SimpleMap
from .spaces import space_from_descriptor

SIDECAR_THRESHOLD = 4096  # payload floats above which values go binary


def _domain_payload(domain: Domain) -> dict:
    geo = domain.geometry
    return {
        "kind": "domain",
        "atoms": domain.atom_count,
        "weights": [float(w) for w in domain.weights],
        "geometry": None
        if geo is None
        else {"dim": geo.dim, "cells_per_axis": geo.cells_per_axis},
    }


def _domain_from_payload(obj: dict) -> Domain:
    try:
        weights = np.asarray(obj["weights"], dtype=np.float64)
        geo = obj.get("geometry")
        geometry = (
            None if geo is None else GridGeometry(geo["dim"], geo["cells_per_axis"])
        )
        if "atoms" in obj and obj["atoms"] != weights.size:
            raise DataError("atom count does not match the weight list")
        return Domain(weights, geometry)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed domain payload: {exc}") from exc


def save_domain(domain: Domain, path: str | os.PathLike) -> None:
    Path(path).write_text(json.dumps(_domain_payload(domain), indent=1))


def load_domain(path: str | os.PathLike) -> Domain:
    obj = _read_json(path)
    if obj.get("kind") != "domain":
        raise DataError(f"{path}: expected a domain file")
    return _domain_from_payload(obj)


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


def _resolve_domain(obj: dict, base_dir: Path) -> Domain:
    dom = obj.get("domain")
    if isinstance(dom, dict) and "path" in dom:
        return load_domain(_confined(base_dir, dom["path"]))
    if isinstance(dom, dict):
        return _domain_from_payload(dom)
    raise DataError("map file lacks a domain")


def _values_to_payload(
    values: np.ndarray, path: Path, payload: dict, sidecar: bool | None
) -> None:
    if sidecar is None:
        sidecar = values.size > SIDECAR_THRESHOLD
    if sidecar:
        name = path.name + ".values.bin"
        (path.parent / name).write_bytes(
            np.ascontiguousarray(values, dtype="<f8").tobytes()
        )
        payload["values_file"] = name
        payload["values_shape"] = list(values.shape)
    else:
        payload["values"] = [[float(v) for v in row] for row in values]


def _values_from_payload(obj: dict, base_dir: Path) -> np.ndarray:
    try:
        if "values_file" in obj:
            raw = _confined(base_dir, obj["values_file"]).read_bytes()
            shape = tuple(obj["values_shape"])
            vals = np.frombuffer(raw, dtype="<f8").astype(np.float64)
            if vals.size != int(np.prod(shape)):
                raise DataError("sidecar length does not match the declared shape")
            return vals.reshape(shape)
        if "values" not in obj:
            raise DataError("map file lacks values")
        return np.asarray(obj["values"], dtype=np.float64)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed map values ({exc})") from exc


def save_map(
    f: MeasurableMap,
    path: str | os.PathLike,
    domain_path: str | os.PathLike | None = None,
    sidecar: bool | None = None,
) -> None:
    """Write a mapping; `domain_path` references an already-saved domain
    file (relative to the map file) instead of inlining the domain."""
    path = Path(path)
    payload: dict = {"kind": "map", "space": f.space.descriptor()}
    payload["domain"] = (
        {"path": str(domain_path)} if domain_path else _domain_payload(f.domain)
    )
    _values_to_payload(f.values, path, payload, sidecar)
    path.write_text(json.dumps(payload, indent=1))


def load_map(path: str | os.PathLike) -> MeasurableMap:
    path = Path(path)
    obj = _read_json(path)
    if obj.get("kind") != "map":
        raise DataError(f"{path}: expected a map file")
    domain = _resolve_domain(obj, path.parent)
    try:
        space = space_from_descriptor(obj["space"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad space descriptor ({exc})") from exc
    values = _values_from_payload(obj, path.parent)
    return MeasurableMap(domain, space, values)


def save_simple_map(
    g: SimpleMap,
    path: str | os.PathLike,
    domain_path: str | os.PathLike | None = None,
) -> None:
    path = Path(path)
    payload: dict = {
        "kind": "simple_map",
        "space": g.space.descriptor(),
        "labels": [int(v) for v in g.labels],
        "values": [[float(v) for v in row] for row in g.value_table],
        "base_flag": g.base_flag,
    }
    payload["domain"] = (
        {"path": str(domain_path)} if domain_path else _domain_payload(g.domain)
    )
    path.write_text(json.dumps(payload, indent=1))


def load_simple_map(path: str | os.PathLike) -> SimpleMap:
    path = Path(path)
    obj = _read_json(path)
    if obj.get("kind") != "simple_map":
        raise DataError(f"{path}: expected a simple-map file")
    domain = _resolve_domain(obj, path.parent)
    try:
        space = space_from_descriptor(obj["space"])
        labels = np.asarray(obj["labels"], dtype=np.int64)
        table = np.asarray(obj["values"], dtype=np.float64).reshape(-1, space.dim)
        return SimpleMap(domain, space, labels, table, obj.get("base_flag"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed simple map ({exc})") from exc


def load_any_map(path: str | os.PathLike) -> MeasurableMap | SimpleMap:
    obj = _read_json(path)
    kind = obj.get("kind")
    if kind == "map":
        return load_map(path)
    if kind == "simple_map":
        return load_simple_map(path)
    raise DataError(f"{path}: unsupported kind {kind!r}")


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
    if isinstance(obj, float) and math.isinf(obj):
        return obj  # json emits Infinity, accepted on reload
    return obj


def save_report(obj, path: str | os.PathLike) -> None:
    Path(path).write_text(json.dumps(jsonable(obj), indent=1, default=str))
