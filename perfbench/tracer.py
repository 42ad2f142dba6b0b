"""Spans around the library's public functions, installed from outside.

`Tracer.install()` replaces each traced function by a wrapper at every
place a caller looks it up: class attributes for methods, every
`metriclp.*` module attribute bound to the same function object, and the
function slot of each `verify.CHECKS` entry.  `Tracer.restore()` puts the
originals back.  The library itself is not changed.

A span records its op id, its parent span, start and end times, its self
time (duration minus the time covered by child spans) and a few work
counters.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("spaces", "maps", "quantize", "domain", "relax", "fields", "fileio", "cli", "verify")


def _distance_counts(args, kwargs, result):
    rows = int(np.shape(result)[0])
    dim = int(np.shape(args[1])[-1]) if np.ndim(args[1]) else 1
    # computed, not measured: two float64 operand stacks plus the result
    return {"rows": rows, "bytes": rows * (2 * dim + 1) * 8}


def _check_payload_counts(args, kwargs, result):
    arr = np.asarray(args[1])
    return {"rows": int(arr.size // arr.shape[-1]) if arr.ndim and arr.shape[-1] else 0}


def _result_rows(args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


def _net_counts(args, kwargs, result):
    return {"size": len(result)}


def _file_bytes(path) -> int:
    path = Path(path)
    total = path.stat().st_size if path.exists() else 0
    sidecar = path.parent / (path.name + ".values.bin")
    if sidecar.exists():
        total += sidecar.stat().st_size
    return total


def _load_counts(args, kwargs, result):
    return {"bytes": _file_bytes(args[0])}


def _save_counts(args, kwargs, result):
    return {"bytes": _file_bytes(args[1])}


def _quantize_counts(args, kwargs, result):
    return {"atoms": int(args[0].domain.atom_count)}


# (module, attribute path, counter); the span name is "<layer>.<attribute path>"
TRACED = [
    ("metriclp.spaces", "MetricSpace.distance_many", _distance_counts),
    ("metriclp.spaces", "MetricSpace.check_payload", _check_payload_counts),
    ("metriclp.spaces", "MetricSpace.geodesic_many", _result_rows),
    ("metriclp.spaces", "MetricSpace.epsilon_net", _net_counts),
    ("metriclp.spaces", "MetricSpace.dense_payloads", _result_rows),
    ("metriclp.maps", "dp_distance", None),
    ("metriclp.maps", "SimpleMap.to_map", None),
    ("metriclp.quantize", "countable_quantize", _quantize_counts),
    ("metriclp.quantize", "almost_simple_approx", _quantize_counts),
    ("metriclp.quantize", "simple_approx_sup", _quantize_counts),
    ("metriclp.domain", "inner_closed_approx", None),
    ("metriclp.domain", "outer_open_approx", None),
    ("metriclp.domain", "urysohn", None),
    ("metriclp.relax", "smooth_from_simple", None),
    ("metriclp.fields", "voronoi_labels", None),
    ("metriclp.fields", "simple_from_labels", None),
    ("metriclp.fileio", "load_any_map", _load_counts),
    ("metriclp.fileio", "save_map", _save_counts),
    ("metriclp.fileio", "save_simple_map", _save_counts),
    ("metriclp.fileio", "save_report", _save_counts),
    ("metriclp.cli", "main", None),
    ("metriclp.verify", "run_theorem_suite", None),
]

QUANTIZE_FUNCS = ("countable_quantize", "almost_simple_approx", "simple_approx_sup")


def span_name(module: str, attr: str) -> str:
    return module.split(".")[-1] + "." + attr


class Tracer:
    def __init__(self):
        self.op_id = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._undo: list = []
        self._open: dict[str, int] = defaultdict(int)
        self._quantize_depth = 0
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def next_op(self) -> None:
        self.op_id += 1

    def _wrap(self, fn, name: str, counter, in_quantize: bool = False):
        tracer = self
        is_distance = name == "spaces.MetricSpace.distance_many"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = tracer._stack[-1][0] if tracer._stack else 0
            outer = tracer._open[name] == 0
            tracer._open[name] += 1
            if in_quantize:
                tracer._quantize_depth += 1
            inside_quantize = tracer._quantize_depth > 0
            frame = [span_id, 0.0]  # id, time covered by children
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                if in_quantize:
                    tracer._quantize_depth -= 1
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
            counts = counter(args, kwargs, result) if counter else {}
            if is_distance and inside_quantize:
                counts["quantize_rows"] = counts["rows"]
            tracer.spans.append(
                (tracer.op_id, span_id, parent, name, t0, t1, t1 - t0 - frame[1], outer, counts)
            )
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "metriclp" or n.startswith("metriclp.")]
        for module_name, attr, counter in TRACED:
            module = sys.modules[module_name]
            name = span_name(module_name, attr)
            in_quantize = module_name == "metriclp.quantize" and attr in QUANTIZE_FUNCS
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, counter, in_quantize))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name, counter, in_quantize)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        checks = sys.modules["metriclp.verify"].CHECKS
        for i, (check_id, statement, fn) in enumerate(checks):
            self._undo.append((checks, i, (check_id, statement, fn)))
            checks[i] = (check_id, statement, self._wrap(fn, f"verify.check.{check_id}", None))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, list):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        with open(tmp, "w") as fh:
            for op, sid, parent, name, t0, t1, self_s, _outer, counts in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "self_s": self_s, **counts}))
                fh.write("\n")
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def metric_units(check_ids: list[str]) -> dict[str, str]:
    """Every per-layer metric name and its unit, in a fixed order."""
    units: dict[str, str] = {}

    def add(base: str, fields: dict[str, str]):
        for key, unit in fields.items():
            units[f"{base}.{key}"] = unit

    add("spaces.distance_many", {"calls": "count", "rows": "count", "bytes": "B", "self_s": "s"})
    add("spaces.check_payload", {"calls": "count", "rows": "count", "self_s": "s"})
    add("spaces.geodesic_many", {"calls": "count", "rows": "count", "self_s": "s"})
    add("spaces.epsilon_net", {"calls": "count", "size": "count", "self_s": "s"})
    add("spaces.dense_payloads", {"calls": "count", "rows": "count", "self_s": "s"})
    add("maps.dp_distance", {"calls": "count", "self_s": "s"})
    add("maps.SimpleMap.to_map", {"calls": "count", "self_s": "s"})
    for fn in QUANTIZE_FUNCS:
        add(f"quantize.{fn}", {"calls": "count", "self_s": "s", "total_s": "s"})
    units["quantize.cover_rows_per_atom"] = "rows/atom"
    for fn in ("inner_closed_approx", "outer_open_approx", "urysohn"):
        add(f"domain.{fn}", {"calls": "count", "self_s": "s"})
    add("relax.smooth_from_simple", {"calls": "count", "self_s": "s", "total_s": "s"})
    for fn in ("voronoi_labels", "simple_from_labels"):
        add(f"fields.{fn}", {"calls": "count", "self_s": "s"})
    for fn in ("load_any_map", "save_map", "save_simple_map", "save_report"):
        add(f"fileio.{fn}", {"calls": "count", "bytes": "B", "self_s": "s"})
    add("cli.main", {"calls": "count", "self_s": "s"})
    for check_id in check_ids:
        units[f"verify.check.{check_id}.total_s"] = "s"
    units["verify.run_theorem_suite.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    return units


def _metric_key(span: str) -> str:
    # span names carry the class for methods; metric names drop it for spaces
    return span.replace("spaces.MetricSpace.", "spaces.")


def per_op_metrics(spans: list[tuple], check_ids: list[str]) -> list[dict[str, float]]:
    """One dict of per-layer metrics per traced op."""
    units = metric_units(check_ids)
    by_op: dict[int, dict[str, float]] = {}
    atoms: dict[int, int] = defaultdict(int)
    qrows: dict[int, int] = defaultdict(int)
    for op, _sid, _parent, name, t0, t1, self_s, outer, counts in spans:
        m = by_op.setdefault(op, dict.fromkeys(units, 0.0))
        key = _metric_key(name)
        m[name.split(".")[0] + ".self_s"] += self_s
        if key.startswith("verify.check."):
            if outer:
                m[key + ".total_s"] += t1 - t0
            continue
        m[key + ".calls"] = m.get(key + ".calls", 0.0) + 1
        m[key + ".self_s"] = m.get(key + ".self_s", 0.0) + self_s
        if outer and key + ".total_s" in units:
            m[key + ".total_s"] += t1 - t0
        for field in ("rows", "bytes", "size"):
            if field in counts and f"{key}.{field}" in units:
                m[f"{key}.{field}"] += counts[field]
        atoms[op] += counts.get("atoms", 0)
        qrows[op] += counts.get("quantize_rows", 0)
    out = []
    for op, m in sorted(by_op.items()):
        m["quantize.cover_rows_per_atom"] = qrows[op] / atoms[op] if atoms[op] else 0.0
        out.append({k: m[k] for k in units})
    return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
