"""Seeded fuzz of the map readers and of `--config` defaults.

Each case mutates a valid input and runs the CLI on it in-process.  The
inputs are small spd2 maps, inline and with a values sidecar, simple maps
with an inline table and with a table sidecar, a map whose domain is a
`{"path"}` reference and that domain file, the sidecar bytes (truncated,
padded, garbled or missing) and config files.  Every JSON member (one
item standing for each list) is deleted and set to each of a pool of
ill-typed and out-of-range values, lists are shortened and lengthened,
and seeded cuts and garbles hit the text.
Every call must exit 0, or exit 1 or 2 with exactly one `usage error:` or
`error:` line on stderr and nothing on stdout; it must never raise out of
`main`, nor warn.  A failure names its case.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import traceback
import warnings

import numpy as np
import pytest

from metriclp import Domain, MeasurableMap, SimpleMap, fields, make_space
from metriclp.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from metriclp.fileio import SIDECAR_THRESHOLD, save_map, save_simple_map

SEED = 20261020
TEXT_CUTS = 6  # text-level mutations per file

# values of the wrong type or range for some member of every format
POOL = [None, True, -1, 2.5, 1e308, math.inf, math.nan, 10**30, "x", [], {}]


def run(argv: list[str]) -> tuple[int, str, str, list]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def check(argv: list[str], case: str) -> None:
    try:
        code, out, err, caught = run(argv)
    except Exception:  # noqa: BLE001 - a traceback is the failure reported
        pytest.fail(f"{case}: {argv} raised\n{traceback.format_exc()}")
    assert not caught, f"{case}: {argv} warned {[str(w.message) for w in caught]}"
    if code == EXIT_OK:
        return
    lines = err.splitlines()
    prefix = {EXIT_USAGE: "usage error: ", EXIT_DATA: "error: "}.get(code)
    assert prefix is not None, f"{case}: {argv} exited {code}: {err!r}"
    assert out == "", f"{case}: {argv} printed {out!r}"
    assert len(lines) == 1 and lines[0].startswith(prefix), f"{case}: {argv} said {err!r}"


def member_paths(node, prefix=()):
    """The paths of every dict member and of each list's first item, the
    root excluded: one entry stands for a list's uniform items."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))[:1]
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from member_paths(child, prefix + (key,))


def obj_at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def json_mutations(obj):
    """Every one-member mutation of a JSON object: delete the member, set it
    to each POOL value, and for a list drop its last item or repeat its
    first; plus an unknown member at the root.  Yields (object, description)."""
    def edited(path, edit):
        new = copy.deepcopy(obj)
        edit(obj_at(new, path[:-1]), path[-1])
        return new

    def drop_last(parent, key):
        del parent[key][-1:]

    def repeat_first(parent, key):
        parent[key].append(copy.deepcopy(parent[key][0]) if parent[key] else 0)

    for path in member_paths(obj):
        yield edited(path, lambda parent, key: parent.pop(key)), f"delete {path}"
        for value in POOL:
            yield (edited(path, lambda parent, key, v=value: parent.__setitem__(key, v)),
                   f"set {path} = {value!r}")
        if isinstance(obj_at(obj, path), list):
            yield edited(path, drop_last), f"drop the last item of {path}"
            yield edited(path, repeat_first), f"repeat the first item of {path}"
    yield dict(obj, extra=1), "add an unknown member"


def text_mutations(text: str, rng):
    """Seeded cuts and one-character garbles of a file's text."""
    for _ in range(TEXT_CUTS):
        at = int(rng.integers(0, len(text)))
        if rng.random() < 0.5:
            yield text[:at], f"cut the text at {at}"
        else:
            junk = "{}[],:\"0-eE.x "[int(rng.integers(0, 14))]
            yield text[:at] + junk + text[at + 1:], f"put {junk!r} at {at}"


def mutations(text: str, rng):
    for obj, what in json_mutations(json.loads(text)):
        yield json.dumps(obj), what
    yield from text_mutations(text, rng)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Pristine inputs: small.json (4x4 spd2, inline), big.json (33x33 spd2,
    with a sidecar), simple.json (a 6x6 spd2 simple map), bigsimple.json
    (a 6x6 spd2 simple map whose 1,100-row table is a sidecar), legacy.json
    (the small map's values on domain.json, a {"path"} domain)."""
    base = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(SEED)
    spd = make_space("spd2")
    small = Domain.grid(2, 4)
    save_map(MeasurableMap(small, spd, spd.random_payloads(rng, 16, 0.5)), base / "small.json")
    big = Domain.grid(2, 33)
    assert big.atom_count * spd.dim > SIDECAR_THRESHOLD
    save_map(MeasurableMap(big, spd, spd.random_payloads(rng, big.atom_count, 0.5)),
             base / "big.json")
    labels = fields.voronoi_labels(Domain.grid(2, 6).geometry, 3, rng)
    save_simple_map(fields.simple_from_labels(Domain.grid(2, 6), spd, labels, rng=rng),
                    base / "simple.json")
    table = spd.random_payloads(rng, 1100, 0.5)
    assert table.size > SIDECAR_THRESHOLD
    save_simple_map(SimpleMap(Domain.grid(2, 6), spd, labels * 7, table), base / "bigsimple.json")
    assert (base / "bigsimple.json.values.bin").exists()
    legacy = json.loads((base / "small.json").read_text())
    domain = dict(legacy["domain"], weights=[1.0 / 16] * 16, geometry=None)
    legacy["domain"] = {"path": "domain.json"}
    (base / "domain.json").write_text(json.dumps(domain))
    (base / "legacy.json").write_text(json.dumps(legacy))
    return base


def test_mutated_inputs_end_in_one_error_line_never_a_traceback(inputs, tmp_path):
    rng = np.random.default_rng(SEED)
    work = tmp_path / "work"
    shutil.copytree(inputs, work)
    out = str(tmp_path / "out.json")

    def commands(name):
        pristine = str(inputs / ("legacy.json" if name == "domain.json" else name))
        mapped = str(work / ("legacy.json" if name == "domain.json" else name))
        if name in ("simple.json", "bigsimple.json"):
            return [["continuify", mapped, "--p", "1", "--eps", "0.3", "--out", out],
                    ["distance", mapped, pristine]]
        calls = [["distance", mapped, pristine, "--p", "1,inf"]]
        if name != "big.json":
            calls.append(["quantize", mapped, "--eps", "0.5", "--out", out])
        return calls

    cases = 0
    for name in ("small.json", "big.json", "simple.json", "bigsimple.json", "legacy.json",
                 "domain.json"):
        text = (inputs / name).read_text()
        for mutant, what in mutations(text, rng):
            (work / name).write_text(mutant)
            for argv in commands(name):
                check(argv, f"{name}: {what}")
            cases += 1
        (work / name).write_text(text)

    for name in ("big.json", "bigsimple.json"):
        sidecar_name = json.loads((inputs / name).read_text())["values_file"]
        sidecar = (inputs / sidecar_name).read_bytes()
        garbled = bytes(rng.integers(0, 256, len(sidecar), dtype=np.uint8))
        for data, what in [(sidecar[:-8], "truncated by a float"),
                           (sidecar[:-1], "truncated by a byte"), (b"", "empty"),
                           (sidecar + b"\0", "padded by a byte"),
                           (sidecar + sidecar[:8], "padded by a float"), (garbled, "garbled"),
                           (None, "missing")]:
            if data is None:
                (work / sidecar_name).unlink()
            else:
                (work / sidecar_name).write_bytes(data)
            for argv in commands(name):
                check(argv, f"{name} sidecar {what}")
            cases += 1
        (work / sidecar_name).write_bytes(sidecar)

    configs = [
        (["gen"], {"kind": "random", "space": "spd2", "grid": "4x4", "seed": 3, "spread": 0.5,
                   "regions": 3}),
        # spread 1e308: random and piecewise values overflow and are refused,
        # and seed 0's smooth anchors are finite, with a difference that is not
        (["gen"], {"kind": "smooth", "space": "euclidean2", "grid": "4x4", "seed": 0,
                   "spread": 1e308}),
        (["gen"], {"kind": "random", "space": "euclidean2", "grid": "4x4", "seed": 0,
                   "spread": 1e308}),
        (["quantize", str(inputs / "small.json")], {"mode": "countable", "eps": 0.5, "p": "2"}),
        (["quantize", str(inputs / "small.json")],
         {"mode": "almost-simple", "eps": 0.5, "p": "2", "base-value": "[1, 0, 0, 1]"}),
        (["distance", str(inputs / "small.json"), str(inputs / "small.json")], {"p": "1,inf"}),
        (["continuify", str(inputs / "simple.json")],
         {"p": "1", "eps": 0.3, "order": 2, "background": "[1, 0, 0, 1]"}),
    ]
    config = tmp_path / "config.json"
    for argv, defaults in configs:
        for mutant, what in mutations(json.dumps(defaults), rng):
            config.write_text(mutant)
            check([*argv, "--config", str(config), "--out", out], f"{argv[0]} config: {what}")
            cases += 1
    assert cases > 500
