"""JSON and sidecar round-trip tests for the on-disk formats."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from metriclp import (
    DataError,
    Domain,
    MeasurableMap,
    SimpleMap,
    equivalent,
    make_space,
)
from metriclp import fileio
from metriclp.fileio import (
    jsonable,
    load_any_map,
    load_domain,
    load_map,
    load_simple_map,
    save_domain,
    save_map,
    save_report,
    save_simple_map,
)

from .conftest import BAD_MAP_TEXTS, write_bad_file


def test_domain_round_trip_exact(tmp_path, rng):
    dom = Domain(rng.uniform(0.01, 3.0, 17))
    save_domain(dom, tmp_path / "d.json")
    back = load_domain(tmp_path / "d.json")
    assert np.array_equal(back.weights, dom.weights)
    assert back.geometry is None


def test_domain_round_trip_grid_and_infinite(tmp_path):
    grid = Domain.grid(2, 4)
    save_domain(grid, tmp_path / "g.json")
    back = load_domain(tmp_path / "g.json")
    assert back.geometry == grid.geometry
    assert np.array_equal(back.weights, grid.weights)

    inf_dom = Domain(np.array([1.0, math.inf, 0.5]))
    save_domain(inf_dom, tmp_path / "i.json")
    back = load_domain(tmp_path / "i.json")
    assert math.isinf(back.weights[1])
    assert back.weights[0] == 1.0


def test_map_round_trip_inline(tmp_path, rng):
    sp = make_space("spd2")
    dom = Domain(rng.uniform(0.1, 2.0, 9))
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 9))
    save_map(f, tmp_path / "f.json")
    back = load_map(tmp_path / "f.json")
    assert back.space.descriptor() == sp.descriptor()
    assert np.array_equal(back.values, f.values)  # bit-exact floats
    assert equivalent(back, f)
    assert not (tmp_path / "f.json.values.bin").exists()


def test_map_round_trip_sidecar(tmp_path, rng):
    sp = make_space("euclidean3")
    dom = Domain.grid(2, 48)  # 2304 atoms * 3 dims > 4096 floats
    f = MeasurableMap(dom, sp, rng.normal(size=(dom.atom_count, 3)))
    save_map(f, tmp_path / "big.json")
    assert (tmp_path / "big.json.values.bin").exists()
    raw = json.loads((tmp_path / "big.json").read_text())
    assert "values" not in raw and raw["values_file"] == "big.json.values.bin"
    back = load_map(tmp_path / "big.json")
    assert np.array_equal(back.values, f.values)
    assert back.domain.geometry == f.domain.geometry


def test_map_with_domain_reference(tmp_path, rng):
    sp = make_space("circle")
    dom = Domain(np.ones(5))
    save_domain(dom, tmp_path / "dom.json")
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 5))
    save_map(f, tmp_path / "f.json", domain_path="dom.json")
    raw = json.loads((tmp_path / "f.json").read_text())
    assert raw["domain"] == {"path": "dom.json"}
    back = load_map(tmp_path / "f.json")
    assert np.array_equal(back.domain.weights, dom.weights)
    assert np.array_equal(back.values, f.values)


def test_simple_map_round_trip(tmp_path):
    sp = make_space("euclidean1")
    dom = Domain(np.ones(6))
    g = SimpleMap(
        dom,
        sp,
        np.array([0, -1, 1, 1, -1, 0]),
        np.array([[2.0], [5.0]]),
        base_flag=-1,
    )
    save_simple_map(g, tmp_path / "g.json")
    back = load_simple_map(tmp_path / "g.json")
    assert np.array_equal(back.labels, g.labels)
    assert np.array_equal(back.value_table, g.value_table)
    assert back.base_flag == -1
    assert back.range_size == g.range_size == 2


def test_load_any_map_dispatches(tmp_path, rng):
    sp = make_space("euclidean1")
    dom = Domain(np.ones(3))
    f = MeasurableMap(dom, sp, rng.normal(size=(3, 1)))
    g = SimpleMap(dom, sp, np.zeros(3, dtype=int), np.array([[1.0]]))
    save_map(f, tmp_path / "f.json")
    save_simple_map(g, tmp_path / "g.json")
    assert isinstance(load_any_map(tmp_path / "f.json"), MeasurableMap)
    assert isinstance(load_any_map(tmp_path / "g.json"), SimpleMap)


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2, 3]",
        '{"kind": "banana"}',
        '{"kind": "domain", "weights": "nope"}',
        '{"kind": "domain", "atoms": 5, "weights": [1.0]}',
        '{"kind": "map", "space": {"family": "euclidean", "dim": 1}}',
        *BAD_MAP_TEXTS,
    ],
)
def test_malformed_inputs_raise_data_error(tmp_path, text):
    path = write_bad_file(tmp_path, text)
    with pytest.raises(DataError):
        load_any_map(path) if "map" in text else load_domain(path)


def test_missing_file_raises_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_domain(tmp_path / "absent.json")


def test_sidecar_shape_mismatch_raises(tmp_path, rng):
    sp = make_space("euclidean3")
    dom = Domain.grid(2, 48)
    f = MeasurableMap(dom, sp, rng.normal(size=(dom.atom_count, 3)))
    save_map(f, tmp_path / "big.json")
    blob = (tmp_path / "big.json.values.bin").read_bytes()
    (tmp_path / "big.json.values.bin").write_bytes(blob[:-16])
    with pytest.raises(DataError, match="sidecar"):
        load_map(tmp_path / "big.json")


def test_jsonable_handles_reports(rng):
    from metriclp.quantize import countable_quantize

    sp = make_space("euclidean1")
    dom = Domain(np.ones(4))
    f = MeasurableMap(dom, sp, np.array([[0.0], [0.1], [1.0], [1.1]]))
    _, report = countable_quantize(f, 0.3)
    blob = jsonable(report)
    text = json.dumps(blob)  # must not raise
    assert isinstance(json.loads(text), dict)


def test_failed_replace_keeps_old_files_and_leaves_no_temporary(tmp_path, rng, monkeypatch):
    sp = make_space("euclidean2")
    dom = Domain(np.ones(3000))  # 6000 floats: the values go to a sidecar
    old = MeasurableMap(dom, sp, sp.random_payloads(rng, 3000))
    save_map(old, tmp_path / "m.json")
    save_report({"error": 0.25}, tmp_path / "r.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["m.json", "m.json.values.bin", "r.json"]

    def broken_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(fileio.os, "replace", broken_replace)
    new = MeasurableMap(dom, sp, sp.random_payloads(rng, 3000))
    with pytest.raises(OSError, match="replace failed"):
        save_map(new, tmp_path / "m.json")
    with pytest.raises(OSError, match="replace failed"):
        save_report({"error": 0.5}, tmp_path / "r.json")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    save_map(new, tmp_path / "m.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
    assert np.array_equal(load_map(tmp_path / "m.json").values, new.values)
