"""JSON and sidecar round-trip tests for the on-disk formats."""

from __future__ import annotations

import json
import math
from pathlib import Path

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
from metriclp.cli import main
from metriclp.fileio import (
    jsonable,
    load_any_map,
    save_map,
    save_report,
    save_simple_map,
)

from .conftest import BAD_MAP_TEXTS, write_bad_file

DATA = Path(__file__).parent / "data"


def _domain_round_trip(dom: Domain, path: Path) -> Domain:
    """The domain of a one-dimensional map on `dom` after a save and a load."""
    f = MeasurableMap(dom, make_space("euclidean1"), np.zeros((dom.atom_count, 1)))
    save_map(f, path)
    return load_any_map(path).domain


def test_domain_round_trip_exact(tmp_path, rng):
    dom = Domain(rng.uniform(0.01, 3.0, 17))
    back = _domain_round_trip(dom, tmp_path / "d.json")
    assert np.array_equal(back.weights, dom.weights)
    assert back.geometry is None


def test_domain_round_trip_grid_and_infinite(tmp_path):
    grid = Domain.grid(2, 4)
    back = _domain_round_trip(grid, tmp_path / "g.json")
    assert back.geometry == grid.geometry
    assert np.array_equal(back.weights, grid.weights)

    inf_dom = Domain(np.array([1.0, math.inf, 0.5]))
    back = _domain_round_trip(inf_dom, tmp_path / "i.json")
    assert math.isinf(back.weights[1])
    assert back.weights[0] == 1.0


def test_map_round_trip_inline(tmp_path, rng):
    sp = make_space("spd2")
    dom = Domain(rng.uniform(0.1, 2.0, 9))
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 9))
    save_map(f, tmp_path / "f.json")
    back = load_any_map(tmp_path / "f.json")
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
    back = load_any_map(tmp_path / "big.json")
    assert np.array_equal(back.values, f.values)
    assert back.domain.geometry == f.domain.geometry


def test_map_with_domain_reference(tmp_path, rng):
    sp = make_space("circle")
    dom = Domain(np.ones(5))
    (tmp_path / "dom.json").write_text(
        '{"kind": "domain", "atoms": 5, "weights": [1.0, 1.0, 1.0, 1.0, 1.0], "geometry": null}'
    )
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 5))
    save_map(f, tmp_path / "f.json")
    raw = json.loads((tmp_path / "f.json").read_text())
    raw["domain"] = {"path": "dom.json"}  # the writers always inline the domain
    (tmp_path / "f.json").write_text(json.dumps(raw))
    assert json.loads((tmp_path / "f.json").read_text())["domain"] == {"path": "dom.json"}
    back = load_any_map(tmp_path / "f.json")
    assert np.array_equal(back.domain.weights, dom.weights)
    assert np.array_equal(back.values, f.values)


def test_grid_domain_is_stored_as_its_geometry(tmp_path, rng):
    sp = make_space("euclidean2")
    dom = Domain.grid(2, 256)
    f = MeasurableMap(dom, sp, rng.normal(size=(dom.atom_count, 2)))
    save_map(f, tmp_path / "f.json")
    text = (tmp_path / "f.json").read_text()
    assert len(text.encode()) < 1024
    assert json.loads(text)["domain"] == {
        "kind": "domain", "atoms": 65536, "geometry": {"dim": 2, "cells_per_axis": 256}
    }
    back = load_any_map(tmp_path / "f.json")
    assert back.domain.geometry == dom.geometry
    assert back.domain.weights.tobytes() == dom.weights.tobytes()
    assert back.values.tobytes() == f.values.tobytes()


def test_legacy_grid_files_load_unchanged(tmp_path):
    """Files written before grid domains were stored as their geometry list
    every weight, and older simple-map files carry a null base flag; they
    load bit for bit and are re-saved without either."""
    raw_map = json.loads((DATA / "legacy_grid_map.json").read_text())
    raw_simple = json.loads((DATA / "legacy_grid_simple_map_no_base.json").read_text())
    assert raw_simple["base_flag"] is None
    f = load_any_map(DATA / "legacy_grid_map.json")
    g = load_any_map(DATA / "legacy_grid_simple_map_no_base.json")
    assert isinstance(f, MeasurableMap) and isinstance(g, SimpleMap)
    for back, raw in ((f, raw_map), (g, raw_simple)):
        legacy = np.array(raw["domain"]["weights"])
        assert back.domain.weights.tobytes() == legacy.tobytes()
        assert back.domain.weights.tobytes() == Domain.grid(2, 4).weights.tobytes()
        assert back.domain.geometry == Domain.grid(2, 4).geometry
    assert f.values.tobytes() == np.array(raw_map["values"]).tobytes()
    assert np.array_equal(g.labels, raw_simple["labels"])
    assert g.value_table.tobytes() == np.array(raw_simple["values"]).tobytes()

    save_map(f, tmp_path / "f.json")
    save_simple_map(g, tmp_path / "g.json")
    for name in ("f.json", "g.json"):
        assert "weights" not in json.loads((tmp_path / name).read_text())["domain"]
    assert "base_flag" not in json.loads((tmp_path / "g.json").read_text())
    f2, g2 = load_any_map(tmp_path / "f.json"), load_any_map(tmp_path / "g.json")
    assert f2.values.tobytes() == f.values.tobytes()
    assert f2.domain.weights.tobytes() == f.domain.weights.tobytes()
    assert np.array_equal(g2.labels, g.labels)
    assert g2.value_table.tobytes() == g.value_table.tobytes()


def test_simple_map_with_base_labels_is_refused(tmp_path):
    """An almost-simple output written before base values went into the
    table labels atoms -1, "take the base's value", but holds no base:
    it is refused with a DataError that says to quantize again, and the
    CLI exits 2 on it."""
    path = DATA / "legacy_grid_simple_map.json"
    assert -1 in json.loads(path.read_text())["labels"]
    with pytest.raises(DataError, match="quantize again"):
        load_any_map(path)
    assert main(["distance", str(path), str(path), "--out", str(tmp_path / "d.json")]) == 2


def test_simple_map_round_trip(tmp_path):
    sp = make_space("euclidean1")
    dom = Domain(np.ones(6))
    g = SimpleMap(dom, sp, np.array([0, 2, 1, 1, 2, 0]), np.array([[2.0], [5.0], [9.0]]))
    save_simple_map(g, tmp_path / "g.json")
    assert list(json.loads((tmp_path / "g.json").read_text())) == [
        "kind", "space", "labels", "values", "domain"]
    back = load_any_map(tmp_path / "g.json")
    assert np.array_equal(back.labels, g.labels)
    assert np.array_equal(back.value_table, g.value_table)
    assert back.range_size == g.range_size == 3


def _all_inline_simple_map_text(g: SimpleMap) -> str:
    """The simple-map file with every member inline, in this order, as
    written before its table went through the values codec (which also
    wrote a null base flag before the domain)."""
    return json.dumps({"kind": "simple_map", "space": g.space.descriptor(),
                       "labels": g.labels.tolist(), "values": g.value_table.tolist(),
                       "domain": fileio._domain_payload(g.domain)})


def test_simple_map_table_past_the_threshold_goes_to_a_sidecar(tmp_path, rng):
    """A table of 1,100 distinct spd2 rows (4,400 floats) is stored as a
    map's values are: a raw float64 sidecar named in the file, with its
    shape; the labels stay inline.  It loads back bit for bit."""
    sp = make_space("spd2")
    table = sp.random_payloads(rng, 1100, 0.5)
    assert len(np.unique(table, axis=0)) == 1100 and table.size > fileio.SIDECAR_THRESHOLD
    table[0, 1] = table[0, 2] = -0.0  # a signed zero survives the raw bytes
    table[0, 0] = table[0, 3] = 2.0
    dom = Domain.grid(2, 34)  # 1,156 atoms
    labels = np.arange(dom.atom_count) % 1100
    g = SimpleMap(dom, sp, labels, table)
    save_simple_map(g, tmp_path / "g.json")
    raw = json.loads((tmp_path / "g.json").read_text())
    assert list(raw) == ["kind", "space", "labels", "values_file", "values_shape", "domain"]
    assert raw["values_file"] == "g.json.values.bin" and raw["values_shape"] == [1100, 4]
    assert raw["labels"] == labels.tolist()
    assert (tmp_path / "g.json.values.bin").read_bytes() == table.astype("<f8").tobytes()
    back = load_any_map(tmp_path / "g.json")
    assert isinstance(back, SimpleMap)
    assert back.labels.tobytes() == g.labels.tobytes()
    assert back.value_table.tobytes() == table.tobytes()
    assert back.domain.geometry == dom.geometry


def test_simple_map_table_at_the_threshold_stays_inline_as_before(tmp_path, rng):
    """1,024 spd2 rows are exactly SIDECAR_THRESHOLD floats: the table stays
    inline and the file is the one written before the shared codec, byte
    for byte."""
    sp = make_space("spd2")
    dom = Domain.grid(2, 32)
    g = SimpleMap(dom, sp, np.arange(1024)[::-1], sp.random_payloads(rng, 1024, 0.3))
    assert g.value_table.size == fileio.SIDECAR_THRESHOLD
    save_simple_map(g, tmp_path / "g.json")
    assert (tmp_path / "g.json").read_text() == _all_inline_simple_map_text(g)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]
    back = load_any_map(tmp_path / "g.json")
    assert back.value_table.tobytes() == g.value_table.tobytes()


def test_large_simple_map_with_an_inline_table_still_loads(tmp_path, rng):
    """Files written before the shared codec list every table row inline,
    however many, and a null base flag; they load bit for bit, and a save
    moves the table to a sidecar."""
    sp = make_space("spd2")
    dom = Domain.grid(2, 34)
    g = SimpleMap(dom, sp, np.arange(dom.atom_count) % 1100, sp.random_payloads(rng, 1100))
    old = json.loads(_all_inline_simple_map_text(g))
    old["base_flag"] = None
    (tmp_path / "old.json").write_text(json.dumps(old))
    back = load_any_map(tmp_path / "old.json")
    assert back.labels.tobytes() == g.labels.tobytes()
    assert back.value_table.tobytes() == g.value_table.tobytes()
    assert back.domain.geometry == dom.geometry
    save_simple_map(back, tmp_path / "new.json")
    assert "values" not in json.loads((tmp_path / "new.json").read_text())
    again = load_any_map(tmp_path / "new.json")
    assert again.value_table.tobytes() == g.value_table.tobytes()


@pytest.mark.parametrize("space_name, rows", [("euclidean0", 5000), ("euclidean0", 0),
                                              ("spd2", 0)])
def test_simple_map_tables_without_floats_round_trip(tmp_path, space_name, rows):
    """A table of zero floats (a single-point space, or no rows) keeps its
    row count, whatever the number of rows."""
    sp = make_space(space_name)
    dom = Domain(np.ones(3 if rows else 0))  # no row to label an atom with
    labels = np.zeros(dom.atom_count, dtype=np.int64)
    g = SimpleMap(dom, sp, labels, np.zeros((rows, sp.dim)))
    save_simple_map(g, tmp_path / "g.json")
    back = load_any_map(tmp_path / "g.json")
    assert back.value_table.shape == (rows, sp.dim)
    assert np.array_equal(back.labels, labels)


def test_load_any_map_dispatches(tmp_path, rng):
    sp = make_space("euclidean1")
    dom = Domain(np.ones(3))
    f = MeasurableMap(dom, sp, rng.normal(size=(3, 1)))
    g = SimpleMap(dom, sp, np.zeros(3, dtype=int), np.array([[1.0]]))
    save_map(f, tmp_path / "f.json")
    save_simple_map(g, tmp_path / "g.json")
    assert isinstance(load_any_map(tmp_path / "f.json"), MeasurableMap)
    assert isinstance(load_any_map(tmp_path / "g.json"), SimpleMap)


def _map_referring_to(domain_path: Path) -> Path:
    """A 16-row map file beside `domain_path` whose domain is a reference to
    it; 16 rows match the 4 x 4 grids below, so a grid fails for its own fault."""
    ref = domain_path.with_name("ref.json")
    ref.write_text(json.dumps({
        "kind": "map", "space": {"space": "euclidean1"},
        "domain": {"path": domain_path.name}, "values": [[0.0]] * 16,
    }))
    return ref


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
        '{"kind": "domain", "atoms": 15, "geometry": {"dim": 2, "cells_per_axis": 4}}',
        '{"kind": "domain", "atoms": 3, "geometry": null}',
        '{"kind": "domain", "geometry": {"dim": 2, "cells_per_axis": 0}}',
    ],
)
def test_malformed_inputs_raise_data_error(tmp_path, text):
    path = write_bad_file(tmp_path, text)
    if "map" in text:
        with pytest.raises(DataError):
            load_any_map(path)
        return
    # any other text is read as a domain, which only a map's reference reaches
    with pytest.raises(DataError, match="bad.json|domain|atom count"):
        load_any_map(_map_referring_to(path))


def test_missing_file_raises_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_any_map(tmp_path / "absent.json")
    with pytest.raises(DataError, match="cannot read"):
        load_any_map(_map_referring_to(tmp_path / "absent.json"))


def test_sidecar_shape_mismatch_raises(tmp_path, rng):
    sp = make_space("euclidean3")
    dom = Domain.grid(2, 48)
    f = MeasurableMap(dom, sp, rng.normal(size=(dom.atom_count, 3)))
    save_map(f, tmp_path / "big.json")
    blob = (tmp_path / "big.json.values.bin").read_bytes()
    (tmp_path / "big.json.values.bin").write_bytes(blob[:-16])
    with pytest.raises(DataError, match="sidecar"):
        load_any_map(tmp_path / "big.json")


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda blob: blob + bytes(8), "sidecar length does not match the declared shape"),
        (lambda blob: b"", "sidecar length does not match the declared shape"),
        (lambda blob: blob[:-3], "buffer size must be a multiple of element size"),
        (lambda blob: blob + bytes(5), "buffer size must be a multiple of element size"),
    ],
    ids=["long", "empty", "ragged-short", "ragged-long"],
)
def test_sidecar_of_the_wrong_size_is_refused(tmp_path, rng, cut, message):
    """A sidecar whose byte count is not eight per declared value, or not a
    multiple of eight at all, ends in DataError; a whole one loads into a
    writable float64 array."""
    f = MeasurableMap(Domain.grid(2, 48), make_space("euclidean3"), rng.normal(size=(2304, 3)))
    save_map(f, tmp_path / "big.json")
    side = tmp_path / "big.json.values.bin"
    values = load_any_map(tmp_path / "big.json").values
    assert np.array_equal(values, f.values) and values.dtype == np.float64
    assert values.flags.writeable and values.flags.c_contiguous
    side.write_bytes(cut(side.read_bytes()))
    with pytest.raises(DataError, match=message):
        load_any_map(tmp_path / "big.json")


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
    assert np.array_equal(load_any_map(tmp_path / "m.json").values, new.values)


def _per_element_domain(domain):
    geo = domain.geometry
    if geo is None:
        return {"kind": "domain", "atoms": domain.atom_count,
                "weights": [float(w) for w in domain.weights], "geometry": None}
    return {"kind": "domain", "atoms": domain.atom_count,
            "geometry": {"dim": geo.dim, "cells_per_axis": geo.cells_per_axis}}


@pytest.mark.parametrize("name", ["euclidean2", "euclidean0", "circle"])
def test_writers_match_the_per_element_form_byte_for_byte(tmp_path, rng, name):
    """The writers list arrays with `tolist()`; the files equal the old
    per-element form (`float(v)` per value, `int(v)` per label) byte for
    byte, with -0.0 values and zero, -0.0 and Infinity weights."""
    sp = make_space(name)
    weights = rng.uniform(0.1, 2.0, 7)
    weights[[1, 4, 5]] = [math.inf, -0.0, 0.0]
    for dom in (Domain(weights), Domain.grid(1, 7)):
        values = sp.random_payloads(rng, 7)
        table = sp.random_payloads(rng, 3)
        if sp.dim:
            values[[0, 3], 0] = [-0.0, 0.0]
            table[1, 0] = -0.0
        f = MeasurableMap(dom, sp, values)
        save_map(f, tmp_path / "f.json")
        want = {"kind": "map", "space": sp.descriptor(), "domain": _per_element_domain(dom),
                "values": [[float(v) for v in row] for row in values]}
        assert (tmp_path / "f.json").read_text() == json.dumps(want)
        labels = np.array([2, 1, 0, 0, 1, 0, 2])
        g = SimpleMap(dom, sp, labels, table)
        save_simple_map(g, tmp_path / "g.json")
        want = {"kind": "simple_map", "space": sp.descriptor(),
                "labels": [int(v) for v in labels],
                "values": [[float(v) for v in row] for row in table],
                "domain": _per_element_domain(dom)}
        assert (tmp_path / "g.json").read_text() == json.dumps(want)
    text = (tmp_path / "f.json").read_text()
    assert sp.dim == 0 or "-0.0" in text
