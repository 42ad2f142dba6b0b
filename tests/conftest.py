"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import metriclp
from metriclp import Domain, MeasurableMap, make_space

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that must import the metriclp
    this process imported, whatever its cwd and however PYTHONPATH was given."""
    src = str(Path(metriclp.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)


SPACE_NAMES = ["euclidean3", "spd2", "simplex3", "histogram8", "circle"]


def flat_sym(m: np.ndarray) -> np.ndarray:
    """Row-major flattening of a symmetric matrix into an SPD payload."""
    return np.asarray(m, dtype=np.float64).reshape(-1)


def ill_conditioned_spd(sp, rng, m, cond_lo=1e6, cond_hi=1e8):
    """m random SPD payloads whose condition numbers lie in [cond_lo, cond_hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((m, sp.n, sp.n)))
    log_cond = rng.uniform(np.log(cond_lo), np.log(cond_hi), m)
    w = np.exp(np.linspace(-0.5, 0.5, sp.n)[None, :] * log_cond[:, None])
    mats = (q * w[:, None, :]) @ np.swapaxes(q, -1, -2)
    return sp.check_payload(sp._flat_sym(mats))


# Map files the loader must refuse with DataError: a non-list sidecar
# shape, ragged inline values, and a sidecar and a domain file named
# outside the map file's directory.  `write_bad_file` puts valid targets
# for the last two one directory up, so only the path check refuses them.
BAD_MAP_TEXTS = [
    '{"kind": "map", "space": {"space": "euclidean1"}, "domain": {"weights": [1.0]},'
    ' "values_file": "side.bin", "values_shape": 5}',
    '{"kind": "map", "space": {"space": "euclidean2"}, "domain": {"weights": [1.0, 1.0]},'
    ' "values": [[0.0, 1.0], [2.0]]}',
    '{"kind": "map", "space": {"space": "euclidean1"}, "domain": {"weights": [1.0]},'
    ' "values_file": "../side.bin", "values_shape": [1, 1]}',
    '{"kind": "map", "space": {"space": "euclidean1"}, "domain": {"path": "../dom.json"},'
    ' "values": [[0.0]]}',
    '{"kind": "map", "space": {"space": "euclidean1"}, "domain": {"atoms": 2,'
    ' "geometry": {"dim": 1, "cells_per_axis": 1}}, "values": [[0.0]]}',
    '{"kind": "map", "space": {"space": "euclidean1"}, "domain": {"geometry":'
    ' {"dim": 2, "cells_per_axis": 4}}, "values": [[0.0]]}',
    '{"kind": "simple_map", "space": {"space": "euclidean1"}, "domain": {"geometry":'
    ' {"dim": 1, "cells_per_axis": 3}}, "labels": [0, 0], "values": [[0.0]]}',
    '{"kind": "map", "space": {"space": "euclidean1"}, "domain": {"atoms": 1},'
    ' "values": [[0.0]]}',
    # labels that are not int64s: a float or a boolean would be read as 1
    '{"kind": "simple_map", "space": {"space": "euclidean2"}, "domain": {"weights": [1.0]},'
    ' "labels": [1.5], "values": [[0.0, 0.0], [3.0, 4.0]]}',
    '{"kind": "simple_map", "space": {"space": "euclidean2"}, "domain": {"weights": [1.0]},'
    ' "labels": [true], "values": [[0.0, 0.0], [3.0, 4.0]]}',
    '{"kind": "simple_map", "space": {"space": "euclidean2"}, "domain": {"weights": [1.0]},'
    ' "labels": [1180591620717411303424], "values": [[0.0, 0.0], [3.0, 4.0]]}',
    # a value that is an integer past the float range: float() overflows
    '{"kind": "map", "space": {"space": "euclidean1"}, "domain": {"weights": [1.0]},'
    f' "values": [[{10**400}]]}}',
    '{"kind": "simple_map", "space": {"space": "euclidean1"}, "domain": {"weights": [1.0]},'
    f' "labels": [0], "values": [[{10**400}]]}}',
    # simple-map tables that are not (rows, dim): never reshaped into rows
    '{"kind": "simple_map", "space": {"space": "spd2"}, "domain": {"weights": [1.0, 1.0]},'
    ' "labels": [0, 0], "values": [[1.0, 0.0], [0.0, 1.0]]}',
    '{"kind": "simple_map", "space": {"space": "euclidean1"}, "domain": {"weights": [1.0]},'
    ' "labels": [0], "values_file": "side.bin", "values_shape": [1]}',
]


def write_bad_file(tmp_path, text):
    """Write `text` as maps/bad.json under tmp_path, with a one-float
    sidecar beside it and in tmp_path, and a one-atom domain in tmp_path."""
    maps = tmp_path / "maps"
    maps.mkdir(parents=True)
    one = np.zeros(1, dtype="<f8").tobytes()
    (maps / "side.bin").write_bytes(one)
    (tmp_path / "side.bin").write_bytes(one)
    (tmp_path / "dom.json").write_text('{"kind": "domain", "weights": [1.0], "geometry": null}')
    path = maps / "bad.json"
    path.write_text(text)
    return path


def random_pair(space, rng, n_atoms=8, weights=None):
    """Two random mappings over a shared domain."""
    domain = Domain(weights if weights is not None else rng.uniform(0.1, 2.0, n_atoms))
    f = MeasurableMap(domain, space, space.random_payloads(rng, domain.atom_count))
    g = MeasurableMap(domain, space, space.random_payloads(rng, domain.atom_count))
    return f, g


@pytest.fixture(scope="session")
def spaces():
    return {name: make_space(name) for name in SPACE_NAMES}


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
