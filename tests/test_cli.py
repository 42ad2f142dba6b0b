"""End-to-end CLI tests, mostly in-process through main(argv)."""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import metriclp
from metriclp import (
    Domain,
    MeasurableMap,
    SimpleMap,
    dp_distance,
    make_space,
    pointwise_distance,
    spaces,
    verify,
)
from metriclp import cli
from metriclp.cli import EXIT_DATA, main
from metriclp.fileio import load_any_map, save_map, save_simple_map
from metriclp.spaces import MetricSpace

from .conftest import BAD_MAP_TEXTS, child_env, write_bad_file
from .test_mutants import FAULTS_BY_NAME, install


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture()
def pair_files(tmp_path, rng):
    sp = make_space("euclidean2")
    dom = Domain(np.ones(1))
    a = MeasurableMap(dom, sp, np.array([[0.0, 0.0]]))
    b = MeasurableMap(dom, sp, np.array([[3.0, 4.0]]))
    save_map(a, tmp_path / "a.json")
    save_map(b, tmp_path / "b.json")
    return tmp_path / "a.json", tmp_path / "b.json"


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_smooth_writes_map(tmp_path, capsys):
    out = tmp_path / "f.json"
    code, stdout, _ = run_cli(
        capsys, "gen", "--kind", "smooth", "--space", "euclidean2",
        "--grid", "16x16", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary == {"written": str(out), "kind": "map", "atoms": 256}
    f = load_any_map(out)
    assert f.values.shape == (256, 2)
    assert f.domain.geometry.cells_per_axis == 16


def test_gen_piecewise_writes_simple_map(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, stdout, _ = run_cli(
        capsys, "gen", "--kind", "piecewise", "--space", "euclidean1",
        "--grid", "64", "--regions", "3", "--out", str(out),
    )
    assert code == 0
    assert last_json(stdout)["kind"] == "simple_map"
    g = load_any_map(out)
    assert isinstance(g, SimpleMap)
    assert 1 <= g.range_size <= 3


@pytest.mark.parametrize("regions", ["100000", "9", "0"])
def test_gen_refuses_region_counts_the_grid_cannot_hold(tmp_path, capsys, regions):
    """An 8-cell grid holds 1..8 Voronoi regions; more would need seed
    cells that do not exist."""
    out = tmp_path / "g.json"
    code, stdout, err = run_cli(
        capsys, "gen", "--kind", "piecewise", "--regions", regions, "--grid", "8",
        "--out", str(out),
    )
    assert code in (1, 2) and stdout == "" and not out.exists()
    assert "n_regions" in err and "Traceback" not in err


def test_gen_deterministic_per_seed(tmp_path, capsys):
    outs = []
    for name in ("r1.json", "r2.json"):
        run_cli(capsys, "gen", "--kind", "random", "--grid", "8x8",
                "--seed", "7", "--out", str(tmp_path / name))
        outs.append(load_any_map(tmp_path / name).values)
    assert np.array_equal(outs[0], outs[1])


def test_gen_constant_requires_value(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "constant",
                           "--out", str(tmp_path / "c.json"))
    assert code == 1
    assert "usage error" in err


def test_gen_env_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("METRICLP_OUT", str(tmp_path))
    code, stdout, _ = run_cli(capsys, "gen", "--kind", "smooth", "--grid", "4x4")
    assert code == 0
    assert (tmp_path / "smooth-euclidean2.json").exists()


def test_gen_env_output_dir_is_created(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("METRICLP_OUT", str(tmp_path / "fresh" / "nested"))
    code, _, _ = run_cli(capsys, "gen", "--kind", "smooth", "--grid", "4x4")
    assert code == 0
    assert (tmp_path / "fresh" / "nested" / "smooth-euclidean2.json").exists()


@pytest.mark.parametrize("name", ["bogus", "simplex0", "spd0", "histogram0", "histogramx"])
def test_gen_refuses_a_space_name_no_space_has(tmp_path, capsys, name):
    out = tmp_path / "f.json"
    code, stdout, err = run_cli(capsys, "gen", "--kind", "random", "--space", name,
                                "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert f"usage error: bad space {name!r}" in err


@pytest.mark.parametrize("kind", ["random", "piecewise"])
def test_gen_single_point_space_writes_a_file_that_loads(tmp_path, capsys, kind):
    """euclidean0 payloads have length 0; maps and simple maps of them
    round-trip through their files."""
    out = tmp_path / "f.json"
    code, _, err = run_cli(capsys, "gen", "--kind", kind, "--space", "euclidean0",
                           "--grid", "4x4", "--out", str(out))
    assert code == 0, err
    g = load_any_map(out)
    assert g.space.dim == 0 and g.domain.atom_count == 16


def test_gen_rejects_ragged_grid(capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "smooth", "--grid", "4x8")
    assert code == 1 and "square" in err


def test_a_negative_seed_is_a_usage_error(tmp_path, capsys):
    """numpy's generators take only nonnegative seeds: -1 from the flag or
    from a config used to end gen in a ValueError traceback, and verify in
    19 failed checks (exit 3)."""
    config = tmp_path / "config.json"
    config.write_text('{"seed": -1}')
    out = str(tmp_path / "out.json")
    for argv in (["gen", "--kind", "random", "--seed", "-1", "--out", out],
                 ["gen", "--kind", "random", "--config", str(config), "--out", out],
                 ["verify", "--seed", "-1"],
                 ["verify", "--config", str(config)]):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 1 and stdout == "", argv
        assert err.startswith("usage error: ") and "nonnegative" in err and err.count("\n") == 1


def test_gen_refuses_a_grid_numpy_cannot_hold(tmp_path, capsys):
    code, stdout, err = run_cli(capsys, "gen", "--kind", "random", "--grid", str(10**30),
                                "--out", str(tmp_path / "g.json"))
    assert code == 1 and stdout == "" and err.startswith("usage error: ")
    assert "too large" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_multi_exponent(pair_files, tmp_path, capsys):
    a, b = pair_files
    report_path = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "distance", str(a), str(b), "--p", "1,2,inf",
        "--out", str(report_path),
    )
    assert code == 0
    report = json.loads(stdout)
    # single unit-weight atom: every D_p equals the 3-4-5 ground distance
    assert report["distances"] == {"1": 5.0, "2": 5.0, "inf": 5.0}
    assert json.loads(report_path.read_text()) == report


def test_distance_missing_file_is_data_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "distance", str(tmp_path / "no.json"), str(tmp_path / "no.json")
    )
    assert code == 2
    assert "error" in err


def test_distance_malformed_map_files_are_data_errors(pair_files, tmp_path, capsys):
    _, good = pair_files
    for i, text in enumerate(BAD_MAP_TEXTS):
        bad = write_bad_file(tmp_path / f"case{i}", text)
        code, _, err = run_cli(capsys, "distance", str(bad), str(good))
        assert code == EXIT_DATA, (text, err)
        assert err.startswith("error: "), (text, err)


@pytest.mark.parametrize("tag", [None, 5, [], {}])
@pytest.mark.parametrize(
    "command",
    [["distance"], ["quantize", "--mode", "countable", "--eps", "0.1"], ["continuify", "--eps", "0.2"]],
)
def test_a_space_tag_that_is_not_a_string_is_a_data_error(tmp_path, capsys, tag, command):
    """A non-string tag used to reach `tag.startswith` and end in an
    AttributeError traceback."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"kind": "map", "space": {"space": tag}, "domain": {"weights": [1.0]}, "values": [[0.0]]}
    ))
    argv = [*command, str(path)] + ([str(path)] if command == ["distance"] else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DATA, err
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "bad space descriptor" in err


@pytest.mark.parametrize("layout", ["geometry", "weights"])
@pytest.mark.parametrize(
    "geometry",
    [{"dim": 2, "cells_per_axis": 0}, {"dim": 0, "cells_per_axis": 4},
     {"dim": True, "cells_per_axis": 1}, {"dim": 2, "cells_per_axis": 2.0},
     {"dim": 1, "cells_per_axis": -3}, {"dim": "2", "cells_per_axis": 4}],
)
def test_distance_refuses_malformed_grid_geometry(tmp_path, capsys, layout, geometry):
    domain = {"geometry": geometry} if layout == "geometry" else {"weights": [], "geometry": geometry}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"kind": "map", "space": {"space": "euclidean1"}, "domain": domain, "values": []}
    ))
    code, _, err = run_cli(capsys, "distance", str(path), str(path))
    assert code == EXIT_DATA, err
    assert err.startswith("error: ") and "Traceback" not in err


def test_distance_refuses_a_grid_claim_larger_than_its_values(tmp_path):
    """A geometry-only domain lets a 200-byte file claim a 10^6 x 10^6 grid.
    The readers compare the claim with the map's rows before building any
    weights; the child runs under an address-space limit, so a regression
    ends in MemoryError instead of taking the host's memory."""
    huge = {"kind": "domain", "atoms": 10**12, "geometry": {"dim": 2, "cells_per_axis": 10**6}}
    space = {"space": "euclidean1"}
    files = {
        "dom.json": huge,
        "map.json": {"kind": "map", "space": space, "domain": huge, "values": [[0.0]]},
        "simple.json": {"kind": "simple_map", "space": space, "domain": huge,
                        "labels": [0], "values": [[0.0]], "base_flag": None},
        "ref.json": {"kind": "map", "space": space, "domain": {"path": "dom.json"},
                     "values": [[0.0]]},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from metriclp.cli import main\n"
        "print([main(['distance', path, path]) for path in sys.argv[1:]])\n"
    )
    maps = [str(tmp_path / name) for name in ("map.json", "simple.json", "ref.json")]
    proc = subprocess.run(
        [sys.executable, "-c", child, *maps],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([EXIT_DATA] * 3)
    assert proc.stderr.count("error: ") == 3 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("shape", ["[Infinity, 4]", "[1e308, 4]", "[-Infinity]"])
def test_a_sidecar_shape_past_the_integers_is_a_data_error(tmp_path, capsys, shape):
    """A float shape entry has no integer size: Infinity used to end in an
    OverflowError traceback."""
    path = tmp_path / "m.json"
    (tmp_path / "side.bin").write_bytes(np.zeros(4).tobytes())
    path.write_text('{"kind": "map", "space": {"space": "euclidean1"}, "domain":'
                    ' {"weights": [1.0, 1.0, 1.0, 1.0]}, "values_file": "side.bin",'
                    f' "values_shape": {shape}}}')
    code, stdout, err = run_cli(capsys, "distance", str(path), str(path))
    assert code == EXIT_DATA and stdout == ""
    assert err.startswith("error: ") and "shape" in err and err.count("\n") == 1


def test_distance_refuses_a_pointwise_distance_that_overflowed(tmp_path, capsys):
    """Maps 1e308 and -1e308 on one atom are 2e308 apart, past the float
    range: the euclidean kernel gives inf there, without a warning, and
    every exponent is refused with one error line, exit 2, rather than
    D_p = nan."""
    dom = Domain.grid(1, 4)
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    save_map(MeasurableMap(dom, make_space("euclidean1"), [[0.0], [0.0], [1e308], [0.0]]), left)
    save_map(MeasurableMap(dom, make_space("euclidean1"), [[0.0], [0.0], [-1e308], [0.0]]), right)
    for p in ("1", "2", "inf", "1,2,inf"):
        code, stdout, err = run_cli(capsys, "distance", str(left), str(right), "--p", p)
        assert code == EXIT_DATA and stdout == ""
        assert err.startswith("error: D_p is undefined") and err.count("\n") == 1


def test_distance_refuses_an_spd3_pencil_past_the_float_range(tmp_path, capsys):
    """diag(1e-11) against diag(1e300) in spd3: the congruence overflows,
    and eigvalsh does not converge on the infinite entries.  That pair is
    refused, in spd2's words, with one error line and exit 2, not with a
    LinAlgError traceback or an overflow warning."""
    dom = Domain(np.ones(2))
    small, huge = tmp_path / "small.json", tmp_path / "huge.json"
    save_map(MeasurableMap(dom, make_space("spd3"), np.tile(1e-11 * np.eye(3).ravel(), (2, 1))),
             small)
    save_map(MeasurableMap(dom, make_space("spd3"), np.tile(1e300 * np.eye(3).ravel(), (2, 1))),
             huge)
    code, stdout, err = run_cli(capsys, "distance", str(small), str(huge))
    assert code == EXIT_DATA and stdout == ""
    assert err == "error: spd distance: the pair's pencil is past the float range\n"


def test_distance_bad_exponent(pair_files, capsys):
    a, b = pair_files
    code, _, err = run_cli(capsys, "distance", str(a), str(b), "--p", "banana")
    assert code == 1 and "usage error" in err


def test_distance_report_keys_never_collide(pair_files, capsys):
    """Each exponent keeps its own key: the `:g` form where it reads back as
    the exponent, its repr where `:g` would round it onto another one."""
    a, b = pair_files
    code, stdout, _ = run_cli(
        capsys, "distance", str(a), str(b), "--p", "1,1.0000001,2.5000004,1.5,400,inf",
    )
    assert code == 0
    keys = list(json.loads(stdout)["distances"])
    assert keys == ["1", "1.0000001", "2.5000004", "1.5", "400", "inf"]


def test_distance_checks_every_exponent_before_reading_files(tmp_path, capsys):
    missing = str(tmp_path / "no.json")
    code, _, err = run_cli(capsys, "distance", missing, missing, "--p", "2,0.5")
    assert code == EXIT_DATA
    assert err == "error: p must satisfy 1 <= p <= inf\n"


DISTANCE_TARGETS = [("euclidean3", 16), ("spd2", 16), ("simplex3", 16),
                    ("histogram8", 16), ("circle", 16), ("spd3", 8)]
DISTANCE_EXPONENTS = (1.0, 1.5, 2.0, 4.0, 400.0, math.inf)


@pytest.mark.parametrize("target,n", DISTANCE_TARGETS)
def test_distance_reduces_one_pointwise_pass_per_exponent(tmp_path, capsys, monkeypatch, target, n):
    """`distance` evaluates the ground metric once for all exponents, and each
    value is the one `dp_distance` gives at that exponent, bit for bit."""
    files = []
    for seed, side in enumerate("ab"):
        path = tmp_path / f"{side}.json"
        code, _, err = run_cli(capsys, "gen", "--kind", "random", "--space", target,
                               "--grid", f"{n}x{n}", "--seed", str(seed), "--spread", "0.1",
                               "--out", str(path))
        assert code == 0, err
        files.append(str(path))
    calls = []
    original = MetricSpace.distance_many

    def counting(self, a, b):
        calls.append(np.shape(a))
        return original(self, a, b)

    monkeypatch.setattr(MetricSpace, "distance_many", counting)
    code, stdout, err = run_cli(capsys, "distance", *files, "--p", "1,2,inf")
    assert code == 0, err
    assert calls == [(n * n, make_space(target).dim)]
    monkeypatch.undo()

    code, stdout, err = run_cli(capsys, "distance", *files, "--p", "1,1.5,2,4,400,inf")
    assert code == 0, err
    got = json.loads(stdout)["distances"]
    left, right = load_any_map(files[0]), load_any_map(files[1])
    want = {key: dp_distance(left, right, p)
            for key, p in zip(["1", "1.5", "2", "4", "400", "inf"], DISTANCE_EXPONENTS)}
    assert got == want  # float equality: bit for bit on finite values
    # p = 400 takes the scaled (Blue 1978) path: some live term w * d**400
    # falls below the normal range (--spread 0.1 keeps d small on every target)
    d = pointwise_distance(left, right)
    live = d > 0
    assert live.any()
    with np.errstate(under="ignore"):
        terms = left.domain.weights[live] * d[live] ** 400.0
    assert np.any(terms < np.finfo(np.float64).tiny)


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1 and "usage error" in err


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------


def test_quantize_countable(tmp_path, capsys, rng):
    sp = make_space("euclidean1")
    dom = Domain(np.ones(64))
    f = MeasurableMap(dom, sp, rng.normal(size=(64, 1)))
    save_map(f, tmp_path / "f.json")
    out = tmp_path / "q.json"
    report_path = tmp_path / "qr.json"
    code, stdout, _ = run_cli(
        capsys, "quantize", str(tmp_path / "f.json"), "--mode", "countable",
        "--eps", "0.25", "--out", str(out), "--report", str(report_path),
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["achieved_error"] < 0.25
    g = load_any_map(out)
    assert isinstance(g, SimpleMap)
    assert g.range_size == summary["range_size"]
    assert json.loads(report_path.read_text())["target_eps"] == 0.25


def test_quantize_almost_simple_with_constant_base(tmp_path, capsys, rng):
    sp = make_space("euclidean1")
    dom = Domain(np.ones(32))
    f = MeasurableMap(dom, sp, rng.normal(size=(32, 1)))
    save_map(f, tmp_path / "f.json")
    code, stdout, _ = run_cli(
        capsys, "quantize", str(tmp_path / "f.json"), "--mode", "almost-simple",
        "--eps", "0.5", "--p", "2", "--base-value", "[0.0]",
        "--out", str(tmp_path / "q.json"),
    )
    assert code == 0
    assert last_json(stdout)["achieved_error"] < 0.5


def test_quantize_almost_simple_requires_base(tmp_path, capsys, rng):
    sp = make_space("euclidean1")
    f = MeasurableMap(Domain(np.ones(4)), sp, rng.normal(size=(4, 1)))
    save_map(f, tmp_path / "f.json")
    code, _, err = run_cli(
        capsys, "quantize", str(tmp_path / "f.json"),
        "--mode", "almost-simple", "--eps", "0.5",
    )
    assert code == 1 and "base" in err


@pytest.mark.parametrize("fixture,p,eps,base", [
    # values 1e200 apart: a difference of sums lost the step-2 residual
    ("far", "1", "0.5", "[0]"),
    # d**p overflowed, and the residual left the search at its cap
    ("far", "2", "0.5", "[0]"),
    # (eps/3)**p: cancellation noise above 1e-50, and a budget of 0.0
    ("simplex", "50", "0.3", "[0.2, 0.3, 0.5]"),
    ("simplex", "700", "0.3", "[0.2, 0.3, 0.5]"),
    # (eps/3)**p overflowed
    ("simplex", "2", "1e308", "[0.2, 0.3, 0.5]"),
])
def test_quantize_almost_simple_keeps_its_guarantee_at_every_scale(
        tmp_path, capsys, fixture, p, eps, base):
    """Each step stays under eps/3 and the error under eps, with no warning,
    however far the values lie and however large p or eps is."""
    path = tmp_path / "f.json"
    if fixture == "far":
        values = np.array([0, 1e200, 2e200, 0, 1, 3, 1e-200, 5])[:, None]
        save_map(MeasurableMap(Domain.grid(1, 8), make_space("euclidean1"), values), path)
    else:
        code, _, err = run_cli(capsys, "gen", "--kind", "smooth", "--space", "simplex3",
                               "--grid", "8", "--out", str(path))
        assert code == 0, err
    report = tmp_path / "r.json"
    code, stdout, err = run_cli(
        capsys, "quantize", str(path), "--mode", "almost-simple", "--p", p, "--eps", eps,
        "--base-value", base, "--out", str(tmp_path / "q.json"), "--report", str(report),
    )
    assert code == 0 and err == "", err
    assert last_json(stdout)["achieved_error"] < float(eps)
    steps = json.loads(report.read_text())["step_breakdown"]
    assert all(steps[step] < float(eps) / 3 for step in ("step1", "step2", "step3")), steps


def test_quantize_sup_refuses_an_unbounded_ball(tmp_path):
    """Values 1e308 and -1e308 put the range in a ball of infinite radius:
    its probe grid cannot be sized, which is a refusal, not a traceback."""
    sp = make_space("euclidean1")
    f = MeasurableMap(Domain(np.ones(3)), sp, np.array([[1e308], [-1e308], [0.0]]))
    save_map(f, tmp_path / "f.json")
    proc = subprocess.run(
        [sys.executable, "-m", "metriclp", "quantize", str(tmp_path / "f.json"),
         "--mode", "sup", "--eps", "0.5", "--base", str(tmp_path / "f.json")],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_quantize_warns_when_the_error_is_not_below_eps(tmp_path, capsys, monkeypatch, rng):
    """A sup net too sparse for the range (here the center alone) gives an
    error of eps or more: stderr says so, while stdout and the exit code
    are those of any run."""
    plane = make_space("euclidean2")
    values = plane.random_payloads(rng, 25)
    save_map(MeasurableMap(Domain(np.ones(25)), plane, values), tmp_path / "f.json")
    argv = ["quantize", str(tmp_path / "f.json"), "--mode", "sup", "--eps", "0.3",
            "--base-value", "[0.0, 0.0]", "--out", str(tmp_path / "q.json")]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 0 and last_json(stdout)["achieved_error"] < 0.3 and err == ""
    monkeypatch.setattr(type(plane), "epsilon_net",
                        lambda self, center, radius, eps: np.array([center]))
    code, stdout, err = run_cli(capsys, *argv)
    summary = last_json(stdout)
    assert code == 0 and stdout.count("\n") == 1 and summary["achieved_error"] >= 0.3
    assert err == (f"warning: achieved_error {summary['achieved_error']!r} is not below"
                   " eps 0.3\n")


def test_quantize_sup_refuses_a_fine_simplex_net_at_once(tmp_path, capsys):
    """eps 0.001 over the whole range asks for a sphere-chart grid of
    303723819 nodes at the second angle: refused with exit 2 before that
    angle's arrays are built, not served by a coarser grid."""
    sp = make_space("simplex3")
    f = MeasurableMap(Domain.grid(2, 8), sp, sp.random_payloads(np.random.default_rng(0), 64))
    save_map(f, tmp_path / "f.json")
    start = time.perf_counter()
    code, stdout, err = run_cli(
        capsys, "quantize", str(tmp_path / "f.json"), "--mode", "sup", "--eps", "0.001",
        "--base-value", "[0.3, 0.3, 0.4]", "--out", str(tmp_path / "q.json"),
    )
    assert code == EXIT_DATA and stdout == "" and "probe grid would need" in err
    assert time.perf_counter() - start < 10.0


def test_quantize_sup_nets_a_small_simplex_range_at_a_fine_eps(tmp_path, capsys):
    """A simplex3 map whose range lies within 0.01 pi of its first value is
    netted at eps 0.001: the probe grid is built only near that ball, so
    it stays under the cap that refuses a ball over the whole orthant."""
    sp = make_space("simplex3")
    center = np.array([0.3, 0.5, 0.2])
    values = sp.geodesic_many(center, sp.random_payloads(np.random.default_rng(0), 16),
                              np.linspace(0.0, 0.01, 16))
    f = MeasurableMap(Domain.grid(2, 4), sp, values)
    save_map(f, tmp_path / "f.json")
    code, stdout, err = run_cli(
        capsys, "quantize", str(tmp_path / "f.json"), "--mode", "sup", "--eps", "0.001",
        "--base-value", "[0.3, 0.5, 0.2]", "--out", str(tmp_path / "q.json"),
    )
    summary = last_json(stdout)
    assert code == 0 and err == "" and summary["achieved_error"] < 0.001


def test_quantize_sup_refuses_a_circle_grid_past_the_probe_cap(tmp_path, capsys, monkeypatch):
    """A circle whose probe grid would pass NET_PROBE_CAP is refused with
    exit 2, as euclidean2 is; the cap is lowered so the old path, which
    built the grid anyway, stays small."""
    monkeypatch.setattr(spaces, "NET_PROBE_CAP", 1000)
    f = MeasurableMap(Domain(np.ones(2)), make_space("circle"), np.array([[0.5], [2.0]]))
    save_map(f, tmp_path / "f.json")
    code, stdout, err = run_cli(
        capsys, "quantize", str(tmp_path / "f.json"), "--mode", "sup", "--eps", "0.01",
        "--base-value", "[0.5]",
    )
    assert code == EXIT_DATA and stdout == ""
    assert "probe grid would need" in err


BUDGET_ARGVS = pytest.mark.parametrize(
    "argv",
    [
        ["continuify", "{simple}"],
        ["quantize", "{map}", "--mode", "countable"],
        ["quantize", "{map}", "--mode", "almost-simple", "--base", "{map}"],
        ["quantize", "{map}", "--mode", "sup", "--base", "{map}"],
    ],
    ids=["continuify", "countable", "almost-simple", "sup"],
)


def assert_budget_refused(tmp_path, capsys, rng, argv, eps):
    f = MeasurableMap(Domain(np.ones(16)), make_space("euclidean1"), rng.normal(size=(16, 1)))
    save_map(f, tmp_path / "f.json")
    simple = make_band_simple(tmp_path)
    argv = [a.format(map=tmp_path / "f.json", simple=simple) for a in argv]
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(capsys, *argv, "--eps", eps, "--out", str(out))
    assert code == EXIT_DATA and stdout == "" and not out.exists()
    assert "must be positive" in err and "Traceback" not in err


@BUDGET_ARGVS
def test_nan_budget_is_refused(tmp_path, capsys, rng, argv):
    """NaN passes an `eps <= 0` test; each budget check refuses it as not
    positive, before any construction can trip over it."""
    assert_budget_refused(tmp_path, capsys, rng, argv, "nan")


@BUDGET_ARGVS
def test_infinite_budget_is_refused(tmp_path, capsys, rng, argv):
    """An infinite eps bounds nothing, and the summary would print it as
    `Infinity`, which strict JSON parsers reject; it is refused like NaN."""
    assert_budget_refused(tmp_path, capsys, rng, argv, "inf")


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "countable"],
        ["--mode", "almost-simple", "--base", "{map}"],
        ["--mode", "sup", "--base-value", "[0]"],
    ],
    ids=["countable", "almost-simple", "sup"],
)
@pytest.mark.parametrize("p", ["nan", "0.5"])
def test_quantize_refuses_a_bad_exponent_in_every_mode(tmp_path, capsys, rng, argv, p):
    """`--p` is checked in every mode, also where the mode does not read it."""
    f = MeasurableMap(Domain(np.ones(16)), make_space("euclidean1"), rng.normal(size=(16, 1)))
    save_map(f, tmp_path / "f.json")
    argv = [a.format(map=tmp_path / "f.json") for a in argv]
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(
        capsys, "quantize", str(tmp_path / "f.json"), *argv,
        "--eps", "0.5", "--p", p, "--out", str(out),
    )
    assert code == EXIT_DATA and stdout == "" and not out.exists()
    assert "1 <= p <= inf" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# continuify
# ---------------------------------------------------------------------------


def make_band_simple(tmp_path):
    sp = make_space("euclidean1")
    dom = Domain.grid(1, 256)
    centers = (np.arange(256) + 0.5) / 256
    labels = np.where(np.abs(centers - 0.5) < 0.15, 1, 0)
    g = SimpleMap(dom, sp, labels, np.array([[0.0], [1.0]]))
    save_simple_map(g, tmp_path / "g.json")
    return tmp_path / "g.json"


def test_continuify_band(tmp_path, capsys):
    gpath = make_band_simple(tmp_path)
    out = tmp_path / "field.json"
    report_path = tmp_path / "creport.json"
    code, stdout, _ = run_cli(
        capsys, "continuify", str(gpath), "--background", "[0.0]",
        "--p", "1", "--eps", "0.3", "--out", str(out),
        "--report", str(report_path),
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["order"] == 0
    assert summary["pieces"] == 1
    assert summary["achieved_error"] < summary["error_bound"] <= 0.3
    assert summary["flags"]["guarantee_holds"]
    field = load_any_map(out)
    assert isinstance(field, MeasurableMap)
    assert field.values.min() >= 0.0 and field.values.max() <= 1.0
    report = json.loads(report_path.read_text())
    assert report["pieces"][0]["core_atoms"] > 0


def test_continuify_smooth_order(tmp_path, capsys):
    gpath = make_band_simple(tmp_path)
    code, stdout, _ = run_cli(
        capsys, "continuify", str(gpath), "--background", "[0.0]",
        "--p", "1", "--eps", "0.3", "--order", "2",
        "--out", str(tmp_path / "s.json"),
    )
    assert code == 0
    assert last_json(stdout)["order"] == 2


def test_continuify_warns_when_the_bound_is_not_guaranteed(tmp_path, capsys):
    """A run whose error mass M allows more than the bound, M**(1/p) >
    error_bound, says so on stderr; stdout and the exit code are those of
    any run."""
    code, stdout, err = run_cli(
        capsys, "continuify", str(make_band_simple(tmp_path)), "--background", "[0.0]",
        "--p", "1", "--eps", "0.3", "--out", str(tmp_path / "band.json"),
    )
    assert code == 0 and last_json(stdout)["flags"]["guarantee_holds"] and err == ""
    pw, report = tmp_path / "pw.json", tmp_path / "report.json"
    code, _, err = run_cli(capsys, "gen", "--kind", "piecewise", "--space", "euclidean1",
                           "--grid", "8x8", "--regions", "3", "--out", str(pw))
    assert code == 0, err
    code, stdout, err = run_cli(
        capsys, "continuify", str(pw), "--p", "1", "--eps", "0.01",
        "--out", str(tmp_path / "r.json"), "--report", str(report),
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["flags"]["guarantee_holds"] is False
    # the bound fails for real: the field is further from its input than it
    assert summary["achieved_error"] > summary["error_bound"]
    written = json.loads(report.read_text())
    assert written["error_mass"] > summary["error_bound"]
    pieces = written["pieces"]
    flagged = sum(p["inner_over_budget"] or p["outer_over_budget"] for p in pieces)
    assert 0 < flagged
    assert err.count("\n") == 1
    assert f"{flagged} of {len(pieces)} pieces" in err and "not guaranteed" in err


def test_continuify_guarantee_comes_from_the_error_mass(tmp_path, capsys):
    """Every piece of a fine spd2 quantization raises a budget flag, yet the
    error mass M = sum of lip**p * measure(region \\ core) is far inside the
    bound: the guarantee holds and no warning is printed.  The report
    carries each piece's error mass and their `math.fsum`."""
    raw, simple = tmp_path / "raw.json", tmp_path / "simple.json"
    report = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "gen", "--kind", "random", "--space", "spd2", "--spread",
                           "0.3", "--seed", "0", "--grid", "32x32", "--out", str(raw))
    assert code == 0, err
    code, _, err = run_cli(capsys, "quantize", str(raw), "--mode", "countable", "--eps", "0.1",
                           "--out", str(simple))
    assert code == 0, err
    code, stdout, err = run_cli(capsys, "continuify", str(simple), "--p", "1", "--eps", "0.2",
                                "--order", "0", "--out", str(tmp_path / "c.json"),
                                "--report", str(report))
    assert code == 0 and err == ""
    summary = last_json(stdout)
    assert summary["flags"] == {"inner_over_budget": True, "outer_over_budget": True,
                                "guarantee_holds": True}
    written = json.loads(report.read_text())
    pieces = written["pieces"]
    assert len(pieces) == summary["pieces"] == 233
    assert all(p["inner_over_budget"] or p["outer_over_budget"] for p in pieces)
    masses = [p["error_mass"] for p in pieces]
    assert written["error_mass"] == math.fsum(masses)
    for piece in pieces:
        zone = (piece["region_atoms"] - piece["core_atoms"]) / 32**2
        assert piece["error_mass"] == piece["lipschitz"] * zone
    assert summary["achieved_error"] <= written["error_mass"] < summary["error_bound"] == 0.2


@pytest.mark.parametrize("p, eps", [("300", "0.1"), ("1e6", "0.1"), ("400", "100")])
def test_continuify_budget_past_the_float_range_still_relaxes(tmp_path, capsys, p, eps):
    """At large p the per-piece budget (eps / (2 k^(1/p) R))^p leaves the
    float range.  Below it the run still relaxes, flags its pieces over
    budget and warns; above it nothing is over budget."""
    pw = tmp_path / "pw.json"
    code, _, err = run_cli(capsys, "gen", "--kind", "piecewise", "--space", "euclidean1",
                           "--grid", "8x8", "--regions", "3", "--out", str(pw))
    assert code == 0, err
    code, stdout, err = run_cli(capsys, "continuify", str(pw), "--p", p, "--eps", eps,
                                "--out", str(tmp_path / "c.json"))
    assert code == 0, err
    summary = last_json(stdout)
    assert summary["pieces"] == 2
    if float(eps) < 1.0:
        assert summary["flags"] == {"inner_over_budget": True, "outer_over_budget": True,
                                    "guarantee_holds": False}
        assert "2 of 2 pieces raised a budget flag" in err
    else:
        assert summary["flags"]["guarantee_holds"] and err == ""


def test_continuify_one_region_has_no_piece_and_holds_its_guarantee(tmp_path, capsys):
    """A one-region piecewise map takes the background value everywhere, so
    no piece is relaxed; the run exits 0 and reports that its bound holds."""
    one, out, report = tmp_path / "one.json", tmp_path / "out.json", tmp_path / "r.json"
    code, _, err = run_cli(capsys, "gen", "--kind", "piecewise", "--space", "spd2",
                           "--grid", "16x16", "--regions", "1", "--out", str(one))
    assert code == 0, err
    code, stdout, err = run_cli(capsys, "continuify", str(one), "--p", "1", "--eps", "0.2",
                                "--out", str(out), "--report", str(report))
    assert code == 0 and err == ""
    summary = last_json(stdout)
    assert summary["pieces"] == 0 and summary["achieved_error"] == 0.0
    assert stdout.strip().endswith(
        '"flags": {"inner_over_budget": false, "outer_over_budget": false,'
        ' "guarantee_holds": true}}'
    )
    assert np.array_equal(load_any_map(out).values, load_any_map(one).values)
    assert json.loads(report.read_text())["pieces"] == []


def test_continuify_pieces_at_distance_zero_from_the_background(tmp_path, capsys):
    """A piece whose value differs from the background only within the
    payload tolerance (the last histogram weight, by 1e-10) lies at ground
    distance 0 from it: it spends no error mass, so its budget is inf, and
    the run exits 0 with achieved error 0.0 instead of dividing by zero."""
    sp = make_space("histogram2")
    labels = np.arange(16) // 8
    g = SimpleMap(Domain.grid(2, 4), sp, labels, np.array([[0.5, 0.5], [0.5, 0.5000000001]]))
    save_simple_map(g, tmp_path / "g.json")
    code, stdout, err = run_cli(capsys, "continuify", str(tmp_path / "g.json"),
                                "--background", "[0.5,0.5]", "--p", "1", "--eps", "0.1",
                                "--out", str(tmp_path / "c.json"))
    assert code == 0, err
    summary = last_json(stdout)
    assert summary["pieces"] == 1 and summary["achieved_error"] == 0.0
    assert summary["flags"]["guarantee_holds"]


def test_relax_pipeline_checks_two_full_grids(tmp_path, capsys, monkeypatch):
    """gen piecewise -> continuify -> distance checks the relaxed field's
    rows twice (built, then loaded); the simple map is measured through its
    checked value table, never expanded into a second checked map."""
    n = 64 * 64
    piecewise, relaxed = tmp_path / "pw.json", tmp_path / "relaxed.json"
    argvs = [
        ["gen", "--kind", "piecewise", "--space", "spd2", "--grid", "64x64", "--regions", "8",
         "--out", str(piecewise)],
        ["continuify", str(piecewise), "--background", "[1,0,0,1]", "--p", "1", "--eps", "0.5",
         "--order", "2", "--out", str(relaxed)],
        ["distance", str(relaxed), str(piecewise), "--p", "1,2,inf"],
    ]
    rows = []
    original = MetricSpace.check_payload

    def counting(self, arr):
        rows.append(np.size(arr) // self.dim)
        return original(self, arr)

    monkeypatch.setattr(MetricSpace, "check_payload", counting)
    for argv in argvs:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
    assert rows.count(n) == 2
    assert 2 * n <= sum(rows) < 3 * n


def test_continuify_rejects_plain_map(tmp_path, capsys, rng):
    sp = make_space("euclidean1")
    f = MeasurableMap(Domain.grid(1, 8), sp, rng.normal(size=(8, 1)))
    save_map(f, tmp_path / "f.json")
    code, _, err = run_cli(
        capsys, "continuify", str(tmp_path / "f.json"), "--eps", "0.3"
    )
    assert code == 2 and "simple-map" in err


# ---------------------------------------------------------------------------
# point flags
# ---------------------------------------------------------------------------


def point_flag_argv(tmp_path, rng, flag: str) -> list[str]:
    """A euclidean1 command line that takes `flag`, its value left off."""
    if flag == "--value":
        return ["gen", "--kind", "constant", "--space", "euclidean1", "--grid", "4",
                "--out", str(tmp_path / "c.json")]
    if flag == "--background":
        return ["continuify", str(make_band_simple(tmp_path)), "--eps", "0.3",
                "--out", str(tmp_path / "r.json")]
    f = MeasurableMap(Domain(np.ones(4)), make_space("euclidean1"), rng.normal(size=(4, 1)))
    save_map(f, tmp_path / "f.json")
    return ["quantize", str(tmp_path / "f.json"), "--mode", "almost-simple", "--eps", "0.5",
            "--out", str(tmp_path / "q.json")]


POINT_FLAGS = ["--base-value", "--background", "--value"]


@pytest.mark.parametrize("flag", POINT_FLAGS)
@pytest.mark.parametrize(
    "text",
    ['"abc"', "[[1,0],[0]]", '[1,0,0,"x"]', '{"a":1}', "true", "3", "null", "[[1,0],[0,1]]",
     "[true]", "[null]"],
)
def test_point_flag_not_a_flat_number_list_is_usage_error(tmp_path, capsys, rng, flag, text):
    code, _, err = run_cli(capsys, *point_flag_argv(tmp_path, rng, flag), flag, text)
    assert code == 1
    assert err.startswith("usage error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", POINT_FLAGS)
@pytest.mark.parametrize("text", ["[NaN]", "[Infinity]", "[1, 2]"])
def test_point_flag_non_finite_or_wrong_length_is_data_error(tmp_path, capsys, rng, flag, text):
    code, _, err = run_cli(capsys, *point_flag_argv(tmp_path, rng, flag), flag, text)
    assert code == EXIT_DATA
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# config file defaults
# ---------------------------------------------------------------------------


def test_config_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "8", "seed": 11}))
    code, stdout, _ = run_cli(
        capsys, "--config", str(cfg), "gen", "--kind", "random",
        "--out", str(tmp_path / "a.json"),
    )
    assert code == 0 and last_json(stdout)["atoms"] == 8
    code, stdout, _ = run_cli(
        capsys, "--config", str(cfg), "gen", "--kind", "random",
        "--grid", "4x4", "--out", str(tmp_path / "b.json"),
    )
    assert code == 0 and last_json(stdout)["atoms"] == 16


def test_config_accepted_after_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "8", "seed": 11}))
    code, stdout, _ = run_cli(
        capsys, "gen", "--kind", "random",
        "--config", str(cfg), "--out", str(tmp_path / "a.json"),
    )
    assert code == 0 and last_json(stdout)["atoms"] == 8
    code, stdout, _ = run_cli(
        capsys, "gen", "--kind", "random", f"--config={cfg}",
        "--out", str(tmp_path / "b.json"),
    )
    assert code == 0 and last_json(stdout)["atoms"] == 8


def test_config_can_satisfy_required_flag(tmp_path, capsys, rng):
    sp = make_space("euclidean1")
    f = MeasurableMap(Domain(np.ones(16)), sp, rng.normal(size=(16, 1)))
    save_map(f, tmp_path / "f.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.4, "out": str(tmp_path / "q.json")}))
    code, stdout, _ = run_cli(
        capsys, "--config", str(cfg), "quantize", str(tmp_path / "f.json")
    )
    assert code == 0
    assert last_json(stdout)["target_eps"] == 0.4


@pytest.mark.parametrize(
    "config,argv",
    [
        ({"kind": "banana"}, ["gen", "--space", "euclidean1", "--grid", "8"]),
        ({"mode": "banana"}, ["quantize", "{map}", "--eps", "0.5"]),
    ],
)
def test_config_value_outside_choices_is_usage_error(tmp_path, capsys, rng, config, argv):
    """A config value meets its flag's choices, as the flag itself would."""
    f = MeasurableMap(Domain(np.ones(4)), make_space("euclidean1"), rng.normal(size=(4, 1)))
    save_map(f, tmp_path / "f.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    argv = [arg.format(map=tmp_path / "f.json") for arg in argv]
    code, stdout, err = run_cli(capsys, "--config", str(cfg), *argv, "--out", str(out))
    flag = "--" + next(iter(config))
    assert code == 1 and stdout == "" and not out.exists()
    assert err.startswith("usage error: ") and flag in err and "banana" in err


def test_config_values_go_through_their_flag_types(tmp_path, capsys):
    """Non-string config values reach a flag as their JSON text, so a list
    is a point, a number is parsed by the flag's type, and a value the type
    refuses is a usage error."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "constant", "value": [1.0, 2.0], "grid": 4}))
    out = tmp_path / "c.json"
    code, _, err = run_cli(capsys, "--config", str(cfg), "gen", "--out", str(out))
    assert code == 0, err
    assert np.array_equal(load_any_map(out).values, np.tile([1.0, 2.0], (4, 1)))
    cfg.write_text(json.dumps({"kind": "random", "seed": True}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "gen", "--out", str(out))
    assert code == 1 and "--seed" in err
    cfg.write_text(json.dumps({"kind": None}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "gen", "--out", str(out))
    assert code == 1 and "--kind" in err  # null leaves the flag required


def test_config_key_naming_no_flag_is_usage_error(tmp_path, capsys):
    """A misspelled key is refused by name, not dropped: gen would
    otherwise run with seed 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sead": 5, "kind": "random", "grid": "4"}))
    out = tmp_path / "a.json"
    code, stdout, err = run_cli(capsys, "--config", str(cfg), "gen", "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert err.startswith("usage error: ") and "'sead'" in err


def test_config_keys_of_other_subcommands_are_accepted(tmp_path, capsys, rng):
    """One config file serves several subcommands: quantize takes its eps
    and leaves the seed, a gen and verify flag, alone."""
    f = MeasurableMap(Domain(np.ones(16)), make_space("euclidean1"), rng.normal(size=(16, 1)))
    save_map(f, tmp_path / "f.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.5, "seed": 3}))
    code, stdout, err = run_cli(
        capsys, "--config", str(cfg), "quantize", str(tmp_path / "f.json"),
        "--out", str(tmp_path / "q.json"),
    )
    assert code == 0, err
    assert last_json(stdout)["target_eps"] == 0.5


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1,2]")
    code, _, err = run_cli(capsys, "--config", str(cfg), "gen", "--kind", "smooth")
    assert code == 2 and "config" in err


@pytest.mark.parametrize("data", [b"\xff\xfe{", b"[" * 100_000], ids=["not-utf8", "deep"])
def test_an_unreadable_config_is_a_data_error(tmp_path, capsys, data):
    """Text that is not UTF-8, and JSON nested past the parser's recursion
    limit, end in one error line, not a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    out = tmp_path / "a.json"
    code, stdout, err = run_cli(capsys, "--config", str(cfg), "gen", "--kind", "random",
                                "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: cannot load config") and err.count("\n") == 1


def test_a_config_call_leaves_the_built_in_defaults_to_later_calls(tmp_path, capsys, rng):
    """A --config call sets its defaults on a parser of its own: the next
    call without --config gets the built-in grid and needs --eps again."""
    f = MeasurableMap(Domain(np.ones(16)), make_space("euclidean1"), rng.normal(size=(16, 1)))
    save_map(f, tmp_path / "f.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "8", "eps": 0.4}))
    code, stdout, _ = run_cli(capsys, "--config", str(cfg), "gen", "--kind", "random",
                              "--out", str(tmp_path / "a.json"))
    assert code == 0 and last_json(stdout)["atoms"] == 8
    code, stdout, _ = run_cli(capsys, "gen", "--kind", "random", "--out", str(tmp_path / "b.json"))
    assert code == 0 and last_json(stdout)["atoms"] == 32 * 32
    code, _, err = run_cli(capsys, "quantize", str(tmp_path / "f.json"),
                           "--out", str(tmp_path / "q.json"))
    assert code == 1 and "--eps" in err


@pytest.mark.parametrize("where", ["before", "after"])
def test_the_first_config_wins(tmp_path, capsys, where):
    """Later --config flags are dropped unread, in either position."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "8"}))
    configs = ["--config", str(cfg), f"--config={tmp_path / 'missing.json'}"]
    argv = ["gen", "--kind", "random", "--out", str(tmp_path / "a.json")]
    argv = configs + argv if where == "before" else argv + configs
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert last_json(stdout)["atoms"] == 8


@pytest.mark.parametrize("argv", [["--config="], ["--config", ""], ["--config"]])
def test_config_with_an_empty_path_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "a.json"
    code, stdout, err = run_cli(capsys, "gen", "--kind", "random", "--out", str(out), *argv)
    assert code == 1 and stdout == "" and not out.exists()
    assert err.startswith("usage error: ") and "--config" in err and err.count("\n") == 1


@pytest.mark.parametrize("key", ["map", "left", "right", "command", "help", "config"])
def test_config_key_naming_no_option_flag_is_usage_error(tmp_path, capsys, key):
    """Positionals, the subcommand, --help and --config itself are not
    option flags a config can set."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "random", key: "x"}))
    out = tmp_path / "a.json"
    code, stdout, err = run_cli(capsys, "--config", str(cfg), "gen", "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert err.startswith("usage error: ") and repr(key) in err and err.count("\n") == 1


def test_the_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    """Calls with and without --config share the one parser."""
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "4"}))
    cli._builtin_parser.cache_clear()
    try:
        for config in ([], ["--config", str(cfg)], [f"--config={cfg}"], []):
            code, _, err = run_cli(capsys, *config, "gen", "--kind", "random",
                                   "--out", str(tmp_path / "a.json"))
            assert code == 0, err
    finally:
        cli._builtin_parser.cache_clear()
    assert len(calls) == 1


def option_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) for every option flag of every subcommand."""
    subs = next(action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    return [(name, flag) for name, sub in subs.items()
            for action in sub._actions if action.dest != "help"
            for flag in action.option_strings]


# per option flag: the other arguments of the call, and the value given
# once as the flag's text and once as a config value; {d} is a directory
# holding f.json (a euclidean1 map) and simple.json (a euclidean1 simple map)
FLAG_CASES = {
    ("gen", "--kind"): (["gen", "--grid", "4"], "banana"),
    ("gen", "--space"): (["gen", "--kind", "random", "--grid", "4"], "euclidean1"),
    ("gen", "--grid"): (["gen", "--kind", "random"], "4x8"),
    ("gen", "--seed"): (["gen", "--kind", "random", "--grid", "4"], "-1"),
    ("gen", "--regions"): (["gen", "--kind", "piecewise", "--grid", "4"], "2"),
    ("gen", "--value"): (["gen", "--kind", "constant", "--space", "euclidean1"], "[-1]"),
    ("gen", "--spread"): (["gen", "--kind", "random", "--grid", "4"], "1e308"),
    ("gen", "--out"): (["gen", "--kind", "random", "--grid", "4"], "{d}/g.json"),
    ("distance", "--p"): (["distance", "{d}/f.json", "{d}/f.json"], "1,inf"),
    ("distance", "--out"): (["distance", "{d}/f.json", "{d}/f.json"], "{d}/r.json"),
    ("quantize", "--mode"): (["quantize", "{d}/f.json", "--eps", "0.5"], "banana"),
    ("quantize", "--eps"): (["quantize", "{d}/f.json"], "-0.5"),
    ("quantize", "--p"): (["quantize", "{d}/f.json", "--eps", "0.5"], "-1"),
    ("quantize", "--base"): (["quantize", "{d}/f.json", "--eps", "0.5", "--mode", "sup"],
                             "{d}/missing.json"),
    ("quantize", "--base-value"): (
        ["quantize", "{d}/f.json", "--eps", "0.5", "--mode", "almost-simple", "--p", "1"],
        "[-1]"),
    ("quantize", "--out"): (["quantize", "{d}/f.json", "--eps", "0.5"], "{d}/q.json"),
    ("quantize", "--report"): (["quantize", "{d}/f.json", "--eps", "0.5"], "{d}/rep.json"),
    ("continuify", "--background"): (["continuify", "{d}/simple.json", "--eps", "0.5"],
                                     "[-1]"),
    ("continuify", "--p"): (["continuify", "{d}/simple.json", "--eps", "0.5"], "inf"),
    ("continuify", "--eps"): (["continuify", "{d}/simple.json"], "0.5"),
    ("continuify", "--order"): (["continuify", "{d}/simple.json", "--eps", "0.5"], "2"),
    ("continuify", "--out"): (["continuify", "{d}/simple.json", "--eps", "0.5"], "{d}/c.json"),
    ("continuify", "--report"): (["continuify", "{d}/simple.json", "--eps", "0.5"],
                                 "{d}/crep.json"),
    ("verify", "--seed"): (["verify"], "x"),
    # verify prints its runtime: a write that fails keeps stdout empty
    ("verify", "--out"): (["verify"], "{d}/nodir/ledger.json"),
}


@pytest.mark.parametrize("command,flag", option_flags())
def test_a_config_value_acts_as_its_flag(tmp_path, capsys, monkeypatch, rng, command, flag):
    """A config value and the same text on the command line get the same
    exit code, stdout and first stderr line, through every check of the
    flag (type, choices, required and the command's own)."""
    monkeypatch.setenv("METRICLP_OUT", str(tmp_path))  # calls without --out write here
    f = MeasurableMap(Domain(np.ones(8)), make_space("euclidean1"), rng.normal(size=(8, 1)))
    save_map(f, tmp_path / "f.json")
    labels = np.array([0, 0, 1, 1, 1, 0, 0, 1])
    save_simple_map(SimpleMap(Domain.grid(1, 8), make_space("euclidean1"), labels,
                              np.array([[0.0], [1.0]])), tmp_path / "simple.json")
    argv, value = FLAG_CASES[command, flag]
    argv = [arg.format(d=tmp_path) for arg in argv]
    value = value.format(d=tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: value}))
    runs = [run_cli(capsys, *argv, flag, value), run_cli(capsys, "--config", str(cfg), *argv)]
    (code, stdout, err), (cfg_code, cfg_stdout, cfg_err) = runs
    assert (cfg_code, cfg_stdout) == (code, stdout)
    # a failed write names its temporary file, whose name is random
    first = [re.sub(r"\.[0-9a-f]{12}\.tmp", ".tmp", e.split("\n")[0]) for e in (err, cfg_err)]
    assert first[0] == first[1]


# ---------------------------------------------------------------------------
# a failed write prints nothing
# ---------------------------------------------------------------------------


def assert_failed_write(code, stdout, err):
    assert code == EXIT_DATA
    assert stdout == ""
    assert err.startswith("io error") and err.count("\n") == 1


def test_distance_writes_its_report_before_printing(pair_files, tmp_path, capsys):
    a, b = pair_files
    assert_failed_write(*run_cli(capsys, "distance", str(a), str(b), "--p", "1",
                                 "--out", str(tmp_path / "nodir" / "r.json")))


def test_quantize_writes_its_report_before_printing(tmp_path, capsys, rng):
    f = MeasurableMap(Domain(np.ones(64)), make_space("euclidean1"), rng.normal(size=(64, 1)))
    save_map(f, tmp_path / "f.json")
    assert_failed_write(*run_cli(
        capsys, "quantize", str(tmp_path / "f.json"), "--eps", "0.25",
        "--out", str(tmp_path / "q.json"), "--report", str(tmp_path / "nodir" / "rep.json"),
    ))


def test_continuify_writes_its_report_before_printing_or_warning(tmp_path, capsys):
    pw = tmp_path / "pw.json"
    code, _, err = run_cli(capsys, "gen", "--kind", "piecewise", "--space", "euclidean1",
                           "--grid", "32x32", "--regions", "16", "--out", str(pw))
    assert code == 0, err
    # these pieces raise a budget flag, so a run that writes its report warns
    assert_failed_write(*run_cli(
        capsys, "continuify", str(pw), "--background", "[0.0]", "--p", "1", "--eps", "0.5",
        "--out", str(tmp_path / "o.json"), "--report", str(tmp_path / "nodir" / "rep.json"),
    ))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_and_writes_ledger(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.json"
    code, stdout, _ = run_cli(
        capsys, "verify", "--seed", "0", "--out", str(ledger_path)
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["all_pass"] is True
    ledger = json.loads(ledger_path.read_text())
    assert ledger["all_pass"] is True
    assert len(ledger["entries"]) == summary["checks"]
    assert all(e["status"] == "pass" for e in ledger["entries"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # planted fault -> NaN noise
def test_verify_fails_on_a_planted_fault(monkeypatch, capsys):
    """`verify` exits 3 with all_pass false when a fault from the mutant
    table is planted, and lists exactly the checks the table says it kills."""
    fault = FAULTS_BY_NAME["negate_euclidean_distance"]
    install(fault, monkeypatch.setattr)
    code, stdout, _ = run_cli(capsys, "verify", "--seed", "0")
    assert code == 3
    assert last_json(stdout)["all_pass"] is False
    failed = [line.split()[-1] for line in stdout.splitlines() if line.startswith("[fail]")]
    assert failed == list(fault.kills)


def test_verify_has_no_fault_flag(tmp_path, capsys):
    """Faults are planted by tests, not by the CLI: `--mutate` and a
    `mutate` config key are usage errors."""
    code, stdout, stderr = run_cli(capsys, "verify", "--seed", "0", "--mutate", "x")
    assert code == 1 and "usage error" in stderr and stdout == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mutate": "negate_euclidean_distance"}))
    code, stdout, stderr = run_cli(capsys, "--config", str(cfg), "verify", "--seed", "0")
    assert code == 1 and "'mutate'" in stderr and stdout == ""


def test_verify_mutation_fails_the_same_checks_under_optimize(monkeypatch):
    """The suite checks do not rest on `assert`: a `python -O` child, which
    strips asserts, plants the negation fault itself and fails the same
    checks as this process does."""
    fault = FAULTS_BY_NAME["negate_euclidean_distance"]
    child = (
        "import json\n"
        "from metriclp import verify\n"
        "from tests.test_mutants import FAULTS_BY_NAME, install\n"
        f"install(FAULTS_BY_NAME[{fault.name!r}])\n"
        "result = verify.run_theorem_suite(0)\n"
        "failed = [e['check_id'] for e in result.entries if e['status'] == 'fail']\n"
        "print(json.dumps({'debug': __debug__, 'failed': failed}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-W", "ignore::RuntimeWarning", "-c", child],
        capture_output=True, text=True, timeout=300, env=child_env(),
        cwd=Path(__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    optimized = json.loads(proc.stdout)
    assert optimized["debug"] is False
    install(fault, monkeypatch.setattr)
    with np.errstate(all="ignore"):
        plain = verify.run_theorem_suite(0)
    assert optimized["failed"] == [e["check_id"] for e in plain.entries if e["status"] == "fail"]
    assert len(optimized["failed"]) == 9


def test_import_leaves_scipy_optimize_out():
    """No library path needs scipy.optimize, so importing metriclp does not
    pay for it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, metriclp; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def _plain_scripts_table(text: str) -> dict[str, str]:
    """The ``[project.scripts]`` table of a pyproject.toml, without tomllib."""
    scripts: dict[str, str] = {}
    in_table = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[key] = value
    return scripts


def declared_script_target(name: str) -> str | None:
    """The target ``[project.scripts]`` gives ``name``: from the installed
    distribution's metadata when there is one, else from the checkout's
    pyproject.toml."""
    for entry in importlib.metadata.entry_points(group="console_scripts"):
        if entry.name == name:
            return entry.value
    text = (Path(metriclp.__file__).parents[2] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        return _plain_scripts_table(text).get(name)
    return tomllib.loads(text)["project"].get("scripts", {}).get(name)


def test_console_script_smoke(pair_files):
    """The CLI run out of process: through the installed ``metriclp`` script
    when one is on PATH, else through ``python -m metriclp``, which calls the
    same ``metriclp.cli:main`` the script is declared to call."""
    assert declared_script_target("metriclp") == "metriclp.cli:main"
    a, b = pair_files
    script = shutil.which("metriclp")
    command = [script] if script else [sys.executable, "-m", "metriclp"]

    def run(*argv):
        return subprocess.run(
            [*command, *argv], capture_output=True, text=True, timeout=120, env=child_env(),
        )

    proc = run("distance", str(a), str(b), "--p", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["distances"]["2"] == 5.0
    missing = run("distance", str(a.parent / "missing.json"), str(b))
    assert missing.returncode == EXIT_DATA, missing.stderr


def readme_cli_commands() -> list[list[str]]:
    """The commands of the `sh` block under the README's "## CLI" heading:
    lines ending in a backslash joined to the next, comments and blank
    lines dropped, each split as the shell would."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_readme_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    """Every command of the README's CLI block exits 0, run in order in an
    empty directory, and the distance from the input to the almost-simple
    output is the report's achieved error, bit for bit."""
    commands = readme_cli_commands()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("METRICLP_OUT", raising=False)
    for argv in commands:
        assert argv[0] == "metriclp"
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)
    report = json.loads((tmp_path / "report.json").read_text())
    f, g = load_any_map(tmp_path / "other.json"), load_any_map(tmp_path / "quantized.json")
    assert g.labels.min() >= 0 and report["range_size"] == g.range_size
    # some atoms revert to the base [1, 0, 0, 1] and read its value
    assert (g.values == [1.0, 0.0, 0.0, 1.0]).all(axis=1).any()
    assert dp_distance(f, g, 2.0) == report["achieved_error"]


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def test_star_import_binds_every_exported_name():
    """`from metriclp import *` works and binds every name in `__all__`, so a
    stale export fails here rather than in a user's import."""
    namespace: dict = {}
    exec("from metriclp import *", namespace)
    assert [name for name in metriclp.__all__ if name not in namespace] == []
    assert len(set(metriclp.__all__)) == len(metriclp.__all__)
