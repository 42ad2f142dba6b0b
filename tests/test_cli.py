"""End-to-end CLI tests, mostly in-process through main(argv)."""

from __future__ import annotations

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metriclp
from metriclp import Domain, MeasurableMap, SimpleMap, make_space, verify
from metriclp.cli import EXIT_DATA, main
from metriclp.fileio import load_any_map, load_map, save_map, save_simple_map

from .conftest import BAD_MAP_TEXTS, write_bad_file


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
    f = load_map(out)
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


def test_gen_deterministic_per_seed(tmp_path, capsys):
    outs = []
    for name in ("r1.json", "r2.json"):
        run_cli(capsys, "gen", "--kind", "random", "--grid", "8x8",
                "--seed", "7", "--out", str(tmp_path / name))
        outs.append(load_map(tmp_path / name).values)
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


def test_gen_rejects_ragged_grid(capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "smooth", "--grid", "4x8")
    assert code == 1 and "square" in err


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


def test_distance_bad_exponent(pair_files, capsys):
    a, b = pair_files
    code, _, err = run_cli(capsys, "distance", str(a), str(b), "--p", "banana")
    assert code == 1 and "usage error" in err


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
    field = load_map(out)
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
@pytest.mark.parametrize("text", ['"abc"', "[[1,0],[0]]", '[1,0,0,"x"]', '{"a":1}'])
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


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1,2]")
    code, _, err = run_cli(capsys, "--config", str(cfg), "gen", "--kind", "smooth")
    assert code == 2 and "config" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_and_writes_ledger(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.json"
    code, stdout, _ = run_cli(
        capsys, "verify", "--suite", "all", "--seed", "0", "--out", str(ledger_path)
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["all_pass"] is True
    ledger = json.loads(ledger_path.read_text())
    assert ledger["all_pass"] is True
    assert len(ledger["entries"]) == summary["checks"]
    assert all(e["status"] == "pass" for e in ledger["entries"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # injected fault -> NaN noise
def test_verify_mutation_hook_fails(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "--seed", "0", "--mutate", "negate_euclidean_distance"
    )
    assert code == 3
    assert last_json(stdout)["all_pass"] is False


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that must import the metriclp
    this process imported, whatever its cwd and however PYTHONPATH was given."""
    src = str(Path(metriclp.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)


def failed_check_ids(ledger: dict) -> list[str]:
    return [e["check_id"] for e in ledger["entries"] if e["status"] == "fail"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # injected fault -> NaN noise
def test_verify_mutation_fails_the_same_checks_under_optimize(tmp_path):
    """The suite checks do not rest on `assert`: python -O, which strips
    asserts, fails the same checks on the injected fault."""
    mutation = "negate_euclidean_distance"
    plain = verify.run_theorem_suite(verify.SuiteConfig(seed=0, mutations=(mutation,)))
    ledger_path = tmp_path / "ledger.json"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "metriclp", "verify", "--seed", "0",
         "--mutate", mutation, "--out", str(ledger_path)],
        capture_output=True, text=True, timeout=300, env=child_env(),
    )
    assert proc.returncode == 3, proc.stderr
    optimized = failed_check_ids(json.loads(ledger_path.read_text()))
    assert optimized == failed_check_ids(plain.as_dict())
    assert len(optimized) == 8


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


# ---------------------------------------------------------------------------
# demo scripts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "script, args",
    [
        ("quantization_report.py", ["--grid", "8", "--eps", "0.5"]),
        ("relaxation_profile.py", ["--cells", "256", "--csv-out", "{tmp}/profile.csv"]),
    ],
)
def test_demo_script_runs(tmp_path, script, args):
    """The scripts import the public API, so a removed name breaks them."""
    path = Path(metriclp.__file__).parents[2] / "scripts" / script
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(
        [sys.executable, str(path), *argv],
        capture_output=True, text=True, timeout=300, env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
