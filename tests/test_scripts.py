"""Smoke tests for the demo scripts under scripts/: each runs to exit 0
on a small input and writes what it promises.  The scripts import the
public API, so a removed name breaks them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from .conftest import child_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(cwd: Path, name: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script from a scratch working directory, so it leaves nothing in
    the checkout, with the PYTHONPATH this process was given kept."""
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120, env=child_env(), cwd=cwd,
    )


def test_quantization_report_runs(tmp_path):
    proc = run_script(tmp_path, "quantization_report.py", "--grid", "16", "--eps", "0.5")
    assert proc.returncode == 0, proc.stderr
    assert "spd2 field on 16x16" in proc.stdout
    assert "step1=" in proc.stdout


def test_relaxation_profile_writes_its_csv(tmp_path):
    csv_out = tmp_path / "profile.csv"
    proc = run_script(tmp_path, "relaxation_profile.py", "--cells", "256", "--csv-out", str(csv_out))
    assert proc.returncode == 0, proc.stderr
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "x,input,order0,order1,order2"
    assert len(lines) == 1 + 256
    assert "guarantee=True" in proc.stdout


def test_kernel_timings_prints_one_row_per_target(tmp_path):
    proc = run_script(tmp_path, "kernel_timings.py", "--grid", "16", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["target", "grid", "load", "ms", "check", "ms", "kernel", "ms",
                                "wrapper", "ms"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert list(rows) == ["euclidean3", "spd2", "simplex3", "histogram8", "circle", "spd3"]
    assert rows["euclidean3"][0] == "16x16" and rows["spd3"][0] == "8x8"
    assert all(len(times) == 5 and all(float(t) >= 0.0 for t in times[1:]) for times in rows.values())
    assert list(tmp_path.iterdir()) == []
