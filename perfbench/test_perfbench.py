"""Tests of the benchmark itself: checkers reject tampered outputs, the
tracer changes no output, and BENCHMARK.json lists what the code reports.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class SmallQuantize(workloads.Quantize):
    GRID = 8


class SmallDistance(workloads.Distance):
    TARGETS = [("spd2", 16), ("circle", 16)]


class SmallRelax(workloads.Relax):
    GRID = 128


def run_small(workload, tmp_path):
    workload.setup(tmp_path, seed=5)
    raw = workload.op()
    problems, digest = workload.collect(raw)
    assert problems == []
    return raw, digest


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


@pytest.fixture(scope="module")
def quantize_run(tmp_path_factory):
    w = SmallQuantize()
    raw, digest = run_small(w, tmp_path_factory.mktemp("quantize"))
    return w, raw, digest


def _farthest_label(w, mode, index):
    _m, space, _argv, out, _r = next(c for c in w.calls if c[0] == mode)
    table = np.asarray(json.loads(out.read_text())["values"])
    own = w.inputs[space][index]
    d = checks.ground_distance(space, np.broadcast_to(own, table.shape), table)
    return int(np.argmax(d))


@pytest.mark.parametrize("mode", ["countable", "sup"])
def test_quantize_rejects_flipped_label(quantize_run, mode):
    w, raw, _digest = quantize_run
    out = next(c[3] for c in w.calls if c[0] == mode)
    saved = out.read_text()
    far = _farthest_label(w, mode, 0)
    try:
        _edit_json(out, lambda obj: obj["labels"].__setitem__(0, far))
        problems, _ = w.collect(raw)
    finally:
        out.write_text(saved)
    assert any("recomputed error" in p for p in problems)


def test_quantize_rejects_reported_error_over_eps(quantize_run):
    w, raw, _digest = quantize_run
    tampered = list(raw)
    rc, stdout, err = tampered[0]
    summary = json.loads(stdout)
    summary["achieved_error"] = w.EPS
    tampered[0] = (rc, json.dumps(summary), err)
    problems, _ = w.collect(tampered)
    assert any(">= eps" in p for p in problems)


def test_quantize_rejects_almost_simple_step_over_budget(quantize_run):
    w, raw, _digest = quantize_run
    report = next(c[4] for c in w.calls if c[0] == "almost-simple")
    saved = report.read_text()
    try:
        _edit_json(report, lambda obj: obj["step_breakdown"].__setitem__("step2", w.EPS / 3))
        problems, _ = w.collect(raw)
    finally:
        report.write_text(saved)
    assert any("step2" in p for p in problems)


def test_quantize_rejects_crashed_call(quantize_run):
    w, raw, _digest = quantize_run
    problems, _ = w.collect([(None, "", "Traceback")] + list(raw[1:]))
    assert any("exit code None" in p for p in problems)


# ---------------------------------------------------------------------------
# distance, relax, verify
# ---------------------------------------------------------------------------


def test_distance_rejects_tampered_reports(tmp_path):
    w = SmallDistance()
    raw, digest = run_small(w, tmp_path)
    rc, stdout, err = raw[0]
    report = json.loads(stdout)
    d = report["distances"]
    for bad in ({**d, "1": d["inf"], "inf": d["1"]}, {**d, "2": float("nan")}, {**d, "1": 0.0}):
        tampered = [(rc, json.dumps({**report, "distances": bad}), err)] + raw[1:]
        problems, bad_digest = w.collect(tampered)
        assert problems and bad_digest != digest
    problems, _ = w.collect([(2, "", "error")] + raw[1:])
    assert problems == ["distance spd2: exit code 2"]


def test_relax_rejects_tampered_outputs(tmp_path):
    w = SmallRelax()
    raw, _digest = run_small(w, tmp_path)
    gen, (rc, stdout, err), dist = raw
    summary = json.loads(stdout)
    off_by_one_ulp = {**summary, "achieved_error": np.nextafter(summary["achieved_error"], 1.0)}
    no_guarantee = {**summary, "flags": {**summary["flags"], "guarantee_holds": False}}
    over_bound = {**summary, "error_bound": summary["achieved_error"]}
    for bad, needle in ((off_by_one_ulp, "differs from achieved_error"),
                        (no_guarantee, "guarantee does not hold"),
                        (over_bound, ">= error_bound")):
        problems, _ = w.collect([gen, (rc, json.dumps(bad), err), dist])
        assert any(needle in p for p in problems), problems


def test_relax_digest_sees_a_flipped_label(tmp_path):
    w = SmallRelax()
    raw, digest = run_small(w, tmp_path)
    _edit_json(w.piecewise, lambda obj: obj["labels"].__setitem__(0, obj["labels"][0] ^ 1))
    _problems, flipped = w.collect(raw)
    assert flipped != digest


def _ledger(n=checks.VERIFY_CHECK_COUNT, all_pass=True):
    return {"all_pass": all_pass,
            "entries": [{"check_id": f"c{i}", "status": "pass"} for i in range(n)]}


def test_verify_checker():
    assert checks.check_verify(0, _ledger()) == []
    assert checks.check_verify(0, _ledger(all_pass=False)) == ["verify: all_pass is not true"]
    assert checks.check_verify(0, _ledger(n=18))
    failing = _ledger()
    failing["entries"][3]["status"] = "fail"
    assert checks.check_verify(0, failing) == ["verify: failing checks ['c3']"]
    assert checks.check_verify(3, _ledger()) == ["verify: exit code 3"]


# ---------------------------------------------------------------------------
# tracer, metric definitions
# ---------------------------------------------------------------------------


def test_tracer_changes_no_output_and_restores(tmp_path):
    import metriclp.cli
    import metriclp.quantize
    import metriclp.verify
    from metriclp.spaces import MetricSpace

    before = (MetricSpace.distance_many, metriclp.quantize.dp_distance, metriclp.cli.main,
              list(metriclp.verify.CHECKS))
    w = SmallRelax()
    raw, digest = run_small(w, tmp_path)
    t = tracer.Tracer()
    t.install()
    try:
        assert metriclp.cli.dp_distance is metriclp.maps.dp_distance
        assert metriclp.cli.dp_distance is not before[1]
        t.op_id = 1
        traced_raw = w.op()
    finally:
        t.restore()
    after = (MetricSpace.distance_many, metriclp.quantize.dp_distance, metriclp.cli.main,
             list(metriclp.verify.CHECKS))
    assert after == before
    problems, traced_digest = w.collect(traced_raw)
    assert problems == [] and traced_digest == digest

    units = tracer.metric_units([c[0] for c in metriclp.verify.CHECKS])
    (m,) = tracer.per_op_metrics(t.spans, [c[0] for c in metriclp.verify.CHECKS])
    assert set(m) == set(units)
    assert m["cli.main.calls"] == 3
    assert m["relax.smooth_from_simple.calls"] == 1
    assert m["domain.urysohn.calls"] == m["domain.inner_closed_approx.calls"] > 0
    assert m["fileio.save_simple_map.bytes"] == w.piecewise.stat().st_size
    # self times of all spans add up to the outermost spans' durations
    outer = sum(s[5] - s[4] for s in t.spans if s[2] == 0)
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(outer, rel=1e-9)


def test_self_time_subtracts_children():
    spans = [  # op, id, parent, name, t0, t1, self, outer, counts
        (1, 2, 1, "spaces.MetricSpace.distance_many", 1.0, 3.0, 2.0, True, {"rows": 10, "quantize_rows": 10}),
        (1, 1, 0, "quantize.countable_quantize", 0.0, 4.0, 2.0, True, {"atoms": 5}),
    ]
    (m,) = tracer.per_op_metrics(spans, [])
    assert m["quantize.countable_quantize.self_s"] == 2.0
    assert m["quantize.countable_quantize.total_s"] == 4.0
    assert m["spaces.distance_many.rows"] == 10
    assert m["quantize.cover_rows_per_atom"] == 2.0


def test_scale_cuts_windows_at_samples():
    n = speed.NOMINAL_S
    # samples at 1-2 s (2n), 5-6 s (4n) and 9-10 s (n)
    marks = [(1.0, 2.0, 2 * n), (5.0, 6.0, 4 * n), (9.0, 10.0, n)]
    # 2-5 s between samples of 2n and 4n: 3 s at a third of nominal speed
    assert speed.scale([(2.0, 5.0)], marks) == [(3.0, pytest.approx(1.0))]
    # 3-8 s holds the second sample: 2 s at 3n, then 2 s at 2.5n
    (wall, nominal), = speed.scale([(3.0, 8.0)], marks)
    assert wall == 4.0 and nominal == pytest.approx(2 / 3 + 2 / 2.5)
    # past the last sample only that one applies
    assert speed.scale([(10.0, 12.0)], marks) == [(2.0, pytest.approx(2.0))]


def test_sampler_takes_samples_while_running(tmp_path):
    sampler = speed.Sampler()
    sampler.start()
    try:
        runner = worker.Runner(SmallRelax())
        window = runner.setup(tmp_path, seed=5)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.INTERVAL_S:
            pass
    finally:
        sampler.stop()
    assert runner.failed == 0
    assert len(sampler.marks) >= 4
    assert [m[0] for m in sampler.marks] == sorted(m[0] for m in sampler.marks)
    (wall, nominal), = sampler.scale([window])
    assert 0 < wall <= window[1] - window[0] and nominal > 0


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    times = [float(i) for i in range(1, 41)]
    value, pct = run.tail(times)
    assert value == 30.0 and pct == 75.0
    assert sum(t > value for t in times) == 10


def test_benchmark_json_matches_the_code():
    import metriclp.verify

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    units = tracer.metric_units([c[0] for c in metriclp.verify.CHECKS])
    units.update({"trace.untraced_op_p50_s": "s", "trace.traced_op_p50_s": "s",
                  "trace.overhead_ratio": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert {m["name"] for m in spec["end_to_end"]} == {
        "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb"}
