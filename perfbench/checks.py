"""Output checks for the benchmark's workloads.

Each checker takes the parsed outputs of one op and returns a list of
problems; an empty list means the op passed.  The checkers read plain
dicts and arrays, not library objects, and recompute quantization errors
with formulas written here, so a wrong label or value shows even when the
CLI's own summary agrees with itself.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

VERIFY_CHECK_COUNT = 19

# D_1 <= D_2 <= D_inf holds exactly in real arithmetic on a measure-1
# domain; the slack covers the rounding of the three separate reductions.
ORDER_SLACK = 1e-12
# Independent error formulas round differently from the library's kernels.
RECOMPUTE_RTOL = 1e-9


def digest(parts) -> str:
    """sha256 of a canonical JSON encoding (floats by their shortest repr)."""
    text = json.dumps(parts, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# ground metrics, written independently of metriclp.spaces
# ---------------------------------------------------------------------------


def spd_distance(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Affine-invariant distance: the Frobenius norm of log eig(a^-1 b)."""
    ma = a.reshape(-1, n, n)
    mb = b.reshape(-1, n, n)
    lam = np.linalg.eigvals(np.linalg.solve(ma, mb)).real
    return np.sqrt((np.log(lam) ** 2).sum(axis=-1))


def simplex_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fisher-Rao distance 2 arccos(sum sqrt(a b))."""
    bc = np.sqrt(np.clip(a, 0.0, None) * np.clip(b, 0.0, None)).sum(axis=-1)
    return 2.0 * np.arccos(np.clip(bc, -1.0, 1.0))


def ground_distance(space: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if space.startswith("spd"):
        return spd_distance(a, b, int(space[3:]))
    if space.startswith("simplex"):
        return simplex_distance(a, b)
    raise ValueError(f"no reference distance for {space!r}")


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= RECOMPUTE_RTOL * max(1.0, abs(x), abs(y))


def check_quantize_call(call: dict) -> list[str]:
    """One `quantize` call.

    `call` holds: mode, eps, rc, summary (stdout JSON), report (the
    --report file), space, input (the input values), weights, labels and
    table (the output simple map), and base (the base payload, for
    almost-simple).
    """
    mode = call["mode"]
    if call["rc"] != 0:
        return [f"quantize {mode}: exit code {call['rc']}"]
    problems = []
    eps = call["eps"]
    achieved = call["summary"]["achieved_error"]
    if not achieved < eps:
        problems.append(f"quantize {mode}: achieved_error {achieved!r} >= eps {eps!r}")
    labels = np.asarray(call["labels"], dtype=np.int64)
    table = np.asarray(call["table"], dtype=np.float64).reshape(-1, call["input"].shape[1])
    lowest = -1 if mode == "almost-simple" else 0
    if labels.shape[0] != call["input"].shape[0]:
        return problems + [f"quantize {mode}: {labels.shape[0]} labels for {call['input'].shape[0]} atoms"]
    if labels.size and (labels.min() < lowest or labels.max() >= table.shape[0]):
        return problems + [f"quantize {mode}: label outside [{lowest}, {table.shape[0]})"]
    if mode == "almost-simple":
        base = np.asarray(call["base"], dtype=np.float64)
        out = np.where((labels < 0)[:, None], base, table[np.maximum(labels, 0)])
        d = ground_distance(call["space"], call["input"], out)
        p = float(call["p"])
        error = float(np.sum(np.asarray(call["weights"]) * d**p)) ** (1.0 / p)
        steps = call["report"]["step_breakdown"]
        for step in ("step1", "step2", "step3"):
            if not steps[step] < eps / 3.0:
                problems.append(f"quantize {mode}: {step} {steps[step]!r} >= eps/3")
    else:
        out = table[labels]
        error = float(ground_distance(call["space"], call["input"], out).max())
    if not error < eps:
        problems.append(f"quantize {mode}: recomputed error {error!r} >= eps {eps!r}")
    if not _close(error, achieved):
        problems.append(f"quantize {mode}: recomputed error {error!r} != reported {achieved!r}")
    return problems


def check_distance_report(name: str, rc: int, report: dict | None) -> list[str]:
    """One `distance --p 1,2,inf` call on a measure-1 domain."""
    if rc != 0 or report is None:
        return [f"distance {name}: exit code {rc}"]
    dist = report.get("distances", {})
    try:
        d1, d2, dinf = (float(dist[k]) for k in ("1", "2", "inf"))
    except (KeyError, TypeError, ValueError):
        return [f"distance {name}: missing exponents in {sorted(dist)}"]
    problems = []
    for key, value in (("1", d1), ("2", d2), ("inf", dinf)):
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"distance {name}: D_{key} = {value!r} is not finite and positive")
    if not (d1 <= d2 * (1 + ORDER_SLACK) and d2 <= dinf * (1 + ORDER_SLACK)):
        problems.append(f"distance {name}: D_1 <= D_2 <= D_inf fails ({d1!r}, {d2!r}, {dinf!r})")
    return problems


def check_relax(out: dict) -> list[str]:
    """The gen -> continuify -> distance pipeline."""
    for step in ("gen", "continuify", "distance"):
        if out["rc"][step] != 0:
            return [f"relax: {step} exit code {out['rc'][step]}"]
    problems = []
    summary = out["summary"]
    if summary["flags"].get("guarantee_holds") is not True:
        problems.append(f"relax: guarantee does not hold ({summary['flags']})")
    if not summary["achieved_error"] < summary["error_bound"]:
        problems.append(
            f"relax: achieved_error {summary['achieved_error']!r} >= error_bound {summary['error_bound']!r}"
        )
    problems += check_distance_report("relaxed-vs-piecewise", 0, out["distance"])
    d1 = out["distance"]["distances"].get("1")
    if d1 != summary["achieved_error"]:
        problems.append(f"relax: D_1 {d1!r} differs from achieved_error {summary['achieved_error']!r}")
    return problems


def check_verify(rc: int, ledger: dict | None) -> list[str]:
    """One `verify` run and its ledger."""
    if rc != 0 or ledger is None:
        return [f"verify: exit code {rc}"]
    problems = []
    entries = ledger.get("entries", [])
    if len(entries) != VERIFY_CHECK_COUNT:
        problems.append(f"verify: {len(entries)} ledger entries, expected {VERIFY_CHECK_COUNT}")
    if ledger.get("all_pass") is not True:
        problems.append("verify: all_pass is not true")
    failing = [e.get("check_id") for e in entries if e.get("status") != "pass"]
    if failing:
        problems.append(f"verify: failing checks {failing}")
    return problems
