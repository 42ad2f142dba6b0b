"""Every theorem-suite check can fail: a table of faults and the checks each kills.

Mutation analysis (DeMillo, Lipton & Sayward, *Hints on test data
selection*, 1978; Jia & Harman, IEEE TSE 2011): each row plants one fault
in a library function or kernel, and each check the row names must then
raise when run alone on a fresh `SuiteContext(0)` -- `run_theorem_suite`
records a raising check as a fail.  A fault replaces its function at
every binding: the class attribute for a method, else every `metriclp.*`
module attribute bound to the same function object, so callers that
imported the name directly see the fault too.

A check that no row kills could pass whatever the library computes; the
guard test below fails Tier-1 until the new check has a row.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

from metriclp import domain, maps, quantize, spaces, verify
from metriclp.errors import CheckFailedError


class Fault(NamedTuple):
    name: str
    owner: object        # a class (method) or the module that defines the function
    attr: str
    make: Callable       # original function -> faulty replacement
    kills: tuple[str, ...]


def install(fault: Fault, setattr_=setattr) -> None:
    """Replace `fault.owner.attr` at every binding, through `setattr_`
    (plain `setattr`, or `monkeypatch.setattr` to undo it after a test)."""
    orig = vars(fault.owner)[fault.attr]
    replacement = fault.make(orig)
    if isinstance(fault.owner, type):
        setattr_(fault.owner, fault.attr, replacement)
        return
    modules = [m for n, m in sys.modules.items() if n == "metriclp" or n.startswith("metriclp.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr_(module, key, replacement)


def _finite_measure(orig):
    def measure(dom, s):
        w = np.where(np.isinf(dom.weights), 0.0, dom.weights)
        return orig(domain.Domain(w), s)
    return measure


def _without_root(orig):
    def dp_from_pointwise(d, weights, p):
        p = maps.check_p(p)
        value = orig(d, weights, p)
        return value if math.isinf(p) else value**p
    return dp_from_pointwise


def _flag_never_set(orig):
    return lambda *args: dataclasses.replace(orig(*args), over_budget=False)


def _whole_grid_envelope(orig):
    def outer_open_approx(dom, c, delta):
        return dataclasses.replace(orig(dom, c, delta), atoms=domain.AtomSet.full(dom.atom_count))
    return outer_open_approx


def _sqrt_transition(orig):
    def urysohn(*args):
        field = orig(*args)
        return dataclasses.replace(field, values=np.sqrt(field.values))
    return urysohn


FAULTS = [
    Fault(
        "negate_euclidean_distance", spaces.EuclideanSpace, "_distance_many",
        lambda orig: lambda self, a, b: -orig(self, a, b),
        ("space.metric_axioms", "lp.metric_axioms", "lp.constant_embedding",
         "lp.holder_base_bounds", "approx.countable_quantize", "approx.orthonormal_bound",
         "relax.continuous", "relax.smooth", "verify.riesz_fischer"),
    ),
    Fault(
        "euclidean_geodesic_at_t_squared", spaces.EuclideanSpace, "_geodesic_many",
        lambda orig: lambda self, a, b, t: orig(self, a, b, t * t),
        ("space.geodesics", "relax.continuous", "relax.smooth", "verify.riesz_fischer"),
    ),
    Fault(
        "dense_sequence_repeats_one_point", spaces.CircleSpace, "_dense_payloads",
        lambda orig: lambda self, k: np.zeros((k, 1)),
        ("space.dense_sequences",),
    ),
    Fault(
        "epsilon_net_drops_last_point", spaces.MetricSpace, "epsilon_net",
        lambda orig: lambda self, center, radius, eps: orig(self, center, radius, eps)[:-1],
        ("space.epsilon_nets",),
    ),
    Fault(
        "epsilon_net_at_three_eps", spaces.MetricSpace, "epsilon_net",
        lambda orig: lambda self, center, radius, eps: orig(self, center, radius, 3 * eps),
        ("space.epsilon_nets", "approx.sup_quantize"),
    ),
    Fault(
        "measure_ignores_infinite_weights", domain, "measure", _finite_measure,
        ("domain.measure",),
    ),
    Fault(
        "never_purely_infinite", domain, "is_purely_infinite",
        lambda orig: lambda dom: False,
        ("domain.measure", "lp.triviality_support"),
    ),
    Fault(
        "inner_closed_approx_never_over_budget", domain, "inner_closed_approx",
        _flag_never_set,
        ("domain.morphology",),
    ),
    Fault(
        "outer_open_approx_never_over_budget", domain, "outer_open_approx",
        _flag_never_set,
        ("domain.morphology",),
    ),
    # at p = 1 the relax fixture's erosion is capped by its deepest layer,
    # not by its budget; the smaller p = 2 budget is overspent fourfold
    Fault(
        "inner_closed_approx_four_times_budget", domain, "inner_closed_approx",
        lambda orig: lambda dom, b, delta: orig(dom, b, 4 * delta),
        ("domain.morphology", "relax.continuous"),
    ),
    Fault(
        "outer_open_approx_returns_whole_grid", domain, "outer_open_approx",
        _whole_grid_envelope,
        ("domain.morphology", "relax.continuous", "relax.smooth"),
    ),
    Fault(
        "urysohn_sqrt_transition", domain, "urysohn", _sqrt_transition,
        ("domain.morphology", "relax.continuous", "relax.smooth"),
    ),
    Fault(
        "dp_without_root", maps, "dp_from_pointwise", _without_root,
        ("lp.metric_axioms", "lp.constant_embedding", "lp.holder_base_bounds",
         "relax.continuous", "relax.smooth", "verify.riesz_fischer", "verify.separability"),
    ),
    Fault(
        "dp_halved", maps, "dp_from_pointwise",
        lambda orig: lambda d, weights, p: 0.5 * orig(d, weights, p),
        ("lp.metric_axioms", "lp.constant_embedding", "approx.orthonormal_bound",
         "relax.continuous", "verify.separability"),
    ),
    Fault(
        "step_search_returns_lo", quantize, "_smallest_index",
        lambda orig: lambda lo, hi, pred: lo,
        ("approx.almost_simple",),
    ),
    Fault(
        "best_errors_reversed", quantize, "_best_errors",
        lambda orig: lambda *args: orig(*args)[::-1],
        ("approx.divergence",),
    ),
    Fault(
        "best_errors_without_root", quantize, "_best_errors",
        lambda orig: lambda w, h, p, k: orig(w, h, p, k) ** p,
        ("approx.divergence",),
    ),
]

FAULTS_BY_NAME = {fault.name: fault for fault in FAULTS}
CHECK_FNS = {check_id: fn for check_id, _statement, fn in verify.CHECKS}


def test_every_check_is_killed_by_some_fault():
    assert len(FAULTS_BY_NAME) == len(FAULTS)
    killed = {check_id for fault in FAULTS for check_id in fault.kills}
    assert killed == set(CHECK_FNS)


def run_check(check_id: str) -> Exception | None:
    """What the check raises on a fresh SuiteContext(0), or None if it passes."""
    try:
        with np.errstate(all="ignore"):
            CHECK_FNS[check_id](verify.SuiteContext(0))
    except Exception as exc:  # noqa: BLE001 - the suite records any exception as a fail
        return exc
    return None


@pytest.mark.parametrize("fault", FAULTS, ids=[f.name for f in FAULTS])
def test_fault_fails_its_checks(fault, monkeypatch):
    install(fault, monkeypatch.setattr)
    raised = {check_id: run_check(check_id) for check_id in fault.kills}
    assert [check_id for check_id, exc in raised.items() if exc is None] == []
    # some check's own `require` trips: a fault that only breaks call
    # signatures would raise TypeError everywhere and prove nothing
    assert any(isinstance(exc, CheckFailedError) for exc in raised.values())
