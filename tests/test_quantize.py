"""Quantization and counterexample-fixture tests.

Hand-derived frozen traces:

Countable snap, values (0.0, 0.3, 1.0, 1.1), eps 0.5:
  the snap list is the map's own distinct values in atom order; first
  strict cover gives labels (0, 0, 2, 2) and sup error max(0.3, 0.1) = 0.3.

Three-step construction, f = (0.05, 2, 3) vs h = 0, weights 1, p = 1,
eps = 0.9 (budget eps/3 = 0.3 per step):
  step 1 reverts the 0.05 atom (error 0.05 < 0.3), leaving measure 2;
  snap radius R = 0.9 / (3 * 2) = 0.15 keeps both values 2 and 3 as their
  own centers (steps 2 and 3 cost 0); total error 0.05.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from metriclp import (
    BASE_LABEL,
    AtomSet,
    CapabilityError,
    Domain,
    MeasurableMap,
    MetricLpError,
    almost_simple_approx,
    countable_quantize,
    divergence_fixture,
    dp_distance,
    make_space,
    orthonormal_lower_bound,
    simple_approx_sup,
)
from metriclp.quantize import _best_k_error, _first_cover

E1 = make_space("euclidean1")


def line_map(domain, values):
    return MeasurableMap(domain, E1, np.asarray(values, dtype=float)[:, None])


# ---------------------------------------------------------------------------
# countable-range quantization
# ---------------------------------------------------------------------------


def test_countable_quantize_frozen_trace():
    dom = Domain(np.ones(4))
    f = line_map(dom, [0.0, 0.3, 1.0, 1.1])
    simple, report = countable_quantize(f, 0.5)
    assert np.array_equal(simple.labels, [0, 0, 2, 2])
    assert np.array_equal(simple.value_table[[0, 2]].ravel(), [0.0, 1.0])
    assert report.achieved_error == pytest.approx(0.3, rel=0, abs=0)
    assert report.achieved_error < 0.5
    assert simple.range_size == 2


def test_countable_quantize_is_identity_at_tiny_eps():
    dom = Domain(np.ones(3))
    f = line_map(dom, [0.0, 5.0, -2.0])
    simple, report = countable_quantize(f, 1e-9)
    assert report.achieved_error == 0.0
    assert np.array_equal(simple.to_map().values, f.values)


def test_countable_quantize_sigma_finite_mode(rng):
    dom = Domain(np.ones(6))
    f = line_map(dom, rng.normal(size=6))
    pieces = [AtomSet([0, 1, 2], 6), AtomSet([3, 4, 5], 6)]
    simple, report = countable_quantize(f, 0.4, pieces=pieces, p=1.0)
    assert report.achieved_error < 0.4
    assert dp_distance(simple.to_map(), f, 1.0) == pytest.approx(report.achieved_error)


def test_countable_quantize_rejects_overlapping_pieces(rng):
    dom = Domain(np.ones(4))
    f = line_map(dom, rng.normal(size=4))
    with pytest.raises(MetricLpError):
        countable_quantize(f, 0.5, pieces=[AtomSet([0, 1], 4), AtomSet([1, 2, 3], 4)], p=1.0)


def test_countable_quantize_needs_positive_eps(rng):
    dom = Domain(np.ones(2))
    f = line_map(dom, [0.0, 1.0])
    with pytest.raises(MetricLpError):
        countable_quantize(f, 0.0)


# ---------------------------------------------------------------------------
# three-step almost-simple construction
# ---------------------------------------------------------------------------


def test_almost_simple_frozen_trace():
    dom = Domain(np.ones(3))
    f = line_map(dom, [0.05, 2.0, 3.0])
    h = line_map(dom, [0.0, 0.0, 0.0])
    simple, report = almost_simple_approx(f, h, 1.0, 0.9)
    assert report.achieved_error == pytest.approx(0.05, rel=0, abs=1e-15)
    assert report.step_breakdown["step1"] == pytest.approx(0.05)
    assert report.step_breakdown["step2"] == 0.0
    assert report.step_breakdown["step3"] == 0.0
    assert all(v < 0.3 for v in report.step_breakdown.values())
    assert simple.labels[0] == BASE_LABEL
    assert simple.range_size == 2
    assert report.altered_measure == 2.0
    g = simple.to_map(h)
    assert np.array_equal(g.values.ravel(), [0.0, 2.0, 3.0])


def test_almost_simple_degenerate_when_already_base():
    dom = Domain(np.ones(4))
    f = line_map(dom, [0.0, 0.0, 0.0, 0.0])
    simple, report = almost_simple_approx(f, f, 2.0, 0.5)
    assert report.flags.get("degenerate_altered_set")
    assert simple.range_size == 0
    assert np.all(simple.labels == BASE_LABEL)
    assert report.achieved_error == 0.0


def test_almost_simple_respects_budgets_on_random_fields(rng):
    dom = Domain.grid(2, 12)
    for name in ("euclidean2", "simplex3"):
        sp = make_space(name)
        from metriclp import fields

        f = fields.smooth_field(dom, sp, rng)
        h = fields.smooth_field(dom, sp, rng)
        for p in (1.0, 2.0):
            for eps in (0.6, 0.15):
                simple, report = almost_simple_approx(f, h, p, eps)
                assert report.achieved_error < eps
                assert all(v < eps / 3 for v in report.step_breakdown.values())
                assert dp_distance(simple.to_map(h), f, p) == pytest.approx(
                    report.achieved_error
                )


def test_almost_simple_rejects_infinite_p(rng):
    dom = Domain(np.ones(2))
    f = line_map(dom, [0.0, 1.0])
    with pytest.raises(MetricLpError):
        almost_simple_approx(f, f, math.inf, 0.5)


def brute_first_cover(space, values, table, radius):
    """Reference first cover: the full pairwise distance block, then the
    first column strictly under the radius, else -1."""
    m, k = values.shape[0], table.shape[0]
    if m == 0 or k == 0:
        return np.full(m, -1)
    left = np.repeat(values, k, axis=0)
    right = np.tile(table, (m, 1))
    covered = space.distance_many(left, right).reshape(m, k) < radius
    return np.where(covered.any(axis=1), covered.argmax(axis=1), -1)


@pytest.mark.parametrize("name", ["euclidean2", "spd2", "simplex3", "circle"])
def test_first_cover_matches_brute_force(name, rng):
    sp = make_space(name)
    spread = sp.random_payloads(rng, 60)
    centers = sp.random_payloads(rng, 4)
    # clustered: short geodesic steps from four centers, with exact repeats
    clustered = sp.geodesic_many(
        centers[rng.integers(0, 4, 60)], spread, rng.uniform(0.0, 0.05, 60)
    )
    clustered[40:] = clustered[:20]
    cases = [(spread[:40], spread[20:]), (clustered, clustered[::3]), (clustered, spread[:10])]
    for values, table in cases:
        block = sp.distance_many(np.repeat(values, len(table), axis=0), np.tile(table, (len(values), 1)))
        # the last radius is the exact distance of value 1 to table row 0,
        # which must not count as a cover
        radii = [*np.quantile(block, [0.02, 0.2, 0.6]), block[len(table)]]
        for radius in radii:
            got = _first_cover(sp, values, table, radius)
            assert np.array_equal(got, brute_first_cover(sp, values, table, radius)), radius
        assert got[1] != 0
        assert np.array_equal(_first_cover(sp, values, table[:0], 1.0), np.full(len(values), -1))
        assert _first_cover(sp, values[:0], table, 1.0).shape == (0,)


# ---------------------------------------------------------------------------
# sup-norm quantization via epsilon nets
# ---------------------------------------------------------------------------


def test_sup_quantize_euclidean(rng):
    dom = Domain(np.ones(40))
    sp = make_space("euclidean2")
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 40))
    h = MeasurableMap(dom, sp, np.zeros((40, 2)))
    for eps in (0.5, 0.2):
        simple, report = simple_approx_sup(f, h, eps)
        assert report.achieved_error < eps
        assert dp_distance(simple.to_map(h), f, math.inf) == report.achieved_error


def test_sup_quantize_circle(rng):
    dom = Domain(np.ones(30))
    sp = make_space("circle")
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 30))
    h = MeasurableMap(dom, sp, np.zeros((30, 1)))
    simple, report = simple_approx_sup(f, h, 0.3)
    assert report.achieved_error < 0.3
    assert simple.range_size <= report.step_breakdown["net_size"]


def test_sup_quantize_histogram_refuses(rng):
    sp = make_space("histogram8")
    dom = Domain(np.ones(5))
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 5))
    with pytest.raises(CapabilityError):
        simple_approx_sup(f, f, 0.3)


# ---------------------------------------------------------------------------
# orthonormal-direction counterexample
# ---------------------------------------------------------------------------


def test_orthonormal_frozen_values():
    # one value for two orthonormal directions: best center is the midpoint,
    # error sqrt(1 - 1/2) = sqrt(2)/2
    rep = orthonormal_lower_bound(2, 1)
    assert rep.min_max_error == pytest.approx(0.7071067811865476, rel=0, abs=1e-15)
    assert rep.min_max_error == rep.pigeonhole_bound
    # ceil(6/2) = 3 directions somewhere: sqrt(1 - 1/3)
    rep62 = orthonormal_lower_bound(6, 2)
    assert rep62.min_max_error == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)


def test_orthonormal_brute_force_matches_pigeonhole():
    for n, k in ((2, 1), (4, 3), (5, 2), (6, 5)):
        rep = orthonormal_lower_bound(n, k)
        assert rep.min_max_error == pytest.approx(rep.pigeonhole_bound, rel=1e-15)


def test_orthonormal_best_map_achieves_the_bound():
    rep = orthonormal_lower_bound(4, 3)
    achieved = dp_distance(rep.best_map.to_map(), rep.mapping, math.inf)
    assert achieved == pytest.approx(rep.min_max_error, rel=1e-12)


def test_orthonormal_enough_values_costs_nothing():
    rep = orthonormal_lower_bound(4, 4)
    assert rep.min_max_error == 0.0


def test_orthonormal_rejects_large_instances():
    with pytest.raises(MetricLpError):
        orthonormal_lower_bound(13, 2)


# ---------------------------------------------------------------------------
# divergence fixtures
# ---------------------------------------------------------------------------


def test_divergence_unbounded_monotone():
    errors = [
        divergence_fixture("unbounded_base", n, 2.0).best_k_error
        for n in (16, 32, 64, 128, 256)
    ]
    assert all(b > a for a, b in zip(errors, errors[1:]))


def test_divergence_exponential_monotone():
    errors = [
        divergence_fixture("exponential_base", t, 1.0).best_k_error
        for t in (1, 2, 3, 4)
    ]
    assert all(b > a for a, b in zip(errors, errors[1:]))


def test_divergence_constant_below_k_piece():
    rep = divergence_fixture("unbounded_base", 128, 2.0)
    assert rep.best_k_error <= rep.best_constant_error


def test_divergence_rejects_sup_norm():
    with pytest.raises(MetricLpError):
        divergence_fixture("unbounded_base", 8, math.inf)


def test_best_k_dp_agrees_with_exhaustive_splits(rng):
    """Exhaustive split enumeration as an independent oracle for the DP."""

    def brute(w, h, p, k):
        n = h.size
        order = np.argsort(h)
        w, h = w[order], h[order]
        best = np.inf
        for segs in range(1, k + 1):
            for cuts in combinations(range(1, n), segs - 1):
                bounds = [0, *cuts, n]
                total = 0.0
                for i, j in zip(bounds[:-1], bounds[1:]):
                    ww, hh = w[i:j], h[i:j]
                    if p == 2:
                        c = (ww * hh).sum() / ww.sum()
                        total += float((ww * (hh - c) ** 2).sum())
                    else:
                        cw = np.cumsum(ww)
                        c = hh[np.searchsorted(cw, cw[-1] / 2.0)]
                        total += float((ww * np.abs(hh - c)).sum())
                best = min(best, total)
        return best ** (1.0 / p)

    for _ in range(40):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 5))
        w = rng.uniform(0.1, 2.0, n)
        h = rng.normal(0.0, 1.0, n)
        for p in (1.0, 2.0):
            got = _best_k_error(w.copy(), h.copy(), p, k)
            want = brute(w, h, p, k)
            assert got == pytest.approx(want, abs=2e-7)
