"""Mapping-level distance tests: D_p values, conventions, and bounds.

Frozen values, derived by hand:
- weights (1, 1), pointwise distances (1, 3), p = 2 -> D_2 = sqrt(10).
- constant embedding: d(y, z) = 3, measure 4, p = 2 -> D_2 = 3 * 2 = 6.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from metriclp import (
    BASE_LABEL,
    AtomSet,
    Domain,
    DomainMismatchError,
    MeasurableMap,
    MetricLpError,
    SimpleMap,
    differing_support,
    distance_to_base_field,
    dp_distance,
    equivalent,
    is_member,
    is_trivial,
    make_space,
    near_equivalent,
    pointwise_distance,
    restrict,
)

E1 = make_space("euclidean1")


def line_map(domain, values):
    return MeasurableMap(domain, E1, np.asarray(values, dtype=float)[:, None])


# ---------------------------------------------------------------------------
# D_p values and conventions
# ---------------------------------------------------------------------------


def test_dp_frozen_sqrt10():
    dom = Domain(np.array([1.0, 1.0]))
    f = line_map(dom, [0.0, 0.0])
    g = line_map(dom, [1.0, 3.0])
    assert dp_distance(f, g, 2.0) == pytest.approx(math.sqrt(10.0), rel=0, abs=1e-15)
    assert dp_distance(f, g, 1.0) == pytest.approx(4.0)
    assert dp_distance(f, g, math.inf) == 3.0


def test_dp_ignores_null_atoms():
    dom = Domain(np.array([0.0, 1.0]))
    f = line_map(dom, [100.0, 0.0])
    g = line_map(dom, [-100.0, 1.0])
    for p in (1.0, 2.0, math.inf):
        assert dp_distance(f, g, p) == 1.0


def test_dp_zero_times_infinity_convention():
    dom = Domain(np.array([math.inf, 1.0]))
    f = line_map(dom, [5.0, 0.0])
    same = line_map(dom, [5.0, 2.0])
    moved = line_map(dom, [5.5, 2.0])
    # equal on the infinite atom: its 0 * inf contribution is 0
    assert dp_distance(f, same, 2.0) == 2.0
    # any positive distance on an infinite atom costs +inf
    assert dp_distance(f, moved, 2.0) == math.inf
    assert not is_member(f, moved, 2.0)
    assert is_member(f, same, 2.0)


def test_dp_rejects_bad_p():
    dom = Domain(np.array([1.0]))
    f = line_map(dom, [0.0])
    with pytest.raises(MetricLpError):
        dp_distance(f, f, 0.5)
    with pytest.raises(MetricLpError):
        dp_distance(f, f, math.nan)


def test_dp_domain_mismatch():
    f = line_map(Domain(np.array([1.0, 1.0])), [0.0, 0.0])
    g = line_map(Domain(np.array([1.0, 2.0])), [0.0, 0.0])
    with pytest.raises(DomainMismatchError):
        dp_distance(f, g, 2.0)


def test_dp_zero_iff_equivalent(spaces, rng):
    for sp in spaces.values():
        dom = Domain(np.array([0.0, 0.7, 1.3, 2.0]))
        vals = sp.random_payloads(rng, 4)
        f = MeasurableMap(dom, sp, vals)
        twin_vals = vals.copy()
        twin_vals[0] = sp.random_payloads(rng, 1)[0]  # differ on the null atom
        twin = MeasurableMap(dom, sp, twin_vals)
        other_vals = vals.copy()
        other_vals[2] = sp.random_payloads(rng, 1)[0]  # differ on a live atom
        other = MeasurableMap(dom, sp, other_vals)
        for p in (1.0, 2.0, math.inf):
            assert dp_distance(f, twin, p) == 0.0
            assert dp_distance(f, other, p) > 0.0
        assert equivalent(f, twin) and not equivalent(f, other)


@pytest.mark.filterwarnings("error")
def test_dp_large_p_tiny_distance_stays_positive():
    """d**200 underflows at d = 1e-3; the scaled sum keeps D_p = d."""
    dom = Domain(np.ones(1))
    f, g = line_map(dom, [0.0]), line_map(dom, [1e-3])
    assert not equivalent(f, g)
    assert dp_distance(f, g, 200.0) == pytest.approx(1e-3, rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_dp_large_p_huge_distance_stays_finite():
    """d**400 overflows at d = 10; the scaled sum gives D_p = d, silently."""
    dom = Domain(np.ones(1))
    f, g = line_map(dom, [0.0]), line_map(dom, [10.0])
    assert dp_distance(f, g, 400.0) == pytest.approx(10.0, rel=1e-15)


def test_near_equivalent_tolerance():
    dom = Domain(np.array([1.0]))
    f = line_map(dom, [0.0])
    g = line_map(dom, [1e-13])
    assert near_equivalent(f, g) and not equivalent(f, g)


# ---------------------------------------------------------------------------
# constant embedding
# ---------------------------------------------------------------------------


def test_constant_embed_frozen_six():
    dom = Domain(np.full(8, 0.5))  # measure 4
    f = MeasurableMap.constant(dom, E1, np.array([0.0]))
    g = MeasurableMap.constant(dom, E1, np.array([3.0]))
    assert dp_distance(f, g, 2.0) == pytest.approx(6.0, rel=1e-15)  # 3 * 4**(1/2)
    assert dp_distance(f, g, 1.0) == pytest.approx(12.0, rel=1e-15)
    assert dp_distance(f, g, math.inf) == 3.0  # scaling-free


def test_constant_embed_isometry_random(spaces, rng):
    dom = Domain(rng.uniform(0.0, 1.0, 10))
    mu = float(dom.weights.sum())
    for sp in spaces.values():
        y, z = sp.random_payloads(rng, 2)
        f = MeasurableMap.constant(dom, sp, y)
        g = MeasurableMap.constant(dom, sp, z)
        d = sp.distance_many(y[None], z[None])[0]
        for p in (1.0, 1.5, 2.0, 4.0):
            assert dp_distance(f, g, p) == pytest.approx(d * mu ** (1 / p), rel=1e-12)
        assert dp_distance(f, g, math.inf) == pytest.approx(d, rel=0, abs=0)


# ---------------------------------------------------------------------------
# restriction and derived fields
# ---------------------------------------------------------------------------


def test_restrict_is_contractive(rng):
    dom = Domain(rng.uniform(0.1, 1.0, 12))
    f = line_map(dom, rng.normal(size=12))
    g = line_map(dom, rng.normal(size=12))
    sub = AtomSet(rng.choice(12, size=5, replace=False), 12)
    for p in (1.0, 2.0, math.inf):
        assert dp_distance(restrict(f, sub), restrict(g, sub), p) <= dp_distance(f, g, p)


def test_distance_to_base_field_values():
    dom = Domain(np.array([1.0, 1.0]))
    f = line_map(dom, [0.0, 2.0])
    h = line_map(dom, [1.0, -1.0])
    field = distance_to_base_field(f, h)
    assert np.array_equal(field.values.ravel(), [1.0, 3.0])
    assert np.array_equal(pointwise_distance(f, h), [1.0, 3.0])


# ---------------------------------------------------------------------------
# triviality
# ---------------------------------------------------------------------------


def test_trivial_spaces():
    assert is_trivial(Domain(np.array([0.0, math.inf])), E1)
    assert not is_trivial(Domain(np.array([1.0])), E1)
    assert is_trivial(Domain(np.array([1.0])), make_space("simplex1"))


# ---------------------------------------------------------------------------
# simple maps
# ---------------------------------------------------------------------------


def test_simple_map_expansion_and_base_flag():
    dom = Domain(np.ones(4))
    table = np.array([[1.0], [2.0]])
    g = SimpleMap(dom, E1, np.array([0, 1, BASE_LABEL, 0]), table, base_flag=BASE_LABEL)
    assert g.range_size == 2
    assert g.base_atoms() == AtomSet([2], 4)
    h = line_map(dom, [9.0, 9.0, 9.0, 9.0])
    out = g.to_map(h)
    assert np.array_equal(out.values.ravel(), [1.0, 2.0, 9.0, 1.0])
    with pytest.raises(MetricLpError):
        g.to_map()  # base atoms present but no base mapping given


def test_simple_map_validation():
    dom = Domain(np.ones(2))
    with pytest.raises(MetricLpError):
        SimpleMap(dom, E1, np.array([0, 5]), np.array([[0.0]]))  # label out of range
    with pytest.raises(MetricLpError):
        SimpleMap(dom, E1, np.array([0, -1]), np.array([[0.0]]))  # no base flag


# ---------------------------------------------------------------------------
# support decomposition
# ---------------------------------------------------------------------------


def test_differing_support_partition_and_levels():
    dom = Domain(np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
    h = line_map(dom, [0.0, 0.0, 0.5, 2.5, 0.0])
    f = line_map(dom, [3.0, 0.0, 0.9, 2.5 + 0.3, 2.0])
    # pointwise d: (3, 0, 0.4, 0.3, 2); live differing atoms: {2, 3, 4}
    pieces = differing_support(f, h, 2.0)
    # atom 2: d = 0.4 -> n = 3 (0.4 > 1/3); |h| = 0.5 -> m = 1
    # atom 3: d = 0.3 -> n = 4 (0.3 > 1/4); |h| = 2.5 -> m = 3
    # atom 4: d = 2.0 -> n = 1;             |h| = 0   -> m = 0
    assert set(pieces) == {(3, 1), (4, 3), (1, 0)}
    assert pieces[(3, 1)] == AtomSet([2], 5)
    assert pieces[(4, 3)] == AtomSet([3], 5)
    assert pieces[(1, 0)] == AtomSet([4], 5)
    covered = AtomSet.empty(5)
    for atoms in pieces.values():
        assert covered.intersection(atoms).size == 0
        covered = covered.union(atoms)
    assert covered == AtomSet([2, 3, 4], 5)


def test_differing_support_requires_membership():
    dom = Domain(np.array([math.inf, 1.0]))
    h = line_map(dom, [0.0, 0.0])
    f = line_map(dom, [1.0, 0.0])  # infinite atom moved: not a member
    with pytest.raises(MetricLpError):
        differing_support(f, h, 2.0)
