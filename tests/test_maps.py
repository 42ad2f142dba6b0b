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
    AtomSet,
    DimensionMismatchError,
    Domain,
    DomainMismatchError,
    MeasurableMap,
    MetricLpError,
    SimpleMap,
    differing_support,
    dp_distance,
    dp_from_pointwise,
    equivalent,
    is_member,
    is_trivial,
    make_space,
    pointwise_distance,
    restrict,
)
from metriclp.maps import TINY, _budget_terms, _scaled_dp

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


def test_dp_from_pointwise_is_dp_distance_on_the_pointwise_vector():
    """One pointwise vector reduced at each p gives dp_distance's bits,
    including the infinite-weight, null-atom and scaled-fallback paths."""
    dom = Domain(np.array([0.0, 0.25, math.inf, 1.0, 2.0]))
    f = line_map(dom, [9.0, 1e-3, 4.0, 0.0, 2.0])
    for g in (line_map(dom, [0.0, 0.0, 4.0, 1e-200, -1.0]),
              line_map(dom, [0.0, 0.0, 4.0, 3.0, 1e150]),
              line_map(dom, [0.0, 0.0, 4.5, 3.0, 1.0])):
        d = pointwise_distance(f, g)
        for p in (1, 1.5, 2.0, 4.0, 400.0, math.inf):
            assert dp_from_pointwise(d, dom.weights, p) == dp_distance(f, g, p)
    with pytest.raises(MetricLpError):
        dp_from_pointwise(d, dom.weights, 0.5)
    with pytest.raises(DimensionMismatchError):
        dp_from_pointwise(d[:-1], dom.weights, 2.0)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("m", [0, 1, 35])
def test_dp_from_pointwise_row_stack_is_each_row_bit_for_bit(rng, m):
    """An (m, atoms) stack of pointwise vectors reduces to m values, each
    with the bits of the one-row call.  Row scales cover the batched sum,
    subnormal terms and overflow (both on the scaled fallback); weights
    cover null atoms and an infinite weight; p = inf takes the max."""
    n = 12
    scales = np.resize([1.0, 1e-170, 5e-324, 1e160, 1e300, 1e-3], m)[:, None]
    d = rng.exponential(size=(m, n)) * scales
    d[rng.random((m, n)) < 0.2] = 0.0
    d[::2, 3] = 0.0  # these rows stay finite under the infinite weight below
    for w in (
        rng.uniform(0.05, 0.15, n),
        np.where(np.arange(n) % 4 == 0, 0.0, rng.uniform(0.5, 2.0, n)),
        np.where(np.arange(n) == 3, math.inf, rng.uniform(0.5, 2.0, n)),
    ):
        for p in (1.0, 2.0, 3.0, 7.5, math.inf):
            want = np.array([dp_from_pointwise(row, w, p) for row in d], dtype=np.float64)
            for stack in (d, np.asfortranarray(d)):
                got = dp_from_pointwise(stack, w, p)
                assert got.shape == (m,)
                assert np.array_equal(bits(got), bits(want)), (p, w)


def _dp_rows_every_step(d, w, p):
    """Oracle: the D_p row reduction with every weight step taken, whatever
    the weights (the form before no-op steps were skipped)."""
    if math.isinf(p):
        live = w > 0
        return d[:, live].max(axis=1) if live.any() else np.zeros(d.shape[0])
    inf_w = np.isinf(w)
    infinite = (inf_w & (d > 0)).any(axis=1)
    w = np.where(inf_w, 0.0, w)
    d = np.where(w > 0, d, 0.0)
    with np.errstate(over="ignore"):
        powed = d**p
        contrib = w * powed
        totals = np.ascontiguousarray(contrib).sum(axis=1)
    lost = ((np.minimum(powed, contrib) < TINY) & (d > 0)).any(axis=1)
    scaled = (totals == math.inf) | lost
    out = np.empty(d.shape[0])
    for i, total in enumerate(totals.tolist()):
        if infinite[i]:
            out[i] = math.inf
        elif scaled[i]:
            out[i] = _scaled_dp(d[i], w, p)
        else:
            out[i] = total ** (1.0 / p)
    return out


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_dp_sums_that_skip_no_op_weight_steps_keep_their_bits(rng, p):
    """`dp_from_pointwise` skips the infinite-weight, null-atom and lost-term
    steps when the weights make them no-ops; on weights with zeros, with
    inf, with subnormal w * d**p, on uniform grid weights and on an empty
    domain it has the bits of the form that takes every step."""
    n = 256
    d = rng.exponential(size=(6, n))
    d[rng.random(d.shape) < 0.1] = 0.0
    d[1] = 0.0
    d[2, :8] = 0.0  # stays finite under the infinite weights below
    d[3] *= 1e160  # overflows the plain sum at p >= 2
    d[4] *= 1e-100  # subnormal terms at p >= 3
    grid = Domain.grid(2, 16).weights
    for w in (
        grid,
        rng.uniform(0.5, 2.0, n),
        np.where(np.arange(n) % 5 == 0, 0.0, grid),
        np.where(np.arange(n) < 8, math.inf, grid),
        np.where(np.arange(n) % 7 == 0, math.inf, 0.0),
        np.full(n, 1e-300),  # subnormal w * d**p
    ):
        want = _dp_rows_every_step(d, w, p)
        assert dp_from_pointwise(d, w, p).tobytes() == want.tobytes(), w[:3]
        for i, row in enumerate(d):
            got = np.float64(dp_from_pointwise(row, w, p))
            assert got.tobytes() == want[i].tobytes(), (i, w[:3])
    empty = np.zeros((3, 0))
    want = _dp_rows_every_step(empty, np.zeros(0), p)
    assert dp_from_pointwise(empty, np.zeros(0), p).tobytes() == want.tobytes()
    assert np.float64(dp_from_pointwise(empty[0], np.zeros(0), p)).tobytes() == want[0].tobytes()


def test_dp_from_pointwise_row_stack_is_dp_distance_per_pair(spaces, rng):
    """Stacking the pointwise vectors of several map pairs gives each
    pair's `dp_distance`, the path the Riesz-Fischer check measures by."""
    dom = Domain(rng.uniform(0.05, 0.15, 12))
    for sp in spaces.values():
        fs = [MeasurableMap(dom, sp, sp.random_payloads(rng, 12)) for _ in range(6)]
        gs = [MeasurableMap(dom, sp, sp.random_payloads(rng, 12, 1e-3)) for _ in range(6)]
        d = np.stack([pointwise_distance(f, g) for f, g in zip(fs, gs)])
        for p in (1.0, 2.0, 7.5, math.inf):
            want = [dp_distance(f, g, p) for f, g in zip(fs, gs)]
            assert dp_from_pointwise(d, dom.weights, p).tolist() == want, (sp.tag, p)


POINTWISE_SPACES = ["euclidean1", "euclidean3", "spd2", "spd3", "simplex1", "simplex3",
                    "histogram4", "histogram8", "circle"]


def _zero_bearing_pair(sp):
    """A valid payload with zero entries and a valid partner that differs
    from it in some entries but not in the first (None where the space has
    no such payload or partner)."""
    if sp.single_point:
        return None
    if sp.dim == 1:
        return np.zeros(1), None
    if sp.tag.startswith("spd"):
        point = np.eye(sp.n).reshape(-1)
        partner = point.copy()
        partner[-1] = 2.0
        return point, partner
    point = np.zeros(sp.dim)
    partner = point.copy()
    if sp.tag.startswith(("simplex", "histogram")):
        point[-1] = 1.0
        partner[[1, -1]] = 0.5
    else:
        partner[-1] = 1.0
    return point, partner


@pytest.mark.parametrize("name", POINTWISE_SPACES)
@pytest.mark.parametrize("mix", ["mixed", "all_identical", "none_identical"])
def test_pointwise_distance_is_the_full_kernel_vector(name, mix, rng, monkeypatch):
    """`pointwise_distance` measures only the atoms whose payloads differ and
    writes 0.0 on the rest: the vector has the bits of `distance_many` over
    every atom, on identical rows, rows that differ only in a signed zero,
    rows that differ in some entries only, and distinct rows; the kernel
    sees exactly the differing rows."""
    sp = make_space(name)
    n = 60
    a = sp.random_payloads(rng, n)
    b = sp.random_payloads(rng, n)
    pair = _zero_bearing_pair(sp)
    if mix != "none_identical":
        same = rng.random(n) < (1.0 if mix == "all_identical" else 0.4)
        b[same] = a[same]
        if pair is not None:
            zero, partner = pair
            signed = np.flatnonzero(same)[::3]
            a[signed] = zero
            b[signed] = np.where(zero == 0.0, -0.0, zero)
            if mix == "mixed" and partner is not None:
                partly = np.flatnonzero(~same)[::3]
                a[partly], b[partly] = zero, partner
    a = sp.check_payload(a)
    b = sp.check_payload(b)
    dom = Domain(rng.uniform(0.1, 2.0, n))
    f = MeasurableMap(dom, sp, a)
    g = SimpleMap(dom, sp, np.arange(n), b)
    want = sp.distance_many(a, b)
    rows = []
    kernel = type(sp)._distance_many

    def spy(self, x, y):
        rows.append(x.shape[0])
        return kernel(self, x, y)

    monkeypatch.setattr(type(sp), "_distance_many", spy)
    got = pointwise_distance(f, g)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (name, mix)
    differ = int((a != b).any(axis=1).sum())
    assert sum(rows) == (differ if sp.dim else 0), (name, mix)
    assert pointwise_distance(g, f).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["euclidean3", "spd2", "simplex3", "histogram4"])
def test_pointwise_distance_gathers_nothing_when_every_atom_differs(name, rng, monkeypatch):
    """When every atom differs, some only after their first entry, the
    kernel gets the callers' payload arrays themselves, not gathered
    copies, and the vector keeps the bits of `distance_many`."""
    sp = make_space(name)
    n = 40
    a = sp.random_payloads(rng, n)
    b = sp.random_payloads(rng, n)
    zero, partner = _zero_bearing_pair(sp)
    late = np.arange(0, n, 3)
    a[late], b[late] = zero, partner
    a = sp.check_payload(a)
    b = sp.check_payload(b)
    assert (a[:, 0] == b[:, 0]).any() and (a != b).any(axis=1).all()
    dom = Domain(np.ones(n))
    f = MeasurableMap(dom, sp, a)
    g = MeasurableMap(dom, sp, b)
    want = sp.distance_many(a, b)
    seen = []
    kernel = type(sp)._distance_many

    def spy(self, x, y):
        seen.append((x is f.values, y is g.values))
        return kernel(self, x, y)

    monkeypatch.setattr(type(sp), "_distance_many", spy)
    assert pointwise_distance(f, g).tobytes() == want.tobytes()
    assert seen == [(True, True)]


def test_dp_from_pointwise_refuses_mismatched_stacks():
    w = np.ones(4)
    for d in (np.zeros((3, 5)), np.zeros((2, 3, 4)), np.zeros(()), np.zeros(3)):
        with pytest.raises(DimensionMismatchError):
            dp_from_pointwise(d, w, 2.0)
    with pytest.raises(MetricLpError):
        dp_from_pointwise(np.zeros((3, 4)), w, math.nan)


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


def test_dp_large_p_tiny_distance_stays_positive():
    """d**200 underflows at d = 1e-3; the scaled sum keeps D_p = d."""
    dom = Domain(np.ones(1))
    f, g = line_map(dom, [0.0]), line_map(dom, [1e-3])
    assert not equivalent(f, g)
    assert dp_distance(f, g, 200.0) == pytest.approx(1e-3, rel=1e-15)


def test_dp_large_p_huge_distance_stays_finite():
    """d**400 overflows at d = 10; the scaled sum gives D_p = d, silently."""
    dom = Domain(np.ones(1))
    f, g = line_map(dom, [0.0]), line_map(dom, [10.0])
    assert dp_distance(f, g, 400.0) == pytest.approx(10.0, rel=1e-15)


@pytest.mark.parametrize("delta", [1e-170, 1e170])
def test_dp_of_maps_apart_near_the_float_limits_is_exact(delta):
    """Maps `delta` apart on one of four atoms of weight 1/4: the plain norm
    squared the difference, so 1e-170 gave D_1 = D_inf = 0.0 for maps that
    are not equivalent, and 1e170 gave inf with a RuntimeWarning, which D_p
    refused.  D_p = delta * (1/4)**(1/p), to 60 digits, and D_inf = delta."""
    mpmath = pytest.importorskip("mpmath")
    dom = Domain.grid(1, 4)
    f = line_map(dom, [0.0, 0.0, 0.0, 0.0])
    g = line_map(dom, [0.0, 0.0, delta, 0.0])
    assert not equivalent(f, g)
    with mpmath.workdps(60):
        for p in (1.0, 2.0, 3.5):
            exact = mpmath.mpf(delta) * (mpmath.mpf(1) / 4) ** (1 / mpmath.mpf(p))
            got = dp_distance(f, g, p)
            assert abs(got - exact) <= 4e-16 * exact, (p, got)
    assert dp_distance(f, g, math.inf) == delta
    assert dp_distance(g, f, 1.0) == dp_distance(f, g, 1.0)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
def test_dp_refuses_a_ground_metric_that_overflowed(p):
    """Maps 1e308 and -1e308 on one atom are 2e308 apart, past the float
    range: the pointwise distance is inf, which D_p cannot reduce.  It used
    to come out NaN at finite p, through the scaled sum's inf / inf, and inf
    at p = inf."""
    dom = Domain.grid(1, 4)
    f = line_map(dom, [0.0, 0.0, 1e308, 0.0])
    g = line_map(dom, [0.0, 0.0, -1e308, 0.0])
    with pytest.raises(MetricLpError, match="pointwise distance .* is inf"):
        dp_distance(f, g, p)


@pytest.mark.parametrize("p", [1.0, 2.0, 400.0, math.inf])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_dp_refuses_non_finite_distances_on_positive_weight_atoms_only(p, bad):
    """A non-finite distance on an atom of positive weight, finite or
    infinite, is refused at every p, alone or in a stack; on a null atom it
    is ignored as every value there is."""
    w = np.array([1.0, 0.0, math.inf, 2.0])
    for at in (0, 2, 3):
        d = np.array([1.0, 0.0, 0.0, 1.0])
        d[at] = bad
        with pytest.raises(MetricLpError, match="positive weight"):
            dp_from_pointwise(d, w, p)
        with pytest.raises(MetricLpError, match="positive weight"):
            dp_from_pointwise(np.stack([np.ones(4), d]), w, p)
    d = np.array([1.0, bad, 0.0, 1.0])
    assert dp_from_pointwise(d, w, p) == dp_from_pointwise(np.array([1.0, 0, 0, 1]), w, p)


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
# restriction
# ---------------------------------------------------------------------------


def test_restrict_is_contractive(rng):
    dom = Domain(rng.uniform(0.1, 1.0, 12))
    f = line_map(dom, rng.normal(size=12))
    g = line_map(dom, rng.normal(size=12))
    sub = AtomSet(rng.choice(12, size=5, replace=False), 12)
    for p in (1.0, 2.0, math.inf):
        assert dp_distance(restrict(f, sub), restrict(g, sub), p) <= dp_distance(f, g, p)


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


@pytest.mark.parametrize("name", ["euclidean2", "spd2", "simplex3"])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_simple_map_is_measured_as_its_expansion(rng, name, p):
    """A simple map reads as the map it expands to: same D_p bits."""
    space = make_space(name)
    domain = Domain(rng.uniform(0.1, 2.0, 64))
    f = MeasurableMap(domain, space, space.random_payloads(rng, 64))
    g = SimpleMap(domain, space, rng.integers(0, 5, 64), space.random_payloads(rng, 5))
    assert np.array_equal(g.values, g.to_map().values)
    assert dp_distance(f, g, p) == dp_distance(f, g.to_map(), p)
    assert dp_distance(g, f, p) == dp_distance(g.to_map(), f, p)
    assert is_member(g, f, p) and equivalent(g, g.to_map())


def test_simple_map_values_are_a_fresh_gather():
    dom = Domain(np.ones(3))
    g = SimpleMap(dom, E1, np.array([0, 1, 0]), np.array([[1.0], [2.0]]))
    g.values[:] = 7.0
    assert np.array_equal(g.values.ravel(), [1.0, 2.0, 1.0])
    assert np.array_equal(g.to_map().values.ravel(), [1.0, 2.0, 1.0])


def test_simple_map_validation():
    dom = Domain(np.ones(2))
    with pytest.raises(MetricLpError):
        SimpleMap(dom, E1, np.array([0, 5]), np.array([[0.0]]))  # label out of range
    with pytest.raises(MetricLpError):
        SimpleMap(dom, E1, np.array([0, -1]), np.array([[0.0]]))  # a negative label


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


def test_budget_terms_follow_one_rule_across_the_float_range():
    """w * (d / unit)**p, 0 where d or w is 0 (an infinite weight
    included), the cap 2 where an infinite weight meets d > 0 (its power
    underflowing included), where a term overflows or passes 2, and where
    d is NaN, so a distance that is not a number fails any budget."""
    inf = math.inf
    d = np.array([0.0, 0.0, 1.0, 1.0, 1e-200, 1e200, 0.5, 3.0, math.nan, 0.25])
    w = np.array([1.0, inf, 0.0, inf, inf, 1.0, 2.0, 1.0, 1.0, 0.5])
    got = _budget_terms(d, w, 0.5, 7.5)
    want = [0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.5 * 0.5**7.5]
    assert got.tolist() == want
    # d broadcasts against w, one row per value
    stack = _budget_terms(np.stack([d, d[::-1]]), w, 0.5, 7.5)
    assert stack[0].tolist() == want
    assert stack[1].tolist() == _budget_terms(d[::-1], w, 0.5, 7.5).tolist()
