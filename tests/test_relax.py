"""Continuous/smooth relaxation tests.

Frozen smoothstep values at t = 1/4 (exact dyadic arithmetic):
  order 1: 3t^2 - 2t^3        = 3/16 - 1/32   = 0.15625
  order 2: 10t^3 - 15t^4 + 6t^5 = 10/64 - 15/256 + 6/1024 = 0.103515625
Maximal slopes (at t = 1/2): 1, 3/2, 15/8.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from metriclp import (
    CapabilityError,
    Domain,
    GeometryError,
    MetricLpError,
    SimpleMap,
    adjacent_difference_report,
    boundary_difference_scan,
    dp_distance,
    error_bound,
    fields,
    make_space,
    smooth_from_simple,
    smoothstep,
    smoothstep_max_slope,
    urysohn,
)

E1 = make_space("euclidean1")
E2 = make_space("euclidean2")
ORIGIN1 = np.array([0.0])
ORIGIN2 = np.array([0.0, 0.0])


def band_fixture(cells=512, half_width=0.12, y=1.0):
    dom = Domain.grid(1, cells)
    labels = fields.band_labels(dom.geometry, 0.5, half_width)
    table = np.array([[0.0], [y]])
    return SimpleMap(dom, E1, labels, table)


# ---------------------------------------------------------------------------
# smoothstep family
# ---------------------------------------------------------------------------


def test_smoothstep_frozen_quarter_values():
    assert smoothstep(0.25, 0) == 0.25
    assert smoothstep(0.25, 1) == 0.15625
    assert smoothstep(0.25, 2) == 0.103515625


def test_smoothstep_order_zero_is_bitwise_identity():
    t = np.linspace(0.0, 1.0, 17)
    out = smoothstep(t, 0)
    assert np.array_equal(np.asarray(out), t)


def test_smoothstep_fixes_endpoints_exactly():
    for order in range(4):
        assert smoothstep(0.0, order) == 0.0
        assert smoothstep(1.0, order) == 1.0


def test_smoothstep_monotone_and_bounded():
    t = np.linspace(0.0, 1.0, 257)
    for order in range(4):
        s = np.asarray(smoothstep(t, order))
        assert np.all(np.diff(s) >= 0)
        assert np.all((s >= 0.0) & (s <= 1.0))


def test_smoothstep_max_slopes():
    assert smoothstep_max_slope(0) == 1.0
    assert smoothstep_max_slope(1) == 1.5
    assert smoothstep_max_slope(2) == 1.875
    # empirical slope never exceeds the closed form
    t = np.linspace(0.0, 1.0, 4097)
    for order in range(4):
        s = np.asarray(smoothstep(t, order))
        emp = np.abs(np.diff(s)).max() / (t[1] - t[0])
        assert emp <= smoothstep_max_slope(order) + 1e-9


def test_smoothstep_rejects_out_of_range():
    with pytest.raises(MetricLpError):
        smoothstep(1.5, 2)
    with pytest.raises(MetricLpError):
        smoothstep(np.array([0.0, -0.1]), 1)


# ---------------------------------------------------------------------------
# continuous relaxation
# ---------------------------------------------------------------------------


def test_continuous_band_exactness_and_error():
    g = band_fixture()
    field = smooth_from_simple(g, ORIGIN1, 1.0, 0.2, order=0)
    assert field.flags["guarantee_holds"]
    assert field.achieved_error < error_bound(field) <= 0.2
    (piece,) = field.pieces
    # exact target value on the eroded core, exact background outside
    assert np.all(field.map.values[piece.core.indices] == 1.0)
    outside = piece.region.complement()
    assert np.all(field.map.values[outside.indices] == 0.0)
    # the transition stays inside [z0, y] on the geodesic
    assert np.all((field.map.values >= 0.0) & (field.map.values <= 1.0))


@pytest.mark.parametrize("order", [0, 2])
def test_background_only_map_has_no_piece_and_holds_its_guarantee(order):
    """With every value equal to the background nothing is relaxed: the
    field is the input, and its flags are those of a field without flags."""
    dom = Domain.grid(1, 16)
    g = SimpleMap(dom, E1, np.zeros(16, dtype=np.int64), np.array([[0.0]]))
    field = smooth_from_simple(g, ORIGIN1, 1.0, 0.2, order=order)
    assert field.pieces == [] and field.achieved_error == 0.0
    assert np.array_equal(field.map.values, g.values)
    assert field.flags == {
        "inner_over_budget": False, "outer_over_budget": False, "guarantee_holds": True,
    }
    assert list(field.flags) == ["inner_over_budget", "outer_over_budget", "guarantee_holds"]


def test_continuous_two_disks_2d(rng):
    dom = Domain.grid(2, 32)
    labels = fields.disk_labels(
        dom.geometry, np.array([[0.3, 0.3], [0.7, 0.65]]), np.array([0.15, 0.18])
    )
    table = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.55]])
    g = SimpleMap(dom, E2, labels, table)
    field = smooth_from_simple(g, ORIGIN2, 1.0, 0.3, order=0)
    assert field.flags["guarantee_holds"]
    assert field.achieved_error < 0.3
    for piece in field.pieces:
        assert np.all(
            field.map.values[piece.core.indices] == g.value_table[piece.label]
        )
    covered = np.zeros(dom.atom_count, dtype=bool)
    for piece in field.pieces:
        covered[piece.region.indices] = True
    assert np.all(field.map.values[~covered] == 0.0)


def test_continuous_modulus_bound():
    g = band_fixture()
    field = smooth_from_simple(g, ORIGIN1, 1.0, 0.2, order=0)
    report = adjacent_difference_report(field)
    assert report["max_ratio"] <= 1.0 + 1e-9
    assert report["max_difference"] <= report["max_bound"] * (1.0 + 1e-9)


def test_relaxation_error_matches_dp(rng):
    g = band_fixture()
    field = smooth_from_simple(g, ORIGIN1, 2.0, 0.25, order=0)
    direct = dp_distance(g.to_map(), field.map, 2.0)
    assert direct == field.achieved_error


def test_background_only_map_relaxes_to_itself():
    dom = Domain.grid(1, 64)
    g = SimpleMap(dom, E1, np.zeros(64, dtype=np.int64), np.array([[0.0]]))
    field = smooth_from_simple(g, ORIGIN1, 1.0, 0.1, order=0)
    assert field.achieved_error == 0.0
    assert not field.pieces
    assert np.all(field.map.values == 0.0)


def test_piece_state_is_region_local(rng):
    """Each piece keeps its transition on its own region only: the per-piece
    arrays together stay within a few grids, not pieces x grid."""
    dom = Domain.grid(2, 64)
    labels = fields.voronoi_labels(dom.geometry, 64, rng)
    g = fields.simple_from_labels(dom, E2, labels, rng=rng)
    field = smooth_from_simple(g, ORIGIN2, 1.0, 0.2, order=0)
    assert len(field.pieces) == 64
    total = 0
    for piece in field.pieces:
        assert piece.transition.shape == (piece.region.size,)
        trans = urysohn(dom, piece.core, piece.region)
        assert np.array_equal(piece.transition, trans.values[piece.region.indices])
        assert piece.gap_width == trans.gap_width
        arrays = (piece.value, piece.core.indices, piece.region.indices, piece.transition)
        total += sum(a.nbytes for a in arrays)
    assert total <= 4 * dom.atom_count * 8


def test_relaxation_sorts_no_index_set(rng, monkeypatch):
    """Atom sets built from masks and from subsets of sorted sets are sorted
    already, and the piece labels come from a bincount: a relaxation that
    sorted them again would call `np.unique`, which hashes."""
    dom = Domain.grid(2, 64)
    g = fields.simple_from_labels(dom, E2, fields.voronoi_labels(dom.geometry, 8, rng), rng=rng)
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(np.size(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    # the set routines call the implementation module's binding
    monkeypatch.setattr(np.lib._arraysetops_impl, "unique", spy)
    field = smooth_from_simple(g, ORIGIN2, 1.0, 0.2, order=0)
    assert len(field.pieces) == 8
    assert calls == []
    np.union1d([1], [0])
    assert calls == [2]


# ---------------------------------------------------------------------------
# smooth relaxation
# ---------------------------------------------------------------------------


def test_smooth_order_zero_bit_identical_to_continuous():
    """Order 0 is the continuous construction: on every piece's region the
    field is the geodesic from the background driven by the raw transition."""
    spd2 = make_space("spd2")
    dom = Domain.grid(2, 32)
    centers = np.array([[0.3, 0.3], [0.7, 0.6]])
    labels = fields.disk_labels(dom.geometry, centers, np.array([0.15, 0.2]))
    table = np.array([[1.0, 0, 0, 1], [2.0, 0.5, 0.5, 1], [0.5, 0, 0, 3]])
    disks = SimpleMap(dom, spd2, labels, table)
    cases = [(band_fixture(), ORIGIN1), (disks, np.array([1.0, 0, 0, 1]))]
    for g, z0 in cases:
        field = smooth_from_simple(g, z0, 1.0, 0.2, order=0)
        assert field.pieces, g.space.tag
        for piece in field.pieces:
            region = piece.region.indices
            cont = g.space.geodesic_many(field.background, piece.value, piece.transition)
            assert np.array_equal(field.map.values[region], cont), g.space.tag


def test_smooth_order_two_meets_same_budget():
    g = band_fixture()
    field = smooth_from_simple(g, ORIGIN1, 1.0, 0.2, order=2)
    assert field.achieved_error < 0.2
    (piece,) = field.pieces
    assert np.all(field.map.values[piece.core.indices] == 1.0)
    assert np.all(field.map.values[piece.region.complement().indices] == 0.0)
    assert piece.sup_gap <= piece.sup_gap_budget


def test_smooth_modulus_uses_steeper_slope():
    g = band_fixture()
    c = smooth_from_simple(g, ORIGIN1, 1.0, 0.2, order=0)
    s = smooth_from_simple(g, ORIGIN1, 1.0, 0.2, order=2)
    rc = adjacent_difference_report(c)
    rs = adjacent_difference_report(s)
    assert rs["max_ratio"] <= 1.0 + 1e-9
    # the order-2 bound carries the 15/8 slope factor
    assert rs["max_bound"] == pytest.approx(rc["max_bound"] * 1.875, rel=1e-12)


def test_boundary_scan_shape_and_consistency():
    g = band_fixture(cells=4096, half_width=0.1)
    field = smooth_from_simple(g, ORIGIN1, 1.0, 0.2, order=2)
    scan = boundary_difference_scan(field)
    assert scan["cell_size"] == pytest.approx(1.0 / 4096.0)
    assert scan["max_boundary_first_difference"] <= scan["max_first_difference"]
    assert scan["max_boundary_second_difference"] <= scan["max_second_difference"]
    # flat regions dominate curvature away from boundaries at order 2:
    # in the interior the profile is the polynomial ramp, whose second
    # difference is largest near the ends but still bounded by slope terms
    assert scan["max_boundary_second_difference"] >= 0.0


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_relax_rejects_sup_exponent():
    g = band_fixture(cells=64)
    with pytest.raises(MetricLpError):
        smooth_from_simple(g, ORIGIN1, math.inf, 0.2, order=0)


def test_relax_requires_grid_geometry():
    dom = Domain(np.ones(4))
    g = SimpleMap(dom, E1, np.zeros(4, dtype=np.int64), np.array([[0.0]]))
    with pytest.raises(GeometryError):
        smooth_from_simple(g, ORIGIN1, 1.0, 0.2, order=0)


def test_relax_requires_geodesics():
    from metriclp.spaces import EuclideanSpace

    class NoPaths(EuclideanSpace):
        has_geodesic = False

    sp = NoPaths(1)
    dom = Domain.grid(1, 8)
    g = SimpleMap(dom, sp, np.zeros(8, dtype=np.int64), np.array([[0.0]]))
    with pytest.raises(CapabilityError):
        smooth_from_simple(g, np.array([0.0]), 1.0, 0.2, order=0)


def test_relax_rejects_base_flagged_atoms():
    dom = Domain.grid(1, 8)
    g = SimpleMap(
        dom, E1, np.array([0, 0, -1, 0, 0, 0, 0, 0]), np.array([[0.0]]), base_flag=-1
    )
    with pytest.raises(MetricLpError):
        smooth_from_simple(g, ORIGIN1, 1.0, 0.2, order=0)
