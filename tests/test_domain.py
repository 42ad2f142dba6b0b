"""Measure-space, atom-set, and grid-morphology tests.

The 8-cell line fixture below is small enough to trace by hand; every
expected number is derived in the comments.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from metriclp import (
    AtomSet,
    Domain,
    GeometryError,
    GridGeometry,
    MetricLpError,
    face_adjacent_pairs,
    inner_closed_approx,
    is_purely_infinite,
    measure,
    outer_open_approx,
    urysohn,
)


# ---------------------------------------------------------------------------
# domains and measures
# ---------------------------------------------------------------------------


def test_domain_rejects_nan_and_negative():
    with pytest.raises(MetricLpError):
        Domain(np.array([1.0, np.nan]))
    with pytest.raises(MetricLpError):
        Domain(np.array([1.0, -0.5]))


def test_domain_allows_infinite_weights():
    dom = Domain(np.array([0.0, math.inf, 2.0]))
    assert dom.atom_count == 3
    assert not is_purely_infinite(dom)
    assert is_purely_infinite(Domain(np.array([0.0, math.inf])))


def test_grid_weights_are_cell_measures():
    dom = Domain.grid(2, 4)
    assert dom.atom_count == 16
    assert np.allclose(dom.weights, 1.0 / 16.0)
    assert dom.coordinates()[0] == pytest.approx([1 / 8, 1 / 8])
    with pytest.raises(GeometryError):
        Domain(np.full(16, 0.5), dom.geometry)  # wrong cell weights


def test_grid_weights_are_stored_exactly():
    """Weights within the tolerance of cell_size**dim are stored as the
    exact cell measure, so a grid's geometry alone records its measure."""
    exact = Domain.grid(2, 3)
    nudged = np.nextafter(np.nextafter(exact.weights, 1.0), 1.0)
    nudged[::2] = np.nextafter(exact.weights[::2], 0.0)
    assert not np.array_equal(nudged, exact.weights)
    dom = Domain(nudged, exact.geometry)
    assert dom.weights.tobytes() == exact.weights.tobytes()
    assert dom.same_as(exact)


@pytest.mark.parametrize(
    "dim, cells", [(2, 0), (0, 4), (1, -2), (True, 4), (2, False), (2.0, 4), (2, 4.0), ("2", 4)]
)
def test_grid_geometry_refuses_non_positive_integers(dim, cells):
    with pytest.raises(GeometryError):
        GridGeometry(dim, cells)
    with pytest.raises(GeometryError):
        Domain.grid(dim, cells)


def test_grid_geometry_takes_numpy_integers():
    geo = GridGeometry(np.int64(2), np.int32(4))
    assert geo == GridGeometry(2, 4)
    assert type(geo.dim) is int and type(geo.cells_per_axis) is int


def test_measure_and_infinite_sets():
    dom = Domain(np.array([0.5, 1.5, math.inf, 0.0]))
    assert measure(dom, AtomSet([0, 1], 4)) == 2.0
    assert measure(dom, AtomSet([0, 2], 4)) == math.inf
    assert measure(dom, AtomSet.empty(4)) == 0.0


def test_atom_set_algebra():
    a = AtomSet([0, 1, 2], 6)
    b = AtomSet([2, 3], 6)
    assert a.union(b) == AtomSet([0, 1, 2, 3], 6)
    assert a.intersection(b) == AtomSet([2], 6)
    assert a.difference(b) == AtomSet([0, 1], 6)
    assert b.complement() == AtomSet([0, 1, 4, 5], 6)
    assert a.size == 3 and np.array_equal(a.mask(), [1, 1, 1, 0, 0, 0])
    with pytest.raises(MetricLpError):
        AtomSet([7], 6)


# ---------------------------------------------------------------------------
# erosion (inner closed approximation)
# ---------------------------------------------------------------------------
# Fixture: 1-D grid of 8 cells (cell measure 1/8), B = {2, 3, 4}.
# Chebyshev steps to the complement: cell 2 -> 1, cell 3 -> 2, cell 4 -> 1.
# Cumulative removed measure per radius: r=1 removes {2,4} = 0.25,
# r=2 removes all of B = 0.375.


@pytest.fixture
def line8():
    return Domain.grid(1, 8)


def test_erosion_takes_largest_affordable_radius(line8):
    b = AtomSet([2, 3, 4], 8)
    res = inner_closed_approx(line8, b, 0.3)
    # radius 1 removes 0.25 < 0.3; radius 2 would empty the core (capped)
    assert res.atoms == AtomSet([3], 8)
    assert res.radius == 1
    assert res.gap == pytest.approx(0.25)
    assert not res.over_budget


def test_erosion_flags_unaffordable_budget(line8):
    b = AtomSet([2, 3, 4], 8)
    res = inner_closed_approx(line8, b, 0.2)
    # even one ring costs 0.25 >= 0.2: input returned unchanged, flagged
    assert res.atoms == b and res.radius == 0 and res.over_budget


def test_erosion_never_empties_core(line8):
    b = AtomSet([2, 3, 4], 8)
    res = inner_closed_approx(line8, b, 10.0)
    # budget would allow radius 2 (measure 0.375 < 10) but that empties B
    assert res.atoms == AtomSet([3], 8) and res.radius == 1


def test_erosion_full_grid_is_fixed_point(line8):
    full = AtomSet.full(8)
    res = inner_closed_approx(line8, full, 0.01)
    assert res.atoms == full and res.radius == 0 and not res.over_budget


# ---------------------------------------------------------------------------
# dilation (outer open approximation)
# ---------------------------------------------------------------------------


def test_dilation_adds_one_ring(line8):
    res = outer_open_approx(line8, AtomSet([3], 8), 0.3)
    assert res.atoms == AtomSet([2, 3, 4], 8)
    assert res.radius == 1
    assert res.gap == pytest.approx(0.25)
    assert not res.over_budget


def test_dilation_flags_but_still_returns(line8):
    res = outer_open_approx(line8, AtomSet([3], 8), 0.2)
    assert res.atoms == AtomSet([2, 3, 4], 8)
    assert res.over_budget  # ring measure 0.25 >= 0.2


def test_dilation_clips_at_cube_boundary(line8):
    res = outer_open_approx(line8, AtomSet([0], 8), 1.0)
    assert res.atoms == AtomSet([0, 1], 8)


def test_dilation_2d_ring():
    dom = Domain.grid(2, 8)
    c = AtomSet([8 * 3 + 3], 64)  # cell (3, 3)
    res = outer_open_approx(dom, c, 1.0)
    # Chebyshev ring: the full 3x3 block around (3, 3)
    expect = [8 * r + c_ for r in (2, 3, 4) for c_ in (2, 3, 4)]
    assert res.atoms == AtomSet(expect, 64)


# ---------------------------------------------------------------------------
# urysohn transition field
# ---------------------------------------------------------------------------
# Fixture: 8 cells, core C = {3, 4}, envelope V = {1..6}.
# d_core/d_out are Euclidean center distances (cell = 1/8):
# cell 2: d_core = 1/8, d_out = 2/8 -> I = 2/3; cell 1: I = 1/3.
# gap = distance from C to outside V = 3 cells = 0.375.


def test_urysohn_frozen_profile(line8):
    field = urysohn(line8, AtomSet([3, 4], 8), AtomSet([1, 2, 3, 4, 5, 6], 8))
    expect = np.array([0.0, 1 / 3, 2 / 3, 1.0, 1.0, 2 / 3, 1 / 3, 0.0])
    np.testing.assert_allclose(field.values, expect, rtol=1e-12, atol=0)
    assert field.values[3] == 1.0 and field.values[0] == 0.0  # exact endpoints
    assert field.gap_width == pytest.approx(0.375)


def test_urysohn_adjacent_difference_bound(line8):
    c = AtomSet([3, 4], 8)
    v = AtomSet([1, 2, 3, 4, 5, 6], 8)
    field = urysohn(line8, c, v)
    left, right = face_adjacent_pairs(line8.geometry)
    diffs = np.abs(field.values[left] - field.values[right])
    bound = line8.geometry.cell_size / field.gap_width
    assert diffs.max() <= bound + 1e-12
    # the fixture is tight: the max difference equals the bound exactly
    assert diffs.max() == pytest.approx(bound, rel=1e-12)


def test_urysohn_2d_bound_and_range(rng):
    dom = Domain.grid(2, 16)
    coords = dom.coordinates()
    core = AtomSet.from_mask(np.linalg.norm(coords - 0.5, axis=1) < 0.15)
    env = AtomSet.from_mask(np.linalg.norm(coords - 0.5, axis=1) < 0.35)
    field = urysohn(dom, core, env)
    assert np.all((field.values >= 0.0) & (field.values <= 1.0))
    assert np.all(field.values[core.indices] == 1.0)
    assert np.all(field.values[env.complement().indices] == 0.0)
    left, right = face_adjacent_pairs(dom.geometry)
    diffs = np.abs(field.values[left] - field.values[right])
    assert diffs.max() <= dom.geometry.cell_size / field.gap_width + 1e-12


def test_urysohn_requires_containment(line8):
    with pytest.raises(MetricLpError):
        urysohn(line8, AtomSet([0, 3], 8), AtomSet([3, 4], 8))


def test_urysohn_degenerate_cases(line8):
    empty = urysohn(line8, AtomSet.empty(8), AtomSet([1, 2], 8))
    assert np.all(empty.values == 0.0) and math.isinf(empty.gap_width)
    everything = urysohn(line8, AtomSet([3], 8), AtomSet.full(8))
    assert np.all(everything.values == 1.0) and math.isinf(everything.gap_width)


def test_morphology_requires_geometry():
    dom = Domain(np.ones(4))
    with pytest.raises(GeometryError):
        inner_closed_approx(dom, AtomSet([1], 4), 0.5)


def test_face_adjacent_pairs_count():
    # d * n^(d-1) * (n-1) shared faces on an n^d grid
    geo = Domain.grid(2, 4).geometry
    left, right = face_adjacent_pairs(geo)
    assert left.size == 2 * 4 * 3
    assert np.all(left != right)
