"""Measure-space, atom-set, and grid-morphology tests.

The 8-cell line fixture below is small enough to trace by hand; every
expected number is derived in the comments.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import ndimage

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


@pytest.mark.parametrize("dim, cells", [(1, 1), (1, 7), (2, 3), (2, 256), (3, 10), (4, 6)])
def test_grid_weights_have_the_bits_of_the_checked_constructor(dim, cells):
    """`Domain.grid` builds its weights once, without the constructor's
    checks, and stores what the constructor would store for them."""
    geo = GridGeometry(dim, cells)
    want = Domain(np.full(cells**dim, (1 / cells) ** dim), geo)
    got = Domain.grid(dim, cells)
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.geometry == geo and got.atom_count == cells**dim


def test_grid_weights_keep_a_cell_measure_that_underflows(monkeypatch):
    """A cell measure that underflows to 0 is stored as 0, as the checked
    constructor stores it."""
    monkeypatch.setattr(GridGeometry, "cell_size", property(lambda self: 1e-200))
    geo = GridGeometry(2, 3)
    assert geo.cell_size**2 == 0.0
    want = Domain(np.full(9, geo.cell_size**2), geo)
    assert Domain.grid(2, 3).weights.tobytes() == want.weights.tobytes()


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


def test_morphology_refuses_sets_of_another_domain():
    dom = Domain.grid(1, 8)
    for s in (AtomSet.full(8), AtomSet([], 8)):
        other = AtomSet(s.indices, 9)
        with pytest.raises(MetricLpError, match="does not match domain"):
            inner_closed_approx(dom, other, 0.5)
        with pytest.raises(MetricLpError, match="does not match domain"):
            outer_open_approx(dom, other, 0.5)
    with pytest.raises(MetricLpError, match="does not match domain"):
        urysohn(dom, AtomSet([0], 9), AtomSet.full(9))


def test_face_adjacent_pairs_count():
    # d * n^(d-1) * (n-1) shared faces on an n^d grid
    geo = Domain.grid(2, 4).geometry
    left, right = face_adjacent_pairs(geo)
    assert left.size == 2 * 4 * 3
    assert np.all(left != right)


# ---------------------------------------------------------------------------
# atom-set contract
# ---------------------------------------------------------------------------


def test_atom_set_sorts_and_dedupes_any_input():
    assert np.array_equal(AtomSet([5, 1, 3, 1, 5], 8).indices, [1, 3, 5])
    assert np.array_equal(AtomSet(np.array([[4, 0], [4, 2]]), 8).indices, [0, 2, 4])
    assert np.array_equal(AtomSet([[0, 1], [2, 3]], 8).indices, [0, 1, 2, 3])
    assert np.array_equal(AtomSet([2, 2], 8).indices, [2])
    assert np.array_equal(AtomSet(3, 8).indices, [3])
    assert AtomSet([], 8).indices.dtype == np.int64
    for bad in ([8], [-1, 2], [0, 1, 8], [[0], [9]]):
        with pytest.raises(MetricLpError, match="out of range"):
            AtomSet(bad, 8)


def test_atom_set_from_a_grid_shaped_mask_is_row_major():
    mask = np.eye(3, dtype=bool)
    assert AtomSet.from_mask(mask) == AtomSet([0, 4, 8], 9)
    assert AtomSet.from_mask(mask.reshape(-1)) == AtomSet([0, 4, 8], 9)


def test_atom_set_never_aliases_its_input():
    for idx in (np.array([0, 2, 5]), np.array([5, 0, 2]), np.array([0, 2, 5], dtype=np.int32)):
        s = AtomSet(idx, 8)
        before = s.indices.copy()
        idx[0] = 7
        assert np.array_equal(s.indices, before)
        assert not np.shares_memory(s.indices, idx)


def test_atom_set_algebra_matches_numpy_set_routines(rng):
    n = 300
    for _ in range(20):
        a_idx, b_idx = (rng.choice(n, rng.integers(0, n), replace=False) for _ in range(2))
        a, b = AtomSet(a_idx, n), AtomSet(b_idx, n)
        assert np.array_equal(a.union(b).indices, np.union1d(a_idx, b_idx))
        assert np.array_equal(a.intersection(b).indices, np.intersect1d(a_idx, b_idx))
        assert np.array_equal(a.difference(b).indices, np.setdiff1d(a_idx, b_idx))
        with pytest.raises(MetricLpError):
            a.union(AtomSet(b_idx, n + 1))


# ---------------------------------------------------------------------------
# windowed morphology against the full-grid transforms
# ---------------------------------------------------------------------------
# The oracle below is the morphology as it ran before the transforms were
# windowed: every scipy transform on the whole grid.  The windowed library
# must match it bit for bit.


def _full_steps(mask):
    padded = np.pad(mask, 1, constant_values=True)
    dist = ndimage.distance_transform_cdt(padded, metric="chessboard")
    return np.asarray(dist)[tuple(slice(1, -1) for _ in mask.shape)].astype(np.int64)


def full_grid_inner(domain, b, delta):
    mask = b.mask().reshape(domain.geometry.shape)
    if b.size == 0 or mask.all():
        return b, 0, 0.0, False
    steps = _full_steps(mask)
    inner = steps[mask]
    max_step = int(inner.max())
    cell_w = domain.geometry.cell_size**domain.geometry.dim
    gaps = np.cumsum(np.bincount(inner, minlength=max_step + 1)) * cell_w
    radius = min(int(np.nonzero(gaps < delta)[0].max()), max_step - 1)
    if radius == 0:
        return b, 0, 0.0, bool(len(gaps) > 1 and gaps[1] >= delta)
    keep = AtomSet.from_mask((steps > radius).reshape(-1) & b.mask())
    return keep, radius, measure(domain, b) - measure(domain, keep), False


def full_grid_outer(domain, c, delta):
    mask = c.mask().reshape(domain.geometry.shape)
    if c.size == 0 or mask.all():
        return c, 0, 0.0, False
    grown = ndimage.binary_dilation(mask, structure=np.ones((3,) * domain.geometry.dim, dtype=bool))
    out = AtomSet.from_mask(grown.reshape(-1))
    gap = measure(domain, out) - measure(domain, c)
    return out, 1, gap, bool(gap >= delta)


def full_grid_urysohn(domain, c, v):
    n = domain.atom_count
    if c.size == 0:
        return np.zeros(n), math.inf
    cell, shape = domain.geometry.cell_size, domain.geometry.shape
    c_mask, v_mask = c.mask().reshape(shape), v.mask().reshape(shape)
    d_core = ndimage.distance_transform_edt(~c_mask, sampling=cell).reshape(-1)
    if v_mask.all():
        return np.ones(n), math.inf
    d_out = ndimage.distance_transform_edt(v_mask, sampling=cell).reshape(-1)
    vals = d_out / (d_core + d_out)
    vals[c.mask()] = 1.0
    vals[~v.mask()] = 0.0
    return vals, float(d_out[c.indices].min())


def window_mask(kind, dim, n, rng):
    """A cell set on the n**dim grid, as a flat boolean mask."""
    shape = (n,) * dim
    centers = (np.indices(shape).reshape(dim, -1).T + 0.5) / n
    if kind == "random":
        return rng.random(n**dim) < 0.3
    if kind == "scattered":
        mask = np.zeros(n**dim, dtype=bool)
        mask[rng.choice(n**dim, 6, replace=False)] = True
        return mask
    if kind == "nonconvex":  # two far blobs joined by a bent band
        a, b = rng.uniform(0.1, 0.3, dim), rng.uniform(0.7, 0.9, dim)
        blob = lambda c, r: np.linalg.norm(centers - c, axis=1) < r  # noqa: E731
        bend = (np.abs(centers[:, 0] - a[0]) < 0.04) | (np.abs(centers[:, -1] - b[-1]) < 0.04)
        return blob(a, 0.12) | blob(b, 0.09) | bend & (centers <= b + 0.05).all(axis=1)
    if kind == "holed":
        r = np.linalg.norm(centers - rng.uniform(0.35, 0.65, dim), axis=1)
        return (r < 0.3) & (r > 0.12)
    if kind == "edges":  # a slab on the low face of axis 0 plus the high corner
        mask = centers[:, 0] < 0.2
        mask[-1] = True
        return mask
    if kind == "corners":
        mask = np.zeros(n**dim, dtype=bool)
        mask[[0, n**dim - 1]] = True
        return mask
    if kind == "single":
        mask = np.zeros(n**dim, dtype=bool)
        mask[rng.integers(n**dim)] = True
        return mask
    if kind == "all_but_one":
        mask = np.ones(n**dim, dtype=bool)
        mask[rng.integers(n**dim)] = False
        return mask
    raise ValueError(kind)


WINDOW_KINDS = ["random", "scattered", "nonconvex", "holed", "edges", "corners", "single",
                "all_but_one"]
WINDOW_GRIDS = [(1, 97), (1, 100), (1, 256), (2, 97), (2, 100), (2, 256), (3, 12), (3, 25)]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim, n", WINDOW_GRIDS, ids=[f"{d}d{n}" for d, n in WINDOW_GRIDS])
@pytest.mark.parametrize("kind", WINDOW_KINDS)
def test_windowed_morphology_matches_full_grid(kind, dim, n):
    rng = np.random.default_rng([dim, n, WINDOW_KINDS.index(kind)])
    dom = Domain.grid(dim, n)
    b = AtomSet.from_mask(window_mask(kind, dim, n, rng))
    assert b.size
    cell_w = dom.geometry.cell_size**dim
    deltas = [cell_w * f for f in (0.5, 1.5, 12.5)] + [measure(dom, b) * f for f in (0.1, 0.5, 2)]
    cores = []
    for delta in deltas:
        got = inner_closed_approx(dom, b, delta)
        want = full_grid_inner(dom, b, delta)
        assert_same_bits(got.atoms.indices, want[0].indices)
        assert (got.radius, got.gap, got.over_budget) == want[1:]
        assert type(got.gap) is type(want[2])
        cores.append(got.atoms)
        got = outer_open_approx(dom, b, delta)
        want = full_grid_outer(dom, b, delta)
        assert_same_bits(got.atoms.indices, want[0].indices)
        assert (got.radius, got.gap, got.over_budget) == want[1:]
    # transitions from a core to its input and from the input to its envelope,
    # the way relax pairs them, and from scattered cells of the input; a core
    # that equals its envelope takes no transform, against the oracle's two
    envelope = outer_open_approx(dom, b, 1.0).atoms
    sample = b.indices[rng.random(b.size) < 0.2]
    pairs = [(core, b) for core in cores] + [(b, envelope), (AtomSet(sample, b.n_atoms), b),
                                             (AtomSet(b.indices[:1], b.n_atoms), envelope)]
    pairs += [(s, s) for s in (b, envelope, cores[-1], AtomSet(b.indices[:1], b.n_atoms))]
    for c, v in pairs:
        got = urysohn(dom, c, v)
        vals, gap = full_grid_urysohn(dom, c, v)
        assert_same_bits(got.values, vals)
        assert got.gap_width == gap


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_core_filling_its_envelope_has_the_transform_gap(dim):
    """When the core is the whole envelope, `urysohn` takes no transform:
    its one-cell gap has the bits scipy's distance transform gives, on
    every grid of 2 to 300 cells (1-D), 2 to 100 and 256 cells (2-D) and
    2 to 24 cells (3-D) per axis, and the field is 1 on the envelope and
    0 off it."""
    rng = np.random.default_rng(dim)
    sizes = {1: range(2, 301), 2: [*range(2, 101), 256], 3: range(2, 25)}[dim]
    for n in sizes:
        dom = Domain.grid(dim, n)
        mask = np.zeros(n**dim, dtype=bool)
        mask[rng.choice(n**dim, max(1, n**dim // 5), replace=False)] = True
        v = AtomSet.from_mask(mask)
        got = urysohn(dom, v, v)
        vals, gap = full_grid_urysohn(dom, v, v)
        assert got.gap_width.hex() == gap.hex(), n
        assert_same_bits(got.values, vals)
