"""Discrete measure spaces: weighted atom lists with optional grid geometry.

A domain is a finite list of atoms with nonnegative weights (+inf allowed,
never NaN); the sigma-algebra is the full power set and the null sets are
exactly the zero-weight atom sets.  A domain may carry uniform grid
geometry: atoms are the cells of a regular grid on [0, 1]^dim, listed
row-major, every weight equal to cell_size**dim.

Grid morphology implements inner closed / outer open surrogates used by
the relaxation constructions:

- `inner_closed_approx` erodes a cell set as deeply as the measure budget
  allows (largest radius whose removed measure stays under delta), giving
  the transition constructions the widest affordable margin.
- `outer_open_approx` dilates by the smallest radius that places the
  closed cell union of the input inside the open interior of the output
  (one ring), flagging the result when even that exceeds the budget.
- `urysohn` evaluates the distance-ratio field
  I(x) = d(x, M\\V) / (d(x, C) + d(x, M\\V)),
  exactly 1 on C and exactly 0 outside V, with adjacent-cell differences
  bounded by cell_size / gap_width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import GeometryError, MetricLpError

Array = np.ndarray


@dataclass(frozen=True)
class GridGeometry:
    dim: int
    cells_per_axis: int

    def __post_init__(self):
        for name in ("dim", "cells_per_axis"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise GeometryError(f"grid {name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))

    @property
    def cell_size(self) -> float:
        return 1.0 / self.cells_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dim

    def coordinates(self) -> Array:
        """Cell centers in [0, 1]^dim, row-major atom order."""
        axis = (np.arange(self.cells_per_axis) + 0.5) * self.cell_size
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)


class Domain:
    """Finite weighted atom list, optionally with grid geometry."""

    def __init__(self, weights: Array, geometry: GridGeometry | None = None):
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if np.any(np.isnan(w)):
            raise MetricLpError("weights must never be NaN")
        if w.size and w.min() < 0:
            raise MetricLpError("weights must be nonnegative")
        if geometry is not None:
            if w.size != geometry.cells_per_axis**geometry.dim:
                raise GeometryError("atom count does not match grid shape")
            cell_measure = geometry.cell_size**geometry.dim
            if not np.allclose(w, cell_measure, rtol=1e-12, atol=0):
                raise GeometryError("grid atoms must all weigh cell_size**dim")
            w = np.full(w.size, cell_measure)
        self.weights = w
        self.geometry = geometry

    @classmethod
    def grid(cls, dim: int, cells_per_axis: int) -> "Domain":
        """The uniform grid, with the weights `__init__` would store for it;
        they are built once and not checked again."""
        geo = GridGeometry(dim, cells_per_axis)
        domain = cls.__new__(cls)
        domain.weights = np.full(geo.cells_per_axis**geo.dim, geo.cell_size**geo.dim)
        domain.geometry = geo
        return domain

    @property
    def atom_count(self) -> int:
        return self.weights.size

    def coordinates(self) -> Array:
        if self.geometry is None:
            raise GeometryError("domain has no grid geometry")
        return self.geometry.coordinates()

    def same_as(self, other: "Domain") -> bool:
        return self is other or (
            self.atom_count == other.atom_count
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self):
        geo = "" if self.geometry is None else f", grid={self.geometry.shape}"
        return f"Domain(atoms={self.atom_count}{geo})"


# ---------------------------------------------------------------------------
# atom sets
# ---------------------------------------------------------------------------


class AtomSet:
    """Subset of a domain's atoms, stored as a sorted index array."""

    def __init__(self, indices, n_atoms: int):
        # a fresh copy, so the set never aliases the caller's array; indices
        # that are already strictly increasing skip the sort
        idx = np.array(indices, dtype=np.int64).reshape(-1)
        if not np.all(idx[1:] > idx[:-1]):
            idx = np.unique(idx)
        if idx.size and (idx[0] < 0 or idx[-1] >= n_atoms):
            raise MetricLpError("atom index out of range")
        self.indices = idx
        self.n_atoms = int(n_atoms)

    @classmethod
    def from_mask(cls, mask: Array) -> "AtomSet":
        """The True atoms of a mask in row-major atom order (any shape)."""
        mask = np.asarray(mask, dtype=bool)
        return cls(np.flatnonzero(mask), mask.size)

    @classmethod
    def full(cls, n_atoms: int) -> "AtomSet":
        return cls(np.arange(n_atoms), n_atoms)

    @classmethod
    def empty(cls, n_atoms: int) -> "AtomSet":
        return cls(np.empty(0, dtype=np.int64), n_atoms)

    def mask(self) -> Array:
        m = np.zeros(self.n_atoms, dtype=bool)
        m[self.indices] = True
        return m

    @property
    def size(self) -> int:
        return self.indices.size

    def _check(self, other: "AtomSet"):
        if self.n_atoms != other.n_atoms:
            raise MetricLpError("atom sets over different domains")

    # mask forms: both index arrays are sorted and unique, so a subset of
    # either, or the nonzeros of a mask, needs no sort
    def union(self, other: "AtomSet") -> "AtomSet":
        self._check(other)
        m = self.mask()
        m[other.indices] = True
        return AtomSet.from_mask(m)

    def intersection(self, other: "AtomSet") -> "AtomSet":
        self._check(other)
        return AtomSet(self.indices[other.mask()[self.indices]], self.n_atoms)

    def difference(self, other: "AtomSet") -> "AtomSet":
        self._check(other)
        return AtomSet(self.indices[~other.mask()[self.indices]], self.n_atoms)

    def complement(self) -> "AtomSet":
        return AtomSet.from_mask(~self.mask())

    def __eq__(self, other):
        return (
            isinstance(other, AtomSet)
            and self.n_atoms == other.n_atoms
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self):
        return f"AtomSet({self.size}/{self.n_atoms})"


def measure(domain: Domain, s: AtomSet) -> float:
    """Total weight of the set; +inf if any member atom weighs +inf."""
    if s.n_atoms != domain.atom_count:
        raise MetricLpError("atom set does not match domain")
    return float(domain.weights[s.indices].sum()) if s.size else 0.0


def is_purely_infinite(domain: Domain) -> bool:
    """True when every atom weighs 0 or +inf (no finite mass anywhere)."""
    w = domain.weights
    return bool(np.all((w == 0.0) | np.isinf(w)))


# ---------------------------------------------------------------------------
# grid morphology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorphologyResult:
    atoms: AtomSet
    radius: int
    gap: float           # measure(input symmetric-difference output)
    over_budget: bool    # budget could not be honoured; see op docstring


def _grid(domain: Domain, *sets: AtomSet) -> GridGeometry:
    if domain.geometry is None:
        raise GeometryError("morphology needs grid geometry")
    if any(s.n_atoms != domain.atom_count for s in sets):
        raise MetricLpError("atom set does not match domain")
    return domain.geometry


def _window(geometry: GridGeometry, s: AtomSet) -> tuple[slice, ...]:
    """The bounding box of the nonempty set `s`, padded by one cell and
    clipped to the grid.

    Each transform below reads its input set only through the cells of this
    box.  For a cell x of s, let y be a nearest cell (in the Euclidean or
    the Chebyshev norm) of a set that the padded ring lies in, such as the
    complement of s.  Clamping y onto the box coordinate-wise moves it no
    farther from x, and strictly closer if y lay outside the box; the
    clamped cell lies in that set, on the ring or at y itself.  So every
    nearest cell lies in the box, and beyond a clipped side lies only the
    edge of the grid, where the full-grid transforms see no cell either.
    scipy's line scans choose among tied nearest cells by their order along
    the line, which the box keeps, so the windowed transforms return the
    full-grid values bit for bit (tests/test_domain.py compares them).
    """
    coords = np.unravel_index(s.indices, geometry.shape)
    n = geometry.cells_per_axis
    return tuple(slice(max(int(c.min()) - 1, 0), min(int(c.max()) + 2, n)) for c in coords)


def _window_mask(geometry: GridGeometry, s: AtomSet, window: tuple[slice, ...]) -> Array:
    return s.mask().reshape(geometry.shape)[window]


def _steps_to_complement(mask: Array) -> Array:
    """Chebyshev grid-step distance from each True cell to the nearest False
    cell; cells outside the array do not count as complement."""
    padded = np.pad(mask, 1, constant_values=True)
    dist = ndimage.distance_transform_cdt(padded, metric="chessboard")
    return np.asarray(dist)[tuple(slice(1, -1) for _ in mask.shape)].astype(np.int64)


def inner_closed_approx(domain: Domain, b: AtomSet, delta: float) -> MorphologyResult:
    """Erode `b` as deeply as the measure budget `delta` allows.

    Removes all cells within r Chebyshev steps of the complement, choosing
    the largest radius r with measure(b \\ C) < delta; the deepest cell
    layer is never removed, so a nonempty input keeps a nonempty core.  A
    cell union is already closed in [0, 1]^dim, so when even one ring of
    erosion would blow the budget the input is returned unchanged, with
    `over_budget` recording that no genuine margin was affordable.  The
    transform runs on b's window (`_window`).
    """
    if not delta > 0:
        raise MetricLpError("delta must be positive")
    geo = _grid(domain, b)
    if b.size == 0 or b.size == domain.atom_count:
        return MorphologyResult(b, 0, 0.0, False)
    mask = _window_mask(geo, b, _window(geo, b))
    inner = _steps_to_complement(mask)[mask]  # b's cells in index order, every entry >= 1
    max_step = int(inner.max())
    cell_w = geo.cell_size**geo.dim
    counts = np.bincount(inner, minlength=max_step + 1)
    gaps = np.cumsum(counts) * cell_w  # gaps[r] = measure removed by radius r
    r_budget = int(np.nonzero(gaps < delta)[0].max())
    radius = min(r_budget, max_step - 1)
    if radius == 0:
        over = len(gaps) > 1 and gaps[1] >= delta
        return MorphologyResult(b, 0, 0.0, bool(over))
    keep = AtomSet(b.indices[inner > radius], b.n_atoms)
    gap = measure(domain, b) - measure(domain, keep)
    return MorphologyResult(keep, radius, gap, False)


def outer_open_approx(domain: Domain, c: AtomSet, delta: float) -> MorphologyResult:
    """Dilate `c` by the smallest radius whose open interior contains it.

    One ring of Chebyshev dilation places the closed cell union of `c`
    inside the interior of the output (at the boundary of [0, 1]^dim the
    grid cannot grow and the containment is waived).  If that ring costs
    measure >= delta the smallest dilation is still returned, flagged
    `over_budget`.  The dilation runs on c's window (`_window`), which
    holds the whole ring.
    """
    if not delta > 0:
        raise MetricLpError("delta must be positive")
    geo = _grid(domain, c)
    if c.size == 0 or c.size == domain.atom_count:
        return MorphologyResult(c, 0, 0.0, False)
    window = _window(geo, c)
    grown = np.zeros(geo.shape, dtype=bool)
    grown[window] = ndimage.binary_dilation(
        _window_mask(geo, c, window), structure=np.ones((3,) * geo.dim, dtype=bool)
    )
    out = AtomSet.from_mask(grown.reshape(-1))
    gap = measure(domain, out) - measure(domain, c)
    return MorphologyResult(out, 1, gap, bool(gap >= delta))


@dataclass(frozen=True)
class TransitionField:
    values: Array        # one real in [0, 1] per atom
    gap_width: float     # Euclidean distance between C and the complement of V


def urysohn(domain: Domain, c: AtomSet, v: AtomSet) -> TransitionField:
    """Distance-ratio transition field between a core and its envelope.

    I(x) = d(x, M\\V) / (d(x, C) + d(x, M\\V)) with Euclidean distances
    between cell centers; exactly 1 on C, exactly 0 outside V.  Adjacent
    cells differ by at most cell_size / gap_width.  Both distance
    transforms run on v's window (`_window`): C lies inside V, and the
    complement of V holds the padded ring.  A core that fills V needs no
    transform: the field is then 1 on V, and the gap is one cell.
    """
    geo = _grid(domain, c, v)
    n = domain.atom_count
    if c.size and c.difference(v).size:
        raise MetricLpError("core must be contained in the envelope")
    if c.size == 0:
        return TransitionField(np.zeros(n), math.inf)
    if v.size == n:
        return TransitionField(np.ones(n), math.inf)
    if c.size == v.size:
        # C = V, so the field is 1 on V.  Some cell of V shares a face with
        # M\V (the grid is face-connected and neither set is empty), and no
        # two cell centers lie closer, so the gap is one step.  scipy's EDT
        # forms it as the root of (1.0 * cell)**2 plus exact zeros; every
        # other offset sums to more, so this is its minimum bit for bit.
        vals = np.zeros(n)
        vals[v.indices] = 1.0
        return TransitionField(vals, float(np.sqrt(geo.cell_size * geo.cell_size)))
    window = _window(geo, v)
    c_mask = _window_mask(geo, c, window)
    v_mask = _window_mask(geo, v, window)
    d_core = ndimage.distance_transform_edt(~c_mask, sampling=geo.cell_size)
    d_out = ndimage.distance_transform_edt(v_mask, sampling=geo.cell_size)
    gap = float(d_out[c_mask].min())
    d_core, d_out = d_core[v_mask], d_out[v_mask]  # v's cells in index order
    vals = np.zeros(n)
    vals[v.indices] = d_out / (d_core + d_out)
    vals[c.indices] = 1.0
    return TransitionField(vals, gap)


def face_adjacent_pairs(geometry: GridGeometry) -> tuple[Array, Array]:
    """Index pairs of grid cells sharing a face, for modulus scans."""
    n_axis = geometry.cells_per_axis
    idx = np.arange(n_axis**geometry.dim).reshape(geometry.shape)
    left, right = [], []
    for axis in range(geometry.dim):
        a = np.moveaxis(idx, axis, 0)
        left.append(a[:-1].reshape(-1))
        right.append(a[1:].reshape(-1))
    return np.concatenate(left), np.concatenate(right)
