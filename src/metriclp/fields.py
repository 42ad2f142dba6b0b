"""Seeded fixture generators: smooth fields, label fields, random mappings.

Everything here is deterministic given (domain, space, seed): randomness
comes only from numpy Generators seeded by the caller, and grid-dependent
structure (Voronoi labels, disks, bands) is a pure function of the cell
coordinates.
"""

from __future__ import annotations

import numpy as np

from .domain import Domain, GridGeometry
from .errors import GeometryError, MetricLpError
from .maps import MeasurableMap, SimpleMap
from .spaces import MetricSpace

Array = np.ndarray


def smooth_scalar(domain: Domain, rng: np.random.Generator) -> Array:
    """A smooth [0.05, 0.95]-valued scalar per cell: a random low-frequency
    separable wave over the unit cube."""
    x = domain.coordinates()
    freq = rng.integers(1, 3, size=x.shape[1])
    phase = rng.uniform(0.0, 2.0 * np.pi, size=x.shape[1])
    wave = np.ones(x.shape[0])
    for axis in range(x.shape[1]):
        wave = wave * np.sin(2.0 * np.pi * freq[axis] * x[:, axis] + phase[axis])
    return 0.5 + 0.45 * wave


def smooth_field(
    domain: Domain, space: MetricSpace, rng: np.random.Generator, spread: float = 1.0
) -> MeasurableMap:
    """Smooth mapping: a geodesic between two random anchors, traversed at
    a smooth scalar speed field."""
    t = smooth_scalar(domain, rng)
    anchors = space.random_payloads(rng, 2, spread)
    values = space.geodesic_many(anchors[0:1], anchors[1:2], t)
    return MeasurableMap(domain, space, values)


def random_map(
    domain: Domain, space: MetricSpace, rng: np.random.Generator, spread: float = 1.0
) -> MeasurableMap:
    """Mapping with independent random values per atom."""
    return MeasurableMap(
        domain, space, space.random_payloads(rng, domain.atom_count, spread)
    )


def voronoi_labels(geometry: GridGeometry, n_regions: int, rng: np.random.Generator) -> Array:
    """Labels 0..n_regions-1 by nearest random seed cell (Euclidean)."""
    n = geometry.cells_per_axis**geometry.dim
    if not 1 <= n_regions <= n:
        raise MetricLpError(f"n_regions must be between 1 and the {n} grid cells, got {n_regions}")
    coords = geometry.coordinates()
    seeds = coords[rng.choice(n, size=n_regions, replace=False)]
    # A running minimum over the seeds, with no (cells, seeds, dim) table.  The
    # squares are added axis by axis, left to right, as the sum over a short
    # last axis adds them, and the strict < keeps the lowest tied seed, as
    # argmin does.
    axes = [np.ascontiguousarray(coords[:, k]) for k in range(geometry.dim)]
    best = np.full(n, np.inf)
    labels = np.zeros(n, dtype=np.int64)
    for j, seed in enumerate(seeds.tolist()):
        dist2 = (axes[0] - seed[0]) ** 2
        for x, s in zip(axes[1:], seed[1:]):
            dist2 += (x - s) ** 2
        closer = dist2 < best
        np.copyto(best, dist2, where=closer)
        labels[closer] = j
    return labels


def disk_labels(geometry: GridGeometry, centers: Array, radii: Array) -> Array:
    """Label i+1 inside disk i (first disk wins), 0 in the background."""
    coords = geometry.coordinates()
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    radii = np.atleast_1d(np.asarray(radii, dtype=np.float64))
    labels = np.zeros(coords.shape[0], dtype=np.int64)
    for i in range(centers.shape[0] - 1, -1, -1):
        inside = ((coords - centers[i]) ** 2).sum(axis=1) <= radii[i] ** 2
        labels[inside] = i + 1
    return labels


def band_labels(geometry: GridGeometry, center: float, half_width: float) -> Array:
    """1-D label field: 1 on the band |x - center| <= half_width, else 0."""
    if geometry.dim != 1:
        raise GeometryError("band labels need a 1-D grid")
    x = geometry.coordinates()[:, 0]
    return (np.abs(x - center) <= half_width).astype(np.int64)


def simple_from_labels(
    domain: Domain,
    space: MetricSpace,
    labels: Array,
    value_table: Array | None = None,
    rng: np.random.Generator | None = None,
    spread: float = 1.0,
) -> SimpleMap:
    """Wrap a label field into a SimpleMap, drawing values if not given."""
    labels = np.asarray(labels, dtype=np.int64)
    n_labels = int(labels.max(initial=-1)) + 1
    if value_table is None:
        if rng is None:
            raise MetricLpError("need either a value table or an rng")
        value_table = space.random_payloads(rng, n_labels, spread)
    return SimpleMap(domain, space, labels, np.asarray(value_table, dtype=np.float64))
