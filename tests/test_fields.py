"""Fixture generators: Voronoi labels against their broadcast definition."""

from __future__ import annotations

import numpy as np
import pytest

from metriclp import fields
from metriclp.domain import GridGeometry


def broadcast_voronoi(geometry, n_regions, rng):
    """The (cells, seeds) squared-distance table and its argmin: the
    definition `voronoi_labels` keeps without building the table."""
    coords = geometry.coordinates()
    seeds = coords[rng.choice(len(coords), size=n_regions, replace=False)]
    dist2 = ((coords[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(dist2, axis=1).astype(np.int64), dist2


def compare_voronoi(dim, cells, regions):
    """Compare six seeded draws with the broadcast argmin bit for bit;
    returns how many cells were equidistant from two nearest seeds."""
    geometry = GridGeometry(dim, cells)
    tied = 0
    for seed in range(6):
        got = fields.voronoi_labels(geometry, regions, np.random.default_rng(seed))
        want, dist2 = broadcast_voronoi(geometry, regions, np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), seed
        tied += int(((dist2 == dist2.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    return tied


@pytest.mark.parametrize("dim, cells, regions", [
    (1, 9, 3), (1, 97, 20), (1, 256, 256), (2, 8, 16), (2, 37, 50), (2, 64, 7), (2, 256, 8),
    (3, 5, 30), (3, 12, 40), (3, 16, 1),
])
def test_voronoi_labels_match_the_broadcast_argmin(dim, cells, regions):
    """Labels equal the argmin of the full table bit for bit on 1-D, 2-D
    and 3-D grids."""
    compare_voronoi(dim, cells, regions)


@pytest.mark.parametrize("dim, cells, regions", [(2, 8, 16), (3, 5, 30)])
def test_voronoi_ties_go_to_the_lowest_seed(dim, cells, regions):
    """On these grids some cells are exactly equidistant from two seeds;
    the running minimum gives them the lowest seed, as argmin does."""
    assert compare_voronoi(dim, cells, regions) > 0
