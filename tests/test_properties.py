"""Randomized invariant tests (hypothesis)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metriclp import (
    Domain,
    MeasurableMap,
    dp_distance,
    dp_from_pointwise,
    equivalent,
    fields,
    make_space,
    restrict,
)
from metriclp.domain import AtomSet, face_adjacent_pairs, measure, urysohn
from metriclp.quantize import countable_quantize
from metriclp.relax import error_bound, smooth_from_simple, smoothstep

from .conftest import SPACE_NAMES

SEEDS = st.integers(0, 2**32 - 1)
SPACE = st.sampled_from(SPACE_NAMES)
P_ALL = st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf])
REL = 1e-12


def random_maps(name, seed, n_atoms, count):
    sp = make_space(name)
    rng = np.random.default_rng(seed)
    dom = Domain(rng.uniform(0.05, 2.0, n_atoms))
    return dom, sp, [
        MeasurableMap(dom, sp, sp.random_payloads(rng, n_atoms))
        for _ in range(count)
    ]


@given(name=SPACE, seed=SEEDS)
def test_ground_metric_axioms(name, seed):
    sp = make_space(name)
    rng = np.random.default_rng(seed)
    pts = sp.random_payloads(rng, 3)
    x, y, z = pts[0:1], pts[1:2], pts[2:3]
    dxy = sp.distance_many(x, y)[0]
    assert dxy >= 0.0
    assert sp.distance_many(y, x)[0] == dxy  # bitwise symmetry
    assert sp.distance_many(x, x)[0] == 0.0
    dxz = sp.distance_many(x, z)[0]
    dyz = sp.distance_many(y, z)[0]
    assert dxz <= (dxy + dyz) * (1 + REL)


@given(name=SPACE, seed=SEEDS, p=P_ALL, n=st.integers(1, 6))
def test_dp_metric_axioms(name, seed, p, n):
    dom, sp, (f, g, h) = random_maps(name, seed, n, 3)
    dfg = dp_distance(f, g, p)
    assert dfg >= 0.0
    assert dp_distance(g, f, p) == dfg  # bitwise symmetry
    assert dp_distance(f, f, p) == 0.0
    assert dp_distance(f, h, p) <= (dfg + dp_distance(g, h, p)) * (1 + REL)
    # zero iff payload-equal on live atoms
    assert (dfg == 0.0) == equivalent(f, g)
    twin = MeasurableMap(dom, sp, f.values.copy())
    assert dp_distance(f, twin, p) == 0.0 and equivalent(f, twin)


# One atom: its kind, log10 of its pointwise distance, and its weight.  A
# "live" atom has positive weight and distance, an "equal" one positive
# weight and distance 0, a "null" one weight 0 and a positive distance,
# an "infinite" one infinite weight and distance 0.
DP_ATOM = st.tuples(
    st.sampled_from(["live", "live", "live", "equal", "null", "infinite"]),
    st.floats(-6.0, 3.0),
    st.floats(0.01, 100.0),
)


def log_sum_exp_dp(w, d, p):
    """D_p through logs: exp((1/p) log sum exp(log w + p log d)) over the
    atoms of positive weight and distance, free of over- and underflow."""
    live = (w > 0) & (d > 0)
    if not live.any():
        return 0.0
    logs = np.log(w[live]) + p * np.log(d[live])
    top = float(logs.max())
    return math.exp((top + math.log(math.fsum(np.exp(logs - top)))) / p)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no over- or underflow noise
@given(p=st.floats(1.0, 1e3), atoms=st.lists(DP_ATOM, min_size=1, max_size=6))
def test_dp_matches_log_sum_exp_over_wide_spreads(p, atoms):
    kinds, log_d, weights = zip(*atoms)
    sp = make_space("euclidean1")
    offsets = [10.0**x if k in ("live", "null") else 0.0 for k, x in zip(kinds, log_d)]
    w = [{"null": 0.0, "infinite": math.inf}.get(k, x) for k, x in zip(kinds, weights)]
    dom = Domain(np.array(w))
    f = MeasurableMap(dom, sp, np.zeros((len(atoms), 1)))
    g = MeasurableMap(dom, sp, np.array(offsets)[:, None])
    got = dp_distance(f, g, p)
    want = log_sum_exp_dp(dom.weights, sp.distance_many(f.values, g.values), p)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert (got == 0.0) == equivalent(f, g)


@given(p=P_ALL, rows=st.lists(st.lists(DP_ATOM, min_size=5, max_size=5), max_size=6))
def test_dp_row_stack_matches_each_row(p, rows):
    """A stack of pointwise vectors over one weight vector reduces to the
    bits of each row's own reduction, across wide spreads."""
    w = np.array([{"null": 0.0, "infinite": math.inf}.get(k, x) for k, _, x in rows[0]]
                 if rows else np.ones(5))
    d = np.array([[10.0**x if k in ("live", "null") else 0.0 for k, x, _ in row]
                  for row in rows]).reshape(len(rows), 5)
    got = dp_from_pointwise(d, w, p)
    want = np.array([dp_from_pointwise(row, w, p) for row in d], dtype=np.float64)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


HISTOGRAM_PAIR = st.sampled_from([1, 2, 8]).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        *(st.lists(st.floats(0.0, 1e3), min_size=dim, max_size=dim)
          .filter(lambda xs: sum(xs) > 0) for _ in range(2)),
    )
)


@given(pair=HISTOGRAM_PAIR)
def test_histogram_kernel_is_the_cumsum_formula(pair):
    """The column-wise running CDF gap gives the one-pass formula's bits,
    exact symmetry and exact identity on arbitrary payloads."""
    dim, x, y = pair
    sp = make_space(f"histogram{dim}")
    a = np.array([x]) / sum(x)
    b = np.array([y]) / sum(y)
    want = (np.abs(np.cumsum(a - b, axis=-1))[:, :-1] * np.diff(sp.grid)).sum(axis=-1)
    got = sp.distance_many(a, b)
    assert np.array_equal(got, want)
    assert np.array_equal(sp.distance_many(b, a), got)
    assert sp.distance_many(a, a)[0] == 0.0 == sp.distance_many(b, b)[0]


@given(name=SPACE, seed=SEEDS, p=P_ALL, n=st.integers(2, 8))
def test_restrict_is_a_contraction(name, seed, p, n):
    dom, sp, (f, g) = random_maps(name, seed, n, 2)
    rng = np.random.default_rng(seed + 1)
    sub = AtomSet.from_mask(rng.random(n) < 0.5)
    assert dp_distance(restrict(f, sub), restrict(g, sub), p) <= dp_distance(
        f, g, p
    ) * (1 + REL)


@given(
    name=SPACE,
    seed=SEEDS,
    pq=st.sampled_from([(1.0, 2.0), (2.0, 4.0), (1.5, 3.0), (1.0, 4.0)]),
    n=st.integers(1, 8),
)
def test_hoelder_inclusion_bound(name, seed, pq, n):
    p, q = pq
    dom, sp, (f, g) = random_maps(name, seed, n, 2)
    mu = measure(dom, AtomSet.full(dom.atom_count))
    lhs = dp_distance(f, g, p)
    rhs = dp_distance(f, g, q) * mu ** (1.0 / p - 1.0 / q)
    assert lhs <= rhs * (1 + REL) + 1e-300


@given(name=SPACE, seed=SEEDS, p=st.sampled_from([1.0, 2.0, 4.0]), n=st.integers(1, 6))
def test_base_invariance_bound(name, seed, p, n):
    dom, sp, (f, g, h) = random_maps(name, seed, n, 3)
    mu = measure(dom, AtomSet.full(dom.atom_count))
    lhs = dp_distance(f, h, p) ** p
    rhs = 2.0 ** (p - 1) * (
        dp_distance(f, g, p) ** p + dp_distance(g, h, math.inf) ** p * mu
    )
    assert lhs <= rhs * (1 + REL) + 1e-300


@given(name=SPACE, seed=SEEDS, eps=st.floats(0.05, 1.0), n=st.integers(1, 24))
def test_countable_quantize_stays_below_eps(name, seed, eps, n):
    dom, sp, (f,) = random_maps(name, seed, n, 1)
    g, report = countable_quantize(f, eps)
    assert report.achieved_error < eps
    assert dp_distance(g.to_map(), f, math.inf) < eps
    assert g.range_size <= n


@given(
    seed=SEEDS,
    p=st.sampled_from([1.0, 2.0, 3.0]),
    order=st.sampled_from([0, 2]),
    eps=st.floats(1e-3, 2.0),
    regions=st.integers(1, 6),
)
def test_relaxation_error_is_within_its_error_mass(seed, p, order, eps, regions):
    """On the zone region \\ core a piece's cells move along a geodesic of
    length lip, so D_p(input, field) <= M**(1/p), M = sum lip**p * zone
    measure, whether or not a budget flag is raised; and the guarantee
    holds exactly when M**(1/p) is within the bound."""
    rng = np.random.default_rng(seed)
    dom = Domain.grid(2, 12)
    sp = make_space("euclidean2")
    labels = fields.voronoi_labels(dom.geometry, regions, rng)
    g = fields.simple_from_labels(dom, sp, labels, rng=rng)
    field = smooth_from_simple(g, g.value_table[0], p, eps, order=order)
    mass = field.error_mass
    assert field.achieved_error <= mass ** (1.0 / p) * (1 + REL)
    assert field.error_norm == pytest.approx(mass ** (1.0 / p), rel=REL)
    assert field.flags["guarantee_holds"] == (field.error_norm <= error_bound(field))


@given(seed=SEEDS, cells=st.integers(6, 24))
def test_urysohn_properties_1d(seed, cells):
    rng = np.random.default_rng(seed)
    dom = Domain.grid(1, cells)
    lo = int(rng.integers(0, cells - 3))
    hi = int(rng.integers(lo + 3, cells + 1))
    region = AtomSet(np.arange(lo, hi), cells)
    mid = (lo + hi) // 2
    core = AtomSet(np.array([mid]), cells)
    trans = urysohn(dom, core, region)
    vals = trans.values
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert vals[mid] == 1.0
    outside = np.setdiff1d(np.arange(cells), region.indices)
    assert np.all(vals[outside] == 0.0)
    left, right = face_adjacent_pairs(dom.geometry)
    bound = dom.geometry.cell_size / trans.gap_width
    assert np.max(np.abs(vals[left] - vals[right])) <= bound * (1 + REL)


@given(order=st.integers(0, 2), seed=SEEDS)
def test_smoothstep_monotone_endpoints(order, seed):
    rng = np.random.default_rng(seed)
    t = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 40)]))
    s = smoothstep(t, order)
    assert s[0] == 0.0 and s[-1] == 1.0
    assert np.all(np.diff(s) >= 0.0)
    assert np.all((0.0 <= s) & (s <= 1.0))


@given(name=SPACE, seed=SEEDS, t=st.floats(0.0, 1.0))
def test_geodesic_points_stay_in_space(name, seed, t):
    sp = make_space(name)
    rng = np.random.default_rng(seed)
    pts = sp.random_payloads(rng, 2)
    mid = sp.geodesic_many(pts[0:1], pts[1:2], np.array([t]))
    sp.check_payload(mid)  # raises if the payload left the space
    d_am = sp.distance_many(pts[0:1], mid)[0]
    d_ab = sp.distance_many(pts[0:1], pts[1:2])[0]
    assert d_am <= d_ab * (1 + 1e-9) + 1e-12
