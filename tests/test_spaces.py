"""Frozen-value and behavioural tests for the concrete metric targets.

Every numeric literal below was derived by hand before the implementation
existed; derivations are restated next to each assertion.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from metriclp import (
    CapabilityError,
    DimensionMismatchError,
    Domain,
    InvalidPointError,
    MeasurableMap,
    SimpleMap,
    make_space,
    smooth_from_simple,
)
from metriclp.spaces import (
    NET_PROBE_FRACTION,
    _compositions,
    dyadic_simplex,
    dyadic_tuples,
    space_from_descriptor,
)

from .conftest import SPACE_NAMES, flat_sym, ill_conditioned_spd


# ---------------------------------------------------------------------------
# construction and descriptors
# ---------------------------------------------------------------------------


def test_make_space_parses_names():
    assert make_space("euclidean3").dim == 3
    assert make_space("spd2").dim == 4  # full 2x2 payload
    assert make_space("simplex3").dim == 3
    assert make_space("histogram8").dim == 8
    assert make_space("circle").dim == 1


def test_descriptor_round_trip():
    for name in SPACE_NAMES:
        sp = make_space(name)
        again = space_from_descriptor(sp.descriptor())
        assert again.tag == sp.tag and again.dim == sp.dim


def test_make_space_rejects_unknown():
    with pytest.raises(Exception):
        make_space("banach7")


# ---------------------------------------------------------------------------
# euclidean
# ---------------------------------------------------------------------------


def test_euclidean_345():
    sp = make_space("euclidean2")
    # 3-4-5 right triangle: d((0,0),(3,4)) = 5 exactly
    d = sp.distance_many(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))[0]
    assert d == 5.0


def test_euclidean_geodesic_is_segment():
    sp = make_space("euclidean2")
    a = np.array([[0.0, 0.0]])
    b = np.array([[2.0, 2.0]])
    mid = sp.geodesic_many(a, b, np.array([0.5]))[0]
    assert np.array_equal(mid, np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# symmetric positive definite matrices, affine-invariant distance
# ---------------------------------------------------------------------------


def test_spd_frozen_log_distance():
    sp = make_space("spd2")
    # d(I, e^2 I) = ||log(e^2 I)||_F = ||diag(2, 2)||_F = 2*sqrt(2)
    d = sp.distance_many(flat_sym(np.eye(2))[None], flat_sym(np.e**2 * np.eye(2))[None])[0]
    assert d == pytest.approx(2.0 * math.sqrt(2.0), rel=0, abs=1e-15)


def test_spd_geodesic_midpoint_of_commuting_pair():
    sp = make_space("spd2")
    # geodesic A (A^-1 B)^t from I to e^2 I is e^(2t) I; at t = 1/2 it is e*I
    mid = sp.geodesic_many(
        flat_sym(np.eye(2))[None], flat_sym(np.e**2 * np.eye(2))[None], np.array([0.5])
    )[0].reshape(2, 2)
    assert np.allclose(mid, np.e * np.eye(2), rtol=1e-12, atol=0)


def test_spd_tiny_distance_relative_accuracy():
    """Near-identical matrices must keep relative accuracy.

    The naive closed-form eigenvalue discriminant loses ~8 digits here
    (absolute error ~1e-8); the shifted-pencil evaluation stays at the
    float representation floor.  d(I, diag(1+h, 1/(1+h))) =
    sqrt(log(1+h)^2 + log(1/(1+h))^2) for commuting arguments.
    """
    sp = make_space("spd2")
    eye = flat_sym(np.eye(2))
    for h in (1e-6, 1e-8, 1e-10):
        b = flat_sym(np.diag([1.0 + h, 1.0 / (1.0 + h)]))
        d = sp.distance_many(eye[None], b[None])[0]
        exact = math.sqrt(math.log1p(h) ** 2 + math.log(1.0 / (1.0 + h)) ** 2)
        # representation noise of b itself allows ~1e-16/h relative slack
        assert d == pytest.approx(exact, rel=1e-15 / h + 1e-12)


def test_spd_congruence_invariance():
    sp = make_space("spd2")
    rng = np.random.default_rng(5)
    g = rng.normal(size=(2, 2))
    a = np.diag([2.0, 0.5])
    b = np.diag([1.0, 3.0])
    d0 = sp.distance_many(flat_sym(a)[None], flat_sym(b)[None])[0]
    d1 = sp.distance_many(flat_sym(g @ a @ g.T)[None], flat_sym(g @ b @ g.T)[None])[0]
    assert d1 == pytest.approx(d0, rel=1e-10)


def test_spd_rejects_indefinite():
    sp = make_space("spd2")
    with pytest.raises(InvalidPointError):
        sp.check_payload(flat_sym(np.diag([1.0, -1.0]))[None])


def test_spd3_matches_2x2_block_embedding():
    sp2, sp3 = make_space("spd2"), make_space("spd3")
    a2, b2 = np.diag([2.0, 0.5]), np.diag([1.0, 3.0])
    a3 = np.eye(3)
    b3 = np.eye(3)
    a3[:2, :2], b3[:2, :2] = a2, b2
    d2 = sp2.distance_many(flat_sym(a2)[None], flat_sym(b2)[None])[0]
    d3 = sp3.distance_many(flat_sym(a3)[None], flat_sym(b3)[None])[0]
    assert d3 == pytest.approx(d2, rel=1e-12)


# ---------------------------------------------------------------------------
# probability simplex, Fisher-Rao distance
# ---------------------------------------------------------------------------


def test_simplex_vertex_distance_is_pi():
    sp = make_space("simplex3")
    # ||sqrt(e1) - sqrt(e2)|| = sqrt(2); 4*asin(sqrt(2)/2) = 4*(pi/4) = pi
    d = sp.distance_many(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]))[0]
    assert d == pytest.approx(math.pi, rel=0, abs=1e-15)


def test_simplex_vertex_to_even_mix():
    sp = make_space("simplex2")
    # angle between (1,0) and (1/sqrt2, 1/sqrt2) on the sphere is pi/4;
    # Fisher-Rao doubles it: pi/2
    d = sp.distance_many(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))[0]
    assert d == pytest.approx(math.pi / 2, rel=1e-15)


def test_simplex_tiny_distance_first_order():
    sp = make_space("simplex3")
    # ds^2 = sum dp_i^2 / p_i: direction (1,-1,0) at the barycenter gives
    # speed sqrt(3 + 3) = sqrt(6)
    p = np.full((1, 3), 1.0 / 3.0)
    for t in (1e-5, 1e-8):
        q = p + t * np.array([[1.0, -1.0, 0.0]])
        d = sp.distance_many(p, q)[0]
        assert d == pytest.approx(t * math.sqrt(6.0), rel=1e-4)


def test_simplex_rejects_non_distribution():
    sp = make_space("simplex3")
    with pytest.raises(InvalidPointError):
        sp.check_payload(np.array([[0.5, 0.2, 0.2]]))  # sums to 0.9
    with pytest.raises(InvalidPointError):
        sp.check_payload(np.array([[1.2, -0.2, 0.0]]))


def test_dyadic_simplex_prefix():
    pts = dyadic_simplex(2, 3)
    assert pts.shape == (3, 2)
    assert np.all(pts >= 0) and np.allclose(pts.sum(axis=1), 1.0)


def test_dyadic_enumeration_order_frozen():
    # level 0: the vertices in lexicographic order of the integer tuples;
    # level 1 adds the three edge midpoints, level 2 starts with the new
    # quarter points (0,1,3)/4, (0,3,1)/4, (1,0,3)/4, (1,1,2)/4
    assert dyadic_simplex(3, 10).tolist() == [
        [0, 0, 1], [0, 1, 0], [1, 0, 0],
        [0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0],
        [0, 0.25, 0.75], [0, 0.75, 0.25], [0.25, 0, 0.75], [0.25, 0.25, 0.5],
    ]
    for k in (1, 2, 7):
        assert dyadic_simplex(1, k).tolist() == [[1.0]]
    # digests of the raw float64 bytes of the level-10 simplex3 grid (the
    # benchmark's sup probe), the histogram8 unit probe and a 6-D prefix
    frozen = [
        (dyadic_simplex(3, 525825), "8c4d9f0ab94d62e3dcb7b822825c3971419826a66cc21d8f251298935ba9af86"),
        (dyadic_simplex(8, 245157), "3653a0148b00a4d20900030495f8f6f4804a9b0733698d5307e0b4ee4315eaa2"),
        (dyadic_tuples(6, 57), "256192d59fc867a04c0fecff29f503c2a99893fecfda570e4612b76482044014"),
    ]
    for arr, digest in frozen:
        assert hashlib.sha256(arr.tobytes()).hexdigest() == digest, arr.shape


def test_compositions_match_stars_and_bars():
    """Reference: the index tuples summing to `total`, filtered from the
    full product, which itertools lists in lexicographic order."""
    for total in range(6):
        for dim in range(1, 5):
            want = [t for t in itertools.product(range(total + 1), repeat=dim) if sum(t) == total]
            got = _compositions(total, dim)
            assert got.dtype == np.int64 and got.tolist() == [list(t) for t in want], (total, dim)


# ---------------------------------------------------------------------------
# histograms under 1-Wasserstein
# ---------------------------------------------------------------------------


def test_histogram_dirac_transport():
    sp = make_space("histogram8")
    # support grid linspace(0, 1, 8): moving unit mass across the full
    # interval costs 1; one grid step costs 1/7
    e = np.eye(8)
    assert sp.distance_many(e[0][None], e[7][None])[0] == pytest.approx(1.0, rel=1e-15)
    assert sp.distance_many(e[0][None], e[1][None])[0] == pytest.approx(1.0 / 7.0, rel=1e-12)


def w1_cumsum(grid, a, b):
    """The closed CDF form as numpy evaluates it in one pass: the oracle
    for the kernel's column-wise running sum."""
    cdf_gap = np.abs(np.cumsum(a - b, axis=-1))[:, :-1]
    return (cdf_gap * np.diff(grid)).sum(axis=-1)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 12, 33])
def test_histogram_kernel_matches_the_cumsum_formula(dim, rng):
    """On uniform and uneven grids, for smooth, sparse and Dirac weights:
    bit for bit up to eight nodes, where numpy sums the row left to right;
    from nine nodes numpy sums pairwise, so the two orders of the same
    nonnegative terms agree to 2 * dim ulps of the result.  Symmetry and
    identity are exact at every size."""
    uneven = np.cumsum(rng.uniform(1e-3, 3.0, dim))
    for sp in (make_space(f"histogram{dim}"), space_from_descriptor(
            {"space": f"histogram{dim}", "grid": uneven.tolist()})):
        diracs = np.eye(dim)[rng.integers(dim, size=500)]
        sparse = rng.dirichlet(np.full(dim, 0.05), 500)
        for a, b in ((rng.dirichlet(np.ones(dim), 500), sparse), (diracs, sparse),
                     (diracs, np.eye(dim)[rng.integers(dim, size=500)])):
            got = sp.distance_many(a, b)
            want = w1_cumsum(sp.grid, a, b)
            if dim <= 8:
                assert np.array_equal(got, want), sp.grid
            else:
                np.testing.assert_allclose(got, want, rtol=2 * dim * np.finfo(float).eps, atol=0)
            assert np.array_equal(sp.distance_many(b, a), got)
            assert np.all(sp.distance_many(a, a) == 0.0)


def test_histogram_refuses_epsilon_net():
    sp = make_space("histogram8")
    with pytest.raises(CapabilityError):
        sp.epsilon_net(np.full(8, 1.0 / 8.0), 1.0, 0.1)


# ---------------------------------------------------------------------------
# circle
# ---------------------------------------------------------------------------


def test_circle_wraparound():
    sp = make_space("circle")
    d = sp.distance_many(np.array([[0.1]]), np.array([[2.0 * math.pi - 0.1]]))[0]
    assert d == pytest.approx(0.2, rel=1e-12)


def test_circle_net_sizes_bracket_half_pi():
    """Greedy farthest-first covering of the full circle.

    {0, pi} covers at radius pi/2, so eps above pi/2 stops at 2 points;
    below it a third insert still leaves an antipodal midpoint at distance
    pi/2, forcing a fourth point.  Greedy never returns 3.  Margins of 0.3
    dominate the probe-grid spacing (~eps/4).
    """
    sp = make_space("circle")
    north = np.array([0.0])
    assert len(sp.epsilon_net(north, math.pi, math.pi / 2 + 0.3)) == 2
    assert len(sp.epsilon_net(north, math.pi, math.pi / 2 - 0.3)) == 4


@pytest.mark.parametrize(
    "name, center, radius",
    [
        ("euclidean1", [0.0], math.inf),
        ("spd2", [1.0, 0.0, 0.0, 1.0], math.inf),
        # sinh(1100 / sqrt(2)) overflows a float
        ("spd2", [1.0, 0.0, 0.0, 1.0], 1100.0),
    ],
)
def test_net_refuses_a_ball_whose_grid_cannot_be_sized(name, center, radius):
    with pytest.raises(CapabilityError, match="cannot be sized"):
        make_space(name).epsilon_net(np.array(center), radius, 0.5)


@pytest.mark.parametrize(
    "name, center", [("circle", [1.0]), ("simplex3", [0.3, 0.5, 0.2])]
)
def test_net_of_an_infinite_ball_is_a_net_of_the_whole_space(name, center):
    """A bounded space's infinite ball is the whole space, so its net is finite."""
    sp = make_space(name)
    net = sp.epsilon_net(np.array(center), math.inf, 0.5)
    assert 1 < len(net) < 100
    assert np.array_equal(net, sp.epsilon_net(np.array(center), 2 * math.pi, 0.5))


def test_epsilon_nets_frozen():
    """sha256 of the raw float64 bytes of nets built by a full rescan of
    every probe after each insertion; the skip rule must keep them.

    The simplex3 ball is the one the benchmark's sup quantize call nets
    (seed 0); its probe grid is pinned too.
    """
    simplex, spd, plane = make_space("simplex3"), make_space("spd2"), make_space("euclidean2")
    center, radius = np.array([0.3, 0.5, 0.2]), 0.3379997830345756
    frozen = [
        (simplex.epsilon_net(center, radius, 0.1), (37, 3),
         "64f56af026c91032e87231c4a6fd6043ce99c44cc05b40c354b5da22171cfb09"),
        (simplex.probe_ball(center, radius, 0.1 / NET_PROBE_FRACTION), (62275, 3),
         "1c1d729e0cd900fafa030095d4883a78784aa3c248cabf574b734aaba07f8293"),
        (spd.epsilon_net(np.eye(2).reshape(-1), 1.0, 0.4), (97, 4),
         "141ad6a1d2b1159776cce4f72ccdfc2370e4feafe3ab90649547f41c0e8c4d33"),
        (plane.epsilon_net(np.array([0.25, -0.5]), 2.5, 0.5), (69, 2),
         "8074f84f34e1685385ea6cf23c3fa5e29e4b66ca7286a80e9ed155512a2df081"),
        (plane.epsilon_net(np.array([0.25, -0.5]), 2.5, 0.2), (418, 2),
         "12bbe883dc9c0b222492c1c2e9a936518d1a1e8df88465742cf30bdaa0f519c9"),
    ]
    for arr, shape, digest in frozen:
        assert arr.shape == shape
        assert hashlib.sha256(arr.tobytes()).hexdigest() == digest, shape


# ---------------------------------------------------------------------------
# cross-space wrapper behaviour
# ---------------------------------------------------------------------------


def test_distance_many_is_batch_independent(spaces, rng):
    """A pair's distance is the same computed alone, inside a shuffled
    batch and with one side broadcast: the pruned searches (first cover,
    nets) rely on it to reproduce a full scan bit for bit."""
    spd3 = make_space("spd3")
    extra = [(spd3, None), (make_space("euclidean2"), None),
             (spaces["spd2"], ill_conditioned_spd), (spd3, ill_conditioned_spd)]
    for sp, draw in [*((sp, None) for sp in spaces.values()), *extra]:
        for spread in (1e-3, 1.0):
            if draw is None:
                a, b = sp.random_payloads(rng, 40, spread), sp.random_payloads(rng, 40, spread)
            else:
                a, b = draw(sp, rng, 40), draw(sp, rng, 40)
            batch = sp.distance_many(a, b)
            perm = rng.permutation(40)
            assert np.array_equal(sp.distance_many(a[perm], b[perm]), batch[perm]), sp.tag
            for i in range(40):
                assert sp.distance_many(a[i:i + 1], b[i:i + 1])[0] == batch[i], (sp.tag, i)
            one = sp.distance_many(a, b[0][None, :])
            assert np.array_equal(one[perm], sp.distance_many(a[perm], np.tile(b[0], (40, 1))))
            assert one[0] == batch[0], sp.tag


def test_distance_many_bitwise_symmetry_and_identity(spaces, rng):
    """The kernel contract: d(a, b) and d(b, a) agree bit for bit and
    identical rows give exactly 0, at tiny and large spreads, for rows one
    ulp apart, and for one row broadcast against many."""
    for sp in [*spaces.values(), make_space("spd3")]:
        for spread in (1e-3, 1.0, 4.0):
            a = sp.random_payloads(rng, 64, spread)
            b = sp.random_payloads(rng, 64, spread)
            one = a[:1]
            for x, y in ((a, b), (a, np.nextafter(a, np.inf)), (one, b)):
                d_xy = sp.distance_many(x, y)
                d_yx = sp.distance_many(y, x)
                assert np.array_equal(d_xy, d_yx), (sp.tag, spread)
            assert np.all(sp.distance_many(a, a) == 0.0), (sp.tag, spread)
            assert np.all(sp.distance_many(one, np.repeat(one, 8, axis=0)) == 0.0), sp.tag


def test_geodesic_endpoints_exact(spaces, rng):
    for sp in spaces.values():
        if not sp.has_geodesic:
            continue
        a = sp.random_payloads(rng, 16)
        b = sp.random_payloads(rng, 16)
        assert np.array_equal(sp.geodesic_many(a, b, np.zeros(16)), a), sp.tag
        assert np.array_equal(sp.geodesic_many(a, b, np.ones(16)), b), sp.tag


def test_geodesic_constant_speed(spaces, rng):
    for sp in spaces.values():
        if not sp.has_geodesic:
            continue
        a = sp.random_payloads(rng, 8)
        b = sp.random_payloads(rng, 8)
        total = sp.distance_many(a, b)
        for t in (0.25, 0.5, 0.75):
            mid = sp.geodesic_many(a, b, np.full(8, t))
            left = sp.distance_many(a, mid)
            np.testing.assert_allclose(left, t * total, rtol=1e-9, atol=1e-12)


GEODESIC_SPACES = ["euclidean1", "euclidean2", "euclidean3", "spd2", "spd3", "simplex3",
                   "histogram8", "circle"]


def _endpoint_pairs(sp, rng):
    """Random endpoint pairs, plus coincident simplex endpoints and an
    antipodal circle pair (the kernels' special cases)."""
    a = sp.random_payloads(rng, 3)
    pairs = [(a[0], a[1]), (a[2], sp.random_payloads(rng, 1)[0])]
    if sp.tag.startswith("simplex"):
        pairs.append((a[0], a[0].copy()))
    if sp.tag == "circle":
        pairs.append((np.array([0.5]), np.array([0.5 + math.pi])))
    return pairs


@pytest.mark.parametrize("name", GEODESIC_SPACES)
def test_geodesic_one_endpoint_row_equals_tiled_rows(name, rng):
    """One endpoint pair against R times gives the bits of the same pair
    tiled R times, and the t = 0 and t = 1 rows are a and b verbatim."""
    sp = make_space(name)
    t = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 4094)])
    rng.shuffle(t)
    for a, b in _endpoint_pairs(sp, rng):
        one = sp.geodesic_many(a[None, :], b[None, :], t)
        tiled = sp.geodesic_many(np.tile(a, (t.size, 1)), np.tile(b, (t.size, 1)), t)
        assert one.shape == (t.size, sp.dim)
        assert np.array_equal(one, tiled), name
        assert np.array_equal(one[t == 0.0], a[None, :]), name
        assert np.array_equal(one[t == 1.0], b[None, :]), name
        assert np.all(np.isfinite(one)), name


@pytest.mark.parametrize("name", GEODESIC_SPACES)
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
def test_geodesic_one_time_serves_every_endpoint_row(name, t, rng):
    """A single time broadcasts against stacked endpoints: one row per pair,
    equal to the per-row times."""
    sp = make_space(name)
    a = sp.random_payloads(rng, 6)
    b = sp.random_payloads(rng, 6)
    out = sp.geodesic_many(a, b, np.array([t]))
    assert out.shape == (6, sp.dim)
    assert np.array_equal(out, sp.geodesic_many(a, b, np.full(6, t))), name
    if t == 0.0:
        assert np.array_equal(out, a)
    if t == 1.0:
        assert np.array_equal(out, b)


def test_spd_geodesic_decomposes_one_endpoint_pair_once(monkeypatch, rng):
    """One spd2 endpoint pair over many times is decomposed as one pair:
    every eigh call sees a (1, 2, 2) stack, not one matrix per time."""
    sp = make_space("spd2")
    z0, v = sp.random_payloads(rng, 2)
    shapes = []
    eigh = np.linalg.eigh

    def spy(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    out = sp.geodesic_many(z0, v, np.linspace(0.0, 1.0, 1000))
    assert out.shape == (1000, 4)
    assert shapes and set(shapes) == {(1, 2, 2)}


@pytest.mark.parametrize(
    "payload, error",
    [([0.0, 0.0], DimensionMismatchError), ([math.nan], InvalidPointError),
     ([math.inf], InvalidPointError)],
)
def test_single_payload_entry_points_refuse_bad_payloads(payload, error):
    """A target point is one payload row; a row of the wrong length or with
    a non-finite entry is refused by every entry point that takes one."""
    sp = make_space("euclidean1")
    dom = Domain.grid(1, 8)
    g = SimpleMap(dom, sp, np.arange(8) % 2, np.array([[0.0], [1.0]]))
    with pytest.raises(error):
        MeasurableMap.constant(dom, sp, payload)
    with pytest.raises(error):
        sp.epsilon_net(payload, 1.0, 0.5)
    with pytest.raises(error):
        smooth_from_simple(g, payload, 1.0, 0.5)


def test_dense_sequences_are_stable_prefixes(spaces):
    for sp in spaces.values():
        if not sp.has_dense_sequence:
            continue
        small = sp.dense_payloads(4)
        big = sp.dense_payloads(9)
        assert np.array_equal(big[:4], small), sp.tag
        empty = sp.dense_payloads(0)
        assert empty.shape == (0, sp.dim), sp.tag
        assert np.array_equal(big[:0], empty), sp.tag


def test_euclidean_dense_prefix_frozen():
    sp = make_space("euclidean1")
    # enumeration starts at the origin and expands dyadically outward
    first = sp.dense_payloads(3).ravel()
    assert first[0] == 0.0
    assert set(np.abs(first)) <= {0.0, 1.0}
