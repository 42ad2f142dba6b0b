"""Frozen-value and behavioural tests for the concrete metric targets.

Every numeric literal below was derived by hand before the implementation
existed; derivations are restated next to each assertion.
"""

from __future__ import annotations

import hashlib
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
from metriclp.spaces import dyadic_simplex, dyadic_tuples, space_from_descriptor

from .conftest import SPACE_NAMES, flat_sym


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


# ---------------------------------------------------------------------------
# cross-space wrapper behaviour
# ---------------------------------------------------------------------------


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
