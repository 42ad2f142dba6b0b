"""Frozen-value and behavioural tests for the concrete metric targets.

Every numeric literal below was derived by hand before the implementation
existed; derivations are restated next to each assertion.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from metriclp import spaces as spaces_module
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
    _BLOCK_ROWS,
    EIG_CLAMP,
    HistogramSpace,
    NET_PROBE_CAP,
    NET_PROBE_FRACTION,
    PRUNE_SLACK_REL,
    _compositions,
    _least_pivots,
    _lex_greater,
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


def test_euclidean_distances_across_the_float_range():
    """Rows whose plain norm under- or overflows are redone with power-of-two
    scaling: each distance is the 60-digit value rounded, with no warning, the
    kernel stays exactly symmetric and exactly 0.0 on equal rows, and a
    distance past the float range is inf.  Other rows keep the plain norm's
    bits."""
    mpmath = pytest.importorskip("mpmath")
    sp = make_space("euclidean3")
    a = np.array([
        [1e-170, 2e-170, 0.0],
        [5e-324, 0.0, -5e-324],
        [1e170, -1e170, 3.0],
        [1.7e308, 0.0, 0.0],
        [1e-160, 1e300, 1e-200],
        [3.0, 4.0, 12.0],
        [1e154, 1e-154, 0.0],
        [2.5e-300, 1e-300, -7.0],
    ])
    b = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 5e-324, 0.0],
        [-1e170, 1e170, 0.0],
        [-1.7e308, 0.0, 0.0],
        [0.0, -1e300, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [2.5e-300, 1e-300, -7.0],
    ])
    d = sp.distance_many(a, b)
    assert d.tobytes() == sp.distance_many(b, a).tobytes()
    with mpmath.workdps(60):
        for row, (x, y) in enumerate(zip(a, b)):
            exact = mpmath.sqrt(mpmath.fsum((mpmath.mpf(u) - mpmath.mpf(v)) ** 2
                                            for u, v in zip(x, y)))
            if exact > mpmath.mpf(np.finfo(np.float64).max):
                assert d[row] == math.inf
            else:  # a subnormal result is the nearest multiple of 2**-1074
                assert abs(d[row] - exact) <= 4e-16 * exact + mpmath.mpf(2) ** -1075, row
    assert d[-1] == 0.0 and not np.signbit(d[-1])
    in_range = slice(5, 7)
    assert d[in_range].tobytes() == np.linalg.norm(a[in_range] - b[in_range], axis=-1).tobytes()
    # one row against many and a (c, r) table give the row-wise bits
    assert sp.distance_many(a[:1], b).tobytes() == sp.distance_many(np.repeat(a[:1], 8, 0), b).tobytes()
    table = sp.distance_many(a[:, None], b[None])
    assert table[np.arange(8), np.arange(8)].tobytes() == d.tobytes()


def test_euclidean_geodesic_is_segment():
    sp = make_space("euclidean2")
    a = np.array([[0.0, 0.0]])
    b = np.array([[2.0, 2.0]])
    mid = sp.geodesic_many(a, b, np.array([0.5]))[0]
    assert np.array_equal(mid, np.array([1.0, 1.0]))


def test_euclidean_geodesic_across_the_float_range():
    """1e308 and -1e308 are 2e308 apart, past the float range: that row is
    formed as (1 - t) a + t b, without a warning, while the other rows keep
    the bits of a + t (b - a)."""
    sp = make_space("euclidean2")
    a = np.array([[1e308, 1.0], [0.25, -3.0], [0.1, 0.7]])
    b = np.array([[-1e308, 2.0], [1.5, 7.0], [0.3, -0.2]])
    t = np.array([0.5, 0.3, 0.7])
    out = sp.geodesic_many(a, b, t)
    assert np.array_equal(out[0], [0.0, 1.5])
    assert out[1:].tobytes() == (a[1:] + t[1:, None] * (b[1:] - a[1:])).tobytes()


def test_euclidean_random_payloads_past_the_float_range_are_refused(rng):
    with pytest.raises(InvalidPointError, match="not finite"):
        make_space("euclidean2").random_payloads(rng, 64, 1e308)


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


def _mp_spd2_distance(a, b, mpmath):
    """d(a, b) for 2 x 2 SPD payloads from the roots of
    det(b - lambda a) = 0, at the working precision: the larger root by the
    quadratic formula without cancellation, the smaller by Vieta."""
    a00, a01, _, a11 = (mpmath.mpf(v) for v in a)
    b00, b01, _, b11 = (mpmath.mpf(v) for v in b)
    det_a, det_b = a00 * a11 - a01 * a01, b00 * b11 - b01 * b01
    half = (a00 * b11 + a11 * b00 - 2 * a01 * b01) / 2
    big = (half + mpmath.sqrt(half * half - det_a * det_b)) / det_a
    small = det_b / (det_a * big)
    return mpmath.sqrt(mpmath.log(big) ** 2 + mpmath.log(small) ** 2)


def test_spd2_distances_past_1e154():
    """The closed form squares `mid` and multiplies determinants, so pairs
    with entries past about 1e154 came out inf or NaN with warnings.  Those
    rows are scaled by a common power of two (the pencil is homogeneous):
    every distance matches a 60-digit value, equal rows give exactly 0.0,
    and in-range rows in the same call keep their bits."""
    mpmath = pytest.importorskip("mpmath")
    sp = make_space("spd2")
    big_eye = np.array([1e154, 0.0, 0.0, 1e154])
    pairs = [
        (np.eye(2).ravel(), np.array([1e155, 0.0, 0.0, 1.0])),
        (np.array([1e200, 5e199, 5e199, 1e200]), np.array([3e200, -1e200, -1e200, 2e200])),
        (np.eye(2).ravel(), np.array([1e155, 1e77, 1e77, 1.0])),
        (np.array([1e300, 0.0, 0.0, 1e300]), np.array([1e300, 0.0, 0.0, 3e300])),
        (np.array([2.0, 0.5, 0.5, 1.0]), np.array([1.5, -0.25, -0.25, 3.0])),
    ]
    a = sp.check_payload(np.array([x for x, _ in pairs] + [big_eye]))
    b = sp.check_payload(np.array([y for _, y in pairs] + [big_eye]))
    d = sp.distance_many(a, b)
    assert d.tobytes() == sp.distance_many(b, a).tobytes()
    with mpmath.workdps(60):
        for row, (x, y) in enumerate(pairs):
            exact = _mp_spd2_distance(x, y, mpmath)
            assert abs(d[row] - exact) <= 1e-13 * exact, (row, d[row], exact)
        assert abs(d[0] - 155 * mpmath.log(10)) <= 1e-15 * d[0]
    assert d[-1] == 0.0 and not np.signbit(d[-1])
    assert d[4] == sp.distance_many(a[4], b[4])[0]


def test_spd2_pair_past_the_float_range_is_refused():
    """Pencil eigenvalues near 1e311 are no floats: no common scale brings
    the pair into range, so it is refused rather than measured as inf."""
    sp = make_space("spd2")
    a = sp.check_point([1e-11, 0.0, 0.0, 1e-11])
    b = sp.check_point([1e300, 0.0, 0.0, 1e300])
    with pytest.raises(InvalidPointError, match="past the float range"):
        sp.distance_many(a, b)


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


def _eigvalsh_check(sp, flat):
    """The SPD payload check as an `eigvalsh` of every row: the reference
    the certified check must agree with, verdict and message."""
    mats = flat.reshape(-1, sp.n, sp.n)
    sym_gap = np.abs(mats - np.swapaxes(mats, -1, -2)).max(initial=0.0)
    if sym_gap > 1e-12:
        raise InvalidPointError(f"spd payload not symmetric (gap {sym_gap:.2e})")
    w = np.linalg.eigvalsh(mats)
    if w.size and w.min() <= EIG_CLAMP:
        raise InvalidPointError("spd payload has a nonpositive eigenvalue")


def _verdict(check, flat):
    """None when `check` accepts the stack, else its refusal message."""
    try:
        check(flat)
    except InvalidPointError as exc:
        return str(exc)
    return None


def _with_spectrum(rng, n, w):
    """Payloads q diag(w) q^T, one per row of w, for random orthogonal q."""
    q, _ = np.linalg.qr(rng.standard_normal((len(w), n, n)))
    mats = (q * w[:, None, :]) @ np.swapaxes(q, -1, -2)
    return (0.5 * (mats + np.swapaxes(mats, -1, -2))).reshape(len(w), n * n)


def _boundary_payloads(n):
    """SPD-check edge cases: smallest eigenvalue just above and below
    EIG_CLAMP under condition numbers 1..1e312, whole matrices scaled
    1e-300..1e300, symmetry gaps around 1e-12, zero matrices and entries
    near 1e200."""
    rng = np.random.default_rng(n)
    rows = []
    for rel in (1e-3, 1e-2, 1e-1):
        for sign in (1.0, -1.0):
            low = EIG_CLAMP * (1.0 + sign * rel)
            for top in (EIG_CLAMP, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e300):
                w = np.geomspace(low, max(top, low), n)
                rows.append(_with_spectrum(rng, n, np.tile(w, (5, 1))))
    base = _with_spectrum(rng, n, rng.uniform(0.5, 2.0, (3, n)))
    indefinite = _with_spectrum(rng, n, np.tile(np.linspace(-1.0, 1.0, n), (3, 1)))
    for exp in range(-300, 301, 6):
        rows += [base * 10.0**exp, indefinite * 10.0**exp]
    rows.append(np.diag(np.full(n, EIG_CLAMP)).reshape(1, -1))
    rows.append(np.diag(np.full(n, np.nextafter(EIG_CLAMP, 1.0))).reshape(1, -1))
    rows.append(np.zeros((2, n * n)))
    if n > 1:
        for gap in (0.5e-12, 0.999e-12, 1e-12, 1.001e-12, 2e-12):
            for mats in (base, indefinite):
                skew = mats.copy()
                skew[:, 1] += gap
                rows.append(skew)
    # entries near 1e200: definite, rank one, and off-diagonals whose
    # squares overflow in the certificate
    eye = np.eye(n, dtype=bool)
    for diag, off in ((2e200, 9e199), (1e200, 1e200), (1.0, 1e200), (1e200, -1e200)):
        rows.append(np.where(eye, diag, off).reshape(1, -1))
    rows.append(1e200 * base)
    return np.concatenate(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spd_check_refuses_exactly_what_eigvalsh_refuses(n):
    """The certified check gives the verdict and message of `eigvalsh` on
    every row, row by row, on whole stacks and on empty ones."""
    sp = make_space(f"spd{n}")
    reference = functools.partial(_eigvalsh_check, sp)
    flat = _boundary_payloads(n)
    verdicts = [_verdict(sp.check_payload, row[None]) for row in flat]
    assert verdicts == [_verdict(reference, row[None]) for row in flat]
    assert None in verdicts and "spd payload has a nonpositive eigenvalue" in verdicts
    if n > 1:
        assert any(v and "not symmetric" in v for v in verdicts)
    good = flat[[v is None for v in verdicts]]
    for stack in (flat, flat[::-1], good, flat[:0]):
        assert _verdict(sp.check_payload, stack) == _verdict(reference, stack)


def test_spd_check_verdicts_span_certificate_blocks(rng):
    """A fault in any block of rows is found, and a symmetry gap anywhere
    is reported before a nonpositive eigenvalue anywhere else."""
    sp = make_space("spd2")
    flat = sp.random_payloads(rng, 3 * _BLOCK_ROWS + 5)
    indefinite = np.array([1.0, 2.0, 2.0, 1.0])
    skew = np.array([1.0, 1e-9, 0.0, 1.0])
    for rows in ({-1: indefinite}, {3: indefinite, -2: skew}, {-2: indefinite, 5: skew}):
        stack = flat.copy()
        for at, row in rows.items():
            stack[at] = row
        assert _verdict(sp.check_payload, stack) == _verdict(
            functools.partial(_eigvalsh_check, sp), stack
        )
    assert _verdict(sp.check_payload, flat) is None


@pytest.mark.parametrize("n", [2, 3])
def test_cholesky_certificate_never_passes_a_row_eigvalsh_refuses(n):
    """Soundness on 20,000 random matrices per order packed around the
    boundary: lambda_min = EIG_CLAMP * (1 +- 1e-3..1e-1) under condition
    numbers 1, 1e3, 1e6 and 1e9."""
    rng = np.random.default_rng(10 + n)
    m = 20_000
    low = EIG_CLAMP * (1.0 + rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-3, -1, m))
    cond = 10.0 ** rng.choice([0.0, 3.0, 6.0, 9.0], m)
    flat = _with_spectrum(rng, n, np.geomspace(low, low * cond, n).T)
    certified = _least_pivots(flat.T.copy(), n) > 0.0
    w_min = np.linalg.eigvalsh(flat.reshape(m, n, n)).min(axis=1)
    assert certified.sum() > m // 4
    assert np.all(w_min[certified] > EIG_CLAMP)


def test_spd_check_of_random_payloads_calls_no_eigvalsh(monkeypatch):
    """Random SPD payloads are all decided by the Cholesky certificate; a
    certificate that fell back on every row would call `eigvalsh`."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(mats):
        calls.append(len(mats))
        return eigvalsh(mats)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rng = np.random.default_rng(0)
    for name, m in (("spd2", 65_536), ("spd3", 16_384)):
        sp = make_space(name)
        sp.check_payload(sp.random_payloads(rng, m))
    assert calls == []
    with pytest.raises(InvalidPointError, match="nonpositive eigenvalue"):
        make_space("spd2").check_payload(np.array([[1.0, 2.0, 2.0, 1.0]]))
    assert calls == [1]


@pytest.mark.parametrize("row", [[1.0, 1e308, -1e308, 1.0], [1.0, -1.7e308, 1.7e308, 1.0]])
def test_spd_symmetry_gap_past_the_float_range_is_refused_quietly(row):
    """A gap a_ij - a_ji that overflows is refused as not symmetric, with
    gap inf, and prints no overflow warning."""
    with pytest.raises(InvalidPointError, match=r"not symmetric \(gap inf\)"):
        make_space("spd2").check_payload(np.array([row]))


def test_spd3_matches_2x2_block_embedding():
    sp2, sp3 = make_space("spd2"), make_space("spd3")
    a2, b2 = np.diag([2.0, 0.5]), np.diag([1.0, 3.0])
    a3 = np.eye(3)
    b3 = np.eye(3)
    a3[:2, :2], b3[:2, :2] = a2, b2
    d2 = sp2.distance_many(flat_sym(a2)[None], flat_sym(b2)[None])[0]
    d3 = sp3.distance_many(flat_sym(a3)[None], flat_sym(b3)[None])[0]
    assert d3 == pytest.approx(d2, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_spd_kernel_is_exactly_zero_on_equal_rows(n, scale):
    """Equal rows give nu = 0 and distance exactly 0.0 with no pin: b - a
    is exactly zero, so spd2's closed form has mid = det_e = 0 and spd3
    takes eigvalsh of a zero matrix.  The kernel is called directly, since
    check_payload refuses the 1e-150 rows; -0.0 off the diagonal meets
    both -0.0 and +0.0."""
    sp = make_space(f"spd{n}")
    rows = sp.random_payloads(np.random.default_rng(n), 50)
    eye = np.eye(n).ravel()
    signed = np.where(eye == 0.0, -0.0, eye)
    a = np.vstack([rows, eye, signed, signed]) * scale
    b = np.vstack([rows, eye, signed, eye]) * scale
    nu = sp._nu_spectrum(sp._mats(a), sp._mats(b))
    assert (nu == 0.0).all()
    d = sp._distance_many(a, b)
    assert (d == 0.0).all() and not np.signbit(d).any()


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


@pytest.mark.parametrize("shape", [(16, 0), (0, 0), (2, 3, 0), (0,)])
def test_length_zero_payload_stacks_are_checked(shape):
    """euclidean0 payloads have length 0; a stack of them, empty or not,
    passes the check, and a stack of another length does not.  The kernel
    itself measures broadcast stacks of them as exact +0.0, without a
    warning, in the broadcast leading shape."""
    sp = make_space("euclidean0")
    assert sp.check_payload(np.zeros(shape)).shape == shape
    with pytest.raises(DimensionMismatchError):
        sp.check_payload(np.zeros((16, 1)))
    f = MeasurableMap(Domain.grid(2, 4), sp, np.zeros((16, 0)))
    assert f.values.shape == (16, 0)
    stack = np.zeros(shape)
    assert sp.distance_many(stack, stack).shape == np.atleast_2d(stack).shape[:-1]
    for shape_a, shape_b in [((5, 0), (5, 0)), ((3, 1, 0), (1, 4, 0)), ((1, 0), (6, 0)),
                             ((0, 0), (0, 0))]:
        a, b = np.zeros(shape_a), np.zeros(shape_b)
        for got in (sp._distance_many(a, b), sp.distance_many(a, b), sp.distance_many(b, a)):
            assert got.shape == np.broadcast_shapes(shape_a[:-1], shape_b[:-1])
            assert got.dtype == np.float64
            assert not got.any() and not np.signbit(got).any()


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


def _level_size(dim, level):
    return math.comb(2**level + dim - 1, dim - 1)


def int64_dyadic_simplex(dim, k):
    """dyadic_simplex on an int64 grid with a row-axis OR reduce, as it
    was built before the small-integer grid."""
    level = 0
    while dim > 1 and _level_size(dim, level) < k:
        level += 1
    grid = _compositions(2**level, dim)
    common = np.bitwise_or.reduce(grid, axis=1)
    rows = grid[np.argsort(-(common & -common), kind="stable")[:k]]
    return rows.astype(np.float64) / 2**level


# levels 6, 7 and 8 (64, 128, 256) straddle int8's limit, 14 and 15
# int16's; 8-D grids past level 4 are too large to build, and dim 1 is
# always level 0
@pytest.mark.parametrize(
    "dim, level",
    [(1, 0), (2, 6), (2, 7), (2, 8), (2, 14), (2, 15), (3, 6), (3, 7), (3, 8), (8, 3), (8, 4)],
)
@pytest.mark.parametrize("full", [False, True])
def test_dyadic_simplex_small_int_grid_equals_the_int64_build(monkeypatch, dim, level, full):
    """The grid is built in the smallest signed type holding 2**level,
    and the points equal the int64 build bit for bit, as C-contiguous
    float64, with k at the full level and just past the level below."""
    k = _level_size(dim, level) if full or level == 0 else _level_size(dim, level - 1) + 1
    built = []

    def recording(total, d, dtype=np.int64):
        built.append(dtype)
        return _compositions(total, d, dtype)

    monkeypatch.setattr(spaces_module, "_compositions", recording)
    got = dyadic_simplex(dim, k)
    want = int64_dyadic_simplex(dim, k)
    small = next(t for t in (np.int8, np.int16, np.int32) if 2**level <= np.iinfo(t).max)
    assert built == [small]
    assert got.dtype == np.float64 and got.flags.c_contiguous and got.shape == (k, dim)
    assert got.tobytes() == want.tobytes()


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


def test_circle_probe_grid_past_the_cap_is_refused():
    """A circle grid of 1.25 * NET_PROBE_CAP nodes is refused, as euclidean
    and SPD grids are, before anything is allocated (a sup quantization at
    eps 1e-9 would ask for 2.2e9 nodes)."""
    spacing = 2 * math.pi / (1.25 * NET_PROBE_CAP)
    with pytest.raises(CapabilityError, match="probe grid"):
        make_space("circle").probe_ball(np.array([0.5]), math.pi, spacing)


def test_simplex_probe_grid_past_the_cap_is_refused():
    """A simplex3 ball of radius pi is the whole simplex, so its grid of n
    nodes per angle keeps 1 + (n - 1) n nodes, just past NET_PROBE_CAP: it
    is refused, and the refusal allocates no more than the first angle's
    n candidates, since each angle's count is an integer computed before
    that angle's arrays are built."""
    n = math.isqrt(NET_PROBE_CAP) + 1
    # h = (pi/2) / (n - 1.5), so ceil((pi/2) / h) + 1 = n nodes per angle
    spacing = math.sqrt(2) * (math.pi / 2) / (n - 1.5)
    count = 1 + (n - 1) * n  # angle 1 at 0 pins angle 2 at 0
    assert count > NET_PROBE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError,
                           match=rf"probe grid would need {count} nodes at angle 2 of 2"):
            make_space("simplex3").probe_ball(np.array([0.3, 0.5, 0.2]), math.pi, spacing)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # the grid itself would take 48 MB


def whole_orthant_grid(dim, spacing):
    """The simplex probe grid over the whole orthant, before the ball
    filter: the oracle of the pruned `SimplexSpace.probe_ball`."""
    angles = dim - 1
    n = math.ceil((math.pi / 2) / (spacing / math.sqrt(angles))) + 1
    idx = np.indices((n,) * angles, dtype=np.int32).reshape(angles, -1)
    keep = np.ones(idx.shape[1], dtype=bool)
    later = np.zeros(idx.shape[1], dtype=bool)  # some angle after i is not 0
    for i in reversed(range(angles)):
        keep &= (idx[i] != 0) | ~later
        later |= idx[i] != 0
    idx = idx[:, keep]
    phi = np.linspace(0.0, math.pi / 2, n)
    cos, sin = np.cos(phi), np.sin(phi)
    u = np.empty((idx.shape[1], dim))
    run = np.ones(idx.shape[1])
    for i in range(angles):
        u[:, i] = run * cos[idx[i]]
        run *= sin[idx[i]]
    u[:, -1] = run
    grid = np.square(u, out=u)
    grid /= grid.sum(axis=1, keepdims=True)
    return grid


SIMPLEX_BALL_CENTERS = {
    2: [[1.0, 0.0], [0.0, 1.0], [0.3, 0.7], [0.5, 0.5]],
    3: [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [0.3, 0.5, 0.2], [0.6, 0.0, 0.4]],
    4: [[0.0, 1.0, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0], [0.0, 0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]],
    5: [[0.0, 0.0, 0.0, 0.0, 1.0], [0.25, 0.25, 0.0, 0.25, 0.25], [0.1, 0.2, 0.3, 0.2, 0.2]],
}
# spacings per dim, down to the finest whose whole-orthant oracle stays small
SIMPLEX_BALL_SPACINGS = {2: [0.005, 0.05, 0.3], 3: [0.005, 0.0125, 0.3],
                         4: [0.05, 0.3], 5: [0.15, 0.3]}


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_simplex_probe_grid_is_the_whole_orthant_grid_filtered(dim):
    """The pruned grid keeps every node of the whole-orthant grid that lies
    in the ball, bit for bit and in the same order, for balls at vertices,
    on faces and inside, from tiny to the whole simplex."""
    sp = make_space(f"simplex{dim}")
    for spacing in SIMPLEX_BALL_SPACINGS[dim]:
        grid = whole_orthant_grid(dim, spacing)
        for center in SIMPLEX_BALL_CENTERS[dim]:
            c = np.array(center)
            near = sp.distance_many(grid, c[None, :])
            for radius in [0.01, 0.1, 0.338, 1.0, 2.0, math.pi, math.inf]:
                got = sp.probe_ball(c, radius, spacing)
                want = grid[near <= radius + spacing]
                assert got.shape == want.shape, (c, radius, spacing)
                assert got.tobytes() == want.tobytes(), (c, radius, spacing)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_simplex_probe_grid_is_the_angle_grid_without_pole_duplicates(dim):
    """Of the n**(k-1) angle nodes, those that repeat a pole node are
    dropped; the rest are distinct points of the simplex, row 0 the vertex
    e_1 (all angles 0) and the last row the point of all angles pi/2."""
    sp = make_space(f"simplex{dim}")
    spacing = 0.3
    probes = sp.probe_ball(np.full(dim, 1.0 / dim), math.inf, spacing)
    n = math.ceil((math.pi / 2) / (spacing / math.sqrt(dim - 1))) + 1
    # angle i = 0 (i before the last) fixes every later angle at 0
    dups = sum((n - 1) ** i * (n ** (dim - 2 - i) - 1) for i in range(dim - 2))
    assert probes.shape == (n ** (dim - 1) - dups, dim)
    sp.check_payload(probes)
    assert len(np.unique(probes, axis=0)) == len(probes)
    assert np.array_equal(probes[0], np.eye(dim)[0])
    assert probes[-1][-1] == 1.0


def ball_samples(sp, center, radius, rng, m=300):
    """Points of the closed ball: geodesic points from the center toward
    random targets, every third on the ball's sphere.  Half the simplex
    targets lie on a face, so samples reach the faces too."""
    far = sp.random_payloads(rng, m, 2.0)
    if sp.tag.startswith("simplex"):
        far[np.arange(0, m, 2), rng.integers(0, sp.dim, (m + 1) // 2)] = 0.0
        far /= far.sum(axis=1, keepdims=True)
    c = np.broadcast_to(center, far.shape)
    reach = np.minimum(1.0, radius / sp.distance_many(c, far))
    t = reach * np.where(np.arange(m) % 3 == 0, 1.0, rng.uniform(0.0, 1.0, m))
    return sp.geodesic_many(c, far, t)


@pytest.mark.parametrize(
    "name, center, radius, spacing",
    [
        ("euclidean2", [0.25, -0.5], 0.3, 0.0125),
        ("spd2", [1.0, 0.0, 0.0, 1.0], 0.3, 0.05),
        ("spd2", [2.0, 0.5, 0.5, 1.0], 1.0, 0.15),
        ("circle", [6.2], 0.3, 0.0125),
        ("simplex3", [1.0, 0.0, 0.0], 0.3, 0.0125),  # at a vertex
        ("simplex3", [0.0, 0.5, 0.5], 0.3, 0.0125),  # on a face
        ("simplex3", [0.3, 0.5, 0.2], 0.3, 0.0125),  # inside
        # a small ball at a fine spacing, whose orthant grid (17773^2 nodes)
        # would pass NET_PROBE_CAP
        ("simplex3", [0.3, 0.5, 0.2], 0.01, 0.001 / 8),
    ],
)
def test_probe_grid_places_every_ball_point_within_spacing(name, center, radius, spacing, rng):
    """The promise `epsilon_net` rests on: every point of the closed ball
    lies within `spacing` of some probe."""
    sp = make_space(name)
    probes = sp.probe_ball(np.array(center), radius, spacing)
    x = ball_samples(sp, np.array(center), radius, rng)
    # sample blocks against every probe, as (block, probes) tables
    gap = max(sp.distance_many(block[:, None], probes[None]).min(axis=1).max()
              for block in np.array_split(x, 10))
    assert gap <= spacing, (name, center, gap)


def test_small_simplex_ball_at_a_fine_eps_gets_a_covering_net(rng):
    """A ball of radius 0.01 at eps 0.001 is netted, not refused: its grid
    is built only near the ball, and the net covers the ball strictly
    within eps."""
    sp = make_space("simplex3")
    center = np.array([0.3, 0.5, 0.2])
    net = sp.epsilon_net(center, 0.01, 0.001)
    assert np.array_equal(net[0], center) and 100 < len(net) < 1000
    x = ball_samples(sp, center, 0.01, rng)
    assert sp.distance_many(x[:, None], net[None]).min(axis=1).max() < 0.001


def test_single_point_space_net_is_its_center():
    net = make_space("euclidean0").epsilon_net(np.zeros(0), 1.0, 0.1)
    assert net.shape == (1, 0)
    probes = make_space("simplex1").probe_ball(np.ones(1), 1.0, 0.1)
    assert np.array_equal(probes, np.ones((1, 1)))


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
         "8401fb04bd0c9f02429af2a7d7df164f3b1999c7e3c0044d799e81967554e6cb"),
        (simplex.probe_ball(center, radius, 0.1 / NET_PROBE_FRACTION), (1487, 3),
         "77c616e4451e72fdcdbebf99b06e757dbf68b26f22ff4cb4bac0ab89c34778d1"),
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


def _list_net(sp, center, radius, eps):
    """The net loop that grew a Python list and rebuilt it as an array at
    every insertion; the oracle for `epsilon_net`'s preallocated buffer."""
    c = sp.check_point(center)
    if radius == 0 or sp.single_point:
        return np.array([c])
    spacing = eps / NET_PROBE_FRACTION
    probes = sp.probe_ball(c, radius, spacing)
    net = [c]
    dist = sp.distance_many(probes, c[None, :])
    near = np.zeros(dist.size, dtype=np.int64)
    slack = PRUNE_SLACK_REL * (2.0 * radius + eps)
    while dist.size and dist.max() >= eps - spacing:
        new = probes[int(np.argmax(dist))]
        to_net = sp.distance_many(np.array(net), new[None, :])
        cand = np.flatnonzero(to_net[near] < 2.0 * dist + slack)
        d_new = sp.distance_many(probes[cand], new[None, :])
        closer = d_new < dist[cand]
        dist[cand[closer]] = d_new[closer]
        near[cand[closer]] = len(net)
        net.append(new)
    return np.array(net)


@pytest.mark.parametrize(
    "name", ["euclidean1", "euclidean2", "euclidean3", "spd2", "simplex3", "circle", "euclidean0"]
)
def test_epsilon_net_matches_the_list_loop(name, rng):
    """Random balls in every space with a net, plus a ball at a grid node
    whose probes tie in distance, give the list loop's net bit for bit."""
    sp = make_space(name)
    centers = [sp.random_payloads(rng, 1, spread=0.5)[0] for _ in range(3)]
    radii = rng.uniform(0.05, 0.6, 3)
    # eps / radius: finer on the planar grids, whose probe counts stay small
    lo, hi = (0.5, 0.8) if name in ("euclidean3", "spd2") else (0.1, 0.2)
    balls = [(c, float(r), float(r * s)) for c, r, s in
             zip(centers, radii, rng.uniform(lo, hi, 3))]
    if name.startswith("euclidean"):  # a symmetric grid: tied farthest probes
        balls.append((np.zeros(sp.dim), 1.0, 0.6))
    for center, radius, eps in balls:
        want = _list_net(sp, center, radius, eps)
        got = sp.epsilon_net(center, radius, eps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (center, radius, eps)


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


def _lex_greater_by_argmax(a, b):
    """Oracle: the first differing entry of each row, found by `argmax`."""
    diff = a != b
    first = np.argmax(diff, axis=1)
    rows = np.arange(a.shape[0])
    return diff.any(axis=1) & (a[rows, first] > b[rows, first])


@pytest.mark.parametrize("k", [1, 2, 4, 9])
def test_lex_greater_matches_the_argmax_form(k, rng):
    """Tie-heavy integer rows, signed zeros, NaN, equal rows, rows that
    differ only after their first entry, and rows that all differ there."""
    a = rng.integers(0, 3, (400, k)).astype(np.float64)
    b = rng.integers(0, 3, (400, k)).astype(np.float64)
    b[:50] = a[:50]  # equal rows
    b[50:100, 0] = a[50:100, 0]  # equal first entries
    a[a == 0.0] = np.where(rng.random(np.count_nonzero(a == 0.0)) < 0.5, -0.0, 0.0)
    a[rng.random(a.shape) < 0.02] = np.nan
    b[rng.random(b.shape) < 0.02] = np.nan
    distinct = a[:, 0] != b[:, 0]
    for x, y in ((a, b), (b, a), (a, a), (a[distinct], b[distinct]), (a[:0], b[:0])):
        got = _lex_greater(x, y)
        assert got.dtype == bool and np.array_equal(got, _lex_greater_by_argmax(x, y)), k


@pytest.mark.parametrize("n", [2, 3])
def test_spd_distance_of_swapped_pairs_equals_the_ordered_call(n, rng):
    """Pairs the kernel must swap into lexicographic order give, bit for bit,
    the distances of the pairs passed in that order, with tie-heavy entries,
    signed zeros and equal rows."""
    sp = make_space(f"spd{n}")

    def integer_spd(m):
        mats = rng.integers(-1, 2, (m, n, n)).astype(np.float64)
        mats = np.triu(mats, 1)
        mats = mats + np.swapaxes(mats, 1, 2)
        mats[:, np.arange(n), np.arange(n)] = rng.integers(n, n + 2, (m, n))
        return mats.reshape(m, -1)

    a, b = integer_spd(300), integer_spd(300)
    b[:40] = a[:40]
    b[40:60] = np.where(a[40:60] == 0.0, -0.0, a[40:60])  # equal up to signed zeros
    swap = _lex_greater_by_argmax(a, b)
    lo, hi = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
    want = sp.distance_many(lo, hi)
    assert swap.any() and not swap.all() and np.all(want[:60] == 0.0)
    assert sp.distance_many(a, b).tobytes() == want.tobytes()
    assert sp.distance_many(b, a).tobytes() == want.tobytes()


TABLE_SPACES = ["euclidean0", "euclidean3", "spd2", "spd3", "simplex1", "simplex3",
                "histogram1", "histogram8", "circle"]


@pytest.mark.parametrize("name", TABLE_SPACES)
def test_distance_tables_equal_row_wise_calls(name, rng):
    """A (c, r) table from (c, 1, dim) and (1, r, dim) stacks holds, bit for
    bit, the distances of the row-wise calls, in either orientation and
    with either stack first; so does a (c, r, 2) stack against (r, 1, dim)."""
    sp = make_space(name)
    centers = sp.random_payloads(rng, 7, 0.5)
    rows = sp.random_payloads(rng, 33, 0.5)
    rows[3] = centers[2]  # an identical pair must come out exactly 0.0
    want = np.stack([sp.distance_many(np.broadcast_to(c, rows.shape), rows) for c in centers])
    assert want[2, 3] == 0.0
    for got in (sp.distance_many(centers[:, None], rows[None]),
                sp.distance_many(rows[None], centers[:, None])):
        assert got.shape == (7, 33)
        assert np.array_equal(got, want), name
    for got in (sp.distance_many(rows[:, None], centers[None]),
                sp.distance_many(centers[None], rows[:, None])):
        assert got.shape == (33, 7)
        assert np.array_equal(got, want.T), name
    pairs = np.stack([centers[:, None].repeat(33, 1), centers[::-1, None].repeat(33, 1)], -2)
    got = sp.distance_many(pairs, rows[:, None])
    assert got.shape == (7, 33, 2)
    assert np.array_equal(got[..., 0], want) and np.array_equal(got[..., 1], want[::-1]), name


# Spaces for the blocked-wrapper test: every bundled kind, payload widths on
# both sides of the fold limit of eight, and a histogram on a non-uniform grid.
BLOCK_SPACES = {
    **{name: make_space(name) for name in (
        "euclidean0", "euclidean1", "euclidean3", "euclidean7", "euclidean8", "spd2", "spd3",
        "simplex1", "simplex3", "simplex7", "simplex8", "histogram1", "histogram8", "circle",
    )},
    "histogram9-uneven": HistogramSpace(np.array([0.0, 0.1, 0.15, 0.4, 0.45, 0.7, 1.0, 1.3, 2.0])),
}
BLOCK_COUNTS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]


def _numpy_fold_rows(x, norm=False):
    """The numpy reductions `_fold_rows` replaces: the oracle's forms."""
    return np.linalg.norm(x, axis=-1) if norm else np.add.reduce(x, axis=-1)


def _reference_euclidean(a, b):
    """The euclidean kernel in plain numpy form, the oracle: numpy's norm,
    then always a mask of the rows to redo (no min/max shortcut)."""
    with np.errstate(over="ignore"):
        diff = a - b
        out = np.linalg.norm(diff, axis=-1)
    redo = (out < spaces_module._SQRT_TINY) | (out == math.inf)
    if redo.any():
        redo[redo] = diff[redo].any(axis=-1)
    if redo.any():
        a, b = np.broadcast_arrays(a, b)
        out[redo] = spaces_module._scaled_norms(a[redo], b[redo])
    return out


def _reference_distances(sp, a, b, monkeypatch):
    """One whole kernel call with numpy's reductions in place of the folds."""
    with monkeypatch.context() as patch:
        patch.setattr(spaces_module, "_fold_rows", _numpy_fold_rows)
        if isinstance(sp, spaces_module.EuclideanSpace):
            return _reference_euclidean(a, b)
        return sp._distance_many(a, b)


def _block_test_stacks(sp, n, rng):
    """n random pairs; some rows equal up to the signs of their zeros (from
    the dense sequence, whose points hold exact zeros), at block edges among
    them, and for euclidean targets pairs 1e-170 and 2e170 apart."""
    a, b = sp.random_payloads(rng, n, 0.7), sp.random_payloads(rng, n, 0.7)
    equal = sorted({i for i in (0, 3, _BLOCK_ROWS - 1, _BLOCK_ROWS, n - 1) if 0 <= i < n})
    if equal:
        z = sp.dense_payloads(len(equal))
        a[equal] = z
        b[equal] = np.where(z == 0.0, -z, z)
    if isinstance(sp, spaces_module.EuclideanSpace) and sp.dim and n > 6:
        a[5], b[5] = 0.0, 1e-170
        a[6], b[6] = 1e170, -1e170
    return a, b, equal


@pytest.mark.parametrize("n", BLOCK_COUNTS)
@pytest.mark.parametrize("name", list(BLOCK_SPACES))
def test_blocked_distance_many_has_the_bits_of_one_kernel_call(name, n, rng, monkeypatch):
    """Differential test of the row blocks and the column folds.

    Equal stacks, one row against many (either side) and a (c, r) table,
    on both sides of each block edge, give through `distance_many` the
    bits of one whole kernel call with numpy's reductions (the forms the
    folds replaced); rows equal up to signed zeros give exactly 0.0.  A
    sample of rows, the block edges among them, is checked against
    one-row `_distance_many` calls too.
    """
    sp = BLOCK_SPACES[name]
    a, b, equal = _block_test_stacks(sp, n, rng)
    want = _reference_distances(sp, a, b, monkeypatch)
    got = sp.distance_many(a, b)
    assert got.shape == (n,) and got.tobytes() == want.tobytes(), name
    assert np.all(got[equal] == 0.0), name
    sample = {*equal, *rng.integers(0, max(n, 1), 12).tolist(), _BLOCK_ROWS - 2, _BLOCK_ROWS + 1}
    for i in sorted(i for i in sample if 0 <= i < n):
        assert sp._distance_many(a[i:i + 1], b[i:i + 1]).tobytes() == want[i:i + 1].tobytes(), (name, i)
    if n == 0:
        return
    one = b[:1]
    want_one = _reference_distances(sp, a, one, monkeypatch)
    assert sp.distance_many(a, one).tobytes() == want_one.tobytes(), name
    assert sp.distance_many(one[0], a).tobytes() == want_one.tobytes(), name
    centers = a[:3]
    want_table = _reference_distances(sp, centers[:, None], b[None], monkeypatch)
    got_table = sp.distance_many(centers[:, None], b[None])
    assert got_table.shape == (len(centers), n), name
    assert got_table.tobytes() == want_table.tobytes(), name


def _order_sensitive_rows(rng, m, width):
    """Rows of mixed magnitude (1e-300 to 1e300, with runs of near-equal
    magnitudes that cancel), subnormals and signed zeros."""
    exponents = rng.choice([-300.0, -150.0, -16.0, 0.0, 16.0, 150.0, 300.0], (m, width))
    exponents += rng.uniform(-2.0, 2.0, (m, width)) * (rng.random((m, width)) < 0.5)
    x = rng.choice([-1.0, 1.0], (m, width)) * rng.uniform(1.0, 10.0, (m, width)) * 10.0**exponents
    x[rng.random((m, width)) < 0.05] = 5e-324 * rng.integers(1, 1 << 20)
    zeros = rng.random((m, width)) < 0.1
    x[zeros] = rng.choice([-0.0, 0.0], np.count_nonzero(zeros))
    x[:3] = [-0.0] * width, [0.0] * width, [5e-324] * width
    return x


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_fold_rows_has_the_bits_of_numpy_reductions(width, rng):
    """The numpy fact the column folds rest on: below eight terms numpy sums
    a row left to right from +0.0, so `_fold_rows` has the bits of
    `np.add.reduce(x, axis=-1)` and `np.linalg.norm(x, axis=-1)`.

    The rows are drawn so that the order of a sum shows: for widths 3 to 7
    another order (right to left) gives other bits on some of them, so a
    numpy release that reorders its short sums fails here.  Widths 8 and 9
    take numpy's own reduction, as stacks of fewer than 64 rows do.  One-row,
    (m, w) and (c, r, w) stacks.
    """
    x = _order_sensitive_rows(rng, 4000, width)
    for stack in (x, x[:64], x[:1], x.reshape(40, 100, width)):
        for norm, want in ((False, np.add.reduce(stack, axis=-1)),
                           (True, np.linalg.norm(stack, axis=-1))):
            got = spaces_module._fold_rows(stack, norm)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (width, norm)
    if 3 <= width < 8:
        backwards = functools.reduce(np.add, x[:, ::-1].T, np.zeros(x.shape[0]))
        assert backwards.tobytes() != np.add.reduce(x, axis=-1).tobytes()


BAD_STACKS = [
    ("euclidean3", (2, 4), (2, 4)),  # a 4-D norm at the parent, without complaint
    ("euclidean3", (2, 3), (2, 4)),
    ("circle", (2, 2), (2, 2)),  # the parent read column 0 of 2-column rows
    ("histogram8", (2, 7), (2, 7)),  # IndexError at the parent
    ("spd2", (2, 3), (2, 3)),  # a reshape ValueError at the parent
    ("simplex3", (3, 3), (4, 3)),  # leading axes that do not broadcast
    ("spd2", (3, 4), (2, 4)),
    ("histogram8", (2, 5, 8), (3, 5, 8)),
    ("euclidean0", (3, 0), (4, 0)),
]


@pytest.mark.parametrize("name, shape_a, shape_b", BAD_STACKS)
def test_distance_many_refuses_stacks_it_cannot_pair(name, shape_a, shape_b):
    """A stack whose last axis is not `dim`, or whose leading axes do not
    broadcast, is refused with DimensionMismatchError, in either order."""
    sp = make_space(name)
    a, b = np.ones(shape_a), np.ones(shape_b)
    with pytest.raises(DimensionMismatchError):
        sp.distance_many(a, b)
    with pytest.raises(DimensionMismatchError):
        sp.distance_many(b, a)


@pytest.mark.parametrize("name, shape_a, shape_b", BAD_STACKS)
def test_geodesic_many_refuses_stacks_it_cannot_pair(name, shape_a, shape_b):
    """The same refusal for geodesic endpoints, and for times whose shape
    does not broadcast against well-formed endpoints."""
    sp = make_space(name)
    a, b = np.ones(shape_a), np.ones(shape_b)
    t = np.full(shape_a[:-1], 0.5)
    with pytest.raises(DimensionMismatchError):
        sp.geodesic_many(a, b, t)
    good = sp.random_payloads(np.random.default_rng(0), 3)
    with pytest.raises(DimensionMismatchError):
        sp.geodesic_many(good, good, np.full(4, 0.5))


def test_geodesic_endpoints_exact(spaces, rng):
    for sp in spaces.values():
        a = sp.random_payloads(rng, 16)
        b = sp.random_payloads(rng, 16)
        assert np.array_equal(sp.geodesic_many(a, b, np.zeros(16)), a), sp.tag
        assert np.array_equal(sp.geodesic_many(a, b, np.ones(16)), b), sp.tag


def test_geodesic_constant_speed(spaces, rng):
    for sp in spaces.values():
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


@pytest.mark.parametrize("name", GEODESIC_SPACES + ["euclidean0"])
def test_geodesic_time_column_gives_one_stack_per_time(name, rng):
    """(atoms, dim) endpoints with (k, 1) times give a (k, atoms, dim) stack
    whose row i has the bits of the call at time t_i alone; endpoint times
    return the endpoints verbatim."""
    sp = make_space(name)
    a, b = sp.random_payloads(rng, 9), sp.random_payloads(rng, 9)
    t = np.array([0.0, 0.3, 1.0 - 2.0**-20, 1.0, 0.75])
    got = sp.geodesic_many(a, b, t[:, None])
    assert got.shape == (5, 9, sp.dim)
    for i, ti in enumerate(t):
        assert np.array_equal(got[i], sp.geodesic_many(a, b, np.full(9, ti))), (name, ti)
    assert np.array_equal(got[0], a) and np.array_equal(got[3], b), name


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


@pytest.mark.parametrize("name", GEODESIC_SPACES)
def test_geodesic_point_does_not_depend_on_the_times_asked_with_it(name, rng):
    """A geodesic point has the same bits whatever other times come in the
    same call: one, two or three of the times, or a scattered subset, give
    the rows of the call over all of them.  The relaxation asks only for
    the cells strictly inside (0, 1) and relies on this.  (The spd power
    once took another numpy loop for one or two times.)"""
    sp = make_space(name)
    t = rng.uniform(0.0, 1.0, 600)
    t[::7] = 0.5  # a square root, where spd's two loops part most often
    for a, b in _endpoint_pairs(sp, rng):
        full = sp.geodesic_many(a, b, t)
        for start in range(0, t.size, 53):
            for width in (1, 2, 3):
                part = sp.geodesic_many(a, b, t[start:start + width])
                assert part.tobytes() == full[start:start + width].tobytes(), (name, start, width)
        keep = rng.random(t.size) < 0.1
        assert sp.geodesic_many(a, b, t[keep]).tobytes() == full[keep].tobytes(), name
    a, b = sp.random_payloads(rng, t.size), sp.random_payloads(rng, t.size)
    full = sp.geodesic_many(a, b, t)
    for i in range(0, t.size, 41):
        part = sp.geodesic_many(a[i:i + 1], b[i:i + 1], t[i:i + 1])
        assert part.tobytes() == full[i:i + 1].tobytes(), (name, i)


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
