"""Quantization and counterexample-fixture tests.

Hand-derived frozen traces:

Countable snap, values (0.0, 0.3, 1.0, 1.1), eps 0.5:
  the snap list is the map's own distinct values in atom order; first
  strict cover gives labels (0, 0, 2, 2) and sup error max(0.3, 0.1) = 0.3.

Three-step construction, f = (0.05, 2, 3) vs h = 0, weights 1, p = 1,
eps = 0.9 (budget eps/3 = 0.3 per step):
  step 1 reverts the 0.05 atom (error 0.05 < 0.3), leaving measure 2;
  snap radius R = 0.9 / (3 * 2) = 0.15 keeps both values 2 and 3 as their
  own centers (steps 2 and 3 cost 0); total error 0.05.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metriclp import (
    AtomSet,
    CapabilityError,
    Domain,
    MeasurableMap,
    MetricLpError,
    almost_simple_approx,
    countable_quantize,
    divergence_fixture,
    dp_distance,
    SimpleMap,
    is_member,
    make_space,
    measure,
    orthonormal_lower_bound,
    pointwise_distance,
    restrict,
    simple_approx_sup,
)
from metriclp import quantize, spaces
from metriclp.maps import check_p, dp_from_pointwise
from metriclp.quantize import _best_errors, _divergence_grid, _first_cover, dedup_rows_in_order

from .conftest import ill_conditioned_spd

E1 = make_space("euclidean1")


def line_map(domain, values):
    return MeasurableMap(domain, E1, np.asarray(values, dtype=float)[:, None])


def unique_rows_in_order(values):
    """The np.unique(axis=0) form of `dedup_rows_in_order`, its oracle."""
    uniq, first, inverse = np.unique(values, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq[order], rank[inverse.reshape(-1)]


def test_dedup_rows_in_order_matches_np_unique(rng):
    """The lexsort dedup gives np.unique's rows, bits, labels and dtypes:
    small-integer rows with +0.0 and -0.0 mixed (which are one row, with
    the first occurrence's bits), bool rows, and empty stacks."""
    stacks = [np.zeros((0, 3)), np.zeros((5, 0)), np.zeros((0, 0)), np.ones((1, 2))]
    for _ in range(100):
        m, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        rows = rng.integers(-2, 3, (m, d)).astype(float)
        rows[rng.random((m, d)) < 0.3] *= -1.0  # sign flips: a 0.0 turns into -0.0
        stacks += [rows, rng.random((m, d)) < 0.5]
    for values in stacks:
        (want, want_labels), (got, got_labels) = (
            unique_rows_in_order(values), dedup_rows_in_order(values))
        assert got.shape == want.shape and got.dtype == want.dtype, values
        assert got.tobytes() == want.tobytes(), values
        assert got_labels.dtype == want_labels.dtype
        assert np.array_equal(got_labels, want_labels), values
    assert np.signbit(dedup_rows_in_order(np.array([[-0.0], [0.0]]))[0]).all()


# ---------------------------------------------------------------------------
# countable-range quantization
# ---------------------------------------------------------------------------


def test_countable_quantize_frozen_trace():
    dom = Domain(np.ones(4))
    f = line_map(dom, [0.0, 0.3, 1.0, 1.1])
    simple, report = countable_quantize(f, 0.5)
    assert np.array_equal(simple.labels, [0, 0, 2, 2])
    assert np.array_equal(simple.value_table[[0, 2]].ravel(), [0.0, 1.0])
    assert report.achieved_error == pytest.approx(0.3, rel=0, abs=0)
    assert report.achieved_error < 0.5
    assert simple.range_size == 2


def test_countable_quantize_is_identity_at_tiny_eps():
    dom = Domain(np.ones(3))
    f = line_map(dom, [0.0, 5.0, -2.0])
    simple, report = countable_quantize(f, 1e-9)
    assert report.achieved_error == 0.0
    assert np.array_equal(simple.to_map().values, f.values)


def test_countable_quantize_sigma_finite_mode(rng):
    dom = Domain(np.ones(6))
    f = line_map(dom, rng.normal(size=6))
    pieces = [AtomSet([0, 1, 2], 6), AtomSet([3, 4, 5], 6)]
    simple, report = countable_quantize(f, 0.4, pieces=pieces, p=1.0)
    assert report.achieved_error < 0.4
    assert dp_distance(simple.to_map(), f, 1.0) == pytest.approx(report.achieved_error)


def test_countable_quantize_rejects_overlapping_pieces(rng):
    dom = Domain(np.ones(4))
    f = line_map(dom, rng.normal(size=4))
    with pytest.raises(MetricLpError):
        countable_quantize(f, 0.5, pieces=[AtomSet([0, 1], 4), AtomSet([1, 2, 3], 4)], p=1.0)


def test_countable_quantize_needs_positive_eps(rng):
    dom = Domain(np.ones(2))
    f = line_map(dom, [0.0, 1.0])
    with pytest.raises(MetricLpError):
        countable_quantize(f, 0.0)


def test_countable_quantize_budgets_past_a_thousand_pieces():
    """Piece n's budget divides by 2**(n+1): past n = 1022 that power is no
    float, and the int product used to raise OverflowError.  The budget is
    formed in floats and an underflowed one is raised to the smallest
    positive float, so each one-atom piece still covers itself."""
    n = 1100
    dom = Domain(np.ones(n))
    f = line_map(dom, np.arange(n, dtype=float) / n)
    pieces = [AtomSet([i], n) for i in range(n)]
    simple, report = countable_quantize(f, 0.5, pieces=pieces, p=2.0)
    assert np.array_equal(simple.labels, np.arange(n))
    assert np.array_equal(simple.value_table, f.values)
    assert report.achieved_error == report.step_breakdown["worst_piece_sup"] == 0.0
    assert report.range_size == n


# The parent implementation of the sigma-finite mode, kept as the oracle of
# the one-loop `countable_quantize`: every piece went through `restrict` to
# a map of its own, was quantized in sup mode with its own report and D_inf
# pass, and the pieces' tables were stacked.


def oracle_quantize_once(f, eps):
    table, inverse = dedup_rows_in_order(f.values)
    labels = _first_cover(f.space, table, table, eps)[inverse]
    if np.any(labels < 0):
        raise MetricLpError("quantization failed to cover a value")
    used = labels.max(initial=-1) + 1
    out = SimpleMap(f.domain, f.space, labels, table[:used])
    achieved = dp_distance(f, out, math.inf)
    report = quantize.ApproxReport(
        p=math.inf,
        target_eps=eps,
        achieved_error=achieved,
        range_size=out.range_size,
        altered_measure=float(np.sum(f.domain.weights[np.isfinite(f.domain.weights)])),
    )
    return out, report


def oracle_countable_quantize(f, eps, pieces=None, p=None):
    if pieces is None:
        return oracle_quantize_once(f, eps)
    p = check_p(p)
    n_atoms = f.domain.atom_count
    seen = np.zeros(n_atoms, dtype=bool)
    labels = np.zeros(n_atoms, dtype=np.int64)
    tables = []
    offset = 0
    worst = 0.0
    for n, piece in enumerate(pieces):
        if seen[piece.indices].any():
            raise MetricLpError("pieces must be disjoint")
        seen[piece.indices] = True
        mu = measure(f.domain, piece)
        if math.isinf(mu):
            raise MetricLpError("sigma-finite pieces must have finite measure")
        budget = eps if mu == 0 else eps / (2 ** (n + 1) * mu) ** (1.0 / p)
        sub, rep = oracle_quantize_once(restrict(f, piece), budget)
        labels[piece.indices] = sub.labels + offset
        tables.append(sub.value_table)
        offset += sub.value_table.shape[0]
        worst = max(worst, rep.achieved_error)
    if not seen.all():
        raise MetricLpError("pieces must cover the domain")
    table = np.vstack(tables) if tables else np.zeros((0, f.space.dim))
    out = SimpleMap(f.domain, f.space, labels, table)
    report = quantize.ApproxReport(
        p=p,
        target_eps=eps,
        achieved_error=dp_distance(f, out, p),
        range_size=out.range_size,
        altered_measure=float(np.sum(f.domain.weights[np.isfinite(f.domain.weights)])),
        step_breakdown={"worst_piece_sup": worst},
    )
    return out, report


def oracle_fold_base(f, h, labels, table):
    """Label -1 takes h's value: each distinct value of h on those atoms, in
    atom order, becomes one more table row holding its first occurrence."""
    labels = labels.copy()
    index, rows = {}, []
    for i in np.flatnonzero(labels < 0).tolist():
        key = tuple(h.values[i].tolist())  # -0.0 and 0.0 are one key
        if key not in index:
            index[key] = len(rows)
            rows.append(h.values[i][None, :])
        labels[i] = table.shape[0] + index[key]
    return SimpleMap(f.domain, f.space, labels, np.vstack([table, *rows]))


def oracle_almost_simple_approx(f, h, p, eps):
    """The four-pass construction: membership, deviations, step 3 and the
    achieved error each run the ground metric, and step 2 sums each ball
    prefix's discarded mass afresh.  Step sums are in units of (eps/3)**p
    and each step's error is D_p over that step's atoms."""
    p = check_p(p)
    if not is_member(f, h, p):
        raise MetricLpError("f must lie at finite D_p distance from h")
    n_atoms = f.domain.atom_count
    d = pointwise_distance(f, h)
    w = np.where(np.isinf(f.domain.weights), 0.0, f.domain.weights)
    live = (w > 0) & (d > 0)
    contrib = np.zeros(n_atoms)
    with np.errstate(over="ignore", under="ignore"):
        contrib[live] = w[live] * (d[live] / (eps / 3.0)) ** p

    def step_error(mask, dist):
        return dp_from_pointwise(np.where(mask, dist, 0.0), f.domain.weights, p)

    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    cum = np.cumsum(contrib[order])

    def step1_sum(n):
        k = int(np.searchsorted(d_sorted, 1.0 / n, side="left"))
        return float(cum[k - 1]) if k else 0.0

    n0 = quantize._smallest_index(1, quantize.STEP_SEARCH_CAP, lambda n: step1_sum(n) < 1.0)
    altered_mask = d >= 1.0 / n0
    step1 = step_error(~altered_mask, d)
    altered = AtomSet.from_mask(altered_mask)
    mu_altered = measure(f.domain, altered)
    if mu_altered == 0.0:
        out = oracle_fold_base(f, h, np.full(n_atoms, -1), np.zeros((0, f.space.dim)))
        return out, quantize.ApproxReport(
            p=p, target_eps=eps, achieved_error=dp_distance(f, h, p), range_size=out.range_size,
            altered_measure=0.0, step_breakdown={"step1": step1, "step2": 0.0, "step3": 0.0},
            flags={"degenerate_altered_set": True},
        )
    radius = eps / (3.0 * mu_altered ** (1.0 / p))
    dense, inverse = dedup_rows_in_order(f.values[altered_mask])
    cover = _first_cover(f.space, dense, dense, radius)[inverse]
    cover = np.where(cover < 0, dense.shape[0], cover)
    alt_contrib = contrib[altered_mask]
    n1 = quantize._smallest_index(
        1, dense.shape[0], lambda n: float(alt_contrib[cover >= n].sum()) < 1.0
    )
    kept = cover < n1
    labels = np.full(n_atoms, -1)
    alt_idx = altered.indices
    labels[alt_idx[kept]] = cover[kept]
    out = oracle_fold_base(f, h, labels, dense[:n1])
    g = out.to_map()
    keep_set = AtomSet(alt_idx[kept], n_atoms)
    dist_kept = np.zeros(n_atoms)
    dist_kept[keep_set.indices] = f.space.distance_many(
        f.values[keep_set.indices], g.values[keep_set.indices]
    )
    kept_mask = labels >= 0
    return out, quantize.ApproxReport(
        p=p, target_eps=eps, achieved_error=dp_distance(f, out, p), range_size=out.range_size,
        altered_measure=float(measure(f.domain, keep_set)),
        step_breakdown={"step1": step1, "step2": step_error(altered_mask & ~kept_mask, d),
                        "step3": step_error(kept_mask, dist_kept)},
    )


def assert_same_quantization(got, want):
    (out, report), (ref, ref_report) = got, want
    assert np.array_equal(out.labels, ref.labels)
    assert out.value_table.shape == ref.value_table.shape
    assert out.value_table.tobytes() == ref.value_table.tobytes()
    # repr tells every float apart, -0.0 from 0.0 included
    assert repr(dataclasses.asdict(report)) == repr(dataclasses.asdict(ref_report))


def oracle_weights(rng, n, kind):
    w = rng.uniform(0.05, 2.0, n)
    if kind in ("zero", "both"):
        w[rng.random(n) < 0.3] = 0.0
    if kind in ("infinite", "both"):
        w[rng.random(n) < 0.2] = math.inf
    return w


def random_pieces(rng, w, count):
    """`count` disjoint pieces covering the atoms, in random order; with
    zero weights about, one piece holds only null atoms, and some pieces
    may be empty."""
    n = w.size
    owner = rng.integers(0, count, n)
    null = np.flatnonzero(w == 0.0)
    if count > 1 and null.size:
        owner[null[: max(1, null.size // 2)]] = count - 1
        owner[(owner == count - 1) & (w > 0)] = 0
    return [AtomSet(np.flatnonzero(owner == j), n) for j in rng.permutation(count)]


ORACLE_SPACES = ["euclidean2", "spd2", "simplex3", "circle"]


@pytest.mark.parametrize("weights", ["plain", "zero", "infinite", "both"])
@pytest.mark.parametrize("name", ORACLE_SPACES)
def test_countable_quantize_matches_the_per_piece_oracle_bit_for_bit(name, weights, rng):
    sp = make_space(name)
    for _trial in range(2):
        n = int(rng.integers(20, 80))
        w = oracle_weights(rng, n, weights)
        dom = Domain(w)
        values = sp.random_payloads(rng, n // 3 + 1)[rng.integers(0, n // 3 + 1, n)]
        f = MeasurableMap(dom, sp, values)
        for eps in (1e-9, 0.3, 1.5):
            assert_same_quantization(countable_quantize(f, eps), oracle_countable_quantize(f, eps))
            for count in range(1, 7):
                pieces = random_pieces(rng, w, count)
                for p in (1.0, 3.5):
                    if np.isinf(w).any():
                        with pytest.raises(MetricLpError, match="finite measure"):
                            countable_quantize(f, eps, pieces=pieces, p=p)
                        continue
                    assert_same_quantization(
                        countable_quantize(f, eps, pieces=pieces, p=p),
                        oracle_countable_quantize(f, eps, pieces=pieces, p=p),
                    )


@pytest.mark.parametrize("weights", ["plain", "zero", "infinite", "both"])
@pytest.mark.parametrize("name", ORACLE_SPACES)
def test_almost_simple_matches_the_four_pass_oracle_bit_for_bit(name, weights, rng):
    sp = make_space(name)
    for _trial in range(2):
        n = int(rng.integers(20, 80))
        w = oracle_weights(rng, n, weights)
        dom = Domain(w)
        h = MeasurableMap(dom, sp, sp.random_payloads(rng, n))
        values = sp.random_payloads(rng, n // 3 + 1)[rng.integers(0, n // 3 + 1, n)]
        # some atoms, and every infinite one, keep h's value
        same = (rng.random(n) < 0.3) | np.isinf(w)
        values[same] = h.values[same]
        f = MeasurableMap(dom, sp, values)
        for p in (1.0, 3.5):
            for eps in (0.05, 0.3, 50.0):
                assert_same_quantization(
                    almost_simple_approx(f, h, p, eps), oracle_almost_simple_approx(f, h, p, eps)
                )


@pytest.mark.parametrize("name", ORACLE_SPACES)
def test_almost_simple_keeps_its_bytes_where_step_terms_overflow(name, rng):
    """A field with a null atom, at budgets where (d / (eps/3))**p
    overflows: the capped step terms give the bytes of the oracle's
    uncapped ones, since a capped term only enters sums of 1 or more."""
    sp = make_space(name)
    n = 24
    w = np.full(n, 1.0 / n)
    w[3] = 0.0
    dom = Domain(w)
    h = MeasurableMap(dom, sp, sp.random_payloads(rng, n))
    values = sp.random_payloads(rng, 5)[rng.integers(0, 5, n)]
    values[::4] = h.values[::4]
    f = MeasurableMap(dom, sp, values)
    d_max = float(pointwise_distance(f, h).max())
    for p, eps in ((2.0, 0.3), (7.5, 1e-60), (2.0, 1e-170)):
        with np.errstate(over="ignore"):
            overflows = np.isinf(np.float64(d_max / (eps / 3.0)) ** p)
        assert overflows == (eps < 1e-50)
        assert_same_quantization(
            almost_simple_approx(f, h, p, eps), oracle_almost_simple_approx(f, h, p, eps)
        )


# ---------------------------------------------------------------------------
# three-step almost-simple construction
# ---------------------------------------------------------------------------


def test_almost_simple_frozen_trace():
    dom = Domain(np.ones(3))
    f = line_map(dom, [0.05, 2.0, 3.0])
    h = line_map(dom, [0.0, 0.0, 0.0])
    simple, report = almost_simple_approx(f, h, 1.0, 0.9)
    assert report.achieved_error == pytest.approx(0.05, rel=0, abs=1e-15)
    assert report.step_breakdown["step1"] == pytest.approx(0.05)
    assert report.step_breakdown["step2"] == 0.0
    assert report.step_breakdown["step3"] == 0.0
    assert all(v < 0.3 for v in report.step_breakdown.values())
    # the centers 2 and 3, then the base value 0 of the reverted atom
    assert simple.labels.tolist() == [2, 0, 1]
    assert simple.range_size == 3
    assert report.altered_measure == 2.0
    assert np.array_equal(simple.values.ravel(), [0.0, 2.0, 3.0])


def test_almost_simple_degenerate_when_already_base():
    dom = Domain(np.ones(4))
    f = line_map(dom, [0.0, 0.0, 0.0, 0.0])
    simple, report = almost_simple_approx(f, f, 2.0, 0.5)
    assert report.flags.get("degenerate_altered_set")
    # every atom takes the base's one value
    assert simple.range_size == report.range_size == 1
    assert np.all(simple.labels == 0) and simple.value_table.tolist() == [[0.0]]
    assert report.achieved_error == 0.0


def test_almost_simple_respects_budgets_on_random_fields(rng):
    dom = Domain.grid(2, 12)
    for name in ("euclidean2", "simplex3"):
        sp = make_space(name)
        from metriclp import fields

        f = fields.smooth_field(dom, sp, rng)
        h = fields.smooth_field(dom, sp, rng)
        for p in (1.0, 2.0):
            for eps in (0.6, 0.15):
                simple, report = almost_simple_approx(f, h, p, eps)
                assert report.achieved_error < eps
                assert all(v < eps / 3 for v in report.step_breakdown.values())
                assert dp_distance(f, simple, p) == report.achieved_error


def test_base_rows_keep_the_inputs_grid(rng):
    """A base whose domain has the grid's weights but no geometry (as read
    from an older file) gives a result on the input's grid, which the
    relaxation needs."""
    sp = make_space("euclidean2")
    grid = Domain.grid(2, 4)
    f = MeasurableMap(grid, sp, sp.random_payloads(rng, 16))
    h = MeasurableMap(Domain(grid.weights.copy()), sp, f.values.copy())
    h.values[:8] = 0.0
    on_base = MeasurableMap(grid, sp, h.values.copy())  # the degenerate case
    for g in (f, on_base):
        simple, _ = almost_simple_approx(g, h, 2.0, 0.5)
        assert simple.domain.geometry == grid.geometry


def test_almost_simple_rejects_infinite_p(rng):
    dom = Domain(np.ones(2))
    f = line_map(dom, [0.0, 1.0])
    with pytest.raises(MetricLpError):
        almost_simple_approx(f, f, math.inf, 0.5)


def brute_first_cover(space, values, table, radius):
    """Reference first cover: the full pairwise distance block, then the
    first column strictly under the radius, else -1."""
    m, k = values.shape[0], table.shape[0]
    if m == 0 or k == 0:
        return np.full(m, -1)
    left = np.repeat(values, k, axis=0)
    right = np.tile(table, (m, 1))
    covered = space.distance_many(left, right).reshape(m, k) < radius
    return np.where(covered.any(axis=1), covered.argmax(axis=1), -1)


@pytest.mark.parametrize("name", ["euclidean2", "spd2", "simplex3", "circle"])
def test_first_cover_matches_brute_force(name, rng):
    check_first_cover_cases(make_space(name), rng)


@pytest.mark.parametrize("budget", [1, 7])
@pytest.mark.parametrize("name", ["euclidean2", "spd2", "simplex3", "circle"])
def test_first_cover_matches_brute_force_in_small_blocks(name, budget, rng, monkeypatch):
    """Pair budgets below one row's band (1) or spanning a few rows (7)."""
    monkeypatch.setattr(spaces, "BLOCK_PAIRS", budget)
    check_first_cover_cases(make_space(name), rng)


def check_first_cover_cases(sp, rng):
    """Spread, clustered and tie cases against `brute_first_cover`."""
    spread = sp.random_payloads(rng, 60)
    centers = sp.random_payloads(rng, 4)
    # clustered: short geodesic steps from four centers, with exact repeats
    clustered = sp.geodesic_many(
        centers[rng.integers(0, 4, 60)], spread, rng.uniform(0.0, 0.05, 60)
    )
    clustered[40:] = clustered[:20]
    cases = [(spread[:40], spread[20:]), (clustered, clustered[::3]), (clustered, spread[:10])]
    for values, table in cases:
        block = sp.distance_many(np.repeat(values, len(table), axis=0), np.tile(table, (len(values), 1)))
        # the last radius is the exact distance of value 1 to table row 0,
        # which must not count as a cover
        radii = [*np.quantile(block, [0.02, 0.2, 0.6]), block[len(table)]]
        for radius in radii:
            got = _first_cover(sp, values, table, radius)
            assert np.array_equal(got, brute_first_cover(sp, values, table, radius)), radius
        assert got[1] != 0
        assert np.array_equal(_first_cover(sp, values, table[:0], 1.0), np.full(len(values), -1))
        assert _first_cover(sp, values[:0], table, 1.0).shape == (0,)


def test_first_cover_with_overflowing_distances():
    """Pivot distances that overflow to inf (1e308 and -1e308 are 2e308
    apart) make the band useless; the scan then compares every open value
    and still matches brute force."""
    sp = make_space("euclidean1")
    values = np.array([[1e308], [-1e308], [0.0], [5.0]])
    table = np.array([[-1e308], [1e308], [4.0]])
    for radius in (math.inf, 2.0):
        got = _first_cover(sp, values, table, radius)
        assert np.array_equal(got, brute_first_cover(sp, values, table, radius)), radius
    # 0.0 and 5.0 are about 1e308 from row 0, a finite distance below inf
    # (the plain norm squared it to inf, and row 2 covered them)
    assert _first_cover(sp, values, table, math.inf).tolist() == [1, 0, 0, 0]


COVER_SPACES = ["euclidean2", "euclidean3", "spd2", "spd3", "simplex3", "histogram8", "circle"]


@given(
    name=st.sampled_from(COVER_SPACES),
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(0, 40),
    k=st.integers(0, 16),
    ill=st.booleans(),
)
def test_first_cover_property(name, seed, m, k, ill):
    """The pivot-banded scan equals the full distance block on clustered
    values with exact repeats, ill-conditioned SPD values (cond 1e6-1e8)
    and radii equal to exact pair distances, or one ulp above them."""
    sp = make_space(name)
    rng = np.random.default_rng(seed)
    if ill and name.startswith("spd"):
        pool = ill_conditioned_spd(sp, rng, 6)
    else:
        pool = sp.random_payloads(rng, 6, float(rng.choice([1e-3, 1.0])))
    n = m + k
    mixed = sp.geodesic_many(
        pool[rng.integers(0, 6, n)], pool[rng.integers(0, 6, n)], rng.uniform(0.0, 1.0, n)
    )
    if n > 1:  # exact repeats, inside and across the two stacks
        dup = rng.integers(0, n, n // 3)
        mixed[rng.integers(0, n, n // 3)] = mixed[dup]
    values, table = mixed[:m], mixed[m:]
    radii = [float(rng.uniform(0.0, 2.0))]
    if m and k:
        block = sp.distance_many(np.repeat(values, k, axis=0), np.tile(table, (m, 1)))
        exact = float(block[rng.integers(0, block.size)])
        radii += [exact, float(np.nextafter(exact, np.inf)), *np.quantile(block, [0.1, 0.5])]
    for radius in radii:
        got = _first_cover(sp, values, table, radius)
        assert np.array_equal(got, brute_first_cover(sp, values, table, radius)), radius


def test_quantizers_on_repeated_values_match_brute_force(rng):
    """Covering only the distinct rows and mapping the labels back gives
    the labels of a cover of every atom."""
    spd = make_space("spd2")
    dom = Domain(np.full(60, 1.0 / 60))
    values = spd.random_payloads(rng, 12, 0.8)[rng.integers(0, 12, 60)]
    f = MeasurableMap(dom, spd, values)
    simple, _ = countable_quantize(f, 0.5)
    table, _ = dedup_rows_in_order(values)
    assert np.array_equal(simple.labels, brute_first_cover(spd, values, table, 0.5))

    # a base 100 * I puts every value at distance >= 1 from it, so step 1
    # reverts nothing: the altered measure is 1 and the step-2 radius eps / 3
    h = MeasurableMap.constant(dom, spd, 100.0 * np.eye(2).reshape(-1))
    eps = 1.2
    simple, _ = almost_simple_approx(f, h, 2.0, eps)
    ref = brute_first_cover(spd, values, table, eps / 3.0)
    # the centers, then one row for the base's value if an atom takes it
    n1 = int((simple.value_table != h.values[0]).any(axis=1).sum())
    base = (ref < 0) | (ref >= n1)
    assert np.array_equal(simple.value_table, np.vstack([table[:n1], h.values[: int(base.any())]]))
    assert np.array_equal(simple.labels, np.where(base, n1, ref))

    plane = make_space("euclidean2")
    values = plane.random_payloads(rng, 9)[rng.integers(0, 9, 60)]
    f = MeasurableMap(dom, plane, values)
    h = MeasurableMap.constant(dom, plane, np.zeros(2))
    simple, report = simple_approx_sup(f, h, 0.4)
    assert not report.flags["net_fallback_used"]
    radius = float(plane.distance_many(values, values[0][None, :]).max())
    net = plane.epsilon_net(values[0], radius, 0.4)
    assert np.array_equal(simple.value_table, net)
    assert np.array_equal(simple.labels, brute_first_cover(plane, values, net, 0.4))


def test_sup_fallback_snaps_missed_atoms_to_nearest(rng, monkeypatch):
    """A net too sparse to cover the range: covered atoms keep their first
    cover, and each missed atom takes its nearest net point, ties to the
    lowest index."""
    plane = make_space("euclidean2")
    dom = Domain(np.ones(50))
    values = plane.random_payloads(rng, 25)[rng.integers(0, 25, 50)]
    f = MeasurableMap(dom, plane, values)
    h = MeasurableMap.constant(dom, plane, np.zeros(2))
    # three net points, the last two equal so ties are exercised
    sparse = np.array([values[0], [1.0, 1.0], [1.0, 1.0]])
    monkeypatch.setattr(plane, "epsilon_net", lambda center, radius, eps: sparse)
    simple, report = simple_approx_sup(f, h, 0.3)
    assert report.flags["net_fallback_used"]
    want = brute_first_cover(plane, values, sparse, 0.3)
    assert np.any(want < 0) and np.any(want >= 0)
    for i in np.flatnonzero(want < 0):
        dist = plane.distance_many(np.broadcast_to(values[i], sparse.shape), sparse)
        want[i] = int(np.argmin(dist))
    assert np.array_equal(simple.labels, want)
    assert np.array_equal(simple.value_table, sparse)


def test_sup_net_misses_only_an_atom_of_weight_zero():
    """The ball is centred and sized on the atoms of positive weight: an
    epsilon_net that covers it misses the null atom's value 100, which
    snaps to the one net point, flags the fallback and adds no error."""
    line = make_space("euclidean1")
    dom = Domain(np.array([1.0, 0.0]))
    f = MeasurableMap(dom, line, np.array([[0.0], [100.0]]))
    h = MeasurableMap.constant(dom, line, np.zeros(1))
    simple, report = simple_approx_sup(f, h, 0.5)
    assert simple.labels.tolist() == [0, 0]
    assert report.flags["net_fallback_used"]
    assert report.achieved_error == 0.0


# ---------------------------------------------------------------------------
# sup-norm quantization via epsilon nets
# ---------------------------------------------------------------------------


def test_sup_quantize_euclidean(rng):
    dom = Domain(np.ones(40))
    sp = make_space("euclidean2")
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 40))
    h = MeasurableMap(dom, sp, np.zeros((40, 2)))
    for eps in (0.5, 0.2):
        simple, report = simple_approx_sup(f, h, eps)
        assert report.achieved_error < eps
        assert dp_distance(simple, f, math.inf) == report.achieved_error


def test_sup_quantize_circle(rng):
    dom = Domain(np.ones(30))
    sp = make_space("circle")
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 30))
    h = MeasurableMap(dom, sp, np.zeros((30, 1)))
    simple, report = simple_approx_sup(f, h, 0.3)
    assert report.achieved_error < 0.3
    assert simple.range_size <= report.step_breakdown["net_size"]


def test_sup_quantize_histogram_refuses(rng):
    sp = make_space("histogram8")
    dom = Domain(np.ones(5))
    f = MeasurableMap(dom, sp, sp.random_payloads(rng, 5))
    with pytest.raises(CapabilityError):
        simple_approx_sup(f, f, 0.3)


# ---------------------------------------------------------------------------
# orthonormal-direction counterexample
# ---------------------------------------------------------------------------


def test_orthonormal_frozen_values():
    # one value for two orthonormal directions: best center is the midpoint,
    # error sqrt(1 - 1/2) = sqrt(2)/2
    rep = orthonormal_lower_bound(2, 1)
    assert rep.min_max_error == pytest.approx(0.7071067811865476, rel=0, abs=1e-15)
    assert rep.min_max_error == rep.pigeonhole_bound
    # ceil(6/2) = 3 directions somewhere: sqrt(1 - 1/3)
    rep62 = orthonormal_lower_bound(6, 2)
    assert rep62.min_max_error == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)


def test_orthonormal_brute_force_matches_pigeonhole():
    for n, k in ((2, 1), (4, 3), (5, 2), (6, 5)):
        rep = orthonormal_lower_bound(n, k)
        assert rep.min_max_error == pytest.approx(rep.pigeonhole_bound, rel=1e-15)


def test_orthonormal_best_map_achieves_the_bound():
    rep = orthonormal_lower_bound(4, 3)
    achieved = dp_distance(rep.best_map.to_map(), rep.mapping, math.inf)
    assert achieved == pytest.approx(rep.min_max_error, rel=1e-12)


def test_orthonormal_enough_values_costs_nothing():
    rep = orthonormal_lower_bound(4, 4)
    assert rep.min_max_error == 0.0


def test_orthonormal_rejects_large_instances():
    with pytest.raises(MetricLpError):
        orthonormal_lower_bound(13, 2)


# ---------------------------------------------------------------------------
# divergence fixtures
# ---------------------------------------------------------------------------


def test_divergence_unbounded_monotone():
    errors = [
        divergence_fixture("unbounded_base", n, 2.0).best_k_error
        for n in (16, 32, 64, 128, 256)
    ]
    assert all(b > a for a, b in zip(errors, errors[1:]))


def test_divergence_exponential_monotone():
    errors = [
        divergence_fixture("exponential_base", t, 1.0).best_k_error
        for t in (1, 2, 3, 4)
    ]
    assert all(b > a for a, b in zip(errors, errors[1:]))


def test_divergence_constant_below_k_piece():
    rep = divergence_fixture("unbounded_base", 128, 2.0)
    assert rep.best_k_error <= rep.best_constant_error


def test_divergence_rejects_sup_norm():
    with pytest.raises(MetricLpError):
        divergence_fixture("unbounded_base", 8, math.inf)


def test_divergence_rejects_p_outside_one_and_two_and_k_below_one():
    with pytest.raises(MetricLpError, match="p in"):
        divergence_fixture("unbounded_base", 8, 1.5)
    with pytest.raises(MetricLpError, match="k_values"):
        divergence_fixture("unbounded_base", 8, 2.0, 0)


@pytest.mark.parametrize("refinement", [0, -3, 2.5, "8", True, None])
@pytest.mark.parametrize("kind", ["unbounded_base", "exponential_base"])
def test_divergence_rejects_refinement_that_is_not_a_positive_integer(kind, refinement):
    with pytest.raises(MetricLpError, match="refinement"):
        divergence_fixture(kind, refinement, 1.0)


@pytest.mark.parametrize("k_values", [2.5, -1, "3", False, None])
def test_divergence_rejects_k_values_that_is_not_a_positive_integer(k_values):
    with pytest.raises(MetricLpError, match="k_values"):
        divergence_fixture("unbounded_base", 8, 2.0, k_values)


def test_divergence_accepts_numpy_integers():
    rep = divergence_fixture("unbounded_base", np.int64(64), 2.0, np.int32(3))
    assert repr(rep.best_k_error) == DIVERGENCE_BEST_K[("unbounded_base", 64, 2.0)]


# best_k_error (k = 3) of the verify suite's ten fixtures and criterion 06's
# grids: exact reprs of the earlier one-layer-at-a-time DP, kept bit for bit
DIVERGENCE_BEST_K = {
    ("unbounded_base", 64, 2.0): "0.5665252621590953",
    ("unbounded_base", 128, 2.0): "0.7068892717614922",
    ("unbounded_base", 256, 2.0): "0.8318363837571324",
    ("unbounded_base", 512, 2.0): "0.9580254474674054",
    ("unbounded_base", 1024, 2.0): "1.088108829772873",
    ("unbounded_base", 2048, 2.0): "1.2145151600684985",
    ("unbounded_base", 64, 1.0): "1.8115013789974428",
    ("unbounded_base", 128, 1.0): "2.377710141260624",
    ("unbounded_base", 256, 1.0): "2.9759721734059412",
    ("unbounded_base", 512, 1.0): "3.600861487756421",
    ("unbounded_base", 1024, 1.0): "4.244786678959207",
    ("exponential_base", 1, 1.0): "0.10262005652979139",
    ("exponential_base", 2, 1.0): "0.26589468860876264",
    ("exponential_base", 3, 1.0): "0.40187973511078057",
    ("exponential_base", 4, 1.0): "0.49814426796725253",
    ("exponential_base", 5, 1.0): "0.5612738785307958",
    ("exponential_base", 6, 1.0): "0.6016789970619154",
}


def test_divergence_best_k_error_pinned():
    for (kind, r, p), want in DIVERGENCE_BEST_K.items():
        assert repr(divergence_fixture(kind, r, p, 3).best_k_error) == want, (kind, r, p)


def reference_constant_error(w, h, p):
    """Best constant error from the weighted mean (p = 2) or the weighted
    median (p = 1), summed exactly with math.fsum."""
    order = np.argsort(h, kind="stable")
    w, h = w[order], h[order]
    if p == 2:
        c = math.fsum(w * h) / math.fsum(w)
        return math.sqrt(math.fsum(w * (h - c) ** 2))
    cw = np.cumsum(w)
    med = h[int(np.searchsorted(cw, cw[-1] / 2.0))]
    return math.fsum(w * np.abs(h - med))


@pytest.mark.parametrize(
    "kind, r, p",
    [*DIVERGENCE_BEST_K, ("exponential_base", 64, 1.0)],
)
def test_divergence_best_constant_is_the_exact_minimum(kind, r, p):
    """Layer 1 is the weighted mean or median cost, not a bracketing search
    stopped at a tolerance (which sat 2e-12 high on exponential r = 64)."""
    want = reference_constant_error(*_divergence_grid(kind, r, p), p)
    got = divergence_fixture(kind, r, p, 1).best_constant_error
    assert abs(got - want) <= 4e-15 * want


def test_best_k_dp_agrees_with_exhaustive_splits(rng):
    """Exhaustive split enumeration as an independent oracle for the DP."""

    def brute(w, h, p, k):
        n = h.size
        order = np.argsort(h)
        w, h = w[order], h[order]
        best = np.inf
        for segs in range(1, k + 1):
            for cuts in combinations(range(1, n), segs - 1):
                bounds = [0, *cuts, n]
                total = 0.0
                for i, j in zip(bounds[:-1], bounds[1:]):
                    ww, hh = w[i:j], h[i:j]
                    if p == 2:
                        c = (ww * hh).sum() / ww.sum()
                        total += float((ww * (hh - c) ** 2).sum())
                    else:
                        cw = np.cumsum(ww)
                        c = hh[np.searchsorted(cw, cw[-1] / 2.0)]
                        total += float((ww * np.abs(hh - c)).sum())
                best = min(best, total)
        return best ** (1.0 / p)

    for _ in range(40):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 5))
        w = rng.uniform(0.1, 2.0, n)
        h = rng.normal(0.0, 1.0, n)
        for p in (1.0, 2.0):
            got = _best_errors(w.copy(), h.copy(), p, k)
            assert got.shape == (k,)
            for layer in range(1, k + 1):
                want = brute(w, h, p, layer)
                assert got[layer - 1] == pytest.approx(want, abs=2e-7)


def best_errors_per_end(w, h, p, k):
    """The DP one segment end at a time, as `_best_errors` computed it before
    it took the ends in blocks: the oracle its blocks must match bit for bit."""
    order = np.argsort(h, kind="stable")
    w, h = w[order], h[order]
    n = h.size
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cwh = np.concatenate([[0.0], np.cumsum(w * h)])
    cwh2 = np.concatenate([[0.0], np.cumsum(w * h * h)])
    err = np.full((k + 1, n + 1), np.inf)
    err[:, 0] = 0.0
    for j in range(1, n + 1):
        i = np.arange(j)
        if p == 2:
            seg_w = cw[j] - cw[i]
            seg_wh = cwh[j] - cwh[i]
            seg_wh2 = cwh2[j] - cwh2[i]
            seg = np.maximum(seg_wh2 - seg_wh**2 / seg_w, 0.0)
        else:
            half = (cw[i] + cw[j]) / 2.0
            t = np.searchsorted(cw, half, side="left")
            t = np.clip(t, i + 1, j) - 1
            med = h[t]
            left = med * (cw[t + 1] - cw[i]) - (cwh[t + 1] - cwh[i])
            right = (cwh[j] - cwh[t + 1]) - med * (cw[j] - cw[t + 1])
            seg = np.maximum(left + right, 0.0)
        err[1:, j] = np.minimum.accumulate(np.min(err[:k, :j] + seg, axis=1))
    return err[1:, n] ** (1.0 / p)


def dp_cases(rng, sizes):
    """(w, h) pairs of the given sizes: spread values, few distinct values
    (ties across segment ends), and exact repeats of one value."""
    for n in sizes:
        w = rng.uniform(0.1, 2.0, n)
        h = rng.normal(0.0, 3.0, n)
        yield w, h
        yield w, np.round(h)
        yield w, np.full(n, h[0])


@pytest.mark.parametrize("budget", [1, 7, spaces.BLOCK_PAIRS])
def test_best_errors_in_blocks_match_the_per_end_dp_bit_for_bit(budget, rng, monkeypatch):
    """Blocks of one end (1), a few ends (7) and the default, with n from 1
    past several blocks: 600 ends are 47 default blocks of 13."""
    monkeypatch.setattr(spaces, "BLOCK_PAIRS", budget)
    sizes = [1, 2, 3, 7, 8, 29, *rng.integers(1, 120, 4)]
    if budget == spaces.BLOCK_PAIRS:
        sizes.append(600)
    with np.errstate(all="raise"):
        for w, h in dp_cases(rng, sizes):
            for p in (1.0, 2.0):
                k = int(rng.integers(1, 7))
                want = best_errors_per_end(w.copy(), h.copy(), p, k)
                got = _best_errors(w.copy(), h.copy(), p, k)
                assert got.tobytes() == want.tobytes(), (h.size, p, k)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_best_errors_memory_stays_in_blocks(p, rng):
    """At n = 4096 a full ends-by-starts table would take 128 MB; the blocks
    of BLOCK_PAIRS cells keep the peak under 8 MB."""
    w, h = rng.uniform(0.1, 2.0, 4096), rng.normal(0.0, 1.0, 4096)
    tracemalloc.start()
    try:
        _best_errors(w, h, p, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
