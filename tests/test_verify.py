"""Completeness and separability machinery tests."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from metriclp import (
    Domain,
    MeasurableMap,
    MetricLpError,
    NonConvergenceError,
    dp_distance,
    equivalent,
    make_space,
)
from metriclp import verify
from metriclp.spaces import MetricSpace
from metriclp.verify import (
    CauchySequenceSpec,
    build_dense_family,
    enumerate_members,
    fast_subsequence,
    geodesic_cauchy_fixture,
    incomplete_fixture,
    is_fast_cauchy,
    member_from_pairs,
    riesz_fischer_limit,
    separability_probe,
)

from .conftest import SPACE_NAMES

E1 = make_space("euclidean1")


def const_map(domain, c):
    return MeasurableMap(domain, E1, np.full((domain.atom_count, 1), float(c)))


def dyadic_spec(p=2.0):
    """Constants marching to 1 with gaps exactly 2^-n: a fast sequence."""
    dom = Domain(np.ones(1))

    def term(n):  # 1-based
        return const_map(dom, 1.0 - 2.0 ** (-(n - 1)))

    prefix = [term(n) for n in range(1, 7)]
    return CauchySequenceSpec(p=p, prefix=prefix, generator=term)


# ---------------------------------------------------------------------------
# fast subsequences
# ---------------------------------------------------------------------------


def test_fast_subsequence_of_harmonic_constants():
    dom = Domain(np.ones(1))
    maps = [const_map(dom, 1.0 / (j + 1)) for j in range(400)]
    picked = fast_subsequence(maps, 2.0)
    assert len(picked) >= 3
    assert picked == sorted(picked)
    for k in range(len(picked) - 1):
        gap = dp_distance(maps[picked[k]], maps[picked[k + 1]], 2.0)
        assert gap <= 2.0 ** (-(k + 1)) + 1e-12


def test_is_fast_cauchy_accepts_dyadic_and_rejects_slow():
    assert is_fast_cauchy(dyadic_spec())
    dom = Domain(np.ones(1))
    slow = CauchySequenceSpec(
        p=2.0,
        prefix=[const_map(dom, j / 4.0) for j in range(6)],
        generator=lambda n: const_map(dom, (n - 1) / 4.0),
    )
    assert not is_fast_cauchy(slow)


# ---------------------------------------------------------------------------
# limits with certificates
# ---------------------------------------------------------------------------


def test_riesz_fischer_limit_of_dyadic_constants():
    res = riesz_fischer_limit(dyadic_spec(), tol=1e-10)
    # the target m = ceil(-log2 tol) + 1 = 35 at tol 1e-10
    assert res.n_terms == 35
    assert res.residual <= 2.0 ** (-34)
    assert abs(res.limit.values[0, 0] - 1.0) <= res.residual + 1e-12
    for n, measured, bound in res.certificates:
        assert measured <= bound
        assert bound == pytest.approx(2.0 ** (-(n - 1)) + 1e-9)


def test_riesz_fischer_geodesic_fixture_all_spaces(rng):
    for name in SPACE_NAMES:
        sp = make_space(name)
        dom = Domain(rng.uniform(0.05, 0.15, 6))  # measure <= 1 precondition
        spec, known = geodesic_cauchy_fixture(dom, sp, rng, 2.0)
        res = riesz_fischer_limit(spec, tol=1e-10)
        gap = dp_distance(res.limit, known, 2.0)
        assert gap <= res.residual + 1e-9, name


def test_riesz_fischer_rejects_slow_prefix():
    dom = Domain(np.ones(1))
    spec = CauchySequenceSpec(
        p=2.0,
        prefix=[const_map(dom, j * 1.0) for j in range(4)],
        generator=lambda n: const_map(dom, n * 1.0),
    )
    with pytest.raises(MetricLpError):
        riesz_fischer_limit(spec)


def test_incomplete_target_raises_documented_error():
    spec = incomplete_fixture()
    assert is_fast_cauchy(spec)  # the visible prefix looks perfectly fast
    with pytest.raises(NonConvergenceError, match="stalled|schedule"):
        riesz_fischer_limit(spec, tol=1e-10)


def test_incomplete_target_stalls_at_index_20():
    """The batched gap pass reports the first gap over its budget: the
    fixture's grid rationals are 1e-6 apart from term 20 on.  Twelve terms
    are stored, so the first block pulls terms 13-24 and no block after it
    is pulled."""
    spec = incomplete_fixture()
    pulled = []
    inner = spec.generator

    def counting(n):
        pulled.append(n)
        return inner(n)

    spec.generator = counting
    with pytest.raises(NonConvergenceError) as info:
        riesz_fischer_limit(spec)
    assert str(info.value) == (
        "gap 1.000e-06 at index 20 exceeds the fast schedule 2**-20 = 9.537e-07; "
        "the sequence stalled before a limit could be certified"
    )
    assert pulled == list(range(13, 25))


def test_riesz_fischer_pulls_at_most_max_pull_terms():
    """A residual below 2**-90 needs 91 terms; six are stored and at most
    MAX_PULL more may be pulled, so the limit is refused at m = 70."""
    pulled = []
    dom = Domain(np.ones(1))

    def term(n):
        pulled.append(n)
        return const_map(dom, 1.0 - 2.0 ** (-(n - 1)))

    spec = CauchySequenceSpec(p=2.0, prefix=[term(n) for n in range(1, 7)], generator=term)
    pulled.clear()
    with pytest.raises(NonConvergenceError) as info:
        riesz_fischer_limit(spec, tol=2.0**-90)
    assert str(info.value) == (
        "cannot certify a limit: residual 2**-(m-1) with m=70 terms exceeds "
        f"tol={2.0**-90} and no further terms are available"
    )
    assert pulled == list(range(7, 7 + verify.MAX_PULL))
    spec.generator = None
    with pytest.raises(NonConvergenceError, match="with m=6 terms"):
        riesz_fischer_limit(spec)


@pytest.mark.parametrize("name", SPACE_NAMES)
def test_riesz_fischer_batched_certificates_are_dp_distance_bits(name, rng):
    """On every space, a tighter tolerance pulls terms 7-45 once each, in
    order, over three blocks, and every batched certificate has the bits
    of its own `dp_distance` against the limit."""
    sp = make_space(name)
    dom = Domain(rng.uniform(0.05, 0.15, 12))
    spec, known = geodesic_cauchy_fixture(dom, sp, rng, 2.0)
    terms = dict(enumerate(spec.prefix, 1))
    inner = spec.generator

    def recording(n):
        assert n not in terms
        terms[n] = inner(n)
        return terms[n]

    spec.generator = recording
    res = riesz_fischer_limit(spec, tol=1e-13)
    assert res.n_terms == 45 and list(terms) == list(range(1, 46))
    for n, measured, _ in res.certificates:
        assert measured == dp_distance(terms[n], res.limit, 2.0), n
    assert dp_distance(res.limit, known, 2.0) <= res.residual + 1e-9


def test_riesz_fischer_check_batches_its_distances(monkeypatch):
    """Each pulled block's gaps, and all certificates, go through one
    `distance_many` call: the check makes at most 400 calls (one per map
    pair would be about 3,600)."""
    calls = []
    inner = MetricSpace.distance_many

    def counting(self, a, b):
        calls.append(len(a))
        return inner(self, a, b)

    monkeypatch.setattr(MetricSpace, "distance_many", counting)
    metrics = verify._check_riesz_fischer(verify.SuiteContext(0))
    assert metrics["fast_subsequence_len"] >= 4
    assert 0 < len(calls) <= 400


# ---------------------------------------------------------------------------
# countable dense families and the separability probe
# ---------------------------------------------------------------------------


def make_family(rng, cells=4, val_budget=6):
    dom = Domain.grid(1, cells)
    base = MeasurableMap(dom, E1, np.zeros((cells, 1)))
    return build_dense_family(base, gen_levels=2, val_budget=val_budget)


def test_dense_family_structure(rng):
    fam = make_family(rng)
    # level-1 and level-2 half-space generators split a 4-cell line into
    # its 4 single-cell venn classes
    assert fam.n_cells == 4
    assert fam.n_values == 6
    union = np.concatenate([c.indices for c in fam.cells])
    assert np.array_equal(np.sort(union), np.arange(4))


def test_member_from_pairs_modifies_named_cells(rng):
    fam = make_family(rng)
    member = member_from_pairs(fam, ((1, 2), (3, 0)))
    expect = fam.base.values.copy()
    expect[fam.cells[1].indices] = fam.values[2]
    expect[fam.cells[3].indices] = fam.values[0]
    assert np.array_equal(member.values, expect)


def test_enumerate_members_starts_at_base_and_respects_cap(rng):
    fam = make_family(rng)
    members = list(enumerate_members(fam, cap=40))
    assert len(members) == 40
    pairs = [m[0] for m in members]
    assert pairs[0] == ()
    assert equivalent(members[0][1], fam.base)
    assert pairs[1] == ((0, 0),)  # first single-cell modification
    assert len(set(pairs)) == 40  # no duplicates


def test_probe_finds_native_member_exactly(rng):
    fam = make_family(rng)
    pairs = ((0, 1), (2, 3))
    f = member_from_pairs(fam, pairs)
    report = separability_probe(f, fam, 2.0, 0.05)
    assert report.found
    assert report.distance == 0.0
    assert report.pairs == pairs
    assert equivalent(member_from_pairs(fam, report.pairs), f)


def test_probe_optimized_equals_exhaustive(rng):
    fam = make_family(rng, cells=4, val_budget=3)
    for trial in range(4):
        f = MeasurableMap(
            fam.domain, E1, rng.uniform(-1.0, 1.0, (fam.domain.atom_count, 1))
        )
        eps = float(rng.uniform(0.2, 1.2))
        fast = separability_probe(f, fam, 2.0, eps)
        slow = separability_probe(f, fam, 2.0, eps, exhaustive=True)
        assert fast.found == slow.found
        if fast.found:
            assert fast.pairs == slow.pairs  # identical first member
            assert fast.distance == pytest.approx(slow.distance, rel=1e-12)


def test_probe_reports_miss_below_reachable_accuracy(rng):
    fam = make_family(rng, cells=4, val_budget=2)  # values {0, 1}: coarse
    f = MeasurableMap(fam.domain, E1, np.full((4, 1), 0.43))
    report = separability_probe(f, fam, 1.0, 1e-6)
    assert not report.found


def test_probe_rejects_sup_exponent(rng):
    fam = make_family(rng)
    with pytest.raises(MetricLpError):
        separability_probe(fam.base, fam, math.inf, 0.1)


# ---------------------------------------------------------------------------
# covering radii
# ---------------------------------------------------------------------------


def running_min_radii(space, probe, centers, counts):
    nearest = np.full(probe.shape[0], np.inf)
    radii = []
    for j in range(counts[-1]):
        row = np.broadcast_to(centers[j], probe.shape)
        nearest = np.minimum(nearest, space.distance_many(probe, row))
        if j + 1 in counts:
            radii.append(float(nearest.max()))
    return radii


def with_kernel(space, post):
    """A copy of `space` whose distance_many returns post(a, b, d)."""
    wrapped = copy.copy(space)
    wrapped.distance_many = lambda a, b: post(a, b, space.distance_many(a, b))
    return wrapped


def nan_at(x, c):
    """Kernel wrapper that turns the one pair (x, c) into NaN."""

    def post(a, b, d):
        d = d.copy()
        d[(a == x).all(axis=1) & (b == c).all(axis=1)] = np.nan
        return d

    return post


@pytest.mark.parametrize("budget", [1, 7, None])
def test_blocked_covering_radii_equal_the_running_minimum(monkeypatch, budget):
    """The pruned covering pass gives the radii of a running minimum over
    the centers exactly, for one-row blocks, blocks with a short tail and
    the default pair budget; also on tied radii, a shuffled probe, negated
    distances and a NaN injected early, late or in the last block."""
    cases = []
    for name in SPACE_NAMES:
        space = make_space(name)
        probe = space.unit_probe()
        if budget is not None:
            # small budgets make one call per few rows: thin histogram8's
            # 245,157-row probe to about 600 rows
            probe = probe[:: max(1, probe.shape[0] // 600)]
        centers = space.dense_payloads(40)
        cases += [(space, probe, centers, counts) for counts in ((5, 40), (1,), (3, 7))]
    plane = make_space("euclidean2")
    net = plane.epsilon_net(np.zeros(2), 1.0, 0.4)
    cases.append((plane, plane.probe_ball(np.zeros(2), 1.0, 0.05), net, (len(net),)))
    # the head of histogram8's dyadic probe: r5 = 0.5 once, r40 = 0.25 on
    # six rows, and several default-budget blocks to prune across
    hist = make_space("histogram8")
    probe = hist.unit_probe()[: 400 if budget is not None else 5000]
    centers = hist.dense_payloads(40)
    assert running_min_radii(hist, probe, centers, (5, 40)) == [0.5, 0.25]
    shuffled = probe[np.random.default_rng(0).permutation(probe.shape[0])]
    hard = [
        (hist, probe, centers),
        (hist, shuffled, centers),
        (with_kernel(hist, lambda a, b, d: -d), probe, centers),
        (with_kernel(hist, nan_at(probe[0], centers[0])), probe, centers),
        (with_kernel(hist, nan_at(probe[0], centers[38])), probe, centers),
        (with_kernel(hist, nan_at(probe[-1], centers[0])), probe, centers),
    ]
    cases += [(space, probe, centers, (5, 40)) for space, probe, centers in hard]
    if budget is not None:
        monkeypatch.setattr(verify.quantize, "COVER_BLOCK_PAIRS", budget)
    for space, probe, centers, counts in cases:
        got = verify._covering_radii(space, probe, centers, counts)
        want = running_min_radii(space, probe, centers, counts)
        np.testing.assert_array_equal(got, want, err_msg=f"{space.tag} {counts}")
    nan_radii = [running_min_radii(space, p, c, (5, 40)) for space, p, c in hard[3:]]
    assert np.isnan(nan_radii).tolist() == [[True, True], [False, True], [True, True]]


@pytest.mark.parametrize(
    "counts, n_centers, n_probe",
    [((0, 5), 40, 64), ((40,), 1, 1), ((5, 5), 40, 64), ((40, 5), 40, 64), ((), 40, 64)],
)
def test_covering_radii_refuse_counts_they_cannot_serve(counts, n_centers, n_probe):
    """Counts must ascend strictly within 1..len(centers): count 0 would
    read column -1, and a one-row probe would broadcast one center as if
    it were 40."""
    circle = make_space("circle")
    probe = circle.unit_probe()[:n_probe]
    centers = circle.dense_payloads(40)[:n_centers]
    with pytest.raises(ValueError, match="covering counts"):
        verify._covering_radii(circle, probe, centers, counts)


def test_dense_sequence_check_prunes_the_covering_pass(monkeypatch):
    """The dense-sequence check evaluates under 3M distance rows at seed 0
    (the full probe x 40 centers table is about 9.84M)."""
    rows = []
    inner = MetricSpace.distance_many

    def counting(self, a, b):
        d = inner(self, a, b)
        rows.append(d.shape[0])
        return d

    monkeypatch.setattr(MetricSpace, "distance_many", counting)
    verify._check_space_dense(verify.SuiteContext(0))
    assert 0 < sum(rows) < 3_000_000
