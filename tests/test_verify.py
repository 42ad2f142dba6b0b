"""Completeness and separability machinery tests."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from metriclp import (
    AtomSet,
    DimensionMismatchError,
    Domain,
    DomainMismatchError,
    InvalidPointError,
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
    exhaustive_probe,
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


def const_block(domain, cs):
    """The constant maps at cs over `domain`, as a (len(cs), atoms, 1) value block."""
    return np.repeat(np.asarray(cs, dtype=np.float64)[:, None, None], domain.atom_count, axis=1)


def block_spec(domain, block, p=2.0, stored=6):
    """A sequence whose first `stored` terms come from one block call."""
    prefix = [MeasurableMap(domain, E1, v) for v in block(range(1, stored + 1))]
    return CauchySequenceSpec(p=p, prefix=prefix, generator=block)


def flat(blocks):
    """The term indices of recorded block ranges, in pull order."""
    return [n for ns in blocks for n in ns]


def dyadic_spec(p=2.0):
    """Constants marching to 1 with gaps exactly 2^-n: a fast sequence."""
    dom = Domain(np.ones(1))
    return block_spec(dom, lambda ns: const_block(dom, [1.0 - 2.0 ** (-(n - 1)) for n in ns]), p)


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
    slow = block_spec(dom, lambda ns: const_block(dom, [(n - 1) / 4.0 for n in ns]))
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


@pytest.mark.parametrize("tol", [0.0, -1e-10, -math.inf, math.nan])
def test_riesz_fischer_refuses_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(MetricLpError, match="tol"):
        riesz_fischer_limit(dyadic_spec(), tol=tol)


def test_riesz_fischer_infinite_tolerance_certifies_on_the_stored_prefix():
    """tol = inf asks for no term past the six stored ones: the generator
    is not called again, and term 6 is the limit."""
    spec = dyadic_spec()
    calls = []
    block = spec.generator
    spec.generator = lambda ns: calls.append(ns) or block(ns)
    res = riesz_fischer_limit(spec, tol=math.inf)
    assert calls == []
    assert res.n_terms == 6
    assert res.residual == 2.0**-5
    assert res.limit.values[0, 0] == 1.0 - 2.0**-5
    assert [n for n, _, _ in res.certificates] == [1, 2, 3, 4, 5, 6]


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
    spec = block_spec(dom, lambda ns: const_block(dom, [n - 1.0 for n in ns]), stored=4)
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

    def counting(ns):
        pulled.append(ns)
        return inner(ns)

    spec.generator = counting
    with pytest.raises(NonConvergenceError) as info:
        riesz_fischer_limit(spec)
    assert str(info.value) == (
        "gap 1.000e-06 at index 20 exceeds the fast schedule 2**-20 = 9.537e-07; "
        "the sequence stalled before a limit could be certified"
    )
    assert flat(pulled) == list(range(13, 25)) and len(pulled) == 1


def test_riesz_fischer_pulls_at_most_max_pull_terms():
    """A residual below 2**-90 needs 91 terms; six are stored and at most
    MAX_PULL more may be pulled, so the limit is refused at m = 70."""
    pulled = []
    dom = Domain(np.ones(1))

    def block(ns):
        pulled.append(ns)
        return const_block(dom, [1.0 - 2.0 ** (-(n - 1)) for n in ns])

    spec = block_spec(dom, block)
    pulled.clear()
    with pytest.raises(NonConvergenceError) as info:
        riesz_fischer_limit(spec, tol=2.0**-90)
    assert str(info.value) == (
        "cannot certify a limit: residual 2**-(m-1) with m=70 terms exceeds "
        f"tol={2.0**-90} and no further terms are available"
    )
    assert flat(pulled) == list(range(7, 7 + verify.MAX_PULL))
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
    blocks = []
    inner = spec.generator

    def recording(ns):
        blocks.append(ns)
        values = inner(ns)
        for n, v in zip(ns, values):
            assert n not in terms
            terms[n] = MeasurableMap(dom, sp, v)
        return values

    spec.generator = recording
    res = riesz_fischer_limit(spec, tol=1e-13)
    assert res.n_terms == 45 and list(terms) == list(range(1, 46))
    assert flat(blocks) == list(range(7, 46)) and len(blocks) == 3
    for n, measured, _ in res.certificates:
        assert measured == dp_distance(terms[n], res.limit, 2.0), n
    assert dp_distance(res.limit, known, 2.0) <= res.residual + 1e-9


@pytest.mark.parametrize("name", [*SPACE_NAMES, "spd3"])
def test_cauchy_blocks_equal_per_term_geodesics(name, rng):
    """The fixture builds a block of terms with one `geodesic_many` call;
    every term has the bits of its own per-term call at time
    1 - 2**-(n-1), in the prefix, in a pulled block and through `term`."""
    sp = make_space(name)
    dom = Domain(rng.uniform(0.05, 0.15, 12))
    spec, known = geodesic_cauchy_fixture(dom, sp, rng, 2.0)
    start = spec.prefix[0].values  # term 1 is at time 0: the start, verbatim

    def per_term(n):
        return sp.geodesic_many(start, known.values, np.full(12, 1.0 - 2.0 ** (-(n - 1))))

    for n, f in enumerate(spec.prefix, 1):
        assert np.array_equal(f.values, per_term(n)), (name, n)
    block = spec.generator(range(7, 46))
    assert block.shape == (39, 12, sp.dim)
    for n, values in zip(range(7, 46), block):
        assert np.array_equal(values, per_term(n)), (name, n)
    assert np.array_equal(spec.term(30).values, block[30 - 7]), name


def test_riesz_fischer_checks_each_block_once(monkeypatch, rng):
    """One payload check per pulled block and one for the limit: 4 calls
    where one per term would be 40."""
    sp = make_space("spd2")
    spec, _ = geodesic_cauchy_fixture(Domain(np.full(12, 1.0 / 12)), sp, rng, 2.0)
    shapes = []
    inner = MetricSpace.check_payload

    def counting(self, arr):
        shapes.append(np.shape(arr))
        return inner(self, arr)

    monkeypatch.setattr(MetricSpace, "check_payload", counting)
    res = riesz_fischer_limit(spec, tol=1e-13)
    assert res.n_terms == 45
    assert shapes == [(6, 12, 4), (12, 12, 4), (21, 12, 4), (12, 4)]


def test_riesz_fischer_refuses_blocks_it_cannot_use():
    """A block of the wrong shape is refused before any distance is taken,
    and a block with an invalid payload fails its one payload check."""
    dom = Domain(np.full(2, 0.5))

    def good(ns):
        return const_block(dom, [1.0 - 2.0 ** (-(n - 1)) for n in ns])

    spec = block_spec(dom, good)
    for bad in (lambda ns: good(ns)[:-1], lambda ns: np.repeat(good(ns), 2, axis=-1),
                lambda ns: good(ns)[:, :1]):
        spec.generator = bad
        with pytest.raises(DimensionMismatchError, match="generator block"):
            riesz_fischer_limit(spec)
        with pytest.raises(DimensionMismatchError, match="generator block"):
            spec.term(9)
    spec.generator = lambda ns: good(ns) * np.where(np.asarray(ns) == 9, np.nan, 1.0)[:, None, None]
    with pytest.raises(InvalidPointError):
        riesz_fischer_limit(spec)
    assert spec.term(8).values[0, 0] == 1.0 - 2.0**-7
    spec.generator = None
    with pytest.raises(MetricLpError, match="beyond the stored prefix"):
        spec.term(7)


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
            fam.base.domain, E1, rng.uniform(-1.0, 1.0, (fam.base.domain.atom_count, 1))
        )
        eps = float(rng.uniform(0.2, 1.2))
        fast = separability_probe(f, fam, 2.0, eps)
        slow = exhaustive_probe(f, fam, 2.0, eps)
        assert fast.found == slow.found
        if fast.found:
            assert fast.pairs == slow.pairs  # identical first member
            assert fast.distance == pytest.approx(slow.distance, rel=1e-12)


def walk_members_one_by_one(f, fam, p, eps):
    """The exhaustive probe as a literal walk: one member map and one
    `dp_distance` call per member, at most MEMBER_CAP members."""
    scanned = 0
    for pairs, member in enumerate_members(fam, verify.MEMBER_CAP):
        scanned += 1
        dist = dp_distance(f, member, p)
        if dist < eps:
            return True, pairs, dist.hex(), scanned
    return False, (), None, scanned


def walk_result(report):
    dist = None if report.distance is None else report.distance.hex()
    return report.found, report.pairs, dist, report.scanned


def random_family(rng, name):
    """4 cells and 3 values (256 members) around a random base."""
    space = make_space(name)
    dom = Domain.grid(1, 4)
    base = MeasurableMap(dom, space, space.random_payloads(rng, 4))
    return build_dense_family(base, gen_levels=2, val_budget=3)


@pytest.mark.parametrize("budget", [1, 8, 4 * 37, None])
@pytest.mark.parametrize("name", ["euclidean2", "spd2", "simplex3", "circle", "histogram8"])
def test_exhaustive_probe_matches_the_member_walk(name, budget, rng, monkeypatch):
    """Blocks of 1, 2 and 37 members and the default one block of 256, on
    random targets: same found, pairs, distance bits and members scanned.
    The eps range puts first hits before and past block boundaries, and
    misses."""
    if budget is not None:
        monkeypatch.setattr(verify.spaces, "BLOCK_PAIRS", budget)
    fam = random_family(rng, name)
    sp = fam.base.space
    results = []
    for _ in range(12):
        f = MeasurableMap(fam.base.domain, sp, sp.random_payloads(rng, 4))
        d_base = dp_distance(f, fam.base, 2.0)
        eps = float(d_base * rng.uniform(0.3, 1.05))
        want = walk_members_one_by_one(f, fam, 2.0, eps)
        assert walk_result(exhaustive_probe(f, fam, 2.0, eps)) == want
        results.append(want)
    assert any(not found for found, *_ in results)
    assert any(found and scanned > 1 for found, _, _, scanned in results)


def test_exhaustive_probe_first_hit_past_a_block_boundary(rng, monkeypatch):
    """Blocks of 2 members (8 pairs over 4 atoms): the target is member 41,
    so the walk reads 20 whole blocks before the hit."""
    monkeypatch.setattr(verify.spaces, "BLOCK_PAIRS", 8)
    fam = random_family(rng, "euclidean2")
    pairs, member = list(enumerate_members(fam, 41))[-1]
    report = exhaustive_probe(member, fam, 2.0, 1e-9)
    assert walk_result(report) == walk_members_one_by_one(member, fam, 2.0, 1e-9)
    assert report.found and report.pairs == pairs and report.scanned == 41
    assert report.distance == 0.0


def test_exhaustive_probe_miss_scans_the_whole_family(rng):
    fam = make_family(rng, cells=4, val_budget=2)  # values {0, 1}: coarse
    f = MeasurableMap(fam.base.domain, E1, np.full((4, 1), 0.43))
    report = exhaustive_probe(f, fam, 1.0, 1e-6)
    assert walk_result(report) == (False, (), None, 3**4)
    assert walk_result(report) == walk_members_one_by_one(f, fam, 1.0, 1e-6)


@pytest.mark.parametrize("cap", [0, 1, 5, 100])
def test_exhaustive_probe_respects_member_cap(cap, rng, monkeypatch):
    """A cap below the family's 256 members: a hit past the cap is a miss
    after exactly cap members, with blocks of 3 members."""
    monkeypatch.setattr(verify, "MEMBER_CAP", cap)
    monkeypatch.setattr(verify.spaces, "BLOCK_PAIRS", 12)
    fam = random_family(rng, "euclidean2")
    for target in (3, 120):
        _, member = list(enumerate_members(fam, target))[-1]
        report = exhaustive_probe(member, fam, 2.0, 1e-9)
        want = walk_members_one_by_one(member, fam, 2.0, 1e-9)
        assert walk_result(report) == want
        assert report.found == (target <= cap)
        assert report.scanned == (target if target <= cap else cap)


def test_exhaustive_probe_refuses_a_target_of_another_domain_or_space(rng):
    fam = make_family(rng)
    other_domain = MeasurableMap(Domain(np.ones(4)), E1, np.zeros((4, 1)))
    with pytest.raises(DomainMismatchError):
        exhaustive_probe(other_domain, fam, 2.0, 0.1)
    other_space = MeasurableMap(fam.base.domain, make_space("circle"), np.zeros((4, 1)))
    with pytest.raises(DimensionMismatchError):
        exhaustive_probe(other_space, fam, 2.0, 0.1)


def test_probe_reports_miss_below_reachable_accuracy(rng):
    fam = make_family(rng, cells=4, val_budget=2)  # values {0, 1}: coarse
    f = MeasurableMap(fam.base.domain, E1, np.full((4, 1), 0.43))
    report = separability_probe(f, fam, 1.0, 1e-6)
    assert not report.found


def test_probe_rejects_sup_exponent(rng):
    fam = make_family(rng)
    with pytest.raises(MetricLpError):
        separability_probe(fam.base, fam, math.inf, 0.1)


PROBE_SPACES = ["euclidean1", *SPACE_NAMES]
PROBE_WEIGHTS = {
    "plain": [0.25, 0.25, 0.25, 0.25],
    "null": [0.25, 0.0, 0.25, 0.25],
    "infinite": [0.25, math.inf, 0.25, 0.25],
}


def probe_result(report):
    return report.found, report.pairs, report.distance


@pytest.mark.parametrize("name", PROBE_SPACES)
def test_probe_agrees_with_its_oracle_across_the_float_range(name):
    """On 4-atom families (plain, or with one null or one infinite-weight
    atom), targets that equal a member in about a quarter of trials, eps
    drawn from [0.05, 2) or at 1e-200 or 1e200, and p in {1, 2, 7.5}: the
    probe and `exhaustive_probe` give the same found, pairs and distance
    bits, and no warning."""
    space = make_space(name)
    for wi, weights in enumerate(PROBE_WEIGHTS.values()):
        dom = Domain(np.array(weights))
        for p in (1.0, 2.0, 7.5):
            for trial in range(30):
                rng = np.random.default_rng([PROBE_SPACES.index(name), wi, int(2 * p), trial])
                base = MeasurableMap(dom, space, space.random_payloads(rng, 4))
                fam = build_dense_family(base, val_budget=3)
                if rng.uniform() < 0.25:
                    k = int(rng.integers(fam.n_cells + 1))
                    cells = sorted(rng.choice(fam.n_cells, k, replace=False).tolist())
                    pairs = tuple((c, int(rng.integers(fam.n_values))) for c in cells)
                    f = member_from_pairs(fam, pairs)
                else:
                    f = MeasurableMap(dom, space, space.random_payloads(rng, 4))
                eps = (float(rng.uniform(0.05, 2.0)), 1e-200, 1e200)[trial % 3]
                fast = separability_probe(f, fam, p, eps)
                slow = exhaustive_probe(f, fam, p, eps)
                assert probe_result(fast) == probe_result(slow), (weights, p, eps, trial)


def test_probe_refuses_a_target_outside_the_base_class():
    """An atom of infinite weight where the target leaves the base and no
    family value reaches it: every member is at D_p = inf, so none is
    found, where adding zero for that atom would report a member at inf."""
    dom = Domain(np.array([math.inf, 1.0]))
    fam = build_dense_family(MeasurableMap(dom, E1, np.zeros((2, 1))), val_budget=4)
    assert not np.any(fam.values == 0.3)
    f = MeasurableMap(dom, E1, np.array([[0.3], [0.0]]))
    for p in (1.0, 2.0):
        assert probe_result(separability_probe(f, fam, p, 0.5)) == (False, (), None)
        assert probe_result(exhaustive_probe(f, fam, p, 0.5)) == (False, (), None)


def test_probe_counts_the_atoms_in_no_cell():
    """A custom family whose cells leave atom 3 out: every member keeps the
    base there, at distance 1 from the target, so no member is within 0.2
    at p = 1 although the cells themselves cost nothing."""
    dom = Domain(np.full(4, 0.25))
    base = MeasurableMap(dom, E1, np.zeros((4, 1)))
    cells = [AtomSet(np.array([i]), 4) for i in range(3)]
    fam = verify.DenseFamily(base, cells, np.array([[0.0], [1.0]]))
    f = MeasurableMap(dom, E1, np.array([[0.0], [0.0], [0.0], [1.0]]))
    for eps, want in ((0.2, (False, (), None)), (0.3, (True, (), 0.25))):
        assert probe_result(exhaustive_probe(f, fam, 1.0, eps)) == want
        assert probe_result(separability_probe(f, fam, 1.0, eps)) == want


def test_probe_finds_a_member_holding_a_huge_value():
    """A custom family value of 1e200: its cost on the other cells
    overflows d**p, yet the member that holds it is found at distance 0."""
    dom = Domain(np.full(4, 0.25))
    base = MeasurableMap(dom, E1, np.zeros((4, 1)))
    cells = [AtomSet(np.array([i]), 4) for i in range(4)]
    fam = verify.DenseFamily(base, cells, np.array([[0.5], [1e200]]))
    f = member_from_pairs(fam, ((3, 1),))
    for p in (1.0, 2.0, 7.5):
        for eps in (1e-200, 0.1, 1e100):
            want = (True, ((3, 1),), 0.0)
            assert probe_result(exhaustive_probe(f, fam, p, eps)) == want
            assert probe_result(separability_probe(f, fam, p, eps)) == want


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
        d[(a == x).all(axis=-1) & (b == c).all(axis=-1)] = np.nan
        return d

    return post


@pytest.mark.parametrize("budget", [1, 7, None])
def test_blocked_covering_radii_equal_the_running_minimum(monkeypatch, budget):
    """The pruned covering pass, one call per count of leading centers,
    gives the radii of a running minimum over the centers exactly, for
    one-row blocks, blocks with a short tail and the default pair budget;
    also on tied radii, a shuffled probe, negated distances, a NaN
    injected early, late or in the last block, one-row and few-row probes,
    counts (1,) and (2, 3, 40) on random probes, and a probe whose radius
    its first row, always in the sample, attains."""
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
    rng = np.random.default_rng(7)
    for name in ("euclidean3", "circle"):
        space = make_space(name)
        centers = space.dense_payloads(40)
        probe = space.random_payloads(rng, 300)
        cases += [(space, probe, centers, counts) for counts in ((1,), (2, 3, 40))]
        # one row; and three rows, which at budgets 1 and 7 the sample
        # stride steps past, leaving a one-row sample
        cases += [(space, probe[:1], centers, (5, 40)), (space, probe[:3], centers, (5, 40))]
    # the circle probe with the row farthest from centers[:40] moved first:
    # the sample's bound is already the radius, and at budgets 1 and 7,
    # where the sample is that one row, the pass drops every other row
    circle = make_space("circle")
    probe, centers = circle.unit_probe(), circle.dense_payloads(40)
    far = np.argmax(np.min(circle.distance_many(probe[None], centers[:, None]), axis=0))
    probe = np.concatenate([probe[far : far + 1], np.delete(probe, far, axis=0)])
    assert running_min_radii(circle, probe[:1], centers, (40,)) == running_min_radii(
        circle, probe, centers, (40,)
    )
    cases += [(circle, probe, centers, (40,)), (circle, probe, centers, (5, 40))]
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
    # the oracle runs at the default block size: at a budget of one pair it
    # would make one kernel call per pair
    wants = [running_min_radii(*case) for case in cases]
    assert np.isnan(wants[-3:]).tolist() == [[True, True], [False, True], [True, True]]
    if budget is not None:
        monkeypatch.setattr(verify.spaces, "BLOCK_PAIRS", budget)
    for (space, probe, centers, counts), want in zip(cases, wants):
        got = [verify._covering_radius(space, probe, centers[:m]) for m in counts]
        np.testing.assert_array_equal(got, want, err_msg=f"{space.tag} {counts}")


def test_covering_radius_refuses_an_empty_center_set():
    """No center covers anything: an empty set would read a radius off an
    empty minimum."""
    circle = make_space("circle")
    with pytest.raises(ValueError, match="at least one center"):
        verify._covering_radius(circle, circle.unit_probe(), np.zeros((0, 1)))


def test_dense_sequence_check_prunes_the_covering_pass(monkeypatch):
    """The dense-sequence check evaluates under 3M distance pairs at seed 0
    (the full probe x 40 centers table is about 9.84M).  Pairs are counted
    by the size of each result, since a call returns a (centers, rows)
    table."""
    pairs = []
    inner = MetricSpace.distance_many

    def counting(self, a, b):
        d = inner(self, a, b)
        pairs.append(d.size)
        return d

    monkeypatch.setattr(MetricSpace, "distance_many", counting)
    verify._check_space_dense(verify.SuiteContext(0))
    assert 0 < sum(pairs) < 3_000_000


def test_dense_sequence_check_visits_near_centers_first(monkeypatch):
    """With the sample's bound and the nearest-first visit order, the
    dense-sequence check at seed 0 makes under 1.5M pairs in under 300
    calls; index order made 2,703,305 pairs in 423 calls.  Pairs are the
    size of each result, as above."""
    pairs = []
    inner = MetricSpace.distance_many

    def counting(self, a, b):
        d = inner(self, a, b)
        pairs.append(d.size)
        return d

    monkeypatch.setattr(MetricSpace, "distance_many", counting)
    verify._check_space_dense(verify.SuiteContext(0))
    assert 0 < sum(pairs) < 1_500_000
    assert len(pairs) < 300


@pytest.mark.parametrize("seed", range(10))
def test_morphology_check_runs_both_budget_branches(monkeypatch, seed):
    """At every seed the morphology check erodes and dilates within budget
    and over it: the flags of the calls that share a set and a budget take
    both values for each operation."""
    calls = {"inner": [], "outer": []}

    def recording(name, fn):
        def wrapped(domain, b, delta):
            result = fn(domain, b, delta)
            calls[name].append((b, delta, result.over_budget))
            return result
        return wrapped

    monkeypatch.setattr(verify, "inner_closed_approx", recording("inner", verify.inner_closed_approx))
    monkeypatch.setattr(verify, "outer_open_approx", recording("outer", verify.outer_open_approx))
    verify._check_domain_morphology(verify.SuiteContext(seed))
    paired = [(b, delta) for b, delta, _ in calls["inner"]]
    erosion = {flag for _, _, flag in calls["inner"]}
    dilation = {flag for b, delta, flag in calls["outer"]
                if any(b is b2 and delta == d2 for b2, d2 in paired)}
    assert erosion == {True, False} and dilation == {True, False}, (erosion, dilation)
