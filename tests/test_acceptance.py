"""Acceptance checks: the library's core guarantees at desk scale.

Each test states its claim, budget, and tolerance inline.  Randomized
checks are seeded and deterministic; runtime-limited checks measure
their own wall time.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from metriclp import (
    CapabilityError,
    Domain,
    MeasurableMap,
    NonConvergenceError,
    SimpleMap,
    dp_distance,
    equivalent,
    fields,
    make_space,
)
from metriclp.cli import main as cli_main
from metriclp.domain import AtomSet, measure
from metriclp.quantize import (
    almost_simple_approx,
    countable_quantize,
    divergence_fixture,
    orthonormal_lower_bound,
    simple_approx_sup,
)
from metriclp.relax import (
    adjacent_difference_report,
    boundary_difference_scan,
    error_bound,
    smooth_from_simple,
)
from metriclp.verify import (
    build_dense_family,
    geodesic_cauchy_fixture,
    incomplete_fixture,
    member_from_pairs,
    riesz_fischer_limit,
    separability_probe,
)

SPACES = ["euclidean3", "spd2", "simplex3", "histogram8", "circle"]
FINITE_P = (1.0, 1.5, 2.0, 4.0)
ALL_P = FINITE_P + (math.inf,)
REL = 1e-12


def bulk_dp(w: np.ndarray, d: np.ndarray, p: float) -> np.ndarray:
    """Row-wise D_p over a (triples, atoms) distance matrix; matches
    dp_distance to ~1 ulp (summation order)."""
    if math.isinf(p):
        return d.max(axis=1)
    return np.sum(w * d**p, axis=1) ** (1.0 / p)


# ---------------------------------------------------------------------------
# 1. metric axioms at scale
# ---------------------------------------------------------------------------


def test_criterion_01_dp_metric_axioms_at_scale():
    """10^4 random triples per target space, all exponents: exact symmetry,
    triangle within 1e-12 relative, zero iff equivalent.  Under 30 s."""
    t0 = time.perf_counter()
    n_triples, m = 10_000, 4
    for name in SPACES:
        sp = make_space(name)
        rng = np.random.default_rng([11, hash(name) % 2**32])
        w = rng.uniform(0.1, 2.0, (n_triples, m))
        A = sp.random_payloads(rng, n_triples * m)
        B = sp.random_payloads(rng, n_triples * m)
        C = sp.random_payloads(rng, n_triples * m)
        dab = sp.distance_many(A, B).reshape(n_triples, m)
        dba = sp.distance_many(B, A).reshape(n_triples, m)
        dac = sp.distance_many(A, C).reshape(n_triples, m)
        dbc = sp.distance_many(B, C).reshape(n_triples, m)
        assert np.array_equal(dab, dba), name  # ground symmetry, bitwise
        for p in ALL_P:
            Dab, Dba = bulk_dp(w, dab, p), bulk_dp(w, dba, p)
            Dac, Dbc = bulk_dp(w, dac, p), bulk_dp(w, dbc, p)
            assert np.array_equal(Dab, Dba), (name, p)  # symmetry, exact
            assert np.all(Dac <= (Dab + Dbc) * (1 + REL)), (name, p)  # triangle
            assert np.all(Dab > 0.0), (name, p)  # random values never collide

        # tie the bulk evaluator to the public API on a subsample, and
        # exercise zero <-> equivalence exactly through the API
        for i in range(0, n_triples, 250):
            dom = Domain(w[i])
            f = MeasurableMap(dom, sp, A[i * m : (i + 1) * m])
            g = MeasurableMap(dom, sp, B[i * m : (i + 1) * m])
            for p in ALL_P:
                ref = dp_distance(f, g, p)
                assert dp_distance(g, f, p) == ref  # API symmetry, bitwise
                assert abs(ref - bulk_dp(w[i : i + 1], dab[i : i + 1], p)[0]) <= 1e-15 * ref
                assert (ref == 0.0) == equivalent(f, g)
                twin = MeasurableMap(dom, sp, f.values.copy())
                assert dp_distance(f, twin, p) == 0.0 and equivalent(f, twin)
            # null atoms never matter: differ only on a weight-0 atom
            w_null = w[i].copy()
            w_null[1] = 0.0
            dom0 = Domain(w_null)
            f0 = MeasurableMap(dom0, sp, f.values)
            vals = f.values.copy()
            vals[1] = g.values[1]
            g0 = MeasurableMap(dom0, sp, vals)
            assert equivalent(f0, g0)
            for p in ALL_P:
                assert dp_distance(f0, g0, p) == 0.0
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 2. constant-embedding isometry
# ---------------------------------------------------------------------------


def test_criterion_02_constant_embedding_isometry():
    """Constant mappings embed the target isometrically up to the factor
    (total measure)^(1/p): 10^3 point pairs, three measures, 1e-12 rel."""
    pairs_per_space = 200
    for name in SPACES:
        sp = make_space(name)
        rng = np.random.default_rng([22, hash(name) % 2**32])
        P = sp.random_payloads(rng, pairs_per_space)
        Q = sp.random_payloads(rng, pairs_per_space)
        d = sp.distance_many(P, Q)
        for mu in (0.5, 1.0, 4.0):
            dom = Domain(np.full(16, mu / 16))
            for i in range(pairs_per_space):
                fa = MeasurableMap.constant(dom, sp, P[i])
                fb = MeasurableMap.constant(dom, sp, Q[i])
                for p in FINITE_P:
                    got = dp_distance(fa, fb, p)
                    want = mu ** (1.0 / p) * d[i]
                    assert abs(got - want) <= REL * want, (name, mu, p)
                # sup distance ignores the measure entirely
                assert abs(dp_distance(fa, fb, math.inf) - d[i]) <= REL * d[i]


# ---------------------------------------------------------------------------
# 3. almost-simple density (finite p)
# ---------------------------------------------------------------------------


def test_criterion_03_almost_simple_density():
    """Smooth SPD and simplex fields on a 64x64 grid quantize to within
    every eps, each construction step under eps/3.  Under 60 s."""
    t0 = time.perf_counter()
    dom = Domain.grid(2, 64)
    for name in ("spd2", "simplex3"):
        sp = make_space(name)
        f = fields.smooth_field(dom, sp, np.random.default_rng([33, hash(name) % 2**32]))
        h = MeasurableMap.constant(dom, sp, f.values[0])
        for p in (1.0, 2.0):
            for eps in (0.5, 0.1, 0.02):
                g, rep = almost_simple_approx(f, h, p, eps)
                assert rep.achieved_error < eps, (name, p, eps)
                for step, err in rep.step_breakdown.items():
                    assert err < eps / 3.0, (name, p, eps, step)
                # the reported error is the real distance, not an estimate
                assert rep.achieved_error == dp_distance(g, f, p)
                assert g.range_size < dom.atom_count
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 4. sup-norm simple density needs boundedly compact targets
# ---------------------------------------------------------------------------


def test_criterion_04_sup_density_and_refusal():
    """Circle and Euclidean fields quantize in sup norm below eps; the
    discrete-transport target has no net capability and refuses."""
    dom = Domain.grid(2, 64)
    for name in ("circle", "euclidean2"):
        sp = make_space(name)
        f = fields.smooth_field(dom, sp, np.random.default_rng([44, hash(name) % 2**32]))
        h = MeasurableMap.constant(dom, sp, f.values[0])
        for eps in (0.3, 0.1):
            g, rep = simple_approx_sup(f, h, eps)
            assert rep.achieved_error < eps, (name, eps)
            assert rep.achieved_error == dp_distance(g, f, math.inf)
            assert g.range_size <= rep.step_breakdown["net_size"]
    sp = make_space("histogram8")
    f = fields.smooth_field(dom, sp, np.random.default_rng(44))
    h = MeasurableMap.constant(dom, sp, f.values[0])
    with pytest.raises(CapabilityError):
        simple_approx_sup(f, h, 0.3)


# ---------------------------------------------------------------------------
# 5. orthonormal counterexample to sup density
# ---------------------------------------------------------------------------


def test_criterion_05_orthonormal_counterexample():
    """Against n orthonormal values, any k < n valued map stays at sup
    error >= sqrt(2)/2; brute force matches the pigeonhole bound."""
    floor = 0.7071 - 1e-12
    for n, k in ((2, 1), (4, 3), (8, 7)):
        rep = orthonormal_lower_bound(n, k)
        assert rep.min_max_error >= floor, (n, k)
        assert abs(rep.min_max_error - rep.pigeonhole_bound) <= 1e-12
        # the optimal assignment really achieves the certified bound
        achieved = dp_distance(rep.best_map.to_map(), rep.mapping, math.inf)
        assert abs(achieved - rep.min_max_error) <= 1e-12


# ---------------------------------------------------------------------------
# 6. divergence under refinement for non-approximable bases
# ---------------------------------------------------------------------------


def test_criterion_06_divergence_fixtures():
    """Best finite-valued approximation error strictly increases across
    refinements for both divergence fixtures."""
    runs = [
        ("unbounded_base", [64, 128, 256, 512, 1024, 2048], 2.0),
        ("unbounded_base", [64, 128, 256, 512, 1024], 1.0),
        ("exponential_base", [1, 2, 3, 4, 5, 6], 1.0),
    ]
    for kind, refinements, p in runs:
        errors = []
        for r in refinements:
            rep = divergence_fixture(kind, r, p)
            assert rep.best_k_error <= rep.best_constant_error
            errors.append(rep.best_k_error)
        diffs = np.diff(errors)
        assert np.all(diffs > 0.0), (kind, p, errors)


# ---------------------------------------------------------------------------
# 7 & 8. continuous and smooth relaxation of simple maps
# ---------------------------------------------------------------------------


def two_band_fixture(cells: int = 4096):
    sp = make_space("euclidean1")
    dom = Domain.grid(1, cells)
    geo = dom.geometry
    b1 = fields.band_labels(geo, 0.275, 0.075)
    b2 = fields.band_labels(geo, 0.675, 0.075)
    labels = np.where(b1 == 1, 1, np.where(b2 == 1, 2, 0))
    table = np.array([[0.0], [0.4], [-0.4]])
    return SimpleMap(dom, sp, labels, table), np.array([0.0])


def five_disk_fixture(cells: int = 128):
    sp = make_space("euclidean2")
    dom = Domain.grid(2, cells)
    centers = np.array([[0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8], [0.5, 0.5]])
    labels = fields.disk_labels(dom.geometry, centers, np.full(5, 0.08))
    ang = 2 * np.pi * np.arange(5) / 5
    table = np.vstack([[0.0, 0.0], 0.4 * np.stack([np.cos(ang), np.sin(ang)], axis=1)])
    return SimpleMap(dom, sp, labels, table), np.array([0.0, 0.0])


def check_relaxation(field, g, z0, eps, p=1.0):
    assert field.flags["guarantee_holds"]
    assert field.achieved_error < eps
    assert field.achieved_error <= error_bound(field) <= eps * 2 ** (1 / p - 1)
    assert field.achieved_error == dp_distance(field.map, g.to_map(), p)
    in_any_region = np.zeros(g.domain.atom_count, dtype=bool)
    for piece in field.pieces:
        in_any_region[piece.region.indices] = True
        want = g.value_table[piece.label]
        got = field.map.values[piece.core.indices]
        assert np.array_equal(got, np.broadcast_to(want, got.shape))  # cores exact
    outside = ~in_any_region
    assert np.array_equal(
        field.map.values[outside],
        np.broadcast_to(z0, field.map.values[outside].shape),
    )  # background exact
    report = adjacent_difference_report(field)
    assert report["max_ratio"] <= 1.0 + 1e-9


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_criterion_07_continuous_relaxation(eps):
    """Two-band 1-D and five-disk 2-D simple maps relax continuously within
    eps, exactly flat on cores and background, obeying the cell modulus."""
    for build in (two_band_fixture, five_disk_fixture):
        g, z0 = build()
        field = smooth_from_simple(g, z0, 1.0, eps, order=0)
        assert len(field.pieces) == g.range_size - 1  # background is not a piece
        check_relaxation(field, g, z0, eps)


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_criterion_08_smooth_relaxation(eps):
    """Order-2 smoothing meets the same budgets; order 0 is bit-identical
    to the continuous construction (the geodesic from the background driven
    by the raw transition field)."""
    for build in (two_band_fixture, five_disk_fixture):
        g, z0 = build()
        smooth = smooth_from_simple(g, z0, 1.0, eps, order=2)
        check_relaxation(smooth, g, z0, eps)
        order0 = smooth_from_simple(g, z0, 1.0, eps, order=0)
        for piece in order0.pieces:
            region = piece.region.indices
            cont = g.space.geodesic_many(order0.background, piece.value, piece.transition)
            assert np.array_equal(order0.map.values[region], cont)


def test_criterion_08_boundary_flatness():
    """On a fine 1-D grid the order-2 field's first and second discrete
    differences at plateau boundaries stay below 10 * cell_size^2."""
    cells = 2**17
    sp = make_space("euclidean1")
    dom = Domain.grid(1, cells)
    labels = fields.band_labels(dom.geometry, 0.5, 0.09)
    g = SimpleMap(dom, sp, labels, np.array([[0.0], [1.0]]))
    field = smooth_from_simple(g, np.array([0.0]), 1.0, 0.2, order=2)
    scan = boundary_difference_scan(field)
    cap = 10.0 * scan["cell_size"] ** 2
    assert scan["max_boundary_first_difference"] <= cap
    assert scan["max_boundary_second_difference"] <= cap
    # the interior of the ramp is allowed to be steep; boundaries are not
    assert scan["max_first_difference"] > scan["max_boundary_first_difference"]


# ---------------------------------------------------------------------------
# 9. completeness: certified limits of fast Cauchy sequences
# ---------------------------------------------------------------------------


def test_criterion_09_fast_cauchy_limits():
    """100 seeded fast sequences per complete target converge with tail
    certificates <= 2^-(n-1) + 1e-9; the incomplete fixture refuses."""
    for name in SPACES:
        sp = make_space(name)
        for trial in range(100):
            rng = np.random.default_rng([99, hash(name) % 2**32, trial])
            dom = Domain(rng.uniform(0.05, 0.15, 6))
            spec, known = geodesic_cauchy_fixture(dom, sp, rng, 2.0)
            res = riesz_fischer_limit(spec, tol=1e-10)
            assert res.certificates, (name, trial)
            for n, measured, _ in res.certificates:
                assert measured <= 2.0 ** (-(n - 1)) + 1e-9, (name, trial, n)
            assert dp_distance(res.limit, known, 2.0) <= res.residual + 1e-9
    with pytest.raises(NonConvergenceError):
        riesz_fischer_limit(incomplete_fixture(), tol=1e-10)


# ---------------------------------------------------------------------------
# 10. separability probe on a countable dense family
# ---------------------------------------------------------------------------


def test_criterion_10_separability_probe():
    """Every quantized fixture is matched within eps = 0.05; family-native
    maps are found exactly at distance zero."""
    sp = make_space("euclidean1")
    dom = Domain.grid(1, 16)
    h = MeasurableMap.constant(dom, sp, np.array([0.0]))
    family = build_dense_family(h, gen_levels=4, val_budget=64)
    assert family.n_cells == 16

    hits = 0
    n_fixtures = 25
    for trial in range(n_fixtures):
        f = fields.smooth_field(dom, sp, np.random.default_rng([1010, trial]), spread=0.3)
        fq, _ = countable_quantize(f, 0.01)
        rep = separability_probe(fq.to_map(), family, 2.0, 0.05)
        if rep.found and rep.distance < 0.05:
            hits += 1
    assert hits == n_fixtures  # 100% success

    # native members are recovered exactly when eps sits below the family's
    # value resolution (values are 0.125 apart and a cell weighs 1/16, so
    # distinct members are >= 0.03125 apart and only the exact one matches)
    rng = np.random.default_rng(2020)
    base_like = [
        i for i, v in enumerate(family.values) if np.array_equal(v, h.values[0])
    ]
    usable = [i for i in range(family.n_values) if i not in base_like]
    for _ in range(10):
        n_cells = int(rng.integers(1, 4))
        cells = np.sort(rng.choice(family.n_cells, size=n_cells, replace=False))
        pairs = tuple((int(c), int(rng.choice(usable))) for c in cells)
        native = member_from_pairs(family, pairs)
        rep = separability_probe(native, family, 2.0, 0.02)
        assert rep.found and rep.distance == 0.0
        assert rep.pairs == pairs


# ---------------------------------------------------------------------------
# 11. exponent-inclusion and base-change bounds
# ---------------------------------------------------------------------------


def test_criterion_11_inclusion_and_base_bounds():
    """On 10^3 random finite-measure cases, D_p <= mu^(1/p-1/q) D_q for
    p < q, and D_p(f,h)^p <= 2^(p-1)(D_p(f,g)^p + D_inf(g,h)^p mu),
    both within 1e-12 relative."""
    pq_cycle = ((1.0, 2.0), (2.0, 4.0), (1.5, 3.0), (1.0, 4.0))
    cases_per_space = 200
    for name in SPACES:
        sp = make_space(name)
        rng = np.random.default_rng([1111, hash(name) % 2**32])
        for i in range(cases_per_space):
            n = int(rng.integers(2, 8))
            dom = Domain(rng.uniform(0.05, 1.5, n))
            mu = measure(dom, AtomSet.full(n))
            f, g, h = (
                MeasurableMap(dom, sp, sp.random_payloads(rng, n)) for _ in range(3)
            )
            p, q = pq_cycle[i % len(pq_cycle)]
            lhs = dp_distance(f, g, p)
            rhs = dp_distance(f, g, q) * mu ** (1.0 / p - 1.0 / q)
            assert lhs <= rhs * (1 + REL), (name, i, "inclusion")
            lhs = dp_distance(f, h, p) ** p
            rhs = 2.0 ** (p - 1) * (
                dp_distance(f, g, p) ** p + dp_distance(g, h, math.inf) ** p * mu
            )
            assert lhs <= rhs * (1 + REL), (name, i, "base-change")


# ---------------------------------------------------------------------------
# 12. the bundled verification suite, five seeds, deterministic
# ---------------------------------------------------------------------------


def test_criterion_12_verification_suite_five_seeds(tmp_path):
    """`verify` exits 0 for seeds 0-4, is reproducible, and finishes well
    under the 10-minute budget."""
    t0 = time.perf_counter()
    ledgers = {}
    for seed in range(5):
        out = tmp_path / f"ledger-{seed}.json"
        code = cli_main(["verify", "--seed", str(seed), "--out", str(out)])
        assert code == 0, f"seed {seed} failed"
        ledgers[seed] = json.loads(out.read_text())
        assert ledgers[seed]["all_pass"] is True
        assert all(e["status"] == "pass" for e in ledgers[seed]["entries"])
    # identical check list across seeds, and bit-identical rerun at seed 0
    ids = [e["check_id"] for e in ledgers[0]["entries"]]
    assert len(ids) == len(set(ids)) and len(ids) >= 15
    for seed in range(1, 5):
        assert [e["check_id"] for e in ledgers[seed]["entries"]] == ids
    rerun = tmp_path / "ledger-0-again.json"
    assert cli_main(["verify", "--seed", "0", "--out", str(rerun)]) == 0
    again = json.loads(rerun.read_text())
    assert again["entries"] == ledgers[0]["entries"]
    assert time.perf_counter() - t0 < 600.0
