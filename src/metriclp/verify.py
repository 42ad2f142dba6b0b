"""Machine checks for the structural guarantees of the library.

Three groups:

- Completeness: fast Cauchy sequences (consecutive gaps <= 2**-n), limit
  extraction with measured tail certificates, and a fixture over a
  resolution-floored target (rationals with bounded denominator) whose
  missing limit surfaces as the documented non-convergence error.
- Separability: a countable family (base mapping altered on boolean
  combinations of generator sets, values from a dense sequence) plus a
  probe that returns the first family member within eps of a target --
  either by literal enumeration or by an equivalent branch-and-bound walk
  of the same order.
- `run_theorem_suite`: a deterministic battery asserting the library's
  invariants end to end, emitting a JSON-able ledger with one entry per
  check.
"""

from __future__ import annotations

import itertools
import math
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fields, quantize, relax, spaces
from .domain import (
    AtomSet,
    Domain,
    face_adjacent_pairs,
    inner_closed_approx,
    is_purely_infinite,
    measure,
    outer_open_approx,
    urysohn,
)
from .errors import (
    CapabilityError,
    CheckFailedError,
    DimensionMismatchError,
    MetricLpError,
    NonConvergenceError,
)
from .maps import (
    MeasurableMap,
    _budget_terms,
    _check_pair,
    check_eps,
    check_finite_p,
    check_p,
    differing_support,
    dp_distance,
    dp_from_pointwise,
    equivalent,
    is_member,
    is_trivial,
    pointwise_distance,
)
from .spaces import make_space

Array = np.ndarray

FAST_GAP_SLACK = 1e-12
CERTIFICATE_SLACK = 1e-9
MAX_PULL = 64            # terms riesz_fischer_limit may pull past the stored prefix
MEMBER_CAP = 200_000     # members the exhaustive separability probe may walk


def require(cond, msg: str) -> None:
    """Fail the running suite check unless `cond` holds.  Unlike `assert`,
    this also runs under `python -O`, so the suite cannot pass vacuously."""
    if not cond:
        raise CheckFailedError(msg)


# ---------------------------------------------------------------------------
# completeness: fast Cauchy sequences and their limits
# ---------------------------------------------------------------------------


@dataclass
class CauchySequenceSpec:
    """A D_p-Cauchy sequence: stored prefix plus optional block generator.

    `generator(ns)` must return the values of the terms ns (a range of
    1-based indices beyond the prefix) as one (len(ns), atoms, dim) stack
    over the prefix's domain and target.  The fast schedule
    D_p(f_n, f_{n+1}) <= 2**-n is a precondition on the prefix and is
    re-checked on every pulled term.
    """

    p: float
    prefix: list[MeasurableMap]
    generator: Callable[[range], Array] | None = None

    def term(self, n: int) -> MeasurableMap:
        if n < 1:
            raise MetricLpError("sequence terms are 1-based")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        values = _pull(self, range(n, n + 1))[0]
        return MeasurableMap(self.prefix[0].domain, self.prefix[0].space, values)


def _pull(spec: CauchySequenceSpec, ns: range) -> Array:
    """Values of the terms ns beyond the prefix as one checked
    (len(ns), atoms, dim) stack: one generator call, one payload check."""
    if not spec.prefix:
        raise MetricLpError("need at least one stored term")
    if spec.generator is None:
        raise MetricLpError(f"term {ns[-1]} beyond the stored prefix")
    ref = spec.prefix[0]
    block = np.asarray(spec.generator(ns), dtype=np.float64)
    want = (len(ns), ref.domain.atom_count, ref.space.dim)
    if block.shape != want:
        raise DimensionMismatchError(f"generator block must be {want}, got {block.shape}")
    return ref.space.check_payload(block)


def _prefix_values(spec: CauchySequenceSpec) -> tuple[Array, bool]:
    """The stored terms as one (n, atoms, dim) value stack, and whether
    their gaps keep the 2**-n schedule; refused unless every term shares
    the first one's domain and target."""
    for f in spec.prefix:
        _check_pair(spec.prefix[0], f)
    values = np.stack([f.values for f in spec.prefix])
    gaps = _dp_pairs(spec.prefix[0], values[:-1], values[1:], spec.p)
    return values, not any(gap > 2.0 ** (-(i + 1)) + FAST_GAP_SLACK for i, gap in enumerate(gaps))


def _dp_pairs(ref: MeasurableMap, a: Array, b: Array, p: float) -> Array:
    """D_p between paired maps over ref's domain and target, given as value
    stacks a and b of shape (m, atoms, dim) (b may hold one map for all),
    from one `distance_many` call.  Kernels are element-wise in the pairs,
    so each value has the bits of `dp_distance` on that pair of maps."""
    d = ref.space.distance_many(a, b)
    return dp_from_pointwise(d, ref.domain.weights, p)


def is_fast_cauchy(spec: CauchySequenceSpec) -> bool:
    """Check the 2**-n gap schedule on the stored prefix."""
    return not spec.prefix or _prefix_values(spec)[1]


def fast_subsequence(maps: list[MeasurableMap], p: float) -> list[int]:
    """Greedy indices of a subsequence obeying the 2**-k gap schedule.

    Starts at the first map; for each k picks the first later map within
    2**-k of the last pick.  Stops when the tail offers no admissible
    continuation, so the result may be a strict prefix selection.
    """
    if not maps:
        return []
    picks = [0]
    k = 1
    j = 0
    while True:
        budget = 2.0**-k
        nxt = None
        for cand in range(j + 1, len(maps)):
            if dp_distance(maps[j], maps[cand], p) <= budget + FAST_GAP_SLACK:
                nxt = cand
                break
        if nxt is None:
            return picks
        picks.append(nxt)
        j = nxt
        k += 1


@dataclass
class RieszFischerResult:
    limit: MeasurableMap
    n_terms: int
    residual: float
    certificates: list[tuple[int, float, float]]  # (n, measured, bound)


def riesz_fischer_limit(spec: CauchySequenceSpec, tol: float = 1e-10) -> RieszFischerResult:
    """Certified limit of a fast Cauchy sequence.

    Pulls terms until the schedule residual 2**-(m-1) (the worst possible
    distance from term m to any limit, summing the remaining gap bounds)
    drops below `tol`, then returns term m as the limit with measured
    certificates D_p(f_n, limit) <= 2**-(n-1) + 1e-9 for every stored n.
    `tol` must be positive; tol = inf certifies on the stored prefix.
    A pulled gap exceeding its 2**-k budget means the sequence left the
    fast schedule before stabilizing -- the observable trace of a missing
    limit -- and raises NonConvergenceError for the first such gap.

    Terms are pulled in blocks that double the sequence, at most MAX_PULL
    in all.  A block is one generator call, refused unless it is a
    (len(ns), atoms, dim) stack, and one payload check; the terms are kept
    as one value stack.  Each block's gaps are measured in one batched pass
    before the next block is pulled, so a stalled sequence is pulled at
    most to twice the index of its first bad gap.  The certificates are
    measured in one batched pass too.
    """
    p = check_p(spec.p)
    tol = float(tol)
    if not tol > 0:
        raise MetricLpError(f"tol must be positive, got {tol!r}")
    if not spec.prefix:
        raise MetricLpError("need at least one stored term")
    values, fast = _prefix_values(spec)
    if not fast:
        raise MetricLpError("stored prefix violates the fast gap schedule")
    ref = spec.prefix[0]
    held = values.shape[0]
    # tol = inf asks for nothing past the stored prefix
    target_m = held if math.isinf(tol) else max(held, int(math.ceil(-math.log2(tol))) + 1)
    last = held if spec.generator is None else min(target_m, held + MAX_PULL)
    while held < last:
        values = np.concatenate([values, _pull(spec, range(held + 1, min(2 * held, last) + 1))])
        gaps = _dp_pairs(ref, values[held - 1 : -1], values[held:], p)
        for k, gap in enumerate(gaps.tolist(), held):
            if gap > 2.0**-k + FAST_GAP_SLACK:
                raise NonConvergenceError(
                    f"gap {gap:.3e} at index {k} exceeds the fast schedule "
                    f"2**-{k} = {2.0 ** -k:.3e}; the sequence stalled before a "
                    "limit could be certified"
                )
        held = values.shape[0]
    if held < target_m:
        raise NonConvergenceError(
            f"cannot certify a limit: residual 2**-(m-1) with m={held} "
            f"terms exceeds tol={tol} and no further terms are available"
        )
    limit = MeasurableMap(ref.domain, ref.space, values[-1].copy())
    residual = 2.0 ** (-(held - 1))
    certificates = []
    for n, measured in enumerate(_dp_pairs(ref, values, limit.values[None], p).tolist(), 1):
        bound = 2.0 ** (-(n - 1)) + CERTIFICATE_SLACK
        if measured > bound:
            raise MetricLpError(
                f"certificate violated at n={n}: {measured:.3e} > {bound:.3e}"
            )
        certificates.append((n, measured, bound))
    return RieszFischerResult(limit, held, residual, certificates)


def incomplete_fixture() -> CauchySequenceSpec:
    """Fast Cauchy sequence in a resolution-floored target with no limit.

    Values live on the rational grid with denominator <= 10**6 (modelling
    the rationals as an incomplete target).  The sequence chases
    sqrt(2)/2: dyadic truncations floor(a*2**n)/2**n are legal grid
    rationals up to n = 19 (denominator 2**19 < 10**6), after which the
    best available terms are the two grid rationals bracketing the
    irrational limit, 10**-6 apart.  That oscillation breaks the 2**-n
    schedule at n = 20 (2**-20 < 10**-6), so `riesz_fischer_limit` raises
    its non-convergence error -- precisely because the limit is missing
    from the target.
    """
    alpha = math.sqrt(2.0) / 2.0
    domain = Domain(np.full(4, 0.25))
    space = make_space("euclidean1")
    low = math.floor(alpha * 10**6) / 10**6
    high = low + 1e-6

    def block(ns: range) -> Array:
        v = [math.floor(alpha * 2**n) / 2**n if n <= 19 else high if n % 2 else low for n in ns]
        return np.repeat(np.array(v)[:, None, None], domain.atom_count, axis=1)

    prefix = [MeasurableMap(domain, space, v) for v in block(range(1, 13))]
    return CauchySequenceSpec(p=2.0, prefix=prefix, generator=block)


def geodesic_cauchy_fixture(
    domain: Domain,
    space,
    rng: np.random.Generator,
    p: float,
) -> tuple[CauchySequenceSpec, MeasurableMap]:
    """Fast Cauchy sequence sliding along per-atom geodesics, plus its
    known limit.  Per-atom geodesic lengths are clipped to 0.9 and the
    domain measure is at most 1, so gaps are at most 0.9 * 2**-n.  Term n
    sits at time 1 - 2**-(n-1); a block of terms is one `geodesic_many`
    call, with the times as a column against the atoms."""
    n_atoms = domain.atom_count
    start = space.random_payloads(rng, n_atoms)
    raw = space.random_payloads(rng, n_atoms)
    lengths = space.distance_many(start, raw)
    shrink = np.minimum(1.0, 0.9 / np.maximum(lengths, 1e-12))
    target = space.geodesic_many(start, raw, shrink)

    def block(ns: range) -> Array:
        t = np.array([1.0 - 2.0 ** (-(n - 1)) for n in ns])
        return space.geodesic_many(start, target, t[:, None])

    prefix = [MeasurableMap(domain, space, v) for v in block(range(1, 7))]
    spec = CauchySequenceSpec(p=p, prefix=prefix, generator=block)
    return spec, MeasurableMap(domain, space, target)


# ---------------------------------------------------------------------------
# separability: countable dense family and the first-member probe
# ---------------------------------------------------------------------------


@dataclass
class DenseFamily:
    """Countable family: base mapping altered on Venn cells of generator
    sets, with altered values drawn from a dense-sequence prefix; the
    domain and the space are the base's.

    Members are enumerated by (number of altered cells ascending, cell
    index combinations lexicographic, value index tuples lexicographic);
    member 0 is the unaltered base.
    """

    base: MeasurableMap
    cells: list[AtomSet]
    values: Array

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_values(self) -> int:
        return int(self.values.shape[0])


def build_dense_family(
    base: MeasurableMap, gen_levels: int = 2, val_budget: int = 8
) -> DenseFamily:
    """Generators are dyadic half-spaces {coordinate_axis <= j/2**l} for
    grid domains (ordered by level, then axis, then threshold) and atom
    singletons otherwise; cells are the nonempty Venn atoms of the
    generators, ordered by first atom index."""
    domain = base.domain
    n = domain.atom_count
    generators: list[AtomSet] = []
    if domain.geometry is not None:
        coords = domain.coordinates()
        for level in range(1, gen_levels + 1):
            for axis in range(domain.geometry.dim):
                for j in range(1, 2**level, 2):
                    thr = j / 2.0**level
                    generators.append(AtomSet.from_mask(coords[:, axis] <= thr))
    else:
        generators = [AtomSet(np.array([i]), n) for i in range(n)]
    signature = np.stack([g.mask() for g in generators], axis=1) if generators else np.zeros((n, 0), dtype=bool)
    distinct, cell_ids = quantize.dedup_rows_in_order(signature)
    cells = [AtomSet.from_mask(cell_ids == c) for c in range(distinct.shape[0])]
    values = base.space.dense_payloads(val_budget)
    return DenseFamily(base, cells, values)


def member_from_pairs(
    family: DenseFamily, pairs: tuple[tuple[int, int], ...]
) -> MeasurableMap:
    """Materialize the family member altering cell c to value v per pair."""
    vals = family.base.values.copy()
    for c, v in pairs:
        vals[family.cells[c].indices] = family.values[v]
    return MeasurableMap(family.base.domain, family.base.space, vals)


def _member_pairs(family: DenseFamily, cap: int):
    """Yield the alteration pairs of the members in the documented order,
    at most cap members."""
    count = 0
    for k in range(family.n_cells + 1):
        for cells in itertools.combinations(range(family.n_cells), k):
            for vals in itertools.product(range(family.n_values), repeat=k):
                if count >= cap:
                    return
                yield tuple(zip(cells, vals))
                count += 1


def enumerate_members(family: DenseFamily, cap: int):
    """Yield (pairs, member) in the documented order, at most cap members."""
    for pairs in _member_pairs(family, cap):
        yield pairs, member_from_pairs(family, pairs)


@dataclass
class ProbeReport:
    found: bool
    pairs: tuple[tuple[int, int], ...]
    distance: float | None
    p: float
    eps: float
    scanned: int | None = None


def separability_probe(f: MeasurableMap, family: DenseFamily, p: float, eps: float) -> ProbeReport:
    """First family member at D_p distance strictly below eps from f.

    One (cells, 1 + values) table holds the costs in units of eps**p, each
    a sum of the budget terms of `maps`: column 0 is a cell's cost when it
    keeps the base, column 1 + v its cost when set to value v.  A member is
    within eps when the `math.fsum` of its cells' entries, plus the cost of
    the atoms in no cell, is below 1.  An fsum is the exact sum rounded
    once, so a verdict depends only on the multiset of entries summed.

    A cell's gain is what its cheapest value saves over the base.  For
    k = 0, 1, ... the walk tests the k cells of largest gain, then picks
    cell by cell the first one that the largest-gain cells after it still
    complete within eps, all at their cheapest values, then each cell's
    first value that keeps the others at theirs within eps.  The set that
    admitted a step is among that step's candidates, so every step finds
    its pick.  Members are visited in the enumeration order of the oracle,
    `exhaustive_probe`, and the walk stops at the oracle's member unless
    some D_p lies within rounding of eps.
    """
    p = check_finite_p(p)
    check_eps(eps)
    w = family.base.domain.weights
    base_terms = _budget_terms(pointwise_distance(f, family.base), w, eps, p)
    n_cells, n_vals = family.n_cells, family.n_values
    costs = []
    outside = np.ones(w.shape[0], dtype=bool)
    for c in family.cells:
        idx = c.indices
        outside[idx] = False
        table = family.base.space.distance_many(f.values[idx][None], family.values[:, None])
        row = _budget_terms(table, w[idx], eps, p).sum(axis=1).tolist()
        costs.append([float(base_terms[idx].sum()), *row])
    rest = [float(base_terms[outside].sum())]
    keep = [row[0] for row in costs]
    best = [min(row[1:]) for row in costs]
    # cells by the gain of their cheapest value, largest first
    by_gain = sorted(range(n_cells), key=lambda c: best[c] - keep[c])

    def within(altered: dict[int, float]) -> bool:
        return math.fsum(rest + [altered.get(c, keep[c]) for c in range(n_cells)]) < 1.0

    def cheapest(cells: list[int], r: int) -> dict[int, float]:
        """The cells at their cheapest values, completed by the r cells
        after them with the largest gains."""
        after = cells[-1] if cells else -1
        return {c: best[c] for c in cells + [j for j in by_gain if j > after][:r]}

    for k in range(n_cells + 1):
        if not within(cheapest([], k)):
            continue
        cells: list[int] = []
        for r in reversed(range(k)):
            start = cells[-1] + 1 if cells else 0
            cells.append(next(c for c in range(start, n_cells) if within(cheapest(cells + [c], r))))
        picked = cheapest(cells, 0)
        values = []
        for c in cells:
            v = next(v for v in range(n_vals) if within({**picked, c: costs[c][1 + v]}))
            picked[c] = costs[c][1 + v]
            values.append(v)
        pairs = tuple(zip(cells, values))
        dist = dp_distance(f, member_from_pairs(family, pairs), p)
        return ProbeReport(True, pairs, dist, p, eps)
    return ProbeReport(False, (), None, p, eps)


def exhaustive_probe(f: MeasurableMap, family: DenseFamily, p: float, eps: float) -> ProbeReport:
    """The first member, in enumeration order, at D_p distance below eps:
    the oracle of `separability_probe`, walking at most MEMBER_CAP members.

    Members are measured in blocks of `spaces.BLOCK_PAIRS // atoms` (at
    least one): a block is one (members, atoms, dim) value stack, the base
    values with each altered cell's atoms copied from the family values
    (checked once; the cells are disjoint Venn atoms, so the order of a
    member's pairs does not matter), then one `distance_many` and one
    `dp_from_pointwise` call.  Each row's distance has the bits of
    `dp_distance(f, member)`, so the first row below eps is the member the
    one-by-one walk stops at.
    """
    p = check_finite_p(p)
    check_eps(eps)
    _check_pair(f, family.base)
    values = family.base.space.check_payload(family.values)
    base = family.base.values
    n_cells = family.n_cells
    # the cell of each atom; atoms in no cell read column n_cells, never altered
    cell_of = np.full(base.shape[0], n_cells)
    for ci, c in enumerate(family.cells):
        cell_of[c.indices] = ci
    size = max(1, spaces.BLOCK_PAIRS // max(1, base.shape[0]))
    members = _member_pairs(family, MEMBER_CAP)
    scanned = 0
    while block := list(itertools.islice(members, size)):
        # choice[r, c]: the value index member r puts on cell c, -1 for the base
        choice = np.full((len(block), n_cells + 1), -1)
        for r, pairs in enumerate(block):
            for c, v in pairs:
                choice[r, c] = v
        pick = choice[:, cell_of]
        altered = pick >= 0
        stack = np.repeat(base[None], len(block), axis=0)
        stack[altered] = values[pick[altered]]
        d = family.base.space.distance_many(f.values[None], stack)
        dists = dp_from_pointwise(d, f.domain.weights, p)
        hits = np.flatnonzero(dists < eps)
        if hits.size:
            r = int(hits[0])
            return ProbeReport(True, block[r], float(dists[r]), p, eps, scanned + r + 1)
        scanned += len(block)
    return ProbeReport(False, (), None, p, eps, scanned)


# ---------------------------------------------------------------------------
# the theorem suite
# ---------------------------------------------------------------------------


@dataclass
class SuiteResult:
    entries: list[dict]
    seed: int
    runtime_seconds: float

    @property
    def all_pass(self) -> bool:
        return all(e["status"] == "pass" for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "all_pass": self.all_pass,
            "runtime_seconds": self.runtime_seconds,
            "entries": self.entries,
        }


class SuiteContext:
    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])


SPACE_NAMES = ["euclidean3", "spd2", "simplex3", "histogram8", "circle"]


def _check_space_metric_axioms(ctx: SuiteContext) -> dict:
    worst_tri = 0.0
    for name in SPACE_NAMES:
        space = make_space(name)
        rng = ctx.rng(f"axioms-{name}")
        x = space.random_payloads(rng, 120)
        a, b, c = x[0::3], x[1::3], x[2::3]
        d_ab = space.distance_many(a, b)
        d_ba = space.distance_many(b, a)
        d_ac = space.distance_many(a, c)
        d_cb = space.distance_many(c, b)
        require(np.array_equal(d_ab, d_ba), f"{name}: symmetry not exact")
        require(np.all(space.distance_many(a, a) == 0.0), f"{name}: identity not exact")
        require(np.all(d_ab > 0.0), f"{name}: positivity violated")
        slack = d_ab - (d_ac + d_cb)
        rel = float(np.max(slack / np.maximum(d_ab, 1e-300)))
        worst_tri = max(worst_tri, rel)
        require(rel <= 1e-12, f"{name}: triangle violated by {rel:.2e} relative")
    return {"worst_triangle_rel": worst_tri}


def _check_space_geodesics(ctx: SuiteContext) -> dict:
    worst = 0.0
    for name in SPACE_NAMES:
        space = make_space(name)
        rng = ctx.rng(f"geodesic-{name}")
        a = space.random_payloads(rng, 40)
        b = space.random_payloads(rng, 40)
        d = space.distance_many(a, b)
        ends0 = space.geodesic_many(a, b, np.zeros(40))
        ends1 = space.geodesic_many(a, b, np.ones(40))
        require(
            np.array_equal(ends0, a) and np.array_equal(ends1, b),
            f"{name}: geodesic endpoints not verbatim",
        )
        for t in (0.25, 0.5, 0.75):
            mid = space.geodesic_many(a, b, np.full(40, t))
            gap = np.abs(space.distance_many(a, mid) - t * d)
            rel = float(np.max(gap / (1.0 + d)))
            worst = max(worst, rel)
            require(rel <= 1e-9, f"{name}: geodesic speed off by {rel:.2e} at t={t}")
    return {"worst_speed_rel": worst}


def _covering_radius(space, probe: Array, centers: Array) -> float:
    """Covering radius of `probe` by `centers`, which must not be empty
    (ValueError): the directed Hausdorff distance max_x min_c d(x, c).

    A strided sample of the probe, probe[::step] with at most
    `spaces.BLOCK_PAIRS // len(centers)` rows (at least one), is measured
    against the centers in one call.  When the sample is the whole probe
    its largest minimum is the radius.  Otherwise one pass goes over the
    probe, in blocks of BLOCK_PAIRS rows.  The pass takes the m centers in
    chunks of its visit order ending at every power of two below m and at
    m; a chunk is one `distance_many` table against the block's remaining
    rows, which `distance_many` cuts into kernel calls of at most
    BLOCK_PAIRS pairs.

    - The pass starts from a lower bound: the largest minimum among the
      sample rows.  The sample rows are probe rows, and every kernel is
      element-wise in the pairs, so each sample minimum has the bits the
      full pass would give that row, and the radius, the largest minimum
      over all rows, is at least the bound.  A row that reaches the last
      chunk raises the bound to its exact minimum, so the bound is always
      attained by some probe row.
    - After each chunk a row whose running minimum is at or below the bound
      is dropped (early break, Taha & Hanbury 2015).  Its minimum can only
      fall further, so it is at most the radius and cannot raise the max.
    - Centers are visited in a data-driven order: centers[0] first, then
      the rest by how many sample rows each is nearest to, most first, ties
      by index.  Near centers bring running minima down early, so most rows
      drop after a few chunks.  `min` and `max` are exact and order-free on
      NaN-free values, so the order changes which rows drop and when, never
      a bit of the radius.
    - NaN: a NaN running minimum compares false, so it is never dropped and
      reaches the radius; a NaN bound compares false too, so it drops
      nothing and stays NaN.  centers[0] opens the pass and nothing drops
      before the first chunk, so every row meets it.  A NaN the pass
      never evaluates, on a row dropped before it, is not seen; with
      NaN-free distances the radius is bit for bit that of a running
      minimum over all probe rows and centers.
    """
    m = len(centers)
    if m == 0:
        raise ValueError("the covering radius needs at least one center")
    n = probe.shape[0]
    budget = spaces.BLOCK_PAIRS
    step = max(1, -(-n // max(1, budget // m)))
    sample = space.distance_many(probe[None, ::step], centers[:, None])  # (m, sample rows)
    bound = sample.min(axis=0).max(initial=-np.inf)
    if step == 1:
        return float(bound)
    nearest = np.bincount(sample.argmin(axis=0), minlength=m)
    order = np.concatenate(([0], 1 + np.argsort(-nearest[1:], kind="stable")))
    ends = [1 << i for i in range(m.bit_length()) if 1 << i < m] + [m]
    for start in range(0, n, budget):
        rows = probe[start : start + budget]
        run = np.full(rows.shape[0], np.inf)
        lo = 0
        for hi in ends:
            chunk = centers[order[lo:hi], None]
            run = np.minimum(run, space.distance_many(rows[None], chunk).min(axis=0))
            lo = hi
            keep = ~(run <= bound)
            if not keep.all():
                rows, run = rows.compress(keep, axis=0), run[keep]
                if rows.shape[0] == 0:
                    break
        bound = np.maximum(bound, run.max(initial=-np.inf))
    return float(bound)


def _check_space_dense(ctx: SuiteContext) -> dict:
    metrics = {}
    for name in SPACE_NAMES:
        space = make_space(name)
        k = 40
        prefix = space.dense_payloads(k)
        longer = space.dense_payloads(k + 17)
        require(np.array_equal(prefix, longer[:k]), f"{name}: enumeration not a prefix")
        probe = space.unit_probe()
        r5, r40 = _covering_radius(space, probe, prefix[:5]), _covering_radius(space, probe, prefix)
        require(r40 < r5, f"{name}: covering radius not shrinking ({r5} -> {r40})")
        metrics[f"{name}_covering_radius_40"] = r40
    return metrics


def _check_space_nets(ctx: SuiteContext) -> dict:
    space = make_space("euclidean2")
    center = np.zeros(2)
    net = space.epsilon_net(center, 1.0, 0.4)
    probes = space.probe_ball(center, 1.0, 0.05)
    radius = _covering_radius(space, probes, net)
    require(radius < 0.4, "euclidean net fails its covering")
    # Greedy farthest-first on the full circle: {0, pi} covers at radius
    # pi/2, so eps above pi/2 stops at 2 points; below it the third insert
    # still leaves an antipodal midpoint at distance pi/2, forcing a
    # fourth -- greedy never returns 3 here.  Margins of 0.3 keep both
    # assertions clear of the probe-grid spacing (~eps/4).
    circle = make_space("circle")
    north = [0.0]
    net2 = circle.epsilon_net(north, math.pi, math.pi / 2 + 0.3)
    require(len(net2) == 2, f"circle net size {len(net2)} != 2")
    net4 = circle.epsilon_net(north, math.pi, math.pi / 2 - 0.3)
    require(len(net4) == 4, f"circle net size {len(net4)} != 4")
    hist = make_space("histogram8")
    try:
        hist.epsilon_net(np.full(8, 1 / 8), 1.0, 0.1)
        raise CheckFailedError("histogram accepted an epsilon net request")
    except CapabilityError:
        pass
    return {
        "euclidean_net_size": len(net),
        "circle_net_sizes": [len(net2), len(net4)],
    }


def _check_domain_measure(ctx: SuiteContext) -> dict:
    rng = ctx.rng("measure")
    domain = Domain.grid(2, 16)
    full = AtomSet.full(domain.atom_count)
    require(abs(measure(domain, full) - 1.0) <= 1e-12, "grid weights do not sum to one")
    mask = rng.random(domain.atom_count) < 0.5
    s1, s2 = AtomSet.from_mask(mask), AtomSet.from_mask(~mask)
    add_gap = abs(measure(domain, s1) + measure(domain, s2) - measure(domain, full))
    require(add_gap <= 1e-12, "additivity violated")
    w = np.array([0.0, math.inf, 1.0])
    dom_inf = Domain(w)
    require(math.isinf(measure(dom_inf, AtomSet.full(3))), "infinite atom lost")
    require(not is_purely_infinite(dom_inf), "finite atom ignored")
    require(is_purely_infinite(Domain(np.array([0.0, math.inf]))), "not purely infinite")
    return {"additivity_gap": add_gap}


def _check_domain_morphology(ctx: SuiteContext) -> dict:
    rng = ctx.rng("morphology")
    domain = Domain.grid(2, 24)
    coords = domain.coordinates()
    worst_urysohn = 0.0
    branches = set()
    for trial in range(4):
        c0 = rng.uniform(0.3, 0.7, size=2)
        r0 = rng.uniform(0.12, 0.25)
        b = AtomSet.from_mask(((coords - c0) ** 2).sum(axis=1) <= r0**2)
        # the least erosion removes b's cells within one Chebyshev step of
        # the complement, and the least dilation adds the complement's cells
        # within one step of b; even trials afford neither ring, odd ones both
        near_out = outer_open_approx(domain, b.complement(), math.inf).atoms
        ring_in = measure(domain, b.intersection(near_out))
        ring_out = outer_open_approx(domain, b, math.inf).gap
        if trial % 2:
            delta = max(ring_in, ring_out) * float(rng.uniform(1.01, 2.0))
        else:
            delta = min(ring_in, ring_out) * float(rng.uniform(0.5, 1.0))
        inner = inner_closed_approx(domain, b, delta)
        outer = outer_open_approx(domain, b, delta)
        require(inner.atoms.size > 0, "erosion emptied the core")
        require(np.all(np.isin(inner.atoms.indices, b.indices)), "core not inside input")
        require(np.all(np.isin(b.indices, outer.atoms.indices)), "input not inside envelope")
        require(inner.over_budget == (ring_in >= delta), "erosion flag disagrees with its ring")
        require(outer.over_budget == (ring_out >= delta), "dilation flag disagrees with its ring")
        if not inner.over_budget:
            require(inner.gap < delta, "erosion exceeded its measure budget")
        if not outer.over_budget:
            require(outer.gap < delta, "dilation exceeded its measure budget")
        branches |= {("erosion", inner.over_budget), ("dilation", outer.over_budget)}
        trans = urysohn(domain, inner.atoms, outer.atoms)
        vals = trans.values
        require(np.all(vals[inner.atoms.indices] == 1.0), "transition not 1 on the core")
        outside = AtomSet.full(domain.atom_count).difference(outer.atoms)
        require(np.all(vals[outside.indices] == 0.0), "transition not 0 outside")
        require(np.all((vals >= 0.0) & (vals <= 1.0)), "transition leaves [0, 1]")
        left, right = face_adjacent_pairs(domain.geometry)
        diffs = np.abs(vals[left] - vals[right])
        bound = domain.geometry.cell_size / trans.gap_width + 1e-12
        worst_urysohn = max(worst_urysohn, float(diffs.max() - bound))
        require(diffs.max() <= bound, "transition modulus violated")
    require(len(branches) == 4, f"budget branches left unchecked: {sorted(branches)}")
    return {"worst_urysohn_slack": worst_urysohn}


def _check_lp_metric(ctx: SuiteContext) -> dict:
    domain = Domain(np.concatenate([ctx.rng("lpw").uniform(0.01, 1.0, 30), [0.0, 0.0]]))
    worst = 0.0
    for name in ("euclidean2", "simplex3"):
        space = make_space(name)
        rng = ctx.rng(f"lp-{name}")
        f, g, h = (fields.random_map(domain, space, rng) for _ in range(3))
        d = pointwise_distance(f, g)
        for p in (1.0, 1.7, 2.0, 4.0, math.inf):
            d_fg = dp_distance(f, g, p)
            if math.isfinite(p):
                direct = math.fsum(domain.weights * d**p) ** (1.0 / p)
                require(abs(d_fg - direct) <= 1e-12 * direct, f"D_{p} off its defining sum")
            require(d_fg == dp_distance(g, f, p), "D_p symmetry not exact")
            require(dp_distance(f, f, p) == 0.0, "D_p identity not exact")
            slack = d_fg - (dp_distance(f, h, p) + dp_distance(h, g, p))
            rel = slack / max(d_fg, 1e-300)
            worst = max(worst, rel)
            require(rel <= 1e-12, f"D_{p} triangle violated by {rel:.2e}")
        twin = MeasurableMap(domain, space, f.values.copy())
        twin.values[-1] = g.values[-1]  # zero-weight atom may differ freely
        require(equivalent(f, twin), "null-set change broke equivalence")
        for p in (1.0, 2.0, math.inf):
            require(dp_distance(f, twin, p) == 0.0, "D_p nonzero on equivalent maps")
        other = MeasurableMap(domain, space, f.values.copy())
        other.values[0] = g.values[0]
        require(not equivalent(f, other), "weighted change kept equivalence")
        require(dp_distance(f, other, 2.0) > 0.0, "D_2 zero on inequivalent maps")
    return {"worst_triangle_rel": float(worst)}


def _check_lp_embedding(ctx: SuiteContext) -> dict:
    rng = ctx.rng("embed")
    space = make_space("euclidean3")
    worst = 0.0
    for mu in (0.5, 1.0, 4.0):
        domain = Domain(np.full(16, mu / 16))
        pts = space.random_payloads(rng, 2)
        fa = MeasurableMap.constant(domain, space, pts[0])
        fb = MeasurableMap.constant(domain, space, pts[1])
        d = space.distance_many(pts[0][None], pts[1][None])[0]
        for p in (1.0, 2.0, 4.0):
            got = dp_distance(fa, fb, p)
            want = mu ** (1.0 / p) * d
            rel = abs(got - want) / want
            worst = max(worst, rel)
            require(rel <= 1e-12, f"D_{p} embedding off by {rel:.2e} relative")
        require(
            abs(dp_distance(fa, fb, math.inf) - d) <= 1e-12 * d, "D_inf embedding not isometric"
        )
    return {"worst_embedding_rel": float(worst)}


def _check_lp_holder_base(ctx: SuiteContext) -> dict:
    rng = ctx.rng("holder")
    domain = Domain.grid(1, 64)
    space = make_space("euclidean2")
    worst_h = worst_b = 0.0
    for _ in range(20):
        f = fields.random_map(domain, space, rng)
        g = fields.random_map(domain, space, rng)
        h2 = fields.random_map(domain, space, rng)
        # one pointwise vector per pair, reduced per exponent (the bits of
        # dp_distance at each p)
        w = domain.weights
        d_fg, d_fh, d_gh = (pointwise_distance(a, b) for a, b in ((f, g), (f, h2), (g, h2)))
        for p, q in ((1.0, 2.0), (2.0, 4.0), (1.5, 3.0)):
            lhs = dp_from_pointwise(d_fg, w, p)
            rhs = dp_from_pointwise(d_fg, w, q) * 1.0 ** (1 / p - 1 / q)
            rel = (lhs - rhs) / max(rhs, 1e-300)
            worst_h = max(worst_h, rel)
            require(rel <= 1e-12, "Hoelder inclusion violated")
        for p in (1.0, 2.0, 4.0):
            lhs = dp_from_pointwise(d_fh, w, p) ** p
            rhs = 2.0 ** (p - 1) * (
                dp_from_pointwise(d_fg, w, p) ** p + dp_from_pointwise(d_gh, w, math.inf) ** p * 1.0
            )
            rel = (lhs - rhs) / max(rhs, 1e-300)
            worst_b = max(worst_b, rel)
            require(rel <= 1e-12, "base-invariance bound violated")
    return {"worst_holder_rel": float(worst_h), "worst_base_rel": float(worst_b)}


def _check_lp_triviality_support(ctx: SuiteContext) -> dict:
    rng = ctx.rng("trivial")
    space = make_space("euclidean2")
    dom_pinf = Domain(np.array([0.0, math.inf, math.inf, 0.0]))
    require(is_trivial(dom_pinf, space), "purely infinite domain not trivial")
    h = fields.random_map(dom_pinf, space, rng)
    f = MeasurableMap(dom_pinf, space, h.values.copy())
    f.values[0] = f.values[0] + 5.0  # zero-weight atom
    for p in (1.0, 2.0, 4.0):
        require(is_member(f, h, p) and dp_distance(f, h, p) == 0.0, "null-set change visible")
    require(not is_trivial(Domain.grid(1, 4), space), "finite grid domain trivial")
    one_point = make_space("simplex1")
    require(is_trivial(Domain.grid(1, 4), one_point), "one-point target not trivial")

    domain = Domain(np.concatenate([[0.0], ctx.rng("supw").uniform(0.01, 2.0, 40)]))
    f = fields.random_map(domain, space, rng)
    h2 = fields.random_map(domain, space, rng)
    pieces = differing_support(f, h2, 2.0)
    seen = np.zeros(domain.atom_count, dtype=bool)
    d = pointwise_distance(f, h2)
    live = (d > 0) & (domain.weights > 0)
    for (nlev, mlev), atoms in pieces.items():
        require(not seen[atoms.indices].any(), "support pieces overlap")
        seen[atoms.indices] = True
        require(math.isfinite(measure(domain, atoms)), "support piece of infinite measure")
        for x in atoms.indices:
            require(d[x] > 1.0 / nlev, "deviation level too fine")
            require(nlev == 1 or d[x] <= 1.0 / (nlev - 1), "deviation level not minimal")
            base_d = space.distance_many(
                h2.values[x][None], space.dense_payloads(1)[0][None]
            )[0]
            require(base_d <= mlev, "base-boundedness level misses the target-side value")
            require(base_d > mlev - 1 or mlev == 0, "base-boundedness level is not minimal")
    require(np.array_equal(np.nonzero(seen)[0], np.nonzero(live)[0]), "pieces miss the support")
    return {"n_pieces": len(pieces)}


def _check_approx_countable(ctx: SuiteContext) -> dict:
    rng = ctx.rng("countable")
    domain = Domain.grid(2, 16)
    space = make_space("euclidean2")
    f = fields.smooth_field(domain, space, rng)
    eps = 0.2
    simple, report = quantize.countable_quantize(f, eps)
    require(report.achieved_error < eps, "sup error over budget")
    require(simple.range_size <= domain.atom_count, "range larger than the domain")
    half = AtomSet.from_mask(np.arange(domain.atom_count) < domain.atom_count // 2)
    out2, rep2 = quantize.countable_quantize(
        f, eps, pieces=[half, half.complement()], p=2.0
    )
    require(rep2.achieved_error < eps, "sigma-finite error over budget")
    return {"sup_error": report.achieved_error, "sigma_error": rep2.achieved_error}


def _check_approx_almost_simple(ctx: SuiteContext) -> dict:
    metrics = {}
    for name in ("spd2", "simplex3"):
        space = make_space(name)
        rng = ctx.rng(f"almost-{name}")
        domain = Domain.grid(2, 24)
        f = fields.smooth_field(domain, space, rng)
        h = MeasurableMap.constant(domain, space, space.random_payloads(rng, 1)[0])
        for p in (1.0, 2.0):
            eps = 0.3
            simple, report = quantize.almost_simple_approx(f, h, p, eps)
            require(report.achieved_error < eps, f"{name} p={p}: error too large")
            for step, err in report.step_breakdown.items():
                require(err < eps / 3, f"{name} p={p}: {step} overspent")
            metrics[f"{name}_p{p}_error"] = report.achieved_error
            metrics[f"{name}_p{p}_range"] = report.range_size
    return metrics


def _check_approx_sup_net(ctx: SuiteContext) -> dict:
    metrics = {}
    for name in ("euclidean2", "circle"):
        space = make_space(name)
        rng = ctx.rng(f"supnet-{name}")
        domain = Domain.grid(2, 12)
        f = fields.smooth_field(domain, space, rng)
        h = MeasurableMap.constant(domain, space, f.values[0])
        eps = 0.25
        simple, report = quantize.simple_approx_sup(f, h, eps)
        require(report.achieved_error < eps, f"{name}: sup error over budget")
        metrics[f"{name}_error"] = report.achieved_error
    hist = make_space("histogram8")
    rng = ctx.rng("supnet-hist")
    domain = Domain.grid(2, 6)
    f = fields.random_map(domain, hist, rng)
    h = MeasurableMap.constant(domain, hist, f.values[0])
    try:
        quantize.simple_approx_sup(f, h, 0.25)
        raise CheckFailedError("histogram target accepted a sup quantization")
    except CapabilityError:
        pass
    return metrics


def _check_approx_orthonormal(ctx: SuiteContext) -> dict:
    floor = math.sqrt(2.0) / 2.0
    metrics = {}
    for n, k in ((4, 3), (6, 2), (6, 5)):
        rep = quantize.orthonormal_lower_bound(n, k)
        require(rep.min_max_error >= floor - 1e-12, "error below sqrt(2)/2")
        gap = abs(rep.min_max_error - rep.pigeonhole_bound)
        require(gap <= 1e-12, "optimum off the pigeonhole bound")
        d_inf = dp_distance(rep.mapping, rep.best_map, math.inf)
        require(abs(d_inf - rep.min_max_error) <= 1e-12, "best map misses its error")
        metrics[f"minmax_{n}_{k}"] = rep.min_max_error
    require(quantize.orthonormal_lower_bound(4, 4).min_max_error == 0.0, "k = n not exact")
    return metrics


def _check_approx_divergence(ctx: SuiteContext) -> dict:
    const_seq, k_seq = [], []
    for n in (64, 128, 256, 512, 1024):
        rep = quantize.divergence_fixture("unbounded_base", n, 2.0, 3)
        # the best constant is the weighted mean: its D_2 error is h's weighted std
        w, h = np.full(n, 1.0 / n), ((np.arange(n) + 0.5) / n) ** -0.5
        std = math.sqrt(math.fsum(w * (h - math.fsum(w * h) / math.fsum(w)) ** 2))
        require(abs(rep.best_constant_error - std) <= 1e-12 * std, "best constant off the std")
        require(rep.best_k_error <= rep.best_constant_error, "k values worse than one")
        const_seq.append(rep.best_constant_error)
        k_seq.append(rep.best_k_error)
    require(all(a < b for a, b in zip(const_seq, const_seq[1:])), f"{const_seq}")
    require(all(a < b for a, b in zip(k_seq, k_seq[1:])), f"{k_seq}")
    exp_seq = []
    for t in (1, 2, 3, 4, 5):
        rep = quantize.divergence_fixture("exponential_base", t, 1.0, 3)
        exp_seq.append(rep.best_k_error)
    require(all(a < b for a, b in zip(exp_seq, exp_seq[1:])), f"{exp_seq}")
    return {"unbounded_last": const_seq[-1], "exponential_last": exp_seq[-1]}


def _relax_fixture_2d():
    space = make_space("euclidean2")
    domain = Domain.grid(2, 48)
    labels = fields.disk_labels(
        domain.geometry, np.array([[0.3, 0.3], [0.7, 0.65]]), np.array([0.12, 0.15])
    )
    table = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.45]])
    g = fields.simple_from_labels(domain, space, labels, table)
    z0 = [0.0, 0.0]
    return g, z0


def _check_relax_continuous(ctx: SuiteContext) -> dict:
    g, z0 = _relax_fixture_2d()
    eps, p = 0.25, 1.0
    out = relax.smooth_from_simple(g, z0, p, eps, order=0)
    require(out.flags["guarantee_holds"], "budget flags raised on a sized fixture")
    require(out.achieved_error < relax.error_bound(out) <= eps, "error over its bound")
    direct = math.fsum(g.domain.weights * pointwise_distance(g, out.map))
    require(abs(out.achieved_error - direct) <= 1e-12 * direct, "error off its defining sum")
    # each piece's transition zone is its eroded shell plus its grabbed ring,
    # each under the per-piece budget delta = (eps / (2 k^(1/p) R))^p; the
    # fixture's disks erode fully under the p = 1 budget, so only the
    # smaller p = 2 budget sees an erosion that overspends it
    out2 = relax.smooth_from_simple(g, z0, 2.0, eps, order=0)
    require(not any(out2.flags[flag] for flag in ("inner_over_budget", "outer_over_budget")),
            "budget flags raised at p = 2")
    table = g.value_table[np.flatnonzero(np.bincount(g.labels))]
    lifts = g.space.distance_many(z0, table)
    k, radius = int(np.count_nonzero(lifts)), float(lifts.max())
    for run in (out, out2):
        delta = (eps / (2.0 * k ** (1.0 / run.p) * radius)) ** run.p
        for piece in run.pieces:
            zone = measure(g.domain, piece.region.difference(piece.core))
            require(zone < 2.0 * delta, f"p = {run.p:g}: transition zone over twice the piece budget")
    covered = np.zeros(g.domain.atom_count, dtype=bool)
    for piece in out.pieces:
        core_vals = out.map.values[piece.core.indices]
        require(
            np.array_equal(core_vals, np.tile(piece.value, (piece.core.size, 1))),
            "core values not exact",
        )
        covered[piece.region.indices] = True
    outside = out.map.values[~covered]
    require(
        np.array_equal(outside, np.tile(out.background, (outside.shape[0], 1))),
        "background not exact outside the regions",
    )
    report = relax.adjacent_difference_report(out)
    require(report["max_ratio"] <= 1.0 + 1e-9, f"{report}")
    # at p = 1 the error and its p-th power agree; at p = 2 the error must be
    # the root of its defining sum
    direct2 = math.fsum(g.domain.weights * pointwise_distance(g, out2.map) ** 2) ** 0.5
    require(abs(out2.achieved_error - direct2) <= 1e-12 * direct2, "p = 2 error off its sum's root")
    require(out2.achieved_error < relax.error_bound(out2), "p = 2 error over its bound")
    return {"error": out.achieved_error, "modulus_ratio": report["max_ratio"]}


def _check_relax_smooth(ctx: SuiteContext) -> dict:
    g, z0 = _relax_fixture_2d()
    eps, p = 0.25, 1.0
    smooth = relax.smooth_from_simple(g, z0, p, eps, order=2)
    order0 = relax.smooth_from_simple(g, z0, p, eps, order=0)
    for piece in order0.pieces:
        region = piece.region.indices
        cont = g.space.geodesic_many(order0.background, piece.value, piece.transition)
        require(np.array_equal(order0.map.values[region], cont), "order 0 is not bit-identical")
    require(smooth.achieved_error < eps, "smooth error over budget")
    for piece in smooth.pieces:
        require(piece.sup_gap <= piece.sup_gap_budget, "smooth sup budget exceeded")
    # at p = 1 the error and its p-th power agree; at p = 2 the error must be
    # the root of its defining sum
    smooth2 = relax.smooth_from_simple(g, z0, 2.0, eps, order=2)
    direct2 = math.fsum(g.domain.weights * pointwise_distance(g, smooth2.map) ** 2) ** 0.5
    require(abs(smooth2.achieved_error - direct2) <= 1e-12 * direct2, "p = 2 error off its sum's root")
    t = np.array([0.25])
    require(float(relax.smoothstep(t, 2)[0]) == 0.103515625, "smoothstep value")
    require(relax.smoothstep_max_slope(1) == 1.5, "smoothstep slope, order 1")
    require(relax.smoothstep_max_slope(2) == 1.875, "smoothstep slope, order 2")

    space1 = make_space("euclidean1")
    domain1 = Domain.grid(1, 2**16)
    labels1 = fields.band_labels(domain1.geometry, 0.5, 0.09)
    g1 = fields.simple_from_labels(
        domain1, space1, labels1, np.array([[0.0], [1.0]])
    )
    z1 = [0.0]
    sm1 = relax.smooth_from_simple(g1, z1, 1.0, 0.2, order=2)
    scan = relax.boundary_difference_scan(sm1)
    cell = domain1.geometry.cell_size
    require(scan["max_boundary_first_difference"] <= 10 * cell**2, f"{scan}")
    require(scan["max_boundary_second_difference"] <= 10 * cell**2, f"{scan}")
    co1 = relax.smooth_from_simple(g1, z1, 1.0, 0.2, order=0)
    scan0 = relax.boundary_difference_scan(co1)
    require(
        scan["max_boundary_second_difference"] < scan0["max_boundary_second_difference"],
        "smoothstep did not flatten the boundary",
    )
    return {
        "error": smooth.achieved_error,
        "boundary_d2": scan["max_boundary_second_difference"],
        "boundary_d2_continuous": scan0["max_boundary_second_difference"],
    }


def _check_riesz_fischer(ctx: SuiteContext) -> dict:
    worst = 0.0
    for name in SPACE_NAMES:
        space = make_space(name)
        domain = Domain(np.full(12, 1.0 / 12))
        for trial in range(10):
            rng = ctx.rng(f"riesz-{name}-{trial}")
            spec, known = geodesic_cauchy_fixture(domain, space, rng, p=2.0)
            result = riesz_fischer_limit(spec)
            gap = dp_distance(result.limit, known, 2.0)
            require(gap <= result.residual + 1e-9, "limit far from the known target")
            worst = max(worst, gap)
            for n, measured, bound in result.certificates:
                require(measured <= bound, "tail certificate over its bound")
    try:
        riesz_fischer_limit(incomplete_fixture())
        raise CheckFailedError("incomplete fixture produced a limit")
    except NonConvergenceError:
        pass
    space = make_space("euclidean1")
    domain = Domain(np.full(4, 0.25))
    slow = [
        MeasurableMap.constant(domain, space, [1.0 / (j + 1)])
        for j in range(40)
    ]
    picks = fast_subsequence(slow, 1.0)
    require(len(picks) >= 4, "fast subsequence too short")
    for k in range(len(picks) - 1):
        gap = dp_distance(slow[picks[k]], slow[picks[k + 1]], 1.0)
        require(gap <= 2.0 ** -(k + 1) + FAST_GAP_SLACK, "fast subsequence gap too large")
    return {"worst_limit_gap": worst, "fast_subsequence_len": len(picks)}


def _check_separability(ctx: SuiteContext) -> dict:
    space = make_space("euclidean1")
    domain = Domain.grid(1, 16)
    rng = ctx.rng("separability")
    h = MeasurableMap.constant(domain, space, [0.0])
    family = build_dense_family(h, gen_levels=4, val_budget=5)
    require(family.n_cells == 16, "generators failed to isolate the cells")
    native_pairs = ((2, 1), (9, 3))
    native = member_from_pairs(family, native_pairs)
    probe = separability_probe(native, family, 2.0, 0.05)
    require(probe.found and probe.distance == 0.0, "native member not recovered")
    require(probe.pairs == native_pairs, f"{probe.pairs}")

    f = fields.smooth_field(domain, space, rng, spread=0.4)
    fam_fine = build_dense_family(h, gen_levels=4, val_budget=64)
    rep = separability_probe(f, fam_fine, 2.0, 0.05)
    require(
        rep.found and rep.distance is not None and rep.distance < 0.05, "no member within eps"
    )

    small_dom = Domain.grid(1, 4)
    h_small = MeasurableMap.constant(small_dom, space, [0.0])
    fam_small = build_dense_family(h_small, gen_levels=2, val_budget=3)
    for trial in range(3):
        rng_t = ctx.rng(f"sep-oracle-{trial}")
        target = fields.random_map(small_dom, space, rng_t, spread=0.5)
        eps = float(rng_t.uniform(0.2, 0.8))
        fast = separability_probe(target, fam_small, 2.0, eps)
        slow = exhaustive_probe(target, fam_small, 2.0, eps)
        require(fast.found == slow.found, "probe and enumeration disagree")
        if fast.found:
            require(fast.pairs == slow.pairs, f"{fast.pairs} != {slow.pairs}")
            require(abs(fast.distance - slow.distance) <= 1e-12, "probe distances disagree")
    return {"native_distance": probe.distance, "quantized_distance": rep.distance}


CHECKS: list[tuple[str, str, Callable[[SuiteContext], dict]]] = [
    (
        "space.metric_axioms",
        "Each bundled target is a metric space: exact identity and symmetry, triangle inequality within 1e-12 relative.",
        _check_space_metric_axioms,
    ),
    (
        "space.geodesics",
        "Geodesics reproduce endpoints verbatim and run at constant speed within 1e-9.",
        _check_space_geodesics,
    ),
    (
        "space.dense_sequences",
        "Dense enumerations are stable prefixes with shrinking covering radii.",
        _check_space_dense,
    ),
    (
        "space.epsilon_nets",
        "Greedy nets cover their probe grids; the 1-D transport target refuses nets; circle net sizes bracket eps = pi/2 at 2 and 4 points.",
        _check_space_nets,
    ),
    (
        "domain.measure",
        "Grid weights integrate to one, measure is additive, and infinite atoms propagate.",
        _check_domain_measure,
    ),
    (
        "domain.morphology",
        "Erosion/dilation respect their measure budgets and inclusions; the distance-ratio transition is 1 on the core, 0 outside, with bounded adjacent increments.",
        _check_domain_morphology,
    ),
    (
        "lp.metric_axioms",
        "D_p is a metric for every p, with exact symmetry and zero exactly on equivalent pairs.",
        _check_lp_metric,
    ),
    (
        "lp.constant_embedding",
        "Constant mappings embed the target isometrically up to the factor measure(M)**(1/p).",
        _check_lp_embedding,
    ),
    (
        "lp.holder_base_bounds",
        "Hoelder inclusion D_p <= D_q * mu**(1/p-1/q) and the base-change bound with factor 2**(p-1) hold.",
        _check_lp_holder_base,
    ),
    (
        "lp.triviality_support",
        "Purely infinite weights collapse the space to one class; difference supports split into finite-measure pieces.",
        _check_lp_triviality_support,
    ),
    (
        "approx.countable_quantize",
        "Value snapping stays under its sup budget, including the sigma-finite piecewise mode.",
        _check_approx_countable,
    ),
    (
        "approx.almost_simple",
        "The three-step finite-value approximation spends under a third of the budget per step.",
        _check_approx_almost_simple,
    ),
    (
        "approx.sup_quantize",
        "Net-based sup quantization meets its budget on net-capable targets and refuses on the rest.",
        _check_approx_sup_net,
    ),
    (
        "approx.orthonormal_bound",
        "No k-valued map approximates n > k orthonormal directions below sqrt(2)/2 in sup distance.",
        _check_approx_orthonormal,
    ),
    (
        "approx.divergence",
        "Best simple errors increase strictly across refinements of the divergence fixtures.",
        _check_approx_divergence,
    ),
    (
        "relax.continuous",
        "The continuous relaxation meets its D_p budget with exact plateaus and the adjacent-cell modulus.",
        _check_relax_continuous,
    ),
    (
        "relax.smooth",
        "The smooth relaxation meets the same budgets, flattens boundary differences, and order 0 is bit-identical to the continuous construction.",
        _check_relax_smooth,
    ),
    (
        "verify.riesz_fischer",
        "Fast Cauchy sequences converge with tail certificates; the resolution-floored fixture raises the non-convergence error.",
        _check_riesz_fischer,
    ),
    (
        "verify.separability",
        "The countable family probe finds members within eps, exactly recovers native members, and matches the literal enumeration.",
        _check_separability,
    ),
]


def run_theorem_suite(seed: int = 0) -> SuiteResult:
    """Run every bundled check; one ledger entry per check, pass iff all pass."""
    ctx = SuiteContext(seed)
    entries = []
    t0 = time.perf_counter()
    for check_id, statement, fn in CHECKS:
        try:
            metrics = fn(ctx)
            status = "pass"
        except Exception as exc:  # noqa: BLE001 - each check reports its own failure
            metrics = {"error": f"{type(exc).__name__}: {exc}"}
            status = "fail"
        entries.append(
            {
                "check_id": check_id,
                "statement": statement,
                "status": status,
                "metrics": metrics,
            }
        )
    return SuiteResult(entries, seed, time.perf_counter() - t0)
