"""Constructive approximation by mappings with few values.

- `countable_quantize` snaps every atom to the first sufficiently close
  value in a dense list built from the mapping's own distinct values, so
  the sup-distance to the input stays strictly under eps.  A sigma-finite
  mode quantizes a list of finite-measure pieces with geometrically
  shrinking sup budgets so the D_p error also stays under eps.
- `almost_simple_approx` runs the three-step construction that makes
  mappings with finitely many values (plus a base region) D_p-dense:
  revert small deviations to the base mapping, keep only values inside
  finitely many radius-R balls around a dense list, then collapse each
  ball remainder to its center (first cover wins).  Each step spends
  strictly less than a third of the budget.  On a finite atom domain the
  base takes finitely many values too, so the result is a simple map
  whose table holds the centers and then the base's values.
- `simple_approx_sup` is the sup-norm variant: it covers the essential
  range with a finite epsilon net, which requires the target to supply
  nets (boundedly compact balls).
- `orthonormal_lower_bound` and `divergence_fixture` are the negative
  results: quantization cannot be better than sup-error sqrt(2)/2 against
  infinitely many orthonormal directions, and best-simple errors grow
  without saturating for base mappings that quantization cannot follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spaces
from .domain import AtomSet, Domain, measure
from .errors import MetricLpError, SearchBudgetError
from .maps import (
    MeasurableMap,
    SimpleMap,
    _budget_terms,
    check_eps,
    check_finite_p,
    check_p,
    dp_distance,
    dp_from_pointwise,
    is_member,
    pointwise_distance,
)
from .spaces import PRUNE_SLACK_REL, EuclideanSpace, MetricSpace

Array = np.ndarray

STEP_SEARCH_CAP = 10**6


@dataclass
class ApproxReport:
    p: float
    target_eps: float
    achieved_error: float
    range_size: int
    altered_measure: float
    step_breakdown: dict[str, float] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)


def dedup_rows_in_order(values: Array) -> tuple[Array, Array]:
    """Distinct rows of an (m, d) stack in first-occurrence order, each with
    the bits of its first occurrence; also the inverse labels.  Rows whose
    entries compare equal (+0.0 and -0.0 included) are one row, as in
    `np.unique(values, axis=0)`.

    One stable lexsort, column 0 the primary key, lines equal rows up in
    index order, so each run of equal rows starts at its first occurrence;
    the runs are then ranked by that index.
    """
    m = values.shape[0]
    if values.shape[1] == 0:  # every row is the empty row
        return values[: min(m, 1)], np.zeros(m, dtype=np.intp)
    order = np.lexsort(values.T[::-1])
    ranked = values[order]
    starts = np.ones(m, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[starts]
    by_first = np.argsort(first, kind="stable")
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    labels = np.empty(m, dtype=np.intp)
    labels[order] = rank[np.cumsum(starts) - 1]
    return values[first[by_first]], labels


def _with_base_rows(f: MeasurableMap, h: MeasurableMap, labels: Array, table: Array) -> SimpleMap:
    """The simple map on f's domain whose atoms take `table[labels]`, except
    that label -1 takes h's value: h's distinct values on those atoms are
    appended to the table in first-occurrence order, and the atoms point
    at them."""
    base = labels < 0
    rows, inverse = dedup_rows_in_order(h.values[base])
    labels = labels.copy()
    labels[base] = table.shape[0] + inverse
    return SimpleMap(f.domain, f.space, labels, np.vstack([table, rows]))


def _first_cover(space: MetricSpace, values: Array, table: Array, radius: float) -> Array:
    """Per row of `values`, the first index of `table` strictly within
    `radius`; -1 when none.

    A pivot-banded ordered scan (LAESA-style pruning with one pivot, table
    row 0).  Every value and table row is measured against the pivot (once
    when a table covers itself), and
    the values are sorted by that distance.  By the triangle inequality a
    value v can lie within `radius` of row t only if
    |d(v, p) - d(t, p)| < radius, so each row is compared only with the
    still-uncovered values whose pivot distance falls in the band
    d(t, p) +- (radius + slack), found by `searchsorted`.  The slack,
    PRUNE_SLACK_REL times the radius plus the largest pivot distances, is
    far above the kernels' rounding, so no pair that would test `< radius` is pruned;
    every accept is decided by an exact `distance_many` call, and the
    result is the one of a full scan.  Rows go in blocks of doubling
    length, each block one call of at most `spaces.BLOCK_PAIRS` pairs
    unless a single row's band is larger; covered values leave the scan,
    which stops once none is left.
    """
    m, k = values.shape[0], table.shape[0]
    out = np.full(m, -1, dtype=np.int64)
    if m == 0 or k == 0:
        return out
    d_val = space.distance_many(values, table[0][None, :])
    d_tab = d_val if table is values else space.distance_many(table, table[0][None, :])
    hit = d_val < radius  # the pivot is table row 0: these pairs are exact
    out[hit] = 0
    reach = radius + PRUNE_SLACK_REL * (radius + float(d_val.max()) + float(d_tab.max()))
    if not math.isfinite(reach):
        d_val = np.zeros(m)
        d_tab = np.zeros(k)
        reach = math.inf
    order = np.flatnonzero(~hit)
    order = order[np.argsort(d_val[order], kind="stable")]
    keys = d_val[order]
    j, block = 1, 1
    while j < k and order.size:
        rows = np.arange(j, min(j + block, k))
        lo = np.searchsorted(keys, d_tab[rows] - reach, side="left")
        hi = np.searchsorted(keys, d_tab[rows] + reach, side="right")
        counts = hi - lo
        # the longest prefix of rows within the pair budget, at least one row
        n_rows = max(1, int(np.searchsorted(np.cumsum(counts), spaces.BLOCK_PAIRS, side="right")))
        rows, lo, counts = rows[:n_rows], lo[:n_rows], counts[:n_rows]
        j, block = j + n_rows, 2 * n_rows
        total = int(counts.sum())
        if total == 0:
            continue
        starts = np.cumsum(counts) - counts
        pos = np.arange(total) + np.repeat(lo - starts, counts)
        val_idx = order[pos]
        tab_idx = np.repeat(rows, counts)
        hit = space.distance_many(values[val_idx], table[tab_idx]) < radius
        # pairs run in ascending row order, so a value's first hit is its cover
        covered, first = np.unique(val_idx[hit], return_index=True)
        out[covered] = tab_idx[hit][first]
        still_open = out[order] < 0
        order, keys = order[still_open], keys[still_open]
    return out


# ---------------------------------------------------------------------------
# countable quantization (sup norm)
# ---------------------------------------------------------------------------


def countable_quantize(
    f: MeasurableMap,
    eps: float,
    pieces: list[AtomSet] | None = None,
    p: float | None = None,
) -> tuple[SimpleMap, ApproxReport]:
    """Snap each atom to the first of its piece's distinct values within the
    piece's sup budget.

    One loop over (piece, budget) pairs: a piece's dense list is f's
    distinct values on it in ascending atom order, so every atom finds a
    cover (its own value at distance 0), and the used values are appended
    to one table.  Without `pieces` the whole domain is the one piece, with
    budget eps.  With `pieces` (disjoint finite-measure atom sets covering
    the domain) and an exponent p, piece n gets
    eps / (2**(n+1) * measure(piece))**(1/p), which keeps the D_p error
    below eps on sigma-finite decompositions; a budget below the smallest
    positive float is raised to it, and decides every cover alike (a
    distance is 0 or at least that float).  The largest piece sup,
    `worst_piece_sup`, is the D_inf distance of the whole map.
    """
    check_eps(eps)
    if (pieces is None) != (p is None):
        raise MetricLpError("sigma-finite mode takes both pieces and the exponent p")
    p = math.inf if pieces is None else check_finite_p(p)
    plan = [(slice(None), eps)] if pieces is None else _sigma_finite_budgets(f, eps, pieces, p)
    labels = np.zeros(f.domain.atom_count, dtype=np.int64)
    tables: list[Array] = []
    offset = 0
    for idx, budget in plan:
        table, inverse = dedup_rows_in_order(f.values[idx])
        sub = _first_cover(f.space, table, table, budget)[inverse]
        used = sub.max(initial=-1) + 1
        labels[idx] = sub + offset
        tables.append(table[:used])
        offset += used
    table = np.vstack(tables) if tables else np.zeros((0, f.space.dim))
    out = SimpleMap(f.domain, f.space, labels, table)
    d = pointwise_distance(f, out)
    w = f.domain.weights
    breakdown = {} if pieces is None else {"worst_piece_sup": dp_from_pointwise(d, w, math.inf)}
    report = ApproxReport(
        p=p,
        target_eps=eps,
        achieved_error=dp_from_pointwise(d, w, p),
        range_size=out.range_size,
        altered_measure=float(np.sum(w[np.isfinite(w)])),
        step_breakdown=breakdown,
    )
    return out, report


def _sigma_finite_budgets(f: MeasurableMap, eps: float, pieces: list[AtomSet], p: float):
    """(atom indices, sup budget) per piece, checking that the pieces are
    disjoint, of finite measure and cover the domain."""
    seen = np.zeros(f.domain.atom_count, dtype=bool)
    for n, piece in enumerate(pieces):
        if seen[piece.indices].any():
            raise MetricLpError("pieces must be disjoint")
        seen[piece.indices] = True
        mu = measure(f.domain, piece)
        if math.isinf(mu):
            raise MetricLpError("sigma-finite pieces must have finite measure")
        try:  # 2**(n+1) * mu in floats, exact up to their range
            scale = math.ldexp(mu, n + 1)
        except OverflowError:
            scale = math.inf
        yield piece.indices, eps if mu == 0 else max(eps / scale ** (1.0 / p), math.ulp(0.0))
    if not seen.all():
        raise MetricLpError("pieces must cover the domain")


# ---------------------------------------------------------------------------
# almost-simple D_p approximation
# ---------------------------------------------------------------------------


def _smallest_index(lo: int, hi: int, pred) -> int:
    """Smallest n in [lo, hi] with pred(n), assuming pred is monotone."""
    if not pred(hi):
        raise SearchBudgetError(f"step search exhausted its cap ({hi})")
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def almost_simple_approx(
    f: MeasurableMap, h: MeasurableMap, p: float, eps: float
) -> tuple[SimpleMap, ApproxReport]:
    """Three-step construction of a finite-valued map within eps of f in D_p.

    Step 1 reverts atoms deviating from h by less than 1/n back to h, for
    the smallest n keeping the reverted error under eps/3.  Step 2 keeps
    only values inside the first balls of radius
    R = eps / (3 * measure(altered)**(1/p)) around a dense list of f's
    altered values, growing the ball prefix until the discarded error is
    under eps/3.  Step 3 assigns each surviving atom the center of the
    first ball covering it, spending at most R per atom, hence under eps/3
    in total.  Atoms reverted at any step take h's value, from table rows
    after the centers.

    The searches compare sums of w * (d / (eps/3))**p with 1; the report
    gives each step's error as D_p over that step's atoms.
    """
    p = check_finite_p(p)
    check_eps(eps)
    # one ground-metric pass gives the membership test and the deviations
    d = pointwise_distance(f, h)
    d_h = dp_from_pointwise(d, f.domain.weights, p)
    if not math.isfinite(d_h):
        raise MetricLpError("f must lie at finite D_p distance from h")
    n_atoms = f.domain.atom_count
    weights = f.domain.weights
    # the step sums in units of (eps/3)**p, so each step's budget is 1
    contrib = _budget_terms(d, weights, eps / 3.0, p)

    def step_error(mask: Array, dist: Array) -> float:
        return dp_from_pointwise(np.where(mask, dist, 0.0), weights, p)

    # step 1: revert deviations below 1/n
    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    cum = np.cumsum(contrib[order])

    def step1_sum(n: int) -> float:
        k = int(np.searchsorted(d_sorted, 1.0 / n, side="left"))
        return float(cum[k - 1]) if k else 0.0

    n0 = _smallest_index(1, STEP_SEARCH_CAP, lambda n: step1_sum(n) < 1.0)
    altered_mask = d >= 1.0 / n0
    step1 = step_error(~altered_mask, d)
    altered = AtomSet.from_mask(altered_mask)
    mu_altered = measure(f.domain, altered)

    if mu_altered == 0.0:
        out = _with_base_rows(f, h, np.full(n_atoms, -1), np.zeros((0, f.space.dim)))
        report = ApproxReport(
            p=p,
            target_eps=eps,
            achieved_error=d_h,  # every atom takes h's value
            range_size=out.range_size,
            altered_measure=0.0,
            step_breakdown={"step1": step1, "step2": 0.0, "step3": 0.0},
            flags={"degenerate_altered_set": True},
        )
        return out, report

    # step 2: keep values inside the first n1 balls of radius R; the error
    # of keeping n balls is the mass of the atoms whose first cover is n or
    # later (index m for none), a suffix sum over the covers
    radius = eps / (3.0 * mu_altered ** (1.0 / p))
    dense, inverse = dedup_rows_in_order(f.values[altered_mask])
    m = dense.shape[0]
    cover = _first_cover(f.space, dense, dense, radius)[inverse]
    cover = np.where(cover < 0, m, cover)
    mass = np.bincount(cover, weights=contrib[altered_mask], minlength=m + 1)
    residual = np.cumsum(mass[::-1])[::-1]
    n1 = _smallest_index(1, m, lambda n: residual[n] < 1.0)

    # step 3: collapse each kept atom onto its first covering center
    kept = cover < n1
    labels = np.full(n_atoms, -1)
    keep_set = AtomSet(altered.indices[kept], n_atoms)
    labels[keep_set.indices] = cover[kept]
    out = _with_base_rows(f, h, labels, dense[:n1])
    kept_mask = labels >= 0
    step2 = step_error(altered_mask & ~kept_mask, d)
    # one ground-metric pass gives step 3's error and the achieved error
    d_g = pointwise_distance(f, out)
    step3 = step_error(kept_mask, d_g)

    report = ApproxReport(
        p=p,
        target_eps=eps,
        achieved_error=dp_from_pointwise(d_g, f.domain.weights, p),
        range_size=out.range_size,
        altered_measure=float(measure(f.domain, keep_set)),
        step_breakdown={"step1": step1, "step2": step2, "step3": step3},
    )
    return out, report


# ---------------------------------------------------------------------------
# sup-norm simple approximation via epsilon nets
# ---------------------------------------------------------------------------


def simple_approx_sup(
    f: MeasurableMap, h: MeasurableMap, eps: float
) -> tuple[SimpleMap, ApproxReport]:
    """Quantize onto a finite eps-net of a ball covering the essential range.

    Needs the target's epsilon-net capability (boundedly compact balls);
    targets without it refuse by raising CapabilityError.  Every atom takes
    the first net point strictly within eps of its value (ties to the
    lowest index).  The ball covers the values of the atoms of positive
    weight, so only an atom of weight zero can be missed; it falls back to
    its nearest net point, and the report flags `net_fallback_used`.
    """
    check_eps(eps)
    if not is_member(f, h, math.inf):
        raise MetricLpError("f must lie at finite sup distance from h")
    live = f.domain.weights > 0
    if not live.any():  # every atom is null: take h's values
        out = _with_base_rows(f, h, np.full(f.domain.atom_count, -1), np.zeros((0, f.space.dim)))
        return out, ApproxReport(math.inf, eps, 0.0, out.range_size, 0.0)
    center_idx = int(np.nonzero(live)[0][0])
    center = f.values[center_idx]
    radius = float(f.space.distance_many(f.values[live], center[None, :]).max())
    table = f.space.epsilon_net(center, radius, eps)
    distinct, inverse = dedup_rows_in_order(f.values)
    labels = _first_cover(f.space, distinct, table, eps)
    missed = labels < 0
    if missed.any():  # a null atom's value, outside the ball: snap to nearest
        dist = f.space.distance_many(distinct[missed][:, None], table[None])
        labels[missed] = np.argmin(dist, axis=1)
    out = SimpleMap(f.domain, f.space, labels[inverse], table)
    achieved = dp_distance(f, out, math.inf)
    report = ApproxReport(
        p=math.inf,
        target_eps=eps,
        achieved_error=achieved,
        range_size=out.range_size,
        altered_measure=float(np.sum(f.domain.weights[np.isfinite(f.domain.weights)])),
        step_breakdown={"net_size": float(len(table)), "ball_radius": radius},
        flags={"net_fallback_used": bool(missed.any())},
    )
    return out, report


# ---------------------------------------------------------------------------
# counterexample: orthonormal directions defeat sup quantization
# ---------------------------------------------------------------------------


@dataclass
class OrthonormalBoundReport:
    n_directions: int
    k_values: int
    min_max_error: float
    pigeonhole_bound: float
    best_map: SimpleMap
    domain: Domain
    mapping: MeasurableMap


def _partitions_into_at_most(items: list[int], k: int):
    """All set partitions of `items` into at most k blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions_into_at_most(rest, k):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1 :]
        if len(part) < k:
            yield part + [[head]]


def orthonormal_lower_bound(n_directions: int, k_values: int) -> OrthonormalBoundReport:
    """Best possible sup error of any k-valued map against n orthonormal values.

    The mapping sends interval-shaped atoms of growing weight 1, 2, ..., n
    to distinct orthonormal basis vectors.  Any assignment of k < n values
    puts two basis vectors (mutual distance sqrt(2)) on a common value, so
    the sup error is at least sqrt(2)/2 > 1/2 no matter how fine the
    quantization budget was.  The exact optimum is found by brute force
    over all assignments, using the smallest enclosing ball of each block
    of basis vectors (radius sqrt(1 - 1/block_size), centered at the mean).
    """
    if n_directions < 2 or n_directions > 12:
        raise MetricLpError("n_directions must be in [2, 12] for brute force")
    if k_values < 1:
        raise MetricLpError("k_values must be positive")
    space = EuclideanSpace(n_directions)
    domain = Domain(np.arange(1, n_directions + 1, dtype=np.float64))
    values = np.eye(n_directions)
    mapping = MeasurableMap(domain, space, values)

    best = math.inf
    best_partition: list[list[int]] | None = None
    for part in _partitions_into_at_most(list(range(n_directions)), k_values):
        worst = max(math.sqrt(1.0 - 1.0 / len(block)) for block in part)
        if worst < best:
            best = worst
            best_partition = part
    assert best_partition is not None
    labels = np.zeros(n_directions, dtype=np.int64)
    table = np.zeros((len(best_partition), n_directions))
    for j, block in enumerate(best_partition):
        labels[block] = j
        table[j] = values[block].mean(axis=0)
    best_map = SimpleMap(domain, space, labels, table)
    pigeonhole = math.sqrt(1.0 - 1.0 / math.ceil(n_directions / k_values))
    return OrthonormalBoundReport(
        n_directions=n_directions,
        k_values=k_values,
        min_max_error=best,
        pigeonhole_bound=pigeonhole,
        best_map=best_map,
        domain=domain,
        mapping=mapping,
    )


# ---------------------------------------------------------------------------
# divergence fixtures: base mappings no simple map can follow
# ---------------------------------------------------------------------------


@dataclass
class DivergenceReport:
    kind: str
    refinement: int
    p: float
    k_values: int
    best_constant_error: float
    best_k_error: float


def _divergence_grid(kind: str, refinement: int, p: float) -> tuple[Array, Array]:
    if kind == "unbounded_base":
        n = refinement
        x = (np.arange(n) + 0.5) / n
        return np.full(n, 1.0 / n), x ** (-1.0 / p)
    if kind == "exponential_base":
        half_width = float(refinement)
        n = 64 * refinement
        x = np.linspace(-half_width, half_width, n, endpoint=False) + half_width / n
        return np.full(n, 2.0 * half_width / n), np.exp(-np.abs(x))
    raise MetricLpError(f"unknown divergence kind {kind!r}")


def _best_errors(w: Array, h: Array, p: float, k: int) -> Array:
    """Best D_p error of a map with at most 1, 2, ..., k values, for p in {1, 2}.

    Sorted-point DP over segment ends j (Wang & Song, *Ckmeans.1d.dp*, R
    Journal 2011), taken in blocks of `spaces.BLOCK_PAIRS // n` ends.  Each
    block's (ends, starts) table of segment costs (starts i < j onto one
    value, the weighted mean for p = 2 and the weighted median for p = 1,
    from prefix sums built once) serves every layer; cells with i >= j are
    +inf.  Layer l reads layer l - 1 only at starts i < j, so layer l - 1 of
    the block is final before layer l reads it, and every cost and sum is the
    float of the one-end-at-a-time loop.  Layer 1 is the exact best constant.
    """
    order = np.argsort(h, kind="stable")
    w, h = w[order], h[order]
    n = h.size
    cw = np.concatenate([[0.0], np.cumsum(w)])
    cwh = np.concatenate([[0.0], np.cumsum(w * h)])
    cwh2 = np.concatenate([[0.0], np.cumsum(w * h * h)])
    # err[l, j]: best cost of sorted points 0..j-1 with at most l values
    err = np.full((k + 1, n + 1), np.inf)
    err[:, 0] = 0.0
    rows = max(1, spaces.BLOCK_PAIRS // n)
    for lo in range(1, n + 1, rows):
        hi = min(lo + rows, n + 1)
        j = np.arange(lo, hi)[:, None]
        i = np.arange(hi - 1)[None, :]
        # the cells i >= j divide by an empty segment's zero weight; they are
        # masked to +inf below
        with np.errstate(divide="ignore", invalid="ignore"):
            if p == 2:
                seg_w = cw[j] - cw[i]
                seg_wh = cwh[j] - cwh[i]
                seg_wh2 = cwh2[j] - cwh2[i]
                # prefix-sum cancellation can dip a zero-variance segment
                # slightly negative; clamp so the final root stays real
                seg = np.maximum(seg_wh2 - seg_wh**2 / seg_w, 0.0)
            else:
                half = (cw[i] + cw[j]) / 2.0
                t = np.searchsorted(cw, half, side="left")
                # index of the weighted median point; where i >= j the bounds
                # cross and clip takes the upper one, so t = j - 1 stays in range
                t = np.clip(t, i + 1, j) - 1
                med = h[t]
                left = med * (cw[t + 1] - cw[i]) - (cwh[t + 1] - cwh[i])
                right = (cwh[j] - cwh[t + 1]) - med * (cw[j] - cw[t + 1])
                seg = np.maximum(left + right, 0.0)
        seg[i >= j] = np.inf
        for layer in range(1, k + 1):
            raw = np.min(err[layer - 1, : hi - 1] + seg, axis=1)
            # "at most k" values: a layer may decline to open a new segment
            err[layer, lo:hi] = raw if layer == 1 else np.minimum(err[layer - 1, lo:hi], raw)
    return err[1:, n] ** (1.0 / p)


def divergence_fixture(kind: str, refinement: int, p: float, k_values: int = 3) -> DivergenceReport:
    """Best-constant and best-k-value simple errors against a base mapping
    that simple maps cannot follow across refinements.

    kind "unbounded_base": h(x) = x**(-1/p) on a uniform grid over (0, 1];
    refining the grid toward 0 makes every simple error grow without bound.
    kind "exponential_base": h(x) = exp(-|x|) on [-T, T] with T = refinement;
    the errors increase strictly with T (here they grow toward a finite
    ceiling: exp(-|x|) is p-integrable, so the trend is monotone growth,
    not blow-up).
    """
    p = check_p(p)
    if p not in (1.0, 2.0):
        raise MetricLpError("divergence fixtures support p in {1, 2}")
    for name, value in (("refinement", refinement), ("k_values", k_values)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise MetricLpError(f"{name} must be an integer >= 1, got {value!r}")
    w, h = _divergence_grid(kind, refinement, p)
    errors = _best_errors(w, h, p, k_values)
    return DivergenceReport(
        kind=kind,
        refinement=refinement,
        p=p,
        k_values=k_values,
        best_constant_error=float(errors[0]),
        best_k_error=float(errors[-1]),
    )
