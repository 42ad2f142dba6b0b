"""Measurable mappings into a metric target and the D_p distances.

A mapping assigns one target point per atom, stored as an
(atoms, payload_dim) float64 array.  For 1 <= p < inf,

    D_p(f, g) = ( sum_x w(x) * d(f(x), g(x))**p )**(1/p)

with the convention 0 * inf = 0: an atom of infinite weight contributes
nothing when the pointwise distance is exactly zero, and +inf otherwise.
A pointwise distance that is not finite (inf or NaN, from a ground metric
that overflowed) on an atom of positive weight leaves D_p undefined at
every p, and is refused with MetricLpError.
D_inf is the maximum pointwise distance over atoms of positive weight
(zero-weight atoms are null and never contribute to any D_p).

Atoms are reduced in ascending index order with numpy's pairwise summation
over a contiguous buffer, so distances are reproducible bit for bit.  When
the sum overflows, or d**p or w * d**p comes out zero or subnormal on an
atom of positive weight and distance, the sum is taken instead over those
atoms with distances divided by their maximum (a scaled p-norm), so D_p
stays finite and is 0 only for equivalent mappings.  Steps that cannot
change a sum are skipped, with the same bits: with no infinite weight there
is nothing to flag or zero; with every weight positive no atom is masked
(and D_inf gathers nothing); the d > 0 test for a lost term runs only when
some d**p or w * d**p is below the smallest normal float.

Two mappings are equivalent when their payloads agree exactly on every
positive-weight atom.

`pointwise_distance` evaluates the ground metric only on the atoms whose
payloads differ (compared with `!=`, so rows that differ only in a signed
zero count as equal) and writes exactly 0.0 on the others.  That is exact:
the kernel contract in the `spaces` module gives exactly 0.0 on rows that
compare equal, so the vector has the bits of one `distance_many` call over
every atom.  When every atom differs, as for unrelated maps, the payloads
go to `distance_many` whole and nothing is gathered; a first-entry
comparison settles the usual case without comparing whole rows; otherwise
rows are compared one column at a time (a `|=` of `!=`, exact at any width).

A construction that spends a budget compares sums of w(x) * (d(x) / unit)**p
with 1, each term formed by one rule (`_budget_terms`) that no overflow,
underflow or infinite weight can carry across 1.

The D_p helpers (`pointwise_distance`, `dp_distance`, `is_member`, `equivalent`)
read only `domain`, `space` and `values`, which `SimpleMap` carries too.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import AtomSet, Domain, is_purely_infinite
from .errors import DimensionMismatchError, DomainMismatchError, MetricLpError
from .spaces import MetricSpace

Array = np.ndarray

TINY = np.finfo(np.float64).tiny  # smallest normal float64


def check_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise MetricLpError("p must satisfy 1 <= p <= inf")
    return p


def check_finite_p(p: float) -> float:
    """The exponent of a construction that spends a budget: 1 <= p < inf."""
    p = check_p(p)
    if math.isinf(p):
        raise MetricLpError("p must satisfy 1 <= p < inf")
    return p


def check_eps(eps: float) -> None:
    """A construction's budget: 0 < eps < inf."""
    if not 0 < eps < math.inf:
        raise MetricLpError(f"eps must be positive and finite, got {eps!r}")


class MeasurableMap:
    """One target point per atom of a domain."""

    def __init__(self, domain: Domain, space: MetricSpace, values: Array):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != domain.atom_count:
            raise DimensionMismatchError(
                f"values must be ({domain.atom_count}, {space.dim}), got {values.shape}"
            )
        space.check_payload(values)
        self.domain = domain
        self.space = space
        self.values = values

    @classmethod
    def constant(cls, domain: Domain, space: MetricSpace, y: Array) -> "MeasurableMap":
        """Embed a target point, given as one payload row, as the constant
        mapping at it.

        For finite measure the embedding scales distances by measure(M)**(1/p):
        D_p(const_y, const_y') = d(y, y') * measure(M)**(1/p).
        """
        payload = space.check_point(y)
        return cls(domain, space, np.tile(payload, (domain.atom_count, 1)))

    def __repr__(self):
        return f"MeasurableMap({self.space.tag}, atoms={self.domain.atom_count})"


def _check_pair(f: MeasurableMap | SimpleMap, g: MeasurableMap | SimpleMap):
    if f.space.tag != g.space.tag:
        raise DimensionMismatchError(f"spaces differ: {f.space.tag} vs {g.space.tag}")
    if not f.domain.same_as(g.domain):
        raise DomainMismatchError("mappings live on different domains")


def pointwise_distance(f: MeasurableMap | SimpleMap, g: MeasurableMap | SimpleMap) -> Array:
    """d(f(x), g(x)) on every atom; the ground metric runs only on the atoms
    whose payloads differ, and the rest read exactly 0.0."""
    _check_pair(f, g)
    a, b = f.values, g.values
    # the first entries settle the usual case, every atom differing, without
    # an (atoms, dim) comparison
    if a.shape[1] and (a[:, 0] != b[:, 0]).all():
        return f.space.distance_many(a, b)
    # a column-wise |= of != is the row-wise any without its cost per row
    differ = np.zeros(a.shape[0], dtype=bool)
    for j in range(a.shape[1]):
        differ |= a[:, j] != b[:, j]
    if differ.all():
        return f.space.distance_many(a, b)
    d = np.zeros(a.shape[0])
    if differ.any():
        d[differ] = f.space.distance_many(a[differ], b[differ])
    return d


def dp_distance(f: MeasurableMap | SimpleMap, g: MeasurableMap | SimpleMap, p: float) -> float:
    """The D_p distance between two mappings over the same domain."""
    p = check_p(p)
    return dp_from_pointwise(pointwise_distance(f, g), f.domain.weights, p)


def dp_from_pointwise(d: Array, weights: Array, p: float) -> float | Array:
    """D_p from the pointwise distances d(f(x), g(x)), one per atom, and
    the atom weights.

    The vector does not depend on p: a caller that wants several exponents
    evaluates the ground metric once and reduces the same vector per p,
    with the same bits as `dp_distance` at each p.

    `d` may also be an (m, atoms) stack of such vectors, one per map pair;
    the result is then m values, each with the bits of the call on its row.
    """
    p = check_p(p)
    d = np.asarray(d, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if d.ndim not in (1, 2) or d.shape[-1:] != w.shape:
        raise DimensionMismatchError(
            f"need one distance per weight, got {d.shape} and {w.shape}"
        )
    if d.ndim == 1:
        return float(_dp_rows(d[None, :], w, p)[0])
    return _dp_rows(d, w, p)


def _dp_rows(d: Array, w: Array, p: float) -> Array:
    """D_p of each row of an (m, atoms) stack of pointwise distances.

    numpy sums each row of a C-contiguous stack as it sums the row alone,
    so a row's value does not depend on the rows stacked with it.  The root
    is a Python `**` per row: `np.power` differs from it in the last bit on
    some inputs.

    A non-finite pointwise distance on an atom of positive weight (a ground
    metric that overflowed, or NaN) leaves D_p undefined and is refused.
    Only rows whose max or sum is not finite, and infinite-weight atoms,
    are searched for one, so finite rows pay nothing.
    """
    if math.isinf(p):
        if w.size and w.min() > 0:  # every atom is live: nothing to gather
            out = d.max(axis=1)
        else:
            live = w > 0
            out = d[:, live].max(axis=1) if live.any() else np.zeros(d.shape[0])
        # a max is finite exactly when every term it takes is
        _refuse_non_finite(d, w, ~np.isfinite(out))
        return out
    infinite = np.zeros(d.shape[0], dtype=bool)
    inf_w = np.isinf(w)
    if inf_w.any():
        _refuse_non_finite(d[:, inf_w], w[inf_w], ~np.isfinite(d[:, inf_w]).all(axis=1))
        infinite = (inf_w & (d > 0)).any(axis=1)
        w = np.where(inf_w, 0.0, w)
    # null and infinite-weight atoms add nothing; with every weight positive
    # and finite there are none, and d needs only the C order that the
    # masked copy has (the scaled fallback reads its rows)
    if w.size and w.min() > 0:
        d = np.ascontiguousarray(d)
    else:
        d = np.where(w > 0, d, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        powed = d**p
        contrib = w * powed
        totals = np.ascontiguousarray(contrib).sum(axis=1)
    _refuse_non_finite(d, w, ~np.isfinite(totals))
    small = np.minimum(powed, contrib) < TINY
    lost = (small & (d > 0)).any(axis=1) if small.any() else np.zeros(d.shape[0], dtype=bool)
    scaled = (totals == math.inf) | lost
    out = np.empty(d.shape[0])
    for i, total in enumerate(totals.tolist()):
        if infinite[i]:
            out[i] = math.inf
        elif scaled[i]:
            out[i] = _scaled_dp(d[i], w, p)
        else:
            out[i] = total ** (1.0 / p)
    return out


def _refuse_non_finite(d: Array, w: Array, suspect: Array) -> None:
    """Raise when a `suspect` row has a non-finite distance on an atom of
    positive weight."""
    for i in np.flatnonzero(suspect).tolist():
        bad = np.flatnonzero(~np.isfinite(d[i]) & (w > 0))
        if bad.size:
            raise MetricLpError(
                "D_p is undefined: a pointwise distance on an atom of positive weight"
                f" is {float(d[i, bad[0]])!r}"
            )


def _scaled_dp(d: Array, w: Array, p: float) -> float:
    """Scaled p-norm (Blue 1978) of one row, for when the plain sum
    overflowed or lost a live term: divide the distances by their maximum
    before the power."""
    scale = float(d.max())
    return scale * float(np.sum(w * (d / scale) ** p)) ** (1.0 / p)


def _budget_terms(d: Array, w: Array, unit: float, p: float) -> Array:
    """The terms w(x) * (d(x) / unit)**p of a sum compared with 1, with d
    broadcast against w: 0 where d or w is 0, and capped at 2, which an
    infinite weight with d > 0 gives too."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        terms = np.where((d != 0) & (w != 0), w * (d / unit) ** p, 0.0)
    # one term of 1 or more fails the budget alone, so the cap changes no
    # verdict and no sum overflows; fmin also takes the cap over a NaN: an
    # infinite weight times a power that underflowed to 0, or a distance
    # that is not a number, which no budget admits
    return np.fmin(terms, 2.0)


def is_member(f: MeasurableMap | SimpleMap, h: MeasurableMap | SimpleMap, p: float) -> bool:
    """Whether f lies at finite D_p distance from the base mapping h."""
    return math.isfinite(dp_distance(f, h, p))


def equivalent(f: MeasurableMap | SimpleMap, g: MeasurableMap | SimpleMap) -> bool:
    """Exact payload equality on every atom of positive weight."""
    _check_pair(f, g)
    live = f.domain.weights > 0
    return bool(np.array_equal(f.values[live], g.values[live]))


def restrict(f: MeasurableMap, b: AtomSet) -> MeasurableMap:
    """Restriction to a sub-domain; grid geometry does not survive subsetting."""
    if b.n_atoms != f.domain.atom_count:
        raise DomainMismatchError("atom set does not match the map's domain")
    sub = Domain(f.domain.weights[b.indices])
    return MeasurableMap(sub, f.space, f.values[b.indices].copy())


def is_trivial(domain: Domain, space: MetricSpace) -> bool:
    """True when the space collapses to one equivalence class:
    purely infinite measure, or a single-point target."""
    return is_purely_infinite(domain) or space.single_point


# ---------------------------------------------------------------------------
# simple mappings
# ---------------------------------------------------------------------------


class SimpleMap:
    """Finitely many values indexed by per-atom labels: each label is a row
    of `value_table`, the atom's value."""

    def __init__(self, domain: Domain, space: MetricSpace, labels: Array, value_table: Array):
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        value_table = np.asarray(value_table, dtype=np.float64)
        if value_table.ndim != 2 or value_table.shape[1] != space.dim:
            raise DimensionMismatchError("value table must be (k, payload_dim)")
        if value_table.shape[0]:
            space.check_payload(value_table)
        if labels.shape[0] != domain.atom_count:
            raise DimensionMismatchError("one label per atom required")
        if labels.size and (labels.min() < 0 or labels.max() >= value_table.shape[0]):
            raise MetricLpError("labels must lie in [0, rows of the value table)")
        self.domain = domain
        self.space = space
        self.labels = labels
        self.value_table = value_table

    @property
    def range_size(self) -> int:
        return int(np.count_nonzero(np.bincount(self.labels)))

    @property
    def values(self) -> Array:
        """The per-atom payloads, gathered from the checked value table afresh
        on each read, so writing to the result changes nothing."""
        return self.value_table[self.labels]

    def to_map(self) -> MeasurableMap:
        """The expanded mapping."""
        return MeasurableMap(self.domain, self.space, self.values)

    def __repr__(self):
        return f"SimpleMap({self.space.tag}, atoms={self.domain.atom_count}, k={self.range_size})"


# ---------------------------------------------------------------------------
# support decomposition
# ---------------------------------------------------------------------------


def differing_support(f: MeasurableMap, h: MeasurableMap, p: float) -> dict[tuple[int, int], AtomSet]:
    """Split {f != h, weight > 0} into disjoint finite-measure pieces.

    Piece (n, m) collects atoms entering the threshold filtration at level
    n (smallest n with d(f, h) > 1/n) and the base-boundedness filtration
    at level m (smallest m with d(z0, h) <= m, z0 the first dense-sequence
    point of the target).  Requires membership, so every piece has finite
    measure.
    """
    p = check_p(p)
    # one ground-metric pass gives the membership test and the levels
    d = pointwise_distance(f, h)
    if not math.isfinite(dp_from_pointwise(d, f.domain.weights, p)):
        raise MetricLpError("differing_support requires is_member(f, h, p)")
    live = (f.domain.weights > 0) & (d > 0)
    if not live.any():
        return {}
    z0 = h.space.dense_payloads(1)
    d_base = h.space.distance_many(h.values, z0)
    idx = np.nonzero(live)[0]
    n_level = np.where(d[idx] > 1.0, 1, np.floor(1.0 / d[idx]).astype(np.int64) + 1)
    m_level = np.maximum(np.ceil(d_base[idx]).astype(np.int64), 0)
    out: dict[tuple[int, int], AtomSet] = {}
    keys = np.stack([n_level, m_level], axis=1)
    for key in np.unique(keys, axis=0):
        sel = idx[(keys == key).all(axis=1)]
        out[(int(key[0]), int(key[1]))] = AtomSet(sel, f.domain.atom_count)
    return out
