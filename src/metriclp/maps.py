"""Measurable mappings into a metric target and the D_p distances.

A mapping assigns one target point per atom, stored as an
(atoms, payload_dim) float64 array.  For 1 <= p < inf,

    D_p(f, g) = ( sum_x w(x) * d(f(x), g(x))**p )**(1/p)

with the convention 0 * inf = 0: an atom of infinite weight contributes
nothing when the pointwise distance is exactly zero, and +inf otherwise.
D_inf is the maximum pointwise distance over atoms of positive weight
(zero-weight atoms are null and never contribute to any D_p).

Atoms are reduced in ascending index order with numpy's pairwise summation
over a contiguous buffer, so distances are reproducible bit for bit.  When
the sum overflows, or d**p or w * d**p comes out zero or subnormal on an
atom of positive weight and distance, the sum is taken instead over those
atoms with distances divided by their maximum (a scaled p-norm), so D_p
stays finite and is 0 only for equivalent mappings.

Two mappings are equivalent when their payloads agree exactly on every
positive-weight atom; `near_equivalent` offers a 1e-12 tolerance variant
for callers that quantify over computed values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import AtomSet, Domain, is_purely_infinite, measure
from .errors import DimensionMismatchError, DomainMismatchError, MetricLpError
from .spaces import MetricSpace

Array = np.ndarray

NEAR_EQ_TOL = 1e-12
TINY = np.finfo(np.float64).tiny  # smallest normal float64


def check_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise MetricLpError("p must satisfy 1 <= p <= inf")
    return p


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

    def copy(self) -> "MeasurableMap":
        return MeasurableMap(self.domain, self.space, self.values.copy())

    def __repr__(self):
        return f"MeasurableMap({self.space.tag}, atoms={self.domain.atom_count})"


def _check_pair(f: MeasurableMap, g: MeasurableMap):
    if f.space.tag != g.space.tag:
        raise DimensionMismatchError(f"spaces differ: {f.space.tag} vs {g.space.tag}")
    if not f.domain.same_as(g.domain):
        raise DomainMismatchError("mappings live on different domains")


def pointwise_distance(f: MeasurableMap, g: MeasurableMap) -> Array:
    _check_pair(f, g)
    return f.space.distance_many(f.values, g.values)


def dp_distance(f: MeasurableMap, g: MeasurableMap, p: float) -> float:
    """The D_p distance between two mappings over the same domain."""
    p = check_p(p)
    d = pointwise_distance(f, g)
    w = f.domain.weights
    if math.isinf(p):
        live = w > 0
        return float(d[live].max()) if live.any() else 0.0
    inf_w = np.isinf(w)
    if np.any(inf_w & (d > 0)):
        return math.inf
    w = np.where(inf_w, 0.0, w)
    d = np.where(w > 0, d, 0.0)  # null and infinite-weight atoms add nothing
    with np.errstate(over="ignore"):
        powed = d**p
        contrib = w * powed
    total = float(np.sum(np.ascontiguousarray(contrib)))
    live = d > 0
    if total != math.inf and not np.any(np.minimum(powed, contrib)[live] < TINY):
        return total ** (1.0 / p)
    # Scaled p-norm (Blue 1978): the plain sum overflowed or lost a live
    # term, so divide the distances by their maximum before the power.
    scale = float(d.max())
    return scale * float(np.sum(w * (d / scale) ** p)) ** (1.0 / p)


def is_member(f: MeasurableMap, h: MeasurableMap, p: float) -> bool:
    """Whether f lies at finite D_p distance from the base mapping h."""
    return math.isfinite(dp_distance(f, h, p))


def equivalent(f: MeasurableMap, g: MeasurableMap) -> bool:
    """Exact payload equality on every atom of positive weight."""
    _check_pair(f, g)
    live = f.domain.weights > 0
    return bool(np.array_equal(f.values[live], g.values[live]))


def near_equivalent(f: MeasurableMap, g: MeasurableMap, tol: float = NEAR_EQ_TOL) -> bool:
    _check_pair(f, g)
    live = f.domain.weights > 0
    if not live.any():
        return True
    return bool(np.max(np.abs(f.values[live] - g.values[live]), initial=0.0) <= tol)


def restrict(f: MeasurableMap, b: AtomSet) -> MeasurableMap:
    """Restriction to a sub-domain; grid geometry does not survive subsetting."""
    if b.n_atoms != f.domain.atom_count:
        raise DomainMismatchError("atom set does not match the map's domain")
    sub = Domain(f.domain.weights[b.indices])
    return MeasurableMap(sub, f.space, f.values[b.indices].copy())


def distance_to_base_field(f: MeasurableMap, h: MeasurableMap) -> MeasurableMap:
    """The real-valued field x -> d(f(x), h(x)) as a mapping into R^1."""
    from .spaces import EuclideanSpace

    d = pointwise_distance(f, h)
    return MeasurableMap(f.domain, EuclideanSpace(1), d[:, None])


def is_trivial(domain: Domain, space: MetricSpace) -> bool:
    """True when the space collapses to one equivalence class:
    purely infinite measure, or a single-point target."""
    return is_purely_infinite(domain) or space.single_point


# ---------------------------------------------------------------------------
# simple mappings
# ---------------------------------------------------------------------------

BASE_LABEL = -1


class SimpleMap:
    """Finitely many values indexed by per-atom labels.

    Labels reference rows of `value_table`; the reserved label -1 (exposed
    as `base_flag` when present) marks atoms that take the base mapping's
    value there, so an almost-simple output can defer to a non-simple h.
    """

    def __init__(
        self,
        domain: Domain,
        space: MetricSpace,
        labels: Array,
        value_table: Array,
        base_flag: int | None = None,
    ):
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        value_table = np.asarray(value_table, dtype=np.float64)
        if value_table.ndim != 2 or value_table.shape[1] != space.dim:
            raise DimensionMismatchError("value table must be (k, payload_dim)")
        if value_table.shape[0]:
            space.check_payload(value_table)
        if labels.shape[0] != domain.atom_count:
            raise DimensionMismatchError("one label per atom required")
        if base_flag is not None and base_flag != BASE_LABEL:
            raise MetricLpError(f"base flag must be {BASE_LABEL} when present")
        lo = labels.min(initial=0)
        hi = labels.max(initial=-1)
        if hi >= value_table.shape[0]:
            raise MetricLpError("label exceeds value table")
        if lo < 0 and (base_flag is None or lo < BASE_LABEL):
            raise MetricLpError("negative label without a base flag")
        self.domain = domain
        self.space = space
        self.labels = labels
        self.value_table = value_table
        self.base_flag = base_flag

    @property
    def range_size(self) -> int:
        return int(np.unique(self.labels[self.labels >= 0]).size)

    def base_atoms(self) -> AtomSet:
        return AtomSet.from_mask(self.labels == BASE_LABEL)

    def to_map(self, h: MeasurableMap | None = None) -> MeasurableMap:
        """Expand labels through the value table into a full mapping."""
        base = self.labels == BASE_LABEL
        if base.any():
            if h is None:
                raise MetricLpError("base-flagged atoms need the base mapping")
            if not h.domain.same_as(self.domain):
                raise DomainMismatchError("base mapping domain mismatch")
            # gather through 0 on base atoms: -1 must never index the table,
            # which may even be empty for an all-base map
            safe = np.where(base, 0, self.labels)
            if self.value_table.shape[0]:
                expanded = self.value_table[safe]
            else:
                expanded = np.zeros((self.labels.size, self.space.dim))
            values = np.where(base[:, None], h.values, expanded)
        else:
            values = self.value_table[self.labels]
        return MeasurableMap(self.domain, self.space, np.ascontiguousarray(values))

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
    if not is_member(f, h, p):
        raise MetricLpError("differing_support requires is_member(f, h, p)")
    d = pointwise_distance(f, h)
    live = (f.domain.weights > 0) & (d > 0)
    if not live.any():
        return {}
    z0 = h.space.dense_payloads(1)[0]
    d_base = h.space.distance_many(h.values, np.broadcast_to(z0, h.values.shape))
    idx = np.nonzero(live)[0]
    n_level = np.where(d[idx] > 1.0, 1, np.floor(1.0 / d[idx]).astype(np.int64) + 1)
    m_level = np.maximum(np.ceil(d_base[idx]).astype(np.int64), 0)
    out: dict[tuple[int, int], AtomSet] = {}
    keys = np.stack([n_level, m_level], axis=1)
    for key in np.unique(keys, axis=0):
        sel = idx[(keys == key).all(axis=1)]
        out[(int(key[0]), int(key[1]))] = AtomSet(sel, f.domain.atom_count)
    return out
