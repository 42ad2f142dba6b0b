"""Continuous and smooth relaxations of label fields on grid domains.

Each non-background level set B of the input label field is eroded to a
core C (inner closed approximation, budget (eps/(2k^(1/p)R))^p per piece)
and dilated one ring to an envelope U (outer open approximation, same
budget); contested background ring cells go to the lowest label and other
pieces' cells are never absorbed.  A distance-ratio transition field on
(C, U), optionally composed with a polynomial smoothstep, drives a
constant-speed geodesic from the background point to the piece value.
The output is exactly the piece value on each core, exactly the
background point outside every envelope, and on the zone U \\ C it moves
along the piece's geodesic, of length lip, so every cell there is within
lip of the input.  Its D_p distance to the input is thus at most M**(1/p),
where the error mass M sums lip**p * measure(U \\ C) over the pieces, and
the guarantee D_p <= eps * 2**(1/p - 1) <= eps holds when M**(1/p) is
within that bound.  It always is when no budget flag is raised (each piece
then spends < 2 * eps**p / (2**p * k) of error mass: the eroded shell and
the dilated ring each stay under the per-piece budget, and lip <= R), and
a flagged piece whose zone is small still leaves it holding.

Composing with a smoothstep preserves those worst-case zone bounds, since
the smoothstep maps [0, 1] to [0, 1] fixing the endpoints, so the smooth
field obeys the same D_p guarantee.  The extra sup deviation
max |smoothstep(t) - t| per piece is reported against the finer budget
eps / (3 * lip * (k * measure(U \\ C))**(1/p)) which, when met, bounds
D_p(smooth, continuous) by eps/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    AtomSet,
    face_adjacent_pairs,
    inner_closed_approx,
    measure,
    outer_open_approx,
    urysohn,
)
from .errors import GeometryError, MetricLpError
from .maps import (
    MeasurableMap,
    SimpleMap,
    check_eps,
    check_finite_p,
    dp_distance,
    dp_from_pointwise,
)

Array = np.ndarray

MAX_SMOOTH_ORDER = 5


def smoothstep(t: Array | float, order: int) -> Array:
    """Polynomial [0,1] -> [0,1] step, flat to the given order at both ends.

    Order 0 is the identity and is returned without arithmetic (bit-exact).
    Order N is the unique degree-(2N+1) polynomial with s(0)=0, s(1)=1 and
    N vanishing derivatives at both ends:
    s(x) = x**(N+1) * sum_k C(N+k, k) * C(2N+1, N-k) * (-x)**k.
    """
    _check_order(order)
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise MetricLpError("smoothstep input must lie in [0, 1]")
    if order == 0:
        return t
    n = order
    out = np.zeros_like(arr)
    for k in range(n + 1):
        coeff = math.comb(n + k, k) * math.comb(2 * n + 1, n - k) * (-1.0) ** k
        out += coeff * arr**k
    return out * arr ** (n + 1)


def _check_order(order: int) -> None:
    integer = isinstance(order, (int, np.integer)) and not isinstance(order, bool)
    if not (integer and 0 <= order <= MAX_SMOOTH_ORDER):
        raise MetricLpError(f"smoothstep order must be an integer in [0, {MAX_SMOOTH_ORDER}]")


def smoothstep_max_slope(order: int) -> float:
    """Maximum derivative of the order-N smoothstep (attained at 1/2)."""
    if order == 0:
        return 1.0
    n = order
    return math.factorial(2 * n + 1) / math.factorial(n) ** 2 / 4.0**n


@dataclass
class RelaxPiece:
    label: int
    value: Array
    core: AtomSet
    region: AtomSet
    transition: Array      # raw transition values on the region, in region.indices order
    gap_width: float       # distance from the core to the region's complement
    lipschitz: float       # geodesic length d(background, value)
    zone_measure: float    # measure(region \ core), where the field moves
    error_mass: float      # lipschitz**p * zone_measure (+inf past the float range)
    inner_over_budget: bool
    outer_over_budget: bool
    sup_gap: float         # max |smoothstep(t) - t| over the region
    sup_gap_budget: float


@dataclass
class ContinuousField:
    map: MeasurableMap     # the relaxed field, validated once when built
    background: Array
    order: int
    pieces: list[RelaxPiece]
    p: float
    target_eps: float
    achieved_error: float

    @property
    def error_mass(self) -> float:
        """M, the sum of the pieces' error masses: D_p(input, field) <= M**(1/p)."""
        return math.fsum(piece.error_mass for piece in self.pieces)

    @property
    def error_norm(self) -> float:
        """M**(1/p), as the p-norm of the Lipschitz constants weighted by the
        zone measures, scaled where lipschitz**p leaves the float range."""
        lips = [piece.lipschitz for piece in self.pieces]
        zones = [piece.zone_measure for piece in self.pieces]
        return dp_from_pointwise(np.array(lips), np.array(zones), self.p)

    @property
    def flags(self) -> dict[str, bool]:
        """The pieces' budget flags, and whether the error the field can
        spend, M**(1/p), is within `error_bound`; a field without pieces
        raises no flag and holds its guarantee."""
        inner = any(piece.inner_over_budget for piece in self.pieces)
        outer = any(piece.outer_over_budget for piece in self.pieces)
        return {"inner_over_budget": inner, "outer_over_budget": outer,
                "guarantee_holds": self.error_norm <= error_bound(self)}


def smooth_from_simple(
    g: SimpleMap, background: Array, p: float, eps: float, order: int = 2
) -> ContinuousField:
    """Relax a simple map on a grid domain into a continuous field.

    Transitions are composed with an order-N smoothstep, flattening N
    derivatives at cores and envelope boundaries.  Order 0 is the
    continuous relaxation: geodesic transitions driven by the raw
    distance-ratio field.
    """
    p = check_finite_p(p)
    check_eps(eps)
    _check_order(order)
    domain = g.domain
    if domain.geometry is None:
        raise GeometryError("relaxation needs a grid domain")
    z0 = g.space.check_point(background)
    n_atoms = domain.atom_count

    # level sets of non-background values, in ascending label order
    piece_labels = [
        lab
        for lab in np.flatnonzero(np.bincount(g.labels)).tolist()
        if not np.array_equal(g.value_table[lab], z0)
    ]
    k = len(piece_labels)
    values = np.tile(z0, (n_atoms, 1))
    lips = g.space.distance_many(z0[None, :], g.value_table[piece_labels]).tolist()
    # The per-piece budget; with no piece it is never spent.  The morphology
    # compares it only with 0 and with positive multiples of the cell
    # measure, so a budget below the smallest positive float decides as
    # that float, and one above the largest float as inf.
    delta = 0.0
    if k:
        try:
            delta = max((eps / (2.0 * k ** (1.0 / p) * max(lips))) ** p, math.ulp(0.0))
        except OverflowError:
            delta = math.inf

    # background cells that no piece has grabbed yet
    free = ~np.isin(g.labels, piece_labels)
    pieces: list[RelaxPiece] = []
    for lab, lip in zip(piece_labels, lips):
        b_mask = g.labels == lab
        b = AtomSet.from_mask(b_mask)
        inner = inner_closed_approx(domain, b, delta)
        outer = outer_open_approx(domain, b, delta)
        grabbed = outer.atoms.mask() & free  # b lies in the foreground
        free &= ~grabbed
        region = AtomSet.from_mask(b_mask | grabbed)
        trans = urysohn(domain, inner.atoms, region)
        t_raw = trans.values[region.indices]
        s_vals = np.asarray(smoothstep(t_raw, order))
        # the geodesic returns its endpoints verbatim, so it runs only on the
        # cells off them; cells at s == 0 keep the background.  A smoothstep
        # of order >= 3 can round a hair past 1 near the core; such a cell is
        # no endpoint and takes its geodesic point.
        mid = (s_vals != 0.0) & (s_vals != 1.0)
        values[region.indices[s_vals == 1.0]] = g.value_table[lab]
        if mid.any():
            values[region.indices[mid]] = g.space.geodesic_many(
                z0, g.value_table[lab], s_vals[mid]
            )
        zone = region.difference(inner.atoms)
        mu_zone = measure(domain, zone)
        if order == 0 or lip == 0.0 or mu_zone == 0.0:
            budget = math.inf
        else:
            budget = eps / (3.0 * lip * (k * mu_zone) ** (1.0 / p))
        try:
            mass = lip**p * mu_zone if mu_zone else 0.0
        except OverflowError:
            mass = math.inf
        pieces.append(
            RelaxPiece(
                label=lab,
                value=g.value_table[lab].copy(),
                core=inner.atoms,
                region=region,
                transition=t_raw,
                gap_width=trans.gap_width,
                lipschitz=lip,
                zone_measure=mu_zone,
                error_mass=mass,
                inner_over_budget=inner.over_budget,
                outer_over_budget=outer.over_budget,
                sup_gap=float(np.max(np.abs(s_vals - t_raw), initial=0.0)),
                sup_gap_budget=budget,
            )
        )

    out_map = MeasurableMap(domain, g.space, values)
    achieved = dp_distance(g, out_map, p)
    return ContinuousField(
        map=out_map,
        background=z0,
        order=order,
        pieces=pieces,
        p=p,
        target_eps=eps,
        achieved_error=achieved,
    )


def error_bound(field_out: ContinuousField) -> float:
    """The guaranteed D_p bound eps * 2**(1/p - 1), valid when the field's
    `error_norm` is within it (always so when no budget flag is raised)."""
    return field_out.target_eps * 2.0 ** (1.0 / field_out.p - 1.0)


def adjacent_difference_report(field_out: ContinuousField) -> dict[str, float]:
    """Scan all face-adjacent cell pairs against the per-piece modulus.

    Within piece i the field moves along a geodesic of length lip_i driven
    by a transition whose adjacent-cell increments are at most
    cell / gap_i, stretched by at most the smoothstep's maximal slope; a
    pair bridging piece i and piece j (or the background) pays both
    pieces' increments.  Returns the worst observed difference, the worst
    bound, and the maximal observed/bound ratio (bound 0 forces
    difference 0).
    """
    out = field_out.map
    domain = out.domain
    if domain.geometry is None:
        raise GeometryError("modulus scan needs a grid domain")
    cell = domain.geometry.cell_size
    slope = smoothstep_max_slope(field_out.order)
    per_atom = np.zeros(domain.atom_count)
    piece_of = np.full(domain.atom_count, -1, dtype=np.int64)
    for j, piece in enumerate(field_out.pieces):
        gap = piece.gap_width
        step = 0.0 if math.isinf(gap) else slope * piece.lipschitz * cell / gap
        per_atom[piece.region.indices] = step
        piece_of[piece.region.indices] = j
    left, right = face_adjacent_pairs(domain.geometry)
    dist = out.space.distance_many(out.values[left], out.values[right])
    same = piece_of[left] == piece_of[right]
    bound = np.where(
        same, np.maximum(per_atom[left], per_atom[right]), per_atom[left] + per_atom[right]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0, dist / bound, np.where(dist > 0, np.inf, 0.0))
    return {
        "max_difference": float(dist.max(initial=0.0)),
        "max_bound": float(bound.max(initial=0.0)),
        "max_ratio": float(ratio.max(initial=0.0)),
    }


def boundary_difference_scan(field_out: ContinuousField) -> dict[str, float]:
    """First/second discrete differences in windows straddling a piece
    boundary (envelope edge or core edge) on a 1-D grid.

    These quantify the flattening a smoothstep provides where the field
    meets its locally constant plateaus; away from boundaries the
    transition is steep by design, so the global maxima are reported
    separately for context.
    """
    out = field_out.map
    geo = out.domain.geometry
    if geo is None or geo.dim != 1:
        raise GeometryError("difference scan needs a 1-D grid domain")
    vals = out.values
    if out.space.dim != 1:
        raise MetricLpError("difference scan expects a 1-dimensional payload")
    n = geo.cells_per_axis
    v = vals.reshape(n)
    region_id = np.full(n, -1, dtype=np.int64)
    core = np.zeros(n, dtype=bool)
    for j, piece in enumerate(field_out.pieces):
        region_id[piece.region.indices] = j
        core[piece.core.indices] = True
    change = (region_id[:-1] != region_id[1:]) | (core[:-1] != core[1:])
    d1 = np.abs(np.diff(v))
    d2 = np.abs(np.diff(v, n=2))
    straddle2 = change[:-1] | change[1:]
    return {
        "max_boundary_first_difference": float(d1[change].max(initial=0.0)),
        "max_boundary_second_difference": float(d2[straddle2].max(initial=0.0)),
        "max_first_difference": float(d1.max(initial=0.0)),
        "max_second_difference": float(d2.max(initial=0.0)),
        "cell_size": geo.cell_size,
    }
