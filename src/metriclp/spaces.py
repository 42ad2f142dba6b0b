"""Concrete metric target spaces.

Every space works on flat float64 payloads so that mappings can be stored
as (atoms, payload_dim) arrays and distances evaluated in batch.

Conventions
-----------
- A point is a flat float64 payload of length `dim`; a stack of points is
  an array with the payload on its last axis, usually (m, dim).  Payload
  layouts:
    euclidean d   : the d coordinates
    spd n         : row-major n x n symmetric positive-definite matrix
    simplex d     : d nonnegative weights summing to 1
    histogram     : one weight per grid node, nonnegative, summing to 1
    circle        : a single angle in [0, 2*pi)
- `distance_many(a, b)` takes two stacks whose leading axes broadcast and
  returns one distance per pair, in the broadcast leading shape: rows
  against rows, one row against many, or a (c, r) table from (c, 1, dim)
  and (1, r, dim) stacks.  The kernels broadcast themselves and are
  element-wise in the pairs, so a pair's distance does not depend on the
  shape it is asked in.  They must be exactly symmetric (d(a, b) and
  d(b, a) agree bit for bit) and give exactly 0.0 on rows that compare
  equal, entries of +0.0 and -0.0 included (`maps.pointwise_distance`
  relies on this to skip such rows).  The
  euclidean, circle, simplex and histogram kernels meet this by
  construction; the SPD kernel canonicalizes its argument order itself.
- Blocks: `distance_many` hands a row-aligned request (equal leading
  shapes, or one row against many) of more than _BLOCK_ROWS pairs to the
  kernel one block of _BLOCK_ROWS rows at a time, so that the kernels'
  temporaries stay in cache.  A pair's distance does not depend on the
  shape it is asked in, so the blocks give the bits of one whole call; a
  refused stack is refused either way, with the message of the first block
  that holds a fault.  A (c, r) table goes to the kernel whole: its callers
  (`quantize`, `verify`) already bound it by `COVER_BLOCK_PAIRS`.
- Folds: a kernel's row sums and row norms over a payload axis narrower
  than eight columns, on stacks of 64 rows or more, are folds over the
  columns (`_fold_rows`), one numpy pass per column, instead of a numpy
  reduction along the short axis, which costs about 20 ns per row.  numpy
  sums fewer than eight terms left to right from +0.0, so the fold has its
  bits; from eight terms on numpy switches to a tree of eight
  accumulators, and its reduction is kept.
  `tests/test_spaces.py::test_fold_rows_has_the_bits_of_numpy_reductions`
  fails if a numpy release reorders these sums.
- Geodesics are constant speed: d(gamma(s), gamma(t)) = |s-t| * d(a, b).
  Endpoint stacks and times broadcast against each other in the same way
  (times carry no payload axis), so one endpoint pair serves any number of
  times, and a point's bits do not depend on the other times asked with
  it.  Endpoints are returned verbatim, so gamma(0) == a and
  gamma(1) == b hold bit for bit.
- A stack whose last axis is not `dim`, or whose leading axes do not
  broadcast, is refused with DimensionMismatchError.
- Dense sequences follow fixed dyadic refinement orders documented on each
  space; they are pure functions of k and return (k, dim) payloads, k = 0
  included.  The dyadic grids are built as integer index arrays
  (stars-and-bars compositions) and divided once, so every coordinate
  j / 2**l is exact.
- Epsilon nets are built greedily (farthest point first) over a documented
  probe grid of the requested ball and returned as (k, dim) payload arrays.
  Each probe remembers its nearest net point; after an insertion only the
  probes the triangle inequality cannot rule out are measured again
  (Elkan's bound, with a slack far above kernel rounding), so the net is
  the one a full rescan of every probe would give, bit for bit.

Every target is separable and path-connected: each has a dense sequence
and constant-speed geodesics, which the density and separability results
need.  What varies is whether closed balls are compact, and with it
whether finite epsilon nets exist: `has_epsilon_net` is the one capability
flag.  The histogram space deliberately refuses epsilon nets: it stands in
for distributions on the line under the 1-Wasserstein distance, where
closed balls are not compact and no finite net exists.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CapabilityError, DimensionMismatchError, InvalidPointError

Array = np.ndarray

TWO_PI = 2.0 * math.pi

# Net construction: probe grids are this many times finer than the target
# radius, and greedy insertion stops once every probe is strictly covered.
NET_PROBE_FRACTION = 8
NET_PROBE_CAP = 2_000_000
# Relative slack of a triangle-inequality prune (`epsilon_net`'s skips and
# `quantize._first_cover`'s band): rounding in the distance kernels is
# orders of magnitude below it.
PRUNE_SLACK_REL = 1e-6
# Absolute slack on the squared chord bound that prunes the simplex probe
# grid (`SimplexSpace.probe_ball`), about 1e6 times the rounding it covers.
PROBE_PRUNE_SLACK = 1e-9
# Rows per kernel pass of a large row-aligned `distance_many` request and of
# the SPD payload check, so that their temporaries stay in L2.  Of 4,096 to
# 16,384 rows, 8,192 was fastest over the six benchmark targets on a 2 MB
# L2; at 16,384, two histogram8 stacks of 64-byte rows fill it.
_BLOCK_ROWS = 8192


def _fold_rows(x: Array, norm: bool = False) -> Array:
    """Sums over the last axis of x, or with `norm` the Euclidean norms,
    with the bits of `np.add.reduce(x, axis=-1)` (`np.linalg.norm(x,
    axis=-1)`, the root of the reduced squares).

    Below eight columns each row is summed left to right from +0.0, which is
    numpy's order there, one numpy pass per column; from eight columns on
    numpy's reduction runs, since numpy then sums in another order.  So it
    does on stacks of fewer than 64 rows, where the per-column passes cost
    more calls than the reduction's cost per row saves (same bits).
    """
    if x.shape[-1] >= 8 or x.size < 64 * x.shape[-1]:
        return np.linalg.norm(x, axis=-1) if norm else np.add.reduce(x, axis=-1)
    out = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        col = x[..., j]
        out += col * col if norm else col
    return np.sqrt(out, out=out) if norm else out


def _lex_greater(a: Array, b: Array) -> Array:
    """Row-wise lexicographic a > b for two equal-shape (m, k) arrays, k >= 1.

    When every row differs in its first entry, that entry decides.  Otherwise
    the columns are taken right to left, each differing entry overriding the
    verdict of the columns after it, so the first differing entry decides
    (entries that compare equal, +0.0 and -0.0 included, never do; a NaN
    entry decides "not greater").
    """
    if (a[:, 0] != b[:, 0]).all():
        return a[:, 0] > b[:, 0]
    gt = np.zeros(a.shape[0], dtype=bool)
    for j in range(a.shape[1] - 1, -1, -1):
        aj, bj = a[:, j], b[:, j]
        gt = np.where(aj != bj, aj > bj, gt)
    return gt


# ---------------------------------------------------------------------------
# dyadic enumeration helpers
# ---------------------------------------------------------------------------


def dyadic_reals(k: int) -> list[float]:
    """First k terms of the dyadic enumeration of the real line.

    Generation 0 is {0}; generation l >= 1 lists the values j * 2**(1-l)
    with |value| <= l that are new at this generation, ordered by
    (|value|, positive before negative).  The sequence therefore starts
    0, 1, -1, 1/2, -1/2, 3/2, -3/2, 2, -2, ...  A value of generation l is
    old exactly when j is even and |value| <= l - 1.
    """
    out = [0.0]
    level = 1
    while len(out) < k:
        step = 2.0 ** (1 - level)
        for j in range(1, int(round(level / step)) + 1):
            if j % 2 or j * step > level - 1:
                out.extend((j * step, -j * step))
        level += 1
    return out[:k]


def dyadic_tuples(dim: int, k: int) -> Array:
    """First k points of the dyadic enumeration of R^dim.

    Index tuples (i_1..i_dim) into the 1-D enumeration are ordered by
    (sum of indices, lexicographic), and each tuple is mapped through
    `dyadic_reals`.  The first point is always the origin.
    """
    if dim == 0:
        return np.zeros((min(k, 1), 0))
    blocks = [np.zeros((0, dim), dtype=np.int64)]
    count = total = 0
    while count < k:
        blocks.append(_compositions(total, dim))
        count += len(blocks[-1])
        total += 1
    idx = np.concatenate(blocks)[:k]
    return np.array(dyadic_reals(int(idx.max(initial=0)) + 1))[idx]


def _expand(counts: Array) -> tuple[Array, Array]:
    """Children of prefixes with the given (platform integer) child counts,
    each prefix's children in place and in order: every child's parent
    index and its rank 0, 1, ... among its parent's children."""
    parent = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return parent, rank


def _compositions(total: int, dim: int, dtype=np.int64) -> Array:
    """All index tuples of length dim summing to total, as a (count, dim)
    array of `dtype` (which must hold total) in lexicographic order.

    Built one column at a time: each prefix with r units left expands, in
    place and in ascending order, into r + 1 children taking 0..r of them,
    so prefixes stay lexicographic; the last column takes what is left.
    Child counts and offsets are platform integers whatever `dtype` is.
    """
    rest = np.array([total], dtype=dtype)
    cols: list[Array] = []
    for _ in range(dim - 1):
        parent, take = _expand(rest.astype(np.intp) + 1)
        take = take.astype(dtype)
        cols = [c[parent] for c in cols]
        cols.append(take)
        rest = rest[parent] - take
    cols.append(rest)
    return np.stack(cols, axis=1)


def _level_key(grid: Array) -> Array:
    """Stable-sort key listing level-L dyadic tuples in enumeration order.

    A tuple first appears at level L - v, where 2**v is the largest power
    of two dividing all its entries; the key is -2**v, so a stable argsort
    puts earlier levels first and keeps lexicographic order within one.
    """
    # folded column by column: a ufunc reduce along the short row axis is
    # three times slower
    common = functools.reduce(np.bitwise_or, grid.T)
    # common & -common is the lowest set bit of the OR of the entries: 2**v
    return -(common & -common)


def dyadic_simplex(dim: int, k: int) -> Array:
    """First k points of the dyadic refinement of the probability simplex.

    Level l lists all weight vectors (j_1..j_dim)/2**l with integer j_i
    summing to 2**l; within a level new points are ordered lexicographically
    by the integer tuple.  Level 0 gives the vertices.  Only the finest
    level L needed is built, in the smallest signed integer type that holds
    2**L, then stable-sorted by `_level_key` and cast to float64, which is
    exact for every such integer.
    """
    level = 0
    while dim > 1 and math.comb(2**level + dim - 1, dim - 1) < k:
        level += 1
    small = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= 2**level)
    grid = _compositions(2**level, dim, small)
    rows = grid.take(np.argsort(_level_key(grid), kind="stable")[:k], axis=0)
    del grid  # keep at most two grid-sized arrays alive
    out = rows.astype(np.float64)
    out /= 2**level
    return out


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------


class MetricSpace:
    """Shared behaviour for all concrete targets.

    Subclasses implement `_distance_many` and friends on stacked payload
    arrays; a single point is one payload row.
    """

    tag: str = "abstract"
    has_epsilon_net = False

    dim: int  # payload length

    # -- validation --------------------------------------------------------

    def check_payload(self, arr: Array) -> Array:
        arr = np.asarray(arr, dtype=np.float64)
        # explicit row counts: reshape(-1, 0) is ambiguous for length-0 payloads
        rows = math.prod(arr.shape[:-1]) if arr.ndim > 1 else 1
        flat = arr.reshape(rows, arr.shape[-1] if arr.ndim else 1)
        if flat.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"{self.tag}: payload length {flat.shape[-1]}, expected {self.dim}"
            )
        if not np.all(np.isfinite(flat)):
            raise InvalidPointError(f"{self.tag}: non-finite payload entries")
        self._check_valid(flat)
        return arr

    def _check_valid(self, flat: Array) -> None:
        """Space-specific payload constraints; flat is (m, dim)."""

    def check_point(self, payload: Array) -> Array:
        """Validate a single payload, flattened to shape (dim,)."""
        return self.check_payload(np.asarray(payload, dtype=np.float64).reshape(-1))

    @property
    def single_point(self) -> bool:
        """True when the space holds exactly one element."""
        return False

    # -- distances ----------------------------------------------------------

    def _leading_shape(self, a: Array, b: Array, *more: tuple) -> tuple:
        """Broadcast leading shape of the payload stacks a and b and of the
        shapes in `more`; DimensionMismatchError unless a and b carry `dim`
        on their last axis and all the leading shapes broadcast."""
        for arr in (a, b):
            if arr.shape[-1] != self.dim:
                raise DimensionMismatchError(
                    f"{self.tag}: payload length {arr.shape[-1]}, expected {self.dim}"
                )
        shapes = (a.shape[:-1], b.shape[:-1], *more)
        if all(s == shapes[0] for s in shapes[1:]):
            return shapes[0]
        try:
            return np.broadcast_shapes(*shapes)
        except ValueError:
            raise DimensionMismatchError(
                f"{self.tag}: leading axes {', '.join(map(str, shapes))} do not broadcast"
            ) from None

    def distance_many(self, a: Array, b: Array) -> Array:
        """Distances between the payload pairs of two stacks whose leading
        axes broadcast, in the broadcast leading shape; a single payload
        counts as a one-row stack.

        `distance_many(centers[:, None], rows[None])` is the (c, r) table of
        every center against every row, with the bits of the row-wise calls.
        The kernel contract makes the identity and symmetry axioms hold bit
        for bit: `_distance_many` is exactly symmetric and returns exactly
        0.0 on identical rows.
        """
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        shape = self._leading_shape(a, b)
        rows = math.prod(shape)
        if rows <= _BLOCK_ROWS:
            return self._distance_many(a, b)
        rows_a, rows_b = math.prod(a.shape[:-1]), math.prod(b.shape[:-1])
        if a.shape != b.shape and 1 not in (rows_a, rows_b):
            return self._distance_many(a, b)  # a table: the caller sized it
        # one row against many keeps its one row in every block
        a, b = a.reshape(rows_a, self.dim), b.reshape(rows_b, self.dim)
        out = np.empty(rows)
        for start in range(0, rows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            out[block] = self._distance_many(
                a if rows_a == 1 else a[block], b if rows_b == 1 else b[block]
            )
        return out.reshape(shape)

    def _distance_many(self, a: Array, b: Array) -> Array:
        """Kernel on two validated stacks with broadcasting leading axes."""
        raise NotImplementedError

    # -- geodesics ----------------------------------------------------------

    def geodesic_many(self, a: Array, b: Array, t: Array) -> Array:
        """Constant-speed geodesic points; the leading axes of the endpoint
        stacks and the times broadcast against each other, so one endpoint
        pair serves any number of times, and (atoms, dim) endpoints with
        (k, 1) times give k points per atom as one (k, atoms, dim) stack."""
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        self._leading_shape(a, b, t.shape)
        out = self._geodesic_many(a, b, t)
        # endpoint times reproduce the inputs verbatim, written in place
        np.copyto(out, a, where=(t == 0.0)[..., None])
        np.copyto(out, b, where=(t == 1.0)[..., None])
        return out

    def _geodesic_many(self, a: Array, b: Array, t: Array) -> Array:
        raise NotImplementedError

    # -- dense sequences -----------------------------------------------------

    def dense_payloads(self, k: int) -> Array:
        if k < 0:
            raise ValueError("k must be nonnegative")
        return self._dense_payloads(k)

    def _dense_payloads(self, k: int) -> Array:
        raise NotImplementedError

    # -- epsilon nets ---------------------------------------------------------

    def epsilon_net(self, center: Array, radius: float, eps: float) -> Array:
        """Greedy finite net, as a (k, dim) payload array, whose open
        eps-balls cover the closed ball; row 0 is the center.

        Probes from the documented `probe_ball` grid are inserted
        farthest-first until every probe lies strictly within
        eps - spacing of the net; the grids place every ball point within
        `spacing` of a probe, so the whole ball ends up strictly within
        eps of the net, not just the probes.  A grid may keep nodes up to
        `spacing` outside the ball, where a boundary point's nearest node
        can lie (the simplex grid does), so net points may lie outside the
        ball by as much; the covering of the ball is what is promised.

        Each probe keeps its distance to the net and the index of the net
        point attaining it.  A new net point can only bring a probe closer
        when d(new, near) < 2 * dist, by the triangle inequality, so only
        those probes are measured again (Elkan's bound).  The test adds a
        slack of PRUNE_SLACK_REL times the ball's scale, far above the
        kernels' rounding, so no probe whose distance would drop is
        skipped: the distances, and with them the farthest-first choices
        and the net, are the same as with a full rescan after each insert.
        """
        if not self.has_epsilon_net:
            raise CapabilityError(
                f"{self.tag}: no epsilon-net capability (closed balls are not compact)"
            )
        if not eps > 0:
            raise ValueError("eps must be positive")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        c = self.check_point(center)
        if radius == 0 or self.single_point:
            return np.array([c])
        spacing = eps / NET_PROBE_FRACTION
        probes = self.probe_ball(c, radius, spacing)
        # a net point is the center or a probe, and an inserted probe is at
        # distance 0 from the net, so the net fits in probes + 1 rows
        net = np.empty((probes.shape[0] + 1, c.size))
        net[0] = c
        size = 1
        dist = self.distance_many(probes, c[None, :])
        near = np.zeros(dist.size, dtype=np.int64)
        slack = PRUNE_SLACK_REL * (2.0 * radius + eps)
        while dist.size and dist.max() >= eps - spacing:
            new = probes[int(np.argmax(dist))]
            to_net = self.distance_many(net[:size], new[None, :])
            cand = np.flatnonzero(to_net[near] < 2.0 * dist + slack)
            d_new = self.distance_many(probes[cand], new[None, :])
            closer = d_new < dist[cand]
            dist[cand[closer]] = d_new[closer]
            near[cand[closer]] = size
            net[size] = new
            size += 1
        return net[:size].copy()

    def probe_ball(self, center: Array, radius: float, spacing: float) -> Array:
        """Documented finite probe grid for the closed ball B(center, radius);
        `center` is a validated (dim,) payload."""
        raise CapabilityError(f"{self.tag}: no probe grid")

    # -- misc -----------------------------------------------------------------

    def unit_probe(self) -> Array:
        """Fixed unit-scale reference payloads used for covering diagnostics."""
        raise NotImplementedError

    def random_payloads(self, rng: np.random.Generator, m: int, spread: float = 1.0) -> Array:
        raise NotImplementedError

    def descriptor(self) -> dict:
        return {"space": self.tag, "dim": self.dim}

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def _scaled_norms(a: Array, b: Array) -> Array:
    """||a - b|| per row of two (m, d) stacks, with each row's difference
    scaled by the power of two that puts its largest entry in [0.5, 1).

    Power-of-two scaling is exact, so no square under- or overflows and the
    result is the norm rounded once more, +inf only past the float range.
    Where a - b itself overflows, both are halved first.  Negating a
    difference changes no square, so the result is exactly symmetric, and an
    exactly zero difference gives exactly 0.0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a - b
        halved = ~np.isfinite(diff).all(axis=-1)
        diff[halved] = 0.5 * a[halved] - 0.5 * b[halved]
        _, exp = np.frexp(np.abs(diff).max(axis=-1, initial=0.0))
        norms = _fold_rows(np.ldexp(diff, -exp[:, None]), norm=True)
        return np.ldexp(norms, exp + halved)


def _axis_nodes(tag: str, length: float, h: float) -> int:
    """Nodes per axis of a probe grid of step at most h over an interval of
    the given length; a count that is no finite float (e.g. for a ball of
    infinite radius) is refused."""
    cells = length / h if h > 0 else math.inf
    if not math.isfinite(cells):
        raise CapabilityError(f"{tag}: probe grid over length {length} cannot be sized")
    return int(math.ceil(cells)) + 1


# ---------------------------------------------------------------------------
# Euclidean R^d
# ---------------------------------------------------------------------------


class EuclideanSpace(MetricSpace):
    """R^d with the usual norm; geodesics are straight segments."""

    has_epsilon_net = True

    def __init__(self, dim: int):
        if dim < 0:
            raise ValueError("dim must be >= 0")
        self.dim = int(dim)
        self.tag = f"euclidean{self.dim}"

    @property
    def single_point(self) -> bool:
        return self.dim == 0

    def _distance_many(self, a, b):
        # The plain norm squares the differences: below sqrt(tiny) a square
        # underflows (1e-170 apart would read 0.0) and past sqrt(max) it
        # overflows (1e170 apart would read inf).  Only those rows are
        # redone, so every other row keeps its bits.  The min and max settle
        # the usual call, every norm in range, without a mask (a NaN fails
        # both tests and sends the call to the mask, which leaves it as is).
        with np.errstate(over="ignore"):
            diff = a - b
            out = _fold_rows(diff, norm=True)
        if not out.size or (out.min() >= _SQRT_TINY and out.max() < math.inf):
            return out
        redo = (out < _SQRT_TINY) | (out == math.inf)
        if redo.any():
            # rows that differ by exactly zero are exactly 0.0 already
            redo[redo] = diff[redo].any(axis=-1)
        if redo.any():
            a, b = np.broadcast_arrays(a, b)
            out[redo] = _scaled_norms(a[redo], b[redo])
        return out

    def _geodesic_many(self, a, b, t):
        # a + t (b - a), unless numpy's floating-point flags show an
        # overflow (no extra pass); then the pairs whose b - a is not finite
        # take (1 - t) a + t b, whose terms have opposite signs and cannot
        # overflow, and the others keep a + t (b - a)
        try:
            with np.errstate(over="raise"):
                return a + t[..., None] * (b - a)
        except FloatingPointError:
            pass
        tt = t[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            diff = b - a
            wide = ~np.isfinite(diff).all(axis=-1, keepdims=True)
            return np.where(wide, (1 - tt) * a + tt * b, a + tt * diff)

    def _dense_payloads(self, k):
        return dyadic_tuples(self.dim, k)

    def probe_ball(self, center, radius, spacing):
        h = spacing / math.sqrt(self.dim)
        n_axis = _axis_nodes(self.tag, 2 * radius, h)
        if n_axis**self.dim > NET_PROBE_CAP:
            raise CapabilityError(
                f"{self.tag}: probe grid would need {n_axis}^{self.dim} nodes"
            )
        axes = [np.linspace(ci - radius, ci + radius, n_axis) for ci in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        keep = _fold_rows(grid - center, norm=True) <= radius
        return grid[keep]

    def unit_probe(self):
        if self.dim == 0:
            return np.zeros((1, 0))
        side = max(2, int(round(9 ** (1 / self.dim))))
        axes = [np.linspace(-1.0, 1.0, side)] * self.dim
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)

    def random_payloads(self, rng, m, spread=1.0):
        """Normal coordinates times `spread`; a spread that gives an entry
        that is not finite is refused."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = spread * rng.standard_normal((m, self.dim))
        if np.isfinite(out).all():
            return out
        raise InvalidPointError(f"{self.tag}: spread {spread!r} gives payloads that are not finite")


# ---------------------------------------------------------------------------
# symmetric positive-definite matrices, affine-invariant metric
# ---------------------------------------------------------------------------

# Eigenvalues of the congruence-transformed matrix are clamped below at
# EIG_CLAMP; clamping that moves an eigenvalue by more than EIG_CLAMP_REL
# relative is treated as an invalid (non-SPD) input instead.
EIG_CLAMP = 1e-12
EIG_CLAMP_REL = 1e-9
# Shift of the payload check's Cholesky certificate, relative to n times the
# largest diagonal entry: about 1e6 times the rounding it must outweigh.
_CHOL_SHIFT_REL = 1e-8


def _least_pivots(cols: Array, n: int) -> Array:
    """Smallest Cholesky pivot of A - s I, s = EIG_CLAMP + _CHOL_SHIFT_REL *
    n * max_i a_ii, for every matrix A of a stack; where the factorization
    breaks down or overflows, a value that is not > 0 (a pivot <= 0, -inf
    or nan).

    cols[i * n + j] holds entry (i, j) of every matrix, and only entries
    with i >= j are read.  Python loops over the n (n + 1) / 2 entries of
    the factor, numpy over the stack; see `SpdSpace._check_valid` for what
    a positive result proves.
    """
    with np.errstate(all="ignore"):
        shift = cols[:: n + 1].max(axis=0) * (_CHOL_SHIFT_REL * n) + EIG_CLAMP
        low = {}  # low[i, j]: entry (i, j), i > j, of the Cholesky factor
        for j in range(n):
            pivot = cols[j * (n + 1)] - shift
            for k in range(j):
                pivot -= low[j, k] * low[j, k]
            # np.minimum keeps a nan pivot, and nan > 0 fails
            least = pivot if j == 0 else np.minimum(least, pivot)
            if j + 1 < n:
                root = np.sqrt(pivot)
                for i in range(j + 1, n):
                    entry = cols[i * n + j]
                    for k in range(j):
                        entry = entry - low[i, k] * low[j, k]
                    low[i, j] = entry / root
    return least


def _spd2_pencil(a: Array, b: Array) -> tuple[Array, Array]:
    """The closed-form nu of the 2 x 2 pencil det((b - a) - nu a) = 0 for
    (m, 2, 2) stacks, and the rows where a determinant, mid**2,
    4 * det_a * det_e or their difference is not finite (their nu are then
    meaningless)."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = b - a
        det_a = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
        det_e = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
        mid = (
            a[:, 0, 0] * e[:, 1, 1]
            + a[:, 1, 1] * e[:, 0, 0]
            - a[:, 0, 1] * e[:, 1, 0]
            - a[:, 1, 0] * e[:, 0, 1]
        )
        disc = mid**2 - 4 * det_a * det_e
        s = np.sqrt(np.maximum(disc, 0.0))
        big = 0.5 * (mid + np.where(mid >= 0, s, -s))
        nu1 = big / det_a
        nu2 = np.where(big != 0, det_e / np.where(big != 0, big, 1.0), 0.0)
        # with det_a finite and positive, a det_e, mid**2 or 4 * det_a * det_e
        # past the float range leaves the discriminant inf or NaN
        out_of_range = ~(np.isfinite(disc) & np.isfinite(det_a))
    return np.stack([nu1, nu2], axis=-1), out_of_range


def _spd2_pencil_rescaled(a: Array, b: Array) -> Array:
    """`_spd2_pencil` on pairs scaled by a common power of two.

    The pencil is homogeneous: scaling a and b by one factor leaves nu as
    it is.  The factor is 2**-k with 2**k near sqrt(max|a| * max|b|), so
    that a product of an entry of a and one of b comes out near 1.
    Power-of-two scaling is exact, save for entries so far below their
    matrix's largest that they underflow, where they did not count.  A
    pair still out of range, or whose nu is not finite, is refused.
    """
    _, exp_a = np.frexp(np.abs(a).max(axis=(1, 2)))
    _, exp_b = np.frexp(np.abs(b).max(axis=(1, 2)))
    k = ((exp_a + exp_b) // 2)[:, None, None]
    nu, out_of_range = _spd2_pencil(np.ldexp(a, -k), np.ldexp(b, -k))
    if out_of_range.any() or not np.isfinite(nu).all():
        raise InvalidPointError("spd distance: the pair's pencil is past the float range")
    return nu


class SpdSpace(MetricSpace):
    r"""SPD(n) with the affine-invariant distance.

    .. math::
        d(A, B) = \|\log(A^{-1/2} B A^{-1/2})\|_F
                = \Big(\sum_i \log^2 \lambda_i(A^{-1}B)\Big)^{1/2}

    and geodesic :math:`\gamma(t) = A^{1/2}(A^{-1/2} B A^{-1/2})^t A^{1/2}`.
    Payloads store the full matrix row-major.  The space is complete and
    its dense sequence enumerates matrix exponentials of symmetric matrices
    with dyadic entries (the exponential chart is a global homeomorphism).
    """

    has_epsilon_net = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("matrix order must be >= 1")
        self.n = int(n)
        self.dim = self.n * self.n
        self.tag = f"spd{self.n}"

    def _mats(self, flat: Array) -> Array:
        return flat.reshape(flat.shape[:-1] + (self.n, self.n))

    def _flat_sym(self, mats: Array) -> Array:
        """Symmetrize a (..., n, n) stack and flatten it to (..., dim) payloads."""
        out = 0.5 * (mats + np.swapaxes(mats, -1, -2))
        return out.reshape(out.shape[:-2] + (self.dim,))

    @staticmethod
    def _expm_sym(s: Array) -> Array:
        """Matrix exponential of a stack of symmetric matrices via eigh."""
        w, v = np.linalg.eigh(s)
        return (v * np.exp(w)[:, None, :]) @ np.swapaxes(v, -1, -2)

    def _check_valid(self, flat):
        r"""Refuse a stack with a row that is not symmetric to 1e-12 or whose
        smallest `eigvalsh` eigenvalue is <= EIG_CLAMP.

        A column-wise Cholesky certificate (`_least_pivots`) decides every
        row it can, and `eigvalsh` runs only on the rest (zero, indefinite,
        ill-conditioned or overflowing rows), so no row's verdict differs
        from that of `eigvalsh` on every row.  A is the symmetric matrix of
        the row's lower triangle, the one `eigvalsh` reads; D is its largest
        diagonal entry and s = EIG_CLAMP + c n D with c = _CHOL_SHIFT_REL.

        A row passes when every pivot of A - s I is > 0.  Then (Demmel
        1989; Higham, *Accuracy and Stability of Numerical Algorithms*,
        Thm 10.3) the computed factor R satisfies R^T R = A - s I + E, where
        E holds the rounding of the shifted diagonal and of the
        factorization, and |E_ij| <= (n + 2) u D to first order in
        u = 2**-53, since column i of R has squared norm about a_ii - s < D.
        R^T R is positive semidefinite, so
        lambda_min(A) >= s - ||E||_2 >= EIG_CLAMP + (c n - n (n + 2) u) D.
        Here D > 0: the first pivot gives a_00 > s >= EIG_CLAMP + c n a_00.
        An underflowed product moves E by less than 1e-300, which the
        EIG_CLAMP part of s absorbs; an overflowed one turns a later pivot
        into -inf or nan, which fails.  `eigvalsh` returns lambda_min(A) to
        within O(n u) ||A||_2 <= O(n u) n D, since A is positive definite
        and ||A||_2 <= trace(A) <= n D.  With c = 1e-8, c n exceeds both
        rounding terms by a factor of about 1e6 for small n, so a passing
        row's `eigvalsh` minimum is > EIG_CLAMP.

        The symmetry gap is the max of |a_ij - a_ji| over all rows before
        any eigenvalue is looked at, so a stack with both faults is refused
        as not symmetric, with the same gap as a full-matrix difference.
        """
        n = self.n
        sym_gap = 0.0
        failed = []
        for start in range(0, flat.shape[0], _BLOCK_ROWS):
            # cols[i * n + j] holds entry (i, j) of every matrix in the block
            cols = flat[start : start + _BLOCK_ROWS].T.copy()
            # entries of opposite sign near the float limit overflow to a gap of inf
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(n):
                    for j in range(i + 1, n):
                        sym_gap = max(sym_gap, np.abs(cols[i * n + j] - cols[j * n + i]).max())
            least = _least_pivots(cols, n)
            if not least.min() > 0.0:
                failed.append(start + np.flatnonzero(~(least > 0.0)))
        if sym_gap > 1e-12:
            raise InvalidPointError(f"spd payload not symmetric (gap {sym_gap:.2e})")
        if failed:
            w = np.linalg.eigvalsh(self._mats(flat[np.concatenate(failed)]))
            if w.min() <= EIG_CLAMP:
                raise InvalidPointError("spd payload has a nonpositive eigenvalue")

    def _nu_spectrum(self, a: Array, b: Array) -> Array:
        """Shifted pencil spectrum: the nu with det((b - a) - nu a) = 0.

        The eigenvalues of a^{-1} b are 1 + nu; solving for nu instead of
        lambda avoids the catastrophic cancellation the direct quadratic
        (or eigh of the congruence) suffers when b is close to a, keeping
        tiny distances accurate in relative terms.  For n >= 3, a pair whose
        congruence overflows leaves `eigvalsh` entries that are not finite,
        on which it does not converge: that pair is refused as spd2's are.
        """
        if self.n == 2:
            nu, out_of_range = _spd2_pencil(a, b)
            if out_of_range.any():
                nu[out_of_range] = _spd2_pencil_rescaled(a[out_of_range], b[out_of_range])
            return nu
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                e = b - a
                wa, va = np.linalg.eigh(a)
                isqrt = (va * (wa[:, None, :] ** -0.5)) @ np.swapaxes(va, -1, -2)
                mid = isqrt @ e @ isqrt
                mid = 0.5 * (mid + np.swapaxes(mid, -1, -2))
                return np.linalg.eigvalsh(mid)
        except np.linalg.LinAlgError:
            raise InvalidPointError(
                "spd distance: the pair's pencil is past the float range"
            ) from None

    def _distance_many(self, a, b):
        # The pencil kernel works on equal-shape (m, dim) stacks: the pairs
        # are broadcast and flattened here (a view when both are already
        # (m, dim) or one row against many).  It is symmetric only up to
        # rounding, so each pair is evaluated in lexicographic payload order.
        # Identical rows come out as exactly 0.0, as the kernel contract
        # requires, with no pin: x - x is +0.0 for every finite x, so
        # e = b - a is exactly zero.  spd2's closed form then has det_e = 0
        # and mid = 0 (each term is a finite entry times zero), so s = big =
        # 0 and both nu are 0 (a pair whose determinant overflows is first
        # scaled by a power of two, and x - x is still zero).  spd3 takes
        # eigvalsh of isqrt @ 0 @ isqrt, an exactly zero matrix, whose
        # eigenvalues are 0.  log1p(0) = 0.
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        shape = a.shape[:-1]
        a, b = a.reshape(-1, self.dim), b.reshape(-1, self.dim)
        swap = _lex_greater(a, b)
        if np.any(swap):
            swap = swap[:, None]
            a, b = np.where(swap, b, a), np.where(swap, a, b)
        nu = self._nu_spectrum(self._mats(a), self._mats(b))
        floor = EIG_CLAMP - 1.0  # pencil eigenvalues 1 + nu must stay positive
        clamped = np.maximum(nu, floor)
        moved = (clamped - nu) / np.maximum(np.abs(1.0 + nu), EIG_CLAMP)
        if moved.max(initial=0.0) > EIG_CLAMP_REL:
            raise InvalidPointError("spd distance: eigenvalue clamp exceeded tolerance")
        out = _fold_rows(np.log1p(clamped), norm=True)
        return out.reshape(shape)

    def _geodesic_many(self, a, b, t):
        am = self._mats(a)
        bm = self._mats(b)
        # the eigendecompositions run once per endpoint pair, and only the
        # power broadcasts against the times
        wa, va = np.linalg.eigh(am)
        wa = np.maximum(wa, EIG_CLAMP)
        sqrt_a = (va * np.sqrt(wa)[..., None, :]) @ np.swapaxes(va, -1, -2)
        isqrt_a = (va * (wa**-0.5)[..., None, :]) @ np.swapaxes(va, -1, -2)
        mid = isqrt_a @ bm @ isqrt_a
        mid = 0.5 * (mid + np.swapaxes(mid, -1, -2))
        wm, vm = np.linalg.eigh(mid)
        wm = np.maximum(wm, EIG_CLAMP)
        # The power takes both operands whole, in the output's shape: numpy
        # picks its loop for broadcast operands by their layout (with one
        # endpoint pair, one or two times took another loop than three or
        # more, and the last bit differed), so a point's bits would depend
        # on the other times asked with it.
        shape = np.broadcast_shapes(wm[..., None, :].shape, t[..., None, None].shape)
        w_t = np.broadcast_to(wm[..., None, :], shape).copy()
        t_t = np.broadcast_to(t[..., None, None], shape).copy()
        powed = (vm * w_t**t_t) @ np.swapaxes(vm, -1, -2)
        return self._flat_sym(sqrt_a @ powed @ sqrt_a)

    # dense sequence: dyadic coordinates in the log chart
    def _sym_from_coords(self, coords: Array) -> Array:
        m = coords.shape[0]
        s = np.zeros((m, self.n, self.n))
        iu = np.triu_indices(self.n)
        s[:, iu[0], iu[1]] = coords
        s[:, iu[1], iu[0]] = coords
        return s

    def _dense_payloads(self, k):
        n_free = self.n * (self.n + 1) // 2
        coords = dyadic_tuples(n_free, k)
        return self._flat_sym(self._expm_sym(self._sym_from_coords(coords)))

    def probe_ball(self, center, radius, spacing):
        """Grid in the log chart at the center, then mapped through exp.

        Sectional curvature of SPD(n) lies in [-1/2, 0], so chart spacing
        is shrunk by the hyperbolic comparison factor sinh(r')/r' with
        r' = radius / sqrt(2) to keep the image grid fine enough.
        """
        cm = center.reshape(self.n, self.n)
        wc, vc = np.linalg.eigh(cm)
        sqrt_c = (vc * np.sqrt(wc)) @ vc.T
        n_free = self.n * (self.n + 1) // 2
        rp = radius / math.sqrt(2)
        try:
            factor = math.sinh(rp) / rp if rp > 1e-9 else 1.0
        except OverflowError:  # the step underflows to 0: the grid cannot be sized
            factor = math.inf
        h = spacing / factor / math.sqrt(2)  # off-diagonal coords count twice
        n_axis = _axis_nodes(self.tag, 2 * radius, h)
        if n_axis**n_free > NET_PROBE_CAP:
            raise CapabilityError(f"spd{self.n}: probe grid too large ({n_axis}^{n_free})")
        axes = [np.linspace(-radius, radius, n_axis)] * n_free
        coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n_free)
        s = self._sym_from_coords(coords)
        keep = np.linalg.norm(s, axis=(1, 2)) <= radius
        inner = self._expm_sym(s[keep])
        return self._flat_sym(sqrt_c[None] @ inner @ sqrt_c[None])

    def unit_probe(self):
        return self.probe_ball(np.eye(self.n).reshape(-1), 1.0, 0.35)

    def random_payloads(self, rng, m, spread=1.0):
        """exp of random symmetric log-chart coordinates; a spread that gives
        a coordinate or a payload entry that is not finite is refused."""
        with np.errstate(over="ignore", invalid="ignore"):
            coords = spread * rng.standard_normal((m, self.n * (self.n + 1) // 2)) * 0.5
            # eigh does not converge on entries that are not finite
            if np.isfinite(coords).all():
                out = self._flat_sym(self._expm_sym(self._sym_from_coords(coords)))
                if np.isfinite(out).all():
                    return out
        raise InvalidPointError(f"{self.tag}: spread {spread!r} gives payloads that are not finite")


# ---------------------------------------------------------------------------
# probability vectors: what the simplex and histogram targets share
# ---------------------------------------------------------------------------


class ProbabilityVectorSpace(MetricSpace):
    """Payloads of dim >= 1 weights, each >= -1e-12, summing to 1 within
    1e-9; one weight is the single point [1].

    Dense sequences are `dyadic_simplex`, random payloads are uniform
    (Dirichlet(1, ..., 1)), and the unit probe is every dyadic point of
    level `probe_level`.
    """

    probe_level: int

    @property
    def single_point(self) -> bool:
        return self.dim == 1

    def _check_valid(self, flat):
        if flat.min(initial=0.0) < -1e-12:
            raise InvalidPointError(f"{self.tag} payload has a negative weight")
        gap = np.abs(_fold_rows(flat) - 1.0).max(initial=0.0)
        if gap > 1e-9:
            raise InvalidPointError(f"{self.tag} payload does not sum to 1 (gap {gap:.2e})")

    def _dense_payloads(self, k):
        return dyadic_simplex(self.dim, k)

    def unit_probe(self):
        n = 2**self.probe_level
        return dyadic_simplex(self.dim, math.comb(n + self.dim - 1, self.dim - 1))

    def random_payloads(self, rng, m, spread=1.0):
        return np.asarray(rng.dirichlet(np.ones(self.dim), size=m), dtype=np.float64)


# ---------------------------------------------------------------------------
# probability simplex with the Fisher-Rao distance
# ---------------------------------------------------------------------------


class SimplexSpace(ProbabilityVectorSpace):
    r"""Closed probability simplex under the Fisher-Rao distance.

    .. math:: d(p, q) = 2 \arccos \sum_i \sqrt{p_i q_i}
                      = 4 \arcsin \tfrac{1}{2} \lVert \sqrt{p} - \sqrt{q} \rVert_2

    The square-root map sends the simplex isometrically (up to the factor 2)
    onto the nonnegative orthant of the unit sphere; geodesics are great
    circle arcs in those coordinates, which stay inside the orthant.  The
    arcsin form (chord length of the sphere arc) is used for evaluation: the
    arccos form destroys all precision for nearby points, while the identity
    2(1 - sum sqrt(pq)) = ||sqrt(p) - sqrt(q)||^2 holds exactly when both
    arguments sum to one.
    """

    has_epsilon_net = True
    probe_level = 5

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("simplex needs at least one weight")
        self.dim = int(dim)
        self.tag = f"simplex{self.dim}"

    def _distance_many(self, a, b):
        chord = _fold_rows(np.sqrt(np.maximum(a, 0.0)) - np.sqrt(np.maximum(b, 0.0)), norm=True)
        return 4.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))

    def _geodesic_many(self, a, b, t):
        u = np.sqrt(np.maximum(a, 0.0))
        v = np.sqrt(np.maximum(b, 0.0))
        th = np.arccos(np.clip((u * v).sum(axis=-1, keepdims=True), -1.0, 1.0))
        tt = t[..., None]
        # coincident endpoints divide by sin(0); those rows are replaced by a
        with np.errstate(invalid="ignore", divide="ignore"):
            g = (np.sin((1 - tt) * th) * u + np.sin(tt * th) * v) / np.sin(th)
            sq = g * g
            out = sq / sq.sum(axis=-1, keepdims=True)
        np.copyto(out, a, where=th < 1e-15)
        return out

    def probe_ball(self, center, radius, spacing):
        r"""Grid uniform in the hyperspherical angles of the sphere chart.

        With k = dim, the angles phi in [0, pi/2]^(k-1) give the orthant
        point u = (cos phi_1, sin phi_1 cos phi_2, ...,
        sin phi_1 ... sin phi_(k-1)), and the probe is p = u**2,
        renormalised.  Each angle takes n = ceil((pi/2) / h) + 1 equally
        spaced nodes, h = spacing / sqrt(k - 1), so nodes are at most h
        apart along every angle.

        Spacing proof.  On the unit sphere
        ds^2 = dphi_1^2 + sin^2 phi_1 dphi_2^2 + ... <= sum_i dphi_i^2,
        so the straight path in angle space from a point's angles to the
        nearest node's, at most h/2 in every angle, has great-circle length
        at most (h/2) sqrt(k - 1).  Fisher-Rao is twice the great-circle
        angle between sqrt(p) and sqrt(q), so every point of the simplex
        lies within h sqrt(k - 1) <= spacing of a node.  Unlike a grid in
        p itself, the chart has no sqrt(p) singularity at the faces.

        The probes are the nodes with d(center, node) <= R = radius +
        spacing: the nearest node of a ball point may lie just outside the
        ball.  Where phi_i = 0 the later angles do not move the point, so of
        those duplicate nodes only the first (all later angles 0) is kept.
        The order is row-major in the angles, phi_(k-1) fastest;
        farthest-first insertion in `epsilon_net` breaks ties by this order.

        Pruning.  The grid is grown one angle at a time, and only the nodes
        that can lie in the ball are built.  A prefix phi_1..phi_i fixes
        u_1..u_i and the norm s_i = sin phi_1 ... sin phi_i of the rest of
        u.  With v = sqrt(center), D_i = sum_(j<=i) (u_j - v_j)^2 and
        t_i = ||(v_(i+1), ..., v_k)||, every completion has
        ||u - v||^2 >= D_i + (s_i - t_i)^2 (the triangle inequality on the
        tail), while a node in the ball has chord
        ||u - v|| = 2 sin(d / 4) <= 2 sin(R / 4), read as 2 when R >= 2 pi,
        where nothing is pruned.  At the next angle the bound is
        D_i + |(s_i cos phi, s_i sin phi) - (v_(i+1), t_(i+1))|^2: a circle
        of radius s_i against a disc, which meet in one arc around the
        disc's polar angle, so each prefix expands over one interval of
        node indices (found by one arccos), a prefix with a 0 index over
        index 0 alone.  The squared chord bound gets the absolute slack
        PROBE_PRUNE_SLACK (1e-9).  Every term of the test is at most 4 and
        rounds by about 1e-15, as does a node's own sqrt(p) against its u,
        and the slack moves the arc's ends by at least 5e-10 radians, so no
        node that the final d <= R filter keeps is pruned.  (A slack on the
        chord itself would sink below that rounding in tiny balls.)  The
        kept nodes' u, p and d are formed by the same operations as over
        the whole grid, so the probes are those of the whole grid filtered,
        bit for bit and in the same order.

        Cap.  Each angle's candidate count, the integer sum of its prefixes'
        interval widths, is compared with NET_PROBE_CAP before that angle's
        arrays are built, and a count past it is refused: the cap counts
        the grid near the ball, not the whole orthant's.
        """
        angles = self.dim - 1
        if angles == 0:  # simplex1 is the single point [1]
            return np.ones((1, 1))
        n = _axis_nodes(self.tag, math.pi / 2, spacing / math.sqrt(angles))
        # node j of every angle is np.linspace(0, pi/2, n)[j]: j * step, and
        # exactly pi/2 at j = n - 1
        step = (math.pi / 2) / (n - 1)
        v = np.sqrt(np.maximum(center, 0.0))
        tails = np.sqrt(np.cumsum(np.square(v[::-1]))[::-1]).tolist() + [0.0]
        reach = radius + spacing
        bound = 4.0 * math.sin(min(reach, TWO_PI) / 4.0) ** 2 + PROBE_PRUNE_SLACK
        # per prefix: u_1..u_i, s_i, D_i, and whether some index was 0
        cols: list[Array] = []
        run, part, closed = np.ones(1), np.zeros(1), np.zeros(1, dtype=bool)
        for i in range(angles):
            # prefix with phi at angle i: s^2 + t^2 - 2 s t cos(phi - psi)
            # <= bound - D, for t = t_i and psi the polar angle of
            # (v_i, t_(i+1)), holds on |phi - psi| <= arccos(num / den)
            psi = math.atan2(tails[i + 1], v[i])
            num = run * run + tails[i] ** 2 - (bound - part)
            den = 2.0 * tails[i] * run
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                half = np.arccos(np.clip(num / den, -1.0, 1.0))
                lo = np.maximum(np.ceil((psi - half) / step), 0.0)
                hi = np.minimum(np.floor((psi + half) / step), n - 1.0)
            whole = num <= -den  # the whole circle, den = 0 included
            lo[whole], hi[whole] = 0.0, n - 1.0
            hi[num > den] = -1.0  # no node
            lo[closed], hi[closed] = 0.0, 0.0
            width = np.maximum(hi - lo + 1.0, 0.0)
            count = width.sum()  # integers, summed exactly up to 2**53
            if count > NET_PROBE_CAP:
                raise CapabilityError(
                    f"{self.tag}: probe grid would need {int(count)} nodes"
                    f" at angle {i + 1} of {angles}"
                )
            parent, rank = _expand(width.astype(np.intp))
            j = lo[parent].astype(np.intp) + rank
            phi = j * step
            phi[j == n - 1] = math.pi / 2
            cos, sin = np.cos(phi), np.sin(phi)
            run = run[parent]
            cols = [c[parent] for c in cols]
            cols.append(run * cos)
            run *= sin
            part = part[parent] + np.square(cols[-1] - v[i])
            closed = closed[parent] | (j == 0)
        u = np.stack(cols + [run], axis=1)
        grid = np.square(u, out=u)
        grid /= grid.sum(axis=1, keepdims=True)
        near = self.distance_many(grid, center[None, :])
        return grid[near <= reach]


# ---------------------------------------------------------------------------
# discrete distributions on a fixed 1-D grid, 1-Wasserstein distance
# ---------------------------------------------------------------------------


class HistogramSpace(ProbabilityVectorSpace):
    r"""Probability weights on a fixed sorted grid of real nodes.

    The 1-Wasserstein distance has the closed CDF form

    .. math:: W_1(p, q) = \sum_j |F_p(x_j) - F_q(x_j)| (x_{j+1} - x_j).

    Linear mixtures are constant-speed geodesics (the distance is induced
    by the Kantorovich-Rubinstein norm, which is linear in p - q).  No
    epsilon-net capability: the space models distributions on the line,
    whose closed balls are not compact, so the net request is refused
    rather than silently truncated.
    """

    has_epsilon_net = False
    probe_level = 4

    def __init__(self, grid: Array):
        grid = np.asarray(grid, dtype=np.float64).reshape(-1)
        if grid.size < 1:
            raise ValueError("histogram grid needs at least one node")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("histogram grid must be strictly increasing")
        self.grid = grid
        self._spacing = np.diff(grid).tolist()
        self.dim = grid.size
        self.tag = f"histogram{self.dim}"

    def _distance_many(self, a, b):
        if self.dim == 1:
            return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        # One running CDF gap per column, summed left to right, with the
        # pairs broadcast column by column.  Up to eight nodes these are the
        # bits of (|cumsum(a - b)|[:, :-1] * diff(grid)).sum(-1), since
        # numpy sums fewer than eight terms left to right (the fact
        # `_fold_rows` rests on, pinned by
        # tests/test_spaces.py::test_fold_rows_has_the_bits_of_numpy_reductions),
        # at under half its cost.
        gap = a[..., 0] - b[..., 0]
        out = np.abs(gap) * self._spacing[0]
        for j in range(1, self.dim - 1):
            gap += a[..., j] - b[..., j]
            out += np.abs(gap) * self._spacing[j]
        return out

    def _geodesic_many(self, a, b, t):
        return a + t[..., None] * (b - a)

    def descriptor(self):
        return {"space": self.tag, "dim": self.dim, "grid": self.grid.tolist()}


# ---------------------------------------------------------------------------
# circle with arc-length distance
# ---------------------------------------------------------------------------


class CircleSpace(MetricSpace):
    """Unit circle parameterized by an angle in [0, 2*pi), arc-length metric.

    Geodesics follow the shorter arc; an exact tie (antipodal endpoints)
    moves counterclockwise.  The dense sequence lists dyadic angles
    2*pi*j/2**l level by level: 0, pi, pi/2, 3*pi/2, pi/4, ...
    """

    has_epsilon_net = True

    def __init__(self):
        self.dim = 1
        self.tag = "circle"

    def _check_valid(self, flat):
        if flat.size and (flat.min() < 0.0 or flat.max() >= TWO_PI):
            raise InvalidPointError("circle angle must lie in [0, 2*pi)")

    def _distance_many(self, a, b):
        gap = np.abs(a[..., 0] - b[..., 0])
        return np.minimum(gap, TWO_PI - gap)

    def _geodesic_many(self, a, b, t):
        delta = math.pi - np.mod(math.pi - (b[..., 0] - a[..., 0]), TWO_PI)
        ang = np.mod(a[..., 0] + t * delta, TWO_PI)
        return ang[..., None]

    def _dense_payloads(self, k):
        out = [0.0]
        level = 1
        while len(out) < k:
            step = TWO_PI / 2**level
            out.extend(j * step for j in range(1, 2**level, 2))
            level += 1
        return np.array(out[:k])[:, None]

    def probe_ball(self, center, radius, spacing):
        c = float(center[0])
        span = min(radius, math.pi)
        m = _axis_nodes(self.tag, 2 * span, spacing)
        if m > NET_PROBE_CAP:
            raise CapabilityError(f"{self.tag}: probe grid would need {m} nodes")
        ang = np.mod(np.linspace(c - span, c + span, m), TWO_PI)
        return ang[:, None]

    def unit_probe(self):
        return np.linspace(0.0, TWO_PI, 64, endpoint=False)[:, None]

    def random_payloads(self, rng, m, spread=1.0):
        return rng.uniform(0.0, TWO_PI, size=(m, 1))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def make_space(name: str) -> MetricSpace:
    """Build a space from a compact name: euclidean2, spd3, simplex3,
    histogram8 (uniform grid on [0, 1]), circle."""
    name = name.strip().lower()
    if name == "circle":
        return CircleSpace()
    for prefix, cls in (("euclidean", EuclideanSpace), ("spd", SpdSpace), ("simplex", SimplexSpace)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return cls(int(name[len(prefix):]))
    if name.startswith("histogram"):
        k = int(name[len("histogram"):])
        return HistogramSpace(np.linspace(0.0, 1.0, k))
    raise ValueError(f"unknown space name {name!r}")


def space_from_descriptor(desc: dict) -> MetricSpace:
    tag = desc["space"]
    if not isinstance(tag, str):
        # the file readers turn TypeError, as they do KeyError and
        # ValueError, into DataError("... bad space descriptor ...")
        raise TypeError(f"space tag must be a string, not {type(tag).__name__}")
    if tag.startswith("histogram") and "grid" in desc:
        return HistogramSpace(np.asarray(desc["grid"], dtype=np.float64))
    return make_space(tag)
