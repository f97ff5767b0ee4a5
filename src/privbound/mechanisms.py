"""Disclosure-mechanism constructions and their evaluation.

A mechanism is a conditional kernel P(u | x, y). Composed mechanisms keep
one kernel per component; the released variable is the tuple of the
per-component releases, drawn independently of each other given their own
(x_i, y_i), so information quantities decompose additively across
components.

Core constructions
------------------

Interval refinement (``frl_construct``). For every x the unit interval
[0, 1) is partitioned into consecutive sub-intervals of lengths P(y|x) in
fixed y-order. U is the common refinement of all |X| partitions: one symbol
per cell between consecutive distinct endpoints, and

    P(u | x, y) = len(cell_u  intersect  interval_{x,y}) / P(y|x).

Realized through a uniform seed V on [0, 1): U is the cell containing V and
Y is the interval containing V under x's partition, which yields

    I(U;X) = 0,   H(Y|U,X) = 0,   |U| <= |X|(|Y|-1) + 1.

Randomized release (``efrl_construct``). On top of the refinement variable
a second coordinate W releases X itself with probability a = eps/H(X) and a
fresh constant symbol otherwise. U = (refinement, W) then satisfies

    I(X;U) = a H(X) = eps exactly,   H(Y|X,U) = 0,
    I(U;Y) >= H(Y|X) - H(X|Y) + eps,
    |U| <= (|X|(|Y|-1)+1) (|X|+1).

Composition. A budget split gives each component its refinement where its
share is 0 and the randomized release where it is positive. Its objective
needs only each I(Y_i;T_i), read off the partition (``refinement_profile``);
kernels are built only where a mechanism is released.

Index conventions
-----------------

Multi-component variables are flattened in C order: the first component is
the most significant digit, e.g. x_flat = ravel_multi_index((x_1,...,x_N)).
Pair alphabets (a, b) flatten as a * |B| + b.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import probcore
from .bounds import VARIANTS, Allocation, target
from .errors import (
    AlphabetMismatchError,
    SchemaError,
    ValidationError,
    is_number,
    want,
)
from .model import Component, Problem, ProblemStats, release_objective, validate
from .probcore import JointN

ENDPOINT_MERGE_TOL = 1e-12
KERNEL_SLICE_TOL = 1e-9


@dataclass(frozen=True)
class Kernel:
    """Conditional probabilities P(u | x, y), stored as (|X|, |Y|, |U|)."""

    table: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 3:
            raise ValidationError(f"Kernel.table must be 3-D (x, y, u), got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValidationError("Kernel.table contains non-finite entries")
        if np.any(t < -1e-12):
            raise ValidationError(f"Kernel.table contains negative entries (min={t.min()!r})")
        t = np.clip(t, 0.0, None)
        _normalize_slices(t)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def card_x(self) -> int:
        return self.table.shape[0]

    @property
    def card_y(self) -> int:
        return self.table.shape[1]

    @property
    def alphabet_u(self) -> int:
        return self.table.shape[2]


def _normalize_slices(t: np.ndarray) -> None:
    """Check that each (x, y) slice of a kernel table sums to 1 and, in place,
    renormalize only those off by more than 1e-12, so round-trips keep bits."""
    sums = t.sum(axis=2)
    dev = np.abs(sums - 1.0)
    if np.any(dev > KERNEL_SLICE_TOL):
        raise ValidationError(f"Kernel slices must sum to 1 (worst deviation {float(dev.max())})")
    off = dev > 1e-12
    if off.any():
        np.divide(t, sums[:, :, None], out=t, where=off[:, :, None])


CONSTRUCTION_KINDS = ("frl", "efrl", "identity", "constant", "refined")


@dataclass(frozen=True)
class ConstructionTag:
    """How a per-component kernel was built (and with which budget share)."""

    kind: str  # one of CONSTRUCTION_KINDS
    eps: float = 0.0


@dataclass(frozen=True)
class ComposedMechanism:
    """One kernel per component; releases are independent across components."""

    kernels: tuple[Kernel, ...]
    tags: tuple[ConstructionTag, ...]
    allocation: Allocation | None = None

    def __post_init__(self) -> None:
        if len(self.kernels) != len(self.tags):
            raise ValidationError("one construction tag per kernel is required")

    @property
    def cardinality(self) -> int:
        return math.prod(k.alphabet_u for k in self.kernels)


@dataclass(frozen=True)
class MechanismReport:
    """Evaluated leakage, utilities and constraint residuals."""

    leakage: float
    utilities: tuple[float, ...]
    objective: float
    h_y_given_xu: float
    cardinality: int
    per_component_leakage: tuple[float, ...] | None = None
    per_component_utility: tuple[float, ...] | None = None


# ---------------------------------------------------------------------------
# Interval-refinement construction
# ---------------------------------------------------------------------------


def _intervals(cond: np.ndarray, active_rows: np.ndarray | slice) -> tuple[np.ndarray, ...]:
    """(lo, hi, lows, highs) of a row-stochastic cond[a, y] = P(y | a): row a's
    interval y is [lo[a, y], hi[a, y]), and cell t of the common refinement
    of the rows ``active_rows`` is [lows[t], highs[t]), each endpoint kept
    only more than ENDPOINT_MERGE_TOL above the last. The one endpoint merge."""
    hi = np.cumsum(cond, axis=1)
    lo = np.concatenate([np.zeros((hi.shape[0], 1)), hi[:, :-1]], axis=1)
    pts = [0.0, 1.0, *hi[active_rows, :-1].ravel().tolist()]
    pts.sort()
    merged = [0.0]
    for v in pts[1:]:
        if v - merged[-1] > ENDPOINT_MERGE_TOL:
            merged.append(v)
    merged[-1] = 1.0  # snap: the final endpoint is 1 by construction
    return lo, hi, np.array(merged[:-1]), np.array(merged[1:])


def _interval_refinement(cond: np.ndarray, active_rows: np.ndarray | None = None) -> np.ndarray:
    """Common-refinement kernel for a row-stochastic conditional table.

    cond[a, y] = P(y | a). Rows flagged inactive contribute no endpoints
    (their slices are set to a point mass on the first cell; they carry no
    probability). Returns a (|A|, |Y|, |U|) kernel.
    """
    cond = np.asarray(cond, dtype=float)
    na, ny = cond.shape
    if active_rows is None:
        active_rows = np.ones(na, dtype=bool)
    lo_rows, cums, lows, highs = _intervals(cond, active_rows)
    probcore.check_size("refinement kernel", na * ny * lows.size)
    # one (y, u) overlap broadcast per row keeps temporaries to one row
    lengths = cums - lo_rows
    live = active_rows[:, None] & (lengths > 0.0)
    table = np.zeros((na, ny, lows.size))
    for a in np.flatnonzero(live.any(axis=1)):
        ys = live[a]
        overlap = np.minimum(cums[a, ys, None], highs) - np.maximum(lo_rows[a, ys, None], lows)
        table[a, ys] = np.clip(overlap, 0.0, None) / lengths[a, ys, None]
    # empty intervals and inactive rows carry no mass: a point mass on cell 0
    table[~live, 0] = 1.0
    return table


def frl_construct(c: Component) -> Kernel:
    """Build the interval-refinement release for one component.

    The output is independent of X, determines Y jointly with X, and has
    at most |X|(|Y|-1)+1 symbols.
    """
    return Kernel(_interval_refinement(c.cond_y_given_x()))


def _release(c: Component, table: np.ndarray, eps_i: float) -> np.ndarray:
    """``efrl_construct`` on a refinement table (|X|, |Y|, |T|) of ``c``:
    w = x with probability eps_i/H(X), else the constant symbol w = |X|."""
    eps_i = float(eps_i)
    if not math.isfinite(eps_i) or eps_i < 0.0:
        raise ValidationError(f"eps_i must be finite and >= 0, got {eps_i!r}")
    h_x = probcore.entropy(c.joint.marginal_rows())
    if eps_i > 0.0 and eps_i >= h_x:
        raise ValidationError(
            f"eps_i = {eps_i} is outside [0, H(X)) = [0, {h_x}) for component {c.name!r}"
        )
    alpha = eps_i / h_x if eps_i > 0.0 else 0.0
    nx, ny, m = table.shape
    probcore.check_size("randomized release", nx * ny * m * (nx + 1))
    w = np.zeros((nx, nx + 1))  # P(w | x)
    np.fill_diagonal(w, alpha)
    w[:, nx] = 1.0 - alpha
    return (table[..., None] * w[:, None, None, :]).reshape(nx, ny, -1)


def efrl_construct(c: Component, eps_i: float) -> Kernel:
    """The refinement release augmented with a randomized release of X,
    for 0 <= eps_i < H(X): it leaks exactly eps_i and still determines Y
    jointly with X. Symbols are pairs (refinement symbol, w) with w in X's
    alphabet plus one constant symbol, flattened as refinement * (|X|+1) + w."""
    return Kernel(_release(c, frl_construct(c).table, eps_i))


def identity_kernel(c: Component) -> Kernel:
    """U = Y: a relabeling release with alphabet |Y|."""
    t = np.zeros((c.card_x, c.card_y, c.card_y))
    for y in range(c.card_y):
        t[:, y, y] = 1.0
    return Kernel(t)


def _compose(p: Problem, refinements: tuple[Kernel, ...], alloc: Allocation | None) -> ComposedMechanism:
    """Each component's refinement where its share is 0 (every share, when
    ``alloc`` is None), its randomized release where the share is positive."""
    shares = alloc.eps_per_component if alloc is not None else (0.0,) * p.n_components
    if len(shares) != p.n_components:
        raise AlphabetMismatchError(f"allocation has {len(shares)} shares for {p.n_components} components")
    kernels = [Kernel(_release(c, k.table, e)) if e > 0.0 else k
               for c, k, e in zip(p.components, refinements, shares)]
    tags = [ConstructionTag("efrl", e) if e > 0.0 else ConstructionTag("frl") for e in shares]
    return ComposedMechanism(tuple(kernels), tuple(tags), alloc)


def compose_multiuser(p: Problem, alloc: Allocation) -> ComposedMechanism:
    """Per-component releases for a budget split: randomized release where
    the share is positive, plain refinement where it is zero."""
    return _compose(p, tuple(frl_construct(c) for c in p.components), alloc)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _component_joint(c: Component, k: Kernel) -> JointN:
    """Joint law of (X, Y, U) for one component."""
    if (k.card_x, k.card_y) != (c.card_x, c.card_y):
        raise AlphabetMismatchError(
            f"kernel is {k.card_x}x{k.card_y}, component {c.name!r} is "
            f"{c.card_x}x{c.card_y}"
        )
    t = c.joint.table[:, :, None] * k.table
    return JointN((c.card_x, c.card_y, k.alphabet_u), t)


def evaluate_composed(p: Problem, m: ComposedMechanism) -> MechanismReport:
    """Additive per-component evaluation (exact under independence)."""
    if len(m.kernels) != p.n_components:
        raise AlphabetMismatchError(
            f"mechanism has {len(m.kernels)} kernels for {p.n_components} components"
        )
    leaks, utils, resids = [], [], []
    for c, k in zip(p.components, m.kernels):
        j = _component_joint(c, k)
        leaks.append(probcore.mi_between(j, [0], [2]))
        utils.append(probcore.mi_between(j, [1], [2]))
        resids.append(max(0.0, probcore.joint_entropy(j) - probcore.marginal_entropy(j, [0, 2])))
    utilities, objective = _user_objective(p, utils)
    return MechanismReport(
        leakage=float(sum(leaks)),
        utilities=utilities,
        objective=objective,
        h_y_given_xu=float(sum(resids)),
        cardinality=m.cardinality,
        per_component_leakage=tuple(leaks),
        per_component_utility=tuple(utils),
    )


def _user_objective(p: Problem, utils: list) -> tuple[tuple, float]:
    """Per-user utilities sum_{i in demands} utils[i] (floats or arrays),
    and their weighted sum."""
    utilities = tuple(sum(utils[i] for i in u.demands) for u in p.users)
    return utilities, sum(u.weight * util for u, util in zip(p.users, utilities))


def refinement_profile(p: Problem) -> tuple[float, ...]:
    """I(Y_i;T_i) of each component's refinement T_i = ``frl_construct(c_i)``,
    read off its partition with no kernel built: P(y, t) = sum_x p(x)
    |cell_t intersect interval_{x,y}|, one y at a time over the cells its
    intervals meet, in O(|X||T|) memory checked against the size cap first.

    At share eps_i > 0, U_i = (T_i, W_i) reveals X_i, and with it Y_i given
    T_i, with probability eps_i/H(X_i), independently of (X_i, Y_i, T_i),
    else nothing. So I(Y_i;U_i) = I(Y_i;T_i) + (eps_i/H(X_i)) H(Y_i|T_i),
    H(Y_i|T_i) = H(Y_i) - I(Y_i;T_i): affine in the share.
    """
    profile = []
    for c in p.components:
        lo, hi, lows, highs = _intervals(c.cond_y_given_x(), slice(None))
        probcore.check_size("refinement profile", (c.card_x + c.card_y) * lows.size)
        px = c.joint.table.sum(axis=1)
        pyt = np.zeros((c.card_y, lows.size))
        spans = zip(np.searchsorted(highs, lo.min(axis=0), "right").tolist(),
                    np.searchsorted(lows, hi.max(axis=0)).tolist())
        for y, (a, b) in enumerate(spans):
            overlap = np.minimum(hi[:, y, None], highs[a:b]) - np.maximum(lo[:, y, None], lows[a:b])
            np.dot(px, np.clip(overlap, 0.0, None, out=overlap), out=pyt[y, a:b])
        profile.append(float(probcore._mi(pyt)[0]))
    return tuple(profile)


def canonical_objective(p: Problem, stats: ProblemStats, profile: tuple[float, ...] | None, eps):
    """Objective of the best canonical mechanism at ``eps``, a float or an
    array. Where eps >= sum_i I(X_i;Y_i) that is U = Y; elsewhere, read
    from ``refinement_profile`` (None if every eps is trivial),
    the best over ``VARIANTS`` of the composition whose ``target`` takes
    the share min(eps, cap). (A variant of slope -inf, which cannot
    allocate, has every H(X_i) = 0: its share and frl's are 0, and its
    objective is frl's, so it needs no skipping.)"""
    eps = np.asarray(eps, dtype=float)
    trivial = eps >= stats.total_mi
    best = np.full(eps.shape, -math.inf)
    for variant in () if trivial.all() else VARIANTS:
        t, _, cap = target(stats, variant)
        utils = list(profile)
        if cap > 0.0:
            i, s, share = utils[t], stats[t], np.minimum(eps, cap)
            utils[t] = np.where(share > 0.0, i + (share / s.hX) * (s.hY - i), i)
        objective = _user_objective(p, utils)[1]
        # the first of equal objectives is kept, as Python's max does
        best = np.where(objective > best, objective, best)
    if trivial.any():
        best = np.where(trivial, release_objective(p, stats), best)
    return best if best.ndim else float(best)


def flat_axes(p: Problem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The component alphabets that flatten into X and into Y, in component
    order: their products are |X| and |Y| of the flattened alphabets."""
    return tuple(c.card_x for c in p.components), tuple(c.card_y for c in p.components)


def flat_joint_xy(p: Problem) -> np.ndarray:
    """P(x, y) over the flattened product alphabets (C order)."""
    t = p.components[0].joint.table
    for c in p.components[1:]:
        t = np.kron(t, c.joint.table)
    return t


def monolithic_joint(p: Problem, k: Kernel) -> JointN:
    """Joint law over (x_1..x_N, y_1..y_N, u) for a full-joint kernel."""
    dims_x, dims_y = flat_axes(p)
    nx, ny = math.prod(dims_x), math.prod(dims_y)
    if (k.card_x, k.card_y) != (nx, ny):
        raise AlphabetMismatchError(
            f"kernel is {k.card_x}x{k.card_y}, flattened problem is {nx}x{ny}"
        )
    probcore.check_size("monolithic joint", nx * ny * k.alphabet_u)
    pxy = flat_joint_xy(p)
    table = (pxy[:, :, None] * k.table).reshape(dims_x + dims_y + (k.alphabet_u,))
    return JointN(dims_x + dims_y + (k.alphabet_u,), table)


def evaluate_monolithic(p: Problem, k: Kernel) -> MechanismReport:
    """Evaluate a kernel over the flattened joint via the full tensor."""
    return _evaluate_joint(p, monolithic_joint(p, k))


def _evaluate_joint(p: Problem, j: JointN) -> MechanismReport:
    """Evaluate the ``monolithic_joint`` of a full-joint kernel."""
    n = p.n_components
    x_axes = list(range(n))
    u_axis = [2 * n]
    leakage = probcore.mi_between(j, x_axes, u_axis)
    utilities = tuple(
        float(probcore.mi_between(j, [n + i for i in u.demands], u_axis)) for u in p.users
    )
    objective = float(sum(u.weight * util for u, util in zip(p.users, utilities)))
    h_xu = probcore.marginal_entropy(j, x_axes + u_axis)
    resid = max(0.0, probcore.joint_entropy(j) - h_xu)
    return MechanismReport(
        leakage=float(leakage),
        utilities=utilities,
        objective=objective,
        h_y_given_xu=float(resid),
        cardinality=j.axes[-1],
    )


def evaluate(p: Problem, m: ComposedMechanism | Kernel) -> MechanismReport:
    """Evaluate a composed or monolithic mechanism against a problem."""
    if isinstance(m, ComposedMechanism):
        return evaluate_composed(p, m)
    if isinstance(m, Kernel):
        return evaluate_monolithic(p, m)
    raise ValidationError(f"cannot evaluate object of type {type(m).__name__}")


def materialize_monolithic(p: Problem, m: ComposedMechanism) -> Kernel:
    """Flatten a composed mechanism to a single kernel over product alphabets."""
    nx, ny = map(math.prod, flat_axes(p))
    probcore.check_size("materialized kernel", nx * ny * m.cardinality)
    out = np.empty((nx, ny, m.cardinality))
    _compose_into(m, out)
    return Kernel(out)


def _compose_into(m: ComposedMechanism, out: np.ndarray) -> None:
    """Write the flattened kernel of ``m``, ((k_1 (x) k_2) (x) ...) (x) k_N
    checked and renormalized in place as ``Kernel`` does, into ``out[:, :,
    :|U|]`` of a C-ordered (|X|, |Y|, >= |U|) array, through a view in the
    product's (x_1, y_1, u_1, ..., x_N, y_N, u_N) axis order. Beside ``out``
    it allocates only the product of k_1..k_{N-1}, |X||Y| slice sums and
    numpy's iterator buffers (``np.getbufsize()`` entries per operand)."""
    tables = [k.table for k in m.kernels]
    flat = out[:, :, :m.cardinality]
    # only axes are split, so this is a view
    view = flat.reshape([t.shape[a] for a in range(3) for t in tables]).transpose(
        [a * len(tables) + i for i in range(len(tables)) for a in range(3)])
    t = 1.0  # the empty product: 1.0 * k_1 is k_1 bit for bit
    for k in tables[:-1]:
        t = np.multiply.outer(t, k)
    np.multiply.outer(t, tables[-1], out=view)
    _normalize_slices(flat)


# ---------------------------------------------------------------------------
# Decomposition transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarMechanism:
    """Per-component surrogate releases conditioned on X_i only.

    kernels[i][x_i, b] = P(B_i = b | X_i = x_i), where B_i ranges over the
    flattened tuples (x_1, ..., x_{i-1}, u) of the original release's joint
    law (C order).
    """

    kernels: tuple[np.ndarray, ...]
    alphabets: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionChecks:
    """Verified properties of the surrogate decomposition."""

    leakage_original: float
    leakage_bar: float
    markov_residual: float       # I(B; Y,U | X)
    independence_residual: float  # total correlation across (B_i, X_i, Y_i)


@dataclass(frozen=True)
class RefinementChecks:
    """Leakage preservation and per-user utility bound for the refined release."""

    leakage_original: float
    leakage_star: float
    user_utility_original: tuple[float, ...]
    user_utility_star: tuple[float, ...]
    user_slack: tuple[float, ...]  # Delta_j = sum of s1 over demanded components


def _bar_kernels(p: Problem, joint_xyu: JointN) -> BarMechanism:
    """Conditional laws P(x_1..x_{i-1}, u | x_i) from the true joint."""
    n = p.n_components
    u_axis = 2 * n
    p_xu = joint_xyu.marginal(list(range(n)) + [u_axis])  # axes (x_1..x_N, u)
    kernels = []
    alphabets = []
    for i in range(n):
        keep = list(range(i + 1)) + [n]  # x_1..x_i, u  (in p_xu's axis numbering)
        arr = p_xu.marginal(keep).table  # (nx_1..nx_i, nu)
        nx_i = arr.shape[i]
        # move x_i in front, flatten (x_1..x_{i-1}, u) in C order
        order = [i] + list(range(i)) + [arr.ndim - 1]
        mat = np.transpose(arr, order).reshape(nx_i, -1)
        px_i = mat.sum(axis=1, keepdims=True)
        kernels.append(mat / px_i)
        alphabets.append(mat.shape[1])
    return BarMechanism(kernels=tuple(kernels), alphabets=tuple(alphabets))


RUN_CELLS = 2**17  # cells of ``xyb`` that ``decompose_transform`` holds at a time


def _decompose_block(head: np.ndarray, last: np.ndarray, xyb_x: np.ndarray, xyu_x: np.ndarray,
                     ws: np.ndarray, terms: np.ndarray) -> float:
    """One x-block of the decomposition joint, a run of flattened-y rows (a
    chunk) at a time; returns its -sum p ln p.

    ``head`` (|Y|, |U| prod_{i<N} |B_i|) holds the block's cells before the
    last bar factor ``last`` (|B_N|). Each chunk of the block is formed in
    ``ws``, cleaned (cells below ``ZERO_FLOOR`` zeroed), the p ln p terms
    of its kept cells written into ``terms`` and summed there, and the
    chunk summed over u into ``xyb_x`` (|Y|, prod |B_i|) and over the b's
    into ``xyu_x`` (|Y|, |U|), all while it is in cache. The block's
    entropy is the ``math.fsum`` of its chunk sums, so a block of one chunk
    gives the bits of one sum over its terms.
    """
    ny, nb = xyb_x.shape
    rows = ws.size // (head.shape[1] * last.size)  # y-rows per chunk
    floor = probcore.ZERO_FLOOR
    sums = []
    for r in range(0, ny, rows):
        h = head[r:r + rows]
        chunk = ws[:h.size * last.size]
        np.multiply(h[..., None], last, out=chunk.reshape(h.shape + last.shape))
        lo = chunk.min()
        if lo < floor:
            np.copyto(chunk, 0.0, where=chunk < floor)
        done = probcore._put_terms(chunk, None if lo > floor else chunk > floor, terms, 0)
        sums.append(float(terms[:done].sum()))
        cells = chunk.reshape(h.shape[0], -1, nb)  # (rows, u, b's)
        cells.sum(axis=1, out=xyb_x[r:r + rows])
        cells.sum(axis=2, out=xyu_x[r:r + rows])
    return -math.fsum(sums)


def _run_span(axes_x: tuple[int, ...], block: int) -> tuple[int, int]:
    """(d, r) of ``decompose_transform``'s runs of ``xyb``: each run is the
    sub-tensor xyb[x_1, .., x_{d-1}, s:s+r] (r values of x_d, or fewer in
    the last run along it, and every value of the x-axes after it), in C
    order a run of consecutive x-blocks of ``block`` cells each. d is the
    first x-axis whose later axes' blocks fit in ``RUN_CELLS``, or the last
    one, and r as many of its values as fit too, at least one."""
    d = 0
    while d < len(axes_x) - 1 and math.prod(axes_x[d + 1:]) * block > RUN_CELLS:
        d += 1
    return d, max(1, min(axes_x[d], RUN_CELLS // (math.prod(axes_x[d + 1:]) * block)))


def decompose_transform(p: Problem, m: Kernel) -> tuple[BarMechanism, DecompositionChecks]:
    """Replace a full-joint release by per-component surrogates.

    The surrogate B_i is conditioned on X_i alone and reproduces the law of
    (X_1..X_{i-1}, U) given X_i. Verified and reported: the surrogates leak
    exactly as much as the original, B - X - (Y, U) is a Markov chain, and
    the triples (B_i, X_i, Y_i) are mutually independent across components.

    The decomposition joint over (x's, y's, u, b's) is never held whole,
    nor is one x-block of it: each block j(x, y's, u) K_1(x_1, .) ...
    K_N(x_N, .) is formed a run of flattened-y rows at a time, about
    ``GATHER_CHUNK`` cells, in one workspace (``_decompose_block``). Each
    chunk gives the sum of its kept cells' p ln p terms and its slices of
    ``xyu`` (the b's summed out), held whole, and of ``xyb`` (u summed
    out), held a run of consecutive x-blocks at a time (``_run_span``).
    Each run gives the sum of its p ln p terms, a ``GATHER_CHUNK`` at a
    time, its rows of the (x, b) marginal, read by I(X;B) and H(X,B), and
    its share of each (x_i, y_i, b_i) marginal. The entropies of the joint
    and of ``xyb`` are renormalized by the total mass at the end.

    Memory, beside the monolithic joint and ``xyu`` (|X||Y||U| entries
    each) and the bar kernels: the run, at most max(RUN_CELLS, |Y| prod
    |B_i|) entries; the (x, b) marginal, |X| prod |B_i|; the workspace and
    the terms array, at most max(GATHER_CHUNK, |U| prod |B_i|) each; and a
    block's cells before its last bar factor, |Y||U| prod_{i<N} |B_i|. The
    size cap still counts the whole joint, as its cells are all computed.
    """
    return _decompose(p, *_joint_and_bar(p, m))


def _joint_and_bar(p: Problem, m: Kernel) -> tuple[JointN, BarMechanism]:
    """The monolithic joint of a full-joint kernel and its bar kernels,
    which both transforms read."""
    j = monolithic_joint(p, m)
    return j, _bar_kernels(p, j)


def _decompose(p: Problem, j: JointN, bar: BarMechanism) -> tuple[BarMechanism, DecompositionChecks]:
    """``decompose_transform`` of the kernel with joint ``j`` and bar kernels ``bar``."""
    n = p.n_components
    probcore.check_size("decomposition joint", j.table.size * math.prod(bar.alphabets))

    axes_x, axes_y = j.axes[:n], j.axes[n:2 * n]
    ny, nu, nb = math.prod(axes_y), j.axes[-1], math.prod(bar.alphabets)
    row = nu * nb  # cells of one y-row of a block
    ws = np.empty(min(ny, max(1, probcore.GATHER_CHUNK // row)) * row)
    d, r = _run_span(axes_x, ny * nb)
    later = axes_x[d + 1:]
    per_value = math.prod(later) * ny * nb  # cells of a run per value of x_d
    buf = np.empty(r * per_value)
    terms = np.empty(max(ws.size, min(probcore.GATHER_CHUNK, buf.size)))
    xyu = np.empty(j.axes)
    xb = np.empty((math.prod(axes_x), nb))
    parts = [np.zeros((axes_x[i], axes_y[i], bar.alphabets[i])) for i in range(n)]
    # the axes of a run that each part sums out: all but x_i (where i >= d), y_i and b_i
    drop = [tuple(a for a in range(3 * n - d) if a not in (i - d, n - d + i, 2 * n - d + i))
            for i in range(n)]
    h_raw = h_xyb = 0.0
    at = 0  # x-blocks before the run
    for pre in np.ndindex(*axes_x[:d]):
        for s in range(0, axes_x[d], r):
            k = min(r, axes_x[d] - s)
            run = buf[:k * per_value].reshape((k,) + later + axes_y + bar.alphabets)
            blocks = run.reshape(-1, ny, nb)
            for t, rest in enumerate(np.ndindex(k, *later)):
                xs = pre + (s + rest[0],) + rest[1:]
                head = j.table[xs]
                for mat, xi in zip(bar.kernels[:-1], xs):
                    head = head[..., None] * mat[xi]
                h_raw += _decompose_block(head.reshape(ny, -1), bar.kernels[-1][xs[-1]],
                                          blocks[t], xyu[xs].reshape(ny, nu), ws, terms)
            cells = run.reshape(-1)
            h_xyb += math.fsum([probcore._entropy_raw(cells[i:i + probcore.GATHER_CHUNK], terms)
                                for i in range(0, cells.size, probcore.GATHER_CHUNK)])
            blocks.sum(axis=1, out=xb[at:at + len(blocks)])
            at += len(blocks)
            for i, part in enumerate(parts):
                part[pre[i] if i < d else slice(s, s + k) if i == d else ...] += run.sum(axis=drop[i])
    del head, ws, buf, run, blocks, cells
    # the cells were cleaned as JointN would clean the joint, so its total
    # mass is xyu's, checked (with JointN's own message) as xyu becomes a
    # JointN
    total = float(xyu.sum())
    xyu = JointN(j.axes, xyu)
    # H of the renormalized joint p / T: -sum (p/T) ln (p/T) = h_raw / T + ln T
    h_all = h_raw / total + math.log(total)
    xb /= total
    x_axes = list(range(n))
    # I(B; Y,U | X) = H(X,B) + H(X,Y,U) - H(X,Y,U,B) - H(X)
    markov = (probcore._entropy_raw(xb) + probcore.joint_entropy(xyu)
              - h_all - probcore.marginal_entropy(xyu, x_axes))
    # total correlation across the N triples (x_i, y_i, b_i)
    h_parts = 0.0
    for part in parts:
        part /= total
        h_parts += probcore._entropy_raw(part)
    checks = DecompositionChecks(
        leakage_original=float(probcore.mi_between(xyu, x_axes, [2 * n])),
        leakage_bar=float(probcore._mi(xb)[0]),
        markov_residual=float(max(0.0, markov)),
        independence_residual=float(max(0.0, h_parts - h_xyb / total - math.log(total))),
    )
    return bar, checks


def refine_transform(
    p: Problem, m: Kernel, stats: ProblemStats | None = None
) -> tuple[ComposedMechanism, RefinementChecks]:
    """Turn a full-joint release into a product-form one with equal leakage.

    Each component gets U*_i = (refinement of ((B_i, X_i), Y_i), B_i) where
    B_i is the surrogate from the decomposition. The refined release keeps
    the original leakage exactly, and each user's original utility exceeds
    the refined one by at most the summed per-component slack
    Delta_j = sum_{i in demands_j} s1_i.
    """
    if stats is None:
        stats = validate(p)
    return _refine(p, *_joint_and_bar(p, m), stats)


def _refine(p: Problem, j: JointN, bar: BarMechanism,
            stats: ProblemStats) -> tuple[ComposedMechanism, RefinementChecks]:
    """``refine_transform`` of the kernel with joint ``j`` and bar kernels ``bar``."""
    kernels = []
    for i, c in enumerate(p.components):
        b_mat = bar.kernels[i]  # (nx, mb)
        nx, ny, mb = c.card_x, c.card_y, b_mat.shape[1]
        # joint of the augmented pair A = (b, x) against y
        a_joint = (b_mat.T[:, :, None] * c.joint.table[None, :, :]).reshape(mb * nx, ny)
        a_mass = a_joint.sum(axis=1)
        active = a_mass > 0.0
        cond = np.zeros_like(a_joint)
        cond[active] = a_joint[active] / a_mass[active, None]
        cond[~active, 0] = 1.0
        f = _interval_refinement(cond, active_rows=active)  # (mb*nx, ny, mt)
        mt = f.shape[2]
        f4 = f.reshape(mb, nx, ny, mt)
        # P(u* = (t, b) | x, y) = P(b|x) * P(t | (b,x), y), u* = t*mb + b
        star = np.einsum("bx,bxyt->xytb", b_mat.T, f4).reshape(nx, ny, mt * mb)
        kernels.append(Kernel(star))

    mech = ComposedMechanism(tuple(kernels), tuple(ConstructionTag("refined") for _ in kernels))
    report = _evaluate_joint(p, j)
    refined = evaluate_composed(p, mech)
    slack = tuple(float(sum(stats[i].s1 for i in u.demands)) for u in p.users)
    checks = RefinementChecks(
        leakage_original=report.leakage,
        leakage_star=refined.leakage,
        user_utility_original=report.utilities,
        user_utility_star=refined.utilities,
        user_slack=slack,
    )
    return mech, checks


def _transform_checks(p: Problem, m: Kernel) -> tuple[DecompositionChecks, RefinementChecks]:
    """The checks of ``decompose_transform`` and ``refine_transform`` on one
    kernel, both read from one monolithic joint and one set of bar kernels."""
    j, bar = _joint_and_bar(p, m)
    return _decompose(p, j, bar)[1], _refine(p, j, bar, validate(p))[1]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

MECHANISM_SCHEMA = "privbound/1-mechanism"


def mechanism_to_dict(p: Problem, m: ComposedMechanism) -> dict:
    """JSON-ready document: alphabets, kernels row-major over (x, y), tags."""
    comps = []
    for c, k, tag in zip(p.components, m.kernels, m.tags):
        rows = k.table.reshape(k.card_x * k.card_y, k.alphabet_u)
        comps.append(
            {
                "name": c.name,
                "card_x": k.card_x,
                "card_y": k.card_y,
                "card_u": k.alphabet_u,
                "construction": tag.kind,
                "epsilon": tag.eps,
                "kernel": [[float(v) for v in row] for row in rows],
            }
        )
    doc: dict = {"schema": MECHANISM_SCHEMA, "components": comps}
    if m.allocation is not None:
        a = m.allocation
        doc["allocation"] = {**asdict(a), "eps_per_component": list(a.eps_per_component)}
    return doc


def mechanism_from_dict(doc: dict, p: Problem) -> ComposedMechanism:
    """Parse a serialized mechanism and check it against a problem.

    A malformed document raises SchemaError; a well-formed one whose
    alphabets do not fit the problem raises AlphabetMismatchError."""
    if not isinstance(doc, dict):
        raise SchemaError("mechanism file: top level must be a JSON object")
    if doc.get("schema") != MECHANISM_SCHEMA:
        raise SchemaError(
            f"mechanism file: schema must be {MECHANISM_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    comps = want(doc, "components", list, "mechanism file")
    if len(comps) != p.n_components:
        raise AlphabetMismatchError(
            f"mechanism has {len(comps)} components, problem has {p.n_components}"
        )
    kernels = []
    tags = []
    for idx, (c, entry) in enumerate(zip(p.components, comps)):
        where = f"components[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object")
        nx, ny, nu = (want(entry, key, int, where) for key in ("card_x", "card_y", "card_u"))
        rows = want(entry, "kernel", list, where)
        if not all(isinstance(r, list) and all(map(is_number, r)) for r in rows):
            raise SchemaError(f"{where}.kernel: expected a list of rows of numbers")
        kind = want(entry, "construction", str, where, "frl")
        if kind not in CONSTRUCTION_KINDS:
            raise SchemaError(
                f"{where}.construction: must be one of {list(CONSTRUCTION_KINDS)}, got {kind!r}"
            )
        eps = want(entry, "epsilon", float, where, 0.0)
        if not math.isfinite(eps) or eps < 0.0:
            raise SchemaError(f"{where}.epsilon: expected a finite number >= 0")
        if (nx, ny) != (c.card_x, c.card_y):
            raise AlphabetMismatchError(
                f"component {c.name!r}: mechanism is {nx}x{ny}, problem is "
                f"{c.card_x}x{c.card_y}"
            )
        if len(rows) != nx * ny or any(len(r) != nu for r in rows):
            raise ValidationError(
                f"component {c.name!r}: kernel must have {nx * ny} rows of {nu} entries"
            )
        kernels.append(Kernel(np.asarray(rows, dtype=float).reshape(nx, ny, nu)))
        tags.append(ConstructionTag(kind, eps))
    alloc = None
    if "allocation" in doc:
        a = want(doc, "allocation", dict, "mechanism file")
        shares = want(a, "eps_per_component", list, "allocation")
        if not all(map(is_number, shares)):
            raise SchemaError("allocation.eps_per_component: expected a list of numbers")
        variant = want(a, "variant", str, "allocation", "frl")
        if variant not in VARIANTS:
            raise SchemaError(f"allocation.variant: must be one of {list(VARIANTS)}, got {variant!r}")
        target = want(a, "target", int, "allocation", 0)
        if len(shares) != p.n_components or not 0 <= target < p.n_components:
            raise AlphabetMismatchError(
                f"allocation has {len(shares)} shares and target {target}, "
                f"problem has {p.n_components} components"
            )
        alloc = Allocation(
            eps_per_component=tuple(float(v) for v in shares),
            variant=variant,
            target=target,
            overflow=want(a, "overflow", float, "allocation", 0.0),
        )
    return ComposedMechanism(kernels=tuple(kernels), tags=tuple(tags), allocation=alloc)
