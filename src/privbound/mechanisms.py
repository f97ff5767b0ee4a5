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

Index conventions
-----------------

Multi-component variables are flattened in C order: the first component is
the most significant digit, e.g. x_flat = ravel_multi_index((x_1,...,x_N)).
Pair alphabets (a, b) flatten as a * |B| + b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import probcore
from .bounds import Allocation
from .errors import (
    AlphabetMismatchError,
    SchemaError,
    SizeCapError,
    ValidationError,
    is_number,
    want,
)
from .model import Component, Problem, ProblemStats, validate
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
        sums = t.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > KERNEL_SLICE_TOL):
            worst = float(np.abs(sums - 1.0).max())
            raise ValidationError(f"Kernel slices must sum to 1 (worst deviation {worst})")
        # renormalize only material deviations, so serialization round-trips
        # reproduce the stored values bit for bit
        off = np.abs(sums - 1.0) > 1e-12
        if off.any():
            t = t.copy()
            t[off] = t[off] / sums[off][:, None]
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


@dataclass(frozen=True)
class ConstructionTag:
    """How a per-component kernel was built (and with which budget share)."""

    kind: str  # frl | efrl | identity | constant | refined
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
        return int(np.prod([k.alphabet_u for k in self.kernels]))


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
    cums = np.cumsum(cond, axis=1)

    pts = [0.0, 1.0]
    for a in range(na):
        if active_rows[a]:
            pts.extend(float(v) for v in cums[a, :-1])
    pts.sort()
    merged = [0.0]
    for v in pts[1:]:
        if v - merged[-1] > ENDPOINT_MERGE_TOL:
            merged.append(v)
    merged[-1] = 1.0  # snap: the final endpoint is 1 by construction
    cells = np.array(merged)
    lows, highs = cells[:-1], cells[1:]
    nu = lows.size
    cap = probcore.size_cap()
    if na * ny * nu > cap:
        raise SizeCapError(f"refinement kernel would have {na * ny * nu} entries (cap {cap})")

    table = np.zeros((na, ny, nu))
    for a in range(na):
        lo = 0.0
        for y in range(ny):
            hi = float(cums[a, y])
            length = hi - lo
            if length <= 0.0 or not active_rows[a]:
                table[a, y, 0] = 1.0
            else:
                overlap = np.minimum(hi, highs) - np.maximum(lo, lows)
                table[a, y, :] = np.clip(overlap, 0.0, None) / length
            lo = hi
    return table


def frl_construct(c: Component) -> Kernel:
    """Build the interval-refinement release for one component.

    The output is independent of X, determines Y jointly with X, and has
    at most |X|(|Y|-1)+1 symbols.
    """
    return Kernel(_interval_refinement(c.cond_y_given_x()))


def efrl_construct(c: Component, eps_i: float) -> Kernel:
    """Refinement release augmented with a randomized release of X.

    Requires 0 <= eps_i < H(X) (so the mixing weight a = eps_i/H(X) stays
    below 1) and H(X) > 0 whenever eps_i > 0. The output leaks exactly
    eps_i and still determines Y jointly with X. Symbols are pairs
    (refinement symbol, w) with w in X's alphabet plus one constant symbol,
    flattened as refinement * (|X|+1) + w.
    """
    eps_i = float(eps_i)
    if not math.isfinite(eps_i) or eps_i < 0.0:
        raise ValidationError(f"eps_i must be finite and >= 0, got {eps_i!r}")
    h_x = probcore.entropy(c.joint.marginal_rows())
    if eps_i > 0.0 and eps_i >= h_x:
        raise ValidationError(
            f"eps_i = {eps_i} is outside [0, H(X)) = [0, {h_x}) for component {c.name!r}"
        )
    alpha = eps_i / h_x if eps_i > 0.0 else 0.0

    base = frl_construct(c).table  # (nx, ny, m)
    nx, ny, m = base.shape
    nw = nx + 1  # X's alphabet plus the constant symbol
    table = np.zeros((nx, ny, m * nw))
    for x in range(nx):
        w_probs = np.zeros(nw)
        w_probs[x] = alpha
        w_probs[nx] = 1.0 - alpha
        table[x] = (base[x][:, :, None] * w_probs[None, None, :]).reshape(ny, m * nw)
    return Kernel(table)


def identity_kernel(c: Component) -> Kernel:
    """U = Y: a relabeling release with alphabet |Y|."""
    t = np.zeros((c.card_x, c.card_y, c.card_y))
    for y in range(c.card_y):
        t[:, y, y] = 1.0
    return Kernel(t)


def constant_kernel(c: Component) -> Kernel:
    """U constant: releases nothing."""
    return Kernel(np.ones((c.card_x, c.card_y, 1)))


def identity_mechanism(p: Problem) -> ComposedMechanism:
    return ComposedMechanism(
        kernels=tuple(identity_kernel(c) for c in p.components),
        tags=tuple(ConstructionTag("identity") for _ in p.components),
    )


def constant_mechanism(p: Problem) -> ComposedMechanism:
    return ComposedMechanism(
        kernels=tuple(constant_kernel(c) for c in p.components),
        tags=tuple(ConstructionTag("constant") for _ in p.components),
    )


def compose_multiuser(p: Problem, alloc: Allocation) -> ComposedMechanism:
    """Per-component releases for a budget split: randomized release where
    the share is positive, plain refinement where it is zero."""
    if len(alloc.eps_per_component) != p.n_components:
        raise AlphabetMismatchError(
            f"allocation has {len(alloc.eps_per_component)} shares for "
            f"{p.n_components} components"
        )
    kernels = []
    tags = []
    for c, eps_i in zip(p.components, alloc.eps_per_component):
        if eps_i > 0.0:
            kernels.append(efrl_construct(c, eps_i))
            tags.append(ConstructionTag("efrl", eps_i))
        else:
            kernels.append(frl_construct(c))
            tags.append(ConstructionTag("frl", 0.0))
    return ComposedMechanism(kernels=tuple(kernels), tags=tuple(tags), allocation=alloc)


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
    utilities = tuple(float(sum(utils[i] for i in u.demands)) for u in p.users)
    objective = float(sum(u.weight * util for u, util in zip(p.users, utilities)))
    return MechanismReport(
        leakage=float(sum(leaks)),
        utilities=utilities,
        objective=objective,
        h_y_given_xu=float(sum(resids)),
        cardinality=m.cardinality,
        per_component_leakage=tuple(leaks),
        per_component_utility=tuple(utils),
    )


def flat_joint_xy(p: Problem) -> np.ndarray:
    """P(x, y) over the flattened product alphabets (C order)."""
    t = p.components[0].joint.table
    for c in p.components[1:]:
        t = np.kron(t, c.joint.table)
    return t


def monolithic_joint(p: Problem, k: Kernel) -> JointN:
    """Joint law over (x_1..x_N, y_1..y_N, u) for a full-joint kernel."""
    dims_x = tuple(c.card_x for c in p.components)
    dims_y = tuple(c.card_y for c in p.components)
    nx, ny = int(np.prod(dims_x)), int(np.prod(dims_y))
    if (k.card_x, k.card_y) != (nx, ny):
        raise AlphabetMismatchError(
            f"kernel is {k.card_x}x{k.card_y}, flattened problem is {nx}x{ny}"
        )
    total = nx * ny * k.alphabet_u
    cap = probcore.size_cap()
    if total > cap:
        raise SizeCapError(f"monolithic joint would have {total} entries (cap {cap})")
    pxy = flat_joint_xy(p)
    table = (pxy[:, :, None] * k.table).reshape(dims_x + dims_y + (k.alphabet_u,))
    return JointN(dims_x + dims_y + (k.alphabet_u,), table)


def evaluate_monolithic(p: Problem, k: Kernel) -> MechanismReport:
    """Evaluate a kernel over the flattened joint via the full tensor."""
    n = p.n_components
    j = monolithic_joint(p, k)
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
        cardinality=k.alphabet_u,
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
    dims_x = tuple(c.card_x for c in p.components)
    dims_y = tuple(c.card_y for c in p.components)
    dims_u = tuple(k.alphabet_u for k in m.kernels)
    total = int(np.prod(dims_x)) * int(np.prod(dims_y)) * int(np.prod(dims_u))
    cap = probcore.size_cap()
    if total > cap:
        raise SizeCapError(f"materialized kernel would have {total} entries (cap {cap})")
    t = m.kernels[0].table
    for k in m.kernels[1:]:
        t = np.multiply.outer(t, k.table)
    # axes currently (x1,y1,u1,...,xN,yN,uN); regroup to (x..., y..., u...)
    n = p.n_components
    perm = [3 * i for i in range(n)] + [3 * i + 1 for i in range(n)] + [3 * i + 2 for i in range(n)]
    t = np.transpose(t, perm).reshape(
        int(np.prod(dims_x)), int(np.prod(dims_y)), int(np.prod(dims_u))
    )
    return Kernel(t)


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


def _joint_with_bars(p: Problem, joint_xyu: JointN, bar: BarMechanism) -> JointN:
    """Joint over (x's, y's, u, b_1..b_N): bars drawn independently given x_i."""
    n = p.n_components
    t = joint_xyu.table
    axes = list(joint_xyu.axes)
    total = t.size * int(np.prod(bar.alphabets))
    cap = probcore.size_cap()
    if total > cap:
        raise SizeCapError(f"decomposition joint would have {total} entries (cap {cap})")
    for i, mat in enumerate(bar.kernels):
        shape = [1] * t.ndim + [mat.shape[1]]
        shape[i] = mat.shape[0]
        t = t[..., None] * mat.reshape(shape)
        axes.append(mat.shape[1])
    return JointN(tuple(axes), t)


def decompose_transform(p: Problem, m: Kernel) -> tuple[BarMechanism, DecompositionChecks]:
    """Replace a full-joint release by per-component surrogates.

    The surrogate B_i is conditioned on X_i alone and reproduces the law of
    (X_1..X_{i-1}, U) given X_i. Verified and reported: the surrogates leak
    exactly as much as the original, B - X - (Y, U) is a Markov chain, and
    the triples (B_i, X_i, Y_i) are mutually independent across components.
    """
    n = p.n_components
    j = monolithic_joint(p, m)
    bar = _bar_kernels(p, j)
    big = _joint_with_bars(p, j, bar)

    x_axes = list(range(n))
    y_axes = list(range(n, 2 * n))
    u_axis = 2 * n
    b_axes = list(range(2 * n + 1, 2 * n + 1 + n))

    # every check reads two sums over the decomposition joint: one over u,
    # one over the b axes; in ``xyb`` the b axes become 2n..3n-1
    h_all = probcore.joint_entropy(big)
    xyb = big.marginal(x_axes + y_axes + b_axes)
    xyu = big.marginal(x_axes + y_axes + [u_axis])
    b_in_xyb = [a - 1 for a in b_axes]

    leak_u = probcore.mi_between(xyu, x_axes, [u_axis])
    leak_b = probcore.mi_between(xyb, x_axes, b_in_xyb)
    # I(B; Y,U | X) = H(X,B) + H(X,Y,U) - H(X,Y,U,B) - H(X)
    markov = (probcore.marginal_entropy(xyb, x_axes + b_in_xyb) + probcore.joint_entropy(xyu)
              - h_all - probcore.marginal_entropy(xyu, x_axes))
    # total correlation across the N triples (x_i, y_i, b_i)
    h_parts = sum(probcore.marginal_entropy(xyb, [i, n + i, 2 * n + i]) for i in range(n))
    checks = DecompositionChecks(
        leakage_original=float(leak_u),
        leakage_bar=float(leak_b),
        markov_residual=float(max(0.0, markov)),
        independence_residual=float(max(0.0, h_parts - probcore.joint_entropy(xyb))),
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
    n = p.n_components
    j = monolithic_joint(p, m)
    bar = _bar_kernels(p, j)

    kernels = []
    tags = []
    util_star = []
    leak_star = 0.0
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
        k_star = Kernel(star)
        kernels.append(k_star)
        tags.append(ConstructionTag("refined"))
        cj = _component_joint(c, k_star)
        leak_star += probcore.mi_between(cj, [0], [2])
        util_star.append(probcore.mi_between(cj, [1], [2]))

    report = evaluate_monolithic(p, m)
    star_utilities = tuple(
        float(sum(util_star[i] for i in u.demands)) for u in p.users
    )
    slack = tuple(float(sum(stats[i].s1 for i in u.demands)) for u in p.users)
    checks = RefinementChecks(
        leakage_original=report.leakage,
        leakage_star=float(leak_star),
        user_utility_original=report.utilities,
        user_utility_star=star_utilities,
        user_slack=slack,
    )
    mech = ComposedMechanism(kernels=tuple(kernels), tags=tuple(tags))
    return mech, checks


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
        doc["allocation"] = {
            "eps_per_component": list(m.allocation.eps_per_component),
            "variant": m.allocation.variant,
            "target": m.allocation.target,
            "overflow": m.allocation.overflow,
        }
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
        eps = want(entry, "epsilon", float, where, 0.0)
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
        alloc = Allocation(
            eps_per_component=tuple(float(v) for v in shares),
            variant=want(a, "variant", str, "allocation", "frl"),
            target=want(a, "target", int, "allocation", 0),
            overflow=want(a, "overflow", float, "allocation", 0.0),
        )
    return ComposedMechanism(kernels=tuple(kernels), tags=tuple(tags), allocation=alloc)
