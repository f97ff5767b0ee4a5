"""Brute-force search for good feasible mechanisms on tiny problems.

The search maximizes the weighted objective sum_j lambda_j I(C_j;U) over
full-joint kernels P(u | x, y) subject to I(X;U) <= eps. It is a seeded
random-restart ascent over the kernel columns (each (x, y) column lives on
the |U|-simplex): candidate steps move columns toward vertex directions
picked by the objective's column gradient, plus occasional single-column
vertex jumps; infeasible candidates are repaired by mixing toward the
constant kernel, with the mixing weight found by safeguarded Newton steps on
the leakage of P(x,u) alone (``leakage_project``). Everything is driven by
numpy generators seeded from (seed, restart index), so results are
reproducible bit for bit.

The returned value is an achieved objective: a certified lower estimate of
the true optimum, never the optimum itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import mechanisms, probcore
from .errors import PrivboundError, SizeCapError, ValidationError
from .mechanisms import ComposedMechanism, Kernel
from .model import Problem, ProblemStats, trivial_optimum, validate

LEAKAGE_SLACK = 1e-9      # feasibility tolerance on I(X;U) <= eps
PROJECT_BAND = 1e-9       # leakage_project lands in [eps - band, eps]
SEARCH_SLACK = 1e-6       # allowance for search noise in sandwich checks
_TINY = 1e-300


@dataclass(frozen=True)
class OracleConfig:
    """Search knobs. ``card_u`` defaults to |X|(|Y|-1)+2 over the flattened
    alphabets, capped at 16."""

    card_u: int | None = None
    restarts: int = 6
    iters: int = 48
    seed: int = 0
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.card_u is not None and self.card_u < 1:
            raise ValidationError(f"card_u must be >= 1, got {self.card_u}")
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.iters < 1:
            raise ValidationError(f"iters must be >= 1, got {self.iters}")


@dataclass(frozen=True)
class OracleResult:
    """Best feasible mechanism found, with its per-restart trace."""

    best_objective: float
    best_kernel: Kernel
    leakage_at_best: float
    trace: tuple[float, ...]
    projections: int = 0      # infeasible candidates repaired
    leakage_evals: int = 0    # I(X;U) evaluations spent on those repairs


@dataclass(frozen=True)
class SandwichReport:
    """The four sandwich numbers and the comparisons between them."""

    lower: float
    mech_objective: float
    oracle_best: float
    upper: float
    lower_ok: bool
    middle_ok: bool
    upper_ok: bool
    trivial: bool = False
    exact: float | None = None

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.middle_ok and self.upper_ok


def _mi_terms(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mutual information of a 2-D joint mass matrix, in nats, with the
    logarithms it used: ln m and ln of the column sums. Entries at or below
    ``ZERO_FLOOR`` take ln := 0, so they drop out of every sum."""
    floor = probcore.ZERO_FLOOR
    row = m.sum(axis=1)
    col = m.sum(axis=0)
    ln_m = np.log(np.where(m > floor, m, 1.0))
    ln_row = np.log(np.where(row > floor, row, 1.0))
    ln_col = np.log(np.where(col > floor, col, 1.0))
    mi = float(np.vdot(m, ln_m) - row @ ln_row - col @ ln_col)
    return max(0.0, mi), ln_m, ln_col


def _mi_from_joint_mat(m: np.ndarray) -> float:
    """Mutual information of a 2-D joint mass matrix, in nats."""
    return _mi_terms(m)[0]


class _Evaluator:
    """Precomputed problem geometry plus fast marginal/objective math.

    All candidate bookkeeping happens on small marginal matrices:
    P(x, u), and P(y_S, u) per user. Mixing toward the constant kernel is
    linear in those marginals, so feasibility repair never re-touches the
    full kernel tensor until a candidate is accepted.
    """

    def __init__(self, p: Problem, card_u: int):
        self.p = p
        self.card_u = card_u
        self.dims_x = tuple(c.card_x for c in p.components)
        self.dims_y = tuple(c.card_y for c in p.components)
        self.nx = int(np.prod(self.dims_x))
        self.ny = int(np.prod(self.dims_y))
        total = self.nx * self.ny * card_u
        cap = probcore.size_cap()
        if total > cap:
            raise SizeCapError(f"oracle kernel would have {total} entries (cap {cap})")
        self.pxy = mechanisms.flat_joint_xy(p)
        self.px = self.pxy.sum(axis=1)
        self.py = self.pxy.sum(axis=0)
        self.weights = tuple(u.weight for u in p.users)
        self.projections = 0
        self.leakage_evals = 0
        # per user: map from flat y to flat demanded sub-tuple
        self.user_maps: list[np.ndarray] = []
        self.user_sizes: list[int] = []
        y_idx = np.arange(self.ny)
        multi = np.array(np.unravel_index(y_idx, self.dims_y))  # (N, ny)
        for u in p.users:
            dims_s = tuple(self.dims_y[i] for i in u.demands)
            flat_s = np.ravel_multi_index(tuple(multi[i] for i in u.demands), dims_s)
            self.user_maps.append(flat_s.astype(np.intp))
            self.user_sizes.append(int(np.prod(dims_s)))
        # constant-kernel marginals (all mass on u = 0)
        e0 = np.zeros(card_u)
        e0[0] = 1.0
        self.const_xu = np.outer(self.px, e0)
        self.const_users = []
        for m, sz in zip(self.user_maps, self.user_sizes):
            ps = np.bincount(m, weights=self.py, minlength=sz)
            self.const_users.append(np.outer(ps, e0))

    # -- marginals ---------------------------------------------------------

    def marginals(self, table: np.ndarray) -> dict:
        xu = np.einsum("xy,xyu->xu", self.pxy, table)
        yu = np.einsum("xy,xyu->yu", self.pxy, table)
        users = []
        for m, sz in zip(self.user_maps, self.user_sizes):
            su = np.zeros((sz, self.card_u))
            np.add.at(su, m, yu)
            users.append(su)
        return {"xu": xu, "users": users}

    def mix(self, marg: dict, t: float) -> dict:
        return {
            "xu": (1.0 - t) * marg["xu"] + t * self.const_xu,
            "users": [
                (1.0 - t) * m + t * c for m, c in zip(marg["users"], self.const_users)
            ],
        }

    def leakage(self, marg: dict) -> float:
        return _mi_from_joint_mat(marg["xu"])

    def objective(self, marg: dict) -> float:
        return float(
            sum(w * _mi_from_joint_mat(m) for w, m in zip(self.weights, marg["users"]))
        )

    # -- feasibility repair --------------------------------------------------

    def project_t(self, marg: dict, eps: float, slack: float = 0.0) -> float:
        """Mixing weight toward the constant kernel that lands the leakage
        in [eps - PROJECT_BAND, eps]. Returns 0.0 if already feasible
        (within ``slack``, which search uses to absorb float noise).

        The leakage of (1-t) P(x,u) + t P_const(x,u) is convex in t (MI is
        convex in the channel, and the channel is affine in t) and reaches 0
        at t = 1, so it is non-increasing. Newton steps aim at the middle of
        the band; a step that leaves the [lo, hi] bracket, or a slope that is
        not negative, falls back to the bracket midpoint. Only P(x,u) is
        touched; the user marginals are mixed once, by the caller.
        """
        xu = marg["xu"]
        g, ln_m, ln_col = _mi_terms(xu)
        if g <= eps + slack:
            return 0.0
        self.projections += 1
        self.leakage_evals += 1
        if eps <= PROJECT_BAND:
            return 1.0
        # d moves mass within rows, so dI/dt = sum d ln M - sum_u d_col ln M_col
        d = self.const_xu - xu
        d_col = d.sum(axis=0)
        target = eps - 0.5 * PROJECT_BAND
        lo, hi, t = 0.0, 1.0, 0.0
        for _ in range(80):
            slope = float(np.vdot(d, ln_m) - d_col @ ln_col)
            step = t - (g - target) / slope if slope < 0.0 else lo
            t = step if lo < step < hi else 0.5 * (lo + hi)
            g, ln_m, ln_col = _mi_terms((1.0 - t) * xu + t * self.const_xu)
            self.leakage_evals += 1
            if g > eps:
                lo = t
            elif g < eps - PROJECT_BAND:
                hi = t
            else:
                return t
        return hi

    def repaired(self, table: np.ndarray, eps: float) -> tuple[dict, float]:
        marg = self.marginals(table)
        t = self.project_t(marg, eps, slack=LEAKAGE_SLACK)
        if t > 0.0:
            marg = self.mix(marg, t)
        return marg, t

    def mix_table(self, table: np.ndarray, t: float) -> np.ndarray:
        if t <= 0.0:
            return table
        const = np.zeros_like(table)
        const[:, :, 0] = 1.0
        return (1.0 - t) * table + t * const

    # -- candidate generation -------------------------------------------------

    def vertex_direction(self, marg: dict, multiplier: float = 0.0) -> np.ndarray:
        """Per-column best vertex of a Lagrangian gradient.

        d objective / d K[x,y,u] = P(x,y) * sum_j w_j ln(P(u|y_Sj)/P(u))
        depends on (y, u) only, while d leakage / d K[x,y,u] is
        P(x,y) * ln(P(u|x)/P(u)); a positive multiplier mixes the two so
        that directions can build or shed X-correlation deliberately.
        """
        pu = np.log(np.maximum(marg["xu"].sum(axis=0), _TINY))
        score = np.zeros((self.ny, self.card_u))
        for w, m, idx in zip(self.weights, marg["users"], self.user_maps):
            if w == 0.0:
                continue
            ps = m.sum(axis=1, keepdims=True)
            lcond = np.log(np.maximum(m, _TINY)) - np.log(np.maximum(ps, _TINY))
            score += w * lcond[idx, :]
        score -= pu[None, :]
        full = score[None, :, :].repeat(self.nx, axis=0)
        if multiplier != 0.0:
            px = marg["xu"].sum(axis=1, keepdims=True)
            leak_score = (
                np.log(np.maximum(marg["xu"], _TINY)) - np.log(np.maximum(px, _TINY)) - pu[None, :]
            )
            full = full - multiplier * leak_score[:, None, :]
        best_u = np.argmax(full, axis=2)
        direction = np.zeros((self.nx, self.ny, self.card_u))
        direction[np.arange(self.nx)[:, None], np.arange(self.ny)[None, :], best_u] = 1.0
        return direction


def _embed(kernel: Kernel, nx: int, ny: int, nu: int) -> np.ndarray | None:
    if kernel.alphabet_u > nu:
        return None
    t = np.zeros((nx, ny, nu))
    t[:, :, : kernel.alphabet_u] = kernel.table
    return t


def _structured_table(ev: _Evaluator, p: Problem, restart: int) -> np.ndarray | None:
    """Deterministic structured starts for the first few restarts.

    0: relabeling of Y (truncated if |U| < |Y|); 1: all-refinement
    composition (zero leakage); 2 and 3: the two canonical budgeted
    compositions, re-evaluated from scratch by the search. Starts that do
    not fit the |U| cap fall back to seeded random kernels.
    """
    nx, ny, nu = ev.nx, ev.ny, ev.card_u
    if restart == 0:
        t = np.zeros((nx, ny, nu))
        t[:, np.arange(ny), np.arange(ny) % nu] = 1.0
        return t
    if restart == 1:
        try:
            frl = mechanisms.materialize_monolithic(
                p, ComposedMechanism(
                    kernels=tuple(mechanisms.frl_construct(c) for c in p.components),
                    tags=tuple(mechanisms.ConstructionTag("frl") for _ in p.components),
                )
            )
            return _embed(frl, nx, ny, nu)
        except SizeCapError:
            return None
    if restart in (2, 3):
        variant = "frl" if restart == 2 else "esfrl"
        try:
            stats = validate(p)
            alloc = bounds_mod.allocate_epsilon(p, stats, variant)
            mech = mechanisms.compose_multiuser(p, alloc)
            return _embed(mechanisms.materialize_monolithic(p, mech), nx, ny, nu)
        except (PrivboundError, ValueError):
            return None
    return None


def _initial_tables(ev: _Evaluator, p: Problem, cfg: OracleConfig, restart: int) -> np.ndarray:
    """Structured starts for the first restarts, then seeded random kernels."""
    structured = _structured_table(ev, p, restart)
    if structured is not None:
        return structured
    rng = np.random.default_rng([cfg.seed, restart])
    t = rng.exponential(size=(ev.nx, ev.ny, ev.card_u))
    return t / t.sum(axis=2, keepdims=True)


STEP_SIZES = (0.15, 0.4, 1.0)
MULTIPLIERS = (0.0, 0.7, 2.0)


def _ascend(ev: _Evaluator, table: np.ndarray, eps: float, cfg: OracleConfig, restart: int) -> tuple[float, np.ndarray, float]:
    """Candidate-step ascent from one start; returns (objective, table, leak)."""
    rng = np.random.default_rng([cfg.seed, restart, 1])
    marg, t_mix = ev.repaired(table, eps)
    table = ev.mix_table(table, t_mix)
    best_obj = ev.objective(marg)
    best_marg = marg
    stall = 0
    # large kernels get proportionally fewer sweeps to keep runtime flat
    size = ev.nx * ev.ny * ev.card_u
    iters = max(6, min(cfg.iters, int(cfg.iters * 12_000 / max(size, 1))))
    for _ in range(iters):
        cands: list[np.ndarray] = []
        for lam in MULTIPLIERS:
            direction = ev.vertex_direction(best_marg, lam)
            for eta in STEP_SIZES:
                cands.append(table + eta * (direction - table))
        # single-column vertex jumps (coordinate moves)
        ncols = min(8, ev.nx * ev.ny)
        cols = rng.choice(ev.nx * ev.ny, size=ncols, replace=False)
        jump = table.copy().reshape(-1, ev.card_u)
        jump[cols] = 0.0
        jump[cols, rng.integers(0, ev.card_u, size=ncols)] = 1.0
        cands.append(jump.reshape(table.shape))
        improved = False
        for cand in cands:
            m, t = ev.repaired(cand, eps)
            obj = ev.objective(m)
            if obj > best_obj + cfg.tolerance:
                best_obj = obj
                best_marg = m
                table = ev.mix_table(cand, t)
                improved = True
        stall = 0 if improved else stall + 1
        if stall >= 6:
            break
    return best_obj, table, ev.leakage(best_marg)


def default_card_u(p: Problem) -> int:
    nx = int(np.prod([c.card_x for c in p.components]))
    ny = int(np.prod([c.card_y for c in p.components]))
    return min(nx * (ny - 1) + 2, 16)


def search(p: Problem, cfg: OracleConfig | None = None) -> OracleResult:
    """Randomized-restart ascent; deterministic for a fixed (problem, cfg)."""
    if cfg is None:
        cfg = OracleConfig()
    if p.epsilon < 0.0:
        raise ValidationError(f"epsilon must be >= 0, got {p.epsilon}")
    card_u = cfg.card_u if cfg.card_u is not None else default_card_u(p)
    ev = _Evaluator(p, card_u)
    eps = p.epsilon
    trace = []
    best: tuple[float, np.ndarray, float] | None = None
    for r in range(cfg.restarts):
        table = _initial_tables(ev, p, cfg, r)
        obj, tab, leak = _ascend(ev, table, eps, cfg, r)
        trace.append(obj)
        if best is None or obj > best[0]:
            best = (obj, tab, leak)
    assert best is not None
    return OracleResult(
        best_objective=float(best[0]),
        best_kernel=Kernel(best[1]),
        leakage_at_best=float(best[2]),
        trace=tuple(float(v) for v in trace),
        projections=ev.projections,
        leakage_evals=ev.leakage_evals,
    )


def leakage_project(m: Kernel, p: Problem, eps: float) -> Kernel:
    """Repair a kernel to satisfy I(X;U) <= eps by mixing toward constant U.

    Returns the input unchanged when already feasible; otherwise finds the
    mixing weight, by safeguarded Newton steps on P(x,u), so the leakage
    lands in [eps - 1e-9, eps]. The leakage is convex and non-increasing in
    the weight and reaches 0 at full mixing, so a crossing always exists.
    """
    if eps < 0.0:
        raise ValidationError(f"eps must be >= 0, got {eps}")
    ev = _Evaluator(p, m.alphabet_u)
    marg = ev.marginals(m.table)
    if ev.leakage(marg) <= eps:
        return m
    t = ev.project_t(marg, eps)
    return Kernel(ev.mix_table(np.array(m.table), t))


def _mechanize_objective(p: Problem, stats: ProblemStats) -> float:
    """Best objective over the two canonical budget allocations."""
    objs = []
    for variant in ("frl", "esfrl"):
        try:
            alloc = bounds_mod.allocate_epsilon(p, stats, variant)
        except (PrivboundError, ValueError):
            continue
        mech = mechanisms.compose_multiuser(p, alloc)
        objs.append(mechanisms.evaluate_composed(p, mech).objective)
    if not objs:
        raise ValidationError("no canonical mechanism could be constructed")
    return max(objs)


WARM_CARD_CAP = 1500


def _sandwich_config(p: Problem, stats: ProblemStats, cfg: OracleConfig | None) -> OracleConfig:
    """Widen |U| (within reason) so the canonical mechanisms embed as warm
    starts; the size-aware iteration budget keeps runtime flat."""
    if cfg is not None and cfg.card_u is not None:
        return cfg
    base = cfg if cfg is not None else OracleConfig()
    card = default_card_u(p)
    if not stats.trivial:
        for variant in ("frl", "esfrl"):
            try:
                alloc = bounds_mod.allocate_epsilon(p, stats, variant)
                mech = mechanisms.compose_multiuser(p, alloc)
                card = max(card, min(mech.cardinality, WARM_CARD_CAP))
            except (PrivboundError, ValueError):
                continue
    return OracleConfig(
        card_u=card, restarts=base.restarts, iters=base.iters,
        seed=base.seed, tolerance=base.tolerance,
    )


def sandwich_check(p: Problem, cfg: OracleConfig | None = None) -> SandwichReport:
    """Compare lower bound, constructed mechanism, search, and upper bound."""
    stats = validate(p)
    result = search(p, _sandwich_config(p, stats, cfg))
    if stats.trivial:
        value = trivial_optimum(p, stats)
        return SandwichReport(
            lower=value,
            mech_objective=value,
            oracle_best=result.best_objective,
            upper=value,
            lower_ok=True,
            middle_ok=result.best_objective >= value - SEARCH_SLACK,
            upper_ok=result.best_objective <= value + LEAKAGE_SLACK,
            trivial=True,
        )
    rep = bounds_mod.compute_bounds(p, stats)
    mech_obj = _mechanize_objective(p, stats)
    return SandwichReport(
        lower=rep.lower,
        mech_objective=mech_obj,
        oracle_best=result.best_objective,
        upper=rep.upper,
        lower_ok=rep.lower - LEAKAGE_SLACK <= mech_obj,
        middle_ok=mech_obj <= result.best_objective + SEARCH_SLACK,
        upper_ok=result.best_objective <= rep.upper + LEAKAGE_SLACK,
        exact=rep.exact,
    )
