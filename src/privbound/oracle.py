"""Brute-force search for good feasible mechanisms on tiny problems.

The search maximizes the weighted objective sum_j lambda_j I(C_j;U) over
full-joint kernels P(u | x, y) subject to I(X;U) <= eps. It is a seeded
random-restart ascent over the kernel columns (each (x, y) column lives on
the |U|-simplex): each sweep steps every column toward vertex directions
picked by the objective's column gradient, plus one single-column vertex
jump. The sweep's candidates are scored as one batch on their marginals,
which are linear in the kernel; infeasible candidates are repaired by
mixing toward the constant kernel, with each mixing weight found by
safeguarded Newton steps on the leakage of P(x,u) alone (``leakage_project``
repairs one kernel the same way). Everything is driven by numpy generators
seeded from (seed, restart index), so results are reproducible bit for bit.

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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OracleResult:
    """Best feasible mechanism found, with its per-restart trace."""

    best_objective: float
    best_kernel: Kernel
    leakage_at_best: float
    trace: tuple[float, ...]
    projections: int = 0      # infeasible candidates repaired
    leakage_evals: int = 0    # I(X;U) evaluations spent on those repairs
    candidates: int = 0       # candidates scored by the sweeps
    accepted: int = 0         # candidates that beat the running best


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


def _mi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual information of joint mass matrices stacked over leading axes
    (shape (..., a, b)), in nats, with the logarithms it used: ln m and ln of
    the column sums. Entries at or below ``ZERO_FLOOR`` take ln := 0, so they
    drop out of every sum."""
    floor = probcore.ZERO_FLOOR
    row = m.sum(axis=-1)
    col = m.sum(axis=-2)
    ln_m = np.where(m > floor, m, 1.0)
    np.log(ln_m, out=ln_m)
    ln_row = np.log(np.where(row > floor, row, 1.0))
    ln_col = np.log(np.where(col > floor, col, 1.0))
    mi = (m * ln_m).sum(axis=(-2, -1)) - (row * ln_row).sum(axis=-1) - (col * ln_col).sum(axis=-1)
    return np.maximum(mi, 0.0), ln_m, ln_col


def _mi_from_joint_mat(m: np.ndarray) -> float:
    """Mutual information of a 2-D joint mass matrix, in nats."""
    return float(_mi(m)[0])


STEP_SIZES = (0.15, 0.4, 1.0)
MULTIPLIERS = (0.0, 0.7, 2.0)
# one sweep scores a step of every size toward every multiplier's vertex
# direction, then one single-column jump candidate
BATCH = len(MULTIPLIERS) * len(STEP_SIZES) + 1


class _Evaluator:
    """Precomputed problem geometry plus batched marginal/objective math.

    Candidates are scored on small marginal matrices stacked over a leading
    candidate axis: P(x, u), and P(y_S, u) per user. Both are linear in the
    kernel, so a step toward a vertex direction and a mix toward the
    constant kernel are formed on the marginals of the current kernel and
    of the direction (summed from its argmax indices); a step's kernel
    tensor is built only when the step is accepted. The jump's tensor is
    built every sweep and its marginals summed from it: forming them by
    subtracting the moved columns would leave rounding residue where a
    marginal is exactly zero, and the vertex score reads ln of those entries.
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
        self.candidates = 0
        self.accepted = 0
        # per user: the axes of the components it does not demand, counted
        # from the end of a (..., *dims_y, |U|) array, and the shape of its
        # P(y_S, u) with those axes kept as 1. Demands are sorted
        # (model.User), so summing the axes out of P(y, u) leaves P(y_S, u)
        # with y_S in flat order, in O(|Y||U|).
        n = len(self.dims_y)
        self.user_drops = [
            tuple(i - n - 1 for i in range(n) if i not in u.demands) for u in p.users
        ]
        self.user_shapes = [
            tuple(d if i in u.demands else 1 for i, d in enumerate(self.dims_y)) + (card_u,)
            for u in p.users
        ]
        # constant-kernel marginals (all mass on u = 0)
        e0 = np.zeros(card_u)
        e0[0] = 1.0
        self.const_xu = np.outer(self.px, e0)
        self.const_users = [np.outer(m[:, 0], e0) for m in self.user_marginals(self.py[:, None])]
        # flat (x, u) and (y, u) offsets of every kernel column
        self.x_offsets = np.repeat(np.arange(self.nx) * card_u, self.ny)
        self.y_offsets = np.tile(np.arange(self.ny) * card_u, self.nx)

    # -- marginals -------------------------------------------------------------
    # A batch of marginals is (xu, users): xu of shape (B, |X|, |U|) and one
    # (B, |S_j|, |U|) array per user.

    def user_marginals(self, yu: np.ndarray) -> list[np.ndarray]:
        """P(y_S, u) of every user from P(y, u), over any leading axes."""
        lead, nu = yu.shape[:-2], yu.shape[-1]
        full = yu.reshape(*lead, *self.dims_y, nu)
        return [
            full.sum(axis=drop).reshape(*lead, -1, nu) if drop else yu
            for drop in self.user_drops
        ]

    def marginals(self, table: np.ndarray) -> tuple:
        """Marginals of one kernel tensor, as a batch of one."""
        xu = np.einsum("xy,xyu->xu", self.pxy, table)
        yu = np.einsum("xy,xyu->yu", self.pxy, table)
        return xu[None], self.user_marginals(yu[None])

    def _vertex_marginals(self, best_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(x, u) and P(y, u) of the vertex kernel putting column (x, y) on
        u = best_u[x, y], summed from the indices."""
        nu = self.card_u
        flat_u = best_u.ravel()
        w = self.pxy.ravel()
        xu = np.bincount(self.x_offsets + flat_u, weights=w, minlength=self.nx * nu)
        yu = np.bincount(self.y_offsets + flat_u, weights=w, minlength=self.ny * nu)
        return xu.reshape(self.nx, nu), yu.reshape(self.ny, nu)

    def sweep_marginals(self, marg: tuple, choices: list[np.ndarray], jump_marg: tuple) -> tuple:
        """Marginals of one sweep's BATCH candidates. Candidate
        i * len(STEP_SIZES) + j is (1 - eta_j) K + eta_j D_i, for the current
        kernel K (marginals ``marg``) and the vertex kernel D_i of
        choices[i]; the last one is the jump (marginals ``jump_marg``)."""
        dirs = [self._vertex_marginals(best_u) for best_u in choices]
        xu_d = np.stack([d[0] for d in dirs])
        yu_d = np.stack([d[1] for d in dirs])
        n = len(STEP_SIZES)

        def stacked(cur: np.ndarray, d: np.ndarray, jump: np.ndarray) -> np.ndarray:
            out = np.empty((BATCH, *cur.shape[1:]))
            for j, eta in enumerate(STEP_SIZES):
                # candidates j, n + j, ...: this step size toward every direction
                out[j:-1:n] = (1.0 - eta) * cur[0] + eta * d
            out[-1] = jump[0]
            return out

        users = [
            stacked(u, d, j)
            for u, d, j in zip(marg[1], self.user_marginals(yu_d), jump_marg[1])
        ]
        return stacked(marg[0], xu_d, jump_marg[0]), users

    def mix(self, marg: tuple, t: np.ndarray) -> tuple:
        """Each candidate's marginals mixed toward the constant kernel by its
        weight; ``marg`` itself when no weight is positive."""
        bad = np.flatnonzero(t > 0.0)
        if bad.size == 0:
            return marg
        s = t[bad, None, None]

        def mixed(m: np.ndarray, c: np.ndarray) -> np.ndarray:
            out = m.copy()
            out[bad] = (1.0 - s) * m[bad] + s * c
            return out

        return mixed(marg[0], self.const_xu), [mixed(m, c) for m, c in zip(marg[1], self.const_users)]

    def leakage(self, marg: tuple) -> float:
        """I(X;U) of the first (in practice the only) kernel of a batch."""
        return float(_mi(marg[0][0])[0])

    def objective(self, users: list[np.ndarray]) -> np.ndarray:
        """sum_j w_j I(C_j; U) of every candidate of a batch."""
        return sum(w * _mi(m)[0] for w, m in zip(self.weights, users))

    # -- feasibility repair --------------------------------------------------

    def repair(self, xu: np.ndarray, eps: float, slack: float = 0.0) -> np.ndarray:
        """Per-candidate mixing weights toward the constant kernel that land
        each leakage in [eps - PROJECT_BAND, eps]; 0.0 for a candidate that
        is already feasible (within ``slack``, which search uses to absorb
        float noise).

        The leakage of (1-t) P(x,u) + t P_const(x,u) is convex in t (MI is
        convex in the channel, and the channel is affine in t) and reaches 0
        at t = 1, so it is non-increasing. Newton steps aim at the middle of
        the band, one candidate per row, each with its own [lo, hi] bracket;
        a step that leaves the bracket, or a slope that is not negative,
        falls back to the bracket midpoint. A candidate leaves the batch once
        its leakage is in the band. Only P(x,u) is touched.
        """
        g, ln_m, ln_col = _mi(xu)
        t = np.zeros(len(xu))
        bad = np.flatnonzero(g > eps + slack)
        self.projections += bad.size
        self.leakage_evals += bad.size
        if bad.size == 0:
            return t
        if eps <= PROJECT_BAND:
            t[bad] = 1.0
            return t
        xu = xu[bad]
        g, ln_m, ln_col = g[bad], ln_m[bad], ln_col[bad]
        # d moves mass within rows, so dI/dt = sum d ln M - sum_u d_col ln M_col
        d = self.const_xu - xu
        d_col = d.sum(axis=1)
        target = eps - 0.5 * PROJECT_BAND
        lo, hi, tb = np.zeros(bad.size), np.ones(bad.size), np.zeros(bad.size)
        live = np.arange(bad.size)
        for _ in range(80):
            slope = (d[live] * ln_m).sum(axis=(1, 2)) - (d_col[live] * ln_col).sum(axis=1)
            descent = slope < 0.0
            step = np.where(descent, tb[live] - (g - target) / np.where(descent, slope, -1.0), lo[live])
            inside = (lo[live] < step) & (step < hi[live])
            tl = np.where(inside, step, 0.5 * (lo[live] + hi[live]))
            tb[live] = tl
            s = tl[:, None, None]
            g, ln_m, ln_col = _mi((1.0 - s) * xu[live] + s * self.const_xu)
            self.leakage_evals += live.size
            over = g > eps
            under = g < eps - PROJECT_BAND
            lo[live[over]] = tl[over]
            hi[live[under]] = tl[under]
            out = over | under
            live, g, ln_m, ln_col = live[out], g[out], ln_m[out], ln_col[out]
            if live.size == 0:
                break
        tb[live] = hi[live]
        t[bad] = tb
        return t

    def repaired(self, table: np.ndarray, eps: float) -> tuple[tuple, float]:
        """Marginals of one kernel after its feasibility repair, as a batch
        of one, and the mixing weight the repair used."""
        marg = self.marginals(table)
        t = self.repair(marg[0], eps, slack=LEAKAGE_SLACK)
        return self.mix(marg, t), float(t[0])

    def mix_table(self, table: np.ndarray, t: float) -> np.ndarray:
        """(1 - t) table + t (constant kernel); ``table`` itself when t <= 0."""
        if t <= 0.0:
            return table
        out = (1.0 - t) * table
        out[:, :, 0] += t
        return out

    # -- candidate generation -------------------------------------------------

    def vertex_choices(self, marg: tuple) -> list[np.ndarray]:
        """Per-column best vertex of a Lagrangian gradient, one (|X|, |Y|)
        index array per entry of MULTIPLIERS.

        d objective / d K[x,y,u] = P(x,y) * sum_j w_j ln(P(u|y_Sj)/P(u))
        depends on (y, u) only, while d leakage / d K[x,y,u] is
        P(x,y) * ln(P(u|x)/P(u)); a positive multiplier mixes the two so
        that directions can build or shed X-correlation deliberately.
        """
        xu = marg[0][0]
        nu = self.card_u
        pu = np.log(np.maximum(xu.sum(axis=0), _TINY))
        score = np.zeros((*self.dims_y, nu))
        for w, m, shape in zip(self.weights, marg[1], self.user_shapes):
            if w == 0.0:
                continue
            m = m[0]
            ps = m.sum(axis=1, keepdims=True)
            lcond = np.log(np.maximum(m, _TINY)) - np.log(np.maximum(ps, _TINY))
            # broadcast over the components the user does not demand
            score += w * lcond.reshape(shape)
        score = score.reshape(self.ny, nu) - pu[None, :]
        px = xu.sum(axis=1, keepdims=True)
        leak_score = np.log(np.maximum(xu, _TINY)) - np.log(np.maximum(px, _TINY)) - pu[None, :]
        choices = []
        for lam in MULTIPLIERS:
            if lam == 0.0:
                best_u = np.broadcast_to(np.argmax(score, axis=1), (self.nx, self.ny))
            else:
                best_u = np.argmax(score[None, :, :] - lam * leak_score[:, None, :], axis=2)
            choices.append(best_u)
        return choices

    def step_table(self, table: np.ndarray, k: int, choices: list[np.ndarray]) -> np.ndarray:
        """Kernel tensor of step candidate k of a sweep (see ``sweep_marginals``)."""
        i, j = divmod(k, len(STEP_SIZES))
        eta = STEP_SIZES[j]
        cand = (1.0 - eta) * table
        x, y = np.indices((self.nx, self.ny))
        cand[x, y, choices[i]] += eta
        return cand


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


def _ascend(ev: _Evaluator, table: np.ndarray, eps: float, cfg: OracleConfig, restart: int) -> tuple[float, np.ndarray, float]:
    """Candidate-step ascent from one start; returns (objective, table, leak).

    Each sweep scores its BATCH candidates together and walks them in order,
    accepting every one that beats the running best; the last accepted
    becomes the current kernel.
    """
    rng = np.random.default_rng([cfg.seed, restart, 1])
    marg, t_mix = ev.repaired(table, eps)
    table = ev.mix_table(table, t_mix)
    best_obj = float(ev.objective(marg[1])[0])
    stall = 0
    # large kernels get proportionally fewer sweeps to keep runtime flat
    size = ev.nx * ev.ny * ev.card_u
    iters = max(6, min(cfg.iters, int(cfg.iters * 12_000 / max(size, 1))))
    for _ in range(iters):
        choices = ev.vertex_choices(marg)
        # single-column vertex jumps (coordinate moves)
        ncols = min(8, ev.nx * ev.ny)
        cols = rng.choice(ev.nx * ev.ny, size=ncols, replace=False)
        jump = table.copy()
        flat = jump.reshape(-1, ev.card_u)
        flat[cols] = 0.0
        flat[cols, rng.integers(0, ev.card_u, size=ncols)] = 1.0
        cands = ev.sweep_marginals(marg, choices, ev.marginals(jump))
        t = ev.repair(cands[0], eps, slack=LEAKAGE_SLACK)
        cands = ev.mix(cands, t)
        objs = ev.objective(cands[1])
        ev.candidates += BATCH
        pick = -1
        for k, obj in enumerate(objs):
            if obj > best_obj + cfg.tolerance:
                best_obj = float(obj)
                pick = k
                ev.accepted += 1
        if pick >= 0:
            marg = (cands[0][pick:pick + 1], [m[pick:pick + 1] for m in cands[1]])
            cand = jump if pick == BATCH - 1 else ev.step_table(table, pick, choices)
            table = ev.mix_table(cand, float(t[pick]))
            stall = 0
        else:
            stall += 1
            if stall >= 6:
                break
    return best_obj, table, ev.leakage(marg)


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
        candidates=ev.candidates,
        accepted=ev.accepted,
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
    t = float(ev.repair(ev.marginals(m.table)[0], eps)[0])
    if t == 0.0:
        return m
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
