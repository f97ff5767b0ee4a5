"""Brute-force search for good feasible mechanisms on tiny problems.

The search maximizes the weighted objective sum_j lambda_j I(C_j;U) over
full-joint kernels P(u | x, y) subject to I(X;U) <= eps. It is a seeded
random-restart ascent over the kernel columns (each (x, y) column lives on
the |U|-simplex): each sweep steps every column toward vertex directions
picked by the objective's column gradient, plus one single-column vertex
jump. Restarts run in lockstep, in groups of at most GROUP_ENTRIES kernel
entries: one sweep scores the candidates of every restart of a group as
one batch on their marginals, which are linear in the kernel, with the
package's one MI kernel (``probcore._mi``, batched over leading axes),
while each restart keeps its own random stream, acceptance walk and stall
count, and leaves the group when it stalls. Infeasible candidates are
repaired by mixing toward the constant kernel, which scales every column
u >= 1 of P(x,u) by (1 - t); so the leakage and its slope in t are read in
closed form from column u = 0, and each mixing weight is found by
safeguarded Newton steps on them (``leakage_project`` repairs one kernel
the same way). Everything is driven by numpy generators seeded from (seed, restart
index), so results are reproducible bit for bit and do not depend on how
restarts are grouped.

The returned value is an achieved objective: a certified lower estimate of
the true optimum, never the optimum itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds as bounds_mod
from . import mechanisms, probcore
from .bounds import Allocation
from .errors import AlphabetMismatchError, SizeCapError, ValidationError
from .mechanisms import ComposedMechanism, Kernel, RefinementProfile
from .model import Problem, validate
from .probcore import _mi

LEAKAGE_SLACK = 1e-9      # feasibility tolerance on I(X;U) <= eps
PROJECT_BAND = 1e-9       # leakage_project lands in [eps - band, eps]
SEARCH_SLACK = 1e-6       # allowance for search noise in sandwich checks
ACCEPT_TOL = 1e-10        # a candidate is accepted when it beats the running best by more
_TINY = 1e-300


@dataclass(frozen=True)
class OracleConfig:
    """Search knobs. ``card_u`` defaults to |X|(|Y|-1)+2 over the flattened
    alphabets, capped at 16."""

    card_u: int | None = None
    restarts: int = 6
    iters: int = 48
    seed: int = 0

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
    sweeps: int = 0           # batched scoring passes, one per group sweep
    groups: int = 0           # restart groups run in lockstep


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
    search: OracleResult | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.middle_ok and self.upper_ok


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
    Marginals, repair and vertex choices work on stacked rows: the
    candidates, or the current kernels of a restart group.
    """

    def __init__(self, p: Problem, card_u: int):
        self.card_u = card_u
        self.dims_x = tuple(c.card_x for c in p.components)
        self.dims_y = tuple(c.card_y for c in p.components)
        self.nx = int(np.prod(self.dims_x))
        self.ny = int(np.prod(self.dims_y))
        probcore.check_size("oracle kernel", self.nx * self.ny * card_u)
        self.pxy = mechanisms.flat_joint_xy(p)
        self.px = self.pxy.sum(axis=1)
        self.py = self.pxy.sum(axis=0)
        self.px_ln_px = float(self.px @ np.log(np.where(self.px > probcore.ZERO_FLOOR, self.px, 1.0)))
        self.weights = tuple(u.weight for u in p.users)
        self.projections = 0
        self.leakage_evals = 0
        self.candidates = 0
        self.accepted = 0
        self.sweeps = 0
        self.groups = 0
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

    def marginals(self, tables: np.ndarray) -> tuple:
        """Marginals of one kernel tensor, or of a stack of them over a
        leading axis, as a batch."""
        xu = np.einsum("xy,...xyu->...xu", self.pxy, tables).reshape(-1, self.nx, self.card_u)
        yu = np.einsum("xy,...xyu->...yu", self.pxy, tables).reshape(-1, self.ny, self.card_u)
        return xu, self.user_marginals(yu)

    def _vertex_marginals(self, best_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P(x, u) and P(y, u) of the vertex kernels putting column (x, y) on
        u = best_u[..., x, y], summed from the indices, over best_u's
        leading axes."""
        nu = self.card_u
        lead = best_u.shape[:-2]
        rows = int(np.prod(lead))
        flat_u = best_u.reshape(rows, -1)
        w = np.broadcast_to(self.pxy.ravel(), flat_u.shape).ravel()
        row = np.arange(rows)[:, None]
        xu = np.bincount((row * (self.nx * nu) + self.x_offsets + flat_u).ravel(),
                         weights=w, minlength=rows * self.nx * nu)
        yu = np.bincount((row * (self.ny * nu) + self.y_offsets + flat_u).ravel(),
                         weights=w, minlength=rows * self.ny * nu)
        return xu.reshape(*lead, self.nx, nu), yu.reshape(*lead, self.ny, nu)

    def sweep_marginals(self, marg: tuple, choices: list[np.ndarray], jump_marg: tuple) -> tuple:
        """Marginals of one sweep's BATCH candidates per row of ``marg``,
        row-major. Candidate i * len(STEP_SIZES) + j of a row is
        (1 - eta_j) K + eta_j D_i, for the row's current kernel K and the
        vertex kernel D_i of choices[i]; the last one is the row's jump
        (marginals ``jump_marg``)."""
        xu_d, yu_d = self._vertex_marginals(np.stack(choices, axis=1))
        rows, n = len(marg[0]), len(STEP_SIZES)

        def stacked(cur: np.ndarray, d: np.ndarray, jump: np.ndarray) -> np.ndarray:
            out = np.empty((rows, BATCH, *cur.shape[1:]))
            for j, eta in enumerate(STEP_SIZES):
                # candidates j, n + j, ...: this step size toward every direction
                out[:, j:-1:n] = (1.0 - eta) * cur[:, None] + eta * d
            out[:, -1] = jump
            return out.reshape(rows * BATCH, *cur.shape[1:])

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

    def mixed_leakage(self, x0: np.ndarray, rest: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """I(X;U) of (1 - t) P(x,u) + t P_const(x,u), and its slope in t,
        per row, from column u = 0 of P(x,u) (``x0``, shape (B, |X|)) and
        ``rest``, the u >= 1 part of sum P ln P - sum_u P(u) ln P(u).

        Mixing scales every column u >= 1 by (1 - t), which scales ``rest``
        by (1 - t) (the ln(1 - t) terms cancel within each column), and turns
        column 0 into a_x = (1 - t) P(x,0) + t p(x), with column sum c; the
        rows stay p(x). So I(t) = (1 - t) rest + sum_x a_x ln a_x - c ln c -
        sum_x p(x) ln p(x), and dI/dt = -rest + sum_x (p(x) - P(x,0)) ln a_x
        - (1 - P(u=0)) ln c, in O(|X|) per row. Entries at or below
        ``ZERO_FLOOR`` take ln := 0, as in ``_mi``.
        """
        floor = probcore.ZERO_FLOOR
        s = t[:, None]
        a = (1.0 - s) * x0 + s * self.px
        c = a.sum(axis=1)
        ln_a = np.log(np.where(a > floor, a, 1.0))
        ln_c = np.log(np.where(c > floor, c, 1.0))
        d0 = self.px - x0
        leak = (1.0 - t) * rest + (a * ln_a).sum(axis=1) - c * ln_c - self.px_ln_px
        slope = (d0 * ln_a).sum(axis=1) - d0.sum(axis=1) * ln_c - rest
        return np.maximum(leak, 0.0), slope

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
        its leakage is in the band. The feasibility check is one ``_mi``
        call on P(x,u); every later leakage and slope is read in closed form
        from column u = 0 (``mixed_leakage``).
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
        xu, g, ln_m, ln_col = xu[bad], g[bad], ln_m[bad], ln_col[bad]
        x0 = xu[:, :, 0]
        rest = ((xu[:, :, 1:] * ln_m[:, :, 1:]).sum(axis=(1, 2))
                - (xu.sum(axis=1)[:, 1:] * ln_col[:, 1:]).sum(axis=1))
        slope = self.mixed_leakage(x0, rest, np.zeros(bad.size))[1]
        target = eps - 0.5 * PROJECT_BAND
        lo, hi, tb = np.zeros(bad.size), np.ones(bad.size), np.zeros(bad.size)
        live = np.arange(bad.size)
        for _ in range(80):
            descent = slope < 0.0
            step = np.where(descent, tb[live] - (g - target) / np.where(descent, slope, -1.0), lo[live])
            inside = (lo[live] < step) & (step < hi[live])
            tl = np.where(inside, step, 0.5 * (lo[live] + hi[live]))
            tb[live] = tl
            g, slope = self.mixed_leakage(x0[live], rest[live], tl)
            self.leakage_evals += live.size
            over = g > eps
            under = g < eps - PROJECT_BAND
            lo[live[over]] = tl[over]
            hi[live[under]] = tl[under]
            out = over | under
            live, g, slope = live[out], g[out], slope[out]
            if live.size == 0:
                break
        tb[live] = hi[live]
        t[bad] = tb
        return t

    def repaired(self, tables: np.ndarray, eps: float) -> tuple[tuple, np.ndarray]:
        """Marginals of kernel tensors (see ``marginals``) after their
        feasibility repair, and the mixing weights the repair used."""
        marg = self.marginals(tables)
        t = self.repair(marg[0], eps, slack=LEAKAGE_SLACK)
        return self.mix(marg, t), t

    def mix_table(self, table: np.ndarray, t: float) -> np.ndarray:
        """(1 - t) table + t (constant kernel); ``table`` itself when t <= 0."""
        if t <= 0.0:
            return table
        out = (1.0 - t) * table
        out[:, :, 0] += t
        return out

    # -- candidate generation -------------------------------------------------

    def vertex_choices(self, marg: tuple) -> list[np.ndarray]:
        """Per-column best vertex of a Lagrangian gradient, one (B, |X|, |Y|)
        index array per entry of MULTIPLIERS, for every row of a batch.

        d objective / d K[x,y,u] = P(x,y) * sum_j w_j ln(P(u|y_Sj)/P(u))
        depends on (y, u) only, while d leakage / d K[x,y,u] is
        P(x,y) * ln(P(u|x)/P(u)); a positive multiplier mixes the two so
        that directions can build or shed X-correlation deliberately.
        """
        xu = marg[0]
        rows, nu = len(xu), self.card_u
        pu = np.log(np.maximum(xu.sum(axis=1), _TINY))
        score = np.zeros((rows, *self.dims_y, nu))
        for w, m, shape in zip(self.weights, marg[1], self.user_shapes):
            if w == 0.0:
                continue
            ps = m.sum(axis=2, keepdims=True)
            lcond = np.log(np.maximum(m, _TINY)) - np.log(np.maximum(ps, _TINY))
            # broadcast over the components the user does not demand
            score += w * lcond.reshape(rows, *shape)
        score = score.reshape(rows, self.ny, nu) - pu[:, None, :]
        px = xu.sum(axis=2, keepdims=True)
        leak_score = np.log(np.maximum(xu, _TINY)) - np.log(np.maximum(px, _TINY)) - pu[:, None, :]
        choices = []
        for lam in MULTIPLIERS:
            if lam == 0.0:
                best_u = np.broadcast_to(np.argmax(score, axis=2)[:, None, :], (rows, self.nx, self.ny))
            else:
                best_u = np.argmax(score[:, None] - lam * leak_score[:, :, None], axis=3)
            choices.append(best_u)
        return choices

    def step_table(self, table: np.ndarray, k: int, choices: list[np.ndarray]) -> np.ndarray:
        """Kernel tensor of step candidate k of a sweep (see ``sweep_marginals``),
        for one row's ``table`` and vertex ``choices``."""
        i, j = divmod(k, len(STEP_SIZES))
        eta = STEP_SIZES[j]
        cand = (1.0 - eta) * table
        x, y = np.indices((self.nx, self.ny))
        cand[x, y, choices[i]] += eta
        return cand


# the mechanisms the search starts restarts 1, 2, ... from; None: a seeded kernel
Starts = tuple[ComposedMechanism | None, ...]


def canonical_starts(p: Problem, profile: RefinementProfile, allocs: dict[str, Allocation]) -> Starts:
    """The search's structured starts for restarts 1, 2, ...: every
    component's refinement (zero leakage), then the composition of each
    ``bounds.VARIANTS`` allocation in ``allocs``, in that order. An entry is
    None when its variant has no allocation or its release is over the size
    cap."""

    def compose(alloc: Allocation | None) -> ComposedMechanism | None:
        try:
            return profile.compose(p, alloc)
        except SizeCapError:
            return None

    return (compose(None),) + tuple(
        compose(allocs[v]) if v in allocs else None for v in bounds_mod.VARIANTS
    )


def _initial_tables(ev: _Evaluator, p: Problem, cfg: OracleConfig, starts: Starts, restart: int) -> np.ndarray:
    """Restart 0 relabels Y (truncated if |U| < |Y|); restart r >= 1 embeds
    ``starts[r - 1]`` in the first columns of u, to be re-evaluated from
    scratch by the search. Restarts with no start, or one wider than |U|,
    take seeded random kernels."""
    nx, ny, nu = ev.nx, ev.ny, ev.card_u
    t = np.zeros((nx, ny, nu))
    if restart == 0:
        t[:, np.arange(ny), np.arange(ny) % nu] = 1.0
        return t
    mech = starts[restart - 1] if restart <= len(starts) else None
    if mech is not None and mech.cardinality <= nu:
        # no wider than the evaluator's size-checked kernel, so within the cap
        t[:, :, : mech.cardinality] = mechanisms.materialize_monolithic(p, mech).table
        return t
    rng = np.random.default_rng([cfg.seed, restart])
    t = rng.exponential(size=(nx, ny, nu))
    return t / t.sum(axis=2, keepdims=True)


def _ascend_group(ev: _Evaluator, p: Problem, cfg: OracleConfig, starts: Starts,
                  restarts: range) -> list[tuple[float, np.ndarray, float]]:
    """Candidate-step ascent of a group of restarts in lockstep; returns
    (objective, table, leak) per restart, in order.

    Each sweep scores BATCH candidates per live restart together; each
    restart walks its own candidates in order, accepting every one that
    beats its running best (the last accepted becomes its current kernel),
    and leaves the group after 6 sweeps without an acceptance.
    """
    eps = p.epsilon
    rngs = [np.random.default_rng([cfg.seed, r, 1]) for r in restarts]
    tables = np.stack([_initial_tables(ev, p, cfg, starts, r) for r in restarts])
    marg, t_mix = ev.repaired(tables, eps)
    tables = np.stack([ev.mix_table(tab, t) for tab, t in zip(tables, t_mix)])
    best = ev.objective(marg[1]).tolist()
    stall = np.zeros(len(rngs), dtype=int)
    ids = np.arange(len(rngs))      # position in the group of each live row
    done: dict[int, tuple[float, np.ndarray, float]] = {}

    def leave(rows: np.ndarray) -> None:
        leaks = _mi(marg[0][rows])[0]
        for row, leak in zip(rows, leaks):
            done[int(ids[row])] = (best[row], tables[row].copy(), float(leak))

    # large kernels get proportionally fewer sweeps to keep runtime flat
    nxy, nu = ev.nx * ev.ny, ev.card_u
    iters = max(6, min(cfg.iters, int(cfg.iters * 12_000 / max(nxy * nu, 1))))
    ncols = min(8, nxy)
    for _ in range(iters):
        live = len(ids)
        choices = ev.vertex_choices(marg)
        # single-column vertex jumps (coordinate moves), from each restart's stream
        cols = np.empty((live, ncols), dtype=np.intp)
        vals = np.empty((live, ncols), dtype=np.intp)
        for row, rng in enumerate(rngs):
            cols[row] = rng.choice(nxy, size=ncols, replace=False)
            vals[row] = rng.integers(0, nu, size=ncols)
        jumps = tables.copy()
        flat = jumps.reshape(live, nxy, nu)
        flat[np.arange(live)[:, None], cols] = 0.0
        flat[np.arange(live)[:, None], cols, vals] = 1.0
        cands = ev.sweep_marginals(marg, choices, ev.marginals(jumps))
        t = ev.repair(cands[0], eps, slack=LEAKAGE_SLACK)
        cands = ev.mix(cands, t)
        objs = ev.objective(cands[1]).reshape(live, BATCH).tolist()
        ev.candidates += live * BATCH
        ev.sweeps += 1
        picks = np.full(live, -1)
        for row in range(live):
            for k, obj in enumerate(objs[row]):
                if obj > best[row] + ACCEPT_TOL:
                    best[row] = obj
                    picks[row] = k
                    ev.accepted += 1
        moved = np.flatnonzero(picks >= 0)
        pick = moved * BATCH + picks[moved]
        marg[0][moved] = cands[0][pick]
        for m, c in zip(marg[1], cands[1]):
            m[moved] = c[pick]
        for row, k in zip(moved, picks[moved]):
            cand = jumps[row] if k == BATCH - 1 else ev.step_table(tables[row], k, [c[row] for c in choices])
            tables[row] = ev.mix_table(cand, float(t[row * BATCH + k]))
        stall += 1
        stall[moved] = 0
        stalled = stall >= 6
        if stalled.any():
            leave(np.flatnonzero(stalled))
            keep = np.flatnonzero(~stalled)
            marg = (marg[0][keep], [m[keep] for m in marg[1]])
            tables, stall, ids = tables[keep], stall[keep], ids[keep]
            best = [best[row] for row in keep]
            rngs = [rngs[row] for row in keep]
            if keep.size == 0:
                break
    leave(np.arange(len(ids)))
    return [done[i] for i in range(len(restarts))]


def _flat_sizes(p: Problem) -> tuple[int, int]:
    """|X| and |Y| of the flattened product alphabets."""
    return (int(np.prod([c.card_x for c in p.components])),
            int(np.prod([c.card_y for c in p.components])))


def default_card_u(p: Problem) -> int:
    nx, ny = _flat_sizes(p)
    return min(nx * (ny - 1) + 2, 16)


def search(p: Problem, cfg: OracleConfig | None = None, starts: Starts | None = None) -> OracleResult:
    """Randomized-restart ascent; deterministic for a fixed (problem, cfg,
    starts). Restart r >= 1 starts from ``starts[r - 1]`` where that is a
    mechanism no wider than |U|, else from a seeded kernel. With ``starts``
    None they are ``canonical_starts`` on a profile and allocations built
    here (none when the refinements are over the size cap)."""
    if cfg is None:
        cfg = OracleConfig()
    if p.epsilon < 0.0:
        raise ValidationError(f"epsilon must be >= 0, got {p.epsilon}")
    card_u = cfg.card_u if cfg.card_u is not None else default_card_u(p)
    ev = _Evaluator(p, card_u)
    if starts is None:
        try:
            profile = mechanisms.refinement_profile(p)
        except SizeCapError:
            starts = ()
        else:
            starts = canonical_starts(p, profile, bounds_mod.canonical_allocations(p, validate(p)))
    group = max(1, GROUP_ENTRIES // (ev.nx * ev.ny * card_u))
    trace = []
    best: tuple[float, np.ndarray, float] | None = None
    for first in range(0, cfg.restarts, group):
        ev.groups += 1
        for obj, tab, leak in _ascend_group(ev, p, cfg, starts, range(first, min(first + group, cfg.restarts))):
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
        sweeps=ev.sweeps,
        groups=ev.groups,
    )


def leakage_project(m: Kernel, p: Problem, eps: float) -> Kernel:
    """Repair a kernel to satisfy I(X;U) <= eps by mixing toward constant U.

    Returns the input unchanged when already feasible; otherwise finds the
    mixing weight, by safeguarded Newton steps on P(x,u), so the leakage
    lands in [eps - 1e-9, eps]. The leakage is convex and non-increasing in
    the weight and reaches 0 at full mixing, so a crossing always exists.
    """
    if not math.isfinite(eps) or eps < 0.0:
        raise ValidationError(f"eps must be finite and >= 0, got {eps}")
    nx, ny = _flat_sizes(p)
    if (m.card_x, m.card_y) != (nx, ny):
        raise AlphabetMismatchError(f"kernel is {m.card_x}x{m.card_y}, flattened problem is {nx}x{ny}")
    ev = _Evaluator(p, m.alphabet_u)
    t = float(ev.repair(ev.marginals(m.table)[0], eps)[0])
    if t == 0.0:
        return m
    return Kernel(ev.mix_table(np.array(m.table), t))


WARM_CARD_CAP = 1500
GROUP_ENTRIES = 2 ** 14   # restarts share a sweep while group x |X||Y||U| stays within this


def sandwich_check(p: Problem, cfg: OracleConfig | None = None) -> SandwichReport:
    """Compare lower bound, constructed mechanism, search, and upper bound."""
    if cfg is None:
        cfg = OracleConfig()
    stats = validate(p)
    # one profile and one set of allocations serve the warm-start |U|, the
    # search's starts and the constructed objective
    profile = mechanisms.refinement_profile(p)
    allocs = bounds_mod.canonical_allocations(p, stats)
    if cfg.card_u is None:
        # widen |U| (within reason) so the canonical mechanisms embed as warm
        # starts: the compositions, and in the trivial regime U = Y itself
        # (restart 0); the size-aware iteration budget keeps runtime flat
        cards = [profile.cardinality(a) for a in allocs.values()]
        if stats.trivial:
            cards.append(_flat_sizes(p)[1])
        cfg = replace(cfg, card_u=max([default_card_u(p), *(min(c, WARM_CARD_CAP) for c in cards)]))
    result = search(p, cfg, canonical_starts(p, profile, allocs))
    rep = bounds_mod.compute_bounds(p, stats)
    mech_obj = mechanisms.canonical_objective(p, stats, profile, allocs)
    return SandwichReport(
        lower=rep.lower,
        mech_objective=mech_obj,
        oracle_best=result.best_objective,
        upper=rep.upper,
        lower_ok=rep.lower - LEAKAGE_SLACK <= mech_obj,
        middle_ok=mech_obj <= result.best_objective + SEARCH_SLACK,
        upper_ok=result.best_objective <= rep.upper + LEAKAGE_SLACK,
        trivial=rep.trivial,
        exact=rep.exact,
        search=result,
    )
