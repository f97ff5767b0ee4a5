"""Brute-force search for good feasible mechanisms on tiny problems.

The search maximizes the weighted objective sum_j lambda_j I(C_j;U) over
full-joint kernels P(u | x, y) subject to I(X;U) <= eps. It is a seeded
random-restart ascent over the kernel columns (each (x, y) column lives on
the |U|-simplex): each sweep steps every column toward vertex directions
picked by the objective's column gradient, plus one single-column vertex
jump. Restarts run in lockstep, in groups whose sweep allocates about
GROUP_BUDGET float64s (``_Evaluator.row_floats`` estimates one row's share
before any allocation): one sweep scores the candidates of every restart
of a group as one batch, while each restart keeps its own random stream,
acceptance walk and stall count, and its own row of the group's kernel
stack, which it keeps after it stalls and stops sweeping.

A restart's only state is its kernel tensor, with a mask of the u-columns
that may hold mass (it may hold more, never fewer). The mask is set from
the start (restart 0's relabelled Y, a warm start's first columns, all of
a seeded kernel's) and from each accepted candidate, never from a pass
over the kernel. Each sweep packs the live restarts' marginals P(x,u) and
P(y_S,u) once, over the union of their masks only where that skips at
least BLOCK_ENTRIES kernel entries (every other column is zero), and
scores every candidate from a few sums of marginals, which are
linear in the kernel: sum m ln m per marginal, column u = 0, and P(u) (the
row sums are fixed at p(x) and p(y_S)). The vertex directions' argmax
reads the masked columns and each restart's first empty one, which stands
for all of them: empty columns score alike and argmax keeps the first. A
step toward a vertex direction changes at most |X||Y| cells of each
marginal, and the jump only those of its moved columns, so only the
accepted candidate's kernel is formed, in place on its masked columns.
Infeasible candidates are repaired by mixing toward the constant kernel,
which scales every column u >= 1 by (1 - t); so every MI and its slope in
t are read in closed form from column u = 0, and each mixing weight is
found by safeguarded Newton steps that also return the repaired scores
(``leakage_project`` repairs one kernel the same way). Everything is
driven by numpy generators seeded from (seed, restart index), and the
masks only skip columns that are zero, so results are reproducible bit
for bit and do not depend on how restarts are grouped.

The returned value is an achieved objective: a certified lower estimate of
the true optimum, never the optimum itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import mechanisms, probcore
from .bounds import Allocation
from .errors import AlphabetMismatchError, SizeCapError, ValidationError
from .mechanisms import ComposedMechanism, Kernel, RefinementProfile
from .model import Problem, validate

LEAKAGE_SLACK = 1e-9      # feasibility tolerance on I(X;U) <= eps
PROJECT_BAND = 1e-9       # leakage_project lands in [eps - band, eps]
SEARCH_SLACK = 1e-6       # allowance for search noise in sandwich checks
ACCEPT_TOL = 1e-10        # a candidate is accepted when it beats the running best by more
_TINY = 1e-300


@dataclass(frozen=True)
class OracleConfig:
    """Search knobs. ``card_u`` is |U| for ``search`` and the least |U| for
    ``sandwich_check``, which widens it to fit its warm starts; it defaults
    to |X|(|Y|-1)+2 over the flattened alphabets, capped at 16. ``iters``
    caps each restart's sweeps; kernels over 12,000 entries get
    proportionally fewer, but no fewer than 6 unless ``iters`` is."""

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
    # sweeps, groups and swept_entries depend on how restarts are grouped
    # (GROUP_BUDGET), unlike the search itself
    sweeps: int = 0           # batched scoring passes, one per group sweep
    groups: int = 0           # restart groups run in lockstep
    # rows x |X||Y| x u-columns formed by the sweeps' marginals and read by
    # their vertex choices (a sweep keeps the union of its rows' occupied
    # columns)
    swept_entries: int = 0


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
    # wall-clock seconds per stage of the check, keyed by SANDWICH_STAGES
    stage_s: dict[str, float] = field(default_factory=dict, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.middle_ok and self.upper_ok


STEP_SIZES = (0.15, 0.4, 1.0)
MULTIPLIERS = (0.0, 0.7, 2.0)
# one sweep scores a step of every size toward every multiplier's vertex
# direction, then one single-column jump candidate
BATCH = len(MULTIPLIERS) * len(STEP_SIZES) + 1


def _xlogx(a: np.ndarray) -> np.ndarray:
    """a ln a entrywise, with ln := 0 at or below ``ZERO_FLOOR`` (as in ``_mi``)."""
    return a * np.log(np.where(a > probcore.ZERO_FLOOR, a, 1.0))


class _Terms(NamedTuple):
    """Sums that fix I(X;U) and every I(C_j;U) of a batch of kernels, mixed
    toward the constant kernel or not (see ``_Evaluator``). Leading axis:
    the batch; F families, P(x,u) and then each user's P(y_S,u)."""

    plogp: np.ndarray   # (B, F): sum m ln m over each family's cells
    col0: np.ndarray    # (B, sum of family rows): column u = 0 of every family, in family order
    hu: np.ndarray      # (B,): sum_u P(u) ln P(u)
    hu0: np.ndarray     # (B,): P(0) ln P(0)

    def take(self, rows: np.ndarray) -> _Terms:
        return _Terms(*(a[rows] for a in self))


class _Evaluator:
    """Precomputed problem geometry plus batched marginal/objective math.

    A kernel's marginals are packed into one flat row: the families P(x,u)
    and P(y_S,u) of every user, each (rows, |U|) in C order. Their row sums
    are fixed at p(x) and p(y_S), and their column sums are all P(u), so
    every MI of a kernel follows from ``_Terms``: sum m ln m per family,
    column u = 0, and sum_u P(u) ln P(u).

    Candidates are scored from terms alone; no step candidate's marginals
    are formed. Step candidate (1 - eta) K + eta D, for the current kernel K
    and a vertex kernel D, differs from K only on the cells D touches, at
    most |X||Y| per family, whose flat positions come from D's argmax
    indices. So its sum c ln c per family is (1 - eta)(S - S_D) +
    (1 - eta) ln(1 - eta)(M - M_D) + sum over touched cells of c ln c, with
    S and M the sums of m ln m and of m over the current kernel's cells
    above ``ZERO_FLOOR``, and S_D, M_D the same over the touched cells; a
    cell above the floor that the scaling takes to it or below drops out,
    as in ``_mi``. Column 0 and P(u) are linear in the kernel. Mixing
    toward the constant kernel scales every column u >= 1 by (1 - t), so
    each family's MI after mixing is read in closed form from column 0
    (``mixed``): each of the repair's Newton steps scores every family of
    its iterate. The jump's marginals shift the current ones on the cells
    of its moved columns, which can leave rounding residue where they are
    exactly zero; only the terms read them, and those take a cell at or
    below ``ZERO_FLOOR`` as zero, as ``_mi`` does. ``vertex_choices``, which
    reads ln of every cell, sees only the marginals of real kernels.

    The search keeps, per kernel, a boolean mask of the u-columns that may
    hold mass. Where that skips at least BLOCK_ENTRIES kernel entries
    (``_narrow``), ``occupied_marginals`` forms the packed marginals over
    the union of the masks only and scatters them into the full-width
    layout, so every scorer sees the same arrays as from ``marginals``;
    ``vertex_choices`` then takes its argmax over the masked columns plus
    each row's first unmasked one (``_choice_columns``); and
    ``step_into``, ``jump_into`` and ``mix_into`` overwrite the accepted
    kernel on its masked columns. All three keep the
    mask covering the kernel's mass. Every kept number is formed from the
    same operands in the same order as at full width, so the search is the
    same bit for bit.
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
        self.weights = np.array([u.weight for u in p.users])
        self.projections = 0
        self.leakage_evals = 0
        self.candidates = 0
        self.accepted = 0
        self.sweeps = 0
        self.groups = 0
        self.swept_entries = 0
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
        # the packed layout: family f's rows start at row_starts[f] of
        # column 0 and its cells at fam_offs[f] of a packed row
        p_user = [m[:, 0] for m in self.user_marginals(self.py[:, None])]
        rows = [self.nx] + [len(m) for m in p_user]
        self.row_starts = np.cumsum([0] + rows)
        self.fam_offs = self.row_starts[:-1] * card_u
        self.size = int(self.row_starts[-1]) * card_u
        self.col0_idx = np.concatenate([off + np.arange(r) * card_u for off, r in zip(self.fam_offs, rows)])
        self.p_rows = np.concatenate([self.px, *p_user])
        self.rowconst = np.add.reduceat(_xlogx(self.p_rows), self.row_starts[:-1])
        # per family, the packed position of column (x, y)'s u = 0 cell
        multi = np.unravel_index(np.arange(self.ny), self.dims_y)
        y_rows = [
            np.ravel_multi_index(tuple(multi[i] for i in u.demands), tuple(self.dims_y[i] for i in u.demands))
            for u in p.users
        ]
        self.col_base = np.stack(
            [np.repeat(np.arange(self.nx), self.ny)] + [np.tile(r, self.nx) for r in y_rows]
        ) * card_u + self.fam_offs[:, None]
        self.pxy_flat = self.pxy.ravel()
        eta = np.array(STEP_SIZES)
        self.scale = (1.0 - eta)[:, None]   # (J, 1): the current kernel's scale in step j
        self.eta = eta[:, None]
        self.kappa = np.array([(1.0 - e) * math.log(1.0 - e) if e < 1.0 else 0.0
                               for e in STEP_SIZES])[:, None]
        # cells above the floor that a step may take to it or below lie under this
        self.near_floor = 2.0 * probcore.ZERO_FLOOR / min(1.0 - e for e in STEP_SIZES if e < 1.0)
        self._owner = np.empty(0, dtype=np.intp)
        self._x, self._y = np.indices((self.nx, self.ny))

    def row_floats(self) -> int:
        """Float64s one restart's row allocates in a sweep, estimated from
        the shapes alone: its kernel, three packed marginals' worth of step
        directions (``sweep_terms``), and the index and gather arrays of
        ``sweep_terms`` and ``jump_marginals``, per family F over the |X||Y|
        columns and over |U|. It reads 25-35 % under the growth of the
        tracemalloc peak per row."""
        fams = len(self.fam_offs)
        return (self.nx * self.ny * self.card_u + 3 * self.size
                + fams * (40 * self.nx * self.ny + 24 * self.card_u))

    # -- marginals -------------------------------------------------------------

    def user_marginals(self, yu: np.ndarray) -> list[np.ndarray]:
        """P(y_S, u) of every user from P(y, u), over any leading axes."""
        lead, nu = yu.shape[:-2], yu.shape[-1]
        full = yu.reshape(*lead, *self.dims_y, nu)
        return [
            full.sum(axis=drop).reshape(*lead, -1, nu) if drop else yu
            for drop in self.user_drops
        ]

    def marginals(self, tables: np.ndarray) -> np.ndarray:
        """Packed marginals of one kernel tensor, or of a stack of them over a
        leading axis: shape (B, size). Kernels over fewer u-columns than |U|
        give family rows of that many columns."""
        nu = tables.shape[-1]
        xu = np.einsum("xy,...xyu->...xu", self.pxy, tables).reshape(-1, self.nx * nu)
        yu = np.einsum("xy,...xyu->...yu", self.pxy, tables).reshape(-1, self.ny, nu)
        return np.concatenate([xu, *(m.reshape(len(yu), -1) for m in self.user_marginals(yu))], axis=1)

    def occupied_marginals(self, tables: np.ndarray, live: np.ndarray,
                           keep: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``marginals(tables[live])`` for a stack whose rows ``live`` are zero
        outside the u-columns of their masks ``keep`` (len(live), |U|), and
        the columns formed (None: all). Where ``_narrow`` keeps columns, the
        marginals are formed over those only and scattered into the
        full-width layout. Only the live rows get an einsum. The column
        gather reads every row of the stack and then keeps the live ones:
        gathering only the live rows, one at a time, measured 2-4 times
        faster per call but narrowed stacks with stalled rows are too few
        for it to save a measurable share of a search."""
        every = live.size == len(tables)
        cols = _narrow(live.size * self.nx * self.ny, keep)
        if cols is None:
            return self.marginals(tables if every else tables[live]), None
        sub = np.take(tables, cols, axis=3)
        narrow = self.marginals(sub if every else sub[live])
        marg = np.zeros((live.size, self.row_starts[-1], self.card_u))
        marg[:, :, cols] = narrow.reshape(live.size, -1, cols.size)
        return marg.reshape(live.size, self.size), cols

    def unpack(self, marg: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Views of packed marginals: P(x,u) as (B, |X|, |U|) and one
        (B, |S_j|, |U|) array per user."""
        fams = [f.reshape(len(marg), -1, self.card_u) for f in np.split(marg, self.fam_offs[1:], axis=1)]
        return fams[0], fams[1:]

    def jump_marginals(self, marg: np.ndarray, k: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Packed marginals of each row's ``jump_table``: its current ones
        ``marg`` plus P(x,y) (e_v - K[x,y,.]) on every family's cells of each
        moved column (x, y), in one ``bincount``. ``k`` holds the moved
        columns' current entries K[x,y,.], (rows, ncols, |U|)."""
        rows, nu = len(cols), self.card_u
        delta = self.pxy_flat[cols][..., None] * ((np.arange(nu) == vals[..., None]) - k)
        base = self.col_base[:, cols] + (np.arange(rows) * self.size)[:, None]   # (F, rows, ncols)
        idx = base[..., None] + np.arange(nu)
        shift = np.bincount(idx.ravel(), weights=np.broadcast_to(delta, idx.shape).ravel(), minlength=marg.size)
        return marg + shift.reshape(marg.shape)

    # -- terms and scores ------------------------------------------------------

    def terms(self, marg: np.ndarray) -> _Terms:
        """Terms of packed marginals, one log pass."""
        nu = self.card_u
        pu = marg[:, : self.nx * nu].reshape(len(marg), self.nx, nu).sum(axis=1)
        lpu = _xlogx(pu)
        return _Terms(np.add.reduceat(_xlogx(marg), self.fam_offs, axis=1),
                      marg[:, self.col0_idx], lpu.sum(axis=1), lpu[:, 0])

    def sweep_terms(self, marg: np.ndarray, ln: np.ndarray, choices: np.ndarray, jump: _Terms) -> _Terms:
        """Terms of one sweep's BATCH candidates per row of ``marg``,
        row-major. Candidate i * len(STEP_SIZES) + j of a row is
        (1 - eta_j) K + eta_j D_i, for the row's current kernel K and the
        vertex kernel D_i of choices[:, i], scored from K's marginals (and
        ``ln``, their logs floored at ``_TINY``, which this overwrites) and
        D_i's touched cells; the last one is the row's jump (terms
        ``jump``)."""
        rows, size, nu = len(marg), self.size, self.card_u
        ndir = choices.shape[1]
        u = choices.reshape(rows * ndir, 1, -1)
        pos = self.col_base + u                                     # (rows * ndir, F, |X||Y|)
        w = np.broadcast_to(self.pxy_flat, pos.shape).ravel()
        didx = (np.arange(rows * ndir)[:, None, None] * size + pos).ravel()
        d = np.bincount(didx, weights=w, minlength=rows * ndir * size)
        pu_d = np.bincount((np.arange(rows * ndir)[:, None, None] * nu + u).ravel(),
                           weights=np.broadcast_to(self.pxy_flat, u.shape).ravel(), minlength=rows * ndir * nu)
        # the current kernels, with ln := 0 at or below the floor; m ln m
        # takes ln's buffer, so no second array of its size stays alive
        above = marg > probcore.ZERO_FLOOR
        xl = np.multiply(ln, marg, out=ln)
        xl[~above] = 0.0
        mm = np.where(above, marg, 0.0)
        s_k = np.add.reduceat(xl, self.fam_offs, axis=1)[:, None, None]
        m_k = np.add.reduceat(mm, self.fam_offs, axis=1)[:, None, None]
        pu_k = marg[:, : self.nx * nu].reshape(rows, self.nx, nu).sum(axis=1)
        # the touched cells, each once, where D > 0
        if self._owner.size < d.size:
            self._owner = np.empty(d.size, dtype=np.intp)
        owner = self._owner
        k = np.arange(didx.size)
        owner[didx] = k
        d_g = d[didx]
        once = (owner[didx] == k) & (d_g > 0.0)
        bidx = (pos.reshape(rows, ndir, *pos.shape[1:]) + (np.arange(rows) * size)[:, None, None, None]).ravel()
        shape = (rows, ndir, 1, *pos.shape[1:])
        d_g = np.where(once, d_g, 0.0).reshape(shape)
        m_g = np.where(once, marg.ravel()[bidx], 0.0).reshape(shape)
        s_d = np.where(once, xl.ravel()[bidx], 0.0).reshape(shape).sum(axis=-1)
        m_d = np.where(once, mm.ravel()[bidx], 0.0).reshape(shape).sum(axis=-1)
        touched = _xlogx(self.scale[:, :, None] * m_g + self.eta[:, :, None] * d_g).sum(axis=-1)
        plogp = self.scale * (s_k - s_d) + self.kappa * (m_k - m_d) + touched     # (rows, ndir, J, F)
        d = d.reshape(rows, ndir, size)
        near = above & (marg < self.near_floor)
        if near.any():
            plogp -= self._dropped(marg, xl, d, near)
        col0 = self.scale * marg[:, None, None, self.col0_idx] + self.eta * d[:, :, None, self.col0_idx]
        lpu = _xlogx(self.scale * pu_k[:, None, None] + self.eta * pu_d.reshape(rows, ndir, 1, nu))
        steps = _Terms(plogp, col0, lpu.sum(axis=-1), lpu[..., 0])

        def joined(s: np.ndarray, j: np.ndarray) -> np.ndarray:
            out = np.concatenate((s.reshape(rows, BATCH - 1, *s.shape[3:]), j[:, None]), axis=1)
            return out.reshape(rows * BATCH, *s.shape[3:])

        return _Terms(*(joined(s, j) for s, j in zip(steps, jump)))

    def _dropped(self, marg: np.ndarray, xl: np.ndarray, d: np.ndarray, near: np.ndarray) -> np.ndarray:
        """The part of (1 - eta) S + (1 - eta) ln(1 - eta) M, per step
        candidate and family, that comes from cells D leaves untouched and
        the step takes from above ``ZERO_FLOOR`` to it or below: ``_mi``
        reads those cells as 0. Only cells in ``near`` can be such cells."""
        r, q = np.nonzero(near)
        fam = np.searchsorted(self.fam_offs, q, side="right") - 1
        m = marg[r, q]
        dropped = self.scale.T * m[:, None] <= probcore.ZERO_FLOOR        # (cells, J)
        share = self.scale.T * xl[r, q][:, None] + self.kappa.T * m[:, None]
        untouched = d[r, :, q] == 0.0                                    # (cells, ndir)
        vals = np.where(untouched[:, :, None] & dropped[:, None, :], share[:, None, :], 0.0)
        rows, ndir = d.shape[:2]
        nj = len(STEP_SIZES)
        out = np.zeros((rows, ndir, nj, len(self.fam_offs)))
        np.add.at(out, (r[:, None, None], np.arange(ndir)[:, None], np.arange(nj), fam[:, None, None]), vals)
        return out

    def mi(self, terms: _Terms) -> np.ndarray:
        """I(X;U) and every I(C_j;U), (B, F), of unmixed kernels."""
        return np.maximum(terms.plogp - self.rowconst - terms.hu[:, None], 0.0)

    def _rest(self, terms: _Terms) -> np.ndarray:
        """The u >= 1 part of sum m ln m - sum_u P(u) ln P(u), (B, F), per
        family."""
        c0 = np.add.reduceat(_xlogx(terms.col0), self.row_starts[:-1], axis=1)
        return terms.plogp - c0 - (terms.hu - terms.hu0)[:, None]

    def mixed(self, col0: np.ndarray, rest: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """MI of every family of (1 - t) K + t K_const, (B, F), and its
        slope in t, per row, from column 0 of K's families (``col0``) and
        ``rest`` (``_rest``).

        Mixing scales every column u >= 1 by (1 - t), which scales ``rest``
        by (1 - t) (the ln(1 - t) terms cancel within each column), and turns
        column 0 into a = (1 - t) col0 + t p, with sum c per family; the rows
        stay p (p(x), or p(y_S)). So I(t) = (1 - t) rest + sum a ln a -
        c ln c - sum p ln p, and dI/dt = -rest + sum (p - col0) ln a -
        sum (p - col0) ln c, in O(rows) per family. Entries at or below
        ``ZERO_FLOOR`` take ln := 0, as in ``_mi``.
        """
        floor = probcore.ZERO_FLOOR
        starts, p = self.row_starts[:-1], self.p_rows
        s = t[:, None]
        a = (1.0 - s) * col0 + s * p
        ln_a = np.log(np.where(a > floor, a, 1.0))
        c = np.add.reduceat(a, starts, axis=1)
        ln_c = np.log(np.where(c > floor, c, 1.0))
        d0 = p - col0
        mi = (1.0 - s) * rest + np.add.reduceat(a * ln_a, starts, axis=1) - c * ln_c - self.rowconst
        slope = np.add.reduceat(d0 * ln_a, starts, axis=1) - np.add.reduceat(d0, starts, axis=1) * ln_c - rest
        return np.maximum(mi, 0.0), slope

    def objective(self, scores: np.ndarray) -> np.ndarray:
        """sum_j w_j I(C_j; U) per row of ``scores``."""
        return (scores[:, 1:] * self.weights).sum(axis=1)

    # -- feasibility repair --------------------------------------------------

    def repair(self, terms: _Terms, eps: float, slack: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Per-kernel mixing weights t toward the constant kernel that land
        each leakage in [eps - PROJECT_BAND, eps], and the scores, I(X;U)
        and every I(C_j;U) as (B, F), of the kernels so mixed; t = 0.0 for a
        kernel that is already feasible (within ``slack``, which search uses
        to absorb float noise).

        The leakage of (1-t) P(x,u) + t P_const(x,u) is convex in t (MI is
        convex in the channel, and the channel is affine in t) and reaches 0
        at t = 1, so it is non-increasing. Newton steps aim at the middle of
        the band, one kernel per row, each with its own [lo, hi] bracket;
        a step that leaves the bracket, or a slope that is not negative,
        falls back to the bracket midpoint. A kernel leaves the batch with
        the scores of the iterate that lands its leakage in the band; one
        still outside after 80 steps is scored at hi, and with
        eps <= PROJECT_BAND every infeasible kernel at t = 1. The first
        scores come from ``terms``; every later score and slope is read in
        closed form from column u = 0 of every family (``mixed``).
        """
        scores = self.mi(terms)
        g = scores[:, 0]
        t = np.zeros(len(g))
        bad = np.flatnonzero(g > eps + slack)
        self.projections += bad.size
        self.leakage_evals += bad.size
        if bad.size == 0:
            return t, scores
        sub = terms.take(bad)
        col0, rest = sub.col0, self._rest(sub)
        if eps <= PROJECT_BAND:
            t[bad] = 1.0
            scores[bad] = self.mixed(col0, rest, t[bad])[0]
            return t, scores
        g = g[bad]
        slope = self.mixed(col0, rest, np.zeros(bad.size))[1][:, 0]
        target = eps - 0.5 * PROJECT_BAND
        lo, hi, tb = np.zeros(bad.size), np.ones(bad.size), np.zeros(bad.size)
        live = np.arange(bad.size)
        for _ in range(80):
            descent = slope < 0.0
            step = np.where(descent, tb[live] - (g - target) / np.where(descent, slope, -1.0), lo[live])
            inside = (lo[live] < step) & (step < hi[live])
            tl = np.where(inside, step, 0.5 * (lo[live] + hi[live]))
            tb[live] = tl
            mi, slope = self.mixed(col0[live], rest[live], tl)
            g, slope = mi[:, 0], slope[:, 0]
            self.leakage_evals += live.size
            over = g > eps
            under = g < eps - PROJECT_BAND
            lo[live[over]] = tl[over]
            hi[live[under]] = tl[under]
            out = over | under
            scores[bad[live[~out]]] = mi[~out]
            live, g, slope = live[out], g[out], slope[out]
            if live.size == 0:
                break
        if live.size:
            tb[live] = hi[live]
            scores[bad[live]] = self.mixed(col0[live], rest[live], tb[live])[0]
        t[bad] = tb
        return t, scores

    # -- candidate generation -------------------------------------------------

    def vertex_choices(self, marg: np.ndarray, ln: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Per-column best vertex of a Lagrangian gradient for every row of
        packed marginals ``marg``, given ``ln``, their logs floored at
        ``_TINY``: (B, len(MULTIPLIERS), |X|, |Y|) indices, one plane per
        entry of MULTIPLIERS.

        d objective / d K[x,y,u] = P(x,y) * sum_j w_j ln(P(u|y_Sj)/P(u))
        depends on (y, u) only, while d leakage / d K[x,y,u] is
        P(x,y) * ln(P(u|x)/P(u)); a positive multiplier mixes the two so
        that directions can build or shed X-correlation deliberately.

        With ``cols`` (from ``_choice_columns``), the scores and their
        argmax read only those u-columns: every masked column and each
        row's first unmasked one. Every column whose marginals are all zero
        scores alike for a given (x, y), and argmax keeps the first, so no
        choice changes. A positive multiplier's argmax runs in blocks of at
        most BLOCK_ENTRIES entries (one |X| row at least) in one buffer.
        """
        (xu, users), (ln_xu, ln_users) = self.unpack(marg), self.unpack(ln)
        rows, nx, ny = len(xu), self.nx, self.ny
        # the sums over u and x stay full width: over fewer columns they
        # would add in another order
        pu = np.log(np.maximum(xu.sum(axis=1), _TINY))
        px = xu.sum(axis=2, keepdims=True)
        if cols is not None:
            pu, ln_xu = pu[:, cols], ln_xu[:, :, cols]
        nk = pu.shape[1]
        score = np.zeros((rows, *self.dims_y, nk))
        for w, m, ln_m, shape in zip(self.weights, users, ln_users, self.user_shapes):
            if w == 0.0:
                continue
            ps = m.sum(axis=2, keepdims=True)
            lcond = (ln_m if cols is None else ln_m[:, :, cols]) - np.log(np.maximum(ps, _TINY))
            # broadcast over the components the user does not demand
            score += w * lcond.reshape(rows, *shape[:-1], nk)
        score = score.reshape(rows, ny, nk) - pu[:, None, :]
        leak_score = ln_xu - np.log(np.maximum(px, _TINY)) - pu[:, None, :]
        bx = min(nx, max(1, BLOCK_ENTRIES // (ny * nk)))
        br = max(1, BLOCK_ENTRIES // (bx * ny * nk))     # 1 unless bx is all of |X|
        buf = np.empty((min(rows, br), bx, ny, nk))
        choices = np.empty((rows, len(MULTIPLIERS), nx, ny), dtype=np.intp)
        for i, lam in enumerate(MULTIPLIERS):
            if lam == 0.0:
                best = np.argmax(score, axis=2)
                choices[:, i] = (best if cols is None else cols[best])[:, None, :]
                continue
            lam_leak = lam * leak_score
            for r0 in range(0, rows, br):
                r1 = min(rows, r0 + br)
                for x0 in range(0, nx, bx):
                    x1 = min(nx, x0 + bx)
                    block = buf[: r1 - r0, : x1 - x0]
                    np.subtract(score[r0:r1, None], lam_leak[r0:r1, x0:x1, None], out=block)
                    best = np.argmax(block, axis=3)
                    choices[r0:r1, i, x0:x1] = best if cols is None else cols[best]
        return choices

    # -- the accepted candidate, in place -------------------------------------

    def step_into(self, table: np.ndarray, mask: np.ndarray, eta: float, choice: np.ndarray) -> None:
        """Overwrite one kernel ``table`` with the step candidate (1 - eta) K +
        eta D toward the vertex kernel D of ``choice`` (|X|, |Y|), scaling
        only the u-columns of its ``mask``, and update the mask: a full step
        leaves only D's columns, a partial one adds them."""
        _scale(table, mask, 1.0 - eta)
        table[self._x, self._y, choice] += eta
        if eta == 1.0:
            mask[:] = False
        mask[choice.ravel()] = True

    def jump_into(self, table: np.ndarray, mask: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Overwrite one kernel ``table`` with a sweep's jump candidate, flat
        column cols[k] = (x, y) moved to the vertex vals[k], for each k, and
        add the vertices to its ``mask``."""
        flat = table.reshape(self.nx * self.ny, self.card_u)
        flat[cols] = 0.0
        flat[cols, vals] = 1.0
        mask[vals] = True

    def mix_into(self, table: np.ndarray, mask: np.ndarray, t: float) -> None:
        """Overwrite one kernel ``table`` with (1 - t) table + t (constant
        kernel), scaling only the u-columns of its ``mask``, and add column
        u = 0 to the mask; nothing when t <= 0."""
        if t <= 0.0:
            return
        _scale(table, mask, 1.0 - t)
        table[:, :, 0] += t
        mask[0] = True


def _narrow(per_col: int, keep: np.ndarray) -> np.ndarray | None:
    """The u-columns to read of arrays that hold ``per_col`` entries a column
    and are zero outside the union of the masks ``keep`` (rows, |U|): that
    union, widened to two columns if it has one (over one, einsum and sum
    add in another order), or None (every column) where that would skip
    fewer than BLOCK_ENTRIES entries, since gathering or indexing the
    columns then costs more than it saves."""
    nu = keep.shape[1]
    if per_col * (nu - 2) < BLOCK_ENTRIES:
        return None
    union = keep.any(axis=0)
    n = int(np.count_nonzero(union))
    if per_col * (nu - max(2, n)) < BLOCK_ENTRIES:
        return None
    if n == 1:
        union[np.argmin(union)] = True
    return np.flatnonzero(union)


def _choice_columns(keep: np.ndarray) -> np.ndarray | None:
    """The u-columns ``vertex_choices`` must read for rows whose masks are
    ``keep`` (rows, |U|): every masked column and each row's first unmasked
    one, which stands for all of them; None where that is every column."""
    cols = keep.any(axis=0)
    cols[np.argmin(keep, axis=1)] = True
    return None if cols.all() else np.flatnonzero(cols)


def _scale(table: np.ndarray, mask: np.ndarray, s: float) -> None:
    """Multiply one kernel tensor by ``s``, in place, touching only the
    u-columns ``_narrow`` keeps of its ``mask`` (the others are zero and
    would stay so)."""
    cols = _narrow(table.shape[0] * table.shape[1], mask[None])
    if cols is None:
        table *= s
    else:
        table[:, :, cols] *= s


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


def _initial_tables(ev: _Evaluator, p: Problem, cfg: OracleConfig, starts: Starts, restart: int,
                    out: np.ndarray) -> np.ndarray | slice:
    """Write restart r's starting kernel into ``out``, a zeroed (|X|, |Y|,
    |U|) array, and return the u-columns it may have put mass in. Restart 0
    relabels Y (y folded to y mod |U|); restart r >= 1 embeds its warm start
    ``starts[r - 1]``, where that is a mechanism no wider than |U|, in the
    first columns of u, to be re-evaluated from scratch by the search.
    Restarts with no warm start take seeded random kernels."""
    if restart == 0:
        cols = np.arange(ev.ny) % ev.card_u
        out[:, np.arange(ev.ny), cols] = 1.0
        return cols
    mech = starts[restart - 1] if restart <= len(starts) else None
    if mech is not None and mech.cardinality <= ev.card_u:
        # no wider than the evaluator's size-checked kernel, so within the cap
        out[:, :, : mech.cardinality] = mechanisms.materialize_monolithic(p, mech).table
        return slice(mech.cardinality)
    np.random.default_rng([cfg.seed, restart]).standard_exponential(out=out)
    out /= out.sum(axis=2, keepdims=True)
    return slice(None)


def _ascend_group(ev: _Evaluator, p: Problem, cfg: OracleConfig, starts: Starts,
                  restarts: range) -> tuple[list[float], tuple[float, np.ndarray, float]]:
    """Candidate-step ascent of a group of restarts in lockstep; returns the
    objective per restart, in order, as scored for the restart's last
    accepted kernel, and (objective, table, leak) of the first restart with
    the highest one, its table copied out of the group's stack.

    Every restart keeps its row of the group's state (kernel stack, column
    mask, best, leak, stall count, random stream) throughout. Each sweep
    scores BATCH candidates per live restart together, from the marginals
    of the live restarts' kernels over their masked columns; each restart
    walks its own candidates in order, accepting every one that beats its
    running best (the last accepted overwrites its kernel in place, the
    only candidate formed), and stops sweeping after 6 sweeps without an
    acceptance.
    """
    eps = p.epsilon
    nxy, nu = ev.nx * ev.ny, ev.card_u
    rngs = [np.random.default_rng([cfg.seed, r, 1]) for r in restarts]
    tables = np.zeros((len(rngs), ev.nx, ev.ny, nu))
    masks = np.zeros((len(rngs), nu), dtype=bool)
    for row, r in enumerate(restarts):
        masks[row, _initial_tables(ev, p, cfg, starts, r, tables[row])] = True
    every = np.arange(len(rngs))
    t_mix, scores = ev.repair(ev.terms(ev.occupied_marginals(tables, every, masks)[0]), eps, slack=LEAKAGE_SLACK)
    best, leak = ev.objective(scores).tolist(), scores[:, 0].tolist()
    for table, mask, t in zip(tables, masks, t_mix.tolist()):
        ev.mix_into(table, mask, t)
    stall = np.zeros(len(rngs), dtype=int)
    # large kernels get proportionally fewer sweeps to keep runtime flat
    iters = min(cfg.iters, max(6, int(cfg.iters * 12_000 / max(nxy * nu, 1))))
    ncols = min(8, nxy)
    nj = len(STEP_SIZES)
    for _ in range(iters):
        live = np.flatnonzero(stall < 6)
        if live.size == 0:
            break
        keep = masks[live]
        marg, kept = ev.occupied_marginals(tables, live, keep)
        # one log of the marginals serves both scorers; in place, to hold
        # only one array of its size
        ln = np.maximum(marg, _TINY)
        np.log(ln, out=ln)
        # the vertex choices skip columns where the marginals did
        read = None if kept is None else _choice_columns(keep)
        choices = ev.vertex_choices(marg, ln, read)
        ev.swept_entries += live.size * nxy * sum(nu if c is None else c.size for c in (kept, read))
        # single-column vertex jumps (coordinate moves), from each restart's stream
        cols = np.empty((live.size, ncols), dtype=np.intp)
        vals = np.empty((live.size, ncols), dtype=np.intp)
        for row, r in enumerate(live):
            cols[row] = rngs[r].choice(nxy, size=ncols, replace=False)
            vals[row] = rngs[r].integers(0, nu, size=ncols)
        moved = tables.reshape(len(rngs), nxy, nu)[live[:, None], cols]
        cands = ev.sweep_terms(marg, ln, choices, ev.terms(ev.jump_marginals(marg, moved, cols, vals)))
        t, scores = ev.repair(cands, eps, slack=LEAKAGE_SLACK)
        objs = ev.objective(scores).reshape(live.size, BATCH).tolist()
        ev.candidates += live.size * BATCH
        ev.sweeps += 1
        stall[live] += 1
        for row, r in enumerate(live):
            pick = -1
            for k, obj in enumerate(objs[row]):
                if obj > best[r] + ACCEPT_TOL:
                    best[r] = obj
                    pick = k
                    ev.accepted += 1
            if pick < 0:
                continue
            stall[r] = 0
            leak[r] = float(scores[row * BATCH + pick, 0])
            if pick == BATCH - 1:
                ev.jump_into(tables[r], masks[r], cols[row], vals[row])
            else:
                ev.step_into(tables[r], masks[r], STEP_SIZES[pick % nj], choices[row, pick // nj])
            ev.mix_into(tables[r], masks[r], float(t[row * BATCH + pick]))
    top = max(range(len(rngs)), key=best.__getitem__)
    # a copy, since a view would keep the whole stack alive through later groups
    return best, (best[top], tables[top].copy(), leak[top])


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
    group = max(1, GROUP_BUDGET // ev.row_floats())
    trace: list[float] = []
    best: tuple[float, np.ndarray, float] | None = None
    for first in range(0, cfg.restarts, group):
        ev.groups += 1
        objs, top = _ascend_group(ev, p, cfg, starts, range(first, min(first + group, cfg.restarts)))
        trace += objs
        if best is None or top[0] > best[0]:
            best = top
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
        swept_entries=ev.swept_entries,
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
    t = float(ev.repair(ev.terms(ev.marginals(m.table)), eps)[0][0])
    if t == 0.0:
        return m
    table = np.array(m.table)
    ev.mix_into(table, np.ones(m.alphabet_u, dtype=bool), t)
    return Kernel(table)


WARM_CARD_CAP = 1500
# restarts share a sweep while group x row_floats() stays within this (8 MiB)
GROUP_BUDGET = 2 ** 20
# the kernel entries a sweep must skip to read fewer u-columns (_narrow), and
# the most entries one argmax block of vertex_choices holds
BLOCK_ENTRIES = 2 ** 14


# the stages of a sandwich check, in order: its profile, allocations and
# the search's starts are its "constructions"
SANDWICH_STAGES = ("validate", "constructions", "search", "compute_bounds", "canonical_objective")


def sandwich_check(p: Problem, cfg: OracleConfig | None = None) -> SandwichReport:
    """Compare lower bound, constructed mechanism, search, and upper bound;
    the report times each of SANDWICH_STAGES (``stage_s``)."""
    if cfg is None:
        cfg = OracleConfig()
    ticks = [perf_counter()]
    stats = validate(p)
    ticks.append(perf_counter())
    # one profile and one set of allocations serve the warm-start |U|, the
    # search's starts and the constructed objective
    profile = mechanisms.refinement_profile(p)
    allocs = bounds_mod.canonical_allocations(p, stats)
    starts = canonical_starts(p, profile, allocs)
    # widen |U| (within reason) so the canonical mechanisms embed as warm
    # starts: the compositions, and in the trivial regime U = Y itself
    # (restart 0); the size-aware iteration budget keeps runtime flat
    cards = [s.cardinality for s in starts[1:] if s is not None]
    if stats.trivial:
        cards.append(_flat_sizes(p)[1])
    cfg = replace(cfg, card_u=max(cfg.card_u or default_card_u(p), *(min(c, WARM_CARD_CAP) for c in cards)))
    ticks.append(perf_counter())
    result = search(p, cfg, starts)
    ticks.append(perf_counter())
    rep = bounds_mod.compute_bounds(p, stats)
    ticks.append(perf_counter())
    mech_obj = mechanisms.canonical_objective(p, stats, profile, allocs)
    ticks.append(perf_counter())
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
        stage_s={name: b - a for name, a, b in zip(SANDWICH_STAGES, ticks, ticks[1:])},
    )
