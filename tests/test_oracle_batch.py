"""Batched candidate scoring: the MI kernel, the repair and the whole search
against per-candidate references."""

import tracemalloc

import numpy as np
import pytest

from helpers import (
    const_marginals,
    entropy_mi,
    jump_table,
    mix_table,
    random_problem,
    step_table,
    toward_const,
)
from privbound import bounds as B
from privbound import oracle as O
from privbound.model import Component, Problem, User, validate
from privbound.probcore import ZERO_FLOOR, Joint2, _mi

QUICK = O.OracleConfig(restarts=4, iters=24, seed=0)


class TestBatchedMi:
    def test_matches_probcore_per_slice(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b, r, c = (int(v) for v in rng.integers(2, 6, size=3))
            m = rng.exponential(size=(b, r, c))
            m[rng.random(m.shape) < 0.3] = 0.0
            m[:, :, rng.integers(c)] = 0.0          # an all-zero column in every slice
            m[:, 0, 0] += 0.1
            m /= m.sum(axis=(1, 2), keepdims=True)
            mi = _mi(m)[0]
            assert mi.shape == (b,)
            for k in range(b):
                ref = entropy_mi(m[k])
                assert mi[k] == pytest.approx(ref, rel=1e-12, abs=1e-14)


def _random_batch(seed: int, size: int = 12):
    """An evaluator and the packed marginals of ``size`` random kernels."""
    p = random_problem(seed, max_n=2)
    rng = np.random.default_rng(seed)
    ev = O._Evaluator(p, int(rng.integers(2, 6)))
    k = rng.exponential(size=(size, ev.nx, ev.ny, ev.card_u)) ** 3
    return ev, ev.marginals(k / k.sum(axis=3, keepdims=True))


def _leak(xu_k: np.ndarray) -> float:
    return entropy_mi(xu_k / xu_k.sum())


def _ln(marg: np.ndarray) -> np.ndarray:
    """The logs of packed marginals that a sweep hands ``vertex_choices``
    and ``sweep_terms``."""
    return np.log(np.maximum(marg, O._TINY))


class TestBatchedRepair:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("where", ["above_band", "median", "all_feasible", "at_band"])
    def test_every_infeasible_candidate_lands_in_band(self, seed, where):
        ev, marg = _random_batch(seed)
        xu, users = ev.unpack(marg)
        leaks = np.array([_leak(m) for m in xu])
        eps = {
            "above_band": O.PROJECT_BAND * (1.0 + 1e-3),
            "median": float(np.median(leaks)),
            "all_feasible": float(leaks.max()) + 1e-6,
            "at_band": O.PROJECT_BAND,
        }[where]
        t = ev.repair(ev.terms(marg), eps)[0]
        mixed_xu, mixed_users = ev.unpack(toward_const(ev, marg, t))
        const_users = ev.unpack(const_marginals(ev))[1]
        infeasible = _mi(xu)[0] > eps
        assert ev.projections == int(infeasible.sum())
        if where == "all_feasible":
            assert not infeasible.any()
        for k in range(len(xu)):
            if not infeasible[k]:
                assert t[k] == 0.0
                assert np.array_equal(mixed_xu[k], xu[k])
            elif where == "at_band":
                assert t[k] == 1.0
            else:
                assert eps - O.PROJECT_BAND <= _leak(mixed_xu[k]) <= eps, (k, eps)
            # the user marginals are mixed by the same weight
            for m, mm, c in zip(users, mixed_users, const_users):
                assert np.allclose(mm[k], (1.0 - t[k]) * m[k] + t[k] * c[0], rtol=0, atol=1e-15)

    def test_batch_of_one_matches_batch(self):
        ev, marg = _random_batch(3)
        terms = ev.terms(marg)
        eps = float(np.median(_mi(ev.unpack(marg)[0])[0]))
        together = ev.repair(terms, eps)[0]
        alone = np.array([ev.repair(terms.take([k]), eps)[0][0] for k in range(len(marg))])
        assert np.allclose(together, alone, rtol=0, atol=1e-15)


def _step_case(seed: int, rows: int = 3):
    """An evaluator, the packed marginals of ``rows`` random kernels, their
    tables and vertex choices. The problem has a user who demands every
    component; the kernels have exact zeros (cells and whole u columns)
    and, in the last row, P(x,u) cells just above ``ZERO_FLOOR`` that the
    steps take to it or below."""
    rng = np.random.default_rng(seed)
    comps = tuple(
        Component(f"c{i}", Joint2(rng.dirichlet(np.ones(cx * cy)).reshape(cx, cy)))
        for i, (cx, cy) in enumerate(((2, 3), (3, 2))[: 1 + seed % 2])
    )
    n = len(comps)
    users = (User(tuple(range(n)), 1.0), User((n - 1,), 0.7), User((0,), 0.0))
    p = Problem(comps, users, 0.1)
    ev = O._Evaluator(p, 40)
    k = rng.exponential(size=(rows, ev.nx, ev.ny, ev.card_u)) ** 3
    k[rng.random(k.shape) < 0.2] = 0.0
    k[:, :, :, rng.permutation(ev.card_u)[:3]] = 0.0
    k[:, :, :, 0] += 1e-3
    k /= k.sum(axis=3, keepdims=True)
    # P(x, u) = m for the columns u of ``tiny``, m between the floor and
    # floor / (1 - eta) of the smaller steps
    tiny = rng.permutation(np.arange(1, ev.card_u))[:30]
    m = ZERO_FLOOR * rng.uniform(1.05, 1.6, size=(ev.nx, len(tiny)))
    k[-1][:, :, tiny] = (m / ev.px[:, None])[:, None, :]
    k[-1][:, :, 0] += 1.0 - k[-1].sum(axis=2)
    marg = ev.marginals(k)
    choices = rng.integers(0, ev.card_u, size=(rows, len(O.MULTIPLIERS), ev.nx, ev.ny))
    choices[:, 0, :, :] = ev.vertex_choices(marg, _ln(marg))[:, 0]
    choices[:, :, 0, 0] = tiny[0]    # column (0, 0) touches near-floor cells
    return ev, marg, k, choices


def _materialized(ev, marg, k, choices):
    """Packed marginals of every candidate of ``sweep_terms``, formed
    densely, each step from its own kernel tensor."""
    out = []
    for row in range(len(marg)):
        for c in range(O.BATCH - 1):
            out.append(ev.marginals(step_table(ev, k[row], c, choices[row]))[0])
    return np.array(out)


def _dense_mi(ev, marg):
    """I(X;U) and every I(C_j;U) of packed marginals, from ``_mi``."""
    xu, users = ev.unpack(marg)
    return np.stack([_mi(xu)[0]] + [_mi(u)[0] for u in users], axis=1)


class TestStepTerms:
    @pytest.mark.parametrize("seed", range(6))
    def test_match_materialized_candidates(self, seed):
        ev, marg, k, choices = _step_case(seed)
        eta_min = 1.0 - max(e for e in O.STEP_SIZES if e < 1.0)
        near = (marg > ZERO_FLOOR) & (marg <= ZERO_FLOOR / eta_min)
        assert near[-1].sum() >= 30 and not near[:-1].any()
        cands = ev.sweep_terms(marg, _ln(marg), choices)
        dense = _materialized(ev, marg, k, choices)
        assert np.allclose(ev.mi(cands), _dense_mi(ev, dense), rtol=0, atol=1e-12)
        # the columns u = 0 the repair reads
        assert np.allclose(cands.col0, dense[:, ev.col0_idx], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_repaired_utility_is_mix_then_mi(self, seed):
        ev, marg, k, choices = _step_case(seed)
        cands = ev.sweep_terms(marg, _ln(marg), choices)
        dense = _materialized(ev, marg, k, choices)
        eps = float(np.median(ev.mi(cands)[:, 0]))
        t, scores = ev.repair(cands, eps, slack=O.LEAKAGE_SLACK)
        assert (t > 0.0).sum() >= len(t) // 3
        # every family's repaired MI, against _mi of the mixed marginals
        ref = _dense_mi(ev, toward_const(ev, dense, t))
        assert np.allclose(scores, ref, rtol=0, atol=1e-12)
        assert np.allclose(ev.objective(scores), ref[:, 1:] @ ev.weights, rtol=0, atol=1e-12)

    def test_near_floor_cells_drop_out(self):
        # without the cells the steps take to the floor, the sums would be
        # off by about 1e-14 per cell; with 30 of them, by more than 1e-13
        ev, marg, k, choices = _step_case(0, rows=1)
        cands = ev.sweep_terms(marg, _ln(marg), choices)
        ref = _dense_mi(ev, _materialized(ev, marg, k, choices))
        assert np.abs(ev.mi(cands) - ref).max() < 1e-13


def _jump_case(seed: int, rows: int = 3):
    """An evaluator, ``rows`` kernel tensors with their packed marginals, and
    8 moved columns per row with their vertices. The problem has a user who
    demands every component and 24 columns over 4 or 6 rows of P(x,u), so
    every row moves two or more columns of one marginal row. In row 0, column
    u = 0 has mass only on the moved columns, which all jump elsewhere: every
    family's cells at u = 0 are exactly 0 after the jump. In row 1, four
    moved columns already sit on the vertex they jump to."""
    rng = np.random.default_rng(seed)
    comps = tuple(
        Component(f"c{i}", Joint2(rng.dirichlet(np.ones(cx * cy)).reshape(cx, cy)))
        for i, (cx, cy) in enumerate(((2, 2), (2, 3) if seed % 2 else (3, 2)))
    )
    users = (User((0, 1), 1.0), User((1,), 0.5), User((0,), 0.3))
    ev = O._Evaluator(Problem(comps, users, 0.1), 6)
    nxy, nu = ev.nx * ev.ny, ev.card_u
    k = rng.exponential(size=(rows, nxy, nu)) ** 3
    k[rng.random(k.shape) < 0.2] = 0.0
    k[:, :, -1] += 1e-3
    cols = np.stack([rng.choice(nxy, size=8, replace=False) for _ in range(rows)])
    vals = rng.integers(0, nu, size=(rows, 8))
    k[0, :, 0] = 0.0
    k[0, cols[0], 0] = rng.uniform(0.5, 2.0, size=8)
    vals[0] = rng.integers(1, nu, size=8)
    k /= k.sum(axis=2, keepdims=True)
    k[1, cols[1, :4]] = 0.0
    k[1, cols[1, :4], vals[1, :4]] = 1.0
    tables = k.reshape(rows, ev.nx, ev.ny, nu)
    return ev, tables, ev.marginals(tables), cols, vals


def _moved(tables, cols):
    """The moved columns' current entries K[x,y,.] that ``jump_marginals``
    takes, (rows, ncols, |U|)."""
    rows, nu = len(tables), tables.shape[-1]
    return tables.reshape(rows, -1, nu)[np.arange(rows)[:, None], cols]


class TestJumpMarginals:
    @pytest.mark.parametrize("seed", range(6))
    def test_match_materialized_jump(self, seed):
        ev, tables, marg, cols, vals = _jump_case(seed)
        assert all(np.unique(c // ev.ny).size < c.size for c in cols)
        shifted = ev.jump_marginals(marg, _moved(tables, cols), cols, vals)
        dense = ev.marginals(np.stack([jump_table(ev, t, c, v) for t, c, v in zip(tables, cols, vals)]))
        assert np.allclose(shifted, dense, rtol=0, atol=1e-15)
        # the residue case: the materialised cells are exactly 0
        assert not dense[0, ev.col0_idx].any()
        assert np.abs(shifted[0, ev.col0_idx]).max() <= ZERO_FLOOR
        for got, ref in zip(ev.terms(shifted), ev.terms(dense)):
            assert np.allclose(got, ref, rtol=0, atol=1e-12)
        assert np.allclose(ev.mi(ev.terms(shifted)), _dense_mi(ev, dense), rtol=0, atol=1e-12)

    def test_residue_case_is_reached(self):
        # the shift leaves rounding residue on cells that are exactly 0
        cases = [_jump_case(seed) for seed in range(6)]
        assert sum(ev.jump_marginals(m, _moved(t, c), c, v)[0, ev.col0_idx].any() for ev, t, m, c, v in cases) >= 3

    def test_vertex_at_current_symbol_moves_nothing(self):
        ev, tables, marg, cols, vals = _jump_case(0)
        shifted = ev.jump_marginals(marg, _moved(tables, cols[:, :4]), cols[:, :4], vals[:, :4])
        assert np.array_equal(shifted[1], marg[1])


class TestUserMarginals:
    def test_match_add_at_over_leading_axes(self):
        rng = np.random.default_rng(7)
        comps = tuple(
            Component(f"c{i}", Joint2(rng.dirichlet(np.ones(2 * ny)).reshape(2, ny)))
            for i, ny in enumerate((3, 2, 4))
        )
        # demands given out of order; model.User stores them sorted
        users = (User((2, 0), 1.0), User((1,), 0.5), User((0, 1, 2), 0.3), User((2, 1), 0.2))
        p = Problem(comps, users, 0.1)
        ev = O._Evaluator(p, 5)
        yu = rng.exponential(size=(2, 3, ev.ny, ev.card_u))
        got = ev.user_marginals(yu)
        for a in range(2):
            for b in range(3):
                for g, ref in zip(got, _ref_user_marginals(p, yu[a, b])):
                    assert g.shape[:2] == (2, 3)
                    assert np.allclose(g[a, b], ref, rtol=1e-14, atol=0)

    def test_memory_linear_in_y(self):
        # one 2 x 3000 component: a dense (|S|, |Y|) aggregation would take
        # 72 MB per user; the kernel itself is 0.8 MB
        rng = np.random.default_rng(0)
        comp = Component("c", Joint2(rng.dirichlet(np.ones(6000)).reshape(2, 3000)))
        p = Problem((comp,), (User((0,), 1.0), User((0,), 0.5)), 0.1)
        tracemalloc.start()
        try:
            ev = O._Evaluator(p, O.default_card_u(p))
            table = np.full((ev.nx, ev.ny, ev.card_u), 1.0 / ev.card_u)
            marg = ev.marginals(table)
            ev.vertex_choices(marg, _ln(marg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


# -- per-candidate reference: dense candidate tensors, one at a time ----------


def _ref_mi(m: np.ndarray) -> float:
    def plogp(v):
        v = v[v > ZERO_FLOOR]
        return float(np.sum(v * np.log(v)))

    return max(0.0, plogp(m) - plogp(m.sum(axis=1)) - plogp(m.sum(axis=0)))


def _user_maps(p):
    """Per user: the flat demanded sub-tuple of every flat y."""
    dims_y = tuple(c.card_y for c in p.components)
    multi = np.unravel_index(np.arange(int(np.prod(dims_y))), dims_y)
    return [
        np.ravel_multi_index(tuple(multi[i] for i in u.demands), tuple(dims_y[i] for i in u.demands))
        for u in p.users
    ]


def _ref_user_marginals(p, yu):
    users = []
    for idx in _user_maps(p):
        su = np.zeros((int(idx.max()) + 1, yu.shape[-1]))
        np.add.at(su, idx, yu)
        users.append(su)
    return users


def _ref_marginals(ev, p, table):
    xu = np.einsum("xy,xyu->xu", ev.pxy, table)
    yu = np.einsum("xy,xyu->yu", ev.pxy, table)
    return xu, _ref_user_marginals(p, yu)


def _ref_repair_t(xu, const_xu, eps, slack):
    g = _ref_mi(xu)
    if g <= eps + slack:
        return 0.0
    if eps <= O.PROJECT_BAND:
        return 1.0
    d = const_xu - xu
    target = eps - 0.5 * O.PROJECT_BAND
    lo, hi, t = 0.0, 1.0, 0.0
    for _ in range(80):
        m = (1.0 - t) * xu + t * const_xu
        col = m.sum(axis=0)
        ln_m = np.log(np.where(m > ZERO_FLOOR, m, 1.0))
        ln_col = np.log(np.where(col > ZERO_FLOOR, col, 1.0))
        slope = float(np.sum(d * ln_m) - d.sum(axis=0) @ ln_col)
        step = t - (g - target) / slope if slope < 0.0 else lo
        t = step if lo < step < hi else 0.5 * (lo + hi)
        g = _ref_mi((1.0 - t) * xu + t * const_xu)
        if g > eps:
            lo = t
        elif g < eps - O.PROJECT_BAND:
            hi = t
        else:
            return t
    return hi


def _ref_direction(ev, p, marg, lam):
    xu, users = marg
    tiny = O._TINY
    pu = np.log(np.maximum(xu.sum(axis=0), tiny))
    score = np.zeros((ev.ny, ev.card_u))
    for w, m, idx in zip(ev.weights, users, _user_maps(p)):
        if w == 0.0:
            continue
        lcond = np.log(np.maximum(m, tiny)) - np.log(np.maximum(m.sum(axis=1, keepdims=True), tiny))
        score += w * lcond[idx, :]
    full = (score - pu)[None, :, :].repeat(ev.nx, axis=0)
    if lam != 0.0:
        px = xu.sum(axis=1, keepdims=True)
        leak = np.log(np.maximum(xu, tiny)) - np.log(np.maximum(px, tiny)) - pu
        full = full - lam * leak[:, None, :]
    d = np.zeros((ev.nx, ev.ny, ev.card_u))
    x, y = np.indices((ev.nx, ev.ny))
    d[x, y, np.argmax(full, axis=2)] = 1.0
    return d


def _ref_ascend(ev, p, table, cfg, restart):
    rng = np.random.default_rng([cfg.seed, restart, 1])
    const = np.zeros_like(table)
    const[:, :, 0] = 1.0
    eps = p.epsilon
    const_xu, const_users = _ref_marginals(ev, p, const)

    def repaired(cand):
        xu, users = _ref_marginals(ev, p, cand)
        t = _ref_repair_t(xu, const_xu, eps, O.LEAKAGE_SLACK)
        if t == 0.0:
            return (xu, users), cand
        mixed = ((1.0 - t) * xu + t * const_xu,
                 [(1.0 - t) * m + t * c for m, c in zip(users, const_users)])
        return mixed, (1.0 - t) * cand + t * const

    def objective(marg):
        return sum(w * _ref_mi(m) for w, m in zip(ev.weights, marg[1]))

    marg, table = repaired(table)
    best = objective(marg)
    size = ev.nx * ev.ny * ev.card_u
    iters = max(6, min(cfg.iters, int(cfg.iters * 12_000 / max(size, 1))))
    stall = 0
    for _ in range(iters):
        cands = []
        for lam in O.MULTIPLIERS:
            d = _ref_direction(ev, p, marg, lam)
            cands.extend(table + eta * (d - table) for eta in O.STEP_SIZES)
        ncols = min(8, ev.nx * ev.ny)
        cols = rng.choice(ev.nx * ev.ny, size=ncols, replace=False)
        jump = table.copy().reshape(-1, ev.card_u)
        jump[cols] = 0.0
        jump[cols, rng.integers(0, ev.card_u, size=ncols)] = 1.0
        cands.append(jump.reshape(table.shape))
        improved = False
        for cand in cands:
            m, mixed = repaired(cand)
            obj = objective(m)
            if obj > best + O.ACCEPT_TOL:
                best, marg, table, improved = obj, m, mixed, True
        stall = 0 if improved else stall + 1
        if stall >= 6:
            break
    return best


def _start_table(ev, p, cfg, starts, restart):
    table = np.zeros((ev.nx, ev.ny, ev.card_u))
    O._initial_tables(ev, p, cfg, starts, restart, table)
    return table


def _ref_search(p, cfg):
    ev = O._Evaluator(p, O.default_card_u(p))
    starts = O.canonical_starts(p, B.canonical_allocations(p, validate(p)))
    return [_ref_ascend(ev, p, _start_table(ev, p, cfg, starts, r), cfg, r)
            for r in range(cfg.restarts)]


class TestSearchAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_best_objective(self, seed):
        p = random_problem(seed)
        res = O.search(p, QUICK)
        ref = _ref_search(p, QUICK)
        assert res.best_objective == pytest.approx(max(ref), rel=0, abs=1e-12)
        assert np.allclose(res.trace, ref, rtol=0, atol=1e-12)
        # the reference rescans every candidate, so this covers the sweeps
        # that score only a restart's jump
        assert res.jump_only > 0


class TestSearchCounters:
    def test_candidates_and_accepted(self):
        for seed in (1, 4):
            res = O.search(random_problem(seed), QUICK)
            assert res.candidates > 0
            # BATCH per restart-sweep that formed its marginals, 1 per jump-only one
            assert (res.candidates - res.jump_only) % O.BATCH == 0
            assert 0 < res.accepted <= res.candidates
            # the start of each restart is repaired too, but is no candidate
            assert res.projections <= res.candidates + QUICK.restarts


# -- occupied columns: the search's masks skip only zero columns -------------


def _masked_case(seed: int, case: str):
    """An evaluator, a stack of kernel tensors and their column masks (True
    where a kernel may hold mass). Every row has occupied columns in the
    middle of u and empty ones before and after; rows differ in their masks.
    ``case`` picks the twist: "col0_empty" (no row occupies column u = 0),
    "all_occupied" (every mask full), "one_row" (one row, one column: a
    vertex kernel), "zero_pxy" (P(x,y) has a zero cell, and the kernel puts
    mass there in a column no other cell of its row uses, so that column's
    marginals are all 0 though its mask is set). Where the weights sum
    below 1, as in those three, an empty column outscores every occupied
    one, and the argmax picks it."""
    rng = np.random.default_rng(seed)
    mass = rng.dirichlet(np.ones(15)).reshape(5, 3)
    if case == "zero_pxy":
        mass[2, 1] = 0.0
        mass /= mass.sum()
    # flattened |X| = 15, |Y| = 6: most block sizes leave a partial last block
    comps = (Component("a", Joint2(mass)), Component("b", Joint2(rng.dirichlet(np.ones(6)).reshape(3, 2))))
    w = (0.5, 0.3) if case in ("col0_empty", "one_row", "zero_pxy") else (1.0, 0.6)
    users = (User((0, 1), w[0]), User((1,), w[1]), User((0,), 0.0))
    ev = O._Evaluator(Problem(comps, users, 0.1), 24)
    rows = 1 if case == "one_row" else 3
    masks = np.zeros((rows, ev.card_u), dtype=bool)
    for r in range(rows):
        masks[r, rng.choice(np.arange(1, ev.card_u - 1), size=3 + 4 * r, replace=False)] = True
    if case == "all_occupied":
        masks[:] = True
    elif case != "col0_empty":
        masks[0, 0] = True
    tables = rng.exponential(size=(rows, ev.nx, ev.ny, ev.card_u)) * masks[:, None, None, :]
    if case == "one_row":
        vertex = np.flatnonzero(masks[0])[-1]
        masks[0] = np.arange(ev.card_u) == vertex
        tables[0] = masks[0]
    if case == "zero_pxy":
        # flat x = 6 is (2, 0) and flat y = 2 is (1, 0): P(x,y) = 0
        assert ev.pxy[6, 2] == 0.0
        lone = np.flatnonzero(~masks.any(axis=0))[-1]
        tables[0, 6, 2, :] = 0.0
        tables[0, 6, 2, lone] = 1.0
        masks[0, lone] = True
    tables /= tables.sum(axis=3, keepdims=True)
    return ev, tables, masks


CASES = ["col0_empty", "all_occupied", "rows_differ", "one_row", "zero_pxy"]


def _dense_choices(ev, marg, ln):
    """Reference for ``vertex_choices``: the same arithmetic over every
    u-column, with one unblocked argmax per multiplier."""
    (xu, users), (ln_xu, ln_users) = ev.unpack(marg), ev.unpack(ln)
    rows = len(xu)
    pu = np.log(np.maximum(xu.sum(axis=1), O._TINY))
    score = np.zeros((rows, *ev.dims_y, ev.card_u))
    for w, m, ln_m, shape in zip(ev.weights, users, ln_users, ev.user_shapes):
        if w != 0.0:
            lcond = ln_m - np.log(np.maximum(m.sum(axis=2, keepdims=True), O._TINY))
            score += w * lcond.reshape(rows, *shape)
    score = score.reshape(rows, ev.ny, ev.card_u) - pu[:, None, :]
    leak = ln_xu - np.log(np.maximum(xu.sum(axis=2, keepdims=True), O._TINY)) - pu[:, None, :]
    return np.stack([np.argmax(score[:, None] - lam * leak[:, :, None], axis=3) for lam in O.MULTIPLIERS], axis=1)


class TestOccupiedColumns:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("entries", [1, 7 * 24, 500, 2 ** 14, 10 ** 12])
    def test_vertex_choices_match_full_width(self, monkeypatch, case, entries):
        ev, tables, masks = _masked_case(3, case)
        marg = ev.marginals(tables)
        if case == "zero_pxy":
            # a masked column of row 0 whose marginals are all 0
            assert (masks[0] & ~ev.unpack(marg)[0][0].any(axis=0)).any()
        ref = _dense_choices(ev, marg, _ln(marg))
        # the set a sweep reads where every skipped column counts, then the
        # argmax in blocks of ``entries``
        monkeypatch.setattr(O, "BLOCK_ENTRIES", 1)
        cols = O._narrow(len(masks) * ev.nx * ev.ny, masks)
        assert (cols is None) == (case == "all_occupied")
        monkeypatch.setattr(O, "BLOCK_ENTRIES", entries)
        got = ev.vertex_choices(marg, _ln(marg), cols)
        assert np.array_equal(got, ref)
        assert np.array_equal(ev.vertex_choices(marg, _ln(marg)), ref)
        # the argmax picks each row's first unoccupied column, which stands
        # for all of them
        if case != "all_occupied":
            first = np.argmin(masks, axis=1)[:, None, None, None]
            assert (ref == first).any() == (case != "rows_differ")

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("entries", [1, 2 ** 14])
    def test_marginals_match_full_width(self, monkeypatch, case, entries):
        ev, tables, masks = _masked_case(4, case)
        monkeypatch.setattr(O, "BLOCK_ENTRIES", entries)
        for live in (np.arange(len(tables)), np.arange(len(tables))[-1:]):
            cols = O._narrow(live.size * ev.nx * ev.ny, masks[live])
            marg = ev.occupied_marginals(tables, live, cols)
            assert np.array_equal(marg, ev.marginals(tables)[live])
            if entries == 1 and case != "all_occupied":
                # never a single column: einsum would add in another order
                assert cols is not None and 2 <= cols.size < ev.card_u
                assert cols.size == 2 or case != "one_row"
            if entries == 2 ** 14:
                assert cols is None

    def test_narrow_keeps_columns_only_where_enough_are_skipped(self, monkeypatch):
        monkeypatch.setattr(O, "BLOCK_ENTRIES", 100)
        keep = np.zeros((2, 14), dtype=bool)
        keep[0, [0, 3, 7]] = True
        keep[1, [0, 7]] = True
        # the union {0, 3, 7} plus each row's first empty column, 1 in both
        # rows; 25 x (14 - 4) skipped entries reach the threshold
        assert np.array_equal(O._narrow(25, keep), [0, 1, 3, 7])
        # the threshold counts the set, not the union: 9 x (14 - 4) do not
        assert O._narrow(9, keep) is None
        keep[1, 1] = True
        # row 1's first empty column is now 2
        assert np.array_equal(O._narrow(25, keep), [0, 1, 2, 3, 7])
        assert O._narrow(11, keep) is None
        # a lone masked column, paired with its first empty one
        lone = np.zeros((1, 12), dtype=bool)
        lone[0, 5] = True
        assert np.array_equal(O._narrow(20, lone), [0, 5])
        lone[0, 0] = True
        assert np.array_equal(O._narrow(20, lone), [0, 1, 5])
        # every column occupied, or too few entries for any skip to count
        assert O._narrow(10 ** 6, np.ones((2, 12), dtype=bool)) is None
        assert O._narrow(9, lone) is None

    @pytest.mark.parametrize("entries", [1, 2 ** 14])
    def test_in_place_updates_match_references(self, monkeypatch, entries):
        monkeypatch.setattr(O, "BLOCK_ENTRIES", entries)
        ev, tables, masks = _masked_case(5, "col0_empty")
        rng = np.random.default_rng(5)
        table, mask = tables[1].copy(), masks[1].copy()
        marg = ev.marginals(table)
        choices = ev.vertex_choices(marg, _ln(marg), O._narrow(ev.nx * ev.ny, mask[None]))[0]
        nj = len(O.STEP_SIZES)
        for k in [8, 1, 3, 6, 4, 2, 8, 5, 7, 0, 3]:     # every step size; k = 8 is a jump
            t = float(rng.choice([0.0, 0.3, 1e-9]))
            if k == O.BATCH - 1:
                cols = rng.choice(ev.nx * ev.ny, size=8, replace=False)
                vals = rng.integers(0, ev.card_u, size=8)
                ref = mix_table(jump_table(ev, table, cols, vals), t)
                ev.jump_into(table, mask, cols, vals)
            else:
                ref = mix_table(step_table(ev, table, k, choices), t)
                ev.step_into(table, mask, O.STEP_SIZES[k % nj], choices[k // nj])
            ev.mix_into(table, mask, t)
            assert np.array_equal(table, ref)
            # the mask still covers every column that holds mass
            assert not table[:, :, ~mask].any()
            if k % nj == nj - 1 and k < O.BATCH - 1 and t == 0.0:
                # a full step leaves only its direction's columns
                assert np.array_equal(mask, np.isin(np.arange(ev.card_u), choices[k // nj]))

    @pytest.mark.parametrize("budget", [1, O.GROUP_BUDGET])
    def test_masks_cover_kernels_in_search(self, monkeypatch, budget):
        # columns are skipped wherever any can be (BLOCK_ENTRIES = 1); at every
        # sweep, each live kernel's mass lies inside its mask, and so inside
        # the columns read, in groups of one and in groups of every restart
        monkeypatch.setattr(O, "BLOCK_ENTRIES", 1)
        monkeypatch.setattr(O, "GROUP_BUDGET", budget)
        seen, masks = [], []
        narrow, occupied = O._narrow, O._Evaluator.occupied_marginals

        def noted(per_col, keep):
            masks.append(keep)
            return narrow(per_col, keep)

        def checked(self, tables, rows, cols):
            keep = masks.pop()
            assert not np.any(tables[rows] * ~keep[:, None, None, :])
            if cols is not None:
                assert not np.delete(tables[rows], cols, axis=3).any()
            seen.extend(keep.mean(axis=1))
            return occupied(self, tables, rows, cols)

        monkeypatch.setattr(O, "_narrow", noted)
        monkeypatch.setattr(O._Evaluator, "occupied_marginals", checked)
        for seed in range(4):
            O.sandwich_check(random_problem(seed, max_n=2), O.OracleConfig(restarts=4, iters=12))
        assert len(seen) > 40 and min(seen) < 0.5 and not masks

    def test_start_masks_cover_starts(self):
        # restart 0 folds y to y mod |U|; a warm start fills its first
        # columns; a seeded start fills every column
        p = random_problem(1, max_n=2)
        starts = O.canonical_starts(p, B.canonical_allocations(p, validate(p)))
        cfg = O.OracleConfig(seed=3)
        for card_u in (3, max(s.cardinality for s in starts if s is not None)):
            ev = O._Evaluator(p, card_u)
            for restart in range(len(starts) + 2):
                table = np.zeros((ev.nx, ev.ny, card_u))
                mask = np.zeros(card_u, dtype=bool)
                mask[O._initial_tables(ev, p, cfg, starts, restart, table)] = True
                assert not table[:, :, ~mask].any()
                assert np.allclose(table.sum(axis=2), 1.0, rtol=0, atol=1e-12)

    def test_swept_entries_below_full_width_when_warm_started(self, monkeypatch):
        rng = np.random.default_rng(3)
        comps = tuple(
            Component(f"c{i}", Joint2(rng.dirichlet(np.ones(a * b)).reshape(a, b)))
            for i, (a, b) in enumerate(((3, 3), (3, 4)))
        )
        p = Problem(comps, (User((0, 1), 1.0), User((0,), 0.5)), 0.2)
        report = O.sandwich_check(p)
        res = report.search
        nu = res.best_kernel.alphabet_u
        full = 2 * 108 * nu * (res.candidates - res.jump_only) // O.BATCH
        assert report.ok and nu > 200
        # one group reads the union of its restarts' masks
        assert res.groups == 1 and 0 < res.swept_entries < full
        # a restart alone reads only its own
        monkeypatch.setattr(O, "GROUP_BUDGET", 1)
        alone = O.sandwich_check(p).search
        assert alone.groups == 6 and 0 < alone.swept_entries < full / 2

    def test_swept_entries_full_width_when_every_column_occupied(self, monkeypatch):
        # one sweep from seeded starts and restart 0 with |U| <= |Y|: every
        # mask is full, so no column is skipped, even where any could be
        monkeypatch.setattr(O, "BLOCK_ENTRIES", 1)
        p = random_problem(2, max_n=2)
        nxy = int(np.prod([c.card_x for c in p.components])) * int(np.prod([c.card_y for c in p.components]))
        cfg = O.OracleConfig(card_u=2, restarts=3, iters=1)
        res = O.search(p, cfg, starts=())
        assert res.candidates == 3 * O.BATCH
        assert res.swept_entries == 2 * nxy * 2 * res.candidates // O.BATCH
        # with more sweeps, full steps narrow the masks and columns are skipped
        wide = O.OracleConfig(card_u=16, restarts=3, iters=24)
        res = O.search(p, wide, starts=())
        assert res.swept_entries < 2 * nxy * 16 * (res.candidates - res.jump_only) // O.BATCH

    def test_vertex_choices_memory_blocked(self):
        # one wide row: 16 x 16 x 1200 = 307,200 entries (2.46 MB per
        # float64 temporary); the argmax runs in blocks of BLOCK_ENTRIES,
        # and what is left are (|X| or |Y|, |U|) arrays
        rng = np.random.default_rng(9)
        comps = tuple(Component(f"c{i}", Joint2(rng.dirichlet(np.ones(16)).reshape(4, 4))) for i in range(2))
        ev = O._Evaluator(Problem(comps, (User((0, 1), 1.0), User((1,), 0.5)), 0.1), 1200)
        table = rng.exponential(size=(ev.nx, ev.ny, ev.card_u))
        marg = ev.marginals(table / table.sum(axis=2, keepdims=True))
        ln = _ln(marg)
        full = ev.nx * ev.ny * ev.card_u * 8
        assert full >= 3e5 * 8
        tracemalloc.start()
        try:
            ev.vertex_choices(marg, ln)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full / 2, (peak, full)
