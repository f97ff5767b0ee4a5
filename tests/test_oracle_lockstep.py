"""Lockstep restart groups, the closed-form repair on column u = 0, and the
input checks of ``leakage_project``."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from helpers import const_marginals, random_problem, xy_copy_component
from privbound import mechanisms as M
from privbound import oracle as O
from privbound.errors import AlphabetMismatchError, ValidationError
from privbound.model import Component, Problem, User
from privbound.probcore import Joint2, _mi

QUICK = O.OracleConfig(restarts=4, iters=24, seed=0)


def _search_grouped(monkeypatch, p, cfg, budget):
    monkeypatch.setattr(O, "GROUP_BUDGET", budget)
    return O.search(p, cfg)


def _assert_same_search(alone, together):
    """Bit for bit the same search; only sweeps, groups and swept_entries
    may differ."""
    assert alone.trace == together.trace
    assert np.array_equal(alone.best_kernel.table, together.best_kernel.table)
    assert alone.leakage_at_best == together.leakage_at_best
    for name in ("projections", "leakage_evals", "candidates", "accepted", "jump_only"):
        assert getattr(alone, name) == getattr(together, name), name


class TestGroupsAgree:
    @pytest.mark.parametrize("seed", range(12))
    def test_groups_of_one_match_one_group(self, monkeypatch, seed):
        p = random_problem(seed)
        alone = _search_grouped(monkeypatch, p, QUICK, 1)
        together = _search_grouped(monkeypatch, p, QUICK, 10**12)
        assert alone.groups == QUICK.restarts
        assert together.groups == 1
        assert np.allclose(alone.trace, together.trace, rtol=0, atol=1e-12)
        _assert_same_search(alone, together)
        # one group sweeps as often as its longest restart
        assert together.sweeps <= alone.sweeps <= QUICK.restarts * together.sweeps
        # a sweep of one row scores BATCH candidates, or only its jump
        assert alone.candidates == O.BATCH * alone.sweeps - (O.BATCH - 1) * alone.jump_only

    @pytest.mark.parametrize("seed", [0, 1, 3, 9, 12])
    def test_narrowed_groups_match_groups_of_one(self, monkeypatch, seed):
        # warm-started checks that skip columns wherever any can be
        # (BLOCK_ENTRIES = 1): under the default budget, sweeps of two or
        # more rows read only the union of their masks
        monkeypatch.setattr(O, "BLOCK_ENTRIES", 1)
        narrowed = []
        occupied = O._Evaluator.occupied_marginals

        def spy(self, tables, rows, cols):
            narrowed.append(cols is not None and rows.size >= 2)
            return occupied(self, tables, rows, cols)

        monkeypatch.setattr(O._Evaluator, "occupied_marginals", spy)
        p = random_problem(seed)
        together = O.sandwich_check(p, QUICK).search
        assert together.groups == 1 and any(narrowed)
        monkeypatch.setattr(O, "GROUP_BUDGET", 1)
        alone = O.sandwich_check(p, QUICK).search
        assert alone.groups == QUICK.restarts
        _assert_same_search(alone, together)

    @pytest.mark.parametrize("shape, card_u, iters", [((2, 4), 64, 6), ((2, 2), None, 2)])
    def test_group_memory_capped(self, shape, card_u, iters):
        # restarts past one group's run in later groups, so four groups'
        # worth peaks within 1 MB of one group's: for a 4096-entry kernel
        # (groups of 49) and for a 16 x 14 one (groups of 293), whose sweep
        # allocates about 20 times its kernel per row
        rng = np.random.default_rng(5)
        comps = tuple(
            Component(f"c{i}", Joint2(rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)))
            for i in range(2)
        )
        p = Problem(comps, (User((0, 1), 1.0), User((0,), 0.5)), 0.2)
        card_u = card_u or O.default_card_u(p)
        group = O.GROUP_BUDGET // O._Evaluator(p, card_u).row_floats()
        peaks = {}
        for restarts in (group, 4 * group):
            cfg = O.OracleConfig(card_u=card_u, restarts=restarts, iters=iters, seed=0)
            tracemalloc.start()
            try:
                res = O.search(p, cfg)
                peaks[restarts] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(res.trace) == restarts
            assert res.groups == restarts // group
        assert peaks[4 * group] <= peaks[group] + 1e6, peaks


class TestHeldMarginals:
    @pytest.mark.parametrize("budget", [1, O.GROUP_BUDGET])
    @pytest.mark.parametrize("entries", [1, O.BLOCK_ENTRIES])
    def test_held_jumps_read_their_kernels_marginals(self, monkeypatch, budget, entries):
        # every held row's jump is shifted from marginals equal, bit for bit,
        # to those of its current kernel, which is the one its last sweep
        # scored: a restart that accepted a candidate keeps no marginals. A
        # held row is found by the moved columns' entries it was handed; one
        # held in a sweep and fresh in the next accepted its jump, which
        # seeds 13 and 29 reach.
        monkeypatch.setattr(O, "GROUP_BUDGET", budget)
        monkeypatch.setattr(O, "BLOCK_ENTRIES", entries)
        occupied, jump = O._Evaluator.occupied_marginals, O._Evaluator.jump_marginals
        state = {"held": 0, "accepted": 0}

        def fresh_spy(self, tables, rows, cols):
            if tables is not state.get("tables"):
                state.update(tables=tables, swept={}, held_rows=set())
            state["fresh"] = rows
            return occupied(self, tables, rows, cols)

        def jump_spy(self, margs, k, cols, vals):
            tables, swept = state["tables"], state["swept"]
            fresh = state.pop("fresh", np.empty(0, dtype=int)).tolist()
            state["accepted"] += len(state["held_rows"].intersection(fresh))
            flat = tables.reshape(len(tables), -1, tables.shape[-1])
            held_rows = set()
            for m, k_row, c in zip(margs[len(fresh):], k[len(fresh):], cols[len(fresh):]):
                rows = [r for r in range(len(tables))
                        if r not in fresh and swept.get(r) == tables[r].tobytes()
                        and np.array_equal(flat[r, c], k_row) and np.array_equal(m, self.marginals(tables[r])[0])]
                assert rows
                held_rows.add(rows[0])
            state["held"] += len(margs) - len(fresh)
            state["held_rows"] = held_rows
            swept.update((r, tables[r].tobytes()) for r in fresh)
            return jump(self, margs, k, cols, vals)

        monkeypatch.setattr(O._Evaluator, "occupied_marginals", fresh_spy)
        monkeypatch.setattr(O._Evaluator, "jump_marginals", jump_spy)
        for seed in (1, 2, 13, 29):
            state["held"] = 0
            res = O.sandwich_check(random_problem(seed, max_n=2), QUICK).search
            assert state["held"] == res.jump_only > 0
        assert state["accepted"] >= 3


class TestClosedFormLeakage:
    """``mixed``'s P(x,u) column against ``_mi`` of the explicitly mixed
    P(x,u); the user's family is the constant kernel's P(y,u). The
    u >= 1 entries are 0 or at least 1e-2, so that at t = 1 - 1e-12 none
    of them falls to ``ZERO_FLOOR``, where ``_mi`` would drop it."""

    TS = (0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0)

    def _cases(self):
        rng = np.random.default_rng(11)
        px = np.array([0.2, 0.5, 0.3])
        p = Problem(
            (Component("c", Joint2(px[:, None] * rng.dirichlet(np.ones(2), size=3))),),
            (User((0,), 1.0),), 0.1,
        )
        ev = O._Evaluator(p, 4)
        for case in ("dense", "zero_cells", "zero_u0"):
            k = 0.1 + rng.random((3, 4))
            if case == "zero_cells":
                k[0, 1] = k[2, 3] = k[1, 0] = 0.0
            if case == "zero_u0":
                k[:, 0] = 0.0
            yield ev, ev.px[:, None] * (k / k.sum(axis=1, keepdims=True))

    @staticmethod
    def _reference(ev, xu, t):
        """Leakage and slope of (1 - t) xu + t const_xu from ``_mi``'s logs."""
        const_xu = ev.unpack(const_marginals(ev))[0][0]
        g, ln_m, ln_col = _mi((1.0 - t) * xu + t * const_xu)
        d = const_xu - xu
        return float(g), float((d * ln_m).sum() - d.sum(axis=0) @ ln_col)

    def test_matches_mixed_mi(self):
        for ev, xu in self._cases():
            _, ln_m, ln_col = _mi(xu)
            rest = (xu[:, 1:] * ln_m[:, 1:]).sum() - xu.sum(axis=0)[1:] @ ln_col[1:]
            col0 = np.concatenate([xu[:, 0], ev.p_rows[ev.nx:]])[None]
            for t in self.TS:
                g, slope = (v[:, 0] for v in ev.mixed(col0, np.array([[rest, 0.0]]), np.array([t])))
                ref_g, ref_slope = self._reference(ev, xu, t)
                assert g[0] == pytest.approx(ref_g, rel=0, abs=1e-13), t
                if t == 1.0:
                    # the u >= 1 columns are 0, and 0 ln 0 = 0 drops their
                    # part of the slope; compare with the left limit
                    ref_slope = self._reference(ev, xu, 1.0 - 1e-12)[1]
                    assert slope[0] == pytest.approx(ref_slope, rel=0, abs=1e-9)
                else:
                    assert slope[0] == pytest.approx(ref_slope, rel=0, abs=1e-13), t


class TestOncePerSearch:
    def test_validate_once(self, monkeypatch):
        calls = []
        real = O.validate

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(O, "validate", counting)
        O.search(random_problem(3), O.OracleConfig(restarts=6, iters=4, seed=0))
        assert len(calls) == 1

    def test_sandwich_report_carries_search(self):
        p = random_problem(2)
        rep = O.sandwich_check(p, QUICK)
        assert rep.search is not None
        assert rep.search.best_objective == rep.oracle_best
        assert rep.search.sweeps > 0 and rep.search.groups >= 1
        # the search result takes no part in equality or repr
        assert dataclasses.replace(rep, search=None) == rep
        assert "search=" not in repr(rep)

    def test_sandwich_report_times_its_stages(self):
        rep = O.sandwich_check(random_problem(2), QUICK)
        assert tuple(rep.stage_s) == O.SANDWICH_STAGES
        assert all(s >= 0.0 for s in rep.stage_s.values())
        assert rep.stage_s["search"] > 0.0
        # wall clocks take no part in equality or repr
        assert dataclasses.replace(rep, stage_s={}) == rep
        assert "stage_s=" not in repr(rep)


class TestLeakageProjectInput:
    def _copy_pair(self):
        c = xy_copy_component()
        p = Problem((c,), (User((0,), 1.0),), 0.3)
        return p, M.identity_kernel(c)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps(self, eps):
        p, k = self._copy_pair()
        with pytest.raises(ValidationError, match="eps"):
            O.leakage_project(k, p, eps)

    def test_kernel_alphabet_mismatch(self):
        p, _ = self._copy_pair()
        k = M.Kernel(np.full((3, 2, 2), 0.5))
        with pytest.raises(AlphabetMismatchError, match="3x2"):
            O.leakage_project(k, p, 0.3)
