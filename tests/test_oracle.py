"""Search determinism, feasibility, projection, and sandwich behavior."""

import math

import numpy as np
import pytest

from helpers import binary_y_component, random_problem, xy_copy_component
from privbound import bounds as B
from privbound import mechanisms as M
from privbound import oracle as O
from privbound.errors import ValidationError
from privbound.model import Component, Problem, User, trivial_optimum, validate
from privbound.probcore import Joint2, mutual_information

QUICK = O.OracleConfig(restarts=4, iters=24, seed=0)


def single_user(eps, *comps, weight=1.0):
    return Problem(comps, (User(tuple(range(len(comps))), weight),), eps)


class TestSearch:
    def test_reaches_trivial_optimum(self):
        for seed in (0, 1, 2):
            p = random_problem(seed, max_n=2)
            stats = validate(p)
            pt = Problem(p.components, p.users, 1.1 * stats.total_mi + 0.01)
            res = O.search(pt, QUICK)
            assert res.best_objective >= trivial_optimum(pt) - 1e-6

    def test_deterministic_copy_pair(self):
        p = single_user(0.1, xy_copy_component())
        res = O.search(p, O.OracleConfig(seed=0))
        assert 0.1 - 2e-3 <= res.best_objective <= 0.1 + 1e-9

    def test_perfect_privacy_binary_y(self):
        for seed in (0, 3, 11):
            c = binary_y_component(seed)
            p = single_user(0.0, c)
            rep = B.perfect_privacy_bounds(p, validate(p))
            res = O.search(p, O.OracleConfig(seed=0))
            assert res.best_objective == pytest.approx(rep.pp_u2[0], abs=5e-3)

    def test_bitwise_determinism(self):
        p = random_problem(9)
        a = O.search(p, QUICK)
        b = O.search(p, QUICK)
        assert a.best_objective == b.best_objective
        assert a.trace == b.trace
        assert np.array_equal(a.best_kernel.table, b.best_kernel.table)

    def test_feasibility(self):
        for seed in range(8):
            p = random_problem(seed)
            res = O.search(p, QUICK)
            assert res.leakage_at_best <= p.epsilon + 1e-9

    def test_monotone_in_eps(self):
        p = random_problem(5)
        stats = validate(p)
        lo = Problem(p.components, p.users, 0.3 * stats.total_mi)
        hi = Problem(p.components, p.users, 0.6 * stats.total_mi)
        best_lo = O.search(lo, QUICK).best_objective
        best_hi = O.search(hi, QUICK).best_objective
        assert best_hi >= best_lo - 1e-6

    def test_projection_counters(self):
        # Newton repairs spend about 4 leakage evaluations each
        res = O.search(random_problem(1), QUICK)
        assert res.projections > 0
        assert res.leakage_evals / res.projections <= 8

    def test_restart_trace_length(self):
        p = random_problem(1)
        res = O.search(p, QUICK)
        assert len(res.trace) == QUICK.restarts
        assert res.best_objective == max(res.trace)


class TestSizeCap:
    def test_refinement_start_falls_back_under_cap(self, monkeypatch):
        # the all-refinement start (restart 1) needs 2*40*79 entries; under a
        # 1000-entry cap it is refused and a seeded kernel takes its place
        rng = np.random.default_rng(67)
        c = Component("wide", Joint2(rng.dirichlet(np.ones(2 * 40)).reshape(2, 40)))
        p = single_user(0.01, c)
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", "1000")
        res = O.search(p, O.OracleConfig(card_u=4, restarts=2, iters=2, seed=0))
        assert len(res.trace) == 2
        assert res.leakage_at_best <= p.epsilon + 1e-9

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            O.OracleConfig(seed=-1)


class TestMiKernel:
    def test_matches_probcore(self):
        # the oracle's vectorised MI against the reference; zero cells and
        # an all-zero column included
        rng = np.random.default_rng(0)
        for _ in range(40):
            m = rng.exponential(size=tuple(rng.integers(2, 6, size=2)))
            m[rng.random(m.shape) < 0.3] = 0.0
            m[:, rng.integers(m.shape[1])] = 0.0
            m[0, 0] += 0.1
            m /= m.sum()
            ref = mutual_information(Joint2(m))
            assert O._mi_from_joint_mat(m) == pytest.approx(ref, rel=1e-12, abs=1e-14)


class TestLeakageProject:
    def test_feasible_unchanged(self):
        p = single_user(1.0, xy_copy_component())
        k = M.identity_kernel(p.components[0])
        out = O.leakage_project(k, p, 1.0)
        assert out is k

    def test_identity_to_constant_at_zero(self):
        p = single_user(0.0, xy_copy_component())
        k = M.identity_kernel(p.components[0])
        out = O.leakage_project(k, p, 0.0)
        rep = M.evaluate_monolithic(p, out)
        assert rep.leakage == 0.0
        # all columns collapsed onto the first symbol
        assert np.allclose(out.table[:, :, 0], 1.0)

    def test_bisection_band(self):
        p = single_user(0.3, xy_copy_component())
        k = M.identity_kernel(p.components[0])
        out = O.leakage_project(k, p, 0.3)
        leak = M.evaluate_monolithic(p, out).leakage
        assert 0.3 - 1e-9 <= leak <= 0.3

    def test_scalar_map_is_continuous_and_bracketing(self):
        # independent check that mixing t -> leakage passes through the band
        p = single_user(0.3, xy_copy_component())
        k = M.identity_kernel(p.components[0])
        const = np.zeros_like(k.table)
        const[:, :, 0] = 1.0

        def leak_at(t):
            mixed = M.Kernel((1 - t) * k.table + t * const)
            return M.evaluate_monolithic(p, mixed).leakage

        assert leak_at(0.0) > 0.3 > leak_at(1.0)
        ts = np.linspace(0, 1, 21)
        vals = [leak_at(t) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestSandwich:
    def test_random_instances(self):
        for seed in range(6):
            p = random_problem(seed)
            sw = O.sandwich_check(p, QUICK)
            assert sw.ok, (seed, sw)

    def test_trivial_instance(self):
        p = single_user(2.0, xy_copy_component())
        sw = O.sandwich_check(p, QUICK)
        assert sw.trivial
        assert sw.ok
        assert sw.lower == pytest.approx(math.log(2), abs=1e-12)

    def test_deterministic_instance_collapses(self):
        p = single_user(0.1, xy_copy_component())
        sw = O.sandwich_check(p, O.OracleConfig(seed=0))
        assert sw.exact == pytest.approx(0.1, abs=1e-12)
        assert sw.mech_objective == pytest.approx(0.1, abs=1e-9)
        assert abs(sw.oracle_best - sw.exact) <= 2e-3

    def test_gamma_dominant_scan(self):
        # a second lower bound above the first requires a budget beyond the
        # argmax component's own entropy, where the formula leaves its
        # constructive range; flag the absence rather than assert one.
        found = False
        for seed in range(200):
            p = random_problem(seed)
            stats = validate(p)
            if stats.trivial:
                continue
            l1 = B.lower_bound_frl(p, stats)
            l2 = B.lower_bound_sfrl(p, stats)
            if l2 > l1:
                found = True
                sw = O.sandwich_check(p, O.OracleConfig(seed=0))
                assert l2 <= sw.oracle_best + 1e-6
        if not found:
            pytest.skip("no gamma-dominant instance in the seeded suite (expected; "
                        "dominance requires a budget beyond the target's entropy)")
