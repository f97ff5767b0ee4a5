"""Search determinism, feasibility, projection, and sandwich behavior."""

import math
import weakref

import numpy as np
import pytest

from helpers import binary_y_component, entropy_mi, random_problem, wide_problem, xy_copy_component
from privbound import bounds as B
from privbound import mechanisms as M
from privbound import model
from privbound import oracle as O
from privbound.errors import PrivboundError, SizeCapError, ValidationError
from privbound.model import Component, Problem, User, trivial_optimum, validate
from privbound.probcore import Joint2, _mi

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
            rep = B.compute_bounds(p, validate(p))
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

    @pytest.mark.parametrize("iters", [1, 2])
    def test_iters_caps_the_sweeps(self, iters):
        # a small kernel: the size-aware floor of 6 sweeps does not lift
        # the budget above ``iters``
        res = O.search(random_problem(1), O.OracleConfig(restarts=1, iters=iters, seed=0))
        assert res.sweeps == iters

    def test_no_stale_group_table(self, monkeypatch):
        # groups of one restart: once a later group starts, a table an
        # earlier group returned is alive only if it is the best so far
        monkeypatch.setattr(O, "GROUP_BUDGET", 1)
        real = O._ascend_group
        seen = []  # (objective, weakref to the returned table) per group

        def tracked(*a, **k):
            if seen:
                best = max(range(len(seen)), key=lambda i: seen[i][0])
                assert all(ref() is None for i, (_, ref) in enumerate(seen) if i != best)
            objs, top = real(*a, **k)
            seen.append((top[0], weakref.ref(top[1])))
            return objs, top

        monkeypatch.setattr(O, "_ascend_group", tracked)
        for seed in range(6):
            seen.clear()
            res = O.search(random_problem(seed), O.OracleConfig(restarts=5, iters=4, seed=seed))
            assert res.groups == 5 and len(seen) == 5
        assert sum(ref() is not None for _, ref in seen) <= 1


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

    def test_release_starts_fall_back_under_cap(self, monkeypatch):
        # the refinement fits a 10,000-entry cap (6,320 entries), the
        # randomized release (18,960) does not: restarts 2 and 3 take seeded
        # kernels, and the search still runs
        rng = np.random.default_rng(61)
        c = Component("wide", Joint2(rng.dirichlet(np.ones(2 * 40)).reshape(2, 40)))
        p = single_user(0.1, c)
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", "10000")
        cfg = O.OracleConfig(card_u=4, restarts=4, iters=2, seed=0)
        ev = O._Evaluator(p, cfg.card_u)
        allocs = B.canonical_allocations(p, validate(p))
        assert set(allocs) == {"frl", "esfrl"}
        starts = O.canonical_starts(p, allocs)
        assert starts[0] is not None and starts[1:] == (None, None)
        for restart in (2, 3):
            seeded = np.random.default_rng([cfg.seed, restart]).exponential(size=(2, 40, 4))
            table = np.zeros((2, 40, 4))
            assert O._initial_tables(ev, p, cfg, starts, restart, table) == slice(None)
            assert np.array_equal(table, seeded / seeded.sum(axis=2, keepdims=True))
        res = O.search(p, cfg)
        assert len(res.trace) == 4
        assert res.leakage_at_best <= p.epsilon + 1e-9

    def test_sandwich_without_release_starts(self, monkeypatch):
        # the refinement fits a 10,000-entry cap, neither randomized release
        # does: the check has no start to widen |U| for and searches at the
        # default |U|
        rng = np.random.default_rng(61)
        c = Component("wide", Joint2(rng.dirichlet(np.ones(2 * 40)).reshape(2, 40)))
        p = single_user(0.1, c)
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", "10000")
        sw = O.sandwich_check(p, QUICK)
        assert sw.search.best_kernel.alphabet_u == O.default_card_u(p) == 16
        assert sw.lower_ok and sw.upper_ok

    def test_overflowing_alphabets_are_over_cap(self, monkeypatch):
        # 64 binary components: |X| = |Y| = 2^64, which an int64 product
        # wraps to 0; the evaluator must refuse before forming P(x, y)
        def unguarded(p):
            raise AssertionError("flattened joint formed past the size cap")

        monkeypatch.setattr(M, "flat_joint_xy", unguarded)
        comps = tuple(Component(f"c{i}", Joint2(np.array([[0.4, 0.1], [0.1, 0.4]]))) for i in range(64))
        p = single_user(0.01, *comps)
        assert tuple(map(math.prod, M.flat_axes(p))) == (2**64, 2**64)
        with pytest.raises(SizeCapError, match="oracle kernel"):
            O._Evaluator(p, 16)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            O.OracleConfig(seed=-1)


class TestMiKernel:
    def test_matches_probcore(self):
        # the MI kernel on one matrix against H(A) + H(B) - H(A,B); zero
        # cells and an all-zero column included
        rng = np.random.default_rng(0)
        for _ in range(40):
            m = rng.exponential(size=tuple(rng.integers(2, 6, size=2)))
            m[rng.random(m.shape) < 0.3] = 0.0
            m[:, rng.integers(m.shape[1])] = 0.0
            m[0, 0] += 0.1
            m /= m.sum()
            ref = entropy_mi(m)
            assert _mi(m)[0] == pytest.approx(ref, rel=1e-12, abs=1e-14)


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

    def test_trivial_wide_y(self):
        # |Y| = 18 is over default_card_u's 16; the warm-start |U| admits U = Y
        for seed in (0, 2, 3, 7, 13):
            p = random_problem(seed)
            pt = Problem(p.components, p.users, validate(p).total_mi, p.sfrl_constant)
            sw = O.sandwich_check(pt, O.OracleConfig(seed=0))
            assert sw.trivial, seed
            assert sw.search.best_kernel.alphabet_u == 18, seed
            assert sw.ok, (seed, sw)

    def test_explicit_card_u_is_a_floor(self):
        # card_u = 16 is under |Y| = 18: the check still widens |U| so that
        # U = Y fits, a wider card_u stands, and a lone search keeps its own
        p = random_problem(2)
        pt = Problem(p.components, p.users, validate(p).total_mi, p.sfrl_constant)
        cfg = O.OracleConfig(card_u=16, seed=0)
        sw = O.sandwich_check(pt, cfg)
        assert sw.search.best_kernel.alphabet_u == 18
        assert sw.ok, sw
        quick = O.OracleConfig(card_u=20, restarts=1, iters=1, seed=0)
        assert O.sandwich_check(pt, quick).search.best_kernel.alphabet_u == 20
        assert O.search(pt, cfg).best_kernel.alphabet_u == 16

    def test_deterministic_instance_collapses(self):
        p = single_user(0.1, xy_copy_component())
        sw = O.sandwich_check(p, O.OracleConfig(seed=0))
        assert sw.exact == pytest.approx(0.1, abs=1e-12)
        assert sw.mech_objective == pytest.approx(0.1, abs=1e-9)
        assert abs(sw.oracle_best - sw.exact) <= 2e-3

    def test_gamma_dominant_scan(self):
        # in the valid regime (eps <= H(X_t)) the second lower bound beats
        # the first only where some H(X_i|Y_i) > ln(I_i + 1) + c, which
        # takes |X_i| >= 55: the criterion-1 problems have none, the wide
        # problems (a 64 x 64 near-independent component, alone or beside
        # two small ones) do
        found = False
        problems = [random_problem(seed) for seed in range(200)]
        problems += [wide_problem(seed, beside) for seed in range(4) for beside in (False, True)]
        for p in problems:
            stats = validate(p)
            if stats.trivial:
                continue
            l1 = B.lower_bound_frl(p, stats)
            l2 = B.lower_bound_sfrl(p, stats)
            if l2 > l1:
                found = True
                sw = O.sandwich_check(p, O.OracleConfig(seed=0))
                assert l2 <= sw.oracle_best + 1e-6
        assert found


def compose_config(p, stats, cfg):
    """Reference: the warm-start |U| read off the composed canonical mechanisms."""
    card = O.default_card_u(p)
    if stats.trivial:
        # U = Y, the trivial regime's optimum
        ny = math.prod(c.card_y for c in p.components)
        card = max(card, min(ny, O.WARM_CARD_CAP))
    else:
        for variant in ("frl", "esfrl"):
            try:
                alloc = B.allocate_epsilon(p, stats, variant)
                mech = M.compose_multiuser(p, alloc)
                card = max(card, min(mech.cardinality, O.WARM_CARD_CAP))
            except (PrivboundError, ValueError):
                continue
    return O.OracleConfig(card_u=card, restarts=cfg.restarts, iters=cfg.iters, seed=cfg.seed)


class TestWideAlphabets:
    @pytest.mark.parametrize("beside", [False, True])
    def test_sandwich_drops_starts_over_cap(self, monkeypatch, beside):
        # the 64 x 64 component's refinement kernel is over the size cap:
        # the check, called alone, drops every warm start instead of
        # exiting, searches at the default |U| and keeps both bounds
        refused = []
        real = M.frl_construct

        def spy(c):
            try:
                return real(c)
            except SizeCapError:
                refused.append(c.name)
                raise

        monkeypatch.setattr(M, "frl_construct", spy)
        p = wide_problem(0, beside)
        sw = O.sandwich_check(p, QUICK)
        assert refused == ["wide"]
        assert sw.lower_ok and sw.upper_ok
        assert sw.search.best_kernel.alphabet_u == O.default_card_u(p) == 16
        assert all(math.isfinite(v) for v in (sw.lower, sw.mech_objective, sw.oracle_best, sw.upper))


class TestSandwichConfig:
    def test_matches_composed_cardinality(self):
        # the criterion-1 problems; |U| does not depend on the search budget
        cfg = O.OracleConfig(restarts=1, iters=1, seed=0)
        for seed in range(200):
            p = random_problem(seed)
            sw = O.sandwich_check(p, cfg)
            card_u = compose_config(p, validate(p), cfg).card_u
            assert sw.search.best_kernel.alphabet_u == card_u, seed

    def test_constructions_derived_once(self, monkeypatch):
        # one check validates, allocates and profiles once, and hands the
        # results to the warm-start |U|, the search's starts and the
        # objective; it builds each component's refinement once, for the
        # starts alone
        counts = {}
        names = ((model, "validate"), (B, "canonical_allocations"), (M, "refinement_profile"),
                 (M, "frl_construct"))
        for home, name in names:
            real = getattr(home, name)

            def wrapped(*a, _name=name, _real=real, **k):
                counts[_name] += 1
                return _real(*a, **k)

            # every module that holds the name, however it imported it
            for module in (model, B, M, O):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        # the criterion-1 problems, and problem 3 at eps 10 (trivial regime)
        p3 = random_problem(3)
        problems = [random_problem(seed) for seed in range(8)]
        problems.append(Problem(p3.components, p3.users, 10.0))
        assert sum(validate(p).trivial for p in problems) == 1
        for i, p in enumerate(problems):
            counts.update(validate=0, canonical_allocations=0, refinement_profile=0, frl_construct=0)
            O.sandwich_check(p, QUICK)
            assert counts == {"validate": 1, "canonical_allocations": 1, "refinement_profile": 1,
                              "frl_construct": p.n_components}, i

    def test_composes_at_most_twice(self, monkeypatch):
        # only the structured starts of restarts 2 and 3 compose a mechanism
        calls = []
        real = M.compose_multiuser
        monkeypatch.setattr(M, "compose_multiuser", lambda p, a: calls.append(a) or real(p, a))
        for seed in range(6):
            calls.clear()
            O.sandwich_check(random_problem(seed), QUICK)
            assert len(calls) <= 2, seed

    def test_refinements_built_once(self, monkeypatch):
        # the check's refinement profile also serves the search's structured starts
        calls = []
        real = M._interval_refinement
        monkeypatch.setattr(M, "_interval_refinement", lambda *a, **k: calls.append(1) or real(*a, **k))
        for seed in range(20):
            p = random_problem(seed)
            calls.clear()
            O.sandwich_check(p, QUICK)
            assert len(calls) == p.n_components, seed

    def test_search_with_given_profile_is_unchanged(self):
        for seed in range(6):
            p = random_problem(seed)
            a = O.search(p, QUICK)
            allocs = B.canonical_allocations(p, validate(p))
            b = O.search(p, QUICK, O.canonical_starts(p, allocs))
            assert a.trace == b.trace, seed
            assert np.array_equal(a.best_kernel.table, b.best_kernel.table), seed
