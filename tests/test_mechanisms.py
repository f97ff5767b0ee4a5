"""Constructions: refinement coupling, randomized release, composition,
evaluation paths, and the decomposition transforms."""

import json
import math

import numpy as np
import pytest

from helpers import (
    bsc_component,
    random_component,
    random_problem,
    xy_copy_component,
)
from privbound import bounds as B
from privbound import mechanisms as M
from privbound import probcore as pc
from privbound.errors import SizeCapError, ValidationError
from privbound.model import Component, Problem, User, validate
from privbound.probcore import Joint2

LN2 = math.log(2.0)


def single_user(eps, *comps, weight=1.0):
    return Problem(comps, (User(tuple(range(len(comps))), weight),), eps)


def kernel_joint(c: Component, k: M.Kernel) -> pc.JointN:
    return M._component_joint(c, k)


def leakage_of(c, k):
    return pc.mi_between(kernel_joint(c, k), [0], [2])


def utility_of(c, k):
    return pc.mi_between(kernel_joint(c, k), [1], [2])


def determinism_residual(c, k):
    j = kernel_joint(c, k)
    return pc.joint_entropy(j) - pc.marginal_entropy(j, [0, 2])


class TestFrlConstruct:
    def test_independent_pair_relabels_y(self):
        c = Component("ind", Joint2(np.outer([0.4, 0.6], [0.3, 0.7])))
        k = M.frl_construct(c)
        assert k.alphabet_u == 2
        assert utility_of(c, k) == pytest.approx(pc.entropy(c.joint.marginal_cols()), abs=1e-12)

    def test_copy_pair_collapses(self):
        c = xy_copy_component()
        k = M.frl_construct(c)
        assert k.alphabet_u == 1

    def test_worked_refinement(self):
        # P(y|x=0) = (0.3, 0.7), P(y|x=1) = (0.6, 0.4), uniform X
        c = Component("w", Joint2(np.array([[0.15, 0.35], [0.30, 0.20]])))
        k = M.frl_construct(c)
        assert k.alphabet_u == 3
        j = kernel_joint(c, k)
        assert np.allclose(j.marginal([2]).table, [0.3, 0.3, 0.4], atol=1e-12)
        assert leakage_of(c, k) <= 1e-10
        assert determinism_residual(c, k) <= 1e-10

    def test_guarantees_on_random_components(self):
        rng = np.random.default_rng(101)
        for i in range(40):
            c = random_component(rng, f"g{i}", max_card=4)
            k = M.frl_construct(c)
            assert leakage_of(c, k) <= 1e-10
            assert determinism_residual(c, k) <= 1e-10
            assert k.alphabet_u <= c.card_x * (c.card_y - 1) + 1


class TestEfrlConstruct:
    def test_zero_budget_matches_frl(self):
        rng = np.random.default_rng(7)
        c = random_component(rng, "z")
        base = M.frl_construct(c)
        padded = M.efrl_construct(c, 0.0)
        assert padded.alphabet_u == base.alphabet_u * (c.card_x + 1)
        assert utility_of(c, padded) == pytest.approx(utility_of(c, base), abs=1e-12)
        assert leakage_of(c, padded) <= 1e-10

    def test_copy_pair_exact_leakage_and_utility(self):
        c = xy_copy_component()
        k = M.efrl_construct(c, 0.2)
        assert leakage_of(c, k) == pytest.approx(0.2, abs=1e-9)
        assert utility_of(c, k) == pytest.approx(0.2, abs=1e-9)

    def test_leakage_is_alpha_hx(self):
        rng = np.random.default_rng(73)
        for i in range(20):
            c = random_component(rng, f"e{i}")
            i_xy = pc.mutual_information(c.joint)
            eps = float(rng.uniform(0.0, i_xy * 0.999))
            k = M.efrl_construct(c, eps)
            assert leakage_of(c, k) == pytest.approx(eps, abs=1e-9)
            assert determinism_residual(c, k) <= 1e-10
            m = c.card_x * (c.card_y - 1) + 1
            assert k.alphabet_u <= m * (c.card_x + 1)

    def test_utility_chain(self):
        rng = np.random.default_rng(99)
        for i in range(20):
            c = random_component(rng, f"u{i}")
            s = validate(single_user(0.0, c))[0]
            eps = float(rng.uniform(0.0, s.iXY * 0.999))
            k = M.efrl_construct(c, eps)
            assert utility_of(c, k) >= s.hY_given_X - s.hX_given_Y + eps - 1e-9

    def test_range_errors(self):
        c = bsc_component(0.1)
        h_x = pc.entropy(c.joint.marginal_rows())
        with pytest.raises(ValidationError):
            M.efrl_construct(c, h_x + 0.01)
        with pytest.raises(ValidationError):
            M.efrl_construct(c, -0.1)
        flat = Component("flat", Joint2(np.array([[0.5, 0.5]])))
        with pytest.raises(ValidationError):
            M.efrl_construct(flat, 0.01)

    def test_leakage_beyond_correlation(self):
        # the mixing construction stays exact up to H(X), past I(X;Y)
        c = bsc_component(0.1)
        h_x = pc.entropy(c.joint.marginal_rows())
        i_xy = pc.mutual_information(c.joint)
        eps = 0.5 * (i_xy + h_x)
        k = M.efrl_construct(c, eps)
        assert leakage_of(c, k) == pytest.approx(eps, abs=1e-9)
        assert determinism_residual(c, k) <= 1e-10


class TestCompose:
    def test_zero_budget_composition_is_private(self):
        p = random_problem(12)
        p = Problem(p.components, p.users, 0.0)
        stats = validate(p)
        mech = M.compose_multiuser(p, B.allocate_epsilon(p, stats, "frl"))
        rep = M.evaluate_composed(p, mech)
        assert rep.leakage <= 1e-9
        assert all(t.kind == "frl" for t in mech.tags)

    def test_single_target_leakage(self):
        comps = (bsc_component(0.1, "a"), bsc_component(0.2, "b"))
        p = Problem(comps, (User((0,), 1.0), User((1,), 3.0)), 0.05)
        stats = validate(p)
        alloc = B.allocate_epsilon(p, stats, "frl")
        mech = M.compose_multiuser(p, alloc)
        rep = M.evaluate_composed(p, mech)
        assert alloc.target == 1
        assert rep.per_component_leakage[1] == pytest.approx(0.05, abs=1e-9)
        assert rep.per_component_leakage[0] <= 1e-9
        assert rep.leakage == pytest.approx(alloc.total, abs=1e-9)

    def test_objective_between_bounds_without_overflow(self):
        checked = 0
        for seed in range(60):
            p = random_problem(seed)
            stats = validate(p)
            if stats.trivial:
                continue
            alloc = B.allocate_epsilon(p, stats, "frl")
            if alloc.overflow > 0.0:
                continue  # budget exceeds the target's correlation; bound not attainable
            mech = M.compose_multiuser(p, alloc)
            rep = M.evaluate_composed(p, mech)
            assert rep.objective >= B.lower_bound_frl(p, stats) - 1e-9
            assert rep.objective <= B.upper_bound(p, stats) + 1e-9
            checked += 1
        assert checked >= 20


class TestEvaluate:
    def test_identity_release(self):
        p = random_problem(21)
        mech = M.identity_mechanism(p)
        rep = M.evaluate(p, mech)
        stats = validate(p)
        assert rep.leakage == pytest.approx(stats.total_mi, abs=1e-9)
        expect = sum(
            u.weight * sum(stats[i].hY for i in u.demands) for u in p.users
        )
        assert rep.objective == pytest.approx(expect, abs=1e-9)

    def test_constant_release(self):
        p = random_problem(22)
        rep = M.evaluate(p, M.constant_mechanism(p))
        assert rep.leakage == 0.0
        assert rep.objective == 0.0
        assert all(u == 0.0 for u in rep.utilities)

    def test_composed_matches_monolithic(self):
        for seed in (3, 5, 8):
            p = random_problem(seed, max_n=2, max_card=2)
            stats = validate(p)
            if stats.trivial:
                p = Problem(p.components, p.users, 0.5 * stats.total_mi)
                stats = validate(p)
            mech = M.compose_multiuser(p, B.allocate_epsilon(p, stats, "frl"))
            composed = M.evaluate(p, mech)
            mono = M.evaluate(p, M.materialize_monolithic(p, mech))
            assert composed.leakage == pytest.approx(mono.leakage, abs=1e-9)
            assert composed.objective == pytest.approx(mono.objective, abs=1e-9)
            for a, b in zip(composed.utilities, mono.utilities):
                assert a == pytest.approx(b, abs=1e-9)
            assert composed.h_y_given_xu == pytest.approx(mono.h_y_given_xu, abs=1e-9)


class TestSerialization:
    def test_round_trip_bit_stable(self):
        p = random_problem(33)
        stats = validate(p)
        if stats.trivial:
            p = Problem(p.components, p.users, 0.5 * stats.total_mi)
            stats = validate(p)
        mech = M.compose_multiuser(p, B.allocate_epsilon(p, stats, "esfrl"))
        doc = json.loads(json.dumps(M.mechanism_to_dict(p, mech)))
        back = M.mechanism_from_dict(doc, p)
        for k1, k2 in zip(mech.kernels, back.kernels):
            assert np.array_equal(k1.table, k2.table)
        assert back.allocation.eps_per_component == mech.allocation.eps_per_component
        assert tuple(t.kind for t in back.tags) == tuple(t.kind for t in mech.tags)


def random_monolithic_kernel(rng, p: Problem, card_u: int) -> M.Kernel:
    nx = int(np.prod([c.card_x for c in p.components]))
    ny = int(np.prod([c.card_y for c in p.components]))
    t = rng.exponential(size=(nx, ny, card_u))
    return M.Kernel(t / t.sum(axis=2, keepdims=True))


def two_binary_problem(seed: int) -> Problem:
    rng = np.random.default_rng(seed)
    comps = (
        Component("a", Joint2(rng.dirichlet(np.ones(4)).reshape(2, 2))),
        Component("b", Joint2(rng.dirichlet(np.ones(4)).reshape(2, 2))),
    )
    users = (User((0,), float(rng.uniform(0.2, 2.0))), User((0, 1), float(rng.uniform(0.2, 2.0))))
    return Problem(comps, users, 0.05)


class TestDecomposeTransform:
    def test_single_component_identity_in_law(self):
        rng = np.random.default_rng(55)
        c = random_component(rng, "s")
        p = single_user(0.01, c)
        k = random_monolithic_kernel(rng, p, 3)
        bar, checks = M.decompose_transform(p, k)
        assert bar.alphabets == (3,)
        assert checks.leakage_bar == pytest.approx(checks.leakage_original, abs=1e-12)
        # the surrogate's conditional law equals the original P(u|x)
        j = M.monolithic_joint(p, k)
        p_xu = j.marginal([0, 2]).table
        cond = p_xu / p_xu.sum(axis=1, keepdims=True)
        assert np.allclose(bar.kernels[0], cond, atol=1e-12)

    def test_constant_release(self):
        p = two_binary_problem(1)
        nx, ny = 4, 4
        k = M.Kernel(np.ones((nx, ny, 1)))
        _, checks = M.decompose_transform(p, k)
        assert checks.leakage_original == pytest.approx(0.0, abs=1e-12)
        assert checks.leakage_bar == pytest.approx(0.0, abs=1e-12)

    def test_random_mechanisms_preserve_leakage(self):
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            p = two_binary_problem(seed)
            k = random_monolithic_kernel(rng, p, int(rng.integers(2, 5)))
            _, checks = M.decompose_transform(p, k)
            assert abs(checks.leakage_original - checks.leakage_bar) <= 1e-9
            assert checks.markov_residual <= 1e-9
            assert checks.independence_residual <= 1e-9


def reference_decomposition_checks(p: Problem, k: M.Kernel) -> tuple[float, ...]:
    # every entropy read from a validated JointN.marginal table of the full
    # decomposition joint, with the axes in the order each quantity names them
    n = p.n_components
    j = M.monolithic_joint(p, k)
    big = M._joint_with_bars(p, j, M._bar_kernels(p, j))
    x, y, u = list(range(n)), list(range(n, 2 * n)), [2 * n]
    b = list(range(2 * n + 1, 3 * n + 1))

    def h(axes):
        return pc.joint_entropy(big.marginal(axes))

    leak_u = h(x) + h(u) - h(x + u)
    leak_b = h(x) + h(b) - h(x + b)
    markov = h(b + x) + h(y + u + x) - h(b + y + u + x) - h(x)
    indep = sum(h([b[i], x[i], y[i]]) for i in range(n)) - h(b + x + y)
    return tuple(max(0.0, v) for v in (leak_u, leak_b, markov, indep))


class TestDecomposeReference:
    @pytest.mark.parametrize(
        "shapes, card_u",
        [
            (((2, 2), (2, 2)), 2),
            (((2, 2), (2, 2)), 3),
            (((2, 2), (2, 2)), 4),
            (((2, 3), (3, 2)), 6),
            (((3, 3), (3, 3)), 8),
            (((2, 3), (2, 3), (2, 3)), 4),  # 4.4e5-entry decomposition joint
        ],
    )
    def test_checks_match_full_marginals(self, shapes, card_u):
        rng = np.random.default_rng(card_u + 10 * len(shapes))
        comps = tuple(
            Component(f"c{i}", Joint2(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)))
            for i, (nx, ny) in enumerate(shapes)
        )
        p = Problem(comps, (User((0,), 1.0), User(tuple(range(len(comps))), 0.5)), 0.05)
        k = random_monolithic_kernel(rng, p, card_u)
        _, checks = M.decompose_transform(p, k)
        got = (checks.leakage_original, checks.leakage_bar, checks.markov_residual,
               checks.independence_residual)
        want = reference_decomposition_checks(p, k)
        assert want[0] > 1e-3  # a kernel that leaks, so the checks are not all zero
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)


class TestRefinementSizeCap:
    def test_refinement_kernel_obeys_cap(self, monkeypatch):
        rng = np.random.default_rng(61)
        c = Component("wide", Joint2(rng.dirichlet(np.ones(2 * 40)).reshape(2, 40)))
        assert M.frl_construct(c).table.size > 1000
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", "1000")
        with pytest.raises(SizeCapError, match="refinement kernel"):
            M.frl_construct(c)


class TestRefineTransform:
    def test_constant_release(self):
        p = two_binary_problem(2)
        k = M.Kernel(np.ones((4, 4, 1)))
        mech, checks = M.refine_transform(p, k)
        assert checks.leakage_star == pytest.approx(0.0, abs=1e-10)
        for orig, star, slack in zip(
            checks.user_utility_original, checks.user_utility_star, checks.user_slack
        ):
            assert orig <= star + slack + 1e-9

    def test_identity_on_deterministic_component(self):
        # U = Y on a single deterministic pair: the refined release carries
        # all of Y, so the utility bound holds with the slack unconsumed.
        table = np.zeros((2, 4))
        for y in range(4):
            table[y % 2, y] = 0.25
        c = Component("det", Joint2(table))
        p = single_user(0.3, c)
        stats = validate(p)
        k = M.identity_kernel(c)
        mech, checks = M.refine_transform(p, k)
        assert checks.leakage_star == pytest.approx(checks.leakage_original, abs=1e-9)
        assert checks.user_slack[0] == pytest.approx(stats[0].iXY, abs=1e-12)
        assert checks.user_utility_star[0] == pytest.approx(
            checks.user_utility_original[0], abs=1e-9
        )

    def test_random_mechanisms(self):
        for seed in range(30):
            rng = np.random.default_rng(2000 + seed)
            p = two_binary_problem(seed)
            k = random_monolithic_kernel(rng, p, int(rng.integers(2, 5)))
            _, checks = M.refine_transform(p, k)
            assert abs(checks.leakage_star - checks.leakage_original) <= 1e-9
            for orig, star, slack in zip(
                checks.user_utility_original, checks.user_utility_star, checks.user_slack
            ):
                assert orig <= star + slack + 1e-9
