"""Closed-form bounds against direct evaluation and an integration oracle."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    bsc_component,
    deterministic_problem,
    random_component,
    random_problem,
    xy_copy_component,
)
from privbound import bounds as B
from privbound.errors import RegimeError, ValidationError
from privbound.model import Component, Problem, User, trivial_optimum, validate
from privbound.probcore import Joint2

LN2 = math.log(2.0)


def single_user(eps, *comps, weight=1.0):
    return Problem(comps, (User(tuple(range(len(comps))), weight),), eps)


def riemann_excess(c: Component, n: int = 400_000) -> float:
    """Independent midpoint-rule evaluation of the threshold integral."""
    px = c.joint.marginal_rows().probs
    cond = c.cond_y_given_x()
    ts = (np.arange(n) + 0.5) / n
    total = 0.0
    for y in range(c.card_y):
        f = (cond[:, y][None, :] >= ts[:, None]) @ px
        mask = f > 0
        total += float((f[mask] * np.log(f[mask])).sum()) / n
    return total


class TestAllocation:
    def test_argmax_mu(self):
        comps = (bsc_component(0.2, "a"), bsc_component(0.2, "b"))
        users = (User((0,), 1.0), User((1,), 3.0))
        p = Problem(comps, users, 0.1)
        alloc = B.allocate_epsilon(p, validate(p), "frl")
        assert alloc.eps_per_component == (0.0, 0.1)
        assert alloc.overflow == 0.0

    def test_tie_breaks_low_index(self):
        comps = (bsc_component(0.2, "a"), bsc_component(0.2, "b"))
        users = (User((0,), 2.0), User((1,), 2.0))
        p = Problem(comps, users, 0.1)
        alloc = B.allocate_epsilon(p, validate(p), "frl")
        assert alloc.target == 0
        assert alloc.eps_per_component[0] == pytest.approx(0.1)

    def test_esfrl_picks_largest_mu_gamma(self):
        rng = np.random.default_rng(42)
        comps = (random_component(rng, "a"), random_component(rng, "b"))
        users = (User((0, 1), 1.0),)
        p = Problem(comps, users, 1e-3)
        stats = validate(p)
        alloc = B.allocate_epsilon(p, stats, "esfrl")
        gammas = [s.mu * s.gamma for s in stats]
        assert alloc.target == int(np.argmax(gammas))

    def test_cap_reports_overflow(self):
        # the target's share tops out just below H(X); the rest is overflow
        three = np.zeros((3, 3))
        np.fill_diagonal(three, 1.0 / 3)
        comps = (xy_copy_component("a"), Component("b", Joint2(three)))
        p = Problem(comps, (User((0,), 2.0), User((1,), 1.0)), LN2 + 0.1)
        stats = validate(p)
        alloc = B.allocate_epsilon(p, stats, "frl")
        assert alloc.target == 0
        assert alloc.eps_per_component[0] == pytest.approx(LN2 - 1e-12, abs=1e-11)
        assert alloc.overflow == pytest.approx(0.1 + 1e-12, abs=1e-11)

    def test_trivial_regime_rejected(self):
        p = single_user(LN2, xy_copy_component())
        with pytest.raises(RegimeError):
            B.allocate_epsilon(p, validate(p), "frl")

    def test_esfrl_without_private_information(self):
        c = Component("flat", Joint2(np.array([[0.5, 0.5]])))
        dense = bsc_component(0.2, "d")
        p = Problem((c, dense), (User((0, 1), 1.0),), 0.05)
        alloc = B.allocate_epsilon(p, validate(p), "esfrl")
        assert alloc.target == 1  # the H(X)=0 component is excluded

    def test_canonical_allocations(self):
        flat = Component("flat", Joint2(np.array([[0.5, 0.5]])))
        p = Problem((flat, bsc_component(0.2, "d")), (User((0,), 3.0), User((1,), 1.0)), 0.05)
        stats = validate(p)
        allocs = B.canonical_allocations(p, stats)
        assert list(allocs) == list(B.VARIANTS) == ["frl", "esfrl"]
        for variant, alloc in allocs.items():
            assert alloc == B.allocate_epsilon(p, stats, variant)
        # every H(X) = 0: esfrl has no allocation at a positive budget
        q = Problem((flat, flat), (User((0, 1), 1.0),), 0.05)
        stats_q = dataclasses.replace(validate(q), trivial=False)
        assert list(B.canonical_allocations(q, stats_q)) == ["frl"]
        # the trivial regime has none
        t = single_user(LN2, xy_copy_component())
        assert B.canonical_allocations(t, validate(t)) == {}

    @pytest.mark.parametrize("shares, overflow", [((math.nan, 0.0), 0.0), ((0.1, math.inf), 0.0),
                                                  ((0.1, 0.0), math.inf), ((0.1, 0.0), math.nan)])
    def test_non_finite_rejected(self, shares, overflow):
        with pytest.raises(ValidationError, match="non-finite"):
            B.Allocation(shares, "frl", 0, overflow)


class TestUpperBound:
    def test_copy_pair(self):
        p = single_user(0.1, xy_copy_component())
        assert B.upper_bound(p, validate(p)) == pytest.approx(0.1 + LN2, abs=1e-12)

    def test_eps_zero_matches_zero_leakage_form(self):
        for seed in range(10):
            p = random_problem(seed)
            p0 = Problem(p.components, p.users, 0.0)
            stats = validate(p0)
            expect = sum(s.mu * (s.hY_given_X + s.delta) for s in stats)
            assert B.upper_bound(p0, stats) == pytest.approx(expect, abs=1e-12)

    def test_zero_weights(self):
        p = single_user(0.1, xy_copy_component(), weight=0.0)
        assert B.upper_bound(p, validate(p)) == 0.0


class TestLowerBounds:
    def test_frl_symmetric_channel(self):
        p = single_user(0.2, bsc_component(0.1))
        assert B.lower_bound_frl(p, validate(p)) == pytest.approx(0.2, abs=1e-12)

    def test_frl_copy_pair(self):
        p = single_user(0.15, xy_copy_component())
        assert B.lower_bound_frl(p, validate(p)) == pytest.approx(0.15, abs=1e-12)

    def test_frl_deterministic_at_zero(self):
        for seed in range(5):
            p = deterministic_problem(seed)
            p0 = Problem(p.components, p.users, 0.0)
            stats = validate(p0)
            expect = sum(s.mu * s.hY_given_X for s in stats)
            assert B.lower_bound_frl(p0, stats) == pytest.approx(expect, abs=1e-12)

    def test_sfrl_independent_pair(self):
        c = Component("ind", Joint2(np.outer([0.4, 0.6], [0.3, 0.7])))
        p = single_user(0.0, c)
        stats = validate(p)
        s = stats[0]
        gamma = 1.0 - s.hX_given_Y / s.hX + 4.0 / s.hX
        assert s.gamma == pytest.approx(gamma, abs=1e-12)
        assert B.lower_bound_sfrl(p, stats) == pytest.approx(s.hY - 4.0, abs=1e-12)

    def test_sfrl_negative_slope(self):
        # with c = -10 every mu*gamma is negative: the budget term takes the
        # largest slope as it is, never one clamped at 0 (which gives 10.32)
        p = Problem((bsc_component(0.2),), (User((0,), 1.0),), 0.1, sfrl_constant=-10.0)
        stats = validate(p)
        assert stats[0].mu * stats[0].gamma < 0.0
        assert B.lower_bound_sfrl(p, stats) == pytest.approx(8.93468593792651, abs=1e-12)
        total = sum(s.mu * b for s, b in zip(stats, B.esfrl_beta(p, stats)))
        assert total == pytest.approx(8.93468593792651, abs=1e-12)

    def test_sfrl_zero_weights(self):
        p = single_user(0.1, xy_copy_component(), weight=0.0)
        assert B.lower_bound_sfrl(p, validate(p)) == 0.0

    def test_beta_consistency(self):
        for seed in range(30):
            p = random_problem(seed)
            stats = validate(p)
            if stats.trivial:
                continue
            betas = B.esfrl_beta(p, stats)
            total = sum(s.mu * b for s, b in zip(stats, betas))
            assert total == pytest.approx(B.lower_bound_sfrl(p, stats), abs=1e-12)


class TestGapIdentity:
    def test_copy_pair(self):
        p = single_user(0.37, xy_copy_component())
        assert B.gap_identity(p, validate(p)) == pytest.approx(LN2, abs=1e-12)

    def test_independent_high_entropy(self):
        # H(X) = ln 60 > 4, so the additive branch delta = 4 is active
        px = np.full(60, 1.0 / 60)
        c = Component("wide", Joint2(np.outer(px, [0.5, 0.5])))
        p = single_user(0.0, c)
        stats = validate(p)
        assert stats[0].delta == pytest.approx(4.0, abs=1e-12)
        assert B.gap_identity(p, stats) == pytest.approx(4.0 + math.log(60), abs=1e-12)

    def test_identity_on_random_problems(self):
        checked = 0
        for seed in range(140):
            p = random_problem(seed)
            stats = validate(p)
            if stats.trivial:
                continue
            gap = B.gap_identity(p, stats)
            diff = B.upper_bound(p, stats) - B.lower_bound_frl(p, stats)
            assert abs(gap - diff) <= 1e-9
            checked += 1
        assert checked >= 100


class TestExcessIntegral:
    def test_deterministic_equals_minus_mi(self):
        for seed in range(10):
            p = deterministic_problem(seed)
            for c, s in zip(p.components, validate(p)):
                assert B.excess_integral(c) == pytest.approx(-s.iXY, abs=1e-12)

    def test_bsc(self):
        assert B.excess_integral(bsc_component(0.1)) == pytest.approx(
            -0.554517744447956, abs=1e-12
        )

    def test_single_x(self):
        c = Component("one", Joint2(np.array([[0.4, 0.6]])))
        assert B.excess_integral(c) == pytest.approx(0.0, abs=1e-12)

    def test_against_numeric_integration(self):
        rng = np.random.default_rng(31)
        for k in range(8):
            c = random_component(rng, f"q{k}")
            exact = B.excess_integral(c)
            approx = riemann_excess(c)
            assert exact == pytest.approx(approx, abs=5e-5)
            assert exact <= 0.0


class TestPerfectPrivacy:
    def test_bsc_u2_below_u1(self):
        p = single_user(0.0, bsc_component(0.1))
        rep = B.compute_bounds(p, validate(p))
        assert rep.pp_u2[0] == pytest.approx(0.138629436111989, abs=1e-12)
        assert rep.pp_u1[0] == pytest.approx(0.325082973391448, abs=1e-12)
        assert rep.pp_u2[0] < rep.pp_u1[0]

    def test_deterministic_u2_equals_u1(self):
        for seed in range(5):
            p = deterministic_problem(seed)
            p0 = Problem(p.components, p.users, 0.0)
            rep = B.compute_bounds(p0, validate(p0))
            for u1, u2, s in zip(rep.pp_u1, rep.pp_u2, validate(p0)):
                assert u2 == pytest.approx(u1, abs=1e-12)
                assert u1 == pytest.approx(s.hY_given_X, abs=1e-12)

    def test_independent_lower(self):
        # an independent pair at eps 0 is trivial; the formula is evaluable anyway
        c = Component("ind", Joint2(np.outer([0.4, 0.6], [0.3, 0.7])))
        p = single_user(0.0, c)
        stats = validate(p)
        assert stats.trivial
        assert B.lower_bound_frl(p, stats) == pytest.approx(stats[0].hY - stats[0].hX, abs=1e-12)


class TestComputeBounds:
    def test_trivial_regime(self):
        # at and above the trivial boundary every bound is the optimum of releasing Y
        for seed in range(6):
            p = random_problem(seed)
            total = validate(p).total_mi
            for eps in (total, 1.1 * total):
                pt = Problem(p.components, p.users, eps, p.sfrl_constant)
                stats = validate(pt)
                rep = B.compute_bounds(pt, stats)
                value = trivial_optimum(pt, stats)
                assert (rep.upper, rep.lower, rep.lower_frl, rep.lower_sfrl) == (value,) * 4, seed
                assert rep.trivial and not rep.perfect_privacy
                assert rep.gap_formula == 0.0
                assert rep.exact is None and rep.beta is None


class TestDeterministicExact:
    def test_copy_pair(self):
        p = single_user(0.1, xy_copy_component())
        assert B.deterministic_exact(p, validate(p)) == pytest.approx(0.1, abs=1e-12)

    def test_parity(self):
        table = np.zeros((2, 4))
        for y in range(4):
            table[y % 2, y] = 0.25
        p = single_user(0.0, Component("parity", Joint2(table)))
        assert B.deterministic_exact(p, validate(p)) == pytest.approx(LN2, abs=1e-12)

    def test_matches_lower_frl(self):
        for seed in range(15):
            p = deterministic_problem(seed)
            stats = validate(p)
            if stats.trivial:
                continue
            assert B.deterministic_exact(p, stats) == pytest.approx(
                B.lower_bound_frl(p, stats), abs=1e-12
            )
            assert B.lower_bound_frl(p, stats) >= B.lower_bound_sfrl(p, stats) - 1e-12

    def test_rejects_noisy_problem(self):
        p = single_user(0.1, bsc_component(0.1))
        with pytest.raises(RegimeError):
            B.deterministic_exact(p, validate(p))


class TestGlobalProperties:
    def test_sandwich_order(self):
        for seed in range(100):
            p = random_problem(seed)
            stats = validate(p)
            if stats.trivial:
                continue
            lower = max(
                0.0, B.lower_bound_frl(p, stats), B.lower_bound_sfrl(p, stats)
            )
            assert lower <= B.upper_bound(p, stats) + 1e-9

    def test_affine_in_eps(self):
        p = random_problem(2)
        stats = validate(p)
        mu_max = max(s.mu for s in stats)
        for eps1, eps2 in ((0.0, 0.01), (0.005, 0.02)):
            pa = Problem(p.components, p.users, eps1)
            pb = Problem(p.components, p.users, eps2)
            sa, sb = validate(pa), validate(pb)
            assert B.upper_bound(pb, sb) - B.upper_bound(pa, sa) == pytest.approx(
                (eps2 - eps1) * mu_max, abs=1e-12
            )
            assert B.lower_bound_frl(pb, sb) - B.lower_bound_frl(pa, sa) == pytest.approx(
                (eps2 - eps1) * mu_max, abs=1e-12
            )

    def test_weight_scaling(self):
        p = random_problem(4)
        stats = validate(p)
        if stats.trivial:
            p = Problem(p.components, p.users, 0.5 * stats.total_mi)
            stats = validate(p)
        scaled_users = tuple(User(u.demands, 3.0 * u.weight) for u in p.users)
        ps = Problem(p.components, scaled_users, p.epsilon)
        ss = validate(ps)
        assert B.upper_bound(ps, ss) == pytest.approx(3 * B.upper_bound(p, stats), rel=1e-12)
        assert B.lower_bound_frl(ps, ss) == pytest.approx(
            3 * B.lower_bound_frl(p, stats), rel=1e-12
        )
        assert B.lower_bound_sfrl(ps, ss) == pytest.approx(
            3 * B.lower_bound_sfrl(p, stats), rel=1e-12
        )
