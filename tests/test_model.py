"""Problem schema, derived statistics, and regime flags."""

import math

import numpy as np
import pytest

from helpers import random_problem, xy_copy_component
from privbound.errors import RegimeError, ValidationError
from privbound.model import (
    Component,
    Problem,
    User,
    trivial_optimum,
    user_weight_mass,
    validate,
)
from privbound.probcore import Joint2

LN2 = math.log(2.0)


def single_user(eps, *comps, weight=1.0):
    return Problem(comps, (User(tuple(range(len(comps))), weight),), eps)


class TestComponentStats:
    def test_copy_pair(self):
        p = single_user(0.1, xy_copy_component())
        s = validate(p)[0]
        assert s.s1 == pytest.approx(LN2, abs=1e-12)
        assert s.s2 == pytest.approx(LN2 + math.log(LN2 + 1) + 4, abs=1e-12)
        assert s.s2 == pytest.approx(5.219736214698990, abs=1e-12)
        assert s.delta == pytest.approx(LN2, abs=1e-12)

    def test_independent_pair(self):
        c = Component("ind", Joint2(np.outer([0.4, 0.6], [0.5, 0.5])))
        p = single_user(0.0, c)
        s = validate(p)[0]
        assert s.iXY == pytest.approx(0.0, abs=1e-12)
        assert s.s2 == pytest.approx(4.0, abs=1e-12)
        assert s.delta == pytest.approx(min(s.hX, 4.0), abs=1e-12)

    def test_weight_mass(self):
        c = xy_copy_component()
        p = Problem((c,), (User((0,), 1.0), User((0,), 2.0)), 0.0)
        assert user_weight_mass(p)[0] == pytest.approx(3.0)

    def test_gamma_formula(self):
        p = random_problem(3)
        for s in validate(p):
            expect = 1.0 - s.hX_given_Y / s.hX + (math.log(s.iXY + 1) + 4) / s.hX
            assert s.gamma == pytest.approx(expect, abs=1e-12)

    def test_gamma_undefined_for_constant_x(self):
        c = Component("one", Joint2(np.array([[0.5, 0.5]])))
        s = validate(single_user(0.0, c))[0]
        assert s.hX == 0.0
        assert s.gamma is None

    def test_custom_sfrl_constant(self):
        c = xy_copy_component()
        p = Problem((c,), (User((0,), 1.0),), 0.1, sfrl_constant=2.0)
        s = validate(p)[0]
        assert s.s2 == pytest.approx(LN2 + math.log(LN2 + 1) + 2.0, abs=1e-12)


class TestValidateFlags:
    def test_trivial_flag(self):
        c = xy_copy_component()
        assert validate(single_user(LN2, c)).trivial
        assert not validate(single_user(0.5 * LN2, c)).trivial

    def test_deterministic_flag(self):
        assert validate(single_user(0.1, xy_copy_component())).deterministic
        rng = np.random.default_rng(0)
        dense = Component("d", Joint2(rng.dirichlet(np.ones(4)).reshape(2, 2)))
        assert not validate(single_user(0.1, dense)).deterministic


class TestTrivialOptimum:
    def test_uniform_binary(self):
        p = single_user(LN2, xy_copy_component())
        assert trivial_optimum(p) == pytest.approx(LN2, abs=1e-12)

    def test_zero_weights(self):
        p = single_user(LN2, xy_copy_component(), weight=0.0)
        assert trivial_optimum(p) == 0.0

    def test_two_components_weighted(self):
        p = single_user(2 * LN2, xy_copy_component("a"), xy_copy_component("b"), weight=2.0)
        assert trivial_optimum(p) == pytest.approx(4 * LN2, abs=1e-12)

    def test_wrong_regime(self):
        p = single_user(0.1, xy_copy_component())
        with pytest.raises(RegimeError):
            trivial_optimum(p)


class TestStructuralErrors:
    def test_empty_demands(self):
        with pytest.raises(ValidationError):
            User((), 1.0)

    def test_out_of_range_demand(self):
        with pytest.raises(ValidationError):
            Problem((xy_copy_component(),), (User((1,), 1.0),), 0.0)

    def test_negative_weight(self):
        with pytest.raises(ValidationError):
            User((0,), -0.5)

    def test_negative_epsilon(self):
        with pytest.raises(ValidationError):
            Problem((xy_copy_component(),), (User((0,), 1.0),), -0.1)

    def test_invalid_joint(self):
        with pytest.raises(ValidationError):
            Component("bad", Joint2(np.array([[0.7, 0.7]])))

    def test_finite_entries_whose_mass_overflows(self):
        # the sum is inf: rejected as a mass off 1, with no overflow warning
        with np.errstate(over="raise"), pytest.raises(ValidationError, match="mass inf deviates"):
            Joint2(np.array([[1e308, 1e308]]))

    def test_weights_that_sum_past_float_range(self):
        # each weight is finite, but mu_0 would be inf
        users = (User((0,), 1e308), User((0,), 1e308))
        with pytest.raises(ValidationError, match="weights sum past the float range"):
            Problem((xy_copy_component(),), users, 0.1)


class TestInvariants:
    def test_mu_reorder_invariant_and_total(self):
        for seed in range(20):
            p = random_problem(seed)
            mu = user_weight_mass(p)
            flipped = Problem(p.components, tuple(reversed(p.users)), p.epsilon)
            assert np.allclose(mu, user_weight_mass(flipped))
            assert mu.sum() == pytest.approx(
                sum(u.weight * len(u.demands) for u in p.users), abs=1e-12
            )

    def test_delta_is_min(self):
        for seed in range(20):
            stats = validate(random_problem(seed))
            for s in stats:
                assert s.delta <= s.s1 + 1e-15
                assert s.delta <= s.s2 + 1e-15
                if s.s1 <= 4.0 + s.iXY:
                    assert s.delta == pytest.approx(s.s1, abs=1e-15)

    def test_pruning_preserves_information(self):
        rng = np.random.default_rng(5)
        base = rng.dirichlet(np.ones(6)).reshape(2, 3)
        padded = np.zeros((3, 4))
        padded[:2, :3] = base  # dead row 2 and dead column 3
        pruned = Component("p", Joint2(padded))
        clean = Component("c", Joint2(base))
        assert pruned.pruned_x == (2,)
        assert pruned.pruned_y == (3,)
        sp = validate(single_user(0.0, pruned))[0]
        sc = validate(single_user(0.0, clean))[0]
        for fieldname in ("hX", "hY", "hY_given_X", "hX_given_Y", "iXY"):
            assert getattr(sp, fieldname) == pytest.approx(getattr(sc, fieldname), abs=1e-12)
