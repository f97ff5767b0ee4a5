"""Constructions: refinement coupling, randomized release, composition,
evaluation paths, and the decomposition transforms."""

import dataclasses
import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bsc_component,
    constant_mechanism,
    identity_mechanism,
    materialize_reference,
    random_component,
    random_problem,
    random_users,
    refinement_mi_reference,
    wide_component,
    xy_copy_component,
)
from privbound import bounds as B
from privbound import mechanisms as M
from privbound import oracle as O
from privbound import probcore as pc
from privbound.errors import AlphabetMismatchError, PrivboundError, SizeCapError, ValidationError
from privbound.model import Component, Problem, User, trivial_optimum, validate
from privbound.probcore import Joint2

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import inputs  # noqa: E402  perfbench/inputs.py

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


def efrl_loop(c: Component, eps_i: float) -> M.Kernel:
    """Reference: the randomized release built one x at a time."""
    h_x = pc.entropy(c.joint.marginal_rows())
    alpha = eps_i / h_x if eps_i > 0.0 else 0.0
    base = M.frl_construct(c).table
    nx, ny, m = base.shape
    nw = nx + 1
    table = np.zeros((nx, ny, m * nw))
    for x in range(nx):
        w_probs = np.zeros(nw)
        w_probs[x] = alpha
        w_probs[nx] = 1.0 - alpha
        table[x] = (base[x][:, :, None] * w_probs[None, None, :]).reshape(ny, m * nw)
    return M.Kernel(table)


class TestReleaseBroadcast:
    def test_bitwise_equal_to_loop(self):
        rng = np.random.default_rng(808)
        for i in range(60):
            c = random_component(rng, f"r{i}", max_card=4)
            h_x = pc.entropy(c.joint.marginal_rows())
            for eps in (0.0, 1e-6 * h_x, float(rng.uniform(0.0, h_x)), h_x - 2e-12):
                got = M.efrl_construct(c, eps).table
                assert np.array_equal(got, efrl_loop(c, eps).table), (i, eps)

    def test_release_obeys_cap(self, monkeypatch):
        # the refinement fits (2*40*79 = 6,320 entries), the release does not (x3)
        rng = np.random.default_rng(61)
        c = Component("wide", Joint2(rng.dirichlet(np.ones(2 * 40)).reshape(2, 40)))
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", "10000")
        assert M.frl_construct(c).table.size == 6320
        with pytest.raises(SizeCapError, match="randomized release would have 18960 entries"):
            M.efrl_construct(c, 0.1)


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


def canonical_reference(p, stats):
    """Best objective of the canonical compositions, built and evaluated."""
    objs = []
    for variant in ("frl", "esfrl"):
        try:
            alloc = B.allocate_epsilon(p, stats, variant)
        except (PrivboundError, ValueError):
            continue
        objs.append(M.evaluate_composed(p, M.compose_multiuser(p, alloc)).objective)
    return max(objs)


def flat_component(name="flat"):
    """|X| = 1: H(X) = 0, so the component never receives a share."""
    return Component(name, Joint2(np.array([[0.3, 0.7]])))


class TestRefinementProfile:
    def assert_matches_reference(self, p, stats, profile):
        got = M.canonical_objective(p, stats, profile, p.epsilon)
        assert abs(got - canonical_reference(p, stats)) <= 1e-12
        for c, i_yt in zip(p.components, profile, strict=True):
            assert abs(i_yt - refinement_mi_reference(c)) <= 1e-12
        # the search's starts compose the mechanisms that are released
        for k, variant in enumerate(B.VARIANTS):
            try:
                alloc = B.allocate_epsilon(p, stats, variant)
            except (PrivboundError, ValueError):
                continue
            built = M.compose_multiuser(p, alloc)
            composed = O.canonical_starts(p, {variant: alloc})[1 + k]
            assert composed.tags == built.tags
            assert composed.allocation == built.allocation == alloc
            for a, b in zip(composed.kernels, built.kernels, strict=True):
                assert np.array_equal(a.table, b.table)

    def test_matches_construction_on_random_problems(self):
        overflowed = 0
        for seed in range(40):
            p = random_problem(seed)
            base = validate(p)
            profile = M.refinement_profile(p)
            # eps = 0 (plain refinements) up to near sum I, past the target's cap
            for frac in (0.0, 0.3, 0.6, 0.95):
                pe = Problem(p.components, p.users, frac * base.total_mi)
                stats = validate(pe)
                overflowed += B.allocate_epsilon(pe, stats, "frl").overflow > 0.0
                self.assert_matches_reference(pe, stats, profile)
        assert overflowed >= 1

    def test_overflow_probe(self):
        # high-weight copy pair with H(X) = 0.135 < eps: the target is capped
        comps = (xy_copy_component("skew", 0.03), xy_copy_component("fair"))
        p = Problem(comps, (User((0,), 2.0), User((1,), 1.0)), 0.4)
        stats = validate(p)
        assert B.allocate_epsilon(p, stats, "frl").overflow > 0.2
        self.assert_matches_reference(p, stats, M.refinement_profile(p))

    def test_zero_entropy_components(self):
        rng = np.random.default_rng(5)
        comps = (flat_component(), random_component(rng, "a"), random_component(rng, "b"))
        # the flat component carries the largest weight: frl targets it,
        # gets a zero share and leaves the whole budget as overflow
        users = (User((0,), 3.0), User((1, 2), 1.0), User((0, 2), 0.5))
        total = validate(Problem(comps, users, 0.0)).total_mi
        for frac in (0.0, 0.2, 0.5, 0.9):
            p = Problem(comps, users, frac * total)
            stats = validate(p)
            self.assert_matches_reference(p, stats, M.refinement_profile(p))

    def test_esfrl_impossible(self):
        # every H(X) = 0: esfrl cannot allocate a positive budget and is skipped
        # (the stats are forced below the trivial boundary, sum_i I = 0 here)
        comps = (flat_component("f0"), flat_component("f1"))
        p = Problem(comps, (User((0, 1), 1.0),), 0.1)
        stats = dataclasses.replace(validate(p), trivial=False, total_mi=math.inf)
        with pytest.raises(PrivboundError):
            B.allocate_epsilon(p, stats, "esfrl")
        self.assert_matches_reference(p, stats, M.refinement_profile(p))

    def test_trivial_regime_is_release_of_y(self):
        # no variant allocates in the trivial regime; the canonical mechanism is U = Y
        p = random_problem(3)
        pt = Problem(p.components, p.users, 10.0)
        stats = validate(pt)
        assert stats.trivial
        allocs = B.canonical_allocations(pt, stats)
        assert allocs == {}
        got = M.canonical_objective(pt, stats, M.refinement_profile(pt), pt.epsilon)
        assert got == trivial_optimum(pt, stats)

    def test_partition_matches_kernel_path(self):
        # every criterion-1 component, both benchmark banks at two seeds,
        # and wide components small enough for their kernel
        problems = [random_problem(seed) for seed in range(200)]
        problems += [p for seed in (301, 411) for large in (False, True)
                     for p in inputs.sandwich_problems(seed, large)]
        rng = np.random.default_rng(7)
        problems.append(Problem(tuple(wide_component(rng, f"w{n}", n) for n in (12, 24)), (User((0, 1), 1.0),), 0.0))
        for p in problems:
            for c, i_yt in zip(p.components, M.refinement_profile(p), strict=True):
                assert abs(i_yt - refinement_mi_reference(c)) <= 1e-12, c.joint.shape

    def test_merged_endpoints(self):
        # rows 1 and 2 move row 0's endpoints by less than the merge
        # tolerance, both ways: their cells straddle the merged endpoints
        rng = np.random.default_rng(3)
        cond = rng.dirichlet(np.ones(5), size=4)
        d = 0.4 * M.ENDPOINT_MERGE_TOL
        cond[1] = cond[0] + d * np.array([1.0, -1.0, 1.0, -1.0, 0.0])
        cond[2] = cond[0] - d * np.array([1.0, 0.0, -1.0, 1.0, -1.0])
        c = Component("near", Joint2(cond * rng.dirichlet(np.ones(4))[:, None]))
        cums = np.cumsum(c.cond_y_given_x(), axis=1)[:, :-1]
        assert len(set(cums.ravel().tolist())) > 8 == M.frl_construct(c).alphabet_u - 1
        got = M.refinement_profile(Problem((c,), (User((0,), 1.0),), 0.0))[0]
        assert abs(got - refinement_mi_reference(c)) <= 1e-12

    def test_profile_size_checked_first(self, monkeypatch):
        # a 64 x 64 profile holds (|X| + |Y|) |T| floats, about 4 MiB: one
        # entry over the cap it is refused before any of them is allocated
        c = wide_component(np.random.default_rng(1))
        p = Problem((c,), (User((0,), 1.0),), 0.0)
        cells = M._intervals(c.cond_y_given_x(), np.ones(64, dtype=bool))[2].size
        assert cells == 64 * 63 + 1
        need = 128 * cells
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", str(need - 1))
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match=f"refinement profile would have {need} entries"):
                M.refinement_profile(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", str(need))
        assert len(M.refinement_profile(p)) == 1

    def test_wide_profile_without_kernel(self, monkeypatch):
        # 64 x 64: no refinement kernel is built, and the profile's traced
        # peak stays within a few arrays of |Y||T| floats (about 2 MiB each)
        c = wide_component(np.random.default_rng(2))
        p = Problem((c,), (User((0,), 1.0),), 0.0)
        monkeypatch.setattr(M, "_interval_refinement", lambda *a, **k: pytest.fail("kernel built"))
        tracemalloc.start()
        try:
            (i_yt,) = M.refinement_profile(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < i_yt < validate(p)[0].hY
        assert peak < 12 * 2**20


class TestEvaluate:
    def test_identity_release(self):
        p = random_problem(21)
        mech = identity_mechanism(p)
        rep = M.evaluate(p, mech)
        stats = validate(p)
        assert rep.leakage == pytest.approx(stats.total_mi, abs=1e-9)
        expect = sum(
            u.weight * sum(stats[i].hY for i in u.demands) for u in p.users
        )
        assert rep.objective == pytest.approx(expect, abs=1e-9)

    def test_constant_release(self):
        p = random_problem(22)
        rep = M.evaluate(p, constant_mechanism(p))
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


def random_composed(rng, p: Problem, max_u: int = 5, scale: float = 1.0) -> M.ComposedMechanism:
    """Random per-component kernels, each slice scaled by ``scale``."""
    kernels = tuple(M.Kernel(rng.dirichlet(np.ones(int(rng.integers(1, max_u + 1))), size=(c.card_x, c.card_y))
                             * scale) for c in p.components)
    return M.ComposedMechanism(kernels, tuple(M.ConstructionTag("refined") for _ in kernels))


def n_component_problem(rng, n: int) -> Problem:
    comps = tuple(random_component(rng, f"c{i}") for i in range(n))
    return Problem(comps, random_users(rng, n), 0.0)


def embedded(p: Problem, m: M.ComposedMechanism, extra: int) -> np.ndarray:
    """The warm-start row ``oracle._initial_tables`` writes for ``m`` with
    ``extra`` u-columns to spare."""
    ev = O._Evaluator(p, m.cardinality + extra)
    row = np.zeros((ev.nx, ev.ny, ev.card_u))
    assert O._initial_tables(ev, p, O.OracleConfig(seed=0), (m,), 1, row) == slice(m.cardinality)
    return row


class TestComposeInto:
    """The one product path: ``materialize_monolithic`` and the search's warm
    starts against the outer-products-and-transpose reference, as raw bytes."""

    def assert_matches(self, p, m, extra=0):
        ref = materialize_reference(p, m).table
        assert M.materialize_monolithic(p, m).table.tobytes() == ref.tobytes()
        row = embedded(p, m, extra)
        nu = m.cardinality
        assert np.ascontiguousarray(row[:, :, :nu]).tobytes() == ref.tobytes()
        # the later columns stay exactly +0.0
        assert np.ascontiguousarray(row[:, :, nu:]).tobytes() == bytes(8 * row[:, :, nu:].size)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_kernels_bit_for_bit(self, n):
        for seed in range(8):
            rng = np.random.default_rng([n, seed])
            p = n_component_problem(rng, n)
            self.assert_matches(p, random_composed(rng, p))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constructions_bit_for_bit(self, n):
        for seed in range(12):
            rng = np.random.default_rng([n, seed, 1])
            p = n_component_problem(rng, n)
            stats = validate(p)
            p = Problem(p.components, p.users, 0.6 * stats.total_mi)
            stats = validate(p)
            for v in B.VARIANTS:
                self.assert_matches(p, M.compose_multiuser(p, B.allocate_epsilon(p, stats, v)))
            self.assert_matches(p, O.canonical_starts(p, {})[0])

    def test_narrower_than_card_u(self):
        rng = np.random.default_rng(5)
        p = n_component_problem(rng, 3)
        self.assert_matches(p, random_composed(rng, p), extra=7)

    def test_product_of_slices_just_off_is_renormalized(self):
        # each factor's slices sum to 1 + 0.9e-12, which Kernel keeps as
        # stored; their product is off by about 2.7e-12 and is renormalized
        rng = np.random.default_rng(17)
        p = n_component_problem(rng, 3)
        m = random_composed(rng, p, scale=1.0 + 0.9e-12)
        for k in m.kernels:
            dev = np.abs(k.table.sum(axis=2) - 1.0)
            assert 0.8e-12 < dev.min() and dev.max() < 1e-12
        raw = m.kernels[0].table
        for k in m.kernels[1:]:
            raw = np.multiply.outer(raw, k.table)
        assert np.abs(raw.sum(axis=(2, 5, 8)) - 1.0).min() > 1e-12
        self.assert_matches(p, m, extra=3)
        row = embedded(p, m, 3)
        assert np.abs(row.sum(axis=2) - 1.0).max() < 1e-15

    def test_warm_start_allocates_no_kernel_sized_array(self):
        # 3 x (3 x 3 x 8): a 27 x 27 x 512 warm start, 373,248 entries (2.9
        # MiB); the search's stack row is allocated before tracing. Beside
        # the partial product and the slice sums, only the last outer
        # product's iterator buffers are allowed: np.getbufsize() entries for
        # each of its three operands, whatever the kernel's size
        rng = np.random.default_rng(23)
        comps = tuple(Component(f"c{i}", Joint2(rng.dirichlet(np.ones(9)).reshape(3, 3))) for i in range(3))
        p = Problem(comps, (User((0, 1, 2), 1.0),), 0.0)
        kernels = tuple(M.Kernel(rng.dirichlet(np.ones(8), size=(3, 3))) for _ in comps)
        m = M.ComposedMechanism(kernels, tuple(M.ConstructionTag("refined") for _ in kernels))
        ev = O._Evaluator(p, m.cardinality)
        row = np.zeros((ev.nx, ev.ny, ev.card_u))
        assert row.size >= 3e5
        partial = 8 * kernels[0].table.size * kernels[1].table.size
        sums = 8 * ev.nx * ev.ny
        tracemalloc.start()
        try:
            O._initial_tables(ev, p, O.OracleConfig(seed=0), (m,), 1, row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = 3 * 8 * np.getbufsize()
        assert peak <= partial + sums + buffers, (peak, partial, sums, buffers)
        assert np.ascontiguousarray(row).tobytes() == materialize_reference(p, m).table.tobytes()


class TestOverflowingAlphabets:
    """Alphabet sizes are exact integers: 64 binary components have 2^64
    flattened symbols, which an int64 product wraps to 0."""

    def test_cardinality_and_monolithic_sizes(self):
        k = M.Kernel(np.full((2, 2, 2), 0.5))
        m = M.ComposedMechanism((k,) * 64, (M.ConstructionTag("refined"),) * 64)
        assert m.cardinality == 2**64
        comps = tuple(Component(f"c{i}", Joint2(np.full((2, 2), 0.25))) for i in range(64))
        with pytest.raises(AlphabetMismatchError, match=f"flattened problem is {2**64}x{2**64}"):
            M.monolithic_joint(Problem(comps, (User((0,), 1.0),), 0.0), M.Kernel(np.ones((2, 2, 1))))


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

    def test_round_trip_in_memory(self):
        # the document is JSON-typed: it parses back without a JSON pass
        p = random_problem(3)
        mech = M.compose_multiuser(p, B.allocate_epsilon(p, validate(p), "frl"))
        doc = M.mechanism_to_dict(p, mech)
        assert isinstance(doc["allocation"]["eps_per_component"], list)
        back = M.mechanism_from_dict(doc, p)
        assert back.allocation == mech.allocation


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


def bar_products(joint_xyu: pc.JointN, bar: M.BarMechanism) -> np.ndarray:
    """The cells of the decomposition joint over (x's, y's, u, b_1..b_N),
    before cleaning: bars drawn independently given x_i."""
    t = joint_xyu.table
    for i, mat in enumerate(bar.kernels):
        shape = [1] * t.ndim + [mat.shape[1]]
        shape[i] = mat.shape[0]
        t = t[..., None] * mat.reshape(shape)
    return t


def decomposition_cells(p: Problem, k: M.Kernel) -> np.ndarray:
    """The decomposition joint's cells, axes (x's, y's, u, b's): the
    monolithic joint times its bar kernels, no cell dropped."""
    j = M.monolithic_joint(p, k)
    return bar_products(j, M._bar_kernels(p, j))


def xlogx_sum(mass: np.ndarray) -> float:
    """sum p ln p over the cells of ``mass``, 0 ln 0 := 0 and no floor,
    exactly rounded."""
    kept = mass[mass > 0.0]
    return math.fsum(kept * np.log(kept))


def reference_decomposition_checks(p: Problem, k: M.Kernel) -> tuple[float, ...]:
    # every entropy read off a marginal of the whole decomposition joint,
    # renormalized, each sum exactly rounded by math.fsum with 0 ln 0 := 0
    # and no floor: the cells are products of kernel factors
    n = p.n_components
    cells = decomposition_cells(p, k)
    cells /= math.fsum(cells.ravel())
    x, y, u = list(range(n)), list(range(n, 2 * n)), [2 * n]
    b = list(range(2 * n + 1, 3 * n + 1))

    def h(axes):
        return -xlogx_sum(cells.sum(axis=tuple(a for a in range(cells.ndim) if a not in axes)))

    leak_u = h(x) + h(u) - h(x + u)
    leak_b = h(x) + h(b) - h(x + b)
    markov = h(b + x) + h(y + u + x) - h(b + y + u + x) - h(x)
    indep = sum(h([b[i], x[i], y[i]]) for i in range(n)) - h(b + x + y)
    return tuple(max(0.0, v) for v in (leak_u, leak_b, markov, indep))


def assert_same_decomposition(p: Problem, k: M.Kernel) -> M.DecompositionChecks:
    """decompose_transform's bar kernels equal ``_bar_kernels`` of the
    monolithic joint bit for bit, and its four checks are within 1e-12 of
    ``reference_decomposition_checks``. Returns the checks."""
    bar, checks = M.decompose_transform(p, k)
    want_bar = M._bar_kernels(p, M.monolithic_joint(p, k))
    assert bar.alphabets == want_bar.alphabets
    for got_k, want_k in zip(bar.kernels, want_bar.kernels, strict=True):
        assert np.array_equal(got_k, want_k)
    # the fields in the reference's order: leakages of U and of B, Markov, independence
    for got, want in zip(dataclasses.astuple(checks), reference_decomposition_checks(p, k), strict=True):
        assert got == pytest.approx(want, abs=1e-12)
    return checks


def reference_case(shapes, card_u) -> tuple[Problem, M.Kernel]:
    rng = np.random.default_rng(card_u + 10 * len(shapes))
    comps = tuple(
        Component(f"c{i}", Joint2(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)))
        for i, (nx, ny) in enumerate(shapes)
    )
    p = Problem(comps, (User((0,), 1.0), User(tuple(range(len(comps))), 0.5)), 0.05)
    return p, random_monolithic_kernel(rng, p, card_u)


def mechanized_case() -> tuple[Problem, M.Kernel]:
    # a skewed copy pair (H(X) = 0.135) beside a dense 3x3 component, its
    # budget overflowing the pair: the decomposition joint has exact zeros
    # and cells below ZERO_FLOOR, zeroed before any sum, and its mass
    # then falls short of 1 by 1e-12, so H(all) must be renormalized
    rng = np.random.default_rng(3)
    skew = Component("skew", Joint2(np.array([[0.03, 0.0], [0.0, 0.97]])))
    dense = Component("dense", Joint2(rng.dirichlet(np.ones(9)).reshape(3, 3)))
    p = Problem((skew, dense), (User((0,), 2.0), User((1,), 1.0)), 0.4)
    alloc = B.allocate_epsilon(p, validate(p), "frl")
    return p, M.materialize_monolithic(p, M.compose_multiuser(p, alloc))


def floor_case(card_x3: int = 2, scale: float = 1.0) -> tuple[Problem, M.Kernel]:
    """Components (2, 3), (2, 3), (card_x3, 3) at |U| = 8, a 7.1e6-entry
    decomposition joint at card_x3 = 2, the kernel's u = 0 column scaled by
    ``scale`` before each slice is renormalized."""
    rng = np.random.default_rng(77)
    shapes = ((2, 3), (2, 3), (card_x3, 3))
    comps = tuple(Component(f"c{i}", Joint2(rng.dirichlet(np.ones(a * b)).reshape(a, b)))
                  for i, (a, b) in enumerate(shapes))
    p = Problem(comps, (User((0,), 1.0), User((0, 1, 2), 0.5)), 0.05)
    t = rng.exponential(size=(4 * card_x3, 27, 8))
    t[:, :, 0] *= scale
    return p, M.Kernel(t / t.sum(axis=2, keepdims=True))


REFERENCE_SHAPES = [
    (((2, 2), (2, 2)), 2),
    (((2, 2), (2, 2)), 3),
    (((2, 2), (2, 2)), 4),
    (((2, 3), (3, 2)), 6),
    (((3, 3), (3, 3)), 8),
    (((2, 3), (2, 3), (2, 3)), 4),  # 4.4e5-entry decomposition joint
    (((3, 2), (2, 3), (2, 2)), 3),  # mixed |X|: bars of 3, 9 and 18 symbols
    (((2, 3), (2, 3), (2, 3)), 8),  # 7.1e6 entries: 885k-cell x-blocks
    (((3, 2),), 3),  # one component: a single bar factor
    (((2, 7), (2, 7)), 8),  # |Y| = 49
]

# |X_i| = 3 first, in the middle and last: the (x, b) marginal written
# through its (x_1, b_1, ..., x_N, b_N) view, and each part's x_i
MIXED_X_SHAPES = [
    (((3, 2), (2, 2)), 3),
    (((2, 2), (3, 2), (2, 2)), 2),
    (((2, 2), (2, 2), (3, 2)), 2),
]


class TestDecomposeReference:
    @pytest.mark.parametrize("shapes, card_u", REFERENCE_SHAPES + MIXED_X_SHAPES)
    def test_checks_match_full_marginals(self, shapes, card_u):
        p, k = reference_case(shapes, card_u)
        checks = assert_same_decomposition(p, k)
        assert checks.leakage_original > 1e-3  # a kernel that leaks, so the checks are not all zero

    def test_checks_match_with_cells_below_the_floor(self):
        # the 7.1e6-entry case, its u = 0 column x 1e-8: every block holds
        # cells below ZERO_FLOOR, about a third of block x = 0's. They count
        # like any other cell, so B - X - (Y, U) and the independence of the
        # triples read as they hold, and I(X;U) is the kernel's own leakage
        p, k = floor_case(scale=1e-8)
        checks = assert_same_decomposition(p, k)
        assert checks.markov_residual <= 1e-13 and checks.independence_residual <= 1e-13
        assert checks.leakage_original == pytest.approx(M.evaluate_monolithic(p, k).leakage, abs=1e-13)

    def test_sub_floor_chunks_and_a_cell_at_the_floor(self):
        # one component, 9 y-rows of 64 x 64 cells: in block x = 0, row 0
        # holds cells below ZERO_FLOOR (u = 0 nearly unused at y = 0), and
        # row 8 a nearly unused u = 5 whose cells all stay above it
        rng = np.random.default_rng(19)
        comp = Component("c", Joint2(rng.dirichlet(np.ones(18)).reshape(2, 9)))
        p = Problem((comp,), (User((0,), 1.0),), 0.05)
        t = rng.exponential(size=(2, 9, 64))
        t[:, 0, 0] *= 1e-12
        t[0, 8, 5] *= 1e-4
        k = M.Kernel(t / t.sum(axis=2, keepdims=True))
        cells = decomposition_cells(p, k)[0]  # block x = 0: (y, u, b)
        assert (cells[0] < pc.ZERO_FLOOR).any() and (cells[1:] >= pc.ZERO_FLOOR).all()
        assert_same_decomposition(p, k)

    def test_checks_match_on_mechanized_kernel(self):
        p, k = mechanized_case()
        cells = decomposition_cells(p, k)
        assert (cells == 0.0).any() and ((cells > 0.0) & (cells < pc.ZERO_FLOOR)).any()
        checks = assert_same_decomposition(p, k)
        assert checks.markov_residual <= 1e-13 and checks.independence_residual <= 1e-13

    @pytest.mark.parametrize("case", [*REFERENCE_SHAPES, "mechanized", "below_floor"])
    def test_block_entropies_near_exact(self, case):
        # sum c ln c over the whole joint, read off its factors, within
        # 1e-14 relative of the exactly rounded sum over its cells
        p, k = (mechanized_case() if case == "mechanized" else
                floor_case(scale=1e-8) if case == "below_floor" else reference_case(*case))
        j = M.monolithic_joint(p, k)
        got = M._decomposition_sums(j, M._bar_kernels(p, j))[0]
        assert got == pytest.approx(xlogx_sum(decomposition_cells(p, k)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("case", ["mechanized", "below_floor"])
    def test_sums_match_the_cleaned_cells(self, case):
        # the other sums and the marginals, each against the same quantity
        # summed over the materialised cells, none dropped; masses within
        # 1e-13 relative or 1e-18 absolute
        assert_sums_match_cells(*(mechanized_case() if case == "mechanized" else floor_case(scale=1e-8)))


def assert_sums_match_cells(p: Problem, k: M.Kernel) -> None:
    """``_decomposition_sums``' sums over xyb and xb and its marginals, each
    against the same quantity summed over ``decomposition_cells``."""
    n = p.n_components
    j = M.monolithic_joint(p, k)
    _, s_xyb, s_xb, xyu, col, parts = M._decomposition_sums(j, M._bar_kernels(p, j))
    cells = decomposition_cells(p, k)  # axes: x's, y's, u, b's
    xyb = cells.sum(axis=2 * n)
    xb = xyb.sum(axis=tuple(range(n, 2 * n)))
    assert all((mass >= 0.0).all() for mass in (xyu, col, *parts))
    for got, marginal in ((s_xyb, xyb), (s_xb, xb)):
        assert got == pytest.approx(xlogx_sum(marginal), rel=1e-14, abs=0.0)
    b_axes = tuple(range(2 * n + 1, 3 * n + 1))
    np.testing.assert_allclose(xyu.reshape(j.axes), cells.sum(axis=b_axes), rtol=1e-13, atol=1e-18)
    np.testing.assert_allclose(col, xb.sum(axis=tuple(range(n))).ravel(), rtol=1e-13, atol=1e-18)
    for i, part in enumerate(parts):
        keep = (i, n + i, 2 * n + 1 + i)
        want = cells.sum(axis=tuple(a for a in range(cells.ndim) if a not in keep))
        np.testing.assert_allclose(part, want, rtol=1e-13, atol=1e-18)


RUN_CASES = [
    # |X_i| = 3 first, in the middle and last
    pytest.param((((3, 3), (2, 2)), 3), id="case0-4-span0"),
    pytest.param((((2, 3), (3, 2), (2, 3)), 2), id="case1-4-span1"),
    pytest.param((((2, 3), (2, 3), (3, 3)), 2), id="case2-2-span2"),
    # 27 y-rows
    pytest.param((((2, 3), (2, 3), (2, 3)), 4), id="case3-1-span3"),
    # bars of 3, 9 and 18 symbols
    pytest.param((((3, 2), (2, 3), (2, 2)), 3), id="case4-0.5-span4"),
]


class TestDecomposeRuns:
    @pytest.mark.parametrize("case", RUN_CASES)
    def test_several_runs(self, case):
        # the kernel's u = 0 column x 1e-8: every (y, u) row of block x = 0
        # holds cells below ZERO_FLOOR, each counted like any other cell
        p, k = reference_case(*case)
        t = k.table.copy()
        t[:, :, 0] *= 1e-8
        k = M.Kernel(t / t.sum(axis=2, keepdims=True))
        cells = decomposition_cells(p, k)[(0,) * p.n_components]
        assert (cells.reshape(k.table.shape[1] * k.alphabet_u, -1) < pc.ZERO_FLOOR).any(axis=1).all()
        assert_same_decomposition(p, k)
        assert_sums_match_cells(p, k)


@st.composite
def decomposition_cases(draw) -> tuple[Problem, M.Kernel]:
    """1-3 components of alphabets of at most 3, a full-joint kernel of at
    most 4 symbols, some with exact zeros and some with one column scaled
    by 1e-8 to 1e-14 in some slices, so that blocks straddle ZERO_FLOOR."""
    n = draw(st.integers(1, 3))
    shapes = [(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(n)]
    card_u = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = tuple(Component(f"c{i}", Joint2(rng.dirichlet(np.ones(a * b)).reshape(a, b)))
                  for i, (a, b) in enumerate(shapes))
    p = Problem(comps, (User((0,), 1.0), User(tuple(range(n)), 0.5)), 0.05)
    nx, ny = map(math.prod, M.flat_axes(p))
    t = rng.exponential(size=(nx, ny, card_u))
    if draw(st.booleans()):  # exact zeros, each slice keeping its largest entry
        t[(rng.random(t.shape) < 0.4) & (t < t.max(axis=2, keepdims=True))] = 0.0
    if draw(st.booleans()):
        t[rng.random((nx, ny)) < 0.7, draw(st.integers(0, card_u - 1))] *= 10.0 ** -draw(st.floats(8, 14))
    return p, M.Kernel(t / t.sum(axis=2, keepdims=True))


class TestDecomposeProperties:
    @given(decomposition_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_checks_match_reference(self, case):
        p, k = case
        checks = assert_same_decomposition(p, k)
        assert abs(checks.leakage_bar - checks.leakage_original) <= 1e-12
        assert checks.markov_residual <= 1e-12
        assert checks.independence_residual <= 1e-12
        assert checks.leakage_original == pytest.approx(M.evaluate_monolithic(p, k).leakage, abs=1e-13)


class TestDecomposeMemory:
    def test_peak_below_half_the_joint(self):
        # three 2x3 components at |U| = 8: a 7.1e6-entry decomposition joint
        p, k = floor_case()
        bars = (8, 2 * 8, 4 * 8)  # |B_i| = |X_1|..|X_{i-1}| |U|
        joint_bytes = 8 * k.table.size * math.prod(bars)
        tracemalloc.start()
        try:
            bar, _ = M.decompose_transform(p, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bar.alphabets == bars
        assert peak < joint_bytes / 2

    def test_peak_with_sub_floor_blocks(self):
        # the same shape, its u = 0 column scaled by 1e-8: about a third of
        # each block's cells fall below ZERO_FLOOR. The factored sums form
        # no block and no cell mask: one block alone would take 6.8 MB, and
        # the peak stays under 1 MiB
        p, k = floor_case(scale=1e-8)
        j = M.monolithic_joint(p, k)
        bar = M._bar_kernels(p, j)
        blk = j.table[0, 0, 0]
        for mat in bar.kernels:
            blk = blk[..., None] * mat[0]
        assert ((blk > 0.0) & (blk < pc.ZERO_FLOOR)).mean() > 0.25
        assert blk.nbytes > 6 * 2**20
        del j, bar, blk
        tracemalloc.start()
        try:
            M.decompose_transform(p, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize("sub_floor", [False, True])
    def test_peak_is_xyb_one_block_and_one_chunk(self, sub_floor):
        # the cases of the two tests above, within 1 MiB, less than one
        # block of cells or the (x, y's, b's) marginal (6.8 MB each): a
        # whole-block array, a copy of xyb or an xyb-sized log would each
        # show
        p, k = floor_case(scale=1e-8 if sub_floor else 1.0)
        bars = (8, 2 * 8, 4 * 8)
        xyb_bytes = 8 * 8 * 27 * math.prod(bars)
        block_bytes = 8 * 27 * 8 * math.prod(bars)  # |Y||U| prod |B_i| cells
        tracemalloc.start()
        try:
            M.decompose_transform(p, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20 < min(xyb_bytes, block_bytes)

    @pytest.mark.parametrize("sub_floor", [False, True])
    def test_peak_is_one_run_two_chunks_and_the_xb_marginal(self, monkeypatch, sub_floor):
        # the 7.1e6-entry case (|X_3| = 2), and the same with |X_3| = 4: an
        # (x, b) marginal of |X| prod |B_i| entries would grow from 256 to
        # 512 KiB while the bar alphabets stay. None is formed: the peak
        # stays under 1 MiB and grows by no more than 64 KiB (xyu and the
        # monolithic joint, |X||Y||U| entries each, add 13.5 KiB each)
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", str(2 * 10**7))
        bars = (8, 2 * 8, 4 * 8)
        peaks = {}
        for card_x3 in (2, 4):
            p, k = floor_case(card_x3, 1e-8 if sub_floor else 1.0)
            tracemalloc.start()
            try:
                bar, _ = M.decompose_transform(p, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert bar.alphabets == bars
            assert peak <= 2**20
            peaks[card_x3] = peak
        assert peaks[4] <= peaks[2] + 2**16

    def test_decomposition_joint_obeys_cap(self, monkeypatch):
        rng = np.random.default_rng(62)
        p = two_binary_problem(5)
        k = random_monolithic_kernel(rng, p, 3)
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", str(k.table.size))
        M.monolithic_joint(p, k)  # the cap admits the monolithic joint
        with pytest.raises(SizeCapError, match="decomposition joint"):
            M.decompose_transform(p, k)


def interval_refinement_loop(cond, active_rows=None):
    """Reference: the refinement kernel filled one (a, y) slice at a time."""
    cond = np.asarray(cond, dtype=float)
    na, ny = cond.shape
    if active_rows is None:
        active_rows = np.ones(na, dtype=bool)
    cums = np.cumsum(cond, axis=1)
    pts = [0.0, 1.0]
    for a in range(na):
        if active_rows[a]:
            pts.extend(float(v) for v in cums[a, :-1])
    pts.sort()
    merged = [0.0]
    for v in pts[1:]:
        if v - merged[-1] > M.ENDPOINT_MERGE_TOL:
            merged.append(v)
    merged[-1] = 1.0
    cells = np.array(merged)
    lows, highs = cells[:-1], cells[1:]
    table = np.zeros((na, ny, lows.size))
    for a in range(na):
        lo = 0.0
        for y in range(ny):
            hi = float(cums[a, y])
            length = hi - lo
            if length <= 0.0 or not active_rows[a]:
                table[a, y, 0] = 1.0
            else:
                overlap = np.minimum(hi, highs) - np.maximum(lo, lows)
                table[a, y, :] = np.clip(overlap, 0.0, None) / length
            lo = hi
    return table


class TestIntervalRefinement:
    def test_bitwise_equal_to_loop(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            na, ny = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            cond = rng.dirichlet(np.ones(ny), size=na)
            cond[rng.random((na, ny)) < 0.3] = 0.0  # zero cells: empty intervals
            cond[cond.sum(axis=1) == 0.0, 0] = 1.0
            cond /= cond.sum(axis=1, keepdims=True)
            if na > 1 and rng.random() < 0.3:
                cond[1] = cond[0]  # shared endpoints
            active = rng.random(na) < 0.8 if rng.random() < 0.5 else None
            want = interval_refinement_loop(cond, active)
            got = M._interval_refinement(cond, active)
            assert np.array_equal(got, want)


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

    def test_builds_the_monolithic_joint_once(self, monkeypatch):
        rng = np.random.default_rng(2100)
        p = two_binary_problem(4)
        k = random_monolithic_kernel(rng, p, 3)
        calls = []
        real = M.monolithic_joint
        monkeypatch.setattr(M, "monolithic_joint", lambda *a: calls.append(1) or real(*a))
        _, checks = M.refine_transform(p, k)
        assert len(calls) == 1
        report = M.evaluate_monolithic(p, k)
        assert checks.leakage_original == report.leakage
        assert checks.user_utility_original == report.utilities

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
