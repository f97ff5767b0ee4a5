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


def reference_decomposition_checks(p: Problem, k: M.Kernel) -> tuple[float, ...]:
    # every entropy read from a validated JointN.marginal table of the full
    # decomposition joint, with the axes in the order each quantity names them
    n = p.n_components
    j = M.monolithic_joint(p, k)
    cells = bar_products(j, M._bar_kernels(p, j))
    big = pc.JointN(cells.shape, cells)
    x, y, u = list(range(n)), list(range(n, 2 * n)), [2 * n]
    b = list(range(2 * n + 1, 3 * n + 1))

    def h(axes):
        return pc.joint_entropy(big.marginal(axes))

    leak_u = h(x) + h(u) - h(x + u)
    leak_b = h(x) + h(b) - h(x + b)
    markov = h(b + x) + h(y + u + x) - h(b + y + u + x) - h(x)
    indep = sum(h([b[i], x[i], y[i]]) for i in range(n)) - h(b + x + y)
    return tuple(max(0.0, v) for v in (leak_u, leak_b, markov, indep))


ENTROPY_RAW = pc._entropy_raw  # unrecorded by ``assert_same_decomposition``


def decompose_loop(p: Problem, k: M.Kernel) -> tuple[M.BarMechanism, M.DecompositionChecks, list[float]]:
    """Reference: the decomposition one x-block at a time, each block and
    its logs in fresh arrays and ``xyb`` held whole, its sums in the
    transform's order. A block's entropy is the ``math.fsum`` of its
    chunks' (``chunk_rows``), taken with ENTROPY_RAW; ``xyb``'s raw entropy
    and its marginals are summed over the same runs (``M._run_span``), its
    entropy a ``math.fsum`` of ``GATHER_CHUNK`` pieces per run. Returns the
    bar kernels, the checks and the block entropies in x order."""
    n = p.n_components
    j = M.monolithic_joint(p, k)
    bar = M._bar_kernels(p, j)
    axes_x, axes_y = j.axes[:n], j.axes[n:2 * n]
    ny, rows = chunk_rows(p, k.alphabet_u, bar.alphabets)
    nb = math.prod(bar.alphabets)
    xyb = np.empty(axes_x + axes_y + bar.alphabets)
    xyu = np.empty(j.axes)
    h_raw = 0.0
    blocks = []
    for xs in np.ndindex(*axes_x):
        blk = j.table[xs]
        for mat, xi in zip(bar.kernels, xs):
            blk = blk[..., None] * mat[xi]
        if blk.min() < pc.ZERO_FLOOR:
            np.copyto(blk, 0.0, where=blk < pc.ZERO_FLOOR)
        by_y = blk.reshape(ny, -1)
        blocks.append(math.fsum([ENTROPY_RAW(by_y[r:r + rows]) for r in range(0, ny, rows)]))
        h_raw += blocks[-1]
        blk.sum(axis=n, out=xyb[xs])
        blk.sum(axis=tuple(range(n + 1, 2 * n + 1)), out=xyu[xs])
    total = float(xyu.sum())
    h_all = h_raw / total + math.log(total)
    xyu = pc.JointN(xyu.shape, xyu)

    d, r = M._run_span(axes_x, ny * nb)
    xb = np.empty((math.prod(axes_x), nb))
    parts = [np.zeros((axes_x[i], axes_y[i], bar.alphabets[i])) for i in range(n)]
    h_xyb, at = 0.0, 0
    for pre in np.ndindex(*axes_x[:d]):
        for s in range(0, axes_x[d], r):
            run = xyb[pre][s:s + r]
            cells = run.reshape(-1)
            h_xyb += math.fsum([pc._entropy_raw(cells[i:i + pc.GATHER_CHUNK])
                                for i in range(0, cells.size, pc.GATHER_CHUNK)])
            by_x = run.reshape(-1, ny, nb)
            xb[at:at + len(by_x)] = by_x.sum(axis=1)
            at += len(by_x)
            for i, part in enumerate(parts):
                # the run's axes: x_d.., then the y's, then the b's
                kept = ([i - d] if i >= d else []) + [n - d + i, 2 * n - d + i]
                share = run.sum(axis=tuple(a for a in range(run.ndim) if a not in kept))
                if i < d:
                    part[pre[i]] += share
                elif i == d:
                    part[s:s + len(run)] += share
                else:
                    part += share
    xb /= total
    x_axes = list(range(n))
    markov = (pc._entropy_raw(xb) + pc.joint_entropy(xyu) - h_all - pc.marginal_entropy(xyu, x_axes))
    h_parts = 0.0
    for part in parts:
        part /= total
        h_parts += pc._entropy_raw(part)
    return bar, M.DecompositionChecks(
        leakage_original=float(pc.mi_between(xyu, x_axes, [2 * n])),
        leakage_bar=float(pc._mi(xb)[0]),
        markov_residual=float(max(0.0, markov)),
        independence_residual=float(max(0.0, h_parts - h_xyb / total - math.log(total))),
    ), blocks


def assert_same_decomposition(monkeypatch, p: Problem, k: M.Kernel) -> M.DecompositionChecks:
    """decompose_transform equals decompose_loop bit for bit: its bar
    kernels, its four checks, its block entropies (recorded from
    ``_decompose_block``, in x order) and every entropy it takes with
    ``_entropy_raw``, in order. Returns the checks."""
    raw, block = pc._entropy_raw, M._decompose_block
    seen: list[float] = []
    blocks: list[float] = []

    def recorded(mass, scratch=None):
        seen.append(raw(mass, scratch))
        return seen[-1]

    def recorded_block(*args):
        blocks.append(block(*args))
        return blocks[-1]

    monkeypatch.setattr(pc, "_entropy_raw", recorded)
    monkeypatch.setattr(M, "_decompose_block", recorded_block)
    bar, checks = M.decompose_transform(p, k)
    got_entropies = seen.copy()
    seen.clear()
    want_bar, want, want_blocks = decompose_loop(p, k)
    assert bar.alphabets == want_bar.alphabets
    for got_k, want_k in zip(bar.kernels, want_bar.kernels, strict=True):
        assert np.array_equal(got_k, want_k)
    assert checks == want
    assert len(blocks) == math.prod(c.card_x for c in p.components)
    assert blocks == want_blocks
    assert got_entropies == seen
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


REFERENCE_SHAPES = [
    (((2, 2), (2, 2)), 2),
    (((2, 2), (2, 2)), 3),
    (((2, 2), (2, 2)), 4),
    (((2, 3), (3, 2)), 6),
    (((3, 3), (3, 3)), 8),
    (((2, 3), (2, 3), (2, 3)), 4),  # 4.4e5-entry decomposition joint
    (((3, 2), (2, 3), (2, 2)), 3),  # mixed |X|: bars of 3, 9 and 18 symbols
    (((2, 3), (2, 3), (2, 3)), 8),  # 7.1e6 entries: 885k-cell x-blocks
    (((3, 2),), 3),  # one component: no bar factor before the last
    SEVERAL_CHUNKS := (((2, 7), (2, 7)), 8),  # 49 y-rows of 1024 cells: chunks of 16, 16, 16, 1 rows
]


def chunk_rows(p: Problem, card_u: int, bars) -> tuple[int, int]:
    """(flattened |Y|, y-rows per chunk) of decompose_transform's blocks."""
    row = card_u * math.prod(bars)
    return math.prod(c.card_y for c in p.components), max(1, pc.GATHER_CHUNK // row)


class TestDecomposeReference:
    @pytest.mark.parametrize("shapes, card_u", REFERENCE_SHAPES)
    def test_checks_match_full_marginals(self, monkeypatch, shapes, card_u):
        p, k = reference_case(shapes, card_u)
        checks = assert_same_decomposition(monkeypatch, p, k)
        got = (checks.leakage_original, checks.leakage_bar, checks.markov_residual,
               checks.independence_residual)
        want = reference_decomposition_checks(p, k)
        assert want[0] > 1e-3  # a kernel that leaks, so the checks are not all zero
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)


    def test_blocks_span_several_chunks(self):
        p, k = reference_case(*SEVERAL_CHUNKS)
        ny, rows = chunk_rows(p, k.alphabet_u, (8, 16))
        assert ny > 2 * rows and ny % rows  # three whole chunks, then a short one

    def test_sub_floor_chunks_and_a_cell_at_the_floor(self, monkeypatch):
        # one component, 9 y-rows of 64 x 64 cells: chunks of 4, 4 and 1
        # rows. Row 0 holds cells below ZERO_FLOOR (u = 0 nearly unused at
        # y = 0), rows 4-7 none, and in row 8 of block x = 0 one bar factor
        # is nudged so that one cell lands exactly on ZERO_FLOOR: kept in
        # the sums, dropped from the entropy, with nothing to zero in its
        # chunk. Both sides multiply the same nudged kernel.
        rng = np.random.default_rng(19)
        comp = Component("c", Joint2(rng.dirichlet(np.ones(18)).reshape(2, 9)))
        p = Problem((comp,), (User((0,), 1.0),), 0.05)
        t = rng.exponential(size=(2, 9, 64))
        t[:, 0, 0] *= 1e-12
        # the block's smallest cell, so the nudge takes no other cell of its
        # chunk to the floor
        t[0, 8, 5] *= 1e-4
        k = M.Kernel(t / t.sum(axis=2, keepdims=True))
        j = M.monolithic_joint(p, k)
        bar = M._bar_kernels(p, j)
        cell, b = j.table[0, 8, 5], 7
        factor = pc.ZERO_FLOOR / cell
        for _ in range(64):
            if cell * factor == pc.ZERO_FLOOR:
                break
            factor = np.nextafter(factor, np.inf if cell * factor < pc.ZERO_FLOOR else 0.0)
        assert cell * factor == pc.ZERO_FLOOR
        nudged_kernel = bar.kernels[0].copy()
        nudged_kernel[0, b + 1] += nudged_kernel[0, b] - factor  # the row keeps its mass
        nudged_kernel[0, b] = factor
        nudged = M.BarMechanism((nudged_kernel,), bar.alphabets)
        monkeypatch.setattr(M, "_bar_kernels", lambda p, j: nudged)

        ny, rows = chunk_rows(p, 64, bar.alphabets)
        assert (ny, rows) == (9, 4)
        cells = bar_products(j, nudged)[0]  # block x = 0: (y, u, b)
        low = [(cells[r:r + rows] < pc.ZERO_FLOOR).any() for r in range(0, ny, rows)]
        assert low == [True, False, False]
        assert (cells[8] == pc.ZERO_FLOOR).sum() == 1 and (cells[8] >= pc.ZERO_FLOOR).all()
        assert_same_decomposition(monkeypatch, p, k)

    def test_checks_match_on_mechanized_kernel(self, monkeypatch):
        p, k = mechanized_case()
        j = M.monolithic_joint(p, k)
        cells = bar_products(j, M._bar_kernels(p, j))
        assert (cells == 0.0).any() and ((cells > 0.0) & (cells < pc.ZERO_FLOOR)).any()
        checks = assert_same_decomposition(monkeypatch, p, k)
        got = (checks.leakage_original, checks.leakage_bar, checks.markov_residual,
               checks.independence_residual)
        for g, w in zip(got, reference_decomposition_checks(p, k)):
            assert g == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("case", [*REFERENCE_SHAPES, "mechanized"])
    def test_block_entropies_near_exact(self, monkeypatch, case):
        # each streamed block entropy, the fsum of its chunks' sums, within
        # 1e-14 relative of one _entropy_raw over the whole block and of
        # the exactly rounded sum of its terms
        p, k = mechanized_case() if case == "mechanized" else reference_case(*case)
        block, blocks = M._decompose_block, []
        monkeypatch.setattr(M, "_decompose_block", lambda *a: blocks.append(block(*a)) or blocks[-1])
        M.decompose_transform(p, k)
        j = M.monolithic_joint(p, k)
        bar = M._bar_kernels(p, j)
        cells = bar_products(j, bar)
        n = p.n_components
        for xs, got in zip(np.ndindex(*j.axes[:n]), blocks, strict=True):
            blk = cells[xs].copy()
            np.copyto(blk, 0.0, where=blk < pc.ZERO_FLOOR)
            kept = blk[blk > pc.ZERO_FLOOR]
            exact = -math.fsum(kept * np.log(kept))
            assert got == pytest.approx(exact, rel=1e-14, abs=0.0)
            assert got == pytest.approx(pc._entropy_raw(blk), rel=1e-14, abs=0.0)


# (shapes, |U|), RUN_CELLS in x-blocks of xyb, and the (d, r) it gives
RUN_CASES = [
    # x-axes (3, 2): runs of two values of x_1, then a short run of one
    ((((3, 2), (2, 2)), 3), 4, (0, 2)),
    # (2, 3, 2): under each x_1, runs of two values of x_2, then one
    ((((2, 2), (3, 2), (2, 2)), 2), 4, (1, 2)),
    # (2, 2, 3): runs along the last axis, two values and then one
    ((((2, 2), (2, 2), (3, 2)), 2), 2, (2, 2)),
    # (2, 2, 2): one x-block per run, each of several chunks
    ((((2, 3), (2, 3), (2, 3)), 4), 1, (2, 1)),
    # a run smaller than one block still holds that block
    ((((3, 2), (2, 3), (2, 2)), 3), 0.5, (2, 1)),
]


def xyb_block(p: Problem, card_u: int) -> int:
    """Cells of one x-block of ``xyb``: |Y| prod |B_i|, |B_i| = |X_1|..|X_{i-1}| |U|."""
    xs = [c.card_x for c in p.components]
    bars = [math.prod(xs[:i]) * card_u for i in range(len(xs))]
    return math.prod(c.card_y for c in p.components) * math.prod(bars)


class TestDecomposeRuns:
    def test_default_runs(self):
        # the 7.1e6-entry case: blocks of 110,592 cells, one per run; the
        # 2x2 pairs: all of xyb in one run
        assert M._run_span((2, 2, 2), 27 * 8 * 16 * 32) == (2, 1)
        assert M._run_span((2, 2), 4 * 2 * 4) == (0, 2)
        assert M._run_span((3, 3, 3), 8 * 4 * 12 * 36) == (0, 1)  # nine blocks a run

    @pytest.mark.parametrize("case, blocks, span", RUN_CASES)
    def test_several_runs(self, monkeypatch, case, blocks, span):
        p, k = reference_case(*case)
        axes_x = tuple(c.card_x for c in p.components)
        block = xyb_block(p, k.alphabet_u)
        monkeypatch.setattr(M, "RUN_CELLS", int(blocks * block))
        d, r = M._run_span(axes_x, block)
        assert (d, r) == span
        assert math.prod(axes_x[:d]) * math.ceil(axes_x[d] / r) > 1  # several runs
        assert r == 1 or axes_x[d] % r  # the last run along x_d is short
        checks = assert_same_decomposition(monkeypatch, p, k)
        got = (checks.leakage_original, checks.leakage_bar, checks.markov_residual,
               checks.independence_residual)
        for g, w in zip(got, reference_decomposition_checks(p, k)):
            assert g == pytest.approx(w, abs=1e-12)


class TestDecomposeMemory:
    def test_peak_below_half_the_joint(self):
        # three 2x3 components at |U| = 8: a 7.1e6-entry decomposition joint
        rng = np.random.default_rng(77)
        comps = tuple(Component(f"c{i}", Joint2(rng.dirichlet(np.ones(6)).reshape(2, 3)))
                      for i in range(3))
        p = Problem(comps, (User((0,), 1.0), User((0, 1, 2), 0.5)), 0.05)
        k = random_monolithic_kernel(rng, p, 8)
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
        # each block's cells fall below ZERO_FLOOR. Fresh arrays per block (a
        # copy of its kept cells and their logs) peaked at xyb + three blocks;
        # gathered into the workspaces, the peak is xyb, the block, its logs
        # and a cell mask, plus 1 MiB for the rest.
        rng = np.random.default_rng(77)
        comps = tuple(Component(f"c{i}", Joint2(rng.dirichlet(np.ones(6)).reshape(2, 3)))
                      for i in range(3))
        p = Problem(comps, (User((0,), 1.0), User((0, 1, 2), 0.5)), 0.05)
        t = rng.exponential(size=(8, 27, 8))
        t[:, :, 0] *= 1e-8
        k = M.Kernel(t / t.sum(axis=2, keepdims=True))
        j = M.monolithic_joint(p, k)
        bar = M._bar_kernels(p, j)
        blk = j.table[0, 0, 0]
        for mat in bar.kernels:
            blk = blk[..., None] * mat[0]
        assert ((blk > 0.0) & (blk < pc.ZERO_FLOOR)).mean() > 0.25
        xyb_bytes = 8 * j.table.size // k.alphabet_u * math.prod(bar.alphabets)
        block_bytes = blk.nbytes
        del j, bar, blk
        tracemalloc.start()
        try:
            M.decompose_transform(p, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= xyb_bytes + 2 * block_bytes + block_bytes // 8 + 2**20

    @pytest.mark.parametrize("sub_floor", [False, True])
    def test_peak_is_xyb_one_block_and_one_chunk(self, sub_floor):
        # the cases of the two tests above: one block of terms and one chunk
        # of cells beside xyb, plus 1 MiB for the rest; a whole-block cell
        # workspace, a copy of xyb or an xyb-sized log after the loop would
        # each add about 7 MB
        rng = np.random.default_rng(77)
        comps = tuple(Component(f"c{i}", Joint2(rng.dirichlet(np.ones(6)).reshape(2, 3)))
                      for i in range(3))
        p = Problem(comps, (User((0,), 1.0), User((0, 1, 2), 0.5)), 0.05)
        t = rng.exponential(size=(8, 27, 8))
        if sub_floor:
            t[:, :, 0] *= 1e-8
        k = M.Kernel(t / t.sum(axis=2, keepdims=True))
        bars = (8, 2 * 8, 4 * 8)
        row = 8 * math.prod(bars)  # one y-row of a block: |U| prod |B_i| cells
        xyb_bytes = 8 * 8 * 27 * math.prod(bars)
        block_bytes = 8 * 27 * row
        chunk_bytes = 8 * max(pc.GATHER_CHUNK, row)
        tracemalloc.start()
        try:
            M.decompose_transform(p, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= xyb_bytes + block_bytes + chunk_bytes + 2**20

    @pytest.mark.parametrize("sub_floor", [False, True])
    def test_peak_is_one_run_two_chunks_and_the_xb_marginal(self, monkeypatch, sub_floor):
        # the 7.1e6-entry case (|X_3| = 2), and the same with |X_3| = 4: xyb
        # grows from 6.75 to 13.5 MiB while the bar alphabets, the run and
        # the chunks stay. The peak is at most one run, two chunks and the
        # (x, b) marginal, |X| prod |B_i| entries, plus 1 MiB for the rest;
        # beyond that marginal it grows by no more than 64 KiB (xyu and the
        # monolithic joint, |X||Y||U| entries each, add 13.5 KiB each).
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", str(2 * 10**7))
        bars = (8, 2 * 8, 4 * 8)
        block = 27 * math.prod(bars)  # one x-block of xyb
        run_bytes = 8 * max(M.RUN_CELLS, block)
        chunk_bytes = 8 * max(pc.GATHER_CHUNK, 8 * math.prod(bars))
        rest = {}
        for card_x3 in (2, 4):
            rng = np.random.default_rng(77)
            shapes = ((2, 3), (2, 3), (card_x3, 3))
            comps = tuple(Component(f"c{i}", Joint2(rng.dirichlet(np.ones(a * b)).reshape(a, b)))
                          for i, (a, b) in enumerate(shapes))
            p = Problem(comps, (User((0,), 1.0), User((0, 1, 2), 0.5)), 0.05)
            t = rng.exponential(size=(4 * card_x3, 27, 8))
            if sub_floor:
                t[:, :, 0] *= 1e-8
            k = M.Kernel(t / t.sum(axis=2, keepdims=True))
            xb_bytes = 8 * 4 * card_x3 * math.prod(bars)
            tracemalloc.start()
            try:
                bar, _ = M.decompose_transform(p, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert bar.alphabets == bars
            assert peak <= run_bytes + 2 * chunk_bytes + xb_bytes + 2**20
            rest[card_x3] = peak - xb_bytes
        assert rest[4] <= rest[2] + 2**16

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
