"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run). The suites are fully seeded; rerunning
reproduces every number bit for bit.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    binary_y_component,
    deterministic_problem,
    random_component,
    random_problem,
)
from privbound import bounds as B
from privbound import mechanisms as M
from privbound import oracle as O
from privbound import probcore as pc
from privbound.model import Component, Problem, User, trivial_optimum, validate
from privbound.probcore import Joint2

_T0 = time.monotonic()

SANDWICH_SEEDS = range(200)
ORACLE_CFG = O.OracleConfig(seed=0)


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_sandwich_suite():
    t0 = time.monotonic()
    worst_lower = worst_middle = worst_upper = -math.inf
    bad = []
    for seed in SANDWICH_SEEDS:
        p = random_problem(seed)
        sw = O.sandwich_check(p, ORACLE_CFG)
        worst_lower = max(worst_lower, sw.lower - sw.mech_objective)
        worst_middle = max(worst_middle, sw.mech_objective - sw.oracle_best)
        worst_upper = max(worst_upper, sw.oracle_best - sw.upper)
        if not sw.ok:
            bad.append(seed)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed <= 180.0
    _report(
        1,
        ok,
        f"sandwich on 200 seeded problems in {elapsed:.1f}s (budget 180s); "
        f"worst margins: lower-mech {worst_lower:.2e} (tol 1e-9), "
        f"mech-oracle {worst_middle:.2e} (tol 1e-6), "
        f"oracle-upper {worst_upper:.2e} (tol 1e-9); failing seeds {bad}",
    )


def test_criterion_2_gap_identity():
    worst = 0.0
    for seed in SANDWICH_SEEDS:
        p = random_problem(seed)
        stats = validate(p)
        gap = B.gap_identity(p, stats)
        direct = B.upper_bound(p, stats) - B.lower_bound_frl(p, stats)
        worst = max(worst, abs(gap - direct))
    _report(2, worst <= 1e-9, f"gap identity residual {worst:.2e} <= 1e-9 on 200 instances")


def test_criterion_3_efrl_exactness():
    worst_leak = worst_resid = 0.0
    card_ok = True
    rng_seeds = range(100)
    for seed in rng_seeds:
        rng = np.random.default_rng(10_000 + seed)
        c = random_component(rng, f"a{seed}")
        i_xy = pc.mutual_information(c.joint)
        for frac in (0.0, 0.25, 0.5, 0.75, 0.95):
            eps = frac * i_xy
            k = M.efrl_construct(c, eps)
            j = M._component_joint(c, k)
            leak = pc.mi_between(j, [0], [2])
            resid = pc.joint_entropy(j) - pc.marginal_entropy(j, [0, 2])
            worst_leak = max(worst_leak, abs(leak - eps))
            worst_resid = max(worst_resid, resid)
            limit = (c.card_x * (c.card_y - 1) + 1) * (c.card_x + 1)
            card_ok = card_ok and k.alphabet_u <= limit
    ok = worst_leak <= 1e-9 and worst_resid <= 1e-10 and card_ok
    _report(
        3,
        ok,
        f"exact-leakage release on 100 components x 5 budgets: "
        f"|leak-eps| {worst_leak:.2e} <= 1e-9, H(Y|X,U) {worst_resid:.2e} <= 1e-10, "
        f"cardinality bounds {'held' if card_ok else 'violated'}",
    )


def _representable_deterministic(k: int) -> Problem:
    """First deterministic draw whose canonical mechanism fits |U| <= 16."""
    for sub in range(50):
        p = deterministic_problem(k * 1000 + sub)
        stats = validate(p)
        if stats.trivial:
            continue
        alloc = B.allocate_epsilon(p, stats, "frl")
        if M.compose_multiuser(p, alloc).cardinality <= 16:
            return p
    raise AssertionError("no representable deterministic instance found")


def test_criterion_4_deterministic_regime():
    worst_oracle = worst_mech = 0.0
    for k in range(30):
        p = _representable_deterministic(k)
        stats = validate(p)
        exact = B.deterministic_exact(p, stats)
        alloc = B.allocate_epsilon(p, stats, "frl")
        mech_obj = M.evaluate_composed(p, M.compose_multiuser(p, alloc)).objective
        res = O.search(p, O.OracleConfig(card_u=16, seed=0))
        worst_mech = max(worst_mech, abs(mech_obj - exact))
        worst_oracle = max(worst_oracle, abs(res.best_objective - exact))
    ok = worst_oracle <= 2e-3 and worst_mech <= 1e-9
    _report(
        4,
        ok,
        f"deterministic regime on 30 problems: |oracle-exact| {worst_oracle:.2e} <= 2e-3, "
        f"|mechanism-exact| {worst_mech:.2e} <= 1e-9",
    )


def test_criterion_5_perfect_privacy_tightness():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        c = binary_y_component(seed)
        p = Problem((c,), (User((0,), 1.0),), 0.0)
        rep = B.compute_bounds(p, validate(p))
        res = O.search(p, O.OracleConfig(seed=0))
        worst = max(worst, abs(res.best_objective - rep.pp_u2[0]))
    elapsed = time.monotonic() - t0
    ok = worst <= 5e-3 and elapsed <= 60.0
    _report(
        5,
        ok,
        f"zero-leakage tightness on 20 binary-output components in {elapsed:.1f}s "
        f"(budget 60s): worst |oracle-ceiling| {worst:.2e} <= 5e-3",
    )


def _transform_suite():
    for seed in range(50):
        rng = np.random.default_rng(20_000 + seed)
        comps = (
            Component("a", Joint2(rng.dirichlet(np.ones(4)).reshape(2, 2))),
            Component("b", Joint2(rng.dirichlet(np.ones(4)).reshape(2, 2))),
        )
        users = (
            User((0,), float(rng.uniform(0.2, 2.0))),
            User((0, 1), float(rng.uniform(0.2, 2.0))),
        )
        p = Problem(comps, users, 0.05)
        card = int(rng.integers(2, 5))
        t = rng.exponential(size=(4, 4, card))
        yield p, M.Kernel(t / t.sum(axis=2, keepdims=True))


def test_criterion_6_decomposition_transform():
    worst_leak = worst_markov = 0.0
    for p, k in _transform_suite():
        _, checks = M.decompose_transform(p, k)
        worst_leak = max(worst_leak, abs(checks.leakage_original - checks.leakage_bar))
        worst_markov = max(worst_markov, checks.markov_residual)
    ok = worst_leak <= 1e-9 and worst_markov <= 1e-9
    _report(
        6,
        ok,
        f"surrogate decomposition on 50 mechanisms: |leak diff| {worst_leak:.2e} <= 1e-9, "
        f"markov residual {worst_markov:.2e} <= 1e-9",
    )


def test_criterion_7_refinement_transform():
    worst_leak = 0.0
    worst_slackless = -math.inf
    for p, k in _transform_suite():
        _, checks = M.refine_transform(p, k)
        worst_leak = max(worst_leak, abs(checks.leakage_star - checks.leakage_original))
        for orig, star, slack in zip(
            checks.user_utility_original, checks.user_utility_star, checks.user_slack
        ):
            worst_slackless = max(worst_slackless, orig - star - slack)
    ok = worst_leak <= 1e-9 and worst_slackless <= 1e-9
    _report(
        7,
        ok,
        f"refined release on 50 mechanisms: leakage preserved within {worst_leak:.2e} "
        f"(tol 1e-9); utility bound margin {worst_slackless:.2e} <= 1e-9",
    )


def test_criterion_8_trivial_regime():
    worst = 0.0
    for seed in range(20):
        p = random_problem(seed, max_n=2)
        stats = validate(p)
        pt = Problem(p.components, p.users, 1.05 * stats.total_mi + 0.01)
        value = trivial_optimum(pt)
        res = O.search(pt, ORACLE_CFG)
        worst = max(worst, abs(value - res.best_objective))
    _report(
        8,
        worst <= 1e-6,
        f"trivial regime on 20 problems: worst |oracle-optimum| {worst:.2e} <= 1e-6",
    )


def test_criterion_9_runtime_and_reproducibility():
    p = random_problem(123)
    a = O.search(p, O.OracleConfig(restarts=4, iters=24, seed=7))
    b = O.search(p, O.OracleConfig(restarts=4, iters=24, seed=7))
    bitwise = (
        a.best_objective == b.best_objective
        and a.trace == b.trace
        and np.array_equal(a.best_kernel.table, b.best_kernel.table)
    )
    elapsed = time.monotonic() - _T0
    ok = bitwise and elapsed <= 300.0
    _report(
        9,
        ok,
        f"acceptance module wall clock {elapsed:.1f}s <= 300s; "
        f"seeded search bitwise reproducible: {bitwise}",
    )
