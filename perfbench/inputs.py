"""Seeded inputs for the benchmark workloads.

These generators are the benchmark's own and deliberately do not import
``tests/helpers.py``: editing a test generator must not shift what the
benchmark measures.

Every workload is a fixed *bank* of problems, drawn once from ``BANK_SEED``
on a fixed schedule of shapes, user counts and budget strata. ``--seed``
relabels the bank: it permutes the X symbols of every component and the
order of the users (and a transform kernel's axes to match). Every
information quantity, bound, optimum and constructed-mechanism value is
unchanged by this, while the arrays the library receives, and the search's path
through them, differ from seed to seed.

Fresh draws per seed were tried first. The search's running time depends
strongly on a problem's contents (some problems converge in a few sweeps,
some use all of them), and so does every mean value: over the few dozen
problems that fit in a run, the seed, not the program, then set most of
the spread between runs.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from privbound.mechanisms import Kernel
from privbound.model import Component, Problem, User
from privbound.probcore import Joint2

BANK_SEED = 20221129
# stream ids keep the workloads' draws independent of each other
SMALL, LARGE, CLI, TRANSFORMS = 1, 2, 3, 4

EPS_FRAC = 0.9        # eps drawn in [0, EPS_FRAC * sum_i I(X_i;Y_i)), as in criterion 1
EPS_STRATA = 8        # budget strata; stratum k covers [k, k+1) / EPS_STRATA of the range
SWEEP_POINTS = 51     # sweep grids run from 0 to SWEEP_REACH * sum_i I(X_i;Y_i)
SWEEP_REACH = 1.2

CARDS = ((2, 2), (2, 3), (3, 2), (3, 3))
# N = 1 and N = 2 equally common; every ordered pair of component shapes once
SMALL_SHAPES = tuple((c,) for c in CARDS) * 4 + tuple(itertools.product(CARDS, repeat=2))
# N = 3, warm-start kernels from 1.3e4 to 4.8e5 entries (|U| up to the 1500
# cap). The all-3x3 problem (1.0e6 entries) is left out: it alone took a
# third of a pass, so the workload's numbers followed that one op.
LARGE_SHAPES = (
    ((2, 2), (2, 2), (2, 3)),
    ((2, 2), (2, 2), (3, 3)),
    ((3, 2), (3, 2), (3, 2)),
    ((2, 2), (3, 2), (3, 3)),
    ((2, 3), (2, 3), (2, 3)),
    ((2, 2), (3, 3), (3, 3)),
    ((2, 3), (2, 3), (3, 3)),
    ((3, 2), (3, 3), (3, 3)),
    ((2, 3), (3, 3), (3, 3)),
)

REGIMES = ("dense", "deterministic", "eps0", "small_hx")
CLI_FILES = 40

# (component shapes, |U|): from the criterion-6 shape (two binary components,
# |U| <= 4) to three components whose decomposition joint nears 10^7 entries.
TRANSFORM_SHAPES = (
    (((2, 2), (2, 2)), 2),
    (((2, 2), (2, 2)), 3),
    (((2, 2), (2, 2)), 4),
    (((2, 3), (3, 2)), 6),
    (((3, 3), (3, 3)), 8),
    (((2, 2), (2, 2)), 4),
    (((2, 3), (2, 3), (2, 3)), 4),
    (((3, 2), (3, 2), (3, 2)), 4),
    (((2, 3), (2, 3), (2, 3)), 6),
    (((2, 3), (2, 3), (2, 3)), 8),
)
TRANSFORM_CASES = 8 * len(TRANSFORM_SHAPES)

# ROADMAP item 1 probe: a high-weight skewed copy pair (H(X) = 0.135, mu = 2)
# and a uniform copy pair (mu = 1) at eps = 0.4. Kept verbatim in every run.
PROBE = {
    "tables": [np.array([[0.03, 0.0], [0.0, 0.97]]), np.array([[0.5, 0.0], [0.0, 0.5]])],
    "users": [([0], 2.0), ([1], 1.0)],
    "epsilon": 0.4,
}


# -- information quantities of plain arrays (the benchmark's own) -------------


def _entropy(p: np.ndarray) -> float:
    p = p[p > 1e-15]
    return float(-(p * np.log(p)).sum())


def _mi(table: np.ndarray) -> float:
    """I(rows; cols) of a 2-D joint mass table, in nats."""
    return _entropy(table.sum(axis=1)) + _entropy(table.sum(axis=0)) - _entropy(table.ravel())


# -- bank draws ------------------------------------------------------------------


def _bank(stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([BANK_SEED, stream, i])


def dense_table(rng: np.random.Generator, nx: int, ny: int) -> np.ndarray:
    """Dense random joint (flat Dirichlet over all cells)."""
    return rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)


def deterministic_table(rng: np.random.Generator) -> np.ndarray:
    """X = f(Y) for a random surjective f and a random Y marginal."""
    ny = int(rng.integers(2, 5))
    nx = int(rng.integers(2, ny + 1))
    f = np.concatenate([np.arange(nx), rng.integers(0, nx, ny - nx)])
    rng.shuffle(f)
    table = np.zeros((nx, ny))
    table[f, np.arange(ny)] = rng.dirichlet(np.ones(ny))
    return table


def random_users(rng: np.random.Generator, n: int, k: int) -> list[tuple[list[int], float]]:
    users = []
    for _ in range(k):
        size = int(rng.integers(1, n + 1))
        demands = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
        users.append((demands, float(rng.uniform(0.1, 2.0))))
    return users


def stratified_eps(rng: np.random.Generator, i: int, total_mi: float) -> float:
    """Uniform in [0, EPS_FRAC * total_mi), stratified along the schedule.

    Stratum (3 i mod EPS_STRATA) cycles through all strata every
    EPS_STRATA items, so each budget level is equally common in any run.
    """
    stratum = (3 * i) % EPS_STRATA
    return EPS_FRAC * total_mi * (stratum + float(rng.uniform())) / EPS_STRATA


def _interleave(n: int) -> list[int]:
    """A fixed permutation of range(n) that spreads neighbours apart, so that
    a prefix of the list (the self-tests' tiny runs) mixes shapes."""
    step = 7 if math.gcd(7, n) == 1 else 5
    return [(k * step) % n for k in range(n)]


# -- relabeling --------------------------------------------------------------------


def relabel(spec: dict, rng: np.random.Generator) -> dict:
    """The same problem with each component's X symbols and the users reordered.

    A ``kernel`` over the flattened alphabets (x, y, u) is carried along,
    with its u symbols permuted too. The order of the Y symbols and of the
    components is kept: the refinement construction cuts [0, 1) in Y's
    order, and the budget allocation breaks ties in mu by component index,
    so either would change the mechanisms built, not just their labels.
    """
    tables = spec["tables"]
    perm_x = [rng.permutation(t.shape[0]) for t in tables]
    out = {
        "tables": [t[px] for t, px in zip(tables, perm_x)],
        "users": [spec["users"][k] for k in rng.permutation(len(spec["users"]))],
        "epsilon": spec["epsilon"],
    }
    if "kernel" in spec:
        k = spec["kernel"]
        t = k.reshape([t.shape[0] for t in tables] + [k.shape[1], k.shape[2]])
        for axis, perm in enumerate(perm_x):
            t = np.take(t, perm, axis=axis)
        out["kernel"] = np.take(t, rng.permutation(k.shape[2]), axis=-1).reshape(k.shape)
    return out


def make_problem(spec: dict) -> Problem:
    comps = tuple(Component(f"c{i}", Joint2(t)) for i, t in enumerate(spec["tables"]))
    return Problem(comps, tuple(User(tuple(d), w) for d, w in spec["users"]), spec["epsilon"])


# -- sandwich workloads ----------------------------------------------------------


def sandwich_problems(seed: int, large: bool, scale: float = 1.0) -> list[Problem]:
    """Criterion-1-style problems: dense components, K <= 3 users, eps below sum I.

    ``scale`` < 1 keeps a prefix of the list (self-tests).
    """
    shapes = LARGE_SHAPES if large else SMALL_SHAPES
    stream = LARGE if large else SMALL
    problems = []
    for i, j in enumerate(_interleave(len(shapes))[: max(1, int(len(shapes) * scale))]):
        rng = _bank(stream, i)
        tables = [dense_table(rng, nx, ny) for nx, ny in shapes[j]]
        spec = {"tables": tables, "users": random_users(rng, len(tables), 1 + i % 3),
                "epsilon": stratified_eps(rng, i, sum(_mi(t) for t in tables))}
        problems.append(make_problem(relabel(spec, np.random.default_rng([seed, stream, i]))))
    return problems


# -- CLI workload ------------------------------------------------------------------


def cli_problem(seed: int, i: int) -> tuple[str, dict]:
    """(regime, problem spec) for the i-th CLI problem file."""
    regime = REGIMES[i % len(REGIMES)]
    if regime == "small_hx" and i < len(REGIMES):
        return regime, PROBE
    rng = _bank(CLI, i)
    if regime == "small_hx":
        # a skewed high-weight copy pair whose H(X) lies below eps, so the
        # single-target allocation overflows; the rest is dense
        p0 = float(rng.uniform(0.01, 0.05))
        skew = np.array([[p0, 0.0], [0.0, 1.0 - p0]])
        other = dense_table(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        users = [([0], float(rng.uniform(1.5, 3.0))), ([1], float(rng.uniform(0.5, 1.2)))]
        eps = _mi(skew) + EPS_FRAC * _mi(other) * float(rng.uniform())
        spec = {"tables": [skew, other], "users": users, "epsilon": eps}
    else:
        n = 1 + (i // len(REGIMES)) % 3
        if regime == "deterministic":
            tables = [deterministic_table(rng) for _ in range(n)]
        else:
            tables = [dense_table(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4))) for _ in range(n)]
        eps = 0.0 if regime == "eps0" else stratified_eps(rng, i, sum(_mi(t) for t in tables))
        spec = {"tables": tables, "users": random_users(rng, n, 1 + (i // 2) % 3), "epsilon": eps}
    return regime, relabel(spec, np.random.default_rng([seed, CLI, i]))


def problem_document(spec: dict) -> dict:
    """The ``privbound/1`` problem-file document for a spec."""
    return {
        "schema": "privbound/1",
        "components": [
            {"name": f"c{k}", "matrix": [[float(v) for v in row] for row in t]}
            for k, t in enumerate(spec["tables"])
        ],
        "users": [{"demands": d, "weight": w} for d, w in spec["users"]],
        "epsilon": float(spec["epsilon"]),
        "options": {"log_display": "nats"},
    }


def sweep_spec(spec: dict) -> tuple[str, int]:
    """``--eps`` grid from 0 to past sum I, and its number of points."""
    step = SWEEP_REACH * sum(_mi(t) for t in spec["tables"]) / (SWEEP_POINTS - 1)
    return f"0:{(SWEEP_POINTS - 1) * step!r}:{step!r}", SWEEP_POINTS


def write_problem(path: str, spec: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_document(spec), fh)


# -- transforms workload ----------------------------------------------------------


def transform_case(seed: int, i: int) -> tuple[Problem, Kernel]:
    """A dense problem and a random full-joint kernel over its alphabets."""
    shapes, card_u = TRANSFORM_SHAPES[i % len(TRANSFORM_SHAPES)]
    rng = _bank(TRANSFORMS, i)
    tables = [dense_table(rng, nx, ny) for nx, ny in shapes]
    n = len(tables)
    users = [([0], float(rng.uniform(0.2, 2.0))), (list(range(n)), float(rng.uniform(0.2, 2.0)))]
    t = rng.exponential(size=(math.prod(s[0] for s in shapes), math.prod(s[1] for s in shapes), card_u))
    spec = {"tables": tables, "users": users, "epsilon": 0.05,
            "kernel": t / t.sum(axis=2, keepdims=True)}
    spec = relabel(spec, np.random.default_rng([seed, TRANSFORMS, i]))
    return make_problem(spec), Kernel(spec["kernel"])


def kernel_leakage(p: Problem, k: Kernel) -> float:
    """Reference I(X;U) of a full-joint kernel, computed without the library."""
    pxy = p.components[0].joint.table
    for c in p.components[1:]:
        pxy = np.kron(pxy, c.joint.table)
    return _mi(np.einsum("xy,xyu->xu", pxy, k.table))
