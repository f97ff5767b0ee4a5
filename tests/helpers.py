"""Seeded instance generators shared across the test suite."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from privbound import bounds as bounds_mod
from privbound import mechanisms, probcore
from privbound.cli import PROBLEM_SCHEMA
from privbound.mechanisms import ComposedMechanism, ConstructionTag, Kernel, identity_kernel
from privbound.model import Component, Problem, User, trivial_optimum, user_weight_mass, validate
from privbound.probcore import Joint2, entropy, joint_entropy


def entropy_mi(m: Joint2 | np.ndarray) -> float:
    """Reference I(A;B) = H(A) + H(B) - H(A,B) of a joint or a 2-D joint mass
    matrix, clamped at 0: built from probcore's entropies, not its MI kernel."""
    j = m if isinstance(m, Joint2) else Joint2(m)
    return max(0.0, entropy(j.marginal_rows()) + entropy(j.marginal_cols()) - joint_entropy(j))


def random_joint(rng: np.random.Generator, nx: int, ny: int) -> Joint2:
    """Dense random joint (flat Dirichlet over all cells)."""
    return Joint2(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))


def random_component(rng: np.random.Generator, name: str, max_card: int = 3) -> Component:
    nx = int(rng.integers(2, max_card + 1))
    ny = int(rng.integers(2, max_card + 1))
    return Component(name, random_joint(rng, nx, ny))


def random_users(rng: np.random.Generator, n: int, max_k: int = 3) -> tuple[User, ...]:
    k = int(rng.integers(1, max_k + 1))
    users = []
    for _ in range(k):
        size = int(rng.integers(1, n + 1))
        demands = tuple(int(i) for i in rng.choice(n, size=size, replace=False))
        users.append(User(demands=demands, weight=float(rng.uniform(0.1, 2.0))))
    return tuple(users)


def random_problem(
    seed: int,
    max_n: int = 3,
    max_card: int = 3,
    max_k: int = 3,
    eps_frac: float = 0.9,
) -> Problem:
    """A random dense problem with eps drawn uniformly in [0, eps_frac * sum I)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    comps = tuple(random_component(rng, f"c{i}", max_card) for i in range(n))
    users = random_users(rng, n, max_k)
    total_mi = sum(entropy_mi(c.joint) for c in comps)
    eps = float(rng.uniform(0.0, eps_frac * total_mi))
    return Problem(comps, users, eps)


def deterministic_component(rng: np.random.Generator, name: str) -> Component:
    """X = f(Y) with a random surjective f and a random Y marginal."""
    ny = int(rng.integers(2, 5))
    nx = int(rng.integers(2, ny + 1))
    f = np.concatenate([np.arange(nx), rng.integers(0, nx, ny - nx)])
    rng.shuffle(f)
    py = rng.dirichlet(np.ones(ny))
    table = np.zeros((nx, ny))
    table[f, np.arange(ny)] = py
    return Component(name, Joint2(table))


def deterministic_problem(seed: int, eps_frac: float = 0.9) -> Problem:
    """X_i = f_i(Y_i) everywhere; eps kept inside the single-target regime.

    The exact closed form (and the one-component budget placement behind
    it) is valid while eps fits on the component with the largest weight
    mass, so eps is drawn in [0, eps_frac * I(argmax mu)).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    comps = tuple(deterministic_component(rng, f"c{i}") for i in range(n))
    users = random_users(rng, n)
    problem = Problem(comps, users, 0.0)
    mu = user_weight_mass(problem)
    target = int(np.argmax(mu))
    cap = entropy_mi(comps[target].joint)
    eps = float(rng.uniform(0.0, eps_frac * cap))
    return Problem(comps, users, eps)


def wide_component(rng: np.random.Generator, name: str = "wide", card: int = 64) -> Component:
    """A near-independent card x card component: near-uniform marginals,
    each cell scaled by 1 + 0.1 u with u uniform on [-1, 1], so I(X;Y) is
    about 1e-3 nats and H(X|Y) about ln card. Its refinement has about
    card (card - 1) + 1 cells, and at card = 64 its kernel (about 1.65e7
    entries) is over the default size cap."""
    px = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, card)
    py = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, card)
    table = np.outer(px, py) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, (card, card)))
    return Component(name, Joint2(table / table.sum()))


def wide_problem(seed: int, beside: bool = False, card: int = 64) -> Problem:
    """A ``wide_component``, alone or beside two small random components
    (``beside``; |X|, |Y| <= 2 each), with 1-3 users and eps drawn in [0,
    0.9 min(cap, sum_i I)), cap the least of the ``bounds.VARIANTS``
    targets' share caps, just below H(X_t): so the problem is non-trivial
    and eps <= H(X_t) of each allocation's target, where the paper's lower
    bounds hold."""
    rng = np.random.default_rng(seed)
    comps = (wide_component(rng, card=card),)
    if beside:
        comps += tuple(random_component(rng, f"c{i}", 2) for i in (1, 2))
    users = random_users(rng, len(comps))
    base = Problem(comps, users, 0.0)
    stats = validate(base)
    cap = min(bounds_mod.target(stats, v)[2] for v in bounds_mod.VARIANTS)
    return Problem(comps, users, float(rng.uniform(0.0, 0.9 * min(cap, stats.total_mi))))


def refinement_mi_reference(c: Component) -> float:
    """Reference I(Y;T) of a component's refinement on its kernel:
    ``frl_construct``, the joint of (X, Y, T) and ``mi_between``, the path
    ``refinement_profile`` reads off the partition instead."""
    return probcore.mi_between(mechanisms._component_joint(c, mechanisms.frl_construct(c)), [1], [2])


def binary_y_component(seed: int) -> Component:
    """A random dense component with |Y| = 2."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 4))
    return Component("b", random_joint(rng, nx, 2))


def xy_copy_component(name: str = "copy", p0: float = 0.5) -> Component:
    """X = Y binary with P(Y=0) = p0."""
    return Component(name, Joint2(np.array([[p0, 0.0], [0.0, 1.0 - p0]])))


def bsc_component(theta: float = 0.1, name: str = "bsc") -> Component:
    """Uniform binary input through a binary symmetric channel."""
    return Component(
        name,
        Joint2(np.array([[(1 - theta) / 2, theta / 2], [theta / 2, (1 - theta) / 2]])),
    )


def identity_mechanism(p: Problem) -> ComposedMechanism:
    """U_i = Y_i for every component: releases all of Y."""
    return ComposedMechanism(
        kernels=tuple(identity_kernel(c) for c in p.components),
        tags=tuple(ConstructionTag("identity") for _ in p.components),
    )


def constant_mechanism(p: Problem) -> ComposedMechanism:
    """U_i constant for every component: releases nothing."""
    return ComposedMechanism(
        kernels=tuple(Kernel(np.ones((c.card_x, c.card_y, 1))) for c in p.components),
        tags=tuple(ConstructionTag("constant") for _ in p.components),
    )


def materialize_reference(p: Problem, m: ComposedMechanism) -> Kernel:
    """Reference flattening of a composed mechanism: the outer products
    and regrouping transpose that ``mechanisms.materialize_monolithic`` ran
    before it wrote through ``mechanisms._compose_into``, kept verbatim."""
    nx = math.prod(c.card_x for c in p.components)
    ny = math.prod(c.card_y for c in p.components)
    nu = math.prod(k.alphabet_u for k in m.kernels)
    probcore.check_size("materialized kernel", nx * ny * nu)
    t = m.kernels[0].table
    for k in m.kernels[1:]:
        t = np.multiply.outer(t, k.table)
    # axes currently (x1,y1,u1,...,xN,yN,uN); regroup to (x..., y..., u...)
    n = p.n_components
    perm = [3 * i for i in range(n)] + [3 * i + 1 for i in range(n)] + [3 * i + 2 for i in range(n)]
    return Kernel(np.transpose(t, perm).reshape(nx, ny, nu))


def problem_to_dict(p: Problem, options: dict | None = None) -> dict:
    """Reference writer of the problem file schema, the inverse of
    ``cli.parse_problem``."""
    options = dict(options or {})
    doc: dict = {
        "schema": PROBLEM_SCHEMA,
        "components": [],
        "users": [
            {"demands": list(u.demands), "weight": u.weight} for u in p.users
        ],
        "epsilon": p.epsilon,
        "options": {
            "log_display": options.get("log_display", "nats"),
            "sfrl_constant": p.sfrl_constant,
        },
    }
    for c in p.components:
        entry: dict = {
            "name": c.name,
            "matrix": [[float(v) for v in row] for row in c.joint.table],
        }
        if c.labels_x is not None:
            entry["labels_x"] = list(c.labels_x)
        if c.labels_y is not None:
            entry["labels_y"] = list(c.labels_y)
        doc["components"].append(entry)
    return doc


def const_marginals(ev) -> np.ndarray:
    """Packed marginals, shape (1, size), of the constant kernel (all mass on
    u = 0) for an ``oracle._Evaluator``."""
    const = np.zeros((ev.nx, ev.ny, ev.card_u))
    const[:, :, 0] = 1.0
    return ev.marginals(const)


def toward_const(ev, marg: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Reference for the search's repair: packed marginals mixed toward the
    constant kernel, row by row, by the weights ``t``; a row with weight 0
    comes back unchanged."""
    s = np.asarray(t, dtype=float)[:, None]
    return (1.0 - s) * marg + s * const_marginals(ev)


def step_table(ev, table: np.ndarray, k: int, choices: np.ndarray) -> np.ndarray:
    """Reference for the search's accepted step: a fresh kernel tensor of
    step candidate k of a sweep, (1 - eta_j) K + eta_j D_i with
    i, j = divmod(k, len(STEP_SIZES)), for one row's ``table`` and vertex
    ``choices`` (an ``oracle._Evaluator`` ``ev``)."""
    from privbound.oracle import STEP_SIZES

    i, j = divmod(k, len(STEP_SIZES))
    eta = STEP_SIZES[j]
    cand = (1.0 - eta) * table
    x, y = np.indices((ev.nx, ev.ny))
    cand[x, y, choices[i]] += eta
    return cand


def jump_table(ev, table: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Reference for the search's accepted jump: a copy of ``table`` with flat
    column cols[k] = (x, y) moved to the vertex vals[k], for each k."""
    cand = table.copy()
    flat = cand.reshape(ev.nx * ev.ny, ev.card_u)
    flat[cols] = 0.0
    flat[cols, vals] = 1.0
    return cand


def mix_table(table: np.ndarray, t: float) -> np.ndarray:
    """Reference for the search's repair of a kernel: (1 - t) table + t
    (constant kernel), as a fresh array; ``table`` itself when t <= 0."""
    if t <= 0.0:
        return table
    out = (1.0 - t) * table
    out[:, :, 0] += t
    return out


def profile_objective(p: Problem, stats, profile, alloc) -> float:
    """The objective of ``compose_multiuser(p, alloc)``, read from
    ``refinement_profile``'s I(Y_i;T_i) one allocation at a time:
    I(Y_i;U_i) = I(Y_i;T_i) + (eps_i/H(X_i)) H(Y_i|T_i) where eps_i > 0."""
    utils = [i + (e / s.hX) * (s.hY - i) if e > 0.0 else i
             for i, e, s in zip(profile, alloc.eps_per_component, stats)]
    utilities = tuple(float(sum(utils[i] for i in u.demands)) for u in p.users)
    return float(sum(u.weight * util for u, util in zip(p.users, utilities)))


def sweep_reference(p: Problem, grid) -> list[tuple[float, ...]]:
    """The sweep's rows in nats, one grid point at a time: a ``Problem`` at
    each eps, the base statistics with that point's trivial flag, its
    ``compute_bounds`` report, and the best ``profile_objective`` of its
    ``canonical_allocations`` (the profile built at the first non-trivial
    point; U = Y in the trivial regime)."""
    base = validate(p)
    profile = None
    rows = []
    for eps in grid:
        pe = Problem(p.components, p.users, eps, p.sfrl_constant)
        stats = replace(base, trivial=pe.epsilon >= base.total_mi)
        if profile is None and not stats.trivial:
            profile = mechanisms.refinement_profile(p)
        rep = bounds_mod.compute_bounds(pe, stats)
        allocs = bounds_mod.canonical_allocations(pe, stats)
        if stats.trivial:
            mech_obj = trivial_optimum(pe, stats)
        else:
            mech_obj = max(profile_objective(pe, stats, profile, a) for a in allocs.values())
        rows.append((eps, rep.upper, rep.lower_frl, rep.lower_sfrl, rep.lower, mech_obj))
    return rows
