"""Problem schema: independent source components, users, leakage budget.

A problem is a list of N independent component pairs (X_i, Y_i), each given
by a joint probability matrix with X on the rows and Y on the columns, a
list of K users (each demanding a subset of components with a non-negative
weight), and a leakage budget epsilon in nats.

Derived per-component statistics:

    mu_i    = sum of weights of the users demanding component i
    s1_i    = I(X_i;Y_i) + H(X_i|Y_i)
    s2_i    = I(X_i;Y_i) + ln(I(X_i;Y_i) + 1) + c      (c defaults to 4)
    delta_i = min(s1_i, s2_i)
    gamma_i = 1 - H(X_i|Y_i)/H(X_i) + (ln(I(X_i;Y_i)+1) + c)/H(X_i)

Slack bookkeeping is per component: s1/s2 are charged to the component that
carries them and weighted by mu_i wherever they enter a bound. An
equivalent per-user accounting exists (charge each user the sum of the
slacks of its demanded components); summed against the weights it produces
exactly the same totals, so the per-component form is used as canonical
throughout. gamma_i is undefined when H(X_i) = 0: such a component carries
no private information, is excluded from budget-allocation argmaxes, and
always receives a zero share of the budget.

Zero-probability symbols are pruned from each component's alphabets at
construction (and recorded); pruning changes no entropy or mutual
information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import probcore
from .errors import RegimeError, ValidationError
from .probcore import Joint2

DETERMINISTIC_TOL = 1e-10
DEFAULT_SFRL_CONSTANT = 4.0


@dataclass(frozen=True)
class Component:
    """One independent source pair: a joint over (X rows, Y columns)."""

    name: str
    joint: Joint2
    labels_x: tuple[str, ...] | None = None
    labels_y: tuple[str, ...] | None = None
    pruned_x: tuple[int, ...] = ()
    pruned_y: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        t = self.joint.table
        row_mass = t.sum(axis=1)
        col_mass = t.sum(axis=0)
        dead_x = tuple(int(i) for i in np.flatnonzero(row_mass <= 0.0))
        dead_y = tuple(int(i) for i in np.flatnonzero(col_mass <= 0.0))
        if dead_x or dead_y:
            keep_x = [i for i in range(t.shape[0]) if i not in dead_x]
            keep_y = [i for i in range(t.shape[1]) if i not in dead_y]
            pruned = Joint2(t[np.ix_(keep_x, keep_y)])
            object.__setattr__(self, "joint", pruned)
            object.__setattr__(self, "pruned_x", self.pruned_x + dead_x)
            object.__setattr__(self, "pruned_y", self.pruned_y + dead_y)
            if self.labels_x is not None:
                object.__setattr__(self, "labels_x", tuple(self.labels_x[i] for i in keep_x))
            if self.labels_y is not None:
                object.__setattr__(self, "labels_y", tuple(self.labels_y[i] for i in keep_y))
        if self.labels_x is not None and len(self.labels_x) != self.card_x:
            raise ValidationError(f"component {self.name!r}: labels_x length mismatch")
        if self.labels_y is not None and len(self.labels_y) != self.card_y:
            raise ValidationError(f"component {self.name!r}: labels_y length mismatch")

    @property
    def card_x(self) -> int:
        return self.joint.shape[0]

    @property
    def card_y(self) -> int:
        return self.joint.shape[1]

    def cond_y_given_x(self) -> np.ndarray:
        """P(y|x) as a (|X|, |Y|) row-stochastic matrix."""
        t = self.joint.table
        return t / t.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class User:
    """A demand set (component indices) with a non-negative weight."""

    demands: tuple[int, ...]
    weight: float

    def __post_init__(self) -> None:
        d = tuple(sorted(set(int(i) for i in self.demands)))
        if not d:
            raise ValidationError("user demand set must be nonempty")
        if any(i < 0 for i in d):
            raise ValidationError(f"user demands contain a negative index: {d}")
        w = float(self.weight)
        if not math.isfinite(w) or w < 0.0:
            raise ValidationError(f"user weight must be finite and >= 0, got {self.weight!r}")
        object.__setattr__(self, "demands", d)
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True)
class Problem:
    """N components, K users, and a leakage budget epsilon (nats)."""

    components: tuple[Component, ...]
    users: tuple[User, ...]
    epsilon: float
    sfrl_constant: float = DEFAULT_SFRL_CONSTANT

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        users = tuple(self.users)
        if not comps:
            raise ValidationError("a problem needs at least one component")
        if not users:
            raise ValidationError("a problem needs at least one user")
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps < 0.0:
            raise ValidationError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        n = len(comps)
        for k, u in enumerate(users):
            for i in u.demands:
                if i >= n:
                    raise ValidationError(f"user {k} demands component {i}, but N={n}")
        # every weight mass mu_i is at most their sum
        if not math.isfinite(sum(u.weight for u in users)):
            raise ValidationError("the users' weights sum past the float range")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "sfrl_constant", float(self.sfrl_constant))

    @property
    def n_components(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ComponentStats:
    """Entropies and bound coefficients for one component."""

    name: str
    hX: float
    hY: float
    hY_given_X: float
    hX_given_Y: float
    iXY: float
    mu: float
    s1: float
    s2: float
    delta: float
    gamma: float | None  # None when H(X) = 0

    @property
    def deterministic(self) -> bool:
        """True when X is (numerically) a function of Y."""
        return self.hX_given_Y <= DETERMINISTIC_TOL


@dataclass(frozen=True)
class ProblemStats:
    """Per-component statistics plus problem-level regime flags."""

    per_component: tuple[ComponentStats, ...]
    total_mi: float
    trivial: bool          # epsilon >= sum_i I(X_i;Y_i)
    deterministic: bool    # every H(X_i|Y_i) below DETERMINISTIC_TOL

    def __iter__(self):
        return iter(self.per_component)

    def __len__(self) -> int:
        return len(self.per_component)

    def __getitem__(self, i: int) -> ComponentStats:
        return self.per_component[i]


def component_stats(c: Component, mu: float, sfrl_constant: float) -> ComponentStats:
    # I, H(Y|X) and H(X|Y) from the three entropies, each clamped at 0
    hX = probcore.entropy(c.joint.marginal_rows())
    hY = probcore.entropy(c.joint.marginal_cols())
    hXY = probcore.joint_entropy(c.joint)
    hYgX = max(0.0, hXY - hX)
    hXgY = max(0.0, hXY - hY)
    iXY = max(0.0, hX + hY - hXY)
    s1 = iXY + hXgY
    s2 = iXY + math.log(iXY + 1.0) + sfrl_constant
    gamma = None
    if hX > 0.0:
        gamma = 1.0 - hXgY / hX + (math.log(iXY + 1.0) + sfrl_constant) / hX
    return ComponentStats(
        name=c.name,
        hX=hX,
        hY=hY,
        hY_given_X=hYgX,
        hX_given_Y=hXgY,
        iXY=iXY,
        mu=mu,
        s1=s1,
        s2=s2,
        delta=min(s1, s2),
        gamma=gamma,
    )


def user_weight_mass(p: Problem) -> np.ndarray:
    """mu_i = total weight of the users demanding component i."""
    mu = np.zeros(p.n_components)
    for u in p.users:
        for i in u.demands:
            mu[i] += u.weight
    return mu


def validate(p: Problem) -> ProblemStats:
    """Compute per-component statistics and regime flags for a problem.

    Structural errors (empty demands, out-of-range indices, negative
    weights, invalid joints) are raised at construction time of the parts;
    this function only derives numbers from an already well-formed problem.
    """
    mu = user_weight_mass(p)
    stats = tuple(
        component_stats(c, float(mu[i]), p.sfrl_constant) for i, c in enumerate(p.components)
    )
    total_mi = float(sum(s.iXY for s in stats))
    return ProblemStats(
        per_component=stats,
        total_mi=total_mi,
        trivial=p.epsilon >= total_mi,
        deterministic=all(s.deterministic for s in stats),
    )


def trivial_optimum(p: Problem, stats: ProblemStats | None = None) -> float:
    """Optimal objective when the budget covers the total correlation.

    Releasing Y itself is then feasible and optimal (``release_objective``).
    """
    if stats is None:
        stats = validate(p)
    if not stats.trivial:
        raise RegimeError(
            f"trivial_optimum requires epsilon >= total mutual information "
            f"({p.epsilon} < {stats.total_mi})"
        )
    return release_objective(p, stats)


def release_objective(p: Problem, stats: ProblemStats) -> float:
    """The objective of releasing Y itself, whatever the budget:
    sum_j lambda_j H(C_j) = sum_j lambda_j sum_{i in demands_j} H(Y_i)."""
    return float(sum(u.weight * sum(stats[i].hY for i in u.demands) for u in p.users))
