"""Closed-form bounds on the weighted disclosure objective.

All formulas are evaluated in nats from per-component statistics
(see :mod:`privbound.model`). Writing mu_i for the user-weight mass,
delta_i = min(s1_i, s2_i), c for the configurable additive constant
(default 4), and gamma_i as defined in the model module:

    upper(eps)   = eps * max_i mu_i + sum_i mu_i (H(Y_i|X_i) + delta_i)
    L1(eps)      = eps * max_i mu_i + sum_i mu_i (H(Y_i|X_i) - H(X_i|Y_i))
    L2(eps)      = sum_i mu_i (H(Y_i|X_i) - (ln(I_i+1)+c)) + eps * max_i mu_i gamma_i
    gap          = upper - L1 = sum_i mu_i (delta_i + H(X_i|Y_i))

The max in L2 runs over components with H(X_i) > 0 only. L2 may be
negative; it is reported raw, and only the combined lower bound is clamped
at 0 (a constant release always achieves 0).

The budget allocation that backs the mechanism constructions puts the whole
budget on the component with the largest slope of its variant (``VARIANTS``:
mu_i for frl, mu_i gamma_i for esfrl), capped just below H(X_i) so the
per-component randomized construction keeps its mixing weight eps_i/H(X_i)
below 1; any capped-off remainder is reported as overflow, never silently
redistributed.

For eps = 0 the per-component ceiling can be strengthened using the exact
threshold integral

    T = sum_y integral_0^1 F_y(t) ln F_y(t) dt,
    F_y(t) = P_X{ P(y|X) >= t },

which is a sum of finitely many flat segments and is computed exactly by
sorting the threshold values. The strengthened ceiling for one component is
min{U1, U2} with U1 = H(Y|X) and U2 = H(Y|X) + T + I(X;Y); U2 is attained
when |Y| = 2.

``compute_bounds`` assembles the one report of every regime: at or above
the trivial boundary eps >= sum_i I(X_i;Y_i) every bound is the optimum of
releasing Y (``model.trivial_optimum``); at eps = 0 the upper bound is the
strengthened ceiling; elsewhere it is ``upper(eps)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError, ValidationError
from .model import Component, Problem, ProblemStats, trivial_optimum, validate

CAP_MARGIN = 1e-12

# allocation variant -> the slope of one component's objective in its budget
# share; a component of slope -inf (H(X) = 0 for esfrl) never takes a share
VARIANTS = {
    "frl": lambda s: s.mu,
    "esfrl": lambda s: s.mu * s.gamma if s.gamma is not None else -math.inf,
}


@dataclass(frozen=True)
class Allocation:
    """A split of the leakage budget across components.

    ``overflow`` is the part of the budget that could not be assigned to
    the chosen component because of its per-component cap.
    """

    eps_per_component: tuple[float, ...]
    variant: str
    target: int
    overflow: float = 0.0

    def __post_init__(self) -> None:
        e = tuple(float(v) for v in self.eps_per_component)
        if not all(map(math.isfinite, (*e, self.overflow))):
            raise ValidationError(f"allocation has a non-finite share or overflow: {e}, {self.overflow}")
        if any(v < 0.0 for v in (*e, self.overflow)):
            raise ValidationError(f"allocation has a negative share or overflow: {e}, {self.overflow}")
        object.__setattr__(self, "eps_per_component", e)

    @property
    def total(self) -> float:
        return float(sum(self.eps_per_component))


@dataclass(frozen=True)
class BoundsReport:
    """Upper/lower bounds for one problem at one budget."""

    upper: float
    lower_frl: float
    lower_sfrl: float
    lower: float
    gap_formula: float
    trivial: bool
    perfect_privacy: bool
    beta: tuple[float, ...] | None = None
    pp_u1: tuple[float, ...] | None = None
    pp_u2: tuple[float, ...] | None = None
    exact: float | None = None


def _require_nontrivial(p: Problem, stats: ProblemStats, op: str) -> None:
    if stats.trivial:
        raise RegimeError(
            f"{op} requires epsilon < total mutual information "
            f"({p.epsilon} >= {stats.total_mi}); use trivial_optimum instead"
        )


def allocate_epsilon(p: Problem, stats: ProblemStats, variant: str = "frl") -> Allocation:
    """Put the whole budget on the component with the largest slope
    ``VARIANTS[variant]``: mu_i for "frl", mu_i * gamma_i for "esfrl" (-inf,
    so never chosen, where H(X_i) = 0).

    Ties break toward the lowest index. The chosen share is capped just
    below H(X_i) (the randomized release's validity range); the remainder
    is reported as overflow. A positive budget with every slope -inf raises
    RegimeError.
    """
    _require_nontrivial(p, stats, "allocate_epsilon")
    if variant not in VARIANTS:
        raise ValidationError(f"unknown allocation variant {variant!r}")
    slopes = [VARIANTS[variant](s) for s in stats]
    target = int(np.argmax(slopes))  # argmax takes the first (lowest-index) maximizer
    if slopes[target] == -math.inf and p.epsilon > 0.0:
        raise RegimeError(f"{variant} allocation impossible: every component has H(X) = 0")
    shares = [0.0] * len(stats)
    cap = max(0.0, stats[target].hX - CAP_MARGIN)
    shares[target] = min(p.epsilon, cap)
    return Allocation(
        eps_per_component=tuple(shares),
        variant=variant,
        target=target,
        overflow=p.epsilon - shares[target],
    )


def canonical_allocations(p: Problem, stats: ProblemStats) -> dict[str, Allocation]:
    """``allocate_epsilon`` of every variant, in ``VARIANTS`` order; a
    variant whose allocation fails is left out. In the trivial regime,
    where every allocation fails, none is tried."""
    if stats.trivial:
        return {}
    allocs = {}
    for variant in VARIANTS:
        try:
            allocs[variant] = allocate_epsilon(p, stats, variant)
        except RegimeError:
            continue
    return allocs


def upper_bound(p: Problem, stats: ProblemStats) -> float:
    """eps * max_i mu_i + sum_i mu_i (H(Y_i|X_i) + delta_i)."""
    _require_nontrivial(p, stats, "upper_bound")
    mu_max = max(s.mu for s in stats)
    return p.epsilon * mu_max + sum(s.mu * (s.hY_given_X + s.delta) for s in stats)


def lower_bound_frl(p: Problem, stats: ProblemStats) -> float:
    """eps * max_i mu_i + sum_i mu_i (H(Y_i|X_i) - H(X_i|Y_i)).

    Pure formula evaluation; meaningful as an achievable value only below
    the trivial-regime boundary, but evaluable anywhere.
    """
    mu_max = max(s.mu for s in stats)
    return p.epsilon * mu_max + sum(s.mu * (s.hY_given_X - s.hX_given_Y) for s in stats)


def lower_bound_sfrl(p: Problem, stats: ProblemStats) -> float:
    """sum_i mu_i (H(Y_i|X_i) - (ln(I_i+1)+c)) + eps * max_i mu_i gamma_i.

    May be negative; callers clamp the combined lower bound, not this one.
    """
    c = p.sfrl_constant
    base = sum(s.mu * (s.hY_given_X - (math.log(s.iXY + 1.0) + c)) for s in stats)
    slope = max(VARIANTS["esfrl"](s) for s in stats)
    return base + (p.epsilon * slope if slope > -math.inf else 0.0)


def esfrl_beta(p: Problem, stats: ProblemStats) -> tuple[float, ...]:
    """Per-component beta_i with the whole budget on the esfrl argmax.

    beta_i = H(Y_i|X_i) - a_i H(X_i|Y_i) + eps_i - (1-a_i)(ln(I_i+1)+c),
    a_i = eps_i / H(X_i). The budget is placed uncapped on the argmax of
    mu_i * gamma_i, so that sum_i mu_i beta_i reproduces the sfrl lower
    bound identically.
    """
    slopes = [VARIANTS["esfrl"](s) for s in stats]
    target = int(np.argmax(slopes)) if max(slopes) > -math.inf else -1
    c = p.sfrl_constant
    betas = []
    for i, s in enumerate(stats):
        eps_i = p.epsilon if i == target else 0.0
        alpha = eps_i / s.hX if s.hX > 0.0 else 0.0
        betas.append(
            s.hY_given_X
            - alpha * s.hX_given_Y
            + eps_i
            - (1.0 - alpha) * (math.log(s.iXY + 1.0) + c)
        )
    return tuple(betas)


def gap_identity(p: Problem, stats: ProblemStats) -> float:
    """sum_i mu_i (delta_i + H(X_i|Y_i)); equals upper - lower_frl."""
    return float(sum(s.mu * (s.delta + s.hX_given_Y) for s in stats))


def excess_integral(c: Component) -> float:
    """sum_y integral_0^1 F_y(t) ln F_y(t) dt with F_y(t) = P_X{P(y|X) >= t}.

    F_y is a non-increasing step function whose jumps sit at the distinct
    values of {P(y|x)}_x, so the integral is an exact finite sum of flat
    segments; no quadrature is involved. Always <= 0.
    """
    px = c.joint.marginal_rows().probs
    cond = c.cond_y_given_x()  # (|X|, |Y|)
    total = 0.0
    for y in range(c.card_y):
        vals = cond[:, y]
        thresholds = np.unique(vals[vals > 0.0])
        prev = 0.0
        for t in thresholds:
            f = float(px[vals >= t].sum())
            if f > 0.0:
                total += (float(t) - prev) * f * math.log(f)
            prev = float(t)
    return min(0.0, total)


def deterministic_exact(p: Problem, stats: ProblemStats) -> float:
    """eps * max_i mu_i + sum_i mu_i H(Y_i|X_i) when every X_i = f_i(Y_i).

    Exact in the regime where the whole budget fits on the argmax
    component; see the allocation cap note in the module docstring.
    """
    if not stats.deterministic:
        worst = max(s.hX_given_Y for s in stats)
        raise RegimeError(f"deterministic_exact requires every H(X|Y) ~ 0 (max is {worst})")
    _require_nontrivial(p, stats, "deterministic_exact")
    mu_max = max(s.mu for s in stats)
    return p.epsilon * mu_max + float(sum(s.mu * s.hY_given_X for s in stats))


def compute_bounds(p: Problem, stats: ProblemStats | None = None) -> BoundsReport:
    """The full report for one problem, in every regime.

    In the trivial regime every bound is ``trivial_optimum`` (releasing Y is
    optimal) and the gap is 0. At eps = 0 the upper bound is the strengthened
    ceiling sum_i mu_i (min{U1_i, U2_i} + delta_i) with U1_i = H(Y_i|X_i) and
    U2_i = H(Y_i|X_i) + T_i + I_i, both reported per component (U2_i is
    attained when |Y_i| = 2).
    """
    if stats is None:
        stats = validate(p)
    if stats.trivial:
        value = trivial_optimum(p, stats)
        return BoundsReport(upper=value, lower_frl=value, lower_sfrl=value, lower=value,
                            gap_formula=0.0, trivial=True, perfect_privacy=False)
    perfect_privacy = p.epsilon == 0.0
    pp_u1 = pp_u2 = None
    if perfect_privacy:
        pp_u1 = tuple(s.hY_given_X for s in stats)
        pp_u2 = tuple(
            s.hY_given_X + excess_integral(c) + s.iXY for c, s in zip(p.components, stats)
        )
        upper = float(sum(s.mu * (min(a, b) + s.delta) for s, a, b in zip(stats, pp_u1, pp_u2)))
    else:
        upper = upper_bound(p, stats)
    l1 = lower_bound_frl(p, stats)
    l2 = lower_bound_sfrl(p, stats)
    return BoundsReport(
        upper=upper,
        lower_frl=l1,
        lower_sfrl=l2,
        lower=max(0.0, l1, l2),
        gap_formula=gap_identity(p, stats),
        trivial=False,
        perfect_privacy=perfect_privacy,
        beta=esfrl_beta(p, stats),
        pp_u1=pp_u1,
        pp_u2=pp_u2,
        exact=deterministic_exact(p, stats) if stats.deterministic else None,
    )
