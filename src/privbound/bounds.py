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
at 0 (a constant release always achieves 0). Each bound is a line in eps,
evaluated as eps * slope + intercept from ``lines`` at one budget or many.

The budget allocation that backs the mechanism constructions puts the whole
budget on its ``target``, the component with the largest slope of its
variant (``VARIANTS``: mu_i for frl, mu_i gamma_i for esfrl; these are the
lines' slopes), capped just below H(X_i) so the per-component randomized
construction keeps its mixing weight eps_i/H(X_i) below 1; any capped-off
remainder is reported as overflow, never silently redistributed.

For eps = 0 the per-component ceiling can be strengthened using the exact
threshold integral

    T = sum_y integral_0^1 F_y(t) ln F_y(t) dt,
    F_y(t) = P_X{ P(y|X) >= t },

which is a sum of finitely many flat segments and is computed exactly by
sorting the threshold values. The strengthened ceiling for one component is
min{U1, U2} with U1 = H(Y|X) and U2 = H(Y|X) + T + I(X;Y); U2 is attained
when |Y| = 2.

``bound_values`` applies the regimes, for ``compute_bounds``' one report
and for a whole grid: at or above the trivial boundary eps >= sum_i
I(X_i;Y_i) every bound is the optimum of releasing Y; at eps = 0 the upper
bound is the strengthened ceiling; elsewhere it is ``upper(eps)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError, ValidationError
from .model import Component, Problem, ProblemStats, release_objective, validate

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


def target(stats: ProblemStats, variant: str) -> tuple[int, float, float]:
    """(index, slope, cap) of the component ``variant`` puts the whole
    budget on: the first of the largest slope ``VARIANTS[variant]``, and
    the cap of its share just below H(X_i), the randomized release's
    validity range."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown allocation variant {variant!r}")
    slopes = [VARIANTS[variant](s) for s in stats]
    index = slopes.index(max(slopes))  # the first (lowest-index) maximizer
    return index, slopes[index], max(0.0, stats[index].hX - CAP_MARGIN)


def allocate_epsilon(p: Problem, stats: ProblemStats, variant: str = "frl") -> Allocation:
    """Put the whole budget on the variant's ``target``, up to its cap;
    the remainder is reported as overflow. A positive budget with every
    slope -inf (H(X_i) = 0 for esfrl) raises RegimeError.
    """
    _require_nontrivial(p, stats, "allocate_epsilon")
    index, slope, cap = target(stats, variant)
    if slope == -math.inf and p.epsilon > 0.0:
        raise RegimeError(f"{variant} allocation impossible: every component has H(X) = 0")
    shares = [0.0] * len(stats)
    shares[index] = min(p.epsilon, cap)
    return Allocation(
        eps_per_component=tuple(shares),
        variant=variant,
        target=index,
        overflow=p.epsilon - shares[index],
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


def lines(p: Problem, stats: ProblemStats) -> dict[str, tuple[float, float]]:
    """(slope, intercept) of "upper", "lower_frl", "lower_sfrl" and "exact"
    (``deterministic_exact``): the slope is the frl target's, or for L2 the
    esfrl target's (0 where that is -inf)."""
    mu_max = target(stats, "frl")[1]
    esfrl_slope = target(stats, "esfrl")[1]
    c = p.sfrl_constant
    return {
        "upper": (mu_max, sum(s.mu * (s.hY_given_X + s.delta) for s in stats)),
        "lower_frl": (mu_max, sum(s.mu * (s.hY_given_X - s.hX_given_Y) for s in stats)),
        "lower_sfrl": (esfrl_slope if esfrl_slope > -math.inf else 0.0,
                       sum(s.mu * (s.hY_given_X - (math.log(s.iXY + 1.0) + c)) for s in stats)),
        "exact": (mu_max, sum(s.mu * s.hY_given_X for s in stats)),
    }


def _at(eps, line: tuple[float, float]):
    """``line`` at eps, a float or an array."""
    return eps * line[0] + line[1]


def upper_bound(p: Problem, stats: ProblemStats) -> float:
    """eps * max_i mu_i + sum_i mu_i (H(Y_i|X_i) + delta_i)."""
    _require_nontrivial(p, stats, "upper_bound")
    return _at(p.epsilon, lines(p, stats)["upper"])


def lower_bound_frl(p: Problem, stats: ProblemStats) -> float:
    """eps * max_i mu_i + sum_i mu_i (H(Y_i|X_i) - H(X_i|Y_i)).

    Pure formula evaluation; meaningful as an achievable value only below
    the trivial-regime boundary, but evaluable anywhere.
    """
    return _at(p.epsilon, lines(p, stats)["lower_frl"])


def lower_bound_sfrl(p: Problem, stats: ProblemStats) -> float:
    """sum_i mu_i (H(Y_i|X_i) - (ln(I_i+1)+c)) + eps * max_i mu_i gamma_i.

    May be negative; callers clamp the combined lower bound, not this one.
    """
    return _at(p.epsilon, lines(p, stats)["lower_sfrl"])


def esfrl_beta(p: Problem, stats: ProblemStats) -> tuple[float, ...]:
    """Per-component beta_i with the whole budget on the esfrl target.

    beta_i = H(Y_i|X_i) - a_i H(X_i|Y_i) + eps_i - (1-a_i)(ln(I_i+1)+c),
    a_i = eps_i / H(X_i). The budget is placed uncapped on the ``target``
    (on none where its slope is -inf), so that sum_i mu_i beta_i
    reproduces the sfrl lower bound identically.
    """
    index, slope, _ = target(stats, "esfrl")
    c = p.sfrl_constant
    betas = []
    for i, s in enumerate(stats):
        eps_i = p.epsilon if i == index and slope > -math.inf else 0.0
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


def zero_budget_ceiling(p: Problem, stats: ProblemStats) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """The eps = 0 ceiling sum_i mu_i (min{U1_i, U2_i} + delta_i), with
    U1_i = H(Y_i|X_i) and U2_i = H(Y_i|X_i) + T_i + I_i per component."""
    u1 = tuple(s.hY_given_X for s in stats)
    u2 = tuple(s.hY_given_X + excess_integral(c) + s.iXY for c, s in zip(p.components, stats))
    return float(sum(s.mu * (min(a, b) + s.delta) for s, a, b in zip(stats, u1, u2))), u1, u2


def deterministic_exact(p: Problem, stats: ProblemStats) -> float:
    """eps * max_i mu_i + sum_i mu_i H(Y_i|X_i) when every X_i = f_i(Y_i).

    Exact in the regime where the whole budget fits on the argmax
    component; see the allocation cap note in the module docstring.
    """
    if not stats.deterministic:
        worst = max(s.hX_given_Y for s in stats)
        raise RegimeError(f"deterministic_exact requires every H(X|Y) ~ 0 (max is {worst})")
    _require_nontrivial(p, stats, "deterministic_exact")
    return _at(p.epsilon, lines(p, stats)["exact"])


def _pick(mask, a, b):
    """``a`` where ``mask`` holds, else ``b``: np.where over an array of
    budgets, the plain choice for one budget (a bool), which builds no array."""
    return np.where(mask, a, b) if isinstance(mask, np.ndarray) else (a if mask else b)


def _anywhere(mask) -> bool:
    """Whether ``mask``, a bool or an array of them, holds anywhere."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def bound_values(p: Problem, stats: ProblemStats, eps, ceiling: float | None = None) -> dict:
    """``lines`` and "lower" = max(0, L1, L2) at ``eps``, one budget or a
    numpy array of them: each is ``model.release_objective`` where eps >=
    sum_i I(X_i;Y_i), and "upper" is ``ceiling`` (the
    ``zero_budget_ceiling``, computed here when None) where eps = 0."""
    eps = np.asarray(eps, dtype=float) if isinstance(eps, np.ndarray) else float(eps)
    values = {name: _at(eps, line) for name, line in lines(p, stats).items()}
    trivial = eps >= stats.total_mi
    zero = (eps == 0.0) & (eps < stats.total_mi)
    if _anywhere(zero):
        ceiling = zero_budget_ceiling(p, stats)[0] if ceiling is None else ceiling
        values["upper"] = _pick(zero, ceiling, values["upper"])
    # the first of equal values is kept, as Python's max(0.0, l1, l2) does
    lower = _pick(values["lower_frl"] > 0.0, values["lower_frl"], 0.0)
    values["lower"] = _pick(values["lower_sfrl"] > lower, values["lower_sfrl"], lower)
    if _anywhere(trivial):
        value = release_objective(p, stats)
        values = {name: _pick(trivial, value, v) for name, v in values.items()}
    return values


def compute_bounds(p: Problem, stats: ProblemStats | None = None) -> BoundsReport:
    """The full report for one problem, in every regime, from ``bound_values``:
    in the trivial regime the gap is 0, and at eps = 0 the report carries
    the ``zero_budget_ceiling``'s U1_i and U2_i (U2_i is attained when
    |Y_i| = 2)."""
    if stats is None:
        stats = validate(p)
    perfect_privacy = p.epsilon == 0.0 and not stats.trivial
    ceiling = zero_budget_ceiling(p, stats) if perfect_privacy else (None, None, None)
    values = bound_values(p, stats, p.epsilon, ceiling[0])  # floats, for one budget
    bounds = {name: values[name] for name in ("upper", "lower_frl", "lower_sfrl", "lower")}
    if stats.trivial:
        return BoundsReport(**bounds, gap_formula=0.0, trivial=True, perfect_privacy=False)
    return BoundsReport(
        **bounds,
        gap_formula=gap_identity(p, stats),
        trivial=False,
        perfect_privacy=perfect_privacy,
        beta=esfrl_beta(p, stats),
        pp_u1=ceiling[1],
        pp_u2=ceiling[2],
        exact=values["exact"] if stats.deterministic else None,
    )
