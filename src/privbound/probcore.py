"""Exact discrete-probability primitives: distributions, joints, entropies.

Conventions used everywhere in this package:

- All information quantities are in nats (natural log).
- 0 * ln 0 := 0; probabilities below ``ZERO_FLOOR`` are treated as exact
  zeros before any logarithm is taken, so no -inf can leak out.
- Construction validates and then renormalizes: a total-mass deviation of
  at most ``MASS_REJECT_TOL`` is silently fixed by scaling (keeps file
  round-trips stable); anything larger is rejected as a bad input.
- Dense storage only. Alphabets here are desk-scale; the only guard is a
  total-size cap on tensor products (``size_cap``), overridable through
  the ``PRIVBOUND_SIZE_CAP`` environment variable.

All values are immutable after construction (the underlying numpy buffers
are marked read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeCapError, ValidationError

ZERO_FLOOR = 1e-15
MASS_REJECT_TOL = 1e-6
MASS_POST_TOL = 1e-9
DEFAULT_SIZE_CAP = 10_000_000


def size_cap() -> int:
    """Maximum number of entries a dense tensor product may have."""
    raw = os.environ.get("PRIVBOUND_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError as e:
        raise ValidationError(f"PRIVBOUND_SIZE_CAP must be an integer, got {raw!r}") from e
    if cap < 1:
        raise ValidationError(f"PRIVBOUND_SIZE_CAP must be >= 1, got {cap}")
    return cap


def _clean_mass(arr: np.ndarray, what: str) -> np.ndarray:
    """Validate a non-negative mass array and renormalize it to total 1."""
    a = np.array(arr, dtype=float)
    if a.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    lo, hi = a.min(), a.max()  # NaN propagates into both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{what} contains non-finite entries")
    if lo < -ZERO_FLOOR:
        raise ValidationError(f"{what} contains negative entries (min={lo!r})")
    if lo < ZERO_FLOOR:
        np.copyto(a, 0.0, where=a < ZERO_FLOOR)
    total = float(a.sum())
    if abs(total - 1.0) > MASS_REJECT_TOL:
        raise ValidationError(f"{what} mass {total!r} deviates from 1 by more than {MASS_REJECT_TOL}")
    a /= total
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dist:
    """A probability vector over a finite alphabet.

    Entries are non-negative and sum to 1 (renormalized at construction,
    rejected if off by more than ``MASS_REJECT_TOL``).
    """

    probs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        p = _clean_mass(self.probs, "Dist.probs")
        if p.ndim != 1:
            raise ValidationError(f"Dist.probs must be 1-D, got shape {p.shape}")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != p.size:
                raise ValidationError("Dist.labels length does not match probs")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class Joint2:
    """A joint distribution over two finite alphabets.

    Rows index the first variable, columns the second. Total mass is 1;
    marginals are recoverable by row and column sums.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        t = _clean_mass(self.table, "Joint2.table")
        if t.ndim != 2:
            raise ValidationError(f"Joint2.table must be 2-D, got shape {t.shape}")
        object.__setattr__(self, "table", t)

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape  # type: ignore[return-value]

    def marginal_rows(self) -> Dist:
        """Marginal of the first (row) variable."""
        return Dist(self.table.sum(axis=1))

    def marginal_cols(self) -> Dist:
        """Marginal of the second (column) variable."""
        return Dist(self.table.sum(axis=0))

    def transpose(self) -> "Joint2":
        return Joint2(self.table.T)


@dataclass(frozen=True)
class JointN:
    """A joint distribution over an ordered tuple of finite alphabets."""

    axes: tuple[int, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        axes = tuple(int(n) for n in self.axes)
        if any(n < 1 for n in axes):
            raise ValidationError(f"JointN.axes must be positive, got {axes}")
        t = _clean_mass(self.table, "JointN.table")
        if t.shape != axes:
            raise ValidationError(f"JointN.table shape {t.shape} does not match axes {axes}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "table", t)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def marginal(self, keep: Sequence[int]) -> "JointN":
        """Marginalize onto the given axes, preserving their order."""
        keep = list(keep)
        t = _marginal_mass(self, keep, "keep")
        # the sum follows the original axis order; permute to requested order
        kept_sorted = sorted(keep)
        perm = [kept_sorted.index(ax) for ax in keep]
        return JointN(tuple(self.axes[ax] for ax in keep), np.transpose(t, perm))


def _check_axes(j: JointN, axes: Sequence[int], name: str) -> None:
    if len(axes) == 0:
        raise ValidationError(f"axis set {name!r} must be nonempty")
    if len(set(axes)) != len(axes):
        raise ValidationError(f"axis set {name!r} contains duplicates: {axes}")
    for ax in axes:
        if not 0 <= ax < j.ndim:
            raise ValidationError(f"axis {ax} out of range for a {j.ndim}-axis joint")


def _marginal_mass(j: JointN, axes: Sequence[int], name: str = "axes") -> np.ndarray:
    """Masses of the marginal over ``axes`` as one sum over the joint.

    The result keeps the joint's own axis order, whatever the order of
    ``axes``: entropies do not depend on it. Covering every axis returns
    the joint's table itself.
    """
    _check_axes(j, axes, name)
    drop = tuple(ax for ax in range(j.ndim) if ax not in axes)
    return j.table.sum(axis=drop) if drop else j.table


def _entropy_raw(mass: np.ndarray) -> float:
    """-sum p ln p over an array of non-negative masses, 0 ln 0 := 0."""
    p = np.asarray(mass, dtype=float).ravel()
    keep = p > ZERO_FLOOR
    if not keep.all():
        p = p[keep]
    if p.size == 0:
        return 0.0
    terms = np.log(p)
    terms *= p
    return float(-terms.sum())


def entropy(d: Dist | np.ndarray) -> float:
    """Shannon entropy H(p) = -sum p ln p in nats."""
    p = d.probs if isinstance(d, Dist) else Dist(np.asarray(d)).probs
    return _entropy_raw(p)


def joint_entropy(j: Joint2 | JointN) -> float:
    """Entropy of the whole joint table, in nats."""
    return _entropy_raw(j.table)


def marginal_entropy(j: JointN, axes: Sequence[int]) -> float:
    """Entropy of the marginal over the given axes, in nats."""
    return _entropy_raw(_marginal_mass(j, list(axes)))


def conditional_entropy(j: Joint2, given: int | str = 0) -> float:
    """H(other | given) = H(joint) - H(given axis marginal), in nats.

    ``given`` selects the conditioning axis: 0/"rows" for the first
    variable, 1/"cols" for the second.
    """
    axis = _axis_selector(given)
    marg = j.marginal_rows() if axis == 0 else j.marginal_cols()
    h = joint_entropy(j) - entropy(marg)
    return max(0.0, h)


def _axis_selector(given: int | str) -> int:
    if given in (0, "rows", "first"):
        return 0
    if given in (1, "cols", "second"):
        return 1
    raise ValidationError(f"axis selector must be 0/1/'rows'/'cols', got {given!r}")


def mutual_information(j: Joint2) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B), in nats, clamped at 0."""
    i = entropy(j.marginal_rows()) + entropy(j.marginal_cols()) - joint_entropy(j)
    return max(0.0, i)


def mi_between(j: JointN, group_a: Sequence[int], group_b: Sequence[int]) -> float:
    """Mutual information between two disjoint axis groups, in nats."""
    a, b = list(group_a), list(group_b)
    ha = _entropy_raw(_marginal_mass(j, a, "group_a"))
    hb = _entropy_raw(_marginal_mass(j, b, "group_b"))
    if set(a) & set(b):
        raise ValidationError(f"axis groups overlap: {group_a} and {group_b}")
    hab = _entropy_raw(_marginal_mass(j, a + b))
    return max(0.0, ha + hb - hab)


def conditional_mi(
    j: JointN, group_a: Sequence[int], group_b: Sequence[int], given: Sequence[int]
) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), in nats, clamped at 0.

    No library function calls it; it stays public because the benchmark's
    tracer (``perfbench/tracing.py``) wraps it by name.
    """
    a, b, c = list(group_a), list(group_b), list(given)
    for grp, name in ((a, "group_a"), (b, "group_b"), (c, "given")):
        _check_axes(j, grp, name)
    if (set(a) & set(b)) or (set(a) & set(c)) or (set(b) & set(c)):
        raise ValidationError("axis groups for conditional MI must be pairwise disjoint")
    hac = _entropy_raw(_marginal_mass(j, a + c))
    hbc = _entropy_raw(_marginal_mass(j, b + c))
    habc = _entropy_raw(_marginal_mass(j, a + b + c))
    hc = _entropy_raw(_marginal_mass(j, c))
    return max(0.0, hac + hbc - habc - hc)


def product_join(parts: Iterable[JointN]) -> JointN:
    """Tensor product of independent joints, axes concatenated in order."""
    parts = list(parts)
    if not parts:
        raise ValidationError("product_join requires at least one part")
    total = math.prod(math.prod(p.axes) for p in parts)
    cap = size_cap()
    if total > cap:
        raise SizeCapError(f"tensor product would have {total} entries (cap {cap})")
    table = parts[0].table
    axes: tuple[int, ...] = parts[0].axes
    for p in parts[1:]:
        table = np.multiply.outer(table, p.table)
        axes = axes + p.axes
    return JointN(axes, table)


def joint2_from_conditional(marginal: np.ndarray, cond_rows: np.ndarray) -> Joint2:
    """Build a Joint2 from P(first) and P(second | first) given per row."""
    m = np.asarray(marginal, dtype=float)
    c = np.asarray(cond_rows, dtype=float)
    if c.ndim != 2 or m.ndim != 1 or c.shape[0] != m.size:
        raise ValidationError("marginal/conditional shapes are inconsistent")
    return Joint2(m[:, None] * c)
