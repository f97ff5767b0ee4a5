"""Exact discrete-probability primitives: distributions, joints, entropies.

Conventions used everywhere in this package:

- All information quantities are in nats (natural log).
- 0 * ln 0 := 0; probabilities below ``ZERO_FLOOR`` are treated as exact
  zeros before any logarithm is taken, so no -inf can leak out. The one
  exception is ``mechanisms.decompose_transform``, whose sums over the
  decomposition joint take every cell with 0 ln 0 := 0 alone: its cells
  are exact products of kernel factors, not noisy input masses, and
  zeroing the small ones would break the Markov chain and independence
  that hold by construction.
- Construction validates and then renormalizes: a total-mass deviation of
  at most ``MASS_REJECT_TOL`` is silently fixed by scaling (keeps file
  round-trips stable); anything larger is rejected as a bad input.
- Dense storage only. Alphabets here are desk-scale; the only guard is a
  total-size cap on dense tensors (``size_cap``, checked by ``check_size``
  before each allocation), overridable through the ``PRIVBOUND_SIZE_CAP``
  environment variable.

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
DEFAULT_SIZE_CAP = 10_000_000


def size_cap() -> int:
    """Maximum number of entries a dense tensor may have."""
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


def check_size(what: str, total: int) -> None:
    """Raise SizeCapError when a dense ``what`` of ``total`` entries would
    exceed ``size_cap()``; called before the allocation."""
    cap = size_cap()
    if total > cap:
        raise SizeCapError(f"{what} would have {total} entries (cap {cap})")


def _clean_mass(arr: np.ndarray, what: str) -> np.ndarray:
    """Validate a non-negative mass array and renormalize it to total 1, in
    a copy."""
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
    # finite entries can still sum past the float range; inf then fails below
    with np.errstate(over="ignore"):
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

    def __post_init__(self) -> None:
        p = _clean_mass(self.probs, "Dist.probs")
        if p.ndim != 1:
            raise ValidationError(f"Dist.probs must be 1-D, got shape {p.shape}")
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
    """-sum p ln p over an array of non-negative masses, 0 ln 0 := 0.

    The terms p ln p of the kept cells, those above ``ZERO_FLOOR``, are
    written in order by ``_put_terms``, a chunk at a time, into one array
    of the kept cells, and summed there. A mask of the kept cells is built
    only where ``p.min()`` says some cell is dropped.
    """
    p = np.asarray(mass, dtype=float).ravel()
    if p.size == 0:
        return 0.0
    keep = None if p.min() > ZERO_FLOOR else p > ZERO_FLOOR
    terms = np.empty(p.size if keep is None else np.count_nonzero(keep))
    done = 0
    for i in range(0, p.size, GATHER_CHUNK):
        done = _put_terms(p[i:i + GATHER_CHUNK], None if keep is None else keep[i:i + GATHER_CHUNK], terms, done)
    return float(-terms.sum()) if done else 0.0


GATHER_CHUNK = 2**14  # entries of ``p`` that ``_entropy_raw`` reads at a time


def _put_terms(p: np.ndarray, keep: np.ndarray | None, out: np.ndarray, at: int) -> int:
    """Write the terms p ln p of a flat ``p``'s entries where ``keep`` (all
    of them for None), in order, into ``out`` from offset ``at``; returns
    the offset past them. The one gather of kept cells in this package."""
    kept = p if keep is None else p[keep]
    terms = out[at:at + kept.size]
    np.log(kept, out=terms)
    terms *= kept
    return at + kept.size


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


def conditional_entropy(j: Joint2, given: int = 0) -> float:
    """H(other | given) = H(joint) - H(given axis marginal), in nats.

    ``given`` selects the conditioning axis: 0 for the first (row)
    variable, 1 for the second (column) variable.
    """
    if given == 0:
        marg = j.marginal_rows()
    elif given == 1:
        marg = j.marginal_cols()
    else:
        raise ValidationError(f"axis selector must be 0 or 1, got {given!r}")
    h = joint_entropy(j) - entropy(marg)
    return max(0.0, h)


def _mi(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual information of joint mass matrices stacked over leading axes
    (shape (..., a, b)), in nats, clamped at 0, with the logarithms it used:
    ln m and ln of the column sums. Entries at or below ``ZERO_FLOOR`` take
    ln := 0, so they drop out of every sum. The one MI kernel: behind
    ``mutual_information``, ``mi_between`` and
    ``mechanisms.refinement_profile``."""
    row = m.sum(axis=-1)
    col = m.sum(axis=-2)
    ln_m = np.where(m > ZERO_FLOOR, m, 1.0)
    np.log(ln_m, out=ln_m)
    ln_row = np.log(np.where(row > ZERO_FLOOR, row, 1.0))
    ln_col = np.log(np.where(col > ZERO_FLOOR, col, 1.0))
    mi = (m * ln_m).sum(axis=(-2, -1)) - (row * ln_row).sum(axis=-1) - (col * ln_col).sum(axis=-1)
    return np.maximum(mi, 0.0), ln_m, ln_col


def mutual_information(j: Joint2) -> float:
    """I(A;B) between the rows and columns of a joint, in nats, clamped at 0."""
    return float(_mi(j.table)[0])


def mi_between(j: JointN, group_a: Sequence[int], group_b: Sequence[int]) -> float:
    """Mutual information between two disjoint axis groups, in nats.

    One sum gives the marginal over both groups; it is laid out as an
    (|A|, |B|) matrix, each group flattened in its given axis order.
    """
    a, b = list(group_a), list(group_b)
    _check_axes(j, a, "group_a")
    _check_axes(j, b, "group_b")
    if set(a) & set(b):
        raise ValidationError(f"axis groups overlap: {group_a} and {group_b}")
    kept = sorted(a + b)  # the marginal's own axis order
    m = _marginal_mass(j, kept).transpose([kept.index(ax) for ax in a + b])
    return float(_mi(m.reshape(math.prod(j.axes[ax] for ax in a), -1))[0])


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
    check_size("tensor product", math.prod(math.prod(p.axes) for p in parts))
    table = parts[0].table
    axes: tuple[int, ...] = parts[0].axes
    for p in parts[1:]:
        table = np.multiply.outer(table, p.table)
        axes = axes + p.axes
    return JointN(axes, table)
