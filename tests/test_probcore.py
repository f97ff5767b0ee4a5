"""Entropy/MI primitives against independent evaluations and invariants."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import entropy_mi
from privbound.errors import SizeCapError, ValidationError
from privbound.probcore import (
    MASS_REJECT_TOL,
    ZERO_FLOOR,
    Dist,
    Joint2,
    JointN,
    _clean_mass,
    _entropy_raw,
    conditional_entropy,
    entropy,
    joint_entropy,
    marginal_entropy,
    mi_between,
    mutual_information,
    product_join,
)

LN2 = math.log(2.0)
TOL = 1e-12


def direct_entropy(ps):
    # independent evaluation of -sum p ln p
    return -sum(p * math.log(p) for p in ps if p > 0)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Dist(np.array([0.5, 0.5]))) == pytest.approx(LN2, abs=TOL)

    def test_degenerate(self):
        assert entropy(Dist(np.array([1.0]))) == 0.0

    def test_skewed(self):
        got = entropy(Dist(np.array([0.25, 0.75])))
        assert got == pytest.approx(direct_entropy([0.25, 0.75]), abs=TOL)
        assert got == pytest.approx(0.562335144618808, abs=1e-12)

    def test_bounds_and_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(rng.integers(2, 9)))
            h = entropy(Dist(p))
            assert 0.0 <= h <= math.log(p.size) + TOL
            assert entropy(Dist(rng.permutation(p))) == pytest.approx(h, abs=TOL)


def compressed_entropy(mass):
    # reference: a compressed copy of the cells above the floor and its logs
    p = np.asarray(mass, dtype=float).ravel()
    p = p[p > ZERO_FLOOR]
    if p.size == 0:
        return 0.0
    terms = np.log(p)
    terms *= p
    return float(-terms.sum())


class TestEntropyScratch:
    @pytest.mark.parametrize("case", ["kept", "zeros", "sub_floor", "dropped", "empty"])
    @pytest.mark.parametrize("cells", [10, 50000])
    @pytest.mark.parametrize("seed", range(8))
    def test_same_bits_with_scratch(self, case, cells, seed):
        # 50000 cells: the dropped-cell path gathers them over several chunks
        rng = np.random.default_rng(seed)
        mass = rng.dirichlet(np.ones(cells)).reshape(-1, 5)
        if case == "zeros":
            mass[rng.random(mass.shape) < 0.3] = 0.0
        elif case == "sub_floor":
            mass[rng.random(mass.shape) < 0.3] = ZERO_FLOOR * rng.random()
            mass.flat[0] = ZERO_FLOOR  # at the floor: dropped as well
        elif case == "dropped":
            mass[:] = ZERO_FLOOR / 2
        elif case == "empty":
            mass = np.empty((0, 3))
        before = mass.copy()
        want = compressed_entropy(mass)
        assert _entropy_raw(mass) == want
        assert np.array_equal(mass, before)  # the input is never written
        kept = int((mass > ZERO_FLOOR).sum())
        assert (want > 0.0) == (kept > 0)

    def test_no_mask_where_no_cell_is_dropped(self):
        # 1e6 cells, none at or below the floor: a bool mask of them alone
        # would take 1 MB; the terms array (8 MB) is the one allocation of
        # the input's size
        mass = np.random.default_rng(3).dirichlet(np.ones(10**6))
        assert mass.min() > ZERO_FLOOR
        tracemalloc.start()
        try:
            h = _entropy_raw(mass)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mass.nbytes + 64 * 1024, peak
        assert h == compressed_entropy(mass)


class TestConditionalEntropy:
    def test_diagonal(self):
        j = Joint2(np.eye(2) / 2)
        assert conditional_entropy(j, 0) == pytest.approx(0.0, abs=TOL)
        assert conditional_entropy(j, 1) == pytest.approx(0.0, abs=TOL)

    def test_independent(self):
        j = Joint2(np.full((2, 2), 0.25))
        assert conditional_entropy(j, 0) == pytest.approx(LN2, abs=TOL)

    def test_bsc(self):
        theta = 0.1
        j = Joint2(np.array([[(1 - theta) / 2, theta / 2], [theta / 2, (1 - theta) / 2]]))
        assert conditional_entropy(j, 0) == pytest.approx(0.325082973391448, abs=1e-12)

    def test_chain_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            j = Joint2(rng.dirichlet(np.ones(12)).reshape(3, 4))
            lhs = joint_entropy(j)
            rhs = entropy(j.marginal_rows()) + conditional_entropy(j, 0)
            assert lhs == pytest.approx(rhs, abs=TOL)


class TestMutualInformation:
    def test_independent(self):
        a = np.array([0.3, 0.7])
        b = np.array([0.2, 0.5, 0.3])
        assert mutual_information(Joint2(np.outer(a, b))) == pytest.approx(0.0, abs=TOL)

    def test_identity_coupling(self):
        assert mutual_information(Joint2(np.eye(2) / 2)) == pytest.approx(LN2, abs=TOL)

    def test_bsc(self):
        theta = 0.1
        j = Joint2(np.array([[(1 - theta) / 2, theta / 2], [theta / 2, (1 - theta) / 2]]))
        assert mutual_information(j) == pytest.approx(0.368064207168497, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            j = Joint2(rng.dirichlet(np.ones(9)).reshape(3, 3))
            i = mutual_information(j)
            assert i == pytest.approx(mutual_information(j.transpose()), abs=TOL)
            assert -TOL <= i <= min(entropy(j.marginal_rows()), entropy(j.marginal_cols())) + TOL


class TestMiBetween:
    def test_factorized(self):
        ab = np.array([[0.1, 0.2], [0.3, 0.4]])
        c = np.array([0.6, 0.4])
        j = JointN((2, 2, 2), ab[:, :, None] * c[None, None, :])
        assert mi_between(j, [0, 1], [2]) == pytest.approx(0.0, abs=TOL)

    def test_copy_tensor(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 0.5
        t[1, 1, 1] = 0.5
        j = JointN((2, 2, 2), t)
        assert mi_between(j, [0], [2]) == pytest.approx(LN2, abs=TOL)

    def test_matches_joint2_path(self):
        rng = np.random.default_rng(17)
        t = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        j = JointN((2, 2, 2), t)
        # flatten (axis0, axis1) against axis2 and compare with the 2-D path
        flat = Joint2(t.reshape(4, 2))
        assert mi_between(j, [0, 1], [2]) == pytest.approx(mutual_information(flat), abs=TOL)

    def test_overlap_rejected(self):
        j = JointN((2, 2), np.full((2, 2), 0.25))
        with pytest.raises(ValidationError):
            mi_between(j, [0], [0])
        with pytest.raises(ValidationError):
            mi_between(j, [], [1])

    def test_group_errors_name_the_group(self):
        j = JointN((2, 2), np.full((2, 2), 0.25))
        with pytest.raises(ValidationError, match="'group_a' must be nonempty"):
            mi_between(j, [], [1])
        with pytest.raises(ValidationError, match="'group_b' contains duplicates"):
            mi_between(j, [0], [1, 1])
        with pytest.raises(ValidationError, match="axis 2 out of range"):
            mi_between(j, [0], [2])
        with pytest.raises(ValidationError, match="axis groups overlap"):
            mi_between(j, [0, 1], [1])

    def test_interleaved_and_out_of_order_groups(self):
        # groups that interleave, run against the joint's axis order and
        # leave axes out, against H(A) + H(B) - H(A,B) of the (|A|, |B|)
        # matrix laid out by hand
        rng = np.random.default_rng(41)
        t = rng.exponential(size=(2, 3, 2, 4, 3))
        t[1, 2] = 0.0
        t /= t.sum()
        j = JointN(t.shape, t)
        for a, b in [([3, 0], [4, 1]), ([2], [4, 0, 3]), ([4, 2, 0], [1]),
                     ([1, 3], [0]), ([4, 3, 2, 1], [0])]:
            assert mi_between(j, a, b) == pytest.approx(_hand_mi(t, a, b), rel=1e-12, abs=1e-14)


class TestProductJoin:
    def test_single_part(self):
        j = JointN((2, 2), np.full((2, 2), 0.25))
        out = product_join([j])
        assert out.axes == (2, 2)
        assert np.array_equal(out.table, j.table)

    def test_two_uniform_binaries(self):
        j = JointN((2,), np.array([0.5, 0.5]))
        out = product_join([j, j])
        assert out.axes == (2, 2)
        assert np.allclose(out.table, 0.25)

    def test_entropies_add(self):
        rng = np.random.default_rng(19)
        parts = [JointN((2, 3), rng.dirichlet(np.ones(6)).reshape(2, 3)) for _ in range(3)]
        out = product_join(parts)
        assert joint_entropy(out) == pytest.approx(sum(joint_entropy(p) for p in parts), abs=TOL)

    def test_cross_part_independence(self):
        rng = np.random.default_rng(23)
        parts = [JointN((2, 2), rng.dirichlet(np.ones(4)).reshape(2, 2)) for _ in range(2)]
        out = product_join(parts)
        assert mi_between(out, [0, 1], [2, 3]) == pytest.approx(0.0, abs=TOL)

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", "8")
        j = JointN((2, 2), np.full((2, 2), 0.25))
        with pytest.raises(SizeCapError):
            product_join([j, j])


class TestValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Dist(np.array([-0.1, 1.1]))

    def test_large_mass_deviation_rejected(self):
        with pytest.raises(ValidationError):
            Dist(np.array([0.5, 0.6]))

    def test_small_mass_deviation_renormalized(self):
        d = Dist(np.array([0.5, 0.5 + 5e-7]))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_jointn_shape_mismatch(self):
        with pytest.raises(ValidationError):
            JointN((2, 3), np.full((2, 2), 0.25))

    def test_immutability(self):
        d = Dist(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


def reference_clean_mass(arr, what):
    # the check-then-rebuild formulation that _clean_mass fuses into one copy
    a = np.asarray(arr, dtype=float)
    if a.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} contains non-finite entries")
    if np.any(a < -ZERO_FLOOR):
        raise ValidationError(f"{what} contains negative entries (min={a.min()!r})")
    a = np.where(a < ZERO_FLOOR, 0.0, a)
    total = float(a.sum())
    if abs(total - 1.0) > MASS_REJECT_TOL:
        raise ValidationError(f"{what} mass {total!r} deviates from 1 by more than {MASS_REJECT_TOL}")
    return a / total


class TestCleanMass:
    def test_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(29)
        for trial in range(40):
            a = rng.exponential(size=int(rng.integers(2, 200)))
            picks = rng.random(a.size)
            picks[0] = 1.0  # keep some mass
            a /= a[picks >= 0.35].sum()
            a[picks < 0.2] = 0.0
            a[(picks >= 0.2) & (picks < 0.3)] = 1e-17
            a[(picks >= 0.3) & (picks < 0.35)] = -1e-16
            if trial % 2:
                a *= 1.0 + 5e-7  # renormalized, not rejected
            a.setflags(write=False)
            got = _clean_mass(a, "t")
            want = reference_clean_mass(a, "t")
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_input_left_unchanged(self):
        a = np.array([0.5, 1e-17, 0.5])
        _clean_mass(a, "t")
        assert a[1] == 1e-17

    @pytest.mark.parametrize(
        "values",
        [
            [0.5, np.nan, 0.5],
            [0.5, np.inf, 0.5],
            [0.5, -np.inf, 1.5],
            [np.nan, -0.5, 1.5],
            [-0.1, 1.1],
            [0.5, 0.5 + 1e-5],
            [],
        ],
        ids=["nan", "+inf", "-inf", "nan+negative", "negative", "mass", "empty"],
    )
    def test_rejections_match_reference(self, values):
        a = np.array(values, dtype=float)
        with pytest.raises(ValidationError) as want:
            reference_clean_mass(a, "JointN.table")
        with pytest.raises(ValidationError) as got:
            _clean_mass(a, "JointN.table")
        assert str(got.value) == str(want.value)


class TestMarginalGroups:
    # reference: entropies of validated JointN.marginal tables, in the
    # requested axis order
    @staticmethod
    def ref_h(j, axes):
        return joint_entropy(j.marginal(axes))

    def test_against_marginal_tables(self):
        rng = np.random.default_rng(31)
        t = rng.exponential(size=(2, 3, 4, 2))
        t[0, 1] = 0.0
        j = JointN(t.shape, t / t.sum())
        groups = [[2, 0], [3, 1, 0, 2], [1], [0, 1, 2, 3], [3, 0]]
        for axes in groups:
            assert marginal_entropy(j, axes) == pytest.approx(self.ref_h(j, axes), abs=TOL)
        for a, b in [([2, 0], [3, 1]), ([3], [0, 2, 1]), ([1, 0], [2]), ([0, 1, 2], [3])]:
            want = self.ref_h(j, a) + self.ref_h(j, b) - self.ref_h(j, a + b)
            assert mi_between(j, a, b) == pytest.approx(max(0.0, want), abs=TOL)
            assert mi_between(j, b, a) == pytest.approx(mi_between(j, a, b), abs=TOL)

    def test_bad_axes_rejected(self):
        j = JointN((2, 2), np.full((2, 2), 0.25))
        for axes in ([], [0, 0], [2]):
            with pytest.raises(ValidationError):
                marginal_entropy(j, axes)
            with pytest.raises(ValidationError):
                j.marginal(axes)


def _hand_mi(t: np.ndarray, a: list[int], b: list[int]) -> float:
    """I(A;B) of axis groups of a mass tensor: drop the other axes, order
    them a then b, flatten each group, and take the entropy reference."""
    drop = tuple(ax for ax in range(t.ndim) if ax not in a + b)
    kept = sorted(a + b)
    m = np.transpose(t.sum(axis=drop), [kept.index(ax) for ax in a + b])
    return entropy_mi(m.reshape(math.prod(t.shape[ax] for ax in a), -1))


MI_CASES = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def mass_tensors(draw, max_ndim: int = 4):
    """A normalized mass tensor of 2..max_ndim axes of size 1..3, with
    random zero cells (at least one cell stays positive)."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=max_ndim)))
    size = math.prod(shape)
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    zeros = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    t = np.array([0.0 if z else c for c, z in zip(cells, zeros)]).reshape(shape)
    t.flat[draw(st.integers(0, size - 1))] += 0.5
    return t / t.sum()


class TestMiProperties:
    @MI_CASES
    @given(t=mass_tensors(max_ndim=2))
    def test_symmetric_nonnegative_and_bounded(self, t):
        j = Joint2(t)
        i = mutual_information(j)
        assert i >= 0.0
        assert i == pytest.approx(mutual_information(j.transpose()), abs=TOL)
        assert i <= min(entropy(j.marginal_rows()), entropy(j.marginal_cols())) + TOL
        assert i == pytest.approx(entropy_mi(t), rel=1e-12, abs=1e-14)

    @MI_CASES
    @given(t=mass_tensors(), data=st.data())
    def test_groups_symmetric_and_nonnegative(self, t, data):
        order = data.draw(st.permutations(range(t.ndim)))
        cut = data.draw(st.integers(1, t.ndim - 1))
        end = data.draw(st.integers(cut + 1, t.ndim))
        a, b = list(order[:cut]), list(order[cut:end])
        j = JointN(t.shape, t)
        i = mi_between(j, a, b)
        assert i >= 0.0
        assert i == pytest.approx(mi_between(j, b, a), abs=TOL)
        assert i == pytest.approx(_hand_mi(t, a, b), rel=1e-12, abs=1e-14)
