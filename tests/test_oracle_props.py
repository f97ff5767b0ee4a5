"""Property tests: leakage_project and the search's own repair land in the band."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import toward_const, xy_copy_component
from privbound import mechanisms as M
from privbound import oracle as O
from privbound.model import Component, Problem, User
from privbound.probcore import Joint2, _mi


def single_user(eps, *comps, weight=1.0):
    return Problem(comps, (User(tuple(range(len(comps))), weight),), eps)


PROJECTION_CASES = settings(max_examples=60, deadline=None, derandomize=True)
BAND_EDGES = st.sampled_from(["above_band", "below_l0", "interior"])


def _budget(edge: str, frac: float, l0: float) -> float:
    """A budget at one edge of the projection's range, frac picking where."""
    if edge == "above_band":
        return O.PROJECT_BAND * (1.0 + 10.0 ** (-1.0 - 5.0 * frac))
    if edge == "below_l0":
        return l0 * (1.0 - 10.0 ** (-3.0 - 5.0 * frac))
    return O.PROJECT_BAND + frac * (l0 - O.PROJECT_BAND)


def _random_case(seed: int, zero_cells: bool, zero_u: bool) -> tuple[Problem, M.Kernel]:
    """One or two components, optionally with zero P(x,y) cells, and a
    random kernel over the flattened alphabets, optionally with all-zero U
    columns (at least two U symbols stay in use)."""
    rng = np.random.default_rng(seed)
    comps = []
    for i in range(int(rng.integers(1, 3))):
        nx, ny = (int(v) for v in rng.integers(2, 4, size=2))
        table = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
        if zero_cells:
            table[rng.random((nx, ny)) < 0.4] = 0.0
            table[0, 0] = max(table[0, 0], 0.1)
            table[-1, -1] = max(table[-1, -1], 0.1)
            table /= table.sum()
        comps.append(Component(f"c{i}", Joint2(table)))
    p = Problem(tuple(comps), (User(tuple(range(len(comps))), 1.0),), 0.0)
    nx = int(np.prod([c.card_x for c in p.components]))
    ny = int(np.prod([c.card_y for c in p.components]))
    nu = int(rng.integers(2, 7))
    k = rng.exponential(size=(nx, ny, nu))
    if zero_u:
        dead = rng.permutation(nu)[: nu - 2]
        k[:, :, dead] = 0.0
    return p, M.Kernel(k / k.sum(axis=2, keepdims=True))


def _assert_projection_in_band(p: Problem, k: M.Kernel, edge: str, frac: float) -> None:
    l0 = M.evaluate_monolithic(p, k).leakage
    assert l0 > 10 * O.PROJECT_BAND
    eps = _budget(edge, frac, l0)
    pe = Problem(p.components, p.users, eps)
    out = O.leakage_project(k, pe, eps)
    leak = M.evaluate_monolithic(pe, out).leakage
    if out is k:
        assert leak <= eps
    else:
        assert eps - 1e-9 <= leak <= eps, (eps, leak)
    # the search's own repair: the leakage it scores, and that of the
    # marginals mixed by its weight
    ev = O._Evaluator(pe, k.alphabet_u)
    marg = ev.marginals(k.table)
    terms = ev.terms(marg)
    t, scores = ev.repair(terms, eps, slack=O.LEAKAGE_SLACK)
    for leak in (float(scores[0, 0]), float(_mi(ev.unpack(toward_const(ev, marg, t))[0])[0][0])):
        if t[0] > 0.0:
            assert eps - 1e-9 <= leak <= eps, (eps, leak)
        else:
            assert leak <= eps + O.LEAKAGE_SLACK


class TestProjectionEdges:
    @PROJECTION_CASES
    @given(
        seed=st.integers(0, 2**32 - 1),
        edge=BAND_EDGES,
        frac=st.floats(0.0, 1.0),
        zero_cells=st.booleans(),
        zero_u=st.booleans(),
    )
    def test_random_kernels(self, seed, edge, frac, zero_cells, zero_u):
        p, k = _random_case(seed, zero_cells, zero_u)
        _assert_projection_in_band(p, k, edge, frac)

    @PROJECTION_CASES
    @given(p0=st.floats(0.05, 0.95), edge=BAND_EDGES, frac=st.floats(0.0, 1.0))
    def test_copy_pair(self, p0, edge, frac):
        c = xy_copy_component(p0=p0)
        p = single_user(0.0, c)
        # P(x = 1, u = 0) = 0: every repair here starts on an empty column-0
        # cell at t = 0, where ``mixed`` reads ln a := 0 (true slope -inf)
        ev = O._Evaluator(p, 2)
        terms = ev.terms(ev.marginals(M.identity_kernel(c).table))
        assert terms.col0[0, 1] == 0.0
        assert ev.mixed(terms.col0, ev._rest(terms), np.zeros(1))[1][0, 0] >= 0.0
        _assert_projection_in_band(p, M.identity_kernel(c), edge, frac)

    def test_band_edges_named(self):
        # the boundary budgets themselves, on the copy pair
        c = xy_copy_component()
        p = single_user(0.0, c)
        k = M.identity_kernel(c)
        for edge, frac in (("above_band", 1.0), ("below_l0", 1.0), ("interior", 0.0)):
            _assert_projection_in_band(p, k, edge, frac)
