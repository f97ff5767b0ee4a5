"""Fuzzed problem and mechanism documents through ``cli.main``: ``bounds``,
``mechanize`` and ``verify`` end in a documented exit code (0, 2, 3 or 4),
never a traceback, and a report holds no NaN or infinity. Documents start from a well-formed problem of at most 3
components over alphabets of at most 4, with masses that may be
unnormalised, negative or not finite, then have fields replaced by any JSON
value or deleted; the mechanism a run writes is perturbed the same way
before it is verified."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from privbound import cli

DOCUMENTED_EXITS = {cli.EXIT_OK, cli.EXIT_SCHEMA, cli.EXIT_INVARIANT, cli.EXIT_ALPHABET}
FUZZ_CASES = settings(max_examples=120, deadline=None, derandomize=True)

ODD_NUMBERS = st.sampled_from([0.0, -0.25, 1.5, math.nan, math.inf, -math.inf, 1e308, 5e-324])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


# draws True about one time in eight
ODD = st.sampled_from([False] * 7 + [True])


def _odd(draw, valid, odd=ODD_NUMBERS):
    """A draw from ``odd`` where ``ODD`` says so, else from ``valid``."""
    return draw(odd if draw(ODD) else valid)


@st.composite
def problem_docs(draw):
    n = draw(st.integers(1, 3))
    comps = []
    for i in range(n):
        cx, cy = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        if draw(ODD):
            cells = draw(st.lists(st.floats(0.0, 1.0) | ODD_NUMBERS, min_size=cx * cy, max_size=cx * cy))
        else:
            cells = draw(st.lists(st.floats(0.01, 1.0), min_size=cx * cy, max_size=cx * cy))
            cells = [v / sum(cells) for v in cells]
        comps.append({"name": f"c{i}", "matrix": [cells[r * cy:(r + 1) * cy] for r in range(cx)]})
    demands = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    users = [
        {"demands": _odd(draw, demands, st.lists(st.integers(-1, n), max_size=n + 1)),
         "weight": _odd(draw, st.floats(0.1, 2.0))}
        for _ in range(draw(st.integers(1, 3)))
    ]
    doc = {
        "schema": cli.PROBLEM_SCHEMA,
        "components": comps,
        "users": users,
        "epsilon": _odd(draw, st.floats(0.0, 0.2)),
    }
    if draw(st.booleans()):
        doc["options"] = {"log_display": _odd(draw, st.sampled_from(["nats", "bits"]), st.just("hex")),
                          "sfrl_constant": _odd(draw, st.floats(0.5, 8.0))}
    return doc


def _paths(doc, path=()):
    """Every (container path, key) in a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path, key
        yield from _paths(value, path + (key,))


def _perturb(data, doc):
    """``doc`` with up to 3 fields replaced by a JSON value or deleted."""
    rnd = data.draw(st.randoms())
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2, 3]))):
        paths = list(_paths(doc))
        if not paths:
            break
        # uniform over the fields, where sampled_from would favour the first
        path, key = rnd.choice(paths)
        parent = doc
        for k in path:
            parent = parent[k]
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(JSON_VALUES)
    return doc


def _not_a_number(name):
    raise AssertionError(f"a report printed {name}")


def _main(argv):
    """``cli.main(argv)``'s exit code, which must be documented; a report
    printed with exit 0 must hold no NaN or infinity."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue())
    if code == cli.EXIT_OK:
        json.loads(out.getvalue(), parse_constant=_not_a_number)
    return code


@FUZZ_CASES
@given(doc=problem_docs(), variant=st.sampled_from(["frl", "esfrl"]), data=st.data())
def test_documents_end_in_documented_exits(doc, variant, data):
    doc = _perturb(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        problem, mech = os.path.join(tmp, "problem.json"), os.path.join(tmp, "mech.json")
        with open(problem, "w") as fh:
            json.dump(doc, fh)
        _main(["bounds", problem])
        if _main(["mechanize", problem, "--out", mech, "--variant", variant]) == cli.EXIT_OK:
            with open(mech) as fh:
                written = json.load(fh)
            _main(["verify", problem, mech])
            with open(mech, "w") as fh:
                json.dump(_perturb(data, written), fh)
            _main(["verify", problem, mech])
