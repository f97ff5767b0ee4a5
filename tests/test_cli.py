"""Command surface: parsing, exit codes, reports, mechanisms, sweeps."""

import argparse
import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    deterministic_problem,
    problem_to_dict,
    random_component,
    random_problem,
    sweep_reference,
    wide_problem,
    xy_copy_component,
)
from privbound import bounds as B
from privbound import cli
from privbound import mechanisms as M
from privbound.errors import SizeCapError
from privbound.model import Component, Problem, User, trivial_optimum, validate
from privbound.probcore import Joint2

LN2 = math.log(2.0)


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def copy_pair_doc(eps=0.1, **options):
    return {
        "schema": "privbound/1",
        "components": [{"name": "c0", "matrix": [[0.5, 0.0], [0.0, 0.5]]}],
        "users": [{"demands": [0], "weight": 1.0}],
        "epsilon": eps,
        "options": options,
    }


def noisy_doc(eps=0.05):
    return {
        "schema": "privbound/1",
        "components": [
            {"name": "a", "matrix": [[0.45, 0.05], [0.05, 0.45]]},
            {"name": "b", "matrix": [[0.3, 0.1], [0.2, 0.4]]},
        ],
        "users": [{"demands": [0], "weight": 1.0}, {"demands": [0, 1], "weight": 0.5}],
        "epsilon": eps,
        "options": {},
    }


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBoundsCommand:
    def test_deterministic_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc(0.1))
        code, out, _ = run(capsys, ["bounds", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"]["deterministic"]
        assert doc["deterministic_exact"] == pytest.approx(0.1, abs=1e-12)
        assert doc["deterministic_exact"] == pytest.approx(doc["bounds"]["lower_frl"], abs=1e-12)

    def test_trivial_regime(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc(2.0))
        code, out, _ = run(capsys, ["bounds", path])
        doc = json.loads(out)
        assert code == 0
        assert doc["regime"]["trivial"]
        assert doc["trivial_value"] == pytest.approx(LN2, abs=1e-12)

    def test_bits_display(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc(0.1, log_display="bits"))
        _, out, _ = run(capsys, ["bounds", path])
        doc = json.loads(out)
        assert doc["units"] == "bits"
        # H(Y|X) + delta = ln2 nats = 1 bit; eps converts too
        assert doc["bounds"]["upper"] == pytest.approx(0.1 / LN2 + 1.0, abs=1e-12)

    def test_ragged_matrix_exits_2(self, tmp_path, capsys):
        doc = copy_pair_doc()
        doc["components"][0]["matrix"] = [[0.5, 0.0], [0.5]]
        code, _, err = run(capsys, ["bounds", write_problem(tmp_path, doc)])
        assert code == 2
        assert "row" in err

    def test_negative_weight_exits_3(self, tmp_path, capsys):
        doc = copy_pair_doc()
        doc["users"][0]["weight"] = -1.0
        code, _, err = run(capsys, ["bounds", write_problem(tmp_path, doc)])
        assert code == 3
        assert "weight" in err

    def test_unknown_schema_exits_2(self, tmp_path, capsys):
        doc = copy_pair_doc()
        doc["schema"] = "privbound/999"
        code, _, _ = run(capsys, ["bounds", write_problem(tmp_path, doc)])
        assert code == 2

    @pytest.mark.parametrize("key", ["labels_x", "labels_y"])
    @pytest.mark.parametrize("labels", [5, "ab", None, ["a"], ["a", "b", "c"], ["a", 1]])
    def test_malformed_labels_exit_2(self, tmp_path, capsys, key, labels):
        # labels must be a list of card strings: a string is not split into them
        doc = copy_pair_doc()
        doc["components"][0][key] = labels
        code, out, err = run(capsys, ["bounds", write_problem(tmp_path, doc)])
        assert code == 2
        assert key in err
        assert out == ""

    def test_non_finite_sfrl_constant_exits_2(self, tmp_path, capsys):
        # 1e400 parses to inf; json.dumps would write it as Infinity
        path = tmp_path / "problem.json"
        text = json.dumps(copy_pair_doc(sfrl_constant=4))
        path.write_text(text.replace('"sfrl_constant": 4', '"sfrl_constant": 1e400'))
        code, out, err = run(capsys, ["bounds", str(path)])
        assert code == 2
        assert "sfrl_constant" in err
        assert "Infinity" not in out and "NaN" not in out

    def test_report_overflow_exits_3(self, tmp_path, capsys):
        # a finite weight times utilities or slopes over 1.8 overflows: the
        # bounds and the mechanism's objective hold inf or NaN, so no report
        # is printed and no mechanism is written
        m = np.full((4, 4), 1 / 16)
        m[0, :2] += (0.01, -0.01)
        doc = {"schema": "privbound/1",
               "components": [{"name": n, "matrix": m.tolist()} for n in "ab"],
               "users": [{"demands": [0, 1], "weight": 1e308}], "epsilon": 0.0}
        path = write_problem(tmp_path, doc)
        mech = tmp_path / "mech.json"
        for argv in (["bounds", path], ["mechanize", path, "--out", str(mech)]):
            code, out, err = run(capsys, argv)
            assert code == 3 and out == ""
            assert "overflows the float range" in err
        assert not mech.exists()


class TestMechanizeVerify:
    def test_round_trip_evaluation(self, tmp_path, capsys):
        path = write_problem(tmp_path, noisy_doc())
        mech_path = str(tmp_path / "mech.json")
        code, out, _ = run(capsys, ["mechanize", path, "--out", mech_path])
        assert code == 0
        before = json.loads(out)
        assert before["leakage"] == pytest.approx(
            sum(before["allocation"]["eps_per_component"]), abs=1e-9
        )
        code, out, _ = run(capsys, ["verify", path, mech_path])
        assert code == 0
        after = json.loads(out)
        assert after["leakage"] == pytest.approx(before["leakage"], abs=1e-12)
        assert after["objective"] == pytest.approx(before["objective"], abs=1e-12)

    def test_esfrl_variant(self, tmp_path, capsys):
        path = write_problem(tmp_path, noisy_doc())
        mech_path = str(tmp_path / "mech.json")
        code, out, _ = run(capsys, ["mechanize", path, "--out", mech_path, "--variant", "esfrl"])
        assert code == 0
        assert json.loads(out)["allocation"]["variant"] == "esfrl"

    def test_trivial_regime_exits_3(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc(5.0))
        code, _, _ = run(capsys, ["mechanize", path, "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_verify_decompose(self, tmp_path, capsys):
        path = write_problem(tmp_path, noisy_doc())
        mech_path = str(tmp_path / "mech.json")
        run(capsys, ["mechanize", path, "--out", mech_path])
        code, out, _ = run(capsys, ["verify", path, mech_path, "--decompose"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["decompose"]["leakage_original"] - doc["decompose"]["leakage_bar"]) <= 1e-9
        assert doc["decompose"]["markov_residual"] <= 1e-9
        for orig, star, slack in zip(
            doc["refine"]["user_utility_original"],
            doc["refine"]["user_utility_star"],
            doc["refine"]["user_slack"],
        ):
            assert orig <= star + slack + 1e-9

    @pytest.mark.parametrize("doc", [noisy_doc(), problem_to_dict(random_problem(1, max_card=2)),
                                     problem_to_dict(random_problem(11))])
    @pytest.mark.parametrize("variant", B.VARIANTS)
    def test_verify_decompose_builds_the_joint_once(self, tmp_path, capsys, monkeypatch, doc, variant):
        # the two transforms share one monolithic joint and one set of bar
        # kernels, and the command prints the bytes it printed when each
        # transform built its own
        path = write_problem(tmp_path, doc)
        mech_path = str(tmp_path / "mech.json")
        assert run(capsys, ["mechanize", path, "--out", mech_path, "--variant", variant])[0] == 0
        argv = ["verify", path, mech_path, "--decompose"]
        calls = dict.fromkeys(["monolithic_joint", "_bar_kernels"], 0)
        for name in calls:
            def counted(*args, _f=getattr(M, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(M, name, counted)
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert calls == {"monolithic_joint": 1, "_bar_kernels": 1}
        monkeypatch.undo()
        monkeypatch.setattr(M, "_transform_checks", lambda p, m: (M.decompose_transform(p, m)[1],
                                                                  M.refine_transform(p, m)[1]))
        assert run(capsys, argv) == (0, out, "")

    def test_alphabet_mismatch_exits_4(self, tmp_path, capsys):
        path = write_problem(tmp_path, noisy_doc())
        mech_path = str(tmp_path / "mech.json")
        run(capsys, ["mechanize", path, "--out", mech_path])
        other = write_problem(tmp_path, copy_pair_doc(0.1), name="other.json")
        code, _, _ = run(capsys, ["verify", other, mech_path])
        assert code == 4

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["components"][0].pop("card_x"),
            lambda d: d.update(schema="privbound/999-mechanism"),
        ],
        ids=["missing_card_x", "unknown_schema"],
    )
    def test_malformed_mechanism_exits_2(self, tmp_path, capsys, mutate):
        path = write_problem(tmp_path, noisy_doc())
        mech_path = tmp_path / "mech.json"
        run(capsys, ["mechanize", path, "--out", str(mech_path)])
        doc = json.loads(mech_path.read_text())
        mutate(doc)
        mech_path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["verify", path, str(mech_path)])
        assert code == 2
        assert err.startswith("schema error:")

    @pytest.mark.parametrize(
        "mutate, code",
        [
            (lambda d: d["allocation"].update(eps_per_component=[math.nan, 0.0]), 3),
            (lambda d: d["allocation"].update(overflow=math.inf), 3),
            (lambda d: d["allocation"].update(target=7), 4),
            (lambda d: d["allocation"].update(eps_per_component=[0.05]), 4),
            (lambda d: d["allocation"].update(variant="bogus"), 2),
            (lambda d: d["components"][0].update(epsilon=math.nan), 2),
            (lambda d: d["components"][0].update(construction="bogus"), 2),
            (lambda d: d["allocation"].update(eps_per_component=[0.0, 0.04]), 3),
            (lambda d: d["allocation"].update(overflow=-3), 3),
            (lambda d: d["components"][0].update(epsilon=-7), 2),
        ],
        ids=["nan_share", "infinite_overflow", "target_out_of_range", "one_share", "unknown_variant",
             "nan_component_epsilon", "unknown_construction", "share_off_measured_leakage",
             "negative_overflow", "negative_component_epsilon"],
    )
    def test_corrupt_allocation_block(self, tmp_path, capsys, mutate, code):
        # json writes and reads NaN and Infinity; verify must refuse them
        path = write_problem(tmp_path, noisy_doc())
        mech_path = tmp_path / "mech.json"
        run(capsys, ["mechanize", path, "--out", str(mech_path)])
        doc = json.loads(mech_path.read_text())
        mutate(doc)
        mech_path.write_text(json.dumps(doc))
        got, out, _ = run(capsys, ["verify", path, str(mech_path)])
        assert (got, out) == (code, "")

    def test_release_over_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        # the refinement fits the cap, the randomized release does not
        rng = np.random.default_rng(61)
        doc = copy_pair_doc(0.1)
        doc["components"][0]["matrix"] = rng.dirichlet(np.ones(2 * 40)).reshape(2, 40).tolist()
        path = write_problem(tmp_path, doc)
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", "10000")
        code, _, err = run(capsys, ["mechanize", path, "--out", str(tmp_path / "m.json")])
        assert code == 3
        assert "randomized release" in err

    def test_decomposition_over_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, noisy_doc())
        mech_path = str(tmp_path / "mech.json")
        run(capsys, ["mechanize", path, "--out", mech_path])
        with open(mech_path, encoding="utf-8") as fh:
            card_u = math.prod(c["card_u"] for c in json.load(fh)["components"])
        # the cap admits the 4 x 4 x |U| monolithic joint, not the decomposition joint
        monkeypatch.setenv("PRIVBOUND_SIZE_CAP", str(16 * card_u))
        code, out, err = run(capsys, ["verify", path, mech_path, "--decompose"])
        assert (code, out) == (3, "")
        assert "decomposition joint" in err

    def test_top_level_list_mechanism_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, noisy_doc())
        mech_path = tmp_path / "mech.json"
        mech_path.write_text("[]")
        code, _, err = run(capsys, ["verify", path, str(mech_path)])
        assert code == 2
        assert "JSON object" in err

    @pytest.mark.parametrize("which", ["problem", "mechanism"])
    @pytest.mark.parametrize("content", [None, '{"schema": '])
    def test_missing_or_invalid_json_exits_2(self, tmp_path, capsys, which, content):
        # both messages name the file's role and its path
        path = write_problem(tmp_path, noisy_doc())
        mech_path = str(tmp_path / "mech.json")
        run(capsys, ["mechanize", path, "--out", mech_path])
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        argv = ["verify", str(bad), mech_path] if which == "problem" else ["verify", path, str(bad)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"{which} file {str(bad)!r}" in err
        assert ("not found" if content is None else "invalid JSON at line 1") in err


HUGE = 10**400  # a JSON integer that no float holds


class TestFileErrors:
    """Files that cannot be read or written, and numbers beyond float range,
    end in exit 2 with a message, not a traceback."""

    def test_problem_path_is_a_directory(self, tmp_path, capsys):
        code, out, err = run(capsys, ["bounds", str(tmp_path)])
        assert (code, out) == (2, "")
        assert f"problem file {str(tmp_path)!r}: cannot read" in err

    def test_problem_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(noisy_doc()).encode("utf-16-le"))
        code, out, err = run(capsys, ["bounds", str(path)])
        assert (code, out) == (2, "")
        assert "not UTF-8 text" in err

    def test_mechanism_path_is_a_directory(self, tmp_path, capsys):
        code, out, err = run(capsys, ["verify", write_problem(tmp_path, noisy_doc()), str(tmp_path)])
        assert (code, out) == (2, "")
        assert f"mechanism file {str(tmp_path)!r}: cannot read" in err

    def test_mechanize_output_cannot_be_written(self, tmp_path, capsys):
        out_path = str(tmp_path / "missing" / "m.json")
        code, out, err = run(capsys, ["mechanize", write_problem(tmp_path, noisy_doc()), "--out", out_path])
        assert (code, out) == (2, "")
        assert f"cannot write {out_path!r}" in err

    def test_sweep_csv_cannot_be_written(self, tmp_path, capsys):
        csv_path = str(tmp_path / "missing" / "x.csv")
        argv = ["sweep", write_problem(tmp_path, noisy_doc()), "--eps", "0:0.1:0.05", "--csv", csv_path]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"cannot write {csv_path!r}" in err

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.update(epsilon=HUGE), "epsilon"),
            (lambda d: d["users"][0].update(weight=HUGE), "weight"),
            (lambda d: d["options"].update(sfrl_constant=HUGE), "sfrl_constant"),
            (lambda d: d["components"][1]["matrix"][0].__setitem__(1, HUGE), "matrix"),
        ],
        ids=["epsilon", "weight", "sfrl_constant", "matrix_entry"],
    )
    def test_problem_integer_beyond_float_range(self, tmp_path, capsys, mutate, field):
        doc = noisy_doc()
        mutate(doc)
        code, out, err = run(capsys, ["bounds", write_problem(tmp_path, doc)])
        assert (code, out) == (2, "")
        assert err.startswith("schema error:") and field in err

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d["components"][0]["kernel"][0].__setitem__(0, HUGE), "kernel"),
            (lambda d: d["components"][0].update(epsilon=HUGE), "epsilon"),
            (lambda d: d["allocation"].update(eps_per_component=[HUGE, 0.0]), "eps_per_component"),
            (lambda d: d["allocation"].update(overflow=HUGE), "overflow"),
        ],
        ids=["kernel_entry", "component_epsilon", "share", "overflow"],
    )
    def test_mechanism_integer_beyond_float_range(self, tmp_path, capsys, mutate, field):
        path = write_problem(tmp_path, noisy_doc())
        mech_path = tmp_path / "mech.json"
        run(capsys, ["mechanize", path, "--out", str(mech_path)])
        doc = json.loads(mech_path.read_text())
        mutate(doc)
        mech_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["verify", path, str(mech_path)])
        assert (code, out) == (2, "")
        assert err.startswith("schema error:") and field in err


class TestParser:
    def test_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, copy_pair_doc())
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        assert run(capsys, ["bounds", path])[0] == 0
        first = len(built)
        assert run(capsys, ["bounds", path])[0] == 0
        assert first > 0 and len(built) == first

    def test_runs_the_command_bound_at_call_time(self, tmp_path, capsys, monkeypatch):
        # a cached parser must not keep the command functions it saw when it
        # was built: callers (and tracers) may swap ``cli.cmd_*`` later
        path = write_problem(tmp_path, copy_pair_doc())
        assert run(capsys, ["bounds", path])[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args.file) or 0)
        assert run(capsys, ["bounds", path]) == (0, "", "")
        assert seen == [path]


class TestOracleCommand:
    def test_table_output(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc(0.1))
        code, out, _ = run(capsys, ["oracle", path, "--seed", "0", "--restarts", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        keys = [ln.split()[0] for ln in lines]
        assert keys[:4] == ["lower", "mech_objective", "oracle_best", "upper"]
        assert "ok              true" in out
        # the report's stage wall clocks are not printed: reruns print the same
        assert "stage" not in out
        assert run(capsys, ["oracle", path, "--seed", "0", "--restarts", "4"])[1] == out

    def test_overflowing_alphabets_exit_3(self, tmp_path, capsys, monkeypatch):
        # 64 binary components: |X| = |Y| = 2^64, which an int64 product
        # wraps to 0; the size cap must refuse the search before any
        # flattened array is formed
        def unguarded(p):
            raise AssertionError("flattened joint formed past the size cap")

        monkeypatch.setattr(M, "flat_joint_xy", unguarded)
        doc = copy_pair_doc(0.01)
        doc["components"] = [{"name": f"c{i}", "matrix": [[0.4, 0.1], [0.1, 0.4]]} for i in range(64)]
        code, out, err = run(capsys, ["oracle", write_problem(tmp_path, doc)])
        assert (code, out) == (3, "")
        assert "oracle kernel would have" in err

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc(0.1))
        code, out, err = run(capsys, ["oracle", path, "--seed", "-1"])
        assert code == 3
        assert out == ""
        assert "seed must be >= 0" in err


class TestWideAlphabets:
    """A 64 x 64 near-independent component, whose refinement kernel is over
    the size cap: the profile reads its numbers off the partition, and the
    search runs without warm starts."""

    def test_sweep_and_oracle_exit_0(self, tmp_path, capsys):
        p = wide_problem(0)
        with pytest.raises(SizeCapError, match="refinement kernel"):
            M.frl_construct(p.components[0])
        path = write_problem(tmp_path, problem_to_dict(p))
        out_csv = tmp_path / "sweep.csv"
        # across the trivial boundary
        spec = f"0:{1.5 * validate(p).total_mi!r}:{0.1 * validate(p).total_mi!r}"
        code, _, err = run(capsys, ["sweep", path, "--eps", spec, "--csv", str(out_csv)])
        assert (code, err) == (0, "")
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())
        assert float(rows[0]["mech_objective"]) == pytest.approx(
            M.canonical_objective(p, validate(p), M.refinement_profile(p), 0.0), abs=1e-9)
        code, out, err = run(capsys, ["oracle", path])
        assert (code, err) == (0, "")
        values = dict(line.split() for line in out.strip().splitlines())
        assert all(math.isfinite(float(values[k])) for k in ("lower", "mech_objective", "oracle_best", "upper"))
        # a |U| = 16 search is capped at ln 16 per unit of user weight
        assert float(values["oracle_best"]) <= math.log(16) * sum(u.weight for u in p.users) + 1e-9


class TestSweepCommand:
    def test_deterministic_gap_constant(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc())
        out_csv = str(tmp_path / "sweep.csv")
        code, _, _ = run(capsys, ["sweep", path, "--eps", "0:0.5:0.1", "--csv", out_csv])
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        gaps = [float(r["upper"]) - float(r["lower_frl"]) for r in rows]
        assert all(g == pytest.approx(LN2, abs=1e-9) for g in gaps)
        uppers = [float(r["upper"]) for r in rows]
        lowers = [float(r["lower_frl"]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(uppers, uppers[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))

    def test_zero_row_matches_bounds_report(self, tmp_path, capsys):
        path = write_problem(tmp_path, noisy_doc(0.0))
        out_csv = str(tmp_path / "sweep.csv")
        run(capsys, ["sweep", path, "--eps", "0:0.02:0.01", "--csv", out_csv])
        with open(out_csv) as fh:
            row0 = next(csv.DictReader(fh))
        _, out, _ = run(capsys, ["bounds", path])
        rep = json.loads(out)
        assert float(row0["upper"]) == pytest.approx(rep["perfect_privacy"]["upper"], rel=1e-10)
        assert float(row0["lower"]) == pytest.approx(rep["bounds"]["lower"], rel=1e-10, abs=1e-12)

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc())
        code, _, _ = run(capsys, ["sweep", path, "--eps", "0.5:0.1:0.1", "--csv", str(tmp_path / "x.csv")])
        assert code == 2

    def test_oversized_grid_exits_2_before_building(self, tmp_path, capsys, monkeypatch):
        # a 10^18-point spec must be refused from its count alone; the guards
        # keep a regression from looping over the grid's chunks or forming
        # its points before the check
        def guarded(real):
            def call(*args, **kwargs):
                assert all(abs(a) <= 10**6 for a in args), f"grid of {args} points would be built"
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(cli, "range", guarded(range), raising=False)
        monkeypatch.setattr(np, "arange", guarded(np.arange))
        path = write_problem(tmp_path, copy_pair_doc())
        out_csv = tmp_path / "x.csv"
        code, _, err = run(capsys, ["sweep", path, "--eps", "0:1e18:1", "--csv", str(out_csv)])
        assert code == 2
        assert "points" in err
        assert not out_csv.exists()


    def test_csv_bytes_across_trivial_boundary(self, tmp_path, capsys):
        # sum_i I(X_i;Y_i) = 0.454 for noisy_doc, so the grid crosses the
        # trivial boundary; the bytes are those of the per-point validate path
        path = write_problem(tmp_path, noisy_doc())
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["sweep", path, "--eps", "0.3:0.6:0.05", "--csv", str(out_csv)])
        assert code == 0
        assert out_csv.read_bytes() == (
            b"epsilon,upper,lower_frl,lower_sfrl,lower,mech_objective\r\n"
            b"0.3,2.61727234384,0.460067756775,-4.68117600054,0.460067756775,0.774306980488\r\n"
            b"0.35,2.69227234384,0.535067756775,-4.17463196217,0.535067756775,0.834306980488\r\n"
            b"0.4,2.76727234384,0.610067756775,-3.6680879238,0.610067756775,0.894306980488\r\n"
            b"0.45,2.84227234384,0.685067756775,-3.16154388543,0.685067756775,0.954306980488\r\n"
            b"0.5,1.38629436112,1.38629436112,1.38629436112,1.38629436112,1.38629436112\r\n"
            b"0.55,1.38629436112,1.38629436112,1.38629436112,1.38629436112,1.38629436112\r\n"
            b"0.6,1.38629436112,1.38629436112,1.38629436112,1.38629436112,1.38629436112\r\n"
        )

    def test_trivial_rows_allocate_nothing(self, tmp_path, capsys, monkeypatch):
        # the rows from 0.5 on are trivial (sum_i I(X_i;Y_i) = 0.454); no row
        # builds an allocation (the canonical objective reads the targets),
        # and the bytes are those above
        calls = []
        real = B.allocate_epsilon

        def counting(p, stats, variant):
            calls.append(p.epsilon)
            return real(p, stats, variant)

        monkeypatch.setattr(B, "allocate_epsilon", counting)
        path = write_problem(tmp_path, noisy_doc())
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["sweep", path, "--eps", "0.45:0.6:0.05", "--csv", str(out_csv)])
        assert code == 0
        assert calls == []
        assert out_csv.read_bytes() == (
            b"epsilon,upper,lower_frl,lower_sfrl,lower,mech_objective\r\n"
            b"0.45,2.84227234384,0.685067756775,-3.16154388543,0.685067756775,0.954306980488\r\n"
            b"0.5,1.38629436112,1.38629436112,1.38629436112,1.38629436112,1.38629436112\r\n"
            b"0.55,1.38629436112,1.38629436112,1.38629436112,1.38629436112,1.38629436112\r\n"
            b"0.6,1.38629436112,1.38629436112,1.38629436112,1.38629436112,1.38629436112\r\n"
        )

    def test_bits_row_matches_bounds_report(self, tmp_path, capsys):
        for doc in (copy_pair_doc(0.1, log_display="bits"), dict(noisy_doc(0.1), options={"log_display": "bits"})):
            path = write_problem(tmp_path, doc)
            out_csv = str(tmp_path / "sweep.csv")
            code, _, _ = run(capsys, ["sweep", path, "--eps", "0.1:0.1:0.1", "--csv", out_csv])
            assert code == 0
            with open(out_csv) as fh:
                (row,) = list(csv.DictReader(fh))
            _, out, _ = run(capsys, ["bounds", path])
            rep = json.loads(out)
            assert rep["units"] == "bits"
            # the CSV's 12 significant digits of the report's numbers
            assert row["epsilon"] == f"{rep['epsilon']:.12g}"
            for key in ("upper", "lower_frl", "lower_sfrl", "lower"):
                assert row[key] == f"{rep['bounds'][key]:.12g}", key

    def test_one_validate_per_file(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = cli.validate
        monkeypatch.setattr(cli, "validate", lambda p: calls.append(p) or real(p))
        path = write_problem(tmp_path, noisy_doc())
        code, _, _ = run(capsys, ["sweep", path, "--eps", "0:0.6:0.05", "--csv", str(tmp_path / "s.csv")])
        assert code == 0
        assert len(calls) == 1


def flat_component(name):
    """|X| = 1: H(X) = 0, so the component never takes a share."""
    return Component(name, Joint2(np.array([[0.3, 0.7]])))


def overflow_probe():
    """A high-weight copy pair with H(X) = 0.135 below eps: the frl target's cap binds."""
    skew = (xy_copy_component("skew", 0.03), xy_copy_component("fair"))
    return Problem(skew, (User((0,), 2.0), User((1,), 1.0)), 0.4)


def grid_problems():
    """Problems for the grid tests: random, deterministic, the small-H(X)
    overflow probe, all-flat components (esfrl impossible, sum_i I = 0), a
    flat frl target and zero-weight users."""
    rng = np.random.default_rng(7)
    mixed = (flat_component("f"), random_component(rng, "a"), random_component(rng, "b"))
    return (
        [random_problem(seed) for seed in range(12)]
        + [deterministic_problem(seed) for seed in range(6)]
        + [
            overflow_probe(),
            Problem((flat_component("f0"), flat_component("f1")), (User((0, 1), 1.0),), 0.1),
            Problem(mixed, (User((0,), 3.0), User((1, 2), 1.0), User((0, 2), 0.5)), 0.1),
            Problem(mixed, (User((0, 1), 0.0), User((2,), 1.0)), 0.1),
            Problem(mixed, (User((0, 1, 2), 0.0),), 0.1, sfrl_constant=-3.0),
        ]
    )


def breakpoints(p):
    """eps = 0, each variant's cap and sum_i I(X_i;Y_i), one ulp either side
    of each of those, and points between them and past sum_i I."""
    stats = validate(p)
    marks = [stats.total_mi] + [B.target(stats, v)[2] for v in B.VARIANTS]
    near = [np.nextafter(m, d) for m in marks for d in (0.0, np.inf)]
    spread = np.linspace(0.0, 1.3 * max(marks), 15)
    return sorted({0.0, *marks, *(float(v) for v in near if v >= 0.0), *spread.tolist()})


def array_rows(p, grid):
    """The sweep's columns evaluated as arrays over the whole grid."""
    stats = validate(p)
    eps = np.array(grid)
    profile = M.refinement_profile(p) if eps.min() < stats.total_mi else None
    b = B.bound_values(p, stats, eps)
    columns = (eps, b["upper"], b["lower_frl"], b["lower_sfrl"], b["lower"],
               M.canonical_objective(p, stats, profile, eps))
    return list(zip(*(c.tolist() for c in columns)))


class TestSweepGrid:
    """The array path against ``helpers.sweep_reference``, bit for bit."""

    @pytest.mark.parametrize("p", grid_problems())
    def test_breakpoints_bit_for_bit(self, p):
        grid = breakpoints(p)
        stats = validate(p)
        assert 0.0 in grid and stats.total_mi in grid
        assert all(B.target(stats, v)[2] in grid for v in B.VARIANTS)
        rows = array_rows(p, grid)
        assert rows == sweep_reference(p, grid)
        assert all(type(v) is float for row in rows for v in row)
        # each row's bounds are those of the public formulas in its regime
        for eps, upper, l1, l2, lower, _ in rows:
            pe = Problem(p.components, p.users, eps, p.sfrl_constant)
            st = validate(pe)
            if st.trivial:
                assert (upper, l1, l2, lower) == (trivial_optimum(pe, st),) * 4
                continue
            assert (l1, l2) == (B.lower_bound_frl(pe, st), B.lower_bound_sfrl(pe, st))
            assert lower == max(0.0, l1, l2)
            assert upper == (B.zero_budget_ceiling(pe, st)[0] if eps == 0.0 else B.upper_bound(pe, st))

    def test_reversed_grid(self):
        # the regimes are read per point, not from the grid's order
        p = overflow_probe()
        grid = breakpoints(p)[::-1]
        assert array_rows(p, grid) == sweep_reference(p, grid)

    @pytest.mark.parametrize("units", ["nats", "bits"])
    def test_csv_text_across_chunks(self, tmp_path, capsys, monkeypatch, units):
        # in chunks of 7 points, the first points past the probe's cap (point
        # 10) and past sum_i I (point 61) fall in different chunks; the CSV
        # is the reference's rows, converted and written
        monkeypatch.setattr(cli, "SWEEP_CHUNK", 7)
        p = overflow_probe()
        spec = f"0:{1.3 * validate(p).total_mi!r}:0.0137"
        path = write_problem(tmp_path, problem_to_dict(p, {"log_display": units}))
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, ["sweep", path, "--eps", spec, "--csv", str(out_csv)])
        assert code == 0
        start, step, n = cli._parse_grid(spec)
        assert n > 3 * cli.SWEEP_CHUNK
        rows = cli._in_units(sweep_reference(p, [start + k * step for k in range(n)]), {"log_display": units})
        want = "epsilon,upper,lower_frl,lower_sfrl,lower,mech_objective\r\n" + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\r\n" for row in rows
        )
        assert out_csv.read_bytes() == want.encode()
        assert out == f"wrote {n} rows to {out_csv}\n"

    def test_profile_built_iff_grid_starts_below_boundary(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = M.refinement_profile
        monkeypatch.setattr(M, "refinement_profile", lambda p: calls.append(p) or real(p))
        path = write_problem(tmp_path, noisy_doc())  # sum_i I(X_i;Y_i) = 0.454
        for spec, built in (("0.3:0.6:0.05", 1), ("0.5:0.6:0.05", 0)):
            calls.clear()
            code, _, _ = run(capsys, ["sweep", path, "--eps", spec, "--csv", str(tmp_path / "s.csv")])
            assert code == 0
            assert len(calls) == built, spec

    def test_memory_flat_in_grid_size(self, tmp_path, capsys, monkeypatch):
        # rows are written a chunk at a time: 4x the points, the same peak
        monkeypatch.setattr(cli, "SWEEP_CHUNK", 256)
        path = write_problem(tmp_path, noisy_doc())
        peaks = []
        # the first run pays for one-off caches (the parser, say): it is not measured
        for points in (2**11, 2**11, 2**13):
            spec = f"0:{(points - 1) * 2.0**-12!r}:{2.0**-12!r}"
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, ["sweep", path, "--eps", spec, "--csv", str(tmp_path / "s.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            assert len((tmp_path / "s.csv").read_text().splitlines()) == points + 1
        assert peaks[2] <= peaks[1] + 16 * 1024, peaks


# report fields that keep their value whatever the display units
UNITLESS = {"mu", "gamma", "cardinality", "target"}


def unit_pair(tmp_path, doc):
    """Paths of ``doc`` written with log_display nats and with bits."""
    return tuple(
        write_problem(tmp_path, dict(doc, options=dict(doc["options"], log_display=units)), f"{units}.json")
        for units in ("nats", "bits")
    )


def assert_bits_of(nats, bits, key=None):
    """Every number of a bits report is its nats twin / ln 2, field by field;
    UNITLESS fields, flags and labels are equal; keys keep their order."""
    if isinstance(nats, dict):
        assert list(bits) == list(nats)
        for k in nats:
            if k != "units":
                assert_bits_of(nats[k], bits[k], k)
    elif isinstance(nats, list):
        assert len(bits) == len(nats), key
        for a, b in zip(nats, bits):
            assert_bits_of(a, b, key)
    elif isinstance(nats, float) and key not in UNITLESS:
        assert bits == pytest.approx(nats / LN2, rel=1e-12, abs=0.0), key
    else:
        assert bits == nats, key


class TestDisplayUnits:
    @pytest.mark.parametrize("doc, block", [
        (noisy_doc(0.05), "beta"),                       # eps > 0
        (noisy_doc(0.0), "perfect_privacy"),             # eps = 0
        (copy_pair_doc(0.1), "deterministic_exact"),     # deterministic file
        (copy_pair_doc(2.0), "trivial_value"),           # trivial regime
    ])
    def test_bounds(self, tmp_path, capsys, doc, block):
        reports = []
        for path in unit_pair(tmp_path, doc):
            code, out, _ = run(capsys, ["bounds", path])
            assert code == 0
            reports.append(json.loads(out))
        nats, bits = reports
        assert (nats["units"], bits["units"]) == ("nats", "bits")
        assert block in json.dumps(nats)
        assert_bits_of(nats, bits)

    @pytest.mark.parametrize("variant", ["frl", "esfrl"])
    def test_mechanize_and_verify_decompose(self, tmp_path, capsys, variant):
        reports, mech_files = {}, []
        for units, path in zip(("nats", "bits"), unit_pair(tmp_path, noisy_doc(0.05))):
            mech = tmp_path / f"{units}.mech.json"
            code, out, _ = run(capsys, ["mechanize", path, "--out", str(mech), "--variant", variant])
            assert code == 0
            reports.setdefault("mechanize", []).append(json.loads(out))
            mech_files.append(mech.read_text())
            code, out, _ = run(capsys, ["verify", path, str(mech), "--decompose"])
            assert code == 0
            reports.setdefault("verify", []).append(json.loads(out))
        # the mechanism file is stored in nats whatever the display units
        assert mech_files[0] == mech_files[1]
        for nats, bits in reports.values():
            assert_bits_of(nats, bits)
        assert {"allocation", "decompose", "refine"} <= set(reports["verify"][0])

    def test_sweep(self, tmp_path, capsys):
        tables = []
        for units, path in zip(("nats", "bits"), unit_pair(tmp_path, noisy_doc())):
            out_csv = tmp_path / f"{units}.csv"
            code, _, _ = run(capsys, ["sweep", path, "--eps", "0:0.6:0.05", "--csv", str(out_csv)])
            assert code == 0
            with open(out_csv) as fh:
                tables.append(list(csv.reader(fh)))
        nats, bits = tables
        assert bits[0] == nats[0]
        assert len(bits) == len(nats) == 14
        for a, b in zip(nats[1:], bits[1:]):
            assert [float(v) for v in b] == pytest.approx([float(v) / LN2 for v in a], rel=1e-11)

    @pytest.mark.parametrize("doc", [copy_pair_doc(0.1), noisy_doc(0.05), copy_pair_doc(2.0)])
    def test_oracle_table(self, tmp_path, capsys, doc):
        tables = []
        for path in unit_pair(tmp_path, doc):
            code, out, _ = run(capsys, ["oracle", path, "--restarts", "2", "--iters", "6"])
            assert code == 0
            tables.append(dict(line.split() for line in out.strip().splitlines()))
        nats, bits = tables
        assert list(bits) == list(nats)
        for key in ("trivial", "ok"):
            assert bits[key] == nats[key]
        for key in set(nats) - {"trivial", "ok"}:
            # the table's 12 significant digits of the nats value / ln 2
            assert float(bits[key]) == pytest.approx(float(nats[key]) / LN2, rel=1e-11), key


class TestRoundTrip:
    def test_parse_serialize_parse(self, tmp_path):
        doc = noisy_doc()
        doc["components"][0]["labels_x"] = ["u", "v"]
        doc["components"][0]["labels_y"] = ["p", "q"]
        path = write_problem(tmp_path, doc)
        p1, opts1 = cli.load_problem(path)
        doc2 = problem_to_dict(p1, opts1)
        p2, opts2 = cli.parse_problem(doc2)
        assert p1.epsilon == p2.epsilon
        assert p1.sfrl_constant == p2.sfrl_constant
        assert opts1 == opts2
        assert len(p1.components) == len(p2.components)
        for a, b in zip(p1.components, p2.components):
            assert a.name == b.name
            assert a.labels_x == b.labels_x
            assert a.labels_y == b.labels_y
            assert np.array_equal(a.joint.table, b.joint.table)
        assert p1.users == p2.users

    def test_bounds_deterministic_output(self, tmp_path, capsys):
        path = write_problem(tmp_path, noisy_doc())
        _, out1, _ = run(capsys, ["bounds", path])
        _, out2, _ = run(capsys, ["bounds", path])
        assert out1 == out2
