"""Command surface: parsing, exit codes, reports, mechanisms, sweeps."""

import csv
import json
import math

import numpy as np
import pytest

from privbound import cli

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

    def test_top_level_list_mechanism_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, noisy_doc())
        mech_path = tmp_path / "mech.json"
        mech_path.write_text("[]")
        code, _, err = run(capsys, ["verify", path, str(mech_path)])
        assert code == 2
        assert "JSON object" in err


class TestOracleCommand:
    def test_table_output(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc(0.1))
        code, out, _ = run(capsys, ["oracle", path, "--seed", "0", "--restarts", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        keys = [ln.split()[0] for ln in lines]
        assert keys[:4] == ["lower", "mech_objective", "oracle_best", "upper"]
        assert "ok              true" in out

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        path = write_problem(tmp_path, copy_pair_doc(0.1))
        code, out, err = run(capsys, ["oracle", path, "--seed", "-1"])
        assert code == 3
        assert out == ""
        assert "seed must be >= 0" in err


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
        # a 10^18-point spec must be refused from its count alone; the guard
        # keeps a regression from trying to build the grid
        def guarded_range(n, *rest):
            assert n <= 10**6, f"grid of {n} points would be built"
            return range(n, *rest)

        monkeypatch.setattr(cli, "range", guarded_range, raising=False)
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

    def test_one_validate_per_file(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = cli.validate
        monkeypatch.setattr(cli, "validate", lambda p: calls.append(p) or real(p))
        path = write_problem(tmp_path, noisy_doc())
        code, _, _ = run(capsys, ["sweep", path, "--eps", "0:0.6:0.05", "--csv", str(tmp_path / "s.csv")])
        assert code == 0
        assert len(calls) == 1


class TestRoundTrip:
    def test_parse_serialize_parse(self, tmp_path):
        doc = noisy_doc()
        doc["components"][0]["labels_x"] = ["u", "v"]
        doc["components"][0]["labels_y"] = ["p", "q"]
        path = write_problem(tmp_path, doc)
        p1, opts1 = cli.load_problem(path)
        doc2 = cli.problem_to_dict(p1, opts1)
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
