import json

import pytest

from latticejost.cli import EXIT_INPUT, EXIT_OK, EXIT_VERDICT, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_inline_single_bound_state(self, capsys):
        code, out, _ = run(capsys, "analyze", "[2]")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["b"] == 1
        assert doc["counts"]["N"] == 1
        assert doc["zeros"][0]["re"] == pytest.approx(-0.5, abs=1e-12)
        assert doc["bound_states"][0]["c2_product"] == pytest.approx(3.0, abs=1e-10)
        assert doc["verdicts"]["count_identity"] is True

    def test_no_timing_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "analyze", "[2]", "--no-timing")
        _, out2, _ = run(capsys, "analyze", "[2]", "--no-timing")
        assert out1 == out2
        assert "timing_ms" not in out1

    def test_file_input(self, tmp_path, capsys):
        f = tmp_path / "v.json"
        f.write_text("[1.0, -2.0]")
        code, out, _ = run(capsys, "analyze", str(f))
        assert code == EXIT_OK
        assert json.loads(out)["potential"] == [1.0, -2.0]

    def test_bad_input_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "[1, 0]")
        assert code == EXIT_INPUT
        assert "input error" in err

    def test_out_flag(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "[2]", "--out", str(dest))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(dest.read_text())["b"] == 1

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "[2]", "--precision", "ext")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["precision_mode"] == "extended"

    @pytest.mark.parametrize("potential", ["[1e200]", "[1e200, 1e200]"])
    def test_float_overflow_is_typed(self, capsys, potential):
        code, out, err = run(capsys, "analyze", potential)
        assert code == EXIT_VERDICT
        assert out == ""
        assert err.startswith("numerical diagnostic:")
        assert "double precision" in err

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICEJOST_PRECISION", "ext")
        _, out, _ = run(capsys, "analyze", "[2]")
        assert json.loads(out)["config"]["precision_mode"] == "extended"


class TestSweep:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--bmax", "6")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "b,N,min_edge_distance,precision,ms"
        assert len(lines) == 7
        for b, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            assert int(cells[0]) == b
            assert int(cells[1]) == b

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "sweep", "--bmax", "3", "--family", "nope")
        assert code == EXIT_INPUT

    def test_bad_bmax(self, capsys):
        code, _, _ = run(capsys, "sweep", "--bmax", "0")
        assert code == EXIT_INPUT

    def test_out_csv(self, tmp_path, capsys):
        dest = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--bmax", "3", "--out", str(dest))
        assert code == EXIT_OK
        assert dest.read_text().startswith("b,N,")


class TestDesign:
    def test_b2(self, capsys):
        code, out, _ = run(capsys, "design", "b2", "--roots", "0.5,-0.5,2.2360679774997896")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["V1"] == pytest.approx(-(5**0.5), abs=1e-9)
        assert doc["V2"] == pytest.approx(4.0 / 5**0.5, abs=1e-9)

    def test_b2_rejects_inconsistent(self, capsys):
        code, _, err = run(capsys, "design", "b2", "--roots", "0.3,0.6,5.0")
        assert code == EXIT_INPUT
        assert "design error" in err

    def test_shrink(self, capsys):
        code, out, _ = run(capsys, "design", "shrink", "--potential", "[2, -3]")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["N"] == 0
        assert doc["small_coeff_certificate"] is True

    def test_amplify(self, capsys):
        code, out, _ = run(capsys, "design", "amplify", "--signs", "+,-")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["N"] == 2
        assert doc["rouche_margin"] > 0

    def test_extend(self, capsys):
        code, out, _ = run(capsys, "design", "extend", "--potential", "[2]", "--b", "3")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["N"] == 1
        assert len(doc["potential"]) == 3


class TestOracle:
    def test_single_bound_state(self, capsys):
        code, out, _ = run(capsys, "oracle", "[2]")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "root_lambda,oracle_lambda,delta"
        assert lines[-1].startswith("# max_delta=")
        assert float(lines[-1].split("=")[1]) < 1e-6

    def test_bad_input(self, capsys):
        code, _, _ = run(capsys, "oracle", "not-a-potential")
        assert code == EXIT_INPUT
