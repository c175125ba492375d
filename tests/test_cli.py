import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticejost
from latticejost import cli
from latticejost.cli import EXIT_INPUT, EXIT_OK, EXIT_PIPE, EXIT_VERDICT, main
from latticejost.jost import jost_coefficients
from latticejost.spectrum import find_zeros


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
        assert doc["bound_states"][0]["c2"] == pytest.approx(3.0, abs=1e-10)
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["oracle"],
            ["design", "shrink", "--potential"],
            ["design", "extend", "--b", "3", "--potential"],
        ],
        ids=["analyze", "oracle", "shrink", "extend"],
    )
    @pytest.mark.parametrize("potential", ["[null]", "[[1,2]]", '[{"a":1}]', "[true, 2]"])
    def test_non_number_json_entry_is_input_error(self, capsys, argv, potential):
        code, out, err = run(capsys, *argv, potential)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.endswith("error: potential JSON must be an array of reals\n")

    def test_out_flag(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "[2]", "--out", str(dest))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(dest.read_text())["b"] == 1

    def test_out_into_missing_directory_is_input_error(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "analyze", "[2]", "--out", str(dest))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error:") and err.count("\n") == 1
        assert not dest.exists()

    def test_precision_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "[2]", "--precision", "ext")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["precision_mode"] == "extended"

    @pytest.mark.parametrize("potential", ["[1e200]", "[1e200, 1e200]", "[1, 5e-324]"])
    def test_float_overflow_is_typed(self, capsys, potential):
        code, out, err = run(capsys, "analyze", potential)
        assert code == EXIT_VERDICT
        assert out == ""
        assert err.startswith("numerical diagnostic:")
        assert "double precision" in err

    @pytest.mark.parametrize("potential", ["[1e40, 1e40]", "[1e20, -1e20, 1e20]"])
    def test_extended_norming_failure_is_typed(self, capsys, potential):
        code, out, err = run(capsys, "analyze", potential, "--precision", "ext")
        assert code == EXIT_VERDICT
        assert out == ""
        assert err.startswith("numerical diagnostic:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("potential", ["[1e40, 1e40]", "[1e20, -1e20, 1e20]"])
    def test_multiple_zero_is_typed_in_double(self, capsys, potential):
        # two bound states on equal or adjacent doubles, even after the restart
        code, out, err = run(capsys, "analyze", potential)
        assert code == EXIT_VERDICT
        assert out == ""
        assert "is a multiple zero: its norming constant leaves double precision" in err

    @pytest.mark.parametrize(
        "argv",
        [["[-1.0, -1e-20]"], ["[2, -1e40, 1e40, 1e-20, -2]", "--precision", "ext"]],
        ids=["std", "ext"],
    )
    def test_bound_state_snapped_to_the_edge_is_typed(self, capsys, argv):
        # a state within 1e-20 of the edge rounds to +-1.0, where f0 != 0
        code, out, err = run(capsys, "analyze", *argv)
        assert code == EXIT_VERDICT
        assert out == ""
        assert err.startswith("numerical diagnostic:")
        assert "closer to the band edge" in err

    @pytest.mark.parametrize("precision", ["std", "ext"])
    def test_state_near_the_edge_is_counted(self, capsys, precision):
        code, out, _ = run(capsys, "analyze", "[-1000, -1, 1e10, -1]", "--precision", precision)
        assert code == EXIT_OK
        assert json.loads(out)["counts"]["N"] == 3

    @pytest.mark.parametrize("precision", ["std", "ext"])
    def test_exact_edge_zero(self, capsys, precision):
        # f0 = 1 - 0.5 z - 1.5 z^2 + z^3 vanishes at z = 1 exactly
        code, out, _ = run(capsys, "analyze", "[-1.5, 1.0]", "--precision", precision)
        assert code == EXIT_OK
        counts = json.loads(out)["counts"]
        assert (counts["mu_minus"], counts["mu_plus"], counts["N"]) == (0, 1, 1)

    def test_precision_environment_variable_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICEJOST_PRECISION", "ext")
        _, out, _ = run(capsys, "analyze", "[2]")
        assert json.loads(out)["config"]["precision_mode"] == "standard"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "[2]", "--precision", "ext"],
        ["sweep", "--bmax", "6", "--precision", "ext"],
        ["design", "amplify", "--signs", "+,-"],
        ["oracle", "[2]", "--precision", "ext"],
    ],
    ids=["analyze", "sweep", "design", "oracle"],
)
def test_rejected_tolerance_is_input_error(capsys, argv):
    # no command takes a tolerance: the theorem keeps the bound states apart
    for flag in ("--tol-real", "--tol-cluster", "--tol-edge"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "1e-10"])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 1e-10" in captured.err


_NUMERIC_FLAGS = {
    "--tol-real": "1e-9", "--tol-cluster": "1e-6", "--tol-edge": "1e-7", "--precision": "ext",
    "--margin": "1e-6",
}
_COMMANDS = {
    "analyze": ["analyze", "[2]"],
    "sweep": ["sweep", "--bmax", "2"],
    "b2": ["design", "b2", "--roots", "0.5,-0.5,2.2360679774997896"],
    "b3": ["design", "b3", "--roots", "0.3,-0.6,2.0,-5.0"],
    "shrink": ["design", "shrink", "--potential", "[2]"],
    "amplify": ["design", "amplify", "--signs", "+"],
    "extend": ["design", "extend", "--potential", "[2]", "--b", "2"],
    "oracle": ["oracle", "[2]"],
}
# the numeric flags each command reads; no design mode reads one (shrink,
# amplify and extend count N by the pivots), and none reads a --tol-* flag
# or --margin
_READS = {"b2": [], "b3": [], "shrink": [], "amplify": [], "extend": []}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_command_takes_only_the_numeric_flags_it_reads(command):
    parser = cli.build_parser()
    reads = _READS.get(command, ["--precision"])
    for flag, value in _NUMERIC_FLAGS.items():
        argv = [*_COMMANDS[command], flag, value]
        if flag in reads:
            parser.parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == EXIT_INPUT, argv


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
        # the sweep runs the alternating family alone, so takes no --family
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--bmax", "3", "--family", "alternating"])
        assert exc.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --family alternating" in captured.err

    def test_bad_bmax(self, capsys):
        code, _, _ = run(capsys, "sweep", "--bmax", "0")
        assert code == EXIT_INPUT

    def test_deep_states_full_count(self, capsys):
        code, out, _ = run(capsys, "sweep", "--bmax", "60", "--amplitude", "200")
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [[str(b), str(b)] for b in range(1, 61)]

    @pytest.mark.parametrize("amplitude", ["0", "nan", "inf"])
    def test_bad_amplitude_is_input_error(self, capsys, amplitude):
        code, out, err = run(capsys, "sweep", "--bmax", "3", "--amplitude", amplitude)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error:")
        assert "Traceback" not in err

    def test_out_csv(self, tmp_path, capsys):
        dest = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--bmax", "3", "--out", str(dest))
        assert code == EXIT_OK
        assert dest.read_text().startswith("b,N,")

    def test_missed_roots_far_from_edge_stay_in_configured_precision(self, monkeypatch, capsys):
        # both precisions count the states alike, so neither a short count nor
        # a root near +-1 is a reason to rerun the scan in another precision
        calls = []

        def short_scan(pot, cfg):
            calls.append(cfg.precision_mode)
            return [1 - 1e-9] * (pot.b - 1)

        monkeypatch.setattr(cli, "bound_state_scan", short_scan)
        for flag, mode in (("std", "standard"), ("ext", "extended")):
            calls.clear()
            code, out, _ = run(capsys, "sweep", "--bmax", "3", "--precision", flag)
            assert code == EXIT_VERDICT
            assert calls == [mode] * 3
            rows = [row.split(",") for row in out.strip().splitlines()[1:]]
            assert [row[1] for row in rows] == ["0", "1", "2"]
            assert [row[2] for row in rows] == ["nan"] + [f"{1 - (1 - 1e-9):.12g}"] * 2
            assert {row[3] for row in rows} == {mode}
        with pytest.raises(SystemExit) as exc:  # the escalation threshold is gone
            main(["sweep", "--bmax", "3", "--edge-floor", "1e-6"])
        assert exc.value.code == EXIT_INPUT


class TestDesign:
    def test_b2(self, capsys):
        code, out, _ = run(capsys, "design", "b2", "--roots", "0.5,-0.5,2.2360679774997896")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["V1"] == pytest.approx(-(5**0.5), abs=1e-9)
        assert doc["V2"] == pytest.approx(4.0 / 5**0.5, abs=1e-9)

    def test_b2_roots_start_negative(self, capsys):
        code, out, _ = run(capsys, "design", "b2", "--roots", "-0.5,0.5,2.23606797749979")
        assert code == EXIT_OK
        assert json.loads(out)["V1"] == pytest.approx(-(5**0.5), abs=1e-9)

    def test_b3_roots_start_negative(self, capsys):
        # four of the zeros of V = (0.5, -2, 1); the fifth is 2.6290240744301525
        roots = (
            "-0.774128440506231,-0.4074210027433532-0.9498886350516307i,"
            "-0.4074210027433532+0.9498886350516307i,0.4599463715627848"
        )
        code, out, _ = run(capsys, "design", "b3", "--roots", roots)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [doc["V1"], doc["V2"], doc["V3"]] == pytest.approx([0.5, -2.0, 1.0], abs=1e-12)
        assert doc["alpha5"] == pytest.approx(2.6290240744301525, abs=1e-12)

    def test_b3_rejects_inconsistent(self, capsys):
        code, out, err = run(capsys, "design", "b3", "--roots", "0.3,-0.6,2.0,-5.0")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("design error:")

    def test_b3_rejects_underflowing_v3(self, capsys):
        code, out, err = run(capsys, "design", "b3", "--roots", "1e80,-1e80,2e80,3e80")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("design error:") and "underflows" in err

    @pytest.mark.parametrize(
        "argv",
        [["shrink", "--potential", "[1, 0]"], ["b2", "--roots", "0.5,x,2"]],
        ids=["trailing-zero", "bad-root"],
    )
    def test_input_rejection_is_design_error(self, capsys, argv):
        code, out, err = run(capsys, "design", *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("design error:")

    def test_numerical_failure_is_diagnostic(self, capsys):
        # the coefficients of the shrunk potential still leave double range
        code, out, err = run(capsys, "design", "shrink", "--potential", "[1e200,1e200]")
        assert code == EXIT_VERDICT
        assert out == ""
        assert err.startswith("numerical diagnostic:")
        assert "double precision" in err

    @pytest.mark.parametrize("root", ["nan", "inf", "-inf"])
    def test_b2_rejects_non_finite_root(self, capsys, root):
        # only a trailing i marks an imaginary part, so inf parses as a float
        code, out, err = run(capsys, "design", "b2", "--roots", f"{root},1,2")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("design error:") and "not finite" in err

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

    def test_shrink_underflow_is_typed(self, capsys):
        # the certificate needs t < 2.5e-301, but t * 1e-300 underflows to 0
        # once t halves below about 2.5e-24
        code, out, err = run(capsys, "design", "shrink", "--potential", "[1e300,1e-300]")
        assert code == EXIT_VERDICT
        assert out == ""
        assert err.startswith("numerical diagnostic:") and "underflows" in err

    def test_amplify(self, capsys):
        code, out, _ = run(capsys, "design", "amplify", "--signs", "+,-")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["N"] == 2
        assert doc["rouche_margin"] > 0

    def test_amplify_signs_start_negative(self, capsys):
        code, out, _ = run(capsys, "design", "amplify", "--signs", "-,+")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["potential"] == [-2.0, 2.0]
        assert doc["N"] == 2

    def test_amplify_builds_two_polynomials(self, capsys, count_calls):
        # the two amplitudes tried by the search; the count and the margin
        # reuse the last
        built = count_calls(jost_coefficients)
        code, out, _ = run(capsys, "design", "amplify", "--signs", "+,-,+")
        assert code == EXIT_OK
        assert json.loads(out)["rouche_margin"] == 39.0
        assert [args[0].values for args in built] == [(2.0, -2.0, 2.0), (4.0, -4.0, 4.0)]

    def test_shrink_builds_each_scale_once(self, capsys, count_calls):
        # t = 1 .. 1/16; the report reuses the search's last polynomial
        built = count_calls(jost_coefficients)
        code, out, _ = run(capsys, "design", "shrink", "--potential", "[2,-3]")
        assert code == EXIT_OK
        assert json.loads(out)["t"] == 0.0625
        assert [args[0].values for args in built] == [
            (2.0 * t, -3.0 * t) for t in (1.0, 0.5, 0.25, 0.125, 0.0625)
        ]

    @pytest.mark.parametrize("signs", ["+,0", "+,x"])
    def test_amplify_rejects_bad_sign(self, capsys, signs):
        code, out, err = run(capsys, "design", "amplify", "--signs", signs)
        assert code == EXIT_INPUT
        assert out == ""
        assert "sign pattern" in err

    def test_extend(self, capsys):
        code, out, _ = run(capsys, "design", "extend", "--potential", "[2]", "--b", "3")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["N"] == 1
        assert len(doc["potential"]) == 3

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["shrink", "--potential", "[2,-3]"], 0),
            (["amplify", "--signs", "+,-,+"], 3),
            (["extend", "--potential", "[2,-2,2]", "--b", "12"], 3),
            (["extend", "--potential", "[2]", "--b", "3", "--epsilon", "0.01"], 1),
        ],
        ids=["shrink", "amplify", "extend", "extend-epsilon"],
    )
    def test_design_finds_no_roots(self, capsys, count_calls, argv, n):
        # N is the pivots' count on the built polynomial
        solved = count_calls(find_zeros)
        code, out, _ = run(capsys, "design", *argv)
        assert code == EXIT_OK
        assert json.loads(out)["N"] == n
        assert solved == []

    def test_extend_builds_two_polynomials(self, capsys, count_calls):
        # the given potential's, then the chosen extension's, whose count
        # the command prints
        built = count_calls(jost_coefficients)
        code, out, _ = run(capsys, "design", "extend", "--potential", "[2]", "--b", "3")
        assert code == EXIT_OK
        assert json.loads(out)["N"] == 1
        assert [args[0].b for args in built] == [1, 3]


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

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--size", "1"], "input error:"),
            # the library default is the only band margin: argparse rejects one
            (["--margin", "1e-6"], "usage: latticejost"),
            (["--alpha-filter", "nan"], "input error:"),
            (["--alpha-filter", "0"], "input error:"),
        ],
        ids=["size", "margin", "alpha-filter-nan", "alpha-filter-0"],
    )
    def test_bad_flag_is_input_error(self, capsys, flag, message):
        try:
            code = main(["oracle", "[2]", *flag])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith(message)


@pytest.mark.parametrize(
    "argv", [["analyze", "[2]", "--no-timing"], ["sweep", "--bmax", "3"]],
    ids=["analyze", "sweep"],
)
def test_closed_stdout_exits_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    env = dict(os.environ)
    src = str(Path(latticejost.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "latticejost.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == EXIT_PIPE
