"""Tests for the command-line front end."""

import json

import pytest

from phasealg import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--kappa", "0.5", "--lambda2", "1", "--mu2", "1",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["class"] == "SO(1,5)"
        assert obj["indicator"] == 0.75
        assert (obj["sig_pos"], obj["sig_neg"], obj["sig_zero"]) == (5, 10, 0)

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(
            capsys, "classify", "--kappa", "0.5", "--lambda2", "1", "--mu2", "1",
            "--format", "json",
        )
        assert json.dumps(json.loads(out)) == out.strip()

    def test_exact_mode_rational_inputs(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--exact", "--kappa", "1/2", "--lambda2", "1",
            "--mu2", "1", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["class"] == "SO(1,5)"
        assert obj["indicator"] == "3/4"
        assert obj["kappa"] == "1/2"

    def test_units_flags(self, capsys):
        # H^2 > M^2 L^2 with positive squares
        code, out, _ = run_cli(
            capsys, "classify", "--M2", "1", "--L2", "1", "--H2", "4",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["class"] == "SO(1,5)"

    def test_params_file(self, capsys, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"kappa": 0.5, "lambda_sq": -1, "mu_sq": -1}))
        code, out, _ = run_cli(
            capsys, "classify", "--params", str(path), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["class"] == "SO(3,3)"


class TestMassCommand:
    def test_paper_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "mass", "--m", "316", "--m0", "2")
        assert code == 0
        assert out.strip() == "|mu_s| = 157 MeV"

    def test_invalid_masses_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "mass", "--m", "100", "--m0", "100")
        assert code == 1
        assert "error" in err

    def test_quark_table(self, capsys, tmp_path):
        path = tmp_path / "quarks.json"
        path.write_text(
            json.dumps(
                {
                    "u": {"constituent_MeV": 316},
                    "d": {"constituent_MeV": 320},
                }
            )
        )
        code, out, _ = run_cli(
            capsys, "mass", "--quarks", str(path), "--mus", "157", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "flavor,constituent_MeV,current_MeV"
        assert lines[1] == "d,320,6"
        assert lines[2] == "u,316,2"


class TestOtherCommands:
    def test_jacobi_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "jacobi", "--exact", "--kappa", "1/3", "--lambda2", "-2/7",
            "--mu2", "5",
        )
        assert code == 0
        assert out.strip() == "jacobi_residual = 0"

    def test_killing(self, capsys):
        code, out, _ = run_cli(
            capsys, "killing", "--exact", "--kappa", "1", "--lambda2", "1",
            "--mu2", "1", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["det_killing"] == "0"
        assert obj["sig_zero"] >= 1

    def test_embed(self, capsys):
        code, out, _ = run_cli(
            capsys, "embed", "--kappa", "0", "--lambda2", "1", "--mu2", "1",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["six_metric"] == "1,-1,-1,-1,-1,-1"
        assert obj["deviation"] <= 1e-9

    def test_embed_exact_prints_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys, "embed", "--exact", "--format", "json", "--kappa", "0",
            "--lambda2", "1", "--mu2", "1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["deviation"] == "0"
        assert [obj[k] for k in ("s00", "s01", "s10", "s11")] == ["1", "0", "0", "1"]

    def test_embed_degenerate_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "embed", "--kappa", "1", "--lambda2", "1", "--mu2", "1"
        )
        assert code == 1

    def test_casimir_kinds(self, capsys):
        for kind in ("K1", "K2", "K3"):
            code, out, _ = run_cli(
                capsys, "casimir", "--kappa", "0", "--lambda2", "1", "--mu2", "1",
                "--kind", kind, "--format", "json",
            )
            assert code == 0
            assert json.loads(out)["centrality_residual"] <= 1e-9

    def test_kgf(self, capsys):
        code, out, _ = run_cli(
            capsys, "kgf", "--kappa", "0", "--lambda2", "0", "--mu2", "0",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["eigenvalue"] == 0
        assert obj["satisfied"] is True

    def test_uncertainty(self, capsys):
        code, out, _ = run_cli(capsys, "uncertainty", "--mu2", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["delta_p1"] == pytest.approx(1.0)
        assert obj["bound"] == pytest.approx(1.0)
        assert obj["satisfied"] is True

    def test_uncertainty_negative_mu_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "uncertainty", "--mu2", "-4")
        assert code == 1

    def test_dgl(self, capsys):
        code, out, _ = run_cli(capsys, "dgl", "--m0", "2", "--mus", "157")
        assert code == 0
        assert out.strip() == "eigenvalues = 316,316,312,312"


class TestScan:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--kappa", "1:1:1", "--lambda2", "-2:2:5",
            "--mu2", "-2:2:5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert (
            lines[0]
            == "kappa,lambda_sq,mu_sq,class,indicator,det_killing,sig_pos,sig_neg,sig_zero"
        )
        assert len(lines) == 26

    def test_cross_invariant(self, capsys):
        _, out, _ = run_cli(
            capsys, "scan", "--kappa", "0:1:2", "--lambda2", "-1:1:3",
            "--mu2", "-1:1:3", "--format", "json",
        )
        for rec in json.loads(out):
            assert (abs(rec["indicator"]) <= 1e-9) == (rec["sig_zero"] > 0)

    def test_deterministic_across_thread_counts(self, capsys):
        outs = []
        for threads in ("1", "4"):
            _, out, _ = run_cli(
                capsys, "scan", "--kappa", "1:1:1", "--lambda2", "-2:2:5",
                "--mu2", "-2:2:5", "--format", "csv", "--threads", threads,
            )
            outs.append(out)
        assert outs[0] == outs[1]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, "scan", "--kappa", "1:1:1", "--lambda2", "0:1:2",
            "--mu2", "0:1:2", "--format", "csv", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text().count("\n") == 5

    def test_bad_grid_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--kappa", "1:1", "--lambda2", "0:1:2",
                             "--mu2", "0:1:2")
        assert code == 1


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "nonsense")[0] == 1

    def test_bad_number(self, capsys):
        code, _, _ = run_cli(
            capsys, "classify", "--kappa", "x", "--lambda2", "1", "--mu2", "1"
        )
        assert code == 1

    def test_missing_params(self, capsys):
        assert run_cli(capsys, "classify")[0] == 1

    def test_parser_built_once(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        first = run_cli(capsys, "nonsense")
        assert run_cli(capsys, "nonsense") == first


class TestOverflow:
    @pytest.mark.filterwarnings("ignore:overflow encountered in det:RuntimeWarning")
    def test_non_finite_float_printed_as_inf(self, capsys):
        """det K overflows to -inf at kappa = 1e70; csv and table print it
        the way json reports the same value, not a traceback."""
        point = ("--kappa", "1e70", "--lambda2", "1", "--mu2", "1")
        code, out, _ = run_cli(capsys, "classify", *point, "--format", "csv")
        assert code == 0
        assert ",1e+70,1,1,-inf," in out  # kappa, lambda_sq, mu_sq, det_killing
        code, out, _ = run_cli(capsys, "killing", *point, "--format", "table")
        assert code == 0
        assert "det_killing = -inf\n" in out

    @pytest.mark.parametrize("kappa,lambda2,mu2", [("1e155", "1e155", "1"), ("1", "1e308", "1e308")])
    def test_embed_normaliser_overflow_exit_one(self, capsys, kappa, lambda2, mu2):
        code, out, err = run_cli(
            capsys, "embed", "--kappa", kappa, "--lambda2", lambda2, "--mu2", mu2
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "kappa=%r" % float(kappa) in err


class TestNonFiniteSelfChecks:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_representation_residual_exit_one(self, capsys):
        """The adjoint overflows at lambda2 = mu2 = 1e308; its bracket
        residual is nan, which must fail the K2 self-check."""
        code, out, err = run_cli(
            capsys, "casimir", "--kind", "K2", "--kappa", "1", "--lambda2", "1e308",
            "--mu2", "1e308", "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "nan" in err

    @pytest.mark.parametrize("command", ["killing", "classify"])
    def test_overflowed_killing_form_exit_one(self, capsys, command):
        """One Killing entry overflows to inf at kappa = lambda2 = 1e155; its
        eigenvalues are nan and used to be counted as 15 zeros."""
        code, out, err = run_cli(
            capsys, command, "--kappa", "1e155", "--lambda2", "1e155", "--mu2", "1",
            "--format", "json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.filterwarnings("ignore:overflow encountered in det:RuntimeWarning")
    def test_scan_through_overflowed_point_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--kappa", "1:1e155:2", "--lambda2", "1e155:1e155:1",
            "--mu2", "1:1:1", "--format", "csv",
        )
        assert code == 1
        assert out == ""

    @pytest.mark.filterwarnings("ignore:overflow encountered in det:RuntimeWarning")
    def test_finite_form_with_overflowed_det_keeps_output(self, capsys):
        """At kappa = 1e70 the form is finite and only det K overflows."""
        code, out, _ = run_cli(
            capsys, "classify", "--kappa", "1e70", "--lambda2", "1", "--mu2", "1",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["det_killing"] == float("-inf")
        assert (obj["class"], obj["sig_pos"], obj["sig_neg"], obj["sig_zero"]) == (
            "SO(2,4)", 8, 7, 0)
