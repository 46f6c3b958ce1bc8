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
