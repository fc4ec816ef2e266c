"""Exit codes, instance parsing, artifact files, and round trips."""

import json
import subprocess
import sys

import numpy as np
import pytest

from motbounds import AscentConfig, DualCertificate, dual_objective
from motbounds.cli import main, parse_instance

from conftest import checkout_env

HAND_INSTANCE = {
    "marginals": [
        {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
        {"atoms": [-2.0, 2.0], "weights": [0.5, 0.5]},
    ],
    "cost": {"form": "squared_increment"},
}

# the paper's showcase: three quantized lognormals, basket call struck at 1
SHOWCASE_INSTANCE = {
    "marginals": [
        {"lognormal": {"location": -s * s / 2, "scale": s, "m": 15}} for s in (0.1, 0.2, 0.3)
    ],
    "cost": {"form": "basket", "strike": 1.0},
}

REVERSED_INSTANCE = {
    "marginals": [
        {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
        {"atoms": [0.0], "weights": [1.0]},
    ],
    "cost": {"form": "squared_increment"},
}


def write_instance(tmp_path, payload, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheck:
    def test_valid_three_marginal(self, tmp_path, capsys):
        payload = {
            "marginals": [
                {"atoms": [0.0], "weights": [1.0]},
                {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
                {"lognormal": {"location": 0.0, "scale": 0.0, "m": 1}},
            ],
            "cost": {"form": "basket", "strike": 0.0},
        }
        # the degenerate lognormal is delta_1: wrong mean, so fix it
        payload["marginals"][2] = {"atoms": [-2.0, 2.0], "weights": [0.5, 0.5]}
        assert main(["check", write_instance(tmp_path, payload)]) == 0

    def test_reversed_order_exit_2_with_witness(self, tmp_path, capsys):
        code = main(["--json", "check", write_instance(tmp_path, REVERSED_INSTANCE)])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["pairs"][0]["witness_k"] == pytest.approx(0.0)

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"marginals": [')
        assert main(["check", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_1(self):
        assert main(["check", "/nonexistent/instance.json"]) == 1


class TestSolve:
    def test_hand_instance_both(self, tmp_path, capsys):
        code = main(["--json", "solve", write_instance(tmp_path, HAND_INSTANCE),
                     "--side", "lower", "--method", "both"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["primal_value"] == pytest.approx(3.0, abs=1e-8)
        assert out["gap"] < 1e-6

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_both_starts_at_the_lp_multipliers(self, tmp_path, capsys, side):
        code = main(["--json", "solve", write_instance(tmp_path, SHOWCASE_INSTANCE),
                     "--side", side, "--method", "both"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] == 1
        assert out["gap"] < AscentConfig().target_gap

    def test_zero_cost_table(self, tmp_path, capsys):
        rows = ["-1.0,-2.0,0.0", "-1.0,2.0,0.0", "1.0,-2.0,0.0", "1.0,2.0,0.0"]
        csv = tmp_path / "zeros.csv"
        csv.write_text("\n".join(rows) + "\n")
        payload = dict(HAND_INSTANCE, cost={"form": "custom_table", "path": str(csv)})
        for side in ("lower", "upper"):
            code = main(["--json", "solve", write_instance(tmp_path, payload),
                         "--side", side])
            assert code == 0
            out = json.loads(capsys.readouterr().out)
            assert out["primal_value"] == pytest.approx(0.0, abs=1e-10)

    def test_oversized_grid_exit_3(self, tmp_path, capsys):
        big = {
            "marginals": [
                {"lognormal": {"location": -0.02, "scale": 0.2, "m": 600}},
                {"lognormal": {"location": -0.08, "scale": 0.4, "m": 600}},
            ],
            "cost": {"form": "terminal_call", "strike": 1.0},
        }
        assert main(["solve", write_instance(tmp_path, big)]) == 3

    def test_infeasible_exit_2(self, tmp_path):
        assert main(["solve", write_instance(tmp_path, REVERSED_INSTANCE)]) == 2

    def test_var_cap_option_exit_3(self, tmp_path):
        payload = dict(HAND_INSTANCE, options={"var_cap": 3})
        assert main(["solve", write_instance(tmp_path, payload)]) == 3

    def test_artifacts_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["--json", "--out", str(out_dir), "solve",
                     write_instance(tmp_path, HAND_INSTANCE), "--method", "both"])
        assert code == 0
        capsys.readouterr()
        cert = DualCertificate.from_dict(
            json.loads((out_dir / "certificate.json").read_text())
        )
        inst = parse_instance(write_instance(tmp_path, HAND_INSTANCE))
        value = dual_objective(cert.variant, inst.cost, inst.marginals, cert.dual_variables)
        assert value == pytest.approx(cert.dual_value, abs=1e-10)
        coupling_lines = (out_dir / "coupling.csv").read_text().strip().splitlines()
        assert coupling_lines[0] == "x_1,x_2,mass"
        total = sum(float(line.split(",")[-1]) for line in coupling_lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)
        trace_lines = (out_dir / "trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "iter,dual_value,grad_norm,elapsed_ms"


class TestCertifyCommand:
    def test_unit_instance_exit_0(self, tmp_path, capsys):
        code = main(["--json", "certify", write_instance(tmp_path, HAND_INSTANCE)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(g < 1e-4 for g in report["gaps"].values())

    def test_infeasible_exit_2(self, tmp_path):
        assert main(["certify", write_instance(tmp_path, REVERSED_INSTANCE)]) == 2

    def test_report_written(self, tmp_path, capsys):
        out_dir = tmp_path / "cert"
        code = main(["--json", "--out", str(out_dir), "certify",
                     write_instance(tmp_path, HAND_INSTANCE)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["passed"] is True
        assert set(report["timings"]) == {"validation", "lp_lower", "lp_upper", "duals", "subhedge"}
        assert (out_dir / "trace_proposition.csv").exists()

    def test_each_side_reports_its_solve_time(self, tmp_path, capsys):
        out_dir = tmp_path / "cert"
        code = main(["--json", "--out", str(out_dir), "certify",
                     write_instance(tmp_path, HAND_INSTANCE)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads((out_dir / "report.json").read_text())
        for report in (printed, written):
            for side in ("primal_lower", "primal_upper"):
                assert report[side]["stats"]["solve_s"] > 0

    def test_var_cap_option_exit_3(self, tmp_path):
        payload = dict(HAND_INSTANCE, options={"var_cap": 3})
        assert main(["certify", write_instance(tmp_path, payload)]) == 3


class TestEnvelopeCommand:
    def test_tent_at_zero(self, tmp_path, capsys):
        csv = tmp_path / "tent.csv"
        csv.write_text("-1,0\n0,1\n1,0\n")
        assert main(["envelope", str(csv), "--at", "0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.0)

    def test_parabola_identity_hull(self, tmp_path, capsys):
        csv = tmp_path / "sq.csv"
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        csv.write_text("\n".join(f"{x},{x * x}" for x in xs) + "\n")
        assert main(["envelope", str(csv)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + xs.size

    def test_zigzag_interior_value(self, tmp_path, capsys):
        csv = tmp_path / "zig.csv"
        csv.write_text("0,0\n1,-1\n2,3\n3,0\n")
        assert main(["envelope", str(csv), "--at", "2"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(-0.5)

    def test_unsorted_exit_1(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("1,0\n0,1\n")
        assert main(["envelope", str(csv)]) == 1

    def test_one_column_exit_1(self, tmp_path, capsys):
        csv = tmp_path / "one.csv"
        csv.write_text("0\n1\n2\n")
        assert main(["envelope", str(csv)]) == 1
        assert capsys.readouterr().err.startswith("error: expected two columns")


class TestQuantizeCommand:
    def test_emits_measure_json(self, capsys):
        assert main(["quantize", "--location", "0.0", "--scale", "0.3", "--m", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        mean = float(np.dot(payload["atoms"], payload["weights"]))
        assert mean == pytest.approx(np.exp(0.045), abs=1e-9)

    def test_invalid_parameters_exit_1(self, capsys):
        assert main(["quantize", "--location", "0.0", "--scale", "-1.0", "--m", "4"]) == 1


class TestInstanceParsing:
    def test_field_anchored_errors(self, tmp_path):
        bad = dict(HAND_INSTANCE, cost={"form": "no_such_form"})
        with pytest.raises(Exception) as err:
            parse_instance(write_instance(tmp_path, bad))
        assert "cost.form" in str(err.value)

    def test_bad_weights_name_the_marginal(self, tmp_path):
        bad = {
            "marginals": [
                {"atoms": [0.0], "weights": [1.0]},
                {"atoms": [-1.0, 1.0], "weights": [0.5, 0.6]},
            ],
            "cost": {"form": "squared_increment"},
        }
        with pytest.raises(Exception) as err:
            parse_instance(write_instance(tmp_path, bad))
        assert "marginals[1]" in str(err.value)

    def test_options_flow_into_config(self, tmp_path):
        payload = dict(HAND_INSTANCE, options={"variant": "remark_b", "max_iters": 77})
        inst = parse_instance(write_instance(tmp_path, payload))
        assert inst.config.variant == "remark_b"
        assert inst.config.max_iters == 77

    @pytest.mark.parametrize("key", ["max_iter", "step_rule", "seed"])
    def test_unknown_option_key_exit_1(self, tmp_path, capsys, key):
        payload = dict(HAND_INSTANCE, options={key: 2})
        code = main(["solve", write_instance(tmp_path, payload), "--method", "dual"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: options.{key}: unknown option")

    def test_cost_table_rows_in_any_order(self, tmp_path):
        ms_payload = {
            "marginals": [
                {"atoms": [0.0], "weights": [1.0]},
                {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
                {"atoms": [-2.0, 0.0, 2.0], "weights": [0.25, 0.5, 0.25]},
            ],
        }
        grid = [(x1, x2, x3) for x1 in (0.0,) for x2 in (-1.0, 1.0) for x3 in (-2.0, 0.0, 2.0)]
        rows = [f"{x1!r},{x2!r},{x3 + 1e-12!r},{x1 + 10 * x2 + 100 * x3!r}" for x1, x2, x3 in grid]
        csv = tmp_path / "table.csv"
        csv.write_text("\n".join(rows[::-1]) + "\n")
        payload = dict(ms_payload, cost={"form": "custom_table", "path": str(csv)})
        table = parse_instance(write_instance(tmp_path, payload)).cost.table
        expected = np.array([[[10 * x2 + 100 * x3 for x3 in (-2.0, 0.0, 2.0)]
                              for x2 in (-1.0, 1.0)]])
        assert np.allclose(table, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("coordinate", ["1.5", "nan"])
    def test_cost_table_off_atom_exit_1(self, tmp_path, capsys, coordinate):
        rows = ["-1.0,-2.0,0.0", "-1.0,2.0,0.0", "1.0,-2.0,0.0", f"1.0,{coordinate},0.0"]
        csv = tmp_path / "off.csv"
        csv.write_text("\n".join(rows) + "\n")
        payload = dict(HAND_INSTANCE, cost={"form": "custom_table", "path": str(csv)})
        assert main(["check", write_instance(tmp_path, payload)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cost.path: coordinate")
        assert coordinate in err and "is not an atom of marginal 2" in err

    def test_cost_table_incomplete_exit_1(self, tmp_path, capsys):
        rows = ["-1.0,-2.0,0.0", "-1.0,2.0,0.0", "1.0,-2.0,0.0", "1.0,-2.0,1.0"]
        csv = tmp_path / "partial.csv"
        csv.write_text("\n".join(rows) + "\n")
        payload = dict(HAND_INSTANCE, cost={"form": "custom_table", "path": str(csv)})
        assert main(["check", write_instance(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == (
            "error: cost.path: tensor does not cover the full product grid\n")

    def test_cost_table_repeated_point_exit_1(self, tmp_path, capsys):
        # (1.0, 2.0) is listed twice with different values
        rows = ["1.0,0.0,1.0", "1.0,2.0,0.0", "1.0,2.0,5.0"]
        csv = tmp_path / "repeated.csv"
        csv.write_text("\n".join(rows) + "\n")
        payload = {
            "marginals": [
                {"atoms": [1.0], "weights": [1.0]},
                {"atoms": [0.0, 2.0], "weights": [0.5, 0.5]},
            ],
            "cost": {"form": "custom_table", "path": str(csv)},
        }
        assert main(["solve", write_instance(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == (
            "error: cost.path: grid point (1.0, 2.0) is listed more than once\n")

    @pytest.mark.parametrize("key", ["growth_constant", "strik"])
    def test_unknown_cost_key_exit_1(self, tmp_path, capsys, key):
        payload = dict(HAND_INSTANCE, cost={"form": "squared_increment", key: 1.0})
        assert main(["check", write_instance(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == (
            f"error: cost.{key}: unknown key; expected one of ['form', 'path', 'strike']\n")

    def test_unknown_option_variant_exit_1(self, tmp_path, capsys):
        payload = dict(HAND_INSTANCE, options={"variant": "bogus"})
        code = main(["solve", write_instance(tmp_path, payload), "--method", "dual"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: options: unknown variant")

    @pytest.mark.parametrize("flags", [["--tol", "abc"], ["--seed", "3"]])
    def test_usage_errors_exit_1(self, tmp_path, capsys, flags):
        code = main(flags + ["solve", write_instance(tmp_path, HAND_INSTANCE)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_flags_override_options(self, tmp_path, capsys):
        payload = dict(HAND_INSTANCE, options={"max_iters": 7})
        code = main(["--json", "--max-iters", "44", "--variant", "remark_b", "solve",
                     write_instance(tmp_path, payload), "--method", "dual"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] <= 44


class TestModuleEntryPoint:
    def test_python_m_motbounds_check(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "motbounds", "check", write_instance(tmp_path, HAND_INSTANCE)],
            env=checkout_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "ok: True" in done.stdout
