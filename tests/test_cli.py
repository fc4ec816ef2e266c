"""Exit codes, instance parsing, artifact files, and round trips."""

import dataclasses
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from motbounds import (
    AscentConfig,
    DualCertificate,
    ascend,
    convex_envelope,
    GridFunction,
    dual_objective,
    solve_primal,
)
import motbounds.ascent
import motbounds.cli
import motbounds.measures
from motbounds.cli import main, parse_instance
from motbounds.measures import DEFAULT_VAR_CAP

from conftest import checkout_env, lognormal_showcase

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

# in convex order, but the martingale coefficient 1e16 is past the largest
# matrix entry HiGHS loads, so the LP cannot be solved while the dual can
HUGE_SPREAD_INSTANCE = {
    "marginals": [
        {"atoms": [0.0], "weights": [1.0]},
        {"atoms": [-1e16, 1e16], "weights": [0.5, 0.5]},
    ],
    "cost": {"form": "abs_increment"},
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


def strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens RFC 8259 has no room for."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def read_csv(source, header):
    """Rows of a CSV artifact (a path, or the text itself), checked to hold plain numbers."""
    text = source if isinstance(source, str) else source.read_text()
    assert text.splitlines()[0] == header
    assert "np." not in text
    stream = io.StringIO(text) if isinstance(source, str) else source
    return np.loadtxt(stream, delimiter=",", skiprows=1, ndmin=2)


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

    @pytest.mark.parametrize("command", ["check", "certify"])
    def test_integer_too_long_exit_1(self, tmp_path, capsys, command):
        # past Python's 4,300-digit limit json.load raises a plain ValueError
        path = tmp_path / "long.json"
        text = json.dumps(dict(HAND_INSTANCE, cost={"form": "basket", "strike": 1}))
        path.write_text(text.replace('"strike": 1', '"strike": ' + "1" * 5000))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: Exceeds the limit") and err.count("\n") == 1

    def test_deeply_nested_json_exit_1(self, tmp_path, capsys):
        # json.load recurses once per bracket and raises RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize("command", ["check", "certify"])
    def test_non_utf8_file_exit_1(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(HAND_INSTANCE).replace("squared_", "squared_\xff\xfe")
                         .encode("latin-1"))
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode") and err.count("\n") == 1


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

    def test_model_highs_refuses_exit_2(self, tmp_path, capsys):
        path = write_instance(tmp_path, HUGE_SPREAD_INSTANCE)
        assert main(["solve", path, "--method", "primal"]) == 2
        assert capsys.readouterr().out == "error: primal solve ended with status model_error\n"
        assert main(["--json", "solve", path, "--method", "dual"]) == 0
        assert json.loads(capsys.readouterr().out)["dual_value"] == 1e16

    def test_var_cap_option_exit_3(self, tmp_path):
        # the hand instance has 4 paths: a cap of 4 admits it, a cap of 3 does not
        path = write_instance(tmp_path, HAND_INSTANCE)
        assert main(["--var-cap", "4", "solve", path]) == 0
        assert main(["--var-cap", "3", "solve", path]) == 3

    @pytest.mark.parametrize("method", ["primal", "dual", "both"])
    def test_var_cap_holds_for_every_method(self, tmp_path, capsys, method):
        # 3 x 5 = 15 paths against a cap of 10
        payload = {
            "marginals": [
                {"atoms": [-1.0, 0.0, 1.0], "weights": [0.25, 0.5, 0.25]},
                {"atoms": [-2.0, -1.0, 0.0, 1.0, 2.0],
                 "weights": [0.125, 0.125, 0.5, 0.125, 0.125]},
            ],
            "cost": {"form": "squared_increment"},
        }
        path = write_instance(tmp_path, payload)
        assert main(["--var-cap", "10", "solve", path, "--method", method]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: 15 path variables exceed the cap 10"]

    def test_var_cap_caps_lognormal_blocks(self, tmp_path, capsys, monkeypatch):
        # solve and certify quantize under the run's --var-cap, check under the default
        monkeypatch.setattr(motbounds.measures, "DEFAULT_VAR_CAP", 10)
        payload = {"marginals": [{"atoms": [1.0], "weights": [1.0]},
                                 {"lognormal": {"location": -0.02, "scale": 0.2, "m": 12}}],
                   "cost": {"form": "squared_increment"}}
        path = write_instance(tmp_path, payload)
        assert main(["--var-cap", "100", "solve", path]) == 0
        assert main(["--var-cap", "100", "certify", path]) == 0
        capsys.readouterr()
        for argv, cap in ((["--var-cap", "11", "solve", path], 11),
                          (["--var-cap", "11", "certify", path], 11), (["check", path], 10)):
            assert main(argv) == 3
            assert capsys.readouterr().err == f"error: 12 atoms exceed the cap {cap}\n"

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
        coupling = read_csv(out_dir / "coupling.csv", "x_1,x_2,mass")
        assert coupling[:, -1].sum() == pytest.approx(1.0, abs=1e-9)
        trace = read_csv(out_dir / "trace.csv", "iter,dual_value,grad_norm,elapsed_ms")
        assert trace[0, 1] == cert.dual_value


TRACE_HEADER = "iter,dual_value,grad_norm,elapsed_ms"


class TestCsvArtifacts:
    """Every CSV artifact reads back by np.loadtxt to the values in memory."""

    def test_coupling_and_trace_of_solve(self, tmp_path, capsys):
        path = write_instance(tmp_path, SHOWCASE_INSTANCE)
        out_dir = tmp_path / "artifacts"
        assert main(["--json", "--out", str(out_dir), "solve", path]) == 0
        out = json.loads(capsys.readouterr().out)
        inst = parse_instance(path)
        q = solve_primal(inst.cost, inst.marginals).coupling.q
        paths = np.argwhere(q > 0)  # one row per path with positive LP mass
        grids = inst.marginals.grids
        expected = np.column_stack([grid[paths[:, i]] for i, grid in enumerate(grids)]
                                   + [q[tuple(paths.T)]])
        coupling = read_csv(out_dir / "coupling.csv", "x_1,x_2,x_3,mass")
        np.testing.assert_array_equal(coupling, expected)
        assert np.all(coupling[:, -1] > 0)
        trace = read_csv(out_dir / "trace.csv", TRACE_HEADER)
        assert trace.shape == (out["iterations"], 4)
        assert trace[-1, 1] == out["dual_value"]

    def test_dual_trace_has_one_row_per_iteration(self, tmp_path, capsys):
        payload = {
            "marginals": [
                {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
                {"atoms": [-2.0, 0.0, 2.0], "weights": [1 / 3] * 3},
            ],
            "cost": {"form": "abs_increment"},
        }
        path = write_instance(tmp_path, payload)
        out_dir = tmp_path / "artifacts"
        assert main(["--json", "--out", str(out_dir), "--max-iters", "50", "solve", path,
                     "--method", "dual"]) == 0
        inst = parse_instance(path)
        _, trace = ascend(inst.cost, inst.marginals, AscentConfig(max_iters=50))
        rows = read_csv(out_dir / "trace.csv", TRACE_HEADER)
        assert json.loads(capsys.readouterr().out)["iterations"] == len(trace) == len(rows) > 1
        np.testing.assert_array_equal(rows[:, :3], np.column_stack(
            [np.arange(len(trace)), trace.values, trace.grad_norms]))
        assert np.all(np.diff(rows[:, 3]) >= 0)

    def test_hull_file_and_stdout(self, tmp_path, capsys):
        xs = np.linspace(-1.0, 2.0, 13)
        csv = tmp_path / "points.csv"
        ys = np.sin(3 * xs)
        csv.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist())))
        env = convex_envelope(GridFunction(xs, ys))
        expected = np.column_stack([env.hull_grid, env.hull_values])
        assert main(["envelope", str(csv)]) == 0
        np.testing.assert_array_equal(read_csv(capsys.readouterr().out, "x,envelope"), expected)
        assert main(["--out", str(tmp_path / "hull"), "envelope", str(csv)]) == 0
        np.testing.assert_array_equal(read_csv(tmp_path / "hull" / "hull.csv", "x,envelope"),
                                      expected)


class TestOutErrors:
    """An --out that cannot be used is one error line with exit 1, found before any work."""

    @staticmethod
    def argv(tmp_path, command):
        if command == "envelope":
            csv = tmp_path / "points.csv"
            csv.write_text("0,0\n1,-1\n2,0\n")
            return ["envelope", str(csv)]
        return [command, write_instance(tmp_path, HAND_INSTANCE)]

    @pytest.mark.parametrize("command,work", [("certify", "certify"),
                                              ("solve", "validate_sequence"),
                                              ("envelope", "convex_envelope")])
    def test_out_on_a_file_exit_1(self, tmp_path, capsys, monkeypatch, command, work):
        taken = tmp_path / "taken.json"
        taken.write_text("{}")

        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was checked")

        monkeypatch.setattr(motbounds.cli, work, no_work)
        assert main(["--out", str(taken)] + self.argv(tmp_path, command)) == 1
        assert capsys.readouterr().err == f"error: --out: [Errno 17] File exists: {str(taken)!r}\n"

    @pytest.mark.parametrize("command,flags,artifact", [
        ("certify", [], "report.json"), ("solve", [], "coupling.csv"),
        ("solve", ["--method", "dual"], "certificate.json"), ("envelope", [], "hull.csv")])
    def test_artifact_that_cannot_be_written_exit_1(self, tmp_path, capsys, command, flags,
                                                     artifact):
        out_dir = tmp_path / "art"
        (out_dir / artifact).mkdir(parents=True)  # a directory where the file goes
        assert main(["--out", str(out_dir)] + self.argv(tmp_path, command) + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out: [Errno 21] Is a directory") and err.count("\n") == 1


class TestCertifyCommand:
    def test_unit_instance_exit_0(self, tmp_path, capsys):
        code = main(["--json", "certify", write_instance(tmp_path, HAND_INSTANCE)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(g < 1e-4 for g in report["gaps"].values())

    def test_infeasible_exit_2(self, tmp_path):
        assert main(["certify", write_instance(tmp_path, REVERSED_INSTANCE)]) == 2

    def test_model_highs_refuses_exit_2_with_strict_json(self, tmp_path, capsys):
        out_dir = tmp_path / "cert"
        code = main(["--json", "--out", str(out_dir), "certify",
                     write_instance(tmp_path, HUGE_SPREAD_INSTANCE)])
        assert code == 2
        printed = strict_json(capsys.readouterr().out)
        written = strict_json((out_dir / "report.json").read_text())
        for report in (printed, written):
            assert report["feasible"] is True and report["passed"] is False
            for side in ("primal_lower", "primal_upper"):
                assert report[side]["status"] == "model_error"
                assert report[side]["value"] is None
                assert report[side]["stats"]["max_primal_infeasibility"] is None
                assert report[side]["stats"]["max_dual_infeasibility"] is None

    def test_failed_subhedge_exit_2(self, tmp_path, capsys, monkeypatch):
        # every gap closes, so only the sub-hedge verdict can fail the report
        # certify runs both sub-hedges through the seam verify_subhedge also calls
        real = motbounds.ascent._subhedge
        monkeypatch.setattr(motbounds.ascent, "_subhedge",
                            lambda *args: dataclasses.replace(real(*args), ok=False))
        code = main(["--json", "certify", write_instance(tmp_path, HAND_INSTANCE)])
        report = json.loads(capsys.readouterr().out)
        assert all(g < 1e-4 for g in report["gaps"].values())
        assert report["subhedge_zero"]["ok"] is report["subhedge_best"]["ok"] is False
        assert report["passed"] is False
        assert code == 2

    def test_coupling_that_fails_validation_exit_2(self, tmp_path, capsys):
        # the showcase at 1e-6 times its atoms and strike: the lower LP's
        # coupling misses its martingale rows, a failed check, not a traceback
        tiny = {"marginals": [{"atoms": (1e-6 * mu.atoms).tolist(), "weights": mu.weights.tolist()}
                              for mu in lognormal_showcase()[1]],
                "cost": {"form": "basket", "strike": 1e-6}}
        code = main(["--json", "certify", write_instance(tmp_path, tiny)])
        out, err = capsys.readouterr()
        report = strict_json(out)
        assert (code, err) == (2, "")
        assert report["coupling_check"]["ok"] is False and report["passed"] is False

    def test_report_written(self, tmp_path, capsys):
        out_dir = tmp_path / "cert"
        code = main(["--json", "--out", str(out_dir), "certify",
                     write_instance(tmp_path, HAND_INSTANCE)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["passed"] is True
        assert set(report["timings"]) == {"validation", "lp_lower", "duals_lower", "subhedge",
                                            "lp_upper", "dual_upper"}
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.json"]  # no trace_*.csv

    def test_printed_report_is_the_written_one(self, tmp_path, capsys):
        out_dir = tmp_path / "cert"
        code = main(["--json", "--out", str(out_dir), "certify",
                     write_instance(tmp_path, HAND_INSTANCE)])
        assert code == 0
        assert capsys.readouterr().out == (out_dir / "report.json").read_text() + "\n"

    def test_unreachable_tol_exit_2_names_the_missed_variants(self, tmp_path, capsys):
        # every showcase gap is rounding above 1e-30, none exactly 0
        code = main(["--json", "--tol", "1e-30", "certify",
                     write_instance(tmp_path, SHOWCASE_INSTANCE)])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["passed"] is False and report["target_gap"] == 1e-30
        assert report["missed"] == ["proposition", "remark_b", "remark_a"]

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

    def test_each_side_reports_highs_infeasibilities(self, tmp_path, capsys):
        out_dir = tmp_path / "cert"
        code = main(["--json", "--out", str(out_dir), "certify",
                     write_instance(tmp_path, SHOWCASE_INSTANCE)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads((out_dir / "report.json").read_text())
        for report in (printed, written):
            for side in ("primal_lower", "primal_upper"):
                stats = report[side]["stats"]
                assert 0 <= stats["max_primal_infeasibility"] <= 1e-7
                assert 0 <= stats["max_dual_infeasibility"] <= 1e-7

    def test_var_cap_option_exit_3(self, tmp_path, capsys):
        assert main(["--var-cap", "3", "certify", write_instance(tmp_path, HAND_INSTANCE)]) == 3
        assert capsys.readouterr().err == "error: 4 path variables exceed the cap 3\n"


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

    @pytest.mark.parametrize("point", ["nan", "inf", "5"])
    def test_point_off_the_grid_exit_1(self, tmp_path, capsys, point):
        csv = tmp_path / "zig.csv"
        csv.write_text("0,0\n1,-1\n2,3\n3,0\n")
        assert main(["envelope", str(csv), "--at", point]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: t = ") and err.endswith("support nesting violated\n")

    def test_unsorted_exit_1(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("1,0\n0,1\n")
        assert main(["envelope", str(csv)]) == 1

    def test_far_from_unit_scale_keeps_the_notch(self, tmp_path, capsys):
        # slopes of -1e-13 and 1e-13 differ by less than 1e-12; the hull still
        # keeps the middle knot, so the envelope there is f = -1
        csv = tmp_path / "wide.csv"
        csv.write_text("0,0\n1e13,-1\n2e13,0\n")
        assert main(["envelope", str(csv), "--at", "1e13"]) == 0
        assert capsys.readouterr().out == "-1.0\n"

    @pytest.mark.parametrize("rows", ["0,0\n1,nan\n2,0\n", "0,0\n1,inf\n2,-inf\n",
                                      "0,0\nnan,1\n2,0\n"], ids=["nan", "inf", "nan_grid"])
    @pytest.mark.parametrize("at", [["--at", "1"], []], ids=["at", "hull"])
    def test_non_finite_rows_exit_1(self, tmp_path, capsys, rows, at):
        csv = tmp_path / "bad.csv"
        csv.write_text(rows)
        assert main(["envelope", str(csv)] + at) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: grid and values must be finite\n"

    def test_out_with_at_exit_1(self, tmp_path, capsys):
        # --at prints one value; an --out beside it would be ignored, so it is refused
        csv = tmp_path / "tent.csv"
        csv.write_text("0,0\n1,-1\n2,0\n")
        out_dir = tmp_path / "hull"
        assert main(["--out", str(out_dir), "envelope", str(csv), "--at", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --out: envelope --at prints one value and writes no file\n"
        assert not out_dir.exists()

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

    def test_more_atoms_than_the_cap_exit_3(self, tmp_path, capsys):
        message = "error: 100000000000 atoms exceed the cap 200000\n"
        assert main(["quantize", "--location", "0.0", "--scale", "0.3",
                     "--m", "100000000000"]) == 3
        assert capsys.readouterr().err == message
        payload = json.loads(json.dumps(SHOWCASE_INSTANCE))
        payload["marginals"][1]["lognormal"]["m"] = 100_000_000_000
        for command in ("check", "certify"):
            assert main([command, write_instance(tmp_path, payload)]) == 3
            assert capsys.readouterr().err == message


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

    def test_options_flow_into_config(self, tmp_path, monkeypatch):
        # command-line options are the one spelling of a run setting
        args = motbounds.cli.build_parser().parse_args(
            ["--max-iters", "77", "--tol", "1e-6", "solve", "instance.json"])
        assert motbounds.cli._apply_flags(args) == AscentConfig(max_iters=77, target_gap=1e-6)

        class Reached(Exception):
            pass

        def fake_certify(cost, ms, **kwargs):
            raise Reached(kwargs)

        monkeypatch.setattr(motbounds.cli, "certify", fake_certify)
        with pytest.raises(Reached) as run:
            main(["--tol", "1e-6", "--var-cap", "9", "certify",
                  write_instance(tmp_path, HAND_INSTANCE)])
        assert run.value.args[0] == {"target_gap": 1e-6, "var_cap": 9}
        with pytest.raises(Reached) as run:
            main(["certify", write_instance(tmp_path, HAND_INSTANCE)])
        assert run.value.args[0] == {"target_gap": AscentConfig().target_gap,
                                     "var_cap": DEFAULT_VAR_CAP}

    # an instance file holds no run settings: an options block is an unknown
    # key, whether it names a setting (max_iters, target_gap, var_cap) or not
    @pytest.mark.parametrize("key", ["max_iter", "step_rule", "seed", "variant", "initial_step",
                                     "max_iters", "target_gap", "var_cap"])
    def test_unknown_option_key_exit_1(self, tmp_path, capsys, key):
        payload = dict(HAND_INSTANCE, options={key: 2})
        for command in (["check"], ["solve", "--method", "dual"], ["certify"]):
            assert main([command[0], write_instance(tmp_path, payload)] + command[1:]) == 1
            assert capsys.readouterr() == (
                "", "error: options: unknown key; expected one of ['cost', 'marginals']\n")

    @pytest.mark.parametrize("command", ["check", "solve", "certify"])
    def test_unknown_top_level_key_exit_1(self, tmp_path, capsys, command):
        # a misspelled options block must not be dropped without notice
        payload = dict(HAND_INSTANCE, optionz={"max_iters": 0, "target_gap": -1})
        assert main([command, write_instance(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == (
            "error: optionz: unknown key; expected one of ['cost', 'marginals']\n")

    @pytest.mark.parametrize("block,field,message", [
        ({"m": 2.5}, "lognormal.m", "expected a positive integer, got 2.5"),
        ({"m": True}, "lognormal.m", "expected a number, got true"),
        ({"m": "3"}, "lognormal.m", 'expected a number, got "3"'),
        ({"m": 0}, "lognormal.m", "expected a positive integer, got 0"),
        ({"scale": True}, "lognormal.scale", "expected a number, got true"),
        ({"location": "-0.02"}, "lognormal.location", 'expected a number, got "-0.02"'),
        ({"sigma": 9}, "lognormal.sigma",
         "unknown key; expected one of ['location', 'm', 'scale']"),
        ({"m": None}, "lognormal", "missing key 'm'"),
    ], ids=["m_fraction", "m_bool", "m_string", "m_zero", "scale_bool", "location_string",
            "unknown_key", "missing_key"])
    def test_bad_lognormal_block_exit_1(self, tmp_path, capsys, block, field, message):
        params = {"location": -0.02, "scale": 0.2, "m": 15}
        params.update(block)
        params = {k: v for k, v in params.items() if v is not None}  # None drops the key
        payload = json.loads(json.dumps(SHOWCASE_INSTANCE))
        payload["marginals"][1] = {"lognormal": params}
        assert main(["solve", write_instance(tmp_path, payload), "--method", "dual"]) == 1
        assert capsys.readouterr().err == f"error: marginals[1].{field}: {message}\n"

    @pytest.mark.parametrize("extra,message", [
        ({"atoms": [1.0], "weights": [1.0]},
         "marginals[0]: expected atoms/weights or a lognormal block, not both"),
        ({"weights": [1.0]}, "marginals[0]: expected atoms/weights or a lognormal block, not both"),
        ({"name": "spot"},
         "marginals[0].name: unknown key; expected one of ['atoms', 'lognormal', 'weights']"),
    ], ids=["both", "lognormal_and_weights", "unknown_key"])
    def test_mixed_marginal_object_exit_1(self, tmp_path, capsys, extra, message):
        payload = json.loads(json.dumps(SHOWCASE_INSTANCE))
        payload["marginals"][0].update(extra)
        assert main(["solve", write_instance(tmp_path, payload), "--method", "dual"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("marginal,cost,message", [
        ({"atoms": ["1.0"], "weights": [1.0]}, None,
         'marginals[0].atoms[0]: expected a number, got "1.0"'),
        ({"atoms": [1.0], "weights": [True]}, None,
         "marginals[0].weights[0]: expected a number, got true"),
        ({"atoms": [0.0, [1.0]], "weights": [0.5, 0.5]}, None,
         "marginals[0].atoms[1]: expected a number, got [1.0]"),
        ({"atoms": 1.0, "weights": [1.0]}, None,
         "marginals[0].atoms: expected a list of numbers, got 1.0"),
        (None, {"form": "basket", "strike": "1.0"}, 'cost.strike: expected a number, got "1.0"'),
        (None, {"form": "terminal_call", "strike": True},
         "cost.strike: expected a number, got true"),
    ], ids=["atom_string", "weight_bool", "atom_nested", "atoms_scalar", "strike_string",
            "strike_bool"])
    def test_non_number_field_exit_1(self, tmp_path, capsys, marginal, cost, message):
        payload = json.loads(json.dumps(HAND_INSTANCE))
        if marginal is not None:
            payload["marginals"][0] = marginal
        if cost is not None:
            payload["cost"] = cost
        assert main(["check", write_instance(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integral_float_m_is_accepted(self, tmp_path):
        payload = json.loads(json.dumps(SHOWCASE_INSTANCE))
        payload["marginals"][0]["lognormal"]["m"] = 15.0
        assert parse_instance(write_instance(tmp_path, payload)).marginals.sizes == (15, 15, 15)

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

    def test_cost_table_match_scales_with_the_atoms(self, tmp_path, capsys):
        # 5e-10 is 500 atom gaps past 1e-12, though within an absolute 1e-9 of it
        csv = tmp_path / "tiny.csv"
        csv.write_text("0.0,-1e-12,1.0\n0.0,0.0,0.0\n0.0,5e-10,1.0\n")
        payload = {
            "marginals": [
                {"atoms": [0.0], "weights": [1.0]},
                {"atoms": [-1e-12, 0.0, 1e-12], "weights": [0.25, 0.5, 0.25]},
            ],
            "cost": {"form": "custom_table", "path": str(csv)},
        }
        assert main(["solve", write_instance(tmp_path, payload), "--method", "primal"]) == 1
        assert capsys.readouterr().err == (
            "error: cost.path: coordinate 5e-10 is not an atom of marginal 2\n")

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

    def test_cost_table_nan_value_exit_1(self, tmp_path, capsys):
        # every point is listed, so the NaN is a non-finite entry, not a hole
        rows = ["-1.0,-2.0,0.0", "-1.0,2.0,nan", "1.0,-2.0,0.0", "1.0,2.0,0.0"]
        csv = tmp_path / "nan.csv"
        csv.write_text("\n".join(rows) + "\n")
        payload = dict(HAND_INSTANCE, cost={"form": "custom_table", "path": str(csv)})
        assert main(["check", write_instance(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == "error: cost: table entries must be finite\n"

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

    @pytest.mark.parametrize("form,extra", [
        ("squared_increment", {"strike": 7.0}), ("squared_increment", {"path": "t.csv"}),
        ("abs_increment", {"strike": 7.0}), ("abs_increment", {"path": "t.csv"}),
        ("terminal_call", {"strike": 1.0, "path": "t.csv"}),
        ("basket", {"strike": 1.0, "path": "t.csv"}),
        ("custom_table", {"path": "t.csv", "strike": 7.0})])
    def test_cost_key_the_form_does_not_read_exit_1(self, tmp_path, capsys, form, extra):
        key = list(extra)[-1]  # the key the form does not read
        payload = dict(HAND_INSTANCE, cost=dict(extra, form=form))
        assert main(["solve", write_instance(tmp_path, payload)]) == 1
        assert capsys.readouterr().err == f"error: cost.{key}: the {form} form takes no {key}\n"

    def test_strike_and_path_on_squared_increment_exit_1(self, tmp_path, capsys):
        payload = dict(HAND_INSTANCE, cost={"form": "squared_increment", "strike": 7, "path": 12})
        assert main(["solve", write_instance(tmp_path, payload)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cost.path: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["check"], ["solve"], ["solve", "--method", "dual"],
                                         ["certify"]], ids=["check", "solve", "dual", "certify"])
    @pytest.mark.parametrize("case", ["nan_weights", "nan_strike", "minus_inf_strike",
                                      "inf_table_entry", "lognormal_overflow"])
    def test_non_finite_input_exit_1(self, tmp_path, capsys, case, command):
        payload = json.loads(json.dumps(HAND_INSTANCE))
        if case == "nan_weights":
            payload["marginals"][1]["weights"] = [float("nan")] * 2
            field = "marginals[1]: weights must be finite"
        elif case.endswith("_strike"):
            strike = float("nan") if case == "nan_strike" else -float("inf")
            payload["cost"] = {"form": "basket", "strike": strike}
            field = "cost: strike must be finite"
        elif case == "inf_table_entry":
            csv = tmp_path / "table.csv"
            csv.write_text("-1.0,-2.0,0.0\n-1.0,2.0,inf\n1.0,-2.0,0.0\n1.0,2.0,0.0\n")
            payload["cost"] = {"form": "custom_table", "path": str(csv)}
            field = "cost: table entries must be finite"
        else:
            payload["marginals"][0] = {"lognormal": {"location": 1e308, "scale": 0.1, "m": 3}}
            field = "marginals[0].lognormal: mean exp(location + scale^2 / 2) is not finite"
        path = write_instance(tmp_path, payload)
        assert main([command[0], path] + command[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["solve", "--method", "primal"],
                                         ["solve", "--method", "dual"], ["certify"]],
                             ids=["primal", "dual", "certify"])
    def test_overflowing_cost_exit_1(self, tmp_path, capsys, command):
        # finite atoms in convex order whose squared increments overflow
        payload = {"marginals": [{"atoms": [0.0], "weights": [1.0]},
                                 {"atoms": [-1e200, 1e200], "weights": [0.5, 0.5]}],
                   "cost": {"form": "squared_increment"}}
        path = write_instance(tmp_path, payload)
        assert main(["check", path]) == 0
        capsys.readouterr()
        assert main([command[0], path] + command[1:]) == 1
        assert capsys.readouterr().err == (
            "error: cost squared_increment is not finite on the product grid of the marginals\n")

    @pytest.mark.parametrize("key,value", [
        ("var_cap", 1.5), ("var_cap", True), ("var_cap", 0), ("var_cap", -3),
        ("max_iters", 2.7), ("max_iters", 0), ("target_gap", -1), ("target_gap", True),
        ("target_gap", float("nan")),
    ])
    def test_bad_option_value_exit_1(self, tmp_path, capsys, key, value):
        # a value of the wrong type is argparse's usage error; a number out of
        # range is one error: line naming the flag, before the instance is read
        flag = {"var_cap": "--var-cap", "max_iters": "--max-iters", "target_gap": "--tol"}[key]
        assert main([flag, str(value), "solve", str(tmp_path / "never_read.json")]) == 1
        out, err = capsys.readouterr()
        if isinstance(value, bool) or value in (1.5, 2.7):
            assert f"error: argument {flag}: invalid" in err
        else:
            assert out == "" and err.startswith(f"error: {flag}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--tol", "abc"], ["--seed", "3"], ["--max-iters", "0"], ["--variant", "remark_b"],
        ["--tol", "-1"], ["--tol", "nan"],
    ])
    def test_usage_errors_exit_1(self, tmp_path, capsys, flags):
        code = main(flags + ["solve", write_instance(tmp_path, HAND_INSTANCE)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,flag", [
        (["--max-iters", "5", "certify", "INSTANCE"], "--max-iters"),
        (["--tol", "1e-3", "check", "INSTANCE"], "--tol"),
        (["--max-iters", "5", "check", "INSTANCE"], "--max-iters"),
        (["--tol", "1e-3", "envelope", "points.csv"], "--tol"),
        (["--max-iters", "5", "quantize", "--location", "0", "--scale", "0.2", "--m", "3"],
         "--max-iters"),
        (["--out", "NEWDIR", "check", "INSTANCE"], "--out"),
        (["--out", "NEWDIR", "quantize", "--location", "0", "--scale", "0.2", "--m", "3"], "--out"),
        (["--json", "envelope", "points.csv", "--at", "1"], "--json"),
        (["--json", "quantize", "--location", "0", "--scale", "0.2", "--m", "3"], "--json"),
        (["--var-cap", "5", "check", "INSTANCE"], "--var-cap"),
        (["--var-cap", "5", "envelope", "points.csv"], "--var-cap"),
        (["--tol", "1e-3", "solve", "INSTANCE", "--method", "dual"], "--tol"),
        (["--tol", "1e-3", "solve", "INSTANCE", "--method", "primal"], "--tol"),
        (["--max-iters", "5", "solve", "INSTANCE", "--method", "primal"], "--max-iters"),
    ])
    def test_flag_the_command_does_not_read_exit_1(self, tmp_path, capsys, monkeypatch,
                                                   argv, flag):
        for name in ("cmd_check", "cmd_solve", "cmd_certify", "cmd_envelope", "cmd_quantize"):
            monkeypatch.setattr(motbounds.cli, name, lambda args, name=name: pytest.fail(
                f"{name} ran before {flag} was refused"))
        new_dir = tmp_path / "newdir"
        swap = {"INSTANCE": write_instance(tmp_path, HAND_INSTANCE), "NEWDIR": str(new_dir)}
        argv = [swap.get(a, a) for a in argv]
        command = argv[2 if flag in ("--out", "--tol", "--max-iters", "--var-cap") else 1]
        if "--method" in argv:
            command += " --method " + argv[-1]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {flag}: {command} does not read this flag\n")
        assert not new_dir.exists()


class TestModuleEntryPoint:
    def test_python_m_motbounds_check(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "motbounds", "check", write_instance(tmp_path, HAND_INSTANCE)],
            env=checkout_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "ok: True" in done.stdout
