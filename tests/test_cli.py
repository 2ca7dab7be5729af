import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from hypfrac.cli import build_parser, main
from hypfrac.kernel import KERNEL_TABLE_REL
from hypfrac.quadrature import DEFAULT_QUAD


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


class TestVerifyConstant:
    def test_single_point(self, capsys):
        code, out, _ = run(
            capsys, "--command", "verify-constant",
            "--lambda-grid", "1", "--gamma-grid", "0.5",
        )
        assert code == 0
        rec = parse_csv(out)[0]
        assert float(rec["expected"]) == pytest.approx(math.sqrt(2.0))
        assert float(rec["rel_error"]) <= 1e-6

    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, "--command", "verify-constant")
        assert code == 0
        assert all(r["pass"] == "True" for r in parse_csv(out))

    def test_large_lambda_passes(self, capsys):
        code, out, _ = run(capsys, "--command", "verify-constant",
                           "--lambda-grid", "0,16,32", "--gamma-grid", "0.5")
        assert code == 0
        assert all(r["pass"] == "True" for r in parse_csv(out))

    def test_malformed_grid_usage_error(self, capsys):
        code, _, err = run(
            capsys, "--command", "verify-constant", "--lambda-grid", "nope")
        assert code == 2
        assert "lambda" in err

    def test_empty_grid_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "--command", "verify-constant", "--lambda-grid", ",")
        assert code == 2

    def test_unknown_command_usage_error(self, capsys):
        assert run(capsys, "--command", "frobnicate")[0] == 2

    def test_gamma_out_of_range(self, capsys):
        code, _, _ = run(
            capsys, "--command", "verify-constant", "--gamma-grid", "1.5")
        assert code == 2

    def test_numeric_failure_exit_code(self, capsys):
        # a 10-panel budget cannot resolve the invariance integral at
        # gamma = 0.95 to 1e-14 (its tail needs 20)
        code, _, err = run(
            capsys, "--command", "verify-constant",
            "--lambda-grid", "1", "--gamma-grid", "0.95",
            "--max-subdiv", "10", "--rel-tol", "1e-14", "--abs-tol", "1e-16",
        )
        assert code == 3
        assert "numeric" in err

    def test_numeric_failure_at_large_lambda(self, capsys):
        # a 10-panel budget cannot resolve the invariance integral at
        # lambda = 100, whose tail oscillates hundreds of times, to 1e-14
        code, _, err = run(
            capsys, "--command", "verify-constant",
            "--lambda-grid", "100", "--gamma-grid", "0.95",
            "--max-subdiv", "10", "--rel-tol", "1e-14", "--abs-tol", "1e-16",
        )
        assert code == 3
        assert "numeric" in err


class TestUsageErrors:
    @pytest.mark.parametrize("flag, value", [("--rel-tol", "-1"), ("--max-subdiv", "3")])
    def test_bad_tolerance_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "--command", "kernel-table", flag, value)
        assert code == 2
        assert out == ""
        assert "usage error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--command", "gamma-limit", "--profile", "tabulated"),
        ("--command", "barrier-check", "--n-samples", "-5"),
        ("--command", "barrier-check", "--n-samples", "0"),
        ("--command", "gyro-check", "--n-cases", "0"),
        ("--command", "gyro-check", "--n-cases", "-1"),
        ("--command", "verify-constant", "--t", "1e-300"),
        ("--command", "verify-constant", "--t", "nan"),
        ("--command", "gamma-limit", "--R0", "nan"),
        ("--command", "gamma-limit", "--R0", "1e300"),
        ("--command", "barrier-check", "--alpha-start", "nan"),
        ("--command", "barrier-check", "--alpha-start", "inf"),
        ("--command", "barrier-check", "--alpha-cap", "nan"),
        ("--command", "barrier-check", "--lambda-hi", "inf"),
        ("--command", "barrier-check", "--R", "inf"),
        ("--command", "gyro-check", "--seed", "-1"),
        ("--command", "gyro-check", "--n-cases", "100000000000000000000"),
        ("--command", "barrier-check", "--n-samples", "100000000000000000000"),
        ("--command", "verify-constant", "--max-subdiv", "1000000"),
    ])
    def test_no_traceback_and_no_vacuous_pass(self, capsys, argv):
        # a family that needs parameters, an empty, negative or huge count, a
        # negative seed, and a non-finite or out-of-range float once gave a
        # raw traceback, a ZeroDivisionError or OverflowError, ran without
        # end, or exited 1 with no records
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error:")

    def test_tolerance_defaults_are_the_quadrature_defaults(self):
        args = build_parser().parse_args(["--command", "kernel-table"])
        assert (args.rel_tol, args.abs_tol, args.max_subdiv) == (
            DEFAULT_QUAD.rel_tol, DEFAULT_QUAD.abs_tol, DEFAULT_QUAD.max_subdiv)

    def test_non_finite_grid_entry(self, capsys):
        code, out, err = run(
            capsys, "--command", "scale-sweep", "--r-grid", "nan", "--gamma-grid", ".5")
        assert code == 2
        assert out == ""
        assert "usage error" in err and "Traceback" not in err


class TestKernelTable:
    def test_monotone_column(self, capsys):
        code, out, _ = run(
            capsys, "--command", "kernel-table",
            "--rho-grid", "0.2,0.5,1,2,5", "--gamma", "0.4",
        )
        assert code == 0
        recs = parse_csv(out)
        assert all(r["decreasing"] == "True" for r in recs)
        vals = [float(r["kernel"]) for r in recs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestGyroCheck:
    def test_all_laws_pass(self, capsys):
        code, out, _ = run(
            capsys, "--command", "gyro-check", "--n-cases", "150", "--seed", "42")
        assert code == 0
        recs = parse_csv(out)
        assert {r["law"] for r in recs} >= {
            "left_identity", "left_inverse", "gyroassociativity", "left_loop",
            "gyrocommutativity", "cancellation", "cosub_closed_form", "transport",
        }
        assert all(r["pass"] == "True" for r in recs)

    def test_deterministic_output(self, capsys):
        args = ("--command", "gyro-check", "--n-cases", "60", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestScaleSweep:
    def test_columns_and_oracle(self, capsys):
        code, out, _ = run(
            capsys, "--command", "scale-sweep",
            "--r-grid", "0.5,1,2", "--gamma-grid", "0.5",
        )
        assert code == 0
        recs = parse_csv(out)
        assert set(recs[0]) >= {
            "R", "gamma", "i0_closed", "i0_quad", "iinf_closed", "iinf_quad",
            "r0", "oracle_match", "monotonicity",
        }
        for r in recs:
            assert abs(float(r["i0_closed"]) / float(r["i0_quad"]) - 1) <= 1e-8

    def test_near_limit_gamma_shows_six(self, capsys):
        code, out, _ = run(
            capsys, "--command", "scale-sweep",
            "--r-grid", "1,2", "--gamma-grid", "0.999",
        )
        assert code == 0
        recs = parse_csv(out)
        assert float(recs[0]["i0_closed"]) == pytest.approx(6.0, abs=0.05)

    def test_empty_grid_usage_error(self, capsys):
        assert run(capsys, "--command", "scale-sweep", "--r-grid", "")[0] == 2


class TestBarrierCheck:
    def test_narrow_sweep(self, capsys):
        code, out, _ = run(
            capsys, "--command", "barrier-check",
            "--alpha-start", "8", "--alpha-cap", "8",
            "--n-samples", "3", "--gamma", "0.99",
        )
        assert code == 0
        recs = parse_csv(out)
        assert len(recs) == 3
        assert all(float(r["margin"]) <= 0.0 for r in recs)


class TestBarrierOverflow:
    def test_overflow_is_a_numeric_failure(self, capsys):
        # the barrier floor (kappa delta / 20)^(-2 alpha) overflows a float
        code, out, err = run(
            capsys, "--command", "barrier-check",
            "--alpha-start", "128", "--alpha-cap", "128", "--n-samples", "2",
        )
        assert code == 3
        assert out == ""
        assert "numeric failure" in err and "overflows a float" in err
        assert "Traceback" not in err


class TestGammaLimit:
    def test_error_column_decreasing(self, capsys):
        code, out, _ = run(
            capsys, "--command", "gamma-limit",
            "--gamma-grid", "0.85,0.92,0.97", "--R0", "0",
        )
        assert code == 0
        errs = [float(r["abs_error"]) for r in parse_csv(out)]
        assert errs == sorted(errs, reverse=True)
        recs = parse_csv(out)
        assert float(recs[0]["reference"]) == pytest.approx(-6.0, rel=1e-6)

    def test_tolerance_flags_leave_operator_unchanged(self, capsys):
        # the jump integral runs on the operator's fixed tolerances, so the
        # quadrature flags must not move a single digit of it
        args = ("--command", "gamma-limit", "--R0", "0.3", "--gamma-grid", "0.9")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args, "--rel-tol", "1e-6",
                             "--abs-tol", "1e-9", "--max-subdiv", "50")
        assert code1 == code2
        assert out1 == out2


class TestJsonFormat:
    def test_metadata_and_records(self, capsys):
        code, out, _ = run(
            capsys, "--command", "verify-constant",
            "--lambda-grid", "1", "--gamma-grid", "0.5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify-constant"
        assert doc["pass"] is True
        assert "wall_time_s" in doc
        assert doc["tolerances"]["rel_tol"] == 1e-10
        assert len(doc["records"]) == 1

    def test_operator_commands_report_operator_tolerances(self, capsys):
        # the flags do not reach the operator, so the JSON must not echo them
        code, out, _ = run(
            capsys, "--command", "gamma-limit", "--R0", "0.3", "--gamma-grid", "0.9",
            "--rel-tol", "1e-6", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tolerances"]["radial_rel"] == 1e-8
        assert doc["tolerances"]["table_rel"] == 1e-13
        assert "rel_tol" not in doc["tolerances"]
        assert "quadrature" not in doc

    def test_kernel_table_bound_in_json_only(self, capsys):
        # the table's verified bound is reported with the tolerances; the CSV
        # holds the records alone, byte for byte as the JSON records format
        args = ("--command", "barrier-check", "--alpha-start", "8", "--alpha-cap", "8",
                "--n-samples", "2", "--gamma", "0.99")
        code, text, _ = run(capsys, *args)
        code_json, out, _ = run(capsys, *args, "--format", "json")
        assert code == code_json == 0
        doc = json.loads(out)
        assert doc["tolerances"]["kernel_table_rel"] == KERNEL_TABLE_REL
        cols = ["alpha", "R0", "margin", "nonpositive"]
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(cols)
        for rec in doc["records"]:
            writer.writerow([f"{rec[c]:.17g}" if isinstance(rec[c], float) else str(rec[c])
                             for c in cols])
        assert text == want.getvalue()

    def test_no_tolerances_without_quadrature(self, capsys):
        code, out, _ = run(
            capsys, "--command", "kernel-table", "--rho-grid", "0.5,1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert "tolerances" not in doc and "quadrature" not in doc

    def test_deterministic_modulo_wall_time(self, capsys):
        args = ("--command", "gyro-check", "--n-cases", "40", "--seed", "3",
                "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("wall_time_s"), d2.pop("wall_time_s")
        assert d1 == d2


class TestFileOutput:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code = main([
            "--command", "kernel-table", "--rho-grid", "0.5,1",
            "--out", str(target),
        ])
        assert code == 0
        assert target.exists()
        assert "rho" in target.read_text().splitlines()[0]


# every float flag of each command, and small settings for the rest
_FUZZ_BASE = {
    "verify-constant": ("--lambda-grid", "1", "--gamma-grid", "0.5"),
    "scale-sweep": ("--r-grid", "1", "--gamma-grid", "0.5"),
    "kernel-table": ("--rho-grid", "0.5,1"),
    "gyro-check": ("--n-cases", "5"),
    "barrier-check": ("--n-samples", "1", "--alpha-cap", "8"),
    "gamma-limit": ("--gamma-grid", "0.5"),
}
_FUZZ_FLAGS = {
    "verify-constant": ("--rel-tol", "--abs-tol", "--tol", "--t", "--lambda-grid",
                        "--gamma-grid"),
    "scale-sweep": ("--rel-tol", "--abs-tol", "--rho0", "--r-grid", "--gamma-grid"),
    "kernel-table": ("--gamma", "--tau", "--rho-grid"),
    "gyro-check": ("--rel-tol", "--abs-tol"),
    "barrier-check": ("--delta", "--R", "--kappa", "--gamma", "--lambda-lo", "--lambda-hi",
                      "--alpha-start", "--alpha-cap"),
    "gamma-limit": ("--R0", "--gamma-grid"),
}


def _run_quietly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), value=st.floats())
def test_cli_fuzz_any_float_flag(data, value):
    # one float flag of one command set to any float: a documented exit code,
    # never a traceback (RuntimeWarning is an error in this suite)
    command = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flag = data.draw(st.sampled_from(_FUZZ_FLAGS[command]))
    code, err = _run_quietly(["--command", command, *_FUZZ_BASE[command], f"{flag}={value!r}"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# each integer flag: a command that reads it, its least valid value, its
# largest small value drawn, and its cap (the seed has none: values beyond
# 2^64 are drawn instead, which are valid and cheap).  Valid counts far below
# a cap are slow, not faulty, and are not drawn
_INT_FLAGS = {
    "--n-cases": ("gyro-check", 1, 5, 10 ** 6),
    "--n-samples": ("barrier-check", 1, 2, 10 ** 4),
    "--max-subdiv": ("verify-constant", 10, 60, 10 ** 5),
    "--seed": ("gyro-check", 0, 1000, None),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_integer_flags(data):
    # below the range, small and valid, or above the cap: a usage error for
    # every value out of range, one line and no traceback
    flag = data.draw(st.sampled_from(sorted(_INT_FLAGS)))
    command, lo, small, cap = _INT_FLAGS[flag]
    value = data.draw(st.one_of(st.integers(max_value=lo - 1), st.integers(lo, small),
                                st.integers(min_value=2 ** 64 if cap is None else cap + 1)))
    code, err = _run_quietly(["--command", command, *_FUZZ_BASE[command], f"{flag}={value}"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if value < lo or (cap is not None and value > cap):
        assert code == 2 and err.startswith("usage error:") and err.count("\n") == 1


_TEXT_FLAGS = {
    "verify-constant": ("--lambda-grid", "--gamma-grid"),
    "scale-sweep": ("--r-grid", "--gamma-grid"),
    "kernel-table": ("--rho-grid",),
    "gamma-limit": ("--profile", "--gamma-grid"),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), value=st.text())
def test_cli_fuzz_string_flags(data, value):
    command = data.draw(st.sampled_from(sorted(_TEXT_FLAGS)))
    flag = data.draw(st.sampled_from(_TEXT_FLAGS[command]))
    code, err = _run_quietly(["--command", command, *_FUZZ_BASE[command], f"{flag}={value}"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
