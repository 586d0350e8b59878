"""Command-line surface tests: flags, exit codes, output formats, stability."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vgpricer import cli, fourier, model, montecarlo, series, tables
from vgpricer.cli import main
from vgpricer.model import MarketInputs, VgParams
from vgpricer.reference import printed_tolerance

_BASE_FLAGS = [
    "--spot", "4200", "--strike", "4000", "--rate", "0.01", "--tau", "2",
    "--sigma", "0.2", "--nu", "0.85",
]


# S = 2000, K = 4000, one week: the u_max = 1e4 truncation drives the Lewis
# cash digital below zero (series 1.858e-5, Lewis -1.4523e-5)
_NEGATIVE_DIGITAL_FLAGS = [
    "--spot", "2000", "--strike", "4000", "--rate", "0.01", "--tau", repr(1 / 52),
    "--sigma", "0.2", "--nu", "0.85",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestPriceCommand:
    def test_reference_digital_price(self, capsys):
        code, out, err = run_cli(
            capsys, "price", "--payoff", "cash-or-nothing", "--method", "series",
            *_BASE_FLAGS, "--theta", "0", "--max-order", "15",
        )
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["value"] == pytest.approx(0.5373, abs=5e-4)
        assert record["method"] == "series"
        assert record["branch"] == "itm"
        assert set(record) >= {
            "value", "method", "payoff", "branch", "terms_evaluated",
            "truncation_estimate", "params", "market", "runtime_ms",
        }

    def test_all_methods_emit_one_row_each(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--payoff", "european", "--method", "all",
            *_BASE_FLAGS, "--paths", "5000",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["method"] for r in records] == [
            "series", "fourier", "quadrature", "monte_carlo",
        ]
        values = [r["value"] for r in records]
        assert max(values) - min(values) < 4.0 * records[-1]["std_error"] + 0.05
        assert "ci" in records[-1]

    def test_invalid_parameters_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "price", "--payoff", "european", "--method", "series",
            "--spot", "4200", "--strike", "4000", "--rate", "0.01", "--tau", "2",
            "--sigma", "0.2", "--nu", "0.85", "--theta", "1.2",
        )
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert "martingale adjustment undefined" in payload["error"]

    def test_alpha_left_degenerate_by_the_nudges_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "price", "--payoff", "log-call", "--method", "series",
            "--spot", "90", "--strike", "100", "--rate", "0.01", "--tau", "1e-17",
            "--sigma", "0.2", "--nu", "1", "--alpha-policy", "nudge",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["type"] == "DegenerateAlphaError"

    def test_non_convergence_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "price", "--payoff", "asset-or-nothing", "--method", "series",
            "--spot", "3000", "--strike", "4000", "--rate", "0.01", "--tau", "2",
            "--sigma", "0.2", "--nu", "0.85", "--max-order", "3",
        )
        assert code == 3
        assert json.loads(err)["type"] == "NonConvergenceError"

    @pytest.mark.parametrize("argv, expected", [
        # alpha = 2^27 - 1 + 2^-26 passes the guard, but a coefficient hits a pole
        ((
            "--payoff", "log-call", "--spot", "100", "--strike", "110",
            "--tau", "0.12499999953433873", "--sigma", "0.2", "--nu", "9.313225746154785e-10",
        ), (2, "DegenerateAlphaError")),
        # the terms overflow at the default order
        ((
            "--payoff", "power-asset-or-nothing", "--spot", "100",
            "--strike", "106.31288319942654", "--tau", "0.4741366027393947",
            "--sigma", "0.044122071583074136", "--nu", "0.0014285313477900407",
            "--rate", "0.02", "--power", "1.3",
        ), (3, "NonConvergenceError")),
        # the two parts add inf and -inf
        ((
            "--payoff", "cash-or-nothing", "--theta", "-0.35395137211584793", "--spot", "100",
            "--strike", "87.00860751462221", "--tau", "8.991860496323925",
            "--sigma", "0.0427377886882928", "--nu", "1.1967877073654591", "--rate", "0.02",
            "--max-order", "200",
        ), (3, "NonConvergenceError")),
    ], ids=["log-call-pole", "power-digital-overflow", "drifted-digital-inf-minus-inf"])
    def test_a_series_price_that_is_not_finite_is_an_error(self, capsys, argv, expected):
        """A series sum that is not finite exits with a typed error, not a
        NaN price with exit 0."""
        code, out, err = run_cli(capsys, "price", *argv)
        (line,) = err.splitlines()
        assert (code, json.loads(line)["type"]) == expected and out == ""

    @pytest.mark.parametrize("argv", [
        # sigma^2 underflows to 0, and the drift ratio theta / sigma^2 divided by it
        ("--method", "all", "--sigma", "1e-170"),
        # mu_- rounds to 0, which puts the contour's upper branch point at infinity
        ("--method", "fourier", "--theta", "0.1", "--sigma", "1e-10"),
    ], ids=["sigma-squared-underflows", "mu-minus-rounds-to-zero"])
    def test_a_vanishing_scale_is_a_domain_error(self, capsys, argv):
        """These ended in a ZeroDivisionError traceback; they exit 2 with one
        InvalidParameters line."""
        code, out, err = run_cli(
            capsys, "price", "--payoff", "european", "--spot", "100", "--strike", "100",
            "--tau", "1", "--nu", "0.3", *argv,
        )
        (line,) = err.splitlines()
        assert (code, json.loads(line)["type"], out) == (2, "InvalidParameters", "")

    def test_an_underflowing_martingale_adjustment_is_a_domain_error(self, capsys):
        """At theta = -1e6 every Gauss-Laguerre term of the martingale
        adjustment underflows to 0; this ended in a math domain error
        traceback and exits 2 with one InvalidParameters line naming it."""
        code, out, err = run_cli(
            capsys, "price", "--payoff", "european", "--method", "quadrature", "--spot", "100",
            "--strike", "100", "--tau", "1", "--sigma", "0.2", "--nu", "0.3", "--theta=-1e6",
        )
        (line,) = err.splitlines()
        record = json.loads(line)
        assert (code, record["type"], out) == (2, "InvalidParameters", "")
        assert "underflows" in record["error"]

    @pytest.mark.parametrize("command", [("price", "--method", "fourier"), ("bench",)])
    def test_a_fourier_price_that_is_not_finite_is_an_error(self, capsys, command):
        """At sigma 4e-154 the contour's call integrand overflows to NaN, which
        printed "value": NaN with exit 0 and two raw RuntimeWarnings; it exits
        3 with one NonConvergenceError line, while sigma 1e-150 still prices."""
        contract = ("--payoff", "european", "--spot", "100", "--strike", "100", "--tau", "1",
                    "--nu", "0.3")
        code, out, err = run_cli(capsys, *command, *contract, "--sigma", "4e-154")
        (line,) = err.splitlines()
        assert (code, json.loads(line)["type"], out) == (3, "NonConvergenceError", "")
        code, out, err = run_cli(capsys, *command, *contract, "--sigma", "1e-150")
        assert (code, err) == (0, "") and "NaN" not in out

    def test_out_of_bounds_fourier_price_is_flagged_not_raised(self, capsys):
        """The u_max truncation drives this Lewis cash digital below zero; the
        price is still printed, with exit code 0, so `--method all` keeps the
        other engines' prices."""
        code, out, _ = run_cli(
            capsys, "price", "--payoff", "cash-or-nothing", "--method", "all",
            "--spot", "2000", "--strike", "4000", "--rate", "0.01", "--tau", repr(1 / 52),
            "--sigma", "0.2", "--nu", "0.85", "--max-order", "60", "--u-max", "10000",
        )
        assert code == 0
        records = {r["method"]: r for r in map(json.loads, out.splitlines())}
        assert records["fourier"]["value"] == pytest.approx(-1.4523e-5, abs=1e-9)
        assert records["fourier"]["truncation_estimate"] > 3.31e-5
        assert records["series"]["value"] > 0.0

    def test_flagged_fourier_price_carries_its_warning(self, capsys):
        """A Fourier price flagged in its diagnostics says so in its record;
        a record without a warning has no such key."""
        code, out, _ = run_cli(
            capsys, "price", "--payoff", "cash-or-nothing", "--method", "all",
            *_NEGATIVE_DIGITAL_FLAGS, "--max-order", "60", "--u-max", "10000",
        )
        assert code == 0
        records = {r["method"]: r for r in map(json.loads, out.splitlines())}
        assert "no-arbitrage" in records["fourier"]["warning"]
        assert "warning" not in records["series"]
        assert list(records["fourier"])[6:8] == ["warning", "params"]

    def test_default_fourier_is_untruncated(self, capsys):
        """At default settings the same contract prints the series' 1.858e-5,
        unflagged, from under 500 evaluations."""
        code, out, _ = run_cli(
            capsys, "price", "--payoff", "cash-or-nothing", "--method", "fourier",
            *_NEGATIVE_DIGITAL_FLAGS,
        )
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(1.8580577e-5, abs=1e-12)
        assert record["terms_evaluated"] < 500
        assert "warning" not in record

    def test_u_max_infinity_parses(self, capsys):
        args = ["price", "--payoff", "european", "--method", "fourier", *_NEGATIVE_DIGITAL_FLAGS]
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "runtime_ms"}
        _, default, _ = run_cli(capsys, *args)
        code, explicit, _ = run_cli(capsys, *args, "--u-max", "inf")
        assert code == 0
        assert strip(explicit) == strip(default)

    def test_fourier_gap_keeps_both_legs_flags(self, bench_params):
        truncated = fourier.FourierConfig(u_max=1e4)
        market = MarketInputs(
            spot=2000.0, strike=3900.0, trigger_strike=4000.0, rate=0.01, tau=1 / 52
        )
        result = model.gap_from_digitals(
            market,
            lambda trigger: fourier.lewis_asset_or_nothing(bench_params, trigger, truncated),
            lambda trigger: fourier.lewis_cash_or_nothing(bench_params, trigger, truncated),
        )
        assert result.diagnostics["tolerance_met"] is False
        assert "cash leg" in result.diagnostics["warning"]
        assert result.truncation_estimate > 3900.0 * 3.31e-5

    @pytest.mark.parametrize("method", ["series", "fourier", "mc", "all"])
    def test_gap_without_trigger_is_a_domain_error(self, capsys, method):
        code, out, err = run_cli(
            capsys, "price", "--payoff", "gap", "--method", method, *_BASE_FLAGS,
            "--paths", "1000",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["type"] == "InvalidParameters"

    @pytest.mark.parametrize(
        "payoff, methods",
        [
            ("european", ["series", "fourier", "quadrature", "monte_carlo"]),
            ("cash-or-nothing", ["series", "fourier", "monte_carlo"]),
            ("asset-or-nothing", ["series", "fourier", "monte_carlo"]),
            ("gap", ["series", "fourier", "monte_carlo"]),
            ("power-asset-or-nothing", ["series", "monte_carlo"]),
            ("log-call", ["series", "monte_carlo"]),
        ],
    )
    def test_all_lists_every_engine_for_the_payoff(self, capsys, payoff, methods):
        code, out, _ = run_cli(
            capsys, "price", "--payoff", payoff, "--method", "all",
            "--spot", "3800", "--strike", "4000", "--trigger-strike", "4100",
            "--rate", "0.01", "--tau", "2", "--sigma", "0.2", "--nu", "0.85",
            "--paths", "1000",
        )
        assert code == 0
        assert [json.loads(line)["method"] for line in out.splitlines()] == methods

    @pytest.mark.parametrize(
        "payoff, extra, spot, branch, engines",
        [
            pytest.param("european", (), 3000.0, "otm", 4, id="3000.0-otm"),
            pytest.param("european", (), None, "atm", 4, id="None-atm"),
            pytest.param("european", (), 5000.0, "itm", 4, id="5000.0-itm"),
            # a gap is labelled at its trigger K2 = 4100, not at K1 = 4000
            pytest.param(
                "gap", ("--trigger-strike", "4100"), 4150.0, "otm", 3, id="gap-4150.0-otm"
            ),
            # a power digital is labelled by its power moneyness
            pytest.param(
                "power-asset-or-nothing", ("--power", "1.2"), 3000.0, "itm", 2,
                id="power-3000.0-itm",
            ),
        ],
    )
    def test_engines_report_the_same_branch(
        self, capsys, bench_params, payoff, extra, spot, branch, engines
    ):
        if spot is None:  # S = K e^{-r tau} e^{-omega tau}: zero risk-neutral moneyness
            omega = model.martingale_adjustment(bench_params)
            spot = 4000.0 * math.exp(-0.01 * 2.0 - omega * 2.0)
        code, out, _ = run_cli(
            capsys, "price", "--payoff", payoff, "--method", "all", *extra,
            "--spot", repr(spot), "--strike", "4000", "--rate", "0.01", "--tau", "2",
            "--sigma", "0.2", "--nu", "0.85", "--paths", "1000",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == engines
        assert [r["branch"] for r in records] == [branch] * engines

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "price", "--payoff", "straddle")
        assert code == 1
        code, _, err = run_cli(capsys, "price", "--payoff", "european")
        assert code == 1
        assert json.loads(err)["type"] == "usage"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--payoff", "european", "--method", "series",
            *_BASE_FLAGS, "--format", "csv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(588.447, abs=1e-2)


class TestTableCommand:
    def test_digital_table_structure(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--id", "1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 10
        assert list(rows[0].keys()) == [
            "row_label", "max=3", "max=5", "max=10", "max=15", "lewis",
        ]
        by_label = {r["row_label"]: r for r in rows}
        assert float(by_label["tau=2,S=4200"]["max=15"]) == pytest.approx(0.5373, abs=5e-4)

    def test_unknown_table_id_rejected(self):
        with pytest.raises(ValueError, match="unknown table id"):
            tables.build_table("99")

    @pytest.mark.parametrize("printed, tolerance", [("0.5373", 5e-5), ("1.5e-3", 5e-5)])
    def test_printed_tolerance_is_half_a_last_place(self, printed, tolerance):
        assert printed_tolerance(printed) == pytest.approx(tolerance, rel=1e-12)

    def test_quadrature_rule_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--id", "gl")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 21  # 1 + 2 + ... + 6 nodes
        assert float(rows[0]["node"]) == pytest.approx(1.0, abs=1e-12)

    def test_compare_mode_deviations(self, capsys):
        """Non-suspect cells reproduce within the documented bands."""
        for table_id in ("1", "2", "4", "5", "6"):
            code, out, _ = run_cli(capsys, "table", "--id", table_id, "--compare")
            assert code == 0
            for row in parse_csv(out):
                if row["suspect"] == "true":
                    continue
                bound = 5e-3 if abs(float(row["reference"])) <= 1.0 else 0.05
                assert float(row["abs_dev"]) <= bound, row

    def test_monte_carlo_table_flags_statistical_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--id", "7", "--seed", "5")
        assert code == 0
        assert len(parse_csv(out)) == 6
        code, out, _ = run_cli(capsys, "table", "--id", "7", "--seed", "5", "--compare")
        rows = parse_csv(out)
        assert all(
            (row["statistical"] == "true") == row["col_label"].startswith("mc_")
            for row in rows
        )
        # point deviations on statistical cells are reported, not asserted
        series_rows = [r for r in rows if not r["col_label"].startswith("mc_")]
        assert all(float(r["abs_dev"]) < 5e-3 or float(r["reference"]) > 1.0 for r in series_rows)


class TestDensityCommand:
    def test_columns_and_symmetry(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--sigma", "0.2", "--nu", "0.85", "--theta", "0",
            "--t", "2", "--x-min", "-2", "--x-max", "2", "--points", "481",
            "--gl-order", "30",
        )
        assert code == 0
        rows = parse_csv(out)
        assert list(rows[0].keys()) == ["x", "closed_form", "mixture", "gauss_laguerre_30"]
        xs = np.array([float(r["x"]) for r in rows])
        closed = np.array([float(r["closed_form"]) for r in rows])
        mixture = np.array([float(r["mixture"]) for r in rows])
        laguerre = np.array([float(r["gauss_laguerre_30"]) for r in rows])
        # exact grid symmetry under x -> -x
        assert np.array_equal(xs, -xs[::-1])
        assert np.max(np.abs(closed - closed[::-1])) < 1e-12
        assert np.max(np.abs(closed - mixture)) < 1e-8
        assert np.max(np.abs(closed - laguerre)) < 1e-3
        integral = np.trapezoid(closed, xs)
        assert integral == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("points", [2, 3, 4, 5])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_grid_has_the_requested_points(self, capsys, points, fmt):
        """Even and odd counts over a symmetric range, and a range that only
        looks symmetric because both ends are tiny, give --points rows."""
        for lo, hi in (("-1", "1"), ("0", "1e-300")):
            code, out, _ = run_cli(
                capsys, "density", "--sigma", "0.2", "--nu", "0.85",
                f"--x-min={lo}", f"--x-max={hi}", "--points", str(points), "--format", fmt,
            )
            assert code == 0
            if fmt == "csv":
                xs = [float(r["x"]) for r in parse_csv(out)]
            else:
                xs = [json.loads(line)["x"] for line in out.splitlines()]
            assert xs == pytest.approx(np.linspace(float(lo), float(hi), points).tolist())
            assert xs[0] == float(lo) and xs[-1] == float(hi)


    @pytest.mark.parametrize("points", [2**20 + 1, 10**13])
    def test_points_above_the_ceiling_rejected(self, capsys, points, monkeypatch):
        """A count above 2^20 is a JSON usage error with exit code 1, raised
        before the grid is allocated."""

        def no_allocation(*args, **kwargs):
            raise AssertionError("density allocated its grid before checking --points")

        monkeypatch.setattr(np, "linspace", no_allocation)
        code, out, err = run_cli(
            capsys, "density", "--sigma", "0.2", "--nu", "0.85", "--points", str(points),
        )
        assert code == 1 and not out
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": f"--points must be at most 2^20 = 1048576, got {points}", "type": "usage"
        }

    def test_overflowing_density_is_a_typed_error(self, capsys):
        """At t/nu far below 1/2 the density at x = 1e-320 exceeds double
        precision; that is a JSON error with exit code 2, not a traceback."""
        code, _, err = run_cli(
            capsys, "density", "--sigma", "0.2", "--nu", "0.85", "--t", "1e-6",
            "--x-min=1e-320", "--x-max=2e-320", "--points", "2",
        )
        assert code == 2
        assert json.loads(err)["type"] == "GammaOverflowError"


_GOLDEN = Path(__file__).resolve().parent / "golden"


class TestTableCommandGolden:
    @pytest.mark.parametrize("table_id", tables.TABLE_IDS)
    def test_table_output_is_byte_identical(self, capsys, table_id):
        """`table --id N` prints exactly the committed tests/golden/table_N.csv."""
        code, out, _ = run_cli(capsys, "table", "--id", table_id)
        assert code == 0
        assert out.encode("utf-8") == (_GOLDEN / f"table_{table_id}.csv").read_bytes()


class TestConvergeCommand:
    def test_series_race_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--spot", "3000", "--strike", "4000", "--rate", "0.01",
            "--tau", str(1 / 12), "--sigma", "0.2", "--nu", "0.85",
            "--max-orders", "5,10,20", "--u-max-list", "1e2,1e3,1e4",
        )
        assert code == 0
        rows = parse_csv(out)
        series_rows = [r for r in rows if r["kind"] == "series_max"]
        errors = [float(r["abs_error_vs_reference"]) for r in series_rows]
        assert errors[0] > errors[1] >= errors[2]
        final = [r for r in series_rows if r["parameter"] == "20"][0]
        assert float(final["value"]) == pytest.approx(1.802, abs=5e-4)

    def test_fourier_reference_long_maturity(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", *_BASE_FLAGS, "--max-orders", "10,15,20",
            "--u-max-list", "1e4", "--reference", "fourier",
        )
        assert code == 0
        rows = parse_csv(out)
        assert all(float(r["abs_error_vs_reference"]) < 5e-3 for r in rows)

    @pytest.mark.parametrize(
        "key, text",
        [
            ("max_orders", "3,x"),
            ("max_orders", "nan"),
            ("max_orders", ","),
            ("u_max_list", "1e3,y"),
        ],
        ids=["order-word", "order-nan", "order-empty", "u-max-word"],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_list_is_a_usage_error(self, capsys, tmp_path, key, text, source):
        """A comma list that does not parse, or names no series order, exits 1
        with one JSON usage line naming the flag, from a flag or a config."""
        if source == "flag":
            extra = ["--" + key.replace("_", "-"), text]
        else:
            config = tmp_path / "lists.json"
            config.write_text(json.dumps({key: text}))
            extra = ["--config", str(config)]
        code, out, err = run_cli(capsys, "converge", *_BASE_FLAGS, *extra)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line)["type"] == "usage"
        assert "--" + key.replace("_", "-") in json.loads(line)["error"]

    def test_series_flags_reach_every_race_entry(self, capsys):
        """--alpha-policy and --tail-tol apply to the race and its reference:
        alpha = 0.5 prices when nudged, and a loose tail_tol stops every
        series early."""
        code, out, _ = run_cli(
            capsys, "converge", "--spot", "100", "--strike", "110", "--tau", "0.85",
            "--sigma", "0.2", "--nu", "0.85", "--alpha-policy", "nudge",
            "--max-orders", "5,10", "--u-max-list", "",
        )
        assert code == 0 and [r["parameter"] for r in parse_csv(out)] == ["5", "10"]
        flags = (
            "converge", "--spot", "3000", "--strike", "4000", "--tau", "0.5", "--sigma", "0.2",
            "--nu", "0.85", "--rate", "0.01", "--max-orders", "60", "--u-max-list", "",
            "--reference", "fourier",
        )
        _, tight, _ = run_cli(capsys, *flags)
        _, loose, _ = run_cli(capsys, *flags, "--tail-tol", "1e-2")
        assert parse_csv(tight)[0]["value"] == "15.0867419714"
        assert parse_csv(loose)[0]["value"] == "15.0866102346"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_fourier_race_is_a_usage_error(self, capsys, fmt):
        """--reference fourier with no order and no truncation point races
        nothing: it exits 1 with one JSON usage line, in either format."""
        code, out, err = run_cli(
            capsys, "converge", "--reference", "fourier", "--max-orders", "",
            "--u-max-list", "", "--format", fmt, "--sigma", "0.2", "--nu", "0.85",
            "--spot", "3000", "--strike", "4000", "--tau", "2",
        )
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "converge needs an order in --max-orders or a point in --u-max-list",
            "type": "usage",
        }


class TestBenchCommand:
    def test_all_methods_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--payoff", "european", *_BASE_FLAGS, "--paths", "5000",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [r["method"] for r in rows] == [
            "series", "fourier", "quadrature", "monte_carlo",
        ]
        assert float(rows[1]["abs_dev_vs_series"]) < 5e-3


# a call that each subcommand runs, the flags it takes and the flags it does
# not; --stream and --panels are taken by none
_CALLS = {
    "price": ["price", "--payoff", "european", *_BASE_FLAGS],
    "table": ["table", "--id", "6"],
    "density": ["density", "--sigma", "0.2", "--nu", "0.85", "--points", "3"],
    "converge": ["converge", *_BASE_FLAGS, "--max-orders", "5", "--u-max-list", ""],
    "bench": ["bench", "--payoff", "european", *_BASE_FLAGS],
}
_MODEL_FLAGS = "--sigma --nu --theta"
_MARKET_FLAGS = "--spot --strike --trigger-strike --rate --dividend-yield --tau --power"
_SERIES_FOURIER_FLAGS = "--tail-tol --alpha-policy --u-max --damping-a --abs-tol"
_ENGINE_FLAGS = f"--max-order {_SERIES_FOURIER_FLAGS} --gl-order --paths --seed --antithetic"
_OUTPUT_FLAGS = "--format --output --config"
_TAKES = {
    "price": f"--payoff --method {_MODEL_FLAGS} {_MARKET_FLAGS} {_ENGINE_FLAGS} {_OUTPUT_FLAGS}",
    "table": f"--id --compare --seed {_OUTPUT_FLAGS}",
    "density": f"--t --x-min --x-max --points {_MODEL_FLAGS} --gl-order {_OUTPUT_FLAGS}",
    "converge": (
        f"--max-orders --u-max-list --reference {_MODEL_FLAGS} {_MARKET_FLAGS}"
        f" {_SERIES_FOURIER_FLAGS} {_OUTPUT_FLAGS}"
    ),
    "bench": f"--payoff {_MODEL_FLAGS} {_MARKET_FLAGS} {_ENGINE_FLAGS} {_OUTPUT_FLAGS}",
}
_DROPPED = [
    (command, flag)
    for command, takes in _TAKES.items()
    for flag in f"{_ENGINE_FLAGS} --stream --panels".split()
    if flag not in takes.split()
]


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize(
        "command, count",
        [("price", 25), ("table", 6), ("density", 11), ("converge", 21), ("bench", 24)],
    )
    def test_help_lists_the_flags_the_subcommand_reads(self, capsys, command, count):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == set(_TAKES[command].split()) and len(listed) == count

    @pytest.mark.parametrize("command, flag", _DROPPED, ids=[" ".join(pair) for pair in _DROPPED])
    def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(self, capsys, command, flag):
        """A flag that would change nothing is refused: exit 1, nothing on
        stdout and one JSON usage line naming it."""
        value = {"--antithetic": [], "--stream": [], "--alpha-policy": ["nudge"]}.get(flag, ["1"])
        code, out, err = run_cli(capsys, *_CALLS[command], flag, *value)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": f"unrecognized arguments: {' '.join([flag, *value])}", "type": "usage"
        }


class TestOutputPlumbing:
    def test_byte_stable_csv(self, capsys):
        _, first, _ = run_cli(capsys, "table", "--id", "6")
        _, second, _ = run_cli(capsys, "table", "--id", "6")
        assert first == second
        _, first, _ = run_cli(capsys, "table", "--id", "7", "--seed", "3")
        _, second, _ = run_cli(capsys, "table", "--id", "7", "--seed", "3")
        assert first == second

    def test_price_stable_modulo_runtime(self, capsys):
        args = ["price", "--payoff", "european", "--method", "series", *_BASE_FLAGS]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "runtime_ms"}
        assert strip(first) == strip(second)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "table", "--id", "6", "--output", str(target))
        assert code == 0 and out == ""
        assert len(parse_csv(target.read_text())) == 3

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "spot": 4200.0, "strike": 4000.0, "rate": 0.01, "tau": 2.0,
            "sigma": 0.2, "nu": 0.85, "max_order": 15,
        }))
        code, out, _ = run_cli(
            capsys, "price", "--payoff", "cash-or-nothing", "--method", "series",
            "--config", str(config),
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5373, abs=5e-4)
        # a flag beats the config file
        code, out, _ = run_cli(
            capsys, "price", "--payoff", "cash-or-nothing", "--method", "series",
            "--config", str(config), "--spot", "3000", "--max-order", "30",
        )
        assert json.loads(out)["value"] == pytest.approx(0.1181, abs=5e-4)

    def test_reused_parser_keeps_no_state(self, capsys):
        """The parser is built once per process; a call after a run with
        other flags prints what it prints alone, and usage errors still
        exit 1."""
        cli._build_parser.cache_clear()
        args = ["price", "--payoff", "european", "--method", "mc", *_BASE_FLAGS]
        code, first, _ = run_cli(
            capsys, *args, "--antithetic", "--paths", "1000", "--seed", "5", "--format", "csv",
        )
        assert code == 0 and parse_csv(first)[0]["method"] == "monte_carlo"
        code, second, _ = run_cli(capsys, *args)
        assert code == 0
        root = Path(__file__).resolve().parents[1]
        alone = subprocess.run(
            [sys.executable, "-m", "vgpricer.cli", *args],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert alone.returncode == 0, alone.stderr
        strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "runtime_ms"}
        assert strip(second) == strip(alone.stdout)
        code, out, err = run_cli(capsys, "price", "--payoff", "straddle")
        assert code == 1 and out == ""
        assert json.loads(err)["type"] == "usage"
        assert cli._build_parser.cache_info().misses == 1

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"spoot": 1.0}))
        code, _, err = run_cli(
            capsys, "price", "--payoff", "european", "--config", str(config),
        )
        assert code == 1
        assert "spoot" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["table", "--id", "6"], "paths"),
            (["density", "--sigma", "0.2", "--nu", "0.85"], "seed"),
            (["converge", *_BASE_FLAGS], "max_order"),
        ],
        ids=["table-paths", "density-seed", "converge-max-order"],
    )
    def test_a_config_key_the_subcommand_does_not_take_is_rejected(
        self, capsys, tmp_path, argv, key
    ):
        """--config takes the keys whose flags the subcommand takes: any other
        key exits 1 with one JSON usage line naming it, and prints nothing."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: 5}))
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": f"{argv[0]} does not take config keys: ['{key}']", "type": "usage"
        }

    @pytest.mark.parametrize("key", ["config", "payoff", "command", "table_id"])
    def test_command_line_only_keys_rejected_in_config(self, capsys, tmp_path, key):
        """A config file takes the configurable keys only: not --config
        itself, nor the subcommand and the flag it requires."""
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({key: "x"}))
        code, _, err = run_cli(
            capsys, "price", "--payoff", "european", *_BASE_FLAGS, "--config", str(config),
        )
        assert code == 1
        assert key in json.loads(err)["error"]

    def test_bare_price_resolves_to_the_engine_defaults(self):
        """With no flag and no config file, every engine setting is the
        default of the engine's own config class."""
        resolved = cli._resolve(cli._build_parser().parse_args(["price", "--payoff", "european"]))
        for config in (series.SeriesControl(), fourier.FourierConfig()):
            for field in dataclasses.fields(config):
                assert resolved[field.name] == getattr(config, field.name), field.name
        mc = montecarlo.McConfig(n_paths=2)
        assert (resolved["seed"], resolved["antithetic"]) == (mc.seed, mc.antithetic)
        assert resolved["theta"] == VgParams(sigma=0.2, nu=0.85).theta
        market = MarketInputs(spot=1.0, strike=1.0, rate=0.0, tau=1.0)
        assert (resolved["dividend_yield"], resolved["power"]) == (
            market.dividend_yield, market.power
        )
        assert resolved["trigger_strike"] is market.trigger_strike is None

    def test_path_count_above_the_ceiling_is_a_typed_error(self, capsys):
        """10^13 paths would need 80 TB of samples: the count is refused with
        exit 2 and one JSON line before anything is allocated."""
        code, out, err = run_cli(
            capsys, "price", "--payoff", "european", "--method", "mc",
            "--paths", "10000000000000", *_BASE_FLAGS,
        )
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line)["type"] == "InvalidParameters"
        assert "n_paths" in json.loads(line)["error"]

    @pytest.mark.parametrize("paths", [["--paths", "1"], ["--antithetic", "--paths", "2"]])
    def test_fewer_than_two_independent_samples_is_a_typed_error(self, capsys, paths):
        """One path, or one antithetic pair, has no standard error: it exits 2
        with one JSON line, not a zero-width interval."""
        code, out, err = run_cli(
            capsys, "price", "--payoff", "european", "--method", "mc", *paths, *_BASE_FLAGS,
        )
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line)["type"] == "InvalidParameters"
        assert "independent sample" in json.loads(line)["error"]

    def test_far_truncation_prices_in_bounded_work(self, capsys):
        """u_max = 1e7 and 1e12 price with exit 0 and no more evaluations than
        at u_max = 1e4: the tail past u_max is taken on a vertical ray, whose
        cost does not grow with u_max."""
        contract = (
            "--spot", "100", "--strike", "110", "--tau", "1", "--sigma", "0.2", "--nu", "0.3",
        )
        counts = []
        for u_max in ("1e4", "1e7", "1e12"):
            code, out, err = run_cli(
                capsys, "price", "--payoff", "european", "--method", "fourier", "--u-max", u_max,
                *contract,
            )
            assert (code, err) == (0, "")
            counts.append(json.loads(out)["terms_evaluated"])
        assert max(counts[1:]) <= counts[0]

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"max_order": "30"}', "max_order"),
            ('{"power": null}', "power"),
            ('{"antithetic": "no"}', "antithetic"),
            ("[{}]", None),
            ("5", None),
            ('{"max_order": 30', None),
            (None, None),
        ],
        ids=["string-int", "null-power", "string-switch", "list", "number", "malformed", "missing"],
    )
    def test_bad_config_is_a_usage_error(self, capsys, tmp_path, text, key):
        """A config file must hold a JSON object whose values have their
        flags' types; anything else, or a file that cannot be read, exits 1
        with one JSON usage line naming the key, and prices nothing."""
        config = tmp_path / "bad.json"
        if text is not None:
            config.write_text(text)
        code, out, err = run_cli(
            capsys, "price", "--payoff", "european", "--method", "mc", "--paths", "1000",
            *_BASE_FLAGS, "--config", str(config),
        )
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line)["type"] == "usage"
        assert (key or str(config)) in json.loads(line)["error"]


# a config value of any JSON type, its numbers small enough to price quickly
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3.0, 3.0) | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=4,
)
# well-typed numbers per key: the model and market keys mostly in their valid
# domain, so that examples price; the engine keys reaching past it at one end
_CONFIG_RANGES = {
    "sigma": (0.05, 1.0), "nu": (0.05, 1.0), "theta": (-0.3, 0.3), "spot": (50.0, 150.0),
    "strike": (50.0, 150.0), "trigger_strike": (50.0, 150.0), "rate": (0.0, 0.1),
    "dividend_yield": (0.0, 0.05), "tau": (0.02, 3.0), "power": (1.0, 2.0),
    "paths": (-1, 10_000), "max_order": (-1, 60), "gl_order": (-1, 40), "seed": (-1, 2**64),
    "u_max": (-1.0, 1e4), "abs_tol": (-1e-9, 1e-3), "tail_tol": (-1e-9, 1e-3),
}
# the keys price takes, but not output: no files written
_CONFIG_KEYS = [
    key for key, (commands, *_) in cli._FLAGS.items()
    if "price" in commands.split() and key != "output"
]
_PRICE_KEYS = ("sigma", "nu", "spot", "strike", "tau")


def _well_typed(key):
    kwargs = cli._FLAGS[key][2]
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    if "action" in kwargs:
        return st.booleans()
    if "type" not in kwargs:
        return st.text(max_size=8)
    lo, hi = _CONFIG_RANGES.get(key, (-1.0, 2.0))
    values = st.integers(math.ceil(lo), math.floor(hi))
    return values | st.floats(lo, hi) if kwargs["type"] is float else values


@given(
    payoff=st.sampled_from(cli._PAYOFFS),
    config=st.fixed_dictionaries(
        {key: _well_typed(key) for key in _PRICE_KEYS},
        optional={key: _well_typed(key) for key in _CONFIG_KEYS if key not in _PRICE_KEYS},
    ),
    noise=st.just({})
    | st.dictionaries(st.sampled_from(_CONFIG_KEYS), _ANY_JSON, min_size=1, max_size=2),
)
def test_any_config_exits_with_a_typed_status(tmp_path_factory, payoff, config, noise):
    """Any JSON object over price's keys prices or exits 1, 2 or 3 with
    exactly one JSON line on stderr.  Well-typed values are mixed with up to
    two values of any JSON type."""
    path = tmp_path_factory.getbasetemp() / "property_config.json"
    path.write_text(json.dumps({**config, **noise}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["price", "--payoff", payoff, "--config", str(path)])
    assert code in (0, 1, 2, 3)
    if code:
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "type"}
    else:
        assert out.getvalue() and not err.getvalue()


_LIST_TOKENS = ("3", "25", "0", "-1", "x", "1e2", "1e5", "inf", "nan", "")


@given(
    max_orders=st.lists(st.sampled_from(_LIST_TOKENS), max_size=3).map(",".join),
    u_maxes=st.lists(st.sampled_from(_LIST_TOKENS), max_size=3).map(",".join),
    reference=st.sampled_from(["series", "fourier"]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_any_converge_lists_exit_with_a_typed_status(max_orders, u_maxes, reference, fmt):
    """Any comma lists of orders and truncation points, empty or not, race or
    exit 1, 2 or 3 with exactly one JSON line on stderr, in either format."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "converge", f"--max-orders={max_orders}", f"--u-max-list={u_maxes}",
            "--reference", reference, "--format", fmt, *_BASE_FLAGS, "--spot", "3000",
        ])
    assert code in (0, 1, 2, 3)
    if code:
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "type"}
    else:
        assert out.getvalue() and not err.getvalue()


def test_import_leaves_scipy_integrate_unloaded():
    """scipy.integrate takes a fresh process about 0.2 s to load, and only
    model.mixture_density uses it; a one-shot CLI process must not pay for it."""
    root = Path(__file__).resolve().parents[1]
    probe = "import sys, vgpricer, vgpricer.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


_TRACED_PRICE = """
import collections, contextlib, io, json, sys
from vgbench.trace import Tracer
from vgpricer import cli, montecarlo

tracer = Tracer()
tracer.install()
calls = []
for argv in json.loads(sys.argv[1]):
    first = len(tracer.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    spans = collections.Counter(name for _, _, name, _, _ in tracer.spans[first:])
    calls.append({"code": code, "spans": spans})
memo = montecarlo._memo_terminal_prices.cache_info()._asdict()
print(json.dumps({"calls": calls, "counts": tracer.counts, "memo": memo}))
"""


def _traced(*argvs):
    """Run the CLI once per argv in one traced process: spans per call, counts over all."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_PRICE, json.dumps(argvs)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _price_all(payoff):
    return ["price", "--payoff", payoff, "--method", "all", *_BASE_FLAGS, "--paths", "1000"]


class TestBenchmarkTracer:
    def test_tracer_sees_every_engine_layer(self):
        """The benchmark's tracer patches module attributes; the CLI must
        look its pricers up through their modules at call time, or the
        per-layer counts go silently to zero."""
        traced = _traced(_price_all("european"))
        (call,) = traced["calls"]
        assert call["code"] == 0
        for layer in (
            "series", "fourier", "quadrature", "montecarlo",
            "montecarlo.gamma_clock", "montecarlo.payoff", "cli",
        ):
            assert call["spans"].get(layer) == 1, layer
        counts = traced["counts"]
        assert counts["series.prices"] == 1
        # the series kernel reaches the reduction and log-Gamma through their modules
        assert call["spans"].get("series.reduce") == 1
        assert counts["specfun.log_gamma.points"] > 0
        assert counts["fourier.prices"] == 1
        assert counts["quadrature.prices"] == 1
        assert counts["montecarlo.paths"] == 1000

    def test_payoffs_of_one_contract_draw_the_gamma_clock_once(self):
        """Three payoffs of one contract share their Monte Carlo terminal
        prices: only the first call draws Gamma clocks and makes them, the
        later ones price from the memo, and every call still prices its 1,000
        paths."""
        traced = _traced(*map(_price_all, ("european", "cash-or-nothing", "asset-or-nothing")))
        calls = traced["calls"]
        assert [call["code"] for call in calls] == [0, 0, 0]
        assert [call["spans"].get("montecarlo.gamma_clock", 0) for call in calls] == [1, 0, 0]
        assert (traced["memo"]["misses"], traced["memo"]["hits"]) == (1, 2)
        for layer in ("montecarlo", "montecarlo.payoff"):
            assert [call["spans"].get(layer) for call in calls] == [1, 1, 1], layer
        assert traced["counts"]["montecarlo.paths"] == 3000


# ---------------------------------------------------------------------------
# byte digest over a fixed CLI corpus
# ---------------------------------------------------------------------------

_DIGEST_MARKET = [
    "--strike", "4000", "--trigger-strike", "3900", "--rate", "0.01", "--tau", "2",
    "--power", "1.1", "--sigma", "0.2", "--nu", "0.85",
]
_DIGEST_CONTRACT = [*_DIGEST_MARKET, "--paths", "2000"]
_DIGEST_SPOTS = ("3000", "4000", "4200")  # OTM, at the money and ITM for a call


def _digest_corpus():
    """The argv of each call: every (payoff, spot, method) price in json and
    csv, the drifted digital, bench, density, converge with both references
    in both formats, and usage, domain and convergence errors."""
    for payoff in cli._PAYOFFS:
        for spot in _DIGEST_SPOTS:
            for method in cli._METHODS:
                price = ["price", "--payoff", payoff, "--method", method, "--spot", spot]
                for output in (["--format", "json"], ["--format", "csv"]):
                    yield [*price, *_DIGEST_CONTRACT, *output]
            yield ["bench", "--payoff", payoff, "--spot", spot, *_DIGEST_CONTRACT]
        yield ["bench", "--payoff", payoff, "--spot", "4000", *_DIGEST_CONTRACT, "--format", "json"]
    for spot in _DIGEST_SPOTS:
        for method in ("series", "all"):
            yield [
                "price", "--payoff", "cash-or-nothing", "--method", method, "--spot", spot,
                "--theta", "-0.1", *_DIGEST_CONTRACT,
            ]
    for extra in ([], ["--format", "json"], ["--x-min=-0.5"]):
        yield ["density", "--sigma", "0.2", "--nu", "0.85", "--points", "9", *extra]
    for reference in ("series", "fourier"):
        for lists in (
            [], ["--max-orders", "3,10"], ["--u-max-list", "1e2"],
            ["--max-orders", "5", "--u-max-list", ""],
        ):
            for fmt in ("csv", "json"):
                yield [
                    "converge", "--spot", "3000", *_DIGEST_MARKET, "--reference", reference,
                    *lists, "--format", fmt,
                ]
    contract = ["--spot", "4200", *_DIGEST_CONTRACT]
    yield from (
        ["price", "--payoff", "european"],
        ["price", "--payoff", "straddle", *contract],
        ["price", "--payoff", "european", "--method", "quadrature", *contract, "--sigma", "-0.2"],
        ["price", "--payoff", "european", "--method", "series", "--max-order", "2", *contract],
        ["price", "--payoff", "european", "--method", "mc", *contract, "--paths", "0"],
        ["price", "--payoff", "gap", "--method", "series", *contract, "--tau", "0"],
        ["density", "--sigma", "0.2", "--nu", "0.85", "--points", "1"],
        ["converge", "--spot", "3000", *_DIGEST_MARKET, "--max-orders", ""],
        ["converge", "--spot", "3000", *_DIGEST_MARKET, "--u-max-list", "1e2,y"],
        ["converge", "--spot", "3000", *_DIGEST_CONTRACT],
        ["converge", "--spot", "3000", *_DIGEST_MARKET, "--max-order", "60"],
        ["bench", "--payoff", "european", "--spot", "3000"],
        ["bench", "--payoff", "european", *contract, "--panels", "4"],
        ["table", "--id", "99"],
        ["table", "--id", "6", "--max-order", "60", "--stream"],
        ["density", "--sigma", "0.2", "--nu", "0.85", "--points", "9", "--seed", "1"],
    )


def _masked(text):
    """text with every runtime_ms value set to 0, in json records and in a csv column."""
    if text.startswith("{"):
        return re.sub(r'"runtime_ms": [^,}]+', '"runtime_ms": 0', text)
    rows = list(csv.reader(io.StringIO(text)))
    if rows and "runtime_ms" in rows[0]:
        column = rows[0].index("runtime_ms")
        for row in rows[1:]:
            row[column] = "0"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _cli_digest():
    """(call count, sha256 hex digest) of (argv, exit code, masked stdout,
    stderr) over the corpus, each call made in process."""
    digest = hashlib.sha256()
    count = 0
    for argv in _digest_corpus():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = (argv, code, _masked(out.getvalue()), err.getvalue())
        digest.update(repr(record).encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


class TestCliDigest:
    def test_corpus_is_byte_identical(self):
        """Every call of the corpus prints its recorded stdout, stderr and
        exit code, runtime_ms aside.  `PYTHONPATH=src python tests/test_cli.py
        --digest` prints the hash; a change meant to move CLI bytes restates it."""
        count, sha256 = _cli_digest()
        assert count == 245
        assert sha256 == "dea344afd0c7e30d57c85280930fdbcb1c72edc8a4faa7085eaecfd3e63b4382"


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py --digest
    if sys.argv[1:] != ["--digest"]:
        sys.exit("usage: test_cli.py --digest")
    count, sha256 = _cli_digest()
    print(f"records {count}")
    print(f"sha256 {sha256}")
