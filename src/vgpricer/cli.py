"""Command-line interface.

Subcommands:

* ``price``    price one contract by any engine (or all of them),
* ``table``    regenerate a published benchmark table, optionally comparing
               against the embedded reference values,
* ``density``  dump (x, closed_form, mixture, gauss_laguerre_n) samples,
* ``converge`` series-truncation vs Fourier-truncation convergence race,
* ``bench``    cross-method comparison of a single contract.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 non-convergence.
Errors are written to stderr as a single JSON line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from functools import partial
from typing import Optional

import numpy as np

from . import fourier, model, montecarlo, quadrature, series, tables
from .errors import NonConvergenceError, VgError
from .model import MarketInputs, PriceResult, VgParams

__all__ = ["main"]

_PAYOFFS = (
    "european",
    "cash-or-nothing",
    "asset-or-nothing",
    "gap",
    "power-asset-or-nothing",
    "log-call",
)
_METHODS = ("series", "fourier", "quadrature", "mc", "all")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=float, default=None)
    parser.add_argument("--nu", type=float, default=None)
    parser.add_argument("--theta", type=float, default=None)


def _add_market_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spot", type=float, default=None)
    parser.add_argument("--strike", type=float, default=None)
    parser.add_argument("--trigger-strike", type=float, default=None)
    parser.add_argument("--rate", type=float, default=None)
    parser.add_argument("--dividend-yield", type=float, default=None)
    parser.add_argument("--tau", type=float, default=None)
    parser.add_argument("--power", type=float, default=None)


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-order", type=int, default=None)
    parser.add_argument("--tail-tol", type=float, default=None)
    parser.add_argument("--alpha-policy", choices=("error", "nudge"), default=None)
    parser.add_argument("--u-max", type=float, default=None)
    parser.add_argument("--panels", type=int, default=None)
    parser.add_argument("--damping-a", type=float, default=None)
    parser.add_argument("--abs-tol", type=float, default=None)
    parser.add_argument("--gl-order", type=int, default=None)
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--antithetic", action="store_true", default=None)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--output", default=None)
    parser.add_argument("--stream", action="store_true", default=None)
    parser.add_argument("--config", default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vgpricer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    price = sub.add_parser("price", help="price a single contract")
    price.add_argument("--payoff", choices=_PAYOFFS, required=True)
    price.add_argument("--method", choices=_METHODS, default=None)
    for add in (_add_model_flags, _add_market_flags, _add_engine_flags, _add_output_flags):
        add(price)

    table = sub.add_parser("table", help="reproduce a reference table")
    table.add_argument("--id", dest="table_id", required=True,
                       choices=tables.TABLE_IDS)
    table.add_argument("--compare", action="store_true", default=None)
    for add in (_add_engine_flags, _add_output_flags):
        add(table)

    density = sub.add_parser("density", help="density samples as CSV/JSON")
    density.add_argument("--t", type=float, default=None)
    density.add_argument("--x-min", type=float, default=None)
    density.add_argument("--x-max", type=float, default=None)
    density.add_argument("--points", type=int, default=None)
    for add in (_add_model_flags, _add_engine_flags, _add_output_flags):
        add(density)

    converge = sub.add_parser("converge", help="series vs Fourier convergence race")
    converge.add_argument("--max-orders", default=None,
                          help="comma-separated series truncations")
    converge.add_argument("--u-max-list", default=None,
                          help="comma-separated Fourier truncation points")
    converge.add_argument("--reference", choices=("series", "fourier"), default=None)
    for add in (_add_model_flags, _add_market_flags, _add_engine_flags, _add_output_flags):
        add(converge)

    bench = sub.add_parser("bench", help="price one contract with every engine")
    bench.add_argument("--payoff", choices=_PAYOFFS, required=True)
    for add in (_add_model_flags, _add_market_flags, _add_engine_flags, _add_output_flags):
        add(bench)

    return parser


_DEFAULTS = {
    "method": "series",
    "sigma": None,
    "nu": None,
    "theta": 0.0,
    "spot": None,
    "strike": None,
    "trigger_strike": None,
    "rate": 0.0,
    "dividend_yield": 0.0,
    "tau": None,
    "power": 1.0,
    "max_order": 25,
    "tail_tol": 1e-10,
    "alpha_policy": "error",
    "u_max": 1e4,
    "panels": 1,
    "damping_a": 1.0,
    "abs_tol": 1e-9,
    "gl_order": 15,
    "paths": 100_000,
    "seed": 0,
    "antithetic": False,
    "format": None,
    "output": None,
    "stream": False,
    "compare": False,
    "t": 1.0,
    "x_min": -1.5,
    "x_max": 1.5,
    "points": 101,
    "max_orders": "3,5,10,15,20,25",
    "u_max_list": "1e2,1e3,1e4",
    "reference": "series",
}


def _resolve(args: argparse.Namespace) -> dict:
    """Fold CLI flags over config-file values over built-in defaults."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        unknown = set(config) - set(_DEFAULTS)
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, default in _DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in config:
            resolved[key] = config[key]
        else:
            resolved[key] = default
    for key in ("payoff", "command", "table_id"):
        if hasattr(args, key):
            resolved[key] = getattr(args, key)
    return resolved


def _require(resolved: dict, *keys: str) -> None:
    missing = [key for key in keys if resolved.get(key) is None]
    if missing:
        flags = ", ".join("--" + key.replace("_", "-") for key in missing)
        raise _UsageError(f"missing required flags: {flags}")


def _params(resolved: dict) -> VgParams:
    _require(resolved, "sigma", "nu")
    return VgParams(sigma=resolved["sigma"], nu=resolved["nu"], theta=resolved["theta"])


def _market(resolved: dict) -> MarketInputs:
    _require(resolved, "spot", "strike", "tau")
    return MarketInputs(
        spot=resolved["spot"],
        strike=resolved["strike"],
        rate=resolved["rate"],
        tau=resolved["tau"],
        trigger_strike=resolved["trigger_strike"],
        dividend_yield=resolved["dividend_yield"],
        power=resolved["power"],
    )


def _series_control(resolved: dict) -> series.SeriesControl:
    return series.SeriesControl(
        max_order=resolved["max_order"],
        tail_tol=resolved["tail_tol"],
        alpha_policy=resolved["alpha_policy"],
    )


def _fourier_config(resolved: dict) -> fourier.FourierConfig:
    return fourier.FourierConfig(
        u_max=resolved["u_max"],
        panels=resolved["panels"],
        damping_a=resolved["damping_a"],
        abs_tol=resolved["abs_tol"],
    )


def _monte_carlo(payoff: str, params, market, cfg) -> PriceResult:
    """Monte Carlo as a PriceResult: paths as terms, with its standard error and 95% interval.

    The branch is labelled as the other engines label it: a gap at its
    trigger K2, a power digital by its power moneyness.
    """
    estimate = montecarlo.mc_price(payoff.replace("-", "_"), params, market, cfg)
    if payoff == "gap":
        market = dataclasses.replace(market, strike=market.trigger_strike)
    derived = model.derive(params, market)
    power = payoff == "power-asset-or-nothing"
    return PriceResult(
        value=estimate.value,
        method="monte_carlo",
        terms_evaluated=cfg.n_paths,
        branch=model.moneyness_branch(derived.power_moneyness) if power else derived.branch,
        std_error=estimate.std_error,
        ci=(estimate.ci_low, estimate.ci_high),
    )


_CONFIGS = {
    "series": _series_control,
    "fourier": _fourier_config,
    "quadrature": lambda resolved: resolved["gl_order"],
    "mc": lambda resolved: montecarlo.McConfig(
        n_paths=resolved["paths"], seed=resolved["seed"], antithetic=resolved["antithetic"]
    ),
}

# (method, payoff) -> price(params, market, config); the key order is the row
# order of --method all.  Every entry looks its pricer up through the module
# at call time, so attributes patched on the module (a tracer) are seen.
_ENGINES = {
    ("series", "european"): lambda p, m, c: series.european(p, m, c),
    ("series", "cash-or-nothing"): lambda p, m, c: (
        series.cash_or_nothing if p.theta == 0.0 else series.asym_cash_or_nothing
    )(p, m, c),
    ("series", "asset-or-nothing"): lambda p, m, c: series.asset_or_nothing(p, m, c),
    ("series", "gap"): lambda p, m, c: series.gap(p, m, c),
    ("series", "power-asset-or-nothing"): lambda p, m, c: series.power_asset_or_nothing(p, m, c),
    ("series", "log-call"): lambda p, m, c: series.log_call(p, m, c),
    ("fourier", "european"): lambda p, m, c: fourier.carr_madan_european(p, m, c),
    ("fourier", "cash-or-nothing"): lambda p, m, c: fourier.lewis_cash_or_nothing(p, m, c),
    ("fourier", "asset-or-nothing"): lambda p, m, c: fourier.lewis_asset_or_nothing(p, m, c),
    ("fourier", "gap"): lambda p, m, c: model.gap_from_digitals(
        m,
        lambda trigger: fourier.lewis_asset_or_nothing(p, trigger, c),
        lambda trigger: fourier.lewis_cash_or_nothing(p, trigger, c),
    ),
    ("quadrature", "european"): lambda p, m, c: quadrature.gl_european(p, m, c),
    **{("mc", payoff): partial(_monte_carlo, payoff) for payoff in _PAYOFFS},
}


def _price_record(payoff: str, method: str, resolved: dict) -> dict:
    params = _params(resolved)
    market = _market(resolved)
    start = time.perf_counter()
    config = _CONFIGS[method](resolved)
    if (method, payoff) not in _ENGINES:
        raise _UsageError(f"{method} engine does not support payoff {payoff!r}")
    result = _ENGINES[method, payoff](params, market, config)
    runtime_ms = (time.perf_counter() - start) * 1e3
    record = {
        "value": result.value,
        "method": result.method,
        "payoff": payoff,
        "branch": result.branch,
        "terms_evaluated": result.terms_evaluated,
        "truncation_estimate": result.truncation_estimate,
    }
    if result.std_error is not None:
        record["std_error"] = result.std_error
        record["ci"] = list(result.ci)
    record["params"] = {"sigma": params.sigma, "nu": params.nu, "theta": params.theta}
    record["market"] = {
        "spot": market.spot,
        "strike": market.strike,
        "trigger_strike": market.trigger_strike,
        "rate": market.rate,
        "dividend_yield": market.dividend_yield,
        "tau": market.tau,
        "power": market.power,
    }
    record["runtime_ms"] = round(runtime_ms, 3)
    return record


def _methods_for(payoff: str) -> list[str]:
    return [method for method, supported in _ENGINES if supported == payoff]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _flatten(record: dict) -> dict:
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            for inner, inner_value in value.items():
                flat[f"{key}.{inner}"] = inner_value
        elif isinstance(value, list):
            flat[key] = ";".join(_fmt(v) for v in value)
        else:
            flat[key] = value
    return flat


def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header: list[str] = []
    for row in rows:  # union of keys, first-seen order (blocks may differ)
        for key in row:
            if key not in header:
                header.append(key)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(key, "")) for key in header])
    return buffer.getvalue()


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(rows: list[dict], resolved: dict, default_format: str) -> None:
    fmt = resolved["format"] or default_format
    if fmt == "json":
        if resolved["stream"] or len(rows) > 1:
            text = "".join(json.dumps(row) + "\n" for row in rows)
        else:
            text = json.dumps(rows[0]) + "\n"
    else:
        text = _rows_to_csv([_flatten(row) for row in rows])
    _emit(text, resolved["output"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_price(resolved: dict) -> int:
    payoff = resolved["payoff"]
    method = resolved["method"]
    methods = _methods_for(payoff) if method == "all" else [method]
    rows = [_price_record(payoff, m, resolved) for m in methods]
    _emit_rows(rows, resolved, "json")
    return 0


def _cmd_table(resolved: dict) -> int:
    table_id = resolved["table_id"]
    if resolved["compare"]:
        rows = tables.compare_table(table_id, seed=resolved["seed"])
    else:
        rows = [
            {"row_label": row["row_label"], **row["cells"]}
            for row in tables.build_table(table_id, seed=resolved["seed"])
        ]
    _emit_rows(rows, resolved, "csv")
    return 0


def _cmd_density(resolved: dict) -> int:
    params = _params(resolved)
    t = resolved["t"]
    n = resolved["gl_order"]
    lo, hi, points = resolved["x_min"], resolved["x_max"], resolved["points"]
    if points < 2:
        raise _UsageError("--points must be at least 2")
    if lo == -hi:  # symmetric request: build an exactly symmetric grid
        # the positive half of linspace(lo, hi, points), spaced 2 hi / (points - 1)
        positive = np.linspace(hi * (1 + points % 2) / (points - 1), hi, points // 2)
        xs = np.concatenate([-positive[::-1], [0.0] if points % 2 else [], positive])
    else:
        xs = np.linspace(lo, hi, points)
    rows = []
    for x in xs:
        rows.append(
            {
                "x": float(x),
                "closed_form": model.density(params, float(x), t),
                "mixture": model.mixture_density(params, float(x), t),
                f"gauss_laguerre_{n}": quadrature.gl_density(params, float(x), t, n),
            }
        )
    _emit_rows(rows, resolved, "csv")
    return 0


def _cmd_converge(resolved: dict) -> int:
    params = _params(resolved)
    market = _market(resolved)
    max_orders = [int(v) for v in str(resolved["max_orders"]).split(",") if v]
    u_maxes = [float(v) for v in str(resolved["u_max_list"]).split(",") if v]
    if resolved["reference"] == "series":
        ref_ctrl = series.SeriesControl(max_order=min(200, max(max_orders) + 20))
        reference = series.european(params, market, ref_ctrl).value
    else:
        reference = fourier.carr_madan_european(
            params, market, _fourier_config(resolved)
        ).value
    rows = []
    for m in max_orders:
        try:
            value = series.european(
                params, market, series.SeriesControl(max_order=m)
            ).value
        except NonConvergenceError as err:
            value = err.result.value
        rows.append(
            {
                "kind": "series_max",
                "parameter": m,
                "value": value,
                "abs_error_vs_reference": abs(value - reference),
            }
        )
    for u_max in u_maxes:
        cfg = dataclasses.replace(_fourier_config(resolved), u_max=u_max)
        value = fourier.carr_madan_european(params, market, cfg).value
        rows.append(
            {
                "kind": "carr_madan_umax",
                "parameter": u_max,
                "value": value,
                "abs_error_vs_reference": abs(value - reference),
            }
        )
    _emit_rows(rows, resolved, "csv")
    return 0


def _cmd_bench(resolved: dict) -> int:
    payoff = resolved["payoff"]
    rows = []
    series_value = None
    for method in _methods_for(payoff):
        record = _price_record(payoff, method, resolved)
        if method == "series":
            series_value = record["value"]
        rows.append(
            {
                "method": record["method"],
                "value": record["value"],
                "runtime_ms": record["runtime_ms"],
                "abs_dev_vs_series": abs(record["value"] - series_value)
                if series_value is not None
                else "",
            }
        )
    _emit_rows(rows, resolved, "csv")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        resolved = _resolve(args)
        command = resolved["command"]
        if command == "price":
            return _cmd_price(resolved)
        if command == "table":
            return _cmd_table(resolved)
        if command == "density":
            return _cmd_density(resolved)
        if command == "converge":
            return _cmd_converge(resolved)
        if command == "bench":
            return _cmd_bench(resolved)
        raise _UsageError(f"unknown command {command!r}")
    except _UsageError as err:
        sys.stderr.write(json.dumps({"error": str(err), "type": "usage"}) + "\n")
        return 1
    except NonConvergenceError as err:
        sys.stderr.write(
            json.dumps({"error": str(err), "type": "NonConvergenceError"}) + "\n"
        )
        return 3
    except VgError as err:
        sys.stderr.write(
            json.dumps({"error": str(err), "type": type(err).__name__}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
