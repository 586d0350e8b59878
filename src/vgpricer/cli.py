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
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from . import fourier, model, montecarlo, quadrature, series, tables
from .errors import NonConvergenceError, VgError
from .model import MarketInputs, PriceResult, VgParams

__all__ = ["main"]

_PAYOFFS = tuple(name.replace("_", "-") for name in montecarlo.PAYOFF_NAMES)
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


_FLOAT, _INT, _SWITCH = dict(type=float), dict(type=int), dict(action="store_true")

# Every configurable key, in --help order: (flag group, default, argparse
# keywords).  Its flag is --key with dashes and defaults to None, so _resolve
# can tell a flag given from one left out; --config takes the same keys.
# Engine defaults are read from the engines' config classes.
_FLAGS = {
    "method": ("price", "series", dict(choices=_METHODS)),
    "compare": ("table", False, _SWITCH),
    "t": ("density", 1.0, _FLOAT),
    "x_min": ("density", -1.5, _FLOAT),
    "x_max": ("density", 1.5, _FLOAT),
    "points": ("density", 101, _INT),
    "max_orders": ("converge", "3,5,10,15,20,25", dict(help="comma-separated series truncations")),
    "u_max_list": (
        "converge", "1e2,1e3,1e4", dict(help="comma-separated Fourier truncation points")
    ),
    "reference": ("converge", "series", dict(choices=("series", "fourier"))),
    "sigma": ("model", None, _FLOAT),
    "nu": ("model", None, _FLOAT),
    "theta": ("model", VgParams.theta, _FLOAT),
    "spot": ("market", None, _FLOAT),
    "strike": ("market", None, _FLOAT),
    "trigger_strike": ("market", MarketInputs.trigger_strike, _FLOAT),
    "rate": ("market", 0.0, _FLOAT),
    "dividend_yield": ("market", MarketInputs.dividend_yield, _FLOAT),
    "tau": ("market", None, _FLOAT),
    "power": ("market", MarketInputs.power, _FLOAT),
    "max_order": ("engine", series.SeriesControl.max_order, _INT),
    "tail_tol": ("engine", series.SeriesControl.tail_tol, _FLOAT),
    "alpha_policy": ("engine", series.SeriesControl.alpha_policy, dict(choices=("error", "nudge"))),
    "u_max": ("engine", fourier.FourierConfig.u_max, _FLOAT),
    "panels": ("engine", fourier.FourierConfig.panels, _INT),
    "damping_a": ("engine", fourier.FourierConfig.damping_a, _FLOAT),
    "abs_tol": ("engine", fourier.FourierConfig.abs_tol, _FLOAT),
    "gl_order": ("engine", 15, _INT),
    "paths": ("engine", 100_000, _INT),
    "seed": ("engine", montecarlo.McConfig.seed, _INT),
    "antithetic": ("engine", montecarlo.McConfig.antithetic, _SWITCH),
    "format": ("output", None, dict(choices=("json", "csv"))),
    "output": ("output", None, {}),
    "stream": ("output", False, _SWITCH),
}
_PAYOFF = ("--payoff", dict(choices=_PAYOFFS, required=True))
_TABLE_ID = ("--id", dict(dest="table_id", required=True, choices=tables.TABLE_IDS))


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process; it depends on no input,
    and each parse_args call returns a fresh Namespace."""
    parser = _Parser(prog="vgpricer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, required, groups, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if required:
            command.add_argument(required[0], **required[1])
        for key, (group, _, kwargs) in _FLAGS.items():
            if group in groups:
                command.add_argument("--" + key.replace("_", "-"), default=None, **kwargs)
        command.add_argument("--config", default=None)
    return parser


def _takes(flag: tuple, value) -> bool:
    """Whether a config value has the type its flag parses to; null only where
    the flag defaults to None, that is, where a config may leave it unset."""
    _, default, kwargs = flag
    if value is None:
        return default is None
    if "choices" in kwargs:
        return value in kwargs["choices"]
    if kwargs.get("action") == "store_true":
        return isinstance(value, bool)
    kinds = {float: (int, float), int: int}.get(kwargs.get("type"), str)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _resolve(args: argparse.Namespace) -> dict:
    """Fold CLI flags over config-file values over built-in defaults."""
    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, ValueError) as err:
            raise _UsageError(f"cannot read --config {args.config}: {err}") from None
        if not isinstance(config, dict):
            raise _UsageError(f"--config {args.config} must hold a JSON object")
        unknown = set(config) - set(_FLAGS)
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in config.items():
            if not _takes(_FLAGS[key], value):
                raise _UsageError(f"config key {key} cannot take {json.dumps(value)}")
    resolved = {key: config.get(key, default) for key, (_, default, _) in _FLAGS.items()}
    resolved.update((key, value) for key, value in vars(args).items() if value is not None)
    return resolved


def _build(cls, resolved: dict):
    """cls from the resolved keys named like its fields; a field without a default must be set."""
    fields = dataclasses.fields(cls)
    required = (f.name for f in fields if f.default is dataclasses.MISSING)
    missing = [name for name in required if resolved[name] is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise _UsageError(f"missing required flags: {flags}")
    return cls(**{f.name: resolved[f.name] for f in fields})


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
    "series": partial(_build, series.SeriesControl),
    "fourier": partial(_build, fourier.FourierConfig),
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
    params = _build(VgParams, resolved)
    market = _build(MarketInputs, resolved)
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
    if "warning" in result.diagnostics:
        record["warning"] = result.diagnostics["warning"]
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
    params = _build(VgParams, resolved)
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
    params = _build(VgParams, resolved)
    market = _build(MarketInputs, resolved)
    max_orders = [int(v) for v in str(resolved["max_orders"]).split(",") if v]
    u_maxes = [float(v) for v in str(resolved["u_max_list"]).split(",") if v]
    if resolved["reference"] == "series":
        ref_ctrl = series.SeriesControl(max_order=min(200, max(max_orders) + 20))
        reference = series.european(params, market, ref_ctrl).value
    else:
        reference = fourier.carr_madan_european(
            params, market, _build(fourier.FourierConfig, resolved)
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
        cfg = dataclasses.replace(_build(fourier.FourierConfig, resolved), u_max=u_max)
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


# subcommand: (help, its required flag, the flag groups it takes, handler)
_COMMANDS = {
    "price": ("price a single contract", _PAYOFF,
              ("price", "model", "market", "engine", "output"), _cmd_price),
    "table": ("reproduce a reference table", _TABLE_ID, ("table", "engine", "output"), _cmd_table),
    "density": ("density samples as CSV/JSON", None,
                ("density", "model", "engine", "output"), _cmd_density),
    "converge": ("series vs Fourier convergence race", None,
                 ("converge", "model", "market", "engine", "output"), _cmd_converge),
    "bench": ("price one contract with every engine", _PAYOFF,
              ("model", "market", "engine", "output"), _cmd_bench),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        resolved = _resolve(args)
        *_, handler = _COMMANDS[resolved["command"]]
        return handler(resolved)
    except _UsageError as err:
        sys.stderr.write(json.dumps({"error": str(err), "type": "usage"}) + "\n")
        return 1
    except VgError as err:
        sys.stderr.write(json.dumps({"error": str(err), "type": type(err).__name__}) + "\n")
        return 3 if isinstance(err, NonConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
