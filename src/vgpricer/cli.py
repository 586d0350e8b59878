"""Command-line interface.

Subcommands:

* ``price``    price one contract by any engine (or all of them),
* ``table``    regenerate a published benchmark table, optionally comparing
               against the embedded reference values,
* ``density``  dump (x, closed_form, mixture, gauss_laguerre_n) samples,
* ``converge`` series-truncation vs Fourier-truncation convergence race,
* ``bench``    cross-method comparison of a single contract.

Each subcommand's handler returns its rows, and ``main`` alone formats them
(json lines or csv, each command with its default) and writes them.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 non-convergence.
Errors are written to stderr as a single JSON line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
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
# the most density samples one run writes: each row prices three densities
_MAX_POINTS = 1 << 20


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

# Every configurable key, in --help order: (the subcommands that read it,
# default, argparse keywords).  Its flag is --key with dashes and defaults to
# None, so _resolve can tell a flag given from one left out; --config takes
# the same keys, for the same subcommands.  price and bench read every engine
# key, because --method all runs every engine.  Engine defaults are read from
# the engines' config classes.
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
    "sigma": ("price density converge bench", None, _FLOAT),
    "nu": ("price density converge bench", None, _FLOAT),
    "theta": ("price density converge bench", VgParams.theta, _FLOAT),
    "spot": ("price converge bench", None, _FLOAT),
    "strike": ("price converge bench", None, _FLOAT),
    "trigger_strike": ("price converge bench", MarketInputs.trigger_strike, _FLOAT),
    "rate": ("price converge bench", 0.0, _FLOAT),
    "dividend_yield": ("price converge bench", MarketInputs.dividend_yield, _FLOAT),
    "tau": ("price converge bench", None, _FLOAT),
    "power": ("price converge bench", MarketInputs.power, _FLOAT),
    "max_order": ("price bench", series.SeriesControl.max_order, _INT),
    "tail_tol": ("price converge bench", series.SeriesControl.tail_tol, _FLOAT),
    "alpha_policy": (
        "price converge bench", series.SeriesControl.alpha_policy, dict(choices=("error", "nudge"))
    ),
    "u_max": ("price converge bench", fourier.FourierConfig.u_max, _FLOAT),
    "damping_a": ("price converge bench", fourier.FourierConfig.damping_a, _FLOAT),
    "abs_tol": ("price converge bench", fourier.FourierConfig.abs_tol, _FLOAT),
    "gl_order": ("price density bench", 15, _INT),
    "paths": ("price bench", 100_000, _INT),
    "seed": ("price table bench", montecarlo.McConfig.seed, _INT),
    "antithetic": ("price bench", montecarlo.McConfig.antithetic, _SWITCH),
    "format": ("price table density converge bench", None, dict(choices=("json", "csv"))),
    "output": ("price table density converge bench", None, {}),
}
_PAYOFF = ("--payoff", dict(choices=_PAYOFFS, required=True))
_TABLE_ID = ("--id", dict(dest="table_id", required=True, choices=tables.TABLE_IDS))


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process; it depends on no input,
    and each parse_args call returns a fresh Namespace."""
    parser = _Parser(prog="vgpricer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, required, *_) in _COMMANDS.items():
        # no abbreviations: converge would read --max-order as --max-orders
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if required:
            command.add_argument(required[0], **required[1])
        for key, (commands, _, kwargs) in _FLAGS.items():
            if name in commands.split():
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
        taken = {key for key, (commands, *_) in _FLAGS.items() if args.command in commands.split()}
        unknown = set(config) - taken
        if unknown:
            raise _UsageError(f"{args.command} does not take config keys: {sorted(unknown)}")
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
    trigger K2, a power digital by its power moneyness.  Samples that are
    all equal give a standard error of 0, which is flagged with a warning.
    """
    estimate = montecarlo.mc_price(payoff.replace("-", "_"), params, market, cfg)
    if payoff == "gap":
        market = dataclasses.replace(market, strike=market.trigger_strike)
    derived = model.derive(params, market)
    power = payoff == "power-asset-or-nothing"
    warning = "all samples are equal: std_error is 0 and the interval does not bound the error"
    return model._price_result(
        "monte_carlo", estimate.value, cfg.n_paths, 0.0,
        model.moneyness_branch(derived.power_moneyness) if power else derived.branch, {},
        (warning,) if estimate.std_error == 0.0 else (),
        std_error=estimate.std_error, ci=(estimate.ci_low, estimate.ci_high),
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
    """One csv table whose header is the union of the rows' keys in first-seen
    order (blocks may differ); a key a row lacks is an empty cell."""
    buffer = io.StringIO()
    header = dict.fromkeys(key for row in rows for key in row)
    writer = csv.DictWriter(buffer, header, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows({key: _fmt(value) for key, value in row.items()} for row in rows)
    return buffer.getvalue()


def _emit_rows(rows: list[dict], resolved: dict, default_format: str) -> None:
    """Write rows to --output or stdout: one JSON line per row, or one csv table."""
    if (resolved["format"] or default_format) == "json":
        text = "".join(json.dumps(row) + "\n" for row in rows)
    else:
        text = _rows_to_csv([_flatten(row) for row in rows])
    if resolved["output"]:
        with open(resolved["output"], "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_price(resolved: dict) -> list[dict]:
    payoff = resolved["payoff"]
    method = resolved["method"]
    if method == "all":
        methods = [m for m, supported in _ENGINES if supported == payoff]
    else:
        methods = [method]
    return [_price_record(payoff, m, resolved) for m in methods]


def _cmd_table(resolved: dict) -> list[dict]:
    table_id = resolved["table_id"]
    if resolved["compare"]:
        return tables.compare_table(table_id, seed=resolved["seed"])
    return [
        {"row_label": row["row_label"], **row["cells"]}
        for row in tables.build_table(table_id, seed=resolved["seed"])
    ]


def _cmd_density(resolved: dict) -> list[dict]:
    params = _build(VgParams, resolved)
    t = resolved["t"]
    n = resolved["gl_order"]
    lo, hi, points = resolved["x_min"], resolved["x_max"], resolved["points"]
    if points < 2:
        raise _UsageError("--points must be at least 2")
    if points > _MAX_POINTS:
        raise _UsageError(f"--points must be at most 2^20 = {_MAX_POINTS}, got {points}")
    if not math.isfinite(hi - lo):  # either end, or their distance, is not finite
        raise _UsageError(f"--x-min and --x-max must span a finite range, got {lo!r} and {hi!r}")
    if lo == -hi:  # symmetric request: build an exactly symmetric grid
        # the positive half of linspace(lo, hi, points), spaced 2 hi / (points - 1)
        positive = np.linspace(hi * (1 + points % 2) / (points - 1), hi, points // 2)
        xs = np.concatenate([-positive[::-1], [0.0] if points % 2 else [], positive])
    else:
        xs = np.linspace(lo, hi, points)
    return [
        {
            "x": float(x),
            "closed_form": model.density(params, float(x), t),
            "mixture": model.mixture_density(params, float(x), t),
            f"gauss_laguerre_{n}": quadrature.gl_density(params, float(x), t, n),
        }
        for x in xs
    ]


def _comma_list(resolved: dict, key: str, kind) -> list:
    """The values of the comma-separated flag key; one that kind cannot
    parse is a usage error naming the flag."""
    text = str(resolved[key])
    try:
        return [kind(v) for v in text.split(",") if v]
    except ValueError:
        flag = "--" + key.replace("_", "-")
        raise _UsageError(f"{flag} takes comma-separated {kind.__name__}s, got {text!r}") from None


def _cmd_converge(resolved: dict) -> list[dict]:
    params = _build(VgParams, resolved)
    market = _build(MarketInputs, resolved)
    max_orders = _comma_list(resolved, "max_orders", int)
    u_maxes = _comma_list(resolved, "u_max_list", float)
    # every race entry and the reference vary one field of the resolved configs
    ctrl = _CONFIGS["series"](resolved)
    cfg = _CONFIGS["fourier"](resolved)
    if resolved["reference"] == "series":
        if not max_orders:
            raise _UsageError("--max-orders must name an order for --reference series")
        ref_ctrl = dataclasses.replace(ctrl, max_order=min(200, max(max_orders) + 20))
        reference = series.european(params, market, ref_ctrl).value
    else:
        if not max_orders and not u_maxes:
            raise _UsageError("converge needs an order in --max-orders or a point in --u-max-list")
        reference = fourier.carr_madan_european(params, market, cfg).value
    races = []  # (kind, parameter, value)
    for m in max_orders:
        ctrl_m = dataclasses.replace(ctrl, max_order=m)
        value = tables._partial_sum(series.european, params, market, ctrl_m)
        races.append(("series_max", m, value))
    for u_max in u_maxes:
        cfg_u = dataclasses.replace(cfg, u_max=u_max)
        value = fourier.carr_madan_european(params, market, cfg_u).value
        races.append(("carr_madan_umax", u_max, value))
    return [
        {
            "kind": kind,
            "parameter": parameter,
            "value": value,
            "abs_error_vs_reference": abs(value - reference),
        }
        for kind, parameter, value in races
    ]


def _cmd_bench(resolved: dict) -> list[dict]:
    """price --method all in brief: every payoff has a series engine, listed
    first in _ENGINES, so row 0 is the series value."""
    records = _cmd_price({**resolved, "method": "all"})
    return [
        {
            "method": record["method"],
            "value": record["value"],
            "runtime_ms": record["runtime_ms"],
            "abs_dev_vs_series": abs(record["value"] - records[0]["value"]),
        }
        for record in records
    ]


# subcommand: (help, its required flag, handler, default output format)
_COMMANDS = {
    "price": ("price a single contract", _PAYOFF, _cmd_price, "json"),
    "table": ("reproduce a reference table", _TABLE_ID, _cmd_table, "csv"),
    "density": ("density samples as CSV/JSON", None, _cmd_density, "csv"),
    "converge": ("series vs Fourier convergence race", None, _cmd_converge, "csv"),
    "bench": ("price one contract with every engine", _PAYOFF, _cmd_bench, "csv"),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        resolved = _resolve(args)
        *_, handler, default_format = _COMMANDS[resolved["command"]]
        _emit_rows(handler(resolved), resolved, default_format)
        return 0
    except _UsageError as err:
        sys.stderr.write(json.dumps({"error": str(err), "type": "usage"}) + "\n")
        return 1
    except VgError as err:
        sys.stderr.write(json.dumps({"error": str(err), "type": type(err).__name__}) + "\n")
        return 3 if isinstance(err, NonConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
