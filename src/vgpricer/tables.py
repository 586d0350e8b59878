"""Reproduction of the published benchmark tables.

Each table is one or more blocks of rows × columns.  A row is (label, params,
spot, tau), priced at the shared strike K = 4000 and rate r = 1%; the shared
model is sigma = 0.2, nu = 0.85 with the row's theta.  A column is (label,
price(params, market)).  `_block` prices every row in every column, row by
row, so each builder below only lists its rows and its columns.

Truncated series cells intentionally include non-converged values (that is
what the truncation columns demonstrate), so a series column keeps the
partial sum of a series stopped at its max_order, when that sum is finite
(`_partial_sum`, which ``vgpricer converge`` uses too).
"""

from __future__ import annotations

import math
from typing import Callable

from . import fourier, montecarlo, quadrature, series
from .errors import NonConvergenceError
from .model import MarketInputs, VgParams, martingale_adjustment
from .reference import load_reference

__all__ = ["TABLE_IDS", "base_params", "atm_spot", "build_table", "compare_table"]

TABLE_IDS = ("1", "2", "3", "4", "5", "6", "7", "8", "gl")

_STRIKE = 4000.0
_RATE = 0.01
_SIGMA = 0.2
_NU = 0.85
# the lewis columns keep the real-axis integral truncated at 1e4
_LEWIS = fourier.FourierConfig(u_max=1e4)
_TAUS = (("1/12", 1.0 / 12.0), ("1/52", 1.0 / 52.0), ("1/360", 1.0 / 360.0))


def base_params(theta: float = 0.0) -> VgParams:
    return VgParams(sigma=_SIGMA, nu=_NU, theta=theta)


def atm_spot(params: VgParams, tau: float, strike: float = _STRIKE, rate: float = _RATE) -> float:
    """Spot with vanishing risk-neutral moneyness: K e^{-(r + omega) tau}."""
    omega = martingale_adjustment(params)
    return strike * math.exp(-(rate + omega) * tau)


def _partial_sum(pricer: Callable, params, market, ctrl: series.SeriesControl) -> float:
    """The series price under ctrl, or its partial sum where ctrl.max_order stops it short.
    A partial sum that is not finite is no value: its NonConvergenceError is raised again."""
    try:
        return pricer(params, market, ctrl).value
    except NonConvergenceError as err:
        if not math.isfinite(err.result.value):
            raise
        return err.result.value


def _series(pricer: Callable, max_orders, label: str = "max") -> list:
    """One column per max_order m, labelled label=m: the series' partial sum."""
    return [
        (f"{label}={m}", lambda p, mk, m=m: _partial_sum(pricer, p, mk, series.SeriesControl(m)))
        for m in max_orders
    ]


def _lewis(pricer: Callable) -> list:
    return [("lewis", lambda p, mk: pricer(p, mk, _LEWIS).value)]


def _spots(prefix: str, params: VgParams, tau: float, spots, atm: Callable = atm_spot) -> list:
    """Rows labelled prefix + S=spot at tau; a spot of None is the row ATM at atm(params, tau)."""
    return [
        (f"{prefix}S={s:g}", params, s, tau) if s is not None
        else (f"{prefix}ATM", params, atm(params, tau), tau)
        for s in spots
    ]


def _rounded_atm(params: VgParams, tau: float) -> float:
    # the reference asym_cn ATM row was evaluated at the two-decimal rounded
    # spot, which lands a hair off the exact branch point; keep that convention
    return round(atm_spot(params, tau), 2)


# engine columns; each looks its pricer up through the module at call time
_CARR_MADAN = [
    (f"cm_umax={label}", lambda p, mk, cfg=fourier.FourierConfig(u_max=u, damping_a=1.0): (
        fourier.carr_madan_european(p, mk, cfg).value
    ))
    for label, u in (("1e2", 1e2), ("1e3", 1e3), ("1e4", 1e4))
]
_GAUSS_LAGUERRE = [
    (f"gl_n={n}", lambda p, mk, n=n: quadrature.gl_european(p, mk, n).value) for n in (5, 10, 15)
]


def _monte_carlo(payoff: str, seed: int) -> list:
    return [
        (f"mc_n={label}", lambda p, mk, cfg=montecarlo.McConfig(n, seed=seed): (
            montecarlo.mc_price(payoff, p, mk, cfg).value
        ))
        for label, n in (("1e2", 100), ("1e3", 1000), ("1e4", 10000))
    ]


def _block(columns: list, rows: list) -> list[dict]:
    """Every row priced in every column, in row-major order, as {row_label, cells} rows."""
    table = []
    for label, params, spot, tau in rows:
        market = MarketInputs(spot=spot, strike=_STRIKE, rate=_RATE, tau=tau)
        cells = {col_label: price(params, market) for col_label, price in columns}
        table.append({"row_label": label, "cells": cells})
    return table


def _table_gl() -> list[dict]:
    from .specfun import laguerre_rule

    rows = []
    for n in range(1, 7):
        rule = laguerre_rule(n)
        for i in range(n):
            rows.append(
                {
                    "row_label": f"n={n},i={i + 1}",
                    "cells": {"node": rule.nodes[i], "weight": rule.weights[i]},
                }
            )
    return rows


def _blocks(table_id: str, seed: int) -> list[tuple[list, list]]:
    """The (columns, rows) blocks of a priced table, in print order."""
    base, up, down = base_params(), base_params(0.1), base_params(-0.1)
    digital_rows = [
        row
        for tau in (2.0, 0.5)
        for row in _spots(f"tau={tau:g},", base, tau, (5000.0, 4200.0, None, 3800.0, 3000.0))
    ]
    digital = (3, 5, 10, 15)
    asym = _series(series.asym_cash_or_nothing, digital)
    european = _series(series.european, (5, 10, 15), "series_max")
    tables = {
        "1": [(
            _series(series.cash_or_nothing, digital) + _lewis(fourier.lewis_cash_or_nothing),
            digital_rows,
        )],
        "2": [(
            _series(series.asset_or_nothing, digital) + _lewis(fourier.lewis_asset_or_nothing),
            digital_rows,
        )],
        "3": [
            (
                _series(series.european, max_orders, "series_max") + _CARR_MADAN,
                [(f"S={spot:g},tau={label}", base, spot, tau) for label, tau in _TAUS],
            )
            for spot, max_orders in ((3000.0, (5, 10, 20)), (2000.0, (10, 20, 30)))
        ],
        "4": [(
            asym + _lewis(fourier.lewis_cash_or_nothing),
            _spots("theta=+0.1,", up, 2.0, (6000.0, None, 3000.0))
            + _spots("theta=-0.1,", down, 2.0, (5000.0, None, 2000.0)),
        )],
        "5": [(asym, [
            (f"theta={sign}0.1,tau={label}", params, 4200.0, tau)
            for sign, params in (("+", up), ("-", down))
            for label, tau in (("1/2", 0.5), *_TAUS)
        ])],
        "6": [(european + _GAUSS_LAGUERRE, _spots("", base, 2.0, (4500.0, None, 3500.0)))],
        "7": [
            (
                european + _monte_carlo("european", seed),
                _spots("european,", base, 2.0, (4500.0, None, 3500.0)),
            ),
            (
                _series(series.asym_cash_or_nothing, (5, 10, 15), "series_max")
                + _monte_carlo("cash_or_nothing", seed),
                _spots("asym_cn,", down, 2.0, (4500.0, None, 3000.0), _rounded_atm),
            ),
        ],
    }
    return tables[table_id]


def build_table(table_id: str, seed: int = 0) -> list[dict]:
    """Regenerate one reference table as a list of {row_label, cells} rows."""
    table_id = str(table_id)
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    if table_id in ("8", "gl"):
        return _table_gl()
    return [row for columns, rows in _blocks(table_id, seed) for row in _block(columns, rows)]


def compare_table(table_id: str, seed: int = 0) -> list[dict]:
    """Long-format comparison of a regenerated table against the reference file.

    Monte Carlo columns are statistical: the printed values came from
    unseeded runs, so their deviation is reported but flagged, and the
    regenerated estimate is instead expected to straddle the series value.
    """
    table_key = "8" if str(table_id) == "gl" else str(table_id)
    reference = load_reference()
    records = []
    for row in build_table(table_id, seed):
        for col_label, computed in row["cells"].items():
            cell = reference[(table_key, row["row_label"], col_label)]
            records.append(
                {
                    "table": table_key,
                    "row_label": row["row_label"],
                    "col_label": col_label,
                    "computed": computed,
                    "reference": cell.value,
                    "abs_dev": abs(computed - cell.value),
                    "suspect": cell.suspect,
                    "statistical": col_label.startswith("mc_"),
                }
            )
    return records
