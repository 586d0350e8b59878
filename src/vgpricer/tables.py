"""Reproduction of the published benchmark tables.

Each builder regenerates one reference grid (same rows, same columns) with
the engines in this package.  The shared parameter set is K = 4000,
r = 1%, sigma = 0.2, nu = 0.85; per-table variations are in the builders.

Truncated series cells intentionally include non-converged values (that is
what the truncation columns demonstrate), so the builders catch the
non-convergence error and keep the partial sum.
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


def base_params(theta: float = 0.0) -> VgParams:
    return VgParams(sigma=_SIGMA, nu=_NU, theta=theta)


def atm_spot(params: VgParams, tau: float, strike: float = _STRIKE, rate: float = _RATE) -> float:
    """Spot with vanishing risk-neutral moneyness: K e^{-(r + omega) tau}."""
    omega = martingale_adjustment(params)
    return strike * math.exp(-(rate + omega) * tau)


def _market(spot: float, tau: float) -> MarketInputs:
    return MarketInputs(spot=spot, strike=_STRIKE, rate=_RATE, tau=tau)


def _series_cell(pricer: Callable, params, market, max_order: int) -> float:
    try:
        return pricer(params, market, series.SeriesControl(max_order=max_order)).value
    except NonConvergenceError as err:
        return err.result.value


def _digital_rows(pricer: Callable, lewis: Callable) -> list[dict]:
    params = base_params()
    rows = []
    for tau in (2.0, 0.5):
        spots = [
            ("S=5000", 5000.0),
            ("S=4200", 4200.0),
            ("ATM", atm_spot(params, tau)),
            ("S=3800", 3800.0),
            ("S=3000", 3000.0),
        ]
        for label, spot in spots:
            market = _market(spot, tau)
            cells = {
                f"max={m}": _series_cell(pricer, params, market, m)
                for m in (3, 5, 10, 15)
            }
            cells["lewis"] = lewis(params, market, _LEWIS).value
            rows.append({"row_label": f"tau={tau:g},{label}", "cells": cells})
    return rows


def _table_one() -> list[dict]:
    return _digital_rows(series.cash_or_nothing, fourier.lewis_cash_or_nothing)


def _table_two() -> list[dict]:
    return _digital_rows(series.asset_or_nothing, fourier.lewis_asset_or_nothing)


_TAU_LABELS = (("1/12", 1.0 / 12.0), ("1/52", 1.0 / 52.0), ("1/360", 1.0 / 360.0))


def _table_three() -> list[dict]:
    params = base_params()
    rows = []
    for spot, max_orders in ((3000.0, (5, 10, 20)), (2000.0, (10, 20, 30))):
        for tau_label, tau in _TAU_LABELS:
            market = _market(spot, tau)
            cells = {
                f"series_max={m}": _series_cell(series.european, params, market, m)
                for m in max_orders
            }
            for umax_label, umax in (("1e2", 1e2), ("1e3", 1e3), ("1e4", 1e4)):
                cfg = fourier.FourierConfig(u_max=umax, damping_a=1.0)
                cells[f"cm_umax={umax_label}"] = fourier.carr_madan_european(
                    params, market, cfg
                ).value
            rows.append({"row_label": f"S={spot:g},tau={tau_label}", "cells": cells})
    return rows


def _table_four() -> list[dict]:
    rows = []
    for theta, spots in ((0.1, (6000.0, None, 3000.0)), (-0.1, (5000.0, None, 2000.0))):
        params = base_params(theta)
        sign = "+" if theta > 0 else "-"
        for spot in spots:
            label = f"S={spot:g}" if spot is not None else "ATM"
            spot_val = spot if spot is not None else atm_spot(params, 2.0)
            market = _market(spot_val, 2.0)
            cells = {
                f"max={m}": _series_cell(series.asym_cash_or_nothing, params, market, m)
                for m in (3, 5, 10, 15)
            }
            cells["lewis"] = fourier.lewis_cash_or_nothing(params, market, _LEWIS).value
            rows.append({"row_label": f"theta={sign}0.1,{label}", "cells": cells})
    return rows


def _table_five() -> list[dict]:
    rows = []
    for theta in (0.1, -0.1):
        params = base_params(theta)
        sign = "+" if theta > 0 else "-"
        for tau_label, tau in (("1/2", 0.5),) + _TAU_LABELS:
            market = _market(4200.0, tau)
            cells = {
                f"max={m}": _series_cell(series.asym_cash_or_nothing, params, market, m)
                for m in (3, 5, 10, 15)
            }
            rows.append({"row_label": f"theta={sign}0.1,tau={tau_label}", "cells": cells})
    return rows


def _table_six() -> list[dict]:
    params = base_params()
    rows = []
    for label, spot in (
        ("S=4500", 4500.0),
        ("ATM", atm_spot(params, 2.0)),
        ("S=3500", 3500.0),
    ):
        market = _market(spot, 2.0)
        cells = {
            f"series_max={m}": _series_cell(series.european, params, market, m)
            for m in (5, 10, 15)
        }
        for n in (5, 10, 15):
            cells[f"gl_n={n}"] = quadrature.gl_european(params, market, n).value
        rows.append({"row_label": label, "cells": cells})
    return rows


def _table_seven(seed: int) -> list[dict]:
    params, drifted = base_params(), base_params(-0.1)
    # the reference asym_cn ATM row was evaluated at the two-decimal rounded
    # spot, which lands a hair off the exact branch point; keep that convention
    blocks = (
        ("european", params,
         (("S=4500", 4500.0), ("ATM", atm_spot(params, 2.0)), ("S=3500", 3500.0)),
         series.european, "european"),
        ("asym_cn", drifted,
         (("S=4500", 4500.0), ("ATM", round(atm_spot(drifted, 2.0), 2)), ("S=3000", 3000.0)),
         series.asym_cash_or_nothing, "cash_or_nothing"),
    )
    rows = []
    for prefix, block_params, spots, pricer, payoff in blocks:
        for label, spot in spots:
            market = _market(spot, 2.0)
            cells = {
                f"series_max={m}": _series_cell(pricer, block_params, market, m)
                for m in (5, 10, 15)
            }
            for size_label, n in (("1e2", 100), ("1e3", 1000), ("1e4", 10000)):
                cfg = montecarlo.McConfig(n_paths=n, seed=seed)
                cells[f"mc_n={size_label}"] = montecarlo.mc_price(
                    payoff, block_params, market, cfg
                ).value
            rows.append({"row_label": f"{prefix},{label}", "cells": cells})
    return rows


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


def build_table(table_id: str, seed: int = 0) -> list[dict]:
    """Regenerate one reference table as a list of {row_label, cells} rows."""
    table_id = str(table_id)
    builders = {
        "1": _table_one,
        "2": _table_two,
        "3": _table_three,
        "4": _table_four,
        "5": _table_five,
        "6": _table_six,
        "7": lambda: _table_seven(seed),
        "8": _table_gl,
        "gl": _table_gl,
    }
    if table_id not in builders:
        raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    return builders[table_id]()


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
