"""The validated input domain, stated once: its ranges, why, and one strategy.

The tests import it and the README quotes it.  A contract (spot 100) is
inside the domain when

    sigma              in [0.05, 1], with 1 - theta nu - sigma^2 nu / 2 >= 0.25
    nu                 log-uniform in [0.02, 2]
    theta              0, or x sigma sqrt(2/nu) with |x| <= 0.2 (drifted draws)
    tau                log-uniform in [1/365, 5]
    r                  uniform in [0, 0.06]
    z = k_rn/sigma_nu  uniform in [-4, 4], sigma_nu = sigma sqrt(nu/2)
    alpha = tau/nu - 1/2  at least 0.01 from every multiple of 1/2

and the reasons are:

* sigma and nu span near-Gaussian (nu 0.02) to very heavy-tailed (nu 2)
  returns, from calm to very volatile underlyings.  The margin of 0.25 on
  1 - theta nu - sigma^2 nu / 2, the base of E[S_T] (which must be
  positive), keeps the martingale adjustment finite and the Carr-Madan
  strip open; at theta = 0 it caps sigma sqrt(nu) at sqrt(1.5).  It is 0.25
  and not 0.1 because vgbench.oracle's call and asset digital overflow
  nearer the edge (2 of 6,000 prices at 0.1, none at 0.25), and a price the
  oracle cannot give is one that no certificate checks.
* theta as a multiple x of sigma sqrt(2/nu) keeps the drift's skew the same
  size at every (sigma, nu), as the engine cross-check benchmark draws it.
* tau runs from one day to five years, and r over the rates of the paper's
  tables and above.
* |z| <= 4 keeps the strike within four rescaled volatilities of the
  forward.  Farther out the series' wing truncation can claim convergence
  for a wrong price.
* The series treats alpha within 1e-8 of a multiple of 1/2 as degenerate,
  and closer than about 1e-3 it misses the oracle on some draws; 0.01 keeps
  every draw clear of both.

contract() maps six uniforms on [0, 1) onto the domain and rejects none, so
a constant that hypothesis mixes into its float draws cannot push a draw
outside it: the strategy draws only the uniforms.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from hypothesis import strategies as st

from vgpricer import model
from vgpricer.model import MarketInputs, VgParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # vgbench sits beside src
from vgbench import oracle  # noqa: E402

SIGMA = (0.05, 1.0)
NU = (0.02, 2.0)
THETA_X = 0.2
TAU = (1.0 / 365.0, 5.0)
RATE = (0.0, 0.06)
Z = 4.0
ALPHA_MARGIN = 0.01
MARTINGALE_MARGIN = 0.25
SPOT = 100.0


def _clear_alpha(tau: float, nu: float) -> float:
    """tau, moved by less than ALPHA_MARGIN nu so that alpha is ALPHA_MARGIN
    from its nearest multiple of 1/2: away from it where that stays in TAU,
    else toward and past it."""
    alpha = tau / nu - 0.5
    nearest = round(2.0 * alpha) / 2.0
    if abs(alpha - nearest) >= ALPHA_MARGIN:
        return tau
    side = math.copysign(1.0, alpha - nearest)
    moved = nu * (nearest + side * ALPHA_MARGIN + 0.5)
    if TAU[0] <= moved <= TAU[1]:
        return moved
    return nu * (nearest - side * ALPHA_MARGIN + 0.5)


def contract(u, drifted: bool = False) -> tuple[VgParams, MarketInputs]:
    """The (params, market) of six uniforms on [0, 1); theta = 0 unless drifted.

    sigma is uniform up to the largest value the martingale margin m admits
    at its nu and x, min(1, (sqrt(x^2 + 1 - m) - x) sqrt(2/nu)), so that no
    draw is refused.
    """
    nu = NU[0] * (NU[1] / NU[0]) ** u[0]
    x = THETA_X * (2.0 * u[1] - 1.0) if drifted else 0.0
    # with s = sigma_nu, 1 - theta nu - sigma^2 nu / 2 = 1 - 2 x s - s^2 >= m
    s_max = math.sqrt(x * x + 1.0 - MARTINGALE_MARGIN) - x
    sigma = SIGMA[0] + (min(SIGMA[1], s_max * math.sqrt(2.0 / nu)) - SIGMA[0]) * u[2]
    tau = _clear_alpha(TAU[0] * (TAU[1] / TAU[0]) ** u[3], nu)
    rate = RATE[0] + (RATE[1] - RATE[0]) * u[4]
    z = Z * (2.0 * u[5] - 1.0)
    params = VgParams(sigma=sigma, nu=nu, theta=x * sigma * math.sqrt(2.0 / nu))
    # k_rn = ln(S/K) + (r + omega) tau = z sigma_nu
    drift = (rate + model.martingale_adjustment(params)) * tau
    strike = SPOT * math.exp(drift - z * sigma * math.sqrt(nu / 2.0))
    return params, MarketInputs(spot=SPOT, strike=strike, rate=rate, tau=tau)


def contracts(drifted: bool = False):
    """The hypothesis strategy of contract(u, drifted), u six uniforms on [0, 1)."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    return st.tuples(*[unit] * 6).map(lambda u: contract(u, drifted))


def oracle_price(kind: str, params: VgParams, market: MarketInputs) -> float:
    """vgbench.oracle.price of one contract, kind a vgbench.oracle.KINDS name."""
    return oracle.price(
        kind, market.spot, market.strike, market.rate, market.tau,
        params.sigma, params.nu, params.theta,
    )
