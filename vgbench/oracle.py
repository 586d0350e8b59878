"""Independent Variance Gamma prices by Gamma-mixture quadrature.

Given the Gamma clock G = g, the log terminal price is Gaussian,

    ln S_T | g  ~  N(m(g), v(g)),   m = ln S + (r + omega) tau + theta g,   v = sigma^2 g,

so every path-independent price is the Gamma(tau/nu, nu) average of a
Black-Scholes-type conditional price.  The average is taken with
``scipy.integrate.quad``; below shape tau/nu = 1 the clock density is
singular at 0 and the algebraic weight u^(shape-1) is handed to QUADPACK
(QAWS) instead of being sampled.

In-the-money prices are taken through put-call parity or the complementary
digital: the direct integrand is then close to its upper bound over most of
the clock and loses the digits that matter at small tau/nu.

This module shares no code with ``vgpricer``: the martingale adjustment,
the moments and the normal CDF are written out here.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import IntegrationWarning, quad

KINDS = (
    "european",
    "cash_or_nothing",
    "asset_or_nothing",
    "gap",
    "power_asset_or_nothing",
    "log_call",
)
_EPSREL = 1e-11
_SQRT2 = math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class OracleError(Exception):
    """The quadrature could not certify its own accuracy."""


def _ncdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def omega(sigma: float, nu: float, theta: float) -> float:
    """Martingale adjustment (1/nu) ln(1 - theta nu - sigma^2 nu / 2)."""
    return math.log1p(-theta * nu - 0.5 * sigma * sigma * nu) / nu


def moment(q, spot, rate, tau, sigma, nu, theta) -> float:
    """E[S_T^q] in closed form: S^q e^{q (r + omega) tau} (1 - theta nu q - sigma^2 nu q^2 / 2)^(-tau/nu)."""
    base = 1.0 - theta * nu * q - 0.5 * sigma * sigma * nu * q * q
    if not base > 0.0:
        raise ValueError(f"E[S_T^{q}] does not exist for these parameters")
    return math.exp(
        q * (math.log(spot) + (rate + omega(sigma, nu, theta)) * tau) - tau / nu * math.log(base)
    )


def _conditional(kind, side, m0, theta, sigma, nu, log_k, payout, q):
    """f(u): the undiscounted conditional price given the clock g = nu u.

    side = +1 prices the event ln S_T > log_k, side = -1 its complement.
    """
    hit = side * (m0 - log_k) > 0.0  # where the point mass e^{m0} lands at g = 0
    if kind == "cash_or_nothing":
        at_zero = float(hit)
    elif kind == "log_call":
        at_zero = max(m0 - log_k, 0.0)
    elif not hit:
        at_zero = 0.0
    elif kind in ("european", "gap"):
        at_zero = side * (math.exp(m0) - payout)
    else:
        at_zero = math.exp(q * m0)

    def f(u):
        if u <= 0.0:
            return at_zero
        g = nu * u
        s = sigma * math.sqrt(g)
        m = m0 + theta * g
        d = (m - log_k) / s
        if kind == "log_call":
            return (m - log_k) * _ncdf(d) + s * _INV_SQRT2PI * math.exp(-0.5 * d * d)
        if kind == "cash_or_nothing":
            return _ncdf(side * d)
        asset = math.exp(q * m + 0.5 * q * q * s * s) * _ncdf(side * (d + q * s))
        if kind in ("asset_or_nothing", "power_asset_or_nothing"):
            return asset
        # european and gap: AN - payout CN on the call side, payout CN - AN on the put side
        return side * (asset - payout * _ncdf(side * d))

    return f


def _clock_average(f, shape: float, decay: float, epsabs: float = 0.0) -> float:
    """int_0^inf f(u) u^(shape-1) e^(-u) du / Gamma(shape).

    decay is the rate at which f(u) e^(-u) falls off (f may grow like
    e^{(theta + sigma^2/2) nu u}); the upper limit sits far in that tail.
    QUADPACK's error estimate must stay within epsabs or 1e-9 of the value.
    """
    hi = (shape + 14.0 * math.sqrt(shape) + 90.0) / decay
    log_norm = -math.lgamma(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if shape < 1.0:
            val, err = quad(
                lambda u: f(u) * math.exp(-u + log_norm), 0.0, hi,
                weight="alg", wvar=(shape - 1.0, 0.0),
                epsabs=epsabs, epsrel=_EPSREL, limit=500,
            )
        else:
            peak = shape - 1.0
            val, err = quad(
                lambda u: f(u) * math.exp((shape - 1.0) * math.log(u) - u + log_norm)
                if u > 0.0 else 0.0,
                0.0, hi, points=(peak,) if 0.0 < peak < hi else None,
                epsabs=epsabs, epsrel=_EPSREL, limit=500,
            )
    if not err <= max(epsabs, 1e-9 * abs(val)):
        raise OracleError(f"quadrature error estimate {err:.3g} for a value of {val:.3g}")
    return val


def _setup(kind, spot, strike, rate, tau, sigma, nu, theta, trigger, power):
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    m0 = math.log(spot) + (rate + omega(sigma, nu, theta)) * tau
    q = power if kind == "power_asset_or_nothing" else 1.0
    if kind == "gap":
        log_k = math.log(trigger)
    else:
        log_k = math.log(strike) / q
    return m0, q, log_k


def direct(
    kind, side, spot, strike, rate, tau, sigma, nu, theta=0.0, trigger=None, power=1.0, epsabs=0.0
):
    """One side of the payoff integrated straight over the clock, no parity.

    side = +1 is the contract as named (S_T above the strike); side = -1 is
    its complement: the put-side digital, or for european and gap the put
    (strike - S_T)^+ and (strike - S_T) 1{S_T < trigger}.  epsabs is the
    absolute accuracy asked of the undiscounted average.
    """
    m0, q, log_k = _setup(kind, spot, strike, rate, tau, sigma, nu, theta, trigger, power)
    if kind == "log_call" and side != 1:
        raise ValueError("the log call has no complement here")
    grow = max(0.0, q * theta + 0.5 * q * q * sigma * sigma) * nu
    decay = 1.0 if kind in ("cash_or_nothing", "log_call") else 1.0 - grow
    f = _conditional(kind, side, m0, theta, sigma, nu, log_k, strike, q)
    return math.exp(-rate * tau) * _clock_average(f, tau / nu, decay, epsabs)


def price(kind, spot, strike, rate, tau, sigma, nu, theta=0.0, trigger=None, power=1.0):
    """Present value of one contract; arguments follow vgpricer's MarketInputs/VgParams.

    gap pays S_T - strike when S_T > trigger; power_asset_or_nothing pays
    S_T^power when S_T^power > strike; log_call pays (ln S_T - ln strike)^+.
    Out of the money the call side is integrated directly; in the money the
    put side is, and parity gives the price.
    """
    m0, q, log_k = _setup(kind, spot, strike, rate, tau, sigma, nu, theta, trigger, power)
    args = (spot, strike, rate, tau, sigma, nu, theta, trigger, power)
    if m0 - log_k <= 0.0:
        return direct(kind, 1, *args)
    if kind == "log_call":
        raise ValueError("the log call is priced out of the money only")
    disc = math.exp(-rate * tau)
    # the put side only needs accuracy relative to the call-side price it completes
    if kind == "cash_or_nothing":
        whole = disc
    elif kind in ("asset_or_nothing", "power_asset_or_nothing"):
        whole = disc * moment(q, spot, rate, tau, sigma, nu, theta)
    else:  # european and gap: S - strike e^{-r tau} is the value of the whole payoff
        whole = spot - strike * disc
    put_side = direct(kind, -1, *args, epsabs=1e-13 * abs(whole))
    if kind in ("european", "gap"):
        return whole + put_side  # direct() gave E[(strike - S_T) on the lower side], discounted
    return whole - put_side
