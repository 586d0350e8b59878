"""Self-test of the Gamma-mixture oracle: properties any correct pricer has.

    python3 vgbench/selftest.py

Exits 0 when every property holds and 1 otherwise, printing one line per
property.  It imports nothing from vgpricer.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from scipy.integrate import quad

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from vgbench import oracle  # noqa: E402

# (spot, strike, rate, tau, sigma, nu, theta): OTM and ITM, short and long, drifted
CONTRACTS = (
    (100.0, 110.0, 0.02, 0.5, 0.2, 0.3, 0.0),
    (100.0, 90.0, 0.02, 0.5, 0.2, 0.3, 0.0),
    (100.0, 103.0, 0.01, 1.0 / 52.0, 0.25, 0.8, 0.0),
    (100.0, 97.0, 0.01, 1.0 / 52.0, 0.25, 0.8, 0.0),
    (4000.0, 4200.0, 0.01, 2.0, 0.2, 0.85, 0.0),
    (100.0, 120.0, 0.03, 1.5, 0.18, 0.2, -0.1),
    (100.0, 85.0, 0.03, 1.5, 0.18, 0.2, 0.1),
)


def _bs_call(spot, strike, rate, tau, vol):
    sd = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * tau) / sd
    ncdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))  # noqa: E731
    return spot * ncdf(d1) - strike * math.exp(-rate * tau) * ncdf(d1 - sd)


def _close(a, b, rtol, atol=0.0):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def check_parity():
    """asset-or-nothing - K cash-or-nothing = European."""
    worst = 0.0
    for c in CONTRACTS:
        an = oracle.price("asset_or_nothing", *c)
        cn = oracle.price("cash_or_nothing", *c)
        call = oracle.price("european", *c)
        worst = max(worst, abs(an - c[1] * cn - call) / an)
    return worst < 1e-9, f"max |AN - K CN - C| / AN = {worst:.2e}"


def check_digital_sum():
    """Call and put cash digitals sum to e^{-r tau}; asset digitals to S."""
    worst = 0.0
    for c in CONTRACTS:
        disc = math.exp(-c[2] * c[3])
        cn = oracle.direct("cash_or_nothing", 1, *c) + oracle.direct("cash_or_nothing", -1, *c)
        an = oracle.direct("asset_or_nothing", 1, *c) + oracle.direct("asset_or_nothing", -1, *c)
        worst = max(worst, abs(cn - disc) / disc, abs(an - c[0]) / c[0])
    return worst < 1e-9, f"max relative miss of CN+ + CN- = e^(-r tau), AN+ + AN- = S: {worst:.2e}"


def check_zero_strike():
    """As K -> 0 the asset digital tends to S and the cash digital to e^{-r tau}."""
    worst = 0.0
    for spot, _, rate, tau, sigma, nu, theta in CONTRACTS:
        strike = spot * 1e-8
        disc = math.exp(-rate * tau)
        an = oracle.price("asset_or_nothing", spot, strike, rate, tau, sigma, nu, theta)
        cn = oracle.price("cash_or_nothing", spot, strike, rate, tau, sigma, nu, theta)
        worst = max(worst, abs(an - spot) / spot, abs(cn - disc) / disc)
    return worst < 1e-9, f"max relative distance at K = 1e-8 S: {worst:.2e}"


def check_black_scholes_limit():
    """As nu -> 0 the European call converges to Black-Scholes, error shrinking with nu."""
    spot, strike, rate, tau, sigma = 100.0, 105.0, 0.02, 1.0, 0.2
    bs = _bs_call(spot, strike, rate, tau, sigma)
    errors = [
        abs(oracle.price("european", spot, strike, rate, tau, sigma, nu) - bs) / bs
        for nu in (1e-2, 1e-3, 1e-4)
    ]
    ok = errors[0] > errors[1] > errors[2] and errors[2] < 1e-4
    return ok, "relative distance to Black-Scholes at nu = 1e-2, 1e-3, 1e-4: " + ", ".join(
        f"{e:.2e}" for e in errors
    )


def check_homogeneity():
    """Scaling S, K (and the trigger) by f scales a price by f^degree; the benchmark relies on it."""
    f = 1.7
    worst = 0.0
    for spot, strike, rate, tau, sigma, nu, theta in CONTRACTS:
        for kind, degree, k_scale in (
            ("european", 1.0, f),
            ("cash_or_nothing", 0.0, f),
            ("power_asset_or_nothing", 1.5, f**1.5),
        ):
            base = oracle.price(kind, spot, strike, rate, tau, sigma, nu, theta, power=1.5)
            moved = oracle.price(
                kind, spot * f, strike * k_scale, rate, tau, sigma, nu, theta, power=1.5
            )
            worst = max(worst, abs(moved - f**degree * base) / abs(moved))
    return worst < 1e-9, f"max relative miss of price(fS, fK) = f^degree price(S, K): {worst:.2e}"


def check_gap_and_log_call():
    """gap = AN(K2) - K1 CN(K2); the log call is the integral of the cash digital over ln K."""
    spot, rate, tau, sigma, nu = 100.0, 0.02, 0.5, 0.2, 0.3
    k1, k2 = 100.0, 108.0
    gap = oracle.price("gap", spot, k1, rate, tau, sigma, nu, trigger=k2)
    an = oracle.price("asset_or_nothing", spot, k2, rate, tau, sigma, nu)
    cn = oracle.price("cash_or_nothing", spot, k2, rate, tau, sigma, nu)
    gap_miss = abs(gap - (an - k1 * cn)) / gap
    log_call = oracle.price("log_call", spot, k2, rate, tau, sigma, nu)
    strip, _ = quad(
        lambda y: oracle.price("cash_or_nothing", spot, math.exp(y), rate, tau, sigma, nu),
        math.log(k2), math.log(k2) + 4.0, epsabs=0.0, epsrel=1e-10,
    )
    log_miss = abs(log_call - strip) / log_call
    ok = gap_miss < 1e-9 and log_miss < 1e-8
    return ok, f"gap miss {gap_miss:.2e}, log-call miss {log_miss:.2e}"


def main() -> int:
    failed = 0
    for check in (
        check_parity,
        check_digital_sum,
        check_zero_strike,
        check_black_scholes_limit,
        check_homogeneity,
        check_gap_and_log_call,
    ):
        ok, detail = check()
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {check.__name__}: {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
