"""Inputs, requests and checks of the three benchmark workloads.

Every input is drawn from ``random.Random`` seeded by a string built from
the workload seed, so one seed always gives the same inputs.  The timed
loop (run.py) sends whole passes of requests, which keeps the failed share
of a run exact.

smile_slices and random_book replay a fixed pool, and every request carries
its own spot multiplier f (fresh for each pass), so no two requests of a run
price the same inputs.  Prices are homogeneous in (S, K): scaling spot,
strike and trigger by f scales a price by f^degree (degree 1 for European,
asset-or-nothing and gap, q for the power digital, 0 for the digitals and
the log call).  The oracle therefore integrates each pool contract once and
the check scales it.  engine_crosscheck draws fresh contracts every pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, replace

from . import oracle

SMILE_STRIKES = 41
SMILE_MATURITIES = tuple((1.0 / 52.0) * 104.0 ** (i / 11.0) for i in range(12))
SMILE_DRAWS = 3
BOOK_CONTRACTS = 168
BOOK_POOL = 16
CROSS_RANDOM = 4
# z = k_rn / sigma_nu bounds the risk-neutral moneyness in rescaled-volatility units
BOOK_Z = 3.75
ASYM_Z = 3.5
CROSS_Z = 3.5
SPOT_SPREAD = 0.7
ALPHA_MARGIN = 0.01

SERIES_RTOL = 1e-6
MC_SIGMAS = 5.0
FOURIER_FLOOR = 1e-7
GL_RTOL = 1e-2


@dataclass(frozen=True)
class Contract:
    """One contract; kind names the vgpricer.series function that prices it."""

    kind: str
    spot: float
    strike: float
    rate: float
    tau: float
    sigma: float
    nu: float
    theta: float = 0.0
    trigger: float | None = None
    power: float = 1.0
    named_fault: bool = False

    @property
    def oracle_kind(self) -> str:
        return "cash_or_nothing" if self.kind == "asym_cash_or_nothing" else self.kind

    @property
    def degree(self) -> float:
        if self.kind in ("european", "asset_or_nothing", "gap"):
            return 1.0
        return self.power if self.kind == "power_asset_or_nothing" else 0.0

    def scaled(self, f: float) -> "Contract":
        if f == 1.0:
            return self
        return replace(
            self,
            spot=self.spot * f,
            strike=self.strike * f ** (self.power if self.kind == "power_asset_or_nothing" else 1.0),
            trigger=None if self.trigger is None else self.trigger * f,
        )

    def oracle_price(self) -> float:
        return oracle.price(
            self.oracle_kind, self.spot, self.strike, self.rate, self.tau,
            self.sigma, self.nu, self.theta, self.trigger, self.power,
        )


def _rng(workload: str, seed: int, *tags) -> random.Random:
    return random.Random("/".join([workload, str(seed), *map(str, tags)]))


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms on [0, 1), one in each of n equal strata, in random order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(i + rng.random()) / n for i in order]


def _clear_alpha(tau: float, nu: float) -> float:
    """nu, moved so that alpha = tau/nu - 1/2 is ALPHA_MARGIN or more from every multiple of 1/2.

    Closer than about 1e-3 the series misses the oracle on some draws, while
    only 1e-8 is rejected (see the FOUND line in CHANGES.md).
    """
    alpha = tau / nu - 0.5
    nearest = round(2.0 * alpha) / 2.0
    if abs(alpha - nearest) >= ALPHA_MARGIN:
        return nu
    return tau / (nearest + math.copysign(ALPHA_MARGIN, alpha - nearest) + 0.5)


def _sigma_nu(sigma: float, nu: float) -> float:
    return sigma * math.sqrt(nu / 2.0)


def _strike_at(z, spot, rate, tau, sigma, nu, theta=0.0, power=1.0):
    """Strike whose risk-neutral moneyness is z sigma_nu (K^(1/q) for the power digital)."""
    drift = (rate + oracle.omega(sigma, nu, theta)) * tau
    return (spot * math.exp(drift - z * _sigma_nu(sigma, nu))) ** power


# ---------------------------------------------------------------------------
# smile_slices
# ---------------------------------------------------------------------------


def smile_pool(seed: int) -> list[tuple[Contract, ...]]:
    """SMILE_DRAWS parameter draws x 12 maturities, 41 strikes x 4 payoffs each.

    sigma in [0.24, 0.30] and nu in [0.6, 0.9] keep every strike with
    |ln K/F| <= 0.4 inside |k_rn| / sigma_nu < 3.8.  The drifted digital uses
    theta = x sigma sqrt(2/nu) with 0.05 <= |x| <= 0.2, the sign alternating
    between draws.  The draws are stratified, one per stratum of each range.
    """
    pool = []
    rng = _rng("smile_slices", seed)
    sigmas, nus, rates, xs = (_strata(rng, SMILE_DRAWS) for _ in range(4))
    for d in range(SMILE_DRAWS):
        sigma = 0.24 + 0.06 * sigmas[d]
        nu = 0.6 + 0.3 * nus[d]
        rate = 0.04 * rates[d]
        x = (0.05 + 0.15 * xs[d]) * (1.0 if d % 2 else -1.0)
        theta = x * sigma * math.sqrt(2.0 / nu)
        for tau in SMILE_MATURITIES:
            nu_tau = _clear_alpha(tau, nu)
            forward = 100.0 * math.exp(rate * tau)
            ops = []
            for i in range(SMILE_STRIKES):
                strike = forward * math.exp(-0.4 + 0.8 * i / (SMILE_STRIKES - 1))
                for kind in ("european", "cash_or_nothing", "asset_or_nothing"):
                    ops.append(Contract(kind, 100.0, strike, rate, tau, sigma, nu_tau))
                ops.append(
                    Contract("asym_cash_or_nothing", 100.0, strike, rate, tau, sigma, nu_tau, theta)
                )
            pool.append(tuple(ops))
    return pool


# ---------------------------------------------------------------------------
# random_book
# ---------------------------------------------------------------------------

BOOK_KINDS = (
    "european",
    "cash_or_nothing",
    "asset_or_nothing",
    "asym_cash_or_nothing",
    "gap",
    "power_asset_or_nothing",
    "log_call",
)

# |k_rn| / sigma_nu >= 5: the series claims convergence and returns a wrong price
WING_CONTRACTS = tuple(
    Contract(kind, spot, strike, 0.01, tau, sigma, nu, named_fault=True)
    for spot, strike, tau, sigma, nu in (
        (100.0, 145.0, 0.7, 0.17, 0.13),
        (4000.0, 8000.0, 2.0, 0.2, 0.85),
    )
    for kind in ("european", "asset_or_nothing")
)


def book_contract(kind: str, u) -> Contract:
    """A contract of the given kind from six uniforms on [0, 1), inside the validated domain."""
    sigma = 0.12 + 0.23 * u[0]
    nu = 0.08 + 0.72 * u[1]
    tau = (1.0 / 52.0) * 104.0 ** u[2]
    nu = _clear_alpha(tau, nu)
    rate = 0.05 * u[3]
    theta = 0.0
    power = 1.0
    trigger = None
    z_max = BOOK_Z
    if kind == "asym_cash_or_nothing":
        x = 0.05 + 0.3 * abs(u[5] - 0.5)  # |x| in [0.05, 0.2], sign from the half
        theta = (x if u[5] >= 0.5 else -x) * sigma * math.sqrt(2.0 / nu)
        z_max = ASYM_Z
    if kind == "power_asset_or_nothing":
        power = 1.0 + u[5]
    if kind == "log_call":
        z = -0.05 - (z_max - 0.05) * u[4]
    else:
        z = z_max * (2.0 * u[4] - 1.0)
    strike = _strike_at(z, 100.0, rate, tau, sigma, nu, theta, power)
    if kind == "gap":
        trigger = strike
        strike = trigger * (0.8 + 0.2 * u[5])  # K1 <= K2 keeps the gap above the call
    return Contract(kind, 100.0, strike, rate, tau, sigma, nu, theta, trigger, power)


def book_pool(seed: int) -> list[tuple[Contract, ...]]:
    """BOOK_POOL books of BOOK_CONTRACTS random contracts plus the wing set.

    Each book holds the same number of each kind, interleaved, and each
    kind's parameters are Latin-hypercube draws over the domain, so the cost
    of a book varies little from seed to seed.
    """
    per_kind = BOOK_CONTRACTS // len(BOOK_KINDS)
    pool = []
    for b in range(BOOK_POOL):
        rng = _rng("random_book", seed, b)
        groups = []
        for kind in BOOK_KINDS:
            columns = [_strata(rng, per_kind) for _ in range(6)]
            groups.append([book_contract(kind, u) for u in zip(*columns)])
        ops = [c for row in zip(*groups) for c in row]
        pool.append(tuple(ops) + WING_CONTRACTS)
    return pool


def spot_factors(workload: str, seed: int, pass_index: int, n: int) -> list[float]:
    rng = _rng(workload, seed, "spot", pass_index)
    return [math.exp(rng.uniform(-SPOT_SPREAD, SPOT_SPREAD)) for _ in range(n)]


def run_series_request(series, error_type, ops, factor):
    """Price every op of one request through the ``vgpricer.series`` module.

    Returns the value, or the exception's name, per op.
    """
    out = []
    for c in ops:
        if not c.named_fault:
            c = c.scaled(factor)
        params = series.VgParams(sigma=c.sigma, nu=c.nu, theta=c.theta)
        market = series.MarketInputs(
            spot=c.spot, strike=c.strike, rate=c.rate, tau=c.tau,
            trigger_strike=c.trigger, power=c.power,
        )
        try:
            out.append(getattr(series, c.kind)(params, market).value)
        except error_type as err:
            out.append(type(err).__name__)
    return out


def check_series_request(ops, factor, values, oracle_cache):
    """Yield (passed, named_fault) per op: within SERIES_RTOL of the scaled oracle."""
    for c, value in zip(ops, values):
        f = 1.0 if c.named_fault else factor
        ref = oracle_cache.get(c)
        if ref is None:
            ref = oracle_cache[c] = c.oracle_price()
        ref *= f ** c.degree
        ok = isinstance(value, float) and abs(value - ref) <= SERIES_RTOL * abs(ref)
        yield ok, c.named_fault


# ---------------------------------------------------------------------------
# engine_crosscheck
# ---------------------------------------------------------------------------

CROSS_PAYOFFS = ("european", "cash-or-nothing", "asset-or-nothing")
# engines `price --method all` runs per payoff
CROSS_METHODS = {
    "european": ("series", "fourier", "quadrature", "monte_carlo"),
    "cash-or-nothing": ("series", "fourier", "monte_carlo"),
    "asset-or-nothing": ("series", "fourier", "monte_carlo"),
}
# Lewis cash digital below zero; the series needs max_order 60 at this contract
LEWIS_FAULT = Contract("european", 2000.0, 4000.0, 0.01, 1.0 / 52.0, 0.2, 0.85, named_fault=True)
LEWIS_FAULT_MAX_ORDER = 60


def draw_cross_contract(rng: random.Random) -> Contract:
    """Symmetric-model contract with tau/nu >= 0.5, |z| <= CROSS_Z and |ln(S/F)| <= 0.28.

    The last bound keeps the Lewis panels at their 2.0 width cap, so every
    request integrates over the same number of panels.
    """
    sigma = rng.uniform(0.15, 0.3)
    nu = rng.uniform(0.1, 0.5)
    tau = rng.uniform(max(0.25, 0.5 * nu), 2.0)
    nu = _clear_alpha(tau, nu)
    rate = rng.uniform(0.0, 0.04)
    spot = 100.0 * math.exp(rng.uniform(-SPOT_SPREAD, SPOT_SPREAD))
    drift = oracle.omega(sigma, nu, 0.0) * tau
    s_nu = _sigma_nu(sigma, nu)
    z_lo = max(-CROSS_Z, (-0.28 + drift) / s_nu)
    z_hi = min(CROSS_Z, (0.28 + drift) / s_nu)
    z = rng.uniform(z_lo, z_hi)
    return Contract("european", spot, _strike_at(z, spot, rate, tau, sigma, nu), rate, tau, sigma, nu)


def cross_pass(seed: int, pass_index: int) -> list[Contract]:
    rng = _rng("engine_crosscheck", seed, pass_index)
    return [LEWIS_FAULT] + [draw_cross_contract(rng) for _ in range(CROSS_RANDOM)]


def cross_argv(c: Contract, payoff: str) -> list[str]:
    argv = [
        "price", "--payoff", payoff, "--method", "all",
        "--spot", repr(c.spot), "--strike", repr(c.strike), "--rate", repr(c.rate),
        "--tau", repr(c.tau), "--sigma", repr(c.sigma), "--nu", repr(c.nu), "--theta", "0.0",
    ]
    if c.named_fault:
        argv += ["--max-order", str(LEWIS_FAULT_MAX_ORDER)]
    return argv


def run_cross_request(cli, c: Contract):
    """Three in-process CLI calls; returns (exit code, stdout text) per payoff."""
    out = []
    for payoff in CROSS_PAYOFFS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cross_argv(c, payoff))
        out.append((code, buf.getvalue()))
    return out


def _fourier_tolerance(c: Contract, scale: float) -> float:
    """|Phi(u_max)| / (pi u_max |k_rn|) times the payoff scale, plus an absolute floor.

    Every integrand (Carr-Madan, both Lewis digitals) oscillates like
    e^{i u k_rn}, so the risk-neutral moneyness sets the truncation tail.
    """
    u_max = 1e4
    phi = (1.0 + 0.5 * c.sigma**2 * c.nu * u_max**2) ** (-c.tau / c.nu)
    k_rn = math.log(c.spot / c.strike) + (c.rate + oracle.omega(c.sigma, c.nu, 0.0)) * c.tau
    return scale * (phi / (math.pi * u_max * max(abs(k_rn), 1e-12)) + FOURIER_FLOOR)


def check_cross_request(c: Contract, outputs, oracle_cache):
    """Yield (passed, named_fault) per engine price; a failed CLI call fails all its engines."""
    refs = oracle_cache.get(c)
    if refs is None:
        refs = oracle_cache[c] = {
            p: oracle.price(p.replace("-", "_"), c.spot, c.strike, c.rate, c.tau, c.sigma, c.nu)
            for p in CROSS_PAYOFFS
        }
    discount = math.exp(-c.rate * c.tau)
    for payoff, (code, text) in zip(CROSS_PAYOFFS, outputs):
        methods = CROSS_METHODS[payoff]
        records = {}
        if code == 0:
            for line in text.splitlines():
                record = json.loads(line)
                records[record["method"]] = record
        ref = refs[payoff]
        upper = {"european": c.spot, "cash-or-nothing": discount, "asset-or-nothing": c.spot}[payoff]
        lower = max(0.0, c.spot - c.strike * discount) if payoff == "european" else 0.0
        scale = discount if payoff == "cash-or-nothing" else c.spot
        for method in methods:
            record = records.get(method)
            fault = c.named_fault and payoff == "cash-or-nothing" and method == "fourier"
            if record is None:
                yield False, fault
                continue
            value = record["value"]
            if method == "series":
                ok = abs(value - ref) <= SERIES_RTOL * abs(ref)
            elif method == "monte_carlo":
                ok = abs(value - ref) <= MC_SIGMAS * record["std_error"]
            else:
                ok = lower <= value <= upper
                if method == "fourier":
                    ok = ok and abs(value - ref) <= _fourier_tolerance(c, scale)
                elif c.tau / c.nu >= 1.0:
                    ok = ok and abs(value - ref) <= GL_RTOL * ref
            yield ok, fault
