"""Variance Gamma process: parameters, density, characteristic function.

The process X(t) is a Brownian motion with drift theta and scale sigma run on
a Gamma clock with unit mean rate and variance rate nu.  The exponential
asset model is S_T = S exp((r + omega) tau + X(tau)) where omega is the
martingale (convexity) adjustment making the discounted price a martingale.

All quantities the pricing formulas keep re-using (discount, forward strike,
log-forward moneyness, rescaled volatility, risk-neutral moneyness, ...) are
collected once in :class:`DerivedQuantities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import specfun
from .errors import BranchCutError, GammaOverflowError, InvalidParameters, NonConvergenceError
from .specfun import _LOG_MAX, _TINY

__all__ = [
    "VgParams",
    "MarketInputs",
    "DerivedQuantities",
    "GammaDecomposition",
    "PriceResult",
    "moneyness_branch",
    "gap_from_digitals",
    "martingale_adjustment",
    "derive",
    "density",
    "mixture_density",
    "characteristic_fn",
    "rn_characteristic_fn",
    "levy_symbol",
    "levy_measure_density",
    "gamma_decomposition",
]

def _pow(x: float, p: float) -> float:
    """x**p for a positive result, or inf where it overflows: Python's float
    power raises there, where numpy and the other float operations give inf."""
    try:
        return x**p
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class VgParams:
    """Model triple: scale sigma (per sqrt-year), kurtosis nu (years), asymmetry theta (per year)."""

    sigma: float
    nu: float
    theta: float = 0.0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise InvalidParameters(f"sigma must be positive, got {self.sigma!r}")
        if not self.nu > 0.0:
            raise InvalidParameters(f"nu must be positive, got {self.nu!r}")
        if not _pow(self.sigma, 2) * self.nu > 0.0:
            raise InvalidParameters(
                f"sigma^2 * nu underflows to 0 at sigma = {self.sigma!r}, nu = {self.nu!r}"
            )
        if not self.martingale_argument > 0.0:
            raise InvalidParameters(
                "martingale adjustment undefined: "
                f"1 - theta*nu - sigma^2*nu/2 = {self.martingale_argument:.6g} <= 0"
            )
        if not math.isfinite(self.theta):  # only -inf passes the check above
            raise InvalidParameters(f"theta must be finite, got {self.theta!r}")

    @property
    def martingale_argument(self) -> float:
        return 1.0 - self.theta * self.nu - 0.5 * _pow(self.sigma, 2) * self.nu

    @property
    def is_symmetric(self) -> bool:
        return self.theta == 0.0


@dataclass(frozen=True)
class MarketInputs:
    """Contract and market data for a single pricing request.

    ``trigger_strike`` is the gap-option trigger (the plain strike then acts
    as the payout strike).  ``power`` is the exponent of power payoffs.
    A non-zero ``dividend_yield`` q replaces r by r - q inside :func:`derive`,
    in the drift and in the discount alike, so every engine's price is the
    dividend-paying price, discounted at r, times e^{q tau}.
    """

    spot: float
    strike: float
    rate: float
    tau: float
    trigger_strike: Optional[float] = None
    dividend_yield: float = 0.0
    power: float = 1.0

    def __post_init__(self):
        if not self.spot > 0.0:
            raise InvalidParameters(f"spot must be positive, got {self.spot!r}")
        if not self.strike > 0.0:
            raise InvalidParameters(f"strike must be positive, got {self.strike!r}")
        if not self.tau > 0.0:
            raise InvalidParameters(f"tau must be positive, got {self.tau!r}")
        if self.trigger_strike is not None and not self.trigger_strike > 0.0:
            raise InvalidParameters("trigger_strike must be positive when given")
        if not self.power >= 1.0:
            raise InvalidParameters(f"power must be >= 1, got {self.power!r}")
        # the sum is finite only if every field is (one that overflows falls through
        # the loop); a check per field costs a pricing loop far more
        if not math.isfinite(self.spot + self.strike + self.rate + self.tau + self.power
                             + self.dividend_yield + (self.trigger_strike or 0.0)):
            for name, value in vars(self).items():
                if value is not None and not math.isfinite(value):
                    raise InvalidParameters(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DerivedQuantities:
    """Shorthands shared by every pricer.

    forward_strike   F = K e^{-r tau} = K discount
    log_fwd_moneyness k = ln(S / F)
    sigma_nu         rescaled volatility sigma sqrt(nu / 2)
    alpha            tau/nu - 1/2 (order of the Bessel density kernel)
    omega            martingale adjustment
    rn_moneyness     k + omega tau; its sign selects the branch (property ``branch``)
    theta_sigma      theta / sigma^2
    q_factor         1/(2 sigma^2 nu) + (theta / (2 sigma^2))^2  (> 0)
    power_moneyness  ln(S / K^{1/power}) + (r + omega) tau
    rate_effective   r - q (dividend substitution happens here only)
    discount         e^{-(r - q) tau}, the one discount every engine applies
    """

    forward_strike: float
    log_fwd_moneyness: float
    sigma_nu: float
    alpha: float
    omega: float
    rn_moneyness: float
    theta_sigma: float
    q_factor: float
    power_moneyness: float
    rate_effective: float
    discount: float

    @property
    def branch(self) -> str:
        return moneyness_branch(self.rn_moneyness)


@dataclass(frozen=True)
class PriceResult:
    """A price plus how it was computed, in the same fields for every engine.

    branch reflects the sign of the moneyness that drove branch selection
    (the risk-neutral moneyness, or its power-payoff analogue).
    terms_evaluated counts series terms, integrand evaluations, quadrature
    nodes or paths; truncation_estimate is the size of what was dropped.
    std_error and ci (the 95% interval) are set by Monte Carlo only.
    """

    value: float
    method: str
    terms_evaluated: int = 0
    truncation_estimate: float = 0.0
    branch: str = "otm"
    diagnostics: dict = field(default_factory=dict)
    std_error: Optional[float] = None
    ci: Optional[tuple[float, float]] = None


@dataclass(frozen=True)
class GammaDecomposition:
    """X(t) as a difference of two Gamma processes with rates (mu, nu) each side."""

    mu_plus: float
    mu_minus: float
    nu_plus: float
    nu_minus: float


def moneyness_branch(moneyness: float) -> str:
    """'atm' within 2e-15 of zero, the rounding of k_rn = ln(S/F) + omega tau
    (about 1e-16 to 1e-15); else 'otm' below zero and 'itm' above.  A wider
    band misprices digitals where 2 tau / nu is small and the density, about
    |x|^(2 tau/nu - 1), puts most of its mass within 1e-12 of zero."""
    if abs(moneyness) < 2e-15:
        return "atm"
    return "otm" if moneyness < 0.0 else "itm"


def gap_from_digitals(
    market: MarketInputs,
    asset_or_nothing: Callable[[MarketInputs], PriceResult],
    cash_or_nothing: Callable[[MarketInputs], PriceResult],
) -> PriceResult:
    """Gap call paying S_T - K1 when S_T > K2, as AN(K2) - K1 CN(K2).

    The two digitals come from any one engine and are called with the
    market struck at the trigger K2.  Boolean diagnostics present in both
    legs are ANDed, each leg's warning is kept, and terms and truncation
    estimates add up (the cash leg's scaled by K1).
    """
    if market.trigger_strike is None:
        raise InvalidParameters("gap pricing requires trigger_strike (K2)")
    trigger_market = replace(market, strike=market.trigger_strike, trigger_strike=None)
    an = asset_or_nothing(trigger_market)
    cn = cash_or_nothing(trigger_market)
    diagnostics = {**cn.diagnostics, **an.diagnostics}
    for key in an.diagnostics.keys() & cn.diagnostics.keys():
        if isinstance(an.diagnostics[key], bool) and isinstance(cn.diagnostics[key], bool):
            diagnostics[key] = an.diagnostics[key] and cn.diagnostics[key]
    warnings = [
        f"{leg} leg: {result.diagnostics['warning']}"
        for leg, result in (("asset", an), ("cash", cn))
        if "warning" in result.diagnostics
    ]
    return _price_result(
        an.method, an.value - market.strike * cn.value, an.terms_evaluated + cn.terms_evaluated,
        an.truncation_estimate + market.strike * cn.truncation_estimate, an.branch, diagnostics,
        warnings,
    )


def _price_result(method, value, terms, estimate, branch, diagnostics, warnings=(), **interval):
    """The one way every engine builds its PriceResult: warnings, if any, join into
    diagnostics["warning"], and a value, truncation estimate, std_error or ci end
    that is not finite raises NonConvergenceError carrying the result."""
    if warnings:
        diagnostics["warning"] = "; ".join(warnings)
    result = PriceResult(value, method, terms, estimate, branch, diagnostics, **interval)
    numbers = [("value", value), ("truncation_estimate", estimate)]
    if interval:
        numbers += [("std_error", result.std_error), *(("ci", end) for end in result.ci)]
    for name, x in numbers:
        if not math.isfinite(x):
            raise NonConvergenceError(f"{method} {name} {x} is not finite", result=result)
    return result


def martingale_adjustment(params: VgParams) -> float:
    """omega = (1/nu) ln(1 - theta nu - sigma^2 nu / 2).

    Tends to the Gaussian adjustment -sigma^2/2 as nu -> 0 (theta = 0).
    VgParams has already checked that the log argument is positive.
    """
    # log1p keeps precision in the small-nu (Gaussian) limit
    return math.log1p(-params.theta * params.nu - 0.5 * params.sigma**2 * params.nu) / params.nu


def _clock_shape(name: str, t: float, nu: float) -> float:
    """t/nu, the Gamma clock's shape at t, for every engine and every function of
    a horizon; InvalidParameters unless t > 0 (naming the caller) and t/nu is finite."""
    if not t > 0.0:
        raise InvalidParameters(f"{name} requires t > 0, got {t!r}")
    shape = t / nu
    if not math.isfinite(shape):
        raise InvalidParameters(f"the clock shape t/nu = {t!r}/{nu!r} is not finite")
    return shape


def _off_the_line(name: str, x: float) -> bool:
    """Whether a density at x is 0, that is, x = +-inf; InvalidParameters at a NaN x."""
    if math.isnan(x):
        raise InvalidParameters(f"{name} requires a real x, got {x!r}")
    return math.isinf(x)


def _power_moment_base(params: VgParams, q: float) -> float:
    """1 - theta nu q - sigma^2 nu q^2 / 2, the base of E[e^{q X(t)}] = base^(-t/nu);
    InvalidParameters unless it is positive, that is, unless E[S_T^q] exists."""
    base = 1.0 - params.theta * params.nu * q - 0.5 * _pow(q * params.sigma, 2) * params.nu
    if not base > 0.0:
        raise InvalidParameters(f"the power moment E[S^{q}] does not exist for these parameters")
    return base


def derive(params: VgParams, market: MarketInputs) -> DerivedQuantities:
    """Populate every derived shorthand for one (params, market) pair."""
    omega = martingale_adjustment(params)
    r_eff = market.rate - market.dividend_yield
    exponent = -r_eff * market.tau
    discount = math.exp(exponent) if exponent < _LOG_MAX else math.inf
    forward_strike = market.strike * discount
    if not 0.0 < forward_strike < math.inf:
        raise InvalidParameters(
            f"the forward strike K e^(-(r - q) tau) = {market.strike!r} e^{exponent!r} leaves"
            " the double range"
        )
    power_strike = market.strike ** (1.0 / market.power)
    for name, denominator in (("S/F", forward_strike), ("S/K^(1/p)", power_strike)):
        if not 0.0 < market.spot / denominator < math.inf:
            raise InvalidParameters(
                f"the ratio {name} = {market.spot!r}/{denominator!r} leaves the double range"
            )
    k = math.log(market.spot / forward_strike)
    sigma_nu = params.sigma * math.sqrt(params.nu / 2.0)
    alpha = _clock_shape("derive", market.tau, params.nu) - 0.5
    theta_sigma = params.theta / params.sigma**2
    q_factor = 1.0 / (2.0 * params.sigma**2 * params.nu) + _pow(
        params.theta / (2.0 * params.sigma**2), 2
    )
    power_moneyness = (
        math.log(market.spot / power_strike)
        + (r_eff + omega) * market.tau
    )
    return DerivedQuantities(
        forward_strike=forward_strike,
        log_fwd_moneyness=k,
        sigma_nu=sigma_nu,
        alpha=alpha,
        omega=omega,
        rn_moneyness=k + omega * market.tau,
        theta_sigma=theta_sigma,
        q_factor=q_factor,
        power_moneyness=power_moneyness,
        rate_effective=r_eff,
        discount=discount,
    )


def density(params: VgParams, x: float, t: float) -> float:
    """Transition density f(x, t) in Bessel form.

    f(x,t) = 2 e^{theta x / sigma^2} / (nu^{t/nu} sqrt(2 pi) sigma Gamma(t/nu))
             * (x^2 / (2 sigma^2/nu + theta^2))^{t/(2 nu) - 1/4}
             * K_{t/nu - 1/2}(sqrt(2 sigma^2/nu + theta^2) |x| / sigma^2)

    At x = 0 the Bessel small-argument limit is substituted analytically
    (finite only for t/nu > 1/2).  Like every density here, it is 0 at
    x = +-inf and InvalidParameters at a NaN x (_off_the_line).
    """
    sigma, nu, theta = params.sigma, params.nu, params.theta
    shape = _clock_shape("density", t, nu)
    if _off_the_line("density", x):
        return 0.0
    order = shape - 0.5
    a2 = 2.0 * sigma**2 / nu + _pow(theta, 2)
    # log a2 in logs where a2 is not a normal double (2 sigma^2/nu and theta^2 underflow)
    log_a2 = math.log(a2) if a2 >= _TINY else float(np.logaddexp(
        math.log(2.0) + 2.0 * math.log(sigma) - math.log(nu),
        2.0 * math.log(abs(theta)) if theta else -math.inf,
    ))
    lg_shape, _ = specfun.log_gamma(shape)
    log_front = (
        math.log(2.0)
        + theta * x / sigma**2
        - shape * math.log(nu)
        - 0.5 * math.log(2.0 * math.pi)
        - math.log(sigma)
        - lg_shape
    )
    if x == 0.0:
        if order <= 0.0:
            raise InvalidParameters(
                "density diverges at x = 0 for t/nu <= 1/2"
            )
        # limit of (x^2/a2)^{order/2} K_order(c|x|): Gamma(order)/2 * (2 sigma^2 / a2)^order
        lg_order, _ = specfun.log_gamma(order)
        if a2 >= _TINY:
            ratio = 2.0 * sigma**2 / a2  # 0 once theta^2 overflows, and so is the density
            log_ratio = math.log(ratio) if ratio > 0.0 else -math.inf
        else:
            log_ratio = math.log(2.0) + 2.0 * math.log(sigma) - log_a2
        log_density = log_front - math.log(2.0) + lg_order + order * log_ratio
    else:
        z = math.sqrt(a2) * abs(x) / sigma**2
        # log z without forming z, which loses bits once it is subnormal
        log_z = 0.5 * log_a2 + math.log(abs(x)) - 2.0 * math.log(sigma)
        log_bessel = specfun._log_k(order, z, log_z)
        if a2 < _TINY or min(x * x, x * x / a2) < _TINY:  # x^2 or a2 is not a normal double
            log_density = log_front + order * (math.log(abs(x)) - 0.5 * log_a2) + log_bessel
        else:
            log_density = log_front + (0.5 * order) * math.log(x * x / a2) + log_bessel
    return specfun._exp(log_density, f"density({x!r}, {t!r})")


def mixture_density(params: VgParams, x: float, t: float) -> float:
    """Transition density as a Gamma mixture of Gaussians (independent oracle).

    Integrates N(x; theta y, sigma^2 y) against the Gamma(t/nu, nu) clock
    density with adaptive quadrature, absolute tolerance 1e-10.  The interval
    is split at the clock's mode, so the clock's mass (width sqrt(t nu)) is
    found at long horizons too, and ends 14 sqrt(t/nu) + 90 scale lengths past
    the clock's mean, where the Gamma tail is below e^-100.  Raises
    NonConvergenceError when quad reports that it did not converge, and
    InvalidParameters at x = 0 for t/nu <= 1/2, where the density diverges.
    """
    sigma, nu, theta = params.sigma, params.nu, params.theta
    shape = _clock_shape("mixture_density", t, nu)
    if _off_the_line("mixture_density", x):
        return 0.0
    if x == 0.0 and shape <= 0.5:
        raise InvalidParameters("mixture density diverges at x = 0 for t/nu <= 1/2")
    lg_shape, _ = specfun.log_gamma(shape)
    log_norm = -shape * math.log(nu) - lg_shape - 0.5 * math.log(2.0 * math.pi) - math.log(sigma)
    what = f"mixture_density({x!r}, {t!r})"

    def integrand(y: float) -> float:  # quad takes interior nodes only: y > 0
        variance = 2.0 * sigma**2 * y
        if not variance > 0.0:  # y or sigma^2 y rounds to 0: the kernel is a point mass
            return 0.0
        log_val = (
            log_norm
            - 0.5 * math.log(y)
            - _pow(x - theta * y, 2) / variance
            + (shape - 1.0) * math.log(y)
            - y / nu
        )
        return specfun._exp(log_val, what)

    # imported here, not at module level: loading scipy.integrate costs a
    # one-shot CLI process about 0.2 s, and only this oracle needs it
    from scipy.integrate import quad
    mode = (shape - 1.0) * nu
    hi = (shape + 14.0 * math.sqrt(shape) + 90.0) * nu
    points = (mode,) if mode > 0.0 else None
    value, _, _, *failure = quad(
        integrand, 0.0, hi, points=points, epsabs=1e-10, epsrel=1e-10, limit=400, full_output=1
    )
    if failure:  # quad appends a message only when it did not converge
        raise NonConvergenceError(f"mixture_density({x!r}, {t!r}): {failure[0].splitlines()[0]}")
    return value


def _branch_points(params: VgParams) -> tuple[float, float]:
    """(eta_-, eta_+) = (-1/(nu mu_+), 1/(nu mu_-)), the one rule for the VG law's tails:
    Phi is analytic for eta_- < Im u < eta_+, the Fourier contour bends toward them,
    a_max is -eta_- - 1 and the Levy density falls as e^{eta_- x} for x > 0 and
    e^{eta_+ x} for x < 0.  A rate that rounds to 0 puts its branch point at
    infinity; a rate that is not finite is InvalidParameters."""
    gd = gamma_decomposition(params)
    if not (math.isfinite(gd.mu_plus) and math.isfinite(gd.mu_minus)):
        raise InvalidParameters(
            f"Gamma rates mu_+ = {gd.mu_plus!r} and mu_- = {gd.mu_minus!r} must both be finite"
        )
    eta_minus = -1.0 / (params.nu * gd.mu_plus) if gd.mu_plus > 0.0 else -math.inf
    eta_plus = 1.0 / (params.nu * gd.mu_minus) if gd.mu_minus > 0.0 else math.inf
    return eta_minus, eta_plus


def _log_base(params: VgParams, u):
    """log(1 - i theta nu u + sigma^2 nu u^2 / 2) as log(1 - i nu mu_+ u) + log(1 + i nu mu_- u),
    whose cuts lie on the imaginary axis outside (eta_-, eta_+); u^2 is never formed."""
    gd = gamma_decomposition(params)
    nu = params.nu
    u = np.asarray(u, dtype=complex)
    return np.log(1.0 - 1j * nu * gd.mu_plus * u) + np.log(1.0 + 1j * nu * gd.mu_minus * u)


def _off_the_cuts(name: str, params: VgParams, u, value):
    """value(u, _log_base(params, u)), a complex at a scalar u: InvalidParameters at a u that
    is not finite, BranchCutError on a cut, GammaOverflowError at a value that is not finite."""
    u = np.asarray(u, dtype=complex)
    bad = ~np.isfinite(u)
    if bad.any():
        raise InvalidParameters(f"{name} requires a finite u, got u = {complex(u[bad][0])!r}")
    eta_minus, eta_plus = _branch_points(params)
    bad = (u.real == 0.0) & ~((eta_minus < u.imag) & (u.imag < eta_plus))
    if bad.any():
        raise BranchCutError(
            f"characteristic function base lies on the branch cut at u = {complex(u[bad][0])!r}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        result = value(u, _log_base(params, u))
    bad = ~np.isfinite(result)
    if bad.any():
        raise GammaOverflowError(f"{name} at u = {complex(u[bad][0])!r} overflows double precision")
    return complex(result) if u.ndim == 0 else result


def characteristic_fn(params: VgParams, u, t: float):
    """E[e^{i u X(t)}] = (1 - i theta nu u + sigma^2 nu u^2 / 2)^{-t/nu} = exp(-(t/nu) _log_base).

    Accepts complex scalars or arrays.  Raises :class:`BranchCutError` on the
    cuts, the imaginary axis outside (eta_-, eta_+), the relevant failure mode
    for damped (complex-shifted) arguments; InvalidParameters at a u that is
    not finite, and GammaOverflowError where the value is not finite.
    """
    shape = _clock_shape("characteristic_fn", t, params.nu)
    return _off_the_cuts("characteristic_fn", params, u, lambda u, log: np.exp(-shape * log))


def rn_characteristic_fn(params: VgParams, u, t: float):
    """Risk-neutral normalisation e^{i u t omega} Phi(u, t), taken as one exponential
    with the cuts and errors of characteristic_fn; equals 1 at u = -i."""
    shape = _clock_shape("rn_characteristic_fn", t, params.nu)
    omega = martingale_adjustment(params)
    return _off_the_cuts(
        "rn_characteristic_fn", params, u, lambda u, log: np.exp(1j * u * t * omega - shape * log)
    )


def levy_symbol(params: VgParams, u):
    """Characteristic exponent Psi(u) = (1/nu) log(1 - i theta nu u + sigma^2 nu u^2/2).

    _log_base / nu, at complex scalars or arrays, with the cuts and errors of
    characteristic_fn.  Satisfies exp(-t Psi(u)) = characteristic_fn(u, t) and
    Psi(-i) = martingale_adjustment.
    """
    return _off_the_cuts("levy_symbol", params, u, lambda u, log: log / params.nu)


def levy_measure_density(params: VgParams, x: float) -> float:
    """Levy density e^{eta x} / (nu |x|), eta = eta_- for x > 0 and eta_+ for x < 0,
    taken in logs; GammaOverflowError where it overflows."""
    if _off_the_line("levy_measure_density", x):
        return 0.0
    if x == 0.0:
        raise InvalidParameters("Levy measure density is undefined at x = 0")
    eta_minus, eta_plus = _branch_points(params)
    log_density = (eta_minus if x > 0.0 else eta_plus) * x - math.log(params.nu) - math.log(abs(x))
    return specfun._exp(log_density, f"levy_measure_density({x!r})")


def gamma_decomposition(params: VgParams) -> GammaDecomposition:
    """Split parameters of the two-sided Gamma representation.

    mu_pm = sqrt(theta^2 + 2 sigma^2 / nu)/2 +- theta/2, nu_pm = mu_pm^2 nu.
    """
    root = 0.5 * math.sqrt(_pow(params.theta, 2) + 2.0 * params.sigma**2 / params.nu)
    mu_plus = root + 0.5 * params.theta
    mu_minus = root - 0.5 * params.theta
    return GammaDecomposition(
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        nu_plus=_pow(mu_plus, 2) * params.nu,
        nu_minus=_pow(mu_minus, 2) * params.nu,
    )
