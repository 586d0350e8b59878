"""Variance Gamma process: parameters, density, characteristic function.

The process X(t) is a Brownian motion with drift theta and scale sigma run on
a Gamma clock with unit mean rate and variance rate nu.  The exponential
asset model is S_T = S exp((r + omega) tau + X(tau)) where omega is the
martingale (convexity) adjustment making the discounted price a martingale.

All quantities the pricing formulas keep re-using (forward strike,
log-forward moneyness, rescaled volatility, risk-neutral moneyness, ...) are
collected once in :class:`DerivedQuantities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import kv

from . import specfun
from .errors import BranchCutError, GammaOverflowError, InvalidParameters, NonConvergenceError

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

_TINY = np.finfo(float).tiny
_LOG_MAX = math.log(np.finfo(float).max)


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
        if not self.martingale_argument > 0.0:
            raise InvalidParameters(
                "martingale adjustment undefined: "
                f"1 - theta*nu - sigma^2*nu/2 = {self.martingale_argument:.6g} <= 0"
            )

    @property
    def martingale_argument(self) -> float:
        return 1.0 - self.theta * self.nu - 0.5 * self.sigma**2 * self.nu

    @property
    def is_symmetric(self) -> bool:
        return self.theta == 0.0


@dataclass(frozen=True)
class MarketInputs:
    """Contract and market data for a single pricing request.

    ``trigger_strike`` is the gap-option trigger (the plain strike then acts
    as the payout strike).  ``power`` is the exponent of power payoffs.
    A non-zero ``dividend_yield`` q is handled by the substitution
    r -> r - q inside :func:`derive`; nothing else changes.
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


@dataclass(frozen=True)
class DerivedQuantities:
    """Shorthands shared by every pricer.

    forward_strike   F = K e^{-r tau}
    log_fwd_moneyness k = ln(S / F)
    sigma_nu         rescaled volatility sigma sqrt(nu / 2)
    alpha            tau/nu - 1/2 (order of the Bessel density kernel)
    omega            martingale adjustment
    rn_moneyness     k + omega tau; its sign selects the branch (property ``branch``)
    theta_sigma      theta / sigma^2
    q_factor         1/(2 sigma^2 nu) + (theta / (2 sigma^2))^2  (> 0)
    power_moneyness  ln(S / K^{1/power}) + (r + omega) tau
    rate_effective   r - q (dividend substitution happens here only)
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
    """'atm' within 1e-12 of zero, else 'otm' below zero and 'itm' above."""
    if abs(moneyness) < 1e-12:
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
    if warnings:
        diagnostics["warning"] = "; ".join(warnings)
    return PriceResult(
        value=an.value - market.strike * cn.value,
        method=an.method,
        terms_evaluated=an.terms_evaluated + cn.terms_evaluated,
        truncation_estimate=an.truncation_estimate + market.strike * cn.truncation_estimate,
        branch=an.branch,
        diagnostics=diagnostics,
    )


def martingale_adjustment(params: VgParams) -> float:
    """omega = (1/nu) ln(1 - theta nu - sigma^2 nu / 2).

    Tends to the Gaussian adjustment -sigma^2/2 as nu -> 0 (theta = 0).
    """
    arg = params.martingale_argument
    if not arg > 0.0:
        raise InvalidParameters(
            f"martingale adjustment undefined: log argument {arg:.6g} <= 0"
        )
    # log1p keeps precision in the small-nu (Gaussian) limit
    return math.log1p(-params.theta * params.nu - 0.5 * params.sigma**2 * params.nu) / params.nu


def derive(params: VgParams, market: MarketInputs) -> DerivedQuantities:
    """Populate every derived shorthand for one (params, market) pair."""
    omega = martingale_adjustment(params)
    r_eff = market.rate - market.dividend_yield
    forward_strike = market.strike * math.exp(-r_eff * market.tau)
    k = math.log(market.spot / forward_strike)
    sigma_nu = params.sigma * math.sqrt(params.nu / 2.0)
    alpha = market.tau / params.nu - 0.5
    theta_sigma = params.theta / params.sigma**2
    q_factor = 1.0 / (2.0 * params.sigma**2 * params.nu) + (
        params.theta / (2.0 * params.sigma**2)
    ) ** 2
    power_moneyness = (
        math.log(market.spot / market.strike ** (1.0 / market.power))
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
    )


def density(params: VgParams, x: float, t: float) -> float:
    """Transition density f(x, t) in Bessel form.

    f(x,t) = 2 e^{theta x / sigma^2} / (nu^{t/nu} sqrt(2 pi) sigma Gamma(t/nu))
             * (x^2 / (2 sigma^2/nu + theta^2))^{t/(2 nu) - 1/4}
             * K_{t/nu - 1/2}(sqrt(2 sigma^2/nu + theta^2) |x| / sigma^2)

    At x = 0 the Bessel small-argument limit is substituted analytically
    (finite only for t/nu > 1/2).
    """
    if not t > 0.0:
        raise InvalidParameters(f"density requires t > 0, got {t!r}")
    sigma, nu, theta = params.sigma, params.nu, params.theta
    shape = t / nu
    order = shape - 0.5
    a2 = 2.0 * sigma**2 / nu + theta**2
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
        log_density = log_front - math.log(2.0) + lg_order + order * math.log(2.0 * sigma**2 / a2)
    else:
        z = math.sqrt(a2) * abs(x) / sigma**2
        # log z without forming z, which loses bits once it is subnormal
        log_z = 0.5 * math.log(a2) + math.log(abs(x)) - 2.0 * math.log(sigma)
        bessel = float(kv(order, z)) if z >= _TINY else math.inf
        if bessel == 0.0:
            return 0.0
        log_bessel = math.log(bessel) if bessel < math.inf else specfun._log_bessel_k(order, log_z)
        if min(x * x, x * x / a2) < _TINY:  # x^2 is not a normal double
            log_density = log_front + order * (math.log(abs(x)) - 0.5 * math.log(a2)) + log_bessel
        else:
            log_density = log_front + (0.5 * order) * math.log(x * x / a2) + log_bessel
    if log_density > _LOG_MAX:
        raise GammaOverflowError(f"density({x!r}, {t!r}) overflows double precision")
    return math.exp(log_density)


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
    if not t > 0.0:
        raise InvalidParameters(f"mixture_density requires t > 0, got {t!r}")
    sigma, nu, theta = params.sigma, params.nu, params.theta
    shape = t / nu
    if x == 0.0 and shape <= 0.5:
        raise InvalidParameters("mixture density diverges at x = 0 for t/nu <= 1/2")
    lg_shape, _ = specfun.log_gamma(shape)
    log_norm = -shape * math.log(nu) - lg_shape - 0.5 * math.log(2.0 * math.pi) - math.log(sigma)

    def integrand(y: float) -> float:
        if y <= 0.0:
            return 0.0
        log_val = (
            log_norm
            - 0.5 * math.log(y)
            - (x - theta * y) ** 2 / (2.0 * sigma**2 * y)
            + (shape - 1.0) * math.log(y)
            - y / nu
        )
        return math.exp(log_val)

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


def _check_branch(base: complex, u) -> None:
    if abs(base.imag) < 1e-14 and base.real <= 0.0:
        raise BranchCutError(
            f"characteristic function base lies on the branch cut at u = {u!r}"
        )


def characteristic_fn(params: VgParams, u, t: float):
    """E[e^{i u X(t)}] = (1 - i theta nu u + sigma^2 nu u^2 / 2)^{-t/nu}.

    Principal branch; accepts complex scalars or arrays.  Raises
    :class:`BranchCutError` when the base touches the cut, which is the
    relevant failure mode for damped (complex-shifted) arguments.
    """
    if not t > 0.0:
        raise InvalidParameters(f"characteristic_fn requires t > 0, got {t!r}")
    sigma, nu, theta = params.sigma, params.nu, params.theta
    u_arr = np.asarray(u, dtype=complex)
    base = 1.0 - 1j * theta * nu * u_arr + 0.5 * sigma**2 * nu * u_arr**2
    if u_arr.ndim == 0:
        _check_branch(complex(base), u)
    else:
        bad = (np.abs(base.imag) < 1e-14) & (base.real <= 0.0)
        if np.any(bad):
            _check_branch(complex(base[bad][0]), np.asarray(u)[bad][0])
    result = base ** (-t / nu)
    return complex(result) if u_arr.ndim == 0 else result


def rn_characteristic_fn(params: VgParams, u, t: float):
    """Risk-neutral normalisation e^{i u t omega} Phi(u, t); equals 1 at u = -i."""
    omega = martingale_adjustment(params)
    u_arr = np.asarray(u, dtype=complex)
    result = np.exp(1j * u_arr * t * omega) * characteristic_fn(params, u_arr, t)
    return complex(result) if u_arr.ndim == 0 else result


def _log_characteristic_fn(params: VgParams, xi, t: float):
    """log Phi(xi, t) in factored form, for complex xi off the real axis.

    The base of characteristic_fn factors as (1 - i nu mu_+ xi)(1 + i nu mu_- xi)
    with mu_pm from gamma_decomposition, that is (sigma^2 nu / 2)(xi - i eta_+)(xi - i eta_-)
    with eta_+ = 1/(nu mu_-) and eta_- = -1/(nu mu_+).  One principal log per
    factor puts the cuts on the imaginary axis, up from i eta_+ and down from
    i eta_-, so the result is analytic on every contour between them, where
    the principal power of the unfactored base jumps.  On the real axis it
    agrees with characteristic_fn to rounding.
    """
    gd = gamma_decomposition(params)
    nu = params.nu
    xi = np.asarray(xi, dtype=complex)
    log_base = np.log(1.0 - 1j * nu * gd.mu_plus * xi) + np.log(1.0 + 1j * nu * gd.mu_minus * xi)
    return -(t / nu) * log_base


def levy_symbol(params: VgParams, u) -> complex:
    """Characteristic exponent Psi(u) = (1/nu) log(1 - i theta nu u + sigma^2 nu u^2/2).

    Satisfies exp(-t Psi(u)) = characteristic_fn(u, t) and
    Psi(-i) = martingale_adjustment.
    """
    sigma, nu, theta = params.sigma, params.nu, params.theta
    base = 1.0 - 1j * theta * nu * complex(u) + 0.5 * sigma**2 * nu * complex(u) ** 2
    _check_branch(base, u)
    return complex(np.log(base)) / nu


def levy_measure_density(params: VgParams, x: float) -> float:
    """Levy density e^{theta x / sigma^2} / (nu |x|) e^{-sqrt(theta^2/sigma^2 + 2/nu) |x| / sigma}."""
    if x == 0.0:
        raise InvalidParameters("Levy measure density is undefined at x = 0")
    sigma, nu, theta = params.sigma, params.nu, params.theta
    decay = math.sqrt(theta**2 / sigma**2 + 2.0 / nu) / sigma
    return math.exp(theta * x / sigma**2 - decay * abs(x)) / (nu * abs(x))


def gamma_decomposition(params: VgParams) -> GammaDecomposition:
    """Split parameters of the two-sided Gamma representation.

    mu_pm = sqrt(theta^2 + 2 sigma^2 / nu)/2 +- theta/2, nu_pm = mu_pm^2 nu.
    """
    root = 0.5 * math.sqrt(params.theta**2 + 2.0 * params.sigma**2 / params.nu)
    mu_plus = root + 0.5 * params.theta
    mu_minus = root - 0.5 * params.theta
    return GammaDecomposition(
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        nu_plus=mu_plus**2 * params.nu,
        nu_minus=mu_minus**2 * params.nu,
    )
