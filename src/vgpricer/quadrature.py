"""Gauss-Laguerre approximation of the density and the European price.

The Gamma time change turns the transition density into a Gamma mixture of
Gaussians; applying a Gauss-Laguerre rule to the mixing integral replaces it
by a finite convex combination

    f(x, t) ~ sum_i phi(x; theta nu u_i, sigma sqrt(nu u_i)) p(u_i, t/nu)

with mixture weights p(u_i, s) = w_i u_i^{s-1} / sum_j w_j u_j^{s-1}.  The
European call then becomes the same convex combination of Black-Scholes-like
terms, with an approximated martingale adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import softmax

from . import model
from .errors import InvalidParameters
from .model import MarketInputs, PriceResult, VgParams
from .specfun import QuadratureRule, laguerre_rule, normal_cdf

__all__ = ["GlWeights", "gl_weights", "gl_density", "gl_omega", "gl_european"]


@dataclass(frozen=True)
class GlWeights:
    """A Laguerre rule specialised to one Gamma shape: mixture probabilities p_i."""

    rule: QuadratureRule
    shape: float
    p_weights: np.ndarray


def gl_weights(n: int, shape: float) -> GlWeights:
    """Mixture probabilities p(u_i, shape) for the order-n rule: the softmax of
    ln w_i + (shape - 1) ln u_i, so large orders do not overflow.
    """
    if not shape > 0.0:
        raise InvalidParameters(f"shape must be positive, got {shape!r}")
    rule = laguerre_rule(n)
    p = softmax(np.log(rule.weights) + (shape - 1.0) * np.log(rule.nodes))
    return GlWeights(rule=rule, shape=shape, p_weights=p)


def gl_density(params: VgParams, x: float, t: float, n: int) -> float:
    """Gaussian-mixture approximation of the transition density.

    Converges to model.density as the rule order grows; with n = 1 it is the
    single Gaussian phi(x; theta nu, sigma sqrt(nu)).
    """
    gl = gl_weights(n, model._clock_shape("gl_density", t, params.nu))
    if model._off_the_line("gl_density", x):
        return 0.0
    u = gl.rule.nodes
    mean = params.theta * params.nu * u
    std = params.sigma * np.sqrt(params.nu * u)
    # a square that overflows is a Gaussian of 0, and so is one whose std underflows to 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gaussians = np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))
    gaussians[std == 0.0] = 0.0
    return float(np.sum(gaussians * gl.p_weights))


def gl_omega(params: VgParams, t: float, n: int) -> float:
    """Approximated martingale adjustment.

    omega_bar = -(1/t) ln sum_i p(u_i, t/nu) e^{theta nu u_i + sigma^2 nu u_i / 2}.
    """
    return _gl_omega(params, t, gl_weights(n, model._clock_shape("gl_omega", t, params.nu)))


def _gl_omega(params: VgParams, t: float, gl: GlWeights) -> float:
    """gl_omega on a rule already specialised to the shape t/nu.  VgParams keeps
    theta nu + sigma^2 nu / 2 < 1, so no exponent exceeds the largest node, 234.8."""
    u = gl.rule.nodes
    exponents = params.theta * params.nu * u + 0.5 * params.sigma**2 * params.nu * u
    total = float(np.sum(gl.p_weights * np.exp(exponents)))
    if total == 0.0:  # a large negative theta
        raise InvalidParameters("every exp((theta nu + sigma^2 nu / 2) u_i) underflows to 0")
    return -math.log(total) / t


def gl_european(params: VgParams, market: MarketInputs, n: int) -> PriceResult:
    """European call as a convex combination of Black-Scholes prices.

    d1(u_i) = (ln(S/K) + (r + omega_bar) tau + (sigma^2 + theta) nu u_i) / (sigma sqrt(nu u_i)),
    d2 = d1 - sigma sqrt(nu u_i).  The mixing shape tau/nu below 1 puts
    Laguerre nodes against an integrable singularity of the clock density;
    the value is still returned but flagged in the diagnostics.
    """
    derived = model.derive(params, market)
    tau = market.tau
    shape = tau / params.nu
    gl = gl_weights(n, shape)
    u = gl.rule.nodes
    omega_bar = _gl_omega(params, tau, gl)
    vol = params.sigma * np.sqrt(params.nu * u)
    d1 = (
        math.log(market.spot / market.strike)
        + (derived.rate_effective + omega_bar) * tau
        + (params.sigma**2 + params.theta) * params.nu * u
    ) / vol
    d2 = d1 - vol
    growth = np.exp(
        params.theta * params.nu * u + omega_bar * tau + 0.5 * params.sigma**2 * params.nu * u
    )
    value = market.spot * float(np.sum(growth * normal_cdf(d1) * gl.p_weights)) - (
        market.strike
        * derived.discount
        * float(np.sum(normal_cdf(d2) * gl.p_weights))
    )
    warnings = [
        "tau/nu < 1: the Gamma clock density is singular at zero and the "
        "plain Laguerre rule converges slowly"
    ] if shape < 1.0 else []
    return model._price_result(
        "quadrature", value, n, 0.0, derived.branch, {"omega_bar": omega_bar, "order": n}, warnings
    )
