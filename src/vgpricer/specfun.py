"""Special-function kernel.

The handful of special functions the pricing engines need:

* log-Gamma with sign tracking, valid on the whole real axis away from the
  poles at 0, -1, -2, ...  (``scipy.special.gammaln``/``gammasgn``, with the
  poles mapped to a fixed convention),
* Gamma itself, with explicit overflow reporting,
* the modified Bessel function of the second kind K_a(x) for real order
  (``scipy.special.kv``, with explicit overflow reporting), and its log from
  log x alone where ``kv`` overflows or x is subnormal,
* the standard normal CDF,
* Gauss-Laguerre rules for int_0^inf f(u) e^{-u} du (``scipy.special.roots_laguerre``).

Everything here is pure and reentrant.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaln, gammasgn, kv, roots_laguerre

from .errors import GammaOverflowError, InvalidParameters, PoleError

__all__ = [
    "QuadratureRule",
    "log_gamma",
    "gamma",
    "bessel_k",
    "normal_cdf",
    "laguerre_rule",
]

_POLE_GUARD = 1e-12
_SQRT2 = math.sqrt(2.0)
_LOG_K_STEP = 0.025  # trapezoid step in t; above order 600 it shrinks like 1/sqrt(order)
_LOG_K_WINDOW = 800.0  # nodes kept: log-integrand within this of its peak
_LOG_K_MAX_NODES = 2**15


def _log_gamma_signed(x) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised (ln|Gamma(x)|, sign Gamma(x)); poles give (+inf, 0).

    Internal workhorse: series evaluators rely on the pole convention to
    zero out terms whose denominator Gamma is singular.  scipy reports the
    sign at a pole inconsistently (+1 at 0, -1 at -0, NaN below), so poles
    are normalised here.
    """
    x = np.asarray(x, dtype=float)
    # out= keeps a 0-d input's results 0-d arrays, which the pole mask can set
    log_abs = gammaln(x, out=np.empty_like(x))
    sign = gammasgn(x, out=np.empty_like(x))
    # gammaln is +inf at every pole, so without an infinity there is none to mask
    if np.isinf(log_abs).any():
        pole = (x <= 0.0) & (x == np.floor(x))
        log_abs[pole] = np.inf
        sign[pole] = 0.0
    return log_abs, sign


def _check_pole(x: float) -> None:
    if x <= 0.5 and abs(x - round(x)) < _POLE_GUARD:
        raise PoleError(f"gamma argument {x!r} is within {_POLE_GUARD} of a pole")


def log_gamma(x: float) -> tuple[float, float]:
    """ln|Gamma(x)| together with the sign of Gamma(x).

    For x > 0 the sign is always +1; for negative non-integer x the sign
    alternates between the poles.  Raises :class:`PoleError` within 1e-12 of
    a non-positive integer.
    """
    x = float(x)
    if math.isnan(x):
        raise InvalidParameters("gamma argument is NaN")
    _check_pole(x)
    log_abs, sign = _log_gamma_signed(x)
    return float(log_abs), float(sign)


def gamma(x: float) -> float:
    """Sign-correct Gamma(x) = sign * exp(log_gamma(x)).

    Overflow is reported as :class:`GammaOverflowError` instead of silently
    returning ``inf``.
    """
    log_abs, sign = log_gamma(x)
    if log_abs > 709.0:  # exp argument limit for float64
        raise GammaOverflowError(f"gamma({x!r}) overflows double precision")
    return sign * math.exp(log_abs)


def bessel_k(order: float, x: float) -> float:
    """Modified Bessel function of the second kind, real order.

    Symmetric in the order.  Underflows to 0 for x beyond ~700; raises on
    x <= 0, and :class:`GammaOverflowError` when the value overflows double
    precision (small x at large order).
    """
    x = float(x)
    if not x > 0.0:
        raise InvalidParameters(f"bessel_k requires x > 0, got {x!r}")
    value = float(kv(order, x))
    if math.isinf(value):
        raise GammaOverflowError(
            f"bessel_k({order!r}, {x!r}) overflows double precision"
        )
    return value


def _log_bessel_k(order: float, log_z: float) -> float:
    """log K_order(z) from log z alone, for where kv overflows or z is subnormal.

    The trapezoid rule on K_v(z) = int_0^inf e^{-z cosh t} cosh(v t) dt (DLMF
    10.32.9), v = |order|, summed in log space, converges exponentially in 1/h
    for this even analytic integrand (Trefethen and Weideman, SIAM Review
    56(3), 2014).  At h = 0.025 log K is exact to about 3e-16 max(1, |log K|,
    v + z); above order 600 the peak narrows like 1/sqrt(v), and h with it.
    Bisection on the nodes finds the log-integrand's one peak and the window
    within 800 of it, where the rule runs: at most 30,061 nodes for
    log z >= -744, where small orders are flat out to t = ln(2/z).  Past
    _LOG_K_MAX_NODES nodes (log z below about -810) it raises GammaOverflowError.
    """
    v = abs(order)
    h = _LOG_K_STEP * min(1.0, math.sqrt(600.0 / max(v, 1.0)))

    def log_f(t, xp=math):  # log(cosh(v t) e^{-z cosh t}), with z cosh t formed from log z
        return v * t + xp.log1p(xp.exp(-2.0 * v * t)) - math.log(2.0) - 0.5 * (
            xp.exp(log_z + t) + xp.exp(log_z - t)
        )

    # past node n, z (cosh t - 1) >= z e^t / 4 >= v t + 800, so log_f is 800 below
    # log_f(0); first bounds v t + 800 by 2 (v + 800) e^{t/2}, and n sharpens it
    first = 2.0 * (math.log(8.0 * (v + _LOG_K_WINDOW)) - log_z)
    n = math.ceil(max(math.log(4.0), math.log(4.0 * (v * first + _LOG_K_WINDOW)) - log_z) / h)
    peak = bisect_left(range(n), True, key=lambda i: log_f((i + 1) * h) <= log_f(i * h))
    floor = log_f(peak * h) - _LOG_K_WINDOW
    lo = bisect_left(range(peak), True, key=lambda i: log_f(i * h) >= floor)
    hi = peak + bisect_left(range(peak, n), True, key=lambda i: log_f(i * h) < floor)
    if hi - lo >= _LOG_K_MAX_NODES:
        raise GammaOverflowError(f"log K_{order!r}(e^{log_z!r}) needs {hi - lo + 1} nodes")
    values = log_f(h * np.arange(lo, hi + 1), np)
    if lo == 0:
        values[0] -= math.log(2.0)  # the rule's half weight at t = 0
    top = float(np.max(values))
    return top + math.log(h * float(np.sum(np.exp(values - top))))


def normal_cdf(x):
    """Standard normal CDF, accurate to ~1e-16 absolute; array friendly."""
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(-float(x) / _SQRT2)
    return 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Laguerre rule: sum_i weights[i] f(nodes[i]) ~ int_0^inf f e^{-u} du."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise InvalidParameters("rule arrays must match the stated order")


def laguerre_rule(n: int) -> QuadratureRule:
    """Nodes and weights of the order-n Gauss-Laguerre rule, 1 <= n <= 64.

    The rule is scipy.special.roots_laguerre(n), which is
    roots_genlaguerre(n, 0.0) to the bit.  Each order is built once per
    process; its arrays are read-only, as every caller shares them.
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 64:
        raise InvalidParameters(f"laguerre_rule order must be in [1, 64], got {n!r}")
    return _laguerre_rule(int(n))


@functools.lru_cache(maxsize=64)
def _laguerre_rule(n: int) -> QuadratureRule:
    nodes, weights = roots_laguerre(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(order=n, nodes=nodes, weights=weights)
