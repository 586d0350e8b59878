"""Monte Carlo engine: Gamma-clock sampling and payoff estimators.

Increments are simulated through the time-change construction: draw the
Gamma clock G ~ Gamma(shape = t/nu, scale = nu), then X = theta G +
sigma sqrt(G) Z with Z standard normal.

The generator is a counter-based Philox stream keyed by the seed; draws are
consumed in fixed-size chunks (clock block, then normal block), so a given
(seed, n_paths) request is bit-reproducible.  The clock comes from numpy's
Generator.standard_gamma, which covers the shapes below one that short
maturities routinely give t/nu.

Strike, spot and rate enter only after the increments, so the payoffs and
strikes of one contract share them: a request of up to 2^18 path units keeps
its (theta G, sigma sqrt(G) Z) pairs, read-only, in a one-entry memo keyed by
(seed, shape, n_units, nu, sigma, theta) and theta's sign.  Each price adds
its drift to them.  A sweep over sigma, theta or nu at a fixed seed and shape
draws again.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import InvalidParameters
from .model import MarketInputs, VgParams

__all__ = ["McConfig", "McEstimate", "sample_vg", "mc_price", "PAYOFF_NAMES"]

_CHUNK = 1 << 20
_MEMO_UNITS = 1 << 18  # 4 MB of draws per memo entry
_Z95 = 1.96

PAYOFF_NAMES = (
    "european",
    "cash_or_nothing",
    "asset_or_nothing",
    "gap",
    "power_asset_or_nothing",
    "log_call",
)


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if not self.n_paths >= 1:
            raise InvalidParameters(f"n_paths must be >= 1, got {self.n_paths!r}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameters(f"seed must be in [0, 2^64), got {self.seed!r}")
        if self.antithetic and self.n_paths % 2 != 0:
            raise InvalidParameters("antithetic sampling needs an even n_paths")


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its 95% confidence interval.

    confidence_ratio is the interval length divided by |value|.
    """

    value: float
    std_error: float
    ci_low: float
    ci_high: float
    confidence_ratio: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McEstimate":
        value = float(samples.mean())
        if samples.size > 1:
            std_error = float(samples.std(ddof=1) / math.sqrt(samples.size))
        else:
            std_error = 0.0
        ci_low = value - _Z95 * std_error
        ci_high = value + _Z95 * std_error
        ratio = (ci_high - ci_low) / abs(value) if value != 0.0 else 0.0
        return cls(value, std_error, ci_low, ci_high, ratio)


def _gamma_marsaglia_tsang(rng: np.random.Generator, shape: float, size: int) -> np.ndarray:
    """size standard Gamma(shape) variates from numpy's C sampler on rng:
    Marsaglia-Tsang above shape 1, the exponential at 1, and a rejection
    method on uniforms and exponentials below 1.  The benchmark tracer wraps
    this function by name as montecarlo.gamma_clock.
    """
    return rng.standard_gamma(shape, size)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _increment_chunk(
    rng: np.random.Generator, shape: float, m: int, nu: float, sigma: float, theta: float
) -> tuple:
    clock = _gamma_marsaglia_tsang(rng, shape, m)
    clock *= nu
    diffusion = np.sqrt(clock)
    diffusion *= sigma
    diffusion *= rng.standard_normal(m)
    return np.multiply(clock, theta, out=clock), diffusion


def _increments(
    seed: int, shape: float, n_units: int, nu: float, sigma: float, theta: float,
    memo: bool = True,
):
    """(theta clock, sigma sqrt(clock) Z) pairs, clock = nu Gamma(shape), from
    _rng(seed), one per chunk of at most _CHUNK units, the clock block drawn
    first; memoised up to _MEMO_UNITS."""
    if memo and n_units <= _MEMO_UNITS:
        # theta = -0.0 equals 0.0 as a key, but its sign reaches sample_vg's zeros
        return _memo_increments(seed, shape, n_units, nu, sigma, theta, math.copysign(1.0, theta))
    rng = _rng(seed)
    sizes = (min(_CHUNK, n_units - start) for start in range(0, n_units, _CHUNK))
    return (_increment_chunk(rng, shape, m, nu, sigma, theta) for m in sizes)


@functools.lru_cache(maxsize=1)
def _memo_increments(
    seed: int, shape: float, n_units: int, nu: float, sigma: float, theta: float, theta_sign: float
) -> tuple:
    chunks = tuple(_increments(seed, shape, n_units, nu, sigma, theta, memo=False))
    for array in itertools.chain.from_iterable(chunks):
        array.flags.writeable = False
    return chunks


def sample_vg(params: VgParams, t: float, n: int, seed: int) -> np.ndarray:
    """n independent increments X(t), deterministic given the seed."""
    if not t > 0.0:
        raise InvalidParameters(f"sample_vg requires t > 0, got {t!r}")
    if not n >= 1:
        raise InvalidParameters(f"sample_vg requires n >= 1, got {n!r}")
    out = np.empty(n)
    chunks = _increments(seed, t / params.nu, n, params.nu, params.sigma, params.theta)
    for start, (shift, diffusion) in zip(range(0, n, _CHUNK), chunks):
        np.add(shift, diffusion, out=out[start : start + shift.size])
    return out


def _terminal_payoff(
    payoff: str, s_t: np.ndarray, market: MarketInputs, out: np.ndarray
) -> np.ndarray:
    """Write the payoff at each terminal price s_t into out (not aliasing s_t) and return it.

    Each element takes the same operations as max(s_t - K, 0), 1{s_t > K},
    s_t 1{s_t > K} and so on, with no temporary larger than a boolean mask.
    """
    k = market.strike
    if payoff == "european":
        return np.maximum(np.subtract(s_t, k, out=out), 0.0, out=out)
    if payoff == "cash_or_nothing":
        return np.greater(s_t, k, out=out)
    if payoff == "asset_or_nothing":
        return np.multiply(s_t, np.greater(s_t, k), out=out)
    if payoff == "gap":
        if market.trigger_strike is None:
            raise InvalidParameters("gap payoff requires trigger_strike")
        np.subtract(s_t, k, out=out)
        np.copyto(out, 0.0, where=s_t <= market.trigger_strike)
        return out
    if payoff == "power_asset_or_nothing":
        np.power(s_t, market.power, out=out)
        return np.multiply(out, np.greater(out, k), out=out)
    if payoff == "log_call":
        return np.maximum(np.log(np.divide(s_t, k, out=out), out=out), 0.0, out=out)
    raise InvalidParameters(f"unknown payoff {payoff!r}; expected one of {PAYOFF_NAMES}")


def mc_price(
    payoff: str, params: VgParams, market: MarketInputs, cfg: McConfig
) -> McEstimate:
    """Discounted-payoff mean over S_T = S exp((r + omega) tau + X(tau)).

    With antithetic sampling the Gamma clock is shared between the paired
    paths and the normal draw is mirrored; the standard error is computed on
    the pair averages, which are the independent units.
    """
    derived = model.derive(params, market)
    tau = market.tau
    discount = math.exp(-derived.rate_effective * tau)
    drift = (derived.rate_effective + derived.omega) * tau
    n_units = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    samples = np.empty(n_units)
    chunks = _increments(cfg.seed, tau / params.nu, n_units, params.nu, params.sigma, params.theta)
    for start, (shift, diffusion) in zip(range(0, n_units, _CHUNK), chunks):
        x_up = np.add(shift, diffusion)
        x_up += drift
        s_t = np.multiply(np.exp(x_up, out=x_up), market.spot, out=x_up)
        block = _terminal_payoff(payoff, s_t, market, samples[start : start + shift.size])
        block *= discount
        if cfg.antithetic:
            x_dn = np.add(shift, drift)
            x_dn -= diffusion
            s_t_dn = np.multiply(np.exp(x_dn, out=x_dn), market.spot, out=x_dn)
            # s_t is spent, so the down leg's payoff takes its place
            down = _terminal_payoff(payoff, s_t_dn, market, s_t)
            down *= discount
            block += down
            block *= 0.5
    return McEstimate.from_samples(samples)
