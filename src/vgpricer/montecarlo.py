"""Monte Carlo engine: Gamma-clock sampling and payoff estimators.

Increments are simulated through the time-change construction: draw the
Gamma clock G ~ Gamma(shape = t/nu, scale = nu), then X = theta G +
sigma sqrt(G) Z with Z standard normal.

The generator is a counter-based Philox stream keyed by the seed; draws are
consumed in fixed-size chunks (clock block, then normal block), so a given
(seed, n_paths) request is bit-reproducible.  The clock comes from numpy's
Generator.standard_gamma, which covers the shapes below one that short
maturities routinely give t/nu.

Strike enters only after the terminal prices, so the payoffs and strikes of
one contract share them: a request of up to 2^18 path units keeps its S_T
(one float64 per path unit, two when antithetic), read-only, in a one-entry
memo keyed by everything S_T depends on, (seed, shape, n_units, nu, sigma,
theta, drift, spot, antithetic).  A payoff or strike of the same contract
only evaluates, discounts and averages; a new spot, rate, sigma, theta or nu
draws again.  theta = -0.0 shares the entry of 0.0: S_T passes through exp,
which maps either zero to 1.  Each price writes its samples into arrays of
its own and takes the standard error in place on them; the memo entries are
read-only, so mc_price may run in several threads at once.
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
_MEMO_UNITS = 1 << 18  # 2 or 4 MB of S_T in the memo entry
_MAX_PATHS = 1 << 27
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
    """Path count, Philox seed and antithetic pairing of one Monte Carlo price.

    n_paths runs from 2 to 2^27 (134,217,728), two independent samples for a
    standard error; a price keeps one float64 sample per path, so the ceiling
    holds them to 1 GiB, and a larger count raises InvalidParameters before
    anything is allocated.  seed lies in [0, 2^64).  Antithetic pairing needs
    an even n_paths of at least 4, as a pair is one independent sample.
    """

    n_paths: int
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if not 1 <= self.n_paths <= _MAX_PATHS:
            raise InvalidParameters(
                f"n_paths must be in [1, 2^27 = {_MAX_PATHS}], got {self.n_paths!r}"
            )
        if not 0 <= self.seed < 2**64:
            raise InvalidParameters(f"seed must be in [0, 2^64), got {self.seed!r}")
        if self.antithetic and self.n_paths % 2 != 0:
            raise InvalidParameters("antithetic sampling needs an even n_paths")
        if self.n_paths < (4 if self.antithetic else 2):
            raise InvalidParameters(
                f"n_paths {self.n_paths!r} gives 1 independent sample; a standard error needs 2"
            )


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
        """The estimate of at least two samples, read as float64 and left as they are."""
        samples = np.array(samples, dtype=np.float64)
        if samples.size < 2:
            raise InvalidParameters(f"an estimate needs at least two samples, got {samples.size}")
        return cls._from_scratch(samples)

    @classmethod
    def _from_scratch(cls, samples: np.ndarray) -> "McEstimate":
        """samples.mean() and samples.std(ddof=1) / sqrt(n) to the bit, in numpy's own
        steps (_var), but squaring the deviations in place over the float64 samples."""
        n = samples.size
        mean = np.add.reduce(samples, axis=None, keepdims=True)
        mean /= n
        value = mean.item()
        np.square(np.subtract(samples, mean, out=samples), out=samples)
        std_error = math.sqrt(np.add.reduce(samples, axis=None).item() / (n - 1)) / math.sqrt(n)
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


def _draw_increments(
    seed: int, shape: float, n_units: int, nu: float, sigma: float, theta: float
):
    """(theta clock, sigma sqrt(clock) Z) pairs, clock = nu Gamma(shape), from
    _rng(seed), one per chunk of at most _CHUNK units, the clock block drawn
    first."""
    rng = _rng(seed)
    for start in range(0, n_units, _CHUNK):
        m = min(_CHUNK, n_units - start)
        clock = _gamma_marsaglia_tsang(rng, shape, m)
        clock *= nu
        diffusion = np.sqrt(clock)
        diffusion *= sigma
        diffusion *= rng.standard_normal(m)
        yield np.multiply(clock, theta, out=clock), diffusion


def sample_vg(params: VgParams, t: float, n: int, seed: int) -> np.ndarray:
    """n independent increments X(t), deterministic given the seed; n runs
    from 1 to 2^27, the path ceiling of McConfig."""
    if not t > 0.0:
        raise InvalidParameters(f"sample_vg requires t > 0, got {t!r}")
    if not 1 <= n <= _MAX_PATHS:
        raise InvalidParameters(f"sample_vg requires n in [1, 2^27 = {_MAX_PATHS}], got {n!r}")
    out = np.empty(n)
    chunks = _draw_increments(seed, t / params.nu, n, params.nu, params.sigma, params.theta)
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


def _terminal_prices(
    seed: int, shape: float, n_units: int, nu: float, sigma: float, theta: float,
    drift: float, spot: float, antithetic: bool,
):
    """Per chunk of _draw_increments, S exp((theta G + sigma sqrt(G) Z) + drift)
    and, when antithetic, S exp((theta G + drift) - sigma sqrt(G) Z), each leg
    a fresh array."""
    for shift, diffusion in _draw_increments(seed, shape, n_units, nu, sigma, theta):
        legs = [np.add(shift, diffusion)]
        legs[0] += drift
        if antithetic:
            legs.append(np.add(shift, drift))
            legs[1] -= diffusion
        yield tuple(np.multiply(np.exp(x, out=x), spot, out=x) for x in legs)


@functools.lru_cache(maxsize=1)
def _memo_terminal_prices(*key) -> tuple:
    """The chunks of _terminal_prices(*key), read-only."""
    chunks = tuple(_terminal_prices(*key))
    for array in itertools.chain.from_iterable(chunks):
        array.flags.writeable = False
    return chunks


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
    key = (
        cfg.seed, tau / params.nu, n_units, params.nu, params.sigma, params.theta,
        drift, market.spot, cfg.antithetic,
    )
    prices = _memo_terminal_prices(*key) if n_units <= _MEMO_UNITS else _terminal_prices(*key)
    for start, legs in zip(range(0, n_units, _CHUNK), prices):
        m = legs[0].size
        block = _terminal_payoff(payoff, legs[0], market, samples[start : start + m])
        block *= discount
        if cfg.antithetic:
            down = _terminal_payoff(payoff, legs[1], market, np.empty(m))
            down *= discount
            block += down
            block *= 0.5
    return McEstimate._from_scratch(samples)
