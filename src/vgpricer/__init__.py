"""Variance Gamma option pricing toolkit.

Four independent pricing engines for path-independent payoffs under the
exponential Variance Gamma model:

* :mod:`vgpricer.series`     closed-form residue series (the fast path),
* :mod:`vgpricer.fourier`    Fourier-integral benchmarks,
* :mod:`vgpricer.quadrature` Gauss-Laguerre mixture-of-Black-Scholes,
* :mod:`vgpricer.montecarlo` seeded Monte Carlo with confidence intervals,

plus the process definition itself in :mod:`vgpricer.model` and the
special-function kernel in :mod:`vgpricer.specfun`.
"""

from . import errors
from .fourier import (
    FourierConfig,
    a_max,
    carr_madan_european,
    lewis_asset_or_nothing,
    lewis_cash_or_nothing,
)
from .model import (
    DerivedQuantities,
    GammaDecomposition,
    MarketInputs,
    PriceResult,
    VgParams,
    characteristic_fn,
    density,
    derive,
    gamma_decomposition,
    levy_measure_density,
    levy_symbol,
    martingale_adjustment,
    mixture_density,
    rn_characteristic_fn,
)
from .montecarlo import McConfig, McEstimate, mc_price, sample_vg
from .quadrature import GlWeights, gl_density, gl_european, gl_omega, gl_weights
from .series import (
    SeriesControl,
    asset_or_nothing,
    asym_cash_or_nothing,
    cash_or_nothing,
    european,
    european_atmf,
    gap,
    implied_atmf_vol,
    log_call,
    power_asset_or_nothing,
)
from .specfun import QuadratureRule, bessel_k, gamma, laguerre_rule, log_gamma, normal_cdf

__version__ = "0.1.0"

__all__ = [
    "errors",
    "VgParams",
    "MarketInputs",
    "DerivedQuantities",
    "GammaDecomposition",
    "derive",
    "martingale_adjustment",
    "density",
    "mixture_density",
    "characteristic_fn",
    "rn_characteristic_fn",
    "levy_symbol",
    "levy_measure_density",
    "gamma_decomposition",
    "SeriesControl",
    "PriceResult",
    "asset_or_nothing",
    "european",
    "european_atmf",
    "implied_atmf_vol",
    "cash_or_nothing",
    "gap",
    "power_asset_or_nothing",
    "log_call",
    "asym_cash_or_nothing",
    "FourierConfig",
    "lewis_asset_or_nothing",
    "lewis_cash_or_nothing",
    "carr_madan_european",
    "a_max",
    "GlWeights",
    "gl_weights",
    "gl_density",
    "gl_omega",
    "gl_european",
    "McConfig",
    "McEstimate",
    "sample_vg",
    "mc_price",
    "QuadratureRule",
    "log_gamma",
    "gamma",
    "bessel_k",
    "normal_cdf",
    "laguerre_rule",
]
