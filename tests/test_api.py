"""The public surface: every exported name, and the typed errors."""

import inspect

import pytest

import vgpricer
from vgpricer import errors

_PUBLIC_NAMES = [
    "DerivedQuantities", "FourierConfig", "GammaDecomposition", "GlWeights", "MarketInputs",
    "McConfig", "McEstimate", "PriceResult", "QuadratureRule", "SeriesControl", "VgParams",
    "a_max", "asset_or_nothing", "asym_cash_or_nothing", "bessel_k", "carr_madan_european",
    "cash_or_nothing", "characteristic_fn", "density", "derive", "errors", "european",
    "european_atmf", "gamma", "gamma_decomposition", "gap", "gl_density", "gl_european",
    "gl_omega", "gl_weights", "implied_atmf_vol", "laguerre_rule", "levy_measure_density",
    "levy_symbol", "lewis_asset_or_nothing", "lewis_cash_or_nothing", "log_call", "log_gamma",
    "martingale_adjustment", "mc_price", "mixture_density", "normal_cdf",
    "power_asset_or_nothing", "rn_characteristic_fn", "sample_vg",
]

# each error class and its direct base
_ERRORS = {
    "VgError": "Exception",
    "InvalidParameters": "VgError",
    "PoleError": "VgError",
    "GammaOverflowError": "VgError",
    "BranchCutError": "VgError",
    "DegenerateAlphaError": "VgError",
    "NonConvergenceError": "VgError",
    "DampingOutOfRangeError": "VgError",
    "UnsupportedBranchError": "VgError",
}


def test_the_public_names_are_pinned():
    """Dropping or renaming a public name fails here; adding one means
    adding it to this list."""
    assert len(_PUBLIC_NAMES) == 45
    assert sorted(vgpricer.__all__) == _PUBLIC_NAMES


@pytest.mark.parametrize("name", _PUBLIC_NAMES)
def test_each_public_name_resolves(name):
    assert getattr(vgpricer, name) is not None


def test_the_error_classes_are_pinned():
    classes = {
        name: value for name, value in vars(errors).items()
        if inspect.isclass(value) and value.__module__ == errors.__name__
    }
    assert {name: cls.__bases__[0].__name__ for name, cls in classes.items()} == _ERRORS
    assert all(len(cls.__bases__) == 1 for cls in classes.values())
