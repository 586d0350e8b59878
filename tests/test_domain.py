"""The validated domain (tests/domain.py) and the engines' certificates over it.

Contour: at the default FourierConfig every Lewis digital and Carr-Madan call
lies within its truncation_estimate + 1e-6 |oracle| of vgbench.oracle, or
raises a VgError.  Monte Carlo: over seeds, the 95% interval covers the
oracle at a stated rate.  The series certificate waits for its tail to bound
what the block leaves, and the quadrature one for a truncation estimate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domain
from vgpricer import fourier, model, montecarlo
from vgpricer.errors import VgError

_CONTOUR = {
    "cash_or_nothing": fourier.lewis_cash_or_nothing,
    "asset_or_nothing": fourier.lewis_asset_or_nothing,
    "european": fourier.carr_madan_european,
}


@given(draw=st.booleans().flatmap(domain.contracts))
def test_every_draw_is_inside_the_domain(draw):
    params, market = draw
    derived = model.derive(params, market)
    assert domain.SIGMA[0] <= params.sigma <= domain.SIGMA[1]
    assert domain.NU[0] <= params.nu <= domain.NU[1]
    x = params.theta / (params.sigma * math.sqrt(2.0 / params.nu))
    assert abs(x) <= domain.THETA_X * (1.0 + 1e-12)
    assert params.martingale_argument >= domain.MARTINGALE_MARGIN * (1.0 - 1e-12)
    assert domain.TAU[0] <= market.tau <= domain.TAU[1]
    assert domain.RATE[0] <= market.rate <= domain.RATE[1]
    assert abs(derived.rn_moneyness / derived.sigma_nu) <= domain.Z * (1.0 + 1e-12)
    assert abs(math.remainder(derived.alpha, 0.5)) >= domain.ALPHA_MARGIN - 1e-12


@settings(max_examples=150)
@given(draw=st.booleans().flatmap(domain.contracts))
def test_contour_certificate(draw):
    """Every default contour price is within its own claim of the oracle, or a
    VgError.  Where the oracle reports that it cannot certify its own accuracy
    (OracleError: at tau 1/365, nu 0.2 and the money, say), there is no verdict."""
    params, market = draw
    for kind, pricer in _CONTOUR.items():
        try:
            result = pricer(params, market)
        except VgError:
            continue
        try:
            reference = domain.oracle_price(kind, params, market)
        except domain.oracle.OracleError:
            continue
        allowance = result.truncation_estimate + 1e-6 * abs(reference)
        assert abs(result.value - reference) <= allowance, (kind, result.value, reference)


_MC_RATE = 0.9


def test_monte_carlo_certificate():
    """The 95% interval at 20,000 paths covers the oracle for at least 90% of 300
    prices: 100 contracts from numpy's default_rng(11), every second one drifted,
    each priced as a cash digital, an asset digital and a call, with seed i for
    contract i.  default_rng(0) to default_rng(11) gave 277 to 285 of 300 (280 at
    11): the normal interval of 20,000 heavy-tailed payoffs covers a little less
    than its nominal 95%."""
    rng = np.random.default_rng(11)
    hits = prices = 0
    for i in range(100):
        params, market = domain.contract(rng.random(6).tolist(), drifted=bool(i % 2))
        cfg = montecarlo.McConfig(n_paths=20_000, seed=i)
        for kind in _CONTOUR:
            estimate = montecarlo.mc_price(kind, params, market, cfg)
            reference = domain.oracle_price(kind, params, market)
            hits += estimate.ci_low <= reference <= estimate.ci_high
            prices += 1
    assert hits >= _MC_RATE * prices, f"coverage {hits}/{prices}"


@pytest.mark.parametrize("u", [[0.0] * 6, [1.0 - 2.0**-53] * 6, [0.5] * 6])
@pytest.mark.parametrize("drifted", [False, True])
def test_the_corners_are_valid_contracts(u, drifted):
    """The ends of every uniform give a contract that VgParams and derive admit."""
    params, market = domain.contract(u, drifted)
    assert math.isfinite(model.derive(params, market).rn_moneyness)
