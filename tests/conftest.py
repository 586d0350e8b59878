import pytest
from hypothesis import settings

from vgpricer import montecarlo, series, specfun
from vgpricer.model import MarketInputs, VgParams
from vgpricer.reference import load_reference

# Property tests draw the same examples on every run and keep no example
# database, so a run is reproducible; with no per-example deadline a slow or
# loaded host cannot fail them.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty series, Monte Carlo and Laguerre-rule
    memos, so no hit or miss count depends on which tests ran before it."""
    series._grid.cache_clear()
    series._alpha_block.cache_clear()
    series._diagonals.cache_clear()
    montecarlo._memo_terminal_prices.cache_clear()
    specfun._laguerre_rule.cache_clear()


@pytest.fixture(scope="session")
def bench_params() -> VgParams:
    """The parameter set every reference table shares."""
    return VgParams(sigma=0.2, nu=0.85, theta=0.0)


@pytest.fixture(scope="session")
def reference():
    return load_reference()


def make_market(spot, tau, strike=4000.0, rate=0.01, **kwargs) -> MarketInputs:
    return MarketInputs(spot=spot, strike=strike, rate=rate, tau=tau, **kwargs)
