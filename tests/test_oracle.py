"""Series prices against the benchmark's independent Gamma-mixture oracle."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgpricer import series
from vgpricer.errors import NonConvergenceError
from vgpricer.model import MarketInputs, VgParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # vgbench sits beside src
from vgbench.workloads import BOOK_KINDS, book_contract  # noqa: E402


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", BOOK_KINDS)
    @settings(max_examples=100)
    @given(u=st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 6))
    def test_a_converged_price_is_within_its_estimate_of_the_oracle(self, kind, u):
        """A converged series price lies within its truncation_estimate plus
        1e-6 |oracle| of vgbench.oracle.price, over the random_book benchmark's
        validated domain (the six uniforms of book_contract).  A price on the
        atm branch is skipped: inside that 2e-15 band neither the series nor
        the oracle resolves k_rn (ROADMAP item 15)."""
        c = book_contract(kind, u)
        params = VgParams(sigma=c.sigma, nu=c.nu, theta=c.theta)
        market = MarketInputs(
            spot=c.spot, strike=c.strike, rate=c.rate, tau=c.tau,
            trigger_strike=c.trigger, power=c.power,
        )
        try:
            result = getattr(series, kind)(params, market)
        except NonConvergenceError:
            return  # no convergence is claimed
        if result.branch == "atm":
            return
        reference = c.oracle_price()
        bound = result.truncation_estimate + 1e-6 * abs(reference)
        assert abs(result.value - reference) <= bound, (c, result.value, reference)
