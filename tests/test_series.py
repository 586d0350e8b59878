"""Series-pricer tests: reference grids, parities, branch behavior."""

import collections
import contextlib
import csv
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from vgpricer import fourier, montecarlo, series, specfun
from vgpricer.errors import (
    DegenerateAlphaError,
    InvalidParameters,
    NonConvergenceError,
    UnsupportedBranchError,
    VgError,
)
from vgpricer.model import MarketInputs, VgParams, characteristic_fn, derive, martingale_adjustment
from vgpricer.reference import load_reference
from vgpricer.series import (
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
from vgpricer.tables import atm_spot, base_params

import domain
from conftest import make_market

_TAUS = {"2": 2.0, "0.5": 0.5, "1/2": 0.5, "1/12": 1 / 12, "1/52": 1 / 52, "1/360": 1 / 360}


def _spot_from_label(label: str, params: VgParams, tau: float) -> float:
    if label == "ATM":
        return atm_spot(params, tau)
    return float(label.split("=")[1])


def _series_value(pricer, params, market, max_order):
    try:
        return pricer(params, market, SeriesControl(max_order=max_order)).value
    except NonConvergenceError as err:
        return err.result.value


def _digital_reference_cells(table: str):
    cells = [
        c
        for c in load_reference().values()
        if c.table == table and c.col_label.startswith("max=") and not c.suspect
    ]
    assert cells
    return cells


class TestReferenceGrids:
    def test_cash_or_nothing_table(self, bench_params):
        for cell in _digital_reference_cells("1"):
            tau_label, spot_label = cell.row_label.split(",")
            tau = _TAUS[tau_label.split("=")[1]]
            spot = _spot_from_label(spot_label, bench_params, tau)
            order = int(cell.col_label.split("=")[1])
            value = _series_value(
                cash_or_nothing, bench_params, make_market(spot, tau), order
            )
            assert value == pytest.approx(cell.value, abs=5e-3), cell

    def test_asset_or_nothing_table(self, bench_params):
        for cell in _digital_reference_cells("2"):
            tau_label, spot_label = cell.row_label.split(",")
            tau = _TAUS[tau_label.split("=")[1]]
            spot = _spot_from_label(spot_label, bench_params, tau)
            order = int(cell.col_label.split("=")[1])
            value = _series_value(
                asset_or_nothing, bench_params, make_market(spot, tau), order
            )
            assert value == pytest.approx(cell.value, abs=0.05), cell

    def test_short_maturity_european_table(self, bench_params):
        for cell in load_reference().values():
            if cell.table != "3" or not cell.col_label.startswith("series"):
                continue
            spot_label, tau_label = cell.row_label.split(",")
            spot = float(spot_label.split("=")[1])
            tau = _TAUS[tau_label.split("=")[1]]
            order = int(cell.col_label.split("=")[1])
            value = _series_value(european, bench_params, make_market(spot, tau), order)
            assert value == pytest.approx(cell.value, abs=5e-4), cell

    def test_european_long_maturity_table(self, bench_params):
        for cell in load_reference().values():
            if cell.table != "6" or not cell.col_label.startswith("series"):
                continue
            spot = _spot_from_label(cell.row_label, bench_params, 2.0)
            order = int(cell.col_label.split("=")[1])
            value = _series_value(european, bench_params, make_market(spot, 2.0), order)
            assert value == pytest.approx(cell.value, abs=5e-3), cell

    def test_asym_cash_or_nothing_tables(self):
        for cell in _digital_reference_cells("4") + _digital_reference_cells("5"):
            theta_label, second = cell.row_label.split(",")
            theta = float(theta_label.split("=")[1])
            params = base_params(theta)
            if cell.table == "4":
                tau = 2.0
                spot = _spot_from_label(second, params, tau)
            else:
                tau = _TAUS[second.split("=")[1]]
                spot = 4200.0
            order = int(cell.col_label.split("=")[1])
            value = _series_value(
                asym_cash_or_nothing, params, make_market(spot, tau), order
            )
            assert value == pytest.approx(cell.value, abs=5e-4), cell


class TestBranchesAndParity:
    def test_atm_cash_or_nothing_closed_form(self, bench_params):
        market = make_market(atm_spot(bench_params, 2.0), 2.0)
        result = cash_or_nothing(bench_params, market)
        assert result.branch == "atm"
        assert result.value == math.exp(-0.02) / 2.0

    def test_digital_decomposition(self, bench_params):
        for tau in (0.5, 2.0):
            for spot in (3000.0, 3800.0, 4200.0, 5000.0):
                market = make_market(spot, tau)
                ctrl = SeriesControl(max_order=30)
                lhs = 4000.0 * cash_or_nothing(bench_params, market, ctrl).value
                rhs = (
                    asset_or_nothing(bench_params, market, ctrl).value
                    - european(bench_params, market, ctrl).value
                )
                assert lhs == pytest.approx(rhs, abs=5e-3)

    def test_itm_parity_against_fourier(self, bench_params):
        for spot, tau in ((4200.0, 2.0), (5000.0, 0.5)):
            market = make_market(spot, tau)
            series_value = asset_or_nothing(
                bench_params, market, SeriesControl(max_order=25)
            ).value
            lewis_value = fourier.lewis_asset_or_nothing(bench_params, market).value
            assert series_value == pytest.approx(lewis_value, abs=5e-3)

    def test_european_dominates_forward_intrinsic(self, bench_params):
        for spot in np.linspace(2500.0, 6000.0, 12):
            market = make_market(float(spot), 2.0)
            value = european(bench_params, market, SeriesControl(max_order=40)).value
            intrinsic = max(float(spot) - 4000.0 * math.exp(-0.02), 0.0)
            assert value >= intrinsic - 1e-9

    def test_european_monotone_in_spot(self, bench_params):
        values = [
            european(bench_params, make_market(float(s), 2.0), SeriesControl(max_order=40)).value
            for s in np.linspace(2800.0, 5600.0, 20)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "pricer,scale",
        [(cash_or_nothing, 1.0), (asset_or_nothing, 4000.0), (european, 4000.0)],
    )
    def test_branch_continuity(self, bench_params, pricer, scale):
        """No jump at the branch switch.

        Asset-style payoffs are normalised by the strike scale: their smooth
        delta alone moves the price by ~eps * spot, so an absolute 1e-4
        window is only meaningful for unit-scale payoffs.
        """
        eps = 1e-6
        spot_atm = atm_spot(bench_params, 2.0)
        ctrl = SeriesControl(max_order=40)
        atm = pricer(bench_params, make_market(spot_atm, 2.0), ctrl).value
        otm = pricer(bench_params, make_market(spot_atm * math.exp(-eps), 2.0), ctrl).value
        itm = pricer(bench_params, make_market(spot_atm * math.exp(+eps), 2.0), ctrl).value
        assert abs(otm - atm) / scale < 1e-4
        assert abs(itm - atm) / scale < 1e-4

    def test_asym_branch_continuity(self):
        params = base_params(-0.1)
        eps = 1e-6
        spot_atm = atm_spot(params, 2.0)
        ctrl = SeriesControl(max_order=40)
        atm = asym_cash_or_nothing(params, make_market(spot_atm, 2.0), ctrl).value
        otm = asym_cash_or_nothing(
            params, make_market(spot_atm * math.exp(-eps), 2.0), ctrl
        ).value
        itm = asym_cash_or_nothing(
            params, make_market(spot_atm * math.exp(+eps), 2.0), ctrl
        ).value
        assert abs(otm - atm) < 1e-4
        assert abs(itm - atm) < 1e-4

    def test_short_maturity_acceleration(self, bench_params):
        market = make_market(4200.0, 1.0 / 360.0)
        coarse = _series_value(cash_or_nothing, bench_params, market, 3)
        fine = _series_value(cash_or_nothing, bench_params, market, 15)
        assert abs(coarse - fine) < 1e-3


class TestDiagnostics:
    def test_term_accounting_full_block(self, bench_params):
        # a tail tolerance too small to ever trigger the early stop
        ctrl = SeriesControl(max_order=15, tail_tol=1e-300)
        otm = asset_or_nothing(bench_params, make_market(3800.0, 2.0), ctrl)
        assert otm.terms_evaluated == 16 * 16
        digital = cash_or_nothing(bench_params, make_market(3800.0, 2.0), ctrl)
        assert digital.terms_evaluated == 16

    def test_truncation_estimate_decreases(self, bench_params):
        market = make_market(3000.0, 2.0)
        tails = []
        for order in (5, 10, 15):
            try:
                result = cash_or_nothing(
                    bench_params, market, SeriesControl(max_order=order)
                )
            except NonConvergenceError as err:
                result = err.result
            tails.append(result.truncation_estimate)
        assert tails[0] > tails[1] > tails[2]

    def test_an_early_stop_claims_no_convergence(self, bench_params):
        """Under tail_tol 0.01 the stop rule ends the sum after 91 terms with a
        tail above 1e-6 |value|; _finalize raises, and its result says so."""
        market = make_market(3000.0, 0.5)
        with pytest.raises(NonConvergenceError) as excinfo:
            european(bench_params, market, SeriesControl(tail_tol=0.01))
        assert excinfo.value.result.terms_evaluated == 91
        assert excinfo.value.result.diagnostics["converged"] is False

    def test_an_early_stop_names_both_remedies(self, bench_params):
        """A larger max_order alone fails the same way after the same 91
        terms, so the error names the looser tail_tol as well."""
        market = make_market(3000.0, 0.5)
        for max_order in (25, 200):
            ctrl = SeriesControl(max_order=max_order, tail_tol=0.01)
            with pytest.raises(NonConvergenceError, match="max_order or lower tail_tol") as excinfo:
                european(bench_params, market, ctrl)
            assert excinfo.value.result.terms_evaluated == 91
        assert european(bench_params, market, SeriesControl(tail_tol=1e-8)).terms_evaluated > 91

    def test_non_convergence_carries_partial_result(self, bench_params):
        with pytest.raises(NonConvergenceError) as excinfo:
            asset_or_nothing(bench_params, make_market(3000.0, 2.0), SeriesControl(max_order=3))
        assert excinfo.value.result.value == pytest.approx(-3390.31, abs=0.05)

    def test_degenerate_alpha_policies(self):
        # tau/nu = 2.5 makes alpha exactly 2
        params = VgParams(sigma=0.2, nu=0.8)
        market = make_market(4200.0, 2.0)
        with pytest.raises(DegenerateAlphaError):
            cash_or_nothing(params, market, SeriesControl(max_order=15))
        nudged = cash_or_nothing(
            params, market, SeriesControl(max_order=15, alpha_policy="nudge")
        )
        assert "nudged_nu" in nudged.diagnostics
        assert nudged.value == pytest.approx(0.53, abs=0.05)

    @pytest.mark.parametrize(
        "pricer, theta", [(asym_cash_or_nothing, -0.1), (log_call, 0.0)]
    )
    def test_nudges_that_cannot_move_alpha_raise(self, pricer, theta):
        # tau/nu = 1e-17 rounds alpha to -1/2 whatever the nudge; the pricer
        # used to return nan with a zero tail
        params = VgParams(sigma=0.2, nu=1.0, theta=theta)
        market = make_market(90.0, 1e-17, strike=100.0)
        with pytest.raises(DegenerateAlphaError, match="after 3 nudges"):
            pricer(params, market, SeriesControl(alpha_policy="nudge"))

    def test_half_integral_alpha_also_guarded(self):
        # tau/nu = 2 makes alpha = 3/2: individual coefficients hit poles
        params = VgParams(sigma=0.2, nu=1.0)
        with pytest.raises(DegenerateAlphaError):
            cash_or_nothing(params, make_market(4200.0, 2.0))

    def test_an_alpha_whose_double_overflows_is_integral(self):
        """alpha = tau/nu - 1/2 of about 1e308 is an integer: the guard takes
        its distance to a half-integer without forming 2 alpha, which overflows."""
        market = MarketInputs(spot=0.2, strike=1e-8, rate=0.0, tau=1e300)
        with pytest.raises(DegenerateAlphaError, match="of a integer value"):
            european(VgParams(sigma=3.0, nu=1e-8), market)

    @pytest.mark.parametrize("pricer, theta", [(log_call, 0.0), (asym_cash_or_nothing, 0.01)])
    def test_a_coefficient_pole_past_the_guard_raises(self, pricer, theta):
        # alpha = 2^27 - 1 + 2^-26 passes the 1e-8 guard, but -n1 - alpha rounds
        # to a pole once its magnitude reaches 2^27; the pricers returned nan
        nu = 2.0**-30
        tau = (2.0**27 - 0.5 + 2.0**-26) * nu
        market = MarketInputs(spot=100.0, strike=110.0, rate=0.0, tau=tau)
        with pytest.raises(DegenerateAlphaError, match="hit a Gamma pole"):
            pricer(VgParams(sigma=0.2, nu=nu, theta=theta), market)

    def test_theta_rejected_by_symmetric_ops(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.05)
        with pytest.raises(InvalidParameters):
            european(params, make_market(4200.0, 2.0))

    def test_control_validation(self):
        with pytest.raises(InvalidParameters):
            SeriesControl(max_order=0)
        with pytest.raises(InvalidParameters):
            SeriesControl(max_order=500)
        with pytest.raises(InvalidParameters):
            SeriesControl(alpha_policy="panic")

    @pytest.mark.parametrize("tail_tol", [0.0, -1e-10, math.nan])
    def test_a_tail_tol_that_is_not_positive_is_rejected(self, tail_tol):
        with pytest.raises(InvalidParameters) as info:
            SeriesControl(tail_tol=tail_tol)
        assert str(info.value) == f"tail_tol must be positive, got {tail_tol!r}"

    @pytest.mark.parametrize("max_order", [25.0, 25.5, "25"])
    def test_a_max_order_that_is_not_an_integer_is_rejected(self, max_order):
        """25.0 was accepted and then failed in numpy with a raw TypeError."""
        with pytest.raises(InvalidParameters) as info:
            SeriesControl(max_order=max_order)
        assert str(info.value) == f"max_order must be in [1, 200], got {max_order!r}"
        assert SeriesControl(max_order=np.int64(25)).max_order == 25


class TestAtmForward:
    def test_leading_term_value(self, bench_params):
        spot = 4000.0 * math.exp(-0.02)
        market = make_market(spot, 2.0)
        result = european_atmf(bench_params, market, leading_only=True)
        shape = 2.0 / 0.85
        expected = (
            spot
            / math.sqrt(2.0 * math.pi)
            * math.gamma(0.5 + shape)
            / math.gamma(shape)
            * 0.2
            * math.sqrt(0.85)
        )
        assert result.value == pytest.approx(expected, rel=1e-12)

    def test_low_variance_limit_is_sqrt_tau_estimate(self):
        params = VgParams(sigma=0.2, nu=1e-8)
        tau = 2.0
        spot = 4000.0 * math.exp(-0.01 * tau)
        result = european_atmf(params, make_market(spot, tau), leading_only=True)
        classic = spot / math.sqrt(2.0 * math.pi) * 0.2 * math.sqrt(tau)
        assert result.value == pytest.approx(classic, rel=1e-3)

    def test_full_series_close_to_exact_european(self, bench_params):
        spot = 4000.0 * math.exp(-0.02)
        market = make_market(spot, 2.0)
        approx = european_atmf(bench_params, market, SeriesControl(max_order=30)).value
        exact = european(bench_params, market, SeriesControl(max_order=30)).value
        assert abs(approx - exact) / exact < 0.01

    def test_rejects_off_forward_spot(self, bench_params):
        with pytest.raises(InvalidParameters):
            european_atmf(bench_params, make_market(4200.0, 2.0))

    def test_rejects_a_moneyness_that_rounds_to_zero(self):
        """At sigma 1e-160 and tau 1e-5, -sigma^2 tau / 2 rounds to 0, and the
        series needs -moneyness/volatility > 0."""
        params = VgParams(sigma=1e-160, nu=1.0)
        market = MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=1e-5)
        with pytest.raises(InvalidParameters, match="moneyness"):
            european_atmf(params, market)

    def test_implied_vol_round_trip(self, bench_params):
        spot = 4000.0 * math.exp(-0.02)
        market = make_market(spot, 2.0)
        sigma = 0.25
        price = european_atmf(
            VgParams(sigma=sigma, nu=0.85), market, leading_only=True
        ).value
        assert implied_atmf_vol(price, spot, 2.0, 0.85) == pytest.approx(sigma, abs=1e-12)

    def test_implied_vol_low_variance_limit(self):
        price, spot, tau = 100.0, 4000.0, 1.0
        limit = math.sqrt(2.0 * math.pi / tau) * price / spot
        assert implied_atmf_vol(price, spot, tau, 1e-8) == pytest.approx(limit, rel=1e-3)

    def test_implied_vol_direct_evaluation(self):
        value = implied_atmf_vol(100.0, 4000.0, 1.0, 0.85)
        shape = 1.0 / 0.85
        expected = (
            math.sqrt(2.0 * math.pi / 0.85)
            * math.gamma(shape)
            / math.gamma(0.5 + shape)
            * 100.0
            / 4000.0
        )
        assert value == pytest.approx(expected, rel=1e-13)

    def test_implied_vol_domain_errors(self):
        with pytest.raises(InvalidParameters):
            implied_atmf_vol(-1.0, 4000.0, 1.0, 0.85)
        with pytest.raises(InvalidParameters):
            implied_atmf_vol(100.0, 4000.0, 0.0, 0.85)
        with pytest.raises(InvalidParameters):
            implied_atmf_vol(100.0, 0.0, 1.0, 0.85)
        with pytest.raises(InvalidParameters):
            implied_atmf_vol(100.0, 4000.0, 1.0, 0.0)

    @pytest.mark.parametrize("name, inputs", [
        ("observed_price", (math.inf, 100.0, 1.0, 0.3)),
        ("spot", (1.0, math.inf, 1.0, 0.3)),
        ("nu", (1.0, 100.0, 1.0, math.inf)),
    ])
    def test_an_infinite_input_is_rejected(self, name, inputs):
        """These returned inf, 0.0 and NaN."""
        with pytest.raises(InvalidParameters, match=f"^{name} must be finite, got inf$"):
            implied_atmf_vol(*inputs)

    @pytest.mark.parametrize("inputs, vol", [
        ((1e300, 1e-300, 1.0, 0.3), "inf"), ((1e-320, 1e300, 1.0, 0.3), "0.0"),
    ], ids=["overflow", "underflow"])
    def test_a_volatility_out_of_the_double_range_is_rejected(self, inputs, vol):
        """Finite inputs whose ratio C0/S leaves the double range returned inf and 0.0."""
        with pytest.raises(InvalidParameters, match=f"^the implied volatility {vol} leaves"):
            implied_atmf_vol(*inputs)

    def test_a_subnormal_clock_shape_gives_a_finite_volatility(self):
        """At tau/nu = 5e-324, log Gamma(tau/nu) is 744.44: scipy's gammaln gave
        inf, and then e^(743.87) overflows, so the product is formed in logs."""
        log_vol = 0.5 * math.log(2.0) + 744.4400719213812 + math.log(1e-302)  # sqrt(2 pi / pi)
        assert implied_atmf_vol(1e-300, 100.0, 5e-324, 1.0) == pytest.approx(
            math.exp(log_vol), rel=1e-12
        )
        with pytest.raises(InvalidParameters, match="^the implied volatility inf leaves"):
            implied_atmf_vol(1e300, 1e-300, 5e-324, 1.0)

    @pytest.mark.parametrize("price", [
        lambda: implied_atmf_vol(100.0, 4000.0, math.inf, 0.85),
        lambda: european_atmf(
            VgParams(sigma=1e100, nu=5e-324), make_market(100.0, 1.0, strike=100.0, rate=0.0),
            leading_only=True,
        ),
    ], ids=["implied-vol-tau-inf", "leading-term-tau-over-nu-overflows"])
    def test_a_clock_shape_that_is_not_finite_is_rejected(self, price):
        """log Gamma(tau/nu) minus log Gamma(1/2 + tau/nu) is inf - inf: the
        implied vol returned NaN, and the leading term raised "series value nan
        is not finite" as a NonConvergenceError."""
        with pytest.raises(InvalidParameters, match="is not finite"):
            price()


class TestGap:
    def test_degenerates_to_european(self, bench_params):
        market = make_market(4200.0, 2.0, trigger_strike=4000.0)
        ctrl = SeriesControl(max_order=25)
        gap_value = gap(bench_params, market, ctrl).value
        euro_value = european(bench_params, make_market(4200.0, 2.0), ctrl).value
        assert gap_value == pytest.approx(euro_value, abs=1e-9)

    def test_zero_payout_strike_is_asset_digital(self, bench_params):
        market = make_market(4200.0, 2.0, strike=1e-12, trigger_strike=4000.0)
        ctrl = SeriesControl(max_order=25)
        gap_value = gap(bench_params, market, ctrl).value
        digital = asset_or_nothing(
            bench_params, make_market(4200.0, 2.0), ctrl
        ).value
        assert gap_value == pytest.approx(digital, rel=1e-9)

    def test_composition_of_reference_values(self, bench_params):
        # trigger at 4000, payout strike 3800, tau = 2, spot 4200
        market = make_market(4200.0, 2.0, strike=3800.0, trigger_strike=4000.0)
        ctrl = SeriesControl(max_order=15)
        value = gap(bench_params, market, ctrl).value
        base = make_market(4200.0, 2.0)
        expected = (
            asset_or_nothing(bench_params, base, ctrl).value
            - 3800.0 * cash_or_nothing(bench_params, base, ctrl).value
        )
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(2737.49 - 3800.0 * 0.5373, abs=0.2)

    def test_requires_trigger(self, bench_params):
        with pytest.raises(InvalidParameters):
            gap(bench_params, make_market(4200.0, 2.0))


class TestPowerDigital:
    def test_unit_power_reduces_to_asset_digital(self, bench_params):
        for spot in (3000.0, 4200.0, 5200.0):
            market = make_market(spot, 2.0, power=1.0)
            ctrl = SeriesControl(max_order=20)
            assert power_asset_or_nothing(bench_params, market, ctrl).value == pytest.approx(
                asset_or_nothing(bench_params, market, ctrl).value, abs=1e-9
            )

    def test_atm_value_against_monte_carlo(self, bench_params):
        omega = martingale_adjustment(bench_params)
        q_pow = 2.0
        strike = 4000.0**2
        spot = math.sqrt(strike) * math.exp(-(0.01 + omega) * 2.0)
        market = make_market(spot, 2.0, strike=strike, power=q_pow)
        result = power_asset_or_nothing(bench_params, market, SeriesControl(max_order=25))
        assert result.branch == "atm"
        estimate = montecarlo.mc_price(
            "power_asset_or_nothing",
            bench_params,
            market,
            montecarlo.McConfig(n_paths=400_000, seed=11),
        )
        assert abs(result.value - estimate.value) < 4.0 * estimate.std_error

    def test_otm_value_against_monte_carlo(self, bench_params):
        market = make_market(3000.0, 2.0, strike=4000.0**2, power=2.0)
        result = power_asset_or_nothing(bench_params, market, SeriesControl(max_order=30))
        assert result.branch == "otm"
        estimate = montecarlo.mc_price(
            "power_asset_or_nothing",
            bench_params,
            market,
            montecarlo.McConfig(n_paths=400_000, seed=12),
        )
        assert abs(result.value - estimate.value) < 4.0 * estimate.std_error

    def test_parity_reproduces_characteristic_fn_moment(self, bench_params):
        """Deep in the money the digital is the whole discounted moment.

        The strike is placed ~2.5 log units below the spot, where the
        complementary series contributes < 1e-5 of the moment; the parity
        constant must then reproduce e^{-r tau} E[S_T^q] from the
        characteristic function at -iq.
        """
        q_pow = 2.0
        tau = 2.0
        omega = martingale_adjustment(bench_params)
        strike = (4200.0 * math.exp((0.01 + omega) * tau - 2.5)) ** q_pow
        market = make_market(4200.0, tau, strike=strike, power=q_pow)
        value = power_asset_or_nothing(
            bench_params, market, SeriesControl(max_order=120)
        ).value
        moment = (
            math.exp(-0.01 * tau)
            * 4200.0**q_pow
            * math.exp(q_pow * (0.01 + omega) * tau)
            * characteristic_fn(bench_params, -1j * q_pow, tau).real
        )
        assert value == pytest.approx(moment, rel=1e-4)

    def test_moment_existence_guard(self):
        # q^2 sigma^2 nu / 2 >= 1 has no finite power moment
        params = VgParams(sigma=0.4, nu=1.4)
        market = make_market(9000.0, 2.0, strike=100.0, power=3.0)
        with pytest.raises(InvalidParameters):
            power_asset_or_nothing(params, market, SeriesControl(max_order=10))

    def test_the_otm_branch_checks_the_moment_too(self):
        """At sigma 1.45, nu 0.9 and q 1.2, 1 - (q sigma)^2 nu / 2 = -0.362 and
        the price is +inf.  The OTM series returned 625417.23 with a tail of
        4.9e-5, that is converged; only the ITM parity checked the moment."""
        params = VgParams(sigma=1.45, nu=0.9)
        market = make_market(100.0, 1.0, strike=1000.0, rate=0.0, power=1.2)
        with pytest.raises(InvalidParameters, match=r"moment E\[S\^1.2\] does not exist"):
            power_asset_or_nothing(params, market, SeriesControl(max_order=60))


class TestLogCall:
    def test_atm_closed_form(self, bench_params):
        spot = atm_spot(bench_params, 2.0)
        result = log_call(bench_params, make_market(spot, 2.0))
        shape = 2.0 / 0.85
        expected = (
            math.exp(-0.02)
            / math.sqrt(math.pi)
            * math.gamma(0.5 + shape)
            / math.gamma(shape)
            * 0.2
            * math.sqrt(0.85 / 2.0)
        )
        assert result.value == pytest.approx(expected, rel=1e-12)

    def test_otm_against_monte_carlo(self, bench_params):
        market = make_market(3000.0, 2.0)
        result = log_call(bench_params, market, SeriesControl(max_order=30))
        estimate = montecarlo.mc_price(
            "log_call", bench_params, market, montecarlo.McConfig(n_paths=1_000_000, seed=3)
        )
        assert abs(result.value - estimate.value) < 3.0 * estimate.std_error

    def test_series_continuous_at_branch_point(self, bench_params):
        spot = atm_spot(bench_params, 2.0)
        atm = log_call(bench_params, make_market(spot, 2.0)).value
        near = log_call(
            bench_params,
            make_market(spot * math.exp(-1e-6), 2.0),
            SeriesControl(max_order=30),
        ).value
        assert abs(near - atm) < 1e-6

    def test_itm_rejected(self, bench_params):
        with pytest.raises(UnsupportedBranchError):
            log_call(bench_params, make_market(5000.0, 2.0))


class TestAsymmetricDigital:
    def test_small_drift_continuity_with_symmetric(self, bench_params):
        market = make_market(4200.0, 2.0)
        ctrl = SeriesControl(max_order=25)
        symmetric = cash_or_nothing(bench_params, market, ctrl).value
        for theta in (1e-4, -1e-4):
            drifted = asym_cash_or_nothing(
                VgParams(sigma=0.2, nu=0.85, theta=theta), market, ctrl
            ).value
            assert abs(drifted - symmetric) < 1e-3

    def test_zero_drift_rejected(self, bench_params):
        with pytest.raises(InvalidParameters):
            asym_cash_or_nothing(bench_params, make_market(4200.0, 2.0))

    def test_a_drift_ratio_that_rounds_to_zero_prices(self):
        """theta = 5e-324 over sigma^2 = 4 rounds to 0, so the single series'
        powers theta_sigma^n have a zero base (0^0 = 1)."""
        params = VgParams(sigma=2.0, nu=0.1, theta=5e-324)
        market = MarketInputs(spot=100.0, strike=110.0, rate=0.0, tau=1.03)
        assert asym_cash_or_nothing(params, market).value == 0.11489760080858213

    def test_atm_branch(self):
        params = base_params(0.1)
        spot = atm_spot(params, 2.0)
        result = asym_cash_or_nothing(params, make_market(spot, 2.0), SeriesControl(max_order=15))
        assert result.branch == "atm"
        assert result.value == pytest.approx(0.7288, abs=5e-4)


# ---------------------------------------------------------------------------
# bit-identity golden file
# ---------------------------------------------------------------------------

_SERIES_GOLDEN = Path(__file__).resolve().parent / "golden" / "series_values.csv"
_GOLDEN_FIELDS = ["pricer", "contract", "max_order", "outcome", "value", "terms", "tail", "branch"]
_GOLDEN_PRICERS = {
    "european": european,
    "asset_or_nothing": asset_or_nothing,
    "cash_or_nothing": cash_or_nothing,
    "gap": gap,
    "power_asset_or_nothing": power_asset_or_nothing,
    "log_call": log_call,
    "asym_cash_or_nothing": asym_cash_or_nothing,
    "european_atmf": european_atmf,
}
# (sigma, nu, theta of the drifted digital, tau, rate, dividend yield)
_GOLDEN_SETS = {
    "A": (0.2, 0.85, -0.05, 0.5, 0.01, 0.0),
    "B": (0.25, 0.3, 0.05, 1.3, 0.03, 0.02),
    "C": (0.12, 0.15, -0.02, 1 / 12, 0.02, 0.0),
}
# moneyness target in units of sigma sqrt(tau); None is at the money forward
_GOLDEN_KINDS = {"otm": -1.0, "itm": 0.8, "atm": 0.0, "atmf": None}
_GOLDEN_STRIKE, _GOLDEN_TRIGGER, _GOLDEN_POWER = 100.0, 105.0, 1.2


def _golden_contract(pricer, set_id, kind):
    return _contract(pricer, *_GOLDEN_SETS[set_id], _GOLDEN_KINDS[kind])


def _contract(
    pricer, sigma, nu, theta, tau, rate, div, target,
    trigger=_GOLDEN_TRIGGER, power=_GOLDEN_POWER,
):
    """Params and market putting the moneyness that drives `pricer`'s branch
    (at the trigger for the gap, the power moneyness for the power digital)
    at target * sigma sqrt(tau), or at the money forward for target None;
    every moneyness is ln S plus a constant."""
    params = VgParams(sigma=sigma, nu=nu, theta=theta if pricer == "asym_cash_or_nothing" else 0.0)
    extra = {"trigger_strike": trigger} if pricer == "gap" else {}
    if pricer == "power_asset_or_nothing":
        extra["power"] = power
    if target is None:
        spot = _GOLDEN_STRIKE * math.exp(-(rate - div) * tau)
    else:
        probe = MarketInputs(
            spot=_GOLDEN_STRIKE, strike=extra.get("trigger_strike", _GOLDEN_STRIKE),
            rate=rate, tau=tau, dividend_yield=div, power=extra.get("power", 1.0),
        )
        derived = derive(params, probe)
        now = derived.power_moneyness if "power" in extra else derived.rn_moneyness
        spot = _GOLDEN_STRIKE * math.exp(target * sigma * math.sqrt(tau) - now)
    market = MarketInputs(
        spot=spot, strike=_GOLDEN_STRIKE, rate=rate, tau=tau, dividend_yield=div, **extra
    )
    return params, market


def _golden_records():
    """One record per (pricer, contract, max_order): float.hex of the value
    and tail, the term count and the branch, of err.result on
    NonConvergenceError, or the error type for any other raise."""
    for pricer, fn in _GOLDEN_PRICERS.items():
        for set_id in _GOLDEN_SETS:
            for kind in _GOLDEN_KINDS:
                params, market = _golden_contract(pricer, set_id, kind)
                for order in (5, 25, 60):
                    row = {"pricer": pricer, "contract": f"{set_id}-{kind}", "max_order": str(order)}
                    ctrl = SeriesControl(max_order=order, alpha_policy="nudge")
                    try:
                        result, outcome = fn(params, market, ctrl), "ok"
                    except NonConvergenceError as err:
                        result, outcome = err.result, "NonConvergenceError"
                    except VgError as err:
                        yield {**row, "outcome": type(err).__name__, "value": "",
                               "terms": "", "tail": "", "branch": ""}
                        continue
                    yield {
                        **row,
                        "outcome": outcome,
                        "value": float.hex(result.value),
                        "terms": str(result.terms_evaluated),
                        "tail": float.hex(result.truncation_estimate),
                        "branch": result.branch,
                    }


def _write_series_golden(path=_SERIES_GOLDEN):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_GOLDEN_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_golden_records())


class TestSeriesGolden:
    def test_values_are_bit_identical(self):
        """Every series pricer reproduces tests/golden/series_values.csv exactly.

        Regenerate with `PYTHONPATH=src python tests/test_series.py --write-golden`
        only for a change that is meant to move series values, and state the
        diff.
        """
        with open(_SERIES_GOLDEN, newline="") as handle:
            golden = list(csv.DictReader(handle))
        assert len(golden) == 288
        assert {row["branch"] for row in golden} >= {"otm", "itm", "atm"}
        assert {row["outcome"] for row in golden} >= {
            "ok", "NonConvergenceError", "InvalidParameters", "UnsupportedBranchError"
        }
        assert list(_golden_records()) == golden


class TestCoefficientCost:
    def test_log_gamma_points_grow_linearly_in_max_order(self, bench_params, monkeypatch):
        """An OTM call takes its coefficients from 1-D index arrays: one
        log-Gamma call for the series and its prefactor, O(max_order) points,
        not one per (n1, n2) grid cell."""
        calls = []
        log_gamma = specfun._log_gamma_signed

        def counting(x):
            calls.append(np.size(x))
            return log_gamma(x)

        monkeypatch.setattr(specfun, "_log_gamma_signed", counting)
        result = european(bench_params, make_market(3000.0, 0.5), SeriesControl(max_order=60))
        assert result.branch == "otm"
        assert len(calls) <= 2
        assert sum(calls) <= 10 * 61

    def test_a_strike_slice_takes_its_coefficients_once(self, bench_params, monkeypatch):
        """Building the grid makes one log-Gamma call, for its alpha-free
        Gammas; 41 OTM calls at one maturity then share alpha, so the slice
        makes the one log-Gamma call of its first price and no more."""
        calls = []
        log_gamma = specfun._log_gamma_signed

        def counting(x):
            calls.append(np.size(x))
            return log_gamma(x)

        monkeypatch.setattr(specfun, "_log_gamma_signed", counting)
        series._grid(25)
        assert len(calls) == 1
        for i in range(41):
            market = make_market(3000.0 + 20.0 * i, 0.5)
            assert european(bench_params, market).branch == "otm"
        assert len(calls) == 2

    @pytest.mark.parametrize("pricer, theta, market", [
        (gap, 0.0, make_market(3000.0, 0.5, trigger_strike=4000.0)),
        (asym_cash_or_nothing, -0.05, make_market(3000.0, 0.5)),
    ])
    def test_a_cold_two_series_price_takes_one_call(self, pricer, theta, market, monkeypatch):
        """A gap's two digitals share one alpha block, and the drifted
        digital's single and double series share another, so once the grid
        has made its one log-Gamma call (the alpha-free Gammas), a cold OTM
        price of either makes one more."""
        calls = []
        log_gamma = specfun._log_gamma_signed

        def counting(x):
            calls.append(np.size(x))
            return log_gamma(x)

        monkeypatch.setattr(specfun, "_log_gamma_signed", counting)
        series._grid(25)
        assert len(calls) == 1
        assert pricer(VgParams(sigma=0.2, nu=0.85, theta=theta), market).branch == "otm"
        assert len(calls) == 2

    def test_atm_prices_read_the_otm_block(self, bench_params, monkeypatch):
        """The collapsed ATM series is row n1 = 0 of the double series' part
        1, so an ATM call and an ATM asset digital after a cold OTM call at
        the same (sigma, nu, tau) make no log-Gamma call of their own: the
        grid makes one, and the OTM call's alpha one more."""
        calls = []
        log_gamma = specfun._log_gamma_signed

        def counting(x):
            calls.append(np.size(x))
            return log_gamma(x)

        monkeypatch.setattr(specfun, "_log_gamma_signed", counting)
        series._grid(25)
        assert len(calls) == 1
        assert european(bench_params, make_market(3000.0, 0.5)).branch == "otm"
        assert len(calls) == 2
        atm = make_market(atm_spot(bench_params, 0.5), 0.5)
        assert european(bench_params, atm).branch == "atm"
        assert asset_or_nothing(bench_params, atm).branch == "atm"
        assert len(calls) == 2

    def test_each_otm_log_call_takes_one_call(self, bench_params, monkeypatch):
        """The log call keeps no alpha block: after the grid's one log-Gamma
        call, each OTM log call makes one of its own, at the same alpha too."""
        calls = []
        log_gamma = specfun._log_gamma_signed

        def counting(x):
            calls.append(np.size(x))
            return log_gamma(x)

        monkeypatch.setattr(specfun, "_log_gamma_signed", counting)
        series._grid(25)
        assert len(calls) == 1
        for i in range(3):
            assert log_call(bench_params, make_market(3000.0 + 20.0 * i, 0.5)).branch == "otm"
            assert len(calls) == 2 + i

    def test_a_cold_atm_log_call_takes_one_call(self, bench_params, monkeypatch):
        """The ATM log call needs only Gamma(alpha + 1/2) and Gamma(alpha + 1):
        one 2-point log-Gamma call, not the series' whole alpha block."""
        calls = []
        log_gamma = specfun._log_gamma_signed

        def counting(x):
            calls.append(np.size(x))
            return log_gamma(x)

        monkeypatch.setattr(specfun, "_log_gamma_signed", counting)
        atm = make_market(atm_spot(bench_params, 2.0), 2.0)
        assert log_call(bench_params, atm).branch == "atm"
        assert calls == [2]

    def test_the_atmf_gamma_ratio_takes_one_call(self, bench_params, monkeypatch):
        """The leading ATM-forward term and its implied-vol inverse each take
        Gamma(tau/nu) and Gamma(tau/nu + 1/2) from one 2-point call."""
        calls = []
        log_gamma = specfun._log_gamma_signed

        def counting(x):
            calls.append(np.size(x))
            return log_gamma(x)

        monkeypatch.setattr(specfun, "_log_gamma_signed", counting)
        market = make_market(4000.0 * math.exp(-0.02), 2.0)
        price = european_atmf(bench_params, market, leading_only=True).value
        assert calls == [2]
        implied_atmf_vol(price, market.spot, 2.0, 0.85)
        assert calls == [2, 2]


class TestResultTypes:
    @pytest.mark.parametrize("kind", list(_GOLDEN_KINDS))
    def test_series_results_carry_python_scalars(self, kind):
        """Values are plain floats and the converged flag a plain bool."""
        seen = 0
        for pricer, fn in _GOLDEN_PRICERS.items():
            params, market = _golden_contract(pricer, "A", kind)
            try:
                result = fn(params, market, SeriesControl(max_order=25))
            except NonConvergenceError as err:
                result = err.result
            except VgError:
                continue
            assert type(result.value) is float, pricer
            assert type(result.truncation_estimate) is float, pricer
            assert type(result.diagnostics["converged"]) is bool, pricer
            seen += 1
        assert seen >= 5

    @pytest.mark.parametrize("set_id", ["A", "B"])
    @pytest.mark.parametrize("kind", list(_GOLDEN_KINDS))
    def test_numpy_scalar_params_price_as_floats(self, set_id, kind):
        """np.float64 sigma, nu and theta give the Python-float records bit for
        bit, on every branch and for theta of either sign."""
        for pricer in _GOLDEN_PRICERS:
            params, market = _golden_contract(pricer, set_id, kind)
            numpy_params = VgParams(
                sigma=np.float64(params.sigma), nu=np.float64(params.nu),
                theta=np.float64(params.theta),
            )
            for max_order in (10, 25):
                assert _price_record(pricer, numpy_params, market, max_order) == _price_record(
                    pricer, params, market, max_order
                ), (pricer, max_order)


def _price_record(pricer, params, market, max_order):
    """(value, terms, tail, branch) with floats as float.hex, from err.result
    on NonConvergenceError; the error type for any other raise."""
    ctrl = SeriesControl(max_order=max_order, alpha_policy="nudge")
    try:
        result = _GOLDEN_PRICERS[pricer](params, market, ctrl)
    except NonConvergenceError as err:
        result = err.result
    except VgError as err:
        return type(err).__name__
    return (
        float.hex(result.value), result.terms_evaluated,
        float.hex(result.truncation_estimate), result.branch,
    )


def _memo_arrays(value):
    """Every numpy array held by a _Grid, through its tuples and _Args."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _memo_arrays(item)
    elif isinstance(value, series._Grid):
        for item in vars(value).values():
            yield from _memo_arrays(item)


class TestGridMemo:
    """series._grid holds the input-free part of each max_order."""

    def test_bounded_over_every_order(self):
        for order in range(1, 201):
            for pricer in _GOLDEN_PRICERS:
                kind = "atmf" if pricer == "european_atmf" else "otm"
                _price_record(pricer, *_golden_contract(pricer, "A", kind), order)
            info = series._grid.cache_info()
            assert info.currsize <= info.maxsize == 8
            info = series._alpha_block.cache_info()
            assert info.currsize <= info.maxsize <= 16
            info = series._diagonals.cache_info()
            assert info.currsize <= info.maxsize <= 16

    def test_arrays_are_read_only(self):
        arrays = list(_memo_arrays(series._grid(25)))
        # the log call reads the drifted digital's recipe and holds none of its own
        assert len(arrays) >= 19
        for kind in ("sym", "asym"):
            block = series._alpha_block(kind, 25, 0.3)
            assert block is series._alpha_block(kind, 25, 0.3)
            arrays += list(_memo_arrays(block))
        for shape in ((26, 26), (26, 25), (26, 1), (1, 26), (1, 25)):
            arrays += list(_memo_arrays(series._diagonals(*shape)))
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0

    def test_a_strike_slice_misses_the_grid_once(self):
        sigma, nu, theta, tau, rate, div = _GOLDEN_SETS["B"]
        for i in range(41):
            target = -3.0 + 6.0 * i / 40
            for pricer in _GOLDEN_PRICERS:
                contract = _contract(
                    pricer, sigma, nu, theta, tau, rate, div,
                    None if pricer == "european_atmf" else target,
                )
                _price_record(pricer, *contract, 30)
        assert series._grid.cache_info().misses == 1
        # one alpha: the double series' block, which its three shapes and the
        # ATM series slice, and the drifted digital's
        assert series._alpha_block.cache_info().misses <= 2

    @pytest.mark.parametrize("kind, alpha", [
        ("sym", 1.0), ("sym", 1.5), ("asym", 1.0), ("log_call", 1.0),
    ])
    def test_a_gamma_pole_raises_on_every_call(self, kind, alpha):
        """A Gamma in alpha that hits a pole raises, whichever kind's block
        holds it and whatever its denominator does there (at alpha = 1.5 the
        double series' part 2 has poles over poles); the error is raised
        again, never stored.  The log call builds no block and takes its
        Gammas from the drifted digital's recipe directly."""
        for _ in range(2):
            with pytest.raises(DegenerateAlphaError, match="hit a Gamma pole"):
                if kind == "log_call":
                    series._log_gammas(series._grid(10).asym, alpha)
                else:
                    series._alpha_block(kind, 10, alpha)
        assert series._alpha_block.cache_info().currsize == 0


_draws = {
    "sigma": st.floats(0.08, 0.5),
    "nu": st.floats(0.05, 1.0),
    "theta": st.floats(-0.3, 0.3),
    "tau": st.floats(1 / 365, 3.0),
    "rate": st.floats(0.0, 0.05),
    "div": st.sampled_from([0.0, 0.02]),
    "target": st.one_of(st.none(), st.floats(-3.0, 3.0)),
}


def _domain_contract(pricer, draw):
    """_contract at a draw of the validated domain (tests/domain.py): its sigma, nu,
    theta, tau and r, no dividend, and its k_rn as the target, or at the money
    forward for european_atmf."""
    params, market = draw
    target = derive(params, market).rn_moneyness / (params.sigma * math.sqrt(market.tau))
    return _contract(
        pricer, params.sigma, params.nu, params.theta, market.tau, market.rate, 0.0,
        None if pricer == "european_atmf" else target,
    )


class TestGridMemoProperty:
    @given(
        pricer=st.sampled_from(sorted(_GOLDEN_PRICERS)),
        contract=domain.contracts(drifted=True),
        other=domain.contracts(drifted=True),
        max_order=st.integers(1, 60),
    )
    def test_cold_and_warm_prices_are_identical(self, pricer, contract, other, max_order):
        """A price is the same to the bit whether its shape is built fresh or
        was built and used by unrelated prices first; both contracts are
        domain draws."""
        series._grid.cache_clear()
        cold = _price_record(pricer, *_domain_contract(pricer, contract), max_order)
        for unrelated in _GOLDEN_PRICERS:
            _price_record(unrelated, *_domain_contract(unrelated, other), max_order)
        assert series._grid.cache_info().hits > 0
        assert _price_record(pricer, *_domain_contract(pricer, contract), max_order) == cold


# alpha = tau/nu - 1/2 set within 1e-9 of k/2, which the nudge policy moves
_near_degenerate = st.one_of(st.none(), st.integers(0, 6))


def _valid_contract(pricer, contract):
    """_contract's (params, market), or no example where the nu set near a
    degenerate alpha (up to 2 tau) leaves 1 - theta nu - sigma^2 nu / 2 <= 0."""
    try:
        return _contract(pricer, **contract)
    except InvalidParameters:
        reject()


class TestAlphaMemoProperty:
    @given(
        pricer=st.sampled_from(sorted(_GOLDEN_PRICERS)),
        contract=st.fixed_dictionaries(
            {**_draws, "target": st.one_of(st.none(), st.just(0.0), st.floats(-3.0, 3.0))}
        ),
        other=st.fixed_dictionaries(_draws),
        near=_near_degenerate,
        max_order=st.integers(1, 60),
    )
    def test_cold_and_warm_prices_are_identical(self, pricer, contract, other, near, max_order):
        """A price is the same to the bit whether its alpha block is built
        fresh or was built and used first by unrelated prices at the same
        alpha and at other alphas."""
        if near is not None:
            contract["nu"] = contract["tau"] / (0.5 + 0.5 * near + 1e-9)
        series._alpha_block.cache_clear()
        cold = _price_record(pricer, *_valid_contract(pricer, contract), max_order)
        same_alpha = {**other, "tau": contract["tau"], "nu": contract["nu"]}
        for unrelated in _GOLDEN_PRICERS:
            for draw in (same_alpha, other):
                with contextlib.suppress(InvalidParameters):  # see _valid_contract
                    _price_record(unrelated, *_contract(unrelated, **draw), max_order)
        assert series._alpha_block.cache_info().hits > 0
        assert _price_record(pricer, *_contract(pricer, **contract), max_order) == cold


_SERIES_PRICERS = {name: fn for name, fn in _GOLDEN_PRICERS.items() if name != "european_atmf"}


@st.composite
def _scan_draws(draw):
    """Raw inputs over a wide domain: sigma, nu and tau log-uniform, the
    strike at log-moneyness z sigma sqrt(tau) with |z| <= 40, the spot 100."""
    sigma = 10.0 ** draw(st.floats(-1.6, 0.1))
    tau = 10.0 ** draw(st.floats(-3.0, 1.2))
    z = draw(st.floats(-40.0, 40.0))
    return {
        "pricer": draw(st.sampled_from(sorted(_SERIES_PRICERS))),
        "sigma": sigma,
        "nu": 10.0 ** draw(st.floats(-3.5, 0.6)),
        "theta": draw(st.floats(-0.5, 0.5)),
        "tau": tau,
        "strike": 100.0 * math.exp(z * sigma * math.sqrt(tau)),
        "rate": draw(st.sampled_from([0.0, 0.02])),
        "power": draw(st.floats(1.0, 2.0)),
        "max_order": draw(st.sampled_from([25, 60, 200])),
        "tail_tol": draw(st.sampled_from([1e-10, 1e-2])),
        "alpha_policy": draw(st.sampled_from(["error", "nudge"])),
    }


def _scan_example(pricer, sigma, nu, tau, strike, rate, theta=0.0, power=1.0, max_order=25):
    return {
        "pricer": pricer, "sigma": sigma, "nu": nu, "theta": theta, "tau": tau,
        "strike": strike, "rate": rate, "power": power, "max_order": max_order,
        "tail_tol": 1e-10, "alpha_policy": "error",
    }


class TestFinitePrices:
    @given(inputs=_scan_draws())
    # an ITM power digital whose terms overflow at the default order
    @example(inputs=_scan_example(
        "power_asset_or_nothing", 0.044122071583074136, 0.0014285313477900407,
        0.4741366027393947, 106.31288319942654, 0.02, power=1.3,
    ))
    # a drifted digital whose two parts add inf and -inf
    @example(inputs=_scan_example(
        "asym_cash_or_nothing", 0.0427377886882928, 1.1967877073654591, 8.991860496323925,
        87.00860751462221, 0.02, theta=-0.35395137211584793, max_order=200,
    ))
    # alpha = 2^27 - 1 + 2^-26, past the guard, puts a coefficient on a pole
    @example(inputs=_scan_example(
        "log_call", 0.2, 2.0**-30, (2.0**27 - 0.5 + 2.0**-26) * 2.0**-30, 110.0, 0.0,
    ))
    def test_a_price_is_finite_or_a_typed_error(self, inputs):
        """Every series pricer returns a finite value and tail, or raises a
        VgError; a raw numpy RuntimeWarning fails the test too.  converged is
        True on every returned price and False on every NonConvergenceError."""
        pricer = inputs["pricer"]
        theta = inputs["theta"] if pricer == "asym_cash_or_nothing" else 0.0
        extra = {"trigger_strike": 1.05 * inputs["strike"]} if pricer == "gap" else {}
        ctrl = SeriesControl(
            max_order=inputs["max_order"], tail_tol=inputs["tail_tol"],
            alpha_policy=inputs["alpha_policy"],
        )
        try:
            # the parameters themselves may be out of the model's domain
            params = VgParams(sigma=inputs["sigma"], nu=inputs["nu"], theta=theta)
            market = MarketInputs(
                spot=100.0, strike=inputs["strike"], rate=inputs["rate"], tau=inputs["tau"],
                power=inputs["power"] if pricer == "power_asset_or_nothing" else 1.0, **extra,
            )
            result = _SERIES_PRICERS[pricer](params, market, ctrl)
        except NonConvergenceError as err:
            assert err.result.diagnostics["converged"] is False
            return
        except VgError:
            return
        assert math.isfinite(result.value) and math.isfinite(result.truncation_estimate)
        assert result.diagnostics["converged"] is True


# ---------------------------------------------------------------------------
# bit-identity digest over random contracts
# ---------------------------------------------------------------------------

_DIGEST_ORDERS = (5, 10, 25, 40, 60)


def _digest_contracts(draws=3000, seed=20261018):
    """The contract arguments of each random draw, the branch cycling OTM,
    ITM, ATM and ATM forward by draw index.

    sigma ~ U[0.08, 0.5], nu ~ U[0.05, 1], tau log-uniform in [1/365, 3],
    r ~ U[0, 0.05], q in {0, 0.02}, the moneyness z sigma sqrt(tau) with
    z ~ U[0.05, 3], the trigger K U[0.9, 1.1], the power U[1, 1.5] and
    theta ~ U[-0.3, 0.3] for the drifted digital.
    """
    rng = np.random.default_rng(seed)
    for i in range(draws):
        sigma, nu, log_tau, rate, z, trigger, power, theta = rng.uniform(
            [0.08, 0.05, math.log(1 / 365), 0.0, 0.05, 0.9, 1.0, -0.3],
            [0.5, 1.0, math.log(3.0), 0.05, 3.0, 1.1, 1.5, 0.3],
        ).tolist()
        div = (0.0, 0.02)[int(rng.integers(2))]
        target = (-z, z, 0.0, None)[i % 4]
        yield dict(
            sigma=sigma, nu=nu, theta=theta, tau=math.exp(log_tau), rate=rate, div=div,
            target=target, trigger=_GOLDEN_STRIKE * trigger, power=power,
        )


def _hexed(value):
    return float.hex(float(value)) if isinstance(value, (float, np.floating)) else value


def _digest_records(draws=3000):
    """One line per (draw, pricer, max_order) with alpha_policy="nudge": the
    value, terms, tail, branch and diagnostics, floats as float.hex, of
    err.result on NonConvergenceError; the error type for any other raise."""
    for draw in _digest_contracts(draws):
        for pricer, fn in _GOLDEN_PRICERS.items():
            params, market = _contract(pricer, **draw)
            for order in _DIGEST_ORDERS:
                ctrl = SeriesControl(max_order=order, alpha_policy="nudge")
                try:
                    result, outcome = fn(params, market, ctrl), "ok"
                except NonConvergenceError as err:
                    result, outcome = err.result, "NonConvergenceError"
                except VgError as err:
                    yield type(err).__name__, type(err).__name__
                    continue
                diagnostics = [(key, _hexed(v)) for key, v in result.diagnostics.items()]
                yield outcome, repr((
                    _hexed(result.value), result.terms_evaluated,
                    _hexed(result.truncation_estimate), result.branch, diagnostics,
                ))


def _digest(draws=3000):
    """(outcome tally, sha256 hex digest) of the records of the first draws."""
    digest = hashlib.sha256()
    tally = collections.Counter()
    for outcome, line in _digest_records(draws):
        tally[outcome] += 1
        digest.update(line.encode() + b"\n")
    return tally, digest.hexdigest()


def _print_digest():
    tally, sha256 = _digest()
    print(f"records {sum(tally.values())}")
    print("outcomes " + ", ".join(f"{key} {count}" for key, count in sorted(tally.items())))
    print(f"sha256 {sha256}")


class TestSeriesDigest:
    def test_first_draws_are_bit_identical(self):
        """The digest's first 200 draws (8,000 records) keep their recorded
        hash, so no series value, term count, tail or diagnostic moves.  The
        full 3,000-draw digest is `PYTHONPATH=src python tests/test_series.py
        --digest`; a change meant to move series values restates both hashes."""
        tally, sha256 = _digest(draws=200)
        assert sum(tally.values()) == 8000
        assert sha256 == "c79100401799f25a1dbf8268654dbae8818add6298239719fa5d8af5f0663b40"


if __name__ == "__main__":
    import sys

    # PYTHONPATH=src python tests/test_series.py --write-golden | --digest
    if sys.argv[1:] == ["--write-golden"]:
        _write_series_golden()
        print(f"wrote {_SERIES_GOLDEN}")
    elif sys.argv[1:] == ["--digest"]:
        _print_digest()
    else:
        sys.exit("usage: test_series.py --write-golden | --digest")
