"""Fourier-engine tests: reference Lewis columns, damping rules, stability."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vgpricer import fourier, model
from vgpricer.errors import (
    DampingOutOfRangeError,
    DegenerateAlphaError,
    InvalidParameters,
    NonConvergenceError,
)
from vgpricer.fourier import (
    FourierConfig,
    a_max,
    carr_madan_european,
    lewis_asset_or_nothing,
    lewis_cash_or_nothing,
)
from vgpricer.model import MarketInputs, VgParams
from vgpricer.reference import load_reference
from vgpricer.series import (
    SeriesControl,
    asset_or_nothing,
    asym_cash_or_nothing,
    cash_or_nothing,
    european,
)
from vgpricer.tables import atm_spot, base_params

from conftest import make_market

_TAUS = {"2": 2.0, "0.5": 0.5}
_GRID_TAUS = (2.0, 0.5, 1 / 12, 1 / 52, 1 / 360)
_GRID_SPOTS = (2000.0, 3000.0, 4000.0, 4200.0, 5000.0, 6000.0)
# S = 2000, K = 4000, one week: the u_max = 1e4 truncation drives the Lewis
# cash digital below zero (series 1.858e-5, Lewis -1.4523e-5)
_NEGATIVE_DIGITAL = dict(spot=2000.0, tau=1 / 52)
_TRUNCATED = FourierConfig(u_max=1e4)


def _lewis_cells(table: str):
    return [
        c
        for c in load_reference().values()
        if c.table == table and c.col_label == "lewis" and not c.suspect
    ]


def _lewis_integral(params: VgParams, market, u_max: float, shift: float) -> float:
    """Lewis digital integral truncated at u_max, evaluated from its definition.

    int_0^u_max Re[e^{iuk} e^{i z omega tau} Phi(z) / (iu)] du with z = u - i shift
    (shift 0: cash digital, 1: asset digital) and Phi(z) = (1 - i theta nu z +
    sigma^2 nu z^2/2)^{-tau/nu} the closed-form characteristic function.  The
    phases combine to e^{iu k_rn}, which QUADPACK's QAWO cos/sin weights
    handle on [1, u_max]; the 1/u factor is singular at 0, so the head
    [1e-10, 1] integrates the regular product directly.  Nothing here shares
    code with the engine's panel quadrature.
    """
    sigma, nu, theta, tau = params.sigma, params.nu, params.theta, market.tau
    omega = math.log(1.0 - theta * nu - 0.5 * sigma**2 * nu) / nu
    k_rn = math.log(market.spot / market.strike) + (market.rate + omega) * tau

    def psi(u):
        z = u - shift * 1j
        phi = (1.0 - 1j * theta * nu * z + 0.5 * sigma**2 * nu * z * z) ** (-tau / nu)
        return math.exp(shift * omega * tau) * phi / (1j * u)

    def head_integrand(u):
        return (complex(math.cos(u * k_rn), math.sin(u * k_rn)) * psi(u)).real

    head, _ = quad(head_integrand, 1e-10, 1.0, epsabs=1e-14, limit=200)
    qawo = dict(wvar=k_rn, epsabs=1e-14, limit=4000)
    re, _ = quad(lambda u: psi(u).real, 1.0, u_max, weight="cos", **qawo)
    im, _ = quad(lambda u: psi(u).imag, 1.0, u_max, weight="sin", **qawo)
    return head + re - im


class TestGradedQuadrature:
    def test_lewis_digitals_match_defining_integral(self, bench_params):
        """Both Lewis digitals reproduce their truncated integral to 1e-9 on a
        5-maturity x 6-spot grid, with at most 40,000 evaluations per price
        (uniform width-2 panels took 480,000 or more at u_max = 1e4)."""
        for tau in _GRID_TAUS:
            for spot in _GRID_SPOTS:
                market = make_market(spot, tau)
                discount = math.exp(-market.rate * tau)
                cash = lewis_cash_or_nothing(bench_params, market, _TRUNCATED)
                asset = lewis_asset_or_nothing(bench_params, market, _TRUNCATED)
                cash_integral = _lewis_integral(bench_params, market, 1e4, 0.0)
                asset_integral = _lewis_integral(bench_params, market, 1e4, 1.0)
                defining_cash = discount * (0.5 + cash_integral / math.pi)
                defining_asset = spot * (0.5 + asset_integral / math.pi)
                assert abs(cash.value - defining_cash) <= 1e-9, (tau, spot)
                assert abs(asset.value - defining_asset) <= 1e-9, (tau, spot)
                assert cash.terms_evaluated <= 40_000, (tau, spot)
                assert asset.terms_evaluated <= 40_000, (tau, spot)

    def test_panel_floor(self, bench_params):
        market = make_market(4200.0, 0.5)
        default = lewis_cash_or_nothing(bench_params, market, _TRUNCATED)
        floored = lewis_cash_or_nothing(
            bench_params, market, FourierConfig(u_max=1e4, panels=4000)
        )
        assert floored.terms_evaluated >= 4000 * 32 > default.terms_evaluated
        assert floored.value == pytest.approx(default.value, abs=1e-9)

    def test_memory_bounded_for_large_truncation(self, bench_params):
        """Nodes are evaluated in bounded chunks: a 3e5 truncation point
        (about 5e5 nodes in its last pass) stays under 16 MB."""
        market = make_market(**_NEGATIVE_DIGITAL)
        tracemalloc.start()
        try:
            result = lewis_cash_or_nothing(bench_params, market, FourierConfig(u_max=3e5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.diagnostics["tolerance_met"]
        assert peak < 16e6


class TestFourierDiagnostics:
    def test_truncation_estimate_covers_truncation_error(self, bench_params):
        market = make_market(**_NEGATIVE_DIGITAL)
        lewis = lewis_cash_or_nothing(bench_params, market, _TRUNCATED)
        series_value = cash_or_nothing(bench_params, market, SeriesControl(max_order=60)).value
        error = abs(lewis.value - series_value)
        assert error == pytest.approx(3.31e-5, abs=5e-8)
        assert error <= lewis.truncation_estimate < 1.1 * error

    def test_truncation_estimate_reported_by_every_integrand(self, bench_params):
        market = make_market(3000.0, 1 / 12)
        for pricer in (lewis_cash_or_nothing, lewis_asset_or_nothing, carr_madan_european):
            short = pricer(bench_params, market, FourierConfig(u_max=1e3))
            long = pricer(bench_params, market, FourierConfig(u_max=1e5))
            assert abs(short.value - long.value) <= short.truncation_estimate, pricer
            assert 0.0 < long.truncation_estimate < short.truncation_estimate, pricer

    def test_price_outside_bounds_is_flagged_not_changed(self, bench_params):
        market = make_market(**_NEGATIVE_DIGITAL)
        result = lewis_cash_or_nothing(bench_params, market, _TRUNCATED)
        assert result.value == pytest.approx(-1.4523e-5, abs=1e-9)
        assert result.diagnostics["tolerance_met"] is False
        assert "no-arbitrage" in result.diagnostics["warning"]
        inside = lewis_cash_or_nothing(bench_params, make_market(3000.0, 1 / 52), _TRUNCATED)
        assert inside.diagnostics["tolerance_met"] is True
        assert "warning" not in inside.diagnostics

    def test_results_carry_python_scalars(self, bench_params):
        """Values are plain floats and the tolerance flag a plain bool."""
        for spot in (3000.0, 4200.0):
            market = make_market(spot, 0.5)
            for pricer in (lewis_cash_or_nothing, lewis_asset_or_nothing, carr_madan_european):
                result = pricer(bench_params, market)
                assert type(result.value) is float, pricer
                assert type(result.truncation_estimate) is float, pricer
                assert type(result.diagnostics["tolerance_met"]) is bool, pricer
                assert type(result.diagnostics.get("converged", False)) is bool, pricer


class TestLewisDigitals:
    def test_cash_or_nothing_reference_column(self, bench_params):
        for cell in _lewis_cells("1"):
            tau = _TAUS[cell.row_label.split(",")[0].split("=")[1]]
            label = cell.row_label.split(",")[1]
            spot = atm_spot(bench_params, tau) if label == "ATM" else float(label.split("=")[1])
            value = lewis_cash_or_nothing(bench_params, make_market(spot, tau)).value
            assert value == pytest.approx(cell.value, abs=5e-4), cell

    def test_asset_or_nothing_reference_column(self, bench_params):
        for cell in _lewis_cells("2"):
            tau = _TAUS[cell.row_label.split(",")[0].split("=")[1]]
            label = cell.row_label.split(",")[1]
            spot = atm_spot(bench_params, tau) if label == "ATM" else float(label.split("=")[1])
            value = lewis_asset_or_nothing(bench_params, make_market(spot, tau)).value
            assert value == pytest.approx(cell.value, abs=0.05), cell

    def test_drifted_cash_or_nothing_reference_column(self):
        for cell in _lewis_cells("4"):
            theta = float(cell.row_label.split(",")[0].split("=")[1])
            params = base_params(theta)
            label = cell.row_label.split(",")[1]
            spot = atm_spot(params, 2.0) if label == "ATM" else float(label.split("=")[1])
            value = lewis_cash_or_nothing(params, make_market(spot, 2.0)).value
            assert value == pytest.approx(cell.value, abs=5e-4), cell

    def test_deep_itm_saturates_to_spot(self, bench_params):
        spot = 1e6
        value = lewis_asset_or_nothing(bench_params, make_market(spot, 2.0)).value
        assert 0.99 <= value / spot <= 1.01

    def test_truncation_point_already_converged(self, bench_params):
        market = make_market(4200.0, 2.0)
        base = lewis_cash_or_nothing(bench_params, market, FourierConfig(u_max=1e4)).value
        double = lewis_cash_or_nothing(bench_params, market, FourierConfig(u_max=2e4)).value
        assert abs(double - base) < 1e-8

    def test_atm_moneyness_integrand_is_regular(self, bench_params):
        # rn moneyness exactly zero: the u -> 0 endpoint must stay finite
        spot = atm_spot(bench_params, 2.0)
        value = lewis_cash_or_nothing(bench_params, make_market(spot, 2.0)).value
        assert math.isfinite(value)
        assert value == pytest.approx(math.exp(-0.02) / 2.0, abs=5e-4)

    def test_agreement_with_series(self, bench_params):
        ctrl = SeriesControl(max_order=30)
        for spot, tau in ((3800.0, 2.0), (4200.0, 0.5), (5000.0, 2.0)):
            market = make_market(spot, tau)
            series_value = asset_or_nothing(bench_params, market, ctrl).value
            lewis_value = lewis_asset_or_nothing(bench_params, market).value
            # the complement-of-the-event identity: both digital halves add to S
            assert abs(series_value - lewis_value) / spot < 1e-6


class TestCarrMadan:
    def test_damping_bound_value(self):
        bound = a_max(VgParams(sigma=0.2, nu=0.85))
        assert bound == pytest.approx(math.sqrt(2.0 / 0.85) / 0.2 - 1.0, rel=1e-14)
        assert bound == pytest.approx(6.6696, abs=1e-4)

    def test_damping_bound_requires_symmetry(self):
        with pytest.raises(InvalidParameters):
            a_max(VgParams(sigma=0.2, nu=0.85, theta=0.1))

    def test_high_volatility_shrinks_damping_window(self):
        """Near the parameter-validity edge the admissible window vanishes.

        sigma^2 nu -> 2 pushes a_max to 0+ (the bound cannot go negative for
        a valid parameter triple, since validity requires sigma^2 nu < 2),
        and the default damping a = 1 must be rejected.
        """
        params = VgParams(sigma=1.2, nu=1.38)
        assert 0.0 < a_max(params) < 0.01
        with pytest.raises(DampingOutOfRangeError):
            carr_madan_european(params, make_market(4200.0, 2.0))

    def test_damping_out_of_range_rejected(self, bench_params):
        market = make_market(4200.0, 2.0)
        with pytest.raises(DampingOutOfRangeError):
            carr_madan_european(bench_params, market, FourierConfig(damping_a=7.0))

    def test_damping_invariance(self, bench_params):
        market = make_market(4200.0, 2.0)
        values = [
            carr_madan_european(bench_params, market, FourierConfig(damping_a=a)).value
            for a in (0.5, 1.0, 2.0)
        ]
        assert max(values) - min(values) < 1e-6

    def test_agreement_with_series(self, bench_params):
        market = make_market(4200.0, 2.0)
        series_value = european(bench_params, market, SeriesControl(max_order=25)).value
        cm_value = carr_madan_european(bench_params, market).value
        assert abs(series_value - cm_value) < 5e-3

    def test_drifted_model_supported_with_probe(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=-0.1)
        market = make_market(4200.0, 2.0)
        value = carr_madan_european(params, market).value
        assert 400.0 < value < 900.0

    def test_config_validation(self):
        with pytest.raises(InvalidParameters):
            FourierConfig(u_max=-1.0)
        with pytest.raises(InvalidParameters):
            FourierConfig(panels=0)


@st.composite
def _crosscheck_contracts(draw):
    """The engine cross-check's domain: sigma in [0.15, 0.3], nu in [0.1, 0.5],
    tau in [max(0.25, nu/2), 2], r in [0, 0.04] and |ln(S/F)| <= 0.28, with
    theta = x sigma sqrt(2/nu), |x| <= 0.2, in a third of the draws."""
    sigma = draw(st.floats(0.15, 0.3))
    nu = draw(st.floats(0.1, 0.5))
    tau = draw(st.floats(max(0.25, 0.5 * nu), 2.0))
    rate = draw(st.floats(0.0, 0.04))
    spot = 100.0 * math.exp(draw(st.floats(-0.7, 0.7)))
    strike = spot * math.exp(rate * tau + draw(st.floats(-0.28, 0.28)))
    x = draw(st.sampled_from([0.0, 0.0, None]))
    if x is None:
        x = draw(st.floats(-0.2, 0.2))
    params = VgParams(sigma=sigma, nu=nu, theta=x * sigma * math.sqrt(2.0 / nu))
    return params, MarketInputs(spot=spot, strike=strike, rate=rate, tau=tau)


def _contour_prices(params, market):
    return (
        lewis_cash_or_nothing(params, market),
        lewis_asset_or_nothing(params, market),
        carr_madan_european(params, market),
    )


class TestContour:
    """The untruncated default: each price on a sinh-deformed contour."""

    @given(_crosscheck_contracts())
    def test_bounds_and_parity(self, contract):
        """0 <= CN <= e^{-r tau}, 0 <= AN <= S, the call within its bounds,
        AN - K CN = call to 1e-10 S, each under 500 evaluations."""
        params, market = contract
        cash, asset, call = _contour_prices(params, market)
        spot, discounted = market.spot, market.strike * math.exp(-market.rate * market.tau)
        assert 0.0 <= cash.value <= math.exp(-market.rate * market.tau)
        assert 0.0 <= asset.value <= spot
        assert max(0.0, spot - discounted) <= call.value <= spot
        assert abs(asset.value - market.strike * cash.value - call.value) <= 1e-10 * spot
        for result in (cash, asset, call):
            assert result.diagnostics["tolerance_met"] is True
            assert "warning" not in result.diagnostics
            assert result.terms_evaluated < 500

    @settings(max_examples=40)
    @given(_crosscheck_contracts())
    def test_agreement_with_series(self, contract):
        """Within truncation_estimate + 1e-10 of the series at max_order 120,
        wherever the series converges (and alpha is not degenerate)."""
        params, market = contract
        cash, asset, call = _contour_prices(params, market)
        ctrl = SeriesControl(max_order=120)
        if params.theta == 0.0:
            pairs = ((cash, cash_or_nothing), (asset, asset_or_nothing), (call, european))
        else:
            pairs = ((cash, asym_cash_or_nothing),)
        for result, pricer in pairs:
            try:
                reference = pricer(params, market, ctrl).value
            except (NonConvergenceError, DegenerateAlphaError):
                continue
            assert abs(result.value - reference) <= result.truncation_estimate + 1e-10, pricer

    def test_lewis_fault_prices_correctly(self, bench_params):
        """The u_max = 1e4 truncation's negative cash digital: at default
        settings the contour is within its truncation_estimate of the series."""
        market = make_market(**_NEGATIVE_DIGITAL)
        result = lewis_cash_or_nothing(bench_params, market)
        series_value = cash_or_nothing(bench_params, market, SeriesControl(max_order=60)).value
        assert result.diagnostics["tolerance_met"] is True
        assert abs(result.value - series_value) <= result.truncation_estimate
        assert result.value == pytest.approx(1.8580577e-5, abs=1e-12)

    @pytest.mark.parametrize("spot", [3000.0, 3900.0, 4100.0, 5000.0])
    def test_explicit_infinity_is_the_default(self, bench_params, spot):
        market = make_market(spot, 0.5)
        cfg = FourierConfig(u_max=math.inf)
        for pricer in (lewis_cash_or_nothing, lewis_asset_or_nothing, carr_madan_european):
            assert pricer(bench_params, market) == pricer(bench_params, market, cfg)

    def test_long_horizon_does_not_cancel(self):
        """tau/nu = 385: half-way to the branch point |Phi| reaches (4/3)^385
        on the contour; the apex at the least |F| keeps the price exact."""
        params = VgParams(sigma=0.25, nu=0.013)
        market = MarketInputs(spot=100.0, strike=110.0, rate=0.01, tau=5.0)
        cash, asset, call = _contour_prices(params, market)
        for result in (cash, asset, call):
            assert result.diagnostics["tolerance_met"] is True
        assert abs(asset.value - 110.0 * cash.value - call.value) <= 1e-10 * 100.0
        assert call.value == pytest.approx(
            european(params, market, SeriesControl(max_order=120)).value, abs=1e-8
        )

    def test_call_below_zero_by_rounding_is_clamped_not_flagged(self):
        """A call worth zero to rounding came out -2.6e-16, below its bound by
        less than its rounding floor of 3.3e-15, and was flagged as a breach."""
        params = VgParams(sigma=0.116, nu=0.0818, theta=-0.384)
        market = MarketInputs(spot=42.93, strike=100.0, rate=0.0388, tau=0.4245)
        result = carr_madan_european(params, market)
        assert result.value == 0.0
        assert result.diagnostics["tolerance_met"] is True
        assert "warning" not in result.diagnostics

    def test_breach_beyond_the_rounding_floor_stays_flagged(self, bench_params):
        derived = model.derive(bench_params, make_market(3000.0, 0.5))
        cases = ((-1e-16, 0.0, True), (1.0 + 4e-16, 1.0, True), (-1e-12, -1e-12, False))
        for value, expected, met in cases:
            result = fourier._result(value, 0.0, (0.0, 1.0), 10, True, derived, floor=1e-15)
            assert result.value == expected
            assert result.diagnostics["tolerance_met"] is met

    def test_damping_outside_the_strip_rejected_for_drifted_model(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=-0.1)
        for a in (0.0, -0.5, 20.0):
            with pytest.raises(DampingOutOfRangeError):
                carr_madan_european(params, make_market(4200.0, 2.0), FourierConfig(damping_a=a))
