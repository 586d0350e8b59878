"""Fourier-engine tests: reference Lewis columns, damping rules, stability."""

import csv
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from vgpricer import fourier, model, montecarlo, quadrature
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

import domain
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


def _qawo_integral(psi, freq: float, u_max: float) -> float:
    """int_0^u_max Re[e^{iu freq} psi(u)] du by QUADPACK, from its definition.

    The head [0, min(1, u_max)] integrates the real part directly; past it, QAWO's
    cos/sin weights take the oscillation on each decade [10^j, 10^(j+1)]
    up to u_max, so no single interval hides the integrand's bulk near its
    start.  Nothing here shares code with the engine's quadrature.
    """

    def head_integrand(u):
        return (complex(math.cos(u * freq), math.sin(u * freq)) * psi(u)).real

    total, _ = quad(head_integrand, 0.0, min(1.0, u_max), epsabs=1e-14, limit=200)
    qawo = dict(wvar=freq, epsabs=1e-14, limit=4000)
    lo = 1.0
    while lo < u_max:
        hi = min(10.0 * lo, u_max)
        re, _ = quad(lambda u: psi(u).real, lo, hi, weight="cos", **qawo)
        im, _ = quad(lambda u: psi(u).imag, lo, hi, weight="sin", **qawo)
        total += re - im
        lo = hi
    return total


def _lewis_price(params: VgParams, market, u_max: float, shift: float) -> float:
    """Lewis digital truncated at u_max, evaluated from its definition.

    scale (1/2 + (1/pi) int_0^u_max Re[e^{iuk} e^{i z omega tau} Phi(z) / (iu)] du)
    with z = u - i shift (shift 0: cash digital, scale e^{-r tau}; 1: asset
    digital, scale S) and Phi(z) = (1 - i theta nu z + sigma^2 nu z^2/2)^{-tau/nu}
    the closed-form characteristic function.  The phases combine to
    e^{iu k_rn}; the 1/u factor makes the integrand tend to a constant at 0,
    which QUADPACK's head rule never evaluates.
    """
    sigma, nu, theta, tau = params.sigma, params.nu, params.theta, market.tau
    omega = math.log(1.0 - theta * nu - 0.5 * sigma**2 * nu) / nu
    k_rn = math.log(market.spot / market.strike) + (market.rate + omega) * tau

    def psi(u):
        z = u - shift * 1j
        phi = (1.0 - 1j * theta * nu * z + 0.5 * sigma**2 * nu * z * z) ** (-tau / nu)
        return math.exp(shift * omega * tau) * phi / (1j * u)

    scale = market.spot if shift else math.exp(-market.rate * tau)
    return scale * (0.5 + _qawo_integral(psi, k_rn, u_max) / math.pi)


def _call_price(params: VgParams, market, u_max: float, a: float = 1.0) -> float:
    """The damped call's defining price at u_max:
    e^{-a ln K - r tau + (a + 1) m}/pi int_0^u_max Re[e^{iu k_rn} Phi(u - (a+1)i)
    / (a^2 + a - u^2 + i(2a+1)u)] du, m the mean log-forward."""
    sigma, nu, theta, tau = params.sigma, params.nu, params.theta, market.tau
    omega = math.log(1.0 - theta * nu - 0.5 * sigma**2 * nu) / nu
    m = math.log(market.spot) + (market.rate + omega) * tau
    log_k = math.log(market.strike)

    def psi(u):
        z = u - (a + 1.0) * 1j
        phi = (1.0 - 1j * theta * nu * z + 0.5 * sigma**2 * nu * z * z) ** (-tau / nu)
        return phi / (a * a + a - u * u + 1j * (2.0 * a + 1.0) * u)

    scale = math.exp(-a * log_k - market.rate * tau + (a + 1.0) * m)
    return scale * _qawo_integral(psi, m - log_k, u_max) / math.pi


def _sigma_to_zero_limit(params: VgParams, market) -> tuple[float, float, float]:
    """(cash digital, asset digital, call) in the limit sigma -> 0, where X = theta G,
    G ~ Gamma(tau/nu) with scale nu, and omega = ln(1 - theta nu)/nu.  The cash digital
    is e^{-r tau} P(X > x1), x1 = ln(K/S) - (r + omega) tau, a regularized incomplete
    Gamma function; the asset digital is e^{-r tau} S e^{(r + omega) tau}
    (1 - theta nu)^(-tau/nu) times the same probability under the tilted scale
    nu/(1 - theta nu); the call is the asset digital less K times the cash digital."""
    theta, nu, tau, rate = params.theta, params.nu, market.tau, market.rate
    shape = tau / nu
    omega = math.log1p(-theta * nu) / nu
    g = (math.log(market.strike / market.spot) - (rate + omega) * tau) / theta

    def probability(scale):
        """P(theta G > x1) for G ~ Gamma(shape) with this scale."""
        if theta > 0.0:
            return special.gammaincc(shape, max(g, 0.0) / scale)
        return special.gammainc(shape, g / scale) if g > 0.0 else 0.0

    discount = math.exp(-rate * tau)
    cash = discount * probability(nu)
    tilt = (1.0 - theta * nu) ** -shape
    asset = discount * market.spot * math.exp((rate + omega) * tau) * tilt * probability(
        nu / (1.0 - theta * nu)
    )
    return cash, asset, asset - market.strike * cash


# the tables' ATM rows (k_rn = 0), S 4200 at one day and the negative cash digital
_QAWO_CONTRACTS = (
    *((VgParams(0.2, 0.85), tau, None) for tau in (2.0, 0.5)),
    *((VgParams(0.2, 0.85, theta), 2.0, None) for theta in (0.1, -0.1)),
    (VgParams(0.2, 0.85), 1 / 360, 4200.0),
    (VgParams(0.2, 0.85), _NEGATIVE_DIGITAL["tau"], _NEGATIVE_DIGITAL["spot"]),
)


class TestGradedQuadrature:
    """A finite u_max: the untruncated contour price minus the tail past
    u_max, taken on a vertical ray."""

    def test_lewis_digitals_match_defining_integral(self, bench_params):
        """Both Lewis digitals reproduce their truncated integral, from 0, to
        1e-9 on a 5-maturity x 6-spot grid, with at most 40,000 evaluations
        per price (uniform width-2 panels took 480,000 or more at u_max = 1e4)."""
        for tau in _GRID_TAUS:
            for spot in _GRID_SPOTS:
                market = make_market(spot, tau)
                cash = lewis_cash_or_nothing(bench_params, market, _TRUNCATED)
                asset = lewis_asset_or_nothing(bench_params, market, _TRUNCATED)
                cash_error = abs(cash.value - _lewis_price(bench_params, market, 1e4, 0.0))
                asset_error = abs(asset.value - _lewis_price(bench_params, market, 1e4, 1.0))
                assert cash_error <= 1e-9, (tau, spot)
                assert asset_error <= 1e-9, (tau, spot)
                assert cash.terms_evaluated <= 40_000, (tau, spot)
                assert asset.terms_evaluated <= 40_000, (tau, spot)

    @staticmethod
    def _assert_matches_qawo(params, market, u_max, tol):
        """Each pricer within its truncation_estimate + abs_tol and within tol
        of QAWO's evaluation of the same truncated integral, none flagged for
        abs_tol."""
        cfg = FourierConfig(u_max=u_max)
        for pricer, reference in (
            (lewis_cash_or_nothing, _lewis_price(params, market, u_max, 0.0)),
            (lewis_asset_or_nothing, _lewis_price(params, market, u_max, 1.0)),
            (carr_madan_european, _call_price(params, market, u_max)),
        ):
            result = pricer(params, market, cfg)
            error = abs(result.value - reference)
            assert "abs_tol" not in result.diagnostics.get("warning", ""), (pricer, market)
            assert error <= result.truncation_estimate + cfg.abs_tol, (pricer, market)
            assert error <= tol, (pricer, market)

    @pytest.mark.parametrize("u_max", [1e2, 1e4, 1e7])
    def test_truncated_prices_match_qawo(self, u_max):
        """The tables' ATM rows, S 4200 at one day and the negative cash
        digital, each to 1e-9."""
        for params, tau, spot in _QAWO_CONTRACTS:
            market = make_market(atm_spot(params, tau) if spot is None else spot, tau)
            self._assert_matches_qawo(params, market, u_max, 1e-9)

    @pytest.mark.parametrize("u_max", [0.5, 10.0, 30.0])
    def test_a_truncation_inside_the_branch_points_matches_qawo(self, u_max):
        """At nu 0.01 the branch points of Phi sit at +-70, and tau/nu = 200:
        a ray starting at u_max would pass them at distance u_max, where |Phi|
        reaches (70 / u_max)^200.  Up to twice that distance the tail stays on
        the real line, so every pricer still matches QAWO to 1e-9 S."""
        market = MarketInputs(spot=160.0, strike=130.0, rate=0.0, tau=2.0)
        self._assert_matches_qawo(VgParams(sigma=0.2, nu=0.01), market, u_max, 160e-9)

    def test_memory_bounded_for_large_truncation(self, bench_params):
        """Nodes are evaluated in bounded chunks: a 3e5 truncation point
        stays under 16 MB."""
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

    def test_the_head_from_zero_is_priced(self, bench_params):
        """At S 2000, tau 2 the asset digital's integrand tends to about -0.63
        at u = 0, so a head [0, 1e-10] is worth -4.0e-8 of the price.  The
        truncated integral starts at 0: the price is within 1e-9 of the series
        (whose tail past u_max = 1e4 is below 1e-15 here) and of its estimate."""
        market = make_market(2000.0, 2.0)
        lewis = lewis_asset_or_nothing(bench_params, market, _TRUNCATED)
        series_value = asset_or_nothing(bench_params, market, SeriesControl(max_order=120)).value
        error = abs(lewis.value - series_value)
        assert error <= 1e-9
        assert error <= lewis.truncation_estimate

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

    def test_unmet_abs_tol_is_flagged(self, bench_params):
        """abs_tol 1e-300 is out of reach of five refinements: the price is
        returned with tolerance_met False and a warning."""
        market = make_market(4200.0, 1 / 360)
        cfg = FourierConfig(u_max=1e4, abs_tol=1e-300)
        result = lewis_cash_or_nothing(bench_params, market, cfg)
        assert result.diagnostics["tolerance_met"] is False
        assert "abs_tol not reached" in result.diagnostics["warning"]

    def test_a_ray_cut_short_of_abs_tol_is_flagged(self):
        """theta = -sigma^2/2 makes omega 0, so S = K at r = 0 is exactly at
        the money and the digitals' ray decays only like t^-(1 + 2 tau/nu).
        At tau 0.01 (2 tau/nu = 1/25) it has not fallen to abs_tol by 1e150:
        the price is flagged, though the contour meets abs_tol, and its
        estimate still covers its distance to the truncated integral."""
        params = VgParams(sigma=0.5, nu=0.5, theta=-0.125)
        market = MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=0.01)
        assert model.derive(params, market).rn_moneyness == 0.0
        cfg = FourierConfig(u_max=1e4)
        for shift, pricer in ((0.0, lewis_cash_or_nothing), (1.0, lewis_asset_or_nothing)):
            assert pricer(params, market).diagnostics["tolerance_met"] is True
            result = pricer(params, market, cfg)
            assert result.diagnostics["tolerance_met"] is False
            assert "abs_tol not reached" in result.diagnostics["warning"]
            error = abs(result.value - _lewis_price(params, market, 1e4, shift))
            assert error <= result.truncation_estimate

    @pytest.mark.parametrize("tau", [0.008, 0.006, 0.003])
    def test_a_contour_cut_at_the_y_limit_is_flagged(self, tau):
        """Exactly at the money with 2 tau/nu below 1/30, |Phi| falls so slowly
        along the contour that y stops at _Y_LIMIT before its power bound is
        met.  The bound on the dropped arm joins the estimate, which covers
        the distance to the series price, and flags the price: at tau 0.008
        the contour alone met abs_tol, 1e-9, but lies 1.2e-9 from the series."""
        params = VgParams(sigma=0.5, nu=0.5, theta=-0.125)
        market = MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=tau)
        assert model.derive(params, market).rn_moneyness == 0.0
        for pricer in (lewis_cash_or_nothing, lewis_asset_or_nothing):
            result = pricer(params, market)
            assert result.diagnostics["tolerance_met"] is False
            assert "contour cut at y = 600" in result.diagnostics["warning"]
        result = lewis_cash_or_nothing(params, market)
        error = abs(result.value - asym_cash_or_nothing(params, market).value)
        assert error <= result.truncation_estimate

    @pytest.mark.parametrize("at_forward", [True, False])
    def test_a_digital_within_rounding_of_the_money_prices_its_own_moneyness(
        self, bench_params, at_forward
    ):
        """At tau 1/360 the clock G ~ nu Gamma(tau/nu) is below 1e-30 with
        probability near 0.8, so X lies within 1e-16 of 0 that often, and the
        cash digital moves from about 0.1 to 0.9 as k_rn crosses 0 by 1e-16.
        The contour prices the k_rn it is given, met, to 1e-12 of
        P(X > -k_rn) integrated over the clock; the series' atm branch gives
        the k_rn = 0 price, near 0.5."""
        strike, tau = 4000.0, 1.0 / 360.0
        omega = model.derive(bench_params, make_market(strike, tau)).omega
        if at_forward:  # S = K e^{-(r + omega) tau}
            rate, spot = 0.01, strike * math.exp(-(0.01 + omega) * tau)
        else:  # S = K with r = -omega
            rate, spot = -omega, strike
        market = make_market(spot, tau, rate=rate)
        k_rn = model.derive(bench_params, market).rn_moneyness
        assert 0.0 < abs(k_rn) < 1e-15 and (k_rn > 0.0) is at_forward
        result = lewis_cash_or_nothing(bench_params, market)
        assert result.diagnostics["tolerance_met"] is True
        shape, scale = tau / bench_params.nu, bench_params.sigma * math.sqrt(bench_params.nu)

        def density(s):  # of s = ln(G / nu) times P(sigma sqrt(G) Z > -k_rn)
            tail = special.ndtr(k_rn / (scale * math.exp(0.5 * s)))
            return math.exp(shape * s - math.exp(s) - special.gammaln(shape)) * tail

        below = special.gammainc(shape, math.exp(-700.0)) * (k_rn > 0.0)
        edges = np.arange(-700.0, 5.0, 5.0)
        probability = below + sum(quad(density, lo, lo + 5.0, epsabs=1e-13)[0] for lo in edges)
        assert result.value == pytest.approx(math.exp(-rate * tau) * probability, abs=1e-12)
        assert abs(result.value - cash_or_nothing(bench_params, market).value) > 0.39

    @pytest.mark.parametrize("k_rn", [-1e-13, -1e-14, 1e-14, 1e-13])
    @pytest.mark.parametrize("tau", [1 / 360, 1 / 52], ids=["1d", "1w"])
    def test_a_moneyness_past_rounding_is_not_at_the_money(self, bench_params, tau, k_rn):
        """|k_rn| of 1e-14 or more is past the rounding of k_rn, so the series
        prices its own moneyness and matches the contour to 1e-9 relative.  A
        band of 1e-12 priced these at k_rn = 0: the cash digital at one day
        and k_rn 1e-14 read 0.49999 against the contour's 0.91200."""
        omega = model.derive(bench_params, make_market(4000.0, tau)).omega
        market = make_market(4000.0 * math.exp(k_rn - (0.01 + omega) * tau), tau)
        derived = model.derive(bench_params, market)
        assert derived.rn_moneyness == pytest.approx(k_rn, abs=1e-15)
        for series_pricer, contour_pricer in (
            (cash_or_nothing, lewis_cash_or_nothing),
            (asset_or_nothing, lewis_asset_or_nothing),
            (european, carr_madan_european),
        ):
            contour = contour_pricer(bench_params, market)
            assert contour.diagnostics["tolerance_met"] is True
            value = series_pricer(bench_params, market).value
            assert value == pytest.approx(contour.value, rel=1e-9), series_pricer.__name__
        assert derived.branch == ("itm" if k_rn > 0.0 else "otm")

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

    def test_damping_bound_is_the_edge_for_every_theta(self):
        """At theta != 0 a_max is 1/(nu mu_+) - 1, the edge carr_madan_european
        admits: inside by 1e-9 prices, outside by 1e-9 is refused (theta < 0 in
        test_damping_outside_the_strip_rejected_for_drifted_model)."""
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        bound = a_max(params)
        assert bound == 1.0 / (params.nu * model.gamma_decomposition(params).mu_plus) - 1.0
        market = make_market(4200.0, 2.0)
        inside = carr_madan_european(params, market, FourierConfig(damping_a=bound * (1 - 1e-9)))
        assert math.isfinite(inside.value)
        with pytest.raises(DampingOutOfRangeError):
            carr_madan_european(params, market, FourierConfig(damping_a=bound * (1 + 1e-9)))

    def test_high_volatility_shrinks_damping_window(self):
        """Near the parameter-validity edge the admissible window vanishes.

        sigma^2 nu -> 2 pushes a_max to 0+ (the bound cannot go negative for
        a valid parameter triple, since validity requires sigma^2 nu < 2),
        and an explicit damping a = 1 must be rejected.
        """
        params = VgParams(sigma=1.2, nu=1.38)
        assert 0.0 < a_max(params) < 0.01
        with pytest.raises(DampingOutOfRangeError):
            carr_madan_european(params, make_market(4200.0, 2.0), FourierConfig(damping_a=1.0))

    @pytest.mark.parametrize("sigma, nu, a", [(0.2, 0.85, 1.0), (0.8, 1.0, None), (1.0, 1.2, None)])
    def test_an_unset_damping_lies_inside_the_strip(self, sigma, nu, a):
        """With no damping set, a is 1 where the strip admits it and a_max / 2
        where it is narrower, and the call prices within its estimate of the
        oracle (the default config and an explicit a = 1 give the same bits)."""
        params = VgParams(sigma=sigma, nu=nu)
        market = MarketInputs(spot=100.0, strike=110.0, rate=0.0, tau=0.6)
        result = carr_madan_european(params, market)
        assert result.diagnostics["damping_a"] == (a or 0.5 * a_max(params))
        if a is not None:
            assert result.value == carr_madan_european(params, market, FourierConfig(damping_a=a)).value
        reference = domain.oracle_price("european", params, market)
        assert abs(result.value - reference) <= result.truncation_estimate + 1e-6 * reference

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
            FourierConfig(abs_tol=0)

    @pytest.mark.parametrize("abs_tol", [1.0, 8e10, 1e300, math.inf])
    def test_an_abs_tol_of_one_or_more_is_rejected(self, abs_tol):
        """At abs_tol >= e^25 the contour's drop ln(1/abs_tol) + 25 turned
        negative and ended in a math domain error."""
        with pytest.raises(InvalidParameters) as info:
            FourierConfig(abs_tol=abs_tol)
        assert str(info.value) == f"abs_tol must be below 1, got {abs_tol!r}"


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
        """a is admitted while a > 0 and (1 + a) nu mu_+ < 1, that is below
        a_max = 1/(nu mu_+) - 1."""
        params = VgParams(sigma=0.2, nu=0.85, theta=-0.1)
        market = make_market(4200.0, 2.0)
        bound = a_max(params)
        assert bound == 1.0 / (params.nu * model.gamma_decomposition(params).mu_plus) - 1.0
        for a in (0.0, -0.5, 20.0, bound * (1.0 + 1e-9)):
            with pytest.raises(DampingOutOfRangeError):
                carr_madan_european(params, market, FourierConfig(damping_a=a))
        inside = FourierConfig(damping_a=bound * (1.0 - 1e-9))
        assert math.isfinite(carr_madan_european(params, market, inside).value)
        symmetric = VgParams(sigma=0.2, nu=0.85)
        mu_plus = model.gamma_decomposition(symmetric).mu_plus
        assert 1.0 / (symmetric.nu * mu_plus) - 1.0 == pytest.approx(a_max(symmetric), rel=1e-14)

    def test_a_vanishing_mu_plus_admits_every_damping(self):
        """At theta < 0 and sigma 1e-10, mu_+ rounds to 0; the product form of
        the damping rule admits a and the truncated integral prices."""
        params = VgParams(sigma=1e-10, nu=0.3, theta=-0.1)
        assert model.gamma_decomposition(params).mu_plus == 0.0
        market = MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=1.0)
        result = carr_madan_european(params, market, FourierConfig(u_max=100.0))
        assert result.value == pytest.approx(_call_price(params, market, 100.0), abs=1e-13)
        assert result.diagnostics["tolerance_met"] is True

    @pytest.mark.parametrize("sigma", [1e-10, 1e-150])
    @pytest.mark.parametrize("theta", [0.1, -0.1, -0.2])
    def test_a_vanishing_gamma_rate_prices_the_sigma_to_zero_limit(self, theta, sigma):
        """At sigma 1e-10 or 1e-150 one Gamma rate rounds to 0 and its branch
        point lies at infinity; the contour prices there, within its
        truncation_estimate and 1e-12 max(|ref|, 1) of the exact sigma -> 0
        limit, each of the three payoffs at two nu, five strikes and three tau."""
        rates = model.gamma_decomposition(VgParams(sigma=sigma, nu=0.3, theta=theta))
        assert min(rates.mu_plus, rates.mu_minus) == 0.0
        missed = []
        for nu, strike, tau in itertools.product((0.3, 0.5), (80, 95, 100, 105, 130),
                                                 (0.02, 0.5, 3.0)):
            params = VgParams(sigma=sigma, nu=nu, theta=theta)
            market = MarketInputs(spot=100.0, strike=strike, rate=0.01, tau=tau)
            limits = _sigma_to_zero_limit(params, market)
            for result, ref in zip(_contour_prices(params, market), limits):
                error = abs(result.value - ref)
                if not (error <= result.truncation_estimate + 1e-12 * max(abs(ref), 1.0)
                        and result.diagnostics["tolerance_met"]):
                    missed.append((nu, strike, tau, result.value, ref))
        assert missed == []

    def test_a_price_that_is_not_finite_raises_with_its_result(self):
        """At sigma 4e-154 |xi|^2 overflows on the contour and the call sums
        to NaN: it raises, with the result attached, and warns nothing."""
        params = VgParams(sigma=4e-154, nu=0.3)
        market = MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=1.0)
        with pytest.raises(NonConvergenceError, match="not finite") as caught:
            carr_madan_european(params, market)
        result = caught.value.result
        assert math.isnan(result.value) and result.diagnostics["tolerance_met"] is False
        small = carr_madan_european(VgParams(sigma=1e-150, nu=0.3), market)
        assert math.isfinite(small.value) and small.diagnostics["tolerance_met"] is True



@st.composite
def _strike_triples(draw):
    """A symmetric contract at three equally spaced strikes K - h, K, K + h:
    sigma in [0.12, 0.35], nu in [0.08, 0.8], tau log-uniform in [1/52, 2],
    alpha = tau/nu - 1/2 at least 0.01 from a multiple of 1/2, the middle
    strike z sigma sqrt(tau) from the spot in log terms with |z| <= 2.5, and
    h from 0.05 to 0.5 of sigma sqrt(tau) K."""
    sigma = draw(st.floats(0.12, 0.35))
    nu = draw(st.floats(0.08, 0.8))
    tau = math.exp(draw(st.floats(math.log(1.0 / 52.0), math.log(2.0))))
    two_alpha = 2.0 * tau / nu - 1.0
    assume(abs(two_alpha - round(two_alpha)) >= 0.02)
    rate = draw(st.floats(0.0, 0.05))
    width = sigma * math.sqrt(tau)
    strike = 100.0 * math.exp(draw(st.floats(-2.5, 2.5)) * width)
    step = draw(st.floats(0.05, 0.5)) * width * strike
    params = VgParams(sigma=sigma, nu=nu)
    return params, [
        MarketInputs(spot=100.0, strike=k, rate=rate, tau=tau)
        for k in (strike - step, strike, strike + step)
    ]


# (engine, call price, tolerance relative to the spot); Monte Carlo prices the
# three strikes from one seed, so they share their terminal prices
_CALL_ENGINES = [
    ("series", lambda params, market: european(params, market).value, 1e-9),
    ("contour", lambda params, market: carr_madan_european(params, market).value, 1e-9),
    ("quadrature", lambda params, market: quadrature.gl_european(params, market, 15).value, 1e-10),
    ("monte_carlo", lambda params, market: montecarlo.mc_price(
        "european", params, market, montecarlo.McConfig(n_paths=4000, seed=3)
    ).value, 1e-12),
]


@given(_strike_triples())
def test_calls_fall_and_are_convex_in_strike_on_every_engine(contract):
    """On each engine C(K - h) >= C(K) >= C(K + h) and C(K - h) - 2 C(K) +
    C(K + h) >= 0, within the engine's tolerance times the spot.  The series
    is held to |k_rn|/sigma_nu <= 4: past that, its wing truncation can claim
    convergence for a wrong price (sigma 0.3209, nu 0.0838, tau 0.8718,
    S 100, K 182.4 prices at 184.5 > S)."""
    params, markets = contract
    wing = max(abs(model.derive(params, m).rn_moneyness) for m in markets)
    for engine, price, rel in _CALL_ENGINES:
        if engine == "series" and wing > 4.0 * model.derive(params, markets[0]).sigma_nu:
            continue
        low, mid, high = (price(params, market) for market in markets)
        tol = rel * markets[0].spot
        assert low - mid >= -tol and mid - high >= -tol, engine
        assert low - 2.0 * mid + high >= -tol, engine


# ---------------------------------------------------------------------------
# bit-identity golden file
# ---------------------------------------------------------------------------

_FOURIER_GOLDEN = Path(__file__).resolve().parent / "golden" / "fourier_values.csv"
_FOURIER_GOLDEN_FIELDS = [
    "pricer", "sigma", "nu", "theta", "spot", "strike", "tau", "u_max",
    "value", "terms_evaluated", "branch", "truncation_estimate", "diagnostics",
]
_FOURIER_PRICERS = (lewis_cash_or_nothing, lewis_asset_or_nothing, carr_madan_european)


def _golden_text(value) -> str:
    return float.hex(value) if type(value) is float else str(value)


def _fourier_case(pricer, params, market, u_max):
    result = pricer(params, market, FourierConfig(u_max=u_max))
    return {
        "pricer": pricer.__name__, "sigma": repr(params.sigma), "nu": repr(params.nu),
        "theta": repr(params.theta), "spot": repr(market.spot), "strike": repr(market.strike),
        "tau": repr(market.tau), "u_max": repr(u_max),
        "value": float.hex(result.value),
        "terms_evaluated": str(result.terms_evaluated),
        "branch": result.branch,
        # the finite path's estimate is pinned by the tests above, not here
        "truncation_estimate": (
            float.hex(result.truncation_estimate) if math.isinf(u_max) else ""
        ),
        "diagnostics": ";".join(
            f"{key}={_golden_text(value)}" for key, value in sorted(result.diagnostics.items())
        ),
    }


def _fourier_golden_cases():
    """Every pricer on the contour and at u_max 1e2 and 1e4: out of, at and in
    the money at two maturities with and without drift, then the Lewis-fault
    contract (S 2000, one week) and the long-horizon contract (tau/nu = 385)."""
    contracts = []
    for theta in (0.0, 0.1, -0.1):
        params = VgParams(sigma=0.2, nu=0.85, theta=theta)
        for tau in (0.5, 2.0):
            for spot in (3000.0, atm_spot(params, tau), 5000.0):
                contracts.append((params, make_market(spot, tau)))
    contracts.append((VgParams(sigma=0.2, nu=0.85), make_market(**_NEGATIVE_DIGITAL)))
    contracts.append(
        (VgParams(sigma=0.25, nu=0.013), MarketInputs(spot=100.0, strike=110.0, rate=0.01, tau=5.0))
    )
    for params, market in contracts:
        for u_max in (math.inf, 1e2, 1e4):
            for pricer in _FOURIER_PRICERS:
                yield pricer, params, market, u_max


def _write_fourier_golden(path=_FOURIER_GOLDEN):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_FOURIER_GOLDEN_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_fourier_case(*case) for case in _fourier_golden_cases())


class TestFourierGolden:
    def test_values_are_bit_identical(self):
        """The three pricers reproduce tests/golden/fourier_values.csv exactly:
        value, evaluation count, branch and diagnostics on both paths, and the
        truncation estimate on the contour.

        Regenerate with `PYTHONPATH=src python tests/test_fourier.py
        --write-golden` only for a change that is meant to move Fourier
        values, and state the diff.
        """
        with open(_FOURIER_GOLDEN, newline="") as handle:
            golden = list(csv.DictReader(handle))
        assert len(golden) == 3 * 3 * (3 * 2 * 3 + 2)
        assert {row["branch"] for row in golden} == {"otm", "atm", "itm"}
        assert [_fourier_case(*case) for case in _fourier_golden_cases()] == golden


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--write-golden"]:
        _write_fourier_golden()
        print(f"wrote {_FOURIER_GOLDEN}")
