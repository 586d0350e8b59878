"""Gauss-Laguerre pricer tests."""

import math

import numpy as np
import pytest

from vgpricer import quadrature, specfun
from vgpricer.errors import InvalidParameters
from vgpricer.model import VgParams, density, martingale_adjustment
from vgpricer.quadrature import gl_density, gl_european, gl_omega, gl_weights
from vgpricer.reference import load_reference
from vgpricer.series import SeriesControl, european
from vgpricer.tables import atm_spot, base_params

from conftest import make_market


class TestMixtureWeights:
    @pytest.mark.parametrize("n", [1, 5, 15, 40, 64])
    @pytest.mark.parametrize("shape", [0.12, 0.5, 2.353, 11.0, 49.0])
    def test_probability_vector(self, n, shape):
        gl = gl_weights(n, shape)
        assert np.all(gl.p_weights >= 0.0)
        assert gl.p_weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("call", [
        lambda params: gl_weights(5, 0.0),
        lambda params: gl_density(params, 0.1, 0.0, 5),
        lambda params: gl_omega(params, 0.0, 5),
    ], ids=["gl_weights", "gl_density", "gl_omega"])
    def test_nonpositive_shape_or_horizon_rejected(self, bench_params, call):
        with pytest.raises(InvalidParameters):
            call(bench_params)

    @pytest.mark.parametrize("call", [
        lambda params: gl_omega(params, 1.0, 15),
        lambda params: gl_european(params, make_market(100.0, 1.0, strike=100.0), 15),
    ], ids=["gl_omega", "gl_european"])
    def test_an_underflowing_adjustment_is_invalid(self, call):
        """At theta = -1e6 every exp((theta nu + sigma^2 nu / 2) u_i) rounds to
        0, so the log of their weighted sum has no value."""
        with pytest.raises(InvalidParameters, match="underflows"):
            call(VgParams(sigma=0.2, nu=0.3, theta=-1e6))

    def test_order_one_degenerates(self):
        gl = gl_weights(1, 3.7)
        assert gl.p_weights == pytest.approx([1.0])


class TestDensityApproximation:
    def test_order_one_is_single_gaussian(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        x = 0.25
        mean = 0.1 * 0.85
        std = 0.2 * math.sqrt(0.85)
        expected = math.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
        assert gl_density(params, x, 1.0, 1) == pytest.approx(expected, rel=1e-13)

    def test_symmetric_in_x(self, bench_params):
        for x in (0.1, 0.6):
            assert gl_density(bench_params, x, 2.0, 12) == pytest.approx(
                gl_density(bench_params, -x, 2.0, 12), rel=1e-13
            )

    def test_converges_to_closed_form(self, bench_params):
        """Pointwise convergence at x = 0.1, t = 2.

        The mixing integrand carries a non-polynomial u^{t/nu - 1} factor, so
        the rule converges algebraically: measured 1.85e-3 at order 15 and
        1.2e-4 at order 30 against the Bessel-form oracle.
        """
        exact = density(bench_params, 0.1, 2.0)
        assert abs(gl_density(bench_params, 0.1, 2.0, 15) - exact) < 2e-3
        assert abs(gl_density(bench_params, 0.1, 2.0, 30) - exact) < 2e-4


class TestOmegaApproximation:
    def test_close_to_exact_adjustment(self, bench_params):
        omega_bar = gl_omega(bench_params, 2.0, 15)
        assert abs(omega_bar - martingale_adjustment(bench_params)) < 1e-3

    def test_order_one_literal_formula(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        t = 2.0
        expected = -(0.1 * 0.85 + 0.5 * 0.2**2 * 0.85) / t
        assert gl_omega(params, t, 1) == pytest.approx(expected, rel=1e-13)

    def test_low_variance_limit(self):
        """Small nu recovers the Gaussian adjustment -sigma^2/2.

        The clock shape t/nu must stay within the node range of the rule
        (largest order-30 node ~ 104), so "small" means nu ~ 0.05 at t = 1;
        for much smaller nu the mixture weights degenerate onto the last
        node and the approximation leaves its domain of validity.
        """
        params = VgParams(sigma=0.2, nu=0.05)
        assert gl_omega(params, 1.0, 30) == pytest.approx(-0.02, abs=1e-4)


class TestEuropeanMixture:
    def test_reference_grid(self, bench_params):
        for cell in load_reference().values():
            if cell.table != "6" or not cell.col_label.startswith("gl_n"):
                continue
            spot = (
                atm_spot(bench_params, 2.0)
                if cell.row_label == "ATM"
                else float(cell.row_label.split("=")[1])
            )
            order = int(cell.col_label.split("=")[1])
            value = gl_european(bench_params, make_market(spot, 2.0), order).value
            assert value == pytest.approx(cell.value, abs=5e-3), cell

    def test_relative_gap_to_series(self, bench_params):
        ctrl = SeriesControl(max_order=15)
        for spot in (4500.0, atm_spot(bench_params, 2.0), 3500.0):
            market = make_market(spot, 2.0)
            series_value = european(bench_params, market, ctrl).value
            quad_value = gl_european(bench_params, market, 15).value
            assert abs(quad_value - series_value) / series_value < 2e-4

    def test_gap_shrinks_with_order(self, bench_params):
        ctrl = SeriesControl(max_order=25)
        for spot in (4500.0, atm_spot(bench_params, 2.0), 3500.0):
            market = make_market(spot, 2.0)
            series_value = european(bench_params, market, ctrl).value
            gaps = [
                abs(gl_european(bench_params, market, n).value - series_value)
                for n in (5, 10, 15)
            ]
            assert gaps[0] > gaps[1] > gaps[2]

    def test_short_horizon_raises_shape_warning(self, bench_params):
        result = gl_european(bench_params, make_market(4200.0, 0.5), 10)
        assert "warning" in result.diagnostics
        long_result = gl_european(bench_params, make_market(4200.0, 2.0), 10)
        assert "warning" not in long_result.diagnostics

    def test_rule_built_once_per_price(self, bench_params, monkeypatch):
        calls = []
        rule = specfun.laguerre_rule

        def counted(n):
            calls.append(n)
            return rule(n)

        monkeypatch.setattr(specfun, "laguerre_rule", counted)
        monkeypatch.setattr(quadrature, "laguerre_rule", counted)
        gl_european(bench_params, make_market(4200.0, 2.0), 15)
        assert calls == [15]

    def test_drifted_model(self):
        params = base_params(-0.1)
        market = make_market(4200.0, 2.0)
        value = gl_european(params, market, 15).value
        assert 400.0 < value < 900.0
