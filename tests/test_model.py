"""Process-level tests: parameters, densities, characteristic function."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from vgpricer import specfun
from vgpricer.errors import (
    BranchCutError,
    GammaOverflowError,
    InvalidParameters,
    NonConvergenceError,
)
from vgpricer.model import (
    MarketInputs,
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
from vgpricer.specfun import bessel_k

from conftest import make_market


class TestParams:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(InvalidParameters):
            VgParams(sigma=0.0, nu=0.85)
        with pytest.raises(InvalidParameters):
            VgParams(sigma=0.2, nu=-1.0)

    def test_rejects_invalid_martingale_triple(self):
        with pytest.raises(InvalidParameters, match="martingale adjustment undefined"):
            VgParams(sigma=0.2, nu=0.85, theta=1.2)

    def test_market_validation(self):
        with pytest.raises(InvalidParameters):
            MarketInputs(spot=-1.0, strike=100.0, rate=0.0, tau=1.0)
        with pytest.raises(InvalidParameters):
            MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=0.0)
        with pytest.raises(InvalidParameters):
            MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=1.0, power=0.5)


class TestMartingaleAdjustment:
    def test_symmetric_value(self, bench_params):
        # (1/0.85) ln(1 - 0.02^2... ) evaluated directly
        expected = math.log(1.0 - 0.5 * 0.2**2 * 0.85) / 0.85
        omega = martingale_adjustment(bench_params)
        assert omega == pytest.approx(expected, rel=1e-15)
        assert omega == pytest.approx(-0.0201719, abs=1e-7)

    def test_gaussian_limit(self):
        omega = martingale_adjustment(VgParams(sigma=0.2, nu=1e-8))
        assert omega == pytest.approx(-0.02, abs=1e-9)


class TestDerive:
    def test_benchmark_shorthands(self, bench_params):
        derived = derive(bench_params, make_market(spot=4000.0, tau=2.0))
        assert derived.log_fwd_moneyness == pytest.approx(0.02, rel=1e-12)
        assert derived.sigma_nu == pytest.approx(0.130384, abs=1e-6)
        assert derived.alpha == pytest.approx(1.852941, abs=1e-6)
        assert derived.forward_strike == pytest.approx(4000.0 * math.exp(-0.02), rel=1e-14)

    def test_symmetric_q_factor_identity(self):
        for sigma, nu in ((0.1, 0.3), (0.2, 0.85), (0.4, 1.4)):
            derived = derive(VgParams(sigma, nu), make_market(spot=4000.0, tau=1.0))
            assert derived.q_factor == pytest.approx(
                1.0 / (4.0 * derived.sigma_nu**2), rel=1e-13
            )

    def test_atm_spot_with_positive_drift(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        omega = martingale_adjustment(params)
        spot = 4000.0 * math.exp(-(0.01 + omega) * 2.0)
        assert spot == pytest.approx(5050.24, abs=0.01)
        derived = derive(params, make_market(spot=spot, tau=2.0))
        assert derived.rn_moneyness == pytest.approx(0.0, abs=1e-12)

    def test_dividend_yield_substitution(self, bench_params):
        plain = derive(bench_params, make_market(spot=4200.0, tau=2.0, rate=0.03))
        with_div = derive(
            bench_params,
            make_market(spot=4200.0, tau=2.0, rate=0.05, dividend_yield=0.02),
        )
        assert with_div.rate_effective == pytest.approx(0.03, rel=1e-14)
        assert with_div.forward_strike == pytest.approx(plain.forward_strike, rel=1e-14)
        assert with_div.rn_moneyness == pytest.approx(plain.rn_moneyness, rel=1e-12)


class TestDensity:
    def test_symmetric_in_x(self, bench_params):
        for x in (0.05, 0.4, 1.3):
            assert density(bench_params, x, 1.0) == density(bench_params, -x, 1.0)

    def test_against_mixture_oracle(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        assert density(params, 0.3, 1.0) == pytest.approx(
            mixture_density(params, 0.3, 1.0), abs=1e-8
        )

    def test_mixture_agreement_on_grid(self, bench_params):
        drifted = VgParams(sigma=0.2, nu=0.85, theta=-0.1)
        for params, t in ((bench_params, 1.0), (drifted, 0.5)):
            for x in np.linspace(-1.2, 1.2, 100):
                assert density(params, float(x), t) == pytest.approx(
                    mixture_density(params, float(x), t), abs=1e-8
                )

    def test_normalization(self, bench_params):
        total, _ = quad(lambda x: density(bench_params, x, 1.0), -3.0, 3.0, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mode_at_origin_when_symmetric(self, bench_params):
        peak = mixture_density(bench_params, 0.0, 1.0)
        for x in np.linspace(0.02, 1.0, 25):
            assert mixture_density(bench_params, float(x), 1.0) <= peak

    def test_clock_scale_horizon(self, bench_params):
        # t = nu makes the clock shape exactly 1; spot-check both forms there
        t = bench_params.nu
        for x in (0.1, -0.35):
            assert density(bench_params, x, t) == pytest.approx(
                mixture_density(bench_params, x, t), abs=1e-8
            )

    def test_tiny_argument_meets_the_origin_limit(self, bench_params):
        """At x = 1e-30 the Bessel factor is about 1e30 (K_1(z) ~ 1/z); the
        density there must agree with its analytic x = 0 limit (t/nu > 1/2).
        Below |x| ~ 1e-154 x^2 is subnormal, and further down K overflows
        double precision while the density stays finite.  Below |x| ~ 1e-308
        the Bessel argument is itself subnormal, and at t = 1 the order
        t/nu - 1/2 = 0.68 is below 1."""
        assert bessel_k(1.0, 1e-30) == pytest.approx(1e30, rel=1e-12)
        for params in (bench_params, VgParams(sigma=0.2, nu=0.85, theta=-0.1)):
            for t in (1.0, 2.0, 5.0):
                at_zero = density(params, 0.0, t)
                for x in (
                    1e-30, -1e-30, 1e-160, -1e-160, 1e-200, -1e-200, 1e-300, -1e-300,
                    1e-308, -1e-308, 1e-315, -1e-315, 1e-320, -1e-320,
                ):
                    assert density(params, x, t) == pytest.approx(at_zero, rel=1e-10)

    def test_order_zero_at_subnormal_argument(self, bench_params):
        """At t/nu = 1/2 the Bessel order is 0 and the density diverges only
        like -ln|x| at the origin.  scipy's K_0 overflows once its argument
        is subnormal, so the density there must come from log K alone; it is
        checked against the Bessel form in mpmath."""
        t = 0.425
        assert t / bench_params.nu == 0.5
        for x in (1e-310, -1e-310, 1e-315, -1e-315, 1e-320, -1e-320):
            with mpmath.workdps(40):
                sigma, nu = mpmath.mpf(bench_params.sigma), mpmath.mpf(bench_params.nu)
                front = 2 / (
                    nu ** (t / nu) * mpmath.sqrt(2 * mpmath.pi) * sigma * mpmath.gamma(t / nu)
                )
                z = mpmath.sqrt(2 * sigma**2 / nu) * abs(mpmath.mpf(x)) / sigma**2
                expected = float(front * mpmath.besselk(0, z))
            assert density(bench_params, x, t) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("order", [0.01, 0.02, 0.025])
    def test_small_order_at_subnormal_argument(self, bench_params, order):
        """Between order 0 and about 0.026 neither the power-law leading term
        of K nor K_0's logarithmic one is accurate at a subnormal argument,
        and scipy's K overflows there; the density is checked against the
        Bessel form in mpmath."""
        t = bench_params.nu * (0.5 + order)
        for x in (1e-310, -1e-310, 1e-320, -1e-320):
            with mpmath.workdps(40):
                sigma, nu = mpmath.mpf(bench_params.sigma), mpmath.mpf(bench_params.nu)
                shape = mpmath.mpf(t) / nu
                a2 = 2 * sigma**2 / nu
                front = 2 / (nu**shape * mpmath.sqrt(2 * mpmath.pi) * sigma * mpmath.gamma(shape))
                z = mpmath.sqrt(a2) * abs(mpmath.mpf(x)) / sigma**2
                power = (mpmath.mpf(x) ** 2 / a2) ** ((shape - 0.5) / 2)
                expected = float(front * power * mpmath.besselk(shape - 0.5, z))
            assert density(bench_params, x, t) == pytest.approx(expected, rel=1e-12)

    def test_large_order_where_k_overflows(self):
        """Above order about 35 there is a band of arguments where scipy's K
        overflows while the density stays finite; log K comes from the
        log-space integral there.  It is checked against mpmath at 40 digits
        at orders 100, 150, ..., 500 and 499.5, on 12 log-spaced arguments
        from 2e-8 sqrt(v - 1) to 2v, at every point where kv overflows, and
        the density against the Gamma mixture at t/nu - 1/2 = 499.5."""
        checked = 0
        for order in [*np.linspace(100.0, 500.0, 9), 499.5]:
            for z in np.geomspace(2e-8 * math.sqrt(order - 1.0), 2.0 * order, 12):
                if not math.isinf(kv(order, z)):
                    continue
                got = specfun._log_bessel_k(order, math.log(z))
                with mpmath.workdps(40):
                    expected = mpmath.log(mpmath.besselk(order, mpmath.mpf(z)))
                    assert abs(mpmath.expm1(got - expected)) < 1e-10
                checked += 1
        assert checked >= 50
        params = VgParams(sigma=0.2, nu=0.01)
        for x in (0.005, 0.05, -0.05, 0.1):
            assert density(params, x, 5.0) == pytest.approx(
                mixture_density(params, x, 5.0), rel=1e-10
            )

    @pytest.mark.parametrize("t", [1e-6, 1e-3])
    def test_overflowing_density_is_a_typed_error(self, t):
        """At t/nu well below 1/2 the density near the origin grows like
        |x|^(2 t/nu - 1) and exceeds double precision at x = 1e-320."""
        with pytest.raises(GammaOverflowError):
            density(VgParams(sigma=0.2, nu=0.85), 1e-320, t)

    @pytest.mark.parametrize("x, t", [(1e-300, 0.01), (1e-320, 1e-6)])
    def test_mixture_quadrature_failure_is_a_typed_error(self, x, t):
        """Near the origin at short horizons the mixture integrand is a spike
        that quad cannot resolve; it reported a wrong, negative value."""
        with pytest.raises(NonConvergenceError):
            mixture_density(VgParams(sigma=0.2, nu=0.85), x, t)

    def test_mixture_quadrature_converges_on_ordinary_grids(self):
        """On 101-point grids like the density command's, quad reports no
        failure at any point where the density is finite (x = 0 is left out
        at t/nu <= 1/2, where it diverges)."""
        for theta in (0.0, -0.14):
            params = VgParams(sigma=0.2, nu=0.85, theta=theta)
            for t in (0.05, 1.0, 5.0):
                for x in np.linspace(-1.5, 1.5, 101):
                    if x != 0.0 or t / params.nu > 0.5:
                        assert mixture_density(params, float(x), t) >= 0.0

    @pytest.mark.parametrize("order", [200.0, 400.0, 600.0])
    def test_mixture_agreement_at_long_horizons(self, bench_params, order):
        """At t/nu - 1/2 of 200 and more the clock's mass sits in a band of
        width sqrt(t nu) around y = t, which an integral over [0, inf) can
        step over; both forms must still agree."""
        t = bench_params.nu * (order + 0.5)
        for x in (0.01, 1.0, -2.5, 6.0):
            assert mixture_density(bench_params, x, t) == pytest.approx(
                density(bench_params, x, t), rel=1e-10
            )

    def test_domain_errors(self, bench_params):
        with pytest.raises(InvalidParameters):
            density(bench_params, 0.1, 0.0)
        with pytest.raises(InvalidParameters):
            mixture_density(bench_params, 0.1, -1.0)

    def test_martingale_property_under_density(self):
        for theta in (0.0, 0.1, -0.1):
            params = VgParams(sigma=0.2, nu=0.85, theta=theta)
            omega = martingale_adjustment(params)
            for t in (0.5, 2.0):
                integral, _ = quad(
                    lambda x: math.exp(x) * density(params, x, t),
                    -18.0, 6.0, limit=400,
                )
                assert integral * math.exp(omega * t) == pytest.approx(1.0, abs=1e-5)


class TestCharacteristicFunction:
    def test_at_zero(self, bench_params):
        assert characteristic_fn(bench_params, 0.0, 1.0) == pytest.approx(1.0 + 0.0j)

    def test_martingale_condition(self):
        for theta in (0.0, 0.1, -0.12):
            params = VgParams(sigma=0.2, nu=0.85, theta=theta)
            for t in (0.5, 2.0):
                assert rn_characteristic_fn(params, -1j, t) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_real_argument_value(self, bench_params):
        # definitional identity against the exponent at u = 1, t = 1
        value = characteristic_fn(bench_params, 1.0, 1.0)
        assert value == pytest.approx(
            cmath.exp(-levy_symbol(bench_params, 1.0)), rel=1e-13
        )
        assert value.real == pytest.approx(
            (1.0 + 0.5 * 0.2**2 * 0.85) ** (-1.0 / 0.85), rel=1e-13
        )

    def test_conjugate_symmetry(self, bench_params):
        for u in (0.3, 2.2, 17.0):
            plus = characteristic_fn(bench_params, u, 1.3)
            minus = characteristic_fn(bench_params, -u, 1.3)
            assert minus == pytest.approx(plus.conjugate(), rel=1e-13)

    def test_exponent_consistency_random_strip(self):
        params = VgParams(sigma=0.25, nu=0.6, theta=0.05)
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = complex(rng.uniform(-20, 20), rng.uniform(-0.9, 0.9))
            t = rng.uniform(0.1, 3.0)
            direct = characteristic_fn(params, u, t)
            via_exponent = cmath.exp(-t * levy_symbol(params, u))
            assert direct == pytest.approx(via_exponent, rel=1e-12)

    def test_levy_symbol_at_zero_and_minus_i(self, bench_params):
        assert levy_symbol(bench_params, 0.0) == 0.0
        assert levy_symbol(bench_params, -1j).real == pytest.approx(
            martingale_adjustment(bench_params), rel=1e-13
        )
        assert levy_symbol(bench_params, -1j).imag == pytest.approx(0.0, abs=1e-15)

    def test_branch_cut_error(self, bench_params):
        # far enough up the imaginary axis the base becomes a negative real
        with pytest.raises(BranchCutError):
            characteristic_fn(bench_params, 9.0j, 1.0)

    def test_fourier_inversion_recovers_density(self, bench_params):
        t = 2.0
        for x in np.linspace(-1.4, 1.4, 10):
            integrand = lambda u: (
                cmath.exp(-1j * u * x) * characteristic_fn(bench_params, u, t)
            ).real
            integral, _ = quad(integrand, 0.0, 2000.0, limit=2000)
            assert integral / math.pi == pytest.approx(
                density(bench_params, float(x), t), abs=1e-6
            )


class TestLevyMeasure:
    def test_symmetric_measure(self, bench_params):
        for x in (0.2, 0.9):
            assert levy_measure_density(bench_params, x) == pytest.approx(
                levy_measure_density(bench_params, -x), rel=1e-14
            )

    def test_two_sided_form_cross_check(self):
        # tempered-stable style form with rates from the Gamma split
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        decomp = gamma_decomposition(params)
        activity = 1.0 / params.nu
        rate_neg = 1.0 / (decomp.mu_minus * params.nu)
        rate_pos = 1.0 / (decomp.mu_plus * params.nu)
        for x in (0.5, -0.5, 0.03, -1.7):
            rate = rate_pos if x > 0 else rate_neg
            expected = activity * math.exp(-rate * abs(x)) / abs(x)
            assert levy_measure_density(params, x) == pytest.approx(expected, rel=1e-10)

    def test_zero_rejected(self, bench_params):
        with pytest.raises(InvalidParameters):
            levy_measure_density(bench_params, 0.0)


class TestGammaDecomposition:
    def test_symmetric_split(self, bench_params):
        decomp = gamma_decomposition(bench_params)
        expected = 0.2 / math.sqrt(2.0 * 0.85)
        assert decomp.mu_plus == pytest.approx(expected, rel=1e-14)
        assert decomp.mu_minus == pytest.approx(expected, rel=1e-14)

    def test_drift_identities(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        decomp = gamma_decomposition(params)
        assert decomp.mu_plus - decomp.mu_minus == pytest.approx(0.1, rel=1e-12)
        assert decomp.nu_plus / decomp.mu_plus**2 == pytest.approx(0.85, rel=1e-12)
        assert decomp.nu_minus / decomp.mu_minus**2 == pytest.approx(0.85, rel=1e-12)
