"""Process-level tests: parameters, densities, characteristic function."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, reject
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kv

from vgpricer import fourier, model, montecarlo, quadrature, specfun
from vgpricer.errors import (
    BranchCutError,
    DampingOutOfRangeError,
    GammaOverflowError,
    InvalidParameters,
    NonConvergenceError,
    PoleError,
    VgError,
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

    @pytest.mark.parametrize("theta, message", [
        (-math.inf, "theta must be finite, got -inf"),
        (math.inf, "martingale adjustment undefined"),
        (math.nan, "martingale adjustment undefined"),
    ])
    def test_theta_must_be_finite(self, theta, message):
        """theta = -inf passed the martingale check, and a Monte Carlo price
        of it printed "value": NaN with exit 0."""
        with pytest.raises(InvalidParameters, match=message):
            VgParams(sigma=0.2, nu=0.85, theta=theta)

    @pytest.mark.parametrize("build", [
        lambda: VgParams(sigma=1e-170, nu=0.3),
        lambda: MarketInputs(spot=100.0, strike=0.0, rate=0.0, tau=1.0),
        lambda: MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=1.0, trigger_strike=0.0),
    ], ids=["sigma-squared-nu-underflows", "zero-strike", "zero-trigger"])
    def test_degenerate_inputs_rejected(self, build):
        with pytest.raises(InvalidParameters):
            build()

    def test_is_symmetric_reads_theta(self):
        assert VgParams(0.2, 0.85).is_symmetric
        assert not VgParams(0.2, 0.85, theta=0.1).is_symmetric

    def test_market_validation(self):
        with pytest.raises(InvalidParameters):
            MarketInputs(spot=-1.0, strike=100.0, rate=0.0, tau=1.0)
        with pytest.raises(InvalidParameters):
            MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=0.0)
        with pytest.raises(InvalidParameters):
            MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=1.0, power=0.5)

    @pytest.mark.parametrize("field, value", [
        ("spot", math.inf), ("strike", math.inf), ("rate", math.nan), ("rate", -math.inf),
        ("tau", math.inf), ("trigger_strike", math.inf), ("dividend_yield", math.nan),
        ("power", math.inf),
    ])
    def test_market_fields_must_be_finite(self, field, value):
        fields = {**dict(spot=100.0, strike=100.0, rate=0.0, tau=1.0), field: value}
        with pytest.raises(InvalidParameters) as info:
            MarketInputs(**fields)
        assert str(info.value) == f"{field} must be finite, got {value!r}"

    def test_finite_fields_whose_sum_overflows_are_accepted(self):
        market = MarketInputs(spot=1e308, strike=1e308, rate=0.0, tau=1.0, trigger_strike=1e308)
        assert market.spot + market.strike == math.inf

    @pytest.mark.parametrize("field", ["spot", "strike", "tau"])
    def test_a_non_positive_infinity_keeps_its_message(self, field):
        fields = {**dict(spot=100.0, strike=100.0, rate=0.0, tau=1.0), field: -math.inf}
        with pytest.raises(InvalidParameters) as info:
            MarketInputs(**fields)
        assert str(info.value) == f"{field} must be positive, got -inf"


# the six functions of a horizon t, each called at t
_OF_HORIZON = {
    "density": lambda params, t: density(params, 0.1, t),
    "mixture_density": lambda params, t: mixture_density(params, 0.1, t),
    "characteristic_fn": lambda params, t: characteristic_fn(params, 1.0, t),
    "gl_density": lambda params, t: quadrature.gl_density(params, 0.1, t, 15),
    "gl_omega": lambda params, t: quadrature.gl_omega(params, t, 15),
    "sample_vg": lambda params, t: montecarlo.sample_vg(params, t, 3, seed=0),
}


class TestHorizon:
    @pytest.mark.parametrize("name", sorted(_OF_HORIZON))
    @pytest.mark.parametrize("sigma, nu, t", [(0.2, 0.85, math.inf), (1e100, 5e-324, 1.0)])
    def test_a_clock_shape_that_is_not_finite_is_rejected(self, name, sigma, nu, t):
        """t = inf ended in a scipy ValueError, nan or -0j; t/nu overflowing
        at a subnormal nu is rejected by the same check."""
        with pytest.raises(InvalidParameters, match="t/nu = .* is not finite"):
            _OF_HORIZON[name](VgParams(sigma=sigma, nu=nu), t)

    @pytest.mark.parametrize("name", sorted(_OF_HORIZON))
    def test_a_non_positive_horizon_keeps_its_message(self, name):
        with pytest.raises(InvalidParameters) as info:
            _OF_HORIZON[name](VgParams(sigma=0.2, nu=0.85), -math.inf)
        assert str(info.value) == f"{name} requires t > 0, got -inf"

    def test_derive_rejects_a_clock_shape_that_is_not_finite(self):
        with pytest.raises(InvalidParameters, match="t/nu = 1.0/5e-324 is not finite"):
            derive(VgParams(sigma=1e100, nu=5e-324), make_market(100.0, 1.0))


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

    @pytest.mark.parametrize("rate, strike, exponent", [
        (1000.0, 4000.0, -1000.0), (-1000.0, 4000.0, 1000.0), (-700.0, 1e10, 700.0),
    ], ids=["underflows", "exp-overflows", "product-overflows"])
    def test_a_forward_strike_out_of_the_double_range_is_rejected(self, rate, strike, exponent):
        """K e^(-r tau) of 0 divided by zero in ln(S/F), and e^1000 raised
        OverflowError; each is InvalidParameters."""
        market = make_market(3000.0, 1.0, strike=strike, rate=rate)
        message = f"= {strike!r} e^{exponent!r} leaves the double range"
        with pytest.raises(InvalidParameters, match=re.escape(message)):
            derive(VgParams(0.2, 0.85), market)


class TestPriceResultRule:
    def test_warnings_join_last_into_the_diagnostics(self):
        result = model._price_result("fourier", 1.0, 3, 0.5, "otm", {"a": 1}, ["x", "y"])
        assert list(result.diagnostics.items()) == [("a", 1), ("warning", "x; y")]
        assert (result.value, result.method, result.terms_evaluated) == (1.0, "fourier", 3)
        assert (result.truncation_estimate, result.branch) == (0.5, "otm")
        assert "warning" not in model._price_result("series", 1.0, 1, 0.0, "atm", {}).diagnostics

    @pytest.mark.parametrize("numbers, message", [
        ((math.nan, 0.0, 0.1, (0.0, 1.0)), "monte_carlo value nan is not finite"),
        ((1.0, math.inf, 0.1, (0.0, 1.0)), "monte_carlo truncation_estimate inf is not finite"),
        ((1.0, 0.0, math.inf, (0.0, 1.0)), "monte_carlo std_error inf is not finite"),
        ((1.0, 0.0, 0.1, (-math.inf, 1.0)), "monte_carlo ci -inf is not finite"),
        ((1.0, 0.0, 0.1, (0.0, math.nan)), "monte_carlo ci nan is not finite"),
    ])
    def test_a_number_that_is_not_finite_raises_with_the_result(self, numbers, message):
        value, estimate, std_error, ci = numbers
        with pytest.raises(NonConvergenceError) as raised:
            model._price_result(
                "monte_carlo", value, 10, estimate, "itm", {}, std_error=std_error, ci=ci
            )
        assert str(raised.value) == message
        assert (raised.value.result.std_error, raised.value.result.ci) == (std_error, ci)


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

    def test_where_kv_underflows(self):
        """At sigma 0.01 and theta -0.2, K_3.5(3015) underflows while
        e^{theta x / sigma^2} = e^3000 makes up for it: log K comes from kve."""
        params = VgParams(sigma=0.01, nu=0.5, theta=-0.2)
        value = density(params, -1.5, 2.0)
        assert value == pytest.approx(0.0017544128671656, rel=1e-13)
        assert value == pytest.approx(mixture_density(params, -1.5, 2.0), rel=1e-10)

    def test_where_a2_underflows(self):
        """At sigma 1e-150 and nu 1e300, 2 sigma^2 / nu underflows to 0: log a2
        is taken from its logs, at x = 0 too."""
        params = VgParams(sigma=1e-150, nu=1e300)
        for x in (3.0, -3.0, 0.5):
            assert density(params, x, 1e300) == pytest.approx(
                mixture_density(params, x, 1e300), rel=1e-10
            )
        assert 0.0 < density(params, 0.0, 2e300) < math.inf

    def test_terms_that_cancel_past_the_double_range_are_a_typed_error(self):
        """At sigma 1e-150, x = 1e10: e^{theta x / sigma^2} overflows and z
        passes the double range, so log K is -inf and the sum is NaN."""
        with pytest.raises(GammaOverflowError, match="leaves double precision"):
            density(VgParams(sigma=1e-150, nu=1.0, theta=0.5), 1e10, 1.0)

    def test_mixture_on_a_subnormal_clock(self):
        """At nu = t = 5e-324 the interval is subnormal and quad's nodes round
        to 0, where the kernel is a point mass; the density there is 0."""
        params = VgParams(sigma=3.0, nu=5e-324)
        assert mixture_density(params, 2.0, 5e-324) == 0.0

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

    def test_far_tail_underflows_to_zero(self, bench_params):
        """At x = 100, t = 0.1 kv underflows to 0, and so does the density."""
        assert density(bench_params, 100.0, 0.1) == 0.0

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

    @pytest.mark.parametrize("t", [0.05, 0.425])
    def test_mixture_rejects_the_divergent_origin(self, t):
        """At x = 0 with t/nu <= 1/2 the mixture integral diverges, as the
        closed form does; both raise the same domain error."""
        params = VgParams(sigma=0.2, nu=0.85)
        for form in (density, mixture_density):
            with pytest.raises(InvalidParameters):
                form(params, 0.0, t)

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

    @pytest.mark.parametrize("u, t, error", [
        (1.0, 0.0, InvalidParameters),
        (np.array([0.0, 10j]), 1.0, BranchCutError),
    ], ids=["zero-horizon", "array-point-on-the-cut"])
    def test_domain_errors(self, bench_params, u, t, error):
        with pytest.raises(error):
            characteristic_fn(bench_params, u, t)

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


def _principal_power(params, u, t):
    """(1 - i theta nu u + sigma^2 nu u^2 / 2)^(-t/nu), the principal power of the
    unfactored base: the reference the factored log must meet off the cuts."""
    sigma, nu, theta = params.sigma, params.nu, params.theta
    base = 1.0 - 1j * theta * nu * u + 0.5 * sigma**2 * nu * u**2
    return base ** (-t / nu)


@st.composite
def _recipe(draw):
    """sigma = 10^U[-2, 0.3], nu = 10^U[-3, 0.5], theta in [-0.5, 0.5] and
    t = 10^U[-3, 0.5], with a point on the real axis and one in the strip, up to
    0.9 of the way to a branch point."""
    sigma = 10.0 ** draw(st.floats(-2.0, 0.3))
    nu = 10.0 ** draw(st.floats(-3.0, 0.5))
    theta = draw(st.floats(-0.5, 0.5))
    assume(1.0 - theta * nu - 0.5 * sigma**2 * nu > 0.0)
    params = VgParams(sigma, nu, theta)
    t = 10.0 ** draw(st.floats(-3.0, 0.5))
    x = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-2.0, 2.0))
    reach = draw(st.floats(-0.9, 0.9))
    eta_minus, eta_plus = model._branch_points(params)
    y = reach * (eta_plus if reach > 0.0 else -eta_minus)
    return params, t, x, complex(x, y)


# the three public functions of a point u, each at t = 1 unless t is given
_OF_U = {
    "characteristic_fn": lambda params, u, t=1.0: characteristic_fn(params, u, t),
    "rn_characteristic_fn": lambda params, u, t=1.0: rn_characteristic_fn(params, u, t),
    "levy_symbol": levy_symbol,
}


class TestOneFormula:
    """characteristic_fn, rn_characteristic_fn and levy_symbol take the factored
    log of model._log_base, the one every Fourier price uses; its cuts lie on
    the imaginary axis outside (eta_-, eta_+), from model._branch_points."""

    @given(_recipe())
    def test_the_factored_log_is_the_principal_power(self, case):
        params, t, *points = case
        for u in points:
            try:
                expected = _principal_power(params, u, t)
            except OverflowError:
                with pytest.raises(GammaOverflowError):
                    characteristic_fn(params, u, t)
                continue
            assert characteristic_fn(params, u, t) == pytest.approx(expected, rel=1e-10, abs=1e-300)
            assert cmath.exp(-t * levy_symbol(params, u)) == pytest.approx(
                expected, rel=1e-10, abs=1e-300
            )

    @pytest.mark.parametrize("at", ["eta_plus", "above_eta_plus", "eta_minus"])
    @pytest.mark.parametrize("name", ["characteristic_fn", "rn_characteristic_fn", "levy_symbol"])
    def test_the_cuts_raise(self, name, at):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        eta_minus, eta_plus = model._branch_points(params)
        u = 1j * {"eta_plus": eta_plus, "above_eta_plus": eta_plus + 1.0, "eta_minus": eta_minus}[at]
        message = f"characteristic function base lies on the branch cut at u = {u!r}"
        for point in (u, np.array([0.0, 1.0, u])):
            with pytest.raises(BranchCutError) as info:
                _OF_U[name](params, point)
            assert str(info.value) == message

    @pytest.mark.parametrize("name", ["characteristic_fn", "rn_characteristic_fn", "levy_symbol"])
    def test_off_the_cuts_every_point_is_evaluated(self, name):
        """A point within rounding of the axis but off it, 1e-300 + i (eta_+ + 1),
        raised BranchCutError when the cut was found by a tolerance on the base."""
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        eta_minus, eta_plus = model._branch_points(params)
        strip = 1j * np.linspace(eta_minus, eta_plus, 101)[1:-1]
        assert np.all(np.isfinite(_OF_U[name](params, strip)))
        for u in (1e-300 + 1j * (eta_plus + 1.0), -1e-300 + 1j * (eta_minus - 1.0), 1e-16 + 9j):
            assert cmath.isfinite(_OF_U[name](params, u))

    def test_large_arguments_never_form_u_squared(self):
        """u^2 of the unfactored base raised OverflowError in levy_symbol at
        1e160 and wrote an overflow warning in characteristic_fn at 1e200."""
        params = VgParams(sigma=0.2, nu=0.85)
        expected = (2.0 * math.log(1e160) + math.log(0.5 * 0.2**2 * 0.85)) / 0.85
        assert levy_symbol(params, 1e160) == pytest.approx(expected, rel=1e-15)
        assert characteristic_fn(params, 1e200, 1.0) == 0j

    @pytest.mark.parametrize("name", ["characteristic_fn", "rn_characteristic_fn"])
    def test_an_overflowing_value_is_a_typed_error(self, name):
        """Near i eta_+ at t = 170, |Phi| is about 1e520: it was returned as inf
        with a RuntimeWarning."""
        with pytest.raises(GammaOverflowError, match=f"{name} at u = 7.66j overflows"):
            _OF_U[name](VgParams(sigma=0.2, nu=0.85), 7.66j, 170.0)

    @pytest.mark.parametrize("u", [
        complex(math.nan, 3.0), complex(math.nan, 0.0), complex(-math.inf, -3.0),
        np.array([1.0, complex(0.0, math.inf)]),
    ])
    @pytest.mark.parametrize("name", ["characteristic_fn", "rn_characteristic_fn", "levy_symbol"])
    def test_a_point_that_is_not_finite_is_refused(self, name, u):
        """NaN+NaNj came back at nan + 3j and nan + 0j, and -inf - 3j wrote an
        "invalid value" warning."""
        bad = complex(np.asarray(u).ravel()[-1])
        with pytest.raises(InvalidParameters) as info:
            _OF_U[name](VgParams(sigma=0.2, nu=0.85), u)
        assert str(info.value) == f"{name} requires a finite u, got u = {bad!r}"


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

    @pytest.mark.parametrize("sigma, nu, theta, x, expected", [
        # inf - inf in the old exponent at a decay of 1e100 per unit
        (1e-100, 0.5, 0.1, 1e300, 0.0),
        # nu |x| underflows to 0: a ZeroDivisionError
        (0.2, 1e-300, 0.0, 1e-300, GammaOverflowError),
        # 1/(nu |x|) overflows at a subnormal x: inf without an error
        (0.2, 0.85, 0.0, 1e-320, GammaOverflowError),
    ], ids=["nan-exponent", "nu-x-underflows", "subnormal-x"])
    def test_a_density_past_the_double_range(self, sigma, nu, theta, x, expected):
        params = VgParams(sigma=sigma, nu=nu, theta=theta)
        if expected is GammaOverflowError:
            with pytest.raises(GammaOverflowError, match="overflows double precision"):
                levy_measure_density(params, x)
        else:
            assert levy_measure_density(params, x) == expected


_P = VgParams(sigma=0.2, nu=0.85)
_NAN, _INF = math.nan, math.inf
# every public special function and density, at (a, b): a is the point x (the
# order for bessel_k) and b the horizon t (x for bessel_k)
_PUBLIC = {
    "log_gamma": lambda p, a, b: specfun.log_gamma(a),
    "gamma": lambda p, a, b: specfun.gamma(a),
    "bessel_k": lambda p, a, b: specfun.bessel_k(a, b),
    "density": lambda p, a, b: density(p, a, b),
    "mixture_density": lambda p, a, b: mixture_density(p, a, b),
    "levy_measure_density": lambda p, a, b: levy_measure_density(p, a),
    "gl_density": lambda p, a, b: quadrature.gl_density(p, a, b, 15),
}


class TestNonFiniteArguments:
    @pytest.mark.parametrize("name, a, b, expected", [
        ("log_gamma", -_INF, None, PoleError),
        ("gamma", -_INF, None, PoleError),
        ("bessel_k", _NAN, 1.0, InvalidParameters),
        ("bessel_k", _INF, 1.0, GammaOverflowError),
        ("bessel_k", 1e300, 1e-300, GammaOverflowError),
        ("levy_measure_density", _NAN, None, InvalidParameters),
        ("gl_density", _NAN, 1.0, InvalidParameters),
        ("mixture_density", _NAN, 1.0, InvalidParameters),
        ("density", _NAN, 1.0, InvalidParameters),
        ("density", _INF, 1.0, 0.0),
        ("density", -_INF, 1.0, 0.0),
    ])
    def test_a_typed_error_or_a_density_of_zero(self, name, a, b, expected):
        """A NaN argument is InvalidParameters, every density is 0 at x = +-inf,
        -inf is Gamma's limit of poles, and K past the double range overflows."""
        if isinstance(expected, float):
            assert _PUBLIC[name](_P, a, b) == expected
        else:
            with pytest.raises(expected):
                _PUBLIC[name](_P, a, b)

    @pytest.mark.parametrize("x", [_INF, -_INF])
    @pytest.mark.parametrize("name", ["density", "mixture_density", "levy_measure_density",
                                      "gl_density"])
    def test_every_density_is_zero_off_the_line(self, name, x):
        assert _PUBLIC[name](_P, x, 1.0) == 0.0

    @given(
        name=st.sampled_from(sorted(_PUBLIC)),
        params=st.sampled_from([_P, VgParams(sigma=0.2, nu=0.85, theta=-0.1)]),
        a=st.one_of(st.sampled_from([_NAN, _INF, -_INF, 0.0, 5e-324, -1e-300, 1e300]), st.floats()),
        b=st.one_of(st.sampled_from([_NAN, _INF, -_INF, 5e-324, 1e-300, 1e300]), st.floats()),
    )
    def test_non_finite_and_extreme_arguments(self, name, params, a, b):
        """Each call returns a number or raises a VgError, never another exception
        and never NaN.  A density or K is finite and >= 0; log_gamma's log is
        +inf only where ln Gamma itself overflows (x past about 2.5e305)."""
        try:
            value = _PUBLIC[name](params, a, b)
        except VgError:
            return
        if name == "log_gamma":
            log_abs, sign = value
            assert sign in (1.0, -1.0) and not math.isnan(log_abs)
            assert log_abs < math.inf or a > 2e305
        else:
            assert math.isfinite(value)
            assert name == "gamma" or value >= 0.0


@st.composite
def _tails_draw(draw):
    """sigma, nu, |theta| and |x| = 10^U[-330, 308], past the double range at
    the low end and where its squares and products overflow at the high end;
    theta 0 in a third of the draws.  A draw VgParams refuses is rejected."""
    sigma, nu, theta, x = (10.0 ** draw(st.floats(-330.0, 308.0)) for _ in range(4))
    theta *= draw(st.sampled_from([0.0, 1.0, -1.0]))
    x *= draw(st.sampled_from([1.0, -1.0]))
    try:
        return VgParams(sigma=sigma, nu=nu, theta=theta), x
    except InvalidParameters:
        reject()


class TestTailsProperty:
    @given(_tails_draw())
    def test_levy_density_and_damping_edge_follow_the_branch_points(self, draw):
        """levy_measure_density is finite and >= 0 or a VgError, and exactly
        symmetric at theta = 0; where a_max is finite, carr_madan_european
        admits a_max (1 - 1e-9) and refuses a_max (1 + 1e-9).  The horizon is
        nu, a clock shape of 1, so derive admits every draw."""
        params, x = draw
        try:
            value = levy_measure_density(params, x)
        except VgError:
            pass
        else:
            assert 0.0 <= value < math.inf
            if params.theta == 0.0:
                assert levy_measure_density(params, -x) == value
        try:
            bound = fourier.a_max(params)
        except VgError:
            return
        if not math.isfinite(bound):
            return
        market = MarketInputs(spot=100.0, strike=100.0, rate=0.0, tau=params.nu)
        inside = fourier.FourierConfig(damping_a=bound * (1.0 - 1e-9))
        try:
            fourier.carr_madan_european(params, market, inside)
        except DampingOutOfRangeError:
            raise
        except VgError:
            pass
        with pytest.raises(DampingOutOfRangeError):
            fourier.carr_madan_european(
                params, market, fourier.FourierConfig(damping_a=bound * (1.0 + 1e-9))
            )


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

    @pytest.mark.parametrize("call", [
        lambda params: characteristic_fn(params, 1.0, 1.0),
        lambda params: levy_symbol(params, 1.0),
        lambda params: levy_measure_density(params, 1.0),
        fourier.a_max,
    ], ids=["characteristic_fn", "levy_symbol", "levy_measure_density", "a_max"])
    def test_a_rate_that_is_not_finite_is_refused(self, call):
        """At theta = -1e300 theta^2 overflows and both rates are inf, which put
        both branch points at 0: characteristic_fn raised a misleading
        GammaOverflowError at u = 1."""
        params = VgParams(sigma=0.85, nu=0.85, theta=-1e300)
        with pytest.raises(InvalidParameters) as info:
            call(params)
        assert str(info.value) == "Gamma rates mu_+ = inf and mu_- = inf must both be finite"
