"""Special-function kernel tests.

Oracles are independent of the implementation paths: a 20-term Stirling
asymptotic series for log-Gamma, product recursion for Gamma at negative
arguments, adaptive quadrature of the defining integral for Bessel K, and
numeric integration of the Gaussian density for the normal CDF.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kv, roots_genlaguerre

from vgpricer import specfun
from vgpricer.errors import GammaOverflowError, InvalidParameters, PoleError
from vgpricer.reference import load_reference
from vgpricer.specfun import bessel_k, gamma, laguerre_rule, log_gamma, normal_cdf

# Bernoulli numbers B_2 .. B_40 for the Stirling oracle.
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
    Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
    Fraction(-236364091, 2730), Fraction(8553103, 6), Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322), Fraction(-7709321041217, 510),
    Fraction(2577687858367, 6), Fraction(-26315271553053477373, 1919190),
    Fraction(2929993913841559, 6), Fraction(-261082718496449122051, 13530),
]


def stirling_log_gamma(x: float) -> float:
    """20-term Stirling series, shifted so the asymptotics are accurate."""
    shift = 0.0
    while x < 10.0:
        shift -= math.log(x)
        x += 1.0
    total = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi)
    for k, b2k in enumerate(_BERNOULLI, start=1):
        total += float(b2k) / (2 * k * (2 * k - 1) * x ** (2 * k - 1))
    return total + shift


class TestLogGamma:
    def test_one_is_zero(self):
        value, sign = log_gamma(1.0)
        assert value == pytest.approx(0.0, abs=1e-15)
        assert sign == 1.0

    def test_half_is_log_sqrt_pi(self):
        value, sign = log_gamma(0.5)
        assert value == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        assert sign == 1.0

    def test_against_stirling_oracle(self):
        value, _ = log_gamma(10.3)
        assert abs(value - stirling_log_gamma(10.3)) <= 1e-12 * abs(value)

    @pytest.mark.parametrize("x", np.linspace(0.05, 60.0, 97).tolist())
    def test_positive_axis_accuracy(self, x):
        value, sign = log_gamma(x)
        oracle = stirling_log_gamma(x)
        assert sign == 1.0
        # compare on the Gamma scale: exp of the log difference
        assert abs(math.exp(value - oracle) - 1.0) < 1e-13

    def test_negative_axis_via_reflection_oracle(self):
        for x in (-0.3, -1.7, -2.3, -5.5, -17.25):
            value, sign = log_gamma(x)
            refl = math.pi / (math.sin(math.pi * x) * math.exp(stirling_log_gamma(1.0 - x)))
            assert sign == math.copysign(1.0, refl)
            assert math.exp(value) == pytest.approx(abs(refl), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -3.0 + 1e-13])
    def test_pole_guard(self, x):
        with pytest.raises(PoleError):
            log_gamma(x)

    def test_nan_rejected(self):
        with pytest.raises(InvalidParameters, match="NaN"):
            log_gamma(math.nan)


class TestSignedLogGammaKernel:
    """specfun._log_gamma_signed, which the series take their coefficients from."""

    def test_poles_give_inf_and_zero_sign_among_ordinary_points(self):
        from scipy.special import gammaln, gammasgn

        x = np.array([2.5, 0.0, -0.5, -0.0, -1.0, 7.0, -7.0, -2.25, 1e-300, np.nan])
        pole = np.array([False, True, False, True, True, False, True, False, False, False])
        log_abs, sign = specfun._log_gamma_signed(x)
        assert log_abs.shape == sign.shape == x.shape
        assert np.all(log_abs[pole] == np.inf)
        assert np.all(sign[pole] == 0.0)
        np.testing.assert_array_equal(log_abs[~pole], gammaln(x[~pole]))
        np.testing.assert_array_equal(sign[~pole], gammasgn(x[~pole]))

    @pytest.mark.parametrize("x, expected", [
        (0.0, (np.inf, 0.0)), (-0.0, (np.inf, 0.0)), (-7.0, (np.inf, 0.0)),
        (0.5, (0.5 * math.log(math.pi), 1.0)), (-0.5, (math.log(2.0 * math.sqrt(math.pi)), -1.0)),
    ])
    def test_a_0d_input_gives_0d_arrays(self, x, expected):
        for arg in (x, np.array(x)):
            log_abs, sign = specfun._log_gamma_signed(arg)
            assert type(log_abs) is type(sign) is np.ndarray
            assert log_abs.shape == sign.shape == ()
            assert (float(log_abs), float(sign)) == pytest.approx(expected, rel=1e-15)


class TestGamma:
    def test_factorial(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_reflection_of_half(self):
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)

    def test_negative_argument_recursion_oracle(self):
        # Gamma(x) = Gamma(x + 3) / (x (x+1) (x+2)) at x = -2.3
        x = -2.3
        recursion = gamma(x + 3.0) / (x * (x + 1.0) * (x + 2.0))
        assert gamma(x) == pytest.approx(recursion, rel=1e-12)

    def test_recursion_property_on_grid(self):
        for x in np.linspace(0.1, 50.0, 211):
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)

    def test_reflection_property(self):
        for x in (-0.3, -1.7, -5.5):
            product = gamma(x) * gamma(1.0 - x)
            assert product == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-10)

    def test_overflow_reported(self):
        with pytest.raises(GammaOverflowError):
            gamma(200.0)


class TestBesselK:
    def test_half_integer_closed_form(self):
        # K_{1/2}(x) = sqrt(pi / (2 x)) e^{-x}
        for x in (0.3, 1.0, 4.7, 25.0):
            expected = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert bessel_k(0.5, x) == pytest.approx(expected, rel=1e-11)

    def test_three_halves_closed_form(self):
        # K_{3/2}(x) = sqrt(pi/(2x)) e^{-x} (1 + 1/x)
        for x in (0.5, 2.0, 11.0):
            expected = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * (1.0 + 1.0 / x)
            assert bessel_k(1.5, x) == pytest.approx(expected, rel=1e-11)

    def test_integral_representation_oracle(self):
        def integrand(t, order, x):
            log_val = -x * math.cosh(t) + abs(order) * t + math.log1p(
                math.exp(-2.0 * abs(order) * t)
            ) - math.log(2.0)
            return math.exp(log_val) if log_val > -745.0 else 0.0

        def oracle(order, x):
            value, _ = quad(
                integrand, 0.0, 60.0, args=(order, x),
                epsabs=1e-14, epsrel=1e-12, limit=400,
            )
            return value

        for order, x in ((1.85, 2.0), (0.088, 0.4), (7.3, 12.0), (22.4, 40.0)):
            assert bessel_k(order, x) == pytest.approx(oracle(order, x), rel=1e-9)

    def test_order_symmetry_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            order = rng.uniform(-50.0, 50.0)
            x = 10.0 ** rng.uniform(-3.0, 2.0)
            plus = bessel_k(order, x)
            minus = bessel_k(-order, x)
            assert minus == pytest.approx(plus, rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(InvalidParameters):
            bessel_k(1.0, 0.0)
        with pytest.raises(InvalidParameters):
            bessel_k(1.0, -2.0)

    def test_overflow_reported(self):
        with pytest.raises(GammaOverflowError):
            bessel_k(200.0, 1e-10)

    def test_large_argument_underflows_to_zero(self):
        assert 0.0 <= bessel_k(0.3, 705.0) < 1e-300
        assert 0.0 <= bessel_k(0.3, 740.0) < 1e-320
        assert bessel_k(0.3, 800.0) == 0.0


# Orders 0-600 take the stated step; 199.5 and 200 are t/nu of about 200, and
# 2000 and 1e5 take the step that shrinks with the order.
_LOG_K_ORDERS = [
    0.0, 0.01, 0.02, 0.025, 0.3, 0.5, 0.68, 1.0, 2.5, 10.0, 37.0, 100.0,
    199.5, 200.0, 300.0, 499.5, 600.0, 2000.0, 1e5,
]


def _log_k_tolerance(order: float, log_z: float, log_k: float, rel: float) -> float:
    """rel max(1, |log K|, v + z): log z + t carries a rounding error of about
    eps |log z + t|, which moves log K by up to v + z times as much."""
    return rel * max(1.0, abs(log_k), abs(order) + math.exp(min(log_z, 700.0)))


def _mpmath_log_k(order: float, log_z: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.besselk(order, mpmath.exp(mpmath.mpf(log_z)))))


class TestLogBesselK:
    def test_against_mpmath_grid(self):
        """log K on 36 arguments from log z = -744 (z subnormal) to 5, at 40 digits."""
        for order in _LOG_K_ORDERS:
            for log_z in np.linspace(-744.0, 5.0, 36):
                expected = _mpmath_log_k(order, float(log_z))
                got = specfun._log_bessel_k(order, float(log_z))
                assert abs(got - expected) <= _log_k_tolerance(order, log_z, expected, 1e-15)

    @given(
        order=st.floats(0.0, 600.0),
        log_z=st.floats(math.log(np.finfo(float).tiny), math.log(705.0)),
    )
    def test_agrees_with_kv_where_kv_is_finite(self, order, log_z):
        """Where density keeps kv (z normal, kv finite and non-zero), the
        routine agrees with log kv to 1e-14.  Near z = 2 at orders below 1
        kv itself is off by up to 3e-13 relative; where the two differ by
        more, mpmath must side with the routine."""
        z = math.exp(log_z)
        bessel = float(kv(order, z))
        assume(z >= np.finfo(float).tiny and 0.0 < bessel < math.inf)
        got = specfun._log_bessel_k(order, log_z)
        want = math.log(bessel)
        if abs(got - want) > _log_k_tolerance(order, log_z, want, 1e-14):
            exact = _mpmath_log_k(order, log_z)
            assert abs(got - exact) <= _log_k_tolerance(order, log_z, exact, 1e-15)
            assert abs(got - exact) < abs(want - exact)

    def test_halving_the_step_moves_no_value(self, monkeypatch):
        """The stated step is converged: at half of it (and twice the node
        cap) no value on the mpmath grid moves by more than its tolerance."""
        grid = [
            (order, float(log_z))
            for order in _LOG_K_ORDERS
            for log_z in np.linspace(-744.0, 5.0, 12)
        ]
        stated = [specfun._log_bessel_k(order, log_z) for order, log_z in grid]
        monkeypatch.setattr(specfun, "_LOG_K_STEP", specfun._LOG_K_STEP / 2.0)
        monkeypatch.setattr(specfun, "_LOG_K_MAX_NODES", 2 * specfun._LOG_K_MAX_NODES)
        for (order, log_z), value in zip(grid, stated):
            halved = specfun._log_bessel_k(order, log_z)
            assert abs(halved - value) <= _log_k_tolerance(order, log_z, value, 1e-15)

    def test_node_cap_is_a_typed_error(self):
        """Below log z of about -810 the flat part of the integrand needs
        more than the node cap; that is refused, not allocated."""
        assert specfun._log_bessel_k(0.0, -800.0) == pytest.approx(
            _mpmath_log_k(0.0, -800.0), rel=1e-15
        )
        with pytest.raises(GammaOverflowError):
            specfun._log_bessel_k(0.0, -900.0)

    def test_order_symmetry(self):
        for order, log_z in ((0.3, -700.0), (37.0, 2.0), (600.0, -100.0)):
            assert specfun._log_bessel_k(-order, log_z) == specfun._log_bessel_k(order, log_z)


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_quadrature_oracle(self):
        density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        for x in (-2.5, -0.3, 1.0, 1.96, 3.7):
            oracle = 0.5 + quad(density, 0.0, x, epsabs=1e-14)[0]
            assert normal_cdf(x) == pytest.approx(oracle, abs=1e-12)
        assert normal_cdf(1.96) == pytest.approx(0.9750021, abs=1e-7)

    def test_symmetry(self):
        for x in (0.1, 0.77, 2.0, 9.0):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_far_tail_no_nan(self):
        tail = normal_cdf(-38.0)
        assert 0.0 <= tail < 1e-300
        assert not math.isnan(tail)

    def test_array_input(self):
        values = normal_cdf(np.array([0.0, 1.96]))
        assert values[0] == 0.5
        assert values[1] == pytest.approx(0.9750021, abs=1e-7)


class TestLaguerreRule:
    def test_order_one(self):
        rule = laguerre_rule(1)
        assert rule.nodes[0] == pytest.approx(1.0, abs=1e-13)
        assert rule.weights[0] == pytest.approx(1.0, abs=1e-13)

    def test_order_two_closed_form(self):
        rule = laguerre_rule(2)
        assert rule.nodes == pytest.approx([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], rel=1e-13)
        assert rule.weights == pytest.approx(
            [(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0], rel=1e-13
        )

    @pytest.mark.parametrize("n", range(1, 65))
    def test_against_scipy(self, n):
        """The rule is scipy's generalized Laguerre rule at alpha = 0, to the bit."""
        rule = laguerre_rule(n)
        nodes, weights = roots_genlaguerre(n, 0.0)
        assert (rule.nodes.tobytes(), rule.weights.tobytes()) == (nodes.tobytes(), weights.tobytes())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_printed_reference_values(self, n):
        """Non-suspect printed cells match at their printed precision.

        Several printed weights are provably corrupted (the order-2 weight
        has the closed form (2 + sqrt 2)/4 = 0.8535534, printed 0.853557;
        the order-4 weights do not even sum to 1); those carry the suspect
        marker and are only required to be near.
        """
        reference = load_reference()
        rule = laguerre_rule(n)
        for i in range(n):
            node_cell = reference[("8", f"n={n},i={i + 1}", "node")]
            weight_cell = reference[("8", f"n={n},i={i + 1}", "weight")]
            assert abs(rule.nodes[i] - node_cell.value) <= node_cell.tolerance
            if weight_cell.suspect:
                assert abs(rule.weights[i] - weight_cell.value) < 5e-3
            else:
                assert abs(rule.weights[i] - weight_cell.value) <= weight_cell.tolerance

    @pytest.mark.parametrize("n", [1, 2, 6, 17, 40, 64])
    def test_rule_invariants(self, n):
        rule = laguerre_rule(n)
        assert len(rule.nodes) == len(rule.weights) == n
        assert np.all(rule.nodes > 0.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-10)
        # first moment of e^{-u} du on [0, inf) is 1
        assert np.sum(rule.weights * rule.nodes) == pytest.approx(1.0, abs=1e-9)

    def test_rule_is_built_once_per_order_and_read_only(self):
        first = laguerre_rule(15)
        second = laguerre_rule(np.int64(15))
        assert np.array_equal(second.nodes, first.nodes)
        assert np.array_equal(second.weights, first.weights)
        assert specfun._laguerre_rule.cache_info().misses == 1
        for array in (second.nodes, second.weights):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_rule_arrays_must_match_the_order(self):
        rule = laguerre_rule(3)
        with pytest.raises(InvalidParameters):
            specfun.QuadratureRule(order=4, nodes=rule.nodes, weights=rule.weights)

    @pytest.mark.parametrize("n", [0, -3, 65, 2.5])
    def test_order_bounds(self, n):
        with pytest.raises(InvalidParameters):
            laguerre_rule(n)
