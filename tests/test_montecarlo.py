"""Monte Carlo engine tests: distribution, estimators, confidence intervals."""

import csv
import hashlib
import math
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import kv as bessel_kv, gammaln

from vgpricer import model, montecarlo
from vgpricer.errors import InvalidParameters
from vgpricer.model import MarketInputs, VgParams
from vgpricer.montecarlo import McConfig, McEstimate, mc_price, sample_vg
from vgpricer.series import SeriesControl, asym_cash_or_nothing, european, gap, log_call
from vgpricer.tables import atm_spot, base_params

from conftest import make_market


def _closed_form_cdf(params: VgParams, t: float):
    """Numeric CDF from the Bessel-form density on a fine grid."""
    sigma, nu, theta = params.sigma, params.nu, params.theta
    a2 = 2.0 * sigma**2 / nu + theta**2
    shape = t / nu
    xs = np.linspace(-6.0, 6.0, 48001)
    with np.errstate(invalid="ignore"):
        pdf = (
            2.0
            * np.exp(theta * xs / sigma**2)
            / (nu**shape * math.sqrt(2.0 * math.pi) * sigma * math.exp(gammaln(shape)))
            * (xs**2 / a2) ** (shape / 2.0 - 0.25)
            * bessel_kv(shape - 0.5, np.sqrt(a2) * np.abs(xs) / sigma**2)
        )
    pdf[~np.isfinite(pdf)] = 0.0
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(xs))])
    cdf /= cdf[-1]
    return lambda v: np.interp(v, xs, cdf)


class TestSampling:
    def test_reproducible(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        first = sample_vg(params, 1.0, 5000, seed=42)
        second = sample_vg(params, 1.0, 5000, seed=42)
        assert np.array_equal(first, second)

    def test_mean_matches_drift(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        draws = sample_vg(params, 1.0, 1_000_000, seed=1)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.1) < 4.0 * se

    def test_variance_matches_second_moment(self):
        # var X(t) = (sigma^2 + theta^2 nu) t, from the characteristic exponent
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        draws = sample_vg(params, 1.0, 1_000_000, seed=2)
        target = (0.2**2 + 0.1**2 * 0.85) * 1.0
        centered = draws - draws.mean()
        sample_var = np.mean(centered**2)
        se_var = math.sqrt((np.mean(centered**4) - sample_var**2) / draws.size)
        assert abs(sample_var - target) < 4.0 * se_var

    def test_symmetric_draws_have_no_skew(self):
        params = VgParams(sigma=0.2, nu=0.85)
        draws = sample_vg(params, 1.0, 400_000, seed=3)
        centered = draws - draws.mean()
        m2 = np.mean(centered**2)
        m3 = np.mean(centered**3)
        # moment-based standard error; the Gaussian sqrt(6/n) rule is far too
        # tight for a leptokurtic distribution
        se_skew = math.sqrt((np.mean(centered**6) - m3**2) / draws.size) / m2**1.5
        assert abs(stats.skew(draws)) < 4.0 * se_skew

    def test_distribution_against_closed_form_cdf(self):
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        draws = sample_vg(params, 1.0, 100_000, seed=99)
        result = stats.kstest(draws, _closed_form_cdf(params, 1.0))
        assert result.pvalue > 0.01

    def test_short_horizon_small_shape_branch(self):
        # t/nu < 1 takes numpy's small-shape Gamma sampler
        params = VgParams(sigma=0.2, nu=0.85, theta=0.1)
        t = 1.0 / 360.0
        draws = sample_vg(params, t, 400_000, seed=4)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.1 * t) < 4.0 * se

    @pytest.mark.parametrize("shape", [0.05, 0.7, 1.0, 3.0, 25.0])
    def test_gamma_clock_against_scipy_gamma(self, shape):
        """numpy draws shapes below 1, at 1 and above 1 by different methods.
        Shapes below about 0.02 are left out: there part of the Gamma mass lies
        below the smallest double, so correct draws underflow to 0."""
        draws = montecarlo._gamma_marsaglia_tsang(montecarlo._rng(17), shape, 100_000)
        assert stats.kstest(draws, stats.gamma(shape).cdf).pvalue > 1e-3

    def test_input_validation(self):
        params = VgParams(sigma=0.2, nu=0.85)
        with pytest.raises(InvalidParameters):
            sample_vg(params, 0.0, 10, seed=0)
        with pytest.raises(InvalidParameters):
            sample_vg(params, 1.0, 0, seed=0)

    @pytest.mark.parametrize("n", [2**27 + 1, 10**13])
    def test_count_above_the_path_ceiling_rejected(self, n, monkeypatch):
        """A count above 2^27 raises before the output array is allocated."""

        def no_allocation(*args, **kwargs):
            raise AssertionError("sample_vg allocated before checking n")

        monkeypatch.setattr(np, "empty", no_allocation)
        with pytest.raises(InvalidParameters, match="2\\^27"):
            sample_vg(VgParams(sigma=0.2, nu=0.85), 1.0, n, seed=0)


class TestEstimator:
    def test_bit_reproducible(self, bench_params):
        market = make_market(4200.0, 2.0)
        cfg = McConfig(n_paths=20_000, seed=7)
        assert mc_price("european", bench_params, market, cfg) == mc_price(
            "european", bench_params, market, cfg
        )

    def test_interval_fields(self):
        estimate = McEstimate.from_samples(np.array([1.0, 2.0, 3.0, 4.0]))
        assert estimate.ci_low <= estimate.value <= estimate.ci_high
        assert estimate.confidence_ratio == pytest.approx(
            (estimate.ci_high - estimate.ci_low) / estimate.value
        )

    def test_european_atm_interval_brackets_series(self, bench_params):
        spot = atm_spot(bench_params, 2.0)
        market = make_market(spot, 2.0)
        series_value = european(bench_params, market, SeriesControl(max_order=20)).value
        estimate = mc_price(
            "european", bench_params, market, McConfig(n_paths=100_000, seed=2024)
        )
        assert estimate.ci_low <= series_value <= estimate.ci_high

    def test_drifted_digital_interval_brackets_series(self):
        params = base_params(-0.1)
        market = make_market(4500.0, 2.0)
        series_value = asym_cash_or_nothing(
            params, market, SeriesControl(max_order=15)
        ).value
        assert series_value == pytest.approx(0.658968, abs=5e-6)
        estimate = mc_price(
            "cash_or_nothing", params, market, McConfig(n_paths=100_000, seed=2024)
        )
        assert estimate.ci_low <= series_value <= estimate.ci_high

    def test_sure_payoff_has_no_variance(self, bench_params):
        market = make_market(4200.0, 2.0, strike=1e-12)
        estimate = mc_price(
            "cash_or_nothing", bench_params, market, McConfig(n_paths=10_000, seed=5)
        )
        assert estimate.value == pytest.approx(math.exp(-0.02), rel=1e-14)
        assert estimate.std_error < 1e-15  # identically-1 indicator, rounding only

    def test_identity_payoff_recovers_spot(self, bench_params):
        # asset-or-nothing with a vanishing strike prices the asset itself,
        # which checks the drift-adjustment wiring end to end
        market = make_market(4200.0, 2.0, strike=1e-12)
        estimate = mc_price(
            "asset_or_nothing", bench_params, market, McConfig(n_paths=100_000, seed=6)
        )
        assert estimate.ci_low <= 4200.0 <= estimate.ci_high

    def test_interval_calibration(self, bench_params):
        spot = atm_spot(bench_params, 2.0)
        market = make_market(spot, 2.0)
        series_value = european(bench_params, market, SeriesControl(max_order=20)).value
        hits = 0
        for seed in range(200):
            estimate = mc_price(
                "european", bench_params, market, McConfig(n_paths=1000, seed=seed)
            )
            if estimate.ci_low <= series_value <= estimate.ci_high:
                hits += 1
        assert 180 <= hits <= 199

    def test_gap_and_log_payoffs_match_series(self, bench_params):
        gap_market = make_market(4200.0, 2.0, strike=3800.0, trigger_strike=4000.0)
        gap_series = gap(bench_params, gap_market, SeriesControl(max_order=20)).value
        gap_mc = mc_price("gap", bench_params, gap_market, McConfig(n_paths=200_000, seed=8))
        assert abs(gap_mc.value - gap_series) < 4.0 * gap_mc.std_error

        log_market = make_market(3000.0, 2.0)
        log_series = log_call(bench_params, log_market, SeriesControl(max_order=30)).value
        log_mc = mc_price(
            "log_call", bench_params, log_market, McConfig(n_paths=200_000, seed=9)
        )
        assert abs(log_mc.value - log_series) < 4.0 * log_mc.std_error

    def test_antithetic_variant(self, bench_params):
        market = make_market(4200.0, 2.0)
        cfg = McConfig(n_paths=100_000, seed=10, antithetic=True)
        estimate = mc_price("european", bench_params, market, cfg)
        series_value = european(bench_params, market, SeriesControl(max_order=20)).value
        assert abs(estimate.value - series_value) < 4.0 * estimate.std_error
        assert mc_price("european", bench_params, market, cfg) == estimate
        with pytest.raises(InvalidParameters):
            McConfig(n_paths=101, antithetic=True)

    def test_unknown_payoff_rejected(self, bench_params):
        with pytest.raises(InvalidParameters):
            mc_price("straddle", bench_params, make_market(4200.0, 2.0), McConfig(n_paths=10))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_philox_key_rejected(self, seed):
        with pytest.raises(InvalidParameters):
            McConfig(n_paths=10, seed=seed)

    @pytest.mark.parametrize("n_paths, antithetic", [(1, False), (2, True)])
    def test_fewer_than_two_independent_samples_rejected(self, n_paths, antithetic):
        """One path, or one antithetic pair, gives no standard error."""
        with pytest.raises(InvalidParameters, match="needs 2"):
            McConfig(n_paths, antithetic=antithetic)

    def test_estimate_of_one_sample_rejected(self):
        with pytest.raises(InvalidParameters, match="at least two"):
            McEstimate.from_samples([1.0])

    @pytest.mark.parametrize("n_paths", [2**27 + 1, 10**13])
    def test_path_count_above_the_ceiling_rejected(self, n_paths):
        """A count above 2^27 raises before any draw; 2^27 itself is a valid
        config (built here, never priced)."""
        assert McConfig(n_paths=2**27).n_paths == 2**27
        with pytest.raises(InvalidParameters, match="2\\^27"):
            McConfig(n_paths=n_paths)


# ---------------------------------------------------------------------------
# bit-identity golden file
# ---------------------------------------------------------------------------

_MC_GOLDEN = Path(__file__).resolve().parent / "golden" / "mc_values.csv"
_MC_GOLDEN_FIELDS = [
    "payoff", "tau", "theta", "antithetic", "seed", "n_paths", "value", "std_error"
]
_MC_NU = 0.25
# tau / nu = 0.4, 2 and 10: Gamma-clock shapes below and above 1
_MC_TAUS = (0.1, 0.5, 2.5)
_MC_STRIKES = {"power_asset_or_nothing": 160.0}


def _mc_case(payoff, tau, theta, antithetic, seed, n_paths):
    params = VgParams(sigma=0.2, nu=_MC_NU, theta=theta)
    market = MarketInputs(
        spot=100.0, strike=_MC_STRIKES.get(payoff, 100.0), rate=0.02, tau=tau,
        dividend_yield=0.01, trigger_strike=105.0, power=1.1,
    )
    estimate = mc_price(
        payoff, params, market, McConfig(n_paths=n_paths, seed=seed, antithetic=antithetic)
    )
    return {
        "payoff": payoff, "tau": repr(tau), "theta": repr(theta),
        "antithetic": str(antithetic), "seed": str(seed), "n_paths": str(n_paths),
        "value": float.hex(estimate.value), "std_error": float.hex(estimate.std_error),
    }


def _mc_golden_cases():
    """Every payoff over Gamma-clock shapes below 1, at 2 and at 10, with and
    without drift and antithetic pairs, at two seeds; then two runs that span
    two chunks."""
    for payoff in montecarlo.PAYOFF_NAMES:
        for tau in _MC_TAUS:
            for theta in (0.0, -0.15):
                for antithetic in (False, True):
                    for seed in (3, 11):
                        yield payoff, tau, theta, antithetic, seed, 4000
    yield "european", _MC_TAUS[0], -0.15, False, 3, montecarlo._CHUNK + 3
    yield "cash_or_nothing", _MC_TAUS[1], 0.0, True, 11, 2 * montecarlo._CHUNK + 6


def _write_mc_golden(path=_MC_GOLDEN):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_MC_GOLDEN_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_mc_case(*case) for case in _mc_golden_cases())


def _read_mc_golden():
    with open(_MC_GOLDEN, newline="") as handle:
        golden = list(csv.DictReader(handle))
    assert len(golden) == 6 * 3 * 2 * 2 * 2 + 2
    return golden


class TestMcGolden:
    def test_values_are_bit_identical(self):
        """mc_price reproduces tests/golden/mc_values.csv exactly: the same
        draws from the Philox stream and the same arithmetic on each path.
        The terminal-price memo is cleared before every record, so each one draws.

        Regenerate with `PYTHONPATH=src python tests/test_montecarlo.py
        --write-golden` only for a change that is meant to move Monte Carlo
        values, and state the diff.
        """
        golden = _read_mc_golden()
        records = []
        for case in _mc_golden_cases():
            montecarlo._memo_terminal_prices.cache_clear()
            records.append(_mc_case(*case))
        assert records == golden
        assert montecarlo._memo_terminal_prices.cache_info().hits == 0

    def test_values_from_shared_draws_are_bit_identical(self):
        """The same file in one pass with the memo kept, the records that
        differ only in payoff in a row: 5 of each 6 such records take their
        terminal prices from the memo, and the two runs above its cap draw
        past it."""
        golden = _read_mc_golden()
        cases = list(enumerate(_mc_golden_cases()))
        cases.sort(key=lambda item: item[1][1:])
        records = {index: _mc_case(*case) for index, case in cases}
        assert [records[index] for index in range(len(golden))] == golden
        info = montecarlo._memo_terminal_prices.cache_info()
        assert (info.hits, info.misses, info.currsize) == (120, 24, 1)


_MC_THETAS = st.floats(-0.3, 0.3)
_MC_STRIKES_DRAWN = st.floats(60.0, 160.0)


def _estimate_hex(
    payoff, tau, theta, strike, antithetic, seed, n_paths,
    spot=100.0, rate=0.02, sigma=0.2, nu=_MC_NU,
):
    params = VgParams(sigma=sigma, nu=nu, theta=theta)
    market = MarketInputs(
        spot=spot, strike=strike, rate=rate, tau=tau, dividend_yield=0.01,
        trigger_strike=105.0, power=1.1,
    )
    cfg = McConfig(n_paths=n_paths, seed=seed, antithetic=antithetic)
    estimate = mc_price(payoff, params, market, cfg)
    return float.hex(estimate.value), float.hex(estimate.std_error)


def _memo_key(
    tau, theta, antithetic, seed, n_units, spot=100.0, rate=0.02, sigma=0.2, nu=_MC_NU,
    dividend_yield=0.01,
):
    """The terminal-price memo key mc_price makes, by default for _estimate_hex's contract."""
    market = MarketInputs(
        spot=spot, strike=100.0, rate=rate, tau=tau, dividend_yield=dividend_yield
    )
    derived = model.derive(VgParams(sigma=sigma, nu=nu, theta=theta), market)
    drift = (derived.rate_effective + derived.omega) * tau
    return seed, tau / nu, n_units, nu, sigma, theta, drift, spot, antithetic


def _memo_misses(keys):
    """The misses of a one-entry memo asked for keys in turn."""
    return 1 + sum(key != last for last, key in zip(keys, keys[1:]))


class TestDrawMemoProperty:
    @given(
        payoff=st.sampled_from(montecarlo.PAYOFF_NAMES),
        tau=st.sampled_from(_MC_TAUS),
        theta=_MC_THETAS,
        strike=_MC_STRIKES_DRAWN,
        antithetic=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        n_units=st.integers(2, 3000),
        others=st.lists(
            st.tuples(_MC_STRIKES_DRAWN, st.floats(80.0, 125.0), st.floats(0.0, 0.05)),
            min_size=1, max_size=3,
        ),
        moved=st.sampled_from(("sigma", "theta", "nu")),
        step=st.floats(0.01, 0.1),
    )
    def test_cold_and_warm_prices_are_identical(
        self, payoff, tau, theta, strike, antithetic, seed, n_units, others, moved, step
    ):
        """A price is the same to the bit whether its terminal prices are fresh
        or come from the memo, before and after every payoff at other strikes,
        spots and rates, each of which is a contract of its own; a contract
        that differs only in sigma, theta or nu makes its own and prices as it
        does cold; the memoised terminal prices cannot be written in place."""
        n_paths = 2 * n_units if antithetic else n_units
        case = dict(
            payoff=payoff, tau=tau, theta=theta, strike=strike, antithetic=antithetic,
            seed=seed, n_paths=n_paths,
        )
        montecarlo._memo_terminal_prices.cache_clear()
        cold = _estimate_hex(**case)
        for other_strike, spot, rate in others:
            for other in montecarlo.PAYOFF_NAMES:
                _estimate_hex(
                    **{**case, "payoff": other, "strike": other_strike}, spot=spot, rate=rate
                )
        assert _estimate_hex(**case) == cold
        assert _estimate_hex(**case) == cold
        contracts = [(100.0, 0.02)]
        contracts += [(spot, rate) for _, spot, rate in others for _ in montecarlo.PAYOFF_NAMES]
        contracts += [(100.0, 0.02)] * 2
        misses = _memo_misses(contracts)
        info = montecarlo._memo_terminal_prices.cache_info()
        assert (info.hits, info.misses, info.currsize) == (len(contracts) - misses, misses, 1)
        ((*legs,),) = montecarlo._memo_terminal_prices(
            *_memo_key(tau, theta, antithetic, seed, n_units)
        )
        assert montecarlo._memo_terminal_prices.cache_info().misses == misses
        for array in legs:
            with pytest.raises(ValueError):
                array *= 2.0
            with pytest.raises(ValueError):
                array[0] = 0.0
        defaults = {"sigma": 0.2, "theta": theta, "nu": _MC_NU}
        moved_case = {**case, moved: defaults[moved] + step}
        warm = _estimate_hex(**moved_case)
        assert montecarlo._memo_terminal_prices.cache_info().misses == misses + 1
        montecarlo._memo_terminal_prices.cache_clear()
        assert _estimate_hex(**moved_case) == warm
        assert _estimate_hex(**case) == cold

    @given(
        payoff=st.sampled_from(montecarlo.PAYOFF_NAMES),
        antithetic=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        n_units=st.integers(2, 128),
        cap=st.integers(0, 128),
    )
    def test_requests_above_the_cap_draw_past_the_memo(
        self, payoff, antithetic, seed, n_units, cap
    ):
        """Below or at the cap a request adds its increments to the memo,
        above it the memo is left as it was; the price is the same either way."""
        n_paths = 2 * n_units if antithetic else n_units
        case = (payoff, _MC_TAUS[1], -0.15, 100.0, antithetic, seed, n_paths)
        montecarlo._memo_terminal_prices.cache_clear()
        with mock.patch.object(montecarlo, "_MEMO_UNITS", cap):
            value = _estimate_hex(*case)
        before = montecarlo._memo_terminal_prices.cache_info()
        assert before.currsize == (1 if n_units <= cap else 0)
        with mock.patch.object(montecarlo, "_MEMO_UNITS", n_units - 1):
            assert _estimate_hex(*case) == value
        assert montecarlo._memo_terminal_prices.cache_info() == before

    def test_memo_keeps_the_sign_of_a_zero_theta(self):
        """theta = -0.0 equals 0.0, but where the clock underflows to 0 and
        Z < 0 a draw is theta's signed zero: sample_vg draws afresh on every
        call, so drawing at theta = 0.0 first leaves the bits at -0.0 as they
        are, and it makes no memo entry."""
        def draws(theta):
            return sample_vg(VgParams(sigma=0.2, nu=0.85, theta=theta), 0.0085, 100_000, 1)

        cold = draws(-0.0)
        zeros = cold == 0.0
        assert (np.count_nonzero(zeros), np.count_nonzero(np.signbit(cold[zeros]))) == (64, 29)
        assert np.count_nonzero(np.signbit(draws(0.0)[zeros])) == 0
        assert draws(-0.0).tobytes() == cold.tobytes()
        assert montecarlo._memo_terminal_prices.cache_info().currsize == 0

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_a_zero_theta_of_either_sign_shares_one_entry(self, antithetic):
        """theta = 0.0 and -0.0 are one memo key.  Their increments differ in
        the sign of the zeros above, but S_T passes through exp, which maps
        either zero to 1, so S_T, and every price from it, has the same bits:
        -0.0 priced from the entry 0.0 made equals -0.0 priced cold."""
        case = dict(tau=0.0085, strike=100.0, antithetic=antithetic, seed=1, nu=0.85)
        case["n_paths"] = 200_000 if antithetic else 100_000

        def prices(theta):
            return [_estimate_hex(name, theta=theta, **case) for name in montecarlo.PAYOFF_NAMES]

        def terminal(theta):
            key = _memo_key(0.0085, theta, antithetic, 1, 100_000, nu=0.85)
            chunks = montecarlo._terminal_prices(*key)
            return b"".join(leg.tobytes() for legs in chunks for leg in legs)

        assert terminal(-0.0) == terminal(0.0)
        cold = prices(-0.0)
        montecarlo._memo_terminal_prices.cache_clear()
        prices(0.0)
        assert prices(-0.0) == cold
        info = montecarlo._memo_terminal_prices.cache_info()
        assert (info.hits, info.misses, info.currsize) == (11, 1, 1)

    def test_request_above_the_real_cap_leaves_the_memo_alone(self):
        market = MarketInputs(spot=100.0, strike=100.0, rate=0.02, tau=_MC_TAUS[1])
        params = VgParams(sigma=0.2, nu=_MC_NU)
        mc_price("european", params, market, McConfig(n_paths=1000, seed=1))
        before = montecarlo._memo_terminal_prices.cache_info()
        cfg = McConfig(n_paths=montecarlo._MEMO_UNITS + 1, seed=1)
        mc_price("cash_or_nothing", params, market, cfg)
        assert montecarlo._memo_terminal_prices.cache_info() == before
        assert before.currsize == 1



def _counting_terminal_prices():
    """A patch that counts the calls that make terminal prices from increments."""
    return mock.patch.object(
        montecarlo, "_terminal_prices", side_effect=montecarlo._terminal_prices
    )


class TestSharedTerminalPrices:
    @given(
        tau=st.sampled_from(_MC_TAUS),
        theta=_MC_THETAS,
        antithetic=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
        n_units=st.integers(2, 2000),
        strikes=st.lists(_MC_STRIKES_DRAWN, min_size=2, max_size=3),
        moved=st.sampled_from(("spot", "rate")),
    )
    def test_every_payoff_and_strike_prices_from_one_set_of_terminal_prices(
        self, tau, theta, antithetic, seed, n_units, strikes, moved
    ):
        """Warm prices equal their cold prices to the bit for every payoff and
        strike of one contract, which makes its terminal prices once; another
        spot or rate is a contract of its own, which makes its own and prices
        as it does cold; the kept terminal prices cannot be written in place."""
        n_paths = 2 * n_units if antithetic else n_units
        moved_value = {"spot": 95.0, "rate": 0.04}[moved]
        case = dict(tau=tau, theta=theta, antithetic=antithetic, seed=seed, n_paths=n_paths)
        moved_case = {**case, moved: moved_value}
        prices = [
            (contract, payoff, strike)
            for contract in (case, moved_case)
            for payoff in montecarlo.PAYOFF_NAMES
            for strike in strikes
        ]
        cold = {}
        for contract, payoff, strike in prices:
            montecarlo._memo_terminal_prices.cache_clear()
            cold[id(contract), payoff, strike] = _estimate_hex(payoff, strike=strike, **contract)
        montecarlo._memo_terminal_prices.cache_clear()
        with _counting_terminal_prices() as made:
            for contract, payoff, strike in prices:
                warm = _estimate_hex(payoff, strike=strike, **contract)
                assert warm == cold[id(contract), payoff, strike]
        assert made.call_count == 2
        info = montecarlo._memo_terminal_prices.cache_info()
        assert (info.hits, info.misses, info.currsize) == (len(prices) - 2, 2, 1)
        ((*legs,),) = montecarlo._memo_terminal_prices(
            *_memo_key(tau, theta, antithetic, seed, n_units, **{moved: moved_value})
        )
        assert montecarlo._memo_terminal_prices.cache_info().misses == 2
        assert len(legs) == (2 if antithetic else 1)
        for array in legs:
            assert array.size == n_units
            with pytest.raises(ValueError):
                array *= 2.0
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_prices_above_the_cap_make_their_terminal_prices_per_call(self):
        """Above the memo cap nothing is kept, so every price makes its own."""
        case = ("european", _MC_TAUS[1], -0.15, 100.0, True, 5, 2 * 40)
        with mock.patch.object(montecarlo, "_MEMO_UNITS", 39), _counting_terminal_prices() as made:
            first = _estimate_hex(*case)
            assert _estimate_hex(*case) == first
        assert made.call_count == 2
        assert montecarlo._memo_terminal_prices.cache_info().currsize == 0

    def test_threads_pricing_at_once_get_serial_bits(self):
        """Four threads on two cores price two contracts at two spots or
        rates each, so they evict each other's memo entry and replace each
        other's terminal prices; each gets the bits of its prices made one at
        a time, as long as no thread reads another's samples or prices."""
        contract_a = dict(tau=0.5, theta=0.0, antithetic=False, seed=3, n_paths=40_000)
        contract_b = dict(tau=2.5, theta=-0.15, antithetic=True, seed=11, n_paths=60_000)
        work = [
            [(payoff, strike, contract) for payoff in payoffs for strike in (90.0, 110.0)]
            for payoffs, contract in (
                (("european", "cash_or_nothing"), contract_a),
                (("asset_or_nothing", "gap"), {**contract_a, "spot": 95.0}),
                (("log_call", "european"), contract_b),
                (("cash_or_nothing", "power_asset_or_nothing"), {**contract_b, "rate": 0.04}),
            )
        ]
        serial = [
            [_estimate_hex(payoff, strike=strike, **contract) for payoff, strike, contract in cases]
            for cases in work
        ]
        start = threading.Barrier(len(work))
        concurrent = [None] * len(work)

        def run(index):
            start.wait()
            concurrent[index] = [
                _estimate_hex(payoff, strike=strike, **contract)
                for _ in range(3) for payoff, strike, contract in work[index]
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(index,)) for index in range(len(work))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert concurrent == [values * 3 for values in serial]

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_a_price_above_the_cap_keeps_nothing_of_its_size(self, antithetic):
        """A price above the memo cap leaves no memo entry of its size, and
        after a price within the cap it leaves that price's entry as it was."""
        n_units = montecarlo._MEMO_UNITS + 1
        market = MarketInputs(spot=100.0, strike=100.0, rate=0.02, tau=_MC_TAUS[1])
        params = VgParams(sigma=0.2, nu=_MC_NU)

        def price(n_units):
            n_paths = 2 * n_units if antithetic else n_units
            mc_price("european", params, market, McConfig(n_paths, seed=1, antithetic=antithetic))

        price(n_units)
        assert montecarlo._memo_terminal_prices.cache_info().currsize == 0
        price(1000)
        price(n_units)
        before = montecarlo._memo_terminal_prices.cache_info()
        key = _memo_key(_MC_TAUS[1], 0.0, antithetic, 1, 1000, dividend_yield=0.0)
        montecarlo._memo_terminal_prices(*key)
        after = montecarlo._memo_terminal_prices.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, 1)


class TestEstimateInPlace:
    @given(
        n=st.integers(2, 5000),
        kind=st.sampled_from(("gaussian", "indicator", "call")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_mean_and_std_to_the_bit(self, n, kind, seed):
        """The estimate taken in place is samples.mean() and samples.std(ddof=1)
        over sqrt(n) to the bit; from_samples leaves its argument as it was."""
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(n) * 30.0 + 7.0
        if kind == "indicator":
            samples = (samples > 10.0).astype(np.float64)
        elif kind == "call":
            samples = np.maximum(samples, 0.0)
        before = samples.copy()
        estimate = McEstimate.from_samples(samples)
        assert samples.tobytes() == before.tobytes()
        std_error = float(samples.std(ddof=1) / math.sqrt(n))
        assert (float.hex(estimate.value), float.hex(estimate.std_error)) == (
            float.hex(float(samples.mean())), float.hex(std_error)
        )
        assert McEstimate._from_scratch(before) == estimate

_VG_GOLDEN = Path(__file__).resolve().parent / "golden" / "sample_vg_values.csv"
_VG_GOLDEN_FIELDS = ["t", "theta", "seed", "n", "first", "last", "sha256"]


def _vg_case(t, theta, seed, n):
    draws = sample_vg(VgParams(sigma=0.2, nu=_MC_NU, theta=theta), t, n, seed)
    hexes = [float.hex(v) for v in draws.tolist()]
    return {
        "t": repr(t), "theta": repr(theta), "seed": str(seed), "n": str(n),
        "first": hexes[0], "last": hexes[-1],
        "sha256": hashlib.sha256("\n".join(hexes).encode()).hexdigest(),
    }


def _vg_golden_records():
    """sha256 of the float.hex of every sample_vg draw, over Gamma-clock
    shapes 0.4 and 10, with and without drift, at two seeds; then one run
    that spans two chunks."""
    for t in (_MC_TAUS[0], _MC_TAUS[2]):
        for theta in (0.0, -0.15):
            for seed in (3, 11):
                yield _vg_case(t, theta, seed, 4000)
    yield _vg_case(_MC_TAUS[0], -0.15, 3, montecarlo._CHUNK + 3)


def _write_vg_golden(path=_VG_GOLDEN):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_VG_GOLDEN_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_vg_golden_records())


class TestSampleVgGolden:
    def test_draws_are_bit_identical(self):
        """sample_vg reproduces tests/golden/sample_vg_values.csv exactly.

        Regenerate with `PYTHONPATH=src python tests/test_montecarlo.py
        --write-golden` only for a change that is meant to move the draws,
        and state the diff.
        """
        with open(_VG_GOLDEN, newline="") as handle:
            golden = list(csv.DictReader(handle))
        assert len(golden) == 2 * 2 * 2 + 1
        assert list(_vg_golden_records()) == golden


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["--write-golden"]:
        _write_mc_golden()
        _write_vg_golden()
        print(f"wrote {_MC_GOLDEN} and {_VG_GOLDEN}")
