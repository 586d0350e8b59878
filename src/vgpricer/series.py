"""Closed-form residue-series pricers.

Each path-independent payoff below has a price that reduces to one or two
rapidly convergent series in powers of the (risk-neutral) moneyness and the
rescaled volatility, with Gamma-function coefficients.  The series come in
three branches selected by the sign of the risk-neutral moneyness:

* OTM  (moneyness < 0): direct series,
* ITM  (moneyness > 0): parity against the complementary OTM series with the
  rescaled-volatility argument sign-flipped,
* ATM  (moneyness = 0): a single collapsed series (or a closed form).

Numerics: every Gamma ratio is evaluated as exp(sum of signed log-Gammas);
every series goes through one kernel, _residue_sum, which accumulates the
anti-diagonals n1 + n2 = const in ascending order with compensated (Kahan)
summation, because the terms alternate in sign and can grow enormously
before they cancel (deep-OTM rows reach 1e3-sized partial sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import model, specfun
from .errors import (
    DegenerateAlphaError,
    InvalidParameters,
    NonConvergenceError,
    UnsupportedBranchError,
)
from .model import DerivedQuantities, MarketInputs, PriceResult, VgParams

__all__ = [
    "SeriesControl",
    "PriceResult",
    "asset_or_nothing",
    "european",
    "european_atmf",
    "implied_atmf_vol",
    "cash_or_nothing",
    "gap",
    "power_asset_or_nothing",
    "log_call",
    "asym_cash_or_nothing",
]

_ALPHA_GUARD = 1e-8
_CONVERGENCE_LIMIT = 1e-6
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the series evaluators.

    max_order bounds every summation index (double series are truncated on
    the square block [0, max_order]^2, matching how reference truncations
    are quoted).  Summation stops early once two consecutive anti-diagonals
    each contribute less than tail_tol relative to the running sum.
    alpha_policy decides what happens when tau/nu - 1/2 is (half-)integral:
    'error' raises, 'nudge' perturbs nu by one part in 1e8 and records it.
    """

    max_order: int = 25
    tail_tol: float = 1e-10
    alpha_policy: str = "error"

    def __post_init__(self):
        if not 1 <= self.max_order <= 200:
            raise InvalidParameters(
                f"max_order must be in [1, 200], got {self.max_order!r}"
            )
        if not self.tail_tol > 0.0:
            raise InvalidParameters(f"tail_tol must be positive, got {self.tail_tol!r}")
        if self.alpha_policy not in ("error", "nudge"):
            raise InvalidParameters(
                f"alpha_policy must be 'error' or 'nudge', got {self.alpha_policy!r}"
            )


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def _gamma_ratio_log(num, den):
    """(log |Gamma(num)/Gamma(den)|, sign), with denominator poles -> ratio 0.

    A pole in the numerator means the series itself is degenerate; that is
    excluded upstream by the alpha guard, so it raises if it ever happens.
    """
    log_n, sign_n = specfun._log_gamma_signed(num)
    log_d, sign_d = specfun._log_gamma_signed(den)
    den_pole = sign_d == 0.0
    if np.any((sign_n == 0.0) & ~den_pole):
        raise DegenerateAlphaError("series coefficient hit a Gamma pole")
    with np.errstate(invalid="ignore"):
        log_ratio = np.where(den_pole, -np.inf, log_n - log_d)
    sign = np.where(den_pole, 0.0, sign_n * sign_d)
    return log_ratio, sign


def _signed_power_log(base: float, n):
    """(n * log|base|, sign(base)^n) for integer exponents, 0^0 = 1.

    The sign is a plain 1.0 unless the base is negative.
    """
    n = np.asarray(n)
    if base == 0.0:
        with np.errstate(divide="ignore"):
            return np.where(n == 0, 0.0, -np.inf), 1.0
    log_part = n * math.log(abs(base))
    return log_part, (1.0 if base > 0.0 else np.where(n % 2 == 1, -1.0, 1.0))


def _kahan_diagonal_sum(diag_values, diag_counts, tail_tol):
    """Compensated sum of per-diagonal contributions with the two-small stop rule.

    The tail estimate spans the last two diagonals: every second coefficient
    of the digital series vanishes through a denominator Gamma pole, so a
    single-diagonal magnitude is a structurally unreliable signal.
    """
    total = 0.0
    comp = 0.0
    small_run = 0
    last = 0.0
    previous = 0.0
    terms = 0
    converged = False
    for value, count in zip(diag_values, diag_counts):
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
        previous = last
        last = abs(value)
        terms += int(count)
        if last < tail_tol * abs(total):
            small_run += 1
            if small_run >= 2:
                converged = True
                break
        else:
            small_run = 0
    return total, terms, max(last, previous), converged


def _residue_sum(parts, index, tail_tol):
    """The one summation kernel: sum of sign * exp(log) over the (log, sign) parts.

    Terms are added per index (n1 + n2 for a double series, n for a single
    one), and the per-index sums are accumulated in ascending index by
    _kahan_diagonal_sum.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        terms = sum(sign * np.exp(log) for log, sign in parts)
    flat = index.ravel() - index.min()
    return _kahan_diagonal_sum(
        np.bincount(flat, weights=terms.ravel()), np.bincount(flat), tail_tol
    )


# ---------------------------------------------------------------------------
# symmetric-model series (theta = 0)
# ---------------------------------------------------------------------------


def _double_series(
    log_prefactor: float,
    alpha: float,
    k_val: float,
    s_val: float,
    n_max: int,
    tail_tol: float,
    n2: range,
    power_mult: float = 1.0,
):
    """The two-part double series shared by asset-or-nothing style payoffs.

    Term (n1, n2) is (-1)^{n1}/n1! times

        G((n2-n1+1)/2 + a)/G((n2-n1)/2 + 1) (-k/s)^{n1} s^{n2} p^{n2}
      + 2 G(-2n1-n2-1-2a)/G(-n1+1/2-a) (-k/s)^{2n1+1+2a} (-k)^{n2} p^{n2}

    evaluated for the moneyness k and rescaled-volatility argument s (the
    ITM parity passes s < 0), with p the power-payoff multiplier.  n1 runs
    over 0..n_max and n2 over the given range: from 0 for the asset digital,
    from 1 for the call, and range(1) for the cash digital, which is the
    n2 = 0 slice.  Requires -k/s > 0, which every branch guarantees.
    """
    ratio = -k_val / s_val
    if not ratio > 0.0:
        raise InvalidParameters("series requires -moneyness/volatility > 0")
    log_ratio = math.log(ratio)
    n1 = np.arange(n_max + 1)[:, None]
    n2 = np.arange(n2.start, n2.stop)[None, :]
    log_fact = specfun._log_gamma_signed(n1 + 1.0)[0]
    log_pow = 0.0 if power_mult == 1.0 else n2 * math.log(power_mult)
    alternating = (-1.0) ** n1
    lr1, sr1 = _gamma_ratio_log((n2 - n1 + 1) / 2.0 + alpha, (n2 - n1) / 2.0 + 1.0)
    lp_s, sp_s = _signed_power_log(s_val, n2)
    lr2, sr2 = _gamma_ratio_log(-2.0 * n1 - n2 - 1.0 - 2.0 * alpha, -n1 + 0.5 - alpha)
    lp_k, sp_k = _signed_power_log(-k_val, n2)
    part1 = log_prefactor + lr1 + n1 * log_ratio + lp_s + log_pow - log_fact
    part2 = (
        log_prefactor + _LOG2 + lr2 + (2.0 * n1 + 1.0 + 2.0 * alpha) * log_ratio
        + lp_k + log_pow - log_fact
    )
    return _residue_sum(
        [(part1, sr1 * sp_s * alternating), (part2, sr2 * sp_k * alternating)],
        n1 + n2,
        tail_tol,
    )


# ---------------------------------------------------------------------------
# guards and assembly
# ---------------------------------------------------------------------------


def _apply_alpha_policy(
    params: VgParams, market: MarketInputs, ctrl: SeriesControl
) -> tuple[VgParams, DerivedQuantities, dict]:
    """Reject or nudge (half-)integral alpha = tau/nu - 1/2.

    Integral alpha degenerates the Bessel kernel; half-integral alpha makes
    individual series coefficients hit Gamma poles (their pairwise limits
    exist, but the printed series form does not apply).  Both are treated by
    the same policy.
    """
    diagnostics: dict = {}
    for _ in range(3):
        alpha = market.tau / params.nu - 0.5
        near_int = abs(alpha - round(alpha)) < _ALPHA_GUARD
        near_half = abs(2.0 * alpha - round(2.0 * alpha)) < 2.0 * _ALPHA_GUARD
        if not (near_int or near_half):
            break
        kind = "integer" if near_int else "half-integer"
        if ctrl.alpha_policy == "error":
            raise DegenerateAlphaError(
                f"alpha = tau/nu - 1/2 = {alpha:.12g} is within {_ALPHA_GUARD} of a "
                f"{kind} value; pass alpha_policy='nudge' to perturb nu"
            )
        params = replace(params, nu=params.nu * (1.0 + 1e-8))
        diagnostics["nudged_nu"] = params.nu
    derived = model.derive(params, market)
    diagnostics["alpha"] = derived.alpha
    diagnostics["rn_moneyness"] = derived.rn_moneyness
    return params, derived, diagnostics


def _require_symmetric(params: VgParams, op_name: str) -> None:
    if params.theta != 0.0:
        raise InvalidParameters(
            f"{op_name} requires the symmetric model (theta = 0); "
            "use asym_cash_or_nothing for drifted digitals"
        )


def _finalize(
    value: float,
    terms: int,
    tail: float,
    converged: bool,
    branch: str,
    diagnostics: dict,
) -> PriceResult:
    diagnostics = dict(diagnostics)
    diagnostics["converged"] = converged or tail <= _CONVERGENCE_LIMIT * abs(value)
    result = PriceResult(
        value=value,
        method="series",
        terms_evaluated=terms,
        truncation_estimate=tail,
        branch=branch,
        diagnostics=diagnostics,
    )
    if tail > _CONVERGENCE_LIMIT * abs(value):
        raise NonConvergenceError(
            f"series tail estimate {tail:.3g} exceeds 1e-6 of |value| = {abs(value):.3g}; "
            "increase max_order",
            result=result,
        )
    return result


def _otm_or_parity(branch: str, otm_series, parity):
    """The OTM series, or on the ITM branch parity() minus the mirrored series.

    otm_series(sign) sums the OTM series with its mirrored argument (the
    rescaled volatility, or the moneyness and the drift ratio) times sign.
    parity() is taken first, so its own checks run before the series.
    """
    if branch == "otm":
        return otm_series(1.0)
    complement = parity()
    series, terms, tail, conv = otm_series(-1.0)
    return complement - series, terms, tail, conv


def _log_sym_prefactor(derived: DerivedQuantities, amount: float) -> float:
    """log of amount / (2 Gamma(tau/nu)) with tau/nu = alpha + 1/2."""
    lg, _ = specfun._log_gamma_signed(derived.alpha + 0.5)
    return math.log(amount) - _LOG2 - float(lg)


def _sym_series_price(derived, diagnostics, ctrl, k_val, n2_start, power_mult, parity):
    """The asset digital, the call or the power digital, on the branch of k_val.

    ATM sums the collapsed series sum_n G((n+1)/2 + a)/G(n/2 + 1) (p s)^n,
    OTM the double series, and ITM takes parity() minus the mirrored double
    series; both index from n2_start.
    """
    branch = model.moneyness_branch(k_val)
    log_pref = _log_sym_prefactor(derived, derived.forward_strike)
    n2 = range(n2_start, ctrl.max_order + 1)
    if branch == "atm":
        n = np.arange(n2.start, n2.stop)
        lr, sr = _gamma_ratio_log((n + 1) / 2.0 + derived.alpha, n / 2.0 + 1.0)
        log_terms = log_pref + lr + n * math.log(power_mult * derived.sigma_nu)
        value, terms, tail, conv = _residue_sum([(log_terms, sr)], n, ctrl.tail_tol)
    else:
        value, terms, tail, conv = _otm_or_parity(
            branch,
            lambda sign: _double_series(
                log_pref, derived.alpha, k_val, sign * derived.sigma_nu,
                ctrl.max_order, ctrl.tail_tol, n2, power_mult,
            ),
            parity,
        )
    return _finalize(value, terms, tail, conv, branch, diagnostics)


# ---------------------------------------------------------------------------
# public pricers, symmetric model
# ---------------------------------------------------------------------------


def asset_or_nothing(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Digital paying S_T when S_T > K, symmetric model."""
    ctrl = ctrl or SeriesControl()
    _require_symmetric(params, "asset_or_nothing")
    params, derived, diagnostics = _apply_alpha_policy(params, market, ctrl)
    return _sym_series_price(
        derived, diagnostics, ctrl, derived.rn_moneyness, 0, 1.0, lambda: market.spot
    )


def european(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """European call, symmetric model.

    Same series as the asset-or-nothing digital with the volatility-power
    index starting at 1; ITM branch adds the forward parity S - K e^{-r tau}.
    """
    ctrl = ctrl or SeriesControl()
    _require_symmetric(params, "european")
    params, derived, diagnostics = _apply_alpha_policy(params, market, ctrl)
    return _sym_series_price(
        derived, diagnostics, ctrl, derived.rn_moneyness, 1, 1.0,
        lambda: market.spot - derived.forward_strike,
    )


def european_atmf(
    params: VgParams,
    market: MarketInputs,
    ctrl: Optional[SeriesControl] = None,
    leading_only: bool = False,
) -> PriceResult:
    """European call at the money forward (S = K e^{-r tau}).

    Uses the small-sigma approximation omega ~ -sigma^2/2, under which the
    series arguments collapse to powers of sigma*tau/sqrt(2 nu) and
    sigma^2 tau / 2.  With leading_only=True only the first term is kept:

        C ~ S / sqrt(2 pi) * Gamma(1/2 + tau/nu)/Gamma(tau/nu) * sigma sqrt(nu)

    which recovers the familiar ~0.4 S sigma sqrt(tau) estimate as nu -> 0.
    """
    ctrl = ctrl or SeriesControl()
    _require_symmetric(params, "european_atmf")
    if abs(math.log(market.spot / market.strike) + (market.rate - market.dividend_yield) * market.tau) > 1e-9:
        raise InvalidParameters(
            "european_atmf requires the at-the-money-forward configuration S = K e^(-r tau)"
        )
    spot = market.spot
    if leading_only:
        # single Gamma ratio, no series: the degenerate-alpha guard is moot
        shape = market.tau / params.nu
        lg_num, _ = specfun._log_gamma_signed(0.5 + shape)
        lg_den, _ = specfun._log_gamma_signed(shape)
        value = (
            spot
            / math.sqrt(2.0 * math.pi)
            * math.exp(float(lg_num) - float(lg_den))
            * params.sigma
            * math.sqrt(params.nu)
        )
        return _finalize(value, 1, 0.0, True, "atm", {"leading_only": True})
    params, derived, diagnostics = _apply_alpha_policy(params, market, ctrl)
    k_eff = -0.5 * params.sigma**2 * market.tau  # omega tau under omega ~ -sigma^2/2
    log_pref = _log_sym_prefactor(derived, spot)
    value, terms, tail, conv = _double_series(
        log_pref, derived.alpha, k_eff, derived.sigma_nu,
        ctrl.max_order, ctrl.tail_tol, range(1, ctrl.max_order + 1),
    )
    return _finalize(value, terms, tail, conv, "atm", diagnostics)


def implied_atmf_vol(
    observed_price: float, spot: float, tau: float, nu: float
) -> float:
    """Invert the leading-term ATM-forward estimate for the implied volatility.

    sigma_I = sqrt(2 pi / nu) * Gamma(tau/nu)/Gamma(1/2 + tau/nu) * C0 / S.
    """
    if not observed_price > 0.0:
        raise InvalidParameters("observed_price must be positive")
    if not spot > 0.0:
        raise InvalidParameters("spot must be positive")
    if not tau > 0.0:
        raise InvalidParameters("tau must be positive")
    if not nu > 0.0:
        raise InvalidParameters("nu must be positive")
    shape = tau / nu
    lg_num, _ = specfun._log_gamma_signed(shape)
    lg_den, _ = specfun._log_gamma_signed(0.5 + shape)
    return (
        math.sqrt(2.0 * math.pi / nu)
        * math.exp(float(lg_num) - float(lg_den))
        * observed_price
        / spot
    )


def cash_or_nothing(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Digital paying one unit when S_T > K, symmetric model.

    The ATM price is exactly e^{-r tau}/2 (the terminal distribution median
    sits at the strike when the risk-neutral moneyness vanishes).
    """
    ctrl = ctrl or SeriesControl()
    _require_symmetric(params, "cash_or_nothing")
    params, derived, diagnostics = _apply_alpha_policy(params, market, ctrl)
    discount = math.exp(-derived.rate_effective * market.tau)
    if derived.branch == "atm":
        return _finalize(0.5 * discount, 0, 0.0, True, "atm", diagnostics)
    log_pref = _log_sym_prefactor(derived, discount)
    value, terms, tail, conv = _otm_or_parity(
        derived.branch,
        lambda sign: _double_series(
            log_pref, derived.alpha, derived.rn_moneyness, sign * derived.sigma_nu,
            ctrl.max_order, ctrl.tail_tol, range(1),
        ),
        lambda: discount,
    )
    return _finalize(value, terms, tail, conv, derived.branch, diagnostics)


def gap(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Gap (pay-later) call: pays S_T - K1 when S_T > K2.

    Decomposes as asset-or-nothing(K2) - K1 * cash-or-nothing(K2); with
    K1 = K2 it degenerates into the European call, with K1 = 0 into the
    asset-or-nothing digital.
    """
    return model.gap_from_digitals(
        market,
        lambda trigger_market: asset_or_nothing(params, trigger_market, ctrl),
        lambda trigger_market: cash_or_nothing(params, trigger_market, ctrl),
    )


def power_asset_or_nothing(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Power digital paying S_T^q when S_T^q > K, symmetric model.

    The OTM series is the asset-or-nothing series with the moneyness
    replaced by its power analogue and every term multiplied by q^{n2}; the
    ITM branch applies parity against the discounted moment
    e^{-r tau} E[S_T^q], which requires q^2 sigma^2 nu / 2 < 1 to exist.
    """
    ctrl = ctrl or SeriesControl()
    _require_symmetric(params, "power_asset_or_nothing")
    q_pow = market.power
    params, derived, diagnostics = _apply_alpha_policy(params, market, ctrl)
    diagnostics["power_moneyness"] = derived.power_moneyness

    def moment():
        """The discounted moment e^{-r tau} E[S_T^q] the ITM parity needs."""
        if not 1.0 - 0.5 * (q_pow * params.sigma) ** 2 * params.nu > 0.0:
            raise InvalidParameters(
                f"the power moment E[S^{q_pow}] does not exist for these parameters"
            )
        omega_q = math.log(1.0 - 0.5 * (q_pow * params.sigma) ** 2 * params.nu) / params.nu
        return market.spot**q_pow * math.exp(
            (q_pow - 1.0) * derived.rate_effective * market.tau
            + (q_pow * derived.omega - omega_q) * market.tau
        )

    return _sym_series_price(
        derived, diagnostics, ctrl, derived.power_moneyness, 0, q_pow, moment
    )


def log_call(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Call on the log return, paying [ln S_T - ln K]^+, symmetric model.

    Only the OTM (and limiting ATM) branch has a closed series; ITM requests
    are rejected rather than improvising an unstated parity relation.
    """
    ctrl = ctrl or SeriesControl()
    _require_symmetric(params, "log_call")
    params, derived, diagnostics = _apply_alpha_policy(params, market, ctrl)
    k = derived.rn_moneyness
    discount = math.exp(-derived.rate_effective * market.tau)
    alpha = derived.alpha
    s_nu = derived.sigma_nu
    shape = alpha + 0.5
    lg_shape, _ = specfun._log_gamma_signed(shape)
    if derived.branch == "atm":
        lg_num, _ = specfun._log_gamma_signed(0.5 + shape)
        value = (
            discount / math.sqrt(math.pi) * math.exp(float(lg_num) - float(lg_shape)) * s_nu
        )
        return _finalize(value, 1, 0.0, True, "atm", diagnostics)
    if derived.branch == "itm":
        raise UnsupportedBranchError(
            "no closed series for the in-the-money log call; use the Monte Carlo engine"
        )
    log_pref = -derived.rate_effective * market.tau - 0.5 * math.log(math.pi) - float(lg_shape)
    lg_a1, s_a1 = specfun._log_gamma_signed(1.0 + alpha)
    lg_ah, s_ah = specfun._log_gamma_signed(0.5 + alpha)
    head = s_a1 * math.exp(log_pref + float(lg_a1) + math.log(s_nu)) + (
        -math.sqrt(math.pi) / 2.0 * s_ah * math.exp(log_pref + float(lg_ah) + math.log(-k))
    )
    n = np.arange(ctrl.max_order + 1)
    log_fact = specfun._log_gamma_signed(n + 1.0)[0]
    log_mk = math.log(-k)
    log_2s = math.log(2.0 * s_nu)
    alternating = (-1.0) ** n
    l1, s1 = specfun._log_gamma_signed(alpha - n)
    part1 = (
        log_pref
        + l1
        - np.log((2.0 * n + 2.0) * (2.0 * n + 1.0))
        + (2.0 * n + 2.0) * log_mk
        - (2.0 * n + 1.0) * log_2s
        - log_fact
    )
    l2, s2 = specfun._log_gamma_signed(-alpha - n)
    div = (2.0 * n + 2.0 * alpha + 2.0) * (2.0 * n + 2.0 * alpha + 1.0)
    part2 = (
        log_pref
        + l2
        - np.log(np.abs(div))
        + (2.0 * n + 2.0 * alpha + 2.0) * log_mk
        - (2.0 * alpha + 2.0 * n + 1.0) * log_2s
        - log_fact
    )
    series, terms, tail, conv = _residue_sum(
        [(part1, alternating * s1), (part2, alternating * s2 * np.sign(div))],
        n,
        ctrl.tail_tol,
    )
    return _finalize(head + series, terms + 2, tail, conv, derived.branch, diagnostics)


# ---------------------------------------------------------------------------
# asymmetric cash-or-nothing (theta != 0)
# ---------------------------------------------------------------------------


def _asym_log_prefactor(derived: DerivedQuantities, tau: float) -> float:
    lg, _ = specfun._log_gamma_signed(derived.alpha + 0.5)
    return (
        -derived.rate_effective * tau
        - (2.0 + 2.0 * derived.alpha) * _LOG2
        - 0.5 * math.log(math.pi)
        - (1.0 + 2.0 * derived.alpha) * math.log(derived.sigma_nu)
        - float(lg)
    )


def _asym_single_series(
    log_prefactor: float,
    alpha: float,
    q_factor: float,
    theta_sigma: float,
    n_max: int,
    tail_tol: float,
):
    """sum_n G((n+1)/2) G((n+1)/2 + a) q^{-(n+1)/2 - a} theta_sigma^n / n!"""
    n = np.arange(n_max + 1)
    log_q = math.log(q_factor)
    lg1 = specfun._log_gamma_signed((n + 1) / 2.0)[0]
    lg2, sg2 = specfun._log_gamma_signed((n + 1) / 2.0 + alpha)
    log_fact = specfun._log_gamma_signed(n + 1.0)[0]
    lp_t, sp_t = _signed_power_log(theta_sigma, n)
    log_terms = (
        log_prefactor + lg1 + lg2 + (-(n + 1) / 2.0 - alpha) * log_q + lp_t - log_fact
    )
    return _residue_sum([(log_terms, sg2 * sp_t)], n, tail_tol)


def _asym_double_series(
    log_prefactor: float,
    alpha: float,
    q_factor: float,
    k_val: float,
    theta_sigma: float,
    n_max: int,
    tail_tol: float,
):
    """The paired double series of the drifted digital (poles of both Bessel factors)."""
    if not k_val < 0.0:
        raise InvalidParameters("asymmetric series requires negative moneyness")
    n1 = np.arange(n_max + 1)[:, None]
    n2 = np.arange(n_max + 1)[None, :]
    log_q = math.log(q_factor)
    log_mk = math.log(-k_val)
    log_fact = (
        specfun._log_gamma_signed(n1 + 1.0)[0] + specfun._log_gamma_signed(n2 + 1.0)[0]
    )
    lp_t, sp_t = _signed_power_log(theta_sigma, n2)
    base = log_prefactor + _LOG2 + lp_t - log_fact

    alternating = (-1.0) ** n1
    lgA, sgA = specfun._log_gamma_signed(alpha - n1)
    partA = (
        base
        + lgA
        - np.log(2.0 * n1 + n2 + 1.0)
        + (2.0 * n1 + n2 + 1.0) * log_mk
        + (n1 - alpha) * log_q
    )
    lgB, sgB = specfun._log_gamma_signed(-alpha - n1)
    div = -(2.0 * n1 + n2 + 1.0 + 2.0 * alpha)
    partB = (
        base
        + lgB
        - np.log(np.abs(div))
        + (2.0 * n1 + n2 + 1.0 + 2.0 * alpha) * log_mk
        + n1 * log_q
    )
    return _residue_sum(
        [
            # the divisor -(2 n1 + n2 + 1) of part A is always negative
            (partA, -sgA * sp_t * alternating),
            (partB, sgB * np.sign(div) * sp_t * alternating),
        ],
        n1 + n2,
        tail_tol,
    )


def asym_cash_or_nothing(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Digital paying one unit when S_T > K, drifted (theta != 0) model.

    OTM combines a single series (in powers of theta/sigma^2) with a double
    series in the moneyness; ITM applies parity with both the moneyness and
    the drift ratio sign-flipped; ATM keeps the single series alone.
    """
    ctrl = ctrl or SeriesControl()
    if params.theta == 0.0:
        raise InvalidParameters(
            "asym_cash_or_nothing requires theta != 0; use cash_or_nothing instead"
        )
    params, derived, diagnostics = _apply_alpha_policy(params, market, ctrl)
    log_pref = _asym_log_prefactor(derived, market.tau)
    discount = math.exp(-derived.rate_effective * market.tau)

    def otm_value(sign):
        theta_sigma = sign * derived.theta_sigma
        v1, t1, tail1, c1 = _asym_single_series(
            log_pref, derived.alpha, derived.q_factor, theta_sigma,
            ctrl.max_order, ctrl.tail_tol,
        )
        v2, t2, tail2, c2 = _asym_double_series(
            log_pref, derived.alpha, derived.q_factor, sign * derived.rn_moneyness,
            theta_sigma, ctrl.max_order, ctrl.tail_tol,
        )
        return v1 + v2, t1 + t2, tail1 + tail2, c1 and c2

    if derived.branch == "atm":
        value, terms, tail, conv = _asym_single_series(
            log_pref, derived.alpha, derived.q_factor, derived.theta_sigma,
            ctrl.max_order, ctrl.tail_tol,
        )
    else:
        value, terms, tail, conv = _otm_or_parity(derived.branch, otm_value, lambda: discount)
    return _finalize(value, terms, tail, conv, derived.branch, diagnostics)
