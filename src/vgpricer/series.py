"""Closed-form residue-series pricers.

Each path-independent payoff below has a price that reduces to one or two
rapidly convergent series in powers of the (risk-neutral) moneyness and the
rescaled volatility, with Gamma-function coefficients.  Every price starts in
one _setup (model check, default control, alpha policy); the series come in
three branches selected by the sign of the risk-neutral moneyness, assembled
for the asset, power and cash digitals and the call by one _sym_series_price:

* OTM  (moneyness < 0): direct series,
* ITM  (moneyness > 0): parity against the complementary OTM series with the
  rescaled-volatility argument sign-flipped (_otm_or_parity),
* ATM  (moneyness = 0): a single collapsed series (or a closed form).

Numerics: every Gamma ratio is evaluated as exp(sum of signed log-Gammas).
A pole of a Gamma in alpha raises (_log_gammas), a pole of an alpha-free
denominator zeroes its term, and a sum that is not finite raises (_finalize).
The log-Gammas are taken on short 1-D index arrays (n, or n2 - n1, 2 n1 + n2
and n1 for a double series), in one call per series, and gathered onto the
(n1, n2) grid.  The two parts of a double series (and of the log call) are
held on one leading axis, as (part, n1, n2) stacks, so a price makes one
numpy call per step for both parts; a 1-D series is a stack of one part with
one n1 row.  Everything that depends only on max_order (the indices and
gathers, log n!, the signs (-1)^n, and the alpha-free part of every
log-Gamma argument) is built once per max_order by _grid, on n1 and n2 over
0..max_order, with its alpha-free Gammas from one log-Gamma call, so a price
pays only for the arithmetic in alpha, the moneyness and the volatility.
_alpha_block memoises the alpha-dependent part of the double series and the
drifted digital (the stacked log-Gamma coefficients and signs, the powers and
divisors in alpha, and log Gamma(alpha + 1/2)) per (kind, max_order, alpha),
bounded at 16 entries; the log call takes the "asym" Gammas unmemoised.  A
block's signs carry each double-series term's (-1)^n1, so only a series whose
n2 power has a negative base (the ITM mirror, or theta < 0) multiplies them, by
(-1)^n2.  Every series slices the grid and its block: the double series'
three shapes (n2 from 0, from 1, and the n2 = 0 column) take their columns,
and the collapsed ATM series, the k -> 0 limit of the double series, is row
n1 = 0 of part 1.  So a gap's two digitals and the ATM and OTM prices of one
alpha share a block, and the drifted digital's two series share another.
Each stacked element takes the same operations in the same order as its part
did on its own, so values do not depend on the stacking or the slicing.
Every series goes through one kernel, _residue_sum, which exponentiates the
stack once, adds its parts and accumulates the anti-diagonals n1 + n2 =
const of the block's shape in ascending order with compensated (Kahan)
summation, because the terms alternate in sign and can grow enormously
before they cancel (deep-OTM rows reach 1e3-sized partial sums).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import xlogy

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
_ALPHA_NUDGES = 3  # relative nudges of nu by 1e-8 before a degenerate alpha is an error
_CONVERGENCE_LIMIT = 1e-6
_LOG2 = math.log(2.0)
# an index that turns a pair of per-part values into a (2, 1, 1) stack
_PARTS = np.s_[:, None, None]
# the coefficients of alpha in a two-part stack that adds 2 alpha to part 2,
# or alpha to part 1, only
_TWO_IN_PART_2 = np.array([0.0, 2.0])[_PARTS]
_ONE_IN_PART_1 = np.array([1.0, 0.0])[_PARTS]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the series evaluators.

    max_order bounds every summation index (double series are truncated on
    the square block [0, max_order]^2, matching how reference truncations
    are quoted).  Summation stops early once two consecutive anti-diagonals
    each contribute less than tail_tol relative to the running sum.
    alpha_policy decides what happens when tau/nu - 1/2 is (half-)integral:
    'error' raises, 'nudge' perturbs nu by one part in 1e8 and records it,
    and raises if alpha is still degenerate after three nudges.
    """

    max_order: int = 25
    tail_tol: float = 1e-10
    alpha_policy: str = "error"

    def __post_init__(self):
        if not (isinstance(self.max_order, (int, np.integer)) and 1 <= self.max_order <= 200):
            raise InvalidParameters(
                f"max_order must be in [1, 200], got {self.max_order!r}"
            )
        if not self.tail_tol > 0.0:
            raise InvalidParameters(f"tail_tol must be positive, got {self.tail_tol!r}")
        if self.alpha_policy not in ("error", "nudge"):
            raise InvalidParameters(
                f"alpha_policy must be 'error' or 'nudge', got {self.alpha_policy!r}"
            )


_DEFAULT_CONTROL = SeriesControl()

# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


class _Args(NamedTuple):
    """The log-Gamma arguments base + alpha * coef of one series, flat, with
    the (slice, shape) of each piece."""

    base: np.ndarray
    coef: np.ndarray
    pieces: tuple


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _args(*pieces) -> _Args:
    """_Args from (alpha-free part, coefficient of alpha) pieces.

    A piece keeps the shape of its alpha-free part, to which its coefficient
    broadcasts.  The coefficients are 1, 0, -2 or -1, so alpha * coef rounds
    nothing and base + alpha * coef is the argument exactly as written out
    per piece.
    """
    bases = [np.asarray(base, dtype=float) for base, _ in pieces]
    cuts = np.cumsum([0] + [base.size for base in bases]).tolist()
    return _Args(
        _frozen(np.concatenate([base.ravel() for base in bases])),
        _frozen(np.concatenate([
            np.broadcast_to(coef, base.shape).ravel() for base, (_, coef) in zip(bases, pieces)
        ])),
        tuple((slice(a, b), base.shape) for a, b, base in zip(cuts, cuts[1:], bases)),
    )


class _Grid:
    """The input-free arrays of one max_order, built once per max_order.

    n1 runs over 0..n_max (a column) and n2 over 0..n_max (a row); the 1-D
    series run over the n2 row, and the double series' shapes take its
    columns: the asset digital all of them, the call those from n2 = 1 and
    the cash digital the n2 = 0 column.  The recipes of the alpha blocks
    (the log-Gamma arguments, the alpha-free Gammas and the gathers) run
    over the full row n = 0..n_max.  Each array is the exact expression a
    series would otherwise evaluate per price, so values do not depend on
    the memo or the slicing.  Nothing here depends on an input, and every
    array is read-only.
    """

    def __init__(self, n_max: int):
        n = np.arange(n_max + 1)
        n1 = n[:, None]
        j = np.arange(-n_max, n_max + 1)
        self.n1 = n1 * 1.0
        self.n2 = n * 1.0
        # one log-Gamma call for Gamma(j/2 + 1) (a pole: log +inf, sign 0), Gamma((n + 1)/2), n!
        gammas = specfun._log_gamma_signed(np.concatenate(((j + 2) / 2.0, (n + 1) / 2.0, n + 1.0)))
        (lg_den, lg_half_n, log_fact), (sg_den, _, _) = (
            np.split(_frozen(part), [len(j), len(j) + len(n)]) for part in gammas
        )
        self.log_fact = log_fact[n1]
        self.n2_log_fact = log_fact
        self.log_fact_2 = log_fact[n1] + log_fact

        # every series' arguments end with alpha + 1/2, for its prefactor, and a
        # 1-D series' pieces are stacks of one part with one n1 row
        half = (np.array([0.5]), 1.0)
        row = (n + 1)[None, None] / 2.0
        # _double_series: part 1's numerator over j = n2 - n1 (its denominator
        # Gamma(j/2 + 1) is alpha-free), part 2's over m = 2 n1 + n2 and n1
        m = np.arange(3 * n_max + 1)
        self.sym = _args(((j + 1) / 2.0, 1.0), (-m - 1.0, -2.0), (-n1 + 0.5, -1.0), half)
        self.sym_den = (lg_den, sg_den)
        # each (log or sign, part, n1, n) cell's place in the concatenation of
        # part 1's ratio over j, log Gamma over m, their signs and the negated
        # signs, which odd n1 take for the (-1)^n1 of every term
        logs = np.stack((n - n1 - j[0], 2 * n1 + n + len(j)))
        self.sym_gather = np.stack((logs, logs + (len(j) + len(m)) * (1 + n1 % 2)))
        # the parts' powers of -k/s, with 2 alpha still to add to part 2's
        self.sym_power = np.stack((self.n1, 2.0 * n1 + 1.0))
        # the drifted digital: its single series' Gamma((n + 1)/2 + alpha) (the
        # alpha-free log Gamma((n + 1)/2) is asym_lg1), then its double series'
        # Gamma(-n1 + alpha) and Gamma(-n1 - alpha); the log call reads them too
        self.asym = _args(
            (row, 1.0), (np.stack((-n1, -n1)), np.array([1.0, -1.0])[_PARTS]), half
        )
        self.asym_lg1 = lg_half_n[None, None]
        self.neg_half_n_1 = -(n + 1) / 2.0
        # the double series' minus and the (-1)^n1 of each of its terms
        self.asym_sign = -((-1.0) ** n1)
        self.m_1 = 2.0 * n1 + n + 1.0
        # the sign of x^n for x < 0
        self.n_sign = (-1.0) ** n
        self.two_n = 2.0 * n
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                _frozen(value)


@functools.lru_cache(maxsize=8)
def _grid(n_max: int) -> _Grid:
    """The _Grid of one max_order, memoised on max_order alone, so a strike
    slice misses once, whatever its parameters."""
    return _Grid(n_max)


@functools.lru_cache(maxsize=16)
def _diagonals(rows: int, cols: int):
    """(np.bincount index, counts) of the anti-diagonals n1 + column of a
    rows x cols term block: a double series' n1 + n2 - n2_start, and a
    single series' column index n, whose every diagonal holds one term."""
    index = (np.arange(rows)[:, None] + np.arange(cols)).ravel()
    return _frozen(index), tuple(np.bincount(index).tolist())


@functools.lru_cache(maxsize=16)
def _alpha_block(kind: str, n_max: int, alpha: float):
    """The alpha-dependent coefficients of one series kind, memoised per (kind, max_order, alpha).

    kind names the _Grid recipe that holds the series' log-Gamma arguments:
    "sym" (the double series) or "asym" (both series of the drifted
    digital).  Each block is built on the grid's full n2 row, and the
    series that start later or stop sooner slice it: the asset digital, the
    call and the cash digital share one "sym" block, and the collapsed ATM
    series is its row n1 = 0 of part 1.  The block is log Gamma(alpha + 1/2)
    for the prefactor, followed by the series' (log, sign) coefficients,
    stacked as (part, n1, n2) arrays (a double series' signs with the
    (-1)^n1 of each term), and the coefficients of its powers that involve
    alpha ("asym" holds the single series' three arrays, then the double
    series' five); the Gammas in alpha come from one log-Gamma call, the
    alpha-free ones from the grid.  The arrays are the same expressions a
    price would evaluate, so values do not depend on the memo or the
    slicing; they are read-only, and a block with a pole in alpha raises.
    """
    g = _grid(n_max)
    *pairs, (lg_half, _) = _log_gammas(getattr(g, kind), alpha)
    if kind == "sym":
        (lg_j, sg_j), g_m, (lg_rows, sg_rows) = pairs
        # part 1's ratio over j, all on the grid; a denominator pole gives log -inf, sign 0
        lg_j -= g.sym_den[0]
        sg_j *= g.sym_den[1]
        signs = np.concatenate((sg_j, g_m[1]))
        log, sign = np.concatenate((lg_j, g_m[0], signs, -signs))[g.sym_gather]
        log[1] -= lg_rows
        sign[1] *= sg_rows
        block = (log, sign, g.sym_power + alpha * _TWO_IN_PART_2)
    else:  # "asym"
        # Gamma((n + 1)/2 + alpha) > 0 because alpha > -1/2, so its sign is dropped
        (lg2, _), (lg, sg) = pairs
        # the divisors -(2 n1 + n2 + 1) and -(2 n1 + n2 + 1 + 2 alpha) are both
        # negative, because alpha > -1/2; the signs carry the series' minus
        divisor = g.m_1 + alpha * _TWO_IN_PART_2
        block = (
            g.asym_lg1, lg2, g.neg_half_n_1 - alpha,
            lg, sg * g.asym_sign, np.log(divisor), divisor, g.n1 - alpha * _ONE_IN_PART_1,
        )
    return (lg_half.item(), *map(_frozen, block))


def _log_gammas(args: _Args, alpha: float):
    """(log|Gamma|, sign) pairs of each piece of args at alpha, in the piece's
    shape, from one log-Gamma call; a pole (sign 0) raises DegenerateAlphaError."""
    log_abs, sign = specfun._log_gamma_signed(args.base + alpha * args.coef)
    if not sign.all():
        raise DegenerateAlphaError("series coefficient hit a Gamma pole")
    return [(log_abs[cut].reshape(shape), sign[cut].reshape(shape)) for cut, shape in args.pieces]


def _kahan_diagonal_sum(diag_values, diag_counts, tail_tol):
    """Compensated sum of per-diagonal contributions: (total, terms, tail).

    Summation stops once two consecutive diagonals each add less than
    tail_tol of the running sum; the rule only stops, and _finalize alone
    judges convergence.  The tail estimate spans the last two diagonals:
    every second coefficient of the digital series vanishes through a
    denominator Gamma pole, so one diagonal's magnitude is no signal.
    """
    total = 0.0
    comp = 0.0
    small_run = 0
    last = 0.0
    previous = 0.0
    terms = 0
    for value, count in zip(diag_values.tolist(), diag_counts):
        y = value - comp
        t = total + y
        comp = (t - total) - y
        total = t
        previous = last
        last = abs(value)
        terms += count
        if last < tail_tol * abs(total):
            small_run += 1
            if small_run >= 2:
                break
        else:
            small_run = 0
    return total, terms, max(last, previous)


def _residue_sum(log_terms, signs, tail_tol):
    """The one summation kernel: sum of signs * exp(log_terms) over the parts.

    Both arrays stack one or two parts on their leading axis.  Terms are
    added per anti-diagonal of their (rows, cols) block (n1 + n2 - n2_start
    for a double series, n for a single one, whose block is one row) through
    the (np.bincount index, counts) pair of _diagonals, and the per-diagonal
    sums are accumulated in ascending order by _kahan_diagonal_sum, whose
    (value, terms, tail) it returns for _finalize to judge.  Terms that
    overflow give an inf or NaN sum, for _finalize to raise on.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        terms = signs * np.exp(log_terms)
        # one add of the two parts rounds as terms.sum(axis=0) would, in half the
        # time on arrays this small; a single part needs no add
        if len(terms) == 2:
            terms = terms[0] + terms[1]
    index, counts = _diagonals(*terms.shape[-2:])
    return _kahan_diagonal_sum(np.bincount(index, weights=terms.ravel()), counts, tail_tol)


# ---------------------------------------------------------------------------
# symmetric-model series (theta = 0)
# ---------------------------------------------------------------------------


def _double_series(
    log_amount: float,
    alpha: float,
    k_val: float,
    s_val: float,
    n_max: int,
    tail_tol: float,
    n2: range,
    power_mult: float = 1.0,
):
    """The two-part double series shared by asset-or-nothing style payoffs.

    Term (n1, n2) is amount / (2 G(a + 1/2)) (-1)^{n1}/n1! times

        G((n2-n1+1)/2 + a)/G((n2-n1)/2 + 1) (-k/s)^{n1} s^{n2} p^{n2}
      + 2 G(-2n1-n2-1-2a)/G(-n1+1/2-a) (-k/s)^{2n1+1+2a} (-k)^{n2} p^{n2}

    with log_amount = log(amount / 2), evaluated for the moneyness k and
    rescaled-volatility argument s (the ITM parity passes s < 0), with p
    the power-payoff multiplier.  n1 runs over 0..n_max and n2 over the
    given range: from 0 for the asset digital, from 1 for the call, and
    range(1) for the cash digital, which is the n2 = 0 slice.  Requires
    -k/s > 0, which every branch guarantees.

    The first ratio depends on j = n2 - n1 alone, the second's numerator on
    m = 2 n1 + n2 and its denominator on n1, so all four Gammas come from
    1-D arrays over j, m and n1, gathered onto the grid with n2 from 0, of
    which each range takes its columns.
    """
    ratio = -k_val / s_val
    if not ratio > 0.0:
        raise InvalidParameters("series requires -moneyness/volatility > 0")
    log_ratio = math.log(ratio)
    g = _grid(n_max)
    lg_half, log_coef, sign_coef, ratio_power = _alpha_block("sym", n_max, alpha)
    # the grid and the block run n2 from 0; the call and the cash digital slice them
    cells = np.s_[..., n2.start : n2.stop]
    log_coef, sign_coef, n2_row = log_coef[cells], sign_coef[cells], g.n2[cells]
    log_prefactor = log_amount - lg_half
    heads = np.array((log_prefactor, log_prefactor + _LOG2))[_PARTS]
    # part 1 takes s^n2 and part 2 (-k)^n2; -k/s > 0, so both have the sign of s^n2
    powers = n2_row * np.array((math.log(abs(s_val)), math.log(abs(k_val))))[_PARTS]
    log_terms = heads + log_coef + ratio_power * log_ratio + powers
    if power_mult != 1.0:
        log_terms += n2_row * math.log(power_mult)
    log_terms -= g.log_fact
    # the block's signs hold (-1)^n1; s^n2 adds (-1)^n2 on the ITM branch
    signs = sign_coef * g.n_sign[cells] if s_val < 0.0 else sign_coef
    return _residue_sum(log_terms, signs, tail_tol)


# ---------------------------------------------------------------------------
# guards and assembly
# ---------------------------------------------------------------------------


def _check_model(name: str, params: VgParams) -> None:
    """theta = 0 for the symmetric pricers, theta != 0 for the drifted digital."""
    if name == "asym_cash_or_nothing" and params.theta == 0.0:
        raise InvalidParameters(f"{name} requires theta != 0; use cash_or_nothing instead")
    if name != "asym_cash_or_nothing" and params.theta != 0.0:
        raise InvalidParameters(
            f"{name} requires the symmetric model (theta = 0); "
            "use asym_cash_or_nothing for drifted digitals"
        )


def _setup(
    name: str, params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl]
) -> tuple[SeriesControl, VgParams, DerivedQuantities, dict]:
    """The start of every series price: (ctrl, params, derived, diagnostics).

    Checks the model, takes ctrl or the default, then rejects or nudges a
    (half-)integral alpha = tau/nu - 1/2.  Integral alpha degenerates the
    Bessel kernel; half-integral alpha makes individual series coefficients
    hit Gamma poles (their pairwise limits exist, but the printed series form
    does not apply).  Both are treated by the same policy.
    """
    _check_model(name, params)
    ctrl = ctrl or _DEFAULT_CONTROL
    diagnostics: dict = {}
    for nudges in range(_ALPHA_NUDGES + 1):
        alpha = model._clock_shape(name, market.tau, params.nu) - 0.5
        # the distances to the nearest integer and half-integer, exact without forming 2 alpha
        near_int = abs(math.remainder(alpha, 1.0)) < _ALPHA_GUARD
        near_half = abs(math.remainder(alpha, 0.5)) < _ALPHA_GUARD
        if not (near_int or near_half):
            break
        kind = "integer" if near_int else "half-integer"
        message = f"alpha = tau/nu - 1/2 = {alpha:.12g} is within {_ALPHA_GUARD} of a {kind} value"
        if ctrl.alpha_policy == "error":
            raise DegenerateAlphaError(f"{message}; pass alpha_policy='nudge' to perturb nu")
        if nudges == _ALPHA_NUDGES:
            raise DegenerateAlphaError(f"{message} after {nudges} nudges of nu")
        params = replace(params, nu=params.nu * (1.0 + 1e-8))
        diagnostics["nudged_nu"] = params.nu
    derived = model.derive(params, market)
    diagnostics["alpha"] = derived.alpha
    diagnostics["rn_moneyness"] = derived.rn_moneyness
    return ctrl, params, derived, diagnostics


def _finalize(value: float, terms: int, tail: float, branch: str, diagnostics: dict) -> PriceResult:
    """The one verdict on a series price: its PriceResult if the value is finite with a
    tail of at most 1e-6 |value|, else NonConvergenceError carrying it, with
    diagnostics["converged"] True on the first and False on the second."""
    finite = math.isfinite(value)
    diagnostics["converged"] = converged = finite and tail <= _CONVERGENCE_LIMIT * abs(value)
    result = model._price_result("series", value, terms, tail, branch, diagnostics)
    if not converged:
        raise NonConvergenceError(
            f"series tail estimate {tail:.3g} exceeds 1e-6 of |value| = {abs(value):.3g}; "
            "increase max_order or lower tail_tol",
            result=result,
        )
    return result


def _otm_or_parity(branch: str, otm_series, parity):
    """The OTM series, or on the ITM branch parity() minus the mirrored series;
    the ATM branch takes the OTM series too.

    otm_series(sign) sums the OTM series with its mirrored argument (the
    rescaled volatility, or the moneyness and the drift ratio) times sign.
    parity() is taken first, so its own checks run before the series.
    """
    if branch != "itm":
        return otm_series(1.0)
    complement = parity()
    series, terms, tail = otm_series(-1.0)
    return complement - series, terms, tail


def _sym_series_price(derived, diagnostics, ctrl, k_val, amount, n2, power_mult, parity):
    """The asset, power or cash digital, or the call, paying amount, on the branch of k_val.

    ATM sums the collapsed series sum_n G((n+1)/2 + a)/G(n/2 + 1) (p s)^n,
    OTM the double series, and ITM takes parity() minus the mirrored double
    series; both run over the payoff's n2 range.
    """
    branch = model.moneyness_branch(k_val)
    log_amount = math.log(amount) - _LOG2
    if branch == "atm":
        # at k = 0, (-k/s)^n1 leaves only row n1 = 0 of the double series' part 1,
        # and part 2 vanishes; the call's series is the asset digital's without n2 = 0
        lg_half, log_coef, sign_coef, _ = _alpha_block("sym", ctrl.max_order, derived.alpha)
        row = np.s_[:1, :1, n2.start :]
        powers = _grid(ctrl.max_order).n2[n2.start :] * math.log(power_mult * derived.sigma_nu)
        log_terms = log_amount - lg_half + log_coef[row] + powers
        value, terms, tail = _residue_sum(log_terms, sign_coef[row], ctrl.tail_tol)
    else:
        value, terms, tail = _otm_or_parity(
            branch,
            lambda sign: _double_series(
                log_amount, derived.alpha, k_val, sign * derived.sigma_nu,
                ctrl.max_order, ctrl.tail_tol, n2, power_mult,
            ),
            parity,
        )
    return _finalize(value, terms, tail, branch, diagnostics)


# ---------------------------------------------------------------------------
# public pricers, symmetric model
# ---------------------------------------------------------------------------


def asset_or_nothing(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Digital paying S_T when S_T > K, symmetric model."""
    ctrl, params, derived, diagnostics = _setup("asset_or_nothing", params, market, ctrl)
    return _sym_series_price(
        derived, diagnostics, ctrl, derived.rn_moneyness, derived.forward_strike,
        range(ctrl.max_order + 1), 1.0, lambda: market.spot,
    )


def european(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """European call, symmetric model.

    Same series as the asset-or-nothing digital with the volatility-power
    index starting at 1; ITM branch adds the forward parity S - K e^{-r tau}.
    """
    ctrl, params, derived, diagnostics = _setup("european", params, market, ctrl)
    return _sym_series_price(
        derived, diagnostics, ctrl, derived.rn_moneyness, derived.forward_strike,
        range(1, ctrl.max_order + 1), 1.0, lambda: market.spot - derived.forward_strike,
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
    _check_model("european_atmf", params)
    if abs(math.log(market.spot / market.strike) + (market.rate - market.dividend_yield) * market.tau) > 1e-9:
        raise InvalidParameters(
            "european_atmf requires the at-the-money-forward configuration S = K e^(-r tau)"
        )
    if leading_only:
        # single Gamma ratio, no series: the degenerate-alpha guard is moot
        shape = model._clock_shape("european_atmf", market.tau, params.nu)
        (lg_num, lg_den), _ = specfun._log_gamma_signed([0.5 + shape, shape])
        value = (
            market.spot
            / math.sqrt(2.0 * math.pi)
            * math.exp(float(lg_num) - float(lg_den))
            * params.sigma
            * math.sqrt(params.nu)
        )
        return _finalize(value, 1, 0.0, "atm", {"leading_only": True})
    ctrl, params, derived, diagnostics = _setup("european_atmf", params, market, ctrl)
    k_eff = -0.5 * params.sigma**2 * market.tau  # omega tau under omega ~ -sigma^2/2
    value, terms, tail = _double_series(
        math.log(market.spot) - _LOG2, derived.alpha, k_eff, derived.sigma_nu,
        ctrl.max_order, ctrl.tail_tol, range(1, ctrl.max_order + 1),
    )
    return _finalize(value, terms, tail, "atm", diagnostics)


def implied_atmf_vol(
    observed_price: float, spot: float, tau: float, nu: float
) -> float:
    """Invert the leading-term ATM-forward estimate for the implied volatility.

    sigma_I = sqrt(2 pi / nu) * Gamma(tau/nu)/Gamma(1/2 + tau/nu) * C0 / S; InvalidParameters
    when it is 0 or not finite.
    """
    inputs = {"observed_price": observed_price, "spot": spot, "tau": tau, "nu": nu}
    for name, value in inputs.items():
        if not value > 0.0:
            raise InvalidParameters(f"{name} must be positive")
        if name != "tau" and value == math.inf:  # an infinite tau fails the clock shape
            raise InvalidParameters(f"{name} must be finite, got {value!r}")
    shape = model._clock_shape("implied_atmf_vol", tau, nu)
    (lg_num, lg_den), _ = specfun._log_gamma_signed([shape, 0.5 + shape])
    # in logs: the Gamma ratio alone overflows at a subnormal tau/nu
    log_vol = 0.5 * math.log(2.0 * math.pi / nu) + (float(lg_num) - float(lg_den))
    log_vol += math.log(observed_price) - math.log(spot)
    vol = math.exp(log_vol) if log_vol < model._LOG_MAX else math.inf
    if not 0.0 < vol < math.inf:
        raise InvalidParameters(f"the implied volatility {vol!r} leaves the double range")
    return vol


def cash_or_nothing(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Digital paying one unit when S_T > K, symmetric model.

    The ATM price is exactly e^{-r tau}/2 (the terminal distribution median
    sits at the strike when the risk-neutral moneyness vanishes).
    """
    ctrl, params, derived, diagnostics = _setup("cash_or_nothing", params, market, ctrl)
    discount = derived.discount
    if derived.branch == "atm":
        return _finalize(0.5 * discount, 0, 0.0, "atm", diagnostics)
    return _sym_series_price(
        derived, diagnostics, ctrl, derived.rn_moneyness, discount, range(1), 1.0, lambda: discount
    )


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
    e^{-r tau} E[S_T^q].  Every branch requires q^2 sigma^2 nu / 2 < 1, for
    without that moment the price is infinite.
    """
    ctrl, params, derived, diagnostics = _setup("power_asset_or_nothing", params, market, ctrl)
    q_pow = market.power
    moment_base = model._power_moment_base(params, q_pow)
    diagnostics["power_moneyness"] = derived.power_moneyness

    def moment():
        """The discounted moment e^{-r tau} E[S_T^q] the ITM parity needs."""
        omega_q = math.log(moment_base) / params.nu
        return model._pow(market.spot, q_pow) * math.exp(
            (q_pow - 1.0) * derived.rate_effective * market.tau
            + (q_pow * derived.omega - omega_q) * market.tau
        )

    return _sym_series_price(
        derived, diagnostics, ctrl, derived.power_moneyness, derived.forward_strike,
        range(ctrl.max_order + 1), q_pow, moment,
    )


def log_call(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Call on the log return, paying [ln S_T - ln K]^+, symmetric model.

    Only the OTM (and limiting ATM) branch has a closed series; ITM requests
    are rejected rather than improvising an unstated parity relation.
    """
    ctrl, params, derived, diagnostics = _setup("log_call", params, market, ctrl)
    k = derived.rn_moneyness
    discount = derived.discount
    alpha = derived.alpha
    s_nu = derived.sigma_nu
    if derived.branch == "itm":
        raise UnsupportedBranchError(
            "no closed series for the in-the-money log call; use the Monte Carlo engine"
        )
    if derived.branch == "atm":
        # log Gamma(alpha + 1/2) at the block's argument, and Gamma(alpha + 1)
        (lg_shape, lg_num), _ = specfun._log_gamma_signed([0.5 + alpha, 0.5 + (alpha + 0.5)])
        value = discount / math.sqrt(math.pi) * math.exp(float(lg_num) - float(lg_shape)) * s_nu
        return _finalize(value, 1, 0.0, "atm", diagnostics)
    # the drifted digital's Gammas, unmemoised: Gamma(1 + alpha) is its row's n = 1, and its
    # Gamma(-n1 +- alpha) column, as a row, the coefficients; alpha > -1/2 makes the head's
    # Gammas, and the factors 2 n + 2 alpha + 1 and + 2, positive
    g = _grid(ctrl.max_order)
    (lg_row, _), (log_coef, sign_coef), (lg_shape, _) = _log_gammas(g.asym, alpha)
    lg_a1, lg_shape = lg_row[0, 0, 1].item(), lg_shape.item()
    log_coef, sign_coef = log_coef.reshape(2, 1, -1), g.n_sign * sign_coef.reshape(2, 1, -1)
    shifted = g.two_n + alpha * _TWO_IN_PART_2
    shifted_2, shifted_1 = shifted + 2.0, shifted + 1.0
    log_pref = -derived.rate_effective * market.tau - 0.5 * math.log(math.pi) - lg_shape
    head = math.exp(log_pref + lg_a1 + math.log(s_nu)) + (
        -math.sqrt(math.pi) / 2.0 * math.exp(log_pref + lg_shape + math.log(-k))
    )
    log_mk = math.log(-k)
    log_2s = math.log(2.0 * s_nu)
    log_terms = (
        log_pref + log_coef - np.log(shifted_2 * shifted_1) + shifted_2 * log_mk
        - shifted_1 * log_2s - g.n2_log_fact
    )
    series, terms, tail = _residue_sum(log_terms, sign_coef, ctrl.tail_tol)
    return _finalize(head + series, terms + 2, tail, derived.branch, diagnostics)


# ---------------------------------------------------------------------------
# asymmetric cash-or-nothing (theta != 0)
# ---------------------------------------------------------------------------


def _asym_series(derived, tau, ctrl, sign):
    """The drifted digital's series, from one "asym" block, with the drift
    ratio and the moneyness times sign: the single series

        sum_n G((n+1)/2) G((n+1)/2 + a) q^{-(n+1)/2 - a} theta_sigma^n / n!

    alone at the money, and otherwise plus the paired double series in the
    (negative) moneyness, from the poles of both Bessel factors.  theta_sigma^n
    enters as xlogy(n, |theta_sigma|) = n log|theta_sigma|, with 0^0 = 1, and
    its sign comes from the grid's n_sign.
    """
    # log of the prefactor times Gamma(alpha + 1/2); each series divides by
    # that Gamma from the alpha block
    log_front = (
        -derived.rate_effective * tau
        - (2.0 + 2.0 * derived.alpha) * _LOG2
        - 0.5 * math.log(math.pi)
        - (1.0 + 2.0 * derived.alpha) * math.log(derived.sigma_nu)
    )
    g = _grid(ctrl.max_order)
    lg_half, lg1, lg2, q_power, *double = _alpha_block("asym", ctrl.max_order, derived.alpha)
    theta_sigma = sign * derived.theta_sigma
    log_q = math.log(derived.q_factor)
    theta_power = xlogy(g.n2, abs(theta_sigma))
    log_terms = log_front - lg_half + lg1 + lg2 + q_power * log_q + theta_power - g.n2_log_fact
    single = _residue_sum(log_terms, g.n_sign if theta_sigma < 0.0 else 1.0, ctrl.tail_tol)
    if derived.branch == "atm":
        return single
    # negative on both branches: OTM has k_rn < 0 and sign 1, ITM k_rn > 0 and sign -1
    k_val = sign * derived.rn_moneyness
    log_coef, sign_coef, log_divisor, divisor, q_power = double
    base = log_front - lg_half + _LOG2 + theta_power - g.log_fact_2
    log_terms = base + log_coef - log_divisor + divisor * math.log(-k_val) + q_power * log_q
    signs = sign_coef * g.n_sign if theta_sigma < 0.0 else sign_coef
    v1, t1, tail1 = single
    v2, t2, tail2 = _residue_sum(log_terms, signs, ctrl.tail_tol)
    return v1 + v2, t1 + t2, tail1 + tail2


def asym_cash_or_nothing(
    params: VgParams, market: MarketInputs, ctrl: Optional[SeriesControl] = None
) -> PriceResult:
    """Digital paying one unit when S_T > K, drifted (theta != 0) model.

    OTM combines a single series (in powers of theta/sigma^2) with a double
    series in the moneyness; ITM applies parity with both the moneyness and
    the drift ratio sign-flipped; ATM keeps the single series alone.
    """
    ctrl, params, derived, diagnostics = _setup("asym_cash_or_nothing", params, market, ctrl)
    if not derived.q_factor < math.inf:  # (theta / (2 sigma^2))^2 overflows
        raise InvalidParameters(
            f"the drift factor 1/(2 sigma^2 nu) + (theta / (2 sigma^2))^2 = {derived.q_factor!r}"
            " is not finite"
        )
    series = functools.partial(_asym_series, derived, market.tau, ctrl)
    value, terms, tail = _otm_or_parity(derived.branch, series, lambda: derived.discount)
    return _finalize(value, terms, tail, derived.branch, diagnostics)
