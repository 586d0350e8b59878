"""Fourier-integral benchmark pricers.

Digitals use the inversion of the risk-neutral characteristic function

    asset-or-nothing: S  (1/2 + (1/pi) int_0^umax Re[e^{iuk} PhiRN(u-i, tau)/(iu)] du)
    cash-or-nothing:  e^{-r tau} (1/2 + (1/pi) int_0^umax Re[e^{iuk} PhiRN(u, tau)/(iu)] du)

with k the log-forward moneyness.  European calls use the damped integral:
the call price in log-strike is multiplied by e^{a k_L} to make it
integrable, priced through the characteristic function of log S_T, and the
damping removed afterwards.  The damping factor must stay below the
square-integrability bound (a_max for the symmetric model).

The default, u_max = inf, prices the untruncated integrals on a
sinh-deformed contour xi(y) = i w1 + b sinh(i w + y) (Boyarchenko and
Levendorskii, "Sinh-acceleration", 2019), where the trapezoid rule in y
converges exponentially: a few tens to a few hundred nodes per price.  The
contour bends into the half-plane where e^{-i xi x1}, x1 = -k_rn, decays.
Its apex sits at -i(1 + a) for an out-of-the-money call; elsewhere it is the
point of least |integrand| on the imaginary axis (Lord and Kahl, "Optimal
Fourier inversion in semi-analytical option pricing", 2007), no further than
half-way to the nearest branch point of Phi.  Bending up over the pole at
0 (and -i for the call) adds its residue: 1 for a digital, the forward
intrinsic value for a call.  Phi is taken in factored form
(model._log_characteristic_fn), whose branch cuts point away from the
contour.  The step halves until the change is below abs_tol, and that
change, plus a rounding floor, is the truncation_estimate.

An explicit finite u_max keeps the real-axis integral truncated there.  Its
quadrature is composite 32-point Gauss-Legendre on graded panels.  The
first panel resolves the e^{iuk} oscillation near the origin (width
min(pi/(2|k| + 1), cap)); each next panel is 1.5x wider, up to four periods
of e^{iuk}, since the integrands decay like a power of u.  Every pass splits
all panels in two until the change is below abs_tol, and evaluates its nodes
in bounded chunks.  The panels change only the quadrature: each price is the
same integral truncated at u_max, and its truncation_estimate is the dropped
tail past u_max.

Either way a price outside its no-arbitrage bounds by more than the
contour's rounding floor is returned unchanged but with tolerance_met False
and a warning in its diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .errors import BranchCutError, DampingOutOfRangeError, InvalidParameters
from .model import MarketInputs, PriceResult, VgParams

__all__ = [
    "FourierConfig",
    "lewis_asset_or_nothing",
    "lewis_cash_or_nothing",
    "carr_madan_european",
    "a_max",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_MAX_REFINEMENTS = 5
_GROWTH = 1.5  # width ratio of consecutive panels
_CAP_PERIODS = 4  # widest panel, in periods of e^{iuk}
_CHUNK_NODES = 2**16
_CHUNK_PANELS = _CHUNK_NODES // len(_GL_NODES)  # panels evaluated at once: at most 2^16 nodes
_SQRT2 = math.sqrt(2.0)
_STEP = 0.2  # first trapezoid step in y on the contour
_Y_LIMIT = 600.0  # keeps b sinh(y) finite
_APEX_GRID = 24  # apex candidates, each 0.74 of the distance of the one before
_ROUNDING = 8.0 * 2.0**-52  # rounding floor per unit of summed magnitude


@dataclass(frozen=True)
class FourierConfig:
    """Integration controls: truncation point, panel floor, damping, tolerance.

    u_max = inf (the default) prices the untruncated integral on a deformed
    contour; a finite u_max truncates the real-axis integral there.  panels
    applies to the finite path only: it is a floor on the number of panels in
    the first pass, where the graded layout alone needs from a few tens to a
    few hundred at u_max = 1e4.
    """

    u_max: float = math.inf
    panels: int = 1
    damping_a: float = 1.0
    abs_tol: float = 1e-9

    def __post_init__(self):
        if not self.u_max > 0.0:
            raise InvalidParameters(f"u_max must be positive, got {self.u_max!r}")
        if not self.panels >= 1:
            raise InvalidParameters(f"panels must be >= 1, got {self.panels!r}")
        if not self.abs_tol > 0.0:
            raise InvalidParameters(f"abs_tol must be positive, got {self.abs_tol!r}")


def _graded_edges(lo: float, hi: float, osc_scale: float, width_cap: float) -> np.ndarray:
    """Panel edges on [lo, hi], each panel 1.5x wider than the one before.

    The first panel resolves the oscillation near the origin; widths stop
    growing at _CAP_PERIODS periods of e^{iuk}, and the rest of the range is
    split evenly at that width.  Without oscillation (k = 0) they never stop.
    """
    width = min(math.pi / (2.0 * abs(osc_scale) + 1.0), width_cap)
    cap = 2.0 * math.pi * _CAP_PERIODS / abs(osc_scale) if osc_scale else math.inf
    edges = [lo]
    while edges[-1] + width < hi and width < cap:
        edges.append(edges[-1] + width)
        width = min(_GROWTH * width, cap)
    n_tail = max(1, math.ceil((hi - edges[-1]) / width))
    return np.concatenate([edges[:-1], np.linspace(edges[-1], hi, n_tail + 1)])


def _panel_integral(f, edges: np.ndarray, splits: int, n_panels: int) -> float:
    """32-point Gauss-Legendre sum over n_panels panels.

    Each interval between consecutive edges is split into `splits` equal
    panels, n_panels = splits * (len(edges) - 1).  Nodes are built and
    evaluated _CHUNK_PANELS panels at a time, so memory stays bounded for
    any u_max.  (vgbench/trace.py reads n_panels as positional argument 3.)
    """
    total = 0.0
    for first in range(0, n_panels, _CHUNK_PANELS):
        base, part = np.divmod(np.arange(first, min(first + _CHUNK_PANELS, n_panels)), splits)
        half = 0.5 * (edges[base + 1] - edges[base]) / splits
        mid = edges[base] + (2 * part + 1) * half
        x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        total += float(np.sum(f(x) * w))
    return total


def _integrate(g, k: float, lo: float, hi: float, width_cap: float, cfg: FourierConfig):
    """int_lo^hi Re[e^{iuk} g(u)] du on graded panels, refined by splitting every panel in two."""

    def f(u):
        return np.real(np.exp(1j * u * k) * g(u))

    edges = _graded_edges(lo, hi, k, width_cap)
    splits = -(-cfg.panels // (len(edges) - 1))
    n_panels = splits * (len(edges) - 1)
    value = _panel_integral(f, edges, splits, n_panels)
    evals = n_panels * len(_GL_NODES)
    tolerance_met = False
    for _ in range(_MAX_REFINEMENTS):
        splits *= 2
        n_panels *= 2
        refined = _panel_integral(f, edges, splits, n_panels)
        evals += n_panels * len(_GL_NODES)
        if abs(refined - value) <= cfg.abs_tol:
            value = refined
            tolerance_met = True
            break
        value = refined
    return value, evals, tolerance_met


def _tail_estimate(g, u_max: float, k_rn: float, decay: float) -> float:
    """Size of the dropped tail int_{u_max}^inf Re[e^{iuk} g(u)] du, |g| ~ u^-decay.

    Past u_max the integrand oscillates like e^{iu k_rn}; one integration by
    parts gives |g(u_max)| / |k_rn|.  Near the money, where that diverges,
    the power decay alone gives |g(u_max)| u_max / (decay - 1); the smaller
    of the two is returned.
    """
    return float(abs(g(u_max))) / max(abs(k_rn), (decay - 1.0) / u_max)


def _contour_integral(F, x1, pole, branch, decay, sigma_nu, residue, cfg, apex=None):
    """residue + (1/2pi) int F(xi) dxi along xi(y) = i w1 + b sinh(i w + y), y real.

    Every singularity of F lies on the imaginary axis, and i pole and
    i branch are the two that enclose the contour's apex.  The contour bends
    toward the branch point: down (w = -pi/4) when x1 >= 0, where e^{-i xi x1}
    decays, and up (w = pi/4) when x1 < 0.  Unless it is given, the apex is
    where |F| is least on the imaginary axis (the choice of Lord and Kahl
    for the damping), searched on a geometric grid of _APEX_GRID points from
    half-way to the branch point down to 1e-3 of that distance from the pole.
    At long maturities the half-way point would put |F| up to (4/3)^(tau/nu)
    on the contour, and the price would cancel from there.

    b is the largest value for which the hyperbolas at angles between 0
    and 2w, the images of the strip |Im y| < pi/4, cross the axis between
    pole and branch, so the trapezoid rule in y converges exponentially in
    1/h.  F(-conj xi) = conj F(xi), as for any real random variable, so only
    y >= 0 is evaluated.

    From its value at the apex, |F| falls by exp(-|x1| b |sin w| (cosh y - 1))
    from the oscillation (about exp(-|x1| (b/2) e^y |sin w|)), and Phi is at
    most (sigma_nu |Re xi|)^-decay, a power decay exp(-decay y); y stops where
    either bound has fallen by e^-L, L = ln(1/abs_tol) + 25, or at _Y_LIMIT.
    The step starts at _STEP and halves, reusing the nodes, until the change
    is below abs_tol or the next pass would exceed _CHUNK_NODES nodes.
    Returns the value, the count of evaluations of F, whether abs_tol was
    met, the last change plus a rounding floor, and that floor: _ROUNDING
    times the sum of the magnitudes added.
    """
    evals = 0
    if apex is None:
        v = pole + 0.5 * (branch - pole) * np.geomspace(1.0, 1e-3, _APEX_GRID)
        apex = float(v[np.argmin(np.abs(F(1j * v)))])
        evals = _APEX_GRID
    toward = math.copysign(1.0, branch - pole)
    b = min(_SQRT2 * abs(apex - pole), abs(branch - apex) / (1.0 - 1.0 / _SQRT2))
    w = toward * math.pi / 4.0
    w1 = apex - toward * b / _SQRT2
    log_drop = math.log(1.0 / cfg.abs_tol) + 25.0
    # |Phi| <= (sigma_nu |Re xi|)^-decay and |Re xi| = b sinh(y) / sqrt 2
    t = math.log(_SQRT2 / (sigma_nu * b)) + (log_drop + math.log1p(1.0 / decay)) / decay
    y_max = min(math.asinh(math.exp(t)) if t < 20.0 else t + math.log(2.0), _Y_LIMIT)
    oscillation = abs(x1) * b / _SQRT2
    if oscillation > 0.0:
        y_max = min(y_max, math.acosh(1.0 + log_drop / oscillation))

    def f(y):
        z = 1j * w + y
        return (F(1j * w1 + b * np.sinh(z)) * (b * np.cosh(z))).real

    h = _STEP
    n = max(1, math.ceil(y_max / h))
    values = f(h * np.arange(n + 1))
    values[0] *= 0.5
    value = h * float(np.sum(values)) / math.pi
    magnitude = h * float(np.sum(np.abs(values))) / math.pi
    evals += n + 1
    change = math.inf
    while evals + n <= _CHUNK_NODES:
        values = f(h * (np.arange(n) + 0.5))
        refined = 0.5 * (value + h * float(np.sum(values)) / math.pi)
        magnitude = 0.5 * (magnitude + h * float(np.sum(np.abs(values))) / math.pi)
        evals += n
        change = abs(refined - value)
        value = refined
        h, n = 0.5 * h, 2 * n
        if change <= cfg.abs_tol:
            break
    ok = change <= cfg.abs_tol
    floor = _ROUNDING * (abs(residue) + magnitude)
    return residue + value, evals, ok, change + floor, floor


def _result(value, truncation, bounds, evals, tolerance_met, derived, floor=0.0, **extra):
    """A Fourier PriceResult; a value outside its no-arbitrage bounds is flagged, not changed,
    unless it is within its rounding floor of them: then it is set to the bound it crossed."""
    lower, upper = bounds
    if lower - floor <= value <= upper + floor:
        value = min(max(value, lower), upper)
    warnings = []
    if not tolerance_met:
        warnings.append("abs_tol not reached within refinement budget")
    if not lower <= value <= upper:
        tolerance_met = False
        warnings.append(
            f"price {value:.6g} outside its no-arbitrage bounds [{lower:.6g}, {upper:.6g}]"
        )
    diagnostics = {"tolerance_met": tolerance_met, **extra}
    if warnings:
        diagnostics["warning"] = "; ".join(warnings)
    return PriceResult(
        value=value,
        method="fourier",
        terms_evaluated=evals,
        truncation_estimate=truncation,
        branch=derived.branch,
        diagnostics=diagnostics,
    )


def _lewis_digital(g, scale: float, params: VgParams, market: MarketInputs, derived, cfg):
    """scale (1/2 + (1/pi) int_0^umax Re[e^{iuk} g(u)] du), a digital worth between 0 and scale."""
    integral, evals, ok = _integrate(g, derived.log_fwd_moneyness, 1e-10, cfg.u_max, 2.0, cfg)
    tail = _tail_estimate(g, cfg.u_max, derived.rn_moneyness, 1.0 + 2.0 * market.tau / params.nu)
    value = scale * (0.5 + integral / math.pi)
    return _result(
        value, scale * tail / math.pi, (0.0, scale), evals, ok, derived, u_max=cfg.u_max
    )


def _branch_points(params: VgParams) -> tuple[float, float]:
    """(eta_-, eta_+): Phi(xi) is analytic for eta_- < Im xi < eta_+.

    See model._log_characteristic_fn for the factored form they come from.
    """
    gd = model.gamma_decomposition(params)
    return -1.0 / (params.nu * gd.mu_plus), 1.0 / (params.nu * gd.mu_minus)


def _contour_digital(shift: float, scale: float, params, market, derived, cfg) -> PriceResult:
    """scale P(X > x1), x1 = -k_rn, by the inversion (1/2pi) int e^{-i xi x1} Psi(xi)/(i xi) dxi,
    Psi(xi) = e^{shift omega tau} Phi(xi - i shift): the share measure's X for shift 1.

    The contour bends down when x1 >= 0; when x1 < 0 it bends up over the
    pole at 0 and adds its residue Psi(0) = 1.  Its apex lies between the pole
    and the nearest branch point of Psi, i (eta_pm + shift), at most half-way.
    """
    tau = market.tau
    x1 = -derived.rn_moneyness
    log_norm = shift * derived.omega * tau

    def F(xi):
        log_psi = model._log_characteristic_fn(params, xi - 1j * shift, tau)
        return np.exp(log_psi + log_norm - 1j * xi * x1) / (1j * xi)

    eta_minus, eta_plus = _branch_points(params)
    branch, residue = (eta_plus + shift, 1.0) if x1 < 0.0 else (eta_minus + shift, 0.0)
    value, evals, ok, estimate, floor = _contour_integral(
        F, x1, 0.0, branch, 2.0 * tau / params.nu, derived.sigma_nu, residue, cfg
    )
    return _result(
        scale * value, scale * estimate, (0.0, scale), evals, ok, derived,
        floor=scale * floor, u_max=cfg.u_max,
    )


def lewis_asset_or_nothing(
    params: VgParams, market: MarketInputs, cfg: Optional[FourierConfig] = None
) -> PriceResult:
    """Asset-or-nothing digital via the shifted characteristic function."""
    cfg = cfg or FourierConfig()
    derived = model.derive(params, market)
    if math.isinf(cfg.u_max):
        return _contour_digital(1.0, market.spot, params, market, derived, cfg)
    tau = market.tau
    omega = derived.omega

    def g(u):
        shifted = u - 1j
        phi = np.exp(1j * shifted * tau * omega) * model.characteristic_fn(
            params, shifted, tau
        )
        return phi / (1j * u)

    return _lewis_digital(g, market.spot, params, market, derived, cfg)


def lewis_cash_or_nothing(
    params: VgParams, market: MarketInputs, cfg: Optional[FourierConfig] = None
) -> PriceResult:
    """Cash-or-nothing digital via the risk-neutral characteristic function."""
    cfg = cfg or FourierConfig()
    derived = model.derive(params, market)
    tau = market.tau
    discount = math.exp(-derived.rate_effective * tau)
    if math.isinf(cfg.u_max):
        return _contour_digital(0.0, discount, params, market, derived, cfg)

    def g(u):
        return model.rn_characteristic_fn(params, u, tau) / (1j * u)

    return _lewis_digital(g, discount, params, market, derived, cfg)


def a_max(params: VgParams) -> float:
    """Square-integrability bound for the damping factor, symmetric model only.

    a_max = sqrt(2/nu)/sigma - 1.  For theta != 0 no closed bound is exposed;
    probe integrability directly through characteristic_fn at -(a+1)i.
    """
    if params.theta != 0.0:
        raise InvalidParameters(
            "a_max is only available for the symmetric model (theta = 0); "
            "verify integrability via characteristic_fn(-(a+1)i, tau) instead"
        )
    return math.sqrt(2.0 / params.nu) / params.sigma - 1.0


def _contour_call(a: float, params, market, derived, cfg) -> PriceResult:
    """European call K e^{-r tau} (1/2pi) int e^{-i xi x1} Phi(xi) / (-xi (xi + i)) dxi, x1 = -k_rn.

    Out of the money (x1 >= 0) the contour bends down from the damped line's
    point -i(1 + a), between the poles at 0 and -i and the branch point
    i eta_-.  In the money it bends up over both poles, whose residues add
    the forward intrinsic value S - K e^{-r tau}, with its apex between 0 and
    i eta_+, at most half-way.
    """
    tau = market.tau
    x1 = -derived.rn_moneyness
    discounted_strike = market.strike * math.exp(-derived.rate_effective * tau)
    intrinsic = market.spot - discounted_strike

    def F(xi):
        log_phi = model._log_characteristic_fn(params, xi, tau)
        return np.exp(log_phi - 1j * xi * x1) / (-xi * (xi + 1j))

    eta_minus, eta_plus = _branch_points(params)
    decay = 1.0 + 2.0 * tau / params.nu
    if x1 < 0.0:
        pole, branch, residue, apex = 0.0, eta_plus, intrinsic / discounted_strike, None
    else:
        pole, branch, residue, apex = -1.0, eta_minus, 0.0, -(1.0 + a)
    value, evals, ok, estimate, floor = _contour_integral(
        F, x1, pole, branch, decay, derived.sigma_nu, residue, cfg, apex
    )
    return _result(
        discounted_strike * value,
        discounted_strike * estimate,
        (max(0.0, intrinsic), market.spot),
        evals,
        ok,
        derived,
        floor=discounted_strike * floor,
        u_max=cfg.u_max,
        damping_a=a,
    )


def carr_madan_european(
    params: VgParams, market: MarketInputs, cfg: Optional[FourierConfig] = None
) -> PriceResult:
    """European call through the damped Fourier integral.

    The strike phase e^{-iu ln K} and the spot/drift phase of the
    characteristic function of log S_T are combined analytically, so the
    integrand oscillates on the slow risk-neutral-moneyness scale rather
    than on the ln K scale.
    """
    cfg = cfg or FourierConfig()
    a = cfg.damping_a
    derived = model.derive(params, market)
    tau = market.tau
    if params.theta == 0.0:
        bound = a_max(params)
        if not 0.0 < a < bound:
            raise DampingOutOfRangeError(
                f"damping factor a = {a!r} outside (0, a_max = {bound:.6g})"
            )
    elif not a > 0.0:
        raise DampingOutOfRangeError(f"damping factor a = {a!r} must be positive")
    else:
        try:
            model.characteristic_fn(params, -(a + 1.0) * 1j, tau)
        except BranchCutError as exc:
            raise DampingOutOfRangeError(
                f"damping factor a = {a!r} violates integrability: {exc}"
            ) from exc
    if math.isinf(cfg.u_max):
        return _contour_call(a, params, market, derived, cfg)
    k_rn = derived.rn_moneyness

    def g(u):
        z = u - (a + 1.0) * 1j
        denom = a * a + a - u * u + 1j * (2.0 * a + 1.0) * u
        return model.characteristic_fn(params, z, tau) / denom

    integral, evals, ok = _integrate(g, k_rn, 0.0, cfg.u_max, 1.0, cfg)
    log_scale = (
        -a * math.log(market.strike)
        - derived.rate_effective * tau
        + (a + 1.0) * (math.log(market.spot) + (derived.rate_effective + derived.omega) * tau)
    )
    tail = _tail_estimate(g, cfg.u_max, k_rn, 2.0 + 2.0 * tau / params.nu)
    intrinsic = market.spot - market.strike * math.exp(-derived.rate_effective * tau)
    return _result(
        math.exp(log_scale) * integral / math.pi,
        math.exp(log_scale) * tail / math.pi,
        (max(0.0, intrinsic), market.spot),
        evals,
        ok,
        derived,
        u_max=cfg.u_max,
        damping_a=a,
    )
