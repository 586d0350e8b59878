"""Fourier-integral benchmark pricers.

Digitals use the inversion of the risk-neutral characteristic function

    asset-or-nothing: S  (1/2 + (1/pi) int_0^umax Re[e^{iuk} PhiRN(u-i, tau)/(iu)] du)
    cash-or-nothing:  e^{-r tau} (1/2 + (1/pi) int_0^umax Re[e^{iuk} PhiRN(u, tau)/(iu)] du)

with k the log-forward moneyness; the measure shift is 1 for the asset digital
(scale S), 0 for the cash digital (scale e^{-r tau}).  Calls use the damped
integral: the call price in log-strike is multiplied by e^{a k_L} to make it
integrable, priced through the characteristic function of log S_T, and the
damping removed afterwards.  For every theta the damping a is admitted when
a > 0 and (1 + a) nu mu_+ < 1, that is while the damped line Im u = -(1 + a)
stays above the branch point i eta_-, eta_- = -1/(nu mu_+), of Phi: below
a_max = -eta_- - 1.  A damping the caller leaves unset is 1 where that admits
it, and a_max / 2 where the strip is narrower.  Each payoff only describes
its integrand; _contour_integral builds and prices it, and every branch point
comes from model._branch_points.

The default, u_max = inf, prices the untruncated integrals on a
sinh-deformed contour xi(y) = i w1 + b sinh(i w + y) (Boyarchenko and
Levendorskii, "Sinh-acceleration", 2019), where the trapezoid rule in y
converges exponentially: a few tens to a few hundred nodes per price.  The
contour bends into the half-plane where e^{-i xi x1}, x1 = -k_rn, decays.
Its apex sits at -i(1 + a) for an out-of-the-money call; elsewhere it is the
point of least |integrand| on the imaginary axis (Lord and Kahl, "Optimal
Fourier inversion in semi-analytical option pricing", 2007), no further than
half-way to the nearest branch point of Phi, or 1/2 from the pole where a
Gamma rate rounds to 0 and that branch point lies at infinity.  Bending up
over the pole at 0 (and -i for the call) adds its residue: 1 for a digital,
the forward intrinsic value for a call.  Phi is exp(-(tau/nu)
model._log_base), whose branch cuts, beyond model._branch_points, point away
from the contour.  The step halves until the change is below abs_tol, and
that change, plus a rounding floor and a bound on any arm cut at _Y_LIMIT,
is the truncation_estimate.

An explicit finite u_max keeps the integral from 0 to u_max: the contour
price minus the tail past u_max, times the price's scale over pi.  Every
singularity of the integrands lies on the imaginary axis, so the tail turns
onto the vertical ray from u_max, up when k_rn > 0 and down otherwise, where
e^{-i xi x1} decays.  Near the money the ray decays only like a power, so it
is integrated in a variable in which both decays are double-exponential, on
Gauss-Legendre panels whose count does not grow with u_max.  The estimate
adds the tail's size and the ray's last change; a ray short of abs_tol
flags the price.

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
from .errors import DampingOutOfRangeError, InvalidParameters
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
_CHUNK_NODES = 2**16
_CHUNK_PANELS = _CHUNK_NODES // len(_GL_NODES)  # panels evaluated at once: at most 2^16 nodes
_RAY_PANEL = 1.0  # widest first-pass tail panel: in u on the real line, in y on the ray
_RAY_T_MAX = 1e150  # farthest point of the ray from U
_LINE_PANELS = 2**12  # most first-pass panels on the real line before the ray
_HALF_PI = 0.5 * math.pi
_SQRT2 = math.sqrt(2.0)
_STEP = 0.2  # first trapezoid step in y on the contour
_Y_LIMIT = 600.0  # keeps b sinh(y) finite
_APEX_GRID = 24  # apex candidates, each 0.74 of the distance of the one before
_ROUNDING = 8.0 * 2.0**-52  # rounding floor per unit of summed magnitude


@dataclass(frozen=True)
class FourierConfig:
    """Integration controls: truncation point, damping, tolerance.

    u_max = inf (the default) prices the untruncated integral on a deformed
    contour; a finite u_max subtracts the integral's tail past u_max, taken
    on a vertical ray.  damping_a = None (the default) lets carr_madan_european
    take 1 where the strip admits it, and a_max / 2 where it is narrower.
    """

    u_max: float = math.inf
    damping_a: Optional[float] = None
    abs_tol: float = 1e-9

    def __post_init__(self):
        if not self.u_max > 0.0:
            raise InvalidParameters(f"u_max must be positive, got {self.u_max!r}")
        if not self.abs_tol > 0.0:
            raise InvalidParameters(f"abs_tol must be positive, got {self.abs_tol!r}")
        if not self.abs_tol < 1.0:  # the contour's drop ln(1/abs_tol) + 25 must stay positive
            raise InvalidParameters(f"abs_tol must be below 1, got {self.abs_tol!r}")


def _panel_integral(f, edges: np.ndarray, splits: int, n_panels: int) -> float:
    """32-point Gauss-Legendre sum over n_panels panels.

    Each interval between consecutive edges is split into `splits` equal
    panels, n_panels = splits * (len(edges) - 1).  Nodes are built and
    evaluated _CHUNK_PANELS panels at a time, so memory stays bounded for
    any panel count.  (vgbench/trace.py reads n_panels as positional argument 3.)
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


def _ray_tail(
    F, line: float, x1: float, toward: float, decay: float, heights, near: float,
    cfg: FourierConfig,
):
    """(1/pi) int_U^inf Re F(u + i line) du, U = u_max: on the real line to U0, then on a ray.

    F's singularities lie on the imaginary axis, at the heights given, so
    past U0 >= U the integral turns onto the ray xi = U0 + i line + i s t,
    t >= 0, as -(s/pi) int_0^inf Im F(xi) dt, with s = toward, the contour's
    bend (1 up, -1 down), where |e^{-i xi x1}| = e^{-|x1| t}.
    From U0 >= near, twice the distance of Phi's nearer branch point, |Phi|
    <= 1 on the ray; closer in it reaches (near / U)^(tau/nu) and cancels, so
    [U, U0] stays on the real line, in at most _LINE_PANELS panels narrower
    than _RAY_PANEL, a quarter period of e^{iu k_rn} and the nearest singularity.

    |F| also falls like t^-(1 + decay) past R, the farthest height.  In y,
    t = L exp((pi/2) sinh y), L = 1/(|x1| + 1/U0), both decays are double-
    exponential; y runs from t = L e^-D to where e^{-|x1| t} or (R / t)^decay
    is e^-D, D = ln(1/abs_tol) + 25, and t stops at _RAY_T_MAX.  What a ray cut
    there drops, about |F| t / decay, is added to the change, and abs_tol is
    not met.  A larger u_max is taken as _RAY_T_MAX: past it the integrand
    is below 1/u and oscillates at rate |k_rn|, or falls like u^-2 at k_rn = 0.

    32-point Gauss-Legendre panels, one per edge interval at first, are split
    in two until the change is below abs_tol.  Returns the integral, its last
    change, the evaluation count and whether abs_tol was met.
    """
    gaps = [abs(h - line) for h in heights if math.isfinite(h) and h != line]
    u_lo = min(cfg.u_max, _RAY_T_MAX)
    width = min(_RAY_PANEL, 0.5 * math.pi / abs(x1) if x1 else math.inf, *gaps)
    # near is inf when both Gamma rates round to 0 and the branch points lie at infinity
    n_line = math.ceil(min(max(0.0, near - u_lo) / width, _LINE_PANELS))
    u0 = u_lo + n_line * width
    length = 1.0 / (abs(x1) + 1.0 / u0)
    log_drop = math.log(1.0 / cfg.abs_tol) + 25.0
    z_end = math.log(max([length, *gaps]) / length) + log_drop / decay
    if x1:
        z_end = min(z_end, math.log(log_drop / (abs(x1) * length)))
    z_cap = math.log(_RAY_T_MAX / length)
    y_lo, y_hi = -math.asinh(log_drop / _HALF_PI), math.asinh(min(z_end, z_cap) / _HALF_PI)
    ray_edges = np.linspace(0.0, y_hi - y_lo, math.ceil((y_hi - y_lo) / _RAY_PANEL) + 1)
    edges = np.concatenate([width * np.arange(-n_line, 0), ray_edges])

    def f(p):
        """Re F(u0 + p + i line) for p < 0, then the ray at y = y_lo + p."""
        values = np.empty_like(p)
        on_line = p < 0.0
        values[on_line] = F(u0 + p[on_line] + 1j * line).real / math.pi
        y = y_lo + p[~on_line]
        t = length * np.exp(_HALF_PI * np.sinh(y))
        ray = F(u0 + 1j * (line + toward * t)).imag * t * _HALF_PI * np.cosh(y)
        values[~on_line] = (-toward / math.pi) * ray
        return values

    splits, n_panels = 1, len(edges) - 1
    value = _panel_integral(f, edges, splits, n_panels)
    evals = n_panels * len(_GL_NODES)
    for _ in range(_MAX_REFINEMENTS):
        splits *= 2
        n_panels *= 2
        refined = _panel_integral(f, edges, splits, n_panels)
        evals += n_panels * len(_GL_NODES)
        change = abs(refined - value)
        value = refined
        if change <= cfg.abs_tol:
            break
    met = change <= cfg.abs_tol
    if z_end > z_cap:
        end = F(u0 + 1j * (line + toward * _RAY_T_MAX))
        change += float(abs(end)) * _RAY_T_MAX / (decay * math.pi)
        evals, met = evals + 1, False
    return value, change, evals, met


# every numpy evaluation of a price (F, its sums and the ray tail) may overflow
# or give NaN, for instance at sigma < 1e-153: model._price_result refuses the result
@np.errstate(over="ignore", invalid="ignore")
def _contour_integral(
    params, tau, derived, cfg, shift, denominator, poles, residue, decay, scale, bounds,
    apex=None, line=0.0, **extra,
) -> PriceResult:
    """The price scale (residue + (1/2pi) int F(xi) dxi), xi(y) = i w1 + b sinh(i w + y), y real.

    F(xi) = e^{shift omega tau} Phi(xi - i shift) e^{-i xi x1} / denominator(xi),
    x1 = -k_rn, Phi from model._log_base, is singular only on the imaginary
    axis, at i poles and at the branch points i (eta_pm + shift), eta_pm from
    model._branch_points.  Only here is the bend decided, toward where
    e^{-i xi x1} decays: up (w = pi/4) when x1 < 0, over every pole and adding
    the residue, from the highest pole toward the upper branch point;
    otherwise down (w = -pi/4) from the lowest pole toward the lower one, at
    the apex given.  Unless it is given, the apex is where |F| is least on the
    imaginary axis (the choice of Lord and Kahl for the damping), searched on a
    geometric grid of _APEX_GRID points from half-way to the branch point down
    to 1e-3 of that distance from the pole, or from 1/2 where a Gamma rate
    that rounds to 0 puts the branch point at infinity.  At long maturities
    the half-way point would put |F| up to (4/3)^(tau/nu) on the contour, and
    the price would cancel from there.

    b is the largest value for which the hyperbolas at angles between 0
    and 2w, the images of the strip |Im y| < pi/4, cross the axis between
    pole and branch, so the trapezoid rule in y converges exponentially in
    1/h.  F(-conj xi) = conj F(xi), as for any real random variable, so only
    y >= 0 is evaluated.

    From its value at the apex, |F| falls by exp(-|x1| b |sin w| (cosh y - 1))
    from the oscillation (about exp(-|x1| (b/2) e^y |sin w|)), and Phi is at
    most (sigma_nu |Re xi|)^-decay, a power decay exp(-decay y); y stops where
    either bound has fallen by e^-L, L = ln(1/abs_tol) + 25, or at _Y_LIMIT.
    A stop at _Y_LIMIT adds the power bound on the arm it drops,
    (1/pi) (sigma_nu |Re xi|)^-decay / decay there, to the truncation_estimate,
    and a bound above abs_tol flags the price with a warning.
    The step starts at _STEP and halves, reusing the nodes, until the change
    is below abs_tol or the next pass would exceed _CHUNK_NODES nodes.
    The PriceResult counts the evaluations of F, and its truncation_estimate
    is the last change plus a rounding floor: _ROUNDING times the sum of the
    magnitudes added, within which a price past its bounds is clamped.

    The integral is (1/pi) int_0^inf Re F(u + i line) du plus the residue.  A
    finite u_max subtracts the part past u_max (_ray_tail, bent the same way)
    and adds its size, by which the price differs from the untruncated one,
    and its last change to the truncation_estimate.
    """
    x1 = -derived.rn_moneyness
    log_norm = shift * derived.omega * tau

    def F(xi):
        log_psi = -(tau / params.nu) * model._log_base(params, xi - 1j * shift)
        return np.exp(log_psi + log_norm - 1j * xi * x1) / denominator(xi)

    eta_minus, eta_plus = model._branch_points(params)
    heights = (eta_minus + shift, *poles, eta_plus + shift)
    if x1 < 0.0:
        toward, pole, branch, apex = 1.0, max(poles), heights[-1], None
    else:
        toward, pole, branch, residue = -1.0, min(poles), heights[0], 0.0
    evals = 0
    if apex is None:
        reach = branch - pole if math.isfinite(branch) else toward
        v = pole + 0.5 * reach * np.geomspace(1.0, 1e-3, _APEX_GRID)
        apex = float(v[np.argmin(np.abs(F(1j * v)))])
        evals += _APEX_GRID
    b = min(_SQRT2 * abs(apex - pole), abs(branch - apex) / (1.0 - 1.0 / _SQRT2))
    w = toward * math.pi / 4.0
    w1 = apex - toward * b / _SQRT2
    log_drop = math.log(1.0 / cfg.abs_tol) + 25.0
    # |Phi| <= (sigma_nu |Re xi|)^-decay and |Re xi| = b sinh(y) / sqrt 2
    t = math.log(_SQRT2 / (derived.sigma_nu * b)) + (log_drop + math.log1p(1.0 / decay)) / decay
    y_max = math.asinh(math.exp(t)) if t < 20.0 else t + math.log(2.0)
    oscillation = abs(x1) * b / _SQRT2
    if oscillation > 0.0:
        y_max = min(y_max, math.acosh(1.0 + log_drop / oscillation))
    cut, notes = 0.0, []
    if y_max > _Y_LIMIT:
        # (1/pi) int_Y^inf (sigma_nu |Re xi|)^-decay dy, |Re xi(Y)| = b e^Y / (2 sqrt 2)
        y_max = _Y_LIMIT
        log_re = math.log(derived.sigma_nu * b / (2.0 * _SQRT2)) + _Y_LIMIT
        cut = math.exp(-decay * log_re) / (decay * math.pi)
        if cut > cfg.abs_tol:
            notes.append(f"contour cut at y = {_Y_LIMIT:g} drops up to {scale * cut:.3g}")

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
    floor = _ROUNDING * (abs(residue) + magnitude)
    met = change <= cfg.abs_tol
    if math.isfinite(cfg.u_max):
        tail, tail_change, tail_evals, tail_met = _ray_tail(
            F, line, x1, toward, decay, heights, 2.0 * min(-eta_minus, eta_plus), cfg
        )
        value, change = value - tail, change + abs(tail) + tail_change
        evals, met = evals + tail_evals, met and tail_met
    return _result(
        scale * (residue + value), scale * (change + floor + cut), bounds, evals, met, derived,
        floor=scale * floor, notes=notes, u_max=cfg.u_max, **extra,
    )


def _result(
    value, truncation, bounds, evals, tolerance_met, derived, floor=0.0, notes=(), **extra
):
    """A Fourier PriceResult; a value outside its no-arbitrage bounds is flagged, not changed,
    unless it is within its rounding floor of them: then it is set to the bound it crossed.
    Any of notes, the reasons beyond the refinement budget that a price misses abs_tol,
    flags it too.  model._price_result refuses a number that is not finite."""
    lower, upper = bounds
    if lower - floor <= value <= upper + floor:
        value = min(max(value, lower), upper)
    warnings = list(notes)
    if not tolerance_met:
        warnings.insert(0, "abs_tol not reached within refinement budget")
    if not lower <= value <= upper:
        warnings.append(
            f"price {value:.6g} outside its no-arbitrage bounds [{lower:.6g}, {upper:.6g}]"
        )
    return model._price_result(
        "fourier", value, evals, truncation, derived.branch,
        {"tolerance_met": not warnings, **extra}, warnings,
    )


def _digital(shift: float, params, market, cfg) -> PriceResult:
    """scale P(X > x1), x1 = -k_rn, by the inversion (1/2pi) int e^{-i xi x1} Psi(xi)/(i xi) dxi,
    Psi(xi) = e^{shift omega tau} Phi(xi - i shift): the share measure's X for shift 1.

    Shift 1 is the asset-or-nothing digital, worth between 0 and scale S;
    shift 0 the cash-or-nothing digital, scale e^{-r tau}.  Its one pole is
    at 0, with residue Psi(0) = 1 when the contour bends up over it.  At a
    finite u_max it is scale (1/2 + (1/pi) int_0^umax Re[e^{iu k_rn} Psi(u)/(iu)] du).
    """
    cfg = cfg or FourierConfig()
    derived = model.derive(params, market)
    tau = market.tau
    scale = market.spot if shift else derived.discount
    return _contour_integral(
        params, tau, derived, cfg, shift, lambda xi: 1j * xi, (0.0,), 1.0, 2.0 * tau / params.nu,
        scale, (0.0, scale),
    )


def lewis_asset_or_nothing(
    params: VgParams, market: MarketInputs, cfg: Optional[FourierConfig] = None
) -> PriceResult:
    """Asset-or-nothing digital via the shifted characteristic function."""
    return _digital(1.0, params, market, cfg)


def lewis_cash_or_nothing(
    params: VgParams, market: MarketInputs, cfg: Optional[FourierConfig] = None
) -> PriceResult:
    """Cash-or-nothing digital via the risk-neutral characteristic function."""
    return _digital(0.0, params, market, cfg)


def a_max(params: VgParams) -> float:
    """Largest damping factor: -eta_- - 1 = 1/(nu mu_+) - 1, eta_- from model._branch_points,
    for every theta; carr_madan_european admits a > 0 with (1 + a) nu mu_+ < 1, that is
    below it.  inf where mu_+ rounds to 0, and every a is admitted."""
    return -model._branch_points(params)[0] - 1.0


def carr_madan_european(
    params: VgParams, market: MarketInputs, cfg: Optional[FourierConfig] = None
) -> PriceResult:
    """European call through the damped Fourier integral.

    The strike phase e^{-iu ln K} and the spot/drift phase of the
    characteristic function of log S_T are combined analytically, so the
    integrand oscillates on the slow risk-neutral-moneyness scale rather
    than on the ln K scale.

    On the contour it is K e^{-r tau} (1/2pi) int e^{-i xi x1} Phi(xi) / (-xi (xi + i)) dxi,
    x1 = -k_rn.  Its poles are at 0 and -i; over both, their residues add the
    forward intrinsic value S - K e^{-r tau}.  Out of the money the contour
    bends down from the damped line's point -i(1 + a).

    For every theta the damping a is admitted when a > 0 and (1 + a) nu mu_+ < 1,
    while the damped line Im u = -(1 + a) stays above eta_- = -1/(nu mu_+); a
    product, as mu_+ rounds to 0 at tiny sigma with theta < 0.  An unset a is 1
    unless the strip is finite and refuses it, and then half-way to a_max.
    """
    cfg = cfg or FourierConfig()
    derived = model.derive(params, market)
    tau = market.tau
    mu_plus = model.gamma_decomposition(params).mu_plus
    a = cfg.damping_a
    if a is None:
        a = 0.5 * a_max(params) if 1.0 <= 2.0 * params.nu * mu_plus < math.inf else 1.0
    reach = (1.0 + a) * params.nu * mu_plus
    if not (a > 0.0 and reach < 1.0):
        raise DampingOutOfRangeError(
            f"damping factor a = {a!r} must be positive with (1 + a) nu mu_+ = {reach:.6g} below 1"
        )
    intrinsic = market.spot - derived.forward_strike
    return _contour_integral(
        params, tau, derived, cfg, 0.0, lambda xi: -xi * (xi + 1j), (-1.0, 0.0),
        intrinsic / derived.forward_strike, 1.0 + 2.0 * tau / params.nu, derived.forward_strike,
        (max(0.0, intrinsic), market.spot), apex=-(1.0 + a), line=-(1.0 + a), damping_a=a,
    )
