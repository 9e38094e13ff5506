"""Derivative valuation from (maturity, barrier)-bond prices.

European payoffs on the terminal loss level price through the integral
decomposition h(L_T) = h(1) - int_0^1 h'(y) 1{L_T <= y} dy, which turns the
claim into a portfolio of barrier bonds. Single-tranche values combine the
coupon annuity with a terminal-minus-initial bond difference plus a risk-free
accrual integral; the closed form assumes the risk-free curve is independent
of the loss process, and quotes carry a flag recording whether the scenario
satisfies that assumption. All barrier integrals run piecewise between grid
knots and declared payoff kinks so the quadrature never straddles a jump.

The bond exponent int_t^T f(t,u,y) du is a trapezoid sum, linear in the
surface values, and a barrier query y mixes at most two stored columns
through ``barrier_weights(y)``. So each pricer builds one table up front,
``ForwardSurface.column_integrals`` at every date it needs (coupon dates,
effective date, accrual cells), and each integrand evaluation is a weighted
sum of at most two columns and an ``exp``. ``bond_price`` and
``maturity_integral`` stay scalar, with their own summation order: the
martingale test's time-zero reference and the engine's deterministic rate
table use them, and seeded reports must not move. The table agrees with
them to rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import (
    ConfigError,
    DegenerateAnnuityError,
    QuadratureError,
)
# bond_price is not called here; the name stays because perfbench/tracing.py
# wraps pricing.bond_price.
from .hjm import (  # noqa: F401
    ForwardSurface, _check_valuation, bond_price, mix_columns)

__all__ = [
    "TranchePayoff",
    "StcdoQuote",
    "price_european",
    "stcdo_value",
    "par_spread",
]

_QUAD_TOL = 1e-8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


@dataclass(frozen=True)
class TranchePayoff:
    """A loss tranche with detachment points x1 < x2 and coupon dates.

    ``H(x) = (x2 - x)^+ - (x1 - x)^+`` is the outstanding tranche notional at
    loss level x: the full width x2 - x1 before losses reach the tranche,
    linearly amortized to zero across (x1, x2]. ``effective_date`` is the
    start of protection; ``None`` means the valuation time.
    """

    x1: float
    x2: float
    coupon_dates: tuple
    effective_date: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.x1 < self.x2 <= 1.0:
            raise ConfigError(
                f"detachment points must satisfy 0 <= x1 < x2 <= 1, "
                f"got ({self.x1}, {self.x2})"
            )
        dates = tuple(float(T) for T in self.coupon_dates)
        if not dates:
            raise ConfigError("a tranche needs at least one coupon date")
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ConfigError("coupon dates must be strictly increasing")
        object.__setattr__(self, "coupon_dates", dates)
        if self.effective_date is not None \
                and self.effective_date >= dates[0]:
            raise ConfigError(
                f"effective date {self.effective_date} must precede the "
                f"first coupon date {dates[0]}"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def kinks(self) -> tuple:
        """Points where H is not differentiable."""
        return (self.x1, self.x2)

    def H(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip(self.x2 - x, 0.0, None) - np.clip(self.x1 - x, 0.0, None)
        return float(out) if out.ndim == 0 else out

    def H_prime(self, y):
        """dH/dx away from the kinks: -1 inside (x1, x2), 0 outside."""
        y = np.asarray(y, dtype=float)
        out = np.where((y > self.x1) & (y < self.x2), -1.0, 0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StcdoQuote:
    """Value and leg breakdown of a single-tranche position.

    value = spread * annuity + protection_value, where protection_value
    collects the terminal-minus-initial bond difference and the risk-free
    accrual integral (the investor's loss coverage, negative when the tranche
    bears risk). ``model_consistent`` is False when the scenario violates the
    closed form's independence assumption between the risk-free curve and
    the loss process.
    """

    t: float
    spread: float
    value: float
    annuity: float
    payment_leg: float
    protection_value: float
    accrual_integral: float
    error_estimate: float
    model_consistent: bool = True


def _checked_quad(fn: Callable, a: float, b: float,
                  epsabs: float) -> tuple:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = quad(fn, a, b, epsabs=epsabs, epsrel=1e-10, limit=200,
                       full_output=1)
        except Warning as exc:
            raise QuadratureError(
                f"quadrature on [{a}, {b}] did not converge: {exc}"
            ) from None
    if len(out) > 3:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge: {out[3]}"
        )
    return out[0], out[1]


def _piecewise_quad(fn: Callable, a: float, b: float, interior: Sequence,
                    epsabs: float = _QUAD_TOL) -> tuple:
    """Integrate fn over [a, b], splitting at the interior knots.

    The knots mark jumps or kinks of the integrand (barrier-grid nodes, the
    current loss level, payoff kinks); each closed piece is smooth, so the
    adaptive rule converges fast and the error estimates are trustworthy.
    """
    pts = np.asarray(sorted(set(float(p) for p in interior)), dtype=float)
    pts = pts[(pts > a + 1e-14) & (pts < b - 1e-14)]
    edges = np.concatenate([[a], pts, [b]])
    total, err = 0.0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _checked_quad(fn, lo, hi, epsabs=epsabs / max(len(edges) - 1, 1))
        total += v
        err += e
    return total, err


def _mix(surface: ForwardSurface, table: np.ndarray, y: float) -> np.ndarray:
    """A per-column table (columns on the last axis) at barrier query y."""
    return mix_columns(surface.barrier_weights(y), lambda j: table[..., j])


def price_european(surface: ForwardSurface, ell: float, t: float, T: float,
                   h: Callable, h_prime: Callable,
                   kinks: Sequence = ()) -> float:
    """Price of a European claim paying h(L_T) at T.

    Decomposes the payoff into barrier bonds:
    h(1) P(t,T) - int_0^1 h'(y) P(t,T,y) dy. ``h`` must be absolutely
    continuous on [0, 1]; points where h' jumps are declared via ``kinks``
    so the barrier integral never crosses them.
    """
    _check_valuation(surface, ell, t)
    expo = surface.column_integrals([T])[1][0]
    riskfree = math.exp(-expo[-1])
    knots = list(surface.barriers) + list(kinks) + [ell]

    def integrand(y: float) -> float:
        price = 0.0 if ell > y else math.exp(-_mix(surface, expo, y))
        return float(h_prime(y)) * price

    integral, _ = _piecewise_quad(integrand, 0.0, 1.0, knots)
    return float(h(1.0)) * riskfree - integral


def _accrual_cells(cells: np.ndarray, F: np.ndarray, I: np.ndarray) -> tuple:
    """Gauss-Legendre nodes of int_{T0}^{Tn} f(t,u,1) P(t,u,y) du, per column.

    ``cells`` are the live maturity knots between T0 and Tn with both ends,
    strictly increasing, and ``F`` and ``I`` the ``column_integrals`` rows
    at them. The curves are linear in maturity on each cell, so every bond
    exponent is quadratic there and the cell integrand is analytic: six
    fixed Gauss-Legendre nodes per cell integrate it far below the outer
    quadrature tolerance.
    Returns ``expo`` (cells, 6, columns), the exponent of every stored
    column at the nodes, and ``wts`` (cells, 6), the x = 1 forward rate
    times the node weights, so that the accrual at barrier y is
    sum(wts * exp(-expo mixed at y)).
    """
    h = np.diff(cells)
    offs = np.outer(h, 0.5 * (_GL_NODES + 1.0))[:, :, None]
    slope = (F[1:] - F[:-1]) / h[:, None]
    expo = I[:-1, None, :] + F[:-1, None, :] * offs \
        + 0.5 * slope[:, None, :] * offs ** 2
    f1 = F[:-1, None, -1] + slope[:, None, -1] * offs[:, :, 0]
    return expo, f1 * _GL_WEIGHTS * (0.5 * h)[:, None]


def stcdo_value(surface: ForwardSurface, ell: float, t: float,
                tranche: TranchePayoff, spread: float,
                model_consistent: bool = True) -> StcdoQuote:
    """Closed-form value of a single-tranche position at swap rate ``spread``.

    V(t,S) = int over (x1,x2] of [ S sum_i P(t,T_i,y) + P(t,T_n,y)
    - P(t,T_0,y) + int_{T0}^{Tn} f(t,u) P(t,u,y) du ] dy, with T_0 the
    effective date. Valid when the risk-free curve and the loss process are
    independent; pass ``model_consistent=False`` to mark quotes from
    scenarios that violate that assumption.
    """
    T0 = t if tranche.effective_date is None else float(tranche.effective_date)
    dates = np.asarray(tranche.coupon_dates)
    horizon = float(surface.maturities[-1])
    if T0 < t - 1e-12:
        raise ConfigError(
            f"effective date {T0} precedes the valuation time {t}"
        )
    if dates[-1] > horizon + 1e-12:
        raise ConfigError(
            f"coupon date {dates[-1]} is beyond the surface horizon {horizon}"
        )
    _check_valuation(surface, ell, t)
    Ts = surface.maturities
    Tn = float(dates[-1])
    cells = np.unique(np.concatenate([[T0, Tn], Ts[(Ts > T0) & (Ts < Tn)]]))
    F, I = surface.column_integrals(np.concatenate([dates, cells]))
    n = len(dates)
    coupon_expo = I[:n]
    ends_expo = I[[n, -1]]       # T0 and Tn
    accrual_expo, accrual_wts = _accrual_cells(cells, F[n:], I[n:])
    knots = list(surface.barriers) + [ell]

    def annuity_fn(y: float) -> float:
        if ell > y:
            return 0.0
        return float(np.sum(np.exp(-_mix(surface, coupon_expo, y))))

    def static_fn(y: float) -> float:
        if ell > y:
            return 0.0
        p0, pn = np.exp(-_mix(surface, ends_expo, y))
        return float(pn - p0)

    def accrual_fn(y: float) -> float:
        if ell > y:
            return 0.0
        return float(np.sum(
            accrual_wts * np.exp(-_mix(surface, accrual_expo, y))))

    annuity, e1 = _piecewise_quad(annuity_fn, tranche.x1, tranche.x2, knots)
    static, e2 = _piecewise_quad(static_fn, tranche.x1, tranche.x2, knots)
    accrual, e3 = _piecewise_quad(accrual_fn, tranche.x1, tranche.x2, knots)
    protection = static + accrual
    return StcdoQuote(
        t=t,
        spread=float(spread),
        value=float(spread) * annuity + protection,
        annuity=annuity,
        payment_leg=float(spread) * annuity,
        protection_value=protection,
        accrual_integral=accrual,
        error_estimate=e1 * abs(spread) + e2 + e3,
        model_consistent=model_consistent,
    )


def par_spread(surface: ForwardSurface, ell: float, t: float,
               tranche: TranchePayoff,
               model_consistent: bool = True) -> float:
    """The swap rate S* that makes the tranche value zero.

    S* = -protection_value / annuity. A wiped-out tranche (every barrier in
    (x1, x2] already crossed) has no coupon stream left to balance the legs.
    """
    quote = stcdo_value(surface, ell, t, tranche, 0.0,
                        model_consistent=model_consistent)
    if abs(quote.annuity) <= 1e-14:
        raise DegenerateAnnuityError(
            f"tranche annuity {quote.annuity:.3e} is degenerate "
            f"(loss level {ell} against detachments "
            f"({tranche.x1}, {tranche.x2}))"
        )
    return -quote.protection_value / quote.annuity
