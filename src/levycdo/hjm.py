"""Forward-curve core: coefficient bundles, surfaces, bonds, and the two
no-arbitrage conditions.

The model state is the forward surface f(t, T, x) for maturities T on a
fixed grid and barriers x on a fixed grid whose last entry is exactly 1.
Pre-default bond prices are exponentials of maturity integrals of f; the
traded (T, x)-bond multiplies that by the barrier indicator.

Two drift conditions tie the surface to the driving noise:

* the integrated drift condition pins a*(t, s, x) = int_t^s a(t, u, x) du to
  the cumulant of the volatility integral plus a contagion correction
  (``dc1_drift``); its maturity derivative is the pointwise drift used by
  simulation (``dc1_drift_pointwise``);
* the diagonal condition pins f(t, t, x) to the risk-free short rate plus
  the barrier-crossing intensity (``dc2_short_rate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.integrate import quad, quad_vec

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    GridError,
    QuadratureError,
    StateError,
)
from .levy import LevyTriplet, laplace_exponent, laplace_gradient
from .loss import LossCompensatorSpec, intensity_lambda

__all__ = [
    "SeparableComponent",
    "CoefficientSpec",
    "ForwardSurface",
    "BondQuote",
    "b_star",
    "c_star",
    "riskfree_drift",
    "dc1_drift",
    "dc1_drift_pointwise",
    "dc2_short_rate",
    "bond_price",
]

_T_SNAP = 1e-12

_trapz = getattr(np, "trapezoid", None) or np.trapz


def _node_index(grid: np.ndarray, t: float) -> Optional[int]:
    """Index of the grid node within snapping distance of t, else None."""
    j = int(np.searchsorted(grid, t))
    for cand in (j - 1, j):
        if 0 <= cand < len(grid) and abs(grid[cand] - t) <= _T_SNAP:
            return cand
    return None


@dataclass(frozen=True)
class SeparableComponent:
    """One separable piece of the x = 1 volatility: b adds phi(t) * psi(T).

    ``phi`` takes a scalar time or a 1-d array of E times and returns a
    (d,) vector or an (E, d) array; ``psi`` maps maturities to scalar
    shapes; ``psi_integral(a, b)`` is the exact integral of psi over
    [a, b] and broadcasts over arrays of a and of b. The decomposition lets
    the simulation track the short rate without ever interpolating the
    maturity grid toward the diagonal, and the array forms let it apply a
    batch of driver jumps at once.
    """

    phi: Callable
    psi: Callable[[np.ndarray], np.ndarray]
    psi_integral: Callable


@dataclass(frozen=True)
class CoefficientSpec:
    """Volatility, contagion, and drift of the forward surface.

    ``b(t, T, x, ell)`` returns the (d,) volatility loading; ``c(t, T, x, y,
    ell)`` the contagion jump for a loss of size y. ``drift`` is either the
    tag ``"no_arbitrage"`` (drift generated from the integrated condition),
    the tag ``"zero"``, or a user callable a(t, T, x, ell).

    Optional exact maturity integrals make b*, c* quadrature-free; the named
    scenario families always provide them. ``b_components`` is the separable
    decomposition of b at x = 1. ``b_vectorized`` promises that b and c (and
    the integrals) broadcast over an array of maturities, and that c and
    ``c_integral`` also broadcast a column of times (E, 1) against it, so
    the engine evaluates a batch of loss events in one call; ``b_x_flat``
    promises that b does not depend on the barrier at all, so the x = 1
    decomposition describes every slice. ``SurfaceEngine`` requires
    ``b_components`` and ``b_x_flat`` (and loss-independent b); the
    pointwise drifts and bond functions here accept any b.
    """

    dimension: int
    b: Callable
    c: Callable
    drift: Union[str, Callable] = "no_arbitrage"
    b_integral: Optional[Callable] = None
    c_integral: Optional[Callable] = None
    b_components: Optional[tuple] = None
    b_loss_dependent: bool = True
    b_vectorized: bool = False
    b_x_flat: bool = False
    b_bound: float = 1e4
    c_bound: float = 200.0

    def __post_init__(self):
        if isinstance(self.drift, str) and self.drift not in ("no_arbitrage", "zero"):
            raise ConfigError(f"unknown drift tag {self.drift!r}")
        # The contagion loading on the whole-portfolio slice must vanish:
        # a (T, 1)-bond is loss-insensitive. Probe a few points.
        for t, s, y in ((0.0, 0.5, 0.1), (0.3, 2.0, 0.4)):
            val = float(np.asarray(self.c(t, s, 1.0, y, 0.0)))
            if abs(val) > 1e-12:
                raise ConfigError(
                    f"contagion coefficient must vanish at x = 1, got {val} "
                    f"at (t={t}, T={s}, y={y})"
                )

    def eval_c(self, t, T, x, y, ell):
        """Contagion coefficient with the x = 1 short-circuit applied."""
        if x >= 1.0:
            return np.zeros_like(np.asarray(T, dtype=float))
        return self.c(t, T, x, y, ell)


def b_star(coeffs: CoefficientSpec, t: float, s: float, x: float,
           ell: float) -> np.ndarray:
    """Volatility maturity integral int_t^s b(t, u, x, ell) du.

    Zero for s <= t (coefficients vanish for matured dates). Uses the
    spec's exact integral when available, else adaptive quadrature at
    tolerance 1e-10.
    """
    if s <= t:
        return np.zeros(coeffs.dimension)
    if coeffs.b_integral is not None:
        return np.asarray(coeffs.b_integral(t, t, s, x, ell), dtype=float)
    val, err = quad_vec(lambda u: np.asarray(coeffs.b(t, u, x, ell), dtype=float),
                        t, s, epsabs=1e-12, epsrel=1e-10)
    if np.max(np.abs(err)) > 1e-9:
        raise QuadratureError(f"volatility integral error {np.max(np.abs(err)):.2e}")
    return val


def c_star(coeffs: CoefficientSpec, t: float, s: float, x: float, y: float,
           ell: float) -> float:
    """Contagion maturity integral int_t^s c(t, u, x, y, ell) du."""
    if s <= t or x >= 1.0:
        return 0.0
    if coeffs.c_integral is not None:
        return float(np.asarray(coeffs.c_integral(t, t, s, x, y, ell)))
    val, err = quad(lambda u: float(coeffs.c(t, u, x, y, ell)), t, s,
                    epsabs=1e-12, limit=200)
    if err > 1e-9:
        raise QuadratureError(f"contagion integral error {err:.2e}")
    return val


def riskfree_drift(b_star_fn: Callable, triplet: LevyTriplet) -> Callable:
    """Lift a volatility integral to the risk-free drift integral.

    Given b*(t, s) for the whole-portfolio slice, returns the function
    a*(t, s) = J(b*(t, s)). DomainError from J propagates with the offending
    (t, s) attached.
    """

    def a_star(t: float, s: float) -> float:
        v = np.asarray(b_star_fn(t, s), dtype=float)
        try:
            return laplace_exponent(v, triplet)
        except DomainError as exc:
            raise DomainError(f"{exc} (at t={t}, s={s})") from None

    return a_star


def _effective_atoms(loss_spec: Optional[LossCompensatorSpec], t: float,
                     ell: float):
    if loss_spec is None:
        return np.empty(0), np.empty(0)
    return loss_spec.effective_atoms(t, ell)


def dc1_drift(coeffs: CoefficientSpec, loss_spec: Optional[LossCompensatorSpec],
              triplet: LevyTriplet, t: float, s: float, x: float,
              ell: float) -> float:
    """Integrated no-arbitrage drift a*(t, s, x) for the x-slice.

    a* = J(b*(t,s,x)) + sum over in-support marks y of
         w_y(t, ell) * (exp(-c*(t,s,x;y)) - 1) * 1{ell + y <= x}.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"barrier must lie in [0, 1], got {x}")
    if ell > x:
        raise StateError(f"slice x={x} is already crossed at loss {ell}")
    v = b_star(coeffs, t, s, x, ell)
    try:
        out = laplace_exponent(v, triplet)
    except DomainError as exc:
        raise DomainError(f"{exc} (at t={t}, s={s}, x={x})") from None
    ys, ws = _effective_atoms(loss_spec, t, ell)
    for y, w in zip(ys, ws):
        if ell + y <= x:
            out += w * (np.exp(-c_star(coeffs, t, s, x, y, ell)) - 1.0)
    return float(out)


def dc1_drift_pointwise(coeffs: CoefficientSpec,
                        loss_spec: Optional[LossCompensatorSpec],
                        triplet: LevyTriplet, t: float, T: float, x: float,
                        ell: float) -> float:
    """Maturity-pointwise drift a(t, T, x): the T-derivative of dc1_drift.

    a = <grad J(b*(t,T,x)), b(t,T,x)>
        - sum_y w_y * c(t,T,x;y) * exp(-c*(t,T,x;y)) * 1{ell + y <= x}.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"barrier must lie in [0, 1], got {x}")
    if ell > x:
        raise StateError(f"slice x={x} is already crossed at loss {ell}")
    v = b_star(coeffs, t, T, x, ell)
    bvec = np.asarray(coeffs.b(t, T, x, ell), dtype=float)
    out = float(laplace_gradient(v, triplet) @ bvec)
    ys, ws = _effective_atoms(loss_spec, t, ell)
    for y, w in zip(ys, ws):
        if ell + y <= x:
            cval = float(np.asarray(coeffs.eval_c(t, T, x, y, ell)))
            out -= w * cval * np.exp(-c_star(coeffs, t, T, x, y, ell))
    return out


@dataclass
class BondQuote:
    """A (T, x)-bond quote: price = alive indicator times pre-default part."""

    t: float
    maturity: float
    barrier: float
    price: float
    predefault: float
    alive: bool


def mix_columns(weights, column):
    """A barrier query's value from stored barrier columns: the one mix rule.

    ``weights`` is the (indices, weights) pair of
    ``ForwardSurface.barrier_weights`` and ``column(j)`` returns stored
    column j. A query on one grid barrier gets ``column(j)`` itself (its
    weight is 1.0), two get ``w0 * column(j0) + w1 * column(j1)``.
    """
    idx, wts = weights
    if len(idx) == 1:
        return column(idx[0])
    return wts[0] * column(idx[0]) + wts[1] * column(idx[1])


@dataclass
class ForwardSurface:
    """Forward rates on a (maturity, barrier) grid at one observation time.

    ``values[g, i]`` is f(t, maturities[g], barriers[i]). ``diagonal`` holds
    f(t, t, x_i) when known (simulation emits it; it anchors the left end of
    maturity integrals when t falls strictly inside a grid cell).

    ``x_interp`` selects how barrier queries between grid points resolve:
    ``"linear"`` interpolates, ``"left"`` uses the nearest grid point to the
    left (exact for surfaces that are step functions of the barrier). Both
    modes extend the first column constantly below the lowest barrier.
    Off-grid queries raise GridError when ``interpolate`` is False.
    """

    maturities: np.ndarray
    barriers: np.ndarray
    values: np.ndarray
    t: float = 0.0
    diagonal: Optional[np.ndarray] = None
    x_interp: str = "linear"
    interpolate: bool = True

    def __post_init__(self):
        self.maturities = np.asarray(self.maturities, dtype=float)
        self.barriers = np.asarray(self.barriers, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.maturities.ndim != 1 or len(self.maturities) < 2:
            raise GridError("maturity grid must be 1-d with at least two nodes")
        if np.any(np.diff(self.maturities) <= 0):
            raise GridError("maturity grid must be strictly increasing")
        if self.barriers.ndim != 1 or np.any(np.diff(self.barriers) <= 0):
            raise GridError("barrier grid must be 1-d and strictly increasing")
        if self.barriers[-1] != 1.0:
            raise GridError(
                f"last barrier must be exactly 1.0, got {self.barriers[-1]!r}"
            )
        if self.barriers[0] <= 0.0:
            raise GridError("barriers must be positive")
        if self.values.shape != (len(self.maturities), len(self.barriers)):
            raise DimensionError(
                f"surface values must have shape {(len(self.maturities), len(self.barriers))}, "
                f"got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("surface values must be finite")
        if self.x_interp not in ("linear", "left"):
            raise ConfigError(f"unknown barrier interpolation {self.x_interp!r}")
        if self.diagonal is not None:
            self.diagonal = np.asarray(self.diagonal, dtype=float)
            if self.diagonal.shape != (len(self.barriers),):
                raise DimensionError("diagonal must align with the barrier grid")

    @classmethod
    def from_function(cls, f0: Callable, maturities, barriers, **kw):
        """Tabulate f0(T, x) on the given grids as a time-0 surface."""
        Ts = np.asarray(maturities, dtype=float)
        xs = np.asarray(barriers, dtype=float)
        vals = np.empty((len(Ts), len(xs)))
        diag = np.empty(len(xs))
        for i, x in enumerate(xs):
            vals[:, i] = np.asarray(f0(Ts, float(x)), dtype=float)
            diag[i] = float(np.asarray(f0(np.array([0.0]), float(x)))[0])
        return cls(maturities=Ts, barriers=xs, values=vals, diagonal=diag, **kw)

    def barrier_weights(self, x: float):
        """Resolve a barrier query to grid indices and convex weights."""
        if not 0.0 <= x <= 1.0:
            raise GridError(f"barrier query must lie in [0, 1], got {x}")
        xs = self.barriers
        j = int(np.searchsorted(xs, x))
        if j < len(xs) and abs(xs[j] - x) <= 1e-14:
            return (j,), (1.0,)
        if not self.interpolate:
            raise GridError(f"barrier {x} is off-grid and interpolation is disabled")
        if j == 0:
            return (0,), (1.0,)  # constant extension below the lowest barrier
        if self.x_interp == "left":
            return (j - 1,), (1.0,)
        w = (x - xs[j - 1]) / (xs[j] - xs[j - 1])
        return (j - 1, j), (1.0 - w, w)

    def forward_at(self, T: float, x: float) -> float:
        """f(t, T, x) with linear interpolation in maturity."""
        Ts = self.maturities
        if not Ts[0] - _T_SNAP <= T <= Ts[-1] + _T_SNAP:
            raise GridError(f"maturity {T} outside the grid span")
        col = mix_columns(self.barrier_weights(x), lambda j: self.values[:, j])
        return float(np.interp(T, Ts, col))

    def _live_rows(self):
        """Maturity knots for T >= t and every stored column on them.

        Row 0 is the stored node value when the observation time sits on a
        grid node, else the diagonal anchor at t.
        """
        Ts = self.maturities
        keep = Ts > self.t + _T_SNAP
        node = _node_index(Ts, self.t)
        if node is not None:
            return (np.concatenate([[Ts[node]], Ts[keep]]),
                    np.vstack([self.values[node], self.values[keep]]))
        if self.diagonal is None:
            raise GridError(
                "maturity integral needs a diagonal anchor: the observation "
                "time is off the maturity grid and no diagonal is stored"
            )
        return (np.concatenate([[self.t], Ts[keep]]),
                np.vstack([self.diagonal, self.values[keep]]))

    def _live_curve(self, x_idx_weights):
        """Maturity knots and values for T >= t, diagonal-anchored."""
        knots, rows = self._live_rows()
        return knots, mix_columns(x_idx_weights, lambda j: rows[:, j])

    def column_integrals(self, dates, columns=slice(None)):
        """Forward values and maturity integrals of stored barrier columns.

        Returns (F, I), each of shape (len(dates), number of columns):
        F[k, j] = f(t, dates[k], x_j), linear in maturity between the knots
        of the live curve (those of ``maturity_integral``, anchored at the
        diagonal off the grid), and I[k, j] = int_t^{dates[k]} of it: the
        cumulative trapezoid over the knots plus the exact integral of the
        linear interpolant from the last knot before an off-knot date.
        ``columns`` indexes the barrier grid.

        Both are linear in the surface values, and a barrier query y mixes
        stored columns only through ``barrier_weights(y)``, so
        sum_j w_j(y) I[k, j] is ``maturity_integral(t, dates[k], y)`` up to
        rounding. One table therefore prices bonds at every barrier.
        """
        u = np.atleast_1d(np.asarray(dates, dtype=float))
        if u.size and u.min() < self.t - _T_SNAP:
            raise DomainError(
                f"maturity {u.min()} precedes observation time {self.t}")
        if u.size and u.max() > self.maturities[-1] + _T_SNAP:
            raise GridError(f"maturity {u.max()} beyond the grid span")
        knots, rows = self._live_rows()
        h = np.diff(knots)
        j = np.clip(np.searchsorted(knots, u, side="right") - 1, 0,
                    max(len(knots) - 2, 0))
        off = u - knots[j]
        below, above = u <= knots[0], u >= knots[-1]
        F, I = [], []
        for col in rows[:, columns].T:
            # np.interp's arithmetic, reusing the one search for the cell;
            # the appended zero slope lets a one-knot curve index it
            slope = np.append((col[1:] - col[:-1]) / h, 0.0)
            f = np.where(below, col[0],
                         np.where(above, col[-1], slope[j] * off + col[j]))
            cum = np.concatenate([[0.0], np.cumsum(h * (col[1:] + col[:-1])
                                                   / 2.0)])
            F.append(f)
            I.append(cum[j] + off * (col[j] + f) / 2.0)
        return np.column_stack(F), np.column_stack(I)

    def maturity_integral(self, a: float, b: float, x: float) -> float:
        """int_a^b f(t, u, x) du by the trapezoid rule on the live grid."""
        if b < a:
            raise DomainError(f"empty maturity interval [{a}, {b}]")
        if a < self.t - _T_SNAP:
            raise DomainError(f"integral starts at {a}, before observation time {self.t}")
        if b > self.maturities[-1] + _T_SNAP:
            raise GridError(f"maturity {b} beyond the grid span")
        if b - a <= _T_SNAP:
            return 0.0
        knots, vals = self._live_curve(self.barrier_weights(x))
        lo = np.clip(np.searchsorted(knots, a, side="right"), 1, len(knots) - 1)
        hi = np.clip(np.searchsorted(knots, b, side="left"), 1, len(knots) - 1)
        pts = np.concatenate([[a], knots[lo:hi], [b]])
        fvals = np.interp(pts, knots, vals)
        return float(_trapz(fvals, pts))


def _check_valuation(surface: ForwardSurface, ell: float, t: float) -> None:
    """A valuation at time t and loss level ell needs the surface observed
    at t (StateError) and ell in [0, 1] (DomainError)."""
    if abs(t - surface.t) > 1e-10:
        raise StateError(
            f"surface is observed at t={surface.t}, cannot price at t={t}"
        )
    if not 0.0 <= ell <= 1.0:
        raise DomainError(f"loss level must lie in [0, 1], got {ell}")


def bond_price(surface: ForwardSurface, ell: float, t: float, T: float,
               x: float) -> BondQuote:
    """Price of the (T, x)-bond at time t from the stored surface.

    The surface must be observed at t; pass the surface snapshot for the
    valuation time, not an initial surface plus a later t.
    """
    _check_valuation(surface, ell, t)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"barrier must lie in [0, 1], got {x}")
    if T < t - _T_SNAP:
        raise DomainError(f"maturity {T} precedes valuation time {t}")
    pre = float(np.exp(-surface.maturity_integral(t, max(T, t), x)))
    alive = ell <= x
    return BondQuote(t=t, maturity=T, barrier=x, price=pre if alive else 0.0,
                     predefault=pre, alive=bool(alive))


def dc2_short_rate(surface: ForwardSurface,
                   loss_spec: Optional[LossCompensatorSpec], t: float,
                   x: float, ell: float) -> float:
    """Diagonal value f(t, t, x) = short rate + barrier-crossing intensity."""
    if abs(t - surface.t) > 1e-10:
        raise StateError(
            f"surface is observed at t={surface.t}, cannot evaluate at t={t}"
        )
    if ell > x:
        raise StateError(f"slice x={x} is already crossed at loss {ell}")
    if surface.diagonal is not None:
        rf = float(surface.diagonal[-1])
    else:
        j = _node_index(surface.maturities, t)
        if j is None:
            raise StateError(
                "surface carries no diagonal and the observation time is off "
                "the maturity grid"
            )
        rf = float(surface.values[j, -1])
    lam = 0.0 if loss_spec is None else intensity_lambda(t, x, ell, loss_spec)
    return rf + lam
