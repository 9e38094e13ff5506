"""Discrete-tenor rate and forward-bond models on the barrier grid.

The continuous surface machinery prices (maturity, barrier)-bonds for every
maturity; trading desks quote only a tenor grid. This module carries the
discrete objects built on that grid: simple rates over accrual periods,
forward bond prices, the drift block shared by their dynamics, and the
no-arbitrage drifts of the two market specifications (forward-bond form and
rate form), plus a path simulator for the rate form.

Convention note: the loss-jump sums in the drift formulas keep their constant
term. With zero contagion loadings each surviving in-support mark still
contributes its full intensity weight, whereas the driver-jump integral is
fully compensated and vanishes at zero loadings. The asymmetry is deliberate:
both drift routes below carry it consistently, and the route-equivalence
(`alpha_forward_bond` == -lambda + `drift_block_D`) holds exactly in this
form. A slice where every mark would breach the barrier has an empty loss sum
and the drift reduces to -lambda alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    BoundError,
    ConfigError,
    DegenerateRateError,
    DimensionError,
    DomainError,
    GridError,
    StateError,
    StepError,
)
from .hjm import CoefficientSpec, ForwardSurface, b_star, c_star
from .levy import LevyTriplet
from .loss import LossCompensatorSpec, intensity_lambda, simulate_loss_paths_bulk
from .rng import CHUNK_SIZE, STREAM_LEVY, STREAM_LOSS, chunk_generator, chunk_ranges

__all__ = [
    "TenorStructure",
    "DiscreteRate",
    "ForwardBondPrice",
    "MarketCoefficientSpec",
    "MarketPaths",
    "discrete_rate_from_surface",
    "forward_bond_price",
    "drift_block_D",
    "alpha_forward_bond",
    "alpha_rate_model",
    "simulate_market_model",
]

_SNAP = 1e-12


@dataclass(frozen=True)
class TenorStructure:
    """Tenor dates and loss barriers of a discrete market.

    ``maturities`` holds the reset/settlement dates T_0 < ... < T_{n-1};
    period k runs from T_k to T_{k+1} with accrual delta_k, computed once
    into the read-only array ``accruals``. ``eta(t)`` is the index of the
    accrual period containing t (right-continuous; before T_0 it is 0), and
    raises IndexError from the last date onward.
    """

    maturities: np.ndarray
    barriers: np.ndarray
    accruals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "maturities",
                           np.asarray(self.maturities, dtype=float))
        object.__setattr__(self, "barriers",
                           np.asarray(self.barriers, dtype=float))
        T, X = self.maturities, self.barriers
        if T.ndim != 1 or len(T) < 2 or np.any(np.diff(T) <= 0):
            raise GridError("tenor dates must be strictly increasing, >= 2 of them")
        if T[0] <= 0:
            raise GridError(f"first tenor date must be positive, got {T[0]}")
        if X.ndim != 1 or len(X) < 1 or np.any(np.diff(X) <= 0):
            raise GridError("barriers must be strictly increasing")
        if X[-1] != 1.0:
            raise GridError(f"last barrier must be exactly 1.0, got {X[-1]!r}")
        if X[0] < 0:
            raise GridError("barriers must be non-negative")
        accruals = np.diff(T)
        accruals.flags.writeable = False
        object.__setattr__(self, "accruals", accruals)

    @property
    def n_periods(self) -> int:
        return len(self.maturities) - 1

    def eta(self, t: float) -> int:
        """Index of the accrual period containing t."""
        idx = int(np.searchsorted(self.maturities[1:], t, side="right"))
        if idx >= self.n_periods:
            raise IndexError(
                f"t={t} is on or after the final tenor date "
                f"{self.maturities[-1]}; no accrual period contains it"
            )
        return idx

    def check_period(self, k: int) -> None:
        if not 0 <= k < self.n_periods:
            raise IndexError(f"period index {k} outside 0..{self.n_periods - 1}")

    def check_barrier(self, i: int) -> None:
        if not 0 <= i < len(self.barriers):
            raise IndexError(f"barrier index {i} outside 0..{len(self.barriers) - 1}")


@dataclass(frozen=True)
class DiscreteRate:
    """Simple rate over one accrual period at one barrier level."""

    k: int
    i: int
    value: float
    alive: bool


@dataclass(frozen=True)
class ForwardBondPrice:
    """Bond-price ratio p(t,S,x)/p(t,T,x), zeroed once the barrier is crossed."""

    t: float
    start: float
    maturity: float
    barrier: float
    ratio: float
    value: float
    alive: bool


def discrete_rate_from_surface(surface: ForwardSurface, tenor: TenorStructure,
                               ell: float, t: float, k: int,
                               i: int) -> DiscreteRate:
    """The period-k rate at barrier x_i implied by an observed surface.

    value = (p(t,T_k,x)/p(t,T_{k+1},x) - 1) / delta_k on alive slices, zero
    once the loss level exceeds the barrier.
    """
    tenor.check_period(k)
    tenor.check_barrier(i)
    if abs(t - surface.t) > 1e-10:
        raise StateError(
            f"surface is observed at t={surface.t}, cannot quote at t={t}"
        )
    x = float(tenor.barriers[i])
    Tk, Tk1 = float(tenor.maturities[k]), float(tenor.maturities[k + 1])
    ratio = math.exp(surface.maturity_integral(Tk, Tk1, x))
    alive = ell <= x
    delta = Tk1 - Tk
    return DiscreteRate(k=k, i=i,
                        value=(ratio - 1.0) / delta if alive else 0.0,
                        alive=bool(alive))


def forward_bond_price(surface: ForwardSurface, ell: float, t: float,
                       S: float, T: float, x: float) -> ForwardBondPrice:
    """Price ratio of the S-bond to the T-bond at barrier x, observed at t."""
    if abs(t - surface.t) > 1e-10:
        raise StateError(
            f"surface is observed at t={surface.t}, cannot quote at t={t}"
        )
    if T < S:
        raise DomainError(f"need S <= T, got S={S}, T={T}")
    g = math.exp(surface.maturity_integral(S, T, x))
    alive = ell <= x
    return ForwardBondPrice(t=t, start=S, maturity=T, barrier=x, ratio=g,
                            value=g if alive else 0.0, alive=bool(alive))


def _nu_mean(u: np.ndarray, triplet: LevyTriplet) -> float:
    """int (e^{-<u,z>} - 1) nu(dz), closed form for the named jump families."""
    jumps = triplet.jumps
    if jumps.kind == "none":
        return 0.0
    if jumps.kind in ("compound_poisson", "user_table"):
        return float(jumps.atom_w @ (np.exp(-jumps.atom_z @ u) - 1.0))
    theta = jumps.decay
    uval = float(u[0])
    if uval <= -theta:
        raise DomainError(
            f"exponential jump tail diverges at loading {uval} (decay {theta})"
        )
    return jumps.rate * (theta / (theta + uval) - 1.0)


def drift_block_D(coeffs: CoefficientSpec,
                  loss_spec: Optional[LossCompensatorSpec],
                  triplet: LevyTriplet, tenor: TenorStructure, t: float,
                  k: int, i: int, ell: float) -> float:
    """Jump-and-covariance drift block of the period-k rate at barrier x_i.

    D = int (e^{<v1-v0,z>} - e^{-<v0,z>} + e^{-<v1,z>} - 1) nu(dz)
      + sum_y w_y (e^{c1-c0} - e^{-c0} + e^{-c1}) 1{ell+y<=x_i}
      + <Sigma (v1 - v0), v1>,
    where v0, v1 are the volatility maturity integrals to T_k and T_{k+1} and
    c0, c1 the matching contagion integrals. Jump terms are exact closed
    forms for the named measures (see the module note on the loss sum's
    uncompensated constant).
    """
    tenor.check_period(k)
    tenor.check_barrier(i)
    x = float(tenor.barriers[i])
    if ell > x:
        raise StateError(f"barrier x={x} is already crossed at loss {ell}")
    Tk, Tk1 = float(tenor.maturities[k]), float(tenor.maturities[k + 1])
    v0 = b_star(coeffs, t, Tk, x, ell)
    v1 = b_star(coeffs, t, Tk1, x, ell)
    out = _nu_mean(-(v1 - v0), triplet) - _nu_mean(v0, triplet) \
        + _nu_mean(v1, triplet)
    out += float((v1 - v0) @ (triplet.sigma @ v1))
    if loss_spec is not None:
        ys, ws = loss_spec.effective_atoms(t, ell)
        for y, w in zip(ys, ws):
            if ell + y <= x:
                c0 = c_star(coeffs, t, Tk, x, float(y), ell)
                c1 = c_star(coeffs, t, Tk1, x, float(y), ell)
                out += w * (math.exp(c1 - c0) - math.exp(-c0) + math.exp(-c1))
    return out


@dataclass(frozen=True)
class MarketCoefficientSpec:
    """Per-(period, barrier) loadings of a discrete market model.

    ``beta(t, k, i)`` is the d-vector diffusion loading of the period-k rate
    at barrier x_i; ``gamma(t, ell, y, k, i)`` its response to a loss jump of
    size y at level ell. Both must respect the declared bounds; evaluation
    raises BoundError otherwise. The driver triplet supplies the Gaussian
    covariance and any driver-jump measure.
    """

    tenor: TenorStructure
    dimension: int
    beta: Callable
    gamma: Callable
    triplet: LevyTriplet
    beta_bound: float = 1e4
    gamma_bound: float = 200.0

    def __post_init__(self):
        if self.dimension != self.triplet.dimension:
            raise ConfigError(
                f"loading dimension {self.dimension} does not match driver "
                f"dimension {self.triplet.dimension}"
            )

    def eval_beta(self, t: float, k: int, i: int) -> np.ndarray:
        v = np.asarray(self.beta(t, k, i), dtype=float).reshape(-1)
        if v.shape != (self.dimension,):
            raise DimensionError(
                f"beta({t}, {k}, {i}) has shape {v.shape}, "
                f"expected ({self.dimension},)"
            )
        if np.max(np.abs(v), initial=0.0) > self.beta_bound:
            raise BoundError(
                f"|beta({t}, {k}, {i})| exceeds the declared bound "
                f"{self.beta_bound}"
            )
        return v

    def eval_gamma(self, t: float, ell: float, y: float, k: int,
                   i: int) -> float:
        g = float(self.gamma(t, ell, y, k, i))
        if abs(g) > self.gamma_bound:
            raise BoundError(
                f"|gamma({t}, {ell}, {y}, {k}, {i})| exceeds the declared "
                f"bound {self.gamma_bound}"
            )
        return g

    @classmethod
    def from_forward_coeffs(cls, coeffs: CoefficientSpec,
                            triplet: LevyTriplet, tenor: TenorStructure,
                            **kw) -> "MarketCoefficientSpec":
        """Loadings induced by continuous-surface coefficients.

        beta_ki(t) is the increment of the volatility maturity integral over
        period k (so the integrals telescope: summing beta over the live
        periods rebuilds the integral to T_{k+1} exactly), and gamma the
        matching contagion increment. Requires loss-independent volatility,
        matching the discrete model's contract.
        """
        if coeffs.b_loss_dependent:
            raise ConfigError(
                "discrete loadings need loss-independent volatility"
            )

        def beta(t, k, i, _c=coeffs, _T=tenor):
            x = float(_T.barriers[i])
            return (b_star(_c, t, float(_T.maturities[k + 1]), x, 0.0)
                    - b_star(_c, t, float(_T.maturities[k]), x, 0.0))

        def gamma(t, ell, y, k, i, _c=coeffs, _T=tenor):
            x = float(_T.barriers[i])
            return (c_star(_c, t, float(_T.maturities[k + 1]), x, y, ell)
                    - c_star(_c, t, float(_T.maturities[k]), x, y, ell))

        return cls(tenor=tenor, dimension=coeffs.dimension, beta=beta,
                   gamma=gamma, triplet=triplet, **kw)


def _lambda_at(loss_spec: Optional[LossCompensatorSpec], t: float, x: float,
               ell: float) -> float:
    if loss_spec is None:
        return 0.0
    return intensity_lambda(t, x, ell, loss_spec)


def _loss_sums(mspec: MarketCoefficientSpec,
               loss_spec: Optional[LossCompensatorSpec], t: float, i: int,
               eta: int, last: int, ell: float) -> Optional[np.ndarray]:
    """sum_y w_y (e^{g_j} + (e^{-g_j} - 1) e^{-G_j}) 1{ell+y<=x_i} for the
    periods j = eta..last, g_j = gamma(t, ell, y, j, i) and G_j the sum of
    g over eta..j-1; None without a loss measure or a surviving mark."""
    if loss_spec is None:
        return None
    x = float(mspec.tenor.barriers[i])
    ys, ws = loss_spec.effective_atoms(t, ell)
    keep = ell + ys <= x
    if not keep.any():
        return None
    out = np.zeros(last - eta + 1)
    for y, w in zip(ys[keep], ws[keep]):
        gs = np.array([mspec.eval_gamma(t, ell, float(y), j, i)
                       for j in range(eta, last + 1)])
        tails = np.exp(-np.concatenate([[0.0], np.cumsum(gs[:-1])]))
        out += w * (np.exp(gs) + (np.exp(-gs) - 1.0) * tails)
    return out


def alpha_forward_bond(mspec: MarketCoefficientSpec,
                       loss_spec: Optional[LossCompensatorSpec], t: float,
                       k: int, i: int, ell: float) -> float:
    """No-arbitrage drift of the period-k forward bond price at barrier x_i.

    alpha = -lambda(t, x_i) + sum_{j=eta(t)}^{k} <beta_j, Sigma beta_k>
          + int (e^{<beta_k,z>} + (e^{-<beta_k,z>} - 1) e^{-<S,z>} - 1) nu(dz)
          + sum_y w_y (e^{g_k} + (e^{-g_k} - 1) e^{-G}) 1{ell+y<=x_i},
    with S (resp. G) the sum of the earlier live beta_j (resp. gamma_j).
    """
    tenor = mspec.tenor
    tenor.check_period(k)
    tenor.check_barrier(i)
    x = float(tenor.barriers[i])
    if ell > x:
        raise StateError(f"barrier x={x} is already crossed at loss {ell}")
    eta = tenor.eta(t)
    if k < eta:
        raise IndexError(f"period {k} has expired by t={t} (current is {eta})")
    betas = [mspec.eval_beta(t, j, i) for j in range(eta, k + 1)]
    bk = betas[-1]
    sig_bk = mspec.triplet.sigma @ bk
    out = -_lambda_at(loss_spec, t, x, ell)
    out += float(sum(b @ sig_bk for b in betas))
    prev = np.sum(betas[:-1], axis=0) if len(betas) > 1 else np.zeros_like(bk)
    out += (_nu_mean(-bk, mspec.triplet) + _nu_mean(prev + bk, mspec.triplet)
            - _nu_mean(prev, mspec.triplet))
    sums = _loss_sums(mspec, loss_spec, t, i, eta, k, ell)
    if sums is not None:
        out += sums[-1]
    return out


def alpha_rate_model(mspec: MarketCoefficientSpec,
                     loss_spec: Optional[LossCompensatorSpec], t: float,
                     k: int, i: int, ell: float, rate_states) -> float:
    """No-arbitrage drift of the period-k simple rate at barrier x_i.

    ``rate_states`` holds the left-limit rates L(t-, T_j, x_i) for
    j = eta(t)..k. The covariance sum weights each term by
    delta_j L_j / (1 + delta_j L_j); the loss sum carries the prefactor
    (1 + delta_k L_k) / (delta_k L_k), singular at L_k = 0 whenever a loss
    measure is present. Driver jumps are not supported in the rate form.
    """
    tenor = mspec.tenor
    tenor.check_period(k)
    tenor.check_barrier(i)
    if mspec.triplet.jumps.kind != "none":
        raise ConfigError(
            "the rate-form drift requires a jump-free driver "
            "(Gaussian part and loss process only)"
        )
    x = float(tenor.barriers[i])
    if ell > x:
        raise StateError(f"barrier x={x} is already crossed at loss {ell}")
    eta = tenor.eta(t)
    if k < eta:
        raise IndexError(f"period {k} has expired by t={t} (current is {eta})")
    L = np.asarray(rate_states, dtype=float).reshape(-1)
    if len(L) != k - eta + 1:
        raise DimensionError(
            f"need {k - eta + 1} rate states for periods {eta}..{k}, "
            f"got {len(L)}"
        )
    dL = tenor.accruals[eta:k + 1] * L
    if np.any(1.0 + dL <= 0.0):
        raise DomainError("rate states violate 1 + delta L > 0")
    if dL[-1] == 0.0:
        raise DegenerateRateError(
            f"rate for period {k} is zero: the loss prefactor "
            f"(1 + delta L)/(delta L) is singular"
        )
    weights = dL / (1.0 + dL)
    betas = [mspec.eval_beta(t, j, i) for j in range(eta, k + 1)]
    sig_bk = mspec.triplet.sigma @ betas[-1]
    out = -_lambda_at(loss_spec, t, x, ell)
    out += float(sum(w * (b @ sig_bk) for w, b in zip(weights, betas)))
    sums = _loss_sums(mspec, loss_spec, t, i, eta, k, ell)
    if sums is not None:
        out += (1.0 + dL[-1]) / dL[-1] * sums[-1]
    return out


@dataclass
class MarketPaths:
    """Simulated rate trajectories and their bookkeeping.

    ``rates`` has shape (paths, report nodes, periods, barriers); dead or
    degenerate entries are zero / frozen. ``fixings`` holds each rate's value
    at its own reset date (NaN when the grid ends before that date).
    ``degenerate`` marks paths frozen after an alive rate hit exactly zero.
    """

    times: np.ndarray
    rates: np.ndarray
    loss: np.ndarray
    alive: np.ndarray
    fixings: np.ndarray
    degenerate: np.ndarray

    @property
    def n_degenerate(self) -> int:
        return int(self.degenerate.sum())


def _rate_drift_matrix(mspec: MarketCoefficientSpec,
                       loss_spec: Optional[LossCompensatorSpec], t: float,
                       i: int, eta: int, betas: np.ndarray,
                       L_slice: np.ndarray, ell: np.ndarray,
                       evolve_from: int,
                       degenerate: np.ndarray) -> np.ndarray:
    """Vectorized rate-form drift for periods evolve_from..K-1 at barrier i.

    ``betas`` stacks the loadings beta(t, j, i) for j = eta..K-1; the caller
    evaluates them once and reuses them for the step's shocks. L_slice is
    (n, K) left-limit states (fixed periods keep their fixing). Returns
    (n, K - evolve_from). Paths flagged degenerate get zeros; a live zero
    rate under a loss measure marks its path degenerate in place.
    """
    tenor = mspec.tenor
    K = tenor.n_periods
    n = L_slice.shape[0]
    x = float(tenor.barriers[i])
    cov = betas @ mspec.triplet.sigma @ betas.T
    dL = tenor.accruals[None, eta:] * L_slice[:, eta:]
    bad = (1.0 + dL <= 0.0).any(axis=1) & ~degenerate
    if bad.any():
        raise StepError(
            f"rate state violates 1 + delta L > 0 at t={t} on "
            f"{int(bad.sum())} paths"
        )
    weights = dL / (1.0 + dL)
    drift = weights @ np.triu(cov)
    out = drift[:, evolve_from - eta:]

    lam = np.zeros(n)
    if loss_spec is not None:
        # lambda and the loss sum with its path-dependent prefactor, per
        # distinct loss level
        for lv in np.unique(ell):
            if lv > x:
                continue
            sel = ell == lv
            lam[sel] = intensity_lambda(t, x, float(lv), loss_spec)
            sums = _loss_sums(mspec, loss_spec, t, i, eta, K - 1, float(lv))
            if sums is None:
                continue
            sel &= ~degenerate
            dLk = dL[sel, evolve_from - eta:]
            zero = dLk == 0.0
            if zero.any():
                rows = np.where(sel)[0][zero.any(axis=1)]
                degenerate[rows] = True
                sel = sel & ~degenerate
                dLk = dL[sel, evolve_from - eta:]
            out[sel] += (1.0 + dLk) / dLk * sums[None, evolve_from - eta:]
    out = out - lam[:, None]
    out[degenerate] = 0.0
    return out


def simulate_market_model(mspec: MarketCoefficientSpec,
                          loss_spec: Optional[LossCompensatorSpec],
                          initial_rates: np.ndarray, time_grid, n_paths: int,
                          seed: int, report_nodes=None,
                          injected=None) -> MarketPaths:
    """Euler evolution of the discrete rates under the rate-form drift.

    Each alive, unfixed rate follows dL = L (alpha dt + <beta, dW>) with the
    drift recomputed every step from left-limit states; loss jumps are applied
    at their exact event times, moving the rate by
    (1 + delta L)/delta * (e^gamma - 1) on slices the loss does not breach and
    zeroing it (with the alive flag) on slices it does. Rates fix at their
    own reset date and stay in later periods' drift sums as frozen states.
    A path whose alive rate hits exactly zero is frozen and counted as
    degenerate rather than aborting the run; `alpha_rate_model` raises for
    the same state when called directly.

    ``injected`` is (normals, loss_paths) for deterministic runs: normals has
    shape (steps, n_paths, d) (standard normal draws), loss_paths is a list
    of LossPath or None. The time grid must start at 0 and contain every
    tenor date it spans.
    """
    tenor = mspec.tenor
    if mspec.triplet.jumps.kind != "none":
        raise ConfigError(
            "the rate-form simulator requires a jump-free driver "
            "(Gaussian part and loss process only)"
        )
    grid = np.asarray(time_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise GridError("time grid must be strictly increasing with >= 2 nodes")
    if abs(grid[0]) > _SNAP:
        raise GridError("time grid must start at 0")
    T = tenor.maturities
    if grid[-1] > T[-1] + _SNAP:
        raise GridError("time grid extends beyond the last tenor date")
    for Tk in T[:-1]:
        if Tk <= grid[-1] + _SNAP and np.min(np.abs(grid - Tk)) > _SNAP:
            raise GridError(
                f"time grid must contain the tenor date {Tk} (rates fix there)"
            )
    K, m = tenor.n_periods, len(tenor.barriers)
    L0 = np.asarray(initial_rates, dtype=float)
    if L0.shape != (K, m):
        raise DimensionError(
            f"initial rates must have shape {(K, m)}, got {L0.shape}"
        )
    if np.any(L0 <= 0.0):
        raise ConfigError("initial rates must be strictly positive")
    if injected is not None and n_paths > CHUNK_SIZE:
        raise ConfigError(
            f"injected draws support at most one chunk ({CHUNK_SIZE} paths)"
        )
    if report_nodes is None:
        report_nodes = list(range(len(grid)))
    report_pos = {int(node): pos for pos, node in enumerate(report_nodes)}
    steps = len(grid) - 1
    d = mspec.dimension
    horizon = float(grid[-1])

    out_rates = np.empty((n_paths, len(report_nodes), K, m))
    out_loss = np.empty((n_paths, len(report_nodes)))
    out_alive = np.empty((n_paths, len(report_nodes), m), dtype=bool)
    out_fix = np.full((n_paths, K, m), np.nan)
    out_degen = np.zeros(n_paths, dtype=bool)

    for ci, lo, hi in chunk_ranges(n_paths):
        n = hi - lo
        if injected is not None:
            normals, loss_paths = injected
            if normals is None:
                normals = np.zeros((steps, n, d))
            if loss_paths is None:
                flat_t = np.empty(0)
                flat_y = np.empty(0)
                counts = np.zeros(n, dtype=int)
            else:
                flat_t = np.concatenate([p.jump_times for p in loss_paths])
                flat_y = np.concatenate([p.jump_sizes for p in loss_paths])
                counts = np.array([len(p.jump_times) for p in loss_paths])
            gen = None
        else:
            normals = None
            gen = chunk_generator(seed, STREAM_LEVY, ci)
            if loss_spec is not None:
                gloss = chunk_generator(seed, STREAM_LOSS, ci)
                flat_t, flat_y, counts = simulate_loss_paths_bulk(
                    loss_spec, horizon, gloss, n
                )
            else:
                flat_t = np.empty(0)
                flat_y = np.empty(0)
                counts = np.zeros(n, dtype=int)
        ev_path = np.repeat(np.arange(n), counts)
        order = np.argsort(flat_t, kind="stable")
        ev_t, ev_y, ev_path = flat_t[order], flat_y[order], ev_path[order]
        keep = (ev_t > grid[0]) & (ev_t <= horizon)
        ev_t, ev_y, ev_path = ev_t[keep], ev_y[keep], ev_path[keep]
        ev_step = np.searchsorted(grid, ev_t, side="left") - 1
        bounds = np.searchsorted(ev_step, np.arange(steps), side="left")
        bounds = np.append(bounds, len(ev_t))

        L = np.tile(L0[None, :, :], (n, 1, 1))
        ell = np.zeros(n)
        alive = ell[:, None] <= tenor.barriers[None, :]
        degen = np.zeros(n, dtype=bool)
        fix = np.full((n, K, m), np.nan)

        def record(node, pos):
            out_rates[lo:hi, pos] = L
            out_loss[lo:hi, pos] = ell
            out_alive[lo:hi, pos] = alive

        if 0 in report_pos:
            record(0, report_pos[0])
        fixed = np.zeros(K, dtype=bool)
        for j in range(K):
            if abs(grid[0] - T[j]) <= _SNAP:
                fix[:, j, :] = L[:, j, :]
                fixed[j] = True

        for s in range(steps):
            t0, t1 = float(grid[s]), float(grid[s + 1])
            dt = t1 - t0
            eta = tenor.eta(t0)
            evolve_from = eta if T[eta] > t0 + _SNAP else eta + 1
            if evolve_from < K:
                if normals is not None:
                    draws = np.asarray(normals[s], dtype=float)
                else:
                    draws = gen.standard_normal((n, d))
                # driver increments with the declared covariance: <beta, dW>
                # must have variance beta' Sigma beta dt, matching the drift
                dW = math.sqrt(dt) * draws @ mspec.triplet.sigma_root.T
                for i in range(m):
                    betas = np.stack([mspec.eval_beta(t0, j, i)
                                      for j in range(eta, K)])
                    drift = _rate_drift_matrix(
                        mspec, loss_spec, t0, i, eta, betas, L[:, :, i], ell,
                        evolve_from, degen,
                    )
                    shock = dW @ betas[evolve_from - eta:].T
                    upd = L[:, evolve_from:, i] * (drift * dt + shock)
                    upd[degen | ~alive[:, i]] = 0.0
                    L[:, evolve_from:, i] += upd
            for e in range(bounds[s], bounds[s + 1]):
                p = int(ev_path[e])
                if degen[p]:
                    continue
                when = float(ev_t[e])
                y = float(ev_y[e])
                old = float(ell[p])
                new = old + y
                for i in range(m):
                    if not alive[p, i]:
                        continue
                    x = float(tenor.barriers[i])
                    if new > x:
                        alive[p, i] = False
                        L[p, :, i] = 0.0
                        continue
                    for j in range(evolve_from, K):
                        g = mspec.eval_gamma(when, old, y, j, i)
                        dLj = float(tenor.accruals[j]) * L[p, j, i]
                        L[p, j, i] += (1.0 + dLj) / tenor.accruals[j] \
                            * (math.exp(g) - 1.0)
                ell[p] = new
            hit_zero = (L[:, evolve_from:, :] == 0.0) & alive[:, None, :] \
                & ~degen[:, None, None]
            if hit_zero.any():
                degen |= hit_zero.any(axis=(1, 2))
            if not np.isfinite(L.sum()):
                bad = ~np.isfinite(L.reshape(n, -1)).all(axis=1)
                raise StepError(
                    f"non-finite rate state at t={t1} on "
                    f"{int(bad.sum())} paths"
                )
            for j in range(K):
                if not fixed[j] and abs(t1 - T[j]) <= _SNAP:
                    fix[:, j, :] = L[:, j, :]
                    fixed[j] = True
            if s + 1 in report_pos:
                record(s + 1, report_pos[s + 1])
        out_fix[lo:hi] = fix
        out_degen[lo:hi] = degen

    return MarketPaths(
        times=grid[np.asarray(report_nodes, dtype=int)],
        rates=out_rates, loss=out_loss, alive=out_alive, fixings=out_fix,
        degenerate=out_degen,
    )
