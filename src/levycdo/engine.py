"""Vectorized forward-surface evolution.

The engine advances a batch of paths of the surface model over a master
time grid. The scheme:

* deterministic drift is integrated exactly in time per step with a fixed
  Gauss-Legendre rule, separately per distinct loss level (loss changes the
  contagion part of the drift), with exact regime swaps at loss jumps;
* the Brownian loading b is frozen at the step's left endpoint
  (Euler-Maruyama); driver jumps and loss jumps are applied at their exact
  times with coefficients evaluated there;
* the short rate at x = 1 is tracked through the separable decomposition of
  b, so discounting needs no maturity interpolation: its deterministic part
  uses the identity int_u^tau a(u, s, 1) ds = J(b*(u, tau)), and a driver
  jump at u in step (t_k, t_{k+1}] adds dI·Psi(u, t_{k+1}) to the step's
  discount integral, with dI = phi(u)·z its accumulator increment and Psi
  the component maturity integrals.

The path state is separable: the surface is a deterministic part plus
component accumulators times maturity shapes plus a per-path contagion
adjustment, so paths carry only those accumulators, the loss level, the
discount integral and the adjustment; per-step work is O(n d) instead of
O(n nT nx). At a report node the state goes to the collectors as it is,
with the deterministic (nT, nx) table of each loss level present and an
integer array ``level_of`` that gives each path its table. The full
(n, nT, nx) surface is materialized only when a reader asks for it
(``PathState.values``, which ``columns`` reads). ``maturity_integrals``
(the maturity integrals of barrier-interpolated columns behind the Monte
Carlo bond values and rates) works from the state in blocks of
``_BLOCK_ROWS`` paths that stay in cache, and ``surface_snapshot`` builds
its one row alone. The materialized surface, the blocks and the snapshot
row all build a surface value by the one rule of ``_block_column``, and
``columns`` and ``maturity_integrals`` mix barrier columns by the one rule
of ``hjm.mix_columns``, so they agree bit for bit. ``diagonal`` is the one
owner of the diagonal f(t, t, x).

Events are applied from tables built before stepping, not path by path.
Driver jumps are bucketed by step and enter the accumulators and the
discount integral with one ``np.add.at`` per step. Loss jumps are bucketed
by step with their pre-jump levels (``loss.levels_before``); each step
applies its loss jumps in groups of equal (pre-jump level, mark), with one
batched evaluation of the contagion rows and of the drift conversion per
group. Drift tables are built per loss level,
over every step's quadrature nodes at once, and cached.

Building an engine costs a quadrature per node and the step tables, so
callers that run one scenario again and again get it from ``_engine_for``,
which keeps the last engine built and reuses it while the coefficient,
driver and loss-spec objects are the same and the surface and grid equal
the engine's own copies.

Consequence leaned on by the test suite: with no Brownian part the whole
scheme has no stepping error, so results are independent of the step size
up to quadrature tolerance.

Requirements on the coefficients: b must be loss-independent, flat in the
barrier (``b_x_flat``) and carry its separable x = 1 decomposition, whose
``phi``, ``psi`` and ``psi_integral`` accept arrays of times; b must accept
a scalar maturity; a callable drift must be loss-independent on the x = 1
slice. With a loss process the engine also requires ``b_vectorized``, so
that the contagion c broadcasts a column of event times against the
maturities, and under the no-arbitrage drift the exact contagion integral
``c_integral``, broadcasting the same way. The named families provide all
of this; a spec that lacks any of it is rejected with ConfigError.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .errors import BoundError, ConfigError, GridError, StepError
from .hjm import CoefficientSpec, ForwardSurface, mix_columns
from .levy import (
    LevyPathRecord,
    LevyTriplet,
    laplace_exponent,
    laplace_gradient,
    laplace_gradient_rows,
)
from .loss import (
    LossCompensatorSpec,
    LossPath,
    intensity_lambda,
    levels_before,
    simulate_loss_paths_bulk,
)
from .rng import STREAM_LEVY, STREAM_LOSS, chunk_generator

__all__ = ["SurfaceEngine", "PathState", "build_master_grid", "evolve_surface"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)

# Paths per block of the report readers. A multiple of 64, so that block
# edges fall on the four-row groups of OpenBLAS's row products and a
# blocked product equals the whole one bit for bit. A block's temporaries
# of 256 rows by 49 maturities (100 kB) stay in L2 and under glibc's
# default 128 kB mmap threshold, so they are reused from the heap instead
# of being mapped and faulted in anew; 512 rows ran 1.6x slower.
_BLOCK_ROWS = 256


def _row_blocks(n: int) -> list:
    """[lo, hi) blocks of ``_BLOCK_ROWS`` rows covering n rows. A one-row
    tail joins the block before it: numpy hands a one-row product to
    another BLAS routine, whose sums round differently."""
    edges = list(range(0, n, _BLOCK_ROWS)) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _stack(parts: list, empty_shape: tuple, axis: int) -> np.ndarray:
    """Float arrays stacked along ``axis``; an array of ``empty_shape``
    when there are none (a spec with no volatility components)."""
    if not parts:
        return np.empty(empty_shape)
    return np.stack([np.asarray(p, dtype=float) for p in parts], axis=axis)


def _gl_primitives() -> np.ndarray:
    """Coefficients (4, 5), highest power first, of the antiderivatives of
    the Lagrange basis on the reference nodes."""
    rows = []
    for j in range(4):
        others = [_GL_NODES[k] for k in range(4) if k != j]
        den = np.prod([_GL_NODES[j] - z for z in others])
        rows.append(np.polyint(np.poly(others) / den))
    return np.array(rows)


_GL_PRIM = _gl_primitives()


def _gl_prim_at(u: np.ndarray) -> np.ndarray:
    """The four antiderivatives at each u by Horner's rule: (len(u), 4).

    The same multiply-add sequence as ``np.polyval``, over an array."""
    out = np.zeros((len(u), 4))
    for k in range(_GL_PRIM.shape[1]):
        out = out * u[:, None] + _GL_PRIM[:, k]
    return out


_GL_PRIM_AT_ONE = _gl_prim_at(np.ones(1))[0]


def _gl_partial_weights(u: np.ndarray) -> np.ndarray:
    """Weights (len(u), 4) with sum_j w_j g(node_j) = int_u^1 (cubic
    through g) du, one row per reference point u."""
    return _GL_PRIM_AT_ONE - _gl_prim_at(u)


def build_master_grid(horizon: float, dt: float, include=()) -> np.ndarray:
    """Uniform-rate grid on [0, horizon] containing every time in ``include``.

    Each segment between consecutive mandatory times is subdivided into
    equal steps no longer than dt.
    """
    if horizon <= 0:
        raise GridError(f"horizon must be positive, got {horizon}")
    if dt <= 0:
        raise GridError(f"step size must be positive, got {dt}")
    anchors = np.unique(np.concatenate([[0.0, horizon],
                                        np.asarray(include, dtype=float)]))
    if anchors[0] < 0 or anchors[-1] > horizon + 1e-12:
        raise GridError("mandatory times must lie in [0, horizon]")
    pieces = [np.array([0.0])]
    for a, b in zip(anchors[:-1], anchors[1:]):
        n = max(1, math.ceil((b - a) / dt - 1e-9))
        pieces.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(pieces)


@dataclass
class PathState:
    """Per-chunk state handed to collectors at report nodes.

    The forward surface of path p is ``tables[level_of[p]]`` plus
    ``accumulators[p] @ psi(T)`` across the barriers plus ``adjust[p]``.
    ``level_of`` is always an integer array, all zeros when the state
    carries one table. The full (n, nT, nx) array ``values`` is
    materialized only when a reader asks for it, and then kept;
    ``maturity_integrals`` and ``surface_snapshot`` work from the state
    itself.

    The arrays are the engine's working buffers and change in place on the
    next step. ``values``, the engine's readers (``maturity_integrals``,
    ``columns``, ``diagonal``, ``surface_snapshot``) and any reduction or
    copy must therefore run inside the collector: a state kept past it
    builds its surface from later steps.

    The engine checks each term for finiteness before the collectors run;
    a non-finite sum of finite terms (an overflow of ``accumulators @
    psi(T)`` or of the sum) raises StepError in the reader that builds it.
    """

    t: float
    node: int                 # index into the engine's master grid
    loss: np.ndarray          # (n,) current loss level
    discount_log: np.ndarray  # (n,) int_0^t short rate ds
    short_rate: np.ndarray    # (n,) f(t, t, 1) per path
    offset: int               # global index of this chunk's first path
    accumulators: np.ndarray  # (n, ncomp) component accumulators I
    adjust: Optional[np.ndarray]  # (n, nT, nx) contagion adjustment
    tables: np.ndarray        # (levels, nT, nx) deterministic part per level
    level_of: np.ndarray      # (n,) int: row of ``tables`` per path
    engine: "SurfaceEngine" = field(repr=False)
    _values: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def values(self) -> np.ndarray:
        """(n, nT, nx) forward surface per path, built on first read."""
        if self._values is None:
            self._values = self.engine._materialize(self)
        return self._values


def _read_only(a) -> np.ndarray:
    """A read-only float copy of an array."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


class SurfaceEngine:
    """Precomputed evolution machinery for one scenario and master grid.

    The engine keeps read-only copies of the initial surface and of the
    master grid, so a caller who edits either in place afterwards cannot
    split the tables built at construction from what reports read.
    """

    def __init__(self, coeffs: CoefficientSpec, triplet: LevyTriplet,
                 loss_spec: Optional[LossCompensatorSpec],
                 surface0: ForwardSurface, master_grid: np.ndarray):
        if coeffs.dimension != triplet.dimension:
            raise ConfigError(
                f"coefficient dimension {coeffs.dimension} does not match "
                f"driver dimension {triplet.dimension}"
            )
        if coeffs.b_loss_dependent:
            raise ConfigError(
                "the engine requires loss-independent volatility; named "
                "families satisfy this"
            )
        if coeffs.b_components is None:
            raise ConfigError(
                "the engine requires the separable x = 1 volatility "
                "decomposition (b_components); named families provide it"
            )
        if not coeffs.b_x_flat:
            raise ConfigError(
                "the engine requires barrier-flat volatility (b_x_flat); "
                "named families provide it"
            )
        if loss_spec is not None and not coeffs.b_vectorized:
            raise ConfigError(
                "with a loss process the engine requires contagion that "
                "broadcasts over event times (b_vectorized); named families "
                "provide it"
            )
        if (loss_spec is not None and coeffs.drift == "no_arbitrage"
                and coeffs.c_integral is None):
            raise ConfigError(
                "the no-arbitrage drift with a loss process requires the "
                "exact contagion integral (c_integral); named families "
                "provide it"
            )
        grid = _read_only(master_grid)
        if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
            raise GridError("master grid must be strictly increasing with >= 2 nodes")
        if abs(grid[0] - surface0.t) > 1e-12:
            raise GridError("master grid must start at the initial surface time")
        if grid[-1] > surface0.maturities[-1] + 1e-12:
            raise GridError("master grid extends beyond the maturity span")
        self.coeffs = coeffs
        self.triplet = triplet
        self.loss_spec = loss_spec
        # own read-only copies: the drift and rate tables are built from
        # these, and reports read them at every node
        self.surface0 = dataclasses.replace(
            surface0, maturities=_read_only(surface0.maturities),
            barriers=_read_only(surface0.barriers),
            values=_read_only(surface0.values),
            diagonal=(None if surface0.diagonal is None
                      else _read_only(surface0.diagonal)))
        self.grid = grid
        self.maturities = self.surface0.maturities
        self.barriers = self.surface0.barriers
        self.nT = len(self.maturities)
        self.nx = len(self.barriers)
        self.d = triplet.dimension
        self.horizon = float(grid[-1])
        self._drift_is_tag = isinstance(coeffs.drift, str)
        self._no_arb = coeffs.drift == "no_arbitrage"
        self._mc = triplet.continuous_drift
        self._has_extra = (loss_spec is not None) or (not self._drift_is_tag)
        self._extra_cache: dict = {}
        self._G_cache: dict = {}
        # maturity weights of the Monte Carlo readers, by (start, end)
        self._trapz_cache: dict = {}

        self._comps = coeffs.b_components
        self._ncomp = len(self._comps)
        self._cumX_cache: dict = {}
        self._check_flat_decomposition()
        self._prepare_short_rate_pieces()
        self._prepare_step_tables()
        self._prepare_cum_deterministic_rate()

    def _check_flat_decomposition(self):
        """Spot-check that barrier-flat volatility matches its separable
        decomposition; the path state and the short-rate accumulators rely
        on that identity."""
        t_lo = float(self.grid[0])
        T_lo, T_hi = float(self.maturities[0]), float(self.maturities[-1])
        for frac_t, frac_T in ((0.31, 1.0), (0.77, 0.5)):
            t = t_lo + frac_t * (self.horizon - t_lo)
            T = T_lo + frac_T * (T_hi - T_lo)
            via_comps = self._b_rows_one(t, T)
            direct = np.asarray(self.coeffs.b(t, T, 1.0, 0.0),
                                dtype=float).reshape(-1)
            if np.max(np.abs(via_comps - direct)) > 1e-10 * (
                1.0 + float(np.max(np.abs(direct)))
            ):
                raise ConfigError(
                    "barrier-flat volatility does not match its separable "
                    "decomposition"
                )

    # ----- coefficient evaluation ---------------------------------------

    def _b_rows(self, t: float) -> np.ndarray:
        """b(t, T_grid) as (nT, d), shared by every barrier slice."""
        out = np.zeros((self.nT, self.d))
        for comp, psi in zip(self._comps, self._psi_T):
            out += psi[:, None] * np.asarray(comp.phi(t), dtype=float)
        return out

    def _b_star_rows(self, t: float) -> np.ndarray:
        """b*(t, T_grid) as (nT, d), zero on matured columns."""
        out = np.zeros((self.nT, self.d))
        live = self.maturities > t
        if not live.any():
            return out
        Ts = self.maturities[live]
        acc = np.zeros((len(Ts), self.d))
        for comp in self._comps:
            acc += np.asarray(comp.psi_integral(t, Ts), dtype=float)[:, None] \
                * np.asarray(comp.phi(t), dtype=float)
        out[live] = acc
        return out

    def _b_star_one(self, t: float, T: float) -> np.ndarray:
        """b*(t, T) for the x = 1 slice."""
        if T <= t:
            return np.zeros(self.d)
        out = np.zeros(self.d)
        for comp in self._comps:
            out += float(comp.psi_integral(t, T)) * np.asarray(comp.phi(t), dtype=float)
        return out

    def _b_rows_one(self, t: float, T: float) -> np.ndarray:
        """b(t, T) for the x = 1 slice."""
        out = np.zeros(self.d)
        for comp in self._comps:
            out += float(np.asarray(comp.psi(np.asarray(T, dtype=float)))) \
                * np.asarray(comp.phi(t), dtype=float)
        return out

    def _live_block(self, ts: np.ndarray):
        """First maturity column alive for the earliest of the times ts, the
        maturities from there as an (E, m) table with matured entries set to
        their row's time, and the live mask."""
        g0 = int(np.searchsorted(self.maturities, ts.min(), side="right"))
        col = ts[:, None]
        live = self.maturities[g0:] > col
        return g0, np.where(live, self.maturities[g0:], col), live

    def _c_rows(self, ts: np.ndarray, x: float, y: float,
                ell: float) -> np.ndarray:
        """c(t_e, T_grid, x, y, ell) for event times ts: (E, nT), with the
        columns matured at t_e forced to zero."""
        out = np.zeros((len(ts), self.nT))
        if x >= 1.0 or ts.min() >= self.maturities[-1]:
            return out
        g0, Ts, live = self._live_block(ts)
        vals = self.coeffs.c(ts[:, None], Ts, x, y, ell)
        out[:, g0:] = np.where(live, vals, 0.0)
        over = np.max(np.abs(out), axis=1) > self.coeffs.c_bound
        if over.any():
            raise BoundError(
                f"contagion exceeded its declared bound {self.coeffs.c_bound} "
                f"at t={ts[over][0]}"
            )
        return out

    def _c_star_rows(self, ts: np.ndarray, x: float, y: float,
                     ell: float) -> np.ndarray:
        """c*(t_e, T_grid, x, y, ell) for times ts: (E, nT), matured zero."""
        out = np.zeros((len(ts), self.nT))
        if x >= 1.0 or ts.min() >= self.maturities[-1]:
            return out
        g0, Ts, live = self._live_block(ts)
        col = ts[:, None]
        out[:, g0:] = np.where(
            live, self.coeffs.c_integral(col, col, Ts, x, y, ell), 0.0)
        return out

    # ----- deterministic drift tables ------------------------------------

    def _base_drift_matrix_at(self, s: float) -> np.ndarray:
        """Loss-independent pointwise drift at time s: (nT, nx).

        Contains the driver compensation <b, m_c> plus, under the
        no-arbitrage tag, <grad J(b*), b>. Matured columns come out exactly
        zero because b* is clamped there and grad J(0) = -m_c.
        """
        brows = self._b_rows(s)
        out_rows = brows @ self._mc
        if self._no_arb:
            grads = laplace_gradient_rows(self._b_star_rows(s), self.triplet)
            out_rows = out_rows + np.einsum("gd,gd->g", grads, brows)
        return np.broadcast_to(out_rows[:, None], (self.nT, self.nx)).copy()

    def _extra_drift_matrix_at(self, ss: np.ndarray, ell: float) -> np.ndarray:
        """Loss-level-dependent pointwise drift at the times ss: (S, nT, nx).

        The contagion part of the no-arbitrage condition plus any user drift
        callable, at loss level ell."""
        out = np.zeros((len(ss), self.nT, self.nx))
        spec = self.loss_spec
        if spec is not None and self._no_arb:
            if spec.time_dependent:
                # the support rule depends on the level only; the rate on
                # the time as well
                ys, ps = spec._supported_atoms(float(ss[0]), ell)
                rates = np.array([spec._rate(float(s), ell) for s in ss])
                ws = rates[:, None] * ps
            else:
                ys, w = spec.effective_atoms(float(ss[0]), ell)
                ws = np.broadcast_to(w, (len(ss), len(ys)))
            for i, x in enumerate(self.barriers):
                if ell > x:
                    continue  # crossed slice: its value is never read again
                for k, y in enumerate(ys):
                    if ell + y > x or not ws[:, k].any():
                        continue
                    crow = self._c_rows(ss, float(x), float(y), ell)
                    cstar = self._c_star_rows(ss, float(x), float(y), ell)
                    out[:, :, i] -= ws[:, k, None] * crow * np.exp(-cstar)
        if not self._drift_is_tag:
            for j, s in enumerate(ss):
                for g, T in enumerate(self.maturities):
                    if T <= s:
                        continue
                    for i, x in enumerate(self.barriers):
                        out[j, g, i] += float(
                            self.coeffs.drift(float(s), float(T), float(x), ell))
        return out

    def _extra_nodes_step(self, ell: float):
        """Node values (steps, 4, nT, nx) and per-step integrals
        (steps, nT, nx) of the extra drift at one loss level, cached.

        Every step's Gauss-Legendre nodes are filled in one pass. Loss
        levels are sums of mark atoms, so they recur across paths and
        chunks; caching by level makes the drift cost independent of the
        path count.
        """
        key = float(ell)
        hit = self._extra_cache.get(key)
        if hit is None:
            steps = len(self.grid) - 1
            mats = self._extra_drift_matrix_at(
                self._gl_times.reshape(-1), key
            ).reshape(steps, 4, self.nT, self.nx)
            integral = np.einsum("sj,sjgx->sgx", self._gl_weights, mats)
            hit = (mats, integral)
            self._extra_cache[key] = hit
        return hit

    def _extra_drift_head(self, s_idx: int, ell: float,
                          when: np.ndarray) -> np.ndarray:
        """int_{t0}^{when_e} of the extra drift for each time in ``when``
        inside step s_idx, from the step's cached cubic: (E, nT, nx).

        Interpolation error is O(step^5), far below every tolerance the
        engine is used at; the full-interval case reproduces the
        Gauss-Legendre value exactly.
        """
        t0, t1 = float(self.grid[s_idx]), float(self.grid[s_idx + 1])
        mats, integral = self._extra_nodes_step(ell)
        half = 0.5 * (t1 - t0)
        u = (when - 0.5 * (t0 + t1)) / half
        w = half * _gl_partial_weights(u)
        return integral[s_idx] - np.einsum("ej,jgx->egx", w, mats[s_idx])

    def _cum_extra(self, ell: float) -> np.ndarray:
        """Node-cumulative extra-drift integrals for one loss level.

        cum[k] = int over [grid[0], grid[k]] of the extra drift at the
        level, built lazily; levels are sums of mark atoms and recur across
        paths and chunks.
        """
        key = float(ell)
        hit = self._cumX_cache.get(key)
        if hit is None:
            integral = self._extra_nodes_step(key)[1]
            hit = np.concatenate([np.zeros((1, self.nT, self.nx)),
                                  np.cumsum(integral, axis=0)])
            self._cumX_cache[key] = hit
        return hit

    def _prepare_step_tables(self):
        steps = len(self.grid) - 1
        t0, t1 = self.grid[:-1, None], self.grid[1:, None]
        half = 0.5 * (t1 - t0)
        self._gl_times = 0.5 * (t0 + t1) + half * _GL_NODES   # (steps, 4)
        self._gl_weights = half * _GL_WEIGHTS
        base_drift = np.empty((steps, self.nT, self.nx))
        self._phi_left = self._phi_at(self.grid[:-1])
        for s_idx in range(steps):
            acc = np.zeros((self.nT, self.nx))
            for s, w in zip(self._gl_times[s_idx], self._gl_weights[s_idx]):
                acc += w * self._base_drift_matrix_at(s)
            base_drift[s_idx] = acc
            if np.max(np.abs(self._b_rows(self.grid[s_idx]))) > self.coeffs.b_bound:
                raise BoundError(
                    f"volatility exceeded its declared bound {self.coeffs.b_bound} "
                    f"at t={self.grid[s_idx]}"
                )
        self.base_cum = np.concatenate(
            [np.zeros((1, self.nT, self.nx)), np.cumsum(base_drift, axis=0)]
        )

    # ----- short rate and discounting -------------------------------------

    def _prepare_short_rate_pieces(self):
        """Component tables, one array call per component: psi at the
        nodes (nodes, ncomp), its integral over each step (steps, ncomp)
        and psi at the maturities (ncomp, nT)."""
        grid = self.grid
        self._psi_at_node = _stack([c.psi(grid) for c in self._comps],
                                   (len(grid), 0), axis=1)
        self._psi_int_step = _stack(
            [c.psi_integral(grid[:-1], grid[1:]) for c in self._comps],
            (len(grid) - 1, 0), axis=1)
        self._psi_T = _stack([c.psi(self.maturities) for c in self._comps],
                             (0, self.nT), axis=0)

    def _phi_at(self, ts: np.ndarray) -> np.ndarray:
        """phi of every component at the times ts: (E, ncomp, d)."""
        return _stack([comp.phi(ts) for comp in self._comps],
                      (len(ts), 0, self.d), axis=1)

    def _drift_star_rf(self, u: float, tau: float) -> float:
        """int_u^tau [a(u, s, 1) + <b(u, s, 1), m_c>] ds, closed in maturity.

        Under the no-arbitrage tag the drift condition collapses the inner
        integral to J(b*(u, tau)): the contagion correction vanishes on the
        x = 1 slice. A callable drift is integrated numerically.
        """
        v = self._b_star_one(u, tau)
        out = float(v @ self._mc)
        if self._no_arb:
            out += laplace_exponent(v, self.triplet)
        elif not self._drift_is_tag:
            val, _ = quad(lambda s: float(self.coeffs.drift(u, s, 1.0, 0.0)),
                          u, tau, epsabs=1e-12, limit=200)
            out += val
        return out

    def _prepare_cum_deterministic_rate(self):
        """cumG[k] = int_0^{t_k} G(s) ds for the deterministic short-rate part
        G(s) = f(0, s, 1) + int_0^s [a(u, s, 1) + <b(u, s, 1), m_c>] du,
        computed per node by swapping the integration order."""
        surf = self.surface0
        self._cumG = np.zeros(len(self.grid))
        for k in range(1, len(self.grid)):
            tau = float(self.grid[k])
            base = surf.maturity_integral(float(self.grid[0]), tau, 1.0)
            val, _ = quad(self._drift_star_rf, float(self.grid[0]), tau,
                          args=(tau,), epsabs=1e-12, limit=200)
            self._cumG[k] = base + val

    def _G_at(self, node: int) -> float:
        """Deterministic short-rate part at a master node (cached)."""
        hit = self._G_cache.get(node)
        if hit is not None:
            return hit
        t = float(self.grid[node])
        out = float(self.surface0.forward_at(min(t, float(self.maturities[-1])), 1.0))
        if t > self.grid[0]:
            def integrand(u):
                b = self._b_rows_one(u, t)
                val = float(b @ self._mc)
                if self._no_arb:
                    val += float(laplace_gradient(self._b_star_one(u, t),
                                                  self.triplet) @ b)
                elif not self._drift_is_tag:
                    val += float(self.coeffs.drift(u, t, 1.0, 0.0))
                return val
            val, _ = quad(integrand, float(self.grid[0]), t, epsabs=1e-12,
                          limit=200)
            out += val
        self._G_cache[node] = out
        return out

    # ----- path generation -------------------------------------------------

    def _draw_levy_events(self, rng, n: int):
        """Driver jump times/marks for a chunk, in a fixed draw layout.

        Returns (path, time, mark) arrays sorted by path, then time."""
        total = self.triplet.jumps.total_intensity
        empty = (np.empty(0, dtype=int), np.empty(0), np.empty((0, self.d)))
        if total <= 0.0:
            return empty
        counts = rng.poisson(total * self.horizon, size=n)
        m = int(counts.max()) if len(counts) else 0
        if m == 0:
            return empty
        times = rng.uniform(float(self.grid[0]), self.horizon, size=(n, m))
        j = self.triplet.jumps
        if j.is_atomic:
            probs = j.atom_w / total
            marks = j.atom_z[rng.choice(len(probs), size=(n, m), p=probs)]
        else:
            marks = rng.exponential(1.0 / j.decay, size=(n, m, 1))
        # row p holds counts[p] draws; unused slots sort last
        used = np.arange(m) < counts[:, None]
        order = np.argsort(np.where(used, times, np.inf), axis=1, kind="stable")
        times = np.take_along_axis(times, order, axis=1)[used]
        marks = np.take_along_axis(marks, order[:, :, None], axis=1)[used]
        return (np.repeat(np.arange(n), counts), times,
                marks.reshape(-1, self.d))

    def _step_table(self, times: np.ndarray):
        """Time order of events, and per-step bounds into it: the event at
        time u belongs to the step with u in (t_k, t_{k+1}]."""
        order = np.argsort(times, kind="stable")
        steps = len(self.grid) - 1
        step = np.clip(np.searchsorted(self.grid, times[order], side="left") - 1,
                       0, steps - 1)
        return order, step, np.searchsorted(step, np.arange(steps + 1))

    # ----- main loop ---------------------------------------------------------

    def run_chunk(self, n: int, seed: int, chunk_index: int,
                  collectors, report_nodes,
                  injected: Optional[tuple] = None,
                  path_offset: int = 0) -> None:
        """Evolve ``n`` paths, invoking collectors at the report nodes.

        ``collectors`` is a sequence of callables (pos, state) -> None where
        pos indexes ``report_nodes`` (ascending node indices into the master
        grid). ``injected`` carries (driver_record, loss_path) for
        deterministic single-path runs; otherwise paths are drawn from the
        chunk's dedicated generator streams.

        All events are drawn before stepping and laid out as two tables,
        driver jumps and loss jumps, bucketed by step. Paths never carry
        the (nT, nx) surface between report nodes:

        * a driver jump at u with mark z adds dI = phi(u)·z to the
          component accumulators and, exactly, dI·Psi(u, t_{k+1}) to the
          step's discount integral (Psi the component maturity integrals);
          each step applies its jumps with one ``np.add.at``;
        * a loss jump adds its contagion rows to the path's adjustment and
          converts the drift history to the new level through cumulative
          level integrals. Pre-jump levels come from ``levels_before``,
          and each step handles its loss jumps in groups of equal
          (pre-jump level, mark), one batched call per group. A path has at
          most one jump per group, since its level only rises, and groups
          run in level order, so each path sees its jumps in time order.
        """
        d = self.d
        steps = len(self.grid) - 1

        if injected is None:
            gen_levy = chunk_generator(seed, STREAM_LEVY, chunk_index)
            jp, jt, jz = self._draw_levy_events(gen_levy, n)
            if self.loss_spec is not None:
                gen_loss = chunk_generator(seed, STREAM_LOSS, chunk_index)
                lt, ly, lcounts = simulate_loss_paths_bulk(
                    self.loss_spec, self.horizon, gen_loss, n
                )
                lp = np.repeat(np.arange(n), lcounts)
            else:
                lt = np.empty(0); ly = np.empty(0); lp = np.empty(0, dtype=int)
            normals = None
        else:
            record, loss_path = injected
            jt = np.asarray(record.jump_times, dtype=float)
            jz = np.asarray(record.jump_marks, dtype=float).reshape(-1, d)
            jp = np.zeros(len(jt), dtype=int)
            if loss_path is not None:
                lt = np.asarray(loss_path.jump_times, dtype=float)
                ly = np.asarray(loss_path.jump_sizes, dtype=float)
                lp = np.zeros(len(lt), dtype=int)
            else:
                lt = np.empty(0); ly = np.empty(0); lp = np.empty(0, dtype=int)
            normals = record.gaussian
            gen_levy = None

        # driver-jump table: accumulator increments and their exact
        # discount contributions up to the end of their step
        keep = (jt > self.grid[0]) & (jt <= self.horizon)
        order, j_step, j_bounds = self._step_table(jt[keep])
        jp, jt, jz = (a[keep][order] for a in (jp, jt, jz))
        if self._ncomp and len(jt):
            dI = np.einsum("ecd,ed->ec", self._phi_at(jt), jz)
            t_end = self.grid[j_step + 1]
            psi_rest = np.stack([comp.psi_integral(jt, t_end)
                                 for comp in self._comps], axis=1)
            dR = np.einsum("ec,ec->e", dI, psi_rest)

        # loss-jump table: the level before each jump, summed in path order
        keep = (lt > self.grid[0]) & (lt <= self.horizon)
        lt, ly, lp = lt[keep], ly[keep], lp[keep]
        l_old = levels_before(ly, np.bincount(lp, minlength=n))
        order, _, l_bounds = self._step_table(lt)
        lt, ly, lp, l_old = (a[order] for a in (lt, ly, lp, l_old))
        report_pos = {int(node): pos for pos, node in enumerate(report_nodes)}

        ell = np.zeros(n)
        R = np.zeros(n)
        I = np.zeros((n, self._ncomp))
        adjust = (np.zeros((n, self.nT, self.nx))
                  if self.loss_spec is not None else None)
        gauss = bool(np.any(self.triplet.sigma_root)) and self._ncomp > 0

        if 0 in report_pos:
            self._emit_assembled(collectors, report_pos[0], 0, ell, R, I,
                                 adjust, n, path_offset)

        for s_idx in range(steps):
            t0, t1 = float(self.grid[s_idx]), float(self.grid[s_idx + 1])
            dt = t1 - t0

            lo, hi = l_bounds[s_idx], l_bounds[s_idx + 1]
            if hi > lo:
                keys, group = np.unique(
                    np.stack([l_old[lo:hi], ly[lo:hi]], axis=1), axis=0,
                    return_inverse=True)
                group = group.reshape(-1)
                for g, (old, y) in enumerate(keys):
                    members = lo + np.flatnonzero(group == g)
                    self._apply_loss_jumps(s_idx, float(old), float(y),
                                           lt[members], lp[members], ell,
                                           adjust)

            # discount integral over the step: deterministic part plus the
            # accumulator part, frozen at step entry and corrected exactly
            # for the step's driver jumps
            R += self._cumG[s_idx + 1] - self._cumG[s_idx]
            if self._ncomp:
                R += I @ self._psi_int_step[s_idx]
                lo, hi = j_bounds[s_idx], j_bounds[s_idx + 1]
                if hi > lo:
                    np.add.at(R, jp[lo:hi], dR[lo:hi])
                    np.add.at(I, jp[lo:hi], dI[lo:hi])
                # Brownian part, loading frozen at the step's left endpoint
                if normals is not None:
                    dW = np.broadcast_to(normals[s_idx], (n, d))
                    I += dW @ self._phi_left[s_idx].T
                elif gauss:
                    draws = gen_levy.standard_normal((n, d))
                    dW = draws @ (math.sqrt(dt) * self.triplet.sigma_root).T
                    I += dW @ self._phi_left[s_idx].T

            if not math.isfinite(float(R.sum()) + float(I.sum())):
                raise StepError(f"non-finite path state at t={t1:.6g}")

            node = s_idx + 1
            if node in report_pos:
                self._emit_assembled(collectors, report_pos[node], node, ell,
                                     R, I, adjust, n, path_offset)

    def _apply_loss_jumps(self, s_idx: int, old: float, y: float,
                          when: np.ndarray, paths: np.ndarray, ell: np.ndarray,
                          adjust: np.ndarray) -> None:
        """Loss jumps of size y from level ``old`` at the times ``when`` in
        step s_idx, one per path in ``paths``: contagion rows, then the
        drift history converted to the new level."""
        new = old + y
        for i, x in enumerate(self.barriers):
            adjust[paths, :, i] += self._c_rows(when, float(x), y, old)
        if self._has_extra:
            adjust[paths] += ((self._cum_extra(old)[s_idx]
                               - self._cum_extra(new)[s_idx])
                              + self._extra_drift_head(s_idx, old, when)
                              - self._extra_drift_head(s_idx, new, when))
        ell[paths] = new

    def _emit_assembled(self, collectors, pos, node, ell, R, I, adjust, n,
                        offset):
        """Hand the chunk's state at a report node to the collectors.

        No surface is assembled: the state carries the deterministic table
        surface0 + base_cum + cum_extra(ell) of each loss level present,
        and readers build what they need from it. The terms of the surface
        are checked for finiteness here, whoever reads it: the tables, the
        accumulators' maturity shapes (the accumulators themselves are
        checked every step) and the adjustment. A non-finite term makes its
        sums non-finite, so on one the surface is materialized to name the
        first non-finite rate. A non-finite sum of finite terms is caught by
        the readers that build it.
        """
        table = self.surface0.values + self.base_cum[node]
        if self._has_extra:
            levels, level_of = np.unique(ell, return_inverse=True)
            tables = np.stack([table + self._cum_extra(lv)[node]
                               for lv in levels])
        else:
            level_of = np.zeros(n, dtype=np.intp)
            tables = table[None]
        r = self._G_at(node) + (I @ self._psi_at_node[node] if self._ncomp
                                else np.zeros(n))
        state = PathState(t=float(self.grid[node]), node=node, loss=ell,
                          discount_log=R, short_rate=r, offset=offset,
                          accumulators=I, adjust=adjust, tables=tables,
                          level_of=level_of, engine=self)
        if not (np.isfinite(tables).all()
                and (not self._ncomp or np.isfinite(self._psi_T).all())
                and (adjust is None or math.isfinite(float(adjust.sum())))):
            self._materialize(state)    # raises StepError
        for fn in collectors:
            fn(pos, state)

    # ----- readers of the path state --------------------------------------

    def _block_product(self, state: PathState, lo: int,
                       hi: int) -> Optional[np.ndarray]:
        """The accumulators' part I @ psi(T) of rows lo:hi, (hi - lo, nT);
        shared by every barrier, since b is barrier-flat."""
        if not self._ncomp:
            return None
        return state.accumulators[lo:hi] @ self._psi_T

    def _block_column(self, state: PathState, lo: int, hi: int, i: int,
                      prod: Optional[np.ndarray]) -> np.ndarray:
        """Forward values of rows lo:hi at grid barrier i, (hi - lo, nT):
        the one rule every reader builds surface values by.

        Per element the sums run in one fixed order: the deterministic
        table of the row's loss level (``level_of``), then the
        accumulators' part ``prod`` (rows lo:hi of ``_block_product``), then
        the contagion adjustment.
        """
        col = state.tables[:, :, i].take(state.level_of[lo:hi], axis=0)
        if prod is not None:
            col += prod
        if state.adjust is not None:
            col += state.adjust[lo:hi, :, i]
        return col

    def _check_finite(self, t: float, vals: np.ndarray) -> None:
        """StepError naming the maturity and barrier of the first
        non-finite forward rate in ``vals`` (rows, nT, nx), if any."""
        if not np.isfinite(vals).all():
            _, j, i = np.argwhere(~np.isfinite(vals))[0]
            raise StepError(
                f"non-finite forward rate at t={t:.6g} (maturity "
                f"{self.maturities[j]:.6g}, barrier {self.barriers[i]:.6g})"
            )

    def _materialize(self, state: PathState) -> np.ndarray:
        """The full (n, nT, nx) surface, block by block by
        ``_block_column``; StepError naming the first non-finite rate."""
        n = len(state.loss)
        vals = np.empty((n, self.nT, self.nx))
        for lo, hi in _row_blocks(n):
            prod = self._block_product(state, lo, hi)
            for i in range(self.nx):
                vals[lo:hi, :, i] = self._block_column(state, lo, hi, i, prod)
        self._check_finite(state.t, vals)
        return vals

    def maturity_integrals(self, state: PathState, queries) -> np.ndarray:
        """``columns(state, x) @ w`` for each (x, w) in ``queries``: (n, q).

        Works in blocks of ``_BLOCK_ROWS`` paths and never builds the full
        surface. Each block computes the accumulators' part once for all
        queries and each grid barrier's column once; the barrier mix
        (``mix_columns``) and the row product are those of ``columns``, so
        the result equals the products on the materialized surface bit for
        bit.
        """
        n = len(state.loss)
        out = np.empty((n, len(queries)))
        mixes = [self.surface0.barrier_weights(float(x)) for x, _ in queries]
        needed = {i for idx, _ in mixes for i in idx}
        for lo, hi in _row_blocks(n):
            prod = self._block_product(state, lo, hi)
            cols = {i: self._block_column(state, lo, hi, i, prod)
                    for i in needed}
            for q, ((_, w), mix) in enumerate(zip(queries, mixes)):
                out[lo:hi, q] = mix_columns(mix, cols.__getitem__) @ w
        if not np.isfinite(out).all():
            # a non-finite rate in a column makes its integral non-finite,
            # whatever its weight: name it, else the overflowed integral
            self._materialize(state)
            raise StepError(f"non-finite maturity integral at t={state.t:.6g}")
        return out

    def columns(self, state: PathState, x: float) -> np.ndarray:
        """(n, nT) forward values at barrier x, barrier-interpolated from
        the materialized surface; at a grid barrier a view of it."""
        return mix_columns(self.surface0.barrier_weights(float(x)),
                           lambda i: state.values[:, :, i])

    def diagonal(self, state: PathState, x: float) -> np.ndarray:
        """The diagonal f(t, t, x) per path: the one rule behind snapshots
        and the bond values of the Monte Carlo verifiers.

        Under the no-arbitrage drift it is exact, by the diagonal drift
        condition of Filipovic, Overbeck & Schmidt (2011): the short rate
        plus the intensity lambda(t, x; ell) of crossing x, on paths with
        loss ell <= x (crossed paths get the short rate alone). Other drifts
        get a quadratic maturity extrapolation of the barrier-interpolated
        columns, which is all the surface itself can support.
        """
        t = state.t
        if self._no_arb:
            diag = state.short_rate.copy()
            if self.loss_spec is not None:
                for lv in np.unique(state.loss):
                    if lv <= x:
                        diag[state.loss == lv] += intensity_lambda(
                            t, float(x), float(lv), self.loss_spec)
            return diag
        Ts = self.maturities
        j = int(np.clip(np.searchsorted(Ts, t), 0, self.nT - 3))
        col = self.columns(state, x)[:, j:j + 3]
        coef = np.polyfit(Ts[j:j + 3], col.T, 2)
        return np.asarray(np.polyval(coef, t), dtype=float)

    def surface_snapshot(self, state: PathState, path: int) -> ForwardSurface:
        """One path's surface, built by the readers' rule for that row
        alone, with its diagonal f(t, t, x) at every grid barrier from
        ``diagonal``. IndexError for a path outside the chunk."""
        n = len(state.loss)
        if not 0 <= path < n:
            raise IndexError(f"path {path} outside the chunk of {n} paths")
        lo, hi = next(b for b in _row_blocks(n) if b[0] <= path < b[1])
        prod = self._block_product(state, lo, hi)
        if prod is not None:
            prod = prod[path - lo:path - lo + 1]
        row = np.empty((1, self.nT, self.nx))
        for i in range(self.nx):
            row[:, :, i] = self._block_column(state, path, path + 1, i, prod)
        self._check_finite(state.t, row)
        sel = [path]
        one = dataclasses.replace(
            state, loss=state.loss[sel], discount_log=state.discount_log[sel],
            short_rate=state.short_rate[sel], offset=state.offset + path,
            accumulators=state.accumulators[sel],
            adjust=None if state.adjust is None else state.adjust[sel],
            level_of=state.level_of[sel], _values=row)
        diag = np.array([self.diagonal(one, float(x))[0]
                         for x in self.barriers])
        return ForwardSurface(
            maturities=self.maturities.copy(),
            barriers=self.barriers.copy(),
            values=row[0],
            t=state.t,
            diagonal=diag,
            x_interp=self.surface0.x_interp,
            interpolate=self.surface0.interpolate,
        )


_last_engine: Optional[SurfaceEngine] = None


def _same_inputs(engine: SurfaceEngine, coeffs, triplet, loss_spec,
                 surface0: ForwardSurface, master_grid) -> bool:
    """Whether ``engine`` was built from these inputs: the same coefficient,
    driver and loss-spec objects (frozen dataclasses), and a surface and
    grid equal by value to the engine's own copies."""
    if not (engine.coeffs is coeffs and engine.triplet is triplet
            and engine.loss_spec is loss_spec):
        return False
    own = engine.surface0
    if (surface0.t != own.t or surface0.x_interp != own.x_interp
            or surface0.interpolate != own.interpolate
            or (surface0.diagonal is None) != (own.diagonal is None)):
        return False
    pairs = [(master_grid, engine.grid), (surface0.maturities, own.maturities),
             (surface0.barriers, own.barriers), (surface0.values, own.values)]
    if own.diagonal is not None:
        pairs.append((surface0.diagonal, own.diagonal))
    return all(np.array_equal(np.asarray(a, dtype=float), b) for a, b in pairs)


def _engine_for(coeffs: CoefficientSpec, triplet: LevyTriplet,
                loss_spec: Optional[LossCompensatorSpec],
                surface0: ForwardSurface, master_grid) -> SurfaceEngine:
    """The engine for these inputs: the last one this helper built when
    ``_same_inputs`` holds, else a new one, which takes its place.

    Its caches hold deterministic values keyed by loss level or node, so a
    reused engine gives the same floats as a new one; reuse saves the build
    and every table the earlier calls filled. Two threads that miss at once
    each build their own engine, and the slot keeps one of them.
    """
    global _last_engine
    engine = _last_engine
    if engine is not None and _same_inputs(engine, coeffs, triplet,
                                           loss_spec, surface0, master_grid):
        return engine
    engine = SurfaceEngine(coeffs, triplet, loss_spec, surface0, master_grid)
    _last_engine = engine
    return engine


def evolve_surface(surface: ForwardSurface, coeffs: CoefficientSpec,
                   triplet: LevyTriplet,
                   loss_spec: Optional[LossCompensatorSpec],
                   levy_path: LevyPathRecord,
                   loss_path: Optional[LossPath],
                   time_grid) -> list:
    """Evolve one surface along the given driver and loss paths.

    The stepping grid must coincide with the driver record's grid; the
    returned list holds a surface snapshot per grid node, each carrying its
    diagonal and observation time.
    """
    grid = np.asarray(time_grid, dtype=float)
    rec_grid = np.asarray(levy_path.time_grid, dtype=float)
    if len(grid) != len(rec_grid) or np.max(np.abs(grid - rec_grid)) > 1e-12:
        raise GridError("time grid must coincide with the driver record's grid")
    engine = _engine_for(coeffs, triplet, loss_spec, surface, grid)
    out: list = [None] * len(grid)

    def collect(pos, state: PathState):
        out[pos] = engine.surface_snapshot(state, 0)

    engine.run_chunk(1, 0, 0, [collect], list(range(len(grid))),
                     injected=(levy_path, loss_path))
    return out
