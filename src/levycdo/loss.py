"""Aggregate portfolio loss: a finite-activity marked point process.

The loss L is a pure-jump non-decreasing process on [0, 1]. Its compensator
is specified through a base jump rate (a function of time and the current
loss level) and a discrete mark distribution on (0, 1]. A structural support
rule keeps L inside [0, 1]: at loss level l, mark atoms above 1 - l are
removed from the jump measure. Removal thins the measure (the total jump
intensity drops); the remaining atoms keep their relative weights for mark
draws. This is what makes the intensity of crossing level 1 vanish and the
cap at 1 absorbing, rather than an ad-hoc clip.

The level-x crossing intensity is

    lambda(t, x; l) = base_rate(t, l) * sum of p_j over {x - l < y_j <= 1 - l},

so lambda(t, 1; l) = 0 identically (the two conditions exclude each other).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .errors import (
    BoundError,
    ConfigError,
    DomainError,
    GridError,
    QuadratureError,
    StateError,
)
from .rng import single_generator

__all__ = [
    "LossCompensatorSpec",
    "LossPath",
    "intensity_lambda",
    "simulate_loss_path",
    "simulate_loss_paths_bulk",
    "levels_before",
    "mx_compensated",
]

_RATE_TOL = 1e-12


@dataclass(frozen=True)
class LossCompensatorSpec:
    """Compensator of the loss process.

    ``base_rate(t, l)`` is the total jump intensity before the support rule;
    ``marks`` the discrete mark distribution as (size, probability) atoms.
    ``max_rate`` is the declared majorant used by thinning samplers; it is a
    contract, and simulation raises BoundError the moment the effective rate
    exceeds it.
    """

    base_rate: Callable[[float, float], float]
    marks: tuple
    max_rate: float
    time_dependent: bool = True
    _warned: list = field(default_factory=list, compare=False, repr=False)

    @classmethod
    def constant(cls, rate: float, marks, max_rate: Optional[float] = None):
        if rate < 0:
            raise ConfigError(f"loss rate must be non-negative, got {rate}")
        cap = rate if max_rate is None else max_rate
        return cls(
            base_rate=lambda t, l: rate,
            marks=_check_marks(marks),
            max_rate=float(cap),
            time_dependent=False,
        )

    @classmethod
    def affine(cls, base: float, slope: float, marks,
               max_rate: Optional[float] = None):
        """base + slope * loss, clipped at zero. Still constant in time."""
        if base < 0:
            raise ConfigError(f"affine base must be non-negative, got {base}")
        if max_rate is None:
            max_rate = max(base, base + slope)  # rate is monotone in l on [0,1]
        return cls(
            base_rate=lambda t, l: max(base + slope * l, 0.0),
            marks=_check_marks(marks),
            max_rate=float(max_rate),
            time_dependent=False,
        )

    @classmethod
    def from_callable(cls, fn, marks, max_rate: float,
                      time_dependent: bool = True):
        return cls(
            base_rate=fn,
            marks=_check_marks(marks),
            max_rate=float(max_rate),
            time_dependent=time_dependent,
        )

    def mark_atoms(self, t: float, ell: float) -> tuple:
        """Mark atoms before the support rule."""
        return self.marks

    def effective_atoms(self, t: float, ell: float):
        """(sizes, intensities) after the support rule at loss level ell.

        Intensities are base_rate * p for the surviving atoms; atom sizes
        above 1 - ell carry zero intensity and are dropped. Warns (once per
        spec object) the first time truncation actually removes mass.
        """
        ys, ps = self._supported_atoms(t, ell)
        return ys, self._rate(t, ell) * ps

    def _supported_atoms(self, t: float, ell: float):
        """(sizes, probabilities) of the mark atoms the support rule keeps
        at loss level ell, with the once-per-spec warning."""
        atoms = self.mark_atoms(t, ell)
        ys = np.array([a[0] for a in atoms])
        ps = np.array([a[1] for a in atoms])
        keep = ys <= 1.0 - ell
        if not keep.all() and not self._warned:
            self._warned.append(True)
            warnings.warn(
                f"mark atoms above 1 - loss = {1.0 - ell:.6g} removed from the "
                "jump measure (support rule); total intensity is reduced",
                stacklevel=3,
            )
        return ys[keep], ps[keep]

    def _rate(self, t: float, ell: float) -> float:
        """base_rate(t, ell), which must not be negative."""
        rate = self.base_rate(t, ell)
        if rate < 0:
            raise ConfigError(f"base rate is negative at (t={t}, l={ell})")
        return rate

    def total_intensity(self, t: float, ell: float) -> float:
        _, w = self.effective_atoms(t, ell)
        return float(w.sum())


def _check_marks(marks) -> tuple:
    atoms = tuple((float(y), float(p)) for y, p in marks)
    if not atoms:
        raise ConfigError("mark distribution needs at least one atom")
    for y, p in atoms:
        if not 0.0 < y <= 1.0:
            raise ConfigError(f"mark sizes must lie in (0, 1], got {y}")
        if p < 0:
            raise ConfigError(f"mark probabilities must be non-negative, got {p}")
    total = sum(p for _, p in atoms)
    if abs(total - 1.0) > 1e-12:
        raise ConfigError(f"mark probabilities must sum to 1, got {total!r}")
    return atoms


def intensity_lambda(t: float, x: float, ell: float,
                     spec: LossCompensatorSpec) -> float:
    """Intensity of the loss crossing level x, given L_t = ell.

    Requires 0 <= ell <= x <= 1. Identically zero at x = 1.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"barrier must lie in [0, 1], got {x}")
    if not 0.0 <= ell <= x:
        raise DomainError(f"loss level {ell} outside [0, barrier {x}]")
    ys, ws = spec.effective_atoms(t, ell)
    return float(ws[ys > x - ell].sum())


@dataclass
class LossPath:
    """One realized loss trajectory: jump times and sizes on [0, horizon]."""

    jump_times: np.ndarray
    jump_sizes: np.ndarray
    horizon: float

    def __post_init__(self):
        self.jump_times = np.asarray(self.jump_times, dtype=float)
        self.jump_sizes = np.asarray(self.jump_sizes, dtype=float)
        if self.jump_times.shape != self.jump_sizes.shape:
            raise ConfigError("jump times and sizes must align")
        if np.any(np.diff(self.jump_times) <= 0):
            raise ConfigError("jump times must be strictly increasing")
        if np.any(self.jump_sizes <= 0):
            raise ConfigError("jump sizes must be positive")
        if self.jump_sizes.sum() > 1.0 + 1e-12:
            raise ConfigError("total loss exceeds 1")
        if len(self.jump_times) and (
            self.jump_times[0] <= 0 or self.jump_times[-1] > self.horizon
        ):
            raise ConfigError("jump times must lie in (0, horizon]")

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times)

    def loss_at(self, t: float) -> float:
        """L_t (right-continuous)."""
        return float(self.jump_sizes[self.jump_times <= t].sum())

    def loss_before(self, t: float) -> float:
        """Left limit L_{t-}."""
        return float(self.jump_sizes[self.jump_times < t].sum())

    def crossing_time(self, x: float) -> float:
        """First time L exceeds x, or +inf if it never does."""
        cum = np.cumsum(self.jump_sizes)
        idx = np.searchsorted(cum, x, side="right")
        if idx >= len(cum):
            return np.inf
        return float(self.jump_times[idx])


def simulate_loss_path(spec: LossCompensatorSpec, horizon: float,
                       rng_seed) -> LossPath:
    """Sample one loss path by thinning against the declared majorant."""
    if horizon <= 0:
        raise GridError(f"horizon must be positive, got {horizon}")
    rng = single_generator(rng_seed)
    if spec.max_rate <= 0:
        return LossPath(np.empty(0), np.empty(0), horizon)
    t, ell = 0.0, 0.0
    times, sizes = [], []
    while True:
        t += rng.exponential(1.0 / spec.max_rate)
        if t > horizon:
            break
        ys, ws = spec.effective_atoms(t, ell)
        total = ws.sum()
        if total > spec.max_rate * (1.0 + _RATE_TOL):
            raise BoundError(
                f"effective intensity {total:.6g} exceeds declared majorant "
                f"{spec.max_rate:.6g} at (t={t:.6g}, l={ell:.6g})"
            )
        if rng.uniform() * spec.max_rate < total:
            if len(ys) == 1:
                y = ys[0]
            else:
                y = rng.choice(ys, p=ws / total)
            times.append(t)
            sizes.append(y)
            ell += y
    return LossPath(np.array(times), np.array(sizes), horizon)


def simulate_loss_paths_bulk(spec: LossCompensatorSpec, horizon: float,
                             rng: np.random.Generator, n_paths: int):
    """Vectorized thinning for a block of paths.

    Returns (times, sizes, counts): ragged storage as flat arrays sorted by
    path then time, with per-path counts. The draw layout is fixed (every
    round draws one exponential, one acceptance uniform and one mark uniform
    per still-active path, whether or not the proposal is accepted), so
    results depend only on the generator state, never on scheduling.

    Each round groups the paths still inside the horizon by loss level and
    applies the support rule once per group. A time-independent spec gets
    one ``effective_atoms`` call per group; a time-dependent one takes the
    group's atoms once and calls ``base_rate`` once per path. Acceptance and
    mark choice run as array operations on the group, and every path meets
    the same arithmetic as in a path-by-path loop, so the output is
    bit-identical to one.
    """
    if spec.max_rate <= 0:
        return np.empty(0), np.empty(0), np.zeros(n_paths, dtype=int)
    t = np.zeros(n_paths)
    ell = np.zeros(n_paths)
    ev_p, ev_t, ev_y = [], [], []
    active = np.arange(n_paths)
    while len(active):
        gaps = rng.exponential(1.0 / spec.max_rate, size=len(active))
        u_acc = rng.uniform(size=len(active))
        u_mark = rng.uniform(size=len(active))
        t[active] = t[active] + gaps
        alive = t[active] <= horizon
        active = active[alive]
        u_acc, u_mark = u_acc[alive], u_mark[alive]
        levels, inv = np.unique(ell[active], return_inverse=True)
        for g, level in enumerate(levels):
            members = np.flatnonzero(inv == g)
            paths = active[members]
            # ws[r] holds the intensities of the path in row r; one row
            # serves the whole group when the rate does not depend on time
            if spec.time_dependent:
                ys, ps = spec._supported_atoms(t[paths[0]], level)
                rates = np.array([spec._rate(u, level) for u in t[paths]])
                ws = rates[:, None] * ps
            else:
                ys, w = spec.effective_atoms(t[paths[0]], level)
                ws = w[None, :]
            totals = ws.sum(axis=1)
            over = totals > spec.max_rate * (1.0 + _RATE_TOL)
            if over.any():
                r = int(np.argmax(over))
                raise BoundError(
                    f"effective intensity {totals[r]:.6g} exceeds declared "
                    f"majorant {spec.max_rate:.6g} at "
                    f"t={t[paths[r]]:.6g}"
                )
            accept = u_acc[members] * spec.max_rate < totals
            if not accept.any():
                continue
            if len(ws) > 1:
                ws, totals = ws[accept], totals[accept]
            # searchsorted(cum, u, side="right") per row: cum never decreases
            cum = np.cumsum(ws / totals[:, None], axis=1)
            pick = np.sum(cum <= u_mark[members[accept]][:, None], axis=1)
            y = ys[pick.clip(0, len(ys) - 1)]
            paths = paths[accept]
            ev_p.append(paths)
            ev_t.append(t[paths])
            ev_y.append(y)
            ell[paths] += y
    if not ev_p:
        return np.empty(0), np.empty(0), np.zeros(n_paths, dtype=int)
    # rounds run forward in time, so a stable sort by path keeps each
    # path's events in time order
    paths = np.concatenate(ev_p)
    order = np.argsort(paths, kind="stable")
    counts = np.bincount(paths, minlength=n_paths)
    return np.concatenate(ev_t)[order], np.concatenate(ev_y)[order], counts


def levels_before(sizes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Loss level just before each event of ragged per-path event storage.

    ``sizes`` are the jump sizes sorted by path, then time, and ``counts``
    the per-path event counts, as ``simulate_loss_paths_bulk`` returns them.
    Levels are summed from 0.0 slot by slot, so entry e equals the per-path
    ``np.cumsum`` of the sizes before e bit for bit: the level-keyed caches
    of the engine need exactly these floats. Memory is O(events + paths).
    """
    sizes = np.asarray(sizes, dtype=float)
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    before = np.zeros(len(sizes))
    for s in range(1, int(counts.max(initial=0))):
        idx = starts[counts > s] + s
        before[idx] = before[idx - 1] + sizes[idx - 1]
    return before


def mx_compensated(path: LossPath, x: float, spec: LossCompensatorSpec,
                   time_grid) -> np.ndarray:
    """The compensated indicator M^x_t = 1{L_t <= x} + int_0^t 1{L <= x} lambda ds.

    Evaluated at the nodes of ``time_grid``. The integral is assembled
    exactly piecewise between jumps; time-dependent base rates are integrated
    by adaptive quadrature at tolerance 1e-10.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"barrier must lie in [0, 1], got {x}")
    grid = np.asarray(time_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise GridError("time grid must be a non-empty 1-d array")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise GridError("time grid must be strictly increasing and non-negative")
    if grid[-1] > path.horizon + 1e-12:
        raise StateError(
            f"grid extends to {grid[-1]}, beyond the path horizon {path.horizon}"
        )

    # Segment boundaries: 0, each jump, the last grid node. Loss level and
    # therefore the intensity are constant in state on each open segment.
    cross = path.crossing_time(x)
    bounds = np.concatenate([[0.0], path.jump_times, [max(grid[-1], path.horizon)]])
    levels = np.concatenate([[0.0], np.cumsum(path.jump_sizes)])

    def seg_integral(a: float, b: float, ell: float) -> float:
        if b <= a or ell > x:
            return 0.0
        if not spec.time_dependent:
            return intensity_lambda(a, x, ell, spec) * (b - a)
        val, err = quad(lambda s: intensity_lambda(s, x, ell, spec), a, b,
                        epsabs=1e-10, limit=200)
        if err > 1e-8:
            raise QuadratureError(
                f"intensity quadrature error {err:.2e} on [{a}, {b}]"
            )
        return val

    out = np.empty(len(grid))
    for gi, t in enumerate(grid):
        acc = 0.0
        for si in range(len(bounds) - 1):
            a, b, ell = bounds[si], min(bounds[si + 1], t), levels[si]
            if b <= a:
                break
            # integration stops once the indicator has dropped
            acc += seg_integral(a, min(b, cross), ell)
            if bounds[si + 1] > t:
                break
        out[gi] = (1.0 if path.loss_at(t) <= x else 0.0) + acc
    return out
