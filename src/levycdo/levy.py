"""Levy driver: characteristics, exponential moments, and path sampling.

The driving noise Z is a d-dimensional Levy process described by its
triplet (m, sigma, nu) with jumps truncated at |z| <= 1. Three jump-measure
shapes are supported:

* ``none`` -- purely Gaussian driver;
* ``compound_poisson`` -- total jump intensity ``rate`` with a discrete mark
  distribution given by probability atoms;
* ``user_table`` -- atoms carrying intensity weights directly (the measure
  nu itself, not a normalized distribution);
* ``exponential`` -- one-dimensional one-sided density rate * theta *
  exp(-theta z) on z > 0, kept around because its exponential-moment set has
  a sharp analytic boundary, which makes it a good stress case.

All exponential-moment computations use the cumulant

    J(u) = -<m, u> + 0.5 <sigma u, u>
           + integral of (exp(-<u,z>) - 1 + 1{|z|<=1} <u,z>) nu(dz),

finite exactly on the set B = {u : integral over |z|>1 of exp(-<u,z>) nu(dz)
is finite}. Atomic measures evaluate the integral as an exact finite sum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, GridError
from .rng import single_generator

__all__ = [
    "JumpMeasureSpec",
    "LevyTriplet",
    "LevyPathRecord",
    "laplace_exponent",
    "laplace_exponent_rows",
    "laplace_gradient",
    "laplace_gradient_rows",
    "jump_exp_moment",
    "in_domain_B",
    "simulate_increments",
]

_PSD_TOL = 1e-10


def _as_vector(u, dim: int, name: str) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if arr.shape != (dim,):
        raise DimensionError(f"{name} must have shape ({dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class JumpMeasureSpec:
    """Finite-activity jump measure of the Levy driver.

    Use the classmethod constructors; the raw fields are an internal
    normal form (atoms always carry intensity weights, never probabilities).
    """

    kind: str
    atom_z: Optional[np.ndarray] = None   # (K, d) jump sizes
    atom_w: Optional[np.ndarray] = None   # (K,) intensities, sum = total rate
    rate: float = 0.0
    decay: float = 0.0                    # exponential kind only

    @classmethod
    def none(cls) -> "JumpMeasureSpec":
        return cls(kind="none")

    @classmethod
    def compound_poisson(cls, rate: float, atoms) -> "JumpMeasureSpec":
        """Compound Poisson jumps: ``atoms`` is a sequence of (z, p) pairs.

        The probabilities must sum to one; intensities are rate * p.
        """
        if rate < 0:
            raise ConfigError(f"jump rate must be non-negative, got {rate}")
        z = np.atleast_2d(np.asarray([a[0] for a in atoms], dtype=float))
        if z.ndim == 1:
            z = z[:, None]
        p = np.asarray([a[1] for a in atoms], dtype=float)
        if np.any(p < 0):
            raise ConfigError("mark probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ConfigError(
                f"mark probabilities must sum to 1 within 1e-12, got {p.sum()!r}"
            )
        return cls(kind="compound_poisson", atom_z=z, atom_w=rate * p, rate=float(rate))

    @classmethod
    def user_table(cls, atoms) -> "JumpMeasureSpec":
        """Atomic measure given directly: ``atoms`` is a sequence of (z, w)."""
        z = np.atleast_2d(np.asarray([a[0] for a in atoms], dtype=float))
        if z.ndim == 1:
            z = z[:, None]
        w = np.asarray([a[1] for a in atoms], dtype=float)
        if np.any(w < 0):
            raise ConfigError("atom intensities must be non-negative")
        return cls(kind="user_table", atom_z=z, atom_w=w, rate=float(w.sum()))

    @classmethod
    def exponential(cls, rate: float, decay: float) -> "JumpMeasureSpec":
        """One-sided exponential jump density on z > 0 (one-dimensional)."""
        if rate < 0:
            raise ConfigError(f"jump rate must be non-negative, got {rate}")
        if decay <= 0:
            raise ConfigError(f"exponential decay must be positive, got {decay}")
        return cls(kind="exponential", rate=float(rate), decay=float(decay))

    def __post_init__(self):
        if self.kind not in ("none", "compound_poisson", "user_table", "exponential"):
            raise ConfigError(f"unknown jump measure kind {self.kind!r}")
        if self.atom_z is not None:
            z = np.asarray(self.atom_z, dtype=float)
            if z.ndim == 1:
                z = z[:, None]
            w = np.asarray(self.atom_w, dtype=float)
            if z.shape[0] != w.shape[0]:
                raise DimensionError("atom sizes and weights differ in length")
            if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w))):
                raise ConfigError("jump atoms must be finite")
            object.__setattr__(self, "atom_z", z)
            object.__setattr__(self, "atom_w", w)

    @property
    def is_atomic(self) -> bool:
        return self.kind in ("compound_poisson", "user_table")

    @property
    def dimension(self) -> Optional[int]:
        if self.is_atomic:
            return self.atom_z.shape[1]
        if self.kind == "exponential":
            return 1
        return None

    @property
    def total_intensity(self) -> float:
        if self.kind == "none":
            return 0.0
        if self.is_atomic:
            return float(self.atom_w.sum())
        return self.rate


@dataclass(frozen=True)
class LevyTriplet:
    """Characteristics (m, sigma, nu) of the driving Levy process."""

    m: np.ndarray
    sigma: np.ndarray
    jumps: JumpMeasureSpec = field(default_factory=JumpMeasureSpec.none)

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.m, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        d = m.shape[0]
        if m.ndim != 1:
            raise DimensionError(f"drift must be a vector, got shape {m.shape}")
        if sigma.shape != (d, d):
            raise DimensionError(
                f"covariance must have shape ({d}, {d}), got {sigma.shape}"
            )
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(sigma))):
            raise ConfigError("triplet entries must be finite")
        if not np.allclose(sigma, sigma.T, atol=1e-12, rtol=0.0):
            raise ConfigError("covariance matrix must be symmetric")
        sigma = 0.5 * (sigma + sigma.T)
        eigval, eigvec = np.linalg.eigh(sigma)
        if eigval.min() < -_PSD_TOL:
            warnings.warn(
                "covariance matrix has negative eigenvalues "
                f"(min {eigval.min():.3e}); clipping to zero",
                stacklevel=2,
            )
        if eigval.min() < 0.0:
            eigval = np.clip(eigval, 0.0, None)
            sigma = (eigvec * eigval) @ eigvec.T
            sigma = 0.5 * (sigma + sigma.T)
        jd = self.jumps.dimension
        if jd is not None and jd != d:
            raise DimensionError(
                f"jump atoms are {jd}-dimensional but the driver is {d}-dimensional"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_sigma_root", eigvec * np.sqrt(eigval))

    @property
    def dimension(self) -> int:
        return self.m.shape[0]

    @property
    def sigma_root(self) -> np.ndarray:
        """A matrix R with R R^T = sigma (eigenvalue square root)."""
        return self._sigma_root

    @property
    def small_jump_mean(self) -> np.ndarray:
        """integral of z over |z| <= 1 against nu; the truncation compensator."""
        j = self.jumps
        if j.kind == "none":
            return np.zeros(self.dimension)
        if j.is_atomic:
            norms = np.linalg.norm(j.atom_z, axis=1)
            mask = norms <= 1.0
            return (j.atom_w[mask, None] * j.atom_z[mask]).sum(axis=0) if mask.any() \
                else np.zeros(self.dimension)
        # one-sided exponential: rate * int_0^1 z theta e^{-theta z} dz
        th = j.decay
        return np.array([j.rate * (1.0 - np.exp(-th) * (1.0 + th)) / th])

    @property
    def continuous_drift(self) -> np.ndarray:
        """Drift of the path between jumps: m minus the truncation compensator."""
        return self.m - self.small_jump_mean


def in_domain_B(u, triplet: LevyTriplet) -> bool:
    """Whether exp(-<u, Z_1>) has finite expectation (u in the set B).

    For finite atomic measures this is always true. For the one-sided
    exponential tail the boundary is sharp: u + theta must be positive.
    """
    u = _as_vector(u, triplet.dimension, "u")
    j = triplet.jumps
    if j.kind == "exponential":
        return bool(u[0] + j.decay > 0.0)
    return True


def jump_exp_moment(u, triplet: LevyTriplet) -> float:
    """integral of exp(-<u,z>) nu(dz), the (unnormalized) jump transform.

    Raises DomainError when the integral diverges.
    """
    u = _as_vector(u, triplet.dimension, "u")
    j = triplet.jumps
    if j.kind == "none":
        return 0.0
    if j.is_atomic:
        return float(np.dot(j.atom_w, np.exp(-(j.atom_z @ u))))
    if u[0] + j.decay <= 0.0:
        raise DomainError(
            f"exp(-u z) is not nu-integrable for u = {u[0]} (decay {j.decay})"
        )
    return j.rate * j.decay / (u[0] + j.decay)


def _one_row(u, triplet: LevyTriplet) -> np.ndarray:
    """u as a (1, d) row: DimensionError on shape mismatch, DomainError
    when u is non-finite or outside B."""
    u = _as_vector(u, triplet.dimension, "u")
    if not in_domain_B(u, triplet):
        raise DomainError(f"u = {u} lies outside the exponential-moment set B")
    return u[None]


def laplace_exponent(u, triplet: LevyTriplet) -> float:
    """Cumulant J(u) of the driver: E exp(-<u, Z_t>) = exp(t J(u)); a
    one-row call of ``laplace_exponent_rows``. DomainError when u is
    outside B, DimensionError on shape mismatch."""
    return float(laplace_exponent_rows(_one_row(u, triplet), triplet)[0])


def laplace_gradient(u, triplet: LevyTriplet) -> np.ndarray:
    """Gradient of J at u; a one-row call of ``laplace_gradient_rows``."""
    return laplace_gradient_rows(_one_row(u, triplet), triplet)[0]


def _rows(V, triplet: LevyTriplet) -> np.ndarray:
    """An (n, d) float array of arguments, each row in the set B."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != triplet.dimension:
        raise DimensionError(
            f"argument must have shape (n, {triplet.dimension}), got {V.shape}"
        )
    j = triplet.jumps
    if j.kind == "exponential" and np.any(V[:, 0] + j.decay <= 0.0):
        raise DomainError("some rows lie outside the exponential-moment set B")
    return V


def laplace_exponent_rows(V, triplet: LevyTriplet) -> np.ndarray:
    """J applied row-wise to an (n, d) array of arguments: (n,). The one
    owner of the cumulant, so tables of J cost one array expression."""
    V = _rows(V, triplet)
    val = -(V @ triplet.m) + 0.5 * np.einsum("nd,nd->n", V @ triplet.sigma, V)
    j = triplet.jumps
    if j.kind == "none":
        return val
    if j.is_atomic:
        dot = V @ j.atom_z.T
        small = np.linalg.norm(j.atom_z, axis=1) <= 1.0
        return val + (np.exp(-dot) - 1.0 + np.where(small, dot, 0.0)) @ j.atom_w
    th = j.decay
    u0 = V[:, 0]
    small_mean = (1.0 - np.exp(-th) * (1.0 + th)) / th
    return val + j.rate * (th / (u0 + th) - 1.0 + u0 * small_mean)


def laplace_gradient_rows(V, triplet: LevyTriplet) -> np.ndarray:
    """Gradient of J applied row-wise to an (n, d) array of arguments,
    grad J(u) = -m + sigma u + integral of z (1{|z|<=1} - exp(-<u,z>)) nu(dz);
    the one owner of the gradient, as ``laplace_exponent_rows`` is of J.
    """
    V = _rows(V, triplet)
    grad = V @ triplet.sigma - triplet.m
    j = triplet.jumps
    if j.kind == "none":
        return grad
    if j.is_atomic:
        dot = V @ j.atom_z.T
        small = np.linalg.norm(j.atom_z, axis=1) <= 1.0
        coeff = j.atom_w * (np.where(small, 1.0, 0.0) - np.exp(-dot))
        return grad + coeff @ j.atom_z
    th = j.decay
    # int z exp(-u z) theta e^{-theta z} dz = theta / (u + theta)^2
    grad[:, 0] += triplet.small_jump_mean[0] - j.rate * th / (V[:, 0] + th) ** 2
    return grad


@dataclass
class LevyPathRecord:
    """One simulated path of the driver, stored as stepwise increments.

    ``gaussian`` holds the Brownian part sigma^{1/2} dW per step, ``drift``
    the raw m dt per step (NOT compensated for truncated jumps; the
    compensator vector is stored separately so consumers can assemble either
    convention). Jumps are kept at their exact times.
    """

    time_grid: np.ndarray
    gaussian: np.ndarray            # (n_steps, d)
    drift: np.ndarray               # (n_steps, d)
    jump_times: np.ndarray          # (n_jumps,)
    jump_marks: np.ndarray          # (n_jumps, d)
    small_jump_mean: np.ndarray     # (d,) compensator rate vector

    def step_totals(self) -> np.ndarray:
        """Total compensated increment of Z per grid step."""
        dt = np.diff(self.time_grid)
        out = self.drift + self.gaussian - dt[:, None] * self.small_jump_mean
        if len(self.jump_times):
            idx = np.searchsorted(self.time_grid, self.jump_times, side="left") - 1
            idx = np.clip(idx, 0, len(dt) - 1)
            np.add.at(out, idx, self.jump_marks)
        return out

    def terminal_value(self) -> np.ndarray:
        return self.step_totals().sum(axis=0)


def _check_time_grid(time_grid) -> np.ndarray:
    grid = np.asarray(time_grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 2:
        raise GridError("time grid must be a 1-d array with at least two nodes")
    if not np.all(np.isfinite(grid)):
        raise GridError("time grid contains non-finite nodes")
    if np.any(np.diff(grid) <= 0):
        raise GridError("time grid must be strictly increasing")
    return grid


def simulate_increments(triplet: LevyTriplet, time_grid, rng_seed) -> LevyPathRecord:
    """Sample one path of the driver on ``time_grid``.

    Draw order is fixed (jump count, jump times, jump marks, then the
    Gaussian increments) so a given seed always produces the same record.
    """
    grid = _check_time_grid(time_grid)
    rng = single_generator(rng_seed)
    d = triplet.dimension
    span = grid[-1] - grid[0]

    j = triplet.jumps
    total = j.total_intensity
    if total > 0.0:
        n_jumps = int(rng.poisson(total * span))
        times = np.sort(rng.uniform(grid[0], grid[-1], size=n_jumps))
        if j.is_atomic:
            probs = j.atom_w / total
            marks = j.atom_z[rng.choice(len(probs), size=n_jumps, p=probs)]
        else:
            marks = rng.exponential(1.0 / j.decay, size=(n_jumps, 1))
    else:
        times = np.empty(0)
        marks = np.empty((0, d))

    dt = np.diff(grid)
    normals = rng.standard_normal((len(dt), d))
    gaussian = (normals * np.sqrt(dt)[:, None]) @ triplet.sigma_root.T
    drift = dt[:, None] * triplet.m

    return LevyPathRecord(
        time_grid=grid,
        gaussian=gaussian,
        drift=drift,
        jump_times=times,
        jump_marks=marks,
        small_jump_mean=triplet.small_jump_mean,
    )
