"""Named parametric coefficient families for scenario construction.

Every family is separable in (t, T): the shape factor splits as
phi(t) * psi(T), which gives three things for free across the package:

* exact maturity integrals for b* and c* (no quadrature in hot loops),
* an exact short-rate decomposition for the simulation engine,
* vectorized evaluation over maturity arrays.

Volatility families are flat in the barrier and loss arguments; barrier
structure enters through the contagion family. The ``loss_ladder``
contagion (with its matching initial-spread builder) is the shipped family
whose surface satisfies both drift conditions simultaneously under a
single-mark loss process, so simulated discounted bonds are exact
martingales up to discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import ladder
from .errors import ConfigError
from .hjm import CoefficientSpec, SeparableComponent
from .loss import LossCompensatorSpec

__all__ = [
    "VolComponent",
    "constant_component",
    "exp_decay_component",
    "step_component",
    "Contagion",
    "no_contagion",
    "flat_contagion",
    "ladder_contagion",
    "validate_ladder_barriers",
    "build_coefficients",
    "ladder_initial_spread",
    "ladder_bond_survival",
]


@dataclass(frozen=True)
class VolComponent:
    """One additive volatility term: b contribution = vector * phi(t) * psi(T).

    ``phi`` returns a float for a float time and an array for an array of
    times; ``psi_integral(a, b)`` broadcasts over a and b (see
    ``SeparableComponent``).
    """

    vector: np.ndarray
    phi: Callable
    psi: Callable[[np.ndarray], np.ndarray]
    psi_integral: Callable

    def shape(self, t: float, T) -> np.ndarray:
        return self.phi(t) * self.psi(np.asarray(T, dtype=float))

    def shape_integral(self, t: float, a: float, b: float) -> float:
        return self.phi(t) * self.psi_integral(a, b)

    def separable(self) -> SeparableComponent:
        vec, shape = self.vector, self.phi

        def phi(t):
            p = shape(t)
            if isinstance(p, float):
                return vec * p
            return p[..., None] * vec

        return SeparableComponent(phi=phi, psi=self.psi,
                                  psi_integral=self.psi_integral)


def _unit_phi(t):
    """phi = 1: a float for a float time, ones for an array of times."""
    if isinstance(t, float):
        return 1.0
    return np.ones(np.shape(t))


def constant_component(vector) -> VolComponent:
    """b contribution sigma (no time or maturity shape)."""
    vec = np.asarray(vector, dtype=float)
    return VolComponent(
        vector=vec,
        phi=_unit_phi,
        psi=lambda T: np.ones_like(np.asarray(T, dtype=float)),
        psi_integral=lambda a, b: b - a,
    )


def exp_decay_component(vector, decay: float) -> VolComponent:
    """b contribution sigma * exp(-decay (T - t))."""
    if decay <= 0:
        raise ConfigError(f"decay must be positive, got {decay}")
    vec = np.asarray(vector, dtype=float)

    def phi(t):
        if isinstance(t, float):
            return float(np.exp(decay * t))
        return np.exp(decay * np.asarray(t, dtype=float))

    return VolComponent(
        vector=vec,
        phi=phi,
        psi=lambda T: np.exp(-decay * np.asarray(T, dtype=float)),
        psi_integral=lambda a, b: (np.exp(-decay * a) - np.exp(-decay * b)) / decay,
    )


def step_component(vector, knots: Sequence[float], scales: Sequence[float]) -> VolComponent:
    """b contribution piecewise constant in maturity: scale_j on (k_j, k_{j+1}].

    Zero outside the knot span. ``scales`` has one entry per cell, i.e.
    len(knots) - 1 entries.
    """
    kn = np.asarray(knots, dtype=float)
    sc = np.asarray(scales, dtype=float)
    if len(kn) < 2 or np.any(np.diff(kn) <= 0):
        raise ConfigError("step knots must be increasing with at least two entries")
    if len(sc) != len(kn) - 1:
        raise ConfigError("one scale per knot cell required")
    vec = np.asarray(vector, dtype=float)

    def psi(T):
        T = np.asarray(T, dtype=float)
        idx = np.searchsorted(kn, T, side="left") - 1
        inside = (T > kn[0]) & (T <= kn[-1])
        out = np.zeros_like(T)
        out[inside] = sc[np.clip(idx[inside], 0, len(sc) - 1)]
        return out

    def psi_integral(a, b):
        lo = np.maximum(kn[:-1], np.asarray(a, dtype=float)[..., None])
        hi = np.minimum(kn[1:], np.asarray(b, dtype=float)[..., None])
        out = np.sum(sc * np.clip(hi - lo, 0.0, None), axis=-1)
        return out if out.ndim else float(out)

    return VolComponent(vector=vec, phi=_unit_phi, psi=psi,
                        psi_integral=psi_integral)


@dataclass(frozen=True)
class Contagion:
    """Contagion family: c(t, T, x, y, ell) and its exact maturity integral."""

    c: Callable
    c_integral: Callable
    tag: str = "custom"


def no_contagion() -> Contagion:
    def c(t, T, x, y, ell):
        return np.zeros_like(np.asarray(T, dtype=float))

    def c_int(t, a, b, x, y, ell):
        return 0.0

    return Contagion(c=c, c_integral=c_int, tag="none")


def flat_contagion(level: float) -> Contagion:
    """c = level on every sub-unit barrier slice, zero at x = 1.

    A deliberately crude family used to exercise contagion code paths; it
    does not make the surface diagonal-consistent.
    """

    def c(t, T, x, y, ell):
        T = np.asarray(T, dtype=float)
        return np.zeros_like(T) if x >= 1.0 else np.full_like(T, level)

    def c_int(t, a, b, x, y, ell):
        return 0.0 if x >= 1.0 else level * (b - a)

    return Contagion(c=c, c_integral=c_int, tag="flat")


def ladder_contagion(rate: float, mark: float) -> Contagion:
    """Spread jumps of the single-mark ladder (see the ladder module).

    The family is exact only for single-atom mark distributions; marks of
    any other size leave the slice's jump cushion ill-defined.
    """
    if not 0.0 < mark <= 1.0:
        raise ConfigError(f"ladder mark must lie in (0, 1], got {mark}")
    if rate < 0:
        raise ConfigError(f"ladder rate must be non-negative, got {rate}")

    def c(t, T, x, y, ell):
        T = np.asarray(T, dtype=float)
        if x >= 1.0:
            return np.zeros_like(T)
        k = ladder.remaining_jumps(ell, x, mark)
        return ladder.contagion_jump(T - t, k, rate)

    def c_int(t, a, b, x, y, ell):
        if x >= 1.0:
            return np.zeros_like(np.asarray(b, dtype=float)) if np.ndim(b) else 0.0
        k = ladder.remaining_jumps(ell, x, mark)
        lo = np.asarray(ladder.contagion_jump_integral(np.asarray(a) - t, k, rate))
        hi = np.asarray(ladder.contagion_jump_integral(np.asarray(b) - t, k, rate))
        out = hi - lo
        return out if out.ndim else float(out)

    return Contagion(c=c, c_integral=c_int, tag="loss_ladder")


def validate_ladder_barriers(barriers, mark: float) -> None:
    """Barriers other than 1 must leave the crossing jump unobstructed."""
    for x in np.asarray(barriers, dtype=float):
        if x < 1.0 and x > 1.0 - mark + 1e-12:
            raise ConfigError(
                f"barrier {x} lies in (1 - mark, 1): the support rule would "
                "block its crossing jump and the ladder spread would be wrong"
            )


def ladder_initial_spread(rate: float, mark: float) -> Callable:
    """Initial credit spread surface s(T; k(0, x)) of the ladder."""

    def spread(T, x):
        T = np.asarray(T, dtype=float)
        k = ladder.remaining_jumps(0.0, float(x), mark)
        return ladder.hazard_spread(T, k, rate)

    return spread


def ladder_bond_survival(rate: float, mark: float) -> Callable:
    """q(T - t; k(ell, x)): the analytic pre-default bond ratio of the ladder."""

    def survival(t, T, x, ell):
        k = ladder.remaining_jumps(float(ell), float(x), mark)
        return ladder.survival_weight(np.asarray(T, dtype=float) - t, k, rate)

    return survival


def build_coefficients(components: Sequence[VolComponent],
                       contagion: Optional[Contagion],
                       drift,
                       dimension: int,
                       b_bound: float = 1e4,
                       c_bound: float = 200.0) -> CoefficientSpec:
    """Assemble a CoefficientSpec from volatility components and a contagion.

    The result is barrier- and loss-flat in b, vectorized over maturity
    arrays, and carries exact integrals plus the separable decomposition.
    """
    comps = tuple(components)
    for comp in comps:
        if comp.vector.shape != (dimension,):
            raise ConfigError(
                f"component vector shape {comp.vector.shape} does not match "
                f"driver dimension {dimension}"
            )
    cont = contagion if contagion is not None else no_contagion()

    def b(t, T, x, ell):
        T = np.asarray(T, dtype=float)
        if T.ndim == 0:
            out = np.zeros(dimension)
            for comp in comps:
                out += comp.vector * float(comp.shape(t, T))
            return out
        out = np.zeros(T.shape + (dimension,))
        for comp in comps:
            out += comp.shape(t, T)[..., None] * comp.vector
        return out

    def b_integral(t, a, b_, x, ell):
        out = np.zeros(dimension)
        for comp in comps:
            out += comp.vector * comp.shape_integral(t, a, b_)
        return out

    return CoefficientSpec(
        dimension=dimension,
        b=b,
        c=cont.c,
        drift=drift,
        b_integral=b_integral,
        c_integral=cont.c_integral,
        b_components=tuple(comp.separable() for comp in comps),
        b_loss_dependent=False,
        b_vectorized=True,
        b_x_flat=True,
        b_bound=b_bound,
        c_bound=c_bound,
    )
