"""Shared builders for the test suite."""

import numpy as np
import pytest

from levycdo.families import (
    build_coefficients,
    constant_component,
    exp_decay_component,
    ladder_contagion,
    ladder_initial_spread,
    step_component,
)
from levycdo.hjm import ForwardSurface
from levycdo.levy import JumpMeasureSpec, LevyTriplet
from levycdo.loss import LossCompensatorSpec

LADDER_RATE = 0.35
LADDER_MARK = 0.17

# Volatility components by name, each with the knots of its step shapes:
# the cases of the engine's component- and rate-table tests.
VOL_COMPONENTS = {
    "constant": ((constant_component([0.02, 0.01]),), ()),
    "exp_decay": ((exp_decay_component([0.015, -0.01], 0.8),), ()),
    "step": ((step_component([0.01, 0.02], [0.0, 0.7, 1.9, 2.6],
                             [1.0, 0.4, 1.7]),), (0.0, 0.7, 1.9, 2.6)),
    "mixed": ((constant_component([0.01, 0.0]),
               exp_decay_component([0.0, 0.02], 1.3),
               step_component([0.01, 0.01], [0.2, 1.1, 2.9], [0.6, 1.4])),
              (0.2, 1.1, 2.9)),
    "none": ((), ()),
}


@pytest.fixture
def gauss2() -> LevyTriplet:
    """Correlated 2-d Brownian driver, no jumps."""
    return LevyTriplet(m=np.zeros(2), sigma=np.array([[1.0, 0.3], [0.3, 1.0]]))


@pytest.fixture
def ladder_loss() -> LossCompensatorSpec:
    return LossCompensatorSpec.constant(LADDER_RATE, [(LADDER_MARK, 1.0)])


@pytest.fixture
def ladder_coeffs():
    comps = (
        constant_component([0.022, 0.0]),
        exp_decay_component([0.0, 0.016], 0.4),
    )
    return build_coefficients(
        comps, ladder_contagion(LADDER_RATE, LADDER_MARK), "no_arbitrage", 2
    )


def make_ladder_surface(horizon: float = 3.0, n_nodes: int = 49,
                        barriers=(0.3, 0.55, 1.0), **kw) -> ForwardSurface:
    """Initial surface: linear base curve plus the ladder credit spread;
    keyword arguments go to the ``ForwardSurface`` constructor."""
    spread = ladder_initial_spread(LADDER_RATE, LADDER_MARK)

    def f0(T, x):
        return 0.02 + 0.002 * np.asarray(T, dtype=float) + spread(T, x)

    return ForwardSurface.from_function(
        f0, np.linspace(0.0, horizon, n_nodes), np.asarray(barriers), **kw
    )


@pytest.fixture
def ladder_surface() -> ForwardSurface:
    return make_ladder_surface()


def jump_only_triplet() -> LevyTriplet:
    """Pure-jump 1-d driver: two atoms, no Brownian part."""
    return LevyTriplet(
        m=np.zeros(1),
        sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.compound_poisson(
            1.5, [([-0.4], 0.5), ([0.6], 0.5)]
        ),
    )
