"""Fixed model inputs of the benchmark workloads.

``jump_loss`` is the ROADMAP's Scenario A: the ladder model (constant plus
exp-decay volatility, ladder contagion with rate 0.35 and mark 0.17,
no-arbitrage drift) on the three-barrier ladder surface. ``every_node`` is
a loss-free Gaussian model on a surface that is flat in x, so the model is
consistent without a loss process. ``tranche`` is the ROADMAP item-4 STCDO
setup. Nothing here depends on the workload seed; seeds only pick the
random streams of the Monte Carlo runs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from levycdo.engine import build_master_grid
from levycdo.families import (
    build_coefficients,
    constant_component,
    exp_decay_component,
    ladder_contagion,
    ladder_initial_spread,
    no_contagion,
)
from levycdo.hjm import CoefficientSpec, ForwardSurface
from levycdo.levy import JumpMeasureSpec, LevyTriplet
from levycdo.loss import LossCompensatorSpec
from levycdo.pricing import TranchePayoff

LADDER_RATE = 0.35
LADDER_MARK = 0.17
SIGMA = [[1.0, 0.3], [0.3, 1.0]]
JUMP_RATE = 1.0
JUMP_ATOMS = [([0.3, -0.2], 0.6), ([-0.1, 0.4], 0.4)]
MC_TARGETS = ((2.5, 0.3), (2.0, 0.55), (3.0, 1.0))
TRANCHE = (0.10, 0.16)
TRANCHE_SPREAD = 0.01


def ladder_loss() -> LossCompensatorSpec:
    return LossCompensatorSpec.constant(LADDER_RATE, [(LADDER_MARK, 1.0)])


def _components():
    return (constant_component([0.022, 0.0]),
            exp_decay_component([0.0, 0.016], 0.4))


def ladder_coeffs():
    return build_coefficients(
        _components(), ladder_contagion(LADDER_RATE, LADDER_MARK),
        "no_arbitrage", 2)


def ladder_surface(horizon=3.0, n_nodes=49, barriers=(0.3, 0.55, 1.0),
                   x_interp="linear") -> ForwardSurface:
    """Linear base curve plus the ladder's initial credit spread."""
    spread = ladder_initial_spread(LADDER_RATE, LADDER_MARK)

    def f0(T, x):
        return 0.02 + 0.002 * np.asarray(T, dtype=float) + spread(T, x)

    return ForwardSurface.from_function(
        f0, np.linspace(0.0, horizon, n_nodes), np.asarray(barriers),
        x_interp=x_interp)


def flat_surface(horizon=3.0, n_nodes=49,
                 barriers=(0.3, 0.55, 1.0)) -> ForwardSurface:
    """The ladder surface's base curve, with no credit spread in x."""

    def f0(T, x):
        return 0.02 + 0.002 * np.asarray(T, dtype=float)

    return ForwardSurface.from_function(
        f0, np.linspace(0.0, horizon, n_nodes), np.asarray(barriers))


def gauss_triplet() -> LevyTriplet:
    return LevyTriplet(m=np.zeros(2), sigma=np.array(SIGMA))


def jump_triplet() -> LevyTriplet:
    """The 2-d compound-Poisson driver of the ROADMAP Scenario A."""
    return LevyTriplet(
        m=np.zeros(2), sigma=np.array(SIGMA),
        jumps=JumpMeasureSpec.compound_poisson(JUMP_RATE, JUMP_ATOMS))


def martingale_scenario(name: str) -> dict:
    """Inputs of one engine workload, as keyword arguments of
    ``run_martingale_test`` without the path count and seed."""
    if name == "jump_loss":
        report = (0.5, 1.0, 1.5, 2.0)
        return dict(
            coeffs=ladder_coeffs(),
            triplet=jump_triplet(),
            loss_spec=ladder_loss(),
            surface0=ladder_surface(),
            time_grid=build_master_grid(2.0, 1 / 50, include=report),
            targets=MC_TARGETS,
            report_times=report,
        )
    if name == "every_node":
        return dict(
            coeffs=build_coefficients(_components(), no_contagion(),
                                      "no_arbitrage", 2),
            triplet=gauss_triplet(),
            loss_spec=None,
            surface0=flat_surface(),
            time_grid=build_master_grid(2.0, 1 / 100),
            targets=MC_TARGETS,
            report_times=None,
        )
    raise KeyError(name)


def quote_tranche() -> TranchePayoff:
    """The 10-16% tranche with quarterly coupons to 2 years."""
    return TranchePayoff(TRANCHE[0], TRANCHE[1],
                         tuple(0.25 * k for k in range(1, 9)))


def tranche_scenario() -> dict:
    """ROADMAP item 4: four left-interpolated barriers and 301 maturity
    nodes on [0, 3], with the quote tranche."""
    return dict(
        loss_spec=ladder_loss(),
        surface0=ladder_surface(horizon=3.0, n_nodes=301,
                                barriers=(0.1, 0.2, 0.4, 1.0), x_interp="left"),
        tranche=quote_tranche(),
        spread=TRANCHE_SPREAD,
    )


def _describe(obj):
    """Canonical JSON-able description of a scenario input."""
    if isinstance(obj, ForwardSurface):
        return {"maturities": obj.maturities.tolist(),
                "barriers": obj.barriers.tolist(),
                "values_sha256": hashlib.sha256(
                    np.ascontiguousarray(obj.values).tobytes()).hexdigest(),
                "x_interp": obj.x_interp}
    if isinstance(obj, LevyTriplet):
        j = obj.jumps
        return {"m": np.asarray(obj.m).tolist(),
                "sigma": np.asarray(obj.sigma).tolist(),
                "jump_kind": j.kind,
                "jump_z": None if j.atom_z is None else j.atom_z.tolist(),
                "jump_w": None if j.atom_w is None else j.atom_w.tolist(),
                "jump_rate": j.rate, "jump_decay": j.decay}
    if isinstance(obj, LossCompensatorSpec):
        return {"marks": [list(a) for a in obj.marks],
                "max_rate": obj.max_rate,
                "time_dependent": obj.time_dependent}
    if isinstance(obj, TranchePayoff):
        return {"x1": obj.x1, "x2": obj.x2,
                "coupon_dates": list(obj.coupon_dates)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, CoefficientSpec):
        return {"drift": obj.drift if isinstance(obj.drift, str) else "user",
                "b_x_flat": obj.b_x_flat,
                "contagion": getattr(obj.c, "__qualname__", "?"),
                "components": len(obj.b_components or ())}
    return obj


def fingerprint(inputs: dict) -> str:
    """sha256 over the canonical description of a workload's inputs."""
    desc = {k: _describe(v) for k, v in sorted(inputs.items())}
    blob = json.dumps(desc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()
