"""The engine's deterministic tables against the constructions they replace.

``base_cum`` must equal the former per-step loop bit for bit. The short-rate
tables ``_cumG`` and ``_G`` (now sums over the step quadrature nodes) must
lie within 1e-13 relative of the former adaptive quadrature, kept here as
the reference: one ``quad`` per node over the scalar Levy exponent and its
gradient, and nested ``quad`` for a callable drift. The reference is told
the knots of ``step_component`` shapes as break points. Without them its
``epsabs=1e-12`` stops short at the kinks these knots put in b*: on the
grids below it then errs by up to 4.5e-10 relative (step shapes,
exponential driver), measured against ``quad`` with break points and
tolerances 1e-16/1e-15, which the step rule meets within 3e-15.
"""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from levycdo.engine import SurfaceEngine, build_master_grid
from levycdo.errors import DomainError
from levycdo.families import build_coefficients, constant_component, no_contagion
from levycdo.levy import (
    JumpMeasureSpec,
    LevyTriplet,
    laplace_exponent,
    laplace_gradient,
    laplace_gradient_rows,
)

from conftest import VOL_COMPONENTS, make_ladder_surface

DRIVERS = {
    "gaussian": LevyTriplet(m=np.array([0.04, -0.02]),
                            sigma=np.array([[1.0, 0.3], [0.3, 1.0]])),
    "atomic": LevyTriplet(
        m=np.array([0.04, -0.02]), sigma=np.array([[0.5, 0.1], [0.1, 0.3]]),
        jumps=JumpMeasureSpec.compound_poisson(
            1.0, [([0.3, -0.2], 0.6), ([-1.4, 0.9], 0.4)])),
    "exponential": LevyTriplet(
        m=np.array([0.03]), sigma=np.array([[0.2]]),
        jumps=JumpMeasureSpec.exponential(0.8, 3.0)),
}

HORIZON = 2.0


def _callable_drift(t, T, x, ell):
    """A smooth user drift, loss-free on the x = 1 slice."""
    return 0.002 * np.cos(t) * np.exp(-0.2 * T) + 0.001 * x * t


def _engine(name, driver, drift="no_arbitrage", knots_on_grid=True):
    """An engine on the named components (their vectors cut to the
    driver's dimension), on 0.15-wide steps that hold the knots of step
    shapes unless ``knots_on_grid`` is False."""
    components, knots = VOL_COMPONENTS[name]
    d = driver.dimension
    comps = tuple(dataclasses.replace(c, vector=c.vector[:d])
                  for c in components)
    coeffs = build_coefficients(comps, no_contagion(), "no_arbitrage", d)
    if drift != "no_arbitrage":
        coeffs = dataclasses.replace(coeffs, drift=drift)
    include = [0.33, 1.25]
    if knots_on_grid:
        include += [k for k in knots if 0.0 < k < HORIZON]
    grid = build_master_grid(HORIZON, 0.15, include=include)
    return SurfaceEngine(coeffs, driver, None, make_ladder_surface(), grid)


# ----- the former constructions -------------------------------------------

def _former_b_rows(eng, t):
    out = np.zeros((eng.nT, eng.d))
    for comp, psi in zip(eng._comps, eng._psi_T):
        out += psi[:, None] * np.asarray(comp.phi(t), dtype=float)
    return out


def _former_b_star_rows(eng, t):
    out = np.zeros((eng.nT, eng.d))
    live = eng.maturities > t
    if not live.any():
        return out
    Ts = eng.maturities[live]
    acc = np.zeros((len(Ts), eng.d))
    for comp in eng._comps:
        acc += np.asarray(comp.psi_integral(t, Ts), dtype=float)[:, None] \
            * np.asarray(comp.phi(t), dtype=float)
    out[live] = acc
    return out


def _former_base_drift_matrix_at(eng, s):
    brows = _former_b_rows(eng, s)
    out_rows = brows @ eng._mc
    if eng._no_arb:
        grads = laplace_gradient_rows(_former_b_star_rows(eng, s), eng.triplet)
        out_rows = out_rows + np.einsum("gd,gd->g", grads, brows)
    return np.broadcast_to(out_rows[:, None], (eng.nT, eng.nx)).copy()


def _former_base_cum(eng):
    steps = len(eng.grid) - 1
    base_drift = np.empty((steps, eng.nT, eng.nx))
    for s_idx in range(steps):
        acc = np.zeros((eng.nT, eng.nx))
        for s, w in zip(eng._gl_times[s_idx], eng._gl_weights[s_idx]):
            acc += w * _former_base_drift_matrix_at(eng, s)
        base_drift[s_idx] = acc
    return np.concatenate([np.zeros((1, eng.nT, eng.nx)),
                           np.cumsum(base_drift, axis=0)])


def _former_b_star_one(eng, t, T):
    out = np.zeros(eng.d)
    if T <= t:
        return out
    for comp in eng._comps:
        out += float(comp.psi_integral(t, T)) * np.asarray(comp.phi(t),
                                                           dtype=float)
    return out


def _former_b_rows_one(eng, t, T):
    out = np.zeros(eng.d)
    for comp in eng._comps:
        out += float(np.asarray(comp.psi(np.asarray(T, dtype=float)))) \
            * np.asarray(comp.phi(t), dtype=float)
    return out


def _former_drift_star_rf(eng, u, tau):
    v = _former_b_star_one(eng, u, tau)
    out = float(v @ eng._mc)
    if eng._no_arb:
        out += laplace_exponent(v, eng.triplet)
    elif not eng._drift_is_tag:
        val, _ = quad(lambda s: float(eng.coeffs.drift(u, s, 1.0, 0.0)),
                      u, tau, epsabs=1e-12, limit=200)
        out += val
    return out


def _breaks(knots, a, b):
    """Knots strictly inside (a, b), as break points for ``quad``."""
    return [k for k in knots if a < k < b] or None


def _former_cumG(eng, knots=()):
    cum = np.zeros(len(eng.grid))
    for k in range(1, len(eng.grid)):
        tau = float(eng.grid[k])
        base = eng.surface0.maturity_integral(float(eng.grid[0]), tau, 1.0)
        val, _ = quad(lambda u: _former_drift_star_rf(eng, u, tau),
                      float(eng.grid[0]), tau, epsabs=1e-12, limit=200,
                      points=_breaks(knots, float(eng.grid[0]), tau))
        cum[k] = base + val
    return cum


def _former_G_at(eng, node, knots=()):
    t = float(eng.grid[node])
    out = float(eng.surface0.forward_at(min(t, float(eng.maturities[-1])),
                                        1.0))
    if t > eng.grid[0]:
        def integrand(u):
            b = _former_b_rows_one(eng, u, t)
            val = float(b @ eng._mc)
            if eng._no_arb:
                val += float(laplace_gradient(_former_b_star_one(eng, u, t),
                                              eng.triplet) @ b)
            elif not eng._drift_is_tag:
                val += float(eng.coeffs.drift(u, t, 1.0, 0.0))
            return val
        val, _ = quad(integrand, float(eng.grid[0]), t, epsabs=1e-12,
                      limit=200, points=_breaks(knots, float(eng.grid[0]), t))
        out += val
    return out


def _rate_gaps(eng, name):
    """Largest relative gaps of ``_cumG`` and ``_G`` to the former
    adaptive quadrature, told the knots of the named components."""
    knots = VOL_COMPONENTS[name][1]
    cum = _former_cumG(eng, knots)
    G = np.array([_former_G_at(eng, k, knots) for k in range(len(eng.grid))])
    cum_gap = np.max(np.abs(eng._cumG[1:] - cum[1:]) / np.abs(cum[1:]))
    G_gap = np.max(np.abs(eng._G - G) / np.abs(G))
    return cum_gap, G_gap


# ----- tests ----------------------------------------------------------------

@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("components", sorted(VOL_COMPONENTS))
def test_base_cum_equals_former_step_loop(components, driver):
    """One drift evaluation over all quadrature times, each step summing
    its four nodes in order, equals the former per-step loop bit for bit."""
    eng = _engine(components, DRIVERS[driver], knots_on_grid=False)
    assert np.array_equal(eng.base_cum, _former_base_cum(eng))


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("components", sorted(VOL_COMPONENTS))
def test_rate_tables_match_adaptive_quadrature(components, driver):
    """Under the no-arbitrage drift the short-rate tables lie within 1e-13
    relative of the former adaptive quadrature, knots on the grid."""
    cum_gap, G_gap = _rate_gaps(_engine(components, DRIVERS[driver]),
                                components)
    assert cum_gap <= 1e-13
    assert G_gap <= 1e-13


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("drift", ["zero", _callable_drift],
                         ids=["zero", "callable"])
def test_rate_tables_match_adaptive_quadrature_other_drifts(drift, driver):
    """The ``"zero"`` tag and a callable drift (its maturity integrals by
    the step rule in place of nested ``quad``) meet the same 1e-13."""
    cum_gap, G_gap = _rate_gaps(_engine("mixed", DRIVERS[driver],
                                        drift=drift), "mixed")
    assert cum_gap <= 1e-13
    assert G_gap <= 1e-13


def test_knot_inside_a_step_costs_the_rule_its_order():
    """A ``step_component`` knot inside a grid step puts a kink in b*, and
    the per-step rule sees it, as the base drift table always has. With
    the knots 0.7 and 1.9 inside 0.15-wide steps (Gaussian driver) the
    gaps to the reference are 8.9e-7 (``_cumG``) and 1.2e-5 (``_G``)
    relative, against 0 with the knots on the grid (the tests above)."""
    cum_gap, G_gap = _rate_gaps(_engine("step", DRIVERS["gaussian"],
                                        knots_on_grid=False), "step")
    assert 1e-8 < cum_gap < 1e-5
    assert 1e-7 < G_gap < 1e-4


def test_exponential_driver_outside_B_raises_domain_error_at_build():
    """b* beyond the exponential driver's moment set (u + decay <= 0) stops
    the build: the drift tables evaluate J and its gradient there."""
    driver = LevyTriplet(m=np.zeros(1), sigma=np.zeros((1, 1)),
                         jumps=JumpMeasureSpec.exponential(0.8, 1.0))
    # b*(t, T) = -0.5 (T - t) reaches -1.5 at maturity 3
    coeffs = build_coefficients((constant_component([-0.5]),), no_contagion(),
                                "no_arbitrage", 1)
    with pytest.raises(DomainError):
        SurfaceEngine(coeffs, driver, None, make_ladder_surface(),
                      build_master_grid(HORIZON, 0.25))
