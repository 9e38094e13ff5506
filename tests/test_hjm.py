"""Forward-surface machinery: drift conditions, the hazard ladder, the
coefficient families, surfaces/bonds, and the evolution engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from levycdo import ladder
from levycdo.engine import SurfaceEngine, build_master_grid, evolve_surface
from levycdo.errors import (
    BoundError,
    ConfigError,
    DomainError,
    GridError,
    StateError,
    StepError,
)
from levycdo.families import (
    build_coefficients,
    constant_component,
    exp_decay_component,
    flat_contagion,
    ladder_bond_survival,
    ladder_contagion,
    no_contagion,
    step_component,
    validate_ladder_barriers,
)
from levycdo.hjm import (
    CoefficientSpec,
    ForwardSurface,
    b_star,
    bond_price,
    c_star,
    dc1_drift,
    dc1_drift_pointwise,
    dc2_short_rate,
    riskfree_drift,
)
from levycdo.levy import JumpMeasureSpec, LevyPathRecord, LevyTriplet
from levycdo.loss import LossCompensatorSpec, LossPath, simulate_loss_paths_bulk
from levycdo.rng import STREAM_LEVY, STREAM_LOSS, chunk_generator

from conftest import (LADDER_MARK, LADDER_RATE, VOL_COMPONENTS,
                      jump_only_triplet, make_ladder_surface)


# --------------------------------------------------------------------------
# hazard ladder
# --------------------------------------------------------------------------

def test_remaining_jumps_counts_cushion():
    assert ladder.remaining_jumps(0.0, 0.3, 0.17) == 1
    assert ladder.remaining_jumps(0.17, 0.3, 0.17) == 0
    # exact multiples snap up instead of losing a jump to rounding
    assert ladder.remaining_jumps(0.0, 0.34, 0.17) == 2
    assert ladder.remaining_jumps(0.0, 1.0, 0.17) == 10 ** 9
    assert ladder.remaining_jumps(0.4, 0.3, 0.17) == -1


def test_survival_weight_reference_value():
    """q(tau; k) is the Poisson CDF at k with mean rate*tau (frozen value)."""
    val = ladder.survival_weight(1.25, 2, 0.35)
    assert val == pytest.approx(0.98991033837088915, rel=1e-14)
    arr = ladder.survival_weight(np.array([0.5, 1.25]), 2, 0.35)
    assert arr.shape == (2,)
    assert arr[1] == pytest.approx(val, rel=1e-14)


def test_hazard_spread_reference_value():
    val = ladder.hazard_spread(1.25, 2, 0.35)
    assert val == pytest.approx(0.021847133757961781, rel=1e-14)
    assert ladder.hazard_spread_integral(1.25, 2, 0.35) == pytest.approx(
        0.010140907257099359, rel=1e-13
    )


def test_ladder_integrals_match_quadrature():
    """The closed-form integrals agree with direct quadrature of the rates."""
    k, rate, tau = 3, 0.6, 2.1
    num, _ = quad(lambda s: ladder.hazard_spread(s, k, rate), 0.0, tau,
                  epsabs=1e-13)
    assert ladder.hazard_spread_integral(tau, k, rate) == pytest.approx(
        num, abs=1e-11
    )
    num2, _ = quad(lambda s: ladder.contagion_jump(s, k, rate), 0.0, tau,
                   epsabs=1e-13)
    assert ladder.contagion_jump_integral(tau, k, rate) == pytest.approx(
        num2, abs=1e-11
    )


def test_ladder_sentinels():
    """k = 0 slices jump straight to default; the x = 1 sentinel never moves."""
    assert ladder.contagion_jump(1.0, 0, 0.5) == 0.0
    assert ladder.contagion_jump(1.0, -1, 0.5) == 0.0
    big = 10 ** 9
    assert ladder.hazard_spread(1.0, big, 0.5) == pytest.approx(0.0, abs=1e-300)
    assert ladder.contagion_jump(1.0, big, 0.5) == pytest.approx(0.0, abs=1e-300)
    with pytest.raises(ConfigError):
        ladder.hazard_spread_integral(1.0, -1, 0.5)
    assert ladder.contagion_jump_integral(1.0, 0, 0.5) == 0.0
    assert ladder.contagion_jump_integral(1.0, -2, 0.5) == 0.0


@given(
    k=st.integers(1, 12),
    rate=st.floats(0.05, 3.0),
    tau=st.floats(0.05, 6.0),
)
def test_ladder_chain_consistency(k, rate, tau):
    """Spread integrals telescope through the contagion jumps.

    The spread lost when the cushion shrinks from k to k-1 equals the
    integrated contagion jump: s*(k-1) - s*(k) = c*(k).
    """
    lhs = (ladder.hazard_spread_integral(tau, k - 1, rate)
           - ladder.hazard_spread_integral(tau, k, rate))
    rhs = ladder.contagion_jump_integral(tau, k, rate)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# --------------------------------------------------------------------------
# coefficient families
# --------------------------------------------------------------------------

def test_exp_decay_component_shape():
    comp = exp_decay_component([0.0, 0.016], 0.4)
    t, T = 0.5, 2.0
    assert comp.shape(t, T) == pytest.approx(np.exp(-0.4 * (T - t)), rel=1e-14)
    num, _ = quad(lambda u: comp.shape(t, u), 1.0, 2.5, epsabs=1e-13)
    assert comp.shape_integral(t, 1.0, 2.5) == pytest.approx(num, abs=1e-11)


def test_step_component_integral_is_exact():
    comp = step_component([0.015], [0.5, 1.0, 1.5, 2.0], [2.0, 0.5, 3.0])
    # psi = 2 on (0.5, 1], 0.5 on (1, 1.5], 3 on (1.5, 2], zero outside
    want = 2.0 * 0.25 + 0.5 * 0.5 + 3.0 * 0.3
    assert comp.psi_integral(0.75, 1.8) == pytest.approx(want, rel=1e-14)
    arr = comp.psi_integral(0.75, np.array([1.8, 2.5]))
    assert arr[0] == pytest.approx(want, rel=1e-14)
    assert arr[1] == pytest.approx(2.0 * 0.25 + 0.5 * 0.5 + 3.0 * 0.5, rel=1e-14)
    assert comp.psi_integral(0.0, 0.4) == pytest.approx(0.0, abs=1e-300)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("comp", [
    constant_component([0.02, -0.01]),
    exp_decay_component([0.0, 0.016], 0.4),
    step_component([0.015, 0.01], [0.5, 1.0, 1.5, 2.0], [2.0, 0.5, 3.0]),
], ids=["constant", "exp_decay", "step"])
def test_component_array_calls_match_scalar_calls(comp):
    """phi over an array of times and psi_integral over an array of lower
    limits equal the stacked scalar calls, bit for bit."""
    ts = np.array([0.0, 0.3, 0.75, 1.2, 1.9])
    ends = ts + np.array([0.6, 0.1, 1.4, 0.3, 0.05])
    sep = comp.separable()
    assert _same_bits(comp.phi(ts), [comp.phi(float(t)) for t in ts])
    assert _same_bits(sep.phi(ts), np.stack([sep.phi(float(t)) for t in ts]))
    assert sep.phi(ts).shape == (len(ts), 2)
    assert _same_bits(comp.psi_integral(ts, 2.0),
                      [comp.psi_integral(float(a), 2.0) for a in ts])
    assert _same_bits(comp.psi_integral(ts, ends),
                      [comp.psi_integral(float(a), float(b))
                       for a, b in zip(ts, ends)])


def test_ladder_bond_survival_is_poisson_cdf():
    """q(T - t; k) = P(Poisson(rate (T - t)) <= k) = exp(-int s), with the
    cushion k = floor((x - ell) / mark) counted by hand."""
    from scipy.stats import poisson

    surv = ladder_bond_survival(LADDER_RATE, LADDER_MARK)
    t, T = 0.2, np.array([0.5, 1.0, 2.5, 3.0])
    for x, ell, k in ((0.3, 0.0, 1), (0.55, 0.17, 2), (0.55, 0.0, 3)):
        got = surv(t, T, x, ell)
        np.testing.assert_allclose(
            got, poisson.cdf(k, LADDER_RATE * (T - t)), rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            got, np.exp(-ladder.hazard_spread_integral(T - t, k, LADDER_RATE)),
            rtol=1e-13, atol=0)
    np.testing.assert_array_equal(surv(t, T, 1.0, 0.34), 1.0)
    np.testing.assert_array_equal(surv(t, T, 0.3, 0.34), 0.0)


def test_build_coefficients_integral_consistency():
    """Exact b and c integrals agree with quadrature of the pointwise values."""
    coeffs = build_coefficients(
        (constant_component([0.02]), exp_decay_component([0.01], 1.1)),
        ladder_contagion(0.4, 0.2),
        "no_arbitrage",
        1,
    )
    t, lo, hi, x = 0.3, 0.8, 2.4, 0.45
    num, _ = quad(lambda T: float(coeffs.b(t, T, x, 0.0)[0]), lo, hi,
                  epsabs=1e-13)
    assert coeffs.b_integral(t, lo, hi, x, 0.0)[0] == pytest.approx(num, abs=1e-10)
    num_c, _ = quad(lambda T: float(np.asarray(coeffs.c(t, T, x, 0.2, 0.0))),
                    lo, hi, epsabs=1e-13)
    assert float(np.asarray(coeffs.c_integral(t, lo, hi, x, 0.2, 0.0))) == \
        pytest.approx(num_c, abs=1e-10)


def test_validate_ladder_barriers():
    validate_ladder_barriers([0.3, 0.55, 1.0], 0.17)
    validate_ladder_barriers([1.0 - 0.17, 1.0], 0.17)
    with pytest.raises(ConfigError):
        validate_ladder_barriers([0.9, 1.0], 0.17)


def test_contagion_must_vanish_at_whole_portfolio():
    """A contagion loading on the x = 1 slice is rejected at construction."""
    with pytest.raises(ConfigError):
        CoefficientSpec(
            dimension=1,
            b=lambda t, T, x, ell: np.zeros(1),
            c=lambda t, T, x, y, ell: 0.8,
        )


# --------------------------------------------------------------------------
# drift conditions
# --------------------------------------------------------------------------

def test_dc1_gaussian_constant_volatility():
    """With constant scalar volatility a*(t,s) = (sigma_b (s-t))^2 / 2."""
    coeffs = build_coefficients(
        (constant_component([0.022]),), no_contagion(), "no_arbitrage", 1
    )
    trip = LevyTriplet(m=np.zeros(1), sigma=np.ones((1, 1)))
    val = dc1_drift(coeffs, None, trip, 0.3, 1.6, 0.7, 0.0)
    assert val == pytest.approx(0.00040898000000000003, rel=1e-13)
    # b* itself
    np.testing.assert_allclose(b_star(coeffs, 0.3, 1.6, 0.7, 0.0), [0.0286],
                               rtol=1e-14)


def test_dc1_flat_contagion_value():
    """Contagion adds w(e^{-c*} - 1) per in-support mark (frozen value)."""
    coeffs = build_coefficients((), flat_contagion(0.8), "no_arbitrage", 1)
    trip = LevyTriplet(m=np.zeros(1), sigma=np.zeros((1, 1)))
    spec = LossCompensatorSpec.constant(2.0, [(0.3, 1.0)])
    val = dc1_drift(coeffs, spec, trip, 0.2, 0.9, 0.7, 0.0)
    assert val == pytest.approx(-0.85758187230237026, rel=1e-13)
    assert c_star(coeffs, 0.2, 0.9, 0.7, 0.3, 0.0) == pytest.approx(0.56, rel=1e-14)


def test_dc1_indicator_removes_bridging_marks():
    """Marks that would overshoot the barrier do not enter the drift."""
    coeffs = build_coefficients((), flat_contagion(0.8), "no_arbitrage", 1)
    trip = LevyTriplet(m=np.zeros(1), sigma=np.zeros((1, 1)))
    spec = LossCompensatorSpec.constant(2.0, [(0.3, 1.0)])
    assert dc1_drift(coeffs, spec, trip, 0.2, 0.9, 0.25, 0.0) == pytest.approx(0.0)


def test_dc1_rejects_crossed_slice():
    coeffs = build_coefficients((), no_contagion(), "no_arbitrage", 1)
    trip = LevyTriplet(m=np.zeros(1), sigma=np.zeros((1, 1)))
    with pytest.raises(StateError):
        dc1_drift(coeffs, None, trip, 0.0, 1.0, 0.3, 0.5)


def test_pointwise_drift_is_derivative_of_integrated():
    """a(t, T) equals the T-derivative of a*(t, T) (central differences)."""
    coeffs = build_coefficients(
        (constant_component([0.02]), exp_decay_component([0.01], 0.7)),
        ladder_contagion(LADDER_RATE, LADDER_MARK),
        "no_arbitrage",
        1,
    )
    trip = LevyTriplet(m=np.zeros(1), sigma=np.array([[1.3]]))
    spec = LossCompensatorSpec.constant(LADDER_RATE, [(LADDER_MARK, 1.0)])
    t, T, x = 0.2, 1.7, 0.55
    h = 1e-6
    num = (dc1_drift(coeffs, spec, trip, t, T + h, x, 0.0)
           - dc1_drift(coeffs, spec, trip, t, T - h, x, 0.0)) / (2 * h)
    val = dc1_drift_pointwise(coeffs, spec, trip, t, T, x, 0.0)
    assert val == pytest.approx(num, rel=1e-7, abs=1e-10)


def test_riskfree_drift_wraps_laplace():
    trip = LevyTriplet(m=np.zeros(1), sigma=np.ones((1, 1)))
    a_star = riskfree_drift(lambda t, s: np.array([0.022 * (s - t)]), trip)
    assert a_star(0.3, 1.6) == pytest.approx(0.00040898000000000003, rel=1e-13)
    tail = LevyTriplet(
        m=np.zeros(1), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.exponential(1.0, 3.0),
    )
    a_bad = riskfree_drift(lambda t, s: np.array([-4.0 * (s - t)]), tail)
    with pytest.raises(DomainError, match="s=0.8"):
        a_bad(0.0, 0.8)


def test_dc2_adds_crossing_intensity():
    surf = ForwardSurface.from_function(
        lambda T, x: np.full_like(np.asarray(T, dtype=float), 0.05),
        np.linspace(0.0, 2.0, 9), np.array([0.3, 1.0]),
    )
    spec = LossCompensatorSpec.constant(2.0, [(0.5, 1.0)])
    assert dc2_short_rate(surf, spec, 0.0, 0.3, 0.0) == pytest.approx(2.05)
    assert dc2_short_rate(surf, spec, 0.0, 1.0, 0.0) == pytest.approx(0.05)
    assert dc2_short_rate(surf, None, 0.0, 0.3, 0.0) == pytest.approx(0.05)
    with pytest.raises(StateError):
        dc2_short_rate(surf, spec, 0.5, 0.3, 0.0)


# --------------------------------------------------------------------------
# surfaces and bonds
# --------------------------------------------------------------------------

def test_bond_price_flat_curve():
    surf = ForwardSurface.from_function(
        lambda T, x: np.full_like(np.asarray(T, dtype=float), 0.05),
        np.linspace(0.0, 3.0, 13), np.array([0.4, 1.0]),
    )
    q = bond_price(surf, 0.0, 0.0, 2.0, 0.4)
    assert q.price == pytest.approx(0.90483741803595952, rel=1e-12)
    crossed = bond_price(surf, 0.5, 0.0, 2.0, 0.4)
    assert crossed.price == 0.0
    assert crossed.predefault == pytest.approx(0.90483741803595952, rel=1e-12)


def test_bond_price_requires_matching_time():
    surf = make_ladder_surface()
    with pytest.raises(StateError):
        bond_price(surf, 0.0, 0.5, 2.0, 0.3)


def test_barrier_weights_modes():
    mats = np.linspace(0.0, 1.0, 5)
    xs = np.array([0.2, 0.6, 1.0])
    vals = np.tile([[0.01, 0.02, 0.03]], (5, 1))
    lin = ForwardSurface(maturities=mats, barriers=xs, values=vals)
    idx, w = lin.barrier_weights(0.6)
    assert idx == (1,) and w == (1.0,)
    idx, w = lin.barrier_weights(0.8)
    assert idx == (1, 2)
    np.testing.assert_allclose(w, [0.5, 0.5])
    idx, w = lin.barrier_weights(0.1)  # constant extension below the grid
    assert idx == (0,) and w == (1.0,)
    left = ForwardSurface(maturities=mats, barriers=xs, values=vals,
                          x_interp="left")
    idx, w = left.barrier_weights(0.8)
    assert idx == (1,) and w == (1.0,)
    rigid = ForwardSurface(maturities=mats, barriers=xs, values=vals,
                           interpolate=False)
    with pytest.raises(GridError):
        rigid.barrier_weights(0.8)
    with pytest.raises(GridError):
        lin.barrier_weights(1.2)


def test_maturity_integral_exact_for_linear_surface():
    mats = np.linspace(0.0, 2.0, 9)
    surf = ForwardSurface(
        maturities=mats, barriers=np.array([1.0]),
        values=(0.01 + 0.03 * mats)[:, None],
    )
    a, b = 0.3, 1.7
    want = 0.01 * (b - a) + 0.015 * (b * b - a * a)
    assert surf.maturity_integral(a, b, 1.0) == pytest.approx(want, rel=1e-13)


def test_surface_validation():
    mats = np.linspace(0.0, 1.0, 3)
    with pytest.raises(GridError):
        ForwardSurface(maturities=mats, barriers=np.array([0.5, 0.9]),
                       values=np.zeros((3, 2)))
    with pytest.raises(ConfigError):
        ForwardSurface(maturities=mats, barriers=np.array([0.5, 1.0]),
                       values=np.full((3, 2), np.nan))


# --------------------------------------------------------------------------
# evolution engine
# --------------------------------------------------------------------------

def _zero_record(grid, d, jump_times=(), jump_marks=(), small_mean=None):
    grid = np.asarray(grid, dtype=float)
    marks = np.asarray(jump_marks, dtype=float).reshape(-1, d)
    return LevyPathRecord(
        time_grid=grid,
        gaussian=np.zeros((len(grid) - 1, d)),
        drift=np.zeros((len(grid) - 1, d)),
        jump_times=np.asarray(jump_times, dtype=float),
        jump_marks=marks,
        small_jump_mean=np.zeros(d) if small_mean is None else small_mean,
    )


def test_build_master_grid_contains_anchors():
    grid = build_master_grid(2.0, 0.3, include=[0.5, 1.25])
    assert grid[0] == 0.0 and grid[-1] == 2.0
    for t in (0.5, 1.25):
        assert np.min(np.abs(grid - t)) < 1e-15
    assert np.max(np.diff(grid)) <= 0.3 + 1e-12
    with pytest.raises(GridError):
        build_master_grid(-1.0, 0.1)
    with pytest.raises(GridError):
        build_master_grid(1.0, 0.1, include=[2.0])


def test_evolution_is_drift_reintegration(ladder_coeffs, gauss2, ladder_loss,
                                          ladder_surface):
    """On a noiseless path the surface moves by exactly the integrated drift.

    f(t, T, x) - f(0, T, x) must equal the time integral of the pointwise
    no-arbitrage drift, independently re-integrated by adaptive quadrature.
    """
    grid = np.linspace(0.0, 1.0, 33)
    rec = _zero_record(grid, 2)
    lpath = LossPath(np.empty(0), np.empty(0), 1.0)
    snaps = evolve_surface(ladder_surface, ladder_coeffs, gauss2, ladder_loss,
                           rec, lpath, grid)
    final = snaps[-1]
    assert final.t == pytest.approx(1.0)
    for T, x in ((2.0, 0.3), (1.5, 0.55), (3.0, 1.0)):
        drift, _ = quad(
            lambda s: dc1_drift_pointwise(ladder_coeffs, ladder_loss, gauss2,
                                          s, T, x, 0.0),
            0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=300,
        )
        moved = final.forward_at(T, x) - ladder_surface.forward_at(T, x)
        assert moved == pytest.approx(drift, abs=1e-10)


def test_jump_only_evolution_is_grid_independent():
    """Without a Brownian part the scheme has no stepping error.

    The same driver jumps and loss path evolved on a grid and its refinement
    agree at the shared nodes to quadrature precision.
    """
    trip = jump_only_triplet()
    coeffs = build_coefficients(
        (constant_component([0.018]),), ladder_contagion(0.3, 0.3),
        "no_arbitrage", 1,
    )
    spec = LossCompensatorSpec.constant(0.3, [(0.3, 1.0)])
    surf = make_ladder_surface(horizon=2.0, n_nodes=17, barriers=(0.25, 1.0))
    jt, jz = [0.4, 1.3], [[-0.4], [0.6]]
    lpath = LossPath(np.array([0.9]), np.array([0.3]), 2.0)

    results = {}
    for label, dt in (("coarse", 1.0 / 8), ("fine", 1.0 / 16)):
        grid = build_master_grid(2.0, dt)
        rec = _zero_record(grid, 1, jt, jz, trip.small_jump_mean)
        results[label] = (grid, evolve_surface(surf, coeffs, trip, spec, rec,
                                               lpath, grid))
    coarse_grid, coarse = results["coarse"]
    fine_grid, fine = results["fine"]
    for ci, t in enumerate(coarse_grid):
        fi = int(np.argmin(np.abs(fine_grid - t)))
        assert abs(fine_grid[fi] - t) < 1e-12
        np.testing.assert_allclose(coarse[ci].values, fine[fi].values,
                                   atol=1e-8, rtol=0)
        np.testing.assert_allclose(coarse[ci].diagonal, fine[fi].diagonal,
                                   atol=1e-8, rtol=0)


def test_jump_only_chunks_are_grid_independent():
    """Drawn chunks: events are grid-free, so reports are too (jump-only)."""
    trip = jump_only_triplet()
    coeffs = build_coefficients(
        (constant_component([0.018]),), ladder_contagion(0.3, 0.3),
        "no_arbitrage", 1,
    )
    spec = LossCompensatorSpec.constant(0.3, [(0.3, 1.0)])
    surf = make_ladder_surface(horizon=2.0, n_nodes=17, barriers=(0.25, 1.0))
    out = {}
    for label, dt in (("coarse", 1.0 / 8), ("fine", 1.0 / 32)):
        grid = build_master_grid(2.0, dt, include=[1.0])
        eng = SurfaceEngine(coeffs, trip, spec, surf, grid)
        node = int(np.argmin(np.abs(grid - 1.0)))
        grab = {}

        def collect(pos, state, _g=grab):
            _g["v"] = state.values.copy()
            _g["R"] = state.discount_log.copy()
            _g["r"] = state.short_rate.copy()
            _g["loss"] = state.loss.copy()

        eng.run_chunk(128, 31, 0, [collect], [node])
        out[label] = grab
    np.testing.assert_allclose(out["coarse"]["v"], out["fine"]["v"], atol=1e-8)
    np.testing.assert_allclose(out["coarse"]["R"], out["fine"]["R"], atol=1e-9)
    np.testing.assert_allclose(out["coarse"]["r"], out["fine"]["r"], atol=1e-9)
    np.testing.assert_array_equal(out["coarse"]["loss"], out["fine"]["loss"])


def test_evolution_with_jumps_is_drift_reintegration(ladder_coeffs,
                                                     ladder_loss,
                                                     ladder_surface):
    """Driver and loss jumps: the surface is drift plus closed-form jumps.

    With zero Gaussian increments, on every alive slice

        f(t,T,x) - f(0,T,x) = int_0^t [a(s,T,x,L_s) + <b(s,T), m_c>] ds
                              + sum_j b(u_j,T)·z_j
                              + sum_e c(t_e,T,x,y_e,L_{t_e-}),

    with the drift a re-integrated by adaptive quadrature at the
    piecewise-constant loss level. The short rate is the same construction
    at T = t, x = 1 and the discount integral is its time integral.
    """
    trip = LevyTriplet(
        m=np.zeros(2), sigma=np.array([[1.0, 0.3], [0.3, 1.0]]),
        jumps=JumpMeasureSpec.compound_poisson(
            1.0, [([0.3, -0.2], 0.6), ([-0.1, 0.4], 0.4)]
        ),
    )
    grid = build_master_grid(1.0, 1.0 / 32)
    jt, jz = np.array([0.23, 0.71]), np.array([[0.3, -0.2], [-0.1, 0.4]])
    # one loss jump on the node 12/32, one inside a step; the second
    # crosses the x = 0.3 slice
    lt = np.array([0.375, 0.6])
    ly = np.full(2, LADDER_MARK)
    lpath = LossPath(lt, ly, 1.0)
    rec = _zero_record(grid, 2, jt, jz, trip.small_jump_mean)
    snaps = evolve_surface(ladder_surface, ladder_coeffs, trip, ladder_loss,
                           rec, lpath, grid)
    got = {}
    eng = SurfaceEngine(ladder_coeffs, trip, ladder_loss, ladder_surface, grid)

    def collect(pos, state):
        got[pos] = (float(state.short_rate[0]), float(state.discount_log[0]),
                    float(state.loss[0]))

    report = [int(np.argmin(np.abs(grid - t))) for t in (0.375, 0.6875, 1.0)]
    eng.run_chunk(1, 0, 0, [collect], report, injected=(rec, lpath))

    m_c = trip.continuous_drift
    levels = np.concatenate([[0.0], np.cumsum(ly)])
    brk = np.concatenate([[0.0], lt])

    def loss_at(s):
        return float(levels[np.searchsorted(lt, s, side="left")])

    def drift(s, T, x):
        b = np.asarray(ladder_coeffs.b(s, T, x, 0.0), dtype=float)
        return (dc1_drift_pointwise(ladder_coeffs, ladder_loss, trip, s, T, x,
                                    loss_at(s)) + float(b @ m_c))

    def drift_integral(t, T, x):
        cuts = np.concatenate([brk[brk < t], [t]])
        return sum(
            quad(drift, a, b, args=(T, x), epsabs=1e-13, epsrel=1e-12,
                 limit=300)[0]
            for a, b in zip(cuts[:-1], cuts[1:])
        )

    def driver_jumps(t, T, x):
        return sum(float(np.asarray(ladder_coeffs.b(u, T, x, 0.0)) @ z)
                   for u, z in zip(jt, jz) if u <= t)

    def contagion(t, T, x):
        return sum(float(np.asarray(ladder_coeffs.eval_c(te, T, x, y,
                                                         loss_at(te))))
                   for te, y in zip(lt, ly) if te <= t)

    def short_rate(t):
        return (ladder_surface.forward_at(t, 1.0) + drift_integral(t, t, 1.0)
                + driver_jumps(t, t, 1.0))

    crossed = 0
    for pos, node in enumerate(report):
        t = float(grid[node])
        snap = snaps[node]
        lv = loss_at(t + 1e-12)
        assert got[pos][2] == pytest.approx(lv, abs=1e-15)
        for i, x in enumerate(ladder_surface.barriers):
            if lv > x:
                crossed += 1
                continue
            for g, T in enumerate(ladder_surface.maturities):
                if T <= t:
                    continue
                want = (drift_integral(t, T, x) + driver_jumps(t, T, x)
                        + contagion(t, T, x))
                moved = snap.values[g, i] - ladder_surface.values[g, i]
                assert moved == pytest.approx(want, abs=1e-8), (t, T, x)
        assert got[pos][0] == pytest.approx(short_rate(t), abs=1e-8)
        cuts = np.concatenate([[0.0], jt[jt < t], [t]])
        disc = sum(quad(short_rate, a, b, epsabs=1e-12, limit=200)[0]
                   for a, b in zip(cuts[:-1], cuts[1:]))
        assert got[pos][1] == pytest.approx(disc, abs=1e-8)
    assert crossed == 2  # x = 0.3 is crossed at the last two report times


def test_driver_draws_are_sorted_per_path(ladder_coeffs, ladder_surface):
    """The chunk's driver jumps: counts, then times, then marks from one
    generator, each path's draws sorted by time with their marks."""
    trip = LevyTriplet(
        m=np.zeros(2), sigma=np.zeros((2, 2)),
        jumps=JumpMeasureSpec.compound_poisson(
            3.0, [([0.3, -0.2], 0.6), ([-0.1, 0.4], 0.4)]),
    )
    eng = SurfaceEngine(ladder_coeffs, trip, None, ladder_surface,
                        build_master_grid(1.0, 0.25))
    n = 40
    jp, jt, jz = eng._draw_levy_events(chunk_generator(3, STREAM_LEVY, 1), n)
    rng = chunk_generator(3, STREAM_LEVY, 1)
    counts = rng.poisson(3.0, size=n)
    m = counts.max()
    times = rng.uniform(0.0, 1.0, size=(n, m))
    marks = trip.jumps.atom_z[rng.choice(2, size=(n, m), p=[0.6, 0.4])]
    want_p, want_t, want_z = [], [], []
    for p in range(n):
        order = np.argsort(times[p, :counts[p]], kind="stable")
        want_p += [p] * counts[p]
        want_t += list(times[p, :counts[p]][order])
        want_z += list(marks[p, :counts[p]][order])
    np.testing.assert_array_equal(jp, want_p)
    np.testing.assert_array_equal(jt, want_t)
    np.testing.assert_array_equal(jz, np.reshape(want_z, (-1, 2)))


def test_chunk_paths_match_single_path_runs():
    """A path of a drawn chunk equals the same path run alone.

    Pure-jump driver and a loss rate high enough that some paths take two
    loss jumps in one step: the chunk's batched event tables must give
    each path what a one-path run with its own draws injected gives.
    """
    trip = jump_only_triplet()
    rate, mark = 4.0, 0.1
    coeffs = build_coefficients(
        (constant_component([0.018]), exp_decay_component([0.012], 0.5)),
        ladder_contagion(rate, mark), "no_arbitrage", 1,
    )
    spec = LossCompensatorSpec.constant(rate, [(mark, 1.0)])
    surf = make_ladder_surface(horizon=2.0, n_nodes=17, barriers=(0.25, 0.55, 1.0))
    grid = build_master_grid(1.0, 0.25)
    eng = SurfaceEngine(coeffs, trip, spec, surf, grid)
    report = [2, 4]
    n, seed = 64, 13

    def grab(store):
        def collect(pos, state):
            store[pos] = (state.values.copy(), state.discount_log.copy(),
                          state.short_rate.copy(), state.loss.copy())
        return collect

    chunk = {}
    eng.run_chunk(n, seed, 0, [grab(chunk)], report)
    jp, jt, jz = eng._draw_levy_events(chunk_generator(seed, STREAM_LEVY, 0), n)
    lt, ly, counts = simulate_loss_paths_bulk(
        spec, 1.0, chunk_generator(seed, STREAM_LOSS, 0), n)
    lp = np.repeat(np.arange(n), counts)
    step = np.searchsorted(grid, lt, side="left") - 1
    doubled = [p for p in range(n)
               if np.any(np.bincount(step[lp == p]) >= 2) and np.any(jp == p)]
    j_step = np.searchsorted(grid, jt, side="left") - 1
    driven = [p for p in range(n) if np.any(np.bincount(j_step[jp == p]) >= 2)]
    assert len(doubled) >= 2 and driven
    quiet = [p for p in range(n) if counts[p] == 0]
    for p in doubled[:3] + driven[:1] + quiet[:1]:
        rec = _zero_record(grid, 1, jt[jp == p], jz[jp == p],
                           trip.small_jump_mean)
        single = {}
        eng.run_chunk(1, 0, 0, [grab(single)], report,
                      injected=(rec, LossPath(lt[lp == p], ly[lp == p], 1.0)))
        for pos in range(len(report)):
            vals, disc, rate_, loss = chunk[pos]
            s_vals, s_disc, s_rate, s_loss = single[pos]
            np.testing.assert_allclose(s_vals[0], vals[p], atol=1e-12, rtol=0)
            assert abs(s_disc[0] - disc[p]) <= 1e-12
            assert abs(s_rate[0] - rate_[p]) <= 1e-12
            assert s_loss[0] == loss[p]


def test_callable_drift_with_loss_level_is_reintegrated(gauss2, ladder_loss,
                                                        ladder_surface):
    """A user drift a(t, T, x, ell) runs at the piecewise-constant level.

    No Brownian part and two injected loss jumps inside steps (the second
    crosses x = 0.3): on every alive slice f(t,T,x) - f(0,T,x) equals the
    quadrature of a(s, T, x, L_s) plus the contagion jumps.
    """
    def drift(t, T, x, ell):
        # loss-free on the x = 1 slice, as the engine requires
        return (0.002 * np.cos(t) * np.exp(-0.2 * T)
                + (1.0 - x) * 0.01 * ell * (1.0 + t * T))

    base = build_coefficients(
        (constant_component([0.022, 0.0]), exp_decay_component([0.0, 0.016], 0.4)),
        ladder_contagion(LADDER_RATE, LADDER_MARK), "no_arbitrage", 2,
    )
    coeffs = dataclasses.replace(base, drift=drift)
    grid = build_master_grid(1.0, 1.0 / 8)
    lt, ly = np.array([0.3, 0.7]), np.full(2, LADDER_MARK)
    snaps = evolve_surface(ladder_surface, coeffs, gauss2, ladder_loss,
                           _zero_record(grid, 2), LossPath(lt, ly, 1.0), grid)
    levels = np.concatenate([[0.0], np.cumsum(ly)])

    def loss_at(s):
        return float(levels[np.searchsorted(lt, s, side="left")])

    checked = 0
    for node in (4, 8):
        t = float(grid[node])
        cuts = np.concatenate([[0.0], lt[lt < t], [t]])
        for i, x in enumerate(ladder_surface.barriers):
            if loss_at(t + 1e-12) > x:
                continue
            for g, T in enumerate(ladder_surface.maturities):
                if T <= t:
                    continue
                want = sum(quad(lambda s: drift(s, T, x, loss_at(s)), a, b,
                                epsabs=1e-13, epsrel=1e-12)[0]
                           for a, b in zip(cuts[:-1], cuts[1:]))
                want += sum(float(np.asarray(coeffs.eval_c(te, T, x, y,
                                                           loss_at(te))))
                            for te, y in zip(lt, ly) if te <= t)
                moved = snaps[node].values[g, i] - ladder_surface.values[g, i]
                assert moved == pytest.approx(want, abs=1e-8), (t, T, x)
                checked += 1
    assert checked > 0


def test_snapshot_diagonal_is_short_rate_plus_intensity(
    ladder_coeffs, gauss2, ladder_loss, ladder_surface
):
    """Snapshots carry f(t,t,x) = r + lambda exactly on alive slices."""
    from levycdo.loss import intensity_lambda

    grid = build_master_grid(1.0, 1.0 / 16)
    eng = SurfaceEngine(ladder_coeffs, gauss2, ladder_loss, ladder_surface, grid)
    node = len(grid) - 1
    got = {}

    def collect(pos, state):
        got["snap"] = eng.surface_snapshot(state, 3)
        got["r"] = float(state.short_rate[3])
        got["loss"] = float(state.loss[3])

    eng.run_chunk(8, 21, 0, [collect], [node])
    snap, r, lv = got["snap"], got["r"], got["loss"]
    assert snap.diagonal[-1] == pytest.approx(r, abs=1e-15)
    for i, x in enumerate(snap.barriers[:-1]):
        if lv <= x:
            lam = intensity_lambda(snap.t, float(x), lv, ladder_loss)
            assert snap.diagonal[i] == pytest.approx(r + lam, abs=1e-13)


def test_engine_configuration_errors(gauss2, ladder_surface):
    zero_c = lambda t, T, x, y, ell: np.zeros_like(np.asarray(T, dtype=float))
    grid = build_master_grid(1.0, 0.25)
    loss_dep = CoefficientSpec(
        dimension=2, b=lambda t, T, x, ell: np.zeros(2), c=zero_c,
    )
    with pytest.raises(ConfigError, match="loss-independent"):
        SurfaceEngine(loss_dep, gauss2, None, ladder_surface, grid)
    no_comps = CoefficientSpec(
        dimension=2, b=lambda t, T, x, ell: np.zeros(2), c=zero_c,
        b_loss_dependent=False,
    )
    with pytest.raises(ConfigError, match="separable"):
        SurfaceEngine(no_comps, gauss2, None, ladder_surface, grid)
    mismatched = CoefficientSpec(
        dimension=2, b=lambda t, T, x, ell: np.full(2, 0.05), c=zero_c,
        b_loss_dependent=False, b_components=(), b_x_flat=True,
    )
    with pytest.raises(ConfigError, match="decomposition"):
        SurfaceEngine(mismatched, gauss2, None, ladder_surface, grid)
    barrier_dependent = CoefficientSpec(
        dimension=2, b=lambda t, T, x, ell: np.full(2, 0.05 * x), c=zero_c,
        b_loss_dependent=False,
        b_components=build_coefficients(
            (constant_component([0.05, 0.05]),), no_contagion(),
            "no_arbitrage", 2,
        ).b_components,
    )
    with pytest.raises(ConfigError, match="barrier-flat"):
        SurfaceEngine(barrier_dependent, gauss2, None, ladder_surface, grid)


def test_engine_with_loss_requires_vectorized_contagion(
        ladder_coeffs, gauss2, ladder_loss, ladder_surface):
    """With a loss process the engine evaluates contagion rows in one array
    call per event group: a spec without ``b_vectorized`` is rejected."""
    scalar = dataclasses.replace(ladder_coeffs, b_vectorized=False)
    with pytest.raises(ConfigError, match="b_vectorized"):
        SurfaceEngine(scalar, gauss2, ladder_loss, ladder_surface,
                      build_master_grid(1.0, 0.25))


def test_no_arbitrage_engine_with_loss_requires_contagion_integral(
        ladder_coeffs, gauss2, ladder_loss, ladder_surface):
    """The no-arbitrage drift tables need c* as one array call: a loss
    process without ``c_integral`` is rejected under that drift."""
    no_integral = dataclasses.replace(ladder_coeffs, c_integral=None)
    with pytest.raises(ConfigError, match="c_integral"):
        SurfaceEngine(no_integral, gauss2, ladder_loss, ladder_surface,
                      build_master_grid(1.0, 0.25))


def _former_component_tables(engine):
    """psi at the nodes, its step integrals, psi at the maturities and phi
    at the left step ends, built one element at a time as the engine once
    built them."""
    grid, comps = engine.grid, engine._comps
    at_node = np.empty((len(grid), len(comps)))
    int_step = np.empty((len(grid) - 1, len(comps)))
    at_T = np.empty((len(comps), engine.nT))
    phi_left = np.empty((len(grid) - 1, len(comps), engine.d))
    for ci, comp in enumerate(comps):
        for ni, t in enumerate(grid):
            at_node[ni, ci] = float(np.asarray(comp.psi(np.asarray(t))))
        for s_idx in range(len(grid) - 1):
            int_step[s_idx, ci] = float(
                comp.psi_integral(grid[s_idx], grid[s_idx + 1]))
            phi_left[s_idx, ci] = np.asarray(comp.phi(grid[s_idx]))
        for g, T in enumerate(engine.maturities):
            at_T[ci, g] = float(np.asarray(comp.psi(np.asarray(T))))
    return at_node, int_step, at_T, phi_left


@pytest.mark.parametrize("components",
                         [comps for comps, _ in VOL_COMPONENTS.values()],
                         ids=list(VOL_COMPONENTS))
def test_component_tables_equal_elementwise_construction(
        components, gauss2, ladder_surface):
    """The engine's component tables, one array call per component, equal
    the element-by-element tables bit for bit; with no components they are
    empty in the component axis."""
    coeffs = build_coefficients(components, no_contagion(), "no_arbitrage",
                                2)
    grid = build_master_grid(2.0, 0.15, include=(0.33, 1.25))
    eng = SurfaceEngine(coeffs, gauss2, None, ladder_surface, grid)
    at_node, int_step, at_T, phi_left = _former_component_tables(eng)
    assert np.array_equal(eng._psi_at_node, at_node)
    assert np.array_equal(eng._psi_int_step, int_step)
    assert np.array_equal(eng._psi_T, at_T)
    assert np.array_equal(eng._phi_left, phi_left)
    n = len(components)
    assert eng._psi_at_node.shape == (len(grid), n)
    assert eng._phi_left.shape == (len(grid) - 1, n, 2)
    assert eng._phi_at(np.array([0.1, 0.2, 0.3])).shape == (3, n, 2)


def test_engine_grid_errors(ladder_coeffs, gauss2, ladder_surface):
    with pytest.raises(GridError):
        SurfaceEngine(ladder_coeffs, gauss2, None, ladder_surface,
                      np.array([0.5, 1.0]))
    with pytest.raises(GridError):
        SurfaceEngine(ladder_coeffs, gauss2, None, ladder_surface,
                      np.array([0.0, 5.0]))
    with pytest.raises(GridError):
        SurfaceEngine(ladder_coeffs, gauss2, None, ladder_surface,
                      np.array([0.0, 0.5, 0.5, 1.0]))


def test_engine_enforces_declared_volatility_bound(gauss2, ladder_surface):
    coeffs = build_coefficients(
        (constant_component([0.022, 0.0]),), no_contagion(), "no_arbitrage", 2,
        b_bound=0.01,
    )
    with pytest.raises(BoundError):
        SurfaceEngine(coeffs, gauss2, None, ladder_surface,
                      build_master_grid(1.0, 0.25))


def test_engine_flags_non_finite_drift(gauss2, ladder_surface):
    """A user drift callable that produces NaN stops the run with StepError."""
    import warnings

    coeffs = build_coefficients(
        (constant_component([0.01, 0.0]),), no_contagion(), "no_arbitrage", 2,
    )
    bad = CoefficientSpec(
        dimension=2, b=coeffs.b, c=coeffs.c, drift=lambda t, T, x, ell: np.nan,
        b_integral=coeffs.b_integral, c_integral=coeffs.c_integral,
        b_components=coeffs.b_components, b_loss_dependent=False,
        b_vectorized=True, b_x_flat=True,
    )
    grid = build_master_grid(1.0, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eng = SurfaceEngine(bad, gauss2, None, ladder_surface, grid)
        rec = _zero_record(grid, 2)
        with pytest.raises(StepError):
            eng.run_chunk(1, 0, 0, [lambda pos, state: None],
                          [len(grid) - 1], injected=(rec, None))


def test_engine_flags_non_finite_adjustment_before_any_reader(
        ladder_coeffs, gauss2, ladder_loss, ladder_surface):
    """A non-finite contagion row stops the run at the next report node,
    naming its maturity and barrier, though the collector reads nothing."""
    grid = build_master_grid(1.0, 0.25)
    eng = SurfaceEngine(ladder_coeffs, gauss2, ladder_loss, ladder_surface,
                        grid)
    for lv in (0.0, LADDER_MARK):
        eng._cum_extra(lv)      # drift tables built before the fault
    rows = eng._c_rows

    def bad_rows(ts, x, y, ell):
        out = rows(ts, x, y, ell)
        out[:, 30] = np.nan
        return out

    eng._c_rows = bad_rows
    jump = LossPath(np.array([0.3]), np.array([LADDER_MARK]), 1.0)
    T = eng.maturities[30]
    with pytest.raises(StepError, match=f"t=0.5 .maturity {T:.6g}, barrier 0.3"):
        eng.run_chunk(1, 0, 0, [lambda pos, state: None], [0, 1, 2],
                      injected=(_zero_record(grid, 2), jump))


def test_engine_flags_non_finite_level_table(ladder_coeffs, gauss2,
                                             ladder_loss, ladder_surface):
    grid = build_master_grid(1.0, 0.25)
    eng = SurfaceEngine(ladder_coeffs, gauss2, ladder_loss, ladder_surface,
                        grid)
    table = eng._cum_extra(0.0).copy()
    table[3, 40, 1] = np.inf
    eng._cumX_cache[0.0] = table
    T = eng.maturities[40]
    with pytest.raises(StepError, match=f"t=0.75 .maturity {T:.6g}, barrier 0.55"):
        eng.run_chunk(4, 0, 0, [lambda pos, state: None], [1, 2, 3])


def test_engine_names_first_non_finite_rate_of_the_surface(
        ladder_coeffs, gauss2, ladder_loss, ladder_surface):
    """With a non-finite contagion row and a non-finite level table at the
    same node, the error names the surface's first non-finite rate in
    (path, maturity, barrier) order: the adjustment's, at the earlier
    maturity, not the table's."""
    grid = build_master_grid(1.0, 0.25)
    eng = SurfaceEngine(ladder_coeffs, gauss2, ladder_loss, ladder_surface,
                        grid)
    table = eng._cum_extra(LADDER_MARK).copy()
    table[2, 40, 1] = np.inf
    eng._cumX_cache[LADDER_MARK] = table
    eng._cum_extra(0.0)
    rows = eng._c_rows

    def bad_rows(ts, x, y, ell):
        out = rows(ts, x, y, ell)
        out[:, 30] = np.nan
        return out

    eng._c_rows = bad_rows
    jump = LossPath(np.array([0.3]), np.array([LADDER_MARK]), 1.0)
    T = eng.maturities[30]
    with pytest.raises(StepError, match=f"t=0.5 .maturity {T:.6g}, barrier 0.3"):
        eng.run_chunk(1, 0, 0, [lambda pos, state: None], [0, 1, 2],
                      injected=(_zero_record(grid, 2), jump))

def _former_extra_drift(engine, ss, ell):
    """The loss part of the drift table as built before the support rule
    was taken once per level: one ``effective_atoms`` call per time."""
    out = np.zeros((len(ss), engine.nT, engine.nx))
    spec = engine.loss_spec
    atoms = [spec.effective_atoms(float(s), ell) for s in ss]
    ys = atoms[0][0]
    ws = np.array([w for _, w in atoms]).reshape(len(ss), len(ys))
    for i, x in enumerate(engine.barriers):
        if ell > x:
            continue
        for k, y in enumerate(ys):
            if ell + y > x or not ws[:, k].any():
                continue
            crow = engine._c_rows(ss, float(x), float(y), ell)
            cstar = engine._c_star_rows(ss, float(x), float(y), ell)
            out[:, :, i] -= ws[:, k, None] * crow * np.exp(-cstar)
    return out


@pytest.mark.filterwarnings("ignore:mark atoms above")
def test_time_dependent_drift_table_takes_support_rule_once_per_level(
        monkeypatch, ladder_coeffs, gauss2, ladder_surface):
    """Under a time-dependent loss spec the drift tables take the support
    rule once per loss level and the rate once per quadrature time; the
    table is the one the per-time construction gave."""
    spec = LossCompensatorSpec.from_callable(
        lambda t, l: LADDER_RATE * (1.0 + 0.5 * np.sin(3.0 * t)),
        [(LADDER_MARK, 1.0)], max_rate=1.5 * LADDER_RATE)
    grid = build_master_grid(2.0, 1 / 50)
    eng = SurfaceEngine(ladder_coeffs, gauss2, spec, ladder_surface, grid)
    ss = eng._gl_times.reshape(-1)
    for lv in (0.0, 0.34, 0.85):
        assert np.array_equal(eng._extra_drift_matrix_at(ss, lv),
                              _former_extra_drift(eng, ss, lv))

    calls = {"support": 0, "effective": 0}
    inside = [False]
    drift_at = SurfaceEngine._extra_drift_matrix_at
    support = LossCompensatorSpec._supported_atoms
    effective = LossCompensatorSpec.effective_atoms

    def drift_wrapper(self, ss, ell):
        inside[0] = True
        try:
            return drift_at(self, ss, ell)
        finally:
            inside[0] = False

    def counter(name, fn):
        def wrapper(*args):
            calls[name] += inside[0]
            return fn(*args)
        return wrapper

    monkeypatch.setattr(SurfaceEngine, "_extra_drift_matrix_at", drift_wrapper)
    monkeypatch.setattr(LossCompensatorSpec, "_supported_atoms",
                        counter("support", support))
    monkeypatch.setattr(LossCompensatorSpec, "effective_atoms",
                        counter("effective", effective))
    ladder = LossCompensatorSpec.from_callable(
        lambda t, l: LADDER_RATE, [(LADDER_MARK, 1.0)], LADDER_RATE)
    chunk = SurfaceEngine(ladder_coeffs, gauss2, ladder, ladder_surface, grid)
    chunk.run_chunk(16_384, 7, 0, [lambda pos, state: None], [len(grid) - 1])
    assert len(chunk._extra_cache) == 6
    assert calls == {"support": 6, "effective": 0}


def test_evolve_surface_checks_grid(ladder_coeffs, gauss2, ladder_surface):
    grid = np.linspace(0.0, 1.0, 9)
    rec = _zero_record(np.linspace(0.0, 1.0, 17), 2)
    with pytest.raises(GridError):
        evolve_surface(ladder_surface, ladder_coeffs, gauss2, None, rec, None,
                       grid)
