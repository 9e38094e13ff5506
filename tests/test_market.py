"""Discrete-tenor rates, the two drift routes, and the rate simulator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levycdo.errors import (
    BoundError,
    ConfigError,
    DegenerateRateError,
    DimensionError,
    DomainError,
    GridError,
    StateError,
)
from levycdo.families import (
    build_coefficients,
    constant_component,
    exp_decay_component,
    ladder_contagion,
    no_contagion,
    step_component,
)
from levycdo.hjm import CoefficientSpec, ForwardSurface, b_star, c_star
from levycdo.levy import JumpMeasureSpec, LevyTriplet
from levycdo.loss import LossCompensatorSpec, LossPath, intensity_lambda
from levycdo.market import (
    MarketCoefficientSpec,
    TenorStructure,
    _rate_drift_matrix,
    alpha_forward_bond,
    alpha_rate_model,
    discrete_rate_from_surface,
    drift_block_D,
    forward_bond_price,
    simulate_market_model,
)

from conftest import LADDER_MARK, LADDER_RATE


def quarterly_tenor(barriers=(0.3, 0.55, 1.0)) -> TenorStructure:
    return TenorStructure([0.5, 1.0, 1.5, 2.0, 2.5], barriers)


def zero_loading_spec(tenor, dimension=1, sigma=None, jumps=None):
    trip = LevyTriplet(
        m=np.zeros(dimension),
        sigma=np.eye(dimension) if sigma is None else sigma,
        jumps=JumpMeasureSpec.none() if jumps is None else jumps,
    )
    return MarketCoefficientSpec(
        tenor=tenor, dimension=dimension,
        beta=lambda t, k, i: np.zeros(dimension),
        gamma=lambda t, ell, y, k, i: 0.0,
        triplet=trip,
    )


# ---------------------------------------------------------------- tenor


def test_tenor_structure_validation():
    with pytest.raises(GridError, match="strictly increasing"):
        TenorStructure([1.0, 1.0, 2.0], [1.0])
    with pytest.raises(GridError, match="last barrier"):
        TenorStructure([0.5, 1.0], [0.3, 0.9])
    with pytest.raises(GridError, match="positive"):
        TenorStructure([0.0, 1.0], [1.0])
    tenor = quarterly_tenor()
    assert tenor.n_periods == 4
    np.testing.assert_allclose(tenor.accruals, 0.5)


def test_tenor_accruals_are_computed_once():
    tenor = TenorStructure([0.5, 1.0, 1.75], [1.0])
    assert tenor.accruals is tenor.accruals
    np.testing.assert_array_equal(tenor.accruals, [0.5, 0.75])
    with pytest.raises(ValueError):
        tenor.accruals[0] = 1.0


def test_eta_examples():
    tenor = quarterly_tenor()
    assert tenor.eta(0.0) == 0          # before the first date
    assert tenor.eta(0.5) == 0          # period 0 = [0.5, 1.0)
    assert tenor.eta(1.0) == 1
    assert tenor.eta(2.0 - 1e-9) == 2   # left limit of a reset date
    assert tenor.eta(2.4) == 3
    with pytest.raises(IndexError):
        tenor.eta(2.5)                  # no accrual period from the last date


@given(t=st.floats(min_value=0.0, max_value=2.5, exclude_max=True))
def test_eta_brackets_its_argument(t):
    tenor = quarterly_tenor()
    i = tenor.eta(t)
    T = tenor.maturities
    assert T[i + 1] > t
    assert i == 0 or T[i] <= t
    # right-continuity: a small step right never decreases the index
    assert tenor.eta(min(t + 1e-12, 2.5 - 1e-12)) >= i


# ------------------------------------------------- rates from a surface


def flat_surface(rate: float) -> ForwardSurface:
    return ForwardSurface.from_function(
        lambda T, x: np.full_like(np.asarray(T, dtype=float), rate),
        np.linspace(0.0, 3.0, 13),
        (0.3, 0.55, 1.0),
    )


def test_discrete_rate_flat_curve():
    tenor = quarterly_tenor()
    surf = flat_surface(0.02)
    rate = discrete_rate_from_surface(surf, tenor, 0.0, 0.0, k=1, i=2)
    assert rate.alive
    assert rate.value == pytest.approx((math.exp(0.02 * 0.5) - 1.0) / 0.5,
                                       rel=1e-14)
    zero = discrete_rate_from_surface(flat_surface(0.0), tenor, 0.0, 0.0, 0, 0)
    assert zero.value == 0.0


def test_discrete_rate_dead_slice_and_errors():
    tenor = quarterly_tenor()
    surf = flat_surface(0.02)
    dead = discrete_rate_from_surface(surf, tenor, 0.4, 0.0, k=0, i=0)
    assert dead.value == 0.0 and not dead.alive
    with pytest.raises(IndexError):
        discrete_rate_from_surface(surf, tenor, 0.0, 0.0, k=4, i=0)
    with pytest.raises(IndexError):
        discrete_rate_from_surface(surf, tenor, 0.0, 0.0, k=0, i=3)
    with pytest.raises(StateError):
        discrete_rate_from_surface(surf, tenor, 0.0, 0.7, k=0, i=0)


def test_forward_bond_price_flat_curve():
    surf = flat_surface(0.02)
    fb = forward_bond_price(surf, 0.0, 0.0, 1.0, 2.5, 0.55)
    assert fb.ratio == pytest.approx(math.exp(0.02 * 1.5), rel=1e-14)
    assert fb.value == fb.ratio and fb.alive
    dead = forward_bond_price(surf, 0.6, 0.0, 1.0, 2.5, 0.55)
    assert dead.value == 0.0 and not dead.alive and dead.ratio > 0
    with pytest.raises(DomainError):
        forward_bond_price(surf, 0.0, 0.0, 2.0, 1.0, 0.55)


# ------------------------------------------------------- drift block D


def linear_vol_coeffs():
    # b == 1 so the maturity integrals are 1 and 2 at T = 1, 2
    return CoefficientSpec(
        dimension=1,
        b=lambda t, s, x, ell: np.array([1.0]),
        c=lambda t, s, x, y, ell: 0.0,
        b_integral=lambda t, a, b, x, ell: np.array([b - a]),
        c_integral=lambda t, a, b, x, y, ell: 0.0,
        b_loss_dependent=False,
    )


def test_drift_block_covariance_oracle():
    tenor = TenorStructure([1.0, 2.0], [1.0])
    trip = LevyTriplet(m=np.zeros(1), sigma=np.eye(1))
    val = drift_block_D(linear_vol_coeffs(), None, trip, tenor, 0.0, 0, 0, 0.0)
    # integrals 1 and 2: <Sigma (2 - 1), 2> = 2
    assert val == pytest.approx(2.0, abs=1e-15)


def test_drift_block_single_atom_oracle():
    tenor = TenorStructure([1.0, 2.0], [1.0])
    trip = LevyTriplet(
        m=np.zeros(1), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.compound_poisson(1.0, [([0.5], 1.0)]),
    )
    coeffs = build_coefficients(
        (step_component([1.0], [1.0, 2.0], [1.0]),), no_contagion(),
        "no_arbitrage", 1,
    )
    # integrals 0 and 1: the atom contributes e^{0.5} - 1 + e^{-0.5} - 1
    val = drift_block_D(coeffs, None, trip, tenor, 0.0, 0, 0, 0.0)
    assert val == pytest.approx(math.exp(0.5) - 1 + math.exp(-0.5) - 1,
                                rel=1e-14)


def equal_star_coeffs():
    # b vanishes past T = 1, so the integrals to 1 and to 2 coincide
    return CoefficientSpec(
        dimension=1,
        b=lambda t, s, x, ell: np.array([1.0 if s <= 1.0 else 0.0]),
        c=lambda t, s, x, y, ell: 0.0,
        b_integral=lambda t, a, b, x, ell: np.array(
            [min(b, 1.0) - min(a, 1.0)]
        ),
        c_integral=lambda t, a, b, x, y, ell: 0.0,
        b_loss_dependent=False,
    )


def test_drift_block_equal_integrals():
    tenor = TenorStructure([1.0, 2.0], [0.3, 1.0])
    trip = LevyTriplet(
        m=np.zeros(1), sigma=np.eye(1),
        jumps=JumpMeasureSpec.compound_poisson(2.0, [([0.3], 1.0)]),
    )
    # without a loss measure every term vanishes when the integrals coincide
    val = drift_block_D(equal_star_coeffs(), None, trip, tenor, 0.0, 0, 1, 0.0)
    assert val == 0.0
    # with marks present the loss sum keeps its constant term: each
    # surviving mark contributes exactly its intensity weight here
    loss = LossCompensatorSpec.constant(0.4, [(0.2, 0.25), (0.4, 0.75)])
    val = drift_block_D(equal_star_coeffs(), loss, trip, tenor, 0.0, 0, 1, 0.0)
    assert val == pytest.approx(0.4, abs=1e-15)
    # at the x = 0.3 barrier only the small mark stays in support
    val = drift_block_D(equal_star_coeffs(), loss, trip, tenor, 0.0, 0, 0, 0.0)
    assert val == pytest.approx(0.4 * 0.25, abs=1e-15)
    with pytest.raises(StateError):
        drift_block_D(equal_star_coeffs(), loss, trip, tenor, 0.0, 0, 0, 0.6)


# ------------------------------------------------- forward-bond drift


def test_alpha_forward_bond_zero_loadings():
    tenor = quarterly_tenor(barriers=(0.2, 0.6, 1.0))
    mspec = zero_loading_spec(tenor)
    loss = LossCompensatorSpec.constant(0.4, [(0.25, 0.6), (0.5, 0.4)])
    # x = 0.2: both marks cross, so the loss sum is empty
    lam = intensity_lambda(0.7, 0.2, 0.0, loss)
    assert lam == pytest.approx(0.4)
    assert alpha_forward_bond(mspec, loss, 0.7, 1, 0, 0.0) == -lam
    # x = 0.6: both marks stay in support and contribute their full weight
    val = alpha_forward_bond(mspec, loss, 0.7, 1, 1, 0.0)
    assert val == pytest.approx(0.4 * 0.6 + 0.4 * 0.4, abs=1e-15)
    # no loss measure at all
    assert alpha_forward_bond(mspec, None, 0.7, 1, 2, 0.0) == 0.0


def test_alpha_forward_bond_riskfree_covariance():
    tenor = quarterly_tenor(barriers=(1.0,))
    rng = np.random.default_rng(3)
    table = rng.normal(size=(4, 1, 2)) * 0.2
    sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
    trip = LevyTriplet(m=np.zeros(2), sigma=sigma)
    mspec = MarketCoefficientSpec(
        tenor=tenor, dimension=2,
        beta=lambda t, k, i: table[k, i],
        gamma=lambda t, ell, y, k, i: 0.0,
        triplet=trip,
    )
    for t, k in ((0.6, 1), (0.6, 3), (1.7, 2)):
        eta = tenor.eta(t)
        want = sum(table[j, 0] @ sigma @ table[k, 0]
                   for j in range(eta, k + 1))
        got = alpha_forward_bond(mspec, None, t, k, 0, 0.0)
        assert got == pytest.approx(want, rel=1e-13)
    with pytest.raises(IndexError):
        alpha_forward_bond(mspec, None, 1.2, 0, 0, 0.0)


def market_test_setup():
    coeffs = build_coefficients(
        (constant_component([0.022, 0.0]),
         exp_decay_component([0.0, 0.016], 0.4)),
        ladder_contagion(LADDER_RATE, LADDER_MARK),
        "no_arbitrage", 2,
    )
    trip = LevyTriplet(
        m=[0.01, -0.02], sigma=[[1.0, 0.3], [0.3, 1.0]],
        jumps=JumpMeasureSpec.compound_poisson(
            1.5, [([-0.4, 0.2], 0.5), ([0.6, -0.1], 0.5)]
        ),
    )
    loss = LossCompensatorSpec.constant(LADDER_RATE, [(LADDER_MARK, 1.0)])
    tenor = quarterly_tenor()
    return coeffs, trip, loss, tenor


def test_telescoping_rebuilds_maturity_integrals():
    coeffs, trip, _, tenor = market_test_setup()
    mspec = MarketCoefficientSpec.from_forward_coeffs(coeffs, trip, tenor)
    rng = np.random.default_rng(11)
    for _ in range(50):
        # on the tenor span the integral to the current reset date is zero,
        # so summing the per-period loadings rebuilds the full integral
        t = float(rng.uniform(0.5, 2.5 - 1e-9))
        eta = tenor.eta(t)
        k = int(rng.integers(eta, tenor.n_periods))
        i = int(rng.integers(0, len(tenor.barriers)))
        x = float(tenor.barriers[i])
        total_b = sum(mspec.eval_beta(t, j, i) for j in range(eta, k + 1))
        full_b = b_star(coeffs, t, float(tenor.maturities[k + 1]), x, 0.0)
        np.testing.assert_allclose(total_b, full_b, atol=1e-12, rtol=0)
        ell = float(rng.uniform(0, x))
        total_c = sum(mspec.eval_gamma(t, ell, 0.17, j, i)
                      for j in range(eta, k + 1))
        full_c = c_star(coeffs, t, float(tenor.maturities[k + 1]), x, 0.17,
                        ell)
        assert total_c == pytest.approx(full_c, abs=1e-12)


def test_drift_routes_agree():
    coeffs, trip, loss, tenor = market_test_setup()
    mspec = MarketCoefficientSpec.from_forward_coeffs(coeffs, trip, tenor)
    rng = np.random.default_rng(7)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(100):
            t = float(rng.uniform(0.5, 2.5 - 1e-9))
            eta = tenor.eta(t)
            k = int(rng.integers(eta, tenor.n_periods))
            i = int(rng.integers(0, len(tenor.barriers)))
            x = float(tenor.barriers[i])
            ell = float(rng.uniform(0, x)) if rng.uniform() < 0.7 else 0.0
            direct = alpha_forward_bond(mspec, loss, t, k, i, ell)
            lam = intensity_lambda(t, x, ell, loss)
            block = drift_block_D(coeffs, loss, trip, tenor, t, k, i, ell)
            worst = max(worst, abs(direct - (-lam + block)))
    assert worst <= 1e-12


# -------------------------------------------------------- rate drift


def test_alpha_rate_model_matches_classical_forward_drift():
    tenor = quarterly_tenor(barriers=(1.0,))
    rng = np.random.default_rng(5)
    table = rng.normal(size=(4, 1, 2)) * 0.25
    sigma = np.array([[1.0, -0.2], [-0.2, 0.5]])
    trip = LevyTriplet(m=np.zeros(2), sigma=sigma)
    mspec = MarketCoefficientSpec(
        tenor=tenor, dimension=2,
        beta=lambda t, k, i: table[k, i],
        gamma=lambda t, ell, y, k, i: 0.0,
        triplet=trip,
    )
    delta = tenor.accruals
    for _ in range(100):
        t = float(rng.uniform(0.0, 2.5 - 1e-9))
        eta = tenor.eta(t)
        k = int(rng.integers(eta, tenor.n_periods))
        states = rng.uniform(0.005, 0.08, size=k - eta + 1)
        got = alpha_rate_model(mspec, None, t, k, 0, 0.0, states)
        want = 0.0
        for pos, j in enumerate(range(eta, k + 1)):
            dl = delta[j] * states[pos]
            want += dl / (1.0 + dl) * float(table[j, 0] @ sigma @ table[k, 0])
        assert got == pytest.approx(want, abs=1e-12)


def test_alpha_rate_model_loss_terms():
    tenor = TenorStructure([0.5, 1.0], [0.2, 1.0])
    mspec = zero_loading_spec(tenor)
    loss = LossCompensatorSpec.constant(0.5, [(0.5, 1.0)])
    # the only mark breaches x = 0.2, so the drift is the crossing intensity
    assert alpha_rate_model(mspec, loss, 0.1, 0, 0, 0.0, [0.03]) == -0.5
    # at x = 1 the mark survives and carries the rate prefactor
    got = alpha_rate_model(mspec, loss, 0.1, 0, 1, 0.0, [0.03])
    pref = (1.0 + 0.5 * 0.03) / (0.5 * 0.03)
    assert got == pytest.approx(pref * 0.5, rel=1e-14)


def _drift_test_spec():
    """Two-factor loadings per (period, barrier) and a contagion increment
    that depends on every argument."""
    tenor = quarterly_tenor()
    rng = np.random.default_rng(17)
    table = rng.normal(size=(4, 3, 2)) * 0.2
    trip = LevyTriplet(m=np.zeros(2),
                       sigma=np.array([[1.0, -0.2], [-0.2, 0.5]]))
    mspec = MarketCoefficientSpec(
        tenor=tenor, dimension=2,
        beta=lambda t, k, i: table[k, i] * (1.0 + 0.1 * t),
        gamma=lambda t, ell, y, k, i: 0.04 * (k + 1) * y * (1.0 + ell)
        * (1.0 + i) * (1.0 - 0.2 * t),
        triplet=trip,
    )
    loss = LossCompensatorSpec.constant(0.9, [(0.1, 0.5), (0.15, 0.3),
                                              (0.25, 0.2)])
    return mspec, loss


def test_simulator_drift_matches_alpha_rate_model():
    """Each row of the simulator's vectorized drift equals the public
    rate-form drift of that path, per alive path and evolving period, at
    every barrier, with and without a current period that still evolves;
    paths past a barrier are not alive there."""
    mspec, loss = _drift_test_spec()
    tenor = mspec.tenor
    K = tenor.n_periods
    ell = np.array([0.0, 0.1, 0.25, 0.35, 0.0, 0.1, 0.25, 0.35])
    rng = np.random.default_rng(3)
    compared = 0
    for t in (0.2, 0.7, 1.6):
        eta = tenor.eta(t)
        evolve_from = eta if tenor.maturities[eta] > t else eta + 1
        for i, x in enumerate(tenor.barriers):
            L = rng.uniform(0.01, 0.08, size=(len(ell), K))
            betas = np.stack([mspec.eval_beta(t, j, i) for j in range(eta, K)])
            degenerate = np.zeros(len(ell), dtype=bool)
            got = _rate_drift_matrix(mspec, loss, t, i, eta, betas, L, ell,
                                     evolve_from, degenerate)
            assert not degenerate.any()
            for p, lv in enumerate(ell):
                for k in range(evolve_from, K):
                    if lv > x:
                        with pytest.raises(StateError):
                            alpha_rate_model(mspec, loss, t, k, i, lv,
                                             L[p, eta:k + 1])
                        continue
                    want = alpha_rate_model(mspec, loss, t, k, i, lv,
                                            L[p, eta:k + 1])
                    assert got[p, k - evolve_from] == pytest.approx(
                        want, rel=1e-12, abs=0.0)
                    compared += 1
    assert compared > 100


def test_simulator_drift_marks_a_zero_rate_degenerate():
    """A live zero rate under a loss measure freezes its path where the
    public drift raises DegenerateRateError for the same state."""
    mspec, loss = _drift_test_spec()
    tenor = mspec.tenor
    t, i, eta = 0.2, 2, 0
    L = np.full((3, tenor.n_periods), 0.03)
    L[1, 2] = 0.0
    ell = np.zeros(3)
    betas = np.stack([mspec.eval_beta(t, j, i)
                      for j in range(eta, tenor.n_periods)])
    degenerate = np.zeros(3, dtype=bool)
    got = _rate_drift_matrix(mspec, loss, t, i, eta, betas, L, ell, eta,
                             degenerate)
    assert degenerate.tolist() == [False, True, False]
    assert np.all(got[1] == 0.0) and np.all(got[[0, 2]] != 0.0)
    with pytest.raises(DegenerateRateError):
        alpha_rate_model(mspec, loss, t, 2, i, 0.0, L[1, :3])


def test_alpha_rate_model_rejects_bad_states():
    tenor = TenorStructure([0.5, 1.0], [0.2, 1.0])
    mspec = zero_loading_spec(tenor)
    with pytest.raises(DegenerateRateError):
        alpha_rate_model(mspec, None, 0.1, 0, 1, 0.0, [0.0])
    with pytest.raises(DomainError):
        alpha_rate_model(mspec, None, 0.1, 0, 1, 0.0, [-3.0])
    with pytest.raises(DimensionError):
        alpha_rate_model(mspec, None, 0.1, 0, 1, 0.0, [0.03, 0.02])
    with pytest.raises(StateError):
        alpha_rate_model(mspec, None, 0.1, 0, 0, 0.5, [0.03])
    jumps = JumpMeasureSpec.compound_poisson(1.0, [([0.5], 1.0)])
    withjumps = zero_loading_spec(tenor, jumps=jumps)
    with pytest.raises(ConfigError, match="jump-free"):
        alpha_rate_model(withjumps, None, 0.1, 0, 1, 0.0, [0.03])


def test_loading_bounds_are_enforced():
    tenor = TenorStructure([0.5, 1.0], [1.0])
    trip = LevyTriplet(m=np.zeros(1), sigma=np.eye(1))
    spec = MarketCoefficientSpec(
        tenor=tenor, dimension=1,
        beta=lambda t, k, i: np.array([50.0]),
        gamma=lambda t, ell, y, k, i: 500.0,
        triplet=trip, beta_bound=10.0,
    )
    with pytest.raises(BoundError):
        spec.eval_beta(0.0, 0, 0)
    with pytest.raises(BoundError):
        spec.eval_gamma(0.0, 0.0, 0.2, 0, 0)
    with pytest.raises(DimensionError):
        MarketCoefficientSpec(
            tenor=tenor, dimension=2,
            beta=lambda t, k, i: np.zeros(1),
            gamma=lambda t, ell, y, k, i: 0.0,
            triplet=LevyTriplet(m=np.zeros(2), sigma=np.eye(2)),
        ).eval_beta(0.0, 0, 0)


def test_market_spec_dimension_check():
    tenor = TenorStructure([0.5, 1.0], [1.0])
    trip = LevyTriplet(m=np.zeros(2), sigma=np.eye(2))
    with pytest.raises(ConfigError, match="dimension"):
        MarketCoefficientSpec(
            tenor=tenor, dimension=1,
            beta=lambda t, k, i: np.zeros(1),
            gamma=lambda t, ell, y, k, i: 0.0,
            triplet=trip,
        )


# --------------------------------------------------------- simulation


def test_simulated_rates_constant_without_loadings():
    tenor = TenorStructure([0.5, 1.0, 1.5], [0.4, 1.0])
    mspec = zero_loading_spec(tenor)
    grid = np.linspace(0.0, 1.5, 13)
    out = simulate_market_model(mspec, None, np.full((2, 2), 0.03), grid,
                                n_paths=5, seed=1)
    assert np.all(out.rates == 0.03)
    assert np.all(out.fixings == 0.03)
    assert out.n_degenerate == 0
    assert np.all(out.alive)


def test_simulated_jump_matches_closed_form():
    tenor = TenorStructure([0.5, 1.0, 1.5], [0.4, 1.0])
    trip = LevyTriplet(m=np.zeros(1), sigma=np.eye(1))
    g0 = 0.25
    mspec = MarketCoefficientSpec(
        tenor=tenor, dimension=1,
        beta=lambda t, k, i: np.zeros(1),
        # the whole-portfolio slice never reacts to losses
        gamma=lambda t, ell, y, k, i: g0 if i == 0 else 0.0,
        triplet=trip,
    )
    lp = LossPath(jump_times=np.array([0.3, 0.8]),
                  jump_sizes=np.array([0.3, 0.3]), horizon=1.5)
    grid = np.linspace(0.0, 1.5, 7)
    out = simulate_market_model(
        mspec, None, np.full((2, 2), 0.03), grid, n_paths=1, seed=0,
        injected=(None, [lp]),
    )
    # first loss (to 0.3 <= 0.4): every live rate at the low barrier moves by
    # (1 + delta L)/delta (e^g - 1); second loss (to 0.6) kills that slice
    jumped = 0.03 + (1.0 + 0.5 * 0.03) / 0.5 * (math.exp(g0) - 1.0)
    assert out.loss[0, -1] == pytest.approx(0.6)
    assert not out.alive[0, -1, 0] and out.alive[0, -1, 1]
    np.testing.assert_allclose(out.rates[0, -1, :, 0], 0.0)
    np.testing.assert_allclose(out.rates[0, -1, :, 1], 0.03, rtol=1e-15)
    # the first period fixed at T = 0.5, between the two losses
    assert out.fixings[0, 0, 0] == pytest.approx(jumped, rel=1e-14)
    assert out.fixings[0, 0, 1] == pytest.approx(0.03, rel=1e-15)
    # the second period fixed at T = 1.0, after the slice died
    assert out.fixings[0, 1, 0] == 0.0


def test_simulated_rates_discount_to_the_initial_curve():
    # jump-free one-barrier market: the compounded reset fixings must
    # discount any tenor date back to the initial curve (martingale check
    # under the rolling-settlement convention)
    tenor = quarterly_tenor(barriers=(1.0,))
    vols = np.array([0.18, 0.16, 0.14, 0.12])
    trip = LevyTriplet(m=np.zeros(1), sigma=np.eye(1))
    mspec = MarketCoefficientSpec(
        tenor=tenor, dimension=1,
        beta=lambda t, k, i: np.array([vols[k]]),
        gamma=lambda t, ell, y, k, i: 0.0,
        triplet=trip,
    )
    r = 0.03
    delta = tenor.accruals
    L0 = ((np.exp(r * delta) - 1.0) / delta)[:, None]
    grid = np.round(np.arange(0.0, 2.0 + 1e-12, 1.0 / 200), 12)
    out = simulate_market_model(mspec, None, L0, grid, n_paths=8000, seed=42,
                                report_nodes=[len(grid) - 1])
    assert out.n_degenerate == 0
    fix = out.fixings[:, :, 0]
    T = tenor.maturities
    for k in range(1, 5):
        disc = np.prod(
            [1.0 / (1.0 + delta[j] * fix[:, j]) for j in range(k)], axis=0
        )
        target = math.exp(-r * (T[k] - T[0]))
        se = disc.std(ddof=1) / math.sqrt(len(disc))
        assert abs(disc.mean() - target) <= 4.0 * se, (
            f"discounted bond at T_{k}: mean {disc.mean():.6f}, "
            f"target {target:.6f}, se {se:.2e}"
        )


def test_simulation_evaluates_each_loading_once_per_step_and_barrier():
    """One beta(t, j, i) call per live period, step and barrier: the drift
    and the shocks share one stack of loadings."""
    tenor = TenorStructure([0.5, 1.0, 1.5], [0.4, 1.0])
    trip = LevyTriplet(m=np.zeros(1), sigma=np.eye(1))
    calls = []

    def beta(t, k, i):
        calls.append((t, k, i))
        return np.array([0.1])

    mspec = MarketCoefficientSpec(
        tenor=tenor, dimension=1, beta=beta,
        gamma=lambda t, ell, y, k, i: 0.0, triplet=trip,
    )
    loss = LossCompensatorSpec.constant(0.3, [(0.2, 1.0)])
    grid = np.linspace(0.0, 1.5, 7)
    simulate_market_model(mspec, loss, np.full((2, 2), 0.04), grid,
                          n_paths=16, seed=3)
    # the steps from 0, 0.25, 0.5 and 0.75 lie in period 0 and evolve rates
    # (from 1.0 on nothing is left to evolve): 4 steps x periods 0..1 x 2
    # barriers
    assert len(calls) == 16
    assert len(set(calls)) == 16


def test_simulation_is_reproducible():
    tenor = quarterly_tenor(barriers=(0.4, 1.0))
    trip = LevyTriplet(m=np.zeros(1), sigma=np.eye(1))
    mspec = MarketCoefficientSpec(
        tenor=tenor, dimension=1,
        beta=lambda t, k, i: np.array([0.1]),
        gamma=lambda t, ell, y, k, i: 0.05 if i == 0 else 0.0,
        triplet=trip,
    )
    loss = LossCompensatorSpec.constant(0.3, [(0.2, 1.0)])
    grid = np.round(np.arange(0.0, 2.5 + 1e-12, 1.0 / 16), 12)
    L0 = np.full((4, 2), 0.04)
    a = simulate_market_model(mspec, loss, L0, grid, n_paths=64, seed=9)
    b = simulate_market_model(mspec, loss, L0, grid, n_paths=64, seed=9)
    np.testing.assert_array_equal(a.rates, b.rates)
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.fixings, b.fixings)
    c = simulate_market_model(mspec, loss, L0, grid, n_paths=64, seed=10)
    assert not np.array_equal(a.rates, c.rates)


def test_simulation_input_validation():
    tenor = TenorStructure([0.5, 1.0, 1.5], [1.0])
    mspec = zero_loading_spec(tenor)
    L0 = np.full((2, 1), 0.03)
    good = np.linspace(0.0, 1.5, 7)
    with pytest.raises(GridError, match="tenor date"):
        simulate_market_model(mspec, None, L0, [0.0, 0.4, 1.5], 2, seed=1)
    with pytest.raises(GridError, match="beyond"):
        simulate_market_model(mspec, None, L0, [0.0, 0.5, 1.0, 1.8], 2, seed=1)
    with pytest.raises(GridError, match="start at 0"):
        simulate_market_model(mspec, None, L0, good + 0.1, 2, seed=1)
    with pytest.raises(ConfigError, match="positive"):
        simulate_market_model(mspec, None, np.zeros((2, 1)), good, 2, seed=1)
    with pytest.raises(DimensionError):
        simulate_market_model(mspec, None, np.full((3, 1), 0.03), good, 2,
                              seed=1)
    jumps = JumpMeasureSpec.compound_poisson(1.0, [([0.5], 1.0)])
    withjumps = zero_loading_spec(tenor, jumps=jumps)
    with pytest.raises(ConfigError, match="jump-free"):
        simulate_market_model(withjumps, None, L0, good, 2, seed=1)
