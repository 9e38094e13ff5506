"""Driver characteristics: the Laplace exponent J, its gradient, the
exponential-moment set B, and increment sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

from levycdo.errors import DimensionError, DomainError, RngError
from levycdo.levy import (
    JumpMeasureSpec,
    LevyTriplet,
    in_domain_B,
    jump_exp_moment,
    laplace_exponent,
    laplace_exponent_rows,
    laplace_gradient,
    laplace_gradient_rows,
    simulate_increments,
)
from levycdo.rng import check_seed, chunk_generator, single_generator


def test_gaussian_standard_value():
    """For a standard 1-d Brownian driver J(1) = 1/2: no drift, no jumps."""
    trip = LevyTriplet(m=np.zeros(1), sigma=np.ones((1, 1)))
    assert laplace_exponent(np.array([1.0]), trip) == pytest.approx(0.5, abs=1e-15)


def test_small_atom_is_compensated():
    """An atom inside the truncation ball contributes e^{-uz} - 1 + uz.

    Two atoms of weight 2 at z = 0.5, u = 1: value computed by hand.
    """
    trip = LevyTriplet(
        m=np.zeros(1), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.user_table([([0.5], 2.0)]),
    )
    val = laplace_exponent(np.array([1.0]), trip)
    assert val == pytest.approx(0.21306131942526685, abs=1e-15)


def test_large_atom_is_not_compensated():
    """Atoms outside the ball contribute e^{-uz} - 1 without the linear term."""
    trip = LevyTriplet(
        m=np.zeros(1), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.user_table([([2.0], 1.0)]),
    )
    val = laplace_exponent(np.array([1.0]), trip)
    assert val == pytest.approx(np.exp(-2.0) - 1.0, abs=1e-15)


def test_exponential_tail_against_quadrature():
    """Jump part of J for the one-sided exponential measure.

    Reference values come from adaptive quadrature of
    (e^{-uz} - 1 + 1{z<=1} uz) rate theta e^{-theta z} run separately
    (rate=2, theta=3); one interior point and one near the domain edge.
    """
    trip = LevyTriplet(
        m=np.zeros(1), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.exponential(2.0, 3.0),
    )
    val = laplace_exponent(np.array([1.5]), trip)
    assert val == pytest.approx(0.13418505986188017, rel=1e-12)
    val2 = laplace_exponent(np.array([-2.5]), trip)
    assert val2 == pytest.approx(8.6652471224524259, rel=1e-12)


def test_exponential_tail_domain_edge():
    """B = {u > -theta} for the exponential tail; J refuses points outside."""
    trip = LevyTriplet(
        m=np.zeros(1), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.exponential(2.0, 3.0),
    )
    assert in_domain_B(np.array([-2.999]), trip)
    assert not in_domain_B(np.array([-3.0]), trip)
    assert not in_domain_B(np.array([-3.5]), trip)
    with pytest.raises(DomainError):
        laplace_exponent(np.array([-3.0]), trip)
    with pytest.raises(DomainError):
        laplace_gradient(np.array([-4.0]), trip)


def test_atomic_measures_have_full_domain():
    """Finite atomic measures have exponential moments everywhere."""
    trip = LevyTriplet(
        m=np.zeros(2), sigma=np.eye(2),
        jumps=JumpMeasureSpec.compound_poisson(
            1.0, [([3.0, -1.0], 0.5), ([0.2, 0.1], 0.5)]
        ),
    )
    assert in_domain_B(np.array([-50.0, 40.0]), trip)


def test_gradient_matches_difference_quotient():
    """grad J agrees with central differences on a mixed 2-d triplet."""
    trip = LevyTriplet(
        m=np.array([0.1, -0.2]),
        sigma=np.array([[1.0, 0.4], [0.4, 2.0]]),
        jumps=JumpMeasureSpec.compound_poisson(
            0.8, [([0.5, 0.3], 0.25), ([1.5, -0.7], 0.75)]
        ),
    )
    u = np.array([0.7, -0.3])
    grad = laplace_gradient(u, trip)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        num = (laplace_exponent(u + e, trip) - laplace_exponent(u - e, trip)) / (2 * h)
        assert grad[i] == pytest.approx(num, rel=1e-7, abs=1e-9)


def test_gradient_rows_matches_loop():
    """The row-vectorized gradient is the same map as the scalar one."""
    trip = LevyTriplet(
        m=np.array([0.05, 0.0]),
        sigma=np.array([[0.5, 0.1], [0.1, 0.3]]),
        jumps=JumpMeasureSpec.compound_poisson(
            2.0, [([0.4, 0.0], 0.5), ([-1.2, 0.9], 0.5)]
        ),
    )
    rng = np.random.default_rng(3)
    V = rng.normal(size=(7, 2))
    rows = laplace_gradient_rows(V, trip)
    for k in range(7):
        np.testing.assert_allclose(rows[k], laplace_gradient(V[k], trip),
                                   rtol=1e-13, atol=1e-14)


def test_gradient_rows_domain_and_shape_checks():
    trip = LevyTriplet(
        m=np.zeros(1), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.exponential(1.0, 2.0),
    )
    with pytest.raises(DomainError):
        laplace_gradient_rows(np.array([[0.5], [-2.0]]), trip)
    with pytest.raises(DimensionError):
        laplace_gradient_rows(np.zeros((3, 2)), trip)


@pytest.mark.parametrize("kind", ["none", "atomic", "exponential"])
def test_exponent_rows_own_the_exponent(kind):
    """The scalar J and grad J are one-row calls of the row forms for every
    jump kind. A row of a many-row call may differ in its last bits, since
    numpy hands a one-row matrix product to another BLAS routine. The row
    gradient is the central difference of the row exponent."""
    if kind == "exponential":
        trip = LevyTriplet(m=np.array([0.1]), sigma=np.array([[0.4]]),
                           jumps=JumpMeasureSpec.exponential(0.7, 2.5))
    else:
        jumps = (JumpMeasureSpec.none() if kind == "none" else
                 JumpMeasureSpec.compound_poisson(
                     1.3, [([0.4, -0.2], 0.5), ([-1.5, 0.8], 0.5)]))
        trip = LevyTriplet(m=np.array([0.1, -0.2]),
                           sigma=np.array([[0.5, 0.1], [0.1, 0.3]]),
                           jumps=jumps)
    d = trip.dimension
    V = np.random.default_rng(5).normal(scale=0.5, size=(40, d))
    J, grad = laplace_exponent_rows(V, trip), laplace_gradient_rows(V, trip)
    for k in range(len(V)):
        one = V[k:k + 1]
        assert laplace_exponent(V[k], trip) == laplace_exponent_rows(one, trip)[0]
        assert np.array_equal(laplace_gradient(V[k], trip),
                              laplace_gradient_rows(one, trip)[0])
        assert J[k] == pytest.approx(laplace_exponent(V[k], trip), rel=1e-13,
                                     abs=1e-16)
        np.testing.assert_allclose(grad[k], laplace_gradient(V[k], trip),
                                   rtol=1e-13, atol=1e-16)
    h = 1e-6
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        num = (laplace_exponent_rows(V + e, trip)
               - laplace_exponent_rows(V - e, trip)) / (2 * h)
        np.testing.assert_allclose(grad[:, i], num, rtol=1e-7, atol=1e-9)


def test_exponent_rows_domain_and_shape_checks():
    trip = LevyTriplet(
        m=np.zeros(1), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.exponential(1.0, 2.0),
    )
    with pytest.raises(DomainError):
        laplace_exponent_rows(np.array([[0.5], [-2.0]]), trip)
    with pytest.raises(DimensionError):
        laplace_exponent_rows(np.zeros((3, 2)), trip)
    with pytest.raises(DimensionError):
        laplace_exponent_rows(np.zeros(3), trip)


@given(
    m=st.lists(st.floats(-2, 2), min_size=2, max_size=2),
    a=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    u=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
)
def test_gaussian_laplace_is_quadratic(m, a, u):
    """Without jumps J(u) = -<m, u> + u' Sigma u / 2 identically."""
    A = np.array(a).reshape(2, 2)
    sigma = A @ A.T
    trip = LevyTriplet(m=np.array(m), sigma=sigma)
    u = np.array(u)
    expect = -float(np.array(m) @ u) + 0.5 * float(u @ sigma @ u)
    assert laplace_exponent(u, trip) == pytest.approx(expect, rel=1e-12, abs=1e-12)


@given(
    z=st.lists(st.floats(-2, 2), min_size=2, max_size=2),
    w=st.floats(0.01, 5.0),
    rate=st.floats(0.01, 4.0),
    theta=st.floats(0.5, 6.0),
    kind=st.sampled_from(["atom", "exp"]),
)
def test_laplace_vanishes_at_zero(z, w, rate, theta, kind):
    """J(0) = 0 for every measure: the process is a semimartingale at u=0."""
    if kind == "atom":
        trip = LevyTriplet(
            m=np.array([0.3, -0.1]), sigma=np.eye(2),
            jumps=JumpMeasureSpec.user_table([(z, w)]),
        )
        dim = 2
    else:
        trip = LevyTriplet(
            m=np.zeros(1), sigma=np.zeros((1, 1)),
            jumps=JumpMeasureSpec.exponential(rate, theta),
        )
        dim = 1
    assert abs(laplace_exponent(np.zeros(dim), trip)) <= 1e-15


def test_psd_repair_warns_and_fixes():
    """A slightly indefinite covariance is clipped to PSD with a warning."""
    bad = np.array([[1.0, 1.001], [1.001, 1.0]])
    with pytest.warns(UserWarning, match="negative eigenvalues"):
        trip = LevyTriplet(m=np.zeros(2), sigma=bad)
    eigs = np.linalg.eigvalsh(trip.sigma)
    assert eigs.min() >= -1e-15
    np.testing.assert_allclose(trip.sigma_root @ trip.sigma_root.T, trip.sigma,
                               atol=1e-12)


def test_triplet_shape_validation():
    with pytest.raises(DimensionError):
        LevyTriplet(m=np.zeros(2), sigma=np.eye(3))
    with pytest.raises(DimensionError):
        LevyTriplet(
            m=np.zeros(2), sigma=np.eye(2),
            jumps=JumpMeasureSpec.user_table([([1.0], 1.0)]),
        )


def test_continuous_drift_compensates_small_jumps():
    """m_c = m - int_{|z|<=1} z nu(dz); only the small atom enters."""
    trip = LevyTriplet(
        m=np.array([1.0]), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.user_table([([0.5], 2.0), ([2.0], 3.0)]),
    )
    assert trip.continuous_drift[0] == pytest.approx(1.0 - 2.0 * 0.5, abs=1e-15)


def test_simulate_increments_is_deterministic():
    trip = LevyTriplet(
        m=np.array([0.1]), sigma=np.array([[0.04]]),
        jumps=JumpMeasureSpec.compound_poisson(2.0, [([0.3], 1.0)]),
    )
    grid = np.linspace(0.0, 1.0, 33)
    a = simulate_increments(trip, grid, 99)
    b = simulate_increments(trip, grid, 99)
    c = simulate_increments(trip, grid, 100)
    np.testing.assert_array_equal(a.gaussian, b.gaussian)
    np.testing.assert_array_equal(a.jump_times, b.jump_times)
    np.testing.assert_array_equal(a.jump_marks, b.jump_marks)
    assert not np.array_equal(a.gaussian, c.gaussian)


def test_simulate_increments_terminal_distribution():
    """Terminal value of a drifted Brownian driver is N(m, sigma) at T=1.

    Kolmogorov-Smirnov on 400 independent records, level 0.01.
    """
    trip = LevyTriplet(m=np.array([0.3]), sigma=np.array([[1.44]]))
    grid = np.linspace(0.0, 1.0, 65)
    vals = np.array([
        simulate_increments(trip, grid, 10_000 + k).terminal_value()[0]
        for k in range(400)
    ])
    stat = kstest(vals, "norm", args=(0.3, 1.2))
    assert stat.pvalue > 0.01


def test_simulate_increments_jump_bookkeeping():
    """Jumps are sorted, stay inside the span, use the declared atoms, and
    step_totals compensates the small-jump mean."""
    trip = LevyTriplet(
        m=np.zeros(1), sigma=np.zeros((1, 1)),
        jumps=JumpMeasureSpec.compound_poisson(
            4.0, [([0.5], 0.5), ([2.0], 0.5)]
        ),
    )
    grid = np.linspace(0.0, 2.0, 9)
    rec = simulate_increments(trip, grid, 7)
    assert np.all(np.diff(rec.jump_times) >= 0)
    assert np.all((rec.jump_times >= 0) & (rec.jump_times <= 2.0))
    assert set(np.round(rec.jump_marks[:, 0], 12)) <= {0.5, 2.0}
    # small-jump compensation: only the 0.5 atom is inside the ball
    assert rec.small_jump_mean[0] == pytest.approx(4.0 * 0.5 * 0.5, abs=1e-15)
    expect = rec.jump_marks[:, 0].sum() - 2.0 * rec.small_jump_mean[0]
    assert rec.terminal_value()[0] == pytest.approx(expect, abs=1e-12)


def test_seed_validation():
    for bad in (-1, 1.5, "7", None, True):
        with pytest.raises(RngError):
            check_seed(bad)
    assert check_seed(0) == 0
    assert check_seed(np.int64(12)) == 12


def test_chunk_streams_are_distinct_and_reproducible():
    """Streams are keyed by (seed, component, chunk); any change moves them."""
    base = chunk_generator(5, 0, 0).standard_normal(8)
    np.testing.assert_array_equal(base, chunk_generator(5, 0, 0).standard_normal(8))
    for other in (chunk_generator(5, 1, 0), chunk_generator(5, 0, 1),
                  chunk_generator(6, 0, 0), single_generator(5)):
        assert not np.array_equal(base, other.standard_normal(8))


def test_jump_exp_moment_is_the_jump_transform():
    """int exp(-<u, z>) nu(dz): a weighted atom sum for atomic measures, and
    rate * decay / (u + decay) for exponential jumps, checked by quadrature;
    it diverges for u <= -decay."""
    atoms = [([0.3, -0.2], 0.6), ([-0.1, 0.4], 0.4)]
    trip = LevyTriplet(m=np.zeros(2), sigma=np.zeros((2, 2)),
                       jumps=JumpMeasureSpec.compound_poisson(1.5, atoms))
    u = np.array([0.7, -1.1])
    want = sum(1.5 * p * np.exp(-np.dot(u, z)) for z, p in atoms)
    assert jump_exp_moment(u, trip) == pytest.approx(want, rel=1e-14)

    rate, decay = 2.0, 3.0
    expo = LevyTriplet(m=np.zeros(1), sigma=np.zeros((1, 1)),
                       jumps=JumpMeasureSpec.exponential(rate, decay))
    for v in (-2.5, 0.0, 1.7):
        num, _ = quad(lambda z: rate * decay * np.exp(-(decay + v) * z),
                      0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
        assert jump_exp_moment(np.array([v]), expo) == pytest.approx(num,
                                                                     rel=1e-10)
    for v in (-decay, -decay - 0.5):
        with pytest.raises(DomainError):
            jump_exp_moment(np.array([v]), expo)
