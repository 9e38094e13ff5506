"""Loss process: crossing intensity, the support rule, path sampling by
thinning, and the compensated crossing indicator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levycdo.errors import BoundError, ConfigError, DomainError
from levycdo.loss import (
    LossCompensatorSpec,
    LossPath,
    intensity_lambda,
    levels_before,
    mx_compensated,
    simulate_loss_path,
    simulate_loss_paths_bulk,
)
from levycdo.rng import STREAM_LOSS, chunk_generator


def test_intensity_counts_crossing_marks():
    """lambda(t, x; l) = rate * P(mark in (x - l, 1 - l]), by hand.

    With a single mark 0.5 and rate 2: the 0.3-barrier is crossed by the
    next jump (intensity 2), the 0.6-barrier is not (intensity 0). A strict
    lower boundary: a mark exactly bridging to the barrier does not cross.
    """
    spec = LossCompensatorSpec.constant(2.0, [(0.5, 1.0)])
    assert intensity_lambda(0.0, 0.3, 0.0, spec) == pytest.approx(2.0)
    assert intensity_lambda(0.0, 0.6, 0.0, spec) == pytest.approx(0.0)
    assert intensity_lambda(0.0, 0.5, 0.0, spec) == pytest.approx(0.0)
    mixed = LossCompensatorSpec.constant(2.0, [(0.3, 0.5), (0.7, 0.5)])
    assert intensity_lambda(0.0, 0.5, 0.0, mixed) == pytest.approx(1.0)


def test_intensity_vanishes_at_whole_portfolio():
    """The x = 1 slice can never be crossed: lambda(t, 1, l) = 0."""
    spec = LossCompensatorSpec.constant(5.0, [(1.0, 1.0)])
    assert intensity_lambda(0.0, 1.0, 0.0, spec) == 0.0
    assert intensity_lambda(0.0, 1.0, 0.4, spec) == 0.0


def test_intensity_shifts_with_loss_level():
    """After losses the same mark crosses nearer barriers."""
    spec = LossCompensatorSpec.constant(2.0, [(0.5, 1.0)])
    # l = 0.2: crossing needs mark > x - 0.2, support needs mark <= 0.8
    assert intensity_lambda(0.0, 0.6, 0.2, spec) == pytest.approx(2.0)
    assert intensity_lambda(0.0, 0.8, 0.2, spec) == pytest.approx(0.0)


def test_intensity_domain_checks():
    spec = LossCompensatorSpec.constant(1.0, [(0.5, 1.0)])
    with pytest.raises(DomainError):
        intensity_lambda(0.0, 0.4, 0.5, spec)  # l > x
    with pytest.raises(DomainError):
        intensity_lambda(0.0, 1.2, 0.0, spec)
    with pytest.raises(DomainError):
        intensity_lambda(0.0, 0.5, -0.1, spec)


def test_support_rule_thins_and_warns_once():
    """Marks above 1 - l are dropped with a single warning per spec."""
    import warnings

    spec = LossCompensatorSpec.constant(2.0, [(0.5, 0.5), (0.1, 0.5)])
    with pytest.warns(UserWarning, match="support rule"):
        ys, ws = spec.effective_atoms(0.0, 0.6)
    np.testing.assert_allclose(ys, [0.1])
    np.testing.assert_allclose(ws, [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec.effective_atoms(0.0, 0.7)


def test_mark_validation():
    with pytest.raises(ConfigError):
        LossCompensatorSpec.constant(1.0, [(0.0, 1.0)])
    with pytest.raises(ConfigError):
        LossCompensatorSpec.constant(1.0, [(1.5, 1.0)])
    with pytest.raises(ConfigError):
        LossCompensatorSpec.constant(1.0, [(0.5, 0.7)])
    with pytest.raises(ConfigError):
        LossCompensatorSpec.constant(-1.0, [(0.5, 1.0)])


@given(
    marks=st.lists(
        st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
        min_size=1, max_size=4,
    ),
    x_lo=st.floats(0.0, 0.9),
    dx=st.floats(0.01, 0.5),
    ell=st.floats(0.0, 0.5),
)
def test_intensity_monotone_in_barrier(marks, x_lo, dx, ell):
    """Raising the barrier can only remove crossing marks."""
    total = sum(p for _, p in marks)
    marks = [(y, p / total) for y, p in marks]
    spec = LossCompensatorSpec.constant(1.3, marks)
    x1 = max(x_lo, ell)
    x2 = min(x1 + dx, 1.0)
    assert intensity_lambda(0.0, x2, ell, spec) <= \
        intensity_lambda(0.0, x1, ell, spec) + 1e-12


def test_loss_path_observables():
    path = LossPath(np.array([1.0, 2.0, 3.0]), np.array([0.3, 0.3, 0.3]), 4.0)
    assert path.loss_at(2.0) == pytest.approx(0.6)
    assert path.loss_before(2.0) == pytest.approx(0.3)
    assert path.loss_at(0.5) == 0.0
    # crossing is strict: L = 0.3 at t=1 does not cross the 0.3 barrier
    assert path.crossing_time(0.3) == pytest.approx(2.0)
    assert path.crossing_time(0.55) == pytest.approx(2.0)
    assert path.crossing_time(0.95) == np.inf
    assert path.crossing_time(0.0) == pytest.approx(1.0)


def test_simulated_paths_stay_in_unit_interval():
    """The support rule keeps the loss in [0, 1] along every path."""
    spec = LossCompensatorSpec.constant(8.0, [(0.4, 0.5), (0.6, 0.5)])
    for seed in range(25):
        path = simulate_loss_path(spec, 5.0, seed)
        assert path.loss_at(5.0) <= 1.0 + 1e-12
        assert np.all(np.diff(np.concatenate([[0.0], path.jump_times])) >= 0)


def test_thinning_respects_declared_majorant():
    spec = LossCompensatorSpec.from_callable(
        lambda t, l: 2.0, [(0.1, 1.0)], max_rate=1.0
    )
    with pytest.raises(BoundError):
        simulate_loss_path(spec, 10.0, 1)


def test_affine_mean_jump_count():
    """dE[N]/dt = base + slope*mark*E[N] has a closed solution.

    With base 2, slope -2, mark 0.05: E[N_1] = (1 - e^{-0.1}) / 0.05.
    Monte Carlo mean must sit within 3 standard errors.
    """
    spec = LossCompensatorSpec.affine(2.0, -2.0, [(0.05, 1.0)])
    rng = chunk_generator(17, STREAM_LOSS, 0)
    _, _, counts = simulate_loss_paths_bulk(spec, 1.0, rng, 4000)
    mean = counts.mean()
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(mean - 1.9032516392808096) <= 3 * se


def test_bulk_and_sequential_agree_in_law():
    """Both samplers draw the same Poisson jump-count law."""
    spec = LossCompensatorSpec.constant(0.7, [(0.01, 1.0)])
    rng = chunk_generator(23, STREAM_LOSS, 0)
    _, _, counts = simulate_loss_paths_bulk(spec, 1.0, rng, 3000)
    seq = np.array([
        simulate_loss_path(spec, 1.0, 500 + k).n_jumps for k in range(700)
    ])
    # Poisson(0.7) reference for both
    for sample in (counts, seq):
        n = len(sample)
        p0_hat = (sample == 0).mean()
        p0 = np.exp(-0.7)
        assert abs(p0_hat - p0) <= 4 * np.sqrt(p0 * (1 - p0) / n)
        mean_se = sample.std(ddof=1) / np.sqrt(n)
        assert abs(sample.mean() - 0.7) <= 4 * mean_se


def test_bulk_is_deterministic_per_stream():
    spec = LossCompensatorSpec.constant(1.1, [(0.2, 1.0)])
    a = simulate_loss_paths_bulk(spec, 2.0, chunk_generator(9, STREAM_LOSS, 3), 64)
    b = simulate_loss_paths_bulk(spec, 2.0, chunk_generator(9, STREAM_LOSS, 3), 64)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def _bulk_path_by_path(spec, horizon, rng, n_paths):
    """Reference thinning: the same draw layout, one path at a time."""
    t = np.zeros(n_paths)
    ell = np.zeros(n_paths)
    out_t = [[] for _ in range(n_paths)]
    out_y = [[] for _ in range(n_paths)]
    active = np.arange(n_paths)
    while len(active):
        gaps = rng.exponential(1.0 / spec.max_rate, size=len(active))
        u_acc = rng.uniform(size=len(active))
        u_mark = rng.uniform(size=len(active))
        t[active] = t[active] + gaps
        alive = t[active] <= horizon
        for path, ua, um in zip(active[alive], u_acc[alive], u_mark[alive]):
            ys, ws = spec.effective_atoms(t[path], ell[path])
            total = ws.sum()
            if ua * spec.max_rate < total:
                cum = np.cumsum(ws / total)
                y = ys[np.searchsorted(cum, um, side="right").clip(0, len(ys) - 1)]
                out_t[path].append(t[path])
                out_y[path].append(y)
                ell[path] += y
        active = active[alive]
    counts = np.array([len(v) for v in out_t], dtype=int)
    flat_t = np.array([u for v in out_t for u in v], dtype=float)
    flat_y = np.array([y for v in out_y for y in v], dtype=float)
    return flat_t, flat_y, counts


@pytest.mark.parametrize("spec", [
    LossCompensatorSpec.constant(0.35, [(0.17, 1)]),
    # the 0.45 atom is removed by the support rule once the loss passes 0.55
    LossCompensatorSpec.affine(0.8, 1.5, [(0.3, 0.6), (0.45, 0.4)]),
    LossCompensatorSpec.from_callable(lambda t, l: 0.5 + 0.4 * t + l,
                                      [(0.1, 0.5), (0.25, 0.5)], max_rate=3.0,
                                      time_dependent=True),
], ids=["ladder", "affine_support_rule", "time_dependent"])
def test_bulk_thinning_matches_path_by_path(spec):
    """Grouping paths by loss level changes no draw and no float."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = simulate_loss_paths_bulk(
            spec, 3.0, chunk_generator(5, STREAM_LOSS, 2), 2000)
        want = _bulk_path_by_path(
            spec, 3.0, chunk_generator(5, STREAM_LOSS, 2), 2000)
    assert want[2].max() >= 3  # paths pass through several loss levels
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def test_levels_before_is_per_path_cumsum():
    """Ragged events, zero-count paths among them: each event's pre-jump
    level is the per-path ``np.cumsum`` of the earlier sizes, bit for bit."""
    rng = np.random.default_rng(3)
    counts = np.array([0, 3, 0, 1, 12, 0, 2, 0])
    sizes = rng.uniform(0.01, 0.09, size=counts.sum())
    got = levels_before(sizes, counts)
    starts = np.cumsum(counts) - counts
    want = np.concatenate([
        np.concatenate([[0.0], np.cumsum(sizes[a:a + c])[:-1]])
        for a, c in zip(starts, counts) if c
    ])
    np.testing.assert_array_equal(got, want)
    assert levels_before(np.empty(0), np.zeros(4, dtype=int)).shape == (0,)


@pytest.mark.parametrize("time_dependent", [False, True])
def test_bulk_thinning_respects_declared_majorant(time_dependent):
    spec = LossCompensatorSpec.from_callable(
        lambda t, l: 2.0, [(0.1, 1.0)], max_rate=1.0,
        time_dependent=time_dependent,
    )
    with pytest.raises(BoundError, match="majorant"):
        simulate_loss_paths_bulk(spec, 10.0, chunk_generator(1, STREAM_LOSS, 0),
                                 32)


@pytest.mark.parametrize("time_dependent", [False, True])
def test_bulk_thinning_rejects_negative_rate(time_dependent):
    """The rate turns negative after t = 0.5, where a time-dependent spec
    reads it path by path."""
    spec = LossCompensatorSpec.from_callable(
        lambda t, l: 1.0 - 2.0 * t if time_dependent else -1.0,
        [(0.1, 1.0)], max_rate=1.5, time_dependent=time_dependent,
    )
    with pytest.raises(ConfigError, match="negative"):
        simulate_loss_paths_bulk(spec, 2.0, chunk_generator(1, STREAM_LOSS, 0),
                                 64)


def test_compensated_indicator_trivial_cases():
    """M is identically one when nothing can happen: zero rate, or x = 1."""
    quiet = LossCompensatorSpec.constant(0.0, [(0.5, 1.0)])
    path = LossPath(np.empty(0), np.empty(0), 2.0)
    np.testing.assert_allclose(
        mx_compensated(path, 0.5, quiet, [0.0, 1.0, 2.0]), 1.0, atol=1e-15
    )
    busy = LossCompensatorSpec.constant(3.0, [(0.4, 1.0)])
    jumpy = LossPath(np.array([0.5, 1.2]), np.array([0.4, 0.4]), 2.0)
    np.testing.assert_allclose(
        mx_compensated(jumpy, 1.0, busy, [0.0, 0.7, 1.5, 2.0]), 1.0, atol=1e-14
    )


def test_compensated_indicator_closed_form():
    """On a jumpless path M_t = 1 + int_0^t lambda(s, x, 0) ds exactly.

    Time-dependent rate 0.5 + 0.2 s with a single crossing mark gives
    M_t = 1 + 0.5 t + 0.1 t^2.
    """
    spec = LossCompensatorSpec.from_callable(
        lambda t, l: 0.5 + 0.2 * t, [(0.5, 1.0)], max_rate=2.0
    )
    path = LossPath(np.empty(0), np.empty(0), 3.0)
    t = 1.7
    val = mx_compensated(path, 0.3, spec, [t])[0]
    assert val == pytest.approx(1.0 + 0.5 * t + 0.1 * t * t, rel=1e-9)


def test_compensated_indicator_is_martingale():
    """E[M^x_t] = 1 under the model's own sampler (3 s.e. band)."""
    spec = LossCompensatorSpec.constant(0.35, [(0.17, 1.0)])
    vals = np.array([
        mx_compensated(simulate_loss_path(spec, 2.0, 40_000 + k), 0.55, spec,
                       [2.0])[0]
        for k in range(2000)
    ])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_compensated_indicator_freezes_after_crossing():
    """Both the indicator and the integral stop at the crossing time."""
    spec = LossCompensatorSpec.constant(2.0, [(0.5, 1.0)])
    path = LossPath(np.array([1.0]), np.array([0.5]), 3.0)
    vals = mx_compensated(path, 0.3, spec, [0.5, 1.0, 2.0, 3.0])
    # before the jump: 1 + 2s; at and after: 0 + 2*1.0 frozen
    assert vals[0] == pytest.approx(1.0 + 2.0 * 0.5)
    assert vals[1] == pytest.approx(0.0 + 2.0 * 1.0)
    assert vals[2] == pytest.approx(vals[1])
    assert vals[3] == pytest.approx(vals[1])
