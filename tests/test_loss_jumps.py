"""Loss jumps applied once per report interval, in (pre-jump level, mark)
groups, into adjustment rows kept only for the paths that jump: the rows,
the loss levels and every reader against the former per-step application
into a dense buffer, bit for bit; the drift head over many steps against
per-step calls; martingale rows independent of the other report times;
the contagion bound kept for jumps after the last report node."""

import dataclasses

import numpy as np
import pytest

from levycdo.engine import (
    SurfaceEngine,
    _gl_partial_weights,
    build_master_grid,
)
from levycdo.errors import BoundError
from levycdo.families import (
    build_coefficients,
    constant_component,
    exp_decay_component,
    flat_contagion,
    ladder_contagion,
)
from levycdo.levy import JumpMeasureSpec, LevyTriplet
from levycdo.loss import (
    LossCompensatorSpec,
    LossPath,
    levels_before,
    simulate_loss_paths_bulk,
)
from levycdo.mc import _trapz_layout, run_martingale_test
from levycdo.rng import STREAM_LOSS, chunk_generator

from conftest import make_ladder_surface
from test_hjm import _zero_record

RATE = 4.0
MARKS = (0.1, 0.2)
SEED = 21
N = 700


@pytest.fixture(scope="module")
def two_mark_engine():
    """Driver jumps on a correlated Gaussian driver, and a loss process
    with two marks at a rate high enough for several jumps per path."""
    triplet = LevyTriplet(
        m=np.zeros(2), sigma=np.array([[1.0, 0.3], [0.3, 1.0]]),
        jumps=JumpMeasureSpec.compound_poisson(
            1.0, [([0.3, -0.2], 0.6), ([-0.1, 0.4], 0.4)]))
    coeffs = build_coefficients(
        (constant_component([0.022, 0.0]),
         exp_decay_component([0.0, 0.016], 0.4)),
        ladder_contagion(RATE, MARKS[0]), "no_arbitrage", 2)
    spec = LossCompensatorSpec.constant(RATE, [(y, 0.5) for y in MARKS])
    surface = make_ladder_surface(horizon=2.0, n_nodes=17)
    grid = build_master_grid(1.0, 0.25, include=(0.3,))
    return SurfaceEngine(coeffs, triplet, spec, surface, grid)


def _head_one_step(engine, s_idx, ell, when):
    """The former ``_extra_drift_head``: the head integrals of the times
    ``when``, all inside step s_idx, from that step's cubic."""
    t0, t1 = float(engine.grid[s_idx]), float(engine.grid[s_idx + 1])
    mats, integral = engine._extra_nodes_step(ell)
    half = 0.5 * (t1 - t0)
    u = (when - 0.5 * (t0 + t1)) / half
    w = half * _gl_partial_weights(u)
    return integral[s_idx] - np.einsum("ej,jgx->egx", w, mats[s_idx])


def _loss_table(engine, n, seed):
    """The chunk's loss jumps in time order: (time, size, path, pre-jump
    level, step), drawn from the chunk's loss stream as the engine draws
    them."""
    lt, ly, counts = simulate_loss_paths_bulk(
        engine.loss_spec, engine.horizon,
        chunk_generator(seed, STREAM_LOSS, 0), n)
    lp = np.repeat(np.arange(n), counts)
    keep = (lt > engine.grid[0]) & (lt <= engine.horizon)
    lt, ly, lp = lt[keep], ly[keep], lp[keep]
    l_old = levels_before(ly, np.bincount(lp, minlength=n))
    order, step, _ = engine._step_table(lt)
    return tuple(a[order] for a in (lt, ly, lp, l_old)) + (step,)


def _per_step_application(engine, n, seed, report_nodes):
    """The former application, kept as the reference: every step applied
    its own loss jumps, in groups of equal (pre-jump level, mark), into a
    dense (n, nT, nx) buffer, with the contagion rows at every barrier.
    Returns the loss levels and the buffer at each report node."""
    lt, ly, lp, l_old, step = _loss_table(engine, n, seed)
    ell = np.zeros(n)
    adjust = np.zeros((n, engine.nT, engine.nx))
    out = {0: (ell.copy(), adjust.copy())}
    for s_idx in range(len(engine.grid) - 1):
        here = np.flatnonzero(step == s_idx)
        if len(here):
            keys, group = np.unique(
                np.stack([l_old[here], ly[here]], axis=1), axis=0,
                return_inverse=True)
            for g, (old, y) in enumerate(keys):
                e = here[group.reshape(-1) == g]
                old, y = float(old), float(y)
                new = old + y
                for i, x in enumerate(engine.barriers):
                    adjust[lp[e], :, i] += engine._c_rows(lt[e], float(x), y,
                                                          old)
                adjust[lp[e]] += ((engine._cum_extra(old)[s_idx]
                                   - engine._cum_extra(new)[s_idx])
                                  + _head_one_step(engine, s_idx, old, lt[e])
                                  - _head_one_step(engine, s_idx, new, lt[e]))
                ell[lp[e]] = new
        if s_idx + 1 in report_nodes:
            out[s_idx + 1] = (ell.copy(), adjust.copy())
    return out


def _report_sets(grid):
    off = int(np.flatnonzero(np.isclose(grid, 0.3))[0])
    last = len(grid) - 1
    return {"every": list(range(len(grid))), "last": [last],
            "off_grid": [off, last]}


@pytest.mark.parametrize("which", ["every", "last", "off_grid"])
def test_interval_application_equals_per_step_reference(two_mark_engine,
                                                        which):
    engine = two_mark_engine
    grid = engine.grid
    report = _report_sets(grid)[which]
    lt, ly, lp, l_old, step = _loss_table(engine, N, SEED)
    # the chunk exercises what the grouping must get right: two jumps of a
    # path in one step, three in one report interval, and a larger mark
    # before a smaller one on a path in one interval (groups sort by level
    # first)
    interval = np.searchsorted(report, step + 1)
    assert np.bincount(step * N + lp).max() >= 2
    assert np.bincount(interval * N + lp).max() >= 3
    later = (lp[1:] == lp[:-1]) & (interval[1:] == interval[:-1])
    assert np.any(later & (ly[:-1] > ly[1:]))
    reference = _per_step_application(engine, N, SEED, report)
    n_jumpers = len(np.unique(lp))
    paths = [0, N - 1, N // 2, int(lp[0])]
    seen = []

    def collect(pos, state):
        ell, dense = reference[state.node]
        assert np.array_equal(state.loss, ell)
        assert state.adjust.shape[0] == n_jumpers + 1
        assert not state.adjust[-1].any()
        assert np.array_equal(state.adjust[state.adjust_of], dense)
        dense_state = dataclasses.replace(state, adjust=dense,
                                          adjust_of=np.arange(N),
                                          _values=None)
        queries = [(x, _trapz_layout(engine.maturities, state.t, 1.6)[1])
                   for x in (0.3, 0.4, 1.0)]
        assert np.array_equal(engine.maturity_integrals(state, queries),
                              engine.maturity_integrals(dense_state, queries))
        for p in paths:
            got = engine.surface_snapshot(state, p)
            want = engine.surface_snapshot(dense_state, p)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.diagonal, want.diagonal)
        assert np.array_equal(state.values, dense_state.values)
        seen.append(state.node)

    engine.run_chunk(N, SEED, 0, [collect], report)
    assert seen == report


def test_drift_head_over_many_steps_equals_per_step_calls(two_mark_engine):
    engine = two_mark_engine
    grid = engine.grid
    rng = np.random.default_rng(5)
    steps = rng.integers(0, len(grid) - 1, size=60)
    when = grid[steps] + rng.uniform(0.0, 1.0, 60) * np.diff(grid)[steps]
    when[:3] = grid[steps[:3] + 1]          # full steps
    for ell in (0.0, 0.1, 0.3):
        got = engine._extra_drift_head(steps, ell, when)
        for s in np.unique(steps):
            sel = steps == s
            assert np.array_equal(got[sel],
                                  _head_one_step(engine, s, ell, when[sel]))


def test_martingale_rows_do_not_depend_on_other_report_times(
        ladder_coeffs, gauss2, ladder_loss):
    grid = build_master_grid(2.0, 0.1)
    surface = make_ladder_surface()
    targets = ((2.5, 0.55), (3.0, 1.0))
    full = run_martingale_test(ladder_coeffs, gauss2, ladder_loss, surface,
                               10_000, grid, targets, seed=9,
                               report_times=(0.5, 1.0, 1.5, 2.0))
    part = run_martingale_test(ladder_coeffs, gauss2, ladder_loss, surface,
                               10_000, grid, targets, seed=9,
                               report_times=(1.0, 2.0))
    assert np.array_equal(part.times, full.times[[1, 3]])
    for name in ("means", "std_errors", "z_scores"):
        assert np.array_equal(getattr(part, name),
                              getattr(full, name)[[1, 3]], equal_nan=True)


def test_contagion_bound_holds_after_the_last_report_node(gauss2):
    """A loss jump after the last report node still has its contagion rows
    checked against the declared bound."""
    coeffs = build_coefficients((constant_component([0.01, 0.0]),),
                                flat_contagion(2.0), "zero", 2, c_bound=1.0)
    spec = LossCompensatorSpec.constant(1.0, [(0.1, 1.0)])
    grid = build_master_grid(1.0, 0.25)
    engine = SurfaceEngine(coeffs, gauss2, spec, make_ladder_surface(), grid)
    jump = LossPath(np.array([0.7]), np.array([0.1]), 1.0)
    seen = []
    with pytest.raises(BoundError, match="contagion exceeded"):
        engine.run_chunk(1, 0, 0, [lambda pos, state: seen.append(pos)],
                         [0, 1], injected=(_zero_record(grid, 2), jump))
    assert seen == [0, 1]
