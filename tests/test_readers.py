"""Readers of a reported path state: the blocked maturity integrals, the
lazily materialized surface and the snapshot against the former eager
assembly and the products on the materialized surface, bit for bit; no
full surface on the verifiers' route; the embedding check's rates against
the materialized route; non-finite sums of finite terms caught by the
readers that build them."""

import numpy as np
import pytest

import levycdo.engine as engine_module
import levycdo.mc as mc_module
from levycdo.engine import SurfaceEngine, build_master_grid
from levycdo.errors import StepError
from levycdo.families import (
    build_coefficients,
    constant_component,
    exp_decay_component,
    ladder_contagion,
    no_contagion,
)
from levycdo.levy import JumpMeasureSpec, LevyTriplet
from levycdo.loss import LossCompensatorSpec, simulate_loss_paths_bulk
from levycdo.mc import _trapz_layout, run_martingale_test
from levycdo.rng import STREAM_LEVY, STREAM_LOSS, chunk_generator

from conftest import make_ladder_surface
from test_mc import _embedding_report

BLOCK = engine_module._BLOCK_ROWS
RATE, MARK = 4.0, 0.1
SEED = 13


def _eager_surface(engine, state):
    """The surface as the engine assembled it at every report node before
    reports went lazy: the reference for the blocked rule."""
    node, ell = state.node, state.loss
    vals = np.empty((len(ell), engine.nT, engine.nx))
    vals[:] = engine.surface0.values + engine.base_cum[node]
    levels = np.unique(ell)
    if len(levels) == 1:
        vals += engine._cum_extra(levels[0])[node]
    else:
        for lv in levels:
            vals[ell == lv] += engine._cum_extra(lv)[node]
    vals += (state.accumulators @ engine._psi_T)[:, :, None]
    vals += state.adjust[state.adjust_of]
    return vals


def _materialized_columns(engine, state, x):
    """``columns`` as it read the materialized surface."""
    idx, wts = engine.surface0.barrier_weights(float(x))
    return sum(w * state.values[:, :, i] for i, w in zip(idx, wts))


@pytest.fixture(scope="module")
def event_engine():
    """Driver jumps on a correlated Gaussian driver and a loss rate high
    enough that paths take two loss jumps in one step."""
    triplet = LevyTriplet(
        m=np.zeros(2), sigma=np.array([[1.0, 0.3], [0.3, 1.0]]),
        jumps=JumpMeasureSpec.compound_poisson(
            1.0, [([0.3, -0.2], 0.6), ([-0.1, 0.4], 0.4)]))
    coeffs = build_coefficients(
        (constant_component([0.022, 0.0]),
         exp_decay_component([0.0, 0.016], 0.4)),
        ladder_contagion(RATE, MARK), "no_arbitrage", 2)
    spec = LossCompensatorSpec.constant(RATE, [(MARK, 1.0)])
    surface = make_ladder_surface(horizon=2.0, n_nodes=17)
    grid = build_master_grid(1.0, 0.25, include=(0.3,))
    return SurfaceEngine(coeffs, triplet, spec, surface, grid)


@pytest.mark.parametrize("n", [1003, BLOCK + 5, BLOCK + 1])
def test_blocked_readers_equal_materialized_surface(event_engine, n):
    engine = event_engine
    grid = engine.grid
    jp, jt, _ = engine._draw_levy_events(
        chunk_generator(SEED, STREAM_LEVY, 0), n)
    lt, _, counts = simulate_loss_paths_bulk(
        engine.loss_spec, engine.horizon,
        chunk_generator(SEED, STREAM_LOSS, 0), n)
    step = np.searchsorted(grid, lt, side="left") - 1
    lp = np.repeat(np.arange(n), counts)
    assert np.any(np.bincount(step * n + lp) >= 2)   # two in one step
    assert len(jt) > n // 2

    report = [1, 2, len(grid) - 1]     # t = 0.25, 0.3 (off the maturities), 1
    seen = []

    def collect(pos, state):
        t = state.t
        queries = []
        for x in (0.3, 0.4, 0.55, 1.0):      # 0.4 mixes two columns
            for T in (1.2, 1.6):
                queries.append((x, _trapz_layout(engine.maturities, t, T)[1]))
        paths = [0, n - 1, n // 2, n - 2]
        snaps = [engine.surface_snapshot(state, p) for p in paths]
        got = engine.maturity_integrals(state, queries)
        assert state._values is None          # nothing built the surface
        assert np.array_equal(state.values, _eager_surface(engine, state))
        for q, (x, w) in enumerate(queries):
            want = _materialized_columns(engine, state, x) @ w
            assert np.array_equal(got[:, q], want), (state.t, x)
        for p, snap in zip(paths, snaps):
            assert np.array_equal(snap.values, state.values[p])
        seen.append((t, len(np.unique(state.loss))))

    engine.run_chunk(n, SEED, 0, [collect], report)
    assert len(seen) == 3 and seen[-1][1] >= 3


@pytest.mark.parametrize("with_loss", [False, True], ids=["gauss", "loss"])
def test_martingale_test_builds_no_full_surface(monkeypatch, gauss2,
                                                ladder_coeffs, ladder_loss,
                                                with_loss):
    """The verifier's bond values never materialize the (n, nT, nx)
    surface; a reader that asks builds it once per report node."""
    built = []
    materialize = SurfaceEngine._materialize

    def counting(self, state):
        built.append(state.node)
        return materialize(self, state)

    monkeypatch.setattr(SurfaceEngine, "_materialize", counting)
    grid = build_master_grid(1.0, 0.1)
    surface = make_ladder_surface()
    run_martingale_test(ladder_coeffs, gauss2,
                        ladder_loss if with_loss else None, surface,
                        10_000, grid, ((1.5, 0.55), (2.0, 1.0)), seed=3)
    assert built == []

    engine = SurfaceEngine(ladder_coeffs, gauss2, None, surface, grid)

    def read_twice(pos, state):
        assert state.values is state.values

    engine.run_chunk(300, 1, 0, [read_twice], [0, 5])
    assert built == [0, 5]


def _materialized_window_rates(engine, state, tenor, k, x):
    """``_window_rates`` on the materialized surface."""
    Tk = float(tenor.maturities[k])
    Tk1 = float(tenor.maturities[k + 1])
    _, w_cols = _trapz_layout(engine.maturities, Tk, Tk1)
    alive = state.loss <= x
    expo = _materialized_columns(engine, state, x) @ w_cols
    return np.where(alive, np.expm1(expo) / (Tk1 - Tk), 0.0), alive


def test_embedding_rates_equal_materialized_route(monkeypatch, gauss2):
    coeffs = build_coefficients(
        (constant_component([0.022, 0.0]),
         exp_decay_component([0.0, 0.016], 0.4)),
        no_contagion(), "no_arbitrage", 2)
    blocked = _embedding_report(coeffs, gauss2, n_paths=2_000)
    monkeypatch.setattr(mc_module, "_window_rates", _materialized_window_rates)
    reference = _embedding_report(coeffs, gauss2, n_paths=2_000)
    assert blocked.to_csv() == reference.to_csv()


def test_row_blocks_cover_rows_on_aligned_edges():
    for n in (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 1):
        blocks = engine_module._row_blocks(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(lo % 64 == 0 for lo, _ in blocks)
        assert n == 1 or all(hi - lo >= 2 for lo, hi in blocks)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_readers_flag_non_finite_sum_of_finite_terms(ladder_coeffs, gauss2):
    """Every term is finite at the report node, so the engine hands the
    state over; the sum of a table at the float maximum and a large
    accumulator product overflows, and each reader that builds it stops
    with StepError naming the maturity and barrier."""
    grid = build_master_grid(1.0, 0.25)
    engine = SurfaceEngine(ladder_coeffs, gauss2, None, make_ladder_surface(),
                           grid)
    j = engine.nT - 1
    psi = engine._psi_T[:, j]
    T = engine.maturities[j]
    match = f"t=0.5 .maturity {T:.6g}, barrier {engine.barriers[0]:.6g}"
    seen = []

    def overflow(pos, state):
        state.tables[0, j] = np.finfo(float).max
        state.accumulators[BLOCK + 3] = 1e300 * psi / (psi @ psi)
        w = _trapz_layout(engine.maturities, state.t, T)[1]
        with pytest.raises(StepError, match=match):
            engine.maturity_integrals(state, [(1.0, w)])
        with pytest.raises(StepError, match=match):
            engine.surface_snapshot(state, BLOCK + 3)
        with pytest.raises(StepError, match=match):
            state.values
        engine.surface_snapshot(state, 0)     # other rows stay finite
        seen.append(state.t)

    engine.run_chunk(2 * BLOCK, 1, 0, [overflow], [2])
    assert seen == [0.5]


def test_snapshot_of_a_path_outside_the_chunk_raises_index_error(
        event_engine):
    seen = []

    def collect(pos, state):
        for path in (8, -1):
            with pytest.raises(IndexError,
                               match=f"path {path} outside the chunk of 8"):
                event_engine.surface_snapshot(state, path)
        event_engine.surface_snapshot(state, 7)
        seen.append(state.t)

    event_engine.run_chunk(8, SEED, 0, [collect], [1])
    assert seen == [event_engine.grid[1]]
