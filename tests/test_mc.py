"""Monte Carlo orchestration: the convergence sweep and thread-count
invariance of the martingale verifier."""

import numpy as np
import pytest

from levycdo.engine import build_master_grid
from levycdo.families import (
    build_coefficients,
    constant_component,
    exp_decay_component,
    no_contagion,
)
from levycdo.hjm import ForwardSurface
from levycdo.levy import JumpMeasureSpec, LevyTriplet
from levycdo.mc import _MIN_PATHS, convergence_sweep, run_martingale_test
from levycdo.rng import CHUNK_SIZE

from conftest import make_ladder_surface

HORIZON = 1.0
REPORT_TIMES = (0.5, 1.0)
TARGETS = ((1.5, 0.55), (2.0, 1.0))


@pytest.fixture
def gauss_scenario(gauss2):
    """Loss-free Gaussian model on a coarse surface."""
    comps = (constant_component([0.012, 0.0]),
             exp_decay_component([0.0, 0.01], 0.4))
    coeffs = build_coefficients(comps, no_contagion(), "no_arbitrage", 2)
    surface = ForwardSurface.from_function(
        lambda T, x: 0.02 + 0.002 * np.asarray(T, dtype=float),
        np.linspace(0.0, 2.0, 9), np.array([0.3, 0.55, 1.0]),
    )
    return dict(coeffs=coeffs, triplet=gauss2, loss_spec=None,
                surface0=surface)


def test_sweep_rows_match_martingale_test(gauss_scenario):
    """Each sweep row is the martingale test at its step size, path count
    and seed (the sweep builds one engine per step size)."""
    n_list = (_MIN_PATHS, 2 * _MIN_PATHS)
    dt_list = (0.25, 0.125)
    rows = convergence_sweep(n_list=n_list, dt_list=dt_list, horizon=HORIZON,
                             targets=TARGETS, report_times=REPORT_TIMES,
                             seed=17, **gauss_scenario)
    assert [(r.dt, r.n_paths) for r in rows] == [
        (dt, n) for dt in dt_list for n in n_list
    ]
    for row in rows:
        grid = build_master_grid(HORIZON, row.dt, include=REPORT_TIMES)
        rep = run_martingale_test(n_paths=row.n_paths, time_grid=grid,
                                  targets=TARGETS, seed=17,
                                  report_times=REPORT_TIMES, **gauss_scenario)
        it = int(np.flatnonzero(rep.times == row.worst_time)[0])
        im = rep.targets.index(row.worst_target)
        assert row.max_abs_z == rep.max_abs_z
        assert row.passed == rep.passed
        assert row.worst_dev == rep.means[it, im] - rep.reference[im]
        assert row.worst_se == rep.std_errors[it, im]


@pytest.fixture
def jump_loss_scenario(ladder_coeffs, ladder_loss):
    """Driver jumps on a Gaussian driver, ladder contagion and ladder loss."""
    trip = LevyTriplet(
        m=np.zeros(2), sigma=np.array([[1.0, 0.3], [0.3, 1.0]]),
        jumps=JumpMeasureSpec.compound_poisson(
            1.0, [([0.3, -0.2], 0.6), ([-0.1, 0.4], 0.4)]),
    )
    return dict(coeffs=ladder_coeffs, triplet=trip, loss_spec=ladder_loss,
                surface0=make_ladder_surface())


def _csv_by_threads(model) -> dict:
    n_paths = 2 * _MIN_PATHS
    assert n_paths > CHUNK_SIZE  # more than one chunk to schedule
    grid = build_master_grid(HORIZON, 0.25, include=REPORT_TIMES)
    return {
        threads: run_martingale_test(n_paths=n_paths, time_grid=grid,
                                     targets=TARGETS, seed=5,
                                     report_times=REPORT_TIMES,
                                     threads=threads, **model).to_csv()
        for threads in (1, 2)
    }


def test_martingale_csv_is_thread_invariant(gauss_scenario):
    """Chunk partials reduce in a fixed tree: the CSV does not depend on
    the worker count."""
    csv = _csv_by_threads(gauss_scenario)
    assert csv[1] == csv[2]


def test_martingale_csv_is_thread_invariant_with_events(jump_loss_scenario):
    """The same with driver jumps and ladder loss jumps in every chunk."""
    csv = _csv_by_threads(jump_loss_scenario)
    assert csv[1] == csv[2]
