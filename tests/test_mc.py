"""Monte Carlo orchestration: the convergence sweep and thread-count
invariance of the martingale verifier, the worker-count setting, and the
tranche oracle against its per-path loop and the closed form."""

import dataclasses
import math

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
from levycdo.errors import ConfigError, DomainError
from levycdo.loss import simulate_loss_paths_bulk
from levycdo.mc import (
    _MIN_PATHS,
    _discount_table,
    _tranche_leg_values,
    convergence_sweep,
    mc_stcdo_legs,
    run_martingale_test,
    thread_count,
)
from levycdo.pricing import TranchePayoff, stcdo_value
from levycdo.rng import CHUNK_SIZE, STREAM_LOSS, chunk_generator, chunk_ranges

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


# ----- worker-count setting --------------------------------------------------


def test_thread_count_argument_wins_over_environment(monkeypatch):
    monkeypatch.setenv("LEVYCDO_THREADS", "5")
    assert thread_count(3) == 3
    assert thread_count(np.int64(2)) == 2
    assert thread_count() == 5


def test_thread_count_reads_environment(monkeypatch):
    monkeypatch.delenv("LEVYCDO_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("LEVYCDO_THREADS", "")
    assert thread_count() == 1
    monkeypatch.setenv("LEVYCDO_THREADS", " 4 ")
    assert thread_count() == 4


@pytest.mark.parametrize("requested", [0, -2, 1.5, "2"])
def test_thread_count_rejects_bad_argument(monkeypatch, requested):
    monkeypatch.setenv("LEVYCDO_THREADS", "2")
    with pytest.raises(ConfigError):
        thread_count(requested)


@pytest.mark.parametrize("env", ["0", "-3", "two", "1.5"])
def test_thread_count_rejects_bad_environment(monkeypatch, env):
    monkeypatch.setenv("LEVYCDO_THREADS", env)
    with pytest.raises(ConfigError):
        thread_count()


# ----- tranche oracle ---------------------------------------------------------

QUARTERLY_2Y = tuple(0.25 * k for k in range(1, 9))
SPREAD = 0.01
LEG_ATOL = 1e-14


def _loop_legs(flat_t, flat_y, counts, surface0, tranche):
    """Reference: the oracle's former per-path loop over one chunk of
    ragged events, (payment leg, default leg) per path. Each jump is
    discounted through its own ``maturity_integral`` call."""
    T0 = (float(surface0.t) if tranche.effective_date is None
          else float(tranche.effective_date))

    def disc(u: float) -> float:
        return math.exp(-surface0.maturity_integral(surface0.t, u, 1.0))

    disc_coupons = np.array([disc(float(Ti)) for Ti in tranche.coupon_dates])
    coupon_arr = np.asarray(tranche.coupon_dates, dtype=float)
    offs = np.concatenate([[0], np.cumsum(counts)])
    pay = np.empty(len(counts))
    dflt = np.empty(len(counts))
    for p in range(len(counts)):
        ts = flat_t[offs[p]:offs[p + 1]]
        ys = flat_y[offs[p]:offs[p + 1]]
        levels = np.concatenate([[0.0], np.cumsum(ys)])
        at_coupons = levels[np.searchsorted(ts, coupon_arr, side="right")]
        pay[p] = float(disc_coupons @ tranche.H(at_coupons))
        keep = ts > T0
        dH = tranche.H(levels[:-1][keep]) - tranche.H(levels[1:][keep])
        dflt[p] = float(sum(disc(float(u)) * dh
                            for u, dh in zip(ts[keep], dH)))
    return pay, dflt


def _kernel_legs(flat_t, flat_y, counts, surface0, tranche):
    T0 = (0.0 if tranche.effective_date is None
          else float(tranche.effective_date))
    return _tranche_leg_values(flat_t, flat_y, counts, tranche, T0,
                               _discount_table(surface0))


def _ragged(paths):
    """Flat (times, sizes, counts) from per-path lists of (t, y) events."""
    flat = [ev for path in paths for ev in path]
    return (np.array([t for t, _ in flat], dtype=float),
            np.array([y for _, y in flat], dtype=float),
            np.array([len(path) for path in paths], dtype=int))


# Paths with no events, jumps before, at and after the effective date
# 0.125, jumps on coupon dates (one of them the last), off-grid jump
# times, and losses crossing x1 = 0.10 and then x2 = 0.16 one jump at a
# time or both at once.
HAND_PATHS = [
    [],
    [(0.5, 0.17)],
    [(0.1, 0.04), (0.125, 0.08), (0.2, 0.02)],
    [],
    [(0.3, 0.12), (0.77, 0.03), (1.6, 0.05)],
    [(0.0625, 0.11), (1.75, 0.03), (2.0, 0.17)],
    [(0.2, 0.03), (0.61, 0.03), (1.0, 0.03), (1.3, 0.03), (1.99, 0.03)],
    [],
]


@pytest.mark.parametrize("effective", [None, 0.125])
def test_tranche_legs_match_loop_on_hand_built_events(ladder_surface,
                                                      effective):
    tranche = TranchePayoff(0.10, 0.16, QUARTERLY_2Y, effective_date=effective)
    events = _ragged(HAND_PATHS)
    pay, dflt = _kernel_legs(*events, ladder_surface, tranche)
    ref_pay, ref_dflt = _loop_legs(*events, ladder_surface, tranche)
    np.testing.assert_allclose(pay, ref_pay, rtol=0, atol=LEG_ATOL)
    np.testing.assert_allclose(dflt, ref_dflt, rtol=0, atol=LEG_ATOL)
    # paths without events keep the full notional at every coupon
    assert np.all(dflt[[0, 3, 7]] == 0.0)
    assert pay[0] == pay[3] == pay[7] > pay[1] > 0.0


def test_tranche_legs_on_no_events_at_all(ladder_surface):
    tranche = TranchePayoff(0.10, 0.16, QUARTERLY_2Y)
    pay, dflt = _kernel_legs(*_ragged([[], []]), ladder_surface, tranche)
    ref_pay, _ = _loop_legs(*_ragged([[], []]), ladder_surface, tranche)
    np.testing.assert_allclose(pay, ref_pay, rtol=0, atol=LEG_ATOL)
    assert np.all(dflt == 0.0)


def _oracle_scenario(ladder_loss):
    """ROADMAP item 4: four left-interpolated barriers, 301 maturity nodes
    on [0, 3], the 10-16% tranche with quarterly coupons to 2 years."""
    surface = make_ladder_surface(n_nodes=301, barriers=(0.1, 0.2, 0.4, 1.0),
                                  x_interp="left")
    return ladder_loss, surface, TranchePayoff(0.10, 0.16, QUARTERLY_2Y)


@pytest.mark.parametrize("seed", [5, 1001])
def test_tranche_legs_match_loop_on_thinning_output(ladder_loss, seed):
    """Every chunk of a run with a partial last chunk, path by path; the
    oracle's means and standard errors are those of the same values."""
    spec, surface, tranche = _oracle_scenario(ladder_loss)
    n_paths = CHUNK_SIZE + 123
    horizon = tranche.coupon_dates[-1]
    pays, dflts = [], []
    for ci, lo, hi in chunk_ranges(n_paths):
        gen = chunk_generator(seed, STREAM_LOSS, ci)
        events = simulate_loss_paths_bulk(spec, horizon, gen, hi - lo)
        pay, dflt = _kernel_legs(*events, surface, tranche)
        ref_pay, ref_dflt = _loop_legs(*events, surface, tranche)
        np.testing.assert_allclose(pay, ref_pay, rtol=0, atol=LEG_ATOL)
        np.testing.assert_allclose(dflt, ref_dflt, rtol=0, atol=LEG_ATOL)
        pays.append(ref_pay)
        dflts.append(ref_dflt)
    assert [len(p) for p in pays] == [CHUNK_SIZE, 123]

    res = mc_stcdo_legs(spec, surface, tranche, SPREAD, n_paths, seed)
    pay, dflt = np.concatenate(pays), np.concatenate(dflts)
    for leg, mean, se in ((pay, res.payment_leg, res.payment_se),
                          (dflt, res.default_leg, res.default_se),
                          (SPREAD * pay - dflt, res.value, res.std_error)):
        assert abs(mean - leg.mean()) <= LEG_ATOL
        assert abs(se - leg.std(ddof=1) / math.sqrt(n_paths)) <= LEG_ATOL


def test_tranche_oracle_matches_closed_form(ladder_loss):
    """MC legs against ``stcdo_value`` within 4 standard errors (seed
    fixed in advance)."""
    spec, surface, tranche = _oracle_scenario(ladder_loss)
    res = mc_stcdo_legs(spec, surface, tranche, SPREAD, 40_000, 5)
    closed = stcdo_value(surface, 0.0, 0.0, tranche, SPREAD)
    assert abs(res.value - closed.value) <= 4.0 * res.std_error
    assert abs(res.payment_leg - closed.annuity) <= 4.0 * res.payment_se
    assert abs(res.default_leg + closed.protection_value) \
        <= 4.0 * res.default_se


def test_tranche_oracle_rejects_effective_date_before_valuation(
        ladder_loss, ladder_surface):
    """As the closed form does; the former loop priced it as if
    protection started at time 0."""
    tranche = TranchePayoff(0.10, 0.16, QUARTERLY_2Y, effective_date=-0.25)
    with pytest.raises(ConfigError):
        stcdo_value(ladder_surface, 0.0, 0.0, tranche, SPREAD)
    with pytest.raises(ConfigError):
        mc_stcdo_legs(ladder_loss, ladder_surface, tranche, SPREAD, 100, 5)


def test_tranche_oracle_rejects_surface_observed_later(ladder_loss,
                                                       ladder_surface):
    """Thinning starts at time 0, so a surface observed at t > 0 would
    count pre-t jumps in the coupon levels. The former loop accepted that
    silently, and with an effective date before t it failed only when a
    jump fell between the two; the oracle now fails on every seed."""
    later = dataclasses.replace(ladder_surface, t=0.5)
    coupons = tuple(0.75 + 0.25 * k for k in range(6))
    early = TranchePayoff(0.10, 0.16, coupons, effective_date=0.4)
    lucky = _ragged([[(0.3, 0.12)], [(1.1, 0.03)]])
    _loop_legs(*lucky, later, early)
    with pytest.raises(DomainError):
        _loop_legs(*_ragged([[(0.45, 0.12)]]), later, early)
    for tranche in (early, TranchePayoff(0.10, 0.16, coupons)):
        for seed in (5, 1001):
            with pytest.raises(ConfigError):
                mc_stcdo_legs(ladder_loss, later, tranche, SPREAD, 100, seed)
