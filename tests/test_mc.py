"""Monte Carlo orchestration: the convergence sweep and thread-count
invariance of the martingale verifier, one engine per scenario across
calls, the worker-count setting, the bond values against snapshot bond
prices, the tranche oracle against its per-path loop and the closed form,
the European oracle against the closed form, and the embedding check with
its power mutant."""

import dataclasses
import math

import numpy as np
import pytest

import levycdo.engine as engine_module
from levycdo.engine import SurfaceEngine, build_master_grid
from levycdo.families import (
    build_coefficients,
    constant_component,
    exp_decay_component,
    ladder_contagion,
    no_contagion,
)
from levycdo.hjm import ForwardSurface, bond_price
from levycdo.levy import JumpMeasureSpec, LevyTriplet
from levycdo.errors import ConfigError, DomainError
from levycdo.loss import LossCompensatorSpec, simulate_loss_paths_bulk
from levycdo.market import TenorStructure
from levycdo.mc import (
    EmbeddingReport,
    MartingaleTestReport,
    _MIN_PATHS,
    _discounted_bond_values,
    _tranche_leg_values,
    convergence_sweep,
    mc_european,
    mc_stcdo_legs,
    run_embedding_check,
    run_martingale_test,
    thread_count,
)
from levycdo.pricing import TranchePayoff, price_european, stcdo_value
from levycdo.rng import CHUNK_SIZE, STREAM_LOSS, chunk_generator, chunk_ranges

from conftest import LADDER_MARK, LADDER_RATE, make_ladder_surface

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


# ----- one engine per scenario across calls -----------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Counts ``SurfaceEngine`` builds, starting from an empty engine slot."""
    monkeypatch.setattr(engine_module, "_last_engine", None)
    count = [0]
    init = SurfaceEngine.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SurfaceEngine, "__init__", counting_init)
    return count


def _martingale(model, seed=5, threads=1, grid=None):
    if grid is None:
        grid = build_master_grid(HORIZON, 0.25, include=REPORT_TIMES)
    return run_martingale_test(n_paths=_MIN_PATHS, time_grid=grid,
                               targets=TARGETS, seed=seed,
                               report_times=REPORT_TIMES, threads=threads,
                               **model)


def _same_rows(a, b) -> bool:
    return all(np.array_equal(x, y, equal_nan=True) for x, y in (
        (a.means, b.means), (a.std_errors, b.std_errors),
        (a.z_scores, b.z_scores)))


def test_repeated_calls_build_one_engine(jump_loss_scenario, gauss2,
                                         gauss_embedding_coeffs, builds):
    """Calls on the same inputs reuse the engine: the grid need only be
    equal by value, and other seeds and path counts share it."""
    grid = build_master_grid(HORIZON, 0.25, include=REPORT_TIMES)
    for seed, g in ((5, grid), (6, grid), (7, grid.copy())):
        _martingale(jump_loss_scenario, seed=seed, grid=g)
    assert builds[0] == 1

    euro = [mc_european(h=lambda loss: np.ones_like(loss), T=1.0,
                        n_paths=2_000, seed=3, dt=1 / 20,
                        **jump_loss_scenario) for _ in range(2)]
    assert builds[0] == 2
    assert euro[0] == euro[1]

    embed = [_embedding_report(gauss_embedding_coeffs, gauss2, n_paths=2_000)
             for _ in range(2)]
    assert builds[0] == 3
    assert embed[0].to_csv() == embed[1].to_csv()


def test_other_model_rebuilds(jump_loss_scenario, builds):
    """Models the benchmark's scenario fingerprint cannot tell apart (other
    contagion rate, other component vectors) each get their own engine."""
    comps = (constant_component([0.022, 0.0]),
             exp_decay_component([0.0, 0.016], 0.4))
    other_comps = (constant_component([0.015, 0.005]),
                   exp_decay_component([0.004, 0.02], 0.4))
    variants = [
        jump_loss_scenario["coeffs"],
        build_coefficients(comps, ladder_contagion(0.9, LADDER_MARK),
                           "no_arbitrage", 2),
        build_coefficients(other_comps,
                           ladder_contagion(LADDER_RATE, LADDER_MARK),
                           "no_arbitrage", 2),
    ]
    reports = [_martingale(dict(jump_loss_scenario, coeffs=c))
               for c in variants]
    assert builds[0] == 3
    for i in range(3):
        for j in range(i):
            assert not np.array_equal(reports[i].means, reports[j].means,
                                      equal_nan=True)


@pytest.mark.parametrize("edit", ["surface", "grid"])
def test_in_place_edit_rebuilds(jump_loss_scenario, builds, edit):
    """Editing the caller's surface or grid in place between calls gives a
    new engine, whose rows equal those of a freshly built one."""
    grid = build_master_grid(HORIZON, 0.25, include=REPORT_TIMES)
    before = _martingale(jump_loss_scenario, grid=grid)
    if edit == "surface":
        jump_loss_scenario["surface0"].values[:, :] += 0.002
    else:
        grid[1] = 0.2
    after = _martingale(jump_loss_scenario, grid=grid)
    assert builds[0] == 2
    assert not _same_rows(before, after)
    engine_module._last_engine = None
    fresh = _martingale(jump_loss_scenario, grid=grid)
    assert builds[0] == 3
    assert _same_rows(after, fresh)


def test_engine_keeps_its_own_inputs(jump_loss_scenario):
    """The engine copies the surface and grid it is built from: in-place
    edits by the caller do not reach it, and its copies are read-only."""
    m = jump_loss_scenario
    surface = m["surface0"]
    grid = build_master_grid(HORIZON, 0.25, include=REPORT_TIMES)
    engine = SurfaceEngine(m["coeffs"], m["triplet"], m["loss_spec"],
                           surface, grid)
    values, nodes = surface.values.copy(), grid.copy()
    surface.values[:, :] += 0.002
    grid[1] = 0.2
    assert np.array_equal(engine.surface0.values, values)
    assert np.array_equal(engine.grid, nodes)
    for arr in (engine.grid, engine.surface0.values, engine.maturities):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_warm_engine_reproduces_cold_rows(jump_loss_scenario, builds):
    """With driver jumps and ladder loss, a warm engine whose caches other
    seeds filled gives the cold engine's CSV byte for byte: a cold call on
    two threads against a warm call on one."""
    cold = _martingale(jump_loss_scenario, seed=5, threads=2)
    _martingale(jump_loss_scenario, seed=9)
    warm = _martingale(jump_loss_scenario, seed=5, threads=1)
    assert builds[0] == 1
    assert warm.to_csv() == cold.to_csv()
    assert _same_rows(warm, cold)


# ----- bond values against snapshot bond prices -----------------------------


def _callable_drift(t, T, x, ell):
    # loss-free on the x = 1 slice, as the engine requires
    return (0.002 * np.cos(t) * np.exp(-0.2 * T)
            + (1.0 - x) * 0.01 * ell * (1.0 + t * T))


@pytest.mark.filterwarnings("ignore:mark atoms above")
@pytest.mark.parametrize("drift", ["no_arbitrage", _callable_drift],
                         ids=["no_arbitrage", "callable"])
def test_bond_values_match_snapshot_bond_prices(ladder_coeffs, gauss2,
                                                ladder_surface, drift):
    """Per path, the verifier's D_t P(t, T, x) equals exp(-R) times
    ``bond_price`` on the path's ``surface_snapshot``: both readers take
    the diagonal f(t, t, x) from ``SurfaceEngine.diagonal``. Report times
    lie off the maturity grid, so the diagonal enters both; a fast loss
    process reaches levels up to 0.85."""
    coeffs = dataclasses.replace(ladder_coeffs, drift=drift)
    loss = LossCompensatorSpec.constant(3.0, [(0.17, 1.0)])
    report_times = (0.3, 0.7, 1.0)
    grid = build_master_grid(1.0, 1 / 20, include=report_times)
    engine = SurfaceEngine(coeffs, gauss2, loss, ladder_surface, grid)
    nodes = [int(np.searchsorted(grid, t)) for t in report_times]
    targets = [(T, float(x)) for T in (0.7, 1.3, 2.0)
               for x in ladder_surface.barriers]
    levels = set()

    def collect(pos, state):
        vals = _discounted_bond_values(engine, state, targets)
        levels.update(np.round(state.loss, 12))
        for p in range(len(state.loss)):
            snap = engine.surface_snapshot(state, p)
            disc = math.exp(-state.discount_log[p])
            for m, (T, x) in enumerate(targets):
                if T < state.t:
                    assert np.isnan(vals[p, m])
                    continue
                want = disc * bond_price(snap, float(state.loss[p]), state.t,
                                         T, x).price
                assert abs(vals[p, m] - want) <= 1e-13 * abs(want), (p, T, x)

    engine.run_chunk(96, 29, 0, [collect], nodes)
    assert max(levels) >= 0.85 - 1e-9


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
                               surface0)


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


# ----- European oracle ---------------------------------------------------------

# The seed is fixed in advance for both grids.
EURO_SEED = 11
EURO_PATHS = 20_000


def _european_z(coeffs, triplet, loss_spec, barriers):
    """z of ``mc_european`` against ``price_european`` for the payoff H of
    the 10-40% tranche at T = 2, on a left-interpolated ladder surface."""
    surface = make_ladder_surface(barriers=barriers, x_interp="left")
    tranche = TranchePayoff(0.10, 0.40, (2.0,))
    mean, se = mc_european(coeffs, triplet, loss_spec, surface, 2.0,
                           tranche.H, EURO_PATHS, EURO_SEED, dt=1 / 50)
    closed = price_european(surface, 0.0, 0.0, 2.0, h=tranche.H,
                            h_prime=tranche.H_prime, kinks=tranche.kinks)
    return (mean - closed) / se


def test_european_oracle_matches_closed_form(ladder_coeffs, gauss2,
                                             ladder_loss):
    """Barriers at the multiples of the mark 0.17 and at 0.1, below the
    first: the ladder surface is constant in x between them, so left
    interpolation is exact."""
    z = _european_z(ladder_coeffs, gauss2, ladder_loss,
                    (0.1, 0.17, 0.34, 0.51, 0.68, 0.85, 1.0))
    assert abs(z) <= 4.0


def test_european_oracle_detects_misaligned_barriers(ladder_coeffs, gauss2,
                                                     ladder_loss):
    """Power: barriers off the ladder's steps put an O(1) grid error into
    the closed form, which the oracle must see."""
    z = _european_z(ladder_coeffs, gauss2, ladder_loss, (0.1, 0.2, 0.4, 1.0))
    assert abs(z) > 4.0


# ----- embedding check ---------------------------------------------------------

# The seed is fixed in advance for the clean run and the mutant.
EMBED_SEED = 11


def _embedding_report(coeffs, triplet, n_paths=20_000):
    surface = make_ladder_surface()
    tenor = TenorStructure([0.5, 1.0, 1.5, 2.0, 2.5], surface.barriers)
    return run_embedding_check(coeffs, triplet, None, surface, tenor,
                               checkpoints=(0.5, 1.0), window=0.25,
                               targets=((2, 0), (3, 2)), n_paths=n_paths,
                               seed=EMBED_SEED, dt=1 / 100)


@pytest.fixture
def gauss_embedding_coeffs():
    comps = (constant_component([0.022, 0.0]),
             exp_decay_component([0.0, 0.016], 0.4))
    return build_coefficients(comps, no_contagion(), "no_arbitrage", 2)


def test_embedding_check_passes_on_gaussian_model(gauss_embedding_coeffs,
                                                  gauss2):
    """Surface-induced discrete rates drift as the rate model states, and
    the vectorized drift equals the rate-form routine path by path."""
    rep = _embedding_report(gauss_embedding_coeffs, gauss2)
    assert rep.passed()
    assert rep.alpha_identity_gap <= 1e-10
    assert len(rep.rows) == 4


def test_embedding_check_detects_wrong_loadings(gauss_embedding_coeffs,
                                                gauss2):
    """Power: doubled volatility integrals double the discrete loadings
    the model drift is built from, while the surface keeps its dynamics."""
    b_integral = gauss_embedding_coeffs.b_integral
    wrong = dataclasses.replace(
        gauss_embedding_coeffs,
        b_integral=lambda *a: 2.0 * np.asarray(b_integral(*a)))
    assert not _embedding_report(wrong, gauss2).passed()


@pytest.mark.parametrize("worst", [1.25, -4.5])
def test_martingale_summary_states_the_verdict(worst):
    """The summary's first line states the same PASS/FAIL as ``passed``,
    the max |z| and the path count."""
    z = np.array([[0.0, 0.0], [0.5, worst], [-0.75, np.nan]])
    report = MartingaleTestReport(
        times=np.array([0.0, 0.5, 1.0]), targets=((0.75, 0.3), (2.0, 1.0)),
        reference=np.array([0.9, 0.95]), means=np.full((3, 2), 0.9),
        std_errors=np.full((3, 2), 0.01), z_scores=z, n_paths=4096,
        manifest={})
    head = report.summary().splitlines()[0]
    assert report.passed == (abs(worst) <= 4.0)
    assert ("PASS" if report.passed else "FAIL") in head
    assert ("FAIL" if report.passed else "PASS") not in head
    assert f"max |z| = {abs(worst):.3f}" in head
    assert "4096 paths" in head


@pytest.mark.parametrize("worst", [2.5, -3.25])
def test_embedding_summary_states_the_verdict(worst):
    """The summary's first line states the same PASS/FAIL as ``passed()``,
    the max |z| and the path count."""
    rows = ((0.5, 0, 0.3, 0.011, 0.010, 0.002, 0.5),
            (0.5, 1, 1.0, 0.020, 0.021, 0.001, worst))
    report = EmbeddingReport(rows=rows, window=0.25, n_paths=2048,
                             alpha_identity_gap=0.0, manifest={})
    head = report.summary().splitlines()[0]
    assert report.passed() == (abs(worst) <= 3.0)
    assert ("PASS" if report.passed() else "FAIL") in head
    assert ("FAIL" if report.passed() else "PASS") not in head
    assert f"max |z| = {abs(worst):.3f}" in head
    assert "2048 paths" in head
