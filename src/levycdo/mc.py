"""Monte Carlo orchestration and statistical verifiers.

The centerpiece is the martingale verifier: discounted barrier-bond values
D_t P(t,T,x) must have constant mean along the simulation grid, so their
per-time z-scores against the t = 0 value form a statistical no-arbitrage
test. Common random numbers across report times (the same paths feed every
t) keep the constancy comparison tight.

Work is split into fixed-size path chunks with dedicated random streams;
chunk partials are combined by a pairwise tree in chunk order, so reports
are bit-identical for a given seed manifest no matter how many worker
threads run the chunks.

Engines are shared across calls as well as across threads. Every verifier
gets its engine from ``engine._engine_for``, which hands back the last
engine it built when the new call passes the same coefficient, driver and
loss-spec objects and an initial surface and master grid equal by value to
the engine's own copies, and builds a new one otherwise. Repeated calls on
one scenario (new seeds, more paths, the rows of a convergence sweep at
one step size) therefore build once, and their reports are the same
floats as with a freshly built engine.
"""

from __future__ import annotations

import json
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import PathState, SurfaceEngine, _engine_for, build_master_grid
from .errors import (
    ConfigError,
    GridError,
    InsufficientPathsError,
    StateError,
)
from .hjm import CoefficientSpec, ForwardSurface, bond_price
from .levy import LevyTriplet
from .loss import (
    LossCompensatorSpec,
    intensity_lambda,
    levels_before,
    simulate_loss_paths_bulk,
)
from .market import MarketCoefficientSpec, TenorStructure, alpha_rate_model
from .pricing import TranchePayoff
from .rng import (
    CHUNK_SIZE,
    STREAM_LOSS,
    check_seed,
    chunk_generator,
    chunk_ranges,
)

__all__ = [
    "MartingaleTestReport",
    "run_martingale_test",
    "SweepRow",
    "convergence_sweep",
    "EmbeddingReport",
    "run_embedding_check",
    "mc_european",
    "StcdoMcResult",
    "mc_stcdo_legs",
    "thread_count",
]

Z_THRESHOLD = 4.0
_MIN_PATHS = 10_000
# paths per row that the embedding check replays through the rate-form
# drift routine (``EmbeddingReport.alpha_identity_gap``)
_IDENTITY_SAMPLE = 64


def thread_count(requested: Optional[int] = None) -> int:
    """Worker threads: explicit argument, else LEVYCDO_THREADS, else 1."""
    if requested is not None:
        try:
            n = operator.index(requested)
        except TypeError:
            raise ConfigError(
                f"thread count must be an integer, got {requested!r}") from None
        if n < 1:
            raise ConfigError(f"thread count must be positive, got {n}")
        return n
    env = os.environ.get("LEVYCDO_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"LEVYCDO_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise ConfigError(f"LEVYCDO_THREADS must be positive, got {n}")
        return n
    return 1


def _tree_sum(parts: list):
    """Pairwise reduction in fixed order: the combining tree depends only on
    the chunk count, so multi-thread runs reproduce single-thread sums bit
    for bit."""
    if not parts:
        raise StateError("nothing to reduce")
    parts = list(parts)
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            nxt.append(parts[i] + parts[i + 1])
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def _mean_se(s1, s2, n: int):
    """(mean, standard error) of n paths from their sums of values s1 and
    of squares s2: the one moments rule of the verifiers and oracles."""
    mean = s1 / n
    var = np.maximum(s2 - n * mean ** 2, 0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def _run_chunks(engine: SurfaceEngine, n_paths: int, seed: int,
                report_nodes, make_collector: Callable,
                threads: Optional[int]) -> list:
    """Run all chunks, each with a fresh collector, returning per-chunk
    partials in chunk order regardless of scheduling.

    ``make_collector()`` returns (collector, finish); ``finish()`` yields
    the chunk's partial. The engine is shared by the chunks, and by later
    calls on the same inputs (see the module docstring): its lazily built
    caches hold deterministic values keyed by loss level or node, so
    concurrent fills are idempotent, a warm engine gives the same floats as
    a cold one, and per-path state lives entirely in chunk-local arrays.
    """
    ranges = chunk_ranges(n_paths)

    def one(args):
        ci, lo, hi = args
        collector, finish = make_collector()
        engine.run_chunk(hi - lo, seed, ci, [collector], report_nodes,
                         path_offset=lo)
        return finish()

    workers = thread_count(threads)
    if workers == 1 or len(ranges) == 1:
        return [one(r) for r in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, ranges))


# ----- bond values from engine states ---------------------------------------


def _trapz_layout(maturities: np.ndarray, a: float, b: float):
    """Trapezoid weights for int_a^b f(t, u) du on the stored maturity grid.

    Returns (w_anchor, w_cols): per-column weights plus the weight left on
    an off-grid start point a (the caller supplies its value, typically the
    surface diagonal f(t,t)). Grid-aligned points fold into their columns;
    an off-grid b folds into its bracketing pair. The rule mirrors the
    piecewise-linear maturity convention used by surface bond prices, so
    both routes integrate the same interpolant.
    """
    if b < a - 1e-12:
        raise GridError(f"integration bound {b} precedes start {a}")
    w_cols = np.zeros(len(maturities))
    if b - a <= 1e-12:
        return 0.0, w_cols
    inner = [float(u) for u in maturities if a + 1e-12 < u < b - 1e-12]
    pts = np.array([a] + inner + [b])
    gaps = np.diff(pts)
    w = np.zeros(len(pts))
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    w_anchor = 0.0
    for idx, (p, wt) in enumerate(zip(pts, w)):
        j = int(np.searchsorted(maturities, p))
        if j < len(maturities) and abs(maturities[j] - p) <= 1e-12:
            w_cols[j] += wt
        elif j > 0 and abs(maturities[j - 1] - p) <= 1e-12:
            w_cols[j - 1] += wt
        elif idx == 0:
            w_anchor = float(wt)
        else:
            # off-grid interior/end point: linear interpolation weights
            lo, hi = maturities[j - 1], maturities[j]
            u = (p - lo) / (hi - lo)
            w_cols[j - 1] += wt * (1.0 - u)
            w_cols[j] += wt * u
    return w_anchor, w_cols


def _trapz_weights(engine: SurfaceEngine, a: float, b: float):
    """``_trapz_layout`` on the engine's maturities, cached per engine by
    (a, b): a report node's time and a target maturity, or a rate period's
    dates. The column weights are read-only."""
    key = (float(a), float(b))
    hit = engine._trapz_cache.get(key)
    if hit is None:
        w0, w_cols = _trapz_layout(engine.maturities, key[0], key[1])
        w_cols.setflags(write=False)
        hit = engine._trapz_cache[key] = (w0, w_cols)
    return hit


def _discounted_bond_values(engine: SurfaceEngine, state: PathState,
                            targets) -> np.ndarray:
    """D_t P(t, T, x) per path and target, vectorized over the chunk."""
    out = np.full((len(state.loss), len(targets)), np.nan)
    live = [m for m, (T, _) in enumerate(targets) if T >= state.t - 1e-12]
    layouts = [_trapz_weights(engine, state.t, targets[m][0]) for m in live]
    expos = engine.maturity_integrals(
        state, [(targets[m][1], w) for m, (_, w) in zip(live, layouts)])
    disc = np.exp(-state.discount_log)
    for j, m in enumerate(live):
        x = float(targets[m][1])
        w0 = layouts[j][0]
        expo = expos[:, j]
        if w0 != 0.0:
            expo = expo + w0 * engine.diagonal(state, x)
        alive = state.loss <= x
        out[:, m] = np.where(alive, disc * np.exp(-expo), 0.0)
    return out


# ----- martingale verifier ---------------------------------------------------


@dataclass(frozen=True)
class MartingaleTestReport:
    """Constant-mean test of discounted (T, x)-bond values.

    Rows are (report time, target); ``reference`` holds the deterministic
    time-zero values the means are tested against. ``passed`` is the
    max |z| verdict at the package threshold of 4. Entries at report times
    past a target's maturity are NaN.
    """

    times: np.ndarray                 # (nt,)
    targets: tuple                    # ((T, x), ...)
    reference: np.ndarray             # (m,)
    means: np.ndarray                 # (nt, m)
    std_errors: np.ndarray            # (nt, m)
    z_scores: np.ndarray              # (nt, m)
    n_paths: int
    manifest: dict

    @property
    def max_abs_z(self) -> float:
        if np.any(np.isinf(self.z_scores)):
            return math.inf
        z = self.z_scores[np.isfinite(self.z_scores)]
        return float(np.max(np.abs(z))) if len(z) else 0.0

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= Z_THRESHOLD

    def to_csv(self) -> str:
        """Byte-stable CSV: a manifest comment line, then one row per
        (time, target)."""
        lines = ["# manifest: " + json.dumps(self.manifest, sort_keys=True)]
        lines.append("time,maturity,barrier,mean,std_error,z_score")
        for it, t in enumerate(self.times):
            for m, (T, x) in enumerate(self.targets):
                lines.append(
                    "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
                    % (t, T, x, self.means[it, m], self.std_errors[it, m],
                       self.z_scores[it, m])
                )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"martingale test: {verdict} "
            f"(max |z| = {self.max_abs_z:.3f}, threshold {Z_THRESHOLD:g}, "
            f"{self.n_paths} paths)"
        ]
        for m, (T, x) in enumerate(self.targets):
            zs = self.z_scores[:, m]
            zs = zs[np.isfinite(zs)]
            worst = float(np.max(np.abs(zs))) if len(zs) else math.inf
            lines.append(
                f"  target (T={T:g}, x={x:g}): reference "
                f"{self.reference[m]:.6f}, worst |z| {worst:.3f}"
            )
        return "\n".join(lines)


def _check_martingale_inputs(n_list: Sequence[int], targets: Sequence,
                             seed: int) -> int:
    """Validate path counts, targets and seed before any engine is built;
    returns the checked seed."""
    seed = check_seed(seed)
    for n_paths in n_list:
        if n_paths < _MIN_PATHS:
            raise ConfigError(
                f"martingale test needs at least {_MIN_PATHS} paths for its "
                f"z-scores to be meaningful, got {n_paths}"
            )
    if not targets:
        raise ConfigError("at least one (T, x) target is required")
    return seed


def run_martingale_test(coeffs: CoefficientSpec, triplet: LevyTriplet,
                        loss_spec: Optional[LossCompensatorSpec],
                        surface0: ForwardSurface, n_paths: int,
                        time_grid, targets: Sequence,
                        seed: int, report_times=None,
                        threads: Optional[int] = None) -> MartingaleTestReport:
    """Simulate the surface model and test E[D_t P(t,T,x)] for constancy.

    ``time_grid`` is the simulation grid; ``report_times`` (default: every
    grid node) picks where means are measured. The same paths feed every
    report time, so deviations from the time-zero value are common-random-
    number comparisons across t rather than independent estimates.

    Raises InsufficientPathsError when a live row's standard error exceeds
    10% of the corresponding time-zero value: a verdict from that little
    data would be noise either way.
    """
    seed = _check_martingale_inputs([n_paths], targets, seed)
    engine = _engine_for(coeffs, triplet, loss_spec, surface0, time_grid)
    grid = engine.grid
    targets = tuple((float(T), float(x)) for T, x in targets)

    if report_times is None:
        nodes = list(range(len(grid)))
    else:
        nodes = []
        for rt in report_times:
            j = int(np.searchsorted(grid, float(rt)))
            if j >= len(grid) or abs(grid[j] - float(rt)) > 1e-10:
                raise GridError(f"report time {rt} is not a grid node")
            nodes.append(j)
        nodes = sorted(set(nodes))
    times = grid[nodes]
    nt, m = len(nodes), len(targets)

    def make_collector():
        s1 = np.zeros((nt, m))
        s2 = np.zeros((nt, m))

        def collect(pos, state: PathState):
            vals = _discounted_bond_values(engine, state, targets)
            s1[pos] += np.nansum(vals, axis=0)
            s2[pos] += np.nansum(vals * vals, axis=0)

        return collect, lambda: np.stack([s1, s2])

    parts = _run_chunks(engine, n_paths, seed, nodes, make_collector, threads)
    s1, s2 = _tree_sum(parts)

    reference = np.array([
        bond_price(surface0, 0.0, float(grid[0]), T, x).price
        for T, x in targets
    ])
    means, ses = _mean_se(s1, s2, n_paths)
    mask = times[:, None] <= np.array([T for T, _ in targets])[None, :] + 1e-12

    dev = means - reference[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        zs = np.where(ses > 0.0, dev / ses,
                      np.where(np.abs(dev) <= 1e-12, 0.0, np.inf))
    means = np.where(mask, means, np.nan)
    ses = np.where(mask, ses, np.nan)
    zs = np.where(mask, zs, np.nan)

    bad = mask & (ses > 0.1 * np.abs(reference)[None, :])
    if np.any(bad):
        it, im = np.argwhere(bad)[0]
        raise InsufficientPathsError(
            f"standard error {ses[it, im]:.3g} at t={times[it]:g} for target "
            f"(T={targets[im][0]:g}, x={targets[im][1]:g}) exceeds 10% of "
            f"the t=0 value {reference[im]:.3g}; increase the path count"
        )

    manifest = {
        "seed": seed,
        "n_paths": int(n_paths),
        "chunk_size": CHUNK_SIZE,
        "grid": {"t0": float(grid[0]), "t1": float(grid[-1]),
                 "steps": int(len(grid) - 1)},
        "report_times": [float(t) for t in times],
        "targets": [[float(T), float(x)] for T, x in targets],
    }
    return MartingaleTestReport(
        times=times, targets=targets, reference=reference, means=means,
        std_errors=ses, z_scores=zs, n_paths=int(n_paths), manifest=manifest,
    )


# ----- convergence sweep -----------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    dt: float
    n_paths: int
    max_abs_z: float
    worst_dev: float         # signed deviation carrying the largest |z|
    worst_se: float
    worst_time: float
    worst_target: tuple
    passed: bool


def convergence_sweep(coeffs: CoefficientSpec, triplet: LevyTriplet,
                      loss_spec: Optional[LossCompensatorSpec],
                      surface0: ForwardSurface, n_list: Sequence[int],
                      dt_list: Sequence[float], horizon: float,
                      targets: Sequence, report_times: Sequence,
                      seed: int, threads: Optional[int] = None) -> list:
    """Cross table of the martingale test over path counts and step sizes.

    Chunk streams are keyed by (seed, chunk index) alone, so a smaller run's
    paths are literally the leading chunks of a larger one at the same seed:
    rows within one dt are common-random-number coupled, which makes the
    standard-error scaling across N nearly deterministic. Rows across dt
    separate time-stepping bias (moves with dt) from statistics (moves
    with N). Every row is ``run_martingale_test`` at its (dt, n); the rows
    of one dt share one engine.
    """
    seed = _check_martingale_inputs(n_list, targets, seed)
    rows = []
    for dt in dt_list:
        grid = build_master_grid(horizon, float(dt),
                                 include=tuple(report_times))
        for n in n_list:
            rep = run_martingale_test(coeffs, triplet, loss_spec, surface0,
                                      int(n), grid, targets, seed,
                                      report_times, threads)
            flat = np.abs(np.nan_to_num(rep.z_scores, nan=0.0))
            it, im = np.unravel_index(int(np.argmax(flat)), flat.shape)
            rows.append(SweepRow(
                dt=float(dt), n_paths=int(n), max_abs_z=rep.max_abs_z,
                worst_dev=float(rep.means[it, im] - rep.reference[im]),
                worst_se=float(rep.std_errors[it, im]),
                worst_time=float(rep.times[it]),
                worst_target=rep.targets[im],
                passed=rep.passed,
            ))
    return rows


# ----- discrete-rate embedding check ----------------------------------------


@dataclass(frozen=True)
class EmbeddingReport:
    """Drift comparison for discrete rates induced by the surface model.

    Each row compares the empirical per-unit-time drift of L(t, T_k, x_i)
    over one observation window against the discrete model's stated drift
    evaluated on the same paths, as a z-score of the paired difference.

    ``alpha_identity_gap`` is the largest observed difference between the
    vectorized drift expression used for the full sample and the rate-form
    drift routine evaluated path by path on a small subsample: an exact
    consistency guard tying the reduction to the model's own drift code,
    not a statistical quantity.
    """

    rows: tuple          # ((t, k, barrier, emp, model, se, z), ...)
    window: float
    n_paths: int
    alpha_identity_gap: float
    manifest: dict

    @property
    def max_abs_z(self) -> float:
        return max(abs(r[6]) for r in self.rows)

    def passed(self, threshold: float = 3.0) -> bool:
        return self.max_abs_z <= threshold

    def to_csv(self) -> str:
        lines = ["# manifest: " + json.dumps(self.manifest, sort_keys=True)]
        lines.append("time,period,barrier,empirical_drift,model_drift,"
                     "std_error,z_score")
        for t, k, x, emp, mod, se, z in self.rows:
            lines.append("%.17g,%d,%.17g,%.17g,%.17g,%.17g,%.17g"
                         % (t, k, x, emp, mod, se, z))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        verdict = "PASS" if self.passed() else "FAIL"
        head = (f"embedding drift check: {verdict} "
                f"(max |z| = {self.max_abs_z:.3f}, threshold 3, "
                f"{self.n_paths} paths, identity gap "
                f"{self.alpha_identity_gap:.3g})")
        body = [
            f"  t={t:g} period {k} barrier {x:g}: empirical {emp:.6g}, "
            f"model {mod:.6g}, z = {z:+.3f}"
            for t, k, x, emp, mod, se, z in self.rows
        ]
        return "\n".join([head] + body)


def _window_rates(engine: SurfaceEngine, state: PathState,
                  tenor: TenorStructure, k: int, x: float):
    """(rate, alive) arrays for period k at barrier x from engine state.

    The simple rate is (exp of the forward integral over the accrual
    period minus 1) / accrual on the alive set and 0 on the dead set,
    using the same maturity-grid integration as surface bond prices.
    """
    Tk = float(tenor.maturities[k])
    Tk1 = float(tenor.maturities[k + 1])
    w0, w_cols = _trapz_weights(engine, Tk, Tk1)
    if w0 != 0.0:
        raise GridError("tenor dates must be maturity-grid nodes")
    alive = state.loss <= x
    expo = engine.maturity_integrals(state, [(x, w_cols)])[:, 0]
    rate = np.where(alive, np.expm1(expo) / (Tk1 - Tk), 0.0)
    return rate, alive


def run_embedding_check(coeffs: CoefficientSpec, triplet: LevyTriplet,
                        loss_spec: Optional[LossCompensatorSpec],
                        surface0: ForwardSurface, tenor: TenorStructure,
                        checkpoints: Sequence[float], window: float,
                        targets: Sequence, n_paths: int, seed: int,
                        dt: float = 1e-3,
                        threads: Optional[int] = None) -> EmbeddingReport:
    """Verify that surface-induced discrete rates drift as the rate model
    prescribes.

    For each checkpoint t and target (period k, barrier index i), the paths'
    mean of L(t+w) - L(t) - w * drift_model(t) must be statistically zero,
    where drift_model is the discrete rate model's dt-term evaluated from
    the path state at t:

        alive * [ (1 + delta_k L_k)/delta_k * (S_k + Lambda_surv(t, ell))
                  - lambda(t, x_i; ell) * L_k ]

    with S_k the covariance sum over the live relative loadings (the rate
    states' weights cancel exactly against those loadings, leaving plain
    products of forward-integrated loadings) and Lambda_surv the stated
    per-mark loss compensation summed over marks that keep the slice alive.
    Barrier crossings inside the window are part of the comparison: the
    -lambda L term is exactly the death flux.

    Scope: a jump-free driver and contagion-free coefficients, the setting
    in which the rate-form model is stated; ConfigError otherwise. The
    stated loss term is only consistent with the surface dynamics when
    Lambda_surv vanishes at the targets, so pick barriers below the
    smallest loss mark (every jump then crosses); the check reports
    honestly either way. Checkpoints must lie inside the tenor span
    [first date, last date): earlier, the current-period stub integral
    breaks the telescoping the covariance sum relies on.

    The first chunk also replays ``_IDENTITY_SAMPLE`` paths per row through
    the rate-form drift routine with per-path relative loadings; the
    largest gap against the vectorized expression is reported as
    ``alpha_identity_gap``.
    """
    seed = check_seed(seed)
    if triplet.jumps.kind != "none":
        raise ConfigError("the embedding check requires a jump-free driver")
    for t_, s_, y_ in ((0.1, 0.7, 0.1), (0.4, 1.6, 0.5)):
        for x_ in tenor.barriers:
            c_val = float(np.asarray(coeffs.c(t_, s_, float(x_), y_, 0.0)))
            if abs(c_val) > 1e-12:
                raise ConfigError(
                    "the embedding check requires contagion-free coefficients"
                )
    T1 = float(tenor.maturities[0])
    Tn = float(tenor.maturities[-1])
    checkpoints = [float(c) for c in checkpoints]
    window = float(window)
    if window <= 0.0:
        raise ConfigError(f"window must be positive, got {window}")
    for c in checkpoints:
        if not T1 <= c < Tn:
            raise ConfigError(
                f"checkpoint {c} outside the tenor span [{T1}, {Tn})"
            )
    targets = [(int(k), int(i)) for k, i in targets]
    horizon = max(c + window for c in checkpoints)
    for k, i in targets:
        tenor.check_period(k)
        tenor.check_barrier(i)
        if float(tenor.maturities[k]) <= horizon:
            raise ConfigError(
                f"period {k} starts inside the observation horizon; its "
                f"rate window must still be fully live at every checkpoint"
            )
    grid = build_master_grid(
        horizon, dt,
        include=tuple(checkpoints) + tuple(c + window for c in checkpoints),
    )
    engine = _engine_for(coeffs, triplet, loss_spec, surface0, grid)
    mspec = MarketCoefficientSpec.from_forward_coeffs(coeffs, triplet, tenor)
    sigma = triplet.sigma
    barriers = tenor.barriers
    accruals = tenor.accruals

    def node_of(t: float) -> int:
        j = int(np.searchsorted(grid, t))
        if j >= len(grid) or abs(grid[j] - t) > 1e-10:
            raise GridError(f"time {t} is not on the simulation grid")
        return j

    cp_nodes = {node_of(c): c for c in checkpoints}
    end_nodes = {node_of(c + window): c for c in checkpoints}
    if set(cp_nodes) & set(end_nodes):
        raise ConfigError("window must exceed one grid step")
    report_nodes = sorted(set(cp_nodes) | set(end_nodes))

    cov_sum = {}
    for c in checkpoints:
        eta = tenor.eta(c)
        for k, i in targets:
            betas = [mspec.eval_beta(c, j, i) for j in range(eta, k + 1)]
            bk = betas[-1]
            cov_sum[(c, k, i)] = float(sum(b @ (sigma @ bk) for b in betas))

    def lambdas_at(c: float, x: float, loss: np.ndarray, alive: np.ndarray):
        """(crossing, surviving) intensity per path at its loss level."""
        lam = np.zeros(len(loss))
        surv = np.zeros(len(loss))
        if loss_spec is None:
            return lam, surv
        for lv in np.unique(loss[alive]):
            sel = alive & (loss == lv)
            cross = intensity_lambda(c, x, float(lv), loss_spec)
            total = intensity_lambda(c, float(lv), float(lv), loss_spec)
            lam[sel] = cross
            surv[sel] = total - cross
        return lam, surv

    rows_order = [(c, k, i) for c in checkpoints for k, i in targets]
    row_of = {key: r for r, key in enumerate(rows_order)}
    m_rows = len(rows_order)

    identity_gap = [0.0]
    id_rows_done = set()

    def identity_check(c, k, i, state, drift_vec, alive):
        """Replay a few paths through the rate-form drift routine."""
        eta = tenor.eta(c)
        x = float(barriers[i])
        period_rates = {}
        for j in range(eta, k + 1):
            if float(tenor.maturities[j]) > c:
                period_rates[j] = _window_rates(engine, state, tenor, j, x)[0]
            else:
                # current-period stub: its value enters only through a
                # weight that cancels against the relative loading, so any
                # positive stand-in gives the same drift; use the initial
                # surface's rate
                r0 = float(np.expm1(surface0.maturity_integral(
                    float(tenor.maturities[j]),
                    float(tenor.maturities[j + 1]), x)) / accruals[j])
                period_rates[j] = np.full(len(state.loss), r0)
        for p in np.flatnonzero(alive)[:_IDENTITY_SAMPLE]:
            states = [float(period_rates[j][p]) for j in range(eta, k + 1)]
            dL = [accruals[j] * states[j - eta] for j in range(eta, k + 1)]
            if any(abs(v) < 1e-6 or 1.0 + v <= 0.0 for v in dL):
                continue
            scale = [(1.0 + v) / v for v in dL]

            def beta_p(t, kk, ii, _s=scale, _e=eta):
                return _s[kk - _e] * mspec.eval_beta(t, kk, ii)

            spec_p = MarketCoefficientSpec(
                tenor=tenor, dimension=mspec.dimension, beta=beta_p,
                gamma=mspec.gamma, triplet=triplet,
                beta_bound=max(mspec.beta_bound, 1e7),
            )
            a = alpha_rate_model(spec_p, loss_spec, c, k, i,
                                 float(state.loss[p]), states)
            gap = abs(states[-1] * a - drift_vec[p])
            identity_gap[0] = max(identity_gap[0], gap)

    def make_collector():
        s1 = np.zeros(m_rows)
        s2 = np.zeros(m_rows)
        sd = np.zeros(m_rows)
        start: dict = {}
        first_chunk = not id_rows_done

        def collect(pos, state: PathState):
            node = report_nodes[pos]
            if node in cp_nodes:
                c = cp_nodes[node]
                for k, i in targets:
                    x = float(barriers[i])
                    rate, alive = _window_rates(engine, state, tenor, k, x)
                    lam, surv = lambdas_at(c, x, state.loss, alive)
                    drift = np.where(
                        alive,
                        (1.0 + accruals[k] * rate) / accruals[k]
                        * (cov_sum[(c, k, i)] + surv) - lam * rate,
                        0.0,
                    )
                    start[(c, k, i)] = (rate, drift)
                    if first_chunk and (c, k, i) not in id_rows_done:
                        id_rows_done.add((c, k, i))
                        identity_check(c, k, i, state, drift, alive)
            if node in end_nodes:
                c = end_nodes[node]
                for k, i in targets:
                    rate1, _ = _window_rates(engine, state, tenor, k,
                                             float(barriers[i]))
                    rate0, drift = start[(c, k, i)]
                    dvals = rate1 - rate0 - window * drift
                    r = row_of[(c, k, i)]
                    s1[r] += float(np.sum(dvals))
                    s2[r] += float(np.sum(dvals * dvals))
                    sd[r] += float(np.sum(drift))

        return collect, lambda: np.stack([s1, s2, sd])

    parts = _run_chunks(engine, n_paths, seed, report_nodes, make_collector,
                        threads)
    s1, s2, sd = _tree_sum(parts)
    mean, se = _mean_se(s1, s2, n_paths)

    rows = []
    for c, k, i in rows_order:
        r = row_of[(c, k, i)]
        if se[r] > 0:
            z = float(mean[r] / se[r])
        else:
            z = 0.0 if abs(mean[r]) <= 1e-15 else math.inf
        model = sd[r] / n_paths
        rows.append((c, k, float(barriers[i]),
                     float(model + mean[r] / window), float(model),
                     float(se[r] / window), z))

    manifest = {
        "seed": seed, "n_paths": int(n_paths), "chunk_size": CHUNK_SIZE,
        "dt": float(dt), "window": window,
        "checkpoints": checkpoints,
        "targets": [[k, i] for k, i in targets],
    }
    return EmbeddingReport(
        rows=tuple(rows), window=window, n_paths=int(n_paths),
        alpha_identity_gap=float(identity_gap[0]), manifest=manifest,
    )


# ----- direct MC pricing oracles ---------------------------------------------


def mc_european(coeffs: CoefficientSpec, triplet: LevyTriplet,
                loss_spec: Optional[LossCompensatorSpec],
                surface0: ForwardSurface, T: float, h: Callable,
                n_paths: int, seed: int, dt: float = 1 / 250,
                threads: Optional[int] = None) -> tuple:
    """(estimate, standard error) of E[exp(-int r) h(L_T)] by simulation.

    Works for stochastic rates: the discount factor accumulates along each
    path. ``h`` must accept a loss-level array. Compare against the
    integral pricer on the time-zero surface.
    """
    seed = check_seed(seed)
    grid = build_master_grid(float(T), float(dt))
    engine = _engine_for(coeffs, triplet, loss_spec, surface0, grid)
    last = len(grid) - 1

    def make_collector():
        acc = np.zeros(2)

        def collect(pos, state: PathState):
            vals = np.exp(-state.discount_log) * np.asarray(
                h(state.loss), dtype=float)
            acc[0] += float(np.sum(vals))
            acc[1] += float(np.sum(vals * vals))

        return collect, lambda: acc

    parts = _run_chunks(engine, n_paths, seed, [last], make_collector,
                        threads)
    mean, se = _mean_se(*_tree_sum(parts), n_paths)
    return float(mean), float(se)


@dataclass(frozen=True)
class StcdoMcResult:
    value: float
    std_error: float
    payment_leg: float
    payment_se: float
    default_leg: float
    default_se: float
    n_paths: int
    manifest: dict


def _discount_at(surface0: ForwardSurface, u) -> np.ndarray:
    """exp(-int_t^u f(t, s, 1) ds) for an array of dates u in the live span.

    The exponent is the x = 1 column of ``ForwardSurface.column_integrals``:
    a cumulative trapezoid over the live knots plus the exact integral of
    the linear interpolant up to an off-knot date, the table the
    closed-form pricers use. ``bond_price`` and ``maturity_integral`` stay
    scalar calls with their own summation order, because the martingale
    test's time-zero reference and the engine's deterministic rate table
    use them and seeded reports must not move; the table agrees with them
    to rounding.
    """
    return np.exp(-surface0.column_integrals(u, columns=[-1])[1][:, 0])


def _tranche_leg_values(flat_t: np.ndarray, flat_y: np.ndarray,
                        counts: np.ndarray, tranche: TranchePayoff,
                        T0: float, surface0: ForwardSurface) -> tuple:
    """(payment leg, default leg) per path from ragged loss events.

    The events are the output of ``simulate_loss_paths_bulk``: flat arrays
    sorted by path, then time, with per-path counts. Each event's level
    before the jump comes from ``levels_before`` and the level after it is
    before + size. The tranche writedown of an event is dH = H(before) -
    H(after); the default leg is the sum of disc(t_e) dH over events after
    T0, and the payment leg uses H(L_{T_i}) = H(0) - sum_{t_e <= T_i} dH_e,
    so that sum_i D_i H(L_{T_i}) = H(0) sum_i D_i - sum_e dH_e A(t_e) with
    A(t) = sum_{T_i >= t} D_i. Work and memory are O(events + paths).
    """
    n = len(counts)
    pid = np.repeat(np.arange(n), counts)
    before = levels_before(flat_y, counts)
    dH = tranche.H(before) - tranche.H(before + flat_y)

    coupons = np.asarray(tranche.coupon_dates, dtype=float)
    disc_coupons = _discount_at(surface0, coupons)
    suffix = np.concatenate([np.cumsum(disc_coupons[::-1])[::-1], [0.0]])
    owed = dH * suffix[np.searchsorted(coupons, flat_t, side="left")]
    pay = (tranche.H(0.0) * float(np.sum(disc_coupons))
           - np.bincount(pid, weights=owed, minlength=n))
    written = np.where(flat_t > T0, _discount_at(surface0, flat_t) * dH, 0.0)
    dflt = np.bincount(pid, weights=written, minlength=n)
    return pay, dflt


def mc_stcdo_legs(loss_spec: LossCompensatorSpec, surface0: ForwardSurface,
                  tranche: TranchePayoff, spread: float, n_paths: int,
                  seed: int) -> StcdoMcResult:
    """Two-leg tranche value by direct loss simulation, deterministic rates.

    For scenarios whose risk-free curve does not move, so discount factors
    come from the time-zero surface: exp of minus the trapezoid integral of
    the live x = 1 forward curve, the convention of ``maturity_integral``.
    The payment leg collects the tranche survival notional at the coupon
    dates; the default leg collects the notional writedowns at the
    simulated loss-jump times, discounted at the jump times. Losses are
    pure jumps, so nothing is discretized: value = spread * payment_leg -
    default_leg, matching the closed-form pricer's sign convention (its
    protection value is minus the default leg).

    Both legs are sums over loss events (see ``_tranche_leg_values``); the
    payment leg telescopes the survival notional into per-event writedowns
    times the discount factors of the coupons at or after the event, so
    no array grows with paths times coupons and memory is O(events +
    paths) per chunk.

    Thinning starts at time 0 with zero loss, so the surface must be
    observed at time 0 and protection cannot start before it; ConfigError
    otherwise.
    """
    seed = check_seed(seed)
    if surface0.t != 0.0:
        raise ConfigError(
            f"the tranche oracle simulates losses from time 0; the surface "
            f"is observed at t={surface0.t}"
        )
    horizon = float(tranche.coupon_dates[-1])
    if horizon > float(surface0.maturities[-1]) + 1e-12:
        raise ConfigError("coupon dates extend beyond the surface horizon")
    T0 = (0.0 if tranche.effective_date is None
          else float(tranche.effective_date))
    if T0 < -1e-12:
        raise ConfigError(f"effective date {T0} precedes the valuation time 0")

    parts = []
    for ci, lo, hi in chunk_ranges(n_paths):
        gen = chunk_generator(seed, STREAM_LOSS, ci)
        flat_t, flat_y, counts = simulate_loss_paths_bulk(
            loss_spec, horizon, gen, hi - lo)
        pay_c, dflt_c = _tranche_leg_values(flat_t, flat_y, counts, tranche,
                                            T0, surface0)
        val_c = spread * pay_c - dflt_c
        parts.append(np.array([(np.sum(v), np.sum(v ** 2))
                               for v in (pay_c, dflt_c, val_c)]))
    # rows of the sums: payment leg, default leg, value
    (pm, pse), (dm, dse), (vm, vse) = [
        map(float, _mean_se(s1, s2, n_paths)) for s1, s2 in _tree_sum(parts)]
    manifest = {"seed": seed, "n_paths": int(n_paths),
                "chunk_size": CHUNK_SIZE, "spread": float(spread),
                "tranche": [tranche.x1, tranche.x2]}
    return StcdoMcResult(
        value=vm, std_error=vse, payment_leg=pm, payment_se=pse,
        default_leg=dm, default_se=dse, n_paths=int(n_paths),
        manifest=manifest,
    )
