"""Timed workloads, their correctness checks and their metrics.

Every workload is a closed loop in one process: the next Monte Carlo rep
or quote starts when the previous one has returned. Most of a run is Monte
Carlo reps. A quote (the 10-16% tranche priced at its par spread on the
workload's initial surface) is needed only often enough for
``quote_p90_ms`` to have ten samples above it, so a run takes
``MIN_QUOTES`` quotes, spread evenly over the gaps after its reps. A rep
after the first starts only if it should end at most half a rep past the
deadline; after the last rep the run quotes until it has ``MIN_QUOTES``.
Set-up samples are taken after each rep and every ``QUOTES_PER_SETUP``
quotes. Spreading every kind of sample over the whole run matters on a
shared machine, whose speed changes within seconds.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from levycdo.engine import SurfaceEngine
from levycdo.mc import mc_stcdo_legs, run_martingale_test
from levycdo.pricing import par_spread, stcdo_value
from levycdo.rng import CHUNK_SIZE

import scenarios
from tracing import NullTracer, Tracer

# One thread, and one whole chunk per rep: a partial last chunk would make
# the per-rep cost depend on how the path count splits.
THREADS = 1
N_PATHS = CHUNK_SIZE
# Rep 0 of every run uses the seed its stored reference was made with
# (the ROADMAP's seeds); rep k >= 1 uses seed * 1000 + k.
REFERENCE_SEED = {"jump_loss": 7, "every_node": 7, "tranche": 5}
# Builds per set-up sample: setup_s is the median over samples of the mean
# build time in a sample. The tranche inputs build in well under a
# millisecond, so its samples batch many builds.
SETUP_BATCH = {"jump_loss": 1, "every_node": 1, "tranche": 40}
MIN_QUOTES = 110
QUOTES_PER_SETUP = 10
REFERENCE_TOL = 1e-12     # stored rows vs. this run, absolute
ORACLE_SIGMAS = 4.0       # MC tranche value vs. closed form
COVERAGE_TOL = 0.05       # share of traced wall time outside every layer span
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Counters that must read exactly 0 on a workload, by construction.
ZERO_BY_DESIGN = {
    "every_node": ("loss.thinning_s", "loss.events",
                   "loss.effective_atoms_calls", "engine.event_drift_calls",
                   "engine.contagion_calls", "engine.driver_events"),
    "tranche": ("engine.driver_events",),
}

# per-layer metric -> span name whose self times it sums, per rep
LAYER_SELF_TIMES = {
    "loss.thinning_s": "loss.thinning",
    "engine.driver_draw_s": "engine.driver_draw",
    "engine.event_drift_s": "engine.event_drift",
    "engine.contagion_s": "engine.contagion",
    "engine.level_tables_s": "engine.level_tables",
    "engine.report_s": "engine.report",
    "mc.collect_s": "mc.collect",
    "engine.step_self_s": "engine.run_chunk",
    "mc.tranche_loop_s": "mc.stcdo_legs",
    "mc.orchestrate_s": "mc.martingale_test",
}
# per-layer metric -> span name whose durations it sums over the set-up
# samples, per build
SETUP_TIMES = {
    "engine.build_s": "engine.build",
    "hjm.surface_build_s": "hjm.surface_build",
}
LAYER_CALLS = {
    "engine.event_drift_calls": "engine.event_drift",
    "engine.contagion_calls": "engine.contagion",
}


class Checks:
    """Attempted and failed correctness checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def rep_seed(name: str, seed: int, k: int) -> int:
    return REFERENCE_SEED[name] if k == 0 else seed * 1000 + k


def load_reference(name: str) -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[name]


def _nan_to_none(a):
    return [[None if math.isnan(v) else v for v in row] for row in a.tolist()]


def martingale_rows(rep) -> dict:
    """A report's rows in the stored-reference layout."""
    return {"times": rep.times.tolist(),
            "means": _nan_to_none(rep.means),
            "std_errors": _nan_to_none(rep.std_errors),
            "z_scores": _nan_to_none(rep.z_scores),
            "max_abs_z": rep.max_abs_z, "passed": rep.passed}


def _rows_match(got: dict, ref: dict) -> bool:
    for key in ("means", "std_errors", "z_scores"):
        a = np.array(got[key], dtype=float)   # None -> nan
        b = np.array(ref[key], dtype=float)
        if a.shape != b.shape:
            return False
        if not np.array_equal(np.isnan(a), np.isnan(b)):
            return False
        live = ~np.isnan(b)
        if np.any(np.abs(a[live] - b[live]) > REFERENCE_TOL):
            return False
    return True


def check_martingale(checks: Checks, k: int, rep, rows: dict,
                     reference) -> None:
    """Live rows are finite; rep 0 also matches its stored reference and
    passes the verdict."""
    live = rep.times[:, None] <= np.array([T for T, _ in rep.targets]) + 1e-12
    checks.check(bool(np.all(np.isfinite(rep.means[live]))
                      and np.all(np.isfinite(rep.z_scores[live]))),
                 f"rep {k}: non-finite martingale rows")
    if reference is None:
        return
    checks.check(_rows_match(rows, reference),
                 f"rep {k}: rows differ from the stored reference by more "
                 f"than {REFERENCE_TOL:g}")
    checks.check(rows["passed"],
                 f"rep {k}: verdict failed, max |z| {rows['max_abs_z']:.3f}")


def check_oracle(checks: Checks, k: int, res, closed, rows: dict,
                 reference) -> None:
    """The MC tranche value agrees with the closed form; rep 0 also
    matches its stored reference."""
    checks.check(abs(res.value - closed.value)
                 <= ORACLE_SIGMAS * res.std_error,
                 f"rep {k}: oracle {res.value:.6g} +- {res.std_error:.3g} vs "
                 f"closed form {closed.value:.6g}")
    if reference is None:
        return
    checks.check(all(abs(rows[key] - reference[key]) <= REFERENCE_TOL
                     for key in ("value", "std_error")),
                 f"rep {k}: oracle differs from the stored reference")


def _quote(surface, tranche):
    s = par_spread(surface, 0.0, 0.0, tranche)
    return stcdo_value(surface, 0.0, 0.0, tranche, s)


def quotes_per_gap(seconds: float, rep_s: float, quote_s: float,
                   setup_s: float) -> int:
    """Quotes after each rep so that ``MIN_QUOTES`` are spread over the
    reps a run is expected to hold, judged by the first rep and the
    warm-up quote and build."""
    setup_samples = MIN_QUOTES // QUOTES_PER_SETUP
    busy = seconds - MIN_QUOTES * quote_s - setup_samples * setup_s
    reps = max(1, round(busy / rep_s))
    return math.ceil(MIN_QUOTES / reps)


def _par_value_ok(q) -> bool:
    """Value at the par spread is 0 within the quote's quadrature error,
    plus rounding of the two legs it cancels."""
    slack = 64 * np.finfo(float).eps * (abs(q.payment_leg)
                                         + abs(q.protection_value))
    return abs(q.value) <= q.error_estimate + slack


class Workload:
    """A workload's fixed inputs and its unit of Monte Carlo work."""

    def __init__(self, name: str):
        self.name = name
        self.tranche = scenarios.quote_tranche()
        if name == "tranche":
            self.inputs = scenarios.tranche_scenario()
            self.rep_span = "mc.stcdo_legs"
            self.lane = None
        else:
            self.inputs = scenarios.martingale_scenario(name)
            self.rep_span = "mc.martingale_test"
            self.lane = ("separable" if self.inputs["coeffs"].b_x_flat
                         else "dense")
        self.surface = self.inputs["surface0"]

    def build(self):
        """The set-up step that ``setup_s`` times."""
        if self.name == "tranche":
            return scenarios.tranche_scenario()
        i = self.inputs
        return SurfaceEngine(i["coeffs"], i["triplet"], i["loss_spec"],
                             i["surface0"], i["time_grid"])

    def rep(self, seed: int):
        """One Monte Carlo call: (result, rows in the reference layout)."""
        i = self.inputs
        if self.name == "tranche":
            res = mc_stcdo_legs(i["loss_spec"], i["surface0"], i["tranche"],
                                i["spread"], N_PATHS, seed)
            return res, {"value": res.value, "std_error": res.std_error}
        rep = run_martingale_test(n_paths=N_PATHS, seed=seed,
                                  threads=THREADS, **i)
        return rep, martingale_rows(rep)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> dict:
    """Run one workload; returns the result record (metrics, checks, meta).

    A traced run follows the same schedule; each set-up sample is a
    ``bench.setup`` span, so that the per-layer metrics can tell set-up
    builds from the builds inside reps.
    """
    checks = Checks()
    wl = Workload(name)
    reference = load_reference(name)
    if name == "tranche":
        closed = stcdo_value(wl.surface, 0.0, 0.0, wl.tranche,
                             wl.inputs["spread"])
    # warm-ups, not samples; they also size the quotes per gap
    t0 = perf_counter()
    _quote(wl.surface, wl.tranche)
    t1 = perf_counter()
    wl.build()
    warm_quote_s, warm_build_s = t1 - t0, perf_counter() - t1
    rep_times, quote_times, setup_times = [], [], []
    manifest_lane = None
    batch = SETUP_BATCH[name]

    def setup_sample():
        tracer.begin("bench.setup")
        t0 = perf_counter()
        for _ in range(batch):
            wl.build()
        setup_times.append((perf_counter() - t0) / batch)
        tracer.end()

    def quote():
        tracer.begin("pricing.quote")
        t0 = perf_counter()
        q = _quote(wl.surface, wl.tranche)
        quote_times.append(perf_counter() - t0)
        tracer.end()
        checks.check(_par_value_ok(q),
                     f"quote {len(quote_times)}: value at par {q.value:.3g} "
                     f"beyond error {q.error_estimate:.3g}")
        if len(quote_times) % QUOTES_PER_SETUP == 0:
            setup_sample()

    tracer = Tracer() if trace else NullTracer()
    tracer.install()
    try:
        deadline = perf_counter() + seconds
        tracer.begin("bench.measure")
        k = 0
        # A rep starts only if it should end at most half a rep past the
        # deadline, which bounds a run's length when the machine is slow.
        while k == 0 or perf_counter() + rep_times[-1] / 2 < deadline:
            rs = rep_seed(name, seed, k)
            tracer.begin(wl.rep_span)
            t0 = perf_counter()
            res, rows = wl.rep(rs)
            rep_times.append(perf_counter() - t0)
            tracer.end()
            ref = reference if k == 0 else None
            if name == "tranche":
                check_oracle(checks, k, res, closed, rows, ref)
            else:
                manifest_lane = res.manifest.get("lane")
                check_martingale(checks, k, res, rows, ref)
            k += 1
            setup_sample()
            if k == 1:
                per_gap = quotes_per_gap(seconds, rep_times[0], warm_quote_s,
                                         batch * warm_build_s)
            for _ in range(per_gap):
                quote()
        while len(quote_times) < MIN_QUOTES:
            quote()
        tracer.end()
    finally:
        tracer.uninstall()

    rates = [N_PATHS / t for t in rep_times]
    paths_per_s = statistics.median(rates)
    meta = {
        "workload": name, "seed": seed, "seconds": seconds,
        "threads": THREADS, "n_paths_per_rep": N_PATHS,
        "reps": len(rep_times), "rep_seeds": [rep_seed(name, seed, k)
                                              for k in range(len(rep_times))],
        "rep_s": rep_times, "quotes": len(quote_times),
        "quotes_per_gap": per_gap,
        "setup_samples": len(setup_times),
        "scenario_fingerprint": scenarios.fingerprint(wl.inputs),
        "resolved_lane": wl.lane, "manifest_lane": manifest_lane,
    }
    if not trace:
        metrics = {
            "paths_per_s": (paths_per_s, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "quote_p50_ms": (1e3 * float(np.quantile(quote_times, 0.5)),
                             "ms"),
            "quote_p90_ms": (1e3 * float(np.quantile(quote_times, 0.9)),
                             "ms"),
        }
    else:
        metrics = layer_metrics(tracer, name, len(rep_times),
                                len(quote_times), len(setup_times) * batch,
                                paths_per_s, checks)
        tracer.save(out_dir / f"spans_{name}.npz")
        meta["span_summary"] = span_summary(tracer)
    return {"metrics": metrics, "checks": checks, "meta": meta}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _distinct_levels(spans) -> int:
    """Distinct pre-jump loss levels over the given thinning calls,
    summed in path order from 0 as the engine does."""
    levels = set()
    for s in spans:
        sizes, counts = s.attrs["sizes"], s.attrs["counts"]
        offs = np.concatenate([[0], np.cumsum(counts)])
        for p in np.flatnonzero(counts):
            ys = sizes[offs[p]:offs[p + 1]]
            pre = np.concatenate([[0.0], np.cumsum(ys)[:-1]])
            levels.update(pre.tolist())
    return len(levels)


def layer_metrics(tracer: Tracer, name: str, reps: int, quotes: int,
                  builds: int, paths_per_s: float, checks: Checks) -> dict:
    spans = tracer.spans
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_total(span_name):
        return sum(s.self_time for s in by_name.get(span_name, ()))

    out = {}
    for metric, span_name in LAYER_SELF_TIMES.items():
        out[metric] = (self_total(span_name) / reps, "s")
    setup_ids = {s.id for s in by_name["bench.setup"]}
    for metric, span_name in SETUP_TIMES.items():
        out[metric] = (sum(s.duration for s in by_name.get(span_name, ())
                           if s.parent in setup_ids) / builds, "s")
    for metric, span_name in LAYER_CALLS.items():
        out[metric] = (len(by_name.get(span_name, ())) / reps, "count")
    thinning = by_name.get("loss.thinning", ())
    out["loss.events"] = (sum(s.attrs["events"] for s in thinning) / reps,
                          "count")
    out["loss.effective_atoms_calls"] = (
        tracer.counts.get("loss.effective_atoms_calls", 0) / reps, "count")
    out["engine.driver_events"] = (
        sum(s.attrs["events"] for s in by_name.get("engine.driver_draw", ()))
        / reps, "count")
    # thinning called by the engine has a run_chunk parent, whose parent
    # is the rep; levels are counted per rep and averaged
    rep_of_chunk = {s.id: s.parent for s in by_name.get("engine.run_chunk",
                                                        ())}
    per_rep: dict = {}
    for s in thinning:
        if s.parent in rep_of_chunk:
            per_rep.setdefault(rep_of_chunk[s.parent], []).append(s)
    out["engine.loss_levels"] = (
        sum(_distinct_levels(v) for v in per_rep.values()) / reps, "count")
    chunk_busy = sum(s.duration for s in by_name.get("engine.run_chunk", ()))
    mc_wall = sum(s.duration for s in by_name.get("mc.martingale_test", ()))
    out["mc.parallel_eff"] = (
        chunk_busy / (mc_wall * THREADS) if mc_wall > 0 else 0.0, "ratio")
    quote_ids = {s.id for s in by_name.get("pricing.quote", ())}
    in_quotes = [s for s in by_name.get("hjm.bond_price", ())
                 if s.parent in quote_ids]
    out["pricing.bond_price_calls"] = (len(in_quotes) / quotes, "count")
    out["hjm.bond_price_s"] = (sum(s.duration for s in in_quotes) / quotes,
                               "s")
    out["pricing.quadrature_s"] = (self_total("pricing.quote") / quotes, "s")
    out["trace.paths_per_s"] = (paths_per_s, "1/s")

    root = by_name["bench.measure"][0]
    unattributed = root.self_time / root.duration
    out["trace.unattributed_share"] = (unattributed, "ratio")
    checks.check(unattributed <= COVERAGE_TOL,
                 f"layer self times cover only {1 - unattributed:.3%} of the "
                 f"traced wall time (tolerance {COVERAGE_TOL:.0%})")
    for metric in ZERO_BY_DESIGN.get(name, ()):
        checks.check(out[metric][0] == 0,
                     f"{metric} is {out[metric][0]} where it must be 0")
    return out


def span_summary(tracer: Tracer) -> dict:
    """Per span name: calls, total and self seconds, and parent names."""
    names = {s.id: s.name for s in tracer.spans}
    out: dict = {}
    for s in tracer.spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "parents": {}})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += s.self_time
        pname = names.get(s.parent, "-")
        row["parents"][pname] = row["parents"].get(pname, 0) + 1
    return out
