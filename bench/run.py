"""celalg benchmark: one caller, closed loop, exact verdicts checked.

    python3 bench/run.py --workload jacobi-grid --seed 1 --seconds 35 --trace 0

A run imports ``celalg`` from ``src/`` next to this directory, sets the
workload up, then runs timed passes one after another for ``--seconds``.
Every verdict is compared with the literal answers in ``workloads.py``.

``--trace 0`` prints the end-to-end metrics.  Between items, outside their
timing, it repeats the set-up and reloads the workload's algebras from a warm
cache, so the medians of these short timings span the whole run instead of
a few moments of it.
``--trace 1`` spends half the time on untraced passes and half on one
set-up and passes under the outside-in tracer, and prints the per-layer
metrics of one set-up plus one pass (the median traced pass) and the
tracing overhead.

The last line of stdout is the result object; the line before it is a
summary with the seed, pass count, verdicts, per-item seconds,
``fail_ratio`` and, untraced, ``cached_setup_s``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from tracer import Stats, Tracer, stats_delta, stats_median, stats_sum
from workloads import ALPHA, LIE_TYPES, WORKLOADS, PassContext, Verdict, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("liealg", "adinv", "lambdacalc", "celestial", "scalar")
# untraced runs sample set-up and warm-cache reloads between items, at most
# once per GAP_INTERVAL_S of item time
GAP_INTERVAL_S = 2.0
RELOAD_MIN_SECONDS = 0.25

Pass = Tuple[float, List[Verdict]]


class Ledger:
    """Items and checks attempted, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {what}", file=sys.stderr)

    def verdicts(self, verdicts: List[Verdict]) -> None:
        for v in verdicts:
            self.check(v.ok, f"{v.item}: got {v.observed!r}, expected {v.expected!r}")


def load_modules() -> SimpleNamespace:
    """Import celalg afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "celalg" or m.startswith("celalg.")]:
        del sys.modules[name]
    package = importlib.import_module("celalg")
    if Path(package.__file__).resolve().parent != SRC / "celalg":
        raise ImportError(f"celalg imported from {package.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"celalg.{name}") for name in LAYERS}
    return SimpleNamespace(package=package, **mods)


def set_up(workload: Workload, tracer: Optional[Tracer] = None):
    """Import celalg and build what the passes use; returns (seconds, mods, state)."""
    start = time.perf_counter()
    mods = load_modules()
    if tracer is not None:
        # installed straight after the import, so lambdacalc.STATS and the
        # tracer start counting together
        tracer.install(vars(mods), [getattr(mods, name) for name in LAYERS]
                       + [mods.package])
    state = workload.setup(mods)
    return time.perf_counter() - start, mods, state


def run_passes(workload: Workload, mods, state, ctx: PassContext, seconds: float,
               after_pass: Callable[[List[Verdict], dict], None]) -> List[Pass]:
    """Closed loop: each pass starts after the previous one's verdicts.

    A pass takes the summed time of its items, which leaves out the work
    between them.  Another pass starts only while the last one, with what
    ran between and after its items, repeated, would end within ``seconds``.
    """
    passes: List[Pass] = []
    start = time.perf_counter()
    cycle = 0.0
    while not passes or time.perf_counter() - start + cycle <= seconds:
        t0 = time.perf_counter()
        verdicts, algebras = workload.run_pass(mods, state, ctx)
        passes.append((sum(v.seconds for v in verdicts), verdicts))
        after_pass(verdicts, algebras)
        # free this pass's algebras before the next pass builds its own, so
        # peak memory does not depend on the number of passes
        del algebras
        cycle = time.perf_counter() - t0
        # what an item leaves behind in the heap shows in the timings after
        # it, so successive passes rotate the order rather than repeat it
        ctx.order = ctx.order[1:] + ctx.order[:1]
    return passes


class GapSampler:
    """Set-up and warm-cache reload timings taken between untraced items, so
    their medians span the whole run rather than a few moments of it."""

    def __init__(self, workload: Workload, mods, scratch: str, ledger: Ledger) -> None:
        self.workload = workload
        self.mods = mods
        self.scratch = scratch
        self.ledger = ledger
        self.setup_times: List[float] = []
        self.reload_times: List[float] = []
        self.reference: Dict[str, object] = {}
        self.paths: Dict[str, str] = {}
        self.last_gap = time.perf_counter()

    def between_items(self) -> None:
        if time.perf_counter() - self.last_gap >= GAP_INTERVAL_S:
            self._sample()

    def after_pass(self, verdicts: List[Verdict], algebras: dict) -> None:
        """Writes the warm cache from the first pass's algebras."""
        if not self.paths:
            self.reference = algebras
            directory = Path(tempfile.mkdtemp(prefix="warm-", dir=self.scratch))
            for name, L in algebras.items():
                self.paths[name] = str(directory / f"{name}.sc")
                self.mods.liealg.save_structure_constants(L, self.paths[name])
            self._sample()

    def _sample(self) -> None:
        self.setup_times.append(set_up(self.workload)[0])
        if self.paths:
            loaded: Dict[str, object] = {}
            start = time.perf_counter()
            while not loaded or time.perf_counter() - start < RELOAD_MIN_SECONDS:
                t0 = time.perf_counter()
                loaded = {name: self.mods.liealg.algebra_from_cache(
                              L.series, L.rank, self.paths[name])
                          for name, L in self.reference.items()}
                self.reload_times.append(time.perf_counter() - t0)
            for name, M in loaded.items():
                self.ledger.check(M.f == self.reference[name].f,
                                  f"{name} warm-cache reload")
        self.last_gap = time.perf_counter()


def observed(verdicts: List[Verdict]) -> Dict[str, object]:
    return {v.item: v.observed for v in verdicts}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, passes: List[Pass], gaps: GapSampler) -> Dict[str, dict]:
    times = [elapsed for elapsed, _ in passes]
    verdict_s = statistics.median(times)
    # a run holds only a few passes, too few for a percentile with ten
    # samples beyond it; the upper quartile is the tail they can carry
    tail = (statistics.quantiles(times, n=4, method="inclusive")[2]
            if len(times) > 1 else times[0])
    return {
        "setup_s": metric(statistics.median(gaps.setup_times), "s"),
        "verdict_s": metric(verdict_s, "s"),
        "verdict_p75_s": metric(tail, "s"),
        "triples_per_s": metric(workload.triples_per_pass / verdict_s, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(stats: Stats, extra: Counter, overhead: float) -> Dict[str, dict]:
    """Per-layer metrics of one set-up plus one pass."""
    calls, total, self_time = (Counter({key: value[i] for key, value in stats.items()})
                               for i in range(3))
    out: Dict[str, dict] = {}
    for name in LIE_TYPES:
        out[f"liealg.chevalley_s.{name}"] = metric(total[f"liealg.chevalley_basis.{name}"], "s")
        out[f"liealg.sc_entries.{name}"] = metric(calls[f"liealg.sc_entries.{name}"], "count")
    out["liealg.root_system_s"] = metric(total["liealg.build_root_system"], "s")
    out["liealg.cache_save_s"] = metric(total["liealg.save_structure_constants"], "s")
    out["liealg.cache_load_s"] = metric(total["liealg.algebra_from_cache"], "s")
    for name in ALPHA:
        out[f"adinv.quartic_alpha_s.{name}"] = metric(total[f"adinv.quartic_alpha.{name}"], "s")
    out["adinv.mat_mul_calls"] = metric(calls["adinv.mat_mul"], "count")

    defects, covered = calls["celestial.defect_poly"], extra["triples"]
    out["celestial.rules_build_s"] = metric(
        total["celestial.rules_extended"] + total["celestial.rules_deformed"], "s")
    out["celestial.defect_calls"] = metric(defects, "count")
    out["celestial.triples_covered"] = metric(covered, "count")
    out["celestial.computed_ratio"] = metric(defects / covered if covered else 0.0, "ratio")
    out["celestial.defect_self_s"] = metric(self_time["celestial.defect_poly"], "s")
    out["celestial.memo_entries"] = metric(extra["full_memo"] + extra["base_memo"], "count")
    out["celestial.solve_rows"] = metric(extra["rows"], "count")

    atomic = calls["lambdacalc.atomic_bracket"]
    out["lambdacalc.atomic_calls"] = metric(atomic, "count")
    out["lambdacalc.atomic_memo_hit_ratio"] = metric(
        1 - extra["full_memo"] / atomic if atomic else 0.0, "ratio")
    out["lambdacalc.dual_route_calls"] = metric(calls["lambdacalc.dual_route"], "count")
    for fn in ("bracket_words", "normal_order", "nproduct"):
        out[f"lambdacalc.{fn}_calls"] = metric(calls[f"lambdacalc.{fn}"], "count")
        out[f"lambdacalc.{fn}_self_s"] = metric(self_time[f"lambdacalc.{fn}"], "s")

    out["scalar.mul_calls"] = metric(calls["scalar.s_mul"], "count")
    out["scalar.arith_self_s"] = metric(
        sum(self_time[f"scalar.{fn}"] for fn in ("s_mul", "s_scale", "s_iadd")), "s")
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return out


def memo_counts(rulesets) -> Counter:
    return Counter(full_memo=sum(len(rs.full_memo) for rs in rulesets),
                   base_memo=sum(len(rs.base_memo) for rs in rulesets))


def traced_section(workload: Workload, ctx: PassContext, seconds: float,
                   ledger: Ledger) -> Tuple[Stats, Counter, List[Pass]]:
    """Set up once and run passes under the tracer; originals are restored."""
    tracer = Tracer()
    pass_stats: List[Stats] = []
    pass_extra: List[Counter] = []
    try:
        _, mods, state = set_up(workload, tracer)
        setup_stats = tracer.snapshot()
        setup_extra = memo_counts(tracer.rulesets)
        tracer.rulesets.clear()
        marks = [setup_stats]

        def after_pass(verdicts: List[Verdict], algebras: dict) -> None:
            marks.append(tracer.snapshot())
            pass_stats.append(stats_delta(marks[-1], marks[-2]))
            pass_extra.append(memo_counts(tracer.rulesets) + Counter(
                triples=sum(v.triples for v in verdicts),
                rows=sum(v.rows for v in verdicts)))
            tracer.rulesets.clear()

        passes = run_passes(workload, mods, state, ctx, seconds, after_pass)
    finally:
        tracer.uninstall()

    pass_calls = [{key: value[0] for key, value in s.items()} for s in pass_stats]
    ledger.check(all(c == pass_calls[0] for c in pass_calls),
                 "traced passes repeat the same call counts")
    ledger.check(all(c.get("celestial.defect_poly", 0) <= e["triples"]
                     for c, e in zip(pass_calls, pass_extra)),
                 "celestial.defect_calls <= celestial.triples_covered")
    stats = getattr(mods.lambdacalc, "STATS", None)
    if stats is not None and "dual_path_checks" in stats:
        ledger.check(stats["dual_path_checks"]
                     == tracer.slot("lambdacalc.dual_route")[0],
                     "lambdacalc.dual_route_calls equals the STATS dual_path_checks delta")

    combined = stats_sum(setup_stats, stats_median(pass_stats))
    extra = setup_extra + Counter({k: statistics.median_low(e[k] for e in pass_extra)
                                   for k in set().union(*pass_extra)})
    return combined, extra, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "celalg" / "__init__.py").is_file():
        print(f"bench: no celalg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    order = list(workload.types)
    random.Random(f"{args.seed}:{args.workload}").shuffle(order)

    scratch = tempfile.mkdtemp(prefix=".bench-scratch-", dir=ROOT)
    try:
        ctx = PassContext(seed=args.seed, order=tuple(order), scratch=scratch)
        setup_time, mods, state = set_up(workload)
        summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "order": order}
        if args.trace:
            passes = run_passes(workload, mods, state, ctx, args.seconds / 2,
                                lambda verdicts, algebras: None)
            stats, extra, traced = traced_section(workload, ctx, args.seconds / 2, ledger)
            for _, verdicts in traced:
                ledger.verdicts(verdicts)
                ledger.check(observed(verdicts) == observed(passes[0][1]),
                             "traced verdicts match the untraced ones")
            overhead = (statistics.median(t for t, _ in traced)
                        / statistics.median(t for t, _ in passes))
            metrics = per_layer(stats, extra, overhead)
            summary["traced_passes"] = len(traced)
        else:
            gaps = GapSampler(workload, mods, scratch, ledger)
            gaps.setup_times.append(setup_time)
            ctx.between_items = gaps.between_items
            passes = run_passes(workload, mods, state, ctx, args.seconds, gaps.after_pass)
            metrics = end_to_end(workload, passes, gaps)
            # Reported beside the metrics, unbounded: on a shared host these
            # millisecond reloads shift by a third between the host's fast
            # and slow stretches, more than any regression bound allows.
            summary["cached_setup_s"] = metric(statistics.median(gaps.reload_times), "s")
        for _, verdicts in passes:
            ledger.verdicts(verdicts)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary.update({
        "passes": len(passes),
        "fail_ratio": metric(ledger.failed / ledger.attempted, "ratio"),
        "verdicts": {item: str(value) for item, value in observed(passes[0][1]).items()},
        "item_seconds": [{v.item: v.seconds for v in verdicts} for _, verdicts in passes],
    })
    print(json.dumps(summary))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
