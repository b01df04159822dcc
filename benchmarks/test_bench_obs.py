"""Observability overhead and the first CBS phase-time breakdown.

Two measurements on the small sorting map, emitted as ``BENCH_obs.json``
at the repository root:

* **overhead** — the same grid-routed simulation timed with tracing
  disabled and enabled, as paired samples (see :func:`_paired_overhead`).
  The acceptance bar is < 5% relative overhead: instrumentation that taxes
  the pipeline more than that would distort every future performance PR's
  numbers.  The disabled path must be *zero-cost* by construction
  (``NULL_SPAN``), so the enabled-path budget is what this benchmark
  actually polices.
* **cbs_breakdown** — one CBS-routed simulation captured under the tracer,
  with the ``mapf.cbs`` phase timers (heuristic / low_level /
  conflict_detection / ct_management) summed over every routing episode:
  the paper-style answer to "where does the CBS search spend its time?".
* **events_overhead** — the same simulation run disruption-laden (the
  chattiest event source: every onset/recovery emits a structured event)
  timed with the event log disabled and enabled, under the same < 5%
  budget as the tracer.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

import pytest

from repro.obs import capture_trace, get_event_log, span_phase_totals, tracing_enabled
from repro.sim import RoutingConfig, SimulationConfig, parse_disruptions

from .conftest import get_designed, solve_instance, write_bench

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

MAP_NAME = "sorting-center-small"
UNITS = 4
HORIZON = 400
#: Paired samples per overhead measurement: each pair times both arms once.
#: A shared host's speed drifts by tens of percent within a second, so the
#: minimum of each arm over 25 runs compared two different host states: on
#: a 2-vCPU host it read -34% to +19% for a tracing overhead whose paired
#: median was 0.5%.  Two adjacent runs see nearly the same host, so the
#: median of the pairs' time ratios resolves a 5% budget; on that host, 40
#: pairs read the event log's ~2% overhead as -2% to +9% over 20 runs, and
#: 50 pairs narrow that spread.
REPEATS = 50
#: Names the statistic behind ``BENCH_obs.json``'s overhead figures.
#: Version 1 artifacts held per-arm minima over 25 runs instead.
ESTIMATOR = "median-of-paired-ratios"
OVERHEAD_BUDGET_PCT = 5.0
CBS_PHASES = ("conflict_detection", "ct_management", "heuristic", "low_level")


@pytest.fixture(scope="module")
def solved(designed_maps):
    designed = get_designed(designed_maps, MAP_NAME)
    solution = solve_instance(designed, UNITS, HORIZON)
    return designed, solution


def _simulate(designed, solution, router: str):
    from repro.core import WSPSolver

    solver = WSPSolver(designed.traffic_system)
    config = SimulationConfig(
        record_events=False, routing=RoutingConfig(router=router)
    )
    return solver.simulate(solution, config)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _paired_overhead(plain_fn, instrumented_fn) -> tuple:
    """Time ``REPEATS`` pairs of the two arms; return the median plain and
    instrumented seconds and the overhead in percent.

    The overhead is the median over pairs of ``instrumented / plain``.  The
    two runs of a pair are adjacent, so host-speed drift between them is
    small; the order alternates from pair to pair, so an advantage of
    running first or second cancels; and the median ignores the pairs a
    noise burst split.  The cyclic GC is collected before each pair and
    paused inside it, so a collection pause never lands inside a sample
    (the instrumented arm allocates ring-retained events/spans) — the same
    discipline ``timeit`` uses.
    """
    plain, instrumented, ratios = [], [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(REPEATS):
            gc.collect()
            if index % 2:
                instrumented_s = _timed(instrumented_fn)
                plain_s = _timed(plain_fn)
            else:
                plain_s = _timed(plain_fn)
                instrumented_s = _timed(instrumented_fn)
            plain.append(plain_s)
            instrumented.append(instrumented_s)
            ratios.append(instrumented_s / plain_s)
    finally:
        if gc_was_enabled:
            gc.enable()
    pct = (statistics.median(ratios) - 1.0) * 100.0
    return statistics.median(plain), statistics.median(instrumented), pct


@pytest.fixture(scope="module")
def overhead(solved):
    designed, solution = solved
    assert not tracing_enabled(), "tracing must start disabled"

    def plain():
        _simulate(designed, solution, "prioritized")

    def traced():
        with capture_trace():
            _simulate(designed, solution, "prioritized")

    # Warm-up (imports, allocator, branch caches), then paired samples.
    plain()
    disabled, enabled, pct = _paired_overhead(plain, traced)
    return {
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_pct": pct,
        "repeats": REPEATS,
    }


@pytest.fixture(scope="module")
def events_overhead(solved):
    designed, solution = solved
    from repro.core import WSPSolver

    solver = WSPSolver(designed.traffic_system)

    def run():
        config = SimulationConfig(
            seed=7,
            record_events=False,
            routing=RoutingConfig(router="prioritized"),
            disruptions=parse_disruptions("breakdown:0.08:10"),
        )
        solver.simulate(solution, config)

    log = get_event_log()
    assert log.enabled, "the event log starts enabled"

    def silenced():
        log.enabled = False
        try:
            run()
        finally:
            log.enabled = True

    # Same discipline as the tracer benchmark: warm-up, then paired samples.
    before = log.last_seq
    run()
    emitted = log.last_seq - before
    assert emitted > 0, "a disrupted run must emit events"
    disabled, enabled, pct = _paired_overhead(silenced, run)
    return {
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_pct": pct,
        "repeats": REPEATS,
        "events_per_run": emitted,
    }


@pytest.fixture(scope="module")
def cbs_breakdown(solved):
    designed, solution = solved
    with capture_trace() as trace:
        report = _simulate(designed, solution, "cbs")
    document = trace.to_dict()
    totals = span_phase_totals(document, "mapf.cbs")
    return report, document, totals


def test_instrumentation_overhead_under_budget(overhead):
    assert overhead["disabled_seconds"] > 0
    assert overhead["overhead_pct"] < OVERHEAD_BUDGET_PCT, (
        f"tracing overhead {overhead['overhead_pct']:.2f}% exceeds the "
        f"{OVERHEAD_BUDGET_PCT:.0f}% budget "
        f"({overhead['disabled_seconds']:.3f}s -> {overhead['enabled_seconds']:.3f}s)"
    )


def test_event_logging_overhead_under_budget(events_overhead):
    assert events_overhead["disabled_seconds"] > 0
    assert events_overhead["events_per_run"] > 0
    assert events_overhead["overhead_pct"] < OVERHEAD_BUDGET_PCT, (
        f"event-log overhead {events_overhead['overhead_pct']:.2f}% exceeds "
        f"the {OVERHEAD_BUDGET_PCT:.0f}% budget "
        f"({events_overhead['disabled_seconds']:.3f}s -> "
        f"{events_overhead['enabled_seconds']:.3f}s)"
    )


def test_event_log_reenabled_after_benchmark(events_overhead):
    assert get_event_log().enabled


def test_tracing_restored_after_capture(overhead):
    # The module fixtures toggled tracing repeatedly; the ambient state must
    # come back disabled or every later benchmark pays the enabled tax.
    assert not tracing_enabled()


def test_cbs_phase_breakdown_complete(cbs_breakdown):
    report, _, totals = cbs_breakdown
    assert report.routing is not None and report.routing.conflicts == 0
    assert set(totals) == set(CBS_PHASES)
    for phase in CBS_PHASES:
        assert totals[phase] > 0.0, f"phase {phase!r} never accumulated time"
    # The phase timers cover real work: their sum is within the total time
    # the mapf.cbs spans report (phases cannot exceed their spans).
    cbs_total = 0.0
    for root in cbs_breakdown[1]["spans"]:
        stack = [root]
        while stack:
            node = stack.pop()
            if node["name"] == "mapf.cbs":
                cbs_total += node["duration"]
            stack.extend(node.get("children", []))
    assert sum(totals.values()) <= cbs_total * 1.01


def test_emit_bench_obs_json(overhead, events_overhead, cbs_breakdown):
    """Write the BENCH_obs.json artifact consumed by the perf driver."""
    report, _, totals = cbs_breakdown
    document = {
        "schema": "bench-obs",
        "version": 2,
        "map": MAP_NAME,
        "units": UNITS,
        "horizon": HORIZON,
        "overhead": {
            "router": "prioritized",
            "disabled_seconds": round(overhead["disabled_seconds"], 6),
            "enabled_seconds": round(overhead["enabled_seconds"], 6),
            "overhead_pct": round(overhead["overhead_pct"], 3),
            "budget_pct": OVERHEAD_BUDGET_PCT,
            "estimator": ESTIMATOR,
            "repeats": overhead["repeats"],
        },
        "events_overhead": {
            "router": "prioritized",
            "disruptions": "breakdown:0.08:10",
            "disabled_seconds": round(events_overhead["disabled_seconds"], 6),
            "enabled_seconds": round(events_overhead["enabled_seconds"], 6),
            "overhead_pct": round(events_overhead["overhead_pct"], 3),
            "budget_pct": OVERHEAD_BUDGET_PCT,
            "estimator": ESTIMATOR,
            "repeats": events_overhead["repeats"],
            "events_per_run": events_overhead["events_per_run"],
        },
        "cbs_breakdown": {
            "router": "cbs",
            "replans": float(report.routing.replans),
            "expansions": float(report.routing.expansions),
            "phase_seconds": {
                phase: round(seconds, 6) for phase, seconds in sorted(totals.items())
            },
        },
    }
    reloaded = write_bench(BENCH_PATH, document)
    assert set(reloaded["cbs_breakdown"]["phase_seconds"]) == set(CBS_PHASES)
    shares = {
        phase: seconds / (sum(totals.values()) or 1.0)
        for phase, seconds in sorted(totals.items())
    }
    print(
        "\nCBS phase breakdown: "
        + ", ".join(f"{phase}={share:.0%}" for phase, share in shares.items())
    )
