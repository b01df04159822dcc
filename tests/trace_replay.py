"""Replay-from-trace assertion helpers shared by the monitor test files.

The AG-contract monitor's verdict must be a pure function of the serialized
trace: every breach it flags during or after a run has to be reproducible by
anyone holding only the trace JSON (and the compiled contracts).  These
helpers round-trip a report's trace through the JSON schema, re-evaluate a
fresh monitor on the reloaded artifact, and assert the two verdicts agree —
including the live capacity breaches, which are independently recomputed from
the trace's per-period transition counts.
"""

import json

from repro.io import trace_from_dict, trace_to_dict
from repro.sim import monitor_from_synthesis
from repro.sim.monitors import LIVE_CAPACITY


def roundtrip_trace(trace):
    """Serialize and reload a trace through its canonical JSON form."""
    payload = json.dumps(trace_to_dict(trace), sort_keys=True)
    return trace_from_dict(json.loads(payload))


def live_capacity_breaches_from_trace(trace, system):
    """(component, period) pairs whose observed entries exceed capacity.

    This recomputes, from the serialized per-period transition counts alone,
    exactly what the live monitor checks at each period boundary.
    """
    breaches = set()
    for component in system.components:
        for period in range(trace.periods):
            entered = sum(
                int(counts[period])
                for (_, dst, _), counts in trace.transitions.items()
                if dst == component.index and period < len(counts)
            )
            if entered > component.capacity:
                breaches.add((component.index, period))
    return breaches


def live_breach_keys(report, system):
    """(component, period) pairs of the report's live-capacity violations."""
    keys = set()
    for violation in report.monitor.violations_of_kind(LIVE_CAPACITY):
        name = violation.contract[len("component[") : -1]
        component = system.component_by_name(name)
        period = violation.tick // report.trace.cycle_time - 1
        keys.add((component.index, period))
    return keys


def assert_breaches_reproducible(report, system, synthesis, workload=None):
    """Every breach the monitor flagged must replay from the trace alone."""
    assert report.monitor is not None, "the run was not monitored"
    reloaded = roundtrip_trace(report.trace)

    monitor = monitor_from_synthesis(system, synthesis)
    replay = monitor.evaluate(reloaded, workload=workload)

    def key(violation):
        return (
            violation.contract,
            violation.constraint,
            violation.kind,
            round(violation.amount, 9),
        )

    original = sorted(
        key(v) for v in report.monitor.violations if v.kind != LIVE_CAPACITY
    )
    replayed = sorted(key(v) for v in replay.violations)
    assert original == replayed, (
        f"post-hoc verdict changed under replay: {original} != {replayed}"
    )

    # The live capacity breaches are not re-raised by a post-hoc evaluate()
    # (they are stamped during the run), but they must be derivable from the
    # serialized per-period flow counts — and exactly them.
    assert live_breach_keys(report, system) == live_capacity_breaches_from_trace(
        reloaded, system
    )
