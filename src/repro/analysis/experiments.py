"""Aggregation and regression reporting over experiment result files.

Consumes the :class:`~repro.experiments.store.RunRecord` lists produced by
:func:`repro.experiments.run_sweep` (or loaded back from JSONL) and renders:

* a per-run sweep table plus an aggregate summary (pass rates by status,
  runtime percentiles) — ``repro sweep --report``;
* scaling rows (map size vs. synthesis runtime) feeding
  :func:`~repro.analysis.reporting.scaling_report`;
* a comparison of two result files that flags status and runtime regressions
  scenario by scenario — ``repro sweep --compare`` and the perf gate every
  later optimisation PR measures itself against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .reporting import format_markdown_table, format_table
from .service import percentile as _percentile


@dataclass
class SweepSummary:
    """Aggregate view of one sweep's records."""

    total: int
    by_status: Dict[str, int]
    synthesis_p50: float
    synthesis_p90: float
    synthesis_max: float
    total_p50: float
    total_max: float
    units_delivered: int
    num_agents: int
    contract_breaches: int

    @property
    def pass_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return self.by_status.get("ok", 0) / self.total

    def summary(self) -> str:
        statuses = ", ".join(
            f"{status}={count}" for status, count in sorted(self.by_status.items())
        )
        head = f"sweep: {self.total} runs ({statuses}), pass rate {self.pass_rate:.0%}"
        if not self.by_status.get("ok"):
            # Zeros here would read as instantaneous runs, not as no data.
            return f"{head}\n  no run succeeded: no runtimes or deliveries to report"
        return "\n".join(
            [
                head,
                f"  synthesis runtime:  p50 {self.synthesis_p50:.3f}s, "
                f"p90 {self.synthesis_p90:.3f}s, max {self.synthesis_max:.3f}s",
                f"  end-to-end runtime: p50 {self.total_p50:.3f}s, max {self.total_max:.3f}s",
                f"  delivered {self.units_delivered} units with {self.num_agents} agents "
                f"across all successful runs; {self.contract_breaches} contract breach(es)",
            ]
        )


def aggregate_sweep(records: Sequence) -> SweepSummary:
    """Condense run records into a :class:`SweepSummary`."""
    by_status: Dict[str, int] = {}
    for record in records:
        by_status[record.status] = by_status.get(record.status, 0) + 1
    ok = [r for r in records if r.ok]
    synthesis = [r.synthesis_seconds for r in ok]
    totals = [r.total_seconds for r in ok]
    return SweepSummary(
        total=len(records),
        by_status=by_status,
        synthesis_p50=_percentile(synthesis, 0.50),
        synthesis_p90=_percentile(synthesis, 0.90),
        synthesis_max=max(synthesis, default=0.0),
        total_p50=_percentile(totals, 0.50),
        total_max=max(totals, default=0.0),
        units_delivered=sum(r.units_delivered for r in ok),
        num_agents=sum(r.num_agents for r in ok),
        contract_breaches=sum(int(r.sim.get("contract_violations", 0)) for r in ok),
    )


def sweep_table(records: Sequence, markdown: bool = False) -> str:
    """One row per run: scenario, geometry, workload, outcome, runtimes."""
    headers = [
        "Scenario",
        "Kind",
        "Cells",
        "Units",
        "Status",
        "Agents",
        "Delivered",
        "Synthesis (s)",
        "Total (s)",
        "Sim Ratio",
        "Router",
        "Inflation",
        "Max Edge",
        "Disrupt",
        "Retention",
        "Recover",
    ]
    body: List[List[str]] = []
    for record in records:
        layout = record.spec.layout()
        ratio = record.throughput_ratio
        inflation = record.sim.get("routing_inflation")
        max_edge = record.sim.get("routing_max_edge_load")
        disruptions = record.sim.get("disruptions")
        retention = record.sim.get("throughput_retention")
        recoveries = record.sim.get("recoveries")
        body.append(
            [
                record.spec.label,
                record.spec.kind,
                str(layout.num_cells),
                str(record.spec.units),
                record.status,
                str(record.num_agents) if record.ok else "-",
                str(record.units_delivered) if record.ok else "-",
                f"{record.synthesis_seconds:.3f}" if record.ok else "-",
                f"{record.total_seconds:.3f}" if record.ok else "-",
                "-" if ratio is None else f"{ratio:.3f}",
                record.spec.router,
                # 0.0 means "undefined" (incomplete routing), not free-flow.
                "-" if not inflation else f"{inflation:.3f}",
                "-" if max_edge is None else str(int(max_edge)),
                "-" if disruptions is None else str(int(disruptions)),
                "-" if retention is None else f"{retention:.3f}",
                "-" if recoveries is None else str(int(recoveries)),
            ]
        )
    if markdown:
        return format_markdown_table(body, headers)
    return format_table(body, headers, title="Experiment sweep")


def sweep_report(records: Sequence, markdown: bool = False) -> str:
    """The full ``repro sweep --report`` payload: table + aggregate summary."""
    parts = [sweep_table(records, markdown=markdown), "", aggregate_sweep(records).summary()]
    failed = [r for r in records if not r.ok]
    if failed:
        parts.append("")
        parts.append("non-ok runs:")
        parts.extend(f"  {r.spec.label}: {r.status} — {r.message}".rstrip(" —") for r in failed)
    return "\n".join(parts)


def scaling_rows(records: Sequence) -> List[Tuple[str, int, float]]:
    """(kind, map cells, synthesis seconds) rows of the successful runs,
    sorted by size — the shape :func:`~repro.analysis.reporting.scaling_report`
    renders."""
    rows = [
        (record.spec.kind, record.spec.layout().num_cells, record.synthesis_seconds)
        for record in records
        if record.ok
    ]
    return sorted(rows, key=lambda row: (row[0], row[1]))


# ---------------------------------------------------------------------------
# regression comparison of two sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepComparison:
    """Scenario-by-scenario comparison of a candidate sweep to a baseline."""

    matched: int = 0
    status_regressions: List[str] = field(default_factory=list)
    status_fixes: List[str] = field(default_factory=list)
    runtime_regressions: List[str] = field(default_factory=list)
    result_changes: List[str] = field(default_factory=list)
    missing_scenarios: List[str] = field(default_factory=list)
    new_scenarios: List[str] = field(default_factory=list)
    #: Matched scenarios whose records come from different output epochs, as
    #: ``"epoch A -> B: N scenario(s)"``; their outputs may differ by design.
    epoch_changes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No regressions (new/missing scenarios, fixes and epoch changes are
        informational)."""
        return not (
            self.status_regressions or self.runtime_regressions or self.result_changes
        )

    def summary(self) -> str:
        lines = [
            f"compared {self.matched} scenario(s): "
            + ("no regressions" if self.ok else "REGRESSIONS FOUND")
        ]
        for title, entries in (
            ("output epoch changed", self.epoch_changes),
            ("status regressions", self.status_regressions),
            ("runtime regressions", self.runtime_regressions),
            ("result changes", self.result_changes),
            ("fixed since baseline", self.status_fixes),
            ("missing from candidate", self.missing_scenarios),
            ("new in candidate", self.new_scenarios),
        ):
            if entries:
                lines.append(f"{title}:")
                lines.extend(f"  {entry}" for entry in entries)
        return "\n".join(lines)


def compare_sweeps(
    baseline: Sequence,
    candidate: Sequence,
    runtime_factor: float = 1.5,
    min_seconds: float = 0.05,
) -> SweepComparison:
    """Flag scenarios that got worse between two sweeps.

    Records are matched by :attr:`scenario_id` (the latest record wins when a
    file holds repeats of the same scenario).  A *runtime regression* is a
    matched successful run whose synthesis time exceeded
    ``runtime_factor × baseline`` (ignored below ``min_seconds``, where timer
    noise dominates); a *result change* is a matched successful run whose
    deterministic outcome (agents, delivered units, contract verdict) moved.
    Records from different output epochs are counted apart, in
    ``epoch_changes``: a new epoch may change plans and traces by design.
    """
    if runtime_factor <= 0:
        raise ValueError("runtime_factor must be positive")
    base_by_id = {record.scenario_id: record for record in baseline}
    cand_by_id = {record.scenario_id: record for record in candidate}
    comparison = SweepComparison()
    epochs: Dict[Tuple[int, int], int] = {}

    for scenario_id, base in base_by_id.items():
        cand = cand_by_id.get(scenario_id)
        label = base.spec.label
        if cand is None:
            comparison.missing_scenarios.append(label)
            continue
        comparison.matched += 1
        if base.epoch != cand.epoch:
            epochs[(base.epoch, cand.epoch)] = epochs.get((base.epoch, cand.epoch), 0) + 1
        if base.ok and not cand.ok:
            detail = f" ({cand.message})" if cand.message else ""
            comparison.status_regressions.append(f"{label}: ok -> {cand.status}{detail}")
            continue
        if not base.ok and cand.ok:
            comparison.status_fixes.append(f"{label}: {base.status} -> ok")
            continue
        if not (base.ok and cand.ok):
            # Both non-ok.  A structured result (infeasible) degrading into a
            # crash or hang is still a regression; the reverse is a partial
            # fix; an error<->timeout flip is a change worth failing the gate.
            if base.status != cand.status:
                transition = f"{label}: {base.status} -> {cand.status}"
                if cand.failed and not base.failed:
                    comparison.status_regressions.append(transition)
                elif base.failed and not cand.failed:
                    comparison.status_fixes.append(transition)
                else:
                    comparison.result_changes.append(transition)
            continue
        base_seconds = base.synthesis_seconds
        cand_seconds = cand.synthesis_seconds
        if cand_seconds > max(min_seconds, runtime_factor * base_seconds):
            comparison.runtime_regressions.append(
                f"{label}: synthesis {base_seconds:.3f}s -> {cand_seconds:.3f}s "
                f"(x{cand_seconds / max(base_seconds, 1e-9):.2f})"
            )
        changes = []
        if base.num_agents != cand.num_agents:
            changes.append(f"agents {base.num_agents} -> {cand.num_agents}")
        if base.units_delivered != cand.units_delivered:
            changes.append(f"delivered {base.units_delivered} -> {cand.units_delivered}")
        if base.contracts_ok != cand.contracts_ok:
            changes.append(f"contracts_ok {base.contracts_ok} -> {cand.contracts_ok}")
        if changes:
            comparison.result_changes.append(f"{label}: " + ", ".join(changes))

    for scenario_id, cand in cand_by_id.items():
        if scenario_id not in base_by_id:
            comparison.new_scenarios.append(cand.spec.label)
    comparison.epoch_changes = [
        f"epoch {old} -> {new}: {count} scenario(s)"
        for (old, new), count in sorted(epochs.items())
    ]
    return comparison
