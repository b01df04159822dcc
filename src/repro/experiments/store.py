"""Run records and the append-only JSONL result store.

Each executed scenario produces exactly one :class:`RunRecord` — successful
or not — with the spec embedded, so a result file is self-describing: every
instance can be regenerated from its record alone.  Records are persisted as
one JSON object per line (schema-versioned in :mod:`repro.io.serialization`),
appended as runs complete; the store also keeps an in-memory index by
:attr:`~repro.experiments.scenario.ScenarioSpec.scenario_id` for aggregation
and regression comparison.

Wall-clock ``timings`` are reporting-only: :meth:`RunRecord.fingerprint`
excludes them, and is the payload two runs of the same seeded scenario must
reproduce bit for bit.

Every record carries the :data:`OUTPUT_EPOCH` of the code that computed it.
The ``scenario_id`` hashes the spec, not the code, so the epoch is what tells
a record of today's pipeline from one an older pipeline wrote for the same id.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

try:  # POSIX advisory file locking; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - exercised only off-POSIX
    fcntl = None  # type: ignore[assignment]

from .scenario import ScenarioSpec

PathLike = Union[str, Path]

#: Run statuses, from best to worst.
STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
RUN_STATUSES = (STATUS_OK, STATUS_INFEASIBLE, STATUS_TIMEOUT, STATUS_ERROR)

#: The generation of the pipeline's outputs.  A change that makes a spec yield
#: another plan, trace or record bumps it and regenerates
#: ``tests/output_digests.json``; the result cache serves no record of another
#: epoch.  A stored record without one is from epoch 0.
OUTPUT_EPOCH = 2


@dataclass
class RunRecord:
    """The outcome of executing one scenario end to end."""

    spec: ScenarioSpec
    status: str
    message: str = ""
    #: Per-stage wall-clock seconds (generate, synthesis, decomposition,
    #: realization, validation, simulation).  Reporting only.
    timings: Dict[str, float] = field(default_factory=dict)
    num_agents: int = 0
    units_delivered: int = 0
    plan_feasible: Optional[bool] = None
    workload_serviced: Optional[bool] = None
    #: Digital-twin results (empty when the scenario did not simulate):
    #: units_served, realized/synthesized throughput, throughput_ratio,
    #: orders created/served, contract_violations, contracts_ok.
    sim: Dict[str, float] = field(default_factory=dict)
    #: The :data:`OUTPUT_EPOCH` of the code that computed the record.
    epoch: int = OUTPUT_EPOCH

    def __post_init__(self) -> None:
        if self.status not in RUN_STATUSES:
            raise ValueError(f"unknown run status {self.status!r}; expected {RUN_STATUSES}")

    # -- queries ----------------------------------------------------------------
    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def failed(self) -> bool:
        """True for crashes/timeouts (an infeasible instance is a *result*)."""
        return self.status in (STATUS_TIMEOUT, STATUS_ERROR)

    @property
    def synthesis_seconds(self) -> float:
        return self.timings.get("synthesis", 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

    @property
    def contracts_ok(self) -> Optional[bool]:
        if "contracts_ok" not in self.sim:
            return None
        return bool(self.sim["contracts_ok"])

    @property
    def throughput_ratio(self) -> Optional[float]:
        value = self.sim.get("throughput_ratio")
        return None if value is None else float(value)

    def fingerprint(self) -> Dict:
        """The deterministic payload: everything except wall-clock timings.

        Two runs of the same scenario (same seed) must produce equal
        fingerprints — this is the property the determinism tests and the
        regression comparator rely on.
        """
        document = self.to_dict()
        document.pop("timings")
        return document

    def to_dict(self) -> Dict:
        from ..io.serialization import run_record_to_dict

        return run_record_to_dict(self)

    @staticmethod
    def from_dict(document: Dict) -> "RunRecord":
        from ..io.serialization import run_record_from_dict

        return run_record_from_dict(document)

    def summary(self) -> str:
        head = f"{self.spec.label:<44s} {self.status:<10s}"
        if self.ok:
            ratio = self.throughput_ratio
            sim_note = "" if ratio is None else f", sim ratio {ratio:.3f}"
            return (
                f"{head} agents={self.num_agents:<4d} delivered={self.units_delivered:<5d} "
                f"synthesis={self.synthesis_seconds:.3f}s{sim_note}"
            )
        return f"{head} {self.message}".rstrip()


class ResultStore:
    """Append-only JSONL store of :class:`RunRecord` documents."""

    def __init__(self, path: PathLike, load_existing: bool = True):
        """``load_existing=False`` skips parsing a pre-existing file — the
        pure append mode the sweep runner uses, which must not refuse to add
        records just because the file already holds foreign or older-schema
        lines."""
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._records: List[RunRecord] = []
        self._by_id: Dict[str, List[RunRecord]] = {}
        self._lock = threading.Lock()
        #: Byte offset up to which the file has been indexed (refresh() tails
        #: from here to pick up lines appended by other processes).
        self._offset = 0
        if load_existing and self.path.exists():
            for record in load_records(self.path):
                self._remember(record)
            self._offset = self.path.stat().st_size
        elif self.path.exists():
            # Pure-append mode: never re-read foreign pre-existing lines.
            self._offset = self.path.stat().st_size

    def _remember(self, record: RunRecord) -> None:
        self._records.append(record)
        self._by_id.setdefault(record.scenario_id, []).append(record)

    def append(self, record: RunRecord) -> None:
        """Persist one record (one JSON line, flushed) and index it.

        Safe for concurrent appenders, both threads in one process (the store
        lock) and multiple processes on the same file: the line is fully built
        before any I/O and written by a single ``write`` call on a handle that
        holds a POSIX advisory lock (``flock``), so two writers can never
        interleave partial lines.  The lock is released when the handle
        closes; on platforms without ``fcntl`` the O_APPEND single-write path
        is the (weaker) fallback.
        """
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        with self._lock:
            with self.path.open("a") as handle:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                handle.write(line)
                handle.flush()
            self._remember(record)

    def refresh(self) -> int:
        """Index records appended to the file since the last read; return the count.

        This is what makes one JSONL file a *shared* warm tier for a fleet of
        server processes: each process appends under ``flock`` and every other
        process can tail the new complete lines on demand.  A cheap ``stat``
        short-circuits the common nothing-new case.  Records this process
        appended itself re-appear in the tail; exact duplicates (identical
        documents under an already-indexed id) are skipped, so the index never
        double-counts its own writes.
        """
        with self._lock:
            try:
                size = self.path.stat().st_size
            except OSError:
                return 0
            if size <= self._offset:
                return 0
            with self.path.open("rb") as handle:
                handle.seek(self._offset)
                data = handle.read(size - self._offset)
            added = 0
            consumed = 0
            for raw in data.splitlines(keepends=True):
                if not raw.endswith(b"\n"):
                    break  # a writer is mid-append; re-read next refresh
                consumed += len(raw)
                line = raw.strip()
                if not line:
                    continue
                try:
                    document = json.loads(line)
                    record = RunRecord.from_dict(document)
                except (ValueError, KeyError):
                    continue  # foreign/older-schema line; never poison the tail
                known = self._by_id.get(record.scenario_id, ())
                if any(existing.to_dict() == document for existing in known):
                    continue  # our own append (or a byte-identical re-run)
                self._remember(record)
                added += 1
            self._offset += consumed
            return added

    # -- queries ----------------------------------------------------------------
    def records(self) -> List[RunRecord]:
        return list(self._records)

    def by_id(self, scenario_id: str) -> List[RunRecord]:
        return list(self._by_id.get(scenario_id, []))

    def scenario_ids(self) -> List[str]:
        return list(self._by_id)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)


def load_records(path: PathLike) -> List[RunRecord]:
    """Read every record of a JSONL result file (blank lines are skipped)."""
    records: List[RunRecord] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            document = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{lineno}: not a JSON record: {error}") from error
        records.append(RunRecord.from_dict(document))
    return records
