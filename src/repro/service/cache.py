"""Content-addressed result cache: sharded LRU tiers + single-flight coalescing.

Results are keyed on :attr:`~repro.experiments.scenario.ScenarioSpec.
scenario_id` — the stable content hash of the scenario — so two requests for
the same instance are the *same* cache entry regardless of who sent them, in
which order, or under which cosmetic name.  Two tiers:

* an in-memory LRU of :class:`~repro.experiments.store.RunRecord` objects
  (bounded, thread-safe), the fast path every warm request hits;
* an optional persistent tier backed by the append-only JSONL
  :class:`~repro.experiments.store.ResultStore`: records survive restarts,
  and a memory miss consults the store's id index — tailing lines appended
  by *other processes* first (:meth:`~repro.experiments.store.ResultStore.
  refresh`) — before declaring a miss (a store hit is promoted back into
  memory).  One JSONL file shared by a pre-fork worker fleet is therefore a
  common warm layer: any worker's computation warms every other worker.

The memory tier is **sharded**: the id space is split over N independently
locked shards (routed by a stable hash of the ``scenario_id`` prefix), so a
hot key in one shard never serializes lookups of unrelated keys behind one
global lock.  Eviction is LRU *per shard* (each shard owns an equal slice of
the total capacity); aggregate stats are the sum over shards, and
:meth:`snapshot` reports both.

Only *deterministic* outcomes are cached (``ok`` and ``infeasible`` — both
are pure functions of the spec), and only those of the running code's
:data:`~repro.experiments.store.OUTPUT_EPOCH`: a store written by an older
pipeline keeps its lines, but a lookup treats them as misses and recomputes.
Timeouts and crashes are never cached: a retry deserves a fresh attempt.

Single-flight: when several concurrent requests miss on the same id, exactly
one (the *leader*) computes while the rest wait on the flight's event and
share the leader's record — N identical requests cost one worker-pool slot,
which is what keeps a thundering herd of popular scenarios from saturating
the pool.  A leader that *abandons* (pool rejection, crash before handing a
record back) marks the flight so a woken follower can re-lease the id and
become the new leader instead of failing outright.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..experiments.store import (
    OUTPUT_EPOCH,
    STATUS_INFEASIBLE,
    STATUS_OK,
    ResultStore,
    RunRecord,
)

#: Run statuses worth caching (deterministic functions of the scenario).
CACHEABLE_STATUSES = (STATUS_OK, STATUS_INFEASIBLE)

#: How many leading ``scenario_id`` characters route a key to its shard.
SHARD_PREFIX = 8

_STAT_KEYS = ("hits_memory", "hits_store", "misses", "coalesced", "puts")


def _cacheable(record: RunRecord) -> bool:
    """A deterministic outcome computed by this code's output epoch."""
    return record.status in CACHEABLE_STATUSES and record.epoch == OUTPUT_EPOCH


class Flight:
    """One in-flight computation other requests may coalesce onto."""

    __slots__ = ("event", "record", "abandoned")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.record: Optional[RunRecord] = None
        #: Set when the leader gave up without a record; a follower that
        #: wakes to an abandoned flight may re-lease and lead the retry.
        self.abandoned = False


class _Shard:
    """One independently locked LRU slice of the id space."""

    __slots__ = ("lock", "memory", "flights", "stats", "capacity")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.Lock()
        self.memory: "OrderedDict[str, RunRecord]" = OrderedDict()
        self.flights: Dict[str, Flight] = {}
        self.stats = {key: 0 for key in _STAT_KEYS}
        self.capacity = capacity

    def remember(self, scenario_id: str, record: RunRecord) -> None:
        """Insert/touch under the shard lock (caller holds it)."""
        self.memory[scenario_id] = record
        self.memory.move_to_end(scenario_id)
        while len(self.memory) > self.capacity:
            self.memory.popitem(last=False)


class ResultCache:
    """Sharded two-tier LRU + single-flight registry, keyed by ``scenario_id``."""

    def __init__(
        self,
        capacity: int = 1024,
        store: Optional[ResultStore] = None,
        shards: int = 8,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be at least 1 (got {capacity})")
        if shards < 1:
            raise ValueError(f"cache shards must be at least 1 (got {shards})")
        self.capacity = capacity
        self.store = store
        # Never mint more shards than capacity: every shard must be able to
        # hold at least one entry without inflating the aggregate bound.
        self.num_shards = min(shards, capacity)
        base, extra = divmod(capacity, self.num_shards)
        self._shards = [
            _Shard(base + (1 if index < extra else 0))
            for index in range(self.num_shards)
        ]
        if store is not None:
            # Warm the memory tier from the newest cacheable record of every
            # id already in the file (newest wins: a re-run supersedes).
            for scenario_id in store.scenario_ids():
                record = self._latest_cacheable(store.by_id(scenario_id))
                if record is not None:
                    shard = self._shard(scenario_id)
                    with shard.lock:
                        shard.remember(scenario_id, record)

    # -- routing ----------------------------------------------------------------
    def _shard(self, scenario_id: str) -> _Shard:
        # crc32 of the id prefix: stable across processes and runs (unlike
        # hash()), cheap, and uniform enough for content-hash keys.
        digest = zlib.crc32(scenario_id[:SHARD_PREFIX].encode("utf-8", "replace"))
        return self._shards[digest % self.num_shards]

    def shard_index(self, scenario_id: str) -> int:
        """Which shard an id routes to (exposed for tests and diagnostics)."""
        return self._shards.index(self._shard(scenario_id))

    @staticmethod
    def _latest_cacheable(records) -> Optional[RunRecord]:
        for record in reversed(records):
            if _cacheable(record):
                return record
        return None

    # -- lookups ----------------------------------------------------------------
    def get(self, scenario_id: str) -> Tuple[Optional[RunRecord], str]:
        """Look up an id; returns ``(record, tier)`` with tier in hit/store/miss."""
        shard = self._shard(scenario_id)
        with shard.lock:
            record = shard.memory.get(scenario_id)
            if record is not None:
                shard.memory.move_to_end(scenario_id)
                shard.stats["hits_memory"] += 1
                return record, "hit"
        if self.store is not None:
            # Store lookups happen outside the shard lock: the persistent
            # tier may touch the filesystem (refresh tails new lines other
            # worker processes appended) and must not stall sibling keys.
            record = self._latest_cacheable(self.store.by_id(scenario_id))
            if record is None and self.store.refresh() > 0:
                record = self._latest_cacheable(self.store.by_id(scenario_id))
            if record is not None:
                with shard.lock:
                    shard.remember(scenario_id, record)
                    shard.stats["hits_store"] += 1
                return record, "store"
        with shard.lock:
            shard.stats["misses"] += 1
        return None, "miss"

    def get_memory(self, scenario_id: str) -> Optional[RunRecord]:
        """Memory-tier-only lookup: one shard-dict probe, nothing else.

        The serving fast path calls this before committing to the full
        resolution machinery.  A hit counts as ``hits_memory``; a miss is
        *not* counted here — the caller falls through to :meth:`get`, which
        owns the store tier and the miss accounting.
        """
        shard = self._shard(scenario_id)
        with shard.lock:
            record = shard.memory.get(scenario_id)
            if record is None:
                return None
            shard.memory.move_to_end(scenario_id)
            shard.stats["hits_memory"] += 1
            return record

    # -- single-flight ----------------------------------------------------------
    def lease(self, scenario_id: str) -> Tuple[Flight, bool]:
        """Join or open the flight for an id; returns ``(flight, is_leader)``."""
        shard = self._shard(scenario_id)
        with shard.lock:
            flight = shard.flights.get(scenario_id)
            if flight is not None:
                shard.stats["coalesced"] += 1
                return flight, False
            flight = Flight()
            shard.flights[scenario_id] = flight
            return flight, True

    def complete(self, scenario_id: str, flight: Flight, record: RunRecord) -> None:
        """Leader hand-off: publish the record, cache it, release followers."""
        keep = _cacheable(record)
        shard = self._shard(scenario_id)
        with shard.lock:
            if keep:
                shard.remember(scenario_id, record)
                shard.stats["puts"] += 1
            shard.flights.pop(scenario_id, None)
        if keep and self.store is not None:
            # Persist outside the shard lock: the append takes a blocking
            # flock on the JSONL file, and a slow (or contended) write must
            # not stall every concurrent warm lookup behind it.
            self.store.append(record)
        flight.record = record
        flight.event.set()

    def abandon(self, scenario_id: str, flight: Flight) -> None:
        """Leader failed before producing a record; wake followers to retry.

        Followers observe ``flight.abandoned`` and may :meth:`lease` again —
        one of them wins the new flight and leads the retry, the rest coalesce
        onto it.  The abandonment is marked *before* the flight is unpublished
        so a follower can never see a closed flight without the flag.
        """
        flight.abandoned = True
        shard = self._shard(scenario_id)
        with shard.lock:
            shard.flights.pop(scenario_id, None)
        flight.event.set()

    # -- accounting -------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Aggregate counters over every shard (a consistent locked sum)."""
        totals = {key: 0 for key in _STAT_KEYS}
        for shard in self._shards:
            with shard.lock:
                for key in _STAT_KEYS:
                    totals[key] += shard.stats[key]
        return totals

    @property
    def hit_rate(self) -> float:
        snapshot = self.stats  # one locked pass; never a torn read
        hits = snapshot["hits_memory"] + snapshot["hits_store"] + snapshot["coalesced"]
        lookups = hits + snapshot["misses"]
        return hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Aggregate stats plus one entry per shard, all read under the locks."""
        totals = {key: 0 for key in _STAT_KEYS}
        size = 0
        in_flight = 0
        shards: List[Dict[str, float]] = []
        for shard in self._shards:
            with shard.lock:
                entry = dict(shard.stats)
                entry["size"] = len(shard.memory)
                entry["in_flight"] = len(shard.flights)
                entry["capacity"] = shard.capacity
            for key in _STAT_KEYS:
                totals[key] += entry[key]
            size += entry["size"]
            in_flight += entry["in_flight"]
            shards.append(entry)
        document: Dict[str, float] = dict(totals)
        document["size"] = size
        document["in_flight"] = in_flight
        # hit_rate derives from the snapshot itself, not a second racy read.
        hits = totals["hits_memory"] + totals["hits_store"] + totals["coalesced"]
        lookups = hits + totals["misses"]
        document["hit_rate"] = hits / lookups if lookups else 0.0
        document["num_shards"] = self.num_shards
        document["shards"] = shards
        return document

    def __len__(self) -> int:
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += len(shard.memory)
        return total
