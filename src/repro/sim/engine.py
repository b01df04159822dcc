"""A deterministic, seedable discrete-event simulation engine.

The engine is the substrate of the digital twin: a binary-heap event queue, an
integer clock counted in plan timesteps ("ticks"), and a seeded random
generator shared by every stochastic process of a run.  There is **no
wall-clock dependence anywhere** — two runs with the same seed and the same
processes execute the exact same event sequence, which is what makes simulated
traces reproducible, diffable and usable as regression artifacts (a run's
deadline check reads the clock, but can only abort the run, never alter it).

Events scheduled for the same tick are ordered by an explicit priority and
then by insertion order, so intra-tick phases are well defined.  The module
exports the priority bands the warehouse processes use:

* :data:`PRIORITY_ARRIVALS` — order arrivals (environment acts first);
* :data:`PRIORITY_DISRUPTIONS` — failure injection and repair (the environment
  degrades the system before agents react to it);
* :data:`PRIORITY_AGENTS` — agent executors stepping the realized plan;
* :data:`PRIORITY_STATIONS` — station service completions;
* :data:`PRIORITY_MONITORS` — runtime contract monitors (observe the settled state);
* :data:`PRIORITY_TELEMETRY` — end-of-tick sampling (always sees the final state
  of a tick; the twin's own processes record as they act and need none).

A same-tick event can never be scheduled into a phase that has already run:
when a callback executing in band ``p`` schedules an event at the current tick
with a priority below ``p``, the event's priority is lifted to ``p``.  Without
the lift the heap would pop the event *after* the scheduling callback even
though its band already completed, silently interleaving phases — the exact
tie-breaking bug class the disruption layer surfaced (a repair firing in the
disruption band scheduling same-tick agent work must keep (tick, priority,
sequence) pops monotone within the tick).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..deadline import current_deadline
from ..obs import span

#: Intra-tick phase ordering (lower runs first).
PRIORITY_ARRIVALS = 0
PRIORITY_DISRUPTIONS = 5
PRIORITY_AGENTS = 10
PRIORITY_STATIONS = 20
PRIORITY_MONITORS = 30
PRIORITY_TELEMETRY = 40

#: Band names for observability (span counters key on these).
PRIORITY_NAMES: Dict[int, str] = {
    PRIORITY_ARRIVALS: "arrivals",
    PRIORITY_DISRUPTIONS: "disruptions",
    PRIORITY_AGENTS: "agents",
    PRIORITY_STATIONS: "stations",
    PRIORITY_MONITORS: "monitors",
    PRIORITY_TELEMETRY: "telemetry",
}


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests or a corrupted event queue."""


@dataclass(order=True)
class Event:
    """One scheduled callback; the comparison key is (time, priority, seq)."""

    time: int
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine skips it when it fires."""
        self.cancelled = True


class SimulationEngine:
    """Event heap + integer clock + seeded RNG.

    Parameters
    ----------
    seed:
        Seed of the run's random generator.  Every stochastic decision of
        every process must come from :attr:`rng` — that single rule is what
        makes a run reproducible from its seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.rng: np.random.Generator = np.random.default_rng(self.seed)
        self._heap: List[Event] = []
        self._now = 0
        self._seq = 0
        self._running = False
        self._stopped = False
        self._current_priority: Optional[int] = None
        self.events_processed = 0

    # -- clock ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """The current simulation tick."""
        return self._now

    # -- scheduling --------------------------------------------------------------
    def schedule_at(
        self, time: int, callback: Callable[[], None], priority: int = PRIORITY_AGENTS
    ) -> Event:
        """Schedule ``callback`` at an absolute tick (>= now).

        A same-tick event cannot re-enter a phase the clock has already passed:
        its priority is lifted to the currently executing event's band, keeping
        intra-tick pops monotone in (priority, sequence).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time}, the clock is already at t={self._now}"
            )
        priority = int(priority)
        if (
            time == self._now
            and self._current_priority is not None
            and priority < self._current_priority
        ):
            priority = self._current_priority
        event = Event(time=int(time), priority=priority, seq=self._seq, callback=callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def schedule(
        self, delay: int, callback: Callable[[], None], priority: int = PRIORITY_AGENTS
    ) -> Event:
        """Schedule ``callback`` ``delay`` ticks from now (0 = later this tick)."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback, priority)

    def every(
        self,
        interval: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_AGENTS,
        start: int = 0,
        until: Optional[int] = None,
    ) -> None:
        """Run ``callback`` every ``interval`` ticks from ``start`` (inclusive)
        up to ``until`` (inclusive; ``None`` = forever while events remain)."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        first = max(self._now, start)
        if until is not None and first > until:
            return

        def fire() -> None:
            callback()
            next_time = self._now + interval
            if until is None or next_time <= until:
                self.schedule_at(next_time, fire, priority)

        self.schedule_at(first, fire, priority)

    # -- execution ----------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Process events in order until the heap drains or the clock passes ``until``.

        Returns the number of events processed by this call.  ``until`` is
        inclusive: events scheduled exactly at ``until`` still fire.  Each
        tick, the run checks the calling thread's deadline, if any.
        """
        if self._running:
            raise SimulationError("the engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        processed = 0
        deadline = current_deadline()
        with span("sim.engine.run", seed=self.seed) as sp:
            # Per-event work stays untraced (the loop is the hot path); when
            # tracing is on we tally events per priority band locally and
            # attach the totals once at the end.
            band_counts: Optional[Dict[int, int]] = {} if sp.enabled else None
            try:
                while self._heap and not self._stopped:
                    event = self._heap[0]
                    if until is not None and event.time > until:
                        break
                    heapq.heappop(self._heap)
                    if event.cancelled:
                        continue
                    if deadline is not None and event.time != self._now:
                        deadline.check()
                    self._now = event.time
                    self._current_priority = event.priority
                    try:
                        event.callback()
                    finally:
                        self._current_priority = None
                    processed += 1
                    self.events_processed += 1
                    if band_counts is not None:
                        band_counts[event.priority] = (
                            band_counts.get(event.priority, 0) + 1
                        )
            finally:
                self._running = False
                if band_counts is not None:
                    sp.add("events_processed", processed)
                    sp.set_attr("final_tick", self._now)
                    for priority in sorted(band_counts):
                        name = PRIORITY_NAMES.get(priority, str(priority))
                        sp.add(f"events.{name}", band_counts[priority])
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return processed

    def stop(self) -> None:
        """Stop the run after the current callback returns."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationEngine(t={self._now}, seed={self.seed}, "
            f"{self.pending_events} pending, {self.events_processed} processed)"
        )
