"""Structured tracing: nestable spans with monotonic timings and counters.

The tracer is the pipeline's *where-does-time-go* instrument.  A span is a
named interval with attributes, counters, and accumulated *phase* timers;
spans nest (per thread) into trees, and completed root spans are collected by
the process-wide :class:`Tracer`.

Design rules, in priority order:

* **Zero cost when disabled.**  ``span(...)`` returns a shared
  :data:`NULL_SPAN` singleton whose every method is a no-op — no allocation,
  no clock read, no lock.  Hot loops may therefore be instrumented
  unconditionally; the price of a disabled tracer is one attribute check.
* **No behavioural coupling.**  Instrumented code must compute exactly the
  same result with tracing on or off — spans observe, never steer.  The
  golden determinism tests pin this: a traced run's serialized trace, with
  the ``obs`` section stripped, is byte-identical to an untraced run's.
* **Deterministic serialization.**  :func:`span_to_dict` emits plain
  dictionaries with stable key order and times rounded to fixed precision,
  relative to the root span's start — two serializations of the same span
  tree are byte-identical under ``json.dumps(..., sort_keys=True)``.

Typical use::

    from repro.obs import capture_trace, span

    with capture_trace() as capture:
        with span("solver.solve", map="sorting-center-small") as sp:
            with sp.timer("synthesis"):
                ...
            sp.add("ilp_variables", n)
    capture.to_dict()   # {"schema": "obs-trace", "spans": [...]}

A pipeline stage whose time is also *reported* (``WSPSolution.timings``,
run-record timings) opens :func:`stage` instead of a bare span: one clock
feeds both the timing entry and, while tracing, the span.

Enabling is either lexical (:func:`capture_trace`), explicit
(:func:`enable_tracing` / :func:`disable_tracing`), or ambient via the
``REPRO_OBS=1`` environment variable — which spawned worker processes
inherit, so sweep/pool workers trace themselves when the parent asks.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Union

from ..deadline import ScenarioTimeout

#: Attribute values spans accept (anything JSON-scalar).
AttrValue = Union[str, int, float, bool]

#: Decimal places of serialized timestamps/durations (1 ns resolution).
TIME_DIGITS = 9


class NullSpan:
    """The disabled span: every operation is a no-op, including timing.

    A single shared instance (:data:`NULL_SPAN`) doubles as its own phase
    timer and context manager, so ``with span(...) as sp`` and
    ``with sp.timer("phase")`` cost two trivial method calls when tracing
    is off.
    """

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set_attr(self, _name: str, _value: AttrValue) -> None:
        pass

    def add(self, _counter: str, _amount: float = 1) -> None:
        pass

    def timer(self, _phase: str) -> "NullSpan":
        return self


#: The shared disabled span.
NULL_SPAN = NullSpan()


class _PhaseTimer:
    """Accumulates wall time into ``span.phases[phase]`` across many uses."""

    __slots__ = ("_span", "_phase", "_t0")

    def __init__(self, span: "Span", phase: str):
        self._span = span
        self._phase = phase

    def __enter__(self) -> "_PhaseTimer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        phases = self._span.phases
        phases[self._phase] = phases.get(self._phase, 0.0) + (
            perf_counter() - self._t0
        )
        return False


class Span:
    """One named, timed interval in a per-thread span tree."""

    __slots__ = (
        "name",
        "t_start",
        "t_end",
        "attrs",
        "counters",
        "phases",
        "children",
        "_tracer",
    )
    enabled = True

    def __init__(self, name: str, tracer: "Tracer", attrs: Dict[str, AttrValue]):
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, float] = {}
        self.phases: Dict[str, float] = {}
        self.children: List[Span] = []
        self._tracer = tracer
        self.t_end = 0.0
        self.t_start = perf_counter()

    # -- context manager --------------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        self.t_end = perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False

    # -- recording --------------------------------------------------------------
    def set_attr(self, name: str, value: AttrValue) -> None:
        self.attrs[name] = value

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def timer(self, phase: str) -> _PhaseTimer:
        """A reusable context manager accumulating time into ``phases[phase]``."""
        return _PhaseTimer(self, phase)

    # -- queries ----------------------------------------------------------------
    @property
    def duration(self) -> float:
        return max(0.0, (self.t_end or perf_counter()) - self.t_start)

    @property
    def self_seconds(self) -> float:
        """Duration minus the children's durations (time spent in this span alone)."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, {self.duration * 1000:.2f}ms, "
            f"{len(self.children)} children)"
        )


class Tracer:
    """Process-wide span collector with per-thread nesting stacks."""

    def __init__(self, max_roots: int = 1024):
        self.enabled = False
        self.max_roots = max_roots
        self._local = threading.local()
        self._lock = threading.Lock()
        self._finished: List[Span] = []

    # -- span lifecycle ---------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: AttrValue) -> Union[Span, NullSpan]:
        if not self.enabled:
            return NULL_SPAN
        current = Span(name, self, dict(attrs))
        stack = self._stack()
        if stack:
            stack[-1].children.append(current)
        stack.append(current)
        return current

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        # Defensive: tolerate out-of-order exits instead of corrupting the tree.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        if not stack:
            with self._lock:
                self._finished.append(span)
                if len(self._finished) > self.max_roots:
                    del self._finished[0]

    def current(self) -> Union[Span, NullSpan]:
        """The innermost open span of this thread (:data:`NULL_SPAN` if none)."""
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        return stack[-1] if stack else NULL_SPAN

    # -- collection -------------------------------------------------------------
    def drain(self) -> List[Span]:
        """Remove and return every completed root span."""
        with self._lock:
            finished, self._finished = self._finished, []
        return finished


#: The process-wide tracer every ``span()`` call goes through.
_TRACER = Tracer()


def span(name: str, **attrs: AttrValue) -> Union[Span, NullSpan]:
    """Open a span on the calling thread (no-op when tracing is disabled)."""
    return _TRACER.span(name, **attrs)


@contextmanager
def stage(
    timings: Dict[str, float], key: str, name: str, **attrs: AttrValue
) -> Iterator[Union[Span, NullSpan]]:
    """Time one pipeline stage into ``timings[key]`` under ``span(name)``.

    The pipeline's one timing source.  On exit — also when the block
    raises — the stage's seconds are added to ``timings[key]``: the span's
    own :attr:`Span.duration` while tracing, so timings and traces agree
    exactly; otherwise two clock reads time the block and no span is built.
    A ``ScenarioTimeout`` leaving the block is named after the outermost key
    and carries that stage's ``timings``, which its seconds reach on exit.
    """
    sp = _TRACER.span(name, **attrs)
    start = 0.0 if sp.enabled else perf_counter()
    try:
        with sp:
            yield sp
    except ScenarioTimeout as timeout:
        timeout.stage, timeout.timings = key, timings
        raise
    finally:
        seconds = sp.duration if sp.enabled else perf_counter() - start
        timings[key] = timings.get(key, 0.0) + seconds


def current_span() -> Union[Span, NullSpan]:
    """The calling thread's innermost open span (for late attribute binding)."""
    return _TRACER.current()


def tracing_enabled() -> bool:
    return _TRACER.enabled


def drain_spans() -> List[Dict]:
    """Remove every completed root span and return them serialized.

    Plain dicts cross a process boundary, so this is the hand-off a spawned
    worker that traced itself (``REPRO_OBS=1``) needs once its spans are
    stitched under the parent's; until then the worker drops them after
    each run.
    """
    return [span_to_dict(root) for root in _TRACER.drain()]


def enable_tracing() -> None:
    _TRACER.enabled = True


def disable_tracing() -> None:
    _TRACER.enabled = False


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def span_to_dict(span: Span, origin: Optional[float] = None) -> Dict:
    """Serialize one span (sub)tree relative to ``origin`` (default: its start).

    Keys are emitted in a fixed order and every time is rounded to
    :data:`TIME_DIGITS`, so serialization is a pure function of the span tree.
    """
    if origin is None:
        origin = span.t_start
    return {
        "name": span.name,
        "start": round(span.t_start - origin, TIME_DIGITS),
        "duration": round(span.duration, TIME_DIGITS),
        "attrs": {k: span.attrs[k] for k in sorted(span.attrs)},
        "counters": {k: span.counters[k] for k in sorted(span.counters)},
        "phases": {k: round(span.phases[k], TIME_DIGITS) for k in sorted(span.phases)},
        "children": [span_to_dict(child, origin) for child in span.children],
    }


class TraceCapture:
    """The root spans completed during one :func:`capture_trace` window."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @property
    def root(self) -> Optional[Span]:
        return self.spans[0] if self.spans else None

    def to_dict(self) -> Dict:
        return {
            "schema": "obs-trace",
            "version": 1,
            "spans": [span_to_dict(span) for span in self.spans],
        }


@contextmanager
def capture_trace() -> Iterator[TraceCapture]:
    """Enable tracing for the enclosed block and collect its root spans.

    Spans completed by *other threads* during the window are collected too
    (the tracer is process-wide); spans from before the window are discarded.
    On exit the tracer returns to its previous enabled state.
    """
    capture = TraceCapture()
    previous = _TRACER.enabled
    _TRACER.drain()
    _TRACER.enabled = True
    try:
        yield capture
    finally:
        _TRACER.enabled = previous
        capture.spans = _TRACER.drain()


# Ambient enablement: spawned workers inherit the environment, so a parent
# exporting REPRO_OBS=1 gets traced children without any plumbing.
if os.environ.get("REPRO_OBS", "0") not in ("0", "", "false", "no"):  # pragma: no cover
    enable_tracing()
