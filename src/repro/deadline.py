"""One time budget per run, held as a per-thread monotonic deadline.

:func:`deadline_scope` turns a budget into a :class:`Deadline` and binds it
to the calling thread for a block, the way :func:`repro.obs.event_context`
binds event ids; code that loops reads it with :func:`current_deadline`
instead of being handed seconds.  Nested scopes end at the earlier instant.
A check works on any thread but cannot interrupt a native call or one long
search step (DESIGN.md §7).  Standard library only: the processes that only
describe or serve scenarios validate budgets without loading the pipeline.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import monotonic
from typing import Dict, Iterator, Optional


class ScenarioTimeout(Exception):
    """A run outlived its budget; :func:`repro.obs.stage` sets ``stage`` and
    ``timings``, the stage times of the outermost stage it left."""

    def __init__(self, seconds: float, stage: str = "") -> None:
        super().__init__(seconds, stage)
        self.seconds, self.stage = seconds, stage
        self.timings: Dict[str, float] = {}

    def __str__(self) -> str:
        where = f" in {self.stage}" if self.stage else ""
        return f"run exceeded the {self.seconds:g}s timeout{where}"


def check_budget(
    seconds: Optional[float], name: str = "timeout_seconds", error: type = ValueError
) -> Optional[float]:
    """``seconds`` if it is ``None`` (no limit) or positive; else raise ``error``."""
    if seconds is not None and not seconds > 0:  # zero, negative or NaN
        raise error(f"{name} must be positive when set (got {seconds!r})")
    return seconds


class Deadline:
    """A budget of ``seconds`` from now, as an instant on the monotonic clock."""

    def __init__(self, seconds: float) -> None:
        self.seconds = check_budget(seconds)
        self.at = monotonic() + seconds

    def remaining(self) -> float:
        return max(0.0, self.at - monotonic())

    def expired(self) -> bool:
        return monotonic() >= self.at

    def check(self) -> None:
        """Raise :class:`ScenarioTimeout` once the instant has passed."""
        if monotonic() >= self.at:
            raise ScenarioTimeout(self.seconds)


class _Scope(threading.local):
    deadline: Optional[Deadline] = None  # what a thread without a scope reads


_SCOPE = _Scope()


def current_deadline() -> Optional[Deadline]:
    """The calling thread's innermost deadline (``None`` outside any scope)."""
    return _SCOPE.deadline


@contextmanager
def deadline_scope(seconds: Optional[float]) -> Iterator[Optional[Deadline]]:
    """Bind the earlier of ``seconds`` from now and the enclosing deadline.

    ``None`` keeps the enclosing deadline.  Yields the bound deadline and
    restores the enclosing one on exit, also when the block raises.
    """
    outer = _SCOPE.deadline
    inner = outer if seconds is None else Deadline(seconds)
    if outer is not None and outer.at <= inner.at:
        inner = outer
    _SCOPE.deadline = inner
    try:
        yield inner
    finally:
        _SCOPE.deadline = outer
