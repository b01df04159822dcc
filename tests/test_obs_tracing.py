"""Span nesting, zero-cost disabled paths, and deterministic serialization.

The tracer's contract has four legs the rest of the pipeline leans on:

* spans nest per thread into well-formed trees whose serialized intervals
  are consistent (children inside parents, starts monotone) — checked as a
  hypothesis property over arbitrary tree shapes;
* the disabled path allocates nothing and touches no clock
  (:data:`NULL_SPAN` identity), so instrumentation may stay in hot loops;
* :func:`span_to_dict` is a pure function of the span tree — two
  serializations of the same capture are byte-identical;
* :func:`stage` times a block once: its seconds accumulate into the
  timings entry (also when the block raises) and, while tracing, equal the
  span's duration.
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_SPAN,
    capture_trace,
    current_span,
    disable_tracing,
    drain_spans,
    enable_tracing,
    span,
    span_to_dict,
    stage,
    tracing_enabled,
)

# Recursive tree shapes: each node is a list of children.
TREES = st.recursive(
    st.just([]), lambda children: st.lists(children, max_size=4), max_leaves=12
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with the ambient tracer disabled."""
    disable_tracing()
    drain_spans()
    yield
    disable_tracing()
    drain_spans()


def build_tree(shape, name="n") -> None:
    with span(name, depth_marker=len(shape)) as sp:
        sp.add("children", len(shape))
        for index, child in enumerate(shape):
            build_tree(child, name=f"{name}.{index}")


def assert_well_formed(node, parent_duration=None):
    assert list(node) == [
        "name", "start", "duration", "attrs", "counters", "phases", "children",
    ]
    assert node["start"] >= 0.0
    assert node["duration"] >= 0.0
    starts = [child["start"] for child in node["children"]]
    assert starts == sorted(starts), "sibling spans must start in order"
    for child in node["children"]:
        # A child's interval lies within its parent's (both measured from the
        # same origin; serialization rounding allows a 1ns slack per bound).
        assert child["start"] + 2e-9 >= node["start"]
        assert child["start"] + child["duration"] <= (
            node["start"] + node["duration"] + 2e-9
        )
        assert_well_formed(child)


@settings(max_examples=60, deadline=None)
@given(shape=TREES)
def test_span_trees_serialize_well_formed(shape):
    with capture_trace() as capture:
        build_tree(shape)
    document = capture.to_dict()
    assert document["schema"] == "obs-trace"
    assert len(document["spans"]) == 1
    assert_well_formed(document["spans"][0])


@settings(max_examples=30, deadline=None)
@given(shape=TREES)
def test_serialization_is_byte_deterministic(shape):
    with capture_trace() as capture:
        build_tree(shape)
    first = json.dumps(capture.to_dict(), sort_keys=True)
    second = json.dumps(capture.to_dict(), sort_keys=True)
    assert first == second


def test_disabled_span_is_the_null_singleton():
    assert not tracing_enabled()
    sp = span("anything", attr=1)
    assert sp is NULL_SPAN
    assert current_span() is NULL_SPAN
    # Every operation is a no-op that returns reusable objects.
    with sp as inner:
        assert inner is NULL_SPAN
        inner.set_attr("x", 1)
        inner.add("hits")
        with inner.timer("phase"):
            pass
    assert drain_spans() == []


def test_counters_and_phases_accumulate():
    with capture_trace() as capture:
        with span("work") as sp:
            sp.add("items", 2)
            sp.add("items", 3)
            with sp.timer("phase"):
                pass
            with sp.timer("phase"):
                pass
    root = capture.to_dict()["spans"][0]
    assert root["counters"] == {"items": 5}
    assert set(root["phases"]) == {"phase"}
    assert root["phases"]["phase"] >= 0.0


def test_exceptions_are_recorded_and_propagate():
    with capture_trace() as capture:
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
    root = capture.to_dict()["spans"][0]
    assert root["attrs"]["error"] == "ValueError"


def test_capture_restores_previous_enabled_state():
    enable_tracing()
    with capture_trace():
        assert tracing_enabled()
    assert tracing_enabled(), "capture must restore the prior enabled state"
    disable_tracing()
    with capture_trace():
        assert tracing_enabled()
    assert not tracing_enabled()


def test_capture_discards_spans_from_before_the_window():
    enable_tracing()
    with span("before"):
        pass
    with capture_trace() as capture:
        with span("inside"):
            pass
    assert [sp.name for sp in capture.spans] == ["inside"]


def test_drain_spans_returns_serialized_roots_once():
    enable_tracing()
    with span("root", tag="x") as sp:
        sp.add("hits")
        with span("child"):
            pass
    drained = drain_spans()
    assert [root["name"] for root in drained] == ["root"]
    assert drained[0]["counters"] == {"hits": 1}
    assert [child["name"] for child in drained[0]["children"]] == ["child"]
    assert drain_spans() == [], "drain must empty the tracer"


def test_threads_get_independent_span_stacks():
    """A span opened on another thread must not nest under this thread's."""
    documents = {}

    def worker():
        with span("worker.root") as sp:
            sp.add("ticks")
        documents["worker"] = True

    with capture_trace() as capture:
        with span("main.root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
    names = sorted(root.name for root in capture.spans)
    assert names == ["main.root", "worker.root"]
    for root in capture.spans:
        serialized = span_to_dict(root)
        assert all(child["name"] != "worker.root" for child in serialized["children"])


def test_current_span_tracks_the_open_stack():
    with capture_trace():
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is NULL_SPAN


# ---------------------------------------------------------------------------
# stage: one clock for the timing entry and the span
# ---------------------------------------------------------------------------

def test_stage_accumulates_repeated_use_into_one_key():
    timings = {"other": 1.0}
    for _ in range(3):
        with stage(timings, "work", "pipeline.work"):
            time.sleep(0.002)
    assert list(timings) == ["other", "work"]
    assert timings["other"] == 1.0
    assert timings["work"] >= 0.006


def test_stage_records_time_of_a_raising_block_and_reraises():
    timings = {}
    with capture_trace() as capture:
        with pytest.raises(ValueError, match="boom"):
            with stage(timings, "work", "pipeline.work"):
                raise ValueError("boom")
    assert timings["work"] == capture.root.duration
    assert capture.root.attrs["error"] == "ValueError"
    untraced = {}
    with pytest.raises(ValueError):
        with stage(untraced, "work", "pipeline.work"):
            time.sleep(0.002)
            raise ValueError("boom")
    assert untraced["work"] >= 0.002


def test_stage_without_tracing_yields_the_null_span():
    assert not tracing_enabled()
    timings = {}
    with stage(timings, "work", "pipeline.work", attr=1) as sp:
        assert sp is NULL_SPAN
    assert timings["work"] >= 0.0
    assert drain_spans() == [], "a disabled stage must not collect a root span"


def test_stage_seconds_equal_the_span_duration_while_tracing():
    timings = {}
    with capture_trace() as capture:
        with stage(timings, "outer", "pipeline.outer", units=3) as outer:
            for _ in range(2):
                with stage(timings, "inner", "pipeline.inner"):
                    pass
    assert outer is capture.root
    assert capture.root.attrs == {"units": 3}
    assert timings["outer"] == capture.root.duration
    inner = capture.root.children
    assert [child.name for child in inner] == ["pipeline.inner"] * 2
    assert timings["inner"] == inner[0].duration + inner[1].duration
