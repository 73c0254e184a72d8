"""Tests of the span recorder on synthetic call trees.

Run from the repository root: ``python3 -m pytest sysbench/test_spans.py``.
"""

import sys
import threading
from pathlib import Path

import pytest

# the benchmark's modules are plain scripts beside this file, not a package
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, layer_stats, self_times  # noqa: E402


class FakeClock:
    """A clock that reads whatever the test last set."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def by_name(recorder):
    return {span.name: span for span in recorder.spans}


def test_nested_tree_self_times_and_parents():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span("a", tag=7) as a:
        clock.now = 1.0
        with recorder.span("b") as b:
            clock.now = 2.0
            with recorder.span("c"):
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with recorder.span("d"):
            clock.now = 6.0
        clock.now = 10.0
    spans = by_name(recorder)
    assert spans["a"].parent is None
    assert spans["b"].parent == a
    assert spans["c"].parent == b
    assert spans["d"].parent == a
    assert {s.tag for s in recorder.spans} == {7}
    own = self_times(recorder.spans)
    assert own[spans["a"].span_id] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[spans["b"].span_id] == pytest.approx(3.0 - 1.0)
    assert own[spans["c"].span_id] == pytest.approx(1.0)
    assert own[spans["d"].span_id] == pytest.approx(1.0)


def test_overlapping_children_are_merged_and_clipped():
    recorder = SpanRecorder()
    parent = recorder.record("front", 0.0, 10.0)
    recorder.record("req", 1.0, 5.0, parent=parent)
    recorder.record("req", 3.0, 8.0, parent=parent)
    recorder.record("req", 9.0, 12.0, parent=parent)  # runs past its parent
    own = self_times(recorder.spans)
    assert own[parent] == pytest.approx(10.0 - 7.0 - 1.0)
    stats = layer_stats(recorder.spans)
    assert stats["front"]["self_s"] == pytest.approx(2.0)
    assert stats["req"]["calls"] == 3
    assert stats["req"]["busy_s"] == pytest.approx(4.0 + 5.0 + 3.0)


def test_same_layer_nesting_counts_the_outer_call_once():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span("run"):
        with recorder.span("vae", rows=32):
            clock.now = 1.0
            with recorder.span("vae", rows=32):
                clock.now = 3.0
            clock.now = 4.0
        with recorder.span("predict", rows=8):
            clock.now = 5.0
    stats = layer_stats(recorder.spans)
    assert stats["vae"]["calls"] == 1
    assert stats["vae"]["rows"] == 32
    assert stats["vae"]["busy_s"] == pytest.approx(4.0)
    assert stats["vae"]["self_s"] == pytest.approx(4.0)
    assert stats["run"]["self_s"] == pytest.approx(0.0)
    assert stats["predict"]["rows"] == 8


class Model:
    def predict(self, x):
        return len(x)


def test_wrap_times_calls_and_unwrap_restores():
    recorder = SpanRecorder()
    model = Model()
    assert recorder.wrap(model, "predict", "models.predict", rows=lambda a: len(a[0]))
    assert not recorder.wrap(model, "predict", "models.predict")
    assert not recorder.wrap(model, "missing", "models.predict")
    assert model.predict([1, 2, 3]) == 3
    assert [(s.name, s.rows) for s in recorder.spans] == [("models.predict", 3)]
    recorder.unwrap_all()
    assert "predict" not in vars(model)
    model.predict([1])
    assert len(recorder.spans) == 1


def test_unwrap_restores_an_instance_attribute():
    recorder = SpanRecorder()
    model = Model()
    own = lambda x: "own"  # noqa: E731
    model.predict = own
    recorder.wrap(model, "predict", "models.predict")
    assert model.predict([]) == "own"
    recorder.unwrap_all()
    assert model.predict is own


def test_threads_keep_separate_stacks():
    recorder = SpanRecorder()
    inside = threading.Event()
    release = threading.Event()

    def worker():
        with recorder.span("worker"):
            inside.set()
            release.wait(timeout=5)

    with recorder.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        assert inside.wait(timeout=5)
        with recorder.span("child") as child:
            pass
        release.set()
        thread.join(timeout=5)
    assert not thread.is_alive()
    spans = by_name(recorder)
    assert spans["worker"].parent is None
    assert spans["child"].parent == spans["main"].span_id
    assert child == spans["child"].span_id
