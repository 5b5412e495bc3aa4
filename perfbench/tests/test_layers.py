"""Tests of the span recorder behind the traced run."""

from __future__ import annotations

import types

import pytest

from perfbench import layers


@pytest.fixture
def clock(monkeypatch):
    """A fake ``perf_counter`` the wrapped functions advance by hand."""
    now = [0.0]
    monkeypatch.setattr(layers.time, "perf_counter", lambda: now[0])
    return now


def _module(clock):
    module = types.ModuleType("fake_layer_module")

    def inner(seconds):
        clock[0] += seconds
        return seconds

    def outer():
        clock[0] += 1.0          # outer's own work
        module.inner(2.0)        # a child span
        clock[0] += 0.5
        return module.inner(3.0)

    module.inner = inner
    module.outer = outer
    return module


def test_self_time_is_span_time_minus_child_spans(clock):
    recorder = layers.Recorder()
    module = _module(clock)
    recorder.wrap_function(module, "inner", "child")
    recorder.wrap_function(module, "outer", "parent")
    assert module.outer() == 3.0
    assert recorder.calls("child") == 2
    assert recorder.total_seconds("child") == pytest.approx(5.0)
    assert recorder.total_seconds("parent") == pytest.approx(6.5)
    assert recorder.self_seconds("parent") == pytest.approx(1.5)
    assert recorder.self_seconds("child") == pytest.approx(5.0)


def test_method_wrapper_names_the_layer_from_the_instance(clock):
    class Job:
        def __init__(self, name):
            self.name = name

        def run(self):
            clock[0] += 1.0

    recorder = layers.Recorder()
    recorder.wrap_method(Job, "run", lambda args: f"job.{args[0].name}")
    Job("a").run()
    Job("b").run()
    Job("b").run()
    assert recorder.calls("job.a") == 1 and recorder.calls("job.b") == 2
    assert recorder.self_seconds("job.") == pytest.approx(3.0)


def test_after_hook_sees_the_parent_span(clock):
    module = types.ModuleType("fake_layer_module")
    module.leaf = lambda: None
    module.root = lambda: module.leaf()
    recorder = layers.Recorder()
    parents = []
    recorder.wrap_function(module, "leaf", "leaf",
                           after=lambda args, result: parents.append(
                               recorder.parent_layer()))
    recorder.wrap_function(module, "root", "root")
    module.root()
    module.leaf()
    assert parents == ["root", None]


def test_worker_files_are_absorbed(tmp_path, clock):
    worker = layers.Recorder()
    worker.count("ops", 5)
    worker.maximum("depth", 7)
    module = types.ModuleType("fake_layer_module")
    module.work = lambda: clock.__setitem__(0, clock[0] + 2.0)
    worker.wrap_function(module, "work", "flush")
    module.work()
    worker.dump(tmp_path / "layers-1.json")

    parent = layers.Recorder()
    parent.count("ops", 1)
    parent.absorb(tmp_path)
    assert parent.counters["ops"] == 6
    assert parent.maxima["depth"] == 7
    assert parent.total_seconds("flush") == pytest.approx(2.0)
    assert not list(tmp_path.glob("layers-*.json"))
