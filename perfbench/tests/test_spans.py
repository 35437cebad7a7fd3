"""Tests of the benchmark's span harness (``perfbench/spans.py``).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import inspect
import json

import pytest
from spans import DRIVE, SETUP, Boundary, Tracer, layer_boundaries


class Clock:
    """A clock that moves only when the code under test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class Inner:
    def __init__(self, clock):
        self.clock = clock

    def work(self, cost):
        self.clock.now += cost
        return cost


class Outer:
    def __init__(self, clock, inner):
        self.clock = clock
        self.inner = inner

    def run(self):
        self.clock.now += 1
        self.inner.work(10)
        self.clock.now += 2
        self.inner.work(7)
        self.clock.now += 3

    def fail(self):
        self.clock.now += 4
        raise RuntimeError("boom")


class Request:
    def __init__(self, origin, rid):
        self.origin, self.rid = origin, rid

    def key(self):
        return (self.origin, self.rid)


class Handler:
    def handle(self, call, size):
        return bytes(size)


def boundaries():
    return [
        Boundary("outer", Outer, "run"),
        Boundary("outer", Outer, "fail"),
        Boundary("inner", Inner, "work"),
    ]


def test_self_time_subtracts_direct_children():
    clock = Clock()
    tracer = Tracer(clock).install(boundaries())
    try:
        Outer(clock, Inner(clock)).run()
        clock.now += 100  # unwrapped work: the residual
    finally:
        tracer.remove()
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert tracer.self_times() == [6, 10, 7]
    assert tracer.layer_totals() == {"outer": 6, "inner": 17}
    assert tracer.covered() == 23
    wall = clock.now
    residual = wall - tracer.covered()
    assert residual == 100
    assert sum(tracer.layer_totals().values()) + residual == wall


def test_nested_three_levels_and_windows():
    clock = Clock()
    tracer = Tracer(clock).install(boundaries())
    try:
        inner = Inner(clock)
        tracer.window = SETUP
        inner.work(5)
        tracer.window = DRIVE
        Outer(clock, inner).run()
    finally:
        tracer.remove()
    assert tracer.layer_totals(SETUP) == {"outer": 0, "inner": 5}
    assert tracer.layer_totals(DRIVE) == {"outer": 6, "inner": 17}
    assert tracer.span_counts(DRIVE) == [1, 0, 2]
    assert tracer.covered(DRIVE) == 23


def test_exception_closes_span_and_unwinds_stack():
    clock = Clock()
    tracer = Tracer(clock).install(boundaries())
    try:
        with pytest.raises(RuntimeError):
            Outer(clock, Inner(clock)).fail()
        Inner(clock).work(2)
    finally:
        tracer.remove()
    assert tracer.self_times() == [4, 2]
    assert list(tracer.span_parent) == [-1, -1]


def test_remove_restores_original_function_objects():
    originals = {b.attr: b.owner.__dict__[b.attr] for b in boundaries()}
    tracer = Tracer().install(boundaries())
    for boundary in boundaries():
        assert boundary.owner.__dict__[boundary.attr] is not originals[
            boundary.attr]
    tracer.remove()
    for boundary in boundaries():
        assert boundary.owner.__dict__[boundary.attr] is originals[
            boundary.attr]


def test_wrap_refuses_generator_functions():
    class Producer:
        def items(self):
            yield 1

    original_run = Outer.__dict__["run"]
    tracer = Tracer()
    with pytest.raises(TypeError, match="generator"):
        tracer.install([Boundary("outer", Outer, "run"),
                        Boundary("gen", Producer, "items")])
    # A refused install leaves nothing half-wrapped.
    assert Outer.__dict__["run"] is original_run


def test_request_ids_and_stats_and_jsonl(tmp_path):
    tracer = Tracer().install([
        Boundary("wire", Handler, "handle", stat="bytes"),
    ])
    try:
        handler = Handler()
        handler.handle(Request("p1", 3), 5)
        handler.handle(Request("p2", 1), 2)
        handler.handle(Request("p1", 3), 1)
    finally:
        tracer.remove()
    assert tracer.requests == [("p1", 3), ("p2", 1)]
    assert list(tracer.span_req) == [0, 1, 0]
    assert tracer.stat("Handler.handle") == 8
    assert tracer.count("Handler.handle") == 3
    path = tmp_path / "spans.jsonl"
    assert tracer.export_jsonl(str(path)) == 3
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["boundaries"] == [["Handler.handle", "wire"]]
    assert [row[5] for row in lines[1:]] == [["p1", 3], ["p2", 1], ["p1", 3]]


def test_counting_boundary_records_no_span():
    tracer = Tracer().install([
        Boundary("inner", Inner, "work", span=False),
    ])
    try:
        Inner(Clock()).work(1)
    finally:
        tracer.remove()
    assert tracer.count("Inner.work") == 1
    assert len(tracer.span_name) == 0


def test_layer_map_names_existing_plain_functions():
    for boundary in layer_boundaries():
        function = boundary.owner.__dict__[boundary.attr]
        assert callable(function), boundary.name
        assert not inspect.isgeneratorfunction(function), boundary.name


def test_layer_map_wraps_and_restores_the_real_classes():
    boundaries = layer_boundaries()
    originals = [b.owner.__dict__[b.attr] for b in boundaries]
    tracer = Tracer().install(boundaries)
    tracer.remove()
    assert [b.owner.__dict__[b.attr] for b in boundaries] == originals


def test_nesting_faults_pass_on_real_nesting():
    clock = Clock()
    tracer = Tracer(clock).install(boundaries())
    try:
        Outer(clock, Inner(clock)).run()
        Inner(clock).work(3)
    finally:
        tracer.remove()
    assert tracer.nesting_faults() == []


@pytest.mark.parametrize("span, column, value, fault", [
    (1, "span_end", 30, "outside its parent"),
    (1, "span_start", 0, "outside its parent"),
    (0, "span_end", 0, "ends before it starts"),
    (3, "span_start", 15, "overlaps"),
])
def test_nesting_faults_catch_broken_spans(span, column, value, fault):
    clock = Clock()
    tracer = Tracer(clock).install(boundaries())
    try:
        clock.now = 1
        Outer(clock, Inner(clock)).run()
        Inner(clock).work(3)
    finally:
        tracer.remove()
    # Spans: 0 = run [1, 24], 1 and 2 = its works, 3 = work [24, 27].
    getattr(tracer, column)[span] = value
    faults = tracer.nesting_faults()
    assert faults and fault in faults[0]


def test_nesting_faults_report_open_spans():
    tracer = Tracer(Clock())
    tracer._stack.append(0)
    assert tracer.nesting_faults() == ["1 spans still open"]
