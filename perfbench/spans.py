"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead a :class:`Tracer` replaces
public functions of each layer's module with thin wrappers that record
one span per call: the boundary's name, start and end on the host
monotonic clock (ns), the enclosing wrapped call (its parent) and, when
an argument named ``call`` is a :class:`~repro.core.Call`, the request
id ``(origin, rid)``.  Spans stay in flat arrays in memory and are
written out as JSONL when the run ends.

A layer's *self* time is the time its spans cover minus the time their
direct children cover.  Everything that no wrapper covers -- the event
loop, process bodies, driver code and the generator-returning entry
points listed in ``README.md`` -- is the ``sim.engine`` residual.

Generator functions are refused: calling one only creates the
generator, so a wrapper would time nothing of its body.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from typing import Any, Callable, Iterable, NamedTuple, Optional

#: Span windows: work inside ``HambandCluster.build`` versus the rest.
DRIVE, SETUP = 0, 1


class Boundary(NamedTuple):
    """One wrapped public function of a layer.

    ``stat`` asks the wrapper for one extra count on each call:
    ``"hits"`` counts truthy results (non-empty peeks, admitted
    arrivals); ``"bytes"`` sums ``len`` of the result (encoded bytes).
    ``span=False`` only counts calls and records no span, so the time
    stays in the caller's span or the residual.
    """

    layer: str
    owner: type
    attr: str
    stat: Optional[str] = None
    span: bool = True

    @property
    def name(self) -> str:
        return f"{self.owner.__name__}.{self.attr}"


def layer_boundaries() -> list[Boundary]:
    """The layer map: every wrapped function, grouped by layer.

    Imported lazily so that this module loads without ``repro`` on the
    path (the harness tests use synthetic classes).
    """
    from repro.core.analysis import CoordinationAnalyzer
    from repro.core.spec import ObjectSpec
    from repro.rdma.memory import MemoryRegion
    from repro.rdma.verbs import QueuePair
    from repro.runtime.applier import ApplyEngine
    from repro.runtime.checker import TraceChecker
    from repro.runtime.ringbuffer import RingReader, RingWriter
    from repro.runtime.stream_checker import StreamingChecker
    from repro.runtime.trace import TracingProbe
    from repro.runtime.wire import WireCodec
    from repro.sim.engine import Environment
    from repro.workload.serving import SessionTier

    table = [
        ("datatypes", ObjectSpec, ("apply_call", "run_query", "permissible")),
        ("runtime.applier", ApplyEngine,
         ("invariant_with_summaries", "dep_ok", "apply_buffered",
          "make_call")),
        ("core.analysis", CoordinationAnalyzer, ("analyze",)),
        ("runtime.wire", WireCodec,
         ("encode_call_packet", "decode_call_packet",
          "encode_call_batch", "decode_call_batch")),
        ("runtime.ringbuffer", RingWriter, ("render", "build", "claim")),
        ("runtime.ringbuffer", RingReader, ("peek", "peek_run", "advance")),
        ("rdma", QueuePair,
         ("post_write", "post_read", "post_cas", "post_send")),
        ("rdma", MemoryRegion, ("read", "write")),
        ("runtime.trace", TracingProbe,
         ("span_begin", "span_end", "trace_apply", "trace_transfer")),
        ("runtime.checker", TraceChecker, ("check",)),
        ("runtime.checker", StreamingChecker, ("feed", "finish")),
        ("workload.serving", SessionTier, ("admit", "complete")),
    ]
    stats = {
        "encode_call_packet": "bytes", "encode_call_batch": "bytes",
        "peek": "hits", "peek_run": "hits", "admit": "hits",
    }
    boundaries = [
        Boundary(layer, owner, attr, stats.get(attr))
        for layer, owner, attrs in table
        for attr in attrs
    ]
    boundaries.append(
        Boundary("sim.engine", Environment, "process", span=False)
    )
    return boundaries


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.window = DRIVE
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.extra: list[int] = []
        # One row per span, column-wise (a few bytes per span).
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_req = array("i")
        self.span_window = array("b")
        self.requests: list[tuple[str, int]] = []
        self._request_ids: dict[tuple[str, int], int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[type, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        """A recording wrapper around ``fn`` (refuses generators)."""
        if inspect.isgeneratorfunction(fn) or inspect.isasyncgenfunction(fn):
            raise TypeError(
                f"{boundary.name} returns a generator; a wrapper would "
                f"time only its creation"
            )
        index = len(self.names)
        self.names.append(boundary.name)
        self.layers.append(boundary.layer)
        self.calls.append(0)
        self.extra.append(0)
        calls, extra = self.calls, self.extra
        if not boundary.span:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                calls[index] += 1
                return fn(*args, **kwargs)
            return counting

        call_pos = _call_position(fn)
        stat = boundary.stat
        clock = self.clock
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, reqs, windows = (
            self.span_parent, self.span_req, self.span_window
        )
        request_of = self._request_of

        @functools.wraps(fn)
        def recording(*args, **kwargs):
            calls[index] += 1
            span = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            reqs.append(
                request_of(args[call_pos])
                if call_pos is not None and len(args) > call_pos else -1
            )
            windows.append(self.window)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if stat == "hits":
                if result:
                    extra[index] += 1
            elif stat == "bytes":
                extra[index] += len(result)
            return result

        return recording

    def _request_of(self, call: Any) -> int:
        key = getattr(call, "key", None)
        if key is None:
            return -1
        key = key()
        request = self._request_ids.get(key)
        if request is None:
            request = self._request_ids[key] = len(self.requests)
            self.requests.append(key)
        return request

    def install(self, boundaries: Iterable[Boundary]) -> "Tracer":
        """Replace each boundary's function on its class by a wrapper."""
        try:
            for boundary in boundaries:
                original = boundary.owner.__dict__[boundary.attr]
                setattr(boundary.owner, boundary.attr,
                        self.wrap(boundary, original))
                self._installed.append(
                    (boundary.owner, boundary.attr, original)
                )
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        """Put every original function object back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- accounting ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time (ns): duration minus direct children's."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        own = [end - start for start, end in zip(starts, ends)]
        for span, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[span] - starts[span]
        return own

    def nesting_faults(self, limit: int = 5) -> list[str]:
        """Up to ``limit`` ways the spans fail to nest; empty if they do.

        A span must be closed and end no earlier than it starts; a child
        must come after its parent and lie within the parent's
        ``[start, end]``; top-level spans must not overlap.  Self times
        and the residual are meaningful only when all of this holds.
        """
        faults = []
        if self._stack:
            faults.append(f"{len(self._stack)} spans still open")
        starts, ends = self.span_start, self.span_end
        top_end = None
        for span, parent in enumerate(self.span_parent):
            if len(faults) >= limit:
                break
            start, end = starts[span], ends[span]
            if end < start:
                faults.append(f"span {span} ends before it starts")
            elif parent >= 0:
                if not (parent < span and starts[parent] <= start
                        and end <= ends[parent]):
                    faults.append(
                        f"span {span} lies outside its parent {parent}"
                    )
            else:
                if top_end is not None and start < top_end:
                    faults.append(
                        f"top-level span {span} overlaps the one before"
                    )
                top_end = end
        return faults

    def layer_totals(self, window: Optional[int] = None) -> dict[str, int]:
        """Self time (ns) per layer, optionally for one window only."""
        totals = {layer: 0 for layer in self.layers}
        names, windows, layers = self.span_name, self.span_window, self.layers
        for span, own in enumerate(self.self_times()):
            if window is None or windows[span] == window:
                totals[layers[names[span]]] += own
        return totals

    def covered(self, window: Optional[int] = None) -> int:
        """Time (ns) covered by top-level spans: the wrapped share."""
        return sum(
            end - start
            for start, end, parent, win in zip(
                self.span_start, self.span_end, self.span_parent,
                self.span_window,
            )
            if parent < 0 and (window is None or win == window)
        )

    def span_counts(self, window: Optional[int] = None) -> list[int]:
        """Spans per boundary, optionally for one window only."""
        counts = [0] * len(self.names)
        for name, win in zip(self.span_name, self.span_window):
            if window is None or win == window:
                counts[name] += 1
        return counts

    def layer_calls(self, layer: str) -> int:
        """Calls of every boundary of ``layer``, in every window."""
        return sum(
            count for count, owner in zip(self.calls, self.layers)
            if owner == layer
        )

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def stat(self, name: str) -> int:
        return self.extra[self.names.index(name)]

    def export_jsonl(self, path: str) -> int:
        """Write the spans as JSONL; returns the span count.

        The first line maps boundary indexes to names and layers; each
        later line is ``[id, boundary, start_ns, end_ns, parent, req,
        setup]`` with ``req`` an ``[origin, rid]`` pair or null.
        """
        with open(path, "w") as out:
            out.write(json.dumps({
                "columns": ["id", "boundary", "start_ns", "end_ns",
                            "parent", "req", "setup"],
                "boundaries": [
                    [name, layer] for name, layer in zip(self.names,
                                                         self.layers)
                ],
            }) + "\n")
            requests = self.requests
            for span, row in enumerate(zip(
                self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_req, self.span_window,
            )):
                name, start, end, parent, req, window = row
                out.write(json.dumps([
                    span, name, start, end, parent,
                    list(requests[req]) if req >= 0 else None,
                    window == SETUP,
                ]) + "\n")
        return len(self.span_name)


def _call_position(fn: Callable) -> Optional[int]:
    """Positional index of a parameter named ``call``, if any."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("call") if "call" in params else None
