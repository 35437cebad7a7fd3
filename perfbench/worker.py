"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per run because repeats inside one
process drift (allocator and cache state carry over).  It prints one
JSON object as its last line of output::

    python3 perfbench/worker.py --workload orset-grow --seed 1 \
        --scale 1.0 [--trace]

Without ``--trace`` only ``HambandCluster.build`` is wrapped (to time
set-up).  With ``--gauge`` the host-speed gauge (``gauge.py``) times a
slice of fixed work every quarter second outside the builds and one
right before and after each build; the slices are taken out of the
drive wall time, their mean is reported as ``gauge_s``, and the mean of
the two around each build as ``setup_gauge_s``.  With ``--trace``
every boundary of ``spans.layer_boundaries`` is wrapped too, the
per-layer figures are computed from the spans, and the spans are
written to ``perfbench/out/<workload>.spans.jsonl``.
With ``--setup-only`` the workload stops as soon as its first cluster
build returns, so the run times one cold build and nothing else.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import resource
import sys
import time
from typing import Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gauge import HostGauge  # noqa: E402
from spans import DRIVE, SETUP, Tracer, layer_boundaries  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.runtime import HambandCluster  # noqa: E402


class BuildDone(Exception):
    """Ends a ``--setup-only`` run once its first build has returned."""


class SetupTimer:
    """Times every ``HambandCluster.build`` and marks its spans as
    set-up work.  With a ``gauge`` it pauses the gauge during the build
    and times one slice right before and one right after it.  With
    ``stop_after_build`` it raises :class:`BuildDone` after the first
    build instead of returning."""

    def __init__(self, tracer: Tracer, gauge: Optional[HostGauge],
                 stop_after_build: bool = False):
        self.tracer = tracer
        self.gauge = gauge
        self.stop_after_build = stop_after_build
        self.seconds: list[float] = []
        #: Mean of the two slices around each build.
        self.gauge_s: list[float] = []
        self._original = HambandCluster.__dict__["build"]

    def install(self) -> "SetupTimer":
        build = self._original.__func__
        timer = self

        @functools.wraps(build)
        def timed(cls, *args, **kwargs):
            gauge = timer.gauge
            if gauge is not None:
                gauge.paused = True
                before = gauge.sample()
            timer.tracer.window = SETUP
            start = time.perf_counter()
            try:
                cluster = build(cls, *args, **kwargs)
            finally:
                timer.seconds.append(time.perf_counter() - start)
                timer.tracer.window = DRIVE
                if gauge is not None:
                    timer.gauge_s.append((before + gauge.sample()) / 2)
                    gauge.paused = False
            if timer.stop_after_build:
                raise BuildDone
            return cluster

        HambandCluster.build = classmethod(timed)
        return self

    def remove(self) -> None:
        HambandCluster.build = self._original


def per_op(ns: float, calls: int) -> float:
    return ns / 1000.0 / calls if calls else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, outcome, wall_ns: int,
                  setup_ns: int) -> dict:
    """Per-layer figures of a traced run, plus the accounting check."""
    calls, updates = outcome.calls, outcome.updates
    counts = outcome.counts
    drive = tracer.layer_totals(DRIVE)
    drive_spans = dict(zip(tracer.names, tracer.span_counts(DRIVE)))
    everything = tracer.layer_totals()
    drive_wall = wall_ns - setup_ns
    residual_drive = drive_wall - tracer.covered(DRIVE)
    residual = wall_ns - tracer.covered()
    peeks = tracer.count("RingReader.peek") + tracer.count(
        "RingReader.peek_run")
    peek_hits = tracer.stat("RingReader.peek") + tracer.stat(
        "RingReader.peek_run")
    encodes = tracer.stat("WireCodec.encode_call_packet") + tracer.stat(
        "WireCodec.encode_call_batch")
    metrics = {
        "datatypes.self_us_per_op": per_op(drive["datatypes"], calls),
        "datatypes.apply_calls_per_op": ratio(
            drive_spans["ObjectSpec.apply_call"], calls),
        "runtime.applier.self_us_per_op": per_op(
            drive["runtime.applier"], calls),
        "runtime.applier.permissibility_checks_per_update": ratio(
            drive_spans["ApplyEngine.invariant_with_summaries"]
            + drive_spans["ObjectSpec.permissible"], updates),
        "core.analysis.self_s": everything["core.analysis"] / 1e9,
        "core.analysis.calls": tracer.layer_calls("core.analysis"),
        "runtime.wire.self_us_per_op": per_op(drive["runtime.wire"], calls),
        "runtime.wire.bytes_per_call": ratio(encodes, calls),
        "runtime.ringbuffer.self_us_per_op": per_op(
            drive["runtime.ringbuffer"], calls),
        "runtime.ringbuffer.peek_hit_ratio": ratio(peek_hits, peeks),
        "runtime.ringbuffer.backpressure_stalls": counts[
            "ring.backpressure_stalls"],
        "rdma.self_us_per_op": per_op(drive["rdma"], calls),
        "rdma.one_sided_per_update": ratio(counts["rdma.one_sided"], updates),
        "rdma.two_sided_per_update": ratio(counts["rdma.two_sided"], updates),
        "rdma.bytes_per_update": ratio(counts["rdma.bytes"], updates),
        "runtime.conflict.ops_per_batch": ratio(
            counts["conflict.decided"], counts["conflict.batches"]),
        "runtime.conflict.retries": counts["conflict.retries"],
        "runtime.conflict.redirects_per_update": ratio(
            counts["conflict.redirects"], updates),
        "runtime.trace.self_us_per_op": per_op(drive["runtime.trace"], calls),
        "runtime.trace.events_per_op": ratio(
            tracer.layer_calls("runtime.trace"), calls),
        "runtime.trace.dropped": counts.get("trace.dropped", 0),
        "runtime.checker.self_us_per_op": per_op(
            drive["runtime.checker"], calls),
        "runtime.checker.peak_window": counts.get("checker.peak_window", 0),
        "workload.serving.self_us_per_op": per_op(
            drive["workload.serving"], calls),
        "workload.serving.admit_ratio": ratio(
            tracer.stat("SessionTier.admit"),
            tracer.count("SessionTier.admit")),
        "sim.engine.self_us_per_op": per_op(residual_drive, calls),
        "sim.engine.process_spawns_per_op": ratio(
            tracer.count("Environment.process"), calls),
    }
    # Layer self times plus the residual equal the wall by construction
    # (nested self times telescope to ``covered()``).  They mean what
    # they say only if the spans nest, which is what the gate checks.
    accounting = {
        "wall_ns": wall_ns,
        "residual_ns": residual,
        "min_self_ns": min(tracer.self_times(), default=0),
        "nesting_faults": tracer.nesting_faults(),
        "spans": len(tracer.span_name),
    }
    return {"layers": metrics, "accounting": accounting}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--gauge", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer()
    gauge = HostGauge() if args.gauge else None
    setup = SetupTimer(tracer, gauge,
                       stop_after_build=args.setup_only).install()
    if args.setup_only:
        try:
            WORKLOADS[args.workload](args.seed, args.scale)
        except BuildDone:
            pass
        finally:
            setup.remove()
        if len(setup.seconds) != 1:
            raise SystemExit(f"{args.workload} built no cluster")
        print(json.dumps({"setup_s": setup.seconds,
                          "setup_gauge_s": setup.gauge_s}))
        return 0
    if args.trace:
        tracer.install(layer_boundaries())
    if gauge is not None:
        gauge.install()
    try:
        start = time.perf_counter_ns()
        outcome = WORKLOADS[args.workload](args.seed, args.scale)
        wall_ns = time.perf_counter_ns() - start
    finally:
        if gauge is not None:
            gauge.remove()
        tracer.remove()
        setup.remove()
    setup_ns = int(sum(setup.seconds) * 1e9)
    slices = gauge.slices if gauge is not None else []
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": args.trace,
        "drive_wall_s": (wall_ns - setup_ns) / 1e9 - sum(slices),
        "setup_s": setup.seconds,
        "setup_gauge_s": setup.gauge_s,
        "gauge_s": sum(slices) / len(slices) if slices else None,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": outcome.calls,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "sim": outcome.sim,
        "info": outcome.info,
        "digest": outcome.digest(),
    }
    if args.trace:
        record.update(layer_metrics(tracer, outcome, wall_ns, setup_ns))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.export_jsonl(str(out / f"{args.workload}.spans.jsonl"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
