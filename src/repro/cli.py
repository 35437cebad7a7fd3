"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — the bundled data types and workloads.
- ``analyze <datatype>`` — run the coordination analysis and print the
  paper's Figure-1-style summary: relations, synchronization groups,
  dependencies, and per-method categories.
- ``run <workload>`` — drive one experiment (system, node count, ops,
  update ratio configurable) and print the measured throughput and
  response times.  ``--stats`` prints per-node probe snapshots, the
  cluster rollup, and per-phase latency columns; ``--trace FILE``
  records a flight-recorder trace (Chrome ``trace_event`` JSON or
  JSONL); ``--check`` replays the trace through the offline
  integrity/convergence checker (exit code 2 on violations).
  ``--shards N`` builds a sharded topology and drives the cross-shard
  bank workload through the commutativity-driven txn coordinator
  (``--txn-mix`` sets the conflicting-transfer fraction); summaries,
  ``--stats`` and the checker then group per shard.
- ``serve <workload>`` — drive the open-loop serving tier: a large
  population of lightweight sessions (``--sessions``, array-backed so
  six-figure counts are fine) issues Poisson arrivals shaped by an
  arrival curve (``--curve steady|diurnal|burst|flash-crowd``) at an
  offered load (``--load``, ops/µs time-average).  Per-tenant
  admission control (``--tenants``, ``--max-outstanding-per-tenant``)
  sheds overload with accounting; ``--slo-p50/--slo-p99/--slo-p999``
  declare response-time targets whose attainment is reported (exit
  code 3 on an SLO miss).  ``--tenant-table`` prints the per-tenant
  admission rows; ``--live-check``/``--metrics-out``/``--check`` work
  as for ``run``.
- ``chaos <workload>`` — like ``run``, but with a deterministic fault
  plan armed against the cluster: ``--faults`` names a CI preset
  (crash-leader, partition-minority, lossy-10pct, delay-spike,
  restart-follower, corrupt-5pct, torn-writes, corrupt-crash) or a
  plan JSON file, while ``--seed N`` alone generates a
  randomized-but-reproducible plan.  The run reports injected-fault
  and corruption-repair counts next to the usual metrics;
  ``--ring-integrity off`` reverts to unchecksummed ring records (the
  negative control — corruption then reaches the applied state and
  ``--check`` fails); ``--scrub`` additionally runs the background
  scrubber over at-rest ring replicas.  ``--check`` gates the run with
  the trace checker (exit 2 on violations), which is how the CI chaos
  matrix decides pass/fail.  ``--shards N`` runs the sharded bank
  workload with the plan armed against shard 0 only (the victim
  shard); the ``shard-isolate`` preset partitions and crash-restarts
  inside that shard while commuting txns on healthy shards must keep
  committing.  The elastic-membership presets (``scale-out-partition``,
  ``scale-in-leader``) join/remove nodes mid-run through the
  authoritative state-transfer path; ``run --scale-out-at US`` does a
  plain scale-out without any other fault.

``run``, ``serve`` and ``chaos`` are thin front ends over the four
runner entry points in :mod:`repro.bench.runner`, which share one run
pipeline.  They declare the shared output, topology and
failure-detection flags once, and print through one report tail:
result row, injected faults, the command's own lines, txn counters,
per-method rows, ``--stats``, trace export, live verdict, metrics path
and ``--check`` verdict.  Exit codes: 1 for a configuration error, 2
for a checker violation, 3 for a missed SLO.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hamband (PLDI 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled data types and workloads")

    analyze = sub.add_parser(
        "analyze", help="coordination analysis for a bundled data type"
    )
    analyze.add_argument("datatype")
    analyze.add_argument("--seed", type=int, default=0)

    explore = sub.add_parser(
        "explore",
        help="bounded exhaustive model-check of a data type's semantics",
    )
    explore.add_argument("datatype")
    explore.add_argument("--requests", type=int, default=4)
    explore.add_argument("--procs", type=int, default=2)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--max-states", type=int, default=200_000)

    run = sub.add_parser("run", help="drive one experiment")
    _add_experiment_args(run, systems=("hamband", "mu", "msg"))
    run.add_argument("--ops", type=int, default=1200)
    run.add_argument("--seed", type=int, default=1)
    _add_topology_args(run)
    run.add_argument(
        "--fail-node", default=None, help="suspend this node's heartbeat"
    )
    run.add_argument(
        "--scale-out-at",
        type=float,
        default=None,
        metavar="US",
        help="elastic scale-out: join a fresh node (p<nodes+1>) into "
        "the running cluster at this sim time; the joiner bulk-reads "
        "committed state from authoritative copies and must converge "
        "(hamband/mu only; implies tracing)",
    )
    _add_output_args(run)

    serve = sub.add_parser(
        "serve",
        help="drive the open-loop serving tier (sessions, arrival "
        "curves, admission control, SLO attainment)",
    )
    _add_experiment_args(serve, systems=("hamband", "mu"))
    serve.add_argument(
        "--load",
        type=float,
        default=1.0,
        help="aggregate offered load in ops per sim microsecond "
        "(the time average; the curve shapes the instantaneous rate)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=2000.0,
        help="arrival window in sim microseconds",
    )
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument(
        "--curve",
        choices=("steady", "diurnal", "burst", "flash-crowd"),
        default="steady",
        help="arrival-rate shape over the run (all have unit mean)",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=0,
        help="simulated client sessions (array rows, not processes; "
        "0 = 64 per node)",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=1,
        help="session groups sharing an admission budget",
    )
    serve.add_argument(
        "--max-outstanding-per-tenant",
        type=int,
        default=0,
        help="admission bound per tenant (0 splits the cluster-wide "
        "budget evenly)",
    )
    serve.add_argument(
        "--max-outstanding-per-node",
        type=int,
        default=64,
        help="cluster-wide budget: nodes x this bounds total in-flight",
    )
    serve.add_argument(
        "--slo-p50", type=float, default=None, metavar="US",
        help="declared p50 response-time target in microseconds",
    )
    serve.add_argument(
        "--slo-p99", type=float, default=None, metavar="US",
        help="declared p99 response-time target in microseconds",
    )
    serve.add_argument(
        "--slo-p999", type=float, default=None, metavar="US",
        help="declared p999 response-time target in microseconds",
    )
    serve.add_argument(
        "--tenant-table",
        action="store_true",
        help="print per-tenant admission accounting after the run",
    )
    _add_fd_mode_arg(serve)
    serve.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="arm a fault plan under the serving run: a named preset "
        "(e.g. gray-leader, flaky-link) or a plan JSON file — "
        "'--faults gray-leader --fd-mode phi' is the gray-failure "
        "SLO repro (compare --fd-mode fixed on the same seed)",
    )
    serve.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="fault-plan horizon in sim microseconds (with --faults; "
        "defaults to --duration)",
    )
    _add_output_args(serve)

    chaos = sub.add_parser(
        "chaos",
        help="drive one experiment under a deterministic fault plan",
    )
    _add_experiment_args(chaos, systems=("hamband", "mu"))
    chaos.add_argument("--ops", type=int, default=600)
    chaos.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed AND (without --faults) the fault-plan seed",
    )
    _add_topology_args(chaos)
    chaos.add_argument(
        "--faults",
        metavar="PLAN",
        default=None,
        help="a named CI plan (crash-leader, partition-minority, "
        "lossy-10pct, delay-spike, restart-follower, corrupt-5pct, "
        "torn-writes, corrupt-crash; shard-isolate with --shards; "
        "membership: scale-out-partition, scale-in-leader; "
        "gray failures: gray-leader, flaky-link) or "
        "a plan JSON file; omit to derive a plan from --seed",
    )
    _add_fd_mode_arg(chaos)
    chaos.add_argument(
        "--horizon",
        type=float,
        default=1000.0,
        help="fault-plan horizon in sim microseconds (preset/seeded "
        "plans place their faults as fractions of this)",
    )
    chaos.add_argument(
        "--save-plan",
        metavar="FILE",
        default=None,
        help="write the resolved plan as canonical JSON (replayable "
        "via --faults FILE)",
    )
    chaos.add_argument(
        "--ring-integrity",
        choices=("on", "off"),
        default="on",
        help="checksummed ring records (CRC trailer): 'off' reverts to "
        "the legacy layout — the negative control for corruption plans "
        "(expect --check to fail under corrupt/torn faults)",
    )
    chaos.add_argument(
        "--scrub",
        action="store_true",
        help="run the background scrubber: each node re-verifies its "
        "at-rest ring replicas against authoritative copies and repairs "
        "divergence (see also --scrub-interval-us)",
    )
    chaos.add_argument(
        "--scrub-interval-us",
        type=float,
        default=50.0,
        help="scrub tick in sim microseconds (with --scrub; default 50)",
    )
    _add_output_args(chaos)
    return parser


def _add_experiment_args(sub: argparse.ArgumentParser,
                         systems: tuple[str, ...]) -> None:
    sub.add_argument("workload")
    sub.add_argument("--system", choices=systems, default="hamband")
    sub.add_argument("--nodes", type=int, default=4)
    sub.add_argument("--update-ratio", type=float, default=0.25)


def _add_topology_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--shards",
        type=int,
        default=1,
        help="build a sharded topology of N independent shards and "
        "drive the cross-shard bank workload through the txn "
        "coordinator (hamband only; the workload name 'sharded-bank' "
        "implies --shards 1 as the scaling baseline); chaos plans are "
        "armed against shard 0 only (the victim shard), so e.g. "
        "'--faults shard-isolate' proves isolated-shard faults do not "
        "stall commuting txns on the healthy shards",
    )
    sub.add_argument(
        "--txn-mix",
        type=float,
        default=0.0,
        help="sharded runs: fraction of conflicting transfer txns "
        "(the rest are all-commuting payroll deposits)",
    )
    sub.add_argument(
        "--txn-lock-path",
        choices=("on", "off"),
        default="on",
        help="sharded runs: 'off' routes conflicting txns down the "
        "uncoordinated path — the negative control (expect --check's "
        "cross-shard atomicity obligation to fail)",
    )
    sub.add_argument(
        "--wire-version",
        type=int,
        choices=(1, 2),
        default=2,
        help="data-plane wire format: 2 (interned/varint, default) or "
        "1 (legacy tagged)",
    )


def _add_fd_mode_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--fd-mode",
        choices=("fixed", "phi"),
        default="fixed",
        help="failure detection: 'fixed' (byte-stable stale-count "
        "suspicion, default) or 'phi' (phi-accrual + latency-EWMA "
        "degraded classification, hedged reads, jittered retries, "
        "slow-leader demotion — the gray-failure toolkit)",
    )


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--per-method", action="store_true")
    sub.add_argument(
        "--stats",
        action="store_true",
        help="print per-node probe snapshots, the cluster rollup, and "
        "per-phase latencies after the run",
    )
    sub.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record a flight-recorder trace and export it: *.jsonl "
        "gets JSON lines, anything else the Chrome trace_event format "
        "(open in chrome://tracing or ui.perfetto.dev; chaos runs add "
        "FAULT markers)",
    )
    sub.add_argument(
        "--trace-capacity",
        type=int,
        default=1 << 20,
        help="per-node trace ring-buffer capacity (events)",
    )
    sub.add_argument(
        "--check",
        action="store_true",
        help="replay the recorded trace through the offline "
        "integrity/convergence checker; exit 2 on violations",
    )
    sub.add_argument(
        "--live-check",
        action="store_true",
        help="verify the run WHILE it executes: a streaming checker "
        "taps the probes and checks integrity/order/convergence with "
        "bounded memory (works with a small --trace-capacity); exit 2 "
        "on violations",
    )
    sub.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="emit a live JSONL metrics stream: periodic samples of "
        "probe counters, per-phase latencies (p50..p999), and checker "
        "progress",
    )
    sub.add_argument(
        "--metrics-interval-us",
        type=float,
        default=200.0,
        help="metrics sampling interval in sim microseconds "
        "(default 200)",
    )


def _cmd_list() -> int:
    from .datatypes import SPEC_FACTORIES
    from .workload import GENERATOR_NAMES

    print("data types:")
    for name in sorted(SPEC_FACTORIES):
        print(f"  {name}")
    print("orset (via repro.datatypes.orset_spec)")
    print("\nworkload generators:")
    for name in GENERATOR_NAMES:
        print(f"  {name}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .core import Coordination
    from .datatypes import SPEC_FACTORIES
    from .datatypes.orset import orset_spec

    factories = dict(SPEC_FACTORIES)
    factories["orset"] = orset_spec
    factory = factories.get(args.datatype)
    if factory is None:
        print(f"unknown data type {args.datatype!r}; try `repro list`")
        return 1
    spec = factory()
    coordination = Coordination.analyze(spec, seed=args.seed)
    print(f"object: {spec.name}")
    print(f"updates: {', '.join(spec.update_names())}")
    print(f"queries: {', '.join(spec.query_names())}")
    print("\nconflicts:")
    pairs = sorted(
        tuple(sorted(pair)) for pair in coordination.relations.conflicts
    )
    if pairs:
        for pair in pairs:
            left, right = pair[0], pair[-1]
            print(f"  {left} >< {right}")
    else:
        print("  (none)")
    print("\nsynchronization groups:")
    groups = coordination.sync_groups()
    if groups:
        for group in groups:
            print(f"  {group.gid}: {{{', '.join(sorted(group.methods))}}}")
    else:
        print("  (none)")
    print("\ndependencies:")
    any_dep = False
    for method in spec.update_names():
        deps = coordination.dep(method)
        if deps:
            any_dep = True
            print(f"  Dep({method}) = {{{', '.join(sorted(deps))}}}")
    if not any_dep:
        print("  (none)")
    print("\ncategories:")
    for method in spec.update_names():
        print(f"  {method:20s} {coordination.category(method).value}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    import random

    from .core import Coordination
    from .core.explore import Request, explore
    from .datatypes import SPEC_FACTORIES
    from .datatypes.orset import orset_spec

    factories = dict(SPEC_FACTORIES)
    factories["orset"] = orset_spec
    factory = factories.get(args.datatype)
    if factory is None:
        print(f"unknown data type {args.datatype!r}; try `repro list`")
        return 1
    spec = factory()
    coordination = Coordination.analyze(spec)
    rng = random.Random(args.seed)
    processes = [f"p{i}" for i in range(1, args.procs + 1)]
    requests = []
    for i in range(args.requests):
        method = rng.choice(spec.update_names())
        arg = spec.sample_args(method, rng, 1)[0]
        requests.append(Request(rng.choice(processes), method, arg))
    print(f"exploring {len(requests)} requests over {len(processes)} "
          f"processes:")
    for request in requests:
        print(f"  {request.process}: {request.method}({request.arg!r})")
    result = explore(
        coordination, processes, requests, max_states=args.max_states
    )
    print(
        f"\nstates={result.states_explored} traces={result.traces_completed} "
        f"max_depth={result.max_depth}"
    )
    if result.ok:
        print("no violation: every interleaving refines, preserves "
              "integrity, and converges")
        return 0
    print(f"VIOLATION: {result.violation}")
    return 2


def _print_stats(cluster, recorder) -> None:
    """Probe snapshots + rollups; sharded runs group output by shard."""
    import json

    from .bench import phase_latency_table

    print(json.dumps(cluster.stats(), indent=2, default=str))
    by_shard = getattr(recorder, "phase_histograms_by_shard", None)
    if by_shard is not None:
        for label in sorted(by_shard()):
            print(phase_latency_table(
                f"{label}: per-phase latency (trace spans)",
                by_shard()[label],
            ))
    else:
        print(phase_latency_table(
            "per-phase latency (trace spans)",
            recorder.phase_histograms(),
        ))


def _live_progress(enabled: bool):
    """A terminal status-line callback (stderr, TTY only) plus its
    end-of-run cleanup."""
    import sys

    if not enabled or not sys.stderr.isatty():
        return None, (lambda: None)

    def progress(line: str) -> None:
        print(f"\r\x1b[2K{line}", end="", file=sys.stderr, flush=True)

    def done() -> None:
        print(file=sys.stderr)

    return progress, done


def _print_live(run) -> bool:
    """Print the streaming verdict + metrics summary; True when OK."""
    ok = True
    if run.stream_report is not None:
        print(run.stream_report.summary())
        stats = run.stream_checker.stats()
        print(
            f"stream: {stats['events']} events, "
            f"peak window {stats['peak_window']} call(s), "
            f"peak retained {stats['peak_retained_events']} event(s), "
            f"verified through seq {stats['verified_seq']}"
        )
        ok = run.stream_report.ok
    if run.emitter is not None and run.emitter.samples:
        print(f"metrics: {run.emitter.samples} sample(s)")
    return ok


def _print_txn_counters(coordinator) -> None:
    if coordinator is None:
        return
    c = coordinator.counters
    print(
        f"txns: commuting={c['txns_commuting']} "
        f"locked={c['txns_locked']} commits={c['commits']} "
        f"aborts={c['aborts']} lock_waits={c['lock_waits']} "
        f"rejected_calls={c['rejected_calls']}"
    )


def _launch(args: argparse.Namespace, entry, *positional,
            details=None, **extra) -> int:
    """Call a traced runner with the shared instrument flags, then
    print the shared report."""
    progress, progress_done = _live_progress(
        args.live_check or args.metrics_out is not None
    )
    try:
        run = entry(
            *positional, capacity=args.trace_capacity,
            live_check=args.live_check, metrics_out=args.metrics_out,
            metrics_interval_us=args.metrics_interval_us,
            progress=progress, **extra,
        )
    finally:
        progress_done()
    return _report(args, run.result, run, details)


def _report(args: argparse.Namespace, result, run=None,
            details=None) -> int:
    """The output tail of run/serve/chaos.  ``run`` is None for an
    untraced run; ``details(run)`` prints the command's own lines.
    Returns the exit code: 2 on a checker violation, 3 on an SLO miss.
    """
    if result is not None:
        print(result.summary_row())
    else:
        print(f"{args.system:10s} {args.workload:14s} n={args.nodes} "
              "did not quiesce before the driver timeout")
    if run is not None and run.injector is not None:
        counts = run.injector.counts()
        injected = ", ".join(
            f"{kind}={counts[kind]}" for kind in sorted(counts)
        ) or "none"
        fd_mode = getattr(args, "fd_mode", None)
        print(f"plan: {run.plan.name} seed={run.plan.seed} "
              f"horizon={run.plan.horizon_us():.0f}us"
              + (f" fd={fd_mode}" if fd_mode else ""))
        print(f"faults injected: {injected}")
    if details is not None:
        details(run)
    if run is not None:
        _print_txn_counters(run.coordinator)
    if args.per_method and result is not None:
        for method in sorted(result.per_method):
            series = result.per_method[method]
            print(
                f"  {method:20s} mean={series.mean:8.3f}us "
                f"p95={series.p95:8.3f}us p99={series.p99:8.3f}us "
                f"p999={series.p999:8.3f}us n={series.count}"
            )
    if args.stats:
        _print_stats(run.cluster, run.recorder)
    if args.trace is not None:
        if args.trace.endswith(".jsonl"):
            count = run.recorder.export_jsonl(args.trace)
        else:
            count = run.recorder.export_chrome(args.trace)
        dropped = run.recorder.dropped()
        print(f"trace: {count} events -> {args.trace}"
              + (f" ({dropped} dropped)" if dropped else ""))
    live_ok = run is None or _print_live(run)
    if args.metrics_out is not None:
        print(f"metrics -> {args.metrics_out}")
    if args.check:
        report = run.check()
        print(report.summary())
        if not report.ok:
            return 2
    if not live_ok:
        return 2
    if result is not None and result.slo is not None and not result.slo.ok:
        return 3
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .bench import ExperimentConfig, run_chaos, run_experiment, run_traced

    config = ExperimentConfig(
        system=args.system,
        workload=args.workload,
        n_nodes=args.nodes,
        total_ops=args.ops,
        update_ratio=args.update_ratio,
        seed=args.seed,
        fail_node=args.fail_node,
        wire_version=args.wire_version,
        n_shards=args.shards,
        txn_mix=args.txn_mix,
        txn_lock_path=args.txn_lock_path == "on",
    )
    if args.scale_out_at is not None:
        # A scale-out is a one-action membership plan driven by the
        # chaos harness (it already knows how to run past the event
        # and wait for the joiner to reach parity).
        from .sim import FaultAction, FaultPlan

        plan = FaultPlan(
            seed=args.seed,
            name="scale-out",
            actions=(FaultAction(
                at_us=args.scale_out_at,
                kind="join",
                target=f"node:p{args.nodes + 1}",
            ),),
        )

        def scale_out(run) -> None:
            # Sharded runs arm the plan against shard 0 (the scaled
            # shard).
            scaled = getattr(run.cluster, "shards", [run.cluster])[0]
            joined = sorted(set(scaled.node_names()) - set(scaled.founding))
            print(f"scale-out: joined {', '.join(joined) or '(none)'} "
                  f"at {args.scale_out_at:.0f}us, "
                  f"epoch v{scaled.epoch.version}")

        return _launch(args, run_chaos, config, plan, details=scale_out)
    if (args.stats or args.trace is not None or args.check
            or args.live_check or args.metrics_out is not None):
        return _launch(args, run_traced, config)
    return _report(args, run_experiment(config))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .bench import ExperimentConfig, run_serving, tenant_table
    from .workload import OpenLoopConfig, SloTarget

    slo = None
    if (args.slo_p50, args.slo_p99, args.slo_p999) != (None, None, None):
        slo = SloTarget(
            p50_us=args.slo_p50, p99_us=args.slo_p99,
            p999_us=args.slo_p999,
        )
    plan = None
    if args.faults is not None:
        from .sim import resolve_plan

        horizon = (
            args.horizon if args.horizon is not None else args.duration
        )
        plan = resolve_plan(
            args.faults, args.seed, args.nodes, horizon_us=horizon
        )
    config = ExperimentConfig(
        system=args.system,
        workload=args.workload,
        n_nodes=args.nodes,
        update_ratio=args.update_ratio,
        seed=args.seed,
        fd_mode=args.fd_mode,
    )
    loop = OpenLoopConfig(
        workload=args.workload,
        offered_load_ops_per_us=args.load,
        duration_us=args.duration,
        update_ratio=args.update_ratio,
        seed=args.seed,
        max_outstanding_per_node=args.max_outstanding_per_node,
        n_sessions=args.sessions,
        n_tenants=args.tenants,
        arrival_curve=args.curve,
        max_outstanding_per_tenant=args.max_outstanding_per_tenant,
        slo=slo,
    )

    def serving(run) -> None:
        result = run.result
        tier_stats = run.tier.stats()
        print(
            f"sessions: {tier_stats['active_sessions']}/"
            f"{tier_stats['sessions']} active over "
            f"{tier_stats['tenants']} tenant(s), curve={args.curve}  "
            f"admitted={tier_stats['admitted']} "
            f"dropped={tier_stats['dropped']}"
        )
        print(
            f"latency: p50={result.latency.p50:.1f}us "
            f"p99={result.latency.p99:.1f}us "
            f"p999={result.latency.p999:.1f}us"
        )
        if result.slo is not None:
            print(result.slo.summary())
        if args.tenant_table:
            print(tenant_table("per-tenant admission", run.tier))

    return _launch(args, run_serving, config, loop, details=serving,
                   plan=plan)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .bench import ExperimentConfig, run_chaos
    from .sim import resolve_plan

    plan = resolve_plan(
        args.faults, args.seed, args.nodes, horizon_us=args.horizon
    )
    if args.save_plan is not None:
        plan.save(args.save_plan)
        print(f"plan: {plan.name} ({len(plan.actions)} actions) "
              f"-> {args.save_plan}")
    config = ExperimentConfig(
        system=args.system,
        workload=args.workload,
        n_nodes=args.nodes,
        total_ops=args.ops,
        update_ratio=args.update_ratio,
        seed=args.seed if args.seed is not None else 1,
        wire_version=args.wire_version,
        ring_integrity=args.ring_integrity == "on",
        scrub_interval_us=args.scrub_interval_us if args.scrub else 0.0,
        n_shards=args.shards,
        txn_mix=args.txn_mix,
        txn_lock_path=args.txn_lock_path == "on",
        fd_mode=args.fd_mode,
    )

    def recovery(run) -> None:
        stats = run.cluster.stats()
        # Sharded topologies roll up under "global"; single clusters
        # under "cluster".
        probe = (stats.get("cluster") or stats["global"])["probe"]

        def _total(key: str) -> int:
            return sum((probe.get(key) or {}).values())

        print(
            f"corruption: crc_rejects={_total('crc_rejects')} "
            f"torn={_total('torn_detected')} "
            f"repairs={_total('slot_repairs')} "
            f"wire_rejects={_total('wire_rejects')} "
            f"scrub_passes={_total('scrub_passes')}"
        )
        if args.fd_mode == "phi":
            print(
                f"gray: degraded={_total('peer_degraded')} "
                f"phi_suspects={_total('fd_phi_suspects')} "
                f"hedged={_total('hedged_reads')}/{_total('hedge_wins')} "
                f"retries={_total('op_retries')} "
                f"budget_exhausted={_total('retry_budget_exhausted')}"
            )
        print(f"settled: {'yes' if run.settled else 'NO'}")

    return _launch(args, run_chaos, config, plan, details=recovery)


_RUN_COMMANDS = {"run": _cmd_run, "serve": _cmd_serve, "chaos": _cmd_chaos}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "explore":
        return _cmd_explore(args)
    # Configuration errors (plan, system, topology, workload, node
    # name) raise ValueError before the run starts.
    try:
        return _RUN_COMMANDS[args.command](args)
    except ValueError as exc:
        print(exc)
        return 1
