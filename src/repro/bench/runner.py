"""Experiment runner shared by every benchmark (one per paper figure).

Every run goes through one pipeline, :func:`_run`: validate the
system and topology, build the cluster (traced or not), attach the
flight recorder, arm an optional fault plan, instrument (live checker,
metrics emitter), drive traffic, optionally run past the plan horizon
and settle, then check for crashed workers and finish the checker.
Four entry points choose its parts:

- :func:`run_experiment` — an untraced closed-loop run;
- :func:`run_traced` — the same with the flight recorder installed;
- :func:`run_serving` — open-loop traffic through the session tier;
- :func:`run_chaos` — a traced run under a fault plan, then settled.

The systems are ``hamband``, ``mu`` (the SMR deployment) and ``msg``
(message-passing CRDTs, untraced only).  Repetition and averaging
mirror the paper's "repeat each experiment 3 times and report the
average".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..datatypes import SPEC_FACTORIES
from ..datatypes.orset import orset_spec
from ..msgpass import MsgCrdtCluster
from ..runtime import (
    HambandCluster,
    RuntimeConfig,
    ShardedCluster,
    ShardedRecorder,
    TraceRecorder,
    TxnCoordinator,
)
from ..sim import Environment, FaultInjector, FaultPlan
from ..smr import SmrCluster
from ..workload import (
    GENERATOR_NAMES,
    DriverConfig,
    OpenLoopConfig,
    RunResult,
    ShardedDriverConfig,
    run_open_loop,
    run_sharded_workload,
    run_workload,
)
from ..workload.openloop import build_tier

__all__ = [
    "ExperimentConfig",
    "TracedRun",
    "average_results",
    "run_chaos",
    "run_experiment",
    "run_serving",
    "run_traced",
]

SYSTEMS = ("hamband", "mu", "msg")


def _spec_factory(workload: str) -> Callable:
    if workload == "orset":
        return orset_spec
    return SPEC_FACTORIES[workload]


@dataclass
class ExperimentConfig:
    system: str  # hamband | mu | msg
    workload: str  # generator / spec name
    n_nodes: int = 4
    total_ops: int = 1200
    update_ratio: float = 0.25
    seed: int = 1
    #: Hamband-only: route reducible methods through F buffers (Fig. 9's
    #: GSet-with-buffers variant).
    force_buffered: bool = False
    #: Heartbeat-suspend this node partway through the run.
    fail_node: Optional[str] = None
    fail_at_fraction: float = 0.3
    #: Hamband-only: override leader placement (ablations).
    leaders: Optional[dict[str, str]] = None
    conf_retry_limit: int = 60
    #: Hamband-only ablation: full causal barrier instead of projected
    #: dependency arrays.
    full_dep_barrier: bool = False
    #: Data-plane wire format: 2 (interned/varint) or 1 (legacy tagged).
    wire_version: int = 2
    #: Checksummed (CRC-trailer) ring records.  Off reverts to the
    #: legacy layout — the negative control for corruption chaos runs.
    ring_integrity: bool = True
    #: Background scrubber tick; 0 (the default) disables the worker.
    scrub_interval_us: float = 0.0
    #: Sharded topology: >1 builds a :class:`ShardedCluster` of
    #: ``n_shards`` independent ``n_nodes``-node shards and drives the
    #: cross-shard bank workload (hamband-only; ``workload`` is ignored
    #: in favour of ``bankmap``).
    n_shards: int = 1
    #: Fraction of conflicting transfer txns in the sharded workload
    #: (the rest are all-commuting payroll deposits).
    txn_mix: float = 0.0
    #: Negative control: route conflicting txns down the uncoordinated
    #: path (expect the cross-shard atomicity check to fail).
    txn_lock_path: bool = True
    #: Failure-detection mode: ``"fixed"`` (byte-stable stale-count
    #: suspicion, the default) or ``"phi"`` (phi-accrual suspicion +
    #: latency-EWMA degraded classification, hedged reads, jittered
    #: retry backoff, and slow-leader demotion — the gray-failure
    #: toolkit).
    fd_mode: str = "fixed"


def _runtime_config(config: ExperimentConfig) -> RuntimeConfig:
    hamband = config.system == "hamband"
    return RuntimeConfig(
        # Hamband-only ablations: Mu runs the stock applier.
        force_buffered=hamband and config.force_buffered,
        conf_retry_limit=config.conf_retry_limit,
        full_dep_barrier=hamband and config.full_dep_barrier,
        wire_version=config.wire_version,
        ring_integrity=config.ring_integrity,
        scrub_interval_us=config.scrub_interval_us,
        seed=config.seed,
        fd_mode=config.fd_mode,
    )


def _is_sharded(config: ExperimentConfig) -> bool:
    # n_shards=1 with the sharded-bank workload still runs the sharded
    # driver over a one-shard topology: the apples-to-apples baseline
    # of the shard-count scaling benchmark.
    return config.n_shards > 1 or config.workload == "sharded-bank"


def _validate(config: ExperimentConfig, traced: bool,
              live_check: bool) -> None:
    if config.system not in SYSTEMS:
        raise ValueError(f"unknown system {config.system!r}")
    if traced and config.system == "msg":
        raise ValueError(
            f"system {config.system!r} has no probe seam to trace "
            "(use hamband or mu)"
        )
    if _is_sharded(config):
        if live_check:
            raise ValueError(
                "live checking does not support sharded topologies yet "
                "(use the offline ShardedTraceChecker)"
            )
        if config.system != "hamband":
            raise ValueError(
                f"sharded topologies run the hamband runtime only, "
                f"not {config.system!r}"
            )
        return
    if config.workload not in GENERATOR_NAMES:
        raise ValueError(
            f"unknown workload {config.workload!r}; try `repro list`"
        )
    nodes = [f"p{i}" for i in range(1, config.n_nodes + 1)]
    if config.fail_node is not None and config.fail_node not in nodes:
        raise ValueError(
            f"fail_node {config.fail_node!r} is not a node of this "
            f"cluster (p1..p{config.n_nodes})"
        )


def _build(env: Environment, config: ExperimentConfig, recorder):
    """The cluster, and the txn coordinator of a sharded ``bankmap``
    topology (None for single clusters)."""
    sharded = _is_sharded(config)
    if sharded:
        cluster = ShardedCluster.build(
            env,
            SPEC_FACTORIES["bankmap"](),
            n_shards=config.n_shards,
            n_nodes=config.n_nodes,
            config=_runtime_config(config),
            shard_probe_factory=(
                recorder.probe_factory_for if recorder is not None else None
            ),
            seed=config.seed,
        )
    else:
        spec = _spec_factory(config.workload)()
        probe_factory = (
            recorder.probe_factory if recorder is not None else None
        )
        if config.system == "hamband":
            cluster = HambandCluster.build(
                env, spec, n_nodes=config.n_nodes,
                config=_runtime_config(config), leaders=config.leaders,
                probe_factory=probe_factory,
            )
        elif config.system == "mu":
            cluster = SmrCluster.build_smr(
                env, spec, n_nodes=config.n_nodes,
                config=_runtime_config(config), probe_factory=probe_factory,
            )
        else:
            cluster = MsgCrdtCluster(env, spec, config.n_nodes)
    if recorder is not None:
        recorder.attach(cluster.coordination)
    if not sharded:
        return cluster, None
    return cluster, TxnCoordinator(
        cluster, recorder=recorder, lock_path_enabled=config.txn_lock_path,
    )


def _driver(config: ExperimentConfig) -> DriverConfig:
    return DriverConfig(
        workload=config.workload,
        total_ops=config.total_ops,
        update_ratio=config.update_ratio,
        seed=config.seed,
        system_label=config.system,
        fail_node=config.fail_node,
        fail_at_fraction=config.fail_at_fraction,
    )


def _sharded_driver(config: ExperimentConfig) -> ShardedDriverConfig:
    # total_ops budgets *constituent calls*; the stock txn shapes issue
    # two calls each, so the txn count halves it.
    return ShardedDriverConfig(
        total_txns=max(1, config.total_ops // 2),
        txn_mix=config.txn_mix,
        seed=config.seed,
        system_label=config.system,
    )


def _closed_loop(env: Environment, config: ExperimentConfig, cluster,
                 coordinator) -> RunResult:
    """The closed-loop drive step: per-node clients, or txn clients
    over a sharded topology."""
    if coordinator is None:
        return run_workload(env, cluster, _driver(config))
    return run_sharded_workload(
        env, cluster, coordinator, _sharded_driver(config)
    )


@dataclass
class TracedRun:
    """One run with its cluster and instruments still attached.

    Every traced entry point returns one; fields a run shape does not
    use stay None.  ``result`` is None when a settled (chaos) run failed
    to quiesce before the driver's timeout: the trace is still
    complete, so :meth:`check` remains the gate.
    """

    result: Optional[RunResult]
    cluster: object
    recorder: object
    #: The txn coordinator of a sharded run (None for single clusters).
    coordinator: object = None
    #: With ``live_check``: the in-run streaming checker and its
    #: verdict (a :class:`~repro.runtime.CheckReport`).
    stream_checker: object = None
    stream_report: object = None
    #: With ``metrics_out``/``progress``: the telemetry emitter
    #: (``emitter.samples`` counts the JSONL lines written).
    emitter: object = None
    #: Open-loop runs: the session tier (``tier.tenant_stats()`` breaks
    #: admission shedding down per tenant) and the effective loop config.
    tier: object = None
    loop: object = None
    #: With a fault plan: the armed injector and the plan.
    injector: object = None
    plan: object = None
    #: False when the post-horizon settle window expired before the
    #: cluster reached a stable converged state.
    settled: bool = True

    def check(self):
        """Run the offline integrity/convergence checker on the trace.

        Sharded runs get the per-shard obligations plus the cross-shard
        atomicity check (:class:`~repro.runtime.ShardedTraceChecker`).
        """
        from ..runtime import ShardedTraceChecker, TraceChecker

        if isinstance(self.recorder, ShardedRecorder):
            checker = ShardedTraceChecker(
                self.cluster.coordination,
                n_shards=self.cluster.n_shards,
            )
            return checker.check_recorder(self.recorder)
        checker = TraceChecker(
            self.cluster.coordination,
            processes=self.cluster.node_names(),
        )
        return checker.check(
            self.recorder.events(), dropped=self.recorder.dropped(),
            gaps=self.recorder.drop_gaps(),
        )


def _run(config: ExperimentConfig, drive=_closed_loop, *,
         traced: bool = True, capacity: int = 1 << 20,
         plan: Optional[FaultPlan] = None,
         settle_us: Optional[float] = None,
         live_check: bool = False, metrics_out=None,
         metrics_interval_us: float = 200.0, progress=None,
         label: Optional[str] = None) -> TracedRun:
    """The one run pipeline behind every entry point.

    build → ``recorder.attach`` → ``injector.arm`` → instrument →
    ``drive(env, config, cluster, coordinator)``.  Sharded topologies
    arm the plan against shard 0 only.  With ``settle_us`` the run
    also continues past the plan horizon and waits for a stable
    converged window; a quiesce timeout then does not raise either
    (the checker calls the verdict).  Crashed background workers
    always raise — those are bugs, not injected faults.
    """
    _validate(config, traced, live_check)
    env = Environment()
    recorder = None
    if traced:
        recorder = (
            ShardedRecorder(env, n_shards=config.n_shards, capacity=capacity)
            if _is_sharded(config) else TraceRecorder(env, capacity=capacity)
        )
    cluster, coordinator = _build(env, config, recorder)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan)
        injector.arm(cluster if coordinator is None else cluster.shard(0))
    checker = emitter = None
    if live_check:
        from ..runtime import StreamingChecker

        checker = StreamingChecker(
            cluster.coordination, processes=cluster.node_names()
        )
        recorder.stream_to(checker.feed)
    if metrics_out is not None or progress is not None:
        from ..runtime import MetricsEmitter

        emitter = MetricsEmitter(
            env, cluster=cluster, recorder=recorder, checker=checker,
            interval_us=metrics_interval_us, out=metrics_out,
            progress=progress, label=label or config.workload,
        ).start()
    result = None
    try:
        result = drive(env, config, cluster, coordinator)
    except TimeoutError:
        if settle_us is None:
            raise
    settled = True
    if settle_us is not None:
        # Run past the fault horizon so late restarts/heals fire even
        # when the workload finished early.
        if plan is not None and env.now < plan.horizon_us():
            env.run(until=plan.horizon_us())
        settled = bool(env.run(until=env.process(
            _settle(env, cluster, settle_us), name="chaos:settle"
        )))
    crashed = getattr(cluster, "failures", list)()
    if crashed:
        raise RuntimeError(f"background workers crashed: {crashed}")
    stream_report = checker.finish() if checker is not None else None
    if emitter is not None:
        emitter.close()
    return TracedRun(
        result=result, cluster=cluster, recorder=recorder,
        coordinator=coordinator, stream_checker=checker,
        stream_report=stream_report, emitter=emitter,
        injector=injector, plan=plan, settled=settled,
    )


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Drive the configured closed-loop workload; the paper's metrics."""
    return _run(config, traced=False).result


def run_traced(config: ExperimentConfig,
               capacity: int = 1 << 20,
               live_check: bool = False,
               metrics_out=None,
               metrics_interval_us: float = 200.0,
               progress=None) -> TracedRun:
    """Like :func:`run_experiment`, but with a flight recorder installed.

    Only the Hamband-runtime systems (``hamband``, ``mu``) expose the
    probe seam; the message-passing baseline has nothing to trace.
    ``capacity`` bounds the per-node event ring buffer — size it to the
    run for offline checking (the offline checker refuses truncated
    traces), or keep it small with ``live_check=True``: the streaming
    checker taps events as they are recorded, so its verdict covers the
    whole run even when the ring keeps only a suffix.

    ``metrics_out`` (a path or open file) turns on the periodic
    :class:`~repro.runtime.MetricsEmitter` sampling probe counters,
    phase latencies (p50..p999), and checker progress every
    ``metrics_interval_us`` of sim time; ``progress`` receives a
    one-line status per sample.
    """
    return _run(
        config, capacity=capacity, live_check=live_check,
        metrics_out=metrics_out, metrics_interval_us=metrics_interval_us,
        progress=progress,
    )


def run_serving(config: ExperimentConfig, loop: OpenLoopConfig,
                capacity: int = 1 << 20,
                live_check: bool = False,
                metrics_out=None,
                metrics_interval_us: float = 200.0,
                progress=None,
                plan: Optional[FaultPlan] = None) -> TracedRun:
    """Drive the open-loop serving tier over a traced cluster.

    ``config`` picks the system/topology (hamband or mu, single
    cluster); ``loop`` shapes the traffic — offered load, arrival
    curve, session/tenant population, admission caps, SLO target.
    The loop's workload/seed/label are overridden from ``config`` so
    one pair of flags can't drift apart.  ``plan`` optionally arms a
    :class:`FaultInjector` before traffic starts — the gray-failure
    SLO scenario: serve a flash crowd THROUGH a fail-slow window and
    let SLO attainment judge the mitigation stack.

    ``result.dropped_arrivals`` counts admission shedding;
    ``result.slo`` carries attainment when a target was declared.
    """
    if _is_sharded(config):
        raise ValueError(
            "the serving tier drives single clusters; sharded serving "
            "is future work"
        )
    loop = replace(
        loop,
        workload=config.workload,
        seed=config.seed,
        system_label=config.system,
    )
    tier = build_tier(loop, config.n_nodes)

    def open_loop(env, _config, cluster, _coordinator) -> RunResult:
        return run_open_loop(env, cluster, loop, tier=tier)

    run = _run(
        config, open_loop, capacity=capacity, plan=plan,
        live_check=live_check, metrics_out=metrics_out,
        metrics_interval_us=metrics_interval_us, progress=progress,
        label=f"serve:{config.workload}",
    )
    run.tier, run.loop = tier, loop
    return run


def run_chaos(config: ExperimentConfig, plan: FaultPlan,
              capacity: int = 1 << 20,
              settle_us: float = 200_000.0,
              live_check: bool = False,
              metrics_out=None,
              metrics_interval_us: float = 200.0,
              progress=None) -> TracedRun:
    """Drive a workload while a :class:`FaultInjector` executes ``plan``.

    Builds the traced cluster, arms the injector (scheduled faults fire
    by simulated time; window faults intercept RDMA verbs and messages),
    runs the workload, then runs past the plan's horizon and waits for a
    short stable-convergence window.  Neither the settle window nor a
    quiesce timeout raises: the offline :class:`TraceChecker` is the
    gate, so a run whose recovery paths failed completes with a trace
    that the checker rejects (this is what the negative-control test
    relies on).

    Sharded topologies arm the plan against shard 0 only — the victim
    shard — which is exactly the isolation claim the sharded chaos
    preset tests: faults inside one shard must not stall commuting
    transactions on the healthy shards.
    """
    return _run(
        config, capacity=capacity, plan=plan, settle_us=settle_us,
        live_check=live_check, metrics_out=metrics_out,
        metrics_interval_us=metrics_interval_us, progress=progress,
    )


def _settle(env: Environment, cluster, settle_us: float,
            check_every_us: float = 20.0, stable_needed: int = 3):
    """Wait for a few consecutive converged ticks; never raise.

    Returns True once ``stable_needed`` consecutive checks see every
    node at the same applied total and state-equal, False when the
    settle budget runs out first.
    """
    deadline = env.now + settle_us
    stable = 0
    while stable < stable_needed:
        if _totals_agree(cluster) and cluster.converged():
            stable += 1
        else:
            stable = 0
        if env.now > deadline:
            return False
        yield env.timeout(check_every_us)
    return True


def _totals_agree(cluster) -> bool:
    """Every node at the same applied total — per shard for sharded
    topologies (different shards legitimately apply different counts)."""
    shards = getattr(cluster, "shards", None)
    if shards is not None:
        return all(
            len(set(shard.applied_totals().values())) == 1
            for shard in shards
        )
    return len(set(cluster.applied_totals().values())) == 1


def run_averaged(config: ExperimentConfig, repeats: int = 3) -> RunResult:
    """The paper's protocol: repeat and average (distinct seeds)."""
    results = [
        run_experiment(replace(config, seed=config.seed + i))
        for i in range(repeats)
    ]
    return average_results(results)


def average_results(results: list[RunResult]) -> RunResult:
    """Average throughput/latency across repeats (keeps first's shape)."""
    if not results:
        raise ValueError("no results to average")
    base = results[0]
    if len(results) == 1:
        return base
    merged_latency = type(base.latency)()
    for result in results:
        merged_latency.samples.extend(result.latency.samples)
    merged_methods: dict = {}
    for result in results:
        for method, series in result.per_method.items():
            merged_methods.setdefault(method, type(series)()).samples.extend(
                series.samples
            )
    total_duration = sum(r.duration_us for r in results)
    return type(base)(
        system=base.system,
        workload=base.workload,
        n_nodes=base.n_nodes,
        total_calls=sum(r.total_calls for r in results),
        update_calls=sum(r.update_calls for r in results),
        rejected_calls=sum(r.rejected_calls for r in results),
        start_us=0.0,
        replicated_us=total_duration,
        latency=merged_latency,
        per_method=merged_methods,
        dropped_arrivals=sum(r.dropped_arrivals for r in results),
    )
