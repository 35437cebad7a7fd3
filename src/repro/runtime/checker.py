"""Offline trace checking: a recorded trace through the one engine.

:class:`TraceChecker` checks a flight-recorder trace
(:mod:`repro.runtime.trace`) against the paper's Figure-5/Figure-7
obligations — Lemma-1 integrity, one total order per sync group, and
Lemma-2 convergence.  It holds no checking logic of its own: it orders
the events, rebuilds the founding roster, and feeds them through
:class:`~repro.runtime.stream_checker.StreamingChecker`, the same
engine that checks a run live.  A trace truncated by the recorder's
bounded ring buffer cannot attest convergence; the report says so
instead of silently passing.

:class:`ShardedTraceChecker` runs that driver once per shard and adds
the cross-shard atomicity obligations over the transaction stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core import Coordination
from .stream_checker import (
    CheckReport,
    StreamingChecker,
    Violation,
    describe_drops,
)
from .trace import LoadedTrace, TraceEvent, load_jsonl

__all__ = [
    "CheckReport",
    "ShardedCheckReport",
    "ShardedTraceChecker",
    "TraceChecker",
    "Violation",
]


class TraceChecker:
    """Checks a whole recorded trace with :class:`StreamingChecker`."""

    def __init__(self, coordination: Coordination,
                 processes: Optional[Iterable[str]] = None,
                 max_violations: int = 25):
        self.coordination = coordination
        self.spec = coordination.spec
        self.processes = sorted(processes) if processes else None
        self.max_violations = max_violations

    def check_jsonl(self, path: str) -> CheckReport:
        """Check a trace previously exported with ``export_jsonl``."""
        trace: LoadedTrace = load_jsonl(path)
        return self.check(
            trace.events, dropped=trace.dropped,
            processes=self.processes or trace.nodes,
            gaps=trace.gaps,
        )

    def check(self, events: Iterable[TraceEvent], dropped: int = 0,
              processes: Optional[Iterable[str]] = None,
              gaps: Iterable[tuple] = ()) -> CheckReport:
        events = sorted(events, key=lambda event: event.seq)
        nodes = set(processes or self.processes or {
            event.node for event in events
        })
        # The declared roster is the FINAL one (joiners in, departed
        # out); the stream starts from the founding roster.
        joins = {
            event.origin for event in events
            if event.kind == "member" and event.name == "member_join"
        }
        leaves = {
            event.origin for event in events
            if event.kind == "member" and event.name == "member_leave"
        }
        # strict_seq off: a recorded trace reports its losses through
        # ``dropped``/``gaps``, and filtered traces have seq holes.
        checker = StreamingChecker(
            self.coordination, processes=(nodes | leaves) - joins,
            max_violations=self.max_violations, strict_seq=False,
        )
        report = checker.check(events, dropped=dropped, gaps=gaps)
        report.label = "trace check"
        return report


# -- sharded topologies -----------------------------------------------------


@dataclass
class ShardedCheckReport:
    """Per-shard reports plus the cross-shard atomicity verdict."""

    shard_reports: dict[int, CheckReport] = field(default_factory=dict)
    #: Cross-shard obligations only (``atomicity`` / ``atomicity-order``
    #: / ``truncated``); per-shard violations live in their reports.
    violations: list[Violation] = field(default_factory=list)
    txns_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and all(
            report.ok for report in self.shard_reports.values()
        )

    def all_violations(self) -> list[Violation]:
        merged = list(self.violations)
        for shard in sorted(self.shard_reports):
            merged.extend(self.shard_reports[shard].violations)
        return merged

    def summary(self) -> str:
        lines = []
        for shard in sorted(self.shard_reports):
            lines.append(f"s{shard}: {self.shard_reports[shard].summary()}")
        verdict = (
            "OK" if not self.violations
            else f"{len(self.violations)} violation(s)"
        )
        lines.append(
            f"cross-shard atomicity: {self.txns_checked} txn(s) -> {verdict}"
        )
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)


class ShardedTraceChecker:
    """Checks a sharded run: every shard's stream must satisfy the
    single-cluster obligations (Lemma 1 integrity, per-group total
    order, Lemma 2 convergence), and the transaction stream must
    satisfy cross-shard atomicity:

    1. **Commit completeness** — every call identity a COMMIT receipt
       names was actually applied on its shard.
    2. **Abort emptiness (all-or-nothing)** — no call identity an ABORT
       receipt names was applied anywhere: an aborted transaction left
       no partial effects.  This is the obligation the conflicting-txn
       lock path is load-bearing for — with the lock path disabled, a
       rejected constituent no longer aborts the set before its
       siblings land, and this check fails.
    3. **Cross-shard order** — two committed *locked* transactions
       sharing two or more shards must take effect in the same order on
       every shared shard (first-apply order by global sequence number;
       an inversion means the per-shard lock/commit protocol was
       bypassed).

    Commuting transactions are exempt from (3) by construction: their
    calls commute with all concurrent updates, so any apply
    interleaving is equivalent.
    """

    def __init__(self, coordination: Coordination, n_shards: int,
                 processes: Optional[Iterable[str]] = None,
                 max_violations: int = 25):
        self.coordination = coordination
        self.n_shards = n_shards
        self.processes = sorted(processes) if processes else None
        self.max_violations = max_violations

    def check_recorder(self, recorder) -> ShardedCheckReport:
        """Check a :class:`~repro.runtime.trace.ShardedRecorder`."""
        return self.check(
            recorder.shard_events(),
            recorder.txn_events(),
            dropped=recorder.dropped(),
            gaps=recorder.drop_gaps(),
        )

    def check(self, shard_events: dict[int, list[TraceEvent]],
              txn_events: Iterable[TraceEvent],
              dropped: int = 0,
              gaps: Iterable[tuple] = ()) -> ShardedCheckReport:
        report = ShardedCheckReport()
        for shard in range(self.n_shards):
            checker = TraceChecker(
                self.coordination,
                processes=self.processes,
                max_violations=self.max_violations,
            )
            report.shard_reports[shard] = checker.check(
                shard_events.get(shard, [])
            )
        if dropped:
            report.violations.append(Violation(
                "truncated",
                describe_drops(dropped, gaps) + ": cannot attest "
                "cross-shard atomicity (raise the recorder capacity)",
            ))
        self._check_atomicity(report, shard_events, list(txn_events))
        return report

    # -- the cross-shard obligations -------------------------------------

    def _check_atomicity(self, report, shard_events, txn_events):
        def violation(kind: str, message: str,
                      chain: Optional[list] = None) -> None:
            if len(report.violations) < self.max_violations:
                report.violations.append(
                    Violation(kind, message, chain or [])
                )

        # First-apply position of every call identity, per shard, in
        # the recorder's global sequence order.
        applied_at: dict[int, dict[tuple[str, int], int]] = {}
        for shard, events in shard_events.items():
            first = applied_at.setdefault(shard, {})
            for event in events:
                if event.kind == "rule" and event.name != "QUERY":
                    first.setdefault((event.origin, event.rid), event.seq)

        outcomes = [
            event for event in txn_events
            if event.kind == "txn" and event.name in ("COMMIT", "ABORT")
        ]
        report.txns_checked = len(outcomes)
        for event in outcomes:
            issued = tuple(event.arg or ())
            for identity in issued:
                shard, method, origin, rid = identity
                landed = (origin, rid) in applied_at.get(shard, {})
                if event.name == "COMMIT" and not landed:
                    violation(
                        "atomicity",
                        f"txn #{event.rid} ({event.method}) committed "
                        f"but {method}@{origin}#{rid} never applied on "
                        f"shard s{shard}",
                        [event],
                    )
                elif event.name == "ABORT" and landed:
                    violation(
                        "atomicity",
                        f"txn #{event.rid} ({event.method}) aborted but "
                        f"{method}@{origin}#{rid} was applied on shard "
                        f"s{shard}: partial effects survived the abort",
                        [event],
                    )

        # Obligation 3: pairwise order agreement for committed locked
        # transactions sharing >= 2 shards.
        locked = [
            event for event in outcomes
            if event.name == "COMMIT" and event.method == "locked"
        ]
        positions: list[tuple[TraceEvent, dict[int, int]]] = []
        for event in locked:
            per_shard: dict[int, int] = {}
            for shard, _method, origin, rid in tuple(event.arg or ()):
                seq = applied_at.get(shard, {}).get((origin, rid))
                if seq is not None:
                    per_shard[shard] = min(
                        per_shard.get(shard, seq), seq
                    )
            positions.append((event, per_shard))
        for i, (event_a, pos_a) in enumerate(positions):
            for event_b, pos_b in positions[i + 1:]:
                shared = sorted(set(pos_a) & set(pos_b))
                if len(shared) < 2:
                    continue
                orders = {
                    shard: pos_a[shard] < pos_b[shard] for shard in shared
                }
                if len(set(orders.values())) > 1:
                    violation(
                        "atomicity-order",
                        f"locked txns #{event_a.rid} and #{event_b.rid} "
                        f"took effect in opposite orders on shared "
                        f"shards {', '.join(f's{s}' for s in shared)}",
                        [event_a, event_b],
                    )
