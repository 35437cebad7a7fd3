"""The repository benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload orset-grow --seed 1 \
        --seconds 55 --trace 0

``--trace 0`` repeats the workload untraced, each run in a fresh
interpreter, as often as fits in ``--seconds`` (at least
``MIN_REPEATS`` times), each repeat being a full-length run, a
quarter-length run and ``SETUP_RUNS`` runs that stop after their first
cluster build; then it runs a held-out second seed once, at quarter
length.  In every run the host-speed gauge (``gauge.py``) times a
slice of fixed work every quarter second and around each cluster
build, and the run's wall and set-up times are scaled to the gauge's
reference speed, which takes the shared host's changing speed out of
them.
It prints the end-to-end metrics (medians over the repeats).
``--trace 1`` runs the workload once untraced and once with the layer
wrappers installed, and prints the per-layer metrics plus
``trace_overhead_frac``.

Both modes check the program's outputs (replica convergence, the
streaming trace checker), that repeats of one seed give identical
simulated figures and ``cluster.stats()`` counts, and (traced) that the
spans nest, so that the layer self times plus the ``sim.engine``
residual account for the traced wall time.  The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

from gauge import scaled

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPEATS = 3
#: Build-only runs per repeat: more cold builds behind ``setup_s``.
SETUP_RUNS = 1
QUARTER = 0.25
#: Offset of the held-out seed from the workload seed.
HELD_OUT = 10_007
#: Whole invocation must end within this many seconds.
DEADLINE_S = 170.0


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the workload names and each metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: dict, kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class BenchError(Exception):
    """The benchmark could not run (not a wrong program output)."""


class Invocation:
    """Starts workers, keeps the deadline, and gathers failures."""

    def __init__(self, workload: str, started: float):
        self.workload = workload
        self.started = started
        self.problems: list[str] = []
        self.records: list[dict] = []

    @property
    def attempted(self) -> int:
        return sum(record["attempted"] for record in self.records)

    @property
    def failed(self) -> int:
        """Failed calls; every call of a run that failed a gate here."""
        return sum(
            record["attempted"] if record.get("gate_failed")
            else record["failed"]
            for record in self.records
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, seed: int, scale: float, *flags: str) -> dict:
        """One run in a fresh interpreter; returns its JSON record."""
        record = self._run([
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(seed),
            "--scale", str(scale), *flags,
        ])
        if "--setup-only" in flags:
            return record
        self.records.append(record)
        self.problems += [
            f"seed {seed} scale {scale}: {problem}"
            for problem in record["problems"]
        ]
        return record

    def _run(self, command: list[str]) -> dict:
        """Run ``command``; returns the JSON object on its last line."""
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("no time left for another run")
        try:
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"run timed out after {timeout:.0f} s") from exc
        if done.returncode != 0:
            raise BenchError(
                f"worker exited {done.returncode}:\n{done.stderr[-2000:]}"
            )
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def same(self, records: list[dict], what: str) -> None:
        """Repeats of one seed must agree on every simulated figure."""
        digests = {record["digest"] for record in records}
        if len(digests) > 1:
            self.fail(
                f"{what}: simulated figures or stats() counts differ "
                f"across {len(records)} runs of one seed", records,
            )

    def fail(self, problem: str, records: list[dict]) -> None:
        """A gate failed on ``records``: all their calls count as failed."""
        self.problems.append(problem)
        for record in records:
            record["gate_failed"] = True


def raw_us_per_op(record: dict) -> float:
    return record["drive_wall_s"] * 1e6 / record["calls"]


def us_per_op(record: dict) -> float:
    """Wall us per call at the gauge's reference host speed."""
    return scaled(raw_us_per_op(record), record["gauge_s"])


def cold_build_s(record: dict) -> float:
    """The first build of the run, at the gauge's reference speed.

    Only the first build of each fresh interpreter counts: later builds
    in one process reuse freed memory and run up to 5x faster or not,
    depending on the allocator's state.
    """
    return scaled(record["setup_s"][0], record["setup_gauge_s"][0])


def end_to_end(bench: Invocation, seed: int, seconds: float,
               units: dict) -> dict:
    full: list[dict] = []
    quarter: list[dict] = []
    setups: list[dict] = []
    quarter_s = 0.0
    # Start another repeat only while it and the held-out run (as long
    # as a quarter-length run) should end within ``seconds``.
    while len(full) < MIN_REPEATS or (
        bench.elapsed() * (len(full) + 1) / len(full) + quarter_s
        <= seconds
    ):
        full.append(bench.worker(seed, 1.0, "--gauge"))
        started = bench.elapsed()
        quarter.append(bench.worker(seed, QUARTER, "--gauge"))
        quarter_s = max(quarter_s, bench.elapsed() - started)
        setups += [bench.worker(seed, 1.0, "--setup-only", "--gauge")
                   for _ in range(SETUP_RUNS)]
    bench.same(full, "full-length repeats")
    bench.same(quarter, "quarter-length repeats")
    held_out = bench.worker(seed + HELD_OUT, QUARTER, "--gauge")

    wall = statistics.median(us_per_op(record) for record in full)
    builds = [cold_build_s(record)
              for record in full + quarter + setups + [held_out]]
    metrics = {
        "wall_us_per_op": wall,
        "setup_s": statistics.median(builds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        # Each full run is paired with the quarter run right after it.
        "wall_scaling_ratio": statistics.median(
            us_per_op(long) / us_per_op(short)
            for long, short in zip(full, quarter)
        ),
        **full[0]["sim"],
    }
    print(f"# {len(full)} full + {len(quarter)} quarter-length runs, "
          f"{len(builds)} cold cluster builds, seed {seed}, "
          f"{bench.elapsed():.1f} s")
    print("# single-run wall_us_per_op: "
          + " ".join(f"{us_per_op(r):.1f}" for r in full))
    print("# single-run unscaled wall us/op: "
          + " ".join(f"{raw_us_per_op(r):.1f}" for r in full))
    print("# mean gauge slice (s) in each full run: "
          + " ".join(f"{r['gauge_s']:.4f}" for r in full))
    print("# single-build setup_s: "
          + " ".join(f"{build:.4f}" for build in builds))
    report("held-out seed", held_out["seed"], held_out["sim"], units)
    report("info", seed, {
        "unscaled_wall_us_per_op": statistics.median(
            raw_us_per_op(record) for record in full),
        "unscaled_setup_s": statistics.median(
            record["setup_s"][0]
            for record in full + quarter + setups + [held_out]),
        **full[0]["info"],
        "failed_frac": bench.failed / bench.attempted,
    }, {"failed_frac": "frac", "unscaled_wall_us_per_op": "us",
        "unscaled_setup_s": "s"})
    return metrics


def per_layer(bench: Invocation, seed: int) -> dict:
    plain = bench.worker(seed, 1.0)
    traced = bench.worker(seed, 1.0, "--trace")
    bench.same([plain, traced], "traced vs untraced")
    accounting = traced["accounting"]
    if (accounting["nesting_faults"]
            or accounting["residual_ns"] < 0
            or accounting["min_self_ns"] < 0):
        bench.fail(f"span accounting failed: {accounting}", [traced])
    print(f"# {accounting['spans']} spans; traced wall "
          f"{accounting['wall_ns'] / 1e9:.3f} s = layer self times + "
          f"sim.engine residual {accounting['residual_ns'] / 1e9:.3f} s; "
          f"spans written to perfbench/out/")
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = (
        traced["drive_wall_s"] / plain["drive_wall_s"] - 1.0
    )
    return metrics


def report(label: str, seed: int, values: dict, units: dict) -> None:
    for name, value in values.items():
        print(f"{label:>13} seed {seed:<6} {name:<52} {value:.6g} "
              f"{units.get(name, '')}")


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(
        description="Hamband reproduction benchmark"
    )
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Invocation(args.workload, time.monotonic())
    try:
        if args.trace:
            units = metric_units(spec, "per_layer")
            metrics = per_layer(bench, args.seed)
        else:
            units = metric_units(spec, "end_to_end")
            metrics = end_to_end(bench, args.seed, args.seconds, units)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report("metric", args.seed, metrics, units)
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
