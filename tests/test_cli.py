"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_datatypes_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "account" in out
        assert "courseware" in out
        assert "workload generators" in out


class TestAnalyze:
    def test_account_figure_1(self, capsys):
        assert main(["analyze", "account"]) == 0
        out = capsys.readouterr().out
        assert "withdraw >< withdraw" in out
        assert "Dep(withdraw) = {deposit}" in out
        assert "reducible" in out
        assert "conflicting" in out

    def test_movie_two_groups(self, capsys):
        assert main(["analyze", "movie"]) == 0
        out = capsys.readouterr().out
        assert out.count("sync:") == 2

    def test_counter_no_conflicts(self, capsys):
        assert main(["analyze", "counter"]) == 0
        out = capsys.readouterr().out
        assert "(none)" in out

    def test_orset_available(self, capsys):
        assert main(["analyze", "orset"]) == 0
        out = capsys.readouterr().out
        assert "irreducible_conflict_free" in out

    def test_unknown_datatype_fails(self, capsys):
        assert main(["analyze", "nope"]) == 1


class TestExplore:
    def test_small_scope_passes(self, capsys):
        assert main(
            ["explore", "account", "--requests", "3", "--procs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "no violation" in out
        assert "states=" in out

    def test_unknown_datatype_fails(self, capsys):
        assert main(["explore", "nope"]) == 1

    def test_state_budget_flag(self, capsys):
        assert main(
            [
                "explore",
                "counter",
                "--requests",
                "5",
                "--max-states",
                "300",
            ]
        ) == 0


class TestRun:
    def test_small_hamband_run(self, capsys):
        assert main(
            ["run", "counter", "--ops", "120", "--nodes", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "tput=" in out
        assert "hamband" in out

    def test_msg_system(self, capsys):
        assert main(
            ["run", "counter", "--system", "msg", "--ops", "120"]
        ) == 0
        assert "msg" in capsys.readouterr().out

    def test_per_method_flag(self, capsys):
        assert main(
            ["run", "counter", "--ops", "120", "--per-method"]
        ) == 0
        out = capsys.readouterr().out
        assert "add" in out
        assert "p95=" in out

    def test_unknown_workload_fails(self, capsys):
        assert main(["run", "nope", "--ops", "10"]) == 1

    def test_unknown_fail_node_is_named(self, capsys):
        # A bad node name must not be reported as a bad workload name.
        assert main(
            ["run", "gset", "--fail-node", "p9", "--ops", "100"]
        ) == 1
        out = capsys.readouterr().out
        assert "p9" in out
        assert "unknown workload" not in out
        assert main(["run", "nope", "--ops", "10"]) == 1
        assert "unknown workload" in capsys.readouterr().out

    def test_scale_out_live_and_offline_checked(self, capsys):
        assert main(
            ["run", "gset", "--nodes", "3", "--ops", "600",
             "--scale-out-at", "200", "--live-check", "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "scale-out: joined p4" in out


class TestChaos:
    ARGS = ["chaos", "gset", "--faults", "crash-leader", "--nodes", "4",
            "--ops", "300", "--horizon", "600", "--live-check", "--check"]

    def test_crash_leader_live_and_offline_checked(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "plan: crash-leader" in out
        assert "faults injected: crash=1, restart=1" in out
        assert "settled: yes" in out

    def test_saved_plan_replays_identically(self, capsys, tmp_path):
        path = str(tmp_path / "plan.json")
        assert main(self.ARGS + ["--save-plan", path]) == 0
        saved = capsys.readouterr().out.splitlines()
        assert saved[0].endswith(f"-> {path}")
        args = list(self.ARGS)
        args[args.index("crash-leader")] = path
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines() == saved[1:]


class TestObservability:
    def test_stats_prints_rollup_and_phase_table(self, capsys):
        assert main(
            ["run", "courseware", "--ops", "120", "--nodes", "3",
             "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert '"cluster"' in out
        assert "per-phase latency" in out
        assert "decide" in out
        assert "apply" in out

    def test_metrics_out_ends_with_final_record(self, capsys, tmp_path):
        import json as _json

        path = tmp_path / "metrics.jsonl"
        assert main(
            ["run", "counter", "--ops", "200", "--live-check",
             "--metrics-out", str(path)]
        ) == 0
        assert f"metrics -> {path}" in capsys.readouterr().out
        lines = path.read_text().strip().splitlines()
        assert _json.loads(lines[-1])["final"] is True

    def test_trace_jsonl_export(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["run", "gset", "--ops", "100", "--trace", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        lines = path.read_text().strip().splitlines()
        assert len(lines) > 1
        import json as _json

        meta = _json.loads(lines[0])
        assert meta["kind"] == "meta"
        assert meta["dropped"] == 0

    def test_trace_chrome_export_and_check(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(
            ["run", "courseware", "--ops", "120", "--trace", str(path),
             "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "trace check:" in out
        assert "OK" in out
        import json as _json

        doc = _json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_check_without_trace_file(self, capsys):
        assert main(["run", "gset", "--ops", "80", "--check"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_msg_system_has_no_probe_seam(self, capsys):
        assert main(
            ["run", "counter", "--system", "msg", "--ops", "40",
             "--stats"]
        ) == 1
        assert "probe seam" in capsys.readouterr().out

    def test_tiny_trace_capacity_refuses_check(self, capsys):
        # A deliberately truncated ring buffer: the checker must refuse
        # to attest convergence (exit code 2).
        assert main(
            ["run", "gset", "--ops", "120", "--check",
             "--trace-capacity", "16"]
        ) == 2
        out = capsys.readouterr().out
        assert "truncated" in out


class TestShardedRuns:
    def test_sharded_run_with_check_and_stats(self, capsys):
        assert main(
            ["run", "sharded-bank", "--shards", "2", "--nodes", "3",
             "--ops", "160", "--txn-mix", "0.25", "--check", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded-bank" in out
        assert "txns:" in out and "commits=" in out
        # Stats and phase tables group per shard; the checker reports
        # per-shard obligations plus cross-shard atomicity.
        assert '"s0"' in out and '"s1"' in out and '"global"' in out
        assert "s0: per-phase latency" in out
        assert "s1: per-phase latency" in out
        assert "s0: trace check:" in out
        assert "cross-shard atomicity:" in out
        assert "OK" in out

    def test_sharded_bank_workload_implies_sharded_driver(self, capsys):
        # Even at --shards 1 (the scaling baseline) the txn driver runs.
        assert main(
            ["run", "sharded-bank", "--nodes", "3", "--ops", "80",
             "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "cross-shard atomicity:" in out

    def test_sharded_needs_hamband(self, capsys):
        assert main(
            ["run", "sharded-bank", "--system", "mu", "--ops", "40"]
        ) == 1
        assert "hamband" in capsys.readouterr().out

    def test_sharded_chaos_preset_with_check(self, capsys):
        assert main(
            ["chaos", "sharded-bank", "--shards", "2", "--nodes", "3",
             "--ops", "160", "--txn-mix", "0.25", "--seed", "3",
             "--faults", "shard-isolate", "--horizon", "700",
             "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan: shard-isolate" in out
        assert "faults injected:" in out and "crash=1" in out
        assert "settled: yes" in out
        assert "txns:" in out
        assert "cross-shard atomicity:" in out

    def test_negative_control_lock_path_off_fails_check(self, capsys):
        # Disabling the conflicting-txn lock path must surface under
        # an all-transfer mix: concurrent unlocked transfers sharing
        # both shards take effect in opposite per-shard orders, which
        # the cross-shard ordering obligation rejects.
        code = main(
            ["run", "sharded-bank", "--shards", "2", "--nodes", "3",
             "--ops", "200", "--txn-mix", "1.0", "--seed", "6",
             "--txn-lock-path", "off", "--check"]
        )
        out = capsys.readouterr().out
        assert code == 2, out
        assert "atomicity" in out


class TestServe:
    def test_small_serving_run(self, capsys):
        assert main(
            ["serve", "counter", "--nodes", "3", "--load", "1.0",
             "--duration", "300", "--sessions", "2000",
             "--tenants", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "tput=" in out
        assert "sessions:" in out
        assert "curve=steady" in out
        assert "latency: p50=" in out

    def test_slo_verdict_and_exit_codes(self, capsys):
        assert main(
            ["serve", "counter", "--load", "1.0", "--duration", "300",
             "--slo-p99", "50000"]
        ) == 0
        assert "slo: p99<=50000us ok" in capsys.readouterr().out
        # An unattainable target (below any simulated RTT) exits 3.
        assert main(
            ["serve", "counter", "--load", "1.0", "--duration", "300",
             "--slo-p99", "0.0001"]
        ) == 3
        assert "MISS" in capsys.readouterr().out

    def test_curve_tenant_table_and_live_check(self, capsys):
        assert main(
            ["serve", "counter", "--load", "2.0", "--duration", "300",
             "--curve", "flash-crowd", "--sessions", "5000",
             "--tenants", "8", "--tenant-table", "--live-check"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-tenant admission" in out
        assert "shed %" in out
        assert "stream check:" in out

    def test_unknown_workload_fails(self, capsys):
        assert main(["serve", "nope", "--duration", "100"]) == 1

    def test_fault_plan_under_serving(self, capsys):
        assert main(
            ["serve", "counter", "--duration", "300",
             "--faults", "crash-leader", "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "plan: crash-leader" in out
        assert "OK" in out
