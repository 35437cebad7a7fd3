"""The sharded bank workload driver and its txn generator."""

import pytest

from repro.bench import ExperimentConfig, run_experiment
from repro.bench.runner import _build, _sharded_driver
from repro.sim import Environment
from repro.workload import (
    ShardedDriverConfig,
    bank_accounts,
    make_txn_generator,
    run_sharded_workload,
    sharded_setup_calls,
)


class TestTxnGenerator:
    def test_deterministic_per_client(self):
        accounts = bank_accounts(8)
        a = make_txn_generator(1, "client0", accounts, txn_mix=0.5)
        b = make_txn_generator(1, "client0", accounts, txn_mix=0.5)
        assert [next(a) for _ in range(20)] == [
            next(b) for _ in range(20)
        ]

    def test_distinct_clients_differ(self):
        accounts = bank_accounts(8)
        a = make_txn_generator(1, "client0", accounts, txn_mix=0.5)
        b = make_txn_generator(1, "client1", accounts, txn_mix=0.5)
        assert [next(a) for _ in range(20)] != [
            next(b) for _ in range(20)
        ]

    def test_mix_boundaries(self):
        accounts = bank_accounts(4)
        all_payroll = make_txn_generator(3, "c", accounts, txn_mix=0.0)
        kinds = {next(all_payroll)[0] for _ in range(30)}
        assert kinds == {"payroll"}
        all_transfer = make_txn_generator(3, "c", accounts, txn_mix=1.0)
        kinds = {next(all_transfer)[0] for _ in range(30)}
        assert kinds == {"transfer"}

    def test_transfer_shape(self):
        accounts = bank_accounts(4)
        gen = make_txn_generator(3, "c", accounts, txn_mix=1.0)
        _kind, ops = next(gen)
        (src, m1, (k1, amt1)), (dst, m2, (k2, amt2)) = ops
        assert m1 == "withdraw" and m2 == "deposit"
        assert src == k1 and dst == k2 and src != dst
        assert amt1 == amt2 > 0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            make_txn_generator(1, "c", bank_accounts(8), txn_mix=1.5)
        with pytest.raises(ValueError):
            make_txn_generator(1, "c", bank_accounts(1))

    def test_setup_calls_open_then_fund(self):
        calls = sharded_setup_calls(bank_accounts(2), initial_balance=9)
        assert calls == [
            ("acct0", "open", "acct0"),
            ("acct0", "deposit", ("acct0", 9)),
            ("acct1", "open", "acct1"),
            ("acct1", "deposit", ("acct1", 9)),
        ]


class TestShardedWorkload:
    def run(self, n_shards=2, txn_mix=0.25, total_txns=40):
        config = ExperimentConfig(
            system="hamband",
            workload="sharded-bank",
            n_nodes=3,
            seed=2,
            n_shards=n_shards,
            txn_mix=txn_mix,
        )
        env = Environment()
        sharded, coordinator = _build(env, config, None)
        driver = ShardedDriverConfig(
            total_txns=total_txns, txn_mix=txn_mix, seed=2, clients=4
        )
        result = run_sharded_workload(env, sharded, coordinator, driver)
        return sharded, coordinator, result

    def test_converges_and_counts_constituent_calls(self):
        sharded, coordinator, result = self.run()
        assert sharded.converged()
        assert sharded.integrity_holds()
        assert result.workload == "sharded-bank"
        assert result.n_nodes == 6
        # 40 txns, each 2 constituent calls (payroll_ops=2 transfers=2).
        assert result.total_calls == 80
        assert result.update_calls + result.rejected_calls == 80
        assert coordinator.counters["commits"] > 0

    def test_latency_grouped_by_txn_kind(self):
        _sharded, _coordinator, result = self.run(txn_mix=0.5)
        assert set(result.per_method) <= {"txn:payroll", "txn:transfer"}
        assert len(result.per_method) == 2

    def test_runner_config_plumbs_shards(self):
        config = ExperimentConfig(
            system="hamband", workload="sharded-bank",
            n_nodes=3, n_shards=3, txn_mix=0.2, total_ops=100,
        )
        driver = _sharded_driver(config)
        assert driver.total_txns == 50
        assert driver.txn_mix == 0.2
        env = Environment()
        sharded, _coordinator = _build(env, config, None)
        assert sharded.n_shards == 3

    def test_sharded_rejects_non_hamband_systems(self):
        config = ExperimentConfig(
            system="mu", workload="sharded-bank", n_shards=2,
        )
        with pytest.raises(ValueError, match="hamband"):
            run_experiment(config)
