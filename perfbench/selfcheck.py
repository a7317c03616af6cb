"""The benchmark's own tests.

Run from the root of a checkout (takes about two minutes)::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import measure  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def bench_json(*args: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker_digest(workload: str, seed: int) -> str:
    deadline = time.monotonic() + 170
    return bench.spawn(workload, seed, 0, deadline)["sim"]["sim_digest"]


class Manifest(unittest.TestCase):
    def test_benchmark_json_names_the_workloads(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            manifest = json.load(handle)
        self.assertEqual([w["name"] for w in manifest["workloads"]],
                         list(workloads.NAMES))

    def test_every_listed_end_to_end_metric_is_reported(self):
        out = bench_json("--workload", "leader-crash", "--seed", "3",
                         "--seconds", "1", "--trace", "0")
        self.assertTrue(out["correct"])
        self.assertEqual(
            sorted(out["metrics"]),
            sorted(name for name, _unit in bench.listed_metrics("end_to_end")))

    def test_without_the_program_the_command_fails(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "smartchain-spend", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=60, env={**os.environ, "PYTHONPATH": ""})
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Workloads(unittest.TestCase):
    def test_leader_crash_lands_after_warmup(self):
        for seed in range(1, 6):
            workload = workloads.build("leader-crash", seed)
            scenario = workload.scenario
            (crash,) = scenario.faults.crashes
            self.assertEqual(crash.node, 0)
            self.assertGreater(crash.at, scenario.warmup)
            self.assertEqual(crash.at, workload.crash_at)
            self.assertLess(crash.recover_at, scenario.duration - 0.5)

    def test_unknown_workload_is_refused(self):
        with self.assertRaises(ValueError):
            workloads.build("no-such-workload", 1)


def fake_station(station_id, stamps, samples):
    return SimpleNamespace(
        id=station_id, latency=SimpleNamespace(samples=samples),
        meter=SimpleNamespace(stamps=lambda: list(stamps)))


class Measure(unittest.TestCase):
    def test_window_keeps_replies_inside_warmup_to_duration(self):
        stations = [
            fake_station(1, [(0.5, 1), (1.0, 1), (1.9, 1), (2.0, 1)],
                         [0.9, 0.1, 0.2, 0.3]),
            fake_station(2, [(1.5, 1)], [0.4]),
        ]
        replies = measure.window_replies(stations, 1.0, 2.0)
        self.assertEqual(replies, [(1.0, 0.1), (1.5, 0.4), (1.9, 0.2)])

    def test_window_rejects_misaligned_recorders(self):
        with self.assertRaises(measure.CheckFailed):
            measure.window_replies([fake_station(1, [(1.0, 1)], [])], 0, 2)

    def test_empty_window_fails_the_run(self):
        from repro.bench.harness import Scenario, run
        result = run(Scenario(system="dura", clients=40, duration=1.0,
                              warmup=1.0, seed=1))
        with self.assertRaisesRegex(measure.CheckFailed, "empty"):
            measure.sim_metrics(result)

    def test_divergent_replicas_fail_the_run(self):
        def chain(*digests):
            header = [SimpleNamespace(number=i + 1, digest=lambda d=d: d)
                      for i, d in enumerate(digests)]
            return [SimpleNamespace(header=h) for h in header]

        agree = [[(SimpleNamespace(id=0), None, chain(b"a", b"b")),
                  (SimpleNamespace(id=1), None, chain(b"a"))]]
        self.assertEqual(measure.check_agreement(agree), 3)
        fork = [[(SimpleNamespace(id=0), None, chain(b"a", b"b")),
                 (SimpleNamespace(id=1), None, chain(b"a", b"c"))]]
        with self.assertRaisesRegex(measure.CheckFailed, "diverges"):
            measure.check_agreement(fork)


class Determinism(unittest.TestCase):
    def test_run_seeds_expand_into_disjoint_scenario_seeds(self):
        owner: dict[int, int] = {}
        for seed in range(50):
            scenarios = {bench.scenario_seed(seed, rep)
                         for rep in range(2 * bench.SUB_SEEDS)}
            self.assertEqual(len(scenarios), bench.SUB_SEEDS)
            for scenario in scenarios:
                self.assertEqual(owner.setdefault(scenario, seed), seed)

    def test_benchmark_run_equals_a_plain_harness_run(self):
        from repro.bench import harness
        workload = workloads.build("leader-crash", 4)
        plain = measure.sim_metrics(harness.run(workload.scenario),
                                    workload.crash_at)
        measured = bench.spawn("leader-crash", 4, 0, time.monotonic() + 170)
        self.assertEqual(measured["sim"]["sim_digest"], plain["sim_digest"])
        self.assertEqual(measured["sim"]["end_to_end"], plain["end_to_end"])

    def test_same_seed_same_digest_other_seed_other_digest(self):
        first = worker_digest("leader-crash", 5)
        self.assertEqual(worker_digest("leader-crash", 5), first)
        self.assertNotEqual(worker_digest("leader-crash", 6), first)


class Tracing(unittest.TestCase):
    def test_wrappers_rebind_names_bound_by_from_import(self):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from tracer import Tracer\n"
            "Tracer().install()\n"
            "import repro.crypto.hashing as h, repro.ledger.block as b\n"
            "import repro.bench as bench, repro.bench.harness as harness\n"
            "assert h.hash_obj.__wrapped__ is not None\n"
            "assert b.hash_obj is h.hash_obj\n"
            "assert bench.run is harness.run\n"
            "print('ok')\n")
        proc = subprocess.run([sys.executable, "-c", code, HERE],
                              env={**os.environ, "PYTHONPATH": SRC},
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        self.assertEqual(proc.stdout.strip(), "ok", proc.stderr)

    def test_layer_counts_where_each_workload_does_work(self):
        expect_positive = {
            "smartchain-spend": ("crypto.hash_obj.calls",
                                 "crypto.merkle_tree.calls", "core.calls",
                                 "ledger.blocks", "storage.append.calls",
                                 "apps.execute.calls", "crypto.sign.calls"),
            "dura-pipelined": ("smr.exec_parallel_batches", "smr.calls",
                               "apps.execute.calls", "storage.append.calls",
                               "consensus.calls"),
            "sharded-xshard": ("ledger.transfers_redeemed", "net.calls",
                               "sim.heap_compactions", "core.calls"),
            "leader-crash": ("consensus.regency_changes",
                             "storage.recovery_verified_entries",
                             "storage.read.self_s", "smr.watchdog_fires"),
        }
        expect_zero = {"dura-pipelined": ("ledger.blocks",
                                          "crypto.merkle_tree.calls")}
        for workload, names in expect_positive.items():
            with self.subTest(workload=workload):
                out = bench_json("--workload", workload, "--seed", "2",
                                 "--seconds", "1", "--trace", "1")
                metrics = {k: v["value"] for k, v in out["metrics"].items()}
                self.assertTrue(out["correct"])
                self.assertEqual(sorted(metrics), sorted(
                    name for name, _unit in bench.listed_metrics("per_layer")))
                self.assertEqual(out["failed"], 0)
                for name in names:
                    self.assertGreater(metrics[name], 0, name)
                for name in expect_zero.get(workload, ()):
                    self.assertEqual(metrics[name], 0, name)
                self.assertGreater(metrics["trace.coverage_frac"], 0.8)
                self.assertGreater(metrics["crypto.self_s"], 0)


if __name__ == "__main__":
    unittest.main()
