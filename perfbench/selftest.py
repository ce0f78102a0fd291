#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [-v] [TestCase[.test_name] ...]

- the seeded quotient generator gives full-rank, conjugation-stable
  quotients, byte-identical for equal seeds;
- traced and untraced runs give equal output digests, and two traced runs
  give identical per-layer counts;
- two sets of timed runs agree within the bounds in ``BENCHMARK.json``;
- the host-speed correction and the tail percentile behave as documented.

The run-based tests start ``run.py`` processes and take a few minutes.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spread  # noqa: E402

run.load_program()
import workloads  # noqa: E402
from crprolong.exact import Echelon  # noqa: E402
from crprolong.freelie import cumulative_dim, min_length_for_codim, witt_dim  # noqa: E402
from crprolong.liealg import build_symbol_algebra  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TIME_UNITS = {"s"}


class QuotientGeneratorTest(unittest.TestCase):
    SEEDS = (1, 2, 3)

    def test_full_rank_and_conjugation_stable(self):
        for seed in self.SEEDS:
            for k in workloads.RANDOM_QUOTIENT_KS:
                with self.subTest(seed=seed, k=k):
                    spec = workloads.random_quotient(k, seed)
                    rho = min_length_for_codim(k)
                    n_top = witt_dim(rho)
                    need = n_top - (2 + k - cumulative_dim(rho - 1))
                    self.assertEqual(Echelon([list(r) for r in spec.rows], n_top).rank, need)
                    # the builder attaches a conjugation only to stable quotients
                    self.assertIsNotNone(build_symbol_algebra(k, spec).algebra.conjugation)

    def test_same_seed_same_bytes(self):
        for k in workloads.RANDOM_QUOTIENT_KS:
            a = json.dumps(workloads.random_quotient(k, 7).to_json_dict())
            b = json.dumps(workloads.random_quotient(k, 7).to_json_dict())
            c = json.dumps(workloads.random_quotient(k, 8).to_json_dict())
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)


class CorrectionTest(unittest.TestCase):
    """The host-speed factor is the mean speed around a unit; the tail keeps its percentile."""

    def test_factor_is_mean_speed_in_window(self):
        speed = hostspeed.HostSpeed()
        nominal = hostspeed.NOMINAL_S
        speed.samples = [(0.0, nominal), (10.0, nominal), (10.5, 2 * nominal), (20.0, 4 * nominal)]
        self.assertEqual(speed.factor(0.0, 0.0), 1.0)
        self.assertEqual(speed.factor(10.0, 10.5), 0.75)
        self.assertEqual(speed.factor(9.9, 20.0), (1 + 0.5 + 0.25) / 3)

    def test_sampling_time_is_counted(self):
        speed = hostspeed.HostSpeed()
        speed.sample(3)
        self.assertEqual(len(speed.samples), 3)
        self.assertGreaterEqual(speed.spent, sum(s for _, s in speed.samples))

    def test_quantile_estimate(self):
        self.assertAlmostEqual(run.quantile([3.0] * 7, 0.9), 3.0)
        self.assertAlmostEqual(run.quantile([1.0, 2.0, 4.0, 8.0, 9.0], 0.5), 4.7, delta=0.1)
        spaced = [float(x) for x in range(101)]
        self.assertAlmostEqual(run.quantile(spaced, 0.5), 50.0)
        self.assertAlmostEqual(run.quantile(spaced, 0.9), 90.0, delta=0.5)

    def test_tail_percentile_follows_planned_count(self):
        full = [float(x) for x in range(100)]
        self.assertEqual(run.tail(full, 100)[1], 90.0)
        self.assertEqual(run.tail(full[::2], 100)[1], 90.0)
        self.assertEqual(run.tail([2.0, 5.0, 1.0], 6), (5.0, 100.0))


class TraceTest(unittest.TestCase):
    """Tracing changes no output, and its counts repeat exactly."""

    WORKLOAD, SEED, SECONDS = "sweep", 5, 1

    @classmethod
    def setUpClass(cls):
        cls.plain = spread.run_once(cls.WORKLOAD, cls.SEED, cls.SECONDS, 0)
        cls.traced = [spread.run_once(cls.WORKLOAD, cls.SEED, cls.SECONDS, 1) for _ in range(2)]

    def test_all_correct(self):
        for result in [self.plain] + self.traced:
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_traced_digests_equal_untraced(self):
        for result in self.traced:
            self.assertEqual(result["digests"], self.plain["digests"])

    def test_traced_counts_repeat(self):
        a, b = (r["metrics"] for r in self.traced)
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in TIME_UNITS]
        self.assertTrue(counts)
        for name in counts:
            self.assertEqual(a[name]["value"], b[name]["value"], name)


class TimingAgreementTest(unittest.TestCase):
    """Two sets of timed runs of the same code agree within the bounds."""

    WORKLOAD, SEEDS, SECONDS = "anchors", (1, 2, 3), 10

    def test_second_set_within_bounds(self):
        sets = [
            spread.summarize([spread.run_once(self.WORKLOAD, s, self.SECONDS, 0) for s in self.SEEDS])
            for _ in range(2)
        ]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            first, second = sets[0][name]["median"], sets[1][name]["median"]
            with self.subTest(metric=name):
                self.assertLessEqual(spread.worse_by(metric, first, second), metric["bound"])


if __name__ == "__main__":
    unittest.main()
