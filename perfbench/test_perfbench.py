"""Self-tests of the benchmark harness (stdlib unittest, not part of tests/).

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from run import ROOT, Runner, gate  # noqa: E402
from speed import Sampler  # noqa: E402
from tracer import Tracer, layer_metrics, summarize  # noqa: E402


class TracerTest(unittest.TestCase):
    def test_sees_calls_through_from_import_bindings(self):
        from specrep import jsets, suite, vjmod

        orig = jsets.check_quasi_parabolic
        tracer = Tracer()
        tracer.install()
        try:
            # vjmod and suite hold these functions by `from .x import f`
            self.assertIsNot(vjmod.check_quasi_parabolic, orig)
            self.assertIs(vjmod.check_quasi_parabolic, jsets.check_quasi_parabolic)
            suite.exactness_battery(suite.SuiteConfig(types=("A2",), primes=(2,)))
        finally:
            tracer.uninstall()
        self.assertIs(vjmod.check_quasi_parabolic, orig)
        s = summarize(tracer.names, tracer.spans)
        self.assertGreater(s["jsets.check_quasi_parabolic"]["calls"], 0)
        self.assertGreater(s["vjmod.restricted_exactness"]["calls"], 0)
        battery = tracer.names.index("suite.exactness_battery")
        exact = tracer.names.index("vjmod.restricted_exactness")
        for idx, _, _, parent, _ in tracer.spans:
            if idx == exact:
                self.assertEqual(tracer.spans[parent][0], battery)

    def test_self_time_subtracts_children(self):
        names = ["outer", "inner"]
        spans = [[0, 0.0, 10.0, -1, None], [1, 2.0, 5.0, 0, None],
                 [1, 6.0, 7.0, 0, None]]
        s = summarize(names, spans)
        self.assertAlmostEqual(s["outer"]["self"], 6.0)
        self.assertAlmostEqual(s["outer"]["total"], 10.0)
        self.assertAlmostEqual(s["inner"]["self"], 4.0)
        self.assertEqual(s["inner"]["calls"], 2)


class GateTest(unittest.TestCase):
    REF = {"a": ["pass", None], "b": ["skip", None], "c": ["pass", "0:abc"]}
    GOOD = [["a", "pass", None], ["b", "skip", None], ["c", "pass", "0:abc"]]

    def check(self, observations, exact=True):
        return gate(self.REF, observations, exact)[1]

    def test_accepts_the_reference_and_skip_to_pass(self):
        self.assertEqual(self.check(self.GOOD), [])
        self.assertEqual(self.check([["a", "pass", None], ["b", "pass", None],
                                     ["c", "pass", "0:abc"]]), [])

    def test_rejects_wrong_records(self):
        for k, status, value in ((0, "skip", None), (0, "fail", None),
                                 (2, "pass", "0:abd"), (2, "pass", "1:abc")):
            obs = [list(o) for o in self.GOOD]
            obs[k][1:] = [status, value]
            self.assertEqual(len(self.check(obs)), 1, obs)
        self.assertEqual(len(self.check(self.GOOD[:2])), 1)  # missing key
        self.assertEqual(self.check(self.GOOD[:2], exact=False), [])
        self.assertEqual(len(self.check(self.GOOD + [["d", "pass", None]])), 1)

    def test_rejects_wrong_exit_code_against_the_cli_reference(self):
        ref = json.loads((HERE / "ref" / "cli-point.json").read_text())["records"]
        argv = workloads.cli_commands(0)[0]
        code, digest = ref[" ".join(argv)][1].split(":")
        self.assertEqual(code, "0")
        good = workloads.cli_observation(argv, 0, b"")
        good[2] = f"0:{digest}"
        self.assertEqual(gate(ref, [good], False)[1], [])
        wrong = workloads.cli_observation(argv, 2, b"")
        self.assertEqual(len(gate(ref, [wrong], False)[1]), 1)

    def test_every_seed_stays_inside_the_cli_reference(self):
        ref = json.loads((HERE / "ref" / "cli-point.json").read_text())["records"]
        for seed in range(20):
            cmds = [" ".join(c) for c in workloads.cli_commands(seed)]
            self.assertEqual(len(cmds), 120)
            self.assertLessEqual(set(cmds), ref.keys())
        self.assertEqual(workloads.cli_commands(5), workloads.cli_commands(5))
        self.assertNotEqual(workloads.cli_commands(5), workloads.cli_commands(6))
        # twenty passes leave out every root of a rank-4 or rank-5 type
        # equally often
        per_pass = [workloads.cli_commands(5, k) for k in range(20)]
        for name in ("A4", "B5"):
            vj = [c for cmds in per_pass for c in cmds
                  if c[0] == "vj" and c[2] == name]
            counts = {}
            for c in vj:
                counts[c[4]] = counts.get(c[4], 0) + 1
            self.assertEqual(len(counts), workloads.type_rank(name))
            self.assertEqual(len(set(counts.values())), 1)


class SpeedTest(unittest.TestCase):
    def test_sampler_covers_the_work_and_accounts_for_its_time(self):
        sampler = Sampler()
        sampler.start()
        try:
            end = time.perf_counter() + 1.0
            while time.perf_counter() < end:
                sum(range(1000))
        finally:
            sampler.stop()
        self.assertGreaterEqual(len(sampler.samples), 10)
        self.assertAlmostEqual(sampler.spent, sum(sampler.samples), delta=0.05)
        self.assertLess(sampler.spent, 0.25)
        n = len(sampler.samples)
        sampler.top_up(n + 5)
        self.assertEqual(len(sampler.samples), n + 5)
        self.assertGreater(sampler.factor(), 0)
        mid = sampler.at[len(sampler.at) // 2]
        self.assertGreater(sampler.factor(mid, mid), 0)
        self.assertEqual(sampler.factor(-9.0, -8.0), sampler.factor())


class SmokeTest(unittest.TestCase):
    def test_smoke_configuration_finishes_in_seconds(self):
        calls = [["suite", {"types": ["A1", "A2"], "primes": [2],
                            "oracle_models": [[2, 2]]}],
                 ["battery", "weyl_battery", {"types": ["B2"]}],
                 ["qp", "A2", [0]],
                 ["cli", ["hecke", "--type", "A2", "--j", "1", "--p", "3"]]]
        tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        start = time.perf_counter()
        try:
            runner = Runner(tmp, calls)
            plain, traced = runner.child(), runner.child(trace=True)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.assertLess(time.perf_counter() - start, 30)
        for res in (plain, traced):
            self.assertEqual(len(res["query_s"]), len(calls))
            self.assertEqual([o for o in res["observations"] if o[1] == "fail"], [])
        self.assertGreater(plain["speed_factor"], 0)
        self.assertGreater(plain["setup_factor"], 0)
        self.assertIsNone(traced["speed_factor"])
        self.assertIsNone(traced["setup_factor"])
        self.assertEqual(plain["observations"], traced["observations"])
        names, spans = traced["trace"]["names"], traced["trace"]["spans"]
        top = {names[sp[0]] for sp in spans if sp[3] == -1}
        self.assertLessEqual({"suite.run_suite", "suite.weyl_battery",
                              "jsets.quasi_parabolic_sets", "roots.root_system",
                              "cli.cmd_hecke"}, top)
        metrics = layer_metrics(names, spans, 0)
        self.assertGreater(metrics["suite.hecke_s"], 0)
        self.assertGreater(metrics["cli.hecke_ms"], 0)
        self.assertGreater(metrics["jsets.qp_sets"], 0)


if __name__ == "__main__":
    unittest.main()
