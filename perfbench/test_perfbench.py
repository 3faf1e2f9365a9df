#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # fast checks
    PERFBENCH_SLOW=1 python3 perfbench/test_perfbench.py   # plus real runs

The fast tests check BENCHMARK.json against the benchmark's contract
and the comparison logic on synthetic records. The slow tests build
and run the benchmark: two sets of runs of unchanged code must pass
compare.py, and a set with a 30% slowdown injected into every timed
pipeline pass (through the harness, not the library) must be flagged
on pipeline_s and on no other metric. They also check that the benchmark
refuses to run, without printing a result, where no sources are.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SLOW = os.environ.get("PERFBENCH_SLOW") == "1"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def synthetic_record(workload, seed, rng, scale=None, host="cpu-a"):
    """A record whose metrics scatter by a sixth of their bound."""
    scale = scale or {}
    metrics = {}
    for m in BENCHMARK["end_to_end"]:
        noise = 1.0 + rng.uniform(-1.0, 1.0) * m["bound"] / 6
        value = 100.0 * noise * scale.get(m["name"], 1.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    info = {"run.workload": workload, "run.seed": str(seed),
            "run.trace": "0", "host.cpu": host, "host.nproc": "4",
            "host.threads": "4", "host.compiler": "GNU 12.2.0",
            "host.build_type": "Release", "pipeline.csv_digest": "a3747a41"}
    return {"info": info, "failures": [],
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": metrics}}


def synthetic_set(rng, seeds=range(10), **kwargs):
    return [synthetic_record(w["name"], seed, rng, **kwargs)
            for w in BENCHMARK["workloads"] for seed in seeds]


class ContractTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(BENCHMARK["paths"], ["perfbench"])
        self.assertEqual(BENCHMARK["command"][:2],
                         ["python3", "perfbench/run.py"])
        self.assertTrue(1 <= BENCHMARK["run_seconds"] <= 60)
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(names, ["pipeline", "train"])
        seen = set()
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for group in ("end_to_end", "per_layer"):
            for m in BENCHMARK[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
                self.assertIn(m["better"], ("higher", "lower"))
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bounds.values()))

    def test_pipeline_bound_catches_a_30_percent_slowdown(self):
        pipeline = next(m for m in BENCHMARK["end_to_end"]
                        if m["name"] == "pipeline_s")
        self.assertLess(pipeline["bound"], 0.3)


class CompareTest(unittest.TestCase):
    def test_unchanged_passes(self):
        rng = random.Random(1)
        rows, failures, changed = compare.compare(
            synthetic_set(rng), synthetic_set(rng), BENCHMARK)
        self.assertEqual(failures, [])
        self.assertEqual(changed, [])
        self.assertEqual({r["verdict"] for r in rows}, {"ok"})

    def test_slowdown_is_flagged_only_where_injected(self):
        rng = random.Random(2)
        base = synthetic_set(rng)
        head = synthetic_set(rng, scale={"pipeline_s": 1.3})
        rows, failures, _ = compare.compare(base, head, BENCHMARK)
        self.assertEqual(failures, [])
        flagged = {(r["workload"], r["metric"]) for r in rows
                   if r["verdict"] == "REGRESSED"}
        self.assertEqual(flagged, {(w["name"], "pipeline_s")
                                   for w in BENCHMARK["workloads"]})

    def test_other_host_makes_wall_clock_informational(self):
        rng = random.Random(3)
        base = synthetic_set(rng)
        head = synthetic_set(rng, scale={"fit_s": 1.5, "cv_mae": 1.5},
                             host="cpu-b")
        rows, _, _ = compare.compare(base, head, BENCHMARK)
        verdict = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
        self.assertEqual(verdict[("train", "fit_s")], "info")
        self.assertEqual(verdict[("train", "cv_mae")], "REGRESSED")

    def test_shared_seeds_are_paired_and_cancel_host_drift(self):
        # Every seed runs on a host 25% slower than the last, on both
        # sides alike: pairing by seed sees no change.
        rng = random.Random(5)
        base, head = synthetic_set(rng), synthetic_set(rng)
        for record in base + head:
            drift = 1.25 ** int(record["info"]["run.seed"])
            for metric in record["result"]["metrics"].values():
                metric["value"] *= drift
        rows, failures, _ = compare.compare(base, head, BENCHMARK)
        self.assertEqual(failures, [])
        self.assertEqual({r["paired"] for r in rows}, {True})
        self.assertEqual({r["verdict"] for r in rows}, {"ok"})

    def test_distinct_seeds_compare_medians(self):
        rng = random.Random(6)
        base = synthetic_set(rng, seeds=range(10))
        head = synthetic_set(rng, seeds=range(10, 20),
                             scale={"fit_s": 1.5})
        rows, failures, _ = compare.compare(base, head, BENCHMARK)
        self.assertEqual(failures, [])
        self.assertEqual({r["paired"] for r in rows}, {False})
        flagged = {(r["workload"], r["metric"]) for r in rows
                   if r["verdict"] == "REGRESSED"}
        self.assertEqual(flagged, {(w["name"], "fit_s")
                                   for w in BENCHMARK["workloads"]})

    def test_unstable_digest_fails(self):
        rng = random.Random(4)
        head = synthetic_set(rng)
        head[3]["info"]["pipeline.csv_digest"] = "deadbeef"
        _, failures, changed = compare.compare(synthetic_set(rng), head,
                                               BENCHMARK)
        self.assertTrue(any("pipeline.csv_digest" in f for f in failures))
        self.assertEqual(changed, ["pipeline.csv_digest"])


def run_once(directory, seed, workload, inject=None):
    directory.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds",
               str(BENCHMARK["run_seconds"]), "--trace", "0",
               "--out", str(directory / f"{seed}.json")]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(done.stdout[-2000:] + done.stderr[-2000:])


@unittest.skipUnless(SLOW, "set PERFBENCH_SLOW=1 to build and run")
class RealRunTest(unittest.TestCase):
    """Real runs of the pipeline workload: two sets of unchanged code
    agree, and a 30% slowdown injected into each timed pipeline pass
    is flagged on pipeline_s only. The three sets are interleaved seed
    by seed, rotating which goes first, so that a host whose speed
    drifts over minutes affects them alike."""

    SEEDS = range(1, 6)
    SETS = (("base", None), ("head", None), ("slow", "pipeline=0.3"))

    @classmethod
    def setUpClass(cls):
        cls.work = ROOT / ".bench_build" / "selftest"
        shutil.rmtree(cls.work, ignore_errors=True)
        for i, seed in enumerate(cls.SEEDS):
            for name, inject in cls.SETS[i % 3:] + cls.SETS[:i % 3]:
                run_once(cls.work / name, seed, "pipeline", inject)

    def verdicts(self, head):
        benchmark = dict(BENCHMARK, workloads=[{"name": "pipeline",
                                                "why": ""}])
        rows, failures, changed = compare.compare(
            compare.load_records(self.work / "base"),
            compare.load_records(self.work / head), benchmark)
        self.assertEqual(failures, [])
        self.assertEqual(changed, [])
        return {r["metric"]: r["verdict"] for r in rows}

    def test_unchanged_code_passes(self):
        self.assertNotIn("REGRESSED", self.verdicts("head").values())

    def test_injected_slowdown_flags_pipeline_s_only(self):
        verdicts = self.verdicts("slow")
        self.assertEqual([m for m, v in verdicts.items()
                          if v == "REGRESSED"], ["pipeline_s"])


@unittest.skipUnless(SLOW, "set PERFBENCH_SLOW=1 to build and run")
class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train",
             "--seed", "1", "--seconds", "10", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
