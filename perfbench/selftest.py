"""Tests of the benchmark itself (not of hermkq).

    python3 perfbench/selftest.py        # from the repository root

They check that the generator is deterministic and its arithmetic agrees with
hermkq's, that its inputs outlast a run several times over, that every metric
and workload name is well formed, that per-layer counts repeat exactly for a
seed, that the checker rejects a planted wrong answer, and that a benchmark
run leaves `git status` as it found it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
from check import check_run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORK = os.path.join(HERE, "work")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def query_key(q):
    return json.dumps(q.get("argv") or [q["call"], q["args"]], sort_keys=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_and_distinct_queries(self):
        for workload in gen.GENERATORS:
            a = json.dumps(gen.generate(workload, 5), sort_keys=True)
            b = json.dumps(gen.generate(workload, 5), sort_keys=True)
            self.assertEqual(a, b, workload)
            rounds = json.loads(a)["rounds"]
            keys = [query_key(q) for rnd in rounds for q in rnd]
            self.assertEqual(len(keys), len(set(keys)), workload)
            self.assertNotEqual(a, json.dumps(gen.generate(workload, 6), sort_keys=True))
            # every round has the same kinds in the same order, except for
            # the one slot with a small input space, which skips some rounds
            self.assertLessEqual(len({tuple(q["kind"] for q in rnd) for rnd in rounds}), 2)

    def test_inputs_outlast_a_much_faster_run(self):
        # a 25 s run at the seed uses about 4 isometry, 4 nilpotent and 400
        # clauwens rounds (6, 6 and 500 at most); the inputs must last four
        # times as long
        used = {"isometry": 6, "nilpotent": 6, "clauwens": 500}
        for workload in gen.GENERATORS:
            for seed in (1, 2, 3):
                rounds = gen.generate(workload, seed)["rounds"]
                self.assertGreaterEqual(len(rounds), 4 * used[workload], (workload, seed))

    def test_ring_arithmetic_matches_hermkq(self):
        from hermkq import ring_from_json

        for name, arith in gen.RINGS.items():
            ring = ring_from_json(arith.spec)
            self.assertEqual([ring.to_str(e) for e in ring.elements()],
                             [arith.to_str(e) for e in arith.elements], name)
            for a in arith.elements:
                for b in arith.elements:
                    self.assertEqual(ring.to_str(ring.mul(ring.from_str(arith.to_str(a)),
                                                          ring.from_str(arith.to_str(b)))),
                                     arith.to_str(arith.mul(a, b)), name)
                self.assertEqual(ring.to_str(ring.conj(ring.from_str(arith.to_str(a)))),
                                 arith.to_str(arith.conj(a)), name)

    def test_sweep_matches_verify(self):
        from hermkq.verify import clauwens_sweep

        def trimmed(coeffs):  # hermkq drops zero top coefficients
            coeffs = list(coeffs)
            while coeffs and all(x == "0" for row in coeffs[-1] for x in row):
                coeffs.pop()
            return json.dumps(coeffs)

        thetas, deltas = gen.clauwens_sweep()
        _, lib_thetas, lib_deltas = clauwens_sweep()
        self.assertEqual(len(thetas), 516)
        self.assertEqual(sorted(trimmed(gen.theta_doc(t)["coefficients"]) for t in thetas),
                         sorted(trimmed(t.theta.to_strs()) for t in lib_thetas))
        self.assertEqual(len(deltas), len(lib_deltas))


class NamesTest(unittest.TestCase):
    def test_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(gen.GENERATORS))


class CheckerTest(unittest.TestCase):
    def test_planted_wrong_order_is_rejected(self):
        rounds = gen.generate("isometry", 1)["rounds"]
        i, q = next((i, q) for i, q in enumerate(rounds[0]) if q["kind"] == "group.F2r4.max")
        self.assertEqual(q["expect"], {"order": 720})
        doc = {"passed": True, "report": {"order": 720, "variant": "max"}}
        good = {"r": 0, "i": i, "status": "ok", "exc": None, "report": json.dumps(doc)}
        self.assertEqual(check_run("isometry", -1, rounds, [good])[0], [])
        doc["report"]["order"] = 719
        bad = dict(good, report=json.dumps(doc))
        problems = check_run("isometry", -1, rounds, [bad])[0]
        self.assertTrue(any("719" in p for p in problems), problems)


class RunTest(unittest.TestCase):
    def test_traced_counts_repeat_and_tree_stays_clean(self):
        def status():
            out = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                                 cwd=ROOT, stdout=subprocess.PIPE, text=True)
            return out.stdout if out.returncode == 0 else None

        before = status()
        runs = []
        for _ in range(2):
            proc = bench("--workload", "clauwens", "--seed", "4", "--seconds", "5", "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        self.assertTrue(all(r["correct"] and r["failed"] == 0 for r in runs))
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in runs]
        self.assertTrue(counts[0] and counts[0] == counts[1])
        self.assertEqual(before, status())

    def test_without_source_exits_nonzero_silently(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "isometry",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                  timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
