"""The hermkq benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload isometry --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds `src/hermkq`.  Steps:

  1. gen.py turns the seed into plain inputs (its time is not measured);
  2. set-up is measured several times: a fresh interpreter imports hermkq,
     opens the inputs and parses their first round, from process start to
     the moment the first query would be issued;
  3. worker.py runs the closed loop in a fresh interpreter with cold caches,
     whole periods of rounds for --seconds (with --trace 1: a fixed number
     of rounds, once plain and once traced, for per-layer numbers and the
     overhead);
  4. check.py checks every answer, and the process-global state (os.environ
     and the enumeration cap) is compared before and after.

Every end-to-end time is scaled to a reference speed by the reference loop of
speed.py, timed around it, because the speed of a shared VM can drift by more
than the bounds within a minute.  The figures as measured go to standard
error.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A wrong answer, leaked global state or
a failed query (every generated input is valid) makes the exit code 1.
Without hermkq's source the benchmark exits with 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_run  # noqa: E402
from gen import read_inputs  # noqa: E402
from speed import REFERENCE_S, loop_s  # noqa: E402
from tracing import unit  # noqa: E402

WORKLOADS = ("isometry", "clauwens", "nilpotent")
SETUP_SAMPLES = 15
# rounds per traced run: whole periods of each workload's round pattern
# (isometry and nilpotent alternate two kinds of round, clauwens has a
# linearize every eighth), few enough that the plain and the traced pass
# together stay well inside the time limit
TRACE_ROUNDS = {"isometry": 2, "clauwens": 40, "nilpotent": 2}
DEFAULT_CAP = 2**20


def child_env(root):
    """Environment for the processes the benchmark starts.

    HERMKQ_CAP is dropped so every run uses the default cap, and the hash
    seed is fixed so that per-layer counts repeat exactly."""
    env = {k: v for k, v in os.environ.items() if k != "HERMKQ_CAP"}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(argv, env, timeout):
    proc = subprocess.run([sys.executable, *argv], env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{os.path.basename(argv[0])} exited with {proc.returncode}")
    return proc


def read_results(path):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return rows[:-1], rows[-1]["summary"]


def worker(root, env, inputs, out, extra, timeout):
    """Start a worker and return (results, summary, seconds from its start
    until it was ready for the first query)."""
    start = time.monotonic()
    run_child([os.path.join(HERE, "worker.py"), "--root", root, "--inputs", inputs,
               "--out", out, *extra], env, timeout)
    results, summary = read_results(out)
    return results, summary, summary["ready_monotonic"] - start


def percentile(values, p):
    """The p-th percentile (1..99) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(results, summary, setups):
    """The end-to-end metrics, with every time scaled to the reference speed
    (speed.py) by the reference timings taken before and after it."""
    cal = summary["calibrations_s"]
    latencies = [res["latency_s"] * 1000 * 2 * REFERENCE_S / (cal[res["cal"]] + cal[res["cal"] + 1])
                 for res in results]
    # time between queries (writing the results) is scaled by the median speed
    between = summary["wall_s"] - sum(res["latency_s"] for res in results)
    wall = sum(latencies) / 1000 + between * REFERENCE_S / statistics.median(cal)
    return {
        "queries_per_s": (len(results) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (percentile(latencies, 90), "ms"),
        "setup_s": (statistics.median(s * REFERENCE_S / c for s, c in setups), "s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB"),
    }


def unscaled(results, summary, setups):
    """The same figures as measured, for the log."""
    latencies = [res["latency_s"] * 1000 for res in results]
    cal = summary["calibrations_s"]
    return (f"unscaled: queries_per_s {len(results) / summary['wall_s']:.4g}, "
            f"latency_p50_ms {statistics.median(latencies):.4g}, "
            f"latency_p90_ms {percentile(latencies, 90):.4g}, "
            f"setup_s {statistics.median(s for s, _ in setups):.4g}; reference loop "
            f"{1000 * min(cal):.3g}-{1000 * max(cal):.3g} ms, median {1000 * statistics.median(cal):.3g}")


def state_problems(summary):
    out = []
    if not summary["env_unchanged"]:
        out.append("os.environ changed during the run")
    if summary["cap_after"] != summary["cap_before"] or summary["cap_before"] != DEFAULT_CAP:
        out.append(f"enumeration cap {summary['cap_before']} -> {summary['cap_after']}, "
                   f"expected {DEFAULT_CAP} throughout")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="hermkq benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        codes = [run_workload(argparse.Namespace(**dict(vars(args), workload=w)))
                 for w in WORKLOADS]
        return max(codes)
    return run_workload(args)


def run_workload(args):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hermkq", "__init__.py")):
        print("perfbench: no hermkq source under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work")
    os.makedirs(work, exist_ok=True)
    env = child_env(root)
    tag = f"{args.workload}-{args.seed}"
    inputs = os.path.join(work, f"inputs-{tag}.jsonl")
    run_child([os.path.join(HERE, "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", inputs], env, 120)
    out = os.path.join(work, f"results-{tag}.jsonl")
    timeout = args.seconds + 150
    if args.trace:
        extra = ["--rounds", str(TRACE_ROUNDS[args.workload])]
        plain = worker(root, env, inputs, out, extra, timeout)
        spans = os.path.join(work, f"spans-{tag}.jsonl")
        traced = worker(root, env, inputs, out + ".traced", extra + ["--trace", spans], timeout)
        runs = [plain, traced]
        layers = dict(traced[1]["layers"])
        if traced[1]["trace_missing"]:
            # a refactor removed or renamed a traced function: the metrics
            # built on it are left out rather than reported as 0
            print("perfbench: trace targets not found: " + ", ".join(traced[1]["trace_missing"])
                  + "; per-layer metrics dropped: " + ", ".join(traced[1]["layers_dropped"]),
                  file=sys.stderr)
        layers["trace.overhead_share"] = traced[1]["wall_s"] / plain[1]["wall_s"] - 1
        metrics = {k: (v, unit(k)) for k, v in layers.items()}
    else:
        setups = []  # (seconds, mean reference loop time around them)
        probe = os.path.join(work, f"setup-{tag}.jsonl")
        for _ in range(SETUP_SAMPLES):
            before = loop_s()
            seconds = worker(root, env, inputs, probe, ["--setup-only"], 60)[2]
            setups.append((seconds, (before + loop_s()) / 2))
        run = worker(root, env, inputs, out, ["--seconds", str(args.seconds)], timeout)
        runs = [run]
        if len(run[1]["round_walls_s"]) == run[1]["rounds_available"]:
            print(f"perfbench: the inputs ran out after {run[1]['wall_s']:.1f} s; "
                  "the metrics cover that shorter run", file=sys.stderr)
        metrics = end_to_end(run[0], run[1], setups)
        print("perfbench:", unscaled(run[0], run[1], setups), file=sys.stderr)

    # read only now: a worker's peak RSS counts what its parent held when it
    # was started
    rounds = read_inputs(inputs)
    problems, failures, attempted = [], [], 0
    for results, summary, _ in runs:
        p, f, _ = check_run(args.workload, args.seed, rounds, results)
        problems += p + state_problems(summary)
        failures += f
        attempted += len(results)
    for msg in (problems + failures)[:20]:
        print("perfbench:", msg, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
