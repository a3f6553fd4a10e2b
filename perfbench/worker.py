"""The timed process of the hermkq benchmark: one fresh interpreter per run.

    python3 perfbench/worker.py --inputs IN.jsonl --out OUT.jsonl --seconds 30

A closed loop with one client: each query is sent only after the previous
verdict came back.  Whole periods of rounds (see gen.PERIODS) run until
--seconds have passed (or, with --rounds, exactly that many rounds), so the
completed mix never depends on where the clock stopped.  Every query's report
goes to --out as one JSON line, written between queries so that memory stays
flat; the last line is a summary.
Set-up -- importing hermkq and parsing the first round -- ends when the first
query is issued; its monotonic timestamp is in the summary.  The reference
loop of speed.py is timed before the first query, every half second between
queries and after the last; its timings are in the summary, and its own time
is left out of the timed phase.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import signal
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
# the reference loop of speed.py is timed between queries this often
CALIBRATE_EVERY_S = 0.5
# a query still running after this long is stopped and counted as failed, so
# that one pathological input cannot take the whole run past its time limit
QUERY_LIMIT_S = 60


class QueryTimeout(Exception):
    pass


def _timeout(signum, frame):
    raise QueryTimeout(f"query ran longer than {QUERY_LIMIT_S} s")


def library_calls(hk):
    """The operations the CLI does not expose, called as a library user would."""

    def theta_of(doc):
        ring = hk.ring_from_json(doc["ring"])
        mats = [hk.Mat.from_strs(ring, m) for m in doc["coefficients"]]
        return ring, hk.PolyQuadForm.from_coeff_mats(ring, int(doc["epsilon"]), mats)

    def delta_of(doc):
        return hk.DeltaDatum.from_quadform(hk.form_from_json(doc))

    def soundness(args):
        _, theta = theta_of(args["theta"])
        almost, transcript = hk.linearize(theta)
        sound = hk.linearize_cup_soundness(theta, almost, transcript, delta_of(args["delta"]))
        return sound, {"sound": sound, "g": almost.g.to_strs(), "nilpotency_index": almost.index}

    def lemma2(args):
        ring, theta = theta_of(args["theta"])
        z = hk.MatPoly(ring, theta.n, theta.n, [hk.Mat.from_strs(ring, c) for c in args["z"]])
        shifted, witness = hk.lemma2_shift(theta, z, delta_of(args["delta"]))
        return True, {"theta": shifted.theta.to_strs(), "gamma": witness["gamma"].to_strs(),
                      "kappa_shifted": witness["kappa_shifted"].to_strs()}

    return {"linearize_cup_soundness": soundness, "lemma2_shift": lemma2}


def read_rounds(path):
    """Yield the header of an inputs file, then each round, parsed only when
    it is reached (the file is a header line and a line per round)."""
    with open(path, encoding="utf-8") as fh:
        yield json.loads(fh.readline())
        for line in fh:
            yield json.loads(line)


def run_query(q, cli, calls):
    """Run one query; return (status, report text, exception type or None).

    status is "ok", "failed" (a report with passed false, or a library check
    that came back false), "refused" (cap-exhausted or bad-input) or "raised".
    """
    buf = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    try:
        if "argv" in q:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(q["argv"]))
            status = {0: "ok", 1: "failed"}.get(rc, "refused")
            return status, buf.getvalue(), None
        passed, report = calls[q["call"]](q["args"])
        return ("ok" if passed else "failed"), json.dumps(report, sort_keys=True), None
    except (Exception, SystemExit) as exc:  # a crash is a verdict, never the end of the run
        return "raised", buf.getvalue(), type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="checkout holding src/hermkq")
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, help="run exactly this many rounds instead")
    ap.add_argument("--trace", help="trace layers and write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import hermkq
    from hermkq import caps, cli

    # set-up parses the header and round 0; later rounds are parsed as they start
    inputs = read_rounds(args.inputs)
    header = next(inputs)
    first = next(inputs, None)
    rounds = itertools.chain([] if first is None else [first], inputs)
    calls = library_calls(hermkq)
    signal.signal(signal.SIGALRM, _timeout)
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(hermkq)
    ready = time.monotonic()
    summary = {"ready_monotonic": ready}
    if args.setup_only:
        inputs.close()
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": summary}) + "\n")
        return 0

    env_before = dict(os.environ)
    cap_before = caps.global_cap()
    round_walls = []
    perf = time.perf_counter
    calibrations = [speed.loop_s()]
    calibrating = 0.0  # time spent on the reference loop inside the timed phase
    with open(args.out, "w", encoding="utf-8") as fh:
        start = last = perf()
        for r, queries in enumerate(rounds):
            if args.rounds is not None:
                if r >= args.rounds:
                    break
            elif perf() - start >= args.seconds and r % header["period"] == 0:
                break
            t_round = perf()
            for i, q in enumerate(queries):
                if args.rounds is None and perf() - start > args.seconds + QUERY_LIMIT_S:
                    break  # only pathological slowness gets here; the round is left partial
                if perf() - last >= CALIBRATE_EVERY_S:
                    t0 = perf()
                    calibrations.append(speed.loop_s())
                    last = perf()
                    calibrating += last - t0
                t0 = perf()
                status, text, exc = run_query(q, cli, calls)
                latency = perf() - t0
                # "cal": the last reference timing before the query
                fh.write(json.dumps({"r": r, "i": i, "kind": q["kind"], "latency_s": latency,
                                     "cal": len(calibrations) - 1, "status": status, "exc": exc,
                                     "report": text}) + "\n")
            round_walls.append(perf() - t_round)
        wall = perf() - start - calibrating
        calibrations.append(speed.loop_s())
        inputs.close()
        summary.update(
            wall_s=wall,
            calibrations_s=calibrations,
            round_walls_s=round_walls,
            rounds_available=header["rounds"],
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            env_unchanged=dict(os.environ) == env_before,
            cap_before=cap_before,
            cap_after=caps.global_cap(),
        )
        if tracer is not None:
            summary["layers"] = tracer.metrics()
            summary["trace_missing"] = tracer.missing
            summary["layers_dropped"] = tracer.dropped()
            tracer.dump(args.trace)
        fh.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
