"""Verdict checking for the hermkq benchmark.

Each answer is checked three ways:
  * against facts known in closed form, which the generator attaches as
    `expect` (classical group orders such as |Sp4(2)| = 720, |O-4(2)| = 120,
    |U2(2)| = 18; Arf invariants from an independent zero count; Dickson
    invariants from rank(f + 1) mod 2), and against congruence classes: every
    query tagged with the same class must report the same group order;
  * against the report's own `passed` flag, which carries the oracles already
    in hermkq (for example `arf_zero_count_oracle` for Arf over F2);
  * against a digest of every round's answers, recorded at the seed in
    digests.json.  Only facts that do not depend on how an answer was found
    are hashed: group orders and checks, invariants, class counts, the
    reports' own checks.  Witnesses, element previews, representatives and
    transcripts are left out, so a faster search that finds other witnesses
    still matches.

A query that raises or is refused is a failure, counted with its exception
type; it is not a wrong answer, but every generated input is valid, so a
failure fails the run too.  A wrong answer makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")

# expect key -> where the value sits in a CLI document or library report
FIELDS = {
    "order": ("report", "order"),
    "arf": ("report", "arf"),
    "dickson": ("report", "dickson"),
    "nondegenerate": ("report", "nondegenerate"),
    "nilpotency_index": ("report", "nilpotency_index"),
    "residual_zero": ("report", "residual_zero"),
    "sound": ("sound",),
}


def _field(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


# per CLI command: report fields that are the answer itself.  Booleans at the
# top level of a report are the report's own checks and are always kept.
ANSWER_FIELDS = {
    "group": ("order", "variant"),
    "arf": ("arf", "zero_count_oracle"),
    "dickson": ("dickson",),
    "form-check": ("variant", "rank"),
    "clauwens product": ("epsilon", "rank"),
    "clauwens lemma4": ("nilpotency_index",),
    "clauwens sqrt-nilpotent": ("nilpotency_index",),
}
GROUP_CHECKS = ("identity", "inverses", "closure")
EXTENSION_FIELDS = ("order_min", "order_kernel", "order_el", "passed")


def facts(text):
    """The part of a report that does not depend on the search that found it."""
    try:
        doc = json.loads(text)
    except ValueError:
        return text
    if "command" not in doc:  # a library call's report
        return {k: v for k, v in doc.items() if isinstance(v, bool)}
    cmd, rep = doc["command"], doc["report"]
    out = {"passed": doc["passed"]}
    out.update((k, v) for k, v in rep.items() if isinstance(v, bool))
    out.update((k, rep[k]) for k in ANSWER_FIELDS.get(cmd, ()) if k in rep)
    if cmd == "group":
        out["checks"] = {k: rep["checks"].get(k) for k in GROUP_CHECKS}
        if "extension" in rep:
            out["extension"] = {k: rep["extension"].get(k) for k in EXTENSION_FIELDS}
    elif cmd == "witt":
        out["orbit_sizes"] = {r: sorted(s) for r, s in rep["orbits_per_rank"].items()}
        out["classes"] = sorted([c["min_rank"], c["orbit_size"], str(c.get("arf"))]
                                for c in rep["stable_classes"])
    elif cmd == "gw":
        out["classes"] = sorted([c["rank"], c["orbit_size"]] for c in rep["classes"])
    elif cmd == "xi":
        out["xi"] = {k: rep["xi"][k] for k in ("group", "invariant_factors", "free_rank")}
        out["gamma_lambda"] = {k: rep["gamma_lambda"][k]
                               for k in ("gamma_order", "lambda_order", "quotient_order")}
    return out


def round_digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(json.dumps(facts(text), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def load_digests():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_run(workload, seed, rounds, results):
    """Check one run's results against its generated rounds.

    Returns (problems, failures, digests): wrong answers as messages, failed
    queries as messages, and the digest of every completed round."""
    problems, failures = [], []
    orders = {}
    texts = {}
    for res in results:
        r, i = res["r"], res["i"]
        q = rounds[r][i]
        where = f"round {r} query {i} ({q['kind']})"
        texts.setdefault(r, []).append(res["report"])
        if res["status"] == "raised":
            failures.append(f"{where}: raised {res['exc']}")
            continue
        if res["status"] == "refused":
            failures.append(f"{where}: refused: {res['report'].strip()[:200]}")
            continue
        doc = json.loads(res["report"])
        if res["status"] == "failed" or ("argv" in q and doc.get("passed") is not True):
            failures.append(f"{where}: report says passed false")
            problems.append(f"{where}: report says passed false")
            continue
        for key, want in q.get("expect", {}).items():
            got = _field(doc, FIELDS[key])
            if got != want:
                problems.append(f"{where}: {key} is {got!r}, expected {want!r}")
        if "cls" in q:
            got = _field(doc, ("report", "order"))
            first = orders.setdefault(q["cls"], (got, where))
            if first[0] != got:
                problems.append(f"{where}: order {got} differs from {first[1]} in the same class")
    digests = [round_digest(texts[r]) for r in sorted(texts) if len(texts[r]) == len(rounds[r])]
    recorded = load_digests().get(workload, {}).get(str(seed), [])
    for r, (got, want) in enumerate(zip(digests, recorded)):
        if got != want:
            problems.append(f"round {r}: report digest {got} differs from the one recorded at seed {seed}")
    return problems, failures, digests
