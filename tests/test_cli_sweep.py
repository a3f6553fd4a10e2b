"""A deterministic sweep of CLI commands over every ring kind.

Each case runs through `main` under `--cap 4096`.  Whatever the answer, the
exit code is in the documented set, stdout holds exactly one JSON document,
a refusal carries one of the four error labels, no exception escapes `main`,
and neither os.environ nor the cap is changed.  A quadratic form or ring
outside the domain of `arf`, `dickson` or `xi --char2-oracle` is refused as
`unsupported`, every `cap-exhausted` message names its cap, a max or min
group certified with exit 0 took at most 2(|G| - 1) products and log2|G|
generators, and each case ends within a second, the xi cases at reach
(|Gamma/Lambda| = 16) too.
"""

import contextlib
import io
import json
import math
import os
import time

import pytest

from hermkq.caps import global_cap
from hermkq.cli import main
from hermkq.rings import ring_from_json

F2 = {"kind": "Fp", "p": 2}
RINGS = {
    "F2": F2,
    "F3": {"kind": "Fp", "p": 3},
    "F4": {"kind": "Fq", "p": 2, "deg": 2, "modulus": [1, 1, 1], "involution": "frobenius"},
    "Z4": {"kind": "Zn", "n": 4},
    "Z6": {"kind": "Zn", "n": 6},
    "Dual-F2": {"kind": "Dual", "base": F2},
    "Mat2-F2": {"kind": "Mat2", "base": F2},
    "ProductOp-F3": {"kind": "ProductOp", "base": {"kind": "Fp", "p": 3}},
    "PolyS-F2": {"kind": "PolyS", "base": F2},
    "TruncPoly-F2": {"kind": "TruncPoly", "base": F2, "k": 2},
}
ERRORS = {"bad-input", "unsupported", "cap-exhausted", "internal-check-failed"}


def cases(spec):
    """Every argv of the sweep over one ring."""
    ring = ring_from_json(spec)
    one, zero = ring.to_str(ring.one), ring.to_str(ring.zero)
    minus = ring.to_str(ring.neg(ring.one))
    ring_arg = json.dumps(spec)
    ident = json.dumps([[one, zero], [zero, one]])
    out = [
        ["ring-check", "--ring", ring_arg],
        ["whitehead", "--ring", ring_arg, "--alpha", json.dumps([[one, one], [zero, one]]),
         "--beta", json.dumps([[one, zero], [one, one]])],
        ["clauwens", "sqrt-nilpotent", "--ring", ring_arg,
         "--nu", json.dumps([[one, one], [one, one]])],
    ]
    for eps, e in ((1, one), (-1, minus)):
        plane = {"el": [[zero, one], [zero, zero]], "min": [[zero, one], [zero, zero]],
                 "max": [[zero, one], [e, zero]]}
        for doc_variant, matrix in plane.items():
            form = json.dumps({"ring": spec, "epsilon": eps, "variant": doc_variant,
                               "matrix": matrix})
            out += [["group", "--form", form, "--variant", v] for v in ("max", "min", "el")]
            out += [["form-check", "--form", form], ["arf", "--form", form],
                    ["dickson", "--form", form, "--matrix", ident]]
        for command in ("witt", "gw"):
            out += [[command, "--ring", ring_arg, "--epsilon", str(eps), "--variant", v,
                     "--max-rank", "2"] for v in ("min", "max", "el")]
        out += [["xi", "--ring", ring_arg, "--epsilon", str(eps)],
                ["xi", "--ring", ring_arg, "--epsilon", str(eps), "--char2-oracle"]]
    return out


def outside_domain(argv, ring):
    """Whether argv asks arf, dickson or the char-2 xi oracle about a ring
    they do not cover: one that is not a field of characteristic 2 with the
    trivial involution.  A max document holds no quadratic form, so arf and
    dickson refuse it as `bad-input` first."""
    command = argv[0]
    if command == "xi":
        if "--char2-oracle" not in argv:
            return False
    elif command not in ("arf", "dickson") or json.loads(argv[2])["variant"] == "max":
        return False
    return not (ring.is_field and ring.char == 2 and ring.trivial_involution)


def run_case(argv, ring):
    """One case through `main` under `--cap 4096`, with the sweep's checks
    and a bound of one second; returns the exit code and the JSON document."""
    env, cap = dict(os.environ), global_cap()
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(["--cap", "4096", *argv])
    assert time.perf_counter() - start < 1.0, argv
    assert code in (0, 1, 2, 3), argv
    doc = json.loads(buf.getvalue())
    if "error" in doc:
        assert doc["error"] in ERRORS, (argv, doc)
        assert code in (2, 3), argv
    if doc.get("error") == "cap-exhausted":
        assert "exceeds cap" in doc["message"], (argv, doc)
    if outside_domain(argv, ring):
        assert doc.get("error") == "unsupported", (argv, doc)
    if argv[0] == "group" and argv[-1] in ("max", "min") and code == 0:
        order, checks = doc["report"]["order"], doc["report"]["checks"]
        assert checks["closure_products"] <= 2 * (order - 1), (argv, checks)
        assert checks["closure_generators"] <= math.log2(order), (argv, checks)
    assert dict(os.environ) == env, argv
    assert global_cap() == cap, argv
    return code, doc


@pytest.mark.parametrize("name", list(RINGS))
def test_cli_sweep(name):
    ring = ring_from_json(RINGS[name])
    argvs = cases(RINGS[name])
    assert len(argvs) == 55
    for argv in argvs:
        run_case(argv, ring)


Z4 = {"kind": "Zn", "n": 4}
# |Gamma/Lambda| = 16 at epsilon 1, where a presentation on all k^2 pairs of
# representatives runs for minutes
XI_AT_REACH = {
    "Dual-Z4+e": {"kind": "Dual", "base": Z4, "conj_e": "+e"},
    "Z16": {"kind": "Zn", "n": 16},
    "TruncPoly-Z4+t": {"kind": "TruncPoly", "base": Z4, "k": 2, "conj_t": "+t"},
}


@pytest.mark.parametrize("name", list(XI_AT_REACH))
def test_cli_xi_at_reach(name):
    argv = ["xi", "--ring", json.dumps(XI_AT_REACH[name]), "--epsilon", "1"]
    code, doc = run_case(argv, ring_from_json(XI_AT_REACH[name]))
    assert code == 0
    assert doc["report"]["xi"]["group"] == "Z/2"
