"""Command-line entry point.

Every command reads JSON (inline or @file), runs the requested computation,
and prints a single report document embedding the input and the package
version.  Exit codes: 0 success, 1 a verified property failed (the report
carries the counterexample), 2 a refusal, reported as one of three errors:
`bad-input` (malformed input, or an @file that cannot be read),
`unsupported` (well-formed input that the computation does not cover) or
`cap-exhausted` (a search would pass the cap set by --cap, else HERMKQ_CAP,
else the default, or a fixed internal limit that --cap does not raise: the
ring size an additive basis is built for, and the spans of a generated
subring and of a projector's ideal), 3 `internal-check-failed` (an identity
the program checks on its own result failed: a fault in the program, not in
the input).  A reader that closes standard output early changes none of
these: the report is dropped and the exit code is still the verdict's.
Besides the group frame search, the cap bounds the listing of S(E) for an
enlarged group's preview, the scans of a ring's elements for a split unit or
the involution, and for a unit when the ring is not coded (a coded ring reads
its inverse table), and the cells of the Xi relations (their labels are in
`caps.check_cap`).
`python -m hermkq` runs this interface.
JSON output is deterministic; --format table renders a flat text view.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .caps import CapExceeded, Unsupported, scoped_cap
from .clauwens import (
    DeltaDatum,
    PolyQuadForm,
    _kappa_nondegenerate,
    cup_product,
    lemma4_recursion,
    linearize,
    projector_conjugator,
    sqrt_one_plus_nu_t,
)
from .forms import DegenerateFormError, HermForm, QuadFormEl, form_from_json, is_even
from .groups import enumerate_group, whitehead_factorization
from .invariants import (
    arf,
    arf_zero_count_oracle,
    dickson,
    gamma_lambda,
    grothendieck_witt_monoid,
    witt_classify,
    xi_char2_field,
    xi_group,
)
from .linalg import Mat
from .rings import ring_from_json
from .verify import SUITES, run_suites


def _load_json(arg: str):
    """Inline JSON, or the JSON in the file an @ names; a file that cannot be
    read is bad input (ValueError)."""
    if arg.startswith("@"):
        try:
            fh = open(arg[1:], "r", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read {arg[1:]!r}: {exc.strerror}") from exc
        with fh:
            return json.load(fh)
    return json.loads(arg)


def _print(text: str) -> None:
    """Print a line to standard output.  When its reader has gone (a closed
    pipe), the line is dropped and standard output is pointed at the null
    device, so that the flush at exit writes nowhere and raises nothing."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(command: str, input_doc, report, fmt: str, passed: bool) -> int:
    doc = {
        "tool": "hermkq",
        "version": __version__,
        "command": command,
        "input": input_doc,
        "passed": passed,
        "report": report,
    }
    if fmt == "table":
        _print(_tableize(doc))
    else:
        _print(json.dumps(doc, sort_keys=True, indent=2))
    return 0 if passed else 1


def _tableize(doc, prefix="") -> str:
    lines = []

    def walk(obj, key):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], f"{key}.{k}" if key else k)
        elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
            for i, item in enumerate(obj):
                walk(item, f"{key}[{i}]")
        else:
            lines.append(f"{key:<48} {obj}")

    walk(doc, prefix)
    return "\n".join(lines)


def _parse_quadform(doc) -> QuadFormEl:
    form = form_from_json(doc)
    if isinstance(form, HermForm):
        raise ValueError("a quadratic (el/min) form is required here")
    return form


def _parse_theta(doc) -> PolyQuadForm:
    ring = ring_from_json(doc["ring"])
    eps = int(doc.get("epsilon", 1))
    mats = [Mat.from_strs(ring, m) for m in doc["coefficients"]]
    return PolyQuadForm.from_coeff_mats(ring, eps, mats)


def cmd_ring_check(args, fmt):
    doc = _load_json(args.ring)
    ring = ring_from_json(doc)
    report = ring.verify_involution()
    out = report.to_json()
    lam = ring.find_split_unit() if ring.size is not None else None
    out["split_unit"] = ring.to_str(lam) if lam is not None else None
    return _emit("ring-check", doc, out, fmt, report.passed)


def cmd_form_check(args, fmt):
    doc = _load_json(args.form)
    form = form_from_json(doc)
    if isinstance(form, HermForm):
        phi0 = is_even(form)
        report = {
            "variant": "max",
            "rank": form.n,
            "nondegenerate": form.nondegenerate,
            "even": phi0 is not None,
            "even_witness": phi0.to_strs() if phi0 is not None else None,
        }
        ok = form.nondegenerate
    else:
        report = {
            "variant": doc.get("variant", "el"),
            "rank": form.n,
            "nondegenerate": form.nondegenerate,
            "associated_hermitian": form.associated().phi.to_strs(),
            "min_canonical": form.min_canonical().to_strs(),
        }
        ok = form.nondegenerate
    return _emit("form-check", doc, report, fmt, ok)


def cmd_group(args, fmt):
    doc = _load_json(args.form)
    form = form_from_json(doc) if args.variant == "max" else _parse_quadform(doc)
    group = enumerate_group(args.variant, form)
    ok = all(v for v in group.checks.values() if isinstance(v, bool))
    if group.extension is not None:
        ok = ok and group.extension["passed"]
    return _emit("group", doc, group.to_json(), fmt, ok)


def cmd_witt(args, fmt):
    ring_doc = _load_json(args.ring)
    ring = ring_from_json(ring_doc)
    table = witt_classify(ring, args.epsilon, args.variant, args.max_rank)
    if fmt == "table":
        _print(table.to_table())
        return 0
    return _emit(
        "witt",
        {"ring": ring_doc, "epsilon": args.epsilon, "variant": args.variant,
         "max_rank": args.max_rank},
        table.to_json(),
        fmt,
        True,
    )


def cmd_gw(args, fmt):
    ring_doc = _load_json(args.ring)
    ring = ring_from_json(ring_doc)
    table = grothendieck_witt_monoid(ring, args.epsilon, args.variant, args.max_rank)
    return _emit(
        "gw",
        {"ring": ring_doc, "epsilon": args.epsilon, "variant": args.variant,
         "max_rank": args.max_rank},
        table.to_json(),
        fmt,
        True,
    )


def cmd_arf(args, fmt):
    doc = _load_json(args.form)
    q = _parse_quadform(doc)
    value = arf(q)
    report = {"arf": q.ring.to_str(value)}
    if q.ring.size == 2:
        report["zero_count_oracle"] = q.ring.to_str(arf_zero_count_oracle(q))
        ok = report["arf"] == report["zero_count_oracle"]
    else:
        ok = True
    return _emit("arf", doc, report, fmt, ok)


def cmd_dickson(args, fmt):
    doc = _load_json(args.form)
    q = _parse_quadform(doc)
    f = Mat.from_strs(q.ring, _load_json(args.matrix))
    value = dickson(f, q)
    return _emit("dickson", {"form": doc, "matrix": f.to_strs()},
                 {"dickson": value}, fmt, True)


def cmd_xi(args, fmt):
    ring_doc = _load_json(args.ring)
    ring = ring_from_json(ring_doc)
    pres = xi_group(ring, args.epsilon)
    report = {"xi": pres.to_json(), "gamma_lambda": gamma_lambda(ring, args.epsilon).to_json()}
    ok = True
    if args.char2_oracle:
        oracle = xi_char2_field(ring)
        report["char2_oracle"] = oracle.to_json()
        ok = pres.same_group(oracle)
    return _emit("xi", {"ring": ring_doc, "epsilon": args.epsilon}, report, fmt, ok)


def cmd_whitehead(args, fmt):
    ring_doc = _load_json(args.ring)
    ring = ring_from_json(ring_doc)
    alpha = Mat.from_strs(ring, _load_json(args.alpha))
    beta = Mat.from_strs(ring, _load_json(args.beta))
    rep = whitehead_factorization(alpha, beta)
    return _emit(
        "whitehead",
        {"ring": ring_doc, "alpha": alpha.to_strs(), "beta": beta.to_strs()},
        rep,
        fmt,
        rep["passed"],
    )


def cmd_clauwens(args, fmt):
    sub = args.clauwens_command
    if sub == "product":
        theta_doc = _load_json(args.theta)
        delta_doc = _load_json(args.delta_form)
        theta = _parse_theta(theta_doc)
        d = DeltaDatum.from_quadform(_parse_quadform(delta_doc))
        kappa = cup_product(theta, d)
        report = {
            "kappa": kappa.phi0.to_strs(),
            "epsilon": kappa.eps,
            "rank": kappa.n,
            "nondegenerate": _kappa_nondegenerate(theta, d, kappa),
        }
        return _emit("clauwens product", {"theta": theta_doc, "delta": delta_doc},
                     report, fmt, report["nondegenerate"])
    if sub == "linearize":
        theta_doc = _load_json(args.theta)
        theta = _parse_theta(theta_doc)
        almost, transcript = linearize(theta)
        report = {
            "g": almost.g.to_strs(),
            "nilpotent": almost.nilpotent.to_strs(),
            "nilpotency_index": almost.index,
            "transcript": [
                {k: v for k, v in step.items() if not k.startswith("_")}
                for step in transcript
            ],
        }
        return _emit("clauwens linearize", theta_doc, report, fmt, True)
    if sub == "lemma4":
        ring = ring_from_json(_load_json(args.ring))
        sigma = Mat.from_strs(ring, _load_json(args.sigma))
        d = DeltaDatum.from_quadform(_parse_quadform(_load_json(args.delta_form)))
        zeta = Mat.from_strs(ring, _load_json(args.zeta))
        rep = lemma4_recursion(sigma, d, zeta, depth=args.depth)
        report = {
            "nilpotency_index": rep["nilpotency_index"],
            "steps": rep["steps"],
            "residual_zero": rep["residual_zero"],
            "passed": rep["passed"],
        }
        return _emit("clauwens lemma4", {"sigma": sigma.to_strs(), "depth": args.depth},
                     report, fmt, rep["passed"])
    if sub == "sqrt-nilpotent":
        ring = ring_from_json(_load_json(args.ring))
        nu = Mat.from_strs(ring, _load_json(args.nu))
        lam = ring.from_str(args.split_unit) if args.split_unit else ring.find_split_unit()
        gamma, rep = sqrt_one_plus_nu_t(nu, lam)
        report = dict(rep)
        report["gamma"] = gamma.to_strs()
        return _emit("clauwens sqrt-nilpotent", {"nu": nu.to_strs()},
                     report, fmt, rep["passed"])
    if sub == "conjugate-projectors":
        ring = ring_from_json(_load_json(args.ring))
        p0 = Mat.from_strs(ring, _load_json(args.p0))
        p1 = Mat.from_strs(ring, _load_json(args.p1))
        gens = [Mat.from_strs(ring, g) for g in _load_json(args.ideal)]
        gram = Mat.from_strs(ring, _load_json(args.gram)) if args.gram else None
        alpha, rep = projector_conjugator(p0, p1, gens, gram=gram)
        report = dict(rep)
        report["alpha"] = alpha.to_strs()
        return _emit("clauwens conjugate-projectors",
                     {"p0": p0.to_strs(), "p1": p1.to_strs()},
                     report, fmt, rep["passed"])
    raise ValueError(f"unknown clauwens subcommand {sub!r}")


def cmd_verify(args, fmt):
    names = args.suites or ["all"]
    report = run_suites(names)
    if fmt == "table":
        for suite in report["suites"]:
            status = "PASS" if suite["passed"] else "FAIL"
            _print(f"criterion {suite['criterion']:>2}  {suite['name']:<28} {status}"
                   f"  ({suite['seconds']}s)")
        _print("all passed" if report["passed"] else "FAILURES present")
        return 0 if report["passed"] else 1
    return _emit("verify", {"suites": names}, report, fmt, report["passed"])


_RING_SHORTCUTS = {
    "F2": '{"kind":"Fp","p":2}',
    "F4": '{"kind":"Fq","p":2,"deg":2,"modulus":[1,1,1],"involution":"frobenius"}',
}


def _expand_ring(arg: str) -> str:
    return _RING_SHORTCUTS.get(arg, arg)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call; later calls return the same one."""
    parser = argparse.ArgumentParser(
        prog="hermkq",
        description="Exact calculator for quadratic and hermitian forms over "
        "finite rings with involution",
    )
    parser.add_argument("--format", choices=["json", "table"], default="json")
    parser.add_argument("--cap", type=int,
                        help="override the enumeration cap for this call only; "
                             "group searches count search nodes against it: "
                             "|R|^n columns, then one per inner product formed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring-check", help="verify the involution axioms of a ring")
    p.add_argument("--ring", required=True)

    p = sub.add_parser("form-check", help="validate a form document")
    p.add_argument("--form", required=True)

    p = sub.add_parser("group", help="enumerate an orthogonal group")
    p.add_argument("--form", required=True)
    p.add_argument("--variant", choices=["max", "min", "el"], default="min")

    for name in ("witt", "gw"):
        p = sub.add_parser(name, help=f"{name} classification by enumeration")
        p.add_argument("--ring", required=True)
        p.add_argument("--epsilon", type=int, default=1, choices=[1, -1])
        p.add_argument("--variant", choices=["min", "max", "el"], default="min")
        p.add_argument("--max-rank", type=int, default=4)

    p = sub.add_parser("arf", help="Arf invariant of a quadratic form")
    p.add_argument("--form", required=True)

    p = sub.add_parser("dickson", help="Dickson invariant of an orthogonal matrix")
    p.add_argument("--form", required=True)
    p.add_argument("--matrix", required=True)

    p = sub.add_parser("xi", help="the Xi obstruction group; needs 2*Lambda = 0, as in "
                       "characteristic 2 or over Z/4, and reports unsupported otherwise")
    p.add_argument("--ring", required=True)
    p.add_argument("--epsilon", type=int, default=1, choices=[1, -1])
    p.add_argument("--char2-oracle", action="store_true")

    p = sub.add_parser("whitehead", help="stabilized commutator identities")
    p.add_argument("--ring", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    p = sub.add_parser("clauwens", help="cup-product machinery")
    csub = p.add_subparsers(dest="clauwens_command", required=True)
    c = csub.add_parser("product")
    c.add_argument("--theta", required=True)
    c.add_argument("--delta-form", required=True)
    c = csub.add_parser("linearize")
    c.add_argument("--theta", required=True)
    c = csub.add_parser("lemma4")
    c.add_argument("--ring", required=True)
    c.add_argument("--sigma", required=True)
    c.add_argument("--delta-form", required=True)
    c.add_argument("--zeta", required=True)
    c.add_argument("--depth", type=int, required=True)
    c = csub.add_parser("sqrt-nilpotent")
    c.add_argument("--ring", required=True)
    c.add_argument("--nu", required=True)
    c.add_argument("--split-unit")
    c = csub.add_parser("conjugate-projectors")
    c.add_argument("--ring", required=True)
    c.add_argument("--p0", required=True)
    c.add_argument("--p1", required=True)
    c.add_argument("--ideal", required=True)
    c.add_argument("--gram")

    p = sub.add_parser("verify", help="run the bundled verification suites")
    p.add_argument("suites", nargs="*", help=f"suite names or 'all': {', '.join(SUITES)}")
    return parser


_DISPATCH = {
    "ring-check": cmd_ring_check,
    "form-check": cmd_form_check,
    "group": cmd_group,
    "witt": cmd_witt,
    "gw": cmd_gw,
    "arf": cmd_arf,
    "dickson": cmd_dickson,
    "xi": cmd_xi,
    "whitehead": cmd_whitehead,
    "clauwens": cmd_clauwens,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cap is not None and args.cap <= 0:
        _print(json.dumps({"error": "bad-input",
                           "message": f"--cap must be positive, got {args.cap}"}))
        return 2
    for attr in ("ring",):
        if hasattr(args, attr) and getattr(args, attr):
            setattr(args, attr, _expand_ring(getattr(args, attr)))
    try:
        with scoped_cap(args.cap):
            return _DISPATCH[args.command](args, args.format)
    except CapExceeded as exc:
        _print(json.dumps({"error": "cap-exhausted", "message": str(exc)}))
        return 2
    except Unsupported as exc:
        _print(json.dumps({"error": "unsupported", "message": str(exc)}))
        return 2
    except (ValueError, KeyError, json.JSONDecodeError, DegenerateFormError) as exc:
        _print(json.dumps({"error": "bad-input", "message": str(exc)}))
        return 2
    except AssertionError as exc:
        _print(json.dumps({"error": "internal-check-failed", "message": str(exc)}))
        return 3
