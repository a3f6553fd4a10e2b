import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from hermkq import caps, cli
from hermkq.cli import main
from hermkq.rings import Ring


RING_F2 = '{"kind":"Fp","p":2}'
RING_F4 = '{"kind":"Fq","p":2,"deg":2,"modulus":[1,1,1],"involution":"frobenius"}'
HYP_F2 = json.dumps(
    {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1, "variant": "el",
     "matrix": [["0", "1"], ["0", "0"]]}
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ring_check(capsys):
    code, out = run(capsys, "ring-check", "--ring", RING_F4)
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] and doc["report"]["violations"] == []
    assert doc["report"]["split_unit"] == "w"


def test_ring_check_shortcut_and_malformed(capsys):
    code, _ = run(capsys, "ring-check", "--ring", "F4")
    assert code == 0
    code, out = run(capsys, "ring-check", "--ring", '{"kind":"Oops"}')
    assert code == 2
    assert json.loads(out)["error"] == "bad-input"


def test_form_check(capsys):
    code, out = run(capsys, "form-check", "--form", HYP_F2)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["nondegenerate"] is True


def test_group_command(capsys):
    code, out = run(capsys, "group", "--form", HYP_F2, "--variant", "el")
    assert code == 0
    doc = json.loads(out)
    # O+2(2) times the 8 symmetric 2 x 2 matrices over F2
    assert doc["report"]["order"] == 8 * oracles.orthogonal_order(1, 2, 1)
    assert doc["report"]["extension"]["order_min"] == oracles.orthogonal_order(1, 2, 1)


# the hyperbolic plane as each document variant; max carries phi = phi0 + phi0^*
_PLANE = {"el": [["0", "1"], ["0", "0"]], "min": [["0", "1"], ["0", "0"]],
          "max": [["0", "1"], ["1", "0"]]}


@pytest.mark.parametrize("ring,orders", [
    ({"kind": "Fp", "p": 2}, {"max": oracles.sp_order(1, 2), "min": oracles.orthogonal_order(1, 2, 1),
                              "el": 8 * oracles.orthogonal_order(1, 2, 1)}),
    ({"kind": "Zn", "n": 4}, {"max": 16, "min": 4, "el": 256}),
], ids=["F2", "Z4"])
@pytest.mark.parametrize("doc_variant", ["el", "min", "max"])
@pytest.mark.parametrize("variant", ["max", "min", "el"])
def test_group_of_each_document_variant(capsys, ring, orders, doc_variant, variant):
    # an el or min document is a quadratic form and answers every variant; a
    # max document holds no phi0, so only max
    doc = {"ring": ring, "epsilon": 1, "variant": doc_variant, "matrix": _PLANE[doc_variant]}
    code, out = run(capsys, "group", "--form", json.dumps(doc), "--variant", variant)
    if doc_variant == "max" and variant != "max":
        assert code == 2
        assert json.loads(out)["error"] == "bad-input"
        return
    assert code == 0
    assert json.loads(out)["report"]["order"] == orders[variant]


HYP4_F2 = json.dumps(
    {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1, "variant": "el",
     "matrix": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
                ["0", "0", "0", "0"], ["0", "0", "0", "0"]]}
)
HYP_F4 = json.dumps(
    {"ring": json.loads(RING_F4), "epsilon": 1, "variant": "el",
     "matrix": [["0", "1"], ["0", "0"]]}
)


# Sp4(2), and U2(2) times the 16 hermitian 2 x 2 matrices over F4
@pytest.mark.parametrize("form,variant,order", [(HYP4_F2, "max", oracles.sp_order(2, 2)),
                                                (HYP_F4, "el", 16 * oracles.unitary_order(2, 2))],
                         ids=["Sp4-F2", "el-F4"])
def test_group_closure_is_exact(capsys, form, variant, order):
    code, out = run(capsys, "group", "--form", form, "--variant", variant)
    assert code == 0
    report = json.loads(out)["report"]
    checks = report["checks"]
    assert report["order"] == order
    assert checks["identity"] and checks["inverses"] and checks["closure"]
    assert "closure_sampled" not in checks and "closure_pairs" not in checks
    assert checks["closure_products"] <= 2 * (order - 1)
    assert 1 <= checks["closure_generators"] <= math.log2(order)


def test_witt_command(capsys):
    code, out = run(capsys, "witt", "--ring", "F2", "--epsilon", "1",
                    "--variant", "min", "--max-rank", "4")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["report"]["stable_classes"]) == 2


def test_witt_table_format(capsys):
    code, out = run(capsys, "--format", "table", "witt", "--ring", "F2",
                    "--max-rank", "2")
    assert code == 0
    assert "Witt classes" in out


def test_form_check_table_shows_the_least_even_witness(capsys):
    # phi0 + phi0^* = phi over Z/4: (0, 1) holds 1, (1, 0) holds 0, and the
    # diagonal the least a with 2a = 2, which is 1
    form = json.dumps({"ring": {"kind": "Zn", "n": 4}, "epsilon": 1, "variant": "max",
                       "matrix": [["2", "1"], ["1", "0"]]})
    code, out = run(capsys, "--format", "table", "form-check", "--form", form)
    assert code == 0
    lines = out.splitlines()
    assert f"{'report.even':<48} True" in lines
    assert f"{'report.even_witness[0]':<48} ['1', '1']" in lines
    assert f"{'report.even_witness[1]':<48} ['0', '0']" in lines


def test_group_el_table_lists_the_preview_pairs(capsys):
    code, out = run(capsys, "--format", "table", "group", "--form", HYP_F2, "--variant", "el")
    assert code == 0
    lines = out.splitlines()
    assert f"{'report.order':<48} 16" in lines
    assert f"{'report.checks.closure_generators':<48} 4" in lines
    # pair 0 is (f, gamma) = ([[0, 1], [1, 0]], [[0, 0], [1, 0]])
    assert f"{'report.elements_preview[0][0][0]':<48} ['0', '1']" in lines
    assert f"{'report.elements_preview[0][1][1]':<48} ['1', '0']" in lines
    assert sum(line.startswith("report.elements_preview[") for line in lines) == 16 * 4


def test_verify_table_prints_one_line_per_suite(capsys):
    code, out = run(capsys, "--format", "table", "verify", "split-unit-collapse",
                    "extension-exactness")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3 and lines[-1] == "all passed"
    pattern = r"criterion +{}  {:<28} PASS  \([0-9.e-]+s\)"
    assert re.fullmatch(pattern.format(2, "split_unit_collapse"), lines[0])
    assert re.fullmatch(pattern.format(3, "extension_exactness"), lines[1])


def test_gw_command(capsys):
    code, out = run(capsys, "gw", "--ring", "F2", "--max-rank", "2")
    assert code == 0
    doc = json.loads(out)
    assert any(c["rank"] == 2 for c in doc["report"]["classes"])


def test_arf_command(capsys):
    form = json.dumps(
        {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1, "variant": "el",
         "matrix": [["1", "1"], ["0", "1"]]}
    )
    code, out = run(capsys, "arf", "--form", form)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["arf"] == "1"
    assert doc["report"]["zero_count_oracle"] == "1"


def test_dickson_command(capsys):
    code, out = run(capsys, "dickson", "--form", HYP_F2,
                    "--matrix", '[["0","1"],["1","0"]]')
    assert code == 0
    assert json.loads(out)["report"]["dickson"] == 1


def test_xi_command(capsys):
    code, out = run(capsys, "xi", "--ring", "F2", "--epsilon", "1", "--char2-oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["xi"]["group"] == "Z/2"
    assert doc["passed"] is True


@pytest.mark.parametrize("ring,eps", [
    ('{"kind":"Fp","p":3}', "-1"),
    ('{"kind":"Dual","base":{"kind":"Fp","p":3}}', "1"),
], ids=["F3-eps-1", "Dual-F3"])
def test_xi_without_two_lambda_zero_is_unsupported(capsys, ring, eps):
    # Lambda lies in Gamma only when 2*Lambda = 0; elsewhere xi is refused,
    # not raised as an internal failure
    code, out = run(capsys, "xi", "--ring", ring, "--epsilon", eps)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "unsupported"
    assert "2*Lambda = 0" in err["message"]


_Z4 = {"kind": "Zn", "n": 4}
# |Gamma/Lambda| = 16 at epsilon 1, where a presentation on all k^2 pairs of
# representatives runs for minutes, whatever the cap
_XI_AT_REACH = {
    "Dual-Z4+e": ["--cap", "4096", "xi", "--epsilon", "1",
                  "--ring", json.dumps({"kind": "Dual", "base": _Z4, "conj_e": "+e"})],
    "Z16": ["xi", "--epsilon", "1", "--ring", json.dumps({"kind": "Zn", "n": 16})],
    "TruncPoly-Z4+t": ["xi", "--epsilon", "1", "--ring",
                       json.dumps({"kind": "TruncPoly", "base": _Z4, "k": 2, "conj_t": "+t"})],
}


@pytest.mark.parametrize("argv", list(_XI_AT_REACH.values()), ids=list(_XI_AT_REACH))
def test_xi_at_reach(capsys, argv):
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    report = json.loads(out)["report"]
    assert report["xi"]["group"] == "Z/2"
    assert report["gamma_lambda"]["quotient_order"] == 16


@pytest.mark.parametrize("argv,rank", [(["witt", "--ring", "F2"], -3), (["gw", "--ring", "F2"], -1)],
                         ids=["witt", "gw"])
def test_negative_max_rank_is_bad_input(capsys, argv, rank):
    code, out = run(capsys, *argv, "--max-rank", str(rank))
    assert code == 2
    assert json.loads(out) == {"error": "bad-input",
                               "message": f"max_rank must be at least 0, got {rank}"}


def _plane(**changes):
    doc = {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1, "variant": "el",
           "matrix": [["0", "1"], ["0", "0"]]}
    doc.update(changes)
    return doc


# name -> (a malformed or out-of-reach group document, its error label)
_MUTATED_GROUP_DOCS = {
    "ragged-matrix": (_plane(matrix=[["0", "1"], ["0"]]), "bad-input"),
    "unparseable-element": (_plane(matrix=[["0", "x"], ["0", "0"]]), "bad-input"),
    "epsilon-3": (_plane(epsilon=3), "bad-input"),
    "unknown-ring-kind": (_plane(ring={"kind": "Oops"}), "bad-input"),
    "missing-p": (_plane(ring={"kind": "Fp"}), "bad-input"),
    "missing-epsilon": ({k: v for k, v in _plane().items() if k != "epsilon"}, "bad-input"),
    # too large for the shift table's walk under the cap: refused before any search
    "huge-prime": (_plane(ring={"kind": "Fp", "p": 10**18 + 3}), "cap-exhausted"),
    "huge-composite": (_plane(ring={"kind": "Zn", "n": 10**18 + 2}), "cap-exhausted"),
}


@pytest.mark.parametrize("name", list(_MUTATED_GROUP_DOCS))
def test_mutated_group_document_is_refused(capsys, name):
    doc, label = _MUTATED_GROUP_DOCS[name]
    start = time.perf_counter()
    code, out = run(capsys, "group", "--form", json.dumps(doc))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = json.loads(out)
    assert err["error"] == label
    if label == "cap-exhausted":
        assert "exceeds cap" in err["message"]


@pytest.mark.parametrize("name", ["huge-prime", "huge-composite"])
def test_huge_group_ring_is_refused_by_the_shift_table_walk(capsys, name):
    # the search cap bounds the walk of the ring's elements for its shift table
    doc, _ = _MUTATED_GROUP_DOCS[name]
    code, out = run(capsys, "group", "--form", json.dumps(doc))
    assert code == 2
    err = json.loads(out)
    size = doc["ring"].get("p") or doc["ring"]["n"]
    assert err == {"error": "cap-exhausted",
                   "message": f"shift table: search space {size} exceeds cap {caps.DEFAULT_CAP}"}


def _form_arg(ring, variant, matrix):
    return json.dumps({"ring": ring, "epsilon": 1, "variant": variant, "matrix": matrix})


@pytest.mark.parametrize("argv,key,value", [
    (["form-check", "--form", _form_arg({"kind": "Zn", "n": 5003}, "min",
                                         [["0", "1"], ["0", "0"]])], "nondegenerate", True),
    (["form-check", "--form", _form_arg({"kind": "Fp", "p": 8191}, "max",
                                         [["0", "1"], ["1", "0"]])], "even", True),
    # O^min of x^2 over a prime field of odd characteristic is {1, -1}
    (["group", "--variant", "min", "--form", _form_arg({"kind": "Fp", "p": 4099}, "el", [["1"]])],
     "order", 2),
], ids=["form-check-min-z5003", "form-check-max-f8191", "group-min-f4099"])
def test_ring_past_4096_elements_answers_within_the_cap(capsys, argv, key, value):
    # the shift table walks the ring under the search cap
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["report"][key] == value


_M2_F2 = {"kind": "Mat2", "base": {"kind": "Fp", "p": 2}}
_POLYS_F2 = {"kind": "PolyS", "base": {"kind": "Fp", "p": 2}}
_ONE_M2 = json.dumps([["1", "0"], ["0", "1"]])


@pytest.mark.parametrize("argv,message", [
    (["xi", "--ring", json.dumps(_M2_F2)], "xi_group is restricted to commutative rings"),
    (["xi", "--ring", json.dumps(_POLYS_F2)], "gamma_lambda needs a finite ring"),
    (["witt", "--ring", json.dumps(_POLYS_F2), "--variant", "max", "--max-rank", "1"],
     "ring not enumerable"),
    (["group", "--form", json.dumps({"ring": _POLYS_F2, "epsilon": 1, "variant": "el",
                                     "matrix": [["[1]"]]})],
     "additive basis needs a finite ring"),
    (["clauwens", "linearize", "--theta",
      json.dumps({"ring": _M2_F2, "epsilon": 1, "coefficients": [[[_ONE_M2]], [[_ONE_M2]]]})],
     "polynomial determinant needs a commutative ring"),
], ids=["xi-noncommutative", "xi-infinite", "witt-max-infinite", "group-infinite",
        "linearize-noncommutative"])
def test_refusal_without_a_cap_is_unsupported(capsys, argv, message):
    # these inputs are refused whatever the cap, so they are not cap-exhausted
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": "unsupported", "message": message}


@pytest.mark.parametrize("variant", ["max", "min"])
def test_rank0_group_over_polys_is_certified(capsys, variant):
    # rank 0 answers before any shift table or additive coordinates, which refuse PolyS
    form = json.dumps({"ring": _POLYS_F2, "epsilon": 1, "variant": "el", "matrix": []})
    code, out = run(capsys, "group", "--form", form, "--variant", variant)
    assert code == 0
    assert json.loads(out)["report"]["order"] == 1


def test_whitehead_command(capsys):
    code, out = run(capsys, "whitehead", "--ring", '{"kind":"Fp","p":7}',
                    "--alpha", '[["2"]]', "--beta", '[["3"]]')
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_whitehead_over_a_ring_that_is_not_local(capsys):
    # Z/6006 is not local, and no entry of alpha is a unit: only the
    # adjugate inverts alpha
    code, out = run(capsys, "whitehead", "--ring", '{"kind":"Zn","n":6006}',
                    "--alpha", '[["2","3"],["3","2"]]', "--beta", '[["1","1"],["0","1"]]')
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_clauwens_product_command(capsys):
    theta = json.dumps(
        {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1,
         "coefficients": [[["0", "0"], ["0", "0"]], [["0", "1"], ["1", "0"]]]}
    )
    code, out = run(capsys, "clauwens", "product", "--theta", theta,
                    "--delta-form", HYP_F2)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["rank"] == 4 and doc["report"]["nondegenerate"]


def test_clauwens_product_forms_its_cup_product_once(capsys, monkeypatch):
    import hermkq.clauwens

    theta = json.dumps(
        {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1,
         "coefficients": [[["1", "0"], ["0", "0"]], [["0", "1"], ["1", "0"]]]}
    )
    substituted = []
    substitute = hermkq.clauwens._substitute
    monkeypatch.setattr(hermkq.clauwens, "_substitute",
                        lambda p, d, *a: substituted.append(p) or substitute(p, d, *a))
    code, out = run(capsys, "clauwens", "product", "--theta", theta, "--delta-form", HYP_F2)
    assert code == 0 and json.loads(out)["report"]["nondegenerate"]
    # theta for kappa, then H(s) for the check H(phi) = kappa + kappa^*
    assert len(substituted) == 2 and substituted[1] != substituted[0]


def test_clauwens_linearize_command(capsys):
    theta = json.dumps(
        {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1,
         "coefficients": [[["0"]], [["0"]], [["1"]]]}
    )
    code, out = run(capsys, "clauwens", "linearize", "--theta", theta)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["transcript"][0]["kind"] == "degree_reduction"
    assert all(s["check"] == "pass" for s in doc["report"]["transcript"])


def test_internal_check_failure_is_reported(capsys, monkeypatch):
    # make linearize's exact recheck of a degree-reduction step fail
    from hermkq import clauwens

    monkeypatch.setattr(clauwens, "_congruent_hermitian_parts", lambda *args: False)
    theta = json.dumps(
        {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1,
         "coefficients": [[["0"]], [["0"]], [["1"]]]}
    )
    code, out = run(capsys, "clauwens", "linearize", "--theta", theta)
    assert code == 3
    assert json.loads(out) == {"error": "internal-check-failed",
                               "message": "transcript step failed its exact recheck"}


def test_clauwens_sqrt_command(capsys):
    code, out = run(capsys, "clauwens", "sqrt-nilpotent", "--ring", "F4",
                    "--nu", '[["1","w"],["w+1","1"]]')
    assert code == 0
    assert json.loads(out)["report"]["identity_exact"] is True


def test_clauwens_sqrt_without_split_unit_is_unsupported(capsys):
    # Z/4 has no split unit; the refusal is a report, not a traceback
    code, out = run(capsys, "clauwens", "sqrt-nilpotent", "--ring", '{"kind":"Zn","n":4}',
                    "--nu", '[["2"]]')
    assert code == 2
    assert json.loads(out)["error"] == "unsupported"


def test_clauwens_projectors_command(capsys):
    ideal = json.dumps([
        [["2", "0"], ["0", "0"]], [["0", "2"], ["0", "0"]],
        [["0", "0"], ["2", "0"]], [["0", "0"], ["0", "2"]],
    ])
    code, out = run(capsys, "clauwens", "conjugate-projectors",
                    "--ring", '{"kind":"Zn","n":4}',
                    "--p0", '[["1","0"],["0","0"]]',
                    "--p1", '[["1","2"],["2","0"]]',
                    "--ideal", ideal)
    assert code == 0
    assert json.loads(out)["report"]["alpha_times_adjoint_is_1"] is True


def test_clauwens_lemma4_command(capsys):
    code, out = run(capsys, "clauwens", "lemma4",
                    "--ring", "F2",
                    "--sigma", '[["0","0","1"],["0","1","1"],["1","0","0"]]',
                    "--delta-form", HYP_F2,
                    "--zeta", '[["1","0"],["1","1"]]',
                    "--depth", "3")
    assert code == 0
    assert json.loads(out)["report"]["residual_zero"] is True



@pytest.mark.parametrize("argv", [
    ["lemma4", "--ring", "F2", "--sigma", "[]", "--delta-form", HYP_F2,
     "--zeta", '[["0","0"],["0","0"]]', "--depth", "0"],
    ["lemma4", "--ring", "F2", "--sigma", "[]", "--delta-form", HYP_F2,
     "--zeta", '[["0","0"],["0","0"]]', "--depth", "2"],
    ["sqrt-nilpotent", "--ring", '{"kind":"Fp","p":3}', "--nu", "[]"],
], ids=["lemma4-depth0", "lemma4-depth2", "sqrt-nilpotent-F3"])
def test_clauwens_accepts_rank_zero(capsys, argv):
    code, out = run(capsys, "clauwens", *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["report"]["nilpotency_index"] == 0


def test_clauwens_sqrt_rank_zero_over_f2_is_unsupported(capsys):
    # F2 has no split unit, whatever the rank
    code, out = run(capsys, "clauwens", "sqrt-nilpotent", "--ring", "F2", "--nu", "[]")
    assert code == 2
    assert json.loads(out)["error"] == "unsupported"

def _bad_input(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 2
    return json.loads(out)


def test_clauwens_projectors_with_a_singular_gram_is_bad_input(capsys):
    doc = _bad_input(capsys, "clauwens", "conjugate-projectors",
                     "--ring", '{"kind":"Fp","p":3}',
                     "--p0", '[["1","0"],["0","0"]]',
                     "--p1", '[["1","0"],["0","0"]]',
                     "--ideal", '[[["0","1"],["0","0"]]]',
                     "--gram", '[["0","0"],["0","0"]]')
    assert doc == {"error": "bad-input", "message": "gram must be invertible"}


@pytest.mark.parametrize("sub,extra", [("product", ["--delta-form", HYP_F2]),
                                       ("linearize", [])])
def test_clauwens_theta_without_coefficients_is_bad_input(capsys, sub, extra):
    theta = json.dumps({"ring": {"kind": "Fp", "p": 2}, "epsilon": 1, "coefficients": []})
    doc = _bad_input(capsys, "clauwens", sub, "--theta", theta, *extra)
    assert doc["error"] == "bad-input" and "coefficient" in doc["message"]


@pytest.mark.parametrize("ring,sigma,zeta,depth,message", [
    ('{"kind":"Fp","p":3}', '[["1"]]', '[["0","0"],["0","0"]]', "1", "must share a ring"),
    ("F2", '[["1"]]', '[["0","0"],["0","0"]]', "-1", "depth"),
], ids=["ring-mismatch", "negative-depth"])
def test_clauwens_lemma4_refusals_are_bad_input(capsys, ring, sigma, zeta, depth, message):
    doc = _bad_input(capsys, "clauwens", "lemma4", "--ring", ring, "--sigma", sigma,
                     "--delta-form", HYP_F2, "--zeta", zeta, "--depth", depth)
    assert doc["error"] == "bad-input" and message in doc["message"]


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "xi-computations")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["suites"][0]["passed"]


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "hermkq", "verify", "projector-conjugation"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout)["passed"] is True


@pytest.mark.parametrize("argv, code", [
    (["ring-check", "--ring", RING_F2], 0),
    (["form-check", "--form", json.dumps({"ring": {"kind": "Fp", "p": 2}, "epsilon": 1,
                                          "variant": "el", "matrix": [["0"]]})], 1),
    (["ring-check", "--ring", '{"kind":"Fp","p":4}'], 2),
    (["--format", "table", "verify", "xi-computations"], 0),
], ids=["passed", "failed", "refused", "table"])
def test_a_closed_stdout_keeps_the_verdicts_exit_code(argv, code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        done = subprocess.run([sys.executable, "-m", "hermkq", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, "")


def test_verify_unknown_suite(capsys):
    code, out = run(capsys, "verify", "no-such-suite")
    assert code == 2


def test_reports_byte_identical(capsys):
    _, out1 = run(capsys, "witt", "--ring", "F2", "--max-rank", "2")
    _, out2 = run(capsys, "witt", "--ring", "F2", "--max-rank", "2")
    assert out1 == out2


def test_file_input(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(RING_F4)
    code, _ = run(capsys, "ring-check", "--ring", f"@{path}")
    assert code == 0


def test_unreadable_file_is_bad_input(capsys):
    code, out = run(capsys, "form-check", "--form", "@/no/such/file")
    assert code == 2
    assert json.loads(out)["error"] == "bad-input"


def test_an_os_error_inside_a_command_is_not_bad_input(monkeypatch):
    def times_out(args, fmt):
        raise TimeoutError("alarm")

    monkeypatch.setitem(cli._DISPATCH, "ring-check", times_out)
    with pytest.raises(TimeoutError):
        main(["ring-check", "--ring", "F2"])


_ZERO_Z6 = json.dumps({"ring": {"kind": "Zn", "n": 6}, "epsilon": 1,
                       "matrix": [["0", "0"], ["0", "0"]]})
_MAT2_ZERO, _MAT2_ONE = '[["0","0"],["0","0"]]', '[["1","0"],["0","1"]]'
_HYP_MAT2_F2 = json.dumps({"ring": {"kind": "Mat2", "base": {"kind": "Fp", "p": 2}},
                           "epsilon": 1,
                           "matrix": [[_MAT2_ZERO, _MAT2_ONE], [_MAT2_ZERO, _MAT2_ZERO]]})


@pytest.mark.parametrize("cap,form,order", [
    # 288 orthogonal f times 216 symmetric gamma, never listed as pairs
    (["--cap", "4096"], _ZERO_Z6, 288 * 216),
    # 72 orthogonal f times 1 024 gamma
    ([], _HYP_MAT2_F2, 72 * 1024),
], ids=["zero-Z6", "hyperbolic-Mat2-F2"])
def test_el_groups_past_their_pair_count_are_answered(capsys, cap, form, order):
    start = time.perf_counter()
    code, out = run(capsys, *cap, "group", "--variant", "el", "--form", form)
    assert time.perf_counter() - start < 1
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["report"]["order"] == order
    assert doc["report"]["extension"]["order_el"] == order


def test_sqrt_over_a_large_prime_field_lists_no_ring(capsys, monkeypatch):
    listed = Ring.elements

    def elements(self):
        if self.size is not None and self.size > 2**20:
            raise RuntimeError(f"listed the {self.size} elements of {self.key()}")
        return listed(self)

    monkeypatch.setattr(Ring, "elements", elements)
    start = time.perf_counter()
    code, out = run(capsys, "clauwens", "sqrt-nilpotent",
                    "--ring", '{"kind":"Fp","p":1000000007}', "--nu", '[["0"]]')
    assert time.perf_counter() - start < 5
    assert code == 2
    assert json.loads(out)["error"] == "cap-exhausted"


def test_cap_flag(capsys):
    code, out = run(capsys, "--cap", "10", "group", "--form", HYP_F2,
                    "--variant", "min")
    assert code == 2
    assert json.loads(out)["error"] == "cap-exhausted"


@pytest.mark.parametrize("cap,error", [("10", "cap-exhausted"), ("0", "bad-input"),
                                       ("-3", "bad-input")])
def test_cap_flag_leaves_process_state_unchanged(capsys, cap, error):
    env_before, cap_before = dict(os.environ), caps.global_cap()
    code, out = run(capsys, "--cap", cap, "group", "--form", HYP_F2,
                    "--variant", "min")
    assert code == 2
    err = json.loads(out)
    assert err["error"] == error
    if error == "bad-input":
        assert "--cap" in err["message"] and "HERMKQ_CAP" not in err["message"]
    assert dict(os.environ) == env_before
    assert caps.global_cap() == cap_before
    code, _ = run(capsys, "group", "--form", HYP_F2, "--variant", "min")
    assert code == 0


def test_env_cap_is_default_and_cap_flag_overrides_one_call(capsys, monkeypatch):
    monkeypatch.setenv("HERMKQ_CAP", "10")
    assert caps.global_cap() == 10
    code, out = run(capsys, "group", "--form", HYP_F2, "--variant", "min")
    assert code == 2
    assert json.loads(out)["error"] == "cap-exhausted"
    code, _ = run(capsys, "--cap", str(caps.DEFAULT_CAP), "group", "--form", HYP_F2,
                  "--variant", "min")
    assert code == 0
    assert os.environ["HERMKQ_CAP"] == "10"
    assert caps.global_cap() == 10


def test_form_check_min_over_z9_past_the_span_cap(capsys):
    # the rank-3 shift subgroup over Z/9 at eps = -1 has 9^6 elements; its
    # canonical form is closed, so no span is listed and no cap is reached
    form = json.dumps({"ring": {"kind": "Zn", "n": 9}, "epsilon": -1, "variant": "min",
                       "matrix": [["1", "2", "0"], ["0", "1", "3"], ["4", "0", "1"]]})
    code, out = run(capsys, "form-check", "--form", form)
    doc = json.loads(out)
    assert "error" not in doc
    assert code == 1  # an alternating form of odd rank is degenerate
    assert doc["report"]["nondegenerate"] is False
    assert doc["report"]["min_canonical"] == [["0", "0", "0"], ["7", "0", "0"], ["4", "6", "0"]]


def test_malformed_polys_entry_is_bad_input(capsys):
    # a PolyS element is a JSON list of coefficients; "1" is not one
    form = json.dumps({"ring": {"kind": "PolyS", "base": {"kind": "Fp", "p": 2}},
                       "epsilon": 1, "variant": "el", "matrix": [["1"]]})
    code, out = run(capsys, "form-check", "--form", form)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "bad-input" and "list of coefficients" in err["message"]


_F2_SPEC = {"kind": "Fp", "p": 2}
_EVERY_KIND = {
    "Fp": _F2_SPEC,
    "Zn": {"kind": "Zn", "n": 4},
    "Fq": json.loads(RING_F4),
    "Dual": {"kind": "Dual", "base": _F2_SPEC},
    "Mat2": {"kind": "Mat2", "base": _F2_SPEC},
    "ProductOp": {"kind": "ProductOp", "base": _F2_SPEC},
    "TruncPoly": {"kind": "TruncPoly", "base": _F2_SPEC, "k": 2},
    "PolyS": {"kind": "PolyS", "base": _F2_SPEC},
}


@pytest.mark.parametrize("entry", [["1"], None, {"a": 1}, 1, 1.5, True],
                         ids=["list", "null", "object", "int", "float", "bool"])
@pytest.mark.parametrize("kind", sorted(_EVERY_KIND))
def test_non_string_entry_is_bad_input(capsys, kind, entry):
    # every element encoding is a string (for PolyS, a string holding a list)
    form = json.dumps({"ring": _EVERY_KIND[kind], "epsilon": 1, "variant": "el",
                       "matrix": [[entry]]})
    code, out = run(capsys, "form-check", "--form", form)
    assert code == 2
    assert json.loads(out)["error"] == "bad-input"


@pytest.mark.parametrize("kind,entry", [("Mat2", '"1"'), ("Mat2", "[1]"), ("Mat2", '[["0","0"]]'),
                                        ("TruncPoly", "5")])
def test_malformed_json_element_is_bad_input(capsys, kind, entry):
    # Mat2 and TruncPoly elements are strings holding a JSON list of a fixed shape
    form = json.dumps({"ring": _EVERY_KIND[kind], "epsilon": 1, "variant": "el",
                       "matrix": [[entry]]})
    code, out = run(capsys, "form-check", "--form", form)
    assert code == 2
    assert json.loads(out)["error"] == "bad-input"


def test_clauwens_projectors_over_z8192(capsys):
    # the ideal 4096*M2 has 16 elements in a ring of 8192: the projector
    # lists it from the generators by extend_span, under clauwens.SPAN_LIMIT
    ideal = json.dumps([
        [["4096", "0"], ["0", "0"]], [["0", "4096"], ["0", "0"]],
        [["0", "0"], ["4096", "0"]], [["0", "0"], ["0", "4096"]],
    ])
    code, out = run(capsys, "clauwens", "conjugate-projectors",
                    "--ring", '{"kind":"Zn","n":8192}',
                    "--p0", '[["1","0"],["0","0"]]',
                    "--p1", '[["1","4096"],["4096","0"]]',
                    "--ideal", ideal)
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True


def test_clauwens_sqrt_with_a_polynomial_split_unit_is_refused_by_the_cap(capsys):
    # lambda = s generates all of Z/9[s]; the subring check stops once its
    # span passes the cap, after a handful of powers of s
    code, out = run(capsys, "clauwens", "sqrt-nilpotent",
                    "--ring", '{"kind":"PolyS","base":{"kind":"Zn","n":9}}',
                    "--nu", '[["[0,3,6]"]]', "--split-unit", "[0,1]")
    assert code == 2
    err = json.loads(out)
    assert err == {"error": "cap-exhausted", "message": "generated subring exceeds cap"}
