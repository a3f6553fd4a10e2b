import json
import math
import os

import pytest

from hermkq import caps
from hermkq.cli import main


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
    assert doc["report"]["order"] == 16
    assert doc["report"]["extension"]["order_min"] == 2


HYP4_F2 = json.dumps(
    {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1, "variant": "el",
     "matrix": [["0", "0", "1", "0"], ["0", "0", "0", "1"],
                ["0", "0", "0", "0"], ["0", "0", "0", "0"]]}
)
HYP_F4 = json.dumps(
    {"ring": json.loads(RING_F4), "epsilon": 1, "variant": "el",
     "matrix": [["0", "1"], ["0", "0"]]}
)


@pytest.mark.parametrize("form,variant,order", [(HYP4_F2, "max", 720), (HYP_F4, "el", 288)],
                         ids=["Sp4-F2", "el-F4"])
def test_group_closure_is_exact(capsys, form, variant, order):
    code, out = run(capsys, "group", "--form", form, "--variant", variant)
    assert code == 0
    report = json.loads(out)["report"]
    checks = report["checks"]
    assert report["order"] == order
    assert checks["identity"] and checks["inverses"] and checks["closure"]
    assert "closure_sampled" not in checks and "closure_pairs" not in checks
    assert checks["closure_products"] <= order * (math.log2(order) + 1)
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


def test_whitehead_command(capsys):
    code, out = run(capsys, "whitehead", "--ring", '{"kind":"Fp","p":7}',
                    "--alpha", '[["2"]]', "--beta", '[["3"]]')
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


def test_clauwens_sqrt_command(capsys):
    code, out = run(capsys, "clauwens", "sqrt-nilpotent", "--ring", "F4",
                    "--nu", '[["1","w"],["w+1","1"]]')
    assert code == 0
    assert json.loads(out)["report"]["identity_exact"] is True


def test_clauwens_sqrt_without_split_unit_is_bad_input(capsys):
    # Z/4 has no split unit; the refusal is a report, not a traceback
    code, out = run(capsys, "clauwens", "sqrt-nilpotent", "--ring", '{"kind":"Zn","n":4}',
                    "--nu", '[["2"]]')
    assert code == 2
    assert json.loads(out)["error"] == "bad-input"


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


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "xi-computations")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["suites"][0]["passed"]


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
