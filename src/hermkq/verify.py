"""Bundled verification suites: every numbered acceptance check as a library
function returning a deterministic report dict.  The CLI `verify` command and
the acceptance test module both run these."""

from __future__ import annotations

import random
import time

from . import __version__
from .additive import solve_affine
from .clauwens import (
    DeltaDatum,
    MatPoly,
    PolyQuadForm,
    kappa_nondegenerate,
    lemma2_shift,
    lemma4_recursion,
    linearize,
    linearize_cup_soundness,
    projector_conjugator,
    sqrt_one_plus_nu_t,
)
from .forms import QuadFormEl, hyperbolic
from .groups import (
    dual_numbers_iso,
    enumerate_orthogonal_min,
    enumerate_unitary,
    extension_check,
    section_homomorphism_report,
    whitehead_factorization,
)
from .invariants import (
    arf_retraction_check,
    dickson,
    witt_classify,
    xi_char2_field,
    xi_group,
)
from .linalg import Mat, all_matrices, block, invert
from .rings import F2, F4, Fp, Fq, Zn


def _report(criterion, name, passed, details):
    return {
        "criterion": criterion,
        "name": name,
        "passed": bool(passed),
        "details": details,
    }


def check_witt_f2():
    """Criterion 1: two stable quadratic Witt classes over F2, split by Arf."""
    table = witt_classify(F2(), 1, "min", 4)
    classes = table.stable_classes
    arfs = sorted(c.get("arf") for c in classes)
    passed = len(classes) == 2 and arfs == ["0", "1"]
    return _report(1, "witt_f2", passed, {"stable_classes": classes})


def _stable_correspondence(min_table, max_table, ring, eps):
    """Map each stable min class through its hermitian part and check the
    induced map onto the stable max classes is a bijection."""
    max_stable_of = {}
    for s in max_table.stable_classes:
        for r, i in s["members"]:
            max_stable_of[(r, i)] = s["class"]
    image = []
    for s in min_table.stable_classes:
        r = s["min_rank"]
        rep = Mat.from_strs(ring, s["representative"]) if r else Mat(ring, [])
        phi = rep + rep.star().scale_sign(eps) if r else rep
        j = max_table.class_of(r, phi)
        image.append(max_stable_of[(r, j)])
    return (
        len(min_table.stable_classes) == len(max_table.stable_classes)
        and sorted(image) == [s["class"] for s in max_table.stable_classes]
    ), image


def check_split_unit_collapse():
    """Criterion 2: over F4 (split unit w) min and max coincide."""
    ring = F4()
    q = hyperbolic(ring, 1, 1)
    omin = enumerate_orthogonal_min(q)
    omax = enumerate_unitary(q.associated())
    groups_equal = omin == omax
    tmin = witt_classify(ring, 1, "min", 2)
    tmax = witt_classify(ring, 1, "max", 2)
    tables_match, image = _stable_correspondence(tmin, tmax, ring, 1)
    passed = groups_equal and tables_match
    return _report(
        2,
        "split_unit_collapse",
        passed,
        {
            "order_min": len(omin),
            "order_max": len(omax),
            "groups_equal_as_sets": groups_equal,
            "witt_min_classes": len(tmin.stable_classes),
            "witt_max_classes": len(tmax.stable_classes),
            "stable_correspondence": image,
        },
    )


def check_extension_exactness():
    """Criterion 3: 1 -> S(E) -> O^el -> O^min -> 1 over F2 and F4."""
    details = {}
    passed = True
    for label, ring in (("F2", F2()), ("F4", F4())):
        rep = extension_check(hyperbolic(ring, 1, 1))
        details[label] = {
            k: v for k, v in rep.items() if not isinstance(v, Mat)
        }
        passed = passed and rep["passed"]
    passed = passed and details["F2"]["order_kernel"] == 8
    passed = passed and details["F2"]["order_min"] == 2
    passed = passed and details["F2"]["order_el"] == 16
    return _report(3, "extension_exactness", passed, details)


def check_section_and_dual_numbers():
    """Criterion 4: the split section is a homomorphism and O^el is the
    unitary group over the dual numbers."""
    ring = F4()
    q = hyperbolic(ring, 1, 1)
    sec = section_homomorphism_report(q)
    iso = dual_numbers_iso(q)
    passed = sec["passed"] and iso["passed"]
    return _report(
        4, "section_and_dual_numbers", passed, {"section": sec, "dual_numbers": iso}
    )


def check_xi():
    """Criterion 5: Xi computations and the Arf retraction."""
    f2 = F2()
    f4 = F4()
    f4t = Fq(2, 2, (1, 1, 1), "trivial")
    x2 = xi_group(f2, 1)
    x2c = xi_char2_field(f2)
    x4 = xi_group(f4, 1)
    x4t = xi_group(f4t, 1)
    x4tc = xi_char2_field(f4t)
    r2 = arf_retraction_check(f2)
    r4 = arf_retraction_check(f4t)
    details = {
        "xi_f2": x2.label(),
        "xi_f2_char2_oracle": x2c.label(),
        "xi_f4_frobenius": x4.label(),
        "xi_f4_trivial": x4t.label(),
        "xi_f4_trivial_char2_oracle": x4tc.label(),
        "retraction_f2": r2["passed"],
        "retraction_f4_trivial": r4["passed"],
    }
    passed = (
        x2.label() == "Z/2"
        and x2.same_group(x2c)
        and x4.label() == "0"
        and x4t.same_group(x4tc)
        and r2["passed"]
        and r4["passed"]
    )
    return _report(5, "xi_computations", passed, details)


def _random_invertible(ring, n, rng):
    elems = ring.elements()
    while True:
        m = Mat(
            ring,
            [[elems[rng.randrange(len(elems))] for _ in range(n)] for _ in range(n)],
        )
        if invert(m) is not None:
            return m


def check_whitehead():
    """Criterion 6: stabilization identities for random invertible pairs."""
    trials = 100
    rng = random.Random(20260809)
    details = {}
    passed = True
    for label, ring in (("F2", F2()), ("F4", F4()), ("Z7", Fp(7)), ("Z8", Zn(8))):
        failures = 0
        for _ in range(trials):
            a = _random_invertible(ring, 2, rng)
            b = _random_invertible(ring, 2, rng)
            if not whitehead_factorization(a, b)["passed"]:
                failures += 1
        details[label] = {"trials": trials, "failures": failures}
        passed = passed and failures == 0
    return _report(6, "whitehead_identities", passed, details)


def clauwens_sweep():
    """Shared exhaustive sweep: all nondegenerate theta of rank <= 2 and
    degree <= 2 over F2, and all rank-2 delta data over F2 (rank 1 has none)."""
    f2 = F2()
    thetas = []
    for c0 in f2.elements():
        for c1 in f2.elements():
            for c2 in f2.elements():
                t = PolyQuadForm.from_coeff_mats(
                    f2, 1, [Mat(f2, [[c0]]), Mat(f2, [[c1]]), Mat(f2, [[c2]])],
                    check=False,
                )
                if t.nondegenerate():
                    thetas.append(t)
    mats2 = list(all_matrices(f2, 2, 2))
    for c0 in mats2:
        for c1 in mats2:
            for c2 in mats2:
                t = PolyQuadForm.from_coeff_mats(f2, 1, [c0, c1, c2], check=False)
                if t.nondegenerate():
                    thetas.append(t)
    deltas = [
        DeltaDatum.from_quadform(QuadFormEl(f2, 1, m))
        for m in mats2
        if QuadFormEl(f2, 1, m).nondegenerate
    ]
    return f2, thetas, deltas


def _small_shifts(ring, n):
    """Monomial shift polynomials Z = E_ij s^k of degree <= 2 (their additive
    spans give all small shifts), plus every rank-1 polynomial for n = 1."""
    out = []
    zero = Mat.zero(ring, n)
    if n == 1:
        for c0 in ring.elements():
            for c1 in ring.elements():
                for c2 in ring.elements():
                    z = MatPoly(
                        ring, 1, 1, [Mat(ring, [[c0]]), Mat(ring, [[c1]]), Mat(ring, [[c2]])]
                    )
                    if not z.is_zero():
                        out.append(z)
        return out
    for i in range(n):
        for j in range(n):
            entries = [[ring.zero] * n for _ in range(n)]
            entries[i][j] = ring.one
            e = Mat(ring, entries)
            for k in range(3):
                out.append(MatPoly(ring, n, n, [zero] * k + [e]))
    return out


def check_clauwens_lemmas(sweep=None):
    """Criterion 7: nondegeneracy of every cup product in the sweep and
    min-equality under every small shift."""
    f2, thetas, deltas = sweep or clauwens_sweep()
    nondeg_checks = 0
    shift_checks = 0
    for t in thetas:
        shifts = _small_shifts(f2, t.n)
        for d in deltas:
            if not kappa_nondegenerate(t, d):
                return _report(
                    7, "clauwens_lemma_1_2", False,
                    {"counterexample_theta": t.theta.to_strs()},
                )
            nondeg_checks += 1
        for z in shifts:
            # lemma2_shift raises unless kappa' - kappa = gamma - (eps*eta) gamma^*,
            # a shift, which makes the two cup products min-equal
            lemma2_shift(t, z, deltas[0])
            shift_checks += 1
    details = {
        "thetas": len(thetas),
        "deltas": len(deltas),
        "nondegeneracy_checks": nondeg_checks,
        "shift_checks": shift_checks,
    }
    return _report(7, "clauwens_lemma_1_2", True, details)


def check_linearization(sweep=None):
    """Criterion 8: linearize every theta in the sweep; transcripts verify,
    outputs are almost hermitian, and cup products agree after the recorded
    stabilization."""
    f2, thetas, deltas = sweep or clauwens_sweep()
    sound = 0
    for t in thetas:
        almost, transcript = linearize(t)  # raises on any failed step
        almost.validate()
        for d in deltas:
            if not linearize_cup_soundness(t, almost, transcript, d):
                return _report(
                    8, "linearization", False,
                    {"counterexample_theta": t.theta.to_strs()},
                )
            sound += 1
    return _report(
        8, "linearization", True, {"thetas": len(thetas), "soundness_checks": sound}
    )


def _sigmas_with_index(ring, nilpotent):
    """The first two invertible sigma with conj-transpose(sigma) = sigma (1 + N)
    for the given nilpotent N, found by solving the linear condition."""
    n = nilpotent.rows
    sols = solve_affine(
        ring,
        (n, n),
        lambda s: s.star() - s - s * nilpotent,
        Mat.zero(ring, n),
        all_solutions=True,
    )
    out = [s for s in sols if invert(s) is not None]
    return out[:2]


def check_lemma4():
    """Criterion 9: the congruence recursion has residual exactly zero once
    the depth reaches the nilpotency index (indices 2 and 3, F2 and F4)."""
    details = {}
    passed = True
    for label, ring in (("F2", F2()), ("F4", F4())):
        delta = DeltaDatum.from_quadform(hyperbolic(ring, 1, 1))
        zetas = [
            Mat.zero(ring, 2),
            Mat.from_strs(ring, [["1", "0"], ["1", "1"]]),
            Mat.from_strs(ring, [["0", "1"], ["0", "0"]]),
        ]
        ring_detail = []
        # nilpotent carriers per target index: over F2 index 2 first appears
        # for the two-block 4x4 nilpotent (no 2x2 or 3x3 invertible
        # almost-hermitian sigma has N-index 2 there)
        nil_candidates = {
            2: [
                Mat.from_strs(ring, [["0", "1"], ["0", "0"]]),
                Mat.from_strs(
                    ring,
                    [
                        ["0", "1", "0", "0"],
                        ["0", "0", "0", "0"],
                        ["0", "0", "0", "1"],
                        ["0", "0", "0", "0"],
                    ],
                ),
            ],
            3: [
                Mat.from_strs(ring, [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]),
            ],
        }
        for idx in (2, 3):
            sigmas = []
            for nil in nil_candidates[idx]:
                sigmas = _sigmas_with_index(ring, nil)
                if sigmas:
                    break
            if not sigmas:
                passed = False
                continue
            for sigma in sigmas:
                rep = lemma4_recursion(sigma, delta, zetas[1], depth=idx)
                rep_zero = lemma4_recursion(sigma, delta, zetas[0], depth=0)
                ok = (
                    rep["passed"]
                    and rep["residual_zero"]
                    and rep["nilpotency_index"] <= idx
                    and rep_zero["residual_zero"]
                )
                # every zeta at full depth
                for z in zetas:
                    r = lemma4_recursion(sigma, delta, z, depth=idx)
                    ok = ok and r["residual_zero"] and r["passed"]
                ring_detail.append(
                    {"target_index": idx, "index": rep["nilpotency_index"], "ok": ok}
                )
                passed = passed and ok
        details[label] = ring_detail
    return _report(9, "lemma4_recursion", passed, details)


def check_sqrt_nilpotent():
    """Criterion 10: gamma(t)^* gamma(t) = 1 + nu t exactly for nu of index
    <= 3 over F4 (lambda = w) and Z/9 (lambda = 5)."""
    f4 = F4()
    z9 = Zn(9)
    cases = [
        ("F4_index2", f4, Mat.from_strs(f4, [["1", "w"], ["w+1", "1"]])),
        (
            "F4_index3",
            f4,
            Mat.from_strs(f4, [["0", "1", "0"], ["1", "0", "1"], ["0", "1", "0"]]),
        ),
        ("Z9_index2", z9, Mat.from_strs(z9, [["0", "3"], ["3", "0"]])),
        (
            "Z9_index3",
            z9,
            Mat.from_strs(z9, [["4", "1", "1"], ["1", "7", "1"], ["1", "1", "1"]]),
        ),
        ("F4_zero", f4, Mat.zero(f4, 2)),
    ]
    details = {}
    passed = True
    for label, ring, nu in cases:
        lam = ring.find_split_unit()
        gamma, rep = sqrt_one_plus_nu_t(nu, lam)
        details[label] = {
            "index": rep["nilpotency_index"],
            "gamma_degree": rep["gamma_degree"],
            "passed": rep["passed"],
        }
        passed = passed and rep["passed"]
    return _report(10, "sqrt_one_plus_nu_t", passed, details)


def projector_instances():
    """The constructed instances for criterion 11."""
    z4 = Zn(4)
    p0 = Mat.from_strs(z4, [["1", "0"], ["0", "0"]])
    sigma = Mat.from_strs(z4, [["0", "2"], ["2", "0"]])
    gens4 = []
    for i in range(2):
        for j in range(2):
            entries = [[z4.zero] * 2 for _ in range(2)]
            entries[i][j] = z4.from_str("2")
            gens4.append(Mat(z4, entries))
    yield "Z4_trivial", p0, p0, gens4, None
    yield "Z4_shifted", p0, p0 + sigma, gens4, None

    f3 = Fp(3)
    a = Mat.from_strs(f3, [["1", "0"], ["0", "0"]])
    c = Mat.from_strs(f3, [["0", "1"], ["1", "0"]])
    z2 = Mat.zero(f3, 2)
    ident2 = Mat.identity(f3, 2)
    p0b = block(f3, [[a, z2], [c, a.transpose()]])
    y = Mat.from_strs(f3, [["0", "1"], ["1", "0"]])
    sig3 = block(f3, [[z2, z2], [y, z2]])
    gram = block(f3, [[z2, ident2], [ident2, z2]])
    gens3 = []
    for i in range(2):
        for j in range(2):
            entries = [[f3.zero] * 2 for _ in range(2)]
            entries[i][j] = f3.one
            gens3.append(block(f3, [[z2, z2], [Mat(f3, entries), z2]]))
    yield "F3_hyperbolic_adjoint", p0b, p0b + sig3, gens3, gram


def check_projectors():
    """Criterion 11: every constructed instance satisfies all postconditions."""
    details = {}
    passed = True
    for label, p0, p1, gens, gram in projector_instances():
        alpha, rep = projector_conjugator(p0, p1, gens, gram=gram)
        details[label] = {k: v for k, v in rep.items()}
        passed = passed and rep["passed"]
    return _report(11, "projector_conjugation", passed, details)


def check_dickson():
    """Criterion 12: Dickson is a homomorphism onto Z/2 with index-2 kernel
    on the orthogonal groups of the rank-2 and rank-4 hyperbolic forms."""
    f2 = F2()
    details = {}
    passed = True
    for m in (1, 2):
        q = hyperbolic(f2, 1, m)
        group = enumerate_orthogonal_min(q)
        values = {g: dickson(g, q) for g in group}
        hom = all(
            values[g * h] == (values[g] + values[h]) % 2
            for g in group
            for h in group
        )
        onto = set(values.values()) == {0, 1}
        kernel = sum(1 for v in values.values() if v == 0)
        index2 = len(group) == 2 * kernel
        details[f"hyperbolic_{m}"] = {
            "order": len(group),
            "kernel": kernel,
            "homomorphism": hom,
            "onto": onto,
            "kernel_index_2": index2,
        }
        passed = passed and hom and onto and index2
    return _report(12, "dickson_homomorphism", passed, details)


SUITES = {
    "witt-f2": check_witt_f2,
    "split-unit-collapse": check_split_unit_collapse,
    "extension-exactness": check_extension_exactness,
    "section-and-dual-numbers": check_section_and_dual_numbers,
    "xi-computations": check_xi,
    "whitehead-identities": check_whitehead,
    "clauwens-lemma-1-2": check_clauwens_lemmas,
    "linearization": check_linearization,
    "lemma4-recursion": check_lemma4,
    "sqrt-one-plus-nu-t": check_sqrt_nilpotent,
    "projector-conjugation": check_projectors,
    "dickson-homomorphism": check_dickson,
}


def run_suites(names=None):
    """Run the named suites (all by default) and aggregate one report."""
    chosen = list(SUITES) if not names or names == ["all"] else names
    unknown = [n for n in chosen if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    results = []
    shared_sweep = None
    for name in chosen:
        start = time.perf_counter()
        fn = SUITES[name]
        if name in ("clauwens-lemma-1-2", "linearization"):
            if shared_sweep is None:
                shared_sweep = clauwens_sweep()
            rep = fn(shared_sweep)
        else:
            rep = fn()
        rep["seconds"] = round(time.perf_counter() - start, 3)
        results.append(rep)
    return {
        "version": __version__,
        "suites": results,
        "passed": all(r["passed"] for r in results),
    }
