import json
import random
import time

import pytest

from hermkq.additive import solve_affine
from hermkq.caps import CapExceeded, Unsupported, scoped_cap
from hermkq.clauwens import (
    AlmostHermitian,
    DeltaDatum,
    MatPoly,
    PolyQuadForm,
    _congruent_hermitian_parts,
    _degree_reduction_factor,
    _generated_subring,
    _poly_unit,
    _stabilize_theta,
    _substitute,
    cup_product,
    kappa_hermitian_two_ways,
    kappa_nondegenerate,
    lemma2_shift,
    lemma4_recursion,
    linearize,
    linearize_cup_soundness,
    projector_conjugator,
    sqrt_one_plus_nu_t,
)
from hermkq.cli import main
from hermkq.forms import DegenerateFormError, QuadFormEl, form_from_json, hyperbolic, min_equal
from hermkq.linalg import Mat, _det_comm, all_matrices, block, invert, kron
from hermkq.rings import F2, F4, DualRing, Fp, Mat2Ring, PolySRing, Zn, ring_from_json


F2_ = F2()
HYP = hyperbolic(F2_, 1, 1)
DELTA = DeltaDatum.from_quadform(HYP)


def all_deltas_f2():
    out = []
    for m in all_matrices(F2_, 2, 2):
        q = QuadFormEl(F2_, 1, m)
        if q.nondegenerate:
            out.append(DeltaDatum.from_quadform(q))
    return out


def test_delta_datum_from_hyperbolic():
    assert DELTA.gram.to_strs() == [["0", "1"], ["1", "0"]]
    assert DELTA.phi + DELTA.adjoint(DELTA.phi) == Mat.identity(F2_, 2)


def test_delta_datum_validation():
    with pytest.raises(ValueError):
        DeltaDatum(F2_, 1, 2, Mat.from_strs(F2_, [["0", "1"], ["1", "0"]]), Mat.zero(F2_, 2))
    with pytest.raises(DegenerateFormError):
        DeltaDatum(F2_, 1, 2, Mat.zero(F2_, 2), Mat.zero(F2_, 2))


def test_delta_datum_checks_a_given_inverse_by_one_product():
    gram = Mat.from_strs(F2_, [["0", "1"], ["1", "0"]])
    phi = Mat.from_strs(F2_, [["0", "0"], ["0", "1"]])
    assert DeltaDatum(F2_, 1, 2, gram, phi, gram) == DeltaDatum(F2_, 1, 2, gram, phi)
    with pytest.raises(ValueError, match="gram_inv is not the inverse of gram"):
        DeltaDatum(F2_, 1, 2, gram, phi, Mat.identity(F2_, 2))
    with pytest.raises(ValueError, match="phi fails"):
        DeltaDatum(F2_, 1, 2, gram, Mat.zero(F2_, 2), gram)


def test_delta_datum_from_a_form_inverts_its_gram_once(monkeypatch):
    import hermkq.clauwens
    import hermkq.forms

    calls = []
    for module in (hermkq.clauwens, hermkq.forms):
        monkeypatch.setattr(module, "invert", lambda m, f=module.invert: calls.append(m) or f(m))
    f2 = Fp(2)  # a fresh ring object, which has met none of these forms
    for phi0 in (hyperbolic(f2, 1, 2).phi0, Mat.from_strs(f2, [["1", "1"], ["0", "1"]])):
        q = QuadFormEl(f2, 1, phi0)
        calls.clear()
        d = DeltaDatum.from_quadform(q)
        assert calls == [q.associated().phi] and d.gram_inv * d.gram == Mat.identity(f2, q.n)
        assert d == DeltaDatum(f2, 1, q.n, d.gram, d.phi)  # the same datum, built directly
        calls.clear()
        assert DeltaDatum.from_quadform(QuadFormEl(f2, 1, Mat(f2, phi0.entries))) is d
        assert calls == []  # an equal form reads the datum already built
    with pytest.raises(DegenerateFormError, match="needs a nondegenerate form"):
        DeltaDatum.from_quadform(QuadFormEl(f2, 1, Mat.zero(f2, 2)))
    with pytest.raises(DegenerateFormError, match="needs a nondegenerate form"):
        DeltaDatum.from_quadform(QuadFormEl(f2, 1, Mat.zero(f2, 2)))  # a refusal is not kept


def test_equal_forms_share_a_datum_per_ring_object():
    f2 = ring_from_json({"kind": "Fp", "p": 2})
    rows = [["1", "1"], ["0", "1"]]
    d = DeltaDatum.from_quadform(QuadFormEl(f2, 1, Mat.from_strs(f2, rows)))
    form = {"ring": {"kind": "Fp", "p": 2}, "epsilon": 1, "variant": "el", "matrix": rows}
    assert DeltaDatum.from_quadform(form_from_json(form)) is d  # the interned ring
    other = Fp(2)  # a second F2 object keeps its own data
    twin = DeltaDatum.from_quadform(QuadFormEl(other, 1, Mat.from_strs(other, rows)))
    assert twin is not d and twin == d and twin.ring is other
    # a ring with a split unit is made afresh for every spec, with no data
    spec = {"kind": "Fp", "p": 3, "split_unit": "2"}
    f3a, f3b = ring_from_json(spec), ring_from_json(spec)
    plane = [["0", "1"], ["0", "0"]]
    da = DeltaDatum.from_quadform(QuadFormEl(f3a, 1, Mat.from_strs(f3a, plane)))
    db = DeltaDatum.from_quadform(QuadFormEl(f3b, 1, Mat.from_strs(f3b, plane)))
    assert f3a is not f3b and da is not db and da == db
    # epsilon is part of the form: the same phi0 at eps -1 is another datum
    dm = DeltaDatum.from_quadform(QuadFormEl(f3a, -1, Mat.from_strs(f3a, plane)))
    assert dm is not da and dm.eta == -1
    assert DeltaDatum.from_quadform(QuadFormEl(f3a, 1, Mat.from_strs(f3a, plane))) is da


def test_shared_data_are_bounded_per_ring_oldest_out_first():
    import hermkq.clauwens

    limit = hermkq.clauwens._DATA_PER_RING
    assert limit == 64
    ring = Fp(1031)  # the rank-1 forms [[a]], a != 0, are nondegenerate and distinct
    forms = [QuadFormEl(ring, 1, Mat(ring, [[a]])) for a in range(1, limit + 2)]
    data = [DeltaDatum.from_quadform(q) for q in forms]  # the last pushes out the first
    assert all(DeltaDatum.from_quadform(q) is d for q, d in zip(forms[1:], data[1:]))
    again = DeltaDatum.from_quadform(forms[0])
    assert again is not data[0] and again == data[0]
    assert DeltaDatum.from_quadform(forms[1]) is not data[1]  # now the oldest went
    assert len(ring._delta_data) == limit


def test_powers_grown_by_one_query_are_read_by_the_next(monkeypatch):
    f2 = Fp(2)
    hyp = Mat.from_strs(f2, [["0", "1"], ["0", "0"]])
    s3 = Mat.from_strs(f2, [["1", "1"], ["0", "0"]])  # s3 + s3^t != 0
    z = MatPoly(f2, 2, 2, [Mat.zero(f2, 2), Mat.zero(f2, 2), Mat.zero(f2, 2), s3])
    theta = PolyQuadForm(f2, 1, MatPoly(f2, 2, 2, [hyp]) + z - z.star())
    assert theta.degree() == 3
    products = []
    mul = Mat.__mul__

    def counting_mul(a, b):
        products.append(b)
        return mul(a, b)

    monkeypatch.setattr(Mat, "__mul__", counting_mul)
    counts = []
    for _ in range(2):  # two queries, each with its own parse of the form
        products.clear()
        d = DeltaDatum.from_quadform(QuadFormEl(f2, 1, Mat(f2, hyp.entries)))
        kappa = cup_product(theta, d)
        counts.append((len(products), sum(b is d.phi for b in products)))
    assert counts[0][1] == 3  # Delta phi, Delta phi^2, Delta phi^3, formed once
    assert counts[1] == (0, 0)  # the second query forms no product at all
    monkeypatch.undo()
    assert kappa.phi0 == _substitute(theta.theta, DeltaDatum(f2, 1, 2, d.gram, d.phi))


def test_delta_datum_is_frozen():
    from dataclasses import FrozenInstanceError

    d = DeltaDatum.from_quadform(QuadFormEl(Fp(2), 1, hyperbolic(Fp(2), 1, 1).phi0))
    for name in ("ring", "eta", "m", "gram", "phi", "gram_inv"):
        with pytest.raises(FrozenInstanceError):
            setattr(d, name, None)
    assert d.powers(3)[2] == d.gram * d.phi * d.phi  # the powers still grow


def test_matpoly_star_s_is_involutive():
    coeffs = [
        Mat.from_strs(F2_, [["1", "0"], ["1", "1"]]),
        Mat.from_strs(F2_, [["0", "1"], ["0", "0"]]),
        Mat.from_strs(F2_, [["1", "1"], ["0", "1"]]),
    ]
    p = MatPoly(F2_, 2, 2, coeffs)
    assert p.star().star() == p
    q = MatPoly(F2_, 2, 2, coeffs[:2])
    assert (p * q).star() == q.star() * p.star()
    z5 = Fp(5)
    p5 = MatPoly(z5, 1, 1, [Mat.from_strs(z5, [["2"]]), Mat.from_strs(z5, [["3"]])])
    assert p5.star().star() == p5
    # rings with nilpotents, and F4 with the Frobenius involution
    for ring in (Zn(4), F4(), DualRing(F2_)):
        els = ring.elements()
        cs = [
            Mat(ring, [[els[(3 * k + 2 * i + j + 1) % len(els)] for j in range(2)] for i in range(2)])
            for k in range(3)
        ]
        p = MatPoly(ring, 2, 2, cs)
        q = MatPoly(ring, 2, 2, cs[1:])
        assert p.coeffs == cs
        assert MatPoly(ring, 2, 2, cs + [Mat.zero(ring, 2)]).coeffs == cs  # zero top trimmed
        assert p.star().star() == p
        assert (p * q).star() == q.star() * p.star()


def test_poly_det_and_units():
    ps2 = F2_.poly_s()
    ident = MatPoly(F2_, 2, 2, [Mat.identity(F2_, 2)])
    assert ps2.to_coeffs(_det_comm(ident)) == (F2_.one,)
    s_shift = MatPoly(F2_, 1, 1, [Mat.zero(F2_, 1), Mat.identity(F2_, 1)])
    assert not _poly_unit(ps2, _det_comm(s_shift))
    z4 = Zn(4)
    ps = z4.poly_s()
    # 1 + 2s is a unit of Z/4[s] (2 nilpotent)
    assert _poly_unit(ps, ps.from_coeffs((1, 2)))
    assert not _poly_unit(ps, ps.from_coeffs((2, 1)))
    # the determinant over Z/4[s] is multiplicative at rank 2
    mats = list(all_matrices(z4, 2, 2))[::37]
    polys = [MatPoly(z4, 2, 2, [a, b]) for a in mats for b in mats[::2]]
    for p in polys[::5]:
        for q in polys[::7]:
            assert _det_comm(p * q) == ps.mul(_det_comm(p), _det_comm(q))


def test_poly_quad_form_refuses_a_noncommutative_ring():
    m2 = Mat2Ring(F2_)
    with pytest.raises(Unsupported, match="polynomial determinant needs a commutative ring"):
        PolyQuadForm.from_coeff_mats(m2, 1, [Mat.identity(m2, 1)])


def test_cup_product_linear_case():
    # linear theta = g*s with g the invertible hermitian matrix: kappa = g (x) delta
    g = HYP.associated().phi
    theta = PolyQuadForm.from_coeff_mats(F2_, 1, [Mat.zero(F2_, 2), g])
    kappa = cup_product(theta, DELTA)
    assert kappa.phi0 == kron(g, DELTA.gram * DELTA.phi)
    assert kappa.n == 4 and kappa.nondegenerate


def test_cup_product_constant_case():
    theta = PolyQuadForm.from_coeff_mats(F2_, 1, [HYP.phi0])
    kappa = cup_product(theta, DELTA)
    assert kappa.phi0 == kron(HYP.phi0, DELTA.gram)


def test_cup_product_explicit_4x4():
    g = HYP.associated().phi
    theta = PolyQuadForm.from_coeff_mats(F2_, 1, [Mat.zero(F2_, 2), g])
    kappa = cup_product(theta, DELTA)
    assert invert(kappa.associated().phi) is not None
    assert kappa_nondegenerate(theta, DELTA)


def test_cup_product_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        PolyQuadForm.from_coeff_mats(F2_, 1, [Mat.zero(F2_, 1)])


def test_kappa_hermitian_two_evaluation_orders():
    g = HYP.associated().phi
    theta = PolyQuadForm.from_coeff_mats(
        F2_, 1, [HYP.phi0, g, Mat.from_strs(F2_, [["0", "0"], ["1", "0"]])], check=False
    )
    if theta.nondegenerate():
        direct, lifted = kappa_hermitian_two_ways(theta, DELTA)
        assert direct == lifted


def test_lemma2_zero_shift():
    g = HYP.associated().phi
    theta = PolyQuadForm.from_coeff_mats(F2_, 1, [Mat.zero(F2_, 2), g])
    shifted, witness = lemma2_shift(theta, MatPoly(F2_, 2, 2, []), DELTA)
    assert shifted.theta == theta.theta
    assert witness["gamma"].is_zero()


def test_lemma2_refuses_degenerate_theta_built_unchecked():
    # H(theta) = 0: the shift takes its verdict from theta itself
    theta = PolyQuadForm.from_coeff_mats(F2_, 1, [Mat.zero(F2_, 2)], check=False)
    with pytest.raises(DegenerateFormError):
        lemma2_shift(theta, MatPoly(F2_, 2, 2, []), DELTA)


def test_lemma2_monomial_and_degree2_shifts():
    g = HYP.associated().phi
    theta = PolyQuadForm.from_coeff_mats(F2_, 1, [Mat.zero(F2_, 2), g])
    e = Mat.from_strs(F2_, [["1", "0"], ["0", "0"]])
    for k in range(3):
        z = MatPoly(F2_, 2, 2, [Mat.zero(F2_, 2)] * k + [e])
        shifted, witness = lemma2_shift(theta, z, DELTA)  # raises on failure
        assert witness is not None
    # rank-1 exhaustive shifts of degree <= 2
    theta1 = PolyQuadForm.from_coeff_mats(
        F2_, 1, [Mat.zero(F2_, 1), Mat.identity(F2_, 1)]
    )
    delta1 = DELTA
    for c0 in F2_.elements():
        for c1 in F2_.elements():
            for c2 in F2_.elements():
                z = MatPoly(F2_, 1, 1, [Mat(F2_, [[c0]]), Mat(F2_, [[c1]]), Mat(F2_, [[c2]])])
                lemma2_shift(theta1, z, delta1)


def test_linearize_already_linear():
    g = HYP.associated().phi
    theta = PolyQuadForm.from_coeff_mats(F2_, 1, [Mat.zero(F2_, 2), g])
    almost, transcript = linearize(theta)
    assert transcript == []
    assert almost.g == g and almost.index == 1  # N = 0 has index 1


def test_linearize_constant_rank1():
    # over F2 a rank-1 constant hermitianizes to zero; F3 carries the example
    z3 = Fp(3)
    theta = PolyQuadForm.from_coeff_mats(z3, 1, [Mat.identity(z3, 1)])
    almost, transcript = linearize(theta)
    assert [s["kind"] for s in transcript] == ["constant_elimination"]
    assert almost.g == Mat.from_strs(z3, [["2"]])  # theta0 + theta0^*
    assert invert(almost.g) is not None and almost.index == 1


def test_linearize_degree2_rank1():
    theta = PolyQuadForm.from_coeff_mats(
        F2_, 1, [Mat.zero(F2_, 1), Mat.zero(F2_, 1), Mat.identity(F2_, 1)]
    )
    almost, transcript = linearize(theta)
    assert almost.g.rows == 3  # rank 1 + one hyperbolic stabilization
    assert transcript[0]["kind"] == "degree_reduction"
    assert almost.index is not None
    ident = Mat.identity(F2_, 3)
    assert almost.g.star() == (almost.g * (ident + almost.nilpotent)).scale_sign(1)


def test_linearize_step_recheck_catches_a_wrong_theta():
    theta = PolyQuadForm.from_coeff_mats(
        F2_, 1, [Mat.identity(F2_, 1), Mat.zero(F2_, 1), Mat.identity(F2_, 1)]
    )
    q = _degree_reduction_factor(theta)
    middle = _stabilize_theta(theta)
    new_theta = q.star() * middle * q
    assert _congruent_hermitian_parts(1, middle, q, new_theta)
    # one off-diagonal constant entry changes the hermitian part by E01 + E10
    ps, n = new_theta.ring, new_theta.rows
    wrong = new_theta + Mat(ps, [[ps.one if (i, j) == (0, 1) else ps.zero for j in range(n)]
                                 for i in range(n)])
    assert not _congruent_hermitian_parts(1, middle, q, wrong)



@pytest.mark.parametrize("ring", [F2_, Zn(4)], ids=["F2", "Z4"])
def test_linearize_takes_no_determinant_past_its_input(ring, monkeypatch):
    # each step's form is congruent to the last one (+) a hyperbolic block,
    # which `_congruent_hermitian_parts` checks, so it keeps theta's verdict
    e12, zero = Mat.from_strs(ring, [["0", "1"], ["0", "0"]]), Mat.zero(ring, 2)
    z = MatPoly(ring, 2, 2, [zero, zero, zero, e12])
    theta = PolyQuadForm(ring, 1, MatPoly(ring, 2, 2, [e12]) + z - z.star())
    assert theta.degree() == 3
    from hermkq import clauwens

    calls = []
    monkeypatch.setattr(clauwens, "_det_comm", lambda m: calls.append(m) or _det_comm(m))
    almost, transcript = linearize(theta)
    assert [s["kind"] for s in transcript][:2] == ["degree_reduction"] * 2
    assert calls == []

def test_linearize_soundness_small():
    theta = PolyQuadForm.from_coeff_mats(
        F2_, 1, [Mat.identity(F2_, 1), Mat.zero(F2_, 1), Mat.identity(F2_, 1)]
    )
    almost, transcript = linearize(theta)
    for d in all_deltas_f2():
        assert linearize_cup_soundness(theta, almost, transcript, d)


def test_linearize_rejects_degenerate():
    bad = PolyQuadForm.from_coeff_mats(F2_, 1, [Mat.zero(F2_, 1)], check=False)
    with pytest.raises(DegenerateFormError):
        linearize(bad)


def _sigma_with_nilpotent(ring, nil):
    sols = solve_affine(
        ring, (nil.rows, nil.rows),
        lambda s: s.star() - s - s * nil,
        Mat.zero(ring, nil.rows),
        all_solutions=True,
    )
    return [s for s in sols if invert(s) is not None]


def test_lemma4_zeta_zero_and_hermitian_sigma():
    # zeta = 0: f = 1, Z = 0 and the residual vanishes at depth 0
    sym = HYP.associated().phi  # hermitian: N = 0
    rep = lemma4_recursion(sym, DELTA, Mat.zero(F2_, 2), depth=0)
    assert rep["residual_zero"] and rep["nilpotency_index"] == 1
    # N = 0 with nonzero zeta is already exact at p = 0
    rep2 = lemma4_recursion(sym, DELTA, Mat.from_strs(F2_, [["1", "0"], ["0", "0"]]), depth=0)
    assert rep2["residual_zero"]


def test_lemma4_index3_over_f2():
    nil = Mat.from_strs(F2_, [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]])
    sigmas = _sigma_with_nilpotent(F2_, nil)
    assert sigmas
    zeta = Mat.from_strs(F2_, [["1", "0"], ["1", "1"]])
    rep = lemma4_recursion(sigmas[0], DELTA, zeta, depth=3)
    assert rep["nilpotency_index"] == 3
    assert all(s["defect_in_span"] for s in rep["steps"])
    assert rep["residual_zero"]
    # below the index the residual need not vanish but stays in the span
    partial = lemma4_recursion(sigmas[0], DELTA, zeta, depth=1)
    assert partial["steps"][-1]["defect_in_span"]


def test_lemma4_index2_over_f4():
    f4 = F4()
    nil = Mat.from_strs(f4, [["0", "1"], ["0", "0"]])
    sigmas = _sigma_with_nilpotent(f4, nil)
    assert sigmas
    d4 = DeltaDatum.from_quadform(hyperbolic(f4, 1, 1))
    zeta = Mat.from_strs(f4, [["w", "0"], ["0", "1"]])
    rep = lemma4_recursion(sigmas[0], d4, zeta, depth=2)
    assert rep["residual_zero"] and rep["passed"]


def test_lemma4_residual_filtration():
    # the defect at every step lies in the span generated at level p+1
    nil = Mat.from_strs(F2_, [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]])
    sigma = _sigma_with_nilpotent(F2_, nil)[0]
    zeta = Mat.from_strs(F2_, [["0", "1"], ["0", "0"]])
    rep = lemma4_recursion(sigma, DELTA, zeta, depth=3)
    assert [s["defect_in_span"] for s in rep["steps"]] == [True] * 4


def test_lemma4_refuses_a_datum_over_another_ring():
    f3 = Fp(3)
    with pytest.raises(ValueError, match="must share a ring"):
        lemma4_recursion(Mat.identity(f3, 1), DELTA, Mat.zero(f3, 2), depth=1)


def test_lemma4_refuses_a_negative_depth():
    sym = HYP.associated().phi
    with pytest.raises(ValueError, match="depth"):
        lemma4_recursion(sym, DELTA, Mat.zero(F2_, 2), depth=-1)


def test_sqrt_trivial_and_f4():
    f4 = F4()
    lam = f4.find_split_unit()
    gamma, rep = sqrt_one_plus_nu_t(Mat.zero(f4, 2), lam)
    assert rep["passed"] and gamma == MatPoly(f4, 2, 2, [Mat.identity(f4, 2)])
    nu = Mat.from_strs(f4, [["1", "w"], ["w+1", "1"]])
    gamma2, rep2 = sqrt_one_plus_nu_t(nu, lam)
    assert rep2["passed"] and rep2["nilpotency_index"] == 2 and gamma2.degree <= 1


def test_sqrt_z9():
    z9 = Zn(9)
    lam = z9.find_split_unit()
    assert lam == 5
    nu = Mat.from_strs(z9, [["0", "3"], ["3", "0"]])
    gamma, rep = sqrt_one_plus_nu_t(nu, lam)
    assert rep["passed"]
    nu3 = Mat.from_strs(z9, [["4", "1", "1"], ["1", "7", "1"], ["1", "1", "1"]])
    gamma3, rep3 = sqrt_one_plus_nu_t(nu3, lam)
    assert rep3["passed"] and rep3["nilpotency_index"] == 3


def test_sqrt_rejects_bad_inputs():
    f4 = F4()
    lam = f4.find_split_unit()
    with pytest.raises(ValueError):
        sqrt_one_plus_nu_t(Mat.identity(f4, 2), lam)  # not nilpotent
    with pytest.raises(ValueError):
        sqrt_one_plus_nu_t(Mat.from_strs(f4, [["0", "1"], ["0", "0"]]), lam)  # not self-adjoint
    with pytest.raises(ValueError):
        sqrt_one_plus_nu_t(Mat.zero(F2_, 2), F2_.one)  # 1 is not a split unit of F2


def test_projector_trivial_and_z4():
    z4 = Zn(4)
    p0 = Mat.from_strs(z4, [["1", "0"], ["0", "0"]])
    gens = []
    for i in range(2):
        for j in range(2):
            entries = [[z4.zero] * 2 for _ in range(2)]
            entries[i][j] = 2
            gens.append(Mat(z4, entries))
    alpha, rep = projector_conjugator(p0, p0, gens)
    assert rep["passed"] and alpha == Mat.identity(z4, 2)
    sigma = Mat.from_strs(z4, [["0", "2"], ["2", "0"]])
    alpha2, rep2 = projector_conjugator(p0, p0 + sigma, gens)
    assert rep2["passed"]
    assert alpha2 * (p0 + sigma) == p0 * alpha2
    assert alpha2 != Mat.identity(z4, 2)


def test_projector_f3_hyperbolic_adjoint():
    f3 = Fp(3)
    a = Mat.from_strs(f3, [["1", "0"], ["0", "0"]])
    c = Mat.from_strs(f3, [["0", "1"], ["1", "0"]])
    z2 = Mat.zero(f3, 2)
    ident2 = Mat.identity(f3, 2)
    p0 = block(f3, [[a, z2], [c, a.transpose()]])
    y = Mat.from_strs(f3, [["0", "1"], ["1", "0"]])
    sigma = block(f3, [[z2, z2], [y, z2]])
    gram = block(f3, [[z2, ident2], [ident2, z2]])
    gens = []
    for i in range(2):
        for j in range(2):
            entries = [[f3.zero] * 2 for _ in range(2)]
            entries[i][j] = f3.one
            gens.append(block(f3, [[z2, z2], [Mat(f3, entries), z2]]))
    alpha, rep = projector_conjugator(p0, p0 + sigma, gens, gram=gram)
    assert rep["passed"]
    assert alpha != Mat.identity(f3, 4)


def test_projector_reports_violations_individually():
    z4 = Zn(4)
    not_idem = Mat.from_strs(z4, [["2", "0"], ["0", "0"]])
    gens = [Mat.from_strs(z4, [["2", "0"], ["0", "0"]])]
    _, rep = projector_conjugator(not_idem, not_idem, gens)
    assert not rep["p0_idempotent"]
    assert not rep["passed"]


def test_almost_hermitian_validation():
    g = HYP.associated().phi
    almost = AlmostHermitian.from_matrix(F2_, 1, g)
    assert almost.index == 1
    with pytest.raises(DegenerateFormError):
        AlmostHermitian.from_matrix(F2_, 1, Mat.zero(F2_, 2))
    with pytest.raises(ValueError):
        # invertible but sigma^{-1} sigma^* - 1 is not nilpotent over F3
        AlmostHermitian.from_matrix(Fp(3), 1, Mat.from_strs(Fp(3), [["1", "1"], ["2", "1"]]))


def test_sqrt_accepts_nilpotent_scalar_past_rows_times_cols():
    # 3 is nilpotent of index 2 over Z/9, above the 1 = rows*cols of a 1x1 nu
    gamma, rep = sqrt_one_plus_nu_t(Mat(Zn(9), [[3]]), 5)
    assert rep["passed"] and rep["nilpotency_index"] == 2


def test_sqrt_refuses_a_ring_without_split_unit():
    z4 = Zn(4)
    assert z4.find_split_unit() is None
    with pytest.raises(ValueError, match="no split unit"):
        sqrt_one_plus_nu_t(Mat(z4, [[2]]), None)


def test_sqrt_refuses_non_nilpotent_polynomial_nu():
    # s - s^2 over F3[s] is self-adjoint; its powers grow without repeating
    ps = PolySRing(Fp(3))
    with scoped_cap(32), pytest.raises(ValueError, match="nu must be nilpotent"):
        sqrt_one_plus_nu_t(Mat(ps, [[(0, 1, 2)]]), (0, 1))


def test_library_surface_of_the_benchmark():
    # the calls perfbench/worker.py makes, as a library user would
    import hermkq as hk

    f2 = {"kind": "Fp", "p": 2}
    ring = hk.ring_from_json(f2)
    theta_doc = [[["0", "0"], ["0", "1"]], [["0", "0"], ["0", "0"]], [["0", "1"], ["1", "0"]]]
    theta = hk.PolyQuadForm.from_coeff_mats(ring, 1, [hk.Mat.from_strs(ring, c) for c in theta_doc])
    assert theta.theta.to_strs() == theta_doc
    delta = hk.DeltaDatum.from_quadform(hk.form_from_json(
        {"ring": f2, "epsilon": 1, "variant": "el", "matrix": [["0", "1"], ["0", "0"]]}))
    z_doc = [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]],
             [["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    z = hk.MatPoly(ring, theta.n, theta.n, [hk.Mat.from_strs(ring, c) for c in z_doc])
    shifted, witness = hk.lemma2_shift(theta, z, delta)
    # a list of coefficient matrices, zero top coefficients trimmed
    assert shifted.theta.to_strs() == [[["0", "0"], ["1", "1"]]]
    assert witness["gamma"].to_strs() == [
        ["0", "1", "0", "1"], ["1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]
    almost, transcript = hk.linearize(theta)
    assert [s["kind"] for s in transcript] == ["degree_reduction", "constant_elimination"]
    assert hk.linearize_cup_soundness(theta, almost, transcript, delta) is True
    assert almost.index == 3 and almost.g.rows == 6


def _subring_oracle(ring, n, gens, cap):
    """The closure under +, * on both sides, listed element by element."""
    span = set(gens)
    span.add(Mat.zero(ring, n))
    frontier = list(span)
    while frontier:
        cur = frontier.pop()
        new = []
        for g in list(span):
            new.append(cur + g)
            new.append(cur * g)
            new.append(g * cur)
        for x in new:
            if x not in span:
                if len(span) >= cap:
                    raise CapExceeded("generated subring exceeds cap")
                span.add(x)
                frontier.append(x)
    return span


def _subring_or_refusal(ring, n, gens, cap, closure):
    try:
        return closure(ring, n, gens, cap)
    except CapExceeded as exc:
        assert str(exc) == "generated subring exceeds cap"
        return None


SUBRING_RINGS = [
    ("F2", F2_, 3), ("Z4", Zn(4), 2), ("Z8", Zn(8), 2), ("Z9", Zn(9), 2),
    ("Dual-F2", DualRing(F2_), 2), ("F3", Fp(3), 2), ("Mat2-F2", Mat2Ring(F2_), 1),
]


@pytest.mark.parametrize("ring,n", [(r, n) for _, r, n in SUBRING_RINGS],
                         ids=[k for k, _, _ in SUBRING_RINGS])
def test_generated_subring_matches_the_closure_oracle(ring, n):
    # the oracle costs |S|^2 products, so its cap stays small; refusing at
    # the same cap is part of the match
    cap = 128
    rng = random.Random(n * 1009 + ring.size)
    elems = ring.elements()
    sizes = []
    for k in range(8):
        gens = [Mat(ring, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
                for _ in range(1 + k % 2)]
        if k % 4 == 3:
            gens.append(Mat.identity(ring, n))
        expected = _subring_or_refusal(ring, n, gens, cap, _subring_oracle)
        got = _subring_or_refusal(ring, n, gens, cap, _generated_subring)
        assert got == expected
        if got is None:
            continue
        sizes.append(len(got))
        assert _generated_subring(ring, n, gens, cap=len(got)) == got
        if len(got) == 1:
            continue  # {0} is never refused, by either
        with pytest.raises(CapExceeded, match="generated subring exceeds cap"):
            _generated_subring(ring, n, gens, cap=len(got) - 1)
    assert max(sizes) > 4


def test_generated_subring_of_a_noncommutative_ring_without_identity():
    m2 = Mat2Ring(F2_)
    a = Mat(m2, [[m2.from_str('[["0","1"],["0","0"]]')]])
    b = Mat(m2, [[m2.from_str('[["0","0"],["1","0"]]')]])
    # e12 and e21 generate all of M2(F2), with no identity among the generators
    assert _generated_subring(m2, 1, [a, b]) == set(all_matrices(m2, 1, 1))
    assert _generated_subring(m2, 1, [a]) == {Mat.zero(m2, 1), a}


def test_sqrt_over_polys_z9_with_a_constant_split_unit():
    # nu = 3(s - s^2) is self-adjoint (conj(s) = 1 - s) with nu^2 = 0; the
    # subring of 1, 5 and nu is Z/9 + Z/3 * nu, which no additive basis of
    # the infinite ring A[s] describes
    ps = PolySRing(Zn(9))
    nu = Mat(ps, [[(0, 3, 6)]])
    gamma, rep = sqrt_one_plus_nu_t(nu, (5,))
    assert rep["passed"] and rep["coefficients_in_generated_subring"]
    ident = Mat.identity(ps, 1)
    assert len(_generated_subring(ps, 1, [ident, ident.scale_left((5,)), nu])) == 27
    code = main(["clauwens", "sqrt-nilpotent", "--ring", json.dumps(ps.to_json()),
                 "--nu", json.dumps(nu.to_strs()), "--split-unit", "[5]"])
    assert code == 0


def test_generated_subring_of_an_infinite_ring_is_refused():
    # 1 and s span Z/9[s], which has no finite size; the span passes the cap
    # after a few powers of s
    ps = PolySRing(Zn(9))
    gens = [Mat(ps, [[c]]) for c in ((1,), (0, 1), (3,))]
    with pytest.raises(CapExceeded, match="generated subring exceeds cap"):
        _generated_subring(ps, 1, gens, cap=4096)


def _unit_matrix(ring, n, i, j):
    entries = [[ring.zero] * n for _ in range(n)]
    entries[i][j] = ring.one
    return Mat(ring, entries)


def test_projector_ideal_over_a_prime_past_the_basis_size():
    # Fp(8191) has no additive basis (more than additive.BASIS_CAP
    # elements); the ideal F*e21, 8191 elements, is listed from its generator
    f = Fp(8191)
    p0 = Mat.from_strs(f, [["1", "0"], ["0", "0"]])
    gens = [_unit_matrix(f, 2, 1, 0)]
    alpha, rep = projector_conjugator(p0, p0, gens)
    assert rep["passed"] and alpha == Mat.identity(f, 2)
    _, rep = projector_conjugator(p0, Mat.from_strs(f, [["1", "0"], ["5", "0"]]), gens)
    assert rep["sigma_in_ideal"] and rep["p1_idempotent"] and not rep["p1_selfadjoint"]
    _, rep = projector_conjugator(p0, Mat.from_strs(f, [["1", "1"], ["0", "0"]]), gens)
    assert not rep["sigma_in_ideal"] and not rep["passed"]


def test_projector_ideal_past_the_span_limit_is_refused_at_once():
    # 17 unit matrices over F2 span 2^17 > SPAN_LIMIT = 2^16 matrices; the
    # refusal comes once 2^16 of them are listed (0.6-1.0 s on 2 vCPUs),
    # where listing the 2^25 of the whole ring would take minutes
    f2 = F2()
    p0 = Mat.from_strs(f2, [["1"] + ["0"] * 4] + [["0"] * 5] * 4)
    gens = [_unit_matrix(f2, 5, k // 5, k % 5) for k in range(17)]
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="^ideal span exceeds cap$"):
        projector_conjugator(p0, p0, gens)
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# substitution p(phi) from the datum's powers, against its definition

SUBSTITUTION_RINGS = [
    ("F2", F2_), ("F3", Fp(3)), ("F4", F4()), ("Z4", Zn(4)), ("DualF2", DualRing(F2_)),
    ("F1031", Fp(1031)),  # not coded: entries are plain ints, operations the definitions
]


def _random_datum(ring, rng, n=2):
    """A datum from a random nondegenerate n x n form over `ring`."""
    elems = ring.elements()
    while True:
        phi0 = Mat(ring, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
        q = QuadFormEl(ring, 1, phi0)
        if q.nondegenerate:
            return DeltaDatum.from_quadform(q)


def _random_poly_mat(ring, rng, rows, cols, degree):
    """A rows x cols matrix over A[s] of degree exactly `degree` when it has
    entries (its top coefficient matrix is nonzero), zero when degree < 0."""
    elems = ring.elements()
    nonzero = [x for x in elems if x != ring.zero]
    coeffs = [Mat(ring, [[rng.choice(elems) for _ in range(cols)] for _ in range(rows)])
              for _ in range(degree + 1)]
    if rows and cols and degree >= 0 and coeffs[-1].is_zero():
        top = [list(r) for r in coeffs[-1].entries]
        top[rng.randrange(rows)][rng.randrange(cols)] = rng.choice(nonzero)
        coeffs[-1] = Mat(ring, top)
    return MatPoly(ring, rows, cols, coeffs)


@pytest.mark.parametrize("ring", [r for _, r in SUBSTITUTION_RINGS],
                         ids=[name for name, _ in SUBSTITUTION_RINGS])
def test_substitution_matches_the_sum_of_kronecker_products(ring):
    from oracles import substitute_by_kron

    rng = random.Random(29)
    d = _random_datum(ring, rng)
    ident = Mat.identity(ring, d.m)
    # rising degrees, then lower ones, so that the datum's powers are also
    # read at a shorter length than they hold; -1 is the zero polynomial
    shapes = [(2, 2), (1, 2), (2, 1), (1, 1), (0, 0)]
    for degree in (-1, 0, 1, 2, 3, 4, 2, 0, -1, 3):
        for rows, cols in shapes:
            p = _random_poly_mat(ring, rng, rows, cols, degree)
            got = _substitute(p, d)
            assert got == substitute_by_kron(p, d.phi, d.gram)
            assert (got.rows, got.cols) == (rows * d.m, cols * d.m)
            assert _substitute(p, d, gram=False) == substitute_by_kron(p, d.phi, ident)
    assert len(d._gram_powers) == len(d._phi_powers) == 5  # up to degree 4


def test_substitution_cache_is_per_datum_and_not_part_of_its_value(monkeypatch):
    from oracles import substitute_by_kron

    f2 = ring_from_json({"kind": "Fp", "p": 2})
    assert f2 is ring_from_json({"kind": "Fp", "p": 2})  # one interned ring
    gram = Mat.from_strs(f2, [["0", "1"], ["1", "0"]])
    # phi + gram^-1 phi^t gram = 1 over F2 exactly when phi's trace is 1
    d1 = DeltaDatum(f2, 1, 2, gram, Mat.from_strs(f2, [["0", "0"], ["0", "1"]]))
    d2 = DeltaDatum(f2, 1, 2, gram, Mat.from_strs(f2, [["1", "1"], ["1", "0"]]))
    hyp = Mat.from_strs(f2, [["0", "1"], ["0", "0"]])
    s1 = Mat.from_strs(f2, [["1", "0"], ["0", "1"]])
    s2 = Mat.from_strs(f2, [["0", "1"], ["1", "1"]])
    s3 = Mat.from_strs(f2, [["1", "1"], ["0", "0"]])  # s3 + s3^t != 0
    z = MatPoly(f2, 2, 2, [Mat.zero(f2, 2), s2, s1, s3])
    w = MatPoly(f2, 2, 2, [Mat.zero(f2, 2), s3])
    # hyp + z - z^* and hyp + w - w^* have hyp's invertible hermitian part
    theta = PolyQuadForm(f2, 1, MatPoly(f2, 2, 2, [hyp]) + z - z.star())
    low = PolyQuadForm(f2, 1, MatPoly(f2, 2, 2, [hyp]) + w - w.star())
    assert (theta.degree(), low.degree()) == (3, 1)
    kappas = {}
    for form in (low, theta, low):  # alternate data and degrees
        for d in (d1, d2):
            kappa = cup_product(form, d).phi0
            assert kappa == substitute_by_kron(form.theta, d.phi, d.gram)
            kappas.setdefault(id(d), set()).add(kappa)
    assert kappas[id(d1)] != kappas[id(d2)]

    fresh = DeltaDatum(f2, 1, 2, gram, d1.phi)
    assert len(d1._gram_powers) == 4 and len(fresh._gram_powers) == 1
    assert d1 == fresh and fresh == d1 and d1 != d2
    assert repr(d1) == repr(fresh)
    if DeltaDatum.__hash__ is not None:
        assert hash(d1) == hash(fresh)

    # a fresh datum: lemma 2's three substitutions and the cup product after
    # it read one set of powers, formed by three products (Delta phi^k, k <= 3)
    products = []
    mul = Mat.__mul__

    def counting_mul(a, b):
        products.append((a.rows, b.cols))
        return mul(a, b)

    monkeypatch.setattr(Mat, "__mul__", counting_mul)
    lemma2_shift(theta, z, fresh)
    cup_product(theta, fresh)
    assert 0 < len(products) <= 3
