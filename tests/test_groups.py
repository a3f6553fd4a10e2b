import dataclasses
import json
import math
import random

import pytest

import oracles
from hermkq import groups
from hermkq.additive import MatSubgroup, solve_affine
from hermkq.caps import CapExceeded, Unsupported, scoped_cap
from hermkq.forms import (
    HermForm,
    QuadFormEl,
    direct_sum,
    hyperbolic,
    shift_subgroup,
)
from hermkq.groups import (
    ElMorphism,
    check_max,
    check_min,
    compose_el,
    dual_numbers_iso,
    el_elements,
    el_identity,
    el_inverse,
    enumerate_group,
    enumerate_orthogonal_min,
    enumerate_unitary,
    extension_check,
    satisfies_S,
    section_homomorphism_report,
    split_section,
    verify_group_axioms,
    whitehead_factorization,
)
from hermkq.linalg import Mat, all_matrices, invert
from hermkq.rings import DualRing, F2, F4, Fp, Mat2Ring, PolySRing, ProductOpRing, Zn


def test_check_max_examples():
    f2 = F2()
    h = hyperbolic(f2, 1, 1).associated()
    swap = Mat.from_strs(f2, [["0", "1"], ["1", "0"]])
    shear = Mat.from_strs(f2, [["1", "1"], ["0", "1"]])
    assert check_max(Mat.identity(f2, 2), h)
    assert check_max(swap, h)
    # over F2 every invertible 2x2 preserves the alternating form (Sp2 = GL2),
    # so the shear is unitary; it fails the quadratic membership instead
    assert check_max(shear, h)
    z5 = Fp(5)
    h5 = hyperbolic(z5, 1, 1).associated()
    shear5 = Mat.from_strs(z5, [["1", "1"], ["0", "1"]])
    assert not check_max(shear5, h5)
    with pytest.raises(ValueError):
        check_max(Mat.identity(f2, 3), h)


def test_check_min_examples():
    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    assert check_min(Mat.identity(f2, 2), q) == Mat.zero(f2, 2)
    swap = Mat.from_strs(f2, [["0", "1"], ["1", "0"]])
    gamma = check_min(swap, q)
    assert gamma is not None and satisfies_S(q, swap, gamma)
    # the shear is unitary but not orthogonal: no witness gamma exists
    shear = Mat.from_strs(f2, [["1", "1"], ["0", "1"]])
    assert check_min(shear, q) is None
    # anything failing check_max on the associated form cannot be orthogonal
    z5 = Fp(5)
    q5 = hyperbolic(z5, 1, 1)
    shear5 = Mat.from_strs(z5, [["1", "1"], ["0", "1"]])
    assert not check_max(shear5, q5.associated())
    assert check_min(shear5, q5) is None


def test_compose_neutral_inverse_associative():
    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    group = el_elements(q)[0]
    ident = el_identity(q)
    for m in group:
        assert compose_el(ident, m) == m
        assert compose_el(m, ident) == m
        assert compose_el(m, el_inverse(m)) == ident
        assert compose_el(el_inverse(m), m) == ident
    rng = random.Random(3)
    for _ in range(60):
        a, b, c = (group[rng.randrange(len(group))] for _ in range(3))
        assert compose_el(compose_el(a, b), c) == compose_el(a, compose_el(b, c))


def test_compose_preserves_S_exhaustively():
    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    group = el_elements(q)[0]
    for a in group:
        for b in group:
            c = compose_el(a, b)
            assert satisfies_S(q, c.f, c.gamma)


def test_enumerate_group_orders():
    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    gmin = enumerate_group("min", q)
    o2 = oracles.orthogonal_order(1, 2, 1)  # O+2(2), of order 2
    assert gmin.order == o2
    gel = enumerate_group("el", q)
    assert gel.order == 8 * o2 and gel.kernel_order == 8 and gel.base_order == o2
    gmax = enumerate_group("max", q.associated())
    assert gmax.order == oracles.sp_order(1, 2)  # Sp2(2), of order 6
    assert all(v for v in gel.checks.values() if isinstance(v, bool))


def test_min_subgroup_of_max():
    for ring in (F2(), F4()):
        q = hyperbolic(ring, 1, 1)
        omin = set(m.key() for m in enumerate_orthogonal_min(q))
        omax = set(m.key() for m in enumerate_unitary(q.associated()))
        assert omin <= omax
        if ring.find_split_unit() is not None:
            assert omin == omax


def test_extension_check_examples():
    f2 = F2()
    rep = extension_check(hyperbolic(f2, 1, 1))
    assert rep["passed"]
    assert (rep["order_kernel"], rep["order_min"], rep["order_el"]) == (8, 2, 16)
    rep4 = extension_check(hyperbolic(F4(), 1, 1))
    assert rep4["passed"]
    assert rep4["order_el"] == rep4["order_kernel"] * rep4["order_min"]
    rep0 = extension_check(QuadFormEl(f2, 1, Mat(f2, [])))
    assert rep0["passed"] and rep0["order_el"] == 1


def test_split_section():
    f4 = F4()
    q = hyperbolic(f4, 1, 1)
    s1 = split_section(Mat.identity(f4, 2), q)
    assert s1.gamma.is_zero()
    rep = section_homomorphism_report(q)
    assert rep["passed"]
    with pytest.raises(ValueError):
        split_section(Mat.identity(F2(), 2), hyperbolic(F2(), 1, 1))


def test_kernel_action_formula():
    # s(g)^{-1} (1, u) s(g) = (1, g^{-1} u g) in the endomorphism picture
    f4 = F4()
    q = hyperbolic(f4, 1, 1)
    h = q.associated()
    inv_phi = h.inverse()
    from hermkq.forms import selfadjoint_subgroup

    se = selfadjoint_subgroup(f4, 1, 2).elements()
    for g in enumerate_orthogonal_min(q):
        sg = split_section(g, q)
        gi = invert(g)
        for gamma in se:
            conj = compose_el(compose_el(el_inverse(sg), ElMorphism(q, Mat.identity(f4, 2), gamma)), sg)
            assert conj.f == Mat.identity(f4, 2)
            u = inv_phi * gamma
            assert inv_phi * conj.gamma == gi * u * g


def test_dual_numbers_kernel_condition():
    # 1 + u e is unitary over A(e) exactly when u is self-adjoint
    f4 = F4()
    q = hyperbolic(f4, 1, 1)
    h = q.associated()
    ring_e = DualRing(f4, "-e")
    phi_e = h.phi.map_entries(lambda a: ring_e.pair(a, f4.zero), ring=ring_e)
    herm_e = HermForm(ring_e, 1, phi_e)
    ident = Mat.identity(ring_e, 2)
    for u in all_matrices(f4, 2, 2):
        ue = u.map_entries(lambda a: ring_e.pair(f4.zero, a), ring=ring_e)
        selfadj = h.adjoint(u) == u
        assert check_max(ident + ue, herm_e) == selfadj


def test_dual_numbers_iso():
    rep = dual_numbers_iso(hyperbolic(F4(), 1, 1))
    assert rep["passed"]
    assert rep["order_el"] == rep["order_dual_max"]
    with pytest.raises(ValueError):
        dual_numbers_iso(hyperbolic(F2(), 1, 1))


def _dual_unitaries_by_factorisation(h):
    """O^max over A(e) from its e-degrees: f = f0 (1 + v e) with f0 unitary
    over A and v self-adjoint for phi (f0^* phi f1 = f1^* phi f0, f1 = f0 v)."""
    ring_e = DualRing(h.ring, "-e")
    zero = h.ring.zero
    vs = solve_affine(h.ring, (h.n, h.n), lambda v: v - h.adjoint(v), Mat.zero(h.ring, h.n))
    ident_e = Mat.identity(ring_e, h.n)
    out = [f0.map_entries(lambda a: ring_e.pair(a, zero), ring=ring_e)
           * (ident_e + v.map_entries(lambda a: ring_e.pair(zero, a), ring=ring_e))
           for f0 in enumerate_unitary(h) for v in vs]
    return sorted(out, key=Mat.key)


@pytest.mark.parametrize("ring, eps, phi", [
    (F2(), 1, [["0", "1"], ["1", "0"]]),
    (Fp(3), 1, [["0", "1"], ["1", "0"]]),
    (Fp(3), -1, [["0", "1"], ["2", "0"]]),
    (F4(), 1, [["0", "1"], ["1", "0"]]),
    (F4("trivial"), 1, [["0", "1"], ["1", "0"]]),
    (Fp(3), 1, [["1"]]),
])
def test_dual_unitaries_by_frame_search_match_the_factorisation(ring, eps, phi):
    h = HermForm(ring, eps, Mat.from_strs(ring, phi))
    ring_e = DualRing(ring, "-e")
    h_e = HermForm(ring_e, eps, h.phi.map_entries(lambda a: ring_e.pair(a, ring.zero), ring=ring_e))
    assert enumerate_unitary(h_e) == _dual_unitaries_by_factorisation(h)


def test_whitehead_examples():
    f2 = F2()
    ident = Mat.identity(f2, 1)
    rep = whitehead_factorization(ident, ident)
    assert rep["passed"]
    z7 = Fp(7)
    assert whitehead_factorization(Mat.from_strs(z7, [["2"]]), Mat.from_strs(z7, [["3"]]))["passed"]
    f4 = F4()
    rng = random.Random(5)
    units = [m for m in all_matrices(f4, 2, 2) if invert(m) is not None]
    for _ in range(10):
        a = units[rng.randrange(len(units))]
        b = units[rng.randrange(len(units))]
        assert whitehead_factorization(a, b)["passed"]
    with pytest.raises(ValueError):
        whitehead_factorization(Mat.zero(f2, 2), Mat.identity(f2, 2))


def test_el_morphism_validation():
    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    # a self-adjoint gamma pairs with the identity; a non-self-adjoint one cannot
    ElMorphism(q, Mat.identity(f2, 2), Mat.from_strs(f2, [["1", "0"], ["0", "0"]]))
    with pytest.raises(ValueError):
        ElMorphism(q, Mat.identity(f2, 2), Mat.from_strs(f2, [["0", "1"], ["0", "0"]]))


# -- the frame search against the full scan and the classical orders ---------

def _scan_max(h, units):
    return [f for f in units if f.star() * h.phi * f == h.phi]


def _scan_min(q, units):
    shifts = shift_subgroup(q.ring, q.eps, q.n)
    return [f for f in units if shifts.contains(f.star() * q.phi0 * f - q.phi0)]


def _nondegenerate_forms(ring, n):
    """Every nondegenerate eps-hermitian phi, and every phi0 up to shifts whose
    associated form is nondegenerate, for eps = +1 and -1."""
    herms, quads = [], []
    for eps in (1, -1):
        for phi in all_matrices(ring, n, n):
            if phi.star() == phi.scale_sign(eps) and invert(phi) is not None:
                herms.append(HermForm(ring, eps, phi))
        for phi0 in oracles.coset_reps_all(shift_subgroup(ring, eps, n)):
            q = QuadFormEl(ring, eps, phi0)
            if q.nondegenerate:
                quads.append(q)
    return herms, quads


@pytest.mark.parametrize("ring,n", [
    (F2(), 2), (Fp(3), 2), (F4(), 2), (F4("trivial"), 2), (Zn(4), 2),
    (DualRing(F2()), 2), (Mat2Ring(F2()), 1), (ProductOpRing(F2()), 1),
    (ProductOpRing(F2()), 2),
], ids=["F2", "F3", "F4", "F4-trivial", "Z4", "Dual-F2", "Mat2-F2", "ProductOp-F2",
        "ProductOp-F2-rank2"])
def test_frame_search_matches_full_scan(ring, n):
    # the full scan over all_matrices, sorted as the searches sort their output
    units = sorted((f for f in all_matrices(ring, n, n) if invert(f) is not None),
                   key=Mat.key)
    herms, quads = _nondegenerate_forms(ring, n)
    assert herms and quads
    for h in herms:
        assert enumerate_unitary(h) == _scan_max(h, units), h.phi
    for q in quads:
        assert enumerate_orthogonal_min(q) == _scan_min(q, units), q.phi0


def test_frame_search_matches_full_scan_mat2_rank2():
    # the leading-block tests at j < n on a noncommutative ring; the rank-2
    # scan is 16^4 candidates, so one form pair stands in for all of them
    ring = Mat2Ring(F2())
    q = hyperbolic(ring, 1, 1)
    h = q.associated()
    shifts = shift_subgroup(ring, 1, 2)
    scan_max, scan_min = [], []
    for f in all_matrices(ring, 2, 2):
        if f.star() * h.phi * f == h.phi:
            scan_max.append(f)
        if shifts.contains(f.star() * q.phi0 * f - q.phi0):
            scan_min.append(f)
    found_max, found_min = enumerate_unitary(h), enumerate_orthogonal_min(q)
    assert found_max == sorted((f for f in scan_max if invert(f) is not None), key=Mat.key)
    assert found_min == sorted((f for f in scan_min if invert(f) is not None), key=Mat.key)
    assert (len(found_max), len(found_min)) == (720, 72)


def test_frame_search_checks_cap_before_building_columns():
    # the first level alone, |R|^n columns, passes the cap: refused before
    # any column is built
    with pytest.raises(CapExceeded, match="search space 104060401 exceeds"):
        enumerate_unitary(HermForm(Fp(101), 1, Mat.identity(Fp(101), 4)))
    z = Zn(2**12)
    with pytest.raises(CapExceeded, match="search space 16777216 exceeds"):
        enumerate_orthogonal_min(hyperbolic(z, 1, 1))


def test_frame_search_classical_orders():
    # against the closed forms of the field slice: symplectic, orthogonal
    # (both types, odd and even q, and odd rank), unitary over F4 with its
    # Frobenius, and GL_n(F) as the unitary group of the hyperbolic form
    # over F x F^op
    f2, f3 = F2(), Fp(3)
    hyp4 = hyperbolic(f2, 1, 2)
    anisotropic = QuadFormEl(f2, 1, Mat.from_strs(f2, [["1", "1"], ["0", "1"]]))
    o3 = QuadFormEl(f3, 1, Mat.scalar(f3, 3, 2))  # phi = 2 + 2 = 1
    cases = [
        ("max", hyperbolic(f2, 1, 1), oracles.sp_order(1, 2)),  # 6
        ("max", hyp4, oracles.sp_order(2, 2)),  # 720
        ("max", hyperbolic(f3, -1, 1), oracles.sp_order(1, 3)),  # 24
        ("max", hyperbolic(F4("trivial"), 1, 1), oracles.sp_order(1, 4)),  # 60
        ("min", hyperbolic(f2, 1, 1), oracles.orthogonal_order(1, 2, 1)),  # 2
        ("min", hyp4, oracles.orthogonal_order(2, 2, 1)),  # 72
        ("min", anisotropic, oracles.orthogonal_order(1, 2, -1)),  # 6
        ("min", direct_sum(hyperbolic(f2, 1, 1), anisotropic),
         oracles.orthogonal_order(2, 2, -1)),  # 120
        ("min", hyperbolic(f3, 1, 1), oracles.orthogonal_order(1, 3, 1)),  # 4
        # x^2 + y^2 is anisotropic over F3, where -1 is not a square
        ("min", QuadFormEl(f3, 1, Mat.identity(f3, 2)), oracles.orthogonal_order(1, 3, -1)),  # 8
        ("min", hyperbolic(f3, 1, 2), oracles.orthogonal_order(2, 3, 1)),  # 1 152
        ("max", o3, oracles.odd_orthogonal_order(1, 3)),  # 48
        ("min", o3, oracles.odd_orthogonal_order(1, 3)),
        ("max", hyperbolic(F4(), 1, 1), oracles.unitary_order(2, 2)),  # 18
        ("max", HermForm(F4(), 1, Mat.identity(F4(), 3)), oracles.unitary_order(3, 2)),  # 648
        ("max", hyperbolic(ProductOpRing(F2()), 1, 1), oracles.gl_order(2, 2)),  # 6
        ("max", hyperbolic(ProductOpRing(f3), 1, 1), oracles.gl_order(2, 3)),  # 48
    ]
    for variant, form, order in cases:
        assert enumerate_group(variant, form).order == order, (variant, form)


def test_frame_search_cap_counts_nodes():
    h = hyperbolic(F2(), 1, 2).associated()
    # 16 columns, then the inner products of the four levels: 16*48 + 15*8*16
    # + 90*4*4 + 360*2, where the full scan needed 2^16 candidates
    with scoped_cap(4864):
        assert len(enumerate_unitary(h)) == oracles.sp_order(2, 2)
    with scoped_cap(4863), pytest.raises(
            CapExceeded, match="matrix enumeration: search space 4864 exceeds cap 4863"):
        enumerate_unitary(h)
    # hyperbolic rank 2 over F2: 4 columns, 3 first candidates * 3 second
    # ones = 9 inner products, then 2 kept frames * 1 candidate = 15
    q = hyperbolic(F2(), 1, 1)
    with scoped_cap(15):
        assert len(enumerate_orthogonal_min(q)) == 2
    with scoped_cap(14), pytest.raises(CapExceeded, match="search space 15 exceeds cap 14"):
        enumerate_orthogonal_min(q)
    ps = PolySRing(F2())
    with pytest.raises(Unsupported, match="ring not enumerable"):
        enumerate_unitary(HermForm(ps, 1, Mat.identity(ps, 1)))


@pytest.mark.parametrize("eps, order", [(1, oracles.orthogonal_order(1, 17, 1)),
                                        (-1, oracles.sp_order(1, 17))], ids=["O+2", "Sp2"])
def test_frame_search_over_an_uncoded_field(eps, order):
    # Fp(17) has no tables: its 289 columns are tested by the ring's own
    # operations, per pair for the 33 isotropic columns of O+2(17), and by
    # half tables for the 289 of Sp2(17)
    ring = Fp(17)
    assert ring.tables is None
    q = hyperbolic(ring, eps, 1)
    found_max, found_min = enumerate_unitary(q.associated()), enumerate_orthogonal_min(q)
    assert len(found_max) == len(found_min) == order
    # 2 is a unit, so the two variants have the same members
    assert found_max == found_min
    h = q.associated().phi
    assert all(f.star() * h * f == h for f in found_max)


def test_frame_search_order_of_o6_plus_2():
    # |O+6(2)| = 40 320, under the default cap
    assert len(enumerate_orthogonal_min(hyperbolic(F2(), 1, 3))) == oracles.orthogonal_order(3, 2, 1)


@pytest.mark.parametrize("ring", [F2(), Zn(4), DualRing(F2())], ids=["F2", "Z4", "Dual-F2"])
def test_frame_search_degenerate_forms_match_full_scan(ring):
    # invert filters the output only where phi (or h) is degenerate; there
    # the search must still return exactly the invertible solutions
    units = sorted((f for f in all_matrices(ring, 2, 2) if invert(f) is not None),
                   key=Mat.key)
    one, zero = ring.one, ring.zero
    for eps in (1, -1):
        for phi in (Mat(ring, [[one, zero], [zero, zero]]), Mat.zero(ring, 2)):
            if phi.star() == phi.scale_sign(eps):
                h = HermForm(ring, eps, phi)
                assert not h.nondegenerate
                assert enumerate_unitary(h) == _scan_max(h, units), (eps, phi)
            q = QuadFormEl(ring, eps, phi)
            assert not q.nondegenerate
            assert enumerate_orthogonal_min(q) == _scan_min(q, units), (eps, phi)


# -- the generator closure against the all-pairs definition -------------------

def _all_pairs_axioms(elements, compose, inverse, identity):
    """The group axioms checked pair by pair, as the definition states them."""
    s = set(elements)
    return {
        "identity": identity in s,
        "inverses": all(inverse(x) in s for x in elements),
        "closure": all(compose(x, y) in s for x in elements for y in elements),
    }


def _exact(checks):
    return {k: checks[k] for k in ("identity", "inverses", "closure")}


def _axiom_args(variant, q):
    if variant == "el":
        return compose_el, el_inverse, el_identity(q)
    return (lambda a, b: a * b), invert, Mat.identity(q.ring, q.n)


@pytest.mark.parametrize("ring", [
    F2(), Fp(3), F4(), Zn(4), DualRing(F2()), Mat2Ring(F2()),
], ids=["F2", "F3", "F4", "Z4", "Dual-F2", "Mat2-F2"])
def test_axioms_match_all_pairs(ring):
    _, quads = _nondegenerate_forms(ring, 1)
    # rank 2 over Mat2(F2) has an el group of order 73 728: rank 1 only there
    if not isinstance(ring, Mat2Ring):
        quads += [hyperbolic(ring, 1, 1)]
    for q in quads:
        for variant in ("max", "min", "el"):
            group = enumerate_group(variant, q)
            checks = group.checks
            elements = el_elements(q)[0] if variant == "el" else group.elements
            assert _exact(checks) == _all_pairs_axioms(elements, *_axiom_args(variant, q))
            assert all(_exact(checks).values()), (variant, q.phi0)
            assert checks["closure_generators"] <= math.log2(group.order)
            assert checks["closure_products"] <= 2 * (group.order - 1)



@pytest.mark.parametrize("ring", [
    F2(), Fp(3), F4(), Zn(4), DualRing(F2()), Mat2Ring(F2()),
], ids=["F2", "F3", "F4", "Z4", "Dual-F2", "Mat2-F2"])
def test_axioms_form_only_the_closure_products(ring):
    # the members' inverses follow from closure and the generators' own, so
    # the certificate forms no product but the coset and representative ones
    _, quads = _nondegenerate_forms(ring, 1)
    if not isinstance(ring, Mat2Ring):
        quads += [hyperbolic(ring, 1, 1)]
    for q in quads:
        for variant in ("max", "min"):
            group = enumerate_group(variant, q)
            calls = {"compose": 0, "inverse": 0}

            def mul(a, b):
                calls["compose"] += 1
                return a * b

            def inv(a):
                calls["inverse"] += 1
                return invert(a)

            checks, gens = verify_group_axioms(group.elements, mul, inv,
                                               Mat.identity(q.ring, q.n))
            assert checks == group.checks and gens == group.generators
            assert calls == {"compose": checks["closure_products"], "inverse": len(gens)}

def test_axioms_detect_broken_sets():
    f2 = F2()
    sp4 = enumerate_unitary(hyperbolic(f2, 1, 2).associated())
    mul = lambda a, b: a * b

    def check(elems):
        identity = Mat.identity(f2, 4)
        got, _ = verify_group_axioms(elems, mul, invert, identity)
        s = set(elems)
        # the cheap two thirds of the definition, exactly
        assert got["identity"] == (identity in s)
        assert got["inverses"] == all(invert(x) in s for x in elems)
        return got

    assert _exact(check(sp4)) == {"identity": True, "inverses": True, "closure": True}
    # a closed finite set of invertible matrices is a group, and no subgroup
    # of GL4(F2) (order 20160) has 719 or 721 elements
    for drop in (1, len(sp4) // 2, len(sp4) - 1):
        assert not check(sp4[:drop] + sp4[drop + 1:])["closure"]
    foreign = Mat.from_strs(f2, [["1", "1", "0", "0"], ["0", "1", "0", "0"],
                                 ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    assert invert(foreign) is not None and foreign not in set(sp4)
    assert not check(sp4 + [foreign])["closure"]
    assert not check(sorted(sp4 + [foreign], key=Mat.key))["closure"]

    # small sets against the whole definition: no identity, a singular member
    q3 = hyperbolic(Fp(3), 1, 1)
    o = enumerate_unitary(q3.associated())
    ident = Mat.identity(Fp(3), 2)
    no_ident = [f for f in o if f != ident]
    singular = [Mat.zero(Fp(3), 2), Mat.from_strs(Fp(3), [["1", "0"], ["0", "0"]])]
    cases = [no_ident, o + singular[:1], o + singular[1:], sorted(o + singular, key=Mat.key)]
    expected = [
        {"identity": False, "inverses": True, "closure": False},
        {"identity": True, "inverses": False, "closure": True},
        {"identity": True, "inverses": False, "closure": False},
        {"identity": True, "inverses": False, "closure": False},
    ]
    for elems, want in zip(cases, expected):
        got = _exact(verify_group_axioms(elems, mul, invert, ident)[0])
        assert got == _all_pairs_axioms(elems, mul, invert, ident) == want

    # transpositions a, b and the 3-cycle ab, walked in this order: the
    # products by each generator's own powers all stay in the set, so closure
    # fails only once the newly reached b and ab are multiplied by a as well
    e3 = Mat.identity(f2, 3)
    a = Mat.from_strs(f2, [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]])
    b = Mat.from_strs(f2, [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]])
    perms = [e3, a, b, a * b]
    got = _exact(verify_group_axioms(perms, mul, invert, e3)[0])
    assert got == _all_pairs_axioms(perms, mul, invert, e3)
    assert got == {"identity": True, "inverses": False, "closure": False}


def _perm(n, images):
    """The n x n permutation matrix over F2 sending e_i to e_images[i]."""
    rows = [["0"] * n for _ in range(n)]
    for i, j in enumerate(images):
        rows[j][i] = "1"
    return Mat.from_strs(F2(), rows)


def _coset_closure_case(elems, want):
    ident = Mat.identity(elems[0].ring, elems[0].rows)
    mul = lambda a, b: a * b
    got = _exact(verify_group_axioms(elems, mul, invert, ident)[0])
    assert got == _all_pairs_axioms(elems, mul, invert, ident) == want


def test_coset_closure_catches_a_representative_product_outside_the_set():
    # the first stage has H = {1}, so its cosets are the representatives
    # themselves: the 3-cycle c reaches c^2, outside {1, c}, only as c.c
    one, c = _perm(3, [0, 1, 2]), _perm(3, [1, 2, 0])
    _coset_closure_case([one, c], {"identity": True, "inverses": False, "closure": False})


def test_coset_closure_catches_a_coset_product_outside_the_set():
    # C3 x C3 = <a> x <b> without a^2 b and a^2 b^2, walked from a and then
    # b: every representative product (b.a, b.b, b^2.a, b^2.b) stays in the
    # set, and a^2.b, formed for the coset H.b with H = <a>, does not
    one, a, b = _perm(6, range(6)), _perm(6, [1, 2, 0, 3, 4, 5]), _perm(6, [0, 1, 2, 4, 5, 3])
    elems = [one, a, a * a, b, a * b, b * b, a * b * b]
    _coset_closure_case(elems, {"identity": True, "inverses": False, "closure": False})


def test_coset_closure_with_a_singular_generator():
    # the monoid of the 2 x 2 matrix units over F2 with 0, 1 and the swap s:
    # walked from the singular E11, the cosets H.E21 and H.E22 of
    # H = {1, E11} overlap in 0, and the set is closed but not a group
    f2 = F2()
    unit = {(i, j): Mat.from_strs(f2, [["1" if (r, c) == (i, j) else "0" for c in range(2)]
                                       for r in range(2)]) for i in range(2) for j in range(2)}
    swap = Mat.from_strs(f2, [["0", "1"], ["1", "0"]])
    monoid = [unit[0, 0], Mat.identity(f2, 2), swap, unit[0, 1], unit[1, 0], unit[1, 1],
              Mat.zero(f2, 2)]
    _coset_closure_case(monoid, {"identity": True, "inverses": False, "closure": True})
    # without 0 the product E11.E21, formed inside the coset H.E21, leaves it
    _coset_closure_case(monoid[:-1], {"identity": True, "inverses": False, "closure": False})


# -- the exact-sequence certificate against the listed pairs ------------------

_EL_RINGS = {"F2": F2(), "F3": Fp(3), "F4": F4(), "Z4": Zn(4), "Dual-F2": DualRing(F2()),
             "Mat2-F2": Mat2Ring(F2())}


def _el_forms():
    """The hyperbolic rank-2 form and every rank-1 phi0 up to shifts, at eps
    = +1 and -1; at rank 1 only F3 and F4 have nondegenerate ones.  Over
    Mat2(F2) rank 1 only: its rank-2 el groups have 73 728 elements."""
    cases = []
    for name, ring in _EL_RINGS.items():
        for eps in (1, -1):
            if name != "Mat2-F2":
                cases.append(pytest.param(hyperbolic(ring, eps, 1), id=f"{name}-H-{eps}"))
            for phi0 in oracles.coset_reps_all(shift_subgroup(ring, eps, 1)):
                q = QuadFormEl(ring, eps, phi0)
                cases.append(pytest.param(q, id=f"{name}-{phi0.to_strs()[0][0]}-{eps}"))
    return cases


@pytest.mark.parametrize("q", _el_forms())
def test_extension_check_matches_element_by_element(q):
    elems = el_elements(q)[0]
    assert elems == oracles.el_pairs_by_witness_sets(q)
    assert all(satisfies_S(q, m.f, m.gamma) for m in elems)
    report = enumerate_group("el", q).to_json()
    oracle = oracles.el_group_report_by_pairs(q)
    for doc in (report, oracle):
        del doc["checks"]["closure_products"], doc["checks"]["closure_generators"]
    assert json.dumps(report) == json.dumps(oracle)
    assert report["extension"]["passed"], report


@pytest.mark.parametrize("q", _el_forms())
def test_check_min_is_the_canonical_particular_solution(q):
    shift = lambda g: g - g.star().scale_sign(q.eps)
    for f in all_matrices(q.ring, q.n, q.n):
        d = f.star() * q.phi0 * f - q.phi0
        want = solve_affine(q.ring, (q.n, q.n), shift, d, all_solutions=False)
        assert check_min(f, q) == (want[0] if want else None)


def _falsified(q, group, **data):
    """The keys `extension_check` reports false on the group's data with
    some of it replaced, the base's certificate kept."""
    report = extension_check(q, dataclasses.replace(group, **data))
    assert not report["passed"]
    return {k for k, v in report.items() if v is False}


_MUTATION_RINGS = pytest.mark.parametrize("ring", [F2(), Fp(3), F4(), Zn(4)],
                                          ids=["F2", "F3", "F4", "Z4"])


def _el_group(ring):
    q = hyperbolic(ring, 1, 1)
    group = enumerate_group("el", q)
    assert group.extension["passed"]
    return q, group


def _with_lift(group, i, lift):
    """The generators with the lift of base generator i replaced (dropped
    when `lift` is None)."""
    gens = list(group.generators)
    gens[i:i + 1] = [] if lift is None else [lift]
    return gens


@_MUTATION_RINGS
def test_extension_check_detects_a_dropped_witness(ring):
    # the lift of each base generator in turn is left out
    q, group = _el_group(ring)
    for i in range(len(group.base.generators)):
        keys = _falsified(q, group, generators=_with_lift(group, i, None))
        assert {"witness_cosets_exhaustive", "order_product_law"} <= keys


@_MUTATION_RINGS
def test_extension_check_detects_an_f_without_pairs(ring):
    # the lift of a base generator is replaced by the lift of 1, so no lift
    # lies over that generator
    q, group = _el_group(ring)
    keys = _falsified(q, group, generators=_with_lift(group, 0, el_identity(q)))
    assert {"projection_surjective", "witness_cosets_exhaustive", "order_product_law"} <= keys


@_MUTATION_RINGS
def test_extension_check_detects_a_kernel_pair_outside_S(ring):
    # S(E) enlarged by gamma with gamma^* != eps*gamma, which violates (S)
    q, group = _el_group(ring)
    ident = Mat.identity(ring, 2)
    gamma = Mat(ring, [[ring.zero, ring.one], [ring.zero, ring.zero]])
    assert not satisfies_S(q, ident, gamma)
    kernel = MatSubgroup(ring, 2, 2, group.kernel.generators() + [gamma])
    keys = _falsified(q, group, kernel=kernel)
    assert {"kernel_matches_SE", "closure_structured"} <= keys


@_MUTATION_RINGS
def test_extension_check_detects_a_coset_of_non_witnesses(ring):
    # the witness of each base generator in turn moved by t, t - eps*t^* !=
    # 0: its coset is still a full coset of S(E), but no pair over the
    # generator satisfies (S)
    q, group = _el_group(ring)
    t = Mat(ring, [[ring.zero, ring.one], [ring.zero, ring.zero]])
    for i, lift in enumerate(group.generators[:len(group.base.generators)]):
        moved = ElMorphism(q, lift.f, lift.gamma + t, check=False)
        assert not satisfies_S(q, lift.f, moved.gamma)
        keys = _falsified(q, group, generators=_with_lift(group, i, moved))
        assert {"witness_cosets_exhaustive", "projection_homomorphism"} <= keys


@pytest.mark.parametrize("kind", [(False, False), (False, True), (True, False), (True, True)],
                         ids=["lift.lift", "lift.kernel", "kernel.lift", "kernel.kernel"])
def test_extension_check_detects_a_compose_fault_on_one_kind_of_generating_pair(
        monkeypatch, kind):
    # compose_el adds t, t - eps*t^* != 0, to the products of one kind only
    # (by whether each factor lies over 1), which breaks (S) there
    ring = F4()
    q = hyperbolic(ring, 1, 1)
    ident = Mat.identity(ring, 2)
    t = Mat(ring, [[ring.zero, ring.one], [ring.zero, ring.zero]])
    faulted = []

    def faulty(a, b):
        c = compose_el(a, b)
        if (a.f == ident, b.f == ident) != kind:
            return c
        faulted.append(c)
        return ElMorphism(q, c.f, c.gamma + t, check=False)

    monkeypatch.setattr(groups, "compose_el", faulty)
    group = enumerate_group("el", q)
    assert faulted
    assert not group.checks["closure"]
    keys = {k for k, v in group.extension.items() if v is False}
    assert {"projection_homomorphism", "closure_structured", "passed"} <= keys


def test_extension_check_detects_a_compose_in_the_wrong_order(monkeypatch):
    # compose_el forms b.a for two lifts a, b: the product still satisfies
    # (S), but over b.f.a.f, which is not a.f.b.f for two of the base's
    # generators over F4
    ring = F4()
    q = hyperbolic(ring, 1, 1)
    ident = Mat.identity(ring, 2)

    def swapped(a, b):
        return compose_el(a, b) if ident in (a.f, b.f) else compose_el(b, a)

    monkeypatch.setattr(groups, "compose_el", swapped)
    group = enumerate_group("el", q)
    assert not group.checks["closure"]
    keys = {k for k, v in group.extension.items() if v is False}
    assert keys == {"projection_homomorphism", "closure_structured", "passed"}


def test_el_certificate_composes_generating_pairs_only(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return compose_el(a, b)

    monkeypatch.setattr(groups, "compose_el", counted)
    group = enumerate_group("el", hyperbolic(F4(), 1, 1))
    group.to_json()
    assert group.checks["closure"] and group.extension["passed"]
    gens = len(group.generators)
    assert len(calls) <= gens ** 2 and gens <= math.log2(group.order)
    # O^min has 18 elements, so the former lift pairs alone were 324
    assert gens ** 2 < group.base_order ** 2


def test_el_group_solves_check_min_once_per_base_generator(monkeypatch):
    # building lifts only the base's generators; the preview then finds the
    # lift of each fibre it reads, and contains one per query
    calls = []

    def counted(f, q):
        calls.append(f)
        return check_min(f, q)

    monkeypatch.setattr(groups, "check_min", counted)
    for ring in (F2(), F4()):
        q = hyperbolic(ring, 1, 1)
        calls.clear()
        group = enumerate_group("el", q)
        assert group.checks["closure"] and group.extension["passed"]
        assert calls == group.base.generators
        group.to_json()
        fibres = math.ceil(min(16, group.order) / group.kernel_order)
        assert len(calls) == len(group.base.generators) + fibres
        assert calls[len(group.base.generators):] == group.base.elements[:fibres]
        calls.clear()
        assert group.contains(el_identity(q)) and calls == [Mat.identity(ring, 2)]


def test_el_group_refuses_a_certified_f_without_witness(monkeypatch):
    # every f of O^min has a witness; check_min failing on one is an internal
    # failure, not a fibre to skip
    q = hyperbolic(F2(), 1, 1)
    monkeypatch.setattr(groups, "check_min", lambda f, q: None)
    with pytest.raises(AssertionError, match="no witness"):
        enumerate_group("el", q)
