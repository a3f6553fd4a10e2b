import math
import random

import pytest

from hermkq.caps import CapExceeded
from hermkq.forms import (
    HermForm,
    QuadFormEl,
    direct_sum,
    hyperbolic,
    psi_normalize,
    shift_subgroup,
)
from hermkq.groups import (
    ElMorphism,
    check_max,
    check_min,
    compose_el,
    dual_numbers_iso,
    el_identity,
    el_inverse,
    enumerate_group,
    enumerate_orthogonal_min,
    enumerate_unitary,
    extension_check,
    field_hyperbolic_diagnostics,
    hyperbolic_adjoint,
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
    group = enumerate_group("el", q).elements
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
    group = enumerate_group("el", q).elements
    for a in group:
        for b in group:
            c = compose_el(a, b)
            assert satisfies_S(q, c.f, c.gamma)


def test_enumerate_group_orders():
    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    gmin = enumerate_group("min", q)
    assert gmin.order == 2
    gel = enumerate_group("el", q)
    assert gel.order == 16 and gel.kernel_order == 8 and gel.base_order == 2
    gmax = enumerate_group("max", q.associated())
    assert gmax.order == 6
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
    phi_e = h.phi.map_entries(lambda a: (a, f4.zero), ring=ring_e)
    herm_e = HermForm(ring_e, 1, phi_e)
    ident = Mat.identity(ring_e, 2)
    for u in all_matrices(f4, 2, 2):
        ue = u.map_entries(lambda a: (f4.zero, a), ring=ring_e)
        selfadj = h.adjoint(u) == u
        assert check_max(ident + ue, herm_e) == selfadj


def test_dual_numbers_iso():
    rep = dual_numbers_iso(hyperbolic(F4(), 1, 1))
    assert rep["passed"]
    assert rep["order_el"] == rep["order_dual_max"]
    with pytest.raises(ValueError):
        dual_numbers_iso(hyperbolic(F2(), 1, 1))


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


def test_hyperbolic_adjoint_fast_path_cross_check():
    for ring, eps in ((F2(), 1), (Fp(5), 1), (Fp(5), -1)):
        q = hyperbolic(ring, eps, 1)
        h = q.associated()
        for f in all_matrices(ring, 2, 2):
            if invert(f) is None:
                continue
            assert hyperbolic_adjoint(f, eps) == h.adjoint(f)


def test_field_diagnostics_on_unitaries():
    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    for f in enumerate_unitary(q.associated()):
        diag = field_hyperbolic_diagnostics(f)
        assert diag["a.td+b.tc=1"] and diag["c.tb+d.ta=1"]
        assert diag["a.tb+b.ta=0"] and diag["c.td+d.tc=0"]
    # the min members additionally satisfy the shift conditions
    for f in enumerate_orthogonal_min(q):
        diag = field_hyperbolic_diagnostics(f)
        assert diag["a.tb_is_shift"] and diag["c.td_is_shift"]


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
        for phi0 in shift_subgroup(ring, eps, n).coset_reps_all():
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
    # D. E. Taylor, The Geometry of the Classical Groups (1992)
    f2, f3 = F2(), Fp(3)
    hyp4 = hyperbolic(f2, 1, 2)
    anisotropic = QuadFormEl(f2, 1, Mat.from_strs(f2, [["1", "1"], ["0", "1"]]))
    minus4 = direct_sum(hyperbolic(f2, 1, 1), anisotropic)
    o3 = QuadFormEl(f3, 1, Mat.scalar(f3, 3, 2))  # phi = 2 + 2 = 1
    assert len(enumerate_unitary(hyp4.associated())) == 720  # Sp4(2)
    assert len(enumerate_orthogonal_min(hyp4)) == 72  # O+4(2)
    assert len(enumerate_orthogonal_min(minus4)) == 120  # O-4(2)
    assert len(enumerate_unitary(o3.associated())) == 48  # O3(3)
    assert len(enumerate_orthogonal_min(o3)) == 48


def test_frame_search_cap_counts_nodes():
    h = hyperbolic(F2(), 1, 2).associated()
    # 16 columns, then the inner products of the four levels: 16*48 + 15*8*16
    # + 90*4*4 + 360*2, where the full scan needed 2^16 candidates
    assert len(enumerate_unitary(h, cap=4864)) == 720
    with pytest.raises(CapExceeded, match="matrix enumeration: search space 4864 exceeds cap 4863"):
        enumerate_unitary(h, cap=4863)
    # hyperbolic rank 2 over F2: 4 columns, 3 first candidates * 3 second
    # ones = 9 inner products, then 2 kept frames * 1 candidate = 15
    q = hyperbolic(F2(), 1, 1)
    assert len(enumerate_orthogonal_min(q, cap=15)) == 2
    with pytest.raises(CapExceeded, match="search space 15 exceeds cap 14"):
        enumerate_orthogonal_min(q, cap=14)
    ps = PolySRing(F2())
    with pytest.raises(CapExceeded, match="ring not enumerable"):
        enumerate_unitary(HermForm(ps, 1, Mat.identity(ps, 1)))


def test_frame_search_order_of_o6_plus_2():
    # |O+6(2)| = 40 320 (Taylor 1992), under the default cap
    assert len(enumerate_orthogonal_min(hyperbolic(F2(), 1, 3))) == 40_320


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
            assert _exact(checks) == _all_pairs_axioms(group.elements, *_axiom_args(variant, q))
            assert all(_exact(checks).values()), (variant, q.phi0)
            assert checks["closure_generators"] <= math.log2(group.order)
            assert checks["closure_products"] <= group.order * (math.log2(group.order) + 1)


def test_axioms_detect_broken_sets():
    f2 = F2()
    sp4 = enumerate_unitary(hyperbolic(f2, 1, 2).associated())
    mul = lambda a, b: a * b

    def check(elems):
        identity = Mat.identity(f2, 4)
        got = verify_group_axioms(elems, mul, invert, identity)
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
        got = _exact(verify_group_axioms(elems, mul, invert, ident))
        assert got == _all_pairs_axioms(elems, mul, invert, ident) == want

    # transpositions a, b and the 3-cycle ab, walked in this order: the
    # products by each generator's own powers all stay in the set, so closure
    # fails only once the newly reached b and ab are multiplied by a as well
    e3 = Mat.identity(f2, 3)
    a = Mat.from_strs(f2, [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]])
    b = Mat.from_strs(f2, [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]])
    perms = [e3, a, b, a * b]
    got = _exact(verify_group_axioms(perms, mul, invert, e3))
    assert got == _all_pairs_axioms(perms, mul, invert, e3)
    assert got == {"identity": True, "inverses": False, "closure": False}
