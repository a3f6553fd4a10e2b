import random
from itertools import product

import pytest

from hermkq.additive import MatSubgroup, _basis_mats, additive_basis, extend_span, solve_affine
from hermkq.caps import CapExceeded
from hermkq.forms import (
    DegenerateFormError,
    HermForm,
    QuadFormEl,
    direct_sum,
    form_from_json,
    hyperbolic,
    hyperbolic_map,
    is_even,
    min_equal,
    pairing_chi,
    psi_normalize,
    selfadjoint_subgroup,
    shift_subgroup,
)
from hermkq.groups import check_min
from hermkq.linalg import Mat, all_matrices, invert
from hermkq.rings import F2, F4, DualRing, Fp, Mat2Ring, ProductOpRing, TruncPolyRing, Zn
from oracles import _shift_map, coset_reps_all, coset_reps_by_enumeration, min_witness


def test_pairing_chi_examples():
    f2 = F2()
    h = hyperbolic(f2, 1, 1).associated()
    assert pairing_chi(h, [1, 0], [0, 1]) == 1
    assert pairing_chi(h, [0, 0], [1, 1]) == 0
    z5 = Fp(5)
    q = QuadFormEl(z5, -1, Mat.from_strs(z5, [["0", "1"], ["0", "0"]]))
    h5 = q.associated()
    assert h5.phi.to_strs() == [["0", "1"], ["4", "0"]]
    c12 = pairing_chi(h5, [1, 0], [0, 1])
    c21 = pairing_chi(h5, [0, 1], [1, 0])
    assert c21 == z5.mul(z5.int_embed(-1), z5.conj(c12))


def test_pairing_sesquilinear_exhaustive_rank3():
    f2 = F2()
    phi0 = Mat.from_strs(f2, [["1", "1", "0"], ["0", "0", "1"], ["0", "0", "1"]])
    q = QuadFormEl(f2, 1, phi0)
    h = q.associated()
    vecs = list(product(f2.elements(), repeat=3))
    for x in vecs:
        for y in vecs:
            chi = pairing_chi(h, list(x), list(y))
            assert pairing_chi(h, list(y), list(x)) == f2.conj(chi)
            for lam in f2.elements():
                xs = [f2.mul(v, lam) for v in x]
                assert pairing_chi(h, xs, list(y)) == f2.mul(f2.conj(lam), chi)


def test_associated_hermitian_examples():
    f2 = F2()
    q = QuadFormEl(f2, 1, Mat.from_strs(f2, [["0", "1"], ["0", "0"]]))
    assert q.associated().phi.to_strs() == [["0", "1"], ["1", "0"]]
    z = QuadFormEl(f2, 1, Mat.zero(f2, 2))
    assert z.associated().phi.is_zero() and not z.nondegenerate
    for qf in (q, z):
        assert qf.associated().phi.star() == qf.associated().phi.scale_sign(qf.eps)


def test_is_even_examples():
    f2 = F2()
    hyp = hyperbolic(f2, 1, 1).associated()
    w = is_even(hyp)
    assert w is not None and w + w.star() == hyp.phi
    ident = HermForm(f2, 1, Mat.identity(f2, 2))
    assert is_even(ident) is None
    z3 = Fp(3)
    phi = Mat.from_strs(z3, [["1", "2"], ["2", "1"]])
    h3 = HermForm(z3, 1, phi)
    w3 = is_even(h3)
    assert w3 is not None and w3 + w3.star() == phi


def test_every_associated_form_is_even():
    f2 = F2()
    for phi0 in all_matrices(f2, 2, 2):
        q = QuadFormEl(f2, 1, phi0)
        assert is_even(q.associated()) is not None


def test_min_equal_examples():
    f2 = F2()
    a = QuadFormEl(f2, 1, Mat.from_strs(f2, [["0", "1"], ["0", "0"]]))
    b = QuadFormEl(f2, 1, Mat.from_strs(f2, [["0", "0"], ["1", "0"]]))
    c = QuadFormEl(f2, 1, Mat.from_strs(f2, [["1", "1"], ["0", "0"]]))
    assert min_equal(a, a)
    assert min_equal(a, b)
    assert not min_equal(a, c)
    w = min_witness(a, b)
    assert b.phi0 - a.phi0 == w - w.star()


def test_min_equal_is_equivalence_rank2_exhaustive():
    f2 = F2()
    forms = [QuadFormEl(f2, 1, m) for m in all_matrices(f2, 2, 2)]
    for a in forms:
        assert min_equal(a, a)
    for a in forms[:8]:
        for b in forms:
            if min_equal(a, b):
                assert min_equal(b, a)
                for c in forms:
                    if min_equal(b, c):
                        assert min_equal(a, c)


def test_min_canonical_representative():
    f2 = F2()
    a = QuadFormEl(f2, 1, Mat.from_strs(f2, [["0", "1"], ["0", "0"]]))
    b = QuadFormEl(f2, 1, Mat.from_strs(f2, [["0", "0"], ["1", "0"]]))
    assert a.min_canonical() == b.min_canonical()


def test_hyperbolic_examples():
    f2 = F2()
    hyp = hyperbolic(f2, 1, 1)
    assert hyp.phi0.to_strs() == [["0", "1"], ["0", "0"]]
    assert hyp.associated().phi.to_strs() == [["0", "1"], ["1", "0"]]
    h2 = hyperbolic(f2, 1, 2)
    assert h2.n == 4 and h2.nondegenerate


def test_hyperbolic_map_examples():
    f2 = F2()
    assert hyperbolic_map(Mat.identity(f2, 1)) == Mat.identity(f2, 2)
    z5 = Fp(5)
    g = hyperbolic_map(Mat.from_strs(z5, [["2"]]))
    assert g.to_strs() == [["2", "0"], ["0", "3"]]
    with pytest.raises(ValueError):
        hyperbolic_map(Mat.zero(f2, 1))


def test_hyperbolic_map_functorial():
    f4 = F4()
    units = [m for m in all_matrices(f4, 2, 2) if invert(m) is not None]
    for u in units[:12]:
        for v in units[:12]:
            assert hyperbolic_map(u * v) == hyperbolic_map(u) * hyperbolic_map(v)


def test_psi_normalize():
    f2, f4 = F2(), F4()
    hyp = hyperbolic(f2, 1, 1)
    psi = psi_normalize(hyp)
    h = hyp.associated()
    assert psi + h.adjoint(psi) == Mat.identity(f2, 2)
    # split-unit case: phi0 = lambda * phi gives psi = lambda * 1
    lam = f4.find_split_unit()
    q = QuadFormEl(f4, 1, Mat.scalar(f4, 1, lam))
    assert psi_normalize(q) == Mat.scalar(f4, 1, lam)
    with pytest.raises(DegenerateFormError):
        psi_normalize(QuadFormEl(f2, 1, Mat.zero(f2, 2)))


def test_relation_E_two_readings_for_unitary_f():
    # f^* psi f = psi + u - u^*  agrees with  f^{-1} psi f = psi + u - u^*
    # exactly when f is unitary; check on the enumerated unitary group
    from hermkq.groups import check_min, enumerate_unitary

    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    h = q.associated()
    psi = psi_normalize(q)
    for f in enumerate_unitary(h):
        fi = invert(f)
        assert h.adjoint(f) * psi * f == fi * psi * f


def test_direct_sum():
    f2 = F2()
    hyp = hyperbolic(f2, 1, 1)
    empty = QuadFormEl(f2, 1, Mat(f2, []))
    assert direct_sum(hyp, empty).phi0 == hyp.phi0
    hh = direct_sum(hyp, hyp)
    h2 = hyperbolic(f2, 1, 2)
    # H(1) + H(1) equals H(2) after a basis permutation, as a min isometry
    perm = Mat.from_strs(
        f2,
        [
            ["1", "0", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "0", "1"],
        ],
    )
    pulled = perm.star() * h2.phi0 * perm
    assert min_equal(hh, QuadFormEl(f2, 1, pulled))


def test_subgroup_sizes():
    f2 = F2()
    assert shift_subgroup(f2, 1, 2).size == 2  # alternating 2x2 over F2
    assert selfadjoint_subgroup(f2, 1, 2).size == 8


def test_form_json_roundtrip():
    f4 = F4()
    q = hyperbolic(f4, 1, 1)
    doc = q.to_json("el")
    assert form_from_json(doc) == q
    doc_min = q.to_json("min")
    assert form_from_json(doc_min) == q
    h = q.associated()
    doc_max = h.to_json()
    back = form_from_json(doc_max)
    assert isinstance(back, HermForm) and back.phi == h.phi
    with pytest.raises(ValueError):
        form_from_json({"ring": f4.to_json(), "epsilon": 1, "variant": "odd", "matrix": [["0"]]})


def test_herm_form_validates_symmetry():
    f2 = F2()
    with pytest.raises(ValueError):
        HermForm(f2, 1, Mat.from_strs(f2, [["0", "1"], ["0", "0"]]))


def test_hyperbolic_summand_of_rank2_forms():
    # every nondegenerate rank-2 quadratic class over F2 embeds isometrically
    # as a direct summand of the rank-4 hyperbolic form (exhaustive search)
    f2 = F2()
    h2 = hyperbolic(f2, 1, 2)
    shifts = shift_subgroup(f2, 1, 2)
    from hermkq.linalg import rank_over_field

    for phi0 in all_matrices(f2, 2, 2):
        q = QuadFormEl(f2, 1, phi0)
        if not q.nondegenerate:
            continue
        found = False
        for j in all_matrices(f2, 4, 2):
            if rank_over_field(j) != 2:
                continue
            if shifts.contains(j.star() * h2.phi0 * j - q.phi0):
                found = True
                break
        assert found, phi0.to_strs()


# -- the closed-form shift subgroup against the generic span -----------------

SHIFT_RINGS = [
    ("F2", F2()), ("F3", Fp(3)), ("F4", F4()), ("F4-trivial", F4("trivial")),
    ("Z4", Zn(4)), ("Z6", Zn(6)), ("Z9", Zn(9)), ("Dual-F2", DualRing(F2())),
    ("Dual-Z4", DualRing(Zn(4))), ("Mat2-F2", Mat2Ring(F2())),
    ("ProductOp-F2", ProductOpRing(F2())), ("ProductOp-Z4", ProductOpRing(Zn(4))),
    ("TruncPoly-F3", TruncPolyRing(Fp(3), 2, "-t")), ("TruncPoly-Z4", TruncPolyRing(Zn(4), 2)),
]


def _generic_shift_subgroup(ring, eps, n):
    gens = [b - b.star().scale_sign(eps) for b in _basis_mats(additive_basis(ring), n, n)]
    return MatSubgroup(ring, n, n, gens)


@pytest.mark.parametrize("ring", [r for _, r in SHIFT_RINGS], ids=[k for k, _ in SHIFT_RINGS])
@pytest.mark.parametrize("eps", [1, -1])
def test_shift_subgroup_closed_form_matches_generic_span(ring, eps):
    # the echelon reduction of the generic subgroup, in every characteristic
    for n in (1, 2, 3):
        generic = _generic_shift_subgroup(ring, eps, n)
        closed = shift_subgroup(ring, eps, n)
        assert closed.size == generic.size
        rng = random.Random(n)
        elems = ring.elements()
        for _ in range(12):
            m, g = (Mat(ring, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])
                    for _ in range(2))
            shift = g - g.star().scale_sign(eps)
            assert closed.contains(shift)
            assert closed.contains(m) == generic.contains(m)
            rep = closed.coset_canonical(m)
            assert rep == generic.coset_canonical(m)
            assert generic.contains(rep - m)
            assert closed.coset_canonical(m + shift) == rep
        if n > 2:
            continue
        # as many distinct representatives as cosets, each fixed by the
        # oracle, are exactly the oracle's representatives
        reps = coset_reps_all(closed)
        assert len(reps) == ring.size**(n * n) // generic.size
        assert reps == sorted(set(reps), key=Mat.key)
        assert all(generic.coset_canonical(rep) == rep for rep in reps)


@pytest.mark.parametrize("ring", [r for _, r in SHIFT_RINGS], ids=[k for k, _ in SHIFT_RINGS])
@pytest.mark.parametrize("eps", [1, -1])
def test_lambda_is_closed_under_addition(ring, eps):
    # gamma_lambda takes Lambda = {b - eps*conj(b)} as it stands, with no span
    lam = {ring.sub(b, ring.conj(b) if eps == 1 else ring.neg(ring.conj(b)))
           for b in ring.elements()}
    assert all(ring.add(x, y) in lam for x in lam for y in lam)


def test_min_canonical_over_z9_past_the_span_cap():
    # rank 3 over Z/9 at eps = -1: |S| = 9^6; the closed form reads the
    # canonical form off entry by entry and lists no member, under any cap
    doc = {"ring": {"kind": "Zn", "n": 9}, "epsilon": -1, "variant": "min",
           "matrix": [["1", "2", "0"], ["0", "1", "3"], ["4", "0", "1"]]}
    q = form_from_json(doc)
    shifts = shift_subgroup(q.ring, -1, 3)
    assert shifts.size == 9**6
    canonical = q.min_canonical()
    assert canonical.to_strs() == [["0", "0", "0"], ["7", "0", "0"], ["4", "6", "0"]]
    assert shifts.contains(canonical - q.phi0)
    # results are built over the ring of the argument, not a cached one
    z9 = Zn(9)
    fresh = QuadFormEl(z9, -1, Mat.from_strs(z9, doc["matrix"]))
    assert fresh.ring is not q.ring
    assert shifts.coset_canonical(fresh.phi0).ring is fresh.ring
    assert fresh.min_canonical().ring is fresh.ring
    # so is check_min's witness, though the echelon of L it reduces against is cached
    assert check_min(Mat.identity(q.ring, 3), q).ring is q.ring
    assert check_min(Mat.identity(z9, 3), fresh).ring is fresh.ring


# -- the per-entry table against solve_affine and brute force ----------------

TABLE_RINGS = [
    ("F2", F2()), ("F3", Fp(3)), ("F4", F4()), ("F4-trivial", F4("trivial")),
    ("Z4", Zn(4)), ("Z6", Zn(6)), ("Z9", Zn(9)), ("Dual-F2", DualRing(F2())),
    ("Dual-Z4-e", DualRing(Zn(4))), ("Dual-Z4+e", DualRing(Zn(4), "+e")),
    ("TruncPoly-F3-t", TruncPolyRing(Fp(3), 2, "-t")), ("Mat2-F2", Mat2Ring(F2())),
    ("ProductOp-F3", ProductOpRing(Fp(3))),
]


def _table_inputs(ring, eps):
    """Every n x n matrix with |R|^(n^2) <= 2^12, n <= 2, then at n = 3
    eight fixed random matrices and eight members each of S and of the image
    of tau(g) = g + eps*g^*."""
    out = [m for n in (1, 2) if ring.size ** (n * n) <= 2**12 for m in all_matrices(ring, n, n)]
    rng = random.Random(ring.size * eps)
    elems = ring.elements()
    for k in range(24):
        g = Mat(ring, [[rng.choice(elems) for _ in range(3)] for _ in range(3)])
        out.append(g if k < 8 else g + g.star().scale_sign(eps if k < 16 else -eps))
    return out


def _least_by_oracle(fun, m):
    sols = solve_affine(m.ring, (m.rows, m.cols), fun, m, all_solutions=False)
    return sols[0] if sols else None


@pytest.mark.parametrize("ring", [r for _, r in TABLE_RINGS], ids=[k for k, _ in TABLE_RINGS])
@pytest.mark.parametrize("eps", [1, -1])
def test_witness_and_is_even_are_the_least_solutions(ring, eps):
    tau = lambda g: g + g.star().scale_sign(eps)  # noqa: E731
    inputs = _table_inputs(ring, eps)
    for m in inputs:
        shifts = shift_subgroup(ring, eps, m.rows)
        want = _least_by_oracle(_shift_map(eps), m)
        assert shifts.witness(m) == want, m.to_strs()
        assert shifts.contains(m) == (want is not None)
        if m.star() == m.scale_sign(eps):
            assert is_even(HermForm(ring, eps, m)) == _least_by_oracle(tau, m), m.to_strs()
    # check_min reads the same table: f^* phi0 f - phi0 for a few f and phi0
    for n in (1, 2):
        mats = [m for m in inputs if m.rows == n][:40]
        for phi0, f in product(mats[::5], mats[::8]):
            q = QuadFormEl(ring, eps, phi0)
            want = _least_by_oracle(_shift_map(eps), f.star() * phi0 * f - phi0)
            assert check_min(f, q) == want


@pytest.mark.parametrize("ring", [r for _, r in TABLE_RINGS], ids=[k for k, _ in TABLE_RINGS])
@pytest.mark.parametrize("eps", [1, -1])
def test_selfadjoint_subgroup_and_lambda_representatives_by_brute_force(ring, eps):
    for n in (1, 2):
        if ring.size ** (n * n) > 2**12:
            continue
        brute = [g for g in all_matrices(ring, n, n) if g.star() == g.scale_sign(eps)]
        assert selfadjoint_subgroup(ring, eps, n).elements() == sorted(brute, key=Mat.key)
    lam, shifts = _generic_shift_subgroup(ring, eps, 1), shift_subgroup(ring, eps, 1)
    for a in ring.elements():
        m = Mat(ring, [[a]])
        assert shifts.coset_canonical(m) == lam.coset_canonical(m)


def _span_oracle(ring, rows, cols, generators):
    """Every sum of generators, reached one addition at a time."""
    span = {Mat.zero(ring, rows, cols)}
    frontier = list(span)
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = cur + g
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    return span


PRIME_RINGS = [("F2", F2()), ("F3", Fp(3)), ("F4", F4()), ("Dual-F2", DualRing(F2())),
               ("Mat2-F2", Mat2Ring(F2()))]
COMPOSITE_RINGS = [("Z4", Zn(4)), ("Z8", Zn(8)), ("Z9", Zn(9)), ("Dual-Z4", DualRing(Zn(4)))]
SUBGROUP_CASES = ([(k, r, (2, 2)) for k, r in PRIME_RINGS]
                  + [(k, r, (2, 3)) for k, r in COMPOSITE_RINGS])


@pytest.mark.parametrize("ring,shape", [(r, s) for _, r, s in SUBGROUP_CASES],
                         ids=[k for k, _, _ in SUBGROUP_CASES])
def test_echelon_subgroup_matches_the_listed_span(ring, shape):
    # one representation in every characteristic: membership, size,
    # elements, generators and coset representatives of the echelon against
    # a plain search
    rows, cols = shape
    rng = random.Random(ring.size)
    elems = ring.elements()
    zero = Mat.zero(ring, rows, cols)

    def rand():
        return Mat(ring, [[rng.choice(elems) for _ in range(cols)] for _ in range(rows)])

    g, h = rand(), rand()
    cases = [[], [zero], [g, g], [g, zero, h, g + h], [g.scale_left(ring.int_embed(2))]]
    cases += [[rand() for _ in range(k)] for k in (1, 2, 3)]
    for gens in cases:
        sub = MatSubgroup(ring, rows, cols, gens)
        expected = _span_oracle(ring, rows, cols, gens)
        assert sub.size == len(expected)
        assert sub.elements() == sorted(expected, key=Mat.key)
        assert all(x in expected for x in sub.generators())
        probes = [rand() for _ in range(20)] + sorted(expected, key=Mat.key)[:3]
        for m in probes:
            assert sub.contains(m) == (m in expected)
            rep = sub.coset_canonical(m)
            assert rep - m in expected
            assert all(sub.coset_canonical(m + s) == rep for s in expected)
        if ring.size ** (rows * cols) <= 4096:
            reps = coset_reps_by_enumeration(ring, rows, cols, sub.coset_canonical)
            assert len(reps) * sub.size == ring.size ** (rows * cols)
            assert all(sub.coset_canonical(r) == r for r in reps)


def test_extend_span_reports_growth_and_keeps_a_subgroup():
    z8 = Zn(8)

    def m(*xs):
        return {Mat(z8, [[x]]) for x in xs}

    span = m(0)
    assert extend_span(span, Mat(z8, [[4]]), 8, "cap") and span == m(0, 4)
    assert not extend_span(span, Mat(z8, [[4]]), 8, "cap")
    assert extend_span(span, Mat(z8, [[6]]), 8, "cap") and span == m(0, 2, 4, 6)
    with pytest.raises(CapExceeded, match="^too big$"):
        extend_span(span, Mat(z8, [[1]]), 7, "too big")
    assert extend_span(span, Mat(z8, [[3]]), 8, "cap") and span == m(*range(8))
