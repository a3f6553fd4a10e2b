import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hermkq.additive import basis_elements, solve_affine
from hermkq.caps import scoped_cap
from hermkq.invariants import AbelianGroupPresentation
from hermkq.linalg import (
    Mat,
    _det_comm,
    all_matrices,
    invert,
    kron,
    nilpotency_index,
    rank_over_field,
)
from hermkq.rings import (
    DualRing,
    F2,
    F4,
    Fp,
    Fq,
    Mat2Ring,
    PolySRing,
    ProductOpRing,
    TruncPolyRing,
    Zn,
)
from hermkq.snf import Echelon, smith_normal_form, solve_mod
from oracles import is_invertible_by_enumeration


def test_conj_transpose_examples():
    f2, f4 = F2(), F4()
    ident = Mat.identity(f2, 3)
    assert ident.star() == ident
    w = Mat.from_strs(f4, [["w"]])
    assert w.star().to_strs() == [["w+1"]]
    m = Mat.from_strs(f2, [["0", "1"], ["0", "0"]])
    assert m.star().to_strs() == [["0", "0"], ["1", "0"]]


def test_from_strs_matches_the_constructor():
    f4 = F4()
    for rows in ([["w", "1"], ["w+1", "0"]], [["1", "0", "w"]], [["w"], ["1"]], []):
        m = Mat.from_strs(f4, rows)
        assert m == Mat(f4, [[f4.from_str(s) for s in row] for row in rows])
        assert (m.rows, m.cols) == (len(rows), len(rows[0]) if rows else 0)
        assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)
    for ragged in ([["1", "0"], ["0"]], [["1"], []], [[], ["1"]]):
        with pytest.raises(ValueError, match="ragged matrix"):
            Mat.from_strs(f4, ragged)


def test_star_antimultiplicative_random():
    rng = random.Random(7)
    for ring in (F2(), F4(), Zn(8), Mat2Ring(F2()), DualRing(F4())):
        elems = ring.elements()
        for _ in range(20):
            a = Mat(ring, [[elems[rng.randrange(len(elems))] for _ in range(2)] for _ in range(2)])
            b = Mat(ring, [[elems[rng.randrange(len(elems))] for _ in range(2)] for _ in range(2)])
            assert (a * b).star() == b.star() * a.star()
            assert a.star().star() == a


def test_invert_examples():
    f2 = F2()
    swap = Mat.from_strs(f2, [["0", "1"], ["1", "0"]])
    assert invert(swap) == swap
    shear = Mat.from_strs(f2, [["1", "1"], ["0", "1"]])
    si = invert(shear)
    assert si == shear and shear * si == Mat.identity(f2, 2)
    nil = Mat.from_strs(f2, [["0", "1"], ["0", "0"]])
    assert invert(nil) is None


def test_invert_agrees_with_enumeration_oracle():
    for ring in (F2(), F4()):
        for m in all_matrices(ring, 2, 2):
            assert (invert(m) is not None) == is_invertible_by_enumeration(m)


def test_invert_nonfield_rings():
    z8 = Zn(8)
    m = Mat.from_strs(z8, [["3", "2"], ["4", "5"]])
    mi = invert(m)
    assert mi is not None and m * mi == Mat.identity(z8, 2) and mi * m == Mat.identity(z8, 2)
    assert invert(Mat.from_strs(z8, [["2", "0"], ["0", "1"]])) is None
    # noncommutative: invertibility via the additive solver
    m2 = Mat2Ring(F2())
    unit = Mat.from_strs(m2, [['[["0","1"],["1","0"]]', '[["0","0"],["0","0"]]'],
                              ['[["0","0"],["0","0"]]', '[["1","0"],["0","1"]]']])
    ui = invert(unit)
    assert ui is not None and unit * ui == Mat.identity(m2, 2)


def test_nilpotency_examples():
    f2 = F2()
    assert nilpotency_index(Mat.zero(f2, 2)) == 1
    assert nilpotency_index(Mat.from_strs(f2, [["0", "1"], ["0", "0"]])) == 2
    assert nilpotency_index(Mat.identity(f2, 2)) is None


def test_solve_linear_examples():
    f2 = F2()
    sym = solve_affine(f2, (2, 2), lambda g: g - g.transpose(), Mat.zero(f2, 2))
    assert len(sym) == 8
    target = Mat.from_strs(f2, [["0", "1"], ["1", "0"]])
    coset = solve_affine(f2, (2, 2), lambda g: g - g.transpose(), target)
    assert len(coset) == 8
    for g in coset:
        assert g - g.transpose() == target
    unsat = solve_affine(f2, (1, 1), lambda g: Mat.zero(f2, 1), Mat.from_strs(f2, [["1"]]))
    assert unsat == []


def test_solve_linear_deterministic_order():
    f2 = F2()
    a = solve_affine(f2, (2, 2), lambda g: g - g.transpose(), Mat.zero(f2, 2))
    b = solve_affine(f2, (2, 2), lambda g: g - g.transpose(), Mat.zero(f2, 2))
    assert [m.key() for m in a] == [m.key() for m in b]


def test_solve_linear_non_prime_char():
    z4 = Zn(4)
    sols = solve_affine(z4, (1, 1), lambda g: g + g, Mat.from_strs(z4, [["2"]]))
    assert sorted(s.entries[0][0] for s in sols) == [1, 3]


def test_rank_over_field():
    f2 = F2()
    assert rank_over_field(Mat.identity(f2, 3)) == 3
    assert rank_over_field(Mat.zero(f2, 3)) == 0
    assert rank_over_field(Mat.from_strs(f2, [["1", "1"], ["1", "1"]])) == 1


def test_kron_mixed_products():
    f4 = F4()
    a = Mat.from_strs(f4, [["w", "0"], ["1", "1"]])
    b = Mat.from_strs(f4, [["1", "w"], ["0", "w+1"]])
    c = Mat.from_strs(f4, [["w+1", "1"], ["1", "0"]])
    d = Mat.from_strs(f4, [["0", "1"], ["w", "w"]])
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)
    assert kron(a, b).star() == kron(a.star(), b.star())


# Smith normal form: cross-check against sympy on random integer matrices
def test_snf_transforms_and_oracle():
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(13)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        d, v = smith_normal_form(m)
        assert abs(sympy.Matrix(v).det()) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        # m*v = U^-1 * d: its column j is d_j times an integer column
        mv = sympy.Matrix(m) * sympy.Matrix(v)
        for j in range(cols):
            dj = diag[j] if j < len(diag) else 0
            assert all((x == 0) if dj == 0 else (x % dj == 0) for x in mv.col(j))
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        expected = sympy_snf(sympy.Matrix(m))
        exp_diag = [expected[i, i] for i in range(min(rows, cols))]
        assert [abs(x) for x in diag] == [abs(x) for x in exp_diag]


def test_invariant_factors():
    pres = AbelianGroupPresentation(["a", "b"], [[2, 0], [0, 4]])
    assert pres.invariant_factors == [2, 4] and pres.free_rank == 0
    pres = AbelianGroupPresentation(["a", "b"], [[0, 0]])
    assert pres.invariant_factors == [] and pres.free_rank == 2


def test_solve_mod():
    x, gens = solve_mod([[2]], [2], 4)
    assert x is not None and (2 * x[0]) % 4 == 2


# the Howell echelon over Z/N against brute force

def _span_mod(n_mod, width, gens):
    span = {(0,) * width}
    frontier = list(span)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((x + y) % n_mod for x, y in zip(cur, g))
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    return span


def _listed_solutions(n_mod, particular, kernel):
    out = []
    for ks in product(*(range(order) for _, order in kernel)):
        x = list(particular)
        for k, (g, _) in zip(ks, kernel):
            x = [(a + k * b) % n_mod for a, b in zip(x, g)]
        out.append(tuple(x))
    return out


@pytest.mark.parametrize("n_mod", [2, 3, 4, 5, 6, 8, 9, 12])
def test_echelon_and_solve_mod_against_brute_force(n_mod):
    rng = random.Random(n_mod)
    for _ in range(40):
        width = rng.randrange(1, 4)
        gens = [[rng.randrange(n_mod) for _ in range(width)] for _ in range(rng.randrange(4))]
        span = _span_mod(n_mod, width, gens)
        forward, backward = Echelon(n_mod, width), Echelon(n_mod, width)
        for g in gens:
            forward.add(g)
        for g in reversed(gens):
            backward.add(g)
        assert forward.size == len(span)
        vecs = list(product(range(n_mod), repeat=width))
        for v in rng.sample(vecs, min(len(vecs), 30)):
            rep = forward.reduce(v)
            assert rep == backward.reduce(v)
            assert (not any(rep)) == (v in span)
            assert tuple((a - b) % n_mod for a, b in zip(v, rep)) in span

        mat = [[rng.randrange(n_mod) for _ in range(width)] for _ in range(rng.randrange(1, 4))]
        x0 = [rng.randrange(n_mod) for _ in range(width)]
        for target in ([sum(a * x for a, x in zip(row, x0)) % n_mod for row in mat],
                       [rng.randrange(n_mod) for _ in mat]):
            expected = {x for x in product(range(n_mod), repeat=width)
                        if all(sum(a * b for a, b in zip(row, x)) % n_mod == t
                               for row, t in zip(mat, target))}
            particular, kernel = solve_mod(mat, target, n_mod)
            if particular is None:
                assert not expected
                continue
            listed = _listed_solutions(n_mod, particular, kernel)
            assert len(listed) == len(expected) and set(listed) == expected
            # the least solution, compared from the last unknown to the first
            assert tuple(particular) == min(expected, key=lambda x: x[::-1])
            order = list(range(len(mat)))
            rng.shuffle(order)
            again, _ = solve_mod([mat[i] for i in order], [target[i] for i in order], n_mod)
            assert again == particular


ADDITIVE_RINGS = {
    "F4": F4,
    "Z6": lambda: Zn(6),
    "Z9": lambda: Zn(9),
    "Dual-Z4": lambda: DualRing(Zn(4)),
    "Mat2-F3": lambda: Mat2Ring(Fp(3)),
    "ProductOp-F3": lambda: ProductOpRing(Fp(3)),
    "TruncPoly-F3-2": lambda: TruncPolyRing(Fp(3), 2),
    "Fq-2-9": lambda: Fq(2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)),
}


@pytest.mark.parametrize("name", list(ADDITIVE_RINGS))
def test_element_from_coords_inverts_coords(name):
    ring = ADDITIVE_RINGS[name]()
    basis = basis_elements(ring)
    coords = {elem: ring.coords(elem) for elem in ring.elements()}
    assert len(set(coords.values())) == ring.size
    for elem, vec in coords.items():
        # vec lists the multiples of the basis elements that sum to elem
        acc = ring.zero
        for b, k in zip(basis, vec):
            for _ in range(k):
                acc = ring.add(acc, b)
        assert acc == elem
        assert ring.from_coords(vec) == elem
        # coordinates are read mod char
        assert ring.from_coords([k + ring.char for k in vec]) == elem


def _scan_solutions(ring, n, fun, targets):
    """The sorted solutions of fun(x) = t for each target t, over every n x n x.

    Up to 6561 matrices each x is evaluated.  Past that (2 x 2 over a ring
    of 16) the scan is row by row: fun is affine, so fun(x) is fun(0) plus
    the images of x's rows, each row placed alone in a zero matrix, and every
    pair of rows is matched through a table of the second row's images."""
    zero = Mat.zero(ring, n, n)
    if ring.size ** (n * n) <= 6561:
        images = [(x, fun(x)) for x in all_matrices(ring, n, n)]
    else:
        def placed(row, i):
            entries = [[ring.zero] * n for _ in range(n)]
            entries[i] = list(row.entries[0])
            return Mat(ring, entries)

        base = fun(zero)
        rows = list(all_matrices(ring, 1, n))
        second = {}
        for r in rows:
            second.setdefault(fun(placed(r, 1)) - base, []).append(r)
        images = []
        for r in rows:
            first = placed(r, 0)
            part = fun(first)
            for t in targets:
                for r2 in second.get(t - part, []):
                    images.append((first + placed(r2, 1), t))
    return [sorted((x for x, y in images if y == t), key=Mat.key) for t in targets]


def test_solve_affine_over_a_prime_past_4096():
    # Fp(10007) has coordinates in closed form, so no element is listed
    ring = Fp(10007)
    a = Mat.from_strs(ring, [["3", "10000"], ["5", "7"]])
    target = Mat.from_strs(ring, [["1", "2"], ["3", "4"]])

    def fun(x):
        return a * x - x.star()

    sols = solve_affine(ring, (2, 2), fun, target, all_solutions=False)
    assert len(sols) == 1 and fun(sols[0]) == target


@pytest.mark.parametrize("ring", [Zn(4), Zn(6), Zn(9), DualRing(Zn(4)), Mat2Ring(F2())],
                         ids=["Z4", "Z6", "Z9", "DualZ4", "Mat2F2"])
@pytest.mark.parametrize("n", [1, 2])
def test_solve_affine_against_a_scan(ring, n):
    rng = random.Random(ring.size + n)
    elems = ring.elements()

    def rand():
        return Mat(ring, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])

    a, c = rand(), rand()
    for fun in (lambda x: x + x.star(), lambda x: a * x - x.star() + c,
                lambda x: x * a + a * x):
        targets = [fun(rand()), rand()]
        for target, expected in zip(targets, _scan_solutions(ring, n, fun, targets)):
            assert solve_affine(ring, (n, n), fun, target) == expected
            first = solve_affine(ring, (n, n), fun, target, all_solutions=False)
            assert first[0] in expected if expected else first == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inverse_is_two_sided(data):
    ring = data.draw(st.sampled_from([F2(), F4(), Zn(4), Zn(9)]))
    elems = ring.elements()
    entries = [
        [data.draw(st.sampled_from(elems)) for _ in range(2)] for _ in range(2)
    ]
    m = Mat(ring, entries)
    mi = invert(m)
    if mi is not None:
        ident = Mat.identity(ring, 2)
        assert m * mi == ident and mi * m == ident


INVERT_RINGS = {
    "Z4": Zn(4), "Z8": Zn(8), "Z9": Zn(9), "Z25": Zn(25),
    "Dual-F2": DualRing(F2()), "Dual-Z4-e": DualRing(Zn(4), "-e"),
    "Dual-Z4+e": DualRing(Zn(4), "+e"), "Dual-F3": DualRing(Fp(3)),
    "Dual-F5": DualRing(Fp(5)),  # 25 elements: uncoded, its units found by a scan
    "TruncPoly-F3-2+t": TruncPolyRing(Fp(3), 2, "+t"),
    "TruncPoly-F3-2-t": TruncPolyRing(Fp(3), 2, "-t"),
    "F4": F4(), "F17": Fp(17), "Z6": Zn(6), "Z12": Zn(12),
}


@pytest.mark.parametrize("name", list(INVERT_RINGS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_invert_over_local_and_composite_rings(name, data):
    # local rings take the unit-pivot elimination, Z/6 and Z/12 the adjugate;
    # a singular matrix is drawn as well: a last row that is a combination
    # of the others, or non-units throughout one column
    ring = INVERT_RINGS[name]
    elems = ring.elements()
    n = data.draw(st.integers(1, 3), label="n")
    rows = [[data.draw(st.sampled_from(elems)) for _ in range(n)] for _ in range(n)]
    singular = data.draw(st.sampled_from(["random", "dependent", "nonunit column"]))
    if singular == "dependent":
        coeffs = [data.draw(st.sampled_from(elems)) for _ in range(n - 1)]
        last = [ring.zero] * n
        for c, row in zip(coeffs, rows):
            last = [ring.add(x, ring.mul(c, y)) for x, y in zip(last, row)]
        rows[-1] = last
    elif singular == "nonunit column":
        nonunits = [x for x in elems if ring.inv(x) is None]
        col = data.draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = data.draw(st.sampled_from(nonunits))
    m = Mat(ring, rows)
    mi = invert(m)
    ident = Mat.identity(ring, n)
    if mi is not None:
        assert m * mi == ident and mi * m == ident
    if n <= 2:
        assert (mi is not None) == is_invertible_by_enumeration(m)
    else:
        assert (mi is not None) == (ring.inv(_det_comm(m)) is not None)
    # a zero determinant, and over a local ring a determinant in the maximal
    # ideal, is singular; over Z/6 two non-units can make a unit determinant
    if singular == "dependent" or singular == "nonunit column" and ring.is_local:
        assert mi is None


@pytest.mark.parametrize("ring,entries,index", [
    (Zn(9), [["3"]], 2),
    (Zn(8), [["2"]], 3),
    (Zn(8), [["2", "1"], ["0", "2"]], 4),
    (DualRing(Zn(4)), [["2+e"]], 2),
    (DualRing(Zn(4)), [["e", "1"], ["0", "e"]], 3),
    (TruncPolyRing(F2(), 3), [['["0","1","0"]']], 3),
    (Zn(9), [["2"]], None),
    (DualRing(Zn(4)), [["1+e"]], None),
    (Zn(8), [["4", "0"], ["0", "1"]], None),
], ids=["Z9-3", "Z8-2", "Z8-2+N", "DualZ4-2+e", "DualZ4-e+N", "TruncPoly-t", "Z9-unit",
        "DualZ4-unit", "Z8-not-nilpotent"])
def test_nilpotency_index_with_nilpotent_scalars(ring, entries, index):
    m = Mat.from_strs(ring, entries)
    assert nilpotency_index(m) == index
    if index is not None:
        power = Mat.identity(ring, m.rows)
        for _ in range(index - 1):
            power = power * m
        assert not power.is_zero() and (power * m).is_zero()



@pytest.mark.parametrize("ring", [F2(), Zn(9), PolySRing(F2())], ids=["F2", "Z9", "PolyS-F2"])
def test_nilpotency_index_of_the_empty_matrix_is_zero(ring):
    # m^0 = I_0 is already the zero matrix
    assert nilpotency_index(Mat.zero(ring, 0)) == 0

def test_nilpotency_index_stops_at_a_closed_bound():
    # a unit of large order over Fp(101) and s - s^2 over F3[s], whose powers
    # never repeat, are refused after log2|R^n| resp. n*log2(|B|)^2 powers,
    # far below the cap
    f101 = Fp(101)
    unit = Mat(f101, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    ps = PolySRing(Fp(3))
    with scoped_cap(32):
        assert nilpotency_index(unit) is None
        assert nilpotency_index(Mat(ps, [[(0, 1, 2)]])) is None
    assert nilpotency_index(Mat(PolySRing(Zn(9)), [[(3,)]])) == 2
    assert nilpotency_index(Mat(ps, [[(), (1,)], [(), ()]])) == 2
