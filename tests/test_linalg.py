import random

import pytest
from hypothesis import given, settings, strategies as st

from hermkq.caps import scoped_cap
from hermkq.linalg import (
    Mat,
    all_matrices,
    invert,
    is_invertible_by_enumeration,
    kron,
    nilpotency_index,
    rank_over_field,
    solve_linear,
)
from hermkq.rings import DualRing, F2, F4, Fp, Mat2Ring, PolySRing, TruncPolyRing, Zn
from hermkq.snf import invariant_factors, smith_normal_form, solve_integer, solve_mod


def test_conj_transpose_examples():
    f2, f4 = F2(), F4()
    ident = Mat.identity(f2, 3)
    assert ident.star() == ident
    w = Mat.from_strs(f4, [["w"]])
    assert w.star().to_strs() == [["w+1"]]
    m = Mat.from_strs(f2, [["0", "1"], ["0", "0"]])
    assert m.star().to_strs() == [["0", "0"], ["1", "0"]]


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
    sym = solve_linear(f2, (2, 2), lambda g: g - g.transpose())
    assert len(sym) == 8
    target = Mat.from_strs(f2, [["0", "1"], ["1", "0"]])
    coset = solve_linear(f2, (2, 2), lambda g: g - g.transpose(), target)
    assert len(coset) == 8
    for g in coset:
        assert g - g.transpose() == target
    unsat = solve_linear(f2, (1, 1), lambda g: Mat.zero(f2, 1), Mat.from_strs(f2, [["1"]]))
    assert unsat == []


def test_solve_linear_deterministic_order():
    f2 = F2()
    a = solve_linear(f2, (2, 2), lambda g: g - g.transpose())
    b = solve_linear(f2, (2, 2), lambda g: g - g.transpose())
    assert [m.key() for m in a] == [m.key() for m in b]


def test_solve_linear_non_prime_char():
    z4 = Zn(4)
    sols = solve_linear(z4, (1, 1), lambda g: g + g, Mat.from_strs(z4, [["2"]]))
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
        d, u, v = smith_normal_form(m)
        um = sympy.Matrix(u) * sympy.Matrix(m) * sympy.Matrix(v)
        assert um == sympy.Matrix(d)
        assert abs(sympy.Matrix(u).det()) == 1
        assert abs(sympy.Matrix(v).det()) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        expected = sympy_snf(sympy.Matrix(m))
        exp_diag = [expected[i, i] for i in range(min(rows, cols))]
        assert [abs(x) for x in diag] == [abs(x) for x in exp_diag]


def test_invariant_factors():
    factors, free = invariant_factors([[2, 0], [0, 4]])
    assert factors == [2, 4] and free == 0
    factors, free = invariant_factors([[0, 0]])
    assert factors == [] and free == 2


def test_solve_integer_and_mod():
    x, kernel = solve_integer([[2, 0], [0, 3]], [4, 9])
    assert x == [2, 3] and kernel == []
    x, _ = solve_integer([[2]], [3])
    assert x is None
    x, gens = solve_mod([[2]], [2], 4)
    assert x is not None and (2 * x[0]) % 4 == 2


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
