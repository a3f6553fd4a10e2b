import pytest

import oracles
from hermkq import invariants
from hermkq.forms import HermForm, QuadFormEl, direct_sum, hyperbolic, is_even, shift_subgroup
from hermkq.groups import enumerate_orthogonal_min, enumerate_unitary
from hermkq.invariants import (
    AbelianGroupPresentation,
    _gl_moves,
    _max_class_reps,
    _min_class_reps,
    _orbits,
    arf,
    arf_retraction_check,
    arf_zero_count_oracle,
    dickson,
    gamma_lambda,
    grothendieck_witt_monoid,
    witt_classify,
    xi_char2_field,
    xi_group,
)
from hermkq.linalg import Mat, all_matrices, diag_block, invert
from hermkq.rings import F2, F4, DualRing, Fp, Fq, Mat2Ring, ProductOpRing, TruncPolyRing, Zn


F4T = Fq(2, 2, (1, 1, 1), "trivial")
_F8 = Fq(2, 3, (1, 1, 0, 1))
_F16 = Fq(2, 4, (1, 1, 0, 0, 1))


def test_gamma_lambda_examples():
    gl = gamma_lambda(F2(), 1)
    assert len(gl.gamma) == 2 and len(gl.lam) == 1 and gl.quotient_order == 2
    gl4 = gamma_lambda(F4(), 1)
    assert sorted(gl4.gamma) == [0, 1]  # the fixed field
    assert gl4.quotient_order == 1
    glz = gamma_lambda(Zn(4), -1)
    assert sorted(glz.gamma) == [0, 2] and glz.quotient_order == 1


def test_xi_examples():
    assert xi_group(F2(), 1).label() == "Z/2"
    assert xi_group(F4(), 1).label() == "0"
    assert xi_group(Zn(4), -1).label() == "0"


def test_xi_char2_cross_oracle():
    # over F8 the balancing rows are what cut Z/2 x Z/2 down to Z/2
    for ring in (F2(), F4T, _F8):
        a = xi_group(ring, 1)
        b = xi_char2_field(ring)
        assert a.same_group(b), (a.label(), b.label())
    with pytest.raises(ValueError):
        xi_char2_field(Zn(4))
    with pytest.raises(ValueError):
        xi_char2_field(F4())  # nontrivial involution


# rings whose Gamma/Lambda has at most 6 classes, or 16, or is not defined
_XI_RINGS = {
    "F2": F2(), "F3": Fp(3), "F4": F4(), "F4-trivial": F4T, "Z4": Zn(4), "Z6": Zn(6),
    "Dual-F2-e": DualRing(F2()), "Dual-F2+e": DualRing(F2(), "+e"),
    "Dual-Z4-e": DualRing(Zn(4)), "Dual-Z4+e": DualRing(Zn(4), "+e"), "Dual-F4": DualRing(F4()),
    "Trunc-F2-2+t": TruncPolyRing(F2(), 2), "Trunc-F2-2-t": TruncPolyRing(F2(), 2, "-t"),
    "Trunc-Z4-2+t": TruncPolyRing(Zn(4), 2), "Trunc-Z4-2-t": TruncPolyRing(Zn(4), 2, "-t"),
    "ProductOp-F2": ProductOpRing(F2()),
}


def test_xi_group_matches_the_pairs_oracle():
    cases = [(ring, eps) for ring in _XI_RINGS.values() for eps in (1, -1)] + [(Zn(8), 1)]
    compared = 0
    for ring, eps in cases:
        try:
            k = gamma_lambda(ring, eps).quotient_order
        except ValueError:
            with pytest.raises(ValueError):
                xi_group(ring, eps)
            continue
        if k > 8:  # Dual(Z/4, +e) and TruncPoly(Z/4, 2, +t) at eps = 1: k = 16
            continue
        a, b = xi_group(ring, eps), oracles.xi_group_by_pairs(ring, eps)
        assert a.same_group(b), (ring.key(), eps, a.label(), b.label())
        compared += 1
    assert compared == 29


@pytest.mark.parametrize("ring", [
    Zn(16), Zn(32), DualRing(Zn(4), "+e"), TruncPolyRing(Zn(4), 2), _F16, DualRing(F4T),
], ids=["Z16", "Z32", "Dual-Z4+e", "Trunc-Z4-2+t", "F16", "Dual-F4-trivial"])
def test_xi_group_at_reach(ring):
    # |Gamma/Lambda| >= 16: past the pairs oracle, and no independent oracle
    # covers these rings; the answer is pinned as computed
    assert gamma_lambda(ring, 1).quotient_order >= 16
    assert xi_group(ring, 1).label() == "Z/2"


def test_xi_group_presents_on_generator_pairs():
    # Gamma/Lambda = F2 over F2: one symbol g@g and 2 + 2 + 1 + 2 relation rows
    pres = xi_group(F2(), 1)
    assert (len(pres.labels), len(pres.relations)) == (1, 7)
    # F8: three generators of (Z/2)^3, so 9 symbols
    assert len(xi_group(_F8, 1).labels) == 9


def test_presentation_normal_form():
    pres = AbelianGroupPresentation(["a", "b"], [[2, 0], [0, 3]])
    assert pres.invariant_factors == [2, 3] or pres.invariant_factors == [6]
    assert pres.order == 6
    assert pres.is_zero([2, 3])
    assert not pres.is_zero([1, 0])
    free = AbelianGroupPresentation(["a"], [])
    assert free.free_rank == 1 and free.order is None


def test_arf_examples():
    f2 = F2()
    hyp = hyperbolic(f2, 1, 1)
    assert arf(hyp) == 0
    a1 = QuadFormEl(f2, 1, Mat.from_strs(f2, [["1", "1"], ["0", "1"]]))
    assert arf(a1) == 1
    assert arf_zero_count_oracle(a1) == 1
    assert arf_zero_count_oracle(hyp) == 0


def test_arf_agrees_with_zero_count_rank2_and_4():
    f2 = F2()
    for rep in _min_class_reps(f2, 1, 2) + _min_class_reps(f2, 1, 4):
        q = QuadFormEl(f2, 1, rep)
        assert arf(q) == arf_zero_count_oracle(q)


def test_arf_additivity_exhaustive_rank2():
    f2 = F2()
    reps = [QuadFormEl(f2, 1, m) for m in _min_class_reps(f2, 1, 2)]
    for a in reps:
        for b in reps:
            assert arf(direct_sum(a, b)) == f2.add(arf(a), arf(b))


def test_arf_constant_on_orbits_rank_le_4():
    f2 = F2()
    for rank in (2, 4):
        reps = _min_class_reps(f2, 1, rank)
        for orbit in _orbits(f2, 1, rank, reps, "min"):
            values = {arf(QuadFormEl(f2, 1, rep)) for rep in orbit}
            assert len(values) == 1


def test_arf_vanishes_on_hyperbolics():
    f2 = F2()
    for m in (1, 2, 3):
        assert arf(hyperbolic(f2, 1, m)) == 0


def test_arf_rejects_bad_inputs():
    f2 = F2()
    with pytest.raises(ValueError):
        arf(QuadFormEl(f2, 1, Mat.zero(f2, 2)))  # degenerate
    with pytest.raises(ValueError):
        arf(QuadFormEl(F4T, 1, Mat.from_strs(F4T, [["w"]])))  # odd rank


@pytest.mark.parametrize("ring", [F2(), F4T, Fq(2, 3, (1, 1, 0, 1))], ids=["F2", "F4-trivial", "F8"])
def test_arf_image_is_closed_under_addition(ring):
    # arf_group takes {a^2 - a} as it stands, with no span
    image = {ring.sub(ring.mul(a, a), a) for a in ring.elements()}
    assert all(ring.add(x, y) in image for x in image for y in image)


def test_arf_over_f4_trivial():
    # rank-2 forms over F4 with trivial involution: Arf lives in G of order 2
    from hermkq.invariants import arf_group

    g = arf_group(F4T)
    assert g.order == 2
    vals = set()
    for rep in _min_class_reps(F4T, 1, 2):
        vals.add(arf(QuadFormEl(F4T, 1, rep)))
    assert len(vals) == 2


def test_retraction_checks():
    assert arf_retraction_check(F2())["passed"]
    assert arf_retraction_check(F4T)["passed"]


def test_dickson_examples():
    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    group = enumerate_orthogonal_min(q)
    swap = Mat.from_strs(f2, [["0", "1"], ["1", "0"]])
    assert dickson(Mat.identity(f2, 2), q) == 0
    assert dickson(swap, q) == 1
    with pytest.raises(ValueError):
        dickson(Mat.from_strs(f2, [["1", "1"], ["0", "1"]]), q)


def test_witt_f2_min():
    table = witt_classify(F2(), 1, "min", 4)
    assert len(table.stable_classes) == 2
    arfs = sorted(c["arf"] for c in table.stable_classes)
    assert arfs == ["0", "1"]
    # hyperbolic forms land in the zero class: the rank-0 class absorbs H(1), H(2)
    zero_class = table.stable_classes[0]
    assert zero_class["min_rank"] == 0
    members = {tuple(m) for m in zero_class["members"]}
    hyp2 = hyperbolic(F2(), 1, 1).min_canonical()
    assert (2, table.class_of(2, hyp2)) in members
    hyp4 = hyperbolic(F2(), 1, 2).min_canonical()
    assert (4, table.class_of(4, hyp4)) in members


@pytest.mark.parametrize("call", [
    lambda: gamma_lambda(F2(), 0), lambda: xi_group(F2(), 2),
    lambda: witt_classify(Fp(3), 2, "max", 2), lambda: grothendieck_witt_monoid(F2(), -2, "min", 1),
], ids=["gamma-lambda", "xi", "witt", "gw"])
def test_epsilon_outside_plus_minus_one_is_refused(call):
    with pytest.raises(ValueError, match="epsilon must be"):
        call()


def test_witt_f2_max_collapses():
    table = witt_classify(F2(), 1, "max", 4)
    assert len(table.stable_classes) == 1


def test_witt_rank0_only():
    table = witt_classify(F2(), 1, "min", 0)
    assert len(table.stable_classes) == 1
    assert table.stable_classes[0]["min_rank"] == 0


def test_witt_el_variant_delegates():
    a = witt_classify(F2(), 1, "el", 2)
    b = witt_classify(F2(), 1, "min", 2)
    assert len(a.stable_classes) == len(b.stable_classes)


def test_witt_f4_min_max_coincide():
    ring = F4()
    tmin = witt_classify(ring, 1, "min", 2)
    tmax = witt_classify(ring, 1, "max", 2)
    assert len(tmin.stable_classes) == len(tmax.stable_classes)
    # the hermitianization of each stable min class lands in a distinct max class
    from hermkq.verify import _stable_correspondence

    ok, image = _stable_correspondence(tmin, tmax, ring, 1)
    assert ok


def test_gw_monoid_f2():
    table = grothendieck_witt_monoid(F2(), 1, "min", 4)
    rank2 = [c for c in table.classes if c["rank"] == 2]
    assert len(rank2) == 2  # hyperbolic and the Arf-1 plane
    zero = [c for c in table.classes if c["rank"] == 0][0]
    for c in table.classes:
        if (zero["index"], c["index"]) in table.sums:
            assert table.sums[(zero["index"], c["index"])] == c["index"]
    # H + H and A1 + A1 agree at rank 4
    hyp = hyperbolic(F2(), 1, 1).min_canonical()
    a1 = Mat.from_strs(F2(), [["1", "1"], ["0", "1"]])
    from hermkq.forms import shift_subgroup

    a1 = shift_subgroup(F2(), 1, 2).coset_canonical(a1)
    idx = {tuple(map(tuple, Mat.from_strs(F2(), c["representative"]).entries)): c["index"]
           for c in table.classes if c["rank"] == 2}
    h_idx = idx[tuple(map(tuple, hyp.entries))]
    a_idx = idx[tuple(map(tuple, a1.entries))]
    assert table.sums[(h_idx, h_idx)] == table.sums[(a_idx, a_idx)]
    assert table.sums[(h_idx, a_idx)] != table.sums[(h_idx, h_idx)]


def test_class_invariant_under_hyperbolic_map_transport():
    f2 = F2()
    table = witt_classify(f2, 1, "min", 2)
    from hermkq.forms import hyperbolic_map, shift_subgroup

    shifts = shift_subgroup(f2, 1, 2)
    units = [Mat.from_strs(f2, [["1"]])]
    for rep in _min_class_reps(f2, 1, 2):
        cls = table.class_of(2, rep)
        for u in units:
            g = hyperbolic_map(u)
            moved = shifts.coset_canonical(g.star() * rep * g)
            assert table.class_of(2, moved) == cls


def test_dickson_kernel_index_2_rank2():
    f2 = F2()
    q = hyperbolic(f2, 1, 1)
    group = enumerate_orthogonal_min(q)
    values = [dickson(g, q) for g in group]
    assert values.count(0) * 2 == len(group)


# -- orbit-stabilizer and the full-scan oracle for the class representatives --

def _gl_order(q, k, r):
    """|GL_r| over F_q (k = 1) or Z/p^k (q = p): q^((k-1)r^2) prod (q^r - q^i)."""
    out = q ** ((k - 1) * r * r)
    for i in range(r):
        out *= q**r - q**i
    return out


@pytest.mark.parametrize("ring,q,k,eps,variant,max_rank", [
    (F2(), 2, 1, 1, "min", 4), (F2(), 2, 1, -1, "min", 4), (Fp(3), 3, 1, 1, "min", 2),
    (Fp(3), 3, 1, -1, "min", 2), (Fp(3), 3, 1, -1, "max", 2), (F4(), 4, 1, 1, "min", 2),
    (F4(), 4, 1, 1, "max", 2), (F4(), 4, 1, -1, "min", 2), (F4(), 4, 1, -1, "max", 2),
    (Zn(4), 2, 2, 1, "min", 2), (Zn(4), 2, 2, -1, "max", 2), (Zn(9), 3, 2, 1, "min", 2),
    (Zn(9), 3, 2, 1, "max", 2),
], ids=["F2+", "F2-", "F3+", "F3-", "F3-max", "F4+", "F4+max", "F4-", "F4-max", "Z4+",
        "Z4-max", "Z9+", "Z9+max"])
def test_orbit_stabilizer(ring, q, k, eps, variant, max_rank):
    # |orbit| * |O(phi)| = |GL_r|: checks the orbit walk and its generators
    # of GL_r against the frame search, independently of both
    table = witt_classify(ring, eps, variant, max_rank)
    for r in range(1, max_rank + 1):
        for orbit in table.ranks[r]:
            if variant == "min":
                stab = len(enumerate_orthogonal_min(QuadFormEl(ring, eps, orbit[0])))
            else:
                stab = len(enumerate_unitary(HermForm(ring, eps, orbit[0])))
            assert len(orbit) * stab == _gl_order(q, k, r), (r, orbit[0])
    if ring.size == 2:
        assert sorted(len(o) for o in table.ranks[4]) == [168, 280]


def _scanned_max_reps(ring, eps, n):
    out = []
    for phi in all_matrices(ring, n, n):
        if phi.star() == phi.scale_sign(eps) and invert(phi) is not None:
            if is_even(HermForm(ring, eps, phi)) is not None:
                out.append(phi)
    return sorted(out, key=Mat.key)


@pytest.mark.parametrize("ring", [F2(), Fp(3), F4(), F4T, Zn(4)],
                         ids=["F2", "F3", "F4", "F4-trivial", "Z4"])
def test_max_class_reps_match_full_scan(ring):
    for eps in (1, -1):
        for n in (1, 2):
            assert _max_class_reps(ring, eps, n) == _scanned_max_reps(ring, eps, n)


def test_class_of_unclassified_rep_raises():
    f2 = F2()
    table = witt_classify(f2, 1, "min", 2)
    with pytest.raises(KeyError):
        table.class_of(2, Mat.zero(f2, 2))


# -- the nondegenerate classes and the generators of GL_n, against oracles --

_CLASS_RINGS = {
    "F2": F2(), "F3": Fp(3), "F4": F4(), "F4-trivial": F4T, "F5": Fp(5), "Z4": Zn(4),
    "Z6": Zn(6), "Z9": Zn(9), "Dual-F2": DualRing(F2()), "TruncPoly-F2-2": TruncPolyRing(F2(), 2),
    "ProductOp-F3": ProductOpRing(Fp(3)), "Mat2-F2": Mat2Ring(F2()),
}


@pytest.mark.parametrize("name", list(_CLASS_RINGS))
@pytest.mark.parametrize("eps", [1, -1])
def test_min_class_reps_are_the_listing_with_invertible_hermitian_part(name, eps):
    ring = _CLASS_RINGS[name]
    for n in (1, 2, 3):
        shifts = shift_subgroup(ring, eps, n)
        if len(shifts.diagonal) ** n * ring.size ** (n * (n - 1) // 2) > 2000:
            continue
        listed = [rep for rep in oracles.coset_reps_all(shifts)
                  if invert(rep + rep.star().scale_sign(eps)) is not None]
        assert _min_class_reps(ring, eps, n) == listed, n


def test_min_class_reps_invert_each_hermitian_part_once(monkeypatch):
    # F4 with the trivial involution at rank 3: 64 alternating hermitian
    # parts, none invertible at odd rank, and no representative is built
    inverted = []

    def counted_invert(m):
        inverted.append(m)
        return invert(m)

    monkeypatch.setattr(invariants, "invert", counted_invert)
    assert _min_class_reps(F4T, 1, 3) == []
    assert len(inverted) == len(set(inverted)) == 64


def test_gl_moves_counts():
    for ring, n, old, new in ((F2(), 4, 12, 4), (Fp(3), 3, 15, 4), (F4(), 3, 18, 8)):
        assert len(oracles.gl_moves_all_pairs(ring, n)) == old
        assert len(_gl_moves(ring, n)) == new


_ORBIT_CASES = {"F2-4": (F2(), 4), "F3-3": (Fp(3), 3),
                **{f"{name}-2": (ring, 2) for name, ring in _CLASS_RINGS.items()}}


@pytest.mark.parametrize("ring,n", list(_ORBIT_CASES.values()), ids=list(_ORBIT_CASES))
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("variant", ["min", "max"])
def test_orbits_match_the_all_pairs_generators(ring, n, eps, variant, monkeypatch):
    reps = (_min_class_reps if variant == "min" else _max_class_reps)(ring, eps, n)
    if not reps:
        return
    cyclic = _orbits(ring, eps, n, reps, variant)
    monkeypatch.setattr(invariants, "_gl_moves", oracles.gl_moves_all_pairs)
    assert _orbits(ring, eps, n, reps, variant) == cyclic
    assert sorted((m for orbit in cyclic for m in orbit), key=Mat.key) == reps


def test_gl_moves_generate_gl3_z4():
    # |GL_3(Z/4)| = 2^9 * |GL_3(F2)| = 512 * 168; the closure of the
    # identity under right multiplication by the moves, with no inverses
    ring, n = Zn(4), 3
    add, mul = ring.add, ring.mul
    moves = _gl_moves(ring, n)
    start = tuple(ring.one if i == j else ring.zero for i in range(n) for j in range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for i, j, c in moves:
            out = list(cur)
            for k in range(n):
                if i == j:
                    out[k * n + i] = mul(cur[k * n + i], c)
                else:
                    out[k * n + j] = add(cur[k * n + j], mul(cur[k * n + i], c))
            nxt = tuple(out)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) == 2**9 * 168


def _stable_classes_by_one_block(table):
    """The stable classes of `table`, each orbit stabilized straight to its
    top rank by one block H(k) and grouped by the orbit it lands in."""
    ring, eps, top_rank = table.ring, table.eps, table.max_rank
    groups = {}
    for r, orbits in table.ranks.items():
        k = (top_rank - r) // 2
        hyp = hyperbolic(ring, eps, k)
        block = hyp.phi0 if table.variant == "min" else hyp.associated().phi
        for i, orbit in enumerate(orbits):
            s = diag_block(ring, [orbit[0], block])
            if table.variant == "min" and s.rows > 0:
                s = shift_subgroup(ring, eps, s.rows).coset_canonical(s)
            groups.setdefault((s.rows, table.class_of(s.rows, s)), []).append([r, i])
    return sorted(groups.values())


_STABLE_CASES = {**{f"{name}-2": (ring, 2) for name, ring in _CLASS_RINGS.items()},
                 "F2-4": (F2(), 4), "F3-3": (Fp(3), 3)}


@pytest.mark.parametrize("ring,max_rank", list(_STABLE_CASES.values()), ids=list(_STABLE_CASES))
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("variant", ["min", "max"])
def test_stable_classes_match_one_hyperbolic_block(ring, max_rank, eps, variant):
    table = witt_classify(ring, eps, variant, max_rank)
    members = [c["members"] for c in table.stable_classes]
    assert members == _stable_classes_by_one_block(table)
    assert [c["class"] for c in table.stable_classes] == list(range(len(members)))


def test_gw_rank_zero_needs_no_shift_table():
    # rank 0 has no entries to canonicalize; the shift table's additive basis
    # would refuse Z/6006
    table = grothendieck_witt_monoid(Zn(6006), 1, "min", 0)
    assert len(table.classes) == 1 and table.sums == {(0, 0): 0}
