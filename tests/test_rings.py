import json
import math
import random
import time
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from hermkq.caps import CapExceeded, Unsupported, scoped_cap
from hermkq.rings import (
    DualRing,
    F2,
    F4,
    Fp,
    Fq,
    Mat2Ring,
    PolySRing,
    ProductOpRing,
    Ring,
    TruncPolyRing,
    Zn,
    _is_prime,
    _is_prime_power,
    ring_from_json,
)


def shipped_rings():
    return [
        F2(),
        F4(),
        Fq(2, 2, (1, 1, 1), "trivial"),
        Fp(3),
        Fp(7),
        Zn(4),
        Zn(8),
        Zn(9),
        DualRing(F2()),
        DualRing(F4(), "-e"),
        Mat2Ring(F2()),
        ProductOpRing(F2()),
        TruncPolyRing(F4(), 3, "-t"),
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101])
def test_fp_is_zn_under_its_own_kind(p):
    fp, zn = Fp(p), Zn(p)
    assert (fp.tables is None) == (zn.tables is None) == (p > 16)
    assert fp.is_field and zn.is_field
    assert fp.to_json() == {"kind": "Fp", "p": p} and fp != zn
    elems = zn.elements()
    assert fp.elements() == elems
    for a in elems:
        assert fp.neg(a) == zn.neg(a) and fp.conj(a) == zn.conj(a)
        assert fp.inv(a) == zn.inv(a)
        assert fp.to_str(a) == zn.to_str(a) and fp.from_str(str(a)) == a
    for a, b in product(elems, repeat=2):
        assert fp.add(a, b) == zn.add(a, b) and fp.mul(a, b) == zn.mul(a, b)


def test_composite_fields_are_refused():
    for p in (0, 1, 4, 9):
        with pytest.raises(ValueError, match="not prime"):
            Fp(p)
    with pytest.raises(ValueError, match="not prime"):
        Fq(4, 2, (1, 1, 1))
    assert not Zn(4).is_field


def test_conj_examples():
    assert Zn(4).conj(3) == 3
    f4 = F4()
    assert f4.to_str(f4.conj(f4.from_str("w"))) == "w+1"
    m = Mat2Ring(F2())
    x = m.from_str('[["a","b"],["c","d"]]'.replace("a", "0").replace("b", "1").replace("c", "1").replace("d", "0"))
    assert m.to_str(m.conj(x)) == '[["0","1"],["1","0"]]'
    y = m.from_str('[["1","1"],["0","0"]]')
    # [[a,b],[c,d]] -> [[d,b],[c,a]] over a trivial-involution base
    assert m.to_str(m.conj(y)) == '[["0","1"],["0","1"]]'


def test_verify_involution_shipped_rings():
    for ring in shipped_rings():
        report = ring.verify_involution()
        assert report.passed, (ring.kind, report.violations[:3])


def test_verify_involution_polys_sample():
    ps = PolySRing(F2(), degree_bound=2)
    assert ps.verify_involution(sample=ps.sample_elements()).passed


def test_reducible_modulus_rejected_and_negative_control(monkeypatch):
    with pytest.raises(ValueError):
        Fq(2, 2, (1, 0, 1))  # w^2 + 1 = (w+1)^2
    # bypass the eager validation: the involution checker must then object
    import hermkq.rings as rings_mod

    monkeypatch.setattr(rings_mod, "_is_irreducible", lambda m, p: True)
    broken = Fq(2, 2, (1, 0, 1), "frobenius")
    assert not broken.verify_involution().passed


def test_a_broken_involution_is_reported_axiom_by_axiom():
    # Fp(17) is not coded, so conj and split_unit set on the instance are
    # what verify_involution reads: conj(a) = 2a is additive and breaks the
    # other axioms, and 3 + conj(3) = 9
    ring = Fp(17)
    assert ring.tables is None
    ring.conj = lambda a: 2 * a % 17
    ring.split_unit = 3
    report = ring.verify_involution()
    assert not report.passed and report.checked_pairs == 289
    counts, first = {}, {}
    for v in report.violations:
        counts[v["axiom"]] = counts.get(v["axiom"], 0) + 1
        first.setdefault(v["axiom"], v)
    assert counts == {"conj(1)=1": 1, "conj(conj(a))=a": 16,
                      "conj(a*b)=conj(b)*conj(a)": 256, "lambda+conj(lambda)=1": 1}
    assert first["conj(1)=1"]["element"] == "1"
    assert first["conj(conj(a))=a"]["element"] == "1"
    assert first["conj(a*b)=conj(b)*conj(a)"]["elements"] == ["1", "1"]
    assert first["lambda+conj(lambda)=1"]["element"] == "3"


def test_an_uncoded_fq_lists_and_parses_its_elements():
    # 512 elements, past the coding limit: the definitions answer directly
    ring = Fq(2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    assert ring.tables is None
    elems = ring.elements()
    assert len(elems) == len(set(elems)) == 512
    assert all(isinstance(a, int) for a in elems)
    assert ring.contains(511) and not ring.contains(512) and not ring.contains("3")
    assert ring.to_str(3) == "w+1"
    assert all(ring.from_str(ring.to_str(a)) == a for a in elems[::37])


def test_an_uncoded_fq_inverts_by_its_power_loop():
    # past the coding limit inv is a^(q-2), by the definition's product
    ring = Fq(2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    assert ring.tables is None
    assert ring.inv(0) is None
    assert all(ring.mul(a, ring.inv(a)) == 1 for a in range(1, 512))


def test_an_uncoded_frobenius_is_an_involutive_automorphism():
    # conj(a) = a^32 over the 1024-element field, by the same power loop
    ring = Fq(2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), "frobenius")
    assert ring.tables is None
    rng = random.Random(10)
    pairs = [(rng.randrange(1024), rng.randrange(1024)) for _ in range(200)]
    assert any(ring.conj(a) != a for a, _ in pairs)
    for a, b in pairs:
        assert ring.conj(ring.conj(a)) == a
        assert ring.conj(ring.mul(a, b)) == ring.mul(ring.conj(a), ring.conj(b))


def test_frobenius_needs_even_degree():
    with pytest.raises(ValueError):
        Fq(2, 3, (1, 1, 0, 1), "frobenius")


def test_split_units():
    assert F2().find_split_unit() is None
    f4 = F4()
    assert f4.to_str(f4.find_split_unit()) == "w"
    assert Fp(3).find_split_unit() == 2
    assert Zn(9).find_split_unit() == 5
    po = ProductOpRing(F2())
    assert po.split_unit == po.encode((1, 0))
    lam = f4.find_split_unit()
    assert f4.add(lam, f4.conj(lam)) == f4.one


def _no_listing(monkeypatch):
    def refuse(self):
        raise AssertionError(f"listed the elements of {self.key()}")

    monkeypatch.setattr(Ring, "elements", refuse)


@pytest.mark.parametrize("ring, half", [
    (Fp(1_000_000_007), "500000004"),
    (Zn(9), "5"),
    (Fp(3), "2"),
    (Fq(3, 2, (1, 0, 1), "trivial"), "2"),
    (Zn(8), None),
    (Fq(2, 2, (1, 1, 1), "trivial"), None),
])
def test_split_unit_of_a_trivial_involution_is_one_half_without_a_scan(monkeypatch, ring, half):
    # lambda + lambda = 1 has the one solution 1/2, and none when 2 is not a unit
    _no_listing(monkeypatch)
    lam = ring.find_split_unit()
    assert (None if lam is None else ring.to_str(lam)) == half


def test_split_unit_scan_is_under_the_cap():
    f4 = F4()  # the Frobenius involution is not trivial: the ring is scanned
    with scoped_cap(3), pytest.raises(CapExceeded) as exc:
        f4.find_split_unit()
    assert str(exc.value) == "split unit scan: search space 4 exceeds cap 3"
    assert f4.to_str(f4.find_split_unit()) == "w"


def test_is_prime_matches_sympy_below_two_hundred_thousand():
    import sympy

    assert [n for n in range(200_000) if _is_prime(n) != sympy.isprime(n)] == []


def test_is_prime_power_matches_sympy():
    import sympy

    small = [n for n in range(2, 20_000)
             if _is_prime_power(n) != (len(sympy.factorint(n)) == 1)]
    assert small == []
    # no prime factor below 43, so the roots are tried: 43^3, 10007^2 and
    # 1 000 003^3 are prime powers, 43 * 47, 43^2 * 47 and 10007 * 10009 not
    for n in (43**3, 10007**2, 1_000_003**3, 2**61 - 1):
        assert _is_prime_power(n)
    for n in (43 * 47, 43**2 * 47, 10007 * 10009, 10**30):
        assert not _is_prime_power(n)


@pytest.mark.parametrize("ring, local", [
    (Fp(2), True), (Fp(17), True), (Fp(10**9 + 7), True), (F4(), True),
    (Fq(3, 2, (2, 2, 1), "frobenius"), True),
    (Zn(4), True), (Zn(8), True), (Zn(9), True), (Zn(25), True), (Zn(3**40), True),
    (Zn(43**3), True), (Zn(6), False), (Zn(12), False), (Zn(6006), False),
    (Zn(10**30), False), (Zn(43 * 47), False),
    (DualRing(F2()), True), (DualRing(Zn(4), "+e"), True), (DualRing(Fp(5)), True),
    (DualRing(Zn(6)), False),
    (TruncPolyRing(Fp(3), 2), True), (TruncPolyRing(F4(), 3, "-t"), True),
    (TruncPolyRing(Zn(6), 2), False),
    (Mat2Ring(F2()), False), (ProductOpRing(F2()), False), (ProductOpRing(Fp(3)), False),
    (PolySRing(F2()), False), (PolySRing(Fp(3)), False),
], ids=lambda x: x.key() if isinstance(x, Ring) else str(x))
def test_is_local_per_kind(ring, local):
    assert ring.is_local is local
    # a local ring is commutative, and a field is local
    assert not ring.is_local or ring.is_commutative
    assert ring.is_local or not ring.is_field


@pytest.mark.parametrize("n", [3_215_031_751, 3_825_123_056_546_413_051,
                               318_665_857_834_031_151_167_461])
def test_strong_pseudoprimes_are_composite(n):
    # each is a strong probable prime to several of the first prime bases
    assert not _is_prime(n)


@pytest.mark.parametrize("p", [10**9 + 7, 10**18 + 3])
def test_a_large_prime_field_builds_at_once(p):
    start = time.perf_counter()
    ring = Fp(p)
    assert time.perf_counter() - start < 0.1
    assert ring.is_field and ring.size == p


def test_large_moduli():
    assert not Zn(10**30).is_field
    # past the bound the strong probable-prime test proves nothing: an n with
    # no factor among the first 13 primes is refused, composite as 43^16 is
    with pytest.raises(Unsupported):
        Fp(43**16)


def test_split_unit_validation():
    with pytest.raises(ValueError):
        F2().set_split_unit(1)


def test_enumerate():
    assert list(F2().elements()) == [0, 1]
    d = DualRing(F2())
    assert [d.to_str(x) for x in d.elements()] == ["0", "1", "e", "1+e"]
    assert len(Mat2Ring(F2()).elements()) == 16
    assert len(ProductOpRing(F2()).elements()) == 4
    assert len(DualRing(F4()).elements()) == 16**2 // 16  # |A|^2 = 256 / sanity below
    assert len(DualRing(F4()).elements()) == 4**2


def test_enumerate_lengths_composites():
    base = F4()
    assert len(DualRing(base).elements()) == base.size**2
    assert len(Mat2Ring(F2()).elements()) == 2**4
    assert len(ProductOpRing(base).elements()) == base.size**2
    assert len(TruncPolyRing(F2(), 3).elements()) == 2**3


def test_polys_requires_bound():
    with pytest.raises(Unsupported):
        PolySRing(F2()).elements()


def test_polys_conj_is_one_minus_s():
    ps = PolySRing(F2())
    s = ps.from_coeffs((0, 1))
    assert ps.to_coeffs(ps.conj(s)) == (1, 1)  # 1 - s = 1 + s over F2
    assert ps.conj(ps.conj(s)) == s
    z5 = PolySRing(Fp(5))
    s5 = z5.from_coeffs((0, 1))
    assert z5.to_coeffs(z5.conj(s5)) == (1, 4)
    assert z5.conj(z5.mul(s5, s5)) == z5.mul(z5.conj(s5), z5.conj(s5))


def test_sub_is_the_sum_with_the_negative_in_every_kind():
    # coded rings in odd characteristic, where -b differs from b
    coded = [DualRing(Fp(3), "+e"), TruncPolyRing(Fp(3), 2, "-t"), Fq(3, 2, (1, 0, 1)),
             ProductOpRing(Zn(4))]
    uncoded = [Zn(18), Fp(17), DualRing(Zn(5)), Mat2Ring(Fp(3))]
    assert all(ring.tables is not None for ring in coded)
    assert all(ring.tables is None for ring in uncoded)
    for ring in shipped_rings() + coded + uncoded:
        elems = ring.elements()[:30]
        for a in elems:
            for b in elems:
                assert ring.sub(a, b) == ring.add(a, ring.neg(b)), (ring.kind, a, b)
    for base in (F2(), Zn(4), F4()):
        ps = PolySRing(base, degree_bound=2)
        for a in ps.sample_elements()[:20]:
            for b in ps.sample_elements()[-20:]:
                assert ps.sub(a, b) == ps.add(a, ps.neg(b))


def test_truncpoly_conj_sign():
    tp = TruncPolyRing(Fp(5), 3, "-t")
    t = tp.from_str('["0","1","0"]')
    assert tp.decode(tp.conj(t)) == (0, 4, 0)
    assert tp.conj(tp.conj(t)) == t


def test_string_roundtrip_everywhere():
    for ring in shipped_rings():
        for a in ring.elements()[:50]:
            assert ring.from_str(ring.to_str(a)) == a, (ring.kind, a)


def test_json_roundtrip():
    for ring in shipped_rings():
        clone = ring_from_json(ring.to_json())
        assert clone == ring
    spec = '{"kind":"Fq","p":2,"deg":2,"modulus":[1,1,1],"involution":"frobenius"}'
    assert ring_from_json(spec).to_json()["involution"] == "frobenius"


def test_json_split_unit_field():
    doc = {"kind": "Fq", "p": 2, "deg": 2, "modulus": [1, 1, 1],
           "involution": "frobenius", "split_unit": "w"}
    ring = ring_from_json(doc)
    assert ring.split_unit == ring.from_str("w")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ring_from_json({"kind": "Banach"})


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_involution_axioms_random_pairs(data):
    ring = data.draw(st.sampled_from(shipped_rings()))
    elems = ring.elements()
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    assert ring.conj(ring.conj(a)) == a
    assert ring.conj(ring.add(a, b)) == ring.add(ring.conj(a), ring.conj(b))
    assert ring.conj(ring.mul(a, b)) == ring.mul(ring.conj(b), ring.conj(a))
    assert ring.conj(ring.one) == ring.one


def test_productop_is_anti_multiplicative():
    po = ProductOpRing(Mat2Ring(F2()))  # noncommutative base
    elems = po.elements()
    for a in elems[:6]:
        for b in elems[:6]:
            assert po.conj(po.mul(a, b)) == po.mul(po.conj(b), po.conj(a))


def test_dual_e_square_zero():
    d = DualRing(F4())
    e = d.pair(d.base.zero, d.base.one)
    assert d.mul(e, e) == d.zero
    # conj(e) = -e collapses to e in characteristic 2 but the flag stays
    assert d.conj(e) == d.pair(d.base.zero, d.base.neg(d.base.one))
    d5 = DualRing(Fp(5), "-e")
    e5 = d5.pair(0, 1)
    assert d5.conj(e5) == d5.pair(0, 4)


def test_key_is_stable_and_shared_by_equal_rings():
    for ring in shipped_rings():
        key, h = ring.key(), hash(ring)
        lam = ring.find_split_unit()
        if lam is not None:
            ring.set_split_unit(lam)
        assert ring.key() == key and hash(ring) == h
        twin = ring_from_json(ring.to_json())
        assert twin is not ring
        assert twin == ring and ring == twin and hash(twin) == h
    # a ring whose split unit is set before its key is first read
    f4 = F4()
    f4.set_split_unit(f4.from_str("w+1"))
    assert f4 == F4() and hash(f4) == hash(F4())
    assert F4() != F4("trivial") and Zn(4) != Fp(2)


def test_polys_sample_leaves_the_ring_unchanged():
    ps = PolySRing(F2())
    key = ps.key()
    assert len(ps.sample_elements()) == 8  # degree <= 2 over F2
    assert ps.degree_bound is None and ps.key() == key
    with pytest.raises(Unsupported):
        ps.elements()


CODED_RINGS = {
    "Dual-F2": lambda: DualRing(F2()),
    "Dual-Z4": lambda: DualRing(Zn(4)),
    "Dual-F4-e": lambda: DualRing(F4(), "-e"),
    "Mat2-F2": lambda: Mat2Ring(F2()),
    "ProductOp-F2": lambda: ProductOpRing(F2()),
    "ProductOp-ProductOp-F2": lambda: ProductOpRing(ProductOpRing(F2())),
    "TruncPoly-F2-3": lambda: TruncPolyRing(F2(), 3),
    "TruncPoly-F3-2-t": lambda: TruncPolyRing(Fp(3), 2, "-t"),
}


@pytest.mark.parametrize("name", list(CODED_RINGS))
def test_coded_ring_tables_match_the_tuple_formulas(name):
    ring = CODED_RINGS[name]()
    assert ring.tables is not None
    elems = ring.elements()
    tuples = ring._tuples()
    assert elems == list(range(ring.size)) and ring.zero == 0
    assert [ring.decode(a) for a in elems] == tuples
    assert [ring.to_str(a) for a in elems] == [ring._to_str(t) for t in tuples]
    assert ring.decode(ring.one) == ring._one()
    for a in elems:
        x = tuples[a]
        assert ring.from_str(ring.to_str(a)) == a
        assert tuples[ring.neg(a)] == ring._neg(x)
        assert tuples[ring.conj(a)] == ring._conj(x)
        for b in elems:
            y = tuples[b]
            assert tuples[ring.add(a, b)] == ring._add(x, y)
            assert tuples[ring.mul(a, b)] == ring._mul(x, y)
    assert ring.verify_involution().passed


@pytest.mark.parametrize("ring", [F4(), Fq(2, 3, (1, 1, 0, 1)), Fq(3, 2, (2, 2, 1), "frobenius"),
                                  Fq(2, 4, (1, 1, 0, 0, 1), "frobenius")],
                         ids=["F4", "F8", "F9-frobenius", "F16-frobenius"])
def test_fq_tables_match_the_digit_formulas(ring):
    elems = ring.elements()
    assert elems == list(range(ring.size))
    for a in elems:
        assert ring.neg(a) == ring._neg(a) and ring.conj(a) == ring._conj(a)
        for b in elems:
            assert ring.add(a, b) == ring._add(a, b)
            assert ring.mul(a, b) == ring._mul(a, b)


def test_coded_ring_contains_codes_only():
    d = DualRing(Zn(4))
    assert all(d.contains(a) for a in range(16))
    assert not d.contains(16) and not d.contains(-1) and not d.contains((0, 1))
    assert d.pair(0, 1) == d.from_str("e") and d.decode(d.pair(3, 2)) == (3, 2)


def test_rings_above_the_limit_keep_tuples():
    for ring in (DualRing(Zn(32)), Mat2Ring(Fp(5)), DualRing(Fp(257)), DualRing(Zn(5))):
        assert ring.tables is None
        e = ring.from_str("e") if ring.kind == "Dual" else ring.one
        assert isinstance(e, tuple) and ring.contains(e)
        assert ring.from_str(ring.to_str(e)) == e
    d = DualRing(Zn(32))
    e = d.pair(0, 1)
    assert d.mul(e, e) == d.zero and d.conj(e) == d.pair(0, 31)


def test_uncoded_ring_over_a_coded_base():
    # 256 elements: pairs of codes of the coded Mat2(F2)
    ring = ProductOpRing(Mat2Ring(F2()))
    assert ring.tables is None and ring.base.tables is not None
    elems = ring.elements()
    assert elems == ring._tuples() and len(set(elems)) == 256
    assert all(ring.from_str(ring.to_str(x)) == x for x in elems)
    assert ring.verify_involution(elems[::17]).passed


def test_plain_specs_give_one_ring_and_split_units_stay_apart():
    doc = {"kind": "Dual", "base": {"kind": "Fp", "p": 5}, "conj_e": "+e"}
    plain = ring_from_json(doc)
    assert ring_from_json(json.dumps(doc)) is plain
    assert ring_from_json({"kind": "Fp", "p": 5}) is plain.base
    split = ring_from_json({**doc, "split_unit": "3"})
    assert split is not plain and split.split_unit == split.from_str("3")
    assert plain.split_unit is None
    # a split unit the ring finds is not a set one
    assert plain.find_split_unit() == plain.from_str("3") and plain.split_unit is None
    # a spec whose base sets a split unit gives a new ring over a new base
    nested = ring_from_json({**doc, "base": {"kind": "Fp", "p": 5, "split_unit": "3"}})
    assert nested is not plain and nested.base is not plain.base
    assert ring_from_json(doc) is plain and plain.base.split_unit is None


def test_specs_that_differ_in_key_order_or_a_default_give_one_ring(monkeypatch):
    import hermkq.rings

    f2 = {"kind": "Fp", "p": 2}
    variants = {
        "Fp": [{"p": 7, "kind": "Fp"}, {"kind": "Fp", "p": 7}],
        "Fq": [{"kind": "Fq", "p": 2, "deg": 2, "modulus": [1, 1, 1]},
               {"modulus": [1, 1, 1], "involution": "trivial", "deg": 2, "p": 2, "kind": "Fq"}],
        "Dual": [{"kind": "Dual", "base": f2}, {"conj_e": "-e", "base": {"p": 2, "kind": "Fp"},
                                                "kind": "Dual"}],
        "TruncPoly": [{"kind": "TruncPoly", "base": f2, "k": 2},
                      {"kind": "TruncPoly", "base": f2, "k": 2, "conj_t": "+t"}],
        "PolyS": [{"kind": "PolyS", "base": f2}, {"kind": "PolyS", "base": f2, "degree_bound": None},
                  '{"base": {"kind": "Fp", "p": 2}, "kind": "PolyS"}'],
    }
    for kind, specs in variants.items():
        ring = ring_from_json(specs[0])
        assert all(ring_from_json(spec) is ring for spec in specs), kind
    # a spec met before is looked up, not built
    built = []
    build = hermkq.rings._ring_from_spec
    monkeypatch.setattr(hermkq.rings, "_ring_from_spec", lambda doc: built.append(doc) or build(doc))
    for specs in variants.values():
        for spec in specs:
            ring_from_json(spec)
    assert built == []
    # a split unit still gives a new ring per call, built each time
    split = {"kind": "Fp", "p": 7, "split_unit": "4"}
    assert ring_from_json(split) is not ring_from_json(split)
    assert len(built) == 2


CODED = [
    ring
    for ring in shipped_rings() + [make() for make in CODED_RINGS.values()] + [
        Zn(16),
        Fq(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),  # 256 elements, the largest coded Fq
    ]
    if ring.tables is not None
]


@pytest.mark.parametrize("ring", CODED, ids=[f"{i}-{r.kind}{r.size}" for i, r in enumerate(CODED)])
def test_inverse_table_is_the_scan(ring):
    # the scan definition: the first b with ab = ba = 1, else None
    one, mul = ring.one, ring.mul
    scan = [next((b for b in ring.elements() if mul(a, b) == one and mul(b, a) == one), None)
            for a in ring.elements()]
    assert ring.tables.inv == scan
    assert [ring.inv(a) for a in ring.elements()] == scan
    assert ring.inv(ring.zero) is None and ring.inv(ring.one) == ring.one


@pytest.mark.parametrize("ring", CODED, ids=[f"{i}-{r.kind}{r.size}" for i, r in enumerate(CODED)])
def test_every_code_parses_back_from_its_string(ring):
    assert all(ring.from_str(ring.to_str(a)) == a for a in ring.elements())
    for bad in (["1"], 1, None):
        with pytest.raises(ValueError):
            ring.from_str(bad)


# strings that are not canonical, each with the canonical string of what
# `from_str` gives for it (as its definition does)
NONCANONICAL = [
    (Fp(2), [("3", "1"), ("-1", "1"), (" 1", "1"), ("02", "0")]),
    (Zn(4), [("5", "1"), ("-1", "3")]),
    (F4(), [(" w ", "w"), ("1+w", "w+1"), ("w+w", "0"), ("2*w", "0"), ("1*w^1", "w")]),
    (DualRing(F2()), [("0+e", "e"), ("1+1*e", "1+e"), ("(1)", "1"), ("3", "1")]),
    (Mat2Ring(F2()), [('[["1", "0"], ["0", "1"]]', '[["1","0"],["0","1"]]'),
                      ('[["3","0"],["0","1"]]', '[["1","0"],["0","1"]]')]),
    (ProductOpRing(F2()), [(" (1|0) ", "(1|0)"), ("(3|2)", "(1|0)")]),
    (TruncPolyRing(F2(), 3), [('["1"]', '["1","0","0"]'), ("[]", '["0","0","0"]')]),
]


@pytest.mark.parametrize("ring, pairs", NONCANONICAL, ids=[r.kind for r, _ in NONCANONICAL])
def test_noncanonical_strings_parse_by_the_definition(ring, pairs):
    for s, canonical in pairs:
        assert s not in ring.tables.parse
        assert ring.to_str(ring.from_str(s)) == canonical, s
    for s in ("", "x", "[[", "w^9"):
        with pytest.raises(ValueError):
            ring.from_str(s)


def test_tables_are_shared_by_key_but_split_units_are_not():
    doc = {"kind": "Dual", "base": {"kind": "Fp", "p": 3}, "conj_e": "+e"}
    plain = ring_from_json(doc)
    split = ring_from_json({**doc, "split_unit": "2"})
    assert plain is not split and plain.tables is split.tables
    assert split.split_unit == split.from_str("2") and plain.split_unit is None


POLYS_BASES = [F2(), Fp(3), Zn(4), Zn(9), F4(), DualRing(F2())]


def _trimmed(coeffs, base):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == base.zero:
        coeffs.pop()
    return tuple(coeffs)


F2S_COEFFS = st.lists(st.integers(0, 1), max_size=24).map(oracles.f2s_trim)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(F2S_COEFFS, F2S_COEFFS)
# degrees 8, 16 and 23: the Taylor shift of a polynomial past one byte
@example((0,) * 8 + (1,), (1,) * 17)
@example((1,) * 17, (0,) * 16 + (1,))
@example((1, 0, 1) * 7 + (1, 1, 1), (1,) * 24)
def test_f2s_bitmasks_match_the_schoolbook_oracle(ta, tb):
    ring = PolySRing(F2())
    a, b = ring.from_coeffs(ta), ring.from_coeffs(tb)
    assert type(a) is int and ring.to_coeffs(a) == ta and ring.coeff_count(a) == len(ta)
    assert ring.to_coeffs(ring.add(a, b)) == oracles.f2s_add(ta, tb)
    assert ring.to_coeffs(ring.sub(a, b)) == oracles.f2s_sub(ta, tb)
    assert ring.to_coeffs(ring.neg(a)) == oracles.f2s_sub((), ta)
    assert ring.to_coeffs(ring.mul(a, b)) == oracles.f2s_mul(ta, tb)
    assert ring.to_coeffs(ring.conj(a)) == oracles.f2s_conj(ta)
    assert ring.conj(ring.conj(a)) == a
    assert ring.to_str(a) == oracles.f2s_to_str(ta) and ring.from_str(ring.to_str(a)) == a


@pytest.mark.parametrize("base", [F2(), Zn(2)], ids=["Fp2", "Zn2"])
def test_f2s_is_bitmasks_however_the_ring_is_made(base):
    spec = {"kind": "PolyS", "base": base.to_json()}
    for ring in (PolySRing(base), base.poly_s(), ring_from_json(spec),
                 ring_from_json({**spec, "degree_bound": 2})):
        assert ring.kind == "PolyS" and ring.to_json()["base"] == base.to_json()
        assert (ring.zero, ring.one) == (0, 1)
    # the sample keeps its order: by length, then by coefficient tuple
    sample = PolySRing(base, degree_bound=2).sample_elements()
    assert [PolySRing(base).to_coeffs(a) for a in sample] == [
        (), (1,), (0, 1), (1, 1), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert PolySRing(Zn(4)).zero == () and PolySRing(F4()).one == (F4().one,)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_polys_add_and_conj_match_their_definitions(data):
    base = data.draw(st.sampled_from(POLYS_BASES))
    ring = base.poly_s()
    poly = st.lists(st.sampled_from(base.elements()), max_size=6).map(
        lambda c: _trimmed(c, base))
    ta, tb = data.draw(poly), data.draw(poly)  # coefficient tuples
    a, b = ring.from_coeffs(ta), ring.from_coeffs(tb)
    zero = base.zero

    def padded(p, n):
        return list(p) + [zero] * (n - len(p))

    n = max(len(ta), len(tb))
    total = ring.add(a, b)
    assert ring.to_coeffs(total) == _trimmed(map(base.add, padded(ta, n), padded(tb, n)), base)

    # conj(sum c_i s^i) = sum conj(c_i) (1 - s)^i, written out binomially
    expanded = [zero] * len(ta)
    for i, c in enumerate(ta):
        for k in range(i + 1):
            term = base.mul(base.conj(c), base.int_embed(math.comb(i, k) * (-1) ** k))
            expanded[k] = base.add(expanded[k], term)
    ca, cb = ring.conj(a), ring.conj(b)
    assert ring.to_coeffs(ca) == _trimmed(expanded, base)
    assert ring.conj(ca) == a
    product_ = ring.mul(a, b)
    assert ring.conj(product_) == ring.mul(ca, cb)  # every base here is commutative
    for out in (total, ca, cb, product_):
        # an element of the ring's one representation; contains: trimmed
        assert isinstance(out, type(ring.zero)) and ring.contains(out)


# the finite ring kinds, coded and uncoded, over which the coordinates are
# checked against the greedy scan's
COORD_RINGS = {
    "Z12": lambda: Zn(12),
    "F7": lambda: Fp(7),
    "F4": lambda: F4(),
    "F4-trivial": lambda: F4("trivial"),
    "F8": lambda: Fq(2, 3, (1, 1, 0, 1)),
    "F9": lambda: Fq(3, 2, (1, 0, 1)),
    "Fq-2-9": lambda: Fq(2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)),
    "Dual-Z4": lambda: DualRing(Zn(4)),
    "Dual-Z6": lambda: DualRing(Zn(6)),
    "Dual-F4": lambda: DualRing(F4()),
    "Dual-F5": lambda: DualRing(Fp(5)),
    "Dual-Dual-Z2": lambda: DualRing(DualRing(Zn(2))),
    "Mat2-F2": lambda: Mat2Ring(F2()),
    "Mat2-F3": lambda: Mat2Ring(Fp(3)),
    "Mat2-Z4": lambda: Mat2Ring(Zn(4)),
    "ProductOp-F3": lambda: ProductOpRing(Fp(3)),
    "ProductOp-F4": lambda: ProductOpRing(F4()),
    "TruncPoly-F3-3": lambda: TruncPolyRing(Fp(3), 3),
    "TruncPoly-Z4-2-t": lambda: TruncPolyRing(Zn(4), 2, "-t"),
    "TruncPoly-F4-2": lambda: TruncPolyRing(F4(), 2),
}


@pytest.mark.parametrize("name", list(COORD_RINGS))
def test_coords_match_the_greedy_scan(name):
    ring = COORD_RINGS[name]()
    greedy = oracles.greedy_additive_coords(ring)
    assert ring.char ** ring.dim == ring.size
    for a in ring.elements():
        assert ring.coords(a) == greedy[a]
    # the elements are listed in the order of their coordinates read from the last
    keys = [ring.coords(a)[::-1] for a in ring.elements()]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", list(COORD_RINGS))
def test_coords_invert_and_add(name):
    ring = COORD_RINGS[name]()
    char = ring.char
    for a in ring.elements():
        assert ring.from_coords(ring.coords(a)) == a
    rng = random.Random(name)
    elems = ring.elements()
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        total = [(x + y) % char for x, y in zip(ring.coords(a), ring.coords(b))]
        assert list(ring.coords(ring.add(a, b))) == total
