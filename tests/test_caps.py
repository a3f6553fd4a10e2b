"""The search cap is set by `scoped_cap` (else HERMKQ_CAP, else the default)
and bounds every search that used to take a cap argument."""

import pytest

from hermkq.additive import MatSubgroup, solve_affine
from hermkq.caps import CapExceeded, global_cap, scoped_cap
from hermkq.forms import hyperbolic
from hermkq.groups import (
    dual_numbers_iso,
    el_elements,
    enumerate_group,
    extension_check,
    section_homomorphism_report,
)
from hermkq.invariants import grothendieck_witt_monoid, witt_classify, xi_char2_field, xi_group
from hermkq.linalg import Mat, all_matrices
from hermkq.rings import F2, F4, DualRing, Fp, Fq, Zn, ring_from_json
from oracles import is_invertible_by_enumeration

_F2 = F2()
_HYP_F2 = hyperbolic(_F2, 1, 1)
_HYP_F4 = hyperbolic(F4(), 1, 1)
_ZERO_2x2 = Mat.zero(_F2, 2, 2)
_Z4 = Zn(4)
_Z4_UNITS = [Mat(_Z4, [[1, 0]]), Mat(_Z4, [[0, 1]])]
_EL_F2 = enumerate_group("el", _HYP_F2)
_F16 = ring_from_json({"kind": "Fq", "p": 2, "deg": 4, "modulus": [1, 1, 0, 0, 1],
                       "involution": "trivial"})
_F256 = ring_from_json({"kind": "Fq", "p": 2, "deg": 8, "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1],
                        "involution": "trivial"})
_F1031_2 = Fq(1031, 2, (1, 0, 1), "frobenius")  # x^2 + 1 is irreducible as 1031 = 3 mod 4
_DUAL_F1031 = DualRing(Fp(1031))

# name -> (cap, call, message); each message is the first check_cap the call
# reaches, one step past the cap
_CASES = {
    "group-max": (3, lambda: enumerate_group("max", _HYP_F2),
                  "matrix enumeration: search space 4 exceeds cap 3"),
    "group-min": (3, lambda: enumerate_group("min", _HYP_F2),
                  "matrix enumeration: search space 4 exceeds cap 3"),
    "group-el": (3, lambda: enumerate_group("el", _HYP_F2),
                 "matrix enumeration: search space 4 exceeds cap 3"),
    "extension": (3, lambda: extension_check(_HYP_F2),
                  "matrix enumeration: search space 4 exceeds cap 3"),
    # the enlarged group lists S(E), 8 matrices, for the fibres of its preview
    "el-kernel-listing": (7, lambda: _EL_F2.head(16),
                          "subgroup enumeration: search space 8 exceeds cap 7"),
    "section": (15, lambda: section_homomorphism_report(_HYP_F4),
                "matrix enumeration: search space 16 exceeds cap 15"),
    "dual-numbers": (15, lambda: dual_numbers_iso(_HYP_F4),
                     "matrix enumeration: search space 16 exceeds cap 15"),
    # |O^min| = 2 times |S(E)| = 8 pairs, counted before S(E) is listed
    "el-pairs": (15, lambda: el_elements(_HYP_F2),
                 "el pair enumeration: search space 16 exceeds cap 15"),
    "witt-min": (1, lambda: witt_classify(_F2, 1, "min", 2),
                 "coset representative enumeration: search space 2 exceeds cap 1"),
    "gw-max": (1, lambda: grothendieck_witt_monoid(_F2, 1, "max", 2),
               "matrix enumeration: search space 2 exceeds cap 1"),
    # (3 + |A|)b^2 + bk relation rows of b^2 cells, b generators of Gamma/Lambda
    # of order k: over F2, 7 rows of one cell
    "xi": (6, lambda: xi_group(_F2, 1), "xi relations: search space 7 exceeds cap 6"),
    # over F256, 18 624 rows of 64 cells: refused at once at the default cap
    "xi-f256": (2**20, lambda: xi_group(_F256, 1),
                "xi relations: search space 1191936 exceeds cap 1048576"),
    "xi-char2": (3, lambda: xi_char2_field(_F2), "xi generators: search space 4 exceeds cap 3"),
    # 3k^3 + 2k^2 relation rows of k^2 cells, k = |A|, counted before any row
    "xi-char2-relations": (127, lambda: xi_char2_field(_F2),
                           "xi relations: search space 128 exceeds cap 127"),
    # over F16 the relation matrix has 12 800 x 256 cells: refused at once
    "xi-char2-f16": (2**20, lambda: xi_char2_field(_F16),
                     "xi relations: search space 3276800 exceeds cap 1048576"),
    # a ring of 1031^2 elements with a nontrivial involution: refused at once
    "split-unit-f1031-2": (2**20, lambda: _F1031_2.find_split_unit(),
                           "split unit scan: search space 1062961 exceeds cap 1048576"),
    "split-unit-dual-f1031": (2**20, lambda: _DUAL_F1031.find_split_unit(),
                              "split unit scan: search space 1062961 exceeds cap 1048576"),
    "all-matrices": (15, lambda: list(all_matrices(_F2, 2, 2)),
                     "matrix enumeration: search space 16 exceeds cap 15"),
    "bijectivity": (7, lambda: is_invertible_by_enumeration(Mat.identity(_F2, 3)),
                    "bijectivity enumeration: search space 8 exceeds cap 7"),
    "solve-affine": (15, lambda: solve_affine(_F2, (2, 2), lambda x: _ZERO_2x2, _ZERO_2x2),
                     "solution enumeration: search space 16 exceeds cap 15"),
    # the echelon lists its members under the cap in every characteristic
    "subgroup-composite": (15, lambda: MatSubgroup(_Z4, 1, 2, _Z4_UNITS).elements(),
                           "subgroup enumeration: search space 16 exceeds cap 15"),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_scoped_cap_bounds_every_search(name):
    cap, call, message = _CASES[name]
    before = global_cap()
    with scoped_cap(cap), pytest.raises(CapExceeded) as exc:
        call()
    assert str(exc.value) == message
    assert global_cap() == before
