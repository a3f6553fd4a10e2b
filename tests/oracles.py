"""Independent oracles that only the tests use: each answers a question the
library answers too, by a different and simpler method."""

from itertools import product, zip_longest

from hermkq.additive import additive_basis, solve_affine
from hermkq.caps import Unsupported, check_cap
from hermkq.clauwens import MatPoly
from hermkq.forms import QuadFormEl, selfadjoint_subgroup
from hermkq.groups import (
    ElMorphism,
    check_max,
    compose_el,
    el_identity,
    el_inverse,
    enumerate_orthogonal_min,
    satisfies_S,
    verify_group_axioms,
)
from hermkq.invariants import AbelianGroupPresentation, gamma_lambda
from hermkq.linalg import Mat, all_matrices, invert, kron


def _shift_map(eps):
    """L(g) = g - eps*g^*, whose solutions of L(gamma) = d are the witnesses."""
    return lambda g: g - g.star().scale_sign(eps)


def substitute_by_kron(p: Mat, phi: Mat, left: Mat) -> Mat:
    """sum_k p_k (x) left*phi^k for p = sum_k p_k s^k over A[s], one
    Kronecker product per nonzero coefficient matrix and the powers formed
    afresh: the definition of the substitution s -> phi."""
    out = Mat.zero(p.ring.base, p.rows * left.rows, p.cols * left.cols)
    power = left
    coeffs = MatPoly._trusted(p.ring, p.entries, p.rows, p.cols).coeffs
    for k, c in enumerate(coeffs):
        if k:
            power = power * phi
        if not c.is_zero():
            out = out + kron(c, power)
    return out


def is_invertible_by_enumeration(m: Mat) -> bool:
    """Bijectivity of x -> m*x on A^n by full enumeration (independent oracle)."""
    R = m.ring
    if R.size is None:
        raise Unsupported("ring not enumerable")
    check_cap(R.size**m.rows, "bijectivity enumeration")
    seen = set()
    for vec in product(R.elements(), repeat=m.rows):
        col = Mat(R, [[v] for v in vec])
        image = m * col
        if image.entries in seen:
            return False
        seen.add(image.entries)
    return len(seen) == R.size**m.rows


def coset_reps_by_enumeration(ring, rows, cols, canonical) -> list:
    """The values of `canonical` on every rows x cols matrix, sorted by key:
    one per coset when `canonical` picks one representative per coset."""
    return sorted({canonical(m) for m in all_matrices(ring, rows, cols)}, key=Mat.key)


def coset_reps_all(shifts) -> list[Mat]:
    """Every canonical representative of a `forms.ShiftSubgroup`, sorted by
    Mat.key: the diagonal over the representatives of R/Lambda, the strict
    upper triangle zero and the strict lower triangle free."""
    R, n = shifts.ring, shifts.rows
    lower = [(j, i) for i in range(n) for j in range(i + 1, n)]
    check_cap(len(shifts.diagonal) ** n * R.size ** len(lower), "coset representative enumeration")
    out = []
    for d in product(shifts.diagonal, repeat=n):
        for low in product(R.elements(), repeat=len(lower)):
            rows = [[R.zero] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = d[i]
            for (j, i), x in zip(lower, low):
                rows[j][i] = x
            out.append(Mat(R, rows))
    return sorted(out, key=Mat.key)


def gl_moves_all_pairs(ring, n: int) -> list[tuple]:
    """The larger generating set of GL_n as (i, j, c): for every i != j the
    transvection 1 + c*e_ij, c over an additive basis and its negatives (the
    inverses); for i == j the scaling of coordinate i by a unit c != 1."""
    basis = additive_basis(ring).basis
    coeffs = list(dict.fromkeys(basis + [ring.neg(b) for b in basis]))
    units = [u for u in ring.elements() if u != ring.one and ring.inv(u) is not None]
    return [(i, j, c) for i in range(n) for j in range(n) if i != j for c in coeffs] + [
        (i, i, u) for i in range(n) for u in units
    ]


def min_witness(a: QuadFormEl, b: QuadFormEl) -> Mat | None:
    """gamma with b.phi0 - a.phi0 = gamma - eps*gamma^*, or None."""
    if a.ring != b.ring or a.eps != b.eps or a.n != b.n:
        raise ValueError("forms are not comparable")
    diff = b.phi0 - a.phi0
    sols = solve_affine(a.ring, (a.n, a.n), _shift_map(a.eps), diff, all_solutions=False)
    return sols[0] if sols else None


# -- the enlarged group from its listed pairs -----------------------------------

def el_pairs_by_witness_sets(q: QuadFormEl) -> list:
    """Every pair (f, gamma) of O^el, sorted by key: for each f of O^min the
    whole solution set of (S), listed by `solve_affine`, each pair built
    with (S) checked."""
    out = []
    for f in enumerate_orthogonal_min(q):
        d = f.star() * q.phi0 * f - q.phi0
        for gamma in solve_affine(q.ring, (q.n, q.n), _shift_map(q.eps), d):
            out.append(ElMorphism(q, f, gamma, check=True))
    return sorted(out, key=ElMorphism.key)


def extension_check_by_elements(q, elems, omin, se, closure) -> dict:
    """The extension checked element by element on the listed pairs: one
    full witness solve per f, every pair of lifts against (S), every element
    factored through the kernel, and the kernel action on all of S(E)."""
    lifts = {}
    for m in elems:
        lifts.setdefault(m.f, m)
    ident = Mat.identity(q.ring, q.n)
    kernel = [ElMorphism(q, ident, s) for s in se]
    elem_set = set(elems)
    report = {
        "order_min": len(omin),
        "order_kernel": len(se),
        "order_el": len(elems),
        "order_product_law": len(elems) == len(se) * len(omin),
    }
    exhaustive = True
    for f in omin:
        sols = solve_affine(q.ring, (q.n, q.n), _shift_map(q.eps),
                            f.star() * q.phi0 * f - q.phi0, all_solutions=True)
        if len(sols) != len(se) or any(
            ElMorphism(q, f, s, check=False) not in elem_set for s in sols
        ):
            exhaustive = False
            break
    report["witness_cosets_exhaustive"] = exhaustive
    report["projection_surjective"] = set(lifts) == set(omin)
    report["projection_homomorphism"] = all(
        compose_el(a, b).f == a.f * b.f and satisfies_S(q, a.f * b.f, compose_el(a, b).gamma)
        for a in lifts.values() for b in lifts.values()
    )
    kernel_set = set(kernel)
    report["kernel_matches_SE"] = {m for m in elems if m.f == ident} == kernel_set
    decomposition = True
    for m in elems:
        k = ElMorphism(q, ident, m.gamma - lifts[m.f].gamma, check=False)
        decomposition = decomposition and k in kernel_set and compose_el(lifts[m.f], k) == m
    report["closure_structured"] = closure and decomposition
    action_ok = True
    herm = q.associated()
    inv_phi = herm.inverse()
    for f, lift in lifts.items():
        lift_inv = el_inverse(lift)
        finv = invert(f) if inv_phi is not None and check_max(f, herm) else None
        for s in se:
            conj = compose_el(compose_el(lift_inv, ElMorphism(q, ident, s, check=False)), lift)
            expected = f.star() * s * f
            action_ok = action_ok and conj.f == ident and conj.gamma == expected
            if finv is not None:
                action_ok = action_ok and inv_phi * expected == finv * (inv_phi * s) * f
    report["kernel_action_matches_conjugation"] = action_ok
    report["passed"] = all(v for v in report.values() if isinstance(v, bool))
    return report


def el_group_report_by_pairs(q: QuadFormEl) -> dict:
    """The `group --variant el` report from the listed pairs: Dimino's coset
    closure over all of them, and the extension checked element by
    element."""
    elems = el_pairs_by_witness_sets(q)
    checks, _ = verify_group_axioms(elems, compose_el, el_inverse, el_identity(q))
    omin = enumerate_orthogonal_min(q)
    se = selfadjoint_subgroup(q.ring, q.eps, q.n).elements()
    return {
        "variant": "el",
        "order": len(elems),
        "checks": checks,
        "order_min": len(omin),
        "order_kernel": len(se),
        "elements_preview": [[m.f.to_strs(), m.gamma.to_strs()] for m in elems[:16]],
        "extension": extension_check_by_elements(q, elems, omin, se, checks["closure"]),
    }


# -- closed-form orders of the classical groups over F_q ------------------------
# D. E. Taylor, The Geometry of the Classical Groups (1992); J. H. Conway et
# al., ATLAS of Finite Groups (1985), introduction, table 2.

def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def gl_order(n: int, q: int) -> int:
    """|GL_n(q)| = prod_{i<n} (q^n - q^i)."""
    return _prod(q**n - q**i for i in range(n))


def sp_order(m: int, q: int) -> int:
    """|Sp_2m(q)| = q^(m^2) prod_{i=1..m} (q^2i - 1)."""
    return q ** (m * m) * _prod(q ** (2 * i) - 1 for i in range(1, m + 1))


def orthogonal_order(m: int, q: int, sign: int) -> int:
    """|O^sign_2m(q)|, sign = +1 (Witt index m) or -1 (Witt index m - 1):
    2 q^(m(m-1)) (q^m - sign) prod_{i=1..m-1} (q^2i - 1), in every
    characteristic."""
    return 2 * q ** (m * (m - 1)) * (q**m - sign) * _prod(q ** (2 * i) - 1 for i in range(1, m))


def odd_orthogonal_order(m: int, q: int) -> int:
    """|O_2m+1(q)| for odd q: 2 |Sp_2m(q)|."""
    return 2 * sp_order(m, q)


def unitary_order(n: int, q: int) -> int:
    """|U_n(q)|, the isometries of a nondegenerate hermitian form on F_{q^2}^n:
    q^(n(n-1)/2) prod_{i=1..n} (q^i - (-1)^i)."""
    return q ** (n * (n - 1) // 2) * _prod(q**i - (-1) ** i for i in range(1, n + 1))


def xi_group_by_pairs(ring, eps) -> AbelianGroupPresentation:
    """Bak's 2-torsion obstruction group, presented on all k^2 pairs of the
    k = |Gamma/Lambda| representatives, with 2k^3 biadditivity rows.

    Quotient of (Gamma/Lambda) tensor_A (Gamma/Lambda) by the symmetry
    relations a@b - b@a and the quadratic relations a@b - a@(b a conj(b));
    tensoring over A uses the twisted actions x: gamma -> conj(x) gamma x
    (right) and gamma -> x gamma conj(x) (left).
    """
    if not ring.is_commutative:
        raise Unsupported("xi_group_by_pairs is restricted to commutative rings")
    gl = gamma_lambda(ring, eps)
    reps = gl.reps
    k = len(reps)
    check_cap(k * k, "xi generators")
    idx = {r: i for i, r in enumerate(reps)}
    ngen = k * k

    def gen(i, j):
        return i * k + j

    def vec():
        return [0] * ngen

    relations = []
    # biadditivity in each slot (makes the pairing Z-bilinear on the quotient)
    for i in range(k):
        for j in range(k):
            s = idx[gl.rep_add(reps[i], reps[j])]
            for l in range(k):
                r = vec()
                r[gen(s, l)] += 1
                r[gen(i, l)] -= 1
                r[gen(j, l)] -= 1
                relations.append(r)
                r = vec()
                r[gen(l, s)] += 1
                r[gen(l, i)] -= 1
                r[gen(l, j)] -= 1
                relations.append(r)
    # balancing of the twisted A-actions across the tensor sign
    for x in ring.elements():
        for i in range(k):
            right = gl.coset[ring.mul(ring.mul(ring.conj(x), reps[i]), x)]
            for j in range(k):
                left = gl.coset[ring.mul(ring.mul(x, reps[j]), ring.conj(x))]
                r = vec()
                r[gen(idx[right], j)] += 1
                r[gen(i, idx[left])] -= 1
                relations.append(r)
    # symmetry and the quadratic relation a@b = a@(b a conj(b))
    for i in range(k):
        for j in range(k):
            r = vec()
            r[gen(i, j)] += 1
            r[gen(j, i)] -= 1
            relations.append(r)
            bab = gl.coset[
                ring.mul(ring.mul(reps[j], reps[i]), ring.conj(reps[j]))
            ]
            r = vec()
            r[gen(i, j)] += 1
            r[gen(i, idx[bab])] -= 1
            relations.append(r)
    labels = [
        f"{ring.to_str(reps[i])}@{ring.to_str(reps[j])}"
        for i in range(k)
        for j in range(k)
    ]
    return AbelianGroupPresentation(labels, relations)


# F2[s] by schoolbook arithmetic on coefficient lists, lowest degree first,
# with no zero on top: the definitions that the bitmask ring must agree with


def f2s_trim(coeffs) -> tuple:
    coeffs = [c % 2 for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def f2s_add(a, b) -> tuple:
    return f2s_trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


def f2s_sub(a, b) -> tuple:
    return f2s_add(a, [-c for c in b])


def f2s_mul(a, b) -> tuple:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return f2s_trim(out)


def f2s_conj(a) -> tuple:
    """a(1 - s) by Horner's rule: ((c_n (1 - s) + c_{n-1}) (1 - s) + ...)."""
    out = ()
    for c in reversed(a):
        out = f2s_add(f2s_mul(out, (1, -1)), (c,))
    return out


def f2s_to_str(a) -> str:
    return "[" + ",".join(f'"{c}"' for c in a) + "]"
