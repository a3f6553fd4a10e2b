"""Automorphism groups of forms in the max / min / enlarged variants.

The enlarged group consists of pairs (f, gamma) subject to

    f^* . phi0 . f = phi0 + gamma - eps * gamma^*        (S)

composed by (f, gamma).(g, zeta) = (f.g, zeta + g^* gamma g).  Projection to
f gives the orthogonal group of the min variant; the kernel is the abelian
group S(E) of gamma with gamma^* = eps*gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .additive import solve_affine
from .caps import CapExceeded, check_cap
from .forms import (
    HermForm,
    QuadFormEl,
    hyperbolic,
    min_equal,
    selfadjoint_subgroup,
    shift_subgroup,
)
from .linalg import Mat, block, diag_block, invert
from .rings import DualRing, Ring


class ElMorphism:
    """A pair (f, gamma) satisfying identity (S) against a fixed form."""

    __slots__ = ("form", "f", "gamma")

    def __init__(self, form: QuadFormEl, f: Mat, gamma: Mat, check: bool = True):
        self.form = form
        self.f = f
        self.gamma = gamma
        if check and not satisfies_S(form, f, gamma):
            raise ValueError("pair (f, gamma) violates identity (S)")

    def key(self):
        return (self.f.key(), self.gamma.key())

    def __eq__(self, other):
        return (
            isinstance(other, ElMorphism)
            and self.f == other.f
            and self.gamma == other.gamma
        )

    def __hash__(self):
        return hash((self.f, self.gamma))

    def __repr__(self):
        return f"ElMorphism(f={self.f.key()}, gamma={self.gamma.key()})"


def satisfies_S(q: QuadFormEl, f: Mat, gamma: Mat) -> bool:
    lhs = f.star() * q.phi0 * f
    rhs = q.phi0 + gamma - gamma.star().scale_sign(q.eps)
    return lhs == rhs


def el_identity(q: QuadFormEl) -> ElMorphism:
    return ElMorphism(q, Mat.identity(q.ring, q.n), Mat.zero(q.ring, q.n), check=False)


def compose_el(a: ElMorphism, b: ElMorphism) -> ElMorphism:
    """(f, gamma).(g, zeta) = (f.g, zeta + g^* gamma g)."""
    if a.form != b.form:
        raise ValueError("morphisms live on different forms")
    f, g = a.f, b.f
    gamma = b.gamma + g.star() * a.gamma * g
    return ElMorphism(a.form, f * g, gamma, check=False)


def el_inverse(a: ElMorphism) -> ElMorphism:
    finv = invert(a.f)
    if finv is None:
        raise ValueError("morphism is not invertible")
    gamma = -(finv.star() * a.gamma * finv)
    return ElMorphism(a.form, finv, gamma, check=False)


def check_max(f: Mat, h: HermForm) -> bool:
    """Membership in the unitary group: f^* phi f = phi."""
    if f.rows != h.n or f.cols != h.n:
        raise ValueError("shape mismatch")
    return f.star() * h.phi * f == h.phi


def check_min(f: Mat, q: QuadFormEl) -> Mat | None:
    """A witness gamma for identity (S), or None when f is not orthogonal."""
    diff = f.star() * q.phi0 * f - q.phi0
    sols = solve_affine(
        q.ring,
        (q.n, q.n),
        lambda g: g - g.star().scale_sign(q.eps),
        diff,
        all_solutions=False,
    )
    return sols[0] if sols else None


def _frame_search(gram: Mat, block_ok, cap: int | None) -> list[Mat]:
    """Every n x n matrix f all of whose leading Gram blocks pass `block_ok`.

    Backtracking over partial frames (Plesken & Souvignier, "Computing
    isometries of lattices", J. Symbolic Comput. 24, 1997): f is built one
    column at a time, and the frame F of its first j columns is dropped as
    soon as block_ok(j, F^* gram F) fails.  The caller's tests are necessary
    conditions on the leading j x j block, so no member of the group is lost;
    at j = n the test is the full membership test.

    The cap counts search nodes: before each level the frames kept so far,
    times |R|^n candidate columns, are added to a running count and checked,
    so no level is evaluated past the cap.  The first level's count, |R|^n,
    is checked before the columns are built.
    """
    ring, n = gram.ring, gram.rows
    if ring.size is None:
        raise CapExceeded("ring not enumerable")
    check_cap(ring.size**n, "matrix enumeration", cap)
    add, mul, conj, zero = ring.add, ring.mul, ring.conj, ring.zero

    def dot(u, v):
        acc = zero
        for a, b in zip(u, v):
            if a != zero and b != zero:
                acc = add(acc, mul(a, b))
        return acc

    cols = list(product(ring.elements(), repeat=n))
    gram_cols = list(zip(*gram.entries))
    # entry (i, k) of F^* gram F is covecs[F_i] . F_k, where covecs[v] = v^* gram
    covecs = [tuple(dot([conj(x) for x in v], gc) for gc in gram_cols) for v in cols]
    frames = [((), ())]  # (indices of the columns chosen, rows of their Gram block)
    nodes = 0
    for j in range(1, n + 1):
        nodes += len(frames) * len(cols)
        check_cap(nodes, "matrix enumeration", cap)
        kept = []
        for chosen, rows in frames:
            for c, (col, covec) in enumerate(zip(cols, covecs)):
                right = [dot(covecs[i], col) for i in chosen]
                bottom = tuple(dot(covec, cols[i]) for i in chosen) + (dot(covec, col),)
                g = Mat(ring, [r + (x,) for r, x in zip(rows, right)] + [bottom])
                if block_ok(j, g):
                    kept.append((chosen + (c,), g.entries))
        frames = kept
    return [Mat(ring, list(zip(*(cols[i] for i in chosen)))) for chosen, _ in frames]


def enumerate_unitary(h: HermForm, cap: int | None = None) -> list[Mat]:
    """All f with f^* phi f = phi, by a column-by-column frame search."""
    if h.n == 0:
        return [Mat(h.ring, [])]
    lead = {j: h.phi.submatrix(0, j, 0, j) for j in range(1, h.n + 1)}
    found = _frame_search(h.phi, lambda j, g: g == lead[j], cap)
    # over a field a solution of f^* phi f = phi with phi invertible is
    # automatically invertible; other rings get an explicit check
    field = h.ring.is_field and h.nondegenerate
    out = [f for f in found if field or invert(f) is not None]
    out.sort(key=Mat.key)
    return out


def enumerate_orthogonal_min(q: QuadFormEl, cap: int | None = None) -> list[Mat]:
    """All invertible f admitting a witness gamma for identity (S).

    The leading j x j block of gamma - eps*gamma^* is the shift of gamma's
    leading block, so a frame whose block f^* phi0 f - phi0 leaves the
    rank-j shift subgroup has no completion.  The test compares canonical
    coset representatives: the block lies in the coset of phi0's leading
    block exactly when the two representatives agree.
    """
    if q.n == 0:
        return [Mat(q.ring, [])]
    shifts = {j: shift_subgroup(q.ring, q.eps, j) for j in range(1, q.n + 1)}

    def canonical(j, m):
        return shifts[j].canonical_flat([x for row in m.entries for x in row])

    lead = {j: canonical(j, q.phi0.submatrix(0, j, 0, j)) for j in range(1, q.n + 1)}
    found = _frame_search(q.phi0, lambda j, g: canonical(j, g) == lead[j], cap)
    field = q.ring.is_field and q.nondegenerate
    out = [f for f in found if field or invert(f) is not None]
    out.sort(key=Mat.key)
    return out


def el_elements(q: QuadFormEl, cap: int | None = None):
    """All (f, gamma): for each orthogonal f the witnesses form a coset of S(E)."""
    omin = enumerate_orthogonal_min(q, cap)
    se = selfadjoint_subgroup(q.ring, q.eps, q.n).elements()
    out = []
    for f in omin:
        base = check_min(f, q)
        for s in se:
            out.append(ElMorphism(q, f, base + s, check=True))
    out.sort(key=lambda m: m.key())
    return out, omin, se


@dataclass
class EnumeratedGroup:
    """An enumerated group and its certificate.

    `checks` is the report of `verify_group_axioms`: the booleans `identity`,
    `inverses` and `closure`, all exact, and the closure's cost as
    `closure_products` (products h.g formed) and `closure_generators` (size
    of the generating set it picked).
    """

    variant: str
    order: int
    elements: list
    checks: dict = field(default_factory=dict)
    base: list | None = None  # O^min, for the enlarged variant
    kernel: list | None = None  # S(E), for the enlarged variant

    @property
    def base_order(self) -> int | None:
        return None if self.base is None else len(self.base)

    @property
    def kernel_order(self) -> int | None:
        return None if self.kernel is None else len(self.kernel)

    def to_json(self, form=None):
        doc = {
            "variant": self.variant,
            "order": self.order,
            "checks": self.checks,
        }
        if self.base_order is not None:
            doc["order_min"] = self.base_order
            doc["order_kernel"] = self.kernel_order
        return doc


def verify_group_axioms(elements, compose, inverse, identity):
    """Exact identity / inverse / closure checks by a generator closure.

    The reached set starts at the identity.  The elements are walked in
    order; each one not yet reached becomes a generator, and the reached set
    is grown by right multiplication: every element reached before by the
    new generator, every newly reached element by all generators, as in
    Dimino's algorithm (G. Butler, Fundamental Algorithms for Permutation
    Groups, LNCS 559, 1991).  A product outside the set proves `closure`
    false and ends the walk.

    Exactness: `compose` is associative, so when the walk completes the
    reached set holds every word in the generators, and each nonempty word
    was formed as some h.g and found in the set.  The reached set covers the
    set, so the product of two elements is a nonempty word, hence in the
    set.  A newly reached p = h.g has the inverse g^-1 h^-1, one `compose`;
    `inverse` is called on the generators only, and on the unreached
    elements when the walk ends early.

    Cost on a group G: each generator lies outside the subgroup reached
    before it, so it at least doubles it (Lagrange).  So there are at most
    log2|G| generators and at most |G|.(log2|G| + 1) products h.g.
    """
    elem_set = set(elements)
    inv = {identity: identity}  # reached element -> its inverse, None if a factor has none
    reached = [identity]
    gens = []
    products = 0
    inverses = True

    def reach(h, g, ginv):
        nonlocal products, inverses
        p = compose(h, g)
        products += 1
        if p not in elem_set:
            return False
        if p not in inv:
            hinv = inv[h]
            pinv = None if hinv is None or ginv is None else compose(ginv, hinv)
            inverses = inverses and pinv in elem_set
            inv[p] = pinv
            reached.append(p)
        return True

    closure = True
    for x in elements:
        if x in inv:
            continue
        xinv = inverse(x)
        gens.append((x, xinv))
        old = len(reached)
        closure = all(reach(h, x, xinv) for h in reached[:old])
        i = old
        while closure and i < len(reached):
            closure = all(reach(reached[i], g, ginv) for g, ginv in gens)
            i += 1
        if not closure:
            break
    if not closure:
        inverses = inverses and all(
            inverse(x) in elem_set for x in elements if x not in inv
        )
    return {
        "identity": identity in elem_set,
        "inverses": inverses,
        "closure": closure,
        "closure_products": products,
        "closure_generators": len(gens),
    }


def enumerate_group(variant: str, form, cap: int | None = None) -> EnumeratedGroup:
    """Exhaustive orthogonal group of the given variant, axioms verified."""
    if variant == "max":
        h = form if isinstance(form, HermForm) else form.associated()
        elems = enumerate_unitary(h, cap)
        checks = verify_group_axioms(
            elems,
            lambda a, b: a * b,
            lambda a: invert(a),
            Mat.identity(h.ring, h.n),
        )
        return EnumeratedGroup("max", len(elems), elems, checks=checks)
    if variant == "min":
        q = form
        elems = enumerate_orthogonal_min(q, cap)
        checks = verify_group_axioms(
            elems,
            lambda a, b: a * b,
            lambda a: invert(a),
            Mat.identity(q.ring, q.n),
        )
        return EnumeratedGroup("min", len(elems), elems, checks=checks)
    if variant == "el":
        q = form
        elems, omin, se = el_elements(q, cap)
        checks = verify_group_axioms(elems, compose_el, el_inverse, el_identity(q))
        return EnumeratedGroup("el", len(elems), elems, checks, base=omin, kernel=se)
    raise ValueError(f"unknown variant {variant!r}")


def extension_check(q: QuadFormEl, cap: int | None = None,
                    group: EnumeratedGroup | None = None) -> dict:
    """Verify 1 -> S(E) -> O^el -> O^min -> 1 on the enumerated groups.

    `group` is the enlarged group `enumerate_group("el", q)` returned; without
    it the group is enumerated here.  Each f of O^min is lifted to the first
    enumerated (f, gamma).  Closure of the enlarged group is established
    structurally: every element factors as lift(f).(1, s), so closure on
    kernel*kernel, kernel*lift, lift*kernel and lift*lift pairs implies
    closure everywhere.
    """
    if group is None:
        elems, omin, se = el_elements(q, cap)
    else:
        elems, omin, se = group.elements, group.base, group.kernel
    lifts = {}
    for m in elems:
        lifts.setdefault(m.f, m)
    kernel = [ElMorphism(q, Mat.identity(q.ring, q.n), s) for s in se]
    elem_set = set(elems)
    report = {
        "order_min": len(omin),
        "order_kernel": len(se),
        "order_el": len(elems),
        "order_product_law": len(elems) == len(se) * len(omin),
    }

    # per-f exhaustiveness: the witness set of each f is exactly a coset of S(E)
    exhaustive = True
    for f in omin:
        diff = f.star() * q.phi0 * f - q.phi0
        sols = solve_affine(
            q.ring,
            (q.n, q.n),
            lambda g: g - g.star().scale_sign(q.eps),
            diff,
            all_solutions=True,
        )
        if len(sols) != len(se) or any(
            ElMorphism(q, f, s, check=False) not in elem_set for s in sols
        ):
            exhaustive = False
            break
    report["witness_cosets_exhaustive"] = exhaustive

    # projection is a surjective homomorphism (surjective by construction)
    omin_set = set(omin)
    report["projection_surjective"] = all(f in omin_set for f in omin)
    lift_products = [
        (a, b, compose_el(a, b)) for a in lifts.values() for b in lifts.values()
    ]
    report["projection_homomorphism"] = all(
        c.f == a.f * b.f and satisfies_S(q, c.f, c.gamma) for a, b, c in lift_products
    )

    # kernel is exactly the (1, gamma) with gamma^* = eps*gamma
    ident = Mat.identity(q.ring, q.n)
    found_kernel = {m for m in elems if m.f == ident}
    report["kernel_matches_SE"] = found_kernel == set(kernel)

    # structured closure: the four pair families generate all products
    closure = all(compose_el(a, b) in elem_set for a in kernel for b in kernel)
    for lift in lifts.values():
        for a in kernel:
            if compose_el(lift, a) not in elem_set:
                closure = False
            if compose_el(a, lift) not in elem_set:
                closure = False
    closure = closure and all(c in elem_set for _, _, c in lift_products)
    decomposition = all(
        compose_el(
            lifts[m.f], ElMorphism(q, ident, m.gamma - lifts[m.f].gamma, check=False)
        )
        == m
        for m in elems
    )
    report["closure_structured"] = closure and decomposition

    # right action of O^min on the kernel: conjugation is gamma -> g^* gamma g
    action_ok = True
    herm = q.associated()
    inv_phi = herm.inverse()
    for f, lift in lifts.items():
        lift_inv = el_inverse(lift)
        finv = invert(f) if inv_phi is not None and check_max(f, herm) else None
        for s in se:
            conj = compose_el(compose_el(lift_inv, ElMorphism(q, ident, s, check=False)), lift)
            expected = f.star() * s * f
            if conj.f != ident or conj.gamma != expected:
                action_ok = False
            if finv is not None:
                u = inv_phi * s
                if inv_phi * expected != finv * u * f:
                    action_ok = False
    report["kernel_action_matches_conjugation"] = action_ok
    report["passed"] = all(
        v for k, v in report.items() if isinstance(v, bool)
    )
    return report


def split_section(g: Mat, q: QuadFormEl, lam=None) -> ElMorphism:
    """s(g) = (g, lambda*(g^* phi0 g - phi0)); needs a split unit lambda."""
    ring = q.ring
    if lam is None:
        lam = ring.find_split_unit()
    if lam is None:
        raise ValueError("ring has no split unit")
    gamma = (g.star() * q.phi0 * g - q.phi0).scale_left(lam)
    return ElMorphism(q, g, gamma, check=True)


def section_homomorphism_report(q: QuadFormEl, lam=None, cap=None) -> dict:
    """Exhaustively verify s(g.h) = s(g).s(h) and projection.s = id."""
    omin = enumerate_orthogonal_min(q, cap)
    sections = {g: split_section(g, q, lam) for g in omin}
    hom = all(
        compose_el(sections[g], sections[h]) == sections[g * h]
        for g in omin
        for h in omin
    )
    proj = all(sections[g].f == g for g in omin)
    return {
        "order_min": len(omin),
        "section_homomorphism": hom,
        "projection_section_identity": proj,
        "passed": hom and proj,
    }


def _embed_dual(ring_e: DualRing, m: Mat) -> Mat:
    base_zero = ring_e.base.zero
    return m.map_entries(lambda a: (a, base_zero), ring=ring_e)


def enumerate_unitary_dual(q: QuadFormEl, cap=None):
    """O^max over the dual numbers, enumerated without citing the extension.

    Writing f = f0 + f1 e over A(e) (conj e = -e), the unitarity equation
    f^* phi f = phi splits into the e-degrees:

        f0^* phi f0 = phi   and   f0^* phi f1 = f1^* phi f0.

    So f0 is unitary over A, and with f1 = f0 v the second equation becomes
    phi v = v^* phi, i.e. v is self-adjoint for phi.  Every candidate built
    from that factorization is still verified directly over A(e).
    """
    herm = q.associated()
    ring = q.ring
    ring_e = DualRing(ring, "-e")
    unitaries = enumerate_unitary(herm, cap)
    inv_phi = herm.inverse()
    vs = solve_affine(
        ring,
        (q.n, q.n),
        lambda v: v - inv_phi * v.star() * herm.phi,
        Mat.zero(ring, q.n),
        all_solutions=True,
    )
    phi_e = _embed_dual(ring_e, herm.phi)
    herm_e = HermForm(ring_e, q.eps, phi_e)
    ident_e = Mat.identity(ring_e, q.n)
    out = []
    for f0 in unitaries:
        f0_e = _embed_dual(ring_e, f0)
        for v in vs:
            ve = v.map_entries(lambda a: (ring.zero, a), ring=ring_e)
            cand = f0_e * (ident_e + ve)
            if not check_max(cand, herm_e):
                raise AssertionError("dual-number unitary candidate failed")
            out.append(cand)
    out.sort(key=Mat.key)
    return out, herm_e, ring_e


def dual_numbers_iso(q: QuadFormEl, lam=None, cap=None) -> dict:
    """Identify O^el(E) with O^max(E(e)) via (f, gamma) -> f.(1 + u1 e).

    u1 = phi^{-1}(gamma - gamma_s(f)) is the kernel coordinate of (f, gamma)
    against the split section s.  Homomorphy is verified on the generating
    pair families of the semidirect decomposition plus the decomposition
    identity itself, which covers all products.
    """
    ring = q.ring
    if lam is None:
        lam = ring.find_split_unit()
    if lam is None:
        raise ValueError("ring has no split unit")
    herm = q.associated()
    inv_phi = herm.inverse()
    elems, omin, se = el_elements(q, cap)
    dual_unitaries, herm_e, ring_e = enumerate_unitary_dual(q, cap)
    ident_e = Mat.identity(ring_e, q.n)
    zero = ring.zero

    def image(m: ElMorphism) -> Mat:
        gamma_s = (m.f.star() * q.phi0 * m.f - q.phi0).scale_left(lam)
        u1 = inv_phi * (m.gamma - gamma_s)
        u1e = u1.map_entries(lambda a: (zero, a), ring=ring_e)
        return _embed_dual(ring_e, m.f) * (ident_e + u1e)

    images = {m.key(): image(m) for m in elems}
    target = {f.key() for f in dual_unitaries}
    image_keys = {v.key() for v in images.values()}
    report = {
        "order_el": len(elems),
        "order_dual_max": len(dual_unitaries),
        "orders_equal": len(elems) == len(dual_unitaries),
        "injective": len(image_keys) == len(elems),
        "surjective": image_keys == target,
    }

    ident = Mat.identity(ring, q.n)
    kernel = [ElMorphism(q, ident, s, check=False) for s in se]
    sections = [split_section(g, q, lam) for g in omin]
    hom_ok = True

    def hom_pair(a, b):
        return images[compose_el(a, b).key()] == images[a.key()] * images[b.key()]

    for a in kernel:
        for b in kernel:
            hom_ok = hom_ok and hom_pair(a, b)
    for s in sections:
        for k in kernel:
            hom_ok = hom_ok and hom_pair(s, k) and hom_pair(k, s)
    for s in sections:
        for t in sections:
            hom_ok = hom_ok and hom_pair(s, t)
    decomposition = all(
        compose_el(
            split_section(m.f, q, lam),
            ElMorphism(
                q, ident, m.gamma - (m.f.star() * q.phi0 * m.f - q.phi0).scale_left(lam),
                check=False,
            ),
        ).key()
        == m.key()
        for m in elems
    )
    report["homomorphism_on_generating_pairs"] = hom_ok
    report["semidirect_decomposition"] = decomposition

    # kernel description over the dual numbers: 1 + u e unitary iff u = u^*
    kernel_ok = True
    for s in se:
        u = inv_phi * s
        ue = u.map_entries(lambda a: (zero, a), ring=ring_e)
        if not check_max(ident_e + ue, herm_e):
            kernel_ok = False
    report["kernel_selfadjoint_unitary"] = kernel_ok
    report["passed"] = all(v for v in report.values() if isinstance(v, bool))
    return report


def hyperbolic_adjoint(f: Mat, eps: int) -> Mat:
    """Block adjoint on a hyperbolic module: [[a,b],[c,d]] -> [[d*, eps b*],[eps c*, a*]]."""
    if f.rows % 2 or f.rows != f.cols:
        raise ValueError("expected an even square matrix")
    n = f.rows // 2
    a = f.submatrix(0, n, 0, n)
    b = f.submatrix(0, n, n, 2 * n)
    c = f.submatrix(n, 2 * n, 0, n)
    d = f.submatrix(n, 2 * n, n, 2 * n)
    return block(
        f.ring,
        [
            [d.star(), b.star().scale_sign(eps)],
            [c.star().scale_sign(eps), a.star()],
        ],
    )


def field_hyperbolic_diagnostics(f: Mat, eps: int = 1) -> dict:
    """The four block identities satisfied by unitaries of a hyperbolic form
    over a field with trivial involution (diagnostic only, not a membership
    test)."""
    n = f.rows // 2
    a = f.submatrix(0, n, 0, n)
    b = f.submatrix(0, n, n, 2 * n)
    c = f.submatrix(n, 2 * n, 0, n)
    d = f.submatrix(n, 2 * n, n, 2 * n)
    ring = f.ring
    ident = Mat.identity(ring, n)
    zero = Mat.zero(ring, n)
    at, bt, ct, dt = (x.star() for x in (a, b, c, d))
    out = {
        "a.td+b.tc=1": a * dt + (b * ct).scale_sign(eps) == ident,
        "a.tb+b.ta=0": a * bt + (b * at).scale_sign(eps) == zero,
        "c.td+d.tc=0": c * dt + (d * ct).scale_sign(eps) == zero,
        "c.tb+d.ta=1": (c * bt).scale_sign(eps) + d * at == ident,
    }
    shifts = shift_subgroup(ring, eps, n)
    out["a.tb_is_shift"] = shifts.contains(a * bt)
    out["c.td_is_shift"] = shifts.contains(c * dt)
    return out


def whitehead_factorization(alpha: Mat, beta: Mat) -> dict:
    """The three exact 3x3 block identities behind stabilized commutators.

    (1) diag(ab a^-1 b^-1, 1, 1) as a product of four block-diagonal factors,
    (2) the cyclic-shift rewriting of diag(a, a^-1, 1), and
    (3) that shifted matrix as a four-factor commutator.
    """
    if alpha.ring != beta.ring or alpha.rows != beta.rows:
        raise ValueError("alpha and beta must match")
    ring = alpha.ring
    n = alpha.rows
    ai = invert(alpha)
    bi = invert(beta)
    if ai is None or bi is None:
        raise ValueError("alpha and beta must be invertible")
    ident = Mat.identity(ring, n)
    zero = Mat.zero(ring, n)

    def d3(x, y, z):
        return diag_block(ring, [x, y, z])

    lhs1 = d3(alpha * beta * ai * bi, ident, ident)
    rhs1 = (
        d3(alpha, ai, ident)
        * d3(beta, ident, bi)
        * d3(ai, alpha, ident)
        * d3(bi, ident, beta)
    )
    check1 = lhs1 == rhs1

    cyc = block(ring, [[zero, ident, zero], [zero, zero, ident], [ident, zero, zero]])
    shifted = block(
        ring, [[zero, alpha, zero], [zero, zero, ai], [ident, zero, zero]]
    )
    check2 = d3(alpha, ai, ident) * cyc == shifted

    x = block(ring, [[alpha, zero, zero], [zero, zero, ident], [zero, ident, zero]])
    xinv = block(ring, [[ai, zero, zero], [zero, zero, ident], [zero, ident, zero]])
    y = block(ring, [[zero, zero, ident], [zero, ident, zero], [ident, zero, zero]])
    check3 = x * y * xinv * y == shifted  # y is an involution
    return {
        "commutator_product": check1,
        "cyclic_shift": check2,
        "four_factor_commutator": check3,
        "passed": check1 and check2 and check3,
    }
