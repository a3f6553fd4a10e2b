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


def _frame_search(diag: Mat, herm: Mat, diag_class, cap: int | None) -> list[Mat]:
    """Every n x n matrix f with diag_class(f_j^* diag f_j) = diag_class(diag_jj)
    for each column f_j, and f_j^* herm f_k = herm_jk for each j < k.

    Backtracking over partial frames with candidate lists (Plesken &
    Souvignier, "Computing isometries of lattices", J. Symbolic Comput. 24,
    1997).  One pass over the |R|^n columns c computes each covector c^* herm
    and the diagonal class of c^* diag c; the columns that pass position j's
    diagonal test form its candidate list L_j.  A frame is the columns
    chosen for the first positions together with the candidate lists of the
    open ones.  Choosing c at position j refines each later list L_k to the
    d with (c^* herm) d = herm_jk, one inner product per pair, and a frame
    with an empty list is dropped.  The (k, j) entry needs no test: herm^* =
    eps*herm (as `HermForm` enforces), so f_k^* herm f_j = eps*conj(f_j^*
    herm f_k) = eps*conj(herm_jk) = herm_kj.  The leaves are
    therefore exactly the f whose Gram matrix f^* herm f equals herm off the
    diagonal and whose diagonal passes the diagonal tests.  No Mat is built
    before the output.

    The cap counts search nodes.  The column pass is |R|^n nodes, checked
    before any column is built.  Before each level the inner products that
    level will form, |L_j| * max(1, sum_{k>j} |L_k|) summed over the frames
    (a candidate at the last position counts one), are added to a running
    count and checked, so no level is evaluated past the cap.
    """
    ring, n = herm.ring, herm.rows
    if ring.size is None:
        raise CapExceeded("ring not enumerable")
    nodes = ring.size**n
    check_cap(nodes, "matrix enumeration", cap)
    add, mul, conj, zero = ring.add, ring.mul, ring.conj, ring.zero

    def dot(u, v):
        acc = zero
        for a, b in zip(u, v):
            if a != zero and b != zero:
                acc = add(acc, mul(a, b))
        return acc

    cols = list(product(ring.elements(), repeat=n))
    herm_cols = list(zip(*herm.entries))
    diag_cols = None if diag is herm else list(zip(*diag.entries))
    want = [diag_class(diag.entries[j][j]) for j in range(n)]
    covecs = []
    lists = [[] for _ in range(n)]
    for c, col in enumerate(cols):
        star = [conj(x) for x in col]
        covec = tuple(dot(star, hc) for hc in herm_cols)
        covecs.append(covec)
        value = diag_class(dot(covec if diag_cols is None else
                               [dot(star, dc) for dc in diag_cols], col))
        for j in range(n):
            if value == want[j]:
                lists[j].append(c)
    frames = [((), lists)] if all(lists) else []  # (columns chosen, lists of the open positions)
    for j in range(n):
        nodes += sum(len(here) * max(1, sum(map(len, later))) for _, (here, *later) in frames)
        check_cap(nodes, "matrix enumeration", cap)
        targets = herm.entries[j][j + 1:]
        kept = []
        for chosen, (here, *later) in frames:
            for c in here:
                covec = covecs[c]
                refined = []
                for lst, target in zip(later, targets):
                    lst = [d for d in lst if dot(covec, cols[d]) == target]
                    if not lst:
                        break
                    refined.append(lst)
                else:
                    kept.append((chosen + (c,), refined))
        frames = kept
    return [Mat(ring, list(zip(*(cols[c] for c in chosen)))) for chosen, _ in frames]


def enumerate_unitary(h: HermForm, cap: int | None = None) -> list[Mat]:
    """All invertible f with f^* phi f = phi, by a column-by-column frame search.

    The search keeps f when f_j^* phi f_j = phi_jj on the diagonal and
    f_j^* phi f_k = phi_jk for j < k, which together are f^* phi f = phi (see
    `_frame_search`).  When phi is invertible every such f is invertible:
    (phi^-1 f^* phi) f = 1 is a left inverse, and in the finite ring M_n(R)
    a one-sided inverse is two-sided.  So `invert` is run only on the
    output for a degenerate phi.
    """
    if h.n == 0:
        return [Mat(h.ring, [])]
    out = _frame_search(h.phi, h.phi, lambda x: x, cap)
    if not h.nondegenerate:
        out = [f for f in out if invert(f) is not None]
    out.sort(key=Mat.key)
    return out


def enumerate_orthogonal_min(q: QuadFormEl, cap: int | None = None) -> list[Mat]:
    """All invertible f admitting a witness gamma for identity (S).

    m = f^* phi0 f - phi0 must lie in the shift subgroup S = {gamma -
    eps*gamma^*}, whose closed form (`ShiftSubgroup`) splits the test.  Each
    diagonal entry f_j^* phi0 f_j must be phi0_jj modulo Lambda, compared
    through the rank-1 canonical representatives.  Each off-diagonal pair
    must be a shift pair, m_kj = -eps*conj(m_jk), which is entry (k, j) of
    m + eps*m^* = f^* h f - h vanishing, where h = phi0 + eps*phi0^* is the
    associated hermitian form; as h^* = eps*h, that is f_j^* h f_k = h_jk
    for j < k.  `_frame_search` runs exactly these tests.  Every member
    satisfies f^* h f = h, so when h is invertible every member is
    invertible (see `enumerate_unitary`), and `invert` is run only on the
    output for a degenerate h.
    """
    if q.n == 0:
        return [Mat(q.ring, [])]
    shifts = shift_subgroup(q.ring, q.eps, 1)
    h = q.associated()
    out = _frame_search(q.phi0, h.phi, lambda x: shifts.canonical_flat((x,)), cap)
    if not h.nondegenerate:
        out = [f for f in out if invert(f) is not None]
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
