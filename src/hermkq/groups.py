"""Automorphism groups of forms in the max / min / enlarged variants.

The enlarged group consists of pairs (f, gamma) subject to

    f^* . phi0 . f = phi0 + gamma - eps * gamma^*        (S)

composed by (f, gamma).(g, zeta) = (f.g, zeta + g^* gamma g).  Projection to
f gives the orthogonal group of the min variant; the kernel is the abelian
group S(E) of gamma with gamma^* = eps*gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .additive import MatSubgroup
from .caps import Unsupported, check_cap
from .forms import HermForm, QuadFormEl, selfadjoint_subgroup, shift_subgroup
from .linalg import Mat, block, diag_block, invert
from .rings import DualRing


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


def satisfies_S(q: QuadFormEl, f: Mat, gamma: Mat) -> bool:
    lhs = f.star() * q.phi0 * f
    rhs = q.phi0 + gamma - gamma.star().scale_sign(q.eps)
    return lhs == rhs


def el_identity(q: QuadFormEl) -> ElMorphism:
    return ElMorphism(q, Mat.identity(q.ring, q.n), Mat.zero(q.ring, q.n), check=False)


def compose_el(a: ElMorphism, b: ElMorphism) -> ElMorphism:
    """(f, gamma).(g, zeta) = (f.g, zeta + g^* gamma g)."""
    if a.form is not b.form and a.form != b.form:
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
    """A witness gamma for identity (S), or None when f is not orthogonal.

    The witnesses are the solutions of L(gamma) = f^* phi0 f - phi0, L(g) =
    g - eps*g^*, and the one returned is the least of them, `solve_affine`'s
    particular solution, read entry by entry off the per-entry table
    (`ShiftSubgroup.witness`).
    """
    return shift_subgroup(q.ring, q.eps, q.n).witness(f.star() * q.phi0 * f - q.phi0)


def _frame_search(diag: Mat, herm: Mat, diag_class) -> list[Mat]:
    """Every n x n matrix f with diag_class(f_j^* diag f_j) = diag_class(diag_jj)
    for each column f_j, and f_j^* herm f_k = herm_jk for each j < k.

    Backtracking over partial frames with candidate lists (Plesken &
    Souvignier, "Computing isometries of lattices", J. Symbolic Comput. 24,
    1997).  One pass over the |R|^n columns c computes each covector c^* herm
    and the diagonal class of c^* diag c; the columns that pass position j's
    diagonal test form its candidate list L_j.  A frame is the columns
    chosen for the first positions together with the candidate lists of the
    open ones.  Choosing c at position j refines each later list L_k to the
    d with (c^* herm) d = herm_jk, one test per pair, and a frame
    with an empty list is dropped.  The (k, j) entry needs no test: herm^* =
    eps*herm (as `HermForm` enforces), so f_k^* herm f_j = eps*conj(f_j^*
    herm f_k) = eps*conj(herm_jk) = herm_kj.  The leaves are
    therefore exactly the f whose Gram matrix f^* herm f equals herm off the
    diagonal and whose diagonal passes the diagonal tests.  No Mat is built
    before the output.

    A pair is tested by list reads, with no call.  The columns are listed
    in `product` order, so column d has its first h = ceil(n/2) coordinates
    at index d // w among the |R|^h such tuples, w = |R|^(n-h), and its last
    n - h at index d % w among theirs.  For a candidate c, vh lists c^* herm's
    partial inner product with every tuple of first coordinates and vl with
    every tuple of last ones (over a coded ring at n = 2 both are rows of
    `tables.mul`); for each later position k, wl_k = herm_jk - vl.  Then
    (c^* herm) d = herm_jk exactly when vh[d // w] == wl_k[d % w].  A level
    makes these half tables, once for each distinct candidate, only when its
    pair tests outnumber the entries they need, |R|^h + |R|^(n-h) per later
    position and once more for vl; otherwise each pair takes one inner
    product.  The last level has no pair to test and makes none.

    The cap counts search nodes.  The column pass is |R|^n nodes, checked
    before any column is built.  Before each level the inner products that
    level will form, |L_j| * max(1, sum_{k>j} |L_k|) summed over the frames
    (a candidate at the last position counts one), are added to a running
    count and checked, so no level is evaluated past the cap.
    """
    ring, n = herm.ring, herm.rows
    if ring.size is None:
        raise Unsupported("ring not enumerable")
    nodes = ring.size**n
    check_cap(nodes, "matrix enumeration")
    conj, tables, elems = ring.conj, ring.tables, ring.elements()
    add, mul, sub, zero = ring.add, ring.mul, ring.sub, ring.zero
    if tables is not None:
        add_t, mul_t = tables.add, tables.mul

        def dot(u, v):
            acc = 0
            for a, b in zip(u, v):
                if a and b:
                    acc = add_t[acc][mul_t[a][b]]
            return acc
    else:
        def dot(u, v):
            acc = zero
            for a, b in zip(u, v):
                if a != zero and b != zero:
                    acc = add(acc, mul(a, b))
            return acc

    def products(coeffs) -> list:
        """sum_i coeffs_i x_i for every tuple x over R, in `product` order."""
        out = None
        for a in coeffs:
            row = mul_t[a] if tables is not None else [mul(a, x) for x in elems]
            out = row if out is None else [add(p, r) for p in out for r in row]
        return out

    cols = list(product(elems, repeat=n))
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
    h = (n + 1) // 2
    w = ring.size ** (n - h)
    frames = [((), lists)] if all(lists) else []  # (columns chosen, lists of the open positions)
    for j in range(n):
        sizes = [(len(here), sum(map(len, later))) for _, (here, *later) in frames]
        nodes += sum(size * max(1, tests) for size, tests in sizes)
        check_cap(nodes, "matrix enumeration")
        targets = herm.entries[j][j + 1:]
        # the half tables of each candidate of this level, made once it is met
        pairs = sum(size * tests for size, tests in sizes)
        distinct = {c for _, (here, *_) in frames for c in here}
        by_halves = pairs > len(distinct) * (ring.size**h + w * (len(targets) + 1))
        halves = {}
        kept = []
        for chosen, (here, *later) in frames:
            for c in here:
                covec = covecs[c]
                if by_halves:
                    if c not in halves:
                        vl = products(covec[h:])
                        halves[c] = products(covec[:h]), [[sub(t, v) for v in vl] for t in targets]
                    vh, wls = halves[c]
                refined = []
                for k, lst in enumerate(later):
                    if by_halves:
                        wl = wls[k]
                        lst = [d for d in lst if vh[d // w] == wl[d % w]]
                    else:
                        target = targets[k]
                        lst = [d for d in lst if dot(covec, cols[d]) == target]
                    if not lst:
                        break
                    refined.append(lst)
                else:
                    kept.append((chosen + (c,), refined))
        frames = kept
    return [Mat._trusted(ring, tuple(zip(*(cols[c] for c in chosen))), n, n)
            for chosen, _ in frames]


def enumerate_unitary(h: HermForm) -> list[Mat]:
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
    out = _frame_search(h.phi, h.phi, lambda x: x)
    if not h.nondegenerate:
        out = [f for f in out if invert(f) is not None]
    out.sort(key=Mat.key)
    return out


def enumerate_orthogonal_min(q: QuadFormEl) -> list[Mat]:
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
    out = _frame_search(q.phi0, h.phi, lambda x: shifts.canonical_flat((x,)))
    if not h.nondegenerate:
        out = [f for f in out if invert(f) is not None]
    out.sort(key=Mat.key)
    return out


def el_elements(q: QuadFormEl):
    """All (f, gamma), sorted by (f.key(), gamma.key()), with O^min and S(E).

    Listed by the certified group's `head`, fibre by fibre, one `check_min`
    per f; the certificate proves that the pairs satisfy (S), so none is
    checked again.  The |O^min|.|S(E)| pairs are checked against the cap
    ("el pair enumeration") before any is built; `enumerate_group` never
    lists them, and `dual_numbers_iso` needs them.
    """
    group = enumerate_group("el", q)
    if not group.extension["passed"]:
        raise AssertionError("the enlarged group failed its extension check")
    check_cap(group.order, "el pair enumeration")
    return group.head(group.order), group.base.elements, group.kernel.elements()


@dataclass
class EnumeratedGroup:
    """A group and its certificate.

    The max and min groups are listed: `elements` holds the group sorted by
    key, and `checks` is the report of `verify_group_axioms` on it: the
    booleans `identity`, `inverses` and `closure`, all exact, and the
    closure's cost as `closure_products` (the coset products h.r and
    representative products r.s, all the products the certificate forms, at
    most 2(|G| - 1)) and
    `closure_generators` (the size of `generators`, the generating set it
    picked).

    The enlarged group of `form` is held through its exact sequence 1 ->
    S(E) -> O^el -> O^min -> 1, and `elements` is None.  `base` is the
    listed min group, and `kernel` is S(E) = ker L, L(g) = g - eps*g^*, as
    `selfadjoint_subgroup` holds it (closed-form generators, from the same
    per-entry table that `check_min` reads).  The group is the set of the
    lift(f).(1, s) = (f, gamma + s), f in O^min and s in S(E), lift(f) =
    (f, gamma) for the witness `check_min` returns.  Only the lifts in
    `generators` are kept: lift(x) for each generator x of the base, in its
    order, then the (1, s) for the generators s of S(E).  `lift`,
    `contains` and `head` find any other lift on demand, one `check_min`
    each.  `extension` is the report of `extension_check`, which certifies
    the set from the generators alone, and `checks` reads:
    - `closure`: the report's `closure_structured`;
    - `identity`: the base's, as (1, 0) satisfies (S);
    - `inverses`: closure, and el_inverse(a) satisfying (S) for each
      generator a, whose f lies in O^min, a closed finite set of units.
      The inverse of a product of generators (`extension_check`) is the
      product of their inverses in reverse;
    - `closure_products`: the base's, plus the products of ordered pairs of
      generators that `extension_check` forms;
    - `closure_generators`: the number of generators, at most log2 of the
      order, as each base generator at least doubles the subgroup reached
      and each echelon row at least doubles S(E).
    """

    variant: str
    order: int
    elements: list | None
    checks: dict
    generators: list
    base: EnumeratedGroup | None = None
    kernel: MatSubgroup | None = None
    form: QuadFormEl | None = None
    extension: dict | None = None

    @property
    def base_order(self) -> int | None:
        return None if self.base is None else self.base.order

    @property
    def kernel_order(self) -> int | None:
        return None if self.kernel is None else self.kernel.size

    def lift(self, f: Mat) -> ElMorphism:
        """lift(f) = (f, check_min(f)) for f in O^min.  Every f of the
        certified O^min has a witness, so a missing one is an internal
        failure, never a fibre to skip."""
        gamma = check_min(f, self.form)
        if gamma is None:
            raise AssertionError("an f of the certified O^min has no witness for (S)")
        return ElMorphism(self.form, f, gamma, check=False)

    def contains(self, m: ElMorphism) -> bool:
        """Whether the pair m lies in the enlarged group: m.f in O^min and
        m.gamma - lift(m.f).gamma in S(E)."""
        return m.f in self.base.elements and self.kernel.contains(m.gamma - self.lift(m.f).gamma)

    def head(self, count: int) -> list:
        """The first `count` elements in key order.  Those of the enlarged
        group come from the fibres of the least f, one fibre at a time, each
        the coset lift(f).gamma + S(E) sorted, with lift(f) found when its
        fibre is read.  This lists S(E), under the `subgroup enumeration`
        cap; the subgroup keeps the list, so it is made once per (ring, eps,
        n), and it is the one listing of S(E) left on this path.
        `el_elements` lists the whole group this way."""
        if self.elements is not None:
            return self.elements[:count]
        out = []
        se = self.kernel.elements()
        for f in self.base.elements:
            if len(out) >= count:
                break
            gamma = self.lift(f).gamma
            fibre = (ElMorphism(self.form, f, gamma + s, check=False) for s in se)
            out += sorted(fibre, key=ElMorphism.key)[:count - len(out)]
        return out

    def to_json(self):
        doc = {
            "variant": self.variant,
            "order": self.order,
            "checks": self.checks,
        }
        if self.base_order is not None:
            doc["order_min"] = self.base_order
            doc["order_kernel"] = self.kernel_order
        doc["elements_preview"] = [
            m.to_strs() if isinstance(m, Mat) else [m.f.to_strs(), m.gamma.to_strs()]
            for m in self.head(16)
        ]
        if self.extension is not None:
            doc["extension"] = dict(self.extension)
        return doc


def verify_group_axioms(elements, compose, inverse, identity):
    """Exact identity / inverse / closure checks by Dimino's coset closure.

    `compose` must be associative with `identity` as its neutral element.
    The reached set starts at the identity.  The elements are walked in
    order; each one x not yet reached becomes a generator and opens a stage
    (Dimino's algorithm; G. Butler, Fundamental Algorithms for Permutation
    Groups, LNCS 559, 1991).  Let H be the set reached before x.  The stage
    forms the coset H.x; then, for each representative r (x and those found
    after it) and each generator s, it forms r.s, and an r.s not yet reached
    becomes a new representative whose coset H.(r.s) is formed.  Elements
    already reached are skipped.  Every product formed must lie in the set;
    one outside proves `closure` false and ends the walk.

    Exactness.  H is closed under the product: for the first stage H = {1},
    and the stage that reached H proved it.  Every element reached in a
    stage is h.r, and every r.s is some h'.r' with r' a representative or
    1, so (h.r).s = (h.h').r' lies in H.r', which was formed, or in H.
    So the reached set R is closed under right multiplication by the
    generators, and, each member being a word in them, under the product.
    Only associativity and the closure of H are used, so this holds when
    cosets overlap or a generator has no inverse.  R covers the set, and
    every member of R but 1 was formed and found in the set, so the set is
    closed when it holds 1.  When it does not, it is closed unless a.b = 1
    for two members.  In the finite closed R the powers of a repeat and
    a^n.b^n = 1, so a^k = 1 for some k >= 2: a is a unit, and then so is
    some generator.  In the first stage whose generator x is a unit, H
    holds no unit but 1, so a unit h.r of the stage has h = 1: each unit of
    the stage but 1 is a representative.  With x^k = 1, the representative
    product x^(k-1).x = 1 was then formed, and the walk stopped there.

    Computed: `identity`, 1 in the set, and `closure`, by the walk.
    `inverses` is computed on the generators only when closure holds, and
    follows from algebra for the rest: each member is a word in the
    generators, so a unit when they are, and the powers of a unit a of the
    finite closed set repeat, a^i = a^j with i < j, so a^k = 1 for k = j - i
    >= 1 and a^-1 = a^(k-1) lies in the set.  When the walk ends early,
    `inverses` is computed on every element: inverse(x) in the set, the
    definition itself.

    Returns the report and the generators, in the order they were picked.

    Cost on a group G: the cosets of H in the stage's subgroup H' are
    disjoint, so the stage forms |H'| - |H| - (its representatives) coset
    products (1.r = r is not formed).  Each generator lies outside the
    subgroup reached before it, so it at least doubles it (Lagrange): there
    are at most log2|G| generators, and H of stage i has at least 2^(i-1)
    >= i elements.  So the i representative products of each of the
    stage's [H' : H] - 1 representatives number at most |H'| - |H|, and
    over all stages `closure_products` is at most 2(|G| - 1).  These are
    all the products formed, and `inverse` is called once per generator.
    """
    elem_set = set(elements)
    reached = {identity: None}  # an insertion-ordered set
    gens = []
    products = 0

    def coset(stage, r):
        # H.r for the stage's H; 1.r = r is reached already
        nonlocal products
        for h in stage[1:]:
            p = compose(h, r)
            products += 1
            if p not in elem_set:
                return False
            reached[p] = None
        return True

    def represent(stage, reps, r, s):
        # r.s, which opens a new coset when it is not yet reached
        nonlocal products
        t = compose(r, s)
        products += 1
        if t not in elem_set:
            return False
        if t in reached:
            return True
        reached[t] = None
        reps.append(t)
        return coset(stage, t)

    closure = True
    for x in elements:
        if x in reached:
            continue
        gens.append(x)
        stage = list(reached)
        reached[x] = None
        reps = [x]
        closure = coset(stage, x)
        i = 0
        while closure and i < len(reps):
            closure = all(represent(stage, reps, reps[i], s) for s in gens)
            i += 1
        if not closure:
            break
    return {
        "identity": identity in elem_set,
        "inverses": all(inverse(x) in elem_set for x in (gens if closure else elements)),
        "closure": closure,
        "closure_products": products,
        "closure_generators": len(gens),
    }, gens


def enumerate_group(variant: str, form) -> EnumeratedGroup:
    """Exhaustive orthogonal group of the given variant, with its certificate
    (see `EnumeratedGroup`).  The enlarged group solves one `check_min` per
    generator of O^min while it is built, and none for any other f."""
    if variant == "el":
        q = form
        base = enumerate_group("min", q)
        kernel = selfadjoint_subgroup(q.ring, q.eps, q.n)
        group = EnumeratedGroup("el", base.order * kernel.size, None, {}, [], base, kernel, q)
        ident = Mat.identity(q.ring, q.n)
        group.generators = [group.lift(x) for x in base.generators] + [
            ElMorphism(q, ident, s, check=False) for s in kernel.generators()]
        group.extension = extension_check(q, group)
        closure = group.extension["closure_structured"]
        group.checks = {
            "identity": base.checks["identity"],
            "inverses": closure and all(
                satisfies_S(q, b.f, b.gamma) for b in map(el_inverse, group.generators)),
            "closure": closure,
            "closure_products": base.checks["closure_products"] + len(group.generators) ** 2,
            "closure_generators": len(group.generators),
        }
        return group
    if variant == "max":
        elems = enumerate_unitary(form if isinstance(form, HermForm) else form.associated())
    elif variant == "min":
        elems = enumerate_orthogonal_min(form)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    checks, gens = verify_group_axioms(elems, lambda a, b: a * b, invert,
                                       Mat.identity(form.ring, form.n))
    return EnumeratedGroup(variant, len(elems), elems, checks, gens)


def extension_check(q: QuadFormEl, group: EnumeratedGroup | None = None) -> dict:
    """Certify 1 -> S(E) -> O^el -> O^min -> 1, and with it the enlarged group.

    `group` is what `enumerate_group("el", q)` builds, which runs this check
    on it; without `group` the group is enumerated and its report returned.
    Only O^min is listed, and nothing is computed per f of it.  Write d(f) =
    f^* phi0 f - phi0 and L(g) = g - eps*g^*, so that (S) reads L(gamma) =
    d(f).

    Computed, on the generators G only, laid out as `EnumeratedGroup` says:
    the lifts a_i, one per generator x_i of the base, then the (1, s).
    Each a_i lies over x_i and satisfies (S).  The kernel equals ker L as a
    set (equal orders, and every generator of the kernel in ker L), and the
    generators over 1 are the (1, s) of its generators.  ker L is
    `selfadjoint_subgroup`, whose generators come from the per-entry table
    that `check_min` reads, and `enumerate_group` takes the kernel from it,
    so the comparison catches only a kernel that is not S(E) in the data
    passed in.  Each product compose_el(a, b) of an ordered pair of G, of the four
    kinds lift.lift, lift.(1, s), (1, s).lift and (1, s).(1, t), lies over
    a.f.b.f and satisfies (S).  For each a_i over x and generator s of
    S(E): (1, s).a_i = (x, a_i.gamma + x^* s x), and phi^-1 x^* s x = x^-1
    (phi^-1 s) x when x is unitary for an invertible phi.

    Taken from algebra.  ker L = S(E): L(g) = 0 is g = eps*g^*, that is
    g^* = eps*g (apply ^*, an involution); so S(E) is also the set of
    solutions of (S) over 1, as d(1) = 0.  compose_el forms (f,
    gamma).(g, zeta) = (fg, zeta + g^* gamma g), an associative product on
    the pairs with f invertible, with neutral (1, 0) and inverse
    el_inverse; the products on G exercise that code.  Closure of the
    solutions of (S) is the identity d(fg) = g^* d(f) g + d(g), with L(g^*
    x g) = g^* L(x) g: when (f, gamma) and (g, zeta) satisfy (S), L(zeta +
    g^* gamma g) = d(g) + g^* d(f) g = d(fg).  O^min is closed (its Dimino
    certificate) and generated by the x_i, so each f of it is a product of
    them (in a finite group no inverse is needed), and the product of
    their lifts is a pair over f that satisfies (S): every f has a
    witness, and `check_min` finds lift(f) = (f, w_f).  As L is additive,
    the witnesses of f are w_f + ker L.  So, with S(E) = ker L, the set of
    lift(f).(1, s) = (f, w_f + s) is all of O^el, and it is closed: the
    product of (f, w_f + s) and (g, w_g + t) is (fg, w_fg + u) with u =
    (w_g + g^* w_f g - w_fg) + t + g^* s g, and each of the three terms
    lies in ker L, the first by the identity, the last as L(g^* s g) = g^*
    L(s) g = 0.  Each member is then a product of generators: f is a
    product of the x_i, the product of their lifts lies over f, and so
    differs from lift(f) by a kernel element, a sum of generators of S(E).

    The kernel action c_a(k) = a^-1 k a, for a lift a over x.  k.a = a.(1,
    t) says c_a(k) = (1, t), and a.(1, t) = (x, a.gamma + t).  c_a is
    additive on the kernel, and so is s -> x^* s x, so agreement on the
    generators of S(E) is agreement on S(E).  lift(fg) = lift(f).lift(g).k0
    for some k0 in the kernel, which is abelian, so c_lift(fg) = c_lift(g) o
    c_lift(f): s -> g^* f^* s f g = (fg)^* s (fg), and every f is a product
    of the base's generators.  The phi^-1 form follows the same way.

    Keys: `order_el` is |O^min|.|ker L| when every a_i lies over x_i and
    satisfies (S), which lifts every f, and None otherwise, where the proof
    bounds nothing; `witness_cosets_exhaustive` is every a_i so and S(E) =
    ker L; `projection_surjective` is the a_i lying over the x_i, which
    generate O^min; `projection_homomorphism` is (S) on every a_i, and
    every product on G over the product of the f's and satisfying (S);
    `kernel_matches_SE` is S(E) = ker L, the fibre over 1, with the
    generators over 1 the (1, s) of its generators; `closure_structured` is
    the closure above: O^min closed, `witness_cosets_exhaustive`,
    `projection_surjective` and `projection_homomorphism`.
    """
    if group is None:
        return dict(enumerate_group("el", q).extension)
    base, kernel = group.base, group.kernel
    lift_gens = group.generators[:len(base.generators)]
    kernel_gens = group.generators[len(base.generators):]
    ker_l = selfadjoint_subgroup(q.ring, q.eps, q.n)
    same_kernel = ker_l.size == kernel.size and all(map(ker_l.contains, kernel.generators()))
    over = [a.f for a in lift_gens] == base.generators
    holds = all(satisfies_S(q, a.f, a.gamma) for a in lift_gens)
    report = {
        "order_min": base.order,
        "order_kernel": kernel.size,
        "order_el": base.order * ker_l.size if over and holds else None,
    }
    report["order_product_law"] = report["order_el"] == kernel.size * base.order
    report["witness_cosets_exhaustive"] = over and holds and same_kernel
    report["projection_surjective"] = over

    products = {(a, b): compose_el(a, b) for a in group.generators for b in group.generators}
    report["projection_homomorphism"] = holds and all(
        c.f == a.f * b.f and satisfies_S(q, c.f, c.gamma) for (a, b), c in products.items())
    ident = Mat.identity(q.ring, q.n)
    report["kernel_matches_SE"] = same_kernel and kernel_gens == [
        ElMorphism(q, ident, s, check=False) for s in kernel.generators()]
    report["closure_structured"] = (
        base.checks["closure"]
        and report["witness_cosets_exhaustive"]
        and report["projection_surjective"]
        and report["projection_homomorphism"]
    )

    action_ok = True
    herm = q.associated()
    inv_phi = herm.inverse()
    for a in lift_gens:
        x = a.f
        xinv = invert(x) if inv_phi is not None and check_max(x, herm) else None
        for k in kernel_gens:
            c = products[k, a]
            expected = x.star() * k.gamma * x
            if c.f != x or c.gamma - a.gamma != expected:
                action_ok = False
            if xinv is not None and inv_phi * expected != xinv * (inv_phi * k.gamma) * x:
                action_ok = False
    report["kernel_action_matches_conjugation"] = action_ok
    report["passed"] = all(
        v for v in report.values() if isinstance(v, bool)
    )
    return report


def split_section(g: Mat, q: QuadFormEl) -> ElMorphism:
    """s(g) = (g, lambda*(g^* phi0 g - phi0)) for the ring's split unit lambda."""
    lam = q.ring.find_split_unit()
    if lam is None:
        raise ValueError("ring has no split unit")
    gamma = (g.star() * q.phi0 * g - q.phi0).scale_left(lam)
    return ElMorphism(q, g, gamma, check=True)


def section_homomorphism_report(q: QuadFormEl) -> dict:
    """Exhaustively verify s(g.h) = s(g).s(h) and projection.s = id."""
    omin = enumerate_orthogonal_min(q)
    sections = {g: split_section(g, q) for g in omin}
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
    """m over A as a matrix over A(e)."""
    zero = ring_e.base.zero
    return m.map_entries(lambda a: ring_e.pair(a, zero), ring=ring_e)


def _times_e(ring_e: DualRing, m: Mat) -> Mat:
    """m*e over A(e), for m over A."""
    zero = ring_e.base.zero
    return m.map_entries(lambda a: ring_e.pair(zero, a), ring=ring_e)


def dual_numbers_iso(q: QuadFormEl) -> dict:
    """Identify O^el(E) with O^max(E(e)) via (f, gamma) -> f.(1 + u1 e).

    O^max(E(e)) is listed by `enumerate_unitary` over A(e), conj e = -e,
    with no use of the extension.  u1 = phi^{-1}(gamma - gamma_s(f)) is the
    kernel coordinate of (f, gamma) against the split section s(f) = (f,
    gamma_s(f)), built once per f.  Homomorphy is verified on the
    generating pair families of the semidirect decomposition plus the
    decomposition identity itself, which covers all products.
    """
    ring = q.ring
    herm = q.associated()
    inv_phi = herm.inverse()
    elems, omin, se = el_elements(q)
    sections = {g: split_section(g, q) for g in omin}
    ring_e = DualRing(ring, "-e")
    herm_e = HermForm(ring_e, q.eps, _embed_dual(ring_e, herm.phi))
    dual_unitaries = enumerate_unitary(herm_e)
    ident_e = Mat.identity(ring_e, q.n)

    def image(m: ElMorphism) -> Mat:
        u1 = inv_phi * (m.gamma - sections[m.f].gamma)
        return _embed_dual(ring_e, m.f) * (ident_e + _times_e(ring_e, u1))

    images = {m: image(m) for m in elems}
    image_set = set(images.values())
    report = {
        "order_el": len(elems),
        "order_dual_max": len(dual_unitaries),
        "orders_equal": len(elems) == len(dual_unitaries),
        "injective": len(image_set) == len(elems),
        "surjective": image_set == set(dual_unitaries),
    }

    ident = Mat.identity(ring, q.n)
    kernel = [ElMorphism(q, ident, s, check=False) for s in se]
    hom_ok = True

    def hom_pair(a, b):
        return images[compose_el(a, b)] == images[a] * images[b]

    for a in kernel:
        for b in kernel:
            hom_ok = hom_ok and hom_pair(a, b)
    for s in sections.values():
        for k in kernel:
            hom_ok = hom_ok and hom_pair(s, k) and hom_pair(k, s)
    for s in sections.values():
        for t in sections.values():
            hom_ok = hom_ok and hom_pair(s, t)
    decomposition = all(
        compose_el(
            sections[m.f],
            ElMorphism(q, ident, m.gamma - sections[m.f].gamma, check=False),
        )
        == m
        for m in elems
    )
    report["homomorphism_on_generating_pairs"] = hom_ok
    report["semidirect_decomposition"] = decomposition

    # kernel description over the dual numbers: 1 + u e unitary iff u = u^*
    kernel_ok = True
    for s in se:
        u = inv_phi * s
        if not check_max(ident_e + _times_e(ring_e, u), herm_e):
            kernel_ok = False
    report["kernel_selfadjoint_unitary"] = kernel_ok
    report["passed"] = all(v for v in report.values() if isinstance(v, bool))
    return report


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
