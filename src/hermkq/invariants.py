"""Discrete invariants: Gamma/Lambda, the Xi group, Arf, Dickson, and
rank-bounded Witt / Grothendieck-Witt classification by exhaustive orbits.

The Xi group is presented on the b^2 products g_i@g_j of a polycyclic
generating set of Gamma/Lambda, b <= log2 |Gamma/Lambda|; `xi_char2_field`
presents it on all pairs of field elements, as an independent check.

The classification lists the nondegenerate objects of each rank and walks
their GL_n congruence orbits.  Max objects are the even nondegenerate phi
with phi^* = eps*phi, generated entry by entry and inverted once each.  A
min object determines its max object, its hermitian part phi0 + eps*phi0^*.
Min objects are the canonical representatives of M_n(R) modulo the shift
subgroup S = {gamma - eps*gamma^*}, read off its closed form
(`forms.ShiftSubgroup`): the strict upper triangle zero, the diagonal over
R/Lambda, the strict lower triangle free.  So they are listed as the fibres
over the max objects, from the one enumeration.  The orbit walk applies a
small generating set of GL_n (transvections along a cycle of coordinates
and the unit scalings of one coordinate) as one row and one column
operation on row-major tuples, and puts min classes back in canonical form
by the same closed form, so no n x n product and no echelon reduction is
formed per step; orbits are kept as indices into the key-sorted
representatives, so no key is formed either.  Adding H to an orbit's
representative moves it two ranks up; that chain ends at a top orbit, and
the orbits with one top form one stable class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .additive import _listed_quotient, additive_basis
from .caps import Unsupported, check_cap
from .forms import (
    QuadFormEl,
    hyperbolic,
    shift_subgroup,
)
from .groups import check_min
from .linalg import Mat, diag_block, invert, rank_over_field
from .rings import Ring
from .snf import smith_normal_form

# ---------------------------------------------------------------------------
# Gamma, Lambda and the Xi group


@dataclass
class GammaLambda:
    ring: Ring
    eps: int
    gamma: list
    lam: list
    reps: list  # coset representatives of Gamma/Lambda, reps[0] = 0
    coset: dict  # element of Gamma -> its representative

    @property
    def quotient_order(self) -> int:
        return len(self.reps)

    def rep_add(self, a, b):
        return self.coset[self.ring.add(a, b)]

    def to_json(self):
        R = self.ring
        return {
            "gamma_order": len(self.gamma),
            "lambda_order": len(self.lam),
            "quotient_order": len(self.reps),
            "quotient_reps": [R.to_str(r) for r in self.reps],
        }


def gamma_lambda(ring: Ring, eps: int) -> GammaLambda:
    """Gamma = {a : conj(a) = eps*a}, Lambda = {b - eps*conj(b)}.  Lambda is
    the image of an additive map, so it is a subgroup as it stands.

    Raises Unsupported unless Lambda lies in Gamma, that is 2*Lambda = 0,
    and ValueError for an eps outside {1, -1}."""
    if eps not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if ring.size is None:
        raise Unsupported("gamma_lambda needs a finite ring")
    check_cap(ring.size, "gamma_lambda scan")
    gamma = [a for a in ring.elements() if ring.conj(a) == _scale(ring, eps, a)]
    lam_set = {_sub_scaled(ring, b, eps) for b in ring.elements()}
    gamma_set = set(gamma)
    if not lam_set <= gamma_set:
        # every element b - eps*conj(b) of Lambda has conj(x) = -eps*x
        raise Unsupported("Gamma/Lambda needs Lambda inside Gamma, that is 2*Lambda = 0; "
                          f"it fails over this ring at epsilon {eps}")
    reps, coset = _listed_quotient(ring, gamma, lam_set)
    return GammaLambda(ring, eps, gamma, sorted(lam_set, key=ring.to_str), reps, coset)


def _scale(ring, eps, a):
    return a if eps == 1 else ring.neg(a)


def _sub_scaled(ring, b, eps):
    return ring.sub(b, _scale(ring, eps, ring.conj(b)))


class AbelianGroupPresentation:
    """Finitely presented abelian group: generators plus integer relations."""

    def __init__(self, labels: list[str], relations: list[list[int]]):
        self.labels = labels
        self.relations = [list(r) for r in relations]
        k = len(labels)
        rel = self.relations if self.relations else [[0] * k]
        d, v = smith_normal_form(rel)
        m = len(rel)
        diag = [d[i][i] for i in range(min(m, k))] + [0] * max(0, k - m)
        self._diag = diag[:k]
        self._v = v  # change of generator coordinates: y = x V
        factors = [x for x in self._diag if x > 1]
        self.invariant_factors = sorted(factors)
        self.free_rank = sum(1 for x in self._diag if x == 0)

    @property
    def order(self) -> int | None:
        if self.free_rank:
            return None
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    def normal_form(self, vec) -> tuple:
        """Canonical coordinates of a Z-combination of generators."""
        k = len(self.labels)
        y = [sum(vec[i] * self._v[i][j] for i in range(k)) for j in range(k)]
        out = []
        for i, d in enumerate(self._diag):
            out.append(y[i] % d if d > 0 else y[i])
        return tuple(out)

    def is_zero(self, vec) -> bool:
        return not any(self.normal_form(vec))

    def same_group(self, other: "AbelianGroupPresentation") -> bool:
        return (
            self.invariant_factors == other.invariant_factors
            and self.free_rank == other.free_rank
        )

    def label(self) -> str:
        parts = [f"Z/{f}" for f in self.invariant_factors]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        return " x ".join(parts) if parts else "0"

    def to_json(self):
        return {
            "generators": len(self.labels),
            "relations": len(self.relations),
            "invariant_factors": self.invariant_factors,
            "free_rank": self.free_rank,
            "group": self.label(),
        }


def xi_group(ring: Ring, eps: int) -> AbelianGroupPresentation:
    """Bak's 2-torsion obstruction group, presented on generators of Gamma/Lambda.

    Xi is (Gamma/Lambda) tensor_A (Gamma/Lambda) modulo the symmetry
    relations a@b - b@a and the quadratic relations a@b - a@(b a conj(b)).
    Tensoring over A balances the twisted actions: (conj(x) a x)@b =
    a@(x b conj(x)) for every x in A.

    A greedy walk over the representatives keeps each one outside the span
    reached so far as a generator g_i, with the polycyclic relation
    m_i*g_i = sum_{j<i} c_j*g_j.  So b <= log2 |Gamma/Lambda| generators
    give every class integer coordinates.  The tensor square of a finite
    abelian group is generated by the b^2 symbols g_i@g_j and presented by
    each relation tensored with each g_j on either side (Lang, Algebra,
    ch. XVI); then a@b = sum a_i b_j g_i@g_j, and no biadditivity row is
    needed.  The balancing and symmetry relations are additive in a and in
    b, so generator pairs suffice, with x over all of A.  The quadratic
    relation is additive in a only: a runs over the generators and b over
    every representative.  The cells of all rows are checked against the
    cap ("xi relations") before any row is built.
    """
    if not ring.is_commutative:
        raise Unsupported("xi_group is restricted to commutative rings")
    gl = gamma_lambda(ring, eps)
    mul, conj = ring.mul, ring.conj
    gens, polycyclic, span = [], [], {gl.reps[0]: ()}  # class -> coordinates
    for g in gl.reps:
        if g in span:
            continue
        multiples = [g]  # t*g for t = 1, ..., m
        while multiples[-1] not in span:
            multiples.append(gl.rep_add(multiples[-1], g))
        gens.append(g)
        polycyclic.append(tuple(-c for c in span[multiples[-1]]) + (len(multiples),))
        span = {gl.rep_add(s, tg): c + (t,) for s, c in span.items()
                for t, tg in enumerate([gl.reps[0]] + multiples[:-1])}
    b, k = len(gens), len(gl.reps)
    # 2b^2 polycyclic, |A|b^2 balancing, b^2 symmetry and bk quadratic rows
    check_cap(((3 + ring.size) * b * b + b * k) * b * b, "xi relations")
    zero = (0,) * b
    unit = [zero[:i] + (1,) + zero[i + 1:] for i in range(b)]

    def co(a):  # the coordinates of the class of a in Gamma/Lambda
        return span[gl.coset[a]]

    def row(u, v, u2=zero, v2=zero):  # u@v - u2@v2 in the symbols g_p@g_q
        return [x * y - x2 * y2 for x, x2 in zip(u, u2) for y, y2 in zip(v, v2)]

    polycyclic = [rel + zero[len(rel):] for rel in polycyclic]
    relations = [r for rel in polycyclic for e in unit for r in (row(rel, e), row(e, rel))]
    for x in ring.elements():
        right = [co(mul(mul(conj(x), g), x)) for g in gens]
        left = [co(mul(mul(x, g), conj(x))) for g in gens]
        relations += [row(u, f, e, v) for u, e in zip(right, unit) for v, f in zip(left, unit)]
    relations += [row(e, f, f, e) for e in unit for f in unit]
    relations += [row(e, co(r), e, co(mul(mul(r, g), conj(r))))
                  for g, e in zip(gens, unit) for r in gl.reps]
    labels = [f"{ring.to_str(g)}@{ring.to_str(h)}" for g in gens for h in gens]
    return AbelianGroupPresentation(labels, relations)


def xi_char2_field(ring: Ring) -> AbelianGroupPresentation:
    """Independent char-2 presentation: A tensor_Z A modulo a@b - b@a,
    a@b - a@(b^2 a) and (c^2 a)@b - a@(c^2 b).  Its k^2 generators, k = |A|,
    and the cells of its 3k^3 + 2k^2 relation rows are checked against the
    cap before any row is built."""
    if not ring.is_field or ring.char != 2:
        raise Unsupported("xi_char2_field needs a field of characteristic 2")
    if not ring.trivial_involution:
        raise Unsupported("xi_char2_field needs the trivial involution")
    elems = ring.elements()
    k = len(elems)
    check_cap(k * k, "xi generators")
    check_cap((3 * k**3 + 2 * k**2) * k * k, "xi relations")
    idx = {e: i for i, e in enumerate(elems)}
    ngen = k * k

    def gen(a, b):
        return idx[a] * k + idx[b]

    relations = []
    for a in elems:
        for b in elems:
            s = ring.add(a, b)
            for c in elems:
                r = [0] * ngen
                r[gen(s, c)] += 1
                r[gen(a, c)] -= 1
                r[gen(b, c)] -= 1
                relations.append(r)
                r = [0] * ngen
                r[gen(c, s)] += 1
                r[gen(c, a)] -= 1
                r[gen(c, b)] -= 1
                relations.append(r)
    for a in elems:
        for b in elems:
            r = [0] * ngen
            r[gen(a, b)] += 1
            r[gen(b, a)] -= 1
            relations.append(r)
            b2a = ring.mul(ring.mul(b, b), a)
            r = [0] * ngen
            r[gen(a, b)] += 1
            r[gen(a, b2a)] -= 1
            relations.append(r)
    for c in elems:
        c2 = ring.mul(c, c)
        for a in elems:
            for b in elems:
                r = [0] * ngen
                r[gen(ring.mul(c2, a), b)] += 1
                r[gen(a, ring.mul(c2, b))] -= 1
                relations.append(r)
    labels = [f"{ring.to_str(a)}@{ring.to_str(b)}" for a in elems for b in elems]
    return AbelianGroupPresentation(labels, relations)


# ---------------------------------------------------------------------------
# Arf invariant over characteristic-2 fields


@dataclass
class ArfGroup:
    """G = F / span{a^2 - a}: coset representatives and reduction."""

    ring: Ring
    reps: list
    coset: dict

    def of(self, elem):
        return self.coset[elem]

    @property
    def order(self):
        return len(self.reps)


_ARF_CACHE: dict = {}


def arf_group(ring: Ring) -> ArfGroup:
    key = ring.key()
    if key in _ARF_CACHE:
        return _ARF_CACHE[key]
    if not ring.is_field or ring.char != 2:
        raise Unsupported("Arf needs a field of characteristic 2")
    if not ring.trivial_involution:
        raise Unsupported("Arf needs the trivial involution")
    # a -> a^2 - a is additive in characteristic 2: its image is a subgroup
    image = {ring.sub(ring.mul(a, a), a) for a in ring.elements()}
    out = ArfGroup(ring, *_listed_quotient(ring, ring.elements(), image))
    _ARF_CACHE[key] = out
    return out


def _symplectic_pairs(q: QuadFormEl):
    ring = q.ring
    phi = q.associated().phi

    def pair(u, v):
        acc = ring.zero
        for i in range(q.n):
            row = phi.entries[i]
            ui = u[i]
            if ui == ring.zero:
                continue
            for j in range(q.n):
                if v[j] != ring.zero and row[j] != ring.zero:
                    acc = ring.add(acc, ring.mul(ring.mul(ui, row[j]), v[j]))
        return acc

    vectors = [
        tuple(ring.one if i == j else ring.zero for i in range(q.n))
        for j in range(q.n)
    ]

    def scale(v, c):
        return tuple(ring.mul(x, c) for x in v)

    def add(u, v):
        return tuple(ring.add(x, y) for x, y in zip(u, v))

    pairs = []
    remaining = list(vectors)
    while remaining:
        v1 = remaining.pop(0)
        partner = None
        for i, v in enumerate(remaining):
            c = pair(v1, v)
            if c != ring.zero:
                partner = i
                break
        if partner is None:
            raise AssertionError("no symplectic partner; form must be degenerate")
        v2 = remaining.pop(partner)
        v2 = scale(v2, ring.inv(pair(v1, v2)))  # normalize chi(v1, v2) = 1
        rest = []
        for u in remaining:
            u2 = add(u, add(scale(v1, pair(v2, u)), scale(v2, pair(v1, u))))
            rest.append(u2)
        remaining = rest
        pairs.append((v1, v2))
    return pairs


def arf(q: QuadFormEl) -> object:
    """Arf class: split q into planes a x^2 + xy + b y^2 and sum the a_i b_i.

    Returns the canonical representative in G = F / {a^2 - a}.  The ring must
    be a char-2 field with trivial involution; rank must be even and the form
    nondegenerate.
    """
    ring = q.ring
    group = arf_group(ring)
    if q.n % 2:
        raise ValueError("Arf needs an even-rank form")
    if not q.nondegenerate:
        raise ValueError("Arf needs a nondegenerate form")
    if q.n == 0:
        return group.of(ring.zero)
    phi0 = q.phi0

    def qval(v):
        acc = ring.zero
        for i in range(q.n):
            if v[i] == ring.zero:
                continue
            row = phi0.entries[i]
            for j in range(q.n):
                if v[j] != ring.zero and row[j] != ring.zero:
                    acc = ring.add(acc, ring.mul(ring.mul(v[i], row[j]), v[j]))
        return acc

    total = ring.zero
    for v1, v2 in _symplectic_pairs(q):
        total = ring.add(total, ring.mul(qval(v1), qval(v2)))
    return group.of(total)


def arf_zero_count_oracle(q: QuadFormEl) -> object:
    """Independent Arf oracle over F2: count the zeros of v -> v^t phi0 v."""
    ring = q.ring
    if ring.size != 2:
        raise ValueError("the zero-counting oracle is stated over F2")
    n = q.n
    zeros = 0
    for v in product(ring.elements(), repeat=n):
        acc = ring.zero
        for i in range(n):
            if v[i] == ring.zero:
                continue
            row = q.phi0.entries[i]
            for j in range(n):
                acc = ring.add(acc, ring.mul(ring.mul(v[i], row[j]), v[j]))
        if acc == ring.zero:
            zeros += 1
    plus = 2 ** (n - 1) + 2 ** (n // 2 - 1)
    minus = 2 ** (n - 1) - 2 ** (n // 2 - 1)
    if zeros == plus:
        return ring.zero
    if zeros == minus:
        return ring.one
    raise AssertionError(f"zero count {zeros} matches neither quadric type")


def arf_retraction_check(ring: Ring) -> dict:
    """a -> 1@a followed by a@b -> ab must be the identity on G = F/{a^2-a}."""
    group = arf_group(ring)
    xi = xi_char2_field(ring)
    elems = ring.elements()
    k = len(elems)
    idx = {e: i for i, e in enumerate(elems)}
    ok = True
    details = []
    for g in group.reps:
        # image of g under the section into Xi, then down via multiplication
        vec = [0] * (k * k)
        vec[idx[ring.one] * k + idx[g]] += 1
        # the multiplication map sends generator a@b to ab in G; evaluate on vec
        acc = ring.zero
        for a in elems:
            for b in elems:
                c = vec[idx[a] * k + idx[b]]
                if c % 2:
                    acc = ring.add(acc, ring.mul(a, b))
        img = group.of(acc)
        details.append({"element": ring.to_str(g), "image": ring.to_str(img)})
        if img != g:
            ok = False
    # the section must be well defined: 1@(a^2 - a) dies in Xi
    section_ok = True
    for a in elems:
        vec = [0] * (k * k)
        sq = ring.sub(ring.mul(a, a), a)
        vec[idx[ring.one] * k + idx[sq]] += 1
        if not xi.is_zero(vec):
            section_ok = False
    return {
        "group_order": group.order,
        "retraction_identity": ok,
        "section_well_defined": section_ok,
        "details": details,
        "passed": ok and section_ok,
    }


def dickson(f: Mat, q: QuadFormEl) -> int:
    """Dickson invariant rank(f + 1) mod 2 for f orthogonal to q."""
    ring = q.ring
    if not ring.is_field or ring.char != 2:
        raise Unsupported("Dickson needs a field of characteristic 2")
    if not ring.trivial_involution:
        raise Unsupported("Dickson needs the trivial involution")
    if check_min(f, q) is None:
        raise ValueError("f is not orthogonal for q")
    return rank_over_field(f + Mat.identity(ring, q.n)) % 2


# ---------------------------------------------------------------------------
# Orbit enumeration, Witt classes, Grothendieck-Witt monoid


def _gl_moves(ring: Ring, n: int) -> list[tuple]:
    """Generators of GL_n as (i, j, c): for i != j the transvection
    1 + c*e_ij along the cycle 0 -> 1 -> ... -> n-1 -> 0, c over an additive
    basis; for i == j == 0 the scaling of coordinate 0 by a unit c != 1.

    They generate GL_n(R) for every finite ring R:
    - products of 1 + c*e_ij over the additive basis give 1 + x*e_ij for
      every x in R;
    - the commutator [1 + a*e_ij, 1 + b*e_jk] = 1 + ab*e_ik (i, j, k
      distinct), with b = 1, walks the cycle to every elementary matrix, so
      they generate E_n(R) (at n = 2 the cycle holds e_01 and e_10 itself);
    - GL_n(R) = E_n(R) GL_1(R), with GL_1 the scalings of coordinate 0, for
      every ring of stable range 1, which includes every finite ring (Bass,
      "K-theory and stable algebra", Publ. IHES 22, 1964);
    - the group is finite, so each inverse is a positive power of its
      element, and a closure under the generators alone, with no inverses,
      reaches the whole group orbit.
    """
    basis = additive_basis(ring).basis
    units = [u for u in ring.elements() if u != ring.one and ring.inv(u) is not None]
    cycle = [(i, (i + 1) % n, c) for i in range(n) for c in basis] if n > 1 else []
    return cycle + [(0, 0, u) for u in units]


def _congruence(ring: Ring, n: int, flat: tuple, move: tuple) -> list:
    """g^* m g for the generator g of `move`, on a row-major tuple: one
    column operation (m g), then one row operation (g^* on the left)."""
    add, mul, conj = ring.add, ring.mul, ring.conj
    i, j, c = move
    out = list(flat)
    cc = conj(c)
    if i == j:
        for k in range(n):
            out[k * n + i] = mul(out[k * n + i], c)
        for k in range(i * n, i * n + n):
            out[k] = mul(cc, out[k])
    else:
        for k in range(n):
            out[k * n + j] = add(out[k * n + j], mul(out[k * n + i], c))
        for k in range(n):
            out[j * n + k] = add(out[j * n + k], mul(cc, out[i * n + k]))
    return out


def _even_hermitian(ring: Ring, eps: int, n: int):
    """Yield the even nondegenerate phi with phi^* = eps*phi at rank n >= 1.

    phi with phi^* = eps*phi is even, phi = phi0 + eps*phi0^*, exactly when
    its diagonal lies in T = {a + eps*conj(a)}: off the diagonal take
    phi0_ij = phi_ij for i > j and 0 above.  So the candidates are generated
    directly: the diagonal in T, the strict lower triangle free and the
    strict upper triangle its eps-conjugate, |T|^n |R|^(n(n-1)/2) in all,
    each inverted once.
    """
    if ring.size is None:
        raise Unsupported("ring not enumerable")
    even = {ring.add(a, _scale(ring, eps, ring.conj(a))) for a in ring.elements()}
    lower = [(j, i) for i in range(n) for j in range(i + 1, n)]
    check_cap(len(even) ** n * ring.size ** len(lower), "matrix enumeration")
    rows = [[ring.zero] * n for _ in range(n)]
    for diag in product(even, repeat=n):
        for i in range(n):
            rows[i][i] = diag[i]
        for vals in product(ring.elements(), repeat=len(lower)):
            for (j, i), x in zip(lower, vals):
                rows[j][i] = x
                rows[i][j] = _scale(ring, eps, ring.conj(x))
            phi = Mat(ring, rows)
            if invert(phi) is not None:
                yield phi


def _min_class_reps(ring: Ring, eps: int, rank: int) -> list[Mat]:
    """Canonical representatives of nondegenerate min classes at one rank,
    sorted by Mat.key.

    A canonical representative (`forms.ShiftSubgroup`) has a diagonal d over
    the representatives of R/Lambda, zero above it and a free strict lower
    triangle l.  Its hermitian part rep + eps*rep^*, the max object it
    determines, keeps l below the diagonal, has its eps-conjugate above and
    tau(d) = d + eps*conj(d) on it.  tau vanishes on Lambda, so it takes
    R/Lambda onto T, and the representatives are the fibres over the max
    objects: each phi of `_even_hermitian` with its strict upper triangle
    cleared and each diagonal entry replaced by its tau-preimages.  As
    |R/Lambda| >= |T|, this count is checked first.
    """
    if rank == 0:
        return [Mat(ring, [])]
    n = rank
    shifts = shift_subgroup(ring, eps, n)
    check_cap(len(shifts.diagonal) ** n * ring.size ** (n * (n - 1) // 2),
              "coset representative enumeration")
    fibres: dict = {}
    for d in shifts.diagonal:
        fibres.setdefault(ring.add(d, _scale(ring, eps, ring.conj(d))), []).append(d)
    out = []
    for phi in _even_hermitian(ring, eps, n):
        rep = [[x if j < i else ring.zero for j, x in enumerate(row)]
               for i, row in enumerate(phi.entries)]
        for diag in product(*(fibres[phi.entries[i][i]] for i in range(n))):
            for i in range(n):
                rep[i][i] = diag[i]
            out.append(Mat(ring, rep))
    return sorted(out, key=Mat.key)


def _max_class_reps(ring: Ring, eps: int, rank: int) -> list[Mat]:
    """Even nondegenerate hermitian forms at one rank (the max objects),
    sorted by Mat.key."""
    if rank == 0:
        return [Mat(ring, [])]
    return sorted(_even_hermitian(ring, eps, rank), key=Mat.key)


def _orbits(ring, eps, rank, reps, variant):
    """Partition class representatives into congruence orbits by BFS.

    `reps` must be sorted by Mat.key, as `_min_class_reps` and
    `_max_class_reps` return them.  The walk runs on their row-major tuples
    and marks them by index: each generator acts by one row and one column
    operation, and min classes are put back in canonical form by the closed
    form of the shift subgroup.  Each orbit lists its members in input order,
    and the orbits come in the order of their first members, so both are in
    Mat.key order with no key formed.
    """
    if rank == 0:
        return [list(reps)]
    n = rank
    moves = _gl_moves(ring, n)
    canonical = shift_subgroup(ring, eps, n).canonical_flat if variant == "min" else tuple
    flats = [tuple(x for row in m.entries for x in row) for m in reps]
    index = {flat: k for k, flat in enumerate(flats)}
    seen = [False] * len(flats)
    orbits = []
    for start in range(len(flats)):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        frontier = [start]
        while frontier:
            cur = flats[frontier.pop()]
            for move in moves:
                k = index.get(canonical(_congruence(ring, n, cur, move)))
                if k is None:
                    raise AssertionError("orbit left the representative set")
                if not seen[k]:
                    seen[k] = True
                    members.append(k)
                    frontier.append(k)
        orbits.append([reps[k] for k in sorted(members)])
    return orbits


@dataclass
class WittTable:
    ring: Ring
    eps: int
    variant: str
    max_rank: int
    ranks: dict  # rank -> list of orbits (each a sorted list of canonical reps)
    stable_classes: list = field(default_factory=list)
    _index: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def class_of(self, rank: int, rep: Mat) -> int:
        """Index of the orbit that holds `rep` at `rank`; KeyError if none does."""
        if not self._index:
            self._index = {
                (r, m): i for r, orbs in self.ranks.items() for i, o in enumerate(orbs) for m in o
            }
        try:
            return self._index[(rank, rep)]
        except KeyError:
            raise KeyError("representative not classified") from None

    def sum_class(self, a: Mat, b: Mat) -> int:
        """Index of the orbit that holds a (+) b at rank a.rows + b.rows."""
        s = diag_block(self.ring, [a, b])
        # rank 0 has no entries to put in canonical form, and the shift
        # table's additive basis could refuse a large ring
        if self.variant == "min" and s.rows > 0:
            s = shift_subgroup(self.ring, self.eps, s.rows).coset_canonical(s)
        return self.class_of(s.rows, s)

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "epsilon": self.eps,
            "variant": self.variant,
            "max_rank": self.max_rank,
            "orbits_per_rank": {
                str(r): [len(o) for o in orbs] for r, orbs in self.ranks.items()
            },
            "stable_classes": self.stable_classes,
        }

    def to_table(self) -> str:
        lines = [
            f"Witt classes  variant={self.variant}  eps={self.eps}  "
            f"max_rank={self.max_rank}",
            f"{'class':>5}  {'min rank':>8}  {'orbit size':>10}  {'arf':>4}  representative",
        ]
        for c in self.stable_classes:
            lines.append(
                f"{c['class']:>5}  {c['min_rank']:>8}  {c['orbit_size']:>10}  "
                f"{str(c.get('arf', '-')):>4}  {c['representative']}"
            )
        return "\n".join(lines)


def witt_classify(ring: Ring, eps: int, variant: str, max_rank: int) -> WittTable:
    """Stable classes of nondegenerate forms modulo hyperbolics, rank <= max_rank.

    Partitions each rank into congruence orbits.  Each orbit up to rank
    max_rank - 2 has one edge, to the orbit of its representative plus H
    two ranks up, so following the edges from any orbit ends at a top orbit
    of rank max_rank or max_rank - 1.  A stable class is the set of orbits
    with one top; its members are sorted, and the classes come in the order
    of their least members.  A negative max_rank, or an eps outside {1, -1},
    is a ValueError.
    """
    if eps not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if variant == "el":
        variant = "min"  # enlarged and min Witt classes coincide object-wise
    if variant not in ("min", "max"):
        raise ValueError("variant must be min, max or el")
    if max_rank < 0:
        raise ValueError(f"max_rank must be at least 0, got {max_rank}")
    ranks = {}
    for r in range(max_rank + 1):
        reps = (
            _min_class_reps(ring, eps, r)
            if variant == "min"
            else _max_class_reps(ring, eps, r)
        )
        ranks[r] = _orbits(ring, eps, r, reps, variant) if reps else []
    table = WittTable(ring, eps, variant, max_rank, ranks)

    hyp = hyperbolic(ring, eps, 1)
    hyp_mat = hyp.phi0 if variant == "min" else hyp.associated().phi
    top = {}  # (rank, orbit index) -> the top orbit its chain of edges reaches
    for r in reversed(ranks):
        for i, orbit in enumerate(ranks[r]):
            up = (r + 2, table.sum_class(orbit[0], hyp_mat)) if r + 2 <= max_rank else None
            top[(r, i)] = top[up] if up else (r, i)
    classes: dict = {}
    for node in sorted(top):
        classes.setdefault(top[node], []).append(node)
    stable = []
    for members in classes.values():
        min_rank, idx = members[0]
        rep = ranks[min_rank][idx][0]
        entry = {
            "class": len(stable),
            "min_rank": min_rank,
            "orbit_size": len(ranks[min_rank][idx]),
            "members": [[r, i] for r, i in members],
            "representative": rep.to_strs(),
        }
        if (
            variant == "min"
            and ring.is_field
            and ring.char == 2
            and ring.trivial_involution
            and min_rank % 2 == 0
        ):
            entry["arf"] = ring.to_str(arf(QuadFormEl(ring, eps, rep)))
        stable.append(entry)
    table.stable_classes = stable
    return table


@dataclass
class GWTable:
    ring: Ring
    eps: int
    variant: str
    max_rank: int
    classes: list  # dicts: index, rank, orbit_size, representative
    sums: dict  # (i, j) -> k  indices into classes

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "epsilon": self.eps,
            "variant": self.variant,
            "max_rank": self.max_rank,
            "classes": self.classes,
            "sums": {f"{i}+{j}": k for (i, j), k in sorted(self.sums.items())},
        }


def grothendieck_witt_monoid(ring, eps, variant, max_rank) -> GWTable:
    """Isomorphism classes with their partial direct-sum table, rank-bounded."""
    table = witt_classify(ring, eps, variant, max_rank)
    first, reps, classes = {}, [], []  # first: rank -> index of its first class
    for r, orbits in table.ranks.items():
        first[r] = len(classes)
        for orbit in orbits:
            reps.append(orbit[0])
            classes.append({"index": len(classes), "rank": r, "orbit_size": len(orbit),
                            "representative": orbit[0].to_strs()})
    sums = {}
    for a, x in zip(classes, reps):
        for b, y in zip(classes, reps):
            r = a["rank"] + b["rank"]
            if r <= max_rank:
                sums[(a["index"], b["index"])] = first[r] + table.sum_class(x, y)
    return GWTable(ring, eps, table.variant, max_rank, classes, sums)
