"""Discrete invariants: Gamma/Lambda, the Xi group, Arf, Dickson, and
rank-bounded Witt / Grothendieck-Witt classification by exhaustive orbits.

The classification lists the objects of each rank and walks their GL_n
congruence orbits.  Min objects are the canonical representatives of
M_n(R) modulo the shift subgroup S = {gamma - eps*gamma^*}, read off its
closed form (`forms.ShiftSubgroup`): the strict upper triangle fixed, the
diagonal over R/Lambda, the strict lower triangle free.  Max objects are the
even nondegenerate phi with phi^* = eps*phi, generated entry by entry.  The
orbit walk applies each generator of GL_n (elementary transvections and unit
scalings) as one row and one column operation on row-major tuples, and puts
min classes back in canonical form by the same closed form, so no n x n
product and no echelon reduction is formed per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .additive import additive_basis
from .caps import CapExceeded, Unsupported, check_cap
from .forms import (
    QuadFormEl,
    direct_sum,
    hyperbolic,
    shift_subgroup,
)
from .groups import check_min
from .linalg import Mat, invert, rank_over_field
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
    """Gamma = {a : conj(a) = eps*a}, Lambda = span{b - eps*conj(b)}.

    Raises Unsupported unless Lambda lies in Gamma, that is 2*Lambda = 0."""
    if ring.size is None:
        raise CapExceeded("gamma_lambda needs a finite ring")
    check_cap(ring.size, "gamma_lambda scan")
    gamma = [a for a in ring.elements() if ring.conj(a) == _scale(ring, eps, a)]
    gens = {_sub_scaled(ring, b, eps) for b in ring.elements()}
    lam_set = {ring.zero}
    frontier = [ring.zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = ring.add(cur, g)
            if nxt not in lam_set:
                lam_set.add(nxt)
                frontier.append(nxt)
    gamma_set = set(gamma)
    if not lam_set <= gamma_set:
        # every generator b - eps*conj(b) of Lambda has conj(x) = -eps*x
        raise Unsupported("Gamma/Lambda needs Lambda inside Gamma, that is 2*Lambda = 0; "
                          f"it fails over this ring at epsilon {eps}")
    reps = []
    coset = {}
    for a in gamma:
        if a in coset:
            continue
        reps.append(a)
        for l in lam_set:
            coset[ring.add(a, l)] = a
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
        d, _, v = smith_normal_form(rel)
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


def xi_group(ring: Ring, eps: int, cap: int | None = None) -> AbelianGroupPresentation:
    """Bak's 2-torsion obstruction group, presented on Gamma/Lambda pairs.

    Quotient of (Gamma/Lambda) tensor_A (Gamma/Lambda) by the symmetry
    relations a@b - b@a and the quadratic relations a@b - a@(b a conj(b));
    tensoring over A uses the twisted actions x: gamma -> conj(x) gamma x
    (right) and gamma -> x gamma conj(x) (left).
    """
    if not ring.is_commutative:
        raise CapExceeded("xi_group is restricted to commutative rings")
    gl = gamma_lambda(ring, eps)
    reps = gl.reps
    k = len(reps)
    check_cap(k * k, "xi generators", cap)
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


def xi_char2_field(ring: Ring, cap: int | None = None) -> AbelianGroupPresentation:
    """Independent char-2 presentation: A tensor_Z A modulo a@b - b@a,
    a@b - a@(b^2 a) and (c^2 a)@b - a@(c^2 b)."""
    if not ring.is_field or ring.char != 2:
        raise ValueError("xi_char2_field needs a field of characteristic 2")
    if any(ring.conj(a) != a for a in ring.elements()):
        raise ValueError("xi_char2_field needs the trivial involution")
    elems = ring.elements()
    k = len(elems)
    check_cap(k * k, "xi generators", cap)
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
        raise ValueError("Arf needs a field of characteristic 2")
    if any(ring.conj(a) != a for a in ring.elements()):
        raise ValueError("Arf needs the trivial involution")
    gens = {ring.sub(ring.mul(a, a), a) for a in ring.elements()}
    span = {ring.zero}
    frontier = [ring.zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = ring.add(cur, g)
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    reps = []
    coset = {}
    for a in ring.elements():
        if a in coset:
            continue
        reps.append(a)
        for l in span:
            coset[ring.add(a, l)] = a
    out = ArfGroup(ring, reps, coset)
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
        raise ValueError("Dickson needs a field of characteristic 2")
    if check_min(f, q) is None:
        raise ValueError("f is not orthogonal for q")
    return rank_over_field(f + Mat.identity(ring, q.n)) % 2


# ---------------------------------------------------------------------------
# Orbit enumeration, Witt classes, Grothendieck-Witt monoid


def _gl_moves(ring: Ring, n: int) -> list[tuple]:
    """Generators of GL_n as (i, j, c): for i != j the transvection 1 + c*e_ij,
    c over an additive basis and its negatives (the inverses); for i == j the
    scaling of coordinate i by a unit c != 1 (closed under inverses).

    These generate GL_n over the shipped commutative rings (fields and Z/m).
    """
    basis = additive_basis(ring).basis
    coeffs = list(dict.fromkeys(basis + [ring.neg(b) for b in basis]))
    units = [u for u in ring.elements() if u != ring.one and ring.inv(u) is not None]
    return [(i, j, c) for i in range(n) for j in range(n) if i != j for c in coeffs] + [
        (i, i, u) for i in range(n) for u in units
    ]


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


def _min_class_reps(ring: Ring, eps: int, rank: int, cap=None) -> list[Mat]:
    """Canonical representatives of nondegenerate min classes at one rank.

    Representatives that differ only inside the kernel of a -> a + eps*conj(a)
    on the diagonal share their hermitian form, so each form is inverted once.
    """
    if rank == 0:
        return [Mat(ring, [])]
    nondegenerate = {}
    out = []
    for rep in shift_subgroup(ring, eps, rank).coset_reps_all(cap):
        phi = rep + rep.star().scale_sign(eps)
        if phi not in nondegenerate:
            nondegenerate[phi] = invert(phi) is not None
        if nondegenerate[phi]:
            out.append(rep)
    return out


def _max_class_reps(ring: Ring, eps: int, rank: int, cap=None) -> list[Mat]:
    """Even nondegenerate hermitian forms at one rank (the max objects).

    phi with phi^* = eps*phi is even, phi = phi0 + eps*phi0^*, exactly when
    its diagonal lies in T = {a + eps*conj(a)}: off the diagonal take
    phi0_ij = phi_ij for i < j and 0 below.  So the candidates are generated
    directly: the diagonal in T, the strict upper triangle free and the
    strict lower triangle its eps-conjugate, |T|^n |R|^(n(n-1)/2) in all.
    """
    if rank == 0:
        return [Mat(ring, [])]
    if ring.size is None:
        raise CapExceeded("ring not enumerable")
    n = rank
    even = {ring.add(a, _scale(ring, eps, ring.conj(a))) for a in ring.elements()}
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    check_cap(len(even) ** n * ring.size ** len(upper), "matrix enumeration", cap)
    out = []
    for diag in product(even, repeat=n):
        for vals in product(ring.elements(), repeat=len(upper)):
            rows = [[ring.zero] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            for (i, j), x in zip(upper, vals):
                rows[i][j] = x
                rows[j][i] = _scale(ring, eps, ring.conj(x))
            phi = Mat(ring, rows)
            if invert(phi) is not None:
                out.append(phi)
    return sorted(out, key=Mat.key)


def _orbits(ring, eps, rank, reps, variant, cap=None):
    """Partition class representatives into congruence orbits by BFS.

    The walk runs on row-major tuples: each generator acts by one row and one
    column operation, and min classes are put back in canonical form by the
    closed form of the shift subgroup.
    """
    if rank == 0:
        return [sorted(reps, key=Mat.key)]
    n = rank
    moves = _gl_moves(ring, n)
    canonical = shift_subgroup(ring, eps, n).canonical_flat if variant == "min" else tuple
    by_flat = {tuple(x for row in m.entries for x in row): m for m in reps}
    unvisited = set(by_flat)
    orbits = []
    for start in by_flat:
        if start not in unvisited:
            continue
        orbit = {start}
        frontier = [start]
        unvisited.discard(start)
        while frontier:
            cur = frontier.pop()
            for move in moves:
                nxt = canonical(_congruence(ring, n, cur, move))
                if nxt not in orbit:
                    if nxt not in by_flat:
                        raise AssertionError("orbit left the representative set")
                    orbit.add(nxt)
                    unvisited.discard(nxt)
                    frontier.append(nxt)
        orbits.append(sorted((by_flat[x] for x in orbit), key=Mat.key))
    orbits.sort(key=lambda o: o[0].key())
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


def _canonicalize(ring, eps, variant, rank, mat):
    if variant == "min" and rank > 0:
        return shift_subgroup(ring, eps, rank).coset_canonical(mat)
    return mat


def witt_classify(ring: Ring, eps: int, variant: str, max_rank: int, cap=None) -> WittTable:
    """Stable classes of nondegenerate forms modulo hyperbolics, rank <= max_rank.

    Enumerates forms rank by rank, partitions each rank into congruence
    orbits, then merges any orbit with the orbit of its hyperbolic
    stabilization two ranks up.
    """
    if variant == "el":
        variant = "min"  # enlarged and min Witt classes coincide object-wise
    if variant not in ("min", "max"):
        raise ValueError("variant must be min, max or el")
    ranks = {}
    for r in range(max_rank + 1):
        reps = (
            _min_class_reps(ring, eps, r, cap)
            if variant == "min"
            else _max_class_reps(ring, eps, r, cap)
        )
        ranks[r] = _orbits(ring, eps, r, reps, variant, cap) if reps else []
    table = WittTable(ring, eps, variant, max_rank, ranks)

    # union-find over (rank, orbit index)
    nodes = [(r, i) for r in ranks for i in range(len(ranks[r]))]
    parent = {n: n for n in nodes}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    hyp = hyperbolic(ring, eps, 1)
    hyp_mat = hyp.phi0 if variant == "min" else hyp.associated().phi
    for r in ranks:
        if r + 2 > max_rank:
            continue
        for i, orbit in enumerate(ranks[r]):
            rep = orbit[0]
            if variant == "min":
                stab = _block_sum(ring, rep, hyp.phi0)
            else:
                stab = _block_sum(ring, rep, hyp_mat)
            stab = _canonicalize(ring, eps, variant, r + 2, stab)
            j = table.class_of(r + 2, stab)
            union((r, i), (r + 2, j))

    groups: dict = {}
    for n in nodes:
        groups.setdefault(find(n), []).append(n)
    stable = []
    for root in sorted(groups):
        members = sorted(groups[root])
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
            and all(ring.conj(a) == a for a in ring.elements())
            and min_rank % 2 == 0
        ):
            entry["arf"] = ring.to_str(arf(QuadFormEl(ring, eps, rep)))
        stable.append(entry)
    table.stable_classes = stable
    return table


def _block_sum(ring, a: Mat, b: Mat) -> Mat:
    from .linalg import diag_block

    return diag_block(ring, [a, b])


@dataclass
class GWTable:
    ring: Ring
    eps: int
    variant: str
    max_rank: int
    classes: list  # dicts: rank, index, orbit_size, representative
    sums: dict  # (i, j) -> k  indices into classes

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "epsilon": self.eps,
            "variant": self.variant,
            "max_rank": self.max_rank,
            "classes": [
                {k: v for k, v in c.items() if k != "rep_mat"} for c in self.classes
            ],
            "sums": {f"{i}+{j}": k for (i, j), k in sorted(self.sums.items())},
        }


def grothendieck_witt_monoid(ring, eps, variant, max_rank, cap=None) -> GWTable:
    """Isomorphism classes with their partial direct-sum table, rank-bounded."""
    if variant == "el":
        variant = "min"
    table = witt_classify(ring, eps, variant, max_rank, cap)
    classes = []
    lookup = {}
    for r, orbits in table.ranks.items():
        for i, orbit in enumerate(orbits):
            lookup[(r, i)] = len(classes)
            classes.append(
                {
                    "index": len(classes),
                    "rank": r,
                    "orbit_size": len(orbit),
                    "representative": orbit[0].to_strs(),
                    "rep_mat": orbit[0],
                }
            )
    sums = {}
    for a in classes:
        for b in classes:
            r = a["rank"] + b["rank"]
            if r > max_rank:
                continue
            s = _block_sum(ring, a["rep_mat"], b["rep_mat"])
            s = _canonicalize(ring, eps, variant, r, s)
            sums[(a["index"], b["index"])] = lookup[(r, table.class_of(r, s))]
    return GWTable(ring, eps, variant, max_rank, classes, sums)
