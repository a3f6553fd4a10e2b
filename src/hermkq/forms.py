"""Epsilon-hermitian and epsilon-quadratic forms on free modules A^n.

Three variants are carried: the hermitian form phi itself (max), a
`HermForm`; an explicit generator phi0 (el), a `QuadFormEl`; and the class
of phi0 modulo gamma - eps*gamma^* (min), also a `QuadFormEl`, read modulo
shifts through `QuadFormEl.min_canonical` and `min_equal`.
Column conventions throughout: forms evaluate as x^* phi y.
"""

from __future__ import annotations

import json

from .additive import MatSubgroup, _listed_quotient, additive_basis, extend_span
from .linalg import Mat, diag_block, invert
from .rings import Ring, ring_from_json


class DegenerateFormError(ValueError):
    pass


_SHIFT_TABLES: dict = {}
_SELFADJOINT: dict = {}


def _shift_table(ring: Ring, eps: int):
    """(canon, |Lambda|, diagonal, least, kernel) over one ring, cached by
    (ring key, eps); see `ShiftSubgroup`.  One walk over the elements, in the
    order of their additive coordinates read from the last, records in
    least[s] the least preimage of each value of a + s*conj(a), and thins
    ker l = {a : a = eps*conj(a)} to a generating set `kernel`."""
    key = (ring.key(), eps)
    if key not in _SHIFT_TABLES:
        # the additive basis refuses an infinite ring, or one past BASIS_CAP,
        # before any element is listed
        coords = additive_basis(ring).coords
        elems = ring.elements()
        least = {1: {}, -1: {}}
        kernel, span = [], {ring.zero}
        for a in sorted(elems, key=lambda a: coords[a][::-1]):
            c = ring.conj(a)
            least[1].setdefault(ring.add(a, c), a)
            least[-1].setdefault(ring.sub(a, c), a)
            if (c if eps == 1 else ring.neg(c)) == a and extend_span(
                    span, a, ring.size, "kernel of l", ring.add):
                kernel.append(a)
        lam = least[-eps]
        _, canon = _listed_quotient(ring, sorted(elems, key=coords.__getitem__), lam)
        diagonal = tuple(dict.fromkeys(canon[a] for a in elems))
        _SHIFT_TABLES[key] = canon, len(lam), diagonal, least, kernel
    return _SHIFT_TABLES[key]


class ShiftSubgroup:
    """The additive subgroup S = {gamma - eps*gamma^*} of n x n matrices,
    the image of L(g) = g - eps*g^*.

    Closed form.  L and tau(g) = g + eps*g^* are g -> g + s*g^* for s = -eps
    and s = eps, and g + s*g^* = m splits into blocks: for each i < j the
    pair g_ij + s*conj(g_ji) = m_ij and g_ji + s*conj(g_ij) = m_ji, solvable
    exactly when m_ji = s*conj(m_ij), and each diagonal entry a + s*conj(a)
    = m_ii alone, in the image {a + s*conj(a)}, which for L is Lambda.  So
    |S| = |R|^(n(n-1)/2) * |Lambda|^n.

    Both orders below are on the additive coordinates of the entries,
    row-major.  `witness` (and `is_even`, for tau) gives the least solution
    compared from the last coordinate, `solve_affine`'s particular
    solution: block by block, g_ji is 0, g_ij is m_ij, and a diagonal entry
    is the least preimage.  The canonical representative of m + S is its
    least member compared from the first coordinate, which is
    `MatSubgroup(S).coset_canonical`'s (`Echelon.reduce`): m_ij, i < j,
    becomes 0 and m_ji gains eps*conj(m_ij), and a diagonal entry becomes
    the first member of m_ii + Lambda.  So the canonical representatives
    have `diagonal` entries (the representatives of R/Lambda) on the
    diagonal, zero above it and any entries below it.  Matrices are built
    over the ring of the argument.
    """

    def __init__(self, ring: Ring, eps: int, n: int):
        self._canon, lam_size, self.diagonal, self._least, _ = _shift_table(ring, eps)
        self.ring = ring
        self.eps = eps
        self.rows = self.cols = n
        self.size = ring.size ** (n * (n - 1) // 2) * lam_size**n

    def canonical_flat(self, flat) -> tuple:
        """The canonical representative of a row-major tuple of entries."""
        R, n, canon, zero = self.ring, self.rows, self._canon, self.ring.zero
        out = list(flat)
        for i in range(n):
            out[i * n + i] = canon[out[i * n + i]]
            for j in range(i + 1, n):
                x = out[i * n + j]
                if x != zero:
                    c = R.conj(x)
                    k = j * n + i
                    out[k] = R.add(out[k], c) if self.eps == 1 else R.sub(out[k], c)
                    out[i * n + j] = zero
        return tuple(out)

    def coset_canonical(self, m: Mat) -> Mat:
        flat = self.canonical_flat([x for row in m.entries for x in row])
        n = self.rows
        return Mat(m.ring, [flat[i * n: (i + 1) * n] for i in range(n)])

    def _least_solution(self, m: Mat, s: int) -> Mat | None:
        """The least g with g + s*g^* = m, or None."""
        R, n, e, least = self.ring, self.rows, m.entries, self._least[s]
        out = [[R.zero] * n for _ in range(n)]
        for i in range(n):
            out[i][i] = least.get(e[i][i])
            if out[i][i] is None:
                return None
            for j in range(i + 1, n):
                c = R.conj(e[i][j])
                if e[j][i] != (c if s == 1 else R.neg(c)):
                    return None
                out[i][j] = e[i][j]
        return Mat(m.ring, out)

    def witness(self, m: Mat) -> Mat | None:
        """The least gamma with gamma - eps*gamma^* = m, or None."""
        return self._least_solution(m, -self.eps)

    def contains(self, m: Mat) -> bool:
        return self.witness(m) is not None


def shift_subgroup(ring: Ring, eps: int, n: int) -> ShiftSubgroup:
    """Additive subgroup {gamma - eps*gamma^*} of n x n matrices, in closed form."""
    return ShiftSubgroup(ring, eps, n)


def selfadjoint_subgroup(ring: Ring, eps: int, n: int) -> MatSubgroup:
    """S(E): the gamma with gamma^* = eps*gamma, which is ker L (apply ^*, an
    involution, and eps^2 = 1), cached by (ring key, eps, n).  Generated by
    each additive basis element b below the diagonal with eps*conj(b)
    mirrored above it, and by the generators of ker l on the diagonal."""
    key = (ring.key(), eps, n)
    if key not in _SELFADJOINT:
        *_, kernel = _shift_table(ring, eps)
        basis = additive_basis(ring).basis
        gens = []
        for i in range(n):
            for j in range(i + 1):
                for x in kernel if i == j else basis:
                    g = [[ring.zero] * n for _ in range(n)]
                    g[i][j] = x
                    if i != j:
                        c = ring.conj(x)
                        g[j][i] = c if eps == 1 else ring.neg(c)
                    gens.append(Mat(ring, g))
        _SELFADJOINT[key] = MatSubgroup(ring, n, n, gens)
    return _SELFADJOINT[key]


class HermForm:
    """Nonsingular or singular eps-hermitian form: phi with phi^* = eps*phi."""

    def __init__(self, ring: Ring, eps: int, phi: Mat):
        if eps not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not phi.is_square():
            raise ValueError("phi must be square")
        if phi.star() != phi.scale_sign(eps):
            raise ValueError("phi fails phi^* = eps*phi")
        self.ring = ring
        self.eps = eps
        self.n = phi.rows
        self.phi = phi
        self._inverse = None
        self._inverse_known = False

    def inverse(self) -> Mat | None:
        if not self._inverse_known:
            self._inverse = invert(self.phi) if self.n else Mat(self.ring, [])
            self._inverse_known = True
        return self._inverse

    @property
    def nondegenerate(self) -> bool:
        return self.n == 0 or self.inverse() is not None

    def adjoint(self, f: Mat) -> Mat:
        """f^* = phi^{-1} . f.star() . phi, with f.star() the conjugate transpose,
        taken against this form."""
        inv = self.inverse()
        if inv is None:
            raise DegenerateFormError("adjoint needs a nondegenerate form")
        return inv * f.star() * self.phi

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "epsilon": self.eps,
            "variant": "max",
            "matrix": self.phi.to_strs(),
        }


class QuadFormEl:
    """Object of the enlarged quadratic category: phi0 is part of the data.
    A min form is the same object, read modulo shifts through
    `min_canonical` and `min_equal`."""

    def __init__(self, ring: Ring, eps: int, phi0: Mat):
        if eps not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not phi0.is_square():
            raise ValueError("phi0 must be square")
        self.ring = ring
        self.eps = eps
        self.n = phi0.rows
        self.phi0 = phi0
        self._herm = None

    def associated(self) -> HermForm:
        if self._herm is None:
            phi = self.phi0 + self.phi0.star().scale_sign(self.eps)
            self._herm = HermForm(self.ring, self.eps, phi)
        return self._herm

    @property
    def nondegenerate(self) -> bool:
        return self.associated().nondegenerate

    def min_canonical(self) -> Mat:
        """Canonical representative of the class of phi0 modulo shifts."""
        return shift_subgroup(self.ring, self.eps, self.n).coset_canonical(self.phi0)

    def to_json(self, variant: str = "el"):
        return {
            "ring": self.ring.to_json(),
            "epsilon": self.eps,
            "variant": variant,
            "matrix": self.phi0.to_strs(),
        }

    def __eq__(self, other):
        return (
            isinstance(other, QuadFormEl)
            and self.ring == other.ring
            and self.eps == other.eps
            and self.phi0 == other.phi0
        )

    def __hash__(self):
        return hash((self.eps, self.phi0))


def pairing_chi(h: HermForm, x, y):
    """chi(x, y) = x^* phi y for column vectors x, y."""
    ring = h.ring
    if not isinstance(x, Mat):
        x = Mat(ring, [[v] for v in x])
    if not isinstance(y, Mat):
        y = Mat(ring, [[v] for v in y])
    if x.rows != h.n or y.rows != h.n:
        raise ValueError("vector length mismatch")
    return (x.star() * h.phi * y).entries[0][0]


def is_even(h: HermForm) -> Mat | None:
    """The least phi0 with phi0 + eps*phi0^* = phi, or None: tau read off
    the per-entry table (`ShiftSubgroup`)."""
    return shift_subgroup(h.ring, h.eps, h.n)._least_solution(h.phi, h.eps)


def min_equal(a: QuadFormEl, b: QuadFormEl) -> bool:
    if a.ring != b.ring or a.eps != b.eps or a.n != b.n:
        raise ValueError("forms are not comparable")
    return shift_subgroup(a.ring, a.eps, a.n).contains(b.phi0 - a.phi0)


def hyperbolic(ring: Ring, eps: int, m: int) -> QuadFormEl:
    """H(A^m): phi0 = [[0, 1], [0, 0]] in m x m blocks."""
    if m < 0:
        raise ValueError("rank must be >= 0")
    z = Mat.zero(ring, m)
    i = Mat.identity(ring, m)
    phi0 = Mat(
        ring,
        [list(z.entries[r]) + list(i.entries[r]) for r in range(m)]
        + [list(z.entries[r]) + list(z.entries[r]) for r in range(m)],
    )
    return QuadFormEl(ring, eps, phi0)


def hyperbolic_map(u: Mat) -> Mat:
    """H(u) = u + (u^*)^{-1} acting on H(A^m); satisfies g^* phi0 g = phi0."""
    inv_star = invert(u.star())
    if inv_star is None:
        raise ValueError("u must be invertible")
    g = diag_block(u.ring, [u, inv_star])
    m = u.rows
    ring = u.ring
    phi0 = hyperbolic(ring, 1, m).phi0
    if g.star() * phi0 * g != phi0:
        raise AssertionError("hyperbolic map failed its defining identity")
    return g


def psi_normalize(q: QuadFormEl) -> Mat:
    """psi = phi^{-1} phi0 with psi + psi^* = 1, adjoints taken against phi."""
    h = q.associated()
    inv = h.inverse()
    if inv is None:
        raise DegenerateFormError("psi normalization needs a nondegenerate form")
    psi = inv * q.phi0
    if psi + h.adjoint(psi) != Mat.identity(q.ring, q.n):
        raise AssertionError("psi + psi^* = 1 failed")
    return psi


def direct_sum(a: QuadFormEl, b: QuadFormEl) -> QuadFormEl:
    if a.ring != b.ring or a.eps != b.eps:
        raise ValueError("ring or epsilon mismatch")
    return QuadFormEl(a.ring, a.eps, diag_block(a.ring, [a.phi0, b.phi0]))


def form_from_json(doc):
    """Parse {"ring":..., "epsilon":..., "variant":..., "matrix":[[...]]}:
    a `HermForm` for max, a `QuadFormEl` for el and min."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    ring = ring_from_json(doc["ring"])
    eps = int(doc["epsilon"])
    variant = doc.get("variant", "el")
    mat = Mat.from_strs(ring, doc["matrix"])
    if variant == "max":
        return HermForm(ring, eps, mat)
    if variant in ("el", "min"):
        return QuadFormEl(ring, eps, mat)
    raise ValueError(f"unknown variant {variant!r}")
