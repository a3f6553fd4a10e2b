"""Additive-group linear algebra over finite rings.

Every shipped finite ring has additive group isomorphic to (Z/char)^d with a
basis discoverable by a greedy scan.  That turns additive constraints in
matrix unknowns into linear systems over Z/char, prime or not, which one
Howell-form echelon of the system's graph (`snf.solve_mod`) solves exactly:
`solve_affine`, for the maps with no closed form (inverses over
noncommutative rings, the lemma-4 congruences).  The shift map gamma -
eps*gamma^* and its sibling gamma + eps*gamma^* split entry by entry and
are read off a per-entry table instead (`forms.ShiftSubgroup`).
"""

from __future__ import annotations

import operator
from math import prod

from .caps import CapExceeded, Unsupported, check_cap
from .linalg import Mat
from .rings import Ring
from .snf import Echelon, solve_mod

_BASIS_CACHE: dict = {}
# fixed bound on the ring size an additive basis is built for, not the search cap
BASIS_CAP = 4096


class AdditiveBasis:
    """Free Z/char-module basis of a finite ring, with coordinate tables."""

    def __init__(self, ring: Ring):
        if ring.size is None:
            raise Unsupported("additive basis needs a finite ring")
        check_cap(ring.size, "additive basis", BASIS_CAP)
        self.ring = ring
        self.char = ring.char
        coords = {ring.zero: ()}
        basis = []
        for elem in ring.elements():
            if elem in coords:
                continue
            # a free extension needs k*elem outside the current span for 0 < k < char
            acc = ring.zero
            free = True
            for _ in range(1, self.char):
                acc = ring.add(acc, elem)
                if acc in coords:
                    free = False
                    break
            if not free:
                continue
            k = len(basis)
            for base_elem, vec in list(coords.items()):
                cur = base_elem
                for mult in range(1, self.char):
                    cur = ring.add(cur, elem)
                    coords[cur] = vec + ((k, mult),)
            basis.append(elem)
        if len(coords) != ring.size:
            raise Unsupported("ring additive group is not a free Z/char module")
        self.basis = basis
        self.dim = len(basis)
        self.coords = {}
        for elem, sparse in coords.items():
            dense = [0] * self.dim
            for k, mult in sparse:
                dense[k] = mult
            self.coords[elem] = tuple(dense)
        self._elements = {vec: elem for elem, vec in self.coords.items()}

    def element_from_coords(self, vec) -> object:
        """The element with these coordinates, each read mod char."""
        return self._elements[tuple(k % self.char for k in vec)]


def additive_basis(ring: Ring) -> AdditiveBasis:
    key = ring.key()
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = AdditiveBasis(ring)
    return _BASIS_CACHE[key]


def mat_coords(basis: AdditiveBasis, m: Mat) -> tuple:
    out = []
    coords = basis.coords
    for row in m.entries:
        for entry in row:
            out.extend(coords[entry])
    return tuple(out)


def mat_from_coords(basis: AdditiveBasis, rows: int, cols: int, vec) -> Mat:
    d = basis.dim
    out = []
    idx = 0
    for _ in range(rows):
        row = []
        for _ in range(cols):
            row.append(basis.element_from_coords(vec[idx: idx + d]))
            idx += d
        out.append(row)
    return Mat(basis.ring, out)


def extend_span(span: set, x, limit: int, message: str, add=operator.add) -> bool:
    """Grow `span`, a finite additive subgroup held as a set, to span + Z*x
    in place; return whether it grew.

    The new elements are listed coset by coset, each layer the last one
    shifted by x, until the next layer falls back into the span: a coset of
    a subgroup is either inside it or disjoint from it.  That costs about
    one addition per new element.  Uses only `add` (`+` on matrices, or a
    ring's own `add` on its elements) and hashing, so it serves every ring
    kind, finite or not.  Raises CapExceeded(message) before the span would
    hold more than `limit` elements.
    """
    if x in span:
        return False
    layer = list(span)
    while True:
        if len(span) + len(layer) > limit:
            raise CapExceeded(message)
        layer = [add(m, x) for m in layer]
        span.update(layer)
        if add(layer[0], x) in span:
            return True


def _listed_quotient(ring, elems, sub) -> tuple[list, dict]:
    """The cosets of the listed subgroup `sub` that meet `elems`: their
    representatives, each the first member in the order of `elems`, and
    the map from every member of those cosets to its representative."""
    reps = []
    coset = {}
    for a in elems:
        if a in coset:
            continue
        reps.append(a)
        for l in sub:
            coset[ring.add(a, l)] = a
    return reps, coset


class MatSubgroup:
    """Additive subgroup of rows x cols matrices spanned by given generators,
    held as the Howell echelon (`snf.Echelon`) over Z/char of their
    coordinates in the ring's additive basis, prime characteristic or not."""

    def __init__(self, ring: Ring, rows: int, cols: int, generators):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._basis = additive_basis(ring)
        self._echelon = ech = Echelon(ring.char, rows * cols * self._basis.dim)
        for g in generators:
            ech.add(mat_coords(self._basis, g))
        self.size = ech.size
        self._elements = None

    def _from_coords(self, vec) -> Mat:
        return mat_from_coords(self._basis, self.rows, self.cols, vec)

    def generators(self) -> list:
        """A generating set: the echelon rows."""
        return [self._from_coords(self._echelon.rows[j]) for j in self._echelon.pivots]

    def contains(self, m: Mat) -> bool:
        return not any(self._echelon.reduce(mat_coords(self._basis, m)))

    def coset_canonical(self, m: Mat) -> Mat:
        """The representative of m + span with each pivot coordinate in
        [0, d) (`Echelon.reduce`)."""
        return self._from_coords(self._echelon.reduce(mat_coords(self._basis, m)))

    def elements(self) -> list:
        """The members sorted by key, listed once and kept; every call is
        checked against the cap, kept list or not."""
        check_cap(self.size, "subgroup enumeration")
        if self._elements is None:
            span = {Mat.zero(self.ring, self.rows, self.cols)}
            for j in self._echelon.pivots:
                extend_span(span, self._from_coords(self._echelon.rows[j]), self.size,
                            "subgroup enumeration")
            self._elements = sorted(span, key=Mat.key)
        return self._elements


def _basis_mats(basis: AdditiveBasis, rows: int, cols: int):
    R = basis.ring
    out = []
    for i in range(rows):
        for j in range(cols):
            for b in basis.basis:
                entries = [[R.zero] * cols for _ in range(rows)]
                entries[i][j] = b
                out.append(Mat(R, entries))
    return out


def _solve_mod_p(modulus, columns, target):
    """`snf.solve_mod` of sum_k x_k * columns[k] = target, for every modulus.
    A system without equations gets the equation 0 = 0, which keeps the
    number of unknowns."""
    mat = [[col[r] for col in columns] for r in range(len(target))] or [[0] * len(columns)]
    return solve_mod(mat, list(target) or [0], modulus)


def solve_affine(ring, shape, fun, target, all_solutions=True):
    """Matrices X with fun(X) = target, fun affine-additive in X.

    The system is written in the coordinates of the ring's additive basis,
    entry by entry in row-major order, and solved over Z/char by
    `snf.solve_mod`.  Returns a sorted list of Mat (empty when unsolvable).
    With all_solutions=False only the canonical particular solution is
    returned: the least solution in those coordinates, compared from the
    last coordinate to the first (`snf.solve_mod`).  It depends only on the
    solution set.
    """
    rows, cols = shape
    const = fun(Mat.zero(ring, rows, cols))
    basis = additive_basis(ring)
    columns = [mat_coords(basis, fun(b) - const) for b in _basis_mats(basis, rows, cols)]
    particular, kernel = _solve_mod_p(ring.char, columns, mat_coords(basis, target - const))
    if particular is None:
        return []
    sols = [mat_from_coords(basis, rows, cols, particular)]
    if not all_solutions or not kernel:
        return sols
    check_cap(prod(span for _, span in kernel), "solution enumeration")
    # mixed radix: a generator g of range r adds the layers s + g, ..., s + (r-1)g
    for vec, span in kernel:
        g = mat_from_coords(basis, rows, cols, vec)
        layer = sols
        sols = list(sols)
        for _ in range(span - 1):
            layer = [m + g for m in layer]
            sols.extend(layer)
    return sorted(sols, key=Mat.key)
