"""Additive-group linear algebra over finite rings.

Every shipped finite ring has additive group (Z/char)^dim, with coordinates
read off its element format (`Ring.coords`, `Ring.from_coords`).  That
turns additive constraints in matrix unknowns into linear systems over
Z/char, prime or not, which one Howell-form echelon of the system's graph
(`snf.solve_mod`) solves exactly: `solve_affine`, for the maps with no
closed form (inverses over noncommutative rings, the lemma-4 congruences).
The shift map gamma - eps*gamma^* and its sibling gamma + eps*gamma^* split
entry by entry and are read off a per-entry table instead
(`forms.ShiftSubgroup`).
"""

from __future__ import annotations

import operator
from math import prod

from .caps import CapExceeded, Unsupported, check_cap
from .linalg import Mat
from .rings import Ring
from .snf import Echelon, solve_mod


def mat_coords(ring: Ring, m: Mat) -> tuple:
    """The entries' coordinates (`Ring.coords`), row-major."""
    out = []
    coords = ring.coords
    for row in m.entries:
        for entry in row:
            out.extend(coords(entry))
    return tuple(out)


def mat_from_coords(ring: Ring, rows: int, cols: int, vec) -> Mat:
    d, from_coords = ring.dim, ring.from_coords
    flat = [from_coords(vec[k: k + d]) for k in range(0, rows * cols * d, d)]
    return Mat(ring, [flat[i: i + cols] for i in range(0, rows * cols, cols)])


def basis_elements(ring: Ring) -> list:
    """The elements whose coordinates are the unit vectors, in order."""
    if ring.dim is None:
        raise Unsupported("additive basis needs a finite ring")
    unit = range(ring.dim)
    return [ring.from_coords([int(i == j) for i in unit]) for j in unit]


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
    coordinates (`mat_coords`), prime characteristic or not."""

    def __init__(self, ring: Ring, rows: int, cols: int, generators):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._echelon = ech = Echelon(ring.char, rows * cols * ring.dim)
        for g in generators:
            ech.add(mat_coords(ring, g))
        self.size = ech.size
        self._elements = None

    def _from_coords(self, vec) -> Mat:
        return mat_from_coords(self.ring, self.rows, self.cols, vec)

    def generators(self) -> list:
        """A generating set: the echelon rows."""
        return [self._from_coords(self._echelon.rows[j]) for j in self._echelon.pivots]

    def contains(self, m: Mat) -> bool:
        return not any(self._echelon.reduce(mat_coords(self.ring, m)))

    def coset_canonical(self, m: Mat) -> Mat:
        """The representative of m + span with each pivot coordinate in
        [0, d) (`Echelon.reduce`)."""
        return self._from_coords(self._echelon.reduce(mat_coords(self.ring, m)))

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


def _basis_mats(R: Ring, rows: int, cols: int):
    out = []
    basis = basis_elements(R)
    for i in range(rows):
        for j in range(cols):
            for b in basis:
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

    The system is written in the entries' coordinates (`mat_coords`) and
    solved over Z/char by `snf.solve_mod`.  Returns a sorted list of Mat
    (empty when unsolvable).  With all_solutions=False only the canonical
    particular solution is returned: the least solution in those
    coordinates, compared from the last coordinate to the first
    (`snf.solve_mod`).  It depends only on the solution set.
    """
    rows, cols = shape
    const = fun(Mat.zero(ring, rows, cols))
    columns = [mat_coords(ring, fun(b) - const) for b in _basis_mats(ring, rows, cols)]
    particular, kernel = _solve_mod_p(ring.char, columns, mat_coords(ring, target - const))
    if particular is None:
        return []
    sols = [mat_from_coords(ring, rows, cols, particular)]
    if not all_solutions or not kernel:
        return sols
    check_cap(prod(span for _, span in kernel), "solution enumeration")
    # mixed radix: a generator g of range r adds the layers s + g, ..., s + (r-1)g
    for vec, span in kernel:
        g = mat_from_coords(ring, rows, cols, vec)
        layer = sols
        sols = list(sols)
        for _ in range(span - 1):
            layer = [m + g for m in layer]
            sols.extend(layer)
    return sorted(sols, key=Mat.key)
