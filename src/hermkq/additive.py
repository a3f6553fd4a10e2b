"""Additive-group linear algebra over finite rings.

Every shipped finite ring has additive group isomorphic to (Z/char)^d with a
basis discoverable by a greedy scan.  That turns additive constraints in
matrix unknowns (all the "does there exist gamma" conditions) into linear
systems: mod-p Gaussian elimination when char is prime, integer Smith form
otherwise.
"""

from __future__ import annotations

from itertools import product

from .caps import CapExceeded, check_cap
from .linalg import Mat
from .rings import Ring
from .snf import solve_mod

_BASIS_CACHE: dict = {}


class AdditiveBasis:
    """Free Z/char-module basis of a finite ring, with coordinate tables."""

    def __init__(self, ring: Ring, cap: int = 4096):
        if ring.size is None:
            raise CapExceeded("additive basis needs a finite ring")
        check_cap(ring.size, "additive basis", cap)
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
            raise CapExceeded("ring additive group is not a free Z/char module")
        self.basis = basis
        self.dim = len(basis)
        self.coords = {}
        for elem, sparse in coords.items():
            dense = [0] * self.dim
            for k, mult in sparse:
                dense[k] = mult
            self.coords[elem] = tuple(dense)

    def element_from_coords(self, vec) -> object:
        R = self.ring
        acc = R.zero
        for b, k in zip(self.basis, vec):
            k = k % self.char
            cur = b
            total = R.zero
            m = k
            while m:
                if m & 1:
                    total = R.add(total, cur)
                cur = R.add(cur, cur)
                m >>= 1
            acc = R.add(acc, total)
        return acc


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class _EchelonModP:
    """Row-echelon basis of a subspace of (Z/p)^n with reduction."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.pivots: list[tuple[int, tuple]] = []  # (pivot index, normalized row)

    def reduce(self, vec):
        v = list(vec)
        p = self.p
        for piv, row in self.pivots:
            c = v[piv] % p
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return tuple(x % p for x in v)

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        for i, x in enumerate(v):
            if x % self.p:
                inv = pow(x, -1, self.p)
                row = tuple((inv * y) % self.p for y in v)
                # keep existing rows reduced against the new pivot so that
                # reduction is order-independent and reps are canonical
                updated = []
                for piv, old in self.pivots:
                    c = old[i] % self.p
                    if c:
                        old = tuple((x0 - c * y0) % self.p for x0, y0 in zip(old, row))
                    updated.append((piv, old))
                self.pivots = updated
                self.pivots.append((i, row))
                self.pivots.sort()
                return True
        return False

    @property
    def rank(self):
        return len(self.pivots)


def extend_span(span: set, x, limit: int, message: str) -> bool:
    """Grow `span`, a finite additive subgroup held as a set, to span + Z*x
    in place; return whether it grew.

    The new elements are listed coset by coset, each layer the last one
    shifted by x, until the next layer falls back into the span: a coset of
    a subgroup is either inside it or disjoint from it.  That costs about
    one addition per new element.  Uses only `+` and hashing, so it serves every
    ring kind, finite or not.  Raises CapExceeded(message) before the span
    would hold more than `limit` elements.
    """
    if x in span:
        return False
    layer = list(span)
    while True:
        if len(span) + len(layer) > limit:
            raise CapExceeded(message)
        layer = [m + x for m in layer]
        span.update(layer)
        if layer[0] + x in span:
            return True


class MatSubgroup:
    """Additive subgroup of rows x cols matrices spanned by given generators.

    In prime characteristic it is a row-echelon basis of coordinate vectors.
    Otherwise it is the listed span, built by `extend_span` one generator at
    a time and refused past `cap` elements (2^16 by default).
    """

    def __init__(self, ring: Ring, rows: int, cols: int, generators, cap: int | None = None):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._span = None
        self._echelon = None
        self._basis = None
        if _is_prime(ring.char):
            self._basis = additive_basis(ring)
            ech = _EchelonModP(ring.char, rows * cols * self._basis.dim)
            for g in generators:
                ech.add(mat_coords(self._basis, g))
            self._echelon = ech
            self.size = ring.char**ech.rank
        else:
            span = {Mat.zero(ring, rows, cols)}
            limit = cap if cap is not None else 2**16
            for g in generators:
                extend_span(span, g, limit, "subgroup span exceeds cap")
            self._span = span
            self.size = len(span)

    def contains(self, m: Mat) -> bool:
        if self._echelon is not None:
            return not any(self._echelon.reduce(mat_coords(self._basis, m)))
        return m in self._span

    def coset_canonical(self, m: Mat) -> Mat:
        """Deterministic representative of m + span."""
        if self._echelon is not None:
            vec = self._echelon.reduce(mat_coords(self._basis, m))
            return mat_from_coords(self._basis, self.rows, self.cols, vec)
        best = None
        for s in sorted(self._span, key=Mat.key):
            cand = m + s
            if best is None or cand.key() < best.key():
                best = cand
        return best

    def coset_reps_all(self, cap: int | None = None):
        """Every canonical coset representative (vectors vanishing on the
        pivot coordinates for prime characteristic)."""
        if self._echelon is not None:
            p = self.ring.char
            n = self.rows * self.cols * self._basis.dim
            pivots = {piv for piv, _ in self._echelon.pivots}
            free = [i for i in range(n) if i not in pivots]
            check_cap(p ** len(free), "coset representative enumeration", cap)
            out = []
            for vals in product(range(p), repeat=len(free)):
                vec = [0] * n
                for i, v in zip(free, vals):
                    vec[i] = v
                out.append(mat_from_coords(self._basis, self.rows, self.cols, vec))
            return sorted(out, key=Mat.key)
        from .linalg import all_matrices

        seen = set()
        out = []
        for m in all_matrices(self.ring, self.rows, self.cols, cap):
            c = self.coset_canonical(m)
            if c not in seen:
                seen.add(c)
                out.append(c)
        return sorted(out, key=Mat.key)

    def elements(self):
        if self._span is not None:
            return sorted(self._span, key=Mat.key)
        p = self.ring.char
        combos = []
        rows = [row for _, row in self._echelon.pivots]
        check_cap(p ** len(rows), "subgroup enumeration")
        for ks in product(range(p), repeat=len(rows)):
            vec = [0] * (self.rows * self.cols * self._basis.dim)
            for k, row in zip(ks, rows):
                vec = [(x + k * y) % p for x, y in zip(vec, row)]
            combos.append(mat_from_coords(self._basis, self.rows, self.cols, vec))
        return sorted(combos, key=Mat.key)


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


def _solve_mod_p(p, columns, target, all_solutions, cap):
    """Solve sum_k x_k * columns[k] = target over Z/p; deterministic output."""
    n_rows = len(target)
    n_cols = len(columns)
    aug = [[columns[k][r] % p for k in range(n_cols)] + [target[r] % p] for r in range(n_rows)]
    # Gauss-Jordan
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = None
        for rr in range(r, n_rows):
            if aug[rr][c] % p:
                pr = rr
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [(inv * x) % p for x in aug[r]]
        for rr in range(n_rows):
            if rr != r and aug[rr][c] % p:
                f = aug[rr][c]
                aug[rr] = [(x - f * y) % p for x, y in zip(aug[rr], aug[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    for rr in range(r, n_rows):
        if aug[rr][n_cols] % p:
            return None, []
    particular = [0] * n_cols
    for row_i, c in enumerate(pivots):
        particular[c] = aug[row_i][n_cols]
    free = [c for c in range(n_cols) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [0] * n_cols
        vec[fc] = 1
        for row_i, c in enumerate(pivots):
            vec[c] = (-aug[row_i][fc]) % p
        kernel.append(vec)
    return particular, kernel


def solve_affine(ring, shape, fun, target, all_solutions=True, cap=None):
    """Matrices X with fun(X) = target, fun affine-additive in X.

    Returns a sorted list of Mat (empty when unsolvable).  With
    all_solutions=False only the canonical particular solution is returned.
    """
    rows, cols = shape
    zero = Mat.zero(ring, rows, cols)
    const = fun(zero)
    rhs = target - const
    if ring.size is not None and not _is_prime(ring.char) and ring.size ** (rows * cols) <= 4096:
        # tiny non-prime cases: honest brute force
        from .linalg import all_matrices

        sols = [x for x in all_matrices(ring, rows, cols) if fun(x) == target]
        return sorted(sols, key=Mat.key)
    basis = additive_basis(ring)
    bmats = _basis_mats(basis, rows, cols)
    columns = [mat_coords(basis, fun(b) - const) for b in bmats]
    tvec = mat_coords(basis, rhs)
    c = ring.char
    if _is_prime(c):
        particular, kernel = _solve_mod_p(c, columns, tvec, all_solutions, cap)
    else:
        mat_rows = [[col[r] for col in columns] for r in range(len(tvec))]
        particular, kernel = solve_mod(mat_rows, list(tvec), c)
    if particular is None:
        return []

    def combo_to_mat(coeffs):
        acc = zero
        for k, b in zip(coeffs, bmats):
            k = k % c
            cur = b
            while k:
                if k & 1:
                    acc = acc + cur
                cur = cur + cur
                k >>= 1
        return acc

    base_sol = combo_to_mat(particular)
    if not all_solutions:
        return [base_sol]
    if not kernel:
        return [base_sol]
    check_cap(c ** len(kernel), "solution enumeration", cap)
    sols = set()
    for ks in product(range(c), repeat=len(kernel)):
        coeffs = list(particular)
        for k, kv in zip(ks, kernel):
            coeffs = [x + k * y for x, y in zip(coeffs, kv)]
        sols.add(combo_to_mat(coeffs))
    return sorted(sols, key=Mat.key)
