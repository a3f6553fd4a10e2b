"""Exact rectangular matrices over a ring with involution."""

from __future__ import annotations

from itertools import product

from .caps import Unsupported, check_cap
from .rings import PolySRing, Ring


class Mat:
    """Immutable row-major matrix over a Ring."""

    __slots__ = ("ring", "rows", "cols", "entries", "_hash")

    def __init__(self, ring: Ring, entries):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged matrix")
        self._hash = None

    @classmethod
    def _trusted(cls, ring: Ring, entries: tuple, rows: int, cols: int) -> "Mat":
        """Wrap `entries`, already a tuple of `rows` tuples of length `cols`,
        without copying or checking them: for results of operations on
        matrices that were checked when they were built.  A matrix with no
        rows has no columns, as in `__init__`."""
        m = object.__new__(cls)
        m.ring = ring
        m.entries = entries
        m.rows = rows
        m.cols = cols if rows else 0
        m._hash = None
        return m

    def _check_same_shape(self, other: "Mat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    @staticmethod
    def zero(ring: Ring, rows: int, cols: int | None = None) -> "Mat":
        cols = rows if cols is None else cols
        z = ring.zero
        return Mat(ring, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(ring: Ring, n: int) -> "Mat":
        z, o = ring.zero, ring.one
        rows = tuple([tuple([o if i == j else z for j in range(n)]) for i in range(n)])
        return Mat._trusted(ring, rows, n, n)

    @staticmethod
    def scalar(ring: Ring, n: int, value) -> "Mat":
        z = ring.zero
        return Mat(ring, [[value if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def from_strs(ring: Ring, rows) -> "Mat":
        parse = ring.from_str
        entries = tuple([tuple([parse(s) for s in row]) for row in rows])
        cols = len(entries[0]) if entries else 0
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix")
        return Mat._trusted(ring, entries, len(entries), cols)

    def to_strs(self):
        tables = self.ring.tables
        to_str = self.ring.to_str if tables is None else tables.strs.__getitem__
        return [list(map(to_str, row)) for row in self.entries]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.entries))
        return self._hash

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        add = self.ring.add
        return Mat._trusted(
            self.ring,
            tuple([tuple(map(add, ra, rb)) for ra, rb in zip(self.entries, other.entries)]),
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        sub = self.ring.sub
        return Mat._trusted(
            self.ring,
            tuple([tuple(map(sub, ra, rb)) for ra, rb in zip(self.entries, other.entries)]),
            self.rows,
            self.cols,
        )

    def __neg__(self) -> "Mat":
        neg = self.ring.neg
        return Mat._trusted(
            self.ring, tuple([tuple(map(neg, row)) for row in self.entries]), self.rows, self.cols
        )

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        R = self.ring
        bcols = list(zip(*other.entries))
        out = []
        tables = R.tables
        if tables is not None:  # a coded ring: its zero is 0
            add_t, mul_t = tables.add, tables.mul
            for row in self.entries:
                # the nonzero entries a of the row, each with its row a * _ of mul_t
                terms = [(k, mul_t[a]) for k, a in enumerate(row) if a]
                orow = []
                for col in bcols:
                    acc = 0
                    for k, a_times in terms:
                        b = col[k]
                        if b:
                            acc = add_t[acc][a_times[b]]
                    orow.append(acc)
                out.append(tuple(orow))
            return Mat._trusted(R, tuple(out), self.rows, other.cols)
        add, mul, zero = R.add, R.mul, R.zero
        for row in self.entries:
            orow = []
            for col in bcols:
                acc = zero
                for a, b in zip(row, col):
                    if a != zero and b != zero:
                        acc = add(acc, mul(a, b))
                orow.append(acc)
            out.append(tuple(orow))
        return Mat._trusted(R, tuple(out), self.rows, other.cols)

    def scale_left(self, c) -> "Mat":
        mul = self.ring.mul
        return Mat._trusted(
            self.ring,
            tuple([tuple([mul(c, a) for a in row]) for row in self.entries]),
            self.rows,
            self.cols,
        )

    def scale_sign(self, eps: int) -> "Mat":
        if eps == 1:
            return self
        if eps == -1:
            return -self
        raise ValueError("sign must be +1 or -1")

    def transpose(self) -> "Mat":
        return Mat(self.ring, list(zip(*self.entries)))

    def star(self) -> "Mat":
        """Conjugate transpose; realizes the dual of a map once A^n = (A^n)*."""
        conj = self.ring.conj
        return Mat._trusted(
            self.ring,
            tuple([tuple(map(conj, col)) for col in zip(*self.entries)]),
            self.cols,
            self.rows,
        )

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(a == z for row in self.entries for a in row)

    def key(self) -> str:
        return repr(self.to_strs())

    def submatrix(self, r0, r1, c0, c1) -> "Mat":
        return Mat(self.ring, [row[c0:c1] for row in self.entries[r0:r1]])

    def map_entries(self, fn, ring: Ring | None = None) -> "Mat":
        return Mat(ring or self.ring, [[fn(a) for a in row] for row in self.entries])

    def __repr__(self):
        return f"Mat({self.key()})"


def block(ring: Ring, grid) -> Mat:
    """Assemble a block matrix from a grid of Mats."""
    rows = []
    for brow in grid:
        height = brow[0].rows
        if any(b.rows != height for b in brow):
            raise ValueError("block heights differ")
        for i in range(height):
            row = []
            for b in brow:
                row.extend(b.entries[i])
            rows.append(row)
    return Mat(ring, rows)


def diag_block(ring: Ring, mats) -> Mat:
    total_c = sum(m.cols for m in mats)
    z = ring.zero
    rows = []
    c = 0
    for m in mats:
        left, right = (z,) * c, (z,) * (total_c - c - m.cols)
        rows.extend(left + row + right for row in m.entries)
        c += m.cols
    return Mat._trusted(ring, tuple(rows), len(rows), total_c)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product; the ring must be commutative for this to be a tensor."""
    R = a.ring
    if not R.is_commutative:
        raise ValueError("kron needs a commutative ring")
    mul = R.mul
    out = tuple(
        tuple([mul(x, y) for x in arow for y in brow]) for arow in a.entries for brow in b.entries
    )
    return Mat._trusted(R, out, a.rows * b.rows, a.cols * b.cols)


def _gauss_jordan(R: Ring, a: list, width: int) -> int:
    """Bring the rows `a` (lists over R, a field or a commutative local ring)
    to reduced row echelon form in the first `width` columns, in place,
    pivoting on the first unit of each column among the open rows; return the
    number of pivots, the rank over a field.

    Over a field the first unit is the first nonzero entry.  Over a local
    ring the non-units are its one maximal ideal M, so a column with no unit
    among the open rows is zero modulo M there: modulo M it lies in the span
    of the pivot columns before it.  Each step is invertible (a swap, a unit
    scaling, a row subtraction), so the first `width` columns then have
    dependent columns over the residue field R/M, and a square matrix
    with fewer than `width` pivots has a determinant in M: it is singular.
    """
    zero, mul, sub, inv = R.zero, R.mul, R.sub, R.inv
    rank = 0
    for col in range(width):
        if rank == len(a):
            break
        for r in range(rank, len(a)):
            x = a[r][col]
            if x != zero and (pinv := inv(x)) is not None:
                break
        else:
            continue
        a[rank], a[r] = a[r], a[rank]
        prow = a[rank] = [mul(pinv, x) for x in a[rank]]
        for i, row in enumerate(a):
            f = row[col]
            if i != rank and f != zero:
                a[i] = [sub(x, mul(f, y)) for x, y in zip(row, prow)]
        rank += 1
    return rank


def _local_inverse(m: Mat) -> Mat | None:
    """Gauss-Jordan on [m | 1] over a field or a commutative local ring
    (`_gauss_jordan`): the right half becomes m^-1 when every column of m
    has a unit pivot, and m is singular otherwise.  Over a ring that is not
    a field the result is checked, m*X = X*m = 1, as the adjugate's was."""
    R = m.ring
    n = m.rows
    ident = Mat.identity(R, n)
    a = [list(row + irow) for row, irow in zip(m.entries, ident.entries)]
    if _gauss_jordan(R, a, n) < n:
        return None
    inv = Mat._trusted(R, tuple(tuple(row[n:]) for row in a), n, n)
    if not R.is_field and (m * inv != ident or inv * m != ident):
        raise AssertionError("local inverse failed verification")
    return inv


def _det_comm(m: Mat):
    """Determinant over a commutative ring by memoized Laplace expansion."""
    R = m.ring
    n = m.rows
    memo = {}

    def minor(rows_mask: int, col: int):
        if (rows_mask, col) in memo:
            return memo[(rows_mask, col)]
        rows = [i for i in range(n) if rows_mask & (1 << i)]
        if not rows:
            return R.one
        acc = R.zero
        sign = 1
        for pos, i in enumerate(rows):
            e = m.entries[i][col]
            if e != R.zero:
                term = R.mul(e, minor(rows_mask & ~(1 << i), col + 1))
                acc = R.add(acc, term if sign > 0 else R.neg(term))
            sign = -sign
        memo[(rows_mask, col)] = acc
        return acc

    return minor((1 << n) - 1, 0)


def _adjugate_inverse(m: Mat) -> Mat | None:
    """Inverse over a commutative ring that is not local: adj(m) * det(m)^{-1},
    checked two-sided."""
    R = m.ring
    n = m.rows
    det = _det_comm(m)
    dinv = R.inv(det)
    if dinv is None:
        return None
    rows = list(range(n))
    out = [[R.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = Mat(
                R,
                [
                    [m.entries[r][c] for c in rows if c != j]
                    for r in rows
                    if r != i
                ],
            ) if n > 1 else None
            cof = _det_comm(sub) if n > 1 else R.one
            if (i + j) % 2:
                cof = R.neg(cof)
            out[j][i] = R.mul(cof, dinv)
    inv = Mat(R, out)
    ident = Mat.identity(R, n)
    if m * inv != ident or inv * m != ident:
        raise AssertionError("adjugate inverse failed verification")
    return inv


def invert(m: Mat) -> Mat | None:
    """Two-sided inverse of m, or None.

    Fields and the other commutative local rings (`Ring.is_local`: Fp, Fq,
    Zn(p^k), and Dual and TruncPoly over a local base) take Gauss-Jordan
    on [m | 1] pivoting on units (`_local_inverse`), exact because a column
    with no unit left is zero modulo the maximal ideal.  Other commutative
    rings (Zn(6), Dual(Z/6), ProductOp(F2), ...) take the adjugate, as m is
    invertible iff its determinant is a unit.  Both check their result
    two-sided, except over a field.  Noncommutative rings solve the
    additive system m*X = 1 over Z/char with `additive.solve_affine` (a
    Howell echelon, exact in every characteristic) and confirm X*m = 1.
    Over the finite ring M_n(R) a right inverse is two-sided, hence unique,
    so one solution is all there is.
    """
    if not m.is_square():
        raise ValueError("only square matrices can be inverted")
    if m.rows == 0:
        return m
    R = m.ring
    if R.is_local:
        return _local_inverse(m)
    if R.is_commutative:
        return _adjugate_inverse(m)
    from .additive import solve_affine  # local import to avoid a cycle

    ident = Mat.identity(R, m.rows)
    sols = solve_affine(R, (m.rows, m.rows), lambda x: m * x, ident, all_solutions=False)
    if sols and sols[0] * m == ident:
        return sols[0]
    return None


def _nilpotency_bound(ring: Ring, n: int) -> int:
    """An index that no nilpotent n x n matrix over `ring` exceeds.

    Over a finite ring the images m^k R^n shrink strictly until they are 0,
    each a proper additive subgroup of the one before, so a nilpotent m has
    index at most log2 |R^n|.  Over B[s] with B finite, m is nilpotent of
    index at most n*k modulo the radical J of B, where k <= log2 |B| is the
    largest matrix degree of B/J, and J^t = 0 with t <= log2 |B|; hence
    n*log2(|B|)^2.  Other infinite rings keep the rows*cols bound, which suffices
    over a domain.
    """
    if ring.size is not None:
        return (ring.size**n).bit_length() - 1
    if isinstance(ring, PolySRing) and ring.base.size is not None:
        b = ring.base.size.bit_length() - 1
        return n * b * b
    return n * n


def nilpotency_index(m: Mat) -> int | None:
    """Least k with m^k = 0, or None when m is not nilpotent.

    Over a ring with nilpotent scalars the index can exceed rows*cols (3 is
    nilpotent of index 2 as a 1x1 matrix over Z/9); the powers are taken up
    to the bound of `_nilpotency_bound`.
    """
    if not m.is_square():
        raise ValueError("nilpotency needs a square matrix")
    if m.rows == 0:
        return 0  # m^0 = I_0 is the zero matrix
    power = Mat.identity(m.ring, m.rows)
    for k in range(1, _nilpotency_bound(m.ring, m.rows) + 1):
        power = power * m
        if power.is_zero():
            return k
    return None


def rank_over_field(m: Mat) -> int:
    """Row rank by Gaussian elimination; the ring must be a field."""
    if not m.ring.is_field:
        raise ValueError("rank needs a field")
    return _gauss_jordan(m.ring, [list(row) for row in m.entries], m.cols)


def all_matrices(ring: Ring, rows: int, cols: int):
    """Deterministic stream of every rows x cols matrix over a finite ring."""
    if ring.size is None:
        raise Unsupported("ring not enumerable")
    check_cap(ring.size ** (rows * cols), "matrix enumeration")
    elems = ring.elements()
    for flat in product(elems, repeat=rows * cols):
        yield Mat(ring, [flat[i * cols: (i + 1) * cols] for i in range(rows)])
