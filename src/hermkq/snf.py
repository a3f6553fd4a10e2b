"""Integer Smith normal form, for invariant factors of finitely presented
abelian groups, and the Howell-form echelon over Z/N that solves every
linear system mod N, prime or not.  Small dense matrices, exact Python ints.
"""

from __future__ import annotations

from bisect import insort
from math import gcd, prod


def smith_normal_form(mat):
    """Return (D, V) with U*mat*V = D for some unimodular U, V unimodular
    and D in Smith form.  U itself is not kept: a cokernel needs only D, and
    its generators only V."""
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < m and t < n:
        # locate a nonzero pivot of minimal absolute value
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] % a[t][t] != 0:
                dirty = True
            row_op(i, t, a[i][t] // a[t][t])
        for j in range(t + 1, n):
            if a[t][j] % a[t][t] != 0:
                dirty = True
            col_op(j, t, a[t][j] // a[t][t])
        if dirty or any(a[i][t] for i in range(t + 1, m)) or any(
            a[t][j] for j in range(t + 1, n)
        ):
            continue
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offending row to pivot row
            continue
        t += 1
    return a, v


class Echelon:
    """Howell form of a subgroup of (Z/N)^n, grown one generator at a time
    (Howell, Linear Algebra Appl. 1986; Storjohann & Mulders, ESA 1998).

    `rows[j]` is the row leading at column j: zero before j, a divisor d of
    N at j.  Howell property: every element of the span that is zero before
    column j is a combination of the rows leading at j or later; it holds
    because (N/d) * row, zero through j, is put in the span too.  Rows are
    combined only by unimodular 2x2 steps from the extended gcd: dividing by
    a pivot that is not a unit would be wrong over Z/6.  So `reduce`, which
    takes each pivot coordinate to [0, d), gives one representative per
    coset whatever the order of the generators, and the span has prod(N/d)
    elements.  Over a prime every pivot is 1 and no gcd is taken.
    """

    def __init__(self, modulus: int, n: int):
        self.modulus = modulus
        self.n = n
        self.rows: dict[int, list[int]] = {}
        self.pivots: list[int] = []  # the columns of `rows`, ascending

    @property
    def size(self) -> int:
        return prod(self.modulus // self.rows[j][j] for j in self.pivots)

    def add(self, vec) -> None:
        """Put vec in the span."""
        N, rows = self.modulus, self.rows
        pending = [[x % N for x in vec]]
        while pending:
            v = pending.pop()
            for j in range(self.n):
                a = v[j]
                if not a:
                    continue
                row = rows.get(j)
                if row is not None and a % row[j] == 0:
                    q = a // row[j]
                    v = [(x - q * y) % N for x, y in zip(v, row)]
                    continue
                if row is None:
                    # lead with g = gcd(a, N); the rest of v, (N/g)*v, is zero through j
                    try:
                        g, s = 1, pow(a, -1, N)
                    except ValueError:
                        g = gcd(a, N)
                        s = pow(a // g, -1, N // g)
                    rows[j] = [s * x % N for x in v]
                    insort(self.pivots, j)
                    if g == 1:
                        break
                    v = [(N // g) * x % N for x in v]
                    continue
                # (v, row) -> (s*v + t*row, (d/g)*v - (a/g)*row), determinant -1
                d = row[j]
                g = gcd(a, d)
                s = pow(a // g, -1, d // g)
                t = (g - s * a) // d
                rows[j] = [(s * x + t * y) % N for x, y in zip(v, row)]
                v = [((d // g) * x - (a // g) * y) % N for x, y in zip(v, row)]
                if g != 1:
                    pending.append([(N // g) * x % N for x in rows[j]])

    def reduce(self, vec) -> tuple:
        """The canonical representative of vec + span."""
        N = self.modulus
        v = [x % N for x in vec]
        for j in self.pivots:
            row = self.rows[j]
            q = v[j] // row[j]
            if q:
                v = [(x - q * y) % N for x, y in zip(v, row)]
        return tuple(v)


class LinearMap:
    """x -> sum_k x_k * columns[k] over Z/modulus, each column of length
    `equations`, held as the Howell echelon of its graph for repeated
    solves.

    The graph {(image of x, x)} is spanned by the rows (columns[k], e_k),
    the x coordinates written from the last unknown to the first.  For a
    target t the coset (-t, 0) + graph holds (0, x) exactly for the
    solutions x.  `Echelon.reduce` takes the coset to its representative
    with each pivot coordinate in [0, d), and that is its least member in
    the lexicographic order of the coordinates: pivot by pivot, the members
    that agree before a pivot j differ there by the multiples of d (Howell
    property) and agree up to the next pivot.  So t has a solution exactly
    when the representative vanishes on the image part, and its x part is
    then the least solution compared from the last unknown to the first,
    which depends only on the solution set.  The rows leading in the x part
    form a Howell basis of the kernel.
    """

    def __init__(self, columns, modulus: int, equations: int):
        self.equations = m = equations
        k = self.unknowns = len(columns)
        ech = Echelon(modulus, m + k)
        for i, col in enumerate(columns):
            row = [*col, *[0] * k]
            row[m + k - 1 - i] = 1
            ech.add(row)
        self._echelon = ech
        # particular + sum c_i * generator_i over 0 <= c_i < range_i lists
        # every solution once, by the Howell property
        self.kernel = [(ech.rows[j][m:][::-1], modulus // ech.rows[j][j])
                       for j in ech.pivots if j >= m]

    def solve(self, target) -> list | None:
        """The least solution of sum_k x_k * columns[k] = target (see above),
        or None."""
        m = self.equations
        v = self._echelon.reduce([*(-t for t in target), *[0] * self.unknowns])
        if any(v[:m]):
            return None
        return list(v[m:][::-1])


def solve_mod(mat, target, modulus):
    """Solutions of mat*x = target over Z/modulus, mat given by rows.

    Returns (particular, kernel), or (None, []) when there is none.  The
    particular solution is the least one compared from the last unknown to
    the first (`LinearMap`); it depends only on the solution set.  `kernel`
    holds (generator, range) pairs, and particular + sum c_i * generator_i
    over 0 <= c_i < range_i lists every solution once.
    """
    lin = LinearMap([list(col) for col in zip(*mat)] if mat else [], modulus, len(mat))
    particular = lin.solve(target)
    if particular is None:
        return None, []
    return particular, lin.kernel
