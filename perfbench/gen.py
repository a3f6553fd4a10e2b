"""Seeded input generator for the hermkq benchmark.

    python3 perfbench/gen.py --workload isometry --seed 7 --out inputs.jsonl

Turns a seed into plain query inputs: `hermkq` CLI argv lists, or JSON
arguments for the few library calls the CLI does not expose.  The same seed
gives byte-identical output, and no query repeats within one file.  The file
has a header line and then one round per line, so that the timed process
parses a round only when it starts it.  The generator does its own small
exact arithmetic and never imports `hermkq`, so the inputs do not change when
the library does.

Queries are grouped into rounds.  Every round of a workload has the same
query kinds in the same order, except for one slot with a small input space
that skips rounds; only the drawn forms and matrices differ.  The timed
process runs whole periods of rounds (PERIODS), so the work mix it completes
does not depend on where the clock stopped.  Each query may carry `expect`,
facts known in closed form that the checker compares with the report, and
`cls`, a congruence-class tag: queries with equal tags must report equal group
orders.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random

# ---------------------------------------------------------------------------
# small exact rings, mirroring the JSON specs and element strings of hermkq


class Arith:
    """A finite commutative ring with involution, as the generator needs it."""

    def __init__(self, spec, elements, add, mul, neg, conj, to_str, is_unit):
        self.spec = spec
        self.elements = list(elements)
        self.add, self.mul, self.neg, self.conj = add, mul, neg, conj
        self.to_str, self.is_unit = to_str, is_unit
        self.zero = self.elements[0]
        self.one = next(e for e in self.elements if all(mul(e, x) == x for x in self.elements))

    def sub(self, a, b):
        return self.add(a, self.neg(b))


def zn(n, kind="Zn"):
    spec = {"kind": "Fp", "p": n} if kind == "Fp" else {"kind": "Zn", "n": n}
    return Arith(
        spec, range(n), lambda a, b: (a + b) % n, lambda a, b: (a * b) % n,
        lambda a: (-a) % n, lambda a: a, str, lambda a: math.gcd(a, n) == 1,
    )


def f4(involution):
    """F4 = F2[w]/(w^2 + w + 1); element index c0 + 2*c1 as in hermkq's Fq."""

    def mul(a, b):
        a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
        return ((a0 & b0) ^ (a1 & b1)) | (((a0 & b1) ^ (a1 & b0) ^ (a1 & b1)) << 1)

    conj = (lambda a: mul(a, a)) if involution == "frobenius" else (lambda a: a)
    names = ["0", "1", "w", "w+1"]
    spec = {"kind": "Fq", "p": 2, "deg": 2, "modulus": [1, 1, 1], "involution": involution}
    return Arith(spec, range(4), lambda a, b: a ^ b, mul, lambda a: a, conj,
                 names.__getitem__, lambda a: a != 0)


def dual(base, conj_e="-e"):
    """base[e]/(e^2); elements (x, y) mean x + y*e, listed as hermkq lists them."""
    B = base

    def conj(a):
        y = B.conj(a[1])
        return (B.conj(a[0]), B.neg(y) if conj_e == "-e" else y)

    def wrap(s):
        return f"({s})" if any(ch in s for ch in "+-*|,[(") else s

    def to_str(a):
        sa, sb = B.to_str(a[0]), B.to_str(a[1])
        if a[1] == B.zero:
            return sa
        if a[0] == B.zero:
            return "e" if a[1] == B.one else f"{wrap(sb)}*e"
        if a[1] == B.one:
            return f"{wrap(sa)}+e"
        return f"{wrap(sa)}+{wrap(sb)}*e"

    elems = [(x, y) for y in B.elements for x in B.elements]
    return Arith(
        {"kind": "Dual", "base": B.spec, "conj_e": conj_e}, elems,
        lambda a, b: (B.add(a[0], b[0]), B.add(a[1], b[1])),
        lambda a, b: (B.mul(a[0], b[0]), B.add(B.mul(a[0], b[1]), B.mul(a[1], b[0]))),
        lambda a: (B.neg(a[0]), B.neg(a[1])), conj, to_str, lambda a: B.is_unit(a[0]),
    )


RINGS = {
    "F2": zn(2, "Fp"),
    "F3": zn(3, "Fp"),
    "F5": zn(5, "Fp"),
    "F4": f4("frobenius"),
    "F4t": f4("trivial"),
    "Z4": zn(4),
    "Z8": zn(8),
    "Z9": zn(9),
    "D4": dual(zn(4)),
}

# ---------------------------------------------------------------------------
# matrices: tuples of row tuples


def mat(R, rows):
    return tuple(tuple(r) for r in rows)


def ident(R, n):
    return mat(R, [[R.one if i == j else R.zero for j in range(n)] for i in range(n)])


def zeros(R, n):
    return mat(R, [[R.zero] * n for _ in range(n)])


def mmul(R, a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = R.zero
            for x, y in zip(row, col):
                acc = R.add(acc, R.mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return mat(R, out)


def madd(R, a, b):
    return mat(R, [[R.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def msub(R, a, b):
    return mat(R, [[R.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def star(R, a):
    return mat(R, [[R.conj(x) for x in col] for col in zip(*a)])


def det(R, a):
    n = len(a)
    if n == 0:
        return R.one
    if n == 1:
        return a[0][0]
    acc = R.zero
    for j in range(n):
        if a[0][j] == R.zero:
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = R.mul(a[0][j], det(R, minor))
        acc = R.add(acc, term if j % 2 == 0 else R.neg(term))
    return acc


def invertible(R, a):
    return R.is_unit(det(R, a))


def is_zero(R, a):
    return all(x == R.zero for row in a for x in row)


def nil_index(R, a, limit=8):
    power = a
    for k in range(1, limit + 1):
        if is_zero(R, power):
            return k
        power = mmul(R, power, a)
    return None


def strs(R, a):
    return [[R.to_str(x) for x in row] for row in a]


def rand_mat(R, rng, n):
    return mat(R, [[rng.choice(R.elements) for _ in range(n)] for _ in range(n)])


def rand_invertible(R, rng, n):
    while True:
        p = rand_mat(R, rng, n)
        if invertible(R, p):
            return p


def block_diag(R, blocks):
    n = sum(len(b) for b in blocks)
    out = [[R.zero] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at: at + len(row)] = row
        at += len(b)
    return mat(R, out)


def rank_mod2(a):
    rows = [list(r) for r in a]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# forms and their closed-form facts


def congruent(R, rng, phi0):
    """P^* phi0 P for a random invertible P, plus a random gamma - gamma^*.

    Congruence keeps the isometry class and the shift keeps the min class, so
    the orthogonal groups of the result have the orders of phi0's."""
    n = len(phi0)
    p = rand_invertible(R, rng, n)
    out = mmul(R, mmul(R, star(R, p), phi0), p)
    g = rand_mat(R, rng, n)
    return madd(R, out, msub(R, g, star(R, g))), p


def hyperbolic(R, m):
    n = 2 * m
    return mat(R, [[R.one if j == i + m else R.zero for j in range(n)] for i in range(n)])


def anisotropic_f2():
    return ((1, 1), (0, 1))


def arf_f2(phi0):
    """Arf invariant over F2 by counting the zeros of v^t phi0 v."""
    n = len(phi0)
    zeros_ = 0
    for v in itertools.product((0, 1), repeat=n):
        acc = 0
        for i in range(n):
            for j in range(n):
                acc ^= v[i] & phi0[i][j] & v[j]
        zeros_ += acc == 0
    return 0 if zeros_ == 2 ** (n - 1) + 2 ** (n // 2 - 1) else 1


def is_square_mod(a, p):
    return any((x * x - a) % p == 0 for x in range(1, p))


def selfadjoint_count(name, n):
    """|S(E)|: matrices with gamma^* = gamma, the kernel of O^el -> O^min."""
    if name == "F4":
        return 2**n * 4 ** (n * (n - 1) // 2)
    q = {"F2": 2, "F3": 3, "F5": 5}[name]
    return q ** (n * (n + 1) // 2)


def orthogonal_order(name, n, phi0):
    """Closed-form |O^min| = |O^max| of a nondegenerate form over F3, F5, F4,
    or None where the form is degenerate or no formula is used."""
    R = RINGS[name]
    phi = madd(R, phi0, star(R, phi0))
    if not invertible(R, phi):
        return None
    if name == "F4":
        return {1: 3, 2: 18, 3: 648}[n]  # |U_n(2)|
    q = {"F3": 3, "F5": 5}[name]
    if n == 1:
        return 2
    if n == 2:
        hyper = is_square_mod(-det(R, phi) % q, q)
        return 2 * (q - 1) if hyper else 2 * (q + 1)  # |O+-_2(q)|
    if n == 3:
        return 2 * q * (q * q - 1)
    return None


def form_doc(name, phi0, variant="el", eps=1):
    R = RINGS[name]
    return json.dumps({"ring": R.spec, "epsilon": eps, "variant": variant,
                       "matrix": strs(R, phi0)}, sort_keys=True)


def nondegenerate_form(name, rng, n):
    R = RINGS[name]
    while True:
        phi0 = rand_mat(R, rng, n)
        if invertible(R, madd(R, phi0, star(R, phi0))):
            return phi0


# ---------------------------------------------------------------------------
# queries


class Pool:
    """Collects one round of queries and keeps them distinct across the file."""

    def __init__(self):
        self.seen = set()
        self.round = []

    def add(self, kind, argv=None, call=None, args=None, expect=None, cls=None):
        body = {"argv": argv} if argv is not None else {"call": call, "args": args}
        key = json.dumps(body, sort_keys=True)
        if key in self.seen:
            return False
        self.seen.add(key)
        q = {"kind": kind, **body}
        if expect:
            q["expect"] = expect
        if cls:
            q["cls"] = cls
        self.round.append(q)
        return True

    def take(self):
        out, self.round = self.round, []
        return out


class Exhausted(Exception):
    """No distinct query is left for one of the round's slots."""


def add_unique(pool, rng, make, tries=200):
    """Draw with make() until the pool accepts a query not seen before."""
    for _ in range(tries):
        query = make(rng)
        if pool.add(**query):
            return
    raise Exhausted(f"no distinct {query['kind']} query left")


def group_query(name, n, variant, base, kind):
    def make(rng):
        R = RINGS[name]
        phi0, _ = congruent(R, rng, base)
        expect = {}
        if name == "F2" and n == 4:
            expect["order"] = 720 if variant == "max" else (72 if arf_f2(base) == 0 else 120)
        elif name == "F2" and n == 2:
            anis = arf_f2(base)
            expect["order"] = {"max": 6, "min": 6 if anis else 2}.get(variant)
            if variant == "el":
                expect["order"] = (6 if anis else 2) * selfadjoint_count("F2", 2)
        elif name in ("F3", "F5", "F4"):
            o = orthogonal_order(name, n, base)
            if o is not None:
                expect["order"] = o * (selfadjoint_count(name, n) if variant == "el" else 1)
        return {"kind": kind, "argv": ["group", "--form", form_doc(name, phi0), "--variant", variant],
                "expect": {k: v for k, v in expect.items() if v is not None},
                "cls": f"{name}:{variant}:{json.dumps(strs(RINGS[name], base))}"}
    return make


def gen_isometry(rng):
    """Fields only: the all_matrices scan, Mat multiply/compare, MatSubgroup.contains
    and verify_group_axioms dominate.  The composite solver is bypassed."""
    F2 = RINGS["F2"]
    h1 = hyperbolic(F2, 1)
    plus4 = hyperbolic(F2, 2)
    minus4 = block_diag(F2, [h1, anisotropic_f2()])
    bases = {}
    for name in ("F3", "F5", "F4"):
        R = RINGS[name]
        bases[name, 1] = [nondegenerate_form(name, random.Random(11 + k), 1) for k in range(2)]
        bases[name, 2] = [hyperbolic(R, 1), nondegenerate_form(name, random.Random(12), 2)]
    bases["F2", 2] = [h1, anisotropic_f2()]
    f3_rank3 = nondegenerate_form("F3", random.Random(13), 3)
    tables = witt_queries()

    def small_scan(rng):
        # ranks 1-3 over every field; the el variant only where it is cheap
        name, n = rng.choice([("F2", 2), ("F2", 3), ("F3", 1), ("F3", 2), ("F5", 1), ("F5", 2),
                              ("F4", 1), ("F4", 2)])
        variants = ["max", "min", "el"] if n == 1 or name == "F2" and n == 2 else ["max", "min"]
        base = nondegenerate_f2_rank3(rng) if n == 3 else rng.choice(bases[name, n])
        return group_query(name, n, rng.choice(variants), base, "group.small")(rng)

    pool = Pool()
    for r in range(2 * len(tables)):
        # heavy: one rank-4 scan over F2 (max and min alternate, O+ and O- alternate)
        if r % 2 == 0:
            add_unique(pool, rng, group_query("F2", 4, "max", rng.choice([plus4, minus4]), "group.F2r4.max"))
        else:
            base = plus4 if (r // 2) % 2 == 0 else minus4
            add_unique(pool, rng, group_query("F2", 4, "min", base, "group.F2r4.min"))
        for variant in ("max", "min"):
            add_unique(pool, rng, group_query("F3", 3, variant, f3_rank3, f"group.F3r3.{variant}"))
        # enlarged groups: the scan plus S(E) cosets and the extension check
        for name in ("F4", "F3"):
            add_unique(pool, rng, group_query(name, 2, "el", bases[name, 2][r % 2], "group.el"))
        # four small scans and 26 point queries put the median latency inside
        # the point queries' band; the six heavy scans hold the 90th percentile
        for _ in range(4):
            add_unique(pool, rng, small_scan)
        # one classification table, witt and gw alternating with the rank-4
        # variant, in a fixed order so that every seed pays the same
        command = "witt" if r % 2 == 0 else "gw"
        pool.add(command, argv=[command, *tables[r // 2]])
        # point queries on given matrices
        for n in (4, 4, 4, 6, 6, 6):
            add_unique(pool, rng, arf_query(n))
        for n in (2, 4):
            add_unique(pool, rng, arf_f4_query(n))
        for _ in range(6):
            add_unique(pool, rng, dickson_query(4))
        for name, n, variant in (("F2", 4, "el"), ("F2", 4, "min"), ("F3", 2, "el"), ("F3", 3, "min"),
                                 ("F5", 2, "max"), ("F5", 3, "el"), ("F4", 3, "max"), ("F4", 3, "min"),
                                 ("F2", 6, "max"), ("F5", 4, "min"), ("F3", 3, "el"), ("F5", 3, "min")):
            add_unique(pool, rng, form_check_query(name, n, variant))
        yield pool.take()


def nondegenerate_f2_rank3(rng):
    R = RINGS["F2"]
    while True:
        m = rand_mat(R, rng, 3)
        if not is_zero(R, msub(R, m, star(R, m))):
            return m


def witt_queries():
    """witt/gw tables that each take 0.3-0.6 s, so that rounds cost alike."""
    specs = [("F2", eps, variant, 4) for eps in (1, -1) for variant in ("min", "el")]
    specs += [("F3", 1, "min", 3), ("F3", 1, "el", 3), ("F3", -1, "max", 3)]
    specs += [(name, eps, variant, 3) for name in ("F4", "F4t") for eps in (1, -1)
              for variant in ("min", "el")]
    specs += [("F8", eps, variant, 2) for eps in (1, -1) for variant in ("min", "max", "el")]
    ring_specs = {name: arith.spec for name, arith in RINGS.items()}
    ring_specs["F8"] = {"kind": "Fq", "p": 2, "deg": 3, "modulus": [1, 1, 0, 1], "involution": "trivial"}
    return [("--ring", json.dumps(ring_specs[name], sort_keys=True), "--epsilon", str(eps),
             "--variant", variant, "--max-rank", str(rank)) for name, eps, variant, rank in specs]


def arf_query(n):
    def make(rng):
        R = RINGS["F2"]
        base = hyperbolic(R, n // 2)
        if rng.random() < 0.5:
            base = block_diag(R, [hyperbolic(R, n // 2 - 1), anisotropic_f2()])
        phi0, _ = congruent(R, rng, base)
        return {"kind": "arf", "argv": ["arf", "--form", form_doc("F2", phi0)],
                "expect": {"arf": str(arf_f2(base))}}
    return make


def arf_f4_query(n):
    def make(rng):
        R = RINGS["F4t"]
        base = hyperbolic(R, n // 2)
        phi0, _ = congruent(R, rng, base)
        return {"kind": "arf", "argv": ["arf", "--form", form_doc("F4t", phi0)]}
    return make


def dickson_query(n):
    """f = P^{-1} g P is orthogonal for P^t phi0 P when g is orthogonal for phi0;
    g runs over block swaps and hyperbolic maps of the hyperbolic form."""
    def make(rng):
        R = RINGS["F2"]
        m = n // 2
        base = hyperbolic(R, m)
        u = rand_invertible(R, rng, m)
        u_inv_t = star(R, inverse_f2(u))
        g = block_diag(R, [u, u_inv_t])
        if rng.random() < 0.5:  # the swap of one hyperbolic pair has Dickson 1
            s = [list(row) for row in ident(R, n)]
            s[0][0] = s[m][m] = 0
            s[0][m] = s[m][0] = 1
            g = mmul(R, g, mat(R, s))
        phi0, p = congruent(R, rng, base)
        f = mmul(R, mmul(R, inverse_f2(p), g), p)
        expect = rank_mod2(madd(R, f, ident(R, n))) % 2
        return {"kind": "dickson",
                "argv": ["dickson", "--form", form_doc("F2", phi0),
                         "--matrix", json.dumps(strs(R, f))],
                "expect": {"dickson": expect}}
    return make


def inverse_f2(a):
    n = len(a)
    rows = [list(a[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)


def form_check_query(name, n, variant):
    def make(rng):
        R = RINGS[name]
        phi0 = nondegenerate_form(name, rng, n)
        if variant == "max":
            phi0 = madd(R, phi0, star(R, phi0))
        return {"kind": "form-check",
                "argv": ["form-check", "--form", form_doc(name, phi0, variant)],
                "expect": {"nondegenerate": True}}
    return make


# ---------------------------------------------------------------------------
# clauwens: the sweep space of `verify`


def clmul(a, b):
    """Product in F2[s] of polynomials held as bit masks (bit k is s^k)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def theta_nondegenerate_f2(coeffs):
    """det(theta(s) + theta(1-s)^t) is a unit of F2[s], i.e. the constant 1."""
    n = len(coeffs[0])
    herm = [[0] * n for _ in range(n)]
    power = 1  # (1 - s)^k, and 1 - s = 1 + s over F2
    for k, c in enumerate(coeffs):
        for i in range(n):
            for j in range(n):
                if c[i][j]:
                    herm[i][j] ^= 1 << k
                if c[j][i]:
                    herm[i][j] ^= power
        power = clmul(power, 0b11)
    if n == 1:
        return herm[0][0] == 1
    return clmul(herm[0][0], herm[1][1]) ^ clmul(herm[0][1], herm[1][0]) == 1


def clauwens_sweep():
    """All nondegenerate theta of rank <= 2, degree <= 2 over F2 (516) and all
    nondegenerate rank-2 delta forms over F2 (8), in a fixed order."""
    thetas = []
    for n in (1, 2):
        mats = [tuple(tuple(bits[i * n:(i + 1) * n]) for i in range(n))
                for bits in itertools.product((0, 1), repeat=n * n)]
        for c in itertools.product(mats, repeat=3):
            if theta_nondegenerate_f2(c):
                thetas.append(c)
    deltas = [m for m in (tuple(tuple(b[i * 2:(i + 1) * 2]) for i in range(2))
                          for b in itertools.product((0, 1), repeat=4))
              if (m[0][1] ^ m[1][0]) == 1]
    return thetas, deltas


def cubic_thetas():
    """All nondegenerate theta of rank 2 and degree exactly 3 over F2 (3584).

    Their cup products cost what the sweep's do, but linearizing them takes
    seconds, so they feed the product and Lemma 2 queries only."""
    mats = [((b[0], b[1]), (b[2], b[3])) for b in itertools.product((0, 1), repeat=4)]
    return [c + (top,) for top in mats[1:] for c in itertools.product(mats, repeat=3)
            if theta_nondegenerate_f2(c + (top,))]


def small_shifts(n):
    """Monomial shifts E_ij s^k (k <= 2) for n = 2; every nonzero rank-1
    polynomial of degree <= 2 for n = 1 -- the shifts `verify` sweeps."""
    if n == 1:
        return [[[[c0]], [[c1]], [[c2]]] for c0, c1, c2 in itertools.product((0, 1), repeat=3)
                if c0 or c1 or c2]
    out = []
    for i in range(n):
        for j in range(n):
            e = [[int(r == i and c == j) for c in range(n)] for r in range(n)]
            z = [[0] * n for _ in range(n)]
            for k in range(3):
                out.append([z] * k + [e])
    return out


def theta_doc(coeffs):
    return {"ring": RINGS["F2"].spec, "epsilon": 1,
            "coefficients": [[[str(x) for x in row] for row in c] for c in coeffs]}


def gen_clauwens(rng):
    """Cup products, linearization and the Lemma 2 shift over F2: A[s]
    determinants, MatPoly arithmetic and Ring equality dominate; no group
    scan runs.

    Linearizing draws on the sweep of `verify` (516 theta), so a round holds
    an eighth of a linearize and one soundness check; products and shifts
    also draw on the cubic theta, whose cup products cost the same.  The
    shifts, the cheapest kind, are 12 of a round's 19, which puts the median
    latency inside their band."""
    thetas, deltas = clauwens_sweep()
    by_rank = {1: [t for t in thetas if len(t[0]) == 1], 2: [t for t in thetas if len(t[0]) == 2]}
    cubic = cubic_thetas()
    products = thetas + cubic
    shifted = by_rank[2] + cubic
    lin_order = list(range(len(thetas)))
    rng.shuffle(lin_order)
    pool = Pool()
    for r in range(8 * len(lin_order)):
        if r % 8 == 0:
            theta = thetas[lin_order[r // 8]]
            pool.add("linearize", argv=["clauwens", "linearize", "--theta",
                                        json.dumps(theta_doc(theta), sort_keys=True)])
        for _ in range(6):
            add_unique(pool, rng, lambda rng: {
                "kind": "product",
                "argv": ["clauwens", "product", "--theta",
                         json.dumps(theta_doc(rng.choice(products)), sort_keys=True),
                         "--delta-form", form_doc("F2", rng.choice(deltas))],
                "expect": {"nondegenerate": True}})
        add_unique(pool, rng, lambda rng: {
            "kind": "soundness", "call": "linearize_cup_soundness",
            "args": {"theta": theta_doc(rng.choice(by_rank[2])),
                     "delta": json.loads(form_doc("F2", rng.choice(deltas)))},
            "expect": {"sound": True}})
        for _ in range(12):
            def make(rng):
                t = rng.choice(shifted)
                z = rng.choice(small_shifts(2))
                return {"kind": "lemma2", "call": "lemma2_shift",
                        "args": {"theta": theta_doc(t),
                                 "z": [[[str(x) for x in row] for row in c] for c in z],
                                 "delta": json.loads(form_doc("F2", rng.choice(deltas)))}}
            add_unique(pool, rng, make)
        yield pool.take()


# ---------------------------------------------------------------------------
# nilpotent: non-field and nilpotent-rich rings


def selfadjoint_nilpotents(name, n, rng, samples=0):
    """Nonzero nu with nu^* = nu and nu^k = 0 for some k <= n, keyed by k.

    k <= n keeps the index within the rows*cols bound of hermkq's nilpotency
    search, so only valid inputs are sent.  Small spaces are enumerated; with
    `samples` the self-adjoint matrices are drawn at random instead."""
    R = RINGS[name]
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    diag_ok = [e for e in R.elements if R.conj(e) == e]
    choices = [diag_ok if i == j else R.elements for i, j in cells]
    if samples:
        draws = (tuple(rng.choice(c) for c in choices) for _ in range(samples))
    else:
        draws = itertools.product(*choices)
    found = {}
    for vals in draws:
        m = [[R.zero] * n for _ in range(n)]
        for (i, j), v in zip(cells, vals):
            m[i][j], m[j][i] = v, R.conj(v)
        m = mat(R, m)
        if is_zero(R, m):
            continue
        k = nil_index(R, m, n)
        if k is not None:
            found.setdefault(k, set()).add(m)
    return {k: sorted(v, key=lambda m: json.dumps(strs(R, m))) for k, v in found.items()}


def additive_span_size(R, gens):
    """Size of the additive subgroup generated by the given matrices."""
    vecs = [tuple(x for row in g for x in row) for g in gens]
    span = {tuple(R.zero for _ in vecs[0])}
    frontier = list(span)
    while frontier:
        cur = frontier.pop()
        for v in vecs:
            nxt = tuple(R.add(a, b) for a, b in zip(cur, v))
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    return len(span)


def projector_instances_z4(n):
    """Pairs (p0, p1) of symmetric idempotents over Z/4 with p1 - p0 in 2*M_n."""
    R = RINGS["Z4"]
    idems = []
    for vals in itertools.product(range(4), repeat=n * (n + 1) // 2):
        it = iter(vals)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(it)
        m = mat(R, m)
        if mmul(R, m, m) == m:
            idems.append(m)
    pairs = []
    for p0 in idems:
        for p1 in idems:
            if all(((x - y) % 2) == 0 for ra, rb in zip(p0, p1) for x, y in zip(ra, rb)):
                pairs.append((p0, p1))
    return pairs


def projector_instances_f3():
    """The hyperbolic-adjoint instance of `verify` over F3, with sigma's block y
    running over every matrix that keeps p1 an adjoint idempotent."""
    R = RINGS["F3"]
    z2 = zeros(R, 2)
    a = ((1, 0), (0, 0))
    c = ((0, 1), (1, 0))
    p0 = mat(R, [list(a[i]) + list(z2[i]) for i in range(2)] + [list(c[i]) + list(star(R, a)[i]) for i in range(2)])
    gram = mat(R, [list(z2[i]) + list(ident(R, 2)[i]) for i in range(2)]
               + [list(ident(R, 2)[i]) + list(z2[i]) for i in range(2)])
    out = []
    for vals in itertools.product(range(3), repeat=4):
        y = ((vals[0], vals[1]), (vals[2], vals[3]))
        sig = mat(R, [[0] * 4, [0] * 4] + [list(y[i]) + [0, 0] for i in range(2)])
        p1 = madd(R, p0, sig)
        adj = mmul(R, mmul(R, gram, star(R, p1)), gram)
        if mmul(R, p1, p1) == p1 and adj == p1:
            out.append((p0, p1, gram))
    return out


def lemma4_sigmas(name, n, nil):
    """Invertible sigma with sigma^* = sigma (1 + N) for a fixed nilpotent N."""
    R = RINGS[name]
    out = []
    one_plus = madd(R, ident(R, n), nil)
    for vals in itertools.product(R.elements, repeat=n * n):
        s = mat(R, [vals[i * n:(i + 1) * n] for i in range(n)])
        if star(R, s) == mmul(R, s, one_plus) and invertible(R, s):
            out.append(s)
    return out


def gen_nilpotent(rng):
    """Composite characteristic and nilpotent scalars: solve_affine's brute and
    Smith-form paths, adjugate invert and the generated-subring closure."""
    bases = {}
    for name in ("Z4", "Z8", "Z9", "D4"):
        R = RINGS[name]
        bases[name] = [hyperbolic(R, 1), nondegenerate_form(name, random.Random(21), 2)]
    # xi takes only a ring and a sign, so its input space is small: one xi per
    # two rounds.  Left out as defects: Dual(Z/4) with conj(e) = +e at epsilon
    # +1 (runs for minutes) and epsilon -1 in odd or mixed characteristic
    # (AssertionError).
    xi_pool = [(name, eps) for name in ("Z4", "D4", "DF2", "DF4", "F4t", "F2") for eps in (1, -1)]
    xi_pool.insert(2, ("D4+", -1))
    rings_xi = dict(RINGS, **{"D4+": dual(zn(4), "+e"), "DF2": dual(zn(2, "Fp")),
                              "DF4": dual(f4("frobenius"))})
    # sqrt-nilpotent strata, one query of each per round.  The cost grows with
    # the square of the subring Z[lambda, nu]; over Z/9 it ranges from 0.1 s
    # to 30 s, so the Z/9 draws are held to one subring size.
    nus = {name: [nu for n in sizes
                  for k, group in selfadjoint_nilpotents(name, n, random.Random(31)).items()
                  if k == index for nu in group]
           for name, sizes, index in (("F3", (3,), 3), ("F5", (2, 3), 2), ("F4", (3,), 3))}
    z9 = RINGS["Z9"]
    nus["Z9"] = [nu for group in selfadjoint_nilpotents("Z9", 3, random.Random(31), 40000).values()
                 for nu in group if additive_span_size(z9, [ident(z9, 3), nu, mmul(z9, nu, nu)]) == 81]
    split_units = {"Z9": "5", "F3": "2", "F5": "3", "F4": "w"}
    projectors = [("Z4", p0, p1, None) for n in (2, 3) for p0, p1 in projector_instances_z4(n)]
    projectors += [("F3", p0, p1, g) for p0, p1, g in projector_instances_f3()]
    nil3 = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    sigmas = [("F2", s) for s in lemma4_sigmas("F2", 3, nil3)]
    sigmas += [("F4", s) for s in lemma4_sigmas("F4", 2, ((0, 1), (0, 0)))]
    pool = Pool()
    for r in range(2 * len(xi_pool)):
        for name in ("Z4", "Z8", "Z9", "D4"):
            # Dual(Z/4) is scanned for the hyperbolic class only: 16^4 candidates
            for base in bases[name][:1] if name == "D4" else bases[name]:
                for variant in ("max", "min"):
                    add_unique(pool, rng, group_query(name, 2, variant, base, f"group.{name}.{variant}"))
        # form-check max runs is_even, whose solve_affine takes the brute-force
        # path over Z/8 and the Smith-form path over Z/9 and Dual(Z/4).  Z/4
        # is checked as min only: it has just 8 nondegenerate rank-2 max forms.
        for name in ("Z4", "Z8", "Z9", "D4"):
            for variant in ("min",) if name == "Z4" else ("min", "max"):
                def fc(rng, name=name, variant=variant):
                    R = RINGS[name]
                    phi0, _ = congruent(R, rng, rng.choice(bases[name]))
                    if variant == "max":
                        phi0 = madd(R, phi0, star(R, phi0))
                    return {"kind": "form-check",
                            "argv": ["form-check", "--form", form_doc(name, phi0, variant)],
                            "expect": {"nondegenerate": True}}
                add_unique(pool, rng, fc)
        if r % 2 == 0:
            name, eps = xi_pool[r // 2]
            pool.add("xi", argv=["xi", "--ring", json.dumps(rings_xi[name].spec, sort_keys=True),
                                 "--epsilon", str(eps)])
        # whitehead pairs of one size cost alike; 30 of them per round hold the
        # median latency inside their band
        for _ in range(30):
            def wh(rng):
                name = rng.choice(["Z8", "Z9"])
                R = RINGS[name]
                n = 3
                return {"kind": "whitehead",
                        "argv": ["whitehead", "--ring", json.dumps(R.spec, sort_keys=True),
                                 "--alpha", json.dumps(strs(R, rand_invertible(R, rng, n))),
                                 "--beta", json.dumps(strs(R, rand_invertible(R, rng, n)))]}
            add_unique(pool, rng, wh)
        for name in ("Z9", "F3", "F5", "F4"):
            def sq(rng, name=name):
                R = RINGS[name]
                nu = rng.choice(nus[name])
                k = nil_index(R, nu, len(nu))
                return {"kind": "sqrt",
                        "argv": ["clauwens", "sqrt-nilpotent", "--ring", json.dumps(R.spec, sort_keys=True),
                                 "--nu", json.dumps(strs(R, nu)), "--split-unit", split_units[name]],
                        "expect": {"nilpotency_index": k}}
            add_unique(pool, rng, sq)
        for _ in range(2):
            def pj(rng):
                name, p0, p1, gram = rng.choice(projectors)
                R = RINGS[name]
                n = len(p0)
                if gram is None:
                    gens = [[[R.to_str(2 if (r_ == i and c_ == j) else 0) for c_ in range(n)]
                             for r_ in range(n)] for i in range(n) for j in range(n)]
                else:
                    gens = [[[R.to_str(1 if (r_ == 2 + i and c_ == j) else 0) for c_ in range(4)]
                             for r_ in range(4)] for i in range(2) for j in range(2)]
                argv = ["clauwens", "conjugate-projectors", "--ring", json.dumps(R.spec, sort_keys=True),
                        "--p0", json.dumps(strs(R, p0)), "--p1", json.dumps(strs(R, p1)),
                        "--ideal", json.dumps(gens)]
                if gram is not None:
                    argv += ["--gram", json.dumps(strs(R, gram))]
                return {"kind": "projectors", "argv": argv}
            add_unique(pool, rng, pj)
        for _ in range(2):
            def l4(rng):
                name, sigma = rng.choice(sigmas)
                R = RINGS[name]
                zeta = rand_mat(R, rng, 2)
                n = len(sigma)
                # N = sigma^{-1} sigma^* - 1; its index is the recursion depth
                nil = nil3 if n == 3 else ((0, 1), (0, 0))
                depth = nil_index(R, mat(R, nil))
                return {"kind": "lemma4",
                        "argv": ["clauwens", "lemma4", "--ring", json.dumps(R.spec, sort_keys=True),
                                 "--sigma", json.dumps(strs(R, sigma)),
                                 "--delta-form", form_doc(name, hyperbolic(R, 1)),
                                 "--zeta", json.dumps(strs(R, zeta)), "--depth", str(depth)],
                        "expect": {"nilpotency_index": depth, "residual_zero": True}}
            add_unique(pool, rng, l4)
        yield pool.take()


GENERATORS = {"isometry": gen_isometry, "clauwens": gen_clauwens, "nilpotent": gen_nilpotent}
# rounds after which the round pattern repeats (the slot with a small input
# space skips rounds); the timed process stops only at the end of a period
PERIODS = {"isometry": 2, "clauwens": 8, "nilpotent": 2}


# rounds made at most per seed; clauwens alone would run to about 4000
MAX_ROUNDS = 3000


def generate(workload, seed):
    """Rounds for one workload and seed, until a slot's input space runs out
    (the group.el classes and the witt/gw tables of isometry, the F3
    sqrt-nilpotent inputs of nilpotent, the soundness pairs of clauwens) or
    MAX_ROUNDS are made.  A run at the seed uses at most a quarter of them; the
    timed process stops early only if it uses them all."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    try:
        for queries in itertools.islice(GENERATORS[workload](rng), MAX_ROUNDS):
            rounds.append(queries)
    except Exhausted:
        pass
    return {"workload": workload, "seed": seed, "rounds": rounds}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    doc = generate(args.workload, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        header = {"workload": args.workload, "seed": args.seed, "rounds": len(doc["rounds"]),
                  "period": PERIODS[args.workload]}
        for line in [header, *doc["rounds"]]:
            fh.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")


def read_inputs(path):
    """The rounds of an inputs file that main() wrote."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh][1:]


if __name__ == "__main__":
    main()
