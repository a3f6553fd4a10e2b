"""Finite rings with (anti)involution and their canonical element encodings.

Every ring exposes exact arithmetic (add/neg/mul/conj), a deterministic
enumeration when finite, canonical string encodings, and involution
verification.  Elements are plain hashable Python values, so they can be
shared freely and used as dict keys.

A coded ring has the ints 0..|R|-1, its codes, as elements, and its
operations are lookups in Cayley tables (`Ring.tables`), built once per
ring key from |R|^2 evaluations of the ring's definition.  A finite ring of
at most `_TABLE_LIMIT` (16) elements is coded, and an Fq of at most
`_FQ_TABLE_LIMIT` (256): its multiplication is polynomial arithmetic, so
its table pays for itself, while for the other kinds a larger table costs
more to build than a short computation spends on arithmetic.

- Fp, Zn and Fq elements are ints at every size, their own codes when
  coded (an Fq element is the index sum c_i p^i of its coefficient digits).
  Fp(p) is Zn(p) under its own kind: the same arithmetic mod p, keyed and
  serialised as {"kind": "Fp", "p": p}.
- Dual, Mat2, ProductOp and TruncPoly are defined by formulas on tuples
  over their base: the hooks `_add`, `_mul`, ... of their classes.  Such
  a ring is coded when its base is and it is small enough; the code of an
  element is the index of its tuple in the kind's enumeration order, so
  zero is 0 and `elements()` keeps that order.  `encode` and `decode` turn
  tuples into codes and back.  Above the limit the tuples themselves are
  the elements.
- Every finite kind has additive group (Z/char)^dim, and `coords` and
  `from_coords` read the coordinates off the element format: the residue
  of Zn and Fp, the digits of Fq, and the base's coordinates per component
  of a tuple kind, the fastest-varying component of `_tuples` first.  So
  `elements()` is sorted by the coordinates read from the last.  A coded
  ring looks them up in both directions.
- PolyS is infinite and never coded.  Its elements are tuples of
  coefficients, lowest degree first with no zero on top, except over the
  two-element field (Fp(2) or Zn(2)): there they are ints, bit k holding
  the coefficient of s^k, so that a sum is one xor.  `PolySRing.to_coeffs`,
  `from_coeffs` and `coeff_count` read either as coefficient tuples.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import product
from operator import pos, xor

from .caps import Unsupported, check_cap

_TABLE_LIMIT = 16  # a finite ring of at most this many elements is coded
_FQ_TABLE_LIMIT = 256  # and an Fq of at most this many
_TABLES: dict = {}  # ring key -> RingTables, shared by the rings with that key
# ring key, or canonical JSON of a spec given for it -> the ring
# `ring_from_json` returns for it
_INTERNED: dict = {}
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981  # see `_is_prime`


def _is_prime(n: int) -> bool:
    """Exact primality: trial division by the first 13 primes, then the
    strong probable-prime test to each of them as base, which no composite
    below `_MILLER_RABIN_BOUND` passes (Sorenson & Webster, Math. Comp. 86,
    2017).  Above the bound an n with no small factor raises Unsupported."""
    if n < 2 or any(n % p == 0 for p in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    if n >= _MILLER_RABIN_BOUND:
        raise Unsupported(f"primality of {n} is not decided above {_MILLER_RABIN_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p and k >= 1, exact wherever `_is_prime`
    is: a small prime factor must be the only one, and otherwise p > 41 > 2^5,
    so k is at most log_32 n."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return any((r := _iroot(n, k)) ** k == n and _is_prime(r)
               for k in range(1, n.bit_length() // 5 + 1))


def _text(s, kind: str) -> str:
    """s itself; every element encoding is a string, anything else is bad input."""
    if not isinstance(s, str):
        raise ValueError(f"bad {kind} element {s!r}: expected a string")
    return s


@dataclass
class InvolutionReport:
    """Result of checking the four involution axioms on a pair sample."""

    ring: dict
    checked_elements: int
    checked_pairs: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ring": self.ring,
            "checked_elements": self.checked_elements,
            "checked_pairs": self.checked_pairs,
            "violations": self.violations,
            "passed": self.passed,
        }


class RingTables:
    """The Cayley tables of a coded ring, whose elements are the codes
    0..size-1: `add[a][b]`, `mul[a][b]`, `neg[a]` and `conj[a]` are codes,
    `strs[a]` is the canonical string of code a, and `parse` maps each
    canonical string back to its code.

    For a tuple kind, `decode[a]` is the tuple over the base that code a
    stands for, the a-th of the kind's enumeration, and `encode` maps the
    tuples back to codes; for Fp, Zn and Fq both are None.  Every entry is
    one evaluation of the ring's definition, the hooks `_add`, `_mul`, ...
    of its kind, on the elements the codes stand for; `parse[strs[a]]` is
    `from_str`'s definition evaluated on strs[a], so a string in `parse`
    parses by lookup to what the definition gives.  `inv[a]` is the b with
    ab = ba = 1, read off `mul`, or None when a is not a unit.  `coords[a]`
    is the coordinate tuple of code a, and `from_coords` maps it back.
    """

    __slots__ = ("add", "mul", "neg", "conj", "inv", "strs", "parse", "decode", "encode",
                 "coords", "from_coords")

    def __init__(self, ring: "Ring"):
        self.decode = self.encode = None
        elems = range(ring.size)  # the elements of Fp, Zn and Fq are their own codes
        if isinstance(ring, _TupleRing):
            elems = self.decode = ring._tuples()
            self.encode = {t: i for i, t in enumerate(elems)}

        def codes(values: list) -> list:
            return values if self.encode is None else list(map(self.encode.__getitem__, values))

        add, mul = ring._add, ring._mul
        self.add = [codes([add(x, y) for y in elems]) for x in elems]
        self.mul = [codes([mul(x, y) for y in elems]) for x in elems]
        self.neg = codes([ring._neg(x) for x in elems])
        self.conj = codes([ring._conj(x) for x in elems])
        one = codes([ring.one])[0]
        self.inv = [None] * ring.size
        for a, row in enumerate(self.mul):
            if one in row and self.mul[b := row.index(one)][a] == one:
                self.inv[a] = b
        self.strs = [ring._to_str(x) for x in elems]
        self.parse = {t: codes([ring._from_str(t)])[0] for t in self.strs}
        self.coords = [ring._coords(x) for x in elems]
        self.from_coords = {c: a for a, c in enumerate(self.coords)}


class Ring:
    """Base class: a ring with involution and canonical encodings."""

    kind = "abstract"
    is_commutative = True
    is_field = False
    # commutative with one maximal ideal, the non-units: Fp, Fq, Zn(p^k), and
    # Dual and TruncPoly over a local base
    is_local = False
    # conj(a) = a for every a.  Exact for Zn, Fp and Fq, the kinds that can
    # be fields; another kind may leave it False under a trivial involution
    # (Dual(F2), where -e = e)
    trivial_involution = False
    size: int | None = None
    char: int = 0
    dim: int | None = None  # the additive group is (Z/char)^dim; None when infinite
    _key: str | None = None
    _poly_s: "PolySRing | None" = None
    # (eps, phi0) -> the `clauwens.DeltaDatum` of that form over this ring
    # object, filled by `DeltaDatum.from_quadform`
    _delta_data: dict | None = None
    tables: RingTables | None = None
    """The ring's Cayley tables when it is coded (see the module docstring),
    else None.  Hot loops may read them directly instead of calling the
    element operations."""

    def __init__(self):
        self.zero = self._zero()
        self.one = self._one()
        self.split_unit = None
        self._found_split_unit = None
        self._elements_cache = None
        if self._codable():
            self._code()
        else:  # the definition is the operation: no table to try first
            self.add, self.neg, self.mul, self.conj = self._add, self._neg, self._mul, self._conj
            self.sub, self.inv = self._sub, self._inv
            self.coords, self.from_coords = self._coords, self._from_coords
            self.contains, self.to_str, self.from_str = self._contains, self._to_str, self._from_str

    def _codable(self) -> bool:
        """Whether the ring is coded (see the module docstring)."""
        return self.size is not None and self.size <= _TABLE_LIMIT

    def _code(self) -> None:
        """Make the ring coded: its tables come from the cache, built for the
        first ring with this key.  A tuple kind's `zero` and `one` become
        codes."""
        key = self.key()
        tables = _TABLES.get(key)
        if tables is None:
            tables = _TABLES[key] = RingTables(self)
        self.tables = tables
        if tables.encode is not None:
            self.zero, self.one = tables.encode[self.zero], tables.encode[self.one]

    # Each kind defines its elements by these hooks.  A ring that is not
    # coded takes them as its element operations (`__init__`); those of a
    # coded ring, below, read its tables instead; its `from_str` looks a
    # canonical string up in `parse` and parses any other by the definition,
    # then encodes.  Zn (so Fp) takes the hooks `_add` to `_sub` as its
    # operations either way, as they cost no more than a lookup.
    # `_sub` has a definition here, a + (-b), for the kinds with no shorter
    # one; a coded ring's `sub` is one lookup, add[a][neg[b]].  So has `_inv`,
    # a scan of the elements under the cap ("unit scan"), which only an
    # uncoded ring of a kind with no inverse formula runs (Zn and Fq have
    # one); a coded ring's `inv`, Zn's too, is one lookup in `RingTables.inv`.
    def _zero(self):
        raise NotImplementedError

    def _one(self):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _conj(self, a):
        raise NotImplementedError

    def _sub(self, a, b):
        return self.add(a, self.neg(b))

    def _inv(self, a):
        if self.size is None:
            raise Unsupported("inverse scan needs a finite ring")
        check_cap(self.size, "unit scan")
        one = self.one
        for b in self.elements():
            if self.mul(a, b) == one and self.mul(b, a) == one:
                return b
        return None

    def _contains(self, a) -> bool:
        raise NotImplementedError

    def _to_str(self, a) -> str:
        raise NotImplementedError

    def _from_str(self, s: str):
        raise NotImplementedError

    def _coords(self, a) -> tuple:
        raise NotImplementedError

    def _from_coords(self, vec):
        raise NotImplementedError

    def add(self, a, b):
        return self.tables.add[a][b]

    def neg(self, a):
        return self.tables.neg[a]

    def mul(self, a, b):
        return self.tables.mul[a][b]

    def conj(self, a):
        return self.tables.conj[a]

    def sub(self, a, b):
        tables = self.tables
        return tables.add[a][tables.neg[b]]

    def int_embed(self, n: int):
        """Image of the integer n under Z -> ring."""
        result = self.zero
        one = self.one
        m = abs(n)
        base = one
        while m:
            if m & 1:
                result = self.add(result, base)
            base = self.add(base, base)
            m >>= 1
        return result if n >= 0 else self.neg(result)

    def inv(self, a):
        """The two-sided inverse of a, or None when a is not a unit."""
        return self.tables.inv[a]

    def coords(self, a) -> tuple:
        """The coordinates of a in the additive group (Z/char)^dim, each in
        [0, char) (see the module docstring)."""
        return self.tables.coords[a]

    def from_coords(self, vec):
        """The element with these coordinates, each read mod char."""
        return self.tables.from_coords[tuple(k % self.char for k in vec)]

    def contains(self, a) -> bool:
        """Whether a is an element of the ring.  A coded ring holds exactly
        the ints 0..size-1: over a coded tuple kind, a tuple is not an
        element, its code is."""
        return isinstance(a, int) and 0 <= a < self.size

    def _enumerate(self):
        raise Unsupported(f"{self.kind} ring is not enumerable")

    def elements(self) -> list:
        """All elements, each exactly once, in a fixed deterministic order."""
        if self._elements_cache is None:
            self._elements_cache = (
                list(range(self.size)) if self.tables is not None else list(self._enumerate())
            )
        return self._elements_cache

    def is_central(self, a) -> bool:
        if self.is_commutative:
            return True
        return all(self.mul(a, b) == self.mul(b, a) for b in self.elements())

    def find_split_unit(self):
        """Some central lambda with lambda + conj(lambda) = 1, or None.

        Under a trivial involution (of a commutative ring) that is 2*lambda =
        1, solved by 1/2 = (char + 1)/2 alone in odd characteristic and by
        nothing in even, where 2 is not a unit.  Other rings are scanned,
        a finite one under the cap.  A unit set by `set_split_unit` comes
        first; one found is kept apart from it, so that a ring shared by
        `ring_from_json` carries no set unit."""
        if self.split_unit is not None:
            return self.split_unit
        if self._found_split_unit is not None:
            return self._found_split_unit
        if self.trivial_involution:
            if self.char % 2:
                self._found_split_unit = self.int_embed((self.char + 1) // 2)
            return self._found_split_unit
        if self.size is not None:
            check_cap(self.size, "split unit scan")
        one = self.one
        for lam in self.elements():
            if self.add(lam, self.conj(lam)) == one and self.is_central(lam):
                self._found_split_unit = lam
                return lam
        return None

    def set_split_unit(self, lam) -> None:
        if self.add(lam, self.conj(lam)) != self.one:
            raise ValueError("split unit must satisfy lambda + conj(lambda) = 1")
        if not self.is_central(lam):
            raise ValueError("split unit must be central")
        self.split_unit = lam

    def verify_involution(self, sample: list | None = None) -> InvolutionReport:
        """Check the involution axioms on all pairs (or on the given sample)."""
        if sample is None:
            if self.size is not None:
                check_cap(self.size * self.size, "involution pair check")
                sample = self.elements()
            else:
                sample = self.sample_elements()
        violations = []
        one = self.one
        if self.conj(one) != one:
            violations.append({"axiom": "conj(1)=1", "element": self.to_str(one)})
        for a in sample:
            if self.conj(self.conj(a)) != a:
                violations.append({"axiom": "conj(conj(a))=a", "element": self.to_str(a)})
        for a in sample:
            for b in sample:
                if self.conj(self.add(a, b)) != self.add(self.conj(a), self.conj(b)):
                    violations.append(
                        {"axiom": "conj(a+b)=conj(a)+conj(b)",
                         "elements": [self.to_str(a), self.to_str(b)]}
                    )
                if self.conj(self.mul(a, b)) != self.mul(self.conj(b), self.conj(a)):
                    violations.append(
                        {"axiom": "conj(a*b)=conj(b)*conj(a)",
                         "elements": [self.to_str(a), self.to_str(b)]}
                    )
        lam = self.split_unit
        if lam is not None:
            if self.add(lam, self.conj(lam)) != one:
                violations.append({"axiom": "lambda+conj(lambda)=1",
                                   "element": self.to_str(lam)})
            if not self.is_central(lam):
                violations.append({"axiom": "lambda central",
                                   "element": self.to_str(lam)})
        return InvolutionReport(
            ring=self.to_json(),
            checked_elements=len(sample),
            checked_pairs=len(sample) ** 2,
            violations=violations,
        )

    def sample_elements(self) -> list:
        raise Unsupported(f"{self.kind} ring has no default sample")

    # encodings
    def to_str(self, a) -> str:
        return self.tables.strs[a]

    def from_str(self, s: str):
        tables = self.tables
        if isinstance(s, str):  # anything else is refused by the definition
            code = tables.parse.get(s)
            if code is not None:
                return code
        x = self._from_str(s)
        return x if tables.encode is None else tables.encode[x]

    def to_json(self) -> dict:
        raise NotImplementedError

    def key(self):
        """Canonical JSON of the constructor parameters, computed once.

        The split unit is not part of it, so `find_split_unit` and
        `set_split_unit` leave the key (and the hash) unchanged.
        """
        if self._key is None:
            self._key = json.dumps(self.to_json(), sort_keys=True)
        return self._key

    def poly_s(self) -> "PolySRing":
        """A[s] over this ring, made once, so that the matrices over it share
        one ring object and compare rings by identity."""
        if self._poly_s is None:
            self._poly_s = PolySRing(self)
        return self._poly_s

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"<{self.key()}>"


class Zn(Ring):
    """Z/n with the trivial involution (the only one shipped for Z/n)."""

    kind = "Zn"
    trivial_involution = True
    dim = 1

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        self.size = n
        self.char = n
        self.is_field = _is_prime(n)
        self.is_local = self.is_field or _is_prime_power(n)
        super().__init__()

    def _zero(self):
        return 0

    def _one(self):
        return 1

    def _add(self, a, b):
        return (a + b) % self.n

    def _neg(self, a):
        return (-a) % self.n

    def _mul(self, a, b):
        return (a * b) % self.n

    def _conj(self, a):
        return a

    def _sub(self, a, b):
        return (a - b) % self.n

    def _coords(self, a):
        return (a,)

    def _from_coords(self, vec):
        return vec[0] % self.n

    # a lookup costs no less than the definition, so the element operations
    # are the hooks themselves
    add, neg, mul, conj, sub = _add, _neg, _mul, _conj, _sub
    coords, from_coords = _coords, _from_coords

    def _inv(self, a):
        if math.gcd(a, self.n) != 1:
            return None
        return pow(a, -1, self.n)

    def _contains(self, a):
        return isinstance(a, int) and 0 <= a < self.n

    def _enumerate(self):
        return range(self.n)

    def _to_str(self, a):
        return str(a)

    def _from_str(self, s):
        return int(_text(s, self.kind)) % self.n

    def to_json(self):
        return {"kind": "Zn", "n": self.n}


class Fp(Zn):
    """Prime field Z/p with the trivial involution: Zn(p) under its own kind."""

    kind = "Fp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        super().__init__(p)

    def to_json(self):
        return {"kind": "Fp", "p": self.p}


def _poly_trim(t):
    t = list(t)
    while t and t[-1] == 0:
        t.pop()
    return tuple(t)


def _poly_mod(num, den, p):
    """num mod den over Fp, both little-endian tuples, den monic."""
    num = list(num)
    d = len(den) - 1
    while len(num) - 1 >= d and len(num) > 0:
        lead = num[-1] % p
        if lead:
            shift = len(num) - 1 - d
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    return _poly_trim(num)


def _poly_mul_mod(a, b, den, p):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_mod(out, den, p)


def _is_irreducible(modulus, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(modulus) - 1
    if deg < 1 or modulus[-1] % p != 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            div = tuple(tail) + (1,)
            if _poly_mod(modulus, div, p) == ():
                return False
    return True


class Fq(Ring):
    """Fp[w]/(modulus); elements are indices sum(c_i * p^i) of coefficient digits.
    The Frobenius a^(p^(deg/2)) and the inverse a^(q-2) share one power loop."""

    kind = "Fq"
    is_field = is_local = True

    def __init__(self, p: int, deg: int, modulus, involution: str = "trivial"):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != deg + 1:
            raise ValueError("modulus degree must equal deg")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus is reducible over Fp")
        if involution not in ("trivial", "frobenius"):
            raise ValueError("involution must be trivial or frobenius")
        if involution == "frobenius" and deg % 2 != 0:
            raise ValueError("frobenius involution needs even degree")
        self.p = p
        self.deg = deg
        self.modulus = modulus
        self.involution = involution
        self.trivial_involution = involution == "trivial"
        self.size = p**deg
        self.char = p
        self.dim = deg
        super().__init__()

    def _digits(self, a):
        out = []
        for _ in range(self.deg):
            out.append(a % self.p)
            a //= self.p
        return out

    def _index(self, digits):
        a = 0
        for c in reversed(digits):
            a = a * self.p + c
        return a

    def _coords(self, a):
        return tuple(self._digits(a))

    def _from_coords(self, vec):
        return self._index([k % self.p for k in vec])

    def _zero(self):
        return 0

    def _one(self):
        return 1

    def _add(self, a, b):
        if self.p == 2:
            return a ^ b
        da, db = self._digits(a), self._digits(b)
        return self._index([(x + y) % self.p for x, y in zip(da, db)])

    def _neg(self, a):
        if self.p == 2:
            return a
        return self._index([(-x) % self.p for x in self._digits(a)])

    def _mul(self, a, b):
        da = _poly_trim(self._digits(a))
        db = _poly_trim(self._digits(b))
        if not da or not db:
            return 0
        prod_ = _poly_mul_mod(da, db, self.modulus, self.p)
        return self._index(list(prod_) + [0] * (self.deg - len(prod_)))

    def _pow(self, a, e: int):
        result = 1
        while e:  # a^e by squaring, in the definition's product
            if e & 1:
                result = self._mul(result, a)
            a = self._mul(a, a)
            e >>= 1
        return result

    def _conj(self, a):
        return a if self.trivial_involution else self._pow(a, self.p ** (self.deg // 2))

    def _codable(self) -> bool:
        return self.size <= _FQ_TABLE_LIMIT

    def _inv(self, a):
        return None if a == 0 else self._pow(a, self.size - 2)

    def _contains(self, a):
        return isinstance(a, int) and 0 <= a < self.size

    def _enumerate(self):
        return range(self.size)

    def _to_str(self, a):
        digits = self._digits(a)
        terms = []
        for i in range(self.deg - 1, -1, -1):
            c = digits[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("w" if c == 1 else f"{c}*w")
            else:
                terms.append(f"w^{i}" if c == 1 else f"{c}*w^{i}")
        return "+".join(terms) if terms else "0"

    _TERM_RE = re.compile(r"^(?:(\d+)\*)?w(?:\^(\d+))?$|^(\d+)$")

    def _from_str(self, s):
        s = _text(s, self.kind).strip()
        digits = [0] * self.deg
        if s == "0":
            return 0
        for term in s.split("+"):
            m = self._TERM_RE.match(term.strip())
            if not m:
                raise ValueError(f"bad Fq element: {s!r}")
            if m.group(3) is not None:
                digits[0] = (digits[0] + int(m.group(3))) % self.p
            else:
                c = int(m.group(1)) if m.group(1) else 1
                k = int(m.group(2)) if m.group(2) else 1
                if k >= self.deg:
                    raise ValueError(f"exponent too large in {s!r}")
                digits[k] = (digits[k] + c) % self.p
        return self._index(digits)

    def to_json(self):
        return {
            "kind": "Fq",
            "p": self.p,
            "deg": self.deg,
            "modulus": list(self.modulus),
            "involution": self.involution,
        }


def _needs_parens(s: str) -> bool:
    return any(ch in s for ch in "+-*|,[(")


def _wrap(s: str) -> str:
    return f"({s})" if _needs_parens(s) else s


def _unwrap(s: str) -> str:
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        return s[1:-1]
    return s


class _TupleRing(Ring):
    """A kind whose elements are tuples over `base`: Dual, Mat2, ProductOp
    and TruncPoly.  The hooks of the kind's class (`_add`, `_mul`, ...) are
    its formulas on the tuples.  When the base is coded and there are at
    most _TABLE_LIMIT elements, the ring is coded too, and the formulas
    serve only to build its tables and, through `encode` and `decode`, to
    read and write its strings."""

    base: Ring

    def __init__(self, base: Ring, arity: int):
        """Over `base`, with `arity` components per tuple."""
        self.base = base
        self.size = None if base.size is None else base.size**arity
        self.dim = None if base.dim is None else base.dim * arity
        self.char = base.char
        super().__init__()

    def _coords(self, a):
        """The base's coordinates of each component, the last first."""
        coords = self.base.coords
        return tuple(k for x in reversed(a) for k in coords(x))

    def _from_coords(self, vec):
        from_coords, d = self.base.from_coords, self.base.dim
        return tuple(from_coords(vec[k - d: k]) for k in range(len(vec), 0, -d))

    def _add(self, a, b):
        """Componentwise, in every tuple kind; `_PairRing` spells it out for pairs."""
        add = self.base.add
        return tuple(map(add, a, b))

    def _neg(self, a):
        return tuple(map(self.base.neg, a))

    def _codable(self) -> bool:
        return super()._codable() and self.base.tables is not None

    def _tuples(self) -> list:
        """Every tuple, in the kind's enumeration order."""
        raise NotImplementedError

    def _enumerate(self):
        return self._tuples()

    def encode(self, t: tuple):
        """The element whose tuple over the base is t."""
        return t if self.tables is None else self.tables.encode[t]

    def decode(self, a) -> tuple:
        """The tuple over the base of the element a."""
        return a if self.tables is None else self.tables.decode[a]


class _PairRing(_TupleRing):
    """A tuple kind whose elements are pairs over the base: Dual and ProductOp."""

    def _add(self, a, b):
        add = self.base.add
        return (add(a[0], b[0]), add(a[1], b[1]))

    def _neg(self, a):
        neg = self.base.neg
        return (neg(a[0]), neg(a[1]))

    def _contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == 2
            and self.base.contains(a[0])
            and self.base.contains(a[1])
        )

    def _tuples(self):
        elems = self.base.elements()
        return [(x, y) for y in elems for x in elems]

    def _coords(self, a):
        coords = self.base.coords
        return coords(a[0]) + coords(a[1])

    def _from_coords(self, vec):
        from_coords, d = self.base.from_coords, self.base.dim
        return (from_coords(vec[:d]), from_coords(vec[d:]))


class DualRing(_PairRing):
    """Dual numbers base[e]/(e^2) with conj(e) = +e or -e; elements are pairs."""

    kind = "Dual"

    def __init__(self, base: Ring, conj_e: str = "-e"):
        if conj_e not in ("+e", "-e"):
            raise ValueError("conj_e must be '+e' or '-e'")
        self.conj_e = conj_e
        self.is_commutative = base.is_commutative
        self.is_local = base.is_local
        super().__init__(base, 2)

    def _zero(self):
        return (self.base.zero, self.base.zero)

    def _one(self):
        return (self.base.one, self.base.zero)

    def _mul(self, a, b):
        B = self.base
        return (B.mul(a[0], b[0]), B.add(B.mul(a[0], b[1]), B.mul(a[1], b[0])))

    def _conj(self, a):
        B = self.base
        cb = B.conj(a[1])
        if self.conj_e == "-e":
            cb = B.neg(cb)
        return (B.conj(a[0]), cb)

    def pair(self, a0, a1):
        """The element a0 + a1*e, for a0 and a1 in the base."""
        return self.encode((a0, a1))

    def _to_str(self, a):
        B = self.base
        sa, sb = B.to_str(a[0]), B.to_str(a[1])
        if a[1] == B.zero:
            return sa
        if a[0] == B.zero:
            return "e" if a[1] == B.one else f"{_wrap(sb)}*e"
        if a[1] == B.one:
            return f"{_wrap(sa)}+e"
        return f"{_wrap(sa)}+{_wrap(sb)}*e"

    def _from_str(self, s):
        s = _text(s, self.kind).strip()
        B = self.base
        if s.endswith("*e"):
            body = s[:-2]
            depth = 0
            for i in range(len(body) - 1, -1, -1):
                ch = body[i]
                if ch == ")":
                    depth += 1
                elif ch == "(":
                    depth -= 1
                elif ch == "+" and depth == 0 and i > 0:
                    return (B.from_str(_unwrap(body[:i])), B.from_str(_unwrap(body[i + 1:])))
            return (B.zero, B.from_str(_unwrap(body)))
        if s.endswith("+e"):
            return (B.from_str(_unwrap(s[:-2])), B.one)
        if s == "e":
            return (B.zero, B.one)
        return (B.from_str(_unwrap(s)), B.zero)

    def to_json(self):
        return {"kind": "Dual", "base": self.base.to_json(), "conj_e": self.conj_e}


class Mat2Ring(_TupleRing):
    """2x2 matrices over the base with the swap involution [[a,b],[c,d]] -> [[db],[ca]] bar."""

    kind = "Mat2"
    is_commutative = False

    def __init__(self, base: Ring):
        super().__init__(base, 4)

    def _zero(self):
        z = self.base.zero
        return (z, z, z, z)

    def _one(self):
        z, o = self.base.zero, self.base.one
        return (o, z, z, o)

    def _mul(self, x, y):
        B = self.base
        a, b, c, d = x
        e, f, g, h = y
        return (
            B.add(B.mul(a, e), B.mul(b, g)),
            B.add(B.mul(a, f), B.mul(b, h)),
            B.add(B.mul(c, e), B.mul(d, g)),
            B.add(B.mul(c, f), B.mul(d, h)),
        )

    def _conj(self, x):
        a, b, c, d = x
        B = self.base
        return (B.conj(d), B.conj(b), B.conj(c), B.conj(a))

    def _contains(self, x):
        return (
            isinstance(x, tuple)
            and len(x) == 4
            and all(self.base.contains(c) for c in x)
        )

    def _tuples(self):
        elems = self.base.elements()
        return [
            (a, b, c, d)
            for a in elems
            for b in elems
            for c in elems
            for d in elems
        ]

    def _to_str(self, x):
        B = self.base
        return json.dumps(
            [[B.to_str(x[0]), B.to_str(x[1])], [B.to_str(x[2]), B.to_str(x[3])]],
            separators=(",", ":"),
        )

    def _from_str(self, s):
        rows = json.loads(_text(s, self.kind))
        if not (isinstance(rows, list) and len(rows) == 2
                and all(isinstance(r, list) and len(r) == 2 for r in rows)):
            raise ValueError(f"bad Mat2 element {s!r}: expected a 2x2 JSON list")
        B = self.base
        return (
            B.from_str(rows[0][0]),
            B.from_str(rows[0][1]),
            B.from_str(rows[1][0]),
            B.from_str(rows[1][1]),
        )

    def to_json(self):
        return {"kind": "Mat2", "base": self.base.to_json()}


class ProductOpRing(_PairRing):
    """B x B^op with the swap involution (a|b) -> (b|a)."""

    kind = "ProductOp"

    def __init__(self, base: Ring):
        self.is_commutative = base.is_commutative
        super().__init__(base, 2)
        self.split_unit = self.encode((base.one, base.zero))

    def _zero(self):
        return (self.base.zero, self.base.zero)

    def _one(self):
        return (self.base.one, self.base.one)

    def _mul(self, a, b):
        # second slot carries the opposite multiplication
        return (self.base.mul(a[0], b[0]), self.base.mul(b[1], a[1]))

    def _conj(self, a):
        return (a[1], a[0])

    def _to_str(self, a):
        return f"({self.base.to_str(a[0])}|{self.base.to_str(a[1])})"

    def _from_str(self, s):
        s = _text(s, self.kind).strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"bad ProductOp element: {s!r}")
        body = s[1:-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "|" and depth == 0:
                return (self.base.from_str(body[:i]), self.base.from_str(body[i + 1:]))
        raise ValueError(f"bad ProductOp element: {s!r}")

    def to_json(self):
        return {"kind": "ProductOp", "base": self.base.to_json()}


class PolySRing(Ring):
    """A[s] with conj(s) = 1 - s.  An element is the tuple of its
    coefficients, lowest degree first, with no zero on top; over the
    two-element field `PolySRing(F2())` is an `_F2PolySRing`, whose elements
    are bitmask ints.  `to_coeffs`, `from_coeffs` and `coeff_count` read and
    build elements as coefficient tuples whichever the representation.

    The ring is infinite; enumerate() walks the polynomials of degree at most
    degree_bound when one is configured (a sample of the ring, used by the
    involution checker and split-unit search).  It is never coded.
    """

    kind = "PolyS"

    def __new__(cls, base: Ring, degree_bound: int | None = None):
        # the representation is chosen from the base alone
        if cls is PolySRing and isinstance(base, Zn) and base.n == 2:
            cls = _F2PolySRing
        return super().__new__(cls)

    def __init__(self, base: Ring, degree_bound: int | None = None):
        self.base = base
        self.degree_bound = degree_bound
        self.size = None
        self.char = base.char
        self.is_commutative = base.is_commutative
        # row i: the pairs (k, image of C(i, k) (-1)^k) with a nonzero image,
        # the expansion of (1 - s)^i; grown by `_conj` as degrees need
        self._binomial_rows = []
        super().__init__()

    coeff_count = staticmethod(len)
    """The number of coefficients of an element up to its top nonzero one:
    its degree + 1, and 0 for zero."""

    def to_coeffs(self, a) -> tuple:
        """The coefficients of a, lowest degree first, with no zero on top."""
        return a

    def from_coeffs(self, coeffs):
        """The element with this sequence of coefficients, lowest degree
        first; zeros on top are dropped."""
        return _poly_trim_ring(list(coeffs), self.base)

    def _zero(self):
        return ()

    def _one(self):
        return (self.base.one,)

    def _add(self, a, b):
        # elements are trimmed: the sum keeps the longer one's top
        # coefficient unless the two have the same length
        if len(a) < len(b):
            a, b = b, a
        head = list(map(self.base.add, a, b))
        if len(a) > len(b):
            return tuple(head) + a[len(b):]
        return _poly_trim_ring(head, self.base)

    def _neg(self, a):
        return tuple(self.base.neg(c) for c in a)

    def _mul(self, a, b):
        B = self.base
        if not a or not b:
            return ()
        out = [B.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = B.add(out[i + j], B.mul(x, y))
        return _poly_trim_ring(out, B)

    def _conj(self, a):
        """conj(sum c_i s^i) = sum conj(c_i) (1-s)^i, expanded binomially."""
        B = self.base
        add, mul, zero = B.add, B.mul, B.zero
        rows = self._binomial_rows
        while len(rows) < len(a):
            i = len(rows)
            images = ((k, B.int_embed(math.comb(i, k) * (-1) ** k)) for k in range(i + 1))
            rows.append([(k, x) for k, x in images if x != zero])
        out = [zero] * (len(a) or 1)
        for c, row in zip(a, rows):
            cc = B.conj(c)
            if cc == zero:
                continue
            for k, x in row:
                out[k] = add(out[k], mul(cc, x))
        return _poly_trim_ring(out, B)

    def _contains(self, a):
        return isinstance(a, tuple) and all(self.base.contains(c) for c in a) and (
            not a or a[-1] != self.base.zero
        )

    def _enumerate(self):
        if self.degree_bound is None:
            raise Unsupported("PolyS is infinite; set a degree bound to sample it")
        return self._polys_up_to(self.degree_bound)

    def _polys_up_to(self, bound: int) -> list:
        """The polynomials of degree at most `bound`, ordered by length and
        then by coefficient tuple."""
        if self.base.size is None:
            raise Unsupported("PolyS base not enumerable")
        check_cap(self.base.size ** (bound + 1), "PolyS sample")
        polys = {_poly_trim_ring(list(c), self.base)
                 for c in product(self.base.elements(), repeat=bound + 1)}
        return [self.from_coeffs(t) for t in sorted(polys, key=lambda t: (len(t), t))]

    def sample_elements(self):
        bound = self.degree_bound if self.degree_bound is not None else 2
        if self.base.size is not None and self.base.size ** (bound + 1) <= 4096:
            return self._polys_up_to(bound)
        raise Unsupported("PolyS sample too large")

    def _to_str(self, a):
        return json.dumps([self.base.to_str(c) for c in self.to_coeffs(a)], separators=(",", ":"))

    def _from_str(self, s):
        """A JSON list of coefficients, lowest degree first, each written as
        a base-ring string or an integer: '["1","w"]' or '[1,0,2]'."""
        coeffs = json.loads(s) if isinstance(s, str) else None
        if not isinstance(coeffs, list) or any(
            isinstance(c, bool) or not isinstance(c, (str, int)) for c in coeffs
        ):
            raise ValueError(f"bad PolyS element {s!r}: expected a JSON list of coefficients")
        return self.from_coeffs([self.base.from_str(str(c)) for c in coeffs])

    def to_json(self):
        out = {"kind": "PolyS", "base": self.base.to_json()}
        if self.degree_bound is not None:
            out["degree_bound"] = self.degree_bound
        return out


def _poly_trim_ring(coeffs, base):
    while coeffs and coeffs[-1] == base.zero:
        coeffs.pop()
    return tuple(coeffs)


def _f2_mul(a: int, b: int) -> int:
    """The carry-less product in F2[s]: b shifted by each set bit of a."""
    out = 0
    while a:
        low = a & -a
        out ^= b * low
        a ^= low
    return out


def _f2_conj_bytes() -> list:
    """p(1 + s) for every p of F2[s] of degree < 8, indexed by p: the table
    doubles once per bit k, the polynomials with top bit k getting
    (1 + s)^k on top of the image of their lower bits.  (1 + s)^k has
    coefficient C(k, j) mod 2 at s^j, which is 1 exactly when the bits of j
    are among those of k (Lucas)."""
    table = [0]
    for k in range(8):
        power = sum(1 << j for j in range(k + 1) if j & k == j)
        table += [c ^ power for c in table]
    return table


_F2_CONJ_BYTE = _f2_conj_bytes()
_F2_BYTE_COEFFS = [tuple(p >> k & 1 for k in range(p.bit_length())) for p in range(256)]


def _f2_conj(a: int) -> int:
    """p(s) -> p(1 + s) in F2[s], a Taylor shift.  Write p = sum_i B_i s^(8i)
    with each B_i of degree < 8; as (1 + s)^8 = 1 + s^8, p(1 + s) is
    sum_i B_i(1 + s) (1 + s^8)^i: a table entry per byte, summed by Horner's
    rule in 1 + s^8, whose product with c is c ^ (c << 8)."""
    if a < 256:
        return _F2_CONJ_BYTE[a]
    out = 0
    for shift in range((a.bit_length() - 1) & ~7, -1, -8):
        out ^= (out << 8) ^ _F2_CONJ_BYTE[(a >> shift) & 255]
    return out


class _F2PolySRing(PolySRing):
    """F2[s], the `PolySRing` of the two-element field: an element is an int
    whose bit k is the coefficient of s^k.  A sum or difference is one xor,
    -a is a, a product is carry-less (`_f2_mul`) and conj(p) = p(1 + s) a
    Taylor shift (`_f2_conj`).  Strings are those of the tuple form."""

    coeff_count = staticmethod(int.bit_length)

    def to_coeffs(self, a) -> tuple:
        if a < 256:
            return _F2_BYTE_COEFFS[a]
        return tuple(a >> k & 1 for k in range(a.bit_length()))

    def from_coeffs(self, coeffs):
        a = 0
        for c in reversed(coeffs):  # each c is 0 or 1
            a = a << 1 | c
        return a

    def _zero(self):
        return 0

    def _one(self):
        return 1

    _add = _sub = staticmethod(xor)
    _neg = staticmethod(pos)  # -a = a in characteristic 2
    _mul = staticmethod(_f2_mul)
    _conj = staticmethod(_f2_conj)

    def _contains(self, a):
        return isinstance(a, int) and a >= 0


class TruncPolyRing(_TupleRing):
    """A[t]/(t^k) with conj(t) = +t or -t; elements are length-k tuples."""

    kind = "TruncPoly"

    def __init__(self, base: Ring, k: int, conj_t: str = "+t"):
        if k < 1:
            raise ValueError("truncation order must be >= 1")
        if conj_t not in ("+t", "-t"):
            raise ValueError("conj_t must be '+t' or '-t'")
        self.k = k
        self.conj_t = conj_t
        self.is_commutative = base.is_commutative
        self.is_local = base.is_local
        super().__init__(base, k)

    def _zero(self):
        return (self.base.zero,) * self.k

    def _one(self):
        return (self.base.one,) + (self.base.zero,) * (self.k - 1)

    def _mul(self, a, b):
        B = self.base
        out = [B.zero] * self.k
        for i, x in enumerate(a):
            if x == B.zero:
                continue
            for j, y in enumerate(b):
                if i + j >= self.k:
                    break
                out[i + j] = B.add(out[i + j], B.mul(x, y))
        return tuple(out)

    def _conj(self, a):
        B = self.base
        out = []
        for i, c in enumerate(a):
            cc = B.conj(c)
            if self.conj_t == "-t" and i % 2 == 1:
                cc = B.neg(cc)
            out.append(cc)
        return tuple(out)

    def _contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == self.k
            and all(self.base.contains(c) for c in a)
        )

    def _tuples(self):
        return [tuple(c) for c in product(self.base.elements(), repeat=self.k)]

    def _enumerate(self):
        check_cap(self.size, "TruncPoly enumeration")
        return self._tuples()

    def _to_str(self, a):
        return json.dumps([self.base.to_str(c) for c in a], separators=(",", ":"))

    def _from_str(self, s):
        coeffs = json.loads(_text(s, self.kind))
        if not isinstance(coeffs, list):
            raise ValueError(f"bad TruncPoly element {s!r}: expected a JSON list")
        coeffs = [self.base.from_str(c) for c in coeffs]
        if len(coeffs) > self.k:
            raise ValueError("too many coefficients")
        coeffs += [self.base.zero] * (self.k - len(coeffs))
        return tuple(coeffs)

    def to_json(self):
        return {
            "kind": "TruncPoly",
            "base": self.base.to_json(),
            "k": self.k,
            "conj_t": self.conj_t,
        }


def ring_from_json(doc) -> Ring:
    """The ring of a JSON spec (dict or JSON string).

    A spec that sets no split unit, at any depth, gives one shared ring per
    key, so that the matrices of separate calls, and those the subgroup
    caches keep, share one ring object and compare rings by identity.  The
    shared ring is looked up first by the spec's canonical JSON
    (`json.dumps(doc, sort_keys=True)`), under which it is also kept, so a
    spec met before builds nothing; specs that differ in key order or in a
    default field reach the same ring through its key.  A spec with a split
    unit gives a new ring, so that the unit stays with it.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    spec = json.dumps(doc, sort_keys=True)
    ring = _INTERNED.get(spec)
    if ring is not None:
        return ring
    ring = _ring_from_spec(doc)
    if _sets_split_unit(doc):
        return ring
    ring = _INTERNED.setdefault(ring.key(), ring)
    _INTERNED[spec] = ring
    return ring


def _sets_split_unit(doc) -> bool:
    return "split_unit" in doc or ("base" in doc and _sets_split_unit(doc["base"]))


def _ring_from_spec(doc) -> Ring:
    kind = doc.get("kind")
    if kind == "Fp":
        ring = Fp(doc["p"])
    elif kind == "Zn":
        ring = Zn(doc["n"])
    elif kind == "Fq":
        ring = Fq(doc["p"], doc["deg"], doc["modulus"], doc.get("involution", "trivial"))
    elif kind == "Dual":
        ring = DualRing(ring_from_json(doc["base"]), doc.get("conj_e", "-e"))
    elif kind == "Mat2":
        ring = Mat2Ring(ring_from_json(doc["base"]))
    elif kind == "ProductOp":
        ring = ProductOpRing(ring_from_json(doc["base"]))
    elif kind == "PolyS":
        ring = PolySRing(ring_from_json(doc["base"]), doc.get("degree_bound"))
    elif kind == "TruncPoly":
        ring = TruncPolyRing(ring_from_json(doc["base"]), doc["k"], doc.get("conj_t", "+t"))
    else:
        raise ValueError(f"unknown ring kind: {kind!r}")
    if "split_unit" in doc:
        ring.set_split_unit(ring.from_str(doc["split_unit"]))
    return ring


# convenient shared constructors
def F2() -> Fp:
    return Fp(2)


def F4(involution: str = "frobenius") -> Fq:
    return Fq(2, 2, (1, 1, 1), involution)
