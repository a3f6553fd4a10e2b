"""Independent oracles that only the tests use: each answers a question the
library answers too, by a different and simpler method."""

from itertools import product

from hermkq.additive import solve_affine
from hermkq.caps import Unsupported, check_cap
from hermkq.forms import QuadFormEl
from hermkq.linalg import Mat


def is_invertible_by_enumeration(m: Mat) -> bool:
    """Bijectivity of x -> m*x on A^n by full enumeration (independent oracle)."""
    R = m.ring
    if R.size is None:
        raise Unsupported("ring not enumerable")
    check_cap(R.size**m.rows, "bijectivity enumeration")
    seen = set()
    for vec in product(R.elements(), repeat=m.rows):
        col = Mat(R, [[v] for v in vec])
        image = m * col
        if image.entries in seen:
            return False
        seen.add(image.entries)
    return len(seen) == R.size**m.rows


def min_witness(a: QuadFormEl, b: QuadFormEl) -> Mat | None:
    """gamma with b.phi0 - a.phi0 = gamma - eps*gamma^*, or None."""
    if a.ring != b.ring or a.eps != b.eps or a.n != b.n:
        raise ValueError("forms are not comparable")
    diff = b.phi0 - a.phi0
    sols = solve_affine(
        a.ring,
        (a.n, a.n),
        lambda g: g - g.star().scale_sign(a.eps),
        diff,
        all_solutions=False,
    )
    return sols[0] if sols else None
