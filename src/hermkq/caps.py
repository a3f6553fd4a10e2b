"""Enumeration guard rails shared by every search in the package.

The search cap is set in one place only: the innermost `scoped_cap` block,
else the HERMKQ_CAP environment variable, else DEFAULT_CAP.  No search takes
it as an argument; `clauwens.SPAN_LIMIT`, on the generated subring and the
projector's ideal, is a separate fixed bound.  A search that would pass a
cap raises CapExceeded; an input a computation does
not cover raises Unsupported, whatever the cap.
"""

import contextlib
import contextvars
import os

DEFAULT_CAP = 2**20

_SCOPED_CAP: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "hermkq_scoped_cap", default=None
)


class CapExceeded(Exception):
    """A brute-force search space is larger than the configured cap."""


class Unsupported(ValueError):
    """The input is well formed, but the computation asked for does not
    cover it."""


def global_cap() -> int:
    """Current cap: the `scoped_cap` override if one is active, else the
    HERMKQ_CAP environment variable, else DEFAULT_CAP."""
    scoped = _SCOPED_CAP.get()
    if scoped is not None:
        return scoped
    raw = os.environ.get("HERMKQ_CAP")
    if raw is None:
        return DEFAULT_CAP
    cap = int(raw)
    if cap <= 0:
        raise ValueError("HERMKQ_CAP must be positive")
    return cap


@contextlib.contextmanager
def scoped_cap(cap: int | None):
    """Make `cap` the current cap inside the `with` block only; None keeps
    the current cap."""
    if cap is None:
        yield
        return
    if cap <= 0:
        raise ValueError("cap must be positive")
    token = _SCOPED_CAP.set(cap)
    try:
        yield
    finally:
        _SCOPED_CAP.reset(token)


def check_cap(size: int, what: str, cap: int | None = None) -> None:
    """Raise CapExceeded when a search of `size` steps would pass the cap.

    `size` is whatever the search spends: the candidates a full scan would
    try, or, for the group searches ("matrix enumeration"), the running
    count of search nodes, checked before each level of the frame search.  A
    node there is one unit of that search's work: each of the |R|^n columns
    of its first pass, and each inner product of a chosen column with a
    candidate for a later position.  The enlarged group lists only O^min,
    under that count, and lifts only its generators; its preview lists S(E)
    ("subgroup enumeration").  The per-entry table of the shift map, which
    the min variant and S(E) read, walks the ring's elements once ("shift
    table").  `groups.el_elements`, which lists the pairs of that certified
    group fibre by fibre, one witness read per f, counts its order
    |O^min|.|S(E)| first ("el pair enumeration").  A ring's split-unit scan
    counts its elements ("split unit scan"); a trivial involution needs no
    scan.  The scan for an inverse counts them too ("unit scan"); only an
    uncoded Dual, TruncPoly, Mat2 or ProductOp ring runs it, as a coded ring
    reads its inverse table and Zn and Fq have a formula.  The Xi group
    counts the cells of its relation rows ("xi relations"), and so does the
    char-2 Xi oracle, which counts its generators first ("xi generators").
    The Witt tables count the even hermitian candidates of each rank
    ("matrix enumeration"), and for the min variant the canonical
    representatives they would give, checked first ("coset representative
    enumeration").

    The limit is the search cap (`global_cap`) unless `cap` is given.  No
    search in the package passes `cap`; only the wrapper in
    `perfbench/tracing.py` does, forwarding what it was called with.
    """
    limit = cap if cap is not None else global_cap()
    if size > limit:
        raise CapExceeded(f"{what}: search space {size} exceeds cap {limit}")
