"""Enumeration guard rails shared by every search in the package."""

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
    count of search nodes, checked before each level of the frame search.
    A node there is one unit of that search's work: each of the |R|^n
    columns of its first pass, and each inner product of a chosen column
    with a candidate for a later position.
    """
    limit = cap if cap is not None else global_cap()
    if size > limit:
        raise CapExceeded(f"{what}: search space {size} exceeds cap {limit}")
