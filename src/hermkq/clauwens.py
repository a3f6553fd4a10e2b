"""Polynomial quadratic forms over A[s] (conj s = 1-s), the cup-product with
a normalized quadratic datum, degree linearization, and the constructive
nilpotent-machinery lemmas (congruence recursion, polynomial square root,
projector conjugation).

Conventions.  A polynomial matrix is a `Mat` over `PolySRing(A)`: its sums,
products, blocks and determinant are those of `Mat`, and its s-adjoint is
`Mat.star()`, the conjugate transpose with s -> 1-s in each entry.
`MatPoly` only builds such a matrix from its coefficient matrices C_k
(sum C_k s^k) and prints it as that list.  An entry is an element of A[s] in
its ring's one representation (a bitmask int over F2, a coefficient tuple
otherwise; see `rings`), so this module reads and builds entries only
through `PolySRing.to_coeffs`, `from_coeffs` and `coeff_count`.  After
identifying a module with its dual by the hermitian form Delta of the datum,
endomorphisms of the tensor factor carry the twisted adjoint
X -> Delta^{-1} X^bar-t Delta.  All identities below are verified exactly.

A substitution p(phi) -- a cup product, Lemma 2's shift, the linearization
replay -- is a sum over the powers Delta phi^k (phi^k for the replay's
unimodular factors), and every such sum with one datum needs the same
powers.  So the datum owns them: `DeltaDatum.powers` forms each power once
and keeps it on the datum, where it is freed with the datum (a module table
keyed by object identity would outlive it, and could answer for a later
object at a reused address).  The powers are derived from Delta and phi, so
the datum's equality and repr ignore them.

Data are shared in turn: `DeltaDatum.from_quadform` keeps the data it
builds on the form's ring object, keyed by (eps, phi0), so that every query
with an equal form over that ring reads one gram inverse, one psi check and
one list of powers.  The table keeps at most `_DATA_PER_RING` (64) data per
ring, the oldest going first, and goes with the ring; a datum is frozen, and
only its power lists grow.  Shared data pay off where few forms serve many
queries, as a fixed Delta does in the cup product, Lemma 2's shift and the
linearization's soundness check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .additive import extend_span, solve_affine
from .caps import Unsupported
from .forms import DegenerateFormError, QuadFormEl, hyperbolic
from .linalg import Mat, _det_comm, block, diag_block, invert, kron, nilpotency_index
from .rings import PolySRing, Ring

_DATA_PER_RING = 64  # data `DeltaDatum.from_quadform` keeps per ring, oldest out first

# ---------------------------------------------------------------------------
# polynomial matrices


class MatPoly(Mat):
    """The matrix sum_k C_k s^k over A[s], built from its coefficient
    matrices C_k over A; `coeffs` and `to_strs` give them back, with zero
    top coefficients trimmed."""

    __slots__ = ()

    def __init__(self, ring: Ring, rows: int, cols: int, coeffs):
        coeffs = list(coeffs)
        if any(c.rows != rows or c.cols != cols for c in coeffs):
            raise ValueError("coefficient shape mismatch")
        ps = ring.poly_s()
        super().__init__(
            ps,
            [
                [ps.from_coeffs([c.entries[i][j] for c in coeffs]) for j in range(cols)]
                for i in range(rows)
            ],
        )

    @property
    def degree(self) -> int:
        return max(map(self.ring.coeff_count, chain.from_iterable(self.entries)), default=0) - 1

    @property
    def coeffs(self) -> list[Mat]:
        ps = self.ring
        zero = ps.base.zero
        rows = [[ps.to_coeffs(e) for e in row] for row in self.entries]
        return [
            Mat(ps.base, [[e[k] if k < len(e) else zero for e in row] for row in rows])
            for k in range(self.degree + 1)
        ]

    def to_strs(self):
        return [c.to_strs() for c in self.coeffs]


def _as_matpoly(m: Mat) -> MatPoly:
    """A matrix over A[s] typed as a MatPoly; the entries are shared."""
    if isinstance(m, MatPoly):
        return m
    return MatPoly._trusted(m.ring, m.entries, m.rows, m.cols)


def _substitute(p: Mat, d: "DeltaDatum", gram: bool = True) -> Mat:
    """sum_k p_k (x) L phi^k for p = sum_k p_k s^k over A[s], with L = Delta
    (a cup product) or L = 1 (a plain substitution, `gram=False`): the ring
    homomorphism s -> phi into the Kronecker algebra, with L on the second
    factor.

    The powers L phi^k are read from the datum (`DeltaDatum.powers`), which
    forms each one once for all the substitutions into it.  Block (i, j) of
    the output is e(phi) = sum_k e_k L phi^k for the entry e = p[i][j] over
    A[s], summed once per distinct entry over its nonzero coefficients (a
    coefficient 1 takes the rows of its power as they are) and written
    straight into the output rows.
    """
    R, ps = d.ring, p.ring
    add, mul, zero, one = R.add, R.mul, R.zero, R.one
    m = d.m
    powers = d.powers(max(map(ps.coeff_count, chain.from_iterable(p.entries)), default=0), gram)
    blocks = {ps.zero: [(zero,) * m] * m}  # entry -> the rows of its block

    def block_of(e) -> list:
        rows = None  # e is not zero, so some coefficient sets it
        for k, c in enumerate(ps.to_coeffs(e)):
            if c != zero:
                power = powers[k].entries
                term = power if c == one else [[mul(c, x) for x in row] for row in power]
                rows = term if rows is None else [tuple(map(add, acc, t))
                                                  for acc, t in zip(rows, term)]
        return rows

    out = []
    for prow in p.entries:
        row_blocks = []
        for e in prow:
            b = blocks.get(e)
            if b is None:
                b = blocks[e] = block_of(e)
            row_blocks.append(b)
        for a in range(m):
            out.append(tuple([x for b in row_blocks for x in b[a]]))
    return Mat._trusted(R, tuple(out), p.rows * m, p.cols * m)


def _poly_unit(ps: PolySRing, u) -> bool:
    """u(s) is a unit of A[s] iff u(0) is a unit and every higher coefficient
    is nilpotent (A commutative)."""
    coeffs, ring = ps.to_coeffs(u), ps.base
    if not coeffs:
        return False
    if ring.inv(coeffs[0]) is None:
        return False
    return all(nilpotency_index(Mat(ring, [[c]])) is not None for c in coeffs[1:])


# ---------------------------------------------------------------------------
# polynomial quadratic forms and delta data


class PolyQuadForm:
    """theta = sum theta_k s^k on A^n over A[s], with invertible hermitian
    part H(s) = theta + eps * theta^* (s-bar = 1-s)."""

    def __init__(self, ring: Ring, eps: int, theta: Mat, check: bool = True):
        if eps not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if theta.rows != theta.cols:
            raise ValueError("theta must be square")
        self.ring = ring
        self.eps = eps
        self.n = theta.rows
        self.theta = _as_matpoly(theta)
        self._hermitian = None
        self._nondegenerate = None
        if check and self.n > 0 and not self.nondegenerate():
            raise DegenerateFormError("hermitian part is not invertible over A[s]")

    @staticmethod
    def from_coeff_mats(ring, eps, mats, check=True):
        mats = list(mats)
        if not mats:
            raise ValueError("theta needs at least one coefficient matrix")
        n = mats[0].rows
        return PolyQuadForm(ring, eps, MatPoly(ring, n, n, mats), check=check)

    def hermitian(self) -> MatPoly:
        """H(s) = theta + eps*theta^*; computed once per form."""
        if self._hermitian is None:
            self._hermitian = _as_matpoly(self.theta + self.theta.star().scale_sign(self.eps))
        return self._hermitian

    def nondegenerate(self) -> bool:
        """Whether det H(s) is a unit of A[s]; computed once per form."""
        if self._nondegenerate is None:
            if self.n and not self.ring.is_commutative:
                raise Unsupported("polynomial determinant needs a commutative ring")
            herm = self.hermitian()
            self._nondegenerate = self.n == 0 or _poly_unit(herm.ring, _det_comm(herm))
        return self._nondegenerate

    def degree(self) -> int:
        return self.theta.degree


@dataclass(frozen=True)
class DeltaDatum:
    """Quadratic datum after dual identification: gram Delta (invertible,
    Delta^* = eta*Delta) and phi with phi + phi^dagger = 1 for the twisted
    adjoint x -> Delta^{-1} x^bar-t Delta.  A `gram_inv` given is checked by
    the one product Delta gram_inv = 1, as a one-sided inverse is two-sided
    over the m x m matrices of a commutative or a finite ring; without one,
    Delta is inverted.  A datum is frozen, as `from_quadform` shares it."""

    ring: Ring
    eta: int
    m: int
    gram: Mat
    phi: Mat
    gram_inv: Mat = field(default=None, repr=False)
    # [Delta, Delta phi, Delta phi^2, ...] and [1, phi, phi^2, ...], grown by
    # `powers`; derived from gram and phi, so not part of the datum's value
    _gram_powers: list = field(default=None, init=False, compare=False, repr=False)
    _phi_powers: list = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.gram.star() != self.gram.scale_sign(self.eta):
            raise ValueError("gram fails Delta^* = eta*Delta")
        identity = Mat.identity(self.ring, self.m)
        if self.gram_inv is None:
            inv = invert(self.gram)
            if inv is None:
                raise DegenerateFormError("gram must be invertible")
            object.__setattr__(self, "gram_inv", inv)
        elif self.gram * self.gram_inv != identity:
            raise ValueError("gram_inv is not the inverse of gram")
        if self.phi + self.adjoint(self.phi) != identity:
            raise ValueError("phi fails phi + phi^* = 1")
        object.__setattr__(self, "_gram_powers", [self.gram])
        object.__setattr__(self, "_phi_powers", [identity])

    def adjoint(self, x: Mat) -> Mat:
        return self.gram_inv * x.star() * self.gram

    def powers(self, count: int, gram: bool = True) -> list[Mat]:
        """At least `count` of the powers L phi^k, k = 0, 1, ..., with
        L = Delta (or 1 when `gram` is False).  Each power is formed once per
        datum and kept: every cup product, shift and replay with this datum
        substitutes into the same powers."""
        out = self._gram_powers if gram else self._phi_powers
        while len(out) < count:
            out.append(out[-1] * self.phi)
        return out

    @staticmethod
    def from_quadform(q: QuadFormEl) -> "DeltaDatum":
        """The datum of q: Delta = phi0 + eps*phi0^*, and phi the
        normalization psi = Delta^{-1} phi0 of `forms.psi_normalize`.  The
        inverse is the one q's hermitian form keeps, and psi + psi^dagger = 1
        is checked once, by the constructor.

        The datum is shared: a form equal to one met before over the same
        ring object, in eps and phi0, gets the datum built for that one.
        Each ring object keeps at most `_DATA_PER_RING` (64) data, the
        oldest going first; a ring made afresh, such as one with a split
        unit (never interned), starts with none."""
        data = q.ring._delta_data
        if data is None:
            data = q.ring._delta_data = {}
        key = (q.eps, q.phi0)
        d = data.get(key)
        if d is None:
            h = q.associated()
            inv = h.inverse()
            if inv is None:
                raise DegenerateFormError("psi normalization needs a nondegenerate form")
            d = DeltaDatum(q.ring, q.eps, q.n, h.phi, inv * q.phi0, inv)
            if len(data) >= _DATA_PER_RING:
                del data[next(iter(data))]
            data[key] = d
        return d


@dataclass
class AlmostHermitian:
    """g with conj-transpose(g) = eps*g*(1+N), N nilpotent."""

    ring: Ring
    eps: int
    g: Mat
    nilpotent: Mat
    index: int
    _linear: PolyQuadForm = field(default=None, init=False, compare=False, repr=False)

    @staticmethod
    def from_matrix(ring: Ring, eps: int, g: Mat) -> "AlmostHermitian":
        ginv = invert(g)
        if ginv is None:
            raise DegenerateFormError("almost hermitian g must be invertible")
        n_mat = (ginv * g.star()).scale_sign(eps) - Mat.identity(ring, g.rows)
        idx = nilpotency_index(n_mat)
        if idx is None:
            raise ValueError("g^{-1} g^* - 1 is not nilpotent")
        out = AlmostHermitian(ring, eps, g, n_mat, idx)
        out.validate()
        return out

    def validate(self):
        ident = Mat.identity(self.ring, self.g.rows)
        lhs = self.g.star()
        rhs = (self.g * (ident + self.nilpotent)).scale_sign(self.eps)
        if lhs != rhs:
            raise AssertionError("almost hermitian identity failed")

    def linear_form(self) -> PolyQuadForm:
        """The form g*s; built once per object, so that its A[s] determinant
        is taken once however many data it is paired with."""
        if self._linear is None:
            zero = Mat.zero(self.ring, self.g.rows, self.g.cols)
            self._linear = PolyQuadForm(
                self.ring, self.eps, MatPoly(self.ring, self.g.rows, self.g.cols, [zero, self.g])
            )
        return self._linear


# ---------------------------------------------------------------------------
# the cup-product


def cup_product(theta: PolyQuadForm, d: DeltaDatum) -> QuadFormEl:
    """kappa = sum theta_k (x) (Delta phi^k) on the tensor module.

    Both factors must live over the same commutative ring (the coefficient
    pairing is ring multiplication); the result is an eps*eta-quadratic form
    whose hermitian part equals the substituted hermitian polynomial.
    """
    if theta.ring != d.ring:
        raise ValueError("cup product factors must share a ring")
    if not theta.nondegenerate():
        raise DegenerateFormError("theta is degenerate")
    return QuadFormEl(theta.ring, theta.eps * d.eta, _substitute(theta.theta, d))


def kappa_hermitian_two_ways(theta: PolyQuadForm, d: DeltaDatum):
    """The hermitian part of kappa computed directly and by substituting phi
    into the hermitian s-polynomial H; they must agree entrywise."""
    return _hermitian_two_ways(theta, d, cup_product(theta, d))


def _hermitian_two_ways(theta: PolyQuadForm, d: DeltaDatum, kappa: QuadFormEl):
    """`kappa_hermitian_two_ways` for kappa = `cup_product(theta, d)`,
    already formed."""
    direct = kappa.phi0 + kappa.phi0.star().scale_sign(kappa.eps)
    lifted = _substitute(theta.hermitian(), d)  # H(s) = theta + eps theta^*
    return direct, lifted


def kappa_nondegenerate(theta: PolyQuadForm, d: DeltaDatum) -> bool:
    """Invertibility of kappa + kappa^*; equals the substitution H(phi)."""
    return _kappa_nondegenerate(theta, d, cup_product(theta, d))


def _kappa_nondegenerate(theta: PolyQuadForm, d: DeltaDatum, kappa: QuadFormEl) -> bool:
    """`kappa_nondegenerate` for kappa = `cup_product(theta, d)`, already
    formed: H(phi) = kappa + kappa^* is still checked."""
    direct, lifted = _hermitian_two_ways(theta, d, kappa)
    if direct != lifted:
        raise AssertionError("substitution H(phi) disagrees with kappa + kappa^*")
    return invert(direct) is not None


def _carry_verdict(theta: PolyQuadForm, theta2: PolyQuadForm) -> PolyQuadForm:
    """Give theta2 theta's verdict with no determinant, once the caller has
    checked that H(theta2) is H(theta), or Q^* (H(theta) (+) H_hyp) Q for a
    unimodular Q: det H is a unit of A[s] for both or for neither.  A
    degenerate theta is refused, as the constructor refuses it."""
    if not theta.nondegenerate():
        raise DegenerateFormError("hermitian part is not invertible over A[s]")
    theta2._nondegenerate = True
    return theta2


def lemma2_shift(theta: PolyQuadForm, z: Mat, d: DeltaDatum | None = None):
    """Shift theta by Z - eps*Z^*; cup products change by an explicit shift.

    Returns (theta', witness) where witness (present when a datum is given)
    carries gamma = sum Z_k (x) Delta phi^k with
    kappa' = kappa + gamma - (eps*eta) gamma^*, checked exactly.  So
    kappa' - kappa is in the shift subgroup {x - (eps*eta) x^*} by its
    definition: the cup products are min-equal, with no second test.
    """
    shifted = theta.theta + z - z.star().scale_sign(theta.eps)
    theta2 = PolyQuadForm(theta.ring, theta.eps, shifted, check=False)
    if theta2.hermitian() != theta.hermitian():
        raise AssertionError("shift changed the hermitian part")
    _carry_verdict(theta, theta2)  # the same hermitian part
    witness = None
    if d is not None:
        kappa = cup_product(theta, d).phi0
        kappa2 = cup_product(theta2, d).phi0
        gamma = _substitute(z, d)
        eps_out = theta.eps * d.eta
        if kappa2 != kappa + gamma - gamma.star().scale_sign(eps_out):
            raise AssertionError("explicit cup-product shift failed")
        witness = {"gamma": gamma, "kappa": kappa, "kappa_shifted": kappa2}
    return theta2, witness


# ---------------------------------------------------------------------------
# linearization


def _degree_reduction_factor(theta: PolyQuadForm) -> Mat:
    """The unimodular Q of one reduction step: block columns (E, A^n, A^n*),
    lower triangular with identity diagonal, carrying (s-1) and
    theta_N s^{N-1} in the first column."""
    ps = theta.theta.ring
    R = ps.base
    n = theta.n
    big = theta.degree()
    ident = Mat.identity(ps, n)
    zero = Mat.zero(ps, n)
    s_minus_one = Mat.scalar(ps, n, ps.from_coeffs((R.neg(R.one), R.one)))
    theta_top = MatPoly(R, n, n, [Mat.zero(R, n)] * (big - 1) + [theta.theta.coeffs[big]])
    return block(
        ps,
        [
            [ident, zero, zero],
            [s_minus_one, ident, zero],
            [theta_top, zero, ident],
        ],
    )


def _stabilize_theta(theta: PolyQuadForm) -> Mat:
    """theta (+) the rank-2n hyperbolic generator as a constant block."""
    R = theta.theta.ring.base
    hyp = MatPoly(R, 2 * theta.n, 2 * theta.n, [hyperbolic(R, 1, theta.n).phi0])
    return diag_block(theta.theta.ring, [theta.theta, hyp])


def _congruent_hermitian_parts(eps: int, middle: Mat, q_factor: Mat, new_theta: Mat) -> bool:
    """H(new theta) = Q^* (H(theta) (+) H_hyp) Q, where H(x) = x + eps*x^*
    and `middle` is theta (+) the hyperbolic block.  The right side is
    computed from the hermitian part of `middle`, not from the product
    that gave `new_theta`, so a wrong `new_theta` with a different
    hermitian part fails it."""

    def hermitian(x: Mat) -> Mat:
        return x + x.star().scale_sign(eps)

    return hermitian(new_theta) == q_factor.star() * hermitian(middle) * q_factor


def linearize(theta: PolyQuadForm):
    """Reduce theta to an equivalent linear form g*s, stabilizing by
    hyperbolics: each degree-reduction step conjugates theta (+) H by the
    displayed unimodular factor, dropping the top degree by one and growing
    the rank by 2n; a final constant-elimination shift leaves g with
    conj-transpose(g) = eps*g*(1+N), N nilpotent.

    Returns (AlmostHermitian, transcript); every transcript step records an
    exactly verified identity.
    """
    if not theta.nondegenerate():
        raise DegenerateFormError("cannot linearize a degenerate form")
    R = theta.ring
    eps = theta.eps
    work = theta
    transcript = []
    while work.degree() >= 2:
        big = work.degree()
        q_factor = _degree_reduction_factor(work)
        p_factor = q_factor.star()
        middle = _stabilize_theta(work)
        new_theta = _as_matpoly(p_factor * middle * q_factor)
        if new_theta.degree > max(big - 1, 1):
            raise AssertionError("degree reduction failed to drop the degree")
        if not _congruent_hermitian_parts(eps, middle, q_factor, new_theta):
            raise AssertionError("transcript step failed its exact recheck")
        # Q is block unitriangular and H_hyp has unit determinant
        work = _carry_verdict(work, PolyQuadForm(R, eps, new_theta, check=False))
        transcript.append(
            {
                "step": len(transcript),
                "kind": "degree_reduction",
                "degree_before": big,
                "degree_after": work.degree(),
                "rank_after": work.n,
                "check": "pass",
                "_q": q_factor,
            }
        )
    # eliminate the constant: theta0 + theta1 s  ~  (theta1 + theta0 + eps theta0^*) s
    zero = Mat.zero(R, work.n)
    theta0, g = (work.theta.coeffs + [zero, zero])[:2]  # degree <= 1 now
    if not theta0.is_zero():
        z = MatPoly(R, work.n, work.n, [-theta0, theta0])  # -theta0 (1 - s)
        shifted, _ = lemma2_shift(work, z)
        g = theta0 + g + theta0.star().scale_sign(eps)
        if shifted.theta != MatPoly(R, work.n, work.n, [zero, g]):
            raise AssertionError("constant elimination did not produce g*s")
        work = shifted
        transcript.append(
            {
                "step": len(transcript),
                "kind": "constant_elimination",
                "check": "pass",
                "_z": z,
            }
        )
    almost = AlmostHermitian.from_matrix(R, eps, g)
    return almost, transcript


def linearize_cup_soundness(
    theta: PolyQuadForm, almost: AlmostHermitian, transcript, d: DeltaDatum
) -> bool:
    """Replay the transcript under cup product with the datum: the linear
    output's cup product must match the input's after the recorded
    hyperbolic stabilizations, exactly at each step.  Equal matrices are
    min-equal (0 = 0 - eps*0^* is a shift), so no min test follows."""
    R = theta.ring
    eps_out = theta.eps * d.eta
    kappa = cup_product(theta, d).phi0
    rank = theta.n
    for step in transcript:
        if step["kind"] == "degree_reduction":
            hyp_kappa = kron(hyperbolic(R, 1, rank).phi0, d.gram)
            stabilized = diag_block(R, [kappa, hyp_kappa])
            q_sub = _substitute(step["_q"], d, gram=False)
            kappa = q_sub.star() * stabilized * q_sub
            rank *= 3
        else:
            gamma = _substitute(step["_z"], d)
            kappa = kappa + gamma - gamma.star().scale_sign(eps_out)
    return cup_product(almost.linear_form(), d).phi0 == kappa


# ---------------------------------------------------------------------------
# the congruence recursion (appendix lemma 4)


def lemma4_recursion(sigma: Mat, d: DeltaDatum, zeta: Mat, depth: int) -> dict:
    """Iterate f_{p+1} = f_p + N^{p+1} (x) kappa_{p+1} against the congruence

        f_p^* (sigma (x) phi) f_p
            = sigma (x) (phi + zeta - zeta^*) + Z_p - Z_p^*
              modulo span{sigma N^k (x) anything : k >= p+1}

    with N = sigma^{-1} conj-transpose(sigma) - 1 nilpotent, f_0 = 1 and
    Z_0 = -sigma (x) zeta.  Once p reaches the nilpotency index the span is
    zero and the residual must vanish identically.
    """
    R = sigma.ring
    if d.ring != R:
        raise ValueError("lemma 4 recursion factors must share a ring")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not R.is_commutative:
        raise Unsupported("the recursion uses Kronecker products")
    n = sigma.rows
    m = d.m
    sig_inv = invert(sigma)
    if sig_inv is None:
        raise ValueError("sigma must be invertible")
    n_mat = sig_inv * sigma.star() - Mat.identity(R, n)
    idx = nilpotency_index(n_mat)
    if idx is None:
        raise ValueError("sigma is not almost hermitian: N not nilpotent")

    gram_big = kron(Mat.identity(R, n), d.gram)
    gram_big_inv = kron(Mat.identity(R, n), d.gram_inv)

    def tw(x: Mat) -> Mat:
        return gram_big_inv * x.star() * gram_big

    s_form = kron(sigma, d.phi)
    zeta_star = d.adjoint(zeta)
    rhs_const = kron(sigma, d.phi + zeta - zeta_star)

    sigma_n_powers = []
    power = sigma * n_mat
    for _ in range(1, idx):
        sigma_n_powers.append(power)
        power = power * n_mat

    def span_solve(defect: Mat, start: int):
        """Write defect = sum_{k>=start} sigma N^k (x) X_k, or return None."""
        mats = sigma_n_powers[start - 1:]
        if not mats:
            return [] if defect.is_zero() else None
        rows = len(mats) * m

        def fun(stack: Mat) -> Mat:
            acc = Mat.zero(R, n * m, n * m)
            for i, sn in enumerate(mats):
                blockpart = stack.submatrix(i * m, (i + 1) * m, 0, m)
                acc = acc + kron(sn, blockpart)
            return acc

        sols = solve_affine(R, (rows, m), fun, defect, all_solutions=False)
        if not sols:
            return None
        stack = sols[0]
        return [stack.submatrix(i * m, (i + 1) * m, 0, m) for i in range(len(mats))]

    f_p = Mat.identity(R, n * m)
    z_p = -kron(sigma, zeta)
    steps = []
    residual = None
    for p in range(depth + 1):
        lhs = tw(f_p) * s_form * f_p
        rhs = rhs_const + z_p - tw(z_p)
        defect = lhs - rhs
        decomposition = span_solve(defect, p + 1)
        steps.append(
            {
                "p": p,
                "defect_zero": defect.is_zero(),
                "defect_in_span": decomposition is not None,
            }
        )
        residual = defect
        if p == depth:
            break
        if decomposition is None:
            break
        kappa_next = -decomposition[0] if decomposition else Mat.zero(R, m, m)
        u = kron(_mat_power(n_mat, p + 1), kappa_next)
        f_p = f_p + u
        z_p = z_p + tw(u) * s_form
    exact_zero = residual is not None and residual.is_zero()
    return {
        "nilpotency_index": idx,
        "depth": depth,
        "steps": steps,
        "residual_zero": exact_zero,
        "residual_in_span": steps[-1]["defect_in_span"] if steps else False,
        "f": f_p,
        "z": z_p,
        "residual": residual,
        "passed": all(s["defect_in_span"] for s in steps)
        and (exact_zero if depth >= idx else True),
    }


def _mat_power(m: Mat, k: int) -> Mat:
    out = Mat.identity(m.ring, m.rows)
    for _ in range(k):
        out = out * m
    return out


# ---------------------------------------------------------------------------
# gamma(t)^* gamma(t) = 1 + nu t  (polynomial square root of a unipotent)


def sqrt_one_plus_nu_t(nu: Mat, lam):
    """Polynomial gamma(t) with gamma^* gamma = 1 + nu*t exactly, for nu
    nilpotent and self-adjoint and lambda a central split unit.

    Follows the recursion gamma_1 = 1 + lambda nu t, then repeatedly strips
    the lowest offending t-coefficient b (checked self-adjoint) with the
    factor (1 - lambda b t^k); nilpotency of nu terminates the loop.  All
    coefficients stay in the subring generated by lambda and nu.
    """
    R = nu.ring
    n = nu.rows
    ident = Mat.identity(R, n)
    if nu.star() != nu:
        raise ValueError("nu must be self-adjoint")
    idx = nilpotency_index(nu)
    if idx is None:
        raise ValueError("nu must be nilpotent")
    if lam is None:
        raise Unsupported("the ring has no split unit (central lambda, lambda + conj(lambda) = 1)")
    if R.add(lam, R.conj(lam)) != R.one or not R.is_central(lam):
        raise ValueError("lambda must be a central split unit")

    # A[t] multiplies as A[s] does; only conj(t) = t differs, so the
    # adjoint acts on each coefficient alone
    def star_poly(p: MatPoly) -> MatPoly:
        return MatPoly(R, n, n, [c.star() for c in p.coeffs])

    target = MatPoly(R, n, n, [ident, nu])
    gamma = MatPoly(R, n, n, [ident, nu.scale_left(lam)])
    for _ in range(2 * idx + 4):
        err = _as_matpoly(star_poly(gamma) * gamma - target)
        if err.is_zero():
            break
        k, b = next((i, c) for i, c in enumerate(err.coeffs) if not c.is_zero())
        if b.star() != b:
            raise AssertionError("offending coefficient is not self-adjoint")
        correction = MatPoly(R, n, n, [ident] + [Mat.zero(R, n)] * (k - 1) + [-b.scale_left(lam)])
        gamma = _as_matpoly(correction * gamma)
    else:
        raise AssertionError("square-root recursion failed to terminate")

    subring = _generated_subring(R, n, [ident, ident.scale_left(lam), nu])
    coeff_ok = all(c in subring for c in gamma.coeffs)
    commute_ok = all(c * nu == nu * c for c in gamma.coeffs)
    report = {
        "nilpotency_index": idx,
        "gamma_degree": gamma.degree,
        "identity_exact": (star_poly(gamma) * gamma) == target,
        "coefficients_in_generated_subring": coeff_ok,
        "coefficients_commute_with_nu": commute_ok,
    }
    report["passed"] = all(v for v in report.values() if isinstance(v, bool))
    return gamma, report


# fixed bound on the additive spans listed here (the generated subring and the
# projector's ideal), not the search cap
SPAN_LIMIT = 2**16


def _generated_subring(ring: Ring, n: int, gens: list[Mat], cap: int = SPAN_LIMIT):
    """The set S of n x n matrices that the generators span under addition
    and multiplication: the additive span of every product of generators.

    Built by coset extension (`extend_span`): S starts as the span of the
    generators, and each element that extended it is multiplied on the
    right by each generator that did, the product extending S in turn.  S
    is then spanned by products of generators and S*g lies in S for each
    generator g, so S is closed under products; neither commutativity nor
    an identity is assumed.  Raises CapExceeded once S would pass `cap`
    elements, which refuses an infinite subring after a few products.
    """
    message = "generated subring exceeds cap"
    span = {Mat.zero(ring, n)}
    # a generator in the span of the earlier ones is a sum of them, and so
    # are its products
    spanning = [g for g in gens if extend_span(span, g, cap, message)]
    queue = list(spanning)
    for x in queue:  # grows while it is walked
        for g in spanning:
            y = x * g
            if extend_span(span, y, cap, message):
                queue.append(y)
    return span


# ---------------------------------------------------------------------------
# projector conjugation (square-zero ideal)


def projector_conjugator(
    p0: Mat, p1: Mat, ideal_gens: list[Mat], gram: Mat | None = None
) -> tuple[Mat, dict]:
    """alpha = 1 - p0 - p1 + 2 p0 p1 conjugates p1 to p0 and is unitary.

    Preconditions (each reported individually): p0, p1 self-adjoint
    idempotents whose difference sigma lies in the given square-zero
    additive ideal.  Verifies the three sigma relations, alpha = 1 mod the
    ideal, alpha*alpha^* = 1 and alpha p1 = p0 alpha, all exactly.  The
    ideal is listed from its generators by `extend_span`, over any ring and
    with no additive basis, and refused past SPAN_LIMIT elements.
    """
    R = p0.ring
    n = p0.rows
    ident = Mat.identity(R, n)
    if gram is not None:
        gram_inv = invert(gram)
        if gram_inv is None:
            raise DegenerateFormError("gram must be invertible")

        def adj(x):
            return gram_inv * x.star() * gram

    else:

        def adj(x):
            return x.star()

    ideal = {Mat.zero(R, n)}
    for g in ideal_gens:
        extend_span(ideal, g, SPAN_LIMIT, "ideal span exceeds cap")
    sigma = p1 - p0
    report = {
        "p0_idempotent": p0 * p0 == p0,
        "p0_selfadjoint": adj(p0) == p0,
        "p1_idempotent": p1 * p1 == p1,
        "p1_selfadjoint": adj(p1) == p1,
        "sigma_in_ideal": sigma in ideal,
        "ideal_square_zero": all(
            (a * b).is_zero() for a in ideal_gens for b in ideal_gens
        ),
    }
    two = R.int_embed(2)
    alpha = ident - p0 - p1 + (p0 * p1).scale_left(two)
    report["alpha_equals_1_minus_sigma_plus_2p0sigma"] = alpha == (
        ident - sigma + (p0 * sigma).scale_left(two)
    )
    report["sigma_relation_split"] = sigma == p0 * sigma + sigma * p0
    report["sigma_relation_sandwich"] = (sigma * p0 * sigma).is_zero()
    sq = sigma * sigma
    report["sigma_relation_square"] = (
        sq.is_zero() and sq == sq * p0 and sq == p0 * sq
    )
    report["alpha_unit_mod_ideal"] = alpha - ident in ideal
    report["alpha_times_adjoint_is_1"] = alpha * adj(alpha) == ident
    report["alpha_conjugates_p1_to_p0"] = alpha * p1 == p0 * alpha
    report["passed"] = all(v for v in report.values() if isinstance(v, bool))
    return alpha, report
