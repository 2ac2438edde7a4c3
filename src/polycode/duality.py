"""Euclidean duals of the chain codes.

The dual of C_j is spanned by the first m*j shifts of one word h* = P*^-j
mod x^n, P* the reciprocal of P.  The paper builds h* as
(x^e + 1)^(2^T - j) * ((x^e + 1)/P*)^j, e the order of x mod P.  P divides
x^e + 1 and x^m + 1 is reducible, so e > m and e * 2^T > m * L = n; then
(x^e + 1)^(2^T) = x^(e * 2^T) + 1 == 1 mod x^n and that product is P*^-j,
the inverse of the reciprocal of the code's own generator, since
(P^j)* = (P*)^j.  A DualCode holds that one word and no rows.  Construction
verifies full rank from the lowest set bit of h* and orthogonality against
the generator by one product: both row sets are shifts of one word, so their
n - 1 correlations are one band of g read backwards times h*.
Duals are "sequential" codes: shifting a dual word right by one position
stays in the dual after an appropriate bit enters at the top; the closure
test reads h* alone, and dual_summary raises on a dual that does not close.
The dual splits as the code does (codes.interleave): with P = Q(x^s) and
P^j = R(x^t), R = Q^b, h* is (Q*^-b)(x^t) mod x^n, so the dual of C_j is the
t-fold interleave of truncations of the multiples of Q*^-b, and its distance
is that of the shortest one: the lead coset (codes.lead_coset) of Q*^-b with
m*b/s shifts on n // t bits, Q*^-b read from h*'s coefficients at the
multiples of t (h* with a bit anywhere else raises InternalConsistencyError),
at every j, refused above the fixed
DEFAULT_CANDIDATE_CAP.  With s = 1 and j an anchor (a power of two, or an
upper anchor in ctx.tops) that is the paper's candidate set.  The oracle
weighs the lead coset of h* with m*j shifts on n bits, half the whole dual;
_linalg's kernel weighs both.  Where t = 1 the two are one coset, so
dual_summary weighs it once, as the component.  The oracle runs, within its
cap, wherever t > 1, where its coset on n bits checks the component's on
n // t, and wherever the component was refused.
"""

from __future__ import annotations

from typing import NamedTuple

from ._linalg import gray_walk, min_weight_affine
from .codes import DEFAULT_CANDIDATE_CAP, DEFAULT_ENUM_CAP, PolycyclicCode, check_caps, code, interleave, lead_coset
from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import inverse_trunc, mul, mul_trunc, reciprocal
from .ring import RingContext


class DualCode(NamedTuple):
    """The dual of C_j, spanned by the rows (h_star << i) mod x^n, 0 <= i < dim; checked at build time."""

    ctx: RingContext
    j: int
    h_star: int

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def dim(self) -> int:
        return self.ctx.m * self.j


def dual_code(c: PolycyclicCode) -> DualCode:
    """Construct the dual of C_j (1 <= j <= L-1) and verify it is one."""
    ctx, j = c.ctx, c.j
    if not 1 <= j <= ctx.L - 1:
        raise ValidationError("dual construction covers 1 <= j <= L - 1")
    n = ctx.n
    g = c.generator
    h = inverse_trunc(reciprocal(g), n)
    # row i has its lowest bit at p + i, p that of h: the rows are independent
    # exactly when the last one, (h << (m*j - 1)) mod x^n, is nonzero
    if not (h << (ctx.m * j - 1)) & ((1 << n) - 1):
        raise InternalConsistencyError("dual spanning rows are not independent")
    # generator rows g << a never pass n bits, so <g << a, (h << b) & mask> is <g << (a - b), h> or
    # <g, h << (b - a)>: n - 1 correlations of g with h, which are bits n - m*j .. 2n - m*j - 2 of
    # rev * h, rev = g read backwards over n bits (the hull's Gram band reads g * g* the same way)
    rev = reciprocal(g) << (n - g.bit_length())
    if (mul(rev, h) >> (n - ctx.m * j)) & ((1 << (n - 1)) - 1):
        raise InternalConsistencyError("dual spanning row not orthogonal to the code")
    return DualCode(ctx, j, h)


def dual_min_distance_bruteforce(dual: DualCode, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Exact dual distance over the whole dual code (information-set search)."""
    if dual.dim > cap:
        raise CapExceeded(f"dual oracle: dimension {dual.dim} is over the oracle cap of {cap}; raise the cap")
    return min_weight_affine(*lead_coset(dual.h_star, dual.dim, dual.n))  # type: ignore[return-value]


def sequential_closure_check(dual: DualCode) -> bool:
    """Whether every dual word, shifted right, stays in the dual for some top bit.

    With top = x^(n-1), "w >> 1 or (w >> 1) | top lies in D" says w >> 1 lies
    in D + <top>, a subspace, and w -> w >> 1 is linear: so the whole dual
    closes exactly when every row does.  Row i >> 1 is row i - 1 less its top
    bit, so only h >> 1 needs testing, and it lies in D + <top> exactly when
    it is a*h mod x^(n-1) for some a of degree below dim: h odd and
    a = (h >> 1) * h^-1 mod x^(n-1).  (An even h leaves h >> 1 a set bit
    below every word of D and below the top.)
    """
    h, n = dual.h_star, dual.n
    return bool(h & 1) and mul_trunc(h >> 1, inverse_trunc(h, n - 1), n - 1).bit_length() <= dual.dim


# ---------------------------------------------------------------------------
# dual distances from the shortest interleave component
# ---------------------------------------------------------------------------


def _component(dual: DualCode) -> tuple[int, list[int]]:
    """The dual of C_j's shortest interleave component, as (g, rows): Q*^-b with m*b/s shifts on n // t bits.

    A dual word a*h* mod x^n, deg a < m*j = t*(m*b/s), splits by the residue i mod t of each exponent into
    x^i * (a_i * Q*^-b mod x^ceil((n - i)/t))(x^t), deg a_i < m*b/s.  A shorter truncation of a word never
    weighs more, so the shortest, on n // t bits, holds the least weight.  Q*^-b is read from h* itself, as
    its coefficients at the multiples of t; h* must be that word at x^t, or InternalConsistencyError.  At
    t = 1 this is the dual oracle's coset (h*, m*j, n).
    """
    ctx, h = dual.ctx, dual.h_star
    iv = interleave(ctx, dual.j)
    k, nbits = ctx.m * iv.b // iv.s, ctx.n // iv.t
    if 1 << (k - 1) > DEFAULT_CANDIDATE_CAP:
        raise CapExceeded(f"dual component has 2^{k - 1} candidates, over the cap of {DEFAULT_CANDIDATE_CAP}")
    word = int(format(h, "b")[::-1][:: iv.t][::-1], 2)  # bit i is h*'s coefficient at x^(t*i)
    # word(x^t) holds h*'s bits at the multiples of t, so it is h* exactly when h* has no other bit
    if word.bit_count() != h.bit_count():
        raise InternalConsistencyError(f"j={dual.j}: h* is not a word in x^{iv.t}")
    return lead_coset(word, k, nbits)


def dual_component_distance(ctx: RingContext, j: int) -> int:
    """Exact dual distance of C_j, 1 <= j <= L - 1, over its shortest interleave component, read from dual_code's h*."""
    return min_weight_affine(*_component(dual_code(code(ctx, j))))  # type: ignore[return-value]


def dual_pow2_candidates(ctx: RingContext, s: int) -> dict[int, int]:
    """Candidate weights for the dual distance at j = 2^(T-s): {ell mask: weight}.

    The words come from the Gray-code walk over the component's (g, rows), so the
    word at position t is that of index t ^ (t >> 1) and the dict is in walk order.
    """
    if not 1 <= s <= ctx.T:
        raise ValidationError("dual anchor parameter s must satisfy 1 <= s <= T")
    g, rows = _component(dual_code(code(ctx, 1 << (ctx.T - s))))
    lead = 1 << len(rows)
    return {lead | t ^ (t >> 1): w.bit_count() for t, w in enumerate(gray_walk(g, rows))}


def dual_complement_distance(ctx: RingContext, r: int) -> int:
    """Exact dual distance at the upper anchor j = ctx.tops[r - 1] = 2^T - 2^(T-r), 1 <= r <= len(ctx.tops)."""
    if not 1 <= r <= len(ctx.tops):
        raise ValidationError(f"dual anchor parameter r must satisfy 1 <= r <= {len(ctx.tops)}")
    return dual_component_distance(ctx, ctx.tops[r - 1])


def dual_summary(ctx: RingContext, j: int, oracle_cap: int = DEFAULT_ENUM_CAP) -> dict:
    """JSON-ready dual summary for C_j: closure, then the shortest interleave component, then the oracle.

    The oracle runs where m*j is within oracle_cap, except where t = 1 and the component answered: there
    the component is the oracle's own coset (h*, m*j, n), and provenance reads dual-reduced-set alone.
    """
    check_caps(oracle_cap=oracle_cap)
    dual = dual_code(code(ctx, j))
    if not sequential_closure_check(dual):
        raise InternalConsistencyError(f"the dual of C_{j} is not sequential")
    d: int | None = None
    provenance: list[str] = []
    try:
        d = min_weight_affine(*_component(dual))  # type: ignore[assignment]
        provenance.append("dual-reduced-set")
    except CapExceeded:
        pass

    if dual.dim <= oracle_cap and (d is None or interleave(ctx, j).t > 1):
        oracle_d = dual_min_distance_bruteforce(dual, cap=oracle_cap)
        if d is not None and oracle_d != d:
            raise InternalConsistencyError(
                f"dual distance at j={j}: component says {d}, oracle says {oracle_d}"
            )
        d = oracle_d
        provenance.append("dual-oracle")
    provenance.append("sequential-closure")
    return {
        "j": j,
        "n": dual.n,
        "k_dual": dual.dim,
        "d_dual": d,
        "provenance": provenance,
    }
