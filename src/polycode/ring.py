"""The ambient quotient ring F2[x] / <P(x)^L> and its chain of ideals.

P must be irreducible of degree m >= 2 and L >= 2.  The ring is a chain ring:
its ideals are exactly <P^j> for j = 0..L, each a binary code of length
n = m*L once polynomials (ints, bit i = coefficient of x^i) are read as
coordinate vectors.  A RingContext carries the derived constants everything
else keys off: T with 2^(T-1) < L <= 2^T, the multiplicative order e of x mod
P, the power-series inverses P*^-1 and (P * P*)^-1 mod x^n (P* the reciprocal
of P), and the anchor lattice `tops`: the upper anchors j = 2^T - 2^(T-r) below
L, for r = 1, 2, ...  Every anchor j has the spread B = j & -j (so tops[0] =
2^(T-1) is also the top lower anchor, B = j), and the unanchored tail past the
last one has length L - tops[-1].

The paper writes the dual and LCD words with the cofactor (x^e + 1)/P and
powers of x^e + 1.  P divides x^e + 1 and x^m + 1 is reducible, so e > m and
e * 2^T > m * L = n; then (x^e + 1)^(2^T) = x^(e * 2^T) + 1 == 1 mod x^n, and
each such word is a power of P^-1 and P*^-1 mod x^n.  The dual words are
powers of P*^-1 and the LCD-criterion words powers of (P * P*)^-1, so those two
inverses are all the ring needs to keep.

new_context finds e by factoring 2^m - 1; build_context takes the order as a
function of P instead, so a caller that knows e (the trinomial family) proves
it in place of the factoring.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import RING_TABLE_BITS, degree, inverse_trunc, is_irreducible, mul, mul_trunc, order, power_mod, reciprocal


class RingContext(NamedTuple):
    """Immutable bundle of constants for one ring F2[x]/<P^L>.

    tops is the one record of the anchor lattice: the profile, the dual
    anchors and the trinomial closed forms all read it.
    """

    P: int
    m: int
    L: int
    n: int
    T: int
    e: int
    P_star_inv: int  # P*^-1 mod x^n, P* the reciprocal of P
    PP_star_inv: int  # (P * P*)^-1 mod x^n
    tops: tuple[int, ...]  # upper anchors 2^T - 2^(T-r) < L, r = 1, 2, ...; tops[0] = 2^(T-1)
    P_pows: tuple[int, ...]  # P^0 .. P^L

    @property
    def regime(self) -> str:
        """Label for L in (2^(T-1), 2^T], for text headers: "pow2" at the top, else "low"/"high" by anchor count."""
        return "pow2" if self.L == 1 << self.T else "low" if len(self.tops) == 1 else "high"


def new_context(P: int, L: int) -> RingContext:
    """Validate (P, L) and precompute the derived constants."""
    return build_context(P, L, order)


def build_context(P: int, L: int, order_of: Callable[[int], int]) -> RingContext:
    """new_context with the order e of x mod P taken from order_of(P), run once P is proven irreducible."""
    if not isinstance(P, int) or P < 0:
        raise ValidationError("P must be a non-negative int bit mask")
    if not isinstance(L, int) or L < 2:
        raise ValidationError("L must be an int >= 2")
    m = degree(P)
    if m < 2:
        raise ValidationError("P must have degree at least 2")
    bits = m * L * (L + 1) // 2  # P^0..P^L, built below; checked first, as it needs only m and L
    if bits > RING_TABLE_BITS:
        raise CapExceeded(f"the powers P^0..P^L need ~{bits} bits, over the budget of {RING_TABLE_BITS}")
    if not is_irreducible(P):
        raise ValidationError("P must be irreducible over GF(2)")

    n = m * L
    T = (L - 1).bit_length()
    e = order_of(P)
    if power_mod(2, e, P) != 1:
        raise InternalConsistencyError("x^e + 1 is not an exact multiple of P")
    P_star = reciprocal(P)
    PP_star = mul(P, P_star)
    P_star_inv, PP_star_inv = inverse_trunc(P_star, n), inverse_trunc(PP_star, n)
    if mul_trunc(P_star, P_star_inv, n) != 1 or mul_trunc(PP_star, PP_star_inv, n) != 1:
        raise InternalConsistencyError("power-series inverse of P* or P * P* disagrees with its defining product")

    pows = [1]
    for _ in range(L):
        pows.append(mul(pows[-1], P))
    if pows[L].bit_length() - 1 != n:
        raise InternalConsistencyError("deg P^L != m*L")

    return RingContext(
        P=P,
        m=m,
        L=L,
        n=n,
        T=T,
        e=e,
        P_star_inv=P_star_inv,
        PP_star_inv=PP_star_inv,
        tops=tuple(j for j in ((1 << T) - (1 << (T - r)) for r in range(1, T + 1)) if j < L),
        P_pows=tuple(pows),
    )
