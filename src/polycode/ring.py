"""The ambient quotient ring F2[x] / <P(x)^L> and its chain of ideals.

P must be irreducible of degree m >= 2 and L >= 2.  The ring is a chain ring:
its ideals are exactly <P^j> for j = 0..L, each a binary code of length
n = m*L once polynomials (ints, bit i = coefficient of x^i) are read as
coordinate vectors.  A RingContext carries the derived constants everything
else keys off: T with 2^(T-1) < L <= 2^T, the multiplicative order e of x mod
P, the cofactor U = (x^e + 1)/P and its reciprocal U* = (x^e + 1)/P*, and the
anchor lattice `tops`: the upper anchors j = 2^T - 2^(T-r) below L, for
r = 1, 2, ...  Every anchor j has the spread B = j & -j (so tops[0] = 2^(T-1)
is also the top lower anchor, B = j), and the unanchored tail past the last
one has length L - tops[-1].

U and U* are kept as their low b = min(n, e - m + 1) coefficients: every
consumer works mod x^n, and deg U = e - m, so they are exact whenever
e - m < n.  Since P*U = 1 + x^e, the low b coefficients of U are the
power-series inverse of P mod x^b, which takes O(log b) products where the
full cofactor would need a division of an e-bit dividend (e can reach
2^m - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import degree, div_rem, inverse_trunc, is_irreducible, mul, mul_trunc, order, power_mod, reciprocal

RING_TABLE_BITS = 1 << 26  # budget for P^0..P^L (about m*L^2/2 bits); 8 MB of ints


@dataclass(frozen=True)
class RingContext:
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
    U: int  # (x^e + 1)/P, low min(n, e - m + 1) coefficients
    U_star: int  # (x^e + 1)/P*, low min(n, e - m + 1) coefficients
    tops: tuple[int, ...]  # upper anchors 2^T - 2^(T-r) < L, r = 1, 2, ...; tops[0] = 2^(T-1)
    P_pows: tuple[int, ...]  # P^0 .. P^L
    associate: int  # x^n reduced mod P^L; feeds the length-n shift

    @property
    def regime(self) -> str:
        """Label for L in (2^(T-1), 2^T], for text headers: "pow2" at the top, else "low"/"high" by anchor count."""
        return "pow2" if self.L == 1 << self.T else "low" if len(self.tops) == 1 else "high"

    @property
    def x_e_1(self) -> int:
        """The mask of x^e + 1 mod x^n; P divides x^e + 1 exactly, and e can reach 2^m - 1."""
        return (1 << self.e) | 1 if self.e < self.n else 1


def new_context(P: int, L: int) -> RingContext:
    """Validate (P, L) and precompute the derived constants."""
    if not isinstance(P, int) or P < 0:
        raise ValidationError("P must be a non-negative int bit mask")
    if not isinstance(L, int) or L < 2:
        raise ValidationError("L must be an int >= 2")
    m = degree(P)
    if m < 2:
        raise ValidationError("P must have degree at least 2")
    if not is_irreducible(P):
        raise ValidationError("P must be irreducible over GF(2)")

    n = m * L
    bits = m * L * (L + 1) // 2  # P^0..P^L, built below
    if bits > RING_TABLE_BITS:
        raise CapExceeded(f"the powers P^0..P^L need ~{bits} bits, over the budget of {RING_TABLE_BITS}")
    T = (L - 1).bit_length()
    e = order(P)
    if power_mod(2, e, P) != 1:
        raise InternalConsistencyError("x^e + 1 is not an exact multiple of P")
    b = min(n, e - m + 1)
    P_star = reciprocal(P)
    U, U_star = inverse_trunc(P, b), inverse_trunc(P_star, b)
    # b <= e - m + 1 < e, so x^e + 1 == 1 mod x^b
    if mul_trunc(P, U, b) != 1 or mul_trunc(P_star, U_star, b) != 1:
        raise InternalConsistencyError("cofactor of x^e + 1 disagrees with its defining product")

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
        U=U,
        U_star=U_star,
        tops=tuple(j for j in ((1 << T) - (1 << (T - r)) for r in range(1, T + 1)) if j < L),
        P_pows=tuple(pows),
        associate=pows[L] ^ (1 << n),
    )


# ---------------------------------------------------------------------------
# elements and ideals
# ---------------------------------------------------------------------------


class Classification(NamedTuple):
    """Where an element sits in the ideal chain."""

    kind: str  # "zero" | "unit" | "nilpotent"
    index: int | None  # for "nilpotent": the largest j with a in <P^j>


def classify(ctx: RingContext, a: int) -> Classification:
    """Classify a ring element as zero, a unit, or nilpotent of a given level."""
    if a < 0 or degree(a) >= ctx.n:
        raise ValidationError("element must have degree below n = m*L")
    if a == 0:
        return Classification("zero", None)
    level = 0
    while True:
        q, r = div_rem(a, ctx.P)
        if r != 0:
            break
        a = q
        level += 1
    if level == 0:
        return Classification("unit", None)
    return Classification("nilpotent", level)


def ideal_generator(ctx: RingContext, j: int) -> int:
    """Reduced generator of <P^j>: P^j for j < L, and 0 for j == L."""
    if not 0 <= j <= ctx.L:
        raise ValidationError("ideal index j must satisfy 0 <= j <= L")
    return 0 if j == ctx.L else ctx.P_pows[j]


def reduce_mod(ctx: RingContext, a: int) -> int:
    """Canonical representative of a modulo P^L."""
    return div_rem(a, ctx.P_pows[ctx.L])[1]


def shift_word(ctx: RingContext, c: int) -> int:
    """Multiply a length-n word by x inside the ring (the length-n shift map)."""
    mask = (1 << ctx.n) - 1
    out = (c << 1) & mask
    if (c >> (ctx.n - 1)) & 1:
        out ^= ctx.associate
    return out
