"""The ambient quotient ring F2[x] / <P(x)^L> and its chain of ideals.

P must be irreducible of degree m >= 2 and L >= 2.  The ring is a chain ring:
its ideals are exactly <P^j> for j = 0..L, each a binary code of length
n = m*L once polynomials (ints, bit i = coefficient of x^i) are read as
coordinate vectors.  A RingContext carries the derived constants everything
else keys off: T with 2^(T-1) < L <= 2^T and the anchor lattice
`tops`: the upper anchors j = 2^T - 2^(T-r) below L, for r = 1, 2, ...  Every
anchor j has the spread B = j & -j (so tops[0] = 2^(T-1) is also the top
lower anchor, B = j), and the unanchored tail past the last one has length
L - tops[-1].  With them it holds the split of P that every interleave reads
(codes.interleave): s, the gcd of P's exponents, so that P = Q(x^s); no
search reads Q, as each reads its component's word off its own code's word
(codes.decimate).  The ring holds these seven small fields and no power or
power series: each code carries its own generator P^j (codes.code,
codes.chain), and the dual and LCD words are built from it (duality.py,
lcd.py).

The ring never finds the order e of x mod P.  The one reader of e is the
`analyze` text header, which steps x^i mod P for i < n and prints e only
when it is below n; the distances take min(d, 4) from the residues
x^i mod P^j instead.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import CapExceeded, ValidationError
from .gf2poly import RING_TABLE_BITS, degree, is_irreducible


class RingContext(NamedTuple):
    """Immutable bundle of constants for one ring F2[x]/<P^L>.

    tops is the one record of the anchor lattice: the profile and the dual
    anchors both read it.  s is the one record of P's split P = Q(x^s).
    """

    P: int
    m: int
    L: int
    n: int
    T: int
    tops: tuple[int, ...]  # upper anchors 2^T - 2^(T-r) < L, r = 1, 2, ...; tops[0] = 2^(T-1)
    s: int  # gcd of P's exponents, odd for an irreducible P


def new_context(P: int, L: int) -> RingContext:
    """Validate (P, L) and precompute the derived constants."""
    if not isinstance(P, int) or P < 0:
        raise ValidationError("P must be a non-negative int bit mask")
    if not isinstance(L, int) or L < 2:
        raise ValidationError("L must be an int >= 2")
    m = degree(P)
    if m < 2:
        raise ValidationError("P must have degree at least 2")
    bits = m * L * (L + 1) // 2  # P^0..P^L, the output of a whole-chain walk; checked first, as it needs only m and L
    if bits > RING_TABLE_BITS:
        raise CapExceeded(f"a whole-chain walk produces P^0..P^L, ~{bits} bits, over the budget of {RING_TABLE_BITS}")
    if not is_irreducible(P):
        raise ValidationError("P must be irreducible over GF(2)")

    T = (L - 1).bit_length()
    return RingContext(
        P=P,
        m=m,
        L=L,
        n=m * L,
        T=T,
        tops=tuple(j for j in ((1 << T) - (1 << (T - r)) for r in range(1, T + 1)) if j < L),
        s=gcd(*(i for i in range(1, m + 1) if P >> i & 1)),
    )
