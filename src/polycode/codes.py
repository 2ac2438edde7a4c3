"""Binary codes cut out by the ideal chain: C_j = <P^j> inside F2[x]/<P^L>.

C_j has length n = m*L and dimension k = m*(L - j); its generator matrix
stacks the shifts x^i * P^j for i < k, so codewords are exactly the masks of
polynomial multiples of P^j of degree below n.  Codewords travel as ints
(bit i = coordinate i).  Each code carries its own generator P^j: code()
takes one power, chain() steps from one code to the next by one product by
P.  Here live the code object, the walk, the one candidate shape of every
exact search (lead_coset: the k shifts of one word mod x^N, with the top one
fixed), the split of C_j and of its dual into t interleaved codes up to t
times shorter (interleave, on the ring's split P = Q(x^s)), which sizes
every reduced search on both sides, the one reader
of a component's word (decimate: w from w(x^t), read off P^j on the primal
side and off h* on the dual side, and checked), and the two caps every
search shares:
DEFAULT_ENUM_CAP, the default oracle_cap on the dimension an exact oracle
takes (check_caps refuses a negative one), and DEFAULT_CANDIDATE_CAP, the
fixed bound on the words in one reduced candidate set, primal or dual, which
answers alone compares.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .errors import InternalConsistencyError, ValidationError
from .gf2poly import mul, power
from .ring import RingContext

DEFAULT_ENUM_CAP = 28
DEFAULT_CANDIDATE_CAP = 1 << 20  # words in one reduced or dual candidate set


def check_caps(oracle_cap: int) -> None:
    """Refuse a negative oracle cap; 0 is legal and turns the oracle's searches off."""
    if oracle_cap < 0:
        raise ValidationError(f"oracle cap must be >= 0, got {oracle_cap}")


class PolycyclicCode(NamedTuple):
    """The code C_j = <P^j>, with k = m*(L - j) and n = m*L."""

    ctx: RingContext
    j: int
    generator: int  # P^j

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def k(self) -> int:
        return self.ctx.m * (self.ctx.L - self.j)


def code(ctx: RingContext, j: int) -> PolycyclicCode:
    """The j-th code of the chain, 0 <= j <= L (j = L is the zero code)."""
    if not 0 <= j <= ctx.L:
        raise ValidationError("code index j must satisfy 0 <= j <= L")
    return PolycyclicCode(ctx, j, power(ctx.P, j))


def chain(ctx: RingContext, start: int, stop: int) -> Iterator[PolycyclicCode]:
    """The codes C_start .. C_(stop-1), 0 <= start <= stop <= L + 1: one power, then one product by P per step."""
    g = power(ctx.P, start)
    for j in range(start, stop):
        yield PolycyclicCode(ctx, j, g)
        g = mul(g, ctx.P)


class Interleave(NamedTuple):
    """C_j split as the t-fold interleave of D_i = {R*c : deg(R*c) < ceil((n - i)/t)}, i < t.

    P = Q(x^s) with s the gcd of P's exponents (odd for an irreducible P), and
    with 2^a the largest power of 2 dividing j, b = j/2^a and t = 2^a*s,
    P^j = Q(x^s)^(2^a*b) = R(x^t) over GF(2), R = Q^b.  A word f = sum over
    i < t of x^i*f_i(x^t) is a multiple of R(x^t) iff every f_i is one of R,
    so d(C_j) is d(D_0), the longest component: D_0 has ceil(n/t) coordinates,
    dimension k0.  The dual splits the same way: P*^-j = (Q*^-b)(x^t), and its
    least weight lies in its shortest component, Q*^-b's deg_r shifts on n // t
    bits.  The fields size every reduced search (answers); each reads its word
    off its own code's word by decimate, R off P^j and Q*^-b off h*.
    """

    t: int
    k0: int  # ceil(n/t) - deg_r, the dimension of D_0
    deg_r: int  # deg R = m*b/s, the dimension of every component of the dual


def interleave(ctx: RingContext, j: int) -> Interleave:
    """The interleave split of C_j, 1 <= j <= L - 1, on the ring's split P = Q(x^s)."""
    if not 1 <= j < ctx.L:
        raise ValidationError("the interleave split covers 1 <= j <= L - 1")
    B = j & -j
    t, deg_r = B * ctx.s, j // B * ctx.m // ctx.s
    return Interleave(t, -(-ctx.n // t) - deg_r, deg_r)


def answers(k: int) -> bool:
    """Whether a reduced set of dimension k (D_0's k0, the dual component's deg_r) answers: 2^(k-1) words within the cap.

    The one test against DEFAULT_CANDIDATE_CAP.  The oracle cap's tests (k <= oracle_cap) stay inline: each weighs
    the dimension its caller is about to search against the cap that caller was handed, which this rule never sees.
    """
    return 1 << (k - 1) <= DEFAULT_CANDIDATE_CAP


def decimate(word: int, t: int, label: str) -> int:
    """The word w with w(x^t) == word; InternalConsistencyError naming word by label if it has a bit off the multiples of t."""
    w = int(format(word, "b")[::-1][::t][::-1], 2)  # bit i is word's coefficient at x^(t*i)
    # w(x^t) holds word's bits at the multiples of t, so it is word exactly when word has no other bit
    if w.bit_count() != word.bit_count():
        raise InternalConsistencyError(f"{label} is not a word in x^{t}")
    return w


def lead_coset(base: int, k: int, nbits: int) -> tuple[int, list[int]]:
    """The words c*base mod x^nbits with deg c = k - 1, as (g, rows): g = x^(k-1)*base, rows x^i*base for i < k - 1.

    Where the k shifts x^i*base mod x^nbits are independent, these 2^(k-1) words hold the least nonzero
    weight of their span: c -> x*c sends a word w to x*w mod x^nbits, which never gains weight and
    stays nonzero.  The searches weigh the cosets of the oracle (P^j, k, n), D_0 at the anchors and in the spread
    (R, k0, ceil(n/t)), the dual oracle (h*, m*j, n) and the dual's shortest component (Q*^-b, deg_r, n // t).
    """
    mask = (1 << nbits) - 1
    return (base << (k - 1)) & mask, [(base << i) & mask for i in range(k - 1)]

