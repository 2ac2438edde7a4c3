"""Linear-complementary-dual (LCD) verdicts for the chain codes.

Every code takes the same routes.  The hull C intersect C-dual has dimension
k - rank(G*G^T), and the rows of G are the shifts x^i * P^j (i < k), none of
which wraps past x^(n-1), so G*G^T is the symmetric Toeplitz matrix of the band
t[d] = <g, x^d * g>: the coefficients of q = g * g_star mod x^n around x^(m*j),
g = P^j the code's generator and g_star = (P_star)^j its reciprocal.  One
Berlekamp-Massey pass over the band's 2k - 1 entries gives their linear
complexity, and with it the rank (hull_dimension_oracle).  For 0 < j < L the
paper's rank criterion, one form for j up to 2^(T-1) and another beyond it,
runs an extended Euclid on W = q^-1 mod x^n; its kernel is the hull in dual
coordinates, so its dimension must equal the hull's, and a meet-in-the-middle
check, two half walks by Gray code (_linalg.gray_walk), checks it where
m*j <= 12.  The paper writes W with powers of x^e + 1, e the order of x mod
P; those are 1 mod x^n since e * 2^T > n (duality.py), which leaves
(P * P_star)^-j = q^-1.
lcd_verdict builds one code's q and W from its generator.  lcd_chain, for a
whole chain, takes one product g * g_star and one power-series inverse per
ring, at j = L-1, and steps the rest by running products with P * P_star (of
weight at most wt(P)^2), each an XOR of shifts by its exponents.  Its walk up
streams the chain, steps q_j = q_(j-1) * P * P_star, which must reach the
built q_(L-1), and takes each hull; its walk down steps
W_(j-1) = W_j * P * P_star, runs each criterion against its code's hull, and
must land on W_0 = 1.  A serial scan runs lcd_chain over the rings over powers
2^T of the self-reciprocal trinomials x^(2*3^v) + x^(3^v) + 1 (family_poly),
whose codes the paper conjectures are all LCD.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice, takewhile
from operator import xor
from typing import Callable, NamedTuple

from ._linalg import gray_walk
from .codes import PolycyclicCode, chain
from .errors import InternalConsistencyError, ValidationError
from .gf2poly import degree, inverse_trunc, mul, mul_trunc, reciprocal
from .ring import RingContext, new_context


class LcdVerdict(NamedTuple):
    """Outcome of an LCD determination, with every method that weighed in."""

    j: int
    is_lcd: bool
    hull_dim: int
    methods: tuple[str, ...]


# ---------------------------------------------------------------------------
# oracle: hull dimension
# ---------------------------------------------------------------------------


def _reconstruction_dim(q: int, n: int, a: int) -> int:
    """dim{delta : deg delta < a, deg(delta*q mod x^n) < n - a}, by one extended Euclid on (x^n, q mod x^n).

    Every such delta is alpha*t, t the cofactor at the first remainder r of degree below n - a:
    the degree bounds sum to less than n, so the reconstruction is unique (von zur Gathen-Gerhard,
    Modern Computer Algebra, 5.7).  deg(alpha*t) < a and deg(alpha*r) < n - a (if r != 0) bound
    deg alpha; deg t = n - deg(the remainder before r) <= a, so the count is never negative.
    """
    # (r0, t0), (r1, t1) are consecutive Euclid rows; each keeps r == t*q mod x^n.  A row is
    # packed as X = r << S | t: every cofactor, partial quotients included, has degree at most
    # n - deg(some remainder) <= n, below S, so one shift and one XOR step both halves, and
    # b = X.bit_length() - S is r's bit length (at most 0 when r = 0)
    S = n + 1
    X0, X1 = 1 << (n + S), q << S | 1
    b1 = X1.bit_length() - S
    while b1 > n - a:
        b0 = X0.bit_length() - S
        while b0 >= b1:
            X0 ^= X1 << (b0 - b1)
            b0 = X0.bit_length() - S
        X0, X1, b1 = X1, X0, b0
    r1, t1 = X1 >> S, X1 & ((1 << S) - 1)
    if mul_trunc(t1, q, n) != r1:
        raise InternalConsistencyError("extended Euclid stopped on a row with r != t*q mod x^n")
    return min(a - degree(t1), n - a - degree(r1) if r1 else a)


def _hull_word(c: PolycyclicCode) -> int:
    """q = g * g_star mod x^n, built from the code's generator g = P^j: (P * P_star)^j mod x^n."""
    g = c.generator
    return mul_trunc(g, reciprocal(g), c.ctx.n)


def _linear_complexity(s: int, N: int) -> int:
    """Length of the shortest LFSR that generates the bits s_0 .. s_(N-1) of s (Berlekamp-Massey).

    Of the connection polynomials C (current) and B (before the last length
    change) only U = (C*S) >> i and V = (B*S) >> i_B are kept, S the series of
    s and i_B the step at which B was last C: the discrepancy at step i is
    U's low bit, and C + x^(i - i_B)*B moves U to U ^ V.  A run of zero
    discrepancies is one shift.  The loop counts i one past the step it is at.
    """
    U, V, ell, i = s, s << 1, 0, 0
    while U:
        z = (U & -U).bit_length()  # the run of zero discrepancies and the nonzero one after it
        i += z
        if i > N:
            break
        U >>= z - 1
        if 2 * ell < i:
            U, V, ell = (U ^ V) >> 1, U, i - ell
        else:
            U = (U ^ V) >> 1
    return ell


def hull_dimension_oracle(c: PolycyclicCode, q: int) -> int:
    """dim(C intersect C-dual) = k - rank(G*G^T), the rank by Berlekamp-Massey over the Gram band.

    The Gram matrix is Toeplitz in t[d] = <g, x^d*g>, the coefficient of
    x^(m*j + d) in the given q = g * g_star mod x^n (_hull_word), and
    t[-d] = t[d]: the band is the 2k - 1 coefficients of q from
    x^(m*j - k + 1) to x^(n-1), which must read the same both ways.  A k x k
    Toeplitz (or Hankel) matrix whose 2k - 1 entries have linear complexity l
    has rank l if l <= k, and 2k - l otherwise.
    """
    k, lo = c.k, c.ctx.m * c.j - c.k + 1
    band = q >> lo if lo >= 0 else q << -lo
    bits = f"{band:b}".zfill(2 * k - 1)
    if bits != bits[::-1]:
        raise InternalConsistencyError(f"q's Gram band around x^(m*j) is not a palindrome at j={c.j}")
    ell = _linear_complexity(band, 2 * k - 1)
    return k - (ell if ell <= k else 2 * k - ell)


# ---------------------------------------------------------------------------
# rank criteria
# ---------------------------------------------------------------------------


def is_lcd_head_criterion(ctx: RingContext, j: int, W: int, hull: int) -> bool:
    """The paper's rank test for 1 <= j <= 2^(T-1): the top n - k bits of W*x^i, i < m*j, are independent.

    W = (P * P_star)^-j mod x^n and the hull dimension of C_j are the caller's
    (W is q^-1 for the hull's q); the kernel's dimension must equal the hull's.
    """
    if not 1 <= j <= 1 << (ctx.T - 1):
        raise ValidationError("the head rank criterion covers 1 <= j <= 2^(T-1)")
    return _criterion(ctx, j, W, hull)


def is_lcd_tail_criterion(ctx: RingContext, j: int, W: int, hull: int) -> bool:
    """The paper's rank test for 2^(T-1) < j < L: x^i*A (i < k) and x^i*Q (i < m*j) are independent mod x^n.

    A = P^(2j - 2^T) is a unit, so gamma*A + delta*Q == 0 iff gamma == delta*Q*A^-1; with
    Q = P^-(2^T - j) * P_star^-j, Q*A^-1 = P^-j * P_star^-j is the head's W, and so is the kernel.
    W and hull are taken as in is_lcd_head_criterion.
    """
    if not (1 << (ctx.T - 1)) < j < ctx.L:
        raise ValidationError("the tail rank criterion covers 2^(T-1) < j < L")
    return _criterion(ctx, j, W, hull)


def _criterion(ctx: RingContext, j: int, W: int, hull: int) -> bool:
    """Whether no nonzero delta with deg delta < m*j has deg(delta*W mod x^n) < k, W = (P * P_star)^-j.

    W = q^-1 mod x^n for the hull's q = g * g_star mod x^n: a*g lies in C-dual iff
    deg(a*q mod x^n) < m*j, so delta = a*q mod x^n maps the hull
    {a : deg a < k, deg(a*q mod x^n) < m*j} one to one onto this kernel: the two
    dimensions are equal, and a kernel whose dimension is not the given hull's raises.
    """
    n, mj = ctx.n, ctx.m * j
    kernel = _reconstruction_dim(W, n, mj)
    if kernel != hull:
        raise InternalConsistencyError(f"rank criterion's kernel has dimension {kernel}, the hull {hull}, at j={j}")
    if mj <= 12:
        # exhaustive check over nonzero delta: the top block of W*delta, the XOR of the
        # top blocks of W*x^i over the set bits i of delta, must never vanish
        steps = [((W << i) & ((1 << n) - 1)) >> (n - mj) for i in range(mj)]
        if _no_xor_vanishes(steps) != (kernel == 0):
            raise InternalConsistencyError(f"rank criterion disagrees with direct sweep at j={j}")
    return kernel == 0


def _no_xor_vanishes(steps: list[int]) -> bool:
    """Whether every nonempty XOR of the steps is nonzero, by meeting in the middle (Horowitz-Sahni).

    A nonempty XOR lo ^ hi of the low h = len(steps) // 2 steps and the rest
    vanishes iff lo == hi: iff the low half's 2^h XORs are not all distinct
    (hi empty), or a nonempty XOR of the high half is one of them.  So two
    Gray-code walks of 2^h and 2^(len - h) words decide what one walk over
    all 2^len would.
    """
    h = len(steps) // 2
    low = set(gray_walk(0, steps[:h]))
    return len(low) == 1 << h and low.isdisjoint(islice(gray_walk(0, steps[h:]), 1, None))


# ---------------------------------------------------------------------------
# verdicts: one code, or the whole chain by running products
# ---------------------------------------------------------------------------


def _route(ctx: RingContext, j: int) -> tuple[Callable[..., bool] | None, tuple[str, ...]]:
    """C_j's rank criterion, None at j = 0 and j = L where none applies, and the methods its verdict lists."""
    if not 0 < j < ctx.L:
        return None, ("oracle",)
    if j <= 1 << (ctx.T - 1):
        return is_lcd_head_criterion, ("oracle", "head-criterion")
    return is_lcd_tail_criterion, ("oracle", "tail-criterion")


def lcd_verdict(c: PolycyclicCode) -> LcdVerdict:
    """One code's verdict, q and W = q^-1 mod x^n built from its generator; every route that runs must agree.

    The hull is the Gram rank's by Berlekamp-Massey on q (hull_dimension_oracle) on
    every code; for 0 < j < L the criterion's Euclid on W checks its kernel's
    dimension against it, a second derivation by another algorithm on another word.
    """
    ctx, j, q = c.ctx, c.j, _hull_word(c)
    hull = hull_dimension_oracle(c, q)
    criterion, methods = _route(ctx, j)
    if criterion is not None:
        criterion(ctx, j, inverse_trunc(q, ctx.n), hull)
    return LcdVerdict(j, hull == 0, hull, methods)


def lcd_chain(ctx: RingContext) -> list[LcdVerdict]:
    """lcd_verdict on C_0 .. C_L, by running products: hulls on the walk up, criteria on the walk down.

    Each step by P * P_star, of weight at most wt(P)^2, is the XOR of the word's
    shifts by its exponents, taken once.  At j = L-1 the walk up checks q against
    g * g_star built from its own generator and takes the one inverse W_(L-1).
    Besides the L+1 hulls they hold O(n) bits: one generator and the words q and W.
    """
    n, L, mask = ctx.n, ctx.L, (1 << ctx.n) - 1
    step = mul(ctx.P, reciprocal(ctx.P))
    shifts = [i for i in range(step.bit_length()) if step >> i & 1]

    def times_step(w: int) -> int:
        """w * P * P_star mod x^n, one shift of w per term of the step."""
        return reduce(xor, map(w.__lshift__, shifts)) & mask

    hulls, q = [], 1
    for c in chain(ctx, 0, L + 1):
        if c.j == L - 1:
            if q != _hull_word(c):
                raise InternalConsistencyError("q_(L-1) stepped up the chain by P * P_star differs from g * g_star")
            W = inverse_trunc(q, n)
        hulls.append(hull_dimension_oracle(c, q))
        q = times_step(q)
    for j in range(L - 1, 0, -1):
        _route(ctx, j)[0](ctx, j, W, hulls[j])
        W = times_step(W)
    if W != 1:
        raise InternalConsistencyError("W_j stepped down the chain by P * P_star misses W_0 = 1")
    return [LcdVerdict(j, hull == 0, hull, _route(ctx, j)[1]) for j, hull in enumerate(hulls)]


# ---------------------------------------------------------------------------
# the sweep over the trinomial family
# ---------------------------------------------------------------------------


def family_poly(v: int) -> int:
    """The scale-3^v trinomial x^(2*3^v) + x^(3^v) + 1."""
    if v < 0:
        raise ValidationError("scale exponent v must be >= 0")
    s = 3**v
    return (1 << (2 * s)) | (1 << s) | 1


def conjecture_scan(v_max: int, t_max: int, dim_cap: int = 4096) -> list[dict]:
    """Hull of every C_j, 0 < j < L, over every family ring with n <= dim_cap; rows in (v, T, j) order.

    Each ring's rows are lcd_chain's verdicts less the trivial C_0 and C_L, so
    every code takes lcd's routes.  Every ring is set up before the first hull,
    so a ring over the ring budget RING_TABLE_BITS is refused at once, not
    after the smaller rings are scanned.
    """
    if v_max < 0 or t_max < 1:
        raise ValidationError("conjecture scan needs v_max >= 0 and t_max >= 1")
    if dim_cap < 4:
        raise ValidationError(f"dim_cap {dim_cap} is below 4, the length of the smallest family ring")
    # n = 2 * 3^v * 2^T grows in v and in T, so each loop stops at the first n past dim_cap
    rings = [
        (v, T, new_context(family_poly(v), 1 << T))
        for v in takewhile(lambda v: 4 * 3**v <= dim_cap, range(v_max + 1))
        for T in takewhile(lambda T: 2 * 3**v << T <= dim_cap, range(1, t_max + 1))
    ]
    return [
        {"v": v, "T": T, "j": r.j, "n": ctx.n, "k": ctx.m * (ctx.L - r.j), "is_lcd": r.is_lcd, "hull_dim": r.hull_dim}
        for v, T, ctx in rings
        for r in lcd_chain(ctx)[1:-1]
    ]
