"""Linear-complementary-dual (LCD) verdicts for the chain codes.

Two independent routes: an oracle that measures the hull C intersect C-dual
through the rank of the Gram matrix G*G^T, and the paper's rank criteria,
one form for j up to 2^(T-1) and another beyond it.  The rows of G are the
shifts x^i * P^j, none of which wraps past x^(n-1), so G*G^T is a symmetric
Toeplitz matrix built from k parities.  The oracle's cross-check and both
criteria run one extended Euclid: on q = (P * P_star)^j it measures the hull,
on W = q^-1 the criteria's kernel (the hull in dual coordinates), which a
Gray-code sweep checks where m*j <= 12.  A scanner sweeps the family's rings.
"""

from __future__ import annotations

import os
from itertools import accumulate, takewhile
from operator import xor
from typing import NamedTuple

from ._linalg import parity_dot, rank
from .codes import PolycyclicCode, code
from .errors import InternalConsistencyError, ValidationError, WrongRegime
from .gf2poly import degree, mul, mul_trunc, power_trunc, reciprocal
from .trinomial_family import family_context


class LcdVerdict(NamedTuple):
    """Outcome of an LCD determination, with every method that weighed in."""

    j: int
    is_lcd: bool
    hull_dim: int | None  # None when only a rank criterion ran
    methods: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "is_lcd": self.is_lcd,
            "hull_dim": self.hull_dim,
            "methods": list(self.methods),
        }


# ---------------------------------------------------------------------------
# oracle: hull dimension
# ---------------------------------------------------------------------------


def _toeplitz_gram(g: int, k: int) -> list[int]:
    """Gram matrix of the rows x^a * g for a < k, taken whole (no row wraps mod x^n).

    Gram[a][b] = <x^a g, x^b g> = <g, x^|a-b| g> = t[|a-b|]: a symmetric
    Toeplitz matrix.  The band holds t[d] at bits k-1+d and k-1-d, so row a is
    the band shifted right by k-1-a, cut to k bits.
    """
    band = 0
    for d in range(min(k, g.bit_length())):  # t[d] = 0 once the shift clears g
        if parity_dot(g, g << d):
            band |= (1 << (k - 1 + d)) | (1 << (k - 1 - d))
    mask = (1 << k) - 1
    return [(band >> (k - 1 - a)) & mask for a in range(k)]


def _reconstruction_dim(q: int, n: int, a: int) -> int:
    """dim{delta : deg delta < a, deg(delta*q mod x^n) < n - a}, by one extended Euclid on (x^n, q mod x^n).

    Every such delta is alpha*t, t the cofactor at the first remainder r of degree below n - a:
    the degree bounds sum to less than n, so the reconstruction is unique (von zur Gathen-Gerhard,
    Modern Computer Algebra, 5.7).  deg(alpha*t) < a and deg(alpha*r) < n - a (if r != 0) bound
    deg alpha; deg t = n - deg(the remainder before r) <= a, so the count is never negative.
    """
    # (r0, t0), (r1, t1) are consecutive Euclid rows; each keeps r == t*q mod x^n
    r0, t0, r1, t1 = 1 << n, 0, q, 1
    while r1.bit_length() > n - a:
        while r0.bit_length() >= r1.bit_length():
            shift = r0.bit_length() - r1.bit_length()
            r0 ^= r1 << shift
            t0 ^= t1 << shift
        r0, t0, r1, t1 = r1, t1, r0, t0
    if mul_trunc(t1, q, n) != r1:
        raise InternalConsistencyError("extended Euclid stopped on a row with r != t*q mod x^n")
    return min(a - degree(t1), n - a - degree(r1) if r1 else a)


def _hull_by_reconstruction(c: PolycyclicCode) -> int:
    """dim(C intersect C-dual): a*g lies in C-dual iff deg(a*q mod x^n) < m*j = n - k, q = (P * P_star)^j.

    q = g * h^-1 mod x^n, since the dual word h has inverse P_star^j mod x^n (e * 2^T > n).
    """
    ctx = c.ctx
    return _reconstruction_dim(power_trunc(mul(ctx.P, reciprocal(ctx.P)), c.j, ctx.n), ctx.n, c.k)


def hull_dimension_oracle(c: PolycyclicCode) -> int:
    """dim(C intersect C-dual) via the Gram matrix, cross-checked by rational reconstruction.

    The generator rows are x^i * P^j for i < k; the last one has degree
    k-1 + m*j = n-1, so no row wraps and the Gram matrix is Toeplitz
    (_toeplitz_gram): k parities instead of k^2.
    """
    if c.j == c.ctx.L:
        return 0
    hull = c.k - rank(_toeplitz_gram(c.generator, c.k))
    hull_rr = _hull_by_reconstruction(c)
    if hull != hull_rr:
        raise InternalConsistencyError(
            f"hull dimension mismatch: Gram rank gives {hull}, rational reconstruction gives {hull_rr}"
        )
    return hull


# ---------------------------------------------------------------------------
# rank criteria
# ---------------------------------------------------------------------------


def is_lcd_head_criterion(c: PolycyclicCode) -> bool:
    """The paper's rank test for 1 <= j <= 2^(T-1): the top n - k bits of W*x^i, i < m*j, are independent."""
    if not 1 <= c.j <= 1 << (c.ctx.T - 1):
        raise WrongRegime("the head rank criterion covers 1 <= j <= 2^(T-1)")
    return _criterion(c)


def is_lcd_tail_criterion(c: PolycyclicCode) -> bool:
    """The paper's rank test for 2^(T-1) < j < L: x^i*A (i < k) and x^i*Q (i < m*j) are independent mod x^n.

    A = P^(2j - 2^T) is a unit, so gamma*A + delta*Q == 0 iff gamma == delta*Q*A^-1; with
    Q = P^-(2^T - j) * P_star^-j, Q*A^-1 = P^-j * P_star^-j is the head's W, and so is the kernel.
    """
    if not (1 << (c.ctx.T - 1)) < c.j < c.ctx.L:
        raise WrongRegime("the tail rank criterion covers 2^(T-1) < j < L")
    return _criterion(c)


def _criterion(c: PolycyclicCode) -> bool:
    """Whether no nonzero delta with deg delta < m*j has deg(delta*W mod x^n) < k, W = (P * P_star)^-j.

    W is q^-1 for the hull's q = (P * P_star)^j, so delta = a*q mod x^n maps
    the hull {a : deg a < k, deg(a*q mod x^n) < m*j} onto this kernel.  W is
    a power of the ring constant ctx.PP_star_inv = (P * P_star)^-1 mod x^n.
    """
    ctx, n, k, mj = c.ctx, c.ctx.n, c.k, c.ctx.m * c.j
    W = power_trunc(ctx.PP_star_inv, c.j, n)
    full_rank = _reconstruction_dim(W, n, mj) == 0
    if mj <= 12:
        # exhaustive sweep over nonzero delta: the top block of W*delta must never vanish
        steps = [mul_trunc(W, 1 << i, n) >> k for i in range(mj)]
        if _gray_sweep(steps) != full_rank:
            raise InternalConsistencyError(f"rank criterion disagrees with direct sweep at j={c.j}")
    return full_rank


def _gray_sweep(steps: list[int]) -> bool:
    """Whether the XOR of steps[i] over the set bits i of delta is nonzero for every delta > 0.

    delta walks 1 .. 2^len(steps) - 1 in Gray-code order, so each next XOR
    differs from the last by one step vector: steps[ruler[t]], where ruler[t]
    is the lowest set bit of t + 1.
    """
    ruler: list[int] = []
    for i in range(len(steps)):
        ruler = [*ruler, i, *ruler]
    return all(accumulate(map(steps.__getitem__, ruler), xor))


def lcd_verdict(c: PolycyclicCode, methods: str = "all") -> LcdVerdict:
    """Combined verdict; running several methods asserts they agree."""
    if methods not in ("all", "oracle", "theorem"):
        raise ValidationError("methods must be one of: all, oracle, theorem")
    ctx, j = c.ctx, c.j
    votes: list[bool] = []
    used: list[str] = []
    hull: int | None = None

    if methods in ("all", "oracle"):
        hull = hull_dimension_oracle(c)
        votes.append(hull == 0)
        used.append("oracle")
    if methods in ("all", "theorem"):
        if 1 <= j <= 1 << (ctx.T - 1):
            votes.append(is_lcd_head_criterion(c))
            used.append("head-criterion")
        elif (1 << (ctx.T - 1)) < j < ctx.L:
            votes.append(is_lcd_tail_criterion(c))
            used.append("tail-criterion")
        elif methods == "theorem":
            raise WrongRegime("no rank criterion applies to j = 0 or j = L")
    if len(set(votes)) > 1:
        raise InternalConsistencyError(f"LCD methods disagree at j={j}: {dict(zip(used, votes))}")
    return LcdVerdict(j, votes[0], hull, tuple(used))


# ---------------------------------------------------------------------------
# the sweep over the trinomial family
# ---------------------------------------------------------------------------


def _scan_pair(args: tuple[int, int]) -> list[dict]:
    v, T = args
    ctx = family_context(v, 1 << T)
    out = []
    for j in range(1, ctx.L):
        hull = hull_dimension_oracle(code(ctx, j))
        out.append(
            {
                "v": v,
                "T": T,
                "j": j,
                "n": ctx.n,
                "k": ctx.m * (ctx.L - j),
                "is_lcd": hull == 0,
                "hull_dim": hull,
            }
        )
    return out


def conjecture_scan(
    v_max: int,
    t_max: int,
    dim_cap: int = 4096,
    workers: int | None = None,
) -> list[dict]:
    """Hull of every C_j over every family ring with n <= dim_cap; rows sorted by (v, T, j)."""
    if v_max < 0 or t_max < 1:
        raise ValidationError("conjecture scan needs v_max >= 0 and t_max >= 1")
    if dim_cap < 4:
        raise ValidationError(f"dim_cap {dim_cap} is below 4, the length of the smallest family ring")
    cpus = os.cpu_count() or 1
    if workers is not None and not 1 <= workers <= cpus:
        raise ValidationError(f"workers must be in 1..{cpus} (the CPU count), got {workers}")
    # n = 2 * 3^v * 2^T grows in v and in T, so each loop stops at the first n past dim_cap
    tasks = [
        (v, T)
        for v in takewhile(lambda v: 4 * 3**v <= dim_cap, range(v_max + 1))
        for T in takewhile(lambda T: 2 * 3**v << T <= dim_cap, range(1, t_max + 1))
    ]
    if workers and workers > 1:
        import multiprocessing  # only a parallel scan pays for loading it

        with multiprocessing.Pool(workers) as pool:
            groups = pool.map(_scan_pair, tasks)
    else:
        groups = [_scan_pair(t) for t in tasks]
    rows = [row for group in groups for row in group]
    rows.sort(key=lambda r: (r["v"], r["T"], r["j"]))
    return rows
