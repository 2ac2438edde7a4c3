"""Linear-complementary-dual (LCD) verdicts for the chain codes.

Two independent routes: an oracle that measures the hull C intersect C-dual
through the rank of the Gram matrix G*G^T (cross-checked against a null-space
computation), and rank criteria that decide LCD directly from one structured
matrix — one form for j up to 2^(T-1), another for j beyond it.  The rows of
G are the shifts x^i * P^j, none of which wraps past x^(n-1), so G*G^T is a
symmetric Toeplitz matrix built from k parities.  The head criterion's
cross-check sweeps every nonzero delta in Gray-code order, one XOR each.  A
scanner sweeps whole rings of the trinomial family looking for
counterexamples.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from itertools import accumulate, takewhile
from operator import xor

from ._linalg import column_kernel, nullspace, parity_dot, rank
from .codes import PolycyclicCode, code, generator_rows
from .errors import InternalConsistencyError, ValidationError, WrongRegime
from .gf2poly import mul_trunc, power_trunc
from .trinomial_family import family_context


@dataclass(frozen=True)
class LcdVerdict:
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


def hull_dimension_oracle(c: PolycyclicCode) -> int:
    """dim(C intersect C-dual) via the Gram matrix, cross-checked via null spaces.

    The generator rows are x^i * P^j for i < k; the last one has degree
    k-1 + m*j = n-1, so no row wraps and the Gram matrix is Toeplitz
    (_toeplitz_gram): k parities instead of k^2.
    """
    if c.j == c.ctx.L:
        return 0
    k = c.k
    hull = k - rank(_toeplitz_gram(c.generator, k))

    rows = generator_rows(c)
    dual_basis = nullspace(rows, c.n)
    stacked = rows + dual_basis
    hull_ns = k + len(dual_basis) - rank(stacked)
    if hull != hull_ns:
        raise InternalConsistencyError(
            f"hull dimension mismatch: Gram rank gives {hull}, null space gives {hull_ns}"
        )
    return hull


# ---------------------------------------------------------------------------
# rank criteria
# ---------------------------------------------------------------------------


def is_lcd_head_criterion(c: PolycyclicCode) -> bool:
    """Rank test for 1 <= j <= 2^(T-1): full rank of the top-block matrix of W."""
    ctx, j = c.ctx, c.j
    if not 1 <= j <= 1 << (ctx.T - 1):
        raise WrongRegime("the head rank criterion covers 1 <= j <= 2^(T-1)")
    n, k, mj = ctx.n, c.k, ctx.m * j
    mask = (1 << n) - 1
    W = mul_trunc(
        power_trunc(ctx.x_e_1, (1 << ctx.T) - 2 * j, n),
        power_trunc(mul_trunc(ctx.U, ctx.U_star, n), j, n),
        n,
    )
    cols = [((W << i) & mask) >> k for i in range(mj)]
    full_rank = not column_kernel(cols)

    if mj <= 12:
        # exhaustive sweep over nonzero delta: the top block of W*delta must never vanish
        steps = [mul_trunc(W, 1 << i, n) >> k for i in range(mj)]
        if _gray_sweep(steps) != full_rank:
            raise InternalConsistencyError("head rank criterion disagrees with direct sweep")
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


def is_lcd_tail_criterion(c: PolycyclicCode) -> bool:
    """Rank test for 2^(T-1) < j < L: the joint unit-multiplication matrix is invertible."""
    ctx, j = c.ctx, c.j
    if not (1 << (ctx.T - 1)) < j < ctx.L:
        raise WrongRegime("the tail rank criterion covers 2^(T-1) < j < L")
    n, k, mj = ctx.n, c.k, ctx.m * j
    mask = (1 << n) - 1
    A = power_trunc(ctx.P, 2 * j - (1 << ctx.T), n)
    Q = mul_trunc(
        power_trunc(ctx.U, (1 << ctx.T) - j, n),
        power_trunc(ctx.U_star, j, n),
        n,
    )
    cols = [(A << i) & mask for i in range(k)] + [(Q << i) & mask for i in range(mj)]
    kernel = column_kernel(cols)
    for combo in kernel:
        gamma, delta = combo & ((1 << k) - 1), combo >> k
        if gamma == 0 or delta == 0:
            # both blocks multiply by constant-term-1 units, so a kernel vector
            # can never sit in only one of them
            raise InternalConsistencyError("tail criterion kernel vector with a zero block")
    return not kernel


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
        with multiprocessing.Pool(workers) as pool:
            groups = pool.map(_scan_pair, tasks)
    else:
        groups = [_scan_pair(t) for t in tasks]
    rows = [row for group in groups for row in group]
    rows.sort(key=lambda r: (r["v"], r["T"], r["j"]))
    return rows
