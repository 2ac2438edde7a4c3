"""Linear-complementary-dual (LCD) verdicts for the chain codes.

Two independent routes: an oracle that measures the hull C intersect C-dual
through the rank of the Gram matrix G*G^T (cross-checked against a null-space
computation), and rank criteria that decide LCD directly from one structured
matrix — one form for j up to 2^(T-1), another for j beyond it.  Family
helpers assert LCD for the power-of-two, complement, and third-power codes
over the trinomial family, and a scanner sweeps entire families looking for
counterexamples.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

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


def hull_dimension_oracle(c: PolycyclicCode) -> int:
    """dim(C intersect C-dual) via the Gram matrix, cross-checked via null spaces."""
    if c.j == c.ctx.L:
        return 0
    rows = generator_rows(c)
    k = c.k
    gram = [
        sum(parity_dot(rows[a], rows[b]) << b for b in range(k)) for a in range(k)
    ]
    hull = k - rank(gram)

    dual_basis = nullspace(rows, c.n)
    stacked = rows + dual_basis
    hull_ns = k + len(dual_basis) - rank(stacked)
    if hull != hull_ns:
        raise InternalConsistencyError(
            f"hull dimension mismatch: Gram rank gives {hull}, null space gives {hull_ns}"
        )
    return hull


def is_lcd_oracle(c: PolycyclicCode) -> LcdVerdict:
    """LCD verdict from the hull oracle alone."""
    hull = hull_dimension_oracle(c)
    return LcdVerdict(c.j, hull == 0, hull, ("oracle",))


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
        sweep = all((mul_trunc(W, delta, n) >> k) != 0 for delta in range(1, 1 << mj))
        if sweep != full_rank:
            raise InternalConsistencyError("head rank criterion disagrees with direct sweep")
    return full_rank


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
# trinomial-family assertions and the sweep
# ---------------------------------------------------------------------------


def assert_lcd_pow2_family(v: int, T: int, r: int) -> LcdVerdict:
    """C_{2^r} over the scale-3^v trinomial to the 2^T is LCD; verify and return."""
    if not 0 <= r <= T - 1:
        raise ValidationError("power-of-two family needs 0 <= r <= T - 1")
    verdict = lcd_verdict(code(family_context(v, 1 << T), 1 << r), "all")
    if not verdict.is_lcd:
        raise InternalConsistencyError(f"family code j=2^{r} over v={v}, T={T} is not LCD")
    return verdict


def assert_lcd_complement_family(v: int, T: int, r: int) -> LcdVerdict:
    """C_{2^T - 2^(T-r)} over the family ring is LCD; verify and return."""
    if not 2 <= r <= T:
        raise ValidationError("complement family needs 2 <= r <= T")
    j = (1 << T) - (1 << (T - r))
    verdict = lcd_verdict(code(family_context(v, 1 << T), j), "all")
    if not verdict.is_lcd:
        raise InternalConsistencyError(f"family code j=2^{T}-2^{T - r} over v={v}, T={T} is not LCD")
    return verdict


def assert_lcd_third_power(v: int, T: int) -> LcdVerdict:
    """C_3 over the family ring (T >= 3) is LCD; verify and return."""
    if T < 3:
        raise ValidationError("the third-power statement needs T >= 3")
    verdict = lcd_verdict(code(family_context(v, 1 << T), 3), "all")
    if not verdict.is_lcd:
        raise InternalConsistencyError(f"family code j=3 over v={v}, T={T} is not LCD")
    return verdict


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
    cpus = os.cpu_count() or 1
    if workers is not None and not 1 <= workers <= cpus:
        raise ValidationError(f"workers must be in 1..{cpus} (the CPU count), got {workers}")
    tasks = [
        (v, T)
        for v in range(v_max + 1)
        for T in range(1, t_max + 1)
        if 2 * 3**v * (1 << T) <= dim_cap
    ]
    if workers and workers > 1:
        with multiprocessing.Pool(workers) as pool:
            groups = pool.map(_scan_pair, tasks)
    else:
        groups = [_scan_pair(t) for t in tasks]
    rows = [row for group in groups for row in group]
    rows.sort(key=lambda r: (r["v"], r["T"], r["j"]))
    return rows
