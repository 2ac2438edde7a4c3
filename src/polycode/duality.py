"""Euclidean duals of the chain codes.

The dual of C_j is spanned by the first m*j shifts of one word h* = P*^-j
mod x^n, P* the reciprocal of P.  The paper builds h* as
(x^e + 1)^(2^T - j) * ((x^e + 1)/P*)^j; since e * 2^T > n (ring.py),
(x^e + 1)^(2^T) == 1 mod x^n and that product is P*^-j.  Construction always verifies full
rank and orthogonality against the generator matrix, the latter by n - 1
parities since both row sets are shifts of one word.  Duals are "sequential"
codes: shifting a dual word right by one position stays in the dual after an
appropriate bit enters at the top.  On two families of indices (j a power of
two, and the upper anchors j = 2^T - 2^(T-r) in ctx.tops) the dual distance
is the minimum over a small explicit candidate set.  That set is an affine
span (the spread map is linear), so the minimum-weight kernel of _linalg
searches it, as it searches the dual code itself in the exact oracle that
covers every other j.
"""

from __future__ import annotations

from typing import NamedTuple

from ._linalg import affine_weights, min_weight_affine, min_weight_span, parity_dot, rank
from .codes import DEFAULT_CANDIDATE_CAP, DEFAULT_ENUM_CAP, PolycyclicCode, check_caps, code
from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import power_trunc, substitute_power
from .ring import RingContext


class DualCode(NamedTuple):
    """The dual of C_j, spanned by shifts of h_star; rank-checked at build time."""

    ctx: RingContext
    j: int
    h_star: int
    rows: tuple[int, ...]

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
    mask = (1 << n) - 1
    h = power_trunc(ctx.P_star_inv, j, n)
    rows = tuple((h << i) & mask for i in range(ctx.m * j))
    if rank(list(rows)) != ctx.m * j:
        raise InternalConsistencyError("dual spanning rows are not independent")
    # generator rows g << a never pass n bits, so <g << a, (h << b) & mask> is
    # <g << (a - b), h> or <g, h << (b - a)>: n - 1 parities decide all k*m*j pairs
    g = c.generator
    if any(parity_dot(g << d, h) for d in range(c.k)) or any(parity_dot(g, h << d) for d in range(1, ctx.m * j)):
        raise InternalConsistencyError("dual spanning row not orthogonal to the code")
    return DualCode(ctx, j, h, rows)


def dual_min_distance_bruteforce(dual: DualCode, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Exact dual distance over the whole dual code (information-set search)."""
    if dual.dim > cap:
        raise CapExceeded(
            f"dual oracle needs 2^{dual.dim} words, over the cap of 2^{cap}; raise the cap"
        )
    return min_weight_span(list(dual.rows), dual.n)


def sequential_closure_check(dual: DualCode) -> bool:
    """Whether every dual word, shifted right, stays in the dual for some top bit.

    With top = x^(n-1), "w >> 1 or (w >> 1) | top lies in D" says w >> 1 lies
    in D + <top>, a subspace, and w -> w >> 1 is linear: so the whole dual
    closes exactly when every row does, which one rank comparison decides.
    """
    with_top = [*dual.rows, 1 << (dual.n - 1)]
    return rank(with_top + [r >> 1 for r in dual.rows]) == rank(with_top)


# ---------------------------------------------------------------------------
# dual distances on the two anchored families
# ---------------------------------------------------------------------------


def _spread_candidates(ctx: RingContext, t: int, u_exp: int, lead_deg: int, cap: int) -> tuple[int, list[int]]:
    """The dual candidates with spread factor 2^(T-t), as (g, rows).

    With base = P*^-u_exp mod x^tbits and spread(w) = w(x^factor) *
    x^(factor - 1) mod x^n, the candidates are spread(ell * base) for ell =
    x^lead_deg + lower terms.  The paper's base also carries a power
    (x^e + 1)^x_exp with u_exp + x_exp = 2^t; tbits <= m * 2^t < e * 2^t, so
    (x^e + 1)^(2^t) == 1 mod x^tbits and the base is P*^-u_exp alone.
    spread is GF(2)-linear, so the candidate of ell = x^lead_deg + i is word
    i of g ^ span(rows), with g = spread(base * x^lead_deg) and rows[b] =
    spread(base * x^b).
    """
    if 1 << lead_deg > cap:
        raise CapExceeded(f"dual reduced set has 2^{lead_deg} candidates, over the cap of {cap}")
    factor = 1 << (ctx.T - t)
    tbits = -(-ctx.n // factor)  # only these low coefficients survive the spread
    base = power_trunc(ctx.P_star_inv, u_exp, tbits)
    mask, tmask = (1 << ctx.n) - 1, (1 << tbits) - 1

    def spread(w: int) -> int:
        return (substitute_power(w & tmask, factor) << (factor - 1)) & mask

    return spread(base << lead_deg), [spread(base << b) for b in range(lead_deg)]


def _candidate_min(ctx: RingContext, candidates: tuple[int, list[int]]) -> int:
    """Minimum nonzero weight over the (g, rows) candidates of _spread_candidates."""
    best = min_weight_affine(*candidates, ctx.n)
    if best is None:
        raise InternalConsistencyError("every dual candidate reduced to zero")
    return best


def _pow2_candidates(ctx: RingContext, s: int, candidate_cap: int) -> tuple[int, list[int]]:
    """(g, rows) of the dual candidates at j = 2^(T-s): P*^-1 spread by 2^(T-s)."""
    if not 1 <= s <= ctx.T:
        raise ValidationError("dual anchor parameter s must satisfy 1 <= s <= T")
    return _spread_candidates(ctx, s, 1, ctx.m - 1, candidate_cap)


def dual_pow2_candidates(ctx: RingContext, s: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> dict[int, int]:
    """Candidate weights for the dual distance at j = 2^(T-s): {ell mask: weight}."""
    g, rows = _pow2_candidates(ctx, s, candidate_cap)
    lead = 1 << len(rows)
    return {lead | i: w for i, w in enumerate(affine_weights(g, rows))}


def dual_pow2_distance(ctx: RingContext, s: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> int:
    """Exact dual distance at j = 2^(T-s) as the minimum over the candidate set."""
    return _candidate_min(ctx, _pow2_candidates(ctx, s, candidate_cap))


def dual_complement_distance(ctx: RingContext, r: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> int:
    """Exact dual distance at the upper anchor j = ctx.tops[r - 1] = 2^T - 2^(T-r), 1 <= r <= len(ctx.tops)."""
    if not 1 <= r <= len(ctx.tops):
        raise ValidationError(f"dual anchor parameter r must satisfy 1 <= r <= {len(ctx.tops)}")
    lead_deg = ctx.m * ((1 << r) - 1) - 1
    return _candidate_min(ctx, _spread_candidates(ctx, r, (1 << r) - 1, lead_deg, candidate_cap))


def dual_distance_with_provenance(
    ctx: RingContext,
    j: int,
    oracle_cap: int = DEFAULT_ENUM_CAP,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> tuple[int | None, list[str]]:
    """Best effort at the dual distance of C_j: anchored families, then the oracle."""
    if not 1 <= j <= ctx.L - 1:
        raise ValidationError("dual distance covers 1 <= j <= L - 1")
    d: int | None = None
    provenance: list[str] = []

    try:
        if j & (j - 1) == 0:
            d = dual_pow2_distance(ctx, ctx.T - j.bit_length() + 1, candidate_cap)
        elif j in ctx.tops:
            d = dual_complement_distance(ctx, ctx.tops.index(j) + 1, candidate_cap)
    except CapExceeded:
        pass
    if d is not None:
        provenance.append("dual-reduced-set")

    if ctx.m * j <= oracle_cap:
        oracle_d = dual_min_distance_bruteforce(dual_code(code(ctx, j)), cap=oracle_cap)
        if d is not None and oracle_d != d:
            raise InternalConsistencyError(
                f"dual distance at j={j}: reduced set says {d}, oracle says {oracle_d}"
            )
        d = oracle_d
        provenance.append("dual-oracle")
    return d, provenance


def dual_summary(ctx: RingContext, j: int, oracle_cap: int = DEFAULT_ENUM_CAP) -> dict:
    """JSON-ready dual summary for C_j."""
    check_caps(oracle_cap=oracle_cap)
    dual = dual_code(code(ctx, j))
    closed = sequential_closure_check(dual)
    d, provenance = dual_distance_with_provenance(ctx, j, oracle_cap=oracle_cap)
    if closed:
        provenance.append("sequential-closure")
    return {
        "j": j,
        "n": dual.n,
        "k_dual": dual.dim,
        "d_dual": d,
        "provenance": provenance,
    }
