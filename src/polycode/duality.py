"""Euclidean duals of the chain codes.

The dual of C_j is spanned by the first m*j shifts of one word h*, built from
x^e + 1 and the coefficient-reversed cofactor of P; construction always
verifies full rank and orthogonality against the generator matrix, the latter
by n - 1 parities since both row sets are shifts of one word.  Duals are
"sequential" codes: shifting a dual word right by one position stays in the
dual after an appropriate bit enters at the top.  On two families of indices
(j a power of two, and the upper anchors j = 2^T - 2^(T-r) in ctx.tops) the
dual distance is the minimum over a small explicit candidate set.  That set
is an affine span (the spread map is linear), so the minimum-weight kernel of
_linalg searches it, as it searches the dual code itself in the exact oracle
that covers every other j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._linalg import affine_weights, in_span, min_weight_affine, min_weight_span, parity_dot, rank, rref
from .codes import DEFAULT_CANDIDATE_CAP, DEFAULT_ENUM_CAP, PolycyclicCode, code
from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import mul_trunc, power_trunc, substitute_power
from .ring import RingContext

CLOSURE_WORK_CAP = 1 << 22  # closure samples x dual dimension; a sample costs ~0.4 us per dimension


@dataclass(frozen=True)
class DualCode:
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
    h = mul_trunc(
        power_trunc(ctx.x_e_1, (1 << ctx.T) - j, n),
        power_trunc(ctx.U_star, j, n),
        n,
    )
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


def sequential_closure_check(dual: DualCode, samples: int = 0, seed: int = 0) -> bool:
    """Whether each checked dual word, shifted right, stays in the dual for some top bit.

    The rows are checked, plus samples random dual words; samples is refused
    below 0, above DEFAULT_CANDIDATE_CAP, and when samples * dim passes
    CLOSURE_WORK_CAP.
    """
    if samples < 0:
        raise ValidationError(f"samples must be >= 0, got {samples}")
    cap = min(DEFAULT_CANDIDATE_CAP, CLOSURE_WORK_CAP // dual.dim)
    if samples > cap:
        raise CapExceeded(f"{samples} closure samples, over the cap of {cap} at dual dimension {dual.dim}")
    pivots = rref(list(dual.rows))
    top = 1 << (dual.n - 1)

    def shifted_stays(w: int) -> bool:
        w1 = w >> 1
        return in_span(pivots, w1) or in_span(pivots, w1 | top)

    words = list(dual.rows)
    if samples:
        rng = random.Random(seed)
        for _ in range(samples):
            combo = rng.getrandbits(dual.dim)
            w = 0
            t = combo
            while t:
                w ^= dual.rows[(t & -t).bit_length() - 1]
                t &= t - 1
            words.append(w)
    return all(shifted_stays(w) for w in words)


# ---------------------------------------------------------------------------
# dual distances on the two anchored families
# ---------------------------------------------------------------------------


def _spread_candidates(
    ctx: RingContext, t: int, x_exp: int, u_exp: int, lead_deg: int, cap: int
) -> tuple[int, list[int]]:
    """The dual candidates with spread factor 2^(T-t), as (g, rows).

    With base = (x^e + 1)^x_exp * U*^u_exp and spread(w) = w(x^factor) *
    x^(factor - 1) mod x^n, the candidates are spread(ell * base) for ell =
    x^lead_deg + lower terms.  spread is GF(2)-linear, so the candidate of
    ell = x^lead_deg + i is word i of g ^ span(rows), with g =
    spread(base * x^lead_deg) and rows[b] = spread(base * x^b).
    """
    if 1 << lead_deg > cap:
        raise CapExceeded(f"dual reduced set has 2^{lead_deg} candidates, over the cap of {cap}")
    factor = 1 << (ctx.T - t)
    tbits = -(-ctx.n // factor)  # only these low coefficients survive the spread
    base = mul_trunc(power_trunc(ctx.x_e_1, x_exp, tbits), power_trunc(ctx.U_star, u_exp, tbits), tbits)
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
    """(g, rows) of the dual candidates at j = 2^(T-s): (x^e + 1)^(2^s - 1) * U* spread by 2^(T-s)."""
    if not 1 <= s <= ctx.T:
        raise ValidationError("dual anchor parameter s must satisfy 1 <= s <= T")
    return _spread_candidates(ctx, s, (1 << s) - 1, 1, ctx.m - 1, candidate_cap)


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
    return _candidate_min(ctx, _spread_candidates(ctx, r, 1, (1 << r) - 1, lead_deg, candidate_cap))


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


def dual_summary(
    ctx: RingContext, j: int, oracle_cap: int = DEFAULT_ENUM_CAP, samples: int = 0, seed: int = 0
) -> dict:
    """JSON-ready dual summary for C_j."""
    dual = dual_code(code(ctx, j))
    closed = sequential_closure_check(dual, samples=samples, seed=seed)  # refuses a bad count before the distance runs
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
