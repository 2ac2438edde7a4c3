"""Closed forms for the trinomial family x^(2s) + x^s + 1 with s = 3^v.

These trinomials are exactly the irreducible ones of their shape, have order
e = 3s (P * (x^s + 1) = x^(3s) + 1), and are self-reciprocal, which makes every
chain code over them reversible.  The powers P^(2^r - 1) expand to an explicit
set of exponents (all multiples of s), their weights obey two closed
formulas, and the whole distance profile of every chain code over P^L
collapses to closed forms keyed on the ring's anchor lattice ctx.tops: exact
values at the anchors, plateau intervals between them, and a doubling bound
on the tail past the last one.  Each formula here is cross-checked against
the generic machinery where cheap, and raises InternalConsistencyError rather
than return a value that disagrees.
"""

from __future__ import annotations

from .codes import DEFAULT_CANDIDATE_CAP, chain, code, is_reversible
from .distance import DistanceReport, head_zone_reports, monotone_fuse
from .duality import dual_complement_distance, dual_pow2_distance
from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import mul, power, power_mod, weight
from .ring import RingContext, new_context


def family_poly(v: int) -> int:
    """The scale-3^v trinomial x^(2*3^v) + x^(3^v) + 1."""
    if v < 0:
        raise ValidationError("scale exponent v must be >= 0")
    s = 3**v
    return (1 << (2 * s)) | (1 << s) | 1


def is_irreducible_trinomial(s: int) -> bool:
    """Whether x^(2s) + x^s + 1 is irreducible: exactly when s is a power of 3."""
    if s < 1:
        raise ValidationError("scale s must be >= 1")
    while s % 3 == 0:
        s //= 3
    return s == 1


def family_context(v: int, L: int) -> RingContext:
    """Ring context over the scale-3^v trinomial.

    Ring set-up finds no order of x, so 2^m - 1 is never factored; the one
    reader of the order, the family's head zone, takes it from family_order.
    """
    return new_context(family_poly(v), L)


def family_order(v: int) -> int:
    """The order e = 3^(v+1) of x mod the scale-3^v trinomial, proven instead of found.

    head_zone_split checks x^e == 1 mod P for the e it is given, which puts the
    order among the divisors of e; x^(e/3) != 1 rules out every proper one, as
    they all divide 3^v.
    """
    e = 3 ** (v + 1)
    if power_mod(2, e // 3, family_poly(v)) == 1:
        raise InternalConsistencyError(f"the order of x mod the scale-3^{v} trinomial is not 3^{v + 1}")
    return e


# ---------------------------------------------------------------------------
# expansions and weights of P^(2^r - 1)
# ---------------------------------------------------------------------------


def expansion_pow_2r_minus_1(s: int, r: int) -> int:
    """Closed-form mask of (x^(2s) + x^s + 1)^(2^r - 1), any scale s >= 1."""
    if s < 1 or r < 1:
        raise ValidationError("expansion needs s >= 1 and r >= 1")
    two_r = 1 << r
    exps: list[int] = []
    if r % 2 == 0:
        q = (two_r - 1) // 3
        for i in range(q):
            exps += [3 * i, 3 * i + 1]
        exps.append(two_r - 1)
        for i in range(q, 2 * q):
            exps += [3 * i + 2, 3 * i + 3]
    else:
        q = (two_r - 2) // 3
        for i in range(q):
            exps += [3 * i, 3 * i + 1]
        exps += [two_r - 2, two_r - 1, two_r]
        for i in range(q + 1, 2 * q + 1):
            exps += [3 * i + 1, 3 * i + 2]
    out = 0
    for exp in exps:
        out |= 1 << (s * exp)

    if s * two_r <= 1 << 13:  # cheap enough: compare against a direct power
        trinomial = (1 << (2 * s)) | (1 << s) | 1
        if out != power(trinomial, two_r - 1):
            raise InternalConsistencyError(f"expansion closed form wrong at s={s}, r={r}")
    return out


def weight_formulas(v: int, r: int) -> tuple[int, int]:
    """Weights of P^(2^r - 1) and of (x^s + 1) * P^(2^r - 1) over the scale-3^v family."""
    if r < 1:
        raise ValidationError("weight formulas need r >= 1")
    if r % 2 == 0:
        w_plain = ((1 << (r + 2)) - 1) // 3
        w_shifted = ((1 << (r + 2)) + 2) // 3
    else:
        w_plain = ((1 << (r + 2)) + 1) // 3
        w_shifted = ((1 << (r + 2)) - 2) // 3
    s = 3**v
    expansion = expansion_pow_2r_minus_1(s, r)
    if expansion.bit_count() != w_plain:
        raise InternalConsistencyError(f"plain weight formula wrong at v={v}, r={r}")
    if mul((1 << s) | 1, expansion).bit_count() != w_shifted:
        raise InternalConsistencyError(f"shifted weight formula wrong at v={v}, r={r}")
    return w_plain, w_shifted


def complement_anchor_value(r: int) -> int:
    """Exact family distance at j = 2^T - 2^(T-r) when L == 2^T (r >= 2)."""
    if r < 2:
        raise ValidationError("complement anchors need r >= 2")
    return ((1 << (r + 2)) - 1) // 3 if r % 2 == 0 else ((1 << (r + 2)) - 2) // 3


# ---------------------------------------------------------------------------
# full profiles from closed forms
# ---------------------------------------------------------------------------


def _plateau_closed_form(r: int) -> tuple[int, int]:
    """Bounds between anchors r and r+1 when L == 2^T: exact for even r, a 2-gap else."""
    if r % 2 == 0:
        val = ((1 << (r + 3)) - 2) // 3
        return val, val
    lo = ((1 << (r + 3)) - 4) // 3
    return lo, lo + 1


def family_distance_profile(v: int, L: int) -> list[DistanceReport]:
    """Distance report for every C_j over the scale-3^v family, closed forms only."""
    ctx = family_context(v, L)
    T, n = ctx.T, ctx.n
    reports = [DistanceReport(j, 1, n) for j in range(L + 1)]
    reports[0].set_exact(1, "full-space")
    reports[L].set_exact(n, "zero-code")

    for j, (lo, hi) in head_zone_reports(ctx, family_order(v)).items():
        if lo != hi:
            raise InternalConsistencyError("family head zone must be exact (wt(P) = 3)")
        reports[j].set_exact(lo, "head-zone")

    # anchors r >= 2 (r = 1 is 2^(T-1), in the head zone); a ring short of 2^T
    # ends on an odd-r anchor one above the closed form
    tops, short = ctx.tops, L < 1 << T
    for r, j in enumerate(tops[1:], 2):
        value = complement_anchor_value(r)
        if short and r == len(tops) and r % 2 == 1:
            value = ((1 << (r + 2)) + 1) // 3
        reports[j].set_exact(value, "closed-form")
    # plateaus between consecutive anchors; a short ring's last one widens to a 2-gap in both parities
    for r, (a, b) in enumerate(zip(tops, tops[1:]), 1):
        lo, hi = _plateau_closed_form(r)
        if short and b == tops[-1]:
            hi = lo + 1
        if not lo <= reports[b].lower <= hi:
            raise InternalConsistencyError(f"plateau r={r} misses its closing anchor")
        for j in range(a + 1, b):
            reports[j].raise_lower(lo, "closed-form")
            reports[j].cut_upper(hi, "closed-form")
    # the tail past the last anchor doubles it (empty when L == 2^T)
    tail_lo = 2 * reports[tops[-1]].lower
    for c in chain(ctx, tops[-1] + 1, L):
        reports[c.j].raise_lower(tail_lo, "double-bound")
        reports[c.j].cut_upper(weight(c.generator), "weight-witness")

    monotone_fuse(reports)
    return reports


def family_dual_d1(v: int, T: int) -> int:
    """Closed-form dual distance of C_1 over the scale-3^v family with L = 2^T."""
    if T < 1:
        raise ValidationError("family dual distance needs T >= 1")
    value = ((1 << (T + 2)) - 2) // 3 if T % 2 == 1 else ((1 << (T + 2)) - 1) // 3
    m = 2 * 3**v
    if 1 << (m - 1) <= DEFAULT_CANDIDATE_CAP:
        computed = dual_pow2_distance(family_context(v, 1 << T), T)
        if computed != value:
            raise InternalConsistencyError(
                f"dual distance formula says {value}, reduced set says {computed}"
            )
    return value


# ---------------------------------------------------------------------------
# family code summaries
# ---------------------------------------------------------------------------


def family_parameters(v: int, T: int, which: str, r: int | None = None) -> dict:
    """[n, k, d] and dual parameters for the named family codes over L = 2^T."""
    if T < 1:
        raise ValidationError("family parameters need T >= 1")
    ctx = family_context(v, 1 << T)
    m, L, n = ctx.m, ctx.L, ctx.n
    s = 3**v

    if which == "power-of-two":
        if r is None or not 0 <= r <= T - 1:
            raise ValidationError("power-of-two family needs 0 <= r <= T - 1")
        j = 1 << r
        k = s * (1 << (r + 1)) * ((1 << (T - r)) - 1)
        d = 2
        k_dual = s * (1 << (r + 1))
        try:
            d_dual = dual_pow2_distance(ctx, T - r)
        except CapExceeded:
            d_dual = None
    elif which == "complement":
        if r is None or not 2 <= r <= T:
            raise ValidationError("complement family needs 2 <= r <= T")
        j = (1 << T) - (1 << (T - r))
        k = s * (1 << (T - r + 1))
        d = complement_anchor_value(r)
        k_dual = n - k
        try:
            d_dual = dual_complement_distance(ctx, r)
        except CapExceeded:
            d_dual = None
    elif which == "first-power":
        j = 1
        k = s * ((1 << (T + 1)) - 2)
        d = 2
        k_dual = m
        d_dual = family_dual_d1(v, T)
    else:
        raise ValidationError("which must be one of: power-of-two, complement, first-power")

    if k != m * (L - j) or k + k_dual != n:
        raise InternalConsistencyError("family dimension formulas disagree with m*(L - j)")
    if not is_reversible(code(ctx, j)):
        raise InternalConsistencyError("family codes must be reversible")
    return {
        "v": v,
        "T": T,
        "which": which,
        "j": j,
        "n": n,
        "k": k,
        "d": d,
        "k_dual": k_dual,
        "d_dual": d_dual,
        "reversible": True,
    }
