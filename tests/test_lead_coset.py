"""The lemma every exact search rests on: a lead coset holds the least weight of its span.

codes.lead_coset(base, k, N) is the 2^(k-1) words c*base mod x^N with
deg c = k - 1.  Where the k shifts x^i*base mod x^N are independent, c -> x*c
never adds weight to a word and never zeroes it, so the least nonzero weight
over the coset is that over the whole span of the k shifts.  The five
searches weigh five such cosets: the oracle, the anchors' reduced sets, the
spread, the dual oracle and the dual anchors.  Only the dual words are cut
at x^N, so only there does fixing the top coefficient, not the bottom one,
matter.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given
from hypothesis import strategies as st

from polycode import distance
from polycode._linalg import min_weight_affine, min_weight_span
from polycode.codes import DEFAULT_CANDIDATE_CAP, code, interleave, lead_coset
from polycode.distance import min_distance_bruteforce
from polycode.duality import dual_anchor_distance, dual_code, dual_min_distance_bruteforce
from polycode.gf2poly import degree, inverse_trunc, is_irreducible, parse, power, power_trunc, reciprocal
from polycode.ring import new_context

IRREDUCIBLE_2_TO_6 = [f for f in range(4, 128) if is_irreducible(f)]


def _coset_min(base, k, nbits):
    return min_weight_affine(*lead_coset(base, k, nbits))


def _span_min(base, k, nbits):
    mask = (1 << nbits) - 1
    return min_weight_span([(base << i) & mask for i in range(k)])


def _searches(ctx, j):
    """Every search on C_j and its dual, 1 <= j <= L - 1: its name, the (base, k, nbits) of its coset, and its answer.

    The answer is a deferred call of the search's own function; the spread, which runs inside the search step
    alone, has None.
    """
    c, iv = code(ctx, j), interleave(ctx, j)
    dual = dual_code(c)
    B, n = j & -j, ctx.n
    yield "oracle", (c.generator, c.k, n), partial(min_distance_bruteforce, c, cap=c.k)
    if iv.t > 1:
        yield "spread", (iv.R, iv.k0, -(-n // iv.t)), None
    yield "dual-oracle", (dual.h_star, dual.dim, n), partial(dual_min_distance_bruteforce, dual, cap=dual.dim)
    if j & (j - 1) == 0 or j in ctx.tops:
        lam = -(-(ctx.m * (ctx.L - j)) // B)
        yield "reduced-set", (power(ctx.P, j // B), lam, -(-n // B)), partial(distance._reduced_set_min, ctx, j)
        base = power_trunc(inverse_trunc(reciprocal(ctx.P), n // B), j // B, n // B)
        yield "dual-reduced-set", (base, ctx.m * (j // B), n // B), partial(dual_anchor_distance, ctx, j)


def test_every_search_of_every_small_ring_weighs_its_span_minimum():
    # every irreducible P of degree 2-6, n <= 60, every 1 <= j <= L - 1 and every search that runs there; each
    # search's own answer too, where no candidate cap refuses it
    seen, answered = {}, 0
    for P in IRREDUCIBLE_2_TO_6:
        for L in range(2, 60 // degree(P) + 1):
            ctx = new_context(P, L)
            for j in range(1, L):
                for name, (base, k, nbits), search in _searches(ctx, j):
                    want = _span_min(base, k, nbits)
                    assert _coset_min(base, k, nbits) == want, (P, L, j, name)
                    seen[name] = seen.get(name, 0) + 1
                    if search is not None and ("oracle" in name or 1 << (k - 1) <= DEFAULT_CANDIDATE_CAP):
                        assert search() == want, (P, L, j, name)
                        answered += 1
    assert seen == {"oracle": 1931, "spread": 922, "dual-oracle": 1931, "reduced-set": 940, "dual-reduced-set": 940}
    assert answered == 5507


def test_a_dual_of_distance_one_is_found_by_its_top_coefficient():
    # x^3+x+1, L = 9, j = 8: the weight-1 dual word needs c's top coefficient; fixing the bottom one misses it
    ctx = new_context(parse("x^3+x+1"), 9)
    h, k, n = dual_code(code(ctx, 8)).h_star, 24, ctx.n
    assert _coset_min(h, k, n) == _span_min(h, k, n) == 1
    mask = (1 << n) - 1
    assert min_weight_affine(h & mask, [(h << i) & mask for i in range(1, k)]) > 1


@given(st.data())
def test_a_lead_coset_weighs_its_span_minimum(data):
    # any base whose k shifts stay independent mod x^nbits: its lowest set bit p has p + k <= nbits
    nbits = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, min(nbits, 14)))
    p = data.draw(st.integers(0, nbits - k))
    base = (data.draw(st.integers(0, (1 << 48) - 1)) << 1 | 1) << p
    assert _coset_min(base, k, nbits) == _span_min(base, k, nbits)
