"""The lemma every exact search rests on: a lead coset holds the least weight of its span.

codes.lead_coset(base, k, N) is the 2^(k-1) words c*base mod x^N with
deg c = k - 1.  Where the k shifts x^i*base mod x^N are independent, c -> x*c
never adds weight to a word and never zeroes it, so the least nonzero weight
over the coset is that over the whole span of the k shifts.  The searches
weigh four shapes of coset: the oracle, D_0 of the interleave split (at the
anchors and in the spread), the dual oracle and the dual's shortest
interleave component.  Only the dual words are cut at x^N, so only there
does fixing the top coefficient, not the bottom one, matter.  Each command
weighs each distinct coset at most once: where t = 1 the dual component is
the dual oracle's coset, and an anchor's D_0 is the spread's, so each is
weighed once there.
"""

from __future__ import annotations

import contextlib
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycode import distance, duality
from polycode._linalg import min_weight_affine, min_weight_span
from polycode.codes import DEFAULT_CANDIDATE_CAP, code, generator_rows, interleave, lead_coset
from polycode.distance import full_distance_profile, min_distance_bruteforce, single_distance_report
from polycode.duality import _component, dual_code, dual_component_distance, dual_min_distance_bruteforce, dual_summary
from polycode.errors import CapExceeded
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
    n = ctx.n
    yield "oracle", (c.generator, c.k, n), partial(min_distance_bruteforce, c, cap=c.k)
    if iv.t > 1:
        yield "spread", (iv.R, iv.k0, -(-n // iv.t)), None
    if _is_anchor(ctx, j):
        yield "reduced-set", (iv.R, iv.k0, -(-n // iv.t)), partial(distance._anchor_min, ctx, j)
    yield "dual-oracle", (dual.h_star, dual.dim, n), partial(dual_min_distance_bruteforce, dual, cap=dual.dim)
    base = power_trunc(inverse_trunc(reciprocal(iv.Q), n // iv.t), iv.b, n // iv.t)
    yield "dual-component", (base, ctx.m * iv.b // iv.s, n // iv.t), partial(dual_component_distance, ctx, j)


def test_every_search_of_every_small_ring_weighs_its_span_minimum():
    # every irreducible P of degree 2-6 (x^6+x^3+1 = Q(x^3) among them), n <= 60, every 1 <= j <= L - 1 and
    # every search that runs there; each search's own answer too, where no candidate cap refuses it; and the
    # cosets of each side agree, on d(C_j) and on the dual distance
    seen, answered = {}, 0
    for P in IRREDUCIBLE_2_TO_6:
        for L in range(2, 60 // degree(P) + 1):
            ctx = new_context(P, L)
            for j in range(1, L):
                wants = {}
                for name, (base, k, nbits), search in _searches(ctx, j):
                    want = wants[name] = _span_min(base, k, nbits)
                    assert _coset_min(base, k, nbits) == want, (P, L, j, name)
                    seen[name] = seen.get(name, 0) + 1
                    if search is not None and ("oracle" in name or 1 << (k - 1) <= DEFAULT_CANDIDATE_CAP):
                        assert search() == want, (P, L, j, name)
                        answered += 1
                assert {w for name, w in wants.items() if "dual" not in name} == {wants["oracle"]}, (P, L, j)
                assert wants["dual-component"] == wants["dual-oracle"], (P, L, j)
    assert seen == {"oracle": 1931, "spread": 922, "dual-oracle": 1931, "reduced-set": 940, "dual-component": 1931}
    assert answered == 6098


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


def _small_rings():
    for P in IRREDUCIBLE_2_TO_6:
        for L in range(2, 60 // degree(P) + 1):
            yield new_context(P, L)


def _is_anchor(ctx, j):
    return j & (j - 1) == 0 or j in ctx.tops


@pytest.fixture
def weighed(monkeypatch):
    """The (g, rows) of every min_weight_affine call the distance and dual searches make, in call order."""
    calls = []

    def spy(g, rows):
        calls.append((g, tuple(rows)))
        return min_weight_affine(g, rows)

    for mod in (distance, duality):
        monkeypatch.setattr(mod, "min_weight_affine", spy)
    return calls


@pytest.mark.parametrize("cap", [20, 28])
def test_no_command_weighs_a_coset_twice(weighed, cap):
    # every irreducible P of degree 2-6 with n <= 60: the whole chain, analyze --j at every j, dual at every j
    commands = []
    for ctx in _small_rings():
        commands.append(partial(full_distance_profile, ctx, cap))
        commands += [partial(single_distance_report, ctx, j, cap) for j in range(ctx.L + 1)]
        commands += [partial(dual_summary, ctx, j, cap) for j in range(1, ctx.L)]
    repeats = weights = 0
    for command in commands:
        weighed.clear()
        command()
        weights += len(weighed)
        repeats += len(weighed) - len(set(weighed))
    assert weights > 0 and repeats == 0


def test_each_skipped_coset_is_the_one_weighed(weighed):
    # where t = 1 the dual component is the dual oracle's coset; an answered anchor's D_0 is the spread's
    one = primal = 0
    for ctx in _small_rings():
        for j in range(1, ctx.L):
            iv = interleave(ctx, j)
            if iv.t == 1:
                dual = dual_code(code(ctx, j))
                with contextlib.suppress(CapExceeded):
                    assert _component(dual) == lead_coset(dual.h_star, dual.dim, ctx.n)
                    one += 1
            if _is_anchor(ctx, j):
                with contextlib.suppress(CapExceeded):
                    distance._anchor_min(ctx, j)
                    g, rows = lead_coset(iv.R, iv.k0, -(-ctx.n // iv.t))
                    assert weighed[-1] == (g, tuple(rows))
                    primal += 1
    assert one > 0 and primal > 0


@pytest.mark.parametrize("cap", [20, 28])
def test_an_even_dual_anchor_keeps_the_oracle_as_its_check(cap):
    # B > 1: the anchor weighs n // B coefficients and the oracle n, two cosets, so both run and must agree
    checked = 0
    for ctx in _small_rings():
        for j in range(2, ctx.L, 2):
            if not _is_anchor(ctx, j) or ctx.m * j > cap:
                continue
            try:
                dual_component_distance(ctx, j)
            except CapExceeded:
                continue
            assert dual_summary(ctx, j, cap)["provenance"] == ["dual-reduced-set", "dual-oracle", "sequential-closure"]
            checked += 1
    assert checked > 0


def _span_min_by_enumeration(rows):
    """The least nonzero weight over all 2^len(rows) - 1 nonzero sums, one XOR each (a Gray code)."""
    best, w = None, 0
    for i in range(1, 1 << len(rows)):
        w ^= rows[(i & -i).bit_length() - 1]
        best = w.bit_count() if best is None else min(best, w.bit_count())
    return best


@pytest.mark.parametrize("P", [*IRREDUCIBLE_2_TO_6, parse("x^8+x^4+x^3+x+1"), parse("x^16+x^5+x^3+x+1")])
def test_an_odd_anchor_dual_distance_is_its_whole_dual_span_minimum(P):
    # at j = 1, and j = L - 1 on L = 2^T, the dual's m*j <= 16 rows are built here from (P^j)*^-1 mod x^n,
    # checked orthogonal to the code and independent, and every word enumerated; the component answers alone
    # where t = 1, and the oracle checks it where t = s > 1
    m = degree(P)
    for L in range(2, max(3, 60 // m + 1)):
        ctx = new_context(P, L)
        for j in (1, L - 1) if L & (L - 1) == 0 else (1,):
            if m * j > 16:
                continue
            n, mask = ctx.n, (1 << ctx.n) - 1
            h = inverse_trunc(reciprocal(power(P, j)), n)
            rows = [(h << i) & mask for i in range(m * j)]
            assert rows[-1] and all(not (g & r).bit_count() & 1 for g in generator_rows(code(ctx, j)) for r in rows)
            summary = dual_summary(ctx, j)
            checked = ["dual-oracle"] if interleave(ctx, j).t > 1 else []
            assert summary["provenance"] == ["dual-reduced-set", *checked, "sequential-closure"]
            assert summary["d_dual"] == _span_min_by_enumeration(rows), (P, L, j)
