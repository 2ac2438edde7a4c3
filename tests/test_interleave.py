"""The interleave split P^j = R(x^t) and the `spread` distance source it feeds.

C_j is the t-fold interleave of D_i = {R*c : deg(R*c) < ceil((n - i)/t)}, so
d(C_j) = d(D_0).  The profile weighs D_0 at every anchor within the candidate
cap, and wherever else t > 1 and its dimension k0 fits the oracle cap; these
tests check the split itself, the spread against the direct oracle with the
cap lifted, D_0 at the anchors against the paper's reduced sets, the family
rings against the v = 0 ring, and two identities of the same kind: reversal
(P against P*) and the hull under halving j and L.
"""

from __future__ import annotations

import sys

import pytest

from polycode import distance
from polycode._linalg import min_weight_affine, min_weight_span
from polycode.codes import DEFAULT_CANDIDATE_CAP, chain, code, decimate, interleave
from polycode.distance import DistanceReport, full_distance_profile, min_distance_bruteforce, single_distance_report
from polycode.errors import InternalConsistencyError, ValidationError
from polycode.gf2poly import degree, is_irreducible, parse, power, reciprocal
from polycode.lcd import family_poly, lcd_verdict
from polycode.ring import new_context
from _reference import substitute_power

IRREDUCIBLE_2_TO_6 = [f for f in range(4, 128) if is_irreducible(f)]
IRREDUCIBLE_2_TO_7 = [f for f in range(4, 256) if is_irreducible(f)]
# P = Q(x^s), s > 1: (Q, s) = (x^2+x+1, 3), (x^4+x+1, 3), (x^4+x+1, 5)
SPREAD_RINGS = {"x^6+x^3+1": (0b111, 3), "x^12+x^3+1": (0b10011, 3), "x^20+x^5+1": (0b10011, 5)}


def _rings(polys, nmax):
    for P in polys:
        for L in range(2, nmax // degree(P) + 1):
            yield new_context(P, L)


def _spy_searches(monkeypatch, spy):
    """Hand spy(g, rows) each coset that distance weighs in a search, the oracle or the spread, before weighing it."""
    real = distance.min_weight_affine

    def weigh(g, rows):
        if sys._getframe(2).f_code.co_name != "_structural_profile":  # the anchors' D_0 is weighed at every cap
            spy(g, rows)
        return real(g, rows)

    monkeypatch.setattr(distance, "min_weight_affine", weigh)


def _split(ctx, j):
    """(Q, R) with P = Q(x^s) and P^j = R(x^t), derived apart from the code: Q from P's exponents, R = Q^b a power."""
    Q = sum(1 << (i // ctx.s) for i in range(ctx.m + 1) if ctx.P >> i & 1)
    return Q, power(Q, j // (j & -j))


def test_the_split_rebuilds_every_power_and_its_dimension():
    polys = IRREDUCIBLE_2_TO_6 + [parse(text) for text in SPREAD_RINGS]
    checked = 0
    for ctx in _rings(polys, 60):
        for c in chain(ctx, 1, ctx.L):
            iv, (Q, R) = interleave(ctx, c.j), _split(ctx, c.j)
            s, b = ctx.s, c.j // (c.j & -c.j)
            assert s % 2 == 1 and substitute_power(Q, s) == ctx.P
            assert iv.t == (c.j & -c.j) * s and ctx.m * b % s == 0
            assert iv.deg_r == degree(R) == ctx.m * b // s  # the dimension of every component of the dual
            assert iv.k0 + iv.deg_r == -(-ctx.n // iv.t)
            assert substitute_power(R, iv.t) == c.generator == power(ctx.P, c.j)
            assert decimate(c.generator, iv.t, "P^j") == R  # the word every D_0 search reads
            # the t components D_i, lengths ceil((n - i)/t), share R: their dimensions add up to k, D_0's is k0
            dims = [-(-(ctx.n - i) // iv.t) - degree(R) for i in range(iv.t)]
            assert sum(max(0, d) for d in dims) == c.k
            assert iv.k0 == dims[0] >= 1
            checked += 1
    assert checked == 1989


def test_the_split_knows_s_and_q():
    for text, (Q, s) in SPREAD_RINGS.items():
        ctx = new_context(parse(text), 8)
        iv = interleave(ctx, 6)  # 2^a = 2, b = 3
        assert (ctx.s, iv.t, iv.deg_r) == (s, 2 * s, 3 * degree(Q)) and _split(ctx, 6) == (Q, power(Q, 3))
        assert decimate(code(ctx, 6).generator, iv.t, "P^6") == power(Q, 3)
    iv = interleave(new_context(parse("x^4+x+1"), 16), 12)
    assert (iv.t, iv.deg_r, iv.k0) == (4, 12, 4)  # s = 1, b = 3: deg R = 4*3
    ctx = new_context(parse("x^4+x+1"), 4)
    for j in (0, 4):
        with pytest.raises(ValidationError):
            interleave(ctx, j)


def _spread_value(c):
    """d(C_j) by the spread alone, on a fresh report with no bounds, at the cap it needs (k > k0: no oracle runs)."""
    iv = interleave(c.ctx, c.j)
    rep = DistanceReport(c.j, 1, c.n)
    distance._search(c, rep, iv.k0)
    assert rep.exact and rep.provenance == [f"spread-t{iv.t}"]
    return rep.lower


@pytest.mark.parametrize(
    "polys,nmax,expected",
    [(IRREDUCIBLE_2_TO_6, 60, 922), ([parse(text) for text in SPREAD_RINGS], 120, 250)],
    ids=["degree-2-to-6", "spread-rings"],
)
def test_spread_matches_the_uncapped_direct_oracle(polys, nmax, expected):
    checked = 0
    for ctx in _rings(polys, nmax):
        for c in chain(ctx, 1, ctx.L):
            if interleave(ctx, c.j).t > 1:
                assert _spread_value(c) == min_distance_bruteforce(c, cap=c.k), (ctx.P, ctx.L, c.j)
                checked += 1
    assert checked == expected


def test_profile_closes_an_odd_j_on_a_spread_ring():
    ctx = new_context(parse("x^12+x^3+1"), 8)  # j = 5: k = 36, t = 3, k0 = 12
    assert full_distance_profile(ctx, oracle_cap=0)[5].upper == 7  # [6, 7] from structure alone
    rep = single_distance_report(ctx, 5)
    assert (rep.lower, rep.upper) == (6, 6) and "spread-t3" in rep.provenance
    assert min_distance_bruteforce(code(ctx, 5), cap=36) == 6
    assert "spread-t3" in full_distance_profile(ctx)[5].provenance


def test_the_spread_checks_the_direct_oracle_where_both_run(monkeypatch):
    # cap 36, one walk up the chain: the anchors j = 2, 4, 6, 7 answer from D_0 (k0 = 12, 4, 4, 4) in the
    # structure and are not weighed again; the spread closes j = 1 and 3, which the small-weight kernel checks
    # after it; at j = 5 the oracle closes the slot first and keeps its tag, and D_0 is weighed there too,
    # where it must agree with the oracle's value
    weighed = []
    _spy_searches(monkeypatch, lambda g, rows: weighed.append((max(map(int.bit_length, [g, *rows])), len(rows) + 1)))
    ctx = new_context(parse("x^12+x^3+1"), 8)
    profile = full_distance_profile(ctx, oracle_cap=36)
    assert all(rep.exact for rep in profile)
    assert profile[5].provenance[-1] == "oracle" and profile[5].lower == 6
    assert [rep.j for rep in profile if any("spread" in tag for tag in rep.provenance)] == [1, 3]
    assert [rep.j for rep in profile if "reduced-set" in rep.provenance] == [2, 4, 6, 7]
    # D_0 at j = 1 (an anchor whose k0 = 28 is over the candidate cap, not the oracle cap) and j = 3 (t = 3),
    # then C_5 itself and its D_0 (t = 3); each weighing as (the longest word's bit length, the coset's shifts)
    assert weighed == [(32, 28), (32, 20), (96, 36), (32, 12)]


def _paper_reduced_set_min(ctx, j):
    """The paper's reduced set at j as it states it, on n bits: min weight of P^j * a(x^B), B = j & -j.

    a runs over the polynomials of constant term 1 and degree below lam = ceil(m(L - j)/B).
    """
    B = j & -j
    g = power(ctx.P, j)
    return min_weight_affine(g, [g << (B * t) for t in range(1, -(-(ctx.m * (ctx.L - j)) // B))])


def test_every_anchor_reduced_set_equals_the_interleave_component():
    # two theorems for d(C_j) at an anchor j: the paper's reduced set P^j * a(x^B), and D_0 of the interleave
    # lemma; every irreducible P of degree 2-7, n <= 200, every anchor where both sets (2^(lam-1) and 2^(k0-1)
    # words of constant term 1) are within the candidate cap, far past the oracle cap that _search needs.
    # The profile weighs the second, as a lead coset of R on ceil(n/t) bits; the first lives on here alone.
    rings = anchors = 0
    for ctx in _rings(IRREDUCIBLE_2_TO_7, 200):
        rings += 1
        for j in {1 << (ctx.T - s) for s in range(1, ctx.T + 1)} | set(ctx.tops):
            lam = -(-(ctx.m * (ctx.L - j)) // (j & -j))
            iv = interleave(ctx, j)
            if 1 << (lam - 1) > DEFAULT_CANDIDATE_CAP or 1 << (iv.k0 - 1) > DEFAULT_CANDIDATE_CAP:
                continue
            R = _split(ctx, j)[1]
            want = min_weight_span([R << i for i in range(iv.k0)])
            assert distance._anchor_min(ctx, j) == _paper_reduced_set_min(ctx, j) == want, (ctx.P, ctx.L, j)
            anchors += 1
    assert (rings, anchors) == (1384, 4145)


@pytest.mark.parametrize(
    "field,message",
    [("t", r"j=4: P\^j is not a word in x\^8"), ("k0", "j=4: D_0 has dimension 12, the split says 13")],
    ids=["t", "k0"],
)
def test_a_wrong_split_raises(monkeypatch, field, message):
    # t doubled, or D_0 one dimension too large: on x^4+x+1, L = 16, j = 4 is the first anchor that answers,
    # and D_0 there, read from P^4, refuses the split by name at every cap
    real = distance.interleave

    def wrong(ctx, j):
        iv = real(ctx, j)
        return iv._replace(t=2 * iv.t) if field == "t" else iv._replace(k0=iv.k0 + 1)

    monkeypatch.setattr(distance, "interleave", wrong)
    ctx = new_context(parse("x^4+x+1"), 16)
    for cap in (0, 28):
        with pytest.raises(InternalConsistencyError, match=message):
            full_distance_profile(ctx, oracle_cap=cap)


def test_an_oracle_cap_of_zero_turns_the_spread_off(monkeypatch):
    _spy_searches(monkeypatch, lambda g, rows: pytest.fail("an oracle ran"))
    for text in SPREAD_RINGS:
        ctx = new_context(parse(text), 8)
        full_distance_profile(ctx, oracle_cap=0)
        single_distance_report(ctx, 5, oracle_cap=0)


def test_family_rings_answer_as_the_v0_ring():
    # x^(2*3^v) + x^(3^v) + 1 = Q(x^(3^v)) with Q = x^2+x+1: every v reads the v = 0 ring
    for L in range(2, 17):
        base = full_distance_profile(new_context(family_poly(0), L))
        for v in (1, 2):
            profile = full_distance_profile(new_context(family_poly(v), L))
            for r0, r in zip(base[1:L], profile[1:L]):
                if r0.exact:
                    assert r.exact and r.lower == r0.lower, (v, L, r0.j)
                elif r.exact:
                    assert r0.lower <= r.lower <= r0.upper, (v, L, r0.j)


def test_the_reciprocal_gives_the_same_profile():
    # C_j over P* is C_j over P with its coordinates reversed; one P per reciprocal pair
    rings = 0
    for ctx in _rings([P for P in IRREDUCIBLE_2_TO_6 if P <= reciprocal(P)], 60):
        mirror = new_context(reciprocal(ctx.P), ctx.L)
        a, b = full_distance_profile(ctx, oracle_cap=20), full_distance_profile(mirror, oracle_cap=20)
        assert [(r.lower, r.upper) for r in a] == [(r.lower, r.upper) for r in b], (ctx.P, ctx.L)
        rings += 1
    assert rings == 154


def test_the_hull_of_an_even_j_is_2_to_the_a_times_the_halved_ring_hull():
    # 2^a || j and 2^a | L: each of the 2^a components is C_(j/2^a) over P^(L/2^a)
    codes = nonzero = 0
    for ctx in _rings(IRREDUCIBLE_2_TO_6, 120):
        for c in chain(ctx, 1, ctx.L):
            B = c.j & -c.j
            if B == 1 or ctx.L % B:
                continue
            hull = lcd_verdict(c).hull_dim
            halved = lcd_verdict(code(new_context(ctx.P, ctx.L // B), c.j // B)).hull_dim
            assert hull == B * halved, (ctx.P, ctx.L, c.j)
            codes += 1
            nonzero += hull > 0
    assert (codes, nonzero) == (1339, 811)
