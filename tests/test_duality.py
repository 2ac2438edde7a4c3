"""Dual codes: construction, reduced candidate sets, closure, oracles."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polycode._linalg import gray_walk, nullspace, rank
from polycode.cli import main
from polycode.codes import DEFAULT_CANDIDATE_CAP, code, interleave
from polycode.duality import (
    dual_code,
    dual_complement_distance,
    dual_component_distance,
    dual_min_distance_bruteforce,
    dual_pow2_candidates,
    dual_summary,
    sequential_closure_check,
)
from polycode import duality
from polycode.errors import CapExceeded, InternalConsistencyError, ValidationError
from polycode.gf2poly import is_irreducible, mul, mul_trunc, parse, power_trunc
from polycode.ring import new_context
from _reference import generator_rows, parity_dot, substitute_power
from test_ring import _old_regime, cofactor_forms

M3 = parse("x^3+x+1")
M4 = parse("x^4+x+1")


def _rows(h, n, dim):
    """The dual's spanning rows (h << i) mod x^n, 0 <= i < dim, which a DualCode does not store."""
    return [(h << i) & ((1 << n) - 1) for i in range(dim)]


def test_dual_dimensions_and_orthogonality():
    ctx = new_context(M3, 5)
    for j in range(1, 5):
        dual = dual_code(code(ctx, j))
        assert dual.dim == 3 * j
        rows = _rows(dual.h_star, dual.n, dual.dim)
        assert rank(rows) == dual.dim
        for g in generator_rows(code(ctx, j)):
            assert all(parity_dot(g, h) == 0 for h in rows)


@settings(deadline=None)
@given(st.data())
def test_orthogonality_by_shifts_agrees_with_every_pair(data):
    # dual_code decides k*m*j pairs by n - 1 parities; any word h must get the all-pairs verdict
    m = data.draw(st.integers(2, 6))
    P = data.draw(st.sampled_from([f for f in range((1 << m) | 1, 1 << (m + 1), 2) if is_irreducible(f)]))
    ctx = new_context(P, data.draw(st.integers(2, 10)))
    j = data.draw(st.integers(1, ctx.L - 1))
    c, n = code(ctx, j), ctx.n
    good = dual_code(c).h_star
    h = data.draw(
        st.just(good)
        | st.integers(0, n - 1).map(lambda b: good ^ (1 << b))
        | st.integers(0, (1 << n) - 1)
        | st.integers(1, m * j - 1).map(lambda s: (good << s) & ((1 << n) - 1))
    )
    rows = [(h << i) & ((1 << n) - 1) for i in range(m * j)]
    full_rank = rank(rows) == m * j
    orthogonal = all(parity_dot(g, r) == 0 for g in generator_rows(c) for r in rows)
    with mock.patch.object(duality, "inverse_trunc", lambda a, nbits: h):
        if full_rank and orthogonal:
            assert dual_code(c).h_star == h
        else:
            with pytest.raises(InternalConsistencyError, match="independent" if not full_rank else "orthogonal"):
                dual_code(c)


def test_full_rank_is_read_from_the_lowest_set_bit():
    # every shift of h* up to the rows' length, and h = 0: "independent" is raised exactly when the rows' rank is short
    for poly, L in ((parse("x^2+x+1"), 5), (M3, 4), (M4, 3)):
        ctx = new_context(poly, L)
        for j in range(1, L):
            c, n, dim = code(ctx, j), ctx.n, ctx.m * j
            good = dual_code(c).h_star
            for h in [0, *((good << s) & ((1 << n) - 1) for s in range(1, dim + 1))]:
                with mock.patch.object(duality, "inverse_trunc", lambda a, nbits: h):
                    with pytest.raises(InternalConsistencyError) as err:
                        dual_code(c)
                assert ("independent" in str(err.value)) == (rank(_rows(h, n, dim)) < dim), (poly, L, j, h)


def test_dual_rejects_trivial_ideals():
    ctx = new_context(M3, 4)
    with pytest.raises(ValidationError):
        dual_code(code(ctx, 0))
    with pytest.raises(ValidationError):
        dual_code(code(ctx, 4))


def test_dual_rows_span_the_nullspace_for_small_rings():
    for poly, L in ((parse("x^2+x+1"), 4), (M3, 4), (parse("x^2+x+1"), 7)):
        ctx = new_context(poly, L)
        for j in range(1, L):
            c = code(ctx, j)
            rows = generator_rows(c)
            ns = nullspace(list(rows), ctx.n)
            dual = dual_code(c)
            d_rows = _rows(dual.h_star, dual.n, dual.dim)
            assert rank(d_rows) == rank(list(ns)) == rank(d_rows + list(ns))


def test_dual_reduced_set_distances_m3L9():
    ctx = new_context(M3, 9)
    expected = {1: 15, 2: 7, 3: 7, 4: 3, 5: 3, 6: 2, 7: 2, 8: 1}  # j -> dual distance
    for j, d in expected.items():
        assert dual_component_distance(ctx, j) == d
        assert dual_min_distance_bruteforce(dual_code(code(ctx, j)), cap=24) == d


def test_dual_oracle_refusal_names_the_dimension_and_the_cap():
    # the information-set search walks nothing like 2^k words: the refusal names the dimension it counts
    dual = dual_code(code(new_context(M3, 9), 8))  # dimension m*j = 24
    with pytest.raises(CapExceeded, match=r"^dual oracle: dimension 24 is over the oracle cap of 20; raise the cap$"):
        dual_min_distance_bruteforce(dual, cap=20)


def test_dual_candidate_weights_m3L9():
    ctx = new_context(M3, 9)
    table = {
        1: {4: 1, 5: 1, 6: 2, 7: 2},
        2: {4: 3, 5: 3, 6: 3, 7: 3},
        3: {4: 7, 5: 7, 6: 7, 7: 7},
        4: {4: 15, 5: 15, 6: 15, 7: 15},
    }
    for s, want in table.items():
        assert dual_pow2_candidates(ctx, s) == want


def _spread_weights_reference(ctx, base, lead_deg, factor):
    """{ell: weight of (ell * base)(x^factor) * x^(factor - 1) mod x^n}, one ell at a time."""
    mask = (1 << ctx.n) - 1
    tmask = (1 << -(-ctx.n // factor)) - 1
    out = {}
    for low in range(1 << lead_deg):
        ell = (1 << lead_deg) | low
        w = mul(ell, base & tmask) & tmask
        out[ell] = ((substitute_power(w, factor) << (factor - 1)) & mask).bit_count()
    return out


@st.composite
def small_rings(draw):
    m = draw(st.integers(2, 10))
    P = draw(st.integers(1 << m, (2 << m) - 1).filter(is_irreducible))
    return new_context(P, draw(st.integers(2, 24)))


@settings(max_examples=40, deadline=None)
@given(small_rings(), st.data())
def test_dual_candidates_match_a_per_ell_loop(ctx, data):
    s = data.draw(st.integers(1, ctx.T))
    factor, tbits = 1 << (ctx.T - s), -(-ctx.n // (1 << (ctx.T - s)))
    x_e_1, _, U_star = cofactor_forms(ctx)
    base = mul_trunc(power_trunc(x_e_1, (1 << s) - 1, tbits), U_star, tbits)
    want = _spread_weights_reference(ctx, base, ctx.m - 1, factor)
    got = dual_pow2_candidates(ctx, s)
    if ctx.s == 1:  # else the component is s times shorter than the paper's set: only the minima agree
        assert got == want
    d = dual_component_distance(ctx, 1 << (ctx.T - s))
    assert d == min(w for w in got.values() if w) == min(w for w in want.values() if w)
    r = data.draw(st.integers(1, len(ctx.tops)))
    lead_deg = ctx.m * ((1 << r) - 1) - 1
    if lead_deg <= 12:
        factor, tbits = 1 << (ctx.T - r), -(-ctx.n // (1 << (ctx.T - r)))
        base = mul_trunc(x_e_1, power_trunc(U_star, (1 << r) - 1, tbits), tbits)
        want = _spread_weights_reference(ctx, base, lead_deg, factor)
        assert dual_complement_distance(ctx, r) == min(w for w in want.values() if w)


def test_unspread_candidates_weigh_as_the_spread_words():
    # every anchor with m*(j/B) - 1 <= 12 on every irreducible P of degree 2-6, n <= 64: the component on
    # n // B coefficients (s = 1, t = B) weighs, ell by ell, what the paper's spread words of its cofactor bases
    # weigh; on x^6+x^3+1 (s = 3) the component is three times shorter, and only the minima agree
    checked = 0
    for m in range(2, 7):
        for P in (f for f in range((1 << m) | 1, 2 << m, 2) if is_irreducible(f)):
            for L in range(2, 64 // m + 1):
                ctx = new_context(P, L)
                x_e_1, _, U_star = cofactor_forms(ctx)
                for j in sorted({1 << i for i in range(ctx.T)} | set(ctx.tops)):
                    B = j & -j
                    lead_deg = m * (j // B) - 1
                    if lead_deg > 12:
                        continue
                    tbits = -(-ctx.n // B)
                    # the paper's base (x^e + 1)^(2^T/B - u) * U*^u, u = j/B
                    u = j // B
                    x_e_power = power_trunc(x_e_1, (1 << ctx.T) // B - u, tbits)
                    base = mul_trunc(x_e_power, power_trunc(U_star, u, tbits), tbits)
                    walk = gray_walk(*duality._component(dual_code(code(ctx, j)), interleave(ctx, j)))  # position t holds index t ^ (t >> 1)
                    got = {t ^ (t >> 1): w.bit_count() for t, w in enumerate(walk)}
                    want = _spread_weights_reference(ctx, base, lead_deg, B)
                    if ctx.s == 1:
                        assert {(1 << lead_deg) | i: w for i, w in got.items()} == want, (P, L, j)
                    assert min(w for w in got.values() if w) == min(w for w in want.values() if w), (P, L, j)
                    checked += 1
    assert checked == 897


def _pow2_min(ctx, s):
    """The dual distance at j = 2^(T-s), read from the s-keyed candidate table."""
    return min(w for w in dual_pow2_candidates(ctx, s).values() if w)


def test_complement_and_pow2_paths_agree_on_shared_anchor():
    # j = 2^(T-1) is both s = 1 and r = 1, in every regime: both wrappers must map their index to it
    for poly, L, regime in ((M4, 16, "pow2"), (M4, 14, "high"), (parse("x^5+x^4+x^2+x+1"), 12, "low")):
        ctx = new_context(poly, L)
        assert _old_regime(L)[0] == regime
        assert dual_complement_distance(ctx, 1) == _pow2_min(ctx, 1) == dual_component_distance(ctx, 1 << (ctx.T - 1))


def test_every_dual_anchor_matches_the_dual_oracle():
    # every anchor with m*j <= 32 whose set is within the cap (four are over it), upper anchors with r >= 2 included
    checked = upper = 0
    for m in range(2, 7):
        for P in (f for f in range((1 << m) | 1, 2 << m, 2) if is_irreducible(f)):
            for L in range(2, 64 // m + 1):
                ctx = new_context(P, L)
                anchors = {1 << i for i in range(ctx.T)} | set(ctx.tops)
                within = (a for a in anchors if m * a <= 32 and 1 << (m * a // (a & -a) - 1) <= DEFAULT_CANDIDATE_CAP)
                for j in sorted(within):
                    want = dual_min_distance_bruteforce(dual_code(code(ctx, j)), cap=32)
                    assert dual_component_distance(ctx, j) == want, (P, L, j)
                    checked += 1
                    upper += j & (j - 1) != 0
    assert (checked, upper) == (849, 54)


def test_dual_component_distance_refuses_an_index_off_the_chain():
    ctx = new_context(M4, 16)
    for j in (0, 16):
        with pytest.raises(ValidationError):
            dual_component_distance(ctx, j)
    assert dual_component_distance(ctx, 3) == dual_min_distance_bruteforce(dual_code(code(ctx, 3)), cap=12) == 16


def test_an_over_cap_dual_component_is_refused_before_the_dual_is_built(monkeypatch):
    # the split sizes the component (deg_r shifts), so an entry point refuses before dual_code builds h*:
    # x^4+x+1, L = 16, j = 14 = tops[2] (t = 2, 2^27 candidates); x^23+x^5+1, L = 8, s = 1 (j = 4, 2^22)
    m4, m23 = new_context(M4, 16), new_context(parse("x^23+x^5+1"), 8)

    def unbuilt(c):
        raise AssertionError(f"dual_code built for j={c.j} before the refusal")

    with monkeypatch.context() as mp:
        mp.setattr(duality, "dual_code", unbuilt)
        for call, want in (
            (lambda: dual_component_distance(m4, 14), 27),
            (lambda: dual_complement_distance(m4, 3), 27),
            (lambda: dual_pow2_candidates(m23, 1), 22),
        ):
            message = rf"^dual component has 2\^{want} candidates, over the cap of {DEFAULT_CANDIDATE_CAP}$"
            with pytest.raises(CapExceeded, match=message):
                call()
    for ctx, j in ((m4, 14), (m23, 4)):
        summary = dual_summary(ctx, j)
        assert summary["d_dual"] is None and summary["provenance"] == ["sequential-closure"], (ctx.L, j)


def test_an_h_star_with_a_bit_off_the_multiples_of_t_raises():
    # h* = (Q*^-b)(x^t) mod x^n: the component is read from h*'s coefficients at the multiples of t, and a
    # flipped coefficient anywhere else breaks the split (x^4+x+1, j = 12, t = 4; x^6+x^3+1 = Q(x^3), j = 5, t = 3)
    for poly, j in ((M4, 12), (parse("x^6+x^3+1"), 5)):
        ctx = new_context(poly, 16)
        dual, iv = dual_code(code(ctx, j)), interleave(ctx, j)
        duality._component(dual, iv)
        for bit in range(ctx.n):
            bad = dual._replace(h_star=dual.h_star ^ 1 << bit)
            if bit % iv.t:
                with pytest.raises(InternalConsistencyError):
                    duality._component(bad, iv)
            else:
                duality._component(bad, iv)


def test_dual_oracle_matches_plain_nullspace_enumeration():
    ctx = new_context(M3, 4)
    for j in (1, 2, 3):
        dual = dual_code(code(ctx, j))
        got = dual_min_distance_bruteforce(dual, cap=24)
        ns = nullspace(list(generator_rows(code(ctx, j))), ctx.n)
        best = min(
            bin(w).count("1")
            for msg in range(1, 1 << len(ns))
            for w in [_combine(ns, msg)]
        )
        assert got == best


def _combine(rows, mask):
    acc = 0
    while mask:
        i = (mask & -mask).bit_length() - 1
        acc ^= rows[i]
        mask &= mask - 1
    return acc


def test_sequential_closure_holds_for_constructed_duals():
    for poly, L in ((M3, 9), (M4, 6), (parse("x^5+x^2+1"), 4)):
        ctx = new_context(poly, L)
        for j in range(1, L):
            assert sequential_closure_check(dual_code(code(ctx, j)))


def test_dual_distance_provenance_paths():
    ctx = new_context(M3, 9)
    summary = dual_summary(ctx, 4, oracle_cap=24)
    assert summary["d_dual"] == 3 and summary["provenance"] == ["dual-reduced-set", "dual-oracle", "sequential-closure"]
    # j = 3 has t = 1: the component is the oracle's coset, weighed once, at every oracle cap
    for cap in (24, 0):
        summary = dual_summary(ctx, 3, oracle_cap=cap)
        assert summary["d_dual"] == 7 and summary["provenance"] == ["dual-reduced-set", "sequential-closure"]
    # x^4+x+1, L = 16, j = 7: the component's 2^27 candidates are over the cap, so the oracle alone answers
    ctx = new_context(M4, 16)
    summary = dual_summary(ctx, 7, oracle_cap=28)
    assert summary["d_dual"] is not None and summary["provenance"] == ["dual-oracle", "sequential-closure"]
    summary = dual_summary(ctx, 7, oracle_cap=0)
    assert summary["d_dual"] is None and summary["provenance"] == ["sequential-closure"]


def test_a_dual_that_is_not_sequential_raises(capsys, monkeypatch):
    # duals of polycyclic codes are sequential, so a failed closure test is a fault, not a missing tag
    monkeypatch.setattr(duality, "sequential_closure_check", lambda dual: False)
    with pytest.raises(InternalConsistencyError, match="not sequential"):
        dual_summary(new_context(M3, 9), 2)
    assert main(["dual", "--poly", "x^3+x+1", "--power", "9", "--j", "2", "--json"]) == 3
    assert "not sequential" in capsys.readouterr().err


def test_dual_summary_shape():
    ctx = new_context(M3, 9)
    summary = dual_summary(ctx, 2, oracle_cap=24)
    assert set(summary) == {"j", "n", "k_dual", "d_dual", "provenance"}
    assert summary["j"] == 2 and summary["n"] == 27 and summary["k_dual"] == 6
    assert summary["d_dual"] == 7
    assert summary["provenance"] == ["dual-reduced-set", "dual-oracle", "sequential-closure"]


def test_dual_summary_builds_the_dual_once(monkeypatch):
    # the oracle route searches the summary's own DualCode
    built = []

    def counting(c):
        built.append(c.j)
        return dual_code(c)

    monkeypatch.setattr(duality, "dual_code", counting)
    summary = dual_summary(new_context(M3, 9), 6, oracle_cap=24)
    assert summary["d_dual"] == 2 and summary["provenance"] == ["dual-reduced-set", "dual-oracle", "sequential-closure"]
    assert built == [6]


def test_complement_distance_covers_exactly_the_tops():
    low_ctx = new_context(parse("x^5+x^4+x^2+x+1"), 12)
    assert low_ctx.tops == (8,)
    assert dual_complement_distance(low_ctx, 1) == _pow2_min(low_ctx, 1) == dual_component_distance(low_ctx, 8)
    for r in (0, 2):
        with pytest.raises(ValidationError):
            dual_complement_distance(low_ctx, r)


def _stays_shifted(rows, n, w):
    """Per-word reference: w >> 1, or w >> 1 with the top bit set, lies in span(rows)."""
    full = rank(rows)
    w1 = w >> 1
    return rank([*rows, w1]) == full or rank([*rows, w1 | 1 << (n - 1)]) == full


def _closed_by_rank(rows, n):
    """Closure by one rank comparison over all rows: every r >> 1 lies in span(rows) + <x^(n-1)>."""
    with_top = [*rows, 1 << (n - 1)]
    return rank(with_top + [r >> 1 for r in rows]) == rank(with_top)


def _perturbed_words(h, n, dim, rng):
    """h and seven words near it: four single bits flipped, h shifted by 1 and by 2, and a random odd word."""
    mask = (1 << n) - 1
    flips = [h ^ (1 << b) for b in (0, n - 1, n // 2, dim - 1)]
    return [h, *flips, (h << 1) & mask, (h << 2) & mask, rng.getrandbits(n) | 1]


@settings(deadline=None)
@given(st.data())
def test_closure_rank_check_matches_a_per_word_reference(data):
    # the real h* (always closed), or a word near it or a random odd word (closed or not);
    # words whose rows are not independent are refused by dual_code and skipped here
    m = data.draw(st.integers(2, 4))
    P = data.draw(st.sampled_from([f for f in range((1 << m) | 1, 1 << (m + 1), 2) if is_irreducible(f)]))
    ctx = new_context(P, data.draw(st.integers(2, 6)))
    j = data.draw(st.integers(1, ctx.L - 1))
    n, dim, good = ctx.n, ctx.m * j, dual_code(code(ctx, j)).h_star
    h = data.draw(
        st.just(good)
        | st.integers(0, n - 1).map(lambda b: good ^ (1 << b))
        | st.integers(0, (1 << n) - 1).map(lambda w: w | 1)
        | st.integers(1, 2).map(lambda s: (good << s) & ((1 << n) - 1))
    )
    rows = _rows(h, n, dim)
    assume(rank(rows) == dim)
    combos = data.draw(st.lists(st.integers(1, (1 << dim) - 1), min_size=1, max_size=30))
    words = rows + [_combine(rows, c) for c in combos]
    want = all(_stays_shifted(rows, n, w) for w in words)
    assert sequential_closure_check(duality.DualCode(ctx, j, h)) == want == _closed_by_rank(rows, n)


def test_closure_from_the_word_matches_the_rank_comparison_on_every_small_ring():
    # every irreducible P of degree 2-6, L = 2..11, every j: h* and seven words near it
    rng = random.Random(29)
    checked = closed = 0
    for m in range(2, 7):
        for P in (f for f in range((1 << m) | 1, 1 << (m + 1), 2) if is_irreducible(f)):
            for L in range(2, 12):
                ctx = new_context(P, L)
                for j in range(1, L):
                    n, dim = ctx.n, m * j
                    for h in _perturbed_words(dual_code(code(ctx, j)).h_star, n, dim, rng):
                        rows = _rows(h, n, dim)
                        if rank(rows) < dim:
                            continue
                        got = sequential_closure_check(duality.DualCode(ctx, j, h))
                        assert got == _closed_by_rank(rows, n), (P, L, j, h)
                        checked += 1
                        closed += got
    assert (checked, closed) == (9172, 1467)
