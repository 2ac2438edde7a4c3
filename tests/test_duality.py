"""Dual codes: construction, reduced candidate sets, closure, oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode._linalg import nullspace, parity_dot, rank
from polycode.codes import code, generator_rows
from polycode.duality import (
    dual_code,
    dual_complement_distance,
    dual_distance_with_provenance,
    dual_min_distance_bruteforce,
    dual_pow2_candidates,
    dual_pow2_distance,
    dual_summary,
    sequential_closure_check,
)
from polycode.errors import ValidationError
from polycode.gf2poly import is_irreducible, mul, mul_trunc, parse, power_trunc, substitute_power
from polycode.ring import new_context

M3 = parse("x^3+x+1")
M4 = parse("x^4+x+1")


def test_dual_dimensions_and_orthogonality():
    ctx = new_context(M3, 5)
    for j in range(1, 5):
        dual = dual_code(code(ctx, j))
        assert dual.dim == 3 * j
        assert rank(list(dual.rows)) == dual.dim
        for g in generator_rows(code(ctx, j)):
            assert all(parity_dot(g, h) == 0 for h in dual.rows)


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
            assert rank(list(dual.rows)) == rank(list(ns)) == rank(list(dual.rows) + list(ns))


def test_dual_reduced_set_distances_m3L9():
    ctx = new_context(M3, 9)
    expected = {1: 15, 2: 7, 4: 3, 8: 1}  # j -> dual distance, j = 2^(T-s)
    for j, d in expected.items():
        s = ctx.T - j.bit_length() + 1
        assert dual_pow2_distance(ctx, s) == d
        assert dual_min_distance_bruteforce(dual_code(code(ctx, j)), cap=24) == d


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
    base = mul_trunc(power_trunc(ctx.x_e_1, (1 << s) - 1, tbits), ctx.U_star, tbits)
    want = _spread_weights_reference(ctx, base, ctx.m - 1, factor)
    assert dual_pow2_candidates(ctx, s) == want
    assert dual_pow2_distance(ctx, s) == min(w for w in want.values() if w)
    if ctx.regime in ("pow2", "high"):
        r = data.draw(st.integers(1, ctx.T if ctx.regime == "pow2" else ctx.R))
        lead_deg = ctx.m * ((1 << r) - 1) - 1
        if lead_deg <= 12:
            factor, tbits = 1 << (ctx.T - r), -(-ctx.n // (1 << (ctx.T - r)))
            base = mul_trunc(ctx.x_e_1, power_trunc(ctx.U_star, (1 << r) - 1, tbits), tbits)
            want = _spread_weights_reference(ctx, base, lead_deg, factor)
            assert dual_complement_distance(ctx, r) == min(w for w in want.values() if w)


def test_complement_and_pow2_paths_agree_on_shared_anchor():
    # j = 2^(T-1) is both the s = 1 reduced set and the r = 1 complement anchor
    ctx = new_context(M4, 16)
    assert dual_complement_distance(ctx, 1) == dual_pow2_distance(ctx, 1)


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
            assert sequential_closure_check(dual_code(code(ctx, j)), samples=25, seed=3)


def test_dual_distance_provenance_paths():
    ctx = new_context(M3, 9)
    d, prov = dual_distance_with_provenance(ctx, 4, oracle_cap=24)
    assert d == 3 and prov == ["dual-reduced-set", "dual-oracle"]
    d, prov = dual_distance_with_provenance(ctx, 3, oracle_cap=24)
    assert d == 7 and prov == ["dual-oracle"]  # j = 3 has no anchored family here
    d, prov = dual_distance_with_provenance(ctx, 3, oracle_cap=0)
    assert d is None and prov == []


def test_dual_summary_shape():
    ctx = new_context(M3, 9)
    summary = dual_summary(ctx, 2, oracle_cap=24, samples=10)
    assert set(summary) == {"j", "n", "k_dual", "d_dual", "provenance"}
    assert summary["j"] == 2 and summary["n"] == 27 and summary["k_dual"] == 6
    assert summary["d_dual"] == 7
    assert "sequential-closure" in summary["provenance"]


def test_complement_distance_needs_the_right_regime():
    from polycode.errors import WrongRegime

    low_ctx = new_context(parse("x^5+x^4+x^2+x+1"), 12)
    with pytest.raises(WrongRegime):
        dual_complement_distance(low_ctx, 1)
