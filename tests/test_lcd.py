"""Hull dimensions and LCD verdicts: criteria against the oracle, families, scan."""

from __future__ import annotations

import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode._linalg import column_kernel, nullspace, parity_dot, rank
from polycode.codes import code, generator_rows
from polycode.duality import dual_code
from polycode.errors import ValidationError, WrongRegime
from polycode.gf2poly import inverse_trunc, is_irreducible, mul, mul_trunc, parse, power_trunc, reciprocal
from polycode.lcd import (
    _gray_sweep,
    _hull_by_reconstruction,
    _reconstruction_dim,
    _toeplitz_gram,
    conjecture_scan,
    hull_dimension_oracle,
    is_lcd_head_criterion,
    is_lcd_tail_criterion,
    lcd_verdict,
)
from polycode.ring import new_context
from polycode.trinomial_family import family_context

M3 = parse("x^3+x+1")


def test_three_way_agreement_m3L8():
    ctx = new_context(M3, 8)
    c = code(ctx, 1)
    v_all = lcd_verdict(c, "all")
    v_oracle = lcd_verdict(c, "oracle")
    v_theorem = lcd_verdict(c, "theorem")
    assert v_all.is_lcd and v_oracle.is_lcd and v_theorem.is_lcd
    assert v_all.hull_dim == 0 and v_oracle.hull_dim == 0
    assert v_theorem.hull_dim is None  # criterion-only runs never compute the hull
    assert v_all.methods == ("oracle", "head-criterion")


def test_hull_dimensions_frozen():
    assert hull_dimension_oracle(code(new_context(parse("x^2+x+1"), 2), 1)) == 0
    for j in range(1, 4):
        assert hull_dimension_oracle(code(new_context(parse("x^2+x+1"), 4), j)) == 0
    assert hull_dimension_oracle(code(new_context(parse("x^9+x^7+x^2+x+1"), 2), 1)) == 0
    # the one published-as-LCD ring that actually has a 10-dimensional hull
    assert hull_dimension_oracle(code(new_context(parse("x^11+x^10+x^5+x^4+1"), 8), 1)) == 10


def _random_ring(deg: int, seed: int):
    """A ring over a random irreducible P of degree deg, with n = deg*L up to about 72."""
    rng = random.Random(seed)
    while True:
        P = (1 << deg) | rng.getrandbits(deg - 1) << 1 | 1
        if is_irreducible(P):
            return new_context(P, rng.randrange(2, max(3, 72 // deg + 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32))
def test_toeplitz_gram_matches_the_pairwise_gram(deg, seed):
    ctx = _random_ring(deg, seed)
    for j in range(ctx.L + 1):  # j = 0 is the whole space, k = n
        c = code(ctx, j)
        rows = generator_rows(c)
        pairwise = [sum(parity_dot(ra, rb) << b for b, rb in enumerate(rows)) for ra in rows]
        assert _toeplitz_gram(c.generator, c.k) == pairwise, (P, ctx.L, j)
        assert hull_dimension_oracle(c) == c.k - rank(pairwise)


def _nullspace_hull(c) -> int:
    """Reference hull: k + dim(C-dual) - rank of the generator rows stacked on a C-dual basis."""
    rows = generator_rows(c)
    ns = nullspace(rows, c.n)
    return c.k + len(ns) - rank(rows + ns)


@settings(deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32))
def test_reconstruction_hull_matches_the_nullspace_hull(deg, seed):
    ctx = _random_ring(deg, seed)
    for j in range(ctx.L + 1):
        c = code(ctx, j)
        want = _nullspace_hull(c)
        assert _hull_by_reconstruction(c) == want, (ctx.P, ctx.L, j)
        assert hull_dimension_oracle(c) == want, (ctx.P, ctx.L, j)


def test_reconstruction_target_inverts_the_dual_word():
    # q = (P * P_star)^j mod x^n is g * h^-1: the dual word h has inverse P_star^j mod x^n
    for deg in (2, 3, 4, 5):
        for P in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if not is_irreducible(P):
                continue
            for L in range(2, 24 // deg + 3):
                ctx = new_context(P, L)
                for j in range(1, L):
                    c = code(ctx, j)
                    q = power_trunc(mul(P, reciprocal(P)), j, ctx.n)
                    assert mul_trunc(q, dual_code(c).h_star, ctx.n) == c.generator, (P, L, j)


def _top_block_kernel_dim(q: int, n: int, a: int) -> int:
    """Reference for _reconstruction_dim: the dependencies among the top a bits of q*x^i mod x^n, i < a."""
    return len(column_kernel([mul_trunc(q, 1 << i, n) >> (n - a) for i in range(a)]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reconstruction_dim_matches_the_column_kernel(data):
    n = data.draw(st.integers(1, 40))
    a = data.draw(st.integers(0, n))
    q = data.draw(
        st.one_of(
            st.just(0),
            st.integers(0, (1 << (n - a)) - 1),  # deg q < n - a: delta = 1 already lies in the set
            st.integers(0, (1 << n) - 1),  # units and non-units alike
        )
    )
    assert _reconstruction_dim(q, n, a) == _top_block_kernel_dim(q, n, a), (q, n, a)


def test_both_criteria_kernels_have_the_hull_dimension():
    # the paper's matrices, solved densely: the head's columns are the top n - k bits of W*x^i
    # (i < m*j), the tail's the words x^i*A (i < k) and x^i*Q (i < m*j) mod x^n
    for deg in (2, 3, 4, 5):
        for P in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if not is_irreducible(P):
                continue
            for L in range(2, 24 // deg + 3):
                ctx = new_context(P, L)
                n, T = ctx.n, ctx.T
                P_inv = inverse_trunc(P, n)  # the ring keeps only P*^-1 and (P * P*)^-1
                for j in range(1, L):
                    c = code(ctx, j)
                    k, mj = c.k, deg * j
                    W = power_trunc(ctx.PP_star_inv, j, n)
                    want = _reconstruction_dim(W, n, mj)
                    assert want == hull_dimension_oracle(c), (P, L, j)
                    assert _top_block_kernel_dim(W, n, mj) == want, (P, L, j)
                    if 2 * j >= 1 << T:
                        A = power_trunc(P, 2 * j - (1 << T), n)
                        Q = mul_trunc(power_trunc(P_inv, (1 << T) - j, n), power_trunc(ctx.P_star_inv, j, n), n)
                        cols = [mul_trunc(A, 1 << i, n) for i in range(k)] + [mul_trunc(Q, 1 << i, n) for i in range(mj)]
                        assert len(column_kernel(cols)) == want, (P, L, j)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gray_sweep_matches_the_per_delta_product_sweep(data):
    # a narrow top block (n - k small) makes vanishing products likely
    n = data.draw(st.integers(2, 48))
    k = data.draw(st.integers(0, n - 1))
    mj = data.draw(st.integers(1, 12))
    W = data.draw(st.integers(0, (1 << n) - 1))
    steps = [mul_trunc(W, 1 << i, n) >> k for i in range(mj)]
    want = all((mul_trunc(W, delta, n) >> k) != 0 for delta in range(1, 1 << mj))
    assert _gray_sweep(steps) == want


@pytest.mark.parametrize("mj", range(1, 9))
def test_gray_sweep_catches_a_single_vanishing_delta_anywhere(mj):
    # the only vanishing combination is delta0: the Gray walk must reach every delta
    for delta0 in range(1, 1 << mj):
        top = delta0.bit_length() - 1
        steps = [1 << i for i in range(mj)]
        steps[top] = reduce(xor, (1 << i for i in range(top) if delta0 >> i & 1), 0)
        assert not _gray_sweep(steps), (mj, delta0)
    assert _gray_sweep([1 << i for i in range(mj)])


def test_trivial_ideals_are_lcd():
    ctx = new_context(M3, 4)
    assert lcd_verdict(code(ctx, 0), "oracle").is_lcd
    assert lcd_verdict(code(ctx, 4), "oracle").is_lcd
    with pytest.raises(WrongRegime):
        lcd_verdict(code(ctx, 0), "theorem")


def test_methods_argument_validated():
    ctx = new_context(M3, 4)
    with pytest.raises(ValidationError):
        lcd_verdict(code(ctx, 1), "both")


def test_head_criterion_matches_oracle_on_small_rings():
    for deg in (2, 3, 4):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if not is_irreducible(f):
                continue
            for L in range(2, 30 // deg + 1):
                ctx = new_context(f, L)
                for j in range(1, (1 << (ctx.T - 1)) + 1):
                    want = hull_dimension_oracle(code(ctx, j)) == 0
                    assert is_lcd_head_criterion(code(ctx, j)) == want, (f, L, j)


def test_tail_criterion_matches_oracle_on_small_rings():
    for deg in (2, 3, 4):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if not is_irreducible(f):
                continue
            for L in range(2, 36 // deg + 1):
                ctx = new_context(f, L)
                for j in range((1 << (ctx.T - 1)) + 1, L):
                    want = hull_dimension_oracle(code(ctx, j)) == 0
                    assert is_lcd_tail_criterion(code(ctx, j)) == want, (f, L, j)


def test_criteria_regime_boundaries():
    ctx = new_context(M3, 8)  # T = 3, boundary at j = 4
    assert isinstance(is_lcd_head_criterion(code(ctx, 4)), bool)
    with pytest.raises(WrongRegime):
        is_lcd_head_criterion(code(ctx, 5))
    with pytest.raises(WrongRegime):
        is_lcd_tail_criterion(code(ctx, 4))
    assert isinstance(is_lcd_tail_criterion(code(ctx, 5)), bool)


def test_lcd_families_hold():
    # C_(2^r) for r < T, C_(2^T - 2^(T-r)) for 2 <= r <= T, and C_3 for T >= 3
    for v in (0, 1):
        for T in (1, 2, 3, 4):
            ctx = family_context(v, 1 << T)
            js = [1 << r for r in range(T)] + [(1 << T) - (1 << (T - r)) for r in range(2, T + 1)]
            js += [3] if T >= 3 else []
            for j in js:
                verdict = lcd_verdict(code(ctx, j), "all")
                assert verdict.is_lcd and verdict.hull_dim == 0, (v, T, j)


def test_conjecture_scan_is_clean_and_sorted():
    rows = conjecture_scan(0, 3)
    assert rows == sorted(rows, key=lambda row: (row["v"], row["T"], row["j"]))
    assert all(set(row) == {"v", "T", "j", "n", "k", "is_lcd", "hull_dim"} for row in rows)
    assert all(row["is_lcd"] and row["hull_dim"] == 0 for row in rows)
    # every proper nonzero ideal of every scanned ring appears
    assert sum(1 for row in rows if row["T"] == 3) == 7  # j = 1..7 at L = 8


def test_conjecture_scan_respects_dim_cap():
    rows = conjecture_scan(2, 4, dim_cap=100)
    assert all(row["n"] <= 100 for row in rows)
    assert len(conjecture_scan(2, 4, dim_cap=4)) == 1  # only C_1 of the smallest ring, n = 4
    for cap in (3, 0, -1):  # below n = 4 the scan would be vacuous
        with pytest.raises(ValidationError, match="dim_cap"):
            conjecture_scan(2, 4, dim_cap=cap)


def test_conjecture_scan_parallel_matches_serial():
    assert conjecture_scan(1, 2, workers=2) == conjecture_scan(1, 2)
