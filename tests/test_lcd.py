"""Hull dimensions and LCD verdicts: criteria against the oracle, families, scan."""

from __future__ import annotations

import random
import re
import tracemalloc
from functools import reduce
from itertools import islice
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode import lcd
from polycode._linalg import column_kernel, gray_walk, nullspace, rank
from polycode.cli import main
from polycode.codes import chain, code
from polycode.duality import dual_code
from polycode.errors import CapExceeded, InternalConsistencyError, ValidationError
from polycode.gf2poly import degree, inverse_trunc, is_irreducible, mul, mul_trunc, parse, power_trunc, reciprocal
from polycode.lcd import (
    _hull_word,
    _linear_complexity,
    _reconstruction_dim,
    conjecture_scan,
    family_poly,
    hull_dimension_oracle,
    is_lcd_head_criterion,
    is_lcd_tail_criterion,
    lcd_chain,
    lcd_verdict,
)
from polycode.ring import new_context
from _reference import generator_rows, parity_dot

M3 = parse("x^3+x+1")


def _toeplitz_gram(g: int, k: int) -> list[int]:
    """Gram matrix of the rows x^a * g for a < k, taken whole (no row wraps mod x^n).

    Gram[a][b] = <x^a g, x^b g> = <g, x^|a-b| g> = t[|a-b|]: a symmetric
    Toeplitz matrix.  The band holds t[d] at bits k-1+d and k-1-d, so row a is
    the band shifted right by k-1-a, cut to k bits.
    """
    band = 0
    for d in range(min(k, g.bit_length())):  # t[d] = 0 once the shift clears g
        if parity_dot(g, g << d):
            band |= (1 << (k - 1 + d)) | (1 << (k - 1 - d))
    mask = (1 << k) - 1
    return [(band >> (k - 1 - a)) & mask for a in range(k)]


def _hull(c) -> int:
    """hull_dimension_oracle on the word q = g * g_star mod x^n that lcd._hull_word builds."""
    return hull_dimension_oracle(c, _hull_word(c))


def _W(c) -> int:
    """The criteria's word W = q^-1 mod x^n, for the q that lcd._hull_word builds."""
    return inverse_trunc(_hull_word(c), c.ctx.n)


def _gram_hull(c) -> int:
    """Reference hull: k - rank of the Gram matrix, by elimination."""
    return c.k - rank(_toeplitz_gram(c.generator, c.k))


def _euclid_hull(c, q: int | None = None) -> int:
    """Reference hull: a*g lies in C-dual iff deg(a*q mod x^n) < m*j = n - k, by the extended Euclid on q."""
    return _reconstruction_dim(_hull_word(c) if q is None else q, c.ctx.n, c.k)


def test_three_way_agreement_m3L8():
    ctx = new_context(M3, 8)
    c = code(ctx, 1)
    # Berlekamp-Massey on q, the Gram elimination, the Euclid on q and the head criterion's
    # Euclid on W each find no hull
    assert _hull(c) == _gram_hull(c) == _euclid_hull(c) == 0
    assert is_lcd_head_criterion(c.ctx, c.j, _W(c), _hull(c))
    assert lcd_verdict(c) == (1, True, 0, ("oracle", "head-criterion"))


def test_hull_dimensions_frozen():
    assert _hull(code(new_context(parse("x^2+x+1"), 2), 1)) == 0
    for j in range(1, 4):
        assert _hull(code(new_context(parse("x^2+x+1"), 4), j)) == 0
    assert _hull(code(new_context(parse("x^9+x^7+x^2+x+1"), 2), 1)) == 0
    # the one published-as-LCD ring that actually has a 10-dimensional hull
    assert _hull(code(new_context(parse("x^11+x^10+x^5+x^4+1"), 8), 1)) == 10


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
        assert _toeplitz_gram(c.generator, c.k) == pairwise, (ctx.P, ctx.L, j)
        assert _hull(c) == c.k - rank(pairwise)


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
        assert _euclid_hull(c) == want, (ctx.P, ctx.L, j)
        assert _hull(c) == want, (ctx.P, ctx.L, j)


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
                P_inv, P_star_inv = inverse_trunc(P, n), inverse_trunc(reciprocal(P), n)
                PP_star_inv = inverse_trunc(mul(P, reciprocal(P)), n)
                for j in range(1, L):
                    c = code(ctx, j)
                    k, mj = c.k, deg * j
                    W = power_trunc(PP_star_inv, j, n)
                    want = _reconstruction_dim(W, n, mj)
                    assert want == _hull(c), (P, L, j)
                    assert _top_block_kernel_dim(W, n, mj) == want, (P, L, j)
                    if 2 * j >= 1 << T:
                        A = power_trunc(P, 2 * j - (1 << T), n)
                        Q = mul_trunc(power_trunc(P_inv, (1 << T) - j, n), power_trunc(P_star_inv, j, n), n)
                        cols = [mul_trunc(A, 1 << i, n) for i in range(k)] + [mul_trunc(Q, 1 << i, n) for i in range(mj)]
                        assert len(column_kernel(cols)) == want, (P, L, j)


def _gray_sweep(steps):
    """Whether the Gray-code walk over the steps meets no zero past its start (lcd._no_xor_vanishes's reference)."""
    return all(islice(gray_walk(0, steps), 1, None))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gray_sweep_matches_the_per_delta_product_sweep(data):
    # a narrow top block (n - k small) makes vanishing products likely; the criterion's steps,
    # W*x^i cut by a shift and a mask, are its products by the monomials x^i
    n = data.draw(st.integers(2, 48))
    k = data.draw(st.integers(0, n - 1))
    mj = data.draw(st.integers(1, 12))
    W = data.draw(st.integers(0, (1 << n) - 1))
    steps = [((W << i) & ((1 << n) - 1)) >> k for i in range(mj)]
    assert steps == [mul_trunc(W, 1 << i, n) >> k for i in range(mj)]
    want = all((mul_trunc(W, delta, n) >> k) != 0 for delta in range(1, 1 << mj))
    assert _gray_sweep(steps) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_meet_in_the_middle_check_matches_the_gray_sweep(data):
    # criterion-shaped steps (W*x^i cut to a narrow top block, where vanishing XORs are likely),
    # and steps from a handful of short words, where repeats and zero steps are likely too
    mj = data.draw(st.integers(1, 12))
    if data.draw(st.booleans()):
        n = data.draw(st.integers(2, 48))
        k = data.draw(st.integers(max(0, n - 16), n - 1))
        W = data.draw(st.integers(0, (1 << n) - 1))
        steps = [((W << i) & ((1 << n) - 1)) >> k for i in range(mj)]
    else:
        steps = data.draw(st.lists(st.integers(0, (1 << data.draw(st.integers(1, 14))) - 1), min_size=mj, max_size=mj))
    assert lcd._no_xor_vanishes(steps) == _gray_sweep(steps), steps


@pytest.mark.parametrize("mj", range(1, 9))
def test_gray_sweep_catches_a_single_vanishing_delta_anywhere(mj):
    # the only vanishing combination is delta0: the Gray walk must reach every delta, and the
    # meet-in-the-middle check must catch delta0 within its low half, within its high half
    # (bits h and up, h = mj // 2) and across both
    h, seen = mj // 2, set()
    for delta0 in range(1, 1 << mj):
        top = delta0.bit_length() - 1
        steps = [1 << i for i in range(mj)]
        steps[top] = reduce(xor, (1 << i for i in range(top) if delta0 >> i & 1), 0)
        assert not _gray_sweep(steps), (mj, delta0)
        assert not lcd._no_xor_vanishes(steps), (mj, delta0)
        seen.add("low" if delta0 >> h == 0 else "high" if delta0 & ((1 << h) - 1) == 0 else "across")
    assert seen == ({"low", "high", "across"} if mj > 1 else {"high"})  # at mj = 1 the low half is empty
    assert _gray_sweep([1 << i for i in range(mj)])
    assert lcd._no_xor_vanishes([1 << i for i in range(mj)])


def test_trivial_ideals_are_lcd():
    # no rank criterion covers j = 0 or j = L: the hull alone decides
    ctx = new_context(M3, 4)
    assert lcd_verdict(code(ctx, 0)) == (0, True, 0, ("oracle",))
    assert lcd_verdict(code(ctx, 4)) == (4, True, 0, ("oracle",))
    wide = new_context(M3, 90)  # C_0 has k = n = 270: the oracle has no bound on k
    assert lcd_verdict(code(wide, 0)) == (0, True, 0, ("oracle",))


def test_head_criterion_matches_oracle_on_small_rings():
    for deg in (2, 3, 4):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if not is_irreducible(f):
                continue
            for L in range(2, 30 // deg + 1):
                ctx = new_context(f, L)
                for j in range(1, (1 << (ctx.T - 1)) + 1):
                    c = code(ctx, j)
                    hull = _hull(c)
                    assert is_lcd_head_criterion(c.ctx, c.j, _W(c), hull) == (hull == 0), (f, L, j)


def test_tail_criterion_matches_oracle_on_small_rings():
    for deg in (2, 3, 4):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if not is_irreducible(f):
                continue
            for L in range(2, 36 // deg + 1):
                ctx = new_context(f, L)
                for j in range((1 << (ctx.T - 1)) + 1, L):
                    c = code(ctx, j)
                    hull = _hull(c)
                    assert is_lcd_tail_criterion(c.ctx, c.j, _W(c), hull) == (hull == 0), (f, L, j)


def test_a_criterion_given_the_hull_checks_its_kernel_dimension_as_an_integer():
    # the published-as-LCD ring with a 10-dimensional hull: 9 and 10 are both "not LCD"
    c = code(new_context(parse("x^11+x^10+x^5+x^4+1"), 8), 1)
    assert is_lcd_head_criterion(c.ctx, c.j, _W(c), 10) is False
    with pytest.raises(InternalConsistencyError, match="kernel has dimension 10, the hull 9"):
        is_lcd_head_criterion(c.ctx, c.j, _W(c), 9)


def test_criteria_regime_boundaries():
    ctx = new_context(M3, 8)  # T = 3, boundary at j = 4
    c4, c5 = code(ctx, 4), code(ctx, 5)
    assert isinstance(is_lcd_head_criterion(ctx, 4, _W(c4), _hull(c4)), bool)
    with pytest.raises(ValidationError, match=re.escape("the head rank criterion covers 1 <= j <= 2^(T-1)")):
        is_lcd_head_criterion(ctx, 5, _W(c5), _hull(c5))
    with pytest.raises(ValidationError, match=re.escape("the tail rank criterion covers 2^(T-1) < j < L")):
        is_lcd_tail_criterion(ctx, 4, _W(c4), _hull(c4))
    assert isinstance(is_lcd_tail_criterion(ctx, 5, _W(c5), _hull(c5)), bool)


def test_lcd_families_hold():
    # C_(2^r) for r < T, C_(2^T - 2^(T-r)) for 2 <= r <= T, and C_3 for T >= 3
    for v in (0, 1):
        for T in (1, 2, 3, 4):
            ctx = new_context(family_poly(v), 1 << T)
            js = [1 << r for r in range(T)] + [(1 << T) - (1 << (T - r)) for r in range(2, T + 1)]
            js += [3] if T >= 3 else []
            for j in js:
                verdict = lcd_verdict(code(ctx, j))
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


def test_conjecture_scan_refuses_an_over_budget_ring_before_the_first_hull(monkeypatch):
    # v = 0, T = 13: P^0..P^8192 over x^2+x+1 is past the budget; the twelve smaller rings are never scanned
    def unreachable(c):
        raise AssertionError("a hull was measured before every ring was set up")

    monkeypatch.setattr(lcd, "hull_dimension_oracle", unreachable)
    with pytest.raises(CapExceeded, match="budget"):
        conjecture_scan(0, 13, dim_cap=16384)


def _irreducible_rings(degrees, n_max):
    for deg in degrees:
        for P in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if is_irreducible(P):
                for L in range(2, n_max // deg + 1):
                    yield new_context(P, L)


def test_lcd_chain_equals_lcd_verdict_code_by_code():
    # x^3+x+1 at L = 100 has codes with k up to 300
    rings = [*_irreducible_rings(range(2, 7), 60), new_context(M3, 100)]
    for ctx in rings:
        want = [lcd_verdict(c) for c in chain(ctx, 0, ctx.L + 1)]
        assert all(v.methods[0] == "oracle" for v in want)
        assert lcd_chain(ctx) == want, (ctx.P, ctx.L)


@pytest.mark.parametrize(("poly", "L"), [("x^2+x+1", 150), ("x^3+x+1", 100), ("x^5+x^2+1", 60), ("x^4+x^3+1", 130)])
def test_past_k_256_the_hull_equals_the_gram_elimination(poly, L):
    # codes with k just above 256, past the reach of the exhaustive differential test below
    ctx = new_context(parse(poly), L)
    verdicts = lcd_chain(ctx)
    for c in chain(ctx, 0, ctx.L + 1):
        v = verdicts[c.j]
        assert v.methods[0] == "oracle", (poly, L, c.j)
        if 256 < c.k <= 256 + 4 * ctx.m:
            assert v.hull_dim == _gram_hull(c) and v == lcd_verdict(c), (poly, L, c.j)


def test_berlekamp_massey_hull_equals_the_gram_elimination():
    # every code with k > 0 (j < L) of every irreducible P of degree 2-7 with n <= 96
    codes = 0
    for ctx in _irreducible_rings(range(2, 8), 96):
        for c in chain(ctx, 0, ctx.L):
            assert _hull(c) == _gram_hull(c), (ctx.P, ctx.L, c.j)
            codes += 1
    assert codes == 7095


def _lfsr_bits(rng: random.Random, ell: int, N: int) -> int:
    """N bits of a random recurrence of length ell: s_i, i >= ell, is the parity of taps & (s_(i-ell) .. s_(i-1))."""
    if ell == 0:
        return 0
    taps, s = rng.getrandbits(ell), rng.getrandbits(ell)
    for i in range(ell, N):
        s |= (bin(taps & (s >> (i - ell))).count("1") & 1) << i
    return s & ((1 << N) - 1)


def test_hankel_rank_is_read_off_the_linear_complexity():
    # a k x k Hankel matrix H[a][b] = s_(a+b) over 2k - 1 entries of linear complexity l has rank
    # l if l <= k and 2k - l otherwise: random, recurrent and sparse sequences, by elimination
    rng = random.Random(36)
    seen = set()
    for trial in range(21000):
        k = rng.randrange(1, 40)
        N = 2 * k - 1
        kind = trial % 3
        if kind == 0:
            s = rng.getrandbits(N)
        elif kind == 1:
            s = _lfsr_bits(rng, rng.randrange(0, k + 3), N)
        else:
            s = rng.getrandbits(N) & rng.getrandbits(N) & rng.getrandbits(N)
        ell = _linear_complexity(s, N)
        want = rank([(s >> a) & ((1 << k) - 1) for a in range(k)])
        assert (ell if ell <= k else 2 * k - ell) == want, (s, k)
        seen.add((ell <= k, ell == 0))
    assert seen == {(True, True), (True, False), (False, False)}


def test_an_off_palindrome_gram_band_raises():
    # the band of a true q = g * g_star reads the same both ways; one flipped coefficient inside it does not
    c = code(new_context(M3, 8), 3)  # m*j = 9, k = 15: the band is bits 0..23 of q
    q = _hull_word(c)
    assert hull_dimension_oracle(c, q) == _gram_hull(c)
    for bit in (0, 5, 20, 23):
        with pytest.raises(InternalConsistencyError, match="not a palindrome at j=3"):
            hull_dimension_oracle(c, q ^ (1 << bit))


@pytest.mark.parametrize(("v_max", "t_max"), [(1, 5), (0, 7)])
def test_conjecture_scan_rows_equal_the_per_code_oracle(v_max, t_max):
    want = []
    for v in range(v_max + 1):
        for T in range(1, t_max + 1):
            ctx = new_context(family_poly(v), 1 << T)
            for j in range(1, ctx.L):
                c = code(ctx, j)
                hull = _hull(c)
                want.append({"v": v, "T": T, "j": j, "n": ctx.n, "k": c.k, "is_lcd": hull == 0, "hull_dim": hull})
    assert conjecture_scan(v_max, t_max) == want


@pytest.mark.parametrize(("poly", "L"), [("x^2+x+1", 9), ("x^4+x+1", 16), ("x^5+x^4+x^3+x^2+1", 7)])
def test_lcd_chain_steps_its_words_as_mul_trunc_does(monkeypatch, poly, L):
    # the words the two walks hand on, by products with P * P_star: q_j to each hull on the walk up,
    # and W_j to each criterion (0 < j < L) on the walk down
    ctx = new_context(parse(poly), L)
    got = []
    real_hull = lcd.hull_dimension_oracle

    def hull_spy(c, q):
        got.append(("q", c.j, q))
        return real_hull(c, q)

    def criterion_spy(real):
        def spy(ctx, j, W, hull):
            got.append(("W", j, W))
            return real(ctx, j, W, hull)

        return spy

    monkeypatch.setattr(lcd, "hull_dimension_oracle", hull_spy)
    monkeypatch.setattr(lcd, "is_lcd_head_criterion", criterion_spy(lcd.is_lcd_head_criterion))
    monkeypatch.setattr(lcd, "is_lcd_tail_criterion", criterion_spy(lcd.is_lcd_tail_criterion))
    lcd_chain(ctx)
    step, n = mul(ctx.P, reciprocal(ctx.P)), ctx.n
    q, W = [1], [inverse_trunc(power_trunc(step, L - 1, n), n)]
    for _ in range(L):
        q.append(mul_trunc(q[-1], step, n))
    for _ in range(L - 1):
        W.append(mul_trunc(W[-1], step, n))
    W = W[::-1]
    assert W[0] == 1
    assert got == [("q", j, q[j]) for j in range(L + 1)] + [("W", j, W[j]) for j in range(L - 1, 0, -1)]


def test_lcd_chain_holds_o_n_bits():
    # x^2+x+1 at L = 1024, n = 2048: past the verdicts it returns, the walks hold the L+1 hulls, one
    # generator and the words q and W (about 10 KB).  The generators P^0..P^L alone take
    # m*L*(L+1)/2 bits and the words W_1..W_L m*L^2 more, about 390 KB together
    ctx = new_context(parse("x^2+x+1"), 1024)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        verdicts = lcd_chain(ctx)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(verdicts) == 1025
    assert peak - kept < 100_000, peak - kept


def test_a_corrupted_step_misses_the_built_q(monkeypatch, capsys):
    # a flipped middle coefficient x^m of the step word P * P_star, the only product lcd takes with mul
    # itself: the step stays self-reciprocal, so every q_j's Gram band still reads the same both ways and
    # each hull is taken; the walk up's check at j = L-1 trips before any criterion runs
    monkeypatch.setattr(lcd, "mul", lambda a, b: mul(a, b) ^ 1 << degree(a))
    with pytest.raises(InternalConsistencyError, match=re.escape("q_(L-1) stepped up the chain")):
        lcd_chain(new_context(parse("x^4+x+1"), 16))
    assert main(["lcd", "--poly", "x^4+x+1", "--power", "16"]) == 3
    assert "q_(L-1)" in capsys.readouterr().err


def test_a_wrong_top_w_misses_w0_and_lcd_exits_3(monkeypatch, capsys):
    # a flipped bit in the one inverse W_(L-1); each step by the unit P * P_star keeps the walk down off
    # the true words, so with the criteria, which would catch it first, out of the way it misses W_0 = 1
    real = lcd.inverse_trunc
    monkeypatch.setattr(lcd, "inverse_trunc", lambda a, n: real(a, n) ^ 0b100)
    monkeypatch.setattr(lcd, "is_lcd_head_criterion", lambda ctx, j, W, hull: hull == 0)
    monkeypatch.setattr(lcd, "is_lcd_tail_criterion", lambda ctx, j, W, hull: hull == 0)
    with pytest.raises(InternalConsistencyError, match="misses W_0 = 1"):
        lcd_chain(new_context(parse("x^4+x+1"), 16))
    assert main(["lcd", "--poly", "x^4+x+1", "--power", "16", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "misses W_0 = 1" in captured.err
