"""Hull dimensions and LCD verdicts: criteria against the oracle, families, scan."""

from __future__ import annotations

import random
import re
from functools import reduce
from itertools import islice
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode import lcd
from polycode._linalg import column_kernel, gray_walk, nullspace, parity_dot, rank
from polycode.cli import main
from polycode.codes import chain, code, generator_rows
from polycode.duality import dual_code
from polycode.errors import CapExceeded, InternalConsistencyError, ValidationError
from polycode.gf2poly import inverse_trunc, is_irreducible, mul, mul_trunc, parse, power_trunc, reciprocal
from polycode.lcd import (
    _hull_by_reconstruction,
    _reconstruction_dim,
    _toeplitz_gram,
    conjecture_scan,
    family_poly,
    hull_dimension_oracle,
    is_lcd_head_criterion,
    is_lcd_tail_criterion,
    lcd_chain,
    lcd_verdict,
)
from polycode.ring import new_context

M3 = parse("x^3+x+1")


def test_three_way_agreement_m3L8():
    ctx = new_context(M3, 8)
    c = code(ctx, 1)
    # the Gram rank, the Euclid on q and the head criterion's Euclid on W each find no hull
    assert hull_dimension_oracle(c) == _hull_by_reconstruction(c) == 0
    assert is_lcd_head_criterion(c)
    assert lcd_verdict(c) == (1, True, 0, ("oracle", "head-criterion"))


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
                P_inv, P_star_inv = inverse_trunc(P, n), inverse_trunc(reciprocal(P), n)
                PP_star_inv = inverse_trunc(mul(P, reciprocal(P)), n)
                for j in range(1, L):
                    c = code(ctx, j)
                    k, mj = c.k, deg * j
                    W = power_trunc(PP_star_inv, j, n)
                    want = _reconstruction_dim(W, n, mj)
                    assert want == hull_dimension_oracle(c), (P, L, j)
                    assert _top_block_kernel_dim(W, n, mj) == want, (P, L, j)
                    if 2 * j >= 1 << T:
                        A = power_trunc(P, 2 * j - (1 << T), n)
                        Q = mul_trunc(power_trunc(P_inv, (1 << T) - j, n), power_trunc(P_star_inv, j, n), n)
                        cols = [mul_trunc(A, 1 << i, n) for i in range(k)] + [mul_trunc(Q, 1 << i, n) for i in range(mj)]
                        assert len(column_kernel(cols)) == want, (P, L, j)


def _gray_sweep(steps):
    """The criterion's sweep: whether the Gray-code walk over the steps meets no zero past its start."""
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
    # no rank criterion covers j = 0 or j = L: the hull alone decides
    ctx = new_context(M3, 4)
    assert lcd_verdict(code(ctx, 0)) == (0, True, 0, ("oracle",))
    assert lcd_verdict(code(ctx, 4)) == (4, True, 0, ("oracle",))
    wide = new_context(M3, 90)  # C_0 has k = n = 270 > GRAM_MAX_K
    assert lcd_verdict(code(wide, 0)) == (0, True, 0, ("hull-euclid",))


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


def test_a_criterion_given_the_hull_checks_its_kernel_dimension_as_an_integer():
    # the published-as-LCD ring with a 10-dimensional hull: 9 and 10 are both "not LCD"
    c = code(new_context(parse("x^11+x^10+x^5+x^4+1"), 8), 1)
    assert is_lcd_head_criterion(c, None, 10) is False
    with pytest.raises(InternalConsistencyError, match="kernel has dimension 10, the hull 9"):
        is_lcd_head_criterion(c, None, 9)


def test_criteria_regime_boundaries():
    ctx = new_context(M3, 8)  # T = 3, boundary at j = 4
    assert isinstance(is_lcd_head_criterion(code(ctx, 4)), bool)
    with pytest.raises(ValidationError, match=re.escape("the head rank criterion covers 1 <= j <= 2^(T-1)")):
        is_lcd_head_criterion(code(ctx, 5))
    with pytest.raises(ValidationError, match=re.escape("the tail rank criterion covers 2^(T-1) < j < L")):
        is_lcd_tail_criterion(code(ctx, 4))
    assert isinstance(is_lcd_tail_criterion(code(ctx, 5)), bool)


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


# GRAM_MAX_K set by the routes it leaves on rings with n <= 64: some codes of a chain on
# each side of the bound, the Gram oracle on every code, or on none (the hull Euclid and
# the paper's rank criteria alone, as above the bound)
_GRAM_BOUNDS = {"all": 24, "oracle": 10**9, "theorem": -1}


@pytest.mark.parametrize("routes", ["all", "oracle", "theorem"])
def test_lcd_chain_equals_lcd_verdict_code_by_code(monkeypatch, routes):
    bound = _GRAM_BOUNDS[routes]
    monkeypatch.setattr(lcd, "GRAM_MAX_K", bound)
    for ctx in _irreducible_rings(range(2, 7), 60):
        codes = list(chain(ctx, 0, ctx.L + 1))
        want = [lcd_verdict(c) for c in codes]
        assert [v.methods[0] for v in want] == ["oracle" if c.k <= bound else "hull-euclid" for c in codes]
        assert lcd_chain(ctx) == want, (ctx.P, ctx.L)


@pytest.mark.parametrize(("poly", "L"), [("x^2+x+1", 150), ("x^3+x+1", 100), ("x^5+x^2+1", 60), ("x^4+x^3+1", 130)])
def test_above_the_gram_bound_the_hull_is_the_euclids_and_equals_the_oracle(poly, L):
    # codes with k just above GRAM_MAX_K skip the Gram rank; the oracle, called here, still measures it
    ctx = new_context(parse(poly), L)
    verdicts = lcd_chain(ctx)
    for c in chain(ctx, 0, ctx.L + 1):
        if lcd.GRAM_MAX_K < c.k <= lcd.GRAM_MAX_K + 4 * ctx.m:
            v = verdicts[c.j]
            assert v.hull_dim == hull_dimension_oracle(c), (poly, L, c.j)
            assert v.methods[0] == "hull-euclid" and v == lcd_verdict(c), (poly, L, c.j)
        elif c.k <= lcd.GRAM_MAX_K:
            assert verdicts[c.j].methods[0] == "oracle", (poly, L, c.j)


@pytest.mark.parametrize(("v_max", "t_max"), [(1, 5), (0, 7)])
def test_conjecture_scan_rows_equal_the_per_code_oracle(v_max, t_max):
    want = []
    for v in range(v_max + 1):
        for T in range(1, t_max + 1):
            ctx = new_context(family_poly(v), 1 << T)
            for j in range(1, ctx.L):
                c = code(ctx, j)
                hull = hull_dimension_oracle(c)
                want.append({"v": v, "T": T, "j": j, "n": ctx.n, "k": c.k, "is_lcd": hull == 0, "hull_dim": hull})
    assert conjecture_scan(v_max, t_max) == want


def _corrupt_step(monkeypatch):
    """Flip one coefficient of the step word P * P_star, the only product lcd takes with mul itself."""
    monkeypatch.setattr(lcd, "mul", lambda a, b: mul(a, b) ^ 0b10)


@pytest.mark.parametrize("routes", ["all", "theorem"])
def test_a_corrupted_step_misses_w0_and_lcd_exits_3(monkeypatch, capsys, routes):
    monkeypatch.setattr(lcd, "GRAM_MAX_K", _GRAM_BOUNDS[routes])
    _corrupt_step(monkeypatch)
    with pytest.raises(InternalConsistencyError, match="misses W_0 = 1"):
        lcd_chain(new_context(parse("x^4+x+1"), 16))
    assert main(["lcd", "--poly", "x^4+x+1", "--power", "16", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "misses W_0 = 1" in captured.err


def test_a_corrupted_step_misses_the_built_q(monkeypatch, capsys):
    _corrupt_step(monkeypatch)
    # the walk down starts from the corrupted chain's own top, so it lands on W_0 = 1; with
    # the per-code checks out of the way, only the walk up's check at j = L-1 is left
    real, P = lcd.inverse_trunc, parse("x^4+x+1")
    bad_step = mul(P, reciprocal(P)) ^ 0b10
    monkeypatch.setattr(lcd, "inverse_trunc", lambda a, n: real(power_trunc(bad_step, 15, n), n))
    monkeypatch.setattr(lcd, "_verdict", lambda c, q, W: None)
    with pytest.raises(InternalConsistencyError, match=re.escape("q_(L-1) stepped up the chain")):
        lcd_chain(new_context(parse("x^4+x+1"), 16))
    assert main(["lcd", "--poly", "x^4+x+1", "--power", "16"]) == 3
    assert "q_(L-1)" in capsys.readouterr().err
