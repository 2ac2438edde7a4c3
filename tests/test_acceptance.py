"""End-to-end gate: every headline behavior, one test each, with time budgets."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

from polycode.codes import code, contains, is_reversible
from polycode.distance import full_distance_profile, min_distance_bruteforce
from polycode.duality import dual_code, dual_min_distance_bruteforce, sequential_closure_check
from polycode._linalg import parity_dot
from polycode.codes import generator_rows
from polycode.fixtures import run_fixture
from polycode.gf2poly import div_rem, format_poly, is_irreducible, mul, parse, power
from polycode.lcd import conjecture_scan, lcd_verdict
from polycode.ring import new_context
from polycode.trinomial_family import (
    expansion_pow_2r_minus_1,
    family_context,
    family_distance_profile,
    family_dual_d1,
    family_poly,
    weight_formulas,
)
from polycode.gf2poly import mul, weight


def _assert_fixture(key: str) -> None:
    result = run_fixture(key)
    bad = [row for row in result.rows if not row.ok]
    assert not bad, [f"{row.label}: expected {row.expected}, got {row.got}" for row in bad]


def test_head_zone_patterns_for_six_small_rings_under_5s():
    start = time.perf_counter()
    _assert_fixture("head-survey")
    assert time.perf_counter() - start < 5.0


def test_m4_chain_of_16_structural_profile_under_5s_then_oracle_resolution():
    ctx = new_context(parse("x^4+x+1"), 16)
    start = time.perf_counter()
    profile = full_distance_profile(ctx, oracle_cap=0)
    assert time.perf_counter() - start < 5.0
    exact = {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3,
             12: 8, 13: 16, 14: 16, 15: 33, 16: 64}
    for j, d in exact.items():
        assert profile[j].exact and profile[j].lower == d
    for j in (9, 10, 11):
        rep = profile[j]
        assert not rep.exact and rep.lower == 6 and rep.upper <= 8
    resolved = full_distance_profile(ctx, oracle_cap=28)
    assert [resolved[j].lower for j in (9, 10, 11)] == [6, 6, 8]
    assert all(resolved[j].exact for j in (9, 10, 11))


def test_three_worked_chains_reproduce_under_30s():
    start = time.perf_counter()
    _assert_fixture("profile-m5L5")
    _assert_fixture("profile-m5L12")
    _assert_fixture("profile-m6L25")
    # the L = 25 chain's last proper ideal closes from a single weight-15 candidate
    ctx = new_context(parse("x^6+x^5+x^3+x^2+1"), 25)
    profile = full_distance_profile(ctx, oracle_cap=0)
    assert profile[24].exact and profile[24].lower == 15
    assert time.perf_counter() - start < 30.0


def test_anchor_candidate_weight_tables_bit_exact():
    _assert_fixture("anchor-weights-m4L16")
    _assert_fixture("anchor-weights-m6L25")
    # headline single values
    P = parse("x^4+x+1")
    assert weight(power(P, 3)) == 9
    assert weight(power(P, 7)) == 17
    assert weight(power(P, 15)) == 33


def test_dual_distances_by_reduced_sets_and_oracle():
    _assert_fixture("dual-distances-m3L9")
    _assert_fixture("dual-weights-m3L9")
    ctx = new_context(parse("x^3+x+1"), 9)
    for j in range(1, 9):  # every dual dimension here is <= 24
        dual = dual_code(code(ctx, j))
        assert dual.dim <= 24
        dual_min_distance_bruteforce(dual, cap=24)


def test_lcd_verdict_three_ways_on_the_worked_example():
    _assert_fixture("lcd-m3L8")


# --- exhaustive oracle agreement over every small ring -------------------------


def _sweep_ring(args: tuple[int, int]) -> list[str]:
    poly, L = args
    ctx = new_context(poly, L)
    profile = full_distance_profile(ctx, oracle_cap=0)
    problems: list[str] = []
    for j in range(1, L):
        d = min_distance_bruteforce(code(ctx, j), cap=30)
        rep = profile[j]
        if not rep.lower <= d <= rep.upper:
            problems.append(
                f"{format_poly(poly)} L={L} j={j}: oracle {d} outside [{rep.lower}, {rep.upper}]"
            )
        elif rep.exact and d != rep.lower:
            problems.append(
                f"{format_poly(poly)} L={L} j={j}: claimed exact {rep.lower}, oracle {d}"
            )
    return problems


def test_structural_bounds_agree_with_brute_force_everywhere_under_10min():
    start = time.perf_counter()
    jobs = []
    for deg in (2, 3, 4, 5):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if is_irreducible(f):
                jobs.extend((f, L) for L in range(2, 30 // deg + 1))
    assert len(jobs) == 80
    workers = min(8, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        problems = [p for chunk in pool.map(_sweep_ring, jobs) for p in chunk]
    assert problems == []
    assert time.perf_counter() - start < 600.0


def test_trinomial_closed_forms_match_generic_machinery_and_oracle():
    for s in (1, 3, 9):
        P = (1 << (2 * s)) | (1 << s) | 1
        for r in range(2, 7):
            assert expansion_pow_2r_minus_1(s, r) == power(P, (1 << r) - 1)
    for v in (0, 1, 2):
        s = 3**v
        for r in range(1, 11):
            w_plain, w_shifted = weight_formulas(v, r)
            exp = expansion_pow_2r_minus_1(s, r)
            assert weight(exp) == w_plain
            assert weight(mul((1 << s) | 1, exp)) == w_shifted
    # closed-form chain profiles against brute force on the rings small enough for it
    for v, T in ((0, 1), (0, 2), (0, 3), (1, 1), (1, 2)):
        L = 1 << T
        profile = family_distance_profile(v, L)
        ctx = family_context(v, L)
        for j in range(1, L):
            d = min_distance_bruteforce(code(ctx, j), cap=28)
            assert profile[j].lower <= d <= profile[j].upper, (v, T, j)
            if profile[j].exact:
                assert d == profile[j].lower, (v, T, j)
        want = family_dual_d1(v, T)
        assert dual_min_distance_bruteforce(dual_code(code(ctx, 1)), cap=24) == want


def test_lcd_families_and_scan_have_no_counterexamples():
    # C_(2^r) for r < T, C_(2^T - 2^(T-r)) for 2 <= r <= T, and C_3 for T >= 3
    for v in (0, 1):
        for T in (1, 2, 3, 4):
            ctx = family_context(v, 1 << T)
            js = [1 << r for r in range(T)] + [(1 << T) - (1 << (T - r)) for r in range(2, T + 1)]
            js += [3] if T >= 3 else []
            for j in js:
                assert lcd_verdict(code(ctx, j), "all").is_lcd, (v, T, j)
    rows = conjecture_scan(0, 3)
    assert rows and all(row["hull_dim"] == 0 for row in rows)


def _valuation(ctx, w):
    """Reference P-adic valuation of a ring word by repeated division, capped at L (the zero word)."""
    v = 0
    while v < ctx.L:
        q, r = div_rem(w, ctx.P)
        if r:
            break
        w, v = q, v + 1
    return v


def test_structural_property_suite():
    # exhaustive ideal lattice for every ring with at most 16 bits
    for deg in (2, 3, 4, 5):
        for f in range((1 << deg) | 1, 1 << (deg + 1), 2):
            if not is_irreducible(f):
                continue
            for L in range(2, 16 // deg + 1):
                ctx = new_context(f, L)
                by_valuation = {j: set() for j in range(L + 1)}
                for w in range(1 << ctx.n):
                    for j in range(_valuation(ctx, w) + 1):
                        by_valuation[j].add(w)
                for j in range(L + 1):
                    c = code(ctx, j)
                    assert {mul(a, c.generator) for a in range(1 << c.k)} == by_valuation[j]

    # dual pairing, dimension complement, closure of dual rows
    for poly_text, L in (("x^2+x+1", 6), ("x^3+x+1", 5), ("x^4+x+1", 4), ("x^5+x^2+1", 3)):
        ctx = new_context(parse(poly_text), L)
        for j in range(1, L):
            c = code(ctx, j)
            dual = dual_code(c)
            assert c.k + dual.dim == ctx.n
            for g in generator_rows(c):
                assert all(parity_dot(g, h) == 0 for h in dual.rows)
            assert sequential_closure_check(dual, samples=10, seed=1)

    # reversibility across the trinomial family, and shift closure everywhere
    for v, L in ((0, 5), (1, 3), (2, 2)):
        ctx = family_context(v, L)
        assert ctx.P == family_poly(v)
        for j in range(L + 1):
            assert is_reversible(code(ctx, j))
    for poly_text, L in (("x^3+x+1", 4), ("x^5+x^2+1", 3)):
        ctx = new_context(parse(poly_text), L)
        for j in range(L):
            c = code(ctx, j)
            for row in generator_rows(c):
                assert contains(c, div_rem(row << 1, ctx.P_pows[L])[1])  # x * row in the ring


def test_published_survey_parameters_reproduce():
    _assert_fixture("dual-survey")
    _assert_fixture("lcd-survey")
