"""Distance machinery: brute force, structural bounds, fused profiles."""

from __future__ import annotations

import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycode.codes import DEFAULT_CANDIDATE_CAP, chain, code
from polycode.distance import (
    DistanceReport,
    full_distance_profile,
    lower_anchor_distance,
    min_distance_bruteforce,
    monotone_fuse,
    single_distance_report,
    small_weight,
    upper_anchor_distance,
)
from polycode import codes, distance
from polycode.errors import CapExceeded, InternalConsistencyError, ValidationError
from polycode.gf2poly import degree, is_irreducible, order, parse
from polycode.ring import new_context
from test_interleave import _spy_searches
from test_ring import _old_regime

M4 = parse("x^4+x+1")
M5 = parse("x^5+x^4+x^2+x+1")
IRREDUCIBLE_2_TO_6 = [f for f in range(4, 128) if is_irreducible(f)]
SMALL_WEIGHT_TAGS = {"weight-2", "weight-3", "no-weight-3"}


def _rings_up_to_60():
    for P in IRREDUCIBLE_2_TO_6:
        for L in range(2, 60 // degree(P) + 1):
            yield new_context(P, L)


def head_zone_split(ctx):
    """The paper's d = 2 theorem: the smallest J with e * 2^(T-J) < n, or None when e >= n.

    e is the order of x mod P, needed only below n.  d(C_j) = 2 exactly for
    j <= 2^(T-J): the weight-2 words are x^N + 1, N a multiple of e * 2^ceil(log2 j).
    """
    e = order(ctx.P, ctx.n)
    if e >= ctx.n:
        return None
    return next(J for J in range(1, ctx.T + 1) if e << (ctx.T - J) < ctx.n)


def test_report_bound_updates_guard_against_contradiction():
    rep = DistanceReport(j=1, lower=2, upper=10)
    rep.raise_lower(4, "a")
    rep.cut_upper(6, "b")
    assert (rep.lower, rep.upper, rep.exact) == (4, 6, False)
    with pytest.raises(InternalConsistencyError):
        rep.raise_lower(7, "c")
    with pytest.raises(InternalConsistencyError):
        rep.cut_upper(3, "c")


def test_report_json_keys():
    rep = DistanceReport(j=3, lower=5, upper=5)
    rep.provenance = ["x"]
    assert set(rep.to_json_dict()) == {"j", "lower", "upper", "exact", "provenance"}
    assert rep.to_json_dict()["exact"] is True


def test_bruteforce_basics():
    ctx = new_context(M4, 2)
    assert min_distance_bruteforce(code(ctx, 1)) == 3
    with pytest.raises(ValidationError):
        min_distance_bruteforce(code(ctx, 2))
    with pytest.raises(CapExceeded):
        min_distance_bruteforce(code(ctx, 0), cap=4)


def test_oracle_refusal_names_the_dimension_and_the_cap():
    # the information-set search walks nothing like 2^k words: the refusal names the dimension it counts
    with pytest.raises(CapExceeded, match=r"^distance oracle: dimension 60 is over the oracle cap of 28; raise the cap$"):
        min_distance_bruteforce(code(new_context(M4, 16), 1))


def test_head_zone_split_values():
    assert head_zone_split(new_context(M4, 16)) == 2  # 15*4 = 60 < 64
    assert head_zone_split(new_context(M5, 5)) is None  # order 31 >= 25
    assert head_zone_split(new_context(parse("x^3+x+1"), 9)) == 3  # 7*2 = 14 < 27, 7*4 = 28 is not


def test_head_zone_reports_m4L16():
    # the paper's head zone j <= 2^(T-1) = 8 at oracle cap 0: exact 2 up to 2^(T-J) = 4, then exact wt(P) = 3
    ctx = new_context(M4, 16)
    J = head_zone_split(ctx)
    profile = full_distance_profile(ctx, oracle_cap=0)
    for j in range(1, 9):
        d = 2 if j <= 1 << (ctx.T - J) else 3
        assert (profile[j].lower, profile[j].upper) == (d, d), profile[j]


def test_anchor_distances_m4L16():
    ctx = new_context(M4, 16)
    assert lower_anchor_distance(ctx, 1) == 3  # j = 8
    assert lower_anchor_distance(ctx, 2) == 2  # j = 4
    assert upper_anchor_distance(ctx, 2) == 8  # j = 12
    assert upper_anchor_distance(ctx, 3) == 16  # j = 14
    assert upper_anchor_distance(ctx, 4) == 33  # j = 15


def test_plateau_and_tail_bounds(monkeypatch):
    # plateau: 2*d(anchor r) <= d <= d(anchor r+1); tail: 2*d(last anchor) from below
    ctx = new_context(M4, 16)
    profile = full_distance_profile(ctx, oracle_cap=0)
    assert profile[9].lower == 6 and profile[9].upper <= 8  # j = 9, between tops 8 and 12
    # with every reduced set refused, the kernel's min(d, 4) = 3 at j = 8 is what the doubling reads
    with monkeypatch.context() as mp:
        mp.setattr(codes, "DEFAULT_CANDIDATE_CAP", 0)
        assert full_distance_profile(ctx, oracle_cap=0)[9].lower == 6
        assert single_distance_report(ctx, 9, oracle_cap=0).lower == 6
    low_ctx = new_context(M5, 12)
    assert low_ctx.tops == (8,)
    assert full_distance_profile(low_ctx, oracle_cap=0)[9].lower == 2 * lower_anchor_distance(low_ctx, 1) == 6
    with pytest.raises(ValidationError):
        upper_anchor_distance(low_ctx, 2)  # a "low" ring has only the r = 1 anchor


RINGS_BY_REGIME = {"low": (M5, 12), "high": (M4, 14), "pow2": (M4, 16)}


@pytest.mark.parametrize("regime", RINGS_BY_REGIME)
def test_upper_anchor_one_is_the_lower_anchor_one(regime):
    ctx = new_context(*RINGS_BY_REGIME[regime])
    assert _old_regime(ctx.L)[0] == regime and ctx.tops[0] == 1 << (ctx.T - 1)
    assert upper_anchor_distance(ctx, 1) == lower_anchor_distance(ctx, 1)


@pytest.mark.parametrize("regime", RINGS_BY_REGIME)
def test_profile_weighs_each_reduced_set_once(regime, monkeypatch):
    # at cap 0 only the anchors build cosets: each whose paper's set of 2^(lam-1) words is within the
    # candidate cap is weighed once, and a refused anchor builds none
    ctx = new_context(*RINGS_BY_REGIME[regime])
    weighed, cosets = [], []
    real_d0, real_coset = distance._d0_min, distance.lead_coset
    monkeypatch.setattr(distance, "_d0_min", lambda c, iv: weighed.append(c.j) or real_d0(c, iv))
    monkeypatch.setattr(distance, "lead_coset", lambda *args: cosets.append(args) or real_coset(*args))
    full_distance_profile(ctx, oracle_cap=0)
    anchors = {1 << (ctx.T - s) for s in range(1, ctx.T + 1)} | set(ctx.tops)
    answered = {j for j in anchors if 1 << (-(-(ctx.m * (ctx.L - j)) // (j & -j)) - 1) <= DEFAULT_CANDIDATE_CAP}
    assert sorted(weighed) == sorted(answered) and len(cosets) == len(weighed)
    assert 0 < len(answered) < len(anchors)


def test_full_profile_m4L16_matches_frozen_values():
    ctx = new_context(M4, 16)
    profile = full_distance_profile(ctx, oracle_cap=0)
    exact = {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3,
             12: 8, 13: 16, 14: 16, 15: 33, 16: 64}
    for j, d in exact.items():
        assert profile[j].exact and profile[j].lower == d, profile[j]
    for j in (9, 10, 11):
        assert not profile[j].exact
        assert profile[j].lower == 6 and profile[j].upper <= 8
    resolved = full_distance_profile(ctx, oracle_cap=28)
    assert [resolved[j].lower for j in (9, 10, 11)] == [6, 6, 8]
    assert all(resolved[j].exact for j in (9, 10, 11))
    assert all("oracle" in resolved[j].provenance for j in (9, 10, 11))


def test_full_profile_m5L5_closes_via_oracle():
    ctx = new_context(M5, 5)
    profile = full_distance_profile(ctx, oracle_cap=28)
    assert [profile[j].lower for j in range(6)] == [1, 3, 3, 4, 4, 25]
    assert all(rep.exact for rep in profile)


def test_monotone_fuse_enforces_chain_order():
    reports = [DistanceReport(j=0, lower=1, upper=1), DistanceReport(j=1, lower=4, upper=9),
               DistanceReport(j=2, lower=2, upper=6)]
    monotone_fuse(reports)
    assert reports[2].lower == 4  # pushed up by d_1
    assert reports[1].upper == 6  # pulled down by d_2
    assert "monotone" in reports[2].provenance


def test_the_single_j_report_is_the_whole_chain_answer():
    # j = 17 alone reads [6, 9]; the spread closes j = 18 at 6, and fusing it in gives the chain's 6
    ctx = new_context(parse("x^3+x+1"), 24)
    whole = full_distance_profile(ctx, oracle_cap=20)[17]
    one = single_distance_report(ctx, 17, oracle_cap=20)
    assert (one.lower, one.upper) == (whole.lower, whole.upper) == (6, 6)
    # j = 3 closes at 2 by monotonicity before the kernel runs, so neither flow tags weight-2 (an s = 1 and an s = 3 ring)
    for text in ("x^2+x+1", "x^6+x^3+1"):
        ctx = new_context(parse(text), 24)
        one = single_distance_report(ctx, 3)
        assert one.to_json_dict() == full_distance_profile(ctx)[3].to_json_dict()
        assert one.provenance == ["weight-witness", "monotone"]
    wider = [new_context(parse("x^6+x^3+1"), L) for L in range(11, 25)]  # L <= 10 is in _rings_up_to_60()
    for cap in (0, 20, 28):
        for rings, count in ((_rings_up_to_60(), 2443), (wider, 259)):
            slots = 0
            for ctx in rings:
                profile = full_distance_profile(ctx, oracle_cap=cap)
                for j in range(ctx.L + 1):
                    one = single_distance_report(ctx, j, oracle_cap=cap)
                    assert one.to_json_dict() == profile[j].to_json_dict(), (ctx.P, ctx.L, j, cap)
                    slots += 1
            assert slots == count
    # x^2+x+1, L = 8191: each side of the answered anchors 1 024, 4 096 and 6 144 and the chain's two ends,
    # where an off-by-one at either end of the window would show
    ctx = new_context(parse("x^2+x+1"), 8191)
    for cap in (0, 28):
        profile = full_distance_profile(ctx, oracle_cap=cap)
        for j in (0, 1, 1023, 1024, 1025, 4095, 4096, 4097, 6143, 6144, 6145, 8190, 8191):
            assert single_distance_report(ctx, j, oracle_cap=cap).to_json_dict() == profile[j].to_json_dict(), (j, cap)


def test_the_single_report_searches_out_to_the_nearest_exact_slots(monkeypatch):
    searched = []
    real = distance._search

    def recording(c, rep, ocap):
        searched.append(c.j)
        real(c, rep, ocap)

    monkeypatch.setattr(distance, "_search", recording)
    ctx = new_context(parse("x^8+x^6+x^5+x+1"), 5)  # j = 1 (k = 32) stays open past its search; j = 2 closes, then the kernel closes j at 3
    rep = single_distance_report(ctx, 1)
    assert (rep.lower, rep.upper) == (3, 3) and searched == [1, 2]
    searched.clear()
    ctx = new_context(parse("x^3+x+1"), 24)  # j = 17 stays [6, 9]; j = 18 closes by the spread, j = 16 is an anchor
    assert single_distance_report(ctx, 17, oracle_cap=20).exact and searched == [17, 18, 16]


def test_the_single_report_reads_the_chain_deep_in_a_long_ring():
    # x^2+x+1, L = 8191: j = 5000 alone reads [4, 5]; the walk closes it at 4 between the nearest exact slots
    ctx = new_context(parse("x^2+x+1"), 8191)
    rep = single_distance_report(ctx, 5000)
    assert (rep.lower, rep.upper) == (4, 4)


def test_the_single_report_builds_the_chain_only_between_the_nearest_answered_anchors(monkeypatch):
    # x^2+x+1, L = 8191: every D_0 below the anchor 1 024 is over the candidate cap, which a size test
    # tells, so j = 3 weighs 1 024 alone and walks P^1..P^1 024 (the whole chain walks P^1..P^8 190);
    # j = 5 000 lies between the answered anchors 4 096 and 6 144 and weighs those two alone, then the spread
    # weighs D_0 at the neighbours 5 120 and 4 864, where the searches stop on each side
    weighed, walks = [], []
    real_d0, real_chain = distance._d0_min, distance.chain
    monkeypatch.setattr(distance, "_d0_min", lambda c, iv: weighed.append(c.j) or real_d0(c, iv))
    monkeypatch.setattr(distance, "chain", lambda ctx, start, stop: walks.append((start, stop)) or real_chain(ctx, start, stop))
    ctx = new_context(parse("x^2+x+1"), 8191)
    assert single_distance_report(ctx, 3).exact
    assert weighed == [1024] and walks == [(1, 1025)]
    weighed.clear()
    walks.clear()
    assert single_distance_report(ctx, 5000).exact
    assert weighed == [4096, 6144, 5120, 4864] and walks == [(4096, 6145)]


def test_the_single_report_builds_a_neighbours_code_only_where_a_search_runs(monkeypatch):
    # x^2+x+1, L = 8191: at oracle cap 0 no search runs, so j = 5000 and j = 6000 build their own code
    # alone, for the kernel (905 and 1 905 codes while every neighbour out to the nearest exact slot
    # took one); at cap 28 the first neighbour on each side whose D_0 is within the cap closes j
    built, real = [], distance.code
    monkeypatch.setattr(distance, "code", lambda ctx, i: built.append(i) or real(ctx, i))
    ctx = new_context(parse("x^2+x+1"), 8191)
    for j in (5000, 6000):
        built.clear()
        rep = single_distance_report(ctx, j, oracle_cap=0)
        assert (rep.lower, rep.upper) == (4, 5) and built == [j]
    built.clear()
    rep = single_distance_report(ctx, 5000, oracle_cap=28)
    assert (rep.lower, rep.upper) == (4, 4) and built == [5000, 5120, 4864]


def test_profile_is_monotone_for_many_rings():
    for poly_text, L in (("x^2+x+1", 9), ("x^3+x+1", 7), ("x^4+x+1", 11), ("x^5+x^2+1", 6)):
        ctx = new_context(parse(poly_text), L)
        profile = full_distance_profile(ctx, oracle_cap=24)
        lows = [rep.lower for rep in profile]
        ups = [rep.upper for rep in profile]
        assert lows == sorted(lows)
        assert ups == sorted(ups)
        assert profile[0].lower == 1 and profile[L].lower == ctx.n


def test_candidate_cap_refuses_reduced_sets(monkeypatch):
    ctx = new_context(M4, 16)
    monkeypatch.setattr(codes, "DEFAULT_CANDIDATE_CAP", 2)
    with pytest.raises(CapExceeded):
        lower_anchor_distance(ctx, 4)  # j = 1 needs 2^(k-1) candidates


def test_the_fixed_cap_refuses_every_top_anchor_of_a_real_ring():
    # x^23+x^5+1, L = 8 (n = 184): each top j = 4, 6, 7 weighs 2^22 candidates, over the fixed cap of 2^20
    ctx = new_context(parse("x^23+x^5+1"), 8)
    assert ctx.tops == (4, 6, 7) and 1 << 22 > DEFAULT_CANDIDATE_CAP
    with pytest.raises(CapExceeded, match=r"2\^22 candidates"):
        lower_anchor_distance(ctx, 1)
    for r in (2, 3):
        with pytest.raises(CapExceeded):
            upper_anchor_distance(ctx, r)
    # the kernel, the doubling, the spread and the oracle answer the refused slots instead
    profile = full_distance_profile(ctx)
    got = {j: (profile[j].lower, profile[j].upper, profile[j].provenance[-1]) for j in (4, 5, 6, 7)}
    assert got == {4: (3, 3, "weight-3"), 5: (6, 9, "double-bound"), 6: (9, 9, "spread-t2"), 7: (27, 27, "oracle")}
    assert not any("reduced-set" in rep.provenance for rep in profile)
    for j in range(ctx.L + 1):
        assert single_distance_report(ctx, j).to_json_dict() == profile[j].to_json_dict(), j


def test_oracle_pass_tags_provenance():
    ctx = new_context(M5, 5)
    rep = single_distance_report(ctx, 3, oracle_cap=28)
    assert rep.exact and rep.lower == 4
    assert rep.provenance[-1] == "oracle"


def test_an_oracle_value_outside_the_interval_raises(monkeypatch):
    # n is over every upper bound the structure gives, so the search step must refuse it and name its source
    monkeypatch.setattr(distance, "min_distance_bruteforce", lambda c, cap: c.n)
    ctx = new_context(M5, 5)
    with pytest.raises(InternalConsistencyError, match=r"j=3: exact value 25 \(oracle\)"):
        single_distance_report(ctx, 3, oracle_cap=28)
    with pytest.raises(InternalConsistencyError, match=r"\(oracle\)"):
        full_distance_profile(ctx, oracle_cap=28)


# --- the small-weight kernel: min(d, 4) from the residues x^i mod P^j -------


def test_small_weight_matches_the_uncapped_oracle_on_every_code():
    # the kernel alone at every j, and the whole-chain search at caps 0 and 1, where no oracle closes a slot
    checked = 0
    for ctx in _rings_up_to_60():
        profiles = [full_distance_profile(ctx, oracle_cap=cap) for cap in (0, 1)]
        for c in chain(ctx, 1, ctx.L):
            d4 = min(min_distance_bruteforce(c, cap=c.k), 4)
            assert small_weight(c) == d4, (ctx.P, ctx.L, c.j)
            for profile in profiles:
                assert min(profile[c.j].lower, 4) == d4 and profile[c.j].upper >= d4, (ctx.P, ctx.L, c.j)
                if d4 < 4:
                    assert profile[c.j].exact, (ctx.P, ctx.L, c.j)
            checked += 1
    assert checked == 1931


def test_the_last_weight_2_index_is_the_head_zone_split():
    for ctx in _rings_up_to_60():
        J = head_zone_split(ctx)
        last = max((c.j for c in chain(ctx, 1, ctx.L) if small_weight(c) == 2), default=0)
        assert last == (0 if J is None else 1 << (ctx.T - J)), (ctx.P, ctx.L)


def test_weight_2_is_found_before_an_earlier_weight_3_word():
    # over x^2+x+1, 1 + x + x^2 is the first light word the residues show, but 1 + x^3 is lighter
    assert distance._light_word(0b111, 6) == 0b1001
    assert distance._light_word(0b111, 3) == 0b111  # no x^3 below n = 3
    assert distance._light_word(code(new_context(M5, 5), 3).generator, 25) is None  # d(C_3) = 4 there


def test_a_weight_3_word_is_found_through_a_low_residue():
    # r_b + 1 = x^a with a below D = deg P^j: the index holds x^a itself, so one lookup finds 1 + x^a + x^b
    assert distance._light_word(0b1011, 4) == 0b1011  # x^3 = 1 + x mod x^3+x+1: 1 + x + x^3 through x
    M = code(new_context(0b111, 5), 3).generator  # (x^2+x+1)^3, D = 6, weight 5
    assert distance._light_word(M, 10) == 1 | 1 << 4 | 1 << 8  # 1 + x^4 + x^8 through x^4


def test_the_whole_chain_walks_its_generators_once(monkeypatch):
    # no code() and no power of P per slot: the profile steps P^0..P^L once, and its one power is the walk's
    # start P^0, which costs no product; every D_0, at the anchors and in the spread, reads R off that walk
    monkeypatch.setattr(distance, "code", lambda *args: pytest.fail("the whole chain called code()"))
    powers, weighed = [], []
    real_power, real_d0 = codes.power, distance._d0_min
    monkeypatch.setattr(codes, "power", lambda a, e: powers.append((a, e)) or real_power(a, e))
    monkeypatch.setattr(distance, "_d0_min", lambda c, iv: weighed.append(c.j) or real_d0(c, iv))
    rings = 0
    for ctx in _rings_up_to_60():
        powers.clear()
        full_distance_profile(ctx)
        assert powers == [(ctx.P, 0)], (ctx.P, ctx.L)
        rings += 1
    assert rings == 256 and weighed


def test_the_profiles_weigh_their_anchors_in_the_walk(monkeypatch):
    # _anchor_min takes its own power of P and serves the entry points by anchor index alone: the whole chain
    # and analyze --j read each anchor's D_0 off the walk
    monkeypatch.setattr(distance, "_anchor_min", lambda *args: pytest.fail("a profile called _anchor_min"))
    for ctx in (new_context(M4, 16), new_context(M5, 12), new_context(parse("x^12+x^3+1"), 8)):
        for cap in (0, 28):
            profile = full_distance_profile(ctx, oracle_cap=cap)
            assert any("reduced-set" in rep.provenance for rep in profile)
            for j in range(ctx.L + 1):
                assert single_distance_report(ctx, j, oracle_cap=cap).to_json_dict() == profile[j].to_json_dict()


def test_analyze_j_holds_no_list_of_the_chains_generators():
    # x^2+x+1, L = 8191 (n = 16 382): P^0..P^L hold about 8 MB of words and their ints about 10 MB in all,
    # so a single slot's report, which streams the chain, stays far below that
    ctx = new_context(parse("x^2+x+1"), 8191)
    tracemalloc.start()
    try:
        rep = single_distance_report(ctx, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.lower, rep.upper) == (2, 2)
    assert peak < 4 << 20


@pytest.mark.parametrize("text,L,w", [("x^2+x+1", 4, 2), ("x^3+x+1", 2, 3)])
def test_a_witness_off_by_one_bit_raises(monkeypatch, text, L, w):
    # the top exponent moved up by one: never a codeword, and the division check must say so
    ctx = new_context(parse(text), L)
    assert small_weight(code(ctx, 1)) == w
    real = distance._light_word

    def off_by_one(M, nbits):
        word = real(M, nbits)
        top = 1 << word.bit_length() - 1
        return word ^ top ^ top << 1

    monkeypatch.setattr(distance, "_light_word", off_by_one)
    with pytest.raises(InternalConsistencyError, match=f"weight-{w} witness"):
        small_weight(code(ctx, 1))
    with pytest.raises(InternalConsistencyError, match="witness"):
        full_distance_profile(ctx)


def test_the_kernel_closes_a_slot_over_the_oracle_cap():
    ctx = new_context(parse("x^8+x^6+x^5+x+1"), 5)  # j = 1: k = 32, over the default cap of 28
    assert distance._structural_profile(ctx, 0, ctx.L, chain(ctx, 1, ctx.L))[1].upper == 4
    for cap in (0, 28):
        rep = single_distance_report(ctx, 1, oracle_cap=cap)
        assert (rep.lower, rep.upper) == (3, 3) and rep.provenance[-1] == "weight-3"
        assert full_distance_profile(ctx, oracle_cap=cap)[1].provenance[-1] == "weight-3"


def test_the_kernel_raises_the_lower_bound_to_4():
    ctx = new_context(parse("x^11+x^10+x^5+x^4+1"), 8)  # j = 1: [1, 5] from structure alone, d = 4
    assert distance._structural_profile(ctx, 0, ctx.L, chain(ctx, 1, ctx.L))[1].lower == 1
    for cap in (0, 28):
        rep = single_distance_report(ctx, 1, oracle_cap=cap)
        assert (rep.lower, rep.upper, rep.provenance[-1]) == (4, 5, "no-weight-3")


def test_the_kernel_checks_slots_that_are_already_exact(monkeypatch):
    # x^4+x+1, L = 16: j = 2, 4, 6, 8 are exact from the anchors and the spread, and j = 3, 7 by monotonicity
    ctx = new_context(M4, 16)
    probed = []
    real = distance.small_weight

    def recording(c):
        probed.append(c.j)
        return real(c)

    monkeypatch.setattr(distance, "small_weight", recording)
    profile = full_distance_profile(ctx)
    assert sorted(probed) == [4, 5, 8]  # at the edges the bounds give; j = 9 starts at 6, past the slots searched
    assert [profile[j].lower for j in range(1, 10)] == [2, 2, 2, 2, 3, 3, 3, 3, 6]
    assert [j for j in range(1, 9) if SMALL_WEIGHT_TAGS & set(profile[j].provenance)] == [1, 5]
    monkeypatch.setattr(distance, "_light_word", lambda M, n: None)  # a kernel that misses every light word
    with pytest.raises(InternalConsistencyError):
        full_distance_profile(ctx)


def test_the_kernel_runs_at_an_oracle_cap_of_zero(monkeypatch):
    # the oracle cap bounds the two searches alone: at cap 0 neither runs, and the kernel still settles min(d, 4)
    _spy_searches(monkeypatch, lambda g, rows: pytest.fail("a search ran at cap 0"))
    probed = []
    real = distance.small_weight

    def recording(c):
        probed.append(c.j)
        return real(c)

    monkeypatch.setattr(distance, "small_weight", recording)
    ctx = new_context(parse("x^8+x^6+x^5+x+1"), 5)
    assert full_distance_profile(ctx, oracle_cap=0)[1].provenance[-1] == "weight-3"
    assert probed
    probed.clear()
    rep = single_distance_report(ctx, 1, oracle_cap=0)
    assert (rep.lower, rep.upper) == (3, 3) and probed == [1]


@pytest.mark.parametrize("L,j", [(5, 4), (9, 8)])
def test_a_kernel_probe_that_falls_along_the_chain_raises(monkeypatch, L, j):
    # x^2+x+1: d(C_j) = 3, and j is a probe; a kernel that reads 2 there falls below an earlier probe's 3
    ctx = new_context(parse("x^2+x+1"), L)
    assert full_distance_profile(ctx)[j].lower == 3
    real = distance.small_weight
    monkeypatch.setattr(distance, "small_weight", lambda c: 2 if c.j == j else real(c))
    with pytest.raises(InternalConsistencyError, match=f"falls along the chain: the kernel's probes read .*{j}: 2"):
        full_distance_profile(ctx)


@settings(deadline=None)
@given(st.data())
def test_the_kernel_pass_settles_a_synthetic_chain(data):
    # a monotone d over 1..L-1 and fused bounds that contain it; the stand-in code of slot j is j itself
    L = data.draw(st.integers(2, 300), label="L")
    cuts = sorted(data.draw(st.lists(st.integers(0, L - 1), min_size=3, max_size=3), label="cuts"))
    d = [1] + [2 + sum(j > cut for cut in cuts) for j in range(1, L)]
    slack = st.lists(st.integers(0, 3), min_size=L - 1, max_size=L - 1)
    lower = list(accumulate([1] + [dj - s for dj, s in zip(d[1:], data.draw(slack, label="below"))], max))
    upper = [1] + list(accumulate([dj + s for dj, s in zip(d[:0:-1], data.draw(slack, label="above"))], min))[::-1]
    reports = [DistanceReport(j, lower[j], upper[j]) for j in range(L)] + [DistanceReport(L, 2 * L, 2 * L)]
    top = max(j for j in range(L) if lower[j] <= 3)
    probed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distance, "small_weight", lambda j: probed.append(j) or min(d[j], 4))
        distance._small_weight_chain(list(range(L + 1)), reports)
    for j in range(1, top + 1):
        if d[j] < 4:
            assert (reports[j].lower, reports[j].upper) == (d[j], d[j]), j
        else:
            assert reports[j].lower >= 4, j
    assert len(set(probed)) == len(probed) and all(1 <= j <= top for j in probed)
    assert len(probed) <= 4 + 2 * top.bit_length()  # top.bit_length() = ceil(log2(top + 1))


def test_the_kernel_pass_call_counts(monkeypatch):
    # kernel calls over every chain of _rings_up_to_60(), at each cap: the edge probes and the halving alone
    calls = []
    real = distance.small_weight
    monkeypatch.setattr(distance, "small_weight", lambda c: calls.append(c.j) or real(c))
    for cap, most in ((0, 643), (20, 620), (28, 594)):
        calls.clear()
        for ctx in _rings_up_to_60():
            full_distance_profile(ctx, oracle_cap=cap)
        assert len(calls) <= most, (cap, len(calls))
