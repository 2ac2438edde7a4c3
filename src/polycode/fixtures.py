"""Embedded regression fixtures: reference profiles, weights, and parameters.

Every fixture pins previously computed reference values — distance profiles,
candidate-set weights, dual distances, LCD verdicts, and published code
parameters — and replays the library against them row by row.  Survey rows
whose dimension is out of oracle range degrade to a containment check: the
proven interval must contain the reference value.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import code
from .distance import full_distance_profile, single_distance_report, upper_anchor_distance
from .duality import (
    dual_code,
    dual_min_distance_bruteforce,
    dual_pow2_candidates,
    dual_pow2_distance,
)
from .errors import ValidationError
from .gf2poly import is_irreducible, mul, parse, substitute_power, weight
from .lcd import lcd_verdict
from .ring import new_context


class FixtureRow(NamedTuple):
    label: str
    expected: str
    got: str
    ok: bool


class FixtureResult(NamedTuple):
    key: str
    rows: tuple[FixtureRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)


def _eq(rows: list[FixtureRow], label: str, expected, got) -> None:
    rows.append(FixtureRow(label, str(expected), str(got), expected == got))


def _contains(rows: list[FixtureRow], label: str, expected: int, lo: int, hi: int) -> None:
    rows.append(FixtureRow(label, str(expected), f"[{lo}, {hi}]", lo <= expected <= hi))


# ---------------------------------------------------------------------------
# embedded reference data
# ---------------------------------------------------------------------------

# six small rings whose whole head zone is decided exactly
HEAD_SURVEY = (
    ("x^2 + x + 1", 5, {1: 2, 2: 2, 3: 3, 4: 3}),
    ("x^3 + x + 1", 2, {1: 3}),
    ("x^4 + x + 1", 7, {1: 2, 2: 3, 3: 3, 4: 3}),
    ("x^5 + x^3 + 1", 6, {1: 3, 2: 3, 3: 3, 4: 3}),
    ("x^6 + x + 1", 9, {j: 3 for j in range(1, 9)}),
    ("x^7 + x^4 + 1", 31, {1: 2, **{j: 3 for j in range(2, 17)}}),
)

# full-profile fixtures: structural bounds, then oracle resolutions of the open slots
PROFILES = {
    "profile-m5L5": (
        "x^5 + x^4 + x^2 + x + 1",
        5,
        {0: (1, 1), 1: (3, 3), 2: (3, 3), 3: (3, 4), 4: (4, 4), 5: (25, 25)},
        {},
        {3: 4},
    ),
    "profile-m4L16": (
        "x^4 + x + 1",
        16,
        {
            0: (1, 1),
            **{j: (2, 2) for j in range(1, 5)},
            **{j: (3, 3) for j in range(5, 9)},
            9: (6, 7),
            10: (6, 7),
            11: (6, 8),
            12: (8, 8),
            13: (16, 16),
            14: (16, 16),
            15: (33, 33),
            16: (64, 64),
        },
        {},
        {9: 6, 10: 6, 11: 8},
    ),
    "profile-m5L12": (
        "x^5 + x^4 + x^2 + x + 1",
        12,
        {0: (1, 1), 1: (2, 2), **{j: (3, 3) for j in range(2, 9)}, 12: (60, 60)},
        {9: 6, 10: 6, 11: 6},
        {9: 7, 10: 8, 11: 21},
    ),
    "profile-m6L25": (
        "x^6 + x^5 + x^3 + x^2 + 1",
        25,
        {
            0: (1, 1),
            1: (2, 2),
            2: (2, 2),
            **{j: (3, 3) for j in range(3, 17)},
            **{j: (6, 15) for j in range(17, 24)},
            24: (15, 15),
            25: (150, 150),
        },
        {},
        {21: 15, 22: 15, 23: 15},
    ),
}

# candidate weights a(x) * P^(2^r - 1) over (x^4 + x + 1)^16, a odd of degree <= 3
ANCHOR_WEIGHTS_M4L16 = {
    2: {1: 9, 3: 8, 5: 8, 7: 9, 9: 8, 11: 9, 13: 9, 15: 8},
    3: {1: 17, 3: 18, 5: 16, 7: 17, 9: 18, 11: 17, 13: 17, 15: 16},
    4: {1: 33, 3: 34, 5: 34, 7: 35, 9: 34, 11: 35, 13: 35, 15: 36},
}

# candidate weights a(x^16) * P^16 over (x^6 + x^5 + x^3 + x^2 + 1)^25, a odd of degree <= 3
ANCHOR_WEIGHTS_M6L25 = {1: 5, 3: 6, 5: 6, 7: 3, 9: 4, 11: 9, 13: 5, 15: 6}
ANCHOR_WITNESS_M6L25 = (7, (1 << 128) | (1 << 16) | 1)  # the weight-3 candidate at a = 1+x+x^2

# dual distances over (x^3 + x + 1)^9: reduced sets at j in {1, 2, 4, 8}, oracle everywhere
DUAL_DISTANCES_M3L9 = {1: 15, 2: 7, 3: 7, 4: 3, 5: 3, 6: 2, 7: 2, 8: 1}
DUAL_ANCHORED_M3L9 = (1, 2, 4, 8)

# dual candidate weights over (x^3 + x + 1)^9, keyed by s then by the lead word ell
DUAL_WEIGHTS_M3L9 = {
    1: {4: 1, 5: 1, 6: 2, 7: 2},
    2: {4: 3, 5: 3, 6: 3, 7: 3},
    3: {4: 7, 5: 7, 6: 7, 7: 7},
    4: {4: 15, 5: 15, 6: 15, 7: 15},
}

LCD_M3L8 = ("x^3 + x + 1", 8, (24, 21, 2), (24, 3, 13))

# published survey rows: (poly, L, n, k, d, k_dual, d_dual)
DUAL_SURVEY = (
    ("x^3 + x + 1", 9, 27, 24, 2, 3, 15),
    ("x^4 + x + 1", 22, 88, 84, 2, 4, 46),
    ("x^4 + x + 1", 26, 104, 100, 2, 4, 55),
    ("x^4 + x + 1", 45, 180, 176, 2, 4, 96),
    ("x^5 + x^2 + 1", 13, 65, 60, 2, 5, 32),
    ("x^5 + x^2 + 1", 19, 95, 90, 2, 5, 48),
    ("x^5 + x^2 + 1", 5, 25, 20, 3, 5, 11),
    ("x^5 + x^3 + 1", 6, 30, 25, 3, 5, 15),
    # published as d_dual = 15, but reduced-set candidates, the parity-check
    # brute force, and a raw nullspace enumeration all agree on 14
    ("x^6 + x + 1", 6, 36, 30, 3, 6, 14),
    ("x^6 + x^5 + x^3 + x^2 + 1", 10, 60, 54, 3, 6, 29),
    ("x^6 + x^5 + 1", 11, 66, 60, 2, 6, 32),
    ("x^7 + x^6 + x^3 + x + 1", 4, 28, 21, 3, 7, 11),
    ("x^7 + x^6 + x^5 + x^4 + x^2 + x + 1", 6, 42, 35, 3, 7, 18),
    ("x^7 + x^4 + 1", 11, 77, 70, 3, 7, 34),
    ("x^7 + x^6 + 1", 18, 126, 119, 3, 7, 63),
    ("x^7 + x^6 + 1", 19, 133, 126, 2, 7, 64),
    ("x^8 + x^7 + x^2 + x + 1", 3, 24, 16, 4, 8, 8),
    ("x^8 + x^6 + x^5 + x + 1", 5, 40, 32, 3, 8, 15),
    ("x^8 + x^7 + x^6 + x^5 + x^2 + x + 1", 9, 72, 64, 3, 8, 31),
    ("x^9 + x^8 + x^7 + x^6 + x^5 + x^3 + 1", 3, 27, 18, 4, 9, 9),
    ("x^9 + x^8 + x^6 + x^5 + x^4 + x^3 + x^2 + x + 1", 6, 54, 45, 4, 9, 20),
    ("x^11 + x^10 + x^5 + x^4 + 1", 8, 88, 77, 4, 11, 39),
)

# One published row is excluded: its polynomial factors as
# (x^2+x+1)(x^5+x^3+x^2+x+1), so no code in this family exists for it, and no
# irreducible substitute of degree 7 reproduces the quoted dual distance 44 at
# L = 13 (they all land in 39..42).  The fixture pins the reducibility itself.
REJECTED_DUAL_SURVEY_ROW = ("x^7 + x^6 + x^3 + x^2 + 1", 13, 91, 84, 3, 7, 44)

# published LCD survey rows, same shape; every C_1 here must come out LCD
LCD_SURVEY = (
    ("x^3 + x + 1", 6, 18, 15, 2, 3, 9),
    ("x^3 + x + 1", 8, 24, 21, 2, 3, 13),
    ("x^3 + x + 1", 13, 39, 36, 2, 3, 21),
    ("x^3 + x + 1", 15, 45, 42, 2, 3, 25),
    ("x^4 + x + 1", 16, 64, 60, 2, 4, 33),
    ("x^4 + x + 1", 17, 68, 64, 2, 4, 35),
    ("x^4 + x + 1", 31, 124, 120, 2, 4, 65),
    ("x^4 + x + 1", 40, 160, 156, 2, 4, 84),
    ("x^4 + x + 1", 46, 184, 180, 2, 4, 97),
    ("x^5 + x^2 + 1", 3, 15, 10, 3, 5, 5),
    ("x^5 + x^2 + 1", 5, 25, 20, 3, 5, 11),
    ("x^5 + x^4 + x^2 + x + 1", 8, 40, 35, 2, 5, 19),
    ("x^5 + x^2 + 1", 9, 45, 40, 2, 5, 21),
    ("x^5 + x^2 + 1", 11, 55, 50, 2, 5, 27),
    ("x^5 + x^4 + x^2 + x + 1", 15, 75, 70, 2, 5, 37),
    ("x^5 + x^2 + 1", 32, 160, 155, 2, 5, 81),
    ("x^6 + x^5 + x^4 + x + 1", 5, 30, 24, 3, 6, 12),
    ("x^6 + x^5 + x^3 + x^2 + 1", 7, 42, 36, 3, 6, 18),
    ("x^6 + x^5 + 1", 9, 54, 48, 3, 6, 25),
    ("x^6 + x^5 + x^3 + x^2 + 1", 12, 72, 66, 2, 6, 34),
    ("x^6 + x^5 + x^3 + x^2 + 1", 17, 102, 96, 2, 6, 49),
    ("x^6 + x^5 + x^3 + x^2 + 1", 19, 114, 108, 2, 6, 55),
    ("x^6 + x^5 + 1", 22, 132, 126, 2, 6, 65),
    ("x^7 + x^6 + x^3 + x + 1", 10, 70, 63, 3, 7, 30),
    ("x^7 + x^4 + 1", 11, 77, 70, 3, 7, 34),
    ("x^7 + x^6 + x^5 + x^4 + 1", 16, 112, 105, 3, 7, 52),
    ("x^8 + x^7 + x^2 + x + 1", 3, 24, 16, 4, 8, 8),
    ("x^8 + x^7 + x^2 + x + 1", 7, 56, 48, 3, 8, 23),
    ("x^9 + x^7 + x^2 + x + 1", 2, 18, 9, 5, 9, 4),
    ("x^9 + x^8 + x^7 + x^6 + x^5 + x^3 + 1", 3, 27, 18, 4, 9, 9),
    ("x^9 + x^6 + x^4 + x^3 + 1", 4, 36, 27, 4, 9, 12),
    ("x^10 + x^6 + x^2 + x + 1", 5, 50, 40, 4, 10, 16),
    ("x^10 + x^9 + x^8 + x^7 + x^5 + x^4 + 1", 6, 60, 50, 3, 10, 22),
    ("x^11 + x^10 + x^8 + x^6 + 1", 5, 55, 44, 4, 11, 19),
    ("x^11 + x^10 + x^5 + x^4 + 1", 7, 77, 66, 4, 11, 30),
    ("x^11 + x^10 + x^5 + x^4 + 1", 8, 88, 77, 4, 11, 39),
    ("x^12 + x^11 + x^9 + x^7 + x^6 + x^4 + 1", 5, 60, 48, 4, 12, 20),
    ("x^13 + x^12 + x^10 + x^8 + x^6 + x^4 + x^3 + x^2 + 1", 4, 52, 39, 5, 13, 15),
    ("x^14 + x^13 + x^11 + x^6 + x^5 + x^4 + x^2 + x + 1", 4, 56, 42, 5, 14, 17),
    ("x^15 + x^7 + x^6 + x^3 + x^2 + x + 1", 4, 60, 45, 5, 15, 15),
    ("x^17 + x^8 + x^7 + x^6 + x^4 + x^3 + 1", 2, 34, 17, 7, 17, 5),
)

# Published as LCD, but the hull is 10-dimensional: a weight-40 codeword
# orthogonal to the whole code exists, and the structural criterion agrees
# with the hull computation.  The other parameters of the row are correct.
NON_LCD_SURVEY_ROWS = {("x^11 + x^10 + x^5 + x^4 + 1", 8): 10}


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _run_head_survey() -> FixtureResult:
    rows: list[FixtureRow] = []
    for poly_text, L, expect in HEAD_SURVEY:
        ctx = new_context(parse(poly_text), L)
        profile = full_distance_profile(ctx, oracle_cap=0)
        for j, d in sorted(expect.items()):
            rep = profile[j]
            got = rep.lower if rep.exact else f"[{rep.lower}, {rep.upper}]"
            _eq(rows, f"{poly_text} L={L} d_{j}", d, got)
    return FixtureResult("head-survey", tuple(rows))


def _run_profile(key: str) -> FixtureResult:
    poly_text, L, expect_bounds, expect_lower, expect_oracle = PROFILES[key]
    ctx = new_context(parse(poly_text), L)
    rows: list[FixtureRow] = []
    structural = full_distance_profile(ctx, oracle_cap=0)
    for j, (lo, hi) in sorted(expect_bounds.items()):
        _eq(rows, f"bounds d_{j}", (lo, hi), (structural[j].lower, structural[j].upper))
    for j, lo in sorted(expect_lower.items()):
        _eq(rows, f"lower d_{j}", lo, structural[j].lower)
    resolved = full_distance_profile(ctx)
    for j, d in sorted(expect_oracle.items()):
        rep = resolved[j]
        got = rep.lower if rep.exact else f"[{rep.lower}, {rep.upper}]"
        _eq(rows, f"oracle d_{j}", d, got)
    return FixtureResult(key, tuple(rows))


def _run_anchor_weights_m4l16() -> FixtureResult:
    ctx = new_context(parse("x^4 + x + 1"), 16)
    rows: list[FixtureRow] = []
    for r, table in sorted(ANCHOR_WEIGHTS_M4L16.items()):
        base = ctx.P_pows[(1 << r) - 1]
        for a, w in sorted(table.items()):
            _eq(rows, f"r={r} a={a:#06b}", w, weight(mul(a, base)))
        _eq(rows, f"r={r} min == anchor", min(table.values()), upper_anchor_distance(ctx, r))
    return FixtureResult("anchor-weights-m4L16", tuple(rows))


def _run_anchor_weights_m6l25() -> FixtureResult:
    ctx = new_context(parse("x^6 + x^5 + x^3 + x^2 + 1"), 25)
    rows: list[FixtureRow] = []
    base = ctx.P_pows[16]
    for a, w in sorted(ANCHOR_WEIGHTS_M6L25.items()):
        _eq(rows, f"a={a:#06b}", w, weight(mul(substitute_power(a, 16), base)))
    a_wit, word = ANCHOR_WITNESS_M6L25
    _eq(rows, "weight-3 witness word", word, mul(substitute_power(a_wit, 16), base))
    _eq(rows, "min == anchor", min(ANCHOR_WEIGHTS_M6L25.values()), upper_anchor_distance(ctx, 1))
    return FixtureResult("anchor-weights-m6L25", tuple(rows))


def _run_dual_distances_m3l9() -> FixtureResult:
    ctx = new_context(parse("x^3 + x + 1"), 9)
    rows: list[FixtureRow] = []
    for j in DUAL_ANCHORED_M3L9:
        s = ctx.T - j.bit_length() + 1
        _eq(rows, f"reduced set d_dual j={j}", DUAL_DISTANCES_M3L9[j], dual_pow2_distance(ctx, s))
    for j, d in sorted(DUAL_DISTANCES_M3L9.items()):
        got = dual_min_distance_bruteforce(dual_code(code(ctx, j)))
        _eq(rows, f"oracle d_dual j={j}", d, got)
    return FixtureResult("dual-distances-m3L9", tuple(rows))


def _run_dual_weights_m3l9() -> FixtureResult:
    ctx = new_context(parse("x^3 + x + 1"), 9)
    rows: list[FixtureRow] = []
    for s, table in sorted(DUAL_WEIGHTS_M3L9.items()):
        got = dual_pow2_candidates(ctx, s)
        for ell, w in sorted(table.items()):
            _eq(rows, f"s={s} ell={ell:#05b}", w, got.get(ell))
    return FixtureResult("dual-weights-m3L9", tuple(rows))


def _run_lcd_m3l8() -> FixtureResult:
    poly_text, L, (n, k, d), (n2, k_dual, d_dual) = LCD_M3L8
    ctx = new_context(parse(poly_text), L)
    rows: list[FixtureRow] = []
    _eq(rows, "n", n, ctx.n)
    _eq(rows, "k", k, ctx.m * (L - 1))
    _eq(rows, "k_dual", k_dual, n2 - k)
    verdict = lcd_verdict(code(ctx, 1), "all")
    _eq(rows, "is_lcd", True, verdict.is_lcd)
    _eq(rows, "hull_dim", 0, verdict.hull_dim)
    _eq(rows, "methods", ("oracle", "head-criterion"), verdict.methods)
    rep = single_distance_report(ctx, 1)
    _eq(rows, "d", d, rep.lower if rep.exact else None)
    _eq(rows, "d_dual reduced set", d_dual, dual_pow2_distance(ctx, ctx.T))
    got = dual_min_distance_bruteforce(dual_code(code(ctx, 1)))
    _eq(rows, "d_dual oracle", d_dual, got)
    return FixtureResult("lcd-m3L8", tuple(rows))


def _survey_rows(table, check_lcd: bool) -> list[FixtureRow]:
    rows: list[FixtureRow] = []
    for poly_text, L, n, k, d, k_dual, d_dual in table:
        ctx = new_context(parse(poly_text), L)
        tag = f"{poly_text} L={L}"
        _eq(rows, f"{tag} n", n, ctx.n)
        _eq(rows, f"{tag} k", k, ctx.m * (L - 1))
        _eq(rows, f"{tag} k_dual", k_dual, ctx.m)
        rep = single_distance_report(ctx, 1)
        if rep.exact:
            _eq(rows, f"{tag} d", d, rep.lower)
        else:
            _contains(rows, f"{tag} d within bounds", d, rep.lower, rep.upper)
        theorem_dd = dual_pow2_distance(ctx, ctx.T)
        _eq(rows, f"{tag} d_dual", d_dual, theorem_dd)
        oracle_dd = dual_min_distance_bruteforce(dual_code(code(ctx, 1)))
        _eq(rows, f"{tag} d_dual oracle", d_dual, oracle_dd)
        if check_lcd:
            verdict = lcd_verdict(code(ctx, 1), "all")
            expect_hull = NON_LCD_SURVEY_ROWS.get((poly_text, L), 0)
            _eq(rows, f"{tag} is_lcd", expect_hull == 0, verdict.is_lcd)
            _eq(rows, f"{tag} hull_dim", expect_hull, verdict.hull_dim)
    return rows


def _run_dual_survey() -> FixtureResult:
    rows = _survey_rows(DUAL_SURVEY, check_lcd=False)
    poly_text, L = REJECTED_DUAL_SURVEY_ROW[0], REJECTED_DUAL_SURVEY_ROW[1]
    _eq(rows, f"{poly_text} L={L} rejected (reducible)", False, is_irreducible(parse(poly_text)))
    return FixtureResult("dual-survey", tuple(rows))


def _run_lcd_survey() -> FixtureResult:
    return FixtureResult("lcd-survey", tuple(_survey_rows(LCD_SURVEY, check_lcd=True)))


FIXTURES = {
    "head-survey": _run_head_survey,
    "profile-m5L5": lambda: _run_profile("profile-m5L5"),
    "profile-m4L16": lambda: _run_profile("profile-m4L16"),
    "profile-m5L12": lambda: _run_profile("profile-m5L12"),
    "profile-m6L25": lambda: _run_profile("profile-m6L25"),
    "anchor-weights-m4L16": _run_anchor_weights_m4l16,
    "anchor-weights-m6L25": _run_anchor_weights_m6l25,
    "dual-distances-m3L9": _run_dual_distances_m3l9,
    "dual-weights-m3L9": _run_dual_weights_m3l9,
    "lcd-m3L8": _run_lcd_m3l8,
    "dual-survey": _run_dual_survey,
    "lcd-survey": _run_lcd_survey,
}


def run_fixture(key: str) -> FixtureResult:
    """Replay one fixture by key."""
    if key not in FIXTURES:
        raise ValidationError(f"unknown fixture {key!r}; known: {', '.join(FIXTURES)}")
    return FIXTURES[key]()


# ---------------------------------------------------------------------------
# dumps of the embedded data (no computation)
# ---------------------------------------------------------------------------


def dump_fixture(key: str) -> list[tuple[str, str]]:
    """The embedded reference rows of one fixture as (label, expected) pairs."""
    if key not in FIXTURES:
        raise ValidationError(f"unknown fixture {key!r}; known: {', '.join(FIXTURES)}")
    out: list[tuple[str, str]] = []
    if key == "head-survey":
        for poly_text, L, expect in HEAD_SURVEY:
            for j, d in sorted(expect.items()):
                out.append((f"{poly_text} L={L} d_{j}", str(d)))
    elif key in PROFILES:
        poly_text, L, expect_bounds, expect_lower, expect_oracle = PROFILES[key]
        for j, (lo, hi) in sorted(expect_bounds.items()):
            out.append((f"{poly_text} L={L} bounds d_{j}", f"({lo}, {hi})"))
        for j, lo in sorted(expect_lower.items()):
            out.append((f"{poly_text} L={L} lower d_{j}", str(lo)))
        for j, d in sorted(expect_oracle.items()):
            out.append((f"{poly_text} L={L} oracle d_{j}", str(d)))
    elif key == "anchor-weights-m4L16":
        for r, table in sorted(ANCHOR_WEIGHTS_M4L16.items()):
            for a, w in sorted(table.items()):
                out.append((f"r={r} a={a:#06b}", str(w)))
    elif key == "anchor-weights-m6L25":
        for a, w in sorted(ANCHOR_WEIGHTS_M6L25.items()):
            out.append((f"a={a:#06b}", str(w)))
        out.append(("weight-3 witness word", hex(ANCHOR_WITNESS_M6L25[1])))
    elif key == "dual-distances-m3L9":
        for j, d in sorted(DUAL_DISTANCES_M3L9.items()):
            out.append((f"d_dual j={j}", str(d)))
    elif key == "dual-weights-m3L9":
        for s, table in sorted(DUAL_WEIGHTS_M3L9.items()):
            for ell, w in sorted(table.items()):
                out.append((f"s={s} ell={ell:#05b}", str(w)))
    elif key == "lcd-m3L8":
        poly_text, L, params, dual_params = LCD_M3L8
        out.append((f"{poly_text} L={L} params", str(params)))
        out.append((f"{poly_text} L={L} dual params", str(dual_params)))
    else:
        table = DUAL_SURVEY if key == "dual-survey" else LCD_SURVEY
        for poly_text, L, n, k, d, k_dual, d_dual in table:
            out.append((f"{poly_text} L={L}", f"[{n},{k},{d}] / [{n},{k_dual},{d_dual}]"))
    return out
