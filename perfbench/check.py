"""Output checks behind fail_share, with the benchmark's own reference enumeration.

Each check takes an op, its captured stdout and an Answer to fill with the
values that go into the digest and the slot counts, and returns the list of
problems found (empty when the output is right).
"""

from __future__ import annotations

import csv
import io
import json

from gen import CONJ_TMAX, CONJ_VMAX, DIM_CAP, Op, clmul, family_poly

ENUM_MAX_K = 16  # exact values at k <= 16 are compared with plain enumeration


class Answer:
    """What one op returned: digestable values, distance-slot and hull-slot coverage."""

    def __init__(self) -> None:
        self.values: list = []
        self.slots = 0  # distance slots: analyze reports and dual distances
        self.exact = 0
        self.open = 0
        self.hull_slots = 0  # lcd verdicts and conjecture rows
        self.hull_exact = 0


def _pow(P: int, j: int) -> int:
    out = 1
    for _ in range(j):
        out = clmul(out, P)
    return out


def min_weight(P: int, L: int, j: int) -> int:
    """d(C_j) by enumerating all 2^k codewords spanned by the shifts x^i P^j, i < k."""
    g = _pow(P, j)
    words = [0]
    for i in range((P.bit_length() - 1) * (L - j)):
        row = g << i
        words += [w ^ row for w in words]
    return min(w.bit_count() for w in words[1:])


def _check_report(op: Op, rep: dict, j: int, ans: Answer) -> list[str]:
    n, m, L = op.m * op.L, op.m, op.L
    lo, hi = rep["lower"], rep["upper"]
    bad = []
    if rep["j"] != j:
        bad.append(f"report index {rep['j']} != {j}")
    if not 1 <= lo <= hi <= n:
        bad.append(f"j={j}: bounds [{lo}, {hi}] out of order")
    if rep["exact"] != (lo == hi):
        bad.append(f"j={j}: exact flag disagrees with [{lo}, {hi}]")
    if 1 <= j < L:
        if hi > _pow(op.P, j).bit_count():
            bad.append(f"j={j}: upper {hi} above wt(P^j)")
        if m * (L - j) <= ENUM_MAX_K:
            d = min_weight(op.P, L, j)
            if not lo <= d <= hi or (rep["exact"] and lo != d):
                bad.append(f"j={j}: reported [{lo}, {hi}], enumeration gives {d}")
    ans.values.append((j, lo, hi))
    ans.slots += 1
    ans.exact += lo == hi
    ans.open += lo != hi
    return bad


def check_analyze_chain(op: Op, out: str, ans: Answer) -> list[str]:
    reps = json.loads(out)
    if len(reps) != op.L + 1:
        return [f"{len(reps)} reports for L={op.L}"]
    bad = []
    for j, rep in enumerate(reps):
        bad += _check_report(op, rep, j, ans)
    n = op.m * op.L
    if (reps[0]["lower"], reps[0]["upper"]) != (1, 1):
        bad.append("d_0 != 1")
    if (reps[-1]["lower"], reps[-1]["upper"]) != (n, n):
        bad.append(f"d_L != n = {n}")
    for a, b in zip(reps, reps[1:]):
        if b["lower"] < a["lower"] or b["upper"] < a["upper"]:
            bad.append(f"bounds fall from j={a['j']} to j={b['j']}")
    return bad


def check_analyze(op: Op, out: str, ans: Answer) -> list[str]:
    return _check_report(op, json.loads(out), 1, ans)


def check_dual(op: Op, out: str, ans: Answer) -> list[str]:
    s = json.loads(out)
    bad = []
    want = (op.j, op.m * op.L, op.m * op.j)
    if (s["j"], s["n"], s["k_dual"]) != want:
        bad.append(f"dual j/n/k_dual = {s['j']}/{s['n']}/{s['k_dual']}, want {'/'.join(map(str, want))}")
    d = s["d_dual"]
    if d is not None and not 1 <= d <= op.m * op.L:
        bad.append(f"d_dual {d} out of range")
    ans.values.append((s["k_dual"], d))
    ans.slots += 1
    ans.exact += d is not None
    ans.open += d is None
    return bad


def _check_verdict(v: dict, j: int, ans: Answer) -> list[str]:
    bad = []
    if v["j"] != j:
        bad.append(f"verdict index {v['j']} != {j}")
    if v["hull_dim"] is not None and v["is_lcd"] != (v["hull_dim"] == 0):
        bad.append(f"j={j}: is_lcd={v['is_lcd']} but hull_dim={v['hull_dim']}")
    ans.values.append((j, v["is_lcd"], v["hull_dim"]))
    ans.hull_slots += 1
    ans.hull_exact += v["hull_dim"] is not None
    return bad


def check_lcd(op: Op, out: str, ans: Answer) -> list[str]:
    return _check_verdict(json.loads(out), 1, ans)


def check_lcd_chain(op: Op, out: str, ans: Answer) -> list[str]:
    verdicts = json.loads(out)
    if len(verdicts) != op.L + 1:
        return [f"{len(verdicts)} verdicts for L={op.L}"]
    bad = []
    for j, v in enumerate(verdicts):
        bad += _check_verdict(v, j, ans)
    return bad


def check_conjecture(op: Op, out: str, ans: Answer) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(out)))
    want = [
        (v, T, j)
        for v in range(CONJ_VMAX + 1)
        for T in range(1, CONJ_TMAX + 1)
        if 2 * 3**v * (1 << T) <= DIM_CAP
        for j in range(1, 1 << T)
    ]
    got = [(int(r["v"]), int(r["T"]), int(r["j"])) for r in rows]
    if got != want:
        return [f"conjecture rows {len(got)}, want {len(want)} in (v, T, j) order"]
    bad = []
    for r, (v, T, j) in zip(rows, want):
        m = family_poly(v).bit_length() - 1
        if (int(r["n"]), int(r["k"])) != (m << T, m * ((1 << T) - j)):
            bad.append(f"v={v} T={T} j={j}: n/k = {r['n']}/{r['k']}")
        hull = int(r["hull_dim"])
        if (r["is_lcd"] == "True") != (hull == 0):
            bad.append(f"v={v} T={T} j={j}: is_lcd={r['is_lcd']} but hull_dim={hull}")
        ans.values.append((v, T, j, hull))
        ans.hull_slots += 1
        ans.hull_exact += 1
    return bad


CHECKS = {
    "analyze-chain": check_analyze_chain,
    "analyze": check_analyze,
    "dual": check_dual,
    "lcd": check_lcd,
    "lcd-chain": check_lcd_chain,
    "conjecture": check_conjecture,
}


def check(op: Op, rc: int, out: str, err: str) -> tuple[list[str], Answer]:
    """Problems with one op's result, and its answers."""
    ans = Answer()
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-200:]}"], ans
    if err and op.command != "conjecture":
        return [f"unexpected stderr: {err.strip()[-200:]}"], ans
    try:
        return CHECKS[op.command](op, out, ans), ans
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], ans
