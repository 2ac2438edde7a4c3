"""Minimum Hamming distances of the chain codes C_j.

Three independent sources feed one report per j:

* an exact oracle over the whole code by information-set search (capped by
  the dimension k, for cross-checks and small dimensions);
* exact values on a lattice of "anchor" indices, where the minimum is
  attained inside a small reduced candidate set P^j * a(x^B) with B = j & -j
  and a running over constant-term-1 polynomials of bounded degree.  The
  lower anchors are j = 2^(T-s); the upper ones are ctx.tops, whose first
  entry 2^(T-1) is also the top lower anchor;
* interval bounds everywhere else: a head-zone classification driven by the
  order e of x mod P, weight witnesses wt(P^j), doubling lower bounds
  2*d(anchor) from each upper anchor up to the next one (or L), and
  monotonicity along the chain (C_{j+1} inside C_j).

The oracle and the reduced sets are both minima over an affine span of
words, taken by the one kernel of _linalg (min_weight_affine).
full_distance_profile fuses all of it, tags every bound with its source, and
raises InternalConsistencyError the moment two sources disagree.
"""

from __future__ import annotations

from ._linalg import min_weight_affine, min_weight_span
from .codes import DEFAULT_CANDIDATE_CAP, DEFAULT_ENUM_CAP, PolycyclicCode, check_caps, code, generator_rows
from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import weight
from .ring import RingContext


class DistanceReport:
    """Best known bounds on d(C_j), with the source of every improvement."""

    __slots__ = ("j", "lower", "upper", "provenance")

    def __init__(self, j: int, lower: int, upper: int, provenance: list[str] | None = None) -> None:
        self.j = j
        self.lower = lower
        self.upper = upper
        self.provenance = [] if provenance is None else provenance

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def _tag(self, tag: str) -> None:
        if tag not in self.provenance:
            self.provenance.append(tag)

    def raise_lower(self, value: int, tag: str) -> None:
        if value > self.lower:
            if value > self.upper:
                raise InternalConsistencyError(
                    f"j={self.j}: lower bound {value} ({tag}) exceeds upper bound {self.upper}"
                )
            self.lower = value
            self._tag(tag)

    def cut_upper(self, value: int, tag: str) -> None:
        if value < self.upper:
            if value < self.lower:
                raise InternalConsistencyError(
                    f"j={self.j}: upper bound {value} ({tag}) undercuts lower bound {self.lower}"
                )
            self.upper = value
            self._tag(tag)

    def set_exact(self, value: int, tag: str) -> None:
        if not self.lower <= value <= self.upper:
            raise InternalConsistencyError(
                f"j={self.j}: exact value {value} ({tag}) outside [{self.lower}, {self.upper}]"
            )
        if value > self.lower:
            self.lower = value
            self._tag(tag)
        if value < self.upper:
            self.upper = value
            self._tag(tag)
        if not self.provenance:
            self._tag(tag)

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "provenance": list(self.provenance),
        }


# ---------------------------------------------------------------------------
# exact oracle over the whole code
# ---------------------------------------------------------------------------


def min_distance_bruteforce(c: PolycyclicCode, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Exact d(C_j) over the whole code, by information-set search (k must stay within the cap)."""
    if c.j == c.ctx.L:
        raise ValidationError("the zero code has no nonzero word, hence no distance")
    if c.k > cap:
        raise CapExceeded(
            f"distance oracle needs 2^{c.k} words, over the cap of 2^{cap}; raise the cap"
        )
    return min_weight_span(generator_rows(c), c.n)


# ---------------------------------------------------------------------------
# head zone: j = 1 .. 2^(T-1)
# ---------------------------------------------------------------------------


def head_zone_split(ctx: RingContext) -> int | None:
    """Smallest J with e * 2^(T-J) < n, or None when e >= n (no weight-2 words at all)."""
    if ctx.e >= ctx.n:
        return None
    for J in range(1, ctx.T + 1):
        if ctx.e << (ctx.T - J) < ctx.n:
            return J
    raise InternalConsistencyError("e < n but no split index J found")


def head_zone_reports(ctx: RingContext) -> dict[int, tuple[int, int]]:
    """Distance bounds for every j up to 2^(T-1): exact 2 below the split, [3, wt(P)] above."""
    J = head_zone_split(ctx)
    out: dict[int, tuple[int, int]] = {}
    for j in range(1, (1 << (ctx.T - 1)) + 1):
        if J is not None and j <= 1 << (ctx.T - J):
            out[j] = (2, 2)
        else:
            out[j] = (3, weight(ctx.P))
    return out


# ---------------------------------------------------------------------------
# anchor indices: exact values from small reduced sets
# ---------------------------------------------------------------------------


def _reduced_set_min(ctx: RingContext, j: int, B: int, cap: int) -> int:
    """Min weight of P^j * a(x^B) over constant-term-1 a of degree < lam = ceil(m(L-j)/B)."""
    lam = -(-(ctx.m * (ctx.L - j)) // B)
    if 1 << (lam - 1) > cap:
        raise CapExceeded(f"reduced set has 2^{lam - 1} candidates, over the cap of {cap}")
    g = ctx.P_pows[j]
    rows = [g << (B * t) for t in range(1, lam)]
    # floor 2: no chain code with j >= 1 goes below 2; a nonzero g leaves no zero word
    return min_weight_affine(g, rows, ctx.n, floor=2)  # type: ignore[return-value]


def lower_anchor_distance(ctx: RingContext, s: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> int:
    """Exact d(C_j) at j = 2^(T-s), 1 <= s <= T."""
    if not 1 <= s <= ctx.T:
        raise ValidationError("anchor parameter s must satisfy 1 <= s <= T")
    j = 1 << (ctx.T - s)
    return _reduced_set_min(ctx, j, j, candidate_cap)


def upper_anchor_distance(ctx: RingContext, r: int, candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> int:
    """Exact d(C_j) at the upper anchor j = ctx.tops[r - 1] = 2^T - 2^(T-r), 1 <= r <= len(ctx.tops)."""
    if not 1 <= r <= len(ctx.tops):
        raise ValidationError(f"anchor parameter r must satisfy 1 <= r <= {len(ctx.tops)}")
    j = ctx.tops[r - 1]
    return _reduced_set_min(ctx, j, j & -j, candidate_cap)


# ---------------------------------------------------------------------------
# profile assembly
# ---------------------------------------------------------------------------


def monotone_fuse(reports: list[DistanceReport]) -> None:
    """Push lower bounds forward and upper bounds backward along the chain."""
    for j in range(1, len(reports)):
        reports[j].raise_lower(reports[j - 1].lower, "monotone")
    for j in range(len(reports) - 2, -1, -1):
        reports[j].cut_upper(reports[j + 1].upper, "monotone")


def full_distance_profile(
    ctx: RingContext,
    oracle_cap: int = DEFAULT_ENUM_CAP,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[DistanceReport]:
    """Best-known distance report for every j = 0..L, cross-checked along the way."""
    check_caps(oracle_cap=oracle_cap, candidate_cap=candidate_cap)
    L, T, n = ctx.L, ctx.T, ctx.n
    reports = [DistanceReport(j, 1, n) for j in range(L + 1)]
    reports[0].set_exact(1, "full-space")
    reports[L].set_exact(n, "zero-code")

    for j, (lo, hi) in head_zone_reports(ctx).items():
        reports[j].raise_lower(lo, "head-zone")
        reports[j].cut_upper(hi, "head-zone")

    # exact anchors from reduced candidate sets (skipped when over the cap)
    for s in range(1, T + 1):
        j = 1 << (T - s)
        try:
            reports[j].set_exact(lower_anchor_distance(ctx, s, candidate_cap), "reduced-set")
        except CapExceeded:
            pass
    # upper anchors r >= 2; r = 1 is the lower anchor s = 1 (j = B = 2^(T-1)), weighed above
    tops = ctx.tops
    for r, j in enumerate(tops[1:], 2):
        try:
            reports[j].set_exact(upper_anchor_distance(ctx, r, candidate_cap), "reduced-set")
        except CapExceeded:
            pass

    # weight witnesses
    for j in range(1, L):
        reports[j].cut_upper(weight(ctx.P_pows[j]), "weight-witness")

    # doubling lower bounds: every index past an upper anchor, up to the next (or L), gets 2*d(anchor)
    for a, nxt in zip(tops, tops[1:] + (L,)):
        for jj in range(a + 1, nxt):
            reports[jj].raise_lower(2 * reports[a].lower, "double-bound")

    monotone_fuse(reports)

    # oracle pass over whatever is still open and small enough
    for rep in reports[1:L]:
        _oracle_pass(ctx, rep, oracle_cap)
    monotone_fuse(reports)
    return reports


def _oracle_pass(ctx: RingContext, rep: DistanceReport, ocap: int) -> None:
    """Close an open report with the oracle when k fits the cap; the value must lie in the interval."""
    if rep.exact or ctx.m * (ctx.L - rep.j) > ocap:
        return
    d = min_distance_bruteforce(code(ctx, rep.j), cap=ocap)
    if not rep.lower <= d <= rep.upper:
        raise InternalConsistencyError(
            f"j={rep.j}: oracle distance {d} outside the proven interval [{rep.lower}, {rep.upper}]"
        )
    rep.set_exact(d, "oracle")


def single_distance_report(
    ctx: RingContext,
    j: int,
    oracle_cap: int = DEFAULT_ENUM_CAP,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> DistanceReport:
    """Report for one j: structural profile plus an oracle pass on this index only."""
    if not 0 <= j <= ctx.L:
        raise ValidationError("index j must satisfy 0 <= j <= L")
    check_caps(oracle_cap=oracle_cap)
    reports = full_distance_profile(ctx, oracle_cap=0, candidate_cap=candidate_cap)
    _oracle_pass(ctx, reports[j], oracle_cap)
    return reports[j]
