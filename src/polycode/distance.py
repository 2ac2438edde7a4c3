"""Minimum Hamming distances of the chain codes C_j.

Three independent sources feed one report per j:

* a brute-force oracle that walks the whole code (capped, for cross-checks
  and small dimensions);
* exact values on a lattice of "anchor" indices, where the minimum is
  attained inside a small reduced candidate set P^j * a(x^B) with B a power
  of two and a running over constant-term-1 polynomials of bounded degree;
* interval bounds everywhere else: a head-zone classification driven by the
  order e of x mod P, weight witnesses wt(P^j), doubling lower bounds on the
  tail, and monotonicity along the chain (C_{j+1} inside C_j).

The oracle and the reduced sets are both minima over an affine span of
words, taken by the one enumeration kernel of _linalg (min_weight_affine).
full_distance_profile fuses all of it, tags every bound with its source, and
raises InternalConsistencyError the moment two sources disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._linalg import min_weight_affine, min_weight_span
from .codes import DEFAULT_CANDIDATE_CAP, PolycyclicCode, code, default_cap, generator_rows
from .errors import CapExceeded, InternalConsistencyError, ValidationError, WrongRegime
from .gf2poly import weight
from .ring import RingContext


@dataclass
class DistanceReport:
    """Best known bounds on d(C_j), with the source of every improvement."""

    j: int
    lower: int
    upper: int
    provenance: list[str] = field(default_factory=list)

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
# brute-force oracle
# ---------------------------------------------------------------------------


def min_distance_bruteforce(c: PolycyclicCode, cap: int | None = None) -> int:
    """Exact d(C_j) by enumerating the full code (k must stay within the cap)."""
    if c.j == c.ctx.L:
        raise ValidationError("the zero code has no nonzero word, hence no distance")
    cap = default_cap() if cap is None else cap
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


def _reduced_set_min(ctx: RingContext, j: int, B: int, candidate_cap: int | None) -> int:
    """Min weight of P^j * a(x^B) over constant-term-1 a of degree < lam = ceil(m(L-j)/B)."""
    cap = DEFAULT_CANDIDATE_CAP if candidate_cap is None else candidate_cap
    lam = -(-(ctx.m * (ctx.L - j)) // B)
    if 1 << (lam - 1) > cap:
        raise CapExceeded(f"reduced set has 2^{lam - 1} candidates, over the cap of {cap}")
    g = ctx.P_pows[j]
    rows = [g << (B * t) for t in range(1, lam)]
    # floor 2: no chain code with j >= 1 goes below 2; a nonzero g leaves no zero word
    return min_weight_affine(g, rows, ctx.n, floor=2)  # type: ignore[return-value]


def lower_anchor_distance(ctx: RingContext, s: int, candidate_cap: int | None = None) -> int:
    """Exact d(C_j) at j = 2^(T-s), 1 <= s <= T."""
    if not 1 <= s <= ctx.T:
        raise ValidationError("anchor parameter s must satisfy 1 <= s <= T")
    j = 1 << (ctx.T - s)
    return _reduced_set_min(ctx, j, j, candidate_cap)


def upper_anchor_distance(ctx: RingContext, r: int, candidate_cap: int | None = None) -> int:
    """Exact d(C_j) at j = 2^T - 2^(T-r); needs L at the top of its window or in its upper part."""
    if ctx.regime == "pow2":
        rmax = ctx.T
    elif ctx.regime == "high":
        rmax = ctx.R  # type: ignore[assignment]
    else:
        raise WrongRegime("upper anchors need L == 2^T or L above 3*2^(T-2)")
    if not 1 <= r <= rmax:
        raise ValidationError(f"anchor parameter r must satisfy 1 <= r <= {rmax}")
    B = 1 << (ctx.T - r)
    return _reduced_set_min(ctx, (1 << ctx.T) - B, B, candidate_cap)


def plateau_bounds(ctx: RingContext, r: int, i: int, candidate_cap: int | None = None) -> tuple[int, int]:
    """Bounds 2*d(anchor r) <= d <= d(anchor r+1) for j = (2^T - 2^(T-r)) + i."""
    if ctx.regime == "pow2":
        rmax = ctx.T - 1
    elif ctx.regime == "high":
        rmax = ctx.R - 1  # type: ignore[operator]
    else:
        raise WrongRegime("plateau bounds need L == 2^T or L above 3*2^(T-2)")
    if not 1 <= r <= rmax:
        raise ValidationError(f"plateau parameter r must satisfy 1 <= r <= {rmax}")
    if not 1 <= i <= 1 << (ctx.T - r - 1):
        raise ValidationError("plateau offset i out of range")
    return (
        2 * upper_anchor_distance(ctx, r, candidate_cap),
        upper_anchor_distance(ctx, r + 1, candidate_cap),
    )


def tail_lower_bound(ctx: RingContext, i: int, candidate_cap: int | None = None) -> int:
    """Lower bound 2*d(last anchor) for the unanchored tail j = (L - L') + i, i < L'."""
    if ctx.regime == "pow2":
        raise WrongRegime("no unanchored tail when L == 2^T")
    if not 1 <= i < (ctx.L_prime or 1):
        raise ValidationError("tail offset i must satisfy 1 <= i < L'")
    if ctx.regime == "low":
        return 2 * lower_anchor_distance(ctx, 1, candidate_cap)
    return 2 * upper_anchor_distance(ctx, ctx.R, candidate_cap)  # type: ignore[arg-type]


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
    oracle_cap: int | None = None,
    candidate_cap: int | None = None,
) -> list[DistanceReport]:
    """Best-known distance report for every j = 0..L, cross-checked along the way."""
    ocap = default_cap() if oracle_cap is None else oracle_cap
    L, T, m, n = ctx.L, ctx.T, ctx.m, ctx.n
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
    if ctx.regime in ("pow2", "high"):
        rmax = T if ctx.regime == "pow2" else ctx.R
        for r in range(1, rmax + 1):
            j = (1 << T) - (1 << (T - r))
            try:
                reports[j].set_exact(upper_anchor_distance(ctx, r, candidate_cap), "reduced-set")
            except CapExceeded:
                pass

    # weight witnesses
    for j in range(1, L):
        reports[j].cut_upper(weight(ctx.P_pows[j]), "weight-witness")

    # doubling lower bounds past each anchor
    if ctx.regime == "pow2":
        for r in range(1, T):
            a = (1 << T) - (1 << (T - r))
            nxt = (1 << T) - (1 << (T - r - 1))
            for jj in range(a + 1, nxt):
                reports[jj].raise_lower(2 * reports[a].lower, "double-bound")
    elif ctx.regime == "low":
        a = 1 << (T - 1)
        for jj in range(a + 1, L):
            reports[jj].raise_lower(2 * reports[a].lower, "double-bound")
    else:
        for r in range(1, ctx.R):  # type: ignore[arg-type]
            a = (1 << T) - (1 << (T - r))
            nxt = (1 << T) - (1 << (T - r - 1))
            for jj in range(a + 1, nxt):
                reports[jj].raise_lower(2 * reports[a].lower, "double-bound")
        a = (1 << T) - (1 << (T - ctx.R))  # type: ignore[operator]
        for jj in range(a + 1, L):
            reports[jj].raise_lower(2 * reports[a].lower, "double-bound")

    monotone_fuse(reports)

    # oracle pass over whatever is still open and small enough
    for j in range(1, L):
        rep = reports[j]
        if rep.exact or m * (L - j) > ocap:
            continue
        d = min_distance_bruteforce(code(ctx, j), cap=ocap)
        if not rep.lower <= d <= rep.upper:
            raise InternalConsistencyError(
                f"j={j}: oracle distance {d} outside the proven interval [{rep.lower}, {rep.upper}]"
            )
        rep.set_exact(d, "oracle")
    monotone_fuse(reports)
    return reports


def single_distance_report(
    ctx: RingContext,
    j: int,
    oracle_cap: int | None = None,
    candidate_cap: int | None = None,
) -> DistanceReport:
    """Report for one j: structural profile plus an oracle pass on this index only."""
    if not 0 <= j <= ctx.L:
        raise ValidationError("index j must satisfy 0 <= j <= L")
    ocap = default_cap() if oracle_cap is None else oracle_cap
    reports = full_distance_profile(ctx, oracle_cap=0, candidate_cap=candidate_cap)
    rep = reports[j]
    if not rep.exact and ctx.m * (ctx.L - j) <= ocap:
        d = min_distance_bruteforce(code(ctx, j), cap=ocap)
        if not rep.lower <= d <= rep.upper:
            raise InternalConsistencyError(
                f"j={j}: oracle distance {d} outside the proven interval [{rep.lower}, {rep.upper}]"
            )
        rep.set_exact(d, "oracle")
    return rep
