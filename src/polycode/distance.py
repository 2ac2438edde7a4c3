"""Minimum Hamming distances of the chain codes C_j.

Every search but the direct oracle weighs one component of one split:
P^j = R(x^t) splits C_j into t interleaved components
D_i = {R*c : deg(R*c) < ceil((n - i)/t)} (codes.interleave), and
d(C_j) = d(D_0), the longest, of dimension k0 about k/t.  Four independent
sources feed one report per j:

* exact values on a lattice of "anchor" indices, the powers of two below
  2^T and ctx.tops (the upper anchors 2^T - 2^(T-r), whose first entry
  2^(T-1) is also a power of two), where D_0 is small: with s = 1 it is the
  paper's reduced candidate set P^j * a(x^B), B = j & -j, a of bounded
  degree (t = B, R = P^(j/B), k0 = lam), and with P = Q(x^s), s > 1, it is
  s times shorter.  D_0 is weighed there at every oracle cap; a set of more
  than the fixed DEFAULT_CANDIDATE_CAP (2^20) candidates is refused, as on
  the dual side, and its slot is left to the other sources;
* an exact oracle by information-set search, capped by the dimension it
  takes (oracle_cap, which bounds nothing else), run two ways: over the
  whole code, and on D_0 wherever t > 1 and k0 is within the cap (the
  spread source), which closes even j and every j on P = Q(x^s), s > 1, at
  k/t dimensions and checks the direct oracle where both run.  The spread
  skips an anchor whose D_0 answered, so each coset is weighed once;
* a small-weight kernel that decides min(d, 4) exactly from P^j alone, in
  O(n) steps and independent of k: the residues r_i = x^i mod P^j, i < n,
  give a weight-2 word x^a + x^b at a repeat r_a = r_b and a weight-3 word
  1 + x^a + x^b at r_a + r_b = 1 (a weight-3 word divided by its lowest power
  of x stays in C_j, so this is complete); with neither, d >= 4.  Since
  min(d, 4) never falls along the chain, the whole-chain profile binary-searches
  its two thresholds over the slots whose interval meets {2, 3}.  Every
  witness is checked by division.  It runs at every cap and after both
  oracle runs, so it checks every value they return below 4.  The paper's
  theorem for the head of the chain (d = 2 exactly while
  e * 2^ceil(log2 j) < n, e the order of x mod P) is its weight-2 case, so
  nothing here reads e;
* interval bounds everywhere else: weight witnesses wt(P^j), doubling lower
  bounds 2*d(anchor) from each upper anchor up to the next one (or L), and
  monotonicity along the chain (C_{j+1} inside C_j).  Where D_0 of the
  first anchor 2^(T-1) is over the candidate cap, the kernel's min(d, 4)
  there is the lower bound the doubling reads.

Each search weighs the k shifts of one word w as their lead coset
(codes.lead_coset) with the one kernel of _linalg (min_weight_affine): the
oracle w = P^j on n bits, and D_0, at the anchors and in the spread, w = R,
k = k0 on ceil(n/t) bits.
_structural_profile holds the anchors and the interval bounds over a window
[lo, hi] of the chain.  _search, the one search step, runs the oracle and
then weighs D_0.  Both flows take the sources in one order (structure, the
searches, the fuse, then the kernel), so `analyze --j` returns the whole
chain's slot, provenance included: full_distance_profile searches every j,
single_distance_report j and, while j is open, its neighbours out to the
nearest exact slot on each side, taking a neighbour's power P^i only where a
search runs (k0 <= oracle_cap).  full_distance_profile builds the structure
over [0, L] and walks the generators P^0..P^L once, one product by P per
step, and the weight witnesses, the searches and the kernel's probes all
read that one walk.  single_distance_report weighs the anchors outward from
j until one answers on each side, and builds the structure and streams the
walk over the window between those two alone (on x^2+x+1, L = 8191, j = 3:
11 anchors and P^1..P^1024, not 24 and P^1..P^8190); it holds no list of
its generators, so `analyze --j` stays within O(n) bits and checks no slot
outside its window.
Every bound is tagged; two sources that disagree raise InternalConsistencyError.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._linalg import min_weight_affine
from .codes import DEFAULT_CANDIDATE_CAP, DEFAULT_ENUM_CAP, Interleave, PolycyclicCode, chain, check_caps, code, interleave, lead_coset
from .errors import CapExceeded, InternalConsistencyError, ValidationError
from .gf2poly import degree, div_rem, substitute_power, weight
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
        raise CapExceeded(f"distance oracle: dimension {c.k} is over the oracle cap of {cap}; raise the cap")
    return min_weight_affine(*lead_coset(c.generator, c.k, c.n))  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# D_0, the longest interleave component: the anchors and the spread
# ---------------------------------------------------------------------------


def _d0_min(ctx: RingContext, iv: Interleave, R: int) -> int:
    """d(C_j) = d(D_0): the least weight of the lead coset of R = iv.R with k0 shifts on ceil(n/t) bits."""
    return min_weight_affine(*lead_coset(R, iv.k0, -(-ctx.n // iv.t)))  # type: ignore[return-value]


def _anchor_min(ctx: RingContext, j: int) -> int:
    """Exact d(C_j) at an anchor j from D_0, refused when its 2^(k0-1) candidates pass the fixed candidate cap.

    With s = 1, D_0 is the paper's reduced set P^j * a(x^B), B = j & -j, a of constant term 1 and degree
    below lam = ceil(m(L-j)/B), weighed as R * a on ceil(n/B) bits: t = B, R = P^(j/B), k0 = lam.  With
    s > 1 it is s times shorter.
    """
    iv = interleave(ctx, j)
    if 1 << (iv.k0 - 1) > DEFAULT_CANDIDATE_CAP:
        raise CapExceeded(f"reduced set has 2^{iv.k0 - 1} candidates, over the cap of {DEFAULT_CANDIDATE_CAP}")
    return _d0_min(ctx, iv, iv.R)


def lower_anchor_distance(ctx: RingContext, s: int) -> int:
    """Exact d(C_j) at j = 2^(T-s), 1 <= s <= T (an entry point by anchor parameter; the profile reads _anchor_min)."""
    if not 1 <= s <= ctx.T:
        raise ValidationError("anchor parameter s must satisfy 1 <= s <= T")
    return _anchor_min(ctx, 1 << (ctx.T - s))


def upper_anchor_distance(ctx: RingContext, r: int) -> int:
    """Exact d(C_j) at the upper anchor j = ctx.tops[r - 1] = 2^T - 2^(T-r), 1 <= r <= len(ctx.tops)."""
    if not 1 <= r <= len(ctx.tops):
        raise ValidationError(f"anchor parameter r must satisfy 1 <= r <= {len(ctx.tops)}")
    return _anchor_min(ctx, ctx.tops[r - 1])


# ---------------------------------------------------------------------------
# small weights: min(d, 4) from the residues x^i mod P^j
# ---------------------------------------------------------------------------


def _light_word(M: int, n: int) -> int | None:
    """A word of weight 2 in <M> of length n if there is one, else one of weight 3, else None.

    r_i = x^i mod M is x^i itself below D = deg M, so only the k = n - D
    residues from i = D on are stepped.  A repeat r_a = r_b gives x^a + x^b,
    and x is a unit mod M, so the first repeat is r_i = r_0 = 1.  With every
    r_i distinct, r_a + r_b = 1 (0 < a < b, so b >= D) gives 1 + x^a + x^b:
    r_b is 1 + x^a with a < D, or r_a + 1 is another stepped residue.  Any
    weight-3 word x^c * (1 + x^a + x^b) of length n has 1 + x^a + x^b in <M>
    too (M is prime to x), so finding none proves d >= 4.
    """
    D = degree(M)
    res = []
    r = 1 << (D - 1)
    for i in range(D, n):
        r <<= 1
        if r >> D:
            r ^= M
        if r == 1:
            return 1 | 1 << i
        res.append(r)
    # weight 3 only once no weight-2 word exists
    index = dict(zip(res, range(D, n)))
    for r, b in index.items():
        s = r ^ 1  # nonzero, as r != 1
        if not s & (s - 1):
            return 1 | s | 1 << b
        a = index.get(s)
        if a is not None:
            return 1 | 1 << a | 1 << b
    return None


def small_weight(c: PolycyclicCode) -> int:
    """min(d(C_j), 4) for 1 <= j <= L - 1, in O(n) steps whatever k is; each witness is checked by division."""
    word = _light_word(c.generator, c.n)
    if word is None:
        return 4
    if div_rem(word, c.generator)[1]:
        raise InternalConsistencyError(f"j={c.j}: weight-{weight(word)} witness is not a multiple of P^j")
    return weight(word)


def _last(pred, lo: int, hi: int, guess: int) -> int:
    """The largest j in [lo, hi) with pred(j), for pred true on a prefix; lo is taken as true without asking.

    A binary search whose first two probes are guess and guess + 1, so a right
    guess costs two calls of pred.  The guesses pay: over the 334 whole chains
    of the benchmark's chain-sweep seed 1, _small_weight_chain makes 1 154
    kernel calls (0.05 s on a 2-core x86 VM) where a plain bisection makes
    1 654 (0.07 s).
    """
    for mid in (guess, guess + 1):
        if lo < mid < hi:
            if pred(mid):
                lo = mid
            else:
                hi = mid
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _small_weight_chain(codes: list[PolycyclicCode], reports: list[DistanceReport]) -> None:
    """Settle min(d, 4) on every j in 1..L-1 whose interval meets {2, 3}, with O(log L) kernel calls.

    C_(j+1) lies in C_j, so min(d, 4) never falls along the chain: a binary
    search finds the last j with d = 2 and the last with d <= 3, probing first
    where the fused bounds put them, so those bounds are checked right at their
    edges.  The fused lower bounds make the slots a prefix of the chain; every
    one is set from the two thresholds, already exact ones included, which
    leaves the chain fused.  codes[j] is C_j, so a probe takes no power.
    """
    top = _last(lambda j: reports[j].lower <= 3, 0, len(codes) - 1, 0)
    memo: dict[int, int] = {}

    def d4(j: int) -> int:
        if j not in memo:
            memo[j] = small_weight(codes[j])
        return memo[j]

    guess = _last(lambda j: reports[j].upper <= 2, 0, top + 1, 0)
    two = _last(lambda j: d4(j) == 2, 0, top + 1, guess)
    # the first search's probes already bracket the second threshold
    lo = max([two] + [j for j, d in memo.items() if d == 3])
    hi = min([top + 1] + [j for j, d in memo.items() if d == 4])
    guess = _last(lambda j: reports[j].upper <= 3, lo, hi, lo)
    three = _last(lambda j: d4(j) <= 3, lo, hi, guess)
    for j in range(1, top + 1):
        _apply_small_weight(reports[j], 2 if j <= two else 3 if j <= three else 4)


def _apply_small_weight(rep: DistanceReport, d4: int) -> None:
    if d4 < 4:
        rep.set_exact(d4, f"weight-{d4}")
    else:
        rep.raise_lower(4, "no-weight-3")


# ---------------------------------------------------------------------------
# profile assembly
# ---------------------------------------------------------------------------


def monotone_fuse(reports: list[DistanceReport]) -> None:
    """Push lower bounds forward and upper bounds backward along the chain."""
    for j in range(1, len(reports)):
        reports[j].raise_lower(reports[j - 1].lower, "monotone")
    for j in range(len(reports) - 2, -1, -1):
        reports[j].cut_upper(reports[j + 1].upper, "monotone")


def _anchors(ctx: RingContext) -> list[int]:
    """The anchor lattice in ascending order: the powers of two below 2^T and the upper anchors ctx.tops."""
    return sorted({1 << i for i in range(ctx.T)} | set(ctx.tops))


def _anchor_or_none(ctx: RingContext, j: int, weighed: dict[int, int | None]) -> int | None:
    """d(C_j) at the anchor j from D_0, or None where its set is over the candidate cap; weighed once, kept in weighed."""
    if j not in weighed:
        try:
            weighed[j] = _anchor_min(ctx, j)
        except CapExceeded:
            weighed[j] = None
    return weighed[j]


def _structural_profile(
    ctx: RingContext, lo: int, hi: int, codes: Iterable[PolycyclicCode], weighed: dict[int, int | None]
) -> list[DistanceReport]:
    """Reports for j = lo..hi, 0 <= lo <= hi <= L, from structure alone: anchors, weight witnesses and doubling bounds, fused.

    reports[i] is slot lo + i.  codes yields C_j for every j in [lo, hi] with 0 < j < L, in order, each read
    once: a list or a stream.  weighed holds the anchors already weighed (_anchor_or_none) and takes the rest.
    The whole chain passes [0, L].  A window whose ends are exact (or 0 and L) reads the whole chain's
    structure on every slot inside it: d never falls along the chain, so no slot outside moves one inside; no
    anchor lies strictly between two consecutive tops (every power of two is at most tops[0]), so every
    doubling that reaches the window starts at a top inside it; and the kernel runs at tops[0] only there.
    """
    L, n, tops = ctx.L, ctx.n, ctx.tops
    reports = [DistanceReport(j, 1, n) for j in range(lo, hi + 1)]
    if lo == 0:
        reports[0].set_exact(1, "full-space")
    if hi == L:
        reports[-1].set_exact(n, "zero-code")

    # exact anchors from D_0 (skipped when over the cap): the powers of two below 2^T and the upper anchors
    for j in _anchors(ctx):
        if lo <= j <= hi and (d := _anchor_or_none(ctx, j, weighed)) is not None:
            reports[j - lo].set_exact(d, "reduced-set")

    # weight witnesses; the doubling reads d(tops[0]): where its reduced set is over the cap, the kernel's
    # min(d, 4) bounds it, from below only, so the oracle still runs there and the last kernel pass checks it
    for c in codes:
        rep = reports[c.j - lo]
        rep.cut_upper(weight(c.generator), "weight-witness")
        if c.j == tops[0] and not rep.exact:
            d4 = small_weight(c)
            rep.raise_lower(d4, f"weight-{d4}" if d4 < 4 else "no-weight-3")

    # doubling lower bounds: every index past an upper anchor, up to the next (or L), gets 2*d(anchor)
    for a, nxt in zip(tops, tops[1:] + (L,)):
        if lo <= a <= hi:
            for jj in range(a + 1, min(nxt, hi + 1)):
                reports[jj - lo].raise_lower(2 * reports[a - lo].lower, "double-bound")

    monotone_fuse(reports)
    return reports


def full_distance_profile(ctx: RingContext, oracle_cap: int = DEFAULT_ENUM_CAP) -> list[DistanceReport]:
    """Best-known distance report for every j = 0..L, cross-checked along the way."""
    check_caps(oracle_cap=oracle_cap)
    codes = list(chain(ctx, 0, ctx.L + 1))  # the one walk: codes[j] is C_j
    inner = codes[1:-1]
    reports = _structural_profile(ctx, 0, ctx.L, inner, {})
    for c in inner:
        _search(c, reports[c.j], oracle_cap)
    monotone_fuse(reports)
    # last, min(d, 4) by the small-weight kernel, which checks every value the searches returned
    _small_weight_chain(codes, reports)
    return reports


def _search(c: PolycyclicCode, rep: DistanceReport, ocap: int) -> None:
    """The searches on C_j, 1 <= j <= L - 1, each within the oracle cap; set_exact checks every value they return.

    The direct oracle closes an open slot when k <= ocap.  D_0, C_j's longest
    interleave component, is then weighed when t > 1 and k0 <= ocap (never at
    cap 0: k0 >= 1): on an open slot, to close it, and on one within the
    oracle's reach, where d(D_0) must equal the exact value.  An anchor whose
    D_0 answered (its tag is on the report) is not weighed again: each coset
    is weighed once.
    """
    if not rep.exact and c.k <= ocap:
        rep.set_exact(min_distance_bruteforce(c, cap=ocap), "oracle")
    if "reduced-set" in rep.provenance or rep.exact and c.k > ocap:
        return
    iv = interleave(c.ctx, c.j)
    if iv.t == 1 or iv.k0 > ocap:
        return
    R = iv.R
    if substitute_power(R, iv.t) != c.generator:
        raise InternalConsistencyError(f"j={c.j}: R(x^{iv.t}) is not P^j")
    rep.set_exact(_d0_min(c.ctx, iv, R), f"spread-t{iv.t}")


def single_distance_report(ctx: RingContext, j: int, oracle_cap: int = DEFAULT_ENUM_CAP) -> DistanceReport:
    """The whole chain's report at j, from the structure between the nearest exact anchors around j and the searches.

    The order is full_distance_profile's.  The anchors are weighed outward
    from j until one answers on each side: lo is the last answered anchor at
    or below j (or 0), hi the first at or above j (or L), and the structure,
    the walk C_lo..C_hi and the fuse cover [lo, hi] alone, which reads the
    whole chain's structure there (_structural_profile).  The searches run
    on j; while j is open, they walk up from j + 1 and down from j - 1, each
    side stopping at its first exact slot, inside [lo, hi], and the window
    is fused.  A neighbour's code is built and searched only where
    k0 <= oracle_cap (k0 = k where t = 1), the one place _search works, and a
    searched slot always ends exact.  d never falls along the chain, so no
    slot past those two can tighten j.  Last, where j's lower bound is at
    most 3, the kernel settles min(d, 4) at j, as the chain's kernel pass
    does, and no neighbour's min(d, 4) can tighten it.  Slots outside
    [lo, hi] are neither computed nor checked; every check on a value the
    answer reads still runs (lo and hi meet their weight witnesses, the
    doubling and the fuse run across the window).
    """
    L = ctx.L
    if not 0 <= j <= L:
        raise ValidationError("index j must satisfy 0 <= j <= L")
    check_caps(oracle_cap=oracle_cap)
    weighed: dict[int, int | None] = {}
    ends = [0, *_anchors(ctx), L]

    def answered(a: int) -> bool:
        return a in (0, L) or _anchor_or_none(ctx, a, weighed) is not None

    lo = next(a for a in reversed(ends) if a <= j and answered(a))
    hi = next(a for a in ends if a >= j and answered(a))
    reports = _structural_profile(ctx, lo, hi, chain(ctx, max(lo, 1), min(hi + 1, L)), weighed)
    rep = reports[j - lo]
    if 0 < j < L:
        c = code(ctx, j)
        _search(c, rep, oracle_cap)
        if not rep.exact:
            for side in (range(j + 1, min(hi + 1, L)), range(j - 1, max(lo - 1, 0), -1)):
                for i in side:
                    if interleave(ctx, i).k0 <= oracle_cap:
                        _search(code(ctx, i), reports[i - lo], oracle_cap)
                    if reports[i - lo].exact:
                        break
            monotone_fuse(reports)
        if rep.lower <= 3:
            _apply_small_weight(rep, small_weight(c))
    return rep
