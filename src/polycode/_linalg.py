"""Bit-packed linear algebra over GF(2).

A matrix row is an int whose bit c is the entry in column c.  Rank, reduced
echelon form and null spaces all work on lists of such ints.
Elimination reduces each row against a table of basis rows keyed by leading
bit; rref then back-substitutes once, lowest pivot first.  nullspace checks
every basis vector against every row through the columns of the rows, each a
mask over the rows.
One kernel, min_weight_affine, finds the minimum nonzero weight over an
affine span g ^ span(rows) from those words alone.  Every exact search calls
it on the lead coset of the shifts of one word (codes.lead_coset): the
oracle, the longest interleave component D_0 (at the anchors and in the
spread), the dual oracle and the dual's shortest interleave component;
min_weight_span is the same kernel on a linear span.  It answers an int:
an all-zero coset has no nonzero word, and raises ValueError.
It takes one of two walks, whichever its inputs say costs less: the
Gray-code walk, gray_walk, which yields the 2^k words one at a time (the dual
candidate weights and the two half walks of the LCD criterion's
meet-in-the-middle check read it too), or Brouwer-Zimmermann's information-set
search on plain ints, exact at a cost that grows with the answer, not with
2^k.  The choice is made before d is known, so the search counts the words it
weighs and hands over to gray_walk once they pass 2^k, the cost of the whole
walk.  At every level of the search each XOR of w-2 of a set's rows meets the
XORs of the row pairs past its last row.  Where the pair XORs of all sets
together fit PAIR_TABLE_BITS, each set keeps them in one list, last row first,
so those past a head are a prefix slice of it; over that budget they stream
and no level holds a table.  One loop weighs either kind of tail.  The
search's lower bound counts the bits that g holds on the columns no row
reaches, which every word of the coset holds too: every oracle and D_0 coset
has at least g's top bit there.
No elimination is started that cannot reach full rank: the information sets
stop once fewer than k of the span's columns are left free, and the first
set of consecutive shifts (every uncut lead coset) is built by a k-step
recurrence, not eliminated.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce
from itertools import accumulate, combinations, starmap
from operator import or_, xor

from .errors import InternalConsistencyError

PAIR_TABLE_BITS = 1 << 20  # budget for the pair tables of one search's sets together
PAIR_OVERHEAD_BITS = 384  # a pair's cost past its n bits: an int's 24-byte header, its 8-byte list slot, and slack


def _pivots(rows: list[int], free: int) -> dict[int, int]:
    """Echelon form of rows as {pivot column: row}, pivots restricted to the columns of the mask free (-1: all)."""
    lead: dict[int, int] = {}
    for v in rows:
        while live := v & free:
            c = live.bit_length() - 1
            if c not in lead:
                lead[c] = v
                break
            v ^= lead[c]
    return lead


def rank(rows: list[int]) -> int:
    """Rank of the row set."""
    return len(_pivots(rows, -1))


def _reduce_pivots(lead: dict[int, int]) -> dict[int, int]:
    """Back-substitute an echelon table: each row keeps no pivot column but its own."""
    # lowest pivot first: a reduced row holds no pivot column but its own,
    # so clearing one pivot bit never sets another
    reduced: dict[int, int] = {}
    below = 0  # mask of the pivot columns already reduced
    for c in sorted(lead):
        v = lead[c]
        hits = v & below
        while hits:
            low = hits & -hits
            v ^= reduced[low.bit_length() - 1]
            hits ^= low
        reduced[c] = v
        below |= 1 << c
    return reduced


def rref(rows: list[int]) -> list[tuple[int, int]]:
    """Reduced echelon form as (pivot_column, row) pairs, highest pivot first."""
    return sorted(_reduce_pivots(_pivots(rows, -1)).items(), reverse=True)


def nullspace(rows: list[int], ncols: int) -> list[int]:
    """Basis of {v : (r & v).bit_count() is even for every row r}, one vector per free column.

    Every basis vector is checked against every row, transposed: column c of
    the rows as a mask over the rows, so v's parities with all rows at once are
    the XOR of those masks over v's set bits.
    """
    pivots = rref(rows)
    free_mask = (1 << ncols) - 1
    for c, _ in pivots:
        free_mask &= ~(1 << c)
    basis = [1 << f for f in range(ncols)]  # basis[f] is v_f for each free column f
    for c, b in pivots:  # v_f holds pivot column c when b has free column f
        rest, bit = b & free_mask, 1 << c
        while rest:
            low = rest & -rest
            basis[low.bit_length() - 1] |= bit
            rest ^= low
    out = [v for f, v in enumerate(basis) if (free_mask >> f) & 1]

    columns = [0] * max([ncols, *(r.bit_length() for r in rows)])
    bit = 1
    for r in rows:
        while r:
            low = r & -r
            columns[low.bit_length() - 1] |= bit
            r ^= low
        bit <<= 1
    for v in out:
        parities = 0
        while v:
            low = v & -v
            parities ^= columns[low.bit_length() - 1]
            v ^= low
        if parities:
            raise InternalConsistencyError("nullspace vector fails orthogonality")
    return out


def column_kernel(cols: list[int]) -> list[int]:
    """Basis of dependencies among columns: masks k with XOR of cols[i] over set bits == 0."""
    lead: dict[int, tuple[int, int]] = {}  # leading bit -> (reduced column, combination)
    kernel: list[int] = []
    for i, col in enumerate(cols):
        v, mask = col, 1 << i
        while v:
            hit = lead.get(v.bit_length())
            if hit is None:
                lead[v.bit_length()] = (v, mask)
                break
            v ^= hit[0]
            mask ^= hit[1]
        else:
            kernel.append(mask)
    return kernel


# ---------------------------------------------------------------------------
# minimum nonzero weight over an affine span: the one enumeration kernel
# ---------------------------------------------------------------------------


def gray_walk(g: int, rows: list[int]) -> Iterator[int]:
    """The 2^k words of g ^ span(rows), k = len(rows), in Gray-code order, one at a time.

    The word at position t is g ^ combo(t ^ (t >> 1)), combo(i) the XOR of
    rows[b] over the set bits b of i, so each word differs from the last by
    one step: rows[b], b the lowest set bit of t.  The ruler of steps holds
    2^k - 1 references to the k rows; no word is kept once the next is made.
    """
    steps: list[int] = []
    for r in rows:
        steps = [*steps, r, *steps]
    return accumulate(steps, xor, initial=g)


def _information_sets(rows: list[int]) -> list[dict[int, int]]:
    """Disjoint information sets of span(rows), each as systematic rows {pivot column: row}.

    Each set eliminates with pivots restricted to the span's columns no earlier
    set took (_pivots, which rank and rref call with the mask -1), so its rows
    are a basis of the span with the identity on its pivot columns.  The list
    ends at the first set of rank below the span's, or, without eliminating,
    once fewer than k columns are left free, since k pivots need k columns.

    Where the rows are consecutive shifts, rows[i] == rows[0] << i with no bit
    cut off, set 0 is built without elimination.  Row i's top bit is D + i, D
    that of rows[0], so the elimination takes each row as it comes, pivot
    D + i: set 0's pivot columns are the window [D, D + k), and its systematic
    rows, unique for those pivots, are u_0 = rows[0] and u_i = u_{i-1} << 1,
    with rows[0] XORed in where that sets bit D.  (u_{i-1} is zero on columns
    D..D+i-2, so the shift is zero on D+1..D+i-1, and rows[0] clears bit D
    without touching a column above it.)  The sets after it are those the
    elimination leads to.
    """
    sets: list[dict[int, int]] = []
    free = reduce(or_, rows, 0)  # the span's support
    k, first = len(rows), rows[0] if rows else 0
    if first and all(r == first << i for i, r in enumerate(rows)):
        # consecutive shifts: set 0 is the window [D, D + k) from first's top bit D, by recurrence
        D, u, piv = first.bit_length() - 1, first, {}
        for c in range(D, D + k):
            piv[c] = u
            u <<= 1
            if u >> D & 1:
                u ^= first
        sets.append(piv)
        rows = list(piv.values())
        free ^= (1 << k) - 1 << D
    while True:
        if sets and free.bit_count() < len(rows):
            return sets
        lead = _pivots(rows, free)
        if not lead or (sets and len(lead) < len(rows)):
            return sets
        sets.append(_reduce_pivots(lead))
        rows = list(sets[-1].values())
        free ^= sum(1 << c for c in lead)


def _pair_table(R: list[int]) -> list[int]:
    """The XORs of the row pairs of R, last row first: the pairs of the rows past R[a] are its first C(k-1-a, 2)."""
    return [R[a] ^ r for a in range(len(R) - 2, -1, -1) for r in R[a + 1:]]


def _level(g: int, R: list[int], w: int, pairs: list[int] | None):
    """Yield (x, tail, size): the words x ^ t, t in tail, are g ^ (XOR of w rows of R), each once.

    tail holds size words.  Level 1 yields once: x = g and the rows.  Level
    w >= 2 yields once per head, an XOR of w-2 rows (level 2's is empty):
    x = g ^ head and the XORs of the row pairs past the head's last row.
    Given R's _pair_table as pairs, that tail is the table's prefix of size
    words, a list; without it, the tail is a stream and no level builds a
    table.
    """
    k = len(R)
    if w == 1:
        yield g, R, k
        return
    for head in combinations(range(k - 2), w - 2):
        rest = k - 1 - head[-1] if head else k  # the rows past the head
        size = rest * (rest - 1) // 2
        tail = starmap(xor, combinations(R[k - rest:], 2)) if pairs is None else pairs[:size]
        yield reduce(xor, map(R.__getitem__, head), g), tail, size


def _information_set_search(g: int, rows: list[int]) -> int:
    """Minimum nonzero weight over g ^ span(rows), rows nonzero, by Brouwer-Zimmermann's search.

    The search runs over N disjoint information sets of the span, with rank
    k.  Per set, g's bits on the set's pivot columns are cleared against its
    systematic rows; then g ^ (XOR of w of those rows) are exactly the words
    with w bits on the set.  Levels w = 0, 1, ... run over every set in turn.
    Once level w has run on sets 0..i-1 and level w-1 on the rest, a word not
    yet seen has at least w+1 bits on each of those i sets and w on each other
    set.  It also holds the f bits that g has on the columns no row touches:
    every word of g ^ span(rows) equals g there, and no set holds such a
    column, since each set's pivots lie in the rows' support.  So an unseen
    word weighs at least N*w + i + f, and the search stops when the lightest
    word found is that light.  On an oracle or D_0 coset f >= 1, since g's
    top bit lies past every row.  Level w >= 2 runs depth-first (_level):
    each XOR of w-2 rows meets the pair XORs past its last row, level 2's
    empty head all C(k, 2) pairs, so no level is held whole.  Where the N
    sets' pair XORs fit PAIR_TABLE_BITS together, each pair priced at its n
    bits and PAIR_OVERHEAD_BITS more, each set builds its _pair_table as
    level 2 reaches it, and every head's tail is a prefix slice of that list;
    otherwise every tail is a stream and no table is built.  Either way each
    head weighs the same words, in one loop, and the search stops and hands
    over only between heads, so both kinds of tail make the same stops.

    The search counts the words it weighs.  Once they pass 2^k, the cost of
    the whole Gray-code walk over the first set's k rows, it hands over to
    that walk, which is exact too: so a d larger than the set-up rule of
    min_weight_affine foresaw costs at most about twice the walk, not the
    levels a proof of that d needs.
    """
    n = max(map(int.bit_length, [g, *rows]))  # n + 1 is heavier than any word
    sets = _information_sets(rows)
    k, N = len(sets[0]), len(sets)
    f = (g & ~reduce(or_, rows, 0)).bit_count()  # g's bits on the columns no row touches
    # per set: g with its bits on the pivot columns cleared, and the set's rows
    starts = [(reduce(xor, (r for c, r in piv.items() if g >> c & 1), g), list(piv.values())) for piv in sets]
    tabled = N * (k * (k - 1) // 2) * (n + PAIR_OVERHEAD_BITS) <= PAIR_TABLE_BITS
    pairs: list[list[int] | None] = [None] * N  # each set's _pair_table, built as level 2 reaches it
    best = min(filter(None, (gs.bit_count() for gs, _ in starts)), default=n + 1)  # level 0
    weighed = 0
    for w in range(1, k + 1):
        for i, (gs, R) in enumerate(starts):
            stop = N * w + i + f
            if best <= stop:
                return best
            if w == 2 and tabled:
                pairs[i] = _pair_table(R)
            for x, tail, size in _level(gs, R, w, pairs[i]):
                for t in tail:
                    weight = (x ^ t).bit_count()
                    if weight < best:
                        best = weight
                if best <= stop:
                    return best
                weighed += size
                if weighed > 1 << k:
                    return _walk_min(g, starts[0][1])
    return best


def min_weight_affine(g: int, rows: list[int]) -> int:
    """Minimum nonzero weight over g ^ span(rows); a coset whose every word is zero raises ValueError.

    With k nonzero rows, n bits in the longest word and N = max(1, n // k),
    the information-set search's own set-up is N eliminations and level 2's
    k(k-1)/2 pair words per set, N*(k^2 + k(k-1)/2) steps.  Where 2^k is no
    more than that, or there are no rows, gray_walk weighs every word;
    otherwise _information_set_search runs.  The rule cannot foresee d: where
    d is large, the search's levels cost more than the walk, so the search
    hands over to gray_walk once the words it has weighed pass 2^k.
    """
    rows = list(filter(None, rows))
    k = len(rows)
    if k and 1 << k > max(1, max(map(int.bit_length, [g, *rows])) // k) * (k * k + k * (k - 1) // 2):
        return _information_set_search(g, rows)
    return _walk_min(g, rows)


def _walk_min(g: int, rows: list[int]) -> int:
    """Minimum nonzero weight over the words of gray_walk(g, rows); ValueError where every word is zero."""
    return min(filter(None, map(int.bit_count, gray_walk(g, rows))))


def min_weight_span(rows: list[int]) -> int:
    """Minimum Hamming weight over all nonzero words spanned by rows; an all-zero span raises ValueError first."""
    if not any(rows):
        raise ValueError("empty span has no nonzero word")
    return min_weight_affine(0, rows)

