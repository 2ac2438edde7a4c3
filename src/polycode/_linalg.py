"""Bit-packed linear algebra over GF(2).

A matrix row is an int whose bit c is the entry in column c.  Rank, reduced
echelon form, null spaces, and span membership all work on lists of such ints.
One kernel, min_weight_affine, finds the minimum nonzero weight over an
affine span g ^ span(rows); the oracle, the reduced candidate sets and the
dual candidate sets all call it.  It builds a table of all combinations of the
low rows by doubling and walks the other rows in Gray-code order over it: on
plain ints (2^8-word table) up to 2^16 words, on numpy (2^16 words) beyond.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def parity_dot(a: int, b: int) -> int:
    """Inner product of two rows over GF(2)."""
    return (a & b).bit_count() & 1


def rank(rows: list[int]) -> int:
    """Rank of the row set."""
    basis: list[int] = []
    r = 0
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            r += 1
    return r


def rref(rows: list[int]) -> list[tuple[int, int]]:
    """Reduced echelon form as (pivot_column, row) pairs, highest pivot first."""
    pivots: list[tuple[int, int]] = []
    for v in rows:
        for c, b in pivots:
            if (v >> c) & 1:
                v ^= b
        if v == 0:
            continue
        c = v.bit_length() - 1
        pivots = [(pc, pr ^ v if (pr >> c) & 1 else pr) for pc, pr in pivots]
        pivots.append((c, v))
        pivots.sort(reverse=True)
    return pivots


def in_span(pivots: list[tuple[int, int]], word: int) -> bool:
    """Whether word lies in the row space described by rref output."""
    for c, b in pivots:
        if (word >> c) & 1:
            word ^= b
    return word == 0


def nullspace(rows: list[int], ncols: int) -> list[int]:
    """Basis of {v : parity_dot(r, v) == 0 for every row r}."""
    pivots = rref(rows)
    pivot_cols = {c for c, _ in pivots}
    out: list[int] = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = 1 << free
        for c, b in pivots:
            if (b >> free) & 1:
                v |= 1 << c
        out.append(v)
    for v in out:
        for r in rows:
            if parity_dot(r, v):
                raise AssertionError("nullspace vector fails orthogonality")
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

# Up to 2^16 words the walk XORs plain ints, though numpy is 10-30x faster from
# 2^12 words on: on a shared host numpy's speed drifts by up to +-20% against
# interpreted int code, so the commands' timings would not compare run to run.
_INT_TABLE = 8  # rows in the int table: 2^8 words, a few KB
_INT_WALK_MAX = 16
_SPLIT = 16  # rows in the numpy suffix table: 2^16 words, a few MB at most

_LUT16 = np.zeros(1 << 16, dtype=np.uint8)
for _b in range(16):  # popcount(i + 2^b) == popcount(i) + 1 for i < 2^b
    _LUT16[1 << _b : 2 << _b] = _LUT16[: 1 << _b] + 1


def _popcounts_lut(arr: np.ndarray) -> np.ndarray:
    v = _LUT16[np.ascontiguousarray(arr).view(np.uint16)]
    return v[..., 0::4] + v[..., 1::4] + v[..., 2::4] + v[..., 3::4]


# Element-wise popcount of a uint64 array; numpy < 2 has no bitwise_count.
_popcounts = np.bitwise_count if hasattr(np, "bitwise_count") else _popcounts_lut


def _weight_chunks(g: int, rows: list[int], nbits: int):
    """Yield (start, weights): weights[t] is the weight of g ^ combo(start + t).

    combo(i) is the XOR of rows[b] over the set bits b of i.  The low
    k_suf = min(k, _SPLIT) rows fill a table of all their combinations, built
    by doubling and weighed as it grows, so a light word near the start ends
    the walk early.  The other rows are walked in Gray-code order, one XOR
    into the whole table per step.  Word t sits in column t, one 64-bit lane
    per row: a sum along a short last axis would cost about 8x more.
    """
    k_suf = min(len(rows), _SPLIT)
    lanes = (nbits + 63) // 64
    raw = b"".join(w.to_bytes(8 * lanes, "little") for w in [g, *rows])
    words = np.frombuffer(raw, dtype="<u8").reshape(len(rows) + 1, lanes).T[:, :, None]
    suffix, prefix = words[:, 1 : k_suf + 1], words[:, k_suf + 1 :]

    def weigh(block: np.ndarray) -> np.ndarray:
        return _popcounts(block).sum(axis=0, dtype=np.uint32)

    tab = np.empty((lanes, 1 << k_suf), dtype=np.uint64)
    tab[:, :1] = words[:, 0]
    done = 0
    for i in range(k_suf + 1):
        if i == k_suf or (i >= _INT_TABLE and (i - _INT_TABLE) % 2 == 0):
            yield done, weigh(tab[:, done : 1 << i])  # first 2^8 words, then 4x more each time
            done = 1 << i
        if i < k_suf:
            np.bitwise_xor(tab[:, : 1 << i], suffix[:, i], out=tab[:, 1 << i : 2 << i])

    p = 0
    for i in range(1, 1 << (len(rows) - k_suf)):
        b = (i & -i).bit_length() - 1
        p ^= 1 << b
        tab ^= prefix[:, b]
        yield p << k_suf, weigh(tab)


def affine_weights(g: int, rows: list[int], nbits: int) -> np.ndarray:
    """Weight of the word g ^ combo(i) at index i, for every i < 2^len(rows)."""
    out = np.empty(1 << len(rows), dtype=np.uint32)
    for start, weights in _weight_chunks(g, rows, nbits):
        out[start : start + len(weights)] = weights
    return out


def min_weight_affine(g: int, rows: list[int], nbits: int, floor: int = 0) -> int | None:
    """Minimum nonzero weight over g ^ span(rows), or None when every word is zero.

    Words must fit in nbits.  floor is a proven lower bound on the answer: the
    walk may stop at the first word that light (0 walks every word).
    """
    none = nbits + 1  # heavier than any word
    best = none
    if len(rows) <= _INT_WALK_MAX:
        tab = [g]
        for r in rows[:_INT_TABLE]:
            tab += [w ^ r for w in tab]
        p, prefix = 0, rows[_INT_TABLE:]
        for i in range(1 << len(prefix)):
            p ^= prefix[(i & -i).bit_length() - 1] if i else 0
            best = min(best, min(filter(None, map(int.bit_count, map(p.__xor__, tab))), default=none))
            if best <= floor:
                break
    else:
        for _, weights in _weight_chunks(g, rows, nbits):
            # zero words wrap to 2^32 - 1 and drop out of the minimum
            best = min(best, int((weights - np.uint32(1)).min()) + 1)
            if best <= floor:
                break
    return best if best < none else None


def min_weight_span(rows: list[int], nbits: int) -> int:
    """Minimum Hamming weight over all nonzero words spanned by rows."""
    basis = [row for _, row in rref(list(rows))]
    if not basis:
        raise ValueError("empty span has no nonzero word")
    return min_weight_affine(0, basis, nbits, floor=1)  # type: ignore[return-value]


def min_weight_span_reference(rows: list[int]) -> int:
    """Slow itertools cross-check of min_weight_span, for tests."""
    best = None
    for size in range(1, len(rows) + 1):
        for combo in combinations(rows, size):
            w = 0
            for r in combo:
                w ^= r
            wt = w.bit_count()
            if wt and (best is None or wt < best):
                best = wt
    if best is None:
        raise ValueError("empty span has no nonzero word")
    return best
