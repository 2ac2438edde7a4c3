"""Seeded inputs for the benchmark workloads.

Nothing here imports polycode: the benchmark's own small GF(2)[x] routines
pick the rings, so a change to polycode's arithmetic can neither move the
set-up time nor change the inputs.

Each workload is a fixed template of op slots.  A slot names a command, a
degree m, an exponent L, an index j and a *cost class* of irreducible
polynomials; the seed picks one member of every class and shuffles the slots.
Members of a class cost about the same to analyse, so every seed asks for
about the same amount of work while naming different rings (chain-sweep gives
each member its own slot, see _chain_sweep):

* for degree <= 8 a class is a reciprocal pair {P, x^m P(1/x)}, whose codes
  are the coordinate reversals of each other (same n, k, d and hull, same
  enumeration sizes);
* for the wide rings (degree 17-18) a class is "degree m with order e", and
  the ring set-up cost is driven by e (polycode divides x^e + 1 by P).

No (P, L) repeats within a run, so an in-process cache inside polycode could
not win on repeats that separate CLI invocations never see.
"""

from __future__ import annotations

import random
from typing import NamedTuple

COMMANDS = ("analyze", "dual", "lcd")

# Caps passed on every op, so no workload depends on the caller's environment.
# The oracle cap is 20: above k = 20 the oracle's time goes to numpy's
# meet-in-the-middle walk, whose speed on a shared host moves by up to 2x
# against that of pure-Python code (no calibration loop tracked it), so a run
# could not be compared with another one.  Up to k = 20 the walk has at most
# 16 prefix steps and the oracle's time goes to building its suffix table.
ORACLE_CAP = 20
CANDIDATE_CAP = 1 << 20
DIM_CAP = 4096

# The conjecture op of lcd-scan scans the trinomials x^(2*3^v) + x^(3^v) + 1 for
# v <= CONJ_VMAX at L = 2^T for T <= CONJ_TMAX; lcd ops avoid those rings.
CONJ_VMAX, CONJ_TMAX = 1, 5


# ---------------------------------------------------------------------------
# GF(2)[x] on int bit masks (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------


def clmul(a: int, b: int) -> int:
    out = 0
    while a:
        if a & 1:
            out ^= b
        a >>= 1
        b <<= 1
    return out


def _mod(a: int, f: int) -> int:
    df = f.bit_length()
    while a.bit_length() >= df:
        a ^= f << (a.bit_length() - df)
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _pow_x(e: int, f: int) -> int:
    """x^e mod f."""
    out, base = 1, _mod(2, f)
    while e:
        if e & 1:
            out = _mod(clmul(out, base), f)
        base = _mod(clmul(base, base), f)
        e >>= 1
    return out


def _primes(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: int) -> bool:
    """Rabin's test: x^(2^m) = x mod f, and gcd(x^(2^(m/q)) - x, f) = 1 for primes q | m."""
    m = f.bit_length() - 1
    if m < 1 or not f & 1:
        return m == 1
    frob = [2]  # frob[i] = x^(2^i) mod f
    for _ in range(m):
        frob.append(_mod(clmul(frob[-1], frob[-1]), f))
    if frob[m] != _mod(2, f):
        return False
    return all(_gcd(f, frob[m // q] ^ 2) == 1 for q in _primes(m))


def order(f: int) -> int:
    """Multiplicative order of x modulo an irreducible f (a divisor of 2^m - 1)."""
    e = (1 << (f.bit_length() - 1)) - 1
    for p in _primes(e):
        while e % p == 0 and _pow_x(e // p, f) == 1:
            e //= p
    return e


def reciprocal(f: int) -> int:
    return int(format(f, "b")[::-1], 2)


def poly_text(f: int) -> str:
    terms = []
    for i in range(f.bit_length() - 1, -1, -1):
        if f >> i & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


def reciprocal_classes(m: int) -> list[tuple[int, ...]]:
    """Irreducibles of degree m grouped into reciprocal pairs, in a fixed order."""
    seen: set[int] = set()
    out = []
    for f in range((1 << m) | 1, 1 << (m + 1), 2):
        if f in seen or not is_irreducible(f):
            continue
        pair = tuple(sorted({f, reciprocal(f)}))
        seen.update(pair)
        out.append(pair)
    return out


def family_poly(v: int) -> int:
    s = 3**v
    return (1 << (2 * s)) | (1 << s) | 1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    command: str
    P: int
    L: int
    j: int = 1  # the index of the --j commands

    @property
    def m(self) -> int:
        return self.P.bit_length() - 1

    def argv(self) -> list[str]:
        if self.command == "conjecture":
            return ["conjecture", "--vmax", str(CONJ_VMAX), "--tmax", str(CONJ_TMAX), "--dim-cap", str(DIM_CAP)]
        ring = ["--poly", poly_text(self.P), "--power", str(self.L)]
        if self.command == "analyze-chain":
            return ["analyze", *ring, "--json", "--oracle-cap", str(ORACLE_CAP), "--candidate-cap", str(CANDIDATE_CAP)]
        if self.command == "lcd-chain":
            return ["lcd", *ring, "--methods", "all", "--json"]
        if self.command == "analyze":
            extra = ["--oracle-cap", str(ORACLE_CAP), "--candidate-cap", str(CANDIDATE_CAP)]
        elif self.command == "dual":
            extra = ["--oracle-cap", str(ORACLE_CAP)]
        else:
            extra = []
        return [self.command, *ring, "--j", str(self.j), "--json", *extra]


def _chain_sweep() -> list[tuple[str, int, int, int, tuple[int, ...]]]:
    """analyze over whole chains: every irreducible of degree 3-8, n = m*L in 65..96.

    At these lengths the oracle pass (k <= ORACLE_CAP) takes most of the
    op time; at n <= 64 the anchor reduced sets do, and above n = 96 they take
    over again.  Both members of a reciprocal pair are run: their oracle passes
    differ by up to 20% near the 90th percentile, so drawing one of them would
    move op_p90_ms from seed to seed.  The seed orders the list.
    """
    return [
        ("analyze-chain", m, L, 1, (P,))
        for m in range(3, 9)
        for L in range(-(-65 // m), 96 // m + 1)
        for cls in reciprocal_classes(m)
        for P in cls
    ]


def _survey() -> list[tuple[str, int, int, int, tuple[int, ...]]]:
    """One query per ring, rotating analyze/dual/lcd at j = 1: degree 3-7, n <= 200.

    Where L = 2^T >= 4 and m <= 5 the query is dual at j = 3L/4 = 2^T - 2^(T-2)
    instead, which polycode answers with the dual complement anchors; at
    m >= 6 those take seconds.
    """
    slots = []
    for m in range(3, 8):
        for i, cls in enumerate(reciprocal_classes(m)):
            for L in range(2, 200 // m + 1):
                if m <= 5 and L >= 4 and L & (L - 1) == 0:
                    slots.append(("dual", m, L, 3 * L // 4, cls))
                else:
                    slots.append((COMMANDS[(L + i) % 3], m, L, 1, cls))
    return slots


def _lcd_scan() -> list[tuple[str, int, int, int, tuple[int, ...]]]:
    """lcd --methods all over whole chains of degree 3-8 rings, plus one conjecture scan."""
    covered = {(family_poly(v), 1 << T) for v in range(CONJ_VMAX + 1) for T in range(1, CONJ_TMAX + 1)}
    slots = [("conjecture", 0, 0, 1, (0,))]
    for m in range(3, 9):
        for cls in reciprocal_classes(m):
            for L in range(2, 96 // m + 1):
                members = tuple(P for P in cls if (P, L) not in covered)
                if members:
                    slots.append(("lcd-chain", m, L, 1, members))
    return slots


# Wide rings: (degree, order of x mod P, exponents L, ops per command and L).
# Every degree-17 irreducible has order 2^17 - 1 (a prime); the degree-18
# class takes the primitive ones.  Degrees 19-20 are left out: a primitive
# degree-19 ring spends seconds in set-up, and a degree-20 dual walks 2^19
# candidates, so too few ops would fit in a run for a 90th percentile.
WIDE_CLASSES = ((17, 131071, (2, 3), 16), (18, 262143, (2,), 2))


def _wide_ring() -> list[tuple[str, int, int, int]]:
    """The survey's --j 1 commands on degree 17-18 rings with small L."""
    return [
        (command, m, L, e)
        for m, e, Ls, reps in WIDE_CLASSES
        for L in Ls
        for command in COMMANDS
        for _ in range(reps)
    ]


def _wide_member(rng: random.Random, m: int, e: int, used: set[tuple[int, int]], L: int) -> int:
    while True:
        P = (1 << m) | rng.getrandbits(m) | 1
        if (P, L) not in used and is_irreducible(P) and order(P) == e:
            return P


WORKLOADS = ("chain-sweep", "survey", "lcd-scan", "wide-ring")


def make_ops(workload: str, seed: int) -> list[Op]:
    """The seeded op list of one workload: one member per template slot, shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    used: set[tuple[int, int]] = set()
    ops = []
    if workload == "wide-ring":
        for command, m, L, e in _wide_ring():
            P = _wide_member(rng, m, e, used, L)
            used.add((P, L))
            ops.append(Op(command, P, L))
    else:
        template = {"chain-sweep": _chain_sweep, "survey": _survey, "lcd-scan": _lcd_scan}[workload]()
        for command, _m, L, j, cls in template:
            P = rng.choice(cls)
            if (P, L) in used:
                raise AssertionError(f"template repeats ring ({P}, {L})")
            used.add((P, L))
            ops.append(Op(command, P, L, j))
    rng.shuffle(ops)
    return ops
