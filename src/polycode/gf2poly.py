"""Exact polynomial arithmetic over GF(2).

A polynomial is a plain Python int used as a bit mask: bit i is the
coefficient of x^i, so the constant term sits in bit 0 and x^4 + x + 1 is
0b10011.  Addition is XOR, multiplication is carry-less, and degrees are one
less than ``int.bit_length``.  Everything here is pure int arithmetic with no
size limit beyond memory, except that parse refuses a term past
RING_TABLE_BITS (no ring over it can be set up), order walks the powers
of x only up to its caller's cap, and is_irreducible stops at IRREDUCIBLE_WORK.
"""

from __future__ import annotations

import re

from .errors import CapExceeded, InternalConsistencyError, ValidationError

RING_TABLE_BITS = 1 << 26  # budget for the bits of P^0..P^L (about m*L^2/2) that a walk along a whole chain produces
# budget for one irreducibility test, in squared bits: a sparse f reaches it in 0.35-0.5 s on a 2-core x86 VM; a dense
# f, whose steps are priced at their most, in about 0.03 s (measured on a degree-2 000 f past its first gcd)
IRREDUCIBLE_WORK = 1 << 24

# ---------------------------------------------------------------------------
# basic queries
# ---------------------------------------------------------------------------


def degree(a: int) -> int:
    """Degree of a, with degree(0) == -1."""
    return a.bit_length() - 1


def weight(a: int) -> int:
    """Number of nonzero coefficients."""
    return a.bit_count()


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def mul(a: int, b: int) -> int:
    """Carry-less product of two polynomials."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        out ^= b << ((a & -a).bit_length() - 1)
        a &= a - 1
    return out


# byte b spread to 16 bits, bit i to bit 2i: its binary digits read in base 4
_SPREAD = tuple(int(format(b, "b"), 4).to_bytes(2, "little") for b in range(256))
_SPREAD_INT = tuple(int.from_bytes(s, "little") for s in _SPREAD)  # the same spreads as ints


def square(a: int) -> int:
    """a*a, which over GF(2) is a(x^2): each byte of a spread to 16 bits by table.

    Up to 64 bits the spreads are ints, shifted into place and ORed; past that
    the byte strings are joined in one C-level pass, which is faster there.
    """
    if a.bit_length() <= 64:
        out = shift = 0
        while a:
            out |= _SPREAD_INT[a & 255] << shift
            a >>= 8
            shift += 16
        return out
    return int.from_bytes(b"".join(map(_SPREAD.__getitem__, a.to_bytes((a.bit_length() + 7) // 8, "little"))), "little")


def mul_trunc(a: int, b: int, nbits: int) -> int:
    """Product reduced mod x^nbits (only the low nbits coefficients)."""
    mask = (1 << nbits) - 1
    return mul(a & mask, b & mask) & mask


def div_rem(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of polynomial division."""
    if b == 0:
        raise ValidationError("division by the zero polynomial")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def gcd(a: int, b: int) -> int:
    """Greatest common divisor (monic by construction over GF(2))."""
    while b:
        a, b = b, div_rem(a, b)[1]
    return a


def inverse_trunc(a: int, nbits: int) -> int:
    """Power-series inverse of a (constant term 1) mod x^nbits, by Newton doubling, checked by its product with a."""
    if not a & 1:
        raise ValidationError("only a polynomial with constant term 1 is invertible mod x^nbits")
    inv, k = 1, 1
    while k < nbits:
        k = min(2 * k, nbits)
        # a*inv == 1 mod x^h implies a*(inv^2*a) == (a*inv)^2 == 1 mod x^(2h)
        inv = mul_trunc(square(inv), a, k)
    if mul_trunc(a, inv, nbits) != 1:
        raise InternalConsistencyError("power-series inverse disagrees with its defining product")
    return inv


def power(a: int, e: int) -> int:
    """a raised to a non-negative integer power."""
    if e < 0:
        raise ValidationError("negative exponent")
    out = 1
    while e:
        if e & 1:
            out = mul(out, a)
        a = square(a)
        e >>= 1
    return out


def power_trunc(a: int, e: int, nbits: int) -> int:
    """a**e reduced mod x^nbits, truncating at every step to stay small."""
    if e < 0:
        raise ValidationError("negative exponent")
    mask = (1 << nbits) - 1
    half = (1 << (nbits + 1) // 2) - 1  # coefficients at or above nbits/2 square past x^nbits
    out = 1
    a &= mask
    while e:
        if e & 1:
            out = mul(out, a) & mask
        a = square(a & half)
        e >>= 1
    return out


def reciprocal(a: int) -> int:
    """Coefficient-reversed polynomial x^deg(a) * a(1/x); reciprocal(0) == 0."""
    if a == 0:
        return 0
    return int(format(a, "b")[::-1], 2)


# ---------------------------------------------------------------------------
# multiplicative order and irreducibility
# ---------------------------------------------------------------------------


def order(f: int, cap: int) -> int:
    """min(e, cap), e the least e >= 1 with x^e == 1 mod f (the order of x), for f of degree >= 1.

    x is a unit mod f exactly when f has a constant term, so e exists for every
    such f and for no other; the rest are refused.  The walk t <- x*t mod f
    takes at most cap - 1 steps, each a shift, a conditional XOR with f and a
    compare with 1, so a caller that asks only whether e < cap never waits on
    an order of 2^m - 1.
    """
    if not f & 1:
        raise ValidationError("order requires a nonzero constant term")
    m = degree(f)
    if m < 1:
        raise ValidationError("order requires degree >= 1")
    t = 1
    for e in range(1, cap):
        t <<= 1
        if t >> m:
            t ^= f
        if t == 1:
            return e
    return cap


def _prime_divisors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, by trial division."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


def is_irreducible(f: int) -> bool:
    """Whether f is irreducible over GF(2) (degree >= 1 required), by Rabin's test.

    f of degree m is irreducible iff x^(2^m) == x mod f and
    gcd(x^(2^(m/p)) - x, f) == 1 for each prime p dividing m: m squarings and
    one gcd per prime.  When g = f - x^m has degree at most m/2, a square is
    reduced by folding its high half through g (at most two folds, each wt(g)
    shifts and one XOR).  A dense f folds the high half of each square, at
    most m - 1 bits, through the table H[i] = x^(m+i) mod f, i < m: one XOR of
    an m-bit row per set bit.  H is built once per call, in m shift-and-reduce
    steps.
    Work is counted in squared bits: an XOR step of a fold, of building H, or of a gcd on b-bit words
    costs about 8 + b/1024 of them (15-30 ns each on a 2-core x86 VM), and a square of b bits, one
    table pass, about b/3 (measured b/4 at a few thousand bits, b/2 at a million).  A dense step is
    priced at its most, a square of m bits and m - 1 XORs, so its price is known before the loop:
    a dense f whose first gcd, at the least m/p, cannot be reached within IRREDUCIBLE_WORK is
    refused before H is built.  Any step that could pass the budget is refused with CapExceeded
    before it runs, so no degree hangs the test.
    """
    m = degree(f)
    if m < 1:
        raise ValidationError("irreducibility is defined for degree >= 1")
    if m == 1:
        return True
    if not (f & 1):
        return False  # divisible by x
    g, mask = f ^ (1 << m), (1 << m) - 1
    checks = {m // p for p in _prime_divisors(m)}
    gcd_work = (2 * m + 1) * (8 + m // 1024)
    over = f"the irreducibility test of degree {m} is over its budget of {IRREDUCIBLE_WORK} squared bits"
    H: list[int] = []  # x^(m+i) mod f, i < m, for a dense f
    work = dense_step = 0
    if 2 * degree(g) > m:
        dense_step = m // 3 + (m - 1) * (8 + m // 512)  # a square of m bits and m - 1 XORs: a dense step at its most
        work = m * (8 + m // 512)  # building H
        if work + min(checks) * dense_step + gcd_work > IRREDUCIBLE_WORK:
            raise CapExceeded(over)  # the first gcd is out of reach
        h = g
        for _ in range(m):
            H.append(h)
            h <<= 1
            if h >> m:
                h ^= f
    t = 2  # x^(2^i) mod f
    for i in range(1, m + 1):
        if H:
            work += dense_step
        else:
            b = t.bit_length()
            work += b // 3 + (2 * weight(g) + 2) * (8 + b // 512)  # a square and two folds through g
        work += (i in checks) * gcd_work
        if work > IRREDUCIBLE_WORK:
            raise CapExceeded(over)
        t = square(t)
        if H:
            high, t = t >> m, t & mask
            while high:
                low = high & -high
                t ^= H[low.bit_length() - 1]
                high ^= low
        else:
            while t >> m:
                t = (t & mask) ^ mul(t >> m, g)
        if i in checks and gcd(f, t ^ 2) != 1:
            return False
    return t == 2


# ---------------------------------------------------------------------------
# text <-> mask
# ---------------------------------------------------------------------------

_MONOMIAL = re.compile(r"x\^(\d+)$|x$|1$")


def parse(text: str) -> int:
    """Parse '1 + x + x^4', a 0b literal, or a decimal bit mask into a polynomial.

    A term x^N with N past RING_TABLE_BITS is refused before its N-bit mask is built.
    """
    stripped = text.strip()
    if re.fullmatch(r"0b[01]+", stripped):
        return int(stripped, 2)
    if re.fullmatch(r"\d+", stripped):
        return _decimal(stripped)
    out = 0
    offset = 0  # of the part in text
    for part in text.split("+"):
        token = part.strip()
        match = _MONOMIAL.fullmatch(token)
        if match is None:
            at = offset + len(part) - len(part.lstrip())
            raise ValidationError(f"malformed term {token!r} at offset {at} in {text!r}")
        if token == "1":
            exp = 0
        elif token == "x":
            exp = 1
        else:
            exp = _decimal(match.group(1))
            if exp > RING_TABLE_BITS:
                raise ValidationError(f"term {token[:40]!r} is past the budget of x^{RING_TABLE_BITS}")
        out ^= 1 << exp  # repeated terms cancel over GF(2)
        offset += len(part) + 1
    return out


def _decimal(digits: str) -> int:
    """int(digits), refused with ValidationError past the interpreter's limit on digits."""
    try:
        return int(digits)
    except ValueError:  # more than sys.get_int_max_str_digits() digits
        raise ValidationError(f"the number {digits[:20]}... has too many digits") from None


def format_poly(a: int) -> str:
    """Render as monomials in descending degree; the zero polynomial is '0'."""
    if a == 0:
        return "0"
    terms = []
    for i in range(a.bit_length() - 1, -1, -1):
        if (a >> i) & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return " + ".join(terms)
