"""Exact polynomial arithmetic over GF(2).

A polynomial is a plain Python int used as a bit mask: bit i is the
coefficient of x^i, so the constant term sits in bit 0 and x^4 + x + 1 is
0b10011.  Addition is XOR, multiplication is carry-less, and degrees are one
less than ``int.bit_length``.  Everything here is pure int arithmetic with no
size limit beyond memory, except that parse refuses a term past
RING_TABLE_BITS: no ring over such a polynomial can be set up.
"""

from __future__ import annotations

import math
import re

from .errors import CapExceeded, ValidationError

RING_TABLE_BITS = 1 << 26  # budget for a ring's powers P^0..P^L (about m*L^2/2 bits); 8 MB of ints

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


def square(a: int) -> int:
    """a*a, which over GF(2) is a(x^2): a zero digit after each binary digit, in one C-level pass."""
    return int("0".join(format(a, "b")), 2)


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
    """Power-series inverse of a (constant term 1) mod x^nbits, by Newton doubling."""
    if not a & 1:
        raise ValidationError("only a polynomial with constant term 1 is invertible mod x^nbits")
    inv, k = 1, 1
    while k < nbits:
        k = min(2 * k, nbits)
        # a*inv == 1 mod x^h implies a*(inv^2*a) == (a*inv)^2 == 1 mod x^(2h)
        inv = mul_trunc(square(inv), a, k)
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


def power_mod(a: int, e: int, modulus: int) -> int:
    """a**e reduced modulo another polynomial."""
    if modulus == 0:
        raise ValidationError("zero modulus")
    out = 1
    a = div_rem(a, modulus)[1]
    # left to right, so each multiply is by a itself: one shift when a is x
    for i in range(e.bit_length() - 1, -1, -1):
        out = div_rem(square(out), modulus)[1]
        if e >> i & 1:
            out = div_rem(mul(out, a), modulus)[1]
    return out


def substitute_power(a: int, t: int) -> int:
    """a(x^t): each exponent i becomes t*i (t >= 1)."""
    if t == 1:
        return a
    out = 0
    while a:
        i = (a & -a).bit_length() - 1
        out |= 1 << (t * i)
        a &= a - 1
    return out


def reciprocal(a: int) -> int:
    """Coefficient-reversed polynomial x^deg(a) * a(1/x); reciprocal(0) == 0."""
    if a == 0:
        return 0
    return int(format(a, "b")[::-1], 2)


# ---------------------------------------------------------------------------
# multiplicative order and irreducibility
# ---------------------------------------------------------------------------


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); above it a probable prime stays unproven.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
_TRIAL_LIMIT = 1024  # trial division runs below this; a cofactor below its square is prime
# Pollard-Brent iterations spent on one cofactor before factoring gives up.
_RHO_BUDGET = 1 << 17


def _is_prime(n: int) -> bool | None:
    """Deterministic Miller-Rabin for odd n > 41; None for a probable prime it cannot prove."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True if n < _MR_EXACT_BELOW else None


def _lucas_lehmer(m: int) -> bool:
    """Whether 2^m - 1 is prime, for m >= 3; for p dividing m, 2^p - 1 divides it."""
    c, s = (1 << m) - 1, 4
    for _ in range(m - 2):
        s = (s * s - 2) % c
    return s == 0 and all(m % p for p in range(2, math.isqrt(m) + 1))


def _rho_split(n: int) -> int | None:
    """A proper factor of the odd composite n by Pollard-Brent rho, or None once the budget is spent."""
    budget = _RHO_BUDGET
    for c in range(1, 64):
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            budget -= 2 * r
            r <<= 1
        if g == n:  # the batch overshot: step the last batch one value at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        if budget <= 0:
            return None
    return None


def _prime_factors(n: int) -> set[int]:
    """The distinct prime factors of n >= 1; CapExceeded if a cofactor neither splits nor proves prime."""
    out = set()
    for p in range(2, _TRIAL_LIMIT):  # a composite p never divides: its prime factors are gone
        if p * p > n:
            break
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        c = stack.pop()
        if c < _TRIAL_LIMIT**2:
            out.add(c)
            continue
        prime = _is_prime(c)
        if prime is None and c & (c + 1) == 0:  # 2^m - 1, which Lucas-Lehmer decides
            prime = _lucas_lehmer(c.bit_length())
        if prime:
            out.add(c)
            continue
        g = _rho_split(c)
        if g is None:
            status = "is composite" if prime is False else "may be prime but is unproven"
            raise CapExceeded(f"cannot factor {c} ({status}) within {_RHO_BUDGET} rho steps")
        stack += [g, c // g]
    return out


def order(f: int) -> int:
    """Least e >= 1 with x^e == 1 mod f, for f of degree m >= 1 with x^(2^m - 1) == 1 mod f.

    Every irreducible f qualifies, since x then lies in the multiplicative group
    of the field F2[x]/<f>, of order 2^m - 1.  Any f failing that test (most
    reducible ones) is refused.  The order divides 2^m - 1, so it comes from
    factoring 2^m - 1 and stripping each prime q while x^(e/q) == 1 mod f.
    """
    if f == 0 or not (f & 1):
        raise ValidationError("order requires a nonzero constant term")
    m = degree(f)
    if m < 1:
        raise ValidationError("order requires degree >= 1")
    e = (1 << m) - 1
    if power_mod(2, e, f) != 1:
        raise ValidationError("order requires x^(2^m - 1) == 1 mod f, which every irreducible f meets")
    for q in _prime_factors(e):
        while e % q == 0 and power_mod(2, e // q, f) == 1:
            e //= q
    return e


def is_irreducible(f: int) -> bool:
    """Whether f is irreducible over GF(2) (degree >= 1 required)."""
    m = degree(f)
    if m < 1:
        raise ValidationError("irreducibility is defined for degree >= 1")
    if m == 1:
        return True
    if not (f & 1):
        return False  # divisible by x
    # No factor of degree d <= m/2 exists iff gcd(f, x^(2^d) - x) == 1 for each d.
    t = 2  # the polynomial x
    for _ in range(m // 2):
        t = power_mod(t, 2, f)
        if gcd(f, t ^ 2) != 1:
            return False
    # And x must be a root of x^(2^m) - x mod f.
    t = 2
    for _ in range(m):
        t = power_mod(t, 2, f)
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
    pos = 0
    expecting_term = True
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] == "+":
            if expecting_term:
                raise ValidationError(f"empty term at offset {pos} in {text!r}")
            expecting_term = True
            pos += 1
            continue
        if not expecting_term:
            raise ValidationError(f"missing '+' at offset {pos} in {text!r}")
        start = pos
        while pos < n and not text[pos].isspace() and text[pos] != "+":
            pos += 1
        token = text[start:pos]
        match = _MONOMIAL.fullmatch(token)
        if match is None:
            raise ValidationError(f"malformed term {token!r} at offset {start} in {text!r}")
        if token == "1":
            exp = 0
        elif token == "x":
            exp = 1
        else:
            exp = _decimal(match.group(1))
            if exp > RING_TABLE_BITS:
                raise ValidationError(f"term {token[:40]!r} is past the budget of x^{RING_TABLE_BITS}")
        out ^= 1 << exp  # repeated terms cancel over GF(2)
        expecting_term = False
    if expecting_term:
        raise ValidationError(f"empty term at offset {n} in {text!r}")
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
