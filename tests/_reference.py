"""Reference helpers the tests weigh the package against; no command needs them.

The generator rows of C_j, membership in C_j, the GF(2) inner product of two
rows, the substitution a(x^t) and Rabin's irreducibility test by division,
each in its plainest form.
"""

from __future__ import annotations

from polycode.codes import PolycyclicCode
from polycode.errors import ValidationError
from polycode.gf2poly import _prime_divisors, degree, div_rem, gcd, mul, square


def generator_rows(c: PolycyclicCode) -> list[int]:
    """The k shifted-generator rows x^i * P^j, i = 0..k-1."""
    return [c.generator << i for i in range(c.k)]


def contains(c: PolycyclicCode, word: int) -> bool:
    """Whether a length-n word lies in C_j (i.e. P^j divides it)."""
    if word < 0 or word.bit_length() > c.n:
        raise ValidationError(f"word must fit in n = {c.n} bits")
    if c.j == c.ctx.L:
        return word == 0
    return div_rem(word, c.generator)[1] == 0


def parity_dot(a: int, b: int) -> int:
    """Inner product of two rows over GF(2)."""
    return (a & b).bit_count() & 1


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


def is_irreducible_by_division(f: int) -> bool:
    """Rabin's test with every square reduced by div_rem, or by two folds through g = f - x^m where deg g <= m/2.

    gf2poly.is_irreducible without its work budget or its table of
    x^(m+i) mod f for a dense f; f of degree >= 1.
    """
    m = degree(f)
    if m == 1:
        return True
    if not (f & 1):
        return False
    g, mask = f ^ (1 << m), (1 << m) - 1
    sparse = 2 * degree(g) <= m
    checks = {m // p for p in _prime_divisors(m)}
    t = 2
    for i in range(1, m + 1):
        t = square(t)
        if sparse:
            while t >> m:
                t = (t & mask) ^ mul(t >> m, g)
        else:
            t = div_rem(t, f)[1]
        if i in checks and gcd(f, t ^ 2) != 1:
            return False
    return t == 2
