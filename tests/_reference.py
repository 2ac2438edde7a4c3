"""Reference helpers the tests weigh the package against; no command needs them.

The generator rows of C_j, membership in C_j, the GF(2) inner product of two
rows and the substitution a(x^t), each in its plainest form.
"""

from __future__ import annotations

from polycode.codes import PolycyclicCode
from polycode.errors import ValidationError
from polycode.gf2poly import div_rem


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
