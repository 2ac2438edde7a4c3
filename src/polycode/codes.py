"""Binary codes cut out by the ideal chain: C_j = <P^j> inside F2[x]/<P^L>.

C_j has length n = m*L and dimension k = m*(L - j); its generator matrix
stacks the shifts x^i * P^j for i < k, so codewords are exactly the masks of
polynomial multiples of P^j of degree below n.  Codewords travel as ints
(bit i = coordinate i).  Here live the code object, its generator rows,
membership, reversibility, and the two default caps every search shares:
DEFAULT_ENUM_CAP on the dimension an exact oracle takes, and
DEFAULT_CANDIDATE_CAP on the words in one reduced candidate set (check_caps
refuses a negative one).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError
from .gf2poly import div_rem
from .ring import RingContext

DEFAULT_ENUM_CAP = 28
DEFAULT_CANDIDATE_CAP = 1 << 20  # words in one reduced or dual candidate set


def check_caps(**caps: int) -> None:
    """Refuse a negative cap; 0 is legal and turns its search off."""
    for name, value in caps.items():
        if value < 0:
            raise ValidationError(f"{name.replace('_', ' ')} must be >= 0, got {value}")


class PolycyclicCode(NamedTuple):
    """The code C_j = <P^j>, with k = m*(L - j) and n = m*L."""

    ctx: RingContext
    j: int

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def k(self) -> int:
        return self.ctx.m * (self.ctx.L - self.j)

    @property
    def generator(self) -> int:
        return self.ctx.P_pows[self.j]


def code(ctx: RingContext, j: int) -> PolycyclicCode:
    """The j-th code of the chain, 0 <= j <= L (j = L is the zero code)."""
    if not 0 <= j <= ctx.L:
        raise ValidationError("code index j must satisfy 0 <= j <= L")
    return PolycyclicCode(ctx, j)


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


def reverse_word(word: int, n: int) -> int:
    """The length-n coordinate reversal of a word."""
    return int(format(word, f"0{n}b")[::-1], 2) if word else 0


def is_reversible(c: PolycyclicCode) -> bool:
    """Whether coordinate reversal maps C_j into itself (checked on generator rows)."""
    if c.j == c.ctx.L:
        return True
    return all(contains(c, reverse_word(row, c.n)) for row in generator_rows(c))
