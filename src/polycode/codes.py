"""Binary codes cut out by the ideal chain: C_j = <P^j> inside F2[x]/<P^L>.

C_j has length n = m*L and dimension k = m*(L - j); its generator matrix
stacks the shifts x^i * P^j for i < k, so codewords are exactly the masks of
polynomial multiples of P^j of degree below n.  Codewords travel as ints
(bit i = coordinate i) and serialize to hex with bit 0 the coefficient of x^0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapExceeded, ValidationError
from .gf2poly import div_rem, mul
from .ring import RingContext

DEFAULT_ENUM_CAP = 28
DEFAULT_CANDIDATE_CAP = 1 << 20  # words in one reduced or dual candidate set


def default_cap() -> int:
    """Enumeration cap (log2 of word count), overridable via POLYCODE_ORACLE_CAP."""
    raw = os.environ.get("POLYCODE_ORACLE_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"POLYCODE_ORACLE_CAP must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class Gf2Matrix:
    """A bit-packed matrix: row r is an int whose bit c is entry (r, c)."""

    nrows: int
    ncols: int
    rows: tuple[int, ...]


@dataclass(frozen=True)
class PolycyclicCode:
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


def generator_matrix(c: PolycyclicCode) -> Gf2Matrix:
    """Full-rank k x n generator matrix of C_j (error for the empty j = L code)."""
    if c.j == c.ctx.L:
        raise ValidationError("the zero code (j = L) has an empty generator matrix")
    return Gf2Matrix(c.k, c.n, tuple(generator_rows(c)))


def encode(c: PolycyclicCode, message: int) -> int:
    """Codeword of a k-bit message: message(x) * P^j."""
    if message < 0 or message.bit_length() > c.k:
        raise ValidationError(f"message must fit in k = {c.k} bits")
    return mul(message, c.generator)


def contains(c: PolycyclicCode, word: int) -> bool:
    """Whether a length-n word lies in C_j (i.e. P^j divides it)."""
    if word < 0 or word.bit_length() > c.n:
        raise ValidationError(f"word must fit in n = {c.n} bits")
    if c.j == c.ctx.L:
        return word == 0
    return div_rem(word, c.generator)[1] == 0


def enumerate_codewords(c: PolycyclicCode, cap: int | None = None):
    """Yield all 2^k codewords in Gray-code order (consecutive words differ by one row)."""
    cap = default_cap() if cap is None else cap
    if c.k > cap:
        raise CapExceeded(
            f"enumerating 2^{c.k} codewords exceeds the cap of 2^{cap}; pass a larger cap"
        )
    rows = generator_rows(c)
    cur = 0
    yield cur
    for i in range(1, 1 << c.k):
        cur ^= rows[(i & -i).bit_length() - 1]
        yield cur


def reverse_word(word: int, n: int) -> int:
    """The length-n coordinate reversal of a word."""
    return int(format(word, f"0{n}b")[::-1], 2) if word else 0


def is_reversible(c: PolycyclicCode) -> bool:
    """Whether coordinate reversal maps C_j into itself (checked on generator rows)."""
    if c.j == c.ctx.L:
        return True
    return all(contains(c, reverse_word(row, c.n)) for row in generator_rows(c))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def codeword_hex(word: int) -> str:
    """Hex form of a codeword (reading the mask as an integer, bit 0 = x^0)."""
    return format(word, "x")


def codeword_from_hex(text: str) -> int:
    """Inverse of codeword_hex."""
    try:
        return int(text, 16)
    except ValueError as exc:
        raise ValidationError(f"not a hex codeword: {text!r}") from exc
