"""Binary codes from powers of an irreducible polynomial.

The ambient ring is F2[x] modulo P(x)^L for an irreducible P of degree at
least 2.  Every ideal is generated by a power of P, giving a chain of codes;
this package computes their parameters (distance bounds with provenance,
duals, hulls and LCD verdicts) by structure where possible and by exhaustive
search where affordable, cross-checking one against the other.

The names below are what a caller of the library needs; everything else
stays importable from its submodule.
"""

from __future__ import annotations

from .codes import code
from .distance import full_distance_profile
from .duality import dual_summary
from .errors import CapExceeded, InternalConsistencyError, PolycodeError, ValidationError
from .gf2poly import format_poly, parse
from .lcd import lcd_verdict
from .ring import new_context

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "InternalConsistencyError",
    "PolycodeError",
    "ValidationError",
    "code",
    "dual_summary",
    "format_poly",
    "full_distance_profile",
    "lcd_verdict",
    "new_context",
    "parse",
]
