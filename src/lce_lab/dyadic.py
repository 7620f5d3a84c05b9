"""Exact dyadic-string arithmetic over arbitrary-precision rationals.

Every value in a checking path is a ``fractions.Fraction``; floats never
appear.  A dyadic rational q in [0,1) is identified with the finite binary
string sigma such that q = 0.sigma, and ``|q|`` denotes the length of the
canonical sigma (the one with no trailing zeros).  The zero has no string
ending in 1; it gets the empty string and ``|0| = 0``, which makes the
additive slack 2**-|q| loosest exactly at q = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class DyadicString:
    """A finite binary string sigma together with its value 0.sigma in [0,1).

    ``bits`` may carry trailing zeros (an n-bit truncation keeps its width);
    ``canonical()`` strips them so the length function is well defined.
    """

    bits: str

    def __post_init__(self):
        if any(c not in "01" for c in self.bits):
            raise DomainError(f"not a binary string: {self.bits!r}")

    @property
    def value(self) -> Fraction:
        if not self.bits:
            return _ZERO
        return Fraction(int(self.bits, 2), 1 << len(self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def canonical(self) -> "DyadicString":
        return DyadicString(self.bits.rstrip("0"))

    @classmethod
    def from_rational(cls, q: Fraction) -> "DyadicString":
        """Canonical string of a dyadic rational in [0,1): ends in 1, or empty for 0."""
        return truncate(q, dyadic_length(q))


def is_dyadic(q: Fraction) -> bool:
    """True when q's denominator is a power of two."""
    d = q.denominator
    return d & (d - 1) == 0


def dyadic_length(q: Fraction) -> int:
    """Length |q| of the canonical binary string of a dyadic q in [0,1).

    For q = 0 this is 0 (empty-string convention); otherwise it is the unique
    n with q = odd/2**n.  Non-dyadic or out-of-range inputs are domain errors.
    """
    if not _ZERO <= q < _ONE:
        raise DomainError(f"dyadic_length needs 0 <= q < 1, got {q}")
    if not is_dyadic(q):
        raise DomainError(f"dyadic_length needs a dyadic rational, got {q}")
    return q.denominator.bit_length() - 1


def canonical_length(q: Fraction, precision: int = 64) -> int:
    """|q| for a dyadic q in [0,1); total on every other rational.

    Anything else is first clamped into [0, 1 - 2**-precision] and truncated
    at ``precision`` bits.  That is mere totality filler for translations
    that key on |q|; proofs only ever exercise dyadic samples in [0,1).
    """
    num, den = q.numerator, q.denominator
    if not den & (den - 1) and 0 <= num < den:
        return den.bit_length() - 1
    top = _ONE - Fraction(1, 1 << precision)
    return dyadic_length(truncate(min(max(q, _ZERO), top), precision).value)


def truncate(x: Fraction, n: int) -> DyadicString:
    """First n binary digits of x in [0,1): the string of floor(x * 2**n) / 2**n.

    Monotone in x for fixed n, and 0 <= x - value < 2**-n.
    """
    if not _ZERO <= x < _ONE:
        raise DomainError(f"truncate needs 0 <= x < 1, got {x}")
    if n < 0:
        raise DomainError(f"truncate needs n >= 0, got {n}")
    if n == 0:
        return DyadicString("")
    m = (x.numerator << n) // x.denominator
    return DyadicString(format(m, f"0{n}b"))


def real_from_set(membership: Callable[[int], bool], n_bits: int) -> Fraction:
    """Partial sum of the binary expansion whose i-th digit is membership(i).

    Adds 2**-(i+1) for every member i < n_bits; nondecreasing in n_bits, and
    any later partial sum exceeds this one by less than 2**-n_bits.
    """
    if n_bits < 0:
        raise DomainError(f"real_from_set needs n_bits >= 0, got {n_bits}")
    acc = 0
    for i in range(n_bits):
        acc <<= 1
        if membership(i):
            acc |= 1
    return Fraction(acc, 1 << n_bits) if n_bits else _ZERO
