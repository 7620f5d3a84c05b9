"""Exact dyadic arithmetic over arbitrary-precision rationals, and the one
test of whether a string is binary.

Every value in a checking path is a ``fractions.Fraction``; floats never
appear.  A dyadic rational q in [0,1) is identified with the finite binary
string sigma such that q = 0.sigma, and ``|q|`` denotes the length of the
canonical sigma (the one with no trailing zeros).  The zero has no string
ending in 1; it gets the empty string and ``|0| = 0``, which makes the
additive slack 2**-|q| loosest exactly at q = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .errors import DomainError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def is_binary(s) -> bool:
    """True when s is a str of the digits 0 and 1 only; the empty string is one.

    ``int(s, 2)`` is safe only behind this test: int also takes "0_1", " 1"
    and "\uff11" (a fullwidth one).  Deleting the digits from the ASCII bytes
    is one C pass, about 20 times faster per character than ``strip("01")``,
    so a whole table's codes can be tested joined into one string.
    """
    return isinstance(s, str) and s.isascii() and not s.encode("ascii").translate(None, b"01")


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


def canonical_length(q: Fraction) -> int:
    """|q| for a dyadic q in [0,1); total on every other rational.

    Anything else is clamped into [0, 1 - 2**-64] and truncated at 64 bits:
    totality filler for translations that key on |q|, which proofs never use.
    """
    num, den = q.numerator, q.denominator
    if not den & (den - 1) and 0 <= num < den:
        return den.bit_length() - 1
    top = _ONE - Fraction(1, 1 << 64)
    return dyadic_length(Fraction(truncate(min(max(q, _ZERO), top), 64), 1 << 64))


def lengths_in_grid_order(depth: int) -> tuple[int, ...]:
    """The canonical lengths of the grid k/2**depth, 0 <= k < 2**depth, in the
    order ascending k first reaches them: 0 at k = 0, then depth, depth-1,
    ..., 1 at k = 2**(depth-l).

    A checker that takes one value per length visits them in this order, so
    an error raised on the way is the one a sample-by-sample sweep raises.
    """
    return (0, *range(depth, 0, -1))


def kraft_mass(lengths: Iterable[int]) -> Fraction:
    """The sum of 2**-n over the code lengths n, as one integer sum over the
    common denominator 2**max(n); 0 for no lengths."""
    lengths = list(lengths)
    top = max(lengths, default=0)
    return Fraction(sum(1 << (top - n) for n in lengths), 1 << top)


def truncate(x: Fraction, n: int) -> int:
    """The first n binary digits of x in [0,1) as an int: floor(x * 2**n).

    Monotone in x for fixed n, and 0 <= x - truncate(x, n) / 2**n < 2**-n;
    ``format(truncate(x, n), f"0{n}b")`` spells the digits for n >= 1.
    """
    if not _ZERO <= x < _ONE:
        raise DomainError(f"truncate needs 0 <= x < 1, got {x}")
    if n < 0:
        raise DomainError(f"truncate needs n >= 0, got {n}")
    return (x.numerator << n) // x.denominator


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
