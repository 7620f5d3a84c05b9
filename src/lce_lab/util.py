"""Shared plumbing: exact-rational text forms and deterministic reports.

Rationals never pass through floats.  On the wire they are "num/den" strings;
on input we also accept bare integers, integer strings, and {"num": ..., "den": ...}
objects so gallery files written by hand stay readable.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

from .errors import ConfigError


def parse_rational(value) -> Fraction:
    """Parse an exact rational from any accepted wire form."""
    if isinstance(value, bool):
        raise ConfigError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, dict):
        try:
            num, den = value["num"], value["den"]
        except KeyError as e:
            raise ConfigError(f"rational object needs num and den: {value!r}") from e
        return _make_fraction(_parse_int(num), _parse_int(den))
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return _make_fraction(_parse_int(num), _parse_int(den))
        return Fraction(_parse_int(text))
    raise ConfigError(f"not a rational: {value!r}")


def _make_fraction(num: int, den: int) -> Fraction:
    if den == 0:
        raise ConfigError(f"zero denominator in rational {num}/{den}")
    return Fraction(num, den)


def _parse_int(text) -> int:
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    if isinstance(text, str):
        try:
            return int(text.strip(), 10)
        except ValueError:
            pass
    raise ConfigError(f"not an exact integer: {text!r} (decimal floats are rejected)")


def rational_str(q: Fraction) -> str:
    """Canonical "num/den" form; integers keep the explicit /1 off."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def ceil_log2(x: Fraction) -> int:
    """Smallest integer t with 2**t >= x, computed exactly; x must be positive."""
    if x <= 0:
        raise ConfigError(f"ceil_log2 needs a positive argument, got {x}")
    p, q = x.numerator, x.denominator

    def holds(t: int) -> bool:
        return (q << t) >= p if t >= 0 else q >= (p << -t)

    # The answer lies within 2 of the bit-length gap; walk up from below it.
    t = p.bit_length() - q.bit_length() - 1
    while not holds(t):
        t += 1
    return t


def dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, stable indentation, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lce-lab-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
