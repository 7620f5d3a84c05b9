"""Shared plumbing: exact-rational text forms and deterministic reports.

Rationals never pass through floats.  On the wire they are "num/den" strings,
a violation class's from ``fraction_texts``; on input we also accept bare
integers, integer strings, and {"num": ..., "den": ...} objects so gallery
files written by hand stay readable.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd
from operator import itemgetter

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


def fraction_texts(first: int, step: int, count: int, den: int) -> list[str]:
    """``rational_str`` of each (first + j*step)/den, j < count, den > 0, one
    int-to-text per cell.  Reduced, the gcd with den is fixed where the value's
    power of two (up to den's) and j mod den's odd part prime to step are: one
    comprehension per class, or a gcd per cell if classes are under 8 cells."""
    if not step:
        return [rational_str(Fraction(first, den))] * count
    g = gcd(first, step, den)
    first, step, den = first // g, step // g, den // g
    two = den & -den if step & 1 else 1  # with an even step, den is odd or every value is
    period, inv = den // (den & -den), pow(step, -1, two)
    while (g := gcd(period, step)) > 1:
        period //= g
    if period * two.bit_length() > count // 8:
        return [f"{n // g}/{den // g}" if (g := gcd(n, den)) != den else str(n // g) for n in range(first, first + count * step, step)]
    column, powers = [None] * count, range(two.bit_length() - 1)  # below: (start, stride, g), g the gcd's power of two where j = start mod stride
    for start, stride, g in [(((1 << s) - first) * inv % (2 << s), 2 << s, 1 << s) for s in powers] + [(-first * inv % two, two, two)]:
        for j in range(start, min(start + stride * period, count), stride):
            n = first + j * step
            d = g * gcd(n, period)
            suffix, inc = f"/{den // d}" if d != den else "", stride * period * step // d
            column[j::stride * period] = [f"{v}{suffix}" for v in range(n // d, n // d + len(range(j, count, stride * period)) * inc, inc)]
    return column


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
    """Deterministic JSON: sorted keys, two-space indentation, trailing newline.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
    of the running Python, byte for byte.  Before 3.14 that call never uses
    the C encoder once ``indent`` is set, so documents built from dicts with
    str keys, lists, str, int, bool and None (exact types) go through a small
    writer here instead: strings through the C ``encode_basestring_ascii``,
    ints through ``int.__repr__``, and a list of flat dicts sharing one key set
    (violation rows, machine entries) one column at a time (``_json_rows``).
    Any other value or key type, a float, a tuple, a subclass, hands the whole
    document to that ``json.dumps`` call, as does a recursion too deep for the
    writer, so such documents get the stdlib's output or error.
    """
    try:
        return _json_value(obj, "\n") + "\n"
    except (_Unsupported, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Unsupported(Exception):
    """A value or key the writer leaves to ``json.dumps``."""


_SCALAR_TYPES = frozenset((str, int, bool, type(None)))


def _json_scalar(value) -> str:
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise _Unsupported


def _json_value(value, indent: str) -> str:
    """``value`` as JSON; ``indent`` is the newline and indentation of its line."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        if any(type(key) is not str for key in value):
            raise _Unsupported
        inner = indent + "  "
        items = [_json_str(key) + ": " + _json_value(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        items = _json_rows(value, inner) or [_json_value(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return _json_scalar(value)


def _json_rows(items: list, indent: str):
    """The items of a list of flat dicts with one key set, or None for any other list.

    A row of the first row's size that holds each of the first row's keys
    holds no other, so key types are read from the first row alone.  Each
    column is encoded in one pass, and each row is one join of those values
    between fixed pieces ('{', the indented keys, '}') built once.  A
    column of str values takes one ``encode_basestring_ascii`` call on the
    column joined: if that adds only the two quotes, no value needs escaping,
    so the values go in as they are and the quotes join the fixed pieces.  A
    column of None values is fixed ``null`` text, and a list whose columns
    are all None is one row text repeated.
    """
    first = items[0]
    if type(first) is not dict or not first:
        return None
    width = len(first)
    if set(map(type, items)) != {dict} or set(map(len, items)) != {width}:
        return None
    if set(map(type, first)) != {str}:
        return None
    inner = indent + "  "
    pieces = []
    text, sep = "", "{"  # the fixed text since the last column; what opens a key
    for key in sorted(first):
        try:
            column = list(map(itemgetter(key), items))
        except KeyError:
            return None
        text += sep + inner + _json_str(key) + ": "
        sep = ","
        kinds = set(map(type, column))
        if kinds == {str}:
            joined = "".join(column)
            if len(_json_str(joined)) == len(joined) + 2:
                pieces += [repeat(text + '"'), column]
                text = '"'
            else:
                pieces += [repeat(text), map(_json_str, column)]
                text = ""
        elif kinds == {type(None)}:
            text += "null"
        elif kinds <= _SCALAR_TYPES:
            pieces += [repeat(text), map(_json_scalar, column)]
            text = ""
        else:
            return None
    text += indent + "}"
    if not pieces:  # every column is null: zip over repeats alone would never end
        return [text] * len(items)
    pieces.append(repeat(text))
    return list(map("".join, zip(*pieces)))


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    A file that already holds exactly these bytes is left as it is.  Writing
    it again would change only its mtime, and on ext4 a rename over an
    existing file forces the new data to disk (``auto_da_alloc``): rewriting
    an unchanged report cost more, and varied far more from run to run, than
    building it.

    The file gets the mode ``open(path, "w")`` would give it: 0666 less the umask.
    """
    data = text.encode()
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size == len(data) and fh.read() == data:
                return
    except OSError:
        pass
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lce-lab-")
    umask = os.umask(0)  # umask has no getter: read it by setting it, then restore it
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
