"""Shared plumbing: exact-rational text forms and deterministic reports.

Rationals never pass through floats.  On the wire they are "num/den" strings,
a violation class's from ``fraction_texts``, and every report table is a
``Rows``, a column table (not a list) of such texts and other JSON scalars;
on input we also accept bare integers, integer strings, and {"num": ...,
"den": ...} objects so gallery files written by hand stay readable.
``dump_json`` is the one JSON writer and takes only the lab's own document
types; ``read_json`` is the one reader of an input file.  A report file is
replaced atomically, and only when its bytes change, encoded 64 Ki
characters at a time."""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from itertools import chain, cycle, repeat
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd
from operator import add, attrgetter, mul

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
        return _make_fraction(parse_int(num), parse_int(den))
    if isinstance(value, str):
        if "/" in value:
            num, _, den = value.partition("/")
            return _make_fraction(parse_int(num), parse_int(den))
        return Fraction(parse_int(value))
    raise ConfigError(f"not a rational: {value!r}")


def _make_fraction(num: int, den: int) -> Fraction:
    if den == 0:
        raise ConfigError(f"zero denominator in rational {num}/{den}")
    return Fraction(num, den)


def parse_int(text) -> int:
    """An exact integer: an int that is not a bool, or a str of an optional
    sign and ASCII digits, with ASCII whitespace around it.  ``int`` alone
    would also take "1_000" and non-ASCII digits such as "\uff12" (a
    fullwidth two) or "\u0663" (an Arabic-Indic three)."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    if isinstance(text, str):
        digits = text.strip(" \t\n\r\f\v")
        unsigned = digits[1:] if digits[:1] in ("+", "-") else digits
        if unsigned.isascii() and unsigned.isdigit():
            try:
                return int(digits)
            except ValueError:  # past the interpreter's str-conversion limit
                pass
    raise ConfigError(f"not an exact integer: {text!r} (decimal floats are rejected)")


def rational_str(q: Fraction) -> str:
    """Canonical "num/den" form; integers keep the explicit /1 off."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_numerators, _denominators = attrgetter("numerator"), attrgetter("denominator")


def holds_pairwise(op, values: list) -> bool:
    """Whether op(v_i, v_(i+1)) holds for each neighbour pair of the
    rationals, read as integer cross-products n_i * d_(i+1) against
    n_(i+1) * d_i (every denominator is positive): ``le`` tests that they
    ascend, ``gt`` that they strictly descend."""
    nums, dens = list(map(_numerators, values)), list(map(_denominators, values))
    return all(map(op, map(mul, nums, dens[1:]), map(mul, nums[1:], dens)))


def fraction_texts(first: int, step: int, count: int, den: int) -> list[str]:
    """``rational_str`` of each (first + j*step)/den, j < count, den > 0, at
    most one int-to-text per cell.  Reduced, the gcd with den is fixed where the
    value's power of two (up to den's) and j mod den's odd part prime to step
    are: one ``_progression_texts`` per class (by decimal blocks for a long one
    whose step divides 100), or a gcd per cell if classes are under 8 cells."""
    if not step:
        return [rational_str(Fraction(first, den))] * count
    g = gcd(first, step, den)
    first, step, den = first // g, step // g, den // g
    two = den & -den if step & 1 else 1  # with an even step, den is odd or every value is
    period, inv = den // (den & -den), pow(step, -1, two)
    while (g := gcd(period, step)) > 1:
        period //= g
    if period * two.bit_length() > count // 8:
        return ratio_texts(range(first, first + count * step, step), repeat(den, count))
    column, powers = [None] * count, range(two.bit_length() - 1)  # below: (start, stride, g), g the gcd's power of two where j = start mod stride
    for start, stride, g in [(((1 << s) - first) * inv % (2 << s), 2 << s, 1 << s) for s in powers] + [(-first * inv % two, two, two)]:
        for j in range(start, min(start + stride * period, count), stride):
            n = first + j * step
            d = g * gcd(n, period)
            suffix, inc = f"/{den // d}" if d != den else "", stride * period * step // d
            column[j::stride * period] = _progression_texts(n // d, inc, len(range(j, count, stride * period)), suffix)
    return column


def ratio_texts(nums, dens) -> list:
    """``rational_str`` of each num/den of the paired iterables, reduced by
    one gcd, and None where den is 0; every other den is positive."""
    return [None if not d else str(n // g) if (g := gcd(n, d)) == d else f"{n // g}/{d // g}" for n, d in zip(nums, dens)]


_LOWS = [f"{r:02}" for r in range(100)]  # the two low digits of a number past 99


def _progression_texts(start: int, step: int, count: int, suffix: str) -> list[str]:
    """``f"{v}{suffix}"`` for v = start + j*step, j < count, step != 0.  When
    step divides 100 and no value is negative, the two low digits repeat every
    hundred: each full hundred past 0 is its head's text, spelled once, plus a
    table of the lows with the suffix, built once.  Under ten cells a hundred,
    or 200 in all full hundreds, that costs more than the plain texts."""
    if step < 0:  # the ascending progression, reversed
        return _progression_texts(start + (count - 1) * step, -step, count, suffix)[::-1]
    stop = start + count * step
    lo, hi = max(1, -(-start // 100)), stop // 100  # the full hundreds, by head
    if start < 0 or 100 % step or step > 10 or (hi - lo) * 100 // step < 200:
        return [f"{v}{suffix}" for v in range(start, stop, step)]
    lows = list(map(add, _LOWS[start % step :: step], repeat(suffix)))
    cells = [f"{v}{suffix}" for v in range(start, 100 * lo, step)]
    cells += map(add, chain.from_iterable(map(repeat, map(str, range(lo, hi)), repeat(len(lows)))), cycle(lows))
    cells += [f"{v}{suffix}" for v in range(100 * hi + start % step, stop, step)]
    return cells


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


class Rows:
    """A report table: flat rows with one key set, stored as one list of JSON
    scalars per key.  It is not a list: it has a length, and ``==`` holds
    against a ``Rows`` with the same columns, but it is neither indexed nor
    iterated; ``dump_json`` writes it as its list of row dicts, and a reader
    of the rows reads that text.  Lists passed in are kept, not copied, so
    they must not change."""

    __slots__ = ("_columns", "_len")

    def __init__(self, columns: dict):
        lengths = set(map(len, columns.values()))
        if len(lengths) > 1:
            raise ValueError(f"Rows columns differ in length: {sorted(lengths)}")
        self._columns = {key: column if type(column) is list else list(column) for key, column in columns.items()}
        self._len = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self._len

    def __eq__(self, other):
        if isinstance(other, Rows):
            return self._columns == other._columns
        return NotImplemented


def dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indentation, trailing newline.

    It writes the documents the lab builds: dicts with str keys, lists,
    ``Rows``, str, int, bool and None, the containers, keys, ints and bools
    of exact type (a str subclass is written as its str).  The text is
    exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` of the
    same document with each ``Rows`` as its list of row dicts; a ``Rows`` is
    written one column at a time (``_json_table``), any other list item by
    item.  Any other value or key raises ``TypeError`` in the stdlib's words
    ("Object of type float is not JSON serializable", "keys must be str, not
    int"), and a circular document ``RecursionError``.
    """
    out: list[str] = []
    _json_value(obj, "\n", out)
    out.append("\n")
    return "".join(out)


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
    if isinstance(value, str):
        return _json_str(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_value(value, indent: str, out: list) -> None:
    """Append ``value``'s JSON text to ``out``; ``indent`` is the newline and
    indentation of its line.  The pieces are joined once, at the end."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        for key in value:
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _json_str(key) + ": ")
            _json_value(value[key], inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif kind is list or kind is Rows:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if kind is Rows:
            out += _json_table(value._columns, inner)
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _json_value(item, inner, out)
                sep = "," + inner
        out.append(indent + "]")
    else:
        out.append(_json_scalar(value))


_ESCAPED = bytes(range(0x20)) + b'"\\\x7f'  # the ASCII that encode_basestring_ascii escapes


def _json_table(columns: dict, indent: str) -> list:
    """The text pieces of the rows of non-empty, equally long columns of JSON
    scalars under str keys, from the list's '[' to the last row's '}'; a key
    or value of another type raises ``dump_json``'s ``TypeError``.

    Each column is encoded in one pass, and the pieces alternate between the
    columns' values and fixed text ('[' or ',', '{', the indented keys, '}')
    built once.  A column of str values is joined once and taken as it is if
    the join holds no character ``encode_basestring_ascii`` escapes: its
    quotes join the fixed text.  A column whose cells all ``==`` its first, an
    exact str or None (a class's ``[reason] * count``), is written once into
    the fixed text; ``first is last`` is tested before that scan.  Rows whose
    columns are all so written are one row text repeated.
    """
    for key in columns:
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    inner = indent + "  "
    fixed, cells = [], []  # the fixed text before each column of cells, and those columns
    text, sep = "{", ""  # the fixed text since the last column; what comes before a key
    for key in sorted(columns):
        column = columns[key]
        text += sep + inner + _json_str(key) + ": "
        sep = ","
        first = column[0]
        if first is column[-1] and (type(first) is str or first is None) and column.count(first) == len(column):
            text += _json_scalar(first)
            continue
        try:
            joined = "".join(column)  # a TypeError unless every value is a str
        except TypeError:
            column = list(map(_json_scalar, column))  # raises for a value of another type
        else:
            if joined.isascii() and len(joined.encode().translate(None, _ESCAPED)) == len(joined):
                fixed.append(text + '"')
                cells.append(column)
                text = '"'
                continue
            column = list(map(_json_str, column))
        fixed.append(text)
        cells.append(column)
        text = ""
    text += indent + "}"
    count = len(column)
    if not cells:
        return ["[" + indent + text] + ["," + indent + text] * (count - 1)
    width = 2 * len(cells)
    pieces = [text + "," + indent + fixed[0]] * (width * count)
    pieces[0] = "[" + indent + fixed[0]
    for j, column in enumerate(cells):
        if j:
            pieces[2 * j :: width] = [fixed[j]] * count
        pieces[2 * j + 1 :: width] = column
    pieces.append(text)
    return pieces


def read_json(path: str):
    """The JSON document in an input file, read as UTF-8 whatever the locale."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partial output.

    A file that already holds exactly these bytes is left as it is.  Writing
    it again would change only its mtime, and on ext4 a rename over an
    existing file forces the new data to disk (``auto_da_alloc``): rewriting
    an unchanged report cost more, and varied far more from run to run, than
    building it.  The text is encoded, compared and written in slices of 64 Ki
    characters, so its bytes are never held whole: the comparison stops at the
    first slice that differs, or, for an ASCII text, at a size that differs.

    The file gets the mode ``open(path, "w")`` would give it: 0666 less the umask.
    """
    try:
        with open(path, "rb", buffering=0) as fh:  # a short read only costs a rewrite
            if not text.isascii() or os.fstat(fh.fileno()).st_size == len(text):
                if all(fh.read(len(data)) == data for data in _encoded(text)) and not fh.read(1):
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
            fh.writelines(_encoded(text))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _encoded(text: str):
    """``text.encode()`` in the bytes of successive 64 Ki-character slices."""
    for start in range(0, len(text), 1 << 16):
        yield text[start : start + (1 << 16)].encode()
