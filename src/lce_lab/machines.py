"""Finite prefix-free machines: Kraft mass, machine complexity, and the padded
uniformization that transports a total translation witness from one machine's
outputs to another's.

Machines here are finite code -> output tables over binary strings.  The
domain must be prefix-free, so the mass sum(2**-|code|) obeys the Kraft bound,
and complexity of a string is the length of its shortest code.  Only
``PrefixMachine`` checks that codes and outputs are binary strings.

``uniformize`` realizes the machine transport: every code x with output sigma
of length n spawns 2**L padded codes x.w (|w| = L derived from the witness
constant), mapping to the n-bit int floor(phi(0.sigma) * 2**n) shifted by the
pad's integer value.  Pads that would overflow the n-bit range
saturate at the all-ones string, which is what keeps the domain mass exactly
equal to the source machine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from operator import add, attrgetter, floordiv, gt, itemgetter, lshift, lt, mul
from typing import Optional

from .dyadic import is_binary, kraft_mass, truncate
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    MachineFormatError,
    PrefixFreeError,
)
from .reals import DeskReal
from .reducibility import MAX_ENUMERATION_BITS, TranslationWitness, affine_integers
from .speedability import check_horizon
from .util import Rows, ceil_log2

_TAIL = itemgetter(slice(3, None))  # bin(2**n + v)[3:] spells v in n bits
_CODE, _OUTPUT = itemgetter("code"), itemgetter("output")


def _check_binary(s: str, what: str) -> None:
    if not is_binary(s):
        raise MachineFormatError(f"{what} must be a binary string, got {s!r}")


def find_prefix_violation(codes) -> Optional[tuple[str, str]]:
    """First (shorter, longer) pair where one code prefixes another, if any.

    In lexicographic order every violated code is immediately followed by one
    of its extensions, so testing neighbours suffices.  One C-level
    ``str.startswith`` pass over them answers whether there is a pair; only
    then are they walked, to name the first.
    """
    ordered = sorted(codes)
    if any(map(str.startswith, ordered[1:], ordered)):
        for a, b in zip(ordered, ordered[1:]):
            if b.startswith(a):
                return (a, b)
    return None


@dataclass(frozen=True)
class PrefixMachine:
    """Finite prefix-free code -> output table.

    ``pad_length`` records the pad width for machines produced by
    ``uniformize``; plain machines leave it unset.  The constructor is the
    one check that codes and outputs are binary strings and the domain is
    prefix-free; only ``uniformize``, whose tables are both by construction,
    builds through ``_built`` without it.
    """

    name: str
    table: dict[str, str] = field(default_factory=dict)
    pad_length: Optional[int] = None

    def __post_init__(self):
        # One pass over all codes joined, then all outputs; only a bad table
        # walks its entries, to name the first bad one.
        try:
            binary = is_binary("".join(self.table)) and is_binary("".join(self.table.values()))
        except TypeError:  # a non-str entry
            binary = False
        if not binary:
            for code, output in self.table.items():
                _check_binary(code, "code")
                _check_binary(output, "output")
        violation = len(set(map(len, self.table))) > 1 and find_prefix_violation(self.table)  # one length: no pair
        if violation:
            raise PrefixFreeError(*violation)

    @classmethod
    def _built(cls, name: str, table: dict[str, str], pad_length: Optional[int]) -> PrefixMachine:
        """A machine over a table that is binary and prefix-free by construction, unchecked."""
        machine = object.__new__(cls)
        for attr, value in (("name", name), ("table", table), ("pad_length", pad_length)):
            object.__setattr__(machine, attr, value)
        return machine


def measure(machine: PrefixMachine) -> Fraction:
    """Kraft mass of the domain: sum of 2**-|code|; at most 1 when prefix-free."""
    return kraft_mass(map(len, machine.table))


def shortest_codes(machine: PrefixMachine) -> dict[str, int]:
    """{output: length of its shortest code} over the machine's range, in one
    pass over the table."""
    return _shortest(machine.table.items())


def _shortest(entries) -> dict[str, int]:
    best: dict[str, int] = {}
    for code, output in entries:
        k = len(code)
        if k < best.get(output, k + 1):
            best[output] = k
    return best


def complexity(machine: PrefixMachine, tau: str) -> Optional[int]:
    """Length of the shortest code producing tau; None when tau is not in range."""
    _check_binary(tau, "target string")
    return shortest_codes(machine).get(tau)


def pad_width(constant: Fraction) -> int:
    """Pad length derived from a witness constant: ceil(log2(c+1)), exactly."""
    if constant <= 0:
        raise ConfigError(f"witness constant must be positive, got {constant}")
    return ceil_log2(constant + 1)


def uniformize(source: PrefixMachine, witness: TranslationWitness) -> PrefixMachine:
    """Transport a machine along a total translation witness.

    For each code x with output sigma (n bits, value q = 0.sigma): translate q,
    truncate to n bits, and emit 2**L codes x+w whose outputs step through the
    n-bit values above the truncation, one per pad value; L is ``pad_width``
    of the witness's own constant.  Translated values outside [0,1) are
    construction errors reported per code.  The result keeps the source's
    Kraft mass exactly and stays prefix-free because all pads share the fixed
    width L.

    The table is built in column passes over the ascending codes, with
    s = int(sigma, 2).  An affine witness (``witness.affine = (u, v)``) is
    not called: with u*q + v = (a*q + b)/m in integers, the truncated image
    is (a*s + b*2**n) // m.  Any other witness is asked for ``translate(q)``.
    One ``min`` and one ``all`` test the truncations against [0, 2**n),
    which holds exactly when the images lie in [0,1).  Keys and outputs are
    written one pad value v at a time by strided slice assignment (one run
    per code when pads outnumber codes), an output as ``bin(2**n + base +
    v)[3:]``.  Only the codes whose last pad leaves the n-bit range are
    walked again: those pads saturate at one shared all-ones string.  The
    table is binary and prefix-free by construction, so the machine is
    built without ``PrefixMachine``'s check.

    More than 2**MAX_ENUMERATION_BITS emitted codes are refused with a
    ``ConfigError`` before any pad is built.
    """
    if not witness.total:
        raise ConfigError("uniformization needs a total witness")
    width = pad_width(witness.constant)
    if len(source.table) << width > 1 << MAX_ENUMERATION_BITS:
        raise ConfigError(
            f"transporting {len(source.table)} codes with 2**{width} pads each refused"
            f" (cap 2**{MAX_ENUMERATION_BITS} codes)"
        )
    pad_count = 1 << width
    codes = sorted(source.table)
    sigmas = list(map(source.table.__getitem__, codes))
    lengths = list(map(len, sigmas))
    ones = list(map(lshift, repeat(1), lengths))  # 2**n per code
    samples = map(int, sigmas if min(lengths, default=1) else map("0".__add__, sigmas), repeat(2))  # int("", 2) raises
    if witness.affine is not None:
        a, b, m = affine_integers(witness)
        nums = map(add, map(mul, repeat(a), samples), map(lshift, repeat(b), lengths))
        bases = list(nums if m == 1 else map(floordiv, nums, repeat(m)))
    else:
        bases = list(map(_truncated_image, repeat(witness.translate), samples, ones))
    if bases and (min(bases) < 0 or not all(map(lt, bases, ones))):  # an image outside [0,1)
        bad_codes = [code for code, base, one in zip(codes, bases, ones) if not 0 <= base < one]
        raise ConstructionError(f"translated output outside [0,1) for codes {bad_codes}", bad_codes)
    pads = list(map(_TAIL, map(bin, range(pad_count, 2 * pad_count))))
    firsts = list(map(add, ones, bases))  # bin(first + v)[3:] spells base + v in n bits
    size = len(codes) * pad_count
    keys, outputs = [None] * size, [None] * size
    if pad_count <= len(codes):  # a Python step per pad, or else per code
        for v, pad in enumerate(pads):
            keys[v::pad_count] = map(add, codes, repeat(pad))
            outputs[v::pad_count] = map(_TAIL, map(bin, map(add, firsts, repeat(v))))
    else:
        for start, code, first, one in zip(range(0, size, pad_count), codes, firsts, ones):
            stop = min(first + pad_count, 2 * one)  # past 2 * one, the pads saturate below
            keys[start : start + pad_count] = map(code.__add__, pads)
            outputs[start : start + stop - first] = map(_TAIL, map(bin, range(first, stop)))
    for i in compress(range(len(codes)), map(gt, map(add, bases, repeat(pad_count)), ones)):
        start, stop = i * pad_count + ones[i] - bases[i], (i + 1) * pad_count
        outputs[start:stop] = repeat("1" * lengths[i], stop - start)
    return PrefixMachine._built(f"{source.name}+pads", dict(zip(keys, outputs)), width)


def _truncated_image(translate, s: int, one: int) -> int:
    """floor(translate(s / one) * one), or -1 where it is undefined: in
    [0, one) exactly when the image lies in [0,1)."""
    value = translate(Fraction(s, one))
    return -1 if value is None else value.numerator * one // value.denominator


@dataclass(frozen=True)
class UschRow:
    n: int
    alpha_complexity: Optional[int]
    beta_complexity: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.alpha_complexity is not None and self.alpha_complexity <= self.bound


@dataclass
class UschReport:
    """Lengthwise complexity comparison K_A(alpha bits) <= K_B(beta bits) + c."""

    constant: int
    rows: list[UschRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def first_failure(self) -> Optional[int]:
        for row in self.rows:
            if not row.ok:
                return row.n
        return None

    def to_json_dict(self) -> dict:
        return {
            "constant": self.constant,
            "passed": self.passed,
            "first_failure": self.first_failure,
            "rows": Rows({key: list(map(attrgetter(key), self.rows)) for key in ("n", "alpha_complexity", "beta_complexity", "bound", "ok")}),
        }


def check_usch(
    a_machine: PrefixMachine,
    b_machine: PrefixMachine,
    alpha: DeskReal,
    beta: DeskReal,
    constant: int,
    n_max: int,
) -> UschReport:
    """For every length n <= n_max where the source machine codes beta's n-bit
    prefix, require the transported machine to code alpha's n-bit prefix within
    the additive constant.  Each limit's n-bit prefix is the first n digits
    of its n_max-bit truncation, which the loop cuts at every n, so n_max is
    at most ``MAX_HORIZON``; both limits must lie in [0,1), alpha's checked
    first."""
    check_horizon(n_max, "n_max")
    if constant < 0:
        raise ConfigError(f"constant must be >= 0, got {constant}")
    for role, real in (("alpha", alpha), ("beta", beta)):
        if not 0 <= real.limit < 1:
            raise DomainError(f"{role} limit must lie in [0,1), got {real.limit}")
    report = UschReport(constant=constant)
    a_bits, b_bits = (format(truncate(real.limit, n_max), f"0{n_max}b") for real in (alpha, beta))
    a_shortest, b_shortest = _shortest_prefixes(a_machine, a_bits), _shortest_prefixes(b_machine, b_bits)
    for n in range(1, n_max + 1):
        k_beta = b_shortest.get(b_bits[:n])
        if k_beta is None:
            continue
        k_alpha = a_shortest.get(a_bits[:n])
        report.rows.append(
            UschRow(
                n=n,
                alpha_complexity=k_alpha,
                beta_complexity=k_beta,
                bound=k_beta + constant,
            )
        )
    return report


def _shortest_prefixes(machine: PrefixMachine, bits: str) -> dict[str, int]:
    """``shortest_codes`` over the outputs that are non-empty prefixes of
    ``bits``, the only ones ``check_usch`` looks up: one C-level pass over the
    table keeps just their entries."""
    table, targets = machine.table, {bits[:n] for n in range(1, len(bits) + 1)}
    return _shortest(compress(table.items(), map(targets.__contains__, table.values())))


# ---------------------------------------------------------------------------
# Machine files


def machine_from_dict(doc: dict) -> PrefixMachine:
    """A machine file's parsed JSON: {"name"?, "pad_length"?, "entries": [{"code", "output"}, ...]}

    Checks the document's shape; ``PrefixMachine`` checks the strings.  The
    entries must be a list, as in the file: ``machine_to_dict``'s in-memory
    ``Rows`` is refused, and is read back from its ``dump_json`` text.  The
    table is built in one C-level pass over the code and output columns; only
    when that pass fails (an entry that is not a dict, a missing key, an
    unhashable code) or loses an entry (a duplicate code) are the entries
    walked one by one, to name the first fault.
    """
    if not isinstance(doc, dict) or "entries" not in doc:
        raise MachineFormatError("machine document needs an entries list")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise MachineFormatError("entries must be a list")
    table = None
    if all(map(isinstance, entries, repeat(dict))):
        try:
            table = dict(zip(map(_CODE, entries), map(_OUTPUT, entries)))
        except (KeyError, TypeError):
            pass
    if table is None or len(table) != len(entries):
        table = {}
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "code" not in entry or "output" not in entry:
                raise MachineFormatError(f"entry {i} needs code and output")
            code = entry["code"]
            try:
                if code in table:
                    raise MachineFormatError(f"duplicate code {code!r}")
            except TypeError:  # unhashable, so not a string either
                raise MachineFormatError(f"entry {i} code must be a binary string, got {code!r}") from None
            table[code] = entry["output"]
    name, pad = doc.get("name", "machine"), doc.get("pad_length")
    if not isinstance(name, str):
        raise MachineFormatError(f"name must be a string, got {name!r}")
    if pad is not None and (type(pad) is not int or pad < 0):
        raise MachineFormatError(f"pad_length must be an integer >= 0, got {pad!r}")
    return PrefixMachine(name=name, table=table, pad_length=pad)


def machine_to_dict(machine: PrefixMachine) -> dict:
    """The document whose JSON text ``machine_from_dict`` reads, its entries a
    ``Rows`` by ascending code."""
    codes = sorted(machine.table)
    doc: dict = {"name": machine.name, "entries": Rows({"code": codes, "output": list(map(machine.table.__getitem__, codes))})}
    if machine.pad_length is not None:
        doc["pad_length"] = machine.pad_length
    return doc
