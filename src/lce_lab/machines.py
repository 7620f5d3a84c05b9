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
saturate at the all-ones string by default, which is what keeps the domain
mass exactly equal to the source machine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .dyadic import is_binary, kraft_mass, truncate
from .errors import (
    ConfigError,
    ConstructionError,
    MachineFormatError,
    PrefixFreeError,
)
from .reals import DeskReal
from .reducibility import TranslationWitness
from .speedability import MAX_HORIZON
from .util import ceil_log2

_ZERO = Fraction(0)

OVERFLOW_SATURATE = "saturate"
OVERFLOW_ERROR = "error"


def _check_binary(s: str, what: str) -> None:
    if not is_binary(s):
        raise MachineFormatError(f"{what} must be a binary string, got {s!r}")


def find_prefix_violation(codes) -> Optional[tuple[str, str]]:
    """First (shorter, longer) pair where one code prefixes another, if any.

    In lexicographic order every violated code is immediately followed by one
    of its extensions, so scanning neighbors suffices.
    """
    ordered = sorted(codes)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return (a, b)
    return None


@dataclass(frozen=True)
class PrefixMachine:
    """Finite prefix-free code -> output table.

    ``pad_length`` records the pad width for machines produced by
    ``uniformize``; plain machines leave it unset.
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
        violation = find_prefix_violation(self.table)
        if violation is not None:
            raise PrefixFreeError(*violation)


def measure(machine: PrefixMachine) -> Fraction:
    """Kraft mass of the domain: sum of 2**-|code|; at most 1 when prefix-free."""
    return kraft_mass(map(len, machine.table))


def shortest_codes(machine: PrefixMachine) -> dict[str, int]:
    """{output: length of its shortest code} over the machine's range, in one
    pass over the table."""
    best: dict[str, int] = {}
    for code, output in machine.table.items():
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


def uniformize(
    source: PrefixMachine, witness: TranslationWitness, overflow: str = OVERFLOW_SATURATE
) -> PrefixMachine:
    """Transport a machine along a total translation witness.

    For each code x with output sigma (n bits, value q = 0.sigma): translate q,
    truncate to n bits, and emit 2**L codes x+w whose outputs step through the
    n-bit values above the truncation, one per pad value; L is ``pad_width``
    of the witness's own constant.  Translated values outside [0,1) are
    construction errors reported per code.  The result keeps the source's
    Kraft mass exactly (saturating policy) and stays prefix-free because all
    pads share the fixed width L.
    """
    if not witness.total:
        raise ConfigError("uniformization needs a total witness")
    if overflow not in (OVERFLOW_SATURATE, OVERFLOW_ERROR):
        raise ConfigError(f"unknown overflow policy {overflow!r}")
    width = pad_width(witness.constant)
    pads = [format(w, f"0{width}b") for w in range(1 << width)]

    kept: list[str] = []
    outputs: list[str] = []  # one per pad for each kept code, in pad order
    bad_codes: list[str] = []
    for code in sorted(source.table):
        sigma = source.table[code]
        n = len(sigma)
        value = witness.translate(Fraction(int(sigma, 2), 1 << n) if n else _ZERO)
        if value is None or not 0 <= value.numerator < value.denominator:
            bad_codes.append(code)
            continue
        base = (value.numerator << n) // value.denominator  # truncate(value, n)
        top = (1 << n) - base  # the first pad whose value overflows n bits
        if top < len(pads) and overflow == OVERFLOW_ERROR:
            raise ConstructionError(
                f"pad overflow at code {code!r} with pad {top}", [code]
            )
        kept.append(code)
        fits = min(top, len(pads))
        if n:
            fmt = f"0{n}b"
            for shifted in range(base, base + fits):
                outputs.append(format(shifted, fmt))
        else:  # format(0, "00b") is "0"; an empty output stays empty
            outputs.append("")
        outputs += ["1" * n] * (len(pads) - fits)  # the overflowing pads saturate
    if bad_codes:
        raise ConstructionError(
            f"translated output outside [0,1) for codes {bad_codes}", bad_codes
        )
    table = dict(zip([code + pad for code in kept for pad in pads], outputs))
    return PrefixMachine(name=f"{source.name}+pads", table=table, pad_length=width)


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
            "rows": [
                {
                    "n": row.n,
                    "alpha_complexity": row.alpha_complexity,
                    "beta_complexity": row.beta_complexity,
                    "bound": row.bound,
                    "ok": row.ok,
                }
                for row in self.rows
            ],
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
    the additive constant.  n_max is at most ``MAX_HORIZON``, since the loop
    truncates both limits at every n."""
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    if n_max > MAX_HORIZON:
        raise ConfigError(f"n_max must be <= {MAX_HORIZON}, got {n_max}")
    if constant < 0:
        raise ConfigError(f"constant must be >= 0, got {constant}")
    report = UschReport(constant=constant)
    a_shortest, b_shortest = shortest_codes(a_machine), shortest_codes(b_machine)
    for n in range(1, n_max + 1):
        beta_bits = format(truncate(beta.limit, n), f"0{n}b")
        k_beta = b_shortest.get(beta_bits)
        if k_beta is None:
            continue
        alpha_bits = format(truncate(alpha.limit, n), f"0{n}b")
        k_alpha = a_shortest.get(alpha_bits)
        report.rows.append(
            UschRow(
                n=n,
                alpha_complexity=k_alpha,
                beta_complexity=k_beta,
                bound=k_beta + constant,
            )
        )
    return report


# ---------------------------------------------------------------------------
# Machine files


def machine_from_dict(doc: dict) -> PrefixMachine:
    """{"name"?, "pad_length"?, "entries": [{"code", "output"}, ...]}

    Checks the document's shape; ``PrefixMachine`` checks the strings.
    """
    if not isinstance(doc, dict) or "entries" not in doc:
        raise MachineFormatError("machine document needs an entries list")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise MachineFormatError("entries must be a list")
    table: dict[str, str] = {}
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
    pad = doc.get("pad_length")
    if pad is not None and (type(pad) is not int or pad < 0):
        raise MachineFormatError(f"pad_length must be an integer >= 0, got {pad!r}")
    return PrefixMachine(name=str(doc.get("name", "machine")), table=table, pad_length=pad)


def machine_to_dict(machine: PrefixMachine) -> dict:
    doc: dict = {
        "name": machine.name,
        "entries": [
            {"code": code, "output": machine.table[code]}
            for code in sorted(machine.table)
        ],
    }
    if machine.pad_length is not None:
        doc["pad_length"] = machine.pad_length
    return doc
