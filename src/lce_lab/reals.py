"""Left-c.e. reals at desk scale: monotone approximations plus an oracle limit.

A ``DeskReal`` packages a total map n -> a_n (exact rationals, nondecreasing)
with the exact limit the sequence converges to.  The limit is an oracle in
the following sense: construction code for witnesses must never read it;
only checkers and reporters may.  That discipline is by convention, not
enforcement, and is what lets finite experiments mirror statements about
non-computable truth.  Monotonicity is checked where a prefix is read in
bulk: ``approximations`` refuses a decreasing one, by integer
cross-products.  Closed-form values (geometric, a staircase's values and
its geometric tail) are built from integers, one ``Fraction(num, den)``
each.  Set and omega prefixes are incremental: a set real keeps one running
numerator, so each index costs one membership call the first time it is
passed, and an omega real sums its stage masses once and answers a stage by
lookup.

Kinds of desk real (``registry`` maps gallery entries and spec strings onto
these constructors):

* ``geometric``   a_n = limit - gap0 * ratio**n
* ``set_real``    a_n = n-bit partial sum of 0.A(0)A(1)... for an infinite,
                  ultimately periodic set A (so the limit is exactly rational)
* ``staircase``   a_n = limit - G(n) for an explicit strictly decreasing gap
                  schedule G; a stand-in for reals whose gaps shrink on any
                  prescribed schedule (true hyperimmune-style reals have no
                  finite realization)
* ``omega_toy``   halting-mass accumulation of a finite prefix-free machine;
                  the one kind that attains its limit, at the stage the last
                  code halts (gap queries there raise).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
from operator import gt, le
from typing import Callable, Optional, Sequence

from .dyadic import is_binary
from .errors import ConfigError, DegenerateApproximationError, DomainError, PreconditionError
from .util import holds_pairwise

_HALF = Fraction(1, 2)
_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")  # membership bits as the digits int(s, 2) reads


@dataclass(frozen=True)
class DeskReal:
    """A left-c.e. real as (approximation map, oracle limit, name)."""

    name: str
    approx: Callable[[int], Fraction]
    limit: Fraction
    # Stage at which the approximation attains the limit, if it ever does
    # (only omega_toy reals do); gap() raises from that stage on.
    attains_at: Optional[int] = None

    def __repr__(self):
        return f"DeskReal({self.name!r}, limit={self.limit})"


def approx_at(x: DeskReal, n: int) -> Fraction:
    """The n-th approximation a_n; nondecreasing in n."""
    if n < 0:
        raise DomainError(f"approximation index must be >= 0, got {n}")
    return x.approx(n)


def approximations(x: DeskReal, stop: int) -> list[Fraction]:
    """[a_0, ..., a_{stop-1}], refused with the index where the sequence decreases."""
    values = list(map(x.approx, range(stop)))
    if not holds_pairwise(le, values):
        i = next(i for i in range(stop - 1) if values[i + 1] < values[i])
        raise PreconditionError(f"{x.name}: approximation decreased at index {i + 1} (a_{i + 1} < a_{i})")
    return values


def gap(x: DeskReal, n: int) -> Fraction:
    """Exact remaining gap limit - a_n; must be strictly positive."""
    g = x.limit - approx_at(x, n)
    if g <= 0:
        raise DegenerateApproximationError(
            f"{x.name}: approximation reached or passed its limit at index {n}"
        )
    return g


def geometric(
    limit: Fraction,
    ratio: Fraction = _HALF,
    gap0: Optional[Fraction] = None,
    name: Optional[str] = None,
) -> DeskReal:
    """a_n = limit - gap0 * ratio**n; the workhorse with closed-form gaps."""
    if not 0 < ratio < 1:
        raise ConfigError(f"geometric ratio must lie in (0,1), got {ratio}")
    g0 = limit if gap0 is None else gap0
    if g0 <= 0:
        raise ConfigError(f"geometric initial gap must be positive, got {g0}")

    # (L_n*G_d*r_d**n - G_n*L_d*r_n**n) / (L_d*G_d*r_d**n), reduced by one gcd
    high, low, den, rn, rd = limit.numerator * g0.denominator, g0.numerator * limit.denominator, limit.denominator * g0.denominator, ratio.numerator, ratio.denominator

    def a(n: int) -> Fraction:
        power = rd**n
        return Fraction(high * power - low * rn**n, den * power)

    return DeskReal(
        name=name or f"geometric({limit})",
        approx=cache(a),
        limit=limit,
    )


def periodic_limit(prefix: str, period: str) -> Fraction:
    """Exact value of the binary expansion 0.prefix period period ...

    The period must contain a 1; otherwise the expansion terminates and the
    partial sums would attain the value.
    """
    if not (is_binary(prefix) and is_binary(period) and period):
        raise ConfigError(f"bad periodic pattern ({prefix!r}, {period!r})")
    if "1" not in period:
        raise ConfigError("period must contain a 1 (terminating expansions attain)")
    # prefix/2**m + period/((2**p - 1) * 2**m), m and p the two lengths,
    # over their common denominator
    m, ones = len(prefix), (1 << len(period)) - 1
    return Fraction((int(prefix, 2) if prefix else 0) * ones + int(period, 2), ones << m)


def set_real(
    membership: Callable[[int], bool],
    limit: Fraction,
    name: str = "set_real",
) -> DeskReal:
    """Bitwise partial sums of 0.A(0)A(1)... for an infinite set A.

    The caller supplies the exact limit (closed form for periodic sets);
    partial sums stay strictly below it precisely because A is infinite.
    a_n = num_n / 2**n with num_(n+1) = 2*num_n + A(n), the value
    ``real_from_set`` gives: one running numerator holds the bits read so
    far, extended by one membership call per new bit (spelled as digits and
    read by one ``int(s, 2)``), and num_n of an index already passed is a
    shift of it, so no earlier numerator is kept.
    """
    read = [0, 0]  # how many bits are read, and their integer

    def a(n: int) -> Fraction:
        if n < 0:
            raise DomainError(f"approximation index must be >= 0, got {n}")
        count, num = read
        if n > count:
            bits = bytes(map(bool, map(membership, range(count, n)))).translate(_BIT_TEXT)
            num, count = num << (n - count) | int(bits, 2), n
            read[:] = count, num
        return Fraction(num >> (count - n), 1 << n)

    return DeskReal(name=name, approx=cache(a), limit=limit)


def staircase(
    limit: Fraction,
    gaps: Callable[[int], Fraction],
    name: str = "staircase",
    validate_through: int = 64,
) -> DeskReal:
    """a_n = limit - G(n) for a strictly decreasing positive gap schedule G.

    Validation samples the schedule through ``validate_through`` by integer
    cross-products, and the approximations reuse those gaps, each value one
    ``Fraction`` of integers; callables must keep decreasing beyond that on
    their own honor.
    """
    gaps = cache(gaps)
    schedule = list(map(gaps, range(validate_through + 1)))
    if schedule and not (schedule[-1].numerator > 0 and holds_pairwise(gt, schedule)):
        n = next(n for n, g in enumerate(schedule) if g <= 0 or n and g >= schedule[n - 1])
        if schedule[n] <= 0:
            raise ConfigError(f"staircase gap G({n}) = {schedule[n]} is not positive")
        raise ConfigError(f"staircase schedule not strictly decreasing at {n}: {schedule[n]} >= {schedule[n - 1]}")
    ln, ld = limit.numerator, limit.denominator

    def a(n: int) -> Fraction:
        g = gaps(n)
        gd = g.denominator
        return Fraction(ln * gd - g.numerator * ld, ld * gd)

    return DeskReal(name=name, approx=cache(a), limit=limit)


def schedule_from_list(head: Sequence[Fraction], tail_ratio: Fraction) -> Callable[[int], Fraction]:
    """Gap schedule from explicit leading gaps, then geometric decay."""
    head = [Fraction(g) for g in head]
    if not head:
        raise ConfigError("staircase needs at least one explicit gap")
    if not 0 < tail_ratio < 1:
        raise ConfigError(f"staircase tail_ratio must lie in (0,1), got {tail_ratio}")

    last, hn, hd, tn, td = len(head) - 1, head[-1].numerator, head[-1].denominator, tail_ratio.numerator, tail_ratio.denominator

    def g(n: int) -> Fraction:
        if n <= last:
            return head[n]
        return Fraction(hn * tn ** (n - last), hd * td ** (n - last))

    return g


def omega_toy(machine, stages: Optional[dict[str, int]] = None, name: Optional[str] = None) -> DeskReal:
    """Halting-mass real of a finite prefix-free machine.

    a_s sums 2**-|code| over the codes that have halted by stage s; the last
    stage sums every code, which is the machine's full Kraft mass, so the
    limit is attained there.  Stage defaults to the code length (each code
    "runs" about as long as it is); a given stage must be an int >= 1, and
    only the machine's codes can have one.  The masses are summed once, in
    stage order over the denominator 2**(longest code), and a_s is the sum
    through the last halting stage at or below s.
    """
    stages = stages or {}
    strays = sorted(set(stages).difference(machine.table))
    if strays:
        raise ConfigError(f"halting stage given for code {strays[0]!r}, which machine {machine.name!r} lacks")
    top = max(map(len, machine.table), default=0)
    mass_at: dict[int, int] = {}  # halting stage -> its mass * 2**top
    for code in sorted(machine.table):
        s = stages.get(code, max(len(code), 1))
        if type(s) is not int or s < 1:
            raise ConfigError(f"halting stage for code {code!r} must be an integer >= 1, got {s!r}")
        mass_at[s] = mass_at.get(s, 0) + (1 << (top - len(code)))
    halts = sorted(mass_at)
    masses = list(map(Fraction, accumulate(map(mass_at.__getitem__, halts), initial=0), repeat(1 << top)))

    return DeskReal(
        name=name or f"omega({machine.name})",
        approx=lambda s: masses[bisect_right(halts, s)],
        limit=masses[-1],
        attains_at=halts[-1] if halts else 0,
    )


def scale(x: DeskReal, r: Fraction) -> DeskReal:
    """The real r*x with the approximation scaled pointwise; r must be positive."""
    if r <= 0:
        raise ConfigError(f"scale factor must be positive, got {r}")
    return DeskReal(
        name=f"{r}*{x.name}",
        approx=lambda n: r * x.approx(n),
        limit=r * x.limit,
        attains_at=x.attains_at,
    )


def alternating_gaps(n: int) -> Fraction:
    """G(2k) = 4**-k, G(2k+1) = 4**-k / 3: ratio steps alternate 1/3 and 3/4."""
    k, odd = divmod(n, 2)
    base = Fraction(1, 1 << (2 * k))
    return base / 3 if odd else base
