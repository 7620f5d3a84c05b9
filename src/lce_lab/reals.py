"""Left-c.e. reals at desk scale: monotone approximations plus an oracle limit.

A ``DeskReal`` packages a total map n -> a_n (exact rationals, nondecreasing)
with the exact limit the sequence converges to.  The limit is an oracle in
the following sense: construction code for witnesses must never read it;
only checkers and reporters may.  That discipline is by convention, not
enforcement, and is what lets finite experiments mirror statements about
non-computable truth.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Optional, Sequence

from .dyadic import is_binary, kraft_mass, real_from_set
from .errors import ConfigError, DegenerateApproximationError, DomainError

_HALF = Fraction(1, 2)


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

    def a(n: int) -> Fraction:
        return limit - g0 * ratio**n

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
    m, p = len(prefix), len(period)
    head = Fraction(int(prefix, 2) if prefix else 0, 1 << m)
    tail = Fraction(int(period, 2), (1 << p) - 1) / (1 << m)
    return head + tail


def set_real(
    membership: Callable[[int], bool],
    limit: Fraction,
    name: str = "set_real",
) -> DeskReal:
    """Bitwise partial sums of 0.A(0)A(1)... for an infinite set A.

    The caller supplies the exact limit (closed form for periodic sets);
    partial sums stay strictly below it precisely because A is infinite.
    """
    return DeskReal(
        name=name,
        approx=cache(lambda n: real_from_set(membership, n)),
        limit=limit,
    )


def staircase(
    limit: Fraction,
    gaps: Callable[[int], Fraction],
    name: str = "staircase",
    validate_through: int = 64,
) -> DeskReal:
    """a_n = limit - G(n) for a strictly decreasing positive gap schedule G.

    Validation samples the schedule through ``validate_through``; callables
    must keep decreasing beyond that on their own honor.
    """
    prev = None
    for n in range(validate_through + 1):
        g = gaps(n)
        if g <= 0:
            raise ConfigError(f"staircase gap G({n}) = {g} is not positive")
        if prev is not None and g >= prev:
            raise ConfigError(
                f"staircase schedule not strictly decreasing at {n}: {g} >= {prev}"
            )
        prev = g
    return DeskReal(
        name=name,
        approx=cache(lambda n: limit - gaps(n)),
        limit=limit,
    )


def schedule_from_list(head: Sequence[Fraction], tail_ratio: Fraction) -> Callable[[int], Fraction]:
    """Gap schedule from explicit leading gaps, then geometric decay."""
    head = [Fraction(g) for g in head]
    if not head:
        raise ConfigError("staircase needs at least one explicit gap")
    if not 0 < tail_ratio < 1:
        raise ConfigError(f"staircase tail_ratio must lie in (0,1), got {tail_ratio}")

    def g(n: int) -> Fraction:
        if n < len(head):
            return head[n]
        return head[-1] * tail_ratio ** (n - len(head) + 1)

    return g


def omega_toy(machine, stages: Optional[dict[str, int]] = None, name: Optional[str] = None) -> DeskReal:
    """Halting-mass real of a finite prefix-free machine.

    a_s sums 2**-|code| over the codes that have halted by stage s; the last
    stage sums every code, which is the machine's full Kraft mass, so the
    limit is attained there.  Stage defaults to the code length (each code
    "runs" about as long as it is); a given stage must be an int >= 1, and
    only the machine's codes can have one.
    """
    strays = sorted(set(stages or {}).difference(machine.table))
    if strays:
        raise ConfigError(f"halting stage given for code {strays[0]!r}, which machine {machine.name!r} lacks")
    stage_of = {}
    for code in sorted(machine.table):
        s = (stages or {}).get(code, max(len(code), 1))
        if type(s) is not int or s < 1:
            raise ConfigError(f"halting stage for code {code!r} must be an integer >= 1, got {s!r}")
        stage_of[code] = s
    last = max(stage_of.values(), default=0)

    def a(s: int) -> Fraction:
        return kraft_mass(len(code) for code, st in stage_of.items() if st <= s)

    return DeskReal(
        name=name or f"omega({machine.name})",
        approx=cache(a),
        limit=a(last),
        attains_at=last,
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
