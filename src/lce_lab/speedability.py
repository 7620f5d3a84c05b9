"""Speed-up functions, exact convergence-ratio traces, and the conversions
between index-level and rational-level acceleration.

For a real with approximation a_0 <= a_1 <= ... the quantity

    (limit - a_{f(n)}) / (limit - a_n)

measures how much of the remaining gap a speed-up function f burns at index n.
A finite-horizon running minimum of these ratios is *evidence* of speedability
at level rho, never a proof, and no run ever concludes nonspeedability: the
genuine statement quantifies over all indices.

The same acceleration can live on the rationals: a translation map g with
q < g(q) < limit on (-inf, limit).  ``speedup_from_translation`` and
``translation_from_speedup`` convert between the two pictures, and the ratio
chain

    (limit - a_{f(i)}) / (limit - a_i)  <=  (limit - g(q)) / (limit - q)

for q in [a_i, a_{i+1}) is exact and testable sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Optional

from .errors import ConfigError, PreconditionError, SearchExhaustedError
from .reals import DeskReal, gap
from .util import rational_str

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_SEARCH_CAP = 1_000_000
MAX_HORIZON = 1 << 12  # every --horizon and trace; a trace holds horizon + 1 exact ratios


@dataclass(frozen=True)
class SpeedUp:
    """A speed-up function: nondecreasing with n <= f(n), validated as queried."""

    name: str
    evaluate: Callable[[int], int]


def identity_speedup() -> SpeedUp:
    return SpeedUp("identity", lambda n: n)


def linear_speedup(factor: int) -> SpeedUp:
    if factor < 1:
        raise ConfigError(f"linear speed-up factor must be >= 1, got {factor}")
    return SpeedUp(f"linear({factor})", lambda n: factor * n)


@dataclass(frozen=True)
class TranslationMap:
    """A rational acceleration map; partial maps return None off their domain."""

    name: str
    evaluate: Callable[[Fraction], Optional[Fraction]]
    total: bool = True


def affine_toward(target: Fraction, s: Fraction) -> TranslationMap:
    """g(q) = target - s*(target - q): contracts the distance to target by s."""
    s = Fraction(s)
    if not 0 < s < 1:
        raise ConfigError(f"contraction factor must lie in (0,1), got {s}")
    return TranslationMap(
        name=f"affine({s}->{target})",
        evaluate=lambda q: target - s * (target - q),
    )


def identity_translation() -> TranslationMap:
    return TranslationMap("identity", lambda q: q)


def amplify(g: TranslationMap, k: int) -> TranslationMap:
    """k-fold composition of g with itself; contracts affine maps k times as hard."""
    if k < 1:
        raise ConfigError(f"amplification count must be >= 1, got {k}")
    if k == 1:
        return g

    def evaluate(q: Fraction) -> Optional[Fraction]:
        for _ in range(k):
            q = g.evaluate(q)
            if q is None:
                return None
        return q

    return TranslationMap(name=f"{g.name}^{k}", evaluate=evaluate, total=g.total)


def _speedup_value(f: SpeedUp, n: int) -> int:
    fn = f.evaluate(n)
    if not isinstance(fn, int) or fn < n:
        raise PreconditionError(f"{f.name}: f({n}) = {fn!r} violates n <= f(n)")
    return fn


def ratio(x: DeskReal, f: SpeedUp, n: int) -> Fraction:
    """Exact gap ratio (limit - a_{f(n)}) / (limit - a_n); lies in [0, 1]."""
    fn = _speedup_value(f, n)
    denominator = gap(x, n)
    numerator = x.limit - x.approx(fn)
    if numerator < 0:
        raise PreconditionError(f"{x.name}: approximation exceeded its limit at {fn}")
    return numerator / denominator


@dataclass
class RatioTrace:
    """Ratios along increasing indices with their running minimum."""

    entries: list[tuple[int, Fraction]] = field(default_factory=list)
    running_min: Optional[Fraction] = None

    def append(self, n: int, value: Fraction) -> None:
        if self.entries and n <= self.entries[-1][0]:
            raise PreconditionError("trace indices must strictly increase")
        self.entries.append((n, value))
        if self.running_min is None or value < self.running_min:
            self.running_min = value

    def evidence_at(self, rho: Fraction) -> bool:
        return self.running_min is not None and self.running_min <= rho

    def csv_rows(self) -> list[tuple[int, int, int, int, int]]:
        rows = []
        best: Optional[Fraction] = None
        for n, value in self.entries:
            best = value if best is None or value < best else best
            rows.append(
                (n, value.numerator, value.denominator, best.numerator, best.denominator)
            )
        return rows

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"n": n, "ratio": rational_str(v)} for n, v in self.entries
            ],
            "running_min": (
                rational_str(self.running_min) if self.running_min is not None else None
            ),
        }


def liminf_record(x: DeskReal, f: SpeedUp, horizon: int) -> RatioTrace:
    """Ratios for n = 0..horizon with the running minimum.

    A finite stand-in for the limit-inferior: callers read the running minimum
    as rho-evidence when it drops to rho, and nothing more.  Also validates
    that f is nondecreasing with n <= f(n) across the horizon.
    """
    check_horizon(horizon)
    trace = RatioTrace()
    prev = None
    for n in range(horizon + 1):
        fn = _speedup_value(f, n)
        if prev is not None and fn < prev:
            raise PreconditionError(f"{f.name}: f({n}) = {fn} dropped below f({n - 1}) = {prev}")
        prev = fn
        trace.append(n, ratio(x, f, n))
    return trace


def _least_index(
    x: DeskReal, start: int, reached: Callable[[Fraction], bool], cap: int, goal: str
) -> int:
    """Least n >= start with reached(a_n), by exponential search then bisection.

    ``reached`` must stay true once true along the nondecreasing a_n.  The
    search probes start, start+1, start+2, start+4, ... and raises
    SearchExhaustedError when a probed index above ``cap`` still falls
    short: every answer up to ``cap`` is found, and nothing past the first
    probe above ``cap`` is approximated.
    """
    if reached(x.approx(start)):
        return start
    lo, step = start, 1
    while not reached(x.approx(start + step)):
        if start + step > cap:
            raise SearchExhaustedError(f"{x.name}: no index up to {cap} {goal}")
        lo, step = start + step, step * 2
    hi = start + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reached(x.approx(mid)):
            hi = mid
        else:
            lo = mid
    return hi


def translation_from_speedup(
    x: DeskReal, f: SpeedUp, search_cap: int = DEFAULT_SEARCH_CAP
) -> TranslationMap:
    """Rational-level form of an index speed-up: q -> a_{f(least i with q <= a_i)}.

    Defined on rationals below the limit and undefined elsewhere; the domain
    test is the one place the oracle limit is read (deciding q < limit is not
    an approximation-side question).  On the approximation points themselves
    the map satisfies g(a_i) = a_{f(i)} whenever the a_i are distinct.  The
    index search follows ``_least_index``'s cap rule.
    """

    def evaluate(q: Fraction) -> Optional[Fraction]:
        if q >= x.limit:
            return None
        i = _least_index(x, 0, lambda a: a >= q, search_cap, f"reaches {q}")
        return x.approx(_speedup_value(f, i))

    return TranslationMap(name=f"{f.name}@{x.name}", evaluate=evaluate, total=False)


def speedup_from_translation(
    x: DeskReal, g: TranslationMap, search_cap: int = DEFAULT_SEARCH_CAP
) -> SpeedUp:
    """Index-level form of a rational acceleration map.

    f(i) is the least index n > i with a_n strictly above g(a_{i+1}), found
    under ``_least_index``'s cap rule; exhausting the cap signals that g
    pushed the value too close to the limit for the horizon.  Results are
    cached so repeated queries stay cheap and consistent.
    """

    @cache
    def evaluate(i: int) -> int:
        if i < 0:
            raise PreconditionError(f"speed-up index must be >= 0, got {i}")
        target = g.evaluate(x.approx(i + 1))
        if target is None:
            raise PreconditionError(f"{g.name} undefined at a_{i + 1}")
        goal = f"climbs above {g.name}(a_{i + 1})"
        return _least_index(x, i + 1, lambda a: a > target, search_cap, goal)

    return SpeedUp(name=f"{g.name}@{x.name}", evaluate=evaluate)


# ---------------------------------------------------------------------------
# Total speed-up checking

PROBE_NOT_BELOW_LIMIT = "probe_not_below_limit"
PROBE_UNDEFINED = "undefined"
PROBE_NOT_ABOVE = "g_not_above_probe"
PROBE_NOT_BELOW = "g_not_below_limit"
PROBE_NOT_MONOTONE = "not_monotone"


@dataclass
class TotalSpeedupReport:
    """Verdict of a total speed-up check: evidence flag, trace, probe failures."""

    rho: Fraction
    evidence: bool
    trace: RatioTrace
    violations: list[tuple[Fraction, str]] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "rho": rational_str(self.rho),
            "evidence": self.evidence,
            "valid": self.valid,
            "violations": [
                {"q": rational_str(q), "reason": reason} for q, reason in self.violations
            ],
            "trace": self.trace.to_json_dict(),
        }


def default_probes(x: DeskReal, horizon: int) -> list[Fraction]:
    """Dyadic approach points scaled into (a_0, limit); limits from above drive
    the interesting ratios, so the schedule piles up near the top."""
    base, limit = x.approx(0), x.limit
    return [base + (limit - base) * (1 - Fraction(1, 1 << k)) for k in range(1, horizon + 1)]


def check_horizon(horizon: int) -> int:
    """horizon, if it lies in [1, MAX_HORIZON]: the rule of every ``--horizon`` and trace."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    if horizon > MAX_HORIZON:
        raise ConfigError(f"horizon must be <= {MAX_HORIZON}, got {horizon}")
    return horizon


def check_rho(rho: Fraction) -> Fraction:
    """rho, if it lies in (0,1): every gap ratio is at most 1, so any trace is evidence at rho >= 1."""
    if not _ZERO < rho < _ONE:
        raise ConfigError(f"rho must lie in (0,1), got {rho}")
    return rho


def check_total_speedup(
    x: DeskReal,
    g: TranslationMap,
    rho: Fraction,
    horizon: int,
    probes: Optional[Iterable[Fraction]] = None,
) -> TotalSpeedupReport:
    """Validate a candidate total speed-up map on a probe schedule and trace
    its exact ratios (limit - g(q)) / (limit - q).

    Probes violating the map's contract (q < g(q) < limit, monotone over the
    schedule, below the limit) are recorded with the probe and excluded from
    the trace; evidence means the running minimum of the surviving ratios is
    at or below rho.
    """
    check_rho(rho)
    check_horizon(horizon)
    schedule = set(probes) if probes is not None else set(default_probes(x, horizon))
    schedule.update(x.approx(i) for i in range(horizon + 1))

    limit = x.limit
    trace = RatioTrace()
    violations: list[tuple[Fraction, str]] = []
    prev_value: Optional[Fraction] = None
    index = 0
    for q in sorted(schedule):
        if q >= limit:
            violations.append((q, PROBE_NOT_BELOW_LIMIT))
            continue
        value = g.evaluate(q)
        if value is None:
            violations.append((q, PROBE_UNDEFINED))
            continue
        if prev_value is not None and value < prev_value:
            violations.append((q, PROBE_NOT_MONOTONE))
            continue
        prev_value = value
        if not q < value:
            violations.append((q, PROBE_NOT_ABOVE))
            continue
        if not value < limit:
            violations.append((q, PROBE_NOT_BELOW))
            continue
        trace.append(index, (limit - value) / (limit - q))
        index += 1
    return TotalSpeedupReport(
        rho=rho,
        evidence=trace.evidence_at(rho),
        trace=trace,
        violations=violations,
    )
