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

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import repeat
from operator import attrgetter
from typing import Callable, Optional

from .errors import ConfigError, PreconditionError, SearchExhaustedError
from .reals import DeskReal, approximations, gap
from .util import Rows, rational_str

_ZERO = Fraction(0)
_ONE = Fraction(1)
_pair = attrgetter("numerator", "denominator")

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
    """A rational acceleration map; partial maps return None off their domain.
    ``affine`` is (target, s) on a map made by ``affine_toward``."""

    name: str
    evaluate: Callable[[Fraction], Optional[Fraction]]
    total: bool = True
    affine: Optional[tuple[Fraction, Fraction]] = None


def affine_toward(target: Fraction, s: Fraction) -> TranslationMap:
    """g(q) = target - s*(target - q): contracts the distance to target by s."""
    s = Fraction(s)
    if not 0 < s < 1:
        raise ConfigError(f"contraction factor must lie in (0,1), got {s}")
    # (1 - s)*T + s*q = ((S_d - S_n)*T_n*q_d + S_n*T_d*q_n) / (S_d*T_d*q_d), one gcd
    fixed, slope, den = (s.denominator - s.numerator) * target.numerator, s.numerator * target.denominator, s.denominator * target.denominator
    return TranslationMap(
        name=f"affine({s}->{target})",
        evaluate=lambda q: Fraction(fixed * q.denominator + slope * q.numerator, den * q.denominator),
        affine=(target, s),
    )


def identity_translation() -> TranslationMap:
    return TranslationMap("identity", lambda q: q)


def amplify(g: TranslationMap, k: int) -> TranslationMap:
    """k-fold composition of g with itself; an affine map's is affine with
    factor s**k, evaluated once, so the speeding constant costs no loop.

    k is at most MAX_HORIZON: an affine map's k-fold image carries k-bit
    integers, and any other map is evaluated k times per probe."""
    check_horizon(k, "amplification count")
    if k == 1:
        return g
    if g.affine is not None:
        target, s = g.affine
        return replace(affine_toward(target, s**k), name=f"{g.name}^{k}")

    def evaluate(q: Fraction) -> Optional[Fraction]:
        for _ in range(k):
            q = g.evaluate(q)
            if q is None:
                return None
        return q

    return TranslationMap(name=f"{g.name}^{k}", evaluate=evaluate, total=g.total)


def _speedup_value(f: SpeedUp, n: int) -> int:
    """f(n), checked to be an int with n <= f(n) <= DEFAULT_SEARCH_CAP, so no
    index past the cap is ever approximated."""
    fn = f.evaluate(n)
    if not isinstance(fn, int) or fn < n:
        raise PreconditionError(f"{f.name}: f({n}) = {fn!r} violates n <= f(n)")
    if fn > DEFAULT_SEARCH_CAP:
        raise SearchExhaustedError(f"{f.name}: f({n}) = {fn} is past the index cap {DEFAULT_SEARCH_CAP}")
    return fn


def ratio(x: DeskReal, f: SpeedUp, n: int) -> Fraction:
    """Exact gap ratio (limit - a_{f(n)}) / (limit - a_n); lies in [0, 1]."""
    return _ratio_at(x, n, _speedup_value(f, n))


def _ratio_at(x: DeskReal, n: int, fn: int) -> Fraction:
    """``ratio`` with f(n) = fn already evaluated and validated."""
    denominator = gap(x, n)
    numerator = x.limit - x.approx(fn)
    if numerator < 0:
        raise PreconditionError(f"{x.name}: approximation exceeded its limit at {fn}")
    return numerator / denominator


def _below(p: Fraction, q: Fraction) -> bool:
    """p < q by one integer cross-product, without ``Fraction``'s operator dispatch."""
    return p.numerator * q.denominator < q.numerator * p.denominator


@dataclass
class RatioTrace:
    """Ratios along strictly increasing indices, with the running minimum
    at each.  ``append`` is the one place that computes it, as each entry
    arrives; the entries a trace is built with are appended one by one."""

    entries: list[tuple[int, Fraction]] = field(default_factory=list)

    def __post_init__(self):
        entries, self.entries, self._minima = self.entries, [], []
        for n, value in entries:
            self.append(n, value)

    def append(self, n: int, value: Fraction) -> None:
        if self.entries and n <= self.entries[-1][0]:
            raise PreconditionError("trace indices must strictly increase")
        best = self.running_min
        self.entries.append((n, value))
        self._minima.append(value if best is None or _below(value, best) else best)

    @property
    def running_min(self) -> Optional[Fraction]:
        return self._minima[-1] if self._minima else None

    def evidence_at(self, rho: Fraction) -> bool:
        best = self.running_min
        return best is not None and best <= rho

    def csv_rows(self) -> list[tuple[int, int, int, int, int]]:
        return [(n, *_pair(value), *_pair(best)) for (n, value), best in zip(self.entries, self._minima)]

    def to_csv(self) -> str:
        """The header, then ``csv_rows``, as CSV text with CRLF line ends."""
        lines = ["n,ratio_num,ratio_den,running_min_num,running_min_den", *(",".join(map(str, row)) for row in self.csv_rows())]
        return "".join(f"{line}\r\n" for line in lines)

    def to_json_dict(self) -> dict:
        best = self.running_min
        return {
            "entries": Rows({"n": [n for n, _ in self.entries], "ratio": [rational_str(v) for _, v in self.entries]}),
            "running_min": rational_str(best) if best is not None else None,
        }


def liminf_record(x: DeskReal, f: SpeedUp, horizon: int) -> RatioTrace:
    """Ratios for n = 0..horizon with the running minimum.

    A finite stand-in for the limit-inferior: callers read the running minimum
    as rho-evidence when it drops to rho, and nothing more.  Also validates
    that f is nondecreasing with n <= f(n) across the horizon; like every
    reader of f, it refuses any f(n) above DEFAULT_SEARCH_CAP before
    approximating there (``_speedup_value``).
    """
    check_horizon(horizon)
    trace = RatioTrace()
    prev = None
    for n in range(horizon + 1):
        fn = _speedup_value(f, n)
        if prev is not None and fn < prev:
            raise PreconditionError(f"{f.name}: f({n}) = {fn} dropped below f({n - 1}) = {prev}")
        prev = fn
        trace.append(n, _ratio_at(x, n, fn))
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
    index search follows ``_least_index``'s cap rule, and an f(i) past
    DEFAULT_SEARCH_CAP is refused before a_{f(i)} is approximated.
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
    kept so repeated queries stay cheap and consistent.

    An affine g is monotone, so f(i) >= f(i-1): once f(i-1) is known the
    search for f(i) starts there.  Only an answer up to ``search_cap`` is
    taken from that warm search, which then equals the least index; a
    raise or an answer past the cap is decided by the search from i+1, so
    results and raises do not depend on the start.
    """
    found: dict[int, int] = {}  # i -> f(i)

    def evaluate(i: int) -> int:
        if i in found:
            return found[i]
        if i < 0:
            raise PreconditionError(f"speed-up index must be >= 0, got {i}")
        target = g.evaluate(x.approx(i + 1))
        if target is None:
            raise PreconditionError(f"{g.name} undefined at a_{i + 1}")
        goal = f"climbs above {g.name}(a_{i + 1})"
        reached = lambda a: a > target
        n, warm = None, found.get(i - 1, 0) if g.affine is not None else 0
        if warm > i + 1:
            try:
                n = _least_index(x, warm, reached, search_cap, goal)
            except SearchExhaustedError:
                pass
        if n is None or n > search_cap:
            n = _least_index(x, i + 1, reached, search_cap, goal)
        found[i] = n
        return n

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
    """Verdict of a total speed-up check: trace and probe failures, and the
    evidence flag read from the trace at rho."""

    rho: Fraction
    trace: RatioTrace
    violations: list[tuple[Fraction, str]] = field(default_factory=list)

    @property
    def evidence(self) -> bool:
        return self.trace.evidence_at(self.rho)

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "rho": rational_str(self.rho),
            "evidence": self.evidence,
            "valid": self.valid,
            "violations": Rows({"q": [rational_str(q) for q, _ in self.violations], "reason": [reason for _, reason in self.violations]}),
            "trace": self.trace.to_json_dict(),
        }


def default_probes(x: DeskReal, horizon: int) -> list[Fraction]:
    """Dyadic approach points scaled into (a_0, limit); limits from above drive
    the interesting ratios, so the schedule piles up near the top."""
    # p_k = limit - (limit - a_0) / 2**k = (L_n*D_d*2**k - D_n*L_d) / (L_d*D_d*2**k), D = limit - a_0
    limit = x.limit
    d = limit - x.approx(0)
    high, low, den = limit.numerator * d.denominator, d.numerator * limit.denominator, limit.denominator * d.denominator
    return [Fraction((high << k) - low, den << k) for k in range(1, horizon + 1)]


def _union(xs: list, ys: list) -> list:
    """Two ascending lists of rationals merged in one pass, equal neighbours
    kept once; compared as (numerator, denominator) pairs, which in lowest
    terms are equal exactly when the values are."""
    xp, yp = list(map(_pair, xs)), list(map(_pair, ys))
    merged, last, i, j = [], None, 0, 0
    while i < len(xs) or j < len(ys):
        if j == len(ys) or i < len(xs) and yp[j][0] * xp[i][1] >= xp[i][0] * yp[j][1]:
            pair, value, i = xp[i], xs[i], i + 1
        else:
            pair, value, j = yp[j], ys[j], j + 1
        if pair != last:
            merged.append(value)
            last = pair
    return merged


def check_horizon(horizon: int, what: str = "horizon") -> int:
    """horizon, if it lies in [1, MAX_HORIZON]: the rule of every ``--horizon``
    and trace, and of the other counts it bounds; ``what`` names the value in
    the message."""
    if horizon < 1:
        raise ConfigError(f"{what} must be >= 1, got {horizon}")
    if horizon > MAX_HORIZON:
        raise ConfigError(f"{what} must be <= {MAX_HORIZON}, got {horizon}")
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
) -> TotalSpeedupReport:
    """Validate a candidate total speed-up map on ``default_probes`` and the
    approximations a_0..a_horizon, and trace its exact ratios (limit - g(q))
    / (limit - q).

    Probes violating the map's contract (q < g(q) < limit, monotone over the
    schedule, below the limit) are recorded with the probe and excluded from
    the trace; evidence means the running minimum of the surviving ratios is
    at or below rho.  Equal probes are read once.

    ``affine_toward(x.limit, s)`` is decided without evaluating it: below
    the limit, g(q) = limit - s*(limit - q) lies strictly between q and the
    limit and rises with q, and its ratio is s exactly, so every probe
    below the limit is a trace entry s and every other one a
    ``PROBE_NOT_BELOW_LIMIT`` row.
    """
    check_rho(rho)
    check_horizon(horizon)
    schedule = _union(default_probes(x, horizon), approximations(x, horizon + 1))

    limit = x.limit
    if g.affine is not None and g.affine[0] == limit:
        below = bisect_left(schedule, limit)
        trace = RatioTrace(list(zip(range(below), repeat(g.affine[1]))))
        return TotalSpeedupReport(rho, trace, [(q, PROBE_NOT_BELOW_LIMIT) for q in schedule[below:]])
    trace = RatioTrace()
    violations: list[tuple[Fraction, str]] = []
    prev_value: Optional[Fraction] = None
    index = 0
    for q in schedule:
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
    return TotalSpeedupReport(rho=rho, trace=trace, violations=violations)
