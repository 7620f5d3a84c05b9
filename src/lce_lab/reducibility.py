"""Translation witnesses and exact checkers for approximation reducibility.

A witness packages a rational translation function with a positive constant.
The strict check at a sample q below the target's limit asks, with every
comparison exact:

    phi(q) defined,  phi(q) < alpha,  alpha - phi(q) < c * (beta - q)

The weakened variant allows an additive slack of 2**-|q| on the right side
and is therefore restricted to dyadic samples, the only place |q| means
anything.  Checkers work through finite sample lists and certify refutations
or report "no violation found on N samples"; they never claim the universally
quantified statement.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import repeat
from numbers import Rational
from typing import Callable, Iterable, NamedTuple, Optional

from .dyadic import canonical_length, dyadic_length, is_dyadic, truncate
from .errors import ConfigError
from .reals import DeskReal
from .util import rational_str

_ONE = Fraction(1)

REASON_UNDEFINED = "undefined"
REASON_NOT_BELOW_ALPHA = "not_below_alpha"
REASON_GAP_BOUND = "gap_bound_failed"


@dataclass(frozen=True)
class TranslationWitness:
    """A candidate reduction: q -> phi(q) with constant c.

    ``total`` promises a value for every rational input; partial witnesses may
    return None (undefined).  ``weakened`` switches the checker to the variant
    with the 2**-|q| slack.

    ``at_length`` is set on witnesses whose value at a dyadic sample depends on
    the sample's canonical length alone.  Its contract: for every dyadic q in
    [0,1), ``translate(q) == at_length(|q|)``.  The witnesses built here derive
    ``translate`` from ``at_length``, so the contract holds by construction;
    the checker then translates once per length instead of once per sample.
    """

    name: str
    translate: Callable[[Fraction], Optional[Fraction]]
    constant: Fraction
    total: bool = True
    weakened: bool = False
    at_length: Optional[Callable[[int], Optional[Fraction]]] = None

    def __post_init__(self):
        if self.constant <= 0:
            raise ConfigError(f"witness constant must be positive, got {self.constant}")


class Violation(NamedTuple):
    sample: Fraction
    reason: str
    phi: Optional[Fraction]
    bound: Optional[Fraction]


@dataclass
class ViolationReport:
    """Outcome of checking one witness over a finite sample list."""

    witness: str
    samples_checked: int
    skipped: int
    violations: list[Violation] = field(default_factory=list)
    max_ratio_seen: Optional[Fraction] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        # One row per violation, so rational_str is inlined: each Fraction's
        # numerator and denominator are read once, as a pair.
        rows = []
        for v in self.violations:
            n, d = v.sample.as_integer_ratio()
            row = {"q": f"{n}/{d}" if d != 1 else str(n), "reason": v.reason, "phi_q": None, "bound": None}
            if v.phi is not None:
                n, d = v.phi.as_integer_ratio()
                row["phi_q"] = f"{n}/{d}" if d != 1 else str(n)
            if v.bound is not None:
                n, d = v.bound.as_integer_ratio()
                row["bound"] = f"{n}/{d}" if d != 1 else str(n)
            rows.append(row)
        return {
            "witness": self.witness,
            "passed": self.passed,
            "samples_checked": self.samples_checked,
            "skipped": self.skipped,
            "max_ratio_seen": (
                rational_str(self.max_ratio_seen) if self.max_ratio_seen is not None else None
            ),
            "violations": rows,
        }


def check_witness(
    alpha: DeskReal,
    beta: DeskReal,
    witness: TranslationWitness,
    samples: Iterable[Fraction],
) -> ViolationReport:
    """Evaluate the witness inequality at every sample below beta's limit.

    Samples at or above beta's limit are skipped (and counted).  Order of the
    input does not matter: violations come back sorted by sample value (a
    ``DyadicGrid`` is ascending, so only other iterables are sorted).

    Every comparison runs on cross-multiplied integers.  With alpha = A/B,
    beta = C/D, c = P/Q, a sample q = k/h in lowest terms and its translation
    phi(q) = n/m (all denominators positive):

        skip            k*D >= C*h
        not below alpha A*m - n*B <= 0
        gap bound       (A*m - n*B) * Q*D*h  <  (P*(C*h - k*D) + s) * B*m

    where s = Q*D on the weakened variant (the slack 2**-|q| = 1/h) and 0 on
    the strict one.  The largest ratio (alpha - phi) / (beta - q) stays an
    integer pair until the end.

    There are two paths, with the same report for the same samples.  A
    ``DyadicGrid`` inside [0,1) checked against a witness with ``at_length``
    is decided one canonical length at a time (``_check_grid_by_length``):
    phi is one value per length, so each test above is one threshold in k
    and no sample is visited unless it is a violation row.  Every other input
    runs the loop over the pairs (k, h) = (q.numerator, q.denominator).  In
    the loop, phi and its integer terms are computed once per length h for a
    witness with ``at_length`` and a dyadic q in [0,1); every other sample
    goes through ``translate(q)``.
    """
    if (
        witness.at_length is not None
        and isinstance(samples, DyadicGrid)
        and samples.size <= samples.denominator
    ):
        return _check_grid_by_length(alpha, beta, witness, samples)
    a_num, a_den = alpha.limit.numerator, alpha.limit.denominator
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    c_num, c_den = witness.constant.numerator, witness.constant.denominator
    translate, at_length = witness.translate, witness.at_length
    weakened = witness.weakened
    qd = c_den * b_den  # Q*D
    slack = qd if weakened else 0  # s
    by_length: dict[int, tuple] = {}  # h -> length_terms(h)

    def length_terms(h: int) -> tuple:
        """phi at length log2(h) and the terms the loop below computes from it."""
        phi = at_length(h.bit_length() - 1)
        if phi is None:
            return None, 0, 0, 0, 0
        n, m = phi.numerator, phi.denominator
        gap = a_num * m - n * a_den
        gap_dh = gap * b_den * h
        return phi, gap, a_den * m, gap_dh, gap_dh * c_den

    checked = 0
    skipped = 0
    violations: list[Violation] = []
    best_num, best_den = 0, 1
    for q in samples:
        k, h = q.numerator, q.denominator
        room = b_num * h - k * b_den  # (beta - q) * D*h
        if room <= 0:
            skipped += 1
            continue
        checked += 1
        if at_length is not None and not h & (h - 1) and 0 <= k < h:
            terms = by_length.get(h)
            if terms is None:
                terms = by_length[h] = length_terms(h)
            phi, gap, bm, gap_dh, gap_dhq = terms
        else:
            phi = translate(q)
            if phi is not None:
                n, m = phi.numerator, phi.denominator
                gap = a_num * m - n * a_den  # (alpha - phi) * B*m
                bm = a_den * m
                gap_dh = gap * b_den * h
                gap_dhq = gap_dh * c_den
        if phi is None:
            reason, bound = REASON_UNDEFINED, None
        elif gap <= 0:
            reason, bound = REASON_NOT_BELOW_ALPHA, None
        else:
            if weakened and (h & (h - 1) or k < 0 or k >= h):
                dyadic_length(q)  # raises the proper domain error
            room_bm = room * bm  # (alpha - phi) / (beta - q) = gap_dh / room_bm
            if gap_dh * best_den > best_num * room_bm:
                best_num, best_den = gap_dh, room_bm
            allowed = c_num * room + slack
            if gap_dhq < allowed * bm:
                continue
            reason, bound = REASON_GAP_BOUND, Fraction(allowed, qd * h)
        violations.append(Violation(q, reason, phi, bound))
    if not isinstance(samples, DyadicGrid):  # a grid is ascending already
        violations.sort(key=lambda v: v.sample)
    return ViolationReport(
        witness=witness.name,
        samples_checked=checked,
        skipped=skipped,
        violations=violations,
        max_ratio_seen=Fraction(best_num, best_den) if best_num else None,
    )


def _length_rows(ks: range, step: int, h: int, reason: str, phi, bound_terms=None):
    """(grid index, violation) for each k in ks: the rows of one length.

    A gap-bound row's bound is (top - slope*k) / den with
    ``bound_terms = (top, slope, den)``; other rows have none.
    """
    top, slope, den = bound_terms or (0, 0, 1)
    for k in ks:
        bound = Fraction(top - slope * k, den) if bound_terms else None
        yield k * step, Violation(Fraction(k, h), reason, phi, bound)


def _check_grid_by_length(
    alpha: DeskReal, beta: DeskReal, witness: TranslationWitness, grid: "DyadicGrid"
) -> ViolationReport:
    """``check_witness`` for a grid inside [0,1) and a witness with ``at_length``.

    The samples of canonical length l are k/h with h = 2**l, at grid index
    k * 2**(depth-l): k = 0 at l = 0 and odd k otherwise.  phi is one value
    per length, so at a fixed length each test of ``check_witness`` flips
    once as k grows:

        checked         k*step < size and k < ceil(C*h / D)
        gap bound fails k >= ceil(((P*C*h + s)*B*m - gap*D*h*Q) / (D*P*B*m))

    with gap = A*m - n*B.  An undefined phi or gap <= 0 makes every checked k
    a row.  The ratio (alpha - phi) / (beta - q) grows with k, so its largest
    value at a length is at the largest checked k.  Counts are closed forms
    (a ``len(range(...))`` overflows at depth 64), and ``at_length`` is
    called once per length with a checked sample, in the order ascending
    grid index first reaches the lengths (0, depth, depth-1, ..., 1), so an
    error it raises is the one the loop would raise.  Each length yields its
    rows lazily and ``heapq.merge`` keeps them ascending by grid index.
    """
    a_num, a_den = alpha.limit.numerator, alpha.limit.denominator
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    c_num, c_den = witness.constant.numerator, witness.constant.denominator
    qd = c_den * b_den  # Q*D
    slack = qd if witness.weakened else 0  # s
    depth, size = grid.depth, grid.size
    checked = 0
    best_num, best_den = 0, 1
    rows = []
    for length in (0, *range(depth, 0, -1)):
        h, step = 1 << length, 1 << (depth - length)
        first = 1 if length else 0  # the least k of this length
        top = min(-(-size // step), -(-b_num * h // b_den))  # checked: k < top
        count = max(top - first + 1, 0) // 2
        if not count:
            continue
        checked += count
        phi = witness.at_length(length)
        if phi is None:
            rows.append(_length_rows(range(first, top, 2), step, h, REASON_UNDEFINED, None))
            continue
        n, m = phi.numerator, phi.denominator
        gap = a_num * m - n * a_den
        if gap <= 0:
            rows.append(_length_rows(range(first, top, 2), step, h, REASON_NOT_BELOW_ALPHA, phi))
            continue
        bm = a_den * m
        gap_dh = gap * b_den * h
        last = first + 2 * (count - 1)
        room_bm = (b_num * h - last * b_den) * bm
        if gap_dh * best_den > best_num * room_bm:
            best_num, best_den = gap_dh, room_bm
        top_allowed = c_num * b_num * h + slack  # P*C*h + s
        t_gap = -((gap_dh * c_den - top_allowed * bm) // (b_den * c_num * bm))
        start = max(t_gap, first)
        start += (start - first) & 1  # same parity as the lengths' k
        if start < top:
            bound_terms = (top_allowed, c_num * b_den, qd * h)
            rows.append(_length_rows(range(start, top, 2), step, h, REASON_GAP_BOUND, phi, bound_terms))
    return ViolationReport(
        witness=witness.name,
        samples_checked=checked,
        skipped=size - checked,
        violations=[v for _, v in heapq.merge(*rows)],
        max_ratio_seen=Fraction(best_num, best_den) if best_num else None,
    )


def identity_witness(constant: Fraction = Fraction(2)) -> TranslationWitness:
    """phi = id.  Certifies a real against itself for any constant above 1."""
    return TranslationWitness(
        name="identity", translate=lambda q: q, constant=Fraction(constant)
    )


def scaling_witness(r: Fraction, direction: str) -> TranslationWitness:
    """Witness for the scale-equivalence r*x = x.

    forward certifies r*x below x via phi(q) = r*q; backward certifies x below
    r*x via phi(q) = q/r.  The strict inequality forces a constant strictly
    above the contraction factor, hence r+1 and 1/r+1 rather than r and 1/r.
    """
    r = Fraction(r)
    if r <= 0:
        raise ConfigError(f"scaling factor must be positive, got {r}")
    if direction == "forward":
        return TranslationWitness(
            name=f"scaling({r},forward)", translate=lambda q: r * q, constant=r + 1
        )
    if direction == "backward":
        return TranslationWitness(
            name=f"scaling({r},backward)", translate=lambda q: q / r, constant=1 / r + 1
        )
    raise ConfigError(f"scaling direction must be forward or backward, got {direction!r}")


def compose_witnesses(outer: TranslationWitness, inner: TranslationWitness) -> TranslationWitness:
    """q -> outer(inner(q)) with the product constant.

    If the pieces certify alpha below beta and beta below gamma, the composite
    is the transitivity witness for alpha below gamma on compatible samples.
    """
    if outer.weakened or inner.weakened:
        raise ConfigError("composition is defined for strict-variant witnesses only")

    def translate(q: Fraction) -> Optional[Fraction]:
        mid = inner.translate(q)
        return None if mid is None else outer.translate(mid)

    return TranslationWitness(
        name=f"{outer.name}.{inner.name}",
        translate=translate,
        constant=outer.constant * inner.constant,
        total=outer.total and inner.total,
    )


def computable_least_witness(alpha: DeskReal) -> TranslationWitness:
    """Weakened-variant witness placing a real with known rational limit below
    every other real with constant 1.

    phi answers a dyadic q with a truncation of alpha at |q|+1 bits, so the
    miss is under 2**-|q| and the slack term alone absorbs it.  When alpha is
    itself dyadic the truncation could land exactly on alpha; the padded form
    alpha - 2**-(|q|+2) keeps strictness.
    """
    a = alpha.limit
    whole = a.numerator // a.denominator
    frac_part = a - whole
    dyadic_alpha = is_dyadic(frac_part)

    @cache
    def at_length(length: int) -> Fraction:
        if dyadic_alpha:
            return a - Fraction(1, 1 << (length + 2))
        return whole + truncate(frac_part, length + 1).value

    return TranslationWitness(
        name=f"least({alpha.name})",
        translate=lambda q: at_length(canonical_length(q)),
        constant=_ONE,
        total=True,
        weakened=True,
        at_length=at_length,
    )


# ---------------------------------------------------------------------------
# Sample schedules


@dataclass(frozen=True, eq=False)
class DyadicGrid(Sequence):
    """The dyadic rationals k/2**depth for 0 <= k < size, ascending.

    An immutable sequence of Fractions that stores only its two integers:
    samples are built when indexed or iterated, so a grid of any size takes
    constant memory.  It compares equal to any sequence with the same
    elements, e.g. ``DyadicGrid(3, 4) == [Fraction(k, 8) for k in range(4)]``.
    """

    depth: int
    size: int

    def __post_init__(self):
        if self.depth < 0:
            raise ConfigError(f"grid depth must be >= 0, got {self.depth}")
        if self.size < 0:
            raise ConfigError(f"grid size must be >= 0, got {self.size}")

    @property
    def denominator(self) -> int:
        return 1 << self.depth

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index):
        try:
            ks = range(self.size)[index]
        except IndexError:
            raise IndexError(f"grid index {index} out of range for size {self.size}") from None
        if isinstance(ks, range):
            return [Fraction(k, self.denominator) for k in ks]
        return Fraction(ks, self.denominator)

    def __iter__(self):
        return map(Fraction, range(self.size), repeat(self.denominator))

    def __contains__(self, value) -> bool:
        if not isinstance(value, Rational):
            return super().__contains__(value)
        num, den = value.numerator, value.denominator
        if den & (den - 1) or den > self.denominator:
            return False
        return 0 <= num * (self.denominator // den) < self.size

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return len(other) == self.size and all(a == b for a, b in zip(self, other))
        return NotImplemented


def _count_below(depth: int, below: Fraction) -> int:
    """How many multiples of 2**-depth lie in [0, below)."""
    # ceil gives the right count whether or not the bound lands on the grid
    # (strict inequality either way).
    return max(-(-(below.numerator << depth) // below.denominator), 0)


def dyadic_grid(depth: int, below: Fraction) -> DyadicGrid:
    """All multiples of 2**-depth in [0, below), ascending."""
    if depth < 0:
        raise ConfigError(f"grid depth must be >= 0, got {depth}")
    return DyadicGrid(depth, _count_below(depth, below))


def dyadic_samples(below: Fraction, count: int) -> DyadicGrid:
    """The first ``count`` dyadic rationals below the bound, from the shallowest
    grid that holds that many."""
    if below <= 0:
        raise ConfigError(f"sample bound must be positive, got {below}")
    if count < 1:
        raise ConfigError(f"sample count must be positive, got {count}")
    depth = 0
    while _count_below(depth, below) < count:
        depth += 1
    return DyadicGrid(depth, count)


def default_samples(
    beta: DeskReal, approx_count: int = 64, grid_depth: int = 10
) -> list[Fraction]:
    """Approximation points of the target real plus a dyadic grid below its
    limit; the approximation points are the proof-relevant witnesses."""
    points = {beta.approx(i) for i in range(approx_count + 1)}
    points.update(dyadic_grid(grid_depth, beta.limit))
    return sorted(q for q in points if q < beta.limit)
