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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from typing import Callable, Iterable, NamedTuple, Optional

from .dyadic import canonical_length, dyadic_length, is_dyadic, lengths_in_grid_order, truncate
from .errors import ConfigError, PreconditionError
from .reals import DeskReal
from .util import rational_str

_ONE = Fraction(1)

REASON_UNDEFINED = "undefined"
REASON_NOT_BELOW_ALPHA = "not_below_alpha"
REASON_GAP_BOUND = "gap_bound_failed"

MAX_ENUMERATION_BITS = 20  # at most 2**20 grid samples, or strings, visited one by one


@dataclass(frozen=True)
class TranslationWitness:
    """A candidate reduction: q -> phi(q) with constant c.

    ``total`` promises a value for every rational input; partial witnesses may
    return None (undefined).  ``weakened`` switches the checker to the variant
    with the 2**-|q| slack.

    ``at_length`` is set by ``per_length_witness``, on witnesses whose value
    at a dyadic q in [0,1) is ``at_length(|q|)`` by construction; the checker
    then translates once per length instead of once per sample.
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


def _tester(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness):
    """The witness inequality at a sample k/h, stated once in integers.

    With alpha = A/B, beta = C/D, c = P/Q, a sample q = k/h in lowest terms
    and phi(q) = n/m (all denominators positive), gap = A*m - n*B is
    (alpha - phi) * B*m and room = C*h - k*D is (beta - q) * D*h; a sample
    with room <= 0 is skipped.  A checked sample is a violation row when

        undefined        phi is None
        not below alpha  gap <= 0
        gap bound        gap * Q*D*h >= (P*room + s) * B*m

    where s = Q*D on the weakened variant (the slack 2**-|q| = 1/h) and 0 on
    the strict one.  Solved for k, the gap bound fails exactly when

        k * slope >= lack,  slope = P*D*B*m > 0,  lack = (P*C*h + s)*B*m - gap*Q*D*h

    so at one (phi, h) the rows are the k from ceil(lack / slope) up.  The
    first two reasons make every k a row, and their terms slope = lack = 0
    keep the same test true.  ``test(phi, h)`` returns the terms
    (phi, reason, lack, slope, gap_dh, bm): reason is the one a row gets, and
    (alpha - phi) / (beta - q) = gap_dh / (room * bm), with gap_dh = bm = 0
    where no ratio exists.  ``row(q, k, h, terms)`` is the violation at a
    row; a gap-bound row carries the bound c*(beta - q) + s/(Q*D*h), that is
    (P*C*h - P*D*k + s) / (Q*D*h).
    """
    a_num, a_den = alpha.limit.numerator, alpha.limit.denominator
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    c_num, c_den = witness.constant.numerator, witness.constant.denominator
    qd = c_den * b_den  # Q*D
    pc, pd = c_num * b_num, c_num * b_den  # P*C, P*D
    slack = qd if witness.weakened else 0  # s

    def test(phi: Optional[Fraction], h: int) -> tuple:
        if phi is None:
            return None, REASON_UNDEFINED, 0, 0, 0, 0
        n, m = phi.numerator, phi.denominator
        gap = a_num * m - n * a_den
        if gap <= 0:
            return phi, REASON_NOT_BELOW_ALPHA, 0, 0, 0, 0
        bm = a_den * m
        gap_dh = gap * b_den * h
        lack = (pc * h + slack) * bm - gap_dh * c_den
        return phi, REASON_GAP_BOUND, lack, pd * bm, gap_dh, bm

    def row(q, k: int, h: int, terms: tuple) -> Violation:
        phi, reason, _, slope, _, _ = terms
        bound = Fraction(pc * h - pd * k + slack, qd * h) if slope else None
        return Violation(q, reason, phi, bound)

    return test, row


def check_witness(
    alpha: DeskReal,
    beta: DeskReal,
    witness: TranslationWitness,
    samples: Iterable[Fraction],
) -> ViolationReport:
    """Evaluate the witness inequality at every sample below beta's limit.

    Samples at or above beta's limit are skipped (and counted).  Order of the
    input does not matter: violations come back sorted by sample value.  A
    ``Schedule`` is decided one part at a time, grid then points.  A
    ``DyadicGrid`` inside [0,1) against a witness with ``at_length`` is
    decided per canonical length (``_check_grid_by_length``); every other
    part runs the per-sample loop (``_check_each``).  Each returns a tally:
    checked, skipped, rows (ascending unless a plain iterable's) and the
    largest ratio (alpha - phi) / (beta - q) as an integer pair.
    """
    parts = (samples.grid, samples.points) if isinstance(samples, Schedule) else (samples,)
    checked = skipped = runs = 0
    violations: list[Violation] = []
    best_num, best_den = 0, 1
    for part in parts:
        by_length = isinstance(part, DyadicGrid) and witness.at_length is not None and part.size <= part.denominator
        tally = (_check_grid_by_length if by_length else _check_each)(alpha, beta, witness, part)
        part_checked, part_skipped, rows, (num, den) = tally
        checked += part_checked
        skipped += part_skipped
        if rows:
            violations += rows
            runs += 1
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    if runs > 1 or not isinstance(samples, (DyadicGrid, Schedule)):
        violations.sort(key=lambda v: v.sample)
    return ViolationReport(
        witness.name, checked, skipped, violations, Fraction(best_num, best_den) if best_num else None
    )


def _check_each(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness, samples: Iterable[Fraction]) -> tuple:
    """The per-sample loop's tally, with rows in input order.

    The terms are computed once per length h for a witness with
    ``at_length`` and a dyadic q = k/h in [0,1), and through ``translate(q)``
    for every other sample.  A grid of more than 2**MAX_ENUMERATION_BITS
    samples is refused before its first one; a list is checked whatever its
    length.
    """
    if isinstance(samples, DyadicGrid) and samples.size > 1 << MAX_ENUMERATION_BITS:
        raise PreconditionError(
            f"checking {samples.size} grid samples one by one refused (cap 2**{MAX_ENUMERATION_BITS})"
        )
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    translate, at_length, weakened = witness.translate, witness.at_length, witness.weakened
    test, row = _tester(alpha, beta, witness)
    by_length: dict[int, tuple] = {}  # h -> test(at_length(log2(h)), h)
    checked = skipped = 0
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
                terms = by_length[h] = test(at_length(h.bit_length() - 1), h)
        else:
            terms = test(translate(q), h)
            if weakened and terms[3] and (h & (h - 1) or k < 0 or k >= h):
                dyadic_length(q)  # raises the proper domain error
        _, _, lack, slope, gap_dh, bm = terms
        room_bm = room * bm
        if gap_dh * best_den > best_num * room_bm:
            best_num, best_den = gap_dh, room_bm
        if k * slope >= lack:
            violations.append(row(q, k, h, terms))
    return checked, skipped, violations, (best_num, best_den)


def _check_grid_by_length(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness, grid: DyadicGrid) -> tuple:
    """The tally ``_check_each`` would return, for a grid inside [0,1) and
    a witness with ``at_length``.

    The samples of canonical length l are k/h with h = 2**l, at grid index
    k * 2**(depth-l): k = 0 at l = 0 and odd k otherwise.  phi is one value
    per length, so a length's rows are its checked k (k*step < size and
    k < ceil(C*h / D)) from ``_tester``'s threshold ceil(lack / slope) up,
    and its largest ratio is at its largest checked k.  Counts are closed
    forms (a ``len(range(...))`` overflows at depth 64).  ``at_length`` is
    called once per length with a checked sample, in
    ``lengths_in_grid_order``, so an error it raises is the loop's.  Every
    length appends its (grid index, violation) rows to one list, sorted once.
    """
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    test, row = _tester(alpha, beta, witness)
    depth, size = grid.depth, grid.size
    checked = 0
    best_num, best_den = 0, 1
    rows = []
    for length in lengths_in_grid_order(depth):
        h, step = 1 << length, 1 << (depth - length)
        first = 1 if length else 0  # the least k of this length
        end = min(-(-size // step), -(-b_num * h // b_den))  # checked: k < end
        count = max(end - first + 1, 0) // 2
        if not count:
            continue
        checked += count
        terms = test(witness.at_length(length), h)
        _, _, lack, slope, gap_dh, bm = terms
        last = first + 2 * (count - 1)
        room_bm = (b_num * h - last * b_den) * bm
        if gap_dh * best_den > best_num * room_bm:
            best_num, best_den = gap_dh, room_bm
        start = max(-(-lack // slope), first) if slope else first
        start += (start - first) & 1  # same parity as the length's k
        if start < end:
            rows += [(k * step, row(Fraction(k, h), k, h, terms)) for k in range(start, end, 2)]
    rows.sort()  # grid indices are distinct, so no two violations are compared
    return checked, size - checked, [v for _, v in rows], (best_num, best_den)


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


def per_length_witness(
    name: str, at_length: Callable[[int], Optional[Fraction]], constant: Fraction, weakened: bool = False
) -> TranslationWitness:
    """The witness q -> at_length(|q|), with ``at_length`` cached.  Its
    ``translate`` is derived here and nowhere else, so the contract that
    ``check_witness`` and ``k_bound_from_witness`` rely on holds by construction."""
    at_length = cache(at_length)
    return TranslationWitness(name, lambda q: at_length(canonical_length(q)), constant, weakened=weakened, at_length=at_length)


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

    def at_length(length: int) -> Fraction:
        if dyadic_alpha:
            return a - Fraction(1, 1 << (length + 2))
        return whole + Fraction(truncate(frac_part, length + 1), 1 << (length + 1))

    return per_length_witness(f"least({alpha.name})", at_length, _ONE, weakened=True)


# ---------------------------------------------------------------------------
# Sample schedules


@dataclass(frozen=True)
class DyadicGrid:
    """The dyadic rationals k/2**depth for 0 <= k < size, ascending.

    A lazy schedule that stores only its two integers: iteration builds the
    samples one at a time, so a grid of any size takes constant memory.  It
    is not a list: besides iteration it answers ``in`` for a number
    arithmetically, ``bool`` and ``len`` (which fails past ``sys.maxsize``,
    since CPython's len cannot return more; ``size`` holds the count).
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

    def __bool__(self) -> bool:
        return self.size > 0

    def __iter__(self):
        return map(Fraction, range(self.size), repeat(self.denominator))

    def __contains__(self, value) -> bool:
        try:
            num, den = value.as_integer_ratio()
        except (AttributeError, ValueError, OverflowError):  # not a number, nan, inf
            return False
        if den & (den - 1) or den > self.denominator:
            return False
        return 0 <= num * (self.denominator // den) < self.size


@dataclass(frozen=True)
class Schedule:
    """A lazy ``grid``, then ascending ``points`` off it; iterated and counted, nothing more."""

    grid: DyadicGrid
    points: tuple[Fraction, ...]

    def __len__(self) -> int:
        return self.grid.size + len(self.points)

    def __iter__(self):
        return chain(self.grid, self.points)


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


def default_samples(beta: DeskReal, witness: TranslationWitness, grid_depth: int = 10) -> Schedule:
    """The grid of depth ``grid_depth`` below beta's limit, then beta's
    approximation points 0..64 below the limit and off that grid, ascending;
    the approximation points are the proof-relevant witnesses.  A weakened
    witness keeps only the dyadic ones, the only samples its check takes.
    """
    grid = dyadic_grid(grid_depth, beta.limit)
    points = {beta.approx(i) for i in range(65)}
    off_grid = (p for p in points if p < beta.limit and p not in grid and (is_dyadic(p) or not witness.weakened))
    return Schedule(grid, tuple(sorted(off_grid)))
