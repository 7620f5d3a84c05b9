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

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from math import gcd
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .dyadic import canonical_length, dyadic_length, is_dyadic, lengths_in_grid_order
from .dyadic import truncate  # noqa: F401  module attribute that perfbench/tracer.py wraps
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
    then translates once per length instead of once per sample.  ``affine``
    is set by ``affine_witness``, on witnesses with phi(q) = u*q + v and
    u > 0; the checker then decides a grid without translating at all.
    """

    name: str
    translate: Callable[[Fraction], Optional[Fraction]]
    constant: Fraction
    total: bool = True
    weakened: bool = False
    at_length: Optional[Callable[[int], Optional[Fraction]]] = None
    affine: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        if self.constant <= 0:
            raise ConfigError(f"witness constant must be positive, got {self.constant}")
        if self.affine is not None and self.affine[0] <= 0:
            raise ConfigError(f"affine witness slope must be positive, got {self.affine[0]}")


class Violation(NamedTuple):
    sample: Fraction
    reason: str
    phi: Optional[Fraction]
    bound: Optional[Fraction]


class GridRows(NamedTuple):
    """The violation rows at the grid samples k/2**depth, start <= k < stop,
    all with one reason: phi = (phi_k*k + phi_0) / phi_den and, on a gap-bound
    run, bound = (bound_0 - bound_k*k) / bound_den, every denominator positive.
    """

    depth: int
    start: int
    stop: int
    reason: str
    phi: tuple[int, int, int]  # (phi_k, phi_0, phi_den)
    bound: Optional[tuple[int, int, int]]  # (bound_0, bound_k, bound_den)

    def violations(self) -> list[Violation]:
        h, reason = 1 << self.depth, self.reason
        (pk, p0, pd), bound = self.phi, self.bound
        return [
            Violation(
                Fraction(k, h),
                reason,
                Fraction(pk * k + p0, pd),
                Fraction(bound[0] - bound[1] * k, bound[2]) if bound else None,
            )
            for k in range(self.start, self.stop)
        ]

    def to_json_rows(self) -> list[dict]:
        """``ViolationReport.to_json_dict``'s rows, from integers: q in lowest
        terms by a shift (and phi = q on identity's runs), phi and the bound
        each by one gcd.  Inlined, since this runs once per row."""
        depth, h, reason = self.depth, 1 << self.depth, self.reason
        pk, p0, pd = self.phi
        b0, bk, bd = self.bound or (0, 0, 0)
        over = [f"/{h >> shift}" for shift in range(depth)] + [""]  # "/" + the denominator of k/h, by k's shift
        phi_is_q = (pk, p0, pd) == (1, 0, h)
        rows = []
        append = rows.append
        for k in range(self.start, self.stop):
            shift = min((k & -k).bit_length() - 1, depth) if k else depth
            q = f"{k >> shift}{over[shift]}"
            if phi_is_q:
                phi = q
            else:
                n = pk * k + p0
                g = gcd(n, pd)
                phi = f"{n // g}/{pd // g}" if g != pd else str(n // g)
            if bd:
                n = b0 - bk * k
                g = gcd(n, bd)
                append({"q": q, "reason": reason, "phi_q": phi, "bound": f"{n // g}/{bd // g}" if g != bd else str(n // g)})
            else:
                append({"q": q, "reason": reason, "phi_q": phi, "bound": None})
        return rows

    def split(self, point: Fraction) -> tuple["GridRows", "GridRows"]:
        """The rows below ``point``, and the rest."""
        cut = min(max(-(-(point.numerator << self.depth) // point.denominator), self.start), self.stop)
        return self._replace(stop=cut), self._replace(start=cut)


def _violation_json_row(v: Violation) -> dict:
    return {
        "q": rational_str(v.sample),
        "reason": v.reason,
        "phi_q": None if v.phi is None else rational_str(v.phi),
        "bound": None if v.bound is None else rational_str(v.bound),
    }


@dataclass(eq=False)
class ViolationReport:
    """Outcome of checking one witness over a finite sample list.

    ``rows`` are the violations in ascending sample order, each a
    ``Violation`` or a ``GridRows`` run of them.  Reading ``violations``
    builds the ``Violation`` objects; ``passed``, ``==`` and
    ``to_json_dict`` work from the rows as they are.
    """

    witness: str
    samples_checked: int
    skipped: int
    rows: list = field(default_factory=list)
    max_ratio_seen: Optional[Fraction] = None

    @property
    def violations(self) -> list[Violation]:
        out = []
        for row in self.rows:
            if type(row) is GridRows:
                out += row.violations()
            else:
                out.append(row)
        return out

    @property
    def passed(self) -> bool:
        return not self.rows

    def _json_rows(self) -> list[dict]:
        out = []
        for row in self.rows:
            if type(row) is GridRows:
                out += row.to_json_rows()
            else:
                out.append(_violation_json_row(row))
        return out

    def __eq__(self, other):
        if not isinstance(other, ViolationReport):
            return NotImplemented
        head = (self.witness, self.samples_checked, self.skipped, self.max_ratio_seen)
        other_head = (other.witness, other.samples_checked, other.skipped, other.max_ratio_seen)
        return head == other_head and self._json_rows() == other._json_rows()

    def to_json_dict(self) -> dict:
        return {
            "witness": self.witness,
            "passed": self.passed,
            "samples_checked": self.samples_checked,
            "skipped": self.skipped,
            "max_ratio_seen": (
                rational_str(self.max_ratio_seen) if self.max_ratio_seen is not None else None
            ),
            "violations": self._json_rows(),
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
    ``DyadicGrid`` against a strict witness with ``affine`` is decided in
    closed form (``_check_grid_affine``), and one inside [0,1) against a
    witness with ``at_length`` per canonical length
    (``_check_grid_by_length``); every other part runs the per-sample loop
    (``_check_each``).  Each returns a tally: checked, skipped, rows
    (ascending for a grid, in input order otherwise) and the largest ratio
    (alpha - phi) / (beta - q) as an integer pair.
    """
    parts = (samples.grid, samples.points) if isinstance(samples, Schedule) else (samples,)
    checked = skipped = 0
    rows: list = []
    best_num, best_den = 0, 1
    for part in parts:
        grid = isinstance(part, DyadicGrid)
        if grid and witness.affine is not None and not witness.weakened:
            decide = _check_grid_affine
        elif grid and witness.at_length is not None and part.size <= part.denominator:
            decide = _check_grid_by_length
        else:
            decide = _check_each
        part_checked, part_skipped, part_rows, (num, den) = decide(alpha, beta, witness, part)
        checked += part_checked
        skipped += part_skipped
        if not grid:
            part_rows.sort(key=attrgetter("sample"))
        rows = _merge(rows, part_rows) if rows else part_rows
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return ViolationReport(
        witness.name, checked, skipped, rows, Fraction(best_num, best_den) if best_num else None
    )


def _merge(rows: list, points: list[Violation]) -> list:
    """Two ascending row lists as one; a ``GridRows`` run is split around a point inside it."""
    if not points:
        return rows
    merged = []
    i = 0
    for row in rows:
        if type(row) is GridRows:
            last = Fraction(row.stop - 1, 1 << row.depth)
            while i < len(points) and points[i].sample < last:
                head, row = row.split(points[i].sample)
                if head.start < head.stop:
                    merged.append(head)
                merged.append(points[i])
                i += 1
        else:
            while i < len(points) and points[i].sample < row.sample:
                merged.append(points[i])
                i += 1
        merged.append(row)
    return merged + points[i:]


def _cap_rows(count: int) -> None:
    """Refuse a grid's rows past 2**MAX_ENUMERATION_BITS, before the first is built."""
    if count > 1 << MAX_ENUMERATION_BITS:
        raise PreconditionError(f"listing {count} violation rows refused (cap 2**{MAX_ENUMERATION_BITS})")


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
    ``lengths_in_grid_order``, so an error it raises is the loop's.  Rows
    past the cap are refused before the first is built; the others go into
    one list of (grid index, violation) pairs, sorted once.
    """
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    test, row = _tester(alpha, beta, witness)
    depth, size = grid.depth, grid.size
    checked = 0
    best_num, best_den = 0, 1
    runs = []  # (start, end, h, step, terms): rows at k = start, start + 2, ... below end
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
            runs.append((start, end, h, step, terms))
    _cap_rows(sum((end - start + 1) // 2 for start, end, *_ in runs))
    rows = [
        (k * step, row(Fraction(k, h), k, h, terms))
        for start, end, h, step, terms in runs
        for k in range(start, end, 2)
    ]
    rows.sort()  # grid indices are distinct, so no two violations are compared
    return checked, size - checked, [v for _, v in rows], (best_num, best_den)


def _check_grid_affine(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness, grid: DyadicGrid) -> tuple:
    """The tally ``_check_each`` would return, for any grid and a strict
    witness with ``affine`` = (u, v), in closed form.

    At a grid sample q = k/h, h = 2**depth, phi(q) = u*q + v is (a*k + b)/m
    with a, m > 0, so each of ``_tester``'s tests is one threshold in k:

        checked          k < ceil(C*h / D)
        not below alpha  k >= ceil((alpha - v) * h/u)
        gap bound        k * slope <= lack,  where slope has the sign of u - c
                         and lack/slope = (c*beta - alpha + v) * h/(c - u)

    so the gap-bound rows lie on one side of a point, or are all or none of
    the samples below alpha when c = u.  The ratio (alpha - phi)/(beta - q)
    = (alpha - v - u*q)/(beta - q) is monotone in q, so the largest is at the
    first or the last checked sample with phi < alpha.  The rows are at most
    two ``GridRows`` runs: gap bound, then not below alpha.
    """
    a_num, a_den = alpha.limit.numerator, alpha.limit.denominator
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    c_num, c_den = witness.constant.numerator, witness.constant.denominator
    u, v = witness.affine
    depth, size, h = grid.depth, grid.size, grid.denominator
    a, b, m = u.numerator * v.denominator, v.numerator * u.denominator * h, u.denominator * v.denominator * h
    end = max(min(size, -(-b_num * h // b_den)), 0)  # checked: 0 <= k < end
    below = min(max(-(-(a_num * m - a_den * b) // (a_den * a)), 0), end)  # phi < alpha: k < below
    slope = a_den * b_den * (a * c_den * h - c_num * m)
    lack = (a_num * m - a_den * b) * c_den * b_den * h - c_num * b_num * h * a_den * m
    if slope < 0:
        lo, hi = max(-(-lack // slope), 0), below
    elif slope > 0:
        lo, hi = 0, min(lack // slope + 1, below)
    else:
        lo, hi = 0, below if lack >= 0 else 0
    _cap_rows(max(hi - lo, 0) + end - below)
    rows = []
    if lo < hi:
        bound = (c_num * b_num * h, c_num * b_den, c_den * b_den * h)  # c*(beta - q), as in _tester
        rows.append(GridRows(depth, lo, hi, REASON_GAP_BOUND, (a, b, m), bound))
    if below < end:
        rows.append(GridRows(depth, below, end, REASON_NOT_BELOW_ALPHA, (a, b, m), None))
    best_num, best_den = 0, 1
    for k in (0, below - 1) if below else ():
        num = (a_num * m - a_den * (a * k + b)) * b_den * h
        den = a_den * m * (b_num * h - b_den * k)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return end, size - end, rows, (best_num, best_den)


def affine_witness(name: str, u: Fraction, v: Fraction, constant: Fraction) -> TranslationWitness:
    """The witness q -> u*q + v with u > 0.  Its ``translate`` is derived
    here and nowhere else, so ``check_witness`` may decide a grid from
    ``affine`` alone."""
    u, v = Fraction(u), Fraction(v)
    if v:
        translate = lambda q: u * q + v
    elif u != 1:
        translate = lambda q: u * q
    else:
        translate = lambda q: q  # the identity needs no arithmetic
    return TranslationWitness(name, translate, Fraction(constant), affine=(u, v))


def identity_witness(constant: Fraction = Fraction(2)) -> TranslationWitness:
    """phi = id.  Certifies a real against itself for any constant above 1."""
    return affine_witness("identity", _ONE, Fraction(0), constant)


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
        return affine_witness(f"scaling({r},forward)", r, Fraction(0), r + 1)
    if direction == "backward":
        return affine_witness(f"scaling({r},backward)", 1 / r, Fraction(0), 1 / r + 1)
    raise ConfigError(f"scaling direction must be forward or backward, got {direction!r}")


def compose_witnesses(outer: TranslationWitness, inner: TranslationWitness) -> TranslationWitness:
    """q -> outer(inner(q)) with the product constant.

    If the pieces certify alpha below beta and beta below gamma, the composite
    is the transitivity witness for alpha below gamma on compatible samples.
    Two affine pieces compose to the affine u1*(u2*q + v2) + v1, which the
    checker still decides in closed form.
    """
    if outer.weakened or inner.weakened:
        raise ConfigError("composition is defined for strict-variant witnesses only")
    name = f"{outer.name}.{inner.name}"
    constant = outer.constant * inner.constant
    total = outer.total and inner.total
    if outer.affine is not None and inner.affine is not None:
        (u1, v1), (u2, v2) = outer.affine, inner.affine
        return replace(affine_witness(name, u1 * u2, u1 * v2 + v1, constant), total=total)

    def translate(q: Fraction) -> Optional[Fraction]:
        mid = inner.translate(q)
        return None if mid is None else outer.translate(mid)

    return TranslationWitness(name=name, translate=translate, constant=constant, total=total)


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
    num, den = alpha.limit.numerator, alpha.limit.denominator
    whole, rem = divmod(num, den)  # alpha = whole + rem/den with 0 <= rem/den < 1
    dyadic_alpha = not den & (den - 1)

    # One Fraction per length, straight from the integers: the truncation
    # floor(rem * 2**n / den) needs no range check on rem/den.
    def at_length(length: int) -> Fraction:
        if dyadic_alpha:
            return Fraction((num << (length + 2)) - den, den << (length + 2))
        n = length + 1
        return Fraction((whole << n) + ((rem << n) // den), 1 << n)

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
    """A lazy ``grid``, then ascending ``points`` off it; iterated, counted and tested for emptiness, nothing more."""

    grid: DyadicGrid
    points: tuple[Fraction, ...]

    def __len__(self) -> int:
        return self.grid.size + len(self.points)

    def __bool__(self) -> bool:
        return bool(self.grid or self.points)

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
