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
    """The violation rows at grid samples k/2**depth, as ``classes`` of them.
    A class (lo, hi, step, reason, phi, bound) has one row at each k = lo,
    lo + step, ... below hi, a multiple of step past lo, with phi = (phi_k*k
    + phi_0) / phi_den (None where undefined) and, on a gap-bound class,
    bound = (bound_0 - bound_k*k) / bound_den, every denominator positive.
    The classes' rows may interleave; both readers merge them by k, and
    merge in the ascending ``points`` rows of a schedule's other samples.
    """

    depth: int
    classes: tuple  # of (lo, hi, step, reason, (phi_k, phi_0, phi_den) or None, (bound_0, bound_k, bound_den) or None)

    def _in_order(self, run, points: list[Violation], point) -> list:
        """``run(*class)`` is one class's rows in order and ``point(v)`` a
        point's row; all the rows by sample, each point after the grid rows
        below it.  Those are counted per class in integers; the points past
        the last grid row are appended without counting."""
        runs = [run(*c) for c in self.classes]
        if len(runs) > 1:
            keyed = (zip(range(lo, hi, step), rows) for (lo, hi, step, *_), rows in zip(self.classes, runs))
            rows = [row for _, row in heapq.merge(*keyed)]  # classes are disjoint, so no two rows are compared
        else:
            rows = runs[0] if runs else []
        depth, last = self.depth, max((hi - step for _, hi, step, *_ in self.classes), default=-1)
        out, done, i = [], 0, 0
        for v in points:
            cut = -(-(v.sample.numerator << depth) // v.sample.denominator)  # grid rows below v: k < cut
            if cut > last:  # v and every later point come after all the grid rows
                break
            below = sum((_at_or_above(cut, lo, hi, step) - lo) // step for lo, hi, step, *_ in self.classes)
            out += rows[done:below]
            out.append(point(v))
            done, i = below, i + 1
        out += rows[done:]
        out += map(point, points[i:])
        return out

    def violations(self, points: list[Violation]) -> list[Violation]:
        h = 1 << self.depth

        def run(lo, hi, step, reason, phi, bound):
            pk, p0, pd = phi or (0, 0, 0)
            b0, bk, bd = bound or (0, 0, 0)
            return [
                Violation(
                    Fraction(k, h),
                    reason,
                    Fraction(pk * k + p0, pd) if pd else None,
                    Fraction(b0 - bk * k, bd) if bd else None,
                )
                for k in range(lo, hi, step)
            ]

        return self._in_order(run, points, lambda v: v)

    def to_json_rows(self, points: list[Violation]) -> list[dict]:
        """``ViolationReport.to_json_dict``'s rows, from integers: q in lowest
        terms by a shift, phi once per class where it is constant (and phi = q
        on identity's classes), else phi and the bound each by one gcd.
        Inlined, since this runs once per row."""
        depth, h = self.depth, 1 << self.depth
        over = [f"/{h >> shift}" for shift in range(depth)] + [""] if self.classes else []  # "/" + the denominator of k/h, by k's shift

        def run(lo, hi, step, reason, phi_terms, bound):
            pk, p0, pd = phi_terms or (0, 0, 0)
            b0, bk, bd = bound or (0, 0, 0)
            phi_is_q = phi_terms == (1, 0, h)
            phi_varies = pk and not phi_is_q
            phi = rational_str(Fraction(p0, pd)) if pd and not pk else None
            rows = []
            append = rows.append
            for k in range(lo, hi, step):
                shift = min((k & -k).bit_length() - 1, depth) if k else depth
                q = f"{k >> shift}{over[shift]}"
                if phi_varies:
                    n = pk * k + p0
                    g = gcd(n, pd)
                    phi = f"{n // g}/{pd // g}" if g != pd else str(n // g)
                elif phi_is_q:
                    phi = q
                if bd:
                    n = b0 - bk * k
                    g = gcd(n, bd)
                    append({"q": q, "reason": reason, "phi_q": phi, "bound": f"{n // g}/{bd // g}" if g != bd else str(n // g)})
                else:
                    append({"q": q, "reason": reason, "phi_q": phi, "bound": None})
            return rows

        return self._in_order(run, points, _violation_json_row)


def _at_or_above(k: int, lo: int, hi: int, step: int) -> int:
    """The least of lo, lo + step, ... that is at least k, but at most hi (a multiple of step past lo)."""
    return min(max(lo - (lo - k) // step * step, lo), hi)


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

    The violations are ``grid``'s rows and the ``Violation``s in ``rows``,
    each ascending; reading ``violations`` or ``to_json_dict`` merges them
    by sample, and only ``violations`` builds ``Violation`` objects for the
    grid.  ``passed`` and ``==`` work from the rows as they are.
    """

    witness: str
    samples_checked: int
    skipped: int
    rows: list[Violation] = field(default_factory=list)
    max_ratio_seen: Optional[Fraction] = None
    grid: GridRows = GridRows(0, ())

    @property
    def violations(self) -> list[Violation]:
        return self.grid.violations(self.rows)

    @property
    def passed(self) -> bool:
        return not self.rows and not self.grid.classes

    def __eq__(self, other):
        if not isinstance(other, ViolationReport):
            return NotImplemented
        head = (self.witness, self.samples_checked, self.skipped, self.max_ratio_seen)
        other_head = (other.witness, other.samples_checked, other.skipped, other.max_ratio_seen)
        return head == other_head and self.grid.to_json_rows(self.rows) == other.grid.to_json_rows(other.rows)

    def to_json_dict(self) -> dict:
        return {
            "witness": self.witness,
            "passed": self.passed,
            "samples_checked": self.samples_checked,
            "skipped": self.skipped,
            "max_ratio_seen": (
                rational_str(self.max_ratio_seen) if self.max_ratio_seen is not None else None
            ),
            "violations": self.grid.to_json_rows(self.rows),
        }


def _inequality(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness):
    """The witness inequality on one class of samples, stated once in integers.

    With alpha = A/B, beta = C/D and c = P/Q, a class is samples q = k/h, h
    fixed, with phi(q) = (a*k + b)/m, a >= 0 and m > 0, and one weakened
    slack 2**-|q| = 2**-length, written s/(Q*D*h) (s = 0 when strict).  Then
    (alpha - phi) * B*m = room - B*a*k with room = A*m - B*b, and (beta - q)
    * D*h = C*h - D*k; a sample with C*h - D*k <= 0 is skipped.  A checked
    sample is a violation row when

        undefined        phi is None
        not below alpha  B*a*k >= room
        gap bound        alpha - phi >= c*(beta - q) + s/(Q*D*h), that is
                         k * slope >= lack,  slope = B*D*(P*m - a*Q*h),
                                             lack = B*m*(P*C*h + s) - room*Q*D*h

    so each is one threshold in k.  The ratio (alpha - phi) / (beta - q) =
    (room - B*a*k)*D*h / (B*m*(C*h - D*k)) rises in k where D*room > B*a*C*h
    and falls where it is below.  ``terms(a, b, m, h, length)`` returns
    (room, slope, lack); ``bound(h, length)`` a gap-bound row's bound as
    (bound_0, bound_k, bound_den) = (P*C*h + s, P*D, Q*D*h).
    """
    a_num, a_den = alpha.limit.numerator, alpha.limit.denominator
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    c_num, c_den = witness.constant.numerator, witness.constant.denominator
    qd, pc, ad_bd = c_den * b_den, c_num * b_num, a_den * b_den  # Q*D, P*C, B*D
    weakened = witness.weakened

    def terms(a: int, b: int, m: int, h: int, length: int) -> tuple[int, int, int]:
        room, qdh = a_num * m - a_den * b, qd * h
        slack = qdh >> length if weakened else 0  # s
        return room, ad_bd * (c_num * m - a * c_den * h), a_den * m * (pc * h + slack) - room * qdh

    def bound(h: int, length: int) -> tuple[int, int, int]:
        return pc * h + (qd * h >> length if weakened else 0), c_num * b_den, qd * h

    return terms, bound


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
    ``DyadicGrid`` is decided by classes of samples (``_check_grid``) for a
    strict witness with ``affine``, and, inside [0,1), for any witness with
    ``affine`` or ``at_length``; every other part runs the per-sample loop
    (``_check_each``).  Each returns a tally: checked, skipped, rows (one
    ``GridRows`` from the first, ``Violation``s in input order from the
    second, all of which are sorted here once) and the largest ratio (alpha
    - phi) / (beta - q) as an integer pair.  The report merges the two row
    sequences by sample when it is read.
    """
    parts = (samples.grid, samples.points) if isinstance(samples, Schedule) else (samples,)
    by_class = witness.affine is not None or witness.at_length is not None
    checked = skipped = 0
    grid, rows = GridRows(0, ()), []
    best_num, best_den = 0, 1
    for part in parts:
        if isinstance(part, DyadicGrid) and by_class and (part.size <= part.denominator or not witness.weakened and witness.affine is not None):
            part_checked, part_skipped, grid, (num, den) = _check_grid(alpha, beta, witness, part)
        else:
            part_checked, part_skipped, part_rows, (num, den) = _check_each(alpha, beta, witness, part)
            rows += part_rows
        checked += part_checked
        skipped += part_skipped
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    rows.sort(key=attrgetter("sample"))
    return ViolationReport(
        witness.name, checked, skipped, rows, Fraction(best_num, best_den) if best_num else None, grid
    )


def _check_each(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness, samples: Iterable[Fraction]) -> tuple:
    """The per-sample loop's tally, with rows in input order for
    ``check_witness`` to sort.

    Each sample q = k/h in lowest terms is a class of its own, with a = 0
    and phi = b/m; weakened, its slack is 2**-|q| = 1/h.  ``_inequality``'s
    terms are computed once per length h for a witness with ``at_length``
    and a dyadic q in [0,1), and through ``translate(q)`` for every other
    sample.  A grid of more than 2**MAX_ENUMERATION_BITS samples is refused
    before its first one; a list is checked whatever its length.
    """
    if isinstance(samples, DyadicGrid) and samples.size > 1 << MAX_ENUMERATION_BITS:
        raise PreconditionError(
            f"checking {samples.size} grid samples one by one refused (cap 2**{MAX_ENUMERATION_BITS})"
        )
    a_den = alpha.limit.denominator
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    translate, at_length, weakened = witness.translate, witness.at_length, witness.weakened
    terms, bound = _inequality(alpha, beta, witness)

    def test(phi: Optional[Fraction], h: int) -> tuple:
        """(phi, reason, slope, lack, room*D*h, B*m): a row when k*slope >= lack; 0s where no gap bound is tested."""
        if phi is None:
            return None, REASON_UNDEFINED, 0, 0, 0, 0
        m = phi.denominator
        room, slope, lack = terms(0, phi.numerator, m, h, h.bit_length() - 1)
        if room <= 0:
            return phi, REASON_NOT_BELOW_ALPHA, 0, 0, 0, 0
        return phi, REASON_GAP_BOUND, slope, lack, room * b_den * h, a_den * m

    by_length: dict[int, tuple] = {}  # h -> test(at_length(log2(h)), h)
    checked = skipped = 0
    violations: list[Violation] = []
    best_num, best_den = 0, 1
    for q in samples:
        k, h = q.numerator, q.denominator
        margin = b_num * h - k * b_den  # (beta - q) * D*h
        if margin <= 0:
            skipped += 1
            continue
        checked += 1
        if at_length is not None and not h & (h - 1) and 0 <= k < h:
            tested = by_length.get(h)
            if tested is None:
                tested = by_length[h] = test(at_length(h.bit_length() - 1), h)
        else:
            tested = test(translate(q), h)
            if weakened and tested[2] and (h & (h - 1) or k < 0 or k >= h):
                dyadic_length(q)  # raises the proper domain error
        phi, reason, slope, lack, room_dh, bm = tested
        margin_bm = margin * bm
        if room_dh * best_den > best_num * margin_bm:
            best_num, best_den = room_dh, margin_bm
        if k * slope >= lack:
            b0, bk, bd = bound(h, h.bit_length() - 1) if slope else (0, 0, 0)
            violations.append(Violation(q, reason, phi, Fraction(b0 - bk * k, bd) if bd else None))
    return checked, skipped, violations, (best_num, best_den)


def _check_grid(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness, grid: DyadicGrid) -> tuple:
    """The tally ``_check_each`` would return, from ``_inequality``'s
    thresholds in k, one class of samples k/h, h = 2**e, at a time.

    A strict affine witness is one class, e = depth and every k, also past
    1, with phi = u*k/h + v.  Inside [0,1), any other witness has one class
    per canonical length e: odd k (k = 0 at e = 0), with phi =
    ``at_length(e)`` or u*k/h + v and the slack 2**-e.  A class's integers
    thus grow with e, not with the depth.  Counts are closed forms (a
    ``len(range(...))`` overflows at depth 64).  ``at_length`` is called
    once per length with a checked sample, in ``lengths_in_grid_order``, so
    an error it raises is the loop's.  Rows past the cap are refused before
    the first is built; the others stay the classes of one ``GridRows``, at
    grid indices k << (depth - e).
    """
    a_den = alpha.limit.denominator
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    terms, bound = _inequality(alpha, beta, witness)
    depth, at_length = grid.depth, witness.at_length
    end = max(min(grid.size, -(-(b_num << depth) // b_den)), 0)  # checked: grid index < end
    if witness.affine is not None:
        u, v = witness.affine
        affine = (u.numerator * v.denominator, v.numerator * u.denominator, u.denominator * v.denominator)  # u*k/h + v = (a*k + b*h) / (m*h)
    if witness.affine is not None and not witness.weakened:
        at_length, classes = None, [(depth, 0, 1)]  # (e, first k, step): samples k/2**e, at grid index k << (depth - e)
    else:
        classes = [(l, 1 if l else 0, 2) for l in lengths_in_grid_order(depth)]
    checked = 0
    best_num, best_den = 0, 1
    runs = []  # GridRows classes
    for e, first, step in classes:
        h, shift = 1 << e, depth - e
        top = -(-end >> shift)  # checked: k < top
        count = max(top - first + step - 1, 0) // step
        if not count:
            continue
        checked += count
        stop = first + count * step
        if at_length is None:
            a, b, m = affine[0], affine[1] * h, affine[2] * h
        else:
            phi = at_length(e)
            if phi is None:
                runs.append((first << shift, stop << shift, step << shift, REASON_UNDEFINED, None, None))
                continue
            a, b, m = 0, phi.numerator, phi.denominator
        room, slope, lack = terms(a, b, m, h, e)
        if a:  # phi < alpha: k < below
            below = _at_or_above(-(-room // (a_den * a)), first, stop, step)
        else:
            below = stop if room > 0 else first
        if slope > 0:
            lo, hi = -(-lack // slope), below
        elif slope < 0:
            lo, hi = first, lack // slope + 1
        else:
            lo, hi = first, below if lack <= 0 else first
        if lo < hi and lo < top:  # rows at the class's checked k in [lo, hi)
            lo, hi = _at_or_above(lo, first, below, step), _at_or_above(hi, first, below, step)
            if lo < hi:  # a row class is kept over grid indices k << shift
                runs.append((lo << shift, hi << shift, step << shift, REASON_GAP_BOUND, (a, b << shift, m << shift), bound(grid.denominator, e)))
        if below < stop:
            runs.append((below << shift, stop << shift, step << shift, REASON_NOT_BELOW_ALPHA, (a, b << shift, m << shift), None))
        if first < below:
            k = first if b_den * room < a_den * a * b_num * h else below - step
            num, den = (room - a_den * a * k) * b_den * h, a_den * m * (b_num * h - b_den * k)
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    listed = sum((hi - lo) // step for lo, hi, step, *_ in runs)
    if listed > 1 << MAX_ENUMERATION_BITS:  # refused before the first row is built
        raise PreconditionError(f"listing {listed} violation rows refused (cap 2**{MAX_ENUMERATION_BITS})")
    return checked, grid.size - checked, GridRows(depth, tuple(runs)), (best_num, best_den)


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
