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
from functools import cache, cmp_to_key
from itertools import chain, repeat
from operator import itemgetter, le, mul
from typing import Callable, Iterable, NamedTuple, Optional

from .dyadic import canonical_length, dyadic_length, lengths_in_grid_order
from .dyadic import truncate  # noqa: F401  module attribute that perfbench/tracer.py wraps
from .errors import ConfigError, PreconditionError
from .reals import DeskReal, approximations
from .util import Rows, fraction_texts, parse_rational, rational_str, ratio_texts

_ONE = Fraction(1)
_NO_ROWS = Rows({})  # a passing report's rows; a Rows is read-only, so one serves all

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
    then translates once per length instead of once per sample.  It answers
    an integer pair (num, den), den > 0 and not necessarily in lowest terms,
    for the value num/den, or None where the witness is undefined.  ``affine``
    is set by ``affine_witness``, on witnesses with phi(q) = u*q + v and
    u > 0; the checker then decides one without translating at all.
    """

    name: str
    translate: Callable[[Fraction], Optional[Fraction]]
    constant: Fraction
    total: bool = True
    weakened: bool = False
    at_length: Optional[Callable[[int], Optional[tuple[int, int]]]] = None
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


def _at_or_above(k: int, lo: int, hi: int, step: int) -> int:
    """The least of lo, lo + step, ... that is at least k, but at most hi (a multiple of step past lo)."""
    return min(max(lo - (lo - k) // step * step, lo), hi)


@dataclass(eq=False)
class ViolationReport:
    """Outcome of checking one witness over a finite sample list.

    The violations are the rows of ``classes`` at grid samples k/2**depth
    and the ``rows``, ascending.  A class (lo, hi, step, reason, phi, bound)
    has one row at each k = lo, lo + step, ... below hi, a multiple of step
    past lo, with phi = (phi_k*k + phi_0) / phi_den (None where undefined)
    and, on a gap-bound class, bound = (bound_0 - bound_k*k) / bound_den,
    every denominator positive.  A row (k, h, reason, phi_num, phi_den,
    bound_num, bound_den) is the sample k/h in lowest terms with phi =
    phi_num/phi_den and bound = bound_num/bound_den, pairs in any terms
    with a positive denominator, or 0 where the row has none.  Rows stay
    integers: ``to_json_dict`` lists all of them, merged by sample, as one
    ``Rows`` of text columns, a class's by ``fraction_texts``, a row's q as
    k/h and its phi and bound by one gcd each (``ratio_texts``);
    ``violations`` reads the same columns back as exact ``Fraction``s, so
    the report has one reader of its rows and builds no ``Violation`` or
    ``Fraction`` before it.  ``passed`` works from the rows as they are, and
    ``==`` compares ``to_json_dict``.
    """

    witness: str
    samples_checked: int
    skipped: int
    rows: list[tuple] = field(default_factory=list)  # of (k, h, reason, phi_num, phi_den, bound_num, bound_den)
    max_ratio_seen: Optional[Fraction] = None
    depth: int = 0
    classes: tuple = ()  # of (lo, hi, step, reason, (phi_k, phi_0, phi_den) or None, (bound_0, bound_k, bound_den) or None)

    @property
    def violations(self) -> list[Violation]:
        qs, reasons, phis, bounds = self._columns()
        phis, bounds = ([None if text is None else parse_rational(text) for text in texts] for texts in (phis, bounds))
        return list(map(Violation, map(parse_rational, qs), reasons, phis, bounds))

    @property
    def passed(self) -> bool:
        return not self.rows and not self.classes

    def __eq__(self, other):
        if not isinstance(other, ViolationReport):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def _json_rows(self) -> Rows:
        if self.passed:
            return _NO_ROWS
        return Rows(dict(zip(("q", "reason", "phi_q", "bound"), self._columns())))

    def _columns(self) -> tuple[list, list, list, list]:
        """The rows' q, reason, phi_q and bound texts, a class's by
        ``fraction_texts``; a phi that is its q reuses the q texts.  Two or
        more sources merge by their keys, 2k + 1 for grid row k and
        2*ceil(p * 2**depth) for a point p, so each point follows the grid
        rows below it, in their order.  Each source's keys ascend, so when
        each source's first key is at least the one before's last, the
        sources are concatenated; otherwise one stable sort of the keys
        reorders each column."""
        depth, runs = self.depth, []
        h = 1 << depth
        for lo, hi, step, reason, phi, bound in self.classes:
            (pk, p0, pd), (b0, bk, bd), count = phi or (0, 0, 0), bound or (0, 0, 0), (hi - lo) // step
            qs = fraction_texts(lo, step, count, h)
            phis = qs if phi == (1, 0, h) else fraction_texts(p0 + pk * lo, pk * step, count, pd) if pd else [None] * count
            bounds = fraction_texts(b0 - bk * lo, -bk * step, count, bd) if bd else [None] * count
            runs.append((qs, [reason] * count, phis, bounds))
        if self.rows:
            ks, hs, reasons, phi_nums, phi_dens, bound_nums, bound_dens = map(list, zip(*self.rows))
            qs = [f"{k}/{d}" if d != 1 else str(k) for k, d in zip(ks, hs)]
            phis = qs if phi_nums == ks and phi_dens == hs else ratio_texts(phi_nums, phi_dens)
            runs.append((qs, reasons, phis, ratio_texts(bound_nums, bound_dens)))
        if len(runs) <= 1:
            return runs[0] if runs else ([], [], [], [])
        columns = tuple(list(chain.from_iterable(parts)) for parts in zip(*runs))  # each source's part in turn
        spans = [(2 * lo + 1, 2 * (hi - step) + 1) for lo, hi, step, *_ in self.classes]  # (first key, last key)
        if self.rows:
            (k0, h0, *_), (k1, h1, *_) = self.rows[0], self.rows[-1]
            spans.append((2 * _index_of(k0, h0, depth), 2 * _index_of(k1, h1, depth)))
        if all(last <= first for (_, last), (first, _) in zip(spans, spans[1:])):
            return columns
        keys = list(chain(*(range(2 * lo + 1, 2 * hi + 1, 2 * step) for lo, hi, step, *_ in self.classes)))
        keys += [2 * _index_of(k, d, depth) for k, d, *_ in self.rows]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return tuple(list(map(column.__getitem__, order)) for column in columns)

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


def _inequality(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness):
    """The witness inequality, stated once in integers and free of the sample.

    With alpha = A/B, beta = C/D and c = P/Q, a statement is a value phi(k/h)
    = (a*k + b*h) / (m*h), a >= 0 and m > 0, at samples q = k/h in lowest
    terms: an affine witness's integers at every sample, or (0, b, m) for a
    value b/m in any terms.  Then (alpha - phi) * B*m*h = h*room - B*a*k with
    room = A*m - B*b, and (beta - q) * D*h = C*h - D*k; a sample with C*h -
    D*k <= 0 is skipped.  A checked sample is a violation row when

        undefined        phi is None
        not below alpha  k*B*a >= h*room
        gap bound        alpha - phi >= c*(beta - q) + s, that is
                         k*slope >= h*lack + w,  slope = B*D*(P*m - Q*a),
                                                 lack = B*m*P*C - Q*D*room

    with w = B*m*Q*D for a weakened witness and 0 otherwise: every weakened
    sample is k/2**|q|, so its slack s = 2**-|q| is 1/h.  For h fixed each
    is one threshold in k, and off a grid one in q.  The ratio (alpha -
    phi) / (beta - q) = (h*room - B*a*k)*D / (B*m*(C*h - D*k)) rises in q
    where D*room > B*a*C and falls where it is below.
    ``statement(a, b, m)`` returns (B*a, room, slope, lack, w, B*m), and
    ``bound`` is (P*C, P*D, Q*D, s0): a gap-bound row's bound c*(beta - q)
    + s is (P*C*h + s0 - P*D*k) / (Q*D*h), s0 = Q*D when weakened and 0
    otherwise.
    """
    a_num, a_den = alpha.limit.numerator, alpha.limit.denominator
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    c_num, c_den = witness.constant.numerator, witness.constant.denominator
    qd, pc, ad_bd = c_den * b_den, c_num * b_num, a_den * b_den  # Q*D, P*C, B*D
    slack = qd if witness.weakened else 0  # s0

    def statement(a: int, b: int, m: int) -> tuple:
        room, bm = a_num * m - a_den * b, a_den * m
        return a_den * a, room, ad_bd * (c_num * m - c_den * a), bm * pc - qd * room, bm * slack, bm

    return statement, (pc, c_num * b_den, qd, slack)


def check_witness(
    alpha: DeskReal,
    beta: DeskReal,
    witness: TranslationWitness,
    samples: Iterable[Fraction],
) -> ViolationReport:
    """Evaluate the witness inequality at every sample below beta's limit.

    Samples at or above beta's limit are skipped (and counted).  Order of the
    input does not matter: violations come back sorted by sample value.  A
    ``Schedule`` is decided one part at a time, grid then points, and this
    is the one place that picks each part's decider:

        _check_grid   a DyadicGrid, for a strict witness with ``affine``,
                      or for one with ``at_length`` on a grid inside [0,1)
        _check_each   everything else, one sample at a time

    Both read ``_inequality``'s statement.  Each returns a tally: checked,
    skipped, rows (the report's ``classes`` from the first, integer rows in
    input order from the second) and the largest ratio (alpha - phi) /
    (beta - q) as an integer pair.  The rows are sorted here, by integer
    cross-products, unless they already ascend; the report merges the two
    row sequences by sample when it is read.
    """
    parts = (samples.grid, samples.points) if isinstance(samples, Schedule) else (samples,)
    strict_affine = witness.affine is not None and not witness.weakened
    checked = skipped = 0
    depth, classes, rows = 0, (), []
    best_num, best_den = 0, 1
    for part in parts:
        if isinstance(part, DyadicGrid) and (strict_affine or witness.at_length is not None and part.size <= part.denominator):
            part_checked, part_skipped, classes, (num, den) = _check_grid(alpha, beta, witness, part)
            depth = part.depth
        else:
            part_checked, part_skipped, part_rows, (num, den) = _check_each(alpha, beta, witness, part)
            rows += part_rows
        checked += part_checked
        skipped += part_skipped
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    ks, hs = list(map(itemgetter(0), rows)), list(map(itemgetter(1), rows))
    if not all(map(le, map(mul, ks, hs[1:]), map(mul, ks[1:], hs))):
        rows.sort(key=_by_sample)
    return ViolationReport(
        witness.name, checked, skipped, rows, Fraction(best_num, best_den) if best_num else None, depth, classes
    )


_by_sample = cmp_to_key(lambda row, other: row[0] * other[1] - other[0] * row[1])  # rows by k/h, exactly
_UNDEFINED = (0,) * 9  # an undefined phi's (a, b, m) and statement: m = 0


def _check_each(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness, samples: Iterable[Fraction]) -> tuple:
    """The tally of a sample list decided one sample at a time, with rows
    in input order for ``check_witness`` to sort.

    Each checked sample q = k/h in lowest terms reads one ``_inequality``
    statement: a witness with ``affine`` has one for all its samples, from
    its integers; a witness with ``at_length`` one per length h at a dyadic
    q in [0,1), from its integer pair; every other sample one from
    ``translate(q)``.  So no affine witness translates.  A weakened sample
    below alpha that is not a dyadic in [0,1) raises the domain error there.
    A grid of more than 2**MAX_ENUMERATION_BITS samples is refused before
    its first one; a list is checked whatever its length.
    """
    if isinstance(samples, DyadicGrid) and samples.size > 1 << MAX_ENUMERATION_BITS:
        raise PreconditionError(
            f"checking {samples.size} grid samples one by one refused (cap 2**{MAX_ENUMERATION_BITS})"
        )
    translate, at_length, weakened = witness.translate, witness.at_length, witness.weakened
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    statement, (pc, pd, qd, slack) = _inequality(alpha, beta, witness)

    def stated(abm: Optional[tuple[int, int, int]]) -> tuple:  # phi's (a, b, m) and statement, or undefined
        return _UNDEFINED if abm is None else (*abm, *statement(*abm))

    affine = None if witness.affine is None else stated(affine_integers(witness))
    by_length: dict[int, tuple] = {}  # h -> stated((0, *at_length(log2(h))))
    checked = skipped = 0
    rows: list[tuple] = []
    append = rows.append
    best_num, best_den = 0, 1
    for q in samples:
        k, h = q.numerator, q.denominator
        margin = b_num * h - k * b_den  # (beta - q) * D*h
        if margin <= 0:
            skipped += 1
            continue
        checked += 1
        phi = affine
        if phi is None:
            if at_length is not None and not h & (h - 1) and 0 <= k < h:
                phi = by_length.get(h)
                if phi is None:
                    pair = at_length(h.bit_length() - 1)
                    phi = by_length[h] = stated(None if pair is None else (0, *pair))
            else:
                image = translate(q)
                phi = stated(None if image is None else (0, *image.as_integer_ratio()))
        a, b, m, ba, room, slope, lack, w, bm = phi
        if not m:
            append((k, h, REASON_UNDEFINED, 0, 0, 0, 0))
            continue
        if k * ba >= h * room:
            append((k, h, REASON_NOT_BELOW_ALPHA, a * k + b * h, m * h, 0, 0))
            continue
        if weakened and (h & (h - 1) or k < 0 or k >= h):
            dyadic_length(q)  # raises the proper domain error
        num, den = (h * room - ba * k) * b_den, bm * margin
        if num * best_den > best_num * den:
            best_num, best_den = num, den
        if k * slope >= h * lack + w:
            append((k, h, REASON_GAP_BOUND, a * k + b * h, m * h, pc * h + slack - pd * k, qd * h))
    return checked, skipped, rows, (best_num, best_den)


def _check_grid(alpha: DeskReal, beta: DeskReal, witness: TranslationWitness, grid: DyadicGrid) -> tuple:
    """The tally ``_check_each`` would return, from ``_inequality``'s
    statement, one class of samples k/h, h = 2**e, at a time: with h fixed,
    each test is a threshold in k.

    A strict affine witness is one class, e = depth and every k, also past
    1, stated once from its integers.  Inside [0,1), a witness with
    ``at_length`` has one class per canonical length e: odd k (k = 0 at e =
    0), stated by the integer pair ``at_length(e)`` as (0, b, m), with the
    weakened slack 2**-e = 1/h.  A class's integers thus grow with e, not
    with the depth.  Counts are closed forms (a ``len(range(...))``
    overflows at depth 64).  ``at_length`` is called once per length with a
    checked sample, in ``lengths_in_grid_order``, so an error it raises is
    the loop's.  Rows past the cap are refused before the first is built;
    the others stay the report's ``classes``, at grid indices k << (depth -
    e), where phi = (a*k + b*2**depth) / (m*2**depth).
    """
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    statement, (pc, pd, qd, slack) = _inequality(alpha, beta, witness)
    depth, grid_h = grid.depth, grid.denominator
    end = min(grid.size, _count_below(depth, beta.limit))  # checked: grid index < end
    if witness.affine is not None and not witness.weakened:
        affine, classes = affine_integers(witness), [(depth, 0, 1)]  # (e, first k, step): samples k/2**e, at grid index k << (depth - e)
    else:
        affine, classes = None, [(l, 1 if l else 0, 2) for l in lengths_in_grid_order(depth)]
    checked = 0
    best_num, best_den = 0, 1
    runs = []  # the report's classes
    for e, first, step in classes:
        h, shift = 1 << e, depth - e
        top = -(-end >> shift)  # checked: k < top
        count = max(top - first + step - 1, 0) // step
        if not count:
            continue
        checked += count
        stop = first + count * step
        if affine is not None:
            a, b, m = affine
        else:
            pair = witness.at_length(e)
            if pair is None:
                runs.append((first << shift, stop << shift, step << shift, REASON_UNDEFINED, None, None))
                continue
            a, (b, m) = 0, pair
        ba, room, slope, lack, w, bm = statement(a, b, m)
        room, lack = h * room, h * lack + w  # the class's thresholds in k
        if a:  # phi < alpha: k < below
            below = _at_or_above(-(-room // ba), first, stop, step)
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
                runs.append((lo << shift, hi << shift, step << shift, REASON_GAP_BOUND, (a, b << depth, m << depth), (pc * grid_h + (slack << shift), pd, qd * grid_h)))
        if below < stop:
            runs.append((below << shift, stop << shift, step << shift, REASON_NOT_BELOW_ALPHA, (a, b << depth, m << depth), None))
        if first < below:
            k = first if b_den * room < ba * b_num * h else below - step
            num, den = (room - ba * k) * b_den, bm * (b_num * h - b_den * k)
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    listed = sum((hi - lo) // step for lo, hi, step, *_ in runs)
    if listed > 1 << MAX_ENUMERATION_BITS:  # refused before the first row is built
        raise PreconditionError(f"listing {listed} violation rows refused (cap 2**{MAX_ENUMERATION_BITS})")
    return checked, grid.size - checked, tuple(runs), (best_num, best_den)


def affine_integers(witness: TranslationWitness) -> tuple[int, int, int]:
    """The integers (a, b, m) with u*q + v = (a*q + b) / m, for an affine
    witness's ``affine = (u, v)``."""
    u, v = witness.affine
    return u.numerator * v.denominator, v.numerator * u.denominator, u.denominator * v.denominator


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
    name: str, at_length: Callable[[int], Optional[tuple[int, int]]], constant: Fraction, weakened: bool = False
) -> TranslationWitness:
    """The witness q -> at_length(|q|), with ``at_length`` cached.  It
    answers an integer pair (num, den), den > 0 and in any terms, or None
    where the witness is undefined.  Its ``translate`` is derived here and
    nowhere else, and is the one place a per-length value becomes a
    ``Fraction``, so the contract that ``check_witness`` and
    ``k_bound_from_witness`` rely on holds by construction."""
    at_length = cache(at_length)

    def translate(q: Fraction) -> Optional[Fraction]:
        pair = at_length(canonical_length(q))
        return None if pair is None else Fraction(*pair)

    return TranslationWitness(name, translate, constant, weakened=weakened, at_length=at_length)


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

    # One integer pair per length: the truncation floor(rem * 2**n / den)
    # needs no range check on rem/den.
    def at_length(length: int) -> tuple[int, int]:
        if dyadic_alpha:
            return (num << (length + 2)) - den, den << (length + 2)
        n = length + 1
        return (whole << n) + ((rem << n) // den), 1 << n

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
        return self._contains_ratio(num, den)

    def _contains_ratio(self, num: int, den: int) -> bool:
        """Whether num/den, in lowest terms with den > 0, is a sample."""
        h = 1 << self.depth
        return not den & (den - 1) and den <= h and 0 <= num * (h // den) < self.size


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
    return _index_of(below.numerator, below.denominator, depth)


def _index_of(k: int, h: int, depth: int) -> int:
    """How many multiples of 2**-depth lie in [0, k/h), h > 0."""
    # ceil gives the right count whether or not the bound lands on the grid
    # (strict inequality either way).
    return max(-(-(k << depth) // h), 0)


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
    # the least d with num * 2**d > over, that is _count_below(d, below) >= count; bit lengths give it to within one
    num, over = below.numerator, (count - 1) * below.denominator
    depth = max(over.bit_length() - num.bit_length(), 0)
    depth += num << depth <= over
    return DyadicGrid(depth, count)


def default_samples(beta: DeskReal, witness: TranslationWitness, grid_depth: int = 10) -> Schedule:
    """The grid of depth ``grid_depth`` below beta's limit, then beta's
    approximation points 0..64 below the limit and off that grid, ascending;
    the approximation points are the proof-relevant witnesses.  A weakened
    witness takes only dyadic samples in [0,1), so its grid stops below
    min(beta, 1) and it keeps only such points.
    """
    below = min(beta.limit, _ONE) if witness.weakened else beta.limit
    grid = dyadic_grid(grid_depth, below)
    b_num, b_den, weakened = below.numerator, below.denominator, witness.weakened
    points: list[Fraction] = []
    last = None
    for p in approximations(beta, 65):  # nondecreasing: one pass, no sort
        num, den = p.numerator, p.denominator  # lowest terms: equal values are equal pairs
        if num * b_den >= b_num * den:  # at or above the bound, as is every later value
            break
        if (num, den) != last and not grid._contains_ratio(num, den) and (not weakened or num >= 0 and not den & (den - 1)):
            points.append(p)
        last = num, den
    return Schedule(grid, tuple(points))
