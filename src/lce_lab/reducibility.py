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

    The loop runs over the pairs (k, h).  Any iterable of rationals gives
    ``q.numerator, q.denominator``.  A ``DyadicGrid`` checked against a
    witness with ``at_length`` is read by index instead: grid index j at
    depth d reduces to (j/low, 2**d/low) with low = j & -j, so no Fraction
    and no gcd is spent on a sample.  When the witness has ``at_length`` and
    q is a dyadic in [0,1), phi and its integer terms (A*m - n*B, B*m,
    (A*m - n*B)*D*h and that times Q) are computed once per length h and
    reused; every other sample goes through ``translate(q)``.  Each sample
    still gets its own skip, not-below and gap-bound verdict.  A Fraction is
    built for q only for a ``translate`` call, a violation row or a domain
    error.
    """
    a_num, a_den = alpha.limit.numerator, alpha.limit.denominator
    b_num, b_den = beta.limit.numerator, beta.limit.denominator
    c_num, c_den = witness.constant.numerator, witness.constant.denominator
    translate, at_length = witness.translate, witness.at_length
    weakened = witness.weakened
    qd = c_den * b_den  # Q*D
    slack = qd if weakened else 0  # s
    # A grid inside [0,1) is read by index when the witness has at_length, so
    # no sample needs a Fraction for translate; any other grid hands out its
    # Fractions one at a time.
    grid_den = 0
    if at_length is not None and isinstance(samples, DyadicGrid) and len(samples) <= samples.denominator:
        grid_den = samples.denominator
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
    for q in range(len(samples)) if grid_den else samples:
        if grid_den:
            low = q & -q or grid_den  # index 0 is 0/1
            k, h, q = q // low, grid_den // low, None
        else:
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
        violations.append(Violation(Fraction(k, h) if q is None else q, reason, phi, bound))
    if not isinstance(samples, DyadicGrid):  # a grid is ascending already
        violations.sort(key=lambda v: v.sample)
    return ViolationReport(
        witness=witness.name,
        samples_checked=checked,
        skipped=skipped,
        violations=violations,
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
