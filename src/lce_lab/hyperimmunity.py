"""Principal and gap functions of infinite sets, majorizer conversions in both
directions, and the witness constructions tying non-hyperimmunity to total
reducibility of bit-reals.

For an infinite set A the principal function lists the members in order
(p(0) < p(1) < ...) and the gap function k(n) is the least member at or above
n.  Majorizing one of them computably converts into majorizing the other:

* from a gap majorizer g, iterate g; feeding each iterate's successor back in
  (see ``iterated_principal_bound``) is what makes the induction go through,
  because k has fixed points on members and a bare iterate can stall there
  (g(m) = 2m stalls forever at 0 on any set containing 0);
* from a principal majorizer g, the shift n -> g(n+1) majorizes the gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Optional, Sequence

from .dyadic import lengths_in_grid_order, real_from_set
from .dyadic import truncate  # noqa: F401  module attribute that perfbench/tracer.py wraps
from .errors import ConfigError, PreconditionError, WitnessDegenerateError
from .reals import DeskReal
from .reducibility import MAX_ENUMERATION_BITS, TranslationWitness, per_length_witness
from .util import ceil_log2

_ONE = Fraction(1)


@dataclass(frozen=True)
class NaturalSet:
    """An infinite set of naturals: membership plus an infinitude certificate.

    ``member_at_or_above(n)`` must return some member >= n; it bounds the
    scans that make the principal and gap functions total at desk scale.
    """

    name: str
    contains: Callable[[int], bool]
    member_at_or_above: Callable[[int], int]


def evens() -> NaturalSet:
    return NaturalSet("evens", lambda n: n % 2 == 0, lambda n: n if n % 2 == 0 else n + 1)


def odds() -> NaturalSet:
    return NaturalSet("odds", lambda n: n % 2 == 1, lambda n: n if n % 2 == 1 else n + 1)


def naturals() -> NaturalSet:
    return NaturalSet("naturals", lambda n: True, lambda n: n)


def squares() -> NaturalSet:
    def cert(n: int) -> int:
        r = isqrt(n)
        return n if r * r == n else (r + 1) ** 2

    return NaturalSet("squares", lambda n: isqrt(n) ** 2 == n, cert)


def powers_of_two() -> NaturalSet:
    def member(n: int) -> bool:
        return n > 0 and n & (n - 1) == 0

    def cert(n: int) -> int:
        return 1 if n <= 1 else 1 << (n - 1).bit_length()

    return NaturalSet("powers", member, cert)


def explicit_set(elements: Sequence[int], name: str = "explicit") -> NaturalSet:
    """Listed elements plus every natural beyond the largest one.

    The cofinite tail keeps the set infinite (the certificate must be total);
    queries inside the listed range see exactly the given elements.
    """
    members = sorted(set(int(e) for e in elements))
    if not members or members[0] < 0:
        raise ConfigError(f"explicit set needs nonnegative elements, got {elements!r}")
    member_set = set(members)
    top = members[-1]

    def contains(n: int) -> bool:
        return n in member_set or n > top

    def cert(n: int) -> int:
        if n > top:
            return n
        for m in members:
            if m >= n:
                return m
        return top + 1

    return NaturalSet(name, contains, cert)


_BUILTINS = {
    "evens": evens,
    "odds": odds,
    "naturals": naturals,
    "squares": squares,
    "powers": powers_of_two,
}


def builtin_set(kind: str) -> NaturalSet:
    try:
        return _BUILTINS[kind]()
    except KeyError:
        raise ConfigError(f"unknown set kind {kind!r}; know {sorted(_BUILTINS)} and explicit")


def set_from_config(spec: dict) -> NaturalSet:
    """{"kind": "evens" | "squares" | "powers" | "explicit" | ..., "elements"?: [...]}"""
    kind = spec.get("kind")
    if kind == "explicit":
        return explicit_set(spec.get("elements", []), name=spec.get("name", "explicit"))
    return builtin_set(kind)


def _next_member(a: NaturalSet, start: int) -> int:
    """Least member >= start; the certificate bounds the scan."""
    bound = a.member_at_or_above(start)
    if bound < start or not a.contains(bound):
        raise PreconditionError(
            f"{a.name}: certificate returned {bound} for {start}, not a member at or above it"
        )
    for m in range(start, bound):
        if a.contains(m):
            return m
    return bound


def least_beyond(a: NaturalSet, n: int) -> int:
    """Gap function: the least member of the set at or above n."""
    if n < 0:
        raise PreconditionError(f"least_beyond needs n >= 0, got {n}")
    return _next_member(a, n)


def principal(a: NaturalSet, n: int) -> int:
    """The (n+1)-st smallest member."""
    if n < 0:
        raise PreconditionError(f"principal needs n >= 0, got {n}")
    m = _next_member(a, 0)
    for _ in range(n):
        m = _next_member(a, m + 1)
    return m


def majorize_p_from_k(g: Callable[[int], int], n: int) -> int:
    """n-fold iterate of g at 0, validating monotonicity on the points queried.

    This is the raw conversion gadget from a gap majorizer toward a principal
    majorizer; see ``iterated_principal_bound`` for the form whose domination
    claim actually survives fixed points.
    """
    if n < 0:
        raise PreconditionError(f"iterate count must be >= 0, got {n}")
    queried: dict[int, int] = {}
    x = 0
    for _ in range(n):
        y = queried.get(x)
        if y is None:
            y = g(x)
            if not isinstance(y, int) or y < 0:
                raise PreconditionError(f"g({x}) = {y!r} is not a natural")
            queried[x] = y
        x = y
    inputs = sorted(queried)
    for lo, hi in zip(inputs, inputs[1:]):
        if queried[lo] > queried[hi]:
            raise PreconditionError(
                f"g not nondecreasing on queried range: g({lo})={queried[lo]} > g({hi})={queried[hi]}"
            )
    return x


def majorize_k_from_p(g: Callable[[int], int], n: int) -> int:
    """Gap-function majorizer derived from a principal majorizer: g(n+1)."""
    if n < 0:
        raise PreconditionError(f"index must be >= 0, got {n}")
    y = g(n + 1)
    if not isinstance(y, int) or y < 0:
        raise PreconditionError(f"g({n + 1}) = {y!r} is not a natural")
    return y


def iterated_principal_bound(g: Callable[[int], int], n: int) -> int:
    """Bound for the (n+1)-st member from a nondecreasing gap majorizer g.

    Computes the (n+1)-fold iterate of m -> g(m+1) at 0 through the raw
    gadget.  Feeding the successor breaks the stall at members m with
    g(m) = m = least member at or above m, and one extra application covers
    the base case when 0 is not in the set; under those repairs the induction
      iterate >= p(n)  ==>  next iterate >= g(p(n)+1) >= k(p(n)+1) = p(n+1)
    closes, so the result dominates the principal function wherever g
    majorizes the gap function.
    """
    return majorize_p_from_k(lambda m: g(m + 1), n + 1)


def majorizes_gaps(g: Callable[[int], int], a: NaturalSet, through: int) -> bool:
    """Exact premise check: g(n) >= least member at or above n, for n <= through."""
    return all(g(n) >= least_beyond(a, n) for n in range(through + 1))


def majorizes_principal(g: Callable[[int], int], a: NaturalSet, through: int) -> bool:
    """Exact premise check: g(n) >= (n+1)-st member, for n <= through."""
    m = _next_member(a, 0)
    for n in range(through + 1):
        if g(n) < m:
            return False
        m = _next_member(a, m + 1)
    return True


def total_witness_from_majorizer(a: NaturalSet, g: Callable[[int], int]) -> TranslationWitness:
    """Total strict witness (constant 1) putting the bit-real of a computable
    infinite set below any bit-real whose gap function g majorizes.

    At a dyadic sample q the translation answers the first g(|q|)+1 bits of
    0.A(0)A(1)...; the extra bit keeps the miss strictly under 2**-g(|q|),
    which in turn is at most the target's distance above q whenever g
    majorizes that target's gap function.  Infinitude of the set keeps the
    answer strictly below the source real.
    """

    def at_length(length: int) -> Fraction:
        depth = g(length)
        if not isinstance(depth, int) or depth < 0:
            raise PreconditionError(f"majorizer value g({length}) = {depth!r} is not a natural")
        return real_from_set(a.contains, depth + 1)

    return per_length_witness(f"bits({a.name})/majorized", at_length, _ONE)


def k_bound_from_witness(
    witness: TranslationWitness,
    alpha: DeskReal,
    n: int,
    d: Optional[int] = None,
) -> int:
    """Computable upper bound for the target's gap function at n, extracted
    from a passing total witness by exhausting all 2**n strings of length n.

    m(n) is the least positive residual alpha - phi(0.sigma) over those
    strings; a genuine witness forces m(n) < c * 2**-(k(n)-1), so
    d + ceil(log2(1/m(n))) dominates k(n) once d covers the constant
    (default d = ceil(log2 c) + 1).

    A witness with ``at_length`` takes one value per canonical length, so
    the minimum is taken over the lengths 0..n instead of the 2**n strings.
    They are visited in ``lengths_in_grid_order``, the order ascending k
    first reaches them, so errors match the full enumeration's.  That path
    is O(n), so ``MAX_ENUMERATION_BITS`` caps only the enumeration.
    """
    if n < 0:
        raise PreconditionError(f"n must be >= 0, got {n}")
    if n > MAX_ENUMERATION_BITS and witness.at_length is None:
        raise PreconditionError(
            f"enumeration of 2**{n} strings refused (cap {MAX_ENUMERATION_BITS})"
        )
    if not witness.total:
        raise PreconditionError("k-bound extraction needs a total witness")
    if d is None:
        d = ceil_log2(witness.constant) + 1
    a = alpha.limit
    if witness.at_length is None:
        values = ((k, witness.translate(Fraction(k, 1 << n))) for k in range(1 << n))
    else:  # k = 2**(n - length) is the first sample of each length
        values = (
            ((1 << (n - length)) if length else 0, witness.at_length(length))
            for length in lengths_in_grid_order(n)
        )
    best: Optional[Fraction] = None
    for k, phi in values:
        if phi is None:
            raise PreconditionError(f"total witness undefined at {Fraction(k, 1 << n)}")
        residual = a - phi
        if residual > 0 and (best is None or residual < best):
            best = residual
    if best is None:
        raise WitnessDegenerateError(
            f"witness {witness.name} leaves no positive residual at length {n}"
        )
    return d + ceil_log2(1 / best)
