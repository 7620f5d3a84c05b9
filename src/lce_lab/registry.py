"""Named constructors behind the command-line surface.

Spec strings (exact rationals only, "num/den" form):

reals        geometric:LIMIT[:RATIO[:GAP0]] | set:evens|odds|naturals | omega:FILE.json
witnesses    identity | scaling:R:forward|backward | least
speed-ups    identity | linear:K
translations identity | affine:S   (contraction toward the real's limit)
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigError
from .hyperimmunity import builtin_set
from .machines import machine_from_dict
from .reals import _PERIODIC_SETS, DeskReal, geometric, omega_toy, periodic_limit, set_real
from .reducibility import (
    TranslationWitness,
    computable_least_witness,
    identity_witness,
    scaling_witness,
)
from .speedability import (
    SpeedUp,
    TranslationMap,
    affine_toward,
    identity_speedup,
    identity_translation,
    linear_speedup,
)
from .util import parse_rational


def parse_real(spec: str) -> DeskReal:
    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    if kind == "geometric":
        if not parts:
            raise ConfigError("geometric real needs a limit, e.g. geometric:1")
        limit = parse_rational(parts[0])
        ratio = parse_rational(parts[1]) if len(parts) > 1 else Fraction(1, 2)
        gap0 = parse_rational(parts[2]) if len(parts) > 2 else None
        return geometric(limit, ratio, gap0, name=spec)
    if kind == "set":
        if len(parts) != 1 or parts[0] not in _PERIODIC_SETS:
            raise ConfigError(f"set real needs one of {sorted(_PERIODIC_SETS)}, got {rest!r}")
        prefix, period = _PERIODIC_SETS[parts[0]]
        return set_real(builtin_set(parts[0]).contains, periodic_limit(prefix, period), name=spec)
    if kind == "omega":
        if len(parts) != 1:
            raise ConfigError("omega real needs a machine file, e.g. omega:M.json")
        import json

        with open(parts[0]) as fh:
            machine = machine_from_dict(json.load(fh))
        return omega_toy(machine, name=spec)
    raise ConfigError(f"unknown real spec {spec!r}")


def parse_witness(spec: str, constant: Fraction, alpha: DeskReal) -> TranslationWitness:
    kind, _, rest = spec.partition(":")
    if kind == "identity":
        return identity_witness(constant)
    if kind == "scaling":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ConfigError("scaling witness spec is scaling:R:forward|backward")
        return scaling_witness(parse_rational(parts[0]), parts[1])
    if kind == "least":
        if alpha is None:
            raise ConfigError("the least witness needs an --alpha real to truncate")
        return computable_least_witness(alpha)
    raise ConfigError(f"unknown witness spec {spec!r}")


def parse_speedup(spec: str) -> SpeedUp:
    kind, _, rest = spec.partition(":")
    if kind == "identity":
        return identity_speedup()
    if kind == "linear":
        try:
            factor = int(rest)
        except ValueError:
            raise ConfigError(f"linear speed-up needs an integer factor, got {rest!r}")
        return linear_speedup(factor)
    raise ConfigError(f"unknown speed-up spec {spec!r}")


def parse_translation(spec: str, real: DeskReal) -> TranslationMap:
    kind, _, rest = spec.partition(":")
    if kind == "identity":
        return identity_translation()
    if kind == "affine":
        return affine_toward(real.limit, parse_rational(rest))
    raise ConfigError(f"unknown translation spec {spec!r}")
