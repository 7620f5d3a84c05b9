"""Named constructors behind the command line and the gallery config.

``build_real`` is the one map from a kind of real to its constructor.  A
gallery entry names the kind and its parameters; a real spec string names a
spec kind and gives that kind's parameters by position:

real spec                        gallery kind  parameters
geometric:LIMIT[:RATIO[:GAP0]]   geometric     limit, ratio?, gap0?
set:evens|odds|naturals          set_real      set
omega:FILE.json                  omega_toy     machine (the file's JSON), stages?
(gallery only)                   staircase     limit, gaps, tail_ratio?

The other spec strings (exact rationals only, "num/den" form):

witnesses    identity | scaling:R:forward|backward | least
speed-ups    identity | linear:K
translations identity | affine:S   (contraction toward the real's limit)

Each spec kind checks its field count: a missing or an extra field is a
ConfigError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import ConfigError
from .hyperimmunity import builtin_set
from .machines import PrefixMachine, machine_from_dict
from .reals import (
    DeskReal,
    alternating_gaps,
    geometric,
    omega_toy,
    periodic_limit,
    schedule_from_list,
    set_real,
    staircase,
)
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


@dataclass(frozen=True)
class GalleryEntry:
    """One configured real: name, kind, and kind-specific parameters."""

    name: str
    kind: str
    parameters: dict = field(default_factory=dict)


# Membership patterns with exact rational limits (infinite, periodic digits).
_PERIODIC_SETS = {
    "evens": ("", "10"),
    "odds": ("", "01"),
    "naturals": ("", "1"),
}

# Gallery kind -> the parameter names it reads; any other name is a ConfigError.
_PARAMETERS = {
    "geometric": ("limit", "ratio", "gap0"),
    "set_real": ("set",),
    "staircase": ("limit", "gaps", "tail_ratio"),
    "omega_toy": ("machine", "stages"),
}

# Real spec kind -> (gallery kind, its parameters in spec order, how many are required).
_REAL_SPECS = {
    "geometric": ("geometric", ("limit", "ratio", "gap0"), 1),
    "set": ("set_real", ("set",), 1),
    "omega": ("omega_toy", ("machine",), 1),
}
_REAL_ARITY = {kind: (required, len(names)) for kind, (_, names, required) in _REAL_SPECS.items()}


def build_real(kind: str, parameters: dict, name: str) -> DeskReal:
    """The real of one gallery kind; gallery entries and real specs both land here."""
    if kind not in _PARAMETERS:
        raise ConfigError(f"unknown gallery kind {kind!r}")
    params = dict(parameters)
    unknown = sorted(set(params).difference(_PARAMETERS[kind]))
    if unknown:
        raise ConfigError(
            f"{kind} has no parameter {', '.join(map(repr, unknown))}; "
            f"it takes {', '.join(_PARAMETERS[kind])}"
        )
    if kind == "geometric":
        optional = {key: parse_rational(params[key]) for key in ("ratio", "gap0") if key in params}
        return geometric(parse_rational(params["limit"]), name=name, **optional)
    if kind == "set_real":
        set_kind = params.get("set", "evens")
        if isinstance(set_kind, dict):
            set_kind = set_kind.get("kind")
        if set_kind not in _PERIODIC_SETS:
            raise ConfigError(
                f"set_real supports the infinite periodic sets {sorted(_PERIODIC_SETS)}; "
                f"got {set_kind!r} (aperiodic sets have irrational limits, finite sets "
                f"attain theirs)"
            )
        prefix, period = _PERIODIC_SETS[set_kind]
        return set_real(builtin_set(set_kind).contains, periodic_limit(prefix, period), name=name)
    if kind == "staircase":
        gaps = schedule_from_list(
            [parse_rational(g) for g in params["gaps"]],
            parse_rational(params.get("tail_ratio", "1/2")),
        )
        return staircase(parse_rational(params["limit"]), gaps, name=name)
    stages = params.get("stages", {})  # omega_toy
    if not isinstance(stages, dict):
        raise ConfigError(f"omega_toy stages must be an object of code -> stage, got {stages!r}")
    return omega_toy(machine_from_dict(params["machine"]), stages or None, name=name)


def build_gallery(entries: Sequence[GalleryEntry]) -> list[DeskReal]:
    """Build every entry, reporting the failing entry index on bad config."""
    reals = []
    for i, entry in enumerate(entries):
        try:
            reals.append(build_real(entry.kind, entry.parameters, entry.name))
        except (ConfigError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"gallery entry {i} ({entry.name!r}): {e}") from e
    return reals


def gallery_from_config(config) -> list[DeskReal]:
    """Parse a JSON-shaped gallery document: a list of {name, kind, parameters}."""
    if not isinstance(config, list):
        raise ConfigError("gallery config must be a list of entries")
    entries = []
    for i, raw in enumerate(config):
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError(f"gallery entry {i}: need an object with a kind")
        entries.append(
            GalleryEntry(
                name=str(raw.get("name", f"entry{i}")),
                kind=str(raw["kind"]),
                parameters=raw.get("parameters", {}),
            )
        )
    return build_gallery(entries)


def default_gallery() -> list[DeskReal]:
    """One real of each kind, used by tests and as the CLI default."""
    three_code = PrefixMachine(
        name="three-code", table={"0": "1", "10": "10", "11": "101"}
    )
    return [
        geometric(Fraction(1), name="geometric1"),
        build_real("set_real", {"set": "evens"}, "evens_real"),
        staircase(Fraction(1), alternating_gaps, name="staircase_alt"),
        omega_toy(three_code, {"0": 1, "10": 2, "11": 3}, name="omega3"),
    ]


def _fields(spec: str, what: str, arity: dict[str, tuple[int, int]]) -> tuple[str, list[str]]:
    """Split KIND[:FIELD...] and check the field count against arity[KIND] = (least, most)."""
    kind, _, rest = spec.partition(":")
    fields = rest.split(":") if rest else []
    if kind not in arity:
        raise ConfigError(f"unknown {what} spec {spec!r}")
    least, most = arity[kind]
    if not least <= len(fields) <= most:
        count = str(least) if least == most else f"{least} to {most}"
        raise ConfigError(f"{what} spec {spec!r}: {kind} takes {count} field(s), got {len(fields)}")
    return kind, fields


def parse_real(spec: str) -> DeskReal:
    kind, fields = _fields(spec, "real", _REAL_ARITY)
    gallery_kind, names, _ = _REAL_SPECS[kind]
    parameters = dict(zip(names, fields))
    if kind == "omega":
        with open(parameters["machine"]) as fh:
            parameters["machine"] = json.load(fh)
    return build_real(gallery_kind, parameters, spec)


def parse_witness(spec: str, constant: Fraction, alpha: DeskReal) -> TranslationWitness:
    kind, fields = _fields(spec, "witness", {"identity": (0, 0), "scaling": (2, 2), "least": (0, 0)})
    if kind == "identity":
        return identity_witness(constant)
    if kind == "scaling":
        return scaling_witness(parse_rational(fields[0]), fields[1])
    if alpha is None:
        raise ConfigError("the least witness needs an --alpha real to truncate")
    return computable_least_witness(alpha)


def parse_speedup(spec: str) -> SpeedUp:
    kind, fields = _fields(spec, "speed-up", {"identity": (0, 0), "linear": (1, 1)})
    if kind == "identity":
        return identity_speedup()
    try:
        factor = int(fields[0])
    except ValueError:
        raise ConfigError(f"linear speed-up needs an integer factor, got {fields[0]!r}")
    return linear_speedup(factor)


def parse_translation(spec: str, real: DeskReal) -> TranslationMap:
    kind, fields = _fields(spec, "translation", {"identity": (0, 0), "affine": (1, 1)})
    if kind == "identity":
        return identity_translation()
    return affine_toward(real.limit, parse_rational(fields[0]))
