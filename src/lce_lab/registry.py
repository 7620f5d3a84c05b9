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

from fractions import Fraction

from .errors import ConfigError, LabError
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
from .util import parse_int, parse_rational, read_json


# Membership patterns with exact rational limits (infinite, periodic digits).
_PERIODIC_SETS = {
    "evens": ("", "10"),
    "odds": ("", "01"),
    "naturals": ("", "1"),
}

# Gallery kind -> (the parameter names it reads, how many of the first ones
# it needs); any other name is a ConfigError, and so is a missing needed one.
# set_real names its own missing set.
_PARAMETERS = {
    "geometric": (("limit", "ratio", "gap0"), 1),
    "set_real": (("set",), 0),
    "staircase": (("limit", "gaps", "tail_ratio"), 2),
    "omega_toy": (("machine", "stages"), 1),
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
    names, required = _PARAMETERS[kind]
    unknown = sorted(set(params).difference(names))
    if unknown:
        raise ConfigError(
            f"{kind} has no parameter {', '.join(map(repr, unknown))}; "
            f"it takes {', '.join(names)}"
        )
    for key in names[:required]:
        if key not in params:
            raise ConfigError(f"{kind} needs parameter {key!r}")
    if kind == "geometric":
        optional = {key: parse_rational(params[key]) for key in ("ratio", "gap0") if key in params}
        return geometric(parse_rational(params["limit"]), name=name, **optional)
    if kind == "set_real":
        set_kind = params.get("set")
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
        gaps = params["gaps"]
        if not isinstance(gaps, list):
            raise ConfigError(f"staircase gaps must be a list of rationals, got {gaps!r}")
        gaps = schedule_from_list(
            [parse_rational(g) for g in gaps],
            parse_rational(params.get("tail_ratio", "1/2")),
        )
        return staircase(parse_rational(params["limit"]), gaps, name=name)
    stages = params.get("stages", {})  # omega_toy
    if not isinstance(stages, dict):
        raise ConfigError(f"omega_toy stages must be an object of code -> stage, got {stages!r}")
    return omega_toy(machine_from_dict(params["machine"]), stages or None, name=name)


def gallery_from_config(config) -> list[DeskReal]:
    """Parse a JSON-shaped gallery document: a list of {name, kind, parameters}.

    Every entry's shape is checked before any real is built; a failing build
    names the entry's index."""
    if not isinstance(config, list):
        raise ConfigError("gallery config must be a list of entries")
    names = []
    for i, raw in enumerate(config):
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError(f"gallery entry {i}: need an object with a kind")
        names.append(raw.get("name", f"entry{i}"))
        if not isinstance(names[i], str):
            raise ConfigError(f"gallery entry {i}: name must be a string, got {names[i]!r}")
        parameters = raw.get("parameters", {})
        if not isinstance(parameters, dict):
            raise ConfigError(f"gallery entry {i} ({names[i]!r}): parameters must be an object, got {parameters!r}")
    reals = []
    for i, (raw, name) in enumerate(zip(config, names)):
        try:
            reals.append(build_real(str(raw["kind"]), raw.get("parameters", {}), name))
        except (LabError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"gallery entry {i} ({name!r}): {e}") from e
    return reals


def default_gallery() -> list[DeskReal]:
    """One real of each kind, for tests and scripts; the CLI builds galleries only from ``--config``."""
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
        parameters["machine"] = read_json(parameters["machine"])
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
        factor = parse_int(fields[0])
    except ConfigError:
        raise ConfigError(f"linear speed-up needs an integer factor, got {fields[0]!r}")
    return linear_speedup(factor)


def parse_translation(spec: str, real: DeskReal) -> TranslationMap:
    kind, fields = _fields(spec, "translation", {"identity": (0, 0), "affine": (1, 1)})
    if kind == "identity":
        return identity_translation()
    return affine_toward(real.limit, parse_rational(fields[0]))
