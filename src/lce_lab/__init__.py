"""Exact-rational desk laboratory for left-c.e. reals.

Monotone rational approximations with oracle limits, translation witnesses
and exact reduction checkers, hyperimmunity machinery, speed-up analysis,
and finite prefix-free machines with Kraft mass and complexity transport.
All checking arithmetic is exact; floats never appear.
"""

from .dyadic import (
    canonical_length,
    dyadic_length,
    is_binary,
    is_dyadic,
    real_from_set,
    truncate,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DegenerateApproximationError,
    DomainError,
    LabError,
    MachineFormatError,
    PreconditionError,
    PrefixFreeError,
    SearchExhaustedError,
    WitnessDegenerateError,
)
from .hyperimmunity import (
    NaturalSet,
    builtin_set,
    evens,
    explicit_set,
    iterated_principal_bound,
    k_bound_from_witness,
    least_beyond,
    majorize_k_from_p,
    majorize_p_from_k,
    majorizes_gaps,
    majorizes_principal,
    naturals,
    odds,
    powers_of_two,
    principal,
    squares,
    total_witness_from_majorizer,
)
from .machines import (
    PrefixMachine,
    UschReport,
    check_usch,
    complexity,
    machine_from_dict,
    machine_to_dict,
    measure,
    pad_width,
    uniformize,
)
from .reals import (
    DeskReal,
    approx_at,
    approximations,
    gap,
    geometric,
    omega_toy,
    periodic_limit,
    scale,
    set_real,
    staircase,
)
from .reducibility import (
    DyadicGrid,
    Schedule,
    TranslationWitness,
    ViolationReport,
    affine_witness,
    check_witness,
    compose_witnesses,
    computable_least_witness,
    default_samples,
    dyadic_grid,
    dyadic_samples,
    identity_witness,
    per_length_witness,
    scaling_witness,
)
from .registry import (
    build_real,
    default_gallery,
    gallery_from_config,
)
from .speedability import (
    RatioTrace,
    SpeedUp,
    TotalSpeedupReport,
    TranslationMap,
    affine_toward,
    amplify,
    check_total_speedup,
    identity_speedup,
    identity_translation,
    liminf_record,
    linear_speedup,
    ratio,
    speedup_from_translation,
    translation_from_speedup,
)

__all__ = [name for name in dir() if not name.startswith("_")]
