"""Deterministic proximity-service simulator with distance-disclosure policies
and a localization attack toolkit."""

from .attack import (
    AnnulusConstraint,
    AttackReport,
    CandidateRegion,
    ColludingOptions,
    CollinearAdversaries,
    EmptyRegion,
    NonConvergence,
    VictimNeverVisible,
    colluding_trilateration,
    exact_trilateration_attack,
    intersect_constraints,
    passive_sandwich_survey,
    trilaterate,
)
from .geodesy import (
    EARTH_RADIUS_M,
    GeoPoint,
    LocalPoint,
    OutOfProjectionRange,
    Projection,
    haversine_distance,
    project,
    unproject,
)
from .harness import (
    AttackSpec,
    BackgroundSpec,
    MetricsRow,
    Scenario,
    SuiteSummary,
    emit_scatter,
    run_scenario,
    run_suite,
)
from .lbs_sim import (
    Account,
    DisclosurePolicy,
    DuplicateId,
    PolicyMode,
    QueryResponse,
    ScreenEntry,
    SelfFavorite,
    SimUser,
    UnknownUser,
    World,
)
from .obfuscation import (
    HORNET_DEFAULT,
    InferredPattern,
    InsufficientSamples,
    NegativeDistance,
    ObfuscationPattern,
    ObfuscationSample,
    infer_pattern,
    invert_reading,
    obfuscate_distances,
    obfuscation_envelope,
)

__version__ = "0.1.0"
