"""Scenario configuration, seeded experiment runner, metrics, file emission.

Scenario files are JSON (UTF-8); geometry artifacts are RFC 7946 GeoJSON with
(lon, lat) coordinate order; metrics are CSV with a header row, '.' decimals
and comma delimiters. Everything downstream of a (scenario, seed) pair is
deterministic, including serialized bytes.

Scenario JSON schema::

    {
      "name": "grindr-hidden",
      "seed": 7,
      "policy": {"mode": "hidden_respects_flag", "drop_probability": 0.0,
                 "pattern": null},
      "victim": {"lat": 35.0235, "lon": 135.7769, "show_distance": false},
      "background": {"count": 50, "center": {"lat": ..., "lon": ...}, "radius_m": 1500.0}
                    -- or -- {"users": [{"id": "bg-000", "lat": ..., "lon": ...,
                                         "show_distance": true}, ...]},
      "attack": {"kind": "colluding", "epsilon_m": 20.0, "cell_size_m": 5.0,
                 "vantage_points": [{"lat": ..., "lon": ...}, x3] | null,
                 "max_moves": 80, "max_queries": 40,
                 "locations": 3000, "queries_per_location": 30,
                 "max_distance_m": 3000.0},
      "max_entries": null
    }

The dataclasses below spell the file: ``jsonio.from_json(Scenario, doc)`` reads
it and `scenario_to_json` writes it. Loading is strict: an unknown key, a
missing required key or a value of the wrong JSON type (a boolean for a number,
a string for an integer) raises ValueError naming the key path, e.g.
``$.attack: unknown key 'epsilon'``. A key whose dataclass field has a default
(every `attack` key but `kind`, say) may be left out and takes that default.
An `infer_pattern` scenario's policy must state the pattern it samples, and
a `trilateration` attack's explicit vantages must span a triangle of more
than 1 m^2 in the plane it solves in. A scenario's artifacts are named after
it, so `name` must be a plain file name, with no ``/`` or ``\\``.

`build_world` makes a scenario's world for one seed, and `locate`, the one
place an `AttackSpec` becomes a driver call, runs its attack on that world.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .attack import (
    AttackReport,
    ColludingOptions,
    EmptyRegion,
    NonConvergence,
    VictimNeverVisible,
    check_anchor_triangle,
    colluding_trilateration,
    default_vantage_points,
    exact_trilateration_attack,
    passive_sandwich_survey,
)
from .geodesy import MAX_ORIGIN_LAT_DEG, GeoPoint, LocalPoint, Projection, geo_centroid, haversine_distance, project, unproject
from .jsonio import to_json
from .lbs_sim import DisclosurePolicy, World, check_max_entries
from .obfuscation import InsufficientSamples, ObfuscationPattern, ObfuscationSample, infer_pattern, obfuscate_distances

log = logging.getLogger(__name__)

VICTIM_ID = "victim"
_OBSERVER = ("attacker",)
_COLLUDERS = ("attacker", "colluder-a", "colluder-b")
_RESERVED_IDS = frozenset((VICTIM_ID, *_COLLUDERS))  # accounts build_world adds itself


# locator attack kind -> the attacker-controlled account ids build_world adds
_LOCATORS = {
    "trilateration": _OBSERVER,
    "passive_sandwich": _OBSERVER,
    "colluding": _COLLUDERS,
    "colluding_favorites": _COLLUDERS,
}
ATTACK_KINDS = (*_LOCATORS, "infer_pattern")

_BACKGROUND_SALT = 0x6267656E  # decorrelates user placement from the world's own streams


class _Located:
    """A (lat, lon) record as the scenario file spells it, checked as a GeoPoint."""

    def __post_init__(self):
        GeoPoint(self.lat, self.lon)  # raises ValueError on a bad coordinate

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


@dataclass(frozen=True)
class VictimSpec(_Located):
    lat: float
    lon: float
    show_distance: bool


@dataclass(frozen=True)
class BackgroundUser(_Located):
    id: str
    lat: float
    lon: float
    show_distance: bool


@dataclass(frozen=True)
class BackgroundSpec:
    """Either an explicit user list or a uniform-disc generator."""

    users: tuple[BackgroundUser, ...] | None = None
    count: int = 0
    center: GeoPoint | None = None
    radius_m: float = 0.0

    def __post_init__(self):
        if self.users is not None:
            if (self.count, self.center, self.radius_m) != (0, None, 0.0):
                raise ValueError("users cannot be given together with count, center or radius_m")
            seen = set()
            for i, u in enumerate(self.users):
                if u.id in _RESERVED_IDS:
                    raise ValueError(f"users[{i}]: id {u.id!r} is reserved")
                if u.id in seen:
                    raise ValueError(f"users[{i}]: id {u.id!r} is already taken by an earlier user")
                seen.add(u.id)
        elif self.center is None or not (math.isfinite(self.radius_m) and self.radius_m > 0.0) or self.count < 0:
            raise ValueError("generator background needs center, finite radius_m > 0, count >= 0")
        elif abs(self.center.lat) > MAX_ORIGIN_LAT_DEG:
            # build_world generates the users on a plane centred there
            raise ValueError(f"generator background center latitude must be within +-{MAX_ORIGIN_LAT_DEG}, got {self.center.lat}")


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    epsilon_m: float = ColludingOptions.epsilon
    cell_size_m: float = ColludingOptions.cell_size
    vantage_points: tuple[GeoPoint, ...] | None = None
    max_moves: int = ColludingOptions.max_moves
    max_queries: int = ColludingOptions.max_queries
    # pattern-inference runs only
    locations: int = 3000
    queries_per_location: int = 30
    max_distance_m: float = 3000.0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; expected one of {ATTACK_KINDS}")
        for name in ("epsilon_m", "cell_size_m", "max_distance_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("max_moves", "max_queries", "locations", "queries_per_location"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.vantage_points is not None and len(self.vantage_points) != 3:
            raise ValueError("vantage_points must hold exactly 3 points")
        if self.kind == "trilateration" and self.vantage_points is not None:
            # the plane exact_trilateration_attack solves in
            proj = Projection.at(geo_centroid(self.vantage_points))
            check_anchor_triangle([(q.x, q.y) for q in (project(v, proj) for v in self.vantage_points)])


@dataclass(frozen=True)
class Scenario:
    name: str
    policy: DisclosurePolicy
    seed: int
    victim: VictimSpec
    background: BackgroundSpec
    attack: AttackSpec
    max_entries: int | None = None

    def __post_init__(self):
        if "/" in self.name or "\\" in self.name:  # artifacts are written under out_dir by this name
            raise ValueError(f"name must be a plain file name, got {self.name!r}")
        check_max_entries(self.max_entries)
        if self.attack.kind == "infer_pattern" and self.policy.pattern is None:
            raise ValueError("an infer_pattern attack samples the policy's pattern, and this policy has none")


@dataclass(frozen=True)
class MetricsRow:
    scenario: str
    seed: int
    outcome: str
    localization_error: float | None
    region_area: float | None
    moves: int | None
    queries: int
    victim_profile_queries: int


@dataclass(frozen=True)
class SuiteSummary:
    scenario: str
    runs: int
    success_rate: float
    median_error: float | None


# -- world construction -------------------------------------------------------


def build_world(scenario: Scenario, seed: int) -> tuple[World, tuple[str, ...], tuple[GeoPoint, ...]]:
    """Instantiate the scenario's world for one seed.

    Returns the world, which has served no query yet, the attacker-controlled
    account ids, and the effective vantage points (explicit ones, or the
    default triangle scaled to the victim-plus-background population).
    """
    world = World(scenario.policy, seed, scenario.max_entries)
    world.add_user(VICTIM_ID, scenario.victim.point, scenario.victim.show_distance)
    bg = scenario.background
    if bg.users is not None:
        for u in bg.users:
            world.add_user(u.id, u.point, u.show_distance)
    else:
        rng = random.Random(seed ^ _BACKGROUND_SALT)
        proj = Projection.at(bg.center)
        for i in range(bg.count):
            theta = 2.0 * math.pi * rng.random()
            r = bg.radius_m * math.sqrt(rng.random())
            point = unproject(LocalPoint(r * math.cos(theta), r * math.sin(theta)), proj)
            world.add_user(f"bg-{i:03d}", point, True)
    if scenario.attack.vantage_points is not None:
        vantages = tuple(scenario.attack.vantage_points)
    else:
        population = [u.location for _, u in sorted(world.users.items())]
        vantages = default_vantage_points(population)
    ids = _LOCATORS.get(scenario.attack.kind, _OBSERVER)  # infer_pattern moves no account
    for uid in ids:
        world.add_user(uid, vantages[0], True)
    return world, ids, vantages


# -- scatter sampling ----------------------------------------------------------


def emit_scatter(
    pattern: ObfuscationPattern,
    n_locations: int,
    queries_per_location: int,
    max_distance: float,
    seed: int,
) -> list[ObfuscationSample]:
    """Sample the obfuscation at uniform-random true distances in (0, max]."""
    if n_locations < 1 or queries_per_location < 1:
        raise ValueError("need at least one location and one query per location")
    if not (math.isfinite(max_distance) and max_distance > 0.0):
        raise ValueError(f"max_distance must be finite and positive, got {max_distance}")
    rng = random.Random(seed)
    samples = []
    for _ in range(n_locations):
        d = max_distance * (1.0 - rng.random())
        samples += [ObfuscationSample(d, s) for s in obfuscate_distances([d] * queries_per_location, pattern, rng)]
    return samples


def save_samples_csv(samples: Sequence[ObfuscationSample], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_m", "shown_m"])
        for s in samples:
            writer.writerow([repr(s.true_distance), repr(s.shown_distance)])


def load_samples_csv(path: Path) -> list[ObfuscationSample]:
    """The samples of a CSV with true_m and shown_m columns; raises ValueError
    naming a missing column, and for a missing or non-numeric value."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = [c for c in ("true_m", "shown_m") if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: no {' or '.join(missing)} column; a samples CSV has true_m,shown_m columns")
        return [ObfuscationSample(float(row["true_m"]), float(row["shown_m"])) for row in reader]


# -- runner ---------------------------------------------------------------------


def locate(world: World, ids: Sequence[str], vantages: Sequence[GeoPoint], attack: AttackSpec) -> AttackReport:
    """Run the spec's driver on a world, account ids and vantages from
    build_world; raises the driver's declared attack errors, and ValueError
    for infer_pattern, which locates no one."""
    if attack.kind == "trilateration":
        return exact_trilateration_attack(world, ids, vantages, VICTIM_ID)
    if attack.kind == "passive_sandwich":
        return passive_sandwich_survey(world, ids, vantages, VICTIM_ID, attack.cell_size_m)
    if attack.kind == "infer_pattern":
        raise ValueError("infer_pattern locates no one; run_scenario runs it")
    opts = ColludingOptions(
        epsilon=attack.epsilon_m,
        cell_size=attack.cell_size_m,
        use_favorites=attack.kind == "colluding_favorites",
        max_moves=attack.max_moves,
        max_queries=attack.max_queries,
    )
    return colluding_trilateration(world, ids, vantages, VICTIM_ID, opts)


def run_scenario(scenario: Scenario, out_dir: Path | None = None, seed: int | None = None) -> MetricsRow:
    """Run one seeded attack experiment; never raises on declared attack errors.

    When out_dir is given, writes `<name>-<seed>.geojson` for locator attacks
    (victim truth, vantage points, colluder trajectories, region, estimate),
    or the scatter CSV plus inferred-pattern JSON for inference runs.
    """
    seed = scenario.seed if seed is None else seed
    if scenario.attack.kind == "infer_pattern":
        return _run_inference(scenario, seed, out_dir)

    world, ids, vantages = build_world(scenario, seed)
    outcome = "success"
    report: AttackReport | None = None
    try:
        report = locate(world, ids, vantages, scenario.attack)
    except VictimNeverVisible:
        outcome = "victim_never_visible"
    except NonConvergence:
        outcome = "non_convergence"
    except EmptyRegion:
        outcome = "empty_region"

    # the run's counts are the world's; a run that raised still writes no
    # moves, as perfbench/reference.json pins (ROADMAP item 4)
    moves = sum(world.moves[uid] for uid in ids)
    queries = sum(world.queries[uid] for uid in ids)
    row = MetricsRow(
        scenario=scenario.name,
        seed=seed,
        outcome=outcome,
        localization_error=haversine_distance(report.estimate, scenario.victim.point) if report else None,
        region_area=report.region_area if report else None,
        moves=moves if report else None,
        queries=queries,
        victim_profile_queries=world.profile_views[VICTIM_ID],
    )
    log.info("%s seed=%d outcome=%s error=%s queries=%d", scenario.name, seed, outcome, row.localization_error, queries)
    if out_dir is not None:
        doc = scenario_geojson(scenario, vantages, report, row)
        _write_json(Path(out_dir) / f"{scenario.name}-{seed}.geojson", doc)
    return row


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _run_inference(scenario: Scenario, seed: int, out_dir: Path | None) -> MetricsRow:
    a = scenario.attack
    pattern = scenario.policy.pattern
    samples = emit_scatter(pattern, a.locations, a.queries_per_location, a.max_distance_m, seed)
    try:
        inferred = infer_pattern(samples)
    except InsufficientSamples:
        inferred = None
    try:
        success = inferred is not None and inferred.as_pattern() == pattern
    except ValueError:
        # an ambiguous field, or exact fields that make no valid pattern (a
        # sub-meter floor is read as 0 m)
        success = False
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_samples_csv(samples, out_dir / f"{scenario.name}-{seed}-scatter.csv")
        if inferred is not None:
            _write_json(out_dir / f"{scenario.name}-{seed}-inferred.json", to_json(inferred))
    return MetricsRow(
        scenario=scenario.name,
        seed=seed,
        outcome="success" if success else "non_convergence",
        localization_error=0.0 if success else None,
        region_area=None,
        moves=a.locations,
        queries=len(samples),
        victim_profile_queries=0,
    )


def run_suite(
    scenarios: Sequence[Scenario],
    repetitions: int,
    out_dir: Path | None = None,
) -> tuple[list[MetricsRow], list[SuiteSummary]]:
    """Run every scenario `repetitions` times with derived seeds seed+i.

    Returns result rows (sorted by scenario then seed) and per-scenario
    summaries; writes metrics.csv when out_dir is given.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rows: list[MetricsRow] = []
    for sc in scenarios:
        for i in range(repetitions):
            rows.append(run_scenario(sc, out_dir=out_dir, seed=sc.seed + i))
    rows.sort(key=lambda r: (r.scenario, r.seed))
    summaries = summarize(rows)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_suite_csv(out_dir / "metrics.csv", rows, summaries)
    return rows, summaries


def summarize(rows: Sequence[MetricsRow]) -> list[SuiteSummary]:
    """Per-scenario run count, success rate and median error of the successes, by scenario name."""
    summaries = []
    for name in sorted({r.scenario for r in rows}):
        mine = [r for r in rows if r.scenario == name]
        errors = [r.localization_error for r in mine if r.outcome == "success"]
        summaries.append(
            SuiteSummary(
                scenario=name,
                runs=len(mine),
                success_rate=len(errors) / len(mine),
                median_error=statistics.median(errors) if errors else None,
            )
        )
    return summaries


# each metric's result column and the MetricsRow field it holds
_METRICS = (
    ("localization_error_m", "localization_error"),
    ("region_area_m2", "region_area"),
    ("moves", "moves"),
    ("queries", "queries"),
    ("victim_profile_queries", "victim_profile_queries"),
)
_CSV_COLUMNS = ["row_type", "scenario", "seed", "outcome", *(c for c, _ in _METRICS), "median_error_m", "success_rate"]


def write_suite_csv(path: Path, rows: Sequence[MetricsRow], summaries: Sequence[SuiteSummary]) -> None:
    # csv writes None as "" and a float as its repr
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(
            ["result", r.scenario, r.seed, r.outcome, *(getattr(r, f) for _, f in _METRICS), "", ""] for r in rows
        )
        writer.writerows(["summary", s.scenario, *[""] * 7, s.median_error, s.success_rate] for s in summaries)


# -- GeoJSON ---------------------------------------------------------------------


def _feature(geometry: str, coordinates: list, **properties) -> dict:
    return {"type": "Feature", "geometry": {"type": geometry, "coordinates": coordinates}, "properties": properties}


def scenario_geojson(
    scenario: Scenario,
    vantages: Sequence[GeoPoint],
    report: AttackReport | None,
    row: MetricsRow,
) -> dict:
    """The run's FeatureCollection; its metrics block is the run's MetricsRow."""
    features = [_feature("Point", [scenario.victim.lon, scenario.victim.lat], role="victim")]
    features += [_feature("Point", [v.lon, v.lat], role="vantage", index=i) for i, v in enumerate(vantages)]
    metrics: dict = {"outcome": row.outcome}
    if report is not None:
        region = report.region
        if region is not None:
            rings = [[ring] for ring in region.cell_rings()]
            features.append(
                _feature("MultiPolygon", rings, role="region", cell_size_m=region.cell_size, area_m2=row.region_area)
            )
        features += [
            _feature("LineString", [[p.lon, p.lat] for p in path], role="trajectory", user=uid)
            for uid, path in sorted(report.trajectories.items())
            if len(path) >= 2
        ]
        features.append(_feature("Point", [report.estimate.lon, report.estimate.lat], role="estimate"))
        metrics.update((c, getattr(row, f)) for c, f in _METRICS)
    return {
        "type": "FeatureCollection",
        "features": features,
        "scenario": row.scenario,
        "seed": row.seed,
        "metrics": metrics,
    }


# -- scenario (de)serialization ----------------------------------------------------


def scenario_to_json(s: Scenario) -> dict:
    """The scenario file's document; its background keeps only the user list or the generator keys."""
    doc = to_json(s)
    users = doc["background"].pop("users")
    if users is not None:
        doc["background"] = {"users": users}
    return doc
