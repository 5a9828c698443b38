"""Bundled experiment scenarios around the Kyoto demo fixture."""

from __future__ import annotations

from .fixtures import SCIENCE_FRONTIER_LAB, SURVEY_TRIANGLE
from .geodesy import GeoPoint, LocalPoint, Projection, unproject
from .harness import AttackSpec, BackgroundSpec, Scenario, VictimSpec
from .lbs_sim import DisclosurePolicy, PolicyMode
from .obfuscation import HORNET_DEFAULT


def _offset(origin: GeoPoint, east_m: float, north_m: float) -> GeoPoint:
    return unproject(LocalPoint(east_m, north_m), Projection.at(origin))


def kyoto_exact() -> Scenario:
    """Exact shown distances, profile views from the three landmarks."""
    return Scenario(
        name="kyoto-exact",
        policy=DisclosurePolicy(PolicyMode.EXACT_DISTANCE),
        seed=1,
        victim=VictimSpec(SCIENCE_FRONTIER_LAB.lat, SCIENCE_FRONTIER_LAB.lon, show_distance=True),
        background=BackgroundSpec(users=()),
        attack=AttackSpec(kind="trilateration", vantage_points=SURVEY_TRIANGLE),
    )


def grindr_hidden() -> Scenario:
    """Victim hides their distance; ordering still leaks, colluders bisect it."""
    return Scenario(
        name="grindr-hidden",
        policy=DisclosurePolicy(PolicyMode.HIDDEN_RESPECTS_FLAG),
        seed=7,
        victim=VictimSpec(SCIENCE_FRONTIER_LAB.lat, SCIENCE_FRONTIER_LAB.lon, show_distance=False),
        background=BackgroundSpec(count=50, center=SCIENCE_FRONTIER_LAB, radius_m=1500.0),
        attack=AttackSpec(kind="colluding", vantage_points=SURVEY_TRIANGLE),
    )


def sparse_remote() -> Scenario:
    """Isolated victim, population clustered 1.5 km away, vantages in between;
    the passive survey still brackets the victim with cluster members."""
    victim = SCIENCE_FRONTIER_LAB
    cluster_center = _offset(victim, 1500.0, 0.0)
    vantages = (
        _offset(victim, 650.0, 220.0),
        _offset(victim, 750.0, 0.0),
        _offset(victim, 650.0, -220.0),
    )
    return Scenario(
        name="sparse-remote",
        policy=DisclosurePolicy(PolicyMode.EXACT_DISTANCE),
        seed=11,
        victim=VictimSpec(victim.lat, victim.lon, show_distance=True),
        background=BackgroundSpec(count=50, center=cluster_center, radius_m=300.0),
        attack=AttackSpec(kind="passive_sandwich", vantage_points=vantages),
    )


def hornet_no_favorites() -> Scenario:
    """Obfuscated distances plus random dropping; colluding without the
    favorites anchor re-queries until the drop spares every user it waits
    for. Over seeds 1-40, 39 runs spend the 40-query budget and end
    non_convergence; with both budgets lifted all 40 succeed, after a median
    of 94.5 queries (max 152) and 23 moves."""
    return Scenario(
        name="hornet-no-favorites",
        policy=DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT, drop_probability=0.5),
        seed=3,
        victim=VictimSpec(SCIENCE_FRONTIER_LAB.lat, SCIENCE_FRONTIER_LAB.lon, show_distance=False),
        background=BackgroundSpec(count=50, center=SCIENCE_FRONTIER_LAB, radius_m=1500.0),
        attack=AttackSpec(kind="colluding", vantage_points=SURVEY_TRIANGLE),
    )


def hornet_favorites() -> Scenario:
    """Same world, but the victim and colluders are pinned to the favorites
    list, which is never subject to dropping."""
    return Scenario(
        name="hornet-favorites",
        policy=DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT, drop_probability=0.5),
        seed=5,
        victim=VictimSpec(SCIENCE_FRONTIER_LAB.lat, SCIENCE_FRONTIER_LAB.lon, show_distance=False),
        background=BackgroundSpec(count=50, center=SCIENCE_FRONTIER_LAB, radius_m=1500.0),
        attack=AttackSpec(kind="colluding_favorites", vantage_points=SURVEY_TRIANGLE),
    )


def hornet_scatter() -> Scenario:
    """Sample the obfuscation over 3000 positions x 30 queries and run the
    pattern inference closed loop."""
    return Scenario(
        name="hornet-scatter",
        policy=DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT),
        seed=2016,
        victim=VictimSpec(SCIENCE_FRONTIER_LAB.lat, SCIENCE_FRONTIER_LAB.lon, show_distance=True),
        background=BackgroundSpec(users=()),
        attack=AttackSpec(kind="infer_pattern"),
    )


PRESETS = {
    "kyoto-exact": kyoto_exact,
    "grindr-hidden": grindr_hidden,
    "sparse-remote": sparse_remote,
    "hornet-no-favorites": hornet_no_favorites,
    "hornet-favorites": hornet_favorites,
    "hornet-scatter": hornet_scatter,
}


def preset(name: str) -> Scenario:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return PRESETS[name]()
