import json
import random

import pytest

from geoleak.fixtures import DEMACHIYANAGI_STATION, HEIAN_SHRINE, SCIENCE_FRONTIER_LAB
from geoleak.geodesy import GeoPoint, LocalPoint, OutOfProjectionRange, Projection, haversine_distance, unproject
from geoleak.lbs_sim import (
    DisclosurePolicy,
    DuplicateId,
    PolicyMode,
    QueryKind,
    SelfFavorite,
    UnknownUser,
    World,
)
from geoleak.obfuscation import HORNET_DEFAULT, obfuscation_envelope

LAB_TO_STATION_M = 845.4599899296676

EXACT = DisclosurePolicy(PolicyMode.EXACT_DISTANCE)
HIDDEN = DisclosurePolicy(PolicyMode.HIDDEN_RESPECTS_FLAG)


def _offset(origin, east, north):
    return unproject(LocalPoint(east, north), Projection.at(origin))


def _small_world(policy=EXACT, seed=42):
    world = World(policy, seed)
    world.add_user("victim", SCIENCE_FRONTIER_LAB, True)
    world.add_user("n1", _offset(SCIENCE_FRONTIER_LAB, 120.0, 0.0), True)
    world.add_user("n2", _offset(SCIENCE_FRONTIER_LAB, 0.0, 300.0), True)
    world.add_user("obs", DEMACHIYANAGI_STATION, True)
    return world


def test_policy_validation():
    with pytest.raises(ValueError):
        DisclosurePolicy(PolicyMode.OBFUSCATED)  # pattern missing
    with pytest.raises(ValueError):
        DisclosurePolicy(PolicyMode.EXACT_DISTANCE, pattern=HORNET_DEFAULT)
    with pytest.raises(ValueError):
        DisclosurePolicy(PolicyMode.EXACT_DISTANCE, drop_probability=1.5)


def test_duplicate_and_unknown_users():
    world = World(EXACT, 1)
    world.add_user("a", SCIENCE_FRONTIER_LAB, True)
    with pytest.raises(DuplicateId):
        world.add_user("a", HEIAN_SHRINE, True)
    with pytest.raises(UnknownUser):
        world.move_user("missing", HEIAN_SHRINE)
    with pytest.raises(UnknownUser):
        world.query_nearby("missing")


def test_exact_distance_shown_matches_golden_constant():
    world = _small_world()
    resp = world.query_nearby("obs")
    entry = [e for e in resp.entries if e.user == "victim"][0]
    assert entry.shown_distance == pytest.approx(LAB_TO_STATION_M, abs=1e-5)
    assert entry.shown_distance == haversine_distance(world.users["obs"].location, world.users["victim"].location)


def test_entries_sorted_ascending_with_id_tie_break():
    world = World(EXACT, 3)
    spot = _offset(SCIENCE_FRONTIER_LAB, 50.0, 50.0)
    world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
    world.add_user("b", spot, True)
    world.add_user("a", spot, True)
    world.add_user("far", _offset(SCIENCE_FRONTIER_LAB, 400.0, 0.0), True)
    resp = world.query_nearby("obs")
    assert [e.user for e in resp.entries] == ["a", "b", "far"]
    here = world.users["obs"].location
    dists = [haversine_distance(here, world.users[e.user].location) for e in resp.entries]
    assert dists == sorted(dists)


def test_hidden_victim_still_sandwiched_in_order():
    world = World(HIDDEN, 5)
    world.add_user("victim", _offset(SCIENCE_FRONTIER_LAB, 200.0, 0.0), False)
    world.add_user("n1", _offset(SCIENCE_FRONTIER_LAB, 100.0, 0.0), True)
    world.add_user("n2", _offset(SCIENCE_FRONTIER_LAB, 300.0, 0.0), True)
    world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
    resp = world.query_nearby("obs")
    assert [e.user for e in resp.entries] == ["n1", "victim", "n2"]
    victim = resp.entries[1]
    assert victim.shown_distance is None
    assert resp.entries[0].shown_distance is not None
    assert resp.entries[2].shown_distance is not None


def test_ordering_leak_victim_index_independent_of_flag():
    # same seed, same positions, same call sequence; only the flag differs
    def run(show_distance):
        policy = DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT, drop_probability=0.3)
        world = World(policy, 2024)
        world.add_user("victim", _offset(SCIENCE_FRONTIER_LAB, 150.0, 40.0), show_distance)
        rng = random.Random(77)
        for i in range(20):
            world.add_user(f"bg-{i:02d}", _offset(SCIENCE_FRONTIER_LAB, rng.uniform(-500, 500), rng.uniform(-500, 500)), True)
        world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
        return [world.query_nearby("obs").index_of("victim") for _ in range(30)]

    assert run(True) == run(False)


def test_drop_probability_one_empties_the_screen():
    policy = DisclosurePolicy(PolicyMode.EXACT_DISTANCE, drop_probability=1.0)
    world = World(policy, 9)
    world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
    world.add_user("other", HEIAN_SHRINE, True)
    assert world.query_nearby("obs").entries == ()


@pytest.mark.parametrize("p", [0.2, 0.5])
def test_drop_rate_is_independent_per_query(p):
    policy = DisclosurePolicy(PolicyMode.EXACT_DISTANCE, drop_probability=p)
    world = World(policy, 31)
    world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
    world.add_user("u1", HEIAN_SHRINE, True)
    world.add_user("u2", DEMACHIYANAGI_STATION, True)
    n = 10_000
    present = {"u1": 0, "u2": 0}
    for _ in range(n):
        for e in world.query_nearby("obs").entries:
            present[e.user] += 1
    for uid in present:
        assert abs(present[uid] / n - (1.0 - p)) < 0.02


def test_projection_freezes_at_first_query():
    world = _small_world()
    world.query_nearby("obs")
    frozen = world.projection
    world.add_user("late", HEIAN_SHRINE, True)
    assert world.projection is frozen


def test_out_of_projection_observer_errors_but_registry_accepts():
    world = _small_world()
    world.query_nearby("obs")
    world.move_user("obs", GeoPoint(38.0, 135.77))  # ~330 km north
    with pytest.raises(OutOfProjectionRange):
        world.query_nearby("obs")


def test_moved_user_sees_what_the_other_position_sees():
    world = World(EXACT, 12)
    world.add_user("a1", DEMACHIYANAGI_STATION, True)
    world.add_user("a2", HEIAN_SHRINE, True)
    world.add_user("x", SCIENCE_FRONTIER_LAB, True)
    world.move_user("a1", HEIAN_SHRINE)
    from_a1 = [e for e in world.query_nearby("a1").entries if e.user == "x"][0]
    from_a2 = [e for e in world.query_nearby("a2").entries if e.user == "x"][0]
    assert from_a1.shown_distance == from_a2.shown_distance


def test_favorites_bypass_dropping_entirely():
    policy = DisclosurePolicy(PolicyMode.EXACT_DISTANCE, drop_probability=0.9)
    world = _small_world(policy)
    world.add_favorite("obs", "victim")
    world.add_favorite("obs", "n1")
    world.add_favorite("obs", "victim")  # idempotent
    assert world.favorites["obs"] == ["victim", "n1"]
    for _ in range(100):
        resp = world.query_favorites("obs")
        assert {e.user for e in resp.entries} == {"victim", "n1"}


def test_favorites_sorted_and_exactly_the_list():
    world = World(EXACT, 8)
    world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
    world.add_user("n1", _offset(SCIENCE_FRONTIER_LAB, 100.0, 0.0), True)
    world.add_user("v", _offset(SCIENCE_FRONTIER_LAB, 200.0, 0.0), False)
    world.add_user("n2", _offset(SCIENCE_FRONTIER_LAB, 300.0, 0.0), True)
    world.add_user("stranger", _offset(SCIENCE_FRONTIER_LAB, 150.0, 0.0), True)
    for uid in ("n2", "v", "n1"):
        world.add_favorite("obs", uid)
    resp = world.query_favorites("obs")
    assert [e.user for e in resp.entries] == ["n1", "v", "n2"]
    assert world.query_favorites("n1").entries == ()


def test_self_favorite_rejected():
    world = _small_world()
    with pytest.raises(SelfFavorite):
        world.add_favorite("obs", "obs")


def test_view_profile_is_logged_and_never_dropped():
    policy = DisclosurePolicy(PolicyMode.EXACT_DISTANCE, drop_probability=1.0)
    world = _small_world(policy)
    entry = world.view_profile("obs", "victim")
    assert entry.user == "victim"
    assert entry.shown_distance == pytest.approx(LAB_TO_STATION_M, abs=1e-5)
    record = world.query_log[-1]
    assert record.kind is QueryKind.PROFILE_VIEW
    assert record.subject == "victim"
    assert record.observer == "obs"


def test_obfuscated_profile_views_change_between_queries():
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT)
    world = World(policy, 55)
    world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
    world.add_user("v", _offset(SCIENCE_FRONTIER_LAB, 450.0, 0.0), True)
    shown = {world.view_profile("obs", "v").shown_distance for _ in range(40)}
    assert len(shown) > 1
    d = haversine_distance(SCIENCE_FRONTIER_LAB, world.users["v"].location)
    lo, hi = obfuscation_envelope(d, HORNET_DEFAULT)
    assert all(lo <= s <= hi for s in shown)


def test_obfuscated_screen_respects_envelope():
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT)
    world = _small_world(policy, seed=7)
    here = world.users["obs"].location
    for _ in range(50):
        for e in world.query_nearby("obs").entries:
            lo, hi = obfuscation_envelope(haversine_distance(here, world.users[e.user].location), HORNET_DEFAULT)
            assert lo <= e.shown_distance <= hi


def test_query_log_matches_responses_with_increasing_ticks():
    world = _small_world()
    world.query_nearby("obs")
    world.add_favorite("obs", "victim")
    world.query_favorites("obs")
    world.view_profile("obs", "n1")
    kinds = [r.kind for r in world.query_log]
    assert kinds == [QueryKind.NEARBY_SCREEN, QueryKind.FAVORITES, QueryKind.PROFILE_VIEW]
    ticks = [r.tick for r in world.query_log]
    assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)


def _serialize_run(seed):
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT, drop_probability=0.4)
    world = World(policy, seed)
    world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
    world.add_user("v", _offset(SCIENCE_FRONTIER_LAB, 222.0, -80.0), False)
    world.add_user("n", _offset(SCIENCE_FRONTIER_LAB, -350.0, 10.0), True)
    world.add_favorite("obs", "v")
    here = world.users["obs"].location

    def rows(resp):
        return [(e.user, e.shown_distance, haversine_distance(here, world.users[e.user].location)) for e in resp.entries]

    outputs = []
    for _ in range(25):
        outputs.append(rows(world.query_nearby("obs")))
        outputs.append(rows(world.query_favorites("obs")))
    return json.dumps(outputs, sort_keys=True), world.users, world.favorites


def test_determinism_byte_for_byte():
    assert _serialize_run(1234) == _serialize_run(1234)
    assert _serialize_run(1234) != _serialize_run(1235)


def test_max_entries_truncates_the_screen():
    world = World(DisclosurePolicy(PolicyMode.EXACT_DISTANCE), 2, max_entries=2)
    world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
    for i, east in enumerate((100.0, 200.0, 300.0, 400.0)):
        world.add_user(f"u{i}", _offset(SCIENCE_FRONTIER_LAB, east, 0.0), True)
    resp = world.query_nearby("obs")
    assert [e.user for e in resp.entries] == ["u0", "u1"]
