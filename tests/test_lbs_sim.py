import dataclasses
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoleak import lbs_sim
from geoleak.fixtures import DEMACHIYANAGI_STATION, HEIAN_SHRINE, SCIENCE_FRONTIER_LAB
from geoleak.geodesy import (
    EARTH_RADIUS_M,
    GeoPoint,
    LocalPoint,
    Projection,
    haversine_distance,
    unproject,
)
from geoleak.lbs_sim import (
    DisclosurePolicy,
    DuplicateId,
    PolicyMode,
    QueryResponse,
    ScreenEntry,
    SelfFavorite,
    UnknownUser,
    World,
)
from geoleak.obfuscation import (
    HORNET_DEFAULT,
    ObfuscationPattern,
    obfuscate_distances,
    obfuscation_envelope,
)

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


def test_a_far_observer_is_served_in_haversine_order():
    world = _small_world()
    far = GeoPoint(38.0, 135.77)  # ~330 km north
    world.move_user("obs", far)
    screen = world.query_nearby("obs")
    expected = sorted((haversine_distance(far, world.users[uid].location), uid) for uid in ("victim", "n1", "n2"))
    assert list(zip(screen.shown, screen.users)) == expected


def test_a_world_across_the_antimeridian_serves_its_screens():
    world = World(EXACT, 1)
    world.add_user("a", GeoPoint(10.0, 179.999))
    world.add_user("b", GeoPoint(10.0, -179.999))
    screen = world.query_nearby("a")
    assert screen.users == ("b",)
    assert screen.shown[0] == pytest.approx(219.01, abs=0.01)


def test_a_world_near_the_pole_serves_its_screens():
    world = World(EXACT, 1)
    world.add_user("a", GeoPoint(89.99, 0.0))
    world.add_user("b", GeoPoint(89.99, 90.0))
    world.add_favorite("a", "b")
    d = haversine_distance(world.users["a"].location, world.users["b"].location)
    assert world.query_nearby("a") == QueryResponse(("b",), (d,))
    assert world.query_favorites("a") == QueryResponse(("b",), (d,))
    assert world.view_profile("b", "a") == ScreenEntry("a", d)


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


def test_view_profile_is_counted_and_never_dropped():
    policy = DisclosurePolicy(PolicyMode.EXACT_DISTANCE, drop_probability=1.0)
    world = _small_world(policy)
    entry = world.view_profile("obs", "victim")
    assert entry.user == "victim"
    assert entry.shown_distance == pytest.approx(LAB_TO_STATION_M, abs=1e-5)
    assert world.queries == {"obs": 1}
    assert world.profile_views == {"victim": 1}


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


def test_queries_and_profile_views_are_counted_per_user():
    world = _small_world()
    assert not +world.queries and not +world.profile_views
    world.query_nearby("obs")
    world.add_favorite("obs", "victim")
    world.query_favorites("obs")
    world.view_profile("obs", "n1")
    world.view_profile("n2", "n1")
    assert world.queries == {"obs": 3, "n2": 1}
    assert world.profile_views == {"n1": 2}
    # a query by an unknown observer is not counted
    with pytest.raises(UnknownUser):
        world.query_nearby("nobody")
    assert world.queries == {"obs": 3, "n2": 1}
    # moves are counted per account, and a move of an unknown user counts nothing
    world.move_user("n1", world.users["n2"].location)
    world.move_user("n2", SCIENCE_FRONTIER_LAB)
    with pytest.raises(UnknownUser):
        world.move_user("nobody", SCIENCE_FRONTIER_LAB)
    assert world.moves == {"n1": 1, "n2": 1}


def test_an_account_acts_only_as_itself():
    world = _small_world()
    obs = world.account("obs")
    # it names no other user to move or to locate, and cannot be re-pointed
    assert sorted(n for n in dir(obs) if not n.startswith("_")) == [
        "favorite", "favorites", "id", "location", "move", "nearby", "profile",
    ]
    with pytest.raises(AttributeError):
        obs.id = "victim"
    with pytest.raises(AttributeError):
        obs.location = HEIAN_SHRINE
    others = {uid: u.location for uid, u in world.users.items() if uid != "obs"}
    assert obs.location == DEMACHIYANAGI_STATION
    obs.move(HEIAN_SHRINE)
    assert obs.location == world.users["obs"].location == HEIAN_SHRINE
    assert {uid: u.location for uid, u in world.users.items() if uid != "obs"} == others
    # another user's move leaves its location alone
    world.move_user("n1", DEMACHIYANAGI_STATION)
    assert obs.location == HEIAN_SHRINE
    # it favorites as itself, and never itself
    obs.favorite("victim")
    with pytest.raises(SelfFavorite):
        obs.favorite("obs")
    assert world.favorites == {"obs": ["victim"]}
    obs.nearby()
    obs.favorites()
    assert obs.profile("n2").user == "n2"
    assert world.moves == {"obs": 1, "n1": 1}
    assert world.queries == {"obs": 3} and world.profile_views == {"n2": 1}
    # an unknown id opens no account and counts nothing
    with pytest.raises(UnknownUser):
        world.account("nope")
    assert world.moves == {"obs": 1, "n1": 1} and world.queries == {"obs": 3}


def test_an_account_call_is_one_world_call():
    # the same calls through an account and on the world give the same
    # screens, counts and streams
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT, drop_probability=0.4)
    by_account, by_world = _small_world(policy, 5), _small_world(policy, 5)
    obs = by_account.account("obs")
    obs.favorite("victim")
    by_world.add_favorite("obs", "victim")
    for where in (HEIAN_SHRINE, SCIENCE_FRONTIER_LAB):
        obs.move(where)
        by_world.move_user("obs", where)
        assert obs.nearby() == by_world.query_nearby("obs")
        assert obs.favorites() == by_world.query_favorites("obs")
        assert obs.profile("n1") == by_world.view_profile("obs", "n1")
    for attr in ("moves", "queries", "profile_views", "favorites"):
        assert getattr(by_account, attr) == getattr(by_world, attr)
    assert by_account._drop_rng.getstate() == by_world._drop_rng.getstate()
    assert by_account._obf_rng.getstate() == by_world._obf_rng.getstate()


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


@pytest.mark.parametrize("bad", [0, -2, True, 2.5, "7"])
def test_max_entries_must_be_a_positive_integer(bad):
    with pytest.raises(ValueError, match="max_entries must be a positive integer"):
        World(EXACT, 1, max_entries=bad)


def test_entries_are_the_rows_of_the_columns():
    resp = QueryResponse(("a", "b", "c"), (12.5, None, 40.0))
    assert resp.entries == (ScreenEntry("a", 12.5), ScreenEntry("b", None), ScreenEntry("c", 40.0))
    assert QueryResponse((), ()).entries == ()


def test_index_of_is_the_first_index_or_none():
    resp = QueryResponse(("a", "b", "a"), (1.0, 2.0, 3.0))
    assert [resp.index_of(uid) for uid in ("a", "b", "z")] == [0, 1, None]


def test_query_response_is_frozen():
    resp = _small_world().query_nearby("obs")
    with pytest.raises(dataclasses.FrozenInstanceError):
        resp.users = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        resp.shown = ()


def _count_haversine(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(b)
        return haversine_distance(a, b)

    monkeypatch.setattr(lbs_sim, "haversine_distance", counted)
    return calls


def _exact_screen(world, observer):
    here = world.users[observer].location
    ranked = sorted((haversine_distance(here, u.location), uid) for uid, u in world.users.items() if uid != observer)
    return [(uid, d) for d, uid in ranked]


def test_a_subject_moved_between_screens_of_an_observer_that_stood_still(monkeypatch):
    world = _small_world()
    first = world.query_nearby("obs")
    calls = _count_haversine(monkeypatch)
    assert world.query_nearby("obs") == first and calls == []
    world.move_user("n1", _offset(DEMACHIYANAGI_STATION, 0.0, 40.0))
    resp = world.query_nearby("obs")
    assert calls == [world.users["n1"].location]
    assert list(zip(resp.users, resp.shown)) == _exact_screen(world, "obs")
    assert resp.users[0] == "n1"


def test_two_observers_on_one_point_share_the_row(monkeypatch):
    world = _small_world()
    spot = _offset(SCIENCE_FRONTIER_LAB, 70.0, -20.0)
    world.add_user("a", spot, True)
    world.add_user("b", spot, True)
    world.query_nearby("a")
    calls = _count_haversine(monkeypatch)
    resp = world.query_nearby("b")
    assert calls == [spot]  # only a, whom a's own screen did not rank
    assert list(zip(resp.users, resp.shown)) == _exact_screen(world, "b")
    assert resp.entries[0] == ScreenEntry("a", 0.0)


def test_an_observer_moved_away_and_back_sees_fresh_distances():
    world = _small_world()
    home = world.users["obs"].location
    first = world.query_nearby("obs")
    world.move_user("obs", HEIAN_SHRINE)
    away = world.query_nearby("obs")
    assert list(zip(away.users, away.shown)) == _exact_screen(world, "obs")
    world.move_user("victim", _offset(SCIENCE_FRONTIER_LAB, 0.0, -500.0))
    world.move_user("obs", GeoPoint(home.lat, home.lon))
    back = world.query_nearby("obs")
    assert list(zip(back.users, back.shown)) == _exact_screen(world, "obs")
    assert back != first


def _drop_state(world):
    """The drop stream's state in random.Random.getstate()'s layout, whether
    the world still draws from its random.Random or has handed the stream
    to numpy."""
    if world._drop_rng is not None:
        return world._drop_rng.getstate()
    state = world._drop_bits.bit_generator.state["state"]
    return (3, (*state["key"].tolist(), state["pos"]), None)


def _response(entries):
    return QueryResponse(tuple(e.user for e in entries), tuple(e.shown_distance for e in entries))


class _ReferenceWorld(World):
    """The screen code before it ranked only the users that can be shown or
    draw, kept a row of distances or served screens as columns: every kept
    user's distance is computed afresh, every kept user is ranked by
    (distance, id) and rendered as a ScreenEntry, and the screen is truncated
    afterwards."""

    def query_nearby(self, observer):
        obs = self._require(observer)
        self.queries[observer] += 1
        p = self.policy.drop_probability
        kept = []
        for uid in sorted(self.users):
            if uid == observer:
                continue
            if self._drop_rng.random() >= p:
                kept.append(self.users[uid])
        entries = self._rank_and_render(obs, kept)
        if self.max_entries is not None:
            entries = entries[: self.max_entries]
        return _response(entries)

    def query_favorites(self, observer):
        obs = self._require(observer)
        self.queries[observer] += 1
        targets = [self.users[uid] for uid in self.favorites.get(observer, [])]
        return _response(self._rank_and_render(obs, targets))

    def view_profile(self, observer, subject):
        obs = self._require(observer)
        subj = self._require(subject)
        self.queries[observer] += 1
        self.profile_views[subject] += 1
        return self._render(subj, haversine_distance(obs.location, subj.location))

    def _rank_and_render(self, obs, subjects):
        ranked = sorted(
            ((haversine_distance(obs.location, u.location), u) for u in subjects),
            key=lambda pair: (pair[0], pair[1].id),
        )
        return [self._render(u, d) for d, u in ranked]

    def _render(self, subject, true_d):
        mode = self.policy.mode
        if mode is PolicyMode.EXACT_DISTANCE:
            shown = true_d
        elif mode is PolicyMode.HIDDEN_RESPECTS_FLAG:
            shown = true_d if subject.show_distance else None
        elif subject.show_distance:
            (shown,) = obfuscate_distances([true_d], self.policy.pattern, self._obf_rng)
        else:
            shown = None
        return ScreenEntry(user=subject.id, shown_distance=shown)


# a pattern whose bands fall inside the test worlds' 1.5 km radius
_SMALL_PATTERN = ObfuscationPattern(20.0, 60.0, 400.0, 50.0, 10.0, 100.0)
_ANTIPODE = GeoPoint(-SCIENCE_FRONTIER_LAB.lat, SCIENCE_FRONTIER_LAB.lon - 180.0)


def _near(rng: random.Random, spots: list[GeoPoint]) -> GeoPoint:
    """Within 1.5 km of the lab: half the time one of a few shared spots, so
    that distances tie, else anywhere, so that some lie just inside a band."""
    if rng.random() < 0.5:
        return rng.choice(spots)
    return _offset(SCIENCE_FRONTIER_LAB, rng.uniform(-1500.0, 1500.0), rng.uniform(-1500.0, 1500.0))


def _place(rng: random.Random, spots: list[GeoPoint]) -> GeoPoint:
    """Mostly near the lab; sometimes anywhere on the globe, or within a
    metre of the antipode."""
    kind = rng.random()
    if kind < 0.05:
        return GeoPoint(rng.uniform(-89.0, 89.0), rng.uniform(-179.0, 179.0))
    if kind < 0.1:
        return GeoPoint(_ANTIPODE.lat + rng.uniform(-1e-5, 1e-5), _ANTIPODE.lon + rng.uniform(-1e-5, 1e-5))
    return _near(rng, spots)


# the distances of squared chords, as this host's numpy gives them; the
# functions below stand in for lbs_sim._chord_m, which reads a truncated
# screen's cut and, under an OBFUSCATED policy, the distances it ranks by
_chord_m = lbs_sim._chord_m


def _off(d):
    """How far another host's numpy may put chord distances d: a hundredth
    of the slack, or 0.1 m past _ARRAY_EXACT_FROM_M (towards the antipode)."""
    return np.where(d > lbs_sim._ARRAY_EXACT_FROM_M, 0.1, (lbs_sim._ARRAY_SLACK_M + lbs_sim._ARRAY_SLACK_REL * d) / 100.0)


def _rows(d):
    """0, 1, 2, ... in the shape of d: each row's position in its array."""
    return np.arange(np.size(d)).reshape(np.shape(d))


def _jittered_distances(chord2):
    """Chord distances as another host's numpy may give them: off by up to
    _off, by a different amount in each row, users on one point included,
    and never below 0."""
    d = _chord_m(chord2)
    return np.maximum(d + np.sin(1e9 * chord2 + _rows(d)) * _off(d), 0.0)


def _shifted_distances(sign):
    """Chord distances as another host's numpy may give them: off by _off in
    the direction of sign, so that the offset is a function of the distance
    alone and every row at one point keeps one distance; never below 0."""

    def shifted(chord2):
        d = _chord_m(chord2)
        return np.maximum(d + sign * _off(d), 0.0)

    return shifted


_JITTERS = {"rows": _jittered_distances, "+": _shifted_distances(1.0), "-": _shifted_distances(-1.0)}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    users=st.integers(2, 300),
    mode=st.sampled_from(PolicyMode),
    # the last two put two bounds' slack intervals over one another:
    # near_cutoff on mid_cutoff, and floor_value 1e-7 m below near_cutoff
    pattern=st.sampled_from(
        [
            HORNET_DEFAULT,
            _SMALL_PATTERN,
            ObfuscationPattern(20.0, 60.0, 60.0, 50.0, 10.0, 100.0),
            ObfuscationPattern(60.0, 60.0000001, 400.0, 50.0, 10.0, 100.0),
        ]
    ),
    drop=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    max_entries=st.none() | st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "move", "nearby", "favorites", "profile", "again", "step"]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=4,
        max_size=40,
    ),
    jitter=st.sampled_from([None, *_JITTERS]),
)
# u159 (shown) and u101 (hidden) stand on one point 650.000000000447 m from
# the observer, a rounding midpoint of the mid band: only u159 is an edge row,
# and were it recomputed alone, its exact distance would sort it before u101
@example(
    users=132,
    mode=PolicyMode.OBFUSCATED,
    pattern=HORNET_DEFAULT,
    drop=0.0,
    max_entries=22,
    seed=29,
    ops=[("add", 1)] * 3 + [("nearby", 0)],
    jitter="+",
)
def test_screens_and_rng_streams_match_the_reference(users, mode, pattern, drop, max_entries, seed, ops, jitter):
    """Every call gives what the reference gives, on the same streams; with
    a jitter, truncated obfuscated screens rank from _JITTERS[jitter]."""
    if jitter:
        with mock.patch.object(lbs_sim, "_chord_m", _JITTERS[jitter]):
            _match_the_reference(users, mode, pattern, drop, max_entries, seed, ops)
    else:
        _match_the_reference(users, mode, pattern, drop, max_entries, seed, ops)


def _match_the_reference(users, mode, pattern, drop, max_entries, seed, ops):
    policy = DisclosurePolicy(mode, pattern if mode is PolicyMode.OBFUSCATED else None, drop)
    world, ref = World(policy, seed, max_entries), _ReferenceWorld(policy, seed, max_entries)
    rng = random.Random(seed)
    spots = [_offset(SCIENCE_FRONTIER_LAB, 50.0 * rng.randint(-30, 30), 50.0 * rng.randint(-30, 30)) for _ in range(12)]
    ids = [f"u{i:03d}" for i in rng.sample(range(1000), users)]
    for uid in ids:
        point, show = _near(rng, spots), rng.random() < 0.7
        world.add_user(uid, point, show)
        ref.add_user(uid, point, show)
    owners = rng.sample(ids, min(users, 5))
    for owner in owners:
        for target in rng.sample(ids, min(users, 8)):
            if target != owner:
                world.add_favorite(owner, target)
                ref.add_favorite(owner, target)
    last = None  # the account that queried last
    for op, arg in [("nearby", 0), *ops]:
        pick = random.Random(arg)
        if op == "add":
            call = ("add_user", f"new{len(world.users)}", _place(pick, spots), pick.random() < 0.7)
        elif op == "move":
            call = ("move_user", pick.choice(ids), _place(pick, spots))
        elif op == "nearby":
            call = ("query_nearby", pick.choice(sorted(world.users)))
        elif op == "favorites":
            call = ("query_favorites", pick.choice(owners))
        elif op == "profile":
            call = ("view_profile", pick.choice(sorted(world.users)), pick.choice(sorted(world.users)))
        elif op == "again":
            call = ("query_nearby", last)
        else:
            # the querying account steps somewhere, back onto an equal but
            # distinct point, or onto the very point it stands on
            here = world.users[last].location
            call = ("move_user", last, pick.choice([_place(pick, spots), GeoPoint(here.lat, here.lon), here]))
        if call[0] != "move_user":
            last = call[1]
        assert getattr(world, call[0])(*call[1:]) == getattr(ref, call[0])(*call[1:])
        assert _drop_state(world) == ref._drop_rng.getstate()
        assert world._obf_rng.getstate() == ref._obf_rng.getstate()
        assert world.queries == ref.queries and world.profile_views == ref.profile_views


def _read_with(monkeypatch, chord_m):
    """Truncated screens read their distances from squared chords with
    chord_m in place of _chord_m. Returns a list that fills with the number
    of rows of each array of squared chords they ask it for."""
    asked = []

    def reading(chord2):
        if np.ndim(chord2):  # not the cut
            asked.append(np.size(chord2))
        return chord_m(chord2)

    monkeypatch.setattr(lbs_sim, "_chord_m", reading)
    return asked


def _watch_screens(monkeypatch):
    """What truncated obfuscated screens compute, as four lists that fill as
    they run: the locations lbs_sim asks haversine_distance for, the (lat,
    lon) points it ranks, the counts of mid-band draws past the cut it takes
    by count, one per screen, and the sizes of the arrays of squared chords
    it reads distances from (_read_with)."""
    calls, ranked, counted = _count_haversine(monkeypatch), [], []
    screen = World._obfuscated_screen

    def ranking(world, obs, cols, *rest):
        ranked.extend((world._order[c].location.lat, world._order[c].location.lon) for c in cols.tolist())
        return screen(world, obs, cols, *rest)

    def drawing(ds, pattern, rng, *count):
        # only a truncated screen passes a count; the other screens and
        # profile views draw through the same function without one
        counted.extend(count)
        return obfuscate_distances(ds, pattern, rng, *count)

    monkeypatch.setattr(World, "_obfuscated_screen", ranking)
    monkeypatch.setattr(lbs_sim, "obfuscate_distances", drawing)
    return calls, ranked, counted, _read_with(monkeypatch, _chord_m)


def _drawing(world, observer, drop_state):
    """The users whose obfuscation draws a screen of observer takes, given
    the drop stream's state before it: the kept users that are shown and lie
    in [floor_value, mid_cutoff)."""
    coins = random.Random()
    coins.setstate(drop_state)
    p, pattern = world.policy.drop_probability, world.policy.pattern
    here = world.users[observer].location
    kept = [u for uid, u in sorted(world.users.items()) if uid != observer and coins.random() >= p]
    return [
        u
        for u in kept
        if u.show_distance and pattern.floor_value <= haversine_distance(here, u.location) < pattern.mid_cutoff
    ]


def _matched_screen(world, ref, observer, watched):
    """A screen of observer in world and ref, which must match, with both
    streams; the lists of watched (_watch_screens) are emptied first, and
    every row the screen ranks has its distance read from its chord. Returns
    the screen and the users whose draws it took."""
    drop_state = _drop_state(world)
    for seen in watched:
        seen.clear()
    got = world.query_nearby(observer)
    assert got == ref.query_nearby(observer)
    assert _drop_state(world) == ref._drop_rng.getstate()
    assert world._obf_rng.getstate() == ref._obf_rng.getstate()
    _, ranked, _, asked = watched
    assert sum(asked) == len(ranked)
    return got, _drawing(world, observer, drop_state) if world.policy.pattern else []


def _destination(origin, d, bearing):
    """The point d metres from origin along the great circle that leaves it
    at bearing (radians east of north)."""
    phi, lam, delta = math.radians(origin.lat), math.radians(origin.lon), d / EARTH_RADIUS_M
    lat = math.asin(math.sin(phi) * math.cos(delta) + math.cos(phi) * math.sin(delta) * math.cos(bearing))
    lon = lam + math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(phi), math.cos(delta) - math.sin(phi) * math.sin(lat)
    )
    return GeoPoint(math.degrees(lat), math.degrees(lon))


# the lab; 80 degrees north; and a crowd wholly east of the antimeridian
_SERVICE_CENTRES = (
    SCIENCE_FRONTIER_LAB,
    GeoPoint(80.0, SCIENCE_FRONTIER_LAB.lon),
    GeoPoint(SCIENCE_FRONTIER_LAB.lat, 179.5),
)
_SERVICE_CUT_M = 60.0


def _service_scale_screens(mode, centre, watched):
    """Screens of 100 out of about 2,250 users around centre under mode,
    matched against the reference; returns how many mid-band draws past the
    cut they took by count.

    2,000 users stand within 3 km of centre. 200 more stand on a ring
    _SERVICE_CUT_M round it, so that a screen from centre cuts on the ring.
    45 more stand within 0.5 m of b - _APPROX_SLACK_M, b or
    b + _APPROX_SLACK_M from centre, b being the cut, near_cutoff or
    mid_cutoff.
    """
    pattern = HORNET_DEFAULT if mode is PolicyMode.OBFUSCATED else None
    policy = DisclosurePolicy(mode, pattern, drop_probability=0.3)
    world, ref = World(policy, 13, max_entries=100), _ReferenceWorld(policy, 13, max_entries=100)
    counted = 0
    rng = random.Random(13)
    spots = [_offset(centre, 50.0 * rng.randint(-40, 40), 50.0 * rng.randint(-40, 40)) for _ in range(30)]

    def place():
        if rng.random() < 0.2:
            return rng.choice(spots)
        return _offset(centre, rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0))

    slack = lbs_sim._APPROX_SLACK_M
    bounds = (_SERVICE_CUT_M, HORNET_DEFAULT.near_cutoff, HORNET_DEFAULT.mid_cutoff)
    edges = [b + side * slack + e for b in bounds for side in (-1, 0, 1) for e in (-0.5, -0.01, 0.0, 0.01, 0.5)]
    ring = {f"e{i:03d}" for i in range(200)}
    ids = [f"u{i:04d}" for i in range(2000)]
    crowd = [(uid, place()) for uid in ids]
    for i, d in enumerate([_SERVICE_CUT_M] * len(ring) + edges):
        crowd.append((f"e{i:03d}", _destination(centre, d, rng.uniform(0.0, 2.0 * math.pi))))
    for uid, point in [("obs", centre), *crowd]:
        show = rng.random() < 0.7
        world.add_user(uid, point, show)
        ref.add_user(uid, point, show)

    def screen(observer):
        nonlocal counted
        got, _ = _matched_screen(world, ref, observer, watched)
        counted += sum(watched[2])
        return got

    def move(uids):
        for uid in uids:
            point = place()
            world.move_user(uid, point)
            ref.move_user(uid, point)

    for _ in range(10):
        assert screen("obs").users[-1] in ring
        move(rng.sample(ids, 25))
    for observer in (ids[0], ids[1000], ids[-1]):
        assert len(screen(observer).users) == 100
        move([*rng.sample(ids, 25), observer])
        assert len(screen(observer).users) == 100
    # about 67 of 2,245 kept: a screen that could truncate but does not
    world.policy = ref.policy = dataclasses.replace(policy, drop_probability=0.97)
    assert 0 < len(screen(ids[1000]).users) < 100
    return counted


def test_service_scale_screens_match_the_reference(monkeypatch):
    """Screens of 100 out of about 2,250 users, which draw their drop coins
    in one batch, see what the reference sees, on the same streams, under
    every policy mode, with the crowd at the lab, at 80 degrees north and
    just east of the antimeridian: an observer at the crowd's centre with
    users at the cut, near_cutoff and mid_cutoff plus or minus
    _APPROX_SLACK_M; observers at the first, a middle and the last position
    in id order, with moves in between; and one screen that keeps fewer than
    100. Only obfuscated screens count users past the cut."""
    watched = _watch_screens(monkeypatch)
    for centre in _SERVICE_CENTRES:
        for mode in PolicyMode:
            assert (_service_scale_screens(mode, centre, watched) > 0) == (mode is PolicyMode.OBFUSCATED)


def _ring(rng, d):
    """A point d metres from the lab on a random bearing."""
    bearing = rng.uniform(0.0, 2.0 * math.pi)
    return _offset(SCIENCE_FRONTIER_LAB, d * math.cos(bearing), d * math.sin(bearing))


def _pair_of_worlds(seed, max_entries, users):
    """A World and a _ReferenceWorld under HORNET_DEFAULT with drop
    probability 0.3, each with obs at the lab and the same (id, point, show)
    users."""
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, HORNET_DEFAULT, drop_probability=0.3)
    world, ref = World(policy, seed, max_entries), _ReferenceWorld(policy, seed, max_entries)
    for w in (world, ref):
        w.add_user("obs", SCIENCE_FRONTIER_LAB, True)
        for uid, point, show in users:
            w.add_user(uid, point, show)
    return world, ref


def _step_in_place(world, ref):
    """obs steps onto an equal but distinct point, so its next screen
    computes every distance it ranks afresh."""
    here = world.users["obs"].location
    point = GeoPoint(here.lat, here.lon)
    world.move_user("obs", point)
    ref.move_user("obs", point)


def test_users_past_the_cut_in_the_mid_band_are_counted_not_ranked(monkeypatch):
    """Every shown user past the cut that lies more than _APPROX_SLACK_M
    inside [near_cutoff, mid_cutoff) takes its mid-band draw by count: fewer
    users are ranked than there are users drawing. Users within
    _APPROX_SLACK_M of mid_cutoff are ranked."""
    rng = random.Random(5)
    slack, mid = lbs_sim._APPROX_SLACK_M, HORNET_DEFAULT.mid_cutoff
    crowd = [rng.uniform(120.0, 400.0) for _ in range(30)]
    tail = [rng.uniform(400.0, mid - slack) for _ in range(150)]
    edge = [mid + side * slack + e for side in (-1, 0, 1) for e in (-0.5, -0.01, 0.0, 0.01, 0.5) for _ in range(3)]
    users = [(f"u{i:03d}", _ring(rng, d), rng.random() < 0.8) for i, d in enumerate(crowd + tail + edge)]
    world, ref = _pair_of_worlds(5, 10, users)
    watched = calls, ranked, counted, _ = _watch_screens(monkeypatch)
    for _ in range(10):
        _, drawing = _matched_screen(world, ref, "obs", watched)
        assert counted[0] and len(ranked) < len(drawing)
        here, points = world.users["obs"].location, set(ranked)
        edge_drawing = [u for u in drawing if haversine_distance(here, u.location) > mid - slack + 0.1]
        assert edge_drawing and all((u.location.lat, u.location.lon) in points for u in edge_drawing)
        _step_in_place(world, ref)


def test_a_crowd_inside_near_cutoff_is_ranked_and_its_mid_band_tail_counted(monkeypatch):
    """More kept users inside near_cutoff than the screen holds: users past
    the cut draw in the near band, then in the mid band. Every user that may
    draw in the near band, up to _APPROX_SLACK_M past near_cutoff, is ranked;
    the mid-band tail past that is counted, and the screen and both streams
    match the reference."""
    rng = random.Random(8)
    slack, near = lbs_sim._APPROX_SLACK_M, HORNET_DEFAULT.near_cutoff
    crowd = [rng.uniform(0.0, 95.0) for _ in range(60)]
    edge = [near + side * slack + e for side in (-1, 0, 1) for e in (-0.5, -0.01, 0.0, 0.01, 0.5) for _ in range(3)]
    tail = [rng.uniform(120.0, 980.0) for _ in range(200)]
    far = [rng.uniform(1000.0, 3000.0) for _ in range(20)]
    users = [(f"u{i:03d}", _ring(rng, d), rng.random() < 0.8) for i, d in enumerate(crowd + edge + tail + far)]
    world, ref = _pair_of_worlds(8, 20, users)
    watched = calls, ranked, counted, _ = _watch_screens(monkeypatch)
    for _ in range(10):
        _, drawing = _matched_screen(world, ref, "obs", watched)
        assert counted[0] and len(ranked) < len(drawing)
        here, points = world.users["obs"].location, set(ranked)
        near_drawing = [u for u in drawing if haversine_distance(here, u.location) < near + slack - 0.1]
        assert any(haversine_distance(here, u.location) >= near for u in near_drawing)
        assert all((u.location.lat, u.location.lon) in points for u in near_drawing)
        _step_in_place(world, ref)


def test_a_screen_with_no_row_near_a_tie_or_an_edge_computes_no_haversine_distance(monkeypatch):
    """Users at distinct distances, a few sharing one point each: a truncated
    obfuscated screen ranks them all from chord distances and asks
    haversine_distance for none, and matches the reference."""
    rng = random.Random(21)
    spots = [_ring(rng, rng.uniform(120.0, 900.0)) for _ in range(4)]
    users = [(f"u{i:03d}", _ring(rng, rng.uniform(0.0, 2500.0)), rng.random() < 0.8) for i in range(80)]
    users += [(f"s{i:03d}", spots[i % 4], True) for i in range(12)]
    world, ref = _pair_of_worlds(21, 30, users)
    watched = calls, ranked, _, _ = _watch_screens(monkeypatch)
    for _ in range(10):
        got, _ = _matched_screen(world, ref, "obs", watched)
        assert len(got.users) == 30 and len(ranked) >= 30 and calls == []
        _step_in_place(world, ref)


def test_rows_near_a_rounding_midpoint_a_band_edge_or_a_tie_are_recomputed(monkeypatch):
    """Shown users within 1e-9 m of each rounding midpoint (mid band and far
    band) and each band edge, one per mark so that no two tie, and near-ties
    at distinct points, are the rows haversine_distance is asked for, and the
    screen matches the reference; chord distances come from
    _jittered_distances, so a row left inexact could round, band or rank
    wrongly."""
    rng = random.Random(22)
    p = HORNET_DEFAULT
    midpoints = [(m + 0.5) * p.mid_band for m in range(1, 10)] + [(m + 0.5) * p.far_unit for m in (1, 2)]
    marks = [x + (-1e-9, 0.0, 1e-9)[i % 3] for i, x in enumerate((*midpoints, p.floor_value, p.near_cutoff, p.mid_cutoff))]
    ties = [d + e for d in (333.3, 777.7) for e in (0.0, 0.0, 1e-9)]
    special = [
        (f"m{i:03d}", _destination(SCIENCE_FRONTIER_LAB, d, rng.uniform(0.0, 2.0 * math.pi)), True)
        for i, d in enumerate(marks + ties)
    ]
    fillers = [(f"f{i:03d}", _ring(rng, rng.uniform(0.0, 2900.0)), rng.random() < 0.8) for i in range(20)]
    # one hidden user past the cut, so that the screen truncates and ranks all others
    users = [*special, *fillers, ("z", _ring(rng, 5000.0), False)]
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, p)
    world, ref = World(policy, 22, len(users) - 1), _ReferenceWorld(policy, 22, len(users) - 1)
    for w in (world, ref):
        w.add_user("obs", SCIENCE_FRONTIER_LAB, True)
        for uid, point, show in users:
            w.add_user(uid, point, show)
    asked = _read_with(monkeypatch, _jittered_distances)
    calls = _count_haversine(monkeypatch)
    for _ in range(5):
        calls.clear()
        asked.clear()
        assert world.query_nearby("obs") == ref.query_nearby("obs")
        assert world._obf_rng.getstate() == ref._obf_rng.getstate()
        assert sorted(map(id, calls)) == sorted(id(point) for _, point, _ in special)
        assert asked == [len(users) - 1]
        _step_in_place(world, ref)


def test_rows_near_the_antipode_are_recomputed(monkeypatch):
    """Users within a metre of the observer's antipode, where chord distances
    may be off by decimetres: every ranked row is recomputed, and the screen
    matches the reference under _jittered_distances."""
    rng = random.Random(24)
    users = [
        (f"u{i:02d}", GeoPoint(_ANTIPODE.lat + rng.uniform(-1e-5, 1e-5), _ANTIPODE.lon + rng.uniform(-1e-5, 1e-5)), True)
        for i in range(30)
    ]
    world, ref = _pair_of_worlds(24, 10, users)
    asked = _read_with(monkeypatch, _jittered_distances)
    calls = _count_haversine(monkeypatch)
    for _ in range(5):
        calls.clear()
        asked.clear()
        assert world.query_nearby("obs") == ref.query_nearby("obs")
        assert world._obf_rng.getstate() == ref._obf_rng.getstate()
        assert len(calls) >= 10
        assert len(asked) == 1 and asked[0] == len(calls)
        _step_in_place(world, ref)


def test_a_tie_at_one_point_beside_a_user_at_another_is_recomputed_whole(monkeypatch):
    """b and c stand on one point, and a on its mirror image across the
    observer's meridian, at exactly the same distance. The chord distances
    put b and c a hundredth of the slack below it and a as far above, so b,
    c, a run in that order with gaps under the slack. All three are
    recomputed and the screen shows a, b, c, as the reference does; were
    only c recomputed, beside a, b would still rank first."""
    obs = GeoPoint(35.0, 135.0)
    here, there = GeoPoint(35.0, 135.0 + 2.0**-10), GeoPoint(35.0, 135.0 - 2.0**-10)
    assert haversine_distance(obs, here) == haversine_distance(obs, there)
    rng = random.Random(23)
    users = [("a", there, True), ("b", here, True), ("c", here, True)]
    users += [(f"f{i}", _destination(obs, rng.uniform(2000.0, 3000.0), rng.uniform(0.0, 6.0)), True) for i in range(8)]
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, HORNET_DEFAULT)
    world, ref = World(policy, 23, 5), _ReferenceWorld(policy, 23, 5)
    for w in (world, ref):
        w.add_user("obs", obs, True)
        for uid, point, show in users:
            w.add_user(uid, point, show)

    def split(chord2):
        # the ranked rows are in id order, so a, b and c are the first three
        d = _chord_m(chord2)
        return d + np.where(_rows(d) == 0, 1.0, -1.0) * _off(d)

    asked = _read_with(monkeypatch, split)
    calls = _count_haversine(monkeypatch)
    got = world.query_nearby("obs")
    assert got == ref.query_nearby("obs") and got.users[:3] == ("a", "b", "c")
    assert sorted(map(id, calls)) == sorted(map(id, (there, here, here)))
    assert len(asked) == 1 and asked[0] >= 5


def test_a_tie_at_one_point_with_unequal_array_distances_is_recomputed_whole(monkeypatch):
    """b, c and d stand on one point, and the chord distances put them a
    hundredth of the slack apart in reverse id order, as a numpy that rounds
    one point's distance differently by where it falls in the array might.
    All three are recomputed, and the screen shows them in id order, as the
    reference does; trusting the chord order would show d, c, b."""
    here = _ring(random.Random(25), 400.0)
    rng = random.Random(25)
    users = [(uid, here, True) for uid in "bcd"]
    users += [(f"f{i}", _ring(rng, rng.uniform(2000.0, 3000.0)), True) for i in range(8)]
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, HORNET_DEFAULT)
    world, ref = World(policy, 25, 5), _ReferenceWorld(policy, 25, 5)
    for w in (world, ref):
        w.add_user("obs", SCIENCE_FRONTIER_LAB, True)
        for uid, point, show in users:
            w.add_user(uid, point, show)

    def apart(chord2):
        # the ranked rows are in id order, so b, c and d are the first three
        d = _chord_m(chord2)
        return d - _rows(d) * _off(d)

    asked = _read_with(monkeypatch, apart)
    calls = _count_haversine(monkeypatch)
    got = world.query_nearby("obs")
    assert got == ref.query_nearby("obs") and got.users[:3] == ("b", "c", "d")
    assert sorted(map(id, calls)) == [id(here)] * 3
    assert len(asked) == 1 and asked[0] >= 5


def test_equal_chord_distances_at_two_points_are_recomputed(monkeypatch):
    """a and b stand at two points 2e-8 m apart in distance from the
    observer, a the farther, and the chord distances round both onto one
    value, as a numpy might. Both are recomputed, and the screen shows b
    before a, as the reference does; trusting the tie would keep id order."""
    grid = float(_off(400.0))
    mark = round(400.0 / grid) * grid
    near, far = _destination(SCIENCE_FRONTIER_LAB, mark - 1e-8, 1.0), _destination(SCIENCE_FRONTIER_LAB, mark + 1e-8, 2.0)
    d_near, d_far = (haversine_distance(SCIENCE_FRONTIER_LAB, q) for q in (near, far))
    assert d_near < d_far and round(d_near / grid) == round(d_far / grid)
    rng = random.Random(27)
    users = [("a", far, True), ("b", near, True)]
    users += [(f"f{i}", _ring(rng, rng.uniform(2000.0, 3000.0)), True) for i in range(8)]
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, HORNET_DEFAULT)
    world, ref = World(policy, 27, 5), _ReferenceWorld(policy, 27, 5)
    for w in (world, ref):
        w.add_user("obs", SCIENCE_FRONTIER_LAB, True)
        for uid, point, show in users:
            w.add_user(uid, point, show)

    def rounded(chord2):
        # to the nearest multiple of grid, a hundredth of the slack at 400 m:
        # no row moves by more than a hundredth of its own slack
        return np.round(_chord_m(chord2) / grid) * grid

    asked = _read_with(monkeypatch, rounded)
    calls = _count_haversine(monkeypatch)
    got = world.query_nearby("obs")
    assert got == ref.query_nearby("obs") and got.users[:2] == ("b", "a")
    assert sorted(map(id, calls)) == sorted(map(id, (near, far)))
    assert len(asked) == 1 and asked[0] >= 5


def test_a_user_moved_off_integer_coordinates_ranks_from_where_it_stands():
    """Every user stands at integer degrees, so the position arrays are
    built from ints; a user then moved to a fractional point must rank and
    show from that point, not from one truncated to whole degrees."""
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, HORNET_DEFAULT)
    world, ref = World(policy, 26, 3), _ReferenceWorld(policy, 26, 3)
    points = [(35, 135), (35, 136), (36, 135), (34, 134), (35, 137), (37, 136), (33, 135)]
    for w in (world, ref):
        for i, (lat, lon) in enumerate(points):
            w.add_user(f"u{i}", GeoPoint(lat, lon), True)
    assert world.query_nearby("u0") == ref.query_nearby("u0")
    moved = _destination(GeoPoint(35.0, 135.0), 500.0, 1.0)
    for w in (world, ref):
        w.move_user("u6", moved)
    for observer in ("u0", "u1", "u6"):
        got = world.query_nearby(observer)
        assert got == ref.query_nearby(observer)
        assert world._obf_rng.getstate() == ref._obf_rng.getstate()
    assert world.query_nearby("u0").users[0] == "u6"


_EDGE_PROBABILITIES = (0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(
    seed=st.integers(0, 2**64 - 1),
    before=st.integers(0, 1400),
    odd=st.booleans(),
    n=st.integers(0, 1400),
    p=st.sampled_from(_EDGE_PROBABILITIES) | st.floats(0.0, 1.0) | st.none(),
    tie=st.integers(0, 1399),
)
# one 32-bit word and 311 random() calls leave the position at 623, so the
# first handed-off draw takes the last word of a block and the first of the
# next; 312 calls leave it at 624, so the first handed-off draw twists
@example(seed=0, before=311, odd=True, n=3, p=None, tie=0)
@example(seed=0, before=312, odd=False, n=1, p=0.5, tie=0)
def test_the_drop_stream_hands_off_to_numpy_exactly(seed, before, odd, n, p, tie):
    """After before random() calls, and one more 32-bit word if odd, the
    handed-off Generator's n floats, its coins and its end state are those
    of n more random() calls."""
    world = World(EXACT, 0)
    world._drop_rng = random.Random(seed)
    python = random.Random(seed)
    for rng in (world._drop_rng, python):
        if odd:
            rng.getrandbits(32)
        for _ in range(before):
            rng.random()
    world._hand_off()
    assert world._drop_rng is None
    draws = [python.random() for _ in range(n)]
    if p is None:  # one of the draws themselves, where >= meets equality
        p = draws[tie % n] if n else 0.5
    floats = world._drop_bits.random(n)
    assert floats.tolist() == draws
    assert (floats >= p).tolist() == [d >= p for d in draws]
    assert _drop_state(world) == python.getstate()


@pytest.mark.parametrize("mode", PolicyMode)
def test_a_world_that_grows_into_truncating_hands_off_mid_stream(mode):
    """A world with a 20-row screen serves untruncated screens on the
    random.Random drop stream, grows past 21 users, and serves truncated
    screens on the handed-off one: every screen and both streams match the
    reference's."""
    policy = DisclosurePolicy(mode, HORNET_DEFAULT if mode is PolicyMode.OBFUSCATED else None, drop_probability=0.3)
    world, ref = World(policy, 9, max_entries=20), _ReferenceWorld(policy, 9, max_entries=20)
    rng = random.Random(9)

    def add(count):
        for _ in range(count):
            uid, point, show = f"u{len(world.users):03d}", _ring(rng, rng.uniform(0.0, 1500.0)), rng.random() < 0.7
            world.add_user(uid, point, show)
            ref.add_user(uid, point, show)

    def screens():
        for observer in ("u000", "u007", f"u{len(world.users) - 1:03d}"):
            assert world.query_nearby(observer) == ref.query_nearby(observer)
            assert _drop_state(world) == ref._drop_rng.getstate()
            assert world._obf_rng.getstate() == ref._obf_rng.getstate()

    add(21)
    screens()
    assert world._drop_bits is None
    add(40)
    screens()
    assert world._drop_rng is None
    add(5)
    screens()


_LATS = st.sampled_from([-90.0, 0.0, 90.0]) | st.floats(-90.0, 90.0)
_LONS = st.sampled_from([-180.0, 0.0, 180.0]) | st.floats(-180.0, 180.0)


def _nudged(draw, point, by):
    """point moved by up to by degrees on each axis, kept on the globe."""
    lat = min(max(point.lat + draw(st.floats(-by, by)), -90.0), 90.0)
    lon = min(max(point.lon + draw(st.floats(-by, by)), -180.0), 180.0)
    return GeoPoint(lat, lon)


@st.composite
def _point_pairs(draw):
    """Two valid points: anywhere, coincident, or within 1e-5 degrees of
    each other or of each other's antipode."""
    a = draw(st.builds(GeoPoint, _LATS, _LONS))
    kind = draw(st.sampled_from(["anywhere", "coincident", "close", "antipodal"]))
    if kind == "anywhere":
        return a, draw(st.builds(GeoPoint, _LATS, _LONS))
    if kind == "coincident":
        return a, GeoPoint(a.lat, a.lon)
    if kind == "close":
        return a, _nudged(draw, a, 1e-5)
    return a, _nudged(draw, GeoPoint(-a.lat, a.lon - 180.0 if a.lon > 0.0 else a.lon + 180.0), 1e-5)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(pair=_point_pairs())
@example(pair=(GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0)))
@example(pair=(GeoPoint(0.0, 180.0), GeoPoint(0.0, -180.0)))
@example(pair=(GeoPoint(10.0, 179.999), GeoPoint(10.0, -179.999)))
@example(pair=(GeoPoint(35.0, 135.0), GeoPoint(-35.0, -45.0)))
def test_the_squared_chord_gives_the_haversine_distance_within_a_metre(pair):
    """The distance a truncated screen reads from two users' unit vectors is
    within 1 m of haversine_distance, under the _APPROX_SLACK_M / 2 its
    split needs."""
    a, b = pair
    u, v = lbs_sim._unit_vectors(np.array([a.lat, b.lat]), np.array([a.lon, b.lon])).T
    chord2 = float(((u - v) ** 2).sum())
    assert abs(lbs_sim._chord_m(chord2) - haversine_distance(a, b)) <= 1.0 < lbs_sim._APPROX_SLACK_M / 2


@st.composite
def _array_pairs(draw):
    """One point and up to 64 others, each anywhere, coincident, within 1e-5
    degrees, or within 1e-5 degrees of its antipode: enough in one array for
    numpy's SIMD loops to run."""
    pairs = draw(st.lists(_point_pairs(), min_size=1, max_size=64))
    a = pairs[0][0]
    flip = GeoPoint(a.lat, -a.lon)  # on the other side of the antimeridian when a.lon is +-180
    rest = [b for _, b in pairs] + [flip, GeoPoint(-a.lat, a.lon), a]
    return a, rest


# the bound on |_chord_m - haversine_distance| that lbs_sim's comment on
# _ARRAY_SLACK_M derives, as metres plus a share of the distance
_CHORD_GAP_M, _CHORD_GAP_REL = 1e-7, 1e-14


@settings(derandomize=True, deadline=None, max_examples=500)
@given(pairs=_array_pairs())
@example(pairs=(GeoPoint(90.0, 0.0), [GeoPoint(-90.0, 0.0), GeoPoint(90.0, 180.0), GeoPoint(89.999, -180.0)]))
@example(pairs=(GeoPoint(0.0, 180.0), [GeoPoint(0.0, -180.0), GeoPoint(0.0, 0.0), GeoPoint(1e-300, 179.99999)]))
@example(pairs=(GeoPoint(35.0, 135.0), [GeoPoint(-35.0, -45.0), GeoPoint(-35.0 + 1e-9, -45.0), GeoPoint(35.0, 135.0 + 1e-12)]))
@example(
    pairs=(
        GeoPoint(0.0, 180.0),
        [GeoPoint(0.0, 180.0), GeoPoint(1e-12, 180.0), GeoPoint(0.0, 180.0 - 1e-12), GeoPoint(-1e-12, -180.0)],
    )
)
@example(pairs=(GeoPoint(-90.0, 45.0), [GeoPoint(-90.0, 45.0), GeoPoint(-90.0 + 1e-12, 45.0), GeoPoint(-90.0, -135.0)]))
@example(pairs=(GeoPoint(35.0, 135.0), [GeoPoint(35.0, 135.0)] * 3 + [GeoPoint(35.0 + 1e-12, 135.0 - 1e-12)]))
def test_chord_distances_lie_a_hundredth_of_the_slack_from_haversine_distance(pairs):
    """A truncated screen's squared chords, from the unit vectors as built
    and as refreshed after every user moves onto an equal point, give
    distances within _CHORD_GAP_M + _CHORD_GAP_REL * d of haversine_distance
    up to _ARRAY_EXACT_FROM_M, which is no more than the hundredth of the
    slack the tests' jitters apply; past it a truncated obfuscated screen
    recomputes the row."""
    assert 100.0 * _CHORD_GAP_M <= lbs_sim._ARRAY_SLACK_M and 100.0 * _CHORD_GAP_REL <= lbs_sim._ARRAY_SLACK_REL
    a, others = pairs
    world = World(EXACT, 0, max_entries=len(others))  # keeps every row: the cut is infinite
    world.add_user("a", a)
    for i, b in enumerate(others):
        world.add_user(f"b{i:02d}", b)
    rows = np.arange(1, len(others) + 1)  # the columns of b00, b01, ...; a sorts first
    for refreshed in (False, True):
        if refreshed:
            for uid, u in list(world.users.items()):
                world.move_user(uid, GeoPoint(u.location.lat, u.location.lon))
        cols, chord2, counted = world._candidates(world.users["a"], rows)
        assert cols.tolist() == rows.tolist() and counted == 0
        for c, d in zip(cols.tolist(), lbs_sim._chord_m(chord2).tolist()):
            e = haversine_distance(a, world._order[c].location)
            if d <= lbs_sim._ARRAY_EXACT_FROM_M:
                assert abs(d - e) <= _CHORD_GAP_M + _CHORD_GAP_REL * e
            else:
                assert e > lbs_sim._ARRAY_EXACT_FROM_M - 1.0


_HALF_CIRCUMFERENCE_M = math.pi * EARTH_RADIUS_M


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(d=st.floats(-1e3, 2.1e7), e=st.floats(-1e3, 2.1e7))
@example(d=0.0, e=-0.0)
@example(d=_HALF_CIRCUMFERENCE_M, e=math.nextafter(_HALF_CIRCUMFERENCE_M, 0.0))
def test_a_bound_becomes_a_squared_chord_in_order(d, e):
    """_chord2 is 0 at and below 0 m, inf at and beyond half the
    circumference, monotone, and _chord_m takes it back within 1 m."""
    assert (d <= e) <= (lbs_sim._chord2(d) <= lbs_sim._chord2(e))
    for x in (d, e):
        chord2 = lbs_sim._chord2(x)
        if x <= 0.0:
            assert chord2 == 0.0
        elif x >= _HALF_CIRCUMFERENCE_M:
            assert chord2 == math.inf
        else:
            assert abs(lbs_sim._chord_m(chord2) - x) <= 1.0


def test_a_user_moved_close_tops_a_truncated_screen():
    world = World(EXACT, 6, max_entries=3)
    world.add_user("obs", SCIENCE_FRONTIER_LAB, True)
    for i in range(10):
        world.add_user(f"u{i}", _offset(SCIENCE_FRONTIER_LAB, 100.0 * (i + 1), 2000.0), True)
    assert [e.user for e in world.query_nearby("obs").entries] == ["u0", "u1", "u2"]
    world.move_user("u7", _offset(SCIENCE_FRONTIER_LAB, 10.0, 0.0))
    world.move_user("u0", _offset(SCIENCE_FRONTIER_LAB, 0.0, 5000.0))
    assert [e.user for e in world.query_nearby("obs").entries] == ["u7", "u1", "u2"]


def test_truncated_screen_keeps_the_draws_just_inside_mid_cutoff():
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, HORNET_DEFAULT, drop_probability=0.2)
    world, ref = World(policy, 4, max_entries=5), _ReferenceWorld(policy, 4, max_entries=5)
    rng = random.Random(4)
    crowd = [(f"c{i:02d}", rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)) for i in range(20)]
    edge = [(f"e{i}", d, 0.0) for i, d in enumerate((990.0, 996.0, 999.0, 999.9, 1000.1, 1004.0, 1012.0))]
    for w in (world, ref):
        w.add_user("obs", SCIENCE_FRONTIER_LAB, True)
        for uid, east, north in crowd + edge:
            w.add_user(uid, _offset(SCIENCE_FRONTIER_LAB, east, north), True)
    for _ in range(30):
        assert world.query_nearby("obs") == ref.query_nearby("obs")
        assert world._obf_rng.getstate() == ref._obf_rng.getstate()


@settings(derandomize=True, deadline=None, max_examples=500)
@given(
    floor=st.integers(1, 400),
    near=st.integers(1, 400),
    mid=st.integers(0, 2000),
    share=st.floats(0.0, 1.0, exclude_max=True),
    beyond=st.floats(0.0, 1e7),
    rng=st.randoms(use_true_random=False),
)
def test_obfuscation_draws_nothing_below_the_floor_or_past_mid_cutoff(floor, near, mid, share, beyond, rng):
    pattern = ObfuscationPattern(float(floor), float(floor + near), float(floor + near + mid), 10.0, 10.0, 1000.0)
    before = rng.getstate()
    assert obfuscate_distances([pattern.floor_value * share], pattern, rng) == [pattern.floor_value]
    obfuscate_distances([pattern.mid_cutoff + beyond], pattern, rng)
    assert rng.getstate() == before
