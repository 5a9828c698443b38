import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoleak import lbs_sim
from geoleak.fixtures import DEMACHIYANAGI_STATION, HEIAN_SHRINE, SCIENCE_FRONTIER_LAB
from geoleak.geodesy import (
    GeoPoint,
    LocalPoint,
    OutOfProjectionRange,
    Projection,
    haversine_distance,
    project,
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
from geoleak.obfuscation import HORNET_DEFAULT, ObfuscationPattern, obfuscate_distances, obfuscation_envelope

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
    # a screen the service cannot serve is not counted
    world.move_user("n2", _ANTIPODE)
    with pytest.raises(OutOfProjectionRange):
        world.query_nearby("n2")
    assert world.queries == {"obs": 3, "n2": 1}
    # moves are counted per account, and a move of an unknown user counts nothing
    world.move_user("n1", world.users["n2"].location)
    world.move_user("n2", SCIENCE_FRONTIER_LAB)
    with pytest.raises(UnknownUser):
        world.move_user("nobody", SCIENCE_FRONTIER_LAB)
    assert world.moves == {"n1": 1, "n2": 2}


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
        self._freeze()
        project(obs.location, self.projection)
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
        self._freeze()
        self.queries[observer] += 1
        targets = [self.users[uid] for uid in self.favorites.get(observer, [])]
        return _response(self._rank_and_render(obs, targets))

    def view_profile(self, observer, subject):
        obs = self._require(observer)
        subj = self._require(subject)
        self._freeze()
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


def _outcome(world, method, *args):
    try:
        return getattr(world, method)(*args)
    except OutOfProjectionRange:
        return OutOfProjectionRange


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    users=st.integers(2, 300),
    mode=st.sampled_from(PolicyMode),
    pattern=st.sampled_from([HORNET_DEFAULT, _SMALL_PATTERN]),
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
)
def test_screens_and_rng_streams_match_the_reference(users, mode, pattern, drop, max_entries, seed, ops):
    policy = DisclosurePolicy(mode, pattern if mode is PolicyMode.OBFUSCATED else None, drop)
    world, ref = World(policy, seed, max_entries), _ReferenceWorld(policy, seed, max_entries)
    rng = random.Random(seed)
    spots = [_offset(SCIENCE_FRONTIER_LAB, 50.0 * rng.randint(-30, 30), 50.0 * rng.randint(-30, 30)) for _ in range(12)]
    ids = [f"u{i:03d}" for i in rng.sample(range(1000), users)]
    for uid in ids:
        # the first query anchors the projection, so the initial crowd stays near the lab
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
        assert _outcome(world, *call) == _outcome(ref, *call)
        assert world._drop_rng.getstate() == ref._drop_rng.getstate()
        assert world._obf_rng.getstate() == ref._obf_rng.getstate()
        assert world.queries == ref.queries and world.profile_views == ref.profile_views


def test_service_scale_screens_match_the_reference():
    """Screens of 100 out of 2,000 users, which draw their drop coins in one
    batch: observers at the first, a middle and the last position in id
    order, with moves in between, and one screen that keeps fewer than 100,
    see what the reference sees, on the same streams."""
    policy = DisclosurePolicy(PolicyMode.OBFUSCATED, HORNET_DEFAULT, drop_probability=0.3)
    world, ref = World(policy, 13, max_entries=100), _ReferenceWorld(policy, 13, max_entries=100)
    rng = random.Random(13)
    spots = [_offset(SCIENCE_FRONTIER_LAB, 50.0 * rng.randint(-40, 40), 50.0 * rng.randint(-40, 40)) for _ in range(30)]

    def place():
        if rng.random() < 0.2:
            return rng.choice(spots)
        return _offset(SCIENCE_FRONTIER_LAB, rng.uniform(-3000.0, 3000.0), rng.uniform(-3000.0, 3000.0))

    ids = [f"u{i:04d}" for i in range(2000)]
    for uid in ids:
        point, show = place(), rng.random() < 0.7
        world.add_user(uid, point, show)
        ref.add_user(uid, point, show)

    def screen(observer):
        got = world.query_nearby(observer)
        assert got == ref.query_nearby(observer)
        assert world._drop_rng.getstate() == ref._drop_rng.getstate()
        assert world._obf_rng.getstate() == ref._obf_rng.getstate()
        return got

    for observer in (ids[0], ids[1000], ids[-1]):
        assert len(screen(observer).users) == 100
        for uid in [*rng.sample(ids, 25), observer]:
            point = place()
            world.move_user(uid, point)
            ref.move_user(uid, point)
        assert len(screen(observer).users) == 100
    # about 60 of 1,999 kept: a screen that could truncate but does not
    world.policy = ref.policy = dataclasses.replace(policy, drop_probability=0.97)
    assert 0 < len(screen(ids[1000]).users) < 100


_EDGE_PROBABILITIES = (0.0, 1.0, 5e-324, math.nextafter(1.0, 0.0))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(0, 700),
    p=st.sampled_from(_EDGE_PROBABILITIES) | st.floats(0.0, 1.0) | st.none(),
    tie=st.integers(0, 699),
)
def test_a_batch_of_drop_coins_is_the_random_calls_it_replaces(seed, n, p, tie):
    one_by_one = random.Random(seed)
    draws = [one_by_one.random() for _ in range(n)]
    if p is None:  # one of the draws themselves, where >= meets equality
        p = draws[tie % n] if n else 0.5
    rng = random.Random(seed)
    coins = lbs_sim._coins(rng, n, p)
    assert coins.dtype == bool
    assert coins.tolist() == [d >= p for d in draws]
    assert rng.getstate() == one_by_one.getstate()


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
