"""Simulated proximity service: registry, distance-ordered screens, policies.

A World is a single-owner mutable state machine; with serialized access,
identical (seed, call sequence) pairs produce identical outputs. Dropping and
display obfuscation consume two independent seeded streams, so whether a user
hides their distance never perturbs who gets dropped or how entries are
ordered.

Both streams start as random.Random Mersenne Twisters. The first screen that
can truncate hands the drop stream's state over to numpy's MT19937, and every
drop coin after it is drawn there: random() makes its float from two
consecutive 32-bit words a and b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53,
and numpy's Generator.random makes each of its floats from the next two words
of the same state in the same way, so the coins and the stream are the ones
random() calls would give. Only a world that truncates loads numpy.random.

Every distance a screen sorts or shows is haversine_distance's, or lies on
the same side of every tie and every bound of the obfuscation pattern as
haversine_distance's. A screen that can truncate groups the kept users by
their squared chords from the observer (_candidates); under an OBFUSCATED
policy it also ranks them by the distances those chords give (_chord_m),
and haversine_distance recomputes each row within _ARRAY_SLACK_M +
_ARRAY_SLACK_REL * d of a band edge or of a rounding midpoint, the whole run
of rows within that of one another unless it stands on one point with one
chord distance, and each row farther than _ARRAY_EXACT_FROM_M. Every other
screen sorts and shows haversine_distance.
"""

from __future__ import annotations

import enum
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from .geodesy import EARTH_RADIUS_M, GeoPoint, haversine_distance
from .obfuscation import ObfuscationPattern, obfuscate_distances


# How far from a bound a user's distance, as read from its squared chord,
# must lie before a truncated screen trusts which side of it the user is on:
# past the max_entries-th smallest distance, at least near_cutoff, or below
# mid_cutoff. In real arithmetic the squared chord |u - o|^2 between unit
# vectors is exactly 4h, h being haversine_distance's haversine term, and
# 2R asin(sqrt(c) / 2) is the distance. After rounding, the distance read
# from the chord lies within 0.27 m of haversine_distance (measured over 400k
# random pairs; the worst lie within 1e-5 degrees of antipodal, where asin is
# steepest), and within 1e-8 m at service distances. Any margin over twice
# the gap keeps the split exact.
_APPROX_SLACK_M = 10.0

# How close to a tie or to a bound a truncated obfuscated screen's distance,
# as read from its squared chord (_chord_m), must lie before
# haversine_distance is asked for the exact one: _ARRAY_SLACK_M +
# _ARRAY_SLACK_REL * d for distances up to d. Each unit-vector component is
# off by a few ulps (u = 2**-53): np.radians rounds the angle, by up to
# ~2u * pi radians, and cos, sin and their product add a few ulps each,
# whatever SIMD numpy dispatches, so each component lies within ~25u of the
# true one, and the chord within 2 sqrt(3) * 25u. The differences of nearby
# components are exact, and squaring, summing, sqrt and arcsin round by a few
# ulps relative. Up to a quarter circumference (10,007 km) the distance moves
# by at most sqrt(2) R per unit of chord, so |_chord_m - haversine_distance|
# <= 9e-8 m + ~1e-15 * d < 1e-7 m + 1e-14 * d, a hundredth of the slack.
# Measured over ~310k pairs (points co-located, 1e-12 to 0.05 degrees apart
# or anywhere, at the poles and at +-180 degrees; x86-64 with numpy 2.4), the
# worst gap was 3.2e-9 m within 10 km and 5.6e-9 m up to 10,000 km. Past a
# quarter circumference arcsin steepens towards the antipode (gaps up to
# 0.27 m, see _APPROX_SLACK_M), so every row farther than
# _ARRAY_EXACT_FROM_M, 7.5 km short of it, is recomputed.
_ARRAY_SLACK_REL = 1e-9
_ARRAY_SLACK_M = 1e-5
_ARRAY_EXACT_FROM_M = 10_000_000.0


def _unit_vectors(lat: Sequence[float], lon: Sequence[float]) -> np.ndarray:
    """The points (lat[i], lon[i]) on the unit sphere, as the columns of a
    3 x n array: (cos lat cos lon, cos lat sin lon, sin lat)."""
    angles = np.radians((lat, lon))
    cos, sin = np.cos(angles), np.sin(angles)
    return np.array((cos[0] * cos[1], cos[0] * sin[1], sin[0]))


def _chord_m(chord2: float | np.ndarray) -> float | np.ndarray:
    """The great-circle distance, in metres, between unit vectors chord2 =
    |u - v|^2 apart, for one squared chord or an array of them."""
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(np.sqrt(chord2) / 2.0, 1.0))


def _chord2(d: float) -> float:
    """The squared chord between unit vectors d metres apart on the globe:
    0 at or below 0 m, inf at or beyond half the circumference."""
    if d <= 0.0:
        return 0.0
    if d >= math.pi * EARTH_RADIUS_M:
        return math.inf
    return (2.0 * math.sin(d / (2.0 * EARTH_RADIUS_M))) ** 2


def check_max_entries(max_entries: int | None) -> None:
    """Reject a screen length that is not None or a positive integer."""
    if max_entries is not None and (
        isinstance(max_entries, bool) or not isinstance(max_entries, int) or max_entries < 1
    ):
        raise ValueError(f"max_entries must be a positive integer or null, got {max_entries!r}")


class DuplicateId(ValueError):
    """User id already registered."""


class UnknownUser(ValueError):
    """User id not registered."""


class SelfFavorite(ValueError):
    """A user cannot favorite themselves."""


class PolicyMode(enum.Enum):
    EXACT_DISTANCE = "exact_distance"
    HIDDEN_RESPECTS_FLAG = "hidden_respects_flag"
    OBFUSCATED = "obfuscated"


@dataclass(frozen=True)
class DisclosurePolicy:
    """Server-side rule mapping true distances to displayed ones."""

    mode: PolicyMode
    pattern: ObfuscationPattern | None = None
    drop_probability: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(f"drop_probability must be in [0, 1], got {self.drop_probability}")
        if (self.mode is PolicyMode.OBFUSCATED) != (self.pattern is not None):
            raise ValueError("pattern must be present exactly when mode is OBFUSCATED")


@dataclass(slots=True)
class SimUser:
    id: str
    location: GeoPoint
    show_distance: bool


@dataclass(frozen=True)
class ScreenEntry:
    """A screen row or a profile view: a user id and the distance shown for them."""

    user: str
    shown_distance: float | None


@dataclass(frozen=True)
class QueryResponse:
    """A distance-sorted screen, column by column: what any user of the service sees.

    users[i] is the i-th closest user shown and shown[i] the distance shown
    for them (None where hidden). The order, the ids and the shown distances
    are all it carries; the true distance stays inside the World.
    """

    users: tuple[str, ...]
    shown: tuple[float | None, ...]

    @property
    def entries(self) -> tuple[ScreenEntry, ...]:
        """The screen as rows, built on each access."""
        return tuple(map(ScreenEntry, self.users, self.shown))

    def index_of(self, user_id: str) -> int | None:
        try:
            return self.users.index(user_id)
        except ValueError:
            return None


class World:
    """One simulated service instance.

    It ranks users on the sphere and keeps no plane, so a world anywhere on
    the globe serves screens to an observer anywhere.

    A user's location changes only through move_user, which keeps the
    read-side caches current: it drops the mover from the row of distances
    from the last ranked observer's location (_dists) and marks the mover's
    column of the unit vectors (_coords) stale, for the next screen that can
    truncate to refresh.

    It counts what it served: moves and queries of any kind per account
    (moves, queries), and views per profile (profile_views).
    """

    def __init__(self, policy: DisclosurePolicy, seed: int, max_entries: int | None = None):
        check_max_entries(max_entries)
        self.policy = policy
        self.max_entries = max_entries
        self.users: dict[str, SimUser] = {}
        self.favorites: dict[str, list[str]] = {}
        self.moves: Counter[str] = Counter()
        self.queries: Counter[str] = Counter()
        self.profile_views: Counter[str] = Counter()
        master = random.Random(seed)
        # the drop stream is _drop_rng until the first screen that can
        # truncate, and from then on _drop_bits, a numpy Generator on the
        # same MT19937 state (_hand_off); _drop_rng is then None
        self._drop_rng = random.Random(master.getrandbits(64))
        self._drop_bits = None
        self._obf_rng = random.Random(master.getrandbits(64))
        # read-side caches, dropped by add_user: the users sorted by id, their
        # ids in that order and each id's position (column) in it; and for
        # screens that can truncate, per column, the users' unit vectors (a
        # 3 x users array of _unit_vectors) and show flags. _stale holds the
        # users moved since these were last brought up to date (_positions).
        self._order: list[SimUser] | None = None
        self._ids: list[str] | None = None
        self._column: dict[str, int] | None = None
        self._coords: np.ndarray | None = None
        self._shows: np.ndarray | None = None
        self._stale: set[str] = set()
        # haversine_distance(_origin, user.location) per user id, filled as
        # screens rank users exactly; valid while the observer stands on the
        # same GeoPoint object, and move_user drops the mover's entry
        self._origin: GeoPoint | None = None
        self._dists: dict[str, float] = {}

    # -- registry -------------------------------------------------------

    def add_user(self, user_id: str, location: GeoPoint, show_distance: bool = True) -> None:
        if user_id in self.users:
            raise DuplicateId(f"user id already present: {user_id}")
        self.users[user_id] = SimUser(user_id, location, show_distance)
        self._order = self._coords = None
        self._stale.clear()

    def move_user(self, user_id: str, location: GeoPoint) -> None:
        self._require(user_id).location = location
        self.moves[user_id] += 1
        self._dists.pop(user_id, None)
        if self._coords is not None:
            self._stale.add(user_id)

    def _require(self, user_id: str) -> SimUser:
        try:
            return self.users[user_id]
        except KeyError:
            raise UnknownUser(f"no such user: {user_id}") from None

    def _hand_off(self) -> None:
        """Move the drop stream into numpy: the 624 state words and the
        position go to an MT19937, whose Generator draws every later coin.
        A population never shrinks, so a world whose screens could truncate
        once always can, and the stream never moves back."""
        _, internal, _ = self._drop_rng.getstate()
        bits = np.random.MT19937(0)  # a fixed seed skips OS entropy; the state is overwritten
        bits.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
        }
        self._drop_bits = np.random.Generator(bits)
        self._drop_rng = None

    def _id_order(self) -> list[SimUser]:
        if self._order is None:
            self._ids = sorted(self.users)
            self._column = {uid: i for i, uid in enumerate(self._ids)}
            self._order = [self.users[uid] for uid in self._ids]
        return self._order

    def _positions(self) -> None:
        """Bring the unit vectors and show flags up to date: build them after
        add_user, else refresh the columns of the users moved since, in one
        pass. A refreshed column and the build go through different numpy
        calls, so one point may get unit vectors that differ in the last
        bits (see _inexact)."""
        if self._coords is None:
            order = self._id_order()
            self._coords = _unit_vectors([u.location.lat for u in order], [u.location.lon for u in order])
            self._shows = np.array([u.show_distance for u in order])
        elif self._stale:
            cols = np.array([self._column[uid] for uid in self._stale])
            points = [self.users[uid].location for uid in self._stale]
            self._coords[:, cols] = _unit_vectors([q.lat for q in points], [q.lon for q in points])
        self._stale.clear()

    # -- queries ---------------------------------------------------------

    def query_nearby(self, observer: str) -> QueryResponse:
        """Distance-sorted screen of all other users.

        Every other user is independently dropped with the policy's
        drop_probability, with fresh draws on every query. Survivors are
        sorted ascending by true distance (ties by id) regardless of their
        show_distance flag; the flag and policy only govern shown_distance.
        Survivors past max_entries are not shown, but take their obfuscation
        draws as if they were.

        The drop coins are the drop stream's random() calls, one per other
        user in id order. A screen that can truncate (more other users than
        max_entries) draws them in one numpy Generator.random fill, handing
        the stream over to numpy first if no screen has (_hand_off), and
        _candidates picks the kept users to rank: all of them if no more than
        max_entries are kept, else only those that may be shown or draw
        outside the mid band. The users past the cut that provably draw in
        the mid band are counted, and take their draws by count. Under an
        OBFUSCATED policy such a screen is ranked from the distances of the
        squared chords _candidates computed (_obfuscated_screen): each one it
        sorts or shows is either haversine_distance's or lies on the same
        side of every tie and every bound of the pattern, having been
        recomputed wherever it came within _ARRAY_SLACK_M + _ARRAY_SLACK_REL
        * d of one. Under the other policies, whose shown value is the
        distance itself, every ranked distance is a haversine_distance.
        A screen that cannot truncate draws its coins one random() call at a
        time and ranks by haversine_distance, so a world that never
        truncates, such as a ~50-user preset world, never loads numpy.random.
        """
        obs = self._require(observer)
        self.queries[observer] += 1
        order = self._id_order()
        p, k = self.policy.drop_probability, self.max_entries
        if k is None or len(order) - 1 <= k:
            draw = self._drop_rng.random
            return self._rank_and_render(obs, [u for u in order if u is not obs and draw() >= p])
        if self._drop_bits is None:
            self._hand_off()
        rows = np.flatnonzero(self._drop_bits.random(len(order) - 1) >= p)
        # the coins skip the observer: shift the rows past its column
        rows += rows >= self._column[observer]
        cols, chord2, counted = self._candidates(obs, rows)
        if self.policy.mode is PolicyMode.OBFUSCATED:
            return self._obfuscated_screen(obs, cols, chord2, counted)
        return self._rank_and_render(obs, [order[c] for c in cols.tolist()], k)

    def query_favorites(self, observer: str) -> QueryResponse:
        """Distance-sorted view of exactly the observer's favorites; never dropped."""
        obs = self._require(observer)
        self.queries[observer] += 1
        targets = [self.users[uid] for uid in sorted(self.favorites.get(observer, ()))]
        return self._rank_and_render(obs, targets)

    def view_profile(self, observer: str, subject: str) -> ScreenEntry:
        """Single-user profile view; never dropped, fresh obfuscation draw per view."""
        obs = self._require(observer)
        subj = self._require(subject)
        self.queries[observer] += 1
        self.profile_views[subject] += 1
        (shown,) = self._shown([(haversine_distance(obs.location, subj.location), subj)])
        return ScreenEntry(subj.id, shown)

    def add_favorite(self, owner: str, target: str) -> None:
        self._require(owner)
        self._require(target)
        if owner == target:
            raise SelfFavorite(f"{owner} cannot favorite themselves")
        lst = self.favorites.setdefault(owner, [])
        if target not in lst:
            lst.append(target)

    def account(self, user_id: str) -> Account:
        """The registered user's handle on the service; counts nothing."""
        return Account(self._require(user_id).id, self)

    def _candidates(self, obs: SimUser, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """The columns of the kept users of a screen that can truncate (rows:
        their ascending columns) to rank, in id order, their squared chords
        from the observer, and how many more users take one mid-band draw
        past the cut; the rest are ruled out.

        If no more than max_entries users are kept, the cut is infinite:
        every one is ranked and none is counted. Otherwise a user is ranked
        if the distance its squared chord from the observer gives is at most
        _APPROX_SLACK_M past the max_entries-th smallest one, so at least
        max_entries users are ranked. A user past that is truly farther than
        max_entries ranked users, so it ranks past the cut. Such a user is
        counted if it is shown under an OBFUSCATED policy and its chord's
        distance lies in [near_cutoff, mid_cutoff) with _APPROX_SLACK_M to
        spare on both sides, so it truly lies in the mid band. It is ranked
        if it is shown under an OBFUSCATED policy, less than _APPROX_SLACK_M
        past mid_cutoff, and not counted: it may draw in the near band or not
        draw. Every other user is ruled out: it ranks past the cut and draws
        nothing, being hidden, under a policy that is not OBFUSCATED, or at
        least mid_cutoff away. Each bound is compared as a squared chord
        (_chord2), so no user's distance is computed here. The caller ranks
        the users picked here by haversine_distance, or, under an OBFUSCATED
        policy, by the distances of their squared chords, with
        haversine_distance recomputing each row within _ARRAY_SLACK_M +
        _ARRAY_SLACK_REL * d of a tie or a bound.
        """
        k = self.max_entries
        self._positions()
        coords = self._coords
        d = coords - coords[:, self._column[obs.id], None]
        d *= d
        chord2 = (d[0] + d[1] + d[2])[rows]
        cut = _chord_m(np.partition(chord2, k - 1)[k - 1]) if rows.size > k else math.inf
        past = chord2 > _chord2(cut + _APPROX_SLACK_M)
        ranked = ~past
        counted = 0
        if self.policy.mode is PolicyMode.OBFUSCATED:
            near, mid = self.policy.pattern.near_cutoff, self.policy.pattern.mid_cutoff
            drawing = past & self._shows[rows] & (chord2 < _chord2(mid + _APPROX_SLACK_M))
            mid_band = (chord2 >= _chord2(near + _APPROX_SLACK_M)) & (chord2 < _chord2(mid - _APPROX_SLACK_M))
            counted = int(np.count_nonzero(drawing & mid_band))
            ranked |= drawing & ~mid_band
        return rows[ranked], chord2[ranked], counted

    def _obfuscated_screen(self, obs: SimUser, cols: np.ndarray, chord2: np.ndarray, counted: int) -> QueryResponse:
        """The screen of a truncating OBFUSCATED query: the users at cols
        (ascending columns, from _candidates, with their squared chords from
        the observer) ranked by true distance and their shown distances
        drawn, then counted more mid-band draws.

        The users are sorted by the distances of their squared chords
        (_chord_m) with a stable sort, so ties stay in id order. Up to
        _ARRAY_EXACT_FROM_M those distances differ from haversine_distance by
        a hundredth of _ARRAY_SLACK_M + _ARRAY_SLACK_REL * d at most, so
        haversine_distance is asked only for the rows whose last bits could
        change the screen (_inexact); the rows are then sorted again. Every other row is on the
        same side of each tie and each bound as its exact distance, so it
        ranks and shows the same.

        counted, from _candidates, is the number of other users that rank
        past the ranked ones and lie in [near_cutoff, mid_cutoff). Each takes
        one mid-band draw, and every mid-band draw is the same call. A user
        ranked after one of them is at least near_cutoff away too, so it
        takes a mid-band draw or none: the counted draws are taken after the
        ranked users' ones, by count, in the same obfuscate_distances call.
        """
        here, k = obs.location, self.max_entries
        d = _chord_m(chord2)
        by = np.argsort(d, kind="stable")
        redo = by[self._inexact(d[by], cols[by])]
        if redo.size:
            order = self._order
            d[redo] = [haversine_distance(here, order[c].location) for c in cols[redo].tolist()]
            by = np.argsort(d, kind="stable")
        cols, d = cols[by], d[by]
        shows = self._shows[cols]
        draws = iter(obfuscate_distances(d[shows].tolist(), self.policy.pattern, self._obf_rng, counted))
        shown = [next(draws) if show else None for show in shows[:k].tolist()]
        return QueryResponse(tuple([self._ids[c] for c in cols[:k].tolist()]), tuple(shown))

    def _inexact(self, d: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Which rows of ascending chord distances d (of the users at cols)
        need their exact distance: those farther than _ARRAY_EXACT_FROM_M;
        shown ones within the slack of floor_value, near_cutoff, mid_cutoff
        or a rounding midpoint, (m + 1/2) * mid_band in the mid band or
        (m + 1/2) * far_unit in the far band; and every row of a run within
        the slack of one another, unless the whole run stands on one point
        with one chord distance and none of it is recomputed for another
        reason, where the exact distances tie too and the stable sort keeps
        id order either way."""
        p, top = self.policy.pattern, d[-1] if d.size else 0.0
        s = _ARRAY_SLACK_M + _ARRAY_SLACK_REL * top
        # the bounds' slack intervals, merged where they overlap: a row lies
        # in one when an odd number of their ends lie below it
        ends: list[float] = []
        for bound in (p.floor_value, p.near_cutoff, p.mid_cutoff):
            if ends and bound - s <= ends[-1]:
                ends[-1] = bound + s
            else:
                ends += (bound - s, bound + s)
        edge = np.searchsorted(ends, d) % 2 == 1
        q = d / p.mid_band + 0.5
        edge |= (d >= p.near_cutoff) & (d < p.mid_cutoff) & (np.abs(q - np.rint(q)) <= s / p.mid_band)
        if top >= p.mid_cutoff:
            q = d / p.far_unit + 0.5
            edge |= (d >= p.mid_cutoff) & (np.abs(q - np.rint(q)) <= s / p.far_unit)
        inexact = (d > _ARRAY_EXACT_FROM_M) | (edge & self._shows[cols])
        close = d[1:] - d[:-1] < s
        if close.any():
            # a run with a recomputed row is recomputed whole: a row left with
            # its chord distance could sort on the wrong side of an exact one
            apart = close & ((d[1:] != d[:-1]) | inexact[1:] | inexact[:-1])
            order = self._order
            for i in np.flatnonzero(close & ~apart).tolist():
                apart[i] = order[cols[i]].location != order[cols[i + 1]].location
            if apart.any():
                run = np.cumsum(np.concatenate(([False], ~close)))
                inexact |= np.isin(run, run[1:][apart])
        return inexact

    def _rank_and_render(self, obs: SimUser, subjects: list[SimUser], limit: int | None = None) -> QueryResponse:
        """Rank subjects, given in id order, by true distance; a screen of the first limit.

        The sort is stable, so equal distances stay in id order. Every ranked
        subject takes its obfuscation draw, in ranked order. Distances come
        from the row kept for the observer's location, which is started over
        when the observer stands on another GeoPoint object.
        """
        here = obs.location
        if here is not self._origin:
            self._origin, self._dists = here, {}
        dists = self._dists
        for u in subjects:
            if u.id not in dists:
                dists[u.id] = haversine_distance(here, u.location)
        ranked = sorted([(dists[u.id], u) for u in subjects], key=itemgetter(0))
        shown = self._shown(ranked)
        return QueryResponse(tuple([u.id for _, u in ranked[:limit]]), tuple(shown[:limit]))

    def _shown(self, ranked: list[tuple[float, SimUser]]) -> list[float | None]:
        """Shown distances of (true distance, user) pairs in ascending distance, drawn in order."""
        mode = self.policy.mode
        if mode is PolicyMode.EXACT_DISTANCE:
            return [d for d, _ in ranked]
        if mode is PolicyMode.HIDDEN_RESPECTS_FLAG:
            return [d if u.show_distance else None for d, u in ranked]
        draws = iter(obfuscate_distances([d for d, u in ranked if u.show_distance], self.policy.pattern, self._obf_rng))
        return [next(draws) if u.show_distance else None for _, u in ranked]


@dataclass(frozen=True)
class Account:
    """What one user of the service can do and see: its own location, moving
    itself, its nearby and favorites screens, favoriting a user and viewing
    a profile. Each is one World call, counted there as this user's."""

    id: str
    _world: World = field(repr=False)

    @property
    def location(self) -> GeoPoint:
        return self._world.users[self.id].location

    def move(self, location: GeoPoint) -> None:
        self._world.move_user(self.id, location)

    def nearby(self) -> QueryResponse:
        return self._world.query_nearby(self.id)

    def favorites(self) -> QueryResponse:
        return self._world.query_favorites(self.id)

    def favorite(self, target: str) -> None:
        self._world.add_favorite(self.id, target)

    def profile(self, subject: str) -> ScreenEntry:
        return self._world.view_profile(self.id, subject)
