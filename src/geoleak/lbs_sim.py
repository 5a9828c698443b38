"""Simulated proximity service: registry, distance-ordered screens, policies.

A World is a single-owner mutable state machine; with serialized access,
identical (seed, call sequence) pairs produce identical outputs. Dropping and
display obfuscation consume two independent seeded streams, so whether a user
hides their distance never perturbs who gets dropped or how entries are
ordered.
"""

from __future__ import annotations

import enum
import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np

from .geodesy import EARTH_RADIUS_M, GeoPoint, Projection, geo_centroid, haversine_distance, project
from .obfuscation import ObfuscationPattern, obfuscate_distances


# How far past a bound a user's vectorized distance must lie before it is
# ruled out of a truncated screen. numpy's and math's float64 trigonometry
# differ by a few ulps, which moves the haversine term h by well under 1e-14
# and the distance by at most pi * R * sqrt(1e-14), about 2 m; any margin over
# twice that keeps the filter exact.
_APPROX_SLACK_M = 10.0


def _coins(rng: random.Random, n: int, p: float) -> np.ndarray:
    """[rng.random() >= p for _ in range(n)] as a bool array, from one getrandbits call.

    random() builds its float from two consecutive 32-bit Mersenne Twister
    words a and b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, exactly in float64.
    getrandbits(64 * n) returns the same 2n words, least significant first,
    and leaves the generator where n random() calls would.
    """
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0) >= p


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

    The projection plane is anchored at the centroid of all user positions and
    freezes at the first query; users added or moved later do not shift it.

    A user's location changes only through move_user, which keeps the
    read-side caches current: the coordinate array (_coords) and the row of
    distances from the last ranked observer's location (_dists).

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
        self.projection: Projection | None = None
        master = random.Random(seed)
        self._drop_rng = random.Random(master.getrandbits(64))
        self._obf_rng = random.Random(master.getrandbits(64))
        # read-side caches, dropped by add_user: the users sorted by id, and
        # for truncated screens their positions in that order (a (lat, lon) x
        # users array, kept current by move_user) and show flags
        self._order: list[SimUser] | None = None
        self._coords: np.ndarray | None = None
        self._shows: np.ndarray | None = None
        # haversine_distance(_origin, user.location) per user id, filled as
        # screens rank users; valid while the observer stands on the same
        # GeoPoint object, and move_user drops the mover's entry
        self._origin: GeoPoint | None = None
        self._dists: dict[str, float] = {}

    # -- registry -------------------------------------------------------

    def add_user(self, user_id: str, location: GeoPoint, show_distance: bool = True) -> None:
        if user_id in self.users:
            raise DuplicateId(f"user id already present: {user_id}")
        self.users[user_id] = SimUser(user_id, location, show_distance)
        self._order = self._coords = None

    def move_user(self, user_id: str, location: GeoPoint) -> None:
        self._require(user_id).location = location
        self.moves[user_id] += 1
        self._dists.pop(user_id, None)
        if self._coords is not None:
            column = bisect_left(self._order, user_id, key=attrgetter("id"))
            self._coords[:, column] = (location.lat, location.lon)

    def _require(self, user_id: str) -> SimUser:
        try:
            return self.users[user_id]
        except KeyError:
            raise UnknownUser(f"no such user: {user_id}") from None

    def _freeze(self) -> None:
        # every caller has looked up a user first, so users is not empty
        if self.projection is None:
            self.projection = Projection.at(geo_centroid([u.location for u in self.users.values()]))

    def _id_order(self) -> list[SimUser]:
        if self._order is None:
            self._order = [self.users[uid] for uid in sorted(self.users)]
        return self._order

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
        max_entries) draws them in one _coins batch and hands the kept rows to
        _candidates. An untruncated screen draws them one call at a time: at
        the ~50 users of a preset world the batch costs more than it saves.
        """
        obs = self._require(observer)
        self._freeze()
        project(obs.location, self.projection)  # raises OutOfProjectionRange
        self.queries[observer] += 1
        order = self._id_order()
        p, k = self.policy.drop_probability, self.max_entries
        if k is None or len(order) - 1 <= k:
            draw = self._drop_rng.random
            subjects = [u for u in order if u is not obs and draw() >= p]
        else:
            rows = np.flatnonzero(_coins(self._drop_rng, len(order) - 1, p))
            # the coins skip the observer: shift the rows past its position
            rows += rows >= bisect_left(order, observer, key=attrgetter("id"))
            subjects = [order[j] for j in rows.tolist()] if len(rows) <= k else self._candidates(obs, rows)
        return self._rank_and_render(obs, subjects, self.max_entries)

    def query_favorites(self, observer: str) -> QueryResponse:
        """Distance-sorted view of exactly the observer's favorites; never dropped."""
        obs = self._require(observer)
        self._freeze()
        self.queries[observer] += 1
        targets = [self.users[uid] for uid in sorted(self.favorites.get(observer, ()))]
        return self._rank_and_render(obs, targets)

    def view_profile(self, observer: str, subject: str) -> ScreenEntry:
        """Single-user profile view; never dropped, fresh obfuscation draw per view."""
        obs = self._require(observer)
        subj = self._require(subject)
        self._freeze()
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

    def _candidates(self, obs: SimUser, rows: np.ndarray) -> list[SimUser]:
        """The kept users (rows: their ascending positions in id order) that a
        truncated screen can show or that draw from the obfuscation stream, in
        id order.

        A user is ruled out only when both hold: its vectorized distance is
        more than _APPROX_SLACK_M past the max_entries-th smallest one, so at
        least max_entries kept users are truly closer; and it cannot draw,
        being hidden, under a policy that is not OBFUSCATED, or at least
        mid_cutoff away, where obfuscate_distances draws nothing. NaN is never
        ruled out. The vectorized distances only rule users out; every
        distance that is sorted or shown comes from haversine_distance.
        """
        k = self.max_entries
        order = self._id_order()
        if self._coords is None:
            self._coords = np.array([[u.location.lat for u in order], [u.location.lon for u in order]])
            self._shows = np.array([u.show_distance for u in order])
        lat, lon = self._coords[:, rows]
        here = obs.location
        h = (
            np.sin(np.radians(lat - here.lat) / 2.0) ** 2
            + math.cos(math.radians(here.lat)) * np.cos(np.radians(lat)) * np.sin(np.radians(lon - here.lon) / 2.0) ** 2
        )
        h = np.minimum(h, 1.0)
        approx = 2.0 * EARTH_RADIUS_M * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))
        ruled_out = approx > np.partition(approx, k - 1)[k - 1] + _APPROX_SLACK_M
        if self.policy.mode is PolicyMode.OBFUSCATED:
            ruled_out &= ~self._shows[rows] | (approx >= self.policy.pattern.mid_cutoff + _APPROX_SLACK_M)
        return [order[i] for i in rows[~ruled_out].tolist()]

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
        """Shown distances of (true distance, user) pairs, drawn in their order."""
        mode = self.policy.mode
        if mode is PolicyMode.EXACT_DISTANCE:
            return [d for d, _ in ranked]
        if mode is PolicyMode.HIDDEN_RESPECTS_FLAG:
            return [d if u.show_distance else None for d, u in ranked]
        draws = iter(obfuscate_distances([d for d, u in ranked if u.show_distance], self.policy.pattern, self._obf_rng))
        return [next(draws) if u.show_distance else None for _, u in ranked]
