"""Simulated proximity service: registry, distance-ordered screens, policies.

A World is a single-owner mutable state machine; with serialized access,
identical (seed, call sequence) pairs produce identical outputs. Dropping and
display obfuscation consume two independent seeded streams, so whether a user
hides their distance never perturbs who gets dropped or how entries are
ordered.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .geodesy import GeoPoint, Projection, haversine_distance, project
from .obfuscation import ObfuscationPattern, obfuscate_distance


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


@dataclass
class SimUser:
    id: str
    location: GeoPoint
    show_distance: bool


class QueryKind(enum.Enum):
    NEARBY_SCREEN = "nearby_screen"
    FAVORITES = "favorites"
    PROFILE_VIEW = "profile_view"


@dataclass(frozen=True)
class QueryRecord:
    observer: str
    kind: QueryKind
    subject: str | None
    tick: int


@dataclass(frozen=True)
class ScreenEntry:
    """One row of a distance-sorted screen: what any user of the service sees.

    The entry order, the user id and shown_distance are all it carries; the
    true distance stays inside the World.
    """

    user: str
    shown_distance: float | None


@dataclass(frozen=True)
class QueryResponse:
    entries: tuple[ScreenEntry, ...]

    def index_of(self, user_id: str) -> int | None:
        for i, entry in enumerate(self.entries):
            if entry.user == user_id:
                return i
        return None


class World:
    """One simulated service instance.

    The projection plane is anchored at the centroid of all user positions and
    freezes at the first query; users added or moved later do not shift it.
    """

    def __init__(self, policy: DisclosurePolicy, seed: int, max_entries: int | None = None):
        self.policy = policy
        self.seed = seed
        self.max_entries = max_entries
        self.users: dict[str, SimUser] = {}
        self.favorites: dict[str, list[str]] = {}
        self.query_log: list[QueryRecord] = []
        self.projection: Projection | None = None
        self._tick = 0
        master = random.Random(seed)
        self._drop_rng = random.Random(master.getrandbits(64))
        self._obf_rng = random.Random(master.getrandbits(64))

    # -- registry -------------------------------------------------------

    def add_user(self, user_id: str, location: GeoPoint, show_distance: bool = True) -> None:
        if user_id in self.users:
            raise DuplicateId(f"user id already present: {user_id}")
        self.users[user_id] = SimUser(user_id, location, show_distance)

    def move_user(self, user_id: str, location: GeoPoint) -> None:
        self._require(user_id).location = location

    def _require(self, user_id: str) -> SimUser:
        try:
            return self.users[user_id]
        except KeyError:
            raise UnknownUser(f"no such user: {user_id}") from None

    def _freeze(self) -> None:
        # every caller has looked up a user first, so users is not empty
        if self.projection is None:
            lat = sum(u.location.lat for u in self.users.values()) / len(self.users)
            lon = sum(u.location.lon for u in self.users.values()) / len(self.users)
            self.projection = Projection.at(GeoPoint(lat, lon))

    def _log(self, kind: QueryKind, observer: str, subject: str | None) -> None:
        self._tick += 1
        self.query_log.append(QueryRecord(observer, kind, subject, self._tick))

    # -- queries ---------------------------------------------------------

    def query_nearby(self, observer: str) -> QueryResponse:
        """Distance-sorted screen of all other users.

        Every other user is independently dropped with the policy's
        drop_probability, with fresh draws on every query. Survivors are
        sorted ascending by true distance (ties by id) regardless of their
        show_distance flag; the flag and policy only govern shown_distance.
        """
        obs = self._require(observer)
        self._freeze()
        project(obs.location, self.projection)  # raises OutOfProjectionRange
        self._log(QueryKind.NEARBY_SCREEN, observer, None)
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
        return QueryResponse(tuple(entries))

    def query_favorites(self, observer: str) -> QueryResponse:
        """Distance-sorted view of exactly the observer's favorites; never dropped."""
        obs = self._require(observer)
        self._freeze()
        self._log(QueryKind.FAVORITES, observer, None)
        targets = [self.users[uid] for uid in self.favorites.get(observer, [])]
        return QueryResponse(tuple(self._rank_and_render(obs, targets)))

    def view_profile(self, observer: str, subject: str) -> ScreenEntry:
        """Single-user profile view; never dropped, fresh obfuscation draw per view."""
        obs = self._require(observer)
        subj = self._require(subject)
        self._freeze()
        self._log(QueryKind.PROFILE_VIEW, observer, subject)
        return self._render(obs, subj, haversine_distance(obs.location, subj.location))

    def add_favorite(self, owner: str, target: str) -> None:
        self._require(owner)
        self._require(target)
        if owner == target:
            raise SelfFavorite(f"{owner} cannot favorite themselves")
        lst = self.favorites.setdefault(owner, [])
        if target not in lst:
            lst.append(target)

    def _rank_and_render(self, obs: SimUser, subjects: list[SimUser]) -> list[ScreenEntry]:
        ranked = sorted(
            ((haversine_distance(obs.location, u.location), u) for u in subjects),
            key=lambda pair: (pair[0], pair[1].id),
        )
        return [self._render(obs, u, d) for d, u in ranked]

    def _render(self, obs: SimUser, subject: SimUser, true_d: float) -> ScreenEntry:
        mode = self.policy.mode
        shown: float | None
        if mode is PolicyMode.EXACT_DISTANCE:
            shown = true_d
        elif mode is PolicyMode.HIDDEN_RESPECTS_FLAG:
            shown = true_d if subject.show_distance else None
        else:
            if subject.show_distance:
                shown = obfuscate_distance(true_d, self.policy.pattern, self._obf_rng)
            else:
                shown = None
        return ScreenEntry(user=subject.id, shown_distance=shown)
