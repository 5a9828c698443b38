"""The two benchmark workloads: input generation, one op, and the output check.

Every input is generated from the workload seed when a workload object is
constructed, before any op is timed; the library receives only the generated
``Scenario`` objects, user lists and op scripts. ``geoleak.scenarios`` and
``geoleak.fixtures`` are used for inputs only.

A workload exposes:

* ``size``: the length of its op script; op ``p`` takes input ``p % size``.
* ``groups``: how the timed loop's ops are grouped for ``op_ms_p50``, the
  median of the groups' mean latencies; op ``p`` is in group ``p % groups``.
  Ops in a group have the same input (stateless workloads), or do the same
  work on a changing state (``service-churn``).
* ``stateful``: whether ops change state that later ops see. Stateless ops
  repeat exactly, so any two ops with the same input must give the same
  digest; a stateful stream is checked by replaying its first ``check_ops``
  ops on a fresh state.
* ``check_ops``: how many ops from the start of the stream the reference
  digests, the replay and the traced run cover.
* ``pass_summary``: whether the workload has an ``end_pass(results,
  out_dir)``, timed work done after each whole pass over the script (the
  preset suite's ``metrics.csv``). It returns the file it wrote, for the
  runner to check, and the timed loop stops only at the end of a pass.
* ``new_state()``: what an op needs besides its input (the service-churn
  world; ``None`` elsewhere).
* ``run(state, p, out_dir)``: one op, the timed unit.
* ``check(p, result, out_dir)``: the untimed output check. It returns the
  op's digest and the number of artifact bytes, and removes the artifacts so
  that the next op writes them afresh.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from array import array
from pathlib import Path

from geoleak import harness, scenarios
from geoleak.fixtures import SCIENCE_FRONTIER_LAB
from geoleak.geodesy import GeoPoint
from geoleak.harness import MetricsRow, Scenario, SuiteSummary
from geoleak.lbs_sim import DisclosurePolicy, PolicyMode, World
from geoleak.obfuscation import HORNET_DEFAULT

# the MetricsRow fields that metrics.csv carries; listed by name so that a
# field added later does not change the digest
_ROW_FIELDS = (
    "scenario",
    "seed",
    "outcome",
    "localization_error",
    "region_area",
    "moves",
    "queries",
    "victim_profile_queries",
)

_M_PER_DEG_LAT = 6_371_000.0 * math.pi / 180.0


class OutputMismatch(AssertionError):
    """An op's output broke an invariant the benchmark checks."""


def _disc_point(rng: random.Random, center: GeoPoint, radius_m: float) -> GeoPoint:
    """Uniform point in a disc, by the benchmark's own equirectangular offset."""
    theta = 2.0 * math.pi * rng.random()
    r = radius_m * math.sqrt(rng.random())
    lat = center.lat + r * math.sin(theta) / _M_PER_DEG_LAT
    lon = center.lon + r * math.cos(theta) / (_M_PER_DEG_LAT * math.cos(math.radians(center.lat)))
    return GeoPoint(lat, lon)


def _row_bytes(row: MetricsRow) -> bytes:
    return repr(tuple(getattr(row, f) for f in _ROW_FIELDS)).encode()


def _hash_files(h, op_dir: Path) -> int:
    """Feed every file in op_dir (name and bytes, sorted by name) to h, then
    delete them; returns the byte count."""
    total = 0
    if not op_dir.is_dir():
        return total
    for path in sorted(op_dir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        path.unlink()
    return total


def summarize(rows: list[MetricsRow]) -> list[SuiteSummary]:
    """Per-scenario success rate and median error, as `geoleak run` reports them."""
    out = []
    for name in sorted({r.scenario for r in rows}):
        mine = [r for r in rows if r.scenario == name]
        errors = [r.localization_error for r in mine if r.outcome == "success"]
        out.append(
            SuiteSummary(
                scenario=name,
                runs=len(mine),
                success_rate=len(errors) / len(mine),
                median_error=statistics.median(errors) if errors else None,
            )
        )
    return out


class PresetSuite:
    """The five locator presets, each over derived seeds. Ops are
    `harness.run_scenario(scenario, out_dir, seed)` calls, one directory of
    artifacts per script entry; metrics.csv is written once per pass."""

    name = "preset-suite"
    stateful = False
    pass_summary = True
    PRESETS = ("kyoto-exact", "grindr-hidden", "sparse-remote", "hornet-no-favorites", "hornet-favorites")
    SEEDS_PER_PRESET = 20

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        self.script: list[tuple[Scenario, int]] = []
        for name in self.PRESETS:
            scenario = scenarios.preset(name)
            self.script += [(scenario, rng.randrange(1, 2**31)) for _ in range(self.SEEDS_PER_PRESET)]

    @property
    def size(self) -> int:
        return len(self.script)

    @property
    def groups(self) -> int:
        return self.size

    @property
    def check_ops(self) -> int:
        return self.size

    def new_state(self):
        return None

    def run(self, state, p: int, out_dir: Path) -> MetricsRow:
        scenario, seed = self.script[p % self.size]
        return harness.run_scenario(scenario, out_dir=out_dir / str(p % self.size), seed=seed)

    def check(self, p: int, row: MetricsRow, out_dir: Path) -> tuple[str, int]:
        h = hashlib.sha256(_row_bytes(row))
        nbytes = _hash_files(h, out_dir / str(p % self.size))
        return h.hexdigest(), nbytes

    def end_pass(self, rows: list[MetricsRow], out_dir: Path) -> Path:
        rows = sorted(rows, key=lambda r: (r.scenario, r.seed))
        path = out_dir / "metrics.csv"
        harness.write_suite_csv(path, rows, summarize(rows))
        return path


class ServiceChurn:
    """One long-lived obfuscated world; each op is 50 moves, then a nearby
    screen, a favorites view and a profile view from one observer."""

    name = "service-churn"
    stateful = True
    pass_summary = False
    USERS = 5000
    RADIUS_M = 3000.0
    HIDDEN_SHARE = 0.3
    OBSERVERS = 50
    FAVORITES = 10
    MOVES_PER_OP = 50
    MOVE_TARGETS = 8192
    MAX_ENTRIES = 100
    size = 1000
    check_ops = 100
    # every op is one screen of the whole population plus small reads, so ops
    # far apart in the stream are grouped; at 55 s each group has ~65 ops
    groups = 50

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        self.world_seed = rng.randrange(1, 2**31)
        self.policy = DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT, drop_probability=0.3)
        self.ids = [f"u{i:05d}" for i in range(self.USERS)]
        self.users = [
            (uid, _disc_point(rng, SCIENCE_FRONTIER_LAB, self.RADIUS_M), rng.random() >= self.HIDDEN_SHARE)
            for uid in self.ids
        ]
        self.shows = {uid: show for uid, _, show in self.users}
        observers = rng.sample(self.ids, self.OBSERVERS)
        self.favorites = {
            obs: rng.sample([uid for uid in self.ids if uid != obs], self.FAVORITES) for obs in observers
        }
        self.targets = [_disc_point(rng, SCIENCE_FRONTIER_LAB, self.RADIUS_M) for _ in range(self.MOVE_TARGETS)]
        # the script is kept as flat integer arrays: a list of tuples would add
        # tens of thousands of objects to every garbage collection in the loop
        self.moves = array("i")  # per op: MOVES_PER_OP (user index, target index) pairs
        self.readers = array("i")  # per op: observer index, subject index
        observer_idx = [self.ids.index(obs) for obs in observers]
        for _ in range(self.size):
            for _ in range(self.MOVES_PER_OP):
                self.moves.extend((rng.randrange(self.USERS), rng.randrange(self.MOVE_TARGETS)))
            observer = rng.choice(observer_idx)
            subject = rng.randrange(self.USERS)
            while subject == observer:
                subject = rng.randrange(self.USERS)
            self.readers.extend((observer, subject))

    def _readers(self, p: int) -> tuple[str, str]:
        k = 2 * (p % self.size)
        return self.ids[self.readers[k]], self.ids[self.readers[k + 1]]

    def new_state(self) -> World:
        world = World(self.policy, self.world_seed, max_entries=self.MAX_ENTRIES)
        for uid, point, show in self.users:
            world.add_user(uid, point, show)
        for owner, targets in self.favorites.items():
            for target in targets:
                world.add_favorite(owner, target)
        return world

    def run(self, world: World, p: int, out_dir: Path):
        n = 2 * self.MOVES_PER_OP
        moves = self.moves[(p % self.size) * n : (p % self.size + 1) * n]
        for i in range(0, n, 2):
            world.move_user(self.ids[moves[i]], self.targets[moves[i + 1]])
        observer, subject = self._readers(p)
        return (
            world.query_nearby(observer),
            world.query_favorites(observer),
            world.view_profile(observer, subject),
        )

    def check(self, p: int, result, out_dir: Path) -> tuple[str, int]:
        observer, subject = self._readers(p)
        nearby, favorites, profile = result
        entries = (*nearby.entries, *favorites.entries, profile)
        ids = [e.user for e in nearby.entries]
        if len(ids) > self.MAX_ENTRIES or observer in ids or len(set(ids)) != len(ids):
            raise OutputMismatch(f"op {p}: malformed nearby screen for {observer}")
        if sorted(e.user for e in favorites.entries) != sorted(self.favorites[observer]):
            raise OutputMismatch(f"op {p}: favorites view differs from {observer}'s favorites")
        if profile.user != subject:
            raise OutputMismatch(f"op {p}: profile view of {profile.user}, expected {subject}")
        if any((e.shown_distance is None) == self.shows[e.user] for e in entries):
            raise OutputMismatch(f"op {p}: a shown distance disagrees with the user's flag")
        h = hashlib.sha256()
        for group in (nearby.entries, favorites.entries, (profile,)):
            h.update(";".join(f"{e.user}={e.shown_distance!r}" for e in group).encode() + b"|")
        return h.hexdigest(), 0


WORKLOADS = {w.name: w for w in (PresetSuite, ServiceChurn)}
