"""Attacker toolkit: circle-system solving, annulus constraints, grid regions,
and the adaptive colluder-driven localization loop.

Every reading becomes an AnnulusConstraint, a ring around the vantage it was
taken from that holds the victim: an exact distance is a ring of zero width, a
bracket between two flanking users a ring between their distances.

Drivers hold what an ordinary user of the service holds: their own accounts
(lbs_sim.Account), the victim's id and a belief about the obfuscation pattern,
never the World. They read the query surface plus the attacker's own
knowledge: entry order, entry ids, shown distances, and the positions the
attacker chose for its accounts ("side-channel" distances). Responses carry no
true distance, so a driver has none to read. Drivers move and query only
through `_Session`, which keeps the budgets and trajectories; a test walks
this module's syntax tree to hold them to that. The belief is an argument:
harness.locate passes the server's true pattern, so the attacker does not yet
earn it by inferring it from a scatter first (ROADMAP item 2).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geodesy import GeoPoint, LocalPoint, Projection, geo_centroid, haversine_distance, project, unproject, unproject_arrays
from .lbs_sim import Account, QueryResponse
from .obfuscation import ObfuscationPattern, invert_reading

log = logging.getLogger(__name__)


class CollinearAdversaries(ValueError):
    """The three adversary positions are (nearly) collinear."""


class EmptyRegion(ValueError):
    """Constraint intersection is empty or has no bounded member."""


class VictimNeverVisible(RuntimeError):
    """The victim never appeared in any response the attacker obtained."""


class NonConvergence(RuntimeError):
    """Move/query budget exhausted before the target precision was reached."""


@dataclass(frozen=True)
class AnnulusConstraint:
    """Closed ring r_lo <= |q - center| <= r_hi in the projection plane: one
    reading taken from the vantage at center.

    r_lo = r_hi is an exact distance; r_lo = 0 degenerates to a disc; r_hi =
    inf to the complement of a disc.
    """

    center: LocalPoint
    r_lo: float
    r_hi: float

    def __post_init__(self):
        if not 0.0 <= self.r_lo <= self.r_hi:
            raise ValueError(f"need 0 <= r_lo <= r_hi, got ({self.r_lo}, {self.r_hi})")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.r_hi)


# -- exact trilateration ---------------------------------------------------

# degenerate-geometry guard; callers should keep anchors well spread
_MIN_TRIANGLE_AREA_M2 = 1.0


def check_anchor_triangle(anchors: Sequence[tuple[float, float]]) -> None:
    """Raise CollinearAdversaries when three planar anchors span a triangle
    of at most 1 m^2, too thin to trilaterate from."""
    (x1, y1), (x2, y2), (x3, y3) = anchors
    area = abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)) / 2.0
    if area <= _MIN_TRIANGLE_AREA_M2:
        raise CollinearAdversaries(f"anchor triangle area {area:.1f} m^2 too small")


def solve_circle_system(anchors: Sequence[tuple[float, float]], dists: Sequence[float]) -> tuple[float, float]:
    """Solve three simultaneous circle equations in the plane.

    Subtracting the first circle from the other two leaves a 2x2 linear
    system, which is solved exactly; with inconsistent distances this is the
    point whose pairwise power differences match the readings.

    Raises:
        CollinearAdversaries: see check_anchor_triangle.
    """
    check_anchor_triangle(anchors)
    (x1, y1), (x2, y2), (x3, y3) = anchors
    d1, d2, d3 = dists
    a11, a12 = 2.0 * (x2 - x1), 2.0 * (y2 - y1)
    b1 = d1 * d1 - d2 * d2 - x1 * x1 + x2 * x2 - y1 * y1 + y2 * y2
    a21, a22 = 2.0 * (x3 - x1), 2.0 * (y3 - y1)
    b2 = d1 * d1 - d3 * d3 - x1 * x1 + x3 * x3 - y1 * y1 + y3 * y3
    det = a11 * a22 - a12 * a21
    return (b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det


def trilaterate(rings: Sequence[AnnulusConstraint], proj: Projection) -> tuple[GeoPoint, float]:
    """Locate the point on three zero-width rings (exact distances).

    Returns the solved point plus the residual max_i | |p - A_i| - D_i |,
    which is ~0 for consistent readings and grows with noise.

    The solve is planar, but the readings are great-circle distances, so even
    exact readings leave a metric error that grows with latitude. Measured
    with the victim within ±1.5 km of the centre and vantages 2.2 km out, the
    worst error over 400 worlds per latitude was 0.42 m at 35°, 1.05 m at 60°
    and 3.4 m at 80° (none at the equator). This costs accuracy, not
    soundness: no region is derived from the solved point.
    """
    if len(rings) != 3:
        raise ValueError(f"need exactly 3 rings, got {len(rings)}")
    if any(r.r_lo != r.r_hi for r in rings):
        raise ValueError("trilateration needs zero-width rings (r_lo == r_hi)")
    anchors = [(r.center.x, r.center.y) for r in rings]
    dists = [r.r_lo for r in rings]
    x, y = solve_circle_system(anchors, dists)
    residual = max(abs(math.hypot(x - ax, y - ay) - d) for (ax, ay), d in zip(anchors, dists))
    return unproject(LocalPoint(x, y), proj), residual


# -- candidate regions ------------------------------------------------------

_MAX_GRID_CELLS = 50_000_000


@dataclass
class CandidateRegion:
    """Occupancy grid over the projection plane.

    Cells are axis-aligned squares on an absolute grid (cell (i, j) spans
    [i*cell, (i+1)*cell) x [j*cell, (j+1)*cell)), so appending constraints can
    only clear cells, never shift them. A cell is kept when its square can
    intersect every constraint (interval test on the distance range from the
    square to each annulus center), which makes containment of any point
    satisfying all constraints conservative: guaranteed, not probabilistic.
    """

    projection: Projection
    cell_size: float
    i0: int
    j0: int
    occupied: np.ndarray
    # the occupied cells' (rows, columns) in np.nonzero's order: the ones
    # intersect_constraints found, or for a grid alone derived on first use
    _cells: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False, compare=False)

    def _occupied_cells(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cells is None:
            self._cells = np.nonzero(self.occupied)
        return self._cells

    def area(self) -> float:
        return float(self._occupied_cells()[0].size) * self.cell_size**2

    def centroid_local(self) -> LocalPoint:
        # np.mean's float: it sums integers exactly below 2**53 and divides once
        js, is_ = self._occupied_cells()
        x = (int(is_.sum()) / is_.size + self.i0 + 0.5) * self.cell_size
        y = (int(js.sum()) / js.size + self.j0 + 0.5) * self.cell_size
        return LocalPoint(x, y)

    def centroid(self) -> GeoPoint:
        return unproject(self.centroid_local(), self.projection)

    def contains_local(self, q: LocalPoint) -> bool:
        i = math.floor(q.x / self.cell_size) - self.i0
        j = math.floor(q.y / self.cell_size) - self.j0
        if 0 <= j < self.occupied.shape[0] and 0 <= i < self.occupied.shape[1]:
            return bool(self.occupied[j, i])
        return False

    def contains(self, p: GeoPoint) -> bool:
        return self.contains_local(project(p, self.projection))

    def cell_rings(self) -> list[list[tuple[float, float]]]:
        """Occupied cells as closed (lon, lat) rings, counter-clockwise."""
        js, is_ = self._occupied_cells()
        c = self.cell_size
        x0, y0 = (self.i0 + is_) * c, (self.j0 + js) * c
        # unproject maps x to lon and y to lat independently, so two opposite
        # corners give all four with the same floats and range checks.
        # Neighbours share no corner: (i0 + i) * c + c and (i0 + i + 1) * c
        # may round apart.
        lo_lat, lo_lon = unproject_arrays(x0, y0, self.projection)
        hi_lat, hi_lon = unproject_arrays(x0 + c, y0 + c, self.projection)
        return [
            [(w, s), (e, s), (e, n), (w, n), (w, s)]
            for w, s, e, n in zip(lo_lon.tolist(), lo_lat.tolist(), hi_lon.tolist(), hi_lat.tolist())
        ]


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _ring_meets(cx, cy, r_lo, r_hi, x0: np.ndarray, y0: np.ndarray, cell_size: float) -> np.ndarray:
    """Which cells, given by their lower-left corners (x0, y0), have a square
    that can meet the ring r_lo <= |q - (cx, cy)| <= r_hi: the distance range
    from the square to the center overlaps [r_lo, r_hi]. Works elementwise, so
    any shapes that broadcast (one ring or a column of rings against a row of
    cells) give every (ring, cell) pair the same float64 result."""
    dx_min = np.maximum(np.maximum(x0 - cx, cx - (x0 + cell_size)), 0.0)
    dy_min = np.maximum(np.maximum(y0 - cy, cy - (y0 + cell_size)), 0.0)
    dx_max = np.maximum(np.abs(cx - x0), np.abs(cx - (x0 + cell_size)))
    dy_max = np.maximum(np.abs(cy - y0), np.abs(cy - (y0 + cell_size)))
    return (np.hypot(dx_min, dy_min) <= r_hi) & (np.hypot(dx_max, dy_max) >= r_lo)


def _row_spans(c: AnnulusConstraint, xs: np.ndarray, ys: np.ndarray, cell_size: float) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, row by row in ascending order, of the cells
    whose x range meets ring c's band on their row: a superset of the cells
    _ring_meets keeps for c (see intersect_constraints)."""
    cx, cy = c.center.x, c.center.y
    slack = 1e-6 + 1e-6 * c.r_hi
    dy_min = np.maximum(np.maximum(ys - cy, cy - (ys + cell_size)), 0.0)
    dy_max = np.maximum(np.abs(cy - ys), np.abs(cy - (ys + cell_size)))
    rows = np.flatnonzero(dy_min <= c.r_hi)
    dy_min, dy_max = dy_min[rows], dy_max[rows]
    # sqrt(r^2 - d^2) as sqrt(r - d) sqrt(r + d): no cancellation and no
    # overflow. r_hi - dy_min >= 0 on every row kept; r_lo - dy_max is clamped
    # at 0 on rows the hole does not reach
    outer = np.sqrt(c.r_hi - dy_min) * np.sqrt(c.r_hi + dy_min) + slack
    hole = np.sqrt(np.maximum(c.r_lo - dy_max, 0.0)) * np.sqrt(c.r_lo + dy_max) - slack
    # per row, [cx - outer, cx - hole] and [cx + hole, cx + outer] as half-open
    # column ranges: the first cell whose right edge reaches the band's start,
    # up to the last whose left edge reaches its end
    starts = np.searchsorted(xs + cell_size, np.stack([cx - outer, cx + hole], axis=1))
    stops = np.searchsorted(xs, np.stack([cx - hole, cx + outer], axis=1), side="right")
    # where the bands overlap (no hole on the row, or one narrower than the
    # slack), the second range starts after the first: no cell is listed twice
    starts[:, 1] = np.maximum(starts[:, 1], stops[:, 0])
    counts = np.maximum(stops - starts, 0).ravel()
    # column k of a range is its start plus k's offset from the range's first slot
    cols = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - starts.ravel(), counts)
    return np.repeat(np.repeat(rows, 2), counts), cols


# (rings x cells) elements tested at once; bounds the stacked test's memory
_BLOCK = 1 << 18


def intersect_constraints(
    constraints: Sequence[AnnulusConstraint], cell_size: float, proj: Projection
) -> CandidateRegion:
    """Rasterize the intersection of annulus constraints onto the plane.

    Only cells on the row spans of the narrowest bounded ring (by r_hi -
    r_lo) are candidates, and every ring is tested on them at once, stacked
    as a (rings x candidates) broadcast of the one cell test in _ring_meets.
    A cell's test does not depend on the candidates, so the region is the
    one the full grid would give.

    The spans are a superset of the cells that meet the ring. On a row, a
    cell meets it when its nearest x distance to the center is at most
    outer = sqrt(r_hi^2 - dy_min^2) and its farthest is at least hole =
    sqrt(r_lo^2 - dy_max^2) (0 when r_lo <= dy_max), with dy_min and dy_max
    the row's nearest and farthest y distance to the center; a row with
    dy_min > r_hi has no such cell, because hypot never rounds below either
    argument. So the cells lie in [cx - outer, cx - hole] and
    [cx + hole, cx + outer]. Both bands are widened by a slack of
    1e-6 m + 1e-6 r_hi. The largest float error it must cover is at a row
    tangent to the ring, where a last-place error in the cell test's hypot
    moves its x edge by up to ~sqrt(2^-51) r_hi ~ 2e-8 r_hi; every other
    error is a few last places of the coordinates. A slack only adds
    candidates, which the cell test then rejects.

    Raises:
        ValueError: cell_size is not finite and positive.
        EmptyRegion: no bounded constraint, or the intersection is empty.
        NonConvergence: the grid over the constraints' extent would hold
            more than _MAX_GRID_CELLS cells.
    """
    _require_finite_positive("cell_size", cell_size)
    bounded = [c for c in constraints if c.bounded]
    if not bounded:
        raise EmptyRegion("no bounded constraint; cannot rasterize an unbounded region")
    x_lo = max(c.center.x - c.r_hi for c in bounded)
    x_hi = min(c.center.x + c.r_hi for c in bounded)
    y_lo = max(c.center.y - c.r_hi for c in bounded)
    y_hi = min(c.center.y + c.r_hi for c in bounded)
    if x_lo >= x_hi or y_lo >= y_hi:
        raise EmptyRegion("constraint bounding boxes do not overlap")
    i0, i1 = math.floor(x_lo / cell_size), math.ceil(x_hi / cell_size)
    j0, j1 = math.floor(y_lo / cell_size), math.ceil(y_hi / cell_size)
    if (i1 - i0) * (j1 - j0) > _MAX_GRID_CELLS:
        raise NonConvergence(f"{(i1 - i0) * (j1 - j0)} grid cells over the constraint extent, past {_MAX_GRID_CELLS}")
    xs = np.arange(i0, i1, dtype=float) * cell_size
    ys = np.arange(j0, j1, dtype=float) * cell_size
    rows, cols = _row_spans(min(bounded, key=lambda c: c.r_hi - c.r_lo), xs, ys, cell_size)
    # one row per ring, to broadcast against a row of candidate cells
    cx, cy, r_lo, r_hi = np.array([(c.center.x, c.center.y, c.r_lo, c.r_hi) for c in constraints]).T[:, :, None]
    keep = np.empty(rows.size, dtype=bool)
    step = max(1, _BLOCK // len(constraints))
    for k in range(0, rows.size, step):
        x0, y0 = xs[cols[k : k + step]], ys[rows[k : k + step]]
        keep[k : k + step] = _ring_meets(cx, cy, r_lo, r_hi, x0, y0, cell_size).all(axis=0)
    if not keep.any():
        raise EmptyRegion("observations are mutually inconsistent")
    cells = rows[keep], cols[keep]  # row by row, ascending columns: np.nonzero's order
    occupied = np.zeros((j1 - j0, i1 - i0), dtype=bool)
    occupied[cells] = True
    region = CandidateRegion(projection=proj, cell_size=cell_size, i0=i0, j0=j0, occupied=occupied)
    region._cells = cells
    return region


# -- attack drivers ----------------------------------------------------------

# far edge of the first bracket probed from a vantage while the victim's
# distance has no upper bound; doubled until a sandwich closes
_INITIAL_UPPER_M = 5000.0


@dataclass
class ColludingOptions:
    epsilon: float = 20.0
    cell_size: float = 5.0
    use_favorites: bool = False
    max_moves: int = 80
    max_queries: int = 40

    def __post_init__(self):
        _require_finite_positive("epsilon", self.epsilon)
        _require_finite_positive("cell_size", self.cell_size)
        for name in ("max_moves", "max_queries"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass
class AttackReport:
    """What the attacker concluded from one run. The run's move and query
    counts are the world's (World.moves, World.queries)."""

    estimate: GeoPoint
    region: CandidateRegion | None = None
    trajectories: dict[str, list[GeoPoint]] = field(default_factory=dict)
    accepted_steps: tuple[int, ...] = ()
    initial_separations: tuple[float, ...] = ()
    observations: tuple[AnnulusConstraint, ...] = ()

    @property
    def region_area(self) -> float:
        return self.region.area() if self.region is not None else 0.0


class _Session:
    """One attack run's only way to move and query: moves the attacker's own
    accounts and keeps their trajectories (the last point is where an account
    is now), runs the first account's queries within the budget when options
    are given, and builds the report. Both budgets read only the session's own
    tallies, the moves it made and the screens it got back, so a reused world
    gives each run its full budget. Its projection is centred on the
    vantages, and pattern is the attacker's belief about the obfuscation
    pattern (None: shown distances are taken as true)."""

    def __init__(
        self,
        accounts: Sequence[Account],
        vantages: Sequence[GeoPoint],
        victim_id: str,
        pattern: ObfuscationPattern | None,
        n_accounts: int = 1,
        options: ColludingOptions | None = None,
    ):
        ids = {a.id for a in accounts}
        if len(accounts) != n_accounts or len(ids) != n_accounts:
            raise ValueError(f"need exactly {n_accounts} distinct attacker-controlled accounts")
        if victim_id in ids:
            raise ValueError("victim cannot be one of the attacker accounts")
        if len(vantages) != 3:
            raise ValueError("need exactly 3 vantage points")
        self.observer = accounts[0]
        self.pattern = pattern
        self.victim_id = victim_id
        self.options = options
        self.proj = Projection.at(geo_centroid(vantages))
        self.moves = 0
        self.queries = 0
        self.victim_seen = False
        self.trajectories: dict[str, list[GeoPoint]] = {a.id: [a.location] for a in accounts}

    def move(self, account: Account, where: GeoPoint) -> None:
        if self.options is not None and self.moves >= self.options.max_moves:
            self.give_up("move budget exhausted")
        account.move(where)
        self.moves += 1
        self.trajectories[account.id].append(where)

    def observe(self, favorites: bool = False) -> QueryResponse:
        if self.options is not None and self.queries >= self.options.max_queries:
            self.give_up("query budget exhausted")
        resp = self.observer.favorites() if favorites else self.observer.nearby()
        self.queries += 1
        if resp.index_of(self.victim_id) is not None:
            self.victim_seen = True
        return resp

    def sight(self, favorites: bool, *uids: str) -> tuple[QueryResponse, tuple[int, ...]]:
        """Re-query from the first account until every uid is on its screen,
        burning budget on each miss; returns the screen and the uids' ranks."""
        while True:
            resp = self.observe(favorites)
            ranks = tuple(resp.index_of(uid) for uid in uids)
            if None not in ranks:
                return resp, ranks

    def side_distance(self, vantage: GeoPoint, uid: str) -> float:
        return haversine_distance(vantage, self.trajectories[uid][-1])

    def give_up(self, why: str) -> None:
        if not self.victim_seen and not self.options.use_favorites:
            raise VictimNeverVisible(f"{why}; victim never appeared in any response")
        raise NonConvergence(why)

    def report(self, estimate: GeoPoint, **details) -> AttackReport:
        return AttackReport(estimate=estimate, trajectories=self.trajectories, **details)


def _flank_bounds(session: _Session, resp: QueryResponse, victim_index: int, vantage: GeoPoint) -> tuple[float, float]:
    """Lower/upper bound on the vantage-to-victim distance from the entries
    flanking the victim. Hidden flankers the attacker does not control yield
    no bound (0 / inf). A reading is inverted with the session's pattern
    belief when there is one, and taken as the true distance otherwise."""

    def bound(i: int, upper: bool) -> float | None:
        uid, shown = resp.users[i], resp.shown[i]
        if uid in session.trajectories:
            return session.side_distance(vantage, uid)
        if shown is None:
            return None
        if session.pattern is None:
            return shown
        interval = invert_reading(shown, session.pattern)
        if interval is None:
            return None
        return interval[1] if upper else interval[0]

    lo, hi = 0.0, math.inf
    if victim_index > 0:
        b = bound(victim_index - 1, upper=False)
        if b is not None:
            lo = b
    if victim_index < len(resp.users) - 1:
        b = bound(victim_index + 1, upper=True)
        if b is not None:
            hi = b
    return lo, hi


def default_vantage_points(reference_points: Sequence[GeoPoint]) -> tuple[GeoPoint, GeoPoint, GeoPoint]:
    """Bundled survey triangle rescaled to the reference population: the Kyoto
    landmark offsets around the lab point, shrunk or grown so the farthest
    vantage sits at the population's extent from its centroid."""
    from .fixtures import SCIENCE_FRONTIER_LAB, SURVEY_TRIANGLE

    center = geo_centroid(reference_points)
    proj = Projection.at(center)
    extent = max((project(p, proj).norm() for p in reference_points), default=0.0)
    radius = max(500.0, extent)
    anchor = Projection.at(SCIENCE_FRONTIER_LAB)
    offsets = [project(p, anchor) for p in SURVEY_TRIANGLE]
    scale = radius / max(o.norm() for o in offsets)
    return tuple(
        unproject(LocalPoint(o.x * scale, o.y * scale), proj) for o in offsets
    )


def _direction_from(
    v_local: LocalPoint, annuli: list[AnnulusConstraint], proj: Projection, fallback: LocalPoint, coarse: float
) -> tuple[float, float]:
    target = fallback
    bounded = [a for a in annuli if a.bounded]
    if bounded:
        try:
            target = intersect_constraints(bounded, coarse, proj).centroid_local()
        except EmptyRegion:
            pass
    dx, dy = target.x - v_local.x, target.y - v_local.y
    n = math.hypot(dx, dy)
    if n < 1.0:
        return (0.0, 1.0)
    return (dx / n, dy / n)


def _on_ray(v_local: LocalPoint, direction: tuple[float, float], r: float, proj: Projection) -> GeoPoint:
    return unproject(LocalPoint(v_local.x + direction[0] * r, v_local.y + direction[1] * r), proj)


def colluding_trilateration(
    accounts: Sequence[Account],
    vantages: Sequence[GeoPoint],
    victim_id: str,
    pattern: ObfuscationPattern | None,
    options: ColludingOptions | None = None,
) -> AttackReport:
    """Locate a victim whose distance may be hidden or obfuscated by keeping
    them sandwiched between two attacker-controlled accounts.

    accounts are the observer and the inner and outer colluder, in that
    order, and pattern the belief an obfuscated flanker's reading is inverted
    with. Per vantage point: read the screen once to find the victim's rank
    and take coarse bounds from the flanking entries, then repeatedly move the
    two colluders a quarter of the way in from the current bracket and confirm
    the victim still sorts between them. A confirmed placement is a sound
    annulus (radii are the attacker-computed true colluder distances); a
    broken sandwich tells which side the victim fell on, so the bracket
    shrinks on every usable observation. Stops when a confirmed bracket is
    narrower than options.epsilon. The victim's profile is never queried.

    Raises:
        VictimNeverVisible: budgets ran out and the victim was never seen
            (only without favorites).
        NonConvergence: move/query budget exhausted.
    """
    opts = options or ColludingOptions()
    session = _Session(accounts, vantages, victim_id, pattern, n_accounts=3, options=opts)
    observer, inner, outer = accounts
    proj = session.proj
    fallback_target = LocalPoint(0.0, 0.0)  # the vantages' centroid, where the plane is anchored
    coarse_cell = max(opts.cell_size, opts.epsilon)

    annuli: list[AnnulusConstraint] = []
    accepted_steps: list[int] = []
    initial_separations: list[float] = []

    def record(ring: AnnulusConstraint) -> None:
        if not annuli or annuli[-1] != ring:
            annuli.append(ring)

    if opts.use_favorites:
        observer.favorite(inner.id)
        observer.favorite(outer.id)
        # anchor the victim on first public sighting; afterwards the favorites
        # view is immune to dropping
        session.move(observer, vantages[0])
        session.sight(False, victim_id)
        observer.favorite(victim_id)

    for vantage in vantages:
        session.move(observer, vantage)
        v_local = project(vantage, proj)
        direction = _direction_from(v_local, annuli, proj, fallback_target, coarse_cell)

        # first sighting from this vantage; flankers give the starting bracket
        resp, (vi,) = session.sight(opts.use_favorites, victim_id)
        lo, hi = _flank_bounds(session, resp, vi, vantage)
        if lo > 0.0 or math.isfinite(hi):
            record(AnnulusConstraint(v_local, lo, hi))

        accepted = 0
        s0: float | None = None
        expand = max(_INITIAL_UPPER_M, lo * 2.0)
        while True:
            # the bracket invariant lo < AV < hi is maintained exactly by every
            # update below, so a narrow bracket is itself a finished vantage
            if math.isfinite(hi):
                if s0 is None:
                    s0 = hi - lo
                if hi - lo <= opts.epsilon:
                    record(AnnulusConstraint(v_local, lo, hi))
                    break
            top = hi if math.isfinite(hi) else expand
            width = top - lo
            t_inner = lo + width / 4.0
            t_outer = top - width / 4.0
            session.move(inner, _on_ray(v_local, direction, t_inner, proj))
            session.move(outer, _on_ray(v_local, direction, t_outer, proj))
            r_inner = session.side_distance(vantage, inner.id)
            r_outer = session.side_distance(vantage, outer.id)
            _, (vi, ii, oi) = session.sight(opts.use_favorites, victim_id, inner.id, outer.id)
            if ii < vi < oi:
                if s0 is not None:
                    accepted += 1
                lo, hi = r_inner, r_outer
                record(AnnulusConstraint(v_local, r_inner, r_outer))
            elif vi < ii:
                hi = min(hi, r_inner)
            else:  # vi > oi: victim farther than both colluders
                lo = max(lo, r_outer)
                if not math.isfinite(hi):
                    expand *= 2.0
                    if expand > 100_000.0:
                        session.give_up("victim distance bracket never established")
        accepted_steps.append(accepted)
        initial_separations.append(s0 if s0 is not None else 0.0)
        log.debug("vantage %s bounded to [%.1f, %.1f] after %d accepted steps", vantage, lo, hi, accepted)

    region = intersect_constraints(annuli, opts.cell_size, proj)
    return session.report(
        region.centroid(),
        region=region,
        accepted_steps=tuple(accepted_steps),
        initial_separations=tuple(initial_separations),
        observations=tuple(annuli),
    )


def passive_sandwich_survey(
    accounts: Sequence[Account],
    vantages: Sequence[GeoPoint],
    victim_id: str,
    pattern: ObfuscationPattern | None,
    cell_size: float = ColludingOptions.cell_size,
) -> AttackReport:
    """Non-adaptive variant: one nearby query per vantage point, bounds taken
    from whatever real users happen to flank the victim, with obfuscated
    readings inverted by the pattern belief. The one attacker account's
    trajectory is the survey path, the vantage points alone.

    Raises:
        ValueError: cell_size is not finite and positive (before any move).
        VictimNeverVisible: victim absent from all three responses.
        EmptyRegion: no bounded constraint was collected, or constraints clash.
    """
    _require_finite_positive("cell_size", cell_size)
    session = _Session(accounts, vantages, victim_id, pattern)
    (observer,) = accounts
    constraints: list[AnnulusConstraint] = []
    for vantage in vantages:
        session.move(observer, vantage)
        resp = session.observe()
        vi = resp.index_of(victim_id)
        if vi is None:
            continue
        lo, hi = _flank_bounds(session, resp, vi, vantage)
        if lo > 0.0 or math.isfinite(hi):
            constraints.append(AnnulusConstraint(project(vantage, session.proj), lo, hi))
    if not session.victim_seen:
        raise VictimNeverVisible("victim absent from every vantage response")
    region = intersect_constraints(constraints, cell_size, session.proj)
    del session.trajectories[observer.id][0]  # where the account started is not part of the survey
    return session.report(region.centroid(), region=region)


def exact_trilateration_attack(
    accounts: Sequence[Account],
    vantages: Sequence[GeoPoint],
    victim_id: str,
) -> AttackReport:
    """The original attack: view the victim's profile from three positions and
    intersect the three distance circles, with one attacker account. Requires
    the shown distance to be present (it is taken at face value, so against
    an obfuscated service the fix is noisy)."""
    session = _Session(accounts, vantages, victim_id, None)
    (observer,) = accounts
    rings = []
    for vantage in vantages:
        session.move(observer, vantage)
        d = observer.profile(victim_id).shown_distance
        if d is None:
            raise VictimNeverVisible("victim's distance is hidden from profile views")
        rings.append(AnnulusConstraint(project(vantage, session.proj), d, d))
    estimate, _ = trilaterate(rings, session.proj)
    return session.report(estimate)
