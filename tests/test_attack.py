import ast
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_obfuscation import _patterns

from geoleak import attack, lbs_sim
from geoleak.attack import (
    AnnulusConstraint,
    AttackReport,
    ColludingOptions,
    CollinearAdversaries,
    EmptyRegion,
    NonConvergence,
    VictimNeverVisible,
    colluding_trilateration,
    default_vantage_points,
    exact_trilateration_attack,
    intersect_constraints,
    passive_sandwich_survey,
    solve_circle_system,
    trilaterate,
)
from geoleak.fixtures import (
    DEMACHIYANAGI_STATION,
    HEIAN_SHRINE,
    SCIENCE_FRONTIER_LAB,
    SURVEY_TRIANGLE,
)
from geoleak.geodesy import GeoPoint, LocalPoint, Projection, haversine_distance, project, unproject
from geoleak.harness import VICTIM_ID, MetricsRow, build_world, locate, scenario_geojson
from geoleak.lbs_sim import DisclosurePolicy, PolicyMode, World
from geoleak.obfuscation import HORNET_DEFAULT
from geoleak.scenarios import preset

EXACT = DisclosurePolicy(PolicyMode.EXACT_DISTANCE)
HIDDEN = DisclosurePolicy(PolicyMode.HIDDEN_RESPECTS_FLAG)
HORNET = DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT, drop_probability=0.5)

LAB = SCIENCE_FRONTIER_LAB


def _offset(origin, east, north):
    return unproject(LocalPoint(east, north), Projection.at(origin))


def _uniform_world(policy, seed, count, radius, center=LAB, show=True):
    world = World(policy, seed)
    rng = random.Random(seed * 31 + 7)
    proj = Projection.at(center)
    for i in range(count):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = radius * math.sqrt(rng.random())
        world.add_user(f"bg-{i:03d}", unproject(LocalPoint(r * math.cos(theta), r * math.sin(theta)), proj), show)
    return world


# -- solver ---------------------------------------------------------------------


def test_pythagorean_circle_system():
    x, y = solve_circle_system([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)], [5.0, math.sqrt(65.0), math.sqrt(45.0)])
    assert (x, y) == pytest.approx((3.0, 4.0), abs=1e-9)


def test_collinear_anchors_rejected():
    with pytest.raises(CollinearAdversaries):
        solve_circle_system([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [1.0, 1.0, 1.0])
    # the guard is an area of at most 1 m^2: 1 m^2 raises, 2 m^2 solves
    with pytest.raises(CollinearAdversaries):
        solve_circle_system([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)], [1.0, 1.0, 1.0])
    root2 = math.sqrt(2.0)
    assert solve_circle_system([(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)], [root2, root2, root2]) == (1.0, 1.0)


def _exact_ring(p, d, proj):
    return AnnulusConstraint(project(p, proj), d, d)


def test_trilaterate_recovers_fixture_victim():
    proj = Projection.at(LAB)
    rings = [_exact_ring(p, haversine_distance(p, LAB), proj) for p in SURVEY_TRIANGLE]
    point, residual = trilaterate(rings, proj)
    assert haversine_distance(point, LAB) < 1.0
    assert residual < 0.1


def test_trilaterate_reports_residual_for_noisy_distances():
    proj = Projection.at(LAB)
    rings = [
        _exact_ring(p, haversine_distance(p, LAB) + noise, proj)
        for p, noise in zip(SURVEY_TRIANGLE, (40.0, -25.0, 10.0))
    ]
    _, residual = trilaterate(rings, proj)
    assert residual > 5.0


def test_trilaterate_validates_input():
    proj = Projection.at(LAB)
    rings = [_exact_ring(p, 10.0, proj) for p in SURVEY_TRIANGLE]
    with pytest.raises(ValueError, match="exactly 3 rings"):
        trilaterate(rings[:2], proj)
    with pytest.raises(ValueError, match="zero-width"):
        trilaterate([*rings[:2], AnnulusConstraint(rings[2].center, 5.0, 10.0)], proj)


def test_observation_validation():
    for r_lo, r_hi in ((-5.0, -5.0), (300.0, 200.0), (math.nan, 10.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="need 0 <= r_lo <= r_hi"):
            AnnulusConstraint(LocalPoint(0.0, 0.0), r_lo, r_hi)


# -- constraints and regions -------------------------------------------------------


def test_disc_and_unbounded_special_cases():
    proj = Projection.at(LAB)
    disc = AnnulusConstraint(project(LAB, proj), 0.0, 500.0)
    assert disc.bounded
    outside = AnnulusConstraint(project(LAB, proj), 500.0, math.inf)
    assert not outside.bounded


def test_single_disc_area_close_to_analytic():
    proj = Projection.at(LAB)
    disc = AnnulusConstraint(LocalPoint(0.0, 0.0), 0.0, 100.0)
    region = intersect_constraints([disc], 1.0, proj)
    assert region.area() == pytest.approx(math.pi * 100.0**2, rel=0.03)


def test_region_contains_target_of_two_annuli():
    proj = Projection.at(LAB)
    target = LocalPoint(40.0, -30.0)
    constraints = []
    for cx, cy in ((-400.0, 0.0), (300.0, 500.0)):
        d = math.hypot(target.x - cx, target.y - cy)
        constraints.append(AnnulusConstraint(LocalPoint(cx, cy), d - 25.0, d + 25.0))
    region = intersect_constraints(constraints, 5.0, proj)
    assert region.contains_local(target)
    assert region.contains(unproject(target, proj))


def test_disjoint_annuli_raise_empty_region():
    proj = Projection.at(LAB)
    a = AnnulusConstraint(LocalPoint(0.0, 0.0), 0.0, 100.0)
    b = AnnulusConstraint(LocalPoint(1000.0, 0.0), 0.0, 100.0)
    with pytest.raises(EmptyRegion):
        intersect_constraints([a, b], 5.0, proj)


def test_unbounded_only_constraints_raise_empty_region():
    proj = Projection.at(LAB)
    outside = AnnulusConstraint(LocalPoint(0.0, 0.0), 100.0, math.inf)
    with pytest.raises(EmptyRegion):
        intersect_constraints([outside], 5.0, proj)


@pytest.mark.parametrize("cell_size", [math.inf, math.nan, 0.0, -5.0])
def test_cell_size_must_be_finite_and_positive(cell_size):
    disc = AnnulusConstraint(LocalPoint(0.0, 0.0), 0.0, 100.0)
    with pytest.raises(ValueError, match="cell_size must be finite and positive"):
        intersect_constraints([disc], cell_size, Projection.at(LAB))


def _reference_raster(constraints, cell_size):
    """The rasterizer before it tested rings only on live cells: every ring,
    in the given order, over the whole grid. Returns (i0, j0, occupied)."""
    bounded = [c for c in constraints if c.bounded]
    if not bounded:
        raise EmptyRegion("no bounded constraint")
    x_lo = max(c.center.x - c.r_hi for c in bounded)
    x_hi = min(c.center.x + c.r_hi for c in bounded)
    y_lo = max(c.center.y - c.r_hi for c in bounded)
    y_hi = min(c.center.y + c.r_hi for c in bounded)
    if x_lo >= x_hi or y_lo >= y_hi:
        raise EmptyRegion("constraint bounding boxes do not overlap")
    i0, i1 = math.floor(x_lo / cell_size), math.ceil(x_hi / cell_size)
    j0, j1 = math.floor(y_lo / cell_size), math.ceil(y_hi / cell_size)
    xw = np.arange(i0, i1, dtype=float)[None, :] * cell_size
    ys = np.arange(j0, j1, dtype=float)[:, None] * cell_size
    occupied = np.ones((j1 - j0, i1 - i0), dtype=bool)
    for c in constraints:
        dx_min = np.maximum(np.maximum(xw - c.center.x, c.center.x - (xw + cell_size)), 0.0)
        dy_min = np.maximum(np.maximum(ys - c.center.y, c.center.y - (ys + cell_size)), 0.0)
        dx_max = np.maximum(np.abs(c.center.x - xw), np.abs(c.center.x - (xw + cell_size)))
        dy_max = np.maximum(np.abs(c.center.y - ys), np.abs(c.center.y - (ys + cell_size)))
        d_min = np.hypot(dx_min, dy_min)
        d_max = np.hypot(dx_max, dy_max)
        occupied &= (d_min <= c.r_hi) & (d_max >= c.r_lo)
    if not occupied.any():
        raise EmptyRegion("observations are mutually inconsistent")
    return i0, j0, occupied


def _row_distances(center, cell_size, row):
    """(dy_min, dy_max) of grid row `row` from center, by the cell test's own
    float expressions, so that a radius set to one of them is exactly
    tangent to that row."""
    y0 = row * cell_size
    return max(y0 - center.y, center.y - (y0 + cell_size), 0.0), max(abs(center.y - y0), abs(center.y - (y0 + cell_size)))


@st.composite
def _ring_sets(draw):
    cell_size = draw(st.sampled_from((1.0, 2.5, 5.0, 7.3, 20.0, 40.0)))
    # radii up to 250 cells keep every grid within about 500 cells a side
    cap = 250.0 * cell_size
    # the whole configuration moved by up to 100 km, where coordinates carry
    # fewer fractional bits
    shift = LocalPoint(*(draw(st.one_of(st.just(0.0), st.floats(-100_000.0, 100_000.0))) for _ in "xy"))
    target = LocalPoint(draw(st.floats(-2000.0, 2000.0)), draw(st.floats(-2000.0, 2000.0)))

    def coordinate(near):  # within 0.9 cap of the target, so that a ring around it stays under cap
        side = 0.9 * cap / math.sqrt(2.0)
        return draw(st.floats(max(-2000.0, near - side), min(2000.0, near + side)))

    rings = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("band", "zero-width", "disc", "outside")))
        center = LocalPoint(coordinate(target.x), coordinate(target.y))
        # a ring that holds the target's distance by a margin of at least two
        # cells, which the moves to whole cells and tangent rows below mostly
        # keep (a zero-width one passes through it); now and then one is moved
        # off it by up to cap / 10
        spread = st.just(0.0) if kind == "zero-width" else st.floats(2.0 * cell_size, cap / 10.0)
        miss = draw(st.floats(-cap / 10.0, cap / 10.0)) if draw(st.sampled_from([False] * 31 + [True])) else 0.0
        middle = math.hypot(target.x - center.x, target.y - center.y) + miss
        r_lo, r_hi = (min(max(0.0, r), cap) for r in (middle - draw(spread), middle + draw(spread)))
        center = LocalPoint(center.x + shift.x, center.y + shift.y)
        if draw(st.booleans()):  # on whole cells, where a ring can pass exactly through a cell's corner
            center = LocalPoint(int(center.x / cell_size) * cell_size, int(center.y / cell_size) * cell_size)
            r_lo, r_hi = (int(r / cell_size) * cell_size for r in (r_lo, r_hi))
        edge = draw(st.sampled_from(("none", "outer", "hole")))
        if edge != "none":  # an edge tangent to a row near where it crosses the center's column
            radius = r_hi if edge == "outer" else r_lo
            row = math.floor((center.y + draw(st.sampled_from((-1, 1))) * radius) / cell_size) + draw(st.integers(-1, 1))
            dy_min, dy_max = _row_distances(center, cell_size, row)
            if edge == "outer":
                # exactly, or a few last places outside, so that the row can be
                # on the grid; and the center a hair off a column edge, where
                # hypot(hair, dy_min) ~ dy_min + hair^2 / (2 dy_min) only just
                # rounds to at most r_hi
                r_hi = dy_min
                for _ in range(draw(st.integers(0, 2))):
                    r_hi = math.nextafter(r_hi, math.inf)
                r_lo = min(r_lo, r_hi)
                reach = math.sqrt(2.0 * dy_min * (r_hi - dy_min + math.ulp(r_hi) / 2.0))
                hair = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.9, 1.0)) * reach
                center = LocalPoint(round(center.x / cell_size) * cell_size + hair, center.y)
            else:
                r_lo, r_hi = dy_max, max(r_hi, dy_max)
        if kind == "zero-width":
            r_lo = r_hi
        elif kind == "disc":
            r_lo = 0.0
        elif kind == "outside":
            r_hi = math.inf
        rings.append(AnnulusConstraint(center, r_lo, r_hi))
    if draw(st.sampled_from([False] * 7 + [True])):
        # in about one set in ten, r_lo = r_hi = inf: no cell meets it, and
        # its width is NaN
        target = LocalPoint(target.x + shift.x, target.y + shift.y)
        rings.insert(draw(st.integers(0, len(rings))), AnnulusConstraint(target, math.inf, math.inf))
    return rings, cell_size


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_ring_sets())
def test_intersection_matches_the_full_grid_reference(case):
    rings, cell_size = case
    try:
        expected = _reference_raster(rings, cell_size)
    except EmptyRegion:
        expected = None
    try:
        region = intersect_constraints(rings, cell_size, Projection.at(LAB))
    except EmptyRegion:
        assert expected is None
    else:
        assert expected is not None
        i0, j0, occupied = expected
        assert (region.i0, region.j0, region.occupied.shape) == (i0, j0, occupied.shape)
        assert region.occupied.tobytes() == occupied.tobytes()
        # the cells handed over are np.nonzero's, and the readers give what
        # the np.nonzero scans and np.mean gave
        js, is_ = np.nonzero(occupied)
        cells = region._occupied_cells()
        assert [(a.dtype, a.tolist()) for a in cells] == [(a.dtype, a.tolist()) for a in (js, is_)]
        assert region.area() == float(occupied.sum()) * cell_size**2
        centroid = LocalPoint(float((is_.mean() + i0 + 0.5) * cell_size), float((js.mean() + j0 + 0.5) * cell_size))
        assert region.centroid_local() == centroid
        grid = attack.CandidateRegion(region.projection, cell_size, i0, j0, occupied)
        assert (grid.area(), grid.centroid_local()) == (region.area(), centroid)


def test_region_area_monotone_in_constraints():
    proj = Projection.at(LAB)
    rng = random.Random(606)
    for _ in range(30):
        target = LocalPoint(rng.uniform(-200, 200), rng.uniform(-200, 200))
        constraints = []
        last_area = math.inf
        for _ in range(4):
            cx, cy = rng.uniform(-800, 800), rng.uniform(-800, 800)
            d = math.hypot(target.x - cx, target.y - cy)
            w = rng.uniform(10.0, 120.0)
            constraints.append(AnnulusConstraint(LocalPoint(cx, cy), max(0.0, d - w), d + w))
            region = intersect_constraints(constraints, 5.0, proj)
            assert region.area() <= last_area
            assert region.contains_local(target)
            last_area = region.area()


def test_region_geojson_feature_shape():
    proj = Projection.at(LAB)
    region = intersect_constraints([AnnulusConstraint(LocalPoint(0.0, 0.0), 0.0, 30.0)], 10.0, proj)
    report = AttackReport(region.centroid(), region=region)
    row = MetricsRow("kyoto-exact", 1, "success", 0.0, report.region_area, 0, 0, 0)
    doc = scenario_geojson(preset("kyoto-exact"), SURVEY_TRIANGLE, report, row)
    (feature,) = [f for f in doc["features"] if f["properties"]["role"] == "region"]
    assert feature["properties"] == {"role": "region", "cell_size_m": 10.0, "area_m2": region.area()}
    assert feature["geometry"]["type"] == "MultiPolygon"
    assert len(feature["geometry"]["coordinates"]) == int(region.occupied.sum())
    ring = feature["geometry"]["coordinates"][0][0]
    assert len(ring) == 5 and ring[0] == ring[-1]


def _five_corner_rings(region):
    """Reference for CandidateRegion.cell_rings: every corner of every cell
    unprojected on its own, the closing one again."""
    rings = []
    c = region.cell_size
    for j, i in zip(*np.nonzero(region.occupied)):
        x0, y0 = (region.i0 + int(i)) * c, (region.j0 + int(j)) * c
        corners = [(x0, y0), (x0 + c, y0), (x0 + c, y0 + c), (x0, y0 + c), (x0, y0)]
        points = (unproject(LocalPoint(x, y), region.projection) for x, y in corners)
        rings.append([(p.lon, p.lat) for p in points])
    return rings


def _rings_or_error(rings_of, region):
    try:
        return rings_of(region)
    except ValueError:  # a corner outside the projection window or the globe
        return ValueError


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    lat=st.floats(-80.0, 80.0),
    lon=st.floats(-180.0, 180.0),
    cell_size=st.sampled_from([1.0, 2.5, 5.0, 7.3, 20.0, 40.0]),
    corner=st.tuples(*[st.one_of(st.floats(-130_000.0, 130_000.0), st.floats(119_700.0, 120_000.0))] * 2),
    occupied=arrays(bool, st.tuples(st.integers(1, 6), st.integers(1, 6))),
)
def test_cell_rings_match_the_five_corner_version(lat, lon, cell_size, corner, occupied):
    # i0/j0 of either sign, reaching past the 120 km projection window (often
    # with only the far corners past it) and, near lon +-180, past the
    # antimeridian, where both versions must raise
    region = attack.CandidateRegion(
        projection=Projection.at(GeoPoint(lat, lon)),
        cell_size=cell_size,
        i0=math.floor(corner[0] / cell_size),
        j0=math.floor(corner[1] / cell_size),
        occupied=occupied,
    )
    assert _rings_or_error(attack.CandidateRegion.cell_rings, region) == _rings_or_error(_five_corner_rings, region)


# -- the original profile-view attack ------------------------------------------------


def test_exact_trilateration_attack_on_fixture_world():
    world = World(EXACT, 1)
    world.add_user("victim", LAB, True)
    world.add_user("attacker", DEMACHIYANAGI_STATION, True)
    report = exact_trilateration_attack(world, ("attacker",), SURVEY_TRIANGLE, "victim")
    assert haversine_distance(report.estimate, LAB) < 1.0
    assert world.profile_views["victim"] == 3
    assert world.moves["attacker"] == world.queries["attacker"] == 3


def test_exact_trilateration_attack_fails_when_hidden():
    world = World(HIDDEN, 1)
    world.add_user("victim", LAB, False)
    world.add_user("attacker", DEMACHIYANAGI_STATION, True)
    with pytest.raises(VictimNeverVisible):
        exact_trilateration_attack(world, ("attacker",), SURVEY_TRIANGLE, "victim")


def _counts(world, ids):
    """The world's (queries, moves) totals over the given accounts."""
    return sum(world.queries[uid] for uid in ids), sum(world.moves[uid] for uid in ids)


def test_a_reused_world_counts_and_budgets_each_run_from_its_start():
    sc = preset("kyoto-exact")
    world, ids, vantages = build_world(sc, sc.seed)
    for _ in range(2):
        before = (*_counts(world, ids), world.profile_views[VICTIM_ID])
        exact_trilateration_attack(world, ids, vantages, VICTIM_ID)
        after = (*_counts(world, ids), world.profile_views[VICTIM_ID])
        assert tuple(a - b for a, b in zip(after, before)) == (3, 3, 3)

    # 100 earlier screens would exhaust the 40-query budget if they counted,
    # and 100 earlier moves the 80-move budget
    def colluding_counts(earlier_screens, earlier_moves):
        world, ids, vantages = build_world(preset("grindr-hidden"), 7)
        for _ in range(earlier_moves):
            world.move_user(ids[0], vantages[0])
        for _ in range(earlier_screens):
            world.query_nearby(ids[0])
        before = _counts(world, ids)
        colluding_trilateration(world, ids, vantages, VICTIM_ID, ColludingOptions(max_queries=40))
        return tuple(a - b for a, b in zip(_counts(world, ids), before))

    assert colluding_counts(100, 0) == colluding_counts(0, 100) == colluding_counts(0, 0) == (7, 11)


# -- colluding trilateration -----------------------------------------------------------


def _grindr_world(seed, n_background=50):
    world = _uniform_world(HIDDEN, seed, n_background, 1500.0)
    world.add_user("victim", LAB, False)
    for uid in ("attacker", "colluder-a", "colluder-b"):
        world.add_user(uid, DEMACHIYANAGI_STATION, True)
    return world


def test_colluding_locates_hidden_victim():
    world = _grindr_world(seed=5)
    opts = ColludingOptions()
    report = colluding_trilateration(world, ("attacker", "colluder-a", "colluder-b"), SURVEY_TRIANGLE, "victim", opts)
    assert haversine_distance(report.estimate, LAB) <= 25.0
    assert world.profile_views["victim"] == 0
    assert report.region is not None and report.region.contains(LAB)
    assert report.region_area > 0.0


def test_colluding_never_touches_the_victim_profile():
    world = _grindr_world(seed=6)
    opts = ColludingOptions()
    colluding_trilateration(world, ("attacker", "colluder-a", "colluder-b"), SURVEY_TRIANGLE, "victim", opts)
    assert not +world.profile_views


def test_colluding_accepted_steps_within_log2_budget():
    world = _grindr_world(seed=8)
    opts = ColludingOptions(epsilon=20.0)
    report = colluding_trilateration(world, ("attacker", "colluder-a", "colluder-b"), SURVEY_TRIANGLE, "victim", opts)
    assert len(report.accepted_steps) == 3
    for accepted, s0 in zip(report.accepted_steps, report.initial_separations):
        budget = max(0, math.ceil(math.log2(max(s0, opts.epsilon) / opts.epsilon)))
        assert accepted <= budget


def test_colluding_bisection_shrinks_separation_monotonically():
    # the recorded evidence trail per vantage narrows strictly down to epsilon
    world = _grindr_world(seed=9)
    opts = ColludingOptions()
    report = colluding_trilateration(world, ("attacker", "colluder-a", "colluder-b"), SURVEY_TRIANGLE, "victim", opts)
    assert len(report.initial_separations) == 3
    for vantage in SURVEY_TRIANGLE:
        center = project(vantage, report.region.projection)
        rings = [o for o in report.observations if o.center == center]
        widths = [o.r_hi - o.r_lo for o in rings if math.isfinite(o.r_hi)]
        assert widths
        assert all(b < a for a, b in zip(widths, widths[1:]))
        assert widths[-1] <= opts.epsilon
        # every recorded bracket truly contains the victim's distance
        av = haversine_distance(vantage, LAB)
        for o in rings:
            assert o.r_lo <= av <= o.r_hi


def test_colluding_is_deterministic():
    def run():
        world = _grindr_world(seed=11)
        opts = ColludingOptions()
        ids = ("attacker", "colluder-a", "colluder-b")
        r = colluding_trilateration(world, ids, SURVEY_TRIANGLE, "victim", opts)
        return (r.estimate, _counts(world, ids), r.region_area)

    assert run() == run()


def test_colluding_with_favorites_beats_dropping():
    world = _uniform_world(HORNET, 21, 50, 1500.0)
    world.add_user("victim", LAB, False)
    for uid in ("attacker", "colluder-a", "colluder-b"):
        world.add_user(uid, DEMACHIYANAGI_STATION, True)
    opts = ColludingOptions(use_favorites=True)
    report = colluding_trilateration(world, ("attacker", "colluder-a", "colluder-b"), SURVEY_TRIANGLE, "victim", opts)
    assert haversine_distance(report.estimate, LAB) <= 25.0
    assert world.profile_views["victim"] == 0
    assert "victim" in world.favorites["attacker"]


def test_colluding_without_favorites_starves_under_dropping():
    failures = 0
    for seed in range(30, 40):
        world = _uniform_world(HORNET, seed, 50, 1500.0)
        world.add_user("victim", LAB, False)
        for uid in ("attacker", "colluder-a", "colluder-b"):
            world.add_user(uid, DEMACHIYANAGI_STATION, True)
        opts = ColludingOptions(use_favorites=False)
        try:
            colluding_trilateration(world, ("attacker", "colluder-a", "colluder-b"), SURVEY_TRIANGLE, "victim", opts)
        except (VictimNeverVisible, NonConvergence):
            failures += 1
    assert failures >= 9


def test_colluding_budget_exhaustion_raises_nonconvergence():
    world = _grindr_world(seed=13)
    opts = ColludingOptions(max_queries=4)
    with pytest.raises(NonConvergence):
        colluding_trilateration(world, ("attacker", "colluder-a", "colluder-b"), SURVEY_TRIANGLE, "victim", opts)


def _budgeted_colluding_run(name, **budget):
    """A preset's colluding run under a budget: the attacker accounts' query
    and move totals when it ended, and whether it raised."""
    sc = preset(name)
    world, ids, vantages = build_world(sc, sc.seed)
    try:
        locate(world, ids, vantages, replace(sc.attack, **budget))
        raised = False
    except (NonConvergence, VictimNeverVisible):
        raised = True
    return *_counts(world, ids), raised


COLLUDING_PRESETS = ("grindr-hidden", "hornet-favorites", "hornet-no-favorites")


@pytest.mark.parametrize("name", COLLUDING_PRESETS)
@pytest.mark.parametrize("q", [1, 3, 6])
def test_a_query_budget_stops_at_exactly_its_limit(name, q):
    # favorites screens count against the budget like nearby screens
    queries, _, raised = _budgeted_colluding_run(name, max_queries=q)
    assert raised and queries == q


@pytest.mark.parametrize("name", COLLUDING_PRESETS)
@pytest.mark.parametrize("m", [1, 2, 5])
def test_a_move_budget_stops_at_exactly_its_limit(name, m):
    _, moves, raised = _budgeted_colluding_run(name, max_moves=m)
    assert raised and moves == m


def test_a_query_budget_of_exactly_what_a_run_needs_lets_it_finish():
    # grindr-hidden at its preset seed locates the victim with its 7th query
    assert _budgeted_colluding_run("grindr-hidden", max_queries=7) == (7, 11, False)
    assert _budgeted_colluding_run("grindr-hidden", max_queries=6) == (6, 11, True)


def test_colluding_validates_arguments():
    world = _grindr_world(seed=14)
    with pytest.raises(ValueError):
        colluding_trilateration(world, ("attacker", "attacker", "colluder-b"), SURVEY_TRIANGLE, "victim")
    with pytest.raises(ValueError):
        colluding_trilateration(world, ("attacker", "colluder-a", "victim"), SURVEY_TRIANGLE, "victim")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("epsilon", math.nan, "epsilon must be finite and positive"),
        ("epsilon", 0.0, "epsilon must be finite and positive"),
        ("cell_size", math.inf, "cell_size must be finite and positive"),
        ("cell_size", -5.0, "cell_size must be finite and positive"),
        ("max_moves", 0, "max_moves must be at least 1"),
        ("max_queries", -1, "max_queries must be at least 1"),
    ],
)
def test_colluding_options_are_validated(field, value, message):
    with pytest.raises(ValueError, match=message):
        ColludingOptions(**{field: value})


# -- passive survey ----------------------------------------------------------------


def test_passive_survey_dense_background():
    world = _uniform_world(EXACT, 17, 200, 2000.0)
    world.add_user("victim", LAB, True)
    world.add_user("attacker", DEMACHIYANAGI_STATION, True)
    report = passive_sandwich_survey(world, ("attacker",), SURVEY_TRIANGLE, "victim")
    assert report.region.contains(LAB)
    disc_area = math.pi * 2000.0**2
    assert report.region_area < 0.05 * disc_area


def test_passive_survey_remote_victim():
    # victim isolated; population clustered 1.5 km east; vantages in between
    cluster = _offset(LAB, 1500.0, 0.0)
    world = _uniform_world(EXACT, 19, 60, 300.0, center=cluster)
    world.add_user("victim", LAB, True)
    world.add_user("attacker", cluster, True)
    vantages = (_offset(LAB, 650.0, 220.0), _offset(LAB, 750.0, 0.0), _offset(LAB, 650.0, -220.0))
    report = passive_sandwich_survey(world, ("attacker",), vantages, "victim")
    assert report.region.contains(LAB)


def test_passive_survey_with_no_flankers_raises_empty_region():
    world = World(EXACT, 23)
    world.add_user("victim", LAB, True)
    world.add_user("attacker", DEMACHIYANAGI_STATION, True)
    with pytest.raises(EmptyRegion):
        passive_sandwich_survey(world, ("attacker",), SURVEY_TRIANGLE, "victim")


@pytest.mark.parametrize("cell_size", [0.0, -5.0, math.nan])
def test_passive_survey_checks_cell_size_before_moving(cell_size):
    world = _uniform_world(EXACT, 17, 20, 2000.0)
    world.add_user("victim", LAB, True)
    world.add_user("attacker", DEMACHIYANAGI_STATION, True)
    with pytest.raises(ValueError, match="cell_size must be finite and positive"):
        passive_sandwich_survey(world, ("attacker",), SURVEY_TRIANGLE, "victim", cell_size)
    assert world.users["attacker"].location == DEMACHIYANAGI_STATION
    assert not +world.queries


def test_passive_survey_victim_never_visible():
    policy = DisclosurePolicy(PolicyMode.EXACT_DISTANCE, drop_probability=1.0)
    world = World(policy, 29)
    world.add_user("victim", LAB, True)
    world.add_user("other", HEIAN_SHRINE, True)
    world.add_user("attacker", DEMACHIYANAGI_STATION, True)
    with pytest.raises(VictimNeverVisible):
        passive_sandwich_survey(world, ("attacker",), SURVEY_TRIANGLE, "victim")


def test_default_vantage_points_scale_with_population():
    pts = [LAB, _offset(LAB, 900.0, 0.0), _offset(LAB, -900.0, 100.0)]
    vantages = default_vantage_points(pts)
    assert len(vantages) == 3
    center = GeoPoint(sum(p.lat for p in pts) / 3, sum(p.lon for p in pts) / 3)
    dists = [haversine_distance(center, v) for v in vantages]
    assert max(dists) == pytest.approx(max(haversine_distance(center, p) for p in pts), rel=0.05)


# -- threat model and soundness ------------------------------------------------------


def test_drivers_reach_the_world_only_through_the_session():
    # outside _Session no code reads an attribute of a `world` name or touches
    # `._world`, and a driver's only use of `world` is to open its _Session
    tree = ast.parse(Path(attack.__file__).read_text())
    opens_a_session = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "_Session":
            continue
        session_args = {
            id(call.args[0])
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_Session"
        }
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                assert sub.attr != "_world", f"line {sub.lineno} touches ._world"
            if isinstance(sub, ast.Name) and sub.id == "world":
                assert id(sub) in session_args, f"line {sub.lineno} uses world outside _Session(world, ...)"
                opens_a_session.add(node.name)
    assert opens_a_session == {"colluding_trilateration", "passive_sandwich_survey", "exact_trilateration_attack"}
    # the session too never reads the service's counters: its budgets count
    # what it did itself
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and sub.attr in ("queries", "profile_views", "moves"):
            owner = ast.unparse(sub.value)
            assert owner not in ("world", "self._world"), f"line {sub.lineno} reads {owner}.{sub.attr}"


def test_the_service_has_no_plane():
    # only the attacker rasterizes in a tangent plane: lbs_sim imports,
    # defines and names none of geodesy's plane types and maps
    plane = {"Projection", "LocalPoint", "project", "unproject", "unproject_arrays", "geo_centroid"}
    for sub in ast.walk(ast.parse(Path(lbs_sim.__file__).read_text())):
        if isinstance(sub, ast.alias):
            names = {sub.name, sub.asname}
        elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            names = {sub.name}
        elif isinstance(sub, ast.Name):
            names = {sub.id}
        elif isinstance(sub, ast.Attribute):
            names = {sub.attr}
        else:
            continue
        assert not names & plane, f"line {sub.lineno} names {sorted(names & plane)}"


_COLLUDERS = ("attacker", "colluder-a", "colluder-b")
_SOUND_DRIVERS = {
    "passive": (("attacker",), lambda w, ids, v: passive_sandwich_survey(w, ids, v, "victim")),
    "colluding": (_COLLUDERS, lambda w, ids, v: colluding_trilateration(w, ids, v, "victim")),
    "colluding-favorites": (
        _COLLUDERS,
        lambda w, ids, v: colluding_trilateration(w, ids, v, "victim", ColludingOptions(use_favorites=True)),
    ),
}
_OFFSETS = st.tuples(st.floats(-2500.0, 2500.0), st.floats(-2500.0, 2500.0))


# 150 examples: a driver that takes obfuscated readings at face value survives
# 60 and 100 of them
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    mode=st.sampled_from(PolicyMode),
    pattern=_patterns(),
    drop=st.floats(0.0, 0.5),
    victim=st.tuples(_OFFSETS, st.booleans()),
    background=st.lists(st.tuples(_OFFSETS, st.booleans()), max_size=120),
    vantages=st.lists(_OFFSETS, min_size=3, max_size=3),
    driver=st.sampled_from(sorted(_SOUND_DRIVERS)),
    seed=st.integers(0, 2**16),
)
def test_a_returned_region_contains_the_victim(mode, pattern, drop, victim, background, vantages, driver, seed):
    # with the true pattern as the belief, every ring holds the victim, so the
    # rings never clash (their bounding boxes overlap and their cells meet): the
    # only empty region is one with no bounded ring, and a returned region
    # contains the victim
    world = World(DisclosurePolicy(mode, pattern if mode is PolicyMode.OBFUSCATED else None, drop), seed)
    (east, north), show = victim
    truth = _offset(LAB, east, north)
    world.add_user("victim", truth, show)
    for i, ((east, north), show) in enumerate(background):
        world.add_user(f"bg-{i:03d}", _offset(LAB, east, north), show)
    points = tuple(_offset(LAB, east, north) for east, north in vantages)
    ids, run = _SOUND_DRIVERS[driver]
    for uid in ids:
        world.add_user(uid, points[0], True)
    try:
        report = run(world, ids, points)
    except EmptyRegion as exc:
        assert str(exc).startswith("no bounded constraint")
    except (VictimNeverVisible, NonConvergence):
        pass
    else:
        assert report.region.contains(truth)
