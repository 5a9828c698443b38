import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geoleak.fixtures import (
    DEMACHIYANAGI_STATION,
    HEIAN_SHRINE,
    KYOTO_IMPERIAL_PALACE,
    SCIENCE_FRONTIER_LAB,
)
from geoleak.geodesy import (
    EARTH_RADIUS_M,
    METERS_PER_DEGREE_LAT,
    GeoPoint,
    LocalPoint,
    OutOfProjectionRange,
    Projection,
    chord_distance,
    haversine_distance,
    project,
    squared_chord,
    squared_chords,
    unit_vectors,
    unproject,
)

# Golden distances for the Kyoto fixture, frozen from an independent
# chord/atan2 calculator cross-checked against the spherical law of cosines
# (agreement < 2e-6 m).
LAB_TO_STATION_M = 845.4599899296676
LAB_TO_SHRINE_M = 977.2175875969324
LAB_TO_PALACE_M = 1092.340251915933


def test_identical_points_have_zero_distance():
    p = GeoPoint(10.5, -3.25)
    assert haversine_distance(p, p) == 0.0


@pytest.mark.parametrize(
    "other, expected",
    [
        (DEMACHIYANAGI_STATION, LAB_TO_STATION_M),
        (HEIAN_SHRINE, LAB_TO_SHRINE_M),
        (KYOTO_IMPERIAL_PALACE, LAB_TO_PALACE_M),
    ],
)
def test_fixture_distances_match_independent_calculator(other, expected):
    assert haversine_distance(SCIENCE_FRONTIER_LAB, other) == pytest.approx(expected, abs=1e-5)


def test_one_degree_arc_on_the_equator():
    d = haversine_distance(GeoPoint(0.0, 10.0), GeoPoint(0.0, 11.0))
    assert d == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0, rel=1e-12)
    assert d == pytest.approx(111194.9, abs=0.1)


def test_near_antipodal_points_are_half_a_circumference_apart():
    # the haversine term rounds to just above 1 for this pair; unclamped,
    # sqrt(1 - h) raised "math domain error"
    a = GeoPoint(70.70245639678407, 58.701657571999135)
    b = GeoPoint(-70.7024563523864, -121.29834242800086)
    assert haversine_distance(a, b) == pytest.approx(math.pi * EARTH_RADIUS_M, abs=1.0)
    assert haversine_distance(b, a) == haversine_distance(a, b)


@pytest.mark.parametrize("lat, lon", [(91.0, 0.0), (-90.5, 0.0), (0.0, 180.5), (math.nan, 0.0), (0.0, math.inf)])
def test_geopoint_rejects_bad_coordinates(lat, lon):
    with pytest.raises(ValueError):
        GeoPoint(lat, lon)


def test_symmetry_is_exact():
    rng = random.Random(101)
    for _ in range(300):
        a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
        b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
        assert haversine_distance(a, b) == haversine_distance(b, a)


def test_triangle_inequality():
    rng = random.Random(202)
    for _ in range(300):
        pts = [GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179)) for _ in range(3)]
        a, b, c = pts
        assert haversine_distance(a, c) <= haversine_distance(a, b) + haversine_distance(b, c) + 1e-6


def test_projection_constants():
    proj = Projection.at(GeoPoint(35.0, 135.0))
    assert proj.meters_per_degree_lat == METERS_PER_DEGREE_LAT
    assert proj.meters_per_degree_lon == pytest.approx(
        METERS_PER_DEGREE_LAT * math.cos(math.radians(35.0)), rel=1e-15
    )
    assert proj.meters_per_degree_lat > 0 and proj.meters_per_degree_lon > 0


def test_origin_projects_to_zero():
    proj = Projection.at(SCIENCE_FRONTIER_LAB)
    q = project(SCIENCE_FRONTIER_LAB, proj)
    assert q == LocalPoint(0.0, 0.0)
    assert unproject(LocalPoint(0.0, 0.0), proj) == proj.origin


def test_point_due_north_is_axis_aligned():
    origin = GeoPoint(35.0, 135.0)
    proj = Projection.at(origin)
    q = project(GeoPoint(35.01, 135.0), proj)
    assert q.x == 0.0
    assert q.y == pytest.approx(0.01 * proj.meters_per_degree_lat, rel=1e-12)


def test_fixture_norm_matches_haversine():
    proj = Projection.at(DEMACHIYANAGI_STATION)
    q = project(SCIENCE_FRONTIER_LAB, proj)
    d = haversine_distance(DEMACHIYANAGI_STATION, SCIENCE_FRONTIER_LAB)
    assert abs(q.norm() - d) / d < 0.001


def test_unproject_shifts_longitude_at_equator():
    proj = Projection.at(GeoPoint(0.0, 20.0))
    p = unproject(LocalPoint(100.0, 0.0), proj)
    assert p.lat == 0.0
    assert p.lon == pytest.approx(20.0 + 100.0 / proj.meters_per_degree_lon, rel=1e-12)


def test_projection_fidelity_within_5km():
    rng = random.Random(303)
    for _ in range(300):
        origin = GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179))
        proj = Projection.at(origin)
        r = rng.uniform(10.0, 5000.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p = unproject(LocalPoint(r * math.cos(theta), r * math.sin(theta)), proj)
        d = haversine_distance(origin, p)
        assert abs(project(p, proj).norm() - d) / d < 0.001


_BOX_EDGE = st.one_of(st.sampled_from((-2500.0, 2500.0)), st.floats(-2500.0, 2500.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    lat=st.one_of(st.sampled_from((-60.0, 60.0)), st.floats(-60.0, 60.0)),
    lon=st.floats(-179.0, 179.0),
    a=st.tuples(_BOX_EDGE, _BOX_EDGE),
    b=st.tuples(_BOX_EDGE, _BOX_EDGE),
)
def test_planar_metric_within_a_tenth_of_a_percent_over_a_5km_box_up_to_60_degrees(lat, lon, a, b):
    # any two points of the 5 km box centred on the origin; the error peaks
    # for an east-west pair along its north or south edge, at ~tan(lat) * 2.5 km / R
    proj = Projection.at(GeoPoint(lat, lon))
    p, q = (unproject(LocalPoint(*offset), proj) for offset in (a, b))
    d = haversine_distance(p, q)
    assume(d >= 1.0)
    pp, pq = project(p, proj), project(q, proj)
    assert abs(math.hypot(pp.x - pq.x, pp.y - pq.y) - d) <= 1e-3 * d


def test_round_trip_within_half_meter():
    rng = random.Random(404)
    origin = GeoPoint(35.0, 135.0)
    proj = Projection.at(origin)
    for _ in range(300):
        p = GeoPoint(35.0 + rng.uniform(-0.9, 0.9), 135.0 + rng.uniform(-0.9, 0.9))
        back = unproject(project(p, proj), proj)
        assert haversine_distance(p, back) <= 0.5


def test_out_of_range_projection_errors():
    proj = Projection.at(GeoPoint(35.0, 135.0))
    with pytest.raises(OutOfProjectionRange):
        project(GeoPoint(36.5, 135.0), proj)
    with pytest.raises(OutOfProjectionRange):
        project(GeoPoint(35.0, 133.9), proj)
    with pytest.raises(OutOfProjectionRange):
        unproject(LocalPoint(150_000.0, 0.0), proj)
    with pytest.raises(OutOfProjectionRange):
        Projection.at(GeoPoint(89.0, 0.0))


# the bounds on |chord_distance - haversine_distance| that geodesy's comment
# on the chords states: metres plus a share of the distance up to a quarter
# circumference, and anywhere a metre, over the 0.27 m measured there
_CHORD_GAP_M, _CHORD_GAP_REL = 1e-7, 1e-14
_CHORD_GAP_ANYWHERE_M = 1.0

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
    """The distance read from two points' unit vectors is within
    _CHORD_GAP_ANYWHERE_M of haversine_distance."""
    a, b = pair
    chord2 = float(squared_chords(unit_vectors(np.array([a.lat, b.lat]), np.array([a.lon, b.lon])), 0)[1])
    assert abs(chord_distance(chord2) - haversine_distance(a, b)) <= _CHORD_GAP_ANYWHERE_M


_HALF_CIRCUMFERENCE_M = math.pi * EARTH_RADIUS_M


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(d=st.floats(-1e3, 2.1e7), e=st.floats(-1e3, 2.1e7))
@example(d=0.0, e=-0.0)
@example(d=_HALF_CIRCUMFERENCE_M, e=math.nextafter(_HALF_CIRCUMFERENCE_M, 0.0))
def test_a_bound_becomes_a_squared_chord_in_order(d, e):
    """squared_chord is 0 at and below 0 m, inf at and beyond half the
    circumference, monotone, and chord_distance takes it back within 1 m."""
    assert (d <= e) <= (squared_chord(d) <= squared_chord(e))
    for x in (d, e):
        chord2 = squared_chord(x)
        if x <= 0.0:
            assert chord2 == 0.0
        elif x >= _HALF_CIRCUMFERENCE_M:
            assert chord2 == math.inf
        else:
            assert abs(chord_distance(chord2) - x) <= 1.0
