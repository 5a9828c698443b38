import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from geoleak.jsonio import from_json, to_json
from geoleak.obfuscation import (
    AMBIGUOUS,
    EXACT,
    HORNET_DEFAULT,
    InsufficientSamples,
    NegativeDistance,
    ObfuscationPattern,
    ObfuscationSample,
    infer_pattern,
    invert_reading,
    _band_levels,
    _randranges,
    _round_half_up,
    obfuscate_distances,
    obfuscation_envelope,
)


def test_default_pattern_values():
    p = HORNET_DEFAULT
    assert (p.floor_value, p.near_cutoff, p.mid_cutoff) == (80.0, 100.0, 1000.0)
    assert (p.mid_band, p.mid_step, p.far_unit) == (100.0, 10.0, 1000.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(floor_value=0.0),
        dict(floor_value=120.0),  # floor above near cutoff
        dict(near_cutoff=1200.0),  # near above mid cutoff
        dict(mid_step=7.0),  # does not divide mid_band
        dict(far_unit=-1.0),
    ],
)
def test_pattern_validation(kwargs):
    with pytest.raises(ValueError):
        ObfuscationPattern(**kwargs)


def test_pattern_json_round_trip():
    p = ObfuscationPattern(floor_value=50.0, near_cutoff=200.0, mid_cutoff=2000.0, mid_band=200.0, mid_step=20.0, far_unit=500.0)
    assert from_json(ObfuscationPattern, to_json(p)) == p


def test_negative_distance_rejected():
    rng = random.Random(0)
    with pytest.raises(NegativeDistance):
        obfuscate_distances([-1.0], HORNET_DEFAULT, rng)
    with pytest.raises(NegativeDistance):
        obfuscation_envelope(-0.5, HORNET_DEFAULT)


def test_short_distances_pin_to_floor():
    rng = random.Random(1)
    for d in (0.0, 10.0, 50.0, 79.999):
        assert obfuscate_distances([d] * 20, HORNET_DEFAULT, rng) == [80.0] * 20


def test_fixed_level_band_draws_quantized_levels():
    rng = random.Random(2)
    seen = set(obfuscate_distances([90.0] * 200, HORNET_DEFAULT, rng))
    assert seen == {80.0, 90.0, 100.0}


def test_mid_band_outputs_for_321m():
    rng = random.Random(3)
    allowed = {300.0 + 10.0 * k for k in range(11)}
    seen = set(obfuscate_distances([321.0] * 400, HORNET_DEFAULT, rng))
    assert seen == allowed


def test_far_rounding_examples():
    rng = random.Random(4)
    assert obfuscate_distances([1200.0], HORNET_DEFAULT, rng) == [1000.0]
    assert obfuscate_distances([1600.0], HORNET_DEFAULT, rng) == [2000.0]
    # halves round up
    assert obfuscate_distances([1500.0], HORNET_DEFAULT, rng) == [2000.0]


@pytest.mark.parametrize(
    "d, expected",
    [
        (50.0, (80.0, 80.0)),
        (321.0, (300.0, 400.0)),
        (1499.0, (1000.0, 1000.0)),
        (1501.0, (2000.0, 2000.0)),
        (1500.0, (2000.0, 2000.0)),
        (90.0, (80.0, 100.0)),
    ],
)
def test_envelope_examples(d, expected):
    assert obfuscation_envelope(d, HORNET_DEFAULT) == expected


def test_envelope_soundness_and_band_invariants():
    # one million seeded draws: output always inside the envelope, quantized in
    # the randomized bands, pinned below the floor, within band/unit bounds
    rng = random.Random(20160311)
    p = HORNET_DEFAULT
    for _ in range(1_000_000):
        d = rng.random() * 3000.0
        (s,) = obfuscate_distances([d], p, rng)
        lo, hi = obfuscation_envelope(d, p)
        assert lo <= s <= hi
        if d < 80.0:
            assert s == 80.0
        elif d < 1000.0:
            assert s % 10.0 == 0.0
            if d >= 100.0:
                assert abs(s - math.floor(d / 100.0 + 0.5) * 100.0) <= 100.0
        else:
            assert s % 1000.0 == 0.0
            assert abs(s - d) <= 500.0


def test_mid_band_uniformity_chi_square():
    rng = random.Random(5)
    counts = {300.0 + 10.0 * k: 0 for k in range(11)}
    for s in obfuscate_distances([321.0] * 10_000, HORNET_DEFAULT, rng):
        counts[s] += 1
    result = stats.chisquare(list(counts.values()))
    assert result.pvalue > 0.001


# -- inversion ----------------------------------------------------------------


def _sampled_support(shown, lo, hi, draws=60, grid=0.1, seed=99):
    """Brute-force oracle: true distances (on a 0.1 m grid) that can emit `shown`."""
    rng = random.Random(seed)
    supported = []
    steps = int(round((hi - lo) / grid))
    for k in range(steps + 1):
        d = lo + k * grid
        if shown in obfuscate_distances([d] * draws, HORNET_DEFAULT, rng):
            supported.append(d)
    return supported


@pytest.mark.parametrize(
    "shown, expected, scan",
    [
        (80.0, (0.0, 100.0), (0.0, 200.0)),
        (350.0, (250.0, 350.0), (150.0, 500.0)),
        (2000.0, (1500.0, 2500.0), (1200.0, 2800.0)),
    ],
)
def test_invert_reading_against_sampling_oracle(shown, expected, scan):
    interval = invert_reading(shown, HORNET_DEFAULT)
    assert interval == expected
    support = _sampled_support(shown, *scan)
    # oracle end points agree with the closed form to grid resolution
    assert support[0] == pytest.approx(max(expected[0], scan[0]), abs=0.11)
    assert support[-1] == pytest.approx(expected[1], abs=0.11)
    # every sampled emitter lies inside the returned interval
    assert all(expected[0] <= d < expected[1] for d in support)


def test_no_other_branch_emits_the_oracle_values():
    # coarse full-range scan: outside the returned interval nothing emits 350
    rng = random.Random(7)
    interval = invert_reading(350.0, HORNET_DEFAULT)
    for k in range(0, 3000):
        d = float(k)
        if interval[0] - 1.0 <= d <= interval[1] + 1.0:
            continue
        assert 350.0 not in obfuscate_distances([d] * 40, HORNET_DEFAULT, rng)


@pytest.mark.parametrize(
    "shown, expected",
    [
        (90.0, (80.0, 100.0)),
        (100.0, (80.0, 150.0)),
        (400.0, (250.0, 450.0)),
        (1000.0, (850.0, 1500.0)),
        (85.0, None),
        (50.0, None),
        (0.0, None),
        (-3.0, None),
    ],
)
def test_invert_reading_fixed_points(shown, expected):
    assert invert_reading(shown, HORNET_DEFAULT) == expected


def test_invert_reading_spans_a_gapped_preimage():
    # 250 comes from the banded base 200 ([150, 200)) and from far rounding
    # ([245, 255)); the answer must hold both pieces
    p = ObfuscationPattern(80, 100, 200, 100, 10, 10)
    assert obfuscate_distances([250.0], p, random.Random(0)) == [250.0]
    assert invert_reading(250.0, p) == (150.0, 255.0)


@st.composite
def _patterns(draw):
    floor = draw(st.integers(1, 400))
    near = draw(st.integers(floor + 1, floor + 400))
    mid = draw(st.integers(near, near + 2000))
    step = draw(st.integers(1, 50))
    band = step * draw(st.integers(1, 20))
    far = draw(st.integers(1, 2000))
    return ObfuscationPattern(float(floor), float(near), float(mid), float(band), float(step), float(far))


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(_patterns(), st.floats(0.0, 5000.0), st.randoms(use_true_random=False))
def test_every_reading_inverts_to_an_interval_holding_the_truth(p, d, rng):
    (shown,) = obfuscate_distances([d], p, rng)
    interval = invert_reading(shown, p)
    assert interval is not None and interval[0] <= d < interval[1]
    lo, hi = obfuscation_envelope(d, p)
    assert lo <= shown <= hi


def _one_by_one(d, p, rng):
    """The oracle: one distance's draw as the scalar loop drew it, one
    randint per draw."""
    if d < 0.0:
        raise NegativeDistance(f"true distance must be >= 0, got {d}")
    if d < p.floor_value:
        return p.floor_value
    if d < p.near_cutoff:
        return p.floor_value + rng.randint(0, _band_levels(p)) * p.mid_step
    if d < p.mid_cutoff:
        base = _round_half_up(d, p.mid_band)
        return base + rng.randint(0, int(p.mid_band // p.mid_step)) * p.mid_step
    return _round_half_up(d, p.far_unit)


# a valid pattern whose near and mid bands have 20 * 2**30 + 1 and 2**40 + 1
# levels: past 32 bits, so each of their draws is a randrange call
_WIDE_MID_PATTERN = ObfuscationPattern(mid_band=1024.0, mid_step=2.0**-30)


@st.composite
def _pattern_and_distances(draw):
    """A pattern and up to 300 ascending distances from every band, its edges
    and the floats just below them included; the mid band is empty when
    near == mid."""
    p = draw(st.just(HORNET_DEFAULT) | st.just(_WIDE_MID_PATTERN) | _patterns())
    edges = [0.0]
    for edge in (p.floor_value, p.near_cutoff, p.mid_cutoff):
        edges += [math.nextafter(edge, 0.0), edge]
    bands = [
        st.sampled_from(edges),
        st.floats(0.0, p.floor_value, exclude_max=True),
        st.floats(p.floor_value, p.near_cutoff, exclude_max=True),
        st.floats(p.mid_cutoff, p.mid_cutoff + 5000.0),
    ]
    if p.near_cutoff < p.mid_cutoff:
        bands.append(st.floats(p.near_cutoff, p.mid_cutoff, exclude_max=True))
    return p, sorted(draw(st.lists(st.one_of(*bands), max_size=300)))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_pattern_and_distances(), st.integers(0, 300), st.integers(0, 2**64 - 1))
@example((HORNET_DEFAULT, []), 0, 0)
@example((HORNET_DEFAULT, []), 300, 0)
def test_a_batch_draws_what_one_call_per_distance_drew(case, counted, seed):
    """The values, their types and the stream of the oracle over ds, then
    counted draws at near_cutoff (a pattern without a mid band has no
    counted draws to take)."""
    p, ds = case
    if p.near_cutoff == p.mid_cutoff:
        counted = 0
    rng, reference = random.Random(seed), random.Random(seed)
    expected = [_one_by_one(d, p, reference) for d in ds]
    for _ in range(counted):
        _one_by_one(p.near_cutoff, p, reference)
    shown = obfuscate_distances(ds, p, rng, counted)
    assert shown == expected and [type(v) for v in shown] == [float] * len(ds)
    assert rng.getstate() == reference.getstate()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    p=st.just(HORNET_DEFAULT) | st.just(_WIDE_MID_PATTERN) | _patterns().filter(lambda p: p.near_cutoff < p.mid_cutoff),
    ds=st.lists(st.floats(0.0, 6000.0) | st.sampled_from([0.0, 80.0, 99.9, 100.0, 150.0, 1000.0, 1500.0]), max_size=300),
    counted=st.integers(0, 300),
    seed=st.integers(0, 2**64 - 1),
)
@example(p=HORNET_DEFAULT, ds=[], counted=0, seed=0)
def test_ascending_obfuscation_is_obfuscate_distances_then_the_counted_draws(p, ds, counted, seed):
    """The values, their types and the stream of obfuscate_distances on the
    sorted distances followed by counted draws at near_cutoff, taken in one
    call with counted."""
    ds = sorted(ds)
    rng, drawn = random.Random(seed), random.Random(seed)
    expected = obfuscate_distances(ds, p, drawn)
    obfuscate_distances([p.near_cutoff] * counted, p, drawn)
    shown = obfuscate_distances(ds, p, rng, counted)
    assert shown == expected and list(map(type, shown)) == list(map(type, expected))
    assert rng.getstate() == drawn.getstate()


def test_unsorted_or_negative_input_fails_before_any_draw():
    """Input that is not ascending and a negative count raise ValueError, and
    a negative first distance NegativeDistance, before the stream moves."""
    rng = random.Random(3)
    before = rng.getstate()
    for ds, counted in (([500.0, 50.0], 5), ([90.0, 90.0, 89.999], 5), ([5.0, -1.0], 5), ([-1.0, -2.0], 5), ([321.0], -1)):
        with pytest.raises(ValueError) as err:
            obfuscate_distances(ds, HORNET_DEFAULT, rng, counted)
        assert type(err.value) is ValueError
    for ds in ([-1.0, 50.0, 500.0], [-5e-324], [-1e6, -1e6, 90.0]):
        with pytest.raises(NegativeDistance):
            obfuscate_distances(ds, HORNET_DEFAULT, rng, 5)
    assert rng.getstate() == before


def test_forward_inverse_consistency():
    rng = random.Random(8)
    for _ in range(5_000):
        d = rng.random() * 3000.0
        (s,) = obfuscate_distances([d], HORNET_DEFAULT, rng)
        interval = invert_reading(s, HORNET_DEFAULT)
        assert interval is not None
        assert interval[0] <= d < interval[1]


# -- inference ----------------------------------------------------------------


def _scatter(n_locations, queries, max_distance, seed, lo=0.0):
    rng = random.Random(seed)
    samples = []
    for _ in range(n_locations):
        d = lo + (max_distance - lo) * (1.0 - rng.random())
        samples += [ObfuscationSample(d, s) for s in obfuscate_distances([d] * queries, HORNET_DEFAULT, rng)]
    return samples


def test_closed_loop_recovers_default_pattern(hornet_scatter_samples):
    inferred = infer_pattern(hornet_scatter_samples)
    assert inferred.all_exact()
    assert inferred.as_pattern() == HORNET_DEFAULT


def test_low_range_only_data_pins_floor_only():
    samples = _scatter(400, 3, 60.0, seed=10)
    inferred = infer_pattern(samples)
    assert inferred.floor_value == 80.0
    assert inferred.confidence["floor_value"] == EXACT
    for name in ("near_cutoff", "mid_cutoff", "mid_step", "far_unit"):
        assert inferred.confidence[name] == AMBIGUOUS


def test_identity_samples_flag_everything_ambiguous():
    rng = random.Random(11)
    samples = []
    for _ in range(600):
        d = rng.random() * 3000.0
        samples.extend([ObfuscationSample(d, d)] * 2)
    inferred = infer_pattern(samples)
    assert all(v == AMBIGUOUS for v in inferred.confidence.values())
    assert inferred.mid_band == 0.0


def test_insufficient_samples():
    samples = _scatter(10, 3, 3000.0, seed=12)
    with pytest.raises(InsufficientSamples):
        infer_pattern(samples)


def test_inferred_pattern_json_has_all_fields():
    samples = _scatter(300, 3, 60.0, seed=13)
    doc = to_json(infer_pattern(samples))
    assert set(doc) == {
        "floor_value", "near_cutoff", "mid_cutoff", "mid_band", "mid_step", "far_unit", "confidence",
    }


# n at and beside the edges of bit lengths, up to the largest n that one
# 32-bit word covers; 11 is HORNET_DEFAULT's count of mid-band levels
_BIT_LENGTH_EDGES = (1, 2, 3, 4, 5, 8, 11, 16, 17, 2**16 - 1, 2**16, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(
    n=st.sampled_from(_BIT_LENGTH_EDGES) | st.integers(1, 2**32 - 1) | st.integers(2**32, 2**70),
    count=st.integers(0, 400),
    seed=st.integers(0, 2**64 - 1),
)
def test_randranges_give_the_values_and_the_state_of_randrange_calls(n, count, seed):
    rng, one_by_one = random.Random(seed), random.Random(seed)
    assert _randranges(rng, n, count) == [one_by_one.randrange(n) for _ in range(count)]
    assert rng.getstate() == one_by_one.getstate()


@pytest.mark.parametrize("n", _BIT_LENGTH_EDGES)
def test_randranges_match_randrange_calls_at_each_bit_length_edge(n):
    for seed in range(5):
        rng, one_by_one = random.Random(seed), random.Random(seed)
        assert _randranges(rng, n, 300) == [one_by_one.randrange(n) for _ in range(300)]
        assert rng.getstate() == one_by_one.getstate()


def test_pattern_fields_are_floats_and_shown_distances_too():
    """Integer fields are stored as floats, so the shown distances of one
    true distance per band are floats, as the oracle's are."""
    p = ObfuscationPattern(140, 150, 200, 35, 5, 200)
    assert all(type(getattr(p, name)) is float for name in ("floor_value", "near_cutoff", "mid_cutoff", "mid_band", "mid_step", "far_unit"))
    assert p == ObfuscationPattern(140.0, 150.0, 200.0, 35.0, 5.0, 200.0)
    ds = [10.0, 145.0, 170.0, 900.0]
    reference = random.Random(1)
    one_by_one = [_one_by_one(d, p, reference) for d in ds]
    batched = obfuscate_distances(ds, p, random.Random(1))
    assert one_by_one == batched
    assert [type(v) for v in one_by_one] == [type(v) for v in batched] == [float] * 4
