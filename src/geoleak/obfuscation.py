"""Banded distance obfuscation (forward) and its empirical inversion.

The forward direction turns a true distance into a displayed one using four
bands; the inverse direction recovers, from a displayed value, the interval of
true distances that could have produced it, and `infer_pattern` reconstructs
the band parameters from observed (true, shown) sample pairs alone. All three
read a distance through the same keys, `band_of` and `rounded_base`:
`infer_pattern` keeps the pattern values that agree with every sample, under
two stated premises (see _FIXED_DRAWS), and tags a field exact only when one
value is left.

Pattern values are immutable. `obfuscate_distances`, the one forward function,
takes ascending true distances and an explicit RNG, so there is no hidden
global state, and draws each band in one batch on the stream of one draw each.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geodesy import EARTH_RADIUS_M


class NegativeDistance(ValueError):
    """Distance inputs must be >= 0."""


class InsufficientSamples(ValueError):
    """Too few samples to attempt pattern inference."""


_PATTERN_FIELDS = ("floor_value", "near_cutoff", "mid_cutoff", "mid_band", "mid_step", "far_unit")

# The least mid_band and far_unit. In a smaller unit a distance on the globe
# (at most half a circumference) can measure 2**52 units or more, where
# floats no longer hold the half that rounding half up adds, and a reading
# can fail to invert.
_MIN_UNIT_M = math.pi * EARTH_RADIUS_M / 2**52


@dataclass(frozen=True)
class ObfuscationPattern:
    """Piecewise display-distance policy.

    For a true distance d (meters), the shown distance is drawn as:

      d < floor_value                 -> floor_value, always
      floor_value <= d < near_cutoff  -> uniform level in [floor_value, near_cutoff],
                                         quantized to mid_step
      near_cutoff <= d < mid_cutoff   -> d rounded to the nearest mid_band, plus a
                                         uniform additive in {0, mid_step, ..., mid_band}
      d >= mid_cutoff                 -> d rounded to the nearest far_unit

    All rounding is half-up. mid_band and far_unit are at least _MIN_UNIT_M,
    and both randomized bands hold a finite number of mid_step levels.
    Defaults reproduce the 80 m floor, 100 m banded noise with 10 m steps,
    and nearest-kilometre far rounding.
    """

    floor_value: float = 80.0
    near_cutoff: float = 100.0
    mid_cutoff: float = 1000.0
    mid_band: float = 100.0
    mid_step: float = 10.0
    far_unit: float = 1000.0

    def __post_init__(self):
        for name in _PATTERN_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            # stored as a float, so that a shown distance is a float whether
            # it is drawn one at a time or in an array
            object.__setattr__(self, name, float(value))
        if not 0.0 < self.floor_value < self.near_cutoff <= self.mid_cutoff:
            raise ValueError("require 0 < floor_value < near_cutoff <= mid_cutoff")
        if self.mid_step <= 0.0 or self.far_unit <= 0.0:
            raise ValueError("mid_step and far_unit must be positive")
        if self.mid_band <= 0.0 or (self.mid_band % self.mid_step) != 0.0:
            raise ValueError("mid_step must divide mid_band")
        if min(self.mid_band, self.far_unit) < _MIN_UNIT_M:
            raise ValueError(f"mid_band and far_unit must be at least {_MIN_UNIT_M!r} m (half a circumference / 2**52)")
        if not math.isfinite(max(self.near_cutoff - self.floor_value, self.mid_band) / self.mid_step):
            raise ValueError("the near and mid bands must hold a finite number of mid_step levels")


HORNET_DEFAULT = ObfuscationPattern()


@dataclass(frozen=True)
class ObfuscationSample:
    """One observed pair: true distance measured by the observer, shown distance."""

    true_distance: float
    shown_distance: float

    def __post_init__(self):
        for v in (self.true_distance, self.shown_distance):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"sample distances must be finite and >= 0, got {v}")


def band_of(x, pattern: ObfuscationPattern):
    """The band key of a true distance x, or of each in an array: how many of
    (floor_value, near_cutoff, mid_cutoff) are at or below it."""
    return np.searchsorted((pattern.floor_value, pattern.near_cutoff, pattern.mid_cutoff), x, "right")


def rounded_base(x, unit: float):
    """The rounded-base key of a true distance x, or of each in an array: x in
    units rounded half up, as the float math.floor or np.floor would give."""
    return (x / unit + 0.5) // 1.0


def _band_levels(pattern: ObfuscationPattern) -> int:
    # number of mid_step increments fitting between floor_value and near_cutoff
    return int((pattern.near_cutoff - pattern.floor_value) // pattern.mid_step)


def obfuscate_distances(ds: Sequence[float], pattern: ObfuscationPattern, rng: random.Random, counted: int = 0) -> list[float]:
    """Draw the displayed distance for each true distance in ``ds``, which
    must be ascending, then counted more mid-band draws whose values are dropped.

    A fresh draw is taken for each distance in a randomized band, so repeated
    queries at the same true distance see changing values there. A band of n
    levels above its base draws rng.randrange(n + 1), the stream that
    rng.randint(0, n) takes. In ascending order every near-band draw comes
    before every mid-band one, so each band's draws are one _randranges call.

    Raises:
        ValueError: ds is not ascending, or counted < 0; checked before any draw.
        NegativeDistance: ds[0] < 0; checked before any draw.
    """
    ds = list(ds)
    if ds != sorted(ds):
        raise ValueError("true distances must be in ascending order")
    if ds and ds[0] < 0.0:
        raise NegativeDistance(f"true distance must be >= 0, got {ds[0]}")
    if counted < 0:
        raise ValueError(f"counted must be >= 0, got {counted}")
    p = pattern
    floor = bisect_left(ds, p.floor_value)
    near = bisect_left(ds, p.near_cutoff, floor)
    mid = bisect_left(ds, p.mid_cutoff, near)
    base, step, band, far = p.floor_value, p.mid_step, p.mid_band, p.far_unit
    shown = [base] * floor
    # empty bands are skipped: profile views and favorites show one to three users
    if near > floor:
        shown += [base + r * step for r in _randranges(rng, _band_levels(p) + 1, near - floor)]
    if mid > near or counted:
        # one of the additive values {0, mid_step, ..., mid_band} per draw
        draws = _randranges(rng, int(band // step) + 1, mid - near + counted)
        shown += [rounded_base(d, band) * band + r * step for d, r in zip(ds[near:mid], draws)]
    if mid < len(ds):
        shown += [rounded_base(d, far) * far for d in ds[mid:]]
    return shown


# fewer draws than this are made one getrandbits call at a time: a batch's
# fixed cost outweighs them. Replaying service-churn's calls (one near-band
# and one mid-band call per screen, the mid-band one ~250 draws at n = 11)
# on a 2-vCPU x86-64 host, batching to the last draw took 33-46 us per
# screen, and a tail from 32, 64, 96, 128 or 192 draws 0.51-0.57, 0.48-0.54,
# 0.43-0.45, 0.42-0.47 and 0.46-0.52 of that.
_BATCH_MIN = 128


def _randranges(rng: random.Random, n: int, count: int) -> list[int]:
    """The values of count rng.randrange(n) calls, leaving rng where they would.

    randrange(n) draws k = n.bit_length() bits, getrandbits(k), and draws
    again while they are >= n. For k <= 32, getrandbits(k) takes one 32-bit
    Mersenne Twister word and keeps its top k bits, and getrandbits(32 * m)
    returns the next m words, least significant first. A batch of m words,
    m being the draws still missing, accepts at most m of them, so it never
    takes a word past the last draw. The last draws (under _BATCH_MIN), and
    every draw for k > 32, run randrange's own loop.
    """
    k = n.bit_length()
    values: list[int] = []
    while k <= 32 and count >= _BATCH_MIN:
        words = np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4") >> (32 - k)
        kept = words[words < n]
        values += kept.tolist()
        count -= kept.size
    getrandbits = rng.getrandbits
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        values.append(r)
    return values


def obfuscation_envelope(d: float, pattern: ObfuscationPattern) -> tuple[float, float]:
    """Closed-form output support for a true distance: the [lo, hi] interval
    containing every value obfuscate_distances draws for d.

    Raises:
        NegativeDistance: d < 0.
    """
    if d < 0.0:
        raise NegativeDistance(f"true distance must be >= 0, got {d}")
    p = pattern
    b = band_of(d, p)
    if b == 0:
        return (p.floor_value, p.floor_value)
    if b == 1:
        return (p.floor_value, p.floor_value + _band_levels(p) * p.mid_step)
    if b == 2:
        base = rounded_base(d, p.mid_band) * p.mid_band
        return (base, base + p.mid_band)
    r = rounded_base(d, p.far_unit) * p.far_unit
    return (r, r)


def invert_reading(shown: float, pattern: ObfuscationPattern) -> tuple[float, float] | None:
    """Smallest half-open interval [lo, hi) holding every true distance that
    can emit ``shown``; when the preimage has gaps, the interval spans them.

    A shown distance depends on the true one only through its band_of key
    and, in bands 2 and 3, its rounded_base. Each key that gives shown at
    some level, computed as obfuscate_distances computes it, adds its exact
    preimage: the band's cutoffs, narrowed to that rounded base (_least).

    Returns None when no true distance can produce the reading under the
    pattern (an impossible reading is a signal, not an error).
    """
    p = pattern
    if shown is None or not math.isfinite(shown) or shown < 0.0:
        return None
    pieces = [(0.0, p.floor_value)] if shown == p.floor_value else []
    if _emits(shown, p.floor_value, p.mid_step, _band_levels(p)):
        pieces.append((p.floor_value, p.near_cutoff))
    keyed = ((p.near_cutoff, p.mid_cutoff, p.mid_band, int(p.mid_band // p.mid_step)), (p.mid_cutoff, math.inf, p.far_unit, 0))
    for lo_cut, hi_cut, unit, levels in keyed:
        # a key that gives shown lies within one of the rounded quotient's
        # floor while keys stay below 2**52 (_MIN_UNIT_M); shown // unit can
        # be two off where unit nears the spacing of floats at shown
        k = (shown / unit) // 1.0
        for key in (k - 1.0, k, k + 1.0):
            if key >= 0.0 and _emits(shown, key * unit, p.mid_step, levels):
                pieces.append((max(lo_cut, _least(key, unit)), min(hi_cut, _least(key + 1.0, unit))))
    pieces = [(lo, hi) for lo, hi in pieces if lo < hi]
    return (min(lo for lo, _ in pieces), max(hi for _, hi in pieces)) if pieces else None


def _emits(shown: float, base: float, step: float, levels: int) -> bool:
    """Whether base + r * step, as obfuscate_distances computes it, is shown for a level r in 0..levels."""
    lo, hi = 0, levels  # bisect for the least level that reaches shown
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if base + mid * step < shown else (lo, mid)
    return base + lo * step == shown


def _least(key: float, unit: float) -> float:
    """The least float x >= 0 with rounded_base(x, unit) >= key: a few floats from (key - 1/2) * unit."""
    x = max((key - 0.5) * unit, 0.0)
    while x > 0.0 and rounded_base(math.nextafter(x, 0.0), unit) >= key:
        x = math.nextafter(x, 0.0)
    while rounded_base(x, unit) < key:
        x = math.nextafter(x, math.inf)
    return x


EXACT = "exact"
AMBIGUOUS = "ambiguous"

# infer_pattern rests on two premises. (1) A run of consecutive positions
# that all show one value over at least _FIXED_DRAWS draws in total lies in
# neither randomized band, near or mid. (2) near_cutoff and mid_cutoff are
# multiples of _CUTOFF_GRID metres. A 1 m grid is not enough: it loses
# hornet-scatter seed 2017's mid_cutoff, as (998.97, 1000.36] holds both 999
# and 1000.
_FIXED_DRAWS = 20
_CUTOFF_GRID = 5.0
_MIN_SAMPLES = 500


@dataclass(frozen=True)
class InferredPattern:
    """Pattern estimate plus a per-field exact/ambiguous confidence tag.

    A field is None exactly when it is tagged ambiguous.
    """

    floor_value: float | None
    near_cutoff: float | None
    mid_cutoff: float | None
    mid_band: float | None
    mid_step: float | None
    far_unit: float | None
    confidence: Mapping[str, str]

    def all_exact(self) -> bool:
        return all(self.confidence[name] == EXACT for name in _PATTERN_FIELDS)

    def as_pattern(self) -> ObfuscationPattern:
        if not self.all_exact():
            raise ValueError("cannot build a pattern from ambiguous fields")
        return ObfuscationPattern(**{name: getattr(self, name) for name in _PATTERN_FIELDS})


def infer_pattern(samples: Iterable[ObfuscationSample]) -> InferredPattern:
    """Reconstruct band parameters from observed (true, shown) pairs.

    Samples are grouped by true distance into positions, fixed (one shown
    value) or varied. Under premises (1) and (2) above, fixed runs before the
    first varied position are band 0 and show the floor; those after the last
    are the far band, whose unit is the divisor u of their values' GCD in whole
    micrometres for which rounded_base(d, u) * u gives each of them. mid_step
    is the GCD of the level differences inside varied positions. A split of the
    varied positions gives near_cutoff and mid_band when every value below it
    is a floor level no higher than the next position, and each position above
    it shows levels of its rounded_base(d, mid_band) window, mid_band being
    their largest spread. A cutoff takes the grid values between the positions
    on either side of its band change; near_cutoff is also at least every value
    below the split.

    A field is exact iff exactly one candidate survives, and None otherwise.
    A fixed run between varied positions, or band-0 runs that show two values
    or one not above their distances, leave every field ambiguous.

    Raises:
        InsufficientSamples: fewer than 500 samples in total.
    """
    samples = list(samples)
    if len(samples) < _MIN_SAMPLES:
        raise InsufficientSamples(f"need >= {_MIN_SAMPLES} samples, got {len(samples)}")
    t = np.array([s.true_distance for s in samples])
    v = np.array([s.shown_distance for s in samples])
    order = np.lexsort((v, t))
    t, v = t[order], v[order]
    same = t[1:] == t[:-1]
    first = np.flatnonzero(np.r_[True, ~same])
    ds, lo, hi = t[first], v[first], v[np.r_[first[1:], len(t)] - 1]
    varied = lo < hi
    # a run is one varied position, or consecutive fixed ones that show one value
    run = np.cumsum(np.r_[True, varied[1:] | varied[:-1] | (lo[1:] != lo[:-1])]) - 1
    known = varied | (np.bincount(run, np.diff(np.r_[first, len(t)]))[run] >= _FIXED_DRAWS)
    ds, lo, hi, varied = ds[known], lo[known], hi[known], varied[known]
    vi = np.flatnonzero(varied)
    a, b = (vi[0], vi[-1] + 1) if vi.size else (len(ds), len(ds))
    if not varied[a:b].all() or (a and ((lo[:a] != lo[0]).any() or lo[0] <= ds[a - 1])):
        return InferredPattern(**dict.fromkeys(_PATTERN_FIELDS), confidence=dict.fromkeys(_PATTERN_FIELDS, AMBIGUOUS))
    floor = lo[0] if a else None
    step = _micrometre_gcd(np.diff(v)[same]) / 1e6
    vd, vlo, vhi, edge = ds[a:b], lo[a:b], hi[a:b], np.r_[ds, math.inf]
    splits = []  # (near_cutoff candidates, mid_band) of each split that passes
    if floor is not None and b > a and step:
        top = np.r_[floor, np.maximum.accumulate(vhi)]
        # a varied position spreads at least 1 um, so only an empty suffix is 0.0
        spread = np.maximum(np.rint((vhi - vlo) * 1e6), 1.0)
        widest = np.r_[np.maximum.accumulate(spread[::-1])[::-1], 0] / 1e6
        on_floor = np.r_[True, np.logical_and.accumulate(_on_levels(vlo, vhi, floor, step))]
        for k in np.flatnonzero(on_floor & (top <= edge[a : b + 1])):
            near = _grid(max(ds[a + k - 1], floor), top[k], edge[a + k])
            band = widest[k]  # 0.0 when no position lies above the split
            base = rounded_base(vd[k:], band) * band
            fits = _on_levels(vlo[k:], vhi[k:], base, step) & (vhi[k:] <= base + band)
            if near and band % step == 0.0 and fits.all():
                splits.append((near, band))
    found = {
        "floor_value": {floor},
        "near_cutoff": set().union(*(near for near, _ in splits)),
        "mid_cutoff": _grid(ds[b - 1], 0.0, edge[b]) if b > a else set(),
        "mid_band": {band for _, band in splits},
        "mid_step": {step} if splits else set(),
        "far_unit": {u for u in _units(lo[b:]) if np.array_equal(rounded_base(ds[b:], u) * u, lo[b:])},
    }
    # None (no floor) and 0.0 (an empty mid band) leave a field open
    exact = {name: len(c) == 1 and all(c) for name, c in found.items()}
    values = {name: float(min(c)) if exact[name] else None for name, c in found.items()}
    return InferredPattern(confidence={name: EXACT if exact[name] else AMBIGUOUS for name in exact}, **values)


def _on_levels(lo, hi, base, step):
    """_emits on arrays, the top level left to the caller: are lo and hi each base + r * step, r >= 0?"""
    r_lo, r_hi = np.rint((lo - base) / step), np.rint((hi - base) / step)
    return (r_lo >= 0) & (base + r_lo * step == lo) & (base + r_hi * step == hi)


def _micrometre_gcd(x) -> int:
    """The GCD of the distances x in whole micrometres; 0 for none, or when one
    reaches 2**53 um (~9e9 m), where a float's spacing reaches a micrometre."""
    um = [round(d * 1e6) for d in np.unique(x).tolist()]
    return math.gcd(*um) if max(um, default=0) < 2**53 else 0


def _units(values) -> list[float]:
    """Every unit, in whole micrometres, of which each value is a multiple (none if all are 0)."""
    n = _micrometre_gcd(values)
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return [i / 1e6 for i in small + [n // i for i in small]]


def _grid(above: float, least: float, most: float) -> set[float]:
    """The multiples of _CUTOFF_GRID over above, at least least and at most
    most; two at most, since two already make a cutoff ambiguous."""
    k = max(math.floor(above / _CUTOFF_GRID) + 1, math.ceil(least / _CUTOFF_GRID))
    return {j * _CUTOFF_GRID for j in (k, k + 1) if j * _CUTOFF_GRID <= most}
