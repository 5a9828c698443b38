"""Banded distance obfuscation (forward) and its empirical inversion.

The forward direction turns a true distance into a displayed one using four
bands; the inverse direction recovers, from a displayed value, the interval of
true distances that could have produced it, and `infer_pattern` reconstructs
the band parameters from observed (true, shown) sample pairs alone.

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


class NegativeDistance(ValueError):
    """Distance inputs must be >= 0."""


class InsufficientSamples(ValueError):
    """Too few samples to attempt pattern inference."""


_PATTERN_FIELDS = ("floor_value", "near_cutoff", "mid_cutoff", "mid_band", "mid_step", "far_unit")


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

    All rounding is half-up. Defaults reproduce the 80 m floor, 100 m banded
    noise with 10 m steps, and nearest-kilometre far rounding.
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


def _round_half_up(value: float, unit: float) -> float:
    return math.floor(value / unit + 0.5) * unit


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
        shown += [math.floor(d / band + 0.5) * band + r * step for d, r in zip(ds[near:mid], draws)]
    if mid < len(ds):
        shown += [math.floor(d / far + 0.5) * far for d in ds[mid:]]
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
    if d < p.floor_value:
        return (p.floor_value, p.floor_value)
    if d < p.near_cutoff:
        return (p.floor_value, p.floor_value + _band_levels(p) * p.mid_step)
    if d < p.mid_cutoff:
        base = _round_half_up(d, p.mid_band)
        return (base, base + p.mid_band)
    r = _round_half_up(d, p.far_unit)
    return (r, r)


def _on_grid(value: float, unit: float) -> bool:
    q = value / unit
    return abs(q - round(q)) < 1e-9


def invert_reading(shown: float, pattern: ObfuscationPattern) -> tuple[float, float] | None:
    """Smallest half-open interval [lo, hi) holding every true distance that
    can emit ``shown``; when the preimage has gaps, the interval spans them.

    Returns None when no true distance can produce the reading under the
    pattern (an impossible reading is a signal, not an error).
    """
    p = pattern
    if shown is None or not math.isfinite(shown) or shown < 0.0:
        return None
    pieces: list[tuple[float, float]] = []

    # floor band: every d in [0, floor_value) shows exactly floor_value
    if shown == p.floor_value:
        pieces.append((0.0, p.floor_value))

    # fixed-level band: any level in {floor + k*step} can appear for any
    # d in [floor_value, near_cutoff)
    top_level = p.floor_value + _band_levels(p) * p.mid_step
    if p.floor_value <= shown <= top_level and _on_grid(shown - p.floor_value, p.mid_step):
        pieces.append((p.floor_value, p.near_cutoff))

    # banded band: shown = base + additive with base a mid_band multiple and
    # additive in [0, mid_band]; the d-preimage of a base is
    # [base - mid_band/2, base + mid_band/2) clipped to [near_cutoff, mid_cutoff)
    if _on_grid(shown, p.mid_step):
        k_min = math.ceil((shown - p.mid_band) / p.mid_band - 1e-9)
        k_max = math.floor(shown / p.mid_band + 1e-9)
        for k in range(k_min, k_max + 1):
            base = k * p.mid_band
            lo = max(base - p.mid_band / 2.0, p.near_cutoff)
            hi = min(base + p.mid_band / 2.0, p.mid_cutoff)
            if lo < hi:
                pieces.append((lo, hi))

    # far band: shown = m * far_unit for d in [m*u - u/2, m*u + u/2), d >= mid_cutoff
    if _on_grid(shown, p.far_unit):
        lo = max(shown - p.far_unit / 2.0, p.mid_cutoff)
        hi = shown + p.far_unit / 2.0
        if lo < hi:
            pieces.append((lo, hi))

    if not pieces:
        return None
    return (min(lo for lo, _ in pieces), max(hi for _, hi in pieces))


EXACT = "exact"
AMBIGUOUS = "ambiguous"

# minimum distinct sampling positions a band needs before its parameters are
# reported as exact
_MIN_POSITIONS = 10
_MIN_SAMPLES = 500


@dataclass(frozen=True)
class InferredPattern:
    """Pattern estimate plus a per-field exact/ambiguous confidence tag.

    Fields with no supporting evidence are None and tagged ambiguous.
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

    Samples are grouped by true distance into positions; band structure is
    read off per-position output sets: the constant-output prefix gives the
    floor, the fixed-level region gives the near cutoff, within-position
    spreads give the band width and step, and the trailing deterministic
    region gives the far unit and the mid cutoff. Shown values are quantized
    to whole meters before any GCD arithmetic.

    Raises:
        InsufficientSamples: fewer than 500 samples in total.
    """
    samples = list(samples)
    if len(samples) < _MIN_SAMPLES:
        raise InsufficientSamples(f"need >= {_MIN_SAMPLES} samples, got {len(samples)}")

    positions: dict[float, set[int]] = {}
    for s in samples:
        positions.setdefault(s.true_distance, set()).add(int(round(s.shown_distance)))
    ds = sorted(positions)
    sets = {d: sorted(positions[d]) for d in ds}

    values: dict[str, float | None] = {name: None for name in _PATTERN_FIELDS}
    conf: dict[str, str] = {name: AMBIGUOUS for name in _PATTERN_FIELDS}

    # 1. constant-output prefix -> floor_value
    i = 0
    floor_out: int | None = None
    if sets[ds[0]] != [] and len(sets[ds[0]]) == 1:
        floor_out = sets[ds[0]][0]
        while i < len(ds) and sets[ds[i]] == [floor_out]:
            i += 1
    if floor_out is not None and i >= _MIN_POSITIONS:
        values["floor_value"] = float(floor_out)
        conf["floor_value"] = EXACT
    else:
        i = 0

    # 2. fixed-level region: output sets still reach down to the floor value,
    #    but vary; its top level is the near cutoff
    b_start = i
    if conf["floor_value"] == EXACT:
        while i < len(ds) and min(sets[ds[i]]) == floor_out:
            i += 1
        region_b = ds[b_start:i]
        if region_b:
            top = max(max(sets[d]) for d in region_b)
            if len(region_b) >= _MIN_POSITIONS and i < len(ds):
                values["near_cutoff"] = float(top)
                conf["near_cutoff"] = EXACT
            elif top > floor_out:
                values["near_cutoff"] = float(top)

    # 3. trailing run of deterministic (single-output) positions -> far region;
    #    everything in between varies per query -> banded region
    j = len(ds)
    while j > i and len(sets[ds[j - 1]]) == 1:
        j -= 1
    mid_ds = ds[i:j]
    far_ds = ds[j:]

    # 4. band width and quantization step from within-position variation
    spreads = [sets[d][-1] - sets[d][0] for d in mid_ds]
    diffs: list[int] = []
    for d in mid_ds:
        outs = sets[d]
        diffs.extend(b - a for a, b in zip(outs, outs[1:]))
    if mid_ds and any(diffs):
        step = 0
        for delta in diffs:
            step = math.gcd(step, delta)
        band = max(spreads)
        values["mid_step"] = float(step)
        values["mid_band"] = float(band)
        if len(mid_ds) >= _MIN_POSITIONS and step > 0 and band % step == 0:
            conf["mid_step"] = EXACT
            conf["mid_band"] = EXACT
    elif not any(sets[d][-1] - sets[d][0] for d in ds):
        # no position varies at all: zero observed randomization, but the band
        # structure itself cannot be confirmed
        values["mid_band"] = 0.0

    # 5. far unit from the GCD of far outputs; only meaningful when a varying
    #    region precedes the deterministic tail
    if mid_ds and far_ds:
        unit = 0
        for d in far_ds:
            unit = math.gcd(unit, sets[d][0])
        if unit > 1:
            values["far_unit"] = float(unit)
            if len(far_ds) >= _MIN_POSITIONS:
                conf["far_unit"] = EXACT

        # 6. mid cutoff lies between the last varying position and the first
        #    deterministic one; snap to the unique far-unit multiple if any
        lo_d, hi_d = mid_ds[-1], far_ds[0]
        if values["far_unit"]:
            u = values["far_unit"]
            k_lo = math.floor(lo_d / u) + 1
            k_hi = math.floor(hi_d / u)
            if k_lo == k_hi:
                values["mid_cutoff"] = k_lo * u
                if conf["far_unit"] == EXACT and len(mid_ds) >= _MIN_POSITIONS:
                    conf["mid_cutoff"] = EXACT
        if values["mid_cutoff"] is None:
            values["mid_cutoff"] = hi_d

    return InferredPattern(confidence=conf, **values)
