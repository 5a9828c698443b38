"""Acceptance suite: one test per criterion, one PASS/FAIL line each."""

import math
import random
import time

from scipy import stats

from geoleak.attack import AnnulusConstraint, intersect_constraints
from geoleak.geodesy import GeoPoint, LocalPoint, Projection, haversine_distance, project, unproject
from geoleak.harness import VICTIM_ID, build_world, locate, run_scenario
from geoleak.lbs_sim import DisclosurePolicy, PolicyMode, World
from geoleak.obfuscation import HORNET_DEFAULT, infer_pattern, obfuscation_envelope
from geoleak.scenarios import preset


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_exact_trilateration_on_the_fixture():
    start = time.perf_counter()
    row = run_scenario(preset("kyoto-exact"))
    elapsed = time.perf_counter() - start
    ok = row.outcome == "success" and row.localization_error <= 1.0 and elapsed < 1.0
    _verdict(1, ok, f"fixture trilateration error {row.localization_error:.3f} m in {elapsed:.2f} s")


def test_criterion_2_colluding_locates_hidden_victim():
    sc = preset("grindr-hidden")
    successes = 0
    worst_err = 0.0
    worst_time = 0.0
    budget_ok = True
    for i in range(20):
        world, ids, vantages = build_world(sc, seed=sc.seed + i)
        start = time.perf_counter()
        report = locate(world, ids, vantages, sc.attack)
        worst_time = max(worst_time, time.perf_counter() - start)
        err = haversine_distance(report.estimate, sc.victim.point)
        worst_err = max(worst_err, err)
        for accepted, s0 in zip(report.accepted_steps, report.initial_separations):
            budget = max(0, math.ceil(math.log2(max(s0, sc.attack.epsilon_m) / sc.attack.epsilon_m)))
            budget_ok = budget_ok and accepted <= budget
        if err <= 25.0 and world.profile_views[VICTIM_ID] == 0:
            successes += 1
    ok = successes >= 19 and budget_ok and worst_time < 10.0
    _verdict(
        2,
        ok,
        f"hidden-victim colluding: {successes}/20 within 25 m (worst {worst_err:.1f} m), "
        f"zero profile queries, steps within log2 budget, worst seed {worst_time:.2f} s",
    )


def test_criterion_3_sparse_remote_region_contains_victim():
    sc = preset("sparse-remote")
    contained = 0
    for i in range(20):
        world, ids, vantages = build_world(sc, seed=sc.seed + i)
        report = locate(world, ids, vantages, sc.attack)
        contained += report.region.contains(sc.victim.point)
    _verdict(3, contained == 20, f"remote-victim survey containment {contained}/20 seeds")


def test_criterion_4_envelope_invariants_over_90k_samples(hornet_scatter_samples):
    samples = hornet_scatter_samples
    p = HORNET_DEFAULT
    violations = 0
    additive_counts = [0] * 11
    for s in samples:
        d, shown = s.true_distance, s.shown_distance
        lo, hi = obfuscation_envelope(d, p)
        if not lo <= shown <= hi:
            violations += 1
        if d < p.floor_value and shown != p.floor_value:
            violations += 1
        if d < p.mid_cutoff and shown % p.mid_step != 0.0:
            violations += 1
        if p.near_cutoff <= d < p.mid_cutoff:
            base = math.floor(d / 100.0 + 0.5) * 100.0
            if abs(shown - base) > p.mid_band:
                violations += 1
            additive_counts[int((shown - base) // p.mid_step)] += 1
        if d >= p.mid_cutoff:
            if shown % p.far_unit != 0.0 or abs(shown - d) > p.far_unit / 2.0:
                violations += 1
    chi = stats.chisquare(additive_counts)
    ok = len(samples) == 90_000 and violations == 0 and chi.pvalue > 0.001
    _verdict(
        4,
        ok,
        f"{len(samples)} samples, {violations} envelope violations, "
        f"mid-band uniformity p={chi.pvalue:.3f}",
    )


def test_criterion_5_pattern_inference_closed_loop(hornet_scatter_samples):
    inferred = infer_pattern(hornet_scatter_samples)
    values = (
        inferred.floor_value,
        inferred.near_cutoff,
        inferred.mid_cutoff,
        inferred.mid_band,
        inferred.mid_step,
        inferred.far_unit,
    )
    ok = inferred.all_exact() and values == (80.0, 100.0, 1000.0, 100.0, 10.0, 1000.0)
    _verdict(5, ok, f"inferred {values}, all fields exact={inferred.all_exact()}")


def test_criterion_6_dropping_countermeasure_and_favorites_bypass():
    no_fav = preset("hornet-no-favorites")
    blocked = [run_scenario(no_fav, seed=no_fav.seed + i) for i in range(20)]
    blocked_rate = sum(r.outcome == "success" for r in blocked) / 20.0

    fav = preset("hornet-favorites")
    bypass = [run_scenario(fav, seed=fav.seed + i) for i in range(20)]
    bypass_hits = sum(
        r.outcome == "success" and r.localization_error <= 25.0 and r.victim_profile_queries == 0
        for r in bypass
    )
    ok = blocked_rate <= 0.1 and bypass_hits >= 18
    _verdict(
        6,
        ok,
        f"dropping holds without favorites (success rate {blocked_rate:.2f}) "
        f"and falls to the favorites bypass ({bypass_hits}/20 within 25 m)",
    )


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = random.Random(424242)
    anchor = GeoPoint(35.0, 135.8)
    proj = Projection.at(anchor)

    # region containment: 1000 random exact-flanker configurations
    contained = 0
    for _ in range(1000):
        victim = LocalPoint(rng.uniform(-250.0, 250.0), rng.uniform(-250.0, 250.0))
        constraints = []
        for _ in range(3):
            cx, cy = rng.uniform(-700.0, 700.0), rng.uniform(-700.0, 700.0)
            av = math.hypot(victim.x - cx, victim.y - cy)
            an1 = av - rng.uniform(2.0, 60.0)
            an2 = av + rng.uniform(2.0, 60.0)
            constraints.append(AnnulusConstraint(LocalPoint(cx, cy), max(0.0, an1), an2))
        region = intersect_constraints(constraints, 4.0, proj)
        contained += region.contains_local(victim)

    # region-area monotonicity while appending constraints
    monotone = True
    for _ in range(100):
        victim = LocalPoint(rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0))
        constraints = []
        last = math.inf
        for _ in range(4):
            cx, cy = rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)
            av = math.hypot(victim.x - cx, victim.y - cy)
            w = rng.uniform(5.0, 80.0)
            constraints.append(AnnulusConstraint(LocalPoint(cx, cy), max(0.0, av - w), av + w))
            area = intersect_constraints(constraints, 4.0, proj).area()
            monotone = monotone and area <= last
            last = area

    # ordering leak: victim's sorted index ignores the show_distance flag
    def victim_indices(show):
        policy = DisclosurePolicy(PolicyMode.OBFUSCATED, pattern=HORNET_DEFAULT, drop_probability=0.4)
        world = World(policy, 777)
        world.add_user("victim", unproject(LocalPoint(120.0, -60.0), proj), show)
        gen = random.Random(31337)
        for i in range(25):
            spot = unproject(LocalPoint(gen.uniform(-600, 600), gen.uniform(-600, 600)), proj)
            world.add_user(f"bg-{i:02d}", spot, True)
        world.add_user("obs", anchor, True)
        return [world.query_nearby("obs").index_of("victim") for _ in range(30)]

    leak_invariant = victim_indices(True) == victim_indices(False)

    # zero contact: the colluding run never views the victim's profile
    sc = preset("grindr-hidden")
    world, ids, vantages = build_world(sc, seed=901)
    locate(world, ids, vantages, sc.attack)
    zero_contact = world.profile_views[VICTIM_ID] == 0 and not +world.profile_views

    # deterministic replay: byte-identical GeoJSON for the same (scenario, seed)
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        run_scenario(sc, out_dir=a)
        run_scenario(sc, out_dir=b)
        name = f"{sc.name}-{sc.seed}.geojson"
        replay_identical = (a / name).read_bytes() == (b / name).read_bytes()

    # projection round trip stays under half a meter
    round_trip_ok = True
    for _ in range(500):
        p = GeoPoint(35.0 + rng.uniform(-0.9, 0.9), 135.8 + rng.uniform(-0.9, 0.9))
        round_trip_ok = round_trip_ok and haversine_distance(p, unproject(project(p, proj), proj)) <= 0.5

    elapsed = time.perf_counter() - start
    ok = (
        contained == 1000
        and monotone
        and leak_invariant
        and zero_contact
        and replay_identical
        and round_trip_ok
        and elapsed < 60.0
    )
    _verdict(
        7,
        ok,
        f"containment {contained}/1000, monotone={monotone}, leak_invariant={leak_invariant}, "
        f"zero_contact={zero_contact}, replay_identical={replay_identical}, "
        f"round_trip={round_trip_ok}, elapsed {elapsed:.1f} s",
    )
