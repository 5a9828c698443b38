import csv
import hashlib
import json
import math
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from geoleak.cli import main
from geoleak.fixtures import SCIENCE_FRONTIER_LAB
from geoleak.geodesy import GeoPoint, haversine_distance
from geoleak.harness import (
    VICTIM_ID,
    AttackSpec,
    BackgroundSpec,
    Scenario,
    build_world,
    emit_scatter,
    load_samples_csv,
    locate,
    run_scenario,
    run_suite,
    save_samples_csv,
    scenario_to_json,
)
from geoleak.jsonio import from_json
from geoleak.obfuscation import HORNET_DEFAULT, ObfuscationPattern, infer_pattern, obfuscation_envelope
from geoleak.scenarios import PRESETS, preset

LAB = SCIENCE_FRONTIER_LAB


def test_presets_serialize_round_trip():
    for name in PRESETS:
        sc = preset(name)
        doc = scenario_to_json(sc)
        again = scenario_to_json(from_json(Scenario, json.loads(json.dumps(doc))))
        assert again == doc
        assert sc.name == name


# sha256 of json.dumps(scenario_to_json(preset(name)), sort_keys=True), and the
# dumps themselves (tests/preset_dumps.json), both taken before the scenario
# codec was rewritten; the file format must not drift
PRESET_DUMP_DIGESTS = {
    "kyoto-exact": "eb0fa3cd1f52394c9bcfed83dd8a150a0f0426d18ca4c16b32a5b99218c77f28",
    "grindr-hidden": "985550dbde79da64edaac8b922472604a962f625f1da8b1e1d85a66213f2da15",
    "sparse-remote": "48d3d5006b873e1fb0c64304c43fb64c9228d2c234adcc9ab8ac880b4fb3b832",
    "hornet-no-favorites": "ac61ef1b37bcc665aa50c67f79d9d295f6d3d6a2b550a78b5c1f1abad7fd9403",
    "hornet-favorites": "1b2db72c0a5c4a4f2f37790866945f7045a27881a8534d11a18fbb483bc1900d",
    "hornet-scatter": "8236207dad9dbb165d1f740e769a1eb4169ef16fd49b4c2ee74e945ec74dcf0d",
}


def test_preset_dumps_match_pinned_format():
    dumps = json.loads(Path(__file__).with_name("preset_dumps.json").read_text())
    assert sorted(PRESET_DUMP_DIGESTS) == sorted(PRESETS) == sorted(dumps)
    for name, digest in PRESET_DUMP_DIGESTS.items():
        text = json.dumps(scenario_to_json(preset(name)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
        assert from_json(Scenario, dumps[name]) == preset(name), name


def _edited_dump(edit):
    doc = json.loads(json.dumps(scenario_to_json(preset("grindr-hidden"))))
    edit(doc)
    return doc


def _bg_user(uid):
    return {"id": uid, "lat": 35.03, "lon": 135.78, "show_distance": True}


def _polar_background(doc):
    """A generated background centred past the projection's latitude limit."""
    doc["background"]["center"] = {"lat": 89.99, "lon": 135.77}


# explicit vantages on one meridian: their anchor triangle has zero area
COLLINEAR_VANTAGES = [{"lat": lat, "lon": 135.77} for lat in (35.02, 35.03, 35.04)]


def _hornet_favorites_pattern(**fields):
    """An edit that swaps in the hornet-favorites dump with these pattern fields."""

    def edit(doc):
        doc.update(json.loads(json.dumps(scenario_to_json(preset("hornet-favorites")))))
        doc["policy"]["pattern"].update(fields)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["attack"].update(epsilon=5), "$.attack: unknown key 'epsilon'"),
        (lambda d: d.update(max_entries="7"), "$.max_entries: expected integer, got string"),
        (lambda d: d.update(seed=True), "$.seed: expected integer, got boolean"),
        (lambda d: d.pop("victim"), "$: missing key 'victim'"),
        (lambda d: d["policy"].update(mode="nope"), "$.policy.mode: expected one of"),
        (lambda d: d["attack"]["vantage_points"].pop(), "$.attack: vantage_points must hold exactly 3 points"),
        (lambda d: d["policy"].update(accuracy_setting="exact"), "$.policy: unknown key 'accuracy_setting'"),
        (lambda d: d["background"].update(users=[{"id": "u", "lat": 35.0, "lon": 135.0}]),
         "$.background.users[0]: missing key 'show_distance'"),
        (lambda d: d["attack"].update(epsilon_m=math.nan), "$.attack: epsilon_m must be finite and positive, got nan"),
        (lambda d: d["attack"].update(max_distance_m=math.inf), "$.attack: max_distance_m must be finite and positive, got inf"),
        (lambda d: d["attack"].update(max_distance_m=math.nan), "$.attack: max_distance_m must be finite and positive, got nan"),
        (lambda d: d["attack"].update(max_distance_m=-5), "$.attack: max_distance_m must be finite and positive, got -5"),
        (lambda d: d["attack"].update(max_distance_m=0), "$.attack: max_distance_m must be finite and positive, got 0"),
        (lambda d: d.update(max_entries=-2), "$: max_entries must be a positive integer or null, got -2"),
        (lambda d: d.update(max_entries=0), "$: max_entries must be a positive integer or null, got 0"),
        (_hornet_favorites_pattern(far_unit=math.inf, mid_cutoff=300), "$.policy.pattern: far_unit must be finite"),
        (lambda d: d["attack"].update(max_moves=-5), "$.attack: max_moves must be at least 1, got -5"),
        (lambda d: d["attack"].update(max_queries=0), "$.attack: max_queries must be at least 1, got 0"),
        (lambda d: d["attack"].update(locations=0), "$.attack: locations must be at least 1, got 0"),
        (lambda d: d["attack"].update(queries_per_location=-1),
         "$.attack: queries_per_location must be at least 1, got -1"),
        (lambda d: d["background"].update(radius_m=math.nan),
         "$.background: generator background needs center, finite radius_m > 0"),
        (lambda d: d["background"].update(users=[{"id": "u", "lat": 35.0, "lon": 135.0, "show_distance": True}]),
         "$.background: users cannot be given together with count, center or radius_m"),
        (lambda d: d["attack"].update(epsilon_m=10**400), "$.attack.epsilon_m: number too large for a float"),
        (lambda d: d.update(background={"users": [{"id": "u", "lat": 95.0, "lon": 135.0, "show_distance": True}]}),
         "$.background.users[0]: latitude out of range"),
        (lambda d: d.update(background={"users": [_bg_user("u"), _bg_user("w"), _bg_user("u")]}),
         "$.background: users[2]: id 'u' is already taken by an earlier user"),
        (lambda d: d.update(background={"users": [_bg_user("attacker")]}), "$.background: users[0]: id 'attacker' is reserved"),
        (lambda d: d.update(background={"users": [_bg_user("u"), _bg_user("victim")]}),
         "$.background: users[1]: id 'victim' is reserved"),
        (lambda d: d["attack"].update(kind="infer_pattern"),
         "$: an infer_pattern attack samples the policy's pattern, and this policy has none"),
        (lambda d: d.update(name="../escaped"), "$: name must be a plain file name, got '../escaped'"),
        (lambda d: d.update(name="/tmp/abs"), "$: name must be a plain file name, got '/tmp/abs'"),
        (lambda d: d.update(name="sub/dir"), "$: name must be a plain file name, got 'sub/dir'"),
        (lambda d: d.update(name="..\\escaped"), "$: name must be a plain file name, got '..\\\\escaped'"),
        (lambda d: d["attack"].update(kind="trilateration", vantage_points=COLLINEAR_VANTAGES),
         "$.attack: anchor triangle area 0.0 m^2 too small"),
        (_polar_background, "$.background: generator background center latitude must be within +-85.0, got 89.99"),
        (lambda d: d["background"].update(radius_m=200_000),
         "$.background: generator background radius_m must be below 120000.0, got 200000"),
    ],
    ids=[
        "typo", "string-int", "bool-int", "no-victim", "bad-enum", "two-vantages", "stale-key", "user-shape",
        "nan-epsilon", "inf-max-distance", "nan-max-distance", "negative-max-distance", "zero-max-distance",
        "negative-max-entries", "zero-max-entries", "inf-pattern-field",
        "negative-max-moves", "zero-max-queries", "zero-locations", "negative-queries-per-location",
        "nan-radius", "users-and-generator", "huge-epsilon", "user-latitude", "duplicate-user-id",
        "attacker-id", "victim-id", "infer-without-pattern", "parent-name", "absolute-name", "nested-name",
        "backslash-name", "collinear-trilateration-vantages", "polar-background", "huge-radius",
    ],
)
def test_scenario_loading_is_strict(edit, message):
    with pytest.raises(ValueError) as err:
        from_json(Scenario, _edited_dump(edit))
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("kind, outcome", [("colluding", "success"), ("passive_sandwich", "empty_region")])
def test_collinear_vantages_load_for_attacks_that_do_not_trilaterate(kind, outcome):
    doc = json.loads(json.dumps(scenario_to_json(preset("kyoto-exact"))))
    doc["attack"].update(kind=kind, vantage_points=COLLINEAR_VANTAGES)
    assert run_scenario(from_json(Scenario, doc)).outcome == outcome


def test_scenario_keys_left_out_take_the_dataclass_defaults():
    doc = _edited_dump(lambda d: (d.update(attack={"kind": "colluding"}), d.pop("max_entries")))
    sc = from_json(Scenario, doc)
    assert sc.attack == AttackSpec(kind="colluding") and sc.max_entries is None


def test_cli_bad_scenario_file_exits_1_naming_the_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_edited_dump(lambda d: d["attack"].update(epsilon=5))))
    assert main(["run", "--scenario", str(path)]) == 1
    assert "$.attack: unknown key 'epsilon'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["attack"].update(epsilon_m=math.nan), "$.attack: epsilon_m must be finite"),
        (lambda d: d.update(max_entries=-2), "$: max_entries must be a positive integer"),
        (lambda d: d["attack"].update(max_moves=-5), "$.attack: max_moves must be at least 1"),
        (lambda d: d["attack"].update(epsilon_m=10**400), "$.attack.epsilon_m: number too large for a float"),
        (lambda d: d.update(background={"users": [_bg_user("attacker")]}),
         "$.background: users[0]: id 'attacker' is reserved"),
        (_polar_background, "$.background: generator background center latitude must be within +-85.0"),
        (lambda d: d["background"].update(radius_m=200_000), "$.background: generator background radius_m must be below"),
    ],
    ids=[
        "nan-epsilon", "negative-max-entries", "negative-max-moves", "huge-epsilon", "reserved-user-id",
        "polar-background", "huge-radius",
    ],
)
def test_cli_bad_number_in_scenario_file_exits_1(tmp_path, capsys, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_edited_dump(edit)))  # NaN is written as the bare token NaN
    assert main(["run", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_a_generated_background_at_the_projection_limit_is_built():
    """The loader rejects a generated background centred past
    MAX_ORIGIN_LAT_DEG, which Projection.at would refuse in build_world, and
    no more: one centred on the limit is built."""
    doc = _edited_dump(lambda d: d["background"].update(center={"lat": -85.0, "lon": 135.77}))
    scenario = from_json(Scenario, doc)
    world, _, _ = build_world(scenario, 1)
    assert sum(uid.startswith("bg-") for uid in world.users) == scenario.background.count


def test_a_generated_background_inside_the_plane_window_is_built():
    """The loader rejects a generated background whose radius_m reaches
    UNPROJECT_WINDOW_M, past which unproject would refuse its users in
    build_world, and no more: one just inside it is built."""
    scenario = from_json(Scenario, _edited_dump(lambda d: d["background"].update(radius_m=119_999)))
    world, _, _ = build_world(scenario, 1)
    assert sum(uid.startswith("bg-") for uid in world.users) == scenario.background.count


def test_cli_rejects_a_scenario_name_that_leaves_the_out_directory(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_edited_dump(lambda d: d.update(name="../escaped"))))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "$: name must be a plain file name, got '../escaped'" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.geojson")) == []


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(kind="nope")
    with pytest.raises(ValueError):
        AttackSpec(kind="colluding", epsilon_m=0.0)
    with pytest.raises(ValueError):
        AttackSpec(kind="colluding", vantage_points=(LAB,))
    for name in ("epsilon_m", "cell_size_m", "max_distance_m"):
        for bad in (math.nan, -5.0):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                AttackSpec(kind="colluding", **{name: bad})
    with pytest.raises(ValueError):
        BackgroundSpec(count=10)  # generator without a center


def test_build_world_generates_background_deterministically():
    sc = preset("grindr-hidden")
    w1, ids1, v1 = build_world(sc, seed=9)
    w2, ids2, v2 = build_world(sc, seed=9)
    assert (w1.users, w1.favorites) == (w2.users, w2.favorites)
    assert ids1 == ids2 and v1 == v2
    w3, _, _ = build_world(sc, seed=10)
    assert w3.users != w1.users
    assert sum(1 for uid in w1.users if uid.startswith("bg-")) == 50


@pytest.mark.parametrize("name", ["sparse-remote", "grindr-hidden", "hornet-favorites"])
@pytest.mark.parametrize("cell_size", [2.5, 7.0])
def test_locate_rasterizes_at_the_spec_cell_size(name, cell_size):
    sc = preset(name)
    world, ids, vantages = build_world(sc, sc.seed)
    report = locate(world, ids, vantages, replace(sc.attack, cell_size_m=cell_size))
    assert report.region.cell_size == cell_size
    assert report.region.contains(sc.victim.point)


@pytest.mark.parametrize("name", ["grindr-hidden", "hornet-favorites"])
def test_locate_brackets_each_vantage_to_the_spec_epsilon(name):
    # at the default 20 m, one final bracket of each preset is over 18 m wide
    sc = preset(name)
    world, ids, vantages = build_world(sc, sc.seed)
    report = locate(world, ids, vantages, replace(sc.attack, epsilon_m=8.0))
    final = {ring.center: ring.r_hi - ring.r_lo for ring in report.observations}
    assert len(final) == 3 and max(final.values()) <= 8.0


@pytest.mark.parametrize(
    "kind, favorited", [("colluding", None), ("colluding_favorites", ["colluder-a", "colluder-b", VICTIM_ID])]
)
def test_locate_favorites_the_victim_only_for_colluding_favorites(kind, favorited):
    sc = preset("grindr-hidden")
    world, ids, vantages = build_world(sc, sc.seed)
    locate(world, ids, vantages, replace(sc.attack, kind=kind))
    assert world.favorites.get("attacker") == favorited


def test_locate_refuses_an_inference_spec():
    sc = preset("hornet-scatter")
    world, ids, vantages = build_world(sc, sc.seed)
    with pytest.raises(ValueError, match="infer_pattern locates no one"):
        locate(world, ids, vantages, sc.attack)


def test_kyoto_exact_scenario_succeeds_within_a_meter():
    row = run_scenario(preset("kyoto-exact"))
    assert row.outcome == "success"
    assert row.localization_error <= 1.0
    assert row.victim_profile_queries == 3


def test_grindr_hidden_scenario_succeeds():
    row = run_scenario(preset("grindr-hidden"))
    assert row.outcome == "success"
    assert row.localization_error <= 25.0
    assert row.victim_profile_queries == 0


def test_failure_outcomes_are_rows_not_exceptions():
    row = run_scenario(preset("hornet-no-favorites"))
    assert row.outcome in ("victim_never_visible", "non_convergence")
    assert row.localization_error is None


def test_geojson_artifacts_and_replay_bytes(tmp_path):
    sc = preset("grindr-hidden")
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    row_a = run_scenario(sc, out_dir=a_dir)
    row_b = run_scenario(sc, out_dir=b_dir)
    assert row_a == row_b
    name = f"{sc.name}-{sc.seed}.geojson"
    bytes_a = (a_dir / name).read_bytes()
    bytes_b = (b_dir / name).read_bytes()
    assert bytes_a == bytes_b
    doc = json.loads(bytes_a)
    assert doc["type"] == "FeatureCollection"
    roles = {f["properties"].get("role") for f in doc["features"]}
    assert {"victim", "vantage", "region", "estimate", "trajectory"} <= roles


def test_metric_consistency_between_csv_and_geojson(tmp_path):
    sc = preset("grindr-hidden")
    rows, _ = run_suite([sc], repetitions=1, out_dir=tmp_path)
    doc = json.loads((tmp_path / f"{sc.name}-{sc.seed}.geojson").read_text())
    estimate = next(f for f in doc["features"] if f["properties"].get("role") == "estimate")
    lon, lat = estimate["geometry"]["coordinates"]
    recomputed = haversine_distance(GeoPoint(lat, lon), sc.victim.point)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        table = [r for r in csv.DictReader(fh)]
    result = next(r for r in table if r["row_type"] == "result")
    assert abs(float(result["localization_error_m"]) - recomputed) < 1e-6
    assert result["outcome"] == doc["metrics"]["outcome"] == "success"
    for column in ("localization_error_m", "region_area_m2", "moves", "queries", "victim_profile_queries"):
        assert float(result[column]) == doc["metrics"][column], column
    region = next(f for f in doc["features"] if f["properties"].get("role") == "region")
    assert region["properties"]["area_m2"] == doc["metrics"]["region_area_m2"]
    summary = next(r for r in table if r["row_type"] == "summary")
    assert float(summary["success_rate"]) == 1.0

    # a run that raised carries only its outcome
    failed = preset("hornet-no-favorites")
    (row,), _ = run_suite([failed], repetitions=1, out_dir=tmp_path / "failed")
    doc = json.loads((tmp_path / "failed" / f"{failed.name}-{failed.seed}.geojson").read_text())
    assert row.outcome != "success"
    assert doc["metrics"] == {"outcome": row.outcome}


def test_run_suite_single_rep_has_row_and_summary():
    rows, summaries = run_suite([preset("kyoto-exact")], repetitions=1)
    assert len(rows) == 1 and len(summaries) == 1
    assert summaries[0].runs == 1
    assert summaries[0].median_error == rows[0].localization_error


def test_run_suite_derives_seeds():
    rows, _ = run_suite([preset("kyoto-exact")], repetitions=3)
    assert [r.seed for r in rows] == [1, 2, 3]


def test_scatter_single_sample_below_floor():
    samples = emit_scatter(HORNET_DEFAULT, 1, 1, 50.0, seed=4)
    assert len(samples) == 1
    assert samples[0].shown_distance == 80.0
    assert 0.0 < samples[0].true_distance <= 50.0


def test_scatter_respects_envelope_and_csv_round_trip(tmp_path):
    samples = emit_scatter(HORNET_DEFAULT, 200, 5, 3000.0, seed=6)
    assert len(samples) == 1000
    for s in samples:
        lo, hi = obfuscation_envelope(s.true_distance, HORNET_DEFAULT)
        assert lo <= s.shown_distance <= hi
    path = tmp_path / "scatter.csv"
    save_samples_csv(samples, path)
    loaded = load_samples_csv(path)
    assert loaded == samples


def test_inference_scenario_closed_loop(tmp_path):
    sc = preset("hornet-scatter")
    row = run_scenario(sc, out_dir=tmp_path)
    assert row.outcome == "success"
    assert row.localization_error == 0.0
    inferred = json.loads((tmp_path / f"{sc.name}-{sc.seed}-inferred.json").read_text())
    assert inferred["floor_value"] == 80.0
    assert all(v == "exact" for v in inferred["confidence"].values())
    assert (tmp_path / f"{sc.name}-{sc.seed}-scatter.csv").exists()


def test_an_exact_but_wrong_inference_is_not_a_success():
    sc = preset("hornet-scatter")
    truth = ObfuscationPattern(140, 150, 200, 35, 5, 200)
    sc = replace(sc, policy=replace(sc.policy, pattern=truth))
    a = sc.attack
    inferred = infer_pattern(emit_scatter(truth, a.locations, a.queries_per_location, a.max_distance_m, 1))
    assert inferred.all_exact() and inferred.near_cutoff == 175.0
    row = run_scenario(sc, seed=1)
    assert (row.outcome, row.localization_error) == ("non_convergence", None)


def test_an_exact_inference_that_makes_no_valid_pattern_is_not_a_success():
    # shown values are read in whole meters, so a 0.4 m floor comes back as an
    # exact 0 m, which no ObfuscationPattern accepts
    sc = preset("hornet-scatter")
    truth = ObfuscationPattern(0.4, 5, 12, 2, 1, 4)
    sc = replace(
        sc,
        seed=1,
        policy=replace(sc.policy, pattern=truth),
        attack=replace(sc.attack, locations=600, queries_per_location=30, max_distance_m=20.0),
    )
    a = sc.attack
    inferred = infer_pattern(emit_scatter(truth, a.locations, a.queries_per_location, a.max_distance_m, 1))
    assert inferred.all_exact() and inferred.floor_value == 0.0
    rows, summaries = run_suite([sc], repetitions=1)
    assert [(r.outcome, r.localization_error) for r in rows] == [("non_convergence", None)]
    assert summaries[0].success_rate == 0.0


def test_explicit_users_reproduce_the_generated_background(tmp_path):
    sc = preset("grindr-hidden")
    world, _, _ = build_world(sc, sc.seed)
    users = [
        {"id": uid, "lat": u.location.lat, "lon": u.location.lon, "show_distance": u.show_distance}
        for uid, u in world.users.items()
        if uid.startswith("bg-")
    ]
    assert len(users) == 50
    doc = json.loads(json.dumps({**scenario_to_json(sc), "background": {"users": users}}))
    explicit = from_json(Scenario, doc)
    assert scenario_to_json(explicit) == doc
    rows = [run_scenario(s, out_dir=tmp_path / d) for s, d in ((sc, "generated"), (explicit, "explicit"))]
    assert rows[0] == rows[1]
    name = f"{sc.name}-{sc.seed}.geojson"
    assert (tmp_path / "generated" / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()


def test_scenario_runs_from_json_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(preset("kyoto-exact"))))
    row = run_scenario(from_json(Scenario, json.loads(path.read_text())))
    assert row.outcome == "success"


# sha256 of every artifact and metrics.csv that run_suite writes for the five
# locator presets at 20 seeds and hornet-scatter at 2 seeds; any change to
# output bytes shows here and must be deliberate
GOLDEN_DIGESTS = Path(__file__).with_name("golden_digests.json")
LOCATOR_PRESETS = ("kyoto-exact", "grindr-hidden", "sparse-remote", "hornet-no-favorites", "hornet-favorites")


def test_artifact_bytes_match_golden_digests(tmp_path):
    for group, names, reps in (("locators", LOCATOR_PRESETS, 20), ("scatter", ("hornet-scatter",), 2)):
        run_suite([preset(n) for n in names], reps, out_dir=tmp_path / group)
    actual = {
        f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*/*"))
    }
    expected = json.loads(GOLDEN_DIGESTS.read_text())
    assert sorted(actual) == sorted(expected)
    assert [name for name in sorted(expected) if actual[name] != expected[name]] == []


# run_suite's bytes for grindr-hidden, hornet-favorites and hornet-no-favorites
# at 20 seeds with a 30-row screen, the only pinned bytes of truncated screens
# (no preset truncates its ~53-user screens). hornet-no-favorites ranks every
# screen through the service, so its runs serve 800 truncated obfuscated
# screens. A 30-row screen changes no artifact byte of these presets, so each
# .geojson must match the untruncated run's digest in golden_digests.json.
# Their metrics.csv holds only these three presets, so its sha256 is pinned
# here.
TRUNCATED_PRESETS = ("grindr-hidden", "hornet-favorites", "hornet-no-favorites")
TRUNCATED_METRICS_DIGEST = "c2ad6054bb1edd8194186a76e03dce2580430daa62a881b22752b31a70949a76"


def test_truncated_screen_artifact_bytes_match_pinned_digests(tmp_path):
    run_suite([replace(preset(n), max_entries=30) for n in TRUNCATED_PRESETS], 20, out_dir=tmp_path)
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    expected = {
        name: golden[f"locators/{name}"]
        for name in (f"{n}-{preset(n).seed + i}.geojson" for n in TRUNCATED_PRESETS for i in range(20))
    }
    expected["metrics.csv"] = TRUNCATED_METRICS_DIGEST
    assert sorted(actual) == sorted(expected)
    assert [name for name in sorted(expected) if actual[name] != expected[name]] == []


def _loads_numpy_random(code):
    """Whether a fresh interpreter that runs code has numpy.random loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"{code}\nimport sys\nprint('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    return out.split()[-1] == "True"


def test_presets_never_load_numpy_random():
    """No preset's screens truncate, so running every preset leaves
    numpy.random, which only a truncating world loads, unimported."""
    if _loads_numpy_random("import numpy"):
        pytest.skip("this numpy loads numpy.random on import")
    code = (
        "from dataclasses import replace\n"
        "from geoleak.harness import run_scenario\n"
        "from geoleak.scenarios import PRESETS, preset\n"
    )
    assert not _loads_numpy_random(code + "for name in PRESETS:\n    run_scenario(preset(name))")
    assert _loads_numpy_random(code + "run_scenario(replace(preset('grindr-hidden'), max_entries=30))")


# -- CLI ------------------------------------------------------------------------


def test_cli_run_preset_success(tmp_path, capsys):
    code = main(["run", "--scenario", "preset:kyoto-exact", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome=success" in out
    assert (tmp_path / "metrics.csv").exists()


def test_cli_run_attack_failure_exit_code():
    assert main(["run", "--scenario", "preset:hornet-no-favorites"]) == 2


def test_cli_run_seed_override(capsys):
    code = main(["run", "--scenario", "preset:kyoto-exact", "--seed", "99"])
    assert code == 0
    assert "seed=99" in capsys.readouterr().out


def test_cli_run_scatter_study_then_infer(tmp_path, capsys):
    assert main(["run", "--scenario", "preset:hornet-scatter", "--out", str(tmp_path)]) == 0
    samples = tmp_path / "hornet-scatter-2016-scatter.csv"
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    assert hashlib.sha256(samples.read_bytes()).hexdigest() == golden["scatter/hornet-scatter-2016-scatter.csv"]
    capsys.readouterr()
    assert main(["infer", "--samples", str(samples)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["floor_value"] == 80.0
    assert doc["near_cutoff"] == 100.0
    assert doc["mid_cutoff"] == 1000.0
    assert doc["mid_band"] == 100.0
    assert doc["mid_step"] == 10.0
    assert doc["far_unit"] == 1000.0


@pytest.mark.parametrize("value", ["inf", "nan", "-5", "0"])
def test_cli_scatter_rejects_a_bad_max_distance(tmp_path, capsys, value):
    doc = json.loads(json.dumps(scenario_to_json(preset("hornet-scatter"))))
    doc["attack"].update(max_distance_m=float(value), locations=10)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # inf and NaN are written as the bare tokens Infinity and NaN
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
    assert "$.attack: max_distance_m must be finite and positive" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_cli_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["run"])  # missing --scenario
    assert err.value.code == 1


def test_cli_has_no_scatter_subcommand(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["scatter", "--out", str(tmp_path / "s.csv")])
    assert err.value.code == 1
    assert "argument command: invalid choice: 'scatter'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_unknown_preset_is_config_error(capsys):
    with pytest.raises(ValueError, match="unknown preset 'nonsense'"):
        preset("nonsense")
    assert main(["run", "--scenario", "preset:nonsense"]) == 1
    assert capsys.readouterr().err == (
        f"geoleak: error: unknown preset 'nonsense'; available: {', '.join(sorted(PRESETS))}\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("shown_m\n250.0\n", "no true_m column"),
        ("true_m,shown\n250.0,250.0\n", "no shown_m column"),
        ("", "no true_m or shown_m column"),
        ("true_m,shown_m\n250.0\n", "could not convert string to float: ''"),
    ],
)
def test_cli_infer_rejects_a_bad_samples_csv(tmp_path, capsys, text, message):
    path = tmp_path / "s.csv"
    path.write_text(text)
    assert main(["infer", "--samples", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("geoleak: error: ") and message in err


def test_cli_missing_file_is_config_error(tmp_path):
    assert main(["infer", "--samples", str(tmp_path / "missing.csv")]) == 1


def test_cli_log_level_env(monkeypatch, capsys):
    root, logger = logging.getLogger(), logging.getLogger("geoleak")
    root_handlers, root_level = list(root.handlers), root.level
    level, handlers = logger.level, list(logger.handlers)
    monkeypatch.setenv("GEOLEAK_LOG", "debug")
    try:
        assert main(["run", "--scenario", "preset:kyoto-exact"]) == 0
        assert logger.level == logging.DEBUG
        configured = list(logger.handlers)
        assert main(["run", "--scenario", "preset:kyoto-exact"]) == 0
        assert logger.handlers == configured
        assert root.handlers == root_handlers and root.level == root_level
        monkeypatch.setenv("GEOLEAK_LOG", "Warning")  # a level name in any case
        assert main(["run", "--scenario", "preset:kyoto-exact"]) == 0
        assert logger.level == logging.WARNING
    finally:
        logger.setLevel(level)
        logger.handlers[:] = handlers
    capsys.readouterr()


@pytest.mark.parametrize("value", ["bogus", "basic_format", ""])
def test_cli_rejects_an_unknown_log_level(monkeypatch, capsys, value):
    monkeypatch.setenv("GEOLEAK_LOG", value)
    assert main(["run", "--scenario", "preset:kyoto-exact"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"geoleak: error: GEOLEAK_LOG must be one of debug, info, warning, error, critical (any case), got {value!r}\n"
    )


def test_every_preset_runs_in_under_ten_seconds():
    import time

    for name in PRESETS:
        start = time.perf_counter()
        run_scenario(preset(name))
        assert time.perf_counter() - start < 10.0, name


def test_the_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    # the hand-built world, then the preset's through build_world and locate
    for world, report in [(namespace["world"], namespace["report"]), (namespace["sc_world"], namespace["sc_report"])]:
        assert haversine_distance(report.estimate, world.users["victim"].location) <= 25.0
    # neither colluding run opens the victim's profile
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.split()[-1] == "0" for line in lines)
