import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compsim import channel, scenario
from compsim import rng as rngmod
from compsim.errors import ConfigurationError, ScenarioError
from compsim.quantization import FEEDBACK_MODES, FeedbackConfig
from compsim.scheduling import PAIRING_MODES, PairingPolicy


class TestPresets:
    def test_fig3_parameters(self):
        exp = scenario.preset("fig3")
        assert exp.name == "fig3"
        assert [a.label for a in exp.arms] == ["ms2_250m", "ms2_150m", "ms2_50m"]
        s = exp.arms[0].scenario
        assert s.geometry.n_cells == 2
        assert s.geometry.cell_radius_m == 250.0
        assert s.geometry.pathloss_exponent == 3.76
        assert s.geometry.edge_snr_db == 10.0
        assert s.n_tx == 4 and s.n_users == 2
        assert s.feedback.mode == "per_cell"
        assert s.feedback.bits == [[3, 3], [3, 3]]
        assert s.trials == 1000
        assert s.placement.mode == "line_sweep" and s.placement.sweep_user == 0
        # the paired user sits still while user 0 sweeps edge -> center
        assert s.placement.positions[0] is None
        assert s.placement.positions[1] == [250.0, 0.0]
        assert scenario.sweep_values(s) == [250.0, 200.0, 150.0, 100.0, 50.0]

    def test_fig4_arms_share_geometry_and_seed(self):
        exp = scenario.preset("fig4")
        labels = [a.label for a in exp.arms]
        assert labels == ["global_6bit", "per_cell_4_2", "per_cell_3_3"]
        base = exp.arms[0].scenario
        for arm in exp.arms[1:]:
            s = arm.scenario
            assert s.master_seed == base.master_seed
            assert np.array_equal(s.geometry.bs_positions, base.geometry.bs_positions)
            assert s.placement == base.placement
        assert exp.arms[0].scenario.feedback.global_bits == 6
        assert exp.arms[1].scenario.feedback.bits == [[4, 2], [2, 4]]
        # every arm spends six feedback bits per user
        assert sum(exp.arms[1].scenario.feedback.bits[0]) == 6
        assert sum(exp.arms[2].scenario.feedback.bits[0]) == 6

    def test_fig5_arms_and_matched_per_user_power(self):
        exp = scenario.preset("fig5")
        comp = exp.arms[0].scenario
        single = exp.arms[1].scenario
        assert comp.geometry.n_cells == 2 and comp.n_tx == 4
        assert single.geometry.n_cells == 1 and single.n_tx == 8
        assert single.n_users == 2
        assert single.feedback.mode == "global" and single.feedback.global_bits == 6
        # same per-user transmit power: the single BS then radiates twice the
        # per-BS power of the cooperative pair
        assert comp.tx_power == single.tx_power
        assert comp.drops == single.drops == 1000

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario.preset("fig9")


class TestRoundTrip:
    @pytest.mark.parametrize("name", scenario.PRESET_NAMES)
    def test_serialize_parse_round_trip(self, name):
        for arm in scenario.preset(name).arms:
            text = scenario.serialize(arm.scenario)
            again = scenario.parse(text)
            assert scenario.serialize(again) == text

    def test_fingerprint_stability(self):
        s = scenario.preset("fig3").arms[0].scenario
        assert scenario.fingerprint(s) == scenario.fingerprint(s)
        assert scenario.fingerprint(s) != scenario.fingerprint(
            replace(s, master_seed=s.master_seed + 1)
        )


class TestValidation:
    def _doc(self):
        return json.loads(scenario.serialize(scenario.preset("fig3").arms[0].scenario))

    def test_unknown_key_rejected_with_path(self):
        doc = self._doc()
        doc["name"] = "extra"
        doc["geometry"]["shadowing_db"] = 8.0
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        messages = "\n".join(err.value.errors)
        assert "name: unknown key" in messages
        assert "geometry.shadowing_db: unknown key" in messages

    def test_negative_bits_error_names_the_field(self):
        doc = self._doc()
        doc["feedback"]["bits"][0][1] = -2
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert any("feedback.bits[0][1]" in e for e in err.value.errors)

    def test_all_problems_reported_not_just_first(self):
        doc = self._doc()
        doc["n_tx"] = 1
        doc["trials"] = 0
        doc["pairing"]["threshold"] = 2.0
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        joined = "\n".join(err.value.errors)
        for needle in ("n_tx", "trials", "pairing.threshold"):
            assert needle in joined
        assert len(err.value.errors) >= 3

    def test_sweep_bounds_must_stay_inside_the_cell(self):
        doc = self._doc()
        doc["placement"]["start_m"] = 400.0
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert any("placement.start_m" in e for e in err.value.errors)

    def test_random_placement_requires_drops(self):
        doc = self._doc()
        doc["placement"] = {"mode": "random_uniform"}
        doc["drops"] = 0
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert any("drops" in e for e in err.value.errors)

    def test_global_lloyd_with_cooperative_drops_rejected(self):
        doc = json.loads(scenario.serialize(scenario.preset("fig5").arms[0].scenario))
        doc["feedback"] = {"mode": "global", "global_bits": 6, "codebook_kind": "lloyd"}
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert [e.split(":")[0] for e in err.value.errors] == ["feedback.codebook_kind"]
        doc["feedback"]["codebook_kind"] = "random"
        assert scenario.scenario_from_dict(doc).feedback.mode == "global"
        single = json.loads(scenario.serialize(scenario.preset("fig5").arms[1].scenario))
        assert single["feedback"]["codebook_kind"] == "lloyd"
        assert scenario.scenario_from_dict(single).feedback.mode == "global"

    def test_invalid_json_reported(self):
        with pytest.raises(ScenarioError):
            scenario.parse("{not json")
        with pytest.raises(ScenarioError):  # more digits than Python converts
            scenario.parse('{"n_tx": 1' + "0" * 5000 + "}")

    @pytest.mark.parametrize("section, key", [("geometry", "bs_positions"),
                                              ("placement", "positions")])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_coordinate_reported_at_its_entry(self, section, key, value):
        doc = self._doc()
        doc[section][key][1] = json.loads(f"[{value}, 0.0]")
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert err.value.errors == [f"{section}.{key}[1]: must be finite"]

    @pytest.mark.parametrize("section, key, error", [
        ("geometry", "bs_positions", "geometry.bs_positions: must be a list of [x, y] pairs"),
        ("placement", "positions", "placement.positions[1]: must be an [x, y] pair")])
    @pytest.mark.parametrize("entry", [[False, 0.0], [1.0, True]])
    def test_boolean_coordinate_rejected(self, section, key, error, entry):
        # JSON true and false are not numbers, as for every float key
        doc = self._doc()
        doc[section][key][1] = entry
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert error in err.value.errors

    @pytest.mark.parametrize("section, key, index, value, error", [
        ("geometry", "bs_positions", 1, ["a", 0.0], "must be a list of [x, y] pairs"),
        ("geometry", "bs_positions", 1, [True, 0.0], "must be a list of [x, y] pairs"),
        ("geometry", "bs_positions", None, 5, "expected list"),
        ("placement", "positions", None, "x", "expected list")])
    def test_a_malformed_field_has_one_diagnostic(self, section, key, index, value, error):
        # no value check about the default or empty list put in its place
        doc = self._doc()
        if index is None:
            doc[section][key] = value
        else:
            doc[section][key][index] = value
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert err.value.errors == [f"{section}.{key}: {error}"]

    def test_schema_comes_from_the_dataclass_fields(self):
        schema = scenario._SCHEMA
        assert list(schema[""]) == [f.name for f in fields(scenario.Scenario)]
        assert schema["geometry"]["pathloss_exponent"] == (
            float, False, channel.DEFAULT_PATHLOSS_EXPONENT)
        assert schema["geometry"]["cell_radius_m"] == (float, True, channel.DEFAULT_CELL_RADIUS_M)
        assert schema["feedback"]["training_seed"] == (int, False, 7001)
        assert schema[""]["geometry"] == (dict, True, {})

        @dataclass
        class Odd:
            z: "complex" = 1j

        with pytest.raises(TypeError, match="Odd.z: no JSON type for 'complex'"):
            scenario._section_schema("odd", Odd)

    def test_coincident_base_stations_rejected(self):
        doc = self._doc()
        doc["geometry"]["bs_positions"] = [[0, 0], [0.0, 0.0]]
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert err.value.errors == ["geometry.bs_positions: base stations must not coincide"]

    def test_core_radius_must_not_exceed_the_cell_radius(self):
        doc = json.loads(scenario.serialize(scenario.preset("fig5").arms[0].scenario))
        doc["geometry"]["d_min_m"] = 300.0
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert err.value.errors == ["geometry.d_min_m: must not exceed cell_radius_m"]
        doc["geometry"]["d_min_m"] = 250.0  # a drop on the cell edge only
        assert scenario.scenario_from_dict(doc).geometry.d_min_m == 250.0

    @pytest.mark.parametrize("preset, label, mode, blocks", [
        ("fig3", "ms2_250m", None, 200 * 2**3),  # a 3-bit per-cell training set
        ("fig4", "global_6bit", None, 200 * 2**6 * 2),  # a 6-bit global one, 2 cells long
        ("fig3", "ms2_250m", "perfect", 256 * 2 * 2),  # a 256-trial stream block's channels
    ])
    def test_n_tx_stops_where_numpy_cannot_shape_a_draw(self, preset, label, mode, blocks):
        arm = next(a for a in scenario.preset(preset).arms if a.label == label)
        doc = json.loads(scenario.serialize(arm.scenario))
        if mode:
            doc["feedback"] = {"mode": mode}
        largest = rngmod.MAX_DRAW_BYTES // (16 * blocks)
        doc["n_tx"] = largest
        assert scenario.scenario_from_dict(doc).n_tx == largest
        doc["n_tx"] = largest + 1
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert err.value.errors == [
            "n_tx: too large: a draw it sizes exceeds the 2^57-byte draw limit"]

    @pytest.mark.parametrize("label, field, itemsize, message", [
        # a drop's channels: trials_per_drop x 2 users x 2 cells x 4 antennas
        ("comp_per_cell_3_3", "trials_per_drop", 16 * 2 * 2 * 4,
         "too large: a drop's draw exceeds the 2^57-byte draw limit"),
        # 2 users x 1 cell x 8 antennas
        ("single_cell_global_6bit", "trials_per_drop", 16 * 2 * 1 * 8,
         "too large: a drop's draw exceeds the 2^57-byte draw limit"),
        # the float64 distances of a sweep
        ("ms2_250m", "placement.steps", 8,
         "too large: the sweep's distances exceed the 2^57-byte draw limit"),
    ], ids=["cooperative-drop", "single-cell-drop", "sweep"])
    def test_sizes_stop_where_numpy_cannot_shape_a_draw(self, label, field, itemsize, message):
        arm = next(a for p in ("fig3", "fig5") for a in scenario.preset(p).arms
                   if a.label == label)
        doc = json.loads(scenario.serialize(arm.scenario))
        *sections, key = field.split(".")
        target = doc[sections[0]] if sections else doc
        largest = rngmod.MAX_DRAW_BYTES // itemsize
        target[key] = largest
        assert scenario.scenario_from_dict(doc)
        target[key] = largest + 1
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert err.value.errors == [f"{field}: {message}"]

    def test_line_sweep_needs_two_cells(self):
        doc = self._doc()
        doc["geometry"] = {"n_cells": 1, "bs_positions": [[0.0, 0.0]], "cell_radius_m": 250.0}
        doc["n_users"] = 1
        doc["placement"]["positions"] = [None]
        doc["feedback"] = {"mode": "perfect"}
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert err.value.errors == ["placement.mode: line_sweep needs the two-cell geometry"]

    def test_user_count_tied_to_cells_for_cooperation(self):
        doc = self._doc()
        doc["n_users"] = 3
        doc["feedback"] = {"mode": "perfect"}
        doc["placement"] = {
            "mode": "fixed",
            "positions": [[100.0, 0.0], [400.0, 0.0], [250.0, 10.0]],
        }
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert any("n_users" in e for e in err.value.errors)


class TestSweepResolution:
    def test_positions_on_the_inter_bs_segment(self):
        s = scenario.preset("fig3").arms[0].scenario
        fixed = scenario.at_sweep_point(s, 100.0)
        assert fixed.placement.mode == "fixed"
        assert fixed.placement.positions[0] == [100.0, 0.0]
        assert fixed.placement.positions[1] == [250.0, 0.0]

    def test_sweeping_the_second_user_moves_toward_first_bs(self):
        s = scenario.preset("fig3").arms[0].scenario
        swapped = replace(
            s,
            placement=scenario.Placement(
                mode="line_sweep", positions=[[100.0, 0.0], None],
                sweep_user=1, start_m=250.0, stop_m=50.0, steps=3,
            ),
        )
        fixed = scenario.at_sweep_point(swapped, 60.0)
        assert fixed.placement.positions[1] == [440.0, 0.0]

    def test_resolved_points_cover_sweep(self):
        s = scenario.preset("fig3").arms[0].scenario
        points = scenario.resolved_points(s)
        assert [p[0] for p in points] == [250.0, 200.0, 150.0, 100.0, 50.0]
        assert all(p[1].placement.mode == "fixed" for p in points)

    def test_fixed_scenario_resolves_to_itself(self):
        s = scenario.at_sweep_point(scenario.preset("fig3").arms[0].scenario, 100.0)
        assert scenario.resolved_points(s) == [(None, s)]


class TestSweepPointBounds:
    def test_point_outside_the_cell_rejected(self):
        s = scenario.preset("fig3").arms[0].scenario
        with pytest.raises(ConfigurationError):
            scenario.at_sweep_point(s, 300.0)
        with pytest.raises(ConfigurationError):
            scenario.at_sweep_point(s, 0.5)


# ---------------------------------------------------------------------------
# Properties of the scenario format
# ---------------------------------------------------------------------------

_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_scenarios(draw):
    radius = draw(st.floats(10.0, 1000.0))
    d_min = draw(st.floats(0.01, radius / 2))
    geom_kwargs = dict(
        pathloss_exponent=draw(st.floats(0.0, 6.0)),
        edge_snr_db=draw(st.floats(-30.0, 40.0)),
        d_min_m=d_min,
    )
    mode = draw(st.sampled_from(scenario.PLACEMENT_MODES))
    n_tx = draw(st.integers(2, 8))
    if mode == "random_uniform" and draw(st.booleans()):
        geometry = channel.single_cell(radius, **geom_kwargs)
        n_users = draw(st.integers(1, n_tx))
    else:
        geometry = channel.two_cell_line(radius, **geom_kwargs)
        n_users = 2
    n_cells = geometry.n_cells

    xy = st.lists(_floats, min_size=2, max_size=2)
    distance = st.floats(d_min, radius)
    if mode == "fixed":
        placement = scenario.Placement(positions=draw(st.lists(xy, min_size=n_users,
                                                               max_size=n_users)))
    elif mode == "line_sweep":
        sweep_user = draw(st.integers(0, n_users - 1))
        positions = draw(st.lists(xy, min_size=n_users, max_size=n_users))
        positions[sweep_user] = None
        placement = scenario.Placement(mode=mode, positions=positions, sweep_user=sweep_user,
                                       start_m=draw(distance), stop_m=draw(distance),
                                       steps=draw(st.integers(1, 20)))
    else:
        placement = scenario.Placement(mode=mode)

    fb_mode = draw(st.sampled_from(FEEDBACK_MODES))
    bits = st.integers(0, 8)
    feedback = FeedbackConfig(
        mode=fb_mode,
        bits=draw(st.lists(st.lists(bits, min_size=n_cells, max_size=n_cells),
                           min_size=n_users, max_size=n_users)) if fb_mode == "per_cell" else None,
        global_bits=draw(bits) if fb_mode == "global" else None,
        codebook_kind="random" if mode == "random_uniform" and n_cells > 1 and fb_mode == "global"
        else draw(st.sampled_from(("lloyd", "random"))),
        training_seed=draw(st.integers(0, 2**63)),
    )
    positive = st.floats(1e-6, 1e6)
    return scenario.Scenario(
        geometry=geometry,
        n_tx=n_tx,
        n_users=n_users,
        placement=placement,
        feedback=feedback,
        pairing=PairingPolicy(mode=draw(st.sampled_from(PAIRING_MODES)),
                              threshold=draw(st.floats(0.0, 1.0))),
        trials=draw(st.integers(1, 10**6)),
        drops=draw(st.integers(1 if mode == "random_uniform" else 0, 10**4)),
        trials_per_drop=draw(st.integers(1, 100)),
        master_seed=draw(st.integers(0, 2**63)),
        tx_power=draw(positive),
        noise_power=draw(positive),
    )


# what Python's json reads from NaN, Infinity, -Infinity and 1e400, and an
# integer beyond the float range
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])

# field path -> values outside its range, whatever the rest of the scenario
_BAD_VALUES = {
    "n_tx": st.integers(-5, 1),
    "n_users": st.integers(-5, 0),
    "trials": st.integers(-5, 0),
    "drops": st.integers(-5, -1),
    "trials_per_drop": st.integers(-5, 0),
    "master_seed": st.integers(-(2**31), -1),
    "tx_power": st.floats(-1e6, 0.0) | _non_finite,
    "noise_power": st.floats(-1e6, 0.0) | _non_finite,
    "geometry.n_cells": st.integers(-5, 0),
    "geometry.cell_radius_m": st.floats(-1e6, 0.0) | _non_finite,
    "geometry.pathloss_exponent": st.floats(-1e6, -1e-9) | _non_finite,
    "geometry.edge_snr_db": _non_finite,
    "geometry.d_min_m": st.floats(-1e6, 0.0) | _non_finite,
    "placement.mode": st.text(max_size=8).filter(lambda v: v not in scenario.PLACEMENT_MODES),
    "feedback.mode": st.text(max_size=8).filter(lambda v: v not in FEEDBACK_MODES),
    "feedback.codebook_kind": st.text(max_size=8).filter(lambda v: v not in ("lloyd", "random")),
    "feedback.training_seed": st.integers(-(2**31), -1),
    "pairing.mode": st.text(max_size=8).filter(lambda v: v not in PAIRING_MODES),
    "pairing.threshold": st.floats(1.0, 1e6, exclude_min=True) | st.floats(-1e6, 0.0,
                                                                           exclude_max=True)
    | _non_finite,
}
_BAD_SWEEP_VALUES = {
    "placement.sweep_user": st.integers(2, 10) | st.integers(-10, -1),
    "placement.steps": st.integers(-5, 0),
    "placement.start_m": st.floats(1e4, 1e6) | _non_finite,
    "placement.stop_m": st.floats(-1e6, 0.0) | _non_finite,
}


class TestFormatProperties:
    @settings(max_examples=50, deadline=None)
    @given(valid_scenarios())
    def test_serialize_parse_serialize_is_a_fixed_point(self, scn):
        text = scenario.serialize(scn)
        assert scenario.serialize(scenario.parse(text)) == text

    @settings(max_examples=50, deadline=None)
    @given(valid_scenarios(), st.data())
    def test_out_of_range_field_is_reported_at_its_path(self, scn, data):
        doc = json.loads(scenario.serialize(scn))
        bad = dict(_BAD_VALUES)
        if scn.placement.mode == "line_sweep":
            bad.update(_BAD_SWEEP_VALUES)
        path = data.draw(st.sampled_from(sorted(bad)), label="path")
        *sections, key = path.split(".")
        target = doc[sections[0]] if sections else doc
        target[key] = data.draw(bad[path], label="value")
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert any(e.startswith(f"{path}: ") for e in err.value.errors), err.value.errors

    def test_removed_candidate_pool_size_is_an_unknown_key(self):
        doc = json.loads(scenario.serialize(scenario.preset("fig3").arms[0].scenario))
        doc["pairing"]["candidate_pool_size"] = 1
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert err.value.errors == ["pairing.candidate_pool_size: unknown key"]

    def test_removed_retain_samples_and_fixed_pairing_are_rejected(self):
        doc = json.loads(scenario.serialize(scenario.preset("fig3").arms[0].scenario))
        doc["retain_samples"] = True
        doc["pairing"]["mode"] = "fixed"
        with pytest.raises(ScenarioError) as err:
            scenario.scenario_from_dict(doc)
        assert err.value.errors == [
            "retain_samples: unknown key",
            "pairing.mode: must be one of ('sus_threshold', 'always_pair')",
        ]
