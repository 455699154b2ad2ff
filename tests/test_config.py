import argparse
import dataclasses
import json
import os

import pytest

from thmfrac.cli import _load_config, main
from thmfrac.constitutive import MaterialParams
from thmfrac.config import (Injection, MechBC, ProbeSpec, ScalarBC, WeakInterface,
                            config_from_dict, config_to_dict, parse_config)
from thmfrac.errors import ConfigError
from thmfrac.mesh import RefineBand
from thmfrac.presets import (PRESETS, get_preset, kgd, kgd_cold, single_fracture,
                             terzaghi, thermal_consolidation)
from thmfrac.staggered import SolverControls

# kgd() as config_to_dict wrote it while it left out empty lists, unset
# sources and the unread value of each object
KGD_EARLIER_LAYOUT = """{"name": "kgd", "geometry": {"domain": [45.0, 60.0],
 "mesh": {"nx": 45, "ny": 60}, "refine_bands": [
  {"axis": "x", "lo": 0.0, "hi": 14.0, "h": 0.1, "ratio": 1.15},
  {"axis": "y", "lo": 28.4, "hi": 31.6, "h": 0.1, "ratio": 1.15}],
 "cracks": [[[0.0, 30.0], [2.0, 30.0]]]},
 "materials": {"E": 17000000000.0, "nu": 0.2, "alpha_m": 0.0, "phi_m": 0.0,
  "c_f": 0.0, "mu_f": 1e-08, "perm_m": 1e-18, "alpha_s": 0.0, "alpha_f": 0.0,
  "lambda_s": 0.0, "lambda_f": 0.0, "c_ps": 0.0, "c_pf": 0.0, "rho_s": 0.0,
  "rho_f": 0.0, "Gc": 300.0, "ell": 0.4, "k_res": 1e-06, "n_at": 1,
  "porosity_variant": "phi1", "xi": 1.0, "s_stab": 0.15, "T0": 293.15},
 "physics": {"solve_thermal": false, "solve_phasefield": true},
 "bcs": {"mechanics": [{"set": "left", "component": "x", "value": 0.0},
  {"set": "right", "component": "both", "value": 0.0},
  {"set": "top", "component": "both", "value": 0.0},
  {"set": "bottom", "component": "both", "value": 0.0}],
  "flow": [{"set": "right", "pressure": 0.0}, {"set": "top", "pressure": 0.0},
   {"set": "bottom", "pressure": 0.0}], "heat": []},
 "initial": {"pressure": 0.0},
 "controls": {"tol_stag": 0.0001, "tol_tpu": 1e-05, "max_outer": 150, "max_inner": 300,
  "v_ir": 0.05, "dt_schedule": [[0.1, 0.01], [3.9, 0.1]]},
 "outputs": {"snapshot_every": 0, "probes": [
  {"name": "p_inj", "kind": "field", "field": "p", "point": [0.0, 30.0]},
  {"name": "length", "kind": "fracture_length", "path": [[0.0, 30.0], [45.0, 30.0]],
   "threshold": 0.1},
  {"name": "w_inj", "kind": "width", "point": [0.0, 30.0]}]},
 "sources": {"injection": {"point": [0.0, 30.0], "rate": 0.002}}}"""

LIST_KEYS = ["geometry.refine_bands", "geometry.cracks", "geometry.weak_interfaces",
             "bcs.mechanics", "bcs.flow", "bcs.heat", "outputs.probes"]


class TestParseConfig:
    def test_empty_text_is_rejected_with_error_list(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("")
        assert exc.value.errors

    def test_json_syntax_error_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("{\n  broken\n}")
        assert any("line 2" in e for e in exc.value.errors)

    def test_preset_round_trips_through_json(self):
        cfgs = [get_preset(name) for name in PRESETS]
        cfgs += [kgd(porosity_variant="phi0"), kgd_cold(stabilization=False)]
        for cfg in cfgs:
            text = json.dumps(config_to_dict(cfg))
            parsed = parse_config(text)
            assert parsed == cfg, cfg.name

    def test_negative_porosity_names_the_field(self):
        raw = config_to_dict(terzaghi())
        raw["materials"]["phi_m"] = -0.2
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert any("phi_m" in e for e in exc.value.errors)

    def test_all_errors_collected_not_fail_fast(self):
        raw = config_to_dict(terzaghi())
        raw["materials"]["E"] = -1.0
        raw["geometry"]["mesh"]["nx"] = 0
        raw["controls"]["dt_schedule"] = []
        raw["bogus_section"] = {}
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        msgs = "\n".join(exc.value.errors)
        assert "materials" in msgs
        assert "geometry.mesh.nx" in msgs
        assert "controls.dt_schedule" in msgs
        assert "bogus_section" in msgs
        assert len(exc.value.errors) >= 4

    def test_width_variant_key_rejected(self):
        raw = config_to_dict(kgd())
        raw["physics"]["width_variant"] = "eps1"
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert "physics.width_variant: unknown key" in exc.value.errors

    @pytest.mark.parametrize("section, key, value", [("physics", "stabilization", False),
                                                     ("physics", "porosity_variant", "phi0"),
                                                     ("materials", "v_ir", 0.05),
                                                     ("materials", "T_ref", 293.15)])
    def test_removed_key_rejected(self, section, key, value):
        raw = config_to_dict(kgd())
        raw[section][key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert exc.value.errors == [f"{section}.{key}: unknown key"]

    def test_unknown_porosity_variant_reported_under_materials(self):
        raw = config_to_dict(kgd())
        raw["materials"]["porosity_variant"] = "phi2"
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert len(exc.value.errors) == 1
        assert exc.value.errors[0].startswith("materials: ")
        assert "porosity_variant" in exc.value.errors[0]

    def test_non_string_porosity_variant_rejected(self):
        raw = config_to_dict(kgd())
        raw["materials"]["porosity_variant"] = 1
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert "materials.porosity_variant: expected a string, got 1" in exc.value.errors

    def test_unknown_probe_kind_rejected(self):
        raw = config_to_dict(kgd())
        raw["outputs"]["probes"][0]["kind"] = "wavelet"
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert any("probes[0]" in e for e in exc.value.errors)

    def test_bad_boundary_set_rejected(self):
        raw = config_to_dict(terzaghi())
        raw["bcs"]["flow"][0]["set"] = "north"
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_earlier_manifest_layout_parses_to_the_preset(self):
        assert parse_config(KGD_EARLIER_LAYOUT) == kgd()

    @pytest.mark.parametrize("key", LIST_KEYS)
    def test_non_list_value_of_a_list_key_is_a_config_error(self, key, tmp_path, capsys):
        section, name = key.split(".")
        raw = config_to_dict(kgd())
        raw[section][name] = 5
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert any(e.startswith(f"{key}: expected a list") for e in exc.value.errors)
        assert main(["run", "terzaghi", "--override", f"{key}=5",
                     "--out", str(tmp_path)]) == 2
        assert f"{key}: expected a list" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, error", [
    ("materials.E", "NaN", "materials.E: expected a finite number, got nan"),
    ("materials.Gc", "-5", "materials: Gc must be positive, got -5.0"),
    ("materials.Gc", "0", "materials: Gc must be positive, got 0.0"),
    ("materials.mu_f", "0", "materials: mu_f must be positive, got 0.0"),
    ("sources.injection.rate", "NaN",
     "sources.injection.rate: expected a finite number, got nan"),
    ("controls.tol_stag", "Infinity", "controls.tol_stag: expected a finite number, got inf"),
    ("initial.pressure", "-Infinity", "initial.pressure: expected a finite number, got -inf"),
    ("geometry.domain", "[NaN, 60.0]", "geometry.domain: expected [x, y], got [nan, 60.0]"),
    ("sources.injection.point", "[0.0, Infinity]",
     "sources.injection.point: expected [x, y], got [0.0, inf]"),
    ("controls.dt_schedule", "[[Infinity, 0.1]]",
     "controls.dt_schedule: expected a non-empty list of [x, y], got [[inf, 0.1]]"),
    ("geometry.refine_bands", '[{"axis": "x", "lo": 0.0, "hi": NaN, "h": 0.1}]',
     "geometry.refine_bands[0].hi: expected a finite number, got nan"),
    ("geometry.weak_interfaces", '[{"segment": [[1.0, 20.0], [1.0, 40.0]], "gc_ratio": -0.5}]',
     "geometry.weak_interfaces[0]: gc_ratio must be positive and finite, got -0.5"),
    ("geometry.weak_interfaces", '[{"segment": [[1.0, 20.0], [1.0, 40.0]], "gc_ratio": NaN}]',
     "geometry.weak_interfaces[0].gc_ratio: expected a finite number, got nan"),
    ("geometry.weak_interfaces", '[{"segment": [[1.0, 20.0]], "gc_ratio": 0.5}]',
     "geometry.weak_interfaces[0]: segment must have two end points, got [(1.0, 20.0)]"),
])
def test_non_finite_or_non_physical_number_is_reported_under_its_path(key, value, error):
    # the JSON reader takes NaN and +-Infinity, in a file and in an override
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config_to_dict(kgd())), overrides=[f"{key}={value}"])
    assert exc.value.errors == [error]


@pytest.mark.parametrize("build", [
    lambda: MechBC(set="north", component="x"),
    lambda: MechBC(set="left"),
    lambda: MechBC(set="right", component="x", traction=(1.0, 0.0)),
    lambda: MechBC(set="left", traction=(1.0, 0.0), value=5.0),
    lambda: ScalarBC(set="north", value=0.0),
    lambda: Injection(point=(0.0, 0.0), rate=-1.0),
    lambda: ProbeSpec(name="", field="p", point=(0.0, 0.0)),
    lambda: ProbeSpec(name="w", kind="wavelet", point=(0.0, 0.0)),
    lambda: ProbeSpec(name="q", field="q", point=(0.0, 0.0)),
    lambda: ProbeSpec(name="p", field="p"),
    lambda: ProbeSpec(name="w", kind="width"),
    lambda: ProbeSpec(name="L", kind="fracture_length", path=[(0.0, 0.0)]),
    lambda: ProbeSpec(name="L", kind="fracture_length", path=[(0.0, 0.0), (1.0, 0.0)],
                      threshold=0.0),
    lambda: SolverControls(dt_schedule=[(1.0, 1.0)], v_ir=-0.1),
    lambda: SolverControls(dt_schedule=[(1.0, 0.0)]),
    lambda: SolverControls(dt_schedule=[(1.0, 0.3)]),
    lambda: SolverControls(dt_schedule=[(0.1, 0.01), (3.95, 0.1)]),
    lambda: RefineBand(axis="x", lo=-1.0, hi=1.0, h=0.1),
    lambda: WeakInterface(segment=[(0.04, 0.15), (0.04, 0.25)], gc_ratio=-0.5),
    lambda: WeakInterface(segment=[(0.04, 0.15)], gc_ratio=0.5),
], ids=["mech-set", "mech-component", "mech-component-and-traction",
        "mech-value-and-traction", "scalar-set", "injection-rate", "probe-name",
        "probe-kind", "probe-field", "probe-point", "width-point", "probe-path",
        "probe-threshold", "controls-v_ir", "controls-dt", "controls-partial-step",
        "controls-partial-segment", "band-lo", "interface-gc_ratio", "interface-segment"])
def test_each_dataclass_checks_its_own_values(build):
    # the rules hold for objects built in Python, not only for parsed JSON
    with pytest.raises(ValueError):
        build()


def test_mechanics_entry_with_a_component_and_a_traction_is_reported_under_its_path():
    # the traction used to win and the constraint at x = L was dropped
    raw = config_to_dict(terzaghi())
    assert raw["bcs"]["mechanics"][1]["component"] == "x"
    raw["bcs"]["mechanics"][1]["traction"] = [1e6, 0.0]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(raw))
    assert exc.value.errors == [
        "bcs.mechanics[1]: an entry with a traction takes no component, got component 'x'"]


def test_mechanics_entry_with_a_value_and_a_traction_exits_with_config_error(tmp_path,
                                                                             capsys):
    # the value used to be dropped silently: only the traction was applied
    raw = config_to_dict(terzaghi())
    assert "traction" in raw["bcs"]["mechanics"][0]
    assert "value" not in raw["bcs"]["mechanics"][0]
    raw["bcs"]["mechanics"][0]["value"] = 5.0
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert ("bcs.mechanics[0]: an entry with a traction takes no value, got value 5.0"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_a_constraint_without_a_value_holds_zero():
    assert MechBC(set="left", component="x").value == 0.0


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(MaterialParams)
                                   if f.type == "float"])
@pytest.mark.parametrize("value", [_NAN, _INF, -_INF], ids=["nan", "inf", "-inf"])
def test_non_finite_material_constant_is_rejected_under_its_name(field, value):
    # every check of a Python-built object fails for NaN, not only the
    # reader's check of JSON numbers
    with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
        MaterialParams(**{"E": 1e9, "nu": 0.2, field: value})


@pytest.mark.parametrize("kwargs, match", [
    ({"tol_stag": _NAN}, "tol_stag must be finite"),
    ({"tol_tpu": _INF}, "tol_tpu must be finite"),
    ({"v_ir": _NAN}, "v_ir must be finite"),
    ({"dt_schedule": [(_INF, 1.0)]}, r"segment \(inf, 1.0\): duration and dt must be finite"),
    ({"dt_schedule": [(1.0, _NAN)]}, r"segment \(1.0, nan\): duration and dt must be finite"),
    ({"dt_schedule": [(_NAN, 1.0)]}, r"segment \(nan, 1.0\): duration and dt must be finite"),
    ({"dt_schedule": [(1.0, _INF)]}, r"segment \(1.0, inf\): duration and dt must be finite"),
], ids=["tol_stag-nan", "tol_tpu-inf", "v_ir-nan", "duration-inf", "dt-nan", "duration-nan",
        "dt-inf"])
def test_non_finite_control_is_rejected_under_its_name(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SolverControls(**{"dt_schedule": [(1.0, 1.0)], **kwargs})


@pytest.mark.parametrize("rate", [_NAN, _INF])
def test_non_finite_injection_rate_is_rejected(rate):
    with pytest.raises(ValueError, match="rate must be non-negative and finite"):
        Injection(point=(0.0, 0.0), rate=rate)


class TestPresets:
    def test_registry_complete(self):
        assert set(PRESETS) == {"terzaghi", "thermal_consolidation", "kgd",
                                "kgd_cold", "single_fracture",
                                "single_fracture_interface"}

    def test_kgd_band_keeps_ell_over_h_ratio(self):
        for fast in (True, False):
            cfg = kgd(fast=fast)
            h = cfg.refine_bands[0].h
            assert cfg.materials.ell == pytest.approx(4.0 * h)

    def test_kgd_paper_parameters(self):
        cfg = kgd()
        mp = cfg.materials
        assert (mp.E, mp.nu, mp.perm_m, mp.mu_f, mp.Gc) == \
            (17e9, 0.2, 1e-18, 1e-8, 300.0)
        assert cfg.injection.rate == 2e-3
        assert cfg.controls.dt_schedule[0] == (0.1, 0.01)
        assert cfg.controls.dt_schedule[1][1] == 0.1

    def test_single_fracture_temperature_offset(self):
        cfg = single_fracture(dT=60.0)
        assert cfg.injection.temperature == pytest.approx(383.15 - 60.0)

    def test_thermal_consolidation_parameters(self):
        mp = thermal_consolidation().materials
        assert (mp.E, mp.nu, mp.alpha_m, mp.phi_m) == (60e6, 0.4, 1.0, 0.4)
        assert (mp.perm_m, mp.alpha_s, mp.c_ps, mp.c_pf) == (1e-16, 3e-7, 800.0, 4200.0)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("nope")


class TestCLIHelpers:
    def test_list_override_sets_the_dt_schedule(self):
        args = argparse.Namespace(
            scenario="terzaghi", override=["controls.dt_schedule=[[0.1,0.01],[3.9,0.1]]"])
        assert _load_config(args).controls.dt_schedule == [(0.1, 0.01), (3.9, 0.1)]

    def test_schedule_of_partial_steps_exits_with_config_error(self, tmp_path, capsys):
        assert main(["run", "terzaghi", "--override", "controls.dt_schedule=[[0.5,0.3]]",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "controls: dt_schedule segment (0.5, 0.3): the duration is not a whole " \
               "number of steps" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_scenario_exits_with_config_error(self, capsys):
        assert main(["run", "definitely_not_a_preset"]) == 2

    def test_unknown_benchmark_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["verify", "nope"])

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_cap_below_one_is_a_usage_error(self, threads, tmp_path, monkeypatch,
                                                   capsys):
        # OpenBLAS reads 0 or a negative count as "every core"; the value is
        # rejected before the cap is written and before any numerical work
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        out = tmp_path / "mesh.vtk"
        with pytest.raises(SystemExit) as exc:
            main(["--threads", threads, "mesh-dump", "terzaghi", "--out", str(out)])
        assert exc.value.code == 2
        assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert "OPENBLAS_NUM_THREADS" not in os.environ and not out.exists()

    def test_mesh_dump_writes_vtk(self, tmp_path):
        out = tmp_path / "mesh.vtk"
        assert main(["mesh-dump", "terzaghi", "--out", str(out)]) == 0
        data = out.read_bytes()
        assert b"UNSTRUCTURED_GRID" in data
        assert b"CELL_TYPES" in data

    def test_mesh_dump_creates_the_parent_directory(self, tmp_path):
        out = tmp_path / "a" / "b" / "mesh.vtk"
        assert main(["mesh-dump", "terzaghi", "--out", str(out)]) == 0
        assert b"UNSTRUCTURED_GRID" in out.read_bytes()

    def test_override_applies_before_validation(self, tmp_path, capsys):
        # an override that breaks the config must exit 2
        assert main(["run", "terzaghi", "--override", "materials.E=-5",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("top", [[1, 2], 3, "x", None])
    def test_override_on_a_non_object_file_exits_with_config_error(self, tmp_path, capsys, top):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(top))
        assert main(["run", str(path), "--override", "name=x",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: top level: expected a JSON object" in err
        assert not (tmp_path / "out").exists()

    def test_empty_file_exits_with_the_parser_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("  \n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "top level: empty configuration" in err
        assert not (tmp_path / "out").exists()

    def test_malformed_file_exits_with_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  broken\n}')
        assert main(["run", str(path), "--override", "name=y",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "line 3, column 3: Expecting property name enclosed in double quotes" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, key, item, error", [
        ("run", "outputs.probes", {"name": "far", "field": "p", "point": [100.0, 0.1]},
         "point (100.0, 0.1) outside [0.0, 25.0] x [0.0, 0.25]"),
        *[(command, "geometry.cracks", [[0.013, 0.037], [0.017, 0.037]],
           "initial crack [(0.013, 0.037), (0.017, 0.037)] does not pass through mesh nodes")
          for command in ("run", "mesh-dump")],
        *[(command, "geometry.refine_bands", {"axis": "y", "lo": 5.0, "hi": 6.0, "h": 0.01},
           "refine band [5.0, 6.0] outside axis [0, 0.25]") for command in ("run", "mesh-dump")],
        *[(command, "geometry.weak_interfaces",
           {"segment": [[100.0, 100.0], [200.0, 200.0]], "gc_ratio": 0.5},
           "weak interface [(100.0, 100.0), (200.0, 200.0)] crosses no element")
          for command in ("run", "mesh-dump")],
        ("run", "outputs.probes", {"name": "w", "kind": "width", "point": [-5.0, 0.1]},
         "point (-5.0, 0.1) outside [0.0, 25.0] x [0.0, 0.25]"),
        ("run", "outputs.probes",
         {"name": "L", "kind": "fracture_length", "path": [[1.0, 0.1], [30.0, 0.1]]},
         "point (30.0, 0.1) outside [0.0, 25.0] x [0.0, 0.25]"),
    ], ids=["run-probe", "run-crack", "mesh-dump-crack", "run-band", "mesh-dump-band",
            "run-interface", "mesh-dump-interface", "run-width", "run-fracture-length"])
    def test_scenario_that_cannot_be_set_up_exits_with_config_error(
            self, tmp_path, capsys, command, key, item, error):
        raw = config_to_dict(terzaghi())
        section, name = key.split(".")
        raw[section][name].append(item)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(raw))
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"configuration error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "mesh-dump"])
    def test_injection_point_outside_the_domain_exits_with_config_error(
            self, tmp_path, capsys, command):
        # it was snapped to the nearest boundary node, (0, 30)
        raw = config_to_dict(kgd(fast=True))
        raw["sources"]["injection"]["point"] = [-50.0, 30.0]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(raw))
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert ("configuration error: point (-50.0, 30.0) outside [0.0, 45.0] x [0.0, 60.0]"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("check", ["terzaghi", "thermal_consolidation"])
    def test_fast_flag_of_a_benchmark_without_a_fast_variant_exits_with_config_error(
            self, check, capsys, monkeypatch):
        from thmfrac import verify

        def started(*args, **kwargs):
            raise AssertionError("a verification run started")

        monkeypatch.setattr(verify, "build_simulation", started)
        monkeypatch.setattr(verify, "run", started)
        assert main(["verify", check, "--fast"]) == 2
        assert (f"configuration error: --fast does not apply to benchmark {check!r}"
                in capsys.readouterr().err)
        with pytest.raises(TypeError, match="unexpected keyword argument 'fast'"):
            verify.run_verification(check, fast=True)

    def test_value_error_during_the_run_is_not_a_config_error(self, tmp_path, monkeypatch):
        from thmfrac import staggered

        def broken(*args):
            raise ValueError("phase field outside [0, 1]")

        monkeypatch.setattr(staggered.Simulation, "time_step", broken)
        with pytest.raises(ValueError, match="phase field outside"):
            main(["run", "terzaghi", "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("argv, flags", [
        (["run", "terzaghi", "--dT", "30"], "--dT"),
        (["run", "terzaghi", "--fast"], "--fast"),
        (["run", "single_fracture", "--dT", "30", "--fast"], "--fast"),
        (["mesh-dump", "thermal_consolidation", "--fast"], "--fast"),
        (["run", "SCENARIO_FILE", "--dT", "30", "--fast"], "--dT, --fast"),
    ], ids=["dT-preset", "fast-preset", "fast-with-dT", "fast-mesh-dump", "file"])
    def test_preset_flag_that_does_not_apply_exits_with_config_error(
            self, tmp_path, capsys, argv, flags):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(config_to_dict(terzaghi())))
        argv = [str(path) if a == "SCENARIO_FILE" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert f"configuration error: {flags} does not apply to scenario" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_stabilization_switch_exits_with_config_error(self, tmp_path, capsys):
        # the switch is materials.s_stab = 0; the old key fails validation
        # before anything is built or run
        assert main(["run", "kgd_cold", "--override", "physics.stabilization=false",
                     "--out", str(tmp_path)]) == 2
        assert "physics.stabilization: unknown key" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def test_verify_registry_names_the_five_paper_checks():
    from thmfrac import cli, verify

    assert set(verify.BENCHMARKS) == {"terzaghi", "kgd", "thermal_consolidation",
                                      "stabilization", "thermal_trend"}
    assert sorted(cli.VERIFY_BENCHMARKS) == sorted(verify.BENCHMARKS)
    with pytest.raises(KeyError):
        verify.run_verification("nope")
