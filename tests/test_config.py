import json

import pytest

from thmfrac.cli import _parse_dt_schedule, main
from thmfrac.config import config_from_dict, config_to_dict, parse_config
from thmfrac.errors import ConfigError
from thmfrac.presets import (PRESETS, get_preset, kgd, single_fracture,
                             terzaghi, thermal_consolidation)


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
        for name in ("terzaghi", "thermal_consolidation", "kgd"):
            cfg = get_preset(name)
            text = json.dumps(config_to_dict(cfg))
            parsed = parse_config(text)
            assert parsed == cfg

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
    def test_dt_schedule_parser(self):
        sched = _parse_dt_schedule("10x0.01,then 0.1", total_time=4.0)
        assert sched[0] == (pytest.approx(0.1), 0.01)
        assert sched[1] == (pytest.approx(3.9), 0.1)

    def test_dt_schedule_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            _parse_dt_schedule("whenever", total_time=1.0)

    def test_unknown_scenario_exits_with_config_error(self, capsys):
        assert main(["run", "definitely_not_a_preset"]) == 2

    def test_unknown_benchmark_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["verify", "nope"])

    def test_mesh_dump_writes_vtk(self, tmp_path):
        out = tmp_path / "mesh.vtk"
        assert main(["mesh-dump", "terzaghi", "--out", str(out)]) == 0
        text = out.read_text()
        assert "UNSTRUCTURED_GRID" in text
        assert "CELL_TYPES" in text

    def test_override_applies_before_validation(self, tmp_path, capsys):
        # an override that breaks the config must exit 2
        assert main(["run", "terzaghi", "--override", "materials.E=-5",
                     "--out", str(tmp_path)]) == 2


def test_verify_registry_names_the_five_paper_checks():
    from thmfrac import cli, verify

    assert set(verify.BENCHMARKS) == {"terzaghi", "kgd", "thermal_consolidation",
                                      "stabilization", "thermal_trend"}
    assert sorted(cli.VERIFY_BENCHMARKS) == sorted(verify.BENCHMARKS)
    with pytest.raises(KeyError):
        verify.run_verification("nope")
