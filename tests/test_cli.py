import argparse
import dataclasses
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from tmsim import presets
from tmsim.cli import _overrides_from_args, build_parser, main
from tmsim.errors import InvalidArgumentError
from tmsim.tomography import MLEConfig

FAST = ["--grid-count", "128", "--flux", "1000", "--resamples", "3"]


def read(path: Path) -> bytes:
    return path.read_bytes()


def _config_flags(parser, command=()):
    """(subcommand path, action) for every flag that sets a config field."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _config_flags(sub, command + (name,))
        elif "." in action.dest:
            yield command, action


class TestConfigHandling:
    def test_unknown_section_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown configuration"):
            presets.config_from_dict({"laser": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown field"):
            presets.config_from_dict({"pump": {"fwhm": 1.0}})

    def test_invalid_value_names_field(self):
        with pytest.raises(InvalidArgumentError, match="pump.fwhm_nm"):
            presets.config_from_dict({"pump": {"fwhm_nm": -2.0}})

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pump": {"fwhm_nm": 1.0}}))
        rc = main(["schmidt", "--config", str(cfg), "--pump-fwhm-nm", "0.54",
                   "--grid-count", "96", "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "schmidt.json").read_text())
        assert data["purity"] < 0.7  # narrowband value, not the 1.0 nm one

    def test_invalid_flag_exits_2(self, tmp_path, capsys):
        rc = main(["preset", "a", "--flux", "-5", "--out", str(tmp_path)])
        assert rc == 2
        assert "tomography.flux" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["rho"], ["preset", "a"]])
    @pytest.mark.parametrize("content, flags", [
        ([1], []),
        ({"pump": 3}, ["--chirp-fs2", "1"]),
        # a fixed width policy needs a width: the file is invalid on its own
        # even though the flag would complete it
        ({"basis": {"width_policy": "fixed"}}, ["--basis-width", "0.01"]),
        # values of the wrong type
        ({"pump": {"fwhm_nm": "x"}}, []),
        ({"pump": {"fwhm_nm": None}}, []),
        ({"basis": {"dimension": 7.5}}, []),
        ({"qpg": {"per_order_falloff": 0.5}}, []),
        ({"qpg": {"per_order_falloff": ["0.5"]}}, []),
        ({"phasematching": {"angle_deg": "45"}}, []),
        ({"tomography": {"resamples": 2.5}}, []),
        ({"tomography": {"seed": True}}, []),
        # Poisson means numpy cannot sample (json writes inf as Infinity)
        ({"tomography": {"flux": float("inf")}}, []),
        ({"tomography": {"background": float("inf")}}, []),
        ({"tomography": {"flux": 1e300}}, []),
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, command, content,
                                     flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        rc = main([*command, "--config", str(cfg), *flags, "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_merge_leaves_base_unchanged(self):
        base = presets.preset_config("b")
        merged = presets.merge_overrides(base, {"tomography": {"seed": 99}})
        assert merged.tomography.seed == 99
        assert base.tomography.seed == 7
        assert merged.pump.fwhm_nm == base.pump.fwhm_nm == 0.54
        assert presets.merge_overrides(base, {}) is not base

    def test_sections_are_frozen(self):
        config = presets.preset_config("a")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.pump.fwhm_nm = 0.54
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.pump = presets.PumpConfig(fwhm_nm=0.54)

    def test_list_fields_are_frozen(self):
        config = presets.merge_overrides(
            presets.preset_config("a"), {"qpg": {"per_order_falloff": [1.0, 0.5]}})
        assert config.output.formats == ("json", "csv")
        assert config.qpg.per_order_falloff == (1.0, 0.5)
        with pytest.raises(AttributeError):
            config.output.formats.clear()
        with pytest.raises(TypeError):
            config.qpg.per_order_falloff[0] = 0.0
        assert config.to_dict()["output"]["formats"] == ["json", "csv"]
        assert dataclasses.replace(config.output, directory="x").formats \
            == ("json", "csv")

    @pytest.mark.parametrize("case, pump, angle_deg", [
        ("a", {"shape_order": 0, "center_nm": 769.0, "fwhm_nm": 1.72,
               "chirp_fs2": 0.0}, 45.0),
        ("b", {"shape_order": 0, "center_nm": 769.0, "fwhm_nm": 0.54,
               "chirp_fs2": 0.0}, 45.0),
        ("c", {"shape_order": 0, "center_nm": 769.0, "fwhm_nm": 1.49,
               "chirp_fs2": 380000.0}, 45.0),
        ("d", {"shape_order": 1, "center_nm": 769.0, "fwhm_nm": 1.31,
               "chirp_fs2": 0.0}, 41.0),
    ])
    def test_preset_config_values(self, case, pump, angle_deg):
        expected = {
            "pump": pump,
            "phasematching": {"angle_deg": angle_deg, "width_rad_per_fs": None,
                              "shape": "gaussian"},
            "basis": {"dimension": 7, "width_policy": "fit-reference",
                      "width_rad_per_fs": None},
            "qpg": {"crosstalk": 0.0, "per_order_falloff": None,
                    "filter_efficiency": 0.22},
            "tomography": {"flux": 100000.0, "background": 0.0, "seed": 7,
                           "resamples": 100},
            "grid": {"count": 512, "signal_center_nm": 1540.0},
            "output": {"directory": ".", "formats": ["json", "csv"]},
        }
        # compared as JSON so that 380000 and 380000.0 differ, as in a manifest
        assert (json.dumps(presets.preset_config(case).to_dict(), sort_keys=True)
                == json.dumps(expected, sort_keys=True))

    def test_config_flags_name_typed_fields(self):
        sections = typing.get_type_hints(presets.ExperimentConfig)
        flags = list(_config_flags(build_parser()))
        assert len(flags) == 5 * 19  # jsa, schmidt, rho, preset, chirp-scan
        for command, action in flags:
            section, name = action.dest.split(".")
            fields = typing.get_type_hints(sections[section])
            assert name in fields, (command, action.dest)
            raw = action.choices[0] if action.choices else "1"
            parsed = action.type(raw) if action.type else raw
            value = _overrides_from_args(
                argparse.Namespace(**{action.dest: parsed}))[section][name]
            assert presets._admits(fields[name], value), \
                (command, action.option_strings, value)

    def test_non_object_override_rejected(self):
        with pytest.raises(InvalidArgumentError,
                           match="configuration must be a JSON object"):
            presets.merge_overrides(presets.ExperimentConfig(), None)


class TestPresetRuns:
    def test_case_a_artifacts(self, tmp_path):
        rc = main(["preset", "a", *FAST, "--out", str(tmp_path)])
        assert rc == 0
        for name in ("jsa.csv", "jsa.json", "jsi.csv", "schmidt.json",
                     "counts.csv", "counts.json", "rho_true.json",
                     "rho_hat.json", "reconstruction_log.json",
                     "summary.json", "manifest.json"):
            assert (tmp_path / name).exists(), name
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["case"] == "a"
        assert summary["svd_purity"] > 0.99
        assert summary["reference"]["reconstructed_purity"] == pytest.approx(0.896)
        log = json.loads((tmp_path / "reconstruction_log.json").read_text())
        assert log["converged"]

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["preset", "b", *FAST, "--out", str(first)]) == 0
        assert main(["preset", "--from-manifest", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert read(first / name) == read(second / name), name

    def test_flags_apply_over_manifest(self, tmp_path):
        first, second, replay = (tmp_path / n for n in ("first", "second", "replay"))
        assert main(["preset", "a", *FAST, "--out", str(first)]) == 0
        assert main(["preset", "--from-manifest", str(first / "manifest.json"),
                     "--seed", "99", "--out", str(second)]) == 0
        config = json.loads((second / "manifest.json").read_text())["config"]
        assert config["tomography"]["seed"] == 99
        assert config["grid"]["count"] == 128  # the recorded run is the base
        assert read(first / "counts.csv") != read(second / "counts.csv")

        assert main(["preset", "--from-manifest", str(second / "manifest.json"),
                     "--out", str(replay)]) == 0
        names = sorted(p.name for p in second.iterdir())
        assert names == sorted(p.name for p in replay.iterdir())
        for name in names:
            assert read(second / name) == read(replay / name), name

    @pytest.mark.parametrize("case, text", [
        (["b"], presets.manifest_text("a", presets.preset_config("a"))),
        ([], "5"),
        ([], '{"case": "a"}'),
        ([], '{"case": "z", "config": {}}'),
    ])
    def test_bad_manifest_run_exits_2(self, tmp_path, case, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        rc = main(["preset", *case, "--from-manifest", str(manifest),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert not (tmp_path / "run").exists()

    def test_nonconvergence_exits_3_after_writing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(presets, "MLEConfig", lambda: MLEConfig(max_iterations=2))
        rc = main(["preset", "a", *FAST, "--out", str(tmp_path)])
        assert rc == 3
        log = json.loads((tmp_path / "reconstruction_log.json").read_text())
        assert (log["iterations"], log["converged"]) == (2, False)
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_json_only_formats(self, tmp_path):
        rc = main(["preset", "a", *FAST, "--formats", "json",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert not (tmp_path / "jsa.csv").exists()
        assert (tmp_path / "jsa.json").exists()

    def test_unwritable_output_exits_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        rc = main(["preset", "a", *FAST, "--out", str(blocker / "sub")])
        assert rc == 4


class TestPipelineSubcommands:
    def test_jsa_and_rho(self, tmp_path):
        assert main(["jsa", "--grid-count", "96", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "jsa.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 96 * 96
        assert main(["rho", "--grid-count", "160", "--out", str(tmp_path)]) == 0
        rho = json.loads((tmp_path / "rho.json").read_text())
        assert rho["d"] == 7
        assert rho["re"][0][0] == pytest.approx(1.0, abs=0.01)

    def test_same_input_twice_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["jsa", "--grid-count", "64", "--out", str(a_dir)])
        main(["jsa", "--grid-count", "64", "--out", str(b_dir)])
        assert read(a_dir / "jsa.csv") == read(b_dir / "jsa.csv")
        assert read(a_dir / "jsa.json") == read(b_dir / "jsa.json")

    def test_qpg_map(self, tmp_path):
        rc = main(["qpg", "map", "--count", "192", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "separability.json").read_text())
        assert report["separability"] > 0.99
        header = (tmp_path / "mapping.csv").read_text().splitlines()[0]
        assert header == "omega_in,omega_out,real,imag"

    def test_qpg_project_and_filter(self, tmp_path):
        main(["rho", "--grid-count", "160", "--out", str(tmp_path)])
        rc = main(["qpg", "project", "--rho", str(tmp_path / "rho.json"),
                   "--mode-order", "0", "--out", str(tmp_path)])
        assert rc == 0
        p = json.loads((tmp_path / "projection.json").read_text())["probability"]
        assert p == pytest.approx(1.0, abs=0.01)

        rc = main(["qpg", "filter", "--weights", "0.8,0.2", "--filter-order", "0",
                   "--efficiency", "0.22", "--out", str(tmp_path)])
        assert rc == 0
        result = json.loads((tmp_path / "filter.json").read_text())
        assert result["transmitted_g2"] == pytest.approx(1.6324, abs=1e-4)
        assert result["upconverted_g2"] == 2.0

    def test_tomo_chain(self, tmp_path):
        main(["rho", "--grid-count", "160", "--out", str(tmp_path)])
        assert main(["tomo", "mubs", "-d", "7", "--out", str(tmp_path)]) == 0
        pset = json.loads((tmp_path / "projectors.json").read_text())
        assert len(pset["projectors"]) == 56

        assert main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
                     "--flux", "10000", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        assert main(["tomo", "reconstruct", "--counts",
                     str(tmp_path / "counts.csv"), "-d", "7",
                     "--out", str(tmp_path)]) == 0
        rho_hat = json.loads((tmp_path / "rho_hat.json").read_text())
        assert np.real(rho_hat["re"][0][0]) > 0.95

        assert main(["tomo", "bootstrap", "--counts",
                     str(tmp_path / "counts.csv"), "-d", "7",
                     "--resamples", "4", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        boot = json.loads((tmp_path / "bootstrap.json").read_text())
        assert boot["purity_std"] >= 0.0

    @pytest.mark.parametrize("flag", [["--flux", "inf"], ["--flux", "1e300"],
                                      ["--background", "inf"]])
    def test_unsampleable_counts_exit_2(self, tmp_path, capsys, flag):
        main(["rho", "-d", "3", "--grid-count", "64", "--out", str(tmp_path)])
        rc = main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
                   *flag, "--out", str(tmp_path)])
        assert rc == 2
        assert "Poisson means" in capsys.readouterr().err
        assert not (tmp_path / "counts.csv").exists()

    def test_nonconvergence_exits_3(self, tmp_path):
        main(["rho", "--grid-count", "160", "--out", str(tmp_path)])
        main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
              "--flux", "10000", "--seed", "3", "--out", str(tmp_path)])
        rc = main(["tomo", "reconstruct", "--counts",
                   str(tmp_path / "counts.csv"), "-d", "7",
                   "--max-iterations", "2", "--tolerance", "1e-30",
                   "--out", str(tmp_path)])
        assert rc == 3


class TestChirpScan:
    def test_scan_columns_and_properties(self, tmp_path):
        rc = main(["chirp-scan", "--a-values", "0,2e5,5e5,1e6",
                   "--grid-count", "128", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "chirp_scan.csv").read_text().strip().splitlines()
        assert lines[0] == ("chirp_fs2,analytic_purity,svd_purity,g2,"
                            "g2_background_mixed")
        rows = [dict(zip(lines[0].split(","), map(float, line.split(","))))
                for line in lines[1:]]
        assert rows[0]["analytic_purity"] == 1.0
        purities = [r["svd_purity"] for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(purities, purities[1:]))
        for r in rows:
            if r["g2"] > 1.0:
                assert r["g2_background_mixed"] <= r["g2"]

    def test_bad_values_exit_2(self, tmp_path):
        rc = main(["chirp-scan", "--a-values", "0,abc", "--out", str(tmp_path)])
        assert rc == 2


class TestChirpScanLibrary:
    def test_matched_configuration_tracks_closed_form(self):
        config = presets.merge_overrides(presets.preset_config("a"),
                                         {"grid": {"count": 256}})
        rows = presets.chirp_scan([0.0, 0.38e6], config)
        for row in rows:
            assert abs(row["svd_purity"] - row["analytic_purity"]) < 1e-3
