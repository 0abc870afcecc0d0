import argparse
import dataclasses
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmsim import (
    GateSpec,
    HermiteGaussParams,
    build_mapping,
    cli,
    hg_mode,
    pdc,
    presets,
    reduced_density_matrix,
    schmidt_purity,
    serialize,
)
from tmsim.cli import _overrides_from_args, build_parser, main
from tmsim.errors import BasisMismatchWarning, InvalidArgumentError
from tmsim.tomography import (
    MLEConfig,
    mle_reconstruct,
    monte_carlo_errors,
    mub_bases,
)

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


positive = st.floats(1e-3, 1e6)
unit = st.floats(0.0, 1.0)
#: partial overrides that every section accepts
valid_overrides = st.fixed_dictionaries({}, optional={
    "pump": st.fixed_dictionaries({}, optional={
        "shape_order": st.sampled_from([0, 1]), "center_nm": positive,
        "fwhm_nm": positive, "chirp_fs2": st.floats(-1e7, 1e7)}),
    "phasematching": st.fixed_dictionaries({}, optional={
        "angle_deg": st.floats(0.0, 90.0, exclude_min=True, exclude_max=True),
        "width_rad_per_fs": st.none() | positive,
        "shape": st.sampled_from(["gaussian", "sinc"])}),
    "basis": st.fixed_dictionaries({}, optional={
        "dimension": st.integers(1, 50), "width_rad_per_fs": st.none() | positive}),
    "qpg": st.fixed_dictionaries({}, optional={
        "crosstalk": unit, "filter_efficiency": unit,
        "per_order_falloff": st.none() | st.lists(
            st.floats(0.0, 1.0, exclude_min=True), max_size=8)}),
    "tomography": st.fixed_dictionaries({}, optional={
        "flux": st.floats(0.0, 1e18, exclude_min=True),
        "background": st.floats(0.0, 1e18), "seed": st.integers(0, 2**63),
        "resamples": st.integers(2, 10**6)}),
    "grid": st.fixed_dictionaries({}, optional={
        "count": st.integers(16, 4096), "signal_center_nm": positive}),
})


class TestConfigHandling:
    @settings(max_examples=200, deadline=None)
    @given(overrides=valid_overrides)
    def test_dict_and_merge_round_trips(self, overrides):
        default = presets.ExperimentConfig()
        config = presets.merge_overrides(default, overrides)
        assert presets.merge_overrides(default, config.to_dict()) == config
        manifest = json.loads(json.dumps(config.to_dict()))
        assert presets.merge_overrides(default, manifest) == config
        assert presets.merge_overrides(config, {}) == config

    def test_unknown_section_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown configuration"):
            presets.merge_overrides(presets.ExperimentConfig(), {"laser": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown field"):
            presets.merge_overrides(presets.ExperimentConfig(), {"pump": {"fwhm": 1.0}})

    def test_invalid_value_names_field(self):
        with pytest.raises(InvalidArgumentError, match="pump.fwhm_nm"):
            presets.merge_overrides(presets.ExperimentConfig(),
                                    {"pump": {"fwhm_nm": -2.0}})

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

    @pytest.mark.parametrize("command, flag", [
        (["jsa"], ["--formats", "csv"]),
        (["preset", "a"], ["--formats", "json"]),
        (["rho"], ["--formats", "csv"]),
        (["schmidt"], ["--formats", "json"]),
        (["chirp-scan", "--a-values", "0"], ["--formats", "json"]),
        (["chirp-scan", "--a-values", "0"], ["--chirp-fs2", "1e6"]),
    ])
    def test_flag_without_effect_exits_2(self, tmp_path, capsys, command, flag):
        # every command writes one fixed artifact set, and the scan sets each
        # row's chirp from --a-values
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--grid-count", "32", *flag, "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, formats", [
        (["rho", "-d", "3"], ["csv"]),
        (["schmidt"], ["json"]),
        (["chirp-scan", "--a-values", "0"], ["json", "csv"]),
    ])
    def test_formats_in_config_file_exits_2(self, tmp_path, capsys, command,
                                            formats):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"formats": formats}}))
        rc = main([*command, "--config", str(cfg), "--grid-count", "64",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "unknown configuration section 'output'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["rho"], ["preset", "a"]])
    @pytest.mark.parametrize("content, flags", [
        ([1], []),
        ({"pump": 3}, ["--chirp-fs2", "1"]),
        # the file is invalid on its own even though the flag would
        # replace its width
        ({"basis": {"width_rad_per_fs": -5}}, ["--basis-width", "0.01"]),
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
        # numpy's generators take no negative seed
        ({"tomography": {"seed": -2}}, []),
        # wavelengths and widths must be finite
        ({"pump": {"center_nm": float("inf")}}, []),
        ({"pump": {"fwhm_nm": float("inf")}}, []),
        ({"grid": {"signal_center_nm": float("inf")}}, []),
        ({"basis": {"width_rad_per_fs": float("inf")}}, []),
        # finite, but the signal grid (centred at ~2e-300 rad/fs) or the
        # idler grid (centred at ~8e-4 rad/fs) reaches a non-positive frequency
        ({"grid": {"signal_center_nm": 1e300}}, []),
        ({"pump": {"center_nm": 1539.0}}, []),
        # JSON integers beyond the largest double
        ({"grid": {"signal_center_nm": 10**400}}, []),
        ({"pump": {"chirp_fs2": 10**400}}, []),
    ])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, command, content,
                                     flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        rc = main([*command, "--config", str(cfg), *flags, "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("flag, field", [
        (["--signal-center-nm", "inf"], "grid.signal_center_nm"),
        (["--pump-fwhm-nm", "inf"], "pump.fwhm_nm"),
    ])
    def test_infinite_flag_names_field(self, tmp_path, capsys, flag, field):
        rc = main(["rho", "-d", "3", "--grid-count", "64", *flag,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "rho.json").exists()

    @pytest.mark.parametrize("field", ["grid.signal_center_nm", "pump.chirp_fs2"])
    def test_huge_integer_names_field(self, tmp_path, capsys, field):
        section, name = field.split(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {name: 10**400}}))
        rc = main(["rho", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"{field}: must be of type float with a finite double value" \
            in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", [["--pm-width", "1e300"],
                                      ["--basis-width", "1e300"],
                                      ["--pump-center-nm", "1539"]])
    def test_grid_below_zero_names_every_sizing_field(self, tmp_path, capsys, flag):
        rc = main(["rho", *flag, "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "reaches a non-positive frequency" in err
        for field in ("pump.center_nm", "grid.signal_center_nm",
                      "basis.width_rad_per_fs", "basis.dimension",
                      "phasematching.width_rad_per_fs", "pump.fwhm_nm"):
            assert field in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("width", ["1e-300", "1e-5"])
    def test_unresolved_basis_width_names_field(self, tmp_path, capsys, width):
        # far below the grid spacing, every basis sample would be 0
        rc = main(["rho", "-d", "3", "--grid-count", "64", "--basis-width", width,
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert ("basis.width_rad_per_fs: the basis modes fall between the grid "
                "points") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("width", ["-5", "0", "inf", "nan"])
    def test_bad_basis_width_names_field(self, tmp_path, capsys, source, width):
        if source == "flag":
            given = [f"--basis-width={width}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"basis": {"width_rad_per_fs": float(width)}}))
            given = ["--config", str(cfg)]
        rc = main(["rho", "-d", "3", "--grid-count", "64", *given,
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "basis.width_rad_per_fs" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_output_directory_is_not_a_config_field(self, tmp_path, capsys):
        # the output directory is the --out argument alone
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"directory": "x"}}))
        rc = main(["preset", "a", "--config", str(cfg),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "unknown configuration section 'output'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "x").exists()

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from("abcd"), dimension=st.integers(1, 21),
           width=st.none() | st.floats(1e-4, 0.05))
    def test_grid_holds_every_basis_order(self, case, dimension, width):
        config = presets.merge_overrides(presets.preset_config(case), {
            "basis": {"dimension": dimension, "width_rad_per_fs": width}})
        basis = presets.tomography_basis(config)
        assert basis.width == (presets.REFERENCE_WIDTH if width is None else width)
        signal_grid, _ = presets.experiment_grids(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # hg_mode warns of a truncated order
            for order in range(dimension):
                hg_mode(dataclasses.replace(basis, order=order), signal_grid)

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
        assert config.qpg.per_order_falloff == (1.0, 0.5)
        with pytest.raises(TypeError):
            config.qpg.per_order_falloff[0] = 0.0
        assert config.to_dict()["qpg"]["per_order_falloff"] == [1.0, 0.5]
        assert dataclasses.replace(config.qpg).per_order_falloff == (1.0, 0.5)

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
            "basis": {"dimension": 7, "width_rad_per_fs": None},
            "qpg": {"crosstalk": 0.0, "per_order_falloff": None,
                    "filter_efficiency": 0.22},
            "tomography": {"flux": 100000.0, "background": 0.0, "seed": 7,
                           "resamples": 100},
            "grid": {"count": 512, "signal_center_nm": 1540.0},
        }
        # compared as JSON so that 380000 and 380000.0 differ, as in a manifest
        assert (json.dumps(presets.preset_config(case).to_dict(), sort_keys=True)
                == json.dumps(expected, sort_keys=True))

    def test_config_flags_name_typed_fields(self):
        sections = typing.get_type_hints(presets.ExperimentConfig)
        flags = list(_config_flags(build_parser()))
        # jsa, schmidt, rho and preset take all 17; chirp-scan no --chirp-fs2
        assert len(flags) == 4 * 17 + 16
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
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "counts.csv", "counts.json", "filter_analysis.json", "jsa.csv",
            "jsa.json", "jsi.csv", "manifest.json", "reconstruction_log.json",
            "rho_hat.json", "rho_true.json", "schmidt.json", "summary.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest["config"]) == [
            "basis", "grid", "phasematching", "pump", "qpg", "tomography"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["case"] == "a"
        assert summary["svd_purity"] > 0.99
        assert summary["reference"]["reconstructed_purity"] == pytest.approx(0.896)
        log = json.loads((tmp_path / "reconstruction_log.json").read_text())
        assert log["converged"] and log["certificate"] <= 1e-8
        assert summary["nonconverged_resamples"] == 0
        assert summary["worst_resample_certificate"] <= 1e-8

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
        ([], '{"case": ["a"], "config": {}}'),
        ([], '{"case": {"x": 1}, "config": {}}'),
    ])
    def test_bad_manifest_run_exits_2(self, tmp_path, case, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        rc = main(["preset", *case, "--from-manifest", str(manifest),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert not (tmp_path / "run").exists()

    def test_manifest_with_width_policy_exits_2(self, tmp_path, capsys):
        # the basis section of a manifest that still records the removed
        # width_policy
        manifest = json.loads(presets.manifest_text("a", presets.preset_config("a")))
        manifest["config"]["basis"]["width_policy"] = "fit-reference"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest, sort_keys=True))
        rc = main(["preset", "--from-manifest", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "basis: unknown field(s) ['width_policy']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_manifest_with_output_section_exits_2(self, tmp_path, capsys):
        # a manifest that still records the removed output section, with the
        # formats every run wrote
        manifest = json.loads(presets.manifest_text("a", presets.preset_config("a")))
        assert "output" not in manifest["config"]
        manifest["config"]["output"] = {"formats": ["json", "csv"]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest, sort_keys=True))
        rc = main(["preset", "--from-manifest", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "unknown configuration section 'output'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_nonconvergence_exits_3_after_writing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(presets, "MLEConfig", lambda: MLEConfig(max_iterations=2))
        rc = main(["preset", "a", *FAST, "--out", str(tmp_path)])
        assert rc == 3
        log = json.loads((tmp_path / "reconstruction_log.json").read_text())
        assert (log["iterations"], log["converged"]) == (2, False)
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_nonconverged_resamples_in_summary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(presets, "MLEConfig", lambda: MLEConfig(max_iterations=5))
        assert main(["preset", "a", *FAST, "--out", str(tmp_path)]) == 3
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["nonconverged_resamples"] == 3

    def test_unwritable_output_exits_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        rc = main(["preset", "a", *FAST, "--out", str(blocker / "sub")])
        assert rc == 4

    @pytest.mark.parametrize("command", [["jsa", "--grid-count", "32"],
                                         ["rho", "-d", "3", "--grid-count", "64"]])
    def test_unwritable_output_of_a_stage_exits_4(self, tmp_path, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert main([*command, "--out", str(blocker / "sub")]) == 4


class TestPipelineSubcommands:
    def test_jsa_and_rho(self, tmp_path):
        assert main(["jsa", "--grid-count", "96", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "jsa.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 96 * 96
        assert main(["rho", "--grid-count", "160", "--out", str(tmp_path)]) == 0
        rho = json.loads((tmp_path / "rho.json").read_text())
        assert rho["d"] == 7
        assert rho["re"][0][0] == pytest.approx(1.0, abs=0.01)

    def test_basis_width_flag_alone_sets_the_width(self, tmp_path, monkeypatch):
        def no_decomposition(*args, **kwargs):
            raise AssertionError("rho must not decompose the amplitude")

        for module in (cli, presets, pdc):  # every name it is bound to
            monkeypatch.setattr(module, "schmidt_decompose", no_decomposition)
        width = 0.003
        assert main(["rho", "-d", "3", "--grid-count", "64",
                     "--basis-width", str(width), "--out", str(tmp_path)]) == 0
        config = presets.merge_overrides(presets.ExperimentConfig(), {
            "basis": {"dimension": 3, "width_rad_per_fs": width},
            "grid": {"count": 64}})
        signal_grid, _ = presets.experiment_grids(config)
        rho = reduced_density_matrix(
            presets.build_state(config),
            HermiteGaussParams(order=0, center=signal_grid.center, width=width), 3)
        assert (tmp_path / "rho.json").read_text() \
            == serialize.dump_json(serialize.density_to_dict(rho))
        assert rho.leakage > 1e-3  # the reference basis holds this state to ~1e-12

    @pytest.mark.parametrize("command", [
        ["rho", "-d", "3", "--grid-count", "64", "--pump-center-nm"],
        ["qpg", "map", "--count", "64", "--input-center-nm"],
    ])
    @pytest.mark.parametrize("center", ["1e-300", "1e300"])
    def test_unconvertible_bandwidth_exits_2(self, tmp_path, capsys, command,
                                             center):
        rc = main([*command, center, "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "bandwidth conversion" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("skew", ["nan", "inf", "-inf"])
    def test_non_finite_skew_exits_2(self, tmp_path, capsys, skew):
        rc = main(["qpg", "map", "--count", "64", f"--skew={skew}",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "group-velocity mismatch must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_schmidt_reports_untruncated_purity(self, tmp_path):
        flags = ["--pump-fwhm-nm", "0.54", "--grid-count", "96"]
        assert main(["schmidt", *flags, "--max-modes", "2",
                     "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "schmidt.json").read_text())
        assert data["residual_weight"] > 1e-3
        config = presets.merge_overrides(
            presets.ExperimentConfig(),
            {"pump": {"fwhm_nm": 0.54}, "grid": {"count": 96}})
        purity = schmidt_purity(presets.build_state(config))
        truncated = float(np.sum(np.array(data["weights"]) ** 2))
        assert data["purity"] == pytest.approx(purity, rel=1e-12)
        assert truncated > purity + 1e-3
        assert data["g2"] == pytest.approx(1.0 + purity, rel=1e-12)

    def test_schmidt_prints_full_spectrum_dominant_weight(self, tmp_path, capsys):
        # one kept mode renormalizes to weight 1; the printed value is its
        # share of the whole spectrum (~0.382 here)
        assert main(["schmidt", "--chirp-fs2", "3.8e5", "--max-modes", "1",
                     "--out", str(tmp_path)]) == 0
        printed = float(capsys.readouterr().out.split("dominant weight ")[1])
        config = presets.merge_overrides(presets.ExperimentConfig(),
                                         {"pump": {"chirp_fs2": 3.8e5}})
        svals = np.linalg.svd(presets.build_state(config).amplitudes,
                              compute_uv=False)
        assert printed == pytest.approx(svals[0] ** 2 / np.sum(svals**2), abs=5e-7)
        assert printed < 0.5

    def test_schmidt_max_modes_beyond_grid_keeps_every_mode(self, tmp_path):
        assert main(["schmidt", "--grid-count", "64", "--max-modes", "10000",
                     "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "schmidt.json").read_text())
        assert len(data["weights"]) == 64
        assert 0.0 <= data["residual_weight"] <= 1e-12
        assert main(["schmidt", "--grid-count", "64", "--max-modes", "0",
                     "--out", str(tmp_path / "zero")]) == 2

    def test_same_input_twice_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["jsa", "--grid-count", "64", "--out", str(a_dir)])
        main(["jsa", "--grid-count", "64", "--out", str(b_dir)])
        assert read(a_dir / "jsa.csv") == read(b_dir / "jsa.csv")
        assert read(a_dir / "jsa.json") == read(b_dir / "jsa.json")

    def test_consecutive_calls_share_no_state(self, tmp_path):
        # main parses every call with one parser; a flag given to one call
        # must not become the default of the next
        assert cli._parser() is cli._parser()
        assert build_parser() is not cli._parser()
        assert main(["rho", "-d", "3", "--grid-count", "64",
                     "--out", str(tmp_path / "d3")]) == 0
        assert main(["rho", "--grid-count", "64",
                     "--out", str(tmp_path / "default")]) == 0
        assert json.loads((tmp_path / "d3" / "rho.json").read_text())["d"] == 3
        rho = tmp_path / "default" / "rho.json"
        assert json.loads(rho.read_text())["d"] == 7

        def simulate(name, *seed):
            out = tmp_path / name
            assert main(["tomo", "simulate", "--rho", str(rho), "--flux", "1000",
                         *seed, "--out", str(out)]) == 0
            return read(out / "counts.csv")

        seeded = simulate("seed5", "--seed", "5")
        unseeded = simulate("unseeded")
        assert unseeded == simulate("seed0", "--seed", "0")
        assert unseeded != seeded

    def test_qpg_map(self, tmp_path):
        rc = main(["qpg", "map", "--count", "192", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "separability.json").read_text())
        assert report["separability"] > 0.99
        header = (tmp_path / "mapping.csv").read_text().splitlines()[0]
        assert header == "omega_in,omega_out,real,imag"

    def test_qpg_map_maps_the_flagged_gate(self, tmp_path):
        # every flag off its default, so each lands in its own field
        assert main(["qpg", "map", "--input-center-nm", "1550", "--input-fwhm-nm", "5",
                     "--qpg-pump-center-nm", "870", "--qpg-pump-fwhm-nm", "1.6",
                     "--qpg-pump-shape-order", "1", "--output-fwhm-nm", "0.07",
                     "--skew", "0.5", "--count", "64", "--out", str(tmp_path)]) == 0
        gate = GateSpec(input_center_nm=1550.0, input_fwhm_nm=5.0, qpg_pump_center_nm=870.0,
                        qpg_pump_fwhm_nm=1.6, qpg_pump_shape_order=1,
                        output_fwhm_nm=0.07, count=64)
        xi = build_mapping(*gate.inputs(), group_velocity_mismatch=0.5)
        assert read(tmp_path / "mapping.csv") == b"".join(
            serialize.mapping_csv_chunks(xi))

    def test_qpg_map_flags_and_defaults(self, capsys):
        # written out: the command's flags, their order and defaults are
        # fixed, wherever they are read from
        defaults = vars(build_parser().parse_args(["qpg", "map"]))
        del defaults["handler"]
        assert defaults == {
            "command": "qpg", "qpg_command": "map", "input_center_nm": 1540.0,
            "input_fwhm_nm": 4.9, "qpg_pump_center_nm": 876.0, "qpg_pump_fwhm_nm": 1.54,
            "qpg_pump_shape_order": 0, "output_fwhm_nm": 0.061, "skew": 0.0,
            "count": 512, "out": "."}
        with pytest.raises(SystemExit):
            main(["qpg", "map", "--help"])
        assert re.findall(r"^  (-\S+)", capsys.readouterr().out, re.M) == [
            "-h,", "--input-center-nm", "--input-fwhm-nm", "--qpg-pump-center-nm",
            "--qpg-pump-fwhm-nm", "--qpg-pump-shape-order", "--output-fwhm-nm",
            "--skew", "--count", "--out"]

    def test_key_error_in_a_handler_propagates(self, tmp_path, monkeypatch):
        # every malformed input has its own check and exits 2, so a KeyError
        # is a fault of the program, not a configuration error
        def fault(dimension):
            raise KeyError("fault")

        monkeypatch.setattr(cli, "mub_bases", fault)
        with pytest.raises(KeyError, match="fault"):
            main(["tomo", "mubs", "-d", "2", "--out", str(tmp_path)])

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

    @pytest.mark.parametrize("command, message", [
        (["project", "--rho", "rho.json", "--mode-coeffs", "0,0,0,0,0,0,0"],
         "mode must be unit norm, got |mode| = 0.0\n"),
        (["filter", "--weights", "0.8,0.2", "--filter-coeffs", "0,0"],
         "filter mode must be unit norm, got |mode| = 0.0\n"),
    ])
    def test_zero_mode_error_prints_a_number(self, tmp_path, monkeypatch, capsys,
                                             command, message):
        monkeypatch.chdir(tmp_path)
        main(["rho", "--grid-count", "64", "--out", "."])
        capsys.readouterr()
        rc = main(["qpg", *command, "--out", "run"])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err
        assert "np.float64(" not in err

    def test_tomo_chain(self, tmp_path):
        main(["rho", "--grid-count", "160", "--out", str(tmp_path)])
        assert main(["tomo", "mubs", "-d", "7", "--out", str(tmp_path)]) == 0
        pset = json.loads((tmp_path / "projectors.json").read_text())
        assert len(pset["projectors"]) == 56

        assert main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
                     "--flux", "10000", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        assert main(["tomo", "reconstruct", "--counts",
                     str(tmp_path / "counts.csv"),
                     "--out", str(tmp_path)]) == 0
        rho_hat = json.loads((tmp_path / "rho_hat.json").read_text())
        assert np.real(rho_hat["re"][0][0]) > 0.95
        log = json.loads((tmp_path / "reconstruction_log.json").read_text())
        assert log["converged"] and log["certificate"] <= 1e-8

        assert main(["tomo", "bootstrap", "--counts",
                     str(tmp_path / "counts.csv"),
                     "--resamples", "4", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        boot = json.loads((tmp_path / "bootstrap.json").read_text())
        assert boot["purity_std"] >= 0.0
        assert boot["nonconverged_resamples"] == 0
        assert boot["worst_resample_certificate"] <= 1e-8

    @pytest.mark.parametrize("dimension", [3, 5])
    def test_fit_commands_read_dimension_from_counts(self, tmp_path, dimension):
        # the chain states d once; the fits equal the library's on mub_bases(d)
        main(["rho", "-d", str(dimension), "--grid-count", "64",
              "--out", str(tmp_path)])
        main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
              "--seed", "7", "--out", str(tmp_path)])
        counts = tmp_path / "counts.csv"
        assert main(["tomo", "reconstruct", "--counts", str(counts),
                     "--out", str(tmp_path)]) == 0
        assert main(["tomo", "bootstrap", "--counts", str(counts),
                     "--resamples", "4", "--out", str(tmp_path)]) == 0

        records = serialize.count_records_from_csv(counts.read_text())
        pset = mub_bases(dimension)
        result = mle_reconstruct(records, pset)
        errors = monte_carlo_errors(records, pset, resamples=4)
        expected = {
            "rho_hat.json": serialize.density_to_dict(result.rho_hat),
            "reconstruction_log.json": serialize.reconstruction_log_to_dict(result),
            "bootstrap.json": {
                "purity_mean": errors.purity_mean,
                "purity_std": errors.purity_std,
                "fidelity_std": errors.fidelity_std,
                "nonconverged_resamples": errors.nonconverged,
                "worst_resample_certificate": errors.worst_certificate,
            },
        }
        for name, payload in expected.items():
            assert read(tmp_path / name) == serialize.dump_json(payload).encode()

    @pytest.mark.parametrize("command", ["reconstruct", "bootstrap"])
    def test_fit_commands_take_no_dimension(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main(["tomo", command, "--counts", str(tmp_path / "counts.csv"),
                  "-d", "3", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: -d 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["reconstruct"], ["bootstrap", "--resamples", "2"]])
    @pytest.mark.parametrize("records, message", [
        ("", "no count records supplied"),
        # twelve records of a full d = 3 set and one stray label
        ("".join(f"{b},{e},5,1.0\n" for b in range(4) for e in range(3))
         + "0,996,5,1.0\n",
         "element index 996 of record (0, 996) sets d = 997, but 13 records"),
    ], ids=["header-only", "stray-label"])
    def test_counts_too_few_for_their_dimension_exit_2(
            self, tmp_path, capsys, monkeypatch, command, records, message):
        build = cli.mub_bases

        def small_sets_only(dimension):
            assert dimension <= 7, f"mub_bases({dimension}) was called"
            return build(dimension)

        monkeypatch.setattr(cli, "mub_bases", small_sets_only)
        counts = tmp_path / "counts.csv"
        counts.write_text("basis_index,element_index,counts,exposure\n" + records)
        out = tmp_path / "run"
        rc = main(["tomo", *command, "--counts", str(counts), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_counts_beyond_poisson_limit(self, tmp_path, capsys):
        # the fit draws nothing; the bootstrap cannot redraw such a count
        main(["rho", "-d", "3", "--grid-count", "64", "--out", str(tmp_path)])
        main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
              "--out", str(tmp_path)])
        counts = tmp_path / "counts.csv"
        header, first, *rest = counts.read_text().splitlines()
        basis, element, _, exposure = first.split(",")
        counts.write_text("\n".join(
            [header, f"{basis},{element},{10**20},{exposure}", *rest]) + "\n")
        assert main(["tomo", "reconstruct", "--counts", str(counts),
                     "--out", str(tmp_path / "fit")]) == 0
        log = json.loads((tmp_path / "fit" / "reconstruction_log.json").read_text())
        assert log["converged"]
        capsys.readouterr()
        out = tmp_path / "boot"
        rc = main(["tomo", "bootstrap", "--counts", str(counts),
                   "--resamples", "2", "--out", str(out)])
        assert rc == 2
        assert "counts must be at most 1e+18" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--flux", "inf"], ["--flux", "1e300"],
                                      ["--background", "inf"]])
    def test_unsampleable_counts_exit_2(self, tmp_path, capsys, flag):
        main(["rho", "-d", "3", "--grid-count", "64", "--out", str(tmp_path)])
        rc = main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
                   *flag, "--out", str(tmp_path)])
        assert rc == 2
        assert "Poisson means" in capsys.readouterr().err
        assert not (tmp_path / "counts.csv").exists()

    @pytest.mark.parametrize("command", [["reconstruct"], ["bootstrap", "--resamples", "2"]])
    @pytest.mark.parametrize("line, message", [
        ("0,0,5", "line 3: expected 4 fields, got 3"),
        ("0,0,x,1.0", "line 3: invalid literal for int"),
        ("0,0,5,inf", "line 3: exposure must be finite and positive, got inf"),
        ("0,-1,5,1.0", "line 3: element_index must be non-negative, got -1"),
        ("-2,0,5,1.0", "line 3: basis_index must be non-negative, got -2"),
    ])
    def test_malformed_counts_exit_2(self, tmp_path, capsys, command, line, message):
        counts = tmp_path / "counts.csv"
        counts.write_text(f"basis_index,element_index,counts,exposure\n"
                          f"0,1,4,1.0\n{line}\n")
        rc = main(["tomo", *command, "--counts", str(counts),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["reconstruct"], ["bootstrap", "--resamples", "2"]])
    def test_unmodelled_record_set_exits_2(self, tmp_path, capsys, command):
        # the 11 remaining records still span, but no longer sum to a
        # multiple of the identity, which the fit assumes
        main(["rho", "-d", "3", "--grid-count", "64", "--out", str(tmp_path)])
        main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
              "--out", str(tmp_path)])
        counts = tmp_path / "counts.csv"
        lines = counts.read_text().splitlines()
        counts.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        capsys.readouterr()
        out = tmp_path / "run"
        rc = main(["tomo", *command, "--counts", str(counts),
                   "--out", str(out)])
        assert rc == 2
        assert "multiple of the identity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["reconstruct"], ["bootstrap", "--resamples", "2"]])
    @pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1e-8"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, command, tolerance):
        # an infinite tolerance would accept the first iterate as converged
        main(["rho", "-d", "3", "--grid-count", "64", "--out", str(tmp_path)])
        main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
              "--out", str(tmp_path)])
        capsys.readouterr()
        out = tmp_path / "run"
        rc = main(["tomo", *command, "--counts", str(tmp_path / "counts.csv"),
                   f"--tolerance={tolerance}", "--out", str(out)])
        assert rc == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "--rho", "{out}/rho.json", "--seed", "-1"],
        ["bootstrap", "--counts", "{out}/counts.csv",
         "--resamples", "2", "--seed", "-3"],
    ])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        main(["rho", "-d", "3", "--grid-count", "64", "--out", str(tmp_path)])
        main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
              "--out", str(tmp_path)])
        capsys.readouterr()
        out = tmp_path / "run"
        rc = main(["tomo", *(arg.format(out=tmp_path) for arg in command),
                   "--out", str(out)])
        assert rc == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["qpg", "project", "--mode-order", "0", "--rho"],
        ["tomo", "simulate", "--rho"],
    ])
    @pytest.mark.parametrize("content, message", [
        ('{"d": "x", "re": [[1]], "im": [[0]]}', "'d': must be an integer"),
        ('{"d": 2.7, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}',
         "'d': must be an integer"),
        ('[1]', "must be a JSON object"),
        ('{"re": [[1]], "im": [[0]]}', "density matrix is missing the 'd' entry"),
        ('{"d": 1, "im": [[0]]}', "density matrix is missing the 're' entry"),
        ('{"d": 1, "re": [[1]], "leakage": 0}', "density matrix is missing the 'im' entry"),
        ('{"d": 1, "re": [["a"]], "im": [[0]]}', "'re': could not convert"),
        ('{"d": 1, "re": [[1]], "im": [[0]], "leakage": "x"}',
         "'leakage': must be a number"),
        # a mismatched part used to broadcast, or fail to broadcast
        ('{"d": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0], [0, 0]]}',
         "'im': expected shape (2, 2), got (3, 2)"),
        ('{"d": 2, "re": [[1, 0], [0, 0]], "im": [0, 0]}',
         "'im': expected shape (2, 2), got (2,)"),
        ('{"d": 2, "re": [[1, 0, 0], [0, 0, 0]], "im": [[0, 0], [0, 0]]}',
         "'re': expected shape (2, 2), got (2, 3)"),
        ('{"d": 1, "re": [[1]], "im": [[0]], "leakage": NaN}',
         "leakage must lie in [0, 1]"),
        ('{"d": 1, "re": [[1]], "im": [[0]], "leakage": -0.5}',
         "leakage must lie in [0, 1]"),
        ('{"d": 1, "re": [[1]], "im": [[0]], "leakage": 7}',
         "leakage must lie in [0, 1]"),
    ])
    def test_malformed_density_exits_2(self, tmp_path, capsys, command, content,
                                       message):
        rho = tmp_path / "rho.json"
        rho.write_text(content)
        rc = main([*command, str(rho), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [
        ["rho", "--config"],
        ["tomo", "reconstruct", "--counts"],
        ["tomo", "simulate", "--rho"],
        ["qpg", "project", "--mode-order", "0", "--rho"],
    ])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "input"
        path.write_bytes(b'{"pump": "\xff\xfe"}')
        rc = main([*command, str(path), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_bootstrap_counts_nonconverged_resamples(self, tmp_path, monkeypatch,
                                                     capsys):
        main(["rho", "-d", "3", "--grid-count", "64", "--out", str(tmp_path)])
        main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
              "--flux", "10000", "--out", str(tmp_path)])
        bootstrap = ["tomo", "bootstrap", "--counts", str(tmp_path / "counts.csv"),
                     "--resamples", "4", "--out", str(tmp_path)]
        assert main(bootstrap) == 0
        boot = json.loads((tmp_path / "bootstrap.json").read_text())
        assert boot["nonconverged_resamples"] == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "_mle_config_from_args",
                            lambda args: MLEConfig(max_iterations=2))
        # a baseline fit that hit the cap: bootstrap.json is written, exit 3
        assert main(bootstrap) == 3
        assert "did not converge" in capsys.readouterr().err
        boot = json.loads((tmp_path / "bootstrap.json").read_text())
        assert boot["nonconverged_resamples"] == 4
        assert boot["worst_resample_certificate"] > 1e-8

    @pytest.mark.parametrize("weights", ["-0.8,-0.2", "0.5,-0.1", "0,0"])
    def test_qpg_filter_rejects_bad_weights(self, tmp_path, capsys, weights):
        rc = main(["qpg", "filter", f"--weights={weights}", "--filter-order", "0",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "non-negative" in capsys.readouterr().err
        assert not (tmp_path / "filter.json").exists()

    def test_nonconvergence_exits_3(self, tmp_path):
        main(["rho", "--grid-count", "160", "--out", str(tmp_path)])
        main(["tomo", "simulate", "--rho", str(tmp_path / "rho.json"),
              "--flux", "10000", "--seed", "3", "--out", str(tmp_path)])
        rc = main(["tomo", "reconstruct", "--counts",
                   str(tmp_path / "counts.csv"),
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

    @pytest.mark.parametrize("values", ["nan", "inf", "-inf", "0,1e5,nan"])
    def test_non_finite_chirp_exits_2(self, tmp_path, capsys, values):
        # "=" keeps argparse from reading "-inf" as an option
        assert main(["chirp-scan", f"--a-values={values}", "--grid-count", "16",
                     "--out", str(tmp_path)]) == 2
        bad = values.rsplit(",", 1)[-1]
        assert (f"pump.chirp_fs2: must be of type float with a finite double "
                f"value, got {bad}") in capsys.readouterr().err
        assert not (tmp_path / "chirp_scan.csv").exists()

    def test_pump_off_the_ridge_exits_2(self, tmp_path, capsys):
        # a 1e-100 rad/fs ridge underflows at every grid point
        assert main(["chirp-scan", "--a-values", "0,1e5", "--grid-count", "64",
                     "--pm-width", "1e-100", "--pm-angle-deg", "30",
                     "--out", str(tmp_path)]) == 2
        assert "do not overlap" in capsys.readouterr().err
        assert not (tmp_path / "chirp_scan.csv").exists()

    def test_chirp_beyond_largest_square(self, tmp_path):
        # the closed form's chirp term overflows a double: purity is its limit
        assert main(["chirp-scan", "--a-values", "1e200", "--grid-count", "16",
                     "--out", str(tmp_path / "scan")]) == 0
        header, row = (tmp_path / "scan" / "chirp_scan.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["analytic_purity"] == \
            "0.000000000000e+00"
        with pytest.warns(BasisMismatchWarning):  # a 16-point grid leaks
            assert main(["preset", "a", "--chirp-fs2", "1e200", "--grid-count", "16",
                         "-d", "3", "--resamples", "2",
                         "--out", str(tmp_path / "preset")]) == 0
        summary = json.loads((tmp_path / "preset" / "summary.json").read_text())
        assert summary["analytic_purity"] == 0.0


class TestChirpScanLibrary:
    def test_matched_configuration_tracks_closed_form(self):
        config = presets.merge_overrides(presets.preset_config("a"),
                                         {"grid": {"count": 256}})
        rows = presets.chirp_scan([0.0, 0.38e6], config)
        for row in rows:
            assert abs(row["svd_purity"] - row["analytic_purity"]) < 1e-3


class TestReadme:
    def test_command_line_examples_parse(self):
        # a flag removed from the command line must go from the README too
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines
                    if line.startswith("tmsim ")]
        assert {argv[0] for argv in commands} == {
            "preset", "jsa", "schmidt", "rho", "qpg", "tomo", "chirp-scan"}
        parser = build_parser()
        failures = []
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                failures.append(" ".join(argv))
        assert not failures

    def test_library_sketch_runs(self):
        # a public name deleted or renamed must go from the README too
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
        with pytest.warns(BasisMismatchWarning):  # preset c leaks 0.31
            exec(block.split("```", 1)[0], {})


def run_fresh(script: str) -> str:
    """The stdout of `script` run in a fresh interpreter on this checkout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImports:
    def test_pipeline_imports_no_optimizer(self, tmp_path):
        # the benchmark's warm-up call, in a fresh interpreter
        script = (
            "import contextlib, io, sys\n"
            "import tmsim.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = tmsim.cli.main(['rho', '-d', '3', '--grid-count', '64',"
            f" '--out', {str(tmp_path)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert run_fresh(script).split() == ["0", "[]"]

    def test_no_command_imports_scipy(self, tmp_path):
        # every subcommand, on small grids, in one fresh interpreter; only
        # pdc.fit_basis_width, which no command calls, needs scipy
        out = str(tmp_path)
        steps = [
            ["rho", "-d", "3", "--grid-count", "64", "--out", out],
            ["schmidt", "--grid-count", "64", "--out", out],
            ["jsa", "--grid-count", "64", "--out", out],
            ["chirp-scan", "--a-values", "0,1e5", "--grid-count", "64", "--out", out],
            ["preset", "a", "--grid-count", "128", "--resamples", "2",
             "--out", f"{out}/preset"],
            ["qpg", "map", "--count", "64", "--out", out],
            ["qpg", "project", "--rho", f"{out}/rho.json", "--mode-order", "0",
             "--out", out],
            ["qpg", "filter", "--weights", "0.8,0.2", "--filter-order", "0",
             "--out", out],
            ["tomo", "mubs", "-d", "3", "--out", out],
            ["tomo", "simulate", "--rho", f"{out}/rho.json", "--seed", "7", "--out", out],
            ["tomo", "reconstruct", "--counts", f"{out}/counts.csv", "--out", out],
            ["tomo", "bootstrap", "--counts", f"{out}/counts.csv", "--resamples", "2",
             "--seed", "7", "--out", out],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "import tmsim.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [tmsim.cli.main(argv) for argv in {steps!r}]\n"
            "print(json.dumps([codes, 'scipy' in sys.modules]))\n")
        assert json.loads(run_fresh(script)) == [[0] * len(steps), False]


class TestModuleEntryPoint:
    """``python -m tmsim`` runs the same ``main`` as the console script."""

    def run(self, monkeypatch, *argv):
        monkeypatch.setattr(sys, "argv", ["tmsim", *argv])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("tmsim", run_name="__main__", alter_sys=True)
        return exit_info.value.code

    def test_help(self, monkeypatch, capsys):
        assert self.run(monkeypatch, "--help") == 0
        assert capsys.readouterr().out.startswith("usage: tmsim")

    def test_subcommand(self, monkeypatch, tmp_path):
        assert self.run(monkeypatch, "tomo", "mubs", "-d", "3",
                        "--out", str(tmp_path)) == 0
        pset = json.loads((tmp_path / "projectors.json").read_text())
        assert len(pset["projectors"]) == 12
