"""Command-line front end.

Subcommands cover the pipeline stages (`jsa`, `schmidt`, `rho`), the pulse
gate (`qpg map|project|filter`), tomography (`tomo mubs|simulate|
reconstruct|bootstrap`), the four source presets and the chirp scan.  A
run's configuration is layered: the preset case or recorded manifest (the
defaults for other subcommands), then a JSON config file, then kebab-case
flags overriding individual fields.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import presets, serialize
from .errors import IllPosedError, InvalidArgumentError, ToolkitError
from .pdc import (
    g2_from_purity,
    reduced_density_matrix,
    schmidt_decompose,
    schmidt_purity,
)
from .qpg import (
    FilterSpec,
    GateSpec,
    SelectivityModel,
    apply_mode_filter,
    build_mapping,
    project_probability,
    separability_report,
)
from .serialize import write_text
from .tomography import (
    MLEConfig,
    mle_reconstruct,
    monte_carlo_errors,
    mub_bases,
    simulate_counts,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _add_config_flags(parser: argparse.ArgumentParser, chirp: bool = True) -> None:
    """The flags that override configuration fields.  ``chirp=False`` leaves
    out ``--chirp-fs2`` for a command that sets the chirp itself."""
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--pump-shape-order", type=int, dest="pump.shape_order")
    parser.add_argument("--pump-center-nm", type=float, dest="pump.center_nm")
    parser.add_argument("--pump-fwhm-nm", type=float, dest="pump.fwhm_nm")
    if chirp:
        parser.add_argument("--chirp-fs2", type=float, dest="pump.chirp_fs2")
    parser.add_argument("--pm-angle-deg", type=float, dest="phasematching.angle_deg")
    parser.add_argument("--pm-width", type=float,
                        dest="phasematching.width_rad_per_fs")
    parser.add_argument("--pm-shape", choices=("gaussian", "sinc"),
                        dest="phasematching.shape")
    parser.add_argument("-d", "--basis-dimension", type=int, dest="basis.dimension")
    parser.add_argument("--basis-width", type=float, dest="basis.width_rad_per_fs")
    parser.add_argument("--crosstalk", type=float, dest="qpg.crosstalk")
    parser.add_argument("--filter-efficiency", type=float,
                        dest="qpg.filter_efficiency")
    parser.add_argument("--flux", type=float, dest="tomography.flux")
    parser.add_argument("--background", type=float, dest="tomography.background")
    parser.add_argument("--seed", type=int, dest="tomography.seed")
    parser.add_argument("--resamples", type=int, dest="tomography.resamples")
    parser.add_argument("--grid-count", type=int, dest="grid.count")
    parser.add_argument("--signal-center-nm", type=float,
                        dest="grid.signal_center_nm")


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory")


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    for key, value in vars(args).items():
        if "." not in key or value is None:
            continue
        section, name = key.split(".", 1)
        overrides.setdefault(section, {})[name] = value
    return overrides


def _resolve_config(args: argparse.Namespace,
                    base: presets.ExperimentConfig | None = None
                    ) -> presets.ExperimentConfig:
    """Layer the --config file, then the flags, over ``base`` (the defaults
    if None); each layer must leave a valid configuration."""
    config = presets.ExperimentConfig() if base is None else base
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = presets.merge_overrides(config, json.load(fh))
    return presets.merge_overrides(config, _overrides_from_args(args))


def _parse_list(text: str, kind=float) -> list:
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"cannot parse {kind.__name__} list {text!r}: {exc}")


def _mode_vector(order, coeffs, dimension: int) -> np.ndarray:
    if (order is None) == (coeffs is None):
        raise InvalidArgumentError(
            "specify exactly one of a basis order or explicit coefficients")
    if order is not None:
        if not 0 <= order < dimension:
            raise InvalidArgumentError(
                f"mode order {order} outside basis of dimension {dimension}")
        vec = np.zeros(dimension, dtype=complex)
        vec[order] = 1.0
        return vec
    return np.array(_parse_list(coeffs, complex))


def _selectivity_from_args(args: argparse.Namespace) -> SelectivityModel:
    falloff = _parse_list(args.falloff) if args.falloff else None
    return SelectivityModel(crosstalk=args.crosstalk_value or 0.0,
                            per_order_falloff=falloff)


def _load_density(path: str):
    with open(path, encoding="utf-8") as fh:
        return serialize.density_from_dict(json.load(fh))


# --- subcommand handlers ----------------------------------------------------

def _cmd_jsa(args) -> int:
    config = _resolve_config(args)
    jsa = presets.build_state(config)
    out = Path(args.out)
    serialize.write_jsa(jsa, out)
    print(f"wrote joint amplitude ({config.grid.count}x{config.grid.count}) to {out}")
    return EXIT_OK


def _cmd_schmidt(args) -> int:
    config = _resolve_config(args)
    jsa = presets.build_state(config)
    dec = schmidt_decompose(jsa, max_modes=args.max_modes)
    purity = schmidt_purity(jsa)
    payload = dict(serialize.schmidt_to_dict(dec),
                   purity=purity, g2=g2_from_purity(purity))
    write_text(Path(args.out) / "schmidt.json", serialize.dump_json(payload))
    print(f"purity {purity:.6f}, dominant weight {dec.separability:.6f}")
    return EXIT_OK


def _cmd_rho(args) -> int:
    config = _resolve_config(args)
    jsa = presets.build_state(config)
    basis = presets.tomography_basis(config)
    rho = reduced_density_matrix(jsa, basis, config.basis.dimension)
    write_text(Path(args.out) / "rho.json",
               serialize.dump_json(serialize.density_to_dict(rho)))
    print(f"reduced state purity {rho.purity():.6f}, leakage {rho.leakage:.3e}")
    return EXIT_OK


def _cmd_qpg_map(args) -> int:
    gate = GateSpec(args.input_center_nm, args.input_fwhm_nm, args.qpg_pump_center_nm,
                    args.qpg_pump_fwhm_nm, args.qpg_pump_shape_order,
                    args.output_fwhm_nm, args.count)
    xi = build_mapping(*gate.inputs(), group_velocity_mismatch=args.skew)
    report = separability_report(xi)
    out = Path(args.out)
    write_text(out / "mapping.csv", serialize.mapping_csv_chunks(xi))
    write_text(out / "separability.json",
               serialize.dump_json(serialize.selectivity_report_to_dict(report)))
    print(f"separability {report.separability:.6f}")
    return EXIT_OK


def _cmd_qpg_project(args) -> int:
    rho = _load_density(args.rho)
    mode = _mode_vector(args.mode_order, args.mode_coeffs, rho.dimension)
    sel = _selectivity_from_args(args)
    p = project_probability(rho, mode, sel)
    write_text(Path(args.out) / "projection.json",
               serialize.dump_json({"probability": p}))
    print(f"projection probability {p:.6f}")
    return EXIT_OK


def _cmd_qpg_filter(args) -> int:
    # apply_mode_filter rejects negative weights and renormalizes both arms
    weights = np.array(_parse_list(args.weights))
    dimension = weights.size
    mode = _mode_vector(args.filter_order, args.filter_coeffs, dimension)
    result = apply_mode_filter(weights, np.eye(dimension, dtype=complex),
                               FilterSpec(mode=mode, efficiency=args.efficiency))
    write_text(Path(args.out) / "filter.json",
               serialize.dump_json(serialize.filter_result_to_dict(result)))
    print(f"transmitted g2 {result.transmitted_g2:.6f}, "
          f"upconverted g2 {result.upconverted_g2:.6f}")
    return EXIT_OK


def _cmd_tomo_mubs(args) -> int:
    pset = mub_bases(args.dimension)
    write_text(Path(args.out) / "projectors.json",
               serialize.dump_json(serialize.projector_set_to_dict(pset)))
    print(f"{args.dimension + 1} bases, {len(pset.projectors)} projectors")
    return EXIT_OK


def _cmd_tomo_simulate(args) -> int:
    rho = _load_density(args.rho)
    pset = mub_bases(rho.dimension)
    sel = _selectivity_from_args(args)
    records = simulate_counts(rho, pset, sel, flux=args.flux,
                              background=args.background, seed=args.seed)
    out = Path(args.out)
    write_text(out / "counts.csv", serialize.count_records_to_csv(records))
    write_text(out / "counts.json",
               serialize.dump_json(serialize.count_records_to_dict(records)))
    print(f"simulated {len(records)} projector counts "
          f"(total {sum(r.counts for r in records)})")
    return EXIT_OK


def _exit_code(converged: bool) -> int:
    """EXIT_OK after a converged maximum-likelihood fit, else a note on
    stderr and EXIT_NUMERICAL; the caller has written its outputs."""
    if converged:
        return EXIT_OK
    print("numerical failure: the maximum-likelihood estimate did not converge",
          file=sys.stderr)
    return EXIT_NUMERICAL


def _mle_config_from_args(args) -> MLEConfig:
    return MLEConfig(max_iterations=args.max_iterations,
                     tolerance=args.tolerance)


def _load_counts(path: str):
    """The count records of a CSV file and the mutually unbiased projectors
    of the dimension d they label: one plus the largest element index.

    A file with fewer than d^2 records is refused before the projectors are
    built: such a set cannot span the d^2 Hermitian directions, and a stray
    label must not make `mub_bases` build its d^3 array."""
    records = serialize.count_records_from_csv(
        Path(path).read_text(encoding="utf-8"))
    if not records:
        raise InvalidArgumentError("no count records supplied")
    top = max(records, key=lambda rec: rec.element_index)
    d = top.element_index + 1
    if len(records) < d * d:
        raise InvalidArgumentError(
            f"element index {top.element_index} of record ({top.basis_index}, "
            f"{top.element_index}) sets d = {d}, but {len(records)} records "
            f"cannot span the d^2 = {d * d} Hermitian directions")
    return records, mub_bases(d)


def _cmd_tomo_reconstruct(args) -> int:
    records, pset = _load_counts(args.counts)
    result = mle_reconstruct(records, pset, _mle_config_from_args(args),
                             subtract_background=args.subtract_background)
    out = Path(args.out)
    write_text(out / "rho_hat.json",
               serialize.dump_json(serialize.density_to_dict(result.rho_hat)))
    write_text(out / "reconstruction_log.json",
               serialize.dump_json(serialize.reconstruction_log_to_dict(result)))
    print(f"purity {result.rho_hat.purity():.6f} after {result.iterations} "
          f"iterations (converged: {result.converged})")
    return _exit_code(result.converged)


def _cmd_tomo_bootstrap(args) -> int:
    records, pset = _load_counts(args.counts)
    errors = monte_carlo_errors(records, pset, _mle_config_from_args(args),
                                resamples=args.resamples, seed=args.seed)
    write_text(Path(args.out) / "bootstrap.json", serialize.dump_json({
        "purity_mean": errors.purity_mean,
        "purity_std": errors.purity_std,
        "fidelity_std": errors.fidelity_std,
        "nonconverged_resamples": errors.nonconverged,
        "worst_resample_certificate": errors.worst_certificate,
    }))
    print(f"purity {errors.purity_mean:.6f} +- {errors.purity_std:.6f}")
    return _exit_code(errors.baseline.converged)


def _cmd_preset(args) -> int:
    if args.case and args.from_manifest:
        raise InvalidArgumentError("give a preset case or --from-manifest, not both")
    if args.from_manifest:
        case, base = presets.load_manifest(args.from_manifest)
    elif args.case:
        case, base = args.case, presets.preset_config(args.case)
    else:
        raise InvalidArgumentError(
            "preset needs a case (a, b, c or d) or --from-manifest")
    summary = presets.run_preset(case, _resolve_config(args, base),
                                 output_dir=args.out)
    print(f"case {summary['case']}: SVD purity {summary['svd_purity']:.4f}, "
          f"reconstructed {summary['reconstructed_purity']:.4f} "
          f"+- {summary['purity_std']:.4f}")
    return _exit_code(summary["converged"])


def _cmd_chirp_scan(args) -> int:
    config = _resolve_config(args)
    values = _parse_list(args.a_values)
    rows = presets.chirp_scan(values, config,
                              background_fraction=args.background_fraction)
    write_text(Path(args.out) / "chirp_scan.csv", presets.chirp_scan_csv(rows))
    print(f"scanned {len(rows)} chirp values")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmsim",
        description="Temporal-mode pair-source simulation, pulse-gate "
                    "modelling and state tomography.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_jsa = sub.add_parser("jsa", help="build and export the joint amplitude")
    _add_config_flags(p_jsa)
    _add_out_flag(p_jsa)
    p_jsa.set_defaults(handler=_cmd_jsa)

    p_schmidt = sub.add_parser("schmidt", help="mode weights of the source")
    _add_config_flags(p_schmidt)
    _add_out_flag(p_schmidt)
    p_schmidt.add_argument("--max-modes", type=int, default=20)
    p_schmidt.set_defaults(handler=_cmd_schmidt)

    p_rho = sub.add_parser("rho", help="reduced state in the mode basis")
    _add_config_flags(p_rho)
    _add_out_flag(p_rho)
    p_rho.set_defaults(handler=_cmd_rho)

    p_qpg = sub.add_parser("qpg", help="pulse-gate operations")
    qpg_sub = p_qpg.add_subparsers(dest="qpg_command", required=True)

    p_map = qpg_sub.add_parser("map", help="mapping function and separability")
    p_map.add_argument("--input-center-nm", type=float, default=GateSpec.input_center_nm)
    p_map.add_argument("--input-fwhm-nm", type=float, default=GateSpec.input_fwhm_nm)
    p_map.add_argument("--qpg-pump-center-nm", type=float,
                       default=GateSpec.qpg_pump_center_nm)
    p_map.add_argument("--qpg-pump-fwhm-nm", type=float, default=GateSpec.qpg_pump_fwhm_nm)
    p_map.add_argument("--qpg-pump-shape-order", type=int,
                       default=GateSpec.qpg_pump_shape_order)
    p_map.add_argument("--output-fwhm-nm", type=float, default=GateSpec.output_fwhm_nm)
    p_map.add_argument("--skew", type=float, default=0.0)
    p_map.add_argument("--count", type=int, default=GateSpec.count)
    _add_out_flag(p_map)
    p_map.set_defaults(handler=_cmd_qpg_map)

    p_project = qpg_sub.add_parser("project", help="projection probability")
    p_project.add_argument("--rho", required=True, help="density matrix JSON")
    p_project.add_argument("--mode-order", type=int)
    p_project.add_argument("--mode-coeffs")
    p_project.add_argument("--crosstalk", type=float, dest="crosstalk_value")
    p_project.add_argument("--falloff", help="comma-separated per-order factors")
    _add_out_flag(p_project)
    p_project.set_defaults(handler=_cmd_qpg_project)

    p_filter = qpg_sub.add_parser("filter", help="add-drop mode filtering")
    p_filter.add_argument("--weights", required=True,
                          help="comma-separated mixture weights")
    p_filter.add_argument("--filter-order", type=int)
    p_filter.add_argument("--filter-coeffs")
    p_filter.add_argument("--efficiency", type=float,
                          default=presets.QpgConfig.filter_efficiency)
    _add_out_flag(p_filter)
    p_filter.set_defaults(handler=_cmd_qpg_filter)

    p_tomo = sub.add_parser("tomo", help="tomography operations")
    tomo_sub = p_tomo.add_subparsers(dest="tomo_command", required=True)
    basis_defaults, tomo_defaults = presets.BasisConfig, presets.TomographyConfig

    p_mubs = tomo_sub.add_parser("mubs", help="mutually unbiased projector set")
    p_mubs.add_argument("-d", "--dimension", type=int, default=basis_defaults.dimension)
    _add_out_flag(p_mubs)
    p_mubs.set_defaults(handler=_cmd_tomo_mubs)

    p_sim = tomo_sub.add_parser("simulate", help="Poissonian count simulation")
    p_sim.add_argument("--rho", required=True, help="density matrix JSON")
    p_sim.add_argument("--flux", type=float, default=tomo_defaults.flux)
    p_sim.add_argument("--background", type=float, default=tomo_defaults.background)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--crosstalk", type=float, dest="crosstalk_value")
    p_sim.add_argument("--falloff")
    _add_out_flag(p_sim)
    p_sim.set_defaults(handler=_cmd_tomo_simulate)

    def add_mle_flags(p):
        p.add_argument("--max-iterations", type=int, default=MLEConfig.max_iterations)
        p.add_argument("--tolerance", type=float, default=MLEConfig.tolerance,
                       help="largest accepted certificate lambda_max(R) - 1")

    p_rec = tomo_sub.add_parser("reconstruct", help="maximum-likelihood estimate")
    p_rec.add_argument("--counts", required=True, help="count record CSV")
    p_rec.add_argument("--subtract-background", type=float, default=0.0)
    add_mle_flags(p_rec)
    _add_out_flag(p_rec)
    p_rec.set_defaults(handler=_cmd_tomo_reconstruct)

    p_boot = tomo_sub.add_parser("bootstrap", help="Monte Carlo error bars")
    p_boot.add_argument("--counts", required=True, help="count record CSV")
    p_boot.add_argument("--resamples", type=int, default=tomo_defaults.resamples)
    p_boot.add_argument("--seed", type=int, default=0)
    add_mle_flags(p_boot)
    _add_out_flag(p_boot)
    p_boot.set_defaults(handler=_cmd_tomo_bootstrap)

    p_preset = sub.add_parser("preset", help="run one of the source presets a-d")
    p_preset.add_argument("case", nargs="?", choices=("a", "b", "c", "d"))
    p_preset.add_argument("--from-manifest", help="re-run a recorded manifest")
    _add_config_flags(p_preset)
    _add_out_flag(p_preset)
    p_preset.set_defaults(handler=_cmd_preset)

    p_scan = sub.add_parser("chirp-scan", help="purity and g2 versus pump chirp")
    p_scan.add_argument("--a-values", required=True,
                        help="comma-separated chirps in fs^2")
    p_scan.add_argument("--background-fraction", type=float, default=0.04)
    _add_config_flags(p_scan, chirp=False)
    _add_out_flag(p_scan)
    p_scan.set_defaults(handler=_cmd_chirp_scan)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call rather than at
    import.  Parsing leaves no state in it: each call gets a fresh
    namespace filled from the defaults."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except IllPosedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InvalidArgumentError, ToolkitError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
