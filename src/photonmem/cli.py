"""Command-line interface.

Subcommands::

    simulate   cavity release dynamics only (envelope CSV + metrics JSON)
    synth      homodyne frames only (binary frame file)
    estimate   frames file -> tomography report
    sweep      full pipeline: simulate + synth + estimate per storage time
    gate       run the acceptance suite and print a pass/fail table

Exit codes: 0 on success, 1 on stage failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ._blas import single_blas_thread
from ._version import __version__
from .cavity import simulate_release
from .config import ExperimentConfig, load_config
from .errors import PhotonMemError
from .fock import FockDiagonalState
from .gate import CRITERIA, run_gate
from .pipeline import (
    condition_lines,
    decay_lines,
    emit_figure_data,
    estimate_frames,
    json_text,
    release_files,
    run_sweep,
    tomography_fields,
    tomography_files,
    write_files,
)
from .synth import AdcSpec, load_frames, synth_to_file


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonmem",
        description="Storage-and-release single-photon simulator and homodyne estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="config file (INI); defaults are built in")
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    # only the commands that synthesise frames take a seed; estimate reads
    # its seed from the frame file
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="override the master seed")

    p = sub.add_parser("simulate", parents=[common], help="run the cavity release simulation")
    p.add_argument("--release", type=float, default=150.0, help="shutter opening time (ns)")

    p = sub.add_parser("synth", parents=[seeded], help="generate synthetic homodyne frames")
    # dest n_frames: a frame file has no MLE sample floor, so this count
    # does not go through the config's frames_per_condition
    p.add_argument("--frames", dest="n_frames", type=_positive_int, default=None, help="number of frames")
    p.add_argument("--purity", type=float, default=0.582, help="single-photon weight of the state")
    p.add_argument("--release", type=float, default=150.0, help="shutter opening time (ns)")
    p.add_argument("--adc-bits", type=int, default=None, help="ADC resolution in [2, 16] (default: [adc])")
    p.add_argument("--full-scale", type=float, default=None, help="ADC full scale (default: [adc])")

    p = sub.add_parser("estimate", parents=[common], help="estimate a state from a frame file")
    p.add_argument("frames_file", type=Path, help="binary frame file written by 'synth'")

    p = sub.add_parser("sweep", parents=[seeded], help="run the full storage-time sweep")
    p.add_argument("--frames", type=int, default=None, help="override frames per condition")

    p = sub.add_parser("gate", help="run the acceptance criteria")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.add_argument(
        "--criteria",
        type=int,
        nargs="*",
        default=None,
        choices=[index for index, _, _ in CRITERIA],
        help="subset of criterion numbers",
    )

    return parser


def _prepare(args) -> ExperimentConfig:
    """The config with the flags applied; also builds the command's inputs
    from its flags onto ``args``, so that a bad flag fails before any stage
    runs."""
    cfg = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "frames", None) is not None:
        cfg = replace(cfg, frames_per_condition=args.frames)
    if hasattr(args, "release"):
        args.schedule = cfg.schedule(args.release)
    if hasattr(args, "purity"):
        args.state = FockDiagonalState.two_level(args.purity)
    if hasattr(args, "adc_bits"):
        bits = cfg.adc.bits if args.adc_bits is None else args.adc_bits
        full_scale = cfg.adc.full_scale if args.full_scale is None else args.full_scale
        args.adc = AdcSpec(bits, full_scale)
    return cfg


def _cmd_simulate(args, cfg: ExperimentConfig) -> int:
    files = release_files(simulate_release(cfg.cavity, args.schedule))
    write_files(args.out, files)
    print(files["release_metrics.json"], end="")
    return 0


def _cmd_synth(args, cfg: ExperimentConfig) -> int:
    release = simulate_release(cfg.cavity, args.schedule)
    n_frames = cfg.frames_per_condition if args.n_frames is None else args.n_frames
    path = args.out / "frames.bin"
    synth_to_file(
        path,
        args.state,
        release.envelope,
        n_frames,
        cfg.master_seed,
        t0=cfg.window_start_ns,
        n_samples=cfg.n_samples,
        imperfections=cfg.imperfections,
        adc=args.adc,
    )
    print(f"wrote {n_frames} x {cfg.n_samples} frames to {path}")
    return 0


def _cmd_estimate(args, cfg: ExperimentConfig) -> int:
    with load_frames(args.frames_file) as fs:
        report = estimate_frames(fs, n_max=cfg.n_max, bootstrap_resamples=cfg.bootstrap_resamples)
    text = json_text({**tomography_fields(report), "n_frames": fs.n_frames})
    write_files(args.out, {"tomography.json": text, **tomography_files(report)})
    print(text, end="")
    return 0


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    report = run_sweep(cfg)
    emit_figure_data(report, args.out)
    print("\n".join(condition_lines(report) + decay_lines(report)))
    return 1 if report.failed else 0


def _cmd_gate(args, cfg: ExperimentConfig) -> int:
    results = run_gate(indices=args.criteria, out_json=args.out / "gate_results.json")
    return 0 if results and all(r.passed for r in results) else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "synth": _cmd_synth,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "gate": _cmd_gate,
}


@single_blas_thread()
def cli_entry(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        cfg = _prepare(args)
    except (OSError, ValueError) as exc:  # a config or flag error is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, cfg)
    except (PhotonMemError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_entry())


if __name__ == "__main__":
    main()
