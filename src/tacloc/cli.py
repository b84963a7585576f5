"""Command-line front end.

Subcommands cover the full pipeline: `simulate` renders a scenario to a
marker log, `register` recovers the motion sequence from a log, `estimate`
produces a contact report from a log, and `roundtrip` runs
simulate -> register -> estimate through actual files and checks the result
against the scenario's ground truth at the tolerances the scenario states.

Exit codes: 0 success, 1 roundtrip estimate out of tolerance, 2 usage
error, 3 unreadable or invalid input file, 4 estimation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .contact import ContactKind
from .errors import (InvalidSchedule, NonFiniteValue, ParseError,
                     SchemaVersionMismatch, TaclocError)
from .estimators import (EstimatorConfig, estimate_fixed_direction,
                         estimate_fixed_point, estimate_line_contact,
                         fixed_direction_residuals, fixed_point_residuals,
                         line_contact_residuals)
from .io import (EstimateReport, MarkerLog, read_marker_log, read_report,
                 read_scenario, read_truth, sha256_of_file,
                 write_marker_log, write_motion_sequence, write_report,
                 write_truth)
from .motion import MotionSequence, RelativeMotion
from .registration import register, register_sequence
from .simulate import (EdgeContact, FixedDirectionContact, FixedPointContact,
                       generate)

EXIT_OK = 0
EXIT_OUT_OF_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_ESTIMATION = 4


def _vector3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z — got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = EstimatorConfig()
    parser.add_argument("--angle-threshold", type=float, default=defaults.angle_threshold,
                        help="max rotation angle (rad) below which the estimate is "
                             f"flagged ill-posed (default {defaults.angle_threshold})")
    parser.add_argument("--cond-threshold", type=float, default=defaults.cond_threshold,
                        help=f"condition number limit (default {defaults.cond_threshold:g})")
    parser.add_argument("--rank-tolerance", type=float, default=defaults.rank_tolerance,
                        help="relative singular value cutoff "
                             f"(default {defaults.rank_tolerance:g})")
    parser.add_argument("--min-frames", type=int, default=defaults.min_frames,
                        help=f"minimum moving frames required (default {defaults.min_frames})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tacloc",
        description="Contact localization from tactile marker motion.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render a scenario file to a marker log")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--out", required=True, help="marker log to write")
    p_sim.add_argument("--truth", help="also write the ground-truth sidecar here")

    p_reg = sub.add_parser("register", help="recover per-frame motions from a marker log")
    p_reg.add_argument("--log", required=True, help="marker log JSON file")
    p_reg.add_argument("--out", required=True, help="motion sequence to write")

    p_est = sub.add_parser("estimate", help="estimate the contact from a marker log")
    p_est.add_argument("--type", required=True, choices=["point", "direction", "line"],
                       help="contact model to fit")
    p_est.add_argument("--log", required=True, help="marker log JSON file")
    p_est.add_argument("--out", required=True, help="estimate report to write")
    p_est.add_argument("--n0", type=_vector3, metavar="X,Y,Z",
                       help="contacting face normal at frame 0 (required for --type line)")
    p_est.add_argument("--strict", action="store_true",
                       help="fail (exit 4) instead of reporting an ill-conditioned fit")
    _add_config_flags(p_est)

    p_rt = sub.add_parser("roundtrip",
                          help="simulate, register and estimate through files, then "
                               "check the estimate against the scenario truth")
    p_rt.add_argument("--scenario", required=True, help="scenario JSON file")
    p_rt.add_argument("--workdir", help="keep intermediate files here instead of a temp dir")
    _add_config_flags(p_rt)

    return parser


def _cmd_simulate(args) -> int:
    config = read_scenario(args.scenario)
    frames, truth = generate(config)
    write_marker_log(args.out, MarkerLog(tuple(frames), units=config.units))
    if args.truth:
        write_truth(args.truth, truth, units=config.units)
    print(f"wrote {len(frames)} frames of {frames[0].marker_count} markers to {args.out}")
    return EXIT_OK


def _cmd_register(args) -> int:
    log = read_marker_log(args.log)
    results = [register(log.frames[0], frame) for frame in log.frames[1:]]
    motions = MotionSequence((RelativeMotion.identity(log.frames[0].frame_index),
                              *(r.motion for r in results)))
    rms = [0.0] + [r.rms_error for r in results]
    write_motion_sequence(args.out, motions, units=log.units, rms_errors=rms)
    worst = max(rms)
    print(f"registered {len(log)} frames; worst fit rms {worst:.3g} {log.units}")
    return EXIT_OK


def _estimate_from_log(log: MarkerLog, kind: str, n0, config: EstimatorConfig, strict: bool):
    motions = register_sequence(log.frames)
    if kind == "point":
        estimate = estimate_fixed_point(motions, config, strict=strict)
        residuals = fixed_point_residuals(motions, estimate.point)
    elif kind == "direction":
        estimate = estimate_fixed_direction(motions, config, strict=strict)
        residuals = fixed_direction_residuals(motions, estimate.direction)
    else:
        estimate = estimate_line_contact(motions, n0, config, strict=strict)
        residuals = line_contact_residuals(motions, n0, estimate.point)
    return estimate, residuals


def _config_from_args(args) -> EstimatorConfig:
    return EstimatorConfig(angle_threshold=args.angle_threshold,
                           cond_threshold=args.cond_threshold,
                           rank_tolerance=args.rank_tolerance,
                           min_frames=args.min_frames)


def _describe(estimate) -> str:
    cond = estimate.conditioning
    parts = [estimate.kind.value]
    if estimate.point is not None:
        parts.append("point [" + ", ".join(f"{v:.6g}" for v in estimate.point) + "]")
    if estimate.direction is not None:
        parts.append("direction [" + ", ".join(f"{v:.6g}" for v in estimate.direction) + "]")
    parts.append(f"residual rms {estimate.residual_rms:.3g}")
    parts.append("well-posed" if cond.well_posed else "ILL-POSED")
    return "; ".join(parts)


def _cmd_estimate(args, parser: argparse.ArgumentParser) -> int:
    if args.type == "line":
        if args.n0 is None:
            parser.error("--type line requires --n0")
        norm = float(np.linalg.norm(args.n0))
        if norm == 0.0:
            parser.error("--n0 must be nonzero")
        args.n0 = args.n0 / norm
    log = read_marker_log(args.log)
    config = _config_from_args(args)
    estimate, residuals = _estimate_from_log(log, args.type, args.n0, config, args.strict)
    provenance = {"input_sha256": sha256_of_file(args.log),
                  "tool_version": __version__,
                  "frame_count": len(log)}
    write_report(args.out, EstimateReport(estimate=estimate, per_frame_residuals=residuals,
                                          config=config, provenance=provenance))
    print(_describe(estimate))
    return EXIT_OK


def _angle_between(a, b) -> float:
    """Angle between two directions, ignoring sign, in radians."""
    return math.acos(min(1.0, abs(float(np.dot(a, b)))))


def _roundtrip_checks(estimate, truth_contact, tolerances: dict):
    """Yield (label, measured, allowed) triples for the scenario's tolerance keys."""
    if isinstance(truth_contact, FixedPointContact):
        yield ("pivot distance", float(np.linalg.norm(estimate.point - truth_contact.point)),
               tolerances["point_distance"])
    elif isinstance(truth_contact, FixedDirectionContact):
        yield ("direction angle", _angle_between(estimate.direction, truth_contact.direction),
               tolerances["direction_angle"])
    else:
        yield ("edge direction angle",
               _angle_between(estimate.direction, truth_contact.direction),
               tolerances["direction_angle"])
        offset = estimate.point - truth_contact.point
        off_edge = offset - (offset @ truth_contact.direction) * truth_contact.direction
        yield ("point-to-edge distance", float(np.linalg.norm(off_edge)),
               tolerances["point_distance"])


def _cmd_roundtrip(args, parser: argparse.ArgumentParser) -> int:
    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="tacloc-roundtrip-")
        workdir = Path(cleanup.name)
    try:
        config = read_scenario(args.scenario)
        log_path = workdir / "markers.json"
        truth_path = workdir / "truth.json"
        motions_path = workdir / "motions.json"
        report_path = workdir / "report.json"

        code = main(["simulate", "--scenario", str(args.scenario),
                     "--out", str(log_path), "--truth", str(truth_path)])
        if code != EXIT_OK:
            return code
        code = main(["register", "--log", str(log_path), "--out", str(motions_path)])
        if code != EXIT_OK:
            return code

        if isinstance(config.contact, FixedPointContact):
            est_args = ["--type", "point"]
        elif isinstance(config.contact, FixedDirectionContact):
            est_args = ["--type", "direction"]
        else:
            n0 = config.contact.surface_normal
            # the = form keeps a leading minus sign from looking like a flag
            est_args = ["--type", "line", "--n0=" + ",".join(f"{v:.17g}" for v in n0)]
        code = main(["estimate", *est_args, "--log", str(log_path),
                     "--out", str(report_path),
                     "--angle-threshold", str(args.angle_threshold),
                     "--cond-threshold", str(args.cond_threshold),
                     "--rank-tolerance", str(args.rank_tolerance),
                     "--min-frames", str(args.min_frames)])
        if code != EXIT_OK:
            return code

        report = read_report(report_path)
        truth = read_truth(truth_path)
        name = config.name or Path(args.scenario).stem
        failed = False
        for label, measured, allowed in _roundtrip_checks(report.estimate,
                                                          truth.contact_geometry,
                                                          config.tolerances):
            ok = measured <= allowed
            failed = failed or not ok
            print(f"roundtrip {name}: {label} {measured:.3g} <= {allowed:.3g} "
                  f"[{'ok' if ok else 'FAIL'}]")
        print(f"roundtrip {name}: {'FAIL' if failed else 'PASS'}")
        return EXIT_OUT_OF_TOLERANCE if failed else EXIT_OK
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "register":
            return _cmd_register(args)
        if args.command == "estimate":
            return _cmd_estimate(args, parser)
        return _cmd_roundtrip(args, parser)
    except (ParseError, SchemaVersionMismatch, NonFiniteValue, InvalidSchedule) as err:
        loc = ""
        if isinstance(err, ParseError) and err.line is not None:
            loc = f" (line {err.line}, column {err.column})"
        print(f"tacloc: invalid input: {err}{loc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as err:
        print(f"tacloc: cannot read or write file: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except TaclocError as err:
        print(f"tacloc: estimation failed: {err}", file=sys.stderr)
        return EXIT_ESTIMATION
    except ValueError as err:
        print(f"tacloc: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
