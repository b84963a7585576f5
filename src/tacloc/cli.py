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
import dataclasses
import math
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .contact import ContactKind
from .errors import (InvalidSchedule, NonFiniteValue, ParseError,
                     SchemaVersionMismatch, TaclocError)
from .estimators import (EstimatorConfig, estimate_fixed_direction,
                         estimate_fixed_point, estimate_line_contact)
from .estimators import fixed_point_residuals  # noqa: F401  bench/tests trace it by this name
from .io import (EstimateReport, read_marker_log, read_report, read_scenario,
                 sha256_of_file, write_marker_log, write_motion_sequence,
                 write_report, write_truth)
from .motion import MarkerLog, MotionSequence, _row_norms, _unit
from .registration import register_sequence
from .simulate import generate

EXIT_OK = 0
EXIT_OUT_OF_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_ESTIMATION = 4

# `estimate --type` value -> the contact kind it fits
TYPES = {"point": ContactKind.FIXED_POINT, "direction": ContactKind.FIXED_DIRECTION,
         "line": ContactKind.LINE}


# contact kind -> its estimator, called as (motions, n0, config, strict), where
# n0 is the contacting face normal at frame 0 (line contact only)
ESTIMATORS = {
    ContactKind.FIXED_POINT: lambda m, n0, c, strict: estimate_fixed_point(m, c, strict),
    ContactKind.FIXED_DIRECTION: lambda m, n0, c, strict: estimate_fixed_direction(m, c, strict),
    ContactKind.LINE: lambda m, n0, c, strict: estimate_line_contact(m, _unit(n0, "n0"), c, strict),
}


def _vector3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z — got {text!r}")
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if not np.isfinite(vec).all():
        raise argparse.ArgumentTypeError(f"expected finite x,y,z — got {text!r}")
    return vec


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(EstimatorConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            default=f.default, help=f"{f.metadata['help']} (default {f.default:g})")


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
    p_est.add_argument("--type", required=True, choices=list(TYPES),
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


def _simulate(config, log_path, truth_path) -> None:
    """Write the scenario's marker log, and its truth when truth_path is set."""
    log, truth = generate(config)
    write_marker_log(log_path, log)
    if truth_path:
        write_truth(truth_path, truth)
    print(f"wrote {len(log)} frames of {log[0].marker_count} markers to {log_path}")


def _register(log: MarkerLog, out) -> MotionSequence:
    """Register the log once, write the motions with their fit RMS, return them."""
    motions = register_sequence(log)
    write_motion_sequence(out, motions)
    print(f"registered {len(log)} frames; worst fit rms {max(motions.rms_errors):.3g} {log.units}")
    return motions


def _estimate(motions: MotionSequence, kind: ContactKind, n0, config: EstimatorConfig,
              strict: bool, log_path, out) -> None:
    """Estimate the contact from the motions registered from log_path and write the report."""
    estimate = ESTIMATORS[kind](motions, n0, config, strict)
    provenance = {"input_sha256": sha256_of_file(log_path), "tool_version": __version__,
                  "frame_count": len(motions)}
    write_report(out, EstimateReport(estimate=estimate, config=config, provenance=provenance))
    print(_describe(estimate))


def _config_from_args(args) -> EstimatorConfig:
    return EstimatorConfig(**{f.name: getattr(args, f.name)
                              for f in dataclasses.fields(EstimatorConfig)})


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


def _cmd_estimate(args, parser: argparse.ArgumentParser) -> None:
    kind = TYPES[args.type]
    if kind is ContactKind.LINE:
        if args.n0 is None:
            parser.error("--type line requires --n0")
        if not args.n0.any():
            parser.error("--n0 must be nonzero")
    config = _config_from_args(args)  # a usage error comes before reading the log
    motions = register_sequence(read_marker_log(args.log))
    _estimate(motions, kind, args.n0, config, args.strict, args.log, args.out)


def _direction_angle(estimate, truth) -> float:
    """Angle between the estimated and true directions, ignoring sign, in radians."""
    return math.acos(min(1.0, abs(float(np.dot(estimate.direction, truth.direction)))))


def _point_distance(estimate, truth) -> float:
    return float(_row_norms((estimate.point - truth.point)[None])[0])


def _off_edge_distance(estimate, truth) -> float:
    """Distance from the estimated point to the true edge line."""
    offset = estimate.point - truth.point
    return float(_row_norms((offset - (offset @ truth.direction) * truth.direction)[None])[0])


# contact kind -> roundtrip's checks of an estimate against the scenario's truth
# contact: (label, tolerance key the scenario must state, error(estimate, truth))
CHECKS = {
    ContactKind.FIXED_POINT: [("pivot distance", "point_distance", _point_distance)],
    ContactKind.FIXED_DIRECTION: [("direction angle", "direction_angle", _direction_angle)],
    ContactKind.LINE: [("edge direction angle", "direction_angle", _direction_angle),
                       ("point-to-edge distance", "point_distance", _off_edge_distance)],
}


def _cmd_roundtrip(args) -> int:
    estimator_config = _config_from_args(args)
    with (nullcontext(args.workdir) if args.workdir
          else tempfile.TemporaryDirectory(prefix="tacloc-roundtrip-")) as workdir:
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        config = read_scenario(args.scenario)
        checks = CHECKS[config.contact.kind]
        missing = [key for _, key, _ in checks if key not in config.tolerances]
        if missing:
            raise ParseError(f"scenario tolerances are missing {missing[0]!r}")
        log_path = workdir / "markers.json"
        report_path = workdir / "report.json"
        _simulate(config, log_path, workdir / "truth.json")
        motions = _register(read_marker_log(log_path), workdir / "motions.json")
        _estimate(motions, config.contact.kind, getattr(config.contact, "surface_normal", None),
                  estimator_config, False, log_path, report_path)

        estimate = read_report(report_path).estimate
        name = config.name or Path(args.scenario).stem
        failed = False
        for label, key, error in checks:
            measured, allowed = error(estimate, config.contact), config.tolerances[key]
            ok = measured <= allowed
            failed = failed or not ok
            print(f"roundtrip {name}: {label} {measured:.3g} <= {allowed:.3g} "
                  f"[{'ok' if ok else 'FAIL'}]")
        print(f"roundtrip {name}: {'FAIL' if failed else 'PASS'}")
        return EXIT_OUT_OF_TOLERANCE if failed else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            _simulate(read_scenario(args.scenario), args.out, args.truth)
        elif args.command == "register":
            _register(read_marker_log(args.log), args.out)
        elif args.command == "estimate":
            _cmd_estimate(args, parser)
        else:
            return _cmd_roundtrip(args)
        return EXIT_OK
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
