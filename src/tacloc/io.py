"""File formats: marker logs, motion sequences, scenarios, truth, reports.

Everything is JSON with a "schema" tag. Writing is deterministic — the same
data always produces the same bytes — so logs can be diffed and hashed.
Floats are written with 17 significant digits, which round-trips every
double exactly; write -> read -> write is byte-identical.

An infinite condition number is stored as null (JSON has no Infinity) and
restored to inf on read.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .contact import ConditioningReport, ContactEstimate, ContactKind
from .errors import NonFiniteValue, ParseError, SchemaVersionMismatch
from .estimators import EstimatorConfig
from .motion import MarkerFrame, MotionSequence, RelativeMotion
from .simulate import (EdgeContact, FixedDirectionContact, FixedPointContact,
                       MarkerGrid, MotionStep, ScenarioConfig, ScenarioTruth)

MARKER_LOG_SCHEMA = "tacloc.marker_log/1"
MOTIONS_SCHEMA = "tacloc.motions/1"
SCENARIO_SCHEMA = "tacloc.scenario/1"
TRUTH_SCHEMA = "tacloc.truth/1"
REPORT_SCHEMA = "tacloc.report/1"


@dataclass(frozen=True, eq=False)
class MarkerLog:
    """A recording: marker frames 0..N-1 with constant marker count."""

    frames: tuple
    units: str = "mm"

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("marker log needs at least one frame")
        counts = {f.marker_count for f in frames}
        indices = [f.frame_index for f in frames]
        if indices != list(range(len(frames))):
            raise ValueError(f"frame indices must be dense from 0, got {indices}")
        if len(counts) != 1:
            raise ValueError(f"marker count must be constant, got {sorted(counts)}")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """An estimate plus everything needed to audit it."""

    estimate: ContactEstimate
    config: EstimatorConfig
    provenance: dict

    def __post_init__(self):
        object.__setattr__(self, "provenance", dict(self.provenance))


# ---------------------------------------------------------------------------
# Deterministic JSON emitter.

_INDENT = "  "


def _emit_float_array(arr: np.ndarray, depth: int) -> str:
    """One non-empty 1-D or 2-D float array, laid out exactly as _emit would.

    Formatting the whole array with one format string avoids a Python call
    per element, which dominates writing a large marker log.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        # boolean indexing walks in row-major order: the first one _emit would meet
        raise NonFiniteValue(f"cannot serialize {float(arr[~finite][0])!r}")
    text = "[" + ", ".join(["%.17g"] * arr.shape[-1]) + "]"
    if arr.ndim == 2:
        pad = _INDENT * (depth + 1)
        text = "[\n" + ",\n".join([pad + text] * arr.shape[0]) + "\n" + _INDENT * depth + "]"
    return text % tuple(arr.ravel().tolist())


def _emit(value, depth: int) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteValue(f"cannot serialize {value!r}")
        return format(value, ".17g")
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.size and value.ndim in (1, 2):
            return _emit_float_array(value, depth)
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = _INDENT * (depth + 1)
        body = ",\n".join(f"{pad}{json.dumps(str(k))}: {_emit(v, depth + 1)}"
                          for k, v in value.items())
        return "{\n" + body + "\n" + _INDENT * depth + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            return "[" + ", ".join(_emit(v, depth) for v in items) + "]"
        pad = _INDENT * (depth + 1)
        body = ",\n".join(pad + _emit(v, depth + 1) for v in items)
        return "[\n" + body + "\n" + _INDENT * depth + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(data: dict) -> str:
    """Render a document to its canonical byte-stable JSON text."""
    return _emit(data, 0) + "\n"


def _loads(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, line=err.lineno, column=err.colno) from err
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object at top level, got {type(data).__name__}")
    return data


def _load_file(path, schema: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = _loads(fh.read())
    found = data.get("schema")
    if found != schema:
        raise SchemaVersionMismatch(f"expected schema {schema!r}, found {found!r}")
    return data


def _write_file(path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(data))


def sha256_of_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _require(data, key: str, context: str, kind: type = object):
    """data[key], or ParseError if data is not an object, lacks key, or the
    value is not of kind (for int, a JSON integer: a bool does not count)."""
    if not isinstance(data, dict):
        raise ParseError(f"{context} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ParseError(f"{context} is missing {key!r}")
    value = data[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{context} {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _float(data, key: str, context: str) -> float:
    """data[key] as a float, or ParseError unless it is a finite JSON number (not NaN)."""
    value = _require(data, key, context)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ParseError(f"{context} {key!r} must be a finite number, got {value!r:.40}")
    return float(value)


def _as_array(value, shape: tuple, context: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"{context} is not numeric: {err}") from err
    if arr.shape != shape:
        raise ParseError(f"{context} must have shape {shape}, got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Marker logs.

def write_marker_log(path, log: MarkerLog) -> None:
    data = {
        "schema": MARKER_LOG_SCHEMA,
        "units": log.units,
        "frames": [{"frame_index": f.frame_index, "positions": f.positions}
                   for f in log.frames],
    }
    _write_file(path, data)


def read_marker_log(path) -> MarkerLog:
    data = _load_file(path, MARKER_LOG_SCHEMA)
    units = _require(data, "units", "marker log", str)
    raw_frames = _require(data, "frames", "marker log")
    if not isinstance(raw_frames, list) or not raw_frames:
        raise ParseError("marker log 'frames' must be a non-empty list")
    frames = []
    for i, raw in enumerate(raw_frames):
        index = _require(raw, "frame_index", f"frame {i}", int)
        positions = _require(raw, "positions", f"frame {i}")
        try:
            arr = np.asarray(positions, dtype=float)
        except (TypeError, ValueError, OverflowError) as err:
            raise ParseError(f"frame {i} positions are not numeric: {err}") from err
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ParseError(f"frame {i} positions must be (m, 3), got {arr.shape}")
        bad = np.nonzero(~np.isfinite(arr).all(axis=1))[0]
        if bad.size:
            raise NonFiniteValue(f"frame {index}, marker {bad[0]}: non-finite coordinate")
        try:
            frames.append(MarkerFrame(arr, index))
        except ValueError as err:
            raise ParseError(f"frame {i}: {err}") from err
    try:
        return MarkerLog(tuple(frames), units=units)
    except ValueError as err:
        raise ParseError(str(err)) from err


# ---------------------------------------------------------------------------
# Motion sequences.

def _motion_to_dict(motion: RelativeMotion) -> dict:
    return {
        "frame_index": motion.frame_index,
        "rotation": motion.rotation,
        "translation": motion.translation,
    }


def _motion_from_dict(raw: dict, context: str) -> RelativeMotion:
    index = _require(raw, "frame_index", context, int)
    rotation = _as_array(_require(raw, "rotation", context), (3, 3), f"{context} rotation")
    translation = _as_array(_require(raw, "translation", context), (3,), f"{context} translation")
    if not (np.all(np.isfinite(rotation)) and np.all(np.isfinite(translation))):
        raise NonFiniteValue(f"{context}: non-finite coordinate")
    try:
        return RelativeMotion(rotation, translation, index)
    except ValueError as err:
        raise ParseError(f"{context}: {err}") from err


def write_motion_sequence(path, motions: MotionSequence, units: str = "mm") -> None:
    """Write the motions, each with its rms_error when the sequence has them."""
    entries = [_motion_to_dict(m) for m in motions]
    if motions.rms_errors is not None:
        for entry, rms in zip(entries, motions.rms_errors):
            entry["rms_error"] = rms
    _write_file(path, {"schema": MOTIONS_SCHEMA, "units": units, "motions": entries})


def read_motion_sequence(path) -> MotionSequence:
    data = _load_file(path, MOTIONS_SCHEMA)
    raw_motions = _require(data, "motions", "motion file")
    if not isinstance(raw_motions, list) or not raw_motions:
        raise ParseError("motion file 'motions' must be a non-empty list")
    motions = [_motion_from_dict(raw, f"motion {i}") for i, raw in enumerate(raw_motions)]
    rms_errors = None
    if any("rms_error" in raw for raw in raw_motions):
        rms_errors = [_float(raw, "rms_error", f"motion {i}") for i, raw in enumerate(raw_motions)]
    try:
        return MotionSequence(tuple(motions), rms_errors=rms_errors)
    except ValueError as err:
        raise ParseError(str(err)) from err


# ---------------------------------------------------------------------------
# Contact geometry (shared by scenario and truth files): the contact's kind,
# then each field of its class, all 3-vectors, in field order.

_CONTACTS = {cls.kind.value: cls for cls in (FixedPointContact, FixedDirectionContact, EdgeContact)}


def _contact_to_dict(contact) -> dict:
    return {"kind": contact.kind.value,
            **{f.name: getattr(contact, f.name) for f in fields(contact)}}


def _contact_from_dict(raw: dict):
    kind = _require(raw, "kind", "contact", str)
    if kind not in _CONTACTS:
        raise ParseError(f"unknown contact kind {kind!r}")
    cls = _CONTACTS[kind]
    try:
        return cls(*(_as_array(_require(raw, f.name, "contact"), (3,), f"contact {f.name}")
                     for f in fields(cls)))
    except ValueError as err:
        raise ParseError(f"contact: {err}") from err


# ---------------------------------------------------------------------------
# Scenarios.

def write_scenario(path, config: ScenarioConfig) -> None:
    steps = [{"angle": step.angle, "axis": step.axis, "slide": step.slide,
              "translation": step.translation} for step in config.schedule]
    data = {
        "schema": SCENARIO_SCHEMA,
        "name": config.name,
        "units": config.units,
        "seed": config.seed,
        "noise_sigma": config.noise_sigma,
        "grid": {
            "rows": config.grid.rows,
            "cols": config.grid.cols,
            "pitch": config.grid.pitch,
            "dome_height": config.grid.dome_height,
            "pose": _motion_to_dict(config.grid.pose),
        },
        "contact": _contact_to_dict(config.contact),
        "schedule": steps,
        "tolerances": config.tolerances,
    }
    _write_file(path, data)


def read_scenario(path) -> ScenarioConfig:
    data = _load_file(path, SCENARIO_SCHEMA)
    raw_grid = _require(data, "grid", "scenario")
    pose = _motion_from_dict(_require(raw_grid, "pose", "grid"), "grid pose")
    try:
        grid = MarkerGrid(rows=_require(raw_grid, "rows", "grid", int),
                          cols=_require(raw_grid, "cols", "grid", int),
                          pitch=_float(raw_grid, "pitch", "grid"),
                          pose=pose,
                          dome_height=_float(raw_grid, "dome_height", "grid"))
    except ValueError as err:
        raise ParseError(f"grid: {err}") from err
    steps = []
    for i, raw in enumerate(_require(data, "schedule", "scenario", list)):
        context = f"schedule step {i}"
        angle = _float(raw, "angle", context)  # first: it checks that raw is an object
        axis = raw.get("axis")
        translation = raw.get("translation")
        try:
            steps.append(MotionStep(
                angle=angle,
                axis=None if axis is None else _as_array(axis, (3,), f"{context} axis"),
                slide=_float(raw, "slide", context) if "slide" in raw else 0.0,
                translation=(None if translation is None
                             else _as_array(translation, (3,), f"{context} translation")),
            ))
        except ValueError as err:
            raise ParseError(f"{context}: {err}") from err
    contact = _contact_from_dict(_require(data, "contact", "scenario"))
    tolerances = _require(data, "tolerances", "scenario", dict)
    for key in tolerances:
        _float(tolerances, key, "scenario tolerances")
    try:
        return ScenarioConfig(
            contact=contact,
            grid=grid,
            schedule=tuple(steps),
            noise_sigma=_as_array(_require(data, "noise_sigma", "scenario"), (3,), "noise_sigma"),
            seed=_require(data, "seed", "scenario", int),
            name=_require(data, "name", "scenario", str),
            units=_require(data, "units", "scenario", str),
            tolerances=tolerances,
        )
    except (TypeError, ValueError) as err:
        raise ParseError(f"scenario: {err}") from err


# ---------------------------------------------------------------------------
# Ground truth sidecar.

def write_truth(path, truth: ScenarioTruth, units: str = "mm") -> None:
    data = {
        "schema": TRUTH_SCHEMA,
        "units": units,
        "contact": _contact_to_dict(truth.contact_geometry),
        "motions": [_motion_to_dict(m) for m in truth.motions],
    }
    _write_file(path, data)


def read_truth(path) -> ScenarioTruth:
    data = _load_file(path, TRUTH_SCHEMA)
    contact = _contact_from_dict(_require(data, "contact", "truth"))
    raw_motions = _require(data, "motions", "truth")
    motions = [_motion_from_dict(raw, f"motion {i}") for i, raw in enumerate(raw_motions)]
    try:
        sequence = MotionSequence(tuple(motions))
    except ValueError as err:
        raise ParseError(str(err)) from err
    return ScenarioTruth(motions=sequence, contact_geometry=contact)


# ---------------------------------------------------------------------------
# Estimate reports.

def write_report(path, report: EstimateReport) -> None:
    est = report.estimate
    if est.per_frame_residuals is None:
        raise ValueError("a report needs the estimate's per-frame residuals")
    cond = est.conditioning
    data = {
        "schema": REPORT_SCHEMA,
        "estimate": {
            "kind": est.kind.value,
            "point": est.point,
            "direction": est.direction,
            "residual_rms": est.residual_rms,
            "conditioning": {
                "max_rotation_angle": cond.max_rotation_angle,
                "smallest_singular_value": cond.smallest_singular_value,
                "condition_number": (None if math.isinf(cond.condition_number)
                                     else cond.condition_number),
                "well_posed": cond.well_posed,
            },
        },
        "per_frame_residuals": est.per_frame_residuals,
        "config": {
            "angle_threshold": report.config.angle_threshold,
            "cond_threshold": report.config.cond_threshold,
            "rank_tolerance": report.config.rank_tolerance,
            "min_frames": report.config.min_frames,
        },
        "provenance": report.provenance,
    }
    _write_file(path, data)


def read_report(path) -> EstimateReport:
    data = _load_file(path, REPORT_SCHEMA)
    raw_est = _require(data, "estimate", "report")
    raw_cond = _require(raw_est, "conditioning", "estimate")
    raw_cn = _require(raw_cond, "condition_number", "conditioning")
    conditioning = ConditioningReport(
        max_rotation_angle=float(_require(raw_cond, "max_rotation_angle", "conditioning")),
        smallest_singular_value=float(
            _require(raw_cond, "smallest_singular_value", "conditioning")),
        condition_number=math.inf if raw_cn is None else float(raw_cn),
        well_posed=bool(_require(raw_cond, "well_posed", "conditioning")),
    )
    try:
        kind = ContactKind(_require(raw_est, "kind", "estimate"))
    except ValueError as err:
        raise ParseError(str(err)) from err
    point = raw_est.get("point")
    direction = raw_est.get("direction")
    try:
        estimate = ContactEstimate(
            kind=kind,
            point=None if point is None else _as_array(point, (3,), "estimate point"),
            direction=(None if direction is None
                       else _as_array(direction, (3,), "estimate direction")),
            residual_rms=float(_require(raw_est, "residual_rms", "estimate")),
            per_frame_residuals=_require(data, "per_frame_residuals", "report"),
            conditioning=conditioning,
        )
    except ValueError as err:
        raise ParseError(f"estimate: {err}") from err
    raw_config = _require(data, "config", "report")
    try:
        config = EstimatorConfig(
            angle_threshold=float(_require(raw_config, "angle_threshold", "config")),
            cond_threshold=float(_require(raw_config, "cond_threshold", "config")),
            rank_tolerance=float(_require(raw_config, "rank_tolerance", "config")),
            min_frames=int(_require(raw_config, "min_frames", "config")),
        )
    except ValueError as err:
        raise ParseError(f"config: {err}") from err
    return EstimateReport(estimate=estimate, config=config,
                          provenance=dict(_require(data, "provenance", "report")))
