"""File formats: marker logs, motion sequences, scenarios, truth, reports.

Everything is JSON with a "schema" tag. Writing is deterministic — the same
data always produces the same bytes — so logs can be diffed and hashed.
Floats are written with 17 significant digits, which round-trips every
double exactly; write -> read -> write is byte-identical. A document is
rendered to a list of text pieces (one per float array or flat list) before
its file is opened, so a failed write leaves the file as it was, and the
pieces are written one by one, so no nesting level copies the whole text.

An infinite condition number is stored as null (JSON has no Infinity) and
restored to inf on read.

Every number in a file must be a JSON number. Arrays are read by _array,
which scans for booleans (numpy reads one among numbers as 0 or 1) only when
_load finds that the text may hold a true or false.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .contact import ConditioningReport, ContactEstimate, ContactKind
from .errors import NonFiniteValue, ParseError, SchemaVersionMismatch
from .estimators import EstimatorConfig
from .motion import MarkerLog, MotionSequence, RelativeMotion, _marker_frames
from .simulate import (EdgeContact, FixedDirectionContact, FixedPointContact,
                       MarkerGrid, MotionStep, ScenarioConfig, ScenarioTruth)

MARKER_LOG_SCHEMA = "tacloc.marker_log/1"
MOTIONS_SCHEMA = "tacloc.motions/1"
SCENARIO_SCHEMA = "tacloc.scenario/1"
TRUTH_SCHEMA = "tacloc.truth/1"
REPORT_SCHEMA = "tacloc.report/1"


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


def _scalar(value) -> str:
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
    raise TypeError(f"cannot serialize {type(value).__name__}")


_NESTED = (dict, list, tuple, np.ndarray)


def _emit(value, depth: int, out: list) -> None:
    """Append value's text at depth to out, a float array or flat list as one
    piece, so no nesting level copies the text of what it holds."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.size and value.ndim in (1, 2):
            out.append(_emit_float_array(value, depth))
            return
        value = value.tolist()
        if not isinstance(value, list):  # a 0-d array
            raise TypeError(f"cannot serialize {type(value).__name__}")
    if isinstance(value, dict) and value:
        pad, sep = _INDENT * (depth + 1), "{\n"
        for key, item in value.items():
            out.append(f"{sep}{pad}{json.dumps(str(key))}: ")
            _emit(item, depth + 1, out)
            sep = ",\n"
        out.append("\n" + _INDENT * depth + "}")
    elif isinstance(value, (list, tuple)) and any(isinstance(v, _NESTED) for v in value):
        pad, sep = _INDENT * (depth + 1), "[\n"
        for item in value:
            out.append(sep + pad)
            _emit(item, depth + 1, out)
            sep = ",\n"
        out.append("\n" + _INDENT * depth + "]")
    elif isinstance(value, (list, tuple)):
        out.append("[" + ", ".join(map(_scalar, value)) + "]")
    else:
        out.append("{}" if isinstance(value, dict) else _scalar(value))


def _pieces(data: dict) -> list:
    """The canonical text of a document, as the list of pieces _emit made."""
    out = []
    _emit(data, 0, out)
    out.append("\n")
    return out


def dumps(data: dict) -> str:
    """Render a document to its canonical byte-stable JSON text."""
    return "".join(_pieces(data))


def _write_file(path, data: dict) -> None:
    pieces = _pieces(data)  # before open empties the file
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


_HASH_BLOCK = 1 << 18


def sha256_of_file(path) -> str:
    """The file's SHA-256, read block by block into one buffer."""
    digest, block = hashlib.sha256(), bytearray(_HASH_BLOCK)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Typed reading.

def _may_hold_literal(text: str) -> bool:
    """False only when text holds no JSON true or false.

    The letter at offset 2 of each literal ('u', 'l') never occurs in a
    number, and a document's other occurrences sit in its few strings, so
    each single-character search (a memchr) stops only a few times.
    """
    for letter, word in (("u", "true"), ("l", "false")):
        at = text.find(letter)
        while at != -1:
            if at >= 2 and text.startswith(word, at - 2):
                return True
            at = text.find(letter, at + 1)
    return False


def _load(path, schema: str) -> tuple:
    """The document in path and whether its text may hold a true or false."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ParseError(err.msg, line=err.lineno, column=err.colno) from err
        except (ValueError, RecursionError) as err:  # bad UTF-8, an over-long integer, deep nesting
            raise ParseError(str(err)) from err
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object at top level, got {type(data).__name__}")
    found = data.get("schema")
    if found != schema:
        raise SchemaVersionMismatch(f"expected schema {schema!r}, found {found!r}")
    return data, _may_hold_literal(text)


@contextlib.contextmanager
def _invalid(context: str):
    """Re-raise a ValueError from the block, a constructor's own check, as ParseError."""
    try:
        yield
    except ValueError as err:
        raise ParseError(f"{context}: {err}") from err


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


def _entries(data, key: str, context: str) -> list:
    """data[key], or ParseError unless it is a non-empty list."""
    value = _require(data, key, context)
    if not isinstance(value, list) or not value:
        raise ParseError(f"{context} {key!r} must be a non-empty list")
    return value


def _number(value, what: str) -> float:
    """value as a float, or ParseError unless it is a finite JSON number (not a bool or NaN)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ParseError(f"{what} must be a finite number, got {value!r:.40}")
    return float(value)


def _float(data, key: str, context: str) -> float:
    """data[key] as a float, or ParseError unless it is a finite JSON number."""
    return _number(_require(data, key, context), f"{context} {key!r}")


def _array(data, key: str, context: str, shape: tuple, literals: bool,
           rows: str = "entry") -> np.ndarray:
    """data[key] as a float array of shape (None matches any length), or
    ParseError unless numpy infers a float or 64-bit integer dtype and, when
    literals is set, no entry is a boolean; NonFiniteValue names the first
    non-finite row."""
    value, what = _require(data, key, context), f"{context} {key!r}"
    try:
        arr = np.asarray(value)
    except ValueError as err:  # ragged lists
        raise ParseError(f"{what} is not numeric: {err}") from err
    if arr.dtype.kind not in "fi":
        raise ParseError(f"{what} is not numeric: read as {arr.dtype}")
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ParseError(f"{what} must have shape {shape}, got {arr.shape}")
    if literals and any(type(v) is bool for row in (value if arr.ndim == 2 else [value])
                        for v in row):
        raise ParseError(f"{what} is not numeric: an entry is a boolean")
    arr = arr.astype(float, copy=False)
    finite = np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
    if not finite.all():
        raise NonFiniteValue(f"{what}: non-finite value at {rows} {np.argmin(finite)}")
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
    data, literals = _load(path, MARKER_LOG_SCHEMA)
    units = _require(data, "units", "marker log", str)
    raw_frames = _entries(data, "frames", "marker log")
    shape = (None, 3)
    for i, raw in enumerate(raw_frames):
        index = _require(raw, "frame_index", f"frame {i}", int)
        if index != i:
            raise ParseError(f"frame {i}: frame indices must be dense from 0, got {index}")
        arr = _array(raw, "positions", f"frame {i}", shape, literals, "marker")
        if i == 0:  # later frames must have frame 0's shape, so one marker count
            shape, positions = arr.shape, np.empty((len(raw_frames),) + arr.shape)
        positions[i] = arr
    return MarkerLog(_marker_frames(positions, range(len(raw_frames))), units=units)


# ---------------------------------------------------------------------------
# Motion sequences.

def _motion_to_dict(motion: RelativeMotion) -> dict:
    return {
        "frame_index": motion.frame_index,
        "rotation": motion.rotation,
        "translation": motion.translation,
    }


def _motions(data, context: str, literals: bool) -> MotionSequence:
    """The sequence of data's non-empty 'motions' list in its 'units', with
    each entry's rms_error when any has one, read into stacks and built once."""
    units = _require(data, "units", context, str)
    raw_motions = _entries(data, "motions", context)
    count = len(raw_motions)
    rotations, translations, indices = np.empty((count, 3, 3)), np.empty((count, 3)), [0] * count
    for i, raw in enumerate(raw_motions):
        entry = f"motion {i}"
        indices[i] = _require(raw, "frame_index", entry, int)
        rotations[i] = _array(raw, "rotation", entry, (3, 3), literals)
        translations[i] = _array(raw, "translation", entry, (3,), literals)
    rms_errors = None
    if any("rms_error" in raw for raw in raw_motions):
        rms_errors = [_float(raw, "rms_error", f"motion {i}") for i, raw in enumerate(raw_motions)]
    try:
        return MotionSequence._of_stacks(rotations, translations, indices, rms_errors, units)
    except ValueError as err:
        for k in range(count):  # name the first motion at fault, when one is
            try:
                RelativeMotion(rotations[k], translations[k], indices[k])
            except ValueError:
                raise ParseError(f"motion {k}: {err}") from err
        raise ParseError(str(err)) from err


def write_motion_sequence(path, motions: MotionSequence) -> None:
    """Write the motions in their units, each with its rms_error when the sequence has them."""
    entries = [_motion_to_dict(m) for m in motions]
    if motions.rms_errors is not None:
        for entry, rms in zip(entries, motions.rms_errors):
            entry["rms_error"] = rms
    _write_file(path, {"schema": MOTIONS_SCHEMA, "units": motions.units, "motions": entries})


def read_motion_sequence(path) -> MotionSequence:
    data, literals = _load(path, MOTIONS_SCHEMA)
    return _motions(data, "motion file", literals)


# ---------------------------------------------------------------------------
# Contact geometry (shared by scenario and truth files): the contact's kind,
# then each field of its class, all 3-vectors, in field order.

_CONTACTS = {cls.kind.value: cls for cls in (FixedPointContact, FixedDirectionContact, EdgeContact)}


def _contact_to_dict(contact) -> dict:
    return {"kind": contact.kind.value,
            **{f.name: getattr(contact, f.name) for f in fields(contact)}}


def _contact_from_dict(raw: dict, literals: bool):
    kind = _require(raw, "kind", "contact", str)
    if kind not in _CONTACTS:
        raise ParseError(f"unknown contact kind {kind!r}")
    cls = _CONTACTS[kind]
    with _invalid("contact"):
        return cls(*(_array(raw, f.name, "contact", (3,), literals) for f in fields(cls)))


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
    data, literals = _load(path, SCENARIO_SCHEMA)
    raw_grid = _require(data, "grid", "scenario")
    raw_pose = _require(raw_grid, "pose", "grid")
    with _invalid("grid"):
        pose = RelativeMotion(_array(raw_pose, "rotation", "grid pose", (3, 3), literals),
                              _array(raw_pose, "translation", "grid pose", (3,), literals),
                              _require(raw_pose, "frame_index", "grid pose", int))
        grid = MarkerGrid(rows=_require(raw_grid, "rows", "grid", int),
                          cols=_require(raw_grid, "cols", "grid", int),
                          pitch=_float(raw_grid, "pitch", "grid"),
                          pose=pose,
                          dome_height=_float(raw_grid, "dome_height", "grid"))
    steps = []
    for i, raw in enumerate(_entries(data, "schedule", "scenario")):
        context = f"schedule step {i}"
        angle = _float(raw, "angle", context)  # first: it checks that raw is an object
        axis, translation = raw.get("axis"), raw.get("translation")
        with _invalid(context):
            steps.append(MotionStep(
                angle=angle,
                axis=None if axis is None else _array(raw, "axis", context, (3,), literals),
                slide=_float(raw, "slide", context) if "slide" in raw else 0.0,
                translation=(None if translation is None
                             else _array(raw, "translation", context, (3,), literals)),
            ))
    contact = _contact_from_dict(_require(data, "contact", "scenario"), literals)
    tolerances = _require(data, "tolerances", "scenario", dict)
    for key in tolerances:
        _float(tolerances, key, "scenario tolerances")
    with _invalid("scenario"):
        return ScenarioConfig(
            contact=contact,
            grid=grid,
            schedule=tuple(steps),
            noise_sigma=_array(data, "noise_sigma", "scenario", (3,), literals),
            seed=_require(data, "seed", "scenario", int),
            name=_require(data, "name", "scenario", str),
            units=_require(data, "units", "scenario", str),
            tolerances=tolerances,
        )


# ---------------------------------------------------------------------------
# Ground truth sidecar.

def write_truth(path, truth: ScenarioTruth, units: str | None = None) -> None:
    """Write the truth with the units of its motions, unless units names others."""
    data = {
        "schema": TRUTH_SCHEMA,
        "units": truth.motions.units if units is None else units,
        "contact": _contact_to_dict(truth.contact_geometry),
        "motions": [_motion_to_dict(m) for m in truth.motions],
    }
    _write_file(path, data)


def read_truth(path) -> ScenarioTruth:
    data, literals = _load(path, TRUTH_SCHEMA)
    contact = _contact_from_dict(_require(data, "contact", "truth"), literals)
    return ScenarioTruth(motions=_motions(data, "truth", literals), contact_geometry=contact)


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
        "config": asdict(report.config),
        "provenance": report.provenance,
    }
    _write_file(path, data)


def read_report(path) -> EstimateReport:
    data, literals = _load(path, REPORT_SCHEMA)
    raw_est = _require(data, "estimate", "report")
    raw_cond = _require(raw_est, "conditioning", "estimate")
    raw_cn = _require(raw_cond, "condition_number", "conditioning")
    with _invalid("conditioning"):
        conditioning = ConditioningReport(
            max_rotation_angle=_float(raw_cond, "max_rotation_angle", "conditioning"),
            smallest_singular_value=_float(raw_cond, "smallest_singular_value", "conditioning"),
            condition_number=(math.inf if raw_cn is None
                              else _float(raw_cond, "condition_number", "conditioning")),
            well_posed=_require(raw_cond, "well_posed", "conditioning", bool),
        )
    point, direction = raw_est.get("point"), raw_est.get("direction")
    with _invalid("estimate"):
        estimate = ContactEstimate(
            kind=ContactKind(_require(raw_est, "kind", "estimate")),
            point=None if point is None else _array(raw_est, "point", "estimate", (3,), literals),
            direction=(None if direction is None
                       else _array(raw_est, "direction", "estimate", (3,), literals)),
            residual_rms=_float(raw_est, "residual_rms", "estimate"),
            per_frame_residuals=_array(data, "per_frame_residuals", "report", (None,), literals),
            conditioning=conditioning,
        )
    raw_config = _require(data, "config", "report")
    with _invalid("config"):
        config = EstimatorConfig(**{
            f.name: (_require(raw_config, f.name, "config", int) if type(f.default) is int
                     else _float(raw_config, f.name, "config"))
            for f in fields(EstimatorConfig)})
    return EstimateReport(estimate=estimate, config=config,
                          provenance=_require(data, "provenance", "report", dict))
