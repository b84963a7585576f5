"""File formats: marker logs, motion sequences, scenarios, truth, reports.

Everything is JSON with a "schema" tag. Writing is deterministic — the same
data always produces the same bytes — so logs can be diffed and hashed.
Floats are written with 17 significant digits, which round-trips every
double exactly, and negative zero as -0.0 (-0 would read as the integer 0);
write -> read -> write is byte-identical. A document is
rendered to a list of text pieces (one per float array or flat list) before
its file is opened, so a render failure leaves the file as it was, and the
pieces are written one by one, so no nesting level copies the whole text.
An existing regular file is overwritten in place and any old tail trimmed,
because truncating it to zero as it is opened can cost far more than the
write (on ext4 mounted with discard, an open took 0.1 ms for a 3 KB file and
10 ms for an 11 MB one, against 0.05 ms or less in place). An I/O error
part-way through a write can therefore leave the new head over the old
tail, where truncating first left a short file; files are never fsynced, so
neither is durable across a power loss. A FIFO or device is not trimmed.

An infinite condition number is stored as null (JSON has no Infinity) and
restored to inf on read.

Every number in a file must be a JSON number. A scenario, a truth contact
and a report's estimate, config and provenance are written by _record and
read by _from_record, its mirror: each field of the dataclass is a key of the
file, in field order, and goes back to its constructor as the JSON holds it,
inside _invalid, which names the record in any error; a key that no field
names is not read. A writer names only the fields it writes in another form:
a scenario's grid pose, contact and schedule, and an estimate's conditioning
and per_frame_residuals (at the report's top level). So each scalar and each
array is checked once, by motion._number, _integer, _text or _floats. A
reader checks a field first only where the constructor takes what a file
would not read back as itself: dome_height as a number (None is MarkerGrid's
default), noise_sigma as a list (a bare number is shorthand for three) and
per_frame_residuals as a list (None is ContactEstimate's default). Motions
and marker logs are read into stacks: _array checks each array by _floats,
naming its motion or frame, and the readers check each frame_index and
rms_error, and a log's units (its _of_stack checks neither index nor units,
and a true index would pass the dense test); a motion file's stacks then
pass motion._motion_stack, and MotionSequence checks its own units.

Every reader takes a path or an open binary file, which it closes once
read. Either is read as text mode reads a path, strict UTF-8 with universal
newlines, and decoded by one json.loads call. read_marker_log alone passes
_load an object_hook, _positions_array, which makes each frame's positions
an array by _floats as its object closes, so at most one frame of Python
floats is alive. The reader keeps that array, frame 0's too, so no frame is
checked twice; a list that _floats rejects stays for _array to report with
the frame named. The other readers pass no hook.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import stat
from dataclasses import dataclass, fields
from io import TextIOWrapper

import numpy as np

from . import motion
from .errors import NonFiniteValue, ParseError, SchemaVersionMismatch
from .estimators import ConditioningReport, ContactEstimate, EstimatorConfig
from .motion import MarkerLog, MotionSequence, RelativeMotion, _first_bad_motion
from .simulate import (EdgeContact, FixedDirectionContact, FixedPointContact,
                       MarkerGrid, MotionStep, ScenarioConfig, ScenarioTruth)

MARKER_LOG_SCHEMA = "tacloc.marker_log/1"
MOTIONS_SCHEMA = "tacloc.motions/1"
SCENARIO_SCHEMA = "tacloc.scenario/1"
TRUTH_SCHEMA = "tacloc.truth/1"
REPORT_SCHEMA = "tacloc.report/1"


@dataclass(frozen=True)
class Provenance:
    """Where a report came from: the SHA-256 of the log its estimate read, the tacloc version
    that wrote it and the log's frame count."""

    input_sha256: str
    tool_version: str
    frame_count: int

    def __post_init__(self):
        motion._text(self.input_sha256, "input_sha256")
        motion._text(self.tool_version, "tool_version")
        if (count := motion._integer(self.frame_count, "frame_count")) < 0:
            raise ValueError(f"frame_count must be nonnegative, got {motion._shown(count)}")


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """An estimate plus everything needed to audit it."""

    estimate: ContactEstimate
    config: EstimatorConfig
    provenance: Provenance

    def __post_init__(self):
        if not isinstance(self.provenance, Provenance):
            raise TypeError(f"provenance must be a Provenance, got "
                            f"{type(self.provenance).__name__}")


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
    text %= tuple(arr.ravel().tolist())
    # "%.17g" writes -0.0 as -0, which reads as the integer 0; no other number
    # ends in -0, as an exponent has at least two digits, so the text is
    # rewritten only when the array holds a -0.0
    if np.signbit(arr[arr == 0.0]).any():
        text = text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")
    return text


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
        text = format(value, ".17g")
        return "-0.0" if text == "-0" else text
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
    """Write data's canonical text over the file at path, created if missing."""
    pieces = _pieces(data)  # before the file is touched
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
        if stat.S_ISREG(os.fstat(fd).st_mode):  # a FIFO cannot tell, nor a device truncate
            fh.truncate()


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

def _load(source, schema: str, hook=None) -> dict:
    """The document in source, a path or an open binary file (closed once read), read as
    strict UTF-8 with universal newlines, and decoded with hook as each object's object_hook."""
    fh = (TextIOWrapper(source, encoding="utf-8") if hasattr(source, "read")
          else open(source, "r", encoding="utf-8"))
    try:
        with fh:
            text = fh.read()
        data = json.loads(text, object_hook=hook)  # after close frees an in-memory file's bytes
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, line=err.lineno, column=err.colno) from err
    except (ValueError, RecursionError) as err:  # bad UTF-8, an over-long integer, deep nesting
        raise ParseError(str(err)) from err
    if not isinstance(data, dict):
        raise ParseError(f"expected a JSON object at top level, got {type(data).__name__}")
    found = data.get("schema")
    if found != schema:
        raise SchemaVersionMismatch(f"expected schema {schema!r}, found {found!r}")
    return data


@contextlib.contextmanager
def _invalid(context: str = ""):
    """A ValueError from the block after context: a NonFiniteValue as one, any other ParseError."""
    try:
        yield
    except ValueError as err:
        kind = NonFiniteValue if isinstance(err, NonFiniteValue) else ParseError
        raise kind(f"{context}: {err}" if context else str(err)) from err


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


def _from_record(cls, raw, context: str, **given):
    """cls of each field's value as raw holds it, or as given names it: the mirror of _record.
    The constructor checks every value, inside _invalid(context)."""
    values = {f.name: given[f.name] if f.name in given else _require(raw, f.name, context)
              for f in fields(cls)}
    with _invalid(context):
        return cls(**values)


def _entries(data, key: str, context: str) -> list:
    """data[key], or ParseError unless it is a non-empty list."""
    value = _require(data, key, context)
    if not isinstance(value, list) or not value:
        raise ParseError(f"{context} {key!r} must be a non-empty list")
    return value


def _number(value, what: str) -> float:
    """value as a float, or ParseError unless it is a finite JSON number (not a bool or NaN)."""
    with _invalid():
        return motion._number(value, what)


def _float(data, key: str, context: str) -> float:
    """data[key] as a float, or ParseError unless it is a finite JSON number."""
    return _number(_require(data, key, context), f"{context} {key!r}")


def _array(data, key: str, context: str, shape: tuple, rows: str = "entry") -> np.ndarray:
    """data[key] as a float array of shape by motion._floats, or ParseError or NonFiniteValue."""
    value = _require(data, key, context)
    with _invalid():
        return motion._floats(value, f"{context} {key!r}", shape, rows)


# ---------------------------------------------------------------------------
# Marker logs.

def _positions_array(obj: dict) -> dict:
    """obj with a list 'positions' made a checked float array by motion._floats, so one
    frame's floats and row lists live only until its object closes. A list that _floats
    rejects stays for _array to report, naming the frame."""
    rows = obj.get("positions")
    if isinstance(rows, list):
        with contextlib.suppress(ValueError):
            obj["positions"] = motion._floats(rows, "positions", (None, 3), "marker")
    return obj


def write_marker_log(path, log: MarkerLog) -> None:
    data = {
        "schema": MARKER_LOG_SCHEMA,
        "units": log.units,
        "frames": [{"frame_index": k, "positions": p} for k, p in enumerate(log.positions)],
    }
    _write_file(path, data)


def read_marker_log(path) -> MarkerLog:
    data = _load(path, MARKER_LOG_SCHEMA, _positions_array)
    units = _require(data, "units", "marker log", str)
    raw_frames = _entries(data, "frames", "marker log")
    shape = (None, 3)
    for i, raw in enumerate(raw_frames):
        index = _require(raw, "frame_index", f"frame {i}", int)
        if index != i:
            raise ParseError(f"frame {i}: frame indices must be dense from 0, got {index}")
        arr = raw.get("positions")  # an array only if the hook checked it as (m, 3)
        if not (isinstance(arr, np.ndarray) and (i == 0 or arr.shape == shape)):
            arr = _array(raw, "positions", f"frame {i}", shape, "marker")
        motion._in_range(arr, f"frame {i} 'positions'", ParseError)
        if i == 0:  # later frames must have frame 0's shape, so one marker count
            shape, positions = arr.shape, np.empty((len(raw_frames),) + arr.shape)
        positions[i] = arr
    return MarkerLog._of_stack(positions, units=units)


# ---------------------------------------------------------------------------
# Motion sequences.

def _motion_to_dict(frame_index: int, rotation: np.ndarray, translation: np.ndarray) -> dict:
    return {"frame_index": frame_index, "rotation": rotation, "translation": translation}


def _motion_dicts(motions: MotionSequence) -> list:
    return [_motion_to_dict(*entry) for entry in
            zip(motions.frame_indices, motions.rotations, motions.translations)]


def _motions(data, context: str) -> MotionSequence:
    """The sequence of data's 'motions' list in its 'units', with each
    entry's rms_error when any has one, read into stacks and built once."""
    units = _require(data, "units", context)
    raw_motions = _require(data, "motions", context, list)
    count = len(raw_motions)
    rotations, translations, indices = np.empty((count, 3, 3)), np.empty((count, 3)), [0] * count
    for i, raw in enumerate(raw_motions):
        entry = f"motion {i}"
        indices[i] = _require(raw, "frame_index", entry, int)
        rotations[i] = _array(raw, "rotation", entry, (3, 3))
        translations[i] = _array(raw, "translation", entry, (3,))
    rms_errors = None
    if any("rms_error" in raw for raw in raw_motions):
        rms_errors = [_float(raw, "rms_error", f"motion {i}") for i, raw in enumerate(raw_motions)]
    try:
        return MotionSequence._of_stacks(*motion._motion_stack(rotations, translations, indices),
                                         rms_errors, units)
    except ValueError as err:  # a motion's, named, or else the file's sequence as a whole
        k = _first_bad_motion(rotations, translations, indices)
        raise ParseError(f"motion {k}: {err}" if k >= 0 else f"{context}: {err}") from err


def write_motion_sequence(path, motions: MotionSequence) -> None:
    """Write the motions in their units, each with its rms_error when the sequence has them."""
    entries = _motion_dicts(motions)
    if motions.rms_errors is not None:
        for entry, rms in zip(entries, motions.rms_errors):
            entry["rms_error"] = rms
    _write_file(path, {"schema": MOTIONS_SCHEMA, "units": motions.units, "motions": entries})


def read_motion_sequence(path) -> MotionSequence:
    data = _load(path, MOTIONS_SCHEMA)
    return _motions(data, "motion file")


# ---------------------------------------------------------------------------
# Contact geometry (shared by scenario and truth files): the contact's kind,
# then each field of its class, all 3-vectors, in field order.

_CONTACTS = {cls.kind.value: cls for cls in (FixedPointContact, FixedDirectionContact, EdgeContact)}


def _record(obj) -> dict:
    """A dataclass's fields by name, in field order, as they are: asdict would deep-copy them."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _contact_to_dict(contact) -> dict:
    return {"kind": contact.kind.value, **_record(contact)}


def _contact_from_dict(raw: dict):
    kind = _require(raw, "kind", "contact", str)
    if kind not in _CONTACTS:
        raise ParseError(f"unknown contact kind {kind!r}")
    return _from_record(_CONTACTS[kind], raw, "contact")


# ---------------------------------------------------------------------------
# Scenarios.

def write_scenario(path, config: ScenarioConfig) -> None:
    grid = config.grid
    _write_file(path, {"schema": SCENARIO_SCHEMA, **_record(config),
                       "grid": {**_record(grid), "pose": _motion_to_dict(**_record(grid.pose))},
                       "contact": _contact_to_dict(config.contact),
                       "schedule": [_record(step) for step in config.schedule]})


def read_scenario(path) -> ScenarioConfig:
    data = _load(path, SCENARIO_SCHEMA)
    raw_grid = _require(data, "grid", "scenario")
    pose = _from_record(RelativeMotion, _require(raw_grid, "pose", "grid"), "grid pose")
    grid = _from_record(MarkerGrid, raw_grid, "grid", pose=pose,
                        dome_height=_float(raw_grid, "dome_height", "grid"))
    schedule = tuple(_from_record(MotionStep, raw, f"schedule step {i}")
                     for i, raw in enumerate(_entries(data, "schedule", "scenario")))
    return _from_record(ScenarioConfig, data, "scenario", grid=grid, schedule=schedule,
                        contact=_contact_from_dict(_require(data, "contact", "scenario")),
                        noise_sigma=_require(data, "noise_sigma", "scenario", list))


# ---------------------------------------------------------------------------
# Ground truth sidecar.

def write_truth(path, truth: ScenarioTruth, units: str | None = None) -> None:
    """Write the truth with the units of its motions, unless units names others."""
    data = {
        "schema": TRUTH_SCHEMA,
        "units": truth.motions.units if units is None else units,
        "contact": _contact_to_dict(truth.contact_geometry),
        "motions": _motion_dicts(truth.motions),
    }
    _write_file(path, data)


def read_truth(path) -> ScenarioTruth:
    data = _load(path, TRUTH_SCHEMA)
    contact = _contact_from_dict(_require(data, "contact", "truth"))
    return ScenarioTruth(motions=_motions(data, "truth"), contact_geometry=contact)


# ---------------------------------------------------------------------------
# Estimate reports.

def write_report(path, report: EstimateReport) -> None:
    estimate = _record(report.estimate)
    if (residuals := estimate.pop("per_frame_residuals")) is None:
        raise ValueError("a report needs the estimate's per-frame residuals")
    cond = estimate["conditioning"].condition_number
    estimate["conditioning"] = {**_record(estimate["conditioning"]),
                                "condition_number": None if math.isinf(cond) else cond}
    _write_file(path, {"schema": REPORT_SCHEMA, "estimate": estimate,
                       "per_frame_residuals": residuals, "config": _record(report.config),
                       "provenance": _record(report.provenance)})


def read_report(path) -> EstimateReport:
    data = _load(path, REPORT_SCHEMA)
    raw_est = _require(data, "estimate", "report")
    raw_cond = _require(raw_est, "conditioning", "estimate")
    cond = _require(raw_cond, "condition_number", "conditioning")
    conditioning = _from_record(ConditioningReport, raw_cond, "conditioning",
                                condition_number=math.inf if cond is None else cond)
    estimate = _from_record(ContactEstimate, raw_est, "estimate", conditioning=conditioning,
                            per_frame_residuals=_require(data, "per_frame_residuals", "report",
                                                         list))
    config = _from_record(EstimatorConfig, _require(data, "config", "report"), "config")
    provenance = _from_record(Provenance, _require(data, "provenance", "report"), "provenance")
    return EstimateReport(estimate=estimate, config=config, provenance=provenance)
