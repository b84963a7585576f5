"""The three benchmark workloads: inputs made from a seed, one op, its checks.

Each workload drives tacloc only through its public entry points
(`tacloc.cli.main(argv)` in-process, and the library functions looked up on
their modules at call time, so that a traced run can wrap them). The checks
use oracles that do not depend on the code under test: the generator's truth
geometry, `json` and `hashlib` from the standard library, and SHA-256s pinned
in `pins.json`. The only check that needs tacloc itself is the
write -> read -> write byte identity of the marker logs, which is the
property being checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from tacloc import (RelativeMotion, cli, estimators, registration, rotation_about_axis,
                    simulate)
from tacloc import io as tio

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"
SCENARIO_DIR = Path(cli.__file__).resolve().parent / "scenarios"

# The bundled scenarios' mounting: the grid stands upright and off-centre, so
# nothing downstream can assume markers sit in the xy-plane.
GRID_POSE = RelativeMotion(rotation_about_axis((1.0, 0.0, 0.0), math.radians(90.0)),
                           (0.0, 2.0, -1.0))
EDGE = dict(direction=(1.0, 0.0, 0.0), point=(0.0, 2.0, -3.0), surface_normal=(0.0, 0.0, 1.0))
PIVOT_POINT = (1.5, -2.0, 4.0)
HINGE_DIRECTION = (1.0, 2.0, 2.0)
NOISE_SIGMA = 0.01  # 1% of the 1 mm marker pitch

# Allowed estimate error against generator truth; the same values the noisy
# bundled scenarios use for 5-6 moving frames, so loose for 99 or 1999.
TOLERANCES = {
    "point": {"point_distance": 0.05},
    "direction": {"direction_angle": 8.7e-3},
    "line": {"direction_angle": 3.5e-3, "point_distance": 0.2},
}


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rewrite_mismatch(log_path: Path, scratch: Path) -> str | None:
    """Read a marker log and write it again; report any byte that changed."""
    tio.write_marker_log(scratch, tio.read_marker_log(log_path))
    same = scratch.read_bytes() == log_path.read_bytes()
    scratch.unlink()
    return None if same else f"{log_path.name}: write->read->write changed the bytes"


def _angle(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cos = abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return math.acos(min(1.0, cos))


def truth_errors(kind: str, contact, point, direction) -> str | None:
    """Compare an estimate with the generating contact; None when within tolerance."""
    tol = TOLERANCES[kind]
    measured = {}
    if kind == "point":
        measured["point_distance"] = float(np.linalg.norm(np.asarray(point) - contact.point))
    else:
        measured["direction_angle"] = _angle(direction, contact.direction)
    if kind == "line":
        offset = np.asarray(point) - contact.point
        off_edge = offset - (offset @ contact.direction) * contact.direction
        measured["point_distance"] = float(np.linalg.norm(off_edge))
    bad = [f"{key} {value:.3g} > {tol[key]:.3g}" for key, value in measured.items()
           if not value <= tol[key]]
    return "; ".join(bad) or None


def _run_cli(argv_list) -> tuple[list[int], str]:
    """Run CLI commands in order, stopping at the first non-zero exit code."""
    out = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        for argv in argv_list:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    return codes, out.getvalue()


def edge_scenario(rng, name: str, steps: int, rows: int, cols: int, seed: int):
    """Rock about the bundled edge by up to +-20 degrees while sliding up to +-0.5 mm."""
    angles = rng.uniform(-20.0, 20.0, size=steps)
    slides = rng.uniform(-0.5, 0.5, size=steps)
    schedule = [simulate.MotionStep(angle=math.radians(a), slide=float(s))
                for a, s in zip(angles, slides)]
    return simulate.ScenarioConfig(
        name=name, contact=simulate.EdgeContact(**EDGE),
        grid=simulate.MarkerGrid(rows=rows, cols=cols, pose=GRID_POSE),
        schedule=schedule, noise_sigma=NOISE_SIGMA, seed=seed,
        tolerances=TOLERANCES["line"])


def pivot_scenario(rng, name: str, steps: int, seed: int):
    """Pivot by 5-25 degrees about random axes through the bundled pivot point."""
    angles = rng.uniform(5.0, 25.0, size=steps)
    axes = rng.normal(size=(steps, 3))
    schedule = [simulate.MotionStep(angle=math.radians(a), axis=ax)
                for a, ax in zip(angles, axes)]
    return simulate.ScenarioConfig(
        name=name, contact=simulate.FixedPointContact(PIVOT_POINT),
        grid=simulate.MarkerGrid(pose=GRID_POSE), schedule=schedule,
        noise_sigma=NOISE_SIGMA, seed=seed, tolerances=TOLERANCES["point"])


def hinge_scenario(rng, name: str, steps: int, seed: int):
    """Swing by up to +-25 degrees about the bundled hinge, with free translations."""
    angles = rng.uniform(-25.0, 25.0, size=steps)
    shifts = rng.uniform(-0.3, 0.3, size=(steps, 3))
    schedule = [simulate.MotionStep(angle=math.radians(a), translation=t)
                for a, t in zip(angles, shifts)]
    return simulate.ScenarioConfig(
        name=name, contact=simulate.FixedDirectionContact(HINGE_DIRECTION),
        grid=simulate.MarkerGrid(pose=GRID_POSE), schedule=schedule,
        noise_sigma=NOISE_SIGMA, seed=seed, tolerances=TOLERANCES["direction"])


class Workload:
    """One set of inputs and the op that runs over them.

    `cycle` names the input of each op in the order they repeat; op i uses
    `cycle[i % len(cycle)]`. `op` is the timed call and returns what `check`
    needs; `check` and `final_check` are not timed and return an error
    message (None when correct). `final_check` runs once after the loop and
    maps a cycle key to an error that fails every op of that key.
    """

    name = ""
    cycle: tuple = ()
    frames: dict = {}  # marker frames each cycle key carries through an op
    markers = 0

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> str | None:
        raise NotImplementedError

    def final_check(self) -> dict:
        return {}

    def shape(self) -> dict:
        frames = sorted(set(self.frames.values()))
        return {"frames": frames[0] if len(frames) == 1 else frames,
                "markers": self.markers, "cycle": list(self.cycle)}


class Scenarios(Workload):
    """`tacloc roundtrip` over the bundled scenario files, cycled in name order.

    The seed only picks which scenario the cycle starts at.
    """

    name = "scenarios"

    def __init__(self, seed: int, workdir: Path, pins: dict):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        start = seed % len(files)
        self.files = files[start:] + files[:start]
        self.cycle = tuple(f.stem for f in self.files)
        docs = [json.loads(f.read_text()) for f in self.files]
        self.frames = {f.stem: len(doc["schedule"]) + 1 for f, doc in zip(self.files, docs)}
        grid = docs[0]["grid"]
        self.markers = grid["rows"] * grid["cols"]
        self.workdir = workdir
        self.pins = pins["scenarios"]

    def op(self, i: int):
        path = self.files[i % len(self.files)]
        return _run_cli([["roundtrip", "--scenario", str(path),
                          "--workdir", str(self.workdir / path.stem)]])

    def check(self, i: int, output) -> str | None:
        (code,), text = output
        if code != 0:
            return f"exit code {code}: {text.strip()[-200:]}"
        if not text.rstrip().endswith(": PASS"):
            return "roundtrip did not print PASS"
        key = self.cycle[i % len(self.cycle)]
        pins = self.pins.get(key)
        if pins is None:
            return f"no pinned SHA-256 for bundled scenario {key}"
        for name, pin in (("markers.json", pins["markers"]), ("truth.json", pins["truth"])):
            if sha256(self.workdir / key / name) != pin:
                return f"{key}/{name}: SHA-256 differs from the pinned one"
        return None

    def final_check(self) -> dict:
        errors = {}
        for key in self.cycle:
            log = self.workdir / key / "markers.json"
            if log.exists():
                error = rewrite_mismatch(log, self.workdir / key / "rewrite.json")
                if error:
                    errors[key] = error
        return errors


class LargeLog(Workload):
    """simulate --truth -> register -> estimate --type line, through files.

    One seeded edge-contact scenario on a large grid, written once as a
    scenario file. Every op rewrites the same log, so every op's log and
    truth must hash the same as the first op's (and as the pinned SHA-256s
    when the seed has pins).
    """

    name = "large_log"
    cycle = ("line",)

    def __init__(self, seed: int, workdir: Path, pins: dict,
                 rows: int = 40, cols: int = 40, frames: int = 100):
        rng = np.random.default_rng([seed, 1])
        self.config = edge_scenario(rng, f"large_log_{seed}", frames - 1, rows, cols, seed)
        self.frames = {"line": frames}
        self.markers = rows * cols
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.scenario = workdir / "scenario.json"
        tio.write_scenario(self.scenario, self.config)
        self.log = workdir / "markers.json"
        self.truth = workdir / "truth.json"
        self.report = workdir / "report.json"
        full_size = (rows, cols, frames) == (40, 40, 100)
        self.pinned = pins["large_log"].get(str(seed)) if full_size else None
        self.first = None

    def op(self, i: int):
        n0 = ",".join(f"{v:.17g}" for v in self.config.contact.surface_normal)
        return _run_cli([
            ["simulate", "--scenario", str(self.scenario), "--out", str(self.log),
             "--truth", str(self.truth)],
            ["register", "--log", str(self.log), "--out", str(self.workdir / "motions.json")],
            ["estimate", "--type", "line", "--log", str(self.log), f"--n0={n0}",
             "--out", str(self.report)],
        ])

    def check(self, i: int, output) -> str | None:
        codes, text = output
        if codes != [0, 0, 0]:
            return f"exit codes {codes}: {text.strip()[-200:]}"
        hashes = {"markers": sha256(self.log), "truth": sha256(self.truth)}
        if self.first is None:
            self.first = hashes
        expected = self.pinned or self.first
        for name in hashes:
            if hashes[name] != expected[name]:
                source = "pinned" if self.pinned else "first op's"
                return f"{name} SHA-256 differs from the {source}"
        estimate = json.loads(self.report.read_text())["estimate"]
        return truth_errors("line", self.config.contact,
                            estimate["point"], estimate["direction"])

    def final_check(self) -> dict:
        if not self.log.exists():
            return {}
        error = rewrite_mismatch(self.log, self.workdir / "rewrite.json")
        return {"line": error} if error else {}


class LongSequence(Workload):
    """generate -> register_sequence -> estimator, in memory with no files.

    Three seeded long scenarios on the bundled 11x11 grid; ops cycle
    point -> direction -> line, each using the matching estimator.
    """

    name = "long_sequence"
    cycle = ("point", "direction", "line")

    def __init__(self, seed: int, frames: int = 2000):
        rng = np.random.default_rng([seed, 2])
        steps = frames - 1
        self.configs = {
            "point": pivot_scenario(rng, "long_pivot", steps, seed),
            "direction": hinge_scenario(rng, "long_hinge", steps, seed + 1),
            "line": edge_scenario(rng, "long_edge", steps, 11, 11, seed + 2),
        }
        self.frames = {key: frames for key in self.cycle}
        self.markers = 121

    def op(self, i: int):
        kind = self.cycle[i % len(self.cycle)]
        config = self.configs[kind]
        frames, _ = simulate.generate(config)
        motions = registration.register_sequence(frames)
        if kind == "point":
            return estimators.estimate_fixed_point(motions)
        if kind == "direction":
            return estimators.estimate_fixed_direction(motions)
        return estimators.estimate_line_contact(motions, config.contact.surface_normal)

    def check(self, i: int, output) -> str | None:
        kind = self.cycle[i % len(self.cycle)]
        return truth_errors(kind, self.configs[kind].contact, output.point, output.direction)


NAMES = ("scenarios", "large_log", "long_sequence")


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Build a workload at its benchmark shape."""
    if name == "scenarios":
        return Scenarios(seed, workdir, load_pins())
    if name == "large_log":
        return LargeLog(seed, workdir, load_pins())
    if name == "long_sequence":
        return LongSequence(seed)
    raise ValueError(f"unknown workload {name!r}")
