#!/usr/bin/env python3
"""Write bench/pins.json: SHA-256s of the marker logs and truth files tacloc writes.

    python3 bench/make_pins.py

Pins every bundled scenario's roundtrip output and the large_log workload's
output for its default seed, 0. The pins gate byte-stable output: rerun this
only when a change is meant to alter the bytes written, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

LARGE_LOG_SEED = 0


def main() -> None:
    pins = {"scenarios": {}, "large_log": {}}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        tmp = Path(tmp)
        scenarios = workloads.Scenarios(0, tmp / "scenarios", pins)
        for i, key in enumerate(scenarios.cycle):
            (code,), text = scenarios.op(i)
            if code != 0 or not text.rstrip().endswith(": PASS"):
                raise SystemExit(f"roundtrip {key} failed: {text}")
            pins["scenarios"][key] = {
                name: workloads.sha256(tmp / "scenarios" / key / f"{name}.json")
                for name in ("markers", "truth")}
        large = workloads.LargeLog(LARGE_LOG_SEED, tmp / "large_log", pins)
        if large.check(0, large.op(0)) is not None:
            raise SystemExit(f"large_log seed {LARGE_LOG_SEED} failed")
        pins["large_log"][str(LARGE_LOG_SEED)] = large.first
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
