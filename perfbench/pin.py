"""Write pins.json: each request class's expected value and the sha256 of
its proof JSON, taken from a run of the current code.

    python3 perfbench/pin.py

The committed pins come from the seed code.  Regenerate them only for a
change that means to alter answers or proof JSON, and say why in it:
the benchmark counts every pinned class whose proof JSON differs as
``proofs.json_changed`` and fails any request whose value differs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import hornexplain as hx  # noqa: E402


def pin_request(req: workloads.Request) -> dict:
    expected = req.value
    start = time.perf_counter()
    try:
        failure, value, text = workloads.execute(
            hx, replace(req, value=None))
    except Exception as exc:  # noqa: BLE001 - recorded, not raised
        failure, value, text = f"{type(exc).__name__}: {exc}"[:200], None, None
    entry = {"value": value,
             "sha256": hashlib.sha256(text.encode()).hexdigest()
             if text is not None else None}
    if failure is not None:
        entry["failure"] = failure
    if expected is not None and value != expected:
        entry["failure"] = f"value {value}, oracle says {expected}"
    entry["ms"] = round(1000 * (time.perf_counter() - start), 1)
    return entry


def main() -> int:
    pins = {}
    for workload in workloads.WORKLOADS:
        for req in workloads.pool_requests(workload, hx):
            entry = pin_request(req)
            pins[req.key] = entry
            print(workload, req.key, entry, file=sys.stderr, flush=True)
    timings = {key: entry.pop("ms") for key, entry in pins.items()}
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(pins[key], sort_keys=True)}"
            for key in sorted(pins)) + "\n}\n")
    total = sum(timings.values()) / 1000
    print(f"pinned {len(pins)} classes in {total:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
