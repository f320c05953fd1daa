"""Run one benchmark workload against the hornexplain library.

    python3 perfbench/run.py --workload exact-mix --seed 1 --seconds 15 --trace 0

Load model: one process, one thread, a closed loop with one client; the next
request starts when the previous one has finished.  The seed draws the
request deck (see workloads.py); the library only sees KB text.

--trace 0 times whole passes over the deck, as many as fill --seconds at the
reference speed (and at least MIN_REQUESTS requests), and reports the
end-to-end metrics.  --trace 1 runs the known-defect probes once and every
request class of the deck beyond the first TRACE_BLOCKS blocks once (so that
proofs.json_changed covers the whole deck), then makes passes over those
first blocks until --seconds have gone by since the start, at least one,
running each request untraced and then traced, and reports the per-layer
metrics; spans of the first pass go to perfbench/out/.

Times are scaled to a reference machine speed (see calibration.py); the
summary line also gives the raw wall-time figures.  Human-readable lines go
first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  Every answer is checked
against its oracle; a request fails on an exception, a wrong status or
value, a proof that fails validation, or a JSON round trip that is not
byte-identical.  The exit code is 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_REQUESTS = 100          # p90 then has at least 10 samples beyond it
PASS_S = 15.0               # one pass over any deck, at the reference speed
SETUP_REPEATS = 5
TRACE_BLOCKS = {"exact-mix": 2, "poly-tree": 2, "sat-decide": 3}

# per-layer metrics, reported as <name>.self_s, <name>.calls and <name>
PER_LAYER_TIMES = [
    "matching.match_conjunction", "deriver_sk.saturate", "chase.entails",
    "chase.chase", "search.bounded_search", "search.bounded_search_cq",
    "compress.compress_el", "compress.compress_dllite", "compress.dp_min_tree",
    "compress.decompress", "deriver_cq.transform_sk_to_cq",
    "deriver_cq.transform_cq_to_sk", "proofs.validate_proof",
    "proofs.proof_to_json", "proofs.proof_from_json", "parser.parse_document",
]
PER_LAYER_COUNTS = {
    "matching.matches": "count", "deriver_sk.vertices": "count",
    "deriver_sk.edges": "count", "chase.atoms": "count",
    "search.nodes": "count", "compress.fallbacks": "count",
    "deriver_cq.errors": "count", "proofs.vertices": "count",
    "proofs.json_bytes": "bytes", "parser.bytes": "bytes",
}
PER_LAYER_CALLS = [
    "matching.match_conjunction", "deriver_sk.saturate", "chase.chase",
]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.

    Latencies cluster by request class, so a single order statistic jumps
    between clusters from run to run; the weighted mean does not.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16                    # midpoint rule inside each 1/n interval
    weights = []
    for i in range(n):
        ts = [(i + (k + 0.5) / steps) / n for k in range(steps)]
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t)
                                    + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def import_library():
    """Import hornexplain afresh (dropping any earlier import)."""
    for name in [n for n in sys.modules
                 if n == "hornexplain" or n.startswith("hornexplain.")]:
        del sys.modules[name]
    return importlib.import_module("hornexplain")


def setup(workload: str, seed: int, repeats: int):
    """Import, generate and serialize; returns (median scaled seconds, hx,
    deck)."""
    times = []
    for _ in range(repeats):
        speed = calibration.factor()
        start = time.perf_counter()
        hx = import_library()
        deck = workloads.build_deck(workload, seed, hx)
        times.append(speed * (time.perf_counter() - start))
    return statistics.median(times), hx, deck


class Runner:
    """Executes requests and keeps the tallies every mode reports."""

    def __init__(self, hx, pins: dict):
        self.hx, self.pins = hx, pins
        self.attempted = 0
        self.failures: list[str] = []
        self.changed: set[str] = set()

    def run(self, req) -> float:
        """Execute one request; returns its wall time in seconds."""
        req = workloads.with_pins(req, self.pins)
        self.attempted += 1
        start = time.perf_counter()
        try:
            failure, _, text = workloads.execute(self.hx, req)
        except Exception as exc:  # noqa: BLE001 - any exception fails it
            failure, text = f"{type(exc).__name__}: {exc}", None
        elapsed = time.perf_counter() - start
        if failure is not None:
            self.failures.append(f"{req.key}: {failure}"[:300])
        elif self.json_changed(req.key, text):
            self.changed.add(req.key)
        return elapsed

    def json_changed(self, key: str, text) -> bool:
        digest = (hashlib.sha256(text.encode()).hexdigest()
                  if text is not None else None)
        return self.pins.get(key, {}).get("sha256") != digest


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def end_to_end(args, runner: Runner, deck, setup_s: float) -> dict:
    """Time whole passes over the deck, as many as fill --seconds at the
    reference speed.

    Whole passes keep the mix of request classes the same in every run.
    The number of passes follows from --seconds alone, not from the
    machine's speed: in one process a second pass ran about 25 % slower
    (scaled) than the first, so runs that made a different number of
    passes did not compare.
    """
    requests = workloads.flatten(deck)
    passes = max(round(args.seconds / PASS_S),
                 math.ceil(MIN_REQUESTS / len(requests)))
    raw: list[float] = []
    scaled: list[float] = []
    start = time.perf_counter()
    for _ in range(passes):
        for req in requests:
            speed = calibration.factor()
            raw.append(runner.run(req))
            scaled.append(speed * raw[-1])
    elapsed = time.perf_counter() - start
    p50, p90 = quantile(scaled, 0.5), quantile(scaled, 0.9)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{args.workload} seed {args.seed}: {len(raw)} requests in "
          f"{elapsed:.2f} s (deck {len(requests)}), "
          f"fail_share {len(runner.failures)}/{runner.attempted}, "
          f"latency p50 {1000 * p50:.1f} ms and p90 {1000 * p90:.1f} ms "
          f"over {len(raw)} samples (raw wall time: "
          f"{1000 * quantile(raw, 0.5):.1f} ms, "
          f"{1000 * quantile(raw, 0.9):.1f} ms, "
          f"{len(raw) / sum(raw):.3f} requests/s), "
          f"proofs.json_changed {len(runner.changed)}, "
          f"src_lines {src_lines()}")
    return {
        "setup_s": metric(setup_s, "s"),
        "latency_p50_ms": metric(1000 * p50, "ms"),
        "latency_p90_ms": metric(1000 * p90, "ms"),
        "throughput_rps": metric(len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }


def probe_defects(args, runner: Runner) -> int:
    """Run the known-defect probes once, untraced; count those failing."""
    if args.workload != "exact-mix":
        return 0
    probe = Runner(runner.hx, runner.pins)
    for req, seen_at_seed in workloads.exact_mix_probes(runner.hx):
        failures = len(probe.failures)
        probe.run(req)
        status = probe.failures[-1] if len(probe.failures) > failures \
            else "passes now"
        print(f"defect probe {req.key} (seed code: {seen_at_seed}): "
              f"{status[:160]}")
    return len(probe.failures)


def per_layer(args, runner: Runner, deck) -> dict:
    start = time.perf_counter()
    defects = probe_defects(args, runner)
    requests = workloads.flatten(deck[:TRACE_BLOCKS[args.workload]])
    # every other class of the deck once, untraced, for proofs.json_changed
    done = {req.key for req in requests}
    for req in workloads.flatten(deck):
        if req.key not in done:
            done.add(req.key)
            runner.run(req)
    tracer = Tracer()
    tracer.install()
    walls: list[tuple[float, float]] = []       # (untraced, traced) per pass
    self_s: dict[str, list[float]] = {name: [] for name in PER_LAYER_TIMES}
    first = None
    while not walls or time.perf_counter() - start < args.seconds:
        # each request runs untraced, then traced, so that the overhead
        # compares the two under the same machine conditions
        tracer.reset()
        untraced = traced = 0.0
        layer_s = dict.fromkeys(PER_LAYER_TIMES, 0.0)
        for req in requests:
            speed = calibration.factor()
            untraced += speed * runner.run(req)
            speed = calibration.factor()
            before = dict(tracer.self_s)
            tracer.enabled = True
            tracer.request += 1
            traced += speed * tracer.span("request", runner.run, req)
            tracer.enabled = False
            for name in PER_LAYER_TIMES:
                layer_s[name] += speed * (tracer.self_s[name]
                                          - before.get(name, 0.0))
        walls.append((untraced, traced))
        for name in PER_LAYER_TIMES:
            self_s[name].append(layer_s[name])
        if first is None:
            first = (tracer.counts.copy(), tracer.calls.copy(),
                     len(tracer.fell_back))
            tracer.recording = False
    counts, calls, fell_back = first
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(path)
    overhead = statistics.median(traced - untraced
                                 for untraced, traced in walls)
    print(f"traced {len(requests)} requests per pass, "
          f"{len(walls)} passes; {len(tracer.spans)} spans -> {path}; "
          f"fail_share {len(runner.failures)}/{runner.attempted}; "
          f"defects.failed {defects}")

    def share(part, whole):
        return part / whole if whole else 0.0

    out = {f"{name}.self_s": metric(statistics.median(self_s[name]), "s")
           for name in PER_LAYER_TIMES}
    out.update({f"{name}.calls": metric(calls[name], "count")
                for name in PER_LAYER_CALLS})
    out.update({name: metric(counts[name], unit)
                for name, unit in PER_LAYER_COUNTS.items()})
    out["search.certified_share"] = metric(
        share(counts["search.certified"], counts["search.found"]), "ratio")
    out["compress.fallback_share"] = metric(
        share(fell_back, calls["compress.el_cq_min_treesize"]), "ratio")
    out["deriver_cq.growth"] = metric(
        share(counts["deriver_cq.vertices_out"],
              counts["deriver_cq.vertices_in"]), "ratio")
    out["proofs.json_changed"] = metric(len(runner.changed), "count")
    out["trace.requests"] = metric(len(requests), "count")
    out["trace.overhead_s"] = metric(overhead, "s")
    out["defects.failed"] = metric(defects, "count")
    out["src_lines"] = metric(src_lines(), "lines")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hornexplain" / "__init__.py").is_file():
        print(f"error: the hornexplain sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    setup_s, hx, deck = setup(args.workload, args.seed, repeats)
    runner = Runner(hx, workloads.load_pins())
    if args.trace:
        metrics = per_layer(args, runner, deck)
    else:
        metrics = end_to_end(args, runner, deck, setup_s)
    for failure in runner.failures[:20]:
        print(f"failed: {failure}")
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
