"""Per-layer spans recorded at the library's module boundaries.

``Tracer.install`` rebinds each public function named in ``LAYERS`` in every
``hornexplain`` module that has bound it by name (``search`` and ``compress``
both import ``saturate``-family functions, for instance), so calls between
modules are seen as well as calls from the benchmark.  Generators such as
``match_conjunction`` get one span per resume.  Spans carry the request id
and their parent span; they are kept in memory while ``recording`` is set
and written out at the end of the run.  A span's self time is its duration
minus its children's.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Optional

LAYERS = {
    "parser": ("parse_document",),
    "chase": ("entails", "chase"),
    "matching": ("match_conjunction",),
    "deriver_sk": ("saturate", "saturate_kb"),
    "search": ("explain", "bounded_search", "bounded_search_cq"),
    "compress": ("compress_el", "compress_dllite", "dp_min_tree",
                 "decompress", "el_cq_min_treesize",
                 "tree_query_min_treesize", "dllite_query_min_size"),
    "deriver_cq": ("transform_sk_to_cq", "transform_cq_to_sk"),
    "proofs": ("validate_proof", "proof_to_json", "proof_from_json"),
}

_SEARCHES = ("search.bounded_search", "search.bounded_search_cq")
_TRANSFORMS = ("deriver_cq.transform_sk_to_cq",
               "deriver_cq.transform_cq_to_sk")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []    # (request, id, parent, name, t0, t1)
        self.request = 0
        self.enabled = False
        self.recording = True           # keep spans; off after the first pass
        self._stack: list[list] = []    # [span id, name, child seconds]
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new tally; spans already recorded are kept."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.fell_back: set[int] = set()   # el_cq_min_treesize span ids
                                           # that realized the witness

    # -- spans --------------------------------------------------------------

    def _timed(self, name: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            duration = t1 - t0
            if self._stack:
                self._stack[-1][2] += duration
            self.self_s[name] += duration - frame[2]
            if self.recording:
                self.spans.append((self.request, sid, parent, name, t0, t1))

    def under(self, *names: str) -> Optional[int]:
        """Id of the innermost open span with one of these names."""
        for frame in reversed(self._stack):
            if frame[1] in names:
                return frame[0]
        return None

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn as a span of its own (the benchmark's request root)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._timed(name, fn, args, kwargs)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.enabled:
                    return gen
                tracer.calls[name] += 1
                return tracer._resumes(name, gen)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            nested_search = (name in _SEARCHES
                             and tracer.under(*_SEARCHES) is not None)
            # the realization fallback is the only saturate_kb call made
            # inside el_cq_min_treesize (compress_el calls saturate)
            fallback = (tracer.under("compress.el_cq_min_treesize")
                        if name == "deriver_sk.saturate_kb" else None)
            try:
                result = tracer._timed(name, fn, args, kwargs)
            except Exception:
                if name in _TRANSFORMS:
                    tracer.counts["deriver_cq.errors"] += 1
                raise
            tracer._count(name, args, result, nested_search, fallback)
            return result
        return traced

    def _resumes(self, name: str, gen):
        try:
            while True:
                try:
                    item = self._timed(name, next, (gen,), {})
                except StopIteration:
                    return
                self.counts["matching.matches"] += 1
                yield item
        finally:
            gen.close()

    def _count(self, name, args, result, nested_search, fallback) -> None:
        c = self.counts
        if name == "deriver_sk.saturate":
            c["deriver_sk.vertices"] += len(result.vertices)
            c["deriver_sk.edges"] += len(result.edges)
        elif name == "deriver_sk.saturate_kb":
            if fallback is not None:
                c["compress.fallbacks"] += 1
                self.fell_back.add(fallback)
        elif name == "chase.chase":
            c["chase.atoms"] += len(result.atoms)
        elif name in _SEARCHES and not nested_search:
            c["search.nodes"] += result.nodes
            if result.status == "found":
                c["search.found"] += 1
                c["search.certified"] += bool(result.complete)
        elif name == "deriver_cq.transform_sk_to_cq":
            c["deriver_cq.vertices_in"] += len(args[0].vertices)
            c["deriver_cq.vertices_out"] += len(result.vertices)
        elif name == "proofs.validate_proof":
            c["proofs.vertices"] += len(args[0].vertices)
        elif name == "proofs.proof_to_json":
            c["proofs.json_bytes"] += len(result)
        elif name == "parser.parse_document":
            c["parser.bytes"] += len(args[0])

    def install(self) -> None:
        """Rebind every listed function wherever a hornexplain module
        binds it by name."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hornexplain"
                                         or n.startswith("hornexplain."))]
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"hornexplain.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines, one array per
        span: [request, id, parent, name, start, end], times in seconds
        from the first span's start."""
        origin = self.spans[0][4] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for request, sid, parent, name, t0, t1 in self.spans:
                handle.write(json.dumps(
                    [request, sid, parent, name, round(t0 - origin, 7),
                     round(t1 - origin, 7)]) + "\n")
