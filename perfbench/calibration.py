"""Machine-speed calibration for the benchmark's timings.

On a shared VM the same Python code runs up to ~1.5x faster or slower from
one half-minute to the next, which swamps a change of a few per cent.  Right
before each timed request the benchmark times this fixed pure-Python loop,
which does not touch hornexplain, and scales the request's wall time by
``REFERENCE_S / loop time``: reported times are at a fixed reference speed,
and a change to the library moves them while machine drift mostly cancels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# about the loop's time on a 2-vCPU Intel Xeon VM, where the workloads were
# sized; it only sets the scale of the reported times
REFERENCE_S = 0.005


@dataclass(frozen=True)
class _Term:
    fn: str
    arg: object


def _work() -> int:
    """Nested frozen dataclasses in dicts and sets, as the library uses."""
    terms = [_Term("c", i) for i in range(40)]
    seen: dict[_Term, int] = {}
    for depth in range(8):
        terms = [_Term(f"f{depth % 3}", t) for t in terms]
        for t in terms:
            seen[t] = seen.get(t, 0) + 1
        pairs = {(a, b) for a in terms[:12] for b in terms[:12] if a != b}
        seen[_Term("p", len(pairs))] = depth
    return len(sorted(seen, key=lambda t: (t.fn, str(t.arg)[:20])))


def factor() -> float:
    """REFERENCE_S over the loop's wall time now."""
    start = time.perf_counter()
    _work()
    return REFERENCE_S / (time.perf_counter() - start)
