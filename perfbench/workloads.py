"""Seeded request workloads and their answer oracles.

A request is what one command-line call costs a user: parse the KB text,
``explain``, validate the proof, round-trip it through JSON (checked
byte-identical) and, where the workload says so, translate the proof to the
other inference system and back, validating each translation.  The program
only ever sees the KB text, which the benchmark builds with
``hornexplain.generators`` and ``serialize_document``.

Every workload draws from a finite pool of request classes, so each class can
carry a pinned expected answer and a pinned sha256 of its proof JSON
(``pins.json``, written by ``pin.py``).  A deck is ``BLOCKS`` blocks, and each
block holds ``per_block`` draws from every stratum of the workload; see
``build_deck`` for how the seed enters.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

RUNNING_EXAMPLE = """\
rule: A(x) -> exists y. r(x,y), B(y)
rule: B(x) -> exists z. s(x,z), A(z)
rule: s(x,y), r(z,x) -> E(x)
rule: E(x), r(y,x) -> D(y)
fact: A(a)
query: exists xp, y. r(a,y), r(xp,y), D(xp)
"""

# sat-decide formulas come from a fixed pool, so every one has pinned proof
# JSON; the run seed picks which pool members a deck uses
SAT_POOL_SEED = 20220830
SAT_POOL_PER_CELL = 20
SAT_CELLS = [(k, m, sat) for sat in (True, False) for k in (3, 4)
             for m in ((2, 3, 4) if sat else (3, 4))]
TREE_QUERY_SEEDS = 120


@dataclass(frozen=True)
class Request:
    key: str                      # pool class; indexes pins.json
    text: str                     # KB document with one query
    measure: str                  # size | tree | domain
    algo: str                     # exact | auto
    deriver: str = "sk"
    ceiling: Optional[int] = None
    bound: Optional[int] = None   # decision mode
    translate: bool = False
    status: str = "found"         # expected outcome
    value: Optional[int] = None   # expected value; None: only value <= bound
    source: str = "pinned"        # where status and value come from


@dataclass(frozen=True)
class Stratum:
    name: str
    per_block: int
    lo: int                               # parameter range, inclusive
    hi: int
    make: Callable[[object, int], Request]   # (hornexplain, param) -> Request
    log: bool = False                     # sample the range log-uniformly
    pool: bool = False                    # draw members at random instead


def _text(hx, inst) -> str:
    return hx.serialize_document(inst.kb, [inst.query])


def _pick(stratum: Stratum, u: float) -> int:
    """Parameter at quantile u (0 <= u < 1) of the stratum's range."""
    lo, hi = stratum.lo, stratum.hi
    if stratum.log:
        return min(int(lo * ((hi + 1) / lo) ** u), hi)
    return min(lo + int(u * (hi - lo + 1)), hi)


# ---------------------------------------------------------------------------
# exact-mix: exact branch-and-bound, then sk -> cq -> sk
# ---------------------------------------------------------------------------

def _exact(key, text, measure, ceiling=None, value=None, source="pinned"):
    return Request(key, text, measure, "exact", ceiling=ceiling,
                   translate=True, value=value, source=source)


def _el_abox_exact(measure):
    def make(hx, n):
        inst = hx.gen_el_abox(n)
        if measure == "size":
            return _exact(f"el-abox/{n}/size", _text(hx, inst), "size",
                          value=inst.bounds["size"], source="bounds")
        return _exact(f"el-abox/{n}/{measure}", _text(hx, inst), measure)
    return make


def _dllite_exact(measure):
    return lambda hx, n: _exact(f"dllite-chain/{n}/{measure}",
                                _text(hx, hx.gen_dllite_chain(n)), measure)


_MEASURES = ("size", "tree", "domain")
_EL_TREE_OK = [(3, "size"), (3, "domain"), (5, "size"), (5, "domain")]
_COUNTER_1 = [(c, m) for c in (3, 4, 5) for m in _MEASURES]

EXACT_MIX = [
    Stratum("running-example", 3, 0, 2, lambda hx, i: _exact(
        f"running-example/{_MEASURES[i]}", RUNNING_EXAMPLE, _MEASURES[i])),
    Stratum("el-tree", 4, 0, 3, lambda hx, i: _exact(
        f"el-tree/{_EL_TREE_OK[i][0]}/{_EL_TREE_OK[i][1]}",
        _text(hx, hx.gen_el_tree(_EL_TREE_OK[i][0])), _EL_TREE_OK[i][1])),
    Stratum("hornalc-counter-1", 3, 0, 8, lambda hx, i: _exact(
        f"hornalc-counter/1/{_COUNTER_1[i][1]}/c{_COUNTER_1[i][0]}",
        _text(hx, hx.gen_hornalc_counter(1)), _COUNTER_1[i][1],
        ceiling=_COUNTER_1[i][0])),
    Stratum("el-abox-size", 1, 10, 60, _el_abox_exact("size"), log=True),
    Stratum("el-abox-domain", 1, 10, 60, _el_abox_exact("domain"), log=True),
    Stratum("dllite-chain-size", 1, 20, 120, _dllite_exact("size"), log=True),
    Stratum("dllite-chain-domain", 1, 20, 120, _dllite_exact("domain"),
            log=True),
]


def exact_mix_probes(hx) -> list[tuple[Request, str]]:
    """Requests that fail on the seed code, with the failure seen there.

    They are not in the timed deck: a request of the deck must not fail.
    The traced run executes each once and reports how many still fail as
    ``defects.failed``, so a fix shows as a lower count.
    """
    def el_tree(n, m):
        return _exact(f"el-tree/{n}/{m}", _text(hx, hx.gen_el_tree(n)), m)
    transform = "TransformError: no derivation recorded"
    return [
        (el_tree(4, "size"), transform),
        (el_tree(4, "domain"), transform),
        (el_tree(6, "size"), transform),
        (el_tree(6, "domain"), transform),
        (el_tree(7, "size"), transform),
        (el_tree(7, "domain"), transform),
        (el_tree(8, "size"), "RecursionError in explain"),
        (el_tree(8, "domain"), "RecursionError in explain"),
        (_exact("hornalc-counter/2/tree/c3",
                _text(hx, hx.gen_hornalc_counter(2)), "tree", ceiling=3),
         transform),
    ]


# ---------------------------------------------------------------------------
# poly-tree: tree size on the polynomial routes
# ---------------------------------------------------------------------------

def _poly(key, text, value=None, source="pinned"):
    return Request(key, text, "tree", "auto", value=value, source=source)


def _tree_query(hx, s):
    return _poly(f"dllite-tree-query/{s}",
                 _text(hx, hx.gen_dllite_tree_query(1 + s % 3, s)))


def _el_abox_poly(hx, n):
    inst = hx.gen_el_abox(n)
    return _poly(f"el-abox/{n}/tree", _text(hx, inst),
                 value=inst.bounds["tree"], source="bounds")


POLY_TREE = [
    Stratum("dllite-chain", 2, 50, 300, lambda hx, n: _poly(
        f"dllite-chain/{n}/tree", _text(hx, hx.gen_dllite_chain(n))),
            log=True),
    Stratum("dllite-tree-query", 5, 0, TREE_QUERY_SEEDS - 1, _tree_query,
            pool=True),
    Stratum("el-abox", 4, 20, 200, _el_abox_poly, log=True),
    Stratum("el-tree", 2, 5, 8, lambda hx, n: _poly(
        f"el-tree/{n}/tree", _text(hx, hx.gen_el_tree(n)))),
]


# ---------------------------------------------------------------------------
# sat-decide: decision mode at the reductions' stated bounds
# ---------------------------------------------------------------------------

def _random_cnf(rng: random.Random, k: int, m: int) -> list[list[int]]:
    """m clauses of 1..3 distinct literals over variables 1..k, using k."""
    while True:
        clauses = []
        for _ in range(m):
            width = rng.randint(1, 3)
            clauses.append([v if rng.random() < 0.5 else -v
                            for v in rng.sample(range(1, k + 1), width)])
        if any(abs(lit) == k for c in clauses for lit in c):
            return clauses


def sat_pool(hx) -> dict[tuple, list[list[list[int]]]]:
    """Distinct formulas per (k, m, satisfiable) cell, drawn once from a
    fixed seed; brute_force_sat sorts them into cells."""
    rng = random.Random(SAT_POOL_SEED)
    pool: dict[tuple, list] = {cell: [] for cell in SAT_CELLS}
    seen: set[str] = set()
    for _ in range(200_000):
        if all(len(v) >= SAT_POOL_PER_CELL for v in pool.values()):
            break
        k, m = rng.choice((3, 4)), rng.choice((2, 3, 4))
        clauses = _random_cnf(rng, k, m)
        sig = json.dumps(clauses)
        sets = [frozenset(c) for c in clauses]
        if sig in seen or len(set(sets)) < len(sets):
            continue
        seen.add(sig)
        cell = (k, m, hx.brute_force_sat(sets, k))
        if cell in pool and len(pool[cell]) < SAT_POOL_PER_CELL:
            pool[cell].append(clauses)
    return pool


def _sat_requests(hx, clauses, tag: str) -> list[Request]:
    sk, cq = hx.gen_sat(clauses), hx.gen_sat_cq(clauses)
    truth = hx.brute_force_sat([frozenset(c) for c in sk.bounds["clauses"]],
                               sk.bounds["k"])
    status = "found" if truth else "none"
    text_sk, text_cq = _text(hx, sk), _text(hx, cq)
    common = dict(algo="auto", translate=True, status=status,
                  source="brute_force_sat")
    return [
        Request(f"sat/{tag}/size", text_sk, "size",
                bound=sk.bounds["size"], **common),
        Request(f"sat/{tag}/domain", text_sk, "domain",
                bound=sk.bounds["domain"], **common),
        Request(f"sat/{tag}/cq-tree", text_cq, "tree", deriver="cq",
                bound=cq.bounds["cq_tree"], **common),
    ]


def _sat_strata(hx) -> list[Stratum]:
    strata = []
    for (k, m, sat), formulas in sat_pool(hx).items():
        tag = f"k{k}-m{m}-{'sat' if sat else 'unsat'}"
        strata.append(Stratum(
            tag, 1, 0, len(formulas) - 1,
            lambda hx, i, f=formulas, t=tag:
                _sat_requests(hx, f[i], f"{t}/{i}"),
            pool=True))
    return strata


# ---------------------------------------------------------------------------
# Decks
# ---------------------------------------------------------------------------

WORKLOADS = ("exact-mix", "poly-tree", "sat-decide")
BLOCKS = {"exact-mix": 8, "poly-tree": 8, "sat-decide": 12}


def strata(workload: str, hx) -> list[Stratum]:
    if workload == "exact-mix":
        return EXACT_MIX
    if workload == "poly-tree":
        return POLY_TREE
    if workload == "sat-decide":
        return _sat_strata(hx)
    raise KeyError(workload)


def _spread(n: int, start: int) -> list[int]:
    """0..n-1 in an order whose every prefix is spread evenly around the
    circle: each next element is the farthest from those already taken."""
    order = [start]
    while len(order) < n:
        order.append(max((r for r in range(n) if r not in order),
                         key=lambda r: min(min((r - o) % n, (o - r) % n)
                                           for o in order)))
    return order


def build_deck(workload: str, seed: int, hx) -> list[list[Request]]:
    """The seeded request list, as blocks of one stratified draw each.

    A range stratum's draws over the whole deck sit at the midpoints of
    equal quantiles of its range, the same for every seed: a random offset
    would move every point at once, and on these steep cost curves that
    moves the deck's cost by several per cent.  The seed decides which
    block takes which points (so that every prefix of the deck covers each
    range evenly) and the order within blocks; a pool stratum draws its
    members at random without replacement.
    """
    rng = random.Random(f"{workload}:{seed}")
    n_blocks = BLOCKS[workload]
    deck: list[list[Request]] = [[] for _ in range(n_blocks)]
    for stratum in strata(workload, hx):
        total = n_blocks * stratum.per_block
        if stratum.pool:
            params = rng.sample(range(stratum.lo, stratum.hi + 1), total)
            owner = [j // stratum.per_block for j in range(total)]
        else:
            params = [_pick(stratum, (j + 0.5) / total) for j in range(total)]
            order = _spread(n_blocks, rng.randrange(n_blocks))
            position = {residue: p for p, residue in enumerate(order)}
            owner = [position[j % n_blocks] for j in range(total)]
        made: dict[int, list[Request]] = {}
        for j, param in enumerate(params):
            if param not in made:
                made[param] = _as_list(stratum.make(hx, param))
            deck[owner[j]].extend(made[param])
    for block in deck:
        rng.shuffle(block)
    return deck


def _as_list(made) -> list[Request]:
    return made if isinstance(made, list) else [made]


# ---------------------------------------------------------------------------
# Pins and checks
# ---------------------------------------------------------------------------

def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def with_pins(req: Request, pins: dict) -> Request:
    """Fill the expected value of a pinned class from pins.json."""
    if req.source != "pinned":
        return req
    return replace(req, value=pins[req.key]["value"])


def pool_requests(workload: str, hx) -> list[Request]:
    """Every class a deck of the workload can contain (for pinning)."""
    out = [req for stratum in strata(workload, hx)
           for i in range(stratum.lo, stratum.hi + 1)
           for req in _as_list(stratum.make(hx, i))]
    if workload == "exact-mix":
        out += [req for req, _ in exact_mix_probes(hx)]
    return out


def flatten(deck: Sequence[Sequence[Request]]) -> list[Request]:
    return [req for block in deck for req in block]


MEASURES = {"size": "SIZE", "tree": "TREE_SIZE", "domain": "DOMAIN_SIZE"}


def execute(hx, req: Request) -> tuple[Optional[str], Optional[int],
                                         Optional[str]]:
    """Run one request and check it against its oracle.

    Returns (failure, value, proof JSON); failure is None when every check
    passed.  Exceptions propagate: the caller counts them as failures.
    """
    doc = hx.parse_document(req.text)
    kb, q = doc.kb, doc.queries[0]
    config = hx.RunConfig(measure=getattr(hx.Measure, MEASURES[req.measure]),
                          bound=req.bound, algo=req.algo, deriver=req.deriver,
                          depth_ceiling=req.ceiling)
    result = hx.explain(kb, q, config)
    if result.status != req.status:
        return f"status {result.status}, expected {req.status}", None, None
    if result.status != "found":
        return None, None, None
    if req.value is not None and result.value != req.value:
        return f"value {result.value}, expected {req.value}", None, None
    if req.bound is not None and result.value > req.bound:
        return f"value {result.value} exceeds bound {req.bound}", None, None
    ok, problems = hx.validate_proof(result.proof, kb, q, req.deriver)
    if not ok:
        return f"invalid proof: {problems[:1]}", None, None
    text = hx.proof_to_json(result.proof, q)
    back, goal = hx.proof_from_json(text)
    if hx.proof_to_json(back, goal) != text:
        return "JSON round trip is not byte-identical", None, None
    if req.translate:
        steps = (("cq", hx.transform_sk_to_cq), ("sk", hx.transform_cq_to_sk))
        if req.deriver == "cq":
            steps = steps[::-1]
        proof = result.proof
        for target, transform in steps:
            proof = transform(proof, kb)
            ok, problems = hx.validate_proof(proof, kb, q, target)
            if not ok:
                return f"invalid {target} translation: {problems[:1]}", \
                    None, None
    return None, result.value, text
