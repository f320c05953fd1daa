"""Exact bounded proof search and the algorithm router.

Proofs use one vertex per atom label.  Tree-size minima come from the value
iteration and the least-match step in :mod:`hornexplain.compress`, and
size / domain-size minima from branch-and-bound over explicit derivation
choices.  Outcomes are exact relative to the structural bounds in force
(term-depth ceiling, node and time budgets); ``none`` means the whole space
within those bounds was exhausted, ``exhausted`` that a resource limit cut
the search short (or, in the query-level search with rules, that its moves
ran out).
"""

from __future__ import annotations

import functools
import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .chase import _chase_verdict
from .compress import (CompressError, CompressedStructure, DecompressError,
                       compress_dllite, compress_el, dp_min_tree,
                       equality_free_fold, extract_witness, goal_tail_size,
                       least_matches, least_proof, min_heights, refutes, _INF)
from .deriver_cq import conjunction_chain, mpe_apply, tautology_finish
from .deriver_sk import (BudgetExceeded, FiniteStructure, Ticker,
                         default_depth_ceiling, saturate_kb)
from .kb import (Atom, BooleanCQ, Const, Fragment, KnowledgeBase, NormalForm,
                 Term, Var, atom_pred, atom_terms, cq_equivalent,
                 is_tree_shaped, orient_equality, substitute_atom)
from .matching import AtomIndex, match_conjunction
from .proofs import (Measure, ProofGraph, Schema, ground_terms_of_label,
                     measure, sub_derivation)


@dataclass
class RunConfig:
    """Everything that configures one run; its budget is :meth:`ticker`."""
    measure: Measure = Measure.SIZE
    bound: Optional[int] = None          # None: minimize
    algo: str = "auto"                   # auto | poly | exact
    deriver: str = "sk"                  # sk | cq
    depth_ceiling: Optional[int] = None
    max_nodes: int = 1_000_000
    max_seconds: float = 60.0
    strict_cg: bool = False

    def __post_init__(self):
        if self.bound is not None and self.bound <= 1:
            raise ValueError("bounds are natural numbers greater than 1")
        if self.depth_ceiling is not None and self.depth_ceiling < 0:
            raise ValueError("depth bound must be non-negative")
        if not (self.max_nodes >= 0 and self.max_seconds >= 0):
            raise ValueError("node and time budgets must be non-negative")
        if self.algo not in ("auto", "poly", "exact"):
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.deriver not in ("sk", "cq"):
            raise ValueError(f"unknown deriver {self.deriver!r}")
        if self.deriver == "cq" and self.measure is Measure.DOMAIN_SIZE:
            raise ValueError("domain size is not defined for query-level "
                             "proofs")

    def ticker(self) -> Ticker:
        """A run's budget: these nodes and seconds, and an atom cap for its
        saturations that grows with the nodes."""
        return Ticker(self.max_nodes, self.max_seconds,
                      max(1000, self.max_nodes // 4))


@dataclass
class ExplainResult:
    status: str                          # "found" | "none" | "exhausted"
    proof: Optional[ProofGraph] = None
    value: Optional[int] = None
    measure: Measure = Measure.SIZE
    algorithm: str = "exact"
    nodes: int = 0
    warnings: list[str] = field(default_factory=list)
    complete: bool = True                # certified within the bounds

    @property
    def exit_code(self) -> int:
        return {"found": 0, "none": 1, "exhausted": 2}[self.status]


def _result(config: RunConfig, ticker: Ticker, status: str,
            proof: Optional[ProofGraph] = None, value: Optional[int] = None,
            complete: bool = False, algorithm: str = "exact",
            warnings: Iterable[str] = ()) -> ExplainResult:
    return ExplainResult(status, proof, value, config.measure, algorithm,
                         ticker.count, list(warnings), complete)


# ---------------------------------------------------------------------------
# Size / domain-size search: choose a derivation per needed vertex
# ---------------------------------------------------------------------------

def _cover_min(structure: FiniteStructure, targets: list[int],
               kind: Measure, limit: int | float, ticker: Ticker,
               terms_of: Callable[[Atom], set[Term]]
               ) -> Optional[tuple[int, dict[int, Optional[int]]]]:
    """Exact minimum over derivation choices for the target set, one proof
    vertex per atom label, below ``limit``, and the chosen edge of each
    vertex of an optimum (None for a leaf); None if nothing is below.

    A node derives the least pending vertex by label key, one child per
    in-edge in the structure's order.  A child is left out where its edge
    would close a cycle of chosen derivations, or where a vertex it adds
    brings the value (the vertices, or under domain size their terms, read
    by ``terms_of``) to the best found so far.  Depth first over one state
    that all nodes share: a child's changes are applied when it is visited
    and undone from a trail once its subtree is done, so it costs time and
    memory in its own changes only, and ``members`` is copied only for a
    new best.  Cycles are found on a topological order of the chosen
    derivations kept as their arcs come and go (Pearce & Kelly, JEA 2006):
    an arc that agrees with the order costs O(1), and undoing one keeps the
    order valid.
    """
    edges, in_edges, leaves = structure.edges, structure.in_edges, \
        structure.leaf_ids
    labels, keys = structure.vertices, structure.keys
    domain = kind is Measure.DOMAIN_SIZE
    members: dict[int, Optional[int]] = {}    # vertex -> chosen edge index
    counts: dict[Term, int] = {}              # term -> members naming it
    cost = counts if domain else members      # the value is its length
    # the members still to derive, as (label key, vertex), least key first
    pending: list[tuple] = []
    # premise -> the members derived from it, and a topological order of
    # those arcs; it starts from the vertex ids, since saturation mostly
    # adds a derivation's premises before its conclusion
    arcs: dict[int, list[int]] = {}
    order = list(range(len(labels)))
    lowest = 0
    # the trail: the premises whose arcs grew, and the members added with
    # their place in ``pending`` (-1 for a leaf)
    arc_trail: list[int] = []
    added: list[int] = []
    slots: list[int] = []

    def add(v: int) -> None:
        members[v] = None
        arcs[v] = []
        if domain:
            for t in terms_of(labels[v]):
                counts[t] = counts.get(t, 0) + 1
        i = -1
        if v not in leaves:
            item = (keys[v], v)
            i = bisect_left(pending, item)
            pending.insert(i, item)
        added.append(v)
        slots.append(i)

    def undo(n_arcs: int, n_added: int) -> None:
        while len(arc_trail) > n_arcs:
            arcs[arc_trail.pop()].pop()
        while len(added) > n_added:
            v, i = added.pop(), slots.pop()
            del members[v]
            if i >= 0:
                del pending[i]
            if domain:
                for t in terms_of(labels[v]):
                    if counts[t] == 1:
                        del counts[t]
                    else:
                        counts[t] -= 1

    def reorder(x: int, y: int) -> bool:
        """Whether the arc x -> y closes no cycle, where y precedes x; if
        so, the members between them are reordered so that x precedes y
        (the forward set from y goes after the backward set from x)."""
        top, bottom = order[x], order[y]
        ahead, stack, seen = [], [y], {y}
        while stack:
            v = stack.pop()
            ahead.append(v)
            for w in arcs[v]:
                if w == x:
                    return False
                if w not in seen and order[w] < top:
                    seen.add(w)
                    stack.append(w)
        behind, stack, seen = [], [x], {x}
        while stack:
            v = stack.pop()
            behind.append(v)
            e = members[v]
            if e is None:
                continue
            # the arcs into a chosen vertex come from its edge's premises
            for w in edges[e].premises:
                if w not in seen and order[w] > bottom:
                    seen.add(w)
                    stack.append(w)
        moved = sorted(behind, key=order.__getitem__) + \
            sorted(ahead, key=order.__getitem__)
        for v, o in zip(moved, sorted(map(order.__getitem__, moved))):
            order[v] = o
        return True

    def choose(vid: int, eidx: int, cap: int | float) -> bool:
        """Derive ``vid`` by the edge; False where the child is left out."""
        nonlocal lowest
        members[vid] = eidx
        for p in edges[eidx].premises:
            fresh = p not in members
            if fresh:
                add(p)
            if members[p] is None:
                # no arc ends in p, so p may precede every member
                if order[p] > order[vid]:
                    lowest -= 1
                    order[p] = lowest
            elif p == vid or (order[p] > order[vid] and not reorder(p, vid)):
                return False
            arcs[p].append(vid)
            arc_trail.append(p)
            if fresh and len(cost) >= cap:
                return False
        return True

    for v in dict.fromkeys(targets):
        add(v)
    ticker.tick()
    if len(cost) >= limit:
        return None
    if not pending:
        return len(cost), dict(members)
    best_value, best_members = limit, None
    # per node: the vertex it derives, its in-edges, the next one to try,
    # and the trail's lengths before its children
    stack: list[list] = []

    def expand() -> None:
        _, vid = pending.pop(0)
        stack.append([vid, in_edges[vid], 0, len(arc_trail), len(added)])

    expand()
    while stack:
        frame = stack[-1]
        vid, eids, i, n_arcs, n_added = frame
        undo(n_arcs, n_added)
        if i == len(eids):
            members[vid] = None
            pending.insert(0, (keys[vid], vid))
            stack.pop()
            continue
        frame[2] = i + 1
        if not choose(vid, eids[i], best_value):
            continue
        ticker.tick()
        value = len(cost)
        if value >= best_value:
            continue
        if pending:
            expand()
        else:
            best_value, best_members = value, dict(members)
    if best_members is None:
        return None
    return best_value, best_members


# ---------------------------------------------------------------------------
# The bounded search proper
# ---------------------------------------------------------------------------

def bounded_search(kb: KnowledgeBase, q: BooleanCQ, config: RunConfig,
                   ticker: Optional[Ticker] = None) -> ExplainResult:
    """Decide whether a proof within the measure bound exists (or minimize).

    Saturates the derivation structure at term depth 0, 1, ... up to a cap
    implied by the bound and the configured ceiling, and optimizes over the
    query matches and derivation choices of each, until a complete
    structure, the frontier bound or the fold (:func:`_fold_value`)
    certifies the result.  Under a bound the proof is the first one the
    search finds within it, at the first depth that has one, and its value
    is not minimized.  Three-valued outcome; ``none`` is exact relative to
    the structural bounds.  ``ticker`` is the run's budget where the run
    spent some of it before the search (default: ``config.ticker()``).
    """
    if config.deriver == "cq":
        return bounded_search_cq(kb, q, config, ticker)

    ticker = ticker or config.ticker()
    bound, ceiling = config.bound, config.depth_ceiling
    # the equality-free fold, built at most once, when first asked, and the
    # value of its one search
    fold_value: Optional[int | float] = None

    @functools.cache
    def folded() -> Optional[CompressedStructure]:
        try:
            return equality_free_fold(kb, ticker)
        except BudgetExceeded:
            return None

    explicit_ceiling = ceiling is not None
    hard = ceiling if explicit_ceiling else default_depth_ceiling(kb, q)
    depth_want = min(bound, hard) if bound is not None else hard
    depth = 0
    # the chase can certify ``none`` beyond the saturation only where nominals
    # merge existential witnesses; elsewhere its atoms are the saturation's
    ask_chase = any(r.normal_form is NormalForm.VI for r in kb.tbox)

    best_value = _INF
    best_sigma: Optional[dict[Var, Term]] = None
    best_choice = None
    best_structure: Optional[FiniteStructure] = None
    tripped = False
    certified = False
    structure: Optional[FiniteStructure] = None

    # deepen until the result is certified: the depth-d structure holds
    # every proof within depth d, and _frontier_bound and the fold bound
    # every other
    while True:
        try:
            structure = saturate_kb(kb, depth, ticker=ticker)
        except BudgetExceeded:
            tripped = True
            structure = None
            break
        value, sigma, choice, tree_values, tripped = _search_at_depth(
            q, config, structure, ticker, best_value)
        if value < best_value:
            best_value, best_sigma, best_choice = value, sigma, choice
            best_structure = structure
        if tripped:
            break
        if bound is not None and best_value <= bound:
            break  # existence settled
        # a proof is certified optimal at best, and absent within the bound
        # at bound + 1
        target = best_value if bound is None else min(best_value, bound + 1)
        try:
            certified = structure.complete or (
                target < _INF and _frontier_bound(
                    structure, q, config, tree_values, ticker) >= target)
        except BudgetExceeded:
            tripped = True
            break
        if not certified and target < _INF:
            if fold_value is None:
                fold_value = _fold_value(q, config, folded(), ticker, target)
            certified = fold_value >= target
        if bound is None and best_value < _INF and not explicit_ceiling:
            # certifying optimality may need terms deeper than the default
            # entailment ceiling; the node and time budgets still apply
            depth_want = max(depth_want, int(best_value) - 1)
        if ask_chase and best_sigma is None and (
                not certified or _names_replaced_constant(q, structure)):
            # asked once, at the first depth without a match or a
            # certificate: read modulo its merges, a saturation can be
            # closed where merged witnesses keep it growing
            ask_chase = False
            verdict = _chase_verdict(kb, q, ceiling, ticker).verdict
            if verdict == "no":
                return _result(config, ticker, "none", complete=True)
            if verdict == "unknown" and bound is None:
                # the chase is the saturation read modulo its merges: none
                # up to the ceiling matches
                break
        if certified or depth >= depth_want:
            break
        depth = min(depth_want, depth + 1)

    if best_sigma is not None:
        assert best_structure is not None
        # the tree-size DP's chosen edges, or the cover's chosen vertices
        targets = [best_structure.atom_ids[substitute_atom(a, best_sigma)]
                   for a in q.atoms]
        proof = extract_witness(best_structure, best_choice, targets, q,
                                config.strict_cg)
        complete = not tripped and (bound is not None or certified)
        return _result(config, ticker, "found", proof, int(best_value),
                       complete)
    # ``none`` needs a certificate: a complete structure, the frontier or
    # fold bound above the bound, the chase's (asked in the loop), or a
    # query without a match in the fold
    complete = not tripped and certified \
        and not _names_replaced_constant(q, structure)
    if not complete and best_sigma is None:
        complete = refutes(folded(), q)
    return _result(config, ticker, "none" if complete else "exhausted",
                   complete=complete)


def _fold_value(q: BooleanCQ, config: RunConfig,
                folded: Optional[CompressedStructure], ticker: Ticker,
                target: int | float) -> int | float:
    """A lower bound on every proof's cost, from one search over the
    equality-free fold (:func:`compress.equality_free_fold`) below
    ``target``: the fold's optimum if below it, and a value at or above it
    otherwise, so it stands for every later, never larger target.

    The search spends the run's nodes and time.  One that runs out of them
    bounds nothing (0), as does a fold that could not be built or holds an
    equality atom; the run then goes on as far as its budget reaches.

    Under a bound the target is always ``bound + 1``, and the search stops
    at its first proof within the bound (:func:`_search_at_depth`).  That
    proof's value is below the target, as the fold's optimum is, so neither
    certifies the bound: the caller's ``fold_value >= target`` fails either
    way.
    """
    if folded is None:
        return 0
    value, _, _, _, tripped = _search_at_depth(
        folded.fold_query(q), config, folded.structure, ticker, target)
    return 0 if tripped else value


def _frontier_bound(structure: FiniteStructure, q: BooleanCQ,
                    config: RunConfig,
                    tree_values: Optional[dict[int, int | float]],
                    ticker: Ticker) -> int | float:
    """A lower bound on the measure of every proof of ``q`` that uses a term
    deeper than the structure's depth bound d.

    Such a proof has a depth-(d+1) term, whose d+2 ground subterms each
    need an atom of their own, so it is never below d + 2.  It also has a
    lowest vertex beyond depth d; everything below that vertex stays within
    depth d, so the vertex is derived by one of the frontier's rule
    applications from premises derivable in the structure.  Under tree
    size, that subproof costs at least 1 + the premises' tree-size values
    (``tree_values``, when the search computed them); under size, at least
    1 + the larger of the premises' least heights and their number.
    """
    floor = structure.depth_bound + 2
    kind = config.measure
    if not structure.frontier or kind is Measure.DOMAIN_SIZE:
        return floor
    if kind is Measure.TREE_SIZE:
        if tree_values is None:
            return floor
        below = min(sum(tree_values[p] for p in premises)
                    for premises in structure.frontier)
    else:
        heights = min_heights(structure, ticker)
        below = min(max(max(heights[p] for p in premises),
                        len(set(premises)))
                    for premises in structure.frontier)
    return max(floor, goal_tail_size(q, config.strict_cg) + 1 + below)


def _names_replaced_constant(q: BooleanCQ, structure: FiniteStructure) -> bool:
    """Whether an equality between two constants replaces one the query
    names.  The sk calculus rewrites such an equality one way only, so a
    query entailed modulo the merge can have no proof, and the absence of
    one certifies nothing."""
    named = {t for a in q.atoms for t in atom_terms(a) if isinstance(t, Const)}
    for a in structure.index.bucket(("=",)) if named else ():
        if isinstance(a.lhs, Const) and isinstance(a.rhs, Const):
            pair = orient_equality(a.lhs, a.rhs)
            if pair is not None and pair[0] in named:
                return True
    return False


def _path_tally(items: Callable[[Atom], Iterable]
                ) -> Callable[[list[Optional[Atom]], list[int]], int]:
    """For the matcher's ``prune`` questions, the number of distinct items
    of the atoms on its current path: each step's items are counted in
    when it is asked about and out when the matcher has left it."""
    counts: dict = {}
    path: list = []      # the items of each step's atom, in step order

    def tally(matched: list[Optional[Atom]], order: list[int]) -> int:
        depth = len(order)
        while len(path) >= depth:
            for x in path.pop():
                c = counts[x]
                if c == 1:
                    del counts[x]
                else:
                    counts[x] = c - 1
        # the steps not asked about yet: the newest, and at the first
        # question its ancestors too
        while len(path) < depth:
            xs = items(matched[order[len(path)]])
            for x in xs:
                counts[x] = counts.get(x, 0) + 1
            path.append(xs)
        return len(counts)

    return tally


def _search_at_depth(q: BooleanCQ, config: RunConfig,
                     structure: FiniteStructure, ticker: Ticker,
                     incoming_best: int | float
                     ) -> tuple[int | float, Optional[dict], Optional[dict],
                                Optional[dict], bool]:
    """The best match and derivation choice at one depth below
    ``incoming_best``, and the tree-size values if they were computed.

    Under a bound, size and domain size take the first match whose cover
    is within it, with that match's least cover, and search no further."""
    tail_count = goal_tail_size(q, config.strict_cg)
    limit = config.bound + 1 if config.bound is not None else _INF

    best_value = incoming_best
    best_sigma: Optional[dict[Var, Term]] = None
    best_choice = None
    tripped = False

    if config.measure is Measure.TREE_SIZE:
        # the least match (least assignment first); only a depth where the
        # matcher finds one pays for the values, and that first match stays
        # if the least step runs out of budget
        sigma = values = chosen = None
        try:
            first = next(match_conjunction(q.atoms, structure.index), None)
            if first is not None:
                values, chosen = dp_min_tree(structure, ticker)
                sigma = first
                sigma = next(least_matches(structure, values, q, ticker),
                             first)
        except BudgetExceeded:
            tripped = True
        total = _INF if sigma is None else tail_count + sum(
            values[structure.atom_ids[substitute_atom(a, sigma)]]
            for a in q.atoms)
        if total < min(limit, best_value):
            best_value, best_sigma, best_choice = total, sigma, chosen
        return best_value, best_sigma, best_choice, values, tripped

    # branch-and-bound over the matches: each matched atom adds cost that
    # no later choice removes, so a partial match whose lower bound reaches
    # the cap holds no match that could replace the best
    # each label's terms, computed once per depth, for the domain-size
    # prune and cover search
    terms_of = functools.cache(ground_terms_of_label)
    if config.measure is Measure.SIZE:
        tally, floor = _path_tally(lambda a: (a,)), tail_count
    else:
        tally, floor = _path_tally(terms_of), 0

    def prune(matched: list[Optional[Atom]], order: list[int]) -> bool:
        cap = min(limit, best_value)
        if cap == _INF:
            return False
        ticker.tick()
        return floor + tally(matched, order) >= cap

    try:
        for sigma in match_conjunction(q.atoms, structure.index, prune=prune):
            ticker.tick()
            targets = [structure.atom_ids[substitute_atom(atom, sigma)]
                       for atom in q.atoms]
            tail = tail_count if config.measure is Measure.SIZE else 0
            res = _cover_min(structure, targets, config.measure,
                             min(limit, best_value) - tail, ticker, terms_of)
            if res is not None:
                best_value, best_sigma = res[0] + tail, sigma
                best_choice = res[1]
                if config.bound is not None:
                    break  # a proof within the bound settles existence
    except BudgetExceeded:
        tripped = True
    return best_value, best_sigma, best_choice, None, tripped


# ---------------------------------------------------------------------------
# Query-level search (no domain size here)
# ---------------------------------------------------------------------------

def bounded_search_cq(kb: KnowledgeBase, q: BooleanCQ, config: RunConfig,
                      ticker: Optional[Ticker] = None) -> ExplainResult:
    """Bounded search over whole-query proofs.

    Exact for rule-free knowledge bases, where every proof collects facts
    with binary conjunction steps and finishes with one generalization or
    one tautology application; with rules, a node-capped forward closure is
    attempted and ``none`` is never claimed.  Under a bound the proof is
    the first one the search finds within it, and its value is not
    minimized.
    """
    if config.measure is Measure.DOMAIN_SIZE:
        raise ValueError("domain size is not defined for query-level proofs")
    ticker = ticker or config.ticker()
    index = AtomIndex(kb.abox)
    best: Optional[tuple[int, dict[Var, Term], bool]] = None
    limit = config.bound + 1 if config.bound is not None else _INF
    tail = 1 if q.existential_vars else 0

    tally = _path_tally(lambda a: (a,))

    def prune(matched: list[Optional[Atom]], order: list[int]) -> bool:
        # the Ce chain over the distinct atoms matched so far, and a final
        # step whenever the goal has variables: the tautology's two once an
        # atom repeats, since the whole match then repeats it too
        cap = min(best[0], limit) if best else limit
        if cap == _INF:
            return False
        ticker.tick()
        distinct = tally(matched, order)
        return 2 * distinct - 1 + (
            2 if distinct < len(order) else tail) >= cap

    try:
        for sigma in match_conjunction(q.atoms, index, prune=prune):
            ticker.tick()
            grounds = [substitute_atom(a, sigma) for a in q.atoms]
            distinct = list(dict.fromkeys(grounds))
            # the Ce chain, then a tautology rule and its application where
            # atoms repeat, else one generalization step if the goal has
            # variables (without, the collected query is the goal)
            use_taut = len(distinct) < len(grounds)
            value = 2 * len(distinct) - 1 + (
                2 if use_taut else bool(q.existential_vars))
            if value < (best[0] if best else limit):
                best = (value, sigma, use_taut)
                if config.bound is not None:
                    break  # a proof within the bound settles existence
    except BudgetExceeded:
        return _result(config, ticker, "exhausted")

    complete = not kb.tbox
    forward: Optional[tuple[int, ProofGraph]] = None
    # the forward closure looks for a proof cheaper than the match's, which
    # a bound that the match meets does not ask for
    if kb.tbox and (best is None or config.bound is None):
        cap = min(limit, best[0] if best else _INF)
        try:
            forward = _forward_cq_search(kb, q, cap, ticker)
        except BudgetExceeded:
            if best is None:
                return _result(config, ticker, "exhausted")
    if forward is not None and (best is None or forward[0] < best[0]):
        proof = forward[1]
        return _result(config, ticker, "found", proof,
                       measure(proof, config.measure))
    if best is None and kb.tbox:
        # ``none`` needs a certificate, which the incomplete moves are not
        result = _result(config, ticker, "exhausted")
        result.warnings.append(
            "query-level search ran out of moves, not budget: it never "
            "conjoins two queries, so a proof it cannot build may exist")
        return result
    if best is None:
        return _result(config, ticker, "none", complete=True)
    _, sigma, use_taut = best
    proof = _assemble_cq(q, sigma, use_taut)
    return _result(config, ticker, "found", proof,
                   measure(proof, config.measure), complete)


def _canon_cq(cq: BooleanCQ) -> tuple:
    """Dedup key up to variable renaming (approximate but deterministic)."""
    def blind_key(a: Atom):
        return (atom_pred(a),
                tuple(("v",) if isinstance(t, Var) else ("c", t.name)
                      for t in atom_terms(a)))

    order = sorted(range(len(cq.atoms)), key=lambda i: blind_key(cq.atoms[i]))
    naming: dict[Var, int] = {}
    out = []
    for i in order:
        a = cq.atoms[i]
        row = [atom_pred(a)]
        for t in atom_terms(a):
            if isinstance(t, Var):
                naming.setdefault(t, len(naming))
                row.append(("v", naming[t]))
            else:
                row.append(("c", t.name))
        out.append(tuple(row))
    return tuple(sorted(out))


def _forward_cq_search(kb: KnowledgeBase, q: BooleanCQ, limit: int | float,
                       ticker: Ticker) -> Optional[tuple[int, ProofGraph]]:
    """Node-capped closure over query labels: rule applications on each
    fact and on the queries derived from it, never conjoining two, and a
    final generalization or tautology step.  Cheapest-first, so the first
    goal hit is the minimum over the enumerated moves (intermediate
    tautologies are not explored).
    """
    proof = ProofGraph()
    max_atoms = max(len(q.atoms), 2) + 2
    heap: list[tuple[int, int, BooleanCQ, int]] = []
    seen: dict[tuple, int] = {}
    counter = 0
    for fact in sorted(kb.abox, key=lambda a: str(a)):
        cq = BooleanCQ((fact,), ())
        vid = proof.add_vertex(cq)
        heapq.heappush(heap, (1, counter, cq, vid))
        counter += 1

    while heap:
        ticker.tick()
        cost, _, cq, vid = heapq.heappop(heap)
        key = _canon_cq(cq)
        if seen.get(key, _INF) < cost:
            continue
        seen[key] = cost

        # try to finish: the popped query instantiates the goal
        finish = _finish_cq_goal(cq, vid, q, cost, proof)
        if finish is not None and finish[0] < limit:
            value, sink = finish
            return value, sub_derivation(proof, sink)

        # rule applications
        for rule in kb.tbox:
            for pi in match_conjunction(rule.body, cq.index):
                matched = sorted({substitute_atom(b, pi) for b in rule.body},
                                 key=lambda a: str(a))
                n_heads = len(rule.head)
                for rmask in range(2 ** len(matched)):
                    replace = [a for i, a in enumerate(matched)
                               if rmask >> i & 1]
                    for kmask in range(1, 2 ** n_heads):
                        keep = [i for i in range(n_heads) if kmask >> i & 1]
                        new_cq = mpe_apply(cq, rule, pi, replace, keep)
                        if len(new_cq.atoms) > max_atoms:
                            continue
                        new_cost = cost + 2
                        if new_cost >= limit:
                            continue
                        nkey = _canon_cq(new_cq)
                        if seen.get(nkey, _INF) <= new_cost:
                            continue
                        rule_vid = proof.add_vertex(rule)
                        new_vid = proof.add_vertex(new_cq)
                        proof.add_edge((vid, rule_vid), new_vid, Schema.MPe)
                        heapq.heappush(heap,
                                       (new_cost, counter, new_cq, new_vid))
                        counter += 1
    return None


def _finish_cq_goal(cq: BooleanCQ, vid: int, q: BooleanCQ, cost: int,
                    proof: ProofGraph) -> Optional[tuple[int, int]]:
    if cq_equivalent(cq, q):
        return cost, vid
    for pi in match_conjunction(q.atoms, cq.index):
        image = {substitute_atom(a, pi) for a in q.atoms}
        if not set(cq.atoms) <= image:
            continue  # leftovers would survive into the conclusion
        return cost + 2, tautology_finish(proof, vid, q)
    return None


def _assemble_cq(q: BooleanCQ, sigma: dict[Var, Term],
                 use_taut: bool) -> ProofGraph:
    """The facts of the match collected by Ce steps, then a Ge step or a
    tautology application unless the collected query is the goal."""
    grounds = [substitute_atom(a, sigma) for a in q.atoms]
    proof = ProofGraph()
    current = conjunction_chain(proof, list(dict.fromkeys(grounds)),
                                lambda atoms: BooleanCQ(atoms, ()))
    if use_taut:
        tautology_finish(proof, current, q)
    elif q.existential_vars:
        proof.add_edge((current,), proof.add_vertex(q), Schema.Ge)
    return proof


# ---------------------------------------------------------------------------
# Algorithm routing
# ---------------------------------------------------------------------------

def _poly_route(kb: KnowledgeBase, q: BooleanCQ, m: Measure
                ) -> Optional[tuple[Callable[..., CompressedStructure], str]]:
    """The fold that the polynomial route for the fragment, query shape and
    measure reads (by :func:`least_proof`), and the route's algorithm name;
    None where there is no such route."""
    if m is Measure.DOMAIN_SIZE:
        return None
    if kb.fragment == Fragment.DLLiteR and is_tree_shaped(q):
        return compress_dllite, ("poly-dllite-size" if m is Measure.SIZE
                                 else "poly-dllite-tree")
    if m is Measure.TREE_SIZE and kb.fragment in (Fragment.EL,
                                                  Fragment.DLLiteR):
        return compress_el, "poly-el-tree"
    return None


def explain(kb: KnowledgeBase, q: BooleanCQ,
            config: Optional[RunConfig] = None) -> ExplainResult:
    """Find an optimal proof (or one within the configured bound)."""
    config = config or RunConfig()
    ticker = config.ticker()
    warnings: list[str] = []

    route = None
    if config.algo == "poly":
        # the polynomial routes build ground-atom (sk) proofs only
        if config.deriver == "sk":
            route = _poly_route(kb, q, config.measure)
        if route is None:
            warnings.append("polynomial algorithm preconditions not met "
                            "(fragment, query shape, measure, or deriver); "
                            "falling back to exact search")
    elif config.deriver == "sk" and config.algo == "auto" \
            and config.measure is Measure.TREE_SIZE:
        # tree size has dedicated polynomial routes; size and domain size
        # default to the exact search
        route = _poly_route(kb, q, config.measure)

    if route is not None:
        compress, algo = route
        try:
            proof, value = least_proof(compress, kb, q, config.strict_cg,
                                       ticker)
            # the size route minimizes tree size: where premises are shared,
            # a smaller proof can exist, so its value only bounds the
            # optimum from above
            exact = config.measure is Measure.TREE_SIZE
            if not exact:
                value = len(proof.vertices)
            if config.bound is None or value <= config.bound:
                return _result(config, ticker, "found", proof, value,
                               exact or config.bound is not None, algo,
                               warnings)
            if exact:
                return _result(config, ticker, "none", None, value, True,
                               algo, warnings)
            # above the bound, the size route leaves the bound to the search
            warnings.append(f"polynomial size value {value} exceeds the "
                            "bound but only bounds the optimum from above; "
                            "falling back to exact search")
        except BudgetExceeded as exc:
            # the run's budget is spent: none is left for a fallback
            warnings.append(f"polynomial algorithm stopped: {exc}")
            return _result(config, ticker, "exhausted", algorithm=algo,
                           warnings=warnings)
        except (CompressError, DecompressError) as exc:
            if config.algo == "poly":
                warnings.append(f"polynomial algorithm failed: {exc}; "
                                "falling back to exact search")
            else:
                warnings.append(str(exc))

    # the search spends what the route left of the run's budget
    result = bounded_search(kb, q, config, ticker)
    warnings += result.warnings
    if not result.complete and result.status in ("found", "none"):
        warnings.append("search space was cut by the depth ceiling or "
                        "resource limits; result is relative to those bounds")
    result.warnings = warnings
    return result
