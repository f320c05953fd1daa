"""Polynomial-size compressed derivation structures and the algorithms
built on them.

Anonymous chase elements are folded into finitely many placeholder
individuals, one per Skolem function (:func:`fold`).  Two polynomial
routes read the fold: the cost-graph algorithm for tree-shaped queries over
DL-Lite (:func:`cost_graph`) and the cheapest-match enumeration for EL and
DL-Lite (:func:`el_cq_min_treesize`).  Proofs found over the fold are
unfolded onto real Skolem terms from the goal down (:func:`decompress`); an
optimum that conflates witnesses of different origins has no unfolding and
is rejected rather than silently accepted.  The fold also bounds the exact
search from below, for any fragment: see :func:`equality_free_fold`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .kb import (Atom, BooleanCQ, Const, Fragment, KBError, KnowledgeBase,
                 SkolemRule, SkolemTerm, Term, Var, atom_pred, atom_terms,
                 gaifman_graph, is_tree_shaped, map_atom_terms,
                 substitute_atom, term_key)
from .matching import match_conjunction
from .proofs import (AtomLabel, CQLabel, ConjLabel, Label, ProofEdge,
                     ProofGraph, RuleLabel, Schema, label_key)
from .deriver_sk import BudgetExceeded, FiniteStructure, saturate


class CompressError(KBError):
    pass


class DecompressError(KBError):
    """The compressed proof mixes witnesses of different origins."""


@dataclass
class CompressedStructure:
    structure: FiniteStructure
    # Skolem function -> the placeholder individual its terms fold onto
    placeholders: dict[str, Const]

    @property
    def fresh_consts(self) -> frozenset[str]:
        """The placeholder individuals' names."""
        return frozenset(c.name for c in self.placeholders.values())

    def fold_query(self, q: BooleanCQ) -> BooleanCQ:
        """The query read as the structure reads the universal model: a
        match of the query there maps onto a match of this query here.  A
        term of a function no rule has stays, and matches nothing."""
        return BooleanCQ(tuple(_fold_atom(a, self.placeholders)
                               for a in q.atoms), q.existential_vars)


def _fold_atom(a: Atom, placeholders: dict[str, Const]) -> Atom:
    """The atom with each Skolem term ``f(t)`` read as f's placeholder."""
    return map_atom_terms(a, lambda t: placeholders.get(t.fn, t)
                          if isinstance(t, SkolemTerm) else t)


def fold(kb: KnowledgeBase, deadline: Optional[float] = None,
         max_atoms: Optional[int] = None) -> CompressedStructure:
    """Placeholder pool: one individual ``c_f`` per Skolem function ``f``,
    for a knowledge base of any fragment.

    Reading every term ``f(t)`` as ``c_f`` maps each rule application of
    the universal model onto one of the fold's.
    """
    taken = set(kb.signature.individual_names)
    placeholders: dict[str, Const] = {}
    compressed: list[SkolemRule] = []
    for rule in kb.skolem_rules:
        if rule.fn is None:
            compressed.append(rule)
            continue
        name = f"c_{rule.fn}"
        while name in taken:
            name = "_" + name
        taken.add(name)
        placeholders[rule.fn] = Const(name)
        head = tuple(_fold_atom(a, placeholders) for a in rule.head)
        compressed.append(SkolemRule(rule.body, head, rule.normal_form,
                                     rule.index, rule.fn))
    structure = saturate(kb.abox, tuple(compressed), depth_bound=0,
                         max_atoms=max_atoms, deadline=deadline)
    return CompressedStructure(structure, placeholders)


def compress_dllite(kb: KnowledgeBase, deadline: Optional[float] = None
                    ) -> CompressedStructure:
    """The fold of a DL-Lite knowledge base."""
    if kb.fragment != Fragment.DLLiteR:
        raise CompressError(f"fragment mismatch: {kb.fragment.value} input, "
                            "this construction needs dl-lite-r")
    return fold(kb, deadline)


def compress_el(kb: KnowledgeBase, deadline: Optional[float] = None
                ) -> CompressedStructure:
    """The fold of an EL or DL-Lite knowledge base."""
    if kb.fragment not in (Fragment.EL, Fragment.DLLiteR):
        raise CompressError(f"fragment mismatch: {kb.fragment.value} input, "
                            "this construction needs el or dl-lite-r")
    return fold(kb, deadline)


def equality_free_fold(kb: KnowledgeBase, deadline: Optional[float] = None,
                       max_atoms: Optional[int] = None
                       ) -> Optional[CompressedStructure]:
    """The fold, or None when it holds an equality atom.

    Without one, the universal model holds none either (the fold maps each
    of its atoms onto one of the fold's), so its proofs are rule
    applications plus the goal tail.  Each proof then maps onto a proof
    over the fold that is no larger in size, tree size or domain size:
    keep, per folded label, the derivation of a least-height (under tree
    size, least-tree-size) vertex folding onto it; its premises fold onto
    labels that are kept lower, so the result is acyclic.  The fold's
    optimum bounds every real proof from below, and a query without a
    match in the fold is not entailed.  Both read the query as the fold
    reads the model (:meth:`CompressedStructure.fold_query`).  An equality
    replacement need not survive the folding (its two sides can fold onto
    an equality oriented the other way), so a fold with an equality atom
    bounds nothing.
    """
    folded = fold(kb, deadline, max_atoms)
    return None if folded.structure.index.bucket(("=",)) else folded


def refutes(folded: Optional[CompressedStructure], q: BooleanCQ) -> bool:
    """Whether the equality-free fold has no match of the query, which
    proves the query unentailed."""
    return folded is not None and next(
        match_conjunction(folded.fold_query(q).atoms,
                          folded.structure.index), None) is None


# ---------------------------------------------------------------------------
# Decompression: the compressed witness unfolded from the goal down
# ---------------------------------------------------------------------------

def decompress(comp: CompressedStructure, kb: KnowledgeBase, q: BooleanCQ,
               values: dict[int, int | float], chosen: dict[int, int],
               assignments: Iterable[dict[Var, Term]],
               strict_cg: bool = False, deadline: Optional[float] = None
               ) -> ProofGraph:
    """The real proof of the first of the equally cheap query matches that
    unfolds onto Skolem terms; DecompressError when none does.

    From the match down, each compressed atom vertex becomes one real atom
    per binding of its placeholders, derived by the vertex's chosen edge
    or, where that one does not fold onto the binding, by its next edge of
    the same tree size in :func:`edge_key` order.  Only optimal edges are
    used, so the proof has the match's value, which bounds every real
    proof from below.  A vertex keeps its id for its first real image.
    """
    unfold = _Unfold(comp, kb, values, chosen, deadline)
    for sigma in assignments:
        targets = unfold.match(q, sigma)
        if targets:
            return add_goal_tail(*unfold.graph(targets), q, strict_cg)
    raise DecompressError("no equally cheap match unfolds: the compressed "
                          "optimum conflates witnesses of different origins")


class _Unfold:
    """The memo of one decompression: a key is a compressed vertex with the
    real terms known for its arguments from above (None where unknown);
    its entry is the real atom, the vertex, the edge used and the premises'
    entries, or False when no edge of the vertex's value unfolds."""

    def __init__(self, comp: CompressedStructure, kb: KnowledgeBase,
                 values: dict[int, int | float], chosen: dict[int, int],
                 deadline: Optional[float]):
        self.structure, self.fresh = comp.structure, comp.fresh_consts
        self.values, self.chosen, self.deadline = values, chosen, deadline
        self.rules = kb.skolem_rules
        self.bodies = [list(map(atom_terms, r.body)) for r in self.rules]
        self.heads = [{atom_pred(h): h for h in r.head} for r in self.rules]
        self.memo: dict[tuple, tuple | bool] = {}

    def match(self, q: BooleanCQ, sigma: dict[Var, Term]) -> list | bool:
        """The entries of the query's atoms under the match, or False; the
        unfolding generators run on an explicit stack, each one yielding
        the key it needs next and being sent that key's entry."""
        vertices = self.structure.vertices
        vids = [self.structure.atom_ids[substitute_atom(a, sigma)]
                for a in q.atoms]
        terms = [atom_terms(a) for a in q.atoms]
        # individuals stand for themselves, as do the query's constants
        known = {t: c for ts, v in zip(terms, vids)
                 for t, c in zip(ts, atom_terms(vertices[v].atom))
                 if isinstance(t, Const) or c.name not in self.fresh}
        stack = [self._unfold(None, [(None, None, terms, vids, known)])]
        reply, pushed = None, 0
        while True:
            try:
                key = stack[-1].send(reply)
            except StopIteration as stop:
                stack.pop()
                if not stack:
                    return stop.value
                reply = stop.value
                continue
            pushed += 1
            if self.deadline is not None and pushed % 256 == 0 \
                    and time.monotonic() > self.deadline:
                raise BudgetExceeded("decompression deadline")
            stack.append(self._unfold(key, self._steps(key[0])))
            reply = None

    def _steps(self, vid: int):
        """The rule applications behind the vertex's chosen in-edge, then
        behind its other edges of the same value, in edge_key order."""
        first = self.chosen[vid]
        yield self._step(first)
        edges, values = self.structure.edges, self.values
        rest = [i for i in self.structure.in_edges[vid] if i != first
                and 1 + sum(values[p] for p in edges[i].premises)
                == values[vid]]
        for i in sorted(rest, key=lambda i: edge_key(self.structure, i)):
            yield self._step(i)

    def _step(self, idx: int) -> tuple:
        """The edge, the real head atom of its conclusion, the body's
        terms, the premise vertices and no known terms."""
        vertices = self.structure.vertices
        e = self.structure.edges[idx]
        rule = vertices[e.premises[-1]].rule.index
        head = self.heads[rule][atom_pred(vertices[e.conclusion].atom)]
        return idx, head, self.bodies[rule], e.premises[:-1], {}

    def _unfold(self, key, steps):
        """Unfold ``key`` by the first of ``steps`` that folds onto it.

        The premises go one at a time, the one with the least share of
        unknown terms first (a role atom on a tie), and hand the real terms
        they bind to the rest.  The goal comes as key None with one step
        without a head; its entry is its premises' entries."""
        known = key[1] if key is not None else ()
        structure, memo = self.structure, self.memo
        entry = False
        for idx, head, terms, premises, rsub in steps:
            rsub = dict(rsub)
            if head is not None and not _bind(atom_terms(head), known, rsub):
                continue
            entries: list = [None] * len(premises)
            left = list(range(len(premises)))
            while left:
                j = left[0] if len(left) == 1 else min(left, key=lambda j: (
                    sum(t not in rsub for t in terms[j]) / len(terms[j]),
                    -len(terms[j])))
                left.remove(j)
                pkey = (premises[j], tuple(map(rsub.get, terms[j])))
                got = memo.get(pkey)
                if got is None:
                    if premises[j] in structure.leaf_ids:
                        got = memo[pkey] = (
                            structure.vertices[premises[j]].atom,
                            premises[j], None, ())
                    else:
                        got = yield pkey
                if not got or not _bind(terms[j], atom_terms(got[0]), rsub):
                    break
                entries[j] = got
            else:
                entry = entries if head is None else \
                    (substitute_atom(head, rsub), key[0], idx, entries)
                break
        if key is not None:
            memo[key] = entry
            if entry:     # the same atom asked for with every term known
                memo.setdefault((key[0], atom_terms(entry[0])), entry)
        return entry

    def graph(self, targets: list) -> tuple[dict[int, Label],
                                            list[ProofEdge], list[int]]:
        """The proof below the target entries, one vertex per real atom,
        and the targets' vertex ids."""
        structure = self.structure
        ids: dict[Atom, int] = {}
        derived: list[tuple] = []
        fresh = itertools.count(len(structure.vertices))
        taken: set[int] = set()
        stack = targets[::-1]
        while stack:
            entry = stack.pop()
            if entry[0] not in ids:
                ids[entry[0]] = next(fresh) if entry[1] in taken \
                    else entry[1]
                taken.add(entry[1])
                derived.append(entry)
                stack.extend(reversed(entry[3]))
        renamed = len(taken) < len(ids)
        vertices: dict[int, Label] = {}
        edges: list[ProofEdge] = []
        for atom, vid, idx, premises in derived:
            label = structure.vertices[vid]
            vertices[ids[atom]] = label if label.atom is atom \
                else AtomLabel(atom)
            if idx is None:
                continue
            e = structure.edges[idx]
            if e.premises[-1] not in vertices:
                vertices[e.premises[-1]] = RuleLabel(
                    self.rules[structure.vertices[e.premises[-1]].rule.index])
            if renamed:
                e = ProofEdge(tuple(ids[p[0]] for p in premises)
                              + e.premises[-1:], ids[atom], Schema.MP)
            edges.append(e)
        return vertices, edges, [ids[t[0]] for t in targets]


def _bind(pattern: tuple, real: tuple, rsub: dict) -> bool:
    """Extend ``rsub`` so that the pattern terms give the real ones where
    these are known (not None); False on a clash."""
    for t, r in zip(pattern, real):
        if r is None:
            continue
        if isinstance(t, SkolemTerm):
            if not isinstance(r, SkolemTerm) or r.fn != t.fn:
                return False
            t, r = t.arg, r.arg
        if rsub.setdefault(t, r) != r:
            return False
    return True


# ---------------------------------------------------------------------------
# Minimal proofs over finite structures
# ---------------------------------------------------------------------------

_INF = float("inf")


def edge_key(structure: FiniteStructure, idx: int):
    """Deterministic tie-break between derivations of one vertex."""
    e = structure.edges[idx]
    return (e.schema.value,
            tuple(label_key(structure.vertices[q]) for q in e.premises))


def dp_min_tree(structure: FiniteStructure,
                tick: Optional[Callable[[], None]] = None
                ) -> tuple[dict[int, int | float], dict[int, int]]:
    """Minimal tree size per vertex plus the chosen incoming edge.

    Label-correcting fixpoint of ``1 + sum over premises`` on exact
    integers (``_INF`` marks underivable vertices); ties are broken on
    :func:`edge_key`, so results do not depend on edge insertion order.
    ``tick`` is called once per edge visit, so a caller can charge the
    iteration to a budget.
    """
    chosen: dict[int, int] = {}
    return _least_fixpoint(structure, sum, tick, chosen), chosen


def min_heights(structure: FiniteStructure,
                tick: Optional[Callable[[], None]] = None
                ) -> dict[int, int | float]:
    """Least number of vertices on a longest path of a derivation, per
    vertex: a lower bound on the size of every derivation of it."""
    return _least_fixpoint(structure, max, tick, None)


def _least_fixpoint(structure: FiniteStructure, combine,
                    tick: Optional[Callable[[], None]],
                    chosen: Optional[dict[int, int]]
                    ) -> dict[int, int | float]:
    """Label-correcting fixpoint of ``1 + combine(premise values)`` with
    leaves at 1; records each vertex's least edge in ``chosen`` if given."""
    values: dict[int, int | float] = {v: _INF for v in structure.vertices}
    for leaf in structure.leaf_ids:
        values[leaf] = 1

    keys: dict[int, tuple] = {}     # edge_key per edge, computed once

    def key_of(idx: int) -> tuple:
        key = keys.get(idx)
        if key is None:
            key = keys[idx] = edge_key(structure, idx)
        return key

    changed = True
    while changed:
        changed = False
        for idx, e in enumerate(structure.edges):
            if tick is not None:
                tick()
            # _INF absorbs under both sum and max
            total = 1 + combine([values[q] for q in e.premises])
            cur = values[e.conclusion]
            if total < cur:
                values[e.conclusion] = total
                if chosen is not None:
                    chosen[e.conclusion] = idx
                changed = True
            elif chosen is not None and total == cur \
                    and chosen.get(e.conclusion, idx) != idx \
                    and key_of(idx) < key_of(chosen[e.conclusion]):
                chosen[e.conclusion] = idx
                changed = True
    return values


def extract_witness(structure: FiniteStructure, chosen: dict[int, int],
                    targets: Iterable[int]) -> tuple[dict[int, Label],
                                                     list[ProofEdge]]:
    """The chosen-edge subgraph below the targets (vertices shared)."""
    keep: set[int] = set()
    edges: list[ProofEdge] = []
    stack = sorted(set(targets))
    while stack:
        v = stack.pop()
        if v in keep:
            continue
        keep.add(v)
        idx = chosen.get(v)
        if idx is None:
            if v not in structure.leaf_ids:
                raise KBError("target is not derivable in the structure")
            continue
        e = structure.edges[idx]
        edges.append(e)
        stack.extend(e.premises)
    vertices = {v: structure.vertices[v] for v in keep}
    return vertices, edges


def rank_matches(structure: FiniteStructure, values: dict[int, int | float],
                 q: BooleanCQ) -> list[tuple[int, dict[Var, Term]]]:
    """Matches of the query into the structure, cheapest first.

    A match costs the sum of its atoms' tree-size values; ties go to the
    least assignment.  Matches with an underivable atom are left out.
    """
    scored = []
    for subst in match_conjunction(q.atoms, structure.index):
        total = sum(values[structure.atom_ids[substitute_atom(atom, subst)]]
                    for atom in q.atoms)
        if total < _INF:
            scored.append((total, tuple(sorted(
                (v.name, term_key(t)) for v, t in subst.items())), subst))
    return [(total, subst) for total, _, subst in sorted(
        scored, key=lambda s: s[:2])]


# ---------------------------------------------------------------------------
# Goal tails: conjunction and generalization steps
# ---------------------------------------------------------------------------

def _tail_steps(goal: BooleanCQ, strict_cg: bool) -> tuple[bool, bool]:
    """Whether the goal tail has a conjunction and a generalization step;
    by default a step that would be an identity is left out."""
    return (strict_cg or len(goal.atoms) > 1,
            strict_cg or bool(goal.existential_vars))


def goal_tail_size(goal: BooleanCQ, strict_cg: bool = False) -> int:
    """The number of vertices :func:`add_goal_tail` adds."""
    return sum(_tail_steps(goal, strict_cg))


def add_goal_tail(vertices: dict[int, Label], edges: list[ProofEdge],
                  targets: list[int], goal: BooleanCQ,
                  strict_cg: bool = False) -> ProofGraph:
    """Finish a per-atom proof bundle with the conjunction and
    generalization steps, skipping degenerate identity steps by default."""
    conj, gen = _tail_steps(goal, strict_cg)
    vertices = dict(vertices)
    edges = list(edges)
    next_id = max(vertices) + 1 if vertices else 0
    if conj:
        if gen:
            atoms = []
            for t in targets:
                lab = vertices[t]
                assert isinstance(lab, AtomLabel)
                atoms.append(lab.atom)
            vertices[next_id] = ConjLabel(tuple(atoms))
        else:
            vertices[next_id] = CQLabel(goal)
        edges.append(ProofEdge(tuple(targets), next_id, Schema.C))
        targets = [next_id]
        next_id += 1
    if gen:
        vertices[next_id] = CQLabel(goal)
        edges.append(ProofEdge((targets[0],), next_id, Schema.G))
    return ProofGraph(vertices, edges)


# ---------------------------------------------------------------------------
# Tree-shaped queries over DL-Lite: the cost-graph algorithm
# ---------------------------------------------------------------------------

@dataclass
class CostGraph:
    """The cheapest assignment of a tree-shaped query's terms to constants
    of the compressed structure, over the query's Gaifman tree."""

    root: Term
    order: list[Term]                      # root first
    children: dict[Term, list[Term]]
    chosen: dict[Term, Const] = field(default_factory=dict)
    total: float = _INF


def _gaifman_tree(q: BooleanCQ) -> tuple[Term, list[Term], dict[Term, list[Term]]]:
    adj = gaifman_graph(q)
    root = min(adj, key=term_key)
    order = [root]
    children: dict[Term, list[Term]] = {t: [] for t in adj}
    seen = {root}
    queue = [root]
    while queue:
        t = queue.pop(0)
        for nxt in sorted(adj[t], key=term_key):
            if nxt not in seen:
                seen.add(nxt)
                children[t].append(nxt)
                order.append(nxt)
                queue.append(nxt)
    return root, order, children


def cost_graph(comp: CompressedStructure, q: BooleanCQ,
               values: dict[int, int | float]) -> CostGraph:
    """The assignment of least summed tree-size value, in one leaf-up pass
    over the Gaifman tree (the cost-graph algorithm).

    Each term keeps, per constant, the least cost of its subtree.  A unary
    atom (or one whose two positions carry the same term) is priced with
    its term, a binary atom with the child of its term pair, each when it
    is needed.  Ties go to the least constant per child and, at the root,
    to the least cost, then :func:`term_key`.
    """
    root, order, children = _gaifman_tree(q)
    constants = sorted({t for a in comp.structure.index.atoms
                        for t in atom_terms(a)}, key=term_key)
    atom_ids = comp.structure.atom_ids
    on: dict[frozenset[Term], list[Atom]] = {}
    for a in q.atoms:
        on.setdefault(frozenset(atom_terms(a)), []).append(a)

    def cost(terms: frozenset[Term], sigma: dict[Term, Const]) -> int | float:
        total = 0
        for a in on.get(terms, ()):
            vid = atom_ids.get(substitute_atom(a, sigma))
            if vid is None:
                return _INF
            total += values[vid]
        return total

    # term -> constant -> least finite cost of the term's subtree, in
    # term_key order of the constants
    below: dict[Term, dict[Const, int]] = {}

    def best_child(t: Term, c: Const, child: Term
                   ) -> tuple[int | float, Optional[Const]]:
        best, pick = _INF, None
        pair = frozenset((t, child))
        for cc, rest in below[child].items():
            if rest < best:
                got = rest + cost(pair, {t: c, child: cc})
                if got < best:
                    best, pick = got, cc
        return best, pick

    for t in reversed(order):
        own = frozenset((t,))
        row = below[t] = {}
        for c in [t] if isinstance(t, Const) else constants:
            total = cost(own, {t: c})
            for child in children[t]:
                if total == _INF:
                    break
                total += best_child(t, c, child)[0]
            if total < _INF:
                row[c] = total

    graph = CostGraph(root, order, children)
    if below[root]:
        best_root = min(below[root], key=below[root].__getitem__)
        graph.total = below[root][best_root]
        graph.chosen = {root: best_root}
        for t in order:
            for child in children[t]:
                graph.chosen[child] = best_child(t, graph.chosen[t], child)[1]
    return graph


def _reject_skolem_terms(q: BooleanCQ) -> None:
    """The routes match the query against placeholders, where no Skolem
    term survives: a query naming one is left to the exact search."""
    if any(isinstance(t, SkolemTerm) for a in q.atoms for t in atom_terms(a)):
        raise CompressError("query names a Skolem term, which the "
                            "compressed structure folds away")


def tree_query_min_treesize(kb: KnowledgeBase, q: BooleanCQ,
                            strict_cg: bool = False,
                            deadline: Optional[float] = None) -> ProofGraph:
    """Minimal-tree-size proof for a tree-shaped query over DL-Lite.

    It is the size route as well (``dllite_query_min_size``): per-atom
    proofs in DL-Lite are linear, where size and tree size agree; sharing
    across atoms is reflected in the measured result.
    """
    if not is_tree_shaped(q):
        raise CompressError("query is not tree-shaped")
    _reject_skolem_terms(q)
    comp = compress_dllite(kb, deadline)
    values, chosen = dp_min_tree(comp.structure)
    graph = cost_graph(comp, q, values)
    if graph.total == _INF:
        raise CompressError("query is not entailed: no assignment is "
                            "derivable in the compressed structure")
    assignment = {t: c for t, c in graph.chosen.items() if isinstance(t, Var)}
    return decompress(comp, kb, q, values, chosen, [assignment], strict_cg,
                      deadline)


dllite_query_min_size = tree_query_min_treesize


# ---------------------------------------------------------------------------
# EL queries: assignment enumeration over the compressed structure
# ---------------------------------------------------------------------------

def el_cq_min_treesize(kb: KnowledgeBase, q: BooleanCQ,
                       strict_cg: bool = False,
                       deadline: Optional[float] = None) -> ProofGraph:
    """Minimal-tree-size proof: the first of the cheapest matches into the
    compressed structure that unfolds (:func:`decompress`).  When none
    does, DecompressError: the compressed value then lies below every real
    proof, and the exact search has to settle the optimum."""
    _reject_skolem_terms(q)
    comp = compress_el(kb, deadline)
    values, chosen = dp_min_tree(comp.structure)
    ranked = rank_matches(comp.structure, values, q)
    if not ranked:
        raise CompressError("query is not entailed: no match in the "
                            "compressed structure")
    tied = [subst for total, subst in ranked if total == ranked[0][0]]
    return decompress(comp, kb, q, values, chosen, tied, strict_cg, deadline)
