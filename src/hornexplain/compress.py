"""Polynomial-size compressed derivation structures and the algorithms
built on them.

Anonymous chase elements are folded into finitely many placeholder
individuals, one per Skolem function (:func:`fold`).  Two polynomial
routes read the fold, one for tree-shaped queries over DL-Lite
(:func:`tree_query_min_treesize`) and one for any query over EL and DL-Lite
(:func:`el_cq_min_treesize`); both take the least matches by min-sum
variable elimination (:func:`least_matches`).  A proof found over a fold
with placeholders is unfolded onto real Skolem terms from the goal down, and
one over a fold without any is the real proof (:func:`decompress`); an
optimum that conflates witnesses of different origins has no unfolding and
is rejected rather than silently accepted.  The fold also bounds the exact
search from below, for any fragment: see :func:`equality_free_fold`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .kb import (Atom, BooleanCQ, Const, Fragment, KBError, KnowledgeBase,
                 SkolemRule, SkolemTerm, Term, Var, atom_pred, atom_terms,
                 is_tree_shaped, map_atom_terms, substitute_atom, term_key,
                 variables_of)
from .matching import match_conjunction, unifiers
from .proofs import Label, ProofEdge, ProofGraph, Schema
from .deriver_sk import FiniteStructure, Ticker, saturate


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


def fold(kb: KnowledgeBase, ticker: Optional[Ticker] = None
         ) -> CompressedStructure:
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
    structure = saturate(kb.abox, tuple(compressed), 0, ticker)
    return CompressedStructure(structure, placeholders)


def compress_dllite(kb: KnowledgeBase, ticker: Optional[Ticker] = None
                    ) -> CompressedStructure:
    """The fold of a DL-Lite knowledge base."""
    if kb.fragment != Fragment.DLLiteR:
        raise CompressError(f"fragment mismatch: {kb.fragment.value} input, "
                            "this construction needs dl-lite-r")
    return fold(kb, ticker)


def compress_el(kb: KnowledgeBase, ticker: Optional[Ticker] = None
                ) -> CompressedStructure:
    """The fold of an EL or DL-Lite knowledge base."""
    if kb.fragment not in (Fragment.EL, Fragment.DLLiteR):
        raise CompressError(f"fragment mismatch: {kb.fragment.value} input, "
                            "this construction needs el or dl-lite-r")
    return fold(kb, ticker)


def equality_free_fold(kb: KnowledgeBase, ticker: Optional[Ticker] = None
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
    folded = fold(kb, ticker)
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
               strict_cg: bool = False, ticker: Optional[Ticker] = None
               ) -> ProofGraph:
    """The real proof of the first of the equally cheap query matches that
    unfolds onto Skolem terms; DecompressError when none does.

    The unfolding runs only where the fold has a placeholder: without one,
    every compressed rule is the knowledge base's own, and the first match's
    chosen edges (:func:`extract_witness`) are the real proof.  Otherwise,
    from the match down, each compressed atom vertex becomes one real atom
    per binding of its placeholders, derived by the vertex's chosen edge or,
    where that one does not fold onto the binding, by its next in-edge of
    the same tree size (:meth:`_Unfold.match`).  Only optimal edges are
    used, so the proof has the match's value, which bounds every real proof
    from below.  Each unfolding step and proof vertex is charged to the
    ticker.
    """
    ticker = ticker or Ticker()
    unfold = comp.placeholders and _Unfold(comp, kb, values, chosen, ticker)
    for sigma in assignments:
        if not unfold:          # no placeholder: the chosen edges are real
            return extract_witness(comp.structure, chosen, [
                comp.structure.atom_ids[substitute_atom(a, sigma)]
                for a in q.atoms], q, strict_cg, ticker)
        targets = unfold.match(q, sigma)
        if targets:
            return unfold.proof(targets, q, strict_cg)
    raise DecompressError("no equally cheap match unfolds: the compressed "
                          "optimum conflates witnesses of different origins")


class _Unfold:
    """The memo of one decompression: a key is a compressed vertex with the
    real terms known for its arguments from above (None where unknown);
    its entry is the real atom, the vertex, the edge used and the premises'
    entries, or False when no edge of the vertex's value unfolds."""

    def __init__(self, comp: CompressedStructure, kb: KnowledgeBase,
                 values: dict[int, int | float], chosen: dict[int, int],
                 ticker: Ticker):
        self.structure, self.fresh = comp.structure, comp.fresh_consts
        self.values, self.chosen, self.ticker = values, chosen, ticker
        self.rules = kb.skolem_rules
        self.heads = [{atom_pred(h): h for h in r.head} for r in self.rules]
        self.memo: dict[tuple, tuple | bool] = {}

    def match(self, q: BooleanCQ, sigma: dict[Var, Term]) -> list | bool:
        """The entries of the query's atoms under the match, or False.  A
        key takes its vertex's chosen edge, else the next of :meth:`_rest`;
        a step binds its head to the known terms, then its premises one at a
        time, the least share of unknown terms first (a role atom on a tie),
        unfolding one without an entry on an explicit stack of steps."""
        structure, memo, chosen = self.structure, self.memo, self.chosen
        vertices, leaves = structure.vertices, structure.leaf_ids
        step, rests = functools.cache(self._step), functools.cache(self._rest)
        charge = self.ticker.charge
        premises = [structure.atom_ids[substitute_atom(a, sigma)]
                    for a in q.atoms]
        body = [atom_terms(a) for a in q.atoms]
        # individuals stand for themselves, as do the query's constants
        rsub = {t: c for ts, v in zip(body, premises)
                for t, c in zip(ts, atom_terms(vertices[v]))
                if isinstance(t, Const) or c.name not in self.fresh}
        # the step under way (the goal's key is None): key, edge, later edges
        # (None until listed), head, body, premises, real terms, entries, and
        # the premises left (None once it fails)
        key, idx, rest, head = None, -1, iter(()), None
        entries, left = [None] * len(premises), list(range(len(premises)))
        stack: list[tuple] = []
        while True:
            if left is None:            # the next edge, if any
                if idx is None:
                    idx = chosen[key[0]]
                else:
                    rest = rest or iter(rests(key[0]))
                    idx = next(rest, None)
                if idx is not None:
                    head, hterms, body, premises, slots = step(idx)
                    rsub = {}
                    if _bind(hterms, key[1], rsub):
                        entries, left = [None] * len(slots), list(slots)
                    continue
                entry = False
            elif left:
                j = left[0] if len(left) == 1 else min(left, key=lambda j: (
                    sum(t not in rsub for t in body[j]) / len(body[j]),
                    -len(body[j])))
                left.remove(j)
                pkey = (premises[j], tuple(map(rsub.get, body[j])))
                got = memo.get(pkey)
                if got is None:
                    if premises[j] not in leaves:
                        charge()
                        stack.append((key, idx, rest, head, body, premises,
                                      rsub, entries, left, j))
                        key, idx, rest, left = pkey, None, None, None
                        continue
                    got = memo[pkey] = (vertices[premises[j]],
                                        premises[j], None, ())
                if got and _bind(body[j], atom_terms(got[0]), rsub):
                    entries[j] = got
                else:
                    left = None
                continue
            else:
                entry = entries if key is None else \
                    (substitute_atom(head, rsub), key[0], idx, entries)
            if key is None:
                return entry
            memo[key] = entry
            # every term known: the key is its atom's own and binds nothing
            real = entry and None in key[1] and atom_terms(entry[0])
            if real:      # filed for the same atom asked with every term known
                memo.setdefault((key[0], real), entry)
            key, idx, rest, head, body, premises, rsub, entries, left, j = \
                stack.pop()
            if not entry or real and not _bind(body[j], real, rsub):
                left = None
            else:
                entries[j] = entry

    def _step(self, idx: int) -> tuple:
        """The edge's rule head for its conclusion, the head's terms, the
        body's terms, the premise vertices and their positions."""
        vertices, e = self.structure.vertices, self.structure.edges[idx]
        rule = vertices[e.premises[-1]].index
        head = self.heads[rule][atom_pred(vertices[e.conclusion])]
        return (head, atom_terms(head), list(map(atom_terms, self.rules[
            rule].body)), e.premises[:-1], tuple(range(len(e.premises) - 1)))

    def _rest(self, vid: int) -> list[int]:
        """The vertex's in-edges of its value after its chosen one, in
        order: the ones a key tries, listed only once its chosen edge does
        not fold."""
        edges, values = self.structure.edges, self.values
        ins = self.structure.in_edges[vid]
        return [i for i in ins[ins.index(self.chosen[vid]) + 1:]
                if 1 + sum(values[p] for p in edges[i].premises)
                == values[vid]]

    def proof(self, targets: list, q: BooleanCQ,
              strict_cg: bool) -> ProofGraph:
        """The proof of the goal below the target entries, one vertex per
        real atom, derived by the entry the atom is first reached as.
        ``derive`` files each premise's entry under its atom when it
        derives the vertex naming it, and the walk derives a premise as
        soon as it reaches it, so no vertex derived in between has filed
        another entry for that atom: it would have reached the atom
        first."""
        structure, rules = self.structure, self.rules
        vertices, edges, charge = structure.vertices, structure.edges, \
            self.ticker.charge
        entry_of: dict[Atom, tuple] = {}
        for t in targets:
            entry_of.setdefault(t[0], t)

        def derive(node):
            charge()
            entry = entry_of.get(node)
            if entry is None:           # the rule vertex of a fold edge
                return rules[vertices[node].index], (), None
            atom, _, idx, premises = entry
            if idx is None:
                return atom, (), None
            names = []
            for p in premises:
                entry_of[p[0]] = p
                names.append(p[0])
            names.append(edges[idx].premises[-1])
            return atom, names, Schema.MP

        return assemble_proof([t[0] for t in targets], derive, q, strict_cg)


def _bind(pattern: tuple, real: tuple, rsub: dict) -> bool:
    """Extend ``rsub`` so that the pattern terms give the real ones where
    these are known (not None); False on a clash."""
    for i, t in enumerate(pattern):     # no zip: it costs more here
        r = real[i]
        if r is None:
            continue
        if isinstance(t, SkolemTerm):
            if not isinstance(r, SkolemTerm) or r.fn != t.fn:
                return False
            t, r = t.arg, r.arg
        if rsub.setdefault(t, r) is not r:
            return False
    return True


# ---------------------------------------------------------------------------
# Minimal proofs over finite structures
# ---------------------------------------------------------------------------

_INF = float("inf")


def dp_min_tree(structure: FiniteStructure, ticker: Optional[Ticker] = None
                ) -> tuple[dict[int, int | float], dict[int, int]]:
    """Minimal tree size per vertex plus the chosen incoming edge.

    Label-correcting fixpoint of ``1 + sum over premises`` on exact
    integers (``_INF`` marks underivable vertices).  A derivable vertex
    chooses its first in-edge of its value: the least in the structure's
    tie order, so results do not depend on edge insertion order.  Each
    edge visit of the fixpoint ticks one node of the ticker.
    """
    values = _least_fixpoint(structure, sum, (ticker or Ticker()).tick)
    leaves, edges, chosen = structure.leaf_ids, structure.edges, {}
    for vid, ins in structure.in_edges.items():
        if vid not in leaves and values[vid] < _INF:
            chosen[vid] = next(i for i in ins if 1 + sum(
                values[p] for p in edges[i].premises) == values[vid])
    return values, chosen


def min_heights(structure: FiniteStructure, ticker: Optional[Ticker] = None
                ) -> dict[int, int | float]:
    """Least number of vertices on a longest path of a derivation, per
    vertex: a lower bound on the size of every derivation of it.  Each
    edge visit is charged to the ticker."""
    return _least_fixpoint(structure, max, (ticker or Ticker()).charge)


def _least_fixpoint(structure: FiniteStructure, combine,
                    step: Callable[[], None]) -> dict[int, int | float]:
    """Label-correcting fixpoint of ``1 + combine(premise values)`` with
    leaves at 1; calls ``step`` once per edge visit."""
    values: dict[int, int | float] = {v: _INF for v in structure.vertices}
    for leaf in structure.leaf_ids:
        values[leaf] = 1
    changed = True
    while changed:
        changed = False
        for premises, conclusion, _ in structure.edges:
            step()
            # _INF absorbs under both sum and max
            total = 1 + combine([values[q] for q in premises])
            if total < values[conclusion]:
                values[conclusion] = total
                changed = True
    return values


def extract_witness(structure: FiniteStructure, chosen: dict[int, int],
                    targets: Iterable[int], goal: Optional[BooleanCQ] = None,
                    strict_cg: bool = False, ticker: Optional[Ticker] = None
                    ) -> ProofGraph:
    """The proof of the goal from the chosen edges below the targets
    (vertices shared), by :func:`assemble_proof`; ``chosen`` may map a
    leaf to None.  Each proof vertex is charged to the ticker."""
    vertices, edges, leaves = structure.vertices, structure.edges, \
        structure.leaf_ids
    charge = (ticker or Ticker()).charge

    def derive(v: int):
        charge()
        idx = chosen.get(v)
        if idx is None:
            if v not in leaves:
                raise KBError("target is not derivable in the structure")
            return vertices[v], (), None
        e = edges[idx]
        return vertices[v], e.premises, e.schema

    return assemble_proof(targets, derive, goal, strict_cg)


def least_matches(structure: FiniteStructure, values: dict[int, int | float],
                  q: BooleanCQ, ticker: Optional[Ticker] = None
                  ) -> Iterator[dict[Var, Term]]:
    """The matches of the query into the structure whose summed tree-size
    value is least, least assignment first, without enumerating matches.

    A match costs the sum of its atoms' values; matches with an underivable
    atom are left out.  Each query atom gives one table, its matches' values
    by the atom's variables; min-sum variable elimination over the tables
    (bucket elimination) gives the least total, in time polynomial for a
    query of bounded treewidth.  The ties come in assignment order, as by
    self-reduction: the variables in name order, each fixed to its least
    term (:func:`term_key`) that keeps the optimum, read off one elimination
    that keeps that variable last.  Each table row built or joined ticks
    one node of the ticker.
    """
    ticker = ticker or Ticker()
    names = sorted(variables_of(q.atoms), key=lambda v: v.name)
    tables = []
    for a in q.atoms:
        scope = tuple(variables_of((a,)))
        rows = {}
        for ground, sigma in unifiers(a, structure.index, {}):
            value = values[structure.atom_ids[ground]]
            if value < _INF:
                ticker.tick()
                rows[tuple(sigma[v] for v in scope)] = value
        tables.append((scope, rows))
    # the first variable's elimination gives the least total as well
    first = _min_sum(tables, names[0] if names else None, ticker)
    best = min(first.values(), default=_INF)
    stack = [({}, tables)] if best < _INF else []
    while stack:
        fixed, tables = stack.pop()
        if fixed:       # the parent's tables, the last variable now fixed
            var = names[len(fixed) - 1]
            tables = [_fix(t, var, fixed[var]) for t in tables]
        if len(fixed) == len(names):
            yield fixed
            continue
        var = names[len(fixed)]
        totals = _min_sum(tables, var, ticker) if fixed else first
        tied = sorted((row[0] for row, total in totals.items()
                       if total == best), key=term_key, reverse=True)
        stack.extend(({**fixed, var: t}, tables) for t in tied)


_Table = tuple[tuple[Var, ...], dict[tuple[Term, ...], int]]


def _min_sum(tables: list[_Table], keep: Optional[Var],
             ticker: Ticker) -> dict[tuple[Term, ...], int]:
    """The least summed value of the tables' rows that agree, per term of
    ``keep`` (per () when None): every other variable is eliminated, the
    one with the fewest neighbours first."""
    tables = list(tables)
    join = functools.partial(_join, ticker=ticker)
    while True:
        near: dict[Var, set[Var]] = {}
        for scope, _ in tables:
            for v in scope:
                near.setdefault(v, set()).update(scope)
        near.pop(keep, None)
        if not near:
            break
        var = min(near, key=lambda v: (len(near[v]), v.name))
        joined = functools.reduce(join, [t for t in tables if var in t[0]])
        tables = [t for t in tables if var not in t[0]]
        scope, rows = joined
        i = scope.index(var)
        out: dict[tuple[Term, ...], int] = {}
        for row, total in rows.items():
            key = row[:i] + row[i + 1:]
            if total < out.get(key, _INF):
                out[key] = total
        tables.append((scope[:i] + scope[i + 1:], out))
    return functools.reduce(join, tables, ((), {(): 0}))[1]


def _join(left: _Table, right: _Table, ticker: Ticker) -> _Table:
    """The rows of both tables that agree on their shared variables, with
    their values summed; each row ticks one node."""
    (lscope, lrows), (rscope, rrows) = left, right
    shared = [i for i, v in enumerate(rscope) if v in lscope]
    at = [lscope.index(rscope[i]) for i in shared]
    extra = [i for i, v in enumerate(rscope) if v not in lscope]
    by: dict[tuple, list] = {}
    for row, total in rrows.items():
        by.setdefault(tuple(row[i] for i in shared), []).append(
            (tuple(row[i] for i in extra), total))
    rows = {}
    for row, total in lrows.items():
        for rest, more in by.get(tuple(row[i] for i in at), ()):
            ticker.tick()
            rows[row + rest] = total + more
    return lscope + tuple(rscope[i] for i in extra), rows


def _fix(table: _Table, var: Var, term: Term) -> _Table:
    """The table's rows that give ``var`` the term, without that column."""
    scope, rows = table
    if var not in scope:
        return table
    i = scope.index(var)
    return scope[:i] + scope[i + 1:], {row[:i] + row[i + 1:]: total
                                       for row, total in rows.items()
                                       if row[i] == term}


# ---------------------------------------------------------------------------
# Proof assembly: the numbering, and the conjunction and generalization tail
# ---------------------------------------------------------------------------

def assemble_proof(targets: Iterable[Hashable],
                   derive: Callable[[Hashable], tuple[Label, Sequence,
                                                      Optional[Schema]]],
                   goal: Optional[BooleanCQ] = None,
                   strict_cg: bool = False) -> ProofGraph:
    """The proof below the target nodes, with the goal tail when a goal is
    given (:func:`add_goal_tail`).

    ``derive(node)`` gives a node's label, its premises (nodes) and the
    schema of the edge from them, None for a leaf.  Each node is derived
    once, when the walk first reaches it, and one vertex is made per node.
    The walk runs in postorder from the targets, premises in edge order,
    and numbers a vertex and builds its edge when the vertex is done.  So
    the ids are read off the proof itself, whatever it was found in, and
    with the tail numbered last the proof is in postorder from its sink.
    KBError on a cyclic derivation.
    """
    ids: dict = {}                  # a node on the walk's stack maps to -1
    vertices: dict[int, Label] = {}
    edges: list[ProofEdge] = []
    targets = list(targets)
    for root in targets:
        if root in ids:
            continue
        ids[root] = -1
        label, premises, schema = derive(root)
        stack = [(root, label, premises, schema, iter(premises))]
        while stack:
            for node in stack[-1][4]:
                vid = ids.get(node)
                if vid is None:
                    label, premises, schema = derive(node)
                    if schema is None:      # a leaf is done at once
                        ids[node] = vid = len(vertices)
                        vertices[vid] = label
                        continue
                    ids[node] = -1
                    stack.append((node, label, premises, schema,
                                  iter(premises)))
                    break
                if vid < 0:
                    raise KBError("the derivation is cyclic")
            else:
                node, label, premises, schema, _ = stack.pop()
                vid = ids[node] = len(vertices)
                vertices[vid] = label
                if schema is not None:
                    edges.append(ProofEdge(tuple([ids[p] for p in premises]),
                                           vid, schema))
    target_ids = [ids[t] for t in targets]
    if goal is None:
        return ProofGraph(vertices, edges)
    return add_goal_tail(vertices, edges, target_ids, goal, strict_cg)


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
        vertices[next_id] = tuple(vertices[t] for t in targets) if gen \
            else goal
        edges.append(ProofEdge(tuple(targets), next_id, Schema.C))
        targets = [next_id]
        next_id += 1
    if gen:
        vertices[next_id] = goal
        edges.append(ProofEdge((targets[0],), next_id, Schema.G))
    return ProofGraph(vertices, edges)


# ---------------------------------------------------------------------------
# The polynomial routes: the least match over the fold, unfolded
# ---------------------------------------------------------------------------

def tree_query_min_treesize(kb: KnowledgeBase, q: BooleanCQ,
                            strict_cg: bool = False,
                            ticker: Optional[Ticker] = None
                            ) -> ProofGraph:
    """Minimal-tree-size proof for a tree-shaped query over DL-Lite.

    It is the size route as well (``dllite_query_min_size``): per-atom
    proofs in DL-Lite are linear, where size and tree size agree; sharing
    across atoms is reflected in the measured result.
    """
    if not is_tree_shaped(q):
        raise CompressError("query is not tree-shaped")
    return least_proof(compress_dllite, kb, q, strict_cg, ticker)[0]


dllite_query_min_size = tree_query_min_treesize


def el_cq_min_treesize(kb: KnowledgeBase, q: BooleanCQ,
                       strict_cg: bool = False,
                       ticker: Optional[Ticker] = None
                       ) -> ProofGraph:
    """Minimal-tree-size proof over EL or DL-Lite, for any query shape."""
    return least_proof(compress_el, kb, q, strict_cg, ticker)[0]


def least_proof(compress: Callable[..., CompressedStructure],
                kb: KnowledgeBase, q: BooleanCQ, strict_cg: bool,
                ticker: Optional[Ticker]) -> tuple[ProofGraph, int]:
    """The proof of the first of the least matches into the fold that
    unfolds (:func:`decompress`), and its tree size: the match's summed
    tree-size values plus the goal tail.  When none unfolds,
    DecompressError: the fold's value then lies below every real proof, and
    the exact search has to settle the optimum.  The fold has placeholders
    where the universal model has Skolem terms, so a query naming one is
    left to the exact search.  The tree-size values and the least step tick
    the ticker's nodes, and the fold and the unfolding charge its clock."""
    if any(isinstance(t, SkolemTerm) for a in q.atoms for t in atom_terms(a)):
        raise CompressError("query names a Skolem term, which the "
                            "compressed structure folds away")
    comp = compress(kb, ticker)
    values, chosen = dp_min_tree(comp.structure, ticker)
    tied = least_matches(comp.structure, values, q, ticker)
    first = next(tied, None)
    if first is None:
        raise CompressError("query is not entailed: no match in the "
                            "compressed structure")
    value = goal_tail_size(q, strict_cg) + sum(
        values[comp.structure.atom_ids[substitute_atom(a, first)]]
        for a in q.atoms)
    return decompress(comp, kb, q, values, chosen,
                      itertools.chain([first], tied), strict_cg,
                      ticker), value
