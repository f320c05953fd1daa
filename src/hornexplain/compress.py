"""Polynomial-size compressed derivation structures and the algorithms
built on them.

Anonymous chase elements are folded into finitely many placeholder
individuals: one per (possibly inverse) role for the DL-Lite variant, one
per Skolem function for the EL variant.  Proofs found over the compressed
structure are rewritten back to real Skolem terms afterwards; the rewriting
follows each vertex's own derivation, so a proof that conflates witnesses
with different origins is rejected rather than silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .chase import default_depth_ceiling
from .kb import (Atom, BooleanCQ, Const, Fragment, KBError, KnowledgeBase,
                 RoleAtom, SkolemRule, SkolemTerm, Term, Var, atom_terms,
                 gaifman_graph, is_tree_shaped, map_atom_terms, skolemize,
                 substitute_atom, term_key)
from .matching import match_conjunction, match_positionally
from .proofs import (AtomLabel, CQLabel, ConjLabel, Label, ProofEdge,
                     ProofGraph, RuleLabel, Schema, label_key)
from .deriver_sk import FiniteStructure, saturate, saturate_kb


class CompressError(KBError):
    pass


class DecompressError(KBError):
    """The compressed proof mixes witnesses of different origins."""


@dataclass
class CompressedStructure:
    structure: FiniteStructure
    variant: str                      # "dllite" | "el"
    fresh_consts: frozenset[str]      # placeholder individual names
    rules: tuple[SkolemRule, ...]     # compressed rules, indexed like the TBox

    def constants(self) -> list[Const]:
        out: set[Const] = set()
        for lab in self.structure.vertices.values():
            if isinstance(lab, AtomLabel):
                for t in atom_terms(lab.atom):
                    if isinstance(t, Const):
                        out.add(t)
        return sorted(out, key=term_key)


def _fresh_const(base: str, taken: set[str]) -> Const:
    name = base
    while name in taken:
        name = "_" + name
    taken.add(name)
    return Const(name)


def _compress_head(head: tuple[Atom, ...], fn: str, placeholder: Const
                   ) -> tuple[Atom, ...]:
    def fix(t: Term) -> Term:
        if isinstance(t, SkolemTerm) and t.fn == fn:
            return placeholder
        return t

    return tuple(map_atom_terms(a, fix) for a in head)


def _compress(kb: KnowledgeBase, name_for_rule,
              deadline: Optional[float]) -> CompressedStructure:
    taken = set(kb.signature.individual_names)
    fresh: dict[str, Const] = {}
    compressed: list[SkolemRule] = []
    for rule in skolemize(kb.tbox):
        if rule.fn is None:
            compressed.append(rule)
            continue
        base = name_for_rule(rule)
        if base not in fresh:
            fresh[base] = _fresh_const(base, taken)
        placeholder = fresh[base]
        compressed.append(SkolemRule(rule.body,
                                     _compress_head(rule.head, rule.fn,
                                                    placeholder),
                                     rule.normal_form, rule.index, rule.fn))
    structure = saturate(kb.abox, tuple(compressed), depth_bound=0,
                         deadline=deadline)
    return CompressedStructure(structure, "",
                               frozenset(c.name for c in fresh.values()),
                               tuple(compressed))


def compress_dllite(kb: KnowledgeBase, deadline: Optional[float] = None
                    ) -> CompressedStructure:
    """Placeholder pool: one individual per (possibly inverse) role."""
    if kb.fragment != Fragment.DLLiteR:
        raise CompressError(f"fragment mismatch: {kb.fragment.value} input, "
                            "this construction needs dl-lite-r")

    def name_for_rule(rule: SkolemRule) -> str:
        role_atom = next(a for a in rule.head if isinstance(a, RoleAtom))
        # the placeholder stands for the witness object of the head role atom
        if isinstance(role_atom.obj, SkolemTerm):
            return f"b_ex_{role_atom.role}_inv"
        return f"b_ex_{role_atom.role}"

    out = _compress(kb, name_for_rule, deadline)
    out.variant = "dllite"
    return out


def compress_el(kb: KnowledgeBase, deadline: Optional[float] = None
                ) -> CompressedStructure:
    """Placeholder pool: one individual per Skolem function."""
    if kb.fragment not in (Fragment.EL, Fragment.DLLiteR):
        raise CompressError(f"fragment mismatch: {kb.fragment.value} input, "
                            "this construction needs el or dl-lite-r")
    out = _compress(kb, lambda rule: f"c_{rule.fn}", deadline)
    out.variant = "el"
    return out


# ---------------------------------------------------------------------------
# Decompression
# ---------------------------------------------------------------------------

def _contains_fresh(t: Term, fresh: frozenset[str]) -> bool:
    if isinstance(t, Const):
        return t.name in fresh
    if isinstance(t, SkolemTerm):
        return _contains_fresh(t.arg, fresh)
    return False


def decompress(proof: ProofGraph, kb: KnowledgeBase,
               comp: CompressedStructure) -> ProofGraph:
    """Rewrite placeholder individuals back to Skolem terms.

    Proceeds bottom-up: the introducing rule application of a placeholder
    determines the Skolem term, and every later inference is re-checked
    against the real Skolemized rules.  Size and tree size are unchanged.
    """
    real_rules = skolemize(kb.tbox)
    inc = proof.incoming()
    resolved: dict[int, Label] = {}

    for v in proof.topological_order():
        label = proof.vertices[v]
        edges = inc[v]
        if not edges:
            if isinstance(label, RuleLabel) and isinstance(label.rule,
                                                           SkolemRule):
                resolved[v] = RuleLabel(real_rules[label.rule.index])
            else:
                if isinstance(label, AtomLabel) and any(
                        _contains_fresh(t, comp.fresh_consts)
                        for t in atom_terms(label.atom)):
                    raise DecompressError("placeholder individual in a leaf")
                resolved[v] = label
            continue
        edge = edges[0]
        if edge.schema is Schema.MP:
            resolved[v] = _resolve_mp(proof, comp, edge, v, resolved)
        elif edge.schema is Schema.C:
            atoms = []
            for q in edge.premises:
                lab = resolved[q]
                assert isinstance(lab, AtomLabel)
                atoms.append(lab.atom)
            original = proof.vertices[v]
            if isinstance(original, CQLabel):
                resolved[v] = CQLabel(BooleanCQ(tuple(atoms), ()))
            else:
                resolved[v] = ConjLabel(tuple(atoms))
        elif edge.schema is Schema.G:
            # goal queries never mention placeholders; keep the label but
            # re-check that the resolved conjunction still instantiates it
            assert isinstance(label, CQLabel)
            premise = resolved[edge.premises[0]]
            ground = premise.atoms if isinstance(premise, ConjLabel) \
                else (premise.atom,)
            if match_positionally(list(label.cq.atoms), list(ground)) is None:
                raise DecompressError(
                    "conflated witnesses: the resolved conjunction no longer "
                    "instantiates the goal query")
            resolved[v] = label
        else:
            raise DecompressError(f"unexpected schema {edge.schema.value} in "
                                  "a compressed proof")

    return ProofGraph({v: resolved[v] for v in proof.vertices},
                      list(proof.edges))


def _resolve_mp(proof: ProofGraph, comp: CompressedStructure, edge: ProofEdge,
                v: int, resolved: dict[int, Label]) -> Label:
    rule_label = resolved[edge.premises[-1]]
    if not isinstance(rule_label, RuleLabel) \
            or not isinstance(rule_label.rule, SkolemRule):
        raise DecompressError("rule premise missing in a compressed proof")
    real_rule = rule_label.rule
    premise_atoms = []
    for q in edge.premises[:-1]:
        lab = resolved[q]
        assert isinstance(lab, AtomLabel)
        premise_atoms.append(lab.atom)
    subst = match_positionally(real_rule.body, premise_atoms)
    if subst is None:
        raise DecompressError(
            "conflated witnesses: premises with different origins meet in "
            "one rule application")
    # find which head atom this conclusion instantiates, via the compressed rule
    comp_rule = comp.rules[real_rule.index]
    comp_premises = []
    for q in edge.premises[:-1]:
        lab = proof.vertices[q]
        assert isinstance(lab, AtomLabel)
        comp_premises.append(lab.atom)
    comp_subst = match_positionally(comp_rule.body, comp_premises)
    original = proof.vertices[v]
    assert isinstance(original, AtomLabel) and comp_subst is not None
    for k, h in enumerate(comp_rule.head):
        if substitute_atom(h, comp_subst) == original.atom:
            return AtomLabel(substitute_atom(real_rule.head[k], subst))
    raise DecompressError("conclusion is not a head instance")


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
        total = 0
        for atom in q.atoms:
            vid = structure.label_ids.get(
                AtomLabel(substitute_atom(atom, subst)))
            if vid is None or values[vid] == _INF:
                break
            total += values[vid]
        else:
            key = tuple(sorted((v.name, term_key(t))
                               for v, t in subst.items()))
            scored.append((total, key, subst))
    scored.sort(key=lambda s: (s[0], s[1]))
    return [(total, subst) for total, _, subst in scored]


def assemble_witness(structure: FiniteStructure, chosen: dict[int, int],
                     q: BooleanCQ, sigma: dict[Var, Term],
                     strict_cg: bool) -> ProofGraph:
    """The proof of the query under the match ``sigma``: the chosen-edge
    witness of the matched atoms, then the goal tail."""
    targets: list[int] = []
    for atom in q.atoms:
        ground = substitute_atom(atom, sigma)
        vid = structure.label_ids.get(AtomLabel(ground))
        if vid is None:
            raise KBError(f"atom instance not derivable: {ground}")
        targets.append(vid)
    vertices, edges = extract_witness(structure, chosen, targets)
    return add_goal_tail(vertices, edges, targets, q, strict_cg)


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
    """Assignment graph over a tree-shaped query.

    Nodes map query terms to constants of the compressed structure; an edge
    connects assignments of Gaifman-adjacent terms, oriented from the root
    toward the leaves, and costs the atoms living on that term pair.
    """

    root: Term
    order: list[Term]                      # root first
    children: dict[Term, list[Term]]
    node_cost: dict[tuple[Term, Const], float]
    edge_cost: dict[tuple[tuple[Term, Const], tuple[Term, Const]], float]
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


def build_cost_graph(comp: CompressedStructure, q: BooleanCQ,
                     values: dict[int, float]) -> CostGraph:
    """Per-atom minimal proof costs aggregated over term assignments.

    Unary atoms (and atoms whose two positions carry the same term) are
    charged to the node of their term; binary atoms are charged to the edge
    of their term pair.
    """
    root, order, children = _gaifman_tree(q)
    constants = comp.constants()

    def atom_cost(atom: Atom, assignment: dict[Term, Const]) -> float:
        subst = {t: c for t, c in assignment.items() if isinstance(t, Var)}
        ground = substitute_atom(atom, subst)
        vid = comp.structure.label_ids.get(AtomLabel(ground))
        if vid is None:
            return _INF
        return values[vid]

    def candidates(term: Term) -> list[Const]:
        if isinstance(term, Const):
            return [term]
        return constants

    node_cost: dict[tuple[Term, Const], float] = {}
    for t in order:
        own_atoms = [a for a in q.atoms if set(atom_terms(a)) == {t}]
        for c in candidates(t):
            node_cost[(t, c)] = sum(atom_cost(a, {t: c}) for a in own_atoms)

    edge_cost: dict[tuple[tuple[Term, Const], tuple[Term, Const]], float] = {}
    for t in order:
        for child in children[t]:
            pair_atoms = [a for a in q.atoms
                          if set(atom_terms(a)) == {t, child}]
            for c1 in candidates(t):
                for c2 in candidates(child):
                    cost = sum(atom_cost(a, {t: c1, child: c2})
                               for a in pair_atoms)
                    edge_cost[((t, c1), (child, c2))] = cost
    return CostGraph(root, order, children, node_cost, edge_cost)


def eliminate_cost_graph(graph: CostGraph) -> CostGraph:
    """Leaf-up elimination keeping one minimal edge per (assignment, child
    term); ties go to the lexicographically least constant."""
    below: dict[tuple[Term, Const], float] = {}
    best_child: dict[tuple[Term, Const, Term], Const] = {}

    def cands(term: Term) -> list[Const]:
        return sorted({c for (t, c) in graph.node_cost if t == term},
                      key=term_key)

    for t in reversed(graph.order):
        for c in cands(t):
            total = graph.node_cost[(t, c)]
            for child in graph.children[t]:
                best = _INF
                best_c = None
                for cc in cands(child):
                    e = graph.edge_cost.get(((t, c), (child, cc)), _INF)
                    combined = e + below[(child, cc)]
                    if combined < best:
                        best, best_c = combined, cc
                if best_c is None or best == _INF:
                    total = _INF
                    break
                total += best
                best_child[(t, c, child)] = best_c
            below[(t, c)] = total

    root_cands = cands(graph.root)
    if not root_cands:
        graph.total = _INF
        return graph
    best_root = min(root_cands, key=lambda c: (below[(graph.root, c)],
                                               term_key(c)))
    graph.total = below[(graph.root, best_root)]
    if graph.total == _INF:
        return graph
    graph.chosen = {graph.root: best_root}
    queue = [graph.root]
    while queue:
        t = queue.pop(0)
        for child in graph.children[t]:
            graph.chosen[child] = best_child[(t, graph.chosen[t], child)]
            queue.append(child)
    return graph


def tree_query_min_treesize(kb: KnowledgeBase, q: BooleanCQ,
                            strict_cg: bool = False,
                            deadline: Optional[float] = None
                            ) -> tuple[ProofGraph, CostGraph]:
    """Minimal-tree-size proof for a tree-shaped query over DL-Lite.

    It is the size route as well (``dllite_query_min_size``): per-atom
    proofs in DL-Lite are linear, where size and tree size agree; sharing
    across atoms is reflected in the measured result.
    """
    if not is_tree_shaped(q):
        raise CompressError("query is not tree-shaped")
    comp = compress_dllite(kb, deadline)
    values, chosen = dp_min_tree(comp.structure)
    graph = eliminate_cost_graph(build_cost_graph(comp, q, values))
    if graph.total == _INF:
        raise CompressError("query is not entailed: no assignment is "
                            "derivable in the compressed structure")
    assignment = {t: c for t, c in graph.chosen.items() if isinstance(t, Var)}
    return _decompressed_witness(kb, q, comp, chosen, [assignment],
                                 strict_cg, deadline), graph


dllite_query_min_size = tree_query_min_treesize


# ---------------------------------------------------------------------------
# EL queries: assignment enumeration over the compressed structure
# ---------------------------------------------------------------------------

def el_cq_min_treesize(kb: KnowledgeBase, q: BooleanCQ,
                       strict_cg: bool = False,
                       deadline: Optional[float] = None) -> ProofGraph:
    """Minimal-tree-size proof via per-assignment minima.

    Enumerates homomorphisms of the query into the compressed structure in
    ascending cost order and returns the first assembly that survives
    decompression; conflated-witness assignments are skipped.
    """
    comp = compress_el(kb, deadline)
    values, chosen = dp_min_tree(comp.structure)
    ranked = rank_matches(comp.structure, values, q)
    if not ranked:
        raise CompressError("query is not entailed: no match in the "
                            "compressed structure")
    tied = [subst for total, subst in ranked if total == ranked[0][0]]
    return _decompressed_witness(kb, q, comp, chosen, tied, strict_cg,
                                 deadline)


def _decompressed_witness(kb: KnowledgeBase, q: BooleanCQ,
                          comp: CompressedStructure, chosen: dict[int, int],
                          assignments: list[dict[Var, Term]],
                          strict_cg: bool,
                          deadline: Optional[float]) -> ProofGraph:
    """The first of the equally cheap assignments whose compressed witness
    decompresses.

    When every one conflates anonymous witnesses of different origins (a
    join across branches), the optimal value is still right and the
    witness is realized over the real structure instead.
    """
    for subst in assignments:
        try:
            return decompress(assemble_witness(comp.structure, chosen, q,
                                               subst, strict_cg), kb, comp)
        except DecompressError:
            continue
    return _realize_over_real_structure(kb, q, strict_cg, deadline)


def _realize_over_real_structure(kb: KnowledgeBase, q: BooleanCQ,
                                 strict_cg: bool,
                                 deadline: Optional[float]) -> ProofGraph:
    """Minimal-tree-size witness over the depth-bounded real structure.

    Used when a compressed witness conflates anonymous witnesses of
    different origins: the value machinery stays polynomial, only the
    witness is re-derived with real Skolem terms.
    """
    structure = saturate_kb(kb, default_depth_ceiling(kb, q),
                            max_atoms=500_000, deadline=deadline)
    values, chosen = dp_min_tree(structure)
    ranked = rank_matches(structure, values, q)
    if not ranked:
        raise CompressError("query is not entailed within the realization "
                            "depth bound")
    return assemble_witness(structure, chosen, q, ranked[0][1], strict_cg)
