"""Ground-atom inference schemas: rule application (MP), equality
replacement (E), conjunction (C), and generalization (G).

The full derivation structure over a knowledge base is infinite (Skolem
terms nest arbitrarily deep), so it is only ever materialized up to a term
depth bound, as a :class:`FiniteStructure`, by :func:`saturate`, whose
vertices are labeled by the atoms and Skolem rules themselves, each atom's
vertex found through ``atom_ids``.  Each schema's entry in ``CHECKS``
checks a step on its premise and conclusion labels: atoms, ground
conjunctions (tuples of atoms), queries and rules.  The one checker of both
calculi, :func:`hornexplain.deriver_cq.check_edge_labels`, reads it.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .kb import (ATOM_TYPES, Atom, BooleanCQ, EqAtom, KnowledgeBase,
                 SkolemRule, Term, atom_is_ground, atom_key, atom_pred,
                 atom_terms, map_atom_terms, orient_equality, substitute_atom,
                 term_depth)
from .matching import AtomIndex, match_positionally, unifiers, unify_atom
from .proofs import RULE_TYPES, Label, ProofEdge, Schema, label_key


def _replace_top_level(atom: Atom, src: Term, dst: Term) -> Optional[Atom]:
    """Replace top-level occurrences of src; None when src does not occur."""
    if src not in atom_terms(atom):
        return None
    return map_atom_terms(atom, lambda t: dst if t == src else t)


def _replacements(eqs: Iterable[Atom],
                  candidates: Callable[[Atom, Term], Sequence[Atom]]
                  ) -> Iterator[tuple[Atom, Atom, Atom]]:
    """(atom, equality, result) for each orientable equality in turn and
    each of its candidate atoms with the replaced term at the top level, in
    candidate order."""
    for eq in eqs:
        try:
            oriented = orient_equality(eq.lhs, eq.rhs)
        except ValueError:
            continue
        if oriented is None:
            continue
        src, dst = oriented
        for atom in candidates(eq, src):
            if atom == eq:
                continue
            replaced = _replace_top_level(atom, src, dst)
            if replaced is not None:
                yield atom, eq, replaced


# ---------------------------------------------------------------------------
# Edge admissibility
# ---------------------------------------------------------------------------

def _check_mp(premises, conclusion) -> Optional[str]:
    """The rule body bound to the premises position by position; no
    recorded substitution is trusted."""
    if not premises or not isinstance(premises[-1], RULE_TYPES):
        return "the last premise must be a rule"
    rule = premises[-1]
    if not isinstance(rule, SkolemRule):
        return "rule premise must be Skolemized"
    atom_premises = premises[:-1]
    for lab in atom_premises:
        if not isinstance(lab, ATOM_TYPES) or not atom_is_ground(lab):
            return "rule premises must be ground atoms"
    subst = match_positionally(rule.body, atom_premises)
    if subst is None:
        return "premises do not instantiate the rule body"
    if not isinstance(conclusion, ATOM_TYPES):
        return "conclusion must be a ground atom"
    if conclusion not in {substitute_atom(h, subst) for h in rule.head}:
        return "conclusion is not an instantiated head atom"
    return None


def _check_e(premises, conclusion) -> Optional[str]:
    if len(premises) != 2 or not all(isinstance(p, ATOM_TYPES)
                                     for p in premises):
        return "equality replacement takes an atom and an equality"
    atom, eq = premises
    if not isinstance(eq, EqAtom):
        return "second premise must be an equality"
    try:
        oriented = orient_equality(eq.lhs, eq.rhs)
    except ValueError:
        return "equality cannot be oriented toward a constant"
    if oriented is None:
        return "equality is trivial"
    src, dst = oriented
    if atom == eq:
        return "equality cannot rewrite itself"
    replaced = _replace_top_level(atom, src, dst)
    if replaced is None:
        return "replaced term does not occur at the top level of the atom"
    if conclusion != replaced:
        return "conclusion does not match the replacement result"
    return None


def _check_c(premises, conclusion) -> Optional[str]:
    for lab in premises:
        if not isinstance(lab, ATOM_TYPES) or not atom_is_ground(lab):
            return "conjunction premises must be ground atoms"
    if isinstance(conclusion, tuple):
        got = conclusion
    elif isinstance(conclusion, BooleanCQ) and not conclusion.existential_vars:
        got = conclusion.atoms
    else:
        return "conclusion must be the ground conjunction of the premises"
    if tuple(premises) != got:
        return "conclusion atoms differ from the premises (order matters)"
    return None


def _check_g(premises, conclusion) -> Optional[str]:
    if len(premises) != 1:
        return "generalization takes a single conjunction premise"
    ground = premises[0]
    if isinstance(ground, ATOM_TYPES):
        ground = (ground,)
    elif not isinstance(ground, tuple):
        return "premise must be a ground conjunction or atom"
    if not isinstance(conclusion, BooleanCQ):
        return "conclusion must be a query"
    cq = conclusion
    if len(cq.atoms) != len(ground):
        return "query and conjunction have different lengths"
    subst = match_positionally(list(cq.atoms), list(ground))
    if subst is None:
        return "conjunction is not an instance of the query"
    return None


# each schema's one definition: None when a step instantiates it, else why
# not, on the premise and conclusion labels only (whether an MP step's rule
# is the KB's own is deriver_cq._rule_error's check)
CHECKS = {Schema.MP: _check_mp, Schema.E: _check_e, Schema.C: _check_c,
          Schema.G: _check_g}


# ---------------------------------------------------------------------------
# Finite view of the derivation structure
# ---------------------------------------------------------------------------

class BudgetExceeded(Exception):
    pass


class Ticker:
    """A run's budget, which every phase of the run is held to: the nodes
    its searches count (:meth:`tick`), the clock that all other work is
    charged to (:meth:`charge`) and the atom cap of its saturations.  Both
    read the clock on their first call and on every 4,096th after it."""

    def __init__(self, max_nodes: float = float("inf"),
                 max_seconds: float = float("inf"),
                 max_atoms: Optional[int] = None):
        self.count = self.work = 0
        self.max_nodes, self.max_atoms = max_nodes, max_atoms
        self.deadline = time.monotonic() + max_seconds

    def tick(self) -> None:
        """One search node, counted against the node limit."""
        self.count += 1
        if self.count > self.max_nodes:
            raise BudgetExceeded("node limit")
        if self.count % 4096 == 1 and time.monotonic() > self.deadline:
            raise BudgetExceeded("time limit")

    def charge(self) -> None:
        """Work outside the search proper: held to the clock only."""
        self.work += 1
        if self.work % 4096 == 1 and time.monotonic() > self.deadline:
            raise BudgetExceeded("time limit")


@dataclass
class FiniteStructure:
    """Derivation structure restricted to a term-depth bound.  A vertex's
    in-edges are kept in :func:`edge_key` order, the tie order that every
    search and unfolding reads."""

    vertices: dict[int, Label] = field(default_factory=dict)
    keys: list = field(default_factory=list)    # label_key per vertex
    atom_ids: dict[Atom, int] = field(default_factory=dict)   # atom vertices
    edges: list[ProofEdge] = field(default_factory=list)
    in_edges: dict[int, list[int]] = field(default_factory=dict)
    leaf_ids: set[int] = field(default_factory=set)
    complete: bool = True
    depth_bound: Optional[int] = None
    index: AtomIndex = field(default_factory=AtomIndex)  # the atom vertices
    # premise ids of the rule applications cut off by the depth bound
    frontier: set[tuple[int, ...]] = field(default_factory=set)

    def add_vertex(self, label: Label) -> int:
        """A new vertex; an atom's is filed in ``atom_ids``."""
        vid = len(self.vertices)
        self.vertices[vid] = label
        self.keys.append(label_key(label))
        self.in_edges[vid] = []
        if isinstance(label, ATOM_TYPES):
            self.atom_ids[label] = vid
        return vid

    def add_edge(self, premises: tuple[int, ...], conclusion: int,
                 schema: Schema) -> None:
        idx = len(self.edges)
        self.edges.append(ProofEdge(premises, conclusion, schema))
        ins = self.in_edges[conclusion]
        if ins:
            insort(ins, idx, key=lambda i: edge_key(self, i))
        else:
            ins.append(idx)


def edge_key(structure: FiniteStructure, idx: int) -> tuple:
    """The tie order between derivations of one vertex: by schema, then by
    the premises' labels.  No two in-edges of a vertex share a key."""
    e = structure.edges[idx]
    return e.schema.value, tuple(map(structure.keys.__getitem__, e.premises))


def saturate(facts: Iterable[Atom], rules: Sequence[SkolemRule],
             depth_bound: int, ticker: Optional[Ticker] = None
             ) -> FiniteStructure:
    """Materialize every rule application and equality replacement whose
    conclusion stays within the depth bound.

    Semi-naive: each round seeds rule bodies with the previous round's new
    atoms, visits only the rules whose body predicates they carry, and
    pairs an equality with an atom only when one of the two is new, so
    work is proportional to what actually changed.

    The first round's frontier is every fact.  The normal form caps bodies
    at two atoms, so a step seeded by one frontier atom needs no general
    match: a one-atom body's match is the seed's unifier, and the other
    atom of a two-atom body is unified against its list in the index under
    the seed (:func:`unifiers`).  Where both body atoms have seeds, the
    side with more seeds is skipped when the other side's predicate has no
    atom older than the round, as every match it would find comes from the
    other side too; on the first round only the side with fewer facts is
    seeded.  Vertex ids are the order atoms come in; proofs are not
    numbered by them but by their own shape
    (:func:`hornexplain.compress.assemble_proof`).  Each seed, conclusion
    and replacement candidate is charged to the ticker, whose atom cap
    bounds the structure.
    """
    ticker = ticker or Ticker()
    charge, max_atoms = ticker.charge, ticker.max_atoms
    structure = FiniteStructure(depth_bound=depth_bound)
    index, atom_ids = structure.index, structure.atom_ids
    new_atoms: set[Atom] = set()    # this round's

    def add_atom(atom: Atom) -> int:
        new_atoms.add(atom)
        index.add(atom)
        return structure.add_vertex(atom)

    for f in sorted(set(facts), key=atom_key):
        structure.leaf_ids.add(add_atom(f))
    rule_ids = []
    for r in rules:
        vid = structure.add_vertex(r)
        structure.leaf_ids.add(vid)
        rule_ids.append(vid)

    # MP premises end with a rule vertex and E premises do not, so the
    # premises and the conclusion identify an edge
    seen_edges: set[tuple[tuple[int, ...], Atom]] = set()

    def record(schema: Schema, premise_ids: tuple[int, ...],
               concl_atom: Atom) -> None:
        """Add the edge unless it is known; a new conclusion atom joins the
        next frontier.  The premises are atoms of the index (or rules), so
        they already have vertices."""
        if max(map(term_depth, atom_terms(concl_atom))) > depth_bound:
            structure.complete = False
            structure.frontier.add(premise_ids)
            return
        key = (premise_ids, concl_atom)
        if key in seen_edges:
            return
        seen_edges.add(key)
        vid = atom_ids.get(concl_atom)
        if vid is None:
            if max_atoms is not None and len(index) >= max_atoms:
                structure.complete = False
                raise BudgetExceeded(f"saturation exceeded {max_atoms} atoms")
            vid = add_atom(concl_atom)
        structure.add_edge(premise_ids, vid, schema)

    def body_matches(body: Sequence[Atom], seeds_by_pred: dict
                     ) -> Iterator[tuple[tuple[int, ...], dict]]:
        """The body atoms' vertex ids and the substitution of each match
        with a seed in a body position (a match seeded twice comes
        twice)."""
        seeds = [seeds_by_pred.get(atom_pred(b), ()) for b in body]
        if len(body) == 2 and seeds[0] and seeds[1]:
            # a match of two seeds comes from either side, so the side with
            # more seeds is needed only for a partner older than the round
            few = int(len(seeds[1]) < len(seeds[0]))
            if all(a in current or a in new_atoms
                   for a in index.bucket(atom_pred(body[few]))):
                seeds[1 - few] = ()
        for pos, pattern in enumerate(body):
            for fa in seeds[pos]:
                seed = unify_atom(pattern, fa, {})
                if seed is None:
                    continue
                charge()
                fid = atom_ids[fa]
                if len(body) == 1:
                    yield (fid,), seed
                    continue
                for g, ext in unifiers(body[1 - pos], index, seed):
                    ids = (fid, atom_ids[g])
                    yield (ids if pos == 0 else ids[::-1]), ext

    # a rule can fire anew only when a body predicate has a frontier atom
    rules_by_pred: dict[tuple, list[int]] = {}
    for i, rule in enumerate(rules):
        for pattern in rule.body:
            rules_by_pred.setdefault(atom_pred(pattern), []).append(i)

    while new_atoms:
        charge()
        current, new_atoms = new_atoms, set()
        frontier = sorted(current, key=atom_key)
        frontier_by_pred: dict[tuple, list[Atom]] = {}
        for fa in frontier:
            frontier_by_pred.setdefault(atom_pred(fa), []).append(fa)
        for i in sorted({i for pred in frontier_by_pred
                         for i in rules_by_pred.get(pred, ())}):
            rule, rule_id = rules[i], rule_ids[i]
            seen: set[tuple[int, ...]] = set()
            for body_ids, subst in body_matches(rule.body, frontier_by_pred):
                if body_ids in seen:
                    continue
                seen.add(body_ids)
                premise_ids = body_ids + (rule_id,)
                for h in rule.head:
                    record(Schema.MP, premise_ids, substitute_atom(h, subst))
        eqs = index.bucket(("=",))
        if eqs:
            # only instances with a frontier premise are new: a frontier
            # equality rewrites every atom, an older one the frontier atoms
            # with its replaced term at the top level (both in atom_key
            # order)
            pool = sorted(index.atoms, key=atom_key) \
                if ("=",) in frontier_by_pred else []
            by_term: dict[Term, list[Atom]] = {}
            for fa in frontier:
                for t in set(atom_terms(fa)):
                    by_term.setdefault(t, []).append(fa)

            def candidates(eq: Atom, src: Term) -> Iterator[Atom]:
                for atom in pool if eq in current else by_term.get(src, ()):
                    charge()
                    yield atom

            steps = list(_replacements(eqs, candidates))
            for atom, eq, concl in steps:
                record(Schema.E, (atom_ids[atom], atom_ids[eq]), concl)
    return structure


def saturate_kb(kb: KnowledgeBase, depth_bound: int,
                ticker: Optional[Ticker] = None) -> FiniteStructure:
    return saturate(kb.abox, kb.skolem_rules, depth_bound, ticker)


def default_depth_ceiling(kb: KnowledgeBase, q: BooleanCQ) -> int:
    # polynomial in the TBox and query; enough slack for the small families,
    # and never below the depth of a Skolem term the query names
    return max(4, len(kb.tbox) * (len(q.atoms) + 1) + 2,
               *(term_depth(t) for a in q.atoms for t in atom_terms(a)))
