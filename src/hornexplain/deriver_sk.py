"""Ground-atom inference schemas: rule application (MP), equality
replacement (E), conjunction (C), and generalization (G).

The full derivation structure over a knowledge base is infinite (Skolem
terms nest arbitrarily deep), so it is only ever materialized up to a term
depth bound, as a :class:`FiniteStructure`, by :func:`saturate`.  Edge
admissibility is checked separately, schema by schema, in
:func:`check_edge_labels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .kb import (Atom, EqAtom, KnowledgeBase, SkolemRule, Term,
                 atom_is_ground, atom_key, atom_pred, atom_terms,
                 map_atom_terms, orient_equality, skolemize, substitute_atom,
                 term_depth)
from .matching import AtomIndex, match_conjunction, match_positionally, unify_atom
from .proofs import (AtomLabel, ConjLabel, CQLabel, Label, ProofEdge,
                     RuleLabel, Schema)


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


def leaf_labels(kb: KnowledgeBase) -> set[Label]:
    out: set[Label] = {AtomLabel(a) for a in kb.abox}
    out |= {RuleLabel(r) for r in skolemize(kb.tbox)}
    return out


# ---------------------------------------------------------------------------
# Edge admissibility
# ---------------------------------------------------------------------------

def check_edge_labels(schema: Schema, premises: tuple[Label, ...],
                      conclusion: Label, kb: KnowledgeBase) -> Optional[str]:
    """None when the edge instantiates its schema, else a diagnostic."""
    if schema is Schema.MP:
        return _check_mp(premises, conclusion, kb)
    if schema is Schema.E:
        return _check_e(premises, conclusion)
    if schema is Schema.C:
        return _check_c(premises, conclusion)
    if schema is Schema.G:
        return _check_g(premises, conclusion)
    return f"schema {schema.value} does not belong to this deriver"


def _check_mp(premises, conclusion, kb) -> Optional[str]:
    if not premises or not isinstance(premises[-1], RuleLabel):
        return "the last premise must be a rule"
    rule = premises[-1].rule
    if not isinstance(rule, SkolemRule):
        return "rule premise must be Skolemized"
    sk_rules = skolemize(kb.tbox)
    if not (0 <= rule.index < len(sk_rules) and sk_rules[rule.index] == rule):
        return "rule is not from the TBox"
    atom_premises = premises[:-1]
    for lab in atom_premises:
        if not isinstance(lab, AtomLabel) or not atom_is_ground(lab.atom):
            return "rule premises must be ground atoms"
    subst = match_positionally(rule.body, [lab.atom for lab in atom_premises])
    if subst is None:
        return "premises do not instantiate the rule body"
    if not isinstance(conclusion, AtomLabel):
        return "conclusion must be a ground atom"
    heads = {substitute_atom(h, subst) for h in rule.head}
    if conclusion.atom not in heads:
        return "conclusion is not an instantiated head atom"
    return None


def _check_e(premises, conclusion) -> Optional[str]:
    if len(premises) != 2 or not all(isinstance(p, AtomLabel)
                                     for p in premises):
        return "equality replacement takes an atom and an equality"
    atom_lab, eq_lab = premises
    if not isinstance(eq_lab.atom, EqAtom):
        return "second premise must be an equality"
    try:
        oriented = orient_equality(eq_lab.atom.lhs, eq_lab.atom.rhs)
    except ValueError:
        return "equality cannot be oriented toward a constant"
    if oriented is None:
        return "equality is trivial"
    src, dst = oriented
    if atom_lab.atom == eq_lab.atom:
        return "equality cannot rewrite itself"
    replaced = _replace_top_level(atom_lab.atom, src, dst)
    if replaced is None:
        return "replaced term does not occur at the top level of the atom"
    if not isinstance(conclusion, AtomLabel) or conclusion.atom != replaced:
        return "conclusion does not match the replacement result"
    return None


def _check_c(premises, conclusion) -> Optional[str]:
    atoms = []
    for lab in premises:
        if not isinstance(lab, AtomLabel) or not atom_is_ground(lab.atom):
            return "conjunction premises must be ground atoms"
        atoms.append(lab.atom)
    if isinstance(conclusion, ConjLabel):
        got = conclusion.atoms
    elif isinstance(conclusion, CQLabel) and not conclusion.cq.existential_vars:
        got = conclusion.cq.atoms
    else:
        return "conclusion must be the ground conjunction of the premises"
    if tuple(atoms) != got:
        return "conclusion atoms differ from the premises (order matters)"
    return None


def _check_g(premises, conclusion) -> Optional[str]:
    if len(premises) != 1:
        return "generalization takes a single conjunction premise"
    lab = premises[0]
    if isinstance(lab, ConjLabel):
        ground = lab.atoms
    elif isinstance(lab, AtomLabel):
        ground = (lab.atom,)
    else:
        return "premise must be a ground conjunction or atom"
    if not isinstance(conclusion, CQLabel):
        return "conclusion must be a query"
    cq = conclusion.cq
    if len(cq.atoms) != len(ground):
        return "query and conjunction have different lengths"
    subst = match_positionally(list(cq.atoms), list(ground))
    if subst is None:
        return "conjunction is not an instance of the query"
    return None


# ---------------------------------------------------------------------------
# Finite view of the derivation structure
# ---------------------------------------------------------------------------

class BudgetExceeded(Exception):
    pass


@dataclass
class FiniteStructure:
    """Derivation structure restricted to a term-depth bound."""

    vertices: dict[int, Label] = field(default_factory=dict)
    label_ids: dict[Label, int] = field(default_factory=dict)
    edges: list[ProofEdge] = field(default_factory=list)
    in_edges: dict[int, list[int]] = field(default_factory=dict)
    leaf_ids: set[int] = field(default_factory=set)
    complete: bool = True
    depth_bound: Optional[int] = None
    index: AtomIndex = field(default_factory=AtomIndex)  # the atom vertices
    # premise ids of the rule applications cut off by the depth bound
    frontier: set[tuple[int, ...]] = field(default_factory=set)

    def vertex_for(self, label: Label) -> int:
        vid = self.label_ids.get(label)
        if vid is None:
            vid = len(self.vertices)
            self.vertices[vid] = label
            self.label_ids[label] = vid
            self.in_edges[vid] = []
        return vid

    def add_edge(self, premises: tuple[int, ...], conclusion: int,
                 schema: Schema) -> None:
        idx = len(self.edges)
        self.edges.append(ProofEdge(premises, conclusion, schema))
        self.in_edges[conclusion].append(idx)

    def has_atom(self, atom: Atom) -> bool:
        return AtomLabel(atom) in self.label_ids


def saturate(facts: Iterable[Atom], rules: Sequence[SkolemRule],
             depth_bound: int, max_atoms: Optional[int] = None,
             deadline: Optional[float] = None) -> FiniteStructure:
    """Materialize every rule application and equality replacement whose
    conclusion stays within the depth bound.

    Semi-naive: each round seeds rule bodies with the previous round's new
    atoms, visits only the rules whose body predicates they carry, and
    pairs an equality with an atom only when one of the two is new, so
    work is proportional to what actually changed.
    """
    import time as _time

    structure = FiniteStructure(depth_bound=depth_bound)
    index = structure.index
    label_ids = structure.label_ids
    for f in sorted(facts, key=atom_key):
        vid = structure.vertex_for(AtomLabel(f))
        structure.leaf_ids.add(vid)
        index.add(f)
    rule_ids = []
    for r in rules:
        vid = structure.vertex_for(RuleLabel(r))
        structure.leaf_ids.add(vid)
        rule_ids.append(vid)

    seen_edges: set[tuple] = set()

    def record(schema: Schema, premise_ids: tuple[int, ...],
               concl_atom: Atom) -> bool:
        """Returns True when the conclusion atom is new.  The premises are
        atoms of the index (or rules), so they already have vertices."""
        if max(term_depth(t) for t in atom_terms(concl_atom)) > depth_bound:
            structure.complete = False
            structure.frontier.add(premise_ids)
            return False
        key = (schema, premise_ids, concl_atom)
        if key in seen_edges:
            return False
        seen_edges.add(key)
        fresh = concl_atom not in index
        if fresh:
            if max_atoms is not None and len(index) >= max_atoms:
                structure.complete = False
                raise BudgetExceeded(f"saturation exceeded {max_atoms} atoms")
            index.add(concl_atom)
        structure.add_edge(premise_ids,
                           structure.vertex_for(AtomLabel(concl_atom)), schema)
        return fresh

    def check_deadline() -> None:
        if deadline is not None and _time.monotonic() > deadline:
            structure.complete = False
            raise BudgetExceeded("saturation deadline")

    # a rule can fire anew only when a body predicate has a frontier atom
    rules_by_pred: dict[tuple, list[int]] = {}
    for i, rule in enumerate(rules):
        for pattern in rule.body:
            rules_by_pred.setdefault(atom_pred(pattern), []).append(i)

    frontier = sorted(index.atoms, key=atom_key)
    first_round = True
    while frontier:
        check_deadline()
        new_atoms: set[Atom] = set()
        frontier_set = set(frontier)
        frontier_by_pred: dict[tuple, list[Atom]] = {}
        for fa in frontier:
            frontier_by_pred.setdefault(atom_pred(fa), []).append(fa)
        if first_round:
            active = range(len(rules))
        else:
            active = sorted({i for pred in frontier_by_pred
                             for i in rules_by_pred.get(pred, ())})
        for i in active:
            rule, rule_id = rules[i], rule_ids[i]
            seeds: list[dict] = []
            if first_round:
                seeds.append({})
            else:
                for pattern in rule.body:
                    for fa in frontier_by_pred.get(atom_pred(pattern), ()):
                        ext = unify_atom(pattern, fa, {})
                        if ext is not None:
                            seeds.append(ext)
            seen_subst: set[tuple] = set()
            for seed in seeds:
                check_deadline()
                for subst in match_conjunction(rule.body, index, seed):
                    key = tuple(sorted((v.name, subst[v]) for v in subst))
                    if key in seen_subst:
                        continue
                    seen_subst.add(key)
                    premise_ids = tuple(
                        label_ids[AtomLabel(substitute_atom(b, subst))]
                        for b in rule.body) + (rule_id,)
                    for h in rule.head:
                        concl = substitute_atom(h, subst)
                        if record(Schema.MP, premise_ids, concl):
                            new_atoms.add(concl)
        eqs = index.bucket(("=",))
        if eqs:
            # only instances with a frontier premise are new: a frontier
            # equality rewrites every atom, an older one the frontier atoms
            # with its replaced term at the top level (both in atom_key
            # order)
            pool = sorted(index.atoms, key=atom_key) \
                if first_round or ("=",) in frontier_by_pred else []
            by_term: dict[Term, list[Atom]] = {}
            for fa in frontier:
                for t in set(atom_terms(fa)):
                    by_term.setdefault(t, []).append(fa)
            steps = list(_replacements(
                eqs, lambda eq, src: pool if first_round or eq in frontier_set
                else by_term.get(src, ())))
            for atom, eq, concl in steps:
                if record(Schema.E, (label_ids[AtomLabel(atom)],
                                     label_ids[AtomLabel(eq)]), concl):
                    new_atoms.add(concl)
        first_round = False
        frontier = sorted(new_atoms, key=atom_key)
    return structure


def saturate_kb(kb: KnowledgeBase, depth_bound: int,
                max_atoms: Optional[int] = None,
                deadline: Optional[float] = None) -> FiniteStructure:
    return saturate(kb.abox, skolemize(kb.tbox), depth_bound,
                    max_atoms=max_atoms, deadline=deadline)
