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

from .kb import (Atom, BooleanCQ, EqAtom, KnowledgeBase, SkolemRule,
                 SkolemTerm, Term, atom_is_ground, atom_key, atom_pred,
                 atom_terms, map_atom_terms, orient_equality, substitute_atom,
                 term_depth)
from .matching import (AtomIndex, match_conjunction, match_positionally,
                       unifiers, unify_atom)
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
    """The rule body bound to the premises position by position; no
    recorded substitution is trusted."""
    if not premises or not isinstance(premises[-1], RuleLabel):
        return "the last premise must be a rule"
    rule = premises[-1].rule
    if not isinstance(rule, SkolemRule):
        return "rule premise must be Skolemized"
    sk_rules = kb.skolem_rules
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
    if conclusion.atom not in {substitute_atom(h, subst) for h in rule.head}:
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
    # the atom vertices by their atom, looked up without an AtomLabel
    atom_ids: dict[Atom, int] = field(default_factory=dict)
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
            if isinstance(label, AtomLabel):
                self.atom_ids[label.atom] = vid
        return vid

    def add_edge(self, premises: tuple[int, ...], conclusion: int,
                 schema: Schema) -> None:
        idx = len(self.edges)
        self.edges.append(ProofEdge(premises, conclusion, schema))
        self.in_edges[conclusion].append(idx)

    def has_atom(self, atom: Atom) -> bool:
        return atom in self.atom_ids


def saturate(facts: Iterable[Atom], rules: Sequence[SkolemRule],
             depth_bound: int, max_atoms: Optional[int] = None,
             deadline: Optional[float] = None) -> FiniteStructure:
    """Materialize every rule application and equality replacement whose
    conclusion stays within the depth bound.

    Semi-naive: each round seeds rule bodies with the previous round's new
    atoms, visits only the rules whose body predicates they carry, and
    pairs an equality with an atom only when one of the two is new, so
    work is proportional to what actually changed.

    The normal form caps bodies at two atoms, so a step seeded by one
    frontier atom needs no general match: a one-atom body's match is the
    seed's unifier, and the other atom of a two-atom body is unified
    against its list in the index under the seed (:func:`unifiers`).
    On the first round a one-atom body is unified against its list too.
    Each list is read before the step records its first conclusion, which
    is when :func:`match_conjunction` reads it, so vertex ids and edge
    order, which proof ids follow, are those of matching bodies whole.
    The matcher itself runs only on the first round's two-atom bodies and
    on longer bodies built in code.
    """
    import time as _time

    structure = FiniteStructure(depth_bound=depth_bound)
    index, atom_ids = structure.index, structure.atom_ids
    new_atoms: dict[Atom, tuple] = {}    # this round's, with their atom_key

    def add_atom(atom: Atom, key: tuple) -> int:
        new_atoms[atom] = key
        index.add(atom, key)
        return structure.vertex_for(AtomLabel(atom))

    keys = {f: atom_key(f) for f in facts}
    for f in sorted(keys, key=keys.__getitem__):
        structure.leaf_ids.add(add_atom(f, keys[f]))
    rule_ids = []
    for r in rules:
        vid = structure.vertex_for(RuleLabel(r))
        structure.leaf_ids.add(vid)
        rule_ids.append(vid)

    # MP premises end with a rule vertex and E premises do not, so the
    # premises and the conclusion identify an edge
    seen_edges: set[tuple[tuple[int, ...], Atom]] = set()
    # each term's depth, once: a conclusion's terms are premise terms,
    # constants and Skolem applications to premise terms, so a term's
    # depth is mostly its argument's plus one
    depths: dict[Term, int] = {}

    def depth(t: Term) -> int:
        d = depths.get(t)
        if d is None:
            inner = depths.get(t.arg) if isinstance(t, SkolemTerm) else -1
            d = depths[t] = term_depth(t) if inner is None else inner + 1
        return d

    def record(schema: Schema, premise_ids: tuple[int, ...],
               concl_atom: Atom) -> None:
        """Add the edge unless it is known; a new conclusion atom joins the
        next frontier.  The premises are atoms of the index (or rules), so
        they already have vertices."""
        if max(map(depth, atom_terms(concl_atom))) > depth_bound:
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
            vid = add_atom(concl_atom, atom_key(concl_atom))
        structure.add_edge(premise_ids, vid, schema)

    def check_deadline() -> None:
        if deadline is not None and _time.monotonic() > deadline:
            structure.complete = False
            raise BudgetExceeded("saturation deadline")

    def body_matches(body: Sequence[Atom], seeds_by_pred: Optional[dict]
                     ) -> Iterator[tuple[tuple[int, ...], dict]]:
        """The body atoms' vertex ids and the substitution of each match:
        all matches without seeds, else each seed's, in the matcher's
        order (a match seeded twice comes twice)."""
        if seeds_by_pred is None and len(body) == 1:
            check_deadline()
            for g, ext in unifiers(body[0], index, {}):
                yield (atom_ids[g],), ext
        elif seeds_by_pred is None or len(body) > 2:
            # a body predicate without atoms leaves nothing to match
            if not all(index.bucket(atom_pred(b)) for b in body):
                return
            for seed in [{}] if seeds_by_pred is None else [
                    seed for b in body
                    for fa in seeds_by_pred.get(atom_pred(b), ())
                    if (seed := unify_atom(b, fa, {})) is not None]:
                check_deadline()
                for subst in match_conjunction(body, index, seed):
                    yield tuple(atom_ids[substitute_atom(b, subst)]
                                for b in body), subst
        else:
            for pos, pattern in enumerate(body):
                for fa in seeds_by_pred.get(atom_pred(pattern), ()):
                    seed = unify_atom(pattern, fa, {})
                    if seed is None:
                        continue
                    check_deadline()
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

    first_round = True
    while new_atoms:
        check_deadline()
        current, new_atoms = new_atoms, {}
        frontier = sorted(current, key=current.__getitem__)
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
            seen: set[tuple[int, ...]] = set()
            for body_ids, subst in body_matches(
                    rule.body, None if first_round else frontier_by_pred):
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
                if first_round or ("=",) in frontier_by_pred else []
            by_term: dict[Term, list[Atom]] = {}
            for fa in frontier:
                for t in set(atom_terms(fa)):
                    by_term.setdefault(t, []).append(fa)
            steps = list(_replacements(
                eqs, lambda eq, src: pool if first_round or eq in current
                else by_term.get(src, ())))
            for atom, eq, concl in steps:
                record(Schema.E, (atom_ids[atom], atom_ids[eq]), concl)
        first_round = False
    return structure


def saturate_kb(kb: KnowledgeBase, depth_bound: int,
                max_atoms: Optional[int] = None,
                deadline: Optional[float] = None) -> FiniteStructure:
    return saturate(kb.abox, kb.skolem_rules, depth_bound,
                    max_atoms=max_atoms, deadline=deadline)


def default_depth_ceiling(kb: KnowledgeBase, q: BooleanCQ) -> int:
    # polynomial in the TBox and query; enough slack for the small families,
    # and never below the depth of a Skolem term the query names
    return max(4, len(kb.tbox) * (len(q.atoms) + 1) + 2,
               *(term_depth(t) for a in q.atoms for t in atom_terms(a)))
