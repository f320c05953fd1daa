"""Whole-query inference schemas and the translations between the two
proof formats.

Query-level proofs stay sound with respect to the original rules: rule
application (MPe) rewrites part of a query, tautologies (Te) duplicate
atoms, and the remaining schemas mirror their ground-atom counterparts on
quantified conjunctions.  The translations convert in both directions:
ground-atom proofs aggregate into a tree of query steps, labelled in one
pass with their Skolem terms named by variables; query proofs are grounded
with Skolem terms and split back into single-atom inferences.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import is_
from typing import Callable, Iterable, Optional, Sequence

from .compress import assemble_proof
from .deriver_sk import CHECKS, _replace_top_level
from .kb import (ATOM_TYPES, Atom, BooleanCQ, Const, EqAtom, KBError,
                 KnowledgeBase, Rule, SkolemRule, SkolemTerm, Term, Var,
                 atom_key, atom_pred, atom_terms, atom_vars, cq_equivalent,
                 map_atom_terms, rewrite_term, substitute_atom, subterms,
                 term_is_ground, term_key, variables_of)
from .matching import (AtomIndex, bind_term, match_conjunction,
                       match_positionally, unify_atom)
from .proofs import (RULE_TYPES, Label, ProofEdge, ProofGraph, Schema,
                     TautRule, _conditions, _postorder)


class TransformError(KBError):
    pass


# ---------------------------------------------------------------------------
# Schema applications
# ---------------------------------------------------------------------------

def fresh_vars(count: int, taken: set[str]) -> list[Var]:
    out: list[Var] = []
    i = 1
    while len(out) < count:
        name = f"u{i}"
        i += 1
        if name not in taken:
            taken.add(name)
            out.append(Var(name))
    return out


def mpe_apply(cq: BooleanCQ, rule, pi: dict[Var, Term],
              replace_subset: Iterable[Atom], keep_head: Iterable[int],
              rename: Optional[dict[Var, Var]] = None) -> BooleanCQ:
    """Rewrite part of the query with (part of) a rule head.

    ``pi`` matches the rule body into the query; ``replace_subset`` lists
    matched query atoms to drop; ``keep_head`` indexes head atoms to add,
    their existential variables renamed apart (``u1, u2, ...`` by default).
    """
    body_in_cq = {substitute_atom(b, pi) for b in rule.body}
    if not body_in_cq <= set(cq.atoms):
        raise KBError("substitution does not match the rule body into the "
                      "query")
    replace = set(replace_subset)
    if not replace <= body_in_cq:
        raise KBError("replaced atoms must be matched body atoms")
    evars = tuple(getattr(rule, "existential_vars", ()))
    if rename is None:
        taken = {v.name for v in cq.variables()}
        rename = dict(zip(evars, fresh_vars(len(evars), taken)))
    images = {rename.get(v, v) for v in evars}
    if images & cq.variables():
        raise KBError("variable capture: renamed existential variables must "
                      "not occur in the query")
    # the renaming overrides pi: a tautology's existential variables also
    # occur in its body
    subst = {**pi, **{v: rename.get(v, v) for v in evars}}
    result = [a for a in cq.atoms if a not in replace]
    for i in keep_head:
        a = substitute_atom(rule.head[i], subst)
        if a not in result:
            result.append(a)
    return BooleanCQ.closed(result)


def te_rule(pattern: Sequence[Atom], vars_to_duplicate: Iterable[Var],
            rename: Optional[dict[Var, Var]] = None) -> TautRule:
    """The tautology ``phi(x, y) -> exists x'. phi(x', y)``."""
    dup = list(vars_to_duplicate)
    pattern_vars = set()
    for a in pattern:
        pattern_vars |= atom_vars(a)
    if not set(dup) <= pattern_vars:
        raise KBError("duplicated variables must occur in the pattern")
    if rename is None:
        rename = {v: v for v in dup}
    head = tuple(substitute_atom(a, {v: rename[v] for v in dup})
                 for a in pattern)
    return TautRule(tuple(pattern), head, tuple(rename[v] for v in dup))


def conjunction_chain(proof: ProofGraph, atoms: Sequence[Atom],
                      label: Callable[[tuple[Atom, ...]], Label]) -> int:
    """Collect the atoms left to right with Ce steps: a leaf per atom and a
    conclusion per longer prefix.  Returns the vertex of the last one."""
    current = proof.add_vertex(label(tuple(atoms[:1])))
    for i in range(1, len(atoms)):
        leaf = proof.add_vertex(label((atoms[i],)))
        nxt = proof.add_vertex(label(tuple(atoms[:i + 1])))
        proof.add_edge((current, leaf), nxt, Schema.Ce)
        current = nxt
    return current


def tautology_finish(proof: ProofGraph, current: int,
                     goal: BooleanCQ) -> int:
    """Derive the goal from the vertex ``current`` with the tautology over
    the goal's atoms (Te) and its application (MPe).  Returns the goal's
    vertex."""
    taut = proof.add_vertex(te_rule(goal.atoms, goal.existential_vars))
    proof.add_edge((), taut, Schema.Te)
    goal_vid = proof.add_vertex(goal)
    proof.add_edge((current, taut), goal_vid, Schema.MPe)
    return goal_vid


def ee_apply(cq: BooleanCQ, equality: EqAtom) -> BooleanCQ:
    """Drop an equality conjunct and substitute through the query."""
    if equality not in cq.atoms:
        raise KBError("equality conjunct is not part of the query")
    mapping = {equality.lhs: equality.rhs}
    return BooleanCQ.closed(dict.fromkeys(
        map_atom_terms(a, lambda t: rewrite_term(t, mapping))
        for a in cq.atoms if a != equality))


# ---------------------------------------------------------------------------
# Edge admissibility
# ---------------------------------------------------------------------------

def check_edge_labels(schema: Schema, premises: tuple[Label, ...],
                      conclusion: Label, kb: KnowledgeBase) -> Optional[str]:
    """None when the edge instantiates its schema, else a diagnostic; the
    one checker of both calculi (``ANALYSES`` and ``deriver_sk.CHECKS``)."""
    found = _rule_error(schema, premises, kb) or \
        (ANALYSES.get(schema) or CHECKS[schema])(premises, conclusion)
    return found if isinstance(found, str) else None


def analyze_edge(p: ProofGraph, edge: ProofEdge, kb: KnowledgeBase):
    """The verdict on an edge of either calculus: what its query-level step
    is made of (its entry in ``ANALYSES``), None for a valid ground-atom
    step (``deriver_sk.CHECKS``), or why the step is invalid as a string.

    The verdict is kept on the proof with the labels it read, and one kept
    for labels that are still the proof's own objects is read instead of
    made again.  The KB's part of the check is not kept: it runs on every
    call.
    """
    vertices = p.vertices
    premises = tuple(map(vertices.__getitem__, edge.premises))
    conclusion = vertices[edge.conclusion]
    schema = edge.schema
    err = _rule_error(schema, premises, kb)
    if err is not None:
        return err
    kept = p.analyses.get(edge)
    if kept is not None and kept[0] is conclusion \
            and all(map(is_, kept[1], premises)):
        return kept[2]
    found = (ANALYSES.get(schema) or CHECKS[schema])(premises, conclusion)
    p.analyses[edge] = conclusion, premises, found
    return found


def _rule_error(schema: Schema, premises: tuple[Label, ...],
                kb: KnowledgeBase) -> Optional[str]:
    """Why the rule an MP or MPe step applies may not be used with the KB
    (an MP step's must be the KB's own Skolem rule of its index, an MPe
    step's one of its original rules or a tautology), or None."""
    rule = premises[-1] if premises else None
    if not isinstance(rule, RULE_TYPES):
        return None
    if schema is Schema.MP:
        if isinstance(rule, SkolemRule):
            sk_rules, i = kb.skolem_rules, rule.index
            if not (0 <= i < len(sk_rules) and (sk_rules[i] is rule
                                                or sk_rules[i] == rule)):
                return "rule is not from the TBox"
        return None
    if schema is not Schema.MPe or len(premises) != 2 \
            or not isinstance(premises[0], BooleanCQ):
        return None
    if isinstance(rule, SkolemRule):
        return "query-level proofs use original rules, not Skolemized ones"
    if isinstance(rule, Rule) and rule not in kb.rule_index:
        return "rule is not from the TBox"
    return None


def analyze_mpe(premise: BooleanCQ, rule, conclusion: BooleanCQ
                ) -> Optional[tuple[dict[Var, Term], dict[Var, Term]]]:
    """A substitution and head-variable assignment realizing the inference.

    Returns (pi, head_assignment) where pi matches the rule body into the
    premise and head_assignment interprets the rule's existential variables,
    or None when no choice of replaced/kept subsets produces the conclusion.

    pi must map some body atom onto each removed atom.  When the body's
    predicates are distinct, a removed atom can only be the image of the
    body atom of its predicate, so the removed atoms seed pi.  With every
    body atom pinned the seed is the only candidate; with one left free,
    the candidates differ only in its image, taken in ``atom_key`` order,
    the order the matcher meets them in over the whole premise.  (With two
    free atoms it could meet them in another order, so the body is then
    matched whole.)
    """
    removed = premise.atom_set - conclusion.atom_set
    new = conclusion.atom_set - premise.atom_set
    # each atom once: a head pattern covers only one (see _match_added)
    added = list(new) if len(new) < 2 else [
        a for a in dict.fromkeys(conclusion.atoms) if a in new]
    evars = tuple(getattr(rule, "existential_vars", ()))
    # a tautology may copy a variable onto its own pi-image
    taken = None if isinstance(rule, TautRule) else premise.variables()
    body = rule.body
    by_pred = {atom_pred(b): b for b in body}
    if len(by_pred) == len(body):
        images: dict[tuple, Atom] = {}
        for a in removed:
            pred = atom_pred(a)
            if pred not in by_pred or pred in images:
                # no body atom can be its image, or two would need one
                return None
            images[pred] = a
        seed: Optional[dict[Var, Term]] = {}
        free: list[Atom] = []
        for pred, b in by_pred.items():
            if pred in images:
                seed = unify_atom(b, images[pred], seed)
                if seed is None:
                    return None
            else:
                free.append(b)
        if len(free) < 2:
            if free:
                pred = atom_pred(free[0])
                candidates = (unify_atom(free[0], a, seed) for a in sorted(
                    (a for a in premise.atom_set if atom_pred(a) == pred),
                    key=atom_key))
            else:
                candidates = (seed,)
            for pi in candidates:
                if pi is None:
                    continue
                assignment = _match_added(added, rule.head, pi, evars, taken)
                if assignment is not None:
                    return pi, assignment
            return None
    for pi in match_conjunction(body, premise.index):
        if removed and not removed <= {substitute_atom(b, pi) for b in body}:
            continue
        assignment = _match_added(added, rule.head, pi, evars, taken)
        if assignment is not None:
            return pi, assignment
    return None


def _match_added(added: list[Atom], head: tuple[Atom, ...],
                 pi: dict[Var, Term], evars,
                 taken: Optional[frozenset[Var]]
                 ) -> Optional[dict[Var, Term]]:
    """Assign head existential variables so every added atom is covered.

    Each existential variable is bound to a variable; unless ``taken`` is
    None, to one outside ``taken`` (the premise's variables) and apart from
    the other existential variables' images.  The query's own variables in
    the head's pi-image stay rigid (each binds only to itself), or an added
    atom could be matched to the wrong terms.
    """
    if not evars:
        # the head's pi-image is fixed: each added atom must be in it, and
        # binds its variables to themselves
        image = {substitute_atom(h, pi) for h in head}
        if not image.issuperset(added):
            return None
        return {v: v for a in added for v in atom_vars(a)}
    # only a pattern of its predicate can map onto an added atom
    rigid = {**pi, **{v: v for v in evars}}
    patterns: dict[tuple, list[Optional[Atom]]] = {}
    for h in head:
        pattern = substitute_atom(h, rigid)
        patterns.setdefault(atom_pred(pattern), []).append(pattern)

    flexible = frozenset(evars)
    assignment: dict[Var, Term] = {}
    # the existential variables' images, kept apart unless taken is None
    images: set[Term] = set()

    def backtrack(i: int) -> bool:
        if i == len(added):
            return True
        target = added[i]
        candidates = patterns.get(atom_pred(target), [])
        for j, pattern in enumerate(candidates):
            if pattern is None:
                continue
            bound = _bind_head(pattern, target, assignment, images,
                               flexible, taken)
            if bound is None:
                continue
            new, fresh = bound
            assignment.update(new)
            images.update(fresh)
            # a pattern that covers an atom maps onto that atom only, so no
            # later added atom tries it
            candidates[j] = None
            if backtrack(i + 1):
                return True
            candidates[j] = pattern
            for k in new:
                del assignment[k]
            images.difference_update(fresh)
        return False

    return assignment if backtrack(0) else None


def _bind_head(pattern: Atom, target: Atom, assignment: dict[Var, Term],
               images: set[Term], flexible: frozenset[Var],
               taken: Optional[frozenset[Var]]
               ) -> Optional[tuple[dict[Var, Term], set[Term]]]:
    """The bindings that mapping the head pattern onto the added atom adds
    to the assignment, with the existential variables' images among them,
    or None when it cannot or they are inadmissible.  Only they are
    checked: the assignment's own are admissible."""
    new: dict[Var, Term] = {}
    for p, g in zip(atom_terms(pattern), atom_terms(target)):
        if not bind_term(p, g, assignment, new):
            return None
    fresh: set[Term] = set()
    for k, t in new.items():
        if k not in flexible:
            if t != k:
                return None
            continue
        if not isinstance(t, Var) or taken is not None and (
                t in fresh or t in images or t in taken):
            return None
        fresh.add(t)
    return new, fresh


# An analysis returns what a valid step is made of, or the reason it is
# invalid as a string.  It reads the labels only: the checks against the KB
# are _rule_error's.  The checker keeps each edge's analysis on the proof
# (analyze_edge), and the cq->sk grounding of the same labels reads it.

def _analyze_mpe_step(premises, conclusion
                      ) -> tuple[dict[Var, Term], dict[Var, Term]] | str:
    """The rule's body match and head assignment (:func:`analyze_mpe`)."""
    if len(premises) != 2 or not isinstance(premises[0], BooleanCQ) \
            or not isinstance(premises[1], RULE_TYPES):
        return "rule application takes a query and a rule"
    rule = premises[1]
    if isinstance(rule, TautRule) and rule.shape_error:
        return rule.shape_error
    if not isinstance(conclusion, BooleanCQ):
        return "conclusion must be a query"
    return analyze_mpe(premises[0], rule, conclusion) or \
        "no substitution and replaced/kept choice yields the conclusion"


def _analyze_te(premises, conclusion) -> TautRule | str:
    """The tautology the step introduces."""
    if premises:
        return "tautology introduction takes no premises"
    if not isinstance(conclusion, TautRule):
        return "conclusion must be a tautological rule"
    return conclusion.shape_error or conclusion


def _analyze_ee(premises, conclusion) -> EqAtom | str:
    """The equality conjunct the step eliminates."""
    if len(premises) != 1 or not isinstance(premises[0], BooleanCQ):
        return "equality elimination takes a single query premise"
    if not isinstance(conclusion, BooleanCQ):
        return "conclusion must be a query"
    cq = premises[0]
    for eq in cq.atoms:
        if isinstance(eq, EqAtom) and cq_equivalent(ee_apply(cq, eq),
                                                    conclusion):
            return eq
    return "no equality conjunct produces the conclusion"


def _analyze_ce(premises, conclusion) -> dict[Var, Term] | str:
    """The renaming of the second premise into the conclusion's tail."""
    if len(premises) != 2 or not all(isinstance(p, BooleanCQ)
                                     for p in premises):
        return "conjunction takes two query premises"
    if not isinstance(conclusion, BooleanCQ):
        return "conclusion must be a query"
    cq1, cq2 = premises
    concl_atoms = list(conclusion.atoms)
    if len(concl_atoms) != len(cq1.atoms) + len(cq2.atoms):
        # conjuncts may collapse only if the renaming makes them equal,
        # which an injective renaming of disjoint variables cannot
        if set(cq1.atoms) | set(cq2.atoms) != set(concl_atoms):
            return "conclusion must conjoin the premises"
    if tuple(concl_atoms[:len(cq1.atoms)]) != cq1.atoms:
        return "conclusion must start with the first premise's atoms"
    tail = concl_atoms[len(cq1.atoms):]
    mapping = match_positionally(list(cq2.atoms), tail)
    if mapping is None:
        return "conclusion tail is not a renaming of the second premise"
    image = set()
    for t in mapping.values():
        if not isinstance(t, Var):      # a ground term included
            return "conjunction only renames variables"
        if t in cq1.variables():
            return "second premise must be renamed apart"
        if t in image:
            return "renaming must be injective"
        image.add(t)
    return mapping


def _analyze_ge(premises, conclusion) -> dict[Var, Term] | str:
    """The match of the conclusion onto the premise."""
    if len(premises) != 1 or not isinstance(premises[0], BooleanCQ):
        return "generalization takes a single query premise"
    if not isinstance(conclusion, BooleanCQ):
        return "conclusion must be a query"
    prem, concl = premises[0], conclusion
    if len(prem.atoms) != len(concl.atoms):
        return "generalization keeps the number of atoms"
    mapping = match_positionally(list(concl.atoms), list(prem.atoms))
    if mapping is None:
        return "premise is not an instance of the conclusion"
    prem_vars = prem.variables()
    for v, t in mapping.items():
        if v in prem_vars:
            if t != v:
                return "existing variables cannot be remapped"
        elif not term_is_ground(t):
            return "new variables must abstract ground terms"
    return mapping


# each schema's one definition; the checker's analysis of an edge is kept
# on the proof, and its translation to ground atoms reads it
ANALYSES = {Schema.MPe: _analyze_mpe_step, Schema.Te: _analyze_te,
            Schema.Ee: _analyze_ee, Schema.Ce: _analyze_ce,
            Schema.Ge: _analyze_ge}


# ---------------------------------------------------------------------------
# Ground-atom proofs -> query proofs
# ---------------------------------------------------------------------------

def _goal_and_targets(p: ProofGraph, sink: int, edges: list[ProofEdge]
                      ) -> tuple[BooleanCQ, list[Atom]]:
    """The goal query of a ground-atom proof whose leaves and steps are
    valid, given the edges into its sink, and its atom instances, one per
    goal-atom occurrence."""
    label = p.vertices[sink]
    if isinstance(label, ATOM_TYPES):
        return BooleanCQ((label,), ()), [label]
    if isinstance(label, tuple):
        return BooleanCQ(label, ()), list(label)
    if not isinstance(label, BooleanCQ):
        raise TransformError("sink must be an atom, conjunction, or query")
    # a query is no leaf, so a step concludes it: C from atoms, G from an
    # atom or a tuple
    edge = edges[0]
    if edge.schema is Schema.C:
        return label, [p.vertices[v] for v in edge.premises]
    premise = p.vertices[edge.premises[0]]
    return label, [premise] if isinstance(premise, ATOM_TYPES) \
        else list(premise)


def _verdict(p: ProofGraph, edge: ProofEdge, kb: KnowledgeBase):
    """The checker's verdict on a step a translation reads, kept or new
    (:func:`analyze_edge`); TransformError when the step is invalid."""
    found = analyze_edge(p, edge, kb)
    if isinstance(found, str):
        raise TransformError(f"invalid {edge.schema.value} step: {found}")
    return found


@dataclass
class _Step:
    kind: str                     # "mp" | "e"
    premises: tuple[Atom, ...]    # consumed ground atoms
    conclusions: tuple[Atom, ...]
    rule: Optional[SkolemRule] = None
    equality: Optional[EqAtom] = None


def _collect_steps(p: ProofGraph, kb: KnowledgeBase, sink: int,
                   inc: dict[int, list[ProofEdge]]
                   ) -> tuple[list[_Step], dict[Atom, None]]:
    """Atom-level inference steps of a ground proof that passes
    :func:`_conditions`, dependency-ordered, with rule applications sharing
    premises aggregated into one step, and the facts it rests on.  Both are
    read in postorder from the sink, so they do not depend on the vertex
    ids.  Each step read is checked (:func:`_verdict`), so a step's labels
    are the atoms and the rule its schema takes."""
    mp_groups: dict[tuple, _Step] = {}
    e_groups: dict[EqAtom, _Step] = {}
    facts: dict[Atom, None] = {}
    vertices = p.vertices
    for v in _postorder(inc, [sink]):
        label = vertices[v]
        edges = inc[v]
        if not edges:
            if isinstance(label, ATOM_TYPES):
                facts[label] = None
            continue
        e = edges[0]
        _verdict(p, e, kb)
        if e.schema is Schema.MP:
            rule = vertices[e.premises[-1]]
            body = tuple(map(vertices.__getitem__, e.premises[:-1]))
            key = (rule.index, body)
            step = mp_groups.get(key)
            if step is None:
                step = mp_groups[key] = _Step("mp", body, (), rule=rule)
            if label not in step.conclusions:
                step.conclusions = step.conclusions + (label,)
        elif e.schema is Schema.E:
            alpha, eq = map(vertices.__getitem__, e.premises)
            step = e_groups.get(eq)
            if step is None:
                step = e_groups[eq] = _Step("e", (eq,), (), equality=eq)
            if alpha not in step.premises:
                step.premises = step.premises + (alpha,)
            if label not in step.conclusions:
                step.conclusions = step.conclusions + (label,)

    steps = list(mp_groups.values()) + list(e_groups.values())
    # dependency-consistent order (Kahn): a step waits for the first producer
    # of each premise that is not a fact; of the ready steps the least
    # (kind, premise keys) goes first, ties to the earlier step
    produced_by: dict[Atom, int] = {}
    for i, s in enumerate(steps):
        for c in s.conclusions:
            produced_by.setdefault(c, i)
    unmet = [0] * len(steps)
    waiting: list[list[int]] = [[] for _ in steps]
    for i, s in enumerate(steps):
        for a in s.premises:
            if a not in facts:
                unmet[i] += 1       # stays unmet if no step produces it
                if a in produced_by:
                    waiting[produced_by[a]].append(i)

    def entry(i: int) -> tuple:
        s = steps[i]
        return s.kind, tuple(atom_key(a) for a in s.premises), i

    ready = [entry(i) for i, n in enumerate(unmet) if n == 0]
    heapq.heapify(ready)
    ordered: list[_Step] = []
    while ready:
        i = heapq.heappop(ready)[2]
        ordered.append(steps[i])
        for j in waiting[i]:
            unmet[j] -= 1
            if unmet[j] == 0:
                heapq.heappush(ready, entry(j))
    if len(ordered) < len(steps):
        raise TransformError("could not order the inference steps")
    return ordered, facts


def transform_sk_to_cq(p: ProofGraph, kb: KnowledgeBase) -> ProofGraph:
    """Aggregate a ground-atom proof into a tree of query-level steps.

    Facts are collected with binary conjunctions, and rule applications over
    the same premises merge into one rewriting step that keeps exactly the
    atoms still needed later.  Each collected conjunction is labelled by
    its query, its Skolem terms named by variables (:func:`_skolem_naming`)
    and closed; the last step derives the goal as written.  A goal that
    names a Skolem term has no query label, and what the checker refuses
    reads as there, its first proof-level problem (:func:`_conditions`)
    before any step's: TransformError.
    """
    sink, inc, _, problems = _conditions(p, kb, "sk")
    if problems:
        raise TransformError(problems[0])
    steps, facts = _collect_steps(p, kb, sink, inc)
    goal, target_atoms = _goal_and_targets(p, sink, inc[sink])
    if any(isinstance(t, SkolemTerm) for a in goal.atoms
           for t in atom_terms(a)):
        raise TransformError("the goal names a Skolem term, which a query "
                             "label cannot contain")

    # liveness: the step index after which an atom is no longer needed
    last_use: dict[Atom, int] = {}
    for a in target_atoms:
        last_use[a] = len(steps)
    for i, s in enumerate(steps):
        for a in s.premises:
            last_use[a] = max(last_use.get(a, -1), i)

    used_facts = [f for f in facts if f in last_use]
    target_order = {a: i for i, a in enumerate(dict.fromkeys(target_atoms))}
    used_facts.sort(key=lambda a: (a not in target_order,
                                   target_order.get(a, 0), atom_key(a)))
    if not used_facts:
        raise TransformError("a ground proof always rests on at least one fact")

    naming = _skolem_naming(p, goal, target_atoms)
    # each ground atom renamed once, with its variables in first-occurrence
    # order, so that closing a conjunction does not walk its terms again
    renamed: dict[Atom, tuple[Atom, tuple[Var, ...]]] = {}

    def query(atoms: Sequence[Atom]) -> BooleanCQ:
        pairs = []
        for a in atoms:
            pair = renamed.get(a)
            if pair is None:
                b = map_atom_terms(a, lambda t: rewrite_term(t, naming))
                pair = renamed[a] = b, tuple(variables_of((b,)))
            pairs.append(pair)
        return BooleanCQ.closed([b for b, _ in pairs], dict.fromkeys(
            v for _, vs in pairs for v in vs))

    proof = ProofGraph()
    current = conjunction_chain(proof, used_facts, query)
    running = list(used_facts)

    eliminated: set[EqAtom] = set()
    for i, step in enumerate(steps):
        if step.kind == "mp":
            assert step.rule is not None
            consumed = [a for a in step.premises
                        if last_use.get(a, -1) == i
                        and a not in target_order]
            new_running = [a for a in running if a not in consumed]
            for c in step.conclusions:
                if c not in new_running:
                    new_running.append(c)
            rule_vertex = proof.add_vertex(kb.tbox[step.rule.index])
            nxt = proof.add_vertex(query(new_running))
            proof.add_edge((current, rule_vertex), nxt, Schema.MPe)
            current, running = nxt, new_running
        else:
            eq = step.equality
            assert eq is not None
            if eq in eliminated:
                raise TransformError(
                    "an equality is used again after its elimination; this "
                    "proof cannot be aggregated")
            conflicts = [a for a in running
                         if last_use.get(a, -1) > i
                         and a not in step.premises
                         and _mentions_term(a, eq.lhs)]
            if conflicts:
                raise TransformError(
                    "an atom is needed both before and after an equality "
                    "rewrite; this proof cannot be aggregated")
            eliminated.add(eq)
            new_running = []
            for a in running:
                if a == eq:
                    continue
                b = _replace_top_level(a, eq.lhs, eq.rhs) or a
                if b not in new_running:
                    new_running.append(b)
            nxt = proof.add_vertex(query(new_running))
            proof.add_edge((current,), nxt, Schema.Ee)
            current, running = nxt, new_running

    # final step: produce the goal exactly
    if not goal.existential_vars and running == list(goal.atoms):
        pass  # the collected query already is the goal
    elif len(goal.atoms) == 1 and len(running) == 1 and goal.existential_vars:
        proof.add_edge((current,), proof.add_vertex(goal), Schema.Ge)
    else:
        tautology_finish(proof, current, goal)
    return proof


def _mentions_term(atom: Atom, t: Term) -> bool:
    return any(t == s for term in atom_terms(atom) for s in subterms(term))


def _skolem_naming(p: ProofGraph, goal: BooleanCQ,
                   target_atoms: list[Atom]) -> dict[Term, Var]:
    """The variable that names each Skolem term of the proof's atoms in the
    query labels.  A term the goal's match onto the targets gives to a goal
    variable keeps that variable; the others get ``u1, u2, ...`` in
    ``term_key`` order, apart from the goal's variables.  An equality
    rewrite only removes Skolem terms, so these are all the labels'."""
    naming: dict[Term, Var] = {}
    sigma = match_positionally(list(goal.atoms), target_atoms) or {}
    for v in goal.existential_vars:
        t = sigma.get(v)
        if isinstance(t, SkolemTerm) and t not in naming:
            naming[t] = v
    rest = sorted({s for a in p.vertices.values()
                   if isinstance(a, ATOM_TYPES) for t in atom_terms(a)
                   for s in subterms(t)
                   if isinstance(s, SkolemTerm) and s not in naming},
                  key=term_key)
    naming.update(zip(rest, fresh_vars(
        len(rest), {v.name for v in goal.existential_vars})))
    return naming


# ---------------------------------------------------------------------------
# Query proofs -> ground-atom proofs
# ---------------------------------------------------------------------------

def transform_cq_to_sk(p: ProofGraph, kb: KnowledgeBase) -> ProofGraph:
    """Ground a query-level proof with Skolem terms and split it into
    single-atom inferences.

    Generalization steps are deferred (their conclusions keep the premise's
    grounding), tautology applications collapse, and the needed atoms are
    re-derived backward from the goal instance.  Each step is grounded from
    the checker's analysis of it: after a validation of the same proof, the
    one the validation kept for the same label objects, else a new one
    (:func:`analyze_edge`).  What the checker refuses reads as there, its
    first proof-level problem (:func:`_conditions`) before any step's:
    TransformError.
    """
    sink, inc, order, problems = _conditions(p, kb, "cq")
    if problems:
        raise TransformError(problems[0])
    g = _Grounding(p, kb)
    for v in order:
        label = p.vertices[v]
        edges = inc[v]
        if isinstance(label, RULE_TYPES):
            continue
        if not edges:       # a fact, as the leaf check found
            g.gamma[v] = {}
            g.producer.setdefault(label.atoms[0], (None, ()))
            continue
        edge = edges[0]
        # a Te step that passes concludes a rule, which is skipped above
        found = _verdict(p, edge, kb)
        GROUNDINGS[edge.schema](g, edge, v, found)

    goal = p.vertices[sink]
    if not isinstance(goal, BooleanCQ):
        raise TransformError("query-proof sinks carry queries")
    gamma = g.gamma[sink]
    targets = [ground_atom(gamma, a) for a in goal.atoms]
    sk_rules, producer = kb.skolem_rules, g.producer

    def derive(node: Atom | int):
        """An atom's label, premises and schema from its recorded
        derivation; a rule's index gives the rule's vertex."""
        if type(node) is int:
            return sk_rules[node], (), None
        entry = producer.get(node)
        if entry is None:
            raise TransformError(f"no derivation recorded for {node}")
        return node, entry[1], entry[0]

    return assemble_proof(targets, derive, goal)


def ground_term(gamma: dict[Var, Term], t: Term) -> Term:
    """The term under ``gamma``, the grounding of a query's variables."""
    if isinstance(t, Var):
        if t not in gamma:
            raise TransformError(f"variable ?{t.name} has no grounding")
        return gamma[t]
    if isinstance(t, SkolemTerm):
        raise TransformError("query labels cannot contain Skolem terms")
    return t


def ground_atom(gamma: dict[Var, Term], a: Atom) -> Atom:
    if all(isinstance(t, Const) for t in atom_terms(a)):
        return a
    return map_atom_terms(a, lambda t: ground_term(gamma, t))


class _Grounding(dict):
    """A query proof's grounding as it is built.  ``gamma`` holds each query
    vertex's grounding of its variables, and ``producer`` each ground
    atom's derivation as the (schema, premises) pair that
    :func:`assemble_proof` takes, (None, ()) for a fact.  The dict holds
    the ground atoms of each query vertex, in label order: a Ce, Ge or Ee
    step stores its own; a leaf's or an MPe conclusion's are grounded with
    the vertex's grounding when first read."""

    def __init__(self, p: ProofGraph, kb: KnowledgeBase):
        super().__init__()
        self.vertices, self.kb = p.vertices, kb
        self.gamma: dict[int, dict[Var, Term]] = {}
        self.producer: dict[Atom, tuple[Optional[Schema], tuple]] = {}

    def __missing__(self, v: int) -> list[Atom]:
        gamma = self.gamma[v]
        atoms = self[v] = [ground_atom(gamma, a)
                           for a in self.vertices[v].atoms]
        return atoms


# Each grounding takes the grounding so far, the step's edge, its
# conclusion's vertex and the step's analysis (ANALYSES).

def _ground_mpe(g: _Grounding, edge, v: int, found) -> None:
    pi, head_assign = found
    phi_vid = edge.premises[0]
    rule = g.vertices[edge.premises[1]]
    gamma_phi = g.gamma[phi_vid]
    pi_hat = {var: ground_term(gamma_phi, t) for var, t in pi.items()}
    gamma_new = g.gamma[v] = {var: gamma_phi[var]
                              for var in g.vertices[v].variables()
                              if var in gamma_phi}
    if isinstance(rule, TautRule):
        # copies collapse on ground queries: interpret duplicated variables
        # by the terms of the originals they renamed
        shared = dict(gamma_new)
        for body_var, head_term in rule.renaming.items():
            if isinstance(head_term, Var):
                w = head_assign.get(head_term)
                if isinstance(w, Var):
                    gamma_new[w] = pi_hat[body_var]
        # head_assign covers the added atoms only and can take the wrong
        # copy of a pattern; then the conclusion's first match grounds it
        conclusion, ground = g.vertices[v], set(g[phi_vid])
        if not (conclusion.variables() <= gamma_new.keys() and all(
                ground_atom(gamma_new, a) in ground for a in conclusion.atoms)):
            g.gamma[v] = next(match_conjunction(
                conclusion.atoms, AtomIndex(ground), shared), gamma_new)
        return
    idx = g.kb.rule_index[rule]
    sk_rule = g.kb.skolem_rules[idx]
    for evar, w in head_assign.items():
        if isinstance(w, Var) and evar in rule.existential_vars:
            gamma_new[w] = SkolemTerm(sk_rule.fn, pi_hat[rule.body[0].term])
    step = (Schema.MP, tuple(substitute_atom(b, pi_hat)
                             for b in sk_rule.body) + (idx,))
    # file the atoms the step added; a later step derives any it dropped
    premise = g.vertices[phi_vid].atom_set
    for a in g.vertices[v].atoms:
        if a not in premise:
            g.producer.setdefault(ground_atom(gamma_new, a), step)


def _ground_ee(g: _Grounding, edge, v: int, equality: EqAtom) -> None:
    phi_vid = edge.premises[0]
    gamma_phi = g.gamma[phi_vid]
    eq_hat = ground_atom(gamma_phi, equality)
    src, dst = eq_hat.lhs, eq_hat.rhs
    g.gamma[v] = {var: (dst if val == src else val)
                  for var, val in gamma_phi.items()}
    new_set = []
    for a in g[phi_vid]:
        if a == eq_hat:
            continue
        b = _replace_top_level(a, src, dst)
        rewritten = b if b is not None else a
        new_set.append(rewritten)
        if rewritten != a:
            g.producer.setdefault(rewritten, (Schema.E, (a, eq_hat)))
    g[v] = new_set


def _ground_ce(g: _Grounding, edge, v: int, mapping: dict[Var, Term]
               ) -> None:
    left_vid, right_vid = edge.premises
    gamma = dict(g.gamma[left_vid])
    gamma_right = g.gamma[right_vid]
    for var, target in mapping.items():     # a renaming (_analyze_ce)
        gamma[target] = gamma_right[var]
    g.gamma[v] = gamma
    g[v] = list(dict.fromkeys(g[left_vid] + g[right_vid]))


def _ground_ge(g: _Grounding, edge, v: int, mapping: dict[Var, Term]
               ) -> None:
    phi_vid = edge.premises[0]
    gamma = dict(g.gamma[phi_vid])
    for var, target in mapping.items():
        if isinstance(target, Var):
            gamma[var] = g.gamma[phi_vid][target]
        else:
            gamma[var] = target
    g.gamma[v] = gamma
    g[v] = list(g[phi_vid])


# every query-level schema but Te, whose conclusion is a rule
GROUNDINGS = {Schema.MPe: _ground_mpe, Schema.Ee: _ground_ee,
              Schema.Ce: _ground_ce, Schema.Ge: _ground_ge}
