"""Bounded fragments of the universal model, and entailment.

The model fragment at term depth d is the saturation at depth d
(:func:`hornexplain.deriver_sk.saturate_kb`) read modulo its nominal
merges: each equality the saturation derived, taken in derivation order
and oriented after resolving its sides, replaces a term by a constant
everywhere, nested occurrences included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .compress import equality_free_fold, refutes
from .deriver_sk import (BudgetExceeded, Ticker, default_depth_ceiling,
                         saturate_kb)
from .kb import (Atom, BooleanCQ, Const, EqAtom, KnowledgeBase, NormalForm,
                 SkolemTerm, Term, Var, atom_key, atom_terms, map_atom_terms,
                 orient_equality, substitute_atom, term_depth, term_key)
from .matching import AtomIndex, match_conjunction


@dataclass(frozen=True)
class ChaseState:
    atoms: frozenset[Atom]
    equalities: tuple[tuple[Term, Const], ...]  # oriented: replaced -> constant
    depth_bound: int
    saturated_at_bound: bool
    # the atoms indexed, for matching queries into them
    index: AtomIndex = field(compare=False, repr=False)

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=atom_key)


def _resolve(merges: dict[Term, Const], t: Term) -> Term:
    """The term with every merged term, nested ones included, replaced by
    its constant, following chains of merges."""
    fns = []
    while isinstance(t, SkolemTerm):
        fns.append(t.fn)
        t = t.arg
    while t in merges:
        t = merges[t]
    for fn in reversed(fns):
        t = SkolemTerm(fn, t)
        while t in merges:
            t = merges[t]
    return t


def chase(kb: KnowledgeBase, depth_bound: int,
          ticker: Optional[Ticker] = None) -> ChaseState:
    """The model fragment within the term-depth bound.

    ``saturated_at_bound`` says that the fragment is closed: no rule
    application is cut off by the bound and no equality is left to merge.
    Raises :class:`BudgetExceeded` when the saturation passes the ticker's
    atom cap, or the saturation or the merging its clock.
    """
    if depth_bound < 0:
        raise ValueError("depth bound must be non-negative")
    ticker = ticker or Ticker()
    structure = saturate_kb(kb, depth_bound, ticker)
    merges: dict[Term, Const] = {}
    for eq in sorted(structure.index.bucket(("=",)),
                     key=structure.atom_ids.__getitem__):
        pair = orient_equality(_resolve(merges, eq.lhs),
                               _resolve(merges, eq.rhs))
        if pair is not None:
            merges[pair[0]] = pair[1]
    facts = [a for a in structure.index.atoms if not isinstance(a, EqAtom)]
    if not merges:
        # the saturation's own index, unless it holds unmerged equalities
        return ChaseState(frozenset(facts), (), depth_bound,
                          structure.complete,
                          structure.index if len(facts) == len(structure.index)
                          else AtomIndex(facts))

    def resolve(t: Term) -> Term:
        ticker.charge()
        return _resolve(merges, t)

    atoms = frozenset(map_atom_terms(a, resolve) for a in facts)
    # one pass of every rule over the merged atoms: closed when each
    # application lands inside them and each equality is merged already
    index = AtomIndex(atoms)
    closed = all(
        concl.lhs == concl.rhs if isinstance(concl, EqAtom)
        else concl in atoms
        for rule in kb.skolem_rules
        for subst in match_conjunction(rule.body, index)
        for concl in (map_atom_terms(substitute_atom(h, subst), resolve)
                      for h in rule.head))
    equalities = tuple(sorted(merges.items(),
                              key=lambda p: (term_key(p[0]), term_key(p[1]))))
    return ChaseState(atoms, equalities, depth_bound, closed, index)


@dataclass(frozen=True)
class QueryMatch:
    substitution: tuple[tuple[Var, Term], ...]


def match_query(q: BooleanCQ, state: ChaseState,
                limit: int = 1) -> list[QueryMatch]:
    """Up to ``limit`` homomorphisms of the query into the chase atoms.

    The chase replaced every merged term by its constant, so the query's
    constants are resolved the same way before matching.
    """
    merges = dict(state.equalities)
    patterns = [map_atom_terms(a, lambda t: _resolve(merges, t))
                for a in q.atoms]
    out: list[QueryMatch] = []
    for subst in match_conjunction(patterns, state.index):
        out.append(QueryMatch(tuple(sorted(subst.items(),
                                           key=lambda p: p[0].name))))
        if len(out) >= limit:
            break
    return out


@dataclass(frozen=True)
class EntailmentResult:
    verdict: str                       # "yes" | "no" | "unknown"
    at_depth: Optional[int] = None
    witness: Optional[QueryMatch] = None
    state: Optional[ChaseState] = None

    def __bool__(self) -> bool:
        return self.verdict == "yes"


def entails(kb: KnowledgeBase, q: BooleanCQ,
            ceiling: Optional[int] = None,
            ticker: Optional[Ticker] = None) -> EntailmentResult:
    """Iteratively deepen the chase until the query matches or nothing can.

    Where the deepening stops short, a query without a match in the
    equality-free fold (:func:`hornexplain.compress.equality_free_fold`) is
    still refuted.  ``unknown`` is an honest outcome: the ceiling was
    reached while rule applications were still being cut off by the depth
    bound, or the saturation ran out of the ticker's budget (by default a
    cap of 200,000 atoms), and the fold refuted nothing.
    """
    ticker = ticker or Ticker(max_atoms=200_000)
    result = _chase_verdict(kb, q, ceiling, ticker)
    if result.verdict != "unknown":
        return result
    try:
        refuted = refutes(equality_free_fold(kb, ticker), q)
    except BudgetExceeded:
        refuted = False
    return EntailmentResult("no", result.at_depth) if refuted else result


def _chase_verdict(kb: KnowledgeBase, q: BooleanCQ, ceiling: Optional[int],
                   ticker: Ticker) -> EntailmentResult:
    """The verdict of the deepening alone, without the fold's refutation;
    ``unknown`` where the ticker's budget runs out."""
    if ceiling is None:
        ceiling = default_depth_ceiling(kb, q)
    elif ceiling < 0:
        raise ValueError("depth bound must be non-negative")
    # without nominal rules nothing merges: no fragment shallower than the
    # query's deepest term matches, and one closed there is closed at it
    start = 0 if any(r.normal_form is NormalForm.VI for r in kb.tbox) \
        else min(ceiling, max((term_depth(t) for a in q.atoms
                               for t in atom_terms(a)), default=0))
    for depth in range(start, ceiling + 1):
        try:
            state = chase(kb, depth, ticker=ticker)
        except BudgetExceeded:
            return EntailmentResult("unknown", depth)
        matches = match_query(q, state, limit=1)
        if matches:
            return EntailmentResult("yes", depth, matches[0], state)
        if state.saturated_at_bound:
            return EntailmentResult("no", depth, None, state)
    return EntailmentResult("unknown", ceiling, None, None)
