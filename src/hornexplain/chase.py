"""Skolemization and bounded construction of the universal model.

The chase applies Skolemized rules to the facts until nothing new appears,
never building terms nested deeper than the requested bound.  Equalities
from nominal rules merge domain elements eagerly: the merged complex term is
replaced by the constant everywhere, nested occurrences included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .kb import (Atom, BooleanCQ, Const, EqAtom, KnowledgeBase, NormalForm,
                 Rule, SkolemTerm, Term, Var, atom_key, atom_terms,
                 map_atom_terms, orient_equality, substitute_atom, term_depth,
                 term_key)
from .matching import AtomIndex, match_conjunction


@dataclass(frozen=True)
class SkolemRule:
    """A rule with existential variables replaced by Skolem applications."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    normal_form: NormalForm
    index: int
    fn: Optional[str] = None  # Skolem function name, shape (iv) only

    def __repr__(self) -> str:
        return f"SkolemRule#{self.index}"


def skolem_fn_name(rule_index: int) -> str:
    return f"f_{rule_index}"


# id(tbox) -> (tbox, its Skolem rules).  Keyed by identity: hashing a TBox
# hashes every rule again.  Holding the tbox keeps its id from being reused.
_SKOLEMIZE_CACHE: dict[int, tuple[tuple[Rule, ...],
                                  tuple[SkolemRule, ...]]] = {}


def skolemize(tbox: Iterable[Rule]) -> tuple[SkolemRule, ...]:
    """One Skolem rule per rule; functions are named by rule position."""
    tbox = tuple(tbox)
    cached = _SKOLEMIZE_CACHE.get(id(tbox))
    if cached is not None:
        return cached[1]
    out = []
    for i, rule in enumerate(tbox):
        if rule.existential_vars:
            fn = skolem_fn_name(i)
            frontier = rule.body[0].term  # shape (iv): single concept atom
            repl = {v: SkolemTerm(fn, frontier) for v in rule.existential_vars}
            head = tuple(substitute_atom(a, repl) for a in rule.head)
            out.append(SkolemRule(rule.body, head, rule.normal_form, i, fn))
        else:
            out.append(SkolemRule(rule.body, rule.head, rule.normal_form, i))
    if len(_SKOLEMIZE_CACHE) > 256:
        _SKOLEMIZE_CACHE.clear()
    result = tuple(out)
    _SKOLEMIZE_CACHE[id(tbox)] = (tbox, result)
    return result


@dataclass(frozen=True)
class ChaseState:
    atoms: frozenset[Atom]
    equalities: tuple[tuple[Term, Const], ...]  # oriented: replaced -> constant
    depth_bound: int
    saturated_at_bound: bool

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=atom_key)


class _Rewriter:
    """Term rewriting map from derived equalities (replaced -> constant)."""

    def __init__(self):
        self.map: dict[Term, Const] = {}

    def resolve(self, t: Term) -> Term:
        if isinstance(t, SkolemTerm):
            t = SkolemTerm(t.fn, self.resolve(t.arg))
        while t in self.map:
            t = self.map[t]
        return t

    def atom(self, a: Atom) -> Atom:
        return map_atom_terms(a, self.resolve)

    def add(self, src: Term, dst: Const) -> None:
        self.map[src] = dst
        # keep the map idempotent under later additions
        for key in list(self.map):
            self.map[key] = self.resolve(self.map[key])


def chase(kb: KnowledgeBase, depth_bound: int,
          max_atoms: Optional[int] = None) -> ChaseState:
    """Least fixpoint of rule application up to the term-depth bound."""
    if depth_bound < 0:
        raise ValueError("depth bound must be non-negative")
    sk_rules = skolemize(kb.tbox)
    rewriter = _Rewriter()
    atoms: set[Atom] = set(kb.abox)
    equalities: list[tuple[Term, Const]] = []
    suppressed = False
    capped = False

    # one index across rounds: a round matches before it adds anything, and
    # only an equality rewrite forces a rebuild
    index = AtomIndex(atoms)
    changed = True
    while changed:
        changed = False
        rewritten = False
        derived: list[tuple[SkolemRule, Atom]] = []
        for rule in sk_rules:
            for subst in match_conjunction(rule.body, index):
                for head_atom in rule.head:
                    derived.append((rule, substitute_atom(head_atom, subst)))
        for rule, atom in derived:
            atom = rewriter.atom(atom)
            if isinstance(atom, EqAtom):
                pair = orient_equality(atom.lhs, atom.rhs)
                if pair is None:
                    continue
                src, dst = pair
                rewriter.add(src, dst)
                equalities.append((src, dst))
                atoms = {rewriter.atom(a) for a in atoms}
                rewritten = changed = True
                continue
            if max(term_depth(t) for t in atom_terms(atom)) > depth_bound:
                suppressed = True
                continue
            if atom not in atoms:
                if max_atoms is not None and len(atoms) >= max_atoms:
                    capped = True
                    break
                atoms.add(atom)
                if not rewritten:
                    index.add(atom)
                changed = True
        if capped:
            break
        if rewritten:
            index = AtomIndex(atoms)

    equalities_final = tuple(sorted(
        equalities, key=lambda p: (term_key(p[0]), term_key(p[1]))))
    return ChaseState(frozenset(atoms), equalities_final, depth_bound,
                      not suppressed and not capped)


@dataclass(frozen=True)
class QueryMatch:
    substitution: tuple[tuple[Var, Term], ...]

    def as_dict(self) -> dict[Var, Term]:
        return dict(self.substitution)


def match_query(q: BooleanCQ, state: ChaseState,
                limit: int = 1) -> list[QueryMatch]:
    """Up to ``limit`` homomorphisms of the query into the chase atoms.

    The chase replaced every merged term by its constant, so the query's
    constants are resolved the same way before matching.
    """
    rewriter = _Rewriter()
    for src, dst in state.equalities:
        rewriter.add(src, dst)
    patterns = [rewriter.atom(a) for a in q.atoms]
    index = AtomIndex(state.atoms)
    out: list[QueryMatch] = []
    seen: set[tuple] = set()
    for subst in match_conjunction(patterns, index):
        pairs = tuple(sorted(((v, t) for v, t in subst.items()),
                             key=lambda p: p[0].name))
        if pairs in seen:
            continue
        seen.add(pairs)
        out.append(QueryMatch(pairs))
        if len(out) >= limit:
            break
    return out


def default_depth_ceiling(kb: KnowledgeBase, q: BooleanCQ) -> int:
    # polynomial in the TBox and query; enough slack for the small families
    return max(4, len(kb.tbox) * (len(q.atoms) + 1) + 2)


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
            max_atoms: Optional[int] = 200_000) -> EntailmentResult:
    """Iteratively deepen the chase until the query matches or nothing can.

    ``unknown`` is an honest outcome: the ceiling was reached while rule
    applications were still being suppressed by the depth bound.
    """
    if ceiling is None:
        ceiling = default_depth_ceiling(kb, q)
    for depth in range(ceiling + 1):
        state = chase(kb, depth, max_atoms=max_atoms)
        matches = match_query(q, state, limit=1)
        if matches:
            return EntailmentResult("yes", depth, matches[0], state)
        if state.saturated_at_bound:
            return EntailmentResult("no", depth, None, state)
    return EntailmentResult("unknown", ceiling, None, None)
