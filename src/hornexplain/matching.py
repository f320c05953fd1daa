"""Backtracking matcher: homomorphisms from atom conjunctions into atom sets.

Used for rule application, query answering, and inference checking.

:class:`AtomIndex` keeps every atom in one list per predicate and in one
list per (predicate, argument position, term), all in ``atom_key`` order.
No caller adds to an index while a :func:`match_conjunction` generator over
it is suspended, and the matcher relies on that: the plans it hands down
would go stale.

At each step the search picks the most constrained pattern atom: the one
with the fewest unifiers under the current bindings, ties going to the
lowest position.  A pattern draws its candidates from the shortest list
among its predicate's list and the position lists of its arguments that
are ground under the bindings.  When at most one argument is ground and
the others are distinct unbound variables, every atom in that list is a
unifier, so the list length is the score; other patterns count the atoms
of the list that unify.  Only the chosen pattern's candidates are turned
into substitutions, in list order, so results come out in a fixed order.
A caller's ``prune`` callback can cut a branch after any step; the search
uses it for branch-and-bound over query matches.

A step visits only the patterns that share a variable it binds.  A
pattern's plan (its list, checks and score) depends on the bindings only
through its unbound variables: the top-level ones and the innermost
variable of each Skolem term over an unbound variable.  So a plan stays
valid until a step binds one of them.  Each call indexes the patterns by
their variables once; below a step, only the patterns the index lists
under the variables the step binds are re-planned, and the best pattern
is one ``min`` over a list of scores.  The bindings, plans and scores are
one mutable state: a step keeps on a trail the plans it lets its children
replace and puts them back when it is done, and each match is yielded as
a copy of the bindings.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .kb import (Atom, SkolemTerm, Term, Var, atom_key, atom_pred,
                 atom_terms, atom_vars, substitute_term)


def _insert(entry: tuple[list[Atom], list[tuple]], atom: Atom,
            key: tuple) -> None:
    atoms, keys = entry
    if key > keys[-1]:
        atoms.append(atom)
        keys.append(key)
    else:
        i = bisect_left(keys, key)
        atoms.insert(i, atom)
        keys.insert(i, key)


class AtomIndex:
    """Atoms by predicate and by (predicate, position, term), each list
    sorted by ``atom_key`` for deterministic enumeration."""

    def __init__(self, atoms=()):
        self.atoms: set[Atom] = set()
        # each list is kept as (atoms, their atom_key values), in key order
        self._buckets: dict[tuple, tuple[list[Atom], list[tuple]]] = {}
        # predicate -> per argument position: term -> list
        self._positions: dict[tuple, list[dict[Term, tuple[list[Atom],
                                                           list[tuple]]]]] = {}
        # in key order, so every list only grows at its end
        for key, atom in sorted(zip(map(atom_key, atoms), atoms),
                                key=itemgetter(0)):
            if self._new(atom):
                self._add(atom, key)

    def _new(self, atom: Atom) -> bool:
        n = len(self.atoms)
        self.atoms.add(atom)
        return len(self.atoms) > n

    def add(self, atom: Atom, key: Optional[tuple] = None) -> bool:
        """Index the atom unless it is; ``key`` is its ``atom_key`` if known."""
        if not self._new(atom):
            return False
        self._add(atom, atom_key(atom) if key is None else key)
        return True

    def _add(self, atom: Atom, key: tuple) -> None:
        pred = atom_pred(atom)
        terms = atom_terms(atom)
        bucket = self._buckets.get(pred)
        if bucket is None:
            self._buckets[pred] = ([atom], [key])
            positions = self._positions[pred] = [{} for _ in terms]
        else:
            _insert(bucket, atom, key)
            positions = self._positions[pred]
        for by_term, t in zip(positions, terms):
            entry = by_term.get(t)
            if entry is None:
                by_term[t] = ([atom], [key])
            else:
                _insert(entry, atom, key)

    def bucket(self, pred: tuple) -> Sequence[Atom]:
        """The atoms of one predicate."""
        entry = self._buckets.get(pred)
        return entry[0] if entry is not None else ()

    def at(self, pred: tuple, pos: int, term: Term) -> Sequence[Atom]:
        """The atoms of one predicate with ``term`` at argument ``pos``."""
        positions = self._positions.get(pred)
        entry = positions[pos].get(term) if positions is not None else None
        return entry[0] if entry is not None else ()

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)


def bind_term(pattern: Term, ground: Term, subst: Mapping[Var, Term],
              new: dict[Var, Term]) -> bool:
    """Whether pattern maps onto ground under subst; the variables it binds
    afresh go into ``new``, in the order they occur."""
    while isinstance(pattern, SkolemTerm):
        if not isinstance(ground, SkolemTerm) or pattern.fn != ground.fn:
            return False
        pattern, ground = pattern.arg, ground.arg
    if isinstance(pattern, Var):
        bound = subst.get(pattern)
        if bound is None:
            bound = new.get(pattern)
            if bound is None:
                new[pattern] = ground
                return True
        return bound == ground
    return pattern == ground


def unify_atom(pattern: Atom, ground: Atom,
               subst: dict[Var, Term]) -> Optional[dict[Var, Term]]:
    """Extend subst so that pattern maps onto ground; None if impossible.
    Returns subst itself when nothing new is bound."""
    if atom_pred(pattern) != atom_pred(ground):
        return None
    new: dict[Var, Term] = {}
    for p, g in zip(atom_terms(pattern), atom_terms(ground)):
        if not bind_term(p, g, subst, new):
            return None
    if not new:
        return subst
    ext = dict(subst)
    ext.update(new)
    return ext


def _resolve(t: Term, subst: Mapping[Var, Term]) -> Optional[Term]:
    """The term ``t`` denotes under subst; None while a variable is unbound."""
    if isinstance(t, Var):
        return subst.get(t)
    if not isinstance(t, SkolemTerm):
        return t
    inner = t.arg
    while isinstance(inner, SkolemTerm):
        inner = inner.arg
    if isinstance(inner, Var) and inner not in subst:
        return None
    return substitute_term(t, subst)


# A check is (position, ground value or None, pattern term): a ground value
# is compared, otherwise the pattern term is bound against the candidate.
_Check = tuple[int, Optional[Term], Term]
# the score of a matched pattern, above every other
_DONE = sys.maxsize


def _plan(pred: tuple, terms: tuple[Term, ...], index: AtomIndex,
          subst: Mapping[Var, Term]
          ) -> tuple[Sequence[Atom], list[_Check], bool, list[Var]]:
    """Candidate list, per-candidate checks, whether every candidate in the
    list is a unifier, and the unbound variables: top-level ones and the
    innermost variable of each Skolem term over an unbound variable."""
    source = index.bucket(pred)
    source_pos = None
    ground_count = 0
    free_vars: list[Var] = []
    exact = True
    checks: list[_Check] = []
    for pos, t in enumerate(terms):
        if isinstance(t, Var) and t not in subst:
            if t in free_vars:
                exact = False      # repeated variable: r(x, x)
            free_vars.append(t)
            checks.append((pos, None, t))
            continue
        value = _resolve(t, subst)
        if value is None:          # Skolem term over an unbound variable
            inner = t.arg
            while isinstance(inner, SkolemTerm):
                inner = inner.arg
            free_vars.append(inner)
            exact = False
            checks.append((pos, None, t))
            continue
        ground_count += 1
        checks.append((pos, value, t))
        at = index.at(pred, pos, value)
        if len(at) < len(source):
            source, source_pos = at, pos
    if ground_count > 1:
        exact = False
    if source_pos is not None:
        checks = [c for c in checks if c[0] != source_pos]
    return source, checks, exact, free_vars


def _accepts(checks: list[_Check], ground: Atom, subst: Mapping[Var, Term],
             new: dict[Var, Term]) -> bool:
    gterms = atom_terms(ground)
    for pos, value, pattern in checks:
        if value is not None:
            if gterms[pos] != value:
                return False
        elif not bind_term(pattern, gterms[pos], subst, new):
            return False
    return True


def match_conjunction(patterns: Sequence[Atom], index: AtomIndex,
                      subst: Optional[Mapping[Var, Term]] = None,
                      prune: Optional[Callable[[list[Optional[Atom]],
                                                list[int]], bool]] = None
                      ) -> Iterator[dict[Var, Term]]:
    """All homomorphisms of the pattern conjunction into the indexed atoms.

    Each yielded substitution is a fresh dict extending ``subst``.

    ``prune`` is asked after each step that binds a pattern while patterns
    remain, with the ground atoms matched so far by pattern position
    (``None`` where a pattern is unmatched) and the positions in the order
    the steps matched them; a true answer cuts that branch.  Both lists are
    the matcher's own and change as it goes on.  The other branches yield
    what they would without ``prune``, in the same order.
    """
    current = dict(subst) if subst else {}
    n = len(patterns)
    if not n:
        yield current
        return
    preds = [atom_pred(p) for p in patterns]
    terms = [atom_terms(p) for p in patterns]
    # each variable's patterns, by position
    sharing: dict[Var, list[int]] = {}
    for pos, p in enumerate(patterns):
        for v in atom_vars(p):
            sharing.setdefault(v, []).append(pos)
    # each unmatched pattern's plan (candidates, checks, unbound variables)
    # and score; a matched one scores _DONE
    plans: list = [None] * n
    scores = [0] * n
    matched: list[Optional[Atom]] = [None] * n if prune is not None else []
    order: list[int] = []

    def extend(stale: Sequence[int], left: int) -> Iterator[dict[Var, Term]]:
        for pos in stale:
            source, checks, exact, free = _plan(preds[pos], terms[pos], index,
                                                current)
            score = len(source) if exact else sum(
                1 for ground in source
                if _accepts(checks, ground, current, {}))
            if score == 0:
                return
            plans[pos] = (source, checks, free)
            scores[pos] = score
        # most constrained first: fewest unifiers, then lowest position
        pos = scores.index(min(scores))
        source, checks, free = plans[pos]
        hits = []
        for ground in source:
            new: dict[Var, Term] = {}
            if _accepts(checks, ground, current, new):
                hits.append((ground, new))
        left -= 1
        if not left:
            for _, new in hits:
                yield {**current, **new}
            return
        # every hit binds exactly ``free``, so below this step only the
        # patterns that share one of those variables are re-planned; the
        # trail keeps their plans here for the steps above
        score, scores[pos] = scores[pos], _DONE
        if len(free) == 1:
            touched = [p for p in sharing[free[0]] if p != pos]
        else:
            touched = sorted({p for v in free for p in sharing[v]} - {pos})
        trail = [(p, plans[p], scores[p]) for p in touched]
        if prune is not None:
            order.append(pos)
        for ground, new in hits:
            if prune is not None:
                matched[pos] = ground
                if prune(matched, order):
                    continue
            current.update(new)
            yield from extend(touched, left)
            for v in new:
                del current[v]
        if prune is not None:
            matched[pos] = None
            order.pop()
        for p, plan, s in trail:
            plans[p] = plan
            scores[p] = s
        scores[pos] = score

    try:
        yield from extend(range(n), n)
    finally:
        # ``extend`` refers to itself: drop it here, so that its state goes
        # when the match ends and not at the cyclic collector's next pass
        del extend


def unifiers(pattern: Atom, index: AtomIndex, subst: Mapping[Var, Term]
             ) -> list[tuple[Atom, dict[Var, Term]]]:
    """The indexed atoms the pattern maps onto under subst, each with its
    extension of subst, as :func:`match_conjunction` reads them for a lone
    pattern: from its plan's list, in full and in order, so atoms added
    later are not among them."""
    source, checks, _, _ = _plan(atom_pred(pattern), atom_terms(pattern),
                                 index, subst)
    hits = []
    for ground in source:
        new: dict[Var, Term] = {}
        if _accepts(checks, ground, subst, new):
            hits.append((ground, {**subst, **new}))
    return hits


def match_positionally(patterns: Sequence[Atom], grounds: Sequence[Atom],
                       subst: Optional[dict[Var, Term]] = None
                       ) -> Optional[dict[Var, Term]]:
    """One substitution mapping pattern i onto ground i, or None."""
    if len(patterns) != len(grounds):
        return None
    current = dict(subst) if subst else {}
    for p, g in zip(patterns, grounds):
        if atom_pred(p) != atom_pred(g):
            return None
        for s, t in zip(atom_terms(p), atom_terms(g)):
            if not bind_term(s, t, current, current):
                return None
    return current
