"""The indexed matcher against a plain bucket scan that scores every pattern
by unifying it with every atom of its predicate, and a count of its planning
work on the SAT reduction."""

import itertools
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from hornexplain import matching
from hornexplain.generators import gen_sat, gen_sat_cq
from hornexplain.kb import (ConceptAtom, Const, EqAtom, RoleAtom, SkolemTerm,
                            Var, atom_key, atom_pred, atom_terms, atom_vars,
                            substitute_atom)
from hornexplain.matching import AtomIndex, match_conjunction, unify_atom
from hornexplain.proofs import Measure
from hornexplain.search import RunConfig, explain


class _ScanIndex:
    """Per-predicate buckets only, sorted when read."""

    def __init__(self, atoms=()):
        self.buckets = {}
        for a in atoms:
            self.add(a)

    def add(self, atom):
        bucket = self.buckets.setdefault(atom_pred(atom), [])
        if atom not in bucket:
            bucket.append(atom)

    def bucket(self, pred):
        return sorted(self.buckets.get(pred, ()), key=atom_key)


def _scan_candidates(pattern, index, subst):
    out = []
    for ground in index.bucket(atom_pred(pattern)):
        ext = unify_atom(pattern, ground, dict(subst))
        if ext is not None:
            out.append((ground, ext))
    return out


def _scan_match(patterns, index, subst=None):
    base = dict(subst) if subst else {}

    def extend(remaining, current):
        if not remaining:
            yield current
            return
        scored = []
        for i, p in enumerate(remaining):
            cands = _scan_candidates(p, index, current)
            scored.append((len(cands), i, p, cands))
        _, idx, _, cands = min(scored, key=lambda s: (s[0], s[1]))
        rest = remaining[:idx] + remaining[idx + 1:]
        for _, ext in cands:
            yield from extend(rest, ext)

    yield from extend(list(patterns), base)


# a small vocabulary, so patterns share atoms and scores often tie
_CONSTS = st.sampled_from([Const("a"), Const("b")])
_VARS = [Var("x"), Var("y"), Var("z")]


def _skolem(t):
    return st.builds(SkolemTerm, st.just("f"), t)


_GROUND = st.one_of(_CONSTS, _CONSTS, _CONSTS, _skolem(_CONSTS),
                    _skolem(_skolem(_CONSTS)))
# variables twice as likely as constants, so repeated variables (r(x, x))
# are common; Skolem terms over variables too (f(x))
_PATTERN_TERM = st.one_of(st.sampled_from(_VARS), st.sampled_from(_VARS),
                          _CONSTS, _skolem(st.sampled_from(_VARS)),
                          _skolem(_CONSTS))


def _atoms(terms):
    return st.one_of(
        st.builds(ConceptAtom, st.just("A"), terms),
        st.builds(RoleAtom, st.sampled_from(["r", "r", "s"]), terms, terms),
        st.builds(EqAtom, terms, terms))


@st.composite
def _cases(draw):
    """Patterns, facts holding some instances of them plus noise, and a
    seed substitution."""
    patterns = draw(st.lists(_atoms(_PATTERN_TERM), min_size=1, max_size=4))
    assignments = st.fixed_dictionaries({v: _GROUND for v in _VARS})

    def pool(n_instances, n_noise):
        out = [substitute_atom(p, sigma)
               for sigma in draw(st.lists(assignments, min_size=1,
                                          max_size=n_instances))
               for p in patterns]
        return out + draw(st.lists(_atoms(_GROUND), max_size=n_noise))

    facts = pool(6, 10)
    seed = draw(st.dictionaries(st.sampled_from(_VARS), _GROUND, max_size=1))
    return patterns, facts, seed


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_indexed_matcher_agrees_with_the_bucket_scan(case):
    patterns, facts, seed = case
    got = match_conjunction(patterns, AtomIndex(facts), seed)
    want = _scan_match(patterns, _ScanIndex(facts), seed)
    for _ in range(500):
        g, w = next(got, None), next(want, None)
        # same substitutions in the same order, bindings in the same order
        assert (None if g is None else list(g.items())) == \
            (None if w is None else list(w.items()))
        if g is None:
            break
        assert g is not seed


def test_every_pair_of_small_patterns_agrees_with_the_bucket_scan():
    """Each pair of patterns over x, y, a and f(x) against atoms whose
    per-list counts all differ, so any misscored pattern changes the order
    of the substitutions or of their bindings."""
    a, b, fa = Const("a"), Const("b"), SkolemTerm("f", Const("a"))
    x, y = Var("x"), Var("y")
    facts = [RoleAtom("r", a, a), RoleAtom("r", a, b), RoleAtom("r", b, a),
             RoleAtom("r", a, fa), RoleAtom("r", fa, b), RoleAtom("r", fa, fa),
             ConceptAtom("A", a), ConceptAtom("A", fa), EqAtom(fa, a),
             EqAtom(b, b)]
    terms = [x, y, a, SkolemTerm("f", x)]
    patterns = [ConceptAtom("A", t) for t in terms] + \
        [RoleAtom("r", s, t) for s in terms for t in terms] + \
        [EqAtom(s, t) for s in terms for t in terms]
    for p in patterns:
        for q in patterns:
            got = [list(s.items())
                   for s in match_conjunction([p, q], AtomIndex(facts))]
            want = [list(s.items())
                    for s in _scan_match([p, q], _ScanIndex(facts))]
            assert got == want, (p, q)


def test_index_lists_stay_in_key_order():
    a, b = Const("a"), Const("b")
    atoms = [RoleAtom("r", b, a), RoleAtom("r", a, SkolemTerm("f", a)),
             RoleAtom("r", a, b), RoleAtom("r", a, a)]
    index = AtomIndex(atoms)
    index.add(RoleAtom("r", a, b))
    assert len(index) == 4
    assert list(index.bucket(("R", "r"))) == sorted(atoms, key=atom_key)
    assert list(index.at(("R", "r"), 0, a)) == \
        sorted(atoms[1:], key=atom_key)
    assert list(index.at(("R", "r"), 1, b)) == [RoleAtom("r", a, b)]
    assert list(index.at(("C", "A"), 0, a)) == []


def test_index_inserts_atoms_that_come_out_of_order():
    """Atoms added one at a time in every order, so that an atom lands at
    the front, in the middle and at the end of its bucket list and of its
    position lists: every list stays the added atoms in key order."""
    a, b = Const("a"), Const("b")
    fa = SkolemTerm("f", a)
    atoms = [RoleAtom("r", a, a), RoleAtom("r", a, b), RoleAtom("r", a, fa),
             RoleAtom("r", b, a), RoleAtom("r", fa, a)]
    assert atoms == sorted(atoms, key=atom_key)
    for order in itertools.permutations(atoms):
        index = AtomIndex()
        for n, atom in enumerate(order, 1):
            assert index.add(atom)
            added = sorted(order[:n], key=atom_key)
            assert list(index.bucket(("R", "r"))) == added
            for pos, t in itertools.product((0, 1), (a, b, fa)):
                assert list(index.at(("R", "r"), pos, t)) == \
                    [g for g in added if atom_terms(g)[pos] is t]
        assert not index.add(order[0])
        assert len(index) == len(atoms)


def _scan_pruned(patterns, index, cut, calls):
    """The bucket-scan reference that asks ``cut`` after each step that
    leaves a pattern unmatched, with the atoms bound on the path to it, and
    records each question in ``calls`` with the positions in step order."""
    def extend(remaining, current, path, steps):
        if not remaining:
            yield current
            return
        scored = []
        for i, (pos, p) in enumerate(remaining):
            cands = _scan_candidates(p, index, current)
            scored.append((len(cands), i, pos, cands))
        _, idx, pos, cands = min(scored, key=lambda s: (s[0], s[1]))
        rest = remaining[:idx] + remaining[idx + 1:]
        for ground, ext in cands:
            here = list(path)
            here[pos] = ground
            if rest:
                calls.append((here, steps + [pos]))
                if cut(here):
                    continue
            yield from extend(rest, ext, here, steps + [pos])

    yield from extend(list(enumerate(patterns)), {}, [None] * len(patterns),
                      [])


def _keyed_cut(salt, modulus):
    """A deterministic pseudo-random predicate on partial matches."""
    def cut(matched):
        keys = tuple(None if a is None else atom_key(a) for a in matched)
        return zlib.crc32(repr((salt, keys)).encode()) % modulus == 0
    return cut


@settings(max_examples=200, deadline=None)
@given(_cases(), st.integers(0, 1000), st.integers(1, 4))
def test_prune_cuts_exactly_the_branches_the_bucket_scan_cuts(
        case, salt, modulus):
    patterns, facts, _ = case
    cut = _keyed_cut(salt, modulus)
    asked = []

    def prune(matched, order):
        asked.append((list(matched), list(order)))
        return cut(matched)

    want_asked = []
    want = [list(s.items())
            for s in _scan_pruned(patterns, _ScanIndex(facts), cut,
                                  want_asked)]
    got = [list(s.items())
           for s in match_conjunction(patterns, AtomIndex(facts),
                                      prune=prune)]
    assert got == want
    assert asked == want_asked


# Long conjunctions, where a step binds the variables of few of the
# patterns, so most plans are handed down: chains, and the 3m - 1 atoms of
# the SAT reduction's query.  A small ground vocabulary makes scores tie.
_LONG_GROUND = st.sampled_from([Const("a"), Const("b"), Const("c"),
                                SkolemTerm("f", Const("a")),
                                SkolemTerm("f", Const("b"))])


@st.composite
def _long_cases(draw):
    """5-12 patterns, chain- or SAT-shaped, some of whose arguments are
    Skolem terms over variables (``f(x)``), and facts holding instances of
    them plus noise."""
    def term(v):
        return SkolemTerm("f", v) if draw(st.integers(0, 3)) == 0 else v

    patterns = []
    if draw(st.booleans()):
        n = draw(st.integers(5, 12))
        xs = [Var(f"x{i}") for i in range(n + 1)]
        for i in range(n):
            if draw(st.integers(0, 2)) == 0:
                x = xs[draw(st.integers(0, i))]
                patterns.append(ConceptAtom("A", term(x)))
            else:
                patterns.append(RoleAtom(draw(st.sampled_from("rrs")),
                                         term(xs[i]), term(xs[i + 1])))
    else:
        m = draw(st.integers(2, 4))
        for j in range(1, m + 1):
            xc, xp = Var(f"xc{j}"), Var(f"xp{j}")
            patterns.append(RoleAtom("c", xc, term(xp)))
            patterns.append(ConceptAtom("T", term(xp)))
            if j < m:
                patterns.append(RoleAtom("next", xc, Var(f"xc{j + 1}")))
    variables = sorted({v for p in patterns for v in atom_vars(p)},
                       key=lambda v: v.name)
    assignments = st.fixed_dictionaries({v: _LONG_GROUND for v in variables})

    def pool(n_instances, n_noise):
        sigmas = draw(st.lists(assignments, min_size=1, max_size=n_instances))
        noise = [substitute_atom(p, sigma)
                 for p, sigma in draw(st.lists(
                     st.tuples(st.sampled_from(patterns), assignments),
                     max_size=n_noise))]
        return [substitute_atom(p, sigma) for sigma in sigmas
                for p in patterns] + noise

    return patterns, pool(3, 12)


def _agree(patterns, facts, cut):
    """The first 200 substitutions of the matcher and the bucket scan; with
    ``cut``, the prune questions too.  Each substitution the matcher yields
    is then overwritten and grown, so a binding that it shared with the
    matcher's own state would show in what comes after."""
    index, scan = AtomIndex(facts), _ScanIndex(facts)
    asked, want_asked = [], []
    if cut is None:
        got = match_conjunction(patterns, index)
        want = _scan_match(patterns, scan)
    else:
        def prune(matched, order):
            asked.append((list(matched), list(order)))
            return cut(matched)
        got = match_conjunction(patterns, index, prune=prune)
        want = _scan_pruned(patterns, scan, cut, want_asked)
    for _ in range(200):
        g, w = next(got, None), next(want, None)
        assert (None if g is None else list(g.items())) == \
            (None if w is None else list(w.items()))
        assert asked == want_asked
        if g is None:
            break
        for v in list(g):
            g[v] = Const("mutated")
        g[Var("mutated")] = Const("mutated")


@settings(max_examples=40, deadline=None)
@given(_long_cases())
def test_long_conjunctions_agree_with_the_bucket_scan(case):
    _agree(*case, None)


@settings(max_examples=40, deadline=None)
@given(_long_cases(), st.integers(0, 1000), st.integers(2, 4))
def test_prune_on_long_conjunctions_asks_what_the_bucket_scan_asks(
        case, salt, modulus):
    _agree(*case, _keyed_cut(salt, modulus))


@pytest.mark.parametrize("clauses, measure, plans, status, value", [
    ([[1, -2, 3], [-1, 2], [2, 3, -4], [-3, 4]], Measure.SIZE, 260,
     "found", 21),
    ([[1, -2, 3], [-1, 2], [2, 3, -4], [-3, 4]], Measure.DOMAIN_SIZE, 114,
     "found", 12),
    ([[1, 2], [-1, 2], [1, -2], [-1, -2]], Measure.SIZE, 151, "none", None),
    ([[1, 2], [-1, 2], [1, -2], [-1, -2]], Measure.DOMAIN_SIZE, 103,
     "none", None),
])
def test_sat_search_plans_each_pattern_once_per_binding(
        monkeypatch, clauses, measure, plans, status, value):
    """A machine-independent count of the matcher's work on the SAT
    reduction at its stated bounds.  Re-planning every remaining pattern at
    every step made 2,221 / 1,055 / 1,009 / 709 plans here; a change to
    these counts must say why."""
    calls = []
    plan = matching._plan

    def counted(*args):
        calls.append(None)
        return plan(*args)

    monkeypatch.setattr(matching, "_plan", counted)
    inst = gen_sat(clauses)
    key = "size" if measure is Measure.SIZE else "domain"
    result = explain(inst.kb, inst.query,
                     RunConfig(measure=measure, bound=inst.bounds[key],
                               algo="exact"))
    assert (result.status, result.value) == (status, value)
    assert len(calls) == plans


@pytest.mark.parametrize("clauses, status, value, nodes, plans", [
    ([[1, -2, 3], [-1, 2], [2, 3, -4], [-3, 4]], "found", 39, 557, 260),
    ([[1, 2], [-1, 2], [1, -2], [-1, -2]], "none", None, 210, 151),
])
def test_sat_cq_search_counts_its_nodes_and_plans(
        monkeypatch, clauses, status, value, nodes, plans):
    """The query-level search on the SAT reduction at its stated tree-size
    bound.  Before its bound counted the tautology finish of a partial
    match that repeats an atom, it took 940 / 210 nodes and made 391 / 151
    plans here; a change to these counts must say why."""
    calls = []
    plan = matching._plan

    def counted(*args):
        calls.append(None)
        return plan(*args)

    monkeypatch.setattr(matching, "_plan", counted)
    inst = gen_sat_cq(clauses)
    result = explain(inst.kb, inst.query,
                     RunConfig(measure=Measure.TREE_SIZE,
                               bound=inst.bounds["cq_tree"], algo="exact",
                               deriver="cq"))
    assert (result.status, result.value, result.nodes) == \
        (status, value, nodes)
    assert len(calls) == plans
