"""The indexed matcher against a plain bucket scan that scores every pattern
by unifying it with every atom of its predicate."""

import zlib

from hypothesis import given, settings, strategies as st

from hornexplain.kb import (ConceptAtom, Const, EqAtom, RoleAtom, SkolemTerm,
                            Var, atom_key, atom_pred, substitute_atom)
from hornexplain.matching import AtomIndex, match_conjunction, unify_atom


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
    """Patterns, facts holding some instances of them plus noise, a seed
    substitution, and atoms to add while the matcher runs."""
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
    later = draw(st.permutations(pool(2, 4)))
    return patterns, facts, seed, later


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_indexed_matcher_agrees_with_the_bucket_scan(case):
    patterns, facts, seed, later = case
    index, scan = AtomIndex(facts), _ScanIndex(facts)
    got = match_conjunction(patterns, index, seed)
    want = _scan_match(patterns, scan, seed)
    pending = iter(later)
    for _ in range(500):
        g, w = next(got, None), next(want, None)
        # same substitutions in the same order, bindings in the same order
        assert (None if g is None else list(g.items())) == \
            (None if w is None else list(w.items()))
        if g is None:
            break
        assert g is not seed
        # as saturation does: grow the index while the matcher is suspended
        atom = next(pending, None)
        if atom is not None:
            index.add(atom)
            scan.add(atom)


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


def _scan_pruned(patterns, index, cut, calls):
    """The bucket-scan reference that asks ``cut`` after each step that
    leaves a pattern unmatched, with the atoms bound on the path to it, and
    records each question in ``calls``."""
    def extend(remaining, current, path):
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
                calls.append(here)
                if cut(here):
                    continue
            yield from extend(rest, ext, here)

    yield from extend(list(enumerate(patterns)), {}, [None] * len(patterns))


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
    patterns, facts, _, _ = case
    cut = _keyed_cut(salt, modulus)
    asked = []

    def prune(matched):
        asked.append(list(matched))
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
