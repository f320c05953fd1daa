"""Skolemization, bounded model construction, matching, entailment."""

import importlib
import random
import re

from hornexplain.chase import ChaseState, chase, entails, match_query
from hornexplain.deriver_sk import Ticker, saturate_kb
from hornexplain.kb import (BooleanCQ, ConceptAtom, Const, EqAtom, RoleAtom,
                            SkolemTerm, Var, atom_key, atom_terms,
                            map_atom_terms, orient_equality, skolemize,
                            substitute_atom, term_depth, term_key)
from hornexplain.matching import AtomIndex, match_conjunction
from hornexplain.parser import parse_document, parse_kb, parse_query_text
from hornexplain.generators import gen_el_tree

# the package exports the function ``chase`` under the module's name
chase_module = importlib.import_module("hornexplain.chase")


def test_skolemize_example_rules(ex1):
    kb, _ = ex1
    sk = skolemize(kb.tbox)
    x = Var("x")
    assert sk[0].head == (RoleAtom("r", x, SkolemTerm("f_0", x)),
                          ConceptAtom("B", SkolemTerm("f_0", x)))
    assert sk[1].head == (RoleAtom("s", x, SkolemTerm("f_1", x)),
                          ConceptAtom("A", SkolemTerm("f_1", x)))
    # rules without existentials are unchanged
    assert sk[2].head == kb.tbox[2].head
    assert sk[2].fn is None
    assert sk[0].fn == "f_0" and sk[1].fn == "f_1"


def test_chase_depth_two_contains_the_model_fragment(ex1):
    kb, _ = ex1
    state = chase(kb, 2)
    a = Const("a")
    f0a = SkolemTerm("f_0", a)
    f1f0a = SkolemTerm("f_1", f0a)
    expected = {
        ConceptAtom("A", a),
        RoleAtom("r", a, f0a),
        ConceptAtom("B", f0a),
        RoleAtom("s", f0a, f1f0a),
        ConceptAtom("A", f1f0a),
        ConceptAtom("E", f0a),
        ConceptAtom("D", a),
    }
    assert expected <= state.atoms
    assert not state.saturated_at_bound  # deeper terms were suppressed


def test_chase_empty_tbox_saturates():
    kb = parse_kb("fact: A(a)\n")
    state = chase(kb, 5)
    assert state.atoms == {ConceptAtom("A", Const("a"))}
    assert state.saturated_at_bound


def test_chase_propagates_along_a_fact_chain():
    n = 4
    lines = ["rule: r(x,y), A(y) -> A(x)"]
    lines += [f"fact: r(c_{i}, c_{i+1})" for i in range(n)]
    lines += [f"fact: A(c_{n})"]
    kb = parse_kb("\n".join(lines) + "\n")
    state = chase(kb, 0)
    for i in range(n + 1):
        assert ConceptAtom("A", Const(f"c_{i}")) in state.atoms
    assert state.saturated_at_bound


def test_chase_monotone_and_depth_sound(ex1):
    kb, _ = ex1
    previous = None
    for depth in range(4):
        state = chase(kb, depth)
        for atom in state.atoms:
            assert max(term_depth(t) for t in atom_terms(atom)) <= depth
        if previous is not None:
            assert previous <= state.atoms
        previous = state.atoms


def test_nominal_equalities_rewrite_globally():
    kb = parse_kb(
        "rule: A(x) -> exists y. r(x,y), B(y)\n"
        "rule: B(x) -> x = b\n"
        "rule: B(x) -> exists z. s(x,z), C(z)\n"
        "fact: A(a)\n")
    state = chase(kb, 3)
    b = Const("b")
    assert RoleAtom("r", Const("a"), b) in state.atoms
    assert ConceptAtom("B", b) in state.atoms
    # nothing still mentions the merged witness, not even nested
    for atom in state.atoms:
        for t in atom_terms(atom):
            for s in [t] + ([t.arg] if isinstance(t, SkolemTerm) else []):
                assert not (isinstance(s, SkolemTerm) and s.fn == "f_0")
    assert any(src == SkolemTerm("f_0", Const("a")) and dst == b
               for src, dst in state.equalities)


def test_match_query_finds_the_published_assignment(ex1):
    kb, q = ex1
    state = chase(kb, 2)
    matches = match_query(q, state, limit=5)
    assert matches
    first = dict(matches[0].substitution)
    assert first[Var("xp")] == Const("a")
    assert first[Var("y")] == SkolemTerm("f_0", Const("a"))


def test_match_query_on_missing_atom_is_empty():
    kb = parse_kb("fact: B(a)\n")
    doc = parse_document("fact: B(a)\nquery: exists x. A(x)\n")
    state = chase(kb, 1)
    assert match_query(doc.queries[0], state, limit=3) == []


def test_match_query_variables_may_collide():
    doc = parse_document("fact: r(a,b)\nquery: exists x, y, z. r(x,y), r(z,y)\n")
    state = chase(doc.kb, 0)
    matches = match_query(doc.queries[0], state, limit=3)
    assert len(matches) == 1
    got = dict(matches[0].substitution)
    assert got == {Var("x"): Const("a"), Var("z"): Const("a"),
                   Var("y"): Const("b")}


def test_entails_example_at_depth_two(ex1):
    kb, q = ex1
    result = entails(kb, q)
    assert result.verdict == "yes"
    assert result.at_depth == 2


def test_entails_definitive_no():
    doc = parse_document("fact: A(a)\nquery: B(a)\n")
    result = entails(doc.kb, doc.queries[0])
    assert result.verdict == "no"


def _no_fold(*args, **kwargs):
    return None


def test_entails_unknown_when_ceiling_hit(monkeypatch):
    """The chain never closes, and its fold r(c, c) has a loop that no
    real element has: nothing refutes the query."""
    doc = parse_document(
        "rule: A(x) -> exists y. r(x,y), A(y)\nfact: A(a)\n"
        "query: exists x. r(x,x)\nquery: B(a)\n")
    loop, absent = doc.queries
    result = entails(doc.kb, loop, ceiling=2)
    assert result.verdict == "unknown"
    # no B anywhere in the fold: refuted although the chase never closes
    assert entails(doc.kb, absent, ceiling=2).verdict == "no"
    monkeypatch.setattr(chase_module, "equality_free_fold", _no_fold)
    assert entails(doc.kb, absent, ceiling=2).verdict == "unknown"


def test_entails_generated_el_instance():
    inst = gen_el_tree(3)
    result = entails(inst.kb, inst.query)
    assert result.verdict == "yes"
    assert result.at_depth == 2  # tree of qualified existentials, depth n-1


FORM_TEMPLATES = [
    "rule: {A}(x) -> {B}(x)",
    "rule: {A}(x), {B}(x) -> {C}(x)",
    "rule: {r}(x,y), {A}(y) -> {B}(x)",
    "rule: {A}(x) -> exists y. {r}(x,y), {B}(y)",
    "rule: {A}(x), {r}(x,y) -> {B}(y)",
    "rule: {A}(x) -> x = {a}",
    "rule: {r}(x,y) -> {s}(x,y)",
]


def _random_kb(rng):
    concepts = ["P", "Q", "R"]
    roles = ["u", "v"]
    consts = ["d", "e"]
    lines = []
    for _ in range(rng.randint(1, 4)):
        template = rng.choice(FORM_TEMPLATES)
        lines.append(template.format(
            A=rng.choice(concepts), B=rng.choice(concepts),
            C=rng.choice(concepts), r=rng.choice(roles),
            s=rng.choice(roles), a=rng.choice(consts)))
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            lines.append(f"fact: {rng.choice(concepts)}({rng.choice(consts)})")
        else:
            lines.append(f"fact: {rng.choice(roles)}"
                         f"({rng.choice(consts)},{rng.choice(consts)})")
    return parse_kb("\n".join(dict.fromkeys(lines)) + "\n")


def test_chase_fuzz_monotone_depth_and_orientation():
    """Randomized knowledge bases: bound, monotonicity, equality rewriting."""
    rng = random.Random(20240817)
    for case in range(120):
        kb = _random_kb(rng)
        d = rng.randint(0, 2)
        lo = chase(kb, d, Ticker(max_atoms=3000))
        hi = chase(kb, d + 1, Ticker(max_atoms=3000))
        for atom in lo.atoms:
            assert max(term_depth(t) for t in atom_terms(atom)) <= d
        # monotone modulo equalities discovered at the deeper bound
        rewrites = dict(hi.equalities)

        def rewrite(term):
            while term in rewrites:
                term = rewrites[term]
            if isinstance(term, SkolemTerm):
                inner = rewrite(term.arg)
                out = SkolemTerm(term.fn, inner)
                return rewrites.get(out, out)
            return term

        def rewrite_atom(atom):
            if isinstance(atom, ConceptAtom):
                return ConceptAtom(atom.concept, rewrite(atom.term))
            return RoleAtom(atom.role, rewrite(atom.subj), rewrite(atom.obj))

        for atom in lo.atoms:
            assert rewrite_atom(atom) in hi.atoms, (kb, atom, d)
        # orientation: no atom keeps a term that was merged away
        for state in (lo, hi):
            merged = {src for src, _ in state.equalities}
            for atom in state.atoms:
                for t in atom_terms(atom):
                    assert t not in merged


def _random_query(rng):
    terms = ("x", "y", "d", "e")
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            atoms.append(f"{rng.choice('PQR')}({rng.choice(terms)})")
        else:
            atoms.append(f"{rng.choice('uv')}({rng.choice(terms)},"
                         f"{rng.choice(terms)})")
    body = ", ".join(atoms)
    used = [v for v in ("x", "y") if re.search(rf"\b{v}\b", body)]
    return parse_query_text((f"exists {', '.join(used)}. " if used else "")
                            + body)


def _query_into(rng, structure):
    """A query with a match in the structure: one to three of its atoms,
    derived ones where there are any, with every Skolem term and about half
    the constants made variables."""
    atoms = sorted((a for a in structure.index.atoms
                    if not isinstance(a, EqAtom)), key=atom_key)
    derived = [a for a in atoms
               if structure.atom_ids[a] not in structure.leaf_ids]
    atoms = derived or atoms
    picked = list(dict.fromkeys(rng.choice(atoms)
                                for _ in range(rng.randint(1, 3))))
    names = {}
    for t in sorted({t for a in picked for t in atom_terms(a)}, key=term_key):
        if isinstance(t, SkolemTerm) or rng.random() < 0.5:
            names[t] = Var(f"x{len(names)}")
    return BooleanCQ(tuple(map_atom_terms(a, lambda t: names.get(t, t))
                           for a in picked), tuple(names.values()))


# ---------------------------------------------------------------------------
# Reference: the chase as a naive rule loop, frozen as it was before the
# model fragment was read off the saturation
# ---------------------------------------------------------------------------

class _RefRewriter:
    """Term rewriting map from derived equalities (replaced -> constant)."""

    def __init__(self):
        self.map = {}

    def resolve(self, t):
        if isinstance(t, SkolemTerm):
            t = SkolemTerm(t.fn, self.resolve(t.arg))
        while t in self.map:
            t = self.map[t]
        return t

    def atom(self, a):
        return map_atom_terms(a, self.resolve)

    def add(self, src, dst):
        self.map[src] = dst
        # keep the map idempotent under later additions
        for key in list(self.map):
            self.map[key] = self.resolve(self.map[key])


def _reference_chase(kb, depth_bound):
    """Least fixpoint of rule application up to the term-depth bound."""
    sk_rules = skolemize(kb.tbox)
    rewriter = _RefRewriter()
    atoms = set(kb.abox)
    equalities = []
    suppressed = False
    index = AtomIndex(atoms)
    changed = True
    while changed:
        changed = False
        rewritten = False
        derived = []
        for rule in sk_rules:
            for subst in match_conjunction(rule.body, index):
                for head_atom in rule.head:
                    derived.append(substitute_atom(head_atom, subst))
        for atom in derived:
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
                atoms.add(atom)
                if not rewritten:
                    index.add(atom)
                changed = True
        if rewritten:
            index = AtomIndex(atoms)
    equalities = tuple(sorted(
        equalities, key=lambda p: (term_key(p[0]), term_key(p[1]))))
    return ChaseState(frozenset(atoms), equalities, depth_bound,
                      not suppressed, AtomIndex(atoms))


def _reference_match(q, state):
    """The first homomorphism of the query into the chase atoms, as sorted
    (variable, term) pairs, or None."""
    rewriter = _RefRewriter()
    for src, dst in state.equalities:
        rewriter.add(src, dst)
    patterns = [rewriter.atom(a) for a in q.atoms]
    for subst in match_conjunction(patterns, AtomIndex(state.atoms)):
        return tuple(sorted(subst.items(), key=lambda p: p[0].name))
    return None


def _reference_entails(kb, q, ceiling):
    """(verdict, depth, first match) by iterative deepening."""
    for depth in range(ceiling + 1):
        state = _reference_chase(kb, depth)
        match = _reference_match(q, state)
        if match is not None:
            return "yes", depth, match
        if state.saturated_at_bound:
            return "no", depth, None
    return "unknown", ceiling, None


def test_saturation_view_agrees_with_the_reference_chase(monkeypatch):
    """The model fragment read off the saturation against the frozen rule
    loop: the same atoms and equalities, and the same entailment verdicts.

    Two differences are allowed.  The loop flags a fragment unsaturated
    when it cut off an atom that a later merge made unneeded; then the view
    may say saturated, provided the loop one level deeper adds nothing.
    And a ``no`` the view finds that way comes no later than the loop's.
    The fold's refutation, which the loop lacks, only turns ``unknown``
    into ``no``, and never where the loop finds a match two levels deeper.
    """
    rng = random.Random(20261024)
    for case in range(2000):
        kb = _random_kb(rng)
        depth = case % 4
        ref = _reference_chase(kb, depth)
        got = chase(kb, depth)
        assert got.atoms == ref.atoms, case
        assert got.equalities == ref.equalities, case
        if got.saturated_at_bound != ref.saturated_at_bound:
            assert got.saturated_at_bound, case
            assert _reference_chase(kb, depth + 1).atoms == ref.atoms, case
        q = _query_into(rng, saturate_kb(kb, depth)) if case % 2 \
            else _random_query(rng)
        ceiling = rng.randint(1, 4)
        verdict, at_depth, match = _reference_entails(kb, q, ceiling)
        refuted = entails(kb, q, ceiling=ceiling).verdict
        with monkeypatch.context() as m:
            m.setattr(chase_module, "equality_free_fold", _no_fold)
            result = entails(kb, q, ceiling=ceiling)
        assert result.verdict == verdict, (case, result.verdict, verdict)
        if refuted != verdict:
            assert (verdict, refuted) == ("unknown", "no"), case
            assert _reference_entails(kb, q, ceiling + 2)[0] != "yes", case
        if verdict == "yes":
            assert result.at_depth == at_depth, case
            assert result.witness.substitution == match, case
        elif verdict == "no":
            assert result.at_depth <= at_depth, case
