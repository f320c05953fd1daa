"""Query-level schemas and the translations between proof formats."""

import inspect
import random
import sys

import pytest

from conftest import EX1_TEXT
from hornexplain.deriver_cq import (TransformError, _close_cq, _collect_steps,
                                    _match_added, _Step, analyze_mpe,
                                    ce_apply, check_edge, ee_apply, ge_apply,
                                    mpe_apply, te_rule, transform_cq_to_sk,
                                    transform_sk_to_cq)
from hornexplain.generators import (gen_dllite_chain, gen_el_abox,
                                    gen_el_tree, gen_hornalc_counter)
from hornexplain.kb import (BooleanCQ, ConceptAtom, Const, EqAtom, KBError,
                            RoleAtom, Var, atom_key, atom_vars,
                            cq_equivalent, substitute_atom)
from hornexplain.matching import AtomIndex, match_conjunction
from hornexplain.parser import parse_document, parse_kb
from hornexplain.proofs import (AtomLabel, CQLabel, Measure, ProofEdge,
                                ProofGraph, RuleLabel, Schema, TautRule,
                                proof_size, tree_size, tree_unravel,
                                validate_proof)
from hornexplain.search import RunConfig, explain

A_ = Const("a")
X, Y, Z, XP = Var("x"), Var("y"), Var("z"), Var("xp")


def test_mpe_apply_first_example_step(ex1):
    kb, _ = ex1
    rule = kb.tbox[0]
    start = BooleanCQ((ConceptAtom("A", A_),), ())
    result = mpe_apply(start, rule, {X: A_},
                       replace_subset=[ConceptAtom("A", A_)],
                       keep_head=[0, 1], rename={Y: Y})
    assert cq_equivalent(result, BooleanCQ(
        (RoleAtom("r", A_, Y), ConceptAtom("B", Y)), (Y,)))


def test_mpe_apply_identity_choice(ex1):
    kb, _ = ex1
    rule = kb.tbox[0]
    start = BooleanCQ((ConceptAtom("A", A_),), ())
    result = mpe_apply(start, rule, {X: A_}, replace_subset=[], keep_head=[])
    assert cq_equivalent(result, start)


def test_mpe_apply_final_example_step(ex1):
    """The closing tautology application that duplicates the role atom."""
    _, q = ex1
    taut = te_rule((RoleAtom("r", X, Y), ConceptAtom("D", X)), [X],
                   rename={X: XP})
    premise = BooleanCQ((RoleAtom("r", A_, Y), ConceptAtom("D", A_)), (Y,))
    result = mpe_apply(premise, taut, {X: A_, Y: Y},
                       replace_subset=[ConceptAtom("D", A_)],
                       keep_head=[0, 1], rename={XP: XP})
    assert cq_equivalent(result, q)


def test_mpe_variable_capture_is_detected(ex1):
    kb, _ = ex1
    rule = kb.tbox[0]
    start = BooleanCQ((ConceptAtom("A", Y),), (Y,))
    with pytest.raises(KBError, match="capture"):
        mpe_apply(start, rule, {X: Y}, replace_subset=[],
                  keep_head=[0], rename={Y: Y})


def test_te_rule_shapes():
    pattern = (RoleAtom("P", X, Z),)
    rule = te_rule(pattern, [Z], rename={Z: Var("zp")})
    assert rule.body == pattern
    assert rule.head == (RoleAtom("P", X, Var("zp")),)
    assert rule.existential_vars == (Var("zp"),)

    trivial = te_rule(pattern, [])
    assert trivial.head == trivial.body and trivial.existential_vars == ()

    full = te_rule(pattern, [X, Z])
    assert set(full.existential_vars) == {X, Z}


def test_ce_apply_renames_apart():
    q1 = BooleanCQ((ConceptAtom("A", X),), (X,))
    q2 = BooleanCQ((ConceptAtom("B", X),), (X,))
    joined = ce_apply(q1, q2)
    assert len(joined.atoms) == 2
    assert joined.atoms[0] == ConceptAtom("A", X)
    other = joined.atoms[1]
    assert isinstance(other, ConceptAtom) and other.concept == "B"
    assert other.term != X  # fresh variable


def test_ge_apply_empty_and_real():
    ground = BooleanCQ((ConceptAtom("A", A_),), ())
    same = ge_apply(ground, {})
    assert cq_equivalent(same, ground)
    general = ge_apply(ground, {(0, 0): X})
    assert cq_equivalent(general, BooleanCQ((ConceptAtom("A", X),), (X,)))


def test_ee_apply_removes_conjunct_and_substitutes():
    cq = BooleanCQ((ConceptAtom("A", X), EqAtom(X, A_)), (X,))
    result = ee_apply(cq, EqAtom(X, A_))
    assert cq_equivalent(result, BooleanCQ((ConceptAtom("A", A_),), ()))


def test_reference_cq_proof_validates(ex1, ex1_reference_cq_proof):
    kb, q = ex1
    ok, problems = validate_proof(ex1_reference_cq_proof, kb, q, "cq")
    assert ok, problems


def test_analyze_mpe_rejects_unrelated_conclusion(ex1):
    kb, _ = ex1
    rule = kb.tbox[0]
    start = BooleanCQ((ConceptAtom("A", A_),), ())
    bogus = BooleanCQ((ConceptAtom("Z99", A_),), ())
    assert analyze_mpe(start, rule, bogus) is None


def test_transform_reference_cq_proof_to_sk(ex1, ex1_reference_cq_proof):
    kb, q = ex1
    sk = transform_cq_to_sk(ex1_reference_cq_proof, kb)
    ok, problems = validate_proof(sk, kb, q, "sk")
    assert ok, problems
    # polynomial blowup
    assert proof_size(sk) <= 4 * proof_size(ex1_reference_cq_proof) \
        * max(1, len(kb.tbox))


def test_transform_reference_sk_proof_to_cq(ex1, ex1_reference_proof):
    kb, q = ex1
    cq = transform_sk_to_cq(ex1_reference_proof, kb)
    ok, problems = validate_proof(cq, kb, q, "cq")
    assert ok, problems
    # always a tree
    assert proof_size(tree_unravel(cq)) == proof_size(cq)
    # the duplicated premise forced a tautology step
    assert any(e.schema is Schema.Te for e in cq.edges)
    assert proof_size(cq) <= 4 * proof_size(ex1_reference_proof) \
        * max(1, len(kb.tbox))


def test_transform_round_trip_preserves_goal(ex1, ex1_reference_proof):
    kb, q = ex1
    cq = transform_sk_to_cq(ex1_reference_proof, kb)
    back = transform_cq_to_sk(cq, kb)
    ok, problems = validate_proof(back, kb, q, "sk")
    assert ok, problems
    sink = back.vertices[back.sink()]
    assert isinstance(sink, CQLabel) and cq_equivalent(sink.cq, q)


def test_fact_only_proof_transforms_are_small():
    kb = parse_kb("fact: A(a)\n")
    q = BooleanCQ((ConceptAtom("A", A_),), ())
    from hornexplain.proofs import AtomLabel
    p = ProofGraph({0: AtomLabel(ConceptAtom("A", A_))}, [])
    cq = transform_sk_to_cq(p, kb)
    ok, problems = validate_proof(cq, kb, q, "cq")
    assert ok, problems
    assert proof_size(cq) == 1  # relabeled fact, nothing else
    back = transform_cq_to_sk(cq, kb)
    ok, problems = validate_proof(back, kb, q, "sk")
    assert ok, problems
    assert proof_size(back) == 1


def test_ground_tautology_subproofs_collapse(ex1):
    """A query-level proof that duplicates a ground query via a tautology
    maps to a ground-atom proof without any copy machinery."""
    kb, _ = ex1
    fact = ConceptAtom("A", A_)
    goal = BooleanCQ((fact,), ())
    taut = TautRule((fact,), (fact,), ())
    from hornexplain.proofs import ProofEdge
    p = ProofGraph(
        {0: CQLabel(BooleanCQ((fact,), ())), 1: RuleLabel(taut),
         2: CQLabel(goal)},
        [ProofEdge((), 1, Schema.Te), ProofEdge((0, 1), 2, Schema.MPe)])
    ok, problems = validate_proof(p, kb, goal, "cq")
    assert ok, problems
    sk = transform_cq_to_sk(p, kb)
    ok, problems = validate_proof(sk, kb, goal, "sk")
    assert ok, problems
    assert proof_size(sk) == 1


def test_check_edge_te_zero_premises(ex1):
    kb, _ = ex1
    taut = te_rule((RoleAtom("P", X, Z),), [Z], rename={Z: Var("zp")})
    assert check_edge(Schema.Te, (), RuleLabel(taut), kb)
    assert not check_edge(Schema.Te, (), CQLabel(
        BooleanCQ((ConceptAtom("A", A_),), ())), kb)


# ---------------------------------------------------------------------------
# Step order: the scan-and-sort order of the first implementation
# ---------------------------------------------------------------------------

def _reference_collect_steps(p):
    """Group the steps as ``_collect_steps`` does, then order them by
    rescanning every remaining step and sorting the ready ones each round."""
    inc = p.incoming()
    mp_groups, e_groups, facts = {}, {}, []
    for v in p.topological_order():
        label = p.vertices[v]
        edges = inc[v]
        if not edges:
            if isinstance(label, AtomLabel) and label.atom not in facts:
                facts.append(label.atom)
            continue
        e = edges[0]
        if e.schema in (Schema.C, Schema.G):
            continue
        concl = p.vertices[v].atom
        if e.schema is Schema.MP:
            rule = p.vertices[e.premises[-1]].rule
            body = tuple(p.vertices[q].atom for q in e.premises[:-1])
            step = mp_groups.setdefault((rule.index, body),
                                        _Step("mp", body, (), rule=rule))
        else:
            alpha = p.vertices[e.premises[0]].atom
            eq = p.vertices[e.premises[1]].atom
            step = e_groups.setdefault(eq, _Step("e", (eq,), (), equality=eq))
            if alpha not in step.premises:
                step.premises += (alpha,)
        if concl not in step.conclusions:
            step.conclusions += (concl,)
    steps = list(mp_groups.values()) + list(e_groups.values())
    produced_by = {}
    for s in steps:
        for c in s.conclusions:
            produced_by.setdefault(c, s)
    fact_set, placed, ordered = set(facts), set(), []

    def ready(s):
        return all(a in fact_set
                   or (a in produced_by and id(produced_by[a]) in placed)
                   for a in s.premises)

    remaining = list(steps)
    while remaining:
        candidates = [s for s in remaining if ready(s)]
        assert candidates, "could not order the inference steps"
        candidates.sort(key=lambda s: (s.kind,
                                       tuple(atom_key(a) for a in s.premises)))
        ordered.append(candidates[0])
        placed.add(id(candidates[0]))
        remaining.remove(candidates[0])
    return ordered, facts


_NOMINAL_TEXT = """\
rule: A(x) -> exists y. r(x,y), B(y)
rule: B(x) -> x = b
fact: A(a)
fact: C(b)
query: r(a,b), C(b)
"""


def _ground_proofs():
    cases = []
    for text in (EX1_TEXT, _NOMINAL_TEXT):   # the second one rewrites
        doc = parse_document(text)
        cases += [(doc.kb, doc.queries[0], m, None) for m in Measure]
    instances = ([gen_el_tree(n) for n in (3, 4, 5)]
                 + [gen_el_abox(n) for n in range(10, 21)]
                 + [gen_dllite_chain(20)])
    cases += [(i.kb, i.query, Measure.SIZE, None) for i in instances]
    counter = gen_hornalc_counter(1)
    cases.append((counter.kb, counter.query, Measure.SIZE, 3))
    for kb, q, measure, ceiling in cases:
        result = explain(kb, q, RunConfig(measure=measure, algo="exact",
                                          depth_ceiling=ceiling))
        assert result.status == "found"
        yield kb, q, result.proof


def test_collect_steps_keeps_the_scan_and_sort_order():
    kinds = set()
    for _, _, proof in _ground_proofs():
        steps, facts = _collect_steps(proof)
        assert (steps, facts) == _reference_collect_steps(proof)
        kinds |= {s.kind for s in steps}
    assert kinds == {"mp", "e"}


# ---------------------------------------------------------------------------
# Rule application: the query's own variables stay rigid
# ---------------------------------------------------------------------------

def _reference_analyze_mpe(premise, rule, conclusion):
    """Match the body into an index over every premise atom."""
    prem, concl = set(premise.atoms), set(conclusion.atoms)
    added = [a for a in conclusion.atoms if a not in prem]
    removed = {a for a in premise.atoms if a not in concl}
    evars = tuple(getattr(rule, "existential_vars", ()))
    taken = None if isinstance(rule, TautRule) else premise.variables()
    for pi in match_conjunction(rule.body, AtomIndex(premise.atoms)):
        if not removed <= {substitute_atom(b, pi) for b in rule.body}:
            continue
        assignment = _match_added(added, rule.head, pi, evars, taken)
        if assignment is not None:
            return pi, assignment
    return None


def test_rule_application_cannot_rebind_query_variables():
    kb = parse_kb("rule: A(x) -> exists y. r(x,y)\nfact: A(a)\n")
    rule = kb.tbox[0]
    u1, u2, u3 = Var("u1"), Var("u2"), Var("u3")
    premise = BooleanCQ((ConceptAtom("A", u1), ConceptAtom("B", u2)),
                        (u1, u2))

    def step(added):
        return (Schema.MPe, (CQLabel(premise), RuleLabel(rule)),
                CQLabel(BooleanCQ(premise.atoms + (added,), (u1, u2, u3))),
                kb)

    assert check_edge(*step(RoleAtom("r", u1, u3)))
    # r(u2, u3) is not an instance of r(u1, y): u1 cannot become u2
    assert not check_edge(*step(RoleAtom("r", u2, u3)))
    forged = step(RoleAtom("r", u2, u3))
    assert analyze_mpe(forged[1][0].cq, rule, forged[2].cq) is None
    # the witness y is a new element: it cannot be u2, which the premise has
    reused = BooleanCQ(premise.atoms + (RoleAtom("r", u1, u2),), (u1, u2))
    assert not check_edge(Schema.MPe, (CQLabel(premise), RuleLabel(rule)),
                          CQLabel(reused), kb)
    assert analyze_mpe(premise, rule, reused) is None


def test_cq_to_sk_rejects_the_steps_the_checker_rejects():
    kb = parse_kb("fact: A(a)\nfact: B(a)\nfact: C(a)\n")
    a, b, c = (ConceptAtom(n, A_) for n in "ABC")
    leaves = {0: CQLabel(BooleanCQ((a,), ())), 1: CQLabel(BooleanCQ((b,), ()))}
    # the conclusion of a conjunction starts with the first premise's atoms
    bad_ce = ProofGraph({**leaves, 2: CQLabel(BooleanCQ((c, b), ()))},
                        [ProofEdge((0, 1), 2, Schema.Ce)])
    # generalization abstracts ground terms, not the premise's variables
    bad_ge = ProofGraph(
        {0: leaves[0], 1: CQLabel(BooleanCQ((ConceptAtom("A", X),), (X,))),
         2: CQLabel(BooleanCQ((ConceptAtom("A", Y),), (Y,)))},
        [ProofEdge((0,), 1, Schema.Ge), ProofEdge((1,), 2, Schema.Ge)])
    for proof in (bad_ce, bad_ge):
        assert not check_edge(proof.edges[-1].schema,
                              tuple(proof.vertices[v]
                                    for v in proof.edges[-1].premises),
                              proof.vertices[2], kb)
        with pytest.raises(TransformError, match="invalid"):
            transform_cq_to_sk(proof, kb)


_POOL_RULES = """\
rule: A(x) -> B(x)
rule: A(x) -> exists y. r(x,y), B(y)
rule: r(x,y), B(y) -> A(x)
rule: A(x), B(x) -> C(x)
rule: r(x,y) -> s(x,y)
rule: r(x,y), r(x,z) -> A(x)
rule: A(x), r(x,y) -> B(y)
rule: A(x) -> x = a
fact: A(a)
"""


def _random_atoms(rng, terms, count):
    atoms = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.45:
            atoms.append(ConceptAtom(rng.choice("ABC"), rng.choice(terms)))
        elif kind < 0.9:
            atoms.append(RoleAtom(rng.choice("rs"), rng.choice(terms),
                                  rng.choice(terms)))
        else:
            atoms.append(EqAtom(rng.choice(terms), rng.choice(terms)))
    return atoms


def test_analyze_mpe_agrees_with_matching_into_the_whole_premise():
    """The narrowed match pool gives the same first (pi, assignment) as the
    whole premise, on rule applications and on random conclusions."""
    rules = parse_kb(_POOL_RULES).tbox
    joined = te_rule((RoleAtom("r", X, Y), RoleAtom("s", Z, Y),
                      ConceptAtom("B", X)), [Y, Z])
    rules += (te_rule((RoleAtom("r", X, Y), RoleAtom("r", Y, Z)), [X]),
              joined)
    u = [Var(f"u{i}") for i in range(6)]
    b = Const("b")
    # B(a) is replaced and r, s stay free: the whole premise meets s(z, y)
    # first, a pool without the other B atoms meets B(x) and then r(a, y)
    premise = _close_cq([
        RoleAtom("r", A_, u[1]), RoleAtom("r", A_, u[2]),
        RoleAtom("r", b, u[3]), RoleAtom("r", b, A_),
        RoleAtom("s", b, u[1]), RoleAtom("s", A_, u[2]),
        RoleAtom("s", u[3], b), ConceptAtom("B", A_), ConceptAtom("B", b),
        ConceptAtom("B", u[1]), ConceptAtom("B", u[2])])
    pi = {X: A_, Y: u[1], Z: b}
    conclusion = mpe_apply(premise, joined, pi, [ConceptAtom("B", A_)],
                           [0, 1])
    expected = _reference_analyze_mpe(premise, joined, conclusion)
    assert expected[0] == {X: A_, Y: u[2], Z: A_}
    assert analyze_mpe(premise, joined, conclusion) == expected

    terms = [A_, b] + u[1:4]
    rng = random.Random(20220830)
    outcomes = set()
    for _ in range(3000):
        rule = rng.choice(rules)
        atoms = _random_atoms(rng, terms, rng.randint(0, 4))
        for _ in range(rng.randint(1, 3)):
            sigma = {v: rng.choice(terms) for a in rule.body
                     for v in atom_vars(a)}
            atoms += [substitute_atom(a, sigma) for a in rule.body]
        rng.shuffle(atoms)
        premise = _close_cq(list(dict.fromkeys(atoms)))
        if rng.random() < 0.8:
            pi = rng.choice(list(match_conjunction(
                rule.body, AtomIndex(premise.atoms))))
            body = list(dict.fromkeys(substitute_atom(a, pi)
                                      for a in rule.body))
            replace = [a for a in body if rng.random() < 0.5]
            keep = [i for i in range(len(rule.head)) if rng.random() < 0.8]
            conclusion = mpe_apply(premise, rule, pi, replace, keep)
        else:
            conclusion = _close_cq(list(dict.fromkeys(
                _random_atoms(rng, terms + u[4:], rng.randint(1, 6)))))
        expected = _reference_analyze_mpe(premise, rule, conclusion)
        assert analyze_mpe(premise, rule, conclusion) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Round trips the translations used to refuse, and deep proofs
# ---------------------------------------------------------------------------

def test_el_tree_size_proof_round_trips():
    inst = gen_el_tree(4)
    result = explain(inst.kb, inst.query,
                     RunConfig(measure=Measure.SIZE, algo="exact"))
    cq = transform_sk_to_cq(result.proof, inst.kb)
    ok, problems = validate_proof(cq, inst.kb, inst.query, "cq")
    assert ok, problems
    back = transform_cq_to_sk(cq, inst.kb)
    ok, problems = validate_proof(back, inst.kb, inst.query, "sk")
    assert ok, problems


def test_cq_to_sk_does_not_recurse_per_proof_level():
    inst = gen_el_abox(40)
    result = explain(inst.kb, inst.query, RunConfig(measure=Measure.TREE_SIZE))
    cq = transform_sk_to_cq(result.proof, inst.kb)
    limit = sys.getrecursionlimit()
    # the derivation is 40 levels deep; two frames per level do not fit
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        back = transform_cq_to_sk(cq, inst.kb)
    finally:
        sys.setrecursionlimit(limit)
    ok, problems = validate_proof(back, inst.kb, inst.query, "sk")
    assert ok, problems
    assert tree_size(back) == tree_size(result.proof)
