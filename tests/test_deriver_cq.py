"""Query-level schemas and the translations between proof formats."""

import collections
import copy
import hashlib
import inspect
import pickle
import random
import sys

import pytest

from conftest import EX1_TEXT
from hornexplain import deriver_cq, deriver_sk, proofs
from hornexplain.deriver_cq import (TransformError, _collect_steps, _Step,
                                    analyze_mpe, check_edge_labels,
                                    conjunction_chain, ee_apply, mpe_apply,
                                    te_rule, transform_cq_to_sk,
                                    transform_sk_to_cq)
from hornexplain.generators import (gen_dllite_chain, gen_el_abox,
                                    gen_el_tree, gen_hornalc_counter,
                                    gen_sat_cq)
from hornexplain.kb import (ATOM_TYPES, BooleanCQ, ConceptAtom, Const, EqAtom,
                            KBError, RoleAtom, SkolemTerm, Var, atom_key,
                            atom_pred, atom_vars, cq_equivalent,
                            substitute_atom, variables_of)
from hornexplain.matching import AtomIndex, match_conjunction, unify_atom
from hornexplain.parser import parse_document, parse_kb
from hornexplain.proofs import (CQ_SCHEMAS, SK_SCHEMAS, Measure, ProofEdge,
                                ProofGraph, Schema, TautRule, format_label,
                                proof_from_json, proof_size, proof_to_json,
                                tree_size, tree_unravel, validate_proof)
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


def _cq(atoms, evars=()):
    return BooleanCQ(tuple(atoms), tuple(evars))


def test_ce_apply_renames_apart(ex1):
    kb, _ = ex1
    q1, q2 = _cq([ConceptAtom("A", X)], [X]), _cq([ConceptAtom("B", X)], [X])
    u1 = Var("u1")
    apart = _cq([ConceptAtom("A", X), ConceptAtom("B", u1)], [X, u1])
    assert check_edge_labels(Schema.Ce, (q1, q2), apart, kb) is None
    shared = _cq([ConceptAtom("A", X), ConceptAtom("B", X)], [X])
    assert "renamed apart" in check_edge_labels(Schema.Ce, (q1, q2), shared,
                                                kb)
    # the chain the translations build: one Ce step per further fact
    chain = ProofGraph()
    conjunction_chain(chain, [ConceptAtom("A", A_), ConceptAtom("B", A_),
                              RoleAtom("r", A_, A_)], _cq)
    assert [e.schema for e in chain.edges] == [Schema.Ce, Schema.Ce]
    for e in chain.edges:
        assert check_edge_labels(e.schema,
                                 tuple(chain.vertices[v] for v in e.premises),
                                 chain.vertices[e.conclusion], kb) is None


def test_a_ce_step_that_renames_variables_grounds_through_the_renaming():
    """Two derived queries with the same variable, conjoined with the second
    one's renamed apart: the renamed variable is grounded by the second
    premise's grounding of the original."""
    kb = parse_kb("rule: A(x) -> exists y. r(x,y)\nfact: A(a)\nfact: A(b)\n")
    rule, b, u1, w = kb.tbox[0], Const("b"), Var("u1"), Var("w")
    cq = ProofGraph()
    derived = []
    for c in (A_, b):
        fact = cq.add_vertex(_cq([ConceptAtom("A", c)]))
        rule_vertex = cq.add_vertex(rule)
        derived.append(cq.add_vertex(_cq([RoleAtom("r", c, u1)], [u1])))
        cq.add_edge((fact, rule_vertex), derived[-1], Schema.MPe)
    goal = _cq([RoleAtom("r", A_, u1), RoleAtom("r", b, w)], [u1, w])
    cq.add_edge(derived, cq.add_vertex(goal), Schema.Ce)
    ok, problems = validate_proof(cq, kb, goal, "cq")
    assert ok, problems
    sk = transform_cq_to_sk(cq, kb)
    ok, problems = validate_proof(sk, kb, goal, "sk")
    assert ok, problems
    fn = kb.skolem_rules[0].fn
    assert {a for a in sk.vertices.values() if isinstance(a, RoleAtom)} == {
        RoleAtom("r", c, SkolemTerm(fn, c)) for c in (A_, b)}


def test_ge_apply_empty_and_real(ex1):
    kb, _ = ex1
    ground = _cq([ConceptAtom("A", A_)])
    general = _cq([ConceptAtom("A", X)], [X])
    assert check_edge_labels(Schema.Ge, (ground,), ground, kb) is None
    assert check_edge_labels(Schema.Ge, (ground,), general, kb) is None
    assert check_edge_labels(Schema.Ge, (general,), ground, kb) is not None


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
    assert isinstance(sink, BooleanCQ) and cq_equivalent(sink, q)


def test_fact_only_proof_transforms_are_small():
    kb = parse_kb("fact: A(a)\n")
    q = BooleanCQ((ConceptAtom("A", A_),), ())
    p = ProofGraph({0: ConceptAtom("A", A_)}, [])
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
        {0: BooleanCQ((fact,), ()), 1: taut, 2: goal},
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
    assert check_edge_labels(Schema.Te, (), taut, kb) is None
    assert check_edge_labels(Schema.Te, (), BooleanCQ(
        (ConceptAtom("A", A_),), ()), kb) is not None


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
            if isinstance(label, ATOM_TYPES) and label not in facts:
                facts.append(label)
            continue
        e = edges[0]
        if e.schema in (Schema.C, Schema.G):
            continue
        concl = p.vertices[v]
        if e.schema is Schema.MP:
            rule = p.vertices[e.premises[-1]]
            body = tuple(p.vertices[q] for q in e.premises[:-1])
            step = mp_groups.setdefault((rule.index, body),
                                        _Step("mp", body, (), rule=rule))
        else:
            alpha = p.vertices[e.premises[0]]
            eq = p.vertices[e.premises[1]]
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
    for kb, _, proof in _ground_proofs():
        steps, facts = _collect_steps(proof, kb, proof.sink(),
                                      proof.incoming())
        assert (steps, list(facts)) == _reference_collect_steps(proof)
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
        assignment = _reference_match_added(added, rule.head, pi, evars,
                                            taken)
        if assignment is not None:
            return pi, assignment
    return None


def _reference_match_added(added, head, pi, evars, taken):
    """Unify each added atom with a head atom's pi-image, backtracking, the
    query's variables rigid and the existential ones bound to variables."""
    rigid = {**pi, **{v: v for v in evars}}
    patterns = [substitute_atom(h, rigid) for h in head]

    def admissible(ext):
        images = [t for k, t in ext.items() if k in evars]
        if taken is not None and (len(set(images)) < len(images)
                                  or not taken.isdisjoint(images)):
            return False
        return all(isinstance(t, Var) if k in evars else t == k
                   for k, t in ext.items())

    def backtrack(i, assignment):
        if i == len(added):
            return assignment
        for pattern in patterns:
            ext = unify_atom(pattern, added[i], assignment)
            if ext is not None and admissible(ext):
                result = backtrack(i + 1, ext)
                if result is not None:
                    return result
        return None

    return backtrack(0, {})


def test_rule_application_cannot_rebind_query_variables():
    kb = parse_kb("rule: A(x) -> exists y. r(x,y)\nfact: A(a)\n")
    rule = kb.tbox[0]
    u1, u2, u3 = Var("u1"), Var("u2"), Var("u3")
    premise = BooleanCQ((ConceptAtom("A", u1), ConceptAtom("B", u2)),
                        (u1, u2))

    def step(added):
        return (Schema.MPe, (premise, rule),
                BooleanCQ(premise.atoms + (added,), (u1, u2, u3)),
                kb)

    assert check_edge_labels(*step(RoleAtom("r", u1, u3))) is None
    # r(u2, u3) is not an instance of r(u1, y): u1 cannot become u2
    assert check_edge_labels(*step(RoleAtom("r", u2, u3))) is not None
    forged = step(RoleAtom("r", u2, u3))
    assert analyze_mpe(forged[1][0], rule, forged[2]) is None
    # the witness y is a new element: it cannot be u2, which the premise has
    reused = BooleanCQ(premise.atoms + (RoleAtom("r", u1, u2),), (u1, u2))
    assert check_edge_labels(Schema.MPe, (premise, rule), reused,
                             kb) is not None
    assert analyze_mpe(premise, rule, reused) is None


def test_cq_to_sk_rejects_the_steps_the_checker_rejects():
    kb = parse_kb("rule: A(x) -> B(x)\nfact: A(a)\nfact: B(a)\n"
                  "fact: C(a)\n")
    a, b, c = (ConceptAtom(n, A_) for n in "ABC")
    leaves = {0: BooleanCQ((a,), ()), 1: BooleanCQ((b,), ())}
    # the conclusion of a conjunction starts with the first premise's atoms
    bad_ce = ProofGraph({**leaves, 2: BooleanCQ((c, b), ())},
                        [ProofEdge((0, 1), 2, Schema.Ce)])
    # generalization abstracts ground terms, not the premise's variables
    bad_ge = ProofGraph(
        {0: leaves[0], 1: BooleanCQ((ConceptAtom("A", X),), (X,)),
         2: BooleanCQ((ConceptAtom("A", Y),), (Y,))},
        [ProofEdge((0,), 1, Schema.Ge), ProofEdge((1,), 2, Schema.Ge)])

    def bad_mpe(rule, conclusion, premises=(0, 1)):
        # a tautology is introduced by its Te step, a rule is a leaf
        introduced = [ProofEdge((), 1, Schema.Te)] \
            if isinstance(rule, TautRule) else []
        return ProofGraph({0: leaves[0], 1: rule,
                           2: BooleanCQ(conclusion, ())},
                          introduced + [ProofEdge(premises, 2, Schema.MPe)])

    def not_in_kb(rule):
        return (f"leaf 1 ({format_label(rule)}) is not a fact or rule of the "
                "knowledge base")

    other = parse_kb("rule: A(x) -> C(x)\n").tbox[0]
    # (proof, the checker's reason for its last edge, the translation's
    # error: that reason, unless the rule is a leaf the KB does not have)
    cases = [
        (bad_ce, "conclusion must start with the first premise's atoms", None),
        (bad_ge, "new variables must abstract ground terms", None),
        # a tautology A(?x) -> A(?x), B(?x)
        (bad_mpe(TautRule((ConceptAtom("A", X),), (ConceptAtom("A", X),
                                                   ConceptAtom("B", X)), ()),
                 (a, b)), "tautology head must repeat the pattern", None),
        (bad_mpe(kb.tbox[0], (b,), premises=(1, 0)),
         "rule application takes a query and a rule", None),
        (bad_mpe(kb.skolem_rules[0], (b,)),
         "query-level proofs use original rules, not Skolemized ones",
         not_in_kb(kb.skolem_rules[0])),
        (bad_mpe(other, (c,)), "rule is not from the TBox", not_in_kb(other)),
    ]
    for proof, reason, error in cases:
        edge = proof.edges[-1]
        assert check_edge_labels(edge.schema,
                                 tuple(proof.vertices[v]
                                       for v in edge.premises),
                                 proof.vertices[edge.conclusion],
                                 kb) == reason
        with pytest.raises(TransformError) as raised:
            transform_cq_to_sk(proof, kb)
        assert str(raised.value) == \
            (error or f"invalid {edge.schema.value} step: {reason}")


def test_sk_to_cq_rejects_a_malformed_ground_proof(ex1):
    """A ground-atom proof that no validation has seen is refused with a
    TransformError that says why, not an assertion, an attribute error or
    an index error: the checker's first problem, a leaf that is not the
    KB's or its reason for the step it rejects."""
    kb, q = ex1
    proof = explain(kb, q, RunConfig()).proof
    # an MP step that applies the original rule, not its Skolemization:
    # a leaf the KB does not have
    plain_rule = copy.deepcopy(proof)
    v = next(v for v, label in plain_rule.vertices.items()
             if label in kb.skolem_rules)
    plain_rule.vertices[v] = kb.tbox[plain_rule.vertices[v].index]
    # a query sink generalized from a query, not from ground atoms
    from_query = ProofGraph()
    fact = from_query.add_vertex(ConceptAtom("A", A_))
    cq = from_query.add_vertex(BooleanCQ((ConceptAtom("A", A_),), ()))
    from_query.add_edge((fact,), cq, Schema.C)
    goal = BooleanCQ((ConceptAtom("A", X),), (X,))
    from_query.add_edge((cq,), from_query.add_vertex(goal), Schema.G)
    # an equality step whose second premise is no equality
    no_equality = ProofGraph()
    premises = [no_equality.add_vertex(ConceptAtom("A", A_))
                for _ in range(2)]
    no_equality.add_edge(premises,
                         no_equality.add_vertex(ConceptAtom("A", Const("b"))),
                         Schema.E)
    # a query sink generalized from nothing
    no_premise = ProofGraph()
    no_premise.add_edge((), no_premise.add_vertex(goal), Schema.G)
    # an equality step with its atom and no equality
    one_premise = ProofGraph()
    one_premise.add_edge((one_premise.add_vertex(ConceptAtom("A", A_)),),
                         one_premise.add_vertex(ConceptAtom("A", Const("b"))),
                         Schema.E)
    for bad, query, reason in [
            (plain_rule, q, f"leaf {v} "
             f"({format_label(plain_rule.vertices[v])}) is not a fact or "
             "rule of the knowledge base"),
            (no_premise, goal, "invalid G step: generalization takes a "
             "single conjunction premise"),
            (one_premise, BooleanCQ((ConceptAtom("A", Const("b")),), ()),
             "invalid E step: equality replacement takes an atom and an "
             "equality"),
            (from_query, goal, "invalid G step: premise must be a ground "
             "conjunction or atom"),
            (no_equality, BooleanCQ((ConceptAtom("A", Const("b")),), ()),
             "invalid E step: second premise must be an equality")]:
        with pytest.raises(TransformError) as raised:
            transform_sk_to_cq(bad, kb)
        assert str(raised.value) == reason
        ok, problems = validate_proof(bad, kb, query, "sk")
        if reason.startswith("invalid "):
            schema, found = reason[len("invalid "):].split(" step: ")
            reason = f"[{schema}]: {found}"
        assert not ok and any(p.endswith(reason) for p in problems)


def test_both_translations_refuse_a_proof_without_one_sink(ex1):
    """A proof with no vertex, several sinks or a cycle is refused with a
    TransformError that names the defect as the checker does, in either
    direction."""
    kb, _ = ex1
    two = ProofGraph()
    for name in "AB":
        two.add_vertex(ConceptAtom(name, A_))
    # a sink below a cycle: the walk from the sink meets the cycle
    below = copy.deepcopy(two)
    below.add_edge((0,), 1, Schema.E)
    below.add_edge((1,), 0, Schema.E)
    below.add_edge((1,), below.add_vertex(ConceptAtom("D", A_)), Schema.E)
    fact = BooleanCQ((ConceptAtom("A", A_),), ())
    ge_cycle = ProofGraph({0: fact, 1: fact}, [ProofEdge((0,), 1, Schema.Ge),
                                               ProofEdge((1,), 0, Schema.Ge)])
    for transform, p, reason in [
            (transform_sk_to_cq, ProofGraph(), "proof has no vertices"),
            (transform_sk_to_cq, two, "expected exactly one sink, found 2"),
            (transform_sk_to_cq, below, "acyclicity violated"),
            (transform_cq_to_sk, ProofGraph(), "proof has no vertices"),
            (transform_cq_to_sk, ge_cycle,
             "expected exactly one sink, found 0")]:
        with pytest.raises(TransformError, match=f"^{reason}$"):
            transform(p, kb)


def test_a_tautology_shape_is_judged_once_per_rule(monkeypatch):
    """Validation (the Te step and the MPe step that applies it) and the
    translation to ground atoms share one verdict per tautology vertex,
    and one match of its body onto its head: the shape check and the
    grounding of its application both read it."""
    calls = collections.Counter()
    renamings = collections.Counter()
    judge = proofs._taut_shape_error

    def counted(rule):
        calls[id(rule)] += 1
        return judge(rule)

    def counted_match(module):
        match = module.match_positionally

        def run(patterns, targets):
            renamings[tuple(patterns), tuple(targets)] += 1
            return match(patterns, targets)
        return run

    monkeypatch.setattr(proofs, "_taut_shape_error", counted)
    for module in (proofs, deriver_cq):
        monkeypatch.setattr(module, "match_positionally",
                            counted_match(module))
    kb = parse_kb("fact: A(a)\n")
    fact = BooleanCQ((ConceptAtom("A", A_),), ())
    # two equal tautologies, each its own vertex and its own verdict
    twice = ProofGraph(
        {0: fact, 1: TautRule(fact.atoms, fact.atoms, ()), 2: fact,
         3: TautRule(fact.atoms, fact.atoms, ()), 4: fact},
        [ProofEdge((), 1, Schema.Te), ProofEdge((0, 1), 2, Schema.MPe),
         ProofEdge((), 3, Schema.Te), ProofEdge((2, 3), 4, Schema.MPe)])
    inst = gen_sat_cq([[1, -2], [2, 3], [-1, -3]])
    found = explain(inst.kb, inst.query,
                    RunConfig(measure=Measure.TREE_SIZE,
                              bound=inst.bounds["cq_tree"], deriver="cq"))
    # read back, so that no verdict is kept on its tautology yet
    sat, _ = proof_from_json(proof_to_json(found.proof, inst.query))
    for p, kb, goal in ((twice, kb, fact), (sat, inst.kb, inst.query)):
        tautologies = [v for v in p.vertices.values()
                       if isinstance(v, TautRule)]
        calls.clear()
        renamings.clear()
        assert validate_proof(p, kb, goal, "cq")[0]
        assert validate_proof(transform_cq_to_sk(p, kb), kb, goal, "sk")[0]
        assert calls == {id(t): 1 for t in tautologies}
        once = collections.Counter((t.body, t.head) for t in tautologies)
        assert {k: renamings[k] for k in once} == once
    assert twice.vertices[1] == twice.vertices[3] \
        and twice.vertices[1] is not twice.vertices[3]


def test_each_schema_is_defined_in_one_table():
    """A schema added to a calculus and missing from a table fails here."""
    assert set(deriver_sk.CHECKS) == SK_SCHEMAS
    assert set(deriver_cq.ANALYSES) == CQ_SCHEMAS
    # a Te step concludes a rule, which grounds to nothing
    assert set(deriver_cq.GROUNDINGS) == CQ_SCHEMAS - {Schema.Te}
    # a check or an analysis reads the labels only: the proof keeps its
    # verdict for the translation, and the KB's part of the check runs apart
    for table, arity in ((deriver_sk.CHECKS, 2), (deriver_cq.ANALYSES, 2),
                         (deriver_cq.GROUNDINGS, 4)):
        assert all(len(inspect.signature(f).parameters) == arity
                   for f in table.values())


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


def _seeding_case(premise, rule, conclusion):
    """Which way analyze_mpe takes: the removed atoms seed the body match
    only when the body's predicates are distinct."""
    preds = [atom_pred(b) for b in rule.body]
    if len(set(preds)) < len(preds):
        return "repeated body predicates"
    removed = [atom_pred(a) for a in premise.atom_set - conclusion.atom_set]
    if not set(removed) <= set(preds):
        return "removed atom outside the body's predicates"
    if len(set(removed)) < len(removed):
        return "two removed atoms of one predicate"
    free = len(preds) - len(removed)
    return ("all body atoms pinned", "one free")[free] if free < 2 \
        else "two or more free"


def test_analyze_mpe_agrees_with_matching_into_the_whole_premise():
    """Seeding the body match from the removed atoms gives the same first
    (pi, assignment) as matching into the whole premise, on rule
    applications and on random conclusions, in every seeding case."""
    rules = parse_kb(_POOL_RULES).tbox
    joined = te_rule((RoleAtom("r", X, Y), RoleAtom("s", Z, Y),
                      ConceptAtom("B", X)), [Y, Z])
    rules += (te_rule((RoleAtom("r", X, Y), RoleAtom("r", Y, Z)), [X]),
              joined)
    u = [Var(f"u{i}") for i in range(6)]
    b = Const("b")
    # B(a) is replaced and r, s stay free: the whole premise meets s(z, y)
    # first, a pool without the other B atoms meets B(x) and then r(a, y)
    premise = BooleanCQ.closed([
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
    assert _seeding_case(premise, joined, conclusion) == "two or more free"

    terms = [A_, b] + u[1:4]
    rng = random.Random(20220830)
    outcomes = set()
    cases = collections.Counter()
    for _ in range(3000):
        rule = rng.choice(rules)
        atoms = _random_atoms(rng, terms, rng.randint(0, 4))
        for _ in range(rng.randint(1, 3)):
            sigma = {v: rng.choice(terms) for a in rule.body
                     for v in atom_vars(a)}
            atoms += [substitute_atom(a, sigma) for a in rule.body]
        rng.shuffle(atoms)
        premise = BooleanCQ.closed(list(dict.fromkeys(atoms)))
        if rng.random() < 0.8:
            pi = rng.choice(list(match_conjunction(
                rule.body, AtomIndex(premise.atoms))))
            body = list(dict.fromkeys(substitute_atom(a, pi)
                                      for a in rule.body))
            replace = [a for a in body if rng.random() < 0.5]
            keep = [i for i in range(len(rule.head)) if rng.random() < 0.8]
            conclusion = mpe_apply(premise, rule, pi, replace, keep)
        else:
            conclusion = BooleanCQ.closed(list(dict.fromkeys(
                _random_atoms(rng, terms + u[4:], rng.randint(1, 6)))))
        expected = _reference_analyze_mpe(premise, rule, conclusion)
        assert analyze_mpe(premise, rule, conclusion) == expected
        outcomes.add(expected is None)
        cases[_seeding_case(premise, rule, conclusion)] += 1
    assert outcomes == {True, False}
    assert set(cases) == {
        "all body atoms pinned", "one free", "two or more free",
        "repeated body predicates",
        "removed atom outside the body's predicates",
        "two removed atoms of one predicate"}, cases



def test_a_tautology_step_tries_one_head_pattern_per_added_atom(
        monkeypatch):
    """The tautology step of a SAT-cq proof adds every goal atom, and none
    of them backtracks: each tries only the head pattern it binds, through
    the checker and through the translation to the sk calculus.  A head
    pattern that covers an added atom maps onto that atom only, and trying
    it again for each later atom of its predicate made the number of
    attempts grow with the square of the goal's length.  The translation
    of a validated proof reads the validation's analysis, so it runs on a
    copy read back from JSON, whose labels no validation has seen."""
    calls = collections.Counter()
    bind, analyze = deriver_cq._bind_head, deriver_cq.analyze_mpe

    def counted_bind(*args):
        calls["attempts"] += 1
        return bind(*args)

    def counted_analyze(premise, rule, conclusion):
        calls["added"] += len(conclusion.atom_set - premise.atom_set)
        return analyze(premise, rule, conclusion)

    monkeypatch.setattr(deriver_cq, "_bind_head", counted_bind)
    monkeypatch.setattr(deriver_cq, "analyze_mpe", counted_analyze)
    for clauses in ([[1, -2], [2, 3], [-1, -3]],
                    [[1, -2, 3], [-1, 2], [2, 3, -4], [-3, 4]]):
        inst = gen_sat_cq(clauses)
        result = explain(inst.kb, inst.query,
                         RunConfig(measure=Measure.TREE_SIZE,
                                   bound=inst.bounds["cq_tree"],
                                   deriver="cq"))
        assert any(isinstance(v, TautRule)
                   for v in result.proof.vertices.values())
        fresh, _ = proof_from_json(proof_to_json(result.proof))
        for run in (lambda: validate_proof(result.proof, inst.kb,
                                           inst.query, "cq")[0],
                    lambda: transform_cq_to_sk(fresh, inst.kb)):
            calls.clear()
            assert run()
            assert calls["attempts"] == calls["added"] == \
                len(inst.query.atoms)


_SAT_CQ = gen_sat_cq([[1, -2], [2, 3], [-1, -3]])

# sha256 of the JSON of each translation and of its translation back
_TRANSLATION_PINS = [
    (gen_el_tree(4), Measure.SIZE, None, "sk", None,
     "2be309d69a710282ee3680f77432ee0c554d5ba56c8594999d3e93ee38e26b53",
     "26a4f040119a26e34c979c1f531d34add8712d0afab57ec5004d9de9fc65734a"),
    (gen_dllite_chain(20), Measure.SIZE, None, "sk", None,
     "4e5158d3d166721660a35de28051931cd3fe189da1078062aa92819dc7f73792",
     "d98ebde47b747168ff091d2e0fe5b437e369725e5d458b56039b663d411eb977"),
    (gen_el_abox(10), Measure.DOMAIN_SIZE, None, "sk", None,
     "e22c9207666203db5c0dbd496ba3440eb5997e2e8ed27b72a377b6c5e81e589f",
     "b715f5d9f9020c17afe82ed40d3e2a8f075e8978f299590056df6453195cc22f"),
    (gen_hornalc_counter(1), Measure.TREE_SIZE, 3, "sk", None,
     "e1633e3e682e8c1b47a231fa559fc2b79d8478bd5e6bfed88a6c8af5b0459414",
     "35ebbea46be86e4a1069cf5baa639b9cb0c52ee46d3bf644f0137214f07e83f2"),
    (_SAT_CQ, Measure.TREE_SIZE, None, "cq", _SAT_CQ.bounds["cq_tree"],
     "800b923333016ca76957dc9809f923b4a42e5b8e2237c8272737d27c41ef0229",
     "f4ee476593c3d075ad9253b7db669b8622479c360c92f3beb4ba428b5d54c1b7"),
]


@pytest.mark.parametrize("inst,measure,ceiling,deriver,bound,there,back",
                         _TRANSLATION_PINS,
                         ids=["el-tree-4-size", "dllite-chain-20-size",
                              "el-abox-10-domain", "counter-1-tree-c3",
                              "sat-cq"])
def test_translations_are_byte_identical_to_the_pinned_ones(
        inst, measure, ceiling, deriver, bound, there, back):
    result = explain(inst.kb, inst.query, RunConfig(
        measure=measure, algo="exact" if deriver == "sk" else "auto",
        deriver=deriver, depth_ceiling=ceiling, bound=bound))
    assert result.status == "found"
    steps = [transform_sk_to_cq, transform_cq_to_sk]
    if deriver == "cq":
        steps.reverse()
    proof, digests = result.proof, []
    for transform in steps:
        proof = transform(proof, inst.kb)
        # sk->cq closes its labels from precollected variables
        assert all(tuple(variables_of(lab.atoms)) == lab.existential_vars
                   for lab in proof.vertices.values()
                   if isinstance(lab, BooleanCQ))
        text = proof_to_json(proof, inst.query)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == [there, back]


# ---------------------------------------------------------------------------
# The translation reads the analyses its validation kept
# ---------------------------------------------------------------------------

def _count_analyses(monkeypatch) -> collections.Counter:
    """Calls of each ANALYSES and CHECKS entry, by schema, from now on."""
    calls = collections.Counter()
    for table in (deriver_cq.ANALYSES, deriver_sk.CHECKS):
        for schema, analyze in list(table.items()):
            def counted(premises, conclusion, schema=schema, analyze=analyze):
                calls[schema] += 1
                return analyze(premises, conclusion)
            monkeypatch.setitem(table, schema, counted)
    return calls


def _query_proof(case, ex1):
    """(proof, kb, goal): the SAT-cq search's proof, or the sk→cq
    translation of the running example's proof."""
    if case == "sat-cq":
        return explain(_SAT_CQ.kb, _SAT_CQ.query, RunConfig(
            measure=Measure.TREE_SIZE, bound=_SAT_CQ.bounds["cq_tree"],
            deriver="cq")).proof, _SAT_CQ.kb, _SAT_CQ.query
    kb, q = ex1
    return transform_sk_to_cq(explain(kb, q, RunConfig()).proof, kb), kb, q


@pytest.mark.parametrize("case, counts", [
    ("sat-cq", {Schema.Ce: 13, Schema.Te: 1, Schema.MPe: 1}),
    ("running-example", {Schema.MPe: 5, Schema.Te: 1}),
])
def test_each_query_step_is_analyzed_once(monkeypatch, ex1, case, counts):
    """Validating a query-level proof and then translating it to ground
    atoms analyzes each edge once: the translation reads what the
    validation found.  A copy read back from JSON has labels no validation
    has seen, and its translation alone analyzes each edge once too, but
    its Te edges, which conclude rules and ground to nothing.  Each of the
    two analyzed every edge before, so the pairs made these counts and
    again as many but the Te ones; a change to them must say why."""
    proof, kb, goal = _query_proof(case, ex1)
    calls = _count_analyses(monkeypatch)
    assert validate_proof(proof, kb, goal, "cq")[0]
    back = transform_cq_to_sk(proof, kb)
    assert calls == collections.Counter(e.schema for e in proof.edges) \
        == counts

    fresh, _ = proof_from_json(proof_to_json(proof))
    calls.clear()
    assert proof_to_json(transform_cq_to_sk(fresh, kb)) == \
        proof_to_json(back)
    assert calls == {k: n for k, n in counts.items() if k is not Schema.Te}


@pytest.mark.parametrize("text", [EX1_TEXT, _NOMINAL_TEXT])
def test_each_ground_step_is_checked_once(monkeypatch, text):
    """Validating a ground-atom proof and then translating it to query
    steps checks each edge once: the translation reads the validation's
    verdicts.  A copy read back from JSON has labels no validation has
    seen, and its translation alone checks each edge once too."""
    doc = parse_document(text)
    kb, goal = doc.kb, doc.queries[0]
    proof = explain(kb, goal, RunConfig(algo="exact")).proof
    every = collections.Counter(e.schema for e in proof.edges)
    calls = _count_analyses(monkeypatch)
    assert validate_proof(proof, kb, goal, "sk")[0]
    there = proof_to_json(transform_sk_to_cq(proof, kb))
    assert calls == every and every[Schema.MP]

    fresh, _ = proof_from_json(proof_to_json(proof))
    calls.clear()
    assert proof_to_json(transform_sk_to_cq(fresh, kb)) == there
    assert calls == every


def test_a_kept_analysis_serves_only_the_labels_it_was_made_for(
        monkeypatch, ex1):
    """What a validation keeps is read only for the same label objects, and
    never instead of the KB's own checks; and it is no part of the proof:
    equality, repr, JSON, copies and pickles do not see it."""
    proof, kb, goal = _query_proof("running-example", ex1)
    text = proof_to_json(proof, goal)

    def read():
        return proof_from_json(text)[0]

    checked, unchecked = read(), read()
    assert validate_proof(checked, kb, goal, "cq")[0]
    assert len(checked.analyses) == len(checked.edges)
    assert not unchecked.analyses
    assert checked == unchecked and repr(checked) == repr(unchecked)
    assert proof_to_json(checked, goal) == text
    for copy_of in (copy.deepcopy,
                    lambda p: pickle.loads(pickle.dumps(p))):
        twin = copy_of(checked)
        assert twin == unchecked and not twin.analyses
    want = proof_to_json(transform_cq_to_sk(read(), kb))

    # a KB without the rule of the step into vertex 6 rejects it still: the
    # rule is a leaf it does not have, and the step's kept verdict does not
    # replace the KB's check of it
    rule = checked.vertices[5]
    lacking = parse_kb("".join(line for line in EX1_TEXT.splitlines(True)
                               if not line.startswith("rule: s(x,y)")))
    assert rule in kb.rule_index and rule not in lacking.rule_index
    with pytest.raises(TransformError) as raised:
        transform_cq_to_sk(checked, lacking)
    assert str(raised.value) == (f"leaf 5 ({format_label(rule)}) is not a "
                                 "fact or rule of the knowledge base")
    edge = next(e for e in checked.edges if e.conclusion == 6)
    assert not isinstance(checked.analyses[edge][2], str)
    assert deriver_cq.analyze_edge(checked, edge, lacking) == \
        "rule is not from the TBox"

    # an equal label of another object: the two steps that read it are
    # analyzed again, and the translation is the same
    equal = read()
    assert validate_proof(equal, kb, goal, "cq")[0]
    lab = equal.vertices[6]
    equal.vertices[6] = BooleanCQ(lab.atoms, lab.existential_vars)
    assert equal.vertices[6] == lab and equal.vertices[6] is not lab
    calls = _count_analyses(monkeypatch)
    assert proof_to_json(transform_cq_to_sk(equal, kb)) == want
    assert calls == {Schema.MPe: 2}

    # a wrong label: the error a proof without kept analyses gives
    wrong = BooleanCQ(checked.vertices[2].atoms,
                      checked.vertices[2].existential_vars)
    errors = []
    for validated in (False, True):
        p = read()
        if validated:
            assert validate_proof(p, kb, goal, "cq")[0]
        p.vertices[6] = wrong
        with pytest.raises(TransformError) as raised:
            transform_cq_to_sk(p, kb)
        errors.append(str(raised.value))
    assert errors == ["invalid MPe step: no substitution and replaced/kept "
                      "choice yields the conclusion"] * 2


def test_a_validated_proof_pickles_to_the_bytes_of_an_unvalidated_one():
    """What a validation caches on the labels (a query's atom set and
    index, a tautology's verdict and renaming) and on the KB (its rule
    index and leaf labels) is no part of them: a validated proof pickles to
    the bytes of an unvalidated copy, and its equality, repr, JSON and
    copies are those of the copy; the KB pickles to the bytes it did before
    its caches were filled."""
    inst = gen_sat_cq([[1, -2], [2, 3], [-1, -3]])
    kb_bytes = pickle.dumps(inst.kb)
    result = explain(inst.kb, inst.query, RunConfig(
        measure=Measure.TREE_SIZE, algo="exact", deriver="cq"))
    text = proof_to_json(result.proof, inst.query)
    checked, unchecked = (proof_from_json(text)[0] for _ in range(2))
    assert validate_proof(checked, inst.kb, inst.query, "cq")[0]
    cached = {k for label in checked.vertices.values()
              if isinstance(label, (BooleanCQ, TautRule))
              for k in vars(label)}
    assert {"atom_set", "index", "shape_error", "renaming"} <= cached
    assert pickle.dumps(checked) == pickle.dumps(unchecked)
    assert checked == unchecked and repr(checked) == repr(unchecked)
    assert proof_to_json(checked, inst.query) == text
    for copy_of in (copy.deepcopy,
                    lambda p: pickle.loads(pickle.dumps(p))):
        twin = copy_of(checked)
        assert twin == unchecked
        assert all(vars(label).keys() <= {"atoms", "existential_vars",
                                          "_variables", "body", "head"}
                   for label in twin.vertices.values()
                   if isinstance(label, (BooleanCQ, TautRule)))
        # a copy computes its caches again where it is read
        assert validate_proof(twin, inst.kb, inst.query, "cq")[0]
        assert proof_to_json(transform_cq_to_sk(twin, inst.kb)) == \
            proof_to_json(transform_cq_to_sk(checked, inst.kb))

    caches = {"rule_index", "skolem_rules", "sk_leaf_labels",
              "cq_leaf_labels"}
    for name in caches:
        getattr(inst.kb, name)
    assert caches <= vars(inst.kb).keys()
    assert pickle.dumps(inst.kb) == kb_bytes
    for copy_of in (copy.deepcopy,
                    lambda kb: pickle.loads(pickle.dumps(kb))):
        twin = copy_of(inst.kb)
        assert twin == inst.kb and not caches & vars(twin).keys()
        assert twin.rule_index == inst.kb.rule_index


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


@pytest.mark.parametrize("ceiling", [3, 4, 5])
def test_a_head_atom_the_step_dropped_keeps_its_later_derivation(ceiling):
    """In the counter's domain-size proof, the query step applying
    SawO_1(x) -> s(x,f_7(x)), O_1(f_7(x)) keeps s(a,f_7(a)) only, and the
    next step derives O_1(f_7(a)) from it.  cq→sk files each atom under
    the step that kept it, so the proof comes back byte for byte; filed
    under the first step, it came back with 22 vertices, not 23."""
    inst = gen_hornalc_counter(1)
    proof = explain(inst.kb, inst.query, RunConfig(
        measure=Measure.DOMAIN_SIZE, algo="exact",
        depth_ceiling=ceiling)).proof
    back = transform_cq_to_sk(transform_sk_to_cq(proof, inst.kb), inst.kb)
    assert len(back.vertices) == len(proof.vertices) == 23
    assert proof_to_json(back, inst.query) == \
        proof_to_json(proof, inst.query)


# the nominal rule's d = e rewrites v(d,f_1(d)) to v(e,f_1(d)): an
# equality replaces only top-level occurrences, in either calculus
_NESTED_MERGE = """\
rule: v(x,y), P(y) -> Q(x)
rule: Q(x) -> exists y. u(x,y), P(y)
rule: Q(x) -> x = e
rule: u(x,y) -> v(x,y)
fact: Q(d)
query: exists x0. v(e,x0)
"""
# the goal's tautology has two v head atoms, and the added one can map onto
# the wrong copy of the pattern
_TWO_COPIES = """\
rule: R(x), u(x,y) -> P(y)
rule: R(x) -> exists y. v(x,y), R(y)
rule: Q(x) -> exists y. v(x,y), Q(y)
rule: v(x,y), P(y) -> Q(x)
fact: u(e,e)
fact: P(d)
fact: v(e,d)
query: exists x0, x1, x2. Q(x1), v(x1,x2), v(x0,x1)
"""


@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("text", [_NESTED_MERGE, _TWO_COPIES],
                         ids=["nested-merge", "two-copies"])
def test_translations_round_trip_where_a_term_or_a_pattern_repeats(
        text, measure):
    doc = parse_document(text)
    kb, q = doc.kb, doc.queries[0]
    proof = explain(kb, q, RunConfig(measure=measure, algo="exact")).proof
    for target, transform in (("cq", transform_sk_to_cq),
                              ("sk", transform_cq_to_sk)):
        proof = transform(proof, kb)
        ok, problems = validate_proof(proof, kb, q, target)
        assert ok, (target, problems)


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
