"""Proof hypergraphs: validation, measures, unraveling, JSON."""

import collections
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hornexplain.kb import (ATOM_TYPES, BooleanCQ, ConceptAtom, Const, EqAtom,
                            KBError, NormalForm, RoleAtom, Rule, SkolemRule,
                            SkolemTerm, Var, atom_vars)
from hornexplain.deriver_cq import (TransformError, transform_cq_to_sk,
                                    transform_sk_to_cq)
from hornexplain.kb import format_term as _format_term
from hornexplain.parser import parse_kb
from hornexplain.proofs import (Measure, ProofEdge, ProofGraph, Schema,
                                TautRule, check_proof_shape, domain_size,
                                format_label, inference_steps, label_key,
                                measure, proof_from_json, proof_size,
                                proof_to_dot, proof_to_json, sub_derivation,
                                tree_size, tree_unravel, validate_proof)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_reference_proof_validates(ex1, ex1_reference_proof):
    kb, q = ex1
    ok, problems = validate_proof(ex1_reference_proof, kb, q, "sk")
    assert ok, problems


def test_deleting_an_edge_orphans_a_leaf(ex1, ex1_reference_proof):
    kb, q = ex1
    p = ex1_reference_proof
    # vertex 3 (the B-atom) keeps its consumer but loses its derivation
    broken = ProofGraph(dict(p.vertices),
                        [e for e in p.edges if e.conclusion != 3])
    ok, problems = validate_proof(broken, kb, q, "sk")
    assert not ok
    assert any("not a fact or rule" in msg for msg in problems)


def test_cycles_are_rejected(ex1):
    kb, q = ex1
    a1 = ConceptAtom("A", Const("a"))
    a2 = ConceptAtom("B", Const("a"))
    p = ProofGraph({0: a1, 1: a2},
                   [ProofEdge((0,), 1, Schema.MP),
                    ProofEdge((1,), 0, Schema.MP)])
    ok, problems = validate_proof(p, kb, q, "sk")
    assert not ok
    assert any("one sink" in m or "acyclicity" in m for m in problems)


def test_two_incoming_edges_are_rejected(ex1, ex1_reference_proof):
    kb, q = ex1
    p = ex1_reference_proof
    doubled = ProofGraph(dict(p.vertices),
                         list(p.edges) + [ProofEdge((0, 1), 9, Schema.MP)])
    ok, problems = validate_proof(doubled, kb, q, "sk")
    assert not ok
    assert any("incoming" in m for m in problems)


def test_wrong_goal_is_rejected(ex1, ex1_reference_proof):
    kb, _ = ex1
    other_goal = BooleanCQ((ConceptAtom("D", Const("a")),), ())
    ok, problems = validate_proof(ex1_reference_proof, kb, other_goal, "sk")
    assert not ok
    assert any("goal" in m for m in problems)


def test_measures_of_the_reference_proof(ex1_reference_proof):
    p = ex1_reference_proof
    assert proof_size(p) == 12
    assert tree_size(p) == 23      # the shared role atom is paid three times
    assert domain_size(p) == 3     # a, f_0(a), f_1(f_0(a))
    assert measure(p, Measure.DOMAIN_SIZE) == 3


def test_single_fact_proof_measures():
    p = ProofGraph({0: ConceptAtom("A", Const("a"))}, [])
    assert proof_size(p) == tree_size(p) == 1
    assert domain_size(p) == 1


def _homomorphism(h1, h2):
    """A label- and edge-preserving vertex map from h1 into h2, if any."""
    h2_edges = set(h2.edges)
    candidates = {v: sorted(u for u, lab2 in h2.vertices.items()
                            if lab2 == lab)
                  for v, lab in h1.vertices.items()}
    order = sorted(h1.vertices, key=lambda v: (len(candidates[v]), v))
    assignment = {}

    def consistent():
        for e in h1.edges:
            ends = list(e.premises) + [e.conclusion]
            if all(u in assignment for u in ends) and ProofEdge(
                    tuple(assignment[u] for u in e.premises),
                    assignment[e.conclusion], e.schema) not in h2_edges:
                return False
        return True

    def search(i):
        if i == len(order):
            return True
        for cand in candidates[order[i]]:
            assignment[order[i]] = cand
            if consistent() and search(i + 1):
                return True
            del assignment[order[i]]
        return False

    return dict(assignment) if search(0) else None


def test_unravel_is_a_tree_of_tree_size(ex1_reference_proof):
    p = ex1_reference_proof
    t = tree_unravel(p)
    assert proof_size(t) == tree_size(p) == 23
    assert tree_size(t) == tree_size(p)
    assert domain_size(t) == domain_size(p)
    # every vertex of a tree has at most one use as a premise
    uses = collections.Counter(q for e in t.edges for q in e.premises)
    assert all(n <= 1 for n in uses.values())
    # and the canonical map back onto the original exists
    assert _homomorphism(t, p) is not None


def test_unravel_of_a_tree_is_an_isomorphic_copy():
    fact = ConceptAtom("A", Const("a"))
    mid = ConceptAtom("B", Const("a"))
    p = ProofGraph({0: fact, 1: mid}, [ProofEdge((0,), 1, Schema.MP)])
    t = tree_unravel(p)
    assert proof_size(t) == proof_size(p)
    assert _homomorphism(t, p) is not None and _homomorphism(p, t) is not None


def test_unravel_duplicates_shared_premises():
    fact = ConceptAtom("A", Const("a"))
    mid1 = ConceptAtom("B", Const("a"))
    mid2 = ConceptAtom("C", Const("a"))
    top = ConceptAtom("D", Const("a"))
    p = ProofGraph({0: fact, 1: mid1, 2: mid2, 3: top},
                   [ProofEdge((0,), 1, Schema.MP),
                    ProofEdge((0,), 2, Schema.MP),
                    ProofEdge((1, 2), 3, Schema.MP)])
    t = tree_unravel(p)
    assert proof_size(t) == proof_size(p) + 1
    # the tree maps onto the DAG, but no copy of the fact feeds both uses
    assert _homomorphism(t, p) is not None and _homomorphism(p, t) is None


def test_subproof_of_the_d_vertex(ex1_reference_proof):
    p = ex1_reference_proof
    sub = sub_derivation(p, 9)
    # everything below D(a), ids and labels kept: the proof without the
    # conjunction and the goal
    assert sub.sink() == 9
    assert sub.vertices == {v: lab for v, lab in p.vertices.items()
                            if v not in (10, 11)}
    assert sorted(sub.edges, key=lambda e: e.conclusion) == \
        [e for e in p.edges if e.conclusion < 10]
    assert check_proof_shape(sub) == (True, [])
    assert sub_derivation(p, p.sink()).vertices == p.vertices


def test_inference_steps_group_shared_premises(ex1_reference_proof):
    steps = [s.value for s, _, _ in inference_steps(ex1_reference_proof)]
    assert steps == ["MP", "MP", "MP", "MP", "C", "G"]


def test_json_round_trip(ex1, ex1_reference_proof):
    kb, q = ex1
    text = proof_to_json(ex1_reference_proof, q)
    again, goal = proof_from_json(text)
    assert goal == q
    assert again.vertices == ex1_reference_proof.vertices
    assert sorted(again.edges, key=lambda e: (e.conclusion, e.premises)) == \
        sorted(ex1_reference_proof.edges,
               key=lambda e: (e.conclusion, e.premises))
    ok, problems = validate_proof(again, kb, q, "sk")
    assert ok, problems


def _first(doc, kind):
    return next(v for v in doc["vertices"] if v["kind"] == kind)


_SKOLEM_FIELDS = ("a Skolem rule needs an integer 'index' and a string or "
                  "null 'fn'")


@pytest.mark.parametrize("change, message", [
    (lambda d: _first(d, "conjunction")["atoms"].append(3),
     r"vertex \d+: 'atoms' must be a list of strings$"),
    (lambda d: d.update(goal=[]), "goal: a label must be a JSON object$"),
    (lambda d: _first(d, "skolem_rule").update(form="viii"),
     r"vertex \d+: unknown rule form 'viii'$"),
    (lambda d: _first(d, "skolem_rule").update(index="0"),
     rf"vertex \d+: {_SKOLEM_FIELDS}$"),
    (lambda d: _first(d, "skolem_rule").update(fn=0),
     rf"vertex \d+: {_SKOLEM_FIELDS}$"),
    (lambda d: _first(d, "atom").update(atom=7),
     r"vertex \d+: an atom must be a string, not 7$"),
    (lambda d: d.update(vertices={}),
     "a proof needs 'vertices' and 'edges' lists$"),
    (lambda d: d.update(edges=None),
     "a proof needs 'vertices' and 'edges' lists$"),
    (lambda d: d["vertices"][0].update(id="0"),
     "vertex without an integer 'id': {"),
    (lambda d: d["vertices"].append(5), "vertex without an integer 'id': 5$"),
    (lambda d: d["vertices"].append(dict(d["vertices"][0])),
     r"vertex \d+ is defined twice$"),
    (lambda d: d["edges"].append([0]),
     r"an edge must be a JSON object: \[0\]$"),
    (lambda d: d["edges"][0].pop("premises"),
     r"edge into \d+ has no 'premises' list$"),
    (lambda d: d["goal"].update(evars="xp"),
     "goal: 'evars' must be a list of strings$"),
    (lambda d: d.update(goal={"kind": "atom", "atom": "A(a)"}),
     "the goal must be a 'cq' label$"),
], ids=["list-entry", "label", "rule-form", "skolem-index", "skolem-fn",
        "atom", "vertices", "edges", "vertex-id", "vertex-object",
        "duplicate-id", "edge-object", "edge-premises", "goal-evars",
        "goal-kind"])
def test_proof_from_json_names_each_malformed_part(ex1, ex1_reference_proof,
                                                   change, message):
    """Each rejection of a proof document, one defect at a time in an
    otherwise valid one, says which part is wrong."""
    doc = json.loads(proof_to_json(ex1_reference_proof, ex1[1]))
    change(doc)
    with pytest.raises(KBError, match=f"^{message}"):
        proof_from_json(json.dumps(doc))


def test_dot_export_shapes(ex1_reference_proof):
    dot = proof_to_dot(ex1_reference_proof)
    assert dot.startswith("digraph proof {")
    assert dot.count("fillcolor=lightgray") == 1   # exactly one goal vertex
    assert "color=gray" in dot                     # rule vertices are gray
    assert "(MP)" in dot and "(C)" in dot and "(G)" in dot


def test_domain_size_rejected_for_query_level_proofs(ex1,
                                                     ex1_reference_cq_proof):
    with pytest.raises(ValueError, match="domain size"):
        measure(ex1_reference_cq_proof, Measure.DOMAIN_SIZE)


def test_schema_tags_are_deriver_specific(ex1, ex1_reference_proof):
    kb, q = ex1
    ok, problems = validate_proof(ex1_reference_proof, kb, q, "cq")
    assert not ok
    assert any("not available" in m for m in problems)


def test_each_kind_of_label_is_the_value_it_labels():
    """One label of each kind, with no wrapper around it, through the label
    key, the display text, the JSON round trip, the knowledge base's leaf
    labels and the checker's test of a premise's or conclusion's kind."""
    from hornexplain.deriver_cq import check_edge_labels as check
    from hornexplain.deriver_cq import te_rule
    from hornexplain.parser import parse_kb

    kb = parse_kb("rule: A(x) -> exists y. r(x,y), B(y)\nfact: A(a)\n")
    a, y = Const("a"), Var("y")
    fa = SkolemTerm("f_0", a)
    cq = BooleanCQ((RoleAtom("r", a, y), ConceptAtom("B", y)), (y,))
    labels = {
        "concept": ConceptAtom("A", a),
        "role": RoleAtom("r", a, fa),
        "equality": EqAtom(fa, a),
        "conjunction": (ConceptAtom("A", a), RoleAtom("r", a, fa)),
        "cq": cq,
        "rule": kb.tbox[0],
        "skolem_rule": kb.skolem_rules[0],
        "taut_rule": te_rule(cq.atoms, (y,)),
    }
    assert [key[0] if key[0] < 3 else key[:2]
            for key in map(label_key, labels.values())] \
        == [0, 0, 0, 1, 2, (3, 1), (3, 0), (3, 2)]
    assert [format_label(lab) for lab in labels.values()] == [
        "A(a)", "r(a,f_0(a))", "f_0(a) = a", "A(a), r(a,f_0(a))",
        "exists y. r(a,?y), B(?y)", "A(?x) -> exists y. r(?x,?y), B(?y)",
        "A(?x) -> r(?x,f_0(?x)), B(f_0(?x))",
        "r(a,?y), B(?y) -> exists y. r(a,?y), B(?y)"]

    p = ProofGraph(dict(enumerate(labels.values())), [])
    text = proof_to_json(p)
    assert [v["kind"] for v in json.loads(text)["vertices"]] == [
        "atom", "atom", "atom", "conjunction", "cq", "rule", "skolem_rule",
        "taut_rule"]
    back, goal = proof_from_json(text)
    assert goal is None and back.vertices == p.vertices
    assert [type(lab) for lab in back.vertices.values()] \
        == [type(lab) for lab in labels.values()]
    assert all(back.vertices[v] is lab for v, lab in p.vertices.items()
               if isinstance(lab, ATOM_TYPES))
    assert proof_to_json(back) == text

    fact = labels["concept"]
    assert kb.sk_leaf_labels == {fact, kb.skolem_rules[0]}
    assert kb.cq_leaf_labels == {BooleanCQ((fact,), ()), kb.tbox[0]}
    for lab in labels.values():
        assert (lab in kb.sk_leaf_labels) \
            == (lab is fact or lab is kb.skolem_rules[0])
        assert (lab in kb.cq_leaf_labels) == (lab is kb.tbox[0])

    # (checker, schema, premises, conclusion) with one place for a label,
    # the kinds that may stand there, and the diagnostic of any other kind
    atoms = {"concept", "role", "equality"}
    b_fa = ConceptAtom("B", fa)
    sk_cases = [
        (lambda x: (fact, x), b_fa, Schema.MP, {"skolem_rule"},
         {"the last premise must be a rule",
          "rule premise must be Skolemized"}),
        (lambda x: (x, kb.skolem_rules[0]), b_fa, Schema.MP, atoms,
         {"rule premises must be ground atoms"}),
        (lambda x: (x, labels["equality"]), None, Schema.E, atoms,
         {"equality replacement takes an atom and an equality"}),
        (lambda x: (x,), None, Schema.C, atoms,
         {"conjunction premises must be ground atoms"}),
        (lambda x: (x,), None, Schema.G, atoms | {"conjunction"},
         {"premise must be a ground conjunction or atom"}),
    ]
    cq_cases = [
        (lambda x: (x, kb.tbox[0]), None, Schema.MPe, {"cq"},
         {"rule application takes a query and a rule"}),
        (lambda x: (x,), None, Schema.Ee, {"cq"},
         {"equality elimination takes a single query premise"}),
        (lambda x: (x, cq), None, Schema.Ce, {"cq"},
         {"conjunction takes two query premises"}),
        (lambda x: (x,), None, Schema.Ge, {"cq"},
         {"generalization takes a single query premise"}),
    ]
    for premises, conclusion, schema, kinds, errors in sk_cases + cq_cases:
        for kind, lab in labels.items():
            err = check(schema, premises(lab), conclusion or cq, kb)
            if kind in kinds:
                assert err not in errors, (schema, kind, err)
            else:
                assert err in errors, (schema, kind, err)
    for kind, lab in labels.items():
        err = check(Schema.Te, (), lab, kb)
        assert (err is None) == (kind == "taut_rule"), (kind, err)
        assert kind == "taut_rule" \
            or err == "conclusion must be a tautological rule"


# ---------------------------------------------------------------------------
# Reference: the proof document as a dict, frozen as it was before the
# writer wrote the JSON text straight from the labels; its json.dumps with
# indent=2 and sorted keys is the proof JSON
# ---------------------------------------------------------------------------

def _reference_label(label, text) -> dict:
    if isinstance(label, ATOM_TYPES):
        atom = text(label)
        return {"kind": "atom", "atom": atom, "label": atom}
    if isinstance(label, tuple):
        atoms = list(map(text, label))
        return {"kind": "conjunction", "atoms": atoms,
                "label": ", ".join(atoms)}
    if isinstance(label, BooleanCQ):
        atoms = list(map(text, label.atoms))
        evars = [v.name for v in label.existential_vars]
        shown = ", ".join(atoms)
        if evars:
            shown = f"exists {', '.join(evars)}. {shown}"
        return {"kind": "cq", "atoms": atoms, "evars": evars,
                "label": shown}
    rule = label
    body = list(map(text, rule.body))
    head = list(map(text, rule.head))
    evars = [v.name for v in getattr(rule, "existential_vars", ())]
    shown = f"{', '.join(body)} -> "
    if evars:
        shown += f"exists {', '.join(evars)}. "
    base = {"body": body, "head": head, "label": shown + ", ".join(head)}
    if isinstance(rule, SkolemRule):
        return {"kind": "skolem_rule", "index": rule.index,
                "form": rule.normal_form.value, "fn": rule.fn, **base}
    if isinstance(rule, TautRule):
        return {"kind": "taut_rule", "evars": evars, **base}
    return {"kind": "rule", "form": rule.normal_form.value, "evars": evars,
            **base}


def _reference_document(p, goal=None) -> dict:
    vertices = []
    for v, lab in sorted(p.vertices.items()):
        obj = _reference_label(lab, _reference_atom)
        obj["id"] = v
        vertices.append(obj)
    edges = [{"premises": list(e.premises), "conclusion": e.conclusion,
              "schema": e.schema.value}
             for e in sorted(p.edges,
                             key=lambda e: (e.conclusion, e.premises))]
    doc = {"schema_version": 1, "deriver": p.deriver(),
           "vertices": vertices, "edges": edges}
    if goal is not None:
        obj = _reference_label(goal, _reference_atom)
        del obj["label"]
        doc["goal"] = obj
    return doc


def _reference_term(t) -> str:
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Var):
        return f"?{t.name}"
    return f"{t.fn}({_reference_term(t.arg)})"


def _reference_atom(a) -> str:
    if isinstance(a, ConceptAtom):
        return f"{a.concept}({_reference_term(a.term)})"
    if isinstance(a, RoleAtom):
        return f"{a.role}({_reference_term(a.subj)},{_reference_term(a.obj)})"
    return f"{_reference_term(a.lhs)} = {_reference_term(a.rhs)}"


def _reference_json(p, goal=None, extra=None) -> str:
    return json.dumps({**_reference_document(p, goal), **(extra or {})},
                      indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Generated proofs: every label kind, equalities, ?x variables, empty lists
# ---------------------------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "x", "f_0", "é", "_u", 'q"', "s\\t",
                          "\U0001f600", ""])
_TERMS = st.recursive(
    st.builds(Const, _NAMES) | st.builds(Var, _NAMES),
    lambda inner: st.builds(SkolemTerm, _NAMES, inner), max_leaves=4)
_ATOMS = (st.builds(ConceptAtom, _NAMES, _TERMS)
          | st.builds(RoleAtom, _NAMES, _TERMS, _TERMS)
          | st.builds(EqAtom, _TERMS, _TERMS))
_ATOM_TUPLES = st.lists(_ATOMS, max_size=3).map(tuple)
_VARS = st.lists(st.builds(Var, _NAMES), max_size=2).map(tuple)


@st.composite
def _cqs(draw):
    atoms = draw(_ATOM_TUPLES)
    used = set().union(*map(atom_vars, atoms))
    evars = sorted(used | set(draw(_VARS)), key=lambda v: v.name)
    return BooleanCQ(atoms, tuple(draw(st.permutations(evars))))


_LABELS = st.one_of(
    _ATOMS,
    _ATOM_TUPLES,
    _cqs(),
    st.builds(SkolemRule, _ATOM_TUPLES, _ATOM_TUPLES,
              st.sampled_from(NormalForm), st.integers(-3, 2 ** 40),
              st.none() | _NAMES),
    st.builds(TautRule, _ATOM_TUPLES, _ATOM_TUPLES, _VARS),
    st.builds(lambda b, h, e, form: Rule(b, h, e, form, frozenset()),
              _ATOM_TUPLES, _ATOM_TUPLES, _VARS, st.sampled_from(NormalForm)))


@st.composite
def _proofs(draw):
    ids = draw(st.lists(st.integers(-5, 10 ** 6), unique=True, max_size=6))
    vertices = {v: draw(_LABELS) for v in ids}
    edges = [ProofEdge(tuple(draw(st.lists(st.sampled_from(ids),
                                           max_size=3))),
                       draw(st.sampled_from(ids)),
                       draw(st.sampled_from(Schema)))
             for _ in range(draw(st.integers(0, 4)) if ids else 0)]
    goal = draw(st.none() | _cqs())
    extra = draw(st.dictionaries(
        st.sampled_from(["measure", "value", "algorithm", "complete", "é"]),
        st.none() | st.booleans() | st.integers() | st.text(max_size=4),
        max_size=3))
    return ProofGraph(vertices, edges), goal, extra


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_proofs())
def test_json_writer_matches_the_stdlib(case):
    """The writer against json.dumps of the frozen document."""
    p, goal, extra = case
    assert proof_to_json(p, goal, extra) == _reference_json(p, goal, extra)


def test_json_writer_reproduces_every_golden_file():
    for path in sorted(GOLDEN.glob("*.json")):
        text = path.read_text()
        doc = json.loads(text)
        p, goal = proof_from_json(text)
        extra = {key: value for key, value in doc.items()
                 if key in ("measure", "value", "algorithm", "complete")}
        written = proof_to_json(p, goal, extra)
        assert written + "\n" == text, path.name
        assert written == _reference_json(p, goal, extra), path.name


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": {2}},
                                   [object()]])
def test_json_writer_rejects_other_types(value):
    """A top-level value is a JSON scalar the document's own keys use."""
    p = ProofGraph({0: ConceptAtom("A", Const("a"))}, [])
    with pytest.raises(TypeError):
        proof_to_json(p, None, {"value": value})


def test_the_writer_formats_each_distinct_term_once(monkeypatch):
    """Every atom below repeats the whole Skolem chain under it, yet the
    writer walks each Skolem application once: a term's text is built
    from its argument's."""
    from hornexplain import kb
    steps = []

    def format_term(t, texts=None):
        steps.append(sum(1 for _ in _chain_to(t, texts or {})))
        return _format_term(t, texts)

    monkeypatch.setattr(kb, "format_term", format_term)
    terms = [Const("a")]
    for i in range(50):
        terms.append(SkolemTerm(f"f_{i % 3}", terms[-1]))
    p = ProofGraph({i: RoleAtom("r", s, t) for i, (s, t)
                    in enumerate(zip(terms, terms[1:]))}, [])
    assert proof_to_json(p) == _reference_json(p)
    assert sum(steps) == len(terms) - 1


def _chain_to(t, known):
    """The Skolem applications from ``t`` down to the first known term."""
    while isinstance(t, SkolemTerm) and t not in known:
        yield t
        t = t.arg


# ---------------------------------------------------------------------------
# Every reader of a proof, on hand-built graphs of any shape
# ---------------------------------------------------------------------------

_READER_KB = parse_kb("rule: A(x) -> B(x)\nfact: A(a)\n")
_A_OF_A = ConceptAtom("A", Const("a"))
# the KB's leaves in both calculi, an atom outside the KB, and a query
_READER_LABELS = [_A_OF_A, _READER_KB.skolem_rules[0], _READER_KB.tbox[0],
                  BooleanCQ((_A_OF_A,), ()), ConceptAtom("C", Const("a")),
                  BooleanCQ((ConceptAtom("B", Var("x")),), (Var("x"),))]


@st.composite
def _any_proofs(draw):
    """Vertices on ids 0-4 (none for the empty proof) and edges of any
    schema, whose ids may be no vertex's."""
    ids = draw(st.lists(st.integers(0, 4), max_size=5, unique=True))
    vertices = {v: draw(st.sampled_from(_READER_LABELS)) for v in ids}
    some_id = st.integers(0, 6)
    edges = draw(st.lists(st.builds(
        ProofEdge, st.lists(some_id, max_size=3).map(tuple), some_id,
        st.sampled_from(Schema)), max_size=5))
    return ProofGraph(vertices, edges)


def _readers():
    return {"sink": lambda p: p.sink(),
            "topological_order": lambda p: p.topological_order(),
            "tree_size": tree_size,
            "measure": lambda p: measure(p, Measure.TREE_SIZE),
            "tree_unravel": tree_unravel,
            "inference_steps": inference_steps,
            "proof_to_dot": proof_to_dot}


@settings(max_examples=400, deadline=None)
@given(_any_proofs())
def test_every_reader_refuses_what_the_shape_check_refuses(p):
    """Each reader of a proof raises ValueError, with the first problem
    ``check_proof_shape`` reports, exactly when it reports one; each
    translation raises TransformError with the checker's first problem of
    shape, calculus or leaves whenever there is one.  No reader fails with
    another error."""
    ok, problems = check_proof_shape(p)
    for name, read in _readers().items():
        if ok:
            read(p)
            continue
        with pytest.raises(ValueError) as raised:
            read(p)
        assert str(raised.value) == problems[0], name
    goal = BooleanCQ((_A_OF_A,), ())
    for deriver, translate in (("sk", transform_sk_to_cq),
                               ("cq", transform_cq_to_sk)):
        found = validate_proof(p, _READER_KB, goal, deriver)[1]
        first = problems or [m for m in found
                             if m.startswith(("schema ", "leaf "))]
        try:
            translate(p, _READER_KB)
        except TransformError as exc:
            assert not first or str(exc) == first[0], deriver
        else:
            assert not first, deriver
