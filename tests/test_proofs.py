"""Proof hypergraphs: validation, measures, unraveling, JSON."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hornexplain.kb import BooleanCQ, ConceptAtom, Const
from hornexplain.proofs import (AtomLabel, Measure, ProofEdge,
                                ProofGraph, Schema, check_proof_shape,
                                domain_size, format_json, inference_steps,
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
    a1 = AtomLabel(ConceptAtom("A", Const("a")))
    a2 = AtomLabel(ConceptAtom("B", Const("a")))
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
    assert measure(p, Measure.DOMAIN_SIZE).value == 3


def test_single_fact_proof_measures():
    p = ProofGraph({0: AtomLabel(ConceptAtom("A", Const("a")))}, [])
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
    uses = t.premise_occurrences()
    assert all(n <= 1 for n in uses.values())
    # and the canonical map back onto the original exists
    assert _homomorphism(t, p) is not None


def test_unravel_of_a_tree_is_an_isomorphic_copy():
    fact = AtomLabel(ConceptAtom("A", Const("a")))
    mid = AtomLabel(ConceptAtom("B", Const("a")))
    p = ProofGraph({0: fact, 1: mid}, [ProofEdge((0,), 1, Schema.MP)])
    t = tree_unravel(p)
    assert proof_size(t) == proof_size(p)
    assert _homomorphism(t, p) is not None and _homomorphism(p, t) is not None


def test_unravel_duplicates_shared_premises():
    fact = AtomLabel(ConceptAtom("A", Const("a")))
    mid1 = AtomLabel(ConceptAtom("B", Const("a")))
    mid2 = AtomLabel(ConceptAtom("C", Const("a")))
    top = AtomLabel(ConceptAtom("D", Const("a")))
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


_JSON_SCALARS = (st.none() | st.booleans()
                 | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
                 | st.text(alphabet=st.characters(), max_size=8)
                 | st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "é",
                                    "\U0001f600", " "]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_the_stdlib(value):
    assert format_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_reproduces_every_golden_file():
    for path in sorted(GOLDEN.glob("*.json")):
        text = path.read_text()
        assert format_json(json.loads(text)) + "\n" == text, path.name


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": {2}},
                                   [object()]])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        format_json(value)
