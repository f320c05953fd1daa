"""Ground-atom inference schemas: enumeration, checking, soundness."""

import hashlib
import json

import pytest

from hornexplain.chase import chase, skolemize
from hornexplain.deriver_sk import (DeriverError, cg_instances, check_edge,
                                    e_instances, mp_instances, saturate_kb)
from hornexplain.kb import (BooleanCQ, ConceptAtom, Const, EqAtom, RoleAtom,
                            SkolemTerm, atom_terms, make_kb, term_depth)
from hornexplain.generators import gen_el_abox, gen_hornalc_counter
from hornexplain.parser import parse_kb, serialize_document
from hornexplain.proofs import (AtomLabel, CQLabel, ConjLabel, RuleLabel,
                                Schema, format_label)

A_ = Const("a")
F0A = SkolemTerm("f_0", A_)
F1F0A = SkolemTerm("f_1", F0A)


def test_mp_instances_first_rule(ex1):
    kb, _ = ex1
    sk = skolemize(kb.tbox)
    instances = mp_instances([ConceptAtom("A", A_)], sk)
    conclusions = {i.conclusion.atom for i in instances}
    assert conclusions == {RoleAtom("r", A_, F0A), ConceptAtom("B", F0A)}
    for inst in instances:
        assert inst.schema is Schema.MP
        assert inst.premises == (AtomLabel(ConceptAtom("A", A_)),
                                 RuleLabel(sk[0]))


def test_mp_instances_two_role_body(ex1):
    kb, _ = ex1
    sk = skolemize(kb.tbox)
    atoms = [RoleAtom("s", F0A, F1F0A), RoleAtom("r", A_, F0A)]
    instances = mp_instances(atoms, [sk[2]])
    assert [i.conclusion.atom for i in instances] == [ConceptAtom("E", F0A)]


def test_mp_instances_empty_pool(ex1):
    kb, _ = ex1
    assert mp_instances([], skolemize(kb.tbox)) == []


def test_e_instances_replace_top_level():
    eq = EqAtom(F0A, Const("b"))
    atoms = [eq, ConceptAtom("A", F0A)]
    out = e_instances(atoms)
    assert [i.conclusion.atom for i in out] == [ConceptAtom("A", Const("b"))]
    assert out[0].premises == (AtomLabel(ConceptAtom("A", F0A)),
                               AtomLabel(eq))


def test_e_instances_ignore_nested_occurrences():
    eq = EqAtom(F0A, Const("b"))
    nested = RoleAtom("r", Const("c"), SkolemTerm("g", F0A))
    assert e_instances([eq, nested]) == []


def test_e_instances_empty():
    assert e_instances([]) == []


def test_cg_instances_example_sigma(ex1):
    kb, q = ex1
    atoms = {RoleAtom("r", A_, F0A), ConceptAtom("D", A_)}
    c_inst, g_inst = cg_instances(atoms, q)
    assert isinstance(c_inst.conclusion, ConjLabel)
    assert c_inst.conclusion.atoms == (RoleAtom("r", A_, F0A),
                                       RoleAtom("r", A_, F0A),
                                       ConceptAtom("D", A_))
    assert g_inst.conclusion == CQLabel(q)
    assert g_inst.premises == (c_inst.conclusion,)


def test_cg_instances_degenerate_single_atom():
    q = BooleanCQ((ConceptAtom("A", A_),), ())
    c_inst, g_inst = cg_instances({ConceptAtom("A", A_)}, q)
    assert c_inst.conclusion.atoms == (ConceptAtom("A", A_),)
    assert len(c_inst.premises) == 1
    assert g_inst.conclusion.cq.existential_vars == ()


def test_cg_instances_unmatched_goal_raises():
    q = BooleanCQ((ConceptAtom("A", A_),), ())
    with pytest.raises(DeriverError):
        cg_instances({ConceptAtom("B", A_)}, q)


def test_check_edge_accepts_every_reference_edge(ex1, ex1_reference_proof):
    kb, _ = ex1
    p = ex1_reference_proof
    for e in p.edges:
        premises = tuple(p.vertices[v] for v in e.premises)
        assert check_edge(e.schema, premises, p.vertices[e.conclusion], kb), \
            e


def test_check_edge_rejects_inconsistent_substitution(ex1):
    kb, _ = ex1
    sk = skolemize(kb.tbox)
    # rule 3 body is E(x), r(y,x): premises below disagree on x
    premises = (AtomLabel(ConceptAtom("E", F0A)),
                AtomLabel(RoleAtom("r", A_, A_)),
                RuleLabel(sk[3]))
    assert not check_edge(Schema.MP, premises,
                          AtomLabel(ConceptAtom("D", A_)), kb)


def test_check_edge_rejects_generalizing_into_wrong_constant(ex1):
    kb, q = ex1
    wrong = ConjLabel((RoleAtom("r", Const("b"), F0A),
                       RoleAtom("r", A_, F0A), ConceptAtom("D", A_)))
    # the first query atom fixes the constant a, not b
    assert not check_edge(Schema.G, (wrong,), CQLabel(q), kb)


def test_mp_soundness_against_the_chase(ex1):
    """Every enumerated rule application is entailed by its premises."""
    kb, _ = ex1
    sk = skolemize(kb.tbox)
    state = chase(kb, 2)
    for inst in mp_instances(state.atoms, sk):
        premise_atoms = [lab.atom for lab in inst.premises[:-1]]
        rule_label = inst.premises[-1].rule
        little = make_kb([kb.tbox[rule_label.index]], [])
        # chase the premises alone under just that rule
        little = make_kb([kb.tbox[rule_label.index]], premise_atoms) \
            if all(all(not isinstance(t, SkolemTerm)
                       for t in atom_terms(a)) for a in premise_atoms) \
            else None
        if little is None:
            continue  # premises with Skolem terms are not legal facts
        deeper = chase(little, 1 + max(
            term_depth(t) for a in premise_atoms for t in atom_terms(a)))
        assert inst.conclusion.atom in deeper.atoms


def test_mp_changes_depth_by_at_most_one(ex1):
    kb, _ = ex1
    sk = skolemize(kb.tbox)
    state = chase(kb, 3)
    for inst in mp_instances(state.atoms, sk):
        premise_depth = max((term_depth(t) for lab in inst.premises[:-1]
                             for t in atom_terms(lab.atom)), default=0)
        concl_depth = max(term_depth(t)
                          for t in atom_terms(inst.conclusion.atom))
        assert abs(concl_depth - premise_depth) <= 1


def test_e_never_increases_depth():
    eq = EqAtom(F1F0A, Const("b"))
    atoms = [eq, ConceptAtom("A", F1F0A), RoleAtom("r", F1F0A, F1F0A)]
    for inst in e_instances(atoms):
        before = max(term_depth(t)
                     for t in atom_terms(inst.premises[0].atom))
        after = max(term_depth(t)
                    for t in atom_terms(inst.conclusion.atom))
        assert after <= before


def test_saturation_covers_the_chase(ex1):
    """Completeness at the bound: every chase atom is derivable."""
    kb, _ = ex1
    state = chase(kb, 2)
    structure = saturate_kb(kb, 2)
    for atom in state.atoms:
        assert structure.has_atom(atom)


_NOMINAL_KB = """\
rule: A(x) -> exists y. r(x,y), B(y)
rule: B(x) -> x = b
rule: r(x,y), B(y) -> C(x)
rule: C(x) -> exists y. s(x,y)
fact: A(a)
fact: D(b)
"""


def _structure_digest(structure) -> tuple[int, int, str]:
    """Vertex and edge counts, and the sha256 of the vertices, the edges in
    order and the sorted frontier."""
    text = json.dumps([
        [[vid, format_label(label)]
         for vid, label in structure.vertices.items()],
        [[list(e.premises), e.conclusion, e.schema.value]
         for e in structure.edges],
        sorted(structure.frontier)])
    return (len(structure.vertices), len(structure.edges),
            hashlib.sha256(text.encode()).hexdigest())


@pytest.mark.parametrize("kb, depth, replaces, expected", [
    (gen_el_abox(40).kb, 0, False, (
        204, 120,
        "232668e97262825d1be553539050535f0ca350fe8ffd994cb253ecd28f77ceb1")),
    (gen_hornalc_counter(1).kb, 4, False, (
        154, 168,
        "8f30933ab8d53494c6560110d419918a05f23da291b01d47eda98133b9fc13cc")),
    (parse_kb(_NOMINAL_KB), 2, True, (
        14, 9,
        "58269f2b0fc88d87c1190edb5d83050a723ef203de04124c90852a81b80b83f3")),
    # equalities appear round after round, inside and outside the frontier
    (parse_kb(serialize_document(gen_el_abox(30).kb)
              + "rule: N1(x) -> x = b\nfact: C(b)\n"), 0, True, (
        310, 566,
        "bfc184f8f1e195200d324e2ea53fa6d0869c0f20c8533a1400469699568b6a73")),
], ids=["el-abox-40", "hornalc-counter-1", "nominal", "el-abox-30-nominal"])
def test_saturated_structures_are_pinned(kb, depth, replaces, expected):
    """Proof vertex ids follow structure vertex ids, so an optimization of
    the fixpoint must keep vertex ids, edge order and the frontier."""
    structure = saturate_kb(kb, depth)
    assert _structure_digest(structure) == expected
    assert any(e.schema is Schema.E for e in structure.edges) == replaces
