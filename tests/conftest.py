"""Shared fixtures: the running example and hand-built reference proofs."""

import pytest

from hornexplain.kb import (BooleanCQ, ConceptAtom, Const, RoleAtom,
                            SkolemTerm, Var, skolemize)
from hornexplain.parser import parse_document
from hornexplain.proofs import (AtomLabel, CQLabel, ConjLabel, ProofEdge,
                                ProofGraph, RuleLabel, Schema, TautRule)

EX1_TEXT = """\
# running example: four rules, one fact, one query
rule: A(x) -> exists y. r(x,y), B(y)
rule: B(x) -> exists z. s(x,z), A(z)
rule: s(x,y), r(z,x) -> E(x)
rule: E(x), r(y,x) -> D(y)
fact: A(a)
query: exists xp, y. r(a,y), r(xp,y), D(xp)
"""


@pytest.fixture(scope="session")
def ex1():
    doc = parse_document(EX1_TEXT)
    return doc.kb, doc.queries[0]


@pytest.fixture(scope="session")
def ex1_reference_proof(ex1):
    """The published proof of the running example, transcribed by hand.

    Twelve vertices: the fact, four rule leaves, five derived atoms, the
    conjunction, and the goal.  The role atom r(a, f_0(a)) feeds three
    inferences and appears twice among the conjunction's premises.
    """
    kb, q = ex1
    sk = skolemize(kb.tbox)
    fa = Const("a")
    f0a = SkolemTerm("f_0", fa)
    f1f0a = SkolemTerm("f_1", f0a)
    r_atom = RoleAtom("r", fa, f0a)
    b_atom = ConceptAtom("B", f0a)
    s_atom = RoleAtom("s", f0a, f1f0a)
    e_atom = ConceptAtom("E", f0a)
    d_atom = ConceptAtom("D", fa)
    vertices = {
        0: AtomLabel(ConceptAtom("A", fa)),
        1: RuleLabel(sk[0]),
        2: AtomLabel(r_atom),
        3: AtomLabel(b_atom),
        4: RuleLabel(sk[1]),
        5: AtomLabel(s_atom),
        6: RuleLabel(sk[2]),
        7: AtomLabel(e_atom),
        8: RuleLabel(sk[3]),
        9: AtomLabel(d_atom),
        10: ConjLabel((r_atom, r_atom, d_atom)),
        11: CQLabel(q),
    }
    edges = [
        ProofEdge((0, 1), 2, Schema.MP),
        ProofEdge((0, 1), 3, Schema.MP),
        ProofEdge((3, 4), 5, Schema.MP),
        ProofEdge((5, 2, 6), 7, Schema.MP),
        ProofEdge((7, 2, 8), 9, Schema.MP),
        ProofEdge((2, 2, 9), 10, Schema.C),
        ProofEdge((10,), 11, Schema.G),
    ]
    return ProofGraph(vertices, edges)


@pytest.fixture(scope="session")
def ex1_reference_cq_proof(ex1):
    """The published query-level proof, transcribed by hand.

    A chain of four rule applications from the fact to
    "exists y. r(a,y) and D(a)", finished by a tautology that duplicates
    the r-atom with a fresh variable.
    """
    kb, q = ex1
    xp, y, u = Var("xp"), Var("y"), Var("u1")
    ca = Const("a")
    cq = lambda atoms, evars: CQLabel(BooleanCQ(tuple(atoms), tuple(evars)))
    taut = TautRule(
        (RoleAtom("r", Var("x2"), Var("y2")), ConceptAtom("D", Var("x2"))),
        (RoleAtom("r", Var("xp"), Var("y2")), ConceptAtom("D", Var("xp"))),
        (Var("xp"),))
    vertices = {
        0: cq([ConceptAtom("A", ca)], []),
        1: RuleLabel(kb.tbox[0]),
        2: cq([RoleAtom("r", ca, y), ConceptAtom("B", y)], [y]),
        3: RuleLabel(kb.tbox[1]),
        4: cq([RoleAtom("r", ca, y), RoleAtom("s", y, u)], [y, u]),
        5: RuleLabel(kb.tbox[2]),
        6: cq([RoleAtom("r", ca, y), ConceptAtom("E", y)], [y]),
        7: RuleLabel(kb.tbox[3]),
        8: cq([RoleAtom("r", ca, y), ConceptAtom("D", ca)], [y]),
        9: RuleLabel(taut),
        10: cq([RoleAtom("r", ca, y), RoleAtom("r", xp, y),
                ConceptAtom("D", xp)], [y, xp]),
    }
    edges = [
        ProofEdge((0, 1), 2, Schema.MPe),
        ProofEdge((2, 3), 4, Schema.MPe),
        ProofEdge((4, 5), 6, Schema.MPe),
        ProofEdge((6, 7), 8, Schema.MPe),
        ProofEdge((), 9, Schema.Te),
        ProofEdge((8, 9), 10, Schema.MPe),
    ]
    return ProofGraph(vertices, edges)
