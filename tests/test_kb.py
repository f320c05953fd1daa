"""Vocabulary, parsing, fragments, and query shape."""

import pytest
from hypothesis import given, settings, strategies as st

from hornexplain.kb import (BooleanCQ, ConceptAtom, Const, Fragment, KBError,
                            NormalForm, RoleAtom, Var, detect_fragment,
                            gaifman_graph, is_tree_shaped, make_rule)
from hornexplain.parser import (KBSyntaxError, parse_document, parse_kb,
                                serialize_document, normalize_document_text)


def test_example_kb_parses(ex1):
    kb, q = ex1
    assert kb.fragment == Fragment.HornALCHOI
    assert len(kb.tbox) == 4
    assert len(kb.abox) == 1
    forms = [r.normal_form for r in kb.tbox]
    assert forms == [NormalForm.IV, NormalForm.IV, NormalForm.II,
                     NormalForm.III]


def test_empty_tbox_is_dl_lite():
    kb = parse_kb("fact: A(a)\n")
    assert kb.fragment == Fragment.DLLiteR
    assert kb.tbox == ()


def test_two_atom_concept_head_rejected():
    with pytest.raises(KBSyntaxError, match="normal form"):
        parse_kb("rule: A(x) -> B(x), C(x)\n")


def test_bot_is_a_hard_error():
    with pytest.raises(KBSyntaxError, match="bot"):
        parse_kb("rule: A(x) -> bot(x)\n")


def test_syntax_error_carries_position():
    with pytest.raises(KBSyntaxError) as err:
        parse_kb("fact: A(a)\nrule: A(x) ->\n")
    assert err.value.line == 2


def test_name_spaces_are_disjoint():
    with pytest.raises(KBSyntaxError, match="concept and a role"):
        parse_kb("rule: A(x) -> B(x)\nfact: A(a,b)\n")
    with pytest.raises(KBSyntaxError, match="predicate and an individual"):
        parse_kb("fact: A(a)\nfact: a(b)\n")


def test_fragment_detection_examples():
    x, y = Var("x"), Var("y")
    sub = make_rule([ConceptAtom("A", x)], [ConceptAtom("B", x)])
    assert detect_fragment([sub]) == Fragment.DLLiteR

    qualified = make_rule([RoleAtom("r", x, y), ConceptAtom("A", y)],
                          [ConceptAtom("B", x)])
    assert detect_fragment([qualified]) == Fragment.EL

    value_restr = make_rule([ConceptAtom("A", x), RoleAtom("r", x, y)],
                            [ConceptAtom("B", y)])
    assert detect_fragment([value_restr]) == Fragment.HornALC

    nominal = parse_kb("rule: A(x) -> x = a\n").tbox[0]
    assert nominal.normal_form == NormalForm.VI
    assert detect_fragment([nominal]) == Fragment.HornALCHOI


def test_unqualified_existentials_stay_dl_lite():
    kb = parse_kb("rule: A(x) -> exists y. r(x,y)\n"
                  "rule: r(x,y) -> B(x)\n"
                  "rule: r(x,y) -> C(y)\n"          # inverse pattern
                  "rule: r1(x,y) -> r2(y,x)\n"      # inverse role inclusion
                  "fact: A(a)\n")
    assert kb.fragment == Fragment.DLLiteR


def test_inverse_canonicalization_round_trips():
    kb = parse_kb("rule: r-(x,y), A(y) -> B(x)\nfact: r(b,a)\n")
    rule = kb.tbox[0]
    role_atoms = [a for a in rule.body if isinstance(a, RoleAtom)]
    assert role_atoms == [RoleAtom("r", Var("y"), Var("x"))]
    text = serialize_document(kb)
    assert parse_kb(text) == kb


def test_parse_serialize_round_trip(ex1):
    kb, q = ex1
    doc = parse_document(serialize_document(kb, [q]))
    assert doc.kb == kb
    assert doc.queries == (q,)


def test_expected_fragment_rejects_inverse_roles():
    with pytest.raises(KBError, match="not expressible"):
        parse_kb("rule: r1(x,y) -> r2(x,y)\n", expect_fragment=Fragment.EL)
    parse_kb("rule: r1(x,y) -> r2(x,y)\n", expect_fragment=Fragment.DLLiteR)


_RULE_POOL_TEXT = [
    "rule: A(x) -> B(x)",
    "rule: A(x), B(x) -> C(x)",
    "rule: r(x,y), A(y) -> B(x)",
    "rule: A(x) -> exists y. r(x,y), B(y)",
    "rule: A(x), r(x,y) -> B(y)",
    "rule: A(x) -> x = a",
    "rule: r1(x,y) -> r2(x,y)",
    "rule: A(x) -> exists y. r(x,y)",
    "rule: s(x,y), r(z,x) -> E(x)",
]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_RULE_POOL_TEXT), min_size=0, max_size=6))
def test_fragment_monotone_under_rule_addition(lines):
    order = {f: i for i, f in enumerate(
        (Fragment.DLLiteR, Fragment.EL, Fragment.HornALC,
         Fragment.HornALCHOI))}
    last = 0
    for i in range(len(lines) + 1):
        kb = parse_kb("\n".join(lines[:i]) + "\n")
        assert order[kb.fragment] >= last
        last = order[kb.fragment]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_RULE_POOL_TEXT), min_size=0, max_size=5,
                unique=True),
       st.lists(st.sampled_from(["fact: A(a)", "fact: B(b)", "fact: r(a,b)",
                                 "fact: s(b,a)", "fact: C(a)"]),
                min_size=1, max_size=4, unique=True))
def test_round_trip_is_identity_on_random_kbs(rule_lines, fact_lines):
    text = "\n".join(rule_lines + fact_lines) + "\n"
    kb = parse_kb(text)
    assert parse_kb(serialize_document(kb)) == kb


def test_each_example_rule_fits_the_largest_fragment(ex1):
    kb, _ = ex1
    for rule in kb.tbox:
        assert detect_fragment([rule]) in (
            Fragment.DLLiteR, Fragment.EL, Fragment.HornALC,
            Fragment.HornALCHOI)


def test_gaifman_graph_of_the_example(ex1):
    _, q = ex1
    adj = gaifman_graph(q)
    ca, xp, y = Const("a"), Var("xp"), Var("y")
    assert set(adj) == {ca, xp, y}
    assert adj[y] == {ca, xp}
    assert adj[ca] == {y}
    assert adj[xp] == {y}
    assert is_tree_shaped(q)


def test_single_atom_query_is_a_tree():
    q = BooleanCQ((ConceptAtom("A", Var("x")),), (Var("x"),))
    assert gaifman_graph(q) == {Var("x"): set()}
    assert is_tree_shaped(q)


def test_triangle_query_is_cyclic():
    x, y, z = Var("x"), Var("y"), Var("z")
    q = BooleanCQ((RoleAtom("r", x, y), RoleAtom("r", y, z),
                   RoleAtom("r", z, x)), (x, y, z))
    assert not is_tree_shaped(q)


def test_disconnected_query_is_not_a_tree():
    q = BooleanCQ((ConceptAtom("A", Var("x")), ConceptAtom("B", Var("y"))),
                  (Var("x"), Var("y")))
    assert not is_tree_shaped(q)


def test_normalize_splits_heads_and_wide_bodies():
    text = ("rule: A(x) -> B(x), C(x)\n"
            "rule: r(x,y), B(y), s(x,z), C(z) -> D(x)\n"
            "fact: A(a)\n")
    normalized = normalize_document_text(text)
    kb = parse_kb(normalized)
    assert all(r.normal_form is not None for r in kb.tbox)
    # fresh names appear and the original predicates survive
    assert "N1" in normalized
    assert "fact: A(a)" in normalized


def test_normalize_rejects_what_the_parser_rejects():
    for text in ("rule: A(x) B(x) -> C(x)\n",
                 "rule: A(x) -> exists x. r(x,x)\n"):
        with pytest.raises(KBSyntaxError):
            parse_document(text)
        with pytest.raises(KBSyntaxError):
            normalize_document_text(text)
