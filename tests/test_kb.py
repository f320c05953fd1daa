"""Vocabulary, parsing, fragments, and query shape."""

import copy
import gc
import pickle
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hornexplain import kb as kb_module
from hornexplain.generators import (gen_dllite_chain, gen_el_abox,
                                    gen_hornalc_counter)
from hornexplain.kb import (BooleanCQ, ConceptAtom, Const, EqAtom, Fragment,
                            KBError, NormalForm, RoleAtom, SkolemTerm, Var,
                            detect_fragment, format_atom, gaifman_graph,
                            is_tree_shaped, make_rule, map_atom_terms,
                            substitute_atom)
from hornexplain.parser import (KBSyntaxError, parse_atom_text,
                                parse_document, parse_kb, serialize_document,
                                normalize_document_text)


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
    rule, = parse_kb("rule: r1(x,y) -> r2(x,y)\n").tbox
    assert Fragment.EL not in rule.fragments
    assert Fragment.DLLiteR in rule.fragments


def test_parsing_classifies_each_rule_once():
    inst = gen_dllite_chain(30)
    text = serialize_document(inst.kb, [inst.query])
    code = kb_module.classify_rule.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(event)

    sys.setprofile(profile)
    try:
        doc = parse_document(text)
    finally:
        sys.setprofile(None)
    assert len(calls) == len(doc.kb.tbox) > 0
    assert doc.kb.fragment is Fragment.DLLiteR


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


# ---------------------------------------------------------------------------
# Hash-consing: one live object per term or atom value
# ---------------------------------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "c_1", "a_0"])
_FNS = st.sampled_from(["f_0", "f_1", "g"])


def _fresh(name: str) -> str:
    """An equal string that is a different object, where Python allows."""
    return "".join(list(name))


@st.composite
def _terms(draw, ground=False):
    """A constant or variable under a chain of Skolem functions, as
    (base kind, base name, functions from the inside out)."""
    kind = "const" if ground else draw(st.sampled_from(["const", "var"]))
    return kind, draw(_NAMES), draw(st.lists(_FNS, max_size=4))


def _build(spec):
    """The term of a spec, built bottom-up from fresh strings."""
    kind, name, fns = spec
    t = (Const if kind == "const" else Var)(_fresh(name))
    for fn in fns:
        t = SkolemTerm(_fresh(fn), t)
    return t


def _atoms(terms):
    return st.one_of(
        st.builds(lambda c, t: ConceptAtom(c, _build(t)),
                  st.sampled_from(["A", "B_2"]), terms),
        st.builds(lambda r, s, t: RoleAtom(r, _build(s), _build(t)),
                  st.sampled_from(["r", "s"]), terms, terms),
        st.builds(lambda s, t: EqAtom(_build(s), _build(t)), terms, terms))


@settings(max_examples=150, deadline=None)
@given(_atoms(_terms()))
def test_equal_atoms_are_one_object(atom):
    terms = {"ConceptAtom": ("term",), "RoleAtom": ("subj", "obj"),
             "EqAtom": ("lhs", "rhs")}[type(atom).__name__]
    args = [_fresh(a) if isinstance(a, str) else a
            for a in (getattr(atom, n) for n in atom._fields)]
    assert type(atom)(*args) is atom
    assert map_atom_terms(atom, lambda t: t) is atom
    assert parse_atom_text(format_atom(atom)) is atom
    assert copy.deepcopy(atom) is atom
    assert pickle.loads(pickle.dumps(atom)) is atom
    for name in terms:
        t = getattr(atom, name)
        while isinstance(t, SkolemTerm):
            assert SkolemTerm(_fresh(t.fn), t.arg) is t
            t = t.arg
        assert type(t)(_fresh(t.name)) is t


# The order as it was defined before values carried their keys and depths,
# frozen: every index list, search tie and proof numbering reads it, so the
# keys the values carry must stay these, bit for bit.

def _reference_term_key(t):
    if isinstance(t, Const):
        return (0, t.name)
    if isinstance(t, Var):
        return (2, t.name)
    key: list = []
    while isinstance(t, SkolemTerm):
        key += (1, t.fn)
        t = t.arg
    return tuple(key) + _reference_term_key(t)


def _reference_atom_key(a):
    if isinstance(a, ConceptAtom):
        return ("C", a.concept, _reference_term_key(a.term))
    if isinstance(a, RoleAtom):
        return ("R", a.role, _reference_term_key(a.subj),
                _reference_term_key(a.obj))
    return ("=", _reference_term_key(a.lhs), _reference_term_key(a.rhs))


def _reference_term_depth(t):
    d = 0
    while isinstance(t, SkolemTerm):
        d += 1
        t = t.arg
    return d


@settings(max_examples=100, deadline=None)
@given(st.lists(_atoms(_terms()), min_size=1, max_size=12), st.randoms())
def test_values_carry_the_reference_keys_and_depths(atoms, rnd):
    for atom in atoms:
        assert atom.key == kb_module.atom_key(atom) \
            == _reference_atom_key(atom)
        for t in kb_module.atom_terms(atom):
            while True:
                assert t.depth == kb_module.term_depth(t) \
                    == _reference_term_depth(t)
                assert kb_module.term_key(t) == _reference_term_key(t)
                if not isinstance(t, SkolemTerm):
                    break
                t = t.arg
    rnd.shuffle(atoms)
    assert sorted(atoms, key=kb_module.atom_key) == \
        sorted(atoms, key=_reference_atom_key)


@settings(max_examples=100, deadline=None)
@given(_terms(ground=True), _terms(ground=True), st.lists(_FNS, max_size=3))
def test_substitution_meets_direct_construction(s_spec, o_spec, fns):
    """A pattern instantiated by substitution is the atom built directly
    from the same terms."""
    x, y = Var("x"), Var("y")
    pattern_obj = y
    for fn in fns:
        pattern_obj = SkolemTerm(fn, pattern_obj)
    s, o = _build(s_spec), _build(o_spec)
    got = substitute_atom(RoleAtom("r", x, pattern_obj), {x: s, y: o})
    direct = o
    for fn in fns:
        direct = SkolemTerm(fn, direct)
    assert got is RoleAtom("r", s, direct)
    assert substitute_atom(ConceptAtom("A", x), {x: s}) is ConceptAtom("A", s)


def test_generators_build_the_same_objects():
    for first, second in ((gen_el_abox(5), gen_el_abox(5)),
                          (gen_hornalc_counter(1), gen_hornalc_counter(1))):
        assert first.kb.abox == second.kb.abox
        assert all(a is b for a, b in zip(first.kb.abox, second.kb.abox))
        for r1, r2 in zip(first.kb.tbox, second.kb.tbox):
            assert all(a is b for a, b in zip(r1.body + r1.head,
                                              r2.body + r2.head))
        assert first.query.atoms[0] is second.query.atoms[0]


def test_terms_and_atoms_are_immutable():
    t = SkolemTerm("f", Const("a"))
    values = [Const("a"), Var("x"), t, ConceptAtom("A", t),
              RoleAtom("r", t, Var("x")), EqAtom(t, Const("a"))]
    for value in values:
        name = value.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, "b")
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
    assert [repr(v) for v in values] == [
        "a", "?x", "f(a)", "ConceptAtom(concept='A', term=f(a))",
        "RoleAtom(role='r', subj=f(a), obj=?x)", "EqAtom(lhs=f(a), rhs=a)"]


def test_unreferenced_values_leave_their_tables():
    name = _fresh("only_in_this_test")
    atom = RoleAtom("r_only_here", SkolemTerm("g_only_here", Const(name)),
                    Var(name))
    assert (name,) in Const._table and (name,) in Var._table
    del atom
    gc.collect()
    assert (name,) not in Const._table and (name,) not in Var._table
    assert not any(k[0] == "g_only_here" for k in SkolemTerm._table)
    assert not any(k[0] == "r_only_here" for k in RoleAtom._table)


def test_threads_building_one_value_get_one_object():
    """More threads than cores race to intern the same fresh values."""
    n_threads, n_values = 4, 2000
    barrier = threading.Barrier(n_threads)
    results: list[list] = [[] for _ in range(n_threads)]

    def build(out: list) -> None:
        barrier.wait()
        for i in range(n_values):
            name = _fresh(f"raced_{i}")
            out.append(ConceptAtom("Raced", SkolemTerm("g", Const(name))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,))
                   for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == n_values for out in results)
    for built in zip(*results):
        assert all(b is built[0] for b in built)


def test_format_term_stops_at_a_known_term():
    inner = SkolemTerm("g", Const("a"))
    term = SkolemTerm("f", inner)
    texts = {inner: "known"}
    assert kb_module.format_term(term, texts) == "f(known)"
    assert texts == {inner: "known", term: "f(known)"}
    assert kb_module.format_term(term) == repr(term) == "f(g(a))"
    assert kb_module.format_term(SkolemTerm("f", Var("x"))) == "f(?x)"


def test_terms_nested_5000_deep_need_no_recursion():
    """Formatting, ordering and substituting walk a term iteratively.  A
    term's memory does not grow with its depth: building both chains takes
    about 3 MiB, where a flat order key kept on every term took 385 MiB."""
    a, x = Const("a"), Var("x")
    deep, pattern = a, x
    tracemalloc.start()
    try:
        for i in range(5000):
            deep = SkolemTerm(f"f_{i % 2}", deep)
            pattern = SkolemTerm(f"f_{i % 2}", pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert deep.depth == pattern.depth == 5000
    text = kb_module.format_term(deep)
    assert text.startswith("f_1(f_0(") and text.endswith("(a" + ")" * 5000)
    assert kb_module.term_key(deep) == (1, "f_1", 1, "f_0") * 2500 + (0, "a")
    assert kb_module.substitute_term(pattern, {x: a}) is deep
    assert format_atom(substitute_atom(ConceptAtom("A", pattern), {x: a})) \
        == f"A({text})"
