"""Ground-atom inference schemas: the saturation's edges, checking,
soundness."""

import hashlib
import json
import random

import pytest

from hornexplain import deriver_sk, matching
from hornexplain.chase import chase
from hornexplain.compress import dp_min_tree, extract_witness, fold
from hornexplain.deriver_cq import check_edge_labels
from hornexplain.deriver_sk import (BudgetExceeded, FiniteStructure, Ticker,
                                    _replacements, edge_key, saturate,
                                    saturate_kb)
from hornexplain.kb import (ATOM_TYPES, BooleanCQ, ConceptAtom, Const, EqAtom,
                            KBError, NormalForm, RoleAtom, SkolemRule,
                            SkolemTerm, Var, atom_key, atom_pred, atom_terms,
                            make_kb, skolemize, substitute_atom, term_depth)
from hornexplain.generators import (gen_dllite_chain, gen_dllite_tree_query,
                                    gen_el_abox, gen_el_tree,
                                    gen_hornalc_counter, gen_sat, gen_sat_cq)
from hornexplain.matching import match_conjunction, unify_atom
from hornexplain.parser import parse_kb, serialize_document
from hornexplain.proofs import Schema, format_label, label_key

from test_chase import _random_kb

A_ = Const("a")
F0A = SkolemTerm("f_0", A_)
F1F0A = SkolemTerm("f_1", F0A)


def _steps(structure, schema, kb=None):
    """(premise labels, conclusion label) of the structure's edges of one
    schema, in edge order; each edge is checked against its schema."""
    out = []
    for e in structure.edges:
        if e.schema is not schema:
            continue
        premises = tuple(structure.vertices[p] for p in e.premises)
        conclusion = structure.vertices[e.conclusion]
        if kb is not None:
            assert check_edge_labels(schema, premises, conclusion, kb) is None
        out.append((premises, conclusion))
    return out


def _within(labels, depth):
    return all(term_depth(t) <= depth for lab in labels
               if isinstance(lab, ATOM_TYPES) for t in atom_terms(lab))


def test_mp_instances_first_rule(ex1):
    kb, _ = ex1
    sk = skolemize(kb.tbox)
    premises = (ConceptAtom("A", A_), sk[0])
    steps = _steps(saturate_kb(kb, 1), Schema.MP, kb)
    assert {c for p, c in steps if p == premises} \
        == {RoleAtom("r", A_, F0A), ConceptAtom("B", F0A)}


def test_mp_instances_two_role_body(ex1):
    kb, _ = ex1
    sk = skolemize(kb.tbox)
    atoms = [RoleAtom("s", F0A, F1F0A), RoleAtom("r", A_, F0A)]
    steps = _steps(saturate(atoms, [sk[2]], 2), Schema.MP)
    assert [c for _, c in steps] == [ConceptAtom("E", F0A)]


def test_mp_instances_empty_pool(ex1):
    kb, _ = ex1
    assert saturate([], skolemize(kb.tbox), 2).edges == []


def test_e_instances_replace_top_level():
    eq = EqAtom(F0A, Const("b"))
    steps = _steps(saturate([eq, ConceptAtom("A", F0A)], [], 1), Schema.E)
    assert steps == [((ConceptAtom("A", F0A), eq),
                      ConceptAtom("A", Const("b")))]


def test_e_instances_ignore_nested_occurrences():
    eq = EqAtom(F0A, Const("b"))
    nested = RoleAtom("r", Const("c"), SkolemTerm("g", F0A))
    assert saturate([eq, nested], [], 2).edges == []


def test_e_instances_empty():
    assert saturate([], [], 0).edges == []


def _goal_tail(structure, q, sigma, strict_cg=False):
    """The C and G steps of the witness of ``q`` under ``sigma``."""
    targets = [structure.atom_ids[substitute_atom(a, sigma)]
               for a in q.atoms]
    proof = extract_witness(structure, dp_min_tree(structure)[1], targets,
                            q, strict_cg)
    return {e.schema: (tuple(proof.vertices[p] for p in e.premises),
                       proof.vertices[e.conclusion])
            for e in proof.edges if e.schema in (Schema.C, Schema.G)}


def test_cg_instances_example_sigma(ex1):
    kb, q = ex1
    tail = _goal_tail(saturate_kb(kb, 2), q, {Var("xp"): A_, Var("y"): F0A})
    c_premises, conj = tail[Schema.C]
    assert isinstance(conj, tuple)
    assert conj == (RoleAtom("r", A_, F0A), RoleAtom("r", A_, F0A),
                    ConceptAtom("D", A_))
    assert tail[Schema.G] == ((conj,), q)
    for schema, (premises, conclusion) in tail.items():
        assert check_edge_labels(schema, premises, conclusion, kb) is None


def test_cg_instances_degenerate_single_atom():
    kb = parse_kb("fact: A(a)\n")
    q = BooleanCQ((ConceptAtom("A", A_),), ())
    tail = _goal_tail(saturate_kb(kb, 0), q, {}, strict_cg=True)
    (c_premises, conj), (g_premises, goal) = tail[Schema.C], tail[Schema.G]
    assert conj == (ConceptAtom("A", A_),) and len(c_premises) == 1
    assert goal.existential_vars == ()
    for schema, (premises, conclusion) in tail.items():
        assert check_edge_labels(schema, premises, conclusion, kb) is None


def test_cg_instances_unmatched_goal_raises():
    structure = saturate_kb(parse_kb("rule: B(x) -> A(x)\nfact: B(a)\n"), 0)
    goal = structure.atom_ids[ConceptAtom("A", A_)]
    with pytest.raises(KBError, match="not derivable"):
        extract_witness(structure, {}, [goal])


def test_check_edge_accepts_every_reference_edge(ex1, ex1_reference_proof):
    kb, _ = ex1
    p = ex1_reference_proof
    for e in p.edges:
        premises = tuple(p.vertices[v] for v in e.premises)
        assert check_edge_labels(e.schema, premises, p.vertices[e.conclusion],
                                 kb) is None, e


def test_check_edge_rejects_inconsistent_substitution(ex1):
    kb, _ = ex1
    sk = skolemize(kb.tbox)
    # rule 3 body is E(x), r(y,x): premises below disagree on x
    premises = (ConceptAtom("E", F0A), RoleAtom("r", A_, A_), sk[3])
    assert check_edge_labels(Schema.MP, premises,
                             ConceptAtom("D", A_), kb) is not None


def test_check_edge_rejects_generalizing_into_wrong_constant(ex1):
    kb, q = ex1
    wrong = (RoleAtom("r", Const("b"), F0A), RoleAtom("r", A_, F0A),
             ConceptAtom("D", A_))
    # the first query atom fixes the constant a, not b
    assert check_edge_labels(Schema.G, (wrong,), q, kb) is not None


def test_mp_soundness_against_the_chase(ex1):
    """Every rule application over the depth-2 atoms is entailed by its
    premises."""
    kb, _ = ex1
    # one depth deeper, so every such application is an edge
    for premises, conclusion in _steps(saturate_kb(kb, 3), Schema.MP, kb):
        if not _within(premises, 2):
            continue
        premise_atoms = list(premises[:-1])
        if not all(all(not isinstance(t, SkolemTerm) for t in atom_terms(a))
                   for a in premise_atoms):
            continue  # premises with Skolem terms are not legal facts
        # chase the premises alone under just that rule
        little = make_kb([kb.tbox[premises[-1].index]], premise_atoms)
        deeper = chase(little, 1 + max(
            term_depth(t) for a in premise_atoms for t in atom_terms(a)))
        assert conclusion in deeper.atoms


def test_mp_changes_depth_by_at_most_one(ex1):
    kb, _ = ex1
    for premises, conclusion in _steps(saturate_kb(kb, 4), Schema.MP):
        if not _within(premises, 3):
            continue
        premise_depth = max((term_depth(t) for lab in premises[:-1]
                             for t in atom_terms(lab)), default=0)
        concl_depth = max(term_depth(t) for t in atom_terms(conclusion))
        assert abs(concl_depth - premise_depth) <= 1


def test_e_never_increases_depth():
    eq = EqAtom(F1F0A, Const("b"))
    atoms = [eq, ConceptAtom("A", F1F0A), RoleAtom("r", F1F0A, F1F0A)]
    steps = _steps(saturate(atoms, [], 2), Schema.E)
    assert steps
    for premises, conclusion in steps:
        before = max(term_depth(t) for t in atom_terms(premises[0]))
        after = max(term_depth(t) for t in atom_terms(conclusion))
        assert after <= before


def test_saturation_covers_the_chase(ex1):
    """Completeness at the bound: every chase atom is derivable."""
    kb, _ = ex1
    state = chase(kb, 2)
    structure = saturate_kb(kb, 2)
    for atom in state.atoms:
        assert atom in structure.atom_ids


_NOMINAL_KB = """\
rule: A(x) -> exists y. r(x,y), B(y)
rule: B(x) -> x = b
rule: r(x,y), B(y) -> C(x)
rule: C(x) -> exists y. s(x,y)
fact: A(a)
fact: D(b)
"""


def _labelled(structure):
    """The atoms, the edges, the frontier and ``complete`` as labels: the
    structure as it stands whatever order its vertices were numbered in."""
    def text(vid):
        return format_label(structure.vertices[vid])

    return (sorted(map(format_label, structure.vertices.values())),
            sorted((tuple(map(text, e.premises)), text(e.conclusion),
                    e.schema.value) for e in structure.edges),
            sorted(tuple(map(text, premises))
                   for premises in structure.frontier),
            structure.complete)


def _structure_digest(structure) -> tuple[int, int, str]:
    """Vertex and edge counts, and the sha256 of :func:`_labelled`."""
    text = json.dumps(_labelled(structure))
    return (len(structure.vertices), len(structure.edges),
            hashlib.sha256(text.encode()).hexdigest())


@pytest.mark.parametrize("kb, depth, replaces, expected", [
    (gen_el_abox(40).kb, 0, False, (
        204, 120,
        "345c9e676f705ff5857272d277de277bd3ac679ea12483dc7ef52edcf263e7bf")),
    (gen_hornalc_counter(1).kb, 4, False, (
        154, 168,
        "f7922c2de63b3d5f4fcbd332cc2d201df2e350cae27fc84d5f1c9ef051f98005")),
    (parse_kb(_NOMINAL_KB), 2, True, (
        14, 9,
        "7e29a8f1b6a595a4b5b7c22a755954d304ed04b4fdcb531b325d78ba30040ec1")),
    # equalities appear round after round, inside and outside the frontier
    (parse_kb(serialize_document(gen_el_abox(30).kb)
              + "rule: N1(x) -> x = b\nfact: C(b)\n"), 0, True, (
        310, 566,
        "9a735ac57af7433c7c890e1cc376271192208104fb15db0638db6f6b3a7bc305")),
], ids=["el-abox-40", "hornalc-counter-1", "nominal", "el-abox-30-nominal"])
def test_saturated_structures_are_pinned(kb, depth, replaces, expected):
    """What a saturation derives, up to how it numbers its vertices: an
    optimization of the fixpoint must keep its atoms, edges, frontier and
    ``complete``."""
    structure = saturate_kb(kb, depth)
    assert _structure_digest(structure) == expected
    assert any(e.schema is Schema.E for e in structure.edges) == replaces


# ---------------------------------------------------------------------------
# Frozen reference: the saturation loop that matched every rule step with
# the general matcher, before seeded steps went without it (each step's
# matches are now read whole before it adds to the index, which the
# matcher needs)
# ---------------------------------------------------------------------------

def _reference_saturate(facts, rules, depth_bound, ticker):
    max_atoms = ticker.max_atoms
    structure = FiniteStructure(depth_bound=depth_bound)
    index = structure.index
    atom_ids = structure.atom_ids

    def vertex_for(atom):
        vid = atom_ids.get(atom)
        return structure.add_vertex(atom) if vid is None else vid

    for f in sorted(facts, key=atom_key):
        vid = vertex_for(f)
        structure.leaf_ids.add(vid)
        index.add(f)
    rule_ids = []
    for r in rules:
        vid = structure.add_vertex(r)
        structure.leaf_ids.add(vid)
        rule_ids.append(vid)
    seen_edges = set()

    def record(schema, premise_ids, concl_atom):
        if max(term_depth(t) for t in atom_terms(concl_atom)) > depth_bound:
            structure.complete = False
            structure.frontier.add(premise_ids)
            return False
        key = (schema, premise_ids, concl_atom)
        if key in seen_edges:
            return False
        seen_edges.add(key)
        fresh = concl_atom not in index
        if fresh:
            if max_atoms is not None and len(index) >= max_atoms:
                structure.complete = False
                raise BudgetExceeded(f"saturation exceeded {max_atoms} atoms")
            index.add(concl_atom)
        structure.add_edge(premise_ids, vertex_for(concl_atom), schema)
        return fresh

    rules_by_pred = {}
    for i, rule in enumerate(rules):
        for pattern in rule.body:
            rules_by_pred.setdefault(atom_pred(pattern), []).append(i)
    frontier = sorted(index.atoms, key=atom_key)
    first_round = True
    while frontier:
        new_atoms = set()
        frontier_set = set(frontier)
        frontier_by_pred = {}
        for fa in frontier:
            frontier_by_pred.setdefault(atom_pred(fa), []).append(fa)
        if first_round:
            active = range(len(rules))
        else:
            active = sorted({i for pred in frontier_by_pred
                             for i in rules_by_pred.get(pred, ())})
        for i in active:
            rule, rule_id = rules[i], rule_ids[i]
            seeds = []
            if first_round:
                seeds.append({})
            else:
                for pattern in rule.body:
                    for fa in frontier_by_pred.get(atom_pred(pattern), ()):
                        ext = unify_atom(pattern, fa, {})
                        if ext is not None:
                            seeds.append(ext)
            seen_subst = set()
            for seed in seeds:
                # read whole before the step adds to the index
                for subst in list(match_conjunction(rule.body, index, seed)):
                    key = tuple(sorted((v.name, subst[v]) for v in subst))
                    if key in seen_subst:
                        continue
                    seen_subst.add(key)
                    premise_ids = tuple(
                        atom_ids[substitute_atom(b, subst)]
                        for b in rule.body) + (rule_id,)
                    for h in rule.head:
                        concl = substitute_atom(h, subst)
                        if record(Schema.MP, premise_ids, concl):
                            new_atoms.add(concl)
        eqs = index.bucket(("=",))
        if eqs:
            pool = sorted(index.atoms, key=atom_key) \
                if first_round or ("=",) in frontier_by_pred else []
            by_term = {}
            for fa in frontier:
                for t in set(atom_terms(fa)):
                    by_term.setdefault(t, []).append(fa)
            steps = list(_replacements(
                eqs, lambda eq, src: pool if first_round or eq in frontier_set
                else by_term.get(src, ())))
            for atom, eq, concl in steps:
                if record(Schema.E, (atom_ids[atom], atom_ids[eq]), concl):
                    new_atoms.add(concl)
        first_round = False
        frontier = sorted(new_atoms, key=atom_key)
    return structure


def _saturation_outcome(saturator, facts, rules, depth, max_atoms):
    """The structure as labels (:func:`_labelled`) and its leaves; or the
    budget error."""
    try:
        s = saturator(facts, rules, depth, Ticker(max_atoms=max_atoms))
    except BudgetExceeded as exc:
        return str(exc)
    return _labelled(s), sorted(format_label(s.vertices[v])
                                for v in s.leaf_ids)


def _random_role_rule(rng, index):
    """A rule of one or two role atoms over x, y, z, each head atom over
    the body's variables."""
    names = [Var(n) for n in "xyz"]
    body = tuple(RoleAtom(rng.choice("rs"), rng.choice(names),
                          rng.choice(names))
                 for _ in range(rng.randint(1, 2)))
    used = [t for a in body for t in atom_terms(a)]
    head = tuple(RoleAtom(rng.choice("rs"), rng.choice(used), rng.choice(used))
                 for _ in range(rng.randint(1, 2)))
    return SkolemRule(body, head, NormalForm.VII, index)


def test_saturate_agrees_with_the_frozen_matcher_loop():
    """Seeded rule steps build the structure the general matcher built, up
    to vertex numbering, atom caps that trip mid-round included."""
    rng = random.Random(20261019)
    tripped = 0
    for _ in range(1500):
        kb = _random_kb(rng)
        case = (kb.abox, kb.skolem_rules, rng.randint(0, 3),
                rng.choice([None, 5, 12, 30]))
        got = _saturation_outcome(saturate, *case)
        assert got == _saturation_outcome(_reference_saturate, *case), case
        tripped += isinstance(got, str)
    assert tripped > 20
    # rules built in code, outside the normal form: conclusions that land
    # in the very list a seeded step reads, repeated variables, joins on
    # either position
    for _ in range(300):
        rules = tuple(_random_role_rule(rng, i)
                      for i in range(rng.randint(1, 3)))
        facts = [RoleAtom(rng.choice("rs"), Const(rng.choice("abcd")),
                          Const(rng.choice("abcd")))
                 for _ in range(rng.randint(1, 6))]
        case = (facts, rules, 0, rng.choice([None, 12]))
        assert _saturation_outcome(saturate, *case) \
            == _saturation_outcome(_reference_saturate, *case), case
    for kb, depth in ((gen_hornalc_counter(1).kb, 6), (gen_el_tree(5).kb, 2),
                      (gen_dllite_chain(40).kb, 3)):
        case = (kb.abox, kb.skolem_rules, depth, None)
        assert _saturation_outcome(saturate, *case) \
            == _saturation_outcome(_reference_saturate, *case)


@pytest.mark.parametrize("kb, depth", [
    (gen_el_abox(40).kb, 0), (gen_hornalc_counter(1).kb, 4)],
    ids=["el-abox-40", "hornalc-counter-1"])
def test_saturate_never_calls_the_matcher(monkeypatch, kb, depth):
    """Every round, the first included, seeds a rule step by a frontier
    atom, which needs at most one index lookup and not the general
    matcher."""
    def fail(*args, **kwargs):
        raise AssertionError("saturate called the general matcher")

    monkeypatch.setattr(matching, "match_conjunction", fail)
    monkeypatch.setattr(deriver_sk, "match_conjunction", fail, raising=False)
    structure = saturate_kb(kb, depth)
    assert len(structure.edges) > len(kb.skolem_rules)


def sample_structures():
    """Saturations and folds of the generator instances and of random
    knowledge bases: what the tie-order tests run over."""
    kbs = [inst.kb for inst in (
        *map(gen_el_tree, (1, 3, 5)), *map(gen_el_abox, (1, 6, 20)),
        *map(gen_dllite_chain, (0, 5, 40)), gen_hornalc_counter(1),
        *(gen_dllite_tree_query(1 + s % 3, s) for s in range(12)),
        gen_sat([[1, 2], [-1, 2], [-2, 1]]), gen_sat_cq([[1], [-1, 2]]))]
    rng = random.Random(20261022)
    kbs += [_random_kb(rng) for _ in range(300)]
    for kb in kbs:
        yield fold(kb).structure
        for depth in (0, 2):
            try:
                yield saturate_kb(kb, depth, Ticker(max_atoms=3000))
            except BudgetExceeded:
                pass


def test_in_edges_are_kept_in_tie_order():
    """Every vertex carries its label_key, and its in-edges come in
    edge_key order, no two with the same key, whatever order saturation
    found them in."""
    reordered = 0
    for structure in sample_structures():
        assert structure.keys == [label_key(structure.vertices[v])
                                  for v in range(len(structure.vertices))]
        listed = []
        for vid, ins in structure.in_edges.items():
            keys = [edge_key(structure, i) for i in ins]
            assert keys == sorted(set(keys))
            assert all(structure.edges[i].conclusion == vid for i in ins)
            listed += ins
            reordered += ins != sorted(ins)
        assert sorted(listed) == list(range(len(structure.edges)))
    assert reordered > 0
