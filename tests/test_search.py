"""Minimal-proof machinery: dynamic programs, compressed structures,
the least-match step, and the exact bounded search."""

import functools
import json
import random
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from hornexplain.chase import _chase_verdict, chase, entails
from hornexplain.compress import (CompressError, DecompressError, _Unfold,
                                  add_goal_tail, assemble_proof,
                                  compress_dllite, compress_el,
                                  decompress, dllite_query_min_size,
                                  dp_min_tree, el_cq_min_treesize,
                                  equality_free_fold, extract_witness, fold,
                                  goal_tail_size, least_matches, least_proof,
                                  refutes, tree_query_min_treesize)
from hornexplain.deriver_cq import transform_cq_to_sk, transform_sk_to_cq
from hornexplain.deriver_sk import (BudgetExceeded, FiniteStructure, Ticker,
                                    default_depth_ceiling, edge_key,
                                    saturate_kb)
from hornexplain.generators import (brute_force_sat, gen_dllite_chain,
                                    gen_dllite_tree_query, gen_el_abox,
                                    gen_el_tree, gen_hornalc_counter,
                                    gen_sat, gen_sat_cq)
from hornexplain.kb import (ATOM_TYPES, BooleanCQ, ConceptAtom, Const,
                            Fragment, KBError, RoleAtom, SkolemTerm, Var,
                            atom_pred, atom_terms, is_tree_shaped, make_kb,
                            substitute_atom, term_key)
from hornexplain.matching import AtomIndex, match_conjunction
from hornexplain.parser import parse_document, parse_kb
from hornexplain.proofs import (RULE_TYPES, Measure, ProofEdge, ProofGraph,
                                Schema, _postorder, domain_size,
                                ground_terms_of_label, label_key, measure,
                                proof_from_json, proof_size, proof_to_json,
                                tree_size, validate_proof)
from hornexplain import search as search_module
from hornexplain.search import (RunConfig, _cover_min, bounded_search,
                                bounded_search_cq, explain)
from test_chase import _query_into, _random_kb, _random_query
from test_deriver_sk import sample_structures
from test_tooling import _EL_TIES


_INF = float("inf")


def _min_tree(structure, goal_label):
    """The tree-size DP's value for one label and its chosen-edge witness."""
    values, chosen = dp_min_tree(structure)
    vid = structure.atom_ids[goal_label]
    return values[vid], extract_witness(structure, chosen, [vid])


# ---------------------------------------------------------------------------
# Frozen reference: the exhaustive minimum with duplicate atom labels
# allowed, for checking that one vertex per label loses no optimum
# ---------------------------------------------------------------------------

def _tree_min_descend(structure, vid, limit, path):
    """Exhaustive minimal tree size; labels may repeat across branches but
    never along a path (on-path repeats are never part of a minimum)."""
    if vid in structure.leaf_ids:
        return 1
    best = _INF
    for eidx in structure.in_edges[vid]:
        e = structure.edges[eidx]
        if any(p in path for p in e.premises):
            continue
        total = 1
        cap = min(limit, best)
        for p in e.premises:
            total += _tree_min_descend(structure, p, cap - total, path | {vid})
            if total >= cap:
                total = _INF
                break
        best = min(best, total)
    return best


def _premise_combos(structure, premises, members):
    """All ways to serve the premise tuple with up to two copies of each
    atom vertex: a copy already in the proof, or the next new one."""
    combos = [()]
    for vid in premises:
        if isinstance(structure.vertices[vid], RULE_TYPES):
            opts = [(vid, 0)]
        else:
            opts = [(vid, k) for k in range(2) if (vid, k) in members]
            opts += [(vid, k) for k in range(2)
                     if (vid, k) not in members][:1]
        combos = [c + (o,) for c in combos for o in opts]
    return combos


def _derived_from(arcs, start):
    """The vertex copies that ``start`` derives through the arcs, itself
    included (breadth first)."""
    reached, layer = {start}, [start]
    while layer:
        layer = [w for v in layer for w in arcs.get(v, ()) if w not in reached]
        reached.update(layer)
    return reached


def _cover_min_with_copies(structure, kind, members, pending, arcs, terms,
                           limit):
    """Least size or domain size of a proof that derives every pending
    vertex copy, each copy by an edge of its own; ``_INF`` at ``limit``."""
    value = len(members) if kind is Measure.SIZE else len(terms)
    if value >= limit:
        return _INF
    if not pending:
        return value
    key = pending[0]
    best = _INF
    for eidx in structure.in_edges[key[0]]:
        e = structure.edges[eidx]
        for combo in _premise_combos(structure, e.premises, members):
            nxt_members = dict(members)
            nxt_members[key] = eidx
            nxt_pending = list(pending[1:])
            nxt_arcs = dict(arcs)
            nxt_terms = terms
            ok = True
            for pkey in combo:
                if nxt_members.get(pkey) is not None \
                        and pkey in _derived_from(nxt_arcs, key):
                    ok = False
                    break
                nxt_arcs[pkey] = nxt_arcs.get(pkey, frozenset()) | {key}
                if pkey not in nxt_members:
                    nxt_members[pkey] = None
                    nxt_terms = nxt_terms | ground_terms_of_label(
                        structure.vertices[pkey[0]])
                    if pkey[0] not in structure.leaf_ids:
                        nxt_pending.append(pkey)
            if ok:
                best = min(best, _cover_min_with_copies(
                    structure, kind, nxt_members, nxt_pending, nxt_arcs,
                    nxt_terms, min(limit, best)))
    return best


def _duplicate_tolerant_min(structure, q, kind, strict_cg=False):
    """The least measure of a proof of ``q`` over the structure, over every
    query match, when proofs may hold several vertices with one atom label:
    up to two per label under size and domain size, and labels repeating
    across branches under tree size.  ``_INF`` when nothing matches."""
    tail = goal_tail_size(q, strict_cg) if kind is not Measure.DOMAIN_SIZE \
        else 0
    best = _INF
    for sigma in match_conjunction(q.atoms, structure.index):
        targets = [structure.atom_ids[substitute_atom(a, sigma)]
                   for a in q.atoms]
        total = tail
        if kind is Measure.TREE_SIZE:
            for vid in targets:
                total += _tree_min_descend(structure, vid, best - total,
                                           frozenset())
        else:
            keys = [(vid, 0) for vid in dict.fromkeys(targets)]
            terms = frozenset().union(*(ground_terms_of_label(
                structure.vertices[vid]) for vid, _ in keys))
            total += _cover_min_with_copies(
                structure, kind, dict.fromkeys(keys),
                [k for k in keys if k[0] not in structure.leaf_ids], {},
                terms, best - tail)
        best = min(best, total)
    return best


def _chain_kb(n):
    lines = [f"rule: P_{i}(x) -> P_{i+1}(x)" for i in range(n)]
    lines.append("fact: P_0(c)")
    return parse_kb("\n".join(lines) + "\n")


def test_min_size_on_an_inclusion_chain():
    """n rule applications cost one fact, n rules, and n derived atoms."""
    for n in (1, 2, 3, 4):
        kb = _chain_kb(n)
        structure = saturate_kb(kb, 0)
        goal = ConceptAtom(f"P_{n}", Const("c"))
        _, witness = _min_tree(structure, goal)
        assert proof_size(witness) == 2 * n + 1
        # brute force agreement
        q = BooleanCQ((ConceptAtom(f"P_{n}", Const("c")),), ())
        out = bounded_search(kb, q, RunConfig(Measure.SIZE))
        assert out.value == 2 * n + 1


def test_min_size_of_a_leaf_is_one():
    kb = _chain_kb(1)
    structure = saturate_kb(kb, 0)
    goal = ConceptAtom("P_0", Const("c"))
    _, witness = _min_tree(structure, goal)
    assert proof_size(witness) == 1


def test_min_size_prefers_the_short_route():
    kb = parse_kb("rule: A(x) -> B(x)\n"
                  "rule: A(x) -> M(x)\n"
                  "rule: M(x) -> B(x)\n"
                  "fact: A(a)\n")
    structure = saturate_kb(kb, 0)
    goal = ConceptAtom("B", Const("a"))
    _, witness = _min_tree(structure, goal)
    assert proof_size(witness) == 3  # fact, one rule, one derived atom


def test_min_tree_size_counts_shared_premises_twice():
    kb = parse_kb("rule: A(x) -> L(x)\n"
                  "rule: A(x) -> R(x)\n"
                  "rule: L(x), R(x) -> B(x)\n"
                  "fact: A(a)\n")
    structure = saturate_kb(kb, 0)
    goal = ConceptAtom("B", Const("a"))
    value, witness = _min_tree(structure, goal)
    assert value == tree_size(witness) == 8
    assert proof_size(witness) == 7  # the shared fact is one vertex


def test_min_tree_size_doubles_on_the_fact_chain():
    # n=60 is past 2**53, where float costs stop being exact; n=300 is
    # deeper than Python's default recursion limit
    for n in (1, 2, 3, 60, 300):
        inst = gen_el_abox(n)
        structure = saturate_kb(inst.kb, 0)
        goal = inst.query.atoms[0]
        value, witness = _min_tree(structure, goal)
        assert value == 9 * 2 ** n - 8
        assert tree_size(witness) == value


def test_min_tree_size_of_a_leaf_is_one():
    kb = _chain_kb(1)
    structure = saturate_kb(kb, 0)
    goal = ConceptAtom("P_0", Const("c"))
    value, witness = _min_tree(structure, goal)
    assert value == 1 and proof_size(witness) == 1


def _reference_dp_min_tree(structure):
    """The tree-size DP frozen as it was when it kept its own tie order: a
    tie of totals switches the chosen edge to the one of lesser key (and
    asks for another sweep).  Values, chosen edges and ticks."""
    def key_of(idx):
        e = structure.edges[idx]
        return (e.schema.value,
                tuple(label_key(structure.vertices[q]) for q in e.premises))

    values = {v: float("inf") for v in structure.vertices}
    for leaf in structure.leaf_ids:
        values[leaf] = 1
    chosen, ticks, changed = {}, 0, True
    while changed:
        changed = False
        for idx, (premises, conclusion, _) in enumerate(structure.edges):
            ticks += 1
            total = 1 + sum(values[q] for q in premises)
            cur = values[conclusion]
            if total < cur:
                values[conclusion] = total
                chosen[conclusion] = idx
                changed = True
            elif total == cur and chosen.get(conclusion, idx) != idx \
                    and key_of(idx) < key_of(chosen[conclusion]):
                chosen[conclusion] = idx
                changed = True
    return values, chosen, ticks


def _tie_only_sweep():
    """A structure on which the tie-switching DP needs a sweep that changes
    only a choice: C(a) is first derived through P(a), then more cheaply
    through Q(a), and only then does P(a) get cheap enough to tie."""
    structure = FiniteStructure()
    a, b = Const("a"), Const("b")
    leaf, other, p, q, c = (structure.add_vertex(ConceptAtom(name, t))
                            for name, t in (("A", a), ("A", b), ("P", a),
                                            ("Q", a), ("C", a)))
    structure.leaf_ids |= {leaf, other}
    for premises, conclusion in (((leaf, other, leaf), p), ((leaf,), q),
                                 ((p,), c), ((q,), c), ((leaf,), p)):
        structure.add_edge(premises, conclusion, Schema.MP)
    return structure


def test_the_dp_chooses_the_edges_its_tie_switching_chose():
    """The first in-edge of a vertex's value is the edge the frozen
    tie-switching DP settled on, with the same values and no more ticks."""
    fewer = 0
    for structure in (_tie_only_sweep(), *sample_structures()):
        ticker = Ticker()
        values, chosen = dp_min_tree(structure, ticker)
        ref_values, ref_chosen, ref_ticks = _reference_dp_min_tree(structure)
        assert (values, chosen) == (ref_values, ref_chosen)
        assert ticker.count <= ref_ticks
        fewer += ticker.count < ref_ticks
    assert fewer > 0


def test_compressed_structure_covers_constant_chase_atoms():
    """Whatever the chase derives over real constants is reachable in the
    compressed structure."""
    from hornexplain.chase import chase
    from hornexplain.kb import Const as C_, atom_terms as terms_of
    for inst in (gen_el_tree(2), gen_el_abox(2)):
        state = chase(inst.kb, 3)
        comp = compress_el(inst.kb)
        for atom in state.atoms:
            if all(isinstance(t, C_) for t in terms_of(atom)):
                assert atom in comp.structure.atom_ids, atom


def test_compress_dllite_bullet_rules():
    kb = parse_kb("rule: A(x) -> exists y. P(x,y)\n"
                  "rule: P(x,y) -> Q(x,y)\n"
                  "rule: P(x,y) -> C(x)\n"
                  "fact: A(a)\nfact: P(a,b)\n")
    comp = compress_dllite(kb)
    assert comp.placeholders == {"f_0": Const("c_f_0")}
    witness_obj = Const("c_f_0")
    assert RoleAtom("P", Const("a"), witness_obj) in comp.structure.atom_ids
    assert RoleAtom("Q", Const("a"), Const("b")) in comp.structure.atom_ids
    assert ConceptAtom("C", Const("a")) in comp.structure.atom_ids
    # saturation continues through the fresh individuals
    assert RoleAtom("Q", Const("a"), witness_obj) in comp.structure.atom_ids



def test_a_placeholder_steps_aside_from_a_name_the_kb_uses():
    """A placeholder takes the name ``c_<f>`` unless the KB already names
    an individual so; then it is prefixed with ``_`` until it is new, and
    the KB's own individual keeps its atoms apart from the placeholder's."""
    kb = parse_kb("rule: A(x) -> exists y. P(x,y)\n"
                  "fact: A(a)\nfact: B(c_f_0)\nfact: B(_c_f_0)\n")
    comp = compress_dllite(kb)
    assert comp.placeholders == {"f_0": Const("__c_f_0")}
    atoms = comp.structure.atom_ids
    assert RoleAtom("P", Const("a"), Const("__c_f_0")) in atoms
    assert RoleAtom("P", Const("a"), Const("c_f_0")) not in atoms
    assert ConceptAtom("B", Const("c_f_0")) in atoms

def test_compress_dllite_empty_abox_has_only_leaves():
    kb = parse_kb("rule: A(x) -> B(x)\n")
    comp = compress_dllite(kb)
    assert comp.structure.edges == []


def test_compress_dllite_rejects_other_fragments(ex1):
    kb, _ = ex1
    with pytest.raises(CompressError, match="fragment"):
        compress_dllite(kb)


def test_compress_el_replaces_skolem_terms(ex1):
    kb, _ = ex1
    with pytest.raises(CompressError):
        compress_el(kb)  # the running example is beyond this fragment
    kb2 = parse_kb("rule: A(x) -> exists y. r(x,y), B(y)\nfact: A(a)\n")
    comp = compress_el(kb2)
    cf = Const("c_f_0")
    assert RoleAtom("r", Const("a"), cf) in comp.structure.atom_ids
    assert ConceptAtom("B", cf) in comp.structure.atom_ids


def test_compress_el_without_existentials_has_no_fresh_names():
    inst = gen_el_abox(2)
    comp = compress_el(inst.kb)
    assert comp.fresh_consts == frozenset()


def test_decompress_chain_of_witnesses():
    kb = parse_kb("rule: A(x) -> exists y. r(x,y), B(y)\n"
                  "rule: B(x) -> C(x)\n"
                  "fact: A(a)\n")
    q = BooleanCQ((ConceptAtom("C", Var("y")),), (Var("y"),))
    comp = compress_el(kb)
    values, chosen = dp_min_tree(comp.structure)
    goal = ConceptAtom("C", Const("c_f_0"))
    value, witness = _min_tree(comp.structure, goal)
    real = decompress(comp, kb, q, values, chosen,
                      [{Var("y"): Const("c_f_0")}])
    ok, problems = validate_proof(real, kb, q, "sk")
    assert ok, problems
    assert ConceptAtom("C", SkolemTerm("f_0", Const("a"))) \
        in real.vertices.values()
    assert proof_size(real) == proof_size(witness) + goal_tail_size(q)
    assert tree_size(real) == tree_size(witness) + goal_tail_size(q) \
        == value + goal_tail_size(q)


def test_decompress_without_fresh_names_is_identity_shaped():
    inst = gen_el_abox(1)
    comp = compress_el(inst.kb)
    values, chosen = dp_min_tree(comp.structure)
    goal = inst.query.atoms[0]
    _, witness = _min_tree(comp.structure, goal)
    real = decompress(comp, inst.kb, inst.query, values, chosen, [{}])
    assert {str(l) for l in real.vertices.values()} \
        == {str(l) for l in witness.vertices.values()}


def _rank_matches(structure, values, q):
    """Frozen reference: every match of the query into the structure,
    cheapest first, ties in assignment order, as the EL route ranked them
    before the least-match step replaced the ranking."""
    scored = []
    for subst in match_conjunction(q.atoms, structure.index):
        total = sum(values[structure.atom_ids[substitute_atom(atom, subst)]]
                    for atom in q.atoms)
        if total < _INF:
            scored.append((total, tuple(sorted(
                (v.name, term_key(t)) for v, t in subst.items())), subst))
    return [(total, subst) for total, _, subst in sorted(
        scored, key=lambda s: s[:2])]


_search_at_depth = search_module._search_at_depth


def _enumerated_at_depth(q, config, structure, ticker, incoming_best):
    """Frozen reference: the exact search's depth step under tree size as
    it was before the least-match step replaced it, branch-and-bound over
    the matcher's matches that keeps the first least one in matcher
    order.  Other measures run the search's own step."""
    if config.measure is not Measure.TREE_SIZE:
        return _search_at_depth(q, config, structure, ticker, incoming_best)
    tail = goal_tail_size(q, config.strict_cg)
    limit = config.bound + 1 if config.bound is not None else _INF
    ids = structure.atom_ids
    best = [incoming_best, None, None]
    values = chosen = None

    def prune(matched, order):
        cap = min(limit, best[0])
        if cap == _INF or values is None:
            return False
        ticker.tick()
        return tail + sum(values[ids[a]] for a in matched
                          if a is not None) >= cap

    try:
        for sigma in match_conjunction(q.atoms, structure.index, prune=prune):
            if values is None:
                values, chosen = dp_min_tree(structure, ticker)
            ticker.tick()
            total = tail + sum(values[ids[substitute_atom(a, sigma)]]
                               for a in q.atoms)
            if total < min(limit, best[0]):
                best = [total, sigma, chosen]
    except BudgetExceeded:
        return (*best, values, True)
    return (*best, values, False)


def _least_matches(kb, q):
    comp = compress_el(kb)
    return list(least_matches(comp.structure,
                              dp_min_tree(comp.structure)[0], q))


def test_tree_query_optimum_matches_brute_force():
    for n in (0, 1, 2, 3):
        inst = gen_dllite_chain(n)
        proof = tree_query_min_treesize(inst.kb, inst.query)
        ok, problems = validate_proof(proof, inst.kb, inst.query, "sk")
        assert ok, problems
        out = bounded_search(inst.kb, inst.query,
                             RunConfig(Measure.TREE_SIZE))
        assert tree_size(proof) == out.value == 6 * n + 11


def test_the_poly_routes_answer_a_bound_below_their_value():
    """Below the route's value, tree size is refuted by the route itself;
    the size route only bounds the optimum from above, so it leaves the
    bound to the exact search, which certifies ``none``."""
    inst = gen_dllite_chain(2)
    tree = explain(inst.kb, inst.query, RunConfig(Measure.TREE_SIZE))
    assert (tree.status, tree.value) == ("found", 23)
    tree = explain(inst.kb, inst.query, RunConfig(Measure.TREE_SIZE,
                                                  bound=22))
    assert (tree.status, tree.value, tree.complete, tree.algorithm,
            tree.warnings, tree.exit_code) == (
        "none", 23, True, "poly-dllite-tree", [], 1)
    size = explain(inst.kb, inst.query, RunConfig(Measure.SIZE, bound=22,
                                                  algo="poly"))
    assert (size.status, size.complete, size.algorithm, size.exit_code) == (
        "none", True, "exact", 1)
    assert size.warnings == [
        "polynomial size value 23 exceeds the bound but only bounds the "
        "optimum from above; falling back to exact search"]


def test_tree_query_single_atom_reduces_to_plain_minimum():
    inst = gen_dllite_chain(2, "unary")
    proof = tree_query_min_treesize(inst.kb, inst.query)
    out = bounded_search(inst.kb, inst.query, RunConfig(Measure.TREE_SIZE))
    assert tree_size(proof) == out.value


def test_tree_query_tie_break_is_deterministic():
    kb = parse_kb("rule: A_0(x) -> A(x)\n"
                  "fact: A_0(c1)\nfact: A_0(c2)\n")
    doc = parse_document("fact: A_0(c1)\nquery: exists x. A(x)\n")
    q = doc.queries[0]
    proof1 = tree_query_min_treesize(kb, q)
    proof2 = tree_query_min_treesize(kb, q)
    # both individuals tie; the least comes first
    assert _least_matches(kb, q) == [{Var("x"): Const("c1")},
                                     {Var("x"): Const("c2")}]
    assert proof_to_json(proof1, q) == proof_to_json(proof2, q)
    assert ConceptAtom("A", Const("c1")) in proof1.vertices.values()


def test_tree_query_rejects_cyclic_queries():
    doc = parse_document(
        "fact: r(a,b)\nquery: exists x, y, z. r(x,y), r(y,z), r(z,x)\n")
    with pytest.raises(CompressError, match="tree"):
        tree_query_min_treesize(doc.kb, doc.queries[0])


def test_dllite_size_route_agrees_with_exact():
    for n in (0, 1, 2):
        inst = gen_dllite_chain(n)
        proof = dllite_query_min_size(inst.kb, inst.query)
        out = bounded_search(inst.kb, inst.query, RunConfig(Measure.SIZE))
        assert proof_size(proof) == out.value


def test_the_two_polynomial_routes_give_the_same_proof():
    """Over DL-Lite, the tree-query route and the EL route read the same
    fold and unfold the same assignment."""
    cases = [gen_dllite_chain(n, shape) for n in range(9)
             for shape in ("path", "unary")]
    cases += [gen_dllite_tree_query(k, seed) for k in (3, 5, 8)
              for seed in range(40)]
    for inst in cases:
        kb, q = inst.kb, inst.query
        assert proof_to_json(tree_query_min_treesize(kb, q), q) \
            == proof_to_json(el_cq_min_treesize(kb, q), q), \
            (inst.family, inst.parameter)


DLLITE_TEMPLATES = [
    "rule: {A}(x) -> {B}(x)",
    "rule: {A}(x) -> exists y. {r}(x,y)",
    "rule: {A}(x) -> exists y. {r}(y,x)",
    "rule: {r}(x,y) -> {A}(x)",
    "rule: {r}(x,y) -> {A}(y)",
    "rule: {r}(x,y) -> {s}(x,y)",
    "rule: {r}(x,y) -> {s}(y,x)",
]


def _random_dllite_kb(rng):
    """Rules over P, Q, R and u, v, existential ones included, and facts
    over d and e."""
    lines = [rng.choice(DLLITE_TEMPLATES).format(
        A=rng.choice("PQR"), B=rng.choice("PQR"), r=rng.choice("uv"),
        s=rng.choice("uv")) for _ in range(rng.randint(1, 5))]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            lines.append(f"fact: {rng.choice('PQR')}({rng.choice('de')})")
        else:
            lines.append(f"fact: {rng.choice('uv')}"
                         f"({rng.choice('de')},{rng.choice('de')})")
    return parse_kb("\n".join(dict.fromkeys(lines)) + "\n")


def test_least_matches_are_the_ranked_ties():
    """On the folds of random knowledge bases, with tree-shaped and other
    queries, with and without a match: the least matches are the frozen
    ranking's tied head, in its order."""
    rng = random.Random(20261019)
    shapes = {True: 0, False: 0}
    empty = 0
    for case in range(600):
        kb = _random_dllite_kb(rng) if case % 2 else _random_kb(rng)
        structure = fold(kb).structure
        q = _query_into(rng, structure) if case % 3 else _random_query(rng)
        values, _ = dp_min_tree(structure)
        ranked = _rank_matches(structure, values, q)
        tied = [subst for total, subst in ranked if total == ranked[0][0]]
        assert list(least_matches(structure, values, q)) == tied, (kb, q)
        shapes[is_tree_shaped(q)] += 1
        empty += not tied
    assert min(shapes.values()) > 100 and empty > 50, (shapes, empty)


def _star(k):
    """r(a,y_i), C(y_i) for i < k, where each y_i has 8 candidates and the
    cheapest is not the least constant."""
    text = "rule: D(x) -> E(x)\nrule: E(x) -> C(x)\nrule: s(x,y) -> r(x,y)\n"
    text += "".join(f"fact: s(a,b{j})\nfact: D(b{j})\n" for j in range(6))
    text += "".join(f"fact: r(a,b{j})\nfact: C(b{j})\n" for j in (6, 7))
    atoms = ", ".join(f"r(a,y{i}), C(y{i})" for i in range(k))
    ys = ", ".join(f"y{i}" for i in range(k))
    doc = parse_document(text + f"query: exists {ys}. {atoms}\n")
    return doc.kb, doc.queries[0]


def _clique(n):
    """r(x_i,x_j) for i < j < 6 over n individuals whose s facts pair every
    two of them, with s(x,y) -> r(x,y): treewidth 5, so the least step
    builds tables of about n^5 rows."""
    text = "rule: s(x,y) -> r(x,y)\n" + "".join(
        f"fact: s(c{i},c{j})\n" for i in range(n) for j in range(n) if i != j)
    atoms = ", ".join(f"r(x{i},x{j})" for i in range(6)
                      for j in range(i + 1, 6))
    doc = parse_document(text + "query: exists x0, x1, x2, x3, x4, x5. "
                         f"{atoms}\n")
    return doc.kb, doc.queries[0]


def test_least_matches_stay_polynomial_on_a_star(monkeypatch):
    for k in range(1, 5):
        kb, q = _star(k)
        assert proof_to_json(tree_query_min_treesize(kb, q), q) \
            == proof_to_json(el_cq_min_treesize(kb, q), q), k
    # at k = 10 a match enumeration would visit 8^10 matches
    kb, q = _star(10)

    def enumerate_matches(*args):
        raise AssertionError("a polynomial route enumerated matches")

    monkeypatch.setattr("hornexplain.compress.match_conjunction",
                        enumerate_matches)
    # r(a,b6), C(b6), r(a,b7) and C(b7) are facts: each y_i takes b6 or
    # b7, b6 first
    tied = _least_matches(kb, q)
    assert len(tied) == 2 ** 10
    assert [set(sigma.values()) for sigma in (tied[0], tied[-1])] \
        == [{Const("b6")}, {Const("b7")}]
    proofs = [run(kb, q) for run in (tree_query_min_treesize,
                                     el_cq_min_treesize)]
    for proof in proofs:
        ok, problems = validate_proof(proof, kb, q, "sk")
        assert ok, problems
        assert tree_size(proof) == 2 * 10 + goal_tail_size(q)
    assert proof_to_json(proofs[0], q) == proof_to_json(proofs[1], q)


def test_the_exact_search_takes_the_least_match_on_a_star():
    """At k = 12 the matcher would enumerate 8^12 matches: the exact search
    takes the least match from the least-match step and certifies it."""
    kb, q = _star(12)
    result = explain(kb, q, RunConfig(measure=Measure.TREE_SIZE,
                                      algo="exact"))
    assert (result.status, result.value, result.complete) == \
        ("found", 2 * 12 + goal_tail_size(q), True)
    assert result.nodes < 5000
    ok, problems = validate_proof(result.proof, kb, q, "sk")
    assert ok, problems


def test_a_tripped_least_step_keeps_the_first_match():
    """A node budget that runs out in the least step leaves the matcher's
    first match as an uncertified proof."""
    kb, q = _clique(8)
    result = explain(kb, q, RunConfig(measure=Measure.TREE_SIZE,
                                      algo="exact", max_nodes=3000))
    assert (result.status, result.complete) == ("found", False)
    ok, problems = validate_proof(result.proof, kb, q, "sk")
    assert ok, problems
    assert tree_size(result.proof) == result.value


def test_the_run_budget_bounds_the_least_step_of_the_polynomial_route():
    """The least step of a treewidth-5 query is charged to --max-nodes and
    --max-seconds (at n = 10 it takes about 4 s unbounded)."""
    kb, q = _clique(10)
    assert search_module._poly_route(kb, q, Measure.TREE_SIZE)[1] \
        == "poly-el-tree"
    for limits, cause in (({"max_nodes": 3000}, "node limit"),
                          ({"max_seconds": 0.3, "max_nodes": 10 ** 9},
                           "time limit")):
        start = time.monotonic()
        result = explain(kb, q, RunConfig(measure=Measure.TREE_SIZE,
                                          **limits))
        assert time.monotonic() - start < 0.3 + 1.5
        assert (result.status, result.complete) == ("exhausted", False)
        assert result.warnings == [f"polynomial algorithm stopped: {cause}"]
        # a stopped route reports its name and the nodes it spent
        assert result.algorithm == "poly-el-tree" and result.nodes > 0
        if cause == "node limit":
            assert result.nodes == 3000 + 1


def test_least_matches_answer_a_four_cycle_without_enumerating(monkeypatch):
    """r(x,y), r(y,z), r(z,w), r(w,x) and P on each, over eight individuals
    pairwise joined by r, each P set by an inclusion chain of its own
    length: 2,408 matches, treewidth 2.  The least-match step agrees with
    the frozen ranking, and the EL route answers without enumerating."""
    lines = ["rule: Q2(x) -> Q1(x)", "rule: Q1(x) -> P(x)",
             "rule: A(x), B(x) -> D(x)"]           # EL, not DL-Lite
    for i in range(8):
        lines.append(f"fact: {('P', 'Q1', 'Q2')[i % 3]}(c{i})")
        lines += [f"fact: r(c{i},c{j})" for j in range(8) if j != i]
    doc = parse_document("\n".join(lines) + "\nquery: exists w, x, y, z. "
                         "r(x,y), r(y,z), r(z,w), r(w,x), "
                         "P(w), P(x), P(y), P(z)\n")
    kb, q = doc.kb, doc.queries[0]
    assert kb.fragment is Fragment.EL and not is_tree_shaped(q)
    comp = compress_el(kb)
    values, _ = dp_min_tree(comp.structure)
    ranked = _rank_matches(comp.structure, values, q)
    tied = [subst for total, subst in ranked if total == ranked[0][0]]
    # closed walks of length 4: over all eight, over c0, c3 and c6
    assert (len(ranked), len(tied)) == (7 ** 4 + 7, 2 ** 4 + 2)
    assert list(least_matches(comp.structure, values, q)) == tied

    def enumerate_matches(*args):
        raise AssertionError("the EL route enumerated matches")

    monkeypatch.setattr("hornexplain.compress.match_conjunction",
                        enumerate_matches)
    proof = el_cq_min_treesize(kb, q)
    ok, problems = validate_proof(proof, kb, q, "sk")
    assert ok, problems
    assert tree_size(proof) == ranked[0][0] + goal_tail_size(q)


def test_el_cq_assignment_through_fresh_names():
    """A query only satisfiable at an anonymous witness decompresses."""
    doc = parse_document(
        "rule: A(x) -> exists y. r(x,y), B(y)\n"
        "fact: A(a)\n"
        "query: exists x, y. r(x,y), B(y)\n")
    proof = el_cq_min_treesize(doc.kb, doc.queries[0])
    ok, problems = validate_proof(proof, doc.kb, doc.queries[0], "sk")
    assert ok, problems
    labels = " ".join(str(l) for l in proof.vertices.values())
    assert "f_0" in labels  # the witness was rewritten to a Skolem term


def test_el_cq_iq_reduces_to_the_dp():
    inst = gen_el_tree(2)
    proof = el_cq_min_treesize(inst.kb, inst.query)
    comp = compress_el(inst.kb)
    goal = inst.query.atoms[0]
    value, _ = _min_tree(comp.structure, goal)
    assert tree_size(proof) == value == 32


def test_el_tree_frozen_optima():
    # regression values, cross-checked against the exact search at small n
    expected = {1: 7, 2: 32, 3: 94}
    for n, value in expected.items():
        inst = gen_el_tree(n)
        proof = el_cq_min_treesize(inst.kb, inst.query)
        assert tree_size(proof) == value
        out = bounded_search(inst.kb, inst.query,
                             RunConfig(Measure.TREE_SIZE))
        assert out.value == value


def _realized_witness(kb, q):
    """Frozen reference: the minimal-tree-size witness over the real
    structure at the default depth ceiling, as the EL route rebuilt it
    before the unfolding replaced the rebuild."""
    structure = saturate_kb(kb, default_depth_ceiling(kb, q),
                            Ticker(max_atoms=500_000))
    values, chosen = dp_min_tree(structure)
    sigma = _rank_matches(structure, values, q)[0][1]
    targets = [structure.atom_ids[substitute_atom(a, sigma)]
               for a in q.atoms]
    return extract_witness(structure, chosen, targets, q)


def test_the_unfolding_agrees_with_the_realization_and_the_search():
    """The polynomial routes' tree size equals the frozen realization's and
    the exact search's, on the generators and on random EL and DL-Lite
    knowledge bases, every proof validates, and the value the route gives
    is its proof's tree size."""
    cases = [gen_el_tree(n) for n in range(1, 9)]
    cases += [gen_el_abox(n) for n in (1, 3, 6)]
    cases += [gen_dllite_chain(n) for n in (0, 2, 5)]
    cases = [(inst.kb, inst.query) for inst in cases]
    rng = random.Random(20261019)
    while len(cases) < 200:
        kb = _random_kb(rng)
        if kb.fragment in (Fragment.EL, Fragment.DLLiteR):
            cases.append((kb, _query_into(rng, saturate_kb(
                kb, rng.randint(0, 2)))))
    for case, (kb, q) in enumerate(cases):
        compress, _ = search_module._poly_route(kb, q, Measure.TREE_SIZE)
        proof, value = least_proof(compress, kb, q, False,
                                   Ticker(max_seconds=60))
        realized = _realized_witness(kb, q)
        for p in (proof, realized):
            ok, problems = validate_proof(p, kb, q, "sk")
            assert ok, (case, problems)
        exact = bounded_search(kb, q, RunConfig(Measure.TREE_SIZE))
        assert exact.complete, case
        assert value == tree_size(proof) == tree_size(realized) \
            == exact.value, case


_UNDERESTIMATING_FOLD = ("rule: A(x) -> exists y. r(x,y), B(y)\n"
                         "rule: C(x) -> A(x)\n"
                         "rule: D(x) -> C(x)\n"
                         "fact: A(a)\nfact: D(b)\n"
                         "query: exists y. r(b,y), B(y)\n")


def test_the_el_route_leaves_an_underestimating_fold_to_the_search():
    """b's witness for r needs its own B, which costs more than a's: the
    fold's cheapest match (10 before the goal tail) has no unfolding, and
    the exact search finds the real optimum."""
    doc = parse_document(_UNDERESTIMATING_FOLD)
    kb, q = doc.kb, doc.queries[0]
    comp = compress_el(kb)
    values, _ = dp_min_tree(comp.structure)
    assert _rank_matches(comp.structure, values, q)[0][0] == 10
    with pytest.raises(DecompressError):
        el_cq_min_treesize(kb, q)
    result = explain(kb, q, RunConfig(measure=Measure.TREE_SIZE))
    assert (result.status, result.value, result.complete,
            result.algorithm) == ("found", 16, True, "exact")
    assert result.warnings
    ok, problems = validate_proof(result.proof, kb, q, "sk")
    assert ok, problems


def test_a_polynomial_routes_value_is_its_proofs_measure():
    """explain takes a polynomial route's value from the route: under tree
    size the least match's total plus the goal tail, under size the proof's
    vertex count.  It is the proof's measure, on each family of the
    benchmark's poly-tree deck (with the DL-Lite size route) and on every
    golden file a route wrote, whose value it gives again."""
    tree, size = Measure.TREE_SIZE, Measure.SIZE
    cases = [(gen_dllite_chain(n), m) for n in (1, 5, 50) for m in (tree,
                                                                   size)]
    cases += [(gen_dllite_tree_query(1 + s % 3, s), m) for s in range(9)
              for m in (tree, size)]
    cases += [(gen_el_abox(n), tree) for n in (1, 20, 60)]
    cases += [(gen_el_tree(n), tree) for n in (1, 5, 8)]
    for inst, m in cases:
        result = explain(inst.kb, inst.query, RunConfig(measure=m,
                                                        algo="poly"))
        assert result.algorithm.startswith("poly"), result.warnings
        assert result.value == measure(result.proof, m)

    kbs = {"dllite-chain-5-": gen_dllite_chain(5).kb,
           "dllite-tree-query-4-10-": gen_dllite_tree_query(4, 10).kb,
           "el-ties-": parse_document(_EL_TIES).kb,
           "el-tree-3-": gen_el_tree(3).kb}
    checked = 0
    for path in sorted(GOLDEN.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        if not doc.get("algorithm", "").startswith("poly"):
            continue
        [kb] = [kb for prefix, kb in kbs.items()
                if path.name.startswith(prefix)]
        _, goal = proof_from_json(text)
        m = Measure(doc["measure"])
        result = explain(kb, goal, RunConfig(measure=m, algo="poly"))
        assert (result.algorithm, result.value) \
            == (doc["algorithm"], doc["value"]), path.name
        assert result.value == measure(result.proof, m), path.name
        checked += 1
    assert checked == 5


def test_the_fallback_search_spends_what_the_route_left():
    """The search after a route without an unfolding gets the nodes the
    route left, and the result counts both."""
    doc = parse_document(_UNDERESTIMATING_FOLD)
    kb, q = doc.kb, doc.queries[0]
    route = Ticker()
    with pytest.raises(DecompressError):
        el_cq_min_treesize(kb, q, False, route)
    search = bounded_search(kb, q, RunConfig(Measure.TREE_SIZE))
    assert route.count > 0 and search.nodes > 1
    result = explain(kb, q, RunConfig(measure=Measure.TREE_SIZE))
    assert result.nodes == route.count + search.nodes
    tight = explain(kb, q, RunConfig(measure=Measure.TREE_SIZE,
                                     max_nodes=route.count + 1))
    assert (tight.status, tight.complete) == ("exhausted", False)
    assert tight.nodes == route.count + 2


def test_a_query_constant_named_like_a_placeholder_is_not_its_witness():
    """The fold names f_0's witness c_f_0; a query about an individual of
    that name is not entailed, and the poly route must not prove it."""
    doc = parse_document("rule: A(x) -> exists y. r(x,y), B(y)\n"
                         "fact: A(a)\nquery: B(c_f_0)\n")
    kb, q = doc.kb, doc.queries[0]
    assert compress_el(kb).fresh_consts == {"c_f_0"}
    with pytest.raises(DecompressError):
        el_cq_min_treesize(kb, q)
    result = explain(kb, q, RunConfig(measure=Measure.TREE_SIZE))
    assert (result.status, result.complete) == ("none", True)


# ---------------------------------------------------------------------------
# Frozen reference: the unfolding as one generator per memo key, as it ran
# before the single loop replaced it
# ---------------------------------------------------------------------------

def _reference_bind(pattern, real, rsub):
    for t, r in zip(pattern, real):
        if r is None:
            continue
        if isinstance(t, SkolemTerm):
            if not isinstance(r, SkolemTerm) or r.fn != t.fn:
                return False
            t, r = t.arg, r.arg
        if rsub.setdefault(t, r) != r:
            return False
    return True


class _ReferenceUnfold(_Unfold):
    """``_Unfold`` with its match frozen: one generator per memo key on an
    explicit stack, each yielding the key it needs next; the proof is
    inherited."""

    def __init__(self, comp, kb, values, chosen, ticker):
        super().__init__(comp, kb, values, chosen, ticker)
        self.bodies = [list(map(atom_terms, r.body)) for r in self.rules]
        self.heads = [{atom_pred(h): h for h in r.head} for r in self.rules]

    def match(self, q, sigma):
        vertices = self.structure.vertices
        vids = [self.structure.atom_ids[substitute_atom(a, sigma)]
                for a in q.atoms]
        terms = [atom_terms(a) for a in q.atoms]
        known = {t: c for ts, v in zip(terms, vids)
                 for t, c in zip(ts, atom_terms(vertices[v]))
                 if isinstance(t, Const) or c.name not in self.fresh}
        stack = [self._unfold(None, [(None, None, terms, vids, known)])]
        reply, charge = None, self.ticker.charge
        while True:
            try:
                key = stack[-1].send(reply)
            except StopIteration as stop:
                stack.pop()
                if not stack:
                    return stop.value
                reply = stop.value
                continue
            charge()
            stack.append(self._unfold(key, self._steps(key[0])))
            reply = None

    def _steps(self, vid):
        first = self.chosen[vid]
        yield self._reference_step(first)
        edges, values = self.structure.edges, self.values
        rest = [i for i in self.structure.in_edges[vid] if i != first
                and 1 + sum(values[p] for p in edges[i].premises)
                == values[vid]]
        for i in sorted(rest, key=lambda i: edge_key(self.structure, i)):
            yield self._reference_step(i)

    def _reference_step(self, idx):
        vertices = self.structure.vertices
        e = self.structure.edges[idx]
        rule = vertices[e.premises[-1]].index
        head = self.heads[rule][atom_pred(vertices[e.conclusion])]
        return idx, head, self.bodies[rule], e.premises[:-1], {}

    def _unfold(self, key, steps):
        known = key[1] if key is not None else ()
        structure, memo = self.structure, self.memo
        entry = False
        for idx, head, terms, premises, rsub in steps:
            rsub = dict(rsub)
            if head is not None and not _reference_bind(atom_terms(head),
                                                        known, rsub):
                continue
            entries = [None] * len(premises)
            left = list(range(len(premises)))
            while left:
                j = left[0] if len(left) == 1 else min(left, key=lambda j: (
                    sum(t not in rsub for t in terms[j]) / len(terms[j]),
                    -len(terms[j])))
                left.remove(j)
                pkey = (premises[j], tuple(map(rsub.get, terms[j])))
                got = memo.get(pkey)
                if got is None:
                    if premises[j] in structure.leaf_ids:
                        got = memo[pkey] = (
                            structure.vertices[premises[j]],
                            premises[j], None, ())
                    else:
                        got = yield pkey
                if not got or not _reference_bind(terms[j],
                                                  atom_terms(got[0]), rsub):
                    break
                entries[j] = got
            else:
                entry = entries if head is None else \
                    (substitute_atom(head, rsub), key[0], idx, entries)
                break
        if key is not None:
            memo[key] = entry
            if entry:
                memo.setdefault((key[0], atom_terms(entry[0])), entry)
        return entry


def _unfolded(unfold_class, comp, kb, q, values, chosen, tied):
    """Per tied match in order, over one memo: the proof JSON, or None where
    the match does not unfold; and the ticker's charges."""
    ticker = Ticker()
    unfold = unfold_class(comp, kb, values, chosen, ticker)
    out = []
    for sigma in tied:
        targets = unfold.match(q, sigma)
        out.append(proof_to_json(unfold.proof(targets, q, False))
                   if targets else None)
    return out, ticker.work


def _random_el_cases(rng, count, existential):
    """Random EL and DL-Lite knowledge bases whose fold has (or has no)
    placeholder, each with a query that has a match."""
    cases = []
    while len(cases) < count:
        kb = _random_kb(rng)
        if kb.fragment in (Fragment.EL, Fragment.DLLiteR) \
                and bool(fold(kb).placeholders) == existential:
            cases.append((kb, _query_into(rng, saturate_kb(
                kb, rng.randint(0, 2)))))
    return cases


def test_the_unfolding_agrees_with_its_frozen_generators():
    """Every tied least match of the fold unfolds to the same proof JSON,
    or fails to unfold, as under the frozen generators, with the same
    charges to the ticker; on el-tree, the underestimating fold, the
    placeholder-named constant and random knowledge bases with an
    existential rule."""
    cases = [(inst.kb, inst.query)
             for inst in map(gen_el_tree, range(1, 11))]
    for text in (_UNDERESTIMATING_FOLD, "rule: A(x) -> exists y. r(x,y), "
                 "B(y)\nfact: A(a)\nquery: B(c_f_0)\n"):
        doc = parse_document(text)
        cases.append((doc.kb, doc.queries[0]))
    cases += _random_el_cases(random.Random(20261020), 300, True)
    unfolded = failed = 0
    for case, (kb, q) in enumerate(cases):
        comp = compress_el(kb)
        values, chosen = dp_min_tree(comp.structure)
        tied = list(least_matches(comp.structure, values, q))
        got = _unfolded(_Unfold, comp, kb, q, values, chosen, tied)
        assert got == _unfolded(_ReferenceUnfold, comp, kb, q, values,
                                chosen, tied), case
        unfolded += sum(p is not None for p in got[0])
        failed += sum(p is None for p in got[0])
    assert unfolded > 300 and failed > 0


def test_a_fold_without_placeholders_is_read_off_its_chosen_edges():
    """Without a placeholder, decompress gives the proof that the unfolding
    gives, and the polynomial route the exact search's proof and nodes; on
    el-abox, dllite-chain, the tree-query seeds without a witness branch
    and random knowledge bases without an existential rule."""
    insts = [gen_el_abox(n) for n in (1, 3, 6, 20)]
    insts += [gen_dllite_chain(n) for n in (0, 2, 5, 50)]
    insts += [inst for inst in (gen_dllite_tree_query(1 + s % 3, s)
                                for s in range(40))
              if not fold(inst.kb).placeholders]
    assert len(insts) > 20
    cases = [(inst.kb, inst.query) for inst in insts]
    cases += _random_el_cases(random.Random(20261021), 200, False)
    for case, (kb, q) in enumerate(cases):
        comp = compress_el(kb)
        values, chosen = dp_min_tree(comp.structure)
        tied = list(least_matches(comp.structure, values, q))
        proof = decompress(comp, kb, q, values, chosen, iter(tied))
        assert proof_to_json(proof) == _unfolded(
            _Unfold, comp, kb, q, values, chosen, tied[:1])[0][0], case
        with pytest.raises(DecompressError):
            decompress(comp, kb, q, values, chosen, [])
        auto, exact = (explain(kb, q, RunConfig(measure=Measure.TREE_SIZE,
                                                algo=algo))
                       for algo in ("auto", "exact"))
        assert auto.algorithm.startswith("poly"), case
        assert (proof_to_json(auto.proof), auto.nodes, auto.value) \
            == (proof_to_json(exact.proof), exact.nodes, exact.value), case


def test_bounded_search_three_valued():
    inst = gen_sat([[1], [-1]])
    bound = inst.bounds["size"]
    yes = bounded_search(inst.kb, inst.query,
                         RunConfig(Measure.SIZE, bound=bound + 1))
    no = bounded_search(inst.kb, inst.query,
                        RunConfig(Measure.SIZE, bound=bound))
    tiny = bounded_search(inst.kb, inst.query,
                          RunConfig(Measure.SIZE, bound=bound, max_nodes=3))
    assert yes.status == "found" and yes.value == bound + 1
    assert no.status == "none"
    assert tiny.status == "exhausted"


def test_bounded_search_monotone_in_the_bound(ex1):
    kb, q = ex1
    outcomes = [bounded_search(kb, q, RunConfig(Measure.SIZE, bound=n)
                               ).status for n in range(2, 15)]
    first_yes = outcomes.index("found")
    assert all(s == "found" for s in outcomes[first_yes:])
    assert all(s == "none" for s in outcomes[:first_yes])


def _at_one_depth(q, m, structure, bound, stop=True):
    """The size or domain-size search at one depth and its nodes: under
    the bound, which stops it at its first witness, or without ``stop`` as
    it was before that, minimizing from a best of ``bound + 1``."""
    ticker = Ticker()
    config, best = (RunConfig(m, bound=bound), _INF) if stop else \
        (RunConfig(m), bound + 1)
    found = search_module._search_at_depth(q, config, structure, ticker,
                                           best)
    return found, ticker.count


def test_decision_mode_stops_at_its_first_witness():
    """Under a bound the searches return the first proof they find within
    it.  At the SAT reductions' stated bounds that is the minimizing run's
    proof, byte for byte, found in at most the nodes of a search that
    minimizes within the bound.  On random knowledge bases a decision is
    ``found`` exactly where the certified minimum is within the bound,
    each witness validates within the bound, though not always at the
    minimum, and a search at one depth finds a witness where the search
    that minimizes within the bound does, in at most its nodes."""
    rng = random.Random(20261030)
    left = {True: 6, False: 6}
    fewer = 0
    while any(left.values()):
        clauses = [[rng.choice((1, -1)) * rng.randint(1, 3)
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(2, 4))]
        sat, sat_cq = gen_sat(clauses), gen_sat_cq(clauses)
        verdict = brute_force_sat(map(frozenset, sat.bounds["clauses"]),
                                  sat.bounds["k"])
        if not left[verdict]:
            continue
        left[verdict] -= 1
        for inst, m, key, deriver in (
                (sat, Measure.SIZE, "size", "sk"),
                (sat, Measure.DOMAIN_SIZE, "domain", "sk"),
                (sat_cq, Measure.TREE_SIZE, "cq_tree", "cq")):
            bound = inst.bounds[key]
            config = RunConfig(m, deriver=deriver)
            least = bounded_search(inst.kb, inst.query, config)
            got = bounded_search(inst.kb, inst.query,
                                 replace(config, bound=bound))
            assert got.status == ("found" if verdict else "none"), clauses
            if verdict:
                assert proof_to_json(got.proof, inst.query) == \
                    proof_to_json(least.proof, inst.query), (clauses, m)
            if deriver == "cq":
                old = _frozen_bounded_search_cq(
                    inst.kb, inst.query, replace(config, bound=bound),
                    first_witness=False)
                assert got.nodes <= old.nodes, clauses
                fewer += got.nodes < old.nodes
                continue
            structure = saturate_kb(inst.kb, 0)
            (value, *chosen, _), nodes = _at_one_depth(
                inst.query, m, structure, bound)
            (old_value, *old_chosen, _), old_nodes = _at_one_depth(
                inst.query, m, structure, bound, stop=False)
            assert (value <= bound) == (old_value <= bound) == verdict
            if verdict:
                assert (value, chosen) == (old_value, old_chosen), clauses
            assert nodes <= old_nodes, (clauses, m)
            fewer += nodes < old_nodes
    assert fewer

    decided = fewer = 0
    slack = {"sk": 0, "cq": 0}
    for case in range(300):
        kb = _random_kb(rng)
        ceiling = rng.randint(0, 2)
        q = _query_into(rng, saturate_kb(kb, rng.randint(0, ceiling)))
        # a query-level minimum is certified on rule-free knowledge bases
        facts = make_kb((), kb.abox)
        q_facts = _query_into(rng, saturate_kb(facts, 0))
        for kb_, q_, m, deriver in ((kb, q, Measure.SIZE, "sk"),
                                    (kb, q, Measure.DOMAIN_SIZE, "sk"),
                                    (facts, q_facts, Measure.TREE_SIZE, "cq"),
                                    (facts, q_facts, Measure.SIZE, "cq")):
            config = RunConfig(m, deriver=deriver, depth_ceiling=ceiling)
            least = bounded_search(kb_, q_, config)
            if not least.complete:
                continue
            v = least.value if least.status == "found" else _INF
            bounds = {rng.randint(2, 8)} if v == _INF else \
                {b for b in (v - 1, v, v + 1, v + 3) if b > 1}
            for b in sorted(bounds):
                got = bounded_search(kb_, q_, replace(config, bound=b))
                assert (got.status == "found") == (v <= b), (case, m, b)
                decided += 1
                if got.status == "found":
                    assert got.value <= b and \
                        measure(got.proof, m) == got.value, (case, m, b)
                    ok, problems = validate_proof(got.proof, kb_, q_,
                                                  deriver)
                    assert ok, (case, m, b, problems)
                    slack[deriver] += got.value > v
                if deriver == "sk":
                    structure = saturate_kb(kb_, ceiling)
                    (value, *_), nodes = _at_one_depth(q_, m, structure, b)
                    (old_value, *_), old_nodes = _at_one_depth(
                        q_, m, structure, b, stop=False)
                    assert (value <= b) == (old_value <= b), (case, m, b)
                    assert nodes <= old_nodes, (case, m, b)
                    fewer += nodes < old_nodes
    assert decided > 2000 and all(slack.values()) and fewer


def test_none_is_certified_by_the_chase_where_saturation_keeps_growing():
    """Every merged witness spawns a new one, so no saturation is complete;
    the chase merges them eagerly and terminates."""
    doc = parse_document("rule: Q(x) -> exists y. u(x,y), Q(y)\n"
                         "rule: Q(x) -> x = e\n"
                         "fact: Q(d)\n"
                         "query: exists x. P(x), Q(x)\n")
    out = bounded_search(doc.kb, doc.queries[0], RunConfig(Measure.SIZE))
    assert out.status == "none" and out.complete


def test_chase_certifies_none_before_the_search_deepens(monkeypatch):
    """Three witnesses per element, all merged into e: the saturations grow
    as 3^depth, so the chase is asked before the second one."""
    doc = parse_document("".join(
        f"rule: Q(x) -> exists y. r{i}(x,y), Q(y)\n" for i in (1, 2, 3))
        + "rule: Q(x) -> x = e\nfact: Q(d)\nquery: exists x. P(x)\n")
    depths = []
    real = saturate_kb

    def counting(kb, depth, **kwargs):
        depths.append(depth)
        return real(kb, depth, **kwargs)

    monkeypatch.setattr("hornexplain.search.saturate_kb", counting)
    for m in Measure:
        depths.clear()
        out = bounded_search(doc.kb, doc.queries[0],
                             RunConfig(m, max_seconds=10.0))
        assert out.status == "none" and out.complete, m
        assert depths == [0], (m, depths)


def test_no_none_for_a_query_naming_a_replaced_constant():
    """d = e replaces d by e, and no rule rewrites e back to d: the query
    is entailed but has no sk proof, so nothing certifies ``none``."""
    doc = parse_document("rule: P(x) -> x = e\nfact: P(d)\nfact: v(e,e)\n"
                         "query: v(e,d)\n")
    for config in (RunConfig(Measure.SIZE), RunConfig(Measure.SIZE, 5)):
        out = bounded_search(doc.kb, doc.queries[0], config)
        assert out.status == "exhausted" and not out.complete, config
    assert entails(doc.kb, doc.queries[0]).verdict == "yes"


def test_found_proofs_never_need_the_chase(ex1, monkeypatch):
    def no_chase(*args, **kwargs):
        raise AssertionError("the search ran the chase")

    monkeypatch.setattr("hornexplain.search._chase_verdict", no_chase)
    inst = gen_el_tree(3)
    for kb, q in (ex1, (inst.kb, inst.query)):
        for m in Measure:
            result = explain(kb, q, RunConfig(measure=m, algo="exact"))
            assert result.status == "found", m


def test_search_verdicts_agree_with_the_chase():
    """found, none and exhausted go with the chase's yes, no and unknown.

    The sk calculus rewrites an equality between constants one way only, so
    a query naming the replaced constant can lack a proof that the chase,
    reading the query modulo merges, entails; there the search must say
    ``exhausted``, never ``none``.
    """
    rng = random.Random(20261018)
    cases = []
    for _ in range(800):
        kb = _random_kb(rng)
        cases.append((kb, _random_query(rng), rng.choice(list(Measure)),
                      rng.randint(1, 4)))
    # few random queries match; these are drawn from the saturation at a
    # depth within the ceiling, so they all do
    rng = random.Random(20261025)
    for _ in range(800):
        kb = _random_kb(rng)
        ceiling = rng.randint(1, 4)
        q = _query_into(rng, saturate_kb(kb, rng.randint(0, ceiling)))
        cases.append((kb, q, rng.choice(list(Measure)), ceiling))
    for case, (kb, q, m, ceiling) in enumerate(cases):
        out = bounded_search(kb, q, RunConfig(m, depth_ceiling=ceiling))
        verdict = entails(kb, q, ceiling=ceiling).verdict
        if out.status == "found":
            ok, problems = validate_proof(out.proof, kb, q)
            assert ok, (case, problems)
            assert verdict == "yes", case
            continue
        replaced = {src for src, _ in chase(kb, ceiling).equalities}
        if out.status == "exhausted" and verdict == "yes" and any(
                t in replaced for a in q.atoms for t in atom_terms(a)):
            continue
        assert verdict == {"none": "no", "exhausted": "unknown"}[out.status], \
            (case, out.status, verdict)


def test_bounded_search_rejects_trivial_bounds():
    # and the settings no run has: an unknown algorithm or deriver, and
    # domain size for query-level proofs
    for settings in ({"bound": 1}, {"algo": "Exact"}, {"deriver": "ck"},
                     {"measure": Measure.DOMAIN_SIZE, "deriver": "cq"},
                     {"depth_ceiling": -1}):
        with pytest.raises(ValueError):
            RunConfig(**settings)
    # on every route, the polynomial ones included
    inst = gen_dllite_chain(5)
    for algo in ("auto", "poly", "exact"):
        with pytest.raises(ValueError):
            explain(inst.kb, inst.query,
                    RunConfig(measure=Measure.TREE_SIZE, bound=1, algo=algo))


def _value_or_inf(result):
    return _INF if result.value is None else result.value


def test_unique_label_restriction_changes_nothing(ex1):
    """One vertex per atom label, as the search keeps, against the frozen
    duplicate-tolerant reference over the structure at each ceiling."""
    kb, q = ex1
    for ceiling in range(5):
        structure = saturate_kb(kb, ceiling)
        for m in Measure:
            got = bounded_search(kb, q, RunConfig(m, depth_ceiling=ceiling))
            assert _value_or_inf(got) == \
                _duplicate_tolerant_min(structure, q, m), (ceiling, m)


def test_unique_label_restriction_changes_nothing_on_random_kbs():
    rng = random.Random(20261021)
    for case in range(100):
        kb = _random_kb(rng)
        ceiling = rng.randint(0, 2)
        structure = saturate_kb(kb, ceiling)
        q = _query_into(rng, structure)
        for m in Measure:
            got = bounded_search(kb, q, RunConfig(m, depth_ceiling=ceiling))
            assert _value_or_inf(got) == \
                _duplicate_tolerant_min(structure, q, m), (case, m)


def test_bounded_search_cq_sat_family():
    sat = gen_sat_cq([[1, -2], [2]])
    bound = sat.bounds["cq_tree"]
    found = bounded_search_cq(sat.kb, sat.query,
                              RunConfig(Measure.TREE_SIZE, bound=bound))
    assert found.status == "found"
    assert found.value <= bound
    ok, problems = validate_proof(found.proof, sat.kb, sat.query, "cq")
    assert ok, problems
    unsat = gen_sat_cq([[1], [-1]])
    none = bounded_search_cq(unsat.kb, unsat.query,
                             RunConfig(Measure.TREE_SIZE,
                                       bound=unsat.bounds["cq_tree"]))
    assert none.status == "none"


def test_bounded_search_cq_explores_rule_applications(ex1):
    kb, q = ex1
    out = bounded_search_cq(kb, q, RunConfig(Measure.TREE_SIZE,
                                             max_nodes=300_000,
                                             max_seconds=30.0))
    assert out.status == "found"
    assert out.value == 11    # four rewrites, one tautology, the goal
    ok, problems = validate_proof(out.proof, kb, q, "cq")
    assert ok, problems
    assert not out.complete   # move enumeration is capped with rules present


def test_the_cq_search_says_when_its_moves_run_out():
    """The forward closure never conjoins two queries, so it misses the
    proofs of dllite-chain 1 (tree size 17 in the sk search) without
    reaching a limit: the answer stays ``exhausted``, with that cause."""
    inst = gen_dllite_chain(1)
    result = explain(inst.kb, inst.query, RunConfig(
        measure=Measure.TREE_SIZE, algo="poly", deriver="cq"))
    assert (result.status, result.complete) == ("exhausted", False)
    assert result.nodes < 1000
    assert len(result.warnings) == 2
    assert "preconditions not met" in result.warnings[0]
    assert "ran out of moves, not budget" in result.warnings[1]


def test_bounded_search_cq_rejects_domain_size():
    sat = gen_sat_cq([[1]])
    with pytest.raises(ValueError, match="domain"):
        bounded_search_cq(sat.kb, sat.query,
                          RunConfig(Measure.DOMAIN_SIZE, bound=5))


# ---------------------------------------------------------------------------
# Budget trips: each phase that can run out ends the run as it says
# ---------------------------------------------------------------------------

_CHAIN = "rule: A(x) -> exists y. r(x,y), A(y)\nfact: A(a)\n"


def _doc(text: str):
    doc = parse_document(text)
    return doc.kb, doc.queries[0]


def _raise_budget(*args, **kwargs):
    raise BudgetExceeded("node limit")


def test_the_cq_search_running_out_while_matching_is_exhausted():
    """A budget of no nodes trips at the first match."""
    kb, q = _doc("fact: A(a)\nfact: B(a)\nquery: exists x. A(x), B(x)\n")
    result = bounded_search_cq(kb, q, RunConfig(Measure.TREE_SIZE,
                                                max_nodes=0))
    assert (result.status, result.complete) == ("exhausted", False)
    assert bounded_search_cq(kb, q, RunConfig(Measure.TREE_SIZE)).status \
        == "found"


def test_the_cq_search_running_out_in_its_forward_closure():
    """Without a rule-free match the run is exhausted; with one, that
    match's proof stands, uncertified."""
    kb, q = _doc(_CHAIN + "query: exists z. r(a,z)\n")
    result = bounded_search_cq(kb, q, RunConfig(Measure.TREE_SIZE,
                                                max_nodes=0))
    assert (result.status, result.complete) == ("exhausted", False)
    # the ABox match takes the one node; the closure's first pop trips
    kb, q = _doc(_CHAIN + "query: A(a)\n")
    result = bounded_search_cq(kb, q, RunConfig(Measure.TREE_SIZE,
                                                max_nodes=1))
    assert (result.status, result.value, result.complete) \
        == ("found", 1, False)
    ok, problems = validate_proof(result.proof, kb, q, "cq")
    assert ok, problems


def test_a_fold_that_runs_out_bounds_nothing_and_the_run_goes_on(
        monkeypatch):
    """Without its fold the search still certifies the chain's optimum, by
    the frontier of a deeper structure, but cannot refute a query the fold
    would: ``exhausted`` where the fold certifies ``none``."""
    config = RunConfig(Measure.SIZE, algo="exact")
    kb, q = _doc(_CHAIN + "query: exists z, w. r(a,z), r(z,w)\n")
    kb2, q2 = _doc(_CHAIN + "query: exists z. s(a,z)\n")
    with_fold = bounded_search(kb, q, config)
    refuted = bounded_search(kb2, q2, config)
    assert (refuted.status, refuted.complete) == ("none", True)
    asked = []

    def fold_runs_out(*args):
        asked.append(args)
        _raise_budget()

    monkeypatch.setattr(search_module, "equality_free_fold", fold_runs_out)
    result = bounded_search(kb, q, config)
    assert (result.status, result.value, result.complete) \
        == ("found", with_fold.value, True)
    result = bounded_search(kb2, q2, config)
    assert (result.status, result.complete) == ("exhausted", False)
    assert len(asked) == 2      # once per run


def test_running_out_in_the_frontier_bound_leaves_the_best_uncertified(
        ex1, monkeypatch):
    """Under size the frontier bound reads the least heights, which charge
    the run's clock."""
    kb, q = ex1
    config = RunConfig(Measure.SIZE, algo="exact")
    assert bounded_search(kb, q, config).complete
    monkeypatch.setattr(search_module, "min_heights", _raise_budget)
    result = bounded_search(kb, q, config)
    assert (result.status, result.value, result.complete) \
        == ("found", 12, False)


def test_explain_routes_and_falls_back(ex1):
    kb, q = ex1
    # poly requested on a fragment it does not support: warn and fall back
    result = explain(kb, q, RunConfig(measure=Measure.TREE_SIZE, algo="poly"))
    assert result.status == "found" and result.value == 23
    assert any("falling back" in w for w in result.warnings)
    # domain size on the example
    result = explain(kb, q, RunConfig(measure=Measure.DOMAIN_SIZE))
    assert result.value == 3

    inst = gen_dllite_chain(2)
    poly = explain(inst.kb, inst.query,
                   RunConfig(measure=Measure.TREE_SIZE, algo="auto"))
    assert poly.algorithm == "poly-dllite-tree"
    exact = explain(inst.kb, inst.query,
                    RunConfig(measure=Measure.TREE_SIZE, algo="exact"))
    assert poly.value == exact.value


def test_poly_for_the_cq_deriver_warns_before_the_exact_search():
    """The polynomial routes build sk proofs: with the cq deriver, --algo
    poly falls back as it does where a route's preconditions fail."""
    inst = gen_dllite_chain(1)
    result = explain(inst.kb, inst.query, RunConfig(
        measure=Measure.TREE_SIZE, algo="poly", deriver="cq"))
    assert result.algorithm == "exact"
    assert any("preconditions not met" in w for w in result.warnings)


def test_explain_reports_value_equal_to_measure(ex1):
    kb, q = ex1
    for m in (Measure.SIZE, Measure.TREE_SIZE, Measure.DOMAIN_SIZE):
        result = explain(kb, q, RunConfig(measure=m))
        got = {Measure.SIZE: proof_size, Measure.TREE_SIZE: tree_size,
               Measure.DOMAIN_SIZE: domain_size}[m](result.proof)
        assert got == result.value


def test_explain_tree_size_on_a_long_fact_chain():
    """Proof walks are iterative: 300 levels are past the recursion limit."""
    inst = gen_el_abox(300)
    result = explain(inst.kb, inst.query, RunConfig(measure=Measure.TREE_SIZE))
    assert result.status == "found"
    assert result.value == 9 * 2 ** 300 - 8
    ok, problems = validate_proof(result.proof, inst.kb, inst.query)
    assert ok, problems


def test_strict_cg_adds_the_identity_tail():
    inst = gen_el_abox(1)
    default = explain(inst.kb, inst.query,
                      RunConfig(measure=Measure.SIZE, algo="exact"))
    strict = explain(inst.kb, inst.query,
                     RunConfig(measure=Measure.SIZE, algo="exact",
                               strict_cg=True))
    assert strict.value == default.value + 2
    ok, problems = validate_proof(strict.proof, inst.kb, inst.query, "sk")
    assert ok, problems


def test_goal_tail_size_counts_the_vertices_add_goal_tail_adds():
    a, b, x = ConceptAtom("A", Const("a")), ConceptAtom("B", Const("a")), \
        Var("x")
    for goal in (BooleanCQ((a,), ()), BooleanCQ((a, b), ()),
                 BooleanCQ((ConceptAtom("A", x),), (x,)),
                 BooleanCQ((ConceptAtom("A", x), b), (x,))):
        for strict in (False, True):
            proof = ProofGraph()
            proof.add_vertex(a)
            proof.add_vertex(b)
            add_goal_tail(proof, [0, 1][:len(goal.atoms)], goal, strict)
            assert len(proof.vertices) - 2 == goal_tail_size(goal, strict)


# ---------------------------------------------------------------------------
# Frozen reference: the cover search as it was before it shared one state
# and a trail between its nodes, copying its state into every child and
# finding cycles by a search per premise
# ---------------------------------------------------------------------------

@dataclass
class _RefCoverState:
    members: dict
    pending: list
    arcs: dict
    terms: set


def _ref_reaches(arcs, start, goal):
    stack = [start]
    seen = set()
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        if v in seen:
            continue
        seen.add(v)
        stack.extend(arcs.get(v, ()))
    return False


def _ref_cover_min(structure, targets, kind, limit, ticker):
    init_members = {}
    init_terms = set()
    init_pending = []
    for vid in dict.fromkeys(targets):
        init_members[vid] = None
        init_terms |= ground_terms_of_label(structure.vertices[vid])
        if vid not in structure.leaf_ids:
            init_pending.append(vid)
    best = [limit, None]
    stack = [iter((_RefCoverState(init_members, init_pending, {},
                                  init_terms),))]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        ticker.tick()
        value = _ref_cover_value(state, kind)
        if value >= best[0]:
            continue
        if state.pending:
            stack.append(_ref_cover_children(structure, state, kind, best))
        else:
            best[:] = value, state.members
    if best[1] is None:
        return None
    return best[0], best[1]


def _ref_cover_value(state, kind):
    return len(state.members) if kind is Measure.SIZE else len(state.terms)


def _ref_cover_children(structure, state, kind, best):
    state.pending.sort(key=structure.keys.__getitem__, reverse=True)
    vid = state.pending.pop()
    for eidx in structure.in_edges[vid]:
        nxt = _RefCoverState(dict(state.members), list(state.pending),
                             dict(state.arcs), state.terms)
        nxt.members[vid] = eidx
        ok = True
        for p in structure.edges[eidx].premises:
            if nxt.members.get(p) is not None and _ref_reaches(nxt.arcs, vid,
                                                               p):
                ok = False
                break
            nxt.arcs[p] = nxt.arcs.get(p, frozenset()) | {vid}
            if p not in nxt.members:
                nxt.members[p] = None
                if kind is Measure.DOMAIN_SIZE:
                    nxt.terms = nxt.terms | ground_terms_of_label(
                        structure.vertices[p])
                if p not in structure.leaf_ids:
                    nxt.pending.append(p)
                if _ref_cover_value(nxt, kind) >= best[0]:
                    ok = False
                    break
        if ok:
            yield nxt


def _cover_answer(result):
    """A cover search's value and chosen map, in the map's order."""
    return None if result is None else (result[0], list(result[1].items()))


def _assert_cover_agrees(structure, targets, kind, limit, ticker=None,
                         terms_of=ground_terms_of_label):
    """The cover search against the frozen reference on one call: the same
    value, chosen map and ticks.  Returns the search's answer."""
    ticker = ticker or Ticker()
    want_ticks = Ticker()
    want = _ref_cover_min(structure, targets, kind, limit, want_ticks)
    before = ticker.count
    got = _cover_min(structure, targets, kind, limit, ticker, terms_of)
    assert _cover_answer(got) == _cover_answer(want), (targets, kind, limit)
    assert ticker.count - before == want_ticks.count, (targets, kind, limit)
    return got


def _deck_family_runs(ex1):
    """(kb, query, config) of the exact cover-search runs over the decks'
    generator families."""
    sat = [[[1, 2], [1, -2], [-1, 3], [-1, -3, 4], [-4]],
           [[1, -2], [2, 3], [-1, -3]], [[-1, 2, 3], [1, -3], [-2, 3]]]
    yield from ((*ex1, RunConfig(m, algo="exact"))
                for m in (Measure.SIZE, Measure.DOMAIN_SIZE))
    for inst, ceilings in [(gen_el_tree(3), [None]), (gen_el_tree(5), [None]),
                           (gen_hornalc_counter(1), [3, 4, 5]),
                           (gen_el_abox(10), [None]),
                           (gen_el_abox(24), [None]), (gen_el_abox(60), [None]),
                           (gen_dllite_chain(20), [None]),
                           (gen_dllite_chain(49), [None]),
                           (gen_dllite_chain(120), [None])]:
        for m in (Measure.SIZE, Measure.DOMAIN_SIZE):
            for ceiling in ceilings:
                yield inst.kb, inst.query, RunConfig(
                    m, algo="exact", depth_ceiling=ceiling)
    for clauses in sat:
        inst = gen_sat(clauses)
        yield inst.kb, inst.query, RunConfig(Measure.SIZE,
                                             inst.bounds["size"])
        yield inst.kb, inst.query, RunConfig(Measure.DOMAIN_SIZE,
                                             inst.bounds["domain"])


def test_the_cover_search_agrees_with_its_frozen_copy_on_the_decks(
        ex1, monkeypatch):
    """Every cover call ``explain`` makes on the decks' generator families
    gives the frozen copy's value, chosen map and ticks."""
    calls = []

    def checked(structure, targets, kind, limit, ticker, terms_of):
        calls.append(kind)
        return _assert_cover_agrees(structure, targets, kind, limit, ticker,
                                    terms_of)

    for kb, q, config in _deck_family_runs(ex1):
        monkeypatch.undo()
        want = explain(kb, q, config)
        monkeypatch.setattr("hornexplain.search._cover_min", checked)
        got = explain(kb, q, config)
        assert (got.status, got.value, got.nodes) == \
            (want.status, want.value, want.nodes)
    assert len(calls) >= 40 and len(set(calls)) == 2


def _random_hypergraph(rng):
    """A small structure of concept atoms whose derivations close cycles
    often: every non-leaf vertex has one to three in-edges, each from one
    to three premises drawn from all vertices, itself included."""
    structure = FiniteStructure()
    n = rng.randint(3, 9)
    for i in range(n):
        structure.add_vertex(ConceptAtom(f"A{i}", Const(rng.choice("abcd"))))
    structure.leaf_ids.update(range(rng.randint(1, n // 2)))
    for v in range(len(structure.leaf_ids), n):
        premise_sets = {tuple(rng.choice(range(n))
                              for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 3))}
        for premises in premise_sets:
            structure.add_edge(premises, v, Schema.MP)
    return structure


def test_the_cover_search_agrees_with_its_frozen_copy_on_random_kbs():
    """On the saturations of random knowledge bases and on random cyclic
    structures, for random target sets, under size and domain size, at no
    limit, at the optimum and one above it: the frozen copy's value, chosen
    map and ticks."""
    rng = random.Random(33)
    found = 0
    for case in range(3000):
        if case % 2:
            structure = _random_hypergraph(rng)
            atoms = list(structure.vertices)
        else:
            structure = saturate_kb(_random_kb(rng), rng.choice([0, 1, 2]))
            atoms = list(structure.atom_ids.values())
        targets = [rng.choice(atoms) for _ in range(rng.randint(1, 3))]
        for kind in (Measure.SIZE, Measure.DOMAIN_SIZE):
            best = _assert_cover_agrees(structure, targets, kind, _INF)
            if best is not None:
                found += 1
                _assert_cover_agrees(structure, targets, kind, best[0])
                _assert_cover_agrees(structure, targets, kind, best[0] + 1)
    assert found > 3000


def test_cover_search_does_not_recurse_per_proof_level():
    """A proof 995 levels deep: no recursion per level, and no copy of the
    search's state per node (copies took a peak of about 79 MB here)."""
    inst = gen_dllite_chain(330)
    tracemalloc.start()
    try:
        result = explain(inst.kb, inst.query,
                         RunConfig(measure=Measure.SIZE, algo="exact"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.status, result.value, result.nodes) == ("found", 1991, 995)
    assert result.complete
    assert peak < 16 * 2 ** 20, peak


def test_saturation_keeps_the_cut_rule_applications_as_its_frontier(ex1):
    kb, _ = ex1
    shallow = saturate_kb(kb, 0)
    assert shallow.frontier and not shallow.complete
    for premises in shallow.frontier:
        *atoms, rule = premises
        assert rule in shallow.leaf_ids
        assert all(isinstance(shallow.vertices[p], ATOM_TYPES) for p in atoms)
    chain = saturate_kb(_chain_kb(3), 0)
    assert chain.complete and not chain.frontier


def _floor_only(structure, *args):
    return structure.depth_bound + 2


def test_frontier_bound_changes_no_answer(monkeypatch):
    """The frontier bound against the bare depth argument (d + 2): the same
    answers and proofs, never more nodes, never less certified.  Only a
    ``none`` within a bound may replace an ``exhausted``, and then the
    bare argument confirms it once the ceiling allows depth bound - 1."""
    rng = random.Random(20261019)
    for case in range(1500):
        kb = _random_kb(rng)
        q = _random_query(rng)
        config = RunConfig(rng.choice(list(Measure)),
                           rng.choice([None] + list(range(2, 13))),
                           depth_ceiling=rng.choice([None, 1, 2, 3, 4, 5, 6]))
        monkeypatch.undo()
        got = bounded_search(kb, q, config)
        monkeypatch.setattr("hornexplain.search._frontier_bound", _floor_only)
        want = bounded_search(kb, q, config)
        assert got.nodes <= want.nodes, case
        assert got.complete or not want.complete, case
        if (got.status, want.status) == ("none", "exhausted"):
            assert got.complete and config.bound is not None, case
            deep = bounded_search(kb, q, replace(
                config, depth_ceiling=config.bound))
            assert deep.status == "none", case
            continue
        assert (got.status, got.value) == (want.status, want.value), case
        if got.proof is not None:
            assert proof_to_json(got.proof, q) == proof_to_json(want.proof, q)


def _uncut(patterns, index, subst=None, prune=None):
    """The matcher with the search's match-level cut switched off."""
    return match_conjunction(patterns, index, subst)


def _random_cnf(rng):
    k = rng.randint(2, 4)
    return [[rng.choice((1, -1)) * rng.randint(1, k)
             for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 4))]


def test_match_level_cut_changes_no_answer(monkeypatch):
    """Branch-and-bound over query matches against the plain enumeration:
    the same status, value and proof bytes on random KBs and on the SAT
    reductions, whose verdicts at the stated bounds follow satisfiability.
    Under tree size the sk search enumerates no matches (see
    ``test_the_least_step_changes_no_answer``); the cq search still cuts."""
    rng = random.Random(20261020)
    cases = []
    for _ in range(300):
        config = RunConfig(rng.choice(list(Measure)),
                           rng.choice([None] + list(range(2, 13))))
        cases.append((_random_kb(rng), _random_query(rng), config, "sk",
                      rng.choice([None, 1, 2, 3, 4]), None))
    for _ in range(30):
        clauses = _random_cnf(rng)
        sat, sat_cq = gen_sat(clauses), gen_sat_cq(clauses)
        verdict = brute_force_sat(map(frozenset, sat.bounds["clauses"]),
                                  sat.bounds["k"])
        for inst, m, key, deriver in (
                (sat, Measure.SIZE, "size", "sk"),
                (sat, Measure.DOMAIN_SIZE, "domain", "sk"),
                (sat_cq, Measure.TREE_SIZE, "cq_tree", "cq")):
            bound = inst.bounds[key]
            cases.append((inst.kb, inst.query, RunConfig(m, bound),
                          deriver, None, verdict))
            cases.append((inst.kb, inst.query,
                          RunConfig(m, rng.choice([None, bound - 1])),
                          deriver, None, None))
    # two matches whose tree sizes differ by one, the cheaper one second
    doc = parse_document("rule: A(x), E(x) -> C(x)\nrule: B(x) -> C(x)\n"
                         "fact: A(a)\nfact: E(a)\nfact: B(b)\nfact: r(a,a)\n"
                         "fact: r(b,b)\nquery: exists x. C(x), r(x,x)\n")
    for m in Measure:
        for bound in (None, 5, 6):
            cases.append((doc.kb, doc.queries[0], RunConfig(m, bound),
                          "sk", None, None))
    for case, (kb, q, config, deriver, ceiling, verdict) in enumerate(cases):
        config = replace(config, deriver=deriver, depth_ceiling=ceiling)
        monkeypatch.undo()
        got = bounded_search(kb, q, config)
        monkeypatch.setattr("hornexplain.search.match_conjunction", _uncut)
        want = bounded_search(kb, q, config)
        assert (got.status, got.value, got.complete) == \
            (want.status, want.value, want.complete), case
        if got.proof is not None:
            assert proof_to_json(got.proof, q) == proof_to_json(want.proof, q)
        if verdict is not None:
            assert got.status == ("found" if verdict else "none"), case


def test_the_least_step_changes_no_answer(monkeypatch):
    """The exact search's least-match step against the frozen enumeration
    under tree size, on random KBs with and without a bound and on the
    generators: the same status, value and certificate, and proofs of the
    same tree size that validate.  Their JSON differs only on ties where
    the least assignment (variables in name order) is not the matcher's
    first match: once here, v(x1,x0) over the facts v(d,e) and v(e,d),
    where x0 = d comes first."""
    rng = random.Random(23)
    cases = []
    for case in range(1500):
        kb = _random_dllite_kb(rng) if case % 2 else _random_kb(rng)
        ceiling = rng.randint(1, 4)
        q = _query_into(rng, saturate_kb(kb, rng.randint(0, ceiling))) \
            if case % 5 else _random_query(rng)
        bound = rng.choice([None, None, rng.randint(2, 12)])
        cases.append((kb, q, bound, ceiling))
    for inst in ([gen_el_tree(n) for n in (1, 2, 3)]
                 + [gen_el_abox(n) for n in (1, 4)]
                 + [gen_dllite_chain(n) for n in (0, 3)]
                 + [gen_dllite_tree_query(4, seed) for seed in range(6)]
                 + [gen_hornalc_counter(1)]):
        cases += [(inst.kb, inst.query, None, None),
                  (inst.kb, inst.query, 20, None)]
    statuses = {}
    ties = []
    for case, (kb, q, bound, ceiling) in enumerate(cases):
        config = RunConfig(Measure.TREE_SIZE, bound, depth_ceiling=ceiling)
        monkeypatch.undo()
        got = bounded_search(kb, q, config)
        monkeypatch.setattr("hornexplain.search._search_at_depth",
                            _enumerated_at_depth)
        want = bounded_search(kb, q, config)
        assert (got.status, got.value, got.complete) == \
            (want.status, want.value, want.complete), case
        statuses[got.status] = statuses.get(got.status, 0) + 1
        if got.proof is None:
            continue
        ok, problems = validate_proof(got.proof, kb, q, "sk")
        assert ok, (case, problems)
        assert tree_size(got.proof) == tree_size(want.proof) == got.value
        if proof_to_json(got.proof, q) != proof_to_json(want.proof, q):
            ties.append(case)
    assert min(statuses.values()) > 0 and len(statuses) == 3, statuses
    assert len(ties) == 1, ties


def test_match_level_cut_fires_on_an_unsatisfiable_formula(monkeypatch):
    """Fewer cover searches than complete query matches: most partial
    matches already reach the bound."""
    inst = gen_sat([[1, 2], [1, -2], [-1, 3], [-1, -3, 4], [-4]])
    matches = sum(1 for _ in match_conjunction(
        inst.query.atoms, saturate_kb(inst.kb, 0).index))
    calls = []
    real = search_module._cover_min

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr("hornexplain.search._cover_min", counting)
    out = bounded_search(inst.kb, inst.query,
                         RunConfig(Measure.SIZE, inst.bounds["size"]))
    assert out.status == "none" and out.complete
    assert len(calls) < matches


def test_counter_size_optimum_is_certified_without_a_ceiling():
    inst = gen_hornalc_counter(1)
    result = explain(inst.kb, inst.query,
                     RunConfig(measure=Measure.SIZE, algo="exact"))
    assert (result.status, result.value) == ("found", 22)
    assert result.complete and result.nodes <= 1000


def test_running_example_tree_size_stops_at_the_frontier(ex1, monkeypatch):
    kb, q = ex1
    depths = []
    real = saturate_kb

    def counting(kb, depth, **kwargs):
        depths.append(depth)
        return real(kb, depth, **kwargs)

    monkeypatch.setattr("hornexplain.search.saturate_kb", counting)
    result = bounded_search(kb, q, RunConfig(Measure.TREE_SIZE))
    assert (result.status, result.value, result.complete) == ("found", 23,
                                                             True)
    # the fold's optimum is 23 as well: certified at depth 2, which finds it
    assert len(depths) <= 3, depths


def test_the_fold_certifies_the_counter_at_the_depth_that_finds_it(
        monkeypatch):
    inst = gen_hornalc_counter(1)
    depths = []
    real = saturate_kb

    def counting(kb, depth, **kwargs):
        depths.append(depth)
        return real(kb, depth, **kwargs)

    monkeypatch.setattr("hornexplain.search.saturate_kb", counting)
    for m, value in ((Measure.SIZE, 22), (Measure.TREE_SIZE, 60)):
        depths.clear()
        result = explain(inst.kb, inst.query,
                         RunConfig(measure=m, algo="exact"))
        assert (result.status, result.value, result.complete) == \
            ("found", value, True), m
        assert depths == [0, 1], (m, depths)


def _no_fold(*args, **kwargs):
    return None


def test_the_fold_changes_no_answer(monkeypatch):
    """The search with its fold against the search without one: the same
    status, value and proof bytes, never less certified.  Only a query
    without a match in the fold may turn ``exhausted`` into ``none``.

    Under a bound that the first depth's proof meets, existence is settled
    before the fold is asked: a node budget that this depth uses up leaves
    that result as it is, certified included."""
    rng = random.Random(20261026)
    cases = []
    for case in range(600):
        kb = _random_kb(rng)
        ceiling = rng.randint(1, 4)
        q = _query_into(rng, saturate_kb(kb, rng.randint(0, ceiling))) \
            if case % 3 else _random_query(rng)
        for m in Measure:
            for bound in (None, rng.randint(2, 12)):
                cases.append((kb, q, RunConfig(m, bound,
                                               depth_ceiling=ceiling)))
    changed = settled = 0
    for case, (kb, q, config) in enumerate(cases):
        monkeypatch.undo()
        got = bounded_search(kb, q, config)
        monkeypatch.setattr("hornexplain.search.equality_free_fold",
                            _no_fold)
        want = bounded_search(kb, q, config)
        assert got.complete or not want.complete, case
        if got.status != want.status:
            assert (want.status, got.status) == ("exhausted", "none"), case
            assert got.complete and refutes(equality_free_fold(kb), q), case
            changed += 1
            continue
        assert got.value == want.value, case
        if got.proof is not None:
            assert proof_to_json(got.proof, q) == proof_to_json(want.proof, q)
        if config.bound is None:
            continue
        first = bounded_search(kb, q, replace(config, depth_ceiling=0))
        if first.status == "found":
            # no node left for a fold search
            tight = replace(config, max_nodes=first.nodes)
            monkeypatch.undo()
            got = bounded_search(kb, q, tight)
            assert (got.status, got.value, got.complete) == \
                ("found", first.value, True), case
            settled += 1
    assert changed and settled


def test_max_seconds_bounds_the_polynomial_route():
    # the poly route runs el-tree 12 in about 0.3 s; 16 takes about 7 s
    inst = gen_el_tree(16)
    start = time.monotonic()
    result = explain(inst.kb, inst.query,
                     RunConfig(measure=Measure.TREE_SIZE, algo="poly",
                               max_seconds=0.5))
    assert time.monotonic() - start < 0.5 + 1.5
    assert result.status == "exhausted" and not result.complete
    assert any("stopped" in w for w in result.warnings)


def _expired() -> Ticker:
    """A budget whose clock ran out before it was handed over."""
    return Ticker(max_seconds=-1.0)


def test_every_phase_stops_at_an_expired_clock():
    """Each phase reads the run's clock on its first charge, so an expired
    budget stops it at once: the saturation, the fold, the unfolding, the
    proof it assembles, the proof read off a fold without placeholders,
    and the chase."""
    inst = gen_el_tree(3)
    kb, q = inst.kb, inst.query
    comp = compress_el(kb)
    values, chosen = dp_min_tree(comp.structure)
    sigma = next(least_matches(comp.structure, values, q))
    unfold = _Unfold(comp, kb, values, chosen, Ticker())
    targets = unfold.match(q, sigma)
    assert targets
    unfold.ticker = _expired()
    abox = gen_el_abox(3)
    flat = compress_el(abox.kb)
    assert not flat.placeholders
    flat_values, flat_chosen = dp_min_tree(flat.structure)
    flat_sigma = next(least_matches(flat.structure, flat_values, abox.query))
    for phase in (lambda: saturate_kb(kb, 2, _expired()),
                  lambda: compress_el(kb, _expired()),
                  lambda: decompress(comp, kb, q, values, chosen, [sigma],
                                     ticker=_expired()),
                  lambda: unfold.proof(targets, q, False),
                  lambda: decompress(flat, abox.kb, abox.query, flat_values,
                                     flat_chosen, [flat_sigma],
                                     ticker=_expired()),
                  lambda: chase(kb, 1, _expired())):
        with pytest.raises(BudgetExceeded, match="time limit"):
            phase()


def test_the_chase_certificate_spends_the_run_budget(monkeypatch):
    """The search asks the chase under its own ticker: the run's clock,
    nodes and atom cap; an expired one certifies nothing."""
    doc = parse_document("rule: Q(x) -> exists y. u(x,y), Q(y)\n"
                         "rule: Q(x) -> x = e\n"
                         "fact: Q(d)\n"
                         "query: exists x. P(x), Q(x)\n")
    kb, q = doc.kb, doc.queries[0]
    assert _chase_verdict(kb, q, None, _expired()).verdict == "unknown"
    asked = []

    def spy(kb, q, ceiling, ticker):
        asked.append(ticker)
        return _chase_verdict(kb, q, ceiling, ticker)

    monkeypatch.setattr("hornexplain.search._chase_verdict", spy)
    out = bounded_search(kb, q, RunConfig(Measure.SIZE, max_nodes=8000))
    assert (out.status, out.complete) == ("none", True)
    [ticker] = asked
    assert ticker.max_atoms == 8000 // 4 and ticker.count == out.nodes


# ---------------------------------------------------------------------------
# Proof numbering: ids read off the proof, in postorder from its sink
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def _in_postorder(p) -> bool:
    """Whether the vertices are numbered 0, 1, ... in postorder from the
    sink, premises in edge order."""
    return list(_postorder(p.incoming(), [p.sink()])) \
        == list(range(len(p.vertices)))


def _shuffled(p, rng):
    """The proof with its ids drawn at random and its edges reordered."""
    ids = dict(zip(p.vertices, rng.sample(range(10 * len(p.vertices)),
                                          len(p.vertices))))
    vertices = list(p.vertices.items())
    rng.shuffle(vertices)
    edges = [ProofEdge(tuple(ids[q] for q in e.premises), ids[e.conclusion],
                       e.schema) for e in p.edges]
    rng.shuffle(edges)
    return ProofGraph({ids[v]: label for v, label in vertices}, edges)


def _reassembled(p):
    """The proof numbered afresh by the one assembler, from its sink."""
    derived = {e.conclusion: e for e in p.edges}

    def derive(v):
        e = derived.get(v)
        if e is None:
            return p.vertices[v], (), None
        return p.vertices[v], e.premises, e.schema

    return assemble_proof([p.sink()], derive)


@functools.cache
def _emitted_sk_proofs():
    """(label, proof, goal) of the sk proofs that the exact search, the
    polynomial routes and the cq->sk translation emit on random KBs and on
    each generator."""
    rng = random.Random(20261019)
    cases = []
    for case in range(500):
        kb = _random_kb(rng)
        q = _query_into(rng, saturate_kb(kb, rng.randint(0, 2))) \
            if case % 2 else _random_query(rng)
        cases.append((f"random-{case}", kb, q,
                      rng.choice(list(Measure)),
                      rng.choice(["auto", "exact", "poly"])))
    for name, inst in (("el-tree-3", gen_el_tree(3)),
                       ("dllite-chain-6", gen_dllite_chain(6)),
                       ("el-abox-8", gen_el_abox(8)),
                       ("counter-1", gen_hornalc_counter(1)),
                       ("tree-query-4", gen_dllite_tree_query(4, seed=10))):
        for m in Measure:
            for algo in ("exact", "poly"):
                cases.append((name, inst.kb, inst.query, m, algo))
    out = []
    for name, kb, q, m, algo in cases:
        result = explain(kb, q, RunConfig(measure=m, algo=algo,
                                          max_nodes=20_000, max_seconds=5))
        if result.status != "found":
            continue
        label = f"{name} {m.value} {result.algorithm}"
        out.append((label, result.proof, q))
        if len(out) % 4 == 0:
            cq = transform_sk_to_cq(result.proof, kb)
            out.append((label + " cq->sk", transform_cq_to_sk(cq, kb), q))
    return out


def test_emitted_sk_proofs_are_numbered_in_postorder_from_their_sink():
    proofs = _emitted_sk_proofs()
    kinds = {label.split(" ", 2)[2] for label, _, _ in proofs}
    assert {"exact", "poly-el-tree", "poly-dllite-tree", "poly-dllite-size",
            "exact cq->sk"} <= kinds, kinds
    assert len(proofs) > 300
    for label, p, _ in proofs:
        assert _in_postorder(p), label


def test_a_proof_with_shuffled_ids_reassembles_to_the_same_json():
    rng = random.Random(20261020)
    for label, p, q in _emitted_sk_proofs():
        assert proof_to_json(_reassembled(_shuffled(p, rng)), q) \
            == proof_to_json(p, q), label


def test_a_proof_with_shuffled_ids_translates_to_the_same_cq_json():
    """The sk->cq translation reads a proof from its sink, so its cq proof
    depends on neither the vertex ids nor the edge order."""
    rng = random.Random(20261021)
    cases = [(inst.kb, inst.query) for inst in (
        gen_el_tree(3), gen_dllite_chain(6), gen_el_abox(8),
        gen_hornalc_counter(1), gen_dllite_tree_query(4, seed=10))]
    while len(cases) < 150:
        kb = _random_kb(rng)
        cases.append((kb, _query_into(rng, saturate_kb(kb,
                                                       rng.randint(0, 2)))))
    translated = 0
    for case, (kb, q) in enumerate(cases):
        for m in (Measure.SIZE, Measure.TREE_SIZE):
            result = explain(kb, q, RunConfig(measure=m, max_nodes=20_000,
                                              max_seconds=5))
            if result.status != "found":
                continue
            cq = proof_to_json(transform_sk_to_cq(result.proof, kb), q)
            for _ in range(3):
                shuffled = _shuffled(result.proof, rng)
                assert proof_to_json(transform_sk_to_cq(shuffled, kb), q) \
                    == cq, (case, m)
            translated += 1
    assert translated >= 150


def test_the_golden_sk_proofs_are_numbered_in_postorder_from_their_sink():
    checked = 0
    for path in sorted(GOLDEN.glob("*.json")):
        p, _ = proof_from_json(path.read_text(encoding="utf-8"))
        if p.deriver() == "sk":
            assert _in_postorder(p), path.name
            checked += 1
    assert checked >= 10


@pytest.mark.parametrize("cycle", [["A"], ["A", "B"]])
def test_the_assembler_rejects_a_cyclic_derivation(cycle):
    """A derives B derives ... A, or A derives itself."""
    def derive(node):
        after = cycle[(cycle.index(node) + 1) % len(cycle)]
        return ConceptAtom(node, Const("a")), [after], Schema.MP

    with pytest.raises(KBError, match="cyclic"):
        assemble_proof(["A"], derive)


def _frozen_bounded_search_cq(kb, q, config, first_witness=True):
    """Frozen reference: ``bounded_search_cq`` on a rule-free knowledge base
    as it was before its bound counted the tautology finish, with one final
    step after the Ce chain whatever the partial match repeats.  Under a
    bound it stops at its first proof within it, as the search does, or
    without ``first_witness`` minimizes within the bound."""
    ticker = config.ticker()
    index = AtomIndex(kb.abox)
    best = None
    limit = config.bound + 1 if config.bound is not None else _INF
    tail = 1 if q.existential_vars else 0

    def prune(matched, order):
        cap = min(best[0], limit) if best else limit
        if cap == _INF:
            return False
        ticker.tick()
        distinct = len({a for a in matched if a is not None})
        return 2 * distinct - 1 + tail >= cap

    for sigma in match_conjunction(q.atoms, index, prune=prune):
        ticker.tick()
        grounds = [substitute_atom(a, sigma) for a in q.atoms]
        distinct = list(dict.fromkeys(grounds))
        use_taut = len(distinct) < len(grounds)
        value = 2 * len(distinct) - 1 + (
            2 if use_taut else bool(q.existential_vars))
        if value < (best[0] if best else limit) and value < limit:
            best = (value, sigma, use_taut)
            if first_witness and config.bound is not None:
                break
    if best is None:
        return search_module._result(config, ticker, "none", complete=True)
    value, sigma, use_taut = best
    proof = search_module._assemble_cq(q, sigma, use_taut)
    got = tree_size(proof) if config.measure is Measure.TREE_SIZE \
        else proof_size(proof)
    return search_module._result(config, ticker, "found", proof, got, True)


def _repeating_query_case(rng):
    """A rule-free knowledge base over a, b and c, and a query of 2-5 atoms
    over A, B and r, so that matches often repeat an atom."""
    terms = ["a", "b", "c"]
    lines = []
    for _ in range(rng.randint(1, 7)):
        if rng.random() < 0.4:
            lines.append(f"fact: {rng.choice('AB')}({rng.choice(terms)})")
        else:
            lines.append(f"fact: r({rng.choice(terms)},{rng.choice(terms)})")
    names = ["x", "y", "z"][:rng.randint(1, 3)]
    pool = names * 2 + [rng.choice(terms)]
    atoms = [f"{rng.choice('AB')}({rng.choice(pool)})" if rng.random() < 0.4
             else f"r({rng.choice(pool)},{rng.choice(pool)})"
             for _ in range(rng.randint(2, 5))]
    used = [v for v in names if any(f"({v}" in a or f",{v})" in a
                                    for a in atoms)]
    prefix = f"exists {', '.join(used)}. " if used else ""
    doc = parse_document("\n".join(dict.fromkeys(lines)) +
                         f"\nquery: {prefix}{', '.join(atoms)}\n")
    return doc.kb, doc.queries[0]


def test_the_repeat_bound_changes_no_answer_and_adds_no_node():
    """The query-level search's bound counts a tautology finish once a
    partial match repeats an atom; against the frozen search without that,
    on the SAT reduction over 3-4 variables (satisfiable and not) and on
    random rule-free knowledge bases whose queries repeat predicates, with
    and without a bound: the same status, value and proof bytes, and never
    more nodes."""
    rng = random.Random(20261028)
    cases = []
    # twelve satisfiable formulas and twelve unsatisfiable ones
    left = {True: 12, False: 12}
    while any(left.values()):
        k = rng.randint(3, 4)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, k)
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(2, 4))]
        inst = gen_sat_cq(clauses)
        verdict = brute_force_sat(map(frozenset, inst.bounds["clauses"]),
                                  inst.bounds["k"])
        if left[verdict]:
            left[verdict] -= 1
            cases.append((inst.kb, inst.query, inst.bounds["cq_tree"],
                          verdict))
    for _ in range(300):
        kb, q = _repeating_query_case(rng)
        cases.append((kb, q, rng.randint(2, 14), None))
    fewer = 0
    for case, (kb, q, bound, verdict) in enumerate(cases):
        for m in (Measure.TREE_SIZE, Measure.SIZE):
            for b in (None, bound):
                config = RunConfig(m, b)
                got = bounded_search_cq(kb, q, config)
                want = _frozen_bounded_search_cq(kb, q, config)
                assert (got.status, got.value, got.complete) == \
                    (want.status, want.value, want.complete), case
                if got.proof is not None:
                    assert proof_to_json(got.proof, q) == \
                        proof_to_json(want.proof, q), case
                assert got.nodes <= want.nodes, case
                fewer += got.nodes < want.nodes
                if verdict is not None and b is not None \
                        and m is Measure.TREE_SIZE:
                    assert got.status == ("found" if verdict else "none")
    assert fewer
