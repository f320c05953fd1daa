"""Minimal-proof machinery: dynamic programs, compressed structures,
the cost-graph algorithm, and the exact bounded search."""

import random
import time

import pytest

from hornexplain.chase import chase, entails
from hornexplain.compress import (CompressError, DecompressError,
                                  add_goal_tail, compress_dllite, compress_el,
                                  cost_graph, decompress, dllite_query_min_size,
                                  dp_min_tree, el_cq_min_treesize,
                                  equality_free_fold, extract_witness,
                                  goal_tail_size, rank_matches, refutes,
                                  tree_query_min_treesize)
from hornexplain.deriver_sk import default_depth_ceiling, saturate_kb
from hornexplain.generators import (brute_force_sat, gen_dllite_chain,
                                    gen_dllite_tree_query, gen_el_abox,
                                    gen_el_tree, gen_hornalc_counter,
                                    gen_sat, gen_sat_cq)
from hornexplain.kb import (BooleanCQ, ConceptAtom, Const, Fragment,
                            RoleAtom, SkolemTerm, Var, atom_terms,
                            is_tree_shaped, substitute_atom)
from hornexplain.matching import match_conjunction
from hornexplain.parser import parse_document, parse_kb
from hornexplain.proofs import (AtomLabel, Measure, ProofGraph, RuleLabel,
                                domain_size, ground_terms_of_label,
                                proof_size, proof_to_json, tree_size,
                                validate_proof)
from hornexplain import search as search_module
from hornexplain.search import (RunConfig, SearchBudget, _reaches,
                                bounded_search, bounded_search_cq, explain)
from test_chase import _query_into, _random_kb, _random_query


_INF = float("inf")


def _min_tree(structure, goal_label):
    """The tree-size DP's value for one label and its chosen-edge witness."""
    values, chosen = dp_min_tree(structure)
    vid = structure.label_ids[goal_label]
    return values[vid], ProofGraph(*extract_witness(structure, chosen, [vid]))


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
        if isinstance(structure.vertices[vid], RuleLabel):
            opts = [(vid, 0)]
        else:
            opts = [(vid, k) for k in range(2) if (vid, k) in members]
            opts += [(vid, k) for k in range(2)
                     if (vid, k) not in members][:1]
        combos = [c + (o,) for c in combos for o in opts]
    return combos


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
                        and _reaches(nxt_arcs, key, pkey):
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
        targets = [structure.label_ids[AtomLabel(substitute_atom(a, sigma))]
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
        goal = AtomLabel(ConceptAtom(f"P_{n}", Const("c")))
        _, witness = _min_tree(structure, goal)
        assert proof_size(witness) == 2 * n + 1
        # brute force agreement
        q = BooleanCQ((ConceptAtom(f"P_{n}", Const("c")),), ())
        out = bounded_search(kb, q, SearchBudget(Measure.SIZE))
        assert out.value == 2 * n + 1


def test_min_size_of_a_leaf_is_one():
    kb = _chain_kb(1)
    structure = saturate_kb(kb, 0)
    goal = AtomLabel(ConceptAtom("P_0", Const("c")))
    _, witness = _min_tree(structure, goal)
    assert proof_size(witness) == 1


def test_min_size_prefers_the_short_route():
    kb = parse_kb("rule: A(x) -> B(x)\n"
                  "rule: A(x) -> M(x)\n"
                  "rule: M(x) -> B(x)\n"
                  "fact: A(a)\n")
    structure = saturate_kb(kb, 0)
    goal = AtomLabel(ConceptAtom("B", Const("a")))
    _, witness = _min_tree(structure, goal)
    assert proof_size(witness) == 3  # fact, one rule, one derived atom


def test_min_tree_size_counts_shared_premises_twice():
    kb = parse_kb("rule: A(x) -> L(x)\n"
                  "rule: A(x) -> R(x)\n"
                  "rule: L(x), R(x) -> B(x)\n"
                  "fact: A(a)\n")
    structure = saturate_kb(kb, 0)
    goal = AtomLabel(ConceptAtom("B", Const("a")))
    value, witness = _min_tree(structure, goal)
    assert value == tree_size(witness) == 8
    assert proof_size(witness) == 7  # the shared fact is one vertex


def test_min_tree_size_doubles_on_the_fact_chain():
    # n=60 is past 2**53, where float costs stop being exact; n=300 is
    # deeper than Python's default recursion limit
    for n in (1, 2, 3, 60, 300):
        inst = gen_el_abox(n)
        structure = saturate_kb(inst.kb, 0)
        goal = AtomLabel(inst.query.atoms[0])
        value, witness = _min_tree(structure, goal)
        assert value == 9 * 2 ** n - 8
        assert tree_size(witness) == value


def test_min_tree_size_of_a_leaf_is_one():
    kb = _chain_kb(1)
    structure = saturate_kb(kb, 0)
    goal = AtomLabel(ConceptAtom("P_0", Const("c")))
    value, witness = _min_tree(structure, goal)
    assert value == 1 and proof_size(witness) == 1


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
                assert comp.structure.has_atom(atom), atom


def test_compress_dllite_bullet_rules():
    kb = parse_kb("rule: A(x) -> exists y. P(x,y)\n"
                  "rule: P(x,y) -> Q(x,y)\n"
                  "rule: P(x,y) -> C(x)\n"
                  "fact: A(a)\nfact: P(a,b)\n")
    comp = compress_dllite(kb)
    assert comp.placeholders == {"f_0": Const("c_f_0")}
    witness_obj = Const("c_f_0")
    assert comp.structure.has_atom(RoleAtom("P", Const("a"), witness_obj))
    assert comp.structure.has_atom(RoleAtom("Q", Const("a"), Const("b")))
    assert comp.structure.has_atom(ConceptAtom("C", Const("a")))
    # saturation continues through the fresh individuals
    assert comp.structure.has_atom(RoleAtom("Q", Const("a"), witness_obj))


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
    assert comp.structure.has_atom(RoleAtom("r", Const("a"), cf))
    assert comp.structure.has_atom(ConceptAtom("B", cf))


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
    goal = AtomLabel(ConceptAtom("C", Const("c_f_0")))
    value, witness = _min_tree(comp.structure, goal)
    real = decompress(comp, kb, q, values, chosen,
                      [{Var("y"): Const("c_f_0")}])
    ok, problems = validate_proof(real, kb, q, "sk")
    assert ok, problems
    assert AtomLabel(ConceptAtom("C", SkolemTerm("f_0", Const("a")))) \
        in real.vertices.values()
    assert proof_size(real) == proof_size(witness) + goal_tail_size(q)
    assert tree_size(real) == tree_size(witness) + goal_tail_size(q) \
        == value + goal_tail_size(q)


def test_decompress_without_fresh_names_is_identity_shaped():
    inst = gen_el_abox(1)
    comp = compress_el(inst.kb)
    values, chosen = dp_min_tree(comp.structure)
    goal = AtomLabel(inst.query.atoms[0])
    _, witness = _min_tree(comp.structure, goal)
    real = decompress(comp, inst.kb, inst.query, values, chosen, [{}])
    assert {str(l) for l in real.vertices.values()} \
        == {str(l) for l in witness.vertices.values()}


def _cost_graph(kb, q):
    comp = compress_dllite(kb)
    return cost_graph(comp, q, dp_min_tree(comp.structure)[0])


def test_tree_query_optimum_matches_brute_force():
    for n in (0, 1, 2, 3):
        inst = gen_dllite_chain(n)
        proof = tree_query_min_treesize(inst.kb, inst.query)
        ok, problems = validate_proof(proof, inst.kb, inst.query, "sk")
        assert ok, problems
        out = bounded_search(inst.kb, inst.query,
                             SearchBudget(Measure.TREE_SIZE))
        assert tree_size(proof) == out.value == 6 * n + 11


def test_tree_query_single_atom_reduces_to_plain_minimum():
    inst = gen_dllite_chain(2, "unary")
    proof = tree_query_min_treesize(inst.kb, inst.query)
    assert len(_cost_graph(inst.kb, inst.query).order) == 1
    out = bounded_search(inst.kb, inst.query, SearchBudget(Measure.TREE_SIZE))
    assert tree_size(proof) == out.value


def test_tree_query_tie_break_is_deterministic():
    kb = parse_kb("rule: A_0(x) -> A(x)\n"
                  "fact: A_0(c1)\nfact: A_0(c2)\n")
    doc = parse_document("fact: A_0(c1)\nquery: exists x. A(x)\n")
    q = doc.queries[0]
    proof1 = tree_query_min_treesize(kb, q)
    proof2 = tree_query_min_treesize(kb, q)
    graph1, graph2 = _cost_graph(kb, q), _cost_graph(kb, q)
    assert graph1.chosen == graph2.chosen
    assert graph1.chosen[Var("x")] == Const("c1")  # lexicographic tie-break
    assert tree_size(proof1) == tree_size(proof2)


def test_tree_query_rejects_cyclic_queries():
    doc = parse_document(
        "fact: r(a,b)\nquery: exists x, y, z. r(x,y), r(y,z), r(z,x)\n")
    with pytest.raises(CompressError, match="tree"):
        tree_query_min_treesize(doc.kb, doc.queries[0])


def test_dllite_size_route_agrees_with_exact():
    for n in (0, 1, 2):
        inst = gen_dllite_chain(n)
        proof = dllite_query_min_size(inst.kb, inst.query)
        out = bounded_search(inst.kb, inst.query, SearchBudget(Measure.SIZE))
        assert proof_size(proof) == out.value


def test_the_two_polynomial_routes_give_the_same_proof():
    """Over DL-Lite, the cost graph and the cheapest-match enumeration read
    the same fold and unfold the same assignment."""
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


def test_the_cost_graph_total_is_the_least_match_total():
    """On random DL-Lite knowledge bases and tree-shaped queries, with and
    without a match in the fold."""
    rng = random.Random(20261019)
    checked = 0
    while checked < 200:
        kb = _random_dllite_kb(rng)
        comp = compress_dllite(kb)
        q = _query_into(rng, comp.structure) if checked % 2 \
            else _random_query(rng)
        if not is_tree_shaped(q):
            continue
        values, _ = dp_min_tree(comp.structure)
        ranked = rank_matches(comp.structure, values, q)
        assert cost_graph(comp, q, values).total \
            == (ranked[0][0] if ranked else _INF), (kb, q)
        checked += 1


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


def test_the_cost_graph_stays_polynomial_on_a_star(monkeypatch):
    for k in range(1, 5):
        kb, q = _star(k)
        assert proof_to_json(tree_query_min_treesize(kb, q), q) \
            == proof_to_json(el_cq_min_treesize(kb, q), q), k
    # at k = 10 a match enumeration would visit 8^10 matches
    kb, q = _star(10)

    def enumerate_matches(*args):
        raise AssertionError("the cost graph enumerated matches")

    monkeypatch.setattr("hornexplain.compress.rank_matches",
                        enumerate_matches)
    monkeypatch.setattr("hornexplain.compress.match_conjunction",
                        enumerate_matches)
    proof = tree_query_min_treesize(kb, q)
    ok, problems = validate_proof(proof, kb, q, "sk")
    assert ok, problems
    # every y_i goes to b6: r(a,b6) and C(b6) are facts
    assert tree_size(proof) == 2 * 10 + goal_tail_size(q)
    assert _cost_graph(kb, q).chosen == {
        Const("a"): Const("a"), **{Var(f"y{i}"): Const("b6")
                                   for i in range(10)}}


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
    goal = AtomLabel(inst.query.atoms[0])
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
                             SearchBudget(Measure.TREE_SIZE))
        assert out.value == value


def _realized_witness(kb, q):
    """Frozen reference: the minimal-tree-size witness over the real
    structure at the default depth ceiling, as the EL route rebuilt it
    before the unfolding replaced the rebuild."""
    structure = saturate_kb(kb, default_depth_ceiling(kb, q),
                            max_atoms=500_000)
    values, chosen = dp_min_tree(structure)
    sigma = rank_matches(structure, values, q)[0][1]
    targets = [structure.label_ids[AtomLabel(substitute_atom(a, sigma))]
               for a in q.atoms]
    return add_goal_tail(*extract_witness(structure, chosen, targets),
                         targets, q)


def test_the_unfolding_agrees_with_the_realization_and_the_search():
    """The polynomial routes' tree size equals the frozen realization's and
    the exact search's, on the generators and on random EL and DL-Lite
    knowledge bases, and every proof validates."""
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
        run, _ = search_module._poly_route(kb, q, Measure.TREE_SIZE)
        proof = run(kb, q, False, time.monotonic() + 60)
        realized = _realized_witness(kb, q)
        for p in (proof, realized):
            ok, problems = validate_proof(p, kb, q, "sk")
            assert ok, (case, problems)
        exact = bounded_search(kb, q, SearchBudget(Measure.TREE_SIZE))
        assert exact.complete, case
        assert tree_size(proof) == tree_size(realized) == exact.value, case


def test_the_el_route_leaves_an_underestimating_fold_to_the_search():
    """b's witness for r needs its own B, which costs more than a's: the
    fold's cheapest match (10 before the goal tail) has no unfolding, and
    the exact search finds the real optimum."""
    doc = parse_document("rule: A(x) -> exists y. r(x,y), B(y)\n"
                         "rule: C(x) -> A(x)\n"
                         "rule: D(x) -> C(x)\n"
                         "fact: A(a)\nfact: D(b)\n"
                         "query: exists y. r(b,y), B(y)\n")
    kb, q = doc.kb, doc.queries[0]
    comp = compress_el(kb)
    values, _ = dp_min_tree(comp.structure)
    assert rank_matches(comp.structure, values, q)[0][0] == 10
    with pytest.raises(DecompressError):
        el_cq_min_treesize(kb, q)
    result = explain(kb, q, RunConfig(measure=Measure.TREE_SIZE))
    assert (result.status, result.value, result.complete,
            result.algorithm) == ("found", 16, True, "exact")
    assert result.warnings
    ok, problems = validate_proof(result.proof, kb, q, "sk")
    assert ok, problems


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


def test_bounded_search_three_valued():
    inst = gen_sat([[1], [-1]])
    bound = inst.bounds["size"]
    yes = bounded_search(inst.kb, inst.query,
                         SearchBudget(Measure.SIZE, bound=bound + 1))
    no = bounded_search(inst.kb, inst.query,
                        SearchBudget(Measure.SIZE, bound=bound))
    tiny = bounded_search(inst.kb, inst.query,
                          SearchBudget(Measure.SIZE, bound=bound,
                                       max_nodes=3))
    assert yes.status == "found" and yes.value == bound + 1
    assert no.status == "none"
    assert tiny.status == "exhausted"


def test_bounded_search_monotone_in_the_bound(ex1):
    kb, q = ex1
    outcomes = [bounded_search(kb, q, SearchBudget(Measure.SIZE, bound=n)
                               ).status for n in range(2, 15)]
    first_yes = outcomes.index("found")
    assert all(s == "found" for s in outcomes[first_yes:])
    assert all(s == "none" for s in outcomes[:first_yes])


def test_none_is_certified_by_the_chase_where_saturation_keeps_growing():
    """Every merged witness spawns a new one, so no saturation is complete;
    the chase merges them eagerly and terminates."""
    doc = parse_document("rule: Q(x) -> exists y. u(x,y), Q(y)\n"
                         "rule: Q(x) -> x = e\n"
                         "fact: Q(d)\n"
                         "query: exists x. P(x), Q(x)\n")
    out = bounded_search(doc.kb, doc.queries[0], SearchBudget(Measure.SIZE))
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
                             SearchBudget(m, max_seconds=10.0))
        assert out.status == "none" and out.complete, m
        assert depths == [0], (m, depths)


def test_no_none_for_a_query_naming_a_replaced_constant():
    """d = e replaces d by e, and no rule rewrites e back to d: the query
    is entailed but has no sk proof, so nothing certifies ``none``."""
    doc = parse_document("rule: P(x) -> x = e\nfact: P(d)\nfact: v(e,e)\n"
                         "query: v(e,d)\n")
    for budget in (SearchBudget(Measure.SIZE), SearchBudget(Measure.SIZE, 5)):
        out = bounded_search(doc.kb, doc.queries[0], budget)
        assert out.status == "exhausted" and not out.complete, budget
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
        out = bounded_search(kb, q, SearchBudget(m), depth_ceiling=ceiling)
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
    with pytest.raises(ValueError):
        SearchBudget(Measure.SIZE, bound=1)
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
            got = bounded_search(kb, q, SearchBudget(m),
                                 depth_ceiling=ceiling)
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
            got = bounded_search(kb, q, SearchBudget(m),
                                 depth_ceiling=ceiling)
            assert _value_or_inf(got) == \
                _duplicate_tolerant_min(structure, q, m), (case, m)


def test_bounded_search_cq_sat_family():
    sat = gen_sat_cq([[1, -2], [2]])
    bound = sat.bounds["cq_tree"]
    found = bounded_search_cq(sat.kb, sat.query,
                              SearchBudget(Measure.TREE_SIZE, bound=bound))
    assert found.status == "found"
    assert found.value <= bound
    ok, problems = validate_proof(found.proof, sat.kb, sat.query, "cq")
    assert ok, problems
    unsat = gen_sat_cq([[1], [-1]])
    none = bounded_search_cq(unsat.kb, unsat.query,
                             SearchBudget(Measure.TREE_SIZE,
                                          bound=unsat.bounds["cq_tree"]))
    assert none.status == "none"


def test_bounded_search_cq_explores_rule_applications(ex1):
    kb, q = ex1
    out = bounded_search_cq(kb, q, SearchBudget(Measure.TREE_SIZE,
                                                max_nodes=300_000,
                                                max_seconds=30.0))
    assert out.status == "found"
    assert out.value == 11    # four rewrites, one tautology, the goal
    ok, problems = validate_proof(out.proof, kb, q, "cq")
    assert ok, problems
    assert not out.complete   # move enumeration is capped with rules present


def test_bounded_search_cq_rejects_domain_size():
    sat = gen_sat_cq([[1]])
    with pytest.raises(ValueError, match="domain"):
        bounded_search_cq(sat.kb, sat.query,
                          SearchBudget(Measure.DOMAIN_SIZE, bound=5))


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
    vertices = {0: AtomLabel(a), 1: AtomLabel(b)}
    for goal in (BooleanCQ((a,), ()), BooleanCQ((a, b), ()),
                 BooleanCQ((ConceptAtom("A", x),), (x,)),
                 BooleanCQ((ConceptAtom("A", x), b), (x,))):
        for strict in (False, True):
            proof = add_goal_tail(vertices, [], [0, 1][:len(goal.atoms)],
                                  goal, strict)
            assert len(proof.vertices) - 2 == goal_tail_size(goal, strict)


def test_cover_search_does_not_recurse_per_proof_level():
    inst = gen_dllite_chain(330)
    result = explain(inst.kb, inst.query,
                     RunConfig(measure=Measure.SIZE, algo="exact"))
    assert (result.status, result.value, result.nodes) == ("found", 1991, 995)
    assert result.complete


def test_saturation_keeps_the_cut_rule_applications_as_its_frontier(ex1):
    kb, _ = ex1
    shallow = saturate_kb(kb, 0)
    assert shallow.frontier and not shallow.complete
    for premises in shallow.frontier:
        *atoms, rule = premises
        assert rule in shallow.leaf_ids
        assert all(isinstance(shallow.vertices[p], AtomLabel) for p in atoms)
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
        budget = SearchBudget(rng.choice(list(Measure)),
                              rng.choice([None] + list(range(2, 13))))
        ceiling = rng.choice([None, 1, 2, 3, 4, 5, 6])
        monkeypatch.undo()
        got = bounded_search(kb, q, budget, depth_ceiling=ceiling)
        monkeypatch.setattr("hornexplain.search._frontier_bound", _floor_only)
        want = bounded_search(kb, q, budget, depth_ceiling=ceiling)
        assert got.nodes <= want.nodes, case
        assert got.complete or not want.complete, case
        if (got.status, want.status) == ("none", "exhausted"):
            assert got.complete and budget.bound is not None, case
            deep = bounded_search(kb, q, budget, depth_ceiling=budget.bound)
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
    reductions, whose verdicts at the stated bounds follow satisfiability."""
    rng = random.Random(20261020)
    cases = []
    for _ in range(300):
        budget = SearchBudget(rng.choice(list(Measure)),
                              rng.choice([None] + list(range(2, 13))))
        cases.append((_random_kb(rng), _random_query(rng), budget, "sk",
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
            cases.append((inst.kb, inst.query, SearchBudget(m, bound),
                          deriver, None, verdict))
            cases.append((inst.kb, inst.query,
                          SearchBudget(m, rng.choice([None, bound - 1])),
                          deriver, None, None))
    # two matches whose tree sizes differ by one, the cheaper one second
    doc = parse_document("rule: A(x), E(x) -> C(x)\nrule: B(x) -> C(x)\n"
                         "fact: A(a)\nfact: E(a)\nfact: B(b)\nfact: r(a,a)\n"
                         "fact: r(b,b)\nquery: exists x. C(x), r(x,x)\n")
    for m in Measure:
        for bound in (None, 5, 6):
            cases.append((doc.kb, doc.queries[0], SearchBudget(m, bound),
                          "sk", None, None))
    for case, (kb, q, budget, deriver, ceiling, verdict) in enumerate(cases):
        monkeypatch.undo()
        got = bounded_search(kb, q, budget, deriver=deriver,
                             depth_ceiling=ceiling)
        monkeypatch.setattr("hornexplain.search.match_conjunction", _uncut)
        want = bounded_search(kb, q, budget, deriver=deriver,
                              depth_ceiling=ceiling)
        assert (got.status, got.value, got.complete) == \
            (want.status, want.value, want.complete), case
        if got.proof is not None:
            assert proof_to_json(got.proof, q) == proof_to_json(want.proof, q)
        if verdict is not None:
            assert got.status == ("found" if verdict else "none"), case


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
                         SearchBudget(Measure.SIZE, inst.bounds["size"]))
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
    result = bounded_search(kb, q, SearchBudget(Measure.TREE_SIZE))
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
                cases.append((kb, q, SearchBudget(m, bound), ceiling))
    changed = settled = 0
    for case, (kb, q, budget, ceiling) in enumerate(cases):
        monkeypatch.undo()
        got = bounded_search(kb, q, budget, depth_ceiling=ceiling)
        monkeypatch.setattr("hornexplain.search.equality_free_fold",
                            _no_fold)
        want = bounded_search(kb, q, budget, depth_ceiling=ceiling)
        assert got.complete or not want.complete, case
        if got.status != want.status:
            assert (want.status, got.status) == ("exhausted", "none"), case
            assert got.complete and refutes(equality_free_fold(kb), q), case
            changed += 1
            continue
        assert got.value == want.value, case
        if got.proof is not None:
            assert proof_to_json(got.proof, q) == proof_to_json(want.proof, q)
        if budget.bound is None:
            continue
        first = bounded_search(kb, q, budget, depth_ceiling=0)
        if first.status == "found":
            # no node left for a fold search
            tight = SearchBudget(budget.measure, budget.bound,
                                 max_nodes=first.nodes)
            monkeypatch.undo()
            got = bounded_search(kb, q, tight, depth_ceiling=ceiling)
            assert (got.status, got.value, got.complete) == \
                ("found", first.value, True), case
            settled += 1
    assert changed and settled


def test_max_seconds_bounds_the_polynomial_route():
    # the unfolding reaches el-tree 12 in about 0.7 s; 16 takes about 12 s
    inst = gen_el_tree(16)
    start = time.monotonic()
    result = explain(inst.kb, inst.query,
                     RunConfig(measure=Measure.TREE_SIZE, algo="poly",
                               max_seconds=0.5))
    assert time.monotonic() - start < 0.5 + 1.5
    assert result.status == "exhausted" and not result.complete
    assert any("stopped" in w for w in result.warnings)
