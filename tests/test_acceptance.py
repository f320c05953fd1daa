"""Acceptance suite: one test per criterion, exact values, pinned budgets.

Each test prints a single PASS line; collected proofs feed the
transformation and structural criteria further down, so the file relies on
pytest's in-order execution within a module.
"""

import collections
import random
import time

from hornexplain.chase import chase, default_depth_ceiling, entails
from hornexplain.compress import (dllite_query_min_size, el_cq_min_treesize,
                                  tree_query_min_treesize)
from hornexplain.deriver_cq import transform_cq_to_sk, transform_sk_to_cq
from hornexplain.deriver_sk import Ticker, saturate_kb
from hornexplain.generators import (brute_force_sat, gen_dllite_chain,
                                    gen_dllite_tree_query, gen_el_abox,
                                    gen_el_tree, gen_hornalc_counter, gen_sat,
                                    gen_sat_cq)
from hornexplain.kb import (BooleanCQ, ConceptAtom, Const, RoleAtom,
                            SkolemTerm, Var, atom_terms, cq_equivalent,
                            make_kb, term_depth)
from hornexplain.proofs import (Measure, Schema, domain_size,
                                inference_steps, proof_size, tree_size,
                                tree_unravel, validate_proof)
from hornexplain.search import (RunConfig, SearchBudget, bounded_search,
                                bounded_search_cq, explain)

from test_chase import _random_kb
from test_search import _duplicate_tolerant_min

# proofs collected by criteria 1-3 and reused by criteria 5-6:
# entries are (kb, query, proof, deriver)
_PROOFS = []

# (instance, measure, optimum) triples from criterion 2, reused by criterion 7
_OPTIMA = []


def test_criterion_1_running_example(ex1):
    """Answer with the published assignment; domain-size-3 proof with the
    published inference steps; under a second."""
    kb, q = ex1
    start = time.monotonic()

    result = entails(kb, q)
    assert result.verdict == "yes" and result.at_depth == 2
    witness = dict(result.witness.substitution)
    assert witness[Var("xp")] == Const("a")
    assert witness[Var("y")] == SkolemTerm("f_0", Const("a"))

    explained = explain(kb, q, RunConfig(measure=Measure.DOMAIN_SIZE))
    assert explained.status == "found"
    assert explained.value == 3
    ok, problems = validate_proof(explained.proof, kb, q, "sk")
    assert ok, problems
    steps = [schema.value for schema, _, _ in inference_steps(explained.proof)]
    assert steps == ["MP", "MP", "MP", "MP", "C", "G"]

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"

    for m in (Measure.SIZE, Measure.TREE_SIZE):
        extra = explain(kb, q, RunConfig(measure=m))
        _PROOFS.append((kb, q, extra.proof, "sk"))
    _PROOFS.append((kb, q, explained.proof, "sk"))
    print(f"\nCRITERION 1: PASS (domain size 3, steps MP,MP,MP,MP,C,G, "
          f"{elapsed:.2f}s)")


def _criterion2_instances():
    instances = []
    for n in range(1, 6):
        instances.append(gen_dllite_chain(n))
    for n in range(1, 6):
        instances.append(gen_dllite_chain(n, "unary"))
    for n in range(1, 4):
        instances.append(gen_el_tree(n))
    for n in range(1, 5):
        instances.append(gen_el_abox(n))
    for seed in range(183):
        instances.append(gen_dllite_tree_query(1 + (seed % 3), seed))
    assert len(instances) == 200
    return instances


def test_criterion_2_oracle_equivalence():
    """Specialized optima equal exact-search optima on 200 instances."""
    start = time.monotonic()
    checked = 0
    for inst in _criterion2_instances():
        if inst.family.startswith("dllite"):
            poly_tree = tree_query_min_treesize(inst.kb, inst.query)
            exact_tree = bounded_search(inst.kb, inst.query,
                                        SearchBudget(Measure.TREE_SIZE))
            assert exact_tree.status == "found"
            assert tree_size(poly_tree) == exact_tree.value, inst.family
            ok, problems = validate_proof(poly_tree, inst.kb, inst.query, "sk")
            assert ok, (inst.family, problems)

            poly_size = dllite_query_min_size(inst.kb, inst.query)
            exact_size = bounded_search(inst.kb, inst.query,
                                        SearchBudget(Measure.SIZE))
            assert proof_size(poly_size) == exact_size.value, inst.family
            ok, problems = validate_proof(poly_size, inst.kb, inst.query, "sk")
            assert ok, (inst.family, problems)

            _PROOFS.append((inst.kb, inst.query, poly_tree, "sk"))
            _OPTIMA.append((inst, Measure.TREE_SIZE, exact_tree.value))
            _OPTIMA.append((inst, Measure.SIZE, exact_size.value))
            checked += 2
        else:
            poly = el_cq_min_treesize(inst.kb, inst.query)
            exact = bounded_search(inst.kb, inst.query,
                                   SearchBudget(Measure.TREE_SIZE))
            assert exact.status == "found"
            assert tree_size(poly) == exact.value, inst.family
            ok, problems = validate_proof(poly, inst.kb, inst.query, "sk")
            assert ok, (inst.family, problems)
            _PROOFS.append((inst.kb, inst.query, poly, "sk"))
            _OPTIMA.append((inst, Measure.TREE_SIZE, exact.value))
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"\nCRITERION 2: PASS ({checked} comparisons over 200 instances, "
          f"{elapsed:.1f}s)")


def _exhaustive_formulas():
    """All clause sets over the fixed templates with k <= 3, m <= 4."""
    formulas = []
    # one variable: up to two unit clauses on top of the tautology
    units1 = [[1], [-1]]
    for mask in range(4):
        extra = [c for i, c in enumerate(units1) if mask >> i & 1]
        formulas.append((extra + [[1, -1]], 1))
    # two variables: up to two extra clauses from the eight templates
    templates2 = [[1], [-1], [2], [-2], [1, 2], [1, -2], [-1, 2], [-1, -2]]
    base2 = [[1, -1], [2, -2]]
    formulas.append((list(base2), 2))
    for i, c in enumerate(templates2):
        formulas.append(([c] + base2, 2))
        for d in templates2[i + 1:]:
            formulas.append(([c, d] + base2, 2))
    # three variables: one extra clause from every 1-, 2-, or 3-literal clause
    base3 = [[1, -1], [2, -2], [3, -3]]
    formulas.append((list(base3), 3))
    lits = [1, -1, 2, -2, 3, -3]
    singles = [[l] for l in lits]
    pairs = [[a, b] for i, a in enumerate(lits) for b in lits[i + 1:]
             if abs(a) < abs(b)]
    triples = [[s1 * 1, s2 * 2, s3 * 3]
               for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    for c in singles + pairs + triples:
        formulas.append(([c] + base3, 3))
    return formulas


def test_criterion_3_sat_reductions():
    """Bounded search at the three stated bounds decides satisfiability."""
    start = time.monotonic()
    formulas = _exhaustive_formulas()
    assert len(formulas) <= 256
    agree = 0
    for clauses, k in formulas:
        truth = brute_force_sat([frozenset(c) for c in clauses], k)

        inst = gen_sat(clauses)
        m = inst.bounds["m"]
        assert inst.bounds["size"] == 2 + m + (m - 1) + k
        assert inst.bounds["domain"] == m + k
        by_size = bounded_search(inst.kb, inst.query,
                                 SearchBudget(Measure.SIZE,
                                              bound=inst.bounds["size"]))
        by_domain = bounded_search(inst.kb, inst.query,
                                   SearchBudget(Measure.DOMAIN_SIZE,
                                                bound=inst.bounds["domain"]))
        cq_inst = gen_sat_cq(clauses)
        assert cq_inst.bounds["cq_tree"] == 4 * m + 2 * k - 1
        by_cq = bounded_search_cq(cq_inst.kb, cq_inst.query,
                                  SearchBudget(Measure.TREE_SIZE,
                                               bound=cq_inst.bounds["cq_tree"]))
        for outcome in (by_size, by_domain, by_cq):
            assert outcome.status == ("found" if truth else "none"), \
                (clauses, outcome.status, truth)
        if truth:
            _PROOFS.append((inst.kb, inst.query, by_size.proof, "sk"))
            _PROOFS.append((cq_inst.kb, cq_inst.query, by_cq.proof, "cq"))
        agree += 1
    elapsed = time.monotonic() - start
    print(f"\nCRITERION 3: PASS ({agree} formulas x 3 bounds, 100% "
          f"agreement, {elapsed:.1f}s)")


def test_criterion_4_growth_classes():
    """Desk-scale growth envelopes for the generated families."""
    start = time.monotonic()
    # inclusion chains: tree size within a cubic envelope
    for shape in ("path", "unary"):
        for n in range(2, 9):
            inst = gen_dllite_chain(n, shape)
            proof = tree_query_min_treesize(inst.kb, inst.query)
            assert tree_size(proof) <= 4 * n ** 3, (shape, n)

    # qualified-existential towers: at least 1.8x per level
    values = {}
    for n in range(2, 6):
        inst = gen_el_tree(n)
        values[n] = tree_size(el_cq_min_treesize(inst.kb, inst.query))
    for n in range(2, 5):
        assert values[n + 1] / values[n] >= 1.8, values

    # fact chains: linear size (exact affine fit), doubling tree size
    sizes, trees = {}, {}
    for n in range(2, 5):
        inst = gen_el_abox(n)
        sizes[n] = bounded_search(inst.kb, inst.query,
                                  SearchBudget(Measure.SIZE)).value
        trees[n] = bounded_search(inst.kb, inst.query,
                                  SearchBudget(Measure.TREE_SIZE)).value
    slope = sizes[3] - sizes[2]
    intercept = sizes[2] - slope * 2
    for n in range(2, 5):
        assert sizes[n] == slope * n + intercept  # residual exactly zero
    for n in range(2, 4):
        assert trees[n + 1] >= 2 * trees[n]

    # binary counter: solvable at width one, may exhaust at width two
    counter1 = gen_hornalc_counter(1)
    out1 = bounded_search(counter1.kb, counter1.query,
                          SearchBudget(Measure.TREE_SIZE, max_nodes=200_000,
                                       max_seconds=30.0), depth_ceiling=3)
    assert out1.status == "found" and out1.value == 60
    counter2 = gen_hornalc_counter(2)
    out2 = bounded_search(counter2.kb, counter2.query,
                          SearchBudget(Measure.TREE_SIZE, max_nodes=20_000,
                                       max_seconds=10.0), depth_ceiling=5)
    assert out2.status in ("found", "exhausted")
    elapsed = time.monotonic() - start
    print(f"\nCRITERION 4: PASS (cubic / 1.8x / linear+doubling envelopes, "
          f"counter n=2 -> {out2.status}, {elapsed:.1f}s)")


def test_criterion_5_transformations():
    """Both translations stay valid with bounded blowup, preserving goals."""
    start = time.monotonic()
    assert _PROOFS, "criteria 1-3 must run first"
    c = 4
    converted = 0
    for kb, q, proof, deriver in _PROOFS:
        budget_factor = c * proof_size(proof) * max(1, len(kb.tbox))
        if deriver == "sk":
            out = transform_sk_to_cq(proof, kb)
            ok, problems = validate_proof(out, kb, q, "cq")
            assert ok, problems
            back = transform_cq_to_sk(out, kb)
            ok, problems = validate_proof(back, kb, q, "sk")
            assert ok, problems
            back_label = back.vertices[back.sink()]
            if isinstance(back_label, BooleanCQ):
                assert cq_equivalent(back_label, q)
        else:
            out = transform_cq_to_sk(proof, kb)
            ok, problems = validate_proof(out, kb, q, "sk")
            assert ok, problems
        assert proof_size(out) <= budget_factor, \
            (proof_size(proof), proof_size(out), len(kb.tbox))
        converted += 1
    elapsed = time.monotonic() - start
    print(f"\nCRITERION 5: PASS ({converted} proofs converted both ways, "
          f"constant c={c}, {elapsed:.1f}s)")


def test_criterion_6_structural_properties():
    """Measure identities on all collected proofs; inference soundness under
    the chase; randomized chase invariants."""
    start = time.monotonic()
    assert _PROOFS

    for kb, q, proof, deriver in _PROOFS:
        s, t = proof_size(proof), tree_size(proof)
        assert s <= t
        uses = collections.Counter(q for e in proof.edges for q in e.premises)
        shared = any(n > 1 for n in uses.values())
        assert (s == t) == (not shared)
        unraveled = tree_unravel(proof)
        assert proof_size(unraveled) == t
        if deriver == "sk":
            assert domain_size(unraveled) == domain_size(proof)

    # soundness of the saturation's rule applications over the depth-1
    # atoms, checked semantically: chasing just the premises under just the
    # rule re-derives the conclusion
    def rename_fn(term, old, new):
        if isinstance(term, SkolemTerm):
            return SkolemTerm(new if term.fn == old else term.fn,
                              rename_fn(term.arg, old, new))
        return term

    sound_checked = 0
    rng = random.Random(7)
    for case in range(25):
        kb = _random_kb(rng)
        # one depth deeper, so every application over the depth-1 atoms is
        # an edge
        structure = saturate_kb(kb, 2)
        from hornexplain.kb import skolem_fn_name
        from hornexplain.kb import EqAtom
        for e in structure.edges:
            if e.schema is not Schema.MP:
                continue
            premise_atoms = [structure.vertices[p] for p in e.premises[:-1]]
            if any(isinstance(t2, SkolemTerm) for a in premise_atoms
                   for t2 in atom_terms(a)):
                continue  # not expressible as facts
            idx = structure.vertices[e.premises[-1]].index
            rule = kb.tbox[idx]
            little = make_kb([rule], premise_atoms)
            depth = 1 + max((term_depth(t2) for a in premise_atoms
                             for t2 in atom_terms(a)), default=0)
            deeper = chase(little, depth)
            # the mini knowledge base numbers its one rule 0
            concl = structure.vertices[e.conclusion]
            old, new = skolem_fn_name(idx), skolem_fn_name(0)
            if isinstance(concl, ConceptAtom):
                concl = ConceptAtom(concl.concept,
                                    rename_fn(concl.term, old, new))
            elif isinstance(concl, RoleAtom):
                concl = RoleAtom(concl.role, rename_fn(concl.subj, old, new),
                                 rename_fn(concl.obj, old, new))
            else:
                concl = EqAtom(rename_fn(concl.lhs, old, new),
                               rename_fn(concl.rhs, old, new))
            if isinstance(concl, EqAtom):
                assert concl.lhs == concl.rhs \
                    or (concl.lhs, concl.rhs) in deeper.equalities \
                    or (concl.rhs, concl.lhs) in deeper.equalities, \
                    (rule, e)
            elif concl not in deeper.atoms:
                # a nominal rule merged the witness into a constant
                assert deeper.equalities, (rule, e)
            sound_checked += 1

    # 500 randomized knowledge bases: monotone growth and bounded depth
    rng = random.Random(99)
    for case in range(500):
        kb = _random_kb(rng)
        d = rng.randint(0, 2)
        lo = chase(kb, d, Ticker(max_atoms=2000))
        hi = chase(kb, d + 1, Ticker(max_atoms=2000))
        for atom in lo.atoms:
            assert max(term_depth(t2) for t2 in atom_terms(atom)) <= d
        if not hi.equalities:
            assert lo.atoms <= hi.atoms
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nCRITERION 6: PASS (measure identities on {len(_PROOFS)} "
          f"proofs, {sound_checked} sound inferences, 500 fuzz cases, "
          f"{elapsed:.1f}s)")


def test_criterion_7_subproof_restriction():
    """Allowing duplicate-labeled vertices never changes the optimum: the
    frozen duplicate-tolerant reference over the complete saturated
    structure finds the same optimum, so nothing below it either."""
    start = time.monotonic()
    assert _OPTIMA, "criterion 2 must run first"
    compared = 0
    for inst, m, optimum in _OPTIMA:
        structure = saturate_kb(inst.kb,
                                default_depth_ceiling(inst.kb, inst.query))
        assert structure.complete, inst.family
        relaxed = _duplicate_tolerant_min(structure, inst.query, m)
        assert relaxed == optimum, (inst.family, m, optimum, relaxed)
        compared += 1
    elapsed = time.monotonic() - start
    print(f"\nCRITERION 7: PASS ({compared} optima identical with and "
          f"without the unique-label restriction, {elapsed:.1f}s)")
