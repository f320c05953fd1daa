"""Benchmark families: shapes, entailment by construction, frozen optima."""

import pytest

from hornexplain.chase import entails
from hornexplain.generators import (brute_force_sat, gen_dllite_chain,
                                    gen_dllite_tree_query, gen_el_abox,
                                    gen_el_tree, gen_hornalc_counter, gen_sat,
                                    gen_sat_cq)
from hornexplain.kb import ConceptAtom, Fragment, KBError, is_tree_shaped
from hornexplain.proofs import Measure, validate_proof
from hornexplain.search import RunConfig, bounded_search


def test_dllite_chain_shapes():
    inst = gen_dllite_chain(1, "unary")
    assert len(inst.kb.tbox) == 2          # two inclusions per predicate
    assert inst.kb.fragment == Fragment.DLLiteR
    degenerate = gen_dllite_chain(0, "unary")
    assert len(degenerate.kb.tbox) == 1


def test_dllite_chain_min_size_frozen():
    # single-predicate goal over a length-3 chain, from the exact search
    inst = gen_dllite_chain(3, "unary")
    out = bounded_search(inst.kb, inst.query, RunConfig(Measure.SIZE))
    assert out.value == 2 * (3 + 1) + 1 + 1  # chain plus the final step


def test_every_family_is_entailed_by_construction():
    instances = [gen_dllite_chain(2), gen_dllite_chain(1, "unary"),
                 gen_dllite_tree_query(2, seed=7), gen_el_tree(2),
                 gen_el_abox(2), gen_hornalc_counter(1),
                 gen_sat([[1, -2], [2]])]
    for inst in instances:
        assert entails(inst.kb, inst.query).verdict == "yes", inst.family


def test_tree_queries_are_tree_shaped():
    for seed in range(10):
        inst = gen_dllite_tree_query(2, seed)
        assert is_tree_shaped(inst.query), seed
        assert inst.kb.fragment == Fragment.DLLiteR


def test_el_tree_rule_count():
    # three base inclusions plus five rules per inner level
    for n in (1, 2, 3):
        inst = gen_el_tree(n)
        assert len(inst.kb.tbox) == 3 + 5 * (n - 1)
    assert entails(gen_el_tree(2).kb, gen_el_tree(2).query).verdict == "yes"


def test_el_abox_fact_count_and_bounds():
    inst = gen_el_abox(1)
    assert len(inst.kb.abox) == 3
    assert inst.bounds == {"size": 9, "tree": 10}
    for n in (1, 2, 3):
        inst = gen_el_abox(n)
        out = bounded_search(inst.kb, inst.query,
                             RunConfig(Measure.SIZE))
        assert out.value == inst.bounds["size"] == 5 * n + 4


def test_hornalc_counter_level_one():
    inst = gen_hornalc_counter(1)
    result = entails(inst.kb, inst.query, ceiling=4)
    assert result.verdict == "yes"
    out = bounded_search(inst.kb, inst.query,
                         RunConfig(Measure.TREE_SIZE, depth_ceiling=3,
                                   max_nodes=200_000, max_seconds=30.0))
    assert out.status == "found"
    assert out.value == 60  # frozen from this exact search
    ok, problems = validate_proof(out.proof, inst.kb, inst.query, "sk")
    assert ok, problems


def test_sat_single_tautology_example():
    inst = gen_sat([[1, -1]])
    t_facts = [a for a in inst.kb.abox
               if isinstance(a, ConceptAtom) and a.concept == "T"]
    c_facts = [a for a in inst.kb.abox if a not in t_facts]
    assert len(t_facts) == 2
    assert len(c_facts) == 2
    assert inst.bounds["size"] == 4
    assert inst.bounds["domain"] == 2


def test_sat_mandates_tautology_clauses():
    inst = gen_sat([[1]])
    assert sorted(inst.bounds["clauses"]) == [[-1, 1], [1]]
    assert inst.bounds["m"] == 2


def test_sat_rejects_bad_input():
    with pytest.raises(KBError):
        gen_sat([])
    with pytest.raises(KBError):
        gen_sat([[]])
    with pytest.raises(KBError):
        gen_sat([[0]])


def test_sat_cq_bound_example():
    inst = gen_sat_cq([[1, -1]])   # m = 1, k = 1
    assert inst.bounds["cq_tree"] == 4 * 1 + 2 * 1 - 1 == 5
    inst2 = gen_sat_cq([[1], [-1]])
    assert inst2.bounds["m"] == 3  # the mandated tautology joins in


def test_brute_force_sat_oracle():
    assert brute_force_sat([frozenset({1, -2}), frozenset({2})], 2)
    assert not brute_force_sat([frozenset({1}), frozenset({-1})], 1)
    assert brute_force_sat([frozenset({1, -1})], 1)


def test_dllite_entailment_within_the_polynomial_ceiling():
    """Iterative deepening with ceiling |T| * |q| + |A| always suffices on
    the inclusion-chain families."""
    instances = [gen_dllite_chain(n) for n in range(0, 5)]
    instances += [gen_dllite_tree_query(2, seed) for seed in range(15)]
    for inst in instances:
        ceiling = (len(inst.kb.tbox) * len(inst.query.atoms)
                   + len(inst.kb.abox))
        result = entails(inst.kb, inst.query, ceiling=ceiling)
        assert result.verdict == "yes", inst.family


def test_generators_are_deterministic():
    a1 = gen_dllite_tree_query(3, seed=11)
    a2 = gen_dllite_tree_query(3, seed=11)
    assert a1.kb == a2.kb and a1.query == a2.query
    b1, b2 = gen_el_tree(2), gen_el_tree(2)
    assert b1.kb == b2.kb
