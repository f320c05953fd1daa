"""Explaining answers to conjunctive queries over Horn ontologies.

Builds bounded fragments of the universal model by the Skolem chase,
validates and measures proof hypergraphs, and searches for proofs that are
optimal in size, tree size, or domain size.
"""

from .kb import (Atom, BooleanCQ, ConceptAtom, Const, EqAtom, Fragment,
                 KBError, KnowledgeBase, NormalForm, RoleAtom, Rule,
                 SkolemTerm, Signature, Term, Var, detect_fragment,
                 gaifman_graph, is_tree_shaped, make_kb, make_rule)
from .parser import (Document, KBSyntaxError, parse_document, parse_kb,
                     serialize_document)
from .chase import (ChaseState, EntailmentResult, QueryMatch, SkolemRule,
                    chase, entails, match_query, skolemize)
from .proofs import (Measure, MeasureValue, ProofGraph, Schema, TautRule,
                     domain_size, homomorphism, is_subproof, measure,
                     proof_from_json, proof_size, proof_to_dot, proof_to_json,
                     tree_size, tree_unravel, validate_proof)
from .deriver_sk import (InferenceInstance, cg_instances, check_edge,
                         e_instances, mp_instances, saturate_kb)
from .compress import (CompressedStructure, CostGraph, compress_dllite,
                       compress_el, decompress, dllite_query_min_size,
                       el_cq_min_treesize, min_tree_size_dp,
                       tree_query_min_treesize)
from .deriver_cq import (ce_apply, ee_apply, ge_apply, mpe_apply, te_rule,
                         transform_cq_to_sk, transform_sk_to_cq)
from .search import (ExplainResult, RunConfig, SearchBudget,
                     bounded_search, bounded_search_cq, explain)
from .generators import (GeneratedInstance, brute_force_sat, gen_dllite_chain,
                         gen_dllite_tree_query, gen_el_abox, gen_el_tree,
                         gen_hornalc_counter, gen_sat, gen_sat_cq)

__version__ = "0.1.0"
