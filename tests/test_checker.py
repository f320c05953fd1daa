"""The proof checker against its frozen copy.

The checker walks a proof once, binds MP rule bodies positionally and
checks only what each unification of a tautology step adds; these tests
hold it to the checker as it was before, on the golden files, on a sample
of the benchmark's pool classes and on mutated proofs of random knowledge
bases.  The one difference allowed is an edge naming an unknown vertex,
on which the old checker raised KeyError.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import hornexplain
from hornexplain.deriver_cq import (TransformError, analyze_mpe,
                                    check_edge_labels, mpe_apply, te_rule,
                                    transform_cq_to_sk, transform_sk_to_cq)
from hornexplain.deriver_sk import saturate_kb
from hornexplain.generators import (gen_dllite_chain, gen_dllite_tree_query,
                                    gen_el_tree)
from hornexplain.kb import (ATOM_TYPES, BooleanCQ, ConceptAtom, Const, EqAtom,
                            NormalForm, RoleAtom, Rule, SkolemRule, SkolemTerm,
                            Var, atom_is_ground, atom_key, atom_pred,
                            atom_vars, substitute_atom)
from hornexplain.matching import (AtomIndex, match_conjunction,
                                  match_positionally, unify_atom)
from hornexplain.parser import parse_document, parse_kb
from hornexplain.proofs import (CQ_SCHEMAS, RULE_TYPES, SK_SCHEMAS, Measure,
                                ProofEdge, ProofGraph, Schema, TautRule,
                                _postorder, _taut_shape_error,
                                check_proof_shape, format_label,
                                proof_from_json, validate_proof)
from hornexplain.search import RunConfig, explain

from test_chase import _query_into, _random_kb
from test_tooling import _EL_TIES
from test_deriver_cq import _POOL_RULES, _random_atoms

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
# every _POOL_STRIDE-th class of each family of the two pools, starting
# with the first; 1 checks all 929 (about 30 s)
_POOL_STRIDE = 20


# ---------------------------------------------------------------------------
# Reference: the checker frozen as it was before it walked a proof once
# ---------------------------------------------------------------------------

def _ref_incoming(p):
    inc = {v: [] for v in p.vertices}
    for e in p.edges:
        inc[e.conclusion].append(e)
    return inc


def _ref_sinks(p):
    used = {v: 0 for v in p.vertices}
    for e in p.edges:
        for q in e.premises:
            used[q] += 1
    return sorted(v for v, n in used.items() if n == 0)


def _ref_check_proof_shape(p):
    problems = []
    if not p.vertices:
        return False, ["proof has no vertices"]
    sinks = _ref_sinks(p)
    if len(sinks) != 1:
        problems.append(f"expected exactly one sink, found {len(sinks)}")
    inc = _ref_incoming(p)
    for v, es in sorted(inc.items()):
        if len(es) > 1:
            problems.append(f"vertex {v} has {len(es)} incoming hyperedges")
    try:
        list(_postorder(_ref_incoming(p), sorted(p.vertices)))
    except ValueError:
        problems.append("acyclicity violated")
    for e in p.edges:
        ends = set(e.premises) | {e.conclusion}
        missing = [v for v in ends if v not in p.vertices]
        if missing:
            problems.append(f"edge references unknown vertices {missing}")
    return not problems, problems


def _ref_same_atoms(xs, ys):
    return sorted(xs, key=atom_key) == sorted(ys, key=atom_key)


def _ref_label_matches_goal(label, goal):
    if isinstance(label, BooleanCQ):
        return (_ref_same_atoms(label.atoms, goal.atoms)
                and set(label.existential_vars)
                == set(goal.existential_vars))
    if isinstance(label, ATOM_TYPES):
        return (not goal.existential_vars and len(goal.atoms) == 1
                and goal.atoms[0] == label)
    if isinstance(label, tuple):
        return (not goal.existential_vars
                and _ref_same_atoms(label, goal.atoms))
    return False


def _ref_match_positionally(patterns, grounds):
    if len(patterns) != len(grounds):
        return None
    current = {}
    for p, g in zip(patterns, grounds):
        current = unify_atom(p, g, current)
        if current is None:
            return None
    return current


def _ref_check_mp(premises, conclusion, kb):
    if not premises or not isinstance(premises[-1], RULE_TYPES):
        return "the last premise must be a rule"
    rule = premises[-1]
    if not isinstance(rule, SkolemRule):
        return "rule premise must be Skolemized"
    sk_rules = kb.skolem_rules
    if not (0 <= rule.index < len(sk_rules) and sk_rules[rule.index] == rule):
        return "rule is not from the TBox"
    atom_premises = premises[:-1]
    for lab in atom_premises:
        if not isinstance(lab, ATOM_TYPES) or not atom_is_ground(lab):
            return "rule premises must be ground atoms"
    subst = _ref_match_positionally(rule.body,
                                    list(atom_premises))
    if subst is None:
        return "premises do not instantiate the rule body"
    if not isinstance(conclusion, ATOM_TYPES):
        return "conclusion must be a ground atom"
    heads = {substitute_atom(h, subst) for h in rule.head}
    if conclusion not in heads:
        return "conclusion is not an instantiated head atom"
    return None


def _ref_analyze_mpe(premise, rule, conclusion):
    removed = premise.atom_set - conclusion.atom_set
    new = conclusion.atom_set - premise.atom_set
    added = list(new) if len(new) < 2 else [a for a in conclusion.atoms
                                            if a in new]
    evars = tuple(getattr(rule, "existential_vars", ()))
    taken = None if isinstance(rule, TautRule) else premise.variables()
    body = rule.body
    by_pred = {atom_pred(b): b for b in body}
    if len(by_pred) == len(body):
        images = {}
        for a in removed:
            pred = atom_pred(a)
            if pred not in by_pred or pred in images:
                return None
            images[pred] = a
        seed = {}
        free = []
        for pred, b in by_pred.items():
            if pred in images:
                seed = unify_atom(b, images[pred], seed)
                if seed is None:
                    return None
            else:
                free.append(b)
        if len(free) < 2:
            if free:
                pred = atom_pred(free[0])
                candidates = (unify_atom(free[0], a, seed) for a in sorted(
                    (a for a in premise.atom_set if atom_pred(a) == pred),
                    key=atom_key))
            else:
                candidates = (seed,)
            for pi in candidates:
                if pi is None:
                    continue
                assignment = _ref_match_added(added, rule.head, pi, evars,
                                              taken)
                if assignment is not None:
                    return pi, assignment
            return None
    pool = AtomIndex([a for a in premise.atoms if atom_pred(a) in by_pred])
    for pi in match_conjunction(body, pool):
        if removed and not removed <= {substitute_atom(b, pi) for b in body}:
            continue
        assignment = _ref_match_added(added, rule.head, pi, evars, taken)
        if assignment is not None:
            return pi, assignment
    return None


def _ref_match_added(added, head, pi, evars, taken):
    if not evars:
        image = {substitute_atom(h, pi) for h in head}
        if not image.issuperset(added):
            return None
        return {v: v for a in added for v in atom_vars(a)}
    rigid = {**pi, **{v: v for v in evars}}
    patterns = {}
    for h in head:
        pattern = substitute_atom(h, rigid)
        patterns.setdefault(atom_pred(pattern), []).append(pattern)

    def admissible(ext):
        images = [t for k, t in ext.items() if k in evars]
        if taken is not None and (len(set(images)) < len(images)
                                  or not taken.isdisjoint(images)):
            return False
        return all(isinstance(t, Var) if k in evars else t == k
                   for k, t in ext.items())

    def backtrack(i, assignment):
        if i == len(added):
            return assignment
        target = added[i]
        for pattern in patterns.get(atom_pred(target), ()):
            ext = unify_atom(pattern, target, assignment)
            if ext is None or not admissible(ext):
                continue
            result = backtrack(i + 1, ext)
            if result is not None:
                return result
        return None

    return backtrack(0, {})


def _ref_check_mpe(premises, conclusion, kb):
    if len(premises) != 2 or not isinstance(premises[0], BooleanCQ) \
            or not isinstance(premises[1], RULE_TYPES):
        return "rule application takes a query and a rule"
    rule = premises[1]
    if isinstance(rule, SkolemRule):
        return "query-level proofs use original rules, not Skolemized ones"
    if isinstance(rule, Rule):
        if rule not in kb.rule_index:
            return "rule is not from the TBox"
    else:
        err = _taut_shape_error(rule)
        if err:
            return err
    if not isinstance(conclusion, BooleanCQ):
        return "conclusion must be a query"
    if _ref_analyze_mpe(premises[0], rule, conclusion) is None:
        return "no substitution and replaced/kept choice yields the conclusion"
    return None


def _ref_validate_proof(p, kb, goal, deriver="sk"):
    """validate_proof as it was: the shape checks each rebuild the incoming
    map, the leaf labels are rebuilt per call, and MP and MPe edges go to
    the frozen checks above (the other schemas' checks are unchanged)."""
    ok, problems = _ref_check_proof_shape(p)
    if not ok:
        return False, problems
    allowed = SK_SCHEMAS if deriver == "sk" else CQ_SCHEMAS
    for e in p.edges:
        if e.schema not in allowed:
            problems.append(f"schema {e.schema.value} not available in the "
                            f"{deriver} deriver")
    if problems:
        return False, problems
    if not _ref_label_matches_goal(p.vertices[_ref_sinks(p)[0]], goal):
        problems.append("sink label does not match the goal query")
    if deriver == "sk":
        leaf_ok = set(kb.abox) | set(kb.skolem_rules)
        frozen = Schema.MP, _ref_check_mp
    else:
        leaf_ok = {BooleanCQ((a,), ()) for a in kb.abox} | set(kb.tbox)
        frozen = Schema.MPe, _ref_check_mpe
    for v in sorted(v for v, es in _ref_incoming(p).items() if not es):
        if p.vertices[v] not in leaf_ok:
            problems.append(f"leaf {v} ({format_label(p.vertices[v])}) is not "
                            "a fact or rule of the knowledge base")
    for e in p.edges:
        premises = tuple(p.vertices[q] for q in e.premises)
        conclusion = p.vertices[e.conclusion]
        if e.schema is frozen[0]:
            err = frozen[1](premises, conclusion, kb)
        else:
            err = check_edge_labels(e.schema, premises, conclusion, kb)
        if err is not None:
            problems.append(
                f"edge -> {format_label(conclusion)} [{e.schema.value}]: {err}")
    return not problems, problems


def _agree(p, kb, goal, deriver) -> bool:
    """Whether the proof is valid; both checkers must say the same, except
    that the frozen one raised KeyError on an unknown vertex."""
    got = validate_proof(p, kb, goal, deriver)
    shape = check_proof_shape(p)
    try:
        want = _ref_validate_proof(p, kb, goal, deriver)
    except KeyError:
        assert not got[0] and not shape[0]
        assert any(m.startswith("edge references unknown vertices")
                   for m in shape[1]), shape
        assert got == shape
        return False
    assert got == want
    assert shape == _ref_check_proof_shape(p)
    return got[0]


def _mpe_steps(p):
    for e in p.edges:
        if e.schema is Schema.MPe:
            premise, rule = (p.vertices[q] for q in e.premises)
            yield premise, rule, p.vertices[e.conclusion]


def _same_analysis(premise, rule, conclusion):
    got = analyze_mpe(premise, rule, conclusion)
    want = _ref_analyze_mpe(premise, rule, conclusion)
    # the same dicts with their keys in the same order: the grounding
    # iterates them
    as_items = (lambda r: r if r is None
                else (list(r[0].items()), list(r[1].items())))
    assert as_items(got) == as_items(want)
    return want


# ---------------------------------------------------------------------------
# The unknown-vertex case and the single walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("edge, expected", [
    (ProofEdge((5,), 0, Schema.MP),
     ["edge references unknown vertices [5]"]),
    (ProofEdge((0,), 5, Schema.MP),
     ["expected exactly one sink, found 0",
      "edge references unknown vertices [5]"]),
    (ProofEdge((7, 0), 5, Schema.MP),
     ["expected exactly one sink, found 0",
      "edge references unknown vertices [5, 7]"]),
], ids=["premise", "conclusion", "both"])
def test_an_edge_naming_an_unknown_vertex_is_reported(ex1, edge, expected):
    kb, q = ex1
    p = ProofGraph({0: ConceptAtom("A", Const("a"))}, [edge])
    assert check_proof_shape(p) == (False, expected)
    assert validate_proof(p, kb, q, "sk") == (False, expected)
    with pytest.raises(KeyError):
        _ref_check_proof_shape(p)


# ---------------------------------------------------------------------------
# Every step reason, through validate_proof
# ---------------------------------------------------------------------------

_A, _B = Const("a"), Const("b")
_X, _Y, _Z = Var("x"), Var("y"), Var("z")
_REASONS_KB = parse_kb("rule: A(x) -> B(x)\nfact: A(a)\nfact: B(b)\n"
                       "fact: r(a,b)\n")


def _fact(atom):
    return BooleanCQ((atom,), ())


def _tautology_proof(taut):
    """The fact A(a), the tautology (Te) and its application (MPe) to a
    conclusion that repeats A(a)."""
    goal = BooleanCQ((ConceptAtom("A", _A),) * 2, ())
    return ProofGraph({0: _fact(ConceptAtom("A", _A)), 1: taut, 2: goal},
                      [ProofEdge((), 1, Schema.Te),
                       ProofEdge((0, 1), 2, Schema.MPe)])


def _generalized(premise, conclusion, then):
    """The fact ``premise`` generalized (Ge) to ``conclusion`` (vertex 1);
    ``then`` adds the rest of the proof."""
    p = ProofGraph({0: _fact(premise), 1: conclusion},
                   [ProofEdge((0,), 1, Schema.Ge)])
    then(p)
    return p


def _conjoined(premise, general, conclusion):
    """Ce of the fact A(a) and ``general``, which generalizes the fact
    ``premise``, into ``conclusion``."""
    def then(p):
        first = p.add_vertex(_fact(ConceptAtom("A", _A)))
        p.add_edge((first, 1), p.add_vertex(conclusion), Schema.Ce)
    return _generalized(premise, general, then)


def _ground_step(premises, conclusion, schema):
    p = ProofGraph()
    ids = [p.add_vertex(label) for label in premises]
    p.add_edge(ids, p.add_vertex(conclusion), schema)
    return p


_R_XY = BooleanCQ((RoleAtom("r", _X, _Y),), (_X, _Y))


def _swapped(p):
    """Ge from r(?x,?y) at vertex 1 to r(?y,?x)."""
    p.add_edge((1,), p.add_vertex(BooleanCQ((RoleAtom("r", _Y, _X),),
                                            (_Y, _X))), Schema.Ge)


_F_A = SkolemTerm("f", _A)


@pytest.mark.parametrize("proof, deriver, reason", [
    pytest.param(_tautology_proof(TautRule(
        (ConceptAtom("A", _X),), (ConceptAtom("B", _X),), ())), "cq",
        "tautology head must be a variable renaming of the pattern",
        id="taut-no-renaming"),
    pytest.param(_tautology_proof(TautRule(
        (ConceptAtom("A", _X),), (ConceptAtom("A", _A),), ())), "cq",
        "tautologies only rename variables", id="taut-constant"),
    pytest.param(_tautology_proof(TautRule(
        (RoleAtom("r", _X, _Y),), (RoleAtom("r", _Y, _Y),), (_Y,))), "cq",
        "tautology renaming must be injective", id="taut-not-injective"),
    pytest.param(_tautology_proof(TautRule(
        (ConceptAtom("A", _X),), (ConceptAtom("A", _Y),), ())), "cq",
        "renamed variables must be re-quantified", id="taut-free-rename"),
    pytest.param(_tautology_proof(TautRule(
        (ConceptAtom("A", _X),), (ConceptAtom("A", _X),), (_Z,))), "cq",
        "existential variables must occur in the head",
        id="taut-unused-evar"),
    # an MP step whose Skolem rule is another KB's rule of the same index
    pytest.param(_ground_step(
        (ConceptAtom("A", _A), parse_kb("rule: A(x) -> C(x)\n")
         .skolem_rules[0]), ConceptAtom("C", _A), Schema.MP), "sk",
        "rule is not from the TBox", id="mp-foreign-rule"),
    pytest.param(ProofGraph({0: _fact(ConceptAtom("A", _A)),
                             1: ConceptAtom("A", _A)},
                            [ProofEdge((0,), 1, Schema.Ee)]), "cq",
                 "conclusion must be a query", id="ee-atom-conclusion"),
    pytest.param(_conjoined(ConceptAtom("B", _B),
                            BooleanCQ((ConceptAtom("B", _X),), (_X,)),
                            BooleanCQ((ConceptAtom("A", _A),
                                       ConceptAtom("B", _B)), ())), "cq",
                 "conjunction only renames variables", id="ce-to-constant"),
    pytest.param(_conjoined(RoleAtom("r", _A, _B), _R_XY,
                            BooleanCQ((ConceptAtom("A", _A),
                                       RoleAtom("r", _Z, _Z)), (_Z,))), "cq",
                 "renaming must be injective", id="ce-not-injective"),
    pytest.param(_generalized(RoleAtom("r", _A, _B), _R_XY, _swapped), "cq",
                 "existing variables cannot be remapped", id="ge-remap"),
    pytest.param(_ground_step(
        (ConceptAtom("A", _F_A), EqAtom(_F_A, SkolemTerm("g", _A))),
        ConceptAtom("A", _A), Schema.E), "sk",
        "equality cannot be oriented toward a constant", id="e-no-constant"),
    pytest.param(_ground_step((ConceptAtom("A", _A), EqAtom(_A, _A)),
                              ConceptAtom("A", _A), Schema.E), "sk",
                 "equality is trivial", id="e-trivial"),
    pytest.param(_ground_step((ConceptAtom("B", _B), EqAtom(_A, _F_A)),
                              ConceptAtom("B", _A), Schema.E), "sk",
                 "replaced term does not occur at the top level of the atom",
                 id="e-skolem-side"),
])
def test_each_step_reason_reaches_validate_proof(proof, deriver, reason):
    """Every reason a step check gives is reported by ``validate_proof`` on
    the proof's last edge, with its text; the translation of the proof
    refuses it as well."""
    kb = _REASONS_KB
    edge = proof.edges[-1]
    goal_label = proof.vertices[edge.conclusion]
    goal = goal_label if isinstance(goal_label, BooleanCQ) \
        else _fact(goal_label)
    ok, problems = validate_proof(proof, kb, goal, deriver)
    assert not ok
    assert f"edge -> {format_label(goal_label)} [{edge.schema.value}]: " \
        f"{reason}" in problems
    with pytest.raises(TransformError):
        (transform_sk_to_cq if deriver == "sk" else transform_cq_to_sk)(
            proof, kb)


def test_a_swapped_pair_of_variables_is_a_tautology():
    """A renaming that swaps two re-quantified variables is injective, and
    a tautology; one that sends two variables to one is neither, and the
    proof of ``exists y. r(y,y)`` from ``r(a,b)`` that it gave is refused."""
    kb = parse_kb("fact: r(a,b)\n")
    swap = TautRule((RoleAtom("r", _X, _Y),), (RoleAtom("r", _Y, _X),),
                    (_X, _Y))
    goal = BooleanCQ((RoleAtom("r", _Y, _X),), (_X, _Y))
    proof = ProofGraph({0: _fact(RoleAtom("r", _A, _B)), 1: swap, 2: goal},
                       [ProofEdge((), 1, Schema.Te),
                        ProofEdge((0, 1), 2, Schema.MPe)])
    assert validate_proof(proof, kb, goal, "cq") == (True, [])
    back = transform_cq_to_sk(proof, kb)
    assert validate_proof(back, kb, goal, "sk") == (True, [])
    merge = TautRule((RoleAtom("r", _X, _Y),), (RoleAtom("r", _Y, _Y),),
                     (_Y,))
    loop = BooleanCQ((RoleAtom("r", _Y, _Y),), (_Y,))
    proof.vertices.update({1: merge, 2: loop})
    assert not validate_proof(proof, kb, loop, "cq")[0]


def test_validate_proof_builds_its_incoming_map_once(
        monkeypatch, ex1, ex1_reference_proof, ex1_reference_cq_proof):
    """A machine-independent count of the walk: the checker built the
    incoming map three times per call (for the shape, the acyclicity
    check and the leaves) before it walked the proof once."""
    calls = []
    incoming = ProofGraph.incoming

    def counted(self):
        calls.append(None)
        return incoming(self)

    monkeypatch.setattr(ProofGraph, "incoming", counted)
    kb, q = ex1
    cyclic = ProofGraph(dict(ex1_reference_proof.vertices),
                        ex1_reference_proof.edges
                        + [ProofEdge((11,), 0, Schema.MP)])
    for p, deriver, ok in ((ex1_reference_proof, "sk", True),
                           (ex1_reference_cq_proof, "cq", True),
                           (cyclic, "sk", False)):
        calls.clear()
        assert validate_proof(p, kb, q, deriver)[0] is ok
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Golden files and the benchmark's pool classes
# ---------------------------------------------------------------------------

def _golden_kb(name):
    if name.startswith("demo-"):
        return parse_kb((ROOT / "demo.kb").read_text(encoding="utf-8"))
    if name.startswith("sat-"):
        return parse_kb((GOLDEN / "sat.kb").read_text(encoding="utf-8"))
    if name.startswith("el-tree-3-"):
        return gen_el_tree(3).kb
    if name.startswith("el-ties-"):
        return parse_document(_EL_TIES).kb
    if name.startswith("dllite-tree-query-4-10-"):
        return gen_dllite_tree_query(4, 10).kb
    assert name.startswith("dllite-chain-5-"), name
    return gen_dllite_chain(5).kb


def test_the_checker_agrees_with_its_frozen_copy_on_the_golden_files():
    names = []
    for path in sorted(GOLDEN.glob("*.json")):
        p, goal = proof_from_json(path.read_text(encoding="utf-8"))
        kb = _golden_kb(path.name)
        assert _agree(p, kb, goal, p.deriver()), path.name
        for step in _mpe_steps(p):
            assert _same_analysis(*step) is not None
        names.append(path.name)
    assert len(names) == 18


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pool_cases(stride):
    """(kb, goal, proof, deriver) for the proof of every ``stride``-th
    class of each family (the key up to its first "/") of the exact-mix
    and sat-decide pools, and for its translations."""
    workloads = _load_workloads()
    families = {}
    for workload in ("exact-mix", "sat-decide"):
        for req in workloads.pool_requests(workload, hornexplain):
            families.setdefault(req.key.split("/")[0], []).append(req)
    cases = []
    for family in families.values():
        for req in family[::stride]:
            doc = hornexplain.parse_document(req.text)
            kb, q = doc.kb, doc.queries[0]
            result = explain(kb, q, RunConfig(
                measure=getattr(Measure, workloads.MEASURES[req.measure]),
                bound=req.bound, algo=req.algo, deriver=req.deriver,
                depth_ceiling=req.ceiling))
            if result.proof is None:
                continue
            cases.append((kb, q, result.proof, req.deriver))
            if req.translate:
                steps = [("cq", transform_sk_to_cq), ("sk", transform_cq_to_sk)]
                if req.deriver == "cq":
                    steps.reverse()
                proof = result.proof
                for target, transform in steps:
                    proof = transform(proof, kb)
                    cases.append((kb, q, proof, target))
    return cases


def test_the_checker_agrees_with_its_frozen_copy_on_the_pool_classes():
    """Every proof of the sampled classes validates the same, and every
    MPe step of their query-level proofs is analyzed the same."""
    cases = _pool_cases(_POOL_STRIDE)
    derivers, steps, tautologies = set(), 0, 0
    for kb, q, proof, deriver in cases:
        assert _agree(proof, kb, q, deriver)
        derivers.add(deriver)
        for premise, rule, conclusion in _mpe_steps(proof):
            assert _same_analysis(premise, rule, conclusion) is not None
            steps += 1
            tautologies += isinstance(rule, TautRule)
    assert derivers == {"sk", "cq"}
    assert steps > tautologies > 20


# ---------------------------------------------------------------------------
# Mutated proofs of random knowledge bases
# ---------------------------------------------------------------------------

def _edit(rng, label, kb, labels):
    """Another label: a neighbour's, or this one slightly changed."""
    if rng.random() < 0.4:
        return rng.choice(labels)
    if isinstance(label, ATOM_TYPES):
        facts = [a for a in kb.abox if a is not label]
        return rng.choice(facts) if facts else ConceptAtom("Z", Const("d"))
    if isinstance(label, tuple):
        return label[::-1] + label[:1]
    if isinstance(label, BooleanCQ):
        atoms = label.atoms
        return BooleanCQ.closed(atoms[1:] + atoms[:1]
                                if rng.random() < 0.5
                                else atoms + atoms[-1:])
    rules = kb.skolem_rules if isinstance(label, SkolemRule) else kb.tbox
    return rng.choice(rules)


def _mutants(rng, p, kb):
    """The proof with one thing broken (or renamed) at a time."""
    vertices, edges = p.vertices, p.edges
    ids = sorted(vertices)
    labels = list(vertices.values())
    sink, fresh = p.sink(), max(ids) + 1

    def graph(new_vertices=None, new_edges=None):
        return ProofGraph(dict(vertices if new_vertices is None
                               else new_vertices),
                          list(edges if new_edges is None else new_edges))

    out = []
    for _ in range(2):
        a, b = rng.choice(ids), rng.choice(ids)
        swapped = dict(vertices)
        swapped[a], swapped[b] = vertices[b], vertices[a]
        edited = dict(vertices)
        edited[a] = _edit(rng, vertices[a], kb, labels)
        out += [graph(swapped), graph(edited)]
        if not edges:
            continue
        i = rng.randrange(len(edges))
        e = edges[i]
        rest = edges[:i] + edges[i + 1:]
        out += [
            graph(new_edges=rest),                            # drop
            graph(new_edges=edges + [ProofEdge(               # second in
                rng.choice(edges).premises, e.conclusion, e.schema)]),
            graph(new_edges=edges + [ProofEdge(               # cycle
                (e.conclusion,), rng.choice(e.premises or ids), e.schema)]),
            graph(new_edges=rest + [ProofEdge(                # schema
                e.premises, e.conclusion, rng.choice(list(Schema)))]),
            graph(new_edges=rest + [ProofEdge(                # premises
                e.premises[::-1] or (e.conclusion,), e.conclusion,
                e.schema)]),
            graph(new_edges=rest + [ProofEdge(                # unknown
                e.premises + (fresh,), e.conclusion, e.schema)]),
        ]
    renamed = {(fresh if v == sink else v): lab
               for v, lab in vertices.items()}
    out += [graph(renamed),                                   # dangling
            graph(renamed, [ProofEdge(e.premises, fresh, e.schema)
                            if e.conclusion == sink else e
                            for e in edges]),                 # consistent
            ProofGraph({}, [])]
    return out


def _random_proofs(rng, count):
    proofs = []
    while len(proofs) < count:
        kb = _random_kb(rng)
        q = _query_into(rng, saturate_kb(kb, 2))
        result = explain(kb, q, RunConfig(measure=rng.choice(list(Measure)),
                                          algo="exact", depth_ceiling=2))
        if result.proof is None:
            continue
        proofs.append((kb, q, result.proof, "sk"))
        try:
            proofs.append((kb, q, transform_sk_to_cq(result.proof, kb), "cq"))
        except TransformError:
            pass
    return proofs


def test_the_checker_agrees_with_its_frozen_copy_on_mutated_proofs():
    rng = random.Random(20261019)
    checked = valid = unknown = 0
    for kb, q, proof, deriver in _random_proofs(rng, 70):
        assert _agree(proof, kb, q, deriver)
        wrong_goal = BooleanCQ.closed(q.atoms[:-1] + (
            ConceptAtom("Z", Const("d")),))
        assert not _agree(proof, kb, wrong_goal, deriver)
        other = "cq" if deriver == "sk" else "sk"
        assert not _agree(proof, kb, q, other)
        for mutant in _mutants(rng, proof, kb):
            try:
                _ref_check_proof_shape(mutant)
            except KeyError:
                unknown += 1
            valid += _agree(mutant, kb, q, deriver)
            checked += 1
    assert checked >= 1000
    assert unknown >= 100 and 0 < valid < checked // 4, (valid, unknown)


# ---------------------------------------------------------------------------
# The positional binding and the rule-application analysis
# ---------------------------------------------------------------------------

def _random_term(rng, names):
    t = rng.choice([Var(n) if n.islower() else Const(n) for n in names])
    while rng.random() < 0.2:
        t = SkolemTerm(rng.choice(["f", "g"]), t)
    return t


def _random_atom(rng, names):
    kind = rng.random()
    if kind < 0.4:
        return ConceptAtom(rng.choice("AB"), _random_term(rng, names))
    if kind < 0.9:
        return RoleAtom(rng.choice("rs"), _random_term(rng, names),
                        _random_term(rng, names))
    return EqAtom(_random_term(rng, names), _random_term(rng, names))


def test_positional_binding_agrees_with_unification():
    """match_positionally binds into one dict what a chain of unify_atom
    calls built copy by copy: the same substitution, in the same order."""
    rng = random.Random(20261020)
    found = 0
    for _ in range(4000):
        n = rng.randint(0, 3)
        patterns = [_random_atom(rng, "xyzab") for _ in range(n)]
        sigma = {Var(v): _random_term(rng, "abc") for v in "xyz"}
        grounds = [substitute_atom(a, sigma) if rng.random() < 0.8
                   else _random_atom(rng, "abc") for a in patterns]
        if rng.random() < 0.1:
            grounds = grounds[1:]
        got = match_positionally(patterns, grounds)
        want = _ref_match_positionally(patterns, grounds)
        assert (got if got is None else list(got.items())) == \
            (want if want is None else list(want.items()))
        found += got is not None
    assert 1000 < found < 3900


def test_analyze_mpe_agrees_with_its_frozen_copy_on_random_steps():
    """Random rule applications and tautologies, random conclusions, and a
    rule with two existential variables built without the normal-form
    check, whose images must be distinct."""
    X, Y, Z, W = (Var(n) for n in "xyzw")
    a, b = Const("a"), Const("b")
    u = [Var(f"u{i}") for i in range(6)]
    two_witnesses = Rule((ConceptAtom("A", X),),
                         (RoleAtom("r", X, Y), RoleAtom("r", X, W)),
                         (Y, W), NormalForm.IV, frozenset())
    rules = parse_kb(_POOL_RULES).tbox + (
        two_witnesses,
        te_rule((RoleAtom("r", X, Y), RoleAtom("r", Y, Z)), [X]),
        te_rule((RoleAtom("r", X, Y), RoleAtom("s", Z, Y),
                 ConceptAtom("B", X)), [Y, Z]),
        te_rule((RoleAtom("r", X, Y), RoleAtom("r", Z, Y),
                 ConceptAtom("B", Z)), [X, Y, Z]))
    terms = [a, b] + u[1:4]
    rng = random.Random(20261021)
    outcomes = set()
    for _ in range(2000):
        rule = rng.choice(rules)
        atoms = _random_atoms(rng, terms, rng.randint(0, 4))
        for _ in range(rng.randint(1, 3)):
            sigma = {v: rng.choice(terms) for x in rule.body
                     for v in atom_vars(x)}
            atoms += [substitute_atom(x, sigma) for x in rule.body]
        rng.shuffle(atoms)
        premise = BooleanCQ.closed(list(dict.fromkeys(atoms)))
        if rng.random() < 0.8:
            pi = rng.choice(list(match_conjunction(
                rule.body, AtomIndex(premise.atoms))))
            body = list(dict.fromkeys(substitute_atom(x, pi)
                                      for x in rule.body))
            replace = [x for x in body if rng.random() < 0.5]
            keep = [i for i in range(len(rule.head)) if rng.random() < 0.8]
            conclusion = mpe_apply(premise, rule, pi, replace, keep)
            if rng.random() < 0.2:
                # an existential image reused: the premise's own variable
                conclusion = BooleanCQ.closed(
                    conclusion.atoms + (RoleAtom("r", rng.choice(terms),
                                                 rng.choice(u[1:4])),))
        else:
            conclusion = BooleanCQ.closed(list(dict.fromkeys(
                _random_atoms(rng, terms + u[4:], rng.randint(1, 6)))))
        outcomes.add((rule is two_witnesses,
                      _same_analysis(premise, rule, conclusion) is None))
    assert outcomes == {(w, n) for w in (True, False) for n in (True, False)}
