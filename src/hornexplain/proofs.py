"""Proof hypergraphs: labels, structural checks, measures, export.

A proof is a finite acyclic labeled hypergraph with exactly one sink and at
most one incoming hyperedge per vertex, whose leaves are facts or rules of
the knowledge base and whose edges instantiate the inference schemas of one
of the two derivers (ground-atom level or whole-query level).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Union

from .kb import (Atom, BooleanCQ, KBError, KnowledgeBase, NormalForm, Rule,
                 Term, Var, atom_key, atom_terms, cq_equivalent, format_atom,
                 subterms, term_is_ground)
from .chase import SkolemRule


class Schema(Enum):
    MP = "MP"
    E = "E"
    C = "C"
    G = "G"
    MPe = "MPe"
    Te = "Te"
    Ee = "Ee"
    Ce = "Ce"
    Ge = "Ge"


SK_SCHEMAS = frozenset({Schema.MP, Schema.E, Schema.C, Schema.G})
CQ_SCHEMAS = frozenset({Schema.MPe, Schema.Te, Schema.Ee, Schema.Ce,
                        Schema.Ge})


class Measure(Enum):
    SIZE = "size"
    TREE_SIZE = "tree"
    DOMAIN_SIZE = "domain"


@dataclass(frozen=True)
class MeasureValue:
    measure: Measure
    value: int


# ---------------------------------------------------------------------------
# Vertex labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TautRule:
    """A tautology ``phi(x, y) -> exists x'. phi(x', y)`` used by (Te)."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    existential_vars: tuple[Var, ...]


@dataclass(frozen=True)
class AtomLabel:
    atom: Atom


@dataclass(frozen=True)
class ConjLabel:
    """Ground conjunction; duplicates are meaningful and order is kept."""

    atoms: tuple[Atom, ...]


@dataclass(frozen=True)
class CQLabel:
    cq: BooleanCQ


@dataclass(frozen=True)
class RuleLabel:
    rule: Union[Rule, SkolemRule, TautRule]


Label = Union[AtomLabel, ConjLabel, CQLabel, RuleLabel]


def label_key(label: Label):
    if isinstance(label, AtomLabel):
        return (0, atom_key(label.atom))
    if isinstance(label, ConjLabel):
        return (1,) + tuple(atom_key(a) for a in label.atoms)
    if isinstance(label, CQLabel):
        return ((2,) + tuple(atom_key(a) for a in label.cq.atoms)
                + tuple(sorted(v.name for v in label.cq.existential_vars)))
    rule = label.rule
    if isinstance(rule, SkolemRule):
        return (3, 0, rule.index)
    if isinstance(rule, Rule):
        return (3, 1, tuple(atom_key(a) for a in rule.body + rule.head))
    return (3, 2, tuple(atom_key(a) for a in rule.body + rule.head))


def format_label(label: Label) -> str:
    return _label_to_json(label, format_atom)["label"]


# ---------------------------------------------------------------------------
# The hypergraph
# ---------------------------------------------------------------------------

def _postorder(inc: dict[int, list[ProofEdge]],
               roots: Iterable[int]) -> Iterator[int]:
    """Every vertex reachable from the roots through premises, each after
    all of its premises (depth first, in edge and premise order); raises
    ValueError on a cycle."""
    state: dict[int, int] = {}          # 1 on the path, 2 done
    for root in roots:
        if state.get(root):
            continue
        state[root] = 1
        stack = [(root, (q for e in inc[root] for q in e.premises))]
        while stack:
            v, premises = stack[-1]
            for q in premises:
                s = state.get(q, 0)
                if s == 1:
                    raise ValueError("cycle detected")
                if s == 0:
                    state[q] = 1
                    stack.append((q, (r for e in inc[q] for r in e.premises)))
                    break
            else:
                stack.pop()
                state[v] = 2
                yield v


@dataclass(frozen=True)
class ProofEdge:
    premises: tuple[int, ...]
    conclusion: int
    schema: Schema


@dataclass
class ProofGraph:
    vertices: dict[int, Label]
    edges: list[ProofEdge]

    def incoming(self) -> dict[int, list[ProofEdge]]:
        inc: dict[int, list[ProofEdge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.conclusion].append(e)
        return inc

    def premise_occurrences(self) -> dict[int, int]:
        used: dict[int, int] = {v: 0 for v in self.vertices}
        for e in self.edges:
            for p in e.premises:
                used[p] += 1
        return used

    def sinks(self) -> list[int]:
        used = self.premise_occurrences()
        return sorted(v for v, n in used.items() if n == 0)

    def sink(self) -> int:
        sinks = self.sinks()
        if len(sinks) != 1:
            raise ValueError(f"expected exactly one sink, found {len(sinks)}")
        return sinks[0]

    def leaves(self) -> list[int]:
        inc = self.incoming()
        return sorted(v for v, es in inc.items() if not es)

    def topological_order(self) -> list[int]:
        """Vertices ordered premises before conclusions; raises on cycles."""
        return list(_postorder(self.incoming(), sorted(self.vertices)))

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except ValueError:
            return False

    def deriver(self) -> str:
        if any(e.schema in CQ_SCHEMAS for e in self.edges):
            return "cq"
        return "sk"

    def relabel(self, mapping) -> "ProofGraph":
        return ProofGraph({v: mapping(lab) for v, lab in self.vertices.items()},
                          list(self.edges))


class ProofBuilder:
    def __init__(self):
        self._vertices: dict[int, Label] = {}
        self._by_label: dict[Label, int] = {}
        self._edges: list[ProofEdge] = []
        self._next = 0

    def add_vertex(self, label: Label) -> int:
        vid = self._next
        self._next += 1
        self._vertices[vid] = label
        return vid

    def vertex_for(self, label: Label) -> int:
        """Shared vertex per label (for subproof-style graphs)."""
        if label not in self._by_label:
            self._by_label[label] = self.add_vertex(label)
        return self._by_label[label]

    def has_label(self, label: Label) -> bool:
        return label in self._by_label

    def add_edge(self, premises: Iterable[int], conclusion: int,
                 schema: Schema) -> None:
        self._edges.append(ProofEdge(tuple(premises), conclusion, schema))

    def build(self) -> ProofGraph:
        return ProofGraph(dict(self._vertices), list(self._edges))


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------

def proof_size(p: ProofGraph) -> int:
    return len(p.vertices)


def tree_size(p: ProofGraph) -> int:
    """Size of the tree unraveling: shared premises count once per use."""
    inc = p.incoming()
    sink = p.sink()
    memo: dict[int, int] = {}
    for v in _postorder(inc, [sink]):
        es = inc[v]
        if len(es) > 1:
            raise ValueError("tree size needs at most one incoming edge "
                             "per vertex")
        memo[v] = 1 + sum(memo[q] for q in es[0].premises) if es else 1
    return memo[sink]


def ground_terms_of_label(label: Label) -> set[Term]:
    """Ground terms, nested subterms included; rule labels contribute none."""
    if isinstance(label, RuleLabel):
        return set()
    if isinstance(label, AtomLabel):
        atoms: Iterable[Atom] = [label.atom]
    elif isinstance(label, ConjLabel):
        atoms = label.atoms
    else:
        atoms = label.cq.atoms
    out: set[Term] = set()
    for a in atoms:
        for t in atom_terms(a):
            for s in subterms(t):
                if term_is_ground(s):
                    out.add(s)
    return out


def domain_size(p: ProofGraph) -> int:
    terms: set[Term] = set()
    for label in p.vertices.values():
        terms |= ground_terms_of_label(label)
    return len(terms)


def measure(p: ProofGraph, m: Measure) -> MeasureValue:
    if m is Measure.DOMAIN_SIZE and p.deriver() == "cq":
        raise ValueError("domain size is not defined for query-level proofs")
    if m is Measure.SIZE:
        return MeasureValue(m, proof_size(p))
    if m is Measure.TREE_SIZE:
        return MeasureValue(m, tree_size(p))
    return MeasureValue(m, domain_size(p))


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def tree_unravel(p: ProofGraph) -> ProofGraph:
    """Duplicate shared subproofs so the result is a tree."""
    inc = p.incoming()
    builder = ProofBuilder()
    on_path: set[int] = set()

    def start(v: int) -> tuple[int, int, Optional[ProofEdge], list[int]]:
        if v in on_path:
            raise ValueError("cycle detected")
        es = inc[v]
        if len(es) > 1:
            raise ValueError("unraveling needs at most one incoming edge "
                             "per vertex")
        on_path.add(v)
        return v, builder.add_vertex(p.vertices[v]), \
            (es[0] if es else None), []

    # copies get ids in preorder, edges are added in postorder
    stack = [start(p.sink())]
    while stack:
        v, nid, e, copies = stack[-1]
        if e is not None and len(copies) < len(e.premises):
            stack.append(start(e.premises[len(copies)]))
            continue
        stack.pop()
        on_path.discard(v)
        if e is not None:
            builder.add_edge(tuple(copies), nid, e.schema)
        if stack:
            stack[-1][3].append(nid)
    return builder.build()


def sub_derivation(p: ProofGraph, vid: int) -> ProofGraph:
    """The subgraph of everything feeding into ``vid`` (ids preserved)."""
    inc = p.incoming()
    keep: set[int] = set()
    edges: list[ProofEdge] = []
    stack = [vid]
    while stack:
        v = stack.pop()
        if v in keep:
            continue
        keep.add(v)
        for e in inc[v]:
            edges.append(e)
            stack.extend(e.premises)
    return ProofGraph({v: p.vertices[v] for v in keep}, edges)


def is_subproof(s: ProofGraph, h: ProofGraph) -> bool:
    """Subgraph of ``h`` (shared ids), itself a proof, leaves among h's."""
    for v, lab in s.vertices.items():
        if h.vertices.get(v) != lab:
            return False
    h_edges = set(h.edges)
    if any(e not in h_edges for e in s.edges):
        return False
    ok, _ = check_proof_shape(s)
    if not ok:
        return False
    return set(s.leaves()) <= set(h.leaves())


def homomorphism(h1: ProofGraph, h2: ProofGraph) -> Optional[dict[int, int]]:
    """Label- and edge-preserving vertex map from h1 into h2, if any."""
    by_label: dict[Label, list[int]] = {}
    for v, lab in h2.vertices.items():
        by_label.setdefault(lab, []).append(v)
    for vs in by_label.values():
        vs.sort()
    candidates = {v: by_label.get(lab, []) for v, lab in h1.vertices.items()}
    if any(not c for c in candidates.values()):
        return None
    order = sorted(h1.vertices, key=lambda v: (len(candidates[v]), v))
    h2_edges = set(h2.edges)
    edges_by_vertex: dict[int, list[ProofEdge]] = {v: [] for v in h1.vertices}
    for e in h1.edges:
        for v in set(e.premises) | {e.conclusion}:
            edges_by_vertex[v].append(e)

    assignment: dict[int, int] = {}

    def consistent(v: int) -> bool:
        for e in edges_by_vertex[v]:
            ends = list(e.premises) + [e.conclusion]
            if all(u in assignment for u in ends):
                mapped = ProofEdge(tuple(assignment[u] for u in e.premises),
                                   assignment[e.conclusion], e.schema)
                if mapped not in h2_edges:
                    return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for cand in candidates[v]:
            assignment[v] = cand
            if consistent(v) and search(i + 1):
                return True
            del assignment[v]
        return False

    return dict(assignment) if search(0) else None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def check_proof_shape(p: ProofGraph) -> tuple[bool, list[str]]:
    """The deriver-independent proof conditions."""
    problems: list[str] = []
    if not p.vertices:
        return False, ["proof has no vertices"]
    sinks = p.sinks()
    if len(sinks) != 1:
        problems.append(f"expected exactly one sink, found {len(sinks)}")
    inc = p.incoming()
    for v, es in sorted(inc.items()):
        if len(es) > 1:
            problems.append(f"vertex {v} has {len(es)} incoming hyperedges")
    if not p.is_acyclic():
        problems.append("acyclicity violated")
    for e in p.edges:
        ends = set(e.premises) | {e.conclusion}
        missing = [v for v in ends if v not in p.vertices]
        if missing:
            problems.append(f"edge references unknown vertices {missing}")
    return not problems, problems


def label_matches_goal(label: Label, goal: BooleanCQ) -> bool:
    if isinstance(label, CQLabel):
        return cq_equivalent(label.cq, goal)
    if isinstance(label, AtomLabel):
        return (not goal.existential_vars and len(goal.atoms) == 1
                and goal.atoms[0] == label.atom)
    if isinstance(label, ConjLabel):
        return (not goal.existential_vars
                and sorted(label.atoms, key=atom_key)
                == sorted(goal.atoms, key=atom_key))
    return False


def validate_proof(p: ProofGraph, kb: KnowledgeBase, goal: BooleanCQ,
                   deriver: str = "sk") -> tuple[bool, list[str]]:
    """Full admissibility check against the KB and the goal query."""
    from . import deriver_cq, deriver_sk

    ok, problems = check_proof_shape(p)
    if not ok:
        return False, problems

    allowed = SK_SCHEMAS if deriver == "sk" else CQ_SCHEMAS
    for e in p.edges:
        if e.schema not in allowed:
            problems.append(f"schema {e.schema.value} not available in the "
                            f"{deriver} deriver")
    if problems:
        return False, problems

    if not label_matches_goal(p.vertices[p.sink()], goal):
        problems.append("sink label does not match the goal query")

    if deriver == "sk":
        leaf_ok = deriver_sk.leaf_labels(kb)
        checker = deriver_sk.check_edge_labels
    else:
        leaf_ok = deriver_cq.leaf_labels(kb)
        checker = deriver_cq.check_edge_labels
    for v in p.leaves():
        if p.vertices[v] not in leaf_ok:
            problems.append(f"leaf {v} ({format_label(p.vertices[v])}) is not "
                            "a fact or rule of the knowledge base")
    for e in p.edges:
        premises = tuple(p.vertices[q] for q in e.premises)
        conclusion = p.vertices[e.conclusion]
        err = checker(e.schema, premises, conclusion, kb)
        if err is not None:
            problems.append(
                f"edge -> {format_label(conclusion)} [{e.schema.value}]: {err}")
    return not problems, problems


def inference_steps(p: ProofGraph) -> list[tuple[Schema, tuple[int, ...],
                                                 tuple[int, ...]]]:
    """Edges grouped by (premises, schema), in topological order.

    Two conclusions drawn from the same premises by the same schema count as
    one displayed inference, which is how the proofs are drawn.
    """
    order = {v: i for i, v in enumerate(p.topological_order())}
    groups: dict[tuple, list[int]] = {}
    for e in p.edges:
        groups.setdefault((e.schema, e.premises), []).append(e.conclusion)
    out = []
    for (schema, premises), conclusions in groups.items():
        out.append((schema, premises, tuple(sorted(conclusions,
                                                   key=order.get))))
    out.sort(key=lambda s: min(order[c] for c in s[2]))
    return out


# ---------------------------------------------------------------------------
# JSON and DOT export
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1

_quote = json.encoder.encode_basestring_ascii
# the text of a scalar, by its exact type
_SCALARS = {str: _quote, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def format_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    values built of str, int, bool, None, list and dict (with str keys);
    raises TypeError on anything else.  The stdlib falls back to its
    pure-Python encoder whenever ``indent`` is set; here every string is
    quoted by the C quoter and a list of scalars of one type is one
    join."""
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, nl: str, out: list[str]) -> None:
    """Append the text of ``value``, whose nested lines start with ``nl``."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, value))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if scalar is not None:
            out.append(f"[{inner}{(',' + inner).join(map(scalar, value))}"
                       f"{nl}]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out.append(f"{sep}{_quote(key)}: {scalar(item)}")
            else:
                out.append(f"{sep}{_quote(key)}: ")
                _write_json(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not "
                        "JSON serializable")


def _label_to_json(label: Label, text) -> dict:
    """The label's JSON object with its display text under ``label``;
    ``text`` formats an atom."""
    if isinstance(label, AtomLabel):
        atom = text(label.atom)
        return {"kind": "atom", "atom": atom, "label": atom}
    if isinstance(label, ConjLabel):
        atoms = list(map(text, label.atoms))
        return {"kind": "conjunction", "atoms": atoms,
                "label": ", ".join(atoms)}
    if isinstance(label, CQLabel):
        atoms = list(map(text, label.cq.atoms))
        evars = [v.name for v in label.cq.existential_vars]
        shown = ", ".join(atoms)
        if evars:
            shown = f"exists {', '.join(evars)}. {shown}"
        return {"kind": "cq", "atoms": atoms, "evars": evars,
                "label": shown}
    rule = label.rule
    body = list(map(text, rule.body))
    head = list(map(text, rule.head))
    evars = [v.name for v in getattr(rule, "existential_vars", ())]
    shown = f"{', '.join(body)} -> "
    if evars:
        shown += f"exists {', '.join(evars)}. "
    base = {"body": body, "head": head, "label": shown + ", ".join(head)}
    if isinstance(rule, SkolemRule):
        return {"kind": "skolem_rule", "index": rule.index,
                "form": rule.normal_form.value, "fn": rule.fn, **base}
    if isinstance(rule, TautRule):
        return {"kind": "taut_rule", "evars": evars, **base}
    return {"kind": "rule", "form": rule.normal_form.value, "evars": evars,
            **base}


def proof_to_json(p: ProofGraph, goal: Optional[BooleanCQ] = None) -> str:
    return format_json(proof_document(p, goal))


def proof_document(p: ProofGraph, goal: Optional[BooleanCQ] = None) -> dict:
    """The JSON document of a proof (and its goal), as plain values."""
    texts: dict[Atom, str] = {}

    def text(atom: Atom) -> str:
        shown = texts.get(atom)
        if shown is None:
            shown = texts[atom] = format_atom(atom)
        return shown

    vertices = []
    for v, lab in sorted(p.vertices.items()):
        obj = _label_to_json(lab, text)
        obj["id"] = v
        vertices.append(obj)
    edges = [{"premises": list(e.premises), "conclusion": e.conclusion,
              "schema": e.schema.value}
             for e in sorted(p.edges,
                             key=lambda e: (e.conclusion, e.premises))]
    doc = {"schema_version": SCHEMA_VERSION, "deriver": p.deriver(),
           "vertices": vertices, "edges": edges}
    if goal is not None:
        obj = _label_to_json(CQLabel(goal), text)
        del obj["label"]
        doc["goal"] = obj
    return doc


_SCHEMA_NAMES = {s.value: s for s in Schema}
_FORM_NAMES = {f.value: f for f in NormalForm}


def _strings(obj: dict, key: str) -> list[str]:
    value = obj.get(key)
    if not isinstance(value, list) or not all(type(s) is str for s in value):
        raise KBError(f"{key!r} must be a list of strings")
    return value


def _label_from_json(obj, atom) -> Label:
    """``atom`` reads an atom text."""
    if not isinstance(obj, dict):
        raise KBError("a label must be a JSON object")
    kind = obj.get("kind")
    if kind == "atom":
        return AtomLabel(atom(obj.get("atom")))
    if kind in ("conjunction", "cq"):
        atoms = tuple(map(atom, _strings(obj, "atoms")))
        if kind == "conjunction":
            return ConjLabel(atoms)
        evars = tuple(map(Var, _strings(obj, "evars")))
        return CQLabel(BooleanCQ(atoms, evars))
    if kind not in ("skolem_rule", "taut_rule", "rule"):
        raise KBError(f"unknown label kind {kind!r}")
    body = tuple(map(atom, _strings(obj, "body")))
    head = tuple(map(atom, _strings(obj, "head")))
    if kind == "taut_rule":
        return RuleLabel(TautRule(body, head,
                                  tuple(map(Var, _strings(obj, "evars")))))
    form = obj.get("form")
    if type(form) is not str or form not in _FORM_NAMES:
        raise KBError(f"unknown rule form {form!r}")
    if kind == "rule":
        return RuleLabel(Rule(body, head,
                              tuple(map(Var, _strings(obj, "evars"))),
                              _FORM_NAMES[form]))
    index, fn = obj.get("index"), obj.get("fn")
    if type(index) is not int or not (fn is None or type(fn) is str):
        raise KBError("a Skolem rule needs an integer 'index' and a string "
                      "or null 'fn'")
    return RuleLabel(SkolemRule(body, head, _FORM_NAMES[form], index, fn))


def proof_from_json(text: str) -> tuple[ProofGraph, Optional[BooleanCQ]]:
    """Read a proof document; a malformed one raises KBError naming the
    first problem found."""
    from .parser import KBSyntaxError, parse_atom_text

    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise KBError(f"proof file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise KBError("a proof file holds a JSON object, not "
                      f"{type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise KBError(f"unsupported proof schema version "
                      f"{doc.get('schema_version')!r}, expected "
                      f"{SCHEMA_VERSION}")
    # atom texts repeat across labels: each distinct one is read once
    atoms: dict[str, Atom] = {}

    def atom(text) -> Atom:
        if type(text) is not str:
            raise KBError(f"an atom must be a string, not {text!r}")
        a = atoms.get(text)
        if a is None:
            try:
                a = atoms[text] = parse_atom_text(text)
            except KBSyntaxError as exc:
                raise KBError(f"atom {text!r}: {exc}") from None
        return a

    vertex_list, edge_list = doc.get("vertices"), doc.get("edges")
    if not isinstance(vertex_list, list) or not isinstance(edge_list, list):
        raise KBError("a proof needs 'vertices' and 'edges' lists")
    vertices: dict[int, Label] = {}
    for v in vertex_list:
        vid = v.get("id") if isinstance(v, dict) else None
        if type(vid) is not int:
            raise KBError(f"vertex without an integer 'id': {v!r:.80}")
        if vid in vertices:
            raise KBError(f"vertex {vid} is defined twice")
        try:
            vertices[vid] = _label_from_json(v, atom)
        except KBError as exc:
            raise KBError(f"vertex {vid}: {exc}") from None
    edges = []
    for e in edge_list:
        if not isinstance(e, dict):
            raise KBError(f"an edge must be a JSON object: {e!r:.80}")
        premises, conclusion = e.get("premises"), e.get("conclusion")
        schema = e.get("schema")
        if not isinstance(premises, list):
            raise KBError(f"edge into {conclusion!r} has no 'premises' list")
        for q in [conclusion] + premises:
            if type(q) is not int or q not in vertices:
                raise KBError(f"edge into {conclusion!r} names unknown "
                              f"vertex {q!r}")
        if type(schema) is not str or schema not in _SCHEMA_NAMES:
            raise KBError(f"edge into {conclusion} has unknown schema "
                          f"{schema!r}")
        edges.append(ProofEdge(tuple(premises), conclusion,
                               _SCHEMA_NAMES[schema]))
    goal = None
    if "goal" in doc:
        try:
            lab = _label_from_json(doc["goal"], atom)
        except KBError as exc:
            raise KBError(f"goal: {exc}") from None
        if not isinstance(lab, CQLabel):
            raise KBError("the goal must be a 'cq' label")
        goal = lab.cq
    return ProofGraph(vertices, edges), goal


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def proof_to_dot(p: ProofGraph) -> str:
    """Rule vertices gray and rounded, the goal vertex filled."""
    lines = ["digraph proof {", "  rankdir=BT;",
             '  node [shape=box, style=rounded];']
    sink = p.sink()
    for v, lab in sorted(p.vertices.items()):
        attrs = [f"label={_dot_quote(format_label(lab))}"]
        if isinstance(lab, RuleLabel):
            attrs.append('color=gray')
            attrs.append('fontcolor=gray')
        if v == sink:
            attrs.append('style="rounded,filled"')
            attrs.append('fillcolor=lightgray')
        lines.append(f"  v{v} [{', '.join(attrs)}];")
    for i, (schema, premises, conclusions) in enumerate(inference_steps(p)):
        j = f"e{i}"
        lines.append(f"  {j} [shape=point, width=0.05, "
                     f"xlabel={_dot_quote('(' + schema.value + ')')}];")
        for q in premises:
            lines.append(f"  v{q} -> {j} [arrowhead=none];")
        for c in conclusions:
            lines.append(f"  {j} -> v{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"
