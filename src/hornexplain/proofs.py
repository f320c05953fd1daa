"""Proof hypergraphs: labels, structural checks, measures, export.

A proof is a finite acyclic labeled hypergraph with exactly one sink and at
most one incoming hyperedge per vertex, whose leaves are facts or rules of
the knowledge base and whose edges instantiate the inference schemas of one
of the two derivers (ground-atom level or whole-query level).  A vertex's
label is the value it labels, with no wrapper: an atom, a ground
conjunction as a tuple of atoms, a :class:`~hornexplain.kb.BooleanCQ`, or a
rule (:class:`~hornexplain.kb.Rule`, :class:`~hornexplain.kb.SkolemRule` or
:class:`TautRule`); code tells them apart by type.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import (Callable, Hashable, Iterable, Iterator, NamedTuple,
                    Optional, Sequence, Union)

from .kb import (ATOM_TYPES, Atom, BooleanCQ, KBError, KnowledgeBase,
                 NormalForm, Rule, SkolemRule, Term, Var, atom_key, atom_terms,
                 atom_vars, cq_equivalent, format_atom, make_rule, subterms,
                 term_is_ground)
from .matching import match_positionally


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


# ---------------------------------------------------------------------------
# Vertex labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TautRule:
    """A tautology ``phi(x, y) -> exists x'. phi(x', y)`` used by (Te)."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    existential_vars: tuple[Var, ...]

    @cached_property
    def shape_error(self) -> Optional[str]:
        """Why this is no tautology, or None; judged once per rule, so the
        Te step that introduces it and every step that applies it share
        the verdict."""
        return _taut_shape_error(self)

    @cached_property
    def renaming(self) -> Optional[dict[Var, Term]]:
        """The match of the body onto the head, or None; computed once per
        rule for its shape check and its grounding."""
        return match_positionally(list(self.body), list(self.head))


def _taut_shape_error(rule: TautRule) -> Optional[str]:
    if len(rule.body) != len(rule.head):
        return "tautology head must repeat the pattern"
    mapping = rule.renaming
    if mapping is None:
        return "tautology head must be a variable renaming of the pattern"
    image_evars = set(rule.existential_vars)
    seen: dict[Term, Var] = {}
    for v, t in mapping.items():
        if not isinstance(t, Var):
            return "tautologies only rename variables"
        if t in seen.values() and seen.get(t) != v:
            return "tautology renaming must be injective"
        seen[t] = v
        if t != v and t not in image_evars:
            return "renamed variables must be re-quantified"
    for v in image_evars:
        if v not in mapping.values() and v not in {x for a in rule.head
                                                   for x in atom_vars(a)}:
            return "existential variables must occur in the head"
    return None


RULE_TYPES = (Rule, SkolemRule, TautRule)    # for isinstance

# a ground conjunction's duplicates are meaningful and its order is kept
Label = Union[Atom, tuple[Atom, ...], BooleanCQ, Rule, SkolemRule, TautRule]


def label_key(label: Label):
    if isinstance(label, ATOM_TYPES):
        return (0, atom_key(label))
    if isinstance(label, tuple):
        return (1,) + tuple(atom_key(a) for a in label)
    if isinstance(label, BooleanCQ):
        return ((2,) + tuple(atom_key(a) for a in label.atoms)
                + tuple(sorted(v.name for v in label.existential_vars)))
    if isinstance(label, SkolemRule):
        return (3, 0, label.index)
    if isinstance(label, Rule):
        return (3, 1, tuple(atom_key(a) for a in label.body + label.head))
    return (3, 2, tuple(atom_key(a) for a in label.body + label.head))


# ---------------------------------------------------------------------------
# The hypergraph
# ---------------------------------------------------------------------------

def postorder(roots: Iterable[Hashable],
              premises: Callable[[Hashable], Sequence[Hashable]]
              ) -> Iterator[Hashable]:
    """Every node reachable from the roots through ``premises``, each after
    all of its premises (depth first, in premise order).  A node is asked
    for its premises once, when the walk first reaches it.  ValueError on a
    cycle."""
    state: dict = {}                    # 1 on the path, 2 done
    for root in roots:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(premises(root)))]
        while stack:
            v, todo = stack[-1]
            for q in todo:
                s = state.get(q)
                if s is None:
                    below = premises(q)
                    if below:
                        state[q] = 1
                        stack.append((q, iter(below)))
                        break
                    state[q] = 2        # a leaf is done at once
                    yield q
                elif s == 1:
                    raise ValueError("cycle detected")
            else:
                stack.pop()
                state[v] = 2
                yield v


def _postorder(inc: dict[int, list[ProofEdge]],
               roots: Iterable[int]) -> Iterator[int]:
    """:func:`postorder` over the incoming edges, premises in edge order."""
    return postorder(roots, lambda v: [q for e in inc[v] for q in e.premises])


class ProofEdge(NamedTuple):
    """A hyperedge; a named tuple, which costs half a frozen dataclass to
    build, as every saturation and proof builds one per edge."""

    premises: tuple[int, ...]
    conclusion: int
    schema: Schema


@dataclass
class ProofGraph:
    vertices: dict[int, Label]
    edges: list[ProofEdge]
    # each query-level edge's analysis with the labels it read
    # (deriver_cq.analyze_edge); no part of the proof's value, so equality,
    # repr, copies and pickles leave it out
    analyses: dict[ProofEdge, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {"vertices": self.vertices, "edges": self.edges}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, analyses={})

    def incoming(self) -> dict[int, list[ProofEdge]]:
        """Incoming edges by vertex, and by each unknown id one concludes."""
        inc: dict[int, list[ProofEdge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc.setdefault(e.conclusion, []).append(e)
        return inc

    def sink(self) -> int:
        premises = {q for e in self.edges for q in e.premises}
        sinks = [v for v in self.vertices if v not in premises]
        if len(sinks) != 1:
            raise ValueError(f"expected exactly one sink, found {len(sinks)}")
        return sinks[0]

    def topological_order(self) -> list[int]:
        """Vertices ordered premises before conclusions; raises on cycles."""
        return list(_postorder(self.incoming(), sorted(self.vertices)))

    def deriver(self) -> str:
        if any(e.schema in CQ_SCHEMAS for e in self.edges):
            return "cq"
        return "sk"


class ProofBuilder:
    """A proof as it is built, its vertices numbered 0, 1, ... in the order
    they are added."""

    def __init__(self):
        self.vertices: dict[int, Label] = {}
        self.edges: list[ProofEdge] = []

    def add_vertex(self, label: Label) -> int:
        vid = len(self.vertices)
        self.vertices[vid] = label
        return vid

    def add_edge(self, premises: Iterable[int], conclusion: int,
                 schema: Schema) -> None:
        self.edges.append(ProofEdge(tuple(premises), conclusion, schema))

    def build(self) -> ProofGraph:
        return ProofGraph(dict(self.vertices), list(self.edges))


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
    if isinstance(label, RULE_TYPES):
        return set()
    atoms = ((label,) if isinstance(label, ATOM_TYPES) else
             label if isinstance(label, tuple) else label.atoms)
    return {s for a in atoms for t in atom_terms(a) for s in subterms(t)
            if term_is_ground(s)}


def domain_size(p: ProofGraph) -> int:
    terms: set[Term] = set()
    for label in p.vertices.values():
        terms |= ground_terms_of_label(label)
    return len(terms)


def measure(p: ProofGraph, m: Measure) -> int:
    if m is Measure.DOMAIN_SIZE and p.deriver() == "cq":
        raise ValueError("domain size is not defined for query-level proofs")
    if m is Measure.SIZE:
        return proof_size(p)
    if m is Measure.TREE_SIZE:
        return tree_size(p)
    return domain_size(p)


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
    keep = list(_postorder(inc, [vid]))
    return ProofGraph({v: p.vertices[v] for v in keep},
                      [e for v in keep for e in inc[v]])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _walk(p: ProofGraph) -> tuple[list[int], list[int], list[str]]:
    """The sinks, the leaves and the shape problems, from one walk."""
    if not p.vertices:
        return [], [], ["proof has no vertices"]
    ids = sorted(p.vertices)
    inc = p.incoming()
    premises = {q for e in p.edges for q in e.premises}
    sinks = [v for v in ids if v not in premises]
    problems = ([] if len(sinks) == 1
                else [f"expected exactly one sink, found {len(sinks)}"])
    problems += [f"vertex {v} has {len(inc[v])} incoming hyperedges"
                 for v in ids if len(inc[v]) > 1]
    for q in premises.difference(p.vertices):
        inc.setdefault(q, [])       # not a vertex: a leaf of the walk
    try:
        list(_postorder(inc, ids))
    except ValueError:
        problems.append("acyclicity violated")
    if len(inc) > len(ids):         # an edge names an id that is no vertex
        for e in p.edges:
            missing = sorted({*e.premises, e.conclusion}
                             .difference(p.vertices))
            if missing:
                problems.append(f"edge references unknown vertices {missing}")
    return sinks, [v for v in ids if not inc[v]], problems


def check_proof_shape(p: ProofGraph) -> tuple[bool, list[str]]:
    """The deriver-independent proof conditions."""
    problems = _walk(p)[2]
    return not problems, problems


def label_matches_goal(label: Label, goal: BooleanCQ) -> bool:
    if isinstance(label, BooleanCQ):
        return cq_equivalent(label, goal)
    if isinstance(label, ATOM_TYPES):
        return (not goal.existential_vars and len(goal.atoms) == 1
                and goal.atoms[0] == label)
    if isinstance(label, tuple):
        return (not goal.existential_vars
                and Counter(label) == Counter(goal.atoms))
    return False


def validate_proof(p: ProofGraph, kb: KnowledgeBase, goal: BooleanCQ,
                   deriver: str = "sk") -> tuple[bool, list[str]]:
    """Full admissibility check against the KB and the goal query."""
    from . import deriver_cq, deriver_sk

    sinks, leaves, problems = _walk(p)
    if problems:
        return False, problems

    allowed = SK_SCHEMAS if deriver == "sk" else CQ_SCHEMAS
    problems = [f"schema {e.schema.value} not available in the {deriver} "
                "deriver" for e in p.edges if e.schema not in allowed]
    if problems:
        return False, problems

    if not label_matches_goal(p.vertices[sinks[0]], goal):
        problems.append("sink label does not match the goal query")

    if deriver == "sk":
        leaf_ok, checker = kb.sk_leaf_labels, deriver_sk.check_edge_labels
    else:
        leaf_ok, checker = kb.cq_leaf_labels, None
    for v in leaves:
        if p.vertices[v] not in leaf_ok:
            problems.append(f"leaf {v} ({format_label(p.vertices[v])}) is not "
                            "a fact or rule of the knowledge base")
    for e in p.edges:
        conclusion = p.vertices[e.conclusion]
        if checker is not None:
            err = checker(e.schema, tuple(p.vertices[q] for q in e.premises),
                          conclusion, kb)
        else:   # kept on the proof, where its translation reads it
            err = deriver_cq.analyze_edge(p, e, kb)
            err = err if isinstance(err, str) else None
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

# a str's JSON string; Enum values reach it as ``_value_``, since reading
# ``.value`` runs Python code
_quote = json.encoder.encode_basestring_ascii
_SCALAR_TYPES = (str, int, bool, type(None))


def format_label(label: Label, text=format_atom) -> str:
    """The label's display text; ``text`` formats an atom."""
    if isinstance(label, ATOM_TYPES):
        return text(label)
    if isinstance(label, tuple):
        return ", ".join(map(text, label))
    if isinstance(label, BooleanCQ):
        shown, evars, atoms = "", label.existential_vars, label.atoms
    else:
        shown = f"{', '.join(map(text, label.body))} -> "
        evars = getattr(label, "existential_vars", ())
        atoms = label.head
    if evars:
        shown += f"exists {', '.join(v.name for v in evars)}. "
    return shown + ", ".join(map(text, atoms))


def _json_list(items: list[str], nl: str) -> str:
    """A JSON list of written items, one per line, one level deeper than
    the line break and indentation ``nl``."""
    if not items:
        return "[]"
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(items)}{nl}]"


def _fields(label: Label, text, quote, nl: str) -> tuple[str, str]:
    """The JSON keys of a label other than an atom label, in key order:
    those before "id" and those after it, separated by "," and ``nl``.
    ``text`` formats an atom and ``quote`` writes its JSON string."""
    sep = "," + nl
    shown = _quote(format_label(label, text))
    if isinstance(label, tuple):
        return (f'"atoms": {_json_list(list(map(quote, label)), nl)}',
                f'"kind": "conjunction"{sep}"label": {shown}')
    if isinstance(label, BooleanCQ):
        atoms = _json_list(list(map(quote, label.atoms)), nl)
        evars = _json_list([_quote(v.name)
                            for v in label.existential_vars], nl)
        return (f'"atoms": {atoms}{sep}"evars": {evars}',
                f'"kind": "cq"{sep}"label": {shown}')
    rule = label
    body = _json_list(list(map(quote, rule.body)), nl)
    head = _json_list(list(map(quote, rule.head)), nl)
    if isinstance(rule, SkolemRule):
        fn = "null" if rule.fn is None else _quote(rule.fn)
        return (f'"body": {body}{sep}"fn": {fn}{sep}"form": '
                f'{_quote(rule.normal_form._value_)}{sep}"head": {head}',
                f'"index": {rule.index}{sep}"kind": "skolem_rule"{sep}'
                f'"label": {shown}')
    evars = _json_list([_quote(v.name) for v in rule.existential_vars], nl)
    if isinstance(rule, TautRule):
        return (f'"body": {body}{sep}"evars": {evars}{sep}"head": {head}',
                f'"kind": "taut_rule"{sep}"label": {shown}')
    return (f'"body": {body}{sep}"evars": {evars}{sep}"form": '
            f'{_quote(rule.normal_form._value_)}{sep}"head": {head}',
            f'"kind": "rule"{sep}"label": {shown}')


# An atom vertex, any other vertex and an edge, each as an item of a
# top-level list, with its keys in order
_ATOM_VERTEX = ('{\n      "atom": %s,\n      "id": %d,\n      "kind": "atom",'
                '\n      "label": %s\n    }')
_VERTEX = '{\n      %s,\n      "id": %d,\n      %s\n    }'
_EDGE = ('{\n      "conclusion": %d,\n      "premises": %s,'
         '\n      "schema": %s\n    }')


def proof_to_json(p: ProofGraph, goal: Optional[BooleanCQ] = None,
                  extra: Optional[dict] = None) -> str:
    """The proof document (with its goal, and with the top-level keys of
    ``extra``, whose values are str, int, bool or None) as
    ``json.dumps(document, indent=2, sort_keys=True)`` writes it, built
    straight from the labels: each distinct term and atom is written
    once."""
    terms: dict[Term, str] = {}
    texts: dict[Atom, str] = {}
    quoted: dict[Atom, str] = {}

    def text(atom: Atom) -> str:
        shown = texts.get(atom)
        if shown is None:
            shown = texts[atom] = format_atom(atom, terms)
        return shown

    def quote(atom: Atom) -> str:
        shown = quoted.get(atom)
        if shown is None:
            shown = quoted[atom] = _quote(texts.get(atom) or text(atom))
        return shown

    nl = "\n      "
    vertices = []
    for v, lab in sorted(p.vertices.items()):
        if isinstance(lab, ATOM_TYPES):
            shown = quote(lab)
            vertices.append(_ATOM_VERTEX % (shown, v, shown))
        else:
            before, after = _fields(lab, text, quote, nl)
            vertices.append(_VERTEX % (before, v, after))
    edges = [_EDGE % (e.conclusion, _json_list(list(map(str, e.premises)), nl),
                      _quote(e.schema._value_))
             for e in sorted(p.edges, key=lambda e: (e.conclusion, e.premises))]
    doc = {"deriver": _quote(p.deriver()),
           "edges": _json_list(edges, "\n  "),
           "schema_version": str(SCHEMA_VERSION),
           "vertices": _json_list(vertices, "\n  ")}
    if goal is not None:
        nl = "\n    "
        doc["goal"] = (f"{{{nl}{_fields(goal, text, quote, nl)[0]},"
                       f'{nl}"kind": "cq"\n  }}')
    for key, value in (extra or {}).items():
        if type(value) not in _SCALAR_TYPES:
            raise TypeError(f"a top-level value must be a str, int, bool or "
                            f"None, not {type(value).__name__}")
        doc[key] = json.dumps(value)
    body = ",\n  ".join(f"{_quote(key)}: {doc[key]}" for key in sorted(doc))
    return f"{{\n  {body}\n}}"


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
        return atom(obj.get("atom"))
    if kind in ("conjunction", "cq"):
        atoms = tuple(map(atom, _strings(obj, "atoms")))
        if kind == "conjunction":
            return atoms
        return BooleanCQ(atoms, tuple(map(Var, _strings(obj, "evars"))))
    if kind not in ("skolem_rule", "taut_rule", "rule"):
        raise KBError(f"unknown label kind {kind!r}")
    body = tuple(map(atom, _strings(obj, "body")))
    head = tuple(map(atom, _strings(obj, "head")))
    if kind == "taut_rule":
        return TautRule(body, head, tuple(map(Var, _strings(obj, "evars"))))
    form = obj.get("form")
    if type(form) is not str or form not in _FORM_NAMES:
        raise KBError(f"unknown rule form {form!r}")
    if kind == "rule":
        rule = make_rule(body, head, map(Var, _strings(obj, "evars")))
        if rule.normal_form is not _FORM_NAMES[form]:
            raise KBError(f"rule form {form!r} does not match the rule's "
                          f"shape ({rule.normal_form.value})")
        return rule
    index, fn = obj.get("index"), obj.get("fn")
    if type(index) is not int or not (fn is None or type(fn) is str):
        raise KBError("a Skolem rule needs an integer 'index' and a string "
                      "or null 'fn'")
    return SkolemRule(body, head, _FORM_NAMES[form], index, fn)


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
        if not isinstance(lab, BooleanCQ):
            raise KBError("the goal must be a 'cq' label")
        goal = lab
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
        if isinstance(lab, RULE_TYPES):
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
