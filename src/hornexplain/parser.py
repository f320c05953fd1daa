"""Text format for knowledge bases, queries, and proof labels.

One statement per line::

    rule: A(x), r(x,y) -> B(y)
    rule: A(x) -> exists y. r(x,y), B(y)
    fact: r(a,b)
    query: exists x, y. r(x,y), D(x)

``#`` starts a comment.  Identifiers bound by ``exists`` or occurring in a
rule body are variables; everything else is an individual name.  ``r-``
denotes the inverse of ``r`` and is canonicalized away while parsing.
Proof labels use an explicit ``?x`` marker for variables instead, since
they carry no binding context of their own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .kb import (Atom, BooleanCQ, ConceptAtom, Const, EqAtom, Fragment,
                 KBError, KnowledgeBase, RoleAtom, Rule, SkolemTerm, Term,
                 Var, atom_terms, atom_vars, classify_rule, make_kb,
                 make_rule, map_atom_terms, subterms, RESERVED_CONCEPTS)


class KBSyntaxError(KBError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# A token is the arrow, a one-character symbol (``-`` marks an inverse
# role), a word, or any other single character, which is a lexical error.
_TOKEN = re.compile(r"->|[-(),.=?:]|\w+|\S")
# Every line with a lexical error matches: a character no token may hold, a
# '>' outside an arrow, a word starting with a digit, or any non-ASCII
# character (a word must start with a letter or '_', which only
# ``str.isalpha`` tells for non-ASCII numerics such as '²' or 'Ⅻ').
_SUSPECT = re.compile(r"[^\w\s(),.=?:>-]|(?<!-)>|\b\d|[^\x00-\x7f]")
# The symbol tokens, and "" for the end of the line; every other token is
# a name.
_PUNCT = frozenset({"(", ")", ",", ".", "=", "?", ":", "-", "->", ""})


def _tokenize(line: str, lineno: int) -> list[str]:
    """The tokens of ``line`` up to its comment, then "" for the end."""
    text = line.partition("#")[0]
    if _SUSPECT.search(text):
        for m in _TOKEN.finditer(text):
            tok = m.group()
            if tok not in _PUNCT and not (tok[0].isalpha() or tok[0] == "_"):
                raise KBSyntaxError(f"unexpected character {tok[0]!r}",
                                    lineno, m.start() + 1)
    toks = _TOKEN.findall(text)
    toks.append("")
    return toks


class _Stop(Exception):
    """A syntax error at token ``at`` of its line (None: column 0); the
    caller that holds the line turns it into a KBSyntaxError."""

    def __init__(self, message: str, at: Optional[int]):
        super().__init__(message)
        self.message = message
        self.at = at


def _expected(want: str, toks: list[str], i: int) -> _Stop:
    return _Stop(f"expected {want!r}, found {toks[i] or 'end of line'}", i)


def _syntax_error(stop: _Stop, line: str, lineno: int) -> KBSyntaxError:
    if stop.at is None:
        col = 0
    else:
        starts = [m.start() + 1
                  for m in _TOKEN.finditer(line.partition("#")[0])]
        col = starts[stop.at] if stop.at < len(starts) else len(line) + 1
    return KBSyntaxError(stop.message, lineno, col)


# ---------------------------------------------------------------------------
# Term and atom parsing (shared by KB statements and proof labels)
#
# Each function reads the token list from index ``i`` and returns what it
# read with the index after it; the list ends with "".
# ---------------------------------------------------------------------------

def _parse_term(toks: list[str], i: int,
                variables: Optional[set[str]]) -> tuple[Term, int]:
    """Variables are either pre-declared names or ``?``-marked."""
    fns = []
    while True:
        t = toks[i]
        if t == "?":
            if toks[i + 1] in _PUNCT:
                raise _expected("name", toks, i + 1)
            term: Term = Var(toks[i + 1])
            i += 2
            break
        if t in _PUNCT:
            raise _expected("name", toks, i)
        if toks[i + 1] != "(":
            term = Var(t) if variables is not None and t in variables \
                else Const(t)
            i += 1
            break
        fns.append(t)
        i += 2
    for fn in reversed(fns):
        if toks[i] != ")":
            raise _expected(")", toks, i)
        term = SkolemTerm(fn, term)
        i += 1
    return term, i


def _parse_atom(toks: list[str], i: int,
                variables: Optional[set[str]]) -> tuple[Atom, int]:
    """An atom ``P(t)``, ``r(s,t)``, ``r-(s,t)`` or equality ``t1 = t2``."""
    start = i
    name = toks[i]
    if name == "?":
        lhs, i = _parse_term(toks, i, variables)
        if toks[i] != "=":
            raise _expected("=", toks, i)
        rhs, i = _parse_term(toks, i + 1, variables)
        return EqAtom(lhs, rhs), i
    if name in _PUNCT:
        raise _expected("name", toks, i)
    i += 1
    inverse = toks[i] == "-"
    if inverse:
        i += 1
    if toks[i] == "(":
        arg, i = _parse_term(toks, i + 1, variables)
        args = [arg]
        while toks[i] == ",":
            arg, i = _parse_term(toks, i + 1, variables)
            args.append(arg)
        if toks[i] != ")":
            raise _expected(")", toks, i)
        i += 1
        if toks[i] == "=":
            # the application was a Skolem term on the left of an equality
            if inverse or len(args) != 1:
                raise _Stop("malformed equality left-hand side", start)
            rhs, i = _parse_term(toks, i + 1, variables)
            return EqAtom(SkolemTerm(name, args[0]), rhs), i
        if len(args) == 1:
            if inverse:
                raise _Stop("inverse marker on a unary predicate", start)
            return ConceptAtom(name, args[0]), i
        if len(args) == 2:
            if inverse:
                return RoleAtom(name, args[1], args[0]), i
            return RoleAtom(name, args[0], args[1]), i
        raise _Stop("predicates take one or two arguments", start)
    # bare name: left-hand side of an equality
    lhs = Var(name) if variables is not None and name in variables \
        else Const(name)
    if toks[i] != "=":
        raise _expected("=", toks, i)
    rhs, i = _parse_term(toks, i + 1, variables)
    return EqAtom(lhs, rhs), i


def _parse_atom_list(toks: list[str], i: int, variables: Optional[set[str]]
                     ) -> tuple[list[Atom], int]:
    atom, i = _parse_atom(toks, i, variables)
    atoms = [atom]
    while toks[i] == ",":
        atom, i = _parse_atom(toks, i + 1, variables)
        atoms.append(atom)
    return atoms, i


def _parse_exists_prefix(toks: list[str], i: int) -> tuple[list[str], int]:
    """Consume ``exists v1, v2.`` if present; returns declared names."""
    if toks[i] != "exists":
        return [], i
    names = []
    sep = ","
    while sep == ",":
        if toks[i + 1] in _PUNCT:
            raise _expected("name", toks, i + 1)
        names.append(toks[i + 1])
        i += 2
        sep = toks[i]
    if sep != ".":
        raise _expected(".", toks, i)
    return names, i + 1


def _expect_end(toks: list[str], i: int) -> None:
    if toks[i]:
        raise _expected("end", toks, i)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

def _split_rule(toks: list[str], i: int) -> tuple[
        tuple[Atom, ...], tuple[Atom, ...], tuple[Var, ...]]:
    """Body, head and existential variables of a rule statement from token
    ``i`` on, with the body's identifiers bound as variables; the shape is
    not checked."""
    # The arrow is found first so body identifiers can be bound.
    try:
        arrow = toks.index("->", i)
    except ValueError:
        raise _Stop("rule is missing '->'", i) from None
    # the body ends at the arrow, which reads as an end of line at column 0
    body = toks[i:arrow]
    body.append("")
    try:
        body_raw, j = _parse_atom_list(body, 0, variables=None)
    except _Stop as stop:
        stop.at = None if stop.at == arrow - i else i + stop.at
        raise
    if body[j]:
        raise _Stop("unexpected input before '->'", i + j)
    body_vars = {t.name for a in body_raw for t in atom_terms(a)
                 if isinstance(t, Const)}
    evar_names, j = _parse_exists_prefix(toks, arrow + 1)
    dup = set(evar_names) & body_vars
    if dup:
        raise _Stop(f"existential variable shadows a body variable: "
                    f"{sorted(dup)}", i)
    head_raw, j = _parse_atom_list(toks, j, body_vars | set(evar_names))
    _expect_end(toks, j)

    def bind_term(t: Term) -> Term:
        if isinstance(t, Const) and t.name in body_vars:
            return Var(t.name)
        return t

    return (tuple(map_atom_terms(a, bind_term) for a in body_raw),
            tuple(map_atom_terms(a, bind_term) for a in head_raw),
            tuple(Var(n) for n in evar_names))


def _parse_rule_statement(toks: list[str], i: int, lineno: int) -> Rule:
    body, head, evars = _split_rule(toks, i)
    try:
        form, _ = classify_rule(body, head, evars)
    except KBError as exc:
        raise KBSyntaxError(str(exc), lineno, 1) from exc
    return Rule(body, head, evars, form)


def _parse_fact_statement(toks: list[str], i: int) -> Atom:
    atom, j = _parse_atom(toks, i, variables=None)
    _expect_end(toks, j)
    if isinstance(atom, EqAtom):
        raise _Stop("facts cannot be equalities", i)
    if not all(isinstance(t, Const) for t in atom_terms(atom)):
        raise _Stop("facts must be ground over individual names", i)
    return atom


def _parse_query_statement(toks: list[str], i: int) -> BooleanCQ:
    evar_names, j = _parse_exists_prefix(toks, i)
    atoms, j = _parse_atom_list(toks, j, variables=set(evar_names))
    _expect_end(toks, j)
    if any(isinstance(a, EqAtom) for a in atoms):
        raise _Stop("queries cannot contain equality atoms", i)
    return BooleanCQ(tuple(atoms), tuple(Var(n) for n in evar_names))


def _scan_reserved(atoms: Iterable[Atom], lineno: int) -> None:
    for a in atoms:
        names = []
        if isinstance(a, ConceptAtom):
            names.append(a.concept)
        elif isinstance(a, RoleAtom):
            names.append(a.role)
        for t in atom_terms(a):
            for s in subterms(t):
                if isinstance(s, Const):
                    names.append(s.name)
                elif isinstance(s, SkolemTerm):
                    names.append(s.fn)
        for name in names:
            if name == "bot":
                raise KBSyntaxError("'bot' cannot occur (KBs are assumed "
                                    "consistent)", lineno, 1)
            if name in RESERVED_CONCEPTS:
                raise KBSyntaxError(f"{name!r} is reserved", lineno, 1)


@dataclass(frozen=True)
class Document:
    kb: KnowledgeBase
    queries: tuple[BooleanCQ, ...]


def parse_document(text: str) -> Document:
    rules: list[tuple[int, Rule]] = []
    facts: list[tuple[int, Atom]] = []
    queries: list[BooleanCQ] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, lineno)
        if len(toks) == 1:
            continue
        try:
            kind = toks[0]
            if kind in _PUNCT:
                raise _expected("name", toks, 0)
            if kind not in ("rule", "fact", "query"):
                raise _Stop(f"unknown statement kind {kind!r}", 0)
            if toks[1] != ":":
                raise _expected(":", toks, 1)
            if kind == "rule":
                rule = _parse_rule_statement(toks, 2, lineno)
                _scan_reserved(rule.body + rule.head, lineno)
                rules.append((lineno, rule))
            elif kind == "fact":
                atom = _parse_fact_statement(toks, 2)
                _scan_reserved([atom], lineno)
                facts.append((lineno, atom))
            else:
                query = _parse_query_statement(toks, 2)
                _scan_reserved(query.atoms, lineno)
                queries.append(query)
        except _Stop as stop:
            raise _syntax_error(stop, raw, lineno) from None

    _check_name_spaces(rules, facts, queries)
    try:
        kb = make_kb([r for _, r in rules], [a for _, a in facts])
    except KBError as exc:
        raise KBSyntaxError(str(exc), 0, 0) from exc
    return Document(kb, tuple(queries))


def _check_name_spaces(rules, facts, queries) -> None:
    """Concept, role, and individual names must be pairwise disjoint."""
    concepts: dict[str, int] = {}
    roles: dict[str, int] = {}
    individuals: dict[str, int] = {}

    def visit(atoms: Iterable[Atom], lineno: int):
        for a in atoms:
            if isinstance(a, ConceptAtom):
                concepts.setdefault(a.concept, lineno)
            elif isinstance(a, RoleAtom):
                roles.setdefault(a.role, lineno)
            for t in atom_terms(a):
                for s in subterms(t):
                    if isinstance(s, Const):
                        individuals.setdefault(s.name, lineno)

    for lineno, rule in rules:
        visit(rule.body + rule.head, lineno)
    for lineno, atom in facts:
        visit([atom], lineno)
    for q in queries:
        visit(q.atoms, 0)
    for name in sorted(set(concepts) & set(roles)):
        raise KBSyntaxError(f"{name!r} is used both as a concept and a role "
                            "name", max(concepts[name], roles[name]), 1)
    for name in sorted((set(concepts) | set(roles)) & set(individuals)):
        line = max(individuals[name], concepts.get(name, roles.get(name, 0)))
        raise KBSyntaxError(f"{name!r} is used both as a predicate and an "
                            "individual name", line, 1)


def parse_query_text(text: str) -> BooleanCQ:
    """A single query in the statement syntax, without the 'query:' marker."""
    try:
        return _parse_query_statement(_tokenize(text, 0), 0)
    except _Stop as stop:
        raise _syntax_error(stop, text, 0) from None


def parse_kb(text: str, expect_fragment: Optional[Fragment] = None) -> KnowledgeBase:
    """Parse a KB; optionally require it to fit a given fragment."""
    from .kb import ALL_FRAGMENTS, rule_fragments
    kb = parse_document(text).kb
    if expect_fragment is not None:
        common = ALL_FRAGMENTS
        for rule in kb.tbox:
            common &= rule_fragments(rule)
        if expect_fragment not in common:
            raise KBError(f"input is {kb.fragment.value}, not expressible in "
                          f"{expect_fragment.value} (check for inverse roles "
                          "or unsupported shapes)")
    return kb


# ---------------------------------------------------------------------------
# Proof-label parsing (explicit ?var markers, nested Skolem terms)
# ---------------------------------------------------------------------------

def parse_atom_text(text: str) -> Atom:
    toks = _tokenize(text, 0)
    try:
        atom, i = _parse_atom(toks, 0, variables=None)
        _expect_end(toks, i)
    except _Stop as stop:
        raise _syntax_error(stop, text, 0) from None
    return atom


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def format_term_surface(t: Term) -> str:
    """KB surface syntax: variables print bare (binding context disambiguates)."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, SkolemTerm):
        return f"{t.fn}({format_term_surface(t.arg)})"
    return t.name


def format_atom_surface(a: Atom) -> str:
    if isinstance(a, ConceptAtom):
        return f"{a.concept}({format_term_surface(a.term)})"
    if isinstance(a, RoleAtom):
        return (f"{a.role}({format_term_surface(a.subj)},"
                f"{format_term_surface(a.obj)})")
    return f"{format_term_surface(a.lhs)} = {format_term_surface(a.rhs)}"


def format_rule(rule: Rule) -> str:
    body = ", ".join(format_atom_surface(a) for a in rule.body)
    head = ", ".join(format_atom_surface(a) for a in rule.head)
    if rule.existential_vars:
        names = ", ".join(v.name for v in rule.existential_vars)
        return f"rule: {body} -> exists {names}. {head}"
    return f"rule: {body} -> {head}"


def format_query(q: BooleanCQ) -> str:
    atoms = ", ".join(format_atom_surface(a) for a in q.atoms)
    if q.existential_vars:
        names = ", ".join(v.name for v in q.existential_vars)
        return f"query: exists {names}. {atoms}"
    return f"query: {atoms}"


def serialize_document(kb: KnowledgeBase, queries: Iterable[BooleanCQ] = ()) -> str:
    lines = [format_rule(r) for r in kb.tbox]
    lines += [f"fact: {format_atom_surface(a)}" for a in kb.abox]
    lines += [format_query(q) for q in queries]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Thin normalizer (CLI convenience)
# ---------------------------------------------------------------------------

class _FreshNames:
    def __init__(self, taken: set[str]):
        self.taken = set(taken)
        self.counter = 0

    def next(self) -> str:
        while True:
            self.counter += 1
            name = f"N{self.counter}"
            if name not in self.taken:
                self.taken.add(name)
                return name


def normalize_rules(raw_rules: Iterable[tuple[tuple[Atom, ...],
                                              tuple[Atom, ...],
                                              tuple[Var, ...]]],
                    taken_names: set[str]) -> list[Rule]:
    """Split conjunctive heads and wide bodies into normal shapes.

    Introduces fresh concept names for qualified branches in bodies and for
    conjunctive existential fillers; anything stranger is rejected.
    """
    fresh = _FreshNames(taken_names)
    out: list[Rule] = []
    pending = [(tuple(b), tuple(h), tuple(e)) for b, h, e in raw_rules]
    for body, head, evars in pending:
        out.extend(_normalize_one(body, head, evars, fresh))
    return out


def _normalize_one(body, head, evars, fresh) -> list[Rule]:
    produced: list[Rule] = []
    body = _flatten_body(body, produced, fresh)

    if not evars and len(head) > 1:
        for h in head:
            produced.extend(_normalize_one(body, (h,), (), fresh))
        return produced

    if evars:
        concepts = [a for a in head if isinstance(a, ConceptAtom)]
        roles = [a for a in head if isinstance(a, RoleAtom)]
        if len(roles) == 1 and len(concepts) > 1:
            filler = fresh.next()
            y = evars[0]
            produced.extend(_normalize_one(
                body, (roles[0], ConceptAtom(filler, y)), evars, fresh))
            for c in concepts:
                produced.append(make_rule([ConceptAtom(filler, Var("x"))],
                                          [ConceptAtom(c.concept, Var("x"))]))
            return produced

    try:
        produced.append(make_rule(body, head, evars))
    except KBError as exc:
        raise KBError(f"cannot normalize rule: {exc}") from exc
    return produced


def _flatten_body(body, produced: list[Rule], fresh: _FreshNames):
    """Reduce a wide body to at most two atoms over one anchor variable."""
    if len(body) <= 2:
        return body
    # find the anchor: the variable shared by the most atoms
    counts: dict[Var, int] = {}
    for a in body:
        for v in atom_vars(a):
            counts[v] = counts.get(v, 0) + 1
    anchor = max(sorted(counts, key=lambda v: v.name), key=lambda v: counts[v])

    features: list[Atom] = []
    used = [False] * len(body)
    for i, a in enumerate(body):
        if used[i]:
            continue
        if isinstance(a, ConceptAtom) and a.term == anchor:
            features.append(a)
            used[i] = True
        elif isinstance(a, RoleAtom) and anchor in (a.subj, a.obj):
            other = a.obj if a.subj == anchor else a.subj
            qualifier = None
            for j, b in enumerate(body):
                if j != i and not used[j] and isinstance(b, ConceptAtom) \
                        and b.term == other:
                    qualifier = (j, b)
                    break
            if qualifier is not None and isinstance(other, Var) \
                    and counts.get(other, 0) == 2:
                j, b = qualifier
                used[i] = used[j] = True
                name = fresh.next()
                produced.append(make_rule([a, b], [ConceptAtom(name, anchor)]))
                features.append(ConceptAtom(name, anchor))
            elif isinstance(other, Var) and counts.get(other, 0) == 1:
                used[i] = True
                name = fresh.next()
                produced.append(make_rule([a], [ConceptAtom(name, anchor)]))
                features.append(ConceptAtom(name, anchor))
            else:
                raise KBError("cannot normalize: body is not a bundle of "
                              "features on one variable")
        elif not used[i]:
            raise KBError("cannot normalize: body is not a bundle of "
                          "features on one variable")
    while len(features) > 2:
        a, b = features[0], features[1]
        name = fresh.next()
        produced.append(make_rule([a, b], [ConceptAtom(name, anchor)]))
        features = [ConceptAtom(name, anchor)] + features[2:]
    return tuple(features)


def normalize_document_text(text: str) -> str:
    """Split each rule as the parser does, normalize the rules, and re-emit
    the document."""
    raw_rules = []
    other_lines = []
    taken: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, lineno)
        if len(toks) == 1:
            continue
        try:
            if toks[0] in _PUNCT:
                raise _expected("name", toks, 0)
            if toks[1] != ":":
                raise _expected(":", toks, 1)
            kind = toks[0]
            if kind == "rule":
                raw_rules.append(_split_rule(toks, 2))
        except _Stop as stop:
            raise _syntax_error(stop, raw, lineno) from None
        if kind in ("fact", "query"):
            other_lines.append(raw.split("#", 1)[0].strip())
        elif kind != "rule":
            raise KBSyntaxError(f"unknown statement kind {kind!r}", lineno, 1)
        taken.update(t for t in toks if t not in _PUNCT)
    rules = normalize_rules(raw_rules, taken)
    lines = [format_rule(r) for r in rules] + other_lines
    return "\n".join(lines) + "\n"
