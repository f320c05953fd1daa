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
they carry no binding context of their own.  ``exists(`` opens an atom.

A regex scanner reads the shapes the serializer writes, a label atom with
nested Skolem terms or a statement over flat atoms, without the tokenizer;
the grammar reads everything else and alone reports errors.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .kb import (Atom, BooleanCQ, ConceptAtom, Const, EqAtom, KBError,
                 KnowledgeBase, RoleAtom, Rule, Signature, SkolemTerm, Term,
                 Var, atom_pred, atom_terms, atom_vars, format_atom,
                 format_term, make_kb, make_rule, map_atom_terms,
                 signature_of, subterms, RESERVED_CONCEPTS)


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
    """Consume ``exists v1, v2.`` if present; returns declared names.
    ``exists(`` opens an atom of the predicate ``exists``."""
    if toks[i] != "exists" or toks[i + 1] == "(":
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
        return make_rule(body, head, evars)
    except KBError as exc:
        raise KBSyntaxError(str(exc), lineno, 1) from exc


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


# ---------------------------------------------------------------------------
# Scanner (the canonical shapes at one regex match each; None otherwise)
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_]\w*"
# a label term: unary Skolem applications around a name or ?name;
# _scan_term checks that its parentheses balance
_TERM = rf"(?:{_NAME}\()*\??{_NAME}\)*"
_LABEL_ATOM = re.compile(rf"({_NAME})\(({_TERM})(?:,({_TERM}))?\)", re.ASCII)
_FLAT_ATOM = re.compile(rf"({_NAME})\(({_NAME})(?:,({_NAME}))?\)", re.ASCII)
_FLAT = rf"{_NAME}\({_NAME}(?:,{_NAME})?\)"
_ATOMS = rf"({_FLAT}(?:, *{_FLAT})*)"
_EXISTS = rf"(?:exists +({_NAME}(?:, *{_NAME})*)\. *)?"
_STATEMENT = re.compile(rf"rule: *{_ATOMS} *-> *{_EXISTS}{_ATOMS}"
                        rf"|fact: *({_FLAT})|query: *{_EXISTS}{_ATOMS}",
                        re.ASCII)
# the argument names in a flat atom list, and the names of an exists list
_ARG, _WORD = re.compile(r"\w+(?=[,)])"), re.compile(r"\w+")
# a reserved name is a whole word of its line
_RESERVED_WORD = re.compile(rf"\b(?:{'|'.join(RESERVED_CONCEPTS)})\b")


def _scan_term(text: str) -> Optional[Term]:
    """The term of a ``_TERM`` match, built without recursion; None when
    its ``)`` do not match its ``(``."""
    fns = text.split("(")
    inner = fns.pop()
    name = inner.rstrip(")")
    if len(inner) - len(name) != len(fns):
        return None
    term: Term = Var(name[1:]) if name[0] == "?" else Const(name)
    for fn in reversed(fns):
        term = SkolemTerm(fn, term)
    return term


def _scan_atom(text: str) -> Optional[Atom]:
    m = _LABEL_ATOM.fullmatch(text)
    if m is None:
        return None
    terms = [_scan_term(t) for t in m.groups()[1:] if t is not None]
    if None in terms:
        return None
    return (ConceptAtom if len(terms) == 1 else RoleAtom)(m[1], *terms)


def _scan_atoms(text: str, variables) -> list[Atom]:
    """The flat atoms of an ``_ATOMS`` match; names in ``variables`` are
    variables, the others individual names."""
    atoms: list[Atom] = []
    for pred, s, t in _FLAT_ATOM.findall(text):
        subj = Var(s) if s in variables else Const(s)
        atoms.append(RoleAtom(pred, subj, Var(t) if t in variables else
                              Const(t)) if t else ConceptAtom(pred, subj))
    return atoms


def _scan_statement(raw: str) -> Optional[tuple]:
    """The line read as ``_parse_statement`` reads it, or None: the line is
    not a canonical statement over flat atoms, an existential variable
    shadows a body name, or ``make_rule`` refuses the rule."""
    m = _STATEMENT.fullmatch(raw)
    if m is None:
        return None
    body, rule_evars, head, fact, query_evars, query = m.groups()
    if fact is not None:
        return "fact", _scan_atoms(fact, ())[0]
    evars = _WORD.findall(rule_evars or query_evars or "")
    if body is None:
        return "query", BooleanCQ(tuple(_scan_atoms(query, evars)),
                                  tuple(map(Var, evars)))
    body_vars = set(_ARG.findall(body))     # every body name is a variable
    if body_vars.intersection(evars):
        return None
    try:
        return "rule", make_rule(_scan_atoms(body, body_vars),
                                 _scan_atoms(head, body_vars.union(evars)),
                                 map(Var, evars))
    except KBError:
        return None


def _scan_reserved(atoms: Iterable[Atom], lineno: int) -> None:
    for a in atoms:
        # the predicate ('=' for an equality), then each term's names
        names = [atom_pred(a)[-1]] + [
            s.fn if isinstance(s, SkolemTerm) else s.name
            for t in atom_terms(a) for s in subterms(t)
            if not isinstance(s, Var)]
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


def _parse_statement(raw: str, lineno: int) -> Optional[tuple]:
    """The grammar's reading of one line: ``(kind, value)`` with a Rule, an
    Atom or a BooleanCQ, or None for a blank line."""
    toks = _tokenize(raw, lineno)
    if len(toks) == 1:
        return None
    try:
        kind = toks[0]
        if kind in _PUNCT:
            raise _expected("name", toks, 0)
        if kind not in ("rule", "fact", "query"):
            raise _Stop(f"unknown statement kind {kind!r}", 0)
        if toks[1] != ":":
            raise _expected(":", toks, 1)
        if kind == "rule":
            return kind, _parse_rule_statement(toks, 2, lineno)
        if kind == "fact":
            return kind, _parse_fact_statement(toks, 2)
        return kind, _parse_query_statement(toks, 2)
    except _Stop as stop:
        raise _syntax_error(stop, raw, lineno) from None


def _read_statement(raw: str, lineno: int) -> Optional[tuple]:
    """The line's ``(kind, value)`` (None for a blank line), by the scanner
    or else the grammar, with no reserved name in it."""
    statement = _scan_statement(raw) or _parse_statement(raw, lineno)
    if statement is not None and _RESERVED_WORD.search(raw):
        kind, value = statement
        _scan_reserved(value.body + value.head if kind == "rule" else
                       value.atoms if kind == "query" else [value], lineno)
    return statement


def parse_document(text: str) -> Document:
    rules: list[tuple[int, Rule]] = []
    facts: list[tuple[int, Atom]] = []
    queries: list[BooleanCQ] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        statement = _read_statement(raw, lineno)
        if statement is None:
            continue
        kind, value = statement
        if kind == "query":
            queries.append(value)
        else:
            (rules if kind == "rule" else facts).append((lineno, value))

    try:
        kb = make_kb([r for _, r in rules], [a for _, a in facts])
        # the KB's signature is checked for clashes; the queries' names
        # must not clash with it either, but stay out of it
        s = kb.signature
        q = signature_of((), [a for query in queries for a in query.atoms])
        Signature(s.concept_names | q.concept_names, s.role_names
                  | q.role_names, s.individual_names | q.individual_names)
    except KBError as exc:
        _check_name_spaces(rules, facts, queries)   # a clash, with its line
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


def parse_kb(text: str) -> KnowledgeBase:
    return parse_document(text).kb


# ---------------------------------------------------------------------------
# Proof-label parsing (explicit ?var markers, nested Skolem terms)
# ---------------------------------------------------------------------------

def parse_atom_text(text: str) -> Atom:
    return _scan_atom(text) or _parse_label_atom(text)


def _parse_label_atom(text: str) -> Atom:
    """The grammar's reading of a label atom."""
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
    """KB surface syntax: variables print bare (binding context
    disambiguates), as in the label syntax without its '?'."""
    return format_term(t).replace("?", "")


def format_rule(rule: Rule) -> str:
    body = ", ".join(map(format_atom, rule.body))
    head = ", ".join(map(format_atom, rule.head))
    if rule.existential_vars:
        names = ", ".join(v.name for v in rule.existential_vars)
        head = f"exists {names}. {head}"
    return f"rule: {body} -> {head}".replace("?", "")


def format_query(q: BooleanCQ) -> str:
    atoms = ", ".join(map(format_atom, q.atoms))
    if q.existential_vars:
        names = ", ".join(v.name for v in q.existential_vars)
        atoms = f"exists {names}. {atoms}"
    return f"query: {atoms}".replace("?", "")


def serialize_document(kb: KnowledgeBase, queries: Iterable[BooleanCQ] = ()) -> str:
    lines = [format_rule(r) for r in kb.tbox]
    lines += [f"fact: {format_atom(a)}" for a in kb.abox]     # ground
    lines += [format_query(q) for q in queries]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Thin normalizer (CLI convenience)
# ---------------------------------------------------------------------------

def normalize_rules(raw_rules: Iterable[tuple[tuple[Atom, ...],
                                              tuple[Atom, ...],
                                              tuple[Var, ...]]],
                    taken_names: set[str]) -> list[Rule]:
    """Split conjunctive heads and wide bodies into normal shapes.

    Introduces fresh concept names for qualified branches in bodies and for
    conjunctive existential fillers; anything stranger is rejected.
    """
    taken = set(taken_names)
    fresh = (n for n in map("N{}".format, itertools.count(1))
             if n not in taken)
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
            filler = next(fresh)
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


def _flatten_body(body, produced: list[Rule], fresh: Iterator[str]):
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
                name = next(fresh)
                produced.append(make_rule([a, b], [ConceptAtom(name, anchor)]))
                features.append(ConceptAtom(name, anchor))
            elif isinstance(other, Var) and counts.get(other, 0) == 1:
                used[i] = True
                name = next(fresh)
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
        name = next(fresh)
        produced.append(make_rule([a, b], [ConceptAtom(name, anchor)]))
        features = [ConceptAtom(name, anchor)] + features[2:]
    return tuple(features)


def normalize_document_text(text: str) -> str:
    """Split each rule as the parser does, normalize the rules, and re-emit
    the document, its fact and query lines read and then kept as written."""
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
                _scan_reserved(raw_rules[-1][0] + raw_rules[-1][1], lineno)
        except _Stop as stop:
            raise _syntax_error(stop, raw, lineno) from None
        if kind in ("fact", "query"):
            _read_statement(raw, lineno)        # as parse_document reads it
            other_lines.append(raw.split("#", 1)[0].strip())
        elif kind != "rule":
            raise KBSyntaxError(f"unknown statement kind {kind!r}", lineno, 1)
        taken.update(t for t in toks if t not in _PUNCT)
    rules = normalize_rules(raw_rules, taken)
    lines = [format_rule(r) for r in rules] + other_lines
    return "\n".join(lines) + "\n"
