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

_SYMBOLS = {"(", ")", ",", ".", "=", "?", ":"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # name | sym | arrow | inv | end
    text: str
    col: int


def _tokenize(line: str, lineno: int) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "#":
            break
        if c.isspace():
            i += 1
            continue
        if c == "-":
            if i + 1 < n and line[i + 1] == ">":
                toks.append(_Tok("arrow", "->", i + 1))
                i += 2
                continue
            toks.append(_Tok("inv", "-", i + 1))
            i += 1
            continue
        if c in _SYMBOLS:
            toks.append(_Tok("sym", c, i + 1))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (line[j].isalnum() or line[j] == "_"):
                j += 1
            toks.append(_Tok("name", line[i:j], i + 1))
            i = j
            continue
        raise KBSyntaxError(f"unexpected character {c!r}", lineno, i + 1)
    toks.append(_Tok("end", "", n + 1))
    return toks


class _Cursor:
    def __init__(self, toks: list[_Tok], lineno: int):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise self.error(f"expected {want!r}, found {t.text or 'end of line'}",
                             t.col)
        return t

    def error(self, message: str, col: Optional[int] = None) -> KBSyntaxError:
        return KBSyntaxError(message, self.lineno,
                             col if col is not None else self.peek().col)


# ---------------------------------------------------------------------------
# Term and atom parsing (shared by KB statements and proof labels)
# ---------------------------------------------------------------------------

def _parse_term(cur: _Cursor, variables: Optional[set[str]]) -> Term:
    """Variables are either pre-declared names or ``?``-marked."""
    if cur.peek().kind == "sym" and cur.peek().text == "?":
        cur.next()
        name = cur.expect("name").text
        return Var(name)
    tok = cur.expect("name")
    if cur.peek().kind == "sym" and cur.peek().text == "(":
        cur.next()
        arg = _parse_term(cur, variables)
        cur.expect("sym", ")")
        return SkolemTerm(tok.text, arg)
    if variables is not None and tok.text in variables:
        return Var(tok.text)
    return Const(tok.text)


def _parse_atom(cur: _Cursor, variables: Optional[set[str]]) -> Atom:
    """An atom ``P(t)``, ``r(s,t)``, ``r-(s,t)`` or equality ``t1 = t2``."""
    start = cur.peek()
    if start.kind == "sym" and start.text == "?":
        lhs = _parse_term(cur, variables)
        cur.expect("sym", "=")
        return EqAtom(lhs, _parse_term(cur, variables))
    name_tok = cur.expect("name")
    inverse = False
    if cur.peek().kind == "inv":
        cur.next()
        inverse = True
    if cur.peek().kind == "sym" and cur.peek().text == "(":
        cur.next()
        args = [_parse_term(cur, variables)]
        while cur.peek().kind == "sym" and cur.peek().text == ",":
            cur.next()
            args.append(_parse_term(cur, variables))
        cur.expect("sym", ")")
        if cur.peek().kind == "sym" and cur.peek().text == "=":
            # the application was a Skolem term on the left of an equality
            if inverse or len(args) != 1:
                raise cur.error("malformed equality left-hand side", start.col)
            cur.next()
            return EqAtom(SkolemTerm(name_tok.text, args[0]),
                          _parse_term(cur, variables))
        if len(args) == 1:
            if inverse:
                raise cur.error("inverse marker on a unary predicate",
                                start.col)
            return ConceptAtom(name_tok.text, args[0])
        if len(args) == 2:
            if inverse:
                args.reverse()
            return RoleAtom(name_tok.text, args[0], args[1])
        raise cur.error("predicates take one or two arguments", start.col)
    # bare name: left-hand side of an equality
    if variables is not None and name_tok.text in variables:
        lhs: Term = Var(name_tok.text)
    else:
        lhs = Const(name_tok.text)
    cur.expect("sym", "=")
    return EqAtom(lhs, _parse_term(cur, variables))


def _parse_atom_list(cur: _Cursor, variables: Optional[set[str]]) -> list[Atom]:
    atoms = [_parse_atom(cur, variables)]
    while cur.peek().kind == "sym" and cur.peek().text == ",":
        cur.next()
        atoms.append(_parse_atom(cur, variables))
    return atoms


def _parse_exists_prefix(cur: _Cursor) -> list[str]:
    """Consume ``exists v1, v2.`` if present; returns declared names."""
    if cur.peek().kind == "name" and cur.peek().text == "exists":
        cur.next()
        names = [cur.expect("name").text]
        while cur.peek().kind == "sym" and cur.peek().text == ",":
            cur.next()
            names.append(cur.expect("name").text)
        cur.expect("sym", ".")
        return names
    return []


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

def _split_rule(cur: _Cursor) -> tuple[tuple[Atom, ...], tuple[Atom, ...],
                                      tuple[Var, ...]]:
    """Body, head and existential variables of a rule statement, with the
    body's identifiers bound as variables; the shape is not checked."""
    # First pass finds the arrow so body identifiers can be bound.
    arrow_at = None
    for idx in range(cur.pos, len(cur.toks)):
        if cur.toks[idx].kind == "arrow":
            arrow_at = idx
            break
    if arrow_at is None:
        raise cur.error("rule is missing '->'")
    body_cur = _Cursor(cur.toks[cur.pos:arrow_at] + [_Tok("end", "", 0)],
                       cur.lineno)
    body_raw = _parse_atom_list(body_cur, variables=None)
    if body_cur.peek().kind != "end":
        raise cur.error("unexpected input before '->'", body_cur.peek().col)
    body_vars = {t.name for a in body_raw for t in atom_terms(a)
                 if isinstance(t, Const)}
    head_cur = _Cursor(cur.toks[arrow_at + 1:], cur.lineno)
    evar_names = _parse_exists_prefix(head_cur)
    dup = set(evar_names) & body_vars
    if dup:
        raise cur.error(f"existential variable shadows a body variable: "
                        f"{sorted(dup)}")
    head_raw = _parse_atom_list(head_cur, variables=body_vars | set(evar_names))
    head_cur.expect("end")

    def bind_term(t: Term) -> Term:
        if isinstance(t, Const) and t.name in body_vars:
            return Var(t.name)
        return t

    return (tuple(map_atom_terms(a, bind_term) for a in body_raw),
            tuple(map_atom_terms(a, bind_term) for a in head_raw),
            tuple(Var(n) for n in evar_names))


def _parse_rule_statement(cur: _Cursor) -> Rule:
    body, head, evars = _split_rule(cur)
    try:
        form, _ = classify_rule(body, head, evars)
    except KBError as exc:
        raise KBSyntaxError(str(exc), cur.lineno, 1) from exc
    return Rule(body, head, evars, form)


def _parse_fact_statement(cur: _Cursor) -> Atom:
    atom = _parse_atom(cur, variables=None)
    cur.expect("end")
    if isinstance(atom, EqAtom):
        raise cur.error("facts cannot be equalities")
    if not all(isinstance(t, Const) for t in atom_terms(atom)):
        raise cur.error("facts must be ground over individual names")
    return atom


def _parse_query_statement(cur: _Cursor) -> BooleanCQ:
    evar_names = _parse_exists_prefix(cur)
    atoms = _parse_atom_list(cur, variables=set(evar_names))
    cur.expect("end")
    if any(isinstance(a, EqAtom) for a in atoms):
        raise cur.error("queries cannot contain equality atoms")
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
        if not raw.split("#", 1)[0].strip():
            continue
        cur = _Cursor(_tokenize(raw, lineno), lineno)
        head = cur.expect("name")
        kind = head.text
        if kind not in ("rule", "fact", "query"):
            raise KBSyntaxError(f"unknown statement kind {kind!r}", lineno,
                                head.col)
        cur.expect("sym", ":")
        if kind == "rule":
            rule = _parse_rule_statement(cur)
            _scan_reserved(rule.body + rule.head, lineno)
            rules.append((lineno, rule))
        elif kind == "fact":
            atom = _parse_fact_statement(cur)
            _scan_reserved([atom], lineno)
            facts.append((lineno, atom))
        else:
            query = _parse_query_statement(cur)
            _scan_reserved(query.atoms, lineno)
            queries.append(query)

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
    cur = _Cursor(_tokenize(text, 0), 0)
    return _parse_query_statement(cur)


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
    cur = _Cursor(_tokenize(text, 0), 0)
    a = _parse_atom(cur, variables=None)
    cur.expect("end")
    return a


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
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        cur = _Cursor(_tokenize(raw, lineno), lineno)
        kind = cur.expect("name").text
        cur.expect("sym", ":")
        if kind == "rule":
            raw_rules.append(_split_rule(cur))
        elif kind in ("fact", "query"):
            other_lines.append(stripped)
        else:
            raise KBSyntaxError(f"unknown statement kind {kind!r}", lineno, 1)
        for tok in cur.toks:
            if tok.kind == "name":
                taken.add(tok.text)
    rules = normalize_rules(raw_rules, taken)
    lines = [format_rule(r) for r in rules] + other_lines
    return "\n".join(lines) + "\n"
