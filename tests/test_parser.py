"""The string-token parser against a frozen copy of the token-object
tokenizer and cursor descent it replaced: on generated lines both give the
same result, or the same exception with the same message, line and
column, but for the differences ``_assert_same`` allows.  The regex scanner
in front of the grammar against the grammar: the same value, or None."""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from hornexplain.kb import (Atom, BooleanCQ, ConceptAtom, Const, EqAtom,
                            KBError, RoleAtom, Rule, SkolemTerm, Term, Var,
                            atom_terms, classify_rule, make_kb,
                            map_atom_terms)
from hornexplain.parser import (Document, KBSyntaxError, _check_name_spaces,
                                _scan_reserved, format_rule, normalize_rules)
from hornexplain import parser
from hornexplain.proofs import proof_from_json

_GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# Reference: the tokenizer and descent as they were, unchanged
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
        form, frags = classify_rule(body, head, evars)
    except KBError as exc:
        raise KBSyntaxError(str(exc), cur.lineno, 1) from exc
    return Rule(body, head, evars, form, frags)


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


def parse_query_text(text: str) -> BooleanCQ:
    """A single query in the statement syntax, without the 'query:' marker."""
    cur = _Cursor(_tokenize(text, 0), 0)
    return _parse_query_statement(cur)


# ---------------------------------------------------------------------------
# Proof-label parsing (explicit ?var markers, nested Skolem terms)
# ---------------------------------------------------------------------------

def parse_atom_text(text: str) -> Atom:
    cur = _Cursor(_tokenize(text, 0), 0)
    a = _parse_atom(cur, variables=None)
    cur.expect("end")
    return a


def normalize_document_text(text: str) -> str:
    """Split each rule as the parser does, normalize the rules, and re-emit
    the document.  With the one fix made since: a fact or query line is
    read as ``parse_document`` reads it, and no line may use a reserved
    name, where the frozen copy emitted what it did not read."""
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
            _scan_reserved(raw_rules[-1][0] + raw_rules[-1][1], lineno)
        elif kind == "fact":
            _scan_reserved([_parse_fact_statement(cur)], lineno)
            other_lines.append(stripped)
        elif kind == "query":
            _scan_reserved(_parse_query_statement(cur).atoms, lineno)
            other_lines.append(stripped)
        else:
            raise KBSyntaxError(f"unknown statement kind {kind!r}", lineno, 1)
        for tok in cur.toks:
            if tok.kind == "name":
                taken.add(tok.text)
    rules = normalize_rules(raw_rules, taken)
    lines = [format_rule(r) for r in rules] + other_lines
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generated lines
# ---------------------------------------------------------------------------

_NAMES = ["a", "b", "x", "y", "A", "B", "r", "s", "f_0", "exists", "rule",
          "fact", "query", "bot", "top", "_u", "é", "aé", "x²", "a٣",
          "²", "Ⅻ", "٣", "1", "2a"]
_SYMS = ["(", ")", ",", ".", "=", "?", ":", "->", "-", ">", "#", "# c",
         "!", "→"]
_SEPS = ["", " ", " ", " ", " ", "  ", "\t", "\x1c", "\xa0"]

# well-formed statements (and the three the token-object descent crashed
# on), to be edited into near misses
_TEMPLATES = [
    "rule: A(x) -> B(x)",
    "rule: A(x), r(x,y) -> B(y)",
    "rule: A(x) -> exists y. r(x,y), B(y)",
    "rule: A(x) -> exists y, z. r(x,y), s(y,z)",
    "rule: r-(x,y) -> s(x,y)",
    "rule: A(x) -> x = a",
    "rule: A(x), B(x), r(x,y), A(y) -> B(x)",
    "fact: A(a)",
    "fact: r(a,b)",
    "fact: r-(a,b)   # comment",
    "query: exists x, y. r(x,y), A(x)",
    "query: A(a)",
    "query: r(f_0(a),b)",
    "fact: a = b",
    "fact: A(?x)",
    "query: a = b",
]


def _words(line: str) -> list[str]:
    return parser._TOKEN.findall(line)


@st.composite
def _edited(draw):
    toks = _words(draw(st.sampled_from(_TEMPLATES)))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(toks)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        new = draw(st.sampled_from(_NAMES + _SYMS))
        if op == "insert" or pos == len(toks):
            toks.insert(pos, new)
        elif op == "delete":
            del toks[pos]
        else:
            toks[pos] = new
    return toks


_SOUP = st.builds(lambda head, rest: [head] + rest,
                  st.sampled_from(["rule:", "fact:", "query:", ""]),
                  st.lists(st.sampled_from(_NAMES + _SYMS), max_size=12))


@st.composite
def _lines(draw):
    toks = draw(st.one_of(_SOUP, _edited(), _edited(), _edited(),
                          st.sampled_from(_TEMPLATES).map(_words)))
    return "".join(draw(st.sampled_from(_SEPS)) + t for t in toks)


def _outcome(fn, text):
    try:
        return ("ok", fn(text))
    except KBSyntaxError as exc:
        return ("syntax", exc.args[0], exc.line, exc.col)
    except Exception as exc:        # any other failure must match too
        return ("raised", type(exc), str(exc))


# the token-object descent read past its end token after these checks
_READ_PAST_END = ("facts cannot be equalities",
                  "facts must be ground over individual names",
                  "queries cannot contain equality atoms")


_FROZEN_EXISTS_PREFIX = _parse_exists_prefix


def _exists_as_predicate(cur: _Cursor) -> list[str]:
    """The frozen prefix reader with the one fix made since: ``exists``
    followed by ``(`` opens an atom, not the quantifier."""
    if cur.peek().text == "exists" and cur.toks[cur.pos + 1].text == "(":
        return []
    return _FROZEN_EXISTS_PREFIX(cur)


def _with_exists_predicate(reference):
    def run(text):
        global _parse_exists_prefix
        _parse_exists_prefix = _exists_as_predicate
        try:
            return reference(text)
        finally:
            _parse_exists_prefix = _FROZEN_EXISTS_PREFIX
    return run


def _assert_same(fn, reference, text):
    got, want = _outcome(fn, text), _outcome(reference, text)
    if want[0] == "syntax" and want[1].endswith("expected 'name', found ("):
        # the reference read ``exists(`` after a rule's arrow or a query's
        # marker as the quantifier; it is a predicate now
        want = _outcome(_with_exists_predicate(reference), text)
    if want[0] == "raised" and want[1] is IndexError:
        assert got[0] == "syntax" and got[1].endswith(_READ_PAST_END), got
    elif want[0] == "ok" and isinstance(want[1], (ConceptAtom, RoleAtom,
                                                  EqAtom)):
        assert got[0] == "ok" and got[1] is want[1], (got, want)
    else:
        assert got == want


_SETTINGS = settings(max_examples=400, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(st.lists(_lines(), min_size=1, max_size=4),
       st.sampled_from(["\n", "\r\n"]))
@example(["rule: A(x -> B(x)", "rule: -> B(x)"], "\n")
@example(["rule: A(x), -> B(x)", "fact: A(a # c"], "\n")
@example(["rule: A(x) -> exists x. B(x)", "rule: A(x)"], "\n")
def test_documents_read_as_before(lines, newline):
    text = newline.join(lines)
    _assert_same(parser.parse_document, parse_document, text)
    _assert_same(parser.normalize_document_text, normalize_document_text,
                 text)


@_SETTINGS
@given(_lines())
def test_atoms_and_queries_read_as_before(line):
    body = line.split(":", 1)[1] if ":" in line else line
    for text in (line, body):
        _assert_same(parser.parse_atom_text, parse_atom_text, text)
        _assert_same(parser.parse_query_text, parse_query_text, text)


@pytest.mark.parametrize("text", [
    "fact: a = b", "fact: A(?x)", "query: exists x. a = x",
])
def test_statements_the_old_descent_crashed_on_are_syntax_errors(text):
    with pytest.raises(KBSyntaxError) as err:
        parser.parse_document(text)
    assert err.value.line == 1 and err.value.col == 7 + text.startswith("q")


@pytest.mark.parametrize("text, error", [
    ("fact: A(a)\nfact: A(top)", (2, "'top' is reserved")),
    ("rule: top(x,y) -> B(x)", (1, "'top' is reserved")),
    ("query: A(f(top))", (1, "'top' is reserved")),
    ("rule: A(x) -> bot(x)", (1, "'bot' cannot occur")),
    ("fact: A(a)\nquery: A(bot(a))", (2, "'bot' cannot occur")),
    ("query: exists top. A(top)", None),
])
def test_reserved_names_are_refused_where_they_name_something(text, error):
    """A predicate, an individual or a Skolem function may not be 'top' or
    'bot'; a variable may."""
    try:
        parser.parse_document(text)
    except KBSyntaxError as exc:
        assert (exc.line, exc.args[0].split(": ", 1)[1][:len(error[1])]) \
            == error
    else:
        assert error is None


@pytest.mark.parametrize("char", ["²", "Ⅻ", "٣", "1"])
def test_a_name_starts_with_a_letter(char):
    assert parser.parse_atom_text(f"A(a{char})") == ConceptAtom(
        "A", Const(f"a{char}"))
    with pytest.raises(KBSyntaxError) as err:
        parser.parse_atom_text(f"A({char}a)")
    assert (err.value.col, err.value.args[0].endswith(repr(char))) \
        == (3, True)


# ---------------------------------------------------------------------------
# The proof reader reads label atoms with the one grammar
# ---------------------------------------------------------------------------

def _read_label_atoms(texts):
    """The atoms ``proof_from_json`` reads from a document with one atom
    vertex per text."""
    doc = {"schema_version": 1, "edges": [],
           "vertices": [{"id": i, "kind": "atom", "atom": text}
                        for i, text in enumerate(texts)]}
    proof, _ = proof_from_json(json.dumps(doc))
    return [proof.vertices[i] for i in range(len(texts))]


@_SETTINGS
@given(st.lists(_lines(), min_size=1, max_size=6))
def test_the_proof_reader_reads_atoms_as_parse_atom_text(lines):
    """The same interned atom, however the texts repeat in a document, or
    the parser's error under the vertex's and the atom's names."""
    texts = [t for line in lines for t in (line, line.split(":", 1)[-1])]
    read = []
    for text in texts:
        try:
            read.append((text, parser.parse_atom_text(text)))
        except KBSyntaxError as exc:
            with pytest.raises(KBError) as err:
                _read_label_atoms([text])
            assert str(err.value) == f"vertex 0: atom {text!r}: {exc}"
    atoms = _read_label_atoms([text for text, _ in read])
    assert all(a is want for a, (_, want) in zip(atoms, read)), read


def test_the_proof_reader_reads_every_golden_atom_as_parse_atom_text():
    read = 0
    for path in sorted(_GOLDEN.glob("*.json")):
        text = path.read_text()
        proof, goal = proof_from_json(text)
        for v in json.loads(text)["vertices"]:
            label = proof.vertices[v["id"]]
            if "atom" in v:
                texts, atoms = [v["atom"]], [label]
            elif "atoms" in v:
                texts = v["atoms"]
                atoms = list(label if isinstance(label, tuple)
                             else label.atoms)
            else:
                texts = v["body"] + v["head"]
                atoms = list(label.body + label.head)
            assert len(atoms) == len(texts), (path.name, v["id"])
            for t, a in zip(texts, atoms):
                assert a is parser.parse_atom_text(t), (path.name, t)
            read += len(atoms)
    assert read > 100


# ---------------------------------------------------------------------------
# The scanner in front of the grammar reads what the grammar reads, or
# nothing
# ---------------------------------------------------------------------------

_SCAN_NAMES = ["a", "b", "x", "y", "A", "B", "r", "f_0", "_u", "exists",
               "rule", "fact", "query", "top", "bot"]
# terms and atoms outside the scanner's statements, most of them malformed
_ODD_TERMS = ["f(a)", "f(g(?x))", "?x", "f(a))", "f((a)", "é", "aé", "x²",
              "1a", " a", "a b"]
_ODD_ATOMS = ["A(f(a)))", "A( a)", "A (a)", "r(a, b)", "r-(a,b)", "a = b",
              "f(a) = b", "A(a) # c", "exists (a)", "A(a))", "A()"]

# the normal forms, so that many drawn rules are accepted
_RULE_SHAPES = ["rule: {P}({x}) -> {Q}({x})",
                "rule: {P}({x}), {Q}({x}) -> {P}({x})",
                "rule: {p}({x},{y}), {P}({y}) -> {Q}({x})",
                "rule: {P}({x}) -> exists {y}. {p}({x},{y}), {Q}({y})",
                "rule: {P}({x}), {p}({x},{y}) -> {Q}({y})",
                "rule: {p}({x},{y}) -> {q}({x},{y})",
                "rule: {p}({x},{y}) -> {q}({y},{x})"]


@st.composite
def _statement_lines(draw, odd):
    """A statement in the serializer's spacing over the scanner's names
    or, with ``odd``, with odd terms, atoms and line ends mixed in."""
    terms = _SCAN_NAMES + _ODD_TERMS * odd

    def atoms(most=3):
        out = []
        for _ in range(draw(st.integers(1, most))):
            if odd and draw(st.integers(0, 3)) == 0:
                out.append(draw(st.sampled_from(_ODD_ATOMS)))
                continue
            args = draw(st.lists(st.sampled_from(terms), min_size=1,
                                 max_size=2))
            out.append(f"{draw(st.sampled_from(_SCAN_NAMES))}"
                       f"({','.join(args)})")
        return draw(st.sampled_from([", ", ","])).join(out)

    def exists():
        names = draw(st.lists(st.sampled_from(_SCAN_NAMES), max_size=2))
        return f"exists {', '.join(names)}. " if names else ""

    kind = draw(st.sampled_from(["shape", "rule", "fact", "query"]))
    if kind == "shape":
        line = draw(st.sampled_from(_RULE_SHAPES)).format(
            **{k: draw(st.sampled_from(_SCAN_NAMES)) for k in "PQpqxy"})
    elif kind == "rule":
        line = f"rule: {atoms()} -> {exists()}{atoms()}"
    elif kind == "fact":
        line = f"fact: {atoms(3 if odd else 1)}"
    else:
        line = f"query: {exists()}{atoms()}"
    return line + (draw(st.sampled_from(["", " ", "  # c"])) if odd else "")


_LABEL_TERMS = st.recursive(
    st.sampled_from(_SCAN_NAMES + ["?x", "?top", "?exists"]),
    lambda inner: st.builds("{}({})".format,
                            st.sampled_from(["f_0", "g", "exists", "top"]),
                            inner),
    max_leaves=4)


@st.composite
def _label_atoms(draw, odd):
    """A label atom as ``format_atom`` writes it or, with ``odd``, with
    odd terms and atoms mixed in."""
    terms = st.one_of(_LABEL_TERMS, st.sampled_from(_ODD_TERMS)) if odd \
        else _LABEL_TERMS
    if odd and draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(_ODD_ATOMS))
    args = draw(st.lists(terms, min_size=1, max_size=2))
    return f"{draw(st.sampled_from(_SCAN_NAMES))}({','.join(args)})"


def _grammar(read, text):
    """What the grammar alone reads from ``text``, or KBError."""
    try:
        return read(text)
    except KBError:
        return KBError


@_SETTINGS
@given(st.one_of(_lines(), _statement_lines(True), _statement_lines(False),
                 _label_atoms(True), _label_atoms(False)))
@example("query: exists(a)")
@example("rule: A(x) -> exists(x)")
@example("rule: A(x) -> exists x. B(x)")
@example("A(f(a)))")
def test_the_scanner_reads_what_the_grammar_reads_or_nothing(line):
    """Whenever the grammar raises, the scanner returns None."""
    body = line.split(":", 1)[1].lstrip() if ":" in line else line
    for text in (line, body):
        scanned = parser._scan_statement(text)
        want = _grammar(lambda t: parser._parse_statement(t, 1), text)
        assert scanned is None or (want is not KBError
                                   and scanned == want), (scanned, want)
        scanned = parser._scan_atom(text)
        want = _grammar(parser._parse_label_atom, text)
        assert scanned is None or scanned is want, (scanned, want)


@_SETTINGS
@given(_statement_lines(False), _label_atoms(False))
def test_the_scanner_reads_every_canonical_text_the_grammar_accepts(line,
                                                                    label):
    want = _grammar(lambda t: parser._parse_statement(t, 1), line)
    if want is not KBError:
        assert parser._scan_statement(line) == want
    assert parser._scan_atom(label) is parser._parse_label_atom(label)


def test_a_predicate_named_exists_reads_back():
    """``exists(`` after a rule's arrow or a query's marker opens an atom,
    so the serializer's lines for such a KB read back."""
    text = "rule: A(x) -> exists(x)\nfact: A(a)\nquery: exists(a)\n"
    doc = parser.parse_document(text)
    assert parser.serialize_document(doc.kb, doc.queries) == text
    assert parser._parse_statement("query: exists(a)", 1)[1].atoms == (
        ConceptAtom("exists", Const("a")),)
    assert parser._parse_statement("rule: A(x) -> exists(x)", 1)[1].head \
        == (ConceptAtom("exists", Var("x")),)
