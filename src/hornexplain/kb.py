"""Core vocabulary: terms, atoms, rules, knowledge bases, queries.

Rules are kept in a fixed normal form (seven shapes, roughly: concept
inclusions, conjunctions on the left, qualified existential restrictions on
either side, value restrictions, nominals, and role inclusions).  Inverse
roles are canonicalized away at construction time: an atom ``r-(x, y)`` is
stored as ``r(y, x)``.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union


class KBError(Exception):
    """Malformed knowledge base input."""


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

_INTERN_LOCK = threading.Lock()


class _TableRef(weakref.ref):
    """A table entry: a weak reference that carries its key for the
    table's removal callback, like ``weakref.KeyedRef`` but built without
    running Python code."""

    __slots__ = ("key",)


class _Interned:
    """Immutable value with one live object per value (hash-consing).

    Constructing an instance from arguments equal to those of a live
    instance returns that instance, so equality and hashing are the default
    identity ones.  Arguments are positional, in ``_fields`` order, and are
    strings or interned values themselves, so the table key hashes in
    constant time.  A class may keep more slots, which ``_derive`` fills
    from the arguments once, when the value is built.  Each class keeps a
    weak-valued table: a value nothing else references leaves it.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()    # the constructor's arguments
    _table: weakref.WeakValueDictionary
    _refs: dict  # the table's own dict: key -> weak reference
    _setters: tuple  # the fields' slot setters, in argument order

    def __init_subclass__(cls):
        cls._table = weakref.WeakValueDictionary()
        cls._refs = cls._table.data
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls._fields)

    def __new__(cls, *args):
        refs = cls._refs
        ref = refs.get(args)
        if ref is not None:
            obj = ref()
            if obj is not None:
                return obj
        if len(args) != len(cls._setters):
            raise TypeError(f"{cls.__name__} takes {len(cls._setters)} "
                            f"arguments, got {len(args)}")
        # look up again and insert as one step, or two threads building
        # the same value could each keep an object of their own
        with _INTERN_LOCK:
            ref = refs.get(args)
            obj = ref() if ref is not None else None
            if obj is None:
                obj = object.__new__(cls)
                for setter, value in zip(cls._setters, args):
                    setter(obj, value)
                obj._derive()
                ref = refs[args] = _TableRef(obj, cls._table._remove)
                ref.key = args
        return obj

    def _derive(self) -> None:
        """Fill the slots that are not constructor fields."""

    def _immutable(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        # copying or unpickling constructs, and so interns, again
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Const(_Interned):
    __slots__ = _fields = ("name",)
    name: str
    depth = 0

    def __repr__(self) -> str:
        return self.name


class Var(_Interned):
    __slots__ = _fields = ("name",)
    name: str
    depth = 0

    def __repr__(self) -> str:
        return f"?{self.name}"


class SkolemTerm(_Interned):
    """Application of a unary Skolem function to a term."""

    _fields = ("fn", "arg")
    __slots__ = _fields + ("depth",)
    fn: str
    arg: Term
    depth: int      # the number of Skolem applications down to the base

    def _derive(self) -> None:
        SkolemTerm.depth.__set__(self, self.arg.depth + 1)

    def __repr__(self) -> str:
        return format_term(self)


Term = Union[Const, Var, SkolemTerm]
# a term's depth: 0 for constants and variables
term_depth = attrgetter("depth")


def term_is_ground(t: Term) -> bool:
    while isinstance(t, SkolemTerm):
        t = t.arg
    return isinstance(t, Const)


def subterms(t: Term) -> Iterator[Term]:
    """The term itself plus everything nested below it."""
    while True:
        yield t
        if not isinstance(t, SkolemTerm):
            return
        t = t.arg


def term_key(t: Term):
    """Total order on terms: constants, then Skolem terms, then variables.
    Walked per call: a key kept per term is quadratic in a chain's depth."""
    if isinstance(t, Const):
        return (0, t.name)
    if isinstance(t, Var):
        return (2, t.name)
    if not isinstance(t.arg, SkolemTerm):       # f(x), as most terms are
        return (1, t.fn) + term_key(t.arg)
    key: list = []
    while isinstance(t, SkolemTerm):
        key += (1, t.fn)
        t = t.arg
    return tuple(key) + term_key(t)


def format_term(t: Term, texts: Optional[dict[Term, str]] = None) -> str:
    """The term's label text.  A Skolem term's text is kept in ``texts``,
    and the walk down its chain stops at the first term kept there: a
    caller that passes one dict writes each Skolem application once."""
    if not isinstance(t, SkolemTerm):
        return t.name if isinstance(t, Const) else f"?{t.name}"
    texts = {} if texts is None else texts
    fns, s = [], t
    while s not in texts and isinstance(s, SkolemTerm):
        fns.append(s.fn)
        s = s.arg
    text = texts.get(s) or (s.name if isinstance(s, Const) else f"?{s.name}")
    if fns:
        text = texts[t] = f"{'('.join(fns)}({text}{')' * len(fns)}"
    return text


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

class _Atom(_Interned):
    """An atom carries its order key (:func:`atom_key`), computed once,
    when the atom is interned."""

    __slots__ = ("key",)
    key: tuple

    def _derive(self) -> None:
        _Atom.key.__set__(self, atom_pred(self) + tuple(
            map(term_key, atom_terms(self))))


class ConceptAtom(_Atom):
    __slots__ = _fields = ("concept", "term")
    concept: str
    term: Term


class RoleAtom(_Atom):
    __slots__ = _fields = ("role", "subj", "obj")
    role: str
    subj: Term
    obj: Term


class EqAtom(_Atom):
    __slots__ = _fields = ("lhs", "rhs")
    lhs: Term
    rhs: Term


Atom = Union[ConceptAtom, RoleAtom, EqAtom]
ATOM_TYPES = (ConceptAtom, RoleAtom, EqAtom)    # for isinstance


def atom_terms(a: Atom) -> tuple[Term, ...]:
    if isinstance(a, ConceptAtom):
        return (a.term,)
    if isinstance(a, RoleAtom):
        return (a.subj, a.obj)
    return (a.lhs, a.rhs)


def map_atom_terms(a: Atom, fn: Callable[[Term], Term]) -> Atom:
    """The atom with ``fn`` applied to each top-level term, in argument
    order."""
    if isinstance(a, ConceptAtom):
        return ConceptAtom(a.concept, fn(a.term))
    if isinstance(a, RoleAtom):
        return RoleAtom(a.role, fn(a.subj), fn(a.obj))
    return EqAtom(fn(a.lhs), fn(a.rhs))


def orient_equality(lhs: Term, rhs: Term) -> Optional[tuple[Term, Const]]:
    """The replaced term and the constant replacing it: a complex term gives
    way to a constant, and of two constants the left one is replaced.  None
    when the terms are equal; ValueError when no such orientation exists."""
    if lhs == rhs:
        return None
    if isinstance(rhs, Const) and isinstance(lhs, (Const, SkolemTerm)):
        return lhs, rhs
    if isinstance(lhs, Const) and isinstance(rhs, SkolemTerm):
        return rhs, lhs
    raise ValueError(f"equality with no constant to orient toward: "
                     f"{lhs} = {rhs}")


def atom_vars(a: Atom) -> set[Var]:
    out = set()
    for t in atom_terms(a):
        for s in subterms(t):
            if isinstance(s, Var):
                out.add(s)
    return out


def atom_is_ground(a: Atom) -> bool:
    return all(map(term_is_ground, atom_terms(a)))


def atom_pred(a: Atom) -> tuple:
    """Bucket key: predicate symbol with its kind."""
    if isinstance(a, ConceptAtom):
        return ("C", a.concept)
    if isinstance(a, RoleAtom):
        return ("R", a.role)
    return ("=",)


# the total order on atoms: by predicate, then by term_key argument-wise
atom_key = attrgetter("key")


def format_atom(a: Atom, texts: Optional[dict[Term, str]] = None) -> str:
    """The atom's label text; ``texts`` as for ``format_term``."""
    if isinstance(a, ConceptAtom):
        return f"{a.concept}({format_term(a.term, texts)})"
    if isinstance(a, RoleAtom):
        return (f"{a.role}({format_term(a.subj, texts)},"
                f"{format_term(a.obj, texts)})")
    return f"{format_term(a.lhs, texts)} = {format_term(a.rhs, texts)}"


def rewrite_term(t: Term, mapping: Mapping[Term, Term]) -> Term:
    """The term with its highest subterm that ``mapping`` holds replaced by
    that subterm's image, and the Skolem chain above it rebuilt."""
    fns = []
    while t not in mapping and isinstance(t, SkolemTerm):
        fns.append(t.fn)
        t = t.arg
    t = mapping.get(t, t)
    for fn in reversed(fns):
        t = SkolemTerm(fn, t)
    return t


def substitute_term(t: Term, subst: Mapping[Var, Term]) -> Term:
    if not isinstance(t, SkolemTerm):
        return subst.get(t, t)
    if not isinstance(t.arg, SkolemTerm):       # f(x), as rule heads have
        return SkolemTerm(t.fn, subst.get(t.arg, t.arg))
    return rewrite_term(t, subst)


def substitute_atom(a: Atom, subst: Mapping[Var, Term]) -> Atom:
    return map_atom_terms(a, lambda t: substitute_term(t, subst))


# ---------------------------------------------------------------------------
# Rules and normal forms
# ---------------------------------------------------------------------------

class NormalForm(Enum):
    I = "i"          # A(x) -> B(x)
    II = "ii"        # A(x), B(x) -> C(x)     (body atoms may be role patterns)
    III = "iii"      # R(x,y), A(y) -> B(x)
    IV = "iv"        # A(x) -> exists y. R(x,y), B(y)
    V = "v"          # A(x), R(x,y) -> B(y)
    VI = "vi"        # A(x) -> x = a
    VII = "vii"      # R1(x,y) -> R2(x,y)


class Fragment(Enum):
    DLLiteR = "dl-lite-r"
    EL = "el"
    HornALC = "horn-alc"
    HornALCHOI = "horn-alchoi"


# Reporting preference for the minimal fragment; the first two are
# incomparable, the rest contain everything before them in this list only
# in the ALCHOI case (DL-Lite has inverse roles, Horn-ALC does not).
FRAGMENT_ORDER = (Fragment.DLLiteR, Fragment.EL, Fragment.HornALC,
                  Fragment.HornALCHOI)

ALL_FRAGMENTS = frozenset(FRAGMENT_ORDER)
RESERVED_CONCEPTS = ("top", "bot")


@dataclass(frozen=True)
class Rule:
    """One normalized existential rule."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    existential_vars: tuple[Var, ...]
    normal_form: NormalForm
    # the fragments the rule is expressible in, from the same classification
    # as the normal form
    fragments: frozenset[Fragment] = field(compare=False, repr=False)


def _solo_vars(atoms: Iterable[Atom]) -> set[Var]:
    """Variables occurring exactly once across the given atoms."""
    counts: dict[Var, int] = {}
    for a in atoms:
        for t in atom_terms(a):
            if isinstance(t, Var):
                counts[t] = counts.get(t, 0) + 1
    return {v for v, c in counts.items() if c == 1}


def _role_pattern(atom: RoleAtom, anchor: Var, solo: set[Var]) -> Optional[bool]:
    """Classify a body role atom as an existential pattern on ``anchor``.

    Returns False for a forward pattern (anchor in subject position),
    True for an inverse pattern, or None if the atom is not a pattern on
    the anchor at all.
    """
    if atom.subj == anchor and atom.obj in solo and atom.obj != anchor:
        return False
    if atom.obj == anchor and atom.subj in solo and atom.subj != anchor:
        return True
    return None


def classify_rule(body: tuple[Atom, ...], head: tuple[Atom, ...],
                  evars: tuple[Var, ...]) -> tuple[NormalForm, frozenset[Fragment]]:
    """Match a rule against the seven allowed shapes.

    Returns the normal form together with the set of fragments the rule is
    expressible in.  Raises KBError for anything outside the shapes.
    """
    if not body:
        raise KBError("rule has an empty body")
    if not head:
        raise KBError("rule has an empty head")
    if any(isinstance(a, EqAtom) for a in body):
        raise KBError("equality atoms are not allowed in rule bodies")
    body_vars = set().union(*(atom_vars(a) for a in body))
    for v in evars:
        if v in body_vars:
            raise KBError(f"existential variable ?{v.name} occurs in the body")

    if evars:
        return _classify_existential(body, head, evars)
    if len(head) != 1:
        raise KBError("not in normal form: multi-atom heads need an "
                      "existential variable (shape iv)")
    h = head[0]
    if isinstance(h, EqAtom):
        return _classify_nominal(body, h)
    if isinstance(h, RoleAtom):
        return _classify_role_inclusion(body, h)
    return _classify_concept_head(body, h)


def _classify_existential(body, head, evars):
    if len(evars) != 1:
        raise KBError("not in normal form: at most one existential variable")
    y = evars[0]
    if len(body) != 1 or not isinstance(body[0], ConceptAtom) \
            or not isinstance(body[0].term, Var):
        raise KBError("not in normal form: shape (iv) needs a single "
                      "concept atom body")
    x = body[0].term
    roles = [a for a in head if isinstance(a, RoleAtom)]
    concepts = [a for a in head if isinstance(a, ConceptAtom)]
    if len(roles) != 1 or len(roles) + len(concepts) != len(head):
        raise KBError("not in normal form: shape (iv) head must be one role "
                      "atom plus an optional concept atom")
    role = roles[0]
    inverse = None
    if role.subj == x and role.obj == y:
        inverse = False
    elif role.subj == y and role.obj == x:
        inverse = True
    else:
        raise KBError("not in normal form: shape (iv) role atom must connect "
                      "the body variable with the existential one")
    if len(concepts) > 1:
        raise KBError("not in normal form: shape (iv) allows one head concept")
    if concepts and concepts[0].term != y:
        raise KBError("not in normal form: shape (iv) head concept must hold "
                      "at the existential variable")
    top_filler = not concepts
    if top_filler:
        frags = ALL_FRAGMENTS if not inverse \
            else frozenset({Fragment.DLLiteR, Fragment.HornALCHOI})
    else:
        frags = frozenset({Fragment.EL, Fragment.HornALC, Fragment.HornALCHOI}) \
            if not inverse else frozenset({Fragment.HornALCHOI})
    return NormalForm.IV, frags


def _classify_nominal(body, h: EqAtom):
    if len(body) != 1 or not isinstance(body[0], ConceptAtom) \
            or not isinstance(body[0].term, Var):
        raise KBError("not in normal form: shape (vi) needs a single "
                      "concept atom body")
    x = body[0].term
    if h.lhs != x or not isinstance(h.rhs, Const):
        raise KBError("not in normal form: shape (vi) head must equate the "
                      "body variable with an individual")
    return NormalForm.VI, frozenset({Fragment.HornALCHOI})


def _classify_role_inclusion(body, h: RoleAtom):
    if len(body) != 1 or not isinstance(body[0], RoleAtom):
        raise KBError("not in normal form: a role-atom head needs a single "
                      "role-atom body (shape vii)")
    b = body[0]
    if not (isinstance(b.subj, Var) and isinstance(b.obj, Var) and b.subj != b.obj):
        raise KBError("not in normal form: shape (vii) body must use two "
                      "distinct variables")
    if (h.subj, h.obj) not in ((b.subj, b.obj), (b.obj, b.subj)):
        raise KBError("not in normal form: shape (vii) head must use the "
                      "body variables")
    return NormalForm.VII, frozenset({Fragment.DLLiteR, Fragment.HornALCHOI})


def _classify_concept_head(body, h: ConceptAtom):
    if not isinstance(h.term, Var):
        raise KBError("not in normal form: head concept must hold at a variable")
    v = h.term
    solo = _solo_vars(body)

    if len(body) == 1:
        b = body[0]
        if isinstance(b, ConceptAtom):
            if b.term != v:
                raise KBError("not in normal form: head variable must occur "
                              "in the body")
            return NormalForm.I, ALL_FRAGMENTS
        inv = _role_pattern(b, v, solo)
        if inv is None:
            raise KBError("not in normal form: single role-atom body must be "
                          "an existential pattern on the head variable")
        # unqualified existential on the left; fine for DL-Lite either way
        return NormalForm.III, ALL_FRAGMENTS if not inv \
            else frozenset({Fragment.DLLiteR, Fragment.HornALCHOI})

    if len(body) != 2:
        raise KBError("not in normal form: rule bodies have at most two atoms")

    concepts = [a for a in body if isinstance(a, ConceptAtom)]
    roles = [a for a in body if isinstance(a, RoleAtom)]
    if len(concepts) == 2:
        if not all(c.term == v for c in concepts):
            raise KBError("not in normal form: shape (ii) atoms must share "
                          "the head variable")
        return NormalForm.II, frozenset(
            {Fragment.EL, Fragment.HornALC, Fragment.HornALCHOI})

    if len(concepts) == 1 and len(roles) == 1:
        c, r = concepts[0], roles[0]
        if not isinstance(c.term, Var):
            raise KBError("not in normal form: body concept must hold at a "
                          "variable")
        u = c.term
        if u == r.obj and v == r.subj and r.subj != r.obj:
            # qualified existential on the left
            return NormalForm.III, frozenset(
                {Fragment.EL, Fragment.HornALC, Fragment.HornALCHOI})
        if u == r.subj and v == r.obj and r.subj != r.obj:
            # value restriction on the right
            return NormalForm.V, frozenset(
                {Fragment.HornALC, Fragment.HornALCHOI})
        inv = _role_pattern(r, v, solo)
        if u == v and inv is not None:
            frags = frozenset({Fragment.EL, Fragment.HornALC,
                               Fragment.HornALCHOI}) if not inv \
                else frozenset({Fragment.HornALCHOI})
            return NormalForm.II, frags
        raise KBError("not in normal form: concept/role body does not match "
                      "shapes (ii), (iii) or (v)")

    # two role atoms, both existential patterns on the head variable
    invs = [_role_pattern(r, v, solo) for r in roles]
    if any(i is None for i in invs):
        raise KBError("not in normal form: two-role body must consist of "
                      "existential patterns on the head variable")
    frags = frozenset({Fragment.EL, Fragment.HornALC, Fragment.HornALCHOI}) \
        if not any(invs) else frozenset({Fragment.HornALCHOI})
    return NormalForm.II, frags


def make_rule(body: Iterable[Atom], head: Iterable[Atom],
              evars: Iterable[Var] = ()) -> Rule:
    body_t, head_t, evars_t = tuple(body), tuple(head), tuple(evars)
    form, frags = classify_rule(body_t, head_t, evars_t)
    return Rule(body_t, head_t, evars_t, form, frags)


def detect_fragment(tbox: Iterable[Rule]) -> Fragment:
    """The minimal fragment containing every rule.

    DL-Lite and EL are incomparable; when both fit, DL-Lite is reported.
    """
    common = ALL_FRAGMENTS
    for rule in tbox:
        common &= rule.fragments
    for frag in FRAGMENT_ORDER:
        if frag in common:
            return frag
    raise KBError("rule set fits no supported fragment")  # pragma: no cover


# ---------------------------------------------------------------------------
# Skolemization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkolemRule:
    """A rule with existential variables replaced by Skolem applications."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    normal_form: NormalForm
    index: int
    fn: Optional[str] = None  # Skolem function name, shape (iv) only

    def __repr__(self) -> str:
        return f"SkolemRule#{self.index}"


def skolem_fn_name(rule_index: int) -> str:
    return f"f_{rule_index}"


def skolemize(tbox: Iterable[Rule]) -> tuple[SkolemRule, ...]:
    """One Skolem rule per rule; functions are named by rule position."""
    out = []
    for i, rule in enumerate(tbox):
        if rule.existential_vars:
            fn = skolem_fn_name(i)
            frontier = rule.body[0].term  # shape (iv): single concept atom
            repl = {v: SkolemTerm(fn, frontier) for v in rule.existential_vars}
            head = tuple(substitute_atom(a, repl) for a in rule.head)
            out.append(SkolemRule(rule.body, head, rule.normal_form, i, fn))
        else:
            out.append(SkolemRule(rule.body, rule.head, rule.normal_form, i))
    return tuple(out)


# ---------------------------------------------------------------------------
# Signature, knowledge base, queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    concept_names: frozenset[str]
    role_names: frozenset[str]
    individual_names: frozenset[str]

    def __post_init__(self):
        for reserved in RESERVED_CONCEPTS:
            if reserved in self.concept_names or reserved in self.role_names \
                    or reserved in self.individual_names:
                raise KBError(f"'{reserved}' is reserved and cannot be declared")
        if (self.concept_names & self.role_names
                or self.concept_names & self.individual_names
                or self.role_names & self.individual_names):
            clash = (self.concept_names & self.role_names
                     | self.concept_names & self.individual_names
                     | self.role_names & self.individual_names)
            raise KBError(f"names used in more than one role: {sorted(clash)}")


def signature_of(tbox: Iterable[Rule], abox: Iterable[Atom]) -> Signature:
    concepts, roles, individuals = set(), set(), set()

    def visit_atom(a: Atom):
        if isinstance(a, ConceptAtom):
            concepts.add(a.concept)
        elif isinstance(a, RoleAtom):
            roles.add(a.role)
        for t in atom_terms(a):
            for s in subterms(t):
                if isinstance(s, Const):
                    individuals.add(s.name)

    for rule in tbox:
        for a in rule.body + rule.head:
            visit_atom(a)
    for a in abox:
        visit_atom(a)
    return Signature(frozenset(concepts), frozenset(roles), frozenset(individuals))


@dataclass(frozen=True)
class KnowledgeBase:
    tbox: tuple[Rule, ...]
    abox: tuple[Atom, ...]
    signature: Signature = field(compare=False)
    fragment: Fragment = field(compare=False)

    @cached_property
    def rule_index(self) -> dict[Rule, int]:
        """Each TBox rule's position; a repeated rule's first one."""
        index: dict[Rule, int] = {}
        for i, rule in enumerate(self.tbox):
            index.setdefault(rule, i)
        return index

    @cached_property
    def skolem_rules(self) -> tuple[SkolemRule, ...]:
        """The TBox's Skolem rules (:func:`skolemize`)."""
        return skolemize(self.tbox)

    @cached_property
    def sk_leaf_labels(self) -> frozenset:
        """A ground-atom proof's leaf labels: facts and Skolem rules."""
        return frozenset([*self.abox, *self.skolem_rules])

    @cached_property
    def cq_leaf_labels(self) -> frozenset:
        """A query-level proof's leaf labels: facts as queries, and rules."""
        return frozenset([*(BooleanCQ((a,), ()) for a in self.abox),
                          *self.tbox])


def make_kb(tbox: Iterable[Rule], abox: Iterable[Atom]) -> KnowledgeBase:
    tbox_t, abox_t = tuple(tbox), tuple(abox)
    for a in abox_t:
        if isinstance(a, EqAtom):
            raise KBError("facts cannot be equalities")
        if not all(isinstance(t, Const) for t in atom_terms(a)):
            raise KBError(f"fact {format_atom(a)} must use constants only")
    sig = signature_of(tbox_t, abox_t)
    return KnowledgeBase(tbox_t, abox_t, sig, detect_fragment(tbox_t))


def variables_of(atoms: Iterable[Atom]) -> dict[Var, None]:
    """The atoms' variables, nested ones included, in first-occurrence
    order."""
    used: dict[Var, None] = {}
    for a in atoms:
        for t in atom_terms(a):
            while isinstance(t, SkolemTerm):    # Skolem terms are unary
                t = t.arg
            if isinstance(t, Var):
                used[t] = None
    return used


@dataclass(frozen=True)
class BooleanCQ:
    """Existentially closed conjunction of concept and role atoms."""

    atoms: tuple[Atom, ...]
    existential_vars: tuple[Var, ...]

    def __post_init__(self):
        # equality conjuncts are legal inside derived queries; user-facing
        # query statements reject them at parse time
        used = variables_of(self.atoms)
        undeclared = used.keys() - set(self.existential_vars)
        if undeclared:
            missing = sorted(v.name for v in undeclared)
            raise KBError(f"undeclared query variables: {missing}")
        # the atoms are immutable, so their variables are collected once
        object.__setattr__(self, "_variables", frozenset(used))

    @classmethod
    def closed(cls, atoms: Iterable[Atom],
               variables: Optional[Iterable[Var]] = None) -> BooleanCQ:
        """The conjunction with every variable existentially quantified, in
        first-occurrence order.  A caller that has collected those variables
        may pass them as ``variables``; they must be exactly
        ``variables_of(atoms)``, in its order, and are not checked."""
        atoms = tuple(atoms)
        used = tuple(variables_of(atoms) if variables is None else variables)
        # every variable is declared: __post_init__ would only walk the
        # atoms again
        cq = object.__new__(cls)
        object.__setattr__(cq, "atoms", atoms)
        object.__setattr__(cq, "existential_vars", used)
        object.__setattr__(cq, "_variables", frozenset(used))
        return cq

    def variables(self) -> frozenset[Var]:
        return self._variables

    @cached_property
    def atom_set(self) -> frozenset[Atom]:
        return frozenset(self.atoms)

    @cached_property
    def index(self):
        """The atoms as a :class:`hornexplain.matching.AtomIndex`, built on
        first use; every step that matches into this query reads it."""
        from .matching import AtomIndex
        return AtomIndex(self.atoms)

    def terms(self) -> list[Term]:
        seen, out = set(), []
        for a in self.atoms:
            for t in atom_terms(a):
                if t not in seen:
                    seen.add(t)
                    out.append(t)
        return out


def cq_equivalent(a: BooleanCQ, b: BooleanCQ) -> bool:
    """Same atom multiset and same quantified variables (names included)."""
    return (Counter(a.atoms) == Counter(b.atoms)
            and set(a.existential_vars) == set(b.existential_vars))


def gaifman_graph(q: BooleanCQ) -> dict[Term, set[Term]]:
    """Co-occurrence graph over the terms of the query."""
    adj: dict[Term, set[Term]] = {t: set() for t in q.terms()}
    for a in q.atoms:
        ts = atom_terms(a)
        for s, t in itertools.combinations(set(ts), 2):
            adj[s].add(t)
            adj[t].add(s)
    return adj


def is_tree_shaped(q: BooleanCQ) -> bool:
    """Connected and acyclic Gaifman graph."""
    adj = gaifman_graph(q)
    if not adj:
        return False
    nodes = list(adj)
    seen = {nodes[0]}
    stack = [(nodes[0], None)]
    while stack:
        node, parent = stack.pop()
        for nxt in adj[node]:
            if nxt == parent:
                continue
            if nxt in seen:
                return False  # back edge: cycle
            seen.add(nxt)
            stack.append((nxt, node))
    if len(seen) != len(nodes):
        return False
    return True
