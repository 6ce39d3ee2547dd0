"""Modal formula trees with a canonical form, in negation normal form.

Every formula is built through the smart constructors (`land`, `lor`,
`lnot`, `box`, `dia`, `var`), which flatten nested conjunctions and
disjunctions, drop duplicates, apply the constant rules
(x & true = x, x | false = x, <>false = false, []true = true) and sort
children by printed form (shortest first, then lexicographic).  `lnot`
pushes a negation down to the atoms, so every formula is in negation
normal form: `Not` only ever wraps a `Var`.  Two formulas are
structurally equal iff their canonical printed forms are equal, so
formulas can be used in sets, dicts and sorted containers.

The constructors return shared nodes: building a formula that already
exists returns the node built for it, looked up by its printed form,
`lnot` pushes each negation down once, and `parse` reads each distinct
text once.  `clear_cache()` empties these three tables and every other
one made by `_table`, after which a formula is built or parsed anew;
equality and hashing stay by printed form, so the twins built either
side of a reset are equal, and no code relies on identity.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError

__all__ = [
    "Formula", "Var", "TrueF", "FalseF", "Not", "And", "Or", "Box", "Dia",
    "TRUE", "FALSE",
    "var", "land", "lor", "lnot", "box", "dia",
    "parse", "is_clause", "contradictory",
    "modal_depth", "canonical_key", "sort_formulas",
    "conjuncts", "disjuncts", "MAX_NESTING", "MAX_EXPANSION", "clear_cache",
]


class Formula:
    """Immutable formula node in negation normal form, equal to another
    iff their canonical printed forms are.

    A node is built from its printed form `key`, which the constructor
    that looked it up in the intern table has already made, and its
    name, child or children.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: str):
        self.key = key
        self._hash = hash(key)

    def __str__(self) -> str:
        return self.key

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.key}>"

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Formula)
                                 and self.key == other.key)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Formula") -> bool:
        return canonical_key(self) < canonical_key(other)


class Var(Formula):
    __slots__ = ("name",)

    def __init__(self, key: str, name: str):
        self.name = name
        super().__init__(key)


class TrueF(Formula):
    __slots__ = ()

    def __init__(self):
        super().__init__("true")


class FalseF(Formula):
    __slots__ = ()

    def __init__(self):
        super().__init__("false")


class _Unary(Formula):
    """A node with one child: `Box`, `Dia`, or `Not`, whose child is a
    `Var`."""

    __slots__ = ("child",)

    def __init__(self, key: str, child: Formula):
        self.child = child
        super().__init__(key)


class _Nary(Formula):
    """A node with two or more children: `And` or `Or`."""

    __slots__ = ("children",)

    def __init__(self, key: str, children: tuple):
        self.children = children
        super().__init__(key)


class Not(_Unary):
    __slots__ = ()


class And(_Nary):
    __slots__ = ()


class Or(_Nary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class Dia(_Unary):
    __slots__ = ()


TRUE = TrueF()
FALSE = FalseF()


def canonical_key(f: Formula) -> tuple:
    """Sort key: shortest printed form first, then lexicographic."""
    return (len(f.key), f.key)


def sort_formulas(fs) -> tuple:
    return tuple(sorted(fs, key=canonical_key))


def _ordered(keys) -> list:
    """Printed forms in canonical order, the order `canonical_key` gives
    their formulas, sorted with no Python-level key function."""
    return sorted(sorted(keys), key=len)


# Hash-consing (Filliatre & Conchon, 2006).  `_interned` maps each node's
# printed form, the node's own `key` string, to the one node built for
# it, so a constructor looks a node up by the form it prints before it
# builds it; `_negations` maps each node's printed form to its `lnot`;
# `_parsed` maps each text `parse` has read without error to its result.
# All three, and the tables `semantics` (sat cache, query tests, query
# halves) and `pi` (candidate sets) keep, are made by `_table`, which
# records them in `_TABLES` for `clear_cache`, and go through `_memo`
# and its one limit, `_TABLE_LIMIT`.
_TABLES: list = []
_TABLE_LIMIT = 200_000
_ABSENT = object()


def _table() -> dict:
    """A new memo table, recorded in `_TABLES` so `clear_cache` empties
    it."""
    table = {}
    _TABLES.append(table)
    return table


_interned = _table()
_negations = _table()
_parsed = _table()


def clear_cache():
    """Empty every memo table: the intern table, the negation and parse
    memos, the sat cache, the query tests and halves, and the candidate
    sets."""
    for table in _TABLES:
        table.clear()


def _memo(table, key, make, *args):
    """table[key], or else make(*args), kept in the table; a table that
    holds `_TABLE_LIMIT` entries (read at call time) is emptied whole
    first.  The table is read with get and then set, so a concurrent
    `clear` costs at most a value made twice, never an error; a `make`
    that raises keeps nothing."""
    value = table.get(key, _ABSENT)
    if value is _ABSENT:
        value = make(*args)
        if len(table) >= _TABLE_LIMIT:
            table.clear()
        table[key] = value
    return value


def _shared(cls, key, arg):
    """The node cls(key, arg), printed `key`, built only when no node is
    interned under that printed form; the constructors look `key` up
    first, and call this only when it is missing."""
    return _memo(_interned, key, cls, key, arg)


_NAME = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


def var(name: str) -> Var:
    """The atom `name`, which must spell an atom of the grammar
    (`[a-zA-Z][a-zA-Z0-9_]*`, neither `true` nor `false`), or else
    ValueError: a printed form is a node's identity, so `~p` or `(a & b)`
    named as an atom would be mistaken for the node it spells."""
    f = _interned.get(name)
    if type(f) is Var:
        return f
    if not _NAME.fullmatch(name) or name in ("true", "false"):
        raise ValueError(f"not an atom name: {name!r}")
    return _shared(Var, name, name)


def _flat(items, cls, zero, unit):
    """The children `cls(items)` would have, by printed form: nested `cls`
    nodes flattened, `unit`s dropped and duplicates merged; None when one
    of them is a `zero`.  `zero` and `unit` are the constant classes."""
    seen = {}
    for f in items:
        # concrete node classes have no subclasses
        for c in (f.children if type(f) is cls else (f,)):
            t = type(c)
            if t is zero:
                return None
            if t is not unit:
                seen[c.key] = c
    return seen


def conjuncts(items):
    """The children `land(items)` would have, flattened and deduplicated,
    as a dict from printed form to child; None when one of them is
    false."""
    return _flat(items, And, FalseF, TrueF)


def disjuncts(c: Formula) -> tuple:
    """The disjuncts of c: its children if it is a disjunction, else c."""
    return c.children if isinstance(c, Or) else (c,)


def _join(items, cls, zero, unit, sep):
    """The `cls` node of items (formulas, or one iterable of them): the
    constant `zero` or `unit`, the one child left, or a shared node,
    whose children `sep` joins in its printed form."""
    if len(items) == 1 and not isinstance(items[0], Formula):
        items = items[0]
    seen = _flat(items, cls, type(zero), type(unit))
    if seen is None:
        return zero
    if len(seen) < 2:
        return seen.popitem()[1] if seen else unit
    keys = _ordered(seen)
    key = "(" + sep.join(keys) + ")"
    return (_interned.get(key)
            or _shared(cls, key, tuple(map(seen.__getitem__, keys))))


def land(*items) -> Formula:
    """Conjunction; accepts formulas or a single iterable of formulas."""
    return _join(items, And, FALSE, TRUE, " & ")


def lor(*items) -> Formula:
    """Disjunction; accepts formulas or a single iterable of formulas."""
    return _join(items, Or, TRUE, FALSE, " | ")


def lnot(f: Formula) -> Formula:
    """The negation of f pushed down to the atoms: ~p for an atom p, p
    for ~p, and for anything else its dual, by De Morgan and []~/<>~
    duality; kept in `_negations`."""
    return _memo(_negations, f.key, _negated, f)


def _negated(f: Formula) -> Formula:
    """lnot(f), for an f missing from `_negations`."""
    cls = type(f)  # concrete node classes have no subclasses
    if cls is Var:
        key = "~" + f.key
        return _interned.get(key) or _shared(Not, key, f)
    if cls is Not:
        return f.child
    if cls is And:
        return lor(map(lnot, f.children))
    if cls is Or:
        return land(map(lnot, f.children))
    if cls is Box:
        return dia(lnot(f.child))
    if cls is Dia:
        return box(lnot(f.child))
    return FALSE if cls is TrueF else TRUE


def box(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return TRUE
    key = "[]" + f.key
    return _interned.get(key) or _shared(Box, key, f)


def dia(f: Formula) -> Formula:
    if isinstance(f, FalseF):
        return FALSE
    key = "<>" + f.key
    return _interned.get(key) or _shared(Dia, key, f)


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (ASCII):  atoms [a-zA-Z][a-zA-Z0-9_]*, `~` negation, `&`, `|`,
# `->`, `<->`, `[]`, `<>`, `true`, `false`, parentheses.  Unary binds
# tightest, then `&`, `|`, `->` (right associative), `<->`.  Each `(` and
# each unary operator opens one nesting level; text nested deeper than
# MAX_NESTING levels is rejected, so that neither the parser nor the
# recursive walks over the tree it builds run out of stack.  `a <-> b`
# becomes `(~a | b) & (~b | a)`, which doubles its operands; text whose
# expansions print more than MAX_EXPANSION characters in all is rejected
# too.
# ---------------------------------------------------------------------------

MAX_NESTING = 100
MAX_EXPANSION = 100_000
_UNARY = {"~": lnot, "[]": box, "<>": dia}
_BINARY = (("|", lor), ("&", land))  # loosest first

# One token per match: a token of the grammar in group 1, or else the
# first character that starts none, in group 2.  `\S` rather than `.`, so
# that trailing whitespace is no match at all rather than a bad character.
# Scans stop where trailing whitespace begins: at each position of such a
# run `\s*` would take the rest of it and fail, quadratic in its length.
_TOKEN = re.compile(
    r"\s*(?:(<->|->|\[\]|<>|[()&|~]|" + _NAME.pattern + r")|(\S))")


class _Parser:
    """Recursive descent over the token strings of the text, ending with
    "".  Token positions are worked out only for the error raised."""

    def __init__(self, text, source=None):
        self.text = text
        self.source = source
        self.pos = 0
        self.depth = 0
        self.expanded = 0
        self.end = len(text.rstrip())
        if not self.end:
            raise FormulaSyntaxError("empty input", 1, 1, source)
        found = _TOKEN.findall(text, 0, self.end)
        self.tokens = [tok for tok, _ in found]
        if "" in self.tokens:
            at = self.tokens.index("")
            self.fail(f"unexpected character {found[at][1]!r}", at)
        self.tokens.append("")

    def fail(self, message, at):
        """Raise at the start of token `at` (the end of the text for the
        end marker), with lines counted at newlines."""
        starts = [m.start(m.lastindex)
                  for m in _TOKEN.finditer(self.text, 0, self.end)]
        offset = starts[at] if at < len(starts) else len(self.text)
        line = self.text.count("\n", 0, offset) + 1
        column = offset - self.text.rfind("\n", 0, offset)
        raise FormulaSyntaxError(message, line, column, self.source)

    def nest(self, at):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nested deeper than {MAX_NESTING} levels", at)

    def parse(self) -> Formula:
        f = self.iff()
        if self.tokens[self.pos]:
            self.fail(f"unexpected {self.tokens[self.pos]!r}", self.pos)
        return f

    def iff(self) -> Formula:
        left = self.imp()
        while self.tokens[self.pos] == "<->":
            at = self.pos
            self.pos += 1
            right = self.imp()
            left = land(lor(lnot(left), right), lor(lnot(right), left))
            self.expanded += len(left.key)
            if self.expanded > MAX_EXPANSION:
                self.fail(f"'<->' expands past {MAX_EXPANSION} characters",
                          at)
        return left

    def imp(self) -> Formula:
        parts = [self.chain()]
        while self.tokens[self.pos] == "->":
            self.pos += 1
            parts.append(self.chain())
        f = parts.pop()
        for left in reversed(parts):
            f = lor(lnot(left), f)
        return f

    def chain(self, level=0) -> Formula:
        """A disjunction (level 0) of conjunctions (level 1) of unary
        operands."""
        op, join = _BINARY[level]
        parts = [self.unary() if level else self.chain(1)]
        while self.tokens[self.pos] == op:
            self.pos += 1
            parts.append(self.unary() if level else self.chain(1))
        return join(parts) if len(parts) > 1 else parts[0]

    def unary(self) -> Formula:
        op = _UNARY.get(self.tokens[self.pos])
        if op is None:
            return self.atom()
        self.nest(self.pos)
        self.pos += 1
        f = op(self.unary())
        self.depth -= 1
        return f

    def atom(self) -> Formula:
        at = self.pos
        tok = self.tokens[at]
        self.pos += 1
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if tok.isidentifier():
            return var(tok)
        if tok == "(":
            self.nest(at)
            f = self.iff()
            if self.tokens[self.pos] != ")":
                self.fail("expected ')'", self.pos)
            self.pos += 1
            self.depth -= 1
            return f
        self.fail(f"unexpected {tok!r}" if tok else "unexpected end of input",
                  at)


def parse(text: str, source=None) -> Formula:
    """Parse formula text into a canonical Formula.

    `->` and `<->` are expanded away at parse time, and each `~` is
    pushed down to the atoms; the tree only ever contains the primitive
    connectives, in negation normal form.  A text parsed before returns
    the node kept for it in `_parsed`; a text that fails is never kept,
    so it fails again on every call, with that call's `source`.
    """
    return _memo(_parsed, text, _read, text, source)


def _read(text: str, source) -> Formula:
    return _Parser(text, source).parse()


# ---------------------------------------------------------------------------
# The literal and clause tests, measures
# ---------------------------------------------------------------------------

def is_literal(f: Formula) -> bool:
    return isinstance(f, (Var, Not, Box, Dia))


def is_clause(f: Formula) -> bool:
    """Whether f is a clause: true, false, or a disjunction of literals
    (a single literal included)."""
    return (isinstance(f, (TrueF, FalseF))
            or all(map(is_literal, disjuncts(f))))


def contradictory(literals) -> bool:
    """Whether the literals include false or a complementary pair of
    propositional literals, read off their printed forms: p and ~p are
    the only keys that differ by one leading `~`."""
    keys = {l.key for l in literals}
    return FALSE.key in keys or any("~" + k in keys for k in keys)


def modal_depth(f: Formula) -> int:
    """Maximum nesting of [] and <>."""
    if isinstance(f, (Var, Not, TrueF, FalseF)):
        return 0
    if isinstance(f, (And, Or)):
        return max(modal_depth(c) for c in f.children)
    return 1 + modal_depth(f.child)
