"""Modal formula trees with a canonical form.

Every formula is built through the smart constructors (`land`, `lor`,
`lnot`, `box`, `dia`, `var`), which flatten nested conjunctions and
disjunctions, drop duplicates, apply the constant rules
(x & true = x, x | false = x, <>false = false, []true = true) and sort
children by printed form (shortest first, then lexicographic).  Two
formulas are structurally equal iff their canonical printed forms are
equal, so formulas can be used in sets, dicts and sorted containers.

The constructors return shared nodes: building a formula that already
exists returns the node built for it, and `nnf` pushes each negation
down once.  `semantics.clear_cache()` empties both tables, after which
a formula is built anew; equality and hashing stay by printed form, so
the twins built either side of a reset are equal, and no code relies on
identity.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError, NotAClauseError, NotATermError

__all__ = [
    "Formula", "Var", "TrueF", "FalseF", "Not", "And", "Or", "Box", "Dia",
    "TRUE", "FALSE",
    "var", "land", "lor", "lnot", "box", "dia",
    "parse", "nnf", "classify", "contradictory",
    "Parts", "decompose_clause", "decompose_term",
    "variables", "modal_depth", "canonical_key", "sort_formulas",
    "conjuncts", "disjuncts", "MAX_NESTING", "MAX_EXPANSION",
]


class Formula:
    """Immutable formula node, equal to another iff their canonical
    printed forms are.

    `in_nnf` tells whether the node is in negation normal form (negation
    only on variables).  Variables and constants are; every other node
    sets it from its children when it is built, so `nnf` returns a node
    already in that form itself, in O(1).
    """

    __slots__ = ("key", "_hash")
    in_nnf = True

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

    def __init__(self, name: str):
        self.name = name
        super().__init__(name)


class TrueF(Formula):
    __slots__ = ()

    def __init__(self):
        super().__init__("true")


class FalseF(Formula):
    __slots__ = ()

    def __init__(self):
        super().__init__("false")


class Not(Formula):
    __slots__ = ("child", "in_nnf")

    def __init__(self, child: Formula):
        self.child = child
        self.in_nnf = isinstance(child, Var)
        super().__init__("~" + child.key)


class And(Formula):
    __slots__ = ("children", "in_nnf")

    def __init__(self, children: tuple):
        self.children = children
        self.in_nnf = all([c.in_nnf for c in children])
        super().__init__("(" + " & ".join([c.key for c in children]) + ")")


class Or(Formula):
    __slots__ = ("children", "in_nnf")

    def __init__(self, children: tuple):
        self.children = children
        self.in_nnf = all([c.in_nnf for c in children])
        super().__init__("(" + " | ".join([c.key for c in children]) + ")")


class Box(Formula):
    __slots__ = ("child", "in_nnf")

    def __init__(self, child: Formula):
        self.child = child
        self.in_nnf = child.in_nnf
        super().__init__("[]" + child.key)


class Dia(Formula):
    __slots__ = ("child", "in_nnf")

    def __init__(self, child: Formula):
        self.child = child
        self.in_nnf = child.in_nnf
        super().__init__("<>" + child.key)


TRUE = TrueF()
FALSE = FalseF()


def canonical_key(f: Formula) -> tuple:
    """Sort key: shortest printed form first, then lexicographic."""
    return (len(f.key), f.key)


def sort_formulas(fs) -> tuple:
    return tuple(sorted(fs, key=canonical_key))


# Hash-consing (Filliatre & Conchon, 2006).  `_interned` maps (node
# class, name or child or children tuple) to the one node built for it;
# `_nnf_of` maps each node not in negation normal form to its `nnf`.
# Both are read with get and then set, so a concurrent `clear_tables`
# costs at most a duplicate node, equal by key to the first, never an
# error.  Each is emptied whole when it reaches _TABLE_LIMIT entries.
_interned: dict = {}
_nnf_of: dict = {}
_TABLE_LIMIT = 200_000


def clear_tables():
    """Empty the intern table and the NNF memo."""
    _interned.clear()
    _nnf_of.clear()


def _shared(cls, arg):
    """The node cls(arg), built only when no such node is interned."""
    k = (cls, arg)
    f = _interned.get(k)
    if f is None:
        if len(_interned) >= _TABLE_LIMIT:
            _interned.clear()
        f = _interned[k] = cls(arg)
    return f


def var(name: str) -> Var:
    return _shared(Var, name)


def conjuncts(items):
    """The children `land(items)` would have: flattened, deduplicated and
    in canonical order; None when one of them is false."""
    seen = {}
    for f in items:
        for c in (f.children if isinstance(f, And) else (f,)):
            if isinstance(c, FalseF):
                return None
            if not isinstance(c, TrueF):
                seen[c.key] = c
    return sort_formulas(seen.values())


def disjuncts(c: Formula) -> tuple:
    """The disjuncts of c: its children if it is a disjunction, else c."""
    return c.children if isinstance(c, Or) else (c,)


def land(*items) -> Formula:
    """Conjunction; accepts formulas or a single iterable of formulas."""
    if len(items) == 1 and not isinstance(items[0], Formula):
        items = items[0]
    children = conjuncts(items)
    if children is None:
        return FALSE
    if not children:
        return TRUE
    if len(children) == 1:
        return children[0]
    return _shared(And, children)


def lor(*items) -> Formula:
    """Disjunction; accepts formulas or a single iterable of formulas."""
    if len(items) == 1 and not isinstance(items[0], Formula):
        items = tuple(items[0])
    seen = {}
    for f in items:
        for c in (f.children if isinstance(f, Or) else (f,)):
            if isinstance(c, TrueF):
                return TRUE
            if not isinstance(c, FalseF):
                seen[c.key] = c
    children = sort_formulas(seen.values())
    if not children:
        return FALSE
    if len(children) == 1:
        return children[0]
    return _shared(Or, children)


def lnot(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, Not):
        return f.child
    return _shared(Not, f)


def box(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return TRUE
    return _shared(Box, f)


def dia(f: Formula) -> Formula:
    if isinstance(f, FalseF):
        return FALSE
    return _shared(Dia, f)


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

# One token per match: a token of the grammar in group 1, or else the
# first character that starts none, in group 2.  `\S` rather than `.`, so
# that trailing whitespace is no match at all rather than a bad character.
# Scans stop where trailing whitespace begins: at each position of such a
# run `\s*` would take the rest of it and fail, quadratic in its length.
_TOKEN = re.compile(
    r"\s*(?:(<->|->|\[\]|<>|[()&|~]|[a-zA-Z][a-zA-Z0-9_]*)|(\S))")


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
        parts = [self.disj()]
        while self.tokens[self.pos] == "->":
            self.pos += 1
            parts.append(self.disj())
        f = parts.pop()
        for left in reversed(parts):
            f = lor(lnot(left), f)
        return f

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.tokens[self.pos] == "|":
            self.pos += 1
            parts.append(self.conj())
        return lor(parts) if len(parts) > 1 else parts[0]

    def conj(self) -> Formula:
        parts = [self.unary()]
        while self.tokens[self.pos] == "&":
            self.pos += 1
            parts.append(self.unary())
        return land(parts) if len(parts) > 1 else parts[0]

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

    `->` and `<->` are expanded away at parse time; the tree only ever
    contains the primitive connectives.
    """
    if not text.strip():
        raise FormulaSyntaxError("empty input", 1, 1, source)
    return _Parser(text, source).parse()


# ---------------------------------------------------------------------------
# Negation normal form and the literal/clause/term grammar
# ---------------------------------------------------------------------------

def nnf(f: Formula) -> Formula:
    """Push negations down to variables using De Morgan and []~/<>~ duality.

    A formula already in negation normal form is returned itself; the
    result for any other is kept in `_nnf_of`.
    """
    if f.in_nnf:
        return f
    g = _nnf_of.get(f)
    if g is None:
        if isinstance(f, And):
            g = land(nnf(c) for c in f.children)
        elif isinstance(f, Or):
            g = lor(nnf(c) for c in f.children)
        elif isinstance(f, Box):
            g = box(nnf(f.child))
        elif isinstance(f, Dia):
            g = dia(nnf(f.child))
        else:  # Not of anything but a variable
            g = _negated(f.child)
        if len(_nnf_of) >= _TABLE_LIMIT:
            _nnf_of.clear()
        _nnf_of[f] = g
    return g


def _negated(g: Formula) -> Formula:
    """nnf(~g), pushed down without building the negated nodes."""
    if isinstance(g, Var):
        return _shared(Not, g)
    if isinstance(g, TrueF):
        return FALSE
    if isinstance(g, FalseF):
        return TRUE
    if isinstance(g, Not):
        return nnf(g.child)
    if isinstance(g, And):
        return lor(_negated(c) for c in g.children)
    if isinstance(g, Or):
        return land(_negated(c) for c in g.children)
    if isinstance(g, Box):
        return dia(_negated(g.child))
    if isinstance(g, Dia):
        return box(_negated(g.child))
    raise TypeError(f"unknown node {g!r}")


def is_literal(f: Formula) -> bool:
    if isinstance(f, Var):
        return True
    if isinstance(f, Not):
        return isinstance(f.child, Var)
    if isinstance(f, (Box, Dia)):
        return f.child.in_nnf
    return False


def classify(f: Formula) -> str:
    """Most specific of literal / clause / term / general.

    Expects input in negation normal form; anything with a negated
    non-variable is reported as general.
    """
    if is_literal(f):
        return "literal"
    if isinstance(f, Or) and all(is_literal(c) for c in f.children):
        return "clause"
    if isinstance(f, And) and all(is_literal(c) for c in f.children):
        return "term"
    return "general"


def contradictory(literals) -> bool:
    """Whether the literals include false or a complementary pair of
    propositional literals."""
    pos = {l.name for l in literals if isinstance(l, Var)}
    neg = {l.child.name for l in literals if isinstance(l, Not)}
    return bool(pos & neg) or FALSE in literals


class Parts:
    """A clause (`join` is `lor`) or a term (`join` is `land`) split into
    propositional literals, <>-bodies and []-bodies."""

    __slots__ = ("join", "prop", "dia", "box")

    def __init__(self, join, prop, dia_bodies, box_bodies):
        self.join = join
        self.prop = frozenset(prop)
        self.dia = sort_formulas(dia_bodies)
        self.box = sort_formulas(box_bodies)

    def formula(self) -> Formula:
        return self.join(list(self.prop) + [dia(b) for b in self.dia]
                         + [box(b) for b in self.box])


def _split(literals):
    prop, dias, boxes = [], [], []
    for lit in literals:
        if isinstance(lit, Dia):
            dias.append(lit.child)
        elif isinstance(lit, Box):
            boxes.append(lit.child)
        else:
            prop.append(lit)
    return prop, dias, boxes


def decompose_clause(c: Formula) -> Parts:
    kind = classify(c)
    if kind not in ("literal", "clause"):
        raise NotAClauseError(f"not a clause: {c}")
    return Parts(lor, *_split(disjuncts(c)))


def decompose_term(t: Formula) -> Parts:
    kind = classify(t)
    if kind not in ("literal", "term"):
        raise NotATermError(f"not a term: {t}")
    literals = t.children if isinstance(t, And) else (t,)
    return Parts(land, *_split(literals))


def variables(f: Formula) -> frozenset:
    """All variable names occurring in the formula."""
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, (And, Or)):
        out = set()
        for c in f.children:
            out |= variables(c)
        return frozenset(out)
    return variables(f.child)


def modal_depth(f: Formula) -> int:
    """Maximum nesting of [] and <>."""
    if isinstance(f, (Var, TrueF, FalseF)):
        return 0
    if isinstance(f, (And, Or)):
        return max(modal_depth(c) for c in f.children)
    if isinstance(f, Not):
        return modal_depth(f.child)
    return 1 + modal_depth(f.child)
