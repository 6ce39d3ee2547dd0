"""Modal formula trees with a canonical form.

Every formula is built through the smart constructors (`land`, `lor`,
`lnot`, `box`, `dia`, `var`), which flatten nested conjunctions and
disjunctions, drop duplicates, apply the constant rules
(x & true = x, x | false = x, <>false = false, []true = true) and sort
children by printed form (shortest first, then lexicographic).  Two
formulas are structurally equal iff their canonical printed forms are
equal, so formulas can be used in sets, dicts and sorted containers.
"""

from __future__ import annotations

import string

from .errors import FormulaSyntaxError, NotAClauseError, NotATermError

__all__ = [
    "Formula", "Var", "TrueF", "FalseF", "Not", "And", "Or", "Box", "Dia",
    "TRUE", "FALSE",
    "var", "land", "lor", "lnot", "box", "dia",
    "parse", "nnf", "classify", "contradictory",
    "Parts", "decompose_clause", "decompose_term",
    "variables", "modal_depth", "canonical_key", "sort_formulas",
    "conjuncts", "MAX_NESTING", "MAX_EXPANSION",
]


class Formula:
    """Immutable formula node; identity is the canonical printed form.

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
        return isinstance(other, Formula) and self.key == other.key

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


_var_cache: dict = {}


def var(name: str) -> Var:
    v = _var_cache.get(name)
    if v is None:
        v = _var_cache[name] = Var(name)
    return v


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
    return And(children)


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
    return Or(children)


def lnot(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    if isinstance(f, Not):
        return f.child
    return Not(f)


def box(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return TRUE
    return Box(f)


def dia(f: Formula) -> Formula:
    if isinstance(f, FalseF):
        return FALSE
    return Dia(f)


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (ASCII):  atoms [a-zA-Z][a-zA-Z0-9_]*, `~` negation, `&`, `|`,
# `->`, `<->`, `[]`, `<>`, `true`, `false`, parentheses.  Unary binds
# tightest, then `&`, `|`, `->` (right associative), `<->`.  Each `(` and
# each unary operator opens one nesting level; text nested deeper than
# MAX_NESTING levels is rejected, so that neither the parser nor the
# recursive walks over the tree it builds run out of stack.  `a <-> b`
# becomes `(~a | b) & (~b | a)`, which doubles its operands; an expansion
# that prints longer than MAX_EXPANSION characters is rejected too.
# ---------------------------------------------------------------------------

MAX_NESTING = 100
MAX_EXPANSION = 100_000
_UNARY = {"~": lnot, "[]": box, "<>": dia}

_TOKEN_CHARS = {"(": "(", ")": ")", "&": "&", "|": "|", "~": "~"}
_ATOM_START = frozenset(string.ascii_letters)
_ATOM_CHARS = frozenset(string.ascii_letters + string.digits + "_")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str, source=None):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _ATOM_START:
            j = i + 1
            while j < n and text[j] in _ATOM_CHARS:
                j += 1
            word = text[i:j]
            kind = word if word in ("true", "false") else "atom"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if text.startswith("<->", i):
            tokens.append(_Token("<->", "<->", line, col))
            i += 3
            col += 3
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("[]", i):
            tokens.append(_Token("[]", "[]", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("<>", i):
            tokens.append(_Token("<>", "<>", line, col))
            i += 2
            col += 2
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", line, col, source)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, source=None):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise FormulaSyntaxError(message, tok.line, tok.col, self.source)

    def nest(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nested deeper than {MAX_NESTING} levels", tok)

    def parse(self) -> Formula:
        f = self.iff()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected {tok.text!r}")
        return f

    def iff(self) -> Formula:
        left = self.imp()
        while self.peek().kind == "<->":
            tok = self.take()
            right = self.imp()
            left = land(lor(lnot(left), right), lor(lnot(right), left))
            if len(left.key) > MAX_EXPANSION:
                self.fail(f"'<->' expands past {MAX_EXPANSION} characters",
                          tok)
        return left

    def imp(self) -> Formula:
        parts = [self.disj()]
        while self.peek().kind == "->":
            self.take()
            parts.append(self.disj())
        f = parts.pop()
        for left in reversed(parts):
            f = lor(lnot(left), f)
        return f

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.peek().kind == "|":
            self.take()
            parts.append(self.conj())
        return lor(parts) if len(parts) > 1 else parts[0]

    def conj(self) -> Formula:
        parts = [self.unary()]
        while self.peek().kind == "&":
            self.take()
            parts.append(self.unary())
        return land(parts) if len(parts) > 1 else parts[0]

    def unary(self) -> Formula:
        op = _UNARY.get(self.peek().kind)
        if op is None:
            return self.atom()
        self.nest(self.take())
        f = op(self.unary())
        self.depth -= 1
        return f

    def atom(self) -> Formula:
        tok = self.take()
        if tok.kind == "atom":
            return var(tok.text)
        if tok.kind == "true":
            return TRUE
        if tok.kind == "false":
            return FALSE
        if tok.kind == "(":
            self.nest(tok)
            f = self.iff()
            close = self.take()
            if close.kind != ")":
                self.fail("expected ')'", close)
            self.depth -= 1
            return f
        if tok.kind == "end":
            self.fail("unexpected end of input", tok)
        self.fail(f"unexpected {tok.text!r}", tok)


def parse(text: str, source=None) -> Formula:
    """Parse formula text into a canonical Formula.

    `->` and `<->` are expanded away at parse time; the tree only ever
    contains the primitive connectives.
    """
    if not text.strip():
        raise FormulaSyntaxError("empty input", 1, 1, source)
    return _Parser(_tokenize(text, source), source).parse()


# ---------------------------------------------------------------------------
# Negation normal form and the literal/clause/term grammar
# ---------------------------------------------------------------------------

def nnf(f: Formula) -> Formula:
    """Push negations down to variables using De Morgan and []~/<>~ duality.

    A formula already in negation normal form is returned itself.
    """
    if f.in_nnf:
        return f
    if isinstance(f, And):
        return land(nnf(c) for c in f.children)
    if isinstance(f, Or):
        return lor(nnf(c) for c in f.children)
    if isinstance(f, Box):
        return box(nnf(f.child))
    if isinstance(f, Dia):
        return dia(nnf(f.child))
    # Not of anything but a variable
    g = f.child
    if isinstance(g, TrueF):
        return FALSE
    if isinstance(g, FalseF):
        return TRUE
    if isinstance(g, Not):
        return nnf(g.child)
    if isinstance(g, And):
        return lor(nnf(lnot(c)) for c in g.children)
    if isinstance(g, Or):
        return land(nnf(lnot(c)) for c in g.children)
    if isinstance(g, Box):
        return dia(nnf(lnot(g.child)))
    if isinstance(g, Dia):
        return box(nnf(lnot(g.child)))
    raise TypeError(f"unknown node {f!r}")


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
    literals = c.children if isinstance(c, Or) else (c,)
    return Parts(lor, *_split(literals))


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
