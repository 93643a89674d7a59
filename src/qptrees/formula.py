"""AST, parser, printer, and compiled node tables for the two object languages.

The intuitionistic language has variables, `bot`, `&`, `|`, `->` and the
propositional quantifiers `forall p` / `exists p`.  The modal (S4) language
adds the unary operators `box` and `dia`.  Negation is not a node of its
own: `~A` is sugar for `A -> bot` both when parsing and when printing.

Concrete grammar (ASCII only)::

    formula := impl
    impl    := or ("->" impl)?             # right associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "box" unary | "dia" unary
             | "forall" ident unary | "exists" ident unary | atom
    atom    := ident | "bot" | "(" formula ")"
    ident   := [a-z][a-zA-Z0-9_]*          # keywords excluded
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

INT = "int"
S4 = "s4"
LANGUAGES = (INT, S4)

_KEYWORDS = frozenset({"bot", "forall", "exists", "box", "dia"})
_IDENT = re.compile(r"[a-z][a-zA-Z0-9_]*")


class FormulaSyntaxError(ValueError):
    """Malformed concrete syntax; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class LanguageError(ValueError):
    """Modal syntax used where only the intuitionistic language is allowed,
    or more generally a formula whose language does not match the requested
    evaluation mode."""


class UnboundVariableError(ValueError):
    """A propositional variable has no entry in the relevant assignment."""


class OpenFormulaError(ValueError):
    """An operation that requires a closed formula was given an open one."""


def _check_name(name: str) -> str:
    if not isinstance(name, str) or _IDENT.fullmatch(name) is None or name in _KEYWORDS:
        raise ValueError(f"invalid variable name: {name!r}")
    return name


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        _check_name(self.name)


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"

    def __post_init__(self):
        _check_name(self.var)


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"

    def __post_init__(self):
        _check_name(self.var)


@dataclass(frozen=True)
class Box:
    body: "Formula"


@dataclass(frozen=True)
class Diamond:
    body: "Formula"


Formula = Var | Bottom | And | Or | Implies | Forall | Exists | Box | Diamond


def neg(f: Formula) -> Formula:
    """Negation as the standard abbreviation: ~A is A -> bot."""
    return Implies(f, Bottom())


# --- compiled node tables --------------------------------------------------

# Op codes of a compiled node.
VAR, BOT, AND, OR, IMPLIES, FORALL, EXISTS, BOX, DIA = range(9)

# The proposition that fixes a one-polarity quantifier.
EMPTY, FULL = "empty", "full"

_OPS = MappingProxyType({
    Var: VAR, Bottom: BOT, And: AND, Or: OR, Implies: IMPLIES,
    Forall: FORALL, Exists: EXISTS, Box: BOX, Diamond: DIA,
})


@dataclass(frozen=True, eq=False)
class NodeTable:
    """A formula compiled once into an interned, integer-indexed node table.

    Nodes are listed in post-order, so children come before their parents
    and the root is the last node.  The binder with preorder number k is
    renamed `f"{var}#{k}"` (no identifier), so no variable is rebound in its
    own scope, and equal subformulas share one id unless they use a bound
    variable.  For node `i`, `ops[i]` is its op code and `args[i]` its
    operands: the name for VAR, `()` for BOT, `(left, right)` for AND, OR and
    IMPLIES, `(name, body)` for FORALL and EXISTS, `(body,)` for BOX and DIA.
    `free` is the sorted tuple of the formula's free variables.

    Each node is in one schedule, in post-order: `top` if it uses no bound
    variable, else `schedules[i]` of the quantifier `i` binding its innermost
    one, which for a ranging quantifier ends with its body.

    `fixed[i]` is EMPTY or FULL for a FORALL or EXISTS node whose variable
    occurs in its body in one polarity only, or not at all: that one
    proposition decides the quantifier (see `semantics`).  It is None for
    every other node, so a quantifier with None ranges over all
    propositions.
    """

    formula: Formula
    ops: tuple[int, ...]
    args: tuple
    free: tuple[str, ...]
    fixed: tuple[str | None, ...]
    top: tuple[int, ...]
    schedules: tuple[tuple[int, ...], ...]

    @property
    def root(self) -> int:
        return len(self.ops) - 1

    @property
    def modal(self) -> bool:
        return BOX in self.ops or DIA in self.ops

    @cached_property
    def quantified(self) -> bool:
        """True if some quantifier ranges over all propositions."""
        return any(
            fix is None and op in (FORALL, EXISTS) for op, fix in zip(self.ops, self.fixed)
        )


def compile_formula(f: Formula) -> NodeTable:
    """Compile `f` into its node table; iterative, so any depth is fine.

    It tracks, per node, the bound variables with a positive and those with
    a negative occurrence, one bit per binder depth, so the highest bit is the
    innermost binder: `->` flips the polarity of its left side, every other
    connective keeps it, and a quantifier drops its own bit.  Raises TypeError
    if the tree holds something that is not a formula node.
    """
    preorder, stack, depth = [], [f], 0
    scope, leave = {}, object()  # variable -> (new name, depth bit) of its binder, or None
    while stack:
        node = stack.pop()
        if node is leave:  # the end of a binder's scope; below it, what it hid
            var, outer = stack.pop()
            scope[var] = outer
            depth -= 1
            continue
        op = _OPS.get(type(node))
        if op is None:
            raise TypeError(f"not a formula node: {node!r}")
        if op == VAR:
            bound = scope.get(node.name)
            preorder.append((op, node.name, 0) if bound is None else (op, *bound))
        elif op in (FORALL, EXISTS):
            stack += ((node.var, scope.get(node.var)), leave, node.body)
            scope[node.var] = bound = (f"{node.var}#{len(preorder)}", 1 << depth)
            preorder.append((op, *bound))
            depth += 1
        else:
            preorder.append((op, (), 0))
            if op in (AND, OR, IMPLIES):
                stack += (node.left, node.right)
            elif op != BOT:
                stack.append(node.body)
    # Reversed, a right-first preorder is a left-first post-order.
    interned: dict[tuple, int] = {}
    ids, ops, args, fixed = [], [], [], []
    positive, negative = [], []  # per node id: bound variables of each polarity
    schedules, own = {}, []  # depth -> schedule of the binder open there, -1: top
    for op, name, bit in reversed(preorder):
        fix = None
        if op in (VAR, BOT):
            arg, pos, neg = name, bit, 0
        elif op in (AND, OR, IMPLIES):
            right, left = ids.pop(), ids.pop()
            arg = (left, right)
            if op == IMPLIES:
                pos = negative[left] | positive[right]
                neg = positive[left] | negative[right]
            else:
                pos = positive[left] | positive[right]
                neg = negative[left] | negative[right]
        elif op in (FORALL, EXISTS):
            body = ids.pop()
            arg = (name, body)
            pos, neg = positive[body] & ~bit, negative[body] & ~bit
            if not negative[body] & bit:
                fix = EMPTY if op == FORALL else FULL
            elif not positive[body] & bit:
                fix = FULL if op == FORALL else EMPTY
        else:
            body = ids.pop()
            arg, pos, neg = (body,), positive[body], negative[body]
        # (op, arg) determines the polarity masks and `fix` as well, so nodes
        # with equal keys may share an id.
        i = interned.setdefault((op, arg), len(ops))
        if i == len(ops):
            ops.append(op)
            args.append(arg)
            fixed.append(fix)
            positive.append(pos)
            negative.append(neg)
            used = pos | neg
            schedules.setdefault(used.bit_length() - 1, []).append(i)
            # a binder's scope, its body, is complete by now
            own.append(tuple(schedules.pop(bit.bit_length() - 1, ()))
                       if op in (FORALL, EXISTS) else ())
        ids.append(i)
    free = tuple(sorted(a for op, a in zip(ops, args) if op == VAR and "#" not in a))
    top = tuple(schedules[-1])  # the root, at least
    return NodeTable(f, tuple(ops), tuple(args), free, tuple(fixed), top, tuple(own))


def free_vars(f: Formula) -> frozenset[str]:
    """Free propositional variables of `f`; quantifiers bind."""
    return frozenset(compile_formula(f).free)


def is_modal(f: Formula) -> bool:
    """True if `f` contains a box or diamond anywhere."""
    return compile_formula(f).modal


# --- parsing -------------------------------------------------------------


def _byte_offset(text: str, i: int) -> int:
    return len(text[:i].encode("utf-8"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "()&|~":
            tokens.append((c, c, i))
            i += 1
            continue
        if c == "-":
            if text.startswith("->", i):
                tokens.append(("->", "->", i))
                i += 2
                continue
            raise FormulaSyntaxError("expected '->'", _byte_offset(text, i))
        m = _IDENT.match(text, i)
        if m is not None:
            word = m.group()
            kind = word if word in _KEYWORDS else "ident"
            tokens.append((kind, word, i))
            i = m.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", _byte_offset(text, i))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, lang: str):
        self.text = text
        self.lang = lang
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        offset = self.tokens[self.pos][2]
        raise FormulaSyntaxError(message, _byte_offset(self.text, offset))

    def formula(self) -> Formula:
        f = self.impl()
        if self.peek() != "end":
            self.fail(f"unexpected {self.tokens[self.pos][1]!r} after formula")
        return f

    def impl(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.next()
            return Implies(left, self.impl())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == "~":
            self.next()
            return neg(self.unary())
        if kind in ("box", "dia"):
            _, word, offset = self.next()
            if self.lang != S4:
                raise LanguageError(
                    f"{word!r} is not part of the intuitionistic language "
                    f"(byte {_byte_offset(self.text, offset)})"
                )
            body = self.unary()
            return Box(body) if kind == "box" else Diamond(body)
        if kind in ("forall", "exists"):
            self.next()
            if self.peek() != "ident":
                self.fail("expected a variable after quantifier")
            _, name, _ = self.next()
            body = self.unary()
            return Forall(name, body) if kind == "forall" else Exists(name, body)
        return self.atom()

    def atom(self) -> Formula:
        kind = self.peek()
        if kind == "ident":
            _, name, _ = self.next()
            return Var(name)
        if kind == "bot":
            self.next()
            return Bottom()
        if kind == "(":
            self.next()
            f = self.impl()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.next()
            return f
        self.fail("expected a formula")


def parse_formula(text: str, lang: str = INT) -> Formula:
    """Parse `text` in the given language ("int" or "s4").

    Raises FormulaSyntaxError on malformed input and LanguageError when a
    modal operator appears under the intuitionistic language tag.
    """
    if lang not in LANGUAGES:
        raise ValueError(f"unknown language tag {lang!r}")
    return _Parser(text, lang).formula()


# --- printing ------------------------------------------------------------

# Precedence contexts: 1 implication, 2 disjunction, 3 conjunction,
# 4 prefix operators and quantifiers, 5 atoms.


def _print(f: Formula, ctx: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, Implies) and isinstance(f.right, Bottom):
        return "~" + _print(f.left, 4)
    if isinstance(f, Implies):
        s, prec = _print(f.left, 2) + " -> " + _print(f.right, 1), 1
    elif isinstance(f, Or):
        s, prec = _print(f.left, 2) + " | " + _print(f.right, 3), 2
    elif isinstance(f, And):
        s, prec = _print(f.left, 3) + " & " + _print(f.right, 4), 3
    elif isinstance(f, Forall):
        s, prec = f"forall {f.var} " + _print(f.body, 4), 4
    elif isinstance(f, Exists):
        s, prec = f"exists {f.var} " + _print(f.body, 4), 4
    elif isinstance(f, Box):
        s, prec = "box " + _print(f.body, 4), 4
    elif isinstance(f, Diamond):
        s, prec = "dia " + _print(f.body, 4), 4
    else:
        raise TypeError(f"not a formula node: {f!r}")
    return "(" + s + ")" if prec < ctx else s


def print_formula(f: Formula) -> str:
    """Render `f` with minimal parentheses; reparsing yields `f` again."""
    return _print(f, 1)
