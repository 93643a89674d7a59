"""AST, parser, printer, and compiled node tables for the two object languages.

The parser reads a text once, with one explicit stack, into the post-order
that `compile_formula` interns into a node table; `parse_formula` builds a
syntax tree from that same post-order.  The parser is the only way into a
table: a syntax tree compiles through its printed text, and a table holds
only its nodes.  A table prints by the same rules as a tree, so a query can
go from text to table to text without a tree.  Parsing, compiling, printing
and the free-variable walk are iterative: no nesting depth is too deep for
them.

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
class _Binary:
    left: "Formula"
    right: "Formula"


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


@dataclass(frozen=True)
class _Binder:
    var: str
    body: "Formula"

    def __post_init__(self):
        _check_name(self.var)


class Forall(_Binder):
    pass


class Exists(_Binder):
    pass


@dataclass(frozen=True)
class _Unary:
    body: "Formula"


class Box(_Unary):
    pass


class Diamond(_Unary):
    pass


Formula = Var | Bottom | And | Or | Implies | Forall | Exists | Box | Diamond


def neg(f: Formula) -> Formula:
    """Negation as the standard abbreviation: ~A is A -> bot."""
    return Implies(f, Bottom())


# --- compiled node tables --------------------------------------------------

# Op codes of a compiled node.
VAR, BOT, AND, OR, IMPLIES, FORALL, EXISTS, BOX, DIA = range(9)

# The proposition that fixes a one-polarity quantifier.
EMPTY, FULL = "empty", "full"

_BOT = (BOT, (), 0)  # the post-order entry of `bot` (see `compile_formula`)

# The syntax tree class of each op code, and back.
_NODES = (Var, Bottom, And, Or, Implies, Forall, Exists, Box, Diamond)
_OPS = MappingProxyType({node: op for op, node in enumerate(_NODES)})


@dataclass(frozen=True, eq=False)
class NodeTable:
    """A formula compiled once into an interned, integer-indexed node table.

    Nodes are listed in post-order, left child first, so children come
    before their parents and the root is the last node.  The k-th binder
    from the left of the text (counting from 0) is renamed `f"{var}#{k}"`
    (no identifier), so no variable is rebound in its own scope, and equal
    subformulas share one id unless they use a bound variable.  For node
    `i`, `ops[i]` is its op code and `args[i]` its operands: the name for
    VAR, `()` for BOT, `(left, right)` for AND, OR and IMPLIES,
    `(name, body)` for FORALL and EXISTS, `(body,)` for BOX and DIA.  `free`
    is the sorted tuple of the formula's free variables.

    Each node is in one schedule, in post-order: `top` if it uses no bound
    variable, else `schedules[i]` of the quantifier `i` binding its innermost
    one, which for a ranging quantifier ends with its body.

    `fixed[i]` is EMPTY or FULL for a FORALL or EXISTS node whose variable
    occurs in its body in one polarity only, or not at all: that one
    proposition decides the quantifier (see `semantics`).  It is None for
    every other node, so a quantifier with None ranges over all
    propositions.

    A table holds only its nodes: `print_formula` gives back its text, and
    `parse_formula` of that text its syntax tree.
    """

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


def compile_formula(f: Formula | str | NodeTable, lang: str = INT) -> NodeTable:
    """Compile `f`, a syntax tree or a text in the language `lang`, into its
    node table; a table is returned unchanged.  Iterative, so any depth is
    fine.  Raises what `parse_formula` raises on a text, and TypeError if a
    tree holds something that is not a formula node.

    The parser is the one way into a table: it reads a text into a
    post-order of (op, name, bit) entries, left child first, and a tree is
    compiled by reading its printed text (in the S4 language, which holds
    both), so text and tree give the same table, names included.  A VAR
    entry holds the variable's name and 0, or if it is bound, its binder's
    new name and bit; a FORALL or EXISTS entry its own new name and bit;
    any other entry `()` and 0.  A binder's bit is 1 << (the number of
    binders around it).
    """
    if isinstance(f, NodeTable):
        return f
    if isinstance(f, str):
        return _intern(_parse(f, lang))
    return _intern(_parse(_print_tree(f), S4))


def _intern(entries: list[tuple]) -> NodeTable:
    """The node table of post-order entries.

    It tracks, per node, the bound variables with a positive and those with
    a negative occurrence, one bit per binder depth, so the highest bit is the
    innermost binder: `->` flips the polarity of its left side, every other
    connective keeps it, and a quantifier drops its own bit.
    """
    interned: dict[tuple, int] = {}
    ids, ops, args, fixed = [], [], [], []
    positive, negative = [], []  # per node id: bound variables of each polarity
    schedules, own = {}, []  # depth -> schedule of the binder open there, -1: top
    for op, name, bit in entries:
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
    return NodeTable(tuple(ops), tuple(args), free, tuple(fixed), top, tuple(own))


def _scan(f: Formula) -> tuple[frozenset[str], bool]:
    """The free variables of the syntax tree `f`, and whether it has a box
    or diamond, in one walk with one stack.  `bound` counts the binders of
    each variable around the node at hand; a binder's leave marker, below
    its body on the stack, gives its own back."""
    free, modal, bound, stack = set(), False, {}, [f]
    leave = object()  # below it: the variable of the binder being left
    while stack:
        node = stack.pop()
        if node is leave:
            bound[stack.pop()] -= 1
            continue
        op = _OPS.get(type(node))
        if op == VAR:
            if not bound.get(node.name):
                free.add(node.name)
        elif op in (FORALL, EXISTS):
            bound[node.var] = bound.get(node.var, 0) + 1
            stack += (node.var, leave, node.body)
        elif op in (AND, OR, IMPLIES):
            stack += (node.right, node.left)
        elif op in (BOX, DIA):
            modal = True
            stack.append(node.body)
        elif op is None:
            raise TypeError(f"not a formula node: {node!r}")
    return frozenset(free), modal


def free_vars(f: Formula) -> frozenset[str]:
    """Free propositional variables of `f`; quantifiers bind."""
    return _scan(f)[0]


def is_modal(f: Formula) -> bool:
    """True if `f` contains a box or diamond anywhere."""
    return _scan(f)[1]


# --- parsing -------------------------------------------------------------

# A text the parser reads is a run of blanks and tokens, all of them ASCII,
# so an offset into it is also a byte offset.
_LEXEMES = re.compile(r"[ \t\r\n()&|~]*(?:(?:->|[a-z][a-zA-Z0-9_]*)[ \t\r\n()&|~]*)*")
_TOKEN = re.compile(r"->|[()&|~]|[a-z][a-zA-Z0-9_]*")

# How tightly an operator waiting on the parser's stack binds; `(` binds
# nothing, and the stack's bottom (-1) less still.
_OPEN, _IMPL, _OR, _AND, _PREFIX = range(5)
_INFIX = MappingProxyType({
    "->": (_IMPL, (IMPLIES, (), 0)), "|": (_OR, (OR, (), 0)), "&": (_AND, (AND, (), 0)),
})
_PREFIXES = MappingProxyType({  # ~A is A -> bot
    "(": (_OPEN,), "~": (_PREFIX, (IMPLIES, (), 0), None, None),
    "box": (_PREFIX, (BOX, (), 0), None, None), "dia": (_PREFIX, (DIA, (), 0), None, None),
})


def _offset(text: str, k: int) -> int:
    """Where the k-th token of `text` starts; the end of the text counts as
    the last token."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


def _parse(text: str, lang: str) -> list[tuple]:
    """The post-order entries of `text` (see `compile_formula`).

    One pass over the tokens with one stack of waiting operators: a prefix
    operator waits for the unary formula after it, an infix one until an
    operator that binds less tightly, `)` or the end.  A binder is renamed
    when it is read, and each variable resolved while its binder waits.
    """
    if lang not in LANGUAGES:
        raise ValueError(f"unknown language tag {lang!r}")
    # a bad character anywhere is reported before any syntax error
    end = _LEXEMES.match(text).end()
    if end < len(text):
        if text[end] == "-":
            raise FormulaSyntaxError("expected '->'", end)
        raise FormulaSyntaxError(f"unexpected character {text[end]!r}", end)
    words = (text.replace("->", " -> ").replace("(", " ( ").replace(")", " ) ")
             .replace("&", " & ").replace("|", " | ").replace("~", " ~ ").split())
    words.append("")  # the end
    entries, stack, scope = [], [(-1,)], {}  # scope: variable -> (new name, bit)
    depth = binders = i = 0
    while True:
        # Where a unary formula starts: its prefix operators, then an operand.
        word = words[i]
        i += 1
        item = _PREFIXES.get(word)
        if item is not None:
            if word in ("box", "dia") and lang != S4:
                raise LanguageError(
                    f"{word!r} is not part of the intuitionistic language "
                    f"(byte {_offset(text, i - 1)})"
                )
            stack.append(item)
            continue
        if word == "forall" or word == "exists":
            var = words[i]
            if not var[:1].isalpha() or var in _KEYWORDS:
                raise FormulaSyntaxError("expected a variable after quantifier", _offset(text, i))
            i += 1
            bound = (f"{var}#{binders}", 1 << depth)
            op = FORALL if word == "forall" else EXISTS
            stack.append((_PREFIX, (op, *bound), var, scope.get(var)))
            scope[var] = bound
            binders += 1
            depth += 1
            continue
        if word == "bot":
            entries.append(_BOT)
        elif word[:1].isalpha():
            bound = scope.get(word)
            entries.append((VAR, word, 0) if bound is None else (VAR, *bound))
        else:
            raise FormulaSyntaxError("expected a formula", _offset(text, i - 1))
        # After an operand: it completes the prefix operators waiting for
        # it, and so does each `)` that follows.
        while True:
            while stack[-1][0] == _PREFIX:
                _, entry, var, outer = stack.pop()
                if var is not None:
                    scope[var] = outer
                    depth -= 1
                elif entry[0] == IMPLIES:
                    entries.append(_BOT)
                entries.append(entry)
            word = words[i]
            i += 1
            if word != ")":
                break
            while stack[-1][0] > _OPEN:
                entries.append(stack.pop()[1])
            if stack[-1][0] != _OPEN:
                raise FormulaSyntaxError("unexpected ')' after formula", _offset(text, i - 1))
            stack.pop()
        infix = _INFIX.get(word)
        if infix is None:
            inside = (_OPEN,) in stack
            if word or inside:
                message = "expected ')'" if inside else f"unexpected {word!r} after formula"
                raise FormulaSyntaxError(message, _offset(text, i - 1))
            while len(stack) > 1:
                entries.append(stack.pop()[1])
            return entries
        # `&` and `|` group to the left, `->` to the right
        strength = infix[0]
        while stack[-1][0] > strength or stack[-1][0] == strength != _IMPL:
            entries.append(stack.pop()[1])
        stack.append(infix)


def _tree(entries: list[tuple]) -> Formula:
    """The syntax tree of post-order entries, built by its constructors."""
    stack = []
    for op, name, _ in entries:
        node = _NODES[op]
        if op == VAR:
            stack.append(node(name.partition("#")[0]))
        elif op == BOT:
            stack.append(node())
        elif op in (FORALL, EXISTS):
            stack[-1] = node(name.partition("#")[0], stack[-1])
        elif op in (BOX, DIA):
            stack[-1] = node(stack[-1])
        else:
            right = stack.pop()
            stack[-1] = node(stack[-1], right)
    return stack[0]


def parse_formula(text: str, lang: str = INT) -> Formula:
    """Parse `text` in the given language ("int" or "s4").

    Raises FormulaSyntaxError on malformed input and LanguageError when a
    modal operator appears under the intuitionistic language tag.
    """
    return _tree(_parse(text, lang))


# --- printing ------------------------------------------------------------

# How each compound node prints, per op code: (precedence, head, place of the
# body or left child, infix, place of the right child).  Precedences: 1
# implication, 2 disjunction, 3 conjunction, 4 prefix operators and
# quantifiers, 5 atoms.  A child gets parentheses when its precedence is
# below its place.  A quantifier's head is followed by its variable, and
# `A -> bot` prints as `~A`, by the layout of _NEG.  Both printers below
# apply these rules top down, so each piece of text is written once.
_NEG = 9
_LAYOUT = (
    None, None, (3, "", 3, " & ", 4), (2, "", 2, " | ", 3), (1, "", 2, " -> ", 1),
    (4, "forall ", 4, "", 0), (4, "exists ", 4, "", 0), (4, "box ", 4, "", 0),
    (4, "dia ", 4, "", 0), (4, "~", 4, "", 0),
)


def print_formula(f: Formula | NodeTable) -> str:
    """Render `f`, a syntax tree or a node table, with minimal parentheses;
    reparsing yields `f` again.  Iterative, so any depth is fine."""
    return _print_table(f) if isinstance(f, NodeTable) else _print_tree(f)


def _print_tree(f: Formula) -> str:
    """`print_formula` on a syntax tree; TypeError on a node that is not a
    formula node."""
    out, stack = [], [(f, 1)]  # pieces of text, or a node and its place
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, place = item
        kind = type(node)
        if kind is Var:
            out.append(node.name)
            continue
        if kind is Bottom:
            out.append("bot")
            continue
        op = _OPS.get(kind)
        if op is None:
            raise TypeError(f"not a formula node: {node!r}")
        if op == IMPLIES and type(node.right) is Bottom:
            op = _NEG
        precedence, head, inner, infix, right = _LAYOUT[op]
        if precedence < place:
            out.append("(")
            stack.append(")")
        out.append(head + node.var + " " if op == FORALL or op == EXISTS else head)
        if infix:
            stack += ((node.right, right), infix, (node.left, inner))
        else:
            stack.append((node.left if op == _NEG else node.body, inner))
    return "".join(out)


def _print_table(t: NodeTable) -> str:
    """`print_formula` on a node table: the same rules, reading nodes by id."""
    ops, args = t.ops, t.args
    out, stack = [], [(t.root, 1)]  # pieces of text, or a node id and its place
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        i, place = item
        op, arg = ops[i], args[i]
        if op == VAR:
            out.append(arg.partition("#")[0])
            continue
        if op == BOT:
            out.append("bot")
            continue
        if op == IMPLIES and ops[arg[1]] == BOT:
            op = _NEG
        precedence, head, inner, infix, right = _LAYOUT[op]
        if precedence < place:
            out.append("(")
            stack.append(")")
        if op == FORALL or op == EXISTS:
            head += arg[0].partition("#")[0] + " "
            arg = arg[1:]
        out.append(head)
        if infix:
            stack.append((arg[1], right))
            stack.append(infix)
        stack.append((arg[0], inner))
    return "".join(out)
