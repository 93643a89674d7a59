"""The recursive-descent formula parser the package used before its
iterative one, kept as a test-only reference: the differential tests
require the same syntax tree, or the same exception class, message and
byte offset, from both on every text."""

from __future__ import annotations

from qptrees.formula import (
    _IDENT,
    _KEYWORDS,
    INT,
    LANGUAGES,
    S4,
    And,
    Bottom,
    Box,
    Diamond,
    Exists,
    Forall,
    Formula,
    FormulaSyntaxError,
    Implies,
    LanguageError,
    Or,
    Var,
    neg,
)


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
