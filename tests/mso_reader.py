"""Companion reader for the emitted second-order text, used to check that
emission is deterministic, reparseable, and injective on ASTs; plus three
walkers over second-order formulas that only the tests need: free names, the
elimination of immediate-successor atoms, and the reference finite-domain
evaluator."""

from __future__ import annotations

import re

from qptrees.formula import UnboundVariableError
from qptrees.mso import (
    All1,
    All2,
    Conj,
    Disj,
    Ex1,
    Ex2,
    Falsum,
    Impl,
    ImmediateLe,
    LexLe,
    Member,
    Neg,
    NodeEq,
    PrefixLe,
    ROOT,
    Subset,
)

_TOKEN = re.compile(r"\s*(lex<=|<=1|<=|=>|=|\(|\)|~|&|\||:|[A-Za-z_][A-Za-z0-9_]*)")

_QUANT = {"all1": All1, "ex1": Ex1, "all2": All2, "ex2": Ex2}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad MSO text at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    return tokens


class MsoReader:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, expect=None):
        tok = self.tokens[self.pos]
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        f = self.impl()
        if self.peek() is not None:
            raise ValueError(f"trailing token {self.peek()!r}")
        return f

    def impl(self):
        left = self.disj()
        if self.peek() == "=>":
            self.take()
            return Impl(left, self.impl())
        return left

    def disj(self):
        f = self.conj()
        while self.peek() == "|":
            self.take()
            f = Disj(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = Conj(f, self.unary())
        return f

    def unary(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return Neg(self.unary())
        if tok in _QUANT:
            self.take()
            var = self.take()
            self.take(":")
            return _QUANT[tok](var, self.unary())
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok == "false":
            return Falsum()
        if tok == "(":
            f = self.impl()
            self.take(")")
            return f
        left = tok
        op = self.take()
        if op == "in":
            return Member(left, self.take())
        if op == "sub":
            return Subset(left, self.take())
        if op == "<=":
            return PrefixLe(left, self.take())
        if op == "<=1":
            return ImmediateLe(left, self.take())
        if op == "lex<=":
            return LexLe(left, self.take())
        if op == "=":
            return NodeEq(left, self.take())
        raise ValueError(f"unexpected token {op!r} after {left!r}")


def read_mso(text):
    return MsoReader(text).parse()


def free_names(f):
    """Free individual and set variables (the `root` constant excluded)."""
    if isinstance(f, Member):
        base = {f.elem, f.setvar}
    elif isinstance(f, (Subset, PrefixLe, ImmediateLe, LexLe, NodeEq)):
        base = {f.left, f.right}
    elif isinstance(f, Falsum):
        base = set()
    elif isinstance(f, (Conj, Disj, Impl)):
        base = free_names(f.left) | free_names(f.right)
    elif isinstance(f, Neg):
        base = free_names(f.body)
    elif isinstance(f, (All1, Ex1, All2, Ex2)):
        base = free_names(f.body) - {f.var}
    else:
        raise TypeError(f"not a second-order formula node: {f!r}")
    return frozenset(base) - {ROOT}


def expand_immediate(f):
    """Rewrite every immediate-successor atom into pure prefix-order terms:
    x <=1 y becomes x <= y, x distinct from y, and nothing strictly between.
    Fresh variables z_0, z_1, ... are used for the betweenness check."""
    counter = [0]

    def rewrite(g):
        if isinstance(g, ImmediateLe):
            z = f"z_{counter[0]}"
            counter[0] += 1
            between = Conj(PrefixLe(g.left, z), PrefixLe(z, g.right))
            return Conj(
                PrefixLe(g.left, g.right),
                Conj(
                    Neg(NodeEq(g.left, g.right)),
                    All1(z, Impl(between, Disj(NodeEq(z, g.left), NodeEq(z, g.right)))),
                ),
            )
        if isinstance(g, (Conj, Disj, Impl)):
            return type(g)(rewrite(g.left), rewrite(g.right))
        if isinstance(g, Neg):
            return Neg(rewrite(g.body))
        if isinstance(g, (All1, Ex1, All2, Ex2)):
            return type(g)(g.var, rewrite(g.body))
        return g

    return rewrite(f)


def reference_eval_finite(f, domain, env):
    """The plain walker that `qptrees.mso.eval_finite` is tested against.

    It evaluates `f` over a finite tree model in a dynamically scoped
    environment of words and frozensets of words.  Individual quantifiers
    range over the model's worlds, set quantifiers over all of their
    subsets; `root` always denotes the model's root.  Raises
    UnboundVariableError when the walk reaches a variable that is unbound
    or bound to the other kind.
    """
    if domain.kind != "tree":
        raise ValueError("finite evaluation is defined over tree models")
    worlds = domain.worlds
    scope = {}
    for name, value in env.items():
        if isinstance(value, (set, frozenset)):
            scope[name] = frozenset(tuple(w) for w in value)
        elif isinstance(value, tuple):
            scope[name] = value
        else:
            raise ValueError(
                f"environment entry {name!r} must be a node (tuple) or a set of nodes"
            )
    subsets_cache = None

    def all_subsets():
        nonlocal subsets_cache
        if subsets_cache is None:
            subsets_cache = [
                frozenset(w for i, w in enumerate(worlds) if mask >> i & 1)
                for mask in range(1 << len(worlds))
            ]
        return subsets_cache

    def node(term):
        if term == ROOT:
            return domain.root
        try:
            value = scope[term]
        except KeyError:
            raise UnboundVariableError(f"unbound individual variable {term!r}") from None
        if not isinstance(value, tuple):
            raise UnboundVariableError(f"{term!r} is bound to a set, not a node")
        return value

    def collection(term):
        try:
            value = scope[term]
        except KeyError:
            raise UnboundVariableError(f"unbound set variable {term!r}") from None
        if not isinstance(value, frozenset):
            raise UnboundVariableError(f"{term!r} is bound to a node, not a set")
        return value

    def run(g):
        if isinstance(g, Member):
            return node(g.elem) in collection(g.setvar)
        if isinstance(g, Subset):
            return collection(g.left) <= collection(g.right)
        if isinstance(g, PrefixLe):
            a, b = node(g.left), node(g.right)
            return b[: len(a)] == a
        if isinstance(g, ImmediateLe):
            a, b = node(g.left), node(g.right)
            return len(b) == len(a) + 1 and b[: len(a)] == a
        if isinstance(g, LexLe):
            return node(g.left) <= node(g.right)
        if isinstance(g, NodeEq):
            return node(g.left) == node(g.right)
        if isinstance(g, Falsum):
            return False
        if isinstance(g, Conj):
            return run(g.left) and run(g.right)
        if isinstance(g, Disj):
            return run(g.left) or run(g.right)
        if isinstance(g, Impl):
            return not run(g.left) or run(g.right)
        if isinstance(g, Neg):
            return not run(g.body)
        if isinstance(g, (All1, Ex1)):
            want_all = isinstance(g, All1)
            sentinel = object()
            saved = scope.get(g.var, sentinel)
            try:
                for w in worlds:
                    scope[g.var] = w
                    if run(g.body) != want_all:
                        return not want_all
                return want_all
            finally:
                if saved is sentinel:
                    scope.pop(g.var, None)
                else:
                    scope[g.var] = saved
        if isinstance(g, (All2, Ex2)):
            want_all = isinstance(g, All2)
            sentinel = object()
            saved = scope.get(g.var, sentinel)
            try:
                for s in all_subsets():
                    scope[g.var] = s
                    if run(g.body) != want_all:
                        return not want_all
                return want_all
            finally:
                if saved is sentinel:
                    scope.pop(g.var, None)
                else:
                    scope[g.var] = saved
        raise TypeError(f"not a second-order formula node: {g!r}")

    return run(f)
