"""Second-order tree logic: translation target and finite-domain evaluator.

Object formulas are compiled to monadic second-order formulas over trees,
where individual variables range over tree nodes, set variables over sets of
nodes, `<=` is the prefix order, `lex<=` the total lexicographic order on
words, and `root` names the empty word.  A propositional variable p becomes
the set variable X_p, and the reserved set variable T names the tree whose
logic is being decided.

The evaluator in :func:`eval_finite` interprets these formulas over a finite
tree model by brute force: individual quantifiers range over the model's
worlds and set quantifiers over *all* subsets of them.  Upward closure of
the sets standing in for intuitionistic propositions is imposed by the
guard the translation itself emits, not by the evaluator, which keeps this
module independent of the forcing semantics it is used to cross-check.
A formula is compiled into closures over node indices and bitmask sets on
its first evaluation over a domain, and keeps that one program until it is
freed or evaluated over another domain or environment layout, so a sweep
over a tree's worlds compiles it once; calls fill slot lists of their own,
so they may nest or run in threads.  An innermost individual quantifier is
one mask test, a guarded one loops over its guard's mask only, and set
quantifiers still try every subset.  The prefix, immediate-successor and
lexicographic relations are read off the model's words, never off the
model's order.

Emitted text (stable, single line)::

    all1 x: ...   ex1 x: ...      individual quantifiers
    all2 X: ...   ex2 X: ...      set quantifiers
    x in X        X sub Y         membership, inclusion
    x <= y        x <=1 y         prefix order, immediate successor
    x lex<= y     x = y           lexicographic order, node equality
    root  false  ~  &  |  =>      with parentheses as needed

`=>` is right associative and binds weakest, then `|`, then `&`; `~` and the
quantifiers bind strongest, so the body of a quantifier is parenthesized
unless it is an atom, a negation, or another quantifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formula import (
    INT,
    S4,
    And,
    Bottom,
    Box,
    Diamond,
    Exists,
    Forall,
    Formula,
    Implies,
    LanguageError,
    OpenFormulaError,
    Or,
    UnboundVariableError,
    Var,
    free_vars,
    print_formula,
)
from .kripke import Model

ROOT = "root"  # the individual constant for the empty word
DOMAIN = "T"  # the reserved set variable holding the tree under test


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Member:
    elem: str
    setvar: str


@dataclass(frozen=True)
class _Relation:
    left: str
    right: str


class Subset(_Relation):
    symbol = "sub"


class PrefixLe(_Relation):
    symbol = "<="


class ImmediateLe(_Relation):
    """y is an immediate successor of x: x <= y, x != y, nothing strictly between."""

    symbol = "<=1"


class LexLe(_Relation):
    symbol = "lex<="


class NodeEq(_Relation):
    symbol = "="


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class _Connective:
    left: "MsoFormula"
    right: "MsoFormula"


class Conj(_Connective):
    pass


class Disj(_Connective):
    pass


class Impl(_Connective):
    pass


@dataclass(frozen=True)
class Neg:
    body: "MsoFormula"


@dataclass(frozen=True)
class _Quantifier:
    var: str
    body: "MsoFormula"


class All1(_Quantifier):
    keyword = "all1"


class Ex1(_Quantifier):
    keyword = "ex1"


class All2(_Quantifier):
    keyword = "all2"


class Ex2(_Quantifier):
    keyword = "ex2"


MsoFormula = (
    Member | Subset | PrefixLe | ImmediateLe | LexLe | NodeEq | Falsum
    | Conj | Disj | Impl | Neg | All1 | Ex1 | All2 | Ex2
)


def _fold(node, parts) -> MsoFormula:
    """`parts` joined by the connective class `node`, grouped to the right."""
    *init, result = parts
    for p in reversed(init):
        result = node(p, result)
    return result


# --- logic classes -----------------------------------------------------------

_SHAPES = ("all", "arity", "finite", "omega")

# The largest arity of a complete-tree class.  Its arity guard conjoins one
# clause per pair of successors, nested N(N-1)/2 deep, and `emit` recurses
# once per level: from 43 up that overflowed the stack, and 32 leaves room
# for callers deeper in the stack, such as a test runner.
MAX_ARITY = 32


@dataclass(frozen=True)
class LogicClass:
    """A quantified propositional logic determined by a class of trees.

    `mode` selects the object language ("int" or "s4"); `shape` selects the
    tree class: every tree, the complete tree of a fixed arity, all finite
    trees, or the single complete infinitary tree (intuitionistic only).
    """

    mode: str
    shape: str
    arity: int | None = None

    def __post_init__(self):
        if self.mode not in (INT, S4):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown tree class shape {self.shape!r}")
        if self.shape == "arity":
            if type(self.arity) is not int or not 1 <= self.arity <= MAX_ARITY:
                raise ValueError(f"arity classes need an arity from 1 to {MAX_ARITY}, got {self.arity!r}")
        elif self.arity is not None:
            raise ValueError(f"{self.shape!r} classes take no arity")
        if self.shape == "omega" and self.mode == S4:
            raise ValueError("the infinitary class is intuitionistic only")

    def __str__(self):
        base = "qpHt" if self.mode == INT else "s4t"
        if self.shape == "all":
            return base
        if self.shape == "arity":
            return f"{base}-{self.arity}"
        if self.shape == "finite":
            return f"{base}-fin"
        return f"{base}-omega"

    @classmethod
    def parse(cls, text: str) -> "LogicClass":
        """Parse names like qpHt, qpHt-fin, qpHt-omega, qpHt-2, s4t, s4t-fin."""
        head, sep, tail = text.partition("-")
        if head == "qpHt":
            mode = INT
        elif head == "s4t":
            mode = S4
        else:
            raise ValueError(f"unknown logic class {text!r}")
        if not sep:
            return cls(mode, "all")
        if tail == "fin":
            return cls(mode, "finite")
        if tail == "omega":
            return cls(mode, "omega")
        digits = tail.lstrip("0")
        if tail.isascii() and tail.isdigit() and digits:
            if len(digits) > len(str(MAX_ARITY)):  # int() refuses long digit strings
                raise ValueError(f"arity classes need an arity from 1 to {MAX_ARITY}, got {digits}")
            return cls(mode, "arity", int(digits))
        raise ValueError(f"unknown logic class {text!r}")


# --- translation --------------------------------------------------------------


def _setvar(name: str) -> str:
    return "X_" + name


def _upward_closed(setvar: str, u: str, v: str) -> MsoFormula:
    return All1(u, Impl(Member(u, setvar),
                        All1(v, Impl(PrefixLe(u, v), Member(v, setvar)))))


def _translate(f: Formula, x: str, mode: str, fresh: itertools.count) -> MsoFormula:
    if isinstance(f, Var):
        return Member(x, _setvar(f.name))
    if isinstance(f, Bottom):
        return Falsum()
    if isinstance(f, And):
        return Conj(_translate(f.left, x, mode, fresh),
                    _translate(f.right, x, mode, fresh))
    if isinstance(f, Or):
        return Disj(_translate(f.left, x, mode, fresh),
                    _translate(f.right, x, mode, fresh))
    if isinstance(f, Implies):
        if mode == S4:
            return Impl(_translate(f.left, x, mode, fresh),
                        _translate(f.right, x, mode, fresh))
        y = f"y_{next(fresh)}"
        return All1(y, Impl(Member(y, DOMAIN),
                            Impl(PrefixLe(x, y),
                                 Impl(_translate(f.left, y, mode, fresh),
                                      _translate(f.right, y, mode, fresh)))))
    if isinstance(f, Box):
        if mode != S4:
            raise LanguageError("box cannot be translated in intuitionistic mode")
        y = f"y_{next(fresh)}"
        return All1(y, Impl(PrefixLe(x, y), _translate(f.body, y, mode, fresh)))
    if isinstance(f, Diamond):
        if mode != S4:
            raise LanguageError("dia cannot be translated in intuitionistic mode")
        y = f"y_{next(fresh)}"
        return Ex1(y, Conj(PrefixLe(x, y), _translate(f.body, y, mode, fresh)))
    if isinstance(f, (Forall, Exists)):
        X = _setvar(f.var)
        if mode == S4:
            guard = Subset(X, DOMAIN)
        else:
            guard = Conj(Subset(X, DOMAIN),
                         _upward_closed(X, f"y_{next(fresh)}", f"y_{next(fresh)}"))
        body = _translate(f.body, x, mode, fresh)
        if isinstance(f, Forall):
            return All2(X, Impl(guard, body))
        return Ex2(X, Conj(guard, body))
    raise TypeError(f"not a formula node: {f!r}")


def translate_at(f: Formula, node: str, mode: str) -> MsoFormula:
    """The second-order formula expressing that `f` holds at `node`.

    In intuitionistic mode implications relativize their bound variable to
    T and set quantifiers carry an upward-closure guard; in S4 mode the
    implication is plain, box and diamond become bounded-free individual
    quantifiers along the prefix order, and set quantifiers range over all
    subsets of T.  Bound individual variables are drawn fresh (y_0, y_1,
    ...) per call.
    """
    if mode not in (INT, S4):
        raise ValueError(f"unknown mode {mode!r}")
    return _translate(f, node, mode, itertools.count())


# --- tree-class predicates ------------------------------------------------------


def _exactly(n: int, atom, witnesses: list[str], closing: str) -> MsoFormula:
    """There are exactly n nodes satisfying `atom`, via the usual expansion:
    n witnesses, pairwise distinct, and everything satisfying the atom is
    one of them."""
    parts = []
    for i in range(n):
        for j in range(i + 1, n):
            parts.append(Neg(NodeEq(witnesses[i], witnesses[j])))
    parts.extend(atom(w) for w in witnesses)
    parts.append(All1(closing, Impl(atom(closing),
                                    _fold(Disj, [NodeEq(closing, w) for w in witnesses]))))
    body = _fold(Conj, parts)
    for w in reversed(witnesses):
        body = Ex1(w, body)
    return body


def build_predicate(kind: str, setvar: str, n: int | None = None) -> MsoFormula:
    """Defining formulas for the tree classes and for proposition-hood.

    kind "tree": `setvar` contains the root and is closed under prefixes.
    kind "upward-closed": `setvar` is closed upward along the prefix order.
    kind "arity": every member has exactly `n` immediate successors.
    kind "finite": `setvar` has a lexicographically largest member.
    """
    if kind == "tree":
        return Conj(
            Member(ROOT, setvar),
            All1("x", Impl(Member("x", setvar),
                           All1("y", Impl(PrefixLe("y", "x"),
                                          Member("y", setvar))))),
        )
    if kind == "upward-closed":
        return _upward_closed(setvar, "x", "y")
    if kind == "finite":
        return Ex1("x", All1("y", Impl(Member("y", setvar), LexLe("y", "x"))))
    if kind == "arity":
        if type(n) is not int or n < 1:
            raise ValueError("the arity must be at least 1")
        witnesses = ["y"] if n == 1 else [f"y{i}" for i in range(1, n + 1)]
        count = _exactly(n, lambda t: ImmediateLe("x", t), witnesses, "z")
        return All1("x", Impl(Member("x", setvar), count))
    raise ValueError(f"unknown predicate kind {kind!r}")


# --- validity sentences ----------------------------------------------------------


def validity_sentence(f: Formula, cls: LogicClass) -> MsoFormula:
    """The closed sentence asserting that `f` is valid over `cls`'s trees:
    for every set T passing the class guard, the translation of `f` holds
    at the root."""
    if free_vars(f):
        raise OpenFormulaError(
            f"validity sentences need closed formulas, got {print_formula(f)!r}"
        )
    tree = build_predicate("tree", DOMAIN)
    if cls.shape == "all":
        guard = tree
    elif cls.shape == "arity":
        guard = Conj(tree, build_predicate("arity", DOMAIN, cls.arity))
    elif cls.shape == "finite":
        guard = Conj(tree, build_predicate("finite", DOMAIN))
    else:  # omega: T must be everything
        guard = All1("z", Member("z", DOMAIN))
    body = _translate(f, ROOT, cls.mode, itertools.count())
    return All2(DOMAIN, Impl(guard, body))


# --- emission ----------------------------------------------------------------

# Precedence contexts: 1 implication, 2 disjunction, 3 conjunction,
# 4 negation and quantifiers, 5 atoms.


def _emit(f: MsoFormula, ctx: int) -> str:
    if isinstance(f, Member):
        return f"{f.elem} in {f.setvar}"
    if isinstance(f, _Relation):
        return f"{f.left} {f.symbol} {f.right}"
    if isinstance(f, Falsum):
        return "false"
    if isinstance(f, Impl):
        s, prec = _emit(f.left, 2) + " => " + _emit(f.right, 1), 1
    elif isinstance(f, Disj):
        s, prec = _emit(f.left, 2) + " | " + _emit(f.right, 3), 2
    elif isinstance(f, Conj):
        s, prec = _emit(f.left, 3) + " & " + _emit(f.right, 4), 3
    elif isinstance(f, Neg):
        s, prec = "~" + _emit(f.body, 4), 4
    elif isinstance(f, _Quantifier):
        s = f"{f.keyword} {f.var}: " + _emit(f.body, 4)
        prec = 4
    else:
        raise TypeError(f"not a second-order formula node: {f!r}")
    return "(" + s + ")" if prec < ctx else s


def emit(f: MsoFormula) -> str:
    """Deterministic single-line rendering in the documented grammar."""
    return _emit(f, 1)


# --- finite evaluation ------------------------------------------------------------

_NODE, _SET = "node", "set"  # the two kinds of variable
_ATOMS = (Member, _Relation)


class _Nodes:
    """The nodes one call can name, by index: the domain's worlds first, in
    their sorted order, then each word outside the domain that the
    environment mentions.  A relation R that an atom uses is read off the
    words when the formula is compiled and lives as long as the program,
    which reads it in every call, from any thread, and never writes it:
    `below[j]` masks the i with i R j, `above[i]` the j."""

    def __init__(self, worlds):
        self.words = list(worlds)
        self.size = len(self.words)  # the domain is indices 0 .. size-1
        self.index = {w: i for i, w in enumerate(self.words)}
        self.tables = {}

    def add(self, word) -> int:
        i = self.index.setdefault(word, len(self.words))
        if i == len(self.words):
            self.words.append(word)
        return i

    def relation(self, kind) -> tuple[list[int], list[int]]:
        """The tables (below, above) of the relation named by the atom class `kind`."""
        if kind not in self.tables:
            words, n = self.words, len(self.words)
            order = sorted(range(n), key=words.__getitem__)  # each word after its prefixes
            links = list(zip(order[1:], order)) if kind is LexLe else []  # (j, i): i R j, nothing between
            for j in order if kind in (PrefixLe, ImmediateLe) else ():
                w, k = words[j], len(words[j]) - 1
                while k >= 0 and w[:k] not in self.index:  # the longest proper prefix that is a node
                    k -= 1
                if k >= 0 and (kind is PrefixLe or k == len(w) - 1):
                    links.append((j, self.index[w[:k]]))
            closed = kind is not ImmediateLe  # reflexive and transitive: follow the links
            below, above = [closed << j for j in range(n)], [closed << j for j in range(n)]
            for j, i in links:
                below[j] |= below[i] if closed else 1 << i
            for j, i in reversed(links):
                above[i] |= above[j] if closed else 1 << j
            self.tables[kind] = below, above
        return self.tables[kind]


def _operands(g, scope: dict) -> tuple[list[int] | None, str | None]:
    """The slots of an atom's two operands, or the error for the first one
    that names no variable of the kind its position needs."""
    if isinstance(g, Member):
        terms = ((g.elem, _NODE), (g.setvar, _SET))
    else:
        kind = _SET if isinstance(g, Subset) else _NODE
        terms = ((g.left, kind), (g.right, kind))
    slots = []
    for name, kind in terms:
        if kind is _NODE and name == ROOT:
            slots.append(0)
            continue
        bound = scope.get(name)
        if bound is None:
            which = "individual" if kind is _NODE else "set"
            return None, f"unbound {which} variable {name!r}"
        if bound[0] is not kind:
            return None, f"{name!r} is bound to a {bound[0]}, not a {kind}"
        slots.append(bound[1])
    return slots, None


def _join(kind, left, right, k):
    """Compile a binary connective over two compiled operands: bitwise when
    both are masks, else short-circuited as the reference walk is."""
    (l, lvec), (r, rvec) = left, right
    if lvec and rvec:
        return ((lambda s: l(s) & r(s)) if kind is Conj else (lambda s: l(s) | r(s)) if kind is Disj
                else (lambda s: ~l(s) | r(s))), True
    if lvec or rvec:  # a mask operand gives its bit at s[k]
        l, r = [(lambda s, run=run: run(s) >> s[k] & 1) if vec else run for run, vec in (left, right)]
    return ((lambda s: l(s) and r(s)) if kind is Conj else (lambda s: l(s) or r(s)) if kind is Disj
            else (lambda s: not l(s) or r(s))), False


def _compile(g: MsoFormula, scope: dict, slots: list, nodes: _Nodes, k):
    """Compile `g` to a closure over a slot list `s`, its one argument
    (`scope` maps each variable to its kind and slot, and each quantifier
    appends its slot to `slots`), and say whether it is vector-valued: in
    the scope of individual slot `k`, a subformula with no quantifier and no
    failing atom gives the mask of the values of s[k] where it holds, never reading s[k]."""
    if isinstance(g, _ATOMS):
        operands, error = _operands(g, scope)
        if error is not None:
            # Raised only when reached: `false & x in X` is false, x unbound.
            def fail(s):
                raise UnboundVariableError(error)

            return fail, False
        a, b = operands
        if isinstance(g, Subset):
            test = lambda s: not s[a] & ~s[b]
        elif isinstance(g, Member):
            if a == k:
                return (lambda s: s[b]), True
            test = lambda s: s[b] >> s[a] & 1
        else:
            below, above = nodes.relation(type(g))
            if a == k == b:
                diagonal = -(below[0] & 1)  # each relation is reflexive or irreflexive
                return (lambda s: diagonal), True
            if a == k:
                return (lambda s: below[s[b]]), True
            if b == k:
                return (lambda s: above[s[a]]), True
            test = lambda s: below[s[b]] >> s[a] & 1
        return (test, False) if k is None else ((lambda s: -test(s)), True)
    if isinstance(g, Falsum):
        return (lambda s: 0), k is not None
    if isinstance(g, _Connective):
        left = _compile(g.left, scope, slots, nodes, k)
        return _join(type(g), left, _compile(g.right, scope, slots, nodes, k), k)
    if isinstance(g, Neg):
        body, vec = _compile(g.body, scope, slots, nodes, k)
        return ((lambda s: ~body(s)), True) if vec else ((lambda s: not body(s)), False)
    if not isinstance(g, _Quantifier):
        raise TypeError(f"not a second-order formula node: {g!r}")
    every, j, guard = isinstance(g, (All1, All2)), len(slots), None
    slots.append(0)
    if isinstance(g, (All2, Ex2)):
        body, vec = _compile(g.body, {**scope, g.var: (_SET, j)}, slots, nodes, None)
        values = range(1 << nodes.size)
    else:
        # The leading mask-valued antecedents of all1, or conjuncts of ex1,
        # give the mask of the worlds the loop visits.
        scope, joint, h = {**scope, g.var: (_NODE, j)}, (Impl if every else Conj), g.body
        while isinstance(h, joint):
            left = _compile(h.left, scope, slots, nodes, j)
            if not left[1]:
                body, vec = _join(joint, left, _compile(h.right, scope, slots, nodes, j), j)
                break
            guard = left if guard is None else _join(Conj, guard, left, j)
            h = h.right
        else:
            body, vec = _compile(h, scope, slots, nodes, j)
        values, full = range(nodes.size), (1 << nodes.size) - 1
    domain = guard[0] if guard else (lambda s: -1)
    if vec:  # the whole body is one mask
        return ((lambda s: not full & domain(s) & ~body(s)) if every
                else (lambda s: full & domain(s) & body(s) != 0)), False

    def each(s):
        d = domain(s)
        for v in values:
            if d >> v & 1:
                s[j] = v
                if (not body(s)) is every:  # a counterexample to all, a witness to ex
                    return not every
        return every

    return each, False


def eval_finite(f: MsoFormula, domain: Model, env: dict) -> bool:
    """Evaluate `f` over a finite tree model.

    Individual quantifiers range over the model's worlds, set quantifiers
    over all of their subsets.  `env` assigns worlds to free individual
    variables and sets of worlds to free set variables; `root` always
    denotes the model's root.  Raises UnboundVariableError when a free
    variable that the evaluation reaches is missing from `env`.

    `f` is compiled into closures over a list of slots, one per variable: a
    node is held as its index in the sorted worlds and a set as a bitmask;
    words of `env` outside the domain are numbered after the worlds and are
    never the value of a quantifier.  `f` is compiled on the first call for
    a key (the domain's worlds, the names and kinds of `env` in order, and
    its words outside the domain), and the program stays on `f` until `f`
    is freed or a call with another key replaces it.  Each call fills its
    own slot list, so calls may nest or run in threads.
    """
    if domain.kind != "tree":
        raise ValueError("finite evaluation is defined over tree models")
    nodes = _Nodes(domain.worlds)
    s = [nodes.index[domain.root]]  # slot 0 holds `root`
    scope = {}
    for name, value in env.items():
        if isinstance(value, (set, frozenset)):
            mask = 0
            for w in value:
                mask |= 1 << nodes.add(tuple(w))
            scope[name] = (_SET, len(s))
            s.append(mask)
        elif isinstance(value, tuple):
            scope[name] = (_NODE, len(s))
            s.append(nodes.add(value))
        else:
            raise ValueError(
                f"environment entry {name!r} must be a node (tuple) or a set of nodes"
            )
    # all that compiling reads: the domain size, the words, and the kind and slot of each name
    key, cached = (nodes.size, nodes.words, scope), getattr(f, "_program", None)
    if cached is None or cached[0] != key:
        slots = list(s)
        cached = key, (_compile(f, scope, slots, nodes, None)[0], len(slots))
        object.__setattr__(f, "_program", cached)  # not a field: ==, hash and repr ignore it
    run, width = cached[1]
    return bool(run(s + [0] * (width - len(s))))
