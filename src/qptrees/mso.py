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
class Subset:
    left: str
    right: str


@dataclass(frozen=True)
class PrefixLe:
    left: str
    right: str


@dataclass(frozen=True)
class ImmediateLe:
    """y is an immediate successor of x: x <= y, x != y, nothing strictly between."""

    left: str
    right: str


@dataclass(frozen=True)
class LexLe:
    left: str
    right: str


@dataclass(frozen=True)
class NodeEq:
    left: str
    right: str


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class Conj:
    left: "MsoFormula"
    right: "MsoFormula"


@dataclass(frozen=True)
class Disj:
    left: "MsoFormula"
    right: "MsoFormula"


@dataclass(frozen=True)
class Impl:
    left: "MsoFormula"
    right: "MsoFormula"


@dataclass(frozen=True)
class Neg:
    body: "MsoFormula"


@dataclass(frozen=True)
class All1:
    var: str
    body: "MsoFormula"


@dataclass(frozen=True)
class Ex1:
    var: str
    body: "MsoFormula"


@dataclass(frozen=True)
class All2:
    var: str
    body: "MsoFormula"


@dataclass(frozen=True)
class Ex2:
    var: str
    body: "MsoFormula"


MsoFormula = (
    Member | Subset | PrefixLe | ImmediateLe | LexLe | NodeEq | Falsum
    | Conj | Disj | Impl | Neg | All1 | Ex1 | All2 | Ex2
)

_QUANTIFIERS = {All1: "all1", Ex1: "ex1", All2: "all2", Ex2: "ex2"}


def _conj(parts) -> MsoFormula:
    parts = list(parts)
    result = parts[-1]
    for p in reversed(parts[:-1]):
        result = Conj(p, result)
    return result


def _disj(parts) -> MsoFormula:
    parts = list(parts)
    result = parts[-1]
    for p in reversed(parts[:-1]):
        result = Disj(p, result)
    return result


# --- logic classes -----------------------------------------------------------

_SHAPES = ("all", "arity", "finite", "omega")


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
            if not isinstance(self.arity, int) or self.arity < 1:
                raise ValueError("arity classes need an arity of at least 1")
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
        if tail.isdigit() and int(tail) >= 1:
            return cls(mode, "arity", int(tail))
        raise ValueError(f"unknown logic class {text!r}")


# --- translation --------------------------------------------------------------


class _Fresh:
    """Per-translation allocator for individual variables y_0, y_1, ..."""

    def __init__(self):
        self.count = 0

    def next(self) -> str:
        name = f"y_{self.count}"
        self.count += 1
        return name


def _setvar(name: str) -> str:
    return "X_" + name


def _upward_closed(setvar: str, u: str, v: str) -> MsoFormula:
    return All1(u, Impl(Member(u, setvar),
                        All1(v, Impl(PrefixLe(u, v), Member(v, setvar)))))


def _translate(f: Formula, x: str, mode: str, fresh: _Fresh) -> MsoFormula:
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
        y = fresh.next()
        return All1(y, Impl(Member(y, DOMAIN),
                            Impl(PrefixLe(x, y),
                                 Impl(_translate(f.left, y, mode, fresh),
                                      _translate(f.right, y, mode, fresh)))))
    if isinstance(f, Box):
        if mode != S4:
            raise LanguageError("box cannot be translated in intuitionistic mode")
        y = fresh.next()
        return All1(y, Impl(PrefixLe(x, y), _translate(f.body, y, mode, fresh)))
    if isinstance(f, Diamond):
        if mode != S4:
            raise LanguageError("dia cannot be translated in intuitionistic mode")
        y = fresh.next()
        return Ex1(y, Conj(PrefixLe(x, y), _translate(f.body, y, mode, fresh)))
    if isinstance(f, (Forall, Exists)):
        X = _setvar(f.var)
        if mode == S4:
            guard = Subset(X, DOMAIN)
        else:
            guard = Conj(Subset(X, DOMAIN),
                         _upward_closed(X, fresh.next(), fresh.next()))
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
    return _translate(f, node, mode, _Fresh())


# --- tree-class predicates ------------------------------------------------------

PREDICATE_KINDS = ("tree", "upward-closed", "arity", "finite")


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
                                    _disj([NodeEq(closing, w) for w in witnesses]))))
    body = _conj(parts)
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
        if not isinstance(n, int) or n < 1:
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
    body = _translate(f, ROOT, cls.mode, _Fresh())
    return All2(DOMAIN, Impl(guard, body))


# --- emission ----------------------------------------------------------------

# Precedence contexts: 1 implication, 2 disjunction, 3 conjunction,
# 4 negation and quantifiers, 5 atoms.


def _emit(f: MsoFormula, ctx: int) -> str:
    if isinstance(f, Member):
        return f"{f.elem} in {f.setvar}"
    if isinstance(f, Subset):
        return f"{f.left} sub {f.right}"
    if isinstance(f, PrefixLe):
        return f"{f.left} <= {f.right}"
    if isinstance(f, ImmediateLe):
        return f"{f.left} <=1 {f.right}"
    if isinstance(f, LexLe):
        return f"{f.left} lex<= {f.right}"
    if isinstance(f, NodeEq):
        return f"{f.left} = {f.right}"
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
    elif isinstance(f, (All1, Ex1, All2, Ex2)):
        s = f"{_QUANTIFIERS[type(f)]} {f.var}: " + _emit(f.body, 4)
        prec = 4
    else:
        raise TypeError(f"not a second-order formula node: {f!r}")
    return "(" + s + ")" if prec < ctx else s


def emit(f: MsoFormula) -> str:
    """Deterministic single-line rendering in the documented grammar."""
    return _emit(f, 1)


# --- finite evaluation ------------------------------------------------------------


def eval_finite(f: MsoFormula, domain: Model, env: dict) -> bool:
    """Evaluate `f` over a finite tree model.

    Individual quantifiers range over the model's worlds, set quantifiers
    over all of their subsets.  `env` assigns worlds to free individual
    variables and sets of worlds to free set variables; `root` always
    denotes the model's root.  Raises UnboundVariableError when a free
    variable is missing from `env`.
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
    subsets_cache: list[frozenset] | None = None

    def all_subsets() -> list[frozenset]:
        nonlocal subsets_cache
        if subsets_cache is None:
            subsets_cache = [
                frozenset(w for i, w in enumerate(worlds) if mask >> i & 1)
                for mask in range(1 << len(worlds))
            ]
        return subsets_cache

    def node(term: str):
        if term == ROOT:
            return domain.root
        try:
            value = scope[term]
        except KeyError:
            raise UnboundVariableError(f"unbound individual variable {term!r}") from None
        if not isinstance(value, tuple):
            raise UnboundVariableError(f"{term!r} is bound to a set, not a node")
        return value

    def collection(term: str) -> frozenset:
        try:
            value = scope[term]
        except KeyError:
            raise UnboundVariableError(f"unbound set variable {term!r}") from None
        if not isinstance(value, frozenset):
            raise UnboundVariableError(f"{term!r} is bound to a node, not a set")
        return value

    def run(g: MsoFormula) -> bool:
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
