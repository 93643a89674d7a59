"""Forcing and extensions for both logics.

A formula is first compiled into its interned node table
(`formula.compile_formula`), and evaluation computes the extension of each
node bottom-up as a bit vector.  Extensions are memoized under the node id
plus the masks currently assigned to that node's free variables, so
quantifier nesting does not re-evaluate closed parts, equal subformulas are
evaluated once, and no formula is hashed while evaluating.

Evaluation runs on a `kripke.Forest`: structures of one size side by side
in one bit vector, a single model being a forest of one component.  The
order enters only through `Forest.down`, the worlds with a successor in a
set, which `->` (intuitionistic), `box` and `dia` need.  So one evaluation
decides a closed formula on every structure of a size class at once; that
is how `search` uses it.

Propositional quantifiers range over all upward-closed subsets of the
worlds in intuitionistic mode, over all subsets in S4 mode; the empty and
the full set are always among them.  On a forest they range over the
zipped propositions of `Forest.propositions`: proposition k is the union
of proposition k mod |U_i| of each component i, where U_i lists that
component's own propositions.  That is exact, by locality.  Truth at a
world depends only on the worlds above it and the valuation there, and a
world's successors all lie in its own component; so each clause computes,
on component i, what it would compute on structure i alone with every
variable assigned its trace there.  The trace of proposition k on
component i is U_i[k mod |U_i|], and as k runs through all the zipped
propositions that runs through all of U_i, repeats aside, which change no
intersection and no union.  By induction, the slice of every extension on
component i is the extension on structure i alone.

A quantifier whose variable occurs in its body in one polarity only, or
not at all, is decided by the empty or the full proposition: `forall p A`
is A[p:=empty] when p occurs only positively and A[p:=full] when only
negatively, and `exists p A` is the mirror image.  This holds because
`->` is antitone in its antecedent and monotone in its consequent, in both
readings, and `&`, `|`, `box`, `dia` and the quantifiers over other
variables are monotone; so for a positive-only p, U included in U' gives
ext(A[p:=U]) included in ext(A[p:=U']), and the intersection over all U,
the extension of `forall p A`, is ext(A[p:=empty]).  Only the remaining
quantifiers enumerate propositions; a forest zips its list on the first
evaluation in which one occurs, and keeps it for later ones.

Every public function takes either a formula or its compiled node table;
passing the table lets a caller that evaluates one formula on many models
compile it only once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .formula import (
    AND,
    BOT,
    BOX,
    EXISTS,
    FORALL,
    FULL,
    IMPLIES,
    INT,
    OR,
    S4,
    VAR,
    Formula,
    LanguageError,
    NodeTable,
    UnboundVariableError,
    compile_formula,
)
from .kripke import Forest, Model


@dataclass(frozen=True)
class Extension:
    """The set of worlds at which a formula holds in a fixed model."""

    formula: Formula
    worlds: frozenset


def _compiled(f: Formula | NodeTable) -> NodeTable:
    return f if isinstance(f, NodeTable) else compile_formula(f)


def _extension_mask(forest: Forest, t: NodeTable, s4: bool) -> int:
    val = dict(forest.valuation)
    for v in t.free[t.root]:
        if v not in val:
            raise UnboundVariableError(f"no proposition assigned to variable {v!r}")
    ops, args, fixed = t.ops, t.args, t.fixed
    # itemgetter(*names)(val) is the memo key part of a node with free
    # variables: one mask, or a tuple of masks for two or more.
    getters = [itemgetter(*names) if names else None for names in t.free]
    full, down = forest.full, forest.down
    propositions = forest.propositions(s4) if t.quantified else ()
    memo = {}
    unset = object()

    def ext(i: int) -> int:
        op = ops[i]
        if op == VAR:
            return val[args[i]]
        if op == BOT:
            return 0
        get = getters[i]
        key = i if get is None else (i, get(val))
        result = memo.get(key)
        if result is not None:
            return result
        a = args[i]
        if op == AND:
            result = ext(a[0]) & ext(a[1])
        elif op == OR:
            result = ext(a[0]) | ext(a[1])
        elif op == IMPLIES:
            left = ext(a[0])
            right = ext(a[1])
            if s4:
                result = (full & ~left) | right
            else:
                # h is in the extension iff no successor of h satisfies the
                # antecedent without the consequent.
                result = full & ~down(left & ~right)
        elif op == FORALL or op == EXISTS:
            p, body = a
            saved = val.get(p, unset)
            fix = fixed[i]
            if fix is not None:
                val[p] = full if fix == FULL else 0
                result = ext(body)
            elif op == FORALL:
                result = full
                for mask in propositions:
                    val[p] = mask
                    result &= ext(body)
                    if not result:
                        break
            else:
                result = 0
                for mask in propositions:
                    val[p] = mask
                    result |= ext(body)
                    if result == full:
                        break
            if saved is unset:
                del val[p]
            else:
                val[p] = saved
        elif op == BOX:
            result = full & ~down(full & ~ext(a[0]))
        else:
            result = down(ext(a[0]))
        memo[key] = result
        return result

    try:
        return ext(t.root)
    finally:
        # `ext` refers to itself through its closure; break that cycle so
        # the memo is freed now rather than by the cyclic collector.
        ext = None


def forest_extension(forest: Forest, f: Formula | NodeTable, mode: str) -> int:
    """The extension of `f` on every component of `forest` at once, as a
    mask over the forest's worlds."""
    mask = _extension_mask(forest, _compiled(f), s4=mode == S4)
    if mode == INT and forest.down(forest.full & ~mask) & mask:
        raise AssertionError("intuitionistic extension not upward closed")
    return mask


def _model_table(m: Model, f: Formula | NodeTable, mode: str) -> NodeTable:
    if m.mode != mode:
        raise ValueError(f"model is in {m.mode!r} mode, expected {mode!r}")
    t = _compiled(f)
    if mode == INT and t.modal:
        raise LanguageError("box/dia encountered in intuitionistic evaluation")
    return t


def _model_mask(m: Model, t: NodeTable) -> int:
    return forest_extension(Forest.of([m]), t, m.mode)


def extension_int(m: Model, f: Formula | NodeTable) -> Extension:
    """Worlds at which `f` holds intuitionistically; always upward closed."""
    t = _model_table(m, f, INT)
    return Extension(t.formula, m._set_of(_model_mask(m, t)))


def extension_s4(m: Model, f: Formula | NodeTable) -> Extension:
    """Worlds at which `f` holds under the S4 reading."""
    t = _model_table(m, f, S4)
    return Extension(t.formula, m._set_of(_model_mask(m, t)))


def forces_int(m: Model, world, f: Formula | NodeTable) -> bool:
    """Does `f` hold at `world` in the intuitionistic model `m`?"""
    t = _model_table(m, f, INT)
    i = m.index_of(world)
    return bool(_model_mask(m, t) >> i & 1)


def forces_s4(m: Model, world, f: Formula | NodeTable) -> bool:
    """Does `f` hold at `world` in the S4 model `m`?"""
    t = _model_table(m, f, S4)
    i = m.index_of(world)
    return bool(_model_mask(m, t) >> i & 1)


def validates(m: Model, f: Formula | NodeTable) -> bool:
    """Truth at the root, under the model's own mode."""
    if m.mode == INT:
        return forces_int(m, m.root, f)
    return forces_s4(m, m.root, f)
