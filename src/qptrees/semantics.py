"""Forcing and extensions for both logics.

A formula is first compiled into its interned node table
(`formula.compile_formula`), and evaluation computes the extension of each
node bottom-up as a bit vector.  Extensions are memoized under the node id
plus the masks currently assigned to that node's free variables, so
quantifier nesting does not re-evaluate closed parts, equal subformulas are
evaluated once, and no formula is hashed while evaluating.

Propositional quantifiers range over all upward-closed subsets of the
worlds in intuitionistic mode, over all subsets in S4 mode; the empty and
the full set are always among them.  A quantifier whose variable occurs in
its body in one polarity only, or not at all, is decided by one of those
two: `forall p A` is A[p:=empty] when p occurs only positively and
A[p:=full] when only negatively, and `exists p A` is the mirror image.
This holds because `->` is antitone in its antecedent and monotone in its
consequent, in both readings, and `&`, `|`, `box`, `dia` and the
quantifiers over other variables are monotone; so for a positive-only p,
U included in U' gives ext(A[p:=U]) included in ext(A[p:=U']), and the
intersection over all U, the extension of `forall p A`, is
ext(A[p:=empty]).  Only the remaining quantifiers enumerate propositions;
their list is fetched once per evaluation, and only when one occurs.

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
from .kripke import Model


@dataclass(frozen=True)
class Extension:
    """The set of worlds at which a formula holds in a fixed model."""

    formula: Formula
    worlds: frozenset


def _compiled(f: Formula | NodeTable) -> NodeTable:
    return f if isinstance(f, NodeTable) else compile_formula(f)


def _extension_mask(m: Model, t: NodeTable, s4: bool) -> int:
    val = dict(m._val_masks)
    for v in t.free[t.root]:
        if v not in val:
            raise UnboundVariableError(f"no proposition assigned to variable {v!r}")
    ops, args, fixed = t.ops, t.args, t.fixed
    # itemgetter(*names)(val) is the memo key part of a node with free
    # variables: one mask, or a tuple of masks for two or more.
    getters = [itemgetter(*names) if names else None for names in t.free]
    up, full = m._up, m._full
    worlds = range(len(m.worlds))
    propositions = ()
    if t.quantified:
        propositions = m._subset_masks() if s4 else m._upset_masks()
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
                bad = left & ~right
                result = 0
                for w in worlds:
                    if not up[w] & bad:
                        result |= 1 << w
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
            b = ext(a[0])
            result = 0
            for w in worlds:
                if not up[w] & ~b:
                    result |= 1 << w
        else:
            b = ext(a[0])
            result = 0
            for w in worlds:
                if up[w] & b:
                    result |= 1 << w
        memo[key] = result
        return result

    try:
        return ext(t.root)
    finally:
        # `ext` refers to itself through its closure; break that cycle so
        # the memo is freed now rather than by the cyclic collector.
        ext = None


def _require_mode(m: Model, mode: str):
    if m.mode != mode:
        raise ValueError(f"model is in {m.mode!r} mode, expected {mode!r}")


def _int_table(m: Model, f: Formula | NodeTable) -> NodeTable:
    _require_mode(m, INT)
    t = _compiled(f)
    if t.modal:
        raise LanguageError("box/dia encountered in intuitionistic evaluation")
    return t


def _int_mask(m: Model, t: NodeTable) -> int:
    mask = _extension_mask(m, t, s4=False)
    if m._closure(mask) != mask:
        raise AssertionError("intuitionistic extension not upward closed")
    return mask


def extension_int(m: Model, f: Formula | NodeTable) -> Extension:
    """Worlds at which `f` holds intuitionistically; always upward closed."""
    t = _int_table(m, f)
    return Extension(t.formula, m._set_of(_int_mask(m, t)))


def extension_s4(m: Model, f: Formula | NodeTable) -> Extension:
    """Worlds at which `f` holds under the S4 reading."""
    _require_mode(m, S4)
    t = _compiled(f)
    return Extension(t.formula, m._set_of(_extension_mask(m, t, s4=True)))


def forces_int(m: Model, world, f: Formula | NodeTable) -> bool:
    """Does `f` hold at `world` in the intuitionistic model `m`?"""
    t = _int_table(m, f)
    i = m.index_of(world)
    return bool(_int_mask(m, t) >> i & 1)


def forces_s4(m: Model, world, f: Formula | NodeTable) -> bool:
    """Does `f` hold at `world` in the S4 model `m`?"""
    _require_mode(m, S4)
    t = _compiled(f)
    i = m.index_of(world)
    return bool(_extension_mask(m, t, s4=True) >> i & 1)


def validates(m: Model, f: Formula | NodeTable) -> bool:
    """Truth at the root, under the model's own mode."""
    if m.mode == INT:
        return forces_int(m, m.root, f)
    return forces_s4(m, m.root, f)
