"""Forcing and extensions for both logics.

A formula is first compiled into its interned node table
(`formula.compile_formula`), and evaluation computes the extension of each
node bottom-up as a bit vector into one list indexed by node id.  A
quantifier assigns each proposition to its renamed-apart variable and
re-runs only its own schedule, so parts that do not use that variable are
not re-evaluated in its loop, and no formula is hashed while evaluating.

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

from .formula import (
    AND,
    BOX,
    DIA,
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
    for v in t.free:
        if v not in val:
            raise UnboundVariableError(f"no proposition assigned to variable {v!r}")
    ops, args, fixed, schedules = t.ops, t.args, t.fixed, t.schedules
    full, down = forest.full, forest.down
    propositions = forest.propositions(s4) if t.quantified else ()
    values = [0] * len(ops)  # the extension of each node; BOT's stays 0

    def run(schedule):
        for i in schedule:
            op = ops[i]
            if op == VAR:
                values[i] = val[args[i]]
            elif op == AND:
                a, b = args[i]
                values[i] = values[a] & values[b]
            elif op == OR:
                a, b = args[i]
                values[i] = values[a] | values[b]
            elif op == IMPLIES:
                a, b = args[i]
                if s4:
                    values[i] = (full & ~values[a]) | values[b]
                else:
                    # h is in the extension iff no successor of h satisfies
                    # the antecedent without the consequent.
                    values[i] = full & ~down(values[a] & ~values[b])
            elif op == FORALL or op == EXISTS:
                p, body = args[i]
                tried = propositions if fixed[i] is None else (full if fixed[i] == FULL else 0,)
                if op == FORALL:
                    result = full
                    for mask in tried:
                        val[p] = mask
                        run(schedules[i])
                        result &= values[body]
                        if not result:
                            break
                else:
                    result = 0
                    for mask in tried:
                        val[p] = mask
                        run(schedules[i])
                        result |= values[body]
                        if result == full:
                            break
                values[i] = result
            elif op == BOX:
                values[i] = full & ~down(full & ~values[args[i][0]])
            elif op == DIA:
                values[i] = down(values[args[i][0]])

    try:
        run(t.top)
        return values[t.root]
    finally:
        # `run` refers to itself through its closure; break that cycle so
        # the value list is freed now rather than by the cyclic collector.
        run = None


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
