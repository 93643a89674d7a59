"""Translation of intuitionistic formulas into S4 by guarding atoms and
implications with box, plus the valuation constructions that make the
translation's correctness checkable model by model.
"""

from __future__ import annotations

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
    Var,
    compile_formula,
    print_formula,
)
from .kripke import Model
from .semantics import extension_s4, validates


def t_embed(f: Formula) -> Formula:
    """Map an intuitionistic formula to its S4 image.

    Atoms and falsum are boxed, implications are boxed after translating
    both sides, conjunction, disjunction and the propositional quantifiers
    commute with the translation.
    """
    if isinstance(f, Var):
        return Box(f)
    if isinstance(f, Bottom):
        return Box(f)
    if isinstance(f, And):
        return And(t_embed(f.left), t_embed(f.right))
    if isinstance(f, Or):
        return Or(t_embed(f.left), t_embed(f.right))
    if isinstance(f, Implies):
        return Box(Implies(t_embed(f.left), t_embed(f.right)))
    if isinstance(f, Forall):
        return Forall(f.var, t_embed(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, t_embed(f.body))
    if isinstance(f, (Box, Diamond)):
        raise LanguageError("only intuitionistic formulas can be embedded")
    raise TypeError(f"not a formula node: {f!r}")


def box_closure_valuation(m: Model) -> Model:
    """Replace every valuation image by the worlds all of whose successors
    lie in it (the interior under the order).  The resulting images are
    upward closed, and truth of embedded formulas is unaffected."""
    if m.mode != S4:
        raise ValueError("box closure applies to S4 models")
    closed = {
        var: extension_s4(m, Box(Var(var))) for var in m.valuation
    }
    return m.with_valuation(closed)


def check_embedding_pair(m: Model, f: Formula) -> tuple[bool, bool]:
    """Evaluate a closed intuitionistic formula and its S4 image side by side.

    Returns (intuitionistic verdict on `m`, S4 verdict of the image on the
    same structure with the same valuation).  The two components agree on
    every finite model.
    """
    if m.mode != INT:
        raise ValueError("expected an intuitionistic model")
    t = compile_formula(f)
    if t.modal:
        raise LanguageError("expected an intuitionistic formula")
    if t.free:
        raise OpenFormulaError(
            f"expected a closed formula, got {print_formula(f)!r}"
        )
    return validates(m, t), validates(m.with_mode(S4), t_embed(f))
