"""The packaged example suite: the classic separating formulas, the models
that witness the separations, and a runner producing pass/fail verdicts.

The fixtures:

* QEM, the quantified excluded middle `forall p (p | ~p)`, which holds at
  exactly the leaf worlds of any finite model;
* its negations NOT_QEM and NOT_NOT_QEM, which separate finite trees from
  complete infinite trees;
* WEM_TO_LIN, `forall p (~p | ~~p) -> forall p forall q ((p->q) | (q->p))`,
  which holds on every tree but fails on the four-element diamond poset.
"""

from __future__ import annotations

from .embedding import t_embed
from .formula import INT, S4, parse_formula
from .kripke import Model
from .search import SearchBounds, bounded_validity, enumerate_trees
from .semantics import extension_int, validates

QEM = parse_formula("forall p (p | ~p)")
NOT_QEM = parse_formula("~(forall p (p | ~p))")
NOT_NOT_QEM = parse_formula("~~(forall p (p | ~p))")
WEM_TO_LIN = parse_formula(
    "forall p (~p | ~~p) -> forall p forall q ((p -> q) | (q -> p))"
)


def diamond_model(mode: str = INT, valuation=None) -> Model:
    """The four-element diamond: g below a and b, both below t."""
    return Model.poset(
        ["g", "a", "b", "t"],
        [["g", "a"], ["g", "b"], ["a", "t"], ["b", "t"]],
        valuation or {},
        mode,
    )


def unit_tree(mode: str = INT) -> Model:
    return Model.tree([()], {}, mode)


def _no_countermodel(f, max_worlds, mode):
    bounds = SearchBounds(max_worlds, "finite-trees")
    return bounded_validity(f, bounds, mode).countermodel is None


def _leaf_extension_ok(max_worlds: int) -> bool:
    for n in range(1, max_worlds + 1):
        for m in enumerate_trees(n):
            if extension_int(m, QEM) != m.leaves():
                return False
    return True


def run_separation_suite() -> list[tuple[str, bool]]:
    """Re-run the packaged separations; each entry is (name, passed)."""
    unit_refutes_not_qem = bounded_validity(
        NOT_QEM, SearchBounds(3, "finite-trees")
    ).countermodel
    checks = [
        ("wem-to-lin-refuted-by-diamond", not validates(diamond_model(), WEM_TO_LIN)),
        ("wem-to-lin-holds-on-trees-to-7", _no_countermodel(WEM_TO_LIN, 7, INT)),
        (
            "not-qem-refuted-by-unit-tree",
            unit_refutes_not_qem is not None
            and len(unit_refutes_not_qem.worlds) == 1,
        ),
        ("not-not-qem-holds-on-trees-to-7", _no_countermodel(NOT_NOT_QEM, 7, INT)),
        ("qem-extension-is-leaf-set-to-6", _leaf_extension_ok(6)),
        (
            "s4-image-wem-to-lin-refuted-by-diamond",
            not validates(diamond_model(S4), t_embed(WEM_TO_LIN)),
        ),
        (
            "s4-image-wem-to-lin-holds-on-trees-to-5",
            _no_countermodel(t_embed(WEM_TO_LIN), 5, S4),
        ),
        (
            "s4-image-not-qem-refuted-by-unit-tree",
            not validates(unit_tree(S4), t_embed(NOT_QEM)),
        ),
        (
            "s4-image-not-not-qem-holds-on-trees-to-5",
            _no_countermodel(t_embed(NOT_NOT_QEM), 5, S4),
        ),
    ]
    return checks
