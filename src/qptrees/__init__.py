"""Model checking, bounded countermodel search, and logic translations for
propositionally quantified intuitionistic and S4 logics over finite trees
and posets, with exact evaluation of quantified Goedel-Dummett logics."""

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
    FormulaSyntaxError,
    Implies,
    LanguageError,
    NodeTable,
    OpenFormulaError,
    Or,
    UnboundVariableError,
    Var,
    compile_formula,
    free_vars,
    is_modal,
    neg,
    parse_formula,
    print_formula,
)
from .kripke import (
    Model,
    ModelError,
    chain,
    dump_model,
    enumerate_subsets,
    enumerate_upsets,
    load_model,
    upward_closure,
)
from .semantics import (
    extension_int,
    extension_s4,
    forces_int,
    forces_s4,
    validates,
)
from .embedding import box_closure_valuation, check_embedding_pair, t_embed
from .mso import LogicClass, build_predicate, emit, eval_finite, translate_at, validity_sentence
from .godel import (
    chain_correspondence,
    evenly_spaced,
    godel_eval,
    make_truth_values,
    refuting_valuation,
)
from .search import SearchBounds, SearchOutcome, bounded_validity, enumerate_posets, enumerate_trees

__version__ = "0.1.0"
