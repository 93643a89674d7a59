"""The oracles stay independent of the code they check.

`mso.eval_finite` cross-checks the forcing semantics, and Goedel
evaluation cross-checks it on chains, so neither may reach into the
semantics, the search, the embedding, or the order and proposition
machinery inside `Model`: `eval_finite` reads a model's kind, worlds and
root, and nothing else.  Nor do they read the compiled node tables that the
semantics evaluates: they work on syntax trees, and only
`chain_correspondence`, which hands a table to the semantics, compiles one.
"""

import ast
from pathlib import Path

import pytest

import qptrees.godel
import qptrees.mso
from qptrees.formula import INT, S4, OpenFormulaError, parse_formula
from qptrees.godel import evenly_spaced, godel_eval, refuting_valuation
from qptrees.kripke import Model
from qptrees.mso import LogicClass, build_predicate, eval_finite, translate_at, validity_sentence
from qptrees.search import enumerate_trees

CHECKED = {"semantics", "search", "embedding"}


def module_tree(module):
    return ast.parse(Path(module.__file__).read_text())


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            if node.module is None:  # from . import x
                yield from (alias.name for alias in node.names)


def names_in(tree):
    """The names a piece of code mentions: variables, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_mso_names_no_node_table():
    assert not {"compile_formula", "NodeTable"} & set(names_in(module_tree(qptrees.mso)))


def test_godel_compiles_a_table_only_for_the_chain():
    tree = module_tree(qptrees.godel)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            continue
        compiles = "compile_formula" in set(names_in(node))
        assert compiles == (getattr(node, "name", None) == "chain_correspondence"), ast.dump(node)[:80]


def test_the_oracles_build_no_node_table(monkeypatch):
    def refuse(entries):
        raise AssertionError("a node table was built")

    monkeypatch.setattr("qptrees.formula._intern", refuse)
    closed = parse_formula("forall p (~p | ~~p) -> forall q exists p (p -> q)")
    for cls in ("qpHt", "qpHt-2", "qpHt-fin", "qpHt-omega"):
        validity_sentence(closed, LogicClass.parse(cls))
    validity_sentence(parse_formula("forall p (dia box p -> p)", S4), LogicClass.parse("s4t"))
    with pytest.raises(OpenFormulaError):
        validity_sentence(parse_formula("forall p (p | q)"), LogicClass.parse("qpHt"))
    translate_at(parse_formula("forall p (p | q)"), "x", INT)
    values = evenly_spaced(2)
    assert godel_eval({"q": 0}, parse_formula("forall p (p | q)"), values) == 0
    assert refuting_valuation(parse_formula("p | ~p"), values) is not None
    assert refuting_valuation(closed, values) is None


def test_mso_imports_nothing_it_checks():
    for name in imported_modules(module_tree(qptrees.mso)):
        assert name.split(".")[-1] not in CHECKED, name


def test_mso_touches_no_private_model_attribute():
    private = {a for a in dir(Model) if a.startswith("_") and not a.startswith("__")}
    assert {"_up", "_upset_masks", "_subset_masks", "_closure"} <= private
    used = {
        node.attr for node in ast.walk(module_tree(qptrees.mso))
        if isinstance(node, ast.Attribute)
    }
    assert not used & private


class ReadRecorder:
    """A model that records the names of the attributes read off it."""

    def __init__(self, model):
        self.model, self.read = model, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.model, name)


def test_eval_finite_reads_only_kind_worlds_and_root_off_the_model():
    wem_lin = parse_formula("forall p (~p | ~~p) -> forall p forall q ((p -> q) | (q -> p))")
    formulas = [translate_at(wem_lin, "x", INT), translate_at(parse_formula("dia box p", S4), "x", S4)]
    formulas += [validity_sentence(wem_lin, LogicClass.parse(c)) for c in ("qpHt-2", "qpHt-fin")]
    formulas += [build_predicate(kind, "T") for kind in ("tree", "upward-closed", "finite")]
    for m in enumerate_trees(4):
        env = {"T": set(m.worlds), "X_p": {m.root}, "x": m.root}
        recorder = ReadRecorder(m)
        for f in formulas:
            eval_finite(f, recorder, env)
        assert "worlds" in recorder.read
        assert recorder.read <= {"kind", "worlds", "root"}


def test_godel_evaluation_never_calls_semantics():
    tree = module_tree(qptrees.godel)
    from_semantics = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("semantics"):
            from_semantics |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.endswith("semantics") for a in node.names)
    assert from_semantics  # chain_correspondence needs them
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name != "chain_correspondence":
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            assert not names & from_semantics, node.name
