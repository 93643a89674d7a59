"""The oracles stay independent of the code they check.

`mso.eval_finite` cross-checks the forcing semantics, and Goedel
evaluation cross-checks it on chains, so neither may reach into the
semantics, the search, the embedding, or the order and proposition
machinery inside `Model`.
"""

import ast
from pathlib import Path

import qptrees.godel
import qptrees.mso
from qptrees.kripke import Model

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
