"""The package keeps no global state beyond a short, bounded list.

A module-level container is shared by every caller in the process and
lives as long as the process does, so a cache kept in one grows without
limit unless something bounds it.  The containers that may exist are
listed here, and each carries a comment, just above it, that states its
bound.  The evaluator reads the order through offset masks only.
"""

import ast
from pathlib import Path

import qptrees
import qptrees.semantics

ALLOWED = {("search", "_shape_cache")}

CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}


def is_container(node):
    if isinstance(node, CONTAINER_NODES):
        return True
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in CONTAINER_CALLS
    )


def module_containers():
    """(module, name, comment above it) for each module-level container."""
    for path in sorted(Path(qptrees.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if value is None or not is_container(value):
                continue
            comment, i = [], node.lineno - 2
            while i >= 0 and lines[i].startswith("#"):
                comment.insert(0, lines[i].lstrip("# "))
                i -= 1
            for target in targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                for name in names:
                    yield path.stem, name.id, " ".join(comment)


def test_module_level_containers_are_the_allowed_ones():
    found = {(module, name) for module, name, _ in module_containers()}
    assert found == ALLOWED


def test_each_allowed_container_states_its_bound():
    for module, name, comment in module_containers():
        comment = comment.lower()
        assert "one entry per" in comment and "already searched" in comment, (module, name)


def test_semantics_does_not_read_the_order_masks():
    tree = ast.parse(Path(qptrees.semantics.__file__).read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "_up" not in used
