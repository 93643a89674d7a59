"""The syntax tree node classes of both languages: each is a frozen
dataclass with its own fields, `repr`, and equality that tells apart
classes of the same shape."""

import dataclasses

import pytest

from qptrees import formula as F, mso as M

P, Q = F.Var("p"), F.Var("q")
# a node of each class, its repr, and the other classes of its shape
NODES = [
    (P, "Var(name='p')", []),
    (F.Bottom(), "Bottom()", []),
    (F.And(P, Q), "And(left=Var(name='p'), right=Var(name='q'))", [F.Or, F.Implies]),
    (F.Or(P, Q), "Or(left=Var(name='p'), right=Var(name='q'))", [F.And, F.Implies]),
    (F.Implies(P, Q), "Implies(left=Var(name='p'), right=Var(name='q'))", [F.And, F.Or]),
    (F.Forall("p", Q), "Forall(var='p', body=Var(name='q'))", [F.Exists]),
    (F.Exists("p", Q), "Exists(var='p', body=Var(name='q'))", [F.Forall]),
    (F.Box(P), "Box(body=Var(name='p'))", [F.Diamond]),
    (F.Diamond(P), "Diamond(body=Var(name='p'))", [F.Box]),
    (M.Member("x", "X"), "Member(elem='x', setvar='X')", []),
    (M.Subset("X", "Y"), "Subset(left='X', right='Y')",
     [M.PrefixLe, M.ImmediateLe, M.LexLe, M.NodeEq]),
    (M.PrefixLe("x", "y"), "PrefixLe(left='x', right='y')",
     [M.Subset, M.ImmediateLe, M.LexLe, M.NodeEq]),
    (M.ImmediateLe("x", "y"), "ImmediateLe(left='x', right='y')",
     [M.Subset, M.PrefixLe, M.LexLe, M.NodeEq]),
    (M.LexLe("x", "y"), "LexLe(left='x', right='y')",
     [M.Subset, M.PrefixLe, M.ImmediateLe, M.NodeEq]),
    (M.NodeEq("x", "y"), "NodeEq(left='x', right='y')",
     [M.Subset, M.PrefixLe, M.ImmediateLe, M.LexLe]),
    (M.Falsum(), "Falsum()", []),
    (M.Conj(M.Falsum(), M.Falsum()), "Conj(left=Falsum(), right=Falsum())", [M.Disj, M.Impl]),
    (M.Disj(M.Falsum(), M.Falsum()), "Disj(left=Falsum(), right=Falsum())", [M.Conj, M.Impl]),
    (M.Impl(M.Falsum(), M.Falsum()), "Impl(left=Falsum(), right=Falsum())", [M.Conj, M.Disj]),
    (M.Neg(M.Falsum()), "Neg(body=Falsum())", []),
    (M.All1("x", M.Falsum()), "All1(var='x', body=Falsum())", [M.Ex1, M.All2, M.Ex2]),
    (M.Ex1("x", M.Falsum()), "Ex1(var='x', body=Falsum())", [M.All1, M.All2, M.Ex2]),
    (M.All2("X", M.Falsum()), "All2(var='X', body=Falsum())", [M.All1, M.Ex1, M.Ex2]),
    (M.Ex2("X", M.Falsum()), "Ex2(var='X', body=Falsum())", [M.All1, M.Ex1, M.All2]),
]


def test_every_node_class_is_listed():
    listed = {type(node) for node, _, _ in NODES}
    for module in (F, M):
        public = {
            c for c in vars(module).values()
            if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == module.__name__
            and not c.__name__.startswith("_") and c not in (F.NodeTable, M.LogicClass)
        }
        assert public <= listed, public - listed


@pytest.mark.parametrize("node, text, siblings", NODES, ids=[type(n).__name__ for n, _, _ in NODES])
def test_node_class(node, text, siblings):
    assert repr(node) == text
    values = [getattr(node, f.name) for f in dataclasses.fields(node)]
    twin = type(node)(*values)
    assert twin == node and hash(twin) == hash(node) and twin is not node
    for sibling in siblings:
        assert sibling(*values) != node
    for field in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field.name, None)
    if not values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.anything = None
