import gc
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    _random_valuation,
    naive_forces_int,
    naive_forces_s4,
    random_formula,
    random_model,
    with_assignment,
)
from qptrees.formula import (
    INT,
    S4,
    Bottom,
    Box,
    Diamond,
    Exists,
    Forall,
    Implies,
    LanguageError,
    UnboundVariableError,
    Var,
    compile_formula,
    neg,
    parse_formula,
)
from qptrees import kripke
from qptrees.kripke import Forest, Model, chain, enumerate_subsets, enumerate_upsets, upward_closure
from qptrees.semantics import (
    extension_int,
    extension_s4,
    forces_int,
    forces_s4,
    validates,
)
from qptrees.search import SearchBounds, bounded_validity, enumerate_trees
from qptrees.suite import QEM, WEM_TO_LIN, diamond_model


def tree_with_two_branches():
    return Model.tree([(), (0,), (1,), (0, 0)], {})


def test_qem_true_exactly_at_leaves():
    m = tree_with_two_branches()
    for h in m.worlds:
        expected = h in m.leaves()
        assert forces_int(m, h, QEM) == expected


def test_qem_extension_is_leaf_set():
    m = tree_with_two_branches()
    assert extension_int(m, QEM) == m.leaves()
    d = diamond_model()
    assert extension_int(d, QEM) == d.leaves()


def test_diamond_refutes_separating_implication():
    assert forces_int(diamond_model(), "g", WEM_TO_LIN) is False
    assert validates(diamond_model(), WEM_TO_LIN) is False


def test_two_chain_forces_weak_excluded_middle():
    # the three upsets of the 2-chain all make ~p | ~~p true at the root
    m = chain(2)
    assert forces_int(m, m.root, parse_formula("forall p (~p | ~~p)")) is True


def test_extension_of_bottom_is_empty():
    m = tree_with_two_branches()
    assert extension_int(m, parse_formula("bot")) == frozenset()
    assert extension_s4(m.with_mode(S4), parse_formula("bot")) == frozenset()


def test_extension_of_variable_is_valuation():
    m = Model.tree([(), (0,)], {"p": [(0,)]})
    assert extension_int(m, Var("p")) == m.valuation["p"]
    s4 = Model.tree([(), (0,)], {"p": [()]}, S4)
    assert extension_s4(s4, Var("p")) == s4.valuation["p"]


def test_s4_reflexive_point():
    m = Model.tree([()], {"p": [()]}, S4)
    assert forces_s4(m, (), parse_formula("dia p", S4)) is True
    assert forces_s4(m, (), parse_formula("box p", S4)) is True


def test_s4_two_chain_box_and_diamond():
    m = Model.tree([(), (0,)], {"p": [(0,)]}, S4)
    assert forces_s4(m, (), parse_formula("dia p", S4)) is True
    assert forces_s4(m, (), parse_formula("box p", S4)) is False
    assert extension_s4(m, parse_formula("box p", S4)) == frozenset({(0,)})


def test_s4_exists_always_has_witness():
    rng = random.Random(5)
    f = parse_formula("exists p p", S4)
    for _ in range(10):
        m = random_model(rng, 4, mode=S4)
        for h in m.worlds:
            assert forces_s4(m, h, f) is True


def test_validates_trivial_implication():
    assert validates(tree_with_two_branches(), parse_formula("bot -> bot")) is True


def test_validates_not_qem_fails_on_unit_tree():
    m = Model.tree([()])
    assert validates(m, parse_formula("~(forall p (p | ~p))")) is False


def test_mode_checks():
    m = tree_with_two_branches()
    with pytest.raises(ValueError):
        forces_s4(m, (), QEM)
    with pytest.raises(ValueError):
        extension_s4(m, QEM)
    with pytest.raises(LanguageError):
        forces_int(m, (), Box(Var("p")))
    with pytest.raises(LanguageError):
        extension_int(m, Diamond(Var("p")))


def test_lookup_errors():
    m = tree_with_two_branches()
    with pytest.raises(UnboundVariableError):
        forces_int(m, (), Var("nope"))
    from qptrees.kripke import UnknownWorldError

    with pytest.raises(UnknownWorldError):
        forces_int(m, (5, 5), QEM)


def test_agrees_with_pointwise_powerset_oracle_int():
    rng = random.Random(20260101)
    for _ in range(60):
        m = random_model(rng, 5, mode=INT, variables=("p", "q"))
        f = random_formula(rng, 3, lang=INT, scope=("p", "q"), quantifiers=2)
        ext = extension_int(m, f)
        for h in m.worlds:
            assert (h in ext) == naive_forces_int(m, h, f)


def test_agrees_with_pointwise_powerset_oracle_s4():
    rng = random.Random(20260102)
    for _ in range(60):
        m = random_model(rng, 5, mode=S4, variables=("p", "q"))
        f = random_formula(rng, 3, lang=S4, scope=("p", "q"), quantifiers=2)
        ext = extension_s4(m, f)
        for h in m.worlds:
            assert (h in ext) == naive_forces_s4(m, h, f)


def test_intuitionistic_extensions_upward_closed():
    rng = random.Random(17)
    for _ in range(80):
        m = random_model(rng, 5)
        f = random_formula(rng, 3)
        ext = extension_int(m, f)
        assert upward_closure(m, ext) == ext


def test_persistence():
    rng = random.Random(18)
    for _ in range(40):
        m = random_model(rng, 5)
        f = random_formula(rng, 3)
        for h in m.worlds:
            if forces_int(m, h, f):
                assert all(forces_int(m, h2, f) for h2 in m.above(h))


def test_negation_clause():
    # ~B holds at h exactly when B fails at every successor of h
    from qptrees.formula import neg

    rng = random.Random(19)
    for _ in range(40):
        m = random_model(rng, 5)
        f = random_formula(rng, 2)
        neg_ext = extension_int(m, neg(f))
        for h in m.worlds:
            expected = all(not forces_int(m, h2, f) for h2 in m.above(h))
            assert (h in neg_ext) == expected


def test_leaf_law_on_all_small_trees():
    from qptrees.search import enumerate_trees

    for n in range(1, 7):
        for m in enumerate_trees(n):
            assert extension_int(m, QEM) == m.leaves()


def extension_algebra_checks(m, a, b):
    from qptrees.formula import And, Implies, Or

    ea = extension_int(m, a)
    eb = extension_int(m, b)
    assert extension_int(m, And(a, b)) == ea & eb
    assert extension_int(m, Or(a, b)) == ea | eb
    impl = extension_int(m, Implies(a, b))
    for h in m.worlds:
        expected = all(h2 not in ea or h2 in eb for h2 in m.above(h))
        assert (h in impl) == expected
    alls = extension_int(m, Forall("p", a))
    somes = extension_int(m, Exists("p", a))
    caps = frozenset(m.worlds)
    cups = frozenset()
    for prop in enumerate_upsets(m):
        sub = extension_int(with_assignment(m, "p", prop), a)
        caps &= sub
        cups |= sub
    assert alls == caps
    assert somes == cups
    assert upward_closure(m, ea) == ea


def test_extension_algebra_identities():
    rng = random.Random(20)
    for _ in range(60):
        m = random_model(rng, 5)
        a = random_formula(rng, 3, quantifiers=1)
        b = random_formula(rng, 3, quantifiers=1)
        extension_algebra_checks(m, a, b)


def test_s4_quantifiers_range_over_all_subsets():
    # exists p (p & ~box p) needs a non-upward-closed witness
    m = Model.tree([(), (0,)], {}, S4)
    f = parse_formula("exists p (p & (box p -> bot))", S4)
    assert forces_s4(m, (), f) is True
    got = set()
    for prop in enumerate_subsets(m):
        got.add(prop)
    assert len(got) == 4


# --- the compiled evaluator against the pointwise oracle -------------------------

PINNED = [
    "forall p (p & exists p ~p)",  # shadowed binder
    "exists p (p -> forall p (q | ~p))",
    "(forall p (p | ~p)) & ~~(forall p (p | ~p))",  # repeated subformula
    "(p -> q) | (p -> q) | forall q ((p -> q) | (q -> p))",
    "p & q -> exists r (r & (p | q)) | ~p",  # p and q from the valuation
    # one-polarity quantifiers, fixed to the empty or the full proposition
    "forall p (q -> p) | exists p (p -> q) | forall r q",
    "forall p (p -> q) & exists p (q -> p) & exists r ~q",
    "forall p ~~p -> exists p ~p",
    "forall p (~p & exists p p)",
    "forall p exists q (p -> q)",
    "forall p (forall q (q -> p) -> p)",  # fixed inside ranging
    "exists p (~p & forall q (q | ~q)) | forall p ((p -> q) -> ~~p)",  # ranging inside fixed
]
PINNED_S4 = [
    "box (p | forall p dia p)",
    "dia forall q (box q -> q) & dia forall q (box q -> q)",
    "exists q (box (q -> p) & ~box q)",
    "forall p box (dia p -> q) | exists p dia box p",
    "forall p (box p | dia ~p)",
    "exists q box (p -> dia q) & forall q (dia q -> p)",
]


def differential_structures(mode):
    from qptrees.search import enumerate_posets, enumerate_trees

    for n in range(1, 6):
        yield from enumerate_trees(n, mode)
    for n in range(1, 5):
        yield from enumerate_posets(n, mode)


def check_against_oracle(mode, seed):
    extension, naive = (extension_int, naive_forces_int) if mode == INT else (
        extension_s4, naive_forces_s4)
    rng = random.Random(seed)
    pinned = [parse_formula(text, mode) for text in PINNED + (PINNED_S4 if mode == S4 else [])]
    for skeleton in differential_structures(mode):
        m = skeleton.with_valuation(_random_valuation(rng, skeleton, mode, ("p", "q")))
        formulas = pinned + [
            random_formula(rng, 3, lang=mode, scope=("p", "q"), quantifiers=2)
            for _ in range(4)
        ]
        for f in formulas:
            ext = extension(m, f)
            for h in m.worlds:
                assert (h in ext) == naive(m, h, f), (m, f, h)


def test_compiled_evaluator_agrees_with_oracle_int():
    check_against_oracle(INT, 20260201)


def test_compiled_evaluator_agrees_with_oracle_s4():
    check_against_oracle(S4, 20260202)


SHADOWING = "exists p forall r (forall p ((p | ~p) | r) & ~p)"


def test_shadowed_binder_is_not_read_stale():
    f = parse_formula(SHADOWING)
    fork = Model.tree([(), (0,), (1,)], {})
    assert extension_int(fork, f) == {(0,), (1,)}
    for n in range(1, 5):
        for m in enumerate_trees(n):
            ext = extension_int(m, f)
            assert all((h in ext) == naive_forces_int(m, h, f) for h in m.worlds), m


def shadowed(f, bound=frozenset()):
    """Does a quantifier in `f` rebind a variable inside its own scope?"""
    if isinstance(f, (Forall, Exists)):
        return f.var in bound or shadowed(f.body, bound | {f.var})
    return any(shadowed(c, bound) for c in vars(f).values() if not isinstance(c, str))


@pytest.mark.parametrize("mode, max_worlds, seed", [(INT, 5, 20261018), (S4, 4, 20261019)])
def test_shadowed_binders_agree_with_oracle(mode, max_worlds, seed):
    extension, naive = (extension_int, naive_forces_int) if mode == INT else (
        extension_s4, naive_forces_s4)
    rng = random.Random(seed)
    cases = 0
    while cases < 500:
        f = random_formula(rng, 5, lang=mode, quantifiers=3)
        if not shadowed(f):
            continue
        m = random_model(rng, max_worlds, mode)
        ext = extension(m, f)
        for h in m.worlds:
            assert (h in ext) == naive(m, h, f), (m, f, h)
        cases += 1


def test_deep_formulas_evaluate():
    m = Model.tree([(), (0,)], {"p": [(0,)]})
    f = Bottom()
    for _ in range(5000):
        f = neg(f)
    assert extension_int(m, f) == frozenset()
    f = Var("p")
    for i in range(5000):  # 2500 negations between vacuous quantifiers
        f = Forall("q", f) if i % 2 else neg(f)
    assert extension_int(m, f) == extension_int(m, neg(neg(Var("p"))))
    f = Var("p")
    for i in range(3000):
        f = Forall(f"q{i}", Implies(Var(f"q{i}"), f))
    assert extension_int(m, f) == {(0,)}
    assert extension_s4(m.with_mode(S4), f) == {(0,)}


def test_fixed_quantifiers_enumerate_no_propositions(monkeypatch):
    def spy(*args):
        raise RuntimeError("propositions enumerated")

    monkeypatch.setattr(Model, "_upset_masks", spy)
    monkeypatch.setattr(kripke, "_upsets_of", spy)
    monkeypatch.setattr(Model, "_subset_masks", spy)
    # S4 subsets are laid out by the forest itself, without the model
    monkeypatch.setattr(Forest, "propositions", spy)
    m = with_assignment(tree_with_two_branches(), "q", [(0, 0)])
    fixed = parse_formula("forall p (p -> q) | exists p ~~p | ~forall p p")
    mixed = parse_formula("forall p (p | ~p)")
    assert extension_int(m, fixed) == frozenset(m.worlds)
    assert forces_s4(m.with_mode(S4), (), fixed) is True
    closed = parse_formula("forall p ~~p -> exists p ~p")
    assert bounded_validity(closed, SearchBounds(5, "finite-trees")).countermodel is None
    for evaluate in (lambda: extension_int(m, mixed), lambda: validates(m.with_mode(S4), mixed)):
        with pytest.raises(RuntimeError, match="propositions enumerated"):
            evaluate()


def test_compiled_table_is_accepted_in_place_of_formula():
    m = tree_with_two_branches()
    t = compile_formula(QEM)
    assert extension_int(m, t) == extension_int(m, QEM) == frozenset({(0, 0), (1,)})
    assert type(extension_int(m, t)) is frozenset
    assert compile_formula(t) is t
    assert validates(m, t) is False
    assert validates(m, QEM) is False
    assert forces_int(m, (0, 0), t) is True


def test_error_cases_and_their_order():
    m = tree_with_two_branches()
    with pytest.raises(UnboundVariableError, match="'q'"):
        extension_int(m, parse_formula("r & forall r (q | r)"))
    with pytest.raises(UnboundVariableError):
        forces_s4(m.with_mode(S4), (), parse_formula("exists p (p | q)"))
    # the language check comes before the variable lookup
    with pytest.raises(LanguageError):
        forces_int(m, (), Box(Var("nope")))
    with pytest.raises(LanguageError):
        validates(m, Forall("p", Diamond(Var("p"))))
    with pytest.raises(TypeError):
        extension_int(m, Forall("p", "p"))


def test_evaluation_leaves_no_cyclic_garbage():
    from qptrees.embedding import t_embed

    m = Model.tree([(), (0,), (1,), (0, 0), (0, 1)], {}, S4)
    f = t_embed(WEM_TO_LIN)
    gc.collect()
    gc.disable()
    try:
        assert validates(m, f) is True
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_upward_closure_check_survives_optimize():
    script = (
        "from qptrees import semantics\n"
        "from qptrees.formula import Bottom\n"
        "from qptrees.kripke import chain\n"
        "semantics._extension_mask = lambda m, t, s4, valuation: 1  # the root alone\n"
        "try:\n"
        "    semantics.extension_int(chain(2), Bottom())\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-B", "-O", "-c", script],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "intuitionistic extension not upward closed\n"
