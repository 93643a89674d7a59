import random

import pytest

from helpers import random_formula
from qptrees.formula import (
    AND,
    BOT,
    EMPTY,
    EXISTS,
    FORALL,
    FULL,
    INT,
    OR,
    VAR,
    S4,
    And,
    Bottom,
    Box,
    Diamond,
    Exists,
    Forall,
    FormulaSyntaxError,
    Implies,
    LanguageError,
    Or,
    Var,
    compile_formula,
    free_vars,
    is_modal,
    neg,
    parse_formula,
    print_formula,
)

QEM_TEXT = "forall p (p | ~p)"
QEM_AST = Forall("p", Or(Var("p"), Implies(Var("p"), Bottom())))


def test_parse_quantified_excluded_middle():
    assert parse_formula(QEM_TEXT, INT) == QEM_AST


def test_parse_bottom():
    assert parse_formula("bot", INT) == Bottom()


def test_parse_modal_implication():
    # hand-built reference AST
    expected = Implies(Box(Var("p")), Box(Var("q")))
    assert parse_formula("box p -> box q", S4) == expected


def test_parse_precedence():
    f = parse_formula("p & q | r -> ~s")
    assert f == Implies(Or(And(Var("p"), Var("q")), Var("r")), neg(Var("s")))


def test_parse_implication_right_associative():
    assert parse_formula("p -> q -> r") == Implies(Var("p"), Implies(Var("q"), Var("r")))


def test_parse_binary_left_associative():
    assert parse_formula("p & q & r") == And(And(Var("p"), Var("q")), Var("r"))
    assert parse_formula("p | q | r") == Or(Or(Var("p"), Var("q")), Var("r"))


def test_quantifier_body_is_unary():
    # the body of a quantifier without parentheses is a single unary formula
    f = parse_formula("forall p p | q")
    assert f == Or(Forall("p", Var("p")), Var("q"))
    g = parse_formula("forall p exists q ~p")
    assert g == Forall("p", Exists("q", neg(Var("p"))))


def test_shadowed_quantifiers_are_legal():
    f = parse_formula("forall p forall p p")
    assert f == Forall("p", Forall("p", Var("p")))
    assert free_vars(f) == frozenset()


def test_syntax_error_carries_byte_offset():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("p & ) q")
    assert exc.value.offset == 4
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p ->")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("forall bot p")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p q")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("~")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p ∧ q")  # unicode connectives are not input syntax


def test_modal_under_intuitionistic_tag_rejected():
    with pytest.raises(LanguageError):
        parse_formula("box p", INT)
    with pytest.raises(LanguageError):
        parse_formula("p -> dia q", INT)
    assert parse_formula("box p", S4) == Box(Var("p"))


def test_print_bottom():
    assert print_formula(Bottom()) == "bot"


def test_print_quantified_excluded_middle():
    assert print_formula(QEM_AST) == QEM_TEXT


def test_print_negation_sugar():
    assert print_formula(neg(Var("p"))) == "~p"
    assert print_formula(neg(neg(Var("p")))) == "~~p"
    assert print_formula(neg(And(Var("p"), Var("q")))) == "~(p & q)"
    assert print_formula(Implies(Var("p"), Bottom())) == "~p"


def test_print_minimal_parentheses():
    assert print_formula(parse_formula("(p -> q) -> r")) == "(p -> q) -> r"
    assert print_formula(parse_formula("p -> q -> r")) == "p -> q -> r"
    assert print_formula(parse_formula("p & (q | r)")) == "p & (q | r)"
    assert print_formula(parse_formula("box (p -> q)", S4)) == "box (p -> q)"
    assert print_formula(parse_formula("p | (q | r)")) == "p | (q | r)"


def test_free_vars_of_variable():
    assert free_vars(Var("p")) == frozenset({"p"})


def test_free_vars_binding():
    assert free_vars(Forall("p", Or(Var("p"), Var("q")))) == frozenset({"q"})


def test_separating_implication_is_closed():
    f = parse_formula("forall p (~p | ~~p) -> forall p forall q ((p -> q) | (q -> p))")
    assert free_vars(f) == frozenset()


def test_free_vars_quantifier_law():
    rng = random.Random(7)
    for _ in range(200):
        body = random_formula(rng, 3)
        assert free_vars(Forall("p", body)) == free_vars(body) - {"p"}
        assert free_vars(Exists("q", body)) == free_vars(body) - {"q"}


def test_is_modal():
    assert not is_modal(QEM_AST)
    assert is_modal(Diamond(Var("p")))
    assert is_modal(Forall("p", Box(Var("p"))))


def test_round_trip_random_asts():
    rng = random.Random(20260808)
    for _ in range(400):
        lang = INT if rng.random() < 0.5 else S4
        f = random_formula(rng, 4, lang=lang)
        assert parse_formula(print_formula(f), lang) == f


def test_canonical_strings_reparse_to_same_text():
    rng = random.Random(99)
    for _ in range(200):
        f = random_formula(rng, 4, lang=S4)
        text = print_formula(f)
        assert print_formula(parse_formula(text, S4)) == text


def test_bad_variable_names_rejected():
    with pytest.raises(ValueError):
        Var("P")
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Var("forall")
    with pytest.raises(ValueError):
        Forall("box", Var("p"))


def test_unknown_language_tag():
    with pytest.raises(ValueError):
        parse_formula("p", "classical")


def test_compile_is_post_order_with_root_last():
    rng = random.Random(31)
    for _ in range(100):
        t = compile_formula(random_formula(rng, 4, lang=S4))
        for i, (op, a) in enumerate(zip(t.ops, t.args)):
            children = () if op == VAR else [c for c in a if isinstance(c, int)]
            assert all(c < i for c in children)
        assert t.root == len(t.ops) - 1


def test_compile_interns_equal_subformulas():
    t = compile_formula(parse_formula("(p & q) | (p & q)"))
    assert t.ops == (VAR, VAR, AND, OR)
    assert t.args == ("p", "q", (0, 1), (2, 2))
    # structurally equal, not identical: still one id
    g = Or(And(Var("p"), Var("q")), And(Var("p"), Var("q")))
    assert compile_formula(g).args == t.args


def test_compile_free_variable_tuples():
    t = compile_formula(parse_formula("forall p (r & (q | p) & exists p ~p)"))
    assert t.free == ("q", "r")
    assert t.ops[t.root] == FORALL
    # binders are renamed apart by their preorder numbers; free names stay
    assert [a[0] for op, a in zip(t.ops, t.args) if op in (FORALL, EXISTS)] == ["p#2", "p#0"]
    assert {a for op, a in zip(t.ops, t.args) if op == VAR} == {"r", "q", "p#0", "p#2"}


def naive_free(f):
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, (Forall, Exists)):
        return naive_free(f.body) - {f.var}
    return set().union(*(naive_free(c) for c in vars(f).values()))


def binder_number(name):
    return int(name.partition("#")[2])


def test_compile_renames_binders_apart():
    rng = random.Random(47)
    for _ in range(200):
        f = random_formula(rng, 5, lang=S4)
        t = compile_formula(f)
        assert t.free == tuple(sorted(naive_free(f)))
        binders = [a[0] for op, a in zip(t.ops, t.args) if op in (FORALL, EXISTS)]
        assert len(set(map(binder_number, binders))) == len(binders)
        names = {a for op, a in zip(t.ops, t.args) if op == VAR}
        assert {n for n in names if "#" not in n} == set(t.free)
        assert {n for n in names if "#" in n} <= set(binders)


def test_compile_schedules_partition_the_nodes():
    rng = random.Random(53)
    for _ in range(200):
        t = compile_formula(random_formula(rng, 5, lang=S4))
        binder = {a[0]: i for i, (op, a) in enumerate(zip(t.ops, t.args)) if op in (FORALL, EXISTS)}
        uses = []  # the bound variables each node uses
        for i, (op, a) in enumerate(zip(t.ops, t.args)):
            if op == VAR:
                uses.append({a} & binder.keys())
            elif op in (FORALL, EXISTS):
                uses.append(uses[a[1]] - {a[0]})
            else:
                uses.append(set().union(*(uses[c] for c in a)))
        schedules = [t.top] + [t.schedules[i] for i in binder.values()]
        assert sorted(i for s in schedules for i in s) == list(range(len(t.ops)))
        assert all(list(s) == sorted(s) for s in schedules)
        assert not any(t.schedules[i] for i in range(len(t.ops)) if i not in binder.values())
        for i, used in enumerate(uses):
            innermost = max(used, key=binder_number, default=None)
            assert i in (t.top if innermost is None else t.schedules[binder[innermost]])
        for i in binder.values():
            if t.fixed[i] is None:
                assert t.schedules[i][-1] == t.args[i][1]


def test_compile_hoists_closed_quantifiers_to_the_top_schedule():
    t = compile_formula(parse_formula("forall p (p | ~p | forall q (q | ~q))"))
    assert [t.ops[i] for i in t.top] == [BOT, FORALL, FORALL]
    inner, outer = t.top[1:]
    assert t.args[inner][0] == "q#2" and t.args[outer][0] == "p#0"
    assert inner not in t.schedules[outer]
    assert t.schedules[outer][-1] == t.args[outer][1]
    assert [t.args[i] for i in t.schedules[inner] if t.ops[i] == VAR] == ["q#2"]


def test_compile_rejects_non_formula_nodes():
    with pytest.raises(TypeError):
        compile_formula(And(Var("p"), "q"))
    with pytest.raises(TypeError):
        free_vars(Forall("p", 3))
    with pytest.raises(TypeError):
        is_modal(Or(Box(Var("p")), None))


def test_compile_deep_nesting():
    f = Var("p")
    for i in range(5000):
        f = Forall("q", f) if i % 2 else neg(f)
    assert free_vars(f) == frozenset({"p"})
    assert not is_modal(f)
    assert len(compile_formula(f).ops) == 5002


def fixed_quantifiers(text, lang=INT):
    """The `fixed` entries of the quantifier nodes, in post-order."""
    t = compile_formula(parse_formula(text, lang))
    return [fix for op, fix in zip(t.ops, t.fixed) if op in (FORALL, EXISTS)]


@pytest.mark.parametrize("text, lang, expected", [
    ("forall p (q -> p)", INT, [EMPTY]),  # positive only
    ("forall p (p -> q)", INT, [FULL]),  # negative only
    ("forall p q", INT, [EMPTY]),  # vacuous
    ("forall p ~~p", INT, [EMPTY]),  # flipped twice
    ("exists p (q -> p)", INT, [FULL]),
    ("exists p (p -> q)", INT, [EMPTY]),
    ("exists p q", INT, [FULL]),
    ("forall p (p | ~p)", INT, [None]),  # mixed
    ("exists p (p -> p)", INT, [None]),
    # shadowing: the inner binder hides its p from the outer one
    ("forall p (p & exists p ~p)", INT, [EMPTY, EMPTY]),
    ("forall p (~p & exists p p)", INT, [FULL, FULL]),
    # polarity passes through box and dia
    ("forall p box (dia p -> q)", S4, [FULL]),
    ("exists p dia box p", S4, [FULL]),
    ("forall p (box p | dia ~p)", S4, [None]),
    # nested quantifier over another variable
    ("forall p exists q (p -> q)", INT, [FULL, FULL]),
    ("forall p (forall q (q -> p) -> p)", INT, [FULL, None]),
    ("forall p forall q ((p -> q) | (q -> p))", INT, [None, None]),
])
def test_compile_fixes_one_polarity_quantifiers(text, lang, expected):
    assert fixed_quantifiers(text, lang) == expected


def test_compile_quantified_means_some_quantifier_ranges():
    assert compile_formula(parse_formula("forall p (p | ~p)")).quantified
    assert compile_formula(parse_formula("p | exists q (q -> q)")).quantified
    for text in ("p -> q", "forall p (p -> q) | exists q q", "forall p (p & exists p ~p)"):
        t = compile_formula(parse_formula(text))
        assert not t.quantified
        assert all(fix is None for op, fix in zip(t.ops, t.fixed) if op not in (FORALL, EXISTS))
