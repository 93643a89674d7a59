import gc
import random
import sys
import threading
from pathlib import Path

import pytest

from helpers import random_formula, random_tree
from mso_reader import expand_immediate, free_names, read_mso, reference_eval_finite
from qptrees import mso
from qptrees.formula import (
    INT,
    S4,
    LanguageError,
    OpenFormulaError,
    UnboundVariableError,
    Var,
    parse_formula,
)
from qptrees.kripke import Model, chain, enumerate_subsets, upward_closure
from qptrees.mso import (
    All1,
    All2,
    Conj,
    Disj,
    Ex1,
    Ex2,
    Falsum,
    Impl,
    ImmediateLe,
    LexLe,
    LogicClass,
    Member,
    Neg,
    NodeEq,
    PrefixLe,
    ROOT,
    Subset,
    _Nodes,
    build_predicate,
    emit,
    eval_finite,
    translate_at,
    validity_sentence,
)
from qptrees.search import enumerate_trees
from qptrees.semantics import extension_int, extension_s4
from qptrees.suite import QEM, WEM_TO_LIN

GOLDEN = Path(__file__).parent / "golden"


def test_translate_variable():
    assert translate_at(Var("p"), "x", INT) == Member("x", "X_p")


def test_translate_bottom():
    assert translate_at(parse_formula("bot"), "x", INT) == Falsum()


def test_translate_diamond():
    got = translate_at(parse_formula("dia p", S4), "x", S4)
    assert got == Ex1("y_0", Conj(PrefixLe("x", "y_0"), Member("y_0", "X_p")))


def test_translate_implication_bounded_to_domain():
    got = translate_at(parse_formula("p -> q"), "x", INT)
    assert got == All1(
        "y_0",
        Impl(
            Member("y_0", "T"),
            Impl(
                PrefixLe("x", "y_0"),
                Impl(Member("y_0", "X_p"), Member("y_0", "X_q")),
            ),
        ),
    )


def test_translate_s4_implication_is_plain():
    got = translate_at(parse_formula("p -> q"), "x", S4)
    assert got == Impl(Member("x", "X_p"), Member("x", "X_q"))


def test_translate_quantifier_guards():
    intu = translate_at(parse_formula("forall p p"), "x", INT)
    assert isinstance(intu, All2) and intu.var == "X_p"
    guard = intu.body.left
    assert isinstance(guard, Conj) and guard.left == Subset("X_p", "T")
    s4 = translate_at(parse_formula("forall p p", S4), "x", S4)
    assert s4 == All2("X_p", Impl(Subset("X_p", "T"), Member("x", "X_p")))
    ex = translate_at(parse_formula("exists p p", S4), "x", S4)
    assert ex == Ex2("X_p", Conj(Subset("X_p", "T"), Member("x", "X_p")))


def test_translate_mode_mismatch():
    with pytest.raises(LanguageError):
        translate_at(parse_formula("box p", S4), "x", INT)
    with pytest.raises(ValueError):
        translate_at(Var("p"), "x", "classical")


def test_arity_predicate_refuses_a_bool():
    with pytest.raises(ValueError, match="at least 1"):
        build_predicate("arity", "T", True)


def test_predicate_upward_closed():
    assert build_predicate("upward-closed", "T") == All1(
        "x",
        Impl(Member("x", "T"), All1("y", Impl(PrefixLe("x", "y"), Member("y", "T")))),
    )


def test_predicate_finite():
    assert build_predicate("finite", "T") == Ex1(
        "x", All1("y", Impl(Member("y", "T"), LexLe("y", "x")))
    )


def test_predicate_tree_contains_root():
    tree = build_predicate("tree", "T")
    assert tree.left == Member(ROOT, "T")


def test_predicate_arity_one():
    got = build_predicate("arity", "T", 1)
    count = Ex1(
        "y",
        Conj(
            ImmediateLe("x", "y"),
            All1("z", Impl(ImmediateLe("x", "z"), NodeEq("z", "y"))),
        ),
    )
    assert got == All1("x", Impl(Member("x", "T"), count))


def test_predicate_arity_two_counts():
    text = emit(build_predicate("arity", "T", 2))
    assert text.count("<=1") == 3
    assert "~y1 = y2" in text


def test_emit_examples():
    assert emit(Member("x", "X_p")) == "x in X_p"
    assert emit(build_predicate("finite", "T")) == "ex1 x: all1 y: (y in T => y lex<= x)"


def test_emit_reader_round_trip_on_translations():
    rng = random.Random(41)
    for _ in range(100):
        lang = INT if rng.random() < 0.5 else S4
        f = random_formula(rng, 3, lang=lang, quantifiers=2)
        t = translate_at(f, "x", lang)
        assert read_mso(emit(t)) == t


def test_emit_reader_round_trip_on_sentences():
    for cname in ("qpHt", "qpHt-2", "qpHt-fin", "qpHt-omega", "s4t", "s4t-fin"):
        sentence = validity_sentence(QEM, LogicClass.parse(cname))
        assert read_mso(emit(sentence)) == sentence


def test_emit_distinguishes_distinct_asts():
    rng = random.Random(42)
    seen = {}
    for _ in range(200):
        f = random_formula(rng, 3, quantifiers=1)
        t = translate_at(f, "x", INT)
        text = emit(t)
        if text in seen:
            assert seen[text] == t
        seen[text] = t


def test_validity_sentence_guards():
    omega = validity_sentence(QEM, LogicClass.parse("qpHt-omega"))
    assert isinstance(omega, All2) and omega.var == "T"
    assert omega.body.left == All1("z", Member("z", "T"))
    fin = validity_sentence(QEM, LogicClass.parse("qpHt-fin"))
    guard = fin.body.left
    assert guard == Conj(build_predicate("tree", "T"), build_predicate("finite", "T"))
    plain = validity_sentence(QEM, LogicClass.parse("qpHt"))
    assert plain.body.left == build_predicate("tree", "T")


def test_validity_sentence_is_closed():
    rng = random.Random(43)
    for cname in ("qpHt", "qpHt-3", "qpHt-fin", "qpHt-omega", "s4t", "s4t-fin", "s4t-2"):
        cls = LogicClass.parse(cname)
        for _ in range(10):
            f = random_formula(rng, 3, lang=cls.mode, closed=True, quantifiers=2)
            assert free_names(validity_sentence(f, cls)) == frozenset()


def test_validity_sentence_rejects_open_formulas():
    with pytest.raises(OpenFormulaError):
        validity_sentence(Var("p"), LogicClass.parse("qpHt"))


def test_fresh_variables_never_rebound_on_a_path():
    rng = random.Random(44)

    def check(f, bound):
        if isinstance(f, (All1, Ex1)):
            assert f.var not in bound
            check(f.body, bound | {f.var})
        elif isinstance(f, (All2, Ex2)):
            check(f.body, bound)
        elif isinstance(f, (Conj, Impl)) or type(f).__name__ == "Disj":
            check(f.left, bound)
            check(f.right, bound)
        elif isinstance(f, Neg):
            check(f.body, bound)

    for _ in range(60):
        f = random_formula(rng, 3, closed=True, quantifiers=3)
        check(validity_sentence(f, LogicClass.parse("qpHt")), frozenset())


def test_logic_class_parsing_and_names():
    assert str(LogicClass.parse("qpHt-2")) == "qpHt-2"
    assert LogicClass.parse("s4t-fin").mode == S4
    for bad in ("qpHt-0", "s4t-omega", "qpH", "qpHt-", "qpHt-33", "s4t-\u0663", "qpHt-\u00b3"):
        with pytest.raises(ValueError):
            LogicClass.parse(bad)
    assert LogicClass.parse("s4t-32") == LogicClass(S4, "arity", 32)
    assert LogicClass.parse("qpHt-0032") == LogicClass(INT, "arity", 32)
    with pytest.raises(ValueError, match="from 1 to 32"):
        LogicClass(INT, "arity", 33)


def test_arity_class_refuses_a_bool():
    # True == 1, but it would print as "qpHt-True", which parse refuses
    with pytest.raises(ValueError, match="from 1 to 32"):
        LogicClass(INT, "arity", True)


def test_golden_sentences():
    fixtures = {
        "impl_bot": "bot -> bot",
        "qem": "forall p (p | ~p)",
        "nn_qem": "~~(forall p (p | ~p))",
        "wem_lin": "forall p (~p | ~~p) -> forall p forall q ((p -> q) | (q -> p))",
    }
    for key, text in fixtures.items():
        f = parse_formula(text)
        for cname in ("qpHt", "qpHt-2", "qpHt-fin", "qpHt-omega"):
            expected = (GOLDEN / f"{key}__{cname}.txt").read_text()
            got = emit(validity_sentence(f, LogicClass.parse(cname))) + "\n"
            assert got == expected, f"{key}/{cname} drifted from its golden file"


# --- the finite-domain evaluator -------------------------------------------------


def test_eval_membership():
    m = chain(2)
    assert eval_finite(Member("x", "X"), m, {"x": (), "X": {()}}) is True
    assert eval_finite(Member("x", "X"), m, {"x": (0,), "X": {()}}) is False
    assert eval_finite(Member(ROOT, "X"), m, {"X": {()}}) is True


def test_eval_orders():
    m = Model.tree([(), (0,), (1,), (0, 0)])
    env = {"a": (0,), "b": (0, 0), "c": (1,)}
    assert eval_finite(PrefixLe("a", "b"), m, env) is True
    assert eval_finite(PrefixLe("a", "c"), m, env) is False
    assert eval_finite(ImmediateLe("a", "b"), m, env) is True
    assert eval_finite(ImmediateLe(ROOT, "b"), m, env) is False
    assert eval_finite(LexLe("a", "c"), m, env) is True
    assert eval_finite(LexLe("b", "a"), m, env) is False
    assert eval_finite(NodeEq("a", "a"), m, env) is True


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_finite(Member("x", "X"), chain(1), {"X": set()})
    with pytest.raises(UnboundVariableError):
        eval_finite(Member("x", "X"), chain(1), {"x": ()})


def test_eval_requires_tree_domain():
    m = Model.poset(["a"], [])
    with pytest.raises(ValueError):
        eval_finite(Falsum(), m, {})


def test_prop_guard_recognizes_exactly_the_upsets():
    m = Model.tree([(), (0,), (1,), (0, 0)])
    pred = build_predicate("upward-closed", "X")
    for s in enumerate_subsets(m):
        expected = upward_closure(m, s) == s
        assert eval_finite(pred, m, {"X": s}) == expected


def test_immediate_successor_expansion_equivalent():
    m = Model.tree([(), (0,), (1,), (0, 0), (0, 1)])
    atom = ImmediateLe("a", "b")
    expanded = expand_immediate(atom)
    for a in m.worlds:
        for b in m.worlds:
            env = {"a": a, "b": b}
            assert eval_finite(atom, m, env) == eval_finite(expanded, m, env)


def test_arity_predicate_expansion_agrees_on_trees():
    for n in (1, 2, 3, 4):
        pred = build_predicate("arity", "X", n)
        expanded = expand_immediate(pred)
        assert "<=1" not in emit(expanded)
        for size in range(1, 6):
            for m in enumerate_trees(size):
                env = {"X": set(m.worlds)}
                assert eval_finite(pred, m, env) == eval_finite(expanded, m, env)


def test_oracle_matches_intuitionistic_extension():
    rng = random.Random(20260505)
    for _ in range(25):
        m = random_tree(rng, 4, mode=INT, variables=("p", "q"))
        f = random_formula(rng, 3, scope=("p", "q"), quantifiers=2)
        t = translate_at(f, "x", INT)
        env = {"T": set(m.worlds)}
        for v, image in m.valuation.items():
            env["X_" + v] = image
        got = {
            h for h in m.worlds if eval_finite(t, m, {**env, "x": h})
        }
        assert got == extension_int(m, f)


def test_oracle_matches_s4_extension():
    rng = random.Random(20260506)
    for _ in range(25):
        m = random_tree(rng, 4, mode=S4, variables=("p", "q"))
        f = random_formula(rng, 3, lang=S4, scope=("p", "q"), quantifiers=2)
        t = translate_at(f, "x", S4)
        env = {"T": set(m.worlds)}
        for v, image in m.valuation.items():
            env["X_" + v] = image
        got = {
            h for h in m.worlds if eval_finite(t, m, {**env, "x": h})
        }
        assert got == extension_s4(m, f)


def test_finite_validity_sentence_over_small_domains():
    # over a finite domain the sentence quantifies over the domain's subtrees
    trivial = validity_sentence(parse_formula("bot -> bot"), LogicClass.parse("qpHt-fin"))
    qem_sentence = validity_sentence(QEM, LogicClass.parse("qpHt-fin"))
    two = chain(2)
    assert eval_finite(trivial, two, {}) is True
    # the 2-chain itself is a subtree refuting quantified excluded middle
    assert eval_finite(qem_sentence, two, {}) is False
    assert eval_finite(qem_sentence, chain(1), {}) is True


# --- the compiled evaluator against the reference walker ---------------------------

SMALL_TREES = [m for n in range(1, 5) for m in enumerate_trees(n)]


def outcome(evaluate, f, m, env):
    try:
        return evaluate(f, m, env)
    except UnboundVariableError as e:
        return f"UnboundVariableError: {e}"


def assert_agrees(f, m, env):
    expected = outcome(reference_eval_finite, f, m, env)
    assert outcome(eval_finite, f, m, env) == expected, (emit(f), m.worlds, env)


def random_subset(rng, worlds):
    return {w for w in worlds if rng.random() < 0.5}


def test_compiled_evaluator_matches_reference_on_translations():
    rng = random.Random(20261018)
    # a random T up to 4 worlds; on 5, T is the whole domain, as in the benchmark
    cases = [(m, 25, False) for m in SMALL_TREES] + [(m, 8, True) for m in enumerate_trees(5)]
    for m, count, whole in cases:
        for mode in (INT, S4):
            for _ in range(count):
                f = random_formula(rng, 3, lang=mode, scope=("p", "q"), quantifiers=2)
                t = translate_at(f, "x", mode)
                env = {"T": set(m.worlds) if whole else random_subset(rng, m.worlds) | {m.root},
                       "X_p": random_subset(rng, m.worlds),
                       "X_q": random_subset(rng, m.worlds)}
                for h in m.worlds:
                    assert_agrees(t, m, {**env, "x": h})


def test_compiled_evaluator_matches_reference_on_sentences():
    rng = random.Random(20261019)
    classes = [LogicClass.parse(c) for c in
               ("qpHt", "qpHt-fin", "qpHt-2", "qpHt-omega", "s4t", "s4t-fin", "s4t-2")]
    for m in SMALL_TREES:
        for cls in classes:
            for _ in range(3):
                f = random_formula(rng, 3, lang=cls.mode, closed=True, quantifiers=2)
                assert_agrees(validity_sentence(f, cls), m, {})


def test_compiled_evaluator_matches_reference_on_predicates():
    preds = [build_predicate(kind, "X") for kind in ("tree", "upward-closed", "finite")]
    preds += [build_predicate("arity", "X", n) for n in (1, 2, 3)]
    for m in SMALL_TREES:
        for s in enumerate_subsets(m):
            for pred in preds:
                assert_agrees(pred, m, {"X": s})


def test_eval_words_outside_the_domain():
    m = chain(2)
    env = {"a": (0, 1), "b": (0, 1, 2), "c": (), "d": (3, 4),
           "X": {(), (5,)}, "Y": {(5,)}, "Z": {(0, 1)}}
    names = [ROOT, "a", "b", "c", "d"]
    for left in names:
        for right in names:
            for atom in (PrefixLe, ImmediateLe, LexLe, NodeEq):
                assert_agrees(atom(left, right), m, env)
        for sv in ("X", "Y", "Z"):
            assert_agrees(Member(left, sv), m, env)
    for left in ("X", "Y", "Z"):
        for right in ("X", "Y", "Z"):
            assert_agrees(Subset(left, right), m, env)
    # quantifiers never take a value outside the domain
    assert eval_finite(PrefixLe("c", "b"), m, env) is True
    assert eval_finite(PrefixLe(ROOT, "d"), m, env) is True  # (3,) is no node
    assert eval_finite(ImmediateLe("a", "b"), m, env) is True
    assert eval_finite(Ex1("z", NodeEq("z", "a")), m, env) is False
    assert eval_finite(Ex1("z", Conj(PrefixLe("z", "a"), Neg(NodeEq("z", ROOT)))), m, env) is True
    assert eval_finite(Ex2("W", Subset("Y", "W")), m, env) is False
    assert eval_finite(Ex2("W", Subset("W", "Y")), m, env) is True
    assert eval_finite(Member("b", "Z"), m, {**env, "Z": {(0, 1, 2)}}) is True


def test_eval_unbound_only_when_reached():
    m = chain(2)
    unreached = Conj(Falsum(), Member("x", "X"))
    assert eval_finite(unreached, m, {}) is False
    assert eval_finite(Impl(Falsum(), Subset("X", "Y")), m, {}) is True
    assert eval_finite(All2("W", Disj(Subset("W", "W"), Member("x", "W"))), m, {}) is True
    with pytest.raises(UnboundVariableError, match="unbound individual variable 'x'"):
        eval_finite(Disj(Falsum(), Member("x", "X")), m, {})
    with pytest.raises(UnboundVariableError, match="unbound set variable 'X'"):
        eval_finite(Ex1("x", Member("x", "X")), m, {})
    # the first operand's error comes first
    with pytest.raises(UnboundVariableError, match="'x'"):
        eval_finite(Member("x", "X"), m, {})


def test_eval_unbound_only_when_reached_in_quantifier_scopes():
    m = chain(3)  # worlds (), (0,), (0, 0), in this order
    env = {"E": set(), "G": {(), (0,)}}
    # the guard is false at every world
    for f in (All1("y", Impl(Member("y", "E"), Member("y", "U"))),
              Ex1("y", Conj(Member("y", "E"), Member("y", "U")))):
        assert eval_finite(f, m, env) is isinstance(f, All1)
        assert_agrees(f, m, env)
    # the loop ends at the root, before the world where `U` would be read
    for f in (All1("y", Impl(Member("y", "G"), Conj(Neg(NodeEq("y", ROOT)), Member("y", "U")))),
              Ex1("y", Conj(Member("y", "G"), Disj(NodeEq("y", ROOT), Member("y", "U"))))):
        assert eval_finite(f, m, env) is isinstance(f, Ex1)
        assert_agrees(f, m, env)
    # the guard holds at (0,), where `U` is read
    for f in (All1("y", Impl(Member("y", "G"), Disj(NodeEq("y", ROOT), Member("y", "U")))),
              Ex1("y", Conj(Member("y", "G"), Conj(Neg(NodeEq("y", ROOT)), Member("y", "U"))))):
        with pytest.raises(UnboundVariableError, match="unbound set variable 'U'"):
            eval_finite(f, m, env)
        assert_agrees(f, m, env)


def test_relation_tables_follow_the_word_definitions():
    m = Model.tree([(), (0,), (1,), (0, 0), (0, 1)])
    nodes = _Nodes(m.worlds)
    for word in ((0, 0, 0), (2,), (3, 4), (1, 0, 0), (0, 1)):  # all but (0, 1) outside the domain
        nodes.add(word)
    words = nodes.words
    assert len(words) == 9
    for atom in (PrefixLe, ImmediateLe, LexLe, NodeEq):
        below, above = nodes.relation(atom)
        assert len(below) == len(above) == len(words)
        for i, v in enumerate(words):
            for j, w in enumerate(words):
                holds = reference_eval_finite(atom("a", "b"), m, {"a": v, "b": w})
                assert below[j] >> i & 1 == above[i] >> j & 1 == holds, (atom, v, w)
        assert all(mask >> len(words) == 0 for mask in below + above)


def test_eval_binders_shadow():
    m = chain(3)
    # the inner binder of x is a set; the outer node x is out of scope there
    f = All1("x", Ex2("x", Member(ROOT, "x")))
    assert eval_finite(f, m, {}) is True
    assert_agrees(f, m, {})
    # a binder hides an environment entry of the other kind, and unhides it after
    g = Conj(Ex1("X", NodeEq("X", ROOT)), Member(ROOT, "X"))
    assert eval_finite(g, m, {"X": {()}}) is True
    assert_agrees(g, m, {"X": {()}})
    h = Ex1("y", Conj(Neg(NodeEq("y", ROOT)), All1("y", PrefixLe(ROOT, "y"))))
    assert eval_finite(h, m, {}) is True


def test_eval_root_always_denotes_the_root():
    m = chain(3)
    env = {ROOT: (0, 0), "r": ()}
    assert eval_finite(NodeEq(ROOT, "r"), m, env) is True
    assert eval_finite(All1(ROOT, NodeEq(ROOT, "r")), m, env) is True
    # as a set variable, `root` is an ordinary name
    assert eval_finite(Ex2(ROOT, Member("r", ROOT)), m, {"r": ()}) is True
    for f in (NodeEq(ROOT, "r"), All1(ROOT, NodeEq(ROOT, "r")), Ex2(ROOT, Member("r", ROOT))):
        assert_agrees(f, m, env)


def test_eval_kind_errors():
    m = chain(2)
    with pytest.raises(UnboundVariableError, match="'X' is bound to a set, not a node"):
        eval_finite(Member("X", "X"), m, {"X": set()})
    with pytest.raises(UnboundVariableError, match="'x' is bound to a node, not a set"):
        eval_finite(Member("x", "x"), m, {"x": ()})
    with pytest.raises(UnboundVariableError, match="'y' is bound to a node, not a set"):
        eval_finite(All1("y", Subset("y", "y")), m, {})
    for f, env in ((Member("X", "X"), {"X": set()}), (Member("x", "x"), {"x": ()}),
                   (All1("y", Subset("y", "y")), {})):
        assert_agrees(f, m, env)
    with pytest.raises(ValueError, match="must be a node"):
        eval_finite(Falsum(), m, {"x": [0]})


# --- one compiled program per formula, reused while its key holds ---------------

FIVE = Model.tree([(), (0,), (1,), (0, 0), (0, 1)])


def count_compiles(monkeypatch):
    """A function that counts how often the evaluator has compiled `f` whole."""
    compiled, compile_ = [], mso._compile

    def spy(g, *rest):
        compiled.append(g)
        return compile_(g, *rest)

    monkeypatch.setattr(mso, "_compile", spy)
    return lambda f: sum(g is f for g in compiled)


def test_a_sweep_over_a_tree_compiles_once(monkeypatch):
    compiles = count_compiles(monkeypatch)
    for formula, mode in ((WEM_TO_LIN, INT), (QEM, INT), (parse_formula("dia box p", S4), S4)):
        t = translate_at(formula, "x", mode)
        env = {"T": set(FIVE.worlds), "X_p": {(0, 1)}}
        for w in FIVE.worlds:
            assert_agrees(t, FIVE, {**env, "x": w})
        assert compiles(t) == 1


def test_another_key_compiles_again(monkeypatch):
    compiles = count_compiles(monkeypatch)
    t = translate_at(QEM, "x", INT)
    first = {"T": set(FIVE.worlds), "x": (0,)}
    others = [
        (chain(5), {"T": set(chain(5).worlds), "x": (0,)}),  # another tree
        (FIVE, {"T": set(FIVE.worlds), "x": {(0,)}}),  # a name bound to the other kind
        (FIVE, {"x": (0,), "T": set(FIVE.worlds)}),  # another order
        (FIVE, {"T": set(FIVE.worlds) | {(7,)}, "x": (0,)}),  # a new word outside the domain
        # the same words, one of them outside the domain
        (Model.tree([(), (0,), (0, 0), (0, 1)]), {"T": set(FIVE.worlds), "x": (0,)}),
    ]
    for runs, (m, env) in enumerate(others, 1):
        assert_agrees(t, FIVE, first)
        assert_agrees(t, FIVE, {**first, "x": (1,)})  # the same key: no compile
        assert_agrees(t, m, env)
        assert compiles(t) == 2 * runs, env


def test_evaluation_leaves_the_formula_as_it_was():
    t, twin = translate_at(WEM_TO_LIN, "x", INT), translate_at(WEM_TO_LIN, "x", INT)
    before = hash(t), repr(t), emit(t)
    for w in FIVE.worlds:
        assert eval_finite(t, FIVE, {"T": set(FIVE.worlds), "x": w}) is True
    assert t == twin and twin == t
    assert (hash(t), repr(t), emit(t)) == before == (hash(twin), repr(twin), emit(twin))


def test_a_compiled_program_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        for formula, mode in ((WEM_TO_LIN, INT), (parse_formula("dia box p", S4), S4)):
            t = translate_at(formula, "x", mode)
            for w in FIVE.worlds:
                eval_finite(t, FIVE, {"T": set(FIVE.worlds), "X_p": {w}, "x": w})
        del t
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_threads_share_one_formula_object():
    t = translate_at(parse_formula("forall q (p | q | ~q) | ~p"), "x", INT)
    trees = list(enumerate_trees(4))[:4]
    cases = [(m, {"T": set(m.worlds), "X_p": {m.worlds[-1]}, "x": w}) for m in trees for w in m.worlds]
    expected = [reference_eval_finite(t, m, env) for m, env in cases]
    assert len(set(expected)) == 2
    results = {}

    def sweep(i):
        got = []
        for _ in range(30):
            for m, env in cases[i::4]:
                got.append(eval_finite(t, m, env))
        results[i] = got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(4):
        assert results[i] == expected[i::4] * 30


def test_a_compiled_program_still_refuses_bad_input():
    t = translate_at(QEM, "x", INT)
    env = {"T": set(FIVE.worlds), "x": ()}
    assert eval_finite(t, FIVE, env) is False
    with pytest.raises(ValueError, match="must be a node"):
        eval_finite(t, FIVE, {**env, "x": [0]})
    with pytest.raises(ValueError, match="defined over tree models"):
        eval_finite(t, Model.poset(["a", "b"], [("a", "b")]), env)
