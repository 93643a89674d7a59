import contextlib
import io
import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import random_formula
from qptrees.cli import run
from qptrees.formula import (
    And,
    Bottom,
    Box,
    Exists,
    Forall,
    Implies,
    LanguageError,
    OpenFormulaError,
    Or,
    UnboundVariableError,
    Var,
    free_vars,
    parse_formula,
    print_formula,
)
from qptrees.godel import (
    TruthValueSet,
    chain_correspondence,
    evenly_spaced,
    godel_eval,
    make_truth_values,
    parse_truth_values,
    refuting_valuation,
)
from qptrees.suite import QEM

LC_INSTANCE = parse_formula("(p -> q) | (q -> p)")
HALF = Fraction(1, 2)


def test_truth_value_set_validation():
    assert make_truth_values(["0", "1/2", "1"]) == (0, HALF, 1)
    with pytest.raises(ValueError):
        make_truth_values(["0", "1/2"])  # missing 1
    with pytest.raises(ValueError):
        make_truth_values(["1/2", "1"])  # missing 0
    with pytest.raises(ValueError):
        make_truth_values(["0", "1", "3/2"])
    assert parse_truth_values("0, 1/3 ,1") == (0, Fraction(1, 3), 1)
    with pytest.raises(ValueError):
        parse_truth_values("0,1/0,1")


def test_library_strings_are_read_as_on_the_command_line():
    values = make_truth_values(["0", " 1/2", 1, Fraction(1, 4), "0.75"])
    assert values == (0, Fraction(1, 4), HALF, Fraction(3, 4), 1)
    assert godel_eval({"p": "1/2 "}, Var("p"), values) == HALF
    # a zero denominator and an exponent are bad values, not a crash or a
    # power of ten with 20000 digits
    for text in ("1/0", "1e-20000"):
        with pytest.raises(ValueError, match="bad truth value"):
            make_truth_values(["0", text, "1"])
        with pytest.raises(ValueError, match="bad truth value"):
            godel_eval({"p": text}, Var("p"), ["0", "1"])


def test_library_callers_get_a_validated_set_once():
    # unsorted, duplicate, string and Fraction values give the sorted set
    values = make_truth_values([1, "1/2", Fraction(1, 2), 0, "0.5", 1])
    assert values == (0, HALF, 1) and type(values) is TruthValueSet
    assert make_truth_values(values) is values  # a validated set passes through
    assert parse_truth_values("1,1/2,0") == values
    f = parse_formula("p | ~p")
    for given in ([1, "1/2", 0, "0.5"], ("1", HALF, "0"), {0, HALF, 1}, values):
        assert godel_eval({"p": "1/2"}, f, given) == HALF
        assert refuting_valuation(f, given) == ({"p": HALF}, HALF)
    # out of range, missing 0 or 1, and bad strings keep their errors
    for given, message in (
        ([0, HALF, 1, "3/2"], "truth values must lie in \\[0, 1\\]"),
        ([-1, 0, 1], "truth values must lie in \\[0, 1\\]"),
        ([HALF, 1, 1], "a truth-value set must contain 0 and 1"),
        ((), "a truth-value set must contain 0 and 1"),
        (["0", "1/x", "1"], "bad truth value '1/x'"),
    ):
        for call in (make_truth_values, TruthValueSet,
                     lambda vs: godel_eval({}, Bottom(), vs), lambda vs: refuting_valuation(f, vs)):
            with pytest.raises(ValueError, match=message):
                call(given)


def test_evenly_spaced():
    assert evenly_spaced(1) == (0, 1)
    assert evenly_spaced(4) == (0, Fraction(1, 4), HALF, Fraction(3, 4), 1)


def test_implication_clause():
    v3 = make_truth_values(["0", "1/2", "1"])
    assert godel_eval({"p": HALF, "q": 1}, parse_formula("p -> q"), v3) == 1
    assert godel_eval({"p": 1, "q": HALF}, parse_formula("p -> q"), v3) == HALF
    assert godel_eval({"p": HALF, "q": HALF}, parse_formula("p -> q"), v3) == 1


def test_min_max_and_negation():
    v3 = make_truth_values(["0", "1/2", "1"])
    assert godel_eval({"p": HALF, "q": 1}, parse_formula("p & q"), v3) == HALF
    assert godel_eval({"p": HALF, "q": 1}, parse_formula("p | q"), v3) == 1
    assert godel_eval({"p": HALF}, parse_formula("~p"), v3) == 0
    assert godel_eval({"p": 0}, parse_formula("~p"), v3) == 1
    assert godel_eval({}, parse_formula("bot"), v3) == 0


def test_quantified_excluded_middle_on_three_values():
    assert godel_eval({}, QEM, ["0", "1/2", "1"]) == HALF


def test_quantifiers_attain_min_and_max():
    v4 = make_truth_values(["0", "1/3", "2/3", "1"])
    assert godel_eval({}, parse_formula("exists p p"), v4) == 1
    assert godel_eval({}, parse_formula("forall p p"), v4) == 0
    assert godel_eval({}, parse_formula("exists p (p & ~~p)"), v4) == 1


def test_linearity_instance_always_one():
    rng = random.Random(61)
    for _ in range(200):
        k = rng.randint(1, 6)
        values = evenly_spaced(k)
        valuation = {v: rng.choice(values) for v in ("p", "q")}
        assert godel_eval(valuation, LC_INSTANCE, values) == 1


def test_linearity_schema_always_one():
    # (A -> B) | (B -> A) for random subformulas A, B and irregular sets
    from qptrees.formula import Implies, Or

    rng = random.Random(62)
    for _ in range(100):
        values = random_values(rng)
        a = random_formula(rng, 2, quantifiers=1)
        b = random_formula(rng, 2, quantifiers=1)
        schema = Or(Implies(a, b), Implies(b, a))
        valuation = {v: rng.choice(values) for v in ("p", "q", "r")}
        assert godel_eval(valuation, schema, values) == 1


def random_values(rng):
    extra = {Fraction(rng.randint(1, 99), 100) for _ in range(rng.randint(0, 4))}
    return make_truth_values({0, 1} | extra)


def test_closure_under_evaluation():
    rng = random.Random(63)
    for _ in range(100):
        values = random_values(rng)
        f = random_formula(rng, 3, quantifiers=2)
        valuation = {v: rng.choice(values) for v in ("p", "q", "r")}
        assert godel_eval(valuation, f, values) in values


def test_exact_rationals_not_floats():
    got = godel_eval({"p": Fraction(1, 3)}, Var("p"), ["0", "1/3", "1"])
    assert isinstance(got, Fraction) and got == Fraction(1, 3)


def test_valuation_must_map_into_the_set():
    with pytest.raises(ValueError):
        godel_eval({"p": HALF}, Var("p"), ["0", "1"])


def test_unbound_and_modal_errors():
    with pytest.raises(UnboundVariableError):
        godel_eval({}, Var("p"), ["0", "1"])
    with pytest.raises(LanguageError):
        godel_eval({}, Box(Var("p")), ["0", "1"])
    with pytest.raises(LanguageError):
        refuting_valuation(Box(Var("p")), ["0", "1"])
    with pytest.raises(ValueError):
        refuting_valuation(Var("p"), ["0", "1/2"])


def test_chain_correspondence_k1():
    assert chain_correspondence(1, QEM) == (True, True)


def test_chain_correspondence_k2():
    assert chain_correspondence(2, QEM) == (False, False)


def test_chain_correspondence_linearity():
    closed_lc = parse_formula("forall p forall q ((p -> q) | (q -> p))")
    for k in range(1, 6):
        assert chain_correspondence(k, closed_lc) == (True, True)


def test_chain_correspondence_agrees_on_random_formulas():
    rng = random.Random(64)
    for _ in range(60):
        k = rng.randint(1, 5)
        f = random_formula(rng, 3, closed=True, quantifiers=2)
        a, b = chain_correspondence(k, f)
        assert a == b


def test_chain_correspondence_input_checks():
    with pytest.raises(OpenFormulaError):
        chain_correspondence(2, Var("p"))
    with pytest.raises(ValueError):
        chain_correspondence(0, QEM)


def test_order_isomorphic_sets_same_tautologies():
    # only the order structure of the truth-value set matters
    rng = random.Random(65)
    regular = evenly_spaced(3)
    irregular = make_truth_values(["0", "1/10", "9/10", "1"])
    for _ in range(80):
        f = random_formula(rng, 3, closed=True, quantifiers=2)
        assert (godel_eval({}, f, regular) == 1) == (godel_eval({}, f, irregular) == 1)


# --- ranks against rationals -------------------------------------------------------


def fraction_eval(f, val, values):
    """Goedel semantics computed on the rationals themselves."""
    if isinstance(f, Var):
        return val[f.name]
    if isinstance(f, Bottom):
        return Fraction(0)
    if isinstance(f, (And, Or, Implies)):
        a, b = fraction_eval(f.left, val, values), fraction_eval(f.right, val, values)
        if isinstance(f, And):
            return min(a, b)
        if isinstance(f, Or):
            return max(a, b)
        return Fraction(1) if a <= b else b
    assert isinstance(f, (Forall, Exists))
    pick = min if isinstance(f, Forall) else max
    return pick(fraction_eval(f.body, {**val, f.var: v}, values) for v in values)


VALUE_SETS = [
    make_truth_values(["0", "1/2", "1"]),
    evenly_spaced(4),
    evenly_spaced(7),
    make_truth_values(["0", "1/7", "2/3", "1"]),
]


def test_ranks_agree_with_rationals():
    rng = random.Random(20261020)
    for values in VALUE_SETS:
        for _ in range(150):
            f = random_formula(rng, 4, quantifiers=2)
            valuation = {v: rng.choice(values) for v in ("p", "q", "r")}
            assert godel_eval(valuation, f, values) == fraction_eval(f, valuation, values)


def brute_refutation(f, values):
    names = sorted(free_vars(f))
    for choice in product(values, repeat=len(names)):
        valuation = dict(zip(names, choice))
        result = fraction_eval(f, valuation, values)
        if result != 1:
            return valuation, result
    return None


def test_refuting_valuation_is_the_first_in_product_order():
    rng = random.Random(20261021)
    refuted = 0
    for values in VALUE_SETS:
        for _ in range(100):
            f = random_formula(rng, 4, quantifiers=2)
            got = refuting_valuation(f, values)
            assert got == brute_refutation(f, values)
            if got is not None:
                refuted += 1
                valuation, value = got
                assert list(valuation) == sorted(free_vars(f))
                assert all(isinstance(v, Fraction) for v in valuation.values())
    assert refuted > 100
    assert refuting_valuation(parse_formula("q -> p"), ["0", "1/2", "1"]) == (
        {"p": 0, "q": HALF},
        0,
    )


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def test_godel_command_matches_a_brute_loop():
    rng = random.Random(20261022)
    for values in VALUE_SETS:
        text = ",".join(str(v) for v in values)
        for _ in range(25):
            f = random_formula(rng, 4, quantifiers=2)
            shown = print_formula(f)
            lines = [f"FORMULA: {shown}", f"VALUES: {text}"]
            names = sorted(free_vars(f))
            expected = 0, lines + ["TAUTOLOGY: yes"]
            for choice in product(values, repeat=len(names)):
                result = godel_eval(dict(zip(names, choice)), f, values)
                if result != 1:
                    witness = ["WITNESS: " + ",".join(f"{n}={v}" for n, v in zip(names, choice))]
                    expected = 1, lines + ["TAUTOLOGY: no"] + witness * bool(names) + [f"VALUE: {result}"]
                    break
            code, out = cli_stdout(["godel", "--formula", shown, "--values", text])
            assert (code, out) == (expected[0], "".join(line + "\n" for line in expected[1]))
