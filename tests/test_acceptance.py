"""Acceptance suite: one test per criterion, at the stated sizes and with
exact equality everywhere.  Each test prints a single pass line on success;
a failure surfaces as an ordinary assertion error."""

import random
from fractions import Fraction
from pathlib import Path

from helpers import random_formula, random_model, random_tree, with_assignment
from qptrees.embedding import box_closure_valuation, t_embed
from qptrees.formula import (
    INT,
    S4,
    And,
    Exists,
    Forall,
    Implies,
    Or,
    parse_formula,
    print_formula,
)
from qptrees.godel import chain_correspondence, evenly_spaced, godel_eval, make_truth_values
from qptrees.kripke import chain, enumerate_upsets, upward_closure
from qptrees.mso import LogicClass, emit, eval_finite, translate_at, validity_sentence
from qptrees.search import SearchBounds, bounded_validity, enumerate_trees
from qptrees.semantics import extension_int, extension_s4, validates
from qptrees.suite import NOT_NOT_QEM, NOT_QEM, QEM, WEM_TO_LIN, diamond_model

GOLDEN = Path(__file__).parent / "golden"


def done(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_c1_separation_suite():
    # (a) the diamond refutes the weak-excluded-middle-to-linearity implication
    assert validates(diamond_model(), WEM_TO_LIN) is False
    # (b) no finite tree with up to 7 worlds refutes it
    assert bounded_validity(WEM_TO_LIN, SearchBounds(7, "finite-trees")).countermodel is None
    # (c) the one-node tree refutes ~QEM
    out = bounded_validity(NOT_QEM, SearchBounds(7, "finite-trees"))
    assert out.countermodel is not None and out.countermodel.worlds == ((),)
    # (d) no finite tree with up to 7 worlds refutes ~~QEM
    assert bounded_validity(NOT_NOT_QEM, SearchBounds(7, "finite-trees")).countermodel is None
    # (e) the extension of QEM is the leaf set on 50 random trees
    rng = random.Random(101)
    for _ in range(50):
        m = random_tree(rng, 8)
        assert extension_int(m, QEM) == m.leaves()
    done("c1 separation suite")


def test_c2_extension_algebra():
    rng = random.Random(102)
    for _ in range(300):
        m = random_model(rng, 6)
        a = random_formula(rng, 3, quantifiers=1)
        b = random_formula(rng, 3, quantifiers=1)
        ea = extension_int(m, a)
        eb = extension_int(m, b)
        # conjunction and disjunction are intersection and union
        assert extension_int(m, And(a, b)) == ea & eb
        assert extension_int(m, Or(a, b)) == ea | eb
        # implication collects the worlds all of whose successors respect it
        impl = extension_int(m, Implies(a, b))
        assert impl == frozenset(
            h for h in m.worlds
            if all(h2 not in ea or h2 in eb for h2 in m.above(h))
        )
        # the quantifiers intersect and unite over all propositions
        caps, cups = frozenset(m.worlds), frozenset()
        for prop in enumerate_upsets(m):
            sub = extension_int(with_assignment(m, "p", prop), a)
            caps &= sub
            cups |= sub
        assert extension_int(m, Forall("p", a)) == caps
        assert extension_int(m, Exists("p", a)) == cups
        # every extension is a proposition
        assert upward_closure(m, ea) == ea
    done("c2 extension algebra (300 random pairs, six identities)")


def test_c3_t_embedding():
    rng = random.Random(103)
    for _ in range(200):
        m = random_model(rng, 5, mode=INT)
        f = random_formula(rng, 3, closed=True, quantifiers=2)
        assert validates(m, f) == validates(m.with_mode(S4), t_embed(f))
    for _ in range(100):
        m = random_model(rng, 5, mode=S4)
        image = t_embed(random_formula(rng, 3, quantifiers=1))
        assert validates(m, image) == validates(box_closure_valuation(m), image)
    done("c3 t-embedding equivalence (200 pairs + 100 closure models)")


def test_c4_mso_oracle_agreement():
    rng = random.Random(104)
    for mode, count in ((INT, 75), (S4, 75)):
        for _ in range(count):
            m = random_tree(rng, 5, mode=mode, variables=("p", "q"))
            f = random_formula(rng, 3, lang=mode, scope=("p", "q"), quantifiers=2)
            translated = translate_at(f, "x", mode)
            env = {"T": set(m.worlds)}
            for v, image in m.valuation.items():
                env["X_" + v] = image
            agreed = {
                h for h in m.worlds if eval_finite(translated, m, {**env, "x": h})
            }
            expected = extension_int(m, f) if mode == INT else extension_s4(m, f)
            assert agreed == expected, print_formula(f)
    done("c4 second-order oracle agreement (150 pairs, both modes)")


def test_c5_golden_sentences():
    fixtures = {
        "impl_bot": "bot -> bot",
        "qem": "forall p (p | ~p)",
        "nn_qem": "~~(forall p (p | ~p))",
        "wem_lin": "forall p (~p | ~~p) -> forall p forall q ((p -> q) | (q -> p))",
    }
    for key, text in fixtures.items():
        f = parse_formula(text)
        for cname in ("qpHt", "qpHt-2", "qpHt-fin", "qpHt-omega"):
            expected = (GOLDEN / f"{key}__{cname}.txt").read_bytes()
            got = (emit(validity_sentence(f, LogicClass.parse(cname))) + "\n").encode()
            assert got == expected
    done("c5 golden validity sentences (4 formulas x 4 classes)")


def test_c6_godel():
    lc = parse_formula("(p -> q) | (q -> p)")
    rng = random.Random(106)
    # (a) the linearity axiom evaluates to 1 everywhere
    for _ in range(1000):
        extra = {Fraction(rng.randint(1, 99), 100) for _ in range(rng.randint(0, 4))}
        values = make_truth_values({0, 1} | extra)
        valuation = {v: rng.choice(values) for v in ("p", "q")}
        assert godel_eval(valuation, lc, values) == 1
    # (b) quantified excluded middle is exactly 1/2 over three values
    assert godel_eval({}, QEM, evenly_spaced(2)) == Fraction(1, 2)
    # (c) chain validity and many-valued validity agree
    for _ in range(100):
        k = rng.randint(1, 5)
        f = random_formula(rng, 3, closed=True, quantifiers=2)
        a, b = chain_correspondence(k, f)
        assert a == b
    done("c6 many-valued suite (1000 + 1 + 100 checks)")


def test_c7_enumeration_oracle():
    from helpers import brute_force_tree_shapes, rooted_tree_count

    expected = [1, 1, 2, 4, 9, 20]
    for n in range(1, 7):
        models = list(enumerate_trees(n))
        assert len(models) == expected[n - 1]
        assert len(models) == len(brute_force_tree_shapes(n))
        assert len(models) == rooted_tree_count(n)
    for n in range(1, 13):
        assert sum(1 for _ in enumerate_upsets(chain(n))) == n + 1
    done("c7 enumeration oracles (trees to 6, chain upsets to 12)")


def test_c8_parser_round_trip():
    rng = random.Random(108)
    for _ in range(1000):
        lang = INT if rng.random() < 0.5 else S4
        f = random_formula(rng, 4, lang=lang, quantifiers=3)
        assert parse_formula(print_formula(f), lang) == f
    done("c8 parser round trip (1000 random syntax trees)")
