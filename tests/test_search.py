import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from helpers import (
    brute_force_poset_forms,
    brute_force_tree_shapes,
    model_order_matrix,
    poset_canonical,
    random_formula,
    rooted_tree_count,
)
from qptrees.formula import INT, S4, OpenFormulaError, LanguageError, Var, parse_formula
from qptrees import search
from qptrees.embedding import t_embed
from qptrees.kripke import Forest, Model, chain, dump_model
from qptrees.search import (
    FOREST_WORLDS,
    SearchBoundError,
    SearchBounds,
    _model_forests,
    _tree_forests,
    bounded_validity,
    enumerate_posets,
    enumerate_trees,
)
from qptrees.semantics import extension_int, extension_s4, forest_extension, validates
from qptrees.suite import NOT_NOT_QEM, NOT_QEM, WEM_TO_LIN, diamond_model


def ahu(m):
    children = {w: [] for w in m.worlds}
    for w in m.worlds:
        if w:
            children[w[:-1]].append(w)

    def encode(w):
        return tuple(sorted(encode(c) for c in children[w]))

    return encode(())


def test_tree_counts_match_brute_force():
    for n in range(1, 7):
        got = list(enumerate_trees(n))
        assert len(got) == len(brute_force_tree_shapes(n))
        assert {ahu(m) for m in got} == brute_force_tree_shapes(n)


def test_tree_counts_match_recurrence():
    assert [rooted_tree_count(n) for n in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_trees(n)) == rooted_tree_count(n)


def test_three_node_trees():
    got = [sorted(m.worlds) for m in enumerate_trees(3)]
    assert len(got) == 2
    assert sorted(map(tuple, got)) == [
        (((), (0,), (0, 0))),
        (((), (0,), (1,))),
    ]


def test_four_node_trees():
    got = list(enumerate_trees(4))
    assert len(got) == 4
    shapes = {ahu(m) for m in got}
    path = ((((),),),)
    star = ((), (), ())
    chair = ((), ((),))
    deep_fork = (((), ()),)
    assert shapes == {path, star, chair, deep_fork}


def test_enumerated_trees_are_valid_and_canonical():
    for n in range(1, 10):
        for mode in ("int", "s4"):
            for m in enumerate_trees(n, mode):
                assert len(m.worlds) == n
                assert m.root == ()
                # rebuilding through the validating constructor gives the same
                # sorted worlds and the same order masks
                assert Model.tree(m.worlds, {}, mode) == m


def test_tree_enumeration_deterministic():
    first = [m.worlds for m in enumerate_trees(5)]
    second = [m.worlds for m in enumerate_trees(5)]
    assert first == second


def test_poset_counts():
    assert [sum(1 for _ in enumerate_posets(n)) for n in range(1, 7)] == [
        1, 1, 2, 5, 16, 63,
    ]


def test_poset_enumeration_matches_brute_force():
    for n in range(1, 5):
        got = list(enumerate_posets(n))
        expected_forms = brute_force_poset_forms(n)
        assert len(got) == len(expected_forms)
        assert {
            poset_canonical(model_order_matrix(m)) for m in got
        } == expected_forms


def test_posets_include_the_diamond():
    diamond = poset_canonical(model_order_matrix(diamond_model()))
    forms = {poset_canonical(model_order_matrix(m)) for m in enumerate_posets(4)}
    assert diamond in forms


def test_enumerated_posets_have_least_elements():
    for n in range(1, 6):
        for m in enumerate_posets(n):
            assert m.above(m.root) == frozenset(m.worlds)


def test_poset_cap():
    with pytest.raises(SearchBoundError):
        list(enumerate_posets(7))
    with pytest.raises(SearchBoundError):
        list(enumerate_posets(0))


def test_bounds_validation():
    with pytest.raises(SearchBoundError):
        SearchBounds(0, "finite-trees")
    with pytest.raises(SearchBoundError):
        SearchBounds(3, "lattices")
    with pytest.raises(SearchBoundError):
        bounded_validity(NOT_QEM, SearchBounds(7, "finite-posets"))


def test_not_qem_countermodel_is_unit_tree():
    out = bounded_validity(NOT_QEM, SearchBounds(3, "finite-trees"))
    assert out.countermodel is not None
    assert out.countermodel.worlds == ((),)


def test_not_not_qem_has_no_finite_tree_countermodel():
    out = bounded_validity(NOT_NOT_QEM, SearchBounds(6, "finite-trees"))
    assert out.countermodel is None
    assert out.bounds == SearchBounds(6, "finite-trees")


def test_separating_formula_poset_countermodel_is_diamond():
    out = bounded_validity(WEM_TO_LIN, SearchBounds(4, "finite-posets"))
    m = out.countermodel
    assert m is not None and len(m.worlds) == 4
    assert poset_canonical(model_order_matrix(m)) == poset_canonical(
        model_order_matrix(diamond_model())
    )


def test_separating_formula_valid_on_small_trees():
    out = bounded_validity(WEM_TO_LIN, SearchBounds(6, "finite-trees"))
    assert out.countermodel is None


def test_chain_class():
    out = bounded_validity(NOT_QEM, SearchBounds(4, "chains"))
    assert out.countermodel is not None and len(out.countermodel.worlds) == 1
    linear = parse_formula("forall p forall q ((p -> q) | (q -> p))")
    assert bounded_validity(linear, SearchBounds(6, "chains")).countermodel is None
    # on general trees linearity fails as soon as there are two branches
    out = bounded_validity(linear, SearchBounds(3, "finite-trees"))
    assert out.countermodel is not None
    assert sorted(out.countermodel.worlds) == [(), (0,), (1,)]


def test_countermodels_are_sound_and_deterministic():
    rng = random.Random(71)
    for _ in range(25):
        f = random_formula(rng, 3, closed=True, quantifiers=2)
        for cls, cap in (("finite-trees", 4), ("finite-posets", 4), ("chains", 5)):
            first = bounded_validity(f, SearchBounds(cap, cls))
            second = bounded_validity(f, SearchBounds(cap, cls))
            if first.countermodel is None:
                assert second.countermodel is None
            else:
                assert first.countermodel == second.countermodel
                assert validates(first.countermodel, f) is False


def test_s4_mode_search():
    from qptrees.embedding import t_embed

    out = bounded_validity(t_embed(NOT_QEM), SearchBounds(3, "finite-trees"), mode="s4")
    assert out.countermodel is not None
    assert out.countermodel.mode == "s4"
    assert validates(out.countermodel, t_embed(NOT_QEM)) is False


def test_search_input_checks():
    with pytest.raises(OpenFormulaError):
        bounded_validity(Var("p"), SearchBounds(3, "finite-trees"))
    closed_modal = parse_formula("box (bot -> bot)", "s4")
    with pytest.raises(LanguageError):
        bounded_validity(closed_modal, SearchBounds(3, "finite-trees"), mode="int")
    assert (
        bounded_validity(closed_modal, SearchBounds(3, "finite-trees"), mode="s4").countermodel
        is None
    )


# --- forests: each size class is evaluated at once ------------------------------

FOREST_PINNED = [
    "forall p (~p | ~~p) -> forall p forall q ((p -> q) | (q -> p))",  # w=2
    "forall p exists q ((p -> q) & (q -> p | ~q))",  # w=2
    "~~(forall p (p | ~p))",
    "forall p ~~p -> exists p ~p",  # one-polarity quantifiers only
    "exists p (~p & forall q (q | ~q)) | forall p (p -> bot -> bot)",
]
FOREST_PINNED_S4 = [
    "forall p (box p -> p)",
    "forall p (dia box p -> box dia p)",  # w=1, refuted on two branches
    "forall p forall q (box (p -> q) -> box p -> box q)",  # w=2
    "exists p (p & ~box p) | forall p (box p | dia ~p)",
]


def first_countermodel(f, cls, cap, mode):
    """The reference the forest search must match: one structure at a time."""
    for n in range(1, cap + 1):
        if cls == "finite-trees":
            models = enumerate_trees(n, mode)
        elif cls == "finite-posets":
            models = enumerate_posets(n, mode)
        else:
            models = [chain(n, mode)]
        for m in models:
            if not validates(m, f):
                return m
    return None


def test_forest_search_matches_a_loop_over_structures():
    rng = random.Random(5150)
    plan = [
        ("finite-trees", INT, 6), ("finite-trees", S4, 4),
        ("finite-posets", INT, 4), ("finite-posets", S4, 4),
        ("chains", INT, 6), ("chains", S4, 6),
    ]
    refuted = set()
    for cls, mode, cap in plan:
        pinned = FOREST_PINNED + (FOREST_PINNED_S4 if mode == S4 else [])
        formulas = [parse_formula(text, mode) for text in pinned] + [
            random_formula(rng, 4, lang=mode, quantifiers=rng.choice((2, 3)), closed=True)
            for _ in range(25)
        ]
        for f in formulas:
            expected = first_countermodel(f, cls, cap, mode)
            assert bounded_validity(f, SearchBounds(cap, cls), mode).countermodel == expected, (
                cls, mode, f)
            if expected is not None:
                refuted.add(len(expected.worlds))
    assert max(refuted) >= 3  # not only one-world refutations


def component_masks(forest, mask):
    n = forest.size
    return [mask >> k * n & (1 << n) - 1 for k in range(forest.count)]


def check_forest_slices(forests, formulas, mode, enumerated):
    """Each component's slice of the forest extension is the extension on
    that structure alone, and the components are the enumerated structures
    in order."""
    extension = extension_int if mode == INT else extension_s4
    enumerated = list(enumerated)
    seen = 0
    for start, forest in forests:
        assert forest.count * forest.size <= FOREST_WORLDS or forest.count == 1
        assert start == seen
        seen += forest.count
        component = enumerated[start:seen]
        assert all(m.worlds[0] == m.root for m in component)
        for f in formulas:
            slices = component_masks(forest, forest_extension(forest, f, mode))
            for m, got in zip(component, slices, strict=True):
                assert m._set_of(got) == extension(m, f).worlds, (m, f)
    assert seen == len(enumerated)


def test_forest_extensions_are_the_extensions_of_their_components():
    int_formulas = [parse_formula(t) for t in ("forall p (p | ~p)", "~~(forall p (p | ~p))",
                                               "forall p (~p | ~~p)", "exists p (p & ~forall q (q | ~q))")]
    # 115 trees of 8 worlds, 920 worlds: more than one forest
    forests = _tree_forests(8)
    assert len(forests) == 2
    check_forest_slices(forests, int_formulas, INT, enumerate_trees(8))
    for n in range(1, 7):
        check_forest_slices(_tree_forests(n), int_formulas, INT, enumerate_trees(n))
    s4_formulas = [parse_formula(t, S4) for t in FOREST_PINNED_S4 + ["box forall p (p | ~p)"]]
    for n in range(1, 5):
        check_forest_slices(_tree_forests(n), s4_formulas, S4, enumerate_trees(n, S4))
    for n in range(1, 5):
        for mode, formulas in ((INT, int_formulas), (S4, s4_formulas)):
            posets = list(enumerate_posets(n, mode))
            check_forest_slices(_model_forests(posets, n), formulas, mode, posets)


def test_forest_of_models_with_valuations():
    from helpers import random_poset_model, random_tree_model

    rng = random.Random(44)
    for mode in (INT, S4):
        extension = extension_int if mode == INT else extension_s4
        for _ in range(10):
            models = []
            while len(models) < 6:
                make = random_tree_model if rng.random() < 0.5 else random_poset_model
                m = make(rng, 4, mode, ("p", "q"))
                if len(m.worlds) == 4:
                    models.append(m)
            forest = Forest.of(models)
            for _ in range(4):
                f = random_formula(rng, 3, lang=mode, scope=("p", "q"), quantifiers=2)
                slices = component_masks(forest, forest_extension(forest, f, mode))
                for m, got in zip(models, slices):
                    assert m._set_of(got) == extension(m, f).worlds, (m, f)


# --- the forests of each tree size are built once per process --------------------

TABLE_PLAN = [(INT, 8), (S4, 4), (INT, 3), (S4, 6)]
TABLE_FORMULAS = {
    INT: [
        "forall p (p | ~p)",  # refuted at 2 worlds
        "forall p forall q (q | (q -> (p | ~p)))",  # depth 2: refuted at 3
        "~~(forall p (p | ~p))",
        "forall p (~p | ~~p) -> forall p forall q ((p -> q) | (q -> p))",
    ],
    S4: [
        "forall p (p -> box p)",
        "forall p (dia box p -> box dia p)",
        "forall p (box p -> p)",
        "box (box (forall p (box p | box (box p -> box bot)) -> box bot) -> box bot)",  # ~~QEM embedded
    ],
}


def tree_searches(plan):
    """Per (mode, bound) of the plan, each formula's countermodel dumped, or None."""
    steps = []
    for mode, cap in plan:
        outcomes = [bounded_validity(parse_formula(text, mode), SearchBounds(cap, "finite-trees"), mode)
                    for text in TABLE_FORMULAS[mode]]
        steps.append([o.countermodel and dump_model(o.countermodel) for o in outcomes])
    return steps


@pytest.fixture
def fresh_table(monkeypatch):
    monkeypatch.setattr(search, "_shape_cache", {})
    monkeypatch.setattr(search, "_shape_data", [])


def test_a_later_search_builds_no_forest_and_zips_nothing(monkeypatch):
    f = parse_formula("~~(forall p (p | ~p))")
    bounds = SearchBounds(8, "finite-trees")
    first = bounded_validity(f, bounds)
    built = []
    init = Forest.__init__
    monkeypatch.setattr(Forest, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(search, "_shape_upsets", built.append)
    assert bounded_validity(f, bounds) == first
    assert bounded_validity(t_embed(f), SearchBounds(6, "finite-trees"), S4).countermodel is None
    assert built == []


def test_interleaved_searches_match_a_fresh_process_in_reverse(fresh_table):
    forward = tree_searches(TABLE_PLAN)
    assert len(search._shape_cache[8][1]) == 2
    dumps = [dump for step in forward for dump in step]
    assert any(dumps) and None in dumps
    here = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, test_search\n"
         "plan = [tuple(step) for step in json.loads(sys.argv[1])]\n"
         "print(json.dumps(test_search.tree_searches(plan)))",
         json.dumps(TABLE_PLAN[::-1])],
        env={"PYTHONPATH": f"{here.parent / 'src'}{os.pathsep}{here}"},
        capture_output=True, text=True, cwd=here, check=True,
    )
    assert forward == json.loads(done.stdout)[::-1]


def test_countermodel_takes_the_requested_mode_from_a_shared_table(fresh_table):
    bounds = SearchBounds(4, "finite-trees")
    for filling, refuted, mode in (("forall p (box p -> p)", "forall p (p | ~p)", INT),
                                   ("~~(forall p (p | ~p))", "forall p (p -> box p)", S4)):
        other = S4 if mode == INT else INT
        assert bounded_validity(parse_formula(filling, other), bounds, other).countermodel is None
        assert bounded_validity(parse_formula(refuted, mode), bounds, mode).countermodel.mode == mode


def test_forest_zips_its_propositions_once_and_drops_their_source(fresh_table):
    for forest_start, forest in _tree_forests(8):
        source = weakref.ref(forest._upsets)
        first = forest.propositions(False)
        assert source() is None and forest._upsets is None
        assert forest.propositions(False) == first
        assert forest.propositions(False) is first
        # every component meets each of its own upsets
        models = list(enumerate_trees(8))[forest_start:forest_start + forest.count]
        for k, m in enumerate(models):
            local = {p >> k * 8 & m._full for p in first}
            assert local == set(m._upset_masks())
