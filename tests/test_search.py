import gc
import json
import os
import random
import subprocess
import sys
from itertools import islice, product
from pathlib import Path

import pytest

from helpers import (
    brute_force_poset_forms,
    brute_force_tree_shapes,
    model_order_matrix,
    naive_forces_int,
    naive_forces_s4,
    poset_canonical,
    random_formula,
    reference_posets,
    rooted_tree_count,
)
from qptrees.formula import (
    EXISTS, FORALL, INT, S4, LanguageError, OpenFormulaError, Var, compile_formula, parse_formula,
)
from qptrees import cli, kripke, search
from qptrees.embedding import t_embed
from qptrees.kripke import Forest, Model, chain, dump_model, load_model
from qptrees.search import (
    FOREST_WORLDS,
    SearchBoundError,
    SearchBounds,
    _model_forests,
    _tree_forests,
    _words,
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


def test_posets_come_in_the_reference_order():
    # labels and edges of printed countermodels are read off this order
    for mode, top in (("int", 6), ("s4", 5)):
        for n in range(1, top + 1):
            assert list(enumerate_posets(n, mode)) == list(reference_posets(n, mode))


def test_enumerated_posets_survive_a_round_trip_through_the_file_format():
    # the enumeration builds its masks directly; the file format goes through Model.poset
    for mode in ("int", "s4"):
        for n in range(1, 7):
            for m in enumerate_posets(n, mode):
                assert load_model(dump_model(m)) == m, dump_model(m)


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


def test_bounds_refuse_a_bool_world_count():
    with pytest.raises(SearchBoundError):
        SearchBounds(True, "chains")


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


def test_the_countermodel_is_the_first_refuted_structure_of_its_forest():
    # refuted where the order branches and a chain of three worlds starts at
    # the root: first at 4 worlds, on several structures of one forest
    f = parse_formula(f"forall p forall q ((p -> q) | (q -> p)) | {depth_formula(3)}")
    for cls, mode, g in (("finite-trees", INT, f), ("finite-trees", S4, t_embed(f)),
                         ("finite-posets", INT, f), ("finite-posets", S4, t_embed(f))):
        structures = list((enumerate_trees if cls == "finite-trees" else enumerate_posets)(4, mode))
        refuted = [m for m in structures if not validates(m, g)]
        assert len(refuted) >= 2, (cls, mode)
        got = bounded_validity(g, SearchBounds(6, cls), mode).countermodel
        assert got == first_countermodel(g, cls, 6, mode) == refuted[0], (cls, mode)


def component_masks(forest, mask):
    n = forest.size
    return [mask >> k * n & (1 << n) - 1 for k in range(forest.starts.bit_count())]


def tree_forests_up_to(bound):
    return [pair for n in range(1, bound + 1) for pair in _tree_forests(n)]


def poset_forests_up_to(bound, mode):
    return [pair for n in range(1, bound + 1) for pair in _model_forests(n, enumerate_posets(n, mode))]


def structures_up_to(cls, bound, mode):
    if cls == "finite-trees":
        return [m for n in range(1, bound + 1) for m in enumerate_trees(n, mode)]
    return [m for n in range(1, bound + 1) for m in enumerate_posets(n, mode)]


def check_forest_slices(forests, formulas, mode, enumerated):
    """Each component's slice of the forest extension is the extension on
    that structure alone, and the components are the enumerated structures
    in order: tree forests name them by shape, model forests list them."""
    extension = extension_int if mode == INT else extension_s4
    enumerated = list(enumerated)
    seen = 0
    for items, forest in forests:
        assert forest.full.bit_length() <= FOREST_WORLDS or forest.starts == 1
        component = enumerated[seen:seen + len(items)]
        assert [m if isinstance(m, Model) else Model.tree(_words(m), None, mode) for m in items] == component
        seen += len(items)
        assert [len(m.worlds) for m in component] == [forest.size] * forest.starts.bit_count()
        assert all(m.worlds[0] == m.root for m in component)
        for f in formulas:
            slices = component_masks(forest, forest_extension(forest, f, mode))
            for m, got in zip(component, slices, strict=True):
                assert m._set_of(got) == extension(m, f), (m, f)
    assert seen == len(enumerated)


def test_forest_extensions_are_the_extensions_of_their_components():
    int_formulas = [parse_formula(t) for t in ("forall p (p | ~p)", "~~(forall p (p | ~p))",
                                               "forall p (~p | ~~p)", "exists p (p & ~forall q (q | ~q))")]
    # the 115 trees of 8 worlds, 920 worlds, are split over two forests
    check_forest_slices(tree_forests_up_to(8), int_formulas, INT, structures_up_to("finite-trees", 8, INT))
    s4_formulas = [parse_formula(t, S4) for t in FOREST_PINNED_S4 + ["box forall p (p | ~p)"]]
    check_forest_slices(tree_forests_up_to(5), s4_formulas, S4, structures_up_to("finite-trees", 5, S4))
    for mode, formulas in ((INT, int_formulas), (S4, s4_formulas)):
        check_forest_slices(poset_forests_up_to(4, mode), formulas, mode, structures_up_to("finite-posets", 4, mode))


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


def test_a_later_search_builds_no_forest_and_zips_nothing(monkeypatch):
    f = parse_formula("~~(forall p (p | ~p))")
    bounds = SearchBounds(8, "finite-trees")
    first = bounded_validity(f, bounds)
    built = []
    init = Forest.__init__
    monkeypatch.setattr(Forest, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(Model, "_upset_masks", lambda self: built.append(self) or ())
    monkeypatch.setattr(kripke, "_upsets_of", lambda up: built.append(up) or ())
    assert bounded_validity(f, bounds) == first
    assert bounded_validity(t_embed(f), SearchBounds(6, "finite-trees"), S4).countermodel is None
    assert built == []


def test_interleaved_searches_match_a_fresh_process_in_reverse(fresh_table):
    forward = tree_searches(TABLE_PLAN)
    assert [len(shapes) for n in range(1, 9) for shapes, _ in search._shape_cache[n][1]] == [1, 1, 2, 4, 9, 20, 48, 64, 51]
    dumps = [dump for step in forward for dump in step]
    assert any(dumps) and None in dumps
    here = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-B", "-c",
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


def live_models():
    gc.collect()
    return sum(isinstance(o, Model) for o in gc.get_objects())


def test_forest_zips_its_propositions_once_and_drops_their_source(fresh_table):
    before = live_models()
    # a tree forest keeps its trees' successor masks, not their models, so
    # an S4 search alone keeps no tree's model
    reflexive = parse_formula("forall p (box p -> p)", S4)
    assert bounded_validity(reflexive, SearchBounds(10, "finite-trees"), S4).countermodel is None
    assert live_models() == before
    # and an intuitionistic search after it zips them in place of the masks
    bounds = SearchBounds(8, "finite-trees")
    assert bounded_validity(NOT_NOT_QEM, bounds).countermodel is None
    assert live_models() == before
    trees = iter(structures_up_to("finite-trees", 8, INT))
    for shapes, forest in tree_forests_up_to(8):
        assert forest._ups is None
        first = forest.propositions(False)
        assert forest.propositions(False) == first
        assert forest.propositions(False) is first
        # every component meets each of its own upsets
        offset = 0
        for m in islice(trees, len(shapes)):
            local = {p >> offset & m._full for p in first}
            assert local == set(m._upset_masks())
            offset += len(m.worlds)


def test_only_an_intuitionistic_search_zips_each_tree_forest_once(fresh_table, monkeypatch):
    calls = {"_upsets_of": [], "_zip_across": []}
    for name, seen in calls.items():
        real = getattr(kripke, name)
        monkeypatch.setattr(kripke, name, lambda *args, real=real, seen=seen: seen.append(args) or real(*args))
    bounds = SearchBounds(8, "finite-trees")
    # S4 quantifiers range over all subsets: no upset is listed
    assert bounded_validity(parse_formula("forall p (box p -> p)", S4), bounds, S4).countermodel is None
    assert calls == {"_upsets_of": [], "_zip_across": []}
    # the first intuitionistic search zips each forest once, from each tree's successor masks
    assert bounded_validity(NOT_NOT_QEM, bounds).countermodel is None
    forests = tree_forests_up_to(8)
    assert [size for size, _ in calls["_zip_across"]] == [forest.size for _, forest in forests]
    assert [up for up, in calls["_upsets_of"]] == [m._up for m in structures_up_to("finite-trees", 8, INT)]
    before = {name: len(seen) for name, seen in calls.items()}
    assert bounded_validity(NOT_NOT_QEM, bounds).countermodel is None
    assert bounded_validity(parse_formula("forall p (box p -> p)", S4), bounds, S4).countermodel is None
    assert {name: len(seen) for name, seen in calls.items()} == before


# --- the forests: one size class each, cut into runs ------------------------------


def per_size_layout(bound):
    """Shape runs of forests holding one size class each, split at
    FOREST_WORLDS // n trees."""
    runs = []
    for n in range(1, bound + 1):
        shapes = search._shapes(n)
        per = max(1, FOREST_WORLDS // n)
        runs += [shapes[k:k + per] for k in range(0, len(shapes), per)]
    return runs


def test_tree_forests_cut_each_size_class_into_runs():
    # 286 trees of 9 worlds in runs of 56, 719 of 10 in runs of 51
    above_seven = [336, 512, 408] + [504] * 5 + [54] + [510] * 14 + [50]
    forests = tree_forests_up_to(10)
    assert [forest.full.bit_length() for _, forest in forests] == [1, 2, 6, 16, 45, 120] + above_seven
    assert [shapes for shapes, _ in forests] == per_size_layout(10)


def depth_formula(k):
    """Refuted at the root of a tree exactly when a chain of k worlds starts there."""
    text = "forall p1 (p1 | ~p1)"
    for i in range(2, k):
        text = f"forall p{i} (p{i} | (p{i} -> {text}))"
    return text


@pytest.fixture
def evaluated(monkeypatch):
    """The forests the search evaluates, recorded."""
    forests = []

    def spy(forest, *args):
        forests.append(forest)
        return forest_extension(forest, *args)

    monkeypatch.setattr(search, "forest_extension", spy)
    return forests


def test_a_search_with_a_ranging_quantifier_stops_at_the_size_it_refutes(evaluated):
    texts = [depth_formula(k) for k in range(2, 7)] + ["forall p forall q ((p -> q) | (q -> p))"]
    for mode in (INT, S4):
        sizes = []
        for text in texts:
            f = parse_formula(text) if mode == INT else t_embed(parse_formula(text))
            evaluated.clear()
            got = bounded_validity(f, SearchBounds(8, "finite-trees"), mode).countermodel
            assert got == first_countermodel(f, "finite-trees", 8, mode), (mode, text)
            n = len(got.worlds)
            assert [forest.size for forest in evaluated] == list(range(1, n + 1))
            sizes.append(n)
        assert sizes == [2, 3, 4, 5, 6, 3]


def constant_formula(rng, mode):
    """A random closed formula whose quantifiers are all fixed at compile time."""
    while True:
        f = random_formula(rng, 4, lang=mode, scope=(), quantifiers=3, closed=True)
        table = compile_formula(f)
        if all(fix for op, fix in zip(table.ops, table.fixed) if op in (FORALL, EXISTS)):
            return f


def test_a_formula_with_no_ranging_quantifier_is_decided_at_one_world():
    # pointwise forcing, which tries every proposition, finds it constant
    rng = random.Random(11)
    structures = [m for mode in (INT, S4) for m in
                  structures_up_to("finite-trees", 4, mode) + structures_up_to("finite-posets", 4, mode)
                  + [chain(n, mode) for n in range(1, 6)]]
    verdicts = set()
    for _ in range(400):
        mode = rng.choice((INT, S4))
        f = constant_formula(rng, mode)
        naive = naive_forces_int if mode == INT else naive_forces_s4
        values = {naive(m, m.root, f) for m in structures if m.mode == mode}
        assert len(values) == 1, (mode, f)
        valid = values.pop()
        verdicts.add((mode, valid))
        for cls, bound in (("finite-trees", 10), ("finite-posets", 6), ("chains", 40)):
            got = bounded_validity(f, SearchBounds(bound, cls), mode).countermodel
            assert (got is None) == valid and (valid or len(got.worlds) == 1), (cls, mode, f)
    assert verdicts == {(INT, False), (INT, True), (S4, False), (S4, True)}


CONSTANTS = {"int": ("forall p (bot -> p) | exists q q", "forall p p | bot"),
             "s4": ("box forall p (p -> dia ~bot)", "dia forall p p")}


def test_a_constant_is_decided_on_one_world(evaluated, monkeypatch, capsys):
    posets = []

    def spy(n, mode=INT):
        posets.append(n)
        return enumerate_posets(n, mode)

    monkeypatch.setattr(search, "enumerate_posets", spy)
    for cls, bound in (("finite-trees", 10), ("finite-posets", 6), ("chains", 100000)):
        for mode, texts in CONSTANTS.items():
            for text, status in zip(texts, (0, 1)):
                evaluated.clear()
                assert cli.run(["decide", "--formula", text, "--class", cls, "--max", str(bound),
                                "--mode", mode]) == status, (cls, mode, text)
                assert [(forest.size, forest.starts) for forest in evaluated] == [(1, 1)]
                out = capsys.readouterr().out
                assert f"MAX-WORLDS: {bound}\n" in out
                assert ("OUTCOME: no-counterexample" if status == 0 else "OUTCOME: countermodel") in out
    assert posets == [1] * 4
    # a formula with a ranging quantifier runs to the bound
    evaluated.clear()
    assert cli.run(["decide", "--formula", "forall p (p -> p)", "--class", "finite-trees", "--max", "7"]) == 0
    assert [forest.size for forest in evaluated] == list(range(1, 8))
    assert "OUTCOME: no-counterexample" in capsys.readouterr().out
    # the input checks come first, in the same order in every class and mode
    evaluated.clear()
    for cls, mode in product(("finite-trees", "finite-posets", "chains"), (INT, S4)):
        capped = SearchBoundError if cls == "finite-posets" else None
        for text, error in (("box p", OpenFormulaError), ("box ~bot", LanguageError if mode == INT else capped),
                            ("~bot", capped)):
            if error is None:
                assert bounded_validity(parse_formula(text, S4), SearchBounds(7, cls), mode).countermodel is None
            else:
                with pytest.raises(error):
                    bounded_validity(parse_formula(text, S4), SearchBounds(7, cls), mode)
    assert [(forest.size, forest.starts) for forest in evaluated] == [(1, 1)] * 6 and posets == [1] * 4


def test_model_forests_hold_one_size_each():
    posets = [[len(m.worlds) for m in models] for models, _ in poset_forests_up_to(6, INT)]
    assert posets == [[1], [2], [3] * 2, [4] * 5, [5] * 16, [6] * 63]
    chains = [[len(m.worlds) for m in models] for n in range(1, 41) for models, _ in _model_forests(n, [chain(n)])]
    assert chains == [[n] for n in range(1, 41)]


def test_every_forest_built_holds_one_size(fresh_table, monkeypatch, tmp_path, capsys):
    built = []
    init = Forest.__init__

    def spy(self, models):
        models = list(models)
        init(self, models)
        built.append(({len(m.worlds) for m in models}, self.size))

    monkeypatch.setattr(Forest, "__init__", spy)
    f = parse_formula("forall p (p -> p)")
    for mode, g in ((INT, f), (S4, t_embed(f))):
        for cls, bound in (("finite-trees", 6), ("finite-posets", 5), ("chains", 6)):
            assert bounded_validity(g, SearchBounds(bound, cls), mode).countermodel is None, (cls, mode)
    path = tmp_path / "diamond.json"
    path.write_text(dump_model(diamond_model(valuation={"p": ["a", "t"]})))
    assert cli.run(["check", "--model", str(path), "--formula", "~~p -> p", "--world", "b"]) == 1
    assert "VERDICT: false\n" in capsys.readouterr().out
    assert built[-1] == ({4}, 4)
    # a forest per size: trees for both modes at once, posets and chains per search
    assert len(built) == 6 + 2 * (5 + 6) + 1
    for sizes, size in built:
        assert sizes == {size}


def test_a_long_s4_chain_search_refuted_early_evaluates_only_the_short_chains(monkeypatch):
    evaluated = []

    def spy(forest, *args):
        # one forest of chains of 2 to 28 worlds would try 2**28 subsets
        assert forest.starts == 1, forest.starts
        evaluated.append(forest.size)
        return forest_extension(forest, *args)

    monkeypatch.setattr(search, "forest_extension", spy)
    f = parse_formula("forall p (p -> box p)", S4)
    got = bounded_validity(f, SearchBounds(28, "chains"), S4).countermodel
    assert len(got.worlds) == 2 and evaluated == [1, 2]


def test_a_poset_search_refuted_early_enumerates_no_larger_posets(monkeypatch):
    sizes = []

    def spy(n, mode=INT):
        sizes.append(n)
        return enumerate_posets(n, mode)

    monkeypatch.setattr(search, "enumerate_posets", spy)
    got = bounded_validity(parse_formula("forall p (p | ~p)"), SearchBounds(6, "finite-posets")).countermodel
    assert len(got.worlds) == 2 and sizes == [1, 2]


def test_a_tree_search_refuted_at_n_worlds_makes_no_larger_shape(fresh_table, monkeypatch, capsys):
    made = []
    shapes = search._shapes

    def spy(n):
        if n not in search._shape_cache:
            made.append(n)
        return shapes(n)

    monkeypatch.setattr(search, "_shapes", spy)
    assert cli.run(["decide", "--formula", "bot", "--class", "finite-trees", "--max", "16"]) == 1
    assert "COUNTERMODEL: " in capsys.readouterr().out and made == [1]
    for text, mode, n in (("forall p p", S4, 1), ("forall p (p | ~p)", INT, 2),
                          (depth_formula(3), INT, 3), (depth_formula(5), S4, 5)):
        f = parse_formula(text) if mode == INT else t_embed(parse_formula(text))
        got = bounded_validity(f, SearchBounds(16, "finite-trees"), mode).countermodel
        assert got == first_countermodel(f, "finite-trees", n, mode), text
        assert len(got.worlds) == n and max(made) == n and sorted(search._shape_cache) == list(range(1, n + 1))
    # the forests built on the way are their sizes' own, and a later search reuses them
    assert [shapes for n in range(1, 6) for shapes, _ in search._shape_cache[n][1]] == per_size_layout(5)
    built = []
    init = Forest.__init__
    monkeypatch.setattr(Forest, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    assert bounded_validity(t_embed(parse_formula(depth_formula(5))), SearchBounds(9, "finite-trees"), S4).countermodel
    assert built == [] and made == [1, 2, 3, 4, 5]
