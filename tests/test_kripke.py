import json
import random

import pytest

from helpers import naive_upsets, random_poset_model, random_tree, with_assignment
from qptrees.kripke import (
    Forest,
    Model,
    ModelFormatError,
    NoLeastElementError,
    NotAPartialOrderError,
    NotPrefixClosedError,
    UnknownWorldError,
    ValuationNotPropositionError,
    chain,
    dump_model,
    enumerate_subsets,
    enumerate_upsets,
    load_model,
    upward_closure,
)
from qptrees.search import enumerate_posets, enumerate_trees

DIAMOND = json.dumps(
    {
        "kind": "poset",
        "worlds": ["g", "a", "b", "t"],
        "edges": [["g", "a"], ["g", "b"], ["a", "t"], ["b", "t"]],
        "valuation": {},
        "mode": "int",
    }
)


def test_load_single_world_tree():
    m = load_model('{"kind": "tree", "worlds": [[]], "valuation": {}, "mode": "int"}')
    assert m.kind == "tree"
    assert m.worlds == ((),)
    assert m.root == ()
    assert m.valuation == {}


def test_load_diamond_poset():
    m = load_model(DIAMOND)
    assert len(m.worlds) == 4
    assert m.root == "g"
    assert m.above("g") == frozenset({"g", "a", "b", "t"})
    assert m.above("a") == frozenset({"a", "t"})
    assert m.leaves() == frozenset({"t"})


def test_load_rejects_cycles():
    text = json.dumps(
        {"kind": "poset", "worlds": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}
    )
    with pytest.raises(NotAPartialOrderError):
        load_model(text)


def test_load_rejects_missing_least_element():
    text = json.dumps({"kind": "poset", "worlds": ["a", "b"], "edges": []})
    with pytest.raises(NoLeastElementError):
        load_model(text)


def test_load_rejects_non_prefix_closed_tree():
    text = json.dumps({"kind": "tree", "worlds": [[], [0, 0]]})
    with pytest.raises(NotPrefixClosedError):
        load_model(text)


def test_load_rejects_non_upward_closed_intuitionistic_valuation():
    text = json.dumps(
        {"kind": "tree", "worlds": [[], [0]], "valuation": {"p": [[]]}, "mode": "int"}
    )
    with pytest.raises(ValuationNotPropositionError):
        load_model(text)
    # the same valuation is fine in s4 mode
    ok = json.dumps(
        {"kind": "tree", "worlds": [[], [0]], "valuation": {"p": [[]]}, "mode": "s4"}
    )
    assert load_model(ok).valuation["p"] == frozenset({()})


def test_load_rejects_garbage():
    with pytest.raises(ModelFormatError):
        load_model("{nope")
    with pytest.raises(ModelFormatError):
        load_model('{"kind": "graph", "worlds": []}')
    with pytest.raises(ModelFormatError):
        load_model('{"kind": "tree", "worlds": [["a"]]}')
    with pytest.raises(ModelFormatError):
        load_model('{"kind": "poset", "worlds": ["a"], "edges": [["a", "zz"]]}')
    with pytest.raises(ModelFormatError):
        load_model(DIAMOND.replace('"mode": "int"', '"mode": "k4"'))


def test_closure_of_supplied_edges():
    # covering relation in, full order out
    m = Model.poset(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert m.above("a") == frozenset({"a", "b", "c"})


def test_tree_files_ignore_edges():
    text = json.dumps(
        {"kind": "tree", "worlds": [[], [0]], "edges": [["bogus", "junk"]]}
    )
    m = load_model(text)
    assert m.above(()) == frozenset({(), (0,)})


def test_load_is_deterministic():
    assert load_model(DIAMOND) == load_model(DIAMOND)
    assert dump_model(load_model(DIAMOND)) == dump_model(load_model(DIAMOND))


def test_dump_load_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        m = random_tree(rng, 6) if rng.random() < 0.5 else random_poset_model(rng, 6)
        assert load_model(dump_model(m)) == m


def test_two_chain_upsets():
    m = Model.poset(["g", "a"], [["g", "a"]])
    assert list(enumerate_upsets(m)) == [
        frozenset(),
        frozenset({"a"}),
        frozenset({"g", "a"}),
    ]


def test_diamond_upsets():
    m = load_model(DIAMOND)
    assert list(enumerate_upsets(m)) == [
        frozenset(),
        frozenset({"t"}),
        frozenset({"a", "t"}),
        frozenset({"b", "t"}),
        frozenset({"a", "b", "t"}),
        frozenset({"g", "a", "b", "t"}),
    ]


def test_single_world_upsets():
    m = Model.tree([()])
    assert list(enumerate_upsets(m)) == [frozenset(), frozenset({()})]


def test_upsets_match_powerset_filter_oracle():
    rng = random.Random(11)
    for _ in range(30):
        m = random_model_small(rng)
        assert sorted(enumerate_upsets(m), key=sorted) == sorted(
            naive_upsets(m), key=sorted
        )


def random_model_small(rng):
    if rng.random() < 0.5:
        return random_tree(rng, 6)
    return random_poset_model(rng, 6)


def test_upsets_are_exactly_closure_fixed_points():
    rng = random.Random(12)
    for _ in range(20):
        m = random_model_small(rng)
        fixed = {
            s for s in map(frozenset, naive_powerset(m)) if upward_closure(m, s) == s
        }
        assert set(enumerate_upsets(m)) == fixed


def naive_powerset(m):
    from itertools import combinations

    ws = sorted(m.worlds)
    for r in range(len(ws) + 1):
        yield from combinations(ws, r)


def test_chain_upset_counts():
    for n in range(1, 13):
        assert chain(n) == Model.tree([(0,) * i for i in range(n)])
        assert sum(1 for _ in enumerate_upsets(chain(n))) == n + 1


def _pairwise_tree(words):
    """The tree order by its definition: v lies above w iff w is a prefix of v."""
    ws = sorted(words)
    up = [sum(1 << j for j, v in enumerate(ws) if v[: len(w)] == w) for w in ws]
    return Model("tree", "int", ws, up, {})


def test_tree_order_matches_the_pairwise_definition():
    rng = random.Random(9)
    for n in range(1, 8):
        for m in enumerate_trees(n):
            words = list(m.worlds)
            rng.shuffle(words)
            assert Model.tree(words) == _pairwise_tree(words)
    long_chain = chain(1200)
    assert load_model(dump_model(long_chain)) == long_chain


def test_tree_validation_order():
    with pytest.raises(ModelFormatError, match="not a word"):
        Model.tree([(), (0,), (0, 0), (0, 0), (1, -1)])
    with pytest.raises(ModelFormatError, match="duplicate"):
        Model.tree([(), (0, 0), (0, 0)])
    with pytest.raises(NotPrefixClosedError, match=r"\(0, 0\)"):
        Model.tree([(1, 1), (), (0, 0)])


def test_upsets_of_a_long_chain():
    # more worlds than the default recursion limit
    m = chain(1100)
    ups = m._upset_masks()
    assert len(ups) == 1101
    assert ups == tuple(sorted(m._full >> i << i for i in range(1101)))


def test_subset_enumeration_counts():
    assert sum(1 for _ in enumerate_subsets(Model.tree([()]))) == 2
    assert sum(1 for _ in enumerate_subsets(chain(2))) == 4
    diamond = load_model(DIAMOND)
    assert sum(1 for _ in enumerate_subsets(diamond)) == 16
    assert next(iter(enumerate_subsets(diamond))) == frozenset()


def test_upward_closure():
    m = load_model(DIAMOND)
    assert upward_closure(m, {"a"}) == frozenset({"a", "t"})
    assert upward_closure(m, set()) == frozenset()
    assert upward_closure(m, set(m.worlds)) == frozenset(m.worlds)
    with pytest.raises(UnknownWorldError):
        upward_closure(m, {"zz"})


def test_loaded_valuations_are_closure_fixed_points():
    rng = random.Random(13)
    for _ in range(20):
        m = random_tree(rng, 6)
        for image in m.valuation.values():
            assert upward_closure(m, image) == image


def test_with_mode_and_assignment():
    m = load_model(DIAMOND)
    s4 = m.with_mode("s4")
    assert s4.mode == "s4" and s4.worlds == m.worlds
    m2 = with_assignment(m, "p", {"t"})
    assert m2.valuation["p"] == frozenset({"t"})
    with pytest.raises(ValuationNotPropositionError):
        with_assignment(m, "p", {"g"})  # not upward closed in int mode
    assert with_assignment(s4, "p", {"g"}).valuation["p"] == frozenset({"g"})


def below_by_definition(m, x):
    """The worlds with a successor in `x`, read off the successor masks."""
    return sum(1 << w for w, above in enumerate(m._up) if above & x)


def check_forest_order(models, rng):
    """The forest of `models` has the offset masks the definition gives, in
    ascending d with no empty mask, and `down` keeps each component to
    itself."""
    forest = Forest(models)
    ahead, behind = {}, {}  # d -> a mask that is never empty
    offset = 0
    for m in models:
        for w, above in enumerate(m._up):
            for v in range(len(m.worlds)):
                if v != w and above >> v & 1:  # w is a strict predecessor of v
                    table, d = (ahead, v - w) if v > w else (behind, w - v)
                    table[d] = table.get(d, 0) | 1 << offset + v
        offset += len(m.worlds)
    assert forest.ahead == tuple(sorted(ahead.items()))
    assert forest.behind == tuple(sorted(behind.items()))
    for _ in range(20):
        parts = [rng.getrandbits(len(m.worlds)) for m in models]
        x = expected = offset = 0
        for m, part in zip(models, parts):
            x |= part << offset
            expected |= below_by_definition(m, part) << offset
            offset += len(m.worlds)
        assert forest.down(x) == expected


def test_offset_masks_give_the_worlds_below():
    models = [m for n in range(1, 8) for m in enumerate_trees(n)]
    models += [m for n in range(1, 6) for m in enumerate_posets(n)]
    models.append(load_model(DIAMOND))  # its root is not the first world
    for m in models:
        forest = Forest([m])
        for x in range(1 << len(m.worlds)):
            assert forest.down(x) == below_by_definition(m, x), (m, x)
    # side by side, each component keeps to itself
    for n in (4, 5):
        for models in (list(enumerate_trees(n)), list(enumerate_posets(n))):
            forest = Forest(models)
            rng = random.Random(n)
            for _ in range(50):
                parts = [rng.getrandbits(n) for _ in models]
                x = sum(part << k * n for k, part in enumerate(parts))
                expected = sum(
                    below_by_definition(m, part) << k * n
                    for k, (m, part) in enumerate(zip(models, parts))
                )
                assert forest.down(x) == expected


def test_offset_masks_of_components_of_different_sizes():
    rng = random.Random(7)
    models = [m for n in range(1, 6) for m in enumerate_trees(n)] + list(enumerate_posets(4))
    for _ in range(20):
        check_forest_order(rng.sample(models, 6), rng)


def test_offset_masks_of_trees_of_mixed_sizes():
    # every component a tree: the subtree-size rule, read across sizes
    rng = random.Random(11)
    trees = [m for n in range(1, 8) for m in enumerate_trees(n)] + [chain(9), chain(12)]
    for _ in range(30):
        check_forest_order(rng.sample(trees, rng.randint(2, 8)), rng)
    # the largest tree anywhere in the forest
    check_forest_order([chain(7), *enumerate_trees(3), chain(1)], rng)
    check_forest_order(list(enumerate_trees(6))[::-1], rng)


def test_offset_masks_of_trees_beside_a_poset():
    # one poset among trees: the pairwise rule, applied to the trees too
    rng = random.Random(12)
    trees = [m for n in range(1, 7) for m in enumerate_trees(n)] + [chain(9)]
    posets = list(enumerate_posets(4)) + [load_model(DIAMOND)]
    for _ in range(30):
        models = rng.sample(trees, rng.randint(1, 6))
        models.insert(rng.randint(0, len(models)), rng.choice(posets))
        check_forest_order(models, rng)
    diamond = load_model(DIAMOND)  # its root is not its first world
    check_forest_order([chain(5), diamond, chain(2)], rng)
    check_forest_order([diamond, *enumerate_trees(5)], rng)


def test_subsets_of_one_size_stay_a_range():
    # 2**30 subsets: listing them is out of the question
    forest = Forest([chain(30, "s4")])
    subsets = forest.propositions(True)
    assert isinstance(subsets, range) and len(subsets) == 1 << 30 and subsets[-1] == forest.full
    trees = list(enumerate_trees(4, "s4"))
    subsets = Forest(trees).propositions(True)
    assert subsets == range(0, Forest(trees).starts << 4, Forest(trees).starts)


def test_subsets_of_different_sizes_are_zipped():
    def expected(sizes):
        # subset k of each component is k mod 2**n, placed at its offset
        offsets = [sum(sizes[:i]) for i in range(len(sizes))]
        return [sum(k % (1 << n) << o for n, o in zip(sizes, offsets)) for k in range(1 << max(sizes))]

    # listed on first use and kept
    for sizes in ([2, 3, 3], [2, 3, 2], [1, 6, 2, 5]):
        forest = Forest([chain(n, "s4") for n in sizes])
        subsets = forest.propositions(True)
        assert subsets == expected(sizes) and forest.propositions(True) is subsets


def test_offset_masks_of_a_long_chain():
    m = chain(1200)
    forest = Forest([m])
    assert [d for d, _ in forest.ahead] == list(range(1, 1200)) and forest.behind == ()
    rng = random.Random(1200)
    for x in [0, 1, 1 << 1199, m._full] + [rng.getrandbits(1200) for _ in range(5)]:
        assert forest.down(x) == below_by_definition(m, x)
        # on a chain, a world lies below x iff it lies below x's last world
        assert forest.down(x) == (1 << x.bit_length()) - 1
