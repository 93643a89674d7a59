"""Bounded countermodel search.

Structures are enumerated in a fixed canonical order, one representative per
isomorphism class, smallest first; the first countermodel returned is
therefore the same on every run.  Closed formulas are required: their truth
does not depend on the valuation, so the search enumerates structures only
and leaves the quantifier semantics to handle propositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .formula import (
    EXISTS,
    FORALL,
    INT,
    Formula,
    LanguageError,
    NodeTable,
    OpenFormulaError,
    compile_formula,
    print_formula,
)
from .kripke import Forest, Model, chain
from .semantics import forest_extension

STRUCTURE_CLASSES = ("finite-trees", "finite-posets", "chains")

POSET_WORLD_CAP = 6  # isomorphism reduction is done by brute permutation


class SearchBoundError(ValueError):
    """The requested bounds are out of the supported range."""


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int
    structure_class: str

    def __post_init__(self):
        if not isinstance(self.max_worlds, int) or self.max_worlds < 1:
            raise SearchBoundError("max_worlds must be at least 1")
        if self.structure_class not in STRUCTURE_CLASSES:
            raise SearchBoundError(
                f"unknown structure class {self.structure_class!r}"
            )


@dataclass(frozen=True)
class SearchOutcome:
    """Either a countermodel or the bounds that were exhausted."""

    countermodel: Model | None
    bounds: SearchBounds


# --- rooted trees ------------------------------------------------------------

# A tree shape is the tuple of its children's shapes, children sorted
# ascending, so equal shapes are exactly the isomorphic trees.

# Shapes by size: one entry per size already searched, holding its shapes,
# their ids (see `_shape_data`) and, once trees were searched up to that
# size, the forests of that bound in each layout (see `_tree_forests`); a
# forest in two layouts or bounds is kept once.
# After one search of `forall p (p -> p)` up to 11, 12 or 13 worlds, both
# shape tables hold about 3, 10 or 36 MiB (tracemalloc, CPython 3.11), of
# which the forests are 1.5, 5.8 or 23 MiB; packing adds one, of 189 worlds.
_shape_cache: dict[int, list] = {}

# Per-shape data beside `_shape_cache`: `_shape_data[i]` is (size, child
# ids, offset masks) of the shape with id i.  Ids run size by size in
# `_shapes` order, so the shapes of one size have consecutive ids, and a
# search keys its per-shape work by id instead of rehashing nested tuples.
# One entry per shape of a size already searched.
_shape_data: list[tuple] = []


def _shapes(n: int) -> tuple:
    if n not in _shape_cache:
        shapes = ((),) if n == 1 else tuple(sorted(_forests(n - 1, None)))
        first = _shape_cache[n - 1][3].stop if n > 1 else 0  # _forests made size n - 1
        _shape_cache[n] = [shapes, None, None, range(first, first + len(shapes))]
    return _shape_cache[n][0]


def _forests(total: int, floor):
    """Nondecreasing shape sequences with `total` nodes, each >= `floor`."""
    if total == 0:
        yield ()
        return
    for size in range(1, total + 1):
        for shape in _shapes(size):
            if floor is not None and shape < floor:
                continue
            for rest in _forests(total - size, shape):
                yield (shape,) + rest


def _add_shape(shape, word, words, up):
    """Append the worlds of `shape`, rooted at `word`, in pre-order.

    Pre-order is the sorted word order, and each subtree is the contiguous
    run of indices that starts at its root, so its successor mask is known
    once the subtree has been added.
    """
    i = len(words)
    words.append(word)
    up.append(0)
    for k, child in enumerate(shape):
        _add_shape(child, word + (k,), words, up)
    up[i] = ((1 << len(words) - i) - 1) << i


def _tree_model(shape, mode: str) -> Model:
    words, up = [], []
    _add_shape(shape, (), words, up)
    return Model("tree", mode, words, up, {})


def enumerate_trees(n: int, mode: str = INT) -> Iterator[Model]:
    """All rooted trees with exactly `n` nodes, one per isomorphism class,
    as prefix-closed word sets with sibling subtrees in canonical order."""
    if n < 1:
        raise SearchBoundError("need at least one world")
    for shape in _shapes(n):
        yield _tree_model(shape, mode)


def _shape_ids(n: int) -> range:
    """The ids of the shapes with `n` worlds, recording their data first."""
    _shapes(n)
    ids = _shape_cache[n][3]
    if len(_shape_data) < ids.stop:
        index, start = {}, 0  # shape -> id, for the smaller sizes
        for size in range(1, n + 1):
            shapes = _shapes(size)
            if start == len(_shape_data):
                for shape in shapes:
                    offsets, _ = _tree_model(shape, INT)._offset_masks()
                    _shape_data.append((size, tuple(index[c] for c in shape), offsets))
            index.update(zip(shapes, range(start, start + len(shapes))))
            start += len(shapes)
    return ids


def _shape_upsets(i: int) -> list[int]:
    """The upsets of shape `i`: the whole tree, and every union of one upset
    per child subtree."""
    size, children, _ = _shape_data[i]
    ups, offset = [0], 1
    for child in children:
        below = _shape_upsets(child)
        ups = [u | v << offset for u in ups for v in below]
        offset += _shape_data[child][0]
    ups.append((1 << size) - 1)
    return ups


# --- posets with a least element -----------------------------------------------


def _canonical_form(matrix: list[list[bool]]) -> tuple:
    """Minimum over relabelings (root fixed at index 0) of the flattened
    order matrix; equal forms are exactly the isomorphic posets."""
    n = len(matrix)
    best = None
    for perm in permutations(range(1, n)):
        relabel = (0,) + perm
        flat = tuple(
            matrix[relabel[i]][relabel[j]] for i in range(n) for j in range(n)
        )
        if best is None or flat < best:
            best = flat
    return best


def enumerate_posets(n: int, mode: str = INT) -> Iterator[Model]:
    """All partial orders with a least element on `n` worlds, one per
    isomorphism class, in canonical order.  Capped at six worlds."""
    if n < 1 or n > POSET_WORLD_CAP:
        raise SearchBoundError(
            f"poset enumeration supports 1..{POSET_WORLD_CAP} worlds"
        )
    worlds = [f"w{i}" for i in range(n)]
    if n == 1:
        yield Model.poset(worlds, [], {}, mode)
        return
    # Strictly upper-triangular patterns over the non-root part: every
    # finite poset can be labeled so the index order is a linear extension.
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    forms = set()
    for bits in range(1 << len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                rel[i][j] = True
        ok = True
        for i in range(1, n):
            for j in range(i + 1, n):
                if not rel[i][j]:
                    continue
                for l in range(j + 1, n):
                    if rel[j][l] and not rel[i][l]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        for j in range(n):
            rel[0][j] = True
        forms.add(_canonical_form(rel))
    for form in sorted(forms):
        edges = [
            [worlds[i], worlds[j]]
            for i in range(n)
            for j in range(n)
            if i != j and form[i * n + j]
        ]
        yield Model.poset(worlds, edges, {}, mode)


# --- the search itself -------------------------------------------------------------

# The most worlds one forest holds.  A ranging quantifier tries each
# proposition of its largest component, so the best width needs measuring;
# tree forests and their zipped propositions are kept for the process.
FOREST_WORLDS = 512


def _layout(counts, packed: bool) -> list[range]:
    """One index range per forest into trees listed by size, where
    `counts[n - 1]` trees have n worlds: each size class cut into forests
    of FOREST_WORLDS // n trees, or, if `packed`, whole classes above one
    world sharing a forest while their worlds fit in FOREST_WORLDS."""
    runs, start, room = [], 0, 0  # room: worlds still free in the last forest
    for n, count in enumerate(counts, 1):
        worlds = n * count
        if worlds <= room:
            runs[-1] = range(runs[-1].start, start + count)
            room -= worlds
        else:
            per = max(1, FOREST_WORLDS // n)
            runs += [range(start, start + count)[k:k + per] for k in range(0, count, per)]
            room = FOREST_WORLDS - worlds if packed and 1 < n and worlds <= FOREST_WORLDS else 0
        start += count
    return runs


def _tree_forests(bound: int, packed: bool) -> list:
    """(ids, forest) for the trees of up to `bound` worlds as `_layout` lays
    them out, `ids` being the forest's shape ids; built once per bound and
    layout, sharing the forests that another bound or layout already has.
    Laid out one size per forest, a bound's forests are those of the bound
    below followed by its own size's."""
    _shape_ids(bound)
    entry = _shape_cache[bound]
    if entry[1 + packed] is None:
        below = [] if packed or bound == 1 else _tree_forests(bound - 1, False)
        runs = _layout([len(_shapes(n)) for n in range(1, bound + 1)], packed)[len(below):]
        built = {ids: forest for e in _shape_cache.values() for pairs in e[1:3] for ids, forest in pairs or ()}
        entry[1 + packed] = below + [
            (ids, built.get(ids) or Forest(
                [(_shape_data[i][0], _shape_data[i][2], ()) for i in ids],
                lambda ids=ids: list(map(_shape_upsets, ids))))
            for ids in runs
        ]
    return entry[1 + packed]


def _searched_tree_forests(bound: int, packed: bool):
    """The forests of `_tree_forests(bound, packed)` in order, a size class
    built only once the search reaches it.  A packed search's formula is a
    constant, so it ends at one world or runs to the bound, and in either
    layout the one-world tree is a forest of its own."""
    done = 0
    for n in range(1, bound + 1) if not packed else sorted({1, bound}):
        forests = _tree_forests(n, packed)
        yield from forests[done:]
        done = len(forests)


def _model_forests(bound: int, structures):
    """(models, forest) for the structures of up to `bound` worlds, in order,
    where `structures(n)` lists those of n worlds, one size at a time: a
    size is enumerated only once the smaller ones are evaluated."""
    for n in range(1, bound + 1):
        models, per = list(structures(n)), max(1, FOREST_WORLDS // n)
        for s in range(0, len(models), per):
            yield models[s:s + per], Forest.of(models[s:s + per])


def bounded_validity(f: Formula | NodeTable, bounds: SearchBounds, mode: str = INT) -> SearchOutcome:
    """Search all structures of the bounded class for a countermodel to `f`.

    Returns the canonically least countermodel if one exists within the
    bounds, otherwise records that none was found up to them.  The
    structures are evaluated in enumeration order, one size class at a time
    in forests of at most FOREST_WORLDS worlds; the countermodel is the
    first structure whose root lies outside the extension.  A tree search
    with no ranging quantifier packs whole classes instead (`_layout`): its
    formula is a constant (see `semantics`), so it ends at one world or runs
    to the bound, and fewer forests cost less.  A ranging quantifier tries
    each proposition of a forest's largest component, so in a packed forest
    a countermodel of 2 worlds would wait for those of 6-world trees.
    """
    table = compile_formula(f)
    if table.free:
        raise OpenFormulaError(
            f"the search needs a closed formula, got {print_formula(table)!r}"
        )
    if mode == INT and table.modal:
        raise LanguageError("modal formulas need s4 mode")
    cls = bounds.structure_class
    if cls == "finite-posets" and bounds.max_worlds > POSET_WORLD_CAP:
        raise SearchBoundError(
            f"poset search supports at most {POSET_WORLD_CAP} worlds"
        )
    if cls == "finite-trees":
        quantifiers = table.ops.count(FORALL) + table.ops.count(EXISTS)
        packed = table.fixed.count(None) + quantifiers == len(table.fixed)  # every quantifier fixed
        forests = _searched_tree_forests(bounds.max_worlds, packed)
    elif cls == "finite-posets":
        forests = _model_forests(bounds.max_worlds, lambda n: enumerate_posets(n, mode))
    else:
        forests = _model_forests(bounds.max_worlds, lambda n: [chain(n, mode)])
    for items, forest in forests:
        # every enumerated structure lists its root first
        refuted = forest.starts & ~forest_extension(forest, table, mode)
        if refuted:
            item = items[(forest.starts & ((refuted & -refuted) - 1)).bit_count()]
            if cls == "finite-trees":  # a shape id
                n = _shape_data[item][0]
                item = _tree_model(_shapes(n)[item - _shape_ids(n).start], mode)
            return SearchOutcome(item, bounds)
    return SearchOutcome(None, bounds)
