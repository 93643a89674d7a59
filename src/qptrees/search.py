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
# once trees of that size were searched their forests (see `_tree_forests`),
# and their ids (see `_shape_data`).
# After one search of `forall p (p -> p)` up to 11, 12 or 13 worlds, both
# shape tables hold about 3, 10 or 36 MiB (tracemalloc, CPython 3.11), of
# which the forests are 1.5, 5.8 or 23 MiB.
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
        first = _shape_cache[n - 1][2].stop if n > 1 else 0  # _forests made size n - 1
        _shape_cache[n] = [shapes, None, range(first, first + len(shapes))]
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
    ids = _shape_cache[n][2]
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


def _runs(items, n: int) -> list:
    """`items`, structures of `n` worlds, cut into runs of FOREST_WORLDS // n."""
    per = max(1, FOREST_WORLDS // n)
    return [items[k:k + per] for k in range(0, len(items), per)]


def _tree_forests(n: int) -> list:
    """(ids, forest) for the trees of `n` worlds, `ids` being the forest's
    shape ids; built once per size."""
    ids = _shape_ids(n)
    entry = _shape_cache[n]
    if entry[1] is None:
        entry[1] = [
            (run, Forest([(n, _shape_data[i][2], ()) for i in run], lambda run=run: list(map(_shape_upsets, run))))
            for run in _runs(ids, n)
        ]
    return entry[1]


def _model_forests(n: int, models) -> list:
    """(models, forest) for `models`, structures of `n` worlds, in order."""
    return [(run, Forest.of(run)) for run in _runs(list(models), n)]


def bounded_validity(f: Formula | NodeTable, bounds: SearchBounds, mode: str = INT) -> SearchOutcome:
    """Search all structures of the bounded class for a countermodel to `f`.

    Returns the canonically least countermodel if one exists within the
    bounds, otherwise records that none was found up to them.  The
    structures are evaluated in enumeration order, one size class at a time
    in forests of at most FOREST_WORLDS worlds, so the search stops at the
    size that refutes; the countermodel is the first structure whose root
    lies outside the extension.  A formula whose quantifiers are all fixed
    is a constant (see `semantics`), so only the one-world structure is
    searched: it is the first countermodel if there is any.
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
    quantifiers = table.ops.count(FORALL) + table.ops.count(EXISTS)
    constant = table.fixed.count(None) + quantifiers == len(table.fixed)  # every quantifier fixed
    for n in range(1, 2 if constant else bounds.max_worlds + 1):
        if cls == "finite-trees":
            forests = _tree_forests(n)
        else:
            forests = _model_forests(n, enumerate_posets(n, mode) if cls == "finite-posets" else [chain(n, mode)])
        for items, forest in forests:
            # every enumerated structure lists its root first
            refuted = forest.starts & ~forest_extension(forest, table, mode)
            if refuted:
                item = items[(forest.starts & ((refuted & -refuted) - 1)).bit_count()]
                if cls == "finite-trees":  # a shape id
                    item = _tree_model(_shapes(n)[item - _shape_ids(n).start], mode)
                return SearchOutcome(item, bounds)
    return SearchOutcome(None, bounds)
