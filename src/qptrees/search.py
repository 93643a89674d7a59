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
    INT,
    Formula,
    LanguageError,
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

# Shapes by size: one entry per size already searched, holding its shapes
# and, once its trees were searched, their forests (see `_tree_forests`).
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
        _shape_cache[n] = [shapes, None]
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
    first = sum(len(_shapes(size)) for size in range(1, n))
    ids = range(first, first + len(_shapes(n)))
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

# The most worlds one forest holds; a size class with more is split into
# consecutive forests.  The evaluator's memo holds a forest-wide mask per
# assignment, so wider forests cost memory for little speed.  The tree
# forests of each size and their zipped propositions are kept for the process.
FOREST_WORLDS = 512


def _tree_forests(n: int) -> list:
    """(start, forest) for the trees of `n` worlds, in order, where `start`
    indexes the forest's first shape in `_shapes(n)`; built once, then kept."""
    ids = _shape_ids(n)
    entry = _shape_cache[n]
    if entry[1] is None:
        per = max(1, FOREST_WORLDS // n)
        entry[1] = [
            (start, Forest(n, [(_shape_data[i][2], ()) for i in chunk],
                           lambda chunk=chunk: list(map(_shape_upsets, chunk))))
            for start in range(0, len(ids), per)
            for chunk in [ids[start:start + per]]
        ]
    return entry[1]


def _model_forests(models: list, n: int):
    """(start, forest) for the given models of `n` worlds, in order."""
    per = max(1, FOREST_WORLDS // n)
    for start in range(0, len(models), per):
        yield start, Forest.of(models[start:start + per])


def bounded_validity(f: Formula, bounds: SearchBounds, mode: str = INT) -> SearchOutcome:
    """Search all structures of the bounded class for a countermodel to `f`.

    Returns the canonically least countermodel if one exists within the
    bounds, otherwise records that none was found up to them.  Each size
    class is evaluated as forests, the disjoint unions of its structures
    in enumeration order; the countermodel is the first structure whose
    root lies outside the extension.
    """
    table = compile_formula(f)
    if table.free[table.root]:
        raise OpenFormulaError(
            f"the search needs a closed formula, got {print_formula(f)!r}"
        )
    if mode == INT and table.modal:
        raise LanguageError("modal formulas need s4 mode")
    cls = bounds.structure_class
    if cls == "finite-posets" and bounds.max_worlds > POSET_WORLD_CAP:
        raise SearchBoundError(
            f"poset search supports at most {POSET_WORLD_CAP} worlds"
        )
    for n in range(1, bounds.max_worlds + 1):
        if cls == "finite-trees":
            forests = _tree_forests(n)
        else:
            models = list(enumerate_posets(n, mode)) if cls == "finite-posets" else [chain(n, mode)]
            forests = _model_forests(models, n)
        for start, forest in forests:
            # every enumerated structure lists its root first
            refuted = forest.starts & ~forest_extension(forest, table, mode)
            if refuted:
                k = start + ((refuted & -refuted).bit_length() - 1) // n
                model = _tree_model(_shapes(n)[k], mode) if cls == "finite-trees" else models[k]
                return SearchOutcome(model, bounds)
    return SearchOutcome(None, bounds)
