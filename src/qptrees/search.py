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
        if type(self.max_worlds) is not int or self.max_worlds < 1:
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
# and, once trees of that size were searched, their forests (see
# `_tree_forests`).  A forest keeps no model and zips upsets only for an
# intuitionistic search: after one search up to 10, 11 or 12 worlds, the
# table holds about 0.41, 1.24 or 3.6 MiB in S4 mode and 0.46, 1.70 or
# 6.4 MiB in int mode, nearly all of it forests (tracemalloc, CPython 3.11).
_shape_cache: dict[int, list] = {}


def _shapes(n: int) -> tuple:
    if n not in _shape_cache:
        _shape_cache[n] = [((),) if n == 1 else tuple(sorted(_forests(n - 1, None))), None]
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


def _words(shape, word=()):
    """The worlds of `shape`, rooted at `word`, in pre-order, which is the
    sorted word order."""
    yield word
    for k, child in enumerate(shape):
        yield from _words(child, word + (k,))


def enumerate_trees(n: int, mode: str = INT) -> Iterator[Model]:
    """All rooted trees with exactly `n` nodes, one per isomorphism class,
    as prefix-closed word sets with sibling subtrees in canonical order."""
    if n < 1:
        raise SearchBoundError("need at least one world")
    for shape in _shapes(n):
        yield Model.tree(_words(shape), None, mode)


# --- posets with a least element -----------------------------------------------


def enumerate_posets(n: int, mode: str = INT) -> Iterator[Model]:
    """All partial orders with a least element on `n` worlds, one per
    isomorphism class, in canonical order.  Capped at six worlds.

    An order is its rows of successor masks, world 0 in the highest bit, so
    tuples of rows sort as the flattened order matrices do.  The canonical
    form is the least tuple of relabeled rows over the relabelings that fix
    the root; equal forms are exactly the isomorphic posets."""
    if n < 1 or n > POSET_WORLD_CAP:
        raise SearchBoundError(
            f"poset enumeration supports 1..{POSET_WORLD_CAP} worlds"
        )
    worlds = [f"w{i}" for i in range(n)]
    bit = [1 << (n - 1 - i) for i in range(n)]
    # each relabeling with its table: bit j of a relabeled row is bit
    # relabel[j] of the row
    tables = []
    for perm in permutations(range(1, n)):
        relabel = (0,) + perm
        table = [sum(bit[j] for j in range(n) if row & bit[relabel[j]]) for row in range(1 << n)]
        tables.append((relabel, table))
    # Strictly upper-triangular patterns over the non-root part: every
    # finite poset can be labeled so the index order is a linear extension.
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    forms = set()
    for bits in range(1 << len(pairs)):
        up = [(1 << n) - 1] + bit[1:]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                up[i] |= bit[j]
        if any(up[i] & bit[j] and up[j] & ~up[i] for i, j in pairs):
            continue  # not transitive
        forms.add(min(tuple(table[up[i]] for i in relabel) for relabel, table in tables))
    # The labels sort in index order, so row i, read back into successor
    # masks, is world i's; a form is a partial order with root w0 as it is.
    for form in sorted(forms):
        yield Model("poset", mode, worlds, [sum(1 << j for j in range(n) if row & bit[j]) for row in form], {})


# --- the search itself -------------------------------------------------------------

# The most worlds one forest holds.  A ranging quantifier tries as many
# propositions as its components have at most, so the best width needs
# measuring; tree forests and their zipped upsets are kept for the process.
FOREST_WORLDS = 512


def _runs(items, n: int) -> list:
    """`items`, structures of `n` worlds, cut into runs of FOREST_WORLDS // n."""
    per = max(1, FOREST_WORLDS // n)
    return [items[k:k + per] for k in range(0, len(items), per)]


def _tree_forests(n: int) -> list:
    """(shapes, forest) for the trees of `n` worlds; built once per size."""
    shapes = _shapes(n)
    entry = _shape_cache[n]
    if entry[1] is None:
        entry[1] = [(run, Forest([Model.tree(_words(s)) for s in run])) for run in _runs(shapes, n)]
    return entry[1]


def _model_forests(n: int, models) -> list:
    """(models, forest) for `models`, structures of `n` worlds, in order."""
    return [(run, Forest(run)) for run in _runs(list(models), n)]


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
    for n in range(1, bounds.max_worlds + 1 if table.ranging else 2):
        if cls == "finite-trees":
            forests = _tree_forests(n)
        else:
            forests = _model_forests(n, enumerate_posets(n, mode) if cls == "finite-posets" else [chain(n, mode)])
        for items, forest in forests:
            # every enumerated structure lists its root first
            refuted = forest.starts & ~forest_extension(forest, table, mode)
            if refuted:
                item = items[(forest.starts & ((refuted & -refuted) - 1)).bit_count()]
                if cls == "finite-trees":  # a shape
                    item = Model.tree(_words(item), None, mode)
                return SearchOutcome(item, bounds)
    return SearchOutcome(None, bounds)
