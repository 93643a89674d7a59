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
from .kripke import Model, chain
from .semantics import validates

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

_shape_cache: dict[int, tuple] = {}


def _shapes(n: int) -> tuple:
    if n not in _shape_cache:
        if n == 1:
            _shape_cache[n] = ((),)
        else:
            _shape_cache[n] = tuple(sorted(_forests(n - 1, None)))
    return _shape_cache[n]


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


def enumerate_trees(n: int, mode: str = INT) -> Iterator[Model]:
    """All rooted trees with exactly `n` nodes, one per isomorphism class,
    as prefix-closed word sets with sibling subtrees in canonical order."""
    if n < 1:
        raise SearchBoundError("need at least one world")
    for shape in _shapes(n):
        words, up = [], []
        _add_shape(shape, (), words, up)
        yield Model("tree", mode, words, up, {})


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


def _enumerate_chains(n: int, mode: str) -> Iterator[Model]:
    yield chain(n, mode)


# --- the search itself -------------------------------------------------------------


def bounded_validity(f: Formula, bounds: SearchBounds, mode: str = INT) -> SearchOutcome:
    """Search all structures of the bounded class for a countermodel to `f`.

    Returns the canonically least countermodel if one exists within the
    bounds, otherwise records that none was found up to them.
    """
    table = compile_formula(f)
    if table.free[table.root]:
        raise OpenFormulaError(
            f"the search needs a closed formula, got {print_formula(f)!r}"
        )
    if mode == INT and table.modal:
        raise LanguageError("modal formulas need s4 mode")
    if bounds.structure_class == "finite-trees":
        generate = enumerate_trees
    elif bounds.structure_class == "finite-posets":
        if bounds.max_worlds > POSET_WORLD_CAP:
            raise SearchBoundError(
                f"poset search supports at most {POSET_WORLD_CAP} worlds"
            )
        generate = enumerate_posets
    else:
        generate = _enumerate_chains
    for n in range(1, bounds.max_worlds + 1):
        for m in generate(n, mode):
            if not validates(m, table):
                return SearchOutcome(m, bounds)
    return SearchOutcome(None, bounds)
