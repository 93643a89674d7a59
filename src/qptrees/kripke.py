"""Finite Kripke structures and proposition enumeration.

Two flavours of structure are supported:

* tree models, whose worlds are finite words over the naturals closed under
  word prefixes; the order is the prefix order and the root is the empty
  word;
* general finite posets with a least element, whose worlds are opaque
  string labels.

Worlds are stored sorted (lexicographically for words, string order for
labels) and propositions are handled internally as bit vectors over that
ordering, which fixes all enumeration orders.  Models are immutable after
construction and safe to share between threads.  A forest of structures of
any sizes zips its propositions on first use and keeps them; two first
uses at once compute equal lists, so forests are safe to share as well.
"""

from __future__ import annotations

import json
from itertools import accumulate, combinations, cycle, repeat
from operator import lshift, or_
from typing import Iterable, Iterator

from .formula import INT, S4

MODES = (INT, S4)


class ModelError(ValueError):
    """Base class for model construction and lookup failures."""


class ModelFormatError(ModelError):
    """The model description is malformed (bad JSON, bad shapes, bad types)."""


class NoLeastElementError(ModelError):
    """The order has no unique least element."""


class NotAPartialOrderError(ModelError):
    """The supplied edges are cyclic, so their closure is not antisymmetric."""


class NotPrefixClosedError(ModelError):
    """A word set declared as a tree is not closed under word prefixes."""


class ValuationNotPropositionError(ModelError):
    """An intuitionistic valuation image is not upward closed."""


class UnknownWorldError(ModelError):
    """A world id does not belong to the model."""


def _is_word(w) -> bool:
    # Exactly int: True and 0.0 compare equal to naturals but are not words.
    return isinstance(w, tuple) and (not w or (set(map(type, w)) == {int} and min(w) >= 0))


def tree_world(obj) -> tuple[int, ...]:
    """The tree world id that a decoded JSON value denotes: an array of naturals."""
    if not isinstance(obj, list) or not _is_word(tuple(obj)):
        raise ModelFormatError(f"tree worlds are arrays of naturals: {obj!r}")
    return tuple(obj)


class Model:
    """A finite Kripke structure with root, order, valuation, and mode.

    `mode` is "int" (valuation images must be upward closed) or "s4"
    (arbitrary subsets).  Use :meth:`tree`, :meth:`poset`, or
    :func:`load_model` to build one.
    """

    __slots__ = (
        "kind", "mode", "worlds", "root", "valuation",
        "_index", "_up", "_full", "_val_masks", "_upsets",
    )

    def __init__(self, kind, mode, worlds, up, valuation):
        # Internal constructor: `worlds` sorted, `up` the reflexive order as
        # one successor bitmask per world.  Factories validate everything else.
        if mode not in MODES:
            raise ModelFormatError(f"unknown mode {mode!r}")
        self.kind = kind
        self.mode = mode
        self.worlds = tuple(worlds)
        self._up = tuple(up)
        self._full = (1 << len(self.worlds)) - 1
        self._index = {w: i for i, w in enumerate(self.worlds)}
        root_index = None
        for i, mask in enumerate(self._up):
            if mask == self._full:
                root_index = i
                break
        if root_index is None:
            raise NoLeastElementError("the order has no least element")
        self.root = self.worlds[root_index]
        self._upsets = None
        self.valuation = {}
        self._val_masks = {}
        for var in sorted(valuation or {}):
            mask = self._mask_of(valuation[var])
            if mode == INT and self._closure(mask) != mask:
                raise ValuationNotPropositionError(
                    f"valuation of {var!r} is not upward closed"
                )
            self.valuation[var] = self._set_of(mask)
            self._val_masks[var] = mask

    # -- factories ---------------------------------------------------------

    @classmethod
    def tree(cls, words: Iterable, valuation=None, mode: str = INT) -> "Model":
        """Build a tree model from a prefix-closed set of words."""
        ws = []
        for w in words:
            t = tuple(w)
            if not _is_word(t):
                raise ModelFormatError(f"not a word over the naturals: {w!r}")
            ws.append(t)
        if not ws:
            raise NoLeastElementError("a model needs at least one world")
        sorted_ws = sorted(ws)
        index = {w: i for i, w in enumerate(sorted_ws)}
        if len(index) != len(sorted_ws):
            raise ModelFormatError("duplicate worlds")
        for w in sorted_ws:
            if w and w[:-1] not in index:
                raise NotPrefixClosedError(f"missing prefix of {w!r}")
        # A word sorts before its extensions and the words between them are
        # extensions too, so each subtree is a contiguous run starting at
        # its root.  Children come after their parent: one reverse pass
        # sums the subtree sizes.
        size = [1] * len(sorted_ws)
        for i in range(len(sorted_ws) - 1, 0, -1):
            size[index[sorted_ws[i][:-1]]] += size[i]
        up = [((1 << size[i]) - 1) << i for i in range(len(sorted_ws))]
        return cls("tree", mode, sorted_ws, up, valuation)

    @classmethod
    def poset(cls, worlds: Iterable[str], edges, valuation=None, mode: str = INT) -> "Model":
        """Build a poset model; the order is the reflexive-transitive closure
        of `edges`, which must be acyclic and have a unique least element."""
        ws = list(worlds)
        for w in ws:
            if not isinstance(w, str) or not w:
                raise ModelFormatError(f"poset worlds must be nonempty strings: {w!r}")
        if not ws:
            raise NoLeastElementError("a model needs at least one world")
        sorted_ws = sorted(ws)
        if len(set(sorted_ws)) != len(sorted_ws):
            raise ModelFormatError("duplicate worlds")
        index = {w: i for i, w in enumerate(sorted_ws)}
        n = len(sorted_ws)
        up = [1 << i for i in range(n)]
        for e in edges:
            pair = tuple(e)
            if len(pair) != 2:
                raise ModelFormatError(f"edge is not a pair: {e!r}")
            a, b = pair
            if not isinstance(a, str) or not isinstance(b, str):
                raise ModelFormatError(f"edge endpoints must be world labels: {e!r}")
            if a not in index or b not in index:
                raise ModelFormatError(f"edge mentions unknown world: {e!r}")
            up[index[a]] |= 1 << index[b]
        # Warshall closure over bitmasks.
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= up[k]
        for i, j in combinations(range(n), 2):
            if up[i] >> j & 1 and up[j] >> i & 1:
                raise NotAPartialOrderError(
                    f"cycle through {sorted_ws[i]!r} and {sorted_ws[j]!r}"
                )
        return cls("poset", mode, sorted_ws, up, valuation)

    # -- derived models ------------------------------------------------------

    def with_mode(self, mode: str) -> "Model":
        """The same structure reinterpreted in another mode."""
        return Model(self.kind, mode, self.worlds, self._up, self.valuation)

    def with_valuation(self, valuation) -> "Model":
        """The same structure with the valuation replaced wholesale."""
        return Model(self.kind, self.mode, self.worlds, self._up, valuation)

    # -- lookups -------------------------------------------------------------

    def index_of(self, world) -> int:
        if isinstance(world, list):
            world = tuple(world)
        try:
            return self._index[world]
        except KeyError:
            raise UnknownWorldError(f"unknown world id: {world!r}") from None

    def above(self, world) -> frozenset:
        """All worlds greater than or equal to `world`."""
        return self._set_of(self._up[self.index_of(world)])

    def leaves(self) -> frozenset:
        """Worlds with no strict successor."""
        return frozenset(
            w for i, w in enumerate(self.worlds) if self._up[i] == 1 << i
        )

    # -- bitmask helpers (internal) -------------------------------------------

    def _mask_of(self, worlds) -> int:
        mask = 0
        for w in worlds:
            mask |= 1 << self.index_of(w)
        return mask

    def _set_of(self, mask: int) -> frozenset:
        return frozenset(
            self.worlds[i] for i in range(len(self.worlds)) if mask >> i & 1
        )

    def _closure(self, mask: int) -> int:
        acc = 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            acc |= self._up[i]
            m &= m - 1
        return acc

    def _upset_masks(self) -> tuple[int, ...]:
        """All upward-closed subsets as bitmasks, ascending.

        Worlds are added in order of rising successor count, so every
        strict successor of a world is added before it.  The upsets found
        so far are those of the worlds added so far, and the world joins
        each of them that already holds all its strict successors; so the
        cost is proportional to the number of upsets rather than to the
        full powerset.
        """
        if self._upsets is None:
            found = [0]
            for i in sorted(range(len(self._up)), key=lambda i: self._up[i].bit_count()):
                bit = 1 << i
                above = self._up[i] & ~bit
                found += [u | bit for u in found if not above & ~u]
            self._upsets = tuple(sorted(found))
        return self._upsets

    def _subset_masks(self) -> range:
        return range(1 << len(self.worlds))

    # -- misc ----------------------------------------------------------------

    def to_obj(self) -> dict:
        """A JSON-ready description in the model file format."""
        obj = {"kind": self.kind}
        if self.kind == "tree":
            obj["worlds"] = [list(w) for w in self.worlds]
        else:
            obj["worlds"] = list(self.worlds)
            n = len(self.worlds)
            cover = []
            for i in range(n):
                for j in range(n):
                    if i == j or not self._up[i] >> j & 1:
                        continue
                    between = self._up[i] & ~(1 << i) & ~(1 << j)
                    if not any(
                        between >> k & 1 and self._up[k] >> j & 1 for k in range(n)
                    ):
                        cover.append([self.worlds[i], self.worlds[j]])
            obj["edges"] = cover
        obj["valuation"] = {
            var: [list(w) if self.kind == "tree" else w for w in sorted(image)]
            for var, image in self.valuation.items()
        }
        obj["mode"] = self.mode
        return obj

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.mode == other.mode
            and self.worlds == other.worlds
            and self._up == other._up
            and self.valuation == other.valuation
        )

    def __hash__(self):
        return hash((self.kind, self.mode, self.worlds, self._up))

    def __repr__(self):
        return (
            f"Model(kind={self.kind!r}, mode={self.mode!r}, "
            f"worlds={len(self.worlds)}, root={self.root!r})"
        )


def chain(n: int, mode: str = INT) -> Model:
    """The linear tree with exactly `n` worlds."""
    if n < 1:
        raise ValueError("a chain needs at least one world")
    # World i lies below exactly the worlds i, i+1, ..., n-1.
    full = (1 << n) - 1
    up = [full >> i << i for i in range(n)]
    return Model("tree", mode, [(0,) * i for i in range(n)], up, {})


class Forest:
    """Rooted structures side by side as one bit vector.

    Component i holds `sizes[i]` worlds, in the order of its own worlds,
    right after the worlds of component i - 1, and `starts` has a bit at
    each component's first world.  The order is kept as offset masks:
    `ahead` pairs each d > 0 with the worlds v whose world v - d is a
    strict predecessor of v, `behind` each d > 0 with the worlds v whose
    world v + d is one, both in ascending d and without empty masks.  So
    `down` costs two operations per offset however many components there
    are.  The forest reads these masks once, off its components' successor
    masks: from the subtree sizes when every component is a tree, so a
    long chain costs O(n), else pair by pair.  A single model is a forest
    of one component.

    The forest keeps its models until the first intuitionistic
    `propositions` call, which zips their `_upset_masks` and drops them.
    `valuation` assigns a variable only where every component assigns it.
    """

    __slots__ = (
        "sizes", "full", "starts", "ahead", "behind", "valuation",
        "_models", "_zipped", "_subsets",
    )

    def __init__(self, models):
        """The models side by side in the given order."""
        self.sizes = tuple(len(m.worlds) for m in models)
        offsets = list(accumulate(self.sizes, initial=0))
        self.full = (1 << offsets.pop()) - 1
        self.starts = sum(map(lshift, repeat(1), offsets))
        # Components own disjoint bits, so each one's successor masks,
        # shifted to its place, are the forest's.
        up = [mask << offset for m, offset in zip(models, offsets) for mask in m._up]
        n = max(self.sizes)  # no offset reaches n
        ahead, behind = [0] * n, [0] * n
        if all(m.kind == "tree" for m in models):
            # Each subtree is the run of indices that starts at its root, so
            # v - d is a strict predecessor of v iff 0 < d < size(v - d).
            by_size = [0] * (n + 1)
            for w, mask in enumerate(up):
                by_size[mask.bit_count()] |= 1 << w
            larger = 0
            for d in range(n - 1, 0, -1):
                larger |= by_size[d + 1]
                ahead[d] = larger << d
        else:
            for w, mask in enumerate(up):
                mask ^= 1 << w  # its strict successors
                while mask:
                    v = mask.bit_length() - 1
                    mask ^= 1 << v
                    if v > w:
                        ahead[v - w] |= 1 << v
                    else:
                        behind[w - v] |= 1 << v
        self.ahead = tuple((d, mask) for d, mask in enumerate(ahead) if mask)
        self.behind = tuple((d, mask) for d, mask in enumerate(behind) if mask)
        shared = set.intersection(*(set(m._val_masks) for m in models))
        self.valuation = {
            var: sum(m._val_masks[var] << offset for m, offset in zip(models, offsets))
            for var in shared
        }
        self._models = models
        one_size = len(set(self.sizes)) == 1  # then subset k is k * starts
        self._subsets = range(0, self.starts << self.sizes[0], self.starts) if one_size else None

    def down(self, x: int) -> int:
        """The worlds that lie below or at some world of `x`."""
        result = x
        for d, mask in self.ahead:
            result |= (x & mask) >> d
        for d, mask in self.behind:
            result |= (x & mask) << d
        return result

    def propositions(self, s4: bool):
        """The forest's propositions, zipped across its components.

        Proposition k is the union over the components of each one's
        proposition k mod (its number of propositions), so every component
        meets each of its own propositions at least once.  In S4 mode a
        component of n worlds has its 2**n subsets in counting order, so
        with one size proposition k is k * starts, a `range`; with several,
        the zip is listed on first use and kept.
        """
        if s4:
            if self._subsets is None:
                self._subsets = _zip_across(self.sizes, [range(1 << n) for n in self.sizes])
            return self._subsets
        models = self._models
        if models is not None:
            self._zipped = _zip_across(self.sizes, [m._upset_masks() for m in models])
            self._models = None
        return self._zipped


def _zip_across(sizes, propositions) -> list:
    """Each component's own `propositions`, zipped as `Forest.propositions` says."""
    # Components with as many propositions as each other are merged first,
    # then each merged list is repeated up to the longest one.
    tiles = {}
    for offset, own in zip(accumulate(sizes, initial=0), propositions):
        tile = tiles.get(len(own)) or [0] * len(own)
        tiles[len(own)] = [t | p << offset for t, p in zip(tile, own)]
    zipped = [0] * max(tiles)
    for tile in tiles.values():
        zipped = list(map(or_, zipped, cycle(tile)))
    return zipped


# --- the model file format -------------------------------------------------


def load_model(text: str) -> Model:
    """Parse a model from its JSON description.

    Format::

        {"kind": "tree" | "poset",
         "worlds": [...],            tree: arrays of naturals, [] is the root
         "edges": [[a, b], ...],     posets only; ignored for trees
         "valuation": {"p": [...]},  optional
         "mode": "int" | "s4"}       optional, defaults to "int"
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ModelFormatError("model description must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("tree", "poset"):
        raise ModelFormatError(f"kind must be 'tree' or 'poset', got {kind!r}")
    worlds = obj.get("worlds")
    if not isinstance(worlds, list):
        raise ModelFormatError("worlds must be a list")
    mode = obj.get("mode", INT)
    raw_val = obj.get("valuation", {})
    if not isinstance(raw_val, dict):
        raise ModelFormatError("valuation must be an object")

    def decode_world(w):
        if kind == "tree":
            if not isinstance(w, list):
                raise ModelFormatError(f"tree worlds are arrays of naturals: {w!r}")
            return tuple(w)
        return w

    def image_world(w):
        # The factories validate the worlds, but the worlds of a valuation
        # image are only looked up, so they are checked here.
        if kind == "tree":
            return tree_world(w)
        if not isinstance(w, str):
            raise ModelFormatError(f"poset worlds are strings: {w!r}")
        return w

    decoded = [decode_world(w) for w in worlds]
    valuation = {}
    for var, image in raw_val.items():
        if not isinstance(image, list):
            raise ModelFormatError(f"valuation of {var!r} must be a list")
        valuation[var] = [image_world(w) for w in image]
    try:
        if kind == "tree":
            m = Model.tree(decoded, valuation, mode)
        else:
            edges = obj.get("edges", [])
            if not isinstance(edges, list):
                raise ModelFormatError("edges must be a list")
            m = Model.poset(decoded, edges, valuation, mode)
    except UnknownWorldError as e:
        raise ModelFormatError(str(e)) from None
    return m


def dump_model(m: Model) -> str:
    """Serialize a model; loading the result reproduces the model exactly."""
    return json.dumps(m.to_obj(), separators=(",", ":"))


# --- proposition operations --------------------------------------------------


def enumerate_upsets(m: Model) -> Iterator[frozenset]:
    """All upward-closed subsets of the world set, each exactly once,
    ordered by their characteristic bit vector over the sorted worlds."""
    for mask in m._upset_masks():
        yield m._set_of(mask)


def enumerate_subsets(m: Model) -> Iterator[frozenset]:
    """All subsets of the world set in the same deterministic order."""
    for mask in m._subset_masks():
        yield m._set_of(mask)


def upward_closure(m: Model, worlds) -> frozenset:
    """The least upward-closed superset of `worlds`."""
    return m._set_of(m._closure(m._mask_of(worlds)))
