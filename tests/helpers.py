"""Shared test machinery: seeded random generators for formulas and models,
plus independent brute-force oracles that deliberately avoid the code paths
they are used to check (pointwise forcing instead of extension vectors,
powerset filtering instead of frontier descent, parent arrays plus subtree
sorting instead of canonical multiset recursion).
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from qptrees.formula import (
    INT,
    S4,
    And,
    Bottom,
    Box,
    Diamond,
    Exists,
    Forall,
    Implies,
    Or,
    Var,
    neg,
)
from qptrees.kripke import Model, upward_closure

VARS = ("p", "q", "r")


# --- random formulas ---------------------------------------------------------


def random_formula(rng, max_depth, lang=INT, scope=VARS, quantifiers=3, closed=False):
    budget = [quantifiers]

    def leaf(in_scope):
        pool = sorted(in_scope) + ["bot"]
        pick = rng.choice(pool)
        return Bottom() if pick == "bot" else Var(pick)

    def gen(depth, in_scope):
        if depth == 0:
            return leaf(in_scope)
        kinds = ["and", "or", "implies", "neg", "leaf"]
        if budget[0] > 0:
            kinds += ["forall", "forall", "exists", "exists"]
        if lang == S4:
            kinds += ["box", "dia"]
        kind = rng.choice(kinds)
        if kind == "leaf":
            return leaf(in_scope)
        if kind == "neg":
            return neg(gen(depth - 1, in_scope))
        if kind == "box":
            return Box(gen(depth - 1, in_scope))
        if kind == "dia":
            return Diamond(gen(depth - 1, in_scope))
        if kind in ("and", "or", "implies"):
            node = {"and": And, "or": Or, "implies": Implies}[kind]
            return node(gen(depth - 1, in_scope), gen(depth - 1, in_scope))
        budget[0] -= 1
        var = rng.choice(VARS)
        node = Forall if kind == "forall" else Exists
        return node(var, gen(depth - 1, in_scope | {var}))

    start = frozenset() if closed else frozenset(scope)
    return gen(max_depth, start)


# --- random models -------------------------------------------------------------


def random_words(rng, n):
    words = [()]
    next_child = {(): 0}
    for _ in range(n - 1):
        parent = words[rng.randrange(len(words))]
        w = parent + (next_child[parent],)
        next_child[parent] += 1
        next_child[w] = 0
        words.append(w)
    return words


def _random_valuation(rng, skeleton, mode, variables):
    valuation = {}
    for v in variables:
        subset = frozenset(w for w in skeleton.worlds if rng.random() < 0.5)
        if mode == INT:
            subset = upward_closure(skeleton, subset)
        valuation[v] = subset
    return valuation


def random_tree(rng, max_worlds, mode=INT, variables=VARS):
    words = random_words(rng, rng.randint(1, max_worlds))
    skeleton = Model.tree(words, {}, mode)
    return Model.tree(words, _random_valuation(rng, skeleton, mode, variables), mode)


def random_poset_model(rng, max_worlds, mode=INT, variables=VARS):
    n = rng.randint(1, max_worlds)
    worlds = [f"n{i}" for i in range(n)]
    edges = [[worlds[0], w] for w in worlds[1:]]
    for i, j in combinations(range(1, n), 2):
        if rng.random() < 0.4:
            edges.append([worlds[i], worlds[j]])
    skeleton = Model.poset(worlds, edges, {}, mode)
    return Model.poset(
        worlds, edges, _random_valuation(rng, skeleton, mode, variables), mode
    )


def random_model(rng, max_worlds, mode=INT, variables=VARS):
    if rng.random() < 0.5:
        return random_tree(rng, max_worlds, mode, variables)
    return random_poset_model(rng, max_worlds, mode, variables)


def with_assignment(m, var, proposition):
    """The model that differs from `m` only in what it assigns to `var`."""
    return m.with_valuation({**m.valuation, var: frozenset(proposition)})


# --- independent forcing oracle ----------------------------------------------------
#
# Pointwise recursion over worlds, with quantifiers ranging over subsets
# produced by filtering the full powerset.


def powerset(worlds):
    ws = sorted(worlds)
    for r in range(len(ws) + 1):
        for combo in combinations(ws, r):
            yield frozenset(combo)


def naive_upsets(m):
    return [
        s
        for s in powerset(m.worlds)
        if all(x in s for w in s for x in m.above(w))
    ]


def naive_forces(m, h, f, val, ups):
    if isinstance(f, Var):
        return h in val[f.name]
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return naive_forces(m, h, f.left, val, ups) and naive_forces(m, h, f.right, val, ups)
    if isinstance(f, Or):
        return naive_forces(m, h, f.left, val, ups) or naive_forces(m, h, f.right, val, ups)
    if isinstance(f, Implies):
        return all(
            not naive_forces(m, h2, f.left, val, ups)
            or naive_forces(m, h2, f.right, val, ups)
            for h2 in m.above(h)
        )
    if isinstance(f, Forall):
        return all(
            naive_forces(m, h, f.body, {**val, f.var: P}, ups) for P in ups
        )
    if isinstance(f, Exists):
        return any(
            naive_forces(m, h, f.body, {**val, f.var: P}, ups) for P in ups
        )
    raise TypeError(f"unexpected node in intuitionistic oracle: {f!r}")


def naive_forces_int(m, h, f):
    return naive_forces(m, h, f, dict(m.valuation), naive_upsets(m))


def naive_forces_s4_rec(m, h, f, val, subsets):
    if isinstance(f, Var):
        return h in val[f.name]
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return naive_forces_s4_rec(m, h, f.left, val, subsets) and naive_forces_s4_rec(
            m, h, f.right, val, subsets
        )
    if isinstance(f, Or):
        return naive_forces_s4_rec(m, h, f.left, val, subsets) or naive_forces_s4_rec(
            m, h, f.right, val, subsets
        )
    if isinstance(f, Implies):
        return not naive_forces_s4_rec(m, h, f.left, val, subsets) or naive_forces_s4_rec(
            m, h, f.right, val, subsets
        )
    if isinstance(f, Box):
        return all(naive_forces_s4_rec(m, h2, f.body, val, subsets) for h2 in m.above(h))
    if isinstance(f, Diamond):
        return any(naive_forces_s4_rec(m, h2, f.body, val, subsets) for h2 in m.above(h))
    if isinstance(f, Forall):
        return all(
            naive_forces_s4_rec(m, h, f.body, {**val, f.var: P}, subsets)
            for P in subsets
        )
    if isinstance(f, Exists):
        return any(
            naive_forces_s4_rec(m, h, f.body, {**val, f.var: P}, subsets)
            for P in subsets
        )
    raise TypeError(f"unexpected node in S4 oracle: {f!r}")


def naive_forces_s4(m, h, f):
    return naive_forces_s4_rec(m, h, f, dict(m.valuation), list(powerset(m.worlds)))


# --- independent rooted-tree oracle ---------------------------------------------------


def ahu_encoding(parents):
    """Canonical form of the rooted tree given by a parent array."""
    children = {i: [] for i in range(len(parents))}
    for i, p in enumerate(parents):
        if i:
            children[p].append(i)

    def encode(v):
        return tuple(sorted(encode(c) for c in children[v]))

    return encode(0)


def brute_force_tree_shapes(n):
    """Every rooted tree on n nodes via parent arrays with parents[i] < i,
    one canonical form per isomorphism class."""
    if n == 1:
        return {()}
    shapes = set()
    for parents in product(*[range(i) for i in range(1, n)]):
        shapes.add(ahu_encoding((0,) + parents))
    return shapes


def rooted_tree_count(n):
    """Recurrence for the number of unlabeled rooted trees."""
    counts = {1: 1}
    for m in range(2, n + 1):
        total = 0
        for j in range(1, m):
            s = sum(d * counts[d] for d in range(1, j + 1) if j % d == 0)
            total += s * counts[m - j]
        counts[m] = total // (m - 1)
    return counts[n]


# --- independent poset oracle ----------------------------------------------------------


def poset_canonical(matrix):
    """Minimum over all relabelings of the flattened order matrix."""
    n = len(matrix)
    best = None
    for perm in permutations(range(n)):
        flat = tuple(matrix[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or flat < best:
            best = flat
    return best


def brute_force_poset_forms(n):
    """Canonical forms of every poset with a least element on n elements,
    filtering all reflexive relations over the off-diagonal bit patterns."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    forms = set()
    for bits in range(1 << len(offdiag)):
        mat = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if bits >> k & 1:
                mat[i][j] = True
        if any(mat[i][j] and mat[j][i] for i, j in combinations(range(n), 2)):
            continue
        if any(
            mat[i][j] and mat[j][k] and not mat[i][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            continue
        if not any(all(mat[i][j] for j in range(n)) for i in range(n)):
            continue
        forms.add(poset_canonical(mat))
    return forms


def _reference_form(matrix):
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


def reference_posets(n, mode=INT):
    """The posets with a least element on `n` worlds, in the order and with
    the labels `search.enumerate_posets` must give: boolean order matrices
    over the upper-triangular patterns, each reduced to its least flattened
    relabeling, the forms sorted."""
    worlds = [f"w{i}" for i in range(n)]
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    forms = set()
    for bits in range(1 << len(pairs)):
        rel = [[i == j or i == 0 for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                rel[i][j] = True
        if any(rel[i][j] and rel[j][l] and not rel[i][l] for i, j in pairs for l in range(j + 1, n)):
            continue
        forms.add(_reference_form(rel))
    for form in sorted(forms):
        edges = [
            [worlds[i], worlds[j]]
            for i in range(n)
            for j in range(n)
            if i != j and form[i * n + j]
        ]
        yield Model.poset(worlds, edges, {}, mode)


def model_order_matrix(m):
    n = len(m.worlds)
    return [
        [m.worlds[j] in m.above(m.worlds[i]) for j in range(n)] for i in range(n)
    ]
