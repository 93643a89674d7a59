"""Seeded query streams for the four workloads, and the checks on their outputs.

Inputs are made here from the seed alone: formulas are generated and printed
by this module's own small tuple syntax, so the stream for a seed does not
depend on the program under test.  Each stream is a fixed prefix of the
paper's formulas followed by an endless sequence of blocks.  Every block has
the same composition by stratum, where a stratum is a property this module
can compute without the program:

* ``F``: false classically, i.e. on the one-world model, so refuted there;
* ``T<w>``: true classically, with at most ``w`` bound variables free at once.

Random formulas that are true classically are almost always valid on the
searched structures too, so fixing the share of each stratum fixes the share
of cheap refutations and of full searches in every run, whatever the seed.
Only the formulas inside each stratum change with the seed.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

VARS = ("p", "q", "r")

# --- formulas as tuples --------------------------------------------------------

BOT = ("bot",)


def neg(a):
    return ("imp", a, BOT)


P, Q = ("var", "p"), ("var", "q")
QEM = ("forall", "p", ("or", P, neg(P)))
NOT_QEM = neg(QEM)
NOT_NOT_QEM = neg(neg(QEM))
WEM_TO_LIN = (
    "imp",
    ("forall", "p", ("or", neg(P), neg(neg(P)))),
    ("forall", "p", ("forall", "q", ("or", ("imp", P, Q), ("imp", Q, P)))),
)


def random_formula(rng, depth, modal=False, quantifiers=3, scope=()):
    """A random formula; closed when `scope` is empty."""
    budget = [quantifiers]

    def leaf(in_scope):
        pick = rng.choice(sorted(in_scope) + ["bot"])
        return BOT if pick == "bot" else ("var", pick)

    def gen(d, in_scope):
        if d == 0:
            return leaf(in_scope)
        kinds = ["and", "or", "imp", "not", "leaf"]
        if budget[0] > 0:
            kinds += ["forall", "forall", "exists", "exists"]
        if modal:
            kinds += ["box", "dia"]
        kind = rng.choice(kinds)
        if kind == "leaf":
            return leaf(in_scope)
        if kind == "not":
            return neg(gen(d - 1, in_scope))
        if kind in ("box", "dia"):
            return (kind, gen(d - 1, in_scope))
        if kind in ("and", "or", "imp"):
            left = gen(d - 1, in_scope)
            return (kind, left, gen(d - 1, in_scope))
        budget[0] -= 1
        var = rng.choice(VARS)
        return (kind, var, gen(d - 1, in_scope | {var}))

    return gen(depth, frozenset(scope))


def show(f, ctx=1):
    """Concrete syntax with the same precedence rules as the program's printer."""
    op = f[0]
    if op == "var":
        return f[1]
    if op == "bot":
        return "bot"
    if op == "imp" and f[2] == BOT:
        return "~" + show(f[1], 4)
    if op == "imp":
        s, prec = show(f[1], 2) + " -> " + show(f[2], 1), 1
    elif op == "or":
        s, prec = show(f[1], 2) + " | " + show(f[2], 3), 2
    elif op == "and":
        s, prec = show(f[1], 3) + " & " + show(f[2], 4), 3
    elif op in ("forall", "exists"):
        s, prec = f"{op} {f[1]} " + show(f[2], 4), 4
    else:  # box, dia
        s, prec = f"{op} " + show(f[1], 4), 4
    return "(" + s + ")" if prec < ctx else s


def free_vars(f):
    op = f[0]
    if op == "var":
        return frozenset((f[1],))
    if op == "bot":
        return frozenset()
    if op in ("forall", "exists"):
        return free_vars(f[2]) - {f[1]}
    if op in ("box", "dia"):
        return free_vars(f[1])
    return free_vars(f[1]) | free_vars(f[2])


def width(f, bound=frozenset()):
    """w: the largest number of bound variables free at once in a subformula."""
    here = len(free_vars(f) & bound)
    op = f[0]
    if op in ("var", "bot"):
        return here
    if op in ("forall", "exists"):
        return max(here, width(f[2], bound | {f[1]}))
    if op in ("box", "dia"):
        return max(here, width(f[1], bound))
    return max(here, width(f[1], bound), width(f[2], bound))


def classical(f, env):
    """Truth on the one-world model, where box and dia are the identity."""
    op = f[0]
    if op == "var":
        return env[f[1]]
    if op == "bot":
        return False
    if op == "and":
        return classical(f[1], env) and classical(f[2], env)
    if op == "or":
        return classical(f[1], env) or classical(f[2], env)
    if op == "imp":
        return not classical(f[1], env) or classical(f[2], env)
    if op in ("box", "dia"):
        return classical(f[1], env)
    values = (classical(f[2], {**env, f[1]: b}) for b in (False, True))
    return all(values) if op == "forall" else any(values)


def embed(f):
    """The box translation into S4, written independently of the program's."""
    op = f[0]
    if op in ("var", "bot"):
        return ("box", f)
    if op in ("and", "or"):
        return (op, embed(f[1]), embed(f[2]))
    if op == "imp":
        return ("box", ("imp", embed(f[1]), embed(f[2])))
    return (op, f[1], embed(f[2]))


def stratum(f):
    """The stratum: "F" unless true on the one-world model under every
    valuation, "T<w>" otherwise."""
    names = sorted(free_vars(f))
    for bits in range(1 << len(names)):
        env = {name: bool(bits >> i & 1) for i, name in enumerate(names)}
        if not classical(f, env):
            return "F"
    return f"T{width(f)}"


class FormulaSource:
    """Distinct random formulas drawn by stratum from one seeded generator."""

    KEEP = 64  # formulas kept per stratum not yet asked for

    def __init__(self, rng, make):
        self.rng = rng
        self.make = make
        self.seen = set()
        self.queues = {}

    def draw(self, wanted):
        queue = self.queues.setdefault(wanted, deque())
        while not queue:
            f = self.make(self.rng)
            text = show(f)
            if text in self.seen:
                continue
            self.seen.add(text)
            other = self.queues.setdefault(stratum(f), deque())
            if len(other) < self.KEEP:
                other.append(f)
        return queue.popleft()


# --- models ----------------------------------------------------------------------


def tree_shapes(n):
    """Every rooted tree with n nodes, one per isomorphism class, as sorted
    tuples of child shapes."""
    if n == 1:
        return [()]
    shapes = set()
    for forest in _forests(n - 1, ()):
        shapes.add(tuple(sorted(forest)))
    return sorted(shapes)


def _forests(total, floor):
    if total == 0:
        yield ()
        return
    for size in range(1, total + 1):
        for shape in tree_shapes(size):
            if shape < floor:
                continue
            for rest in _forests(total - size, shape):
                yield (shape,) + rest


def shape_words(shape, prefix=()):
    words = [list(prefix)]
    for i, child in enumerate(shape):
        words.extend(shape_words(child, prefix + (i,)))
    return words


def tree_file(shape, mode):
    return {"kind": "tree", "worlds": shape_words(shape), "mode": mode}


def above_sets(worlds, edges):
    """For each world index, the indices of the worlds at or above it."""
    index = {w: i for i, w in enumerate(worlds)}
    above = [{i} for i in range(len(worlds))]
    for a, b in edges:
        above[index[a]].add(index[b])
    for _ in worlds:
        above = [set().union(*(above[j] for j in up)) for up in above]
    return above


def poset_file(worlds, edges, valuation=None):
    """A model file with the facts the checks and the profile need: the
    maximal worlds and the number of upward-closed subsets."""
    above = above_sets(worlds, edges)
    n = len(worlds)
    model = {"kind": "poset", "worlds": worlds, "edges": edges, "valuation": valuation or {}}
    leaves = sorted(worlds[i] for i in range(n) if above[i] == {i})
    props = sum(
        1
        for mask in range(1 << n)
        if all(mask >> j & 1 for i in range(n) if mask >> i & 1 for j in above[i])
    )
    return model, leaves, props


def random_poset_file(rng, n):
    """A poset with least element n0, random extra edges along the index
    order, and a random upward-closed valuation of p, q and r."""
    worlds = [f"n{i}" for i in range(n)]
    edges = [[worlds[0], w] for w in worlds[1:]]
    edges += [[worlds[i], worlds[j]] for i in range(1, n) for j in range(i + 1, n)
              if rng.random() < 0.4]
    above = above_sets(worlds, edges)
    valuation = {}
    for var in VARS:
        image = set()
        for i in range(n):
            if rng.random() < 0.3:
                image |= above[i]
        valuation[var] = [worlds[i] for i in sorted(image)]
    return poset_file(worlds, edges, valuation)


DIAMOND = poset_file(["g", "a", "b", "t"], [["g", "a"], ["g", "b"], ["a", "t"], ["b", "t"]])


# --- queries -------------------------------------------------------------------

PREVIOUS_EMBEDDED = object()  # argv placeholder: the EMBEDDED line of the previous query


@dataclass
class Query:
    """One request of the stream.

    A CLI query has `argv`; a query through the public functions has `call`,
    which prints its result like the CLI does and returns an exit status.
    `check(out, rc, oracles)` returns None or the reason the output is wrong.
    `size` is the largest structure the query can search and `props` the
    most propositions a quantifier ranges over on it.
    """

    label: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None
    w: int = 0
    size: int = 0
    props: int = 0
    expect: tuple = (0, 1)

    def resolve(self, previous_out: str):
        if self.argv is None or PREVIOUS_EMBEDDED not in self.argv:
            return self.argv
        embedded = fields_of(previous_out).get("EMBEDDED", "")
        return [embedded if a is PREVIOUS_EMBEDDED else a for a in self.argv]


def fields_of(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields


def _require(fields, **expected):
    for key, value in expected.items():
        key = key.replace("_", "-")
        if fields.get(key) != value:
            return f"{key} is {fields.get(key)!r}, expected {value!r}"
    return None


def props_bound(n, mode):
    # the most propositions on an n-world tree or rooted poset: all subsets
    # in S4, upsets of the root plus an antichain of n-1 leaves otherwise
    return 1 << n if mode == "s4" else (1 << (n - 1)) + 1


def decide_query(f, mode, cls, bound, expect="any", embedded_from=None, label=None):
    """`decide` of `f`, or of the image printed by the previous `embed` query
    when `embedded_from` is the intuitionistic formula that was embedded.

    expect: "any", "refuted-at-1" (false on one world), "valid" (no
    countermodel up to the bound), or "diamond" (refuted by the diamond).
    """
    text = show(embed(embedded_from) if embedded_from else f)
    argv = ["decide", "--formula", PREVIOUS_EMBEDDED if embedded_from else text,
            "--class", cls, "--max", str(bound), "--mode", mode]

    def check(out, rc, oracles):
        fields = fields_of(out)
        bad = _require(fields, FORMULA=text, CLASS=cls, MODE=mode, MAX_WORLDS=str(bound))
        if bad:
            return bad
        outcome = fields.get("OUTCOME")
        if (rc, outcome) not in ((0, "no-counterexample"), (1, "countermodel")):
            return f"exit {rc} with OUTCOME {outcome!r}"
        if expect == "valid" and rc != 0:
            return "a countermodel was reported for a formula valid up to the bound"
        if expect in ("refuted-at-1", "diamond") and rc != 1:
            return "no countermodel was reported for a refutable formula"
        if rc == 0:
            return None
        m = oracles.kripke.load_model(fields["COUNTERMODEL"])
        if len(m.worlds) > bound or m.kind != ("tree" if cls == "finite-trees" else "poset"):
            return "the countermodel is outside the searched class"
        if expect == "refuted-at-1" and len(m.worlds) != 1:
            return f"refuted at {len(m.worlds)} worlds, expected the one-world tree"
        if expect == "diamond" and not oracles.is_diamond(m):
            return "the countermodel is not the diamond"
        formula = oracles.formula.parse_formula(text, mode)
        if oracles.forces(m, m.root, formula):
            return "the countermodel does not refute the formula under pointwise forcing"
        if embedded_from is not None:
            source = oracles.formula.parse_formula(show(embedded_from), "int")
            if oracles.forces(m.with_mode("int"), m.root, source):
                return "the embedded formula's countermodel does not refute the original"
        return None

    return Query(label or f"decide-{stratum(f)}", check, argv=argv, w=width(f),
                 size=bound, props=props_bound(bound, mode))


def embed_query(f):
    text = show(f)

    def check(out, rc, oracles):
        return _require(fields_of(out), FORMULA=text, EMBEDDED=show(embed(f)))

    return Query("embed", check, argv=["embed", "--formula", text], w=width(f), expect=(0,))


def check_query(f, model, path, props, world, extension=None, label="check"):
    """`check` of `f` on a model file at `world`; `extension`, when given, is
    the extension the paper predicts."""
    text = show(f)
    argv = ["check", "--model", str(path), "--formula", text]
    if world is not None:
        argv += ["--world", world]
    n = len(model["worlds"])

    def check(out, rc, oracles):
        fields = fields_of(out)
        bad = _require(fields, FORMULA=text, MODE="int")
        if bad:
            return bad
        m = oracles.kripke.load_model(json.dumps(model))
        formula = oracles.formula.parse_formula(text, m.mode)
        truth = sorted(w for w in m.worlds if oracles.forces(m, w, formula))
        try:
            reported = json.loads(fields.get("EXTENSION", "null"))
        except json.JSONDecodeError:
            return "EXTENSION is not JSON"
        if reported != truth:
            return f"EXTENSION {reported} differs from pointwise forcing {truth}"
        if extension is not None and reported != extension:
            return f"EXTENSION {reported}, the paper predicts {extension}"
        at = world if world is not None else m.root
        verdict = "true" if at in truth else "false"
        if fields.get("VERDICT") != verdict or rc != (0 if verdict == "true" else 1):
            return f"VERDICT {fields.get('VERDICT')!r} with exit {rc}, expected {verdict}"
        return None

    return Query(label, check, argv=argv, w=width(f), size=n, props=props)


def eval_query(f, mode, shape):
    """translate_at plus eval_finite at every world of one tree."""
    text = show(f)
    model = tree_file(shape, mode)
    model_text = json.dumps(model)

    def call():
        from qptrees import formula, kripke, mso

        m = kripke.load_model(model_text)
        phi = mso.translate_at(formula.parse_formula(text, mode), "x", mode)
        domain = set(m.worlds)
        holds = [list(w) for w in m.worlds if mso.eval_finite(phi, m, {"T": domain, "x": w})]
        print(f"FORMULA: {text}")
        print(f"EXTENSION: {json.dumps(holds, separators=(',', ':'))}")
        return 0

    def check(out, rc, oracles):
        m = oracles.kripke.load_model(model_text)
        formula = oracles.formula.parse_formula(text, mode)
        truth = [list(w) for w in m.worlds if oracles.forces(m, w, formula)]
        reported = json.loads(fields_of(out).get("EXTENSION", "null"))
        if rc != 0 or reported != truth:
            return f"eval_finite extension {reported} differs from pointwise forcing {truth}"
        return None

    n = len(model["worlds"])
    return Query(f"eval-{mode}", check, call=call, w=width(f), size=n, props=1 << n, expect=(0,))


def translate_query(f, cls):
    text = show(f)
    mode = "s4" if cls.startswith("s4t") else "int"

    def check(out, rc, oracles):
        fields = fields_of(out)
        bad = _require(fields, FORMULA=text, CLASS=cls)
        if bad:
            return bad
        mso = oracles.mso
        expected = mso.validity_sentence(
            oracles.formula.parse_formula(text, mode), mso.LogicClass.parse(cls)
        )
        if oracles.read_mso(fields.get("MSO", "")) != expected:
            return "the MSO line does not read back as the validity sentence"
        return None

    return Query("translate", check, argv=["translate", "--formula", text, "--class", cls],
                 w=width(f), expect=(0,))


def godel_query(f, k):
    """Tautology check over the k+1 evenly spaced values 0, 1/k, ..., 1."""
    text = show(f)
    values = ",".join(str(Fraction(i, k)) for i in range(k + 1))
    names = sorted(free_vars(f))
    closure = f
    for name in reversed(names):
        closure = ("forall", name, closure)

    def check(out, rc, oracles):
        fields = fields_of(out)
        bad = _require(fields, FORMULA=text, VALUES=values)
        if bad:
            return bad
        verdict = fields.get("TAUTOLOGY")
        if (rc, verdict) not in ((0, "yes"), (1, "no")):
            return f"exit {rc} with TAUTOLOGY {verdict!r}"
        # Goedel logic over k+1 values is the logic of the k-element chain.
        on_chain = oracles.validates(oracles.kripke.chain(k), oracles.formula.parse_formula(show(closure)))
        if on_chain != (verdict == "yes"):
            return f"TAUTOLOGY {verdict} disagrees with the {k}-element chain"
        return None

    return Query(f"godel-{k + 1}", check, argv=["godel", "--formula", text, "--values", values],
                 w=width(closure), size=k, props=k + 1)


# --- the workloads -------------------------------------------------------------------


@dataclass
class Workload:
    """A seeded stream: `prefix` once, then `block()` over and over."""

    prefix: list
    block: Callable


def _blocks(rng, pattern, make_query):
    def block():
        slots = list(pattern)
        rng.shuffle(slots)
        return [q for slot in slots for q in make_query(slot)]

    return block


def trees_int(seed, workdir, smoke):
    """Intuitionistic decide on finite trees: evaluation-bound."""
    bound = 3 if smoke else 7
    rng = random.Random(seed)
    source = FormulaSource(rng, lambda r: random_formula(r, 5, quantifiers=3))
    cls = "finite-trees"
    prefix = [
        decide_query(WEM_TO_LIN, "int", cls, bound, "valid", label="paper"),
        decide_query(NOT_NOT_QEM, "int", cls, bound, "valid", label="paper"),
        decide_query(NOT_QEM, "int", cls, bound, "refuted-at-1", label="paper"),
        decide_query(QEM, "int", cls, bound, "any", label="paper"),
    ]
    # A little over half the queries are refuted at one world, so the median
    # lies among those cheap refutations and the 90th percentile among full
    # searches.  Formulas true on one world with w=2 cost up to 100 times
    # the median, so the w=2 load comes from WEM_TO_LIN alone; refuted ones
    # of every w stay in F.  Those with w=0 are left out too: no quantifier
    # does work in them, so they measure tree enumeration, not evaluation.
    pattern = ["F"] * 11 + ["T1"] * 9

    def make(slot):
        f = source.draw(slot)
        return [decide_query(f, "int", cls, bound, "refuted-at-1" if slot == "F" else "any")]

    return Workload(prefix, _blocks(rng, pattern, make))


def trees_s4(seed, workdir, smoke):
    """S4 decide on finite trees: half box images of intuitionistic formulas,
    half random modal formulas."""
    bound = 3 if smoke else 5
    rng = random.Random(seed)
    plain = FormulaSource(rng, lambda r: random_formula(r, 5, quantifiers=3))
    modal = FormulaSource(rng, lambda r: random_formula(r, 5, modal=True, quantifiers=3))
    cls = "finite-trees"

    def pair(f, expect, label=None):
        return [embed_query(f), decide_query(f, "s4", cls, bound, expect, embedded_from=f, label=label)]

    prefix = pair(WEM_TO_LIN, "valid", "paper") + pair(NOT_QEM, "refuted-at-1", "paper")
    # Nearly half the queries are embed/decide pairs.  Embeds and one-world
    # refutations are a little over half, so the median lies among them and
    # the 90th percentile among full searches.  Modal formulas true on one
    # world with w=2 are left out: their cost has a coefficient of variation
    # above 2, which no run of this length averages away; the WEM_TO_LIN
    # image carries the w=2 load.
    pattern = ["mF"] * 5 + ["mT1"] * 3 + ["eT1"] * 3

    def make(slot):
        if slot[0] == "m":
            f = modal.draw(slot[1:])
            return [decide_query(f, "s4", cls, bound, "refuted-at-1" if slot == "mF" else "any",
                                 label=f"decide-modal-{slot[1:]}")]
        return pair(plain.draw(slot[1:]), "any", f"decide-image-{slot[1:]}")

    return Workload(prefix, _blocks(rng, pattern, make))


def posets(seed, workdir, smoke):
    """Decide on finite posets plus check on poset model files."""
    bound = 3 if smoke else 6
    rng = random.Random(seed)
    source = FormulaSource(rng, lambda r: random_formula(r, 5, quantifiers=3))
    open_source = FormulaSource(
        rng, lambda r: random_formula(r, 4, quantifiers=2, scope=VARS)
    )
    files = []
    for model, leaves, props in [DIAMOND] + [
        random_poset_file(rng, rng.randint(2, 4 if smoke else 6)) for _ in range(3 if smoke else 24)
    ]:
        path = workdir / f"model{len(files)}.json"
        path.write_text(json.dumps(model))
        files.append((model, path, leaves, props))
    diamond, diamond_path, _, diamond_props = files[0]
    cls = "finite-posets"
    prefix = [
        decide_query(WEM_TO_LIN, "int", cls, bound, "diamond" if bound >= 4 else "any", label="paper"),
        decide_query(NOT_NOT_QEM, "int", cls, bound, "valid", label="paper"),
        check_query(WEM_TO_LIN, diamond, diamond_path, diamond_props, None, label="paper"),
        check_query(QEM, diamond, diamond_path, diamond_props, None, ["t"], label="paper"),
    ]
    # About a fifth of the queries are full searches, whose cost is mostly
    # enumeration; the 90th percentile then falls inside their bulk.
    pattern = ["F", "T0", "T1", "T1"] + ["C"] * 8 + ["Q"] * 2

    def make(slot):
        if slot in ("C", "Q"):
            # open formulas need the valuation that only the random files have
            model, path, leaves, props = files[rng.randrange(slot == "C", len(files))]
            world = rng.choice([None] + model["worlds"])
            if slot == "Q":  # the extension of QEM is the set of maximal worlds
                return [check_query(QEM, model, path, props, world, leaves, label="check-qem")]
            return [check_query(open_source.draw(rng.choice(["F", "T1", "T2"])),
                                model, path, props, world)]
        f = source.draw(slot)
        return [decide_query(f, "int", cls, bound, "refuted-at-1" if slot == "F" else "any")]

    return Workload(prefix, _blocks(rng, pattern, make))


TRANSLATE_CLASSES = ("qpHt", "qpHt-fin", "qpHt-omega", "qpHt-2", "s4t", "s4t-fin", "s4t-2")


def oracles(seed, workdir, smoke):
    """The independent oracles: MSO translation and finite evaluation, and
    Goedel tautology checks."""
    max_tree = 2 if smoke else 5
    rng = random.Random(seed)
    plain = FormulaSource(rng, lambda r: random_formula(r, 4, quantifiers=2))
    modal = FormulaSource(rng, lambda r: random_formula(r, 4, modal=True, quantifiers=2))
    open_plain = FormulaSource(rng, lambda r: random_formula(r, 4, quantifiers=2, scope=VARS))
    shapes = [s for n in range(1, max_tree + 1) for s in tree_shapes(n)]
    prefix = [eval_query(WEM_TO_LIN, "int", s) for s in shapes if len(shape_words(s)) == max_tree]
    pattern = ["translate"] * 4 + ["eval-int"] * 4 + ["eval-s4"] * 2 + ["godel-5"] * 2 + ["godel-8"] * 2

    def make(slot):
        pick = rng.choice(["F", "T1", "T2"])
        if slot == "translate":
            cls = rng.choice(TRANSLATE_CLASSES)
            f = (modal if cls.startswith("s4t") else plain).draw(pick)
            return [translate_query(f, cls)]
        if slot.startswith("eval"):
            mode = slot[5:]
            f = (modal if mode == "s4" else plain).draw(pick)
            return [eval_query(f, mode, rng.choice(shapes))]
        k = 4 if slot == "godel-5" else 7
        if smoke:
            k = 2
        return [godel_query(open_plain.draw(pick), k)]

    return Workload(prefix, _blocks(rng, pattern, make))


WORKLOADS = {
    "trees-int": trees_int,
    "trees-s4": trees_s4,
    "posets": posets,
    "oracles": oracles,
}
