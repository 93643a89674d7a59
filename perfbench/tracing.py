"""Spans at the layer boundaries of qptrees, recorded from outside the program.

`install` wraps the public functions of each layer wherever a module of the
package looks them up: callers import names such as `validates`,
`bounded_validity` or `parse_formula` into their own namespace, so patching
only the defining module would miss those calls.  `Model` methods are
wrapped on the class.  Recursive helpers inside a layer (`semantics._ext`,
`formula._print`, ...) are not wrapped; a recursive public function such as
`t_embed` records only its outermost call.

Each span has a name, start, end, parent span and query.  Spans stay in
memory until the run ends.  The two proposition enumerators, `_upset_masks`
and `_subset_masks`, run once per quantifier evaluation, up to millions of
times per run, so they are not kept as spans: their time and counts are
folded into their parent span and into the kripke totals.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> layer; a layer's self time sums the self time of its spans
LAYERS = {
    "query": "query",
    "cli.run": "cli",
    "formula.parse_formula": "formula.parse",
    "formula.print_formula": "formula.print",
    "kripke.Model.tree": "kripke.build",
    "kripke.Model.poset": "kripke.build",
    "kripke.load_model": "kripke.build",
    "kripke.dump_model": "kripke.build",
    "kripke.Model._upset_masks": "kripke.upsets",
    "kripke.Model._subset_masks": "kripke.upsets",
    "search.enumerate_trees": "search",
    "search.enumerate_posets": "search",
    "search.bounded_validity": "search",
    "semantics.validates": "semantics",
    "semantics.extension_int": "semantics",
    "semantics.extension_s4": "semantics",
    "semantics.forces_int": "semantics",
    "semantics.forces_s4": "semantics",
    "embedding.t_embed": "embedding",
    "mso.translate_at": "mso.translate",
    "mso.validity_sentence": "mso.translate",
    "mso.emit": "mso.emit",
    "mso.eval_finite": "mso.eval",
    "godel.godel_eval": "godel",
    "godel.chain_correspondence": "godel",
}


def count_nodes(tree) -> int:
    """Nodes of a dataclass syntax tree (formulas and MSO sentences alike)."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        if dataclasses.is_dataclass(node):
            for f in dataclasses.fields(node):
                child = getattr(node, f.name)
                if dataclasses.is_dataclass(child) and not isinstance(child, type):
                    stack.append(child)
    return count


class Tracer:
    def __init__(self):
        self.on = False
        self.spans = []  # (id, name, start, end, parent id, query)
        self.stack = []  # open spans: [id, name, start, time covered by children]
        self.query = None
        self.self_s = defaultdict(float)  # per layer
        self.calls = Counter()  # per span name
        self.counts = Counter()  # per named count
        self.seen_models = set()  # models whose propositions were counted

    def open(self, name):
        frame = [len(self.spans) + len(self.stack), name, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = perf_counter()
        self.stack.pop()
        span_id, name, start, covered = frame
        duration = end - start
        self.self_s[LAYERS[name]] += duration - covered
        self.calls[name] += 1
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        self.spans.append((span_id, name, start, end, parent, self.query))
        return duration

    def fold(self, name, duration):
        self.self_s[LAYERS[name]] += duration
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][3] += duration

    def parent_layer(self):
        return LAYERS[self.stack[-1][1]].split(".")[0] if self.stack else None

    def write(self, path):
        with gzip.open(path, "wt") as out:
            for span in sorted(self.spans):
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


# --- wrappers ---------------------------------------------------------------------


def _wrap(tracer, name, fn, after=None):
    layer = LAYERS[name].split(".")[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on or (tracer.stack and tracer.stack[-1][1] == name):
            return fn(*args, **kwargs)
        outermost = tracer.parent_layer() != layer
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if after is not None:
            after(tracer, args, result, outermost)
        return result

    return wrapper


def _wrap_generator(tracer, name, fn):
    """Each `next()` on the returned generator is one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        return _traced_items(tracer, name, inner) if tracer.on else inner

    return wrapper


def _traced_items(tracer, name, inner):
    while True:
        frame = tracer.open(name)
        try:
            item = next(inner)
        except StopIteration:
            return
        finally:
            tracer.close(frame)
        tracer.counts["search.structures"] += 1
        yield item


def _wrap_propositions(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(model):
        if not tracer.on:
            return fn(model)
        hit = getattr(model, "_upsets", None) is not None and name.endswith("_upset_masks")
        start = perf_counter()
        result = fn(model)
        tracer.fold(name, perf_counter() - start)
        tracer.counts["kripke.upset_hits"] += hit
        if id(model) not in tracer.seen_models:
            tracer.seen_models.add(id(model))
            tracer.counts["kripke.propositions"] += len(result)
        return result

    return wrapper


def _after_parse(tracer, args, result, outermost):
    tracer.counts["formula.nodes"] += count_nodes(result)


def _after_translate(tracer, args, result, outermost):
    tracer.counts["mso.ir_nodes"] += count_nodes(result)


def _after_emit(tracer, args, result, outermost):
    tracer.counts["mso.emit_bytes"] += len(result.encode())


def _after_search(tracer, args, result, outermost):
    tracer.counts["search.countermodels"] += result.countermodel is not None


def _after_semantics(tracer, args, result, outermost):
    if outermost:
        tracer.counts["semantics.outer_calls"] += 1
        tracer.counts["semantics.worlds_evaluated"] += len(args[0].worlds)
        # the model was alive for the whole call, so its id was not reused
        tracer.seen_models.clear()


FUNCTIONS = [
    ("cli", "run", None),
    ("formula", "parse_formula", _after_parse),
    ("formula", "print_formula", None),
    ("kripke", "load_model", None),
    ("kripke", "dump_model", None),
    ("search", "bounded_validity", _after_search),
    ("semantics", "validates", _after_semantics),
    ("semantics", "extension_int", _after_semantics),
    ("semantics", "extension_s4", _after_semantics),
    ("semantics", "forces_int", _after_semantics),
    ("semantics", "forces_s4", _after_semantics),
    ("embedding", "t_embed", None),
    ("mso", "translate_at", _after_translate),
    ("mso", "validity_sentence", _after_translate),
    ("mso", "emit", _after_emit),
    ("mso", "eval_finite", None),
    ("godel", "godel_eval", None),
    ("godel", "chain_correspondence", None),
]
GENERATORS = [("search", "enumerate_trees"), ("search", "enumerate_posets")]


def _rebind(original, wrapper):
    """Point every name in the package that refers to `original` at `wrapper`."""
    for modname, module in list(sys.modules.items()):
        if modname != "qptrees" and not modname.startswith("qptrees."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every layer boundary; the wrappers record only while `tracer.on`."""
    import qptrees.cli  # noqa: F401  (loads every layer)

    package = sys.modules
    for module, name, after in FUNCTIONS:
        original = getattr(package[f"qptrees.{module}"], name)
        _rebind(original, _wrap(tracer, f"{module}.{name}", original, after))
    for module, name in GENERATORS:
        original = getattr(package[f"qptrees.{module}"], name)
        _rebind(original, _wrap_generator(tracer, f"{module}.{name}", original))
    model = package["qptrees.kripke"].Model
    for name in ("tree", "poset"):
        raw = vars(model)[name].__func__
        setattr(model, name, classmethod(_wrap(tracer, f"kripke.Model.{name}", raw, _count_build)))
    for name in ("_upset_masks", "_subset_masks"):
        setattr(model, name, _wrap_propositions(tracer, f"kripke.Model.{name}", vars(model)[name]))


def _count_build(tracer, args, result, outermost):
    tracer.counts["kripke.model_builds"] += 1


def layer_metrics(tracer, untraced_s, traced_s):
    """The per-layer metrics, by their names in BENCHMARK.json."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    upset_calls = calls["kripke.Model._upset_masks"] + calls["kripke.Model._subset_masks"]
    searches = calls["search.bounded_validity"]
    return {
        "cli.calls": calls["cli.run"],
        "cli.self_s": s["cli"],
        "formula.parse_calls": calls["formula.parse_formula"],
        "formula.parse_s": s["formula.parse"],
        "formula.print_s": s["formula.print"],
        "formula.nodes": counts["formula.nodes"],
        "kripke.model_builds": counts["kripke.model_builds"],
        "kripke.build_s": s["kripke.build"],
        "kripke.upset_calls": upset_calls,
        "kripke.upset_cache_hit_ratio": counts["kripke.upset_hits"] / upset_calls if upset_calls else 0.0,
        "kripke.upsets_s": s["kripke.upsets"],
        "kripke.propositions": counts["kripke.propositions"],
        "search.structures": counts["search.structures"],
        "search.enum_s": s["search"],
        "search.countermodel_share": counts["search.countermodels"] / searches if searches else 0.0,
        "semantics.calls": counts["semantics.outer_calls"],
        "semantics.self_s": s["semantics"],
        "semantics.worlds_evaluated": counts["semantics.worlds_evaluated"],
        "embedding.calls": calls["embedding.t_embed"],
        "embedding.self_s": s["embedding"],
        "mso.translate_s": s["mso.translate"],
        "mso.ir_nodes": counts["mso.ir_nodes"],
        "mso.emit_s": s["mso.emit"],
        "mso.emit_bytes": counts["mso.emit_bytes"],
        "mso.eval_calls": calls["mso.eval_finite"],
        "mso.eval_s": s["mso.eval"],
        "godel.eval_calls": calls["godel.godel_eval"] + calls["godel.chain_correspondence"],
        "godel.eval_s": s["godel"],
        "godel.valuations": calls["godel.godel_eval"],
        "trace.query_s": traced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    }

