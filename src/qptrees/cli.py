"""Command-line front door.

Exit status: 0 on success, 1 when a countermodel or refutation was found,
2 on usage or input errors.  All output is line oriented with a stable
`KEY: value` shape and is byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .formula import compile_formula, parse_formula, print_formula
from .godel import godel_eval, parse_truth_value, parse_truth_values, refuting_valuation
from .kripke import ModelFormatError, dump_model, load_model, tree_world
from .embedding import t_embed
from .mso import LogicClass, emit, validity_sentence
from .search import STRUCTURE_CLASSES, SearchBounds, bounded_validity
from .semantics import extension_int, extension_s4
from .suite import run_separation_suite


def _world_text(m, world) -> str:
    return json.dumps(list(world), separators=(",", ":")) if m.kind == "tree" else world


def _worlds_text(m, worlds) -> str:
    if m.kind == "tree":
        return json.dumps([list(w) for w in sorted(worlds)], separators=(",", ":"))
    return json.dumps(sorted(worlds), separators=(",", ":"))


def _cmd_check(ns) -> tuple[int, list[str]]:
    m = load_model(Path(ns.model).read_text())
    table = compile_formula(ns.formula, m.mode)  # no syntax tree on this path
    ext = extension_int(m, table) if m.mode == "int" else extension_s4(m, table)
    if ns.world is None:
        world = m.root
    elif m.kind == "tree":
        try:
            world = tree_world(json.loads(ns.world))
        except (json.JSONDecodeError, ModelFormatError):
            raise ValueError(f"tree worlds are JSON arrays, got {ns.world!r}") from None
    else:
        world = ns.world
    m.index_of(world)
    verdict = world in ext
    return 0 if verdict else 1, [
        f"FORMULA: {print_formula(table)}",
        f"MODE: {m.mode}",
        f"EXTENSION: {_worlds_text(m, ext)}",
        f"WORLD: {_world_text(m, world)}",
        f"VERDICT: {'true' if verdict else 'false'}",
    ]


def _cmd_decide(ns) -> tuple[int, list[str]]:
    table = compile_formula(ns.formula, ns.mode)  # no syntax tree on this path
    outcome = bounded_validity(table, SearchBounds(ns.max, ns.cls), ns.mode)
    lines = [
        f"FORMULA: {print_formula(table)}",
        f"CLASS: {ns.cls}",
        f"MODE: {ns.mode}",
        f"MAX-WORLDS: {ns.max}",
    ]
    if outcome.countermodel is None:
        return 0, lines + ["OUTCOME: no-counterexample"]
    return 1, lines + [
        "OUTCOME: countermodel",
        f"COUNTERMODEL: {dump_model(outcome.countermodel)}",
    ]


def _cmd_translate(ns) -> tuple[int, list[str]]:
    cls = LogicClass.parse(ns.cls)
    f = parse_formula(ns.formula, lang=cls.mode)
    return 0, [
        f"FORMULA: {print_formula(f)}",
        f"CLASS: {cls}",
        f"MSO: {emit(validity_sentence(f, cls))}",
    ]


def _cmd_embed(ns) -> tuple[int, list[str]]:
    f = parse_formula(ns.formula, lang="int")
    return 0, [f"FORMULA: {print_formula(f)}", f"EMBEDDED: {print_formula(t_embed(f))}"]


def _parse_valuation(text: str) -> dict:
    valuation = {}
    for part in text.split(","):
        name, sep, value = (s.strip() for s in part.partition("="))
        if not sep or not name:
            raise ValueError(f"valuation entries look like p=1/2, got {part!r}")
        if name in valuation:
            raise ValueError(f"{name!r} is valued twice")
        valuation[name] = parse_truth_value(value)
    return valuation


def _cmd_godel(ns) -> tuple[int, list[str]]:
    f = parse_formula(ns.formula, lang="int")
    values = parse_truth_values(ns.values)
    lines = [
        f"FORMULA: {print_formula(f)}",
        f"VALUES: {','.join(str(v) for v in values)}",
    ]
    if ns.valuation is not None:
        result = godel_eval(_parse_valuation(ns.valuation), f, values)
        return 0, lines + [f"VALUE: {result}"]
    refutation = refuting_valuation(f, values)
    if refutation is None:
        return 0, lines + ["TAUTOLOGY: yes"]
    valuation, result = refutation
    lines.append("TAUTOLOGY: no")
    if valuation:
        lines.append("WITNESS: " + ",".join(f"{n}={v}" for n, v in valuation.items()))
    return 1, lines + [f"VALUE: {result}"]


def _cmd_examples(ns) -> tuple[int, list[str]]:
    results = run_separation_suite()
    lines = [f"{name}: {'pass' if ok else 'fail'}" for name, ok in results]
    all_ok = all(ok for _, ok in results)
    return 0 if all_ok else 1, lines + [f"RESULT: {'pass' if all_ok else 'fail'}"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # stdout gets its KEY: value line; stderr keeps argparse's usage text
        print(f"ERROR: {message}")
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qptrees",
        description="Model checking and bounded countermodel search for "
        "propositionally quantified intuitionistic and S4 logics on trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command keeps its options, all single-value `store` actions, as
    # `options` for `_read_plain`.
    p = sub.add_parser("check", help="evaluate a formula over a model file")
    p.options = (
        p.add_argument("--model", required=True, help="path to a model JSON file"),
        p.add_argument("--formula", required=True),
        p.add_argument("--world", help="evaluate here instead of at the root"),
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decide", help="bounded countermodel search")
    p.options = (
        p.add_argument("--formula", required=True),
        p.add_argument("--class", dest="cls", required=True, choices=STRUCTURE_CLASSES),
        p.add_argument("--max", type=int, required=True, help="largest world count"),
        p.add_argument("--mode", choices=("int", "s4"), default="int"),
    )
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("translate", help="emit the second-order validity sentence")
    p.options = (
        p.add_argument("--formula", required=True),
        p.add_argument(
            "--class",
            dest="cls",
            required=True,
            help="qpHt, qpHt-fin, qpHt-omega, qpHt-N, s4t, s4t-fin, or s4t-N",
        ),
    )
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("embed", help="translate into S4 by guarding with box")
    p.options = (p.add_argument("--formula", required=True),)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("godel", help="evaluate over a finite truth-value set")
    p.options = (
        p.add_argument("--formula", required=True),
        p.add_argument("--values", required=True, help='e.g. "0,1/3,1/2,1"'),
        p.add_argument("--valuation", help='e.g. "p=1/2,q=0"; omit to test tautology'),
    )
    p.set_defaults(func=_cmd_godel)

    p = sub.add_parser("examples", help="re-run the packaged separation suite")
    p.options = ()
    p.set_defaults(func=_cmd_examples)

    parser.commands = sub.choices  # name -> the command's own parser
    return parser


def _read_plain(command, args) -> dict | None:
    """The values `command`'s parser reads from `args` when `args` is
    nothing but `--option value` pairs over the full strings of its
    `options`, each at most once, with no value starting with "-" and none
    that argparse would refuse; None for any other `args`.

    Each value goes through its action's own `type` and `choices`, an
    absent option gets its `default`, and `func` is the command's."""
    if not all(isinstance(a, str) for a in args):
        return None
    given = dict(zip(args[::2], args[1::2]))
    if 2 * len(given) != len(args):  # an odd count, or an option given twice
        return None
    values = {}
    for action in command.options:
        text = given.pop(action.option_strings[-1], None)
        if text is None:
            if action.required:
                return None
            values[action.dest] = action.default
            continue
        if text[:1] == "-":
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if given:  # an unknown or abbreviated option, `--opt=value`, `-h` or `--`
        return None
    values["func"] = command.get_default("func")
    return values


_parser = None  # built on the first run, not at import


def run(argv) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        # A known command's plain `--option value` pairs are read straight
        # off its own options.  Any other argv of a known command goes to
        # that command's parser, read once, into the top-level parser's
        # namespace; leftovers get its usage line.  argparse alone prints
        # help and usage errors, and reads an unknown command.
        command = _parser.commands.get(argv[0]) if argv else None
        if command is None:
            ns = _parser.parse_args(argv)
        elif (values := _read_plain(command, argv[1:])) is not None:
            ns = argparse.Namespace(command=argv[0], **values)
        else:
            ns, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extra:
                _parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    # A command returns all its lines before any is printed, so a failure
    # part of the way through prints its ERROR line alone.
    try:
        code, lines = ns.func(ns)
    except (ValueError, OSError) as e:
        print(f"ERROR: {e}")
        return 2
    except RecursionError:
        print("ERROR: input is nested too deeply")
        return 2
    for line in lines:
        print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
