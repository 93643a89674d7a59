import argparse
import contextlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qptrees import cli
from qptrees.cli import run
from qptrees.embedding import t_embed
from qptrees.formula import parse_formula, print_formula
from qptrees.kripke import load_model
from qptrees.semantics import validates
from qptrees.suite import WEM_TO_LIN

DIAMOND = {
    "kind": "poset",
    "worlds": ["g", "a", "b", "t"],
    "edges": [["g", "a"], ["g", "b"], ["a", "t"], ["b", "t"]],
    "valuation": {},
    "mode": "int",
}

WEM_TO_LIN_TEXT = "forall p (~p | ~~p) -> forall p forall q ((p -> q) | (q -> p))"


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(DIAMOND))
    return str(path)


def test_decide_no_counterexample(capsys):
    code = run([
        "decide", "--formula", "~~(forall p (p | ~p))",
        "--class", "finite-trees", "--max", "7",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "OUTCOME: no-counterexample" in out
    assert "MAX-WORLDS: 7" in out


def test_decide_reports_countermodel(capsys):
    code = run([
        "decide", "--formula", "~(forall p (p | ~p))",
        "--class", "finite-trees", "--max", "3",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "OUTCOME: countermodel" in out
    line = next(l for l in out.splitlines() if l.startswith("COUNTERMODEL: "))
    m = load_model(line.removeprefix("COUNTERMODEL: "))
    assert len(m.worlds) == 1


def test_decide_poset_countermodel_reloads_and_refutes(capsys):
    code = run([
        "decide", "--formula", WEM_TO_LIN_TEXT,
        "--class", "finite-posets", "--max", "4",
    ])
    out = capsys.readouterr().out
    assert code == 1
    line = next(l for l in out.splitlines() if l.startswith("COUNTERMODEL: "))
    m = load_model(line.removeprefix("COUNTERMODEL: "))
    assert len(m.worlds) == 4
    assert validates(m, WEM_TO_LIN) is False


def test_check_diamond_refutes(diamond_file, capsys):
    code = run(["check", "--model", diamond_file, "--formula", WEM_TO_LIN_TEXT])
    out = capsys.readouterr().out
    assert code == 1
    assert "VERDICT: false" in out
    assert "WORLD: g" in out


def test_check_at_given_world(diamond_file, capsys):
    code = run([
        "check", "--model", diamond_file, "--formula", WEM_TO_LIN_TEXT,
        "--world", "t",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERDICT: true" in out


def test_check_tree_world_syntax(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"kind": "tree", "worlds": [[], [0]], "mode": "int"}))
    code = run([
        "check", "--model", str(path),
        "--formula", "forall p (p | ~p)", "--world", "[0]",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "EXTENSION: [[0]]" in out


def test_check_and_decide_build_no_syntax_tree(diamond_file, monkeypatch, capsys):
    def refuse(entries):
        raise AssertionError("a syntax tree was built")

    monkeypatch.setattr("qptrees.formula._tree", refuse)
    assert run(["check", "--model", diamond_file, "--formula", WEM_TO_LIN_TEXT]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"FORMULA: {WEM_TO_LIN_TEXT}"
    assert run(["decide", "--formula", WEM_TO_LIN_TEXT, "--class", "finite-trees", "--max", "4"]) == 0
    assert "OUTCOME: no-counterexample" in capsys.readouterr().out


def test_check_unknown_world_is_usage_error(diamond_file, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"kind": "tree", "worlds": [[], [0], [1]], "mode": "int"}))
    cases = [(diamond_file, "zz")] + [
        # none is an array of naturals, though [0.0] and [true] compare equal
        # to one and {} and "01" convert to a tuple
        (str(tree), world)
        for world in ("[[0]]", "[[]]", "{}", '"01"', "[0.0]", "[true]", "[5]", "zz")
    ]
    for path, world in cases:
        code = run(["check", "--model", path, "--formula", "bot", "--world", world])
        out = capsys.readouterr().out
        assert code == 2, world
        assert out.startswith("ERROR: ") and out.count("\n") == 1, (world, out)


def test_translate_golden(capsys):
    code = run(["translate", "--formula", "bot", "--class", "qpHt-fin"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CLASS: qpHt-fin" in out
    mso_line = next(l for l in out.splitlines() if l.startswith("MSO: "))
    assert mso_line == (
        "MSO: all2 T: (root in T & all1 x: (x in T => all1 y: (y <= x => y in T))"
        " & ex1 x: all1 y: (y in T => y lex<= x) => false)"
    )


def test_embed(capsys):
    code = run(["embed", "--formula", "p -> q"])
    out = capsys.readouterr().out
    assert code == 0
    assert "EMBEDDED: box (box p -> box q)" in out


def test_translate_s4_class_accepts_modal_formulas(capsys):
    code = run(["translate", "--formula", "forall p (box p -> p)", "--class", "s4t"])
    out = capsys.readouterr().out
    assert code == 0
    assert "MSO: all2 T:" in out
    # the same formula is rejected for intuitionistic classes
    code = run(["translate", "--formula", "forall p (box p -> p)", "--class", "qpHt"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("ERROR: ")


def test_godel_value(capsys):
    code = run([
        "godel", "--formula", "p -> q", "--values", "0,1/2,1",
        "--valuation", "p=1,q=1/2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "VALUE: 1/2" in out


def test_godel_tautology(capsys):
    code = run(["godel", "--formula", "(p -> q) | (q -> p)", "--values", "0,1/2,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "TAUTOLOGY: yes" in out


def test_godel_refutation(capsys):
    code = run(["godel", "--formula", "p | ~p", "--values", "0,1/2,1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "TAUTOLOGY: no" in out
    assert "WITNESS: p=1/2" in out
    assert "VALUE: 1/2" in out


@pytest.mark.parametrize("values, valuation, message", [
    ("0,1/2,1", "p=1/0", "bad truth value '1/0'"),
    ("0,1/0,1", None, "bad truth value '1/0'"),
    ("0,abc,1", None, "bad truth value 'abc'"),
    ("0,1/2,1", "p=abc", "bad truth value 'abc'"),
    ("0,1e-1000000,1", None, "bad truth value '1e-1000000'"),
    ("0,1/2,1", "p=5e-1", "bad truth value '5e-1'"),
    ("0,1/2,1", "p=1/2,p=0", "'p' is valued twice"),
    ("0,1/2,1", "=1/2", "valuation entries look like p=1/2, got '=1/2'"),
])
def test_godel_bad_values_exit_2(values, valuation, message, capsys):
    argv = ["godel", "--formula", "p | ~p", "--values", values]
    assert run(argv + (["--valuation", valuation] if valuation else [])) == 2
    assert capsys.readouterr().out == f"ERROR: {message}\n"


def test_godel_accepts_decimals(capsys):
    code = run(["godel", "--formula", "p | ~p", "--values", "0, .5,1", "--valuation", "p=0.50"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["VALUES: 0,1/2,1", "VALUE: 1/2"]


def test_examples_suite(capsys):
    code = run(["examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: pass" in out
    lines = [l for l in out.splitlines() if ": pass" in l or ": fail" in l]
    assert len(lines) >= 9
    assert all(l.endswith(": pass") for l in lines)


def test_usage_errors_exit_2(tmp_path, capsys):
    for argv, message in (
        ([], "the following arguments are required: command"),
        (["decide", "--formula", "p"], "the following arguments are required: --class, --max"),
        (["decide", "--formula", "p", "--class", "chains", "--max", "abc"],
         "argument --max: invalid int value: 'abc'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out.startswith(f"ERROR: {message}") and out.count("\n") == 1, (argv, out)
        assert err.startswith("usage: qptrees") and err.endswith(f"error: {out[7:]}"), (argv, err)
    tree = {"kind": "tree", "worlds": [[], [0]]}
    poset = {"kind": "poset", "worlds": ["a", "b"], "edges": [["a", "b"]]}
    for model in (
        dict(tree, valuation={"p": [[[0]]]}),
        dict(tree, valuation={"p": [[0.0]]}),
        dict(poset, edges=[[["a"], "b"]]),
        dict(poset, edges=[[{}, "b"]]),
        dict(poset, valuation={"p": [{}]}),
        # each edge is a pair: not a number, a bool, null, a string or an object
        *(dict(poset, edges=[edge]) for edge in (0, True, None, "ab", {"a": 1, "b": 2})),
    ):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code = run(["check", "--model", str(path), "--formula", "bot"])
        out = capsys.readouterr().out
        assert code == 2, model
        assert out.startswith("ERROR: ") and out.count("\n") == 1, (model, out)


def test_module_entry_point(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-B", "-m", "qptrees.cli", "decide", "--formula", "~(forall p (p | ~p))",
         "--class", "finite-trees", "--max", "2"],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode == 1
    assert "OUTCOME: countermodel" in done.stdout.splitlines()


def test_syntax_error_exit_2(capsys):
    code = run(["embed", "--formula", "p -> -> q"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("ERROR: ")


def test_missing_model_file_exit_2(capsys):
    code = run(["check", "--model", "/nonexistent.json", "--formula", "bot"])
    assert code == 2
    capsys.readouterr()


def test_open_formula_decide_exit_2(capsys):
    code = run(["decide", "--formula", "p", "--class", "finite-trees", "--max", "2"])
    assert code == 2
    capsys.readouterr()


def test_output_reproducible(capsys):
    args = ["decide", "--formula", WEM_TO_LIN_TEXT, "--class", "finite-posets", "--max", "4"]
    run(args)
    first = capsys.readouterr().out
    run(args)
    second = capsys.readouterr().out
    assert first == second


def test_decide_s4_mode(capsys):
    code = run([
        "decide", "--formula", "box p -> p", "--class", "finite-trees",
        "--max", "3", "--mode", "s4",
    ])
    capsys.readouterr()
    assert code == 2  # open formula
    code = run([
        "decide", "--formula", "forall p (box p -> p)", "--class", "finite-trees",
        "--max", "3", "--mode", "s4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "OUTCOME: no-counterexample" in out


def test_parser_built_once_gives_fresh_output(diamond_file, capsys, monkeypatch):
    calls = [
        ["--help"],
        ["decide", "--formula", "p"],  # usage error
        ["decide", "--formula", WEM_TO_LIN_TEXT, "--class", "finite-posets", "--max", "4"],
        ["check", "--model", diamond_file, "--formula", WEM_TO_LIN_TEXT],
    ]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        code = run(argv)
        fresh.append((code, capsys.readouterr()))
    assert [code for code, _ in fresh] == [0, 2, 1, 1]
    parser = cli._parser
    for argv, expected in zip(calls, fresh):
        code = run(argv)
        assert (code, capsys.readouterr()) == expected
    assert cli._parser is parser


def run_through_the_top_level(argv):
    """`cli.run` with every argv read by the top-level parser, which hands a
    command's arguments on to that command's parser."""
    try:
        ns = cli.build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        code, lines = ns.func(ns)
    except (ValueError, OSError) as e:
        print(f"ERROR: {e}")
        return 2
    for line in lines:
        print(line)
    return code


def test_commands_read_their_arguments_as_the_top_level_parser_would(diamond_file, capsys):
    decide = ["--class", "chains", "--max", "2"]
    for argv in (
        [],
        ["-h"],
        ["--help"],
        ["decide", "-h"],
        ["check", "--help"],
        ["decide", "--formula", "bot"],  # missing options
        ["decide", "--formula", "p", "--formula", "bot"] + decide,  # repeated: the last wins
        ["decide", "--formula", "bot", "--class", "lattices", "--max", "2"],  # bad choice
        ["decide", "--formula", "bot", "--class", "chains", "--max", "two"],  # bad int
        ["decide", "--formula", "bot", "--mode"] + decide,  # an option without its value
        ["frobnicate", "--formula", "bot"],  # unknown command
        ["decide", "--formula", "bot"] + decide + ["extra", "--more"],
        ["embed", "--formula", "p", "q"],
        ["decide", "--formula=~~(forall p (p | ~p))"] + decide,
        ["decide", "--form", "bot"] + decide,  # an abbreviation
        ["decide", "--fo", "bot"] + decide,
        ["decide", "--formula", "bot", "--"] + decide,
        ["decide", "--", "--formula", "bot"] + decide,
        ["decide", "--formula", "bot"] + decide + ["--", "x"],
        ["--", "decide", "--formula", "bot"] + decide,
        ["check", "--model", diamond_file, "--formula", WEM_TO_LIN_TEXT, "--world", "a"],
        ["godel", "--formula", "forall p (p | ~p)", "--values", "0,1/2,1"],
        ["translate", "--formula", "bot", "--class", "qpHt-fin"],
    ):
        expected = (run_through_the_top_level(argv), capsys.readouterr())
        assert (run(argv), capsys.readouterr()) == expected, argv


def test_commands_get_the_namespace_the_top_level_parser_gives(diamond_file, monkeypatch):
    seen = []
    for name in [name for name in vars(cli) if name.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name, lambda ns: (seen.append(ns), (0, []))[1])
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (
        ["decide", "--formula", "bot", "--class", "chains", "--max", "2"],
        ["check", "--model", diamond_file, "--formula", "p", "--world", "a"],
        ["embed", "--formula", "p"],
        ["godel", "--formula", "p", "--values", "0,1"],
        ["translate", "--formula", "bot", "--class", "qpHt-fin"],
        ["examples"],
    ):
        assert run(argv) == 0
        assert seen.pop() == cli.build_parser().parse_args(argv)
        assert vars(cli.build_parser().parse_args(argv))["command"] == argv[0]


def test_only_plain_pairs_skip_argparse(monkeypatch, capsys):
    calls = []
    for name in ("parse_known_args", "parse_args"):
        method = getattr(argparse.ArgumentParser, name)
        monkeypatch.setattr(argparse.ArgumentParser, name,
                            lambda self, *args, method=method, name=name: calls.append(name) or method(self, *args))
    decide = ["decide", "--formula", "bot", "--class", "chains"]
    for argv in (
        decide + ["--max", "2"],
        decide + ["--max", "2", "--mode", "s4"],
        ["decide", "--mode", "int", "--max", "٧", "--class", "finite-trees", "--formula", "forall p p"],
    ):
        assert run(argv) == 1 and calls == [], argv
        assert "OUTCOME: countermodel" in capsys.readouterr().out
    for argv in (
        ["decide", "--form", "bot", "--class", "chains", "--max", "2"],  # an abbreviation
        ["decide", "--formula=bot", "--class", "chains", "--max", "2"],
        decide + ["--max", "2", "--bogus", "x"],  # an unknown option
        decide + ["--max", "2", "-h"],
        decide + ["--", "--max", "2"],
        decide + ["--max", "2", "--max", "3"],  # given twice
        decide + ["--max", "-3"],  # a value that starts with "-"
        decide + ["--max", "two"],  # a failed conversion
        ["decide", "--formula", "bot", "--class", "lattices", "--max", "2"],  # a failed choice
        decide,  # a missing required option
        decide + ["--max", "2", "extra"],
        decide + ["--max", 2],  # not a str: argparse's own error
    ):
        calls.clear()
        with contextlib.suppress(TypeError):
            run(argv)
        assert "parse_known_args" in calls, argv
    capsys.readouterr()


def test_deep_nesting_is_a_clean_error(capsys):
    deep = "~" * 3000 + "bot"
    # the evaluator recurses once per quantifier in the scope of another
    names = [f"q{i}" for i in range(3000)]
    nested = "".join(f"forall {q} " for q in names) + "(" + " & ".join(names) + ")"
    for argv in (
        ["embed", "--formula", deep],
        ["decide", "--formula", nested, "--class", "finite-trees", "--max", "2"],
        # deep enough to fail only after the formula itself has been printed
        ["translate", "--formula", "~" * 300 + "bot", "--class", "qpHt"],
        ["embed", "--formula", "~" * 1200 + "bot"],
    ):
        assert run(argv) == 2
        assert capsys.readouterr().out == "ERROR: input is nested too deeply\n"


def test_embed_with_600_negations(capsys):
    # t_embed recurses once per negation, and parsing and printing not at all
    formula = "~" * 600 + "bot"
    assert run(["embed", "--formula", formula]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"FORMULA: {formula}"
    assert out[1] == f"EMBEDDED: {print_formula(t_embed(parse_formula(formula)))}"


def test_decide_with_600_negations(capsys):
    # an even number of negations of bot is false on the one-world tree
    code = run(["decide", "--formula", "~" * 600 + "bot", "--class", "finite-trees", "--max", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "OUTCOME: countermodel" in out
    assert out.splitlines()[-1].startswith("COUNTERMODEL: ")


def test_decide_with_3000_negations(capsys):
    # neither parsing, compiling, printing nor evaluating recurses per negation
    formula = "~" * 3000 + "bot"
    code = run(["decide", "--formula", formula, "--class", "finite-trees", "--max", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == f"FORMULA: {formula}"
    assert out[-2:] == ["OUTCOME: countermodel",
                        'COUNTERMODEL: {"kind":"tree","worlds":[[]],"valuation":{},"mode":"int"}']


def test_decide_of_bot_in_400_parentheses(capsys):
    text = "(" * 400 + "bot" + ")" * 400
    assert run(["decide", "--formula", text, "--class", "finite-trees", "--max", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[:2] == ["FORMULA: bot", "CLASS: finite-trees"]


@pytest.mark.parametrize("cls, message", [
    ("qpHt-43", "ERROR: arity classes need an arity from 1 to 32, got 43"),
    ("s4t-20000", "ERROR: arity classes need an arity from 1 to 32, got 20000"),
    pytest.param("qpHt-" + "9" * 5000, "ERROR: arity classes need an arity from 1 to 32, got " + "9" * 5000,
                 id="5000-nines"),  # more digits than int() accepts
    ("qpHt-\u0663", "ERROR: unknown logic class 'qpHt-\u0663'"),  # an Arabic-Indic three
    ("qpHt-\u00b3", "ERROR: unknown logic class 'qpHt-\u00b3'"),  # a superscript three
])
def test_translate_refuses_large_and_non_ascii_arities(capsys, cls, message):
    start = time.perf_counter()
    assert run(["translate", "--formula", "bot -> bot", "--class", cls]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == message + "\n"


@pytest.mark.parametrize("cls", ["qpHt-32", "s4t-32"])
def test_translate_at_the_largest_arity(capsys, cls):
    assert run(["translate", "--formula", "forall p (p | ~p)", "--class", cls]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"CLASS: {cls}"
    assert out[2].startswith("MSO: all2 T: ")
    assert "ex1 y32: " in out[2] and out[2].count("~y") == 32 * 31 // 2  # each pair distinct
