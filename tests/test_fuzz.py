"""Property tests on arbitrary input, under a derandomized hypothesis
profile with no example database, so every run tries the same inputs: the
parser fails only in its own two ways, printing round-trips, a text
compiles to the table of its tree, the syntax-tree walk finds the free
variables and modality that the table records, `decide` always ends in a
`KEY: value` line with exit 0, 1 or 2, the same bytes each time,
`eval_finite` agrees with the reference walker on any MSO formula, also
when one formula is evaluated on several domains and environments, and
`run` answers any command's argv as the top-level parser would."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mso_reader import reference_eval_finite
from test_cli import DIAMOND, run_through_the_top_level
from qptrees.cli import run
from qptrees.formula import (
    EXISTS,
    FORALL,
    INT,
    S4,
    And,
    Bottom,
    Box,
    Diamond,
    Exists,
    Forall,
    FormulaSyntaxError,
    Implies,
    LanguageError,
    Or,
    UnboundVariableError,
    Var,
    compile_formula,
    free_vars,
    is_modal,
    parse_formula,
    print_formula,
)
from qptrees.mso import (
    ROOT,
    All1,
    All2,
    Conj,
    Disj,
    Ex1,
    Ex2,
    Falsum,
    ImmediateLe,
    Impl,
    LexLe,
    Member,
    Neg,
    NodeEq,
    PrefixLe,
    Subset,
    eval_finite,
)
from qptrees.search import enumerate_trees

settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=200)
TIER1 = settings.get_profile("tier1")

PIECES = ("p", "q", "r", "p_2", "bot", "forall", "exists", "box", "dia", "(", ")", "&", "|",
          "->", "~", " ", " ", "\t", "\n", "-", ">", "$", "é", "P", "1")
# texts that are well formed, but for `box` and `dia` in the int language
WELL_FORMED = st.recursive(
    st.sampled_from(("p", "q", "r", "bot")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(("&", "|", "->")), inner).map(lambda t: "(%s %s %s)" % t),
        st.tuples(st.sampled_from(("~", "box ", "dia ", "forall p ", "exists q ")), inner).map("".join),
    ),
    max_leaves=8,
)
ANY = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=24).map("".join),
    st.lists(st.sampled_from(PIECES), max_size=16).map(" ".join),
    st.text(max_size=20),
)
TEXTS = st.booleans().flatmap(lambda well_formed: WELL_FORMED if well_formed else ANY)
LANGS = st.sampled_from((INT, S4))
TABLE_FIELDS = ("ops", "args", "free", "fixed", "top", "schedules", "ranging", "modal")


def parsed(text, lang):
    try:
        return parse_formula(text, lang)
    except (FormulaSyntaxError, LanguageError):
        return None


@TIER1
@given(TEXTS, LANGS)
def test_parse_returns_or_raises_a_formula_error(text, lang):
    parsed(text, lang)  # anything but these two errors escapes and fails


@TIER1
@given(TEXTS, LANGS)
def test_print_and_parse_round_trip(text, lang):
    f = parsed(text, lang)
    if f is not None:
        shown = print_formula(f)
        assert parse_formula(shown, lang) == f
        assert print_formula(compile_formula(text, lang)) == shown


@TIER1
@given(TEXTS, LANGS)
def test_text_compiles_to_the_table_of_its_tree(text, lang):
    f = parsed(text, lang)
    if f is not None:
        table, reference = compile_formula(text, lang), compile_formula(f)
        for field in TABLE_FIELDS:
            assert getattr(table, field) == getattr(reference, field)


def trees(lang):
    """Syntax trees of `lang` over p and q, whose binders of p, q and r
    shadow one another or bind nothing."""
    def grow(inner):
        kinds = [st.builds(kind, inner, inner) for kind in (And, Or, Implies)]
        kinds += [st.builds(kind, st.sampled_from(("p", "q", "r")), inner) for kind in (Forall, Exists)]
        kinds += [st.builds(kind, inner) for kind in (Box, Diamond) if lang == S4]
        return st.one_of(kinds)

    atoms = st.one_of(st.sampled_from(("p", "q")).map(Var), st.just(Bottom()))
    return st.recursive(atoms, grow, max_leaves=10)


@TIER1
@given(LANGS.flatmap(trees))
@example(Forall("p", And(Forall("p", Var("p")), Var("p"))))  # p bound again after the inner binder
@example(Or(Exists("r", Var("p")), Forall("q", Diamond(Var("q")))))
@example(And(Forall("p", Box(Var("p"))), Var("p")))
def test_the_tree_walk_agrees_with_the_table(f):
    table = compile_formula(f)
    assert free_vars(f) == frozenset(table.free)
    assert is_modal(f) == table.modal
    # some quantifier ranges iff some FORALL or EXISTS node is not fixed
    quantifiers = [i for i, op in enumerate(table.ops) if op in (FORALL, EXISTS)]
    assert table.ranging == any(table.fixed[i] is None for i in quantifiers)


def decide(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["decide", "--formula", text, "--class", "finite-trees", "--max", "2"])
    return code, out.getvalue(), err.getvalue()


@settings(TIER1, max_examples=100)
@given(TEXTS)
def test_decide_always_answers_the_same(text):
    first = decide(text)
    code, out, _ = first
    assert code in (0, 1, 2)
    assert out.endswith("\n")
    assert re.fullmatch(r"[A-Z][A-Z-]*: .*", out[:-1].split("\n")[-1])
    assert decide(text) == first


# MSO formulas of all 15 node kinds over a few names, and environments that
# bind some of them to nodes or sets of nodes, in the domain or outside it.
# Each position mostly draws a name of its own kind, so that many formulas
# have a value, but names also end up unbound, of the wrong kind, or
# shadowed by a binder of either kind.
NODE_NAMES = st.sampled_from(("x", "y", "y", ROOT, "X"))
SET_NAMES = st.sampled_from(("X", "Y", "Y", "x"))
MSO_FORMULAS = st.recursive(
    st.one_of(
        st.just(Falsum()),
        st.builds(Member, NODE_NAMES, SET_NAMES),
        st.builds(Subset, SET_NAMES, SET_NAMES),
        *(st.builds(atom, NODE_NAMES, NODE_NAMES) for atom in (PrefixLe, ImmediateLe, LexLe, NodeEq)),
    ),
    lambda inner: st.one_of(
        *(st.builds(connective, inner, inner) for connective in (Conj, Disj, Impl)),
        st.builds(Neg, inner),
        st.builds(All1, NODE_NAMES, inner),
        st.builds(Ex1, NODE_NAMES, inner),
        st.builds(All2, SET_NAMES, inner),
        st.builds(Ex2, SET_NAMES, inner),
    ),
    max_leaves=8,
)
TREES = [m for n in range(1, 6) for m in enumerate_trees(n)]


@st.composite
def domains_and_envs(draw, trees=st.sampled_from(TREES)):
    m = draw(trees)
    nodes = st.one_of(st.sampled_from(m.worlds), st.lists(st.integers(0, 2), max_size=3).map(tuple))
    sets = st.frozensets(nodes, max_size=4)
    either = st.one_of(nodes, sets)
    env = st.fixed_dictionaries({"x": nodes, "X": sets}, optional={"y": either, "Y": either, ROOT: either})
    return m, draw(env)


def eval_outcome(evaluate, f, m, env):
    try:
        return evaluate(f, m, env)
    except UnboundVariableError as e:
        return f"UnboundVariableError: {e}"


@TIER1
@given(MSO_FORMULAS, domains_and_envs())
def test_eval_finite_agrees_with_the_reference_walker(f, case):
    m, env = case
    assert eval_outcome(eval_finite, f, m, env) == eval_outcome(reference_eval_finite, f, m, env)


# One formula object evaluated on several cases in turn, so that a case with
# the key of the one before it runs the program compiled for that one.  The
# cases share two trees, drawn apart and so at times the same, so that many
# of them meet a program compiled for their domain but another environment;
# the example changes only a word outside the domain.
CASES = st.lists(st.sampled_from(TREES), min_size=2, max_size=2).flatmap(
    lambda trees: st.lists(domains_and_envs(st.sampled_from(trees)), min_size=2, max_size=4))


@TIER1
@given(MSO_FORMULAS, CASES)
@example(PrefixLe("x", "y"), [(TREES[1], {"x": (0,), "X": frozenset(), "y": w}) for w in ((0, 2), (2,))])
def test_eval_finite_reuses_a_program_only_where_it_is_exact(f, cases):
    for m, env in cases:
        assert eval_outcome(eval_finite, f, m, env) == eval_outcome(reference_eval_finite, f, m, env)


# Every command's full options, the good values each is given, and values
# that argparse reads in its own ways.  Every formula here is refuted at
# one world or is an error, so `decide --max 7_0` stays cheap.
COMMAND_OPTIONS = {
    "check": ("--model", "--formula", "--world"),
    "decide": ("--formula", "--class", "--max", "--mode"),
    "translate": ("--formula", "--class"),
    "embed": ("--formula",),
    "godel": ("--formula", "--values", "--valuation"),
    "examples": (),
}
GOOD_VALUES = {
    "--formula": ("bot", "forall p p", "~(forall p (p | ~p))", "dia bot", "p", "p -> -> q"),
    "decide --class": ("chains", "finite-trees", "finite-posets"),
    "translate --class": ("qpHt-fin", "s4t-2"),
    "--max": ("1", "2"),
    "--mode": ("int", "s4"),
    "--world": ("a", "[0]", "zz"),
    "--values": ("0,1/2,1", "0,1"),
    "--valuation": ("p=1/2", "p=2"),
}
ODD_VALUES = ("-3", "", " 7", "7_0", "٧", "lattices", "--formula")
EXTRA_TOKENS = ("-h", "--help", "--", "--bogus", "x", "-3")
FORMS = ("plain", "omit", "odd value", "abbreviation", "--option=value", "repeat", "extra token")


def captured(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def command_argv(draw, model):
    """A command and `--option value` pairs over all its full options, in
    any order and with good values, then at most one change of `FORMS`:
    one option left out (required or not), given an odd value, abbreviated,
    joined to its value by "=" or given twice, or an extra token put in."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))

    def good(option):
        return (model,) if option == "--model" else GOOD_VALUES.get(option) or GOOD_VALUES[f"{command} {option}"]

    pairs = [[option, draw(st.sampled_from(good(option)))]
             for option in draw(st.permutations(COMMAND_OPTIONS[command]))]
    form = draw(st.sampled_from(FORMS))
    if pairs and form not in ("plain", "extra token"):
        pair = draw(st.sampled_from(pairs))
        if form == "omit":
            pairs.remove(pair)
        elif form == "odd value":
            pair[1] = draw(st.sampled_from(ODD_VALUES))
        elif form == "abbreviation":
            pair[0] = pair[0][:draw(st.integers(3, len(pair[0]) - 1))]
        elif form == "--option=value":
            pair[:] = ["=".join(pair)]
        elif form == "repeat":
            pairs.append([pair[0], draw(st.sampled_from(good(pair[0])))])
    argv = [command] + [token for pair in pairs for token in pair]
    if form == "extra token":
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(EXTRA_TOKENS)))
    return argv


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "diamond.json"
    path.write_text(json.dumps(DIAMOND))
    return str(path)


@TIER1
@given(st.data())
def test_run_reads_argv_as_the_top_level_parser_would(model_file, data):
    argv = data.draw(command_argv(model_file))
    assert captured(run, argv) == captured(run_through_the_top_level, argv), argv
