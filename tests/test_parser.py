"""The iterative parser against the recursive-descent reference in
`formula_reader`, on seeded well-formed and malformed texts of both
languages: the same syntax tree, or the same exception class, message and
byte offset.  Compiling a text must also give the table of its tree, and a
table must print as its tree does."""

import random
import re

import pytest

import formula_reader
from helpers import random_formula
from qptrees.formula import (
    INT,
    S4,
    Bottom,
    Box,
    Diamond,
    Exists,
    Forall,
    FormulaSyntaxError,
    Implies,
    LanguageError,
    Var,
    compile_formula,
    parse_formula,
    print_formula,
)

WORD = re.compile(r"->|[()&|~]|[a-z][a-zA-Z0-9_]*|\S")
BLANKS = (" ", "\t", "\n", "\r\n", "  ")
EDITS = ("-", "$", "é", "(", ")", ")", "((", "forall", "exists", "box", "dia", "&", "|", "->",
         "~", "bot", "p", "q1", "P", "0", "∧", "- >", "-)", "\x0c")
TABLE_FIELDS = ("ops", "args", "free", "fixed", "top", "schedules", "ranging", "modal")


def outcome(parse, text, lang):
    try:
        return parse(text, lang)
    except (FormulaSyntaxError, LanguageError) as e:
        return type(e), str(e), getattr(e, "offset", None)


def noisy(f, rng):
    """A text of `f` with redundant parentheses and `A -> bot` or `~A` at random."""
    if rng.random() < 0.2:
        return print_formula(f)

    def child(g):
        text = noisy(g, rng)
        compound = not isinstance(g, (Var, Bottom))
        return f"({text})" if compound or rng.random() < 0.15 else text

    if isinstance(f, Var):
        return f.name
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, Implies) and isinstance(f.right, Bottom) and rng.random() < 0.5:
        return "~" + child(f.left)
    if isinstance(f, (Forall, Exists)):
        return f"{'forall' if isinstance(f, Forall) else 'exists'} {f.var} {child(f.body)}"
    if isinstance(f, (Box, Diamond)):
        return f"{'box' if isinstance(f, Box) else 'dia'} {child(f.body)}"
    op = {"And": "&", "Or": "|", "Implies": "->"}[type(f).__name__]
    return f"{child(f.left)} {op} {child(f.right)}"


def respace(words, rng):
    """`words` joined by random blanks, never gluing two words together."""
    out = []
    for w in words:
        glue = out and out[-1][-1:].isalnum() and w[:1].isalnum()
        if glue or rng.random() < 0.4:
            out.append(rng.choice(BLANKS))
        out.append(w)
    if rng.random() < 0.2:
        out.append(rng.choice(BLANKS))
    return "".join(out)


def malformed(text, rng):
    """One token or one character of `text` replaced, inserted or deleted."""
    words = WORD.findall(text)
    i = rng.randrange(len(words) + 1)
    kind = rng.randrange(6)
    if kind == 0 and i < len(words):
        words[i] = rng.choice(EDITS)
    elif kind == 1:
        words.insert(i, rng.choice(EDITS))
    elif kind == 2 and i < len(words):
        del words[i]
    elif kind == 3:
        quantifiers = [k for k, w in enumerate(words) if w in ("forall", "exists")]
        if quantifiers:  # a quantifier without its variable
            del words[rng.choice(quantifiers) + 1]
        else:
            words.insert(i, rng.choice(("forall", "exists")))
    elif kind == 4 and text:
        j = rng.randrange(len(text))
        return text[:j] + text[j + 1:]
    else:
        j = rng.randrange(len(text) + 1)
        return text[:j] + rng.choice(EDITS)[0] + text[j:]
    return respace(words, rng)


def texts(seed, count):
    """(text, language) pairs: half well formed, half one edit away."""
    rng = random.Random(seed)
    for k in range(count):
        lang = S4 if k % 2 else INT
        text = respace(WORD.findall(noisy(random_formula(rng, rng.randint(0, 5), lang=lang), rng)), rng)
        if k % 4 >= 2:
            text = malformed(text, rng)
        # modal texts read as intuitionistic ones, too
        yield text, INT if lang == S4 and rng.random() < 0.25 else lang


@pytest.mark.parametrize("seed", [1, 2])
def test_parser_agrees_with_the_reference(seed):
    counts = {"tree": 0, FormulaSyntaxError: 0, LanguageError: 0}
    for text, lang in texts(seed, 1500):
        got = outcome(parse_formula, text, lang)
        assert got == outcome(formula_reader.parse_formula, text, lang), (text, lang)
        if isinstance(got, tuple):
            counts[got[0]] += 1
            with pytest.raises(got[0]) as exc:
                compile_formula(text, lang)
            assert str(exc.value) == got[1]
            continue
        counts["tree"] += 1
        table, reference = compile_formula(text, lang), compile_formula(got)
        for field in TABLE_FIELDS:
            assert getattr(table, field) == getattr(reference, field), (text, field)
        assert print_formula(table) == print_formula(got)
        assert parse_formula(print_formula(table), lang) == got
    # every outcome is well represented
    assert min(counts.values()) > 50, counts


@pytest.mark.parametrize("text, lang, error, message, offset", [
    # a bad character anywhere wins over any syntax or language error
    ("p ) $", INT, FormulaSyntaxError, "unexpected character '$'", 4),
    ("box p & é", INT, FormulaSyntaxError, "unexpected character 'é'", 8),
    ("( - p", S4, FormulaSyntaxError, "expected '->'", 2),
    ("é -", INT, FormulaSyntaxError, "unexpected character 'é'", 0),
    # otherwise the first fault from the left, language errors included
    ("box )", INT, LanguageError, "'box' is not part of the intuitionistic language", 0),
    ("p & box", INT, LanguageError, "'box' is not part of the intuitionistic language", 4),
    ("p box q", INT, FormulaSyntaxError, "unexpected 'box' after formula", 2),
    ("(p box q)", INT, FormulaSyntaxError, "expected ')'", 3),
    ("forall (p)", INT, FormulaSyntaxError, "expected a variable after quantifier", 7),
    ("exists", INT, FormulaSyntaxError, "expected a variable after quantifier", 6),
    ("((p)", INT, FormulaSyntaxError, "expected ')'", 4),
    ("p))", INT, FormulaSyntaxError, "unexpected ')' after formula", 1),
    ("p & -> q", INT, FormulaSyntaxError, "expected a formula", 4),
    ("", S4, FormulaSyntaxError, "expected a formula", 0),
])
def test_first_fault_wins(text, lang, error, message, offset):
    got = outcome(parse_formula, text, lang)
    assert got == outcome(formula_reader.parse_formula, text, lang)
    assert got == (error, f"{message} (byte {offset})", offset if error is FormulaSyntaxError else None)


def test_deep_texts_parse_compile_and_print():
    assert parse_formula("(" * 100_000 + "bot" + ")" * 100_000) == Bottom()
    depth = 5000  # the printed text of each level is copied into the next
    table = compile_formula("~" * depth + "p")
    assert len(table.ops) == depth + 2 and table.free == ("p",)
    assert print_formula(table) == "~" * depth + "p"
    nested = "forall p " * depth + "p"
    assert print_formula(parse_formula(nested)) == nested
    assert compile_formula(nested).fixed[-1] == "empty"
