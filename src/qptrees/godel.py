"""Exact evaluation of propositionally quantified Goedel-Dummett logics over
finite truth-value sets.

Truth values are exact rationals from a finite set V with 0 and 1 included;
conjunction is min, disjunction max, implication is 1 when the antecedent
does not exceed the consequent and the consequent's value otherwise, and the
propositional quantifiers take the min/max over all of V (attained, since V
is finite).  Values are Fractions, never floats: the case split in the
implication clause has to be exact.

Rationals at the boundary, ranks inside: evaluation runs on the index of
each value in sorted V, so 0 has rank 0 and 1 the top rank.  Every clause
only compares values and returns an operand, 0 or 1, and ranking is an
order isomorphism from V onto 0..|V|-1 that sends 0 and 1 to the least and
the top rank, so the rank of a result is the result's rank: mapping back
at the end gives exactly the rational value.

Only finite V is supported.  Infinite truth-value sets can only be
approximated by finite truncations here, and truncation genuinely changes
the resulting logic, so no such approximation is done implicitly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

from .formula import (
    INT,
    And,
    Bottom,
    Exists,
    Forall,
    Formula,
    Implies,
    LanguageError,
    OpenFormulaError,
    Or,
    UnboundVariableError,
    Var,
    compile_formula,
    free_vars,
    is_modal,
    print_formula,
)
from .kripke import chain
from .semantics import validates

ONE = Fraction(1)

TruthValueSet = tuple  # strictly sorted tuple of Fractions with 0 and 1


def make_truth_values(values: Iterable) -> TruthValueSet:
    """Validate and sort a finite truth-value set."""
    vs = sorted({Fraction(v) for v in values})
    if any(v < 0 or v > 1 for v in vs):
        raise ValueError("truth values must lie in [0, 1]")
    if not vs or vs[0] != 0 or vs[-1] != 1:
        raise ValueError("a truth-value set must contain 0 and 1")
    return tuple(vs)


# No exponents: a few bytes of one could make Fraction build a huge power of ten.
_TRUTH_VALUE = re.compile(r"[+-]?(?:\d+(?:/\d+|\.\d*)?|\.\d+)")


def parse_truth_value(text: str) -> Fraction:
    """Parse one rational written as an integer, a/b or a plain decimal."""
    try:
        if _TRUTH_VALUE.fullmatch(text.strip()):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # too many digits, a zero denominator
        pass
    raise ValueError(f"bad truth value {text.strip()!r}")


def parse_truth_values(text: str) -> TruthValueSet:
    """Parse a comma-separated list of rationals such as "0,1/3,1/2,1"."""
    return make_truth_values(parse_truth_value(p) for p in text.split(","))


def evenly_spaced(k: int) -> TruthValueSet:
    """The k+1 equally spaced values 0, 1/k, ..., 1."""
    if k < 1:
        raise ValueError("need k >= 1")
    return make_truth_values(Fraction(i, k) for i in range(k + 1))


def _compile(f: Formula, scope: dict, s: list, top: int):
    """A closure that evaluates `f` on value ranks read from the slot list
    `s`; `scope` maps each variable in scope to its slot, and `top` is the
    rank of 1.

    Unbound variables raise here, while compiling, so the closures may skip
    an operand or the rest of a quantifier's range once the result is
    decided (0 for a conjunction or forall, 1 for a disjunction or exists)."""
    if isinstance(f, Var):
        try:
            k = scope[f.name]
        except KeyError:
            raise UnboundVariableError(f"no value assigned to {f.name!r}") from None
        return lambda: s[k]
    if isinstance(f, Bottom):
        return lambda: 0
    if isinstance(f, (And, Or, Implies)):
        a = _compile(f.left, scope, s, top)
        b = _compile(f.right, scope, s, top)
        if isinstance(f, And):
            return lambda: (x := a()) and min(x, b())
        if isinstance(f, Or):
            return lambda: x if (x := a()) == top else max(x, b())
        return lambda: top if (x := a()) <= (y := b()) else y
    if isinstance(f, (Forall, Exists)):
        k = len(s)
        s.append(0)
        body = _compile(f.body, {**scope, f.var: k}, s, top)
        values = range(top + 1)
        pick, start, decided = (min, top, 0) if isinstance(f, Forall) else (max, 0, top)

        def quantifier():
            result = start
            for v in values:
                s[k] = v
                result = pick(result, body())
                if result == decided:
                    break
            return result

        return quantifier
    raise TypeError(f"not a formula node: {f!r}")


def godel_eval(valuation: Mapping[str, object], f: Formula, values) -> Fraction:
    """The exact truth value of `f` under `valuation` over the set `values`.

    All images of the valuation must belong to the truth-value set; free
    variables of `f` must be covered.
    """
    if is_modal(f):
        raise LanguageError("modal operators have no many-valued reading here")
    vs = make_truth_values(values)
    rank = {v: i for i, v in enumerate(vs)}
    scope, s = {}, []
    for name, w in valuation.items():
        x = Fraction(w)
        if x not in rank:
            raise ValueError(f"valuation of {name!r} is {x}, not a truth value")
        scope[name] = len(s)
        s.append(rank[x])
    return vs[_compile(f, scope, s, len(vs) - 1)()]


def refuting_valuation(f: Formula, values) -> tuple[dict, Fraction] | None:
    """The first valuation of the free variables of `f` under which it takes
    a value below 1, with that value; None if `f` is a tautology over the
    set `values`.

    Valuations are tried in product order over the sorted free variables,
    each ranging over the values in ascending order.
    """
    table = compile_formula(f)
    if table.modal:
        raise LanguageError("modal operators have no many-valued reading here")
    vs = make_truth_values(values)
    names = table.free
    s = [0] * len(names)
    run = _compile(f, {name: k for k, name in enumerate(names)}, s, len(vs) - 1)
    for choice in product(range(len(vs)), repeat=len(names)):
        s[: len(names)] = choice
        result = run()
        if result != len(vs) - 1:
            return {name: vs[i] for name, i in zip(names, choice)}, vs[result]
    return None


def chain_correspondence(k: int, f: Formula) -> tuple[bool, bool]:
    """Check a closed formula against the two faces of linearity at size k.

    First component: `f` holds in every Kripke model on the k-element chain
    (a closed formula needs no valuation, and there is exactly one chain of
    each size).  Second component: `f` evaluates to 1 over the k+1 equally
    spaced truth values.  The k+1 upward-closed subsets of the chain match
    the k+1 truth values order for order, so the components always agree.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if is_modal(f):
        raise LanguageError("expected an intuitionistic formula")
    if free_vars(f):
        raise OpenFormulaError(
            f"expected a closed formula, got {print_formula(f)!r}"
        )
    on_chain = validates(chain(k, INT), f)
    many_valued = godel_eval({}, f, evenly_spaced(k)) == ONE
    return on_chain, many_valued
