"""Mutation checks: does some tier-1 test fail on each named mutant?

Each mutant replaces one exact fragment of one module of `src/qptrees` and
names the tier-1 test files that should catch it.  The script copies
`src/`, `tests/`, `conftest.py` and `pyproject.toml` to a scratch tree,
then, one mutant at a time, writes the mutated module there, runs
`pytest -x -q` on the named files under a time limit, and puts the module
back.  A mutant is killed when pytest fails or runs out of time, and
survives when every named file passes.  A survivor listed in `EQUIVALENT`
is expected: its entry says why it cannot change a result.

Run from the repository root, with pytest installed; the standard library
is all the script itself needs, and pytest does not collect it:

    python tests/mutants.py               # every mutant
    python tests/mutants.py NAME ...      # the named ones
    python tests/mutants.py --list        # names, modules and test files

The scratch tree is `.mutants/tree`, which git ignores; each pytest run
may take `TIMEOUT` seconds.  Exit status: 0 when every mutant is killed or
listed as equivalent, 1 when one survives unexplained or an equivalent one
is killed, 2 when a fragment no longer occurs exactly once in its module.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TREE = ROOT / ".mutants" / "tree"
TIMEOUT = 300  # seconds per pytest run


class Mutant(NamedTuple):
    name: str
    module: str  # under src/qptrees
    fragment: str  # occurs exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # under tests/


MUTANTS = (
    # --- kripke.Forest: the layout of one size class -------------------------
    Mutant("forest-up-offset", "kripke.py",
           "up = [mask << k * n for k, own",
           "up = [mask << k for k, own",
           ("test_kripke.py",)),
    Mutant("forest-starts-offset", "kripke.py",
           "self.starts = sum(1 << k * n for k",
           "self.starts = sum(1 << k for k",
           ("test_search.py",)),
    Mutant("s4-range-stride", "kripke.py",
           "return range(0, self.starts << self.size, self.starts)",
           "return range(0, self.starts << self.size, self.starts << 1)",
           ("test_kripke.py", "test_search.py")),
    Mutant("tree-rule-larger-subtrees", "kripke.py",
           "larger |= by_size[d + 1]",
           "larger = by_size[d + 1]",
           ("test_kripke.py",)),
    Mutant("tree-rule-for-any-tree", "kripke.py",
           'if all(m.kind == "tree" for m in models):',
           'if any(m.kind == "tree" for m in models):',
           ("test_kripke.py",)),
    Mutant("pairwise-behind-mask", "kripke.py",
           "behind[w - v] |= 1 << v",
           "behind[w - v] |= 1 << w",
           ("test_kripke.py",)),
    # --- kripke._zip_across -----------------------------------------------------
    Mutant("zip-tile-offset", "kripke.py",
           "[t | p << k * size for t, p in zip(tile, own)]",
           "[t | p << k for t, p in zip(tile, own)]",
           ("test_search.py",)),
    Mutant("zip-component-order", "kripke.py",
           "for k, own in enumerate(propositions):",
           "for k, own in enumerate(propositions[::-1]):",
           ("test_search.py",)),
    Mutant("zip-to-the-shortest", "kripke.py",
           "zipped = [0] * max(tiles)",
           "zipped = [0] * min(tiles)",
           ("test_search.py",)),
    Mutant("zip-pads-with-zero", "kripke.py",
           "zipped = list(map(or_, zipped, cycle(tile)))",
           "zipped = list(map(or_, zipped, tile + [0] * (len(zipped) - len(tile))))",
           ("test_search.py",)),
    # --- semantics -----------------------------------------------------------------
    Mutant("valuation-dropped", "semantics.py",
           "mode == S4, valuation)",
           "mode == S4, {})",
           ("test_semantics.py",)),
    Mutant("box-as-identity", "semantics.py",
           "values[i] = full & ~down(full & ~values[args[i][0]])",
           "values[i] = values[args[i][0]]",
           ("test_semantics.py",)),
    Mutant("box-down-of-complement", "semantics.py",
           "values[i] = full & ~down(full & ~values[args[i][0]])",
           "values[i] = full & ~down(~values[args[i][0]])",
           ("test_semantics.py",)),
    Mutant("closure-check-never-fires", "semantics.py",
           "if mode == INT and forest.down(",
           "if mode is None and forest.down(",
           ("test_semantics.py",)),
    # --- search ------------------------------------------------------------------------
    Mutant("poset-row-bit-order", "search.py",
           "if row & bit[j]) for row in form]",
           "if row & 1 << j) for row in form]",
           ("test_search.py",)),
    Mutant("countermodel-index", "search.py",
           "(forest.starts & ((refuted & -refuted) - 1)).bit_count()",
           "(forest.starts & (refuted - 1)).bit_count()",
           ("test_search.py",)),
    Mutant("constants-searched-to-the-bound", "search.py",
           "bounds.max_worlds + 1 if table.ranging else 2",
           "bounds.max_worlds + 1",
           ("test_search.py",)),
    # --- mso: the program key and cli ----------------------------------------------
    Mutant("mso-key-without-words", "mso.py",
           "key, cached = (nodes.size, nodes.words, scope),",
           "key, cached = (nodes.size, scope),",
           ("test_mso.py",)),
    # --- mso: the subsets a set quantifier keeps ------------------------------------
    Mutant("kept-without-key-compare", "mso.py",
           "if held is None or held[0] != now:",
           "if held is None:",
           ("test_mso.py",)),
    Mutant("kept-key-short-one-slot", "mso.py",
           "values = itemgetter(*key) if key else (lambda s: None)",
           "values = itemgetter(*key[:-1]) if key[:-1] else (lambda s: None)",
           ("test_mso.py",)),
    Mutant("kept-all-tested-on-early-end", "mso.py",
           "kept = now, admitted, v + 1",
           "kept = now, admitted, end",
           ("test_mso.py",)),
    Mutant("kept-for-a-guard-reading-a-node", "mso.py",
           "if not reads & ~1:  # G reads no node",
           "if True:  # G reads no node",
           ("test_mso.py",)),
    # --- mso: relation links ------------------------------------------------------------
    Mutant("relation-prefix-search-skips-two", "mso.py",
           "                    k -= 1",
           "                    k -= 2",
           ("test_mso.py",)),
    Mutant("relation-immediate-closed", "mso.py",
           "closed = kind is not ImmediateLe",
           "closed = True",
           ("test_mso.py",)),
    Mutant("relation-lex-links-reversed", "mso.py",
           "links = list(zip(order[1:], order))",
           "links = list(zip(order, order[1:]))",
           ("test_mso.py",)),
    Mutant("relation-prefix-links-reversed", "mso.py",
           "links.append((j, self.index[w[:k]]))",
           "links.append((self.index[w[:k]], j))",
           ("test_mso.py",)),
    Mutant("argv-odd-count-read-plain", "cli.py",
           "if 2 * len(given) != len(args):",
           "if False:",
           ("test_cli.py",)),
)

# name -> why the mutant cannot change a result
EQUIVALENT = {
    "zip-pads-with-zero": (
        "every component lists the empty set among its propositions, so a "
        "component padded with 0 still meets each of its own propositions "
        "and only repeats one; repeats change no intersection and no union"
    ),
    "box-down-of-complement": (
        "`down` only ands its argument with finite masks before it shifts, "
        "and the result is cut back to `full`, so the bits that ~x sets "
        "beyond `full` never reach a value"
    ),
}


def mutate(mutant: Mutant) -> tuple[Path, str, str] | None:
    """The module's path in the repository, its text and the mutated text;
    None when the fragment does not occur exactly once."""
    path = ROOT / "src" / "qptrees" / mutant.module
    text = path.read_text()
    count = text.count(mutant.fragment)
    if count != 1:
        print(f"{mutant.name}: fragment occurs {count} times in {mutant.module}", file=sys.stderr)
        return None
    return path, text, text.replace(mutant.fragment, mutant.replacement)


def copy_tree() -> None:
    if TREE.exists():
        shutil.rmtree(TREE)
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, TREE / name, ignore=skip)
    for name in ("conftest.py", "pyproject.toml"):
        shutil.copy2(ROOT / name, TREE / name)


def run_tests(tests) -> str:
    """"passed", "failed" or "timeout" for the named files in the copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(TREE / "src"))
    command = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(f"tests/{name}" for name in tests)]
    try:
        done = subprocess.run(command, cwd=TREE, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the named mutants against tier-1 test files.")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name:34} {m.module:13} {' '.join(m.tests)}")
        return 0
    # every fragment is checked before any run
    mutated = [(m, mutate(m)) for m in chosen]
    if any(found is None for _, found in mutated):
        return 2
    copy_tree()
    bad = 0
    started = time.perf_counter()
    for m, (path, original, text) in mutated:
        target = TREE / path.relative_to(ROOT)
        target.write_text(text)
        began = time.perf_counter()
        try:
            outcome = run_tests(m.tests)
        finally:
            target.write_text(original)
        killed = outcome != "passed"
        if m.name in EQUIVALENT:
            verdict = "KILLED-EQUIVALENT" if killed else "equivalent"
        else:
            verdict = ("killed" if outcome == "failed" else "killed-by-timeout") if killed else "SURVIVED"
        bad += verdict in ("SURVIVED", "KILLED-EQUIVALENT")
        print(f"{verdict:18} {m.name:34} {time.perf_counter() - began:6.1f} s", flush=True)
    print(f"{len(mutated)} mutants, {bad} unexplained, {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
