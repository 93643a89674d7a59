"""Byte-for-byte golden of `decide` on seeded random closed formulas.

The formulas come from `helpers.random_formula` at depth 5 with up to three
quantifiers over p, q and r, so rebound (shadowed) variables are common.
Regenerate the golden file only for a deliberate change of output:

    PYTHONPATH=src python tests/test_decide_golden.py
"""

import contextlib
import io
import random
from pathlib import Path

from helpers import random_formula
from qptrees.cli import run
from qptrees.formula import INT, S4, print_formula

GOLDEN = Path(__file__).parent / "golden" / "decide_seeded.txt"

# (class, --max, mode, language of the formulas, how many)
STREAMS = (
    ("finite-trees", 6, INT, INT, 100),
    ("finite-trees", 4, S4, S4, 100),
    ("chains", 5, INT, INT, 100),
    ("finite-posets", 4, INT, INT, 100),
)


def queries():
    rng = random.Random(20261018)
    for cls, bound, mode, lang, count in STREAMS:
        for _ in range(count):
            f = random_formula(rng, 5, lang=lang, quantifiers=3, closed=True)
            yield ["decide", "--formula", print_formula(f), "--class", cls,
                   "--max", str(bound), "--mode", mode]


def transcript(k, argv) -> str:
    """Query `k`'s block of the golden file: a `#` line, the exit code and
    stdout, which starts with the formula."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return f"# {k}\nEXIT: {code}\n{out.getvalue()}"


def test_decide_matches_golden():
    expected = GOLDEN.read_text().splitlines(keepends=True)
    starts = [i for i, line in enumerate(expected) if line.startswith("# ")]
    assert starts[:1] == [0]
    blocks = ["".join(expected[i:j]) for i, j in zip(starts, starts[1:] + [len(expected)])]
    argvs = list(queries())
    assert len(blocks) == len(argvs)
    for k, (argv, block) in enumerate(zip(argvs, blocks)):
        assert transcript(k, argv) == block, f"query {k} drifted: {' '.join(argv)}"


if __name__ == "__main__":
    GOLDEN.write_text("".join(transcript(k, argv) for k, argv in enumerate(queries())))
