"""The benchmark's own tests: python3 -m pytest perfbench"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_QUERIES
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_same_seed_same_queries_and_outputs(tmp_path):
    runs = []
    for attempt in range(2):
        stream = run.set_up("trees-s4", 5, True, tmp_path / str(attempt))
        records, _ = run.timed_run(stream, 0, sys.modules["qptrees.cli"], run.Oracles(), count=150)
        runs.append([(r.argv, r.digest, r.rc) for r in records])
    assert runs[0] == runs[1]
    assert len({tuple(argv) for argv, _, _ in runs[0]}) == len(runs[0])


def test_a_flipped_verdict_is_caught(monkeypatch, capsys):
    honest = run.send

    def flipped(query, argv, cli, tracer=None, query_id=None):
        out, rc, error, seconds = honest(query, argv, cli, tracer, query_id)
        if argv and argv[0] == "decide" and rc == 1:
            out, rc = out.split("OUTCOME:")[0] + "OUTCOME: no-counterexample\n", 0
        return out, rc, error, seconds

    monkeypatch.setattr(run, "send", flipped)
    status = run.main(["--workload", "trees-int", "--seconds", "0.2", "--smoke"])
    result = last_json(capsys.readouterr().out)
    assert status == 1
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]


def test_a_wrong_countermodel_is_caught(tmp_path):
    stream = run.set_up("trees-int", 1, True, tmp_path)
    not_qem = list(itertools.islice(stream, 4))[2]  # the prefix is the paper's formulas
    assert "~forall p (p | ~p)" in not_qem.argv
    out, rc, _, _ = run.send(not_qem, not_qem.argv, sys.modules["qptrees.cli"])
    oracles = run.Oracles()
    assert rc == 1 and not_qem.check(out, rc, oracles) is None
    two_worlds = '{"kind":"tree","worlds":[[],[0]],"valuation":{},"mode":"int"}'
    lines = [line for line in out.splitlines() if not line.startswith("COUNTERMODEL")]
    forged = "\n".join(lines + [f"COUNTERMODEL: {two_worlds}"]) + "\n"
    assert "one-world" in not_qem.check(forged, 1, oracles)


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trees-int", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_printer_matches_the_program():
    from qptrees.formula import parse_formula, print_formula

    rng = random.Random(7)
    for _ in range(300):
        f = workloads.random_formula(rng, 5, modal=True)
        text = workloads.show(f)
        assert print_formula(parse_formula(text, "s4")) == text
