"""qptrees benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload trees-int --seed 1 --seconds 35 --trace 0

Run from the root of a qptrees checkout.  The workloads, the metrics and
what each one should move are described in perfbench/README.md.

Set-up imports qptrees from src/, makes the seeded stream and writes its
model files; it is repeated SETUP_REPEATS times, with the package removed
from sys.modules in between, and setup_s is the median.  The timed run then
sends one query at a time through `qptrees.cli.run(argv)`, with stdout
captured, or through the public mso functions for the oracle work that has
no CLI verb, until --seconds have passed and at least MIN_QUERIES were sent.
Each query is timed on its own; making the next query is not timed.

With --trace 0 the run lasts --seconds and reports the end-to-end metrics.
With --trace 1 a fixed number of queries, about half of --seconds worth when
the benchmark was defined (TRACE_RATES), is sent untraced and then replayed
with every layer boundary wrapped; the run reports the per-layer metrics and
trace.overhead_ratio, traced over untraced time for the same queries.

Outputs are checked between queries, outside their timing.  A query fails
if it raises, exits with a status it does not expect, fails its output
check, or prints other bytes when it is sent again (every RECHECK_EVERY-th
query untraced, all of them traced).  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; a full result,
with the input profile and an environment stamp, goes to
.perfbench/results/, and with --trace 1 the spans too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 20020203  # not used while writing a change; re-check claims on it
SETUP_REPEATS = 11
MIN_QUERIES = 100  # so that at least ten samples lie beyond the 90th percentile
RECHECK_EVERY = 50  # an untraced run sends every 50th query a second time
CHECK_BATCH = 300
# Queries per second of query time when the benchmark was defined (2-CPU
# x86-64 box, Python 3.11).  A traced run sends rate * --seconds / 2 queries,
# a fixed amount of work whatever the program's speed, so that per-layer
# totals of two commits count the same queries.
TRACE_RATES = {"trees-int": 35, "trees-s4": 110, "posets": 20, "oracles": 280}


@dataclass
class Record:
    """What is kept of one query once it is checked: not its output, so that
    the benchmark's own memory does not grow with the program's speed, and
    the query itself only if it is to be sent again."""

    label: str
    seconds: float
    rc: int | None
    digest: str
    failure: str | None
    w: int
    size: int
    props: int
    query: workloads.Query | None
    argv: list | None


def send(query, argv, cli, tracer=None, query_id=None):
    """Send one query: (stdout, exit status, error, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is not None:
            tracer.query = query_id
            frame = tracer.open("query")
        start = perf_counter()
        try:
            rc, error = (cli.run(argv) if argv is not None else query.call()), None
        except Exception as e:  # a crash fails this query, not the run
            rc, error = None, f"{type(e).__name__}: {e}"
        seconds = perf_counter() - start
        if tracer is not None:
            seconds = tracer.close(frame)
    return buf.getvalue(), rc, error, seconds


def digest(out):
    return hashlib.blake2b(out.encode(), digest_size=16).hexdigest()


def judge(query, out, rc, error, oracles):
    """None, or why the output is wrong."""
    if error is not None:
        return error
    if rc not in query.expect:
        return f"unexpected exit status {rc}"
    try:
        return query.check(out, rc, oracles)
    except Exception as e:  # malformed output breaks the check
        return f"check raised {type(e).__name__}: {e}"


def searched(query, argv, out, rc):
    """The largest structure a query searched and its number of propositions."""
    if rc == 1 and argv and argv[0] == "decide":
        try:
            size = len(json.loads(workloads.fields_of(out)["COUNTERMODEL"])["worlds"])
        except (KeyError, TypeError, ValueError):
            return query.size, query.props
        return size, workloads.props_bound(size, argv[argv.index("--mode") + 1])
    return query.size, query.props


def set_up(workload, seed, smoke, workdir):
    """Import qptrees afresh, make the stream and write its files."""
    for name in [m for m in sys.modules if m == "qptrees" or m.startswith("qptrees.")]:
        del sys.modules[name]
    importlib.import_module("qptrees")
    importlib.import_module("qptrees.cli")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    load = workloads.WORKLOADS[workload](seed, workdir, smoke)
    first = load.prefix + load.block()
    return itertools.chain(first, itertools.chain.from_iterable(iter(load.block, None)))


def timed_run(stream, seconds, cli, oracles, count=None, keep_every=1):
    """Send queries until `seconds` have passed and MIN_QUERIES were sent,
    or, when `count` is given, exactly `count` queries.

    Outputs are checked in batches between queries, outside their timing,
    so the benchmark holds at most one batch of outputs.  Returns the
    records and the peak resident memory, in MiB, when the first batch was
    sent and before any check ran: a fixed amount of work, so it does not
    grow with the program's speed, and free of the checks' own memory."""
    records, batch, previous, peak_rss_mb = [], [], "", None
    deadline = perf_counter() + seconds

    def more():
        sent = len(records) + len(batch)
        return sent < count if count else perf_counter() < deadline or sent < MIN_QUERIES

    while more():
        query = next(stream)
        argv = query.resolve(previous)
        out, rc, error, took = send(query, argv, cli)
        batch.append((query, argv, out, rc, error, took))
        previous = out
        if len(batch) == CHECK_BATCH or not more():
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for query, argv, out, rc, error, took in batch:
                size, props = searched(query, argv, out, rc)
                keep = len(records) % keep_every == 0
                records.append(Record(query.label, took, rc, digest(out),
                                      judge(query, out, rc, error, oracles), query.w, size,
                                      props, query if keep else None, argv))
            batch = []
    return records, peak_rss_mb


def send_again(records, cli, tracer=None):
    """Send the kept queries again: (those whose output changed, total seconds)."""
    changed, total = {}, 0.0
    for i, r in enumerate(records):
        if r.query is None:
            continue
        out, rc, _, took = send(r.query, r.argv, cli, tracer, i)
        total += took
        if (digest(out), rc) != (r.digest, r.rc):
            changed[i] = "different output when sent again"
    return changed, total


class Oracles:
    """What the output checks use: the independent pointwise-forcing oracle
    and MSO reader from tests/, plus the program's own modules for reading
    models and formulas and for the Goedel/chain correspondence."""

    def __init__(self):
        modules = sys.modules
        self.formula = modules["qptrees.formula"]
        self.kripke = modules["qptrees.kripke"]
        self.mso = modules["qptrees.mso"]
        self.validates = modules["qptrees.semantics"].validates
        helpers = _load(ROOT / "tests" / "helpers.py")
        self.read_mso = _load(ROOT / "tests" / "mso_reader.py").read_mso
        self._forces = {"int": helpers.naive_forces_int, "s4": helpers.naive_forces_s4}

    def forces(self, m, world, f):
        return self._forces[m.mode](m, world, f)

    @staticmethod
    def is_diamond(m):
        return sorted(len(m.above(w)) for w in m.worlds) == [1, 2, 2, 4]


def _load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def profile(records):
    """Input properties that later changes may depend on."""
    n = len(records)
    w = [r.w for r in records]
    labels = {}
    for r in records:
        count, total = labels.get(r.label, (0, 0.0))
        labels[r.label] = (count + 1, total + r.seconds)
    return {
        "queries": n,
        "refuted_share": sum(r.rc == 1 for r in records) / n,
        "refuted_at_one_world_share": sum(r.rc == 1 and r.size == 1 for r in records) / n,
        "largest_structure": max(r.size for r in records),
        "max_w": max(w),
        "max_propositions": max(r.props for r in records),
        "w_counts": {str(k): w.count(k) for k in sorted(set(w))},
        "by_label": {k: {"queries": c, "seconds": s} for k, (c, s) in sorted(labels.items())},
    }


def environment():
    def git(*args):
        # the ceiling keeps git from reporting a repository that encloses ROOT
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=60)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    numpy = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, timeout=120)
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "numpy_imports": numpy.returncode == 0,
    }


def run(args, spec, workdir):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        stream = set_up(args.workload, args.seed, args.smoke, workdir)
        setup_times.append(perf_counter() - start)
    cli = sys.modules["qptrees.cli"]
    oracles = Oracles()
    if args.trace:
        count = max(MIN_QUERIES, 0 if args.smoke else round(TRACE_RATES[args.workload] * args.seconds / 2))
        records, _ = timed_run(stream, args.seconds, cli, oracles, count)
    else:
        records, peak_rss_mb = timed_run(stream, args.seconds, cli, oracles, keep_every=RECHECK_EVERY)

    latencies = [r.seconds for r in records]
    busy = sum(latencies)
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.on = True
        changed, traced = send_again(records, cli, tracer)
        tracer.on = False
        metrics = tracing.layer_metrics(tracer, busy, traced)
        declared = spec["per_layer"]
    else:
        changed, _ = send_again(records, cli)
        metrics = {
            "queries_per_s": len(records) / busy,
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        declared = spec["end_to_end"]
    failed = {i: r.failure for i, r in enumerate(records) if r.failure is not None}
    failed.update(changed)
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": len(records),
        "fail_share": len(failed) / len(records),
        "failures": [{"query": i, "argv": records[i].argv, "reason": why}
                     for i, why in sorted(failed.items())[:20]],
        "profile": profile(records),
        "environment": environment(),
    }
    if args.trace:
        result["shares_of_traced_query_time"] = {
            key: metrics[key] / metrics["trace.query_s"]
            for key in ("cli.self_s", "formula.parse_s", "kripke.build_s", "kripke.upsets_s",
                        "search.enum_s", "semantics.self_s", "embedding.self_s",
                        "mso.translate_s", "mso.emit_s", "mso.eval_s", "godel.eval_s")
        }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    result_path = OUT / "results" / f"{stem}.json"
    if args.trace:
        spans_path = result_path.with_suffix(".spans.jsonl.gz")
        tracer.write(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(records)} queries "
          f"in {busy:.3f} s of query time (closed loop, one client)")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(f"fail_share: {result['fail_share']} ratio ({len(failed)} of {len(records)})")
    for i, why in sorted(failed.items())[:5]:
        print(f"failed query {i} {records[i].argv}: {why}")
    print(f"result: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 0 if not failed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; re-check a claim on the held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny bounds, for the benchmark's own tests")
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "qptrees" / "__init__.py", ROOT / "tests" / "helpers.py",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"perfbench: not a qptrees checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
