"""zmdiff benchmark: one closed loop, one client, one thread, in-process.

    python3 bench/run.py --workload long_window --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; zmdiff is imported from the checkout's
src/ and nowhere else. The workloads are long_window, doc_commands and
audit_sweep (see workloads.py and README.md). Each run sets up several
times (a fresh import of zmdiff plus the first round of inputs), then runs
whole rounds of operations until --seconds have passed, checking every
output against the benchmark's own arithmetic. The last line of stdout is
one JSON object: correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run is traced and the
metrics are per layer (spans.py), per operation.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 9
# The percentile behind op_tail_ms: the highest that leaves at least ten
# operations above it at the operation counts a 40 s run makes here
# (long_window about 450, doc_commands about 11000, audit_sweep about 260).
TAIL_PERCENTILE = {"long_window": 95.0, "doc_commands": 99.8, "audit_sweep": 95.0}
TRACED_SHARE = 0.6  # of --seconds; the untraced replay of the same rounds follows


def fresh_import() -> dict:
    """Import zmdiff from this checkout anew, so that no state carries over."""
    for name in [n for n in sys.modules if n == "zmdiff" or n.startswith("zmdiff.")]:
        del sys.modules[name]
    cli = importlib.import_module("zmdiff.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"zmdiff was imported from {cli.__file__}, not from {SRC}")
    modules = {layer: sys.modules[f"zmdiff.{layer}"] for layer in spans.LAYERS}
    modules["zmdiff"] = sys.modules["zmdiff"]
    return modules


@dataclass
class Tally:
    latencies_ns: list[int] = field(default_factory=list)
    work: int = 0
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    rounds: int = 0
    reported: int = 0

    def record(self, op: workloads.Op, rc, out, ns: int) -> None:
        self.attempted += 1
        self.latencies_ns.append(ns)
        try:
            self.work += op.check(rc, out)
            return
        except workloads.CheckFailed as exc:
            why = str(exc)
        except Exception:  # a malformed answer fails its operation, like a wrong one
            why = traceback.format_exc()
        self.failed += 1
        if not op.known_fault:
            self.correct = False
        if self.reported < 5 and not (op.known_fault and self.rounds > 0):
            self.reported += 1
            print(f"FAILED {op.label} {op.argv} doc={op.doc}: {why}", file=sys.stderr)


def call(modules: dict, op: workloads.Op):
    """Run one operation; returns (exit code, output, ns). Only the call into zmdiff is timed."""
    cli = modules["cli"]
    clock = time.perf_counter_ns
    if op.sweep is not None:
        m_max, trials, seed = op.sweep
        t0 = clock()
        out = (cli.run_oracle_sweep(m_max, trials, seed), cli.run_uniqueness_sweep(m_max, trials, seed))
        return 0, out, clock() - t0
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(json.dumps(op.doc)), io.StringIO(), io.StringIO()
    captured = sys.stdout
    try:
        t0 = clock()
        rc = cli.main(list(op.argv))
        t1 = clock()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, captured.getvalue(), t1 - t0


def run_rounds(modules: dict, workload: str, seed: int, first: list,
               seconds: float | None = None, rounds: int | None = None) -> Tally:
    """Whole rounds until `seconds` have passed, or exactly `rounds` of them."""
    tally = Tally()
    gc.collect()
    start = time.perf_counter()
    while True:
        ops = first if tally.rounds == 0 else workloads.make_round(workload, seed, tally.rounds)
        for op in ops:
            try:
                rc, out, ns = call(modules, op)
            except Exception:  # an escaped exception is a failed operation; keep the loop going
                rc, out, ns = None, traceback.format_exc(), 0
            tally.record(op, rc, out, ns)
        tally.rounds += 1
        if rounds is not None:
            if tally.rounds >= rounds:
                return tally
        elif time.perf_counter() - start >= seconds:
            return tally


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, tally: Tally, setup_s: float) -> dict:
    lat = sorted(tally.latencies_ns)
    cuts = statistics.quantiles(lat, n=1000, method="inclusive")
    return {
        "work_per_s": metric(tally.work / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": metric(statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": metric(cuts[round(TAIL_PERCENTILE[workload] * 10) - 1] / 1e6, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer metric -> how it is read off the tracer
COUNTS = {
    "modring.residues_built": "modring.Residue.__post_init__",
    "modring.factorize.calls": "modring.factorize",
    "modring.nilpotency_index.calls": "modring.nilpotency_index",
    "crt.split_modulus.calls": "crt.split_modulus",
    "crt.combine.calls": "crt.combine",
    "problem.forcing_terms_read": "problem.SequenceSpec.term",
    "problem.reduce_by_gcd.calls": "problem.reduce_by_gcd",
    "solver.explicit_solution.calls": "solver.explicit_solution",
    "solver.nilpotent_solution.calls": "solver.nilpotent_solution",
    "solver.value.calls": "solver.GeneralSolution.value",
    "solver.split_problem.calls": "solver.split_problem",
    "solver.classify_equation.calls": "solver.classify_equation",
    "solver.classify_initial_problem.calls": "solver.classify_initial_problem",
    "solver.truncation_depth.calls": "solver.truncation_depth",
    "oracle.brute_force_prefixes.calls": "oracle.brute_force_prefixes",
    "oracle.verify_solution.calls": "oracle.verify_solution",
}
TIMES = {
    "modring.factorize.ms": "modring.factorize",
    "solver.explicit_solution.ms": "solver.explicit_solution",
    "solver.nilpotent_solution.ms": "solver.nilpotent_solution",
    "solver.value.ms": "solver.GeneralSolution.value",
    "solver.split_problem.ms": "solver.split_problem",
    "solver.build.ms": "solver.build",
    "oracle.brute_force_prefixes.ms": "oracle.brute_force_prefixes",
    "oracle.verify_solution.ms": "oracle.verify_solution",
    "cli.parse_document.ms": "cli.parse_document",
    "cli.audit_cell.ms": "cli._audit_cell",
}


def per_layer(tracer: spans.Tracer, traced: Tally, plain: Tally, hits: int, misses: int) -> dict:
    ops = traced.attempted
    out = {f"{layer}.self_ms": metric(tracer.layer_self_ms(layer) / ops, "ms")
           for layer in spans.LAYERS}
    for name, fn in COUNTS.items():
        out[name] = metric(tracer.count(fn) / ops, "count")
    for name, fn in TIMES.items():
        out[name] = metric(tracer.ms(fn) / ops, "ms")
    out["modring.factorize.hit_ratio"] = metric(hits / max(hits + misses, 1), "ratio")
    out["oracle.prefixes_found"] = metric(
        tracer.results["oracle.brute_force_prefixes"] / ops, "count")
    overhead = sum(traced.latencies_ns) / sum(plain.latencies_ns) - 1
    out["trace.overhead_pct"] = metric(100 * overhead, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zmdiff" / "__init__.py").is_file():
        print(f"bench: no zmdiff source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # set-up: importing zmdiff and making the inputs, up to the first timed operation
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        modules = fresh_import()
        first = workloads.make_round(args.workload, args.seed, 0)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    if not args.trace:
        tally = run_rounds(modules, args.workload, args.seed, first, seconds=args.seconds)
        metrics = end_to_end(args.workload, tally, setup_s)
        attempted, failed, correct = tally.attempted, tally.failed, tally.correct
    else:
        tracer = spans.Tracer()
        tracer.install(modules)
        cache = modules["modring"].factorize.__wrapped__
        before = cache.cache_info()
        traced = run_rounds(modules, args.workload, args.seed, first,
                            seconds=args.seconds * TRACED_SHARE)
        after = cache.cache_info()
        plain = run_rounds(fresh_import(), args.workload, args.seed, first, rounds=traced.rounds)
        metrics = per_layer(tracer, traced, plain,
                            after.hits - before.hits, after.misses - before.misses)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}.spans.tsv.gz")
        attempted = traced.attempted + plain.attempted
        failed = traced.failed + plain.failed
        correct = traced.correct and plain.correct
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
