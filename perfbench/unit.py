"""One measured unit of a workload, run in a fresh interpreter.

run.py starts this script once per unit so that no process-wide cache
carries warm state or memory from one unit into the next. It prints one
JSON object on standard output: per-suite counts and wall time, per-case
latency percentiles, peak RSS and, when traced, the per-layer spans and
cache counters.

    python3 perfbench/unit.py --workload growth_oracle --seed 1 --rep 0 [--traced]
    python3 perfbench/unit.py --suite two_path --full
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from array import array
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CONFIG = json.loads((HERE / "reference.json").read_text())

t_import = perf_counter()
import thetalift as tl  # noqa: E402

IMPORT_S = perf_counter() - t_import

import calibration  # noqa: E402
import queries  # noqa: E402
from tracing import Tracer  # noqa: E402


def suite_window(name: str, full: bool) -> dict:
    windows = CONFIG["full_bounds" if full else "windows"]
    return windows.get(name, windows["enumeration"])


def suite_cases(name: str, window: dict):
    """The public generator of one suite, at the given window."""
    if name == "ktypes":
        return tl.suites.suite_ktypes(emit=False, **window)
    bounds = tl.EnumerationBounds(
        window["max_n"], window["max_m_minus_n"], tl.HalfInt.parse(window["height"])
    )
    suite = tl.suites.SUITES.get(name) or getattr(tl.suites, f"suite_{name}")
    return suite(bounds, False)


def run_suites(names: list[str], full: bool, tracer: Tracer | None, latencies: array) -> dict:
    """Drive each suite to its verdict, timing every case."""
    out = {}
    for name in names:
        cases = failures = 0
        tags: Counter = Counter()
        error = None
        with tracer.span(f"suites.{name}") if tracer else nullcontext():
            start = last = perf_counter()
            try:
                for ok, tag, _record in suite_cases(name, suite_window(name, full)):
                    now = perf_counter()
                    latencies.append(now - last)
                    last = now
                    cases += 1
                    tags[tag] += 1
                    if not ok:
                        failures += 1
            except Exception as err:  # a crashed suite fails; the others still run
                error = f"{type(err).__name__}: {err}"
            wall = perf_counter() - start
        out[name] = {"cases": cases, "failures": failures, "tags": dict(sorted(tags.items())),
                     "wall_s": wall, "error": error}
    return out


def answer_queries(stream: list, tracer: Tracer | None, latencies: array) -> list:
    """Closed loop, one client: send a query, wait for its answer, send the next.

    Only the answers are timed and traced; they are checked afterwards.
    """
    outcomes = []
    for kind, args, _malformed in stream:
        t0 = perf_counter()
        try:
            if tracer is None:
                outcome = queries.answer(kind, args)
            else:
                with tracer.span("cli.query"):
                    outcome = queries.answer(kind, args)
        except Exception as err:  # not an input error: check() reports it as failed
            outcome = err
        latencies.append(perf_counter() - t0)
        outcomes.append(outcome)
    return outcomes


def check_queries(stream: list, outcomes: list, latencies: array) -> dict:
    """Check every answer; wall_s is the sum of the timed answers alone."""
    tags: Counter = Counter()
    problems: list[str] = []
    start = perf_counter()
    for (kind, args, malformed), outcome in zip(stream, outcomes):
        try:
            problem = queries.check(kind, args, malformed, outcome)
        except Exception as err:  # the independent route itself failed
            problem = f"checking a {kind} query raised {type(err).__name__}: {err}"
        tags["malformed" if malformed else kind] += 1
        if problem is not None:
            problems.append(problem)
    return {
        "single_queries": {"cases": len(stream), "failures": len(problems),
                           "tags": dict(sorted(tags.items())), "wall_s": sum(latencies),
                           "check_s": perf_counter() - start, "problems": problems[:5]},
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--suite", help="run one suite alone")
    ap.add_argument("--full", action="store_true", help="at the acceptance bounds")
    args = ap.parse_args()

    if Path(tl.__file__).resolve().parent != (SRC / "thetalift").resolve():
        print(f"error: thetalift imported from {tl.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    if sys.flags.optimize:
        print("error: assert statements carry invariants; do not run under -O", file=sys.stderr)
        return 3

    calibration_before = calibration.seconds()
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    latencies = array("d")
    stream = outcomes = None
    try:
        if args.suite:
            suites = run_suites([args.suite], args.full, tracer, latencies)
        elif args.workload == "single_queries":
            count = CONFIG["windows"]["single_queries"]["queries_per_unit"]
            stream = queries.make_stream(args.seed, args.rep, count)
            outcomes = answer_queries(stream, tracer, latencies)
        else:
            names = CONFIG["workloads"][args.workload]["suites"]
            suites = run_suites(names, args.full, tracer, latencies)
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibration_s = (calibration_before + calibration.seconds()) / 2
    # Read before the query checks, which fill the caches on their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    caches = tracer.cache_counters() if tracer is not None else None
    if stream is not None:
        suites = check_queries(stream, outcomes, latencies)

    ordered = sorted(latencies)
    result = {
        "suites": suites,
        "wall_s": sum(s["wall_s"] for s in suites.values()),
        "latency": {
            "samples": len(ordered),
            "sum_s": sum(ordered),
            "p50_s": percentile(ordered, 50),
            "p99_s": percentile(ordered, 99),
        },
        "peak_rss_mb": peak_rss_mb,
        "import_s": IMPORT_S,
        "calibration_s": calibration_s,
        "flags": {"optimize": sys.flags.optimize,
                  "dont_write_bytecode": sys.flags.dont_write_bytecode},
    }
    if tracer is not None:
        result["trace"] = tracer.report()
        result["caches"] = caches
        result["leftover_wrappers"] = tracer.leftover_wrappers()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
