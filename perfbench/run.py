"""Benchmark of thetalift: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload growth_oracle --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src. The
workload runs as a sequence of units, each in a fresh child process
(unit.py), one child at a time, until the time budget is spent. Set-up
time is the median over fresh interpreters that only import thetalift,
one before each unit and at least nine per run. Every time is scaled to a
reference host speed by a calibration taken in the same process around
it (calibration.py); the detail line also gives the unscaled medians.
Every answer is checked;
the enumeration suites' case and tag counts must equal the reference
counts in reference.json.

With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric named in BENCHMARK.json. With --trace 1 the units
alternate untraced and traced runs of the same input, and the object holds
every per-layer metric instead. The line before it carries the details:
environment, sample counts, failed ratio, per-suite counts and the traced
call graph. METRICS.md describes each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 9  # at least this many set-up samples per run
MIN_UNITS = 3
MIN_PAIRS = 2
LAST_START_S = 110  # no unit starts later than this after launch
DEADLINE_S = 170  # every child is stopped by then


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONOPTIMIZE", None)
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run one child interpreter to completion and return its standard output."""
    if timeout <= 0:
        raise BenchError("out of time before a child could start")
    try:
        proc = subprocess.run(
            [sys.executable, *argv], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"child {argv[:3]} ran past the deadline") from err
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:3]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return proc.stdout


def run_unit(args: list[str], launched: float) -> dict:
    out = run_child([str(HERE / "unit.py"), *args], DEADLINE_S - (perf_counter() - launched))
    return json.loads(out.splitlines()[-1])


def setup_sample(launched: float) -> tuple[float, float]:
    """Seconds from spawning an interpreter until `import thetalift` completes,
    and the calibration time the child then measures.

    The child reads the same monotonic clock right after the import.
    """
    code = (
        "import time\nimport thetalift\nt = time.perf_counter()\nimport sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\nimport calibration\n"
        "print(repr(t), repr(calibration.seconds()))"
    )
    t0 = perf_counter()
    out = run_child(["-c", code], DEADLINE_S - (t0 - launched)).split()
    return float(out[-2]) - t0, float(out[-1])


def median(values) -> float:
    return statistics.median(list(values))


def check_unit(unit: dict, workload: str, reference: dict, problems: list[str]) -> tuple[int, int]:
    """(attempted, failed) of one unit; a suite off its reference counts fails whole."""
    attempted = failed = 0
    for name, s in unit["suites"].items():
        if workload == "single_queries":
            attempted += s["cases"]
            failed += s["failures"]
            problems.extend(s["problems"])
            continue
        ref = reference[name]
        cases = max(s["cases"], ref["cases"])
        attempted += cases
        if s["error"] or s["failures"] or s["cases"] != ref["cases"] or s["tags"] != ref["tags"]:
            failed += cases
            problems.append(
                f"{name}: {s['cases']} cases {s['tags']} with {s['failures']} failures"
                f"{', stopped by ' + s['error'] if s['error'] else ''}; "
                f"reference {ref['cases']} cases {ref['tags']}"
            )
    if unit.get("leftover_wrappers"):
        problems.append(f"tracer left wrappers bound: {unit['leftover_wrappers']}")
    return attempted, failed


def end_to_end(setup: list[tuple[float, float]], units: list[dict], scaled: bool) -> dict[str, float]:
    """Medians over the run; with scaled, each time is first scaled to the
    reference host speed by the calibration taken around it."""
    def scale(calibration_s: float) -> float:
        return REFERENCE_S / calibration_s if scaled else 1.0

    def cases(u: dict) -> int:
        return sum(s["cases"] for s in u["suites"].values())

    k = [scale(u["calibration_s"]) for u in units]
    return {
        "setup_s": median(t * scale(c) for t, c in setup),
        "wall_s": median(u["wall_s"] * f for u, f in zip(units, k)),
        "cases_per_s": median(cases(u) / (u["wall_s"] * f) for u, f in zip(units, k)),
        "peak_rss_mb": median(u["peak_rss_mb"] for u in units),
        "query_p50_us": median(u["latency"]["p50_s"] * f for u, f in zip(units, k)) * 1e6,
        "query_p99_us": median(u["latency"]["p99_s"] * f for u, f in zip(units, k)) * 1e6,
        "queries_per_s": median(
            u["latency"]["samples"] / (u["latency"]["sum_s"] * f) for u, f in zip(units, k)
        ),
    }


def per_layer(pairs: list[tuple[dict, dict]], suite_names: list[str]) -> dict[str, float]:
    plain = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    first = traced[0]
    out: dict[str, float] = {}
    names = sorted({n for t in traced for n in t["trace"]["spans"]})
    for name in names:
        out[f"{name}.calls"] = first["trace"]["spans"].get(name, {}).get("calls", 0)
        out[f"{name}.self_s"] = median(
            t["trace"]["spans"].get(name, {}).get("self_s", 0.0) for t in traced
        )
    out.update(first["trace"]["counts"])
    for label, c in first["caches"].items():
        out[f"{label}.hit_ratio"] = c["hit_ratio"]
        out[f"{label}.entries"] = c["entries"]
    out["nonvanishing.occurs.calls_per_case"] = _per_root(
        first, "nonvanishing.occurs", None)
    out["packets.unit_block_signs_per_sigma"] = _per_root(
        first, "packets.unit_block_signs", "packets.sigma_from_eta_prime")
    for name in suite_names:
        out[f"suites.{name}.cases"] = plain[0]["suites"].get(name, {}).get("cases", 0)
        out[f"suites.{name}.wall_s"] = median(
            u["suites"].get(name, {}).get("wall_s", 0.0) for u in plain
        )
    roots = {f"suites.{name}" for name in suite_names}
    out["suites.self_s"] = median(
        sum(v["self_s"] for k, v in t["trace"]["spans"].items() if k in roots) for t in traced
    )
    out["import.thetalift_s"] = median(u["import_s"] for u in plain)
    out["trace.overhead_ratio"] = median(t["wall_s"] for t in traced) / median(
        u["wall_s"] for u in plain
    )
    return out


def _per_root(traced: dict, name: str, per: str | None) -> float:
    """Calls of name per call of per (per case when per is None), over the
    roots (suites or queries) that call both; 0 when no root does."""
    calls: dict[str, dict[str, int]] = {}
    for root, callee, n in traced["trace"]["by_root"]:
        calls.setdefault(root, {})[callee] = n
    num = den = 0
    for root, counts in calls.items():
        if name not in counts or (per is not None and per not in counts):
            continue
        num += counts[name]
        if per is not None:
            den += counts[per]
        else:
            suite = "single_queries" if root == "cli.query" else root.removeprefix("suites.")
            den += traced["suites"][suite]["cases"]
    return num / den if den else 0.0


def signature(unit: dict) -> dict:
    """What a traced and an untraced run of the same input must share."""
    return {n: (s["cases"], s["tags"], s["failures"]) for n, s in unit["suites"].items()}


def calls(traced: dict) -> dict[str, int]:
    return {name: span["calls"] for name, span in traced["trace"]["spans"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    launched = perf_counter()

    if not (SRC / "thetalift" / "__init__.py").is_file():
        raise BenchError(f"no thetalift sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "reference.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    all_suites = [n for w in config["workloads"].values() for n in w["suites"]]

    setup_sample(launched)  # warm-up, not counted
    setup: list[tuple[float, float]] = []  # untraced runs only
    problems: list[str] = []
    attempted = failed = 0
    unit_args = ["--workload", args.workload, "--seed", str(args.seed)]
    units: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    durations: list[float] = []
    start = perf_counter()
    while True:
        now = perf_counter()
        enough = len(pairs) >= MIN_PAIRS if args.trace else len(units) >= MIN_UNITS
        if enough and (now - start + median(durations) > args.seconds
                       or now - launched > LAST_START_S):
            break
        if now - launched > LAST_START_S:
            raise BenchError("units are too slow to finish within the deadline")
        if args.trace:
            # Every pair runs the same input, so counts must agree exactly.
            plain = run_unit([*unit_args, "--rep", "0"], launched)
            traced = run_unit([*unit_args, "--rep", "0", "--traced"], launched)
            if signature(traced) != signature(plain):
                problems.append("traced run counted differently from the untraced run")
            if pairs and calls(traced) != calls(pairs[0][1]):
                problems.append("two traced runs of one input made different calls")
            pairs.append((plain, traced))
            batch = [plain, traced]
        else:
            # Set-up samples are spread over the run, one before each unit.
            setup.append(setup_sample(launched))
            unit = run_unit([*unit_args, "--rep", str(len(units))], launched)
            units.append(unit)
            batch = [unit]
        durations.append(perf_counter() - now)
        for unit in batch:
            a, f = check_unit(unit, args.workload, config["reference_counts"], problems)
            attempted += a
            failed += f

    if args.trace:
        measured = per_layer(pairs, all_suites)
        wanted = spec["per_layer"]
        timed = [u for u, _ in pairs]
    else:
        while len(setup) < SETUP_SPAWNS:
            setup.append(setup_sample(launched))
        measured = end_to_end(setup, units, scaled=True)
        wanted = spec["end_to_end"]
        timed = units

    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "child_flags": timed[0]["flags"],
        },
        "samples": {
            "setup_s": len(setup),
            "units": len(timed),
            "latencies_per_unit": [u["latency"]["samples"] for u in timed],
        },
        "failed_ratio": failed / attempted,
        "not_measured": sorted(m["name"] for m in wanted if m["name"] not in measured),
        "suites": {
            name: {"cases": s["cases"], "tags": s["tags"],
                   "wall_s": median(u["suites"][name]["wall_s"] for u in timed)}
            for name, s in timed[0]["suites"].items()
        },
        "problems": problems[:20],
    }
    if not args.trace:
        detail["unscaled"] = end_to_end(setup, units, scaled=False)
        detail["calibration_s"] = median(u["calibration_s"] for u in units)
    if args.workload == "single_queries":
        # The answer checks run after the timed queries; their time is not in wall_s.
        detail["check_s"] = median(u["suites"]["single_queries"]["check_s"] for u in timed)
    if args.trace:
        detail["call_graph"] = pairs[0][1]["trace"]["edges"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
