"""Self-checks of the benchmark's own machinery.

    python3 perfbench/selfcheck.py

1. The query stream is identical for a given seed and differs across seeds.
2. The tracer restores every binding it patched.
3. A traced unit counts the same cases and tags as an untraced unit of the
   same input, for every workload.

Exits 0 when all pass.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import ROOT, SRC, run_unit

sys.path.insert(0, str(SRC))

import queries  # noqa: E402
import thetalift  # noqa: E402,F401
import thetalift.cli  # noqa: E402
from tracing import Tracer, _scanned_modules  # noqa: E402

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def check_stream() -> None:
    a = queries.make_stream(7, 2, 500)
    assert a == queries.make_stream(7, 2, 500), "same seed, different stream"
    assert a != queries.make_stream(8, 2, 500), "different seeds, same stream"
    assert a != queries.make_stream(7, 3, 500), "different batches, same stream"
    assert sum(m for _, _, m in a) == 500 // queries.MALFORMED_EVERY, "malformed share moved"


def _bindings() -> dict[tuple[str, str], int]:
    from thetalift.core import HCParam, HalfInt

    out = {(mod.__name__, k): id(v) for mod in _scanned_modules() for k, v in vars(mod).items()}
    for cls in (HCParam, HalfInt):
        out.update({(cls.__name__, k): id(v) for k, v in cls.__dict__.items()})
    return out


def check_restore() -> None:
    before = _bindings()
    occurs = thetalift.nonvanishing.occurs
    cmd_lift = thetalift.cli.cmd_lift
    tracer = Tracer()
    tracer.install()
    try:
        assert thetalift.nonvanishing.occurs is not occurs, "occurs not patched"
        assert thetalift.occurs is not occurs, "package namespace not patched"
        assert thetalift.cli.occurs is not occurs, "the CLI's binding not patched"
        assert thetalift.cli.cmd_lift is not cmd_lift, "cmd_lift not patched"
    finally:
        tracer.uninstall()
    assert _bindings() == before, "a patched name was not restored"
    assert not tracer.leftover_wrappers(), tracer.leftover_wrappers()


def check_traced_counts() -> None:
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", "5", "--rep", "0"]
        plain = run_unit(args, perf_counter())
        traced = run_unit([*args, "--traced"], perf_counter())
        for name, s in plain["suites"].items():
            t = traced["suites"][name]
            assert (s["cases"], s["tags"], s["failures"]) == (t["cases"], t["tags"], t["failures"]), (
                f"{workload}/{name}: traced {t['cases']} {t['tags']}, untraced {s['cases']} {s['tags']}"
            )
        assert not traced["leftover_wrappers"], traced["leftover_wrappers"]


def main() -> int:
    if sys.flags.optimize:
        print("error: the checks are assert statements; do not run under -O", file=sys.stderr)
        return 2
    for check in (check_stream, check_restore, check_traced_counts):
        check()
        print(f"{check.__name__}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
