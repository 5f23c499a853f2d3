"""Check the benchmark's suite runner against the frozen acceptance totals.

    python3 perfbench/full_totals.py

Runs every acceptance suite once at the acceptance bounds, each in a fresh
child process through the same unit.py the benchmark uses, and compares
its case and tag counts with the frozen totals in reference.json. It takes
about eight minutes on one core; the benchmark itself never runs it.
Exits 0 when every total matches.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import HERE, run_child

FULL_RUN_TIMEOUT_S = 1800


def main() -> int:
    frozen = json.loads((HERE / "reference.json").read_text())["frozen_totals"]
    ok = True
    for name, want in frozen.items():
        t0 = perf_counter()
        out = run_child([str(HERE / "unit.py"), "--suite", name, "--full"], FULL_RUN_TIMEOUT_S)
        got = json.loads(out.splitlines()[-1])["suites"][name]
        match = (
            got["failures"] == 0
            and got["cases"] == want["cases"]
            and all(got["tags"].get(tag) == count for tag, count in want["tags"].items())
        )
        ok &= match
        print(json.dumps({"suite": name, "match": match, "cases": got["cases"],
                          "tags": got["tags"], "failures": got["failures"],
                          "wall_s": round(perf_counter() - t0, 1)}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
