"""The names perfbench/tracing.py binds must exist in the package.

The tracer skips a (module, name) pair that the package lacks without a
word, so a rename or a deletion would leave its span reading zero. This
test loads the tracer's tables from the file, without installing
anything, and fails on any name it would skip.
"""

import importlib
from pathlib import Path

from thetalift.core import HCParam, HalfInt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The one name the tracer binds that the package no longer has: the
# lax split's cache was deleted, and its span stays stale until the
# tracer is next changed.
KNOWN_STALE = {("thetalift.core", "_split_cached")}


def _tracing_tables() -> dict:
    """The tracer module's globals, executed from its source; no bytecode is written."""
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_name_exists():
    # Among them eta_from_pi, build_a_parameter, _unit_block_signs and
    # verify_globalization, the layers of path B and the shadow.
    tables = _tracing_tables()
    spans = tables["SPANS"] + tables["GENERATOR_SPANS"]
    missing = {
        (module, attr)
        for module, attr, _span in spans
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing == KNOWN_STALE
    # The names that the construction counter reads through __dict__.
    assert {"__post_init__"} <= HCParam.__dict__.keys()
    assert {"__init__", "halves"} <= HalfInt.__dict__.keys()

