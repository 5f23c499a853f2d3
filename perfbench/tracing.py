"""Per-layer tracing of thetalift from outside the package.

A Tracer replaces every module attribute bound to a chosen function with
a wrapper that records one aggregated span per call: the call count and
the self time (the span's duration minus the time covered by the spans it
caused). Aggregation keeps memory bounded however long the run: state is
one [calls, self_s] pair per span name, one count per (caller, callee)
edge and one count per (root, callee), where a root is a span the benchmark
opens itself: one suite, or one query. uninstall() puts every original
binding back.

Construction of HCParam and HalfInt objects is counted, not timed, by
patching the class methods that every construction path goes through.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). A name missing from the module is
# skipped, so the tracer keeps working when a later version removes it.
SPANS = (
    ("thetalift.core", "split_abgd", "core.split_abgd"),
    ("thetalift.core", "conjugate_dual", "core.conjugate_dual"),
    ("thetalift.core", "make_regular_deformation", "core.make_regular_deformation"),
    ("thetalift.core", "_split_cached", "core.split_cache"),
    ("thetalift.core", "_conjugate_dual_m0", "core.conjugate_dual_cache"),
    ("thetalift.nonvanishing", "occurs", "nonvanishing.occurs"),
    ("thetalift.nonvanishing", "invariants", "nonvanishing.invariants"),
    ("thetalift.nonvanishing", "li_sufficient", "nonvanishing.li_sufficient"),
    ("thetalift.nonvanishing", "c_count", "nonvanishing.c_count"),
    ("thetalift.lifting", "lift", "lifting.lift"),
    ("thetalift.lifting", "lift_up", "lifting.lift_up"),
    ("thetalift.lifting", "lift_down", "lifting.lift_down"),
    ("thetalift.lifting", "aq_to_discrete_series", "lifting.aq_to_discrete_series"),
    ("thetalift.packets", "sigma_from_eta_prime", "packets.sigma_from_eta_prime"),
    ("thetalift.packets", "eta_prime_sign_ok", "packets.eta_prime_sign_ok"),
    ("thetalift.packets", "_unit_block_signs", "packets.unit_block_signs"),
    ("thetalift.packets", "eta_from_pi", "packets.eta_from_pi"),
    ("thetalift.packets", "pi_from_eta", "packets.pi_from_eta"),
    ("thetalift.transfer", "transfer_eta", "transfer.transfer_eta"),
    ("thetalift.transfer", "verify_globalization", "transfer.verify_globalization"),
    ("thetalift.transfer", "build_a_parameter", "transfer.build_a_parameter"),
    ("thetalift.ktypes", "correspond_ktype", "ktypes.correspond_ktype"),
    ("thetalift.cli", "cmd_lift", "cli.command"),
    ("thetalift.cli", "cmd_occurs", "cli.command"),
    ("thetalift.cli", "cmd_invariants", "cli.command"),
    ("thetalift.cli", "cmd_packet", "cli.command"),
    ("thetalift.cli", "cmd_apacket", "cli.command"),
    ("thetalift.cli", "cmd_ktype_map", "cli.command"),
    ("thetalift.cli", "_parse_lambda", "cli.parse"),
    ("thetalift.cli", "_parse_weights", "cli.parse"),
    ("thetalift.cli", "_dump", "cli.serialize"),
)

# Generator functions: one span per next(), counted as yields.
GENERATOR_SPANS = (("thetalift.suites", "iter_params", "suites.iter_params"),)

# The process-wide lru_caches, read through cache_info() while they exist.
CACHES = (
    ("thetalift.nonvanishing", "invariants", "nonvanishing.invariants"),
    ("thetalift.core", "_split_cached", "core.split_cache"),
    ("thetalift.core", "_conjugate_dual_m0", "core.conjugate_dual_cache"),
    ("thetalift.packets", "eta_from_pi", "packets.eta_from_pi"),
)


def _scanned_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None
        and (name == "thetalift" or name.startswith("thetalift."))
    ]


def _caches() -> dict[str, object]:
    """The cache objects that exist in this version, by label."""
    out = {}
    for module_name, attr, label in CACHES:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if hasattr(fn, "cache_info"):
            out[label] = fn
    return out


class Tracer:
    """Aggregated spans around the package's layer functions."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.edges: Counter = Counter()
        self.by_root: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = [["unit", 0.0]]
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrappers: dict[int, object] = {}
        self._caches = _caches()

    def _close(self, frame: list, parent: list, duration: float) -> None:
        name = frame[0]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0]
        st[0] += 1
        st[1] += duration - frame[1]
        parent[1] += duration
        self.edges[(parent[0], name)] += 1
        if len(self._stack) > 1:
            self.by_root[(self._stack[1][0], name)] += 1

    @contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself: one suite or one query."""
        stack = self._stack
        parent = stack[-1]
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - t0
            stack.pop()
            self._close(frame, parent, duration)

    def _wrap(self, name: str, fn):
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                close(frame, parent, duration)

        return traced

    def _wrap_generator(self, name: str, fn):
        stack = self._stack
        close = self._close
        counts = self.counts
        yields = name + ".yields"
        counts[yields] = 0

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    duration = perf_counter() - t0
                    stack.pop()
                    close(frame, parent, duration)
                counts[yields] += 1
                yield item

        return traced

    def _rebind(self, original, wrapper) -> None:
        self._wrappers[id(wrapper)] = wrapper
        for mod in _scanned_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original, wrapper))

    def _count_constructions(self) -> None:
        from thetalift.core import HCParam, HalfInt

        counts = self.counts
        counts["core.HCParam.constructed"] = counts["core.HalfInt.constructed"] = 0
        post_init = HCParam.__dict__["__post_init__"]

        def counted_post_init(obj):
            counts["core.HCParam.constructed"] += 1
            post_init(obj)

        init = HalfInt.__dict__["__init__"]

        def counted_init(obj, value=0):
            counts["core.HalfInt.constructed"] += 1
            init(obj, value)

        halves = HalfInt.__dict__["halves"]
        halves_fn = halves.__func__

        def counted_halves(cls, twice):
            counts["core.HalfInt.constructed"] += 1
            return halves_fn(cls, twice)

        for owner, attr, original, replacement in (
            (HCParam, "__post_init__", post_init, counted_post_init),
            (HalfInt, "__init__", init, counted_init),
            (HalfInt, "halves", halves, classmethod(counted_halves)),
        ):
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original, replacement))
            self._wrappers[id(replacement)] = replacement

    def install(self) -> None:
        """Patch every binding of every traced function that exists."""
        for spans, wrap in ((SPANS, self._wrap), (GENERATOR_SPANS, self._wrap_generator)):
            for module_name, attr, name in spans:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is not None:
                    self.stats[name] = [0, 0.0]
                    self._rebind(original, wrap(name, original))
        self._count_constructions()

    def uninstall(self) -> None:
        """Restore every binding install() replaced, in reverse order."""
        while self._patches:
            owner, attr, original, _wrapper = self._patches.pop()
            setattr(owner, attr, original)

    def _cache_infos(self) -> dict[str, tuple[int, int, int]]:
        out = {}
        for label, fn in self._caches.items():
            ci = fn.cache_info()
            out[label] = (ci.hits, ci.misses, ci.currsize)
        return out

    def cache_counters(self) -> dict[str, dict[str, float]]:
        """hit_ratio and entries of each cache that exists."""
        out = {}
        for label, (hits, misses, entries) in self._cache_infos().items():
            out[label] = {
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "entries": entries,
            }
        return out

    def leftover_wrappers(self) -> list[str]:
        """Bindings that still hold one of this tracer's wrappers."""
        from thetalift.core import HCParam, HalfInt

        owners = [(mod.__name__, vars(mod)) for mod in _scanned_modules()]
        owners += [("HCParam", HCParam.__dict__), ("HalfInt", HalfInt.__dict__)]
        return [
            f"{owner}.{attr}"
            for owner, namespace in owners
            for attr, value in namespace.items()
            if id(value) in self._wrappers
        ]

    def report(self) -> dict:
        """JSON-ready totals: per-span calls and self time, edges, counts."""
        return {
            "spans": {
                name: {"calls": calls, "self_s": self_s}
                for name, (calls, self_s) in sorted(self.stats.items())
            },
            "edges": sorted(
                [caller, callee, calls] for (caller, callee), calls in self.edges.items()
            ),
            "by_root": sorted(
                [root, callee, calls] for (root, callee), calls in self.by_root.items()
            ),
            "counts": dict(sorted(self.counts.items())),
        }
