"""Every registered suite at the benchmark windows: exact counts, bounded memory.

The acceptance gate checks the frozen totals at full bounds in minutes;
these tests check the same enumeration at small windows in seconds, so a
restructured loop that drops or repeats a case fails in the fast tier.
"""

import gc
import json
from collections import Counter
import subprocess
import sys
import tracemalloc

import pytest

from thetalift import (
    SUITES,
    AParameter,
    EnumerationBounds,
    HCParam,
    InternalError,
    KType,
    SignCharacter,
    Signature,
    TowerPosition,
    cli,
    half,
    lifting,
    packets,
    suites,
)
from thetalift.suites import iter_params, run_suite, run_suites, tally

from test_packets import _same_value

ENUMERATION = EnumerationBounds(max_n=3, max_m_minus_n=4, height=half(7))
PACKETS = EnumerationBounds(max_n=5, max_m_minus_n=1, height=half(9))

# Case and tag counts at the windows above (perfbench/reference.json
# records the same numbers as reference_counts).
COUNTS = {
    "two_path": (12088, {"nonzero": 5332, "vanishing": 6756}),
    "round_trip": (2310, {"chamber_ambiguous": 58, "match": 116, "vanishing": 2136}),
    "duality": (954, {"checked": 954}),
    "persistence": (12088, {"nonzero": 5332, "vanishing": 6756}),
    "li": (12088, {"not_sufficient": 10352, "sufficient": 1736}),
    "eta_prime": (2382, {"checked": 2382}),
    "packets": (474, {"checked": 474}),
    "globalization": (12088, {"nonzero": 5332, "vanishing": 6756}),
}


# The suites that run as checks of one walk: the growth checks on the up
# targets, round_trip on the down targets, duality once per parameter.
WALKED = ("two_path", "globalization", "persistence", "li", "round_trip", "duality")


def _window(name):
    return PACKETS if name == "packets" else ENUMERATION


def test_suites_retain_no_memory():
    # Placed before the counts test, so that a memo added anywhere is
    # still empty here and shows as retained memory.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name in SUITES:
            run_suite(name, _window(name))
        run_suites(WALKED, ENUMERATION)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, f"{retained} bytes retained after the suites"


def test_suite_counts_at_the_benchmark_windows():
    assert set(COUNTS) == set(SUITES)
    for name in SUITES:
        summary = run_suite(name, _window(name))
        cases, tags = COUNTS[name]
        assert (summary.failures, summary.cases, summary.tags) == (0, cases, tags), name
    # The walked checks in one walk count what each counts alone.
    fused = run_suites(WALKED, ENUMERATION)
    assert [summary.name for summary in fused] == list(WALKED)
    for summary in fused:
        cases, tags = COUNTS[summary.name]
        assert (summary.failures, summary.cases, summary.tags) == (0, cases, tags), summary.name


def test_fused_walk_keeps_each_suites_records_and_failures(monkeypatch):
    # Each suite's records in the fused stream are its solo records, in
    # order; a failing check is counted under its own name only.
    small = EnumerationBounds(max_n=2, max_m_minus_n=3, height=half(5))
    stream = []
    fused = run_suites(WALKED, small, emit=True, sink=stream.append)
    for name in WALKED:
        solo = []
        run_suite(name, small, emit=True, sink=solo.append)
        assert solo and [r for r in stream if r["suite"] == name] == solo, name
    # A window count of 1 breaks li's claim on every sufficient target.
    monkeypatch.setattr(suites, "c_count", lambda inv, sign, t: 1)
    broken = run_suites(WALKED, small)
    for before, after in zip(fused, broken):
        if before.name == "li":
            assert after.failures == before.tags["sufficient"] > 0
            assert (after.cases, after.tags) == (before.cases, before.tags)
        else:
            assert after == before, before.name


def test_route_b_runs_once_per_nonzero_form(monkeypatch):
    # The walk builds one _SigmaUnits per parameter, at its first nonzero
    # up target, and computes path B once per nonzero form, for two_path
    # and globalization together: the shadow reads the walk's path B.
    calls = Counter()
    real_at, real_signs = packets._SigmaUnits.at, packets._unit_block_signs

    def counted_at(units, e0, target):
        calls["at"] += 1
        return real_at(units, e0, target)

    def counted_signs(phi_p, tail):
        calls["unit_block_signs"] += 1
        return real_signs(phi_p, tail)

    monkeypatch.setattr(packets._SigmaUnits, "at", counted_at)
    monkeypatch.setattr(packets, "_unit_block_signs", counted_signs)
    for names in (("two_path", "globalization"), ("globalization",), ("two_path",)):
        calls.clear()
        run_suites(names, ENUMERATION)
        assert calls == {"at": 5332, "unit_block_signs": 954}, names


def _failures_with(monkeypatch, attr, broken):
    """Failures per walked check in one fused walk with suites.<attr> patched.

    Every check must still count the cases and tags it counts unbroken.
    """
    monkeypatch.setattr(suites, attr, broken)
    failures = {}
    for summary in run_suites(WALKED, ENUMERATION):
        cases, tags = COUNTS[summary.name]
        assert (summary.cases, summary.tags) == (cases, tags), summary.name
        failures[summary.name] = summary.failures
    return failures


def test_a_failing_down_target_check_is_counted_under_its_own_name(monkeypatch):
    # round_trip yields only on the down targets, so its failures must
    # not shift onto the up-target checks that share the walk. A wrong
    # infinitesimal character fails each of the 174 nonzero down targets.
    failures = _failures_with(monkeypatch, "_aq_infinitesimal_twices", lambda aq: ())
    assert failures == {**dict.fromkeys(WALKED, 0), "round_trip": 174}


def test_a_failing_per_parameter_check_is_counted_under_its_own_name(monkeypatch):
    # duality yields once per parameter, after the parameter's targets.
    # A conjugate dual that returns the parameter itself breaks the swap
    # of r and s wherever they differ; no other check reads it.
    failures = _failures_with(monkeypatch, "_conjugate_dual_m0", lambda lam, m0: lam)
    assert failures == {**dict.fromkeys(WALKED, 0), "duality": 878}


def test_a_vanishing_reverse_lift_is_a_failed_round_trip_case(monkeypatch, capsys):
    # Under a wrong occurrence rule the reverse of a nonzero lift down can
    # vanish, and lift_up refuses it as bad input. round_trip counts it as
    # a failed case with the reason in its record, and verify exits 1.
    vanishing = TowerPosition(0, 0, False, "the patched rule")
    monkeypatch.setattr(lifting, "occurs", lambda lam, m0, target: (False, vanishing))
    records = []
    summary = run_suite("round_trip", ENUMERATION, sink=records.append)
    cases, tags = COUNTS["round_trip"]
    nonzero = cases - tags["vanishing"]
    assert (summary.cases, summary.failures) == (cases, nonzero)
    assert summary.tags == {"vanishing": tags["vanishing"], "reverse_vanishes": nonzero}
    assert len(records) == nonzero
    assert all(r["reverse_lift"].endswith(" vanishes: the patched rule") for r in records)
    capsys.readouterr()
    argv = ["verify", "--suite", "round_trip", "--max-n", "2", "--max-dm", "1", "--height", "5/2"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == ""


def test_quiet_verify_prints_the_failing_records_then_the_summary(monkeypatch, capsys):
    # --quiet skips the records of passing cases only: a failing case's
    # record is its diagnosis. A wrong infinitesimal character on the
    # forms of equal p and q fails 8 of the window's 20 nonzero lifts down.
    real = suites._aq_infinitesimal_twices
    monkeypatch.setattr(
        suites, "_aq_infinitesimal_twices",
        lambda aq: () if aq.target.p == aq.target.q else real(aq),
    )
    argv = ["verify", "--suite", "round_trip", "--max-n", "2", "--max-dm", "1", "--height", "5/2"]
    window = EnumerationBounds(max_n=2, max_m_minus_n=1, height=half(5))
    failing = []
    summary = run_suite("round_trip", window, sink=failing.append)
    assert summary.failures == len(failing) == 8
    assert all(record["inf_char_ok"] is False for record in failing)
    capsys.readouterr()
    assert cli.main([*argv, "--quiet"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in out[:-1]] == json.loads(json.dumps(failing))
    assert json.loads(out[-1]) == {
        "suite": "round_trip",
        "cases": summary.cases,
        "failures": 8,
        "tags": dict(sorted(summary.tags.items())),
    }
    # Without --quiet each of the 20 nonzero lifts down prints its record.
    assert cli.main(argv) == 1
    assert len(capsys.readouterr().out.splitlines()) == 20 + 1


def test_run_suites_takes_each_walked_check_once():
    served = r"\(two_path, globalization, persistence, li, round_trip, duality, enumerate\)"
    for names in (["eta_prime"], ["li", "nope"], ["li", "li"]):
        with pytest.raises(ValueError, match=served):
            run_suites(names, ENUMERATION)


def _package_modules():
    return [
        (name, module)
        for name, module in sorted(sys.modules.items())
        if name == "thetalift" or name.startswith("thetalift.")
    ]


def _container_lengths():
    """len() of every module-level dict, list and set in the package."""
    return {
        f"{module_name}.{attr}": len(value)
        for module_name, module in _package_modules()
        for attr, value in vars(module).items()
        if isinstance(value, (dict, list, set)) and attr != "__builtins__"
    }


# Prints _container_lengths() in a fresh interpreter with the given
# sys.path, after importing the given modules.
_FRESH_LENGTHS = """
import importlib, json, sys
path, modules = json.loads(sys.stdin.read())
sys.path[:] = path
for name in modules:
    importlib.import_module(name)
import test_suites
print(json.dumps(test_suites._container_lengths()))
"""


def test_no_process_wide_caches():
    cached = [
        f"{module_name}.{attr}"
        for module_name, module in _package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, "cache_info")
    ]
    assert cached == []
    # A memo kept in a plain module-level container can be too small for
    # the retained-memory test to see, but its length grows. Earlier tests
    # in this process may have filled it already, so after every suite the
    # lengths must still be those of a fresh interpreter.
    for name in SUITES:
        run_suite(name, _window(name))
    run_suites(WALKED, ENUMERATION)
    tally("ktypes", suites.suite_ktypes(emit=False, max_run=1, height=2))
    modules = [name for name, _ in _package_modules()]
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_LENGTHS],
        input=json.dumps([sys.path, modules]),
        capture_output=True,
        text=True,
        check=True,
    )
    assert _container_lengths() == json.loads(fresh.stdout)


def test_untied_character_accepted_is_an_internal_error(monkeypatch, capsys):
    # A gate that accepts a character breaking the tie at i0 is a bug in the
    # package: the suite raises InternalError and verify exits 3.
    monkeypatch.setattr(suites, "eta_prime_sign_ok", lambda phi_p, eta_p, target: True)
    tied = r"tie constraint not enforced at \(n, m, i0\) = \(1, 2, 1\) for character -\+"
    with pytest.raises(InternalError, match=tied):
        run_suite("eta_prime", EnumerationBounds(max_n=1, max_m_minus_n=1, height=half(3)))
    capsys.readouterr()
    argv = ["verify", "--suite", "eta_prime", "--max-n", "1", "--max-dm", "1", "--height", "3/2"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("internal error: InternalError: tie constraint not enforced")


def test_packets_suite_comparison_fires(monkeypatch):
    # The packets suite compares each member with what eta_from_pi
    # recovers from it: the parameter, the character and the real form.
    # A wrong inverse, or a member builder that puts one kappa in the
    # wrong part, fails every case; neither raises.
    small = EnumerationBounds(max_n=3, max_m_minus_n=1, height=half(5))
    clean = run_suite("packets", small)
    assert clean.cases > 0 and clean.failures == 0
    real_eta_from_pi = suites.eta_from_pi

    def one_sign_flipped(lam):
        phi, eta = real_eta_from_pi(lam)
        return phi, SignCharacter((-eta.values[0],) + eta.values[1:])

    with monkeypatch.context() as patch:
        patch.setattr(suites, "eta_from_pi", one_sign_flipped)
        assert run_suite("packets", small).failures == clean.cases

    class MisplacesOneKappa:
        """HCParam's trusted builder, with the largest entry of one part moved into the other."""

        @staticmethod
        def _from_checked(sig, entries_tw):
            p_part, q_part = list(entries_tw[: sig.p]), list(entries_tw[sig.p :])
            if p_part:
                q_part = sorted(q_part + [p_part.pop(0)], reverse=True)
            else:
                p_part = [q_part.pop(0)]
            moved = Signature(len(p_part), len(q_part))
            return HCParam.from_twices(moved, tuple(p_part + q_part))

    monkeypatch.setattr(packets, "HCParam", MisplacesOneKappa)
    broken = run_suite("packets", small)
    assert (broken.cases, broken.failures) == (clean.cases, clean.cases)


def test_enumerated_parameters_equal_validated_builds():
    # iter_params stores each parameter unvalidated; at full bounds each is
    # what the validating constructor builds.
    full = EnumerationBounds(max_n=5, max_m_minus_n=8, height=half(11))
    count = 0
    for lam, _k0, _m0, _n0 in iter_params(full):
        _same_value(lam, HCParam.from_twices(lam.sig, lam.entries_tw))
        count += 1
    assert count == 56938


def test_eta_prime_parameters_equal_validated_builds(monkeypatch):
    # The sign-gate suite stores each enumerated phi' unvalidated.
    built = []

    class Spy:
        @staticmethod
        def _from_checked(mu_tw, mu0_tw, m):
            built.append(AParameter._from_checked(mu_tw, mu0_tw, m))
            return built[-1]

    monkeypatch.setattr(suites, "AParameter", Spy)
    summary = run_suite("eta_prime", ENUMERATION)
    monkeypatch.undo()
    assert (summary.cases, summary.failures, len(built)) == (2382, 0, 2382)
    for phi_p in built:
        _same_value(phi_p, AParameter(phi_p.mu_tw, phi_p.mu0_tw, phi_p.m))


# Validating constructions per suite at the benchmark windows. What a
# suite derives from a valid value goes through a trusted builder, so
# only round_trip validates: the parameters it checks, 174 nonzero lifts
# down and the 116 that aq_to_discrete_series resolves.
VALIDATED = {"round_trip": {"HCParam": 290}}


def test_suites_validate_only_inputs_and_claimed_results(monkeypatch):
    counts = Counter()

    def counting(cls, name):
        real = cls.__dict__[name]

        def counted(self, *args):
            counts[cls.__name__] += 1
            return real(self, *args)

        monkeypatch.setattr(cls, name, counted)

    counting(HCParam, "__post_init__")
    counting(AParameter, "__init__")
    counting(KType, "__init__")
    for name in SUITES:
        counts.clear()
        assert run_suite(name, _window(name)).failures == 0
        assert counts == VALIDATED.get(name, {}), name
    counts.clear()
    assert tally("ktypes", suites.suite_ktypes(emit=False, max_run=1, height=3)).cases == 4089
    assert counts == {}
