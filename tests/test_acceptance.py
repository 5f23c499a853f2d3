"""Acceptance gate: the eight shipping criteria, each as one test.

Every criterion runs at its stated bounds, so this module is the slow
one (a few minutes on one core). Criteria 1, 3, 5 and 7 read their
suites from one walk over the down and up targets of every parameter:
round_trip checks each down target, the growth checks each up target,
and duality each parameter. Case totals are frozen:
enumeration is deterministic, and a silent change in the universe is as
much a regression as a wrong answer. One more test, not a criterion,
compares the tower's one-pass invariants with invariants() on every
orientation of the criterion-1 window.
"""

import pytest

from thetalift.core import HCParam, LiftContext, Signature, _conjugate_dual_m0, half
from thetalift.lifting import lift
from thetalift.nonvanishing import _Tower, invariants
from thetalift.packets import sigma_from_eta_prime
from thetalift.suites import (
    EnumerationBounds,
    iter_params,
    run_suite,
    run_suites,
    suite_ktypes,
    tally,
)
from thetalift.transfer import transfer_eta

# Criterion-1 bounds, shared by every exhaustive criterion below:
# n <= 5, |lambda_0 entries| <= 11/2, minimal exponents, m <= n + 8.
FULL = EnumerationBounds(max_n=5, max_m_minus_n=8, height=half(11))

# Packet bijections get their own wider rank bound.
PACKET_BOUNDS = EnumerationBounds(max_n=6, max_m_minus_n=1, height=half(11))


@pytest.fixture(scope="module")
def walked():
    """The growth checks, round_trip and duality in one walk at FULL, by name."""
    names = ("two_path", "globalization", "persistence", "li", "round_trip", "duality")
    return dict(zip(names, run_suites(names, FULL)))


def blocks(result):
    assert result.aq is not None
    return [(p, q, half(lam_tw)) for p, q, lam_tw in result.aq.triples]


def test_criterion_1_two_path_equivalence(criterion, walked):
    summary = walked["two_path"]
    detail = (
        f"{summary.cases} cases, {summary.tags.get('nonzero', 0)} nonzero, "
        f"{summary.failures} mismatches"
    )
    passed = (
        summary.failures == 0
        and summary.cases == 2_334_784
        and summary.tags.get("nonzero") == 976_868
    )
    criterion(1, "two-path equivalence", passed, detail)


def test_criterion_2_worked_cases(criterion):
    checks = []

    # Scalar parameter on a rank-one group, two steps up the tower.
    lam_a = HCParam(Signature(1, 0), (half(4),))
    ctx_a = LiftContext(1, 1, 1, 3)
    res_a = lift(lam_a, ctx_a, Signature(2, 1))
    checks.append(blocks(res_a) == [(1, 0, half(2)), (1, 1, half(2))])

    # Rank two, three steps up.
    lam_b = HCParam(Signature(1, 1), (half(1), half(-1)))
    ctx_b = LiftContext(0, 0, 2, 4)
    res_b = lift(lam_b, ctx_b, Signature(3, 1))
    checks.append(
        blocks(res_b)
        == [(1, 0, half(-2)), (1, 1, half(0)), (1, 0, half(2))]
    )

    # Rank three down to rank one: a discrete series, not a block list.
    lam_c = HCParam(Signature(2, 1), (half(2), half(0), half(4)))
    ctx_c = LiftContext(1, 1, 3, 1)
    res_c = lift(lam_c, ctx_c, Signature(0, 1))
    checks.append(res_c.kind == "discrete_series")
    checks.append(res_c.param == HCParam(Signature(0, 1), (half(4),)))

    # The growth cases again through the packet-transfer route.
    for lam, ctx, target, res in (
        (lam_a, ctx_a, Signature(2, 1), res_a),
        (lam_b, ctx_b, Signature(3, 1), res_b),
    ):
        phi_p, eta_p = transfer_eta(lam, ctx, target)
        sigma = sigma_from_eta_prime(phi_p, eta_p, target)
        checks.append(sigma == res.aq)

    criterion(
        2, "worked cases", all(checks),
        f"{len(checks)} pinned assertions, both derivation routes",
    )


def test_criterion_3_round_trip(criterion, walked):
    summary = walked["round_trip"]
    ambiguous = summary.tags.get("chamber_ambiguous", 0)
    detail = (
        f"{summary.cases} cases, {summary.tags.get('match', 0)} exact matches, "
        f"{ambiguous} chamber-ambiguous (reported, not failed), "
        f"{summary.failures} failures"
    )
    passed = (
        summary.failures == 0
        and summary.cases == 358_006
        and summary.tags.get("match") == 4_998
        and ambiguous == 6_660
    )
    criterion(3, "round trip", passed, detail)


def test_criterion_4_sign_gate_reproof(criterion):
    summary = run_suite("eta_prime", FULL)
    detail = f"{summary.cases} parameters, {summary.failures} mismatches"
    passed = summary.failures == 0 and summary.cases == 121_400
    criterion(4, "sign gate, closed form vs product form", passed, detail)


def test_criterion_5_nonvanishing_consistency(criterion, walked):
    li = walked["li"]
    duality = walked["duality"]
    persistence = walked["persistence"]
    detail = (
        f"sufficiency {li.cases} cases ({li.tags.get('sufficient', 0)} sufficient), "
        f"duality {duality.cases}, persistence {persistence.cases}; "
        f"failures {li.failures}+{duality.failures}+{persistence.failures}"
    )
    passed = (
        li.failures == duality.failures == persistence.failures == 0
        and li.cases == persistence.cases == 2_334_784
        and li.tags.get("sufficient") == 104_304
        and duality.cases == 56_938
    )
    criterion(5, "nonvanishing consistency", passed, detail)


def test_criterion_6_packet_bijections(criterion):
    summary = run_suite("packets", PACKET_BOUNDS)
    detail = f"{summary.cases} parameters, all characters, {summary.failures} failures"
    passed = summary.failures == 0 and summary.cases == 2_123
    criterion(6, "packet bijections", passed, detail)


def test_criterion_7_globalization_shadow(criterion, walked):
    summary = walked["globalization"]
    cases, failures, tags = summary.cases, summary.failures, summary.tags
    detail = (
        f"{cases} cases, {tags.get('nonzero', 0)} nonzero lifts deformed, "
        f"{failures} failures"
    )
    passed = failures == 0 and cases == 2_334_784 and tags.get("nonzero") == 976_868
    criterion(7, "globalization shadow", passed, detail)


def test_criterion_8_ktype_correspondence(criterion):
    summary = tally("ktypes", suite_ktypes(emit=False))
    cases, failures, tags = summary.cases, summary.failures, summary.tags
    detail = f"{cases} grid cases, {failures} failures"
    passed = failures == 0 and cases == 159_993 and tags.get("missing", 0) == 0
    criterion(8, "K-type correspondence", passed, detail)


def test_tower_invariants_match_invariants_on_every_orientation():
    # Every (lam, m0) of the criterion-1 window in both orientations: the
    # tower's plain values against invariants() of lam and of the
    # explicit conjugate dual, whose strict splits cross-check r and s.
    orientations = mismatches = 0
    for lam, k0, m0, _n0 in iter_params(FULL):
        tower = _Tower(lam, m0, k0)
        dual = _conjugate_dual_m0(lam, m0)
        for plain, inv in (
            (tower.inv, invariants(lam, m0, k0)),
            (tower.dual_inv, invariants(dual, m0, k0)),
        ):
            orientations += 1
            mismatches += (plain.k_lambda, plain.r_lambda, plain.s_lambda, plain.X_inf_tw) != (
                inv.k_lambda, inv.r_lambda, inv.s_lambda, inv.X_inf_tw
            )
    assert (orientations, mismatches) == (113_876, 0)
