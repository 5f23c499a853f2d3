"""Acceptance gate: the eight shipping criteria, each as one test.

Every criterion runs at its stated bounds, so this module is the slow
one (a few minutes on one core). Case totals are frozen: enumeration
is deterministic, and a silent change in the universe is as much a
regression as a wrong answer.
"""

from thetalift.core import HCParam, LiftContext, Signature, half
from thetalift.lifting import lift
from thetalift.packets import sigma_from_eta_prime
from thetalift.suites import (
    EnumerationBounds,
    run_suite,
    suite_ktypes,
    tally,
)
from thetalift.transfer import transfer_eta

# Criterion-1 bounds, shared by every exhaustive criterion below:
# n <= 5, |lambda_0 entries| <= 11/2, minimal exponents, m <= n + 8.
FULL = EnumerationBounds(max_n=5, max_m_minus_n=8, height=half(11))

# Packet bijections get their own wider rank bound.
PACKET_BOUNDS = EnumerationBounds(max_n=6, max_m_minus_n=1, height=half(11))


def blocks(result):
    assert result.aq is not None
    return [(b.p_i, b.q_i, b.lam_i) for b in result.aq.blocks]


def test_criterion_1_two_path_equivalence(criterion):
    summary = run_suite("two_path", FULL)
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


def test_criterion_3_round_trip(criterion):
    summary = run_suite("round_trip", FULL)
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


def test_criterion_5_nonvanishing_consistency(criterion):
    li = run_suite("li", FULL)
    duality = run_suite("duality", FULL)
    persistence = run_suite("persistence", FULL)
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


def test_criterion_7_globalization_shadow(criterion):
    summary = run_suite("globalization", FULL)
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
