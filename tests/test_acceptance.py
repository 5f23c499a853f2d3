"""Acceptance gate: the eight shipping criteria, each as one test.

Every criterion runs at its stated bounds, so this module is the slow
one (a few minutes on one core). Criteria 1, 3, 5 and 7 read their
suites from one walk over the down and up targets of every parameter:
round_trip checks each down target, the growth checks each up target,
and duality each parameter. Case totals are frozen:
enumeration is deterministic, and a silent change in the universe is as
much a regression as a wrong answer. The suite criteria (all but 2, the
worked cases) are rows of one table, CRITERIA: number, name, frozen
totals by suite and the detail line's format; each test names its row.
One more test, not a criterion, compares the tower's one-pass
invariants with invariants() on every orientation of the
criterion-1 window.
"""

from dataclasses import dataclass

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

# The suites the shared walk runs, and the bounds of those run on their own.
WALKED = ("two_path", "globalization", "persistence", "li", "round_trip", "duality")
SOLO_BOUNDS = {"eta_prime": FULL, "packets": PACKET_BOUNDS}


@dataclass(frozen=True)
class Criterion:
    """One suite criterion: its frozen totals by suite, and its detail format.

    totals maps each suite the criterion reads to its frozen counts by
    field: cases, failures or a tag. detail is formatted with each
    suite's counts under its name, so "{li.cases}" or "{li.sufficient}".
    """

    number: int
    name: str
    totals: dict[str, dict[str, int]]
    detail: str


CRITERIA = (
    Criterion(
        1, "two-path equivalence",
        {"two_path": {"failures": 0, "cases": 2_334_784, "nonzero": 976_868}},
        "{two_path.cases} cases, {two_path.nonzero} nonzero, {two_path.failures} mismatches",
    ),
    Criterion(
        3, "round trip",
        {"round_trip": {"failures": 0, "cases": 358_006, "match": 4_998,
                        "chamber_ambiguous": 6_660}},
        "{round_trip.cases} cases, {round_trip.match} exact matches, "
        "{round_trip.chamber_ambiguous} chamber-ambiguous (reported, not failed), "
        "{round_trip.failures} failures",
    ),
    Criterion(
        4, "sign gate, closed form vs product form",
        {"eta_prime": {"failures": 0, "cases": 121_400}},
        "{eta_prime.cases} parameters, {eta_prime.failures} mismatches",
    ),
    Criterion(
        5, "nonvanishing consistency",
        {"li": {"failures": 0, "cases": 2_334_784, "sufficient": 104_304},
         "duality": {"failures": 0, "cases": 56_938},
         "persistence": {"failures": 0, "cases": 2_334_784}},
        "sufficiency {li.cases} cases ({li.sufficient} sufficient), "
        "duality {duality.cases}, persistence {persistence.cases}; "
        "failures {li.failures}+{duality.failures}+{persistence.failures}",
    ),
    Criterion(
        6, "packet bijections",
        {"packets": {"failures": 0, "cases": 2_123}},
        "{packets.cases} parameters, all characters, {packets.failures} failures",
    ),
    Criterion(
        7, "globalization shadow",
        {"globalization": {"failures": 0, "cases": 2_334_784, "nonzero": 976_868}},
        "{globalization.cases} cases, {globalization.nonzero} nonzero lifts deformed, "
        "{globalization.failures} failures",
    ),
    Criterion(
        8, "K-type correspondence",
        {"ktypes": {"failures": 0, "cases": 159_993, "missing": 0}},
        "{ktypes.cases} grid cases, {ktypes.failures} failures",
    ),
)


@pytest.fixture(scope="module")
def walked():
    """The growth checks, round_trip and duality in one walk at FULL, by name."""
    return dict(zip(WALKED, run_suites(WALKED, FULL)))


class _Counts(dict):
    """A suite's tags, cases and failures, read as attributes; an absent tag reads 0."""

    def __getattr__(self, name):
        return self.get(name, 0)


def _counts(suite, request):
    """One suite's counts: from the shared walk, on its own, or over the K-type grid."""
    if suite in WALKED:
        summary = request.getfixturevalue("walked")[suite]
    elif suite == "ktypes":
        summary = tally("ktypes", suite_ktypes(emit=False))
    else:
        summary = run_suite(suite, SOLO_BOUNDS[suite])
    return _Counts(summary.tags, cases=summary.cases, failures=summary.failures)


def _gate(number, criterion, request):
    """Run row number of CRITERIA against its frozen totals and record the verdict."""
    row = next(row for row in CRITERIA if row.number == number)
    counts = {suite: _counts(suite, request) for suite in row.totals}
    passed = all(
        getattr(counts[suite], field) == want
        for suite, frozen in row.totals.items()
        for field, want in frozen.items()
    )
    criterion(number, row.name, passed, row.detail.format(**counts))


def test_criterion_1_two_path_equivalence(criterion, request):
    _gate(1, criterion, request)


def blocks(result):
    assert result.aq is not None
    return [(p, q, half(lam_tw)) for p, q, lam_tw in result.aq.triples]


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


def test_criterion_3_round_trip(criterion, request):
    _gate(3, criterion, request)


def test_criterion_4_sign_gate_reproof(criterion, request):
    _gate(4, criterion, request)


def test_criterion_5_nonvanishing_consistency(criterion, request):
    _gate(5, criterion, request)


def test_criterion_6_packet_bijections(criterion, request):
    _gate(6, criterion, request)


def test_criterion_7_globalization_shadow(criterion, request):
    _gate(7, criterion, request)


def test_criterion_8_ktype_correspondence(criterion, request):
    _gate(8, criterion, request)


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
