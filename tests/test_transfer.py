"""Character transport to the target side and the deformation check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalift import (
    ChamberAmbiguous,
    GlobalizationReport,
    HCParam,
    HalfInt,
    LiftContext,
    NotCompactLevi,
    NotGoodRange,
    PreconditionViolation,
    Signature,
    aq_to_discrete_series,
    build_a_parameter,
    half,
    lift_down,
    lift_up,
    occurs,
    sigma_from_eta_prime,
    transfer_eta,
    verify_globalization,
    zeta_signs,
)
from thetalift.packets import LParameter


def test_zeta_signs_odd_gap_all_plus():
    zs = zeta_signs(3, 2, 1)
    assert zs.zetas == (1, 1)
    assert zs.zeta0 == 1


def test_zeta_signs_even_gap_flip_from_slot():
    zs = zeta_signs(4, 2, 2)
    assert zs.zetas == (1, -1)
    assert zs.zeta0 == -1
    zs = zeta_signs(6, 4, 3)
    assert zs.zetas == (1, 1, -1, -1)
    assert zs.zeta0 == 1


def test_zeta_signs_slot_bounds():
    with pytest.raises(PreconditionViolation):
        zeta_signs(2, 2, 4)
    with pytest.raises(PreconditionViolation):
        zeta_signs(2, 2, 0)


def test_build_a_parameter_scalar():
    phi = LParameter((HalfInt(2),))
    phi_p = build_a_parameter(phi, LiftContext(1, 1, 1, 3))
    assert phi_p.mus == (HalfInt(2),)
    assert phi_p.mu0 == half(1)
    assert phi_p.m == 3
    assert phi_p.i0 == 2


def test_build_a_parameter_needs_growth():
    phi = LParameter((HalfInt(2),))
    with pytest.raises(PreconditionViolation):
        build_a_parameter(phi, LiftContext(1, 1, 1, 1))


def test_transfer_eta_scalar_case():
    lam = HCParam(Signature(1, 0), (HalfInt(2),))
    phi_p, eta_p = transfer_eta(lam, LiftContext(1, 1, 1, 3), Signature(2, 1))
    assert eta_p.values == (1, 1)
    aq = sigma_from_eta_prime(phi_p, eta_p, Signature(2, 1))
    assert aq == lift_up(lam, LiftContext(1, 1, 1, 3), Signature(2, 1))


def test_transfer_eta_rank_two_case():
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    ctx = LiftContext(0, 0, 2, 4)
    phi_p, eta_p = transfer_eta(lam, ctx, Signature(3, 1))
    # even gap: the zeta flip lands on the second source sign
    assert eta_p.values == (1, 1, -1)
    aq = sigma_from_eta_prime(phi_p, eta_p, Signature(3, 1))
    assert aq == lift_up(lam, ctx, Signature(3, 1))


def test_transfer_eta_tied_slot():
    # source entry exactly at m0/2 merges with the spliced value
    lam = HCParam(Signature(1, 0), (HalfInt(0),))
    ctx = LiftContext(0, 1, 1, 2)
    phi_p, eta_p = transfer_eta(lam, ctx, Signature(1, 1))
    assert phi_p.tie_at_i0 and phi_p.i0 == 1
    assert eta_p.values[0] == eta_p.values[1] == 1
    aq = sigma_from_eta_prime(phi_p, eta_p, Signature(1, 1))
    assert [(b.p_i, b.q_i, b.lam_i.as_int()) for b in aq.blocks] == [
        (1, 0, 0),
        (0, 1, 1),
    ]
    assert aq == lift_up(lam, ctx, Signature(1, 1))


def test_globalization_report_passes():
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    ctx = LiftContext(0, 0, 2, 4)
    report = verify_globalization(lam, ctx, Signature(3, 1), 3)
    assert isinstance(report, GlobalizationReport)
    assert report.deformed.entries == (half(7), half(-7))
    assert report.eta_preserved
    assert report.li_holds
    assert report.lift_matches
    assert report.passed
    assert report.to_json()["passed"] is True


def test_globalization_guards():
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    ctx = LiftContext(0, 0, 2, 4)
    with pytest.raises(PreconditionViolation):
        verify_globalization(lam, ctx, Signature(3, 1), 1)  # t below bound
    with pytest.raises(PreconditionViolation):
        verify_globalization(lam, ctx, Signature(4, 0), 3)  # vanishing lift
    with pytest.raises(PreconditionViolation):
        verify_globalization(lam, LiftContext(0, 0, 2, 2), Signature(1, 1), 3)


@st.composite
def wide_params(draw):
    """(lam, m0, n0) with n = 6..8 and |lam - m0/2| <= 15/2, as the suites enumerate them."""
    n = draw(st.integers(6, 8))
    k0 = draw(st.sampled_from((0, -1)))
    m0 = (n + k0) % 2
    universe = [t for t in range(-15, 16) if t % 2 == (k0 - 1) % 2]
    values = sorted(
        draw(st.lists(st.sampled_from(universe), min_size=n, max_size=n, unique=True)),
        reverse=True,
    )
    on_q = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p_tw = [t + m0 for t, q in zip(values, on_q) if not q]
    q_tw = [t + m0 for t, q in zip(values, on_q) if q]
    lam = HCParam.from_twices(Signature(len(p_tw), len(q_tw)), tuple(p_tw + q_tw))
    return lam, m0, n % 2


@settings(max_examples=150, deadline=None)
@given(wide_params())
def test_both_routes_agree_beyond_the_acceptance_window(params):
    # The acceptance gate enumerates n <= 5; this samples n = 6..8.
    lam, m0, n0 = params
    n = lam.sig.n
    for m in range(m0, n + 5, 2):
        ctx = LiftContext(m0, n0, n, m)
        for r in range(m + 1):
            target = Signature(r, m - r)
            if m == n or not occurs(lam, m0, target)[0]:
                continue
            if m > n:
                aq = lift_up(lam, ctx, target)
                assert aq == sigma_from_eta_prime(*transfer_eta(lam, ctx, target), target)
                assert verify_globalization(lam, ctx, target, (m - n) // 2 + 2).passed
                continue
            back = lift_up(lift_down(lam, ctx, target), ctx.reversed(), lam.sig)
            try:
                resolved = aq_to_discrete_series(back)
            except (ChamberAmbiguous, NotCompactLevi, NotGoodRange):
                continue
            assert resolved == lam
