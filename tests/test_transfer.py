"""Character transport to the target side and the deformation check."""

import pytest
from hypothesis import given, settings

from thetalift import (
    AqLambdaData,
    ChamberAmbiguous,
    EnumerationBounds,
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
    make_regular_deformation,
    occurs,
    sigma_from_eta_prime,
    split_abgd,
    transfer,
    transfer_eta,
    verify_globalization,
    zeta_signs,
)
from thetalift.packets import LParameter, _SigmaUnits
from thetalift.suites import iter_params, run_suites

from strategies import wide_params
from test_suites import ENUMERATION, WALKED


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
    assert phi_p.mu_tw == (4,)
    assert phi_p.mu0_tw == 1
    assert phi_p.m == 3
    assert phi_p.i0 == 2


def test_build_a_parameter_needs_growth():
    phi = LParameter((HalfInt(2),))
    with pytest.raises(PreconditionViolation):
        build_a_parameter(phi, LiftContext(1, 1, 1, 1))


def test_transfer_eta_needs_a_strictly_larger_target():
    # _Transfer stores phi' unvalidated; the refusal of m <= n stays.
    lam = HCParam(Signature(1, 1), (half(1), half(-1)))
    refusal = "^transfer needs a strictly larger target$"
    for ctx, target in (
        (LiftContext(0, 0, 2, 2), Signature(1, 1)),
        (LiftContext(0, 0, 2, 0), Signature(0, 0)),
    ):
        with pytest.raises(PreconditionViolation, match=refusal):
            transfer_eta(lam, ctx, target)


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
    assert aq.triples == ((1, 0, 0), (0, 1, 2))
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
    # A target of another size than the context's, refused as lift_up and
    # transfer_eta refuse it, before occurrence is decided.
    size = "target size 6 != context target_dim 4"
    for call in (lift_up, transfer_eta, lambda *args: verify_globalization(*args, 3)):
        with pytest.raises(PreconditionViolation, match=size):
            call(lam, ctx, Signature(4, 2))


# The shadow's window: every nonzero target above n at n <= 2, m - n <= 5.
SHADOW = EnumerationBounds(max_n=2, max_m_minus_n=5, height=half(7))


def _up_ctxs(lam, m0, n0, max_dm):
    """(ctx, t) for each target size above n of m0's parity, t as the walk picks it."""
    n = lam.sig.n
    for m in range(n + 1, n + max_dm + 1):
        if (m - m0) % 2 == 0:
            yield LiftContext(m0, n0, n, m), (m - n) // 2 + 2


def _nonzero_targets(lam, ctx):
    for r in range(ctx.target_dim + 1):
        target = Signature(r, ctx.target_dim - r)
        if occurs(lam, ctx.m0, target)[0]:
            yield target


def _assert_deformation_keeps_the_transfer(lam, ctx, t):
    """lam+'s _Transfer at ctx has lam's eta, tail, e'_0 factor and slot i0."""
    own = transfer._Transfer(lam, ctx)
    deformed = transfer._Transfer(make_regular_deformation(lam, ctx, t), ctx)
    assert (deformed.eta, deformed.tail, deformed.e0_source, deformed.phi_p.i0) == (
        own.eta, own.tail, own.e0_source, own.phi_p.i0
    ), (str(lam), ctx.target_dim, t)


def test_deformation_keeps_the_transferred_character():
    # The deformation moves the positive entries of lam - m0/2 up by t and
    # the others down by t. So the entries keep their order and their
    # parts, which fixes eta, and the count of entries above m0/2, which
    # fixes i0; the zetas, the tail and the e'_0 factor follow. Checked
    # at every up size of the window, for the walk's t and for t = 1..6.
    pairs = 0
    for lam, _k0, m0, n0 in iter_params(SHADOW):
        for ctx, walk_t in _up_ctxs(lam, m0, n0, SHADOW.max_m_minus_n):
            for t in {walk_t, *range(1, 7)}:
                _assert_deformation_keeps_the_transfer(lam, ctx, t)
            pairs += 1
    assert pairs == 550


@settings(max_examples=100, deadline=None)
@given(wide_params())
def test_deformation_keeps_the_transferred_character_beyond_the_window(params):
    lam, m0, n0 = params
    n = lam.sig.n
    for m in range(n + 1, n + 7):
        if (m - m0) % 2 == 0:
            ctx = LiftContext(m0, n0, n, m)
            for t in ((m - n) // 2 + 2, 1, 7):
                _assert_deformation_keeps_the_transfer(lam, ctx, t)


def _shadow(lam, ctx):
    """The shadow as the walk builds it at its first up size ctx, with lam's path B units."""
    own = transfer._Transfer(lam, ctx)
    shadow = transfer._Globalization(lam, split_abgd(lam, ctx), own)
    return shadow, own, _SigmaUnits(own.phi_p, own.tail)


def test_size_following_shadow_matches_fresh_builds():
    # One shadow and one path B per parameter, moved from size to size as
    # the walk moves them, report what a shadow built for the one size
    # reports.
    nonzero = 0
    for lam, _k0, m0, n0 in iter_params(SHADOW):
        sizes = list(_up_ctxs(lam, m0, n0, SHADOW.max_m_minus_n))
        shadow, own, units = _shadow(lam, sizes[0][0])
        for ctx, t in sizes:
            for target in _nonzero_targets(lam, ctx):
                if shadow.m != ctx.target_dim:
                    shadow.resize(ctx, t)
                path_b = units.at(own.e0_at(target), target)
                flags = shadow.at(target, lift_up(lam, ctx, target) == path_b)
                report = GlobalizationReport(shadow.t, shadow.lam_plus, *flags)
                assert report == verify_globalization(lam, ctx, target, t), (str(lam), target)
                nonzero += 1
    assert nonzero == 1826


def test_a_moved_shadow_tail_fails_every_nonzero_globalization_case(monkeypatch):
    # lam+'s character is lam's, so the shadow reads lam's path B and keeps
    # no path B of its own. A tail that moved in the shadow's per-size
    # transfer only must fail the case, not build a second path B: in a
    # fused walk, every nonzero globalization case fails and nothing else.

    class MovedTail(transfer._Transfer):
        """_Transfer with its tail negated: the product, so the sign gate, is kept."""

        def __init__(self, lam, ctx):
            super().__init__(lam, ctx)
            self.tail = tuple(-v for v in self.tail)

    clean = run_suites(WALKED, ENUMERATION)
    monkeypatch.setattr(transfer, "_Transfer", MovedTail)
    records = []
    moved = run_suites(WALKED, ENUMERATION, sink=records.append)
    assert [(s.cases, s.tags) for s in moved] == [(s.cases, s.tags) for s in clean]
    failures = {s.name: s.failures for s in moved}
    assert failures == {**dict.fromkeys(WALKED, 0), "globalization": 5332}
    assert len(records) == 5332
    assert all(r["report"]["eta_preserved"] and not r["report"]["lift_matches"] for r in records)


def test_shadow_deformation_is_make_regular_deformation():
    # The shadow splits lam once per parameter; the deformation it builds
    # per size is the public one at that size's context.
    for lam, _k0, m0, n0 in iter_params(SHADOW):
        sizes = list(_up_ctxs(lam, m0, n0, SHADOW.max_m_minus_n))
        shadow = _shadow(lam, sizes[0][0])[0]
        for ctx, _t in sizes:
            for t in range(1, 7):
                shadow.resize(ctx, t)
                assert shadow.lam_plus == make_regular_deformation(lam, ctx, t), (str(lam), t)


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


@settings(max_examples=100, deadline=None)
@given(wide_params())
def test_builders_agree_with_the_public_block_constructor(params):
    # Both routes check only what each form adds and skip the public
    # constructor; rebuilding their result through it must give the same
    # object, hash, JSON and good-range flag.
    lam, m0, n0 = params
    n = lam.sig.n
    for m in range(m0, n + 5, 2):
        if m <= n:
            continue
        ctx = LiftContext(m0, n0, n, m)
        for r in range(m + 1):
            target = Signature(r, m - r)
            if not occurs(lam, m0, target)[0]:
                continue
            path_a = lift_up(lam, ctx, target)
            path_b = sigma_from_eta_prime(*transfer_eta(lam, ctx, target), target)
            for aq in (path_a, path_b):
                public = AqLambdaData(aq.target, aq.triples)
                assert public == aq
                assert hash(public) == hash(aq)
                assert public.to_json() == aq.to_json()
                assert public.in_good_range == aq.in_good_range
