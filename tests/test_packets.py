"""Tempered packet bookkeeping and lift-packet members."""

import random
from collections import Counter
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalift import (
    AParameter,
    AqLambdaData,
    EnumerationBounds,
    HCParam,
    HalfInt,
    InternalError,
    InternalLemmaMismatch,
    InternalWeaklyFairViolation,
    LiftContext,
    LParameter,
    MalformedCharacter,
    NotDominant,
    PreconditionViolation,
    RepeatedEntry,
    SignCharacter,
    Signature,
    SignatureMismatch,
    WrongParityClass,
    build_a_parameter,
    epsilon_of_signature,
    eta_from_pi,
    half,
    occurs,
    packet_members,
    pi_from_eta,
    split_abgd,
    transfer,
    transfer_eta,
)
from thetalift import packets
from thetalift.packets import (
    _characters,
    _Members,
    _sigma_units,
    _sigma_units_by_tail,
    eta_prime_sign_ok,
    sigma_from_eta_prime,
)
from thetalift.suites import iter_params

from strategies import wide_params


def test_epsilon_of_signature():
    assert [epsilon_of_signature(p, 3 - p) for p in range(4)] == [1, -1, 1, -1]
    assert epsilon_of_signature(0, 0) == 1
    assert epsilon_of_signature(2, 2) == 1
    # period four in p - q
    assert [epsilon_of_signature(d, 0) for d in range(5)] == [1, 1, -1, -1, 1]


def test_lparameter_validation():
    LParameter((half(1), half(-1)))
    with pytest.raises(RepeatedEntry):
        LParameter((half(1), half(1)))
    with pytest.raises(WrongParityClass):
        LParameter((HalfInt(2), HalfInt(1), half(1)))


def test_sign_character_parse():
    eta = SignCharacter.parse("++-")
    assert eta.values == (1, 1, -1)
    assert eta.as_strings() == ["+", "+", "-"]
    with pytest.raises(MalformedCharacter):
        SignCharacter((1, 0, -1))


def test_pi_from_eta_half_pair():
    phi = LParameter((half(1), half(-1)))
    sig, lam = pi_from_eta(phi, SignCharacter.parse("++"))
    assert sig == Signature(1, 1)
    assert lam == HCParam(Signature(1, 1), (half(1), half(-1)))
    sig, lam = pi_from_eta(phi, SignCharacter.parse("--"))
    assert sig == Signature(1, 1)
    assert lam == HCParam(Signature(1, 1), (half(-1), half(1)))


def test_pi_from_eta_alternating_gives_definite():
    phi = LParameter((HalfInt(2), HalfInt(1), HalfInt(0)))
    sig, lam = pi_from_eta(phi, SignCharacter((1, -1, 1)))
    assert sig == Signature(3, 0)
    assert lam.entries == (HalfInt(2), HalfInt(1), HalfInt(0))


def test_eta_from_pi_examples():
    phi, eta = eta_from_pi(HCParam(Signature(1, 1), (half(1), half(-1))))
    assert phi.kappa_tw == (1, -1)
    assert eta.values == (1, 1)
    phi, eta = eta_from_pi(HCParam(Signature(1, 0), (HalfInt(2),)))
    assert eta.values == (1,)
    # kappa_1 = 2 sits in the q-part, kappa_2 = 1 and kappa_3 = 0 in the p-part
    phi, eta = eta_from_pi(HCParam(Signature(2, 1), (half(2), half(0), half(4))))
    assert phi.kappa_tw == (4, 2, 0)
    assert eta.values == (-1, -1, 1)


def test_eta_from_pi_refuses_the_empty_parameter():
    # U(0, 0)'s parameter is valid, but no packet parameter is empty.
    with pytest.raises(ValueError, match=r"^empty parameter$"):
        eta_from_pi(HCParam(Signature(0, 0), ()))


def test_pi_from_eta_refuses_a_character_of_the_wrong_length():
    # _Members.at trusts its values to match kappa's length; this check
    # is what keeps a short character from making a short member.
    phi = LParameter((HalfInt(2), HalfInt(1), HalfInt(-1)))
    for values in ((1, 1), (1, -1, 1, -1)):
        want = rf"^character has {len(values)} values, parameter wants 3$"
        with pytest.raises(MalformedCharacter, match=want):
            pi_from_eta(phi, SignCharacter(values))


# Each public packet entry with one argument of the wrong type: a plain
# tuple for a value object, or a parameter of the other kind. Each must
# raise a TypeError that names the entry and the argument, never an
# AttributeError from inside. A case is (entry, valid arguments, index
# of the one replaced, its replacement, its name, the type it takes).
_PHI = LParameter.from_twices((1, -1))
_ETA = SignCharacter((1, 1))
_PHI_P = AParameter((4,), 1, 3)
_TARGET = Signature(2, 1)
WRONG_TYPES = {
    "pi_from_eta-tuple-eta": (pi_from_eta, (_PHI, _ETA), 1, (1, 1), "eta", "SignCharacter"),
    "pi_from_eta-tuple-phi": (pi_from_eta, (_PHI, _ETA), 0, (1, -1), "phi", "LParameter"),
    "pi_from_eta-AParameter-phi": (pi_from_eta, (_PHI, _ETA), 0, _PHI_P, "phi", "LParameter"),
}
for _entry in (sigma_from_eta_prime, eta_prime_sign_ok):
    _valid = (_PHI_P, _ETA, _TARGET)
    WRONG_TYPES.update({
        f"{_entry.__name__}-tuple-eta_p": (_entry, _valid, 1, (1, 1), "eta_p", "SignCharacter"),
        f"{_entry.__name__}-tuple-target": (_entry, _valid, 2, (2, 1), "target", "Signature"),
        f"{_entry.__name__}-LParameter-phi_p": (_entry, _valid, 0, _PHI, "phi_p", "AParameter"),
    })


@pytest.mark.parametrize("entry, valid, at, value, name, kind", WRONG_TYPES.values(),
                         ids=WRONG_TYPES)
def test_packet_entries_refuse_a_wrong_type_by_name(entry, valid, at, value, name, kind):
    entry(*valid)
    args = list(valid)
    args[at] = value
    got = type(value).__name__
    message = rf"^{entry.__name__}\(\) takes {name} of type {kind}, not {got}$"
    with pytest.raises(TypeError, match=message):
        entry(*args)


def test_packet_round_trip_small():
    phi = LParameter((HalfInt(2), HalfInt(1), HalfInt(-3)))
    for eta, sig, lam in packet_members(phi):
        phi2, eta2 = eta_from_pi(lam)
        assert phi2.kappa_tw == phi.kappa_tw
        assert eta2.values == eta.values


def test_packet_members_order_and_count():
    phi = LParameter((half(1), half(-1)))
    rows = packet_members(phi)
    assert len(rows) == 4
    assert [r[0].as_strings() for r in rows] == [
        ["+", "+"],
        ["-", "+"],
        ["+", "-"],
        ["-", "-"],
    ]
    # signatures pair off by the determinant identity
    assert [(r[1].p, r[1].q) for r in rows] == [(1, 1), (0, 2), (2, 0), (1, 1)]


def test_every_character_in_bit_order():
    # The b-th character is -1 exactly where bit i of b is set.
    for size in range(7):
        want = [
            tuple(-1 if b >> i & 1 else 1 for i in range(size)) for b in range(1 << size)
        ]
        got = list(SignCharacter.every(size))
        assert all(type(eta) is SignCharacter for eta in got)
        assert [eta.values for eta in got] == want


def test_characters_are_the_values_of_every():
    for size in range(8):
        assert list(_characters(size)) == [eta.values for eta in SignCharacter.every(size)]


def _bit_character(b, n):
    """The b-th character of size n in bit order: -1 exactly where bit i of b is set."""
    return tuple(-1 if b >> i & 1 else 1 for i in range(n))


def _member_by_definition(kappa_tw, values):
    """(signature, entries_tw) of one member, by the module docstring's rule.

    The indices i (from 1) with eta(e_i) = (-1)^(i-1) contribute kappa_i
    to the p-part, the others to the q-part, each part in kappa's order.
    """
    on_p = [v == (-1) ** (i - 1) for i, v in enumerate(values, start=1)]
    p_part = tuple(k for k, p in zip(kappa_tw, on_p) if p)
    q_part = tuple(k for k, p in zip(kappa_tw, on_p) if not p)
    return Signature(len(p_part), len(q_part)), p_part + q_part


def _packet_by_definition(kappa_tw):
    """(values, signature, entries_tw) of each member, characters in bit order."""
    n = len(kappa_tw)
    return [
        (values, *_member_by_definition(kappa_tw, values))
        for values in (_bit_character(b, n) for b in range(1 << n))
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_packet_members_follow_the_definition(n, data):
    universe = [t for t in range(-31, 32) if t % 2 == (n - 1) % 2]
    drawn = data.draw(st.lists(st.sampled_from(universe), min_size=n, max_size=n, unique=True))
    kappa_tw = tuple(sorted(drawn, reverse=True))
    got = [
        (eta.values, sig, lam.sig, lam.entries_tw)
        for eta, sig, lam in packet_members(LParameter.from_twices(kappa_tw))
    ]
    want = [(values, sig, sig, tw) for values, sig, tw in _packet_by_definition(kappa_tw)]
    assert got == want


def test_members_above_the_low_run_cap_join_their_halves(monkeypatch):
    # n = 22 splits into a low run of 10 positions, the cap, and a high
    # run of 12. The walk's first 3 * 2^10 members cross two high
    # half-members, and a sample of characters from the whole packet
    # reaches all 2^12 of them; neither enumerates the 2^22 members.
    kappa_tw = tuple(range(43, -1, -2))
    phi = LParameter.from_twices(kappa_tw)
    members = _Members(phi)
    assert packets._low_run(22) == 10
    starts = Counter()
    real_half = _Members._half

    def counted(self, start, values):
        starts[start] += 1
        return real_half(self, start, values)

    monkeypatch.setattr(_Members, "_half", counted)
    for b, (values, sig, lam) in enumerate(islice(members, 3 << 10)):
        assert values == _bit_character(b, 22)
        assert (sig, lam.entries_tw) == _member_by_definition(kappa_tw, values)
        assert (sig, lam) == members.at(values)
    # The low table once, three high half-members, and one whole-character
    # half per at() call.
    assert starts == {0: (1 << 10) + (3 << 10), 10: 3}
    rng = random.Random(22)
    for b in [rng.randrange(1 << 22) for _ in range(300)] + [(1 << 22) - 1]:
        values = _bit_character(b, 22)
        sig, lam = members.at(values)
        assert (sig, lam.entries_tw) == _member_by_definition(kappa_tw, values)
        assert pi_from_eta(phi, SignCharacter(values)) == (sig, lam)


# _Members.at builds each member, and eta_from_pi its kappa and character,
# without validating them: a valid LParameter or HCParam makes them valid.
# These tests compare them with the validating constructors, member by
# member, over the packets suite's benchmark window (n <= 5, height 9/2)
# and over the globalization shadow's deformations.


def _same_value(got, want):
    """got equals want, with the same class, the same fields and the same hash."""
    fields = type(want).__slots__
    assert type(got) is type(want)
    assert [type(getattr(got, f)) for f in fields] == [type(getattr(want, f)) for f in fields]
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert got == want and hash(got) == hash(want)


def _inverse_by_definition(lam):
    """(kappa, character) of lam, both validated: the i-th largest entry
    (from 1) has value (-1)^(i-1) when it lies in the p-part."""
    order = tuple(sorted(lam.entries_tw, reverse=True))
    p_part = set(lam.entries_tw[: lam.sig.p])
    values = tuple((-1) ** i * (1 if t in p_part else -1) for i, t in enumerate(order))
    return LParameter.from_twices(order), SignCharacter(values)


def test_packet_members_and_inverses_equal_validated_builds():
    members = 0
    for n in range(1, 6):
        universe = [t for t in range(9, -10, -1) if t % 2 == (n - 1) % 2]
        for kappa_tw in combinations(universe, n):
            phi = LParameter.from_twices(kappa_tw)
            build = _Members(phi)
            for values in _characters(n):
                sig, lam = build.at(values)
                _same_value(lam, HCParam.from_twices(sig, lam.entries_tw))
                phi_back, eta_back = eta_from_pi(lam)
                _same_value(phi_back, phi)
                _same_value(eta_back, SignCharacter(values))
                members += 1
    assert members == 8262


def _assert_inverse_is_validated(lam):
    phi, eta = eta_from_pi(lam)
    want_phi, want_eta = _inverse_by_definition(lam)
    _same_value(phi, want_phi)
    _same_value(eta, want_eta)
    assert pi_from_eta(phi, eta) == (lam.sig, lam)


def _assert_transfer_is_validated(lam, ctx):
    """_Transfer's trusted phi' for lam is build_a_parameter's validated one."""
    own = transfer._Transfer(lam, ctx)
    _same_value(own.phi_p, build_a_parameter(eta_from_pi(lam)[0], ctx))
    return own


def test_inverse_of_the_shadows_deformations_equals_validated_builds():
    # The enumeration window of the benchmark (n <= 3, m - n <= 4, height
    # 7/2), each size's deformation lam+ at the walk's step t. lam+ and
    # the phi' of its _Transfer are stored unvalidated; each must be
    # what the validating constructor builds.
    deformations = 0
    for lam, _k0, m0, n0 in iter_params(EnumerationBounds(max_n=3, max_m_minus_n=4, height=half(7))):
        _assert_inverse_is_validated(lam)
        n = lam.sig.n
        shadow = None
        for m in range(n + 1, n + 5):
            if (m - m0) % 2 == 0:
                ctx = LiftContext(m0, n0, n, m)
                if shadow is None:
                    own = _assert_transfer_is_validated(lam, ctx)
                    shadow = transfer._Globalization(lam, split_abgd(lam, ctx), own)
                shadow.resize(ctx, (m - n) // 2 + 2)
                lam_plus = shadow.lam_plus
                _same_value(lam_plus, HCParam.from_twices(lam_plus.sig, lam_plus.entries_tw))
                _assert_inverse_is_validated(lam_plus)
                _assert_transfer_is_validated(lam_plus, ctx)
                deformations += 1
    assert deformations == 1908


def test_aparameter_validation():
    phi_p = AParameter((4,), 1, 3)
    assert phi_p.i0 == 2
    assert not phi_p.tie_at_i0
    with pytest.raises(PreconditionViolation):
        AParameter((4,), 1, 1)  # m must exceed n
    with pytest.raises(WrongParityClass):
        AParameter((1,), 1, 3)  # mus must sit in Z + (m-1)/2
    with pytest.raises(WrongParityClass):
        AParameter((4,), 0, 3)  # mu0 must sit in Z + n/2
    with pytest.raises(NotDominant):
        AParameter((2, 4), 0, 3)
    with pytest.raises(RepeatedEntry):
        AParameter((4, 4), 0, 3)


def test_aparameter_tie_needs_one_step():
    # numeric tie with m - n = 1 couples the character
    tied = AParameter((1,), 1, 2)
    assert tied.i0 == 1 and tied.tie_at_i0
    # the same numeric tie three steps up leaves the group free
    free = AParameter((3,), 3, 4)
    assert free.i0 == 1 and not free.tie_at_i0


def test_sigma_blocks_scalar_case():
    phi_p = AParameter((4,), 1, 3)
    eta_p = SignCharacter((1, 1))  # e0' first, then e1'
    aq = sigma_from_eta_prime(phi_p, eta_p, Signature(2, 1))
    assert aq.triples == ((1, 0, 2), (1, 1, 2))


def test_sigma_blocks_rank_two_case():
    phi_p = AParameter((1, -1), 0, 4)
    assert phi_p.i0 == 2
    eta_p = SignCharacter((1, 1, -1))
    aq = sigma_from_eta_prime(phi_p, eta_p, Signature(3, 1))
    assert aq.triples == ((1, 0, -2), (1, 1, 0), (1, 0, 2))


def test_sigma_zero_when_sign_gate_fails():
    phi_p = AParameter((4,), 1, 3)
    flipped = SignCharacter((-1, 1))
    assert sigma_from_eta_prime(phi_p, flipped, Signature(2, 1)) is None


def test_sigma_zero_when_capacity_fails():
    phi_p = AParameter((4,), 1, 3)
    eta_p = SignCharacter((1, 1))
    assert sigma_from_eta_prime(phi_p, eta_p, Signature(0, 3)) is None


def test_sigma_rejects_tie_breaking_character():
    tied = AParameter((1,), 1, 2)
    with pytest.raises(MalformedCharacter):
        sigma_from_eta_prime(tied, SignCharacter((1, -1)), Signature(1, 1))


def test_eta_prime_sign_ok_closed_form():
    phi_p = AParameter((4,), 1, 3)
    assert eta_prime_sign_ok(phi_p, SignCharacter((1, 1)), Signature(2, 1))
    assert not eta_prime_sign_ok(phi_p, SignCharacter((-1, 1)), Signature(2, 1))
    rank2 = AParameter((1, -1), 0, 4)
    assert eta_prime_sign_ok(rank2, SignCharacter((1, 1, -1)), Signature(3, 1))
    assert not eta_prime_sign_ok(rank2, SignCharacter((-1, 1, -1)), Signature(3, 1))


def test_sigma_injective_on_nonzero():
    phi_p = AParameter((3, -1), 0, 4)
    seen = {}
    for bits in range(8):
        signs = tuple(-1 if (bits >> i) & 1 else 1 for i in range(3))
        aq = sigma_from_eta_prime(phi_p, SignCharacter(signs), Signature(2, 2))
        if aq is None:
            continue
        assert aq.triples not in seen
        seen[aq.triples] = signs


@given(st.integers(1, 5), st.data())
def test_determinant_identity_all_characters(n, data):
    base = [HalfInt.halves(2 * v + ((n - 1) % 2)) for v in range(-4, 5)]
    kappas = tuple(
        sorted(
            data.draw(st.lists(st.sampled_from(base), min_size=n, max_size=n, unique=True)),
            key=lambda v: -v.twice,
        )
    )
    phi = LParameter(kappas)
    bits = data.draw(st.integers(0, 2**n - 1))
    eta = SignCharacter(tuple(-1 if (bits >> i) & 1 else 1 for i in range(n)))
    sig, lam = pi_from_eta(phi, eta)
    prod = 1
    for v in eta.values:
        prod *= v
    assert prod == epsilon_of_signature(sig.p, sig.q)
    assert sig.p + sig.q == n


def _a_parameters():
    """Every AParameter with n <= 3, |mu| <= 3, |mu0| <= 2 and m - n from 1 to 4."""
    for n in range(4):
        for m in range(n + 1, n + 5):
            entries = [v for v in range(-6, 7) if v % 2 == (m - 1) % 2]
            for mu_tw in combinations(reversed(entries), n):
                for mu0_tw in range(-4 + n % 2, 5, 2):
                    yield AParameter(mu_tw, mu0_tw, m)


def _path_b_by_definition(phi_p, values, target):
    """sigma_from_eta_prime's answer by the packets module docstring's rule.

    MalformedCharacter for a character that breaks the tie, None for a
    killed form, else the doubled (p, q, lam_tw) blocks. The unit block
    of mu_{j+1} has the exponent e = j before slot i0 and j + m - n after
    it, is (1, 0) when eta'(e'_{j+1}) = (-1)^e and has the doubled value
    mu - (m - 1) + 2e; the big block at i0 takes what is left of the
    target, at the doubled value mu0 - n + 2(i0 - 1).
    """
    n, m, i0 = phi_p.n, phi_p.m, phi_p.i0
    if phi_p.tie_at_i0 and values[0] != values[i0]:
        return MalformedCharacter
    head, after = [], []
    for j, (mu, v) in enumerate(zip(phi_p.mu_tw, values[1:])):
        e = j if j < i0 - 1 else j + m - n
        block = (1, 0) if v == (-1) ** e else (0, 1)
        (head if j < i0 - 1 else after).append(block + (mu - (m - 1) + 2 * e,))
    r_i0 = target.p - sum(b[0] for b in head + after)
    s_i0 = target.q - sum(b[1] for b in head + after)
    d = target.p - target.q
    sign = 1
    for v in values:
        sign *= v
    if r_i0 < 0 or s_i0 < 0 or sign != (-1) ** (d * (d - 1) // 2):
        return None
    return tuple(head) + ((r_i0, s_i0, phi_p.mu0_tw - n + 2 * (i0 - 1)),) + tuple(after)


def test_path_b_follows_its_definition():
    # Every phi' with n <= 4, m - n <= 3, |mu| <= (n+1)/2 and
    # |mu0| <= (n+2)/2, every character and every target form. Each
    # tail's object from _sigma_units is also the one that
    # _sigma_units_by_tail joins from two half-members.
    cases = 0
    for n in range(1, 5):
        for m in range(n + 1, n + 4):
            mus = [t for t in range(n + 1, -n - 2, -1) if t % 2 == (m - 1) % 2]
            mu0s = [t for t in range(n + 2, -n - 3, -1) if t % 2 == n % 2]
            for mu_tw in combinations(mus, n):
                for mu0_tw in mu0s:
                    phi_p = AParameter(mu_tw, mu0_tw, m)
                    for values in product((1, -1), repeat=n + 1):
                        eta_p = SignCharacter(values)
                        for r in range(m + 1):
                            target = Signature(r, m - r)
                            want = _path_b_by_definition(phi_p, values, target)
                            cases += 1
                            if want is MalformedCharacter:
                                with pytest.raises(MalformedCharacter):
                                    sigma_from_eta_prime(phi_p, eta_p, target)
                                continue
                            got = sigma_from_eta_prime(phi_p, eta_p, target)
                            if want is not None:
                                want = AqLambdaData(target, want)
                            assert got == want, (phi_p.to_json(), values, target)
                    joined = [units for _low, _high, units in _sigma_units_by_tail(phi_p)]
                    assert [units.tail for units in joined] == list(_characters(n))
                    for units in joined:
                        single = _sigma_units(phi_p, units.tail)
                        fields = ("tail", "tail_product", "r_units", "s_units", "_blocks")
                        assert [getattr(single, f) for f in fields] == [
                            getattr(units, f) for f in fields
                        ]
    assert cases == 52_416


def test_sigma_units_move_phi_p_to_a_size_of_the_same_parity():
    # The move copies phi''s checked fields and computes m and tie_at_i0
    # again; it must give the parameter the constructor gives.
    ties = 0
    for phi_p in _a_parameters():
        for step in (-6, -4, -2, 2, 4, 6):
            m = phi_p.m + step
            units = _sigma_units(phi_p, (1,) * phi_p.n)
            if m <= phi_p.n:
                with pytest.raises(PreconditionViolation, match=rf"^need m > n, got m={m}, "):
                    units._resize(m)
                continue
            units._resize(m)
            fresh = AParameter(phi_p.mu_tw, phi_p.mu0_tw, m)
            fields = AParameter.__slots__
            assert [getattr(units.phi_p, f) for f in fields] == [getattr(fresh, f) for f in fields]
            assert units.phi_p == fresh and hash(units.phi_p) == hash(fresh)
            ties += fresh.tie_at_i0
        for step in (-3, -1, 1, 3):
            with pytest.raises(InternalError, match="has the wrong parity"):
                _sigma_units(phi_p, (1,) * phi_p.n)._resize(phi_p.m + step)
    assert ties > 0


# _sigma_units checks the unit blocks and the seams among them once, when it
# builds the object, for every size the object serves, and at() checks per
# form the big block, its two seams and the signature sums. These
# mutations show that each check still fires.

MUT_ETA = SignCharacter((1, -1, 1, 1))
MUT_TARGET = Signature(2, 3)


def _mutation_units(**doctored):
    """_sigma_units for mu = (4, 3, 0), mu0 = 1/2, m = 5 (i0 = 3), some fields replaced."""
    phi_p = AParameter((8, 6, 0), 1, 5)
    assert phi_p.i0 == 3
    for name, value in doctored.items():
        object.__setattr__(phi_p, name, value)
    return _sigma_units(phi_p, MUT_ETA.values[1:])


def test_sigma_checks_the_unit_block_seams():
    # mu_1 and mu_2 swapped: the two unit blocks before i0 climb.
    seam = r"blocks \(0, 1, 1\) then \(0, 1, 3\) leave"
    with pytest.raises(InternalWeaklyFairViolation, match=seam):
        _mutation_units(mu_tw=(6, 8, 0))


def test_sigma_checks_the_big_block_seams_per_form():
    units = _mutation_units(mu0_tw=1 + 200)
    seam = r"blocks \(0, 1, 2\) then \(1, 1, 101\) leave"
    with pytest.raises(InternalWeaklyFairViolation, match=seam):
        units.at(MUT_ETA.values[0], MUT_TARGET)


def test_sigma_checks_the_signature_sums_per_form():
    units = _mutation_units()
    assert units.at(MUT_ETA.values[0], MUT_TARGET) is not None
    # One unit block too many counted on the p side leaves the big block
    # one p column short; with i0 odd the sign gate still passes.
    units.r_units += 1
    with pytest.raises(SignatureMismatch):
        units.at(MUT_ETA.values[0], MUT_TARGET)


def test_sigma_product_form_reads_e0_and_the_whole_tail():
    units = _mutation_units()
    assert units.at(MUT_ETA.values[0], MUT_TARGET) is not None
    # A wrong tail product splits the product form from the closed form,
    # and the message names the full character, e'_0 and tail.
    units.tail_product = -units.tail_product
    split = r"closed=True product=False .* \+-\+\+ \(2,3\)"
    with pytest.raises(InternalLemmaMismatch, match=split):
        units.at(MUT_ETA.values[0], MUT_TARGET)


def test_sigma_units_reject_a_size_of_the_other_parity():
    units = _mutation_units()
    with pytest.raises(InternalError, match="size 6 has the wrong parity"):
        units.at(SignCharacter((1, -1, 1, 1)).values[0], Signature(3, 3))


@settings(max_examples=100, deadline=None)
@given(wide_params())
def test_one_sigma_units_serves_every_size_of_its_parity(params):
    # The builder holds one size at a time; going up, down and up again
    # must give what a fresh sigma_from_eta_prime gives for each size. The
    # transferred character's tail is the same at every size of the tower.
    lam, m0, n0 = params
    n = lam.sig.n
    sizes = [m + (m - m0) % 2 for m in (n + 3, n + 1, n + 3)]
    units = None
    for m in sizes:
        ctx = LiftContext(m0, n0, n, m)
        for r in range(m + 1):
            target = Signature(r, m - r)
            if not occurs(lam, m0, target)[0]:
                continue
            phi_p, eta_p = transfer_eta(lam, ctx, target)
            if units is None:
                units, tail = _sigma_units(phi_p, eta_p.values[1:]), eta_p.values[1:]
            assert eta_p.values[1:] == tail
            aq = units.at(eta_p.values[0], target)
            want = sigma_from_eta_prime(phi_p, eta_p, target)
            assert aq == want
            assert hash(aq) == hash(want)
            assert aq.to_json() == want.to_json()
