"""Sign transfer between source packets and target packets.

The second derivation of a lift goes through characters: starting from
the sign character eta of the source parameter, multiply by explicit
zeta signs (depending only on the two sizes and the insertion slot i0),
and fix the new value on e'_0 from the signs of the two forms. Feeding
the result to sigma_from_eta_prime must reproduce lift_up block for
block; that equality is the package's built-in oracle.

verify_globalization shadows the deformation argument that underlies the
transfer: push the parameter to a regular distance t, where J.-S. Li's
good-range lift applies (Invent. Math. 97, 1989), confirm the sign
character does not move, confirm sufficiency kicks in there, and confirm
the transferred character still cuts out the undeformed lift. The
character cannot move: the deformation adds t to the positive entries of
lam - m0/2 and subtracts t from the others, so the entries keep their
order and their parts, which fixes eta, and the count above m0/2, which
fixes i0; the zetas, the tail and the e'_0 factor follow. So lam+'s
transferred character is lam's, and path B for lam+ is lam's own path B.
The shadow compares lam+'s tail and e'_0 factor with lam's and reads
lam's path B; a character that moved fails the case. Like the public
lift functions, verify_globalization decides occurrence and computes
both routes itself. The suites' walk, which has done all three for the
case, uses _Globalization directly: it hands the shadow lam's lax split,
which li reads too, path B's _Transfer and, per form, whether its path A
and path B lifts agree, the comparison two_path makes.

transfer_eta and verify_globalization are built from parts that depend
on less than the case. _Transfer depends on the parameter and, through
the zetas, on the parity of m - n only, so one serves every size of a
tower. _Globalization is built once per parameter from lam's lax split,
whose positions fix the deformation, and lam's _Transfer. resize()
moves it to one target size and builds what the size fixes: the
deformation, whose step t grows with m, its transfer and character
check, and its lax split. Per form it takes from its caller whether
path A's and path B's lifts agree, and adds the sufficiency test.
Nothing is memoized.

Validation guards input only: build_a_parameter validates phi' through
the AParameter constructor. _Transfer derives phi' from a valid
parameter and context, and the deformation lam+ comes from a valid lam,
so both are stored through the trusted builders (_from_checked), and
transfer_eta still refuses a target that is not strictly larger.
"""

from __future__ import annotations

from .core import ABGDSplit, HCParam, LiftContext, Signature, _check_step, _deformation, _Frozen
from .core import _split
from .errors import PreconditionViolation
from .lifting import _LiftUp, _refuse_vanishing
from .nonvanishing import _li_fits
from .packets import (
    AParameter,
    LParameter,
    MINUS,
    PLUS,
    SignCharacter,
    _sigma_units,
    epsilon_of_signature,
    eta_from_pi,
)


class ZetaSigns(_Frozen):
    """Correction signs for transporting a character across the pair."""

    __slots__ = ("zetas", "zeta0")

    def __init__(self, zetas: tuple[int, ...], zeta0: int) -> None:
        _set_zetas(self, tuple(zetas))
        _set_zeta0(self, zeta0)


_set_zetas, _set_zeta0 = ZetaSigns._setters


def zeta_signs(m: int, n: int, i0: int) -> ZetaSigns:
    """The zeta corrections for sizes n -> m with insertion slot i0.

    All +1 when the sizes differ mod 2; otherwise -1 from slot i0 on.
    zeta0 is the product of all n of them.
    """
    if not 1 <= i0 <= n + 1:
        raise PreconditionViolation(f"i0 must be in 1..{n + 1}, got {i0}")
    if (m - n) % 2:
        zetas = (PLUS,) * n
    else:
        zetas = tuple(PLUS if i < i0 else MINUS for i in range(1, n + 1))
    z0 = 1
    for z in zetas:
        z0 *= z
    return ZetaSigns(zetas, z0)


def build_a_parameter(phi: LParameter, ctx: LiftContext) -> AParameter:
    """Shift a source parameter into the target packet picture.

    Each kappa drops by (m0 - n0)/2 and the extra value n0/2 is spliced
    in; the slot i0 lands where the kappas cross m0/2.
    """
    ctx._check_sizes(phi.n)
    return AParameter(*_a_values(phi, ctx))


def _a_values(phi: LParameter, ctx: LiftContext) -> tuple[tuple[int, ...], int, int]:
    """build_a_parameter()'s (mu_tw, mu0_tw, m), once the target is strictly larger."""
    if ctx.target_dim <= ctx.source_dim:
        raise PreconditionViolation("transfer needs a strictly larger target")
    shift = ctx.m0 - ctx.n0
    return tuple([k - shift for k in phi.kappa_tw]), ctx.n0, ctx.target_dim


def transfer_eta(
    lam: HCParam, ctx: LiftContext, target: Signature
) -> tuple[AParameter, SignCharacter]:
    """Second route to the lift: parameter and character on the target side.

    Combines the source character with the zeta corrections and sets the
    e'_0 value from the signs of the two forms in the pair.
    """
    ctx._check_sizes(lam.sig.n, target)
    tr = _Transfer(lam, ctx)
    return tr.phi_p, SignCharacter((tr.e0_at(target),) + tr.tail)


class _Transfer:
    """transfer_eta() for one parameter and one target size, split at the form.

    The source character eta, the lift parameter phi' and the character's
    values on e'_1, ..., e'_n (the tail) depend only on lam and the
    context; e0_at() gives the value on e'_0, an int, for one target
    form. The zetas depend on the target size only through the parity
    of m - n, so the tail and e0_at() serve every size of the context's
    tower; phi' is the one at the context's size.

    phi' is build_a_parameter()'s, stored through AParameter._from_checked:
    every caller passes a valid lam of the context's source size, and
    the context's parities are checked, so the only rule left is that
    the target is strictly larger, which raises build_a_parameter()'s
    PreconditionViolation.
    """

    __slots__ = ("eta", "phi_p", "tail", "e0_source")

    def __init__(self, lam: HCParam, ctx: LiftContext) -> None:
        phi, eta = eta_from_pi(lam)
        phi_p = AParameter._from_checked(*_a_values(phi, ctx))
        zs = zeta_signs(ctx.target_dim, ctx.source_dim, phi_p.i0)
        self.eta = eta
        self.phi_p = phi_p
        self.tail = tuple(z * e for z, e in zip(zs.zetas, eta.values))
        self.e0_source = zs.zeta0 * epsilon_of_signature(lam.sig.p, lam.sig.q)

    def e0_at(self, target: Signature) -> int:
        """The transferred character's value on e'_0 for one target form."""
        return self.e0_source * epsilon_of_signature(target.p, target.q)


class GlobalizationReport(_Frozen):
    """Outcome of the deformation shadow of the globalization argument."""

    __slots__ = ("t", "deformed", "eta_preserved", "li_holds", "lift_matches")

    def __init__(
        self, t: int, deformed: HCParam, eta_preserved: bool, li_holds: bool, lift_matches: bool
    ) -> None:
        _set_t(self, t)
        _set_deformed(self, deformed)
        _set_eta_preserved(self, eta_preserved)
        _set_li_holds(self, li_holds)
        _set_lift_matches(self, lift_matches)

    @property
    def passed(self) -> bool:
        return self.eta_preserved and self.li_holds and self.lift_matches

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "deformed": self.deformed.to_json(),
            "eta_preserved": self.eta_preserved,
            "li_holds": self.li_holds,
            "lift_matches": self.lift_matches,
            "passed": self.passed,
        }


_set_t, _set_deformed, _set_eta_preserved, _set_li_holds, _set_lift_matches = (
    GlobalizationReport._setters
)


def verify_globalization(
    lam: HCParam, ctx: LiftContext, target: Signature, t: int
) -> GlobalizationReport:
    """Deformation consistency check for one nonzero lift to a larger form.

    Requires a target of the context's size m > n, a nonzero lift, and
    an integer t >= (m - n + 1)/2 so the deformed parameter is regular
    enough for the sufficiency bound.
    """
    ctx._check_sizes(lam.sig.n, target)
    m, n = ctx.target_dim, ctx.source_dim
    if m <= n:
        raise PreconditionViolation("globalization check needs a strictly larger target")
    # An int step below the bound is named as such; any other step that
    # is no positive int gets the deformation's own refusal.
    if type(t) is int and 2 * t < m - n + 1:
        raise PreconditionViolation(f"t={t} is below the regularity bound (m-n+1)/2")
    _check_step(t)
    _refuse_vanishing(lam, ctx.m0, target)
    path_a = _LiftUp(lam, ctx).at(target)
    own = _Transfer(lam, ctx)
    path_b = _sigma_units(own.phi_p, own.tail).at(own.e0_at(target), target)
    shadow = _Globalization(lam, _split(lam, ctx.m0, False, 0), own)
    shadow.resize(ctx, t)
    return GlobalizationReport(t, shadow.lam_plus, *shadow.at(target, path_a == path_b))


class _Globalization:
    """verify_globalization() for one parameter, split at the size and the form.

    It takes lam, the prefix lengths x and z of lam's lax split, which
    fix where the deformation adds and where it subtracts, and lam's
    _Transfer. resize() moves it to one target size and step t: the
    deformation lam+, the check that lam+'s transfer has lam's eta, and
    lam+'s lax split. The deformation keeps the whole transferred
    character (see the module docstring), so lam's path B is lam+'s:
    character_holds records that lam+'s tail and e'_0 factor are lam's,
    and a case where they are not fails. at() takes one form and whether
    the caller's path A and path B lifts to it agree, and returns the
    three flags of the form's GlobalizationReport.
    """

    __slots__ = ("lam", "x", "z", "own", "m", "t", "lam_plus", "eta_preserved",
                 "character_holds", "split_plus")

    def __init__(self, lam: HCParam, split: ABGDSplit, own: _Transfer) -> None:
        self.lam, self.x, self.z, self.own, self.m = lam, split.x, split.z, own, None

    def resize(self, ctx: LiftContext, t: int) -> None:
        """Move to the target size of ctx with deformation step t."""
        lam_plus = _deformation(self.lam, self.x, self.z, t)
        plus, own = _Transfer(lam_plus, ctx), self.own
        self.m, self.t, self.lam_plus = ctx.target_dim, t, lam_plus
        self.eta_preserved = plus.eta == own.eta
        self.character_holds = plus.tail == own.tail and plus.e0_source == own.e0_source
        self.split_plus = _split(lam_plus, ctx.m0, False, 0)

    def at(self, target: Signature, routes_agree: bool) -> tuple[bool, bool, bool]:
        """(eta_preserved, li_holds, lift_matches) for one form of size m.

        routes_agree says whether the caller's path A and path B lifts to
        the form are equal.
        """
        li_holds = _li_fits(self.split_plus, self.lam.sig.n, target)
        return self.eta_preserved, li_holds, self.character_holds and routes_agree
