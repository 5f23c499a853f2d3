"""Sign transfer between source packets and target packets.

The second derivation of a lift goes through characters: starting from
the sign character eta of the source parameter, multiply by explicit
zeta signs (depending only on the two sizes and the insertion slot i0),
and fix the new value on e'_0 from the signs of the two forms. Feeding
the result to sigma_from_eta_prime must reproduce lift_up block for
block; that equality is the package's built-in oracle.

verify_globalization shadows the deformation argument that underlies
the transfer: push the parameter to a regular distance t, confirm the
sign character does not move, confirm sufficiency kicks in there, and
confirm the transferred character still cuts out the same induction
datum for the undeformed values. Like the public lift functions it
decides occurrence and lifts by path A itself; the suites' walk, which
has done both for the case, uses _Globalization directly.

transfer_eta and verify_globalization are built from parts that depend
on less than the case. _Transfer depends on the parameter and, through
the zetas, on the parity of m - n only, so one serves every size of a
tower. _Globalization is built once per parameter and exponent m0: it
holds the positions of the parameter's lax split, the source character
(phi, eta) and path B's unit blocks. resize() moves it to one target
size and builds what the size fixes: the deformation, whose step t grows
with m, its transfer and character check, and its lax split. Path B's
unit blocks follow the size while the deformation's tail stays the one
they were built from and are rebuilt otherwise. Per form it takes path
A's lift from its caller and adds the e'_0 value, the sufficiency test
and the comparison. Nothing is memoized.
"""

from __future__ import annotations

from .core import HCParam, LiftContext, Signature, _deformation, _Frozen, _split
from .errors import PreconditionViolation
from .lifting import AqLambdaData, _LiftUp
from .nonvanishing import _li_fits, occurs
from .packets import (
    AParameter,
    LParameter,
    MINUS,
    PLUS,
    SignCharacter,
    _SigmaUnits,
    epsilon_of_signature,
    eta_from_pi,
)


class ZetaSigns(_Frozen):
    """Correction signs for transporting a character across the pair."""

    __slots__ = ("zetas", "zeta0")

    def __init__(self, zetas: tuple[int, ...], zeta0: int) -> None:
        _set_zetas(self, zetas)
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
    if phi.n != ctx.source_dim:
        raise PreconditionViolation(
            f"parameter size {phi.n} != context source_dim {ctx.source_dim}"
        )
    if ctx.target_dim <= ctx.source_dim:
        raise PreconditionViolation("transfer needs a strictly larger target")
    shift = ctx.m0 - ctx.n0
    mus = tuple(k - shift for k in phi.kappa_tw)
    return AParameter(mus, ctx.n0, ctx.target_dim)


def transfer_eta(
    lam: HCParam, ctx: LiftContext, target: Signature
) -> tuple[AParameter, SignCharacter]:
    """Second route to the lift: parameter and character on the target side.

    Combines the source character with the zeta corrections and sets the
    e'_0 value from the signs of the two forms in the pair.
    """
    if target.n != ctx.target_dim:
        raise PreconditionViolation(
            f"target size {target.n} != context target_dim {ctx.target_dim}"
        )
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
    """

    __slots__ = ("eta", "phi_p", "tail", "e0_source")

    def __init__(self, lam: HCParam, ctx: LiftContext) -> None:
        phi, eta = eta_from_pi(lam)
        phi_p = build_a_parameter(phi, ctx)
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

    Requires m > n, a nonzero lift, and an integer t >= (m - n + 1)/2 so
    the deformed parameter is regular enough for the sufficiency bound.
    """
    m, n = ctx.target_dim, ctx.source_dim
    if m <= n:
        raise PreconditionViolation("globalization check needs a strictly larger target")
    if not isinstance(t, int):
        raise PreconditionViolation(f"deformation step must be a positive integer, got {t}")
    if 2 * t < m - n + 1:
        raise PreconditionViolation(f"t={t} is below the regularity bound (m-n+1)/2")
    nonzero, pos = occurs(lam, ctx.m0, target)
    if not nonzero:
        raise PreconditionViolation(f"lift vanishes: {pos.reason}")
    path_a = _LiftUp(lam, ctx).at(target)
    shadow = _Globalization(lam, ctx.m0)
    shadow.resize(ctx, t)
    return shadow.report(shadow.at(target, path_a))


class _Globalization:
    """verify_globalization() for one parameter and exponent m0, split at the size and the form.

    Per parameter it holds the prefix lengths x and z of lam's lax split,
    which fix where the deformation adds and where it subtracts, the
    source character (phi, eta) and path B. resize() moves it to one
    target size and step t: the deformation lam+, lam+'s own transfer and
    lax split, and path B, rebuilt only if lam+'s tail moved. at() takes
    one form and the caller's path A lift to it and returns the three
    flags; report() turns them into a GlobalizationReport.
    """

    __slots__ = ("lam", "n", "x", "z", "phi", "eta", "path_b",
                 "m", "t", "lam_plus", "transfer_plus", "eta_preserved", "split_plus")

    def __init__(self, lam: HCParam, m0: int) -> None:
        sp = _split(lam, m0, False, 0)
        self.lam, self.n, self.x, self.z = lam, lam.sig.n, sp.x, sp.z
        self.phi, self.eta = eta_from_pi(lam)
        self.path_b: _SigmaUnits | None = None
        self.m: int | None = None

    def resize(self, ctx: LiftContext, t: int) -> None:
        """Move to the target size of ctx with deformation step t."""
        lam_plus = _deformation(self.lam, self.x, self.z, t)
        transfer_plus = _Transfer(lam_plus, ctx)
        self.m, self.t = ctx.target_dim, t
        self.lam_plus, self.transfer_plus = lam_plus, transfer_plus
        self.eta_preserved = self.eta == transfer_plus.eta
        self.split_plus = _split(lam_plus, ctx.m0, False, 0)
        if self.path_b is None or self.path_b.tail != transfer_plus.tail:
            self.path_b = _SigmaUnits(build_a_parameter(self.phi, ctx), transfer_plus.tail)

    def at(self, target: Signature, path_a: AqLambdaData) -> tuple[bool, bool, bool]:
        """(eta_preserved, li_holds, lift_matches) for one form of size m, given path A's lift."""
        sigma = self.path_b.at(self.transfer_plus.e0_at(target), target)
        return self.eta_preserved, _li_fits(self.split_plus, self.n, target), sigma == path_a

    def report(self, flags: tuple[bool, bool, bool]) -> GlobalizationReport:
        """The report for at()'s flags at the current size."""
        return GlobalizationReport(self.t, self.lam_plus, *flags)
