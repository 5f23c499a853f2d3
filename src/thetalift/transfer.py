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
decides occurrence itself; _verify_globalization is the unchecked core
for callers that have already decided it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import HCParam, HalfInt, LiftContext, Signature, make_regular_deformation
from .errors import PreconditionViolation
from .lifting import _lift_up
from .nonvanishing import li_sufficient, occurs
from .packets import (
    AParameter,
    LParameter,
    MINUS,
    PLUS,
    SignCharacter,
    epsilon_of_signature,
    eta_from_pi,
    sigma_from_eta_prime,
)


@dataclass(frozen=True, slots=True)
class ZetaSigns:
    """Correction signs for transporting a character across the pair."""

    zetas: tuple[int, ...]
    zeta0: int


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


def eps_half_conjdual(kappa: HalfInt) -> int:
    """Local epsilon sign of the conjugate self-dual character at kappa.

    +1 for integral kappa and for positive half-odd kappa, -1 for
    negative half-odd kappa.
    """
    if kappa.is_integer:
        return PLUS
    return PLUS if kappa.twice > 0 else MINUS


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
    return AParameter.from_twices(mus, ctx.n0, ctx.target_dim)


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
    phi, eta = eta_from_pi(lam)
    phi_p = build_a_parameter(phi, ctx)
    zs = zeta_signs(ctx.target_dim, ctx.source_dim, phi_p.i0)
    vals = tuple(z * e for z, e in zip(zs.zetas, eta.values))
    e0 = (
        zs.zeta0
        * epsilon_of_signature(target.p, target.q)
        * epsilon_of_signature(lam.sig.p, lam.sig.q)
    )
    return phi_p, SignCharacter((e0,) + vals)


@dataclass(frozen=True, slots=True)
class GlobalizationReport:
    """Outcome of the deformation shadow of the globalization argument."""

    t: int
    deformed: HCParam
    eta_preserved: bool
    li_holds: bool
    lift_matches: bool

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
    if 2 * t < m - n + 1:
        raise PreconditionViolation(f"t={t} is below the regularity bound (m-n+1)/2")
    nonzero, pos = occurs(lam, ctx.m0, target)
    if not nonzero:
        raise PreconditionViolation(f"lift vanishes: {pos.reason}")
    return _verify_globalization(lam, ctx, target, t)


def _verify_globalization(
    lam: HCParam, ctx: LiftContext, target: Signature, t: int
) -> GlobalizationReport:
    """verify_globalization() without its checks, for a nonzero lift."""
    lam_plus = make_regular_deformation(lam, ctx, t)
    eta_preserved = eta_from_pi(lam)[1] == eta_from_pi(lam_plus)[1]
    li_holds = li_sufficient(lam_plus, ctx.m0, target)

    phi, _eta = eta_from_pi(lam)
    phi_p = build_a_parameter(phi, ctx)
    _phi_p_plus, eta_p_plus = transfer_eta(lam_plus, ctx, target)
    sigma = sigma_from_eta_prime(phi_p, eta_p_plus, target)
    lift_matches = sigma == _lift_up(lam, ctx, target)

    return GlobalizationReport(
        t=t,
        deformed=lam_plus,
        eta_preserved=eta_preserved,
        li_holds=li_holds,
        lift_matches=lift_matches,
    )
