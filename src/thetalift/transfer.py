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
decides occurrence itself; callers that have already decided it use
_Globalization directly.

Both transfer_eta and the globalization check are built from parts
that depend on less than the case. _Transfer (eta_from_pi,
build_a_parameter, the zetas) depends on the parameter and, through
the zetas, on the parity of m - n only, so one serves every size of a
tower. Path A (lifting._LiftUp) and the source character (phi, eta) =
eta_from_pi(lam) depend only on the parameter and the exponents;
_Globalization takes them from its caller and builds per target size
the deformation, whose step t grows with m, the deformed character and
its check, the deformed lax split and path B's unit blocks. A per-form
step then adds the e'_0 value, an int, the sufficiency test and the
comparison. The public functions build every part on every call; the
suites keep each part for as long as it holds. Nothing is memoized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import HCParam, LiftContext, Signature, _split_cached, make_regular_deformation
from .errors import PreconditionViolation
from .lifting import _LiftUp
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
    return _Globalization(lam, ctx, t, _LiftUp(lam, ctx), eta_from_pi(lam)).at(target)


class _Globalization:
    """verify_globalization() for one parameter and one target size, split at the form.

    path_a is the parameter's lifting._LiftUp and source its undeformed
    (phi, eta), both built once per parameter by the caller. The
    deformation, the preserved-character check, the lax split of the
    deformed parameter, and path B's unit blocks are built once per size;
    at() runs the sufficiency test and compares the two routes on one
    target form, handing path B only that form's e'_0 value.
    """

    __slots__ = ("t", "n", "lam_plus", "eta_preserved", "split_plus", "path_a",
                 "transfer_plus", "path_b")

    def __init__(
        self,
        lam: HCParam,
        ctx: LiftContext,
        t: int,
        path_a: _LiftUp,
        source: tuple[LParameter, SignCharacter],
    ) -> None:
        phi, eta = source
        lam_plus = make_regular_deformation(lam, ctx, t)
        self.t = t
        self.n = lam.sig.n
        self.lam_plus = lam_plus
        self.transfer_plus = _Transfer(lam_plus, ctx)
        self.eta_preserved = eta == self.transfer_plus.eta
        self.split_plus = _split_cached(lam_plus, ctx.m0, False, 0)
        self.path_a = path_a
        self.path_b = _SigmaUnits(build_a_parameter(phi, ctx), self.transfer_plus.tail)

    def at(self, target: Signature) -> GlobalizationReport:
        """The report for one target form of the context's size."""
        sigma = self.path_b.at(self.transfer_plus.e0_at(target), target)
        return GlobalizationReport(
            t=self.t,
            deformed=self.lam_plus,
            eta_preserved=self.eta_preserved,
            li_holds=_li_fits(self.split_plus, self.n, target),
            lift_matches=sigma == self.path_a.at(target),
        )
