"""Joint-harmonics K-type correspondence and the compact-pair weight split.

K-types of U(p, q) are highest weights for U(p) x U(q): two weakly
decreasing integer tuples. After subtracting the normalization shift
((r-s+m0)/2 on the first part, (s-r+m0)/2 on the second) a weight falls
into the pattern (a, 0...0, b; c, 0...0, d) with a, c positive and b, d
negative; the correspondence swaps b with d, re-pads with zeros to the
target lengths, and adds the shift of the opposite side. It exists if
and only if the target has room: x + w <= r and z + y <= s.

split_mu factors a matching weight through the compact pair
U(r) x U(s): the two returned weights are again K-types of U(p, q)
whose tensor product contains mu (the lowest pieces of two highest
weight modules). The twist exponents m1, m2 may be any integers with
m1 = r, m2 = s (mod 2) and m1 + m2 = m0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LiftContext, Signature
from .errors import InternalError, PatternMismatch, PreconditionViolation


@dataclass(frozen=True, slots=True)
class KType:
    """Highest weight of U(p) x U(q): two weakly decreasing int tuples."""

    sig: Signature
    a_weights: tuple[int, ...]
    b_weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a_weights) != self.sig.p or len(self.b_weights) != self.sig.q:
            raise ValueError("weight lengths must match the signature")
        for part, label in ((self.a_weights, "a"), (self.b_weights, "b")):
            for u, v in zip(part, part[1:]):
                if u < v:
                    raise ValueError(f"{label}-weights must weakly decrease")

    def to_json(self) -> dict:
        return {"a": list(self.a_weights), "b": list(self.b_weights)}


@dataclass(frozen=True, slots=True)
class _Pattern:
    """The shift-normalized shape of a K-type: signed runs and zero counts."""

    a: tuple[int, ...]  # positives from the first part
    b: tuple[int, ...]  # negatives from the first part
    c: tuple[int, ...]  # positives from the second part
    d: tuple[int, ...]  # negatives from the second part

    @property
    def x(self) -> int:
        return len(self.a)

    @property
    def y(self) -> int:
        return len(self.b)

    @property
    def z(self) -> int:
        return len(self.c)

    @property
    def w(self) -> int:
        return len(self.d)


def _half_shift(diff: int, m0: int) -> int:
    # (diff + m0)/2; parity is guaranteed by the context invariants.
    if (diff + m0) % 2:
        raise InternalError(f"shift parity broke: ({diff} + {m0})/2 is not an integer")
    return (diff + m0) // 2


def _extract_pattern(mu: KType, shift_a: int, shift_b: int) -> _Pattern:
    sa = [v - shift_a for v in mu.a_weights]
    sb = [v - shift_b for v in mu.b_weights]
    return _Pattern(
        a=tuple(v for v in sa if v > 0),
        b=tuple(v for v in sa if v < 0),
        c=tuple(v for v in sb if v > 0),
        d=tuple(v for v in sb if v < 0),
    )


def correspond_ktype(mu: KType, ctx: LiftContext, target: Signature) -> KType | None:
    """The K-type of U(target) paired with mu in the joint harmonics.

    None when the pattern does not fit the target (x + w > r or
    z + y > s); otherwise the partner weight.
    """
    if mu.sig.n != ctx.source_dim:
        raise PreconditionViolation(
            f"K-type lives on {mu.sig.n} coordinates, context source_dim={ctx.source_dim}"
        )
    if target.n != ctx.target_dim:
        raise PreconditionViolation(
            f"target size {target.n} != context target_dim {ctx.target_dim}"
        )
    r, s = target.p, target.q
    p, q = mu.sig.p, mu.sig.q
    pat = _extract_pattern(
        mu, _half_shift(r - s, ctx.m0), _half_shift(s - r, ctx.m0)
    )
    if pat.x + pat.w > r or pat.z + pat.y > s:
        return None
    out_shift_a = _half_shift(p - q, ctx.n0)
    out_shift_b = _half_shift(q - p, ctx.n0)
    new_a = (
        tuple(v + out_shift_a for v in pat.a)
        + (out_shift_a,) * (r - pat.x - pat.w)
        + tuple(v + out_shift_a for v in pat.d)
    )
    new_b = (
        tuple(v + out_shift_b for v in pat.c)
        + (out_shift_b,) * (s - pat.z - pat.y)
        + tuple(v + out_shift_b for v in pat.b)
    )
    return KType(target, new_a, new_b)


def split_mu(
    mu: KType,
    ctx: LiftContext,
    target: Signature,
    m1: int | None = None,
    m2: int | None = None,
) -> tuple[KType, KType]:
    """Factor mu through the compact pair U(r) x U(s).

    Returns K-types (mu1, mu2) of U(p, q) whose tensor product contains
    mu: mu1 keeps the a- and d-runs with the +r/2 twist, mu2 the b- and
    c-runs with the -s/2 twist. m1 and m2 default to the minimal
    admissible pair; explicit values must satisfy m1 = r, m2 = s
    (mod 2) and m1 + m2 = m0."""
    if mu.sig.n != ctx.source_dim:
        raise PreconditionViolation(
            f"K-type lives on {mu.sig.n} coordinates, context source_dim={ctx.source_dim}"
        )
    if target.n != ctx.target_dim:
        raise PreconditionViolation(
            f"target size {target.n} != context target_dim {ctx.target_dim}"
        )
    r, s = target.p, target.q
    p, q = mu.sig.p, mu.sig.q
    if m1 is None:
        m1 = r % 2
    if m2 is None:
        m2 = ctx.m0 - m1
    if (m1 - r) % 2:
        raise PatternMismatch(f"m1={m1} must have the parity of r={r}")
    if (m2 - s) % 2:
        raise PatternMismatch(f"m2={m2} must have the parity of s={s}")
    if m1 + m2 != ctx.m0:
        raise PatternMismatch(f"m1 + m2 must equal m0={ctx.m0}, got {m1}+{m2}")

    pat = _extract_pattern(
        mu, _half_shift(r - s, ctx.m0), _half_shift(s - r, ctx.m0)
    )
    if pat.x + pat.w > r or pat.z + pat.y > s:
        raise PatternMismatch(
            f"pattern ({pat.x},{pat.y},{pat.z},{pat.w}) does not fit target {target}"
        )

    sh1 = _half_shift(r, m1)  # (r + m1)/2
    sh1neg = _half_shift(-r, m1)
    mu1 = KType(
        mu.sig,
        tuple(v + sh1 for v in pat.a) + (sh1,) * (p - pat.x),
        (sh1neg,) * (q - pat.w) + tuple(v + sh1neg for v in pat.d),
    )
    sh2 = _half_shift(-s, m2)  # (m2 - s)/2
    sh2pos = _half_shift(s, m2)
    mu2 = KType(
        mu.sig,
        (sh2,) * (p - pat.y) + tuple(v + sh2 for v in pat.b),
        tuple(v + sh2pos for v in pat.c) + (sh2pos,) * (q - pat.z),
    )
    return mu1, mu2
