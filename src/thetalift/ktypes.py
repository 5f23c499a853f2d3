"""Joint-harmonics K-type correspondence and the compact-pair weight split.

K-types of U(p, q) are highest weights for U(p) x U(q): two weakly
decreasing integer tuples. After subtracting the normalization shift
((r-s+m0)/2 on the first part, (s-r+m0)/2 = m0 - (r-s+m0)/2 on the
second) a weight falls into the pattern (a, 0...0, b; c, 0...0, d) with
a, c positive and b, d negative; the correspondence swaps b with d,
re-pads with zeros to the target lengths, and adds the shift of the
opposite side. It exists if and only if the target has room: x + w <= r
and z + y <= s, x, y, z, w being the lengths of the runs.

A part weakly decreases, so its entries above the shift are a prefix
and those below it a suffix: each part's runs are read as two cut
indices (_cut), and the correspondence and the split build their
weights from slices of the unshifted parts, one offset per slice.

split_mu factors a matching weight through the compact pair
U(r) x U(s): the two returned weights are again K-types of U(p, q)
whose tensor product contains mu (the lowest pieces of two highest
weight modules). The twist exponents m1, m2 may be any integers with
m1 = r, m2 = s (mod 2) and m1 + m2 = m0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import ge, neg

from .core import LiftContext, Signature, _Frozen
from .errors import InternalError, PatternMismatch, PreconditionViolation


class KType(_Frozen):
    """Highest weight of U(p) x U(q): two weakly decreasing int tuples."""

    __slots__ = ("sig", "a_weights", "b_weights")

    def __init__(
        self, sig: Signature, a_weights: tuple[int, ...], b_weights: tuple[int, ...]
    ) -> None:
        _set_sig(self, sig)
        _set_a_weights(self, a_weights)
        _set_b_weights(self, b_weights)
        a, b = a_weights, b_weights
        if len(a) != sig.p or len(b) != sig.q:
            raise ValueError("weight lengths must match the signature")
        if not all(map(ge, a, a[1:])):
            raise ValueError("a-weights must weakly decrease")
        if not all(map(ge, b, b[1:])):
            raise ValueError("b-weights must weakly decrease")

    def to_json(self) -> dict:
        return {"a": list(self.a_weights), "b": list(self.b_weights)}


_set_sig, _set_a_weights, _set_b_weights = KType._setters


def _half_shift(diff: int, m0: int) -> int:
    # (diff + m0)/2; parity is guaranteed by the context invariants.
    if (diff + m0) % 2:
        raise InternalError(f"shift parity broke: ({diff} + {m0})/2 is not an integer")
    return (diff + m0) // 2


def _cut(part: tuple[int, ...], shift: int) -> tuple[int, int]:
    """(i, j) with part[:i] above shift and part[j:] below it (part weakly decreases)."""
    return bisect_left(part, -shift, key=neg), bisect_right(part, -shift, key=neg)


def _require_dims(mu: KType, ctx: LiftContext, target: Signature) -> None:
    if mu.sig.n != ctx.source_dim:
        raise PreconditionViolation(
            f"K-type lives on {mu.sig.n} coordinates, context source_dim={ctx.source_dim}"
        )
    if target.n != ctx.target_dim:
        raise PreconditionViolation(
            f"target size {target.n} != context target_dim {ctx.target_dim}"
        )


def correspond_ktype(mu: KType, ctx: LiftContext, target: Signature) -> KType | None:
    """The K-type of U(target) paired with mu in the joint harmonics.

    None when the pattern does not fit the target (x + w > r or
    z + y > s); otherwise the partner weight.
    """
    _require_dims(mu, ctx, target)
    r, s = target.p, target.q
    p, q = mu.sig.p, mu.sig.q
    a, b = mu.a_weights, mu.b_weights
    sh_a = _half_shift(r - s, ctx.m0)
    sh_b = ctx.m0 - sh_a
    # the runs are a[:ia], a[ja:], b[:ib], b[jb:], less the shifts
    ia, ja = _cut(a, sh_a)
    ib, jb = _cut(b, sh_b)
    pad_a = r - ia - (q - jb)  # r - x - w
    pad_b = s - ib - (p - ja)  # s - z - y
    if pad_a < 0 or pad_b < 0:
        return None
    out_a = _half_shift(p - q, ctx.n0)
    out_b = ctx.n0 - out_a
    ka, kd = out_a - sh_a, out_a - sh_b
    kc, kb = out_b - sh_b, out_b - sh_a
    return KType(
        target,
        tuple([v + ka for v in a[:ia]] + [out_a] * pad_a + [v + kd for v in b[jb:]]),
        tuple([v + kc for v in b[:ib]] + [out_b] * pad_b + [v + kb for v in a[ja:]]),
    )


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
    _require_dims(mu, ctx, target)
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

    a, b = mu.a_weights, mu.b_weights
    sh_a = _half_shift(r - s, ctx.m0)
    sh_b = ctx.m0 - sh_a
    ia, ja = _cut(a, sh_a)
    ib, jb = _cut(b, sh_b)
    x, y, z, w = ia, p - ja, ib, q - jb
    if x + w > r or z + y > s:
        raise PatternMismatch(f"pattern ({x},{y},{z},{w}) does not fit target {target}")

    sh1 = _half_shift(r, m1)  # (r + m1)/2
    sh1neg = m1 - sh1  # (m1 - r)/2
    ka, kd = sh1 - sh_a, sh1neg - sh_b
    mu1 = KType(
        mu.sig,
        tuple([v + ka for v in a[:ia]] + [sh1] * (p - x)),
        tuple([sh1neg] * (q - w) + [v + kd for v in b[jb:]]),
    )
    sh2 = _half_shift(-s, m2)  # (m2 - s)/2
    sh2pos = m2 - sh2  # (m2 + s)/2
    kb, kc = sh2 - sh_a, sh2pos - sh_b
    mu2 = KType(
        mu.sig,
        tuple([sh2] * (p - y) + [v + kb for v in a[ja:]]),
        tuple([v + kc for v in b[:ib]] + [sh2pos] * (q - z)),
    )
    return mu1, mu2
