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

_KTypeMap is the correspondence for one (source form, context,
target), in the idiom of lifting._LiftUp: it checks the dimensions and
derives the shifts and offsets once, and at() builds one weight's
partner. correspond_ktype builds one map per call; the K-type grid of
suites builds three per (p, q, r, s) group. A weakly decreasing slice
moved by a constant stays weakly decreasing, so at() checks only each
part's length and the seams between its slices, and hands a failure to
the validating KType constructor for its exception and message, as
lifting.AqLambdaData._spliced does: every partner is still checked in
full. split_mu reads its shifts, cuts and fit test from the same map.

split_mu factors a matching weight through the compact pair
U(r) x U(s): the two returned weights are again K-types of U(p, q)
whose tensor product contains mu (the lowest pieces of two highest
weight modules). The twist exponents m1, m2 may be any integers with
m1 = r, m2 = s (mod 2) and m1 + m2 = m0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import ge, neg

from .core import LiftContext, Signature, _Frozen, _ints
from .errors import InternalError, PatternMismatch


class KType(_Frozen):
    """Highest weight of U(p) x U(q): two weakly decreasing int tuples.

    The constructor validates, and guards input: the CLI's weights and
    the public correspond_ktype and split_mu. _from_checked stores int
    tuples that the caller has shown valid for sig:
    - _KTypeMap.at, each partner, once it has checked the partner's
      lengths and seams;
    - suites._ktype_case, each weight of the K-type grid: weakly
      decreasing positive runs, zeros and negative runs, moved by one
      shift, with the source form's lengths.
    """

    __slots__ = ("sig", "a_weights", "b_weights")

    def __init__(
        self, sig: Signature, a_weights: tuple[int, ...], b_weights: tuple[int, ...]
    ) -> None:
        a, b = _ints(a_weights, "KType"), _ints(b_weights, "KType")
        _set_sig(self, sig)
        _set_a_weights(self, a)
        _set_b_weights(self, b)
        if len(a) != sig.p or len(b) != sig.q:
            raise ValueError("weight lengths must match the signature")
        if not all(map(ge, a, a[1:])):
            raise ValueError("a-weights must weakly decrease")
        if not all(map(ge, b, b[1:])):
            raise ValueError("b-weights must weakly decrease")

    @classmethod
    def _from_checked(
        cls, sig: Signature, a_weights: tuple[int, ...], b_weights: tuple[int, ...]
    ) -> "KType":
        """The K-type for int tuples that the caller has shown valid for sig."""
        out = object.__new__(cls)
        _set_sig(out, sig)
        _set_a_weights(out, a_weights)
        _set_b_weights(out, b_weights)
        return out

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


class _KTypeMap:
    """correspond_ktype() for one source form, context and target, split at the weight.

    Built once per (source, ctx, target): the dimension checks, the
    shifts sh_a and sh_b of a weight at the target, the partner's shifts
    out_a and out_b at the source, and the offsets ka, kd, kc, kb that
    move the runs a, d, c, b onto the partner. cut() gives a weight's
    cut indices at sh_a and sh_b, pads() the partner's zero padding
    (negative when the pattern does not fit), and at() the partner of
    one weight of the source form, whose cuts a caller that has them
    passes in.

    at() builds each part of the partner from three slices: a run moved
    by its offset, the padding, and a run of the other part moved by
    its offset. A weakly decreasing slice moved by a constant stays
    weakly decreasing, so it checks only each part's length and the two
    seams between its slices, and stores the partner through
    KType._from_checked. When a check fails it hands the parts to the
    validating KType constructor, which raises, so the exceptions and
    messages are the constructor's.
    """

    __slots__ = (
        "source", "target", "sh_a", "sh_b", "out_a", "out_b", "ka", "kd", "kc", "kb",
    )

    def __init__(self, source: Signature, ctx: LiftContext, target: Signature) -> None:
        ctx._check_sizes(source.n, target)
        self.source = source
        self.target = target
        self.sh_a = _half_shift(target.p - target.q, ctx.m0)
        self.sh_b = ctx.m0 - self.sh_a
        self.out_a = _half_shift(source.p - source.q, ctx.n0)
        self.out_b = ctx.n0 - self.out_a
        self.ka, self.kd = self.out_a - self.sh_a, self.out_a - self.sh_b
        self.kc, self.kb = self.out_b - self.sh_b, self.out_b - self.sh_a

    def cut(
        self, a: tuple[int, ...], b: tuple[int, ...]
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """((ia, ja), (ib, jb)): the runs are a[:ia], a[ja:], b[:ib], b[jb:], less the shifts."""
        return _cut(a, self.sh_a), _cut(b, self.sh_b)

    def pads(self, cuts: tuple[tuple[int, int], tuple[int, int]]) -> tuple[int, int]:
        """(r - x - w, s - z - y) for a weight cut at cuts; the pattern fits iff both are >= 0."""
        (ia, ja), (ib, jb) = cuts
        source, target = self.source, self.target
        return target.p - ia - (source.q - jb), target.q - ib - (source.p - ja)

    def at(
        self,
        a: tuple[int, ...],
        b: tuple[int, ...],
        cuts: tuple[tuple[int, int], tuple[int, int]] | None = None,
    ) -> KType | None:
        """The partner of the weight (a; b) of the source form, None when it does not fit."""
        if cuts is None:
            cuts = self.cut(a, b)
        pad_a, pad_b = self.pads(cuts)
        if pad_a < 0 or pad_b < 0:
            return None
        (ia, ja), (ib, jb) = cuts
        ka, kd, kc, kb = self.ka, self.kd, self.kc, self.kb
        pa = tuple([v + ka for v in a[:ia]] + [self.out_a] * pad_a + [v + kd for v in b[jb:]])
        pb = tuple([v + kc for v in b[:ib]] + [self.out_b] * pad_b + [v + kb for v in a[ja:]])
        target = self.target
        r, s = target.p, target.q
        # The seams of pa are at ia and ia + pad_a, those of pb at ib and
        # ib + pad_b; a seam at either end of a part joins nothing.
        i, j = ia + pad_a, ib + pad_b
        if (
            len(pa) != r
            or len(pb) != s
            or (0 < ia < r and pa[ia - 1] < pa[ia])
            or (0 < i < r and pa[i - 1] < pa[i])
            or (0 < ib < s and pb[ib - 1] < pb[ib])
            or (0 < j < s and pb[j - 1] < pb[j])
        ):
            return KType(target, pa, pb)  # raises the constructor's ValueError
        return KType._from_checked(target, pa, pb)


def correspond_ktype(mu: KType, ctx: LiftContext, target: Signature) -> KType | None:
    """The K-type of U(target) paired with mu in the joint harmonics.

    None when the pattern does not fit the target (x + w > r or
    z + y > s); otherwise the partner weight.
    """
    return _KTypeMap(mu.sig, ctx, target).at(mu.a_weights, mu.b_weights)


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
    kmap = _KTypeMap(mu.sig, ctx, target)
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
    sh_a, sh_b = kmap.sh_a, kmap.sh_b
    cuts = kmap.cut(a, b)
    (ia, ja), (ib, jb) = cuts
    x, y, z, w = ia, p - ja, ib, q - jb
    if min(kmap.pads(cuts)) < 0:
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
