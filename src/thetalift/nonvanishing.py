"""Nonvanishing invariants and the occurrence decision for theta lifts.

For a parameter lam of U(p, q) and an exponent m0, the shifted tuple
lam0 = lam - m0/2 determines everything here. Write k0 = 0 when the
target dimension has the same parity as n = p + q and k0 = -1 otherwise.

k_lambda is the largest k >= 1 with k = k0 (mod 2) whose centered chain
(k-1)/2, ..., -(k-1)/2 sits inside a single part of lam0; if no such k
exists it is k0 itself. r_lambda and s_lambda are x + w and z + y of the
strict split with that chain removed: the signature of the first lift in
the relevant Witt tower.

X is the signed multiset of all entries of lam0, an entry from the
p-part carrying +1 and one from the q-part carrying -1. X_inf is the
stable residue of X under simultaneous deletion of adjacent cancelling
pairs: scan the surviving values in descending order and delete every
pair (xi_i, +1), (xi_{i+1}, -1) that is adjacent in the current order
with xi_i in alpha and xi_{i+1} in gamma, or xi_i in beta and xi_{i+1}
in delta (membership in the original strict split; chain values are
never deleted but do block adjacency). Iterate until nothing cancels.

c_count(inv, sign, t) counts the signed values of X_inf that land in the
window [0, t) after the affine shift xi -> (k_lambda - 1)/2 + sign * xi;
it vanishes for t <= 0. These counts, together with the coordinates
(l, t) of a target signature along the tower, decide occurrence.

Nothing here is memoized. One private core, _tower_invariants(),
computes the invariants of one orientation of lam0 in one pass: it finds
the chain, sorts X once, labels each value by part and sign, counts
r_lambda and s_lambda from the labels and runs the cancellation stack.
It returns an NVInvariants of three ints and the X_inf pairs and
builds no split. invariants() checks its arguments, runs the core and
cross-checks it against the strict split with the chain removed, whose
x + w and z + y must be r_lambda and s_lambda. occurs() computes the
core on every call; a caller deciding many targets of one parameter
holds a _Tower, which computes the parameter's invariants once and the
conjugate dual's only when a target first needs the swapped
orientation; its one decision method, decide(), returns a plain tuple.
The conjugate dual's lam0 is lam0 negated with each part reversed, so
the tower computes the dual's invariants from lam's own parts and
builds no dual parameter.
"""

from __future__ import annotations

from .core import ABGDSplit, HCParam, Signature, _Frozen, _Value, _parts_text, _split
from .errors import (
    ChainNotPresent,
    InternalError,
    ParityMismatch,
    PreconditionViolation,
    UnclassifiableZero,
)


class NVInvariants(_Value):
    """Tower invariants of lam - m0/2, for one parameter lam at one exponent m0.

    X_inf_tw holds X_inf as a tuple of (doubled value, sign) pairs in
    descending value order; sign is +1 or -1. Not frozen, so mutable and
    unhashable: its constructor stores the fields directly, about half a
    microsecond less than the object.__setattr__ calls of a frozen type
    (Python 3.11), and a tower builds one per orientation.
    """

    __slots__ = ("k_lambda", "r_lambda", "s_lambda", "X_inf_tw")

    def __init__(
        self, k_lambda: int, r_lambda: int, s_lambda: int, X_inf_tw: tuple[tuple[int, int], ...]
    ) -> None:
        self.k_lambda = k_lambda
        self.r_lambda = r_lambda
        self.s_lambda = s_lambda
        self.X_inf_tw = X_inf_tw


class TowerPosition(_Frozen):
    """Coordinates of a target signature relative to the first lift.

    l counts the steps along the tower, t the extra full hyperbolic
    planes on top; swapped records whether the decision was made on the
    conjugate-dual parameter with the target transposed. reason is None
    when the lift occurs and names the failing condition otherwise.
    """

    __slots__ = ("l", "t", "swapped", "reason")

    def __init__(self, l: int, t: int, swapped: bool, reason: str | None = None) -> None:
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "swapped", swapped)
        object.__setattr__(self, "reason", reason)

    def to_json(self) -> dict:
        return {"l": self.l, "t": self.t, "swapped": self.swapped, "reason": self.reason}


def _tower_invariants(p_tw: tuple[int, ...], q_tw: tuple[int, ...], k0: int) -> NVInvariants:
    """k_lambda, r_lambda, s_lambda and X_inf of the doubled parts of lam - m0/2, in one pass.

    Unchecked: the parts are already shifted and k0 fits their parity.
    """
    # Every chain of the k0 class holds the centre, 0 for odd k and the
    # pair +-1/2 for even k; entries are distinct, so one part at most
    # holds it. Chains are tried upward, one pair of ends each.
    k = 1 if k0 else 2
    part = p_tw
    if k - 1 in p_tw:
        if k - 1 in q_tw:
            raise InternalError(
                f"the chain's centre lies in both parts of lam - m0/2 = "
                f"{_parts_text(p_tw, q_tw)}"
            )
    else:
        part = q_tw
    while k - 1 in part and 1 - k in part:
        k += 2
    k = k - 2 if k > 2 else k0
    # X sorted once, by value: entries are distinct. The chain is the
    # values strictly between -k/2 and k/2 (none when k <= 0), as every
    # entry sits on the chain's lattice. alpha/beta are the positive and
    # nonpositive p-values outside it, gamma/delta the q-values; r counts
    # alpha and delta, s gamma and beta. The deletions alpha-gamma and
    # beta-delta never overlap (no class is both a left and a right end),
    # so the fixpoint is unique and one stack pass reaches it: a gamma or
    # delta cancels the survivor directly above it if that is an alpha
    # or a beta on its side of zero. Chain values never cancel but still
    # occupy their slot.
    r = s = chain = 0
    stack: list[tuple[int, int]] = []
    for t in sorted(p_tw + q_tw, reverse=True):
        sign = +1 if t in p_tw else -1
        if -k < t < k:
            chain += 1
        elif t == 0:
            raise InternalError(
                f"zero outside the chain in lam - m0/2 = {_parts_text(p_tw, q_tw)}"
            )
        else:
            if (t > 0) == (sign > 0):
                r += 1
            else:
                s += 1
            if sign < 0 and stack:
                above, above_sign = stack[-1]
                if above_sign > 0 and not -k < above < k and (t > 0 or above < 0):
                    stack.pop()
                    continue
        stack.append((t, sign))
    if chain != max(k, 0):
        raise InternalError(
            f"the span of the chain of length {k} holds {chain} values of "
            f"lam - m0/2 = {_parts_text(p_tw, q_tw)}"
        )
    return NVInvariants(k, r, s, tuple(stack))


def invariants(lam: HCParam, m0: int, k0: int) -> NVInvariants:
    """All tower invariants of lam at exponent m0 and parity class k0.

    k0 must be 0 or -1 and satisfy m0 = n + k0 (mod 2), n the size of
    lam; otherwise ParityMismatch. The strict split of lam - m0/2 with
    the chain removed must give the core's r_lambda and s_lambda as
    x + w and z + y; a disagreement is an InternalError.
    """
    if k0 not in (0, -1):
        raise PreconditionViolation(f"k0 must be 0 or -1, got {k0}")
    n = lam.sig.n
    if (m0 - n - k0) % 2:
        raise ParityMismatch(f"m0={m0} inconsistent with n={n} and k0={k0}")
    p_tw = tuple([t - m0 for t in lam.p_tw])
    q_tw = tuple([t - m0 for t in lam.q_tw])
    inv = _tower_invariants(p_tw, q_tw, k0)
    try:
        sp = _split(lam, m0, True, max(inv.k_lambda, 0))
    except (ChainNotPresent, UnclassifiableZero) as err:
        raise InternalError(f"strict split disagrees with the tower invariants: {err}") from err
    if (sp.x + sp.w, sp.z + sp.y) != (inv.r_lambda, inv.s_lambda):
        raise InternalError(
            f"strict split of lam - m0/2 = {_parts_text(p_tw, q_tw)} gives "
            f"({sp.x + sp.w}, {sp.z + sp.y}), the tower ({inv.r_lambda}, {inv.s_lambda})"
        )
    return inv


def c_count(inv: NVInvariants, sign: int, t: int) -> int:
    """Number of sign-marked members of X_inf in the window of width t."""
    if sign not in (+1, -1):
        raise PreconditionViolation(f"sign must be +1 or -1, got {sign}")
    return _window_count(inv.k_lambda, inv.X_inf_tw, sign, t)


def _window_count(
    k_lambda: int, X_inf_tw: tuple[tuple[int, int], ...], sign: int, t: int
) -> int:
    """c_count() on the plain values, unchecked."""
    if t <= 0:
        return 0
    shift = k_lambda - 1  # doubled value of (k_lambda - 1)/2
    total = 0
    for xi, s in X_inf_tw:
        if s != sign:
            continue
        v = shift + sign * xi
        if 0 <= v < 2 * t:
            total += 1
    return total


def _k0_for(n: int, m: int) -> int:
    return 0 if (m - n) % 2 == 0 else -1


def _dual_shifted(lam: HCParam, m0: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The doubled parts of the conjugate dual's lam - m0/2, read from lam's own.

    They are lam - m0/2 negated, each part reversed to descend again.
    """
    return (
        tuple([m0 - t for t in reversed(lam.p_tw)]),
        tuple([m0 - t for t in reversed(lam.q_tw)]),
    )


class _Tower:
    """The tower of one parameter at one exponent m0 and parity class k0.

    Holds the invariants of each orientation: the parameter's and, once
    a target first needs the swapped orientation, the conjugate dual's,
    read from the parameter's own shifted parts, so deciding many
    targets of one parameter computes each at most once. A caller that
    already has either passes it in. The tower builds no split; only
    invariants() does.
    decide() is its one decision method. occurs() builds one tower per
    call; the suites build one per parameter.
    """

    __slots__ = ("lam", "m0", "k0", "inv", "_dual_inv")

    def __init__(
        self,
        lam: HCParam,
        m0: int,
        k0: int,
        inv: NVInvariants | None = None,
        dual_inv: NVInvariants | None = None,
    ) -> None:
        self.lam = lam
        self.m0 = m0
        self.k0 = k0
        if inv is None:
            inv = _tower_invariants(
                tuple([t - m0 for t in lam.p_tw]), tuple([t - m0 for t in lam.q_tw]), k0
            )
        self.inv = inv
        self._dual_inv = dual_inv

    @property
    def dual_inv(self) -> NVInvariants:
        """The conjugate dual's invariants, the swapped orientation."""
        if self._dual_inv is None:
            self._dual_inv = _tower_invariants(*_dual_shifted(self.lam, self.m0), self.k0)
        return self._dual_inv

    def decide(self, target: Signature) -> tuple[int, int, bool, str | None]:
        """occurs() for one target of the tower's parity class, as a plain tuple.

        (l, t, swapped, reason) are a TowerPosition's fields; reason is
        None when the lift occurs, and swapped says dual_inv decided.
        """
        inv = self.inv
        swapped = False
        r, s = target.p, target.q
        if r - inv.r_lambda < s - inv.s_lambda:
            inv = self.dual_inv
            r, s = s, r
            swapped = True
        k_lam = inv.k_lambda

        l = s - inv.s_lambda
        d = r - inv.r_lambda - l
        odd = k_lam == -1
        if d % 2 != odd:
            raise InternalError(
                f"step count parity broke for the {'odd' if odd else 'even'} tower of "
                f"{self.lam} at m0={self.m0}, target {target}"
            )
        t = (d - odd) // 2

        if l < 0:
            return l, t, swapped, "below the first occurrence in its tower"
        if t < 0:
            return l, t, swapped, "negative plane count"
        if t == 0:
            return l, t, swapped, None
        if l < max(k_lam, 0):
            return l, t, swapped, "step count below the chain length"
        if _window_count(k_lam, inv.X_inf_tw, +1, l + t) > l:
            return l, t, swapped, "positive window count exceeds the step count"
        if _window_count(k_lam, inv.X_inf_tw, -1, l + t) > l:
            return l, t, swapped, "negative window count exceeds the step count"
        return l, t, swapped, None


def occurs(lam: HCParam, m0: int, target: Signature) -> tuple[bool, TowerPosition]:
    """Decide whether the lift of lam to U(target) is nonzero.

    Returns (nonzero, position); position always carries the tower
    coordinates, with reason set when the answer is False. m0 must have
    the parity of target's dimension.
    """
    m = target.n
    if (m0 - m) % 2:
        raise ParityMismatch(f"m0={m0} must match target dimension {m} mod 2")
    pos = _Tower(lam, m0, _k0_for(lam.sig.n, m)).decide(target)
    return pos[3] is None, TowerPosition(*pos)


def li_sufficient(lam: HCParam, m0: int, target: Signature) -> bool:
    """Sufficient (not necessary) nonvanishing test in the stable range.

    True when m >= n, the lax split fits inside the target (x + w <= r,
    z + y <= s), and every split value clears (m - n + 1)/2 in absolute
    value. Implies occurs() with both window counts zero.
    """
    m = target.n
    if (m0 - m) % 2:
        raise ParityMismatch(f"m0={m0} must match target dimension {m} mod 2")
    return _li_fits(_split(lam, m0, False, 0), lam.sig.n, target)


def _li_fits(sp: ABGDSplit, n: int, target: Signature) -> bool:
    """li_sufficient() on the lax split of a size-n parameter, unchecked."""
    m = target.n
    if m < n:
        return False
    if sp.x + sp.w > target.p or sp.z + sp.y > target.q:
        return False
    bound = m - n + 1  # doubled value of (m - n + 1)/2
    if sp.alpha_tw and sp.alpha_tw[-1] < bound:
        return False
    if sp.beta_tw and -sp.beta_tw[0] < bound:
        return False
    if sp.gamma_tw and sp.gamma_tw[-1] < bound:
        return False
    if sp.delta_tw and -sp.delta_tw[0] < bound:
        return False
    return True
