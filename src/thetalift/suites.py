"""Exhaustive verification suites over bounded parameter grids.

Every identity the package relies on is re-checked here by brute
enumeration: the two independent routes to a lift, the round trip
through a smaller group, duality and persistence of nonvanishing, the
sufficiency bound, the equivalence of the two sign-gate formulas, the
packet bijections, the globalization shadow, and the K-type round trip.

Suites are generators yielding (ok, tag, record) triples; record is
None unless emit is set or the case failed, so the acceptance tests can
consume millions of cases without building JSON. Enumeration order is
fixed: sizes ascend, the even-distance family precedes the odd one,
entry sets run in lexicographic order over the descending value
universe, and part assignments count up in binary. Deterministic
output follows from deterministic iteration.

walk() is the one loop over iter_params. Per parameter it visits the
target sizes below n, descending, then those above n, ascending, only
those a requested check needs: round_trip checks the down targets;
two_path, globalization, persistence and li the up targets; duality
runs once per parameter after its last target; enumerate, behind
iter_enumeration() and not a suite, checks both. Each other walked
SUITES entry is the walk with one check. The walk tags each case with
its check's index, and _count() is the one loop that counts a case
stream's cases, failures and tags under that index: run_suite() feeds
it a suite from the SUITES registry, run_suites() several of the walk's
checks in one walk, and tally() any stream, such as suite_ktypes, whose
(max_run, height) grid is not an EnumerationBounds window.

No suite relies on a cache. The walk loops parameter, then target size
m, then target form (r, s), and does each piece of work at the loop
level it depends on, only for a check that asks for it:
- per run, the table of target signatures, each built once;
- per parameter, the tower invariants (an NVInvariants of k_lambda,
  r_lambda, s_lambda and X_inf, one pass per orientation, no split), in
  a tower object that decides occurrence for all of its targets, as a
  plain tuple, reads the conjugate dual's invariants from the
  parameter's own shifted parts and serves li's window counts; the lax
  split, which li's sufficiency test and the shadow's deformation read;
  at its first nonzero up target, path A (_LiftUp) and, for two_path or
  globalization, path B (_Transfer, _SigmaUnits), whose unit blocks
  follow m; and the globalization shadow (_Globalization), built from
  the lax split and path B's _Transfer;
- per size, at its first nonzero target, the shadow's deformation with
  its transfer, character check and lax split, since the deformation
  step grows with m;
- per form, one decision and one lift, down by _lift_down or up by path
  A, and, for two_path or globalization, one path B lift, shared by the
  checks, then each check's own comparison, block, sign, reverse lift,
  step up the tower or window counts.
li alone decides only the targets it finds sufficient. So a vanishing
case costs only its decision or its sufficiency test. duality reads the
walk's decisions on the parameter's own tower and decides only the
transposed targets on the dual's. That state is dropped when the loop
moves on, so memory stays flat however large the window. suite_ktypes
keeps its injectivity bookkeeping for one run shape of the weight, its
outermost loop, and checks each partner's run shape, which keeps the
check injective over the whole (p, q, r, s) group; its memory is that of
the largest shape, however large the grid. The checks
call the unchecked private halves (_LiftUp, _lift_down, _Transfer,
_SigmaUnits, _Globalization), not the public functions, which would
decide occurrence again and rebuild the shared parts per call. The walk
shares results, not routes: two_path and globalization read the same
path A and path B lifts, and the two derivation routes stay separate
objects, each the other's oracle.
"""

from __future__ import annotations

import itertools
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    ABGDSplit,
    HCParam,
    HalfInt,
    LiftContext,
    Signature,
    _Frozen,
    _Value,
    _conjugate_dual_m0,
    _ints,
    _split,
    half_text,
)
from .errors import (
    ChamberAmbiguous,
    InternalError,
    MalformedCharacter,
    NotCompactLevi,
    NotGoodRange,
    PreconditionViolation,
)
from .ktypes import KType, _cut, _KTypeMap
from .lifting import (
    LiftResult,
    _aq_infinitesimal_twices,
    _lift_down,
    _LiftUp,
    aq_to_discrete_series,
    lift_up,
)
from .nonvanishing import TowerPosition, _li_fits, _Tower, c_count, invariants
from .packets import (
    AParameter,
    LParameter,
    SignCharacter,
    _Members,
    _sigma_units,
    eta_from_pi,
    eta_prime_sign_ok,
)
from .transfer import GlobalizationReport, _Globalization, _Transfer

Case = tuple[bool, str, dict | None]
Tagged = tuple[int, Case]  # a case and the index of the walk check that made it


class EnumerationBounds(_Frozen):
    """Finite enumeration window: sizes, tower distance, entry height."""

    __slots__ = ("max_n", "max_m_minus_n", "height")

    def __init__(self, max_n: int, max_m_minus_n: int, height: HalfInt) -> None:
        _ints((max_n, max_m_minus_n), "EnumerationBounds")
        kind = type(height)
        if kind is not HalfInt:
            raise TypeError(f"EnumerationBounds() takes a HalfInt height, not {kind.__name__}")
        _set_max_n(self, max_n)
        _set_max_m_minus_n(self, max_m_minus_n)
        _set_height(self, height)
        if max_n < 1 or max_m_minus_n < 1 or height.twice < 1:
            raise ValueError("bounds must be positive")


_set_max_n, _set_max_m_minus_n, _set_height = EnumerationBounds._setters


def _value_universe(height_twice: int, parity: int) -> list[int]:
    """Doubled values t with |t| <= height_twice and t = parity (mod 2), descending."""
    return [t for t in range(height_twice, -height_twice - 1, -1) if t % 2 == parity]


def iter_params(bounds: EnumerationBounds) -> Iterator[tuple[HCParam, int, int, int]]:
    """All valid parameters in the window: (lam, k0, m0, n0).

    Both tower families are enumerated: k0 = 0 (targets of the same
    parity as n) with minimal m0 = n mod 2, and k0 = -1 with the other
    parity. The height bound applies to the shifted entries lam - m0/2.
    Each parameter is valid by construction, so it is stored through
    HCParam._from_checked: its entries are distinct values of one
    parity class, taken from a descending universe in order, and each
    part keeps that order.
    """
    for n in range(1, bounds.max_n + 1):
        n0 = n % 2
        # Bit i of a mask puts combo[i] in the q-part. Per mask: the
        # signature, and the p-part's then the q-part's indices into combo.
        masks = []
        for mask in range(1 << n):
            p_at = tuple(i for i in range(n) if not (mask >> i) & 1)
            q_at = tuple(i for i in range(n) if (mask >> i) & 1)
            masks.append((Signature(len(p_at), len(q_at)), p_at + q_at))
        for k0 in (0, -1):
            m0 = (n + k0) % 2
            universe = _value_universe(bounds.height.twice, (k0 - 1) % 2)
            for combo in itertools.combinations(universe, n):
                for sig, at in masks:
                    yield HCParam._from_checked(sig, tuple([combo[i] + m0 for i in at])), k0, m0, n0


def _forms_table(bounds: EnumerationBounds) -> list[tuple[Signature, ...]]:
    """Every signature of each size a run reaches; entry m is (0, m), ..., (m, 0).

    Sizes go up to two above the largest up target, the step that
    persistence takes. Each suite run builds one and drops it at its end.
    """
    top = bounds.max_n + bounds.max_m_minus_n + 2
    return [tuple(Signature(r, m - r) for r in range(m + 1)) for m in range(top + 1)]


def _ctx(lam: HCParam, m0: int, n0: int, m: int) -> LiftContext:
    return LiftContext(m0=m0, n0=n0, source_dim=lam.sig.n, target_dim=m)


def _sig_json(sig: Signature) -> list[int]:
    return [sig.p, sig.q]


class _Param:
    """The walk's state for one parameter, each part built when a check first asks.

    So li alone computes the tower's invariants only at a sufficient target.
    downs and ups are the target sizes of m0's parity below n, descending,
    and from n + 1 to n + dm, ascending (k0 = 0 keeps n's parity, k0 = -1
    flips it); occurs says, per up target, whether the lift occurs.
    transfer is path B's _Transfer and path_b its lift to the current
    nonzero up target, which the walk sets for two_path and globalization.
    """

    __slots__ = ("lam", "k0", "m0", "n0", "n", "forms", "downs", "ups", "occurs", "_tower",
                 "_lax", "transfer", "path_b", "shadow")

    def __init__(self, lam: HCParam, k0: int, m0: int, n0: int, forms: list, dm: int) -> None:
        n = lam.sig.n
        self.lam, self.k0, self.m0, self.n0, self.n, self.forms = lam, k0, m0, n0, n, forms
        self.downs = range(n - 2 - k0, -1, -2)
        self.ups = range(n + 2 + k0, n + dm + 1, 2)
        self.occurs: list[bool] = []
        self._tower = self._lax = self.transfer = self.path_b = self.shadow = None

    @property
    def tower(self) -> _Tower:
        if self._tower is None:
            self._tower = _Tower(self.lam, self.m0, self.k0)
        return self._tower

    @property
    def split(self) -> ABGDSplit:
        """lam's lax split, for li's sufficiency test and the shadow's deformation."""
        if self._lax is None:
            self._lax = _split(self.lam, self.m0, False, 0)
        return self._lax

    def record(self, suite: str, **fields) -> dict:
        return {"suite": suite, "lambda": self.lam.to_json(), "m0": self.m0, **fields}


def _check_two_path(p: _Param, target: Signature, pos, aq, emit: bool) -> Case:
    """Lift route versus packet-transfer route, block for block."""
    if pos[3] is not None:
        return True, "vanishing", None
    equal = aq == p.path_b
    record = None
    if emit or not equal:
        record = p.record(
            "two_path", n0=p.n0, target=_sig_json(target), path_a=aq.to_json(),
            path_b=p.path_b.to_json() if p.path_b is not None else None, equal=equal,
        )
    return equal, "nonzero", record


def _check_globalization(p: _Param, target: Signature, pos, aq, emit: bool) -> Case:
    """Deformation shadow holds at every nonzero lift in the window."""
    if pos[3] is not None:
        return True, "vanishing", None
    shadow, m = p.shadow, target.n
    if shadow is None:
        shadow = p.shadow = _Globalization(p.lam, p.split, p.transfer)
    if shadow.m != m:  # at the step t = ceil((m - n + 1)/2) + 1
        shadow.resize(_ctx(p.lam, p.m0, p.n0, m), (m - p.n) // 2 + 2)
    flags = shadow.at(target, aq == p.path_b)
    passed = all(flags)
    record = None
    if emit or not passed:
        report = GlobalizationReport(shadow.t, shadow.lam_plus, *flags)
        record = p.record(
            "globalization", target=_sig_json(target), t=report.t, report=report.to_json()
        )
    return passed, "nonzero", record


def _check_persistence(p: _Param, target: Signature, pos, aq, emit: bool) -> Case:
    """Nonvanishing persists one step up the tower."""
    if pos[3] is not None:
        return True, "vanishing", None
    # forms[m + 2][p + 1] is the target one step up, (p + 1, q + 1).
    up = p.tower.decide(p.forms[target.n + 2][target.p + 1])[3] is None
    record = None
    if emit or not up:
        record = p.record("persistence", target=_sig_json(target), ok=up)
    return up, "nonzero", record


def _check_li(p: _Param, target: Signature, pos, aq, emit: bool) -> Case:
    """The sufficiency bound implies occurrence with empty windows."""
    if not _li_fits(p.split, p.n, target):
        return True, "not_sufficient", None
    l, t, swapped, reason = pos if pos is not None else p.tower.decide(target)
    inv = p.tower.dual_inv if swapped else p.tower.inv
    counts_zero = c_count(inv, +1, l + t) == 0 and c_count(inv, -1, l + t) == 0
    ok = reason is None and counts_zero
    record = None
    if emit or not ok:
        target_json = _sig_json(target)
        record = p.record("li", target=target_json, occurs=reason is None, counts_zero=counts_zero)
    return ok, "sufficient", record


def _check_round_trip(p: _Param, target: Signature, pos, sigma, emit: bool) -> Case:
    """Lift down, lift back up, compare characters and parameters."""
    if pos[3] is not None:
        return True, "vanishing", None
    # The reverse lift's occurrence is part of what is checked, so it
    # goes through the public, checking lift_up. Its refusal of a
    # vanishing lift is a failed case here: the lift down was nonzero,
    # so the occurrence rule contradicts itself; that is no input error.
    try:
        back = lift_up(sigma, _ctx(p.lam, p.m0, p.n0, target.n).reversed(), p.lam.sig)
    except PreconditionViolation as err:
        return False, "reverse_vanishes", p.record(
            "round_trip", target=_sig_json(target), sigma=sigma.to_json(), reverse_lift=str(err)
        )
    inf_ok = tuple(sorted(p.lam.entries_tw, reverse=True)) == _aq_infinitesimal_twices(back)
    ds_ok = True
    try:
        ds_ok = aq_to_discrete_series(back) == p.lam
        ds_status = "match" if ds_ok else "wrong_parameter"
    except ChamberAmbiguous:
        ds_status = "chamber_ambiguous"
    except NotCompactLevi:
        ds_status = "not_compact"
    except NotGoodRange:
        ds_status = "not_good_range"
    ok = inf_ok and ds_ok
    record = None
    if emit or not ok:
        record = p.record(
            "round_trip", target=_sig_json(target), sigma=sigma.to_json(),
            inf_char_ok=inf_ok, ds_status=ds_status,
        )
    return ok, ds_status, record


def _check_duality(p: _Param, emit: bool) -> Case:
    """Conjugate-dual invariants and occurrence symmetry, on the walk's decisions."""
    lam, m0, forms = p.lam, p.m0, p.forms
    dual = _conjugate_dual_m0(lam, m0)
    involution_ok = _conjugate_dual_m0(dual, m0) == lam
    inv = p.tower.inv
    inv_d = invariants(dual, m0, p.k0)
    k_ok = inv_d.k_lambda == inv.k_lambda
    rs_ok = (inv_d.r_lambda, inv_d.s_lambda) == (inv.s_lambda, inv.r_lambda)
    # lam is dual's conjugate dual whenever the involution holds. lam's
    # tower read the dual's invariants from lam's shifted parts, so the
    # occurrence match also compares the two derivations. A tower's two
    # orientations must swap (r_lambda, s_lambda), so a dual that fails
    # rs_ok gets its own conjugate dual's invariants instead.
    tower_d = _Tower(dual, m0, p.k0, inv_d, inv if involution_ok and rs_ok else None)
    decide = tower_d.decide
    # forms[m] runs (0, m), ..., (m, 0), so reversed it lists the transposes.
    transposed = itertools.chain.from_iterable(reversed(forms[m]) for m in p.ups)
    occ_ok = [decide(target)[3] is None for target in transposed] == p.occurs
    ok = involution_ok and k_ok and rs_ok and occ_ok
    record = None
    if emit or not ok:
        record = p.record(
            "duality", dual=dual.to_json(), involution_ok=involution_ok, k_ok=k_ok,
            rs_swap_ok=rs_ok, occurs_match=occ_ok,
        )
    return ok, "checked", record


def _check_enumerate(p: _Param, target: Signature, pos, lifted, emit: bool) -> Case:
    """The lift's decision and value, as an enumerate record; never fails."""
    nonzero = pos[3] is None
    if not nonzero:
        result = LiftResult.vanishes()
    elif target.n < p.n:
        result = LiftResult.discrete_series(lifted)
    else:
        result = LiftResult.weakly_fair(lifted)
    record = None
    if emit:
        record = {"lambda": p.lam.to_json(), "m0": p.m0, "n0": p.n0, "target": _sig_json(target),
                  "occurs": nonzero, "position": TowerPosition(*pos).to_json(),
                  "result": result.to_json()}
    return True, "nonzero" if nonzero else "vanishing", record


# name: (check, where it runs): on the down or up targets, or once per
# parameter ("last"), after its last target.
_CHECKS = {
    "two_path": (_check_two_path, ("up",)), "globalization": (_check_globalization, ("up",)),
    "persistence": (_check_persistence, ("up",)), "li": (_check_li, ("up",)),
    "round_trip": (_check_round_trip, ("down",)), "duality": (_check_duality, ("last",)),
    "enumerate": (_check_enumerate, ("down", "up")),
}


def walk(bounds: EnumerationBounds, emit: bool = True, *, names: Sequence[str]) -> Iterator[Tagged]:
    """The named checks on the window: (i, case) pairs, i the check's index in names.

    Per parameter: the down targets, sizes descending, then the up targets,
    ascending, each with its checks in the order of names; then the
    per-parameter checks. A target is decided at most once, up front
    unless li runs alone, and lifted at most once, by _lift_down or path
    A, and, for two_path or globalization, once by path B into p.path_b.
    A per-form check takes the _Param, the target, its decision
    (l, t, swapped, reason) or None, the lift or None, and emit.
    """
    down, up, last = (
        [(i, _CHECKS[name][0]) for i, name in enumerate(names) if where in _CHECKS[name][1]]
        for where in ("down", "up", "last")
    )
    # duality reads every up target's decision.
    decide_up = bool(last) or any(names[i] != "li" for i, _ in up)
    route_b = "two_path" in names or "globalization" in names
    lifts_up = route_b or "enumerate" in names
    forms = _forms_table(bounds)
    for lam, k0, m0, n0 in iter_params(bounds):
        p = _Param(lam, k0, m0, n0, forms, bounds.max_m_minus_n)
        if down:
            decide = p.tower.decide
            for m in p.downs:
                ctx = _ctx(lam, m0, n0, m)
                for target in forms[m]:
                    pos = decide(target)
                    sigma = _lift_down(lam, ctx, target) if pos[3] is None else None
                    for i, check in down:
                        yield i, check(p, target, pos, sigma, emit)
        if up or last:
            decide = p.tower.decide if decide_up else None
            occurs, lift = p.occurs.append, None
            for m in p.ups:
                for target in forms[m]:
                    pos = aq = None
                    if decide_up:
                        pos = decide(target)
                        occurs(pos[3] is None)
                        if lifts_up and pos[3] is None:
                            if lift is None:
                                ctx = _ctx(lam, m0, n0, m)
                                lift = _LiftUp(lam, ctx)
                                if route_b:
                                    p.transfer = _Transfer(lam, ctx)
                                    units = _sigma_units(p.transfer.phi_p, p.transfer.tail)
                            aq = lift.at(target)
                            if route_b:
                                p.path_b = units.at(p.transfer.e0_at(target), target)
                    for i, check in up:
                        yield i, check(p, target, pos, aq, emit)
        for i, check in last:
            yield i, check(p, emit)


def _suite(bounds: EnumerationBounds, emit: bool = True, *, name: str) -> Iterator[Case]:
    """One check's cases from the walk, untagged: a SUITES entry."""
    return map(itemgetter(1), walk(bounds, emit, names=(name,)))


def suite_eta_prime(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """Closed form versus product form of the sign gate, exhaustively.

    The gate depends on the parameter only through (n, m, i0) and the
    tie flag, so the full character-by-target table is computed once per
    class, on the class's first phi'; that table is the check, and it
    raises on a split between the two forms or on a tie breach that the
    gate lets pass. Each enumerated parameter's case then yields True and
    reports its class's counts of checked and tie-skipped pairs; the
    parameter is not checked again. Each phi' is valid by construction
    (m > n, values of the right parity taken from a descending universe
    in order), so it is stored through AParameter._from_checked.
    """
    class_ok: dict[tuple[int, int, int, bool], tuple[int, int]] = {}
    H = bounds.height.twice
    for n in range(1, bounds.max_n + 1):
        for dm in range(1, bounds.max_m_minus_n + 1):
            m = n + dm
            mu_univ = _value_universe(H, (m - 1) % 2)
            mu0_univ = _value_universe(H, n % 2)
            for mus in itertools.combinations(mu_univ, n):
                for mu0 in mu0_univ:
                    phi_p = AParameter._from_checked(mus, mu0, m)
                    key = (n, m, phi_p.i0, phi_p.tie_at_i0)
                    if key not in class_ok:
                        checked = 0
                        skipped = 0
                        for eta_p in SignCharacter.every(n + 1):
                            if phi_p.tie_at_i0 and eta_p.values[0] != eta_p.values[phi_p.i0]:
                                # The coupled constraint must reject these.
                                try:
                                    eta_prime_sign_ok(phi_p, eta_p, Signature(m, 0))
                                except MalformedCharacter:
                                    skipped += 1
                                    continue
                                raise InternalError(
                                    f"tie constraint not enforced at (n, m, i0) = "
                                    f"({n}, {m}, {phi_p.i0}) for character {eta_p}"
                                )
                            for r in range(m + 1):
                                # Raises InternalLemmaMismatch on any split.
                                eta_prime_sign_ok(phi_p, eta_p, Signature(r, m - r))
                                checked += 1
                        class_ok[key] = (checked, skipped)
                    checked, skipped = class_ok[key]
                    record = None
                    if emit:
                        record = {
                            "suite": "eta_prime",
                            "mu": [half_text(t) for t in mus],
                            "mu0": half_text(mu0),
                            "m": m,
                            "i0": phi_p.i0,
                            "checks": checked,
                            "tie_skipped": skipped,
                            "ok": True,
                        }
                    yield True, "checked", record


def suite_packets(bounds: EnumerationBounds, emit: bool = True) -> Iterator[Case]:
    """pi_from_eta and eta_from_pi are mutually inverse, all characters.

    One _Members per parameter builds the members in bit order, each
    from a low and a high half-member, as the packet command does.
    """
    for n in range(1, bounds.max_n + 1):
        universe = _value_universe(bounds.height.twice, (n - 1) % 2)
        for combo in itertools.combinations(universe, n):
            phi = LParameter.from_twices(combo)
            all_ok = True
            for values, sig, lam in _Members(phi):
                phi_back, eta_back = eta_from_pi(lam)
                if phi_back != phi or eta_back.values != values or sig != lam.sig:
                    all_ok = False
                    break
            record = None
            if emit or not all_ok:
                record = {
                    "suite": "packets",
                    "kappa": [half_text(t) for t in combo],
                    "members": 1 << n,
                    "ok": all_ok,
                }
            yield all_ok, "checked", record


def _weight_runs(length: int, height: int, positive: bool) -> list[tuple[int, ...]]:
    values = range(height, 0, -1) if positive else range(-1, -height - 1, -1)
    return [
        tuple(run)
        for run in itertools.combinations_with_replacement(values, length)
    ]


def suite_ktypes(emit: bool = True, max_run: int = 2, height: int = 3) -> Iterator[Case]:
    """K-type correspondence round trip, injectivity, r - s dependence.

    Everything that depends only on the group (p, q, r, s) is built once
    per group, in a _KTypeGroup: three _KTypeMap objects, the forward
    map, the back map in the reverse context and the map pushed up to
    r + s + 2, each with its dimension checks, shifts and offsets. Each
    case cuts its weight once, for the forward and push-up maps, and its
    partner once, for the back map and the injectivity test; the maps
    check each partner's lengths and the seams between its slices.

    The grid's outermost loop is the run shape (x, y, z, w), the lengths
    of mu's runs a, b, c, d, so each shape's cases are contiguous. The
    injectivity bookkeeping, one set of partners per group, lives for
    one shape and is dropped when the shape ends; its memory is that of
    the largest shape, not of the grid. That still proves injectivity
    over the whole group: each case also checks that its partner has the
    runs the correspondence gives that shape, lengths (x, w) and (z, y)
    around the back map's shifts, so partners of two shapes never
    coincide.
    """
    runs_pos = {k: _weight_runs(k, height, True) for k in range(max_run + 1)}
    runs_neg = {k: _weight_runs(k, height, False) for k in range(max_run + 1)}
    groups: dict[tuple[int, int, int, int], _KTypeGroup] = {}
    for x, y, z, w in itertools.product(range(max_run + 1), repeat=4):
        # Per group of this shape: the partner's cut indices at the back
        # map's shifts, and the partners seen so far. Rebinding drops the
        # last shape's sets.
        shape_groups = []
        for pad_p, pad_q, er, es in itertools.product((0, 1), repeat=4):
            p, q, r, s = x + y + pad_p, z + w + pad_q, x + w + er, z + y + es
            if p + q == 0 or r + s == 0:
                continue
            key = (p, q, r, s)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _KTypeGroup(p, q, r, s)
            shape_groups.append((group, ((x, r - w), (z, s - y)), set()))
        for a in runs_pos[x]:
            for b in runs_neg[y]:
                for c in runs_pos[z]:
                    for d in runs_neg[w]:
                        for group, cuts, seen in shape_groups:
                            yield _ktype_case(a, b, c, d, group, cuts, seen, emit)


class _KTypeGroup:
    """The correspondence maps of one (p, q, r, s) group of the K-type grid.

    forward maps U(p, q) to U(r, s), back maps U(r, s) to U(p, q) in
    the reversed context, and up maps U(p, q) to U(r + 1, s + 1), one
    plane up the tower. forward and up have the same r - s, so the same
    shifts: a weight's cuts at forward serve up too, and a partner's
    cuts at back serve the injectivity test. The group holds no
    injectivity bookkeeping: that is scoped to one run shape in
    suite_ktypes, so no group keeps partners after its shape ends.
    """

    __slots__ = ("forward", "back", "up")

    def __init__(self, p: int, q: int, r: int, s: int) -> None:
        m0, n0 = (r + s) % 2, (p + q) % 2
        source, target = Signature(p, q), Signature(r, s)
        ctx = LiftContext(m0, n0, p + q, r + s)
        self.forward = _KTypeMap(source, ctx, target)
        self.back = _KTypeMap(target, ctx.reversed(), source)
        self.up = _KTypeMap(
            source, LiftContext(m0, n0, p + q, r + s + 2), Signature(r + 1, s + 1)
        )


def _same_runs(
    u: tuple[int, ...], v: tuple[int, ...], v_cut: tuple[int, int], shift: int
) -> bool:
    """Whether u has the runs above and below shift that v has, cut at v_cut."""
    iu, ju = _cut(u, shift)
    iv, jv = v_cut
    return u[:iu] == v[:iv] and u[ju:] == v[jv:]


def _ktype_case(a, b, c, d, group: _KTypeGroup, cuts, seen: set, emit: bool) -> Case:
    forward, back_map = group.forward, group.back
    sh_a, sh_b = forward.sh_a, forward.sh_b
    source, target = forward.source, forward.target
    zeros_a = source.p - len(a) - len(b)
    zeros_b = source.q - len(c) - len(d)
    # Valid by construction: positive runs, zeros and negative runs, each
    # weakly decreasing and moved by one shift, filling the source form.
    mu = KType._from_checked(
        source,
        tuple([v + sh_a for v in a] + [sh_a] * zeros_a + [v + sh_a for v in b]),
        tuple([v + sh_b for v in c] + [sh_b] * zeros_b + [v + sh_b for v in d]),
    )
    mu_a, mu_b = mu.a_weights, mu.b_weights
    mu_cuts = forward.cut(mu_a, mu_b)
    mu_prime = forward.at(mu_a, mu_b, mu_cuts)
    if mu_prime is None:
        return False, "missing", {
            "suite": "ktypes",
            "mu": mu.to_json(),
            "target": _sig_json(target),
            "ok": False,
            "why": "expected a partner inside capacity",
        }
    pa, pb = mu_prime.a_weights, mu_prime.b_weights
    partner_cuts = back_map.cut(pa, pb)
    back = back_map.at(pa, pb, partner_cuts)
    round_ok = back == mu

    # Injectivity within this (p,q,r,s) group: the partner has this
    # shape's runs, and no other weight of the shape had it. The grid
    # visits each weight once per group, so a partner already seen came
    # from another weight.
    partner = (pa, pb)
    inj_ok = partner_cuts == cuts and partner not in seen
    seen.add(partner)

    # Same pattern, target pushed up the tower: partner differs only in
    # zero padding (the r - s dependence).
    mu2 = group.up.at(mu_a, mu_b, mu_cuts)
    pad_ok = (
        mu2 is not None
        and _same_runs(mu2.a_weights, pa, partner_cuts[0], back_map.sh_a)
        and _same_runs(mu2.b_weights, pb, partner_cuts[1], back_map.sh_b)
    )

    ok = round_ok and inj_ok and pad_ok
    record = None
    if emit or not ok:
        record = {
            "suite": "ktypes",
            "mu": mu.to_json(),
            "target": _sig_json(target),
            "mu_prime": mu_prime.to_json(),
            "round_trip_ok": round_ok,
            "injective_ok": inj_ok,
            "padding_ok": pad_ok,
        }
    return ok, "checked", record


SUITES: dict[str, Callable[..., Iterator[Case]]] = {
    name: partial(_suite, name=name) for name in _CHECKS if name != "enumerate"
}
SUITES.update(eta_prime=suite_eta_prime, packets=suite_packets)


class SuiteSummary(_Value):
    """Counts from one suite run; tags defaults to a new empty dict."""

    __slots__ = ("name", "cases", "failures", "tags")

    def __init__(
        self, name: str, cases: int = 0, failures: int = 0, tags: dict[str, int] | None = None
    ) -> None:
        self.name = name
        self.cases = cases
        self.failures = failures
        self.tags = {} if tags is None else tags


def run_suite(
    name: str,
    bounds: EnumerationBounds,
    emit: bool = False,
    sink: Callable[[dict], None] | None = None,
) -> SuiteSummary:
    """Drive one registered suite at the given bounds, counting cases and failures."""
    return tally(name, SUITES[name](bounds, emit), sink)


def run_suites(
    names: Sequence[str],
    bounds: EnumerationBounds,
    emit: bool = False,
    sink: Callable[[dict], None] | None = None,
) -> list[SuiteSummary]:
    """Drive distinct checks of the walk through one walk: one summary per name, in order."""
    if not set(names) <= _CHECKS.keys() or len(set(names)) != len(names):
        raise ValueError(
            f"run_suites takes distinct names among the walk's checks "
            f"({', '.join(_CHECKS)}), got {list(names)}"
        )
    return _count([SuiteSummary(name) for name in names], walk(bounds, emit, names=names), sink)


def tally(
    name: str, cases: Iterable[Case], sink: Callable[[dict], None] | None = None
) -> SuiteSummary:
    """Count the cases, failures and tags of any case stream; pass records to sink."""
    return _count([SuiteSummary(name)], zip(itertools.repeat(0), cases), sink)[0]


def _count(
    summaries: list[SuiteSummary], cases: Iterable[Tagged], sink: Callable[[dict], None] | None
) -> list[SuiteSummary]:
    """Count a stream of (i, case) pairs, each case under summaries[i]."""
    for i, (ok, tag, record) in cases:
        summary = summaries[i]
        summary.cases += 1
        summary.tags[tag] = summary.tags.get(tag, 0) + 1
        if not ok:
            summary.failures += 1
        if sink is not None and record is not None:
            sink(record)
    return summaries


def iter_enumeration(bounds: EnumerationBounds) -> Iterator[dict]:
    """The lift decisions of the window, as JSON-ready records.

    The walk's enumerate check: for each parameter of size n it visits
    every target size of the tower's parity below n, descending, then
    those from n + 1 to n + max_m_minus_n, ascending; the equal-rank size
    m = n is skipped.
    """
    return (record for _i, (_ok, _tag, record) in walk(bounds, names=("enumerate",)))
