"""Joint-harmonics weight correspondence and the compact-pair split."""

import gc
import hashlib
import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalift import (
    KType,
    LiftContext,
    PatternMismatch,
    PreconditionViolation,
    Signature,
    correspond_ktype,
    split_mu,
)
from thetalift import ktypes
from thetalift.suites import suite_ktypes, tally


CTX = LiftContext(0, 0, 2, 2)
TARGET = Signature(2, 0)


def test_ktype_validation():
    KType(Signature(2, 1), (3, 3), (-1,))
    with pytest.raises(ValueError, match="weight lengths must match the signature"):
        KType(Signature(2, 1), (3,), (-1,))
    with pytest.raises(ValueError, match="a-weights must weakly decrease"):
        KType(Signature(2, 0), (1, 2), ())
    with pytest.raises(ValueError, match="b-weights must weakly decrease"):
        KType(Signature(1, 3), (5,), (2, 2, 3))
    assert KType(Signature(1, 1), (1,), (-1,)).to_json() == {"a": [1], "b": [-1]}


def test_correspond_zero_pattern():
    mu = KType(Signature(1, 1), (1,), (-1,))
    out = correspond_ktype(mu, CTX, TARGET)
    assert out == KType(TARGET, (0, 0), ())


def test_correspond_positive_entry():
    mu = KType(Signature(1, 1), (3,), (-1,))
    out = correspond_ktype(mu, CTX, TARGET)
    assert out == KType(TARGET, (2, 0), ())


def test_correspond_capacity_none():
    # the shifted second part turns positive but s = 0 has no room
    mu = KType(Signature(1, 1), (1,), (3,))
    assert correspond_ktype(mu, CTX, TARGET) is None


def test_correspond_round_trip():
    for weights in ((1, -1), (3, -1), (1, -3), (5, -5)):
        mu = KType(Signature(1, 1), weights[:1], weights[1:])
        out = correspond_ktype(mu, CTX, TARGET)
        if out is None:
            continue
        back = correspond_ktype(out, CTX.reversed(), Signature(1, 1))
        assert back == mu


def test_correspond_depends_on_r_minus_s_only():
    # same r - s, larger target: identical pattern decision, padded output
    mu = KType(Signature(1, 1), (3,), (-1,))
    small = correspond_ktype(mu, LiftContext(0, 0, 2, 2), Signature(2, 0))
    big = correspond_ktype(mu, LiftContext(0, 0, 2, 4), Signature(3, 1))
    assert small is not None and big is not None
    assert [w for w in big.a_weights if w != 0] == [
        w for w in small.a_weights if w != 0
    ]


def test_split_mu_worked_case():
    mu = KType(Signature(1, 1), (3,), (-1,))
    mu1, mu2 = split_mu(mu, CTX, TARGET)
    assert mu1 == KType(Signature(1, 1), (3,), (-1,))
    assert mu2 == KType(Signature(1, 1), (0,), (0,))


def test_split_mu_zero_pattern_gives_pure_shifts():
    mu = KType(Signature(1, 1), (1,), (-1,))
    mu1, mu2 = split_mu(mu, CTX, TARGET)
    assert mu1 == KType(Signature(1, 1), (1,), (-1,))
    assert mu2 == KType(Signature(1, 1), (0,), (0,))


def test_split_mu_parity_guard():
    mu = KType(Signature(1, 1), (3,), (-1,))
    with pytest.raises(PatternMismatch):
        split_mu(mu, CTX, TARGET, m1=1, m2=-1)
    with pytest.raises(PatternMismatch):
        split_mu(mu, CTX, TARGET, m1=2, m2=0)


def test_split_mu_needs_matching_pattern():
    mu = KType(Signature(1, 1), (1,), (3,))  # fails the capacity test
    with pytest.raises(PatternMismatch):
        split_mu(mu, CTX, TARGET)


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(st.integers(1, 4), min_size=0, max_size=2),
    st.lists(st.integers(-4, -1), min_size=0, max_size=2),
)
def test_correspond_round_trip_property(extra_p, extra_q, pos, neg):
    pos = sorted(pos, reverse=True)
    neg = sorted(neg, reverse=True)
    p = len(pos) + extra_p
    q = len(neg) + extra_q
    if p + q == 0 or (p + q) % 2:
        return
    src = Signature(p, q)
    mu = KType(src, tuple(pos) + (0,) * extra_p, (0,) * extra_q + tuple(neg))
    target = Signature(p + q, 0)
    ctx = LiftContext((p + q) % 2, (p + q) % 2, p + q, p + q)
    out = correspond_ktype(mu, ctx, target)
    if out is None:
        return
    back = correspond_ktype(out, ctx.reversed(), src)
    assert back == mu


def _reference_runs(mu, shift_a, shift_b):
    # The filter reader: shift each part, keep its positives and negatives.
    sa = [v - shift_a for v in mu.a_weights]
    sb = [v - shift_b for v in mu.b_weights]
    return (
        [v for v in sa if v > 0],
        [v for v in sa if v < 0],
        [v for v in sb if v > 0],
        [v for v in sb if v < 0],
    )


def _reference_correspond(mu, ctx, target):
    r, s = target.p, target.q
    p, q = mu.sig.p, mu.sig.q
    a, b, c, d = _reference_runs(
        mu, (r - s + ctx.m0) // 2, (s - r + ctx.m0) // 2
    )
    if len(a) + len(d) > r or len(c) + len(b) > s:
        return None
    oa, ob = (p - q + ctx.n0) // 2, (q - p + ctx.n0) // 2
    return KType(
        target,
        tuple(v + oa for v in a + [0] * (r - len(a) - len(d)) + d),
        tuple(v + ob for v in c + [0] * (s - len(c) - len(b)) + b),
    )


def _reference_split(mu, ctx, target, m1, m2):
    r, s = target.p, target.q
    p, q = mu.sig.p, mu.sig.q
    m1 = r % 2 if m1 is None else m1
    m2 = ctx.m0 - m1 if m2 is None else m2
    if (m1 - r) % 2:
        return f"m1={m1} must have the parity of r={r}"
    if (m2 - s) % 2:
        return f"m2={m2} must have the parity of s={s}"
    if m1 + m2 != ctx.m0:
        return f"m1 + m2 must equal m0={ctx.m0}, got {m1}+{m2}"
    a, b, c, d = _reference_runs(
        mu, (r - s + ctx.m0) // 2, (s - r + ctx.m0) // 2
    )
    if len(a) + len(d) > r or len(c) + len(b) > s:
        return f"pattern ({len(a)},{len(b)},{len(c)},{len(d)}) does not fit target {target}"
    sh1, sh1neg = (r + m1) // 2, (m1 - r) // 2
    sh2, sh2pos = (m2 - s) // 2, (s + m2) // 2
    return (
        KType(
            mu.sig,
            tuple(v + sh1 for v in a + [0] * (p - len(a))),
            tuple(v + sh1neg for v in [0] * (q - len(d)) + d),
        ),
        KType(
            mu.sig,
            tuple(v + sh2 for v in [0] * (p - len(b)) + b),
            tuple(v + sh2pos for v in c + [0] * (q - len(c))),
        ),
    )


_parts = st.lists(st.integers(-6, 6), max_size=4).map(
    lambda part: tuple(sorted(part, reverse=True))
)
_maybe_exponent = st.none() | st.integers(-5, 5)


@settings(max_examples=400, deadline=None)
@given(
    _parts,
    _parts,
    st.integers(0, 9).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))),
    st.integers(-3, 3),
    st.integers(-3, 3),
    _maybe_exponent,
    _maybe_exponent,
)
def test_correspond_and_split_at_non_minimal_exponents(a, b, size, i, j, m1, m2):
    m, r = size
    mu = KType(Signature(len(a), len(b)), a, b)
    n = mu.sig.n
    ctx = LiftContext(m % 2 + 2 * i, n % 2 + 2 * j, n, m)
    target = Signature(r, m - r)
    assert correspond_ktype(mu, ctx, target) == _reference_correspond(mu, ctx, target)
    expected = _reference_split(mu, ctx, target, m1, m2)
    try:
        got = split_mu(mu, ctx, target, m1, m2)
    except PatternMismatch as exc:
        got = str(exc)
    assert got == expected


def test_ktype_suite_counts_at_the_benchmark_window():
    summary = tally("ktypes", suite_ktypes(emit=False, max_run=1, height=3))
    assert summary.failures == 0
    assert summary.cases == 4089
    assert summary.tags == {"checked": 4089}


def test_ktype_suite_records_are_pinned_at_the_benchmark_window():
    rows = [
        json.dumps(record, separators=(",", ":"))
        for _ok, _tag, record in suite_ktypes(emit=True, max_run=1, height=3)
    ]
    assert len(rows) == 4089
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "5b5cb5813849f5fb8148a2d9b73bfd629d3bbee9492dd36e239df4b22c36888d"


def test_ktype_grid_memory_tracks_one_run_shape():
    # The injectivity bookkeeping lives for one run shape (x, y, z, w), so
    # the bound tracks the largest shape, not the grid: here (1, 1, 1, 1),
    # 81 weights in each of 16 groups, out of 4089 cases. Keeping every
    # group's partners until the grid ends peaks near 1.5 MB at this window.
    gc.collect()
    tracemalloc.start()
    try:
        summary = tally("ktypes", suite_ktypes(emit=False, max_run=1, height=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.cases == 4089
    assert peak < 768 * 1024, f"{peak} bytes traced at the peak of the grid"


def _grid_failures(monkeypatch, rewrite):
    """Run a small K-type grid with its partner builds routed through rewrite.

    Per case the grid asks its group's forward map for mu's partner and,
    when there is one, the back map for the partner's, then the push-up
    map for mu's again. rewrite(kind, real, mu, kmap) answers each call,
    kind being "forward", "back" or "up", mu the weight asked about as a
    KType and real(weight) the map's own answer for any weight. Returns
    the summary and the records of the failing cases.
    """
    real_at = ktypes._KTypeMap.at
    state = {"next": "forward"}

    def patched(kmap, a, b, cuts=None):
        kind = state["next"]
        out = rewrite(
            kind, lambda mu: real_at(kmap, mu.a_weights, mu.b_weights), KType(kmap.source, a, b), kmap
        )
        if kind == "forward":
            state["next"] = "forward" if out is None else "back"
        else:
            state["next"] = "up" if kind == "back" else "forward"
        return out

    monkeypatch.setattr(ktypes._KTypeMap, "at", patched)
    records = []
    summary = tally("ktypes", suite_ktypes(emit=False, max_run=1, height=2), records.append)
    assert summary.failures > 0
    assert len(records) == summary.failures
    return summary, records


def _shifted(mu, da, db):
    return KType(
        mu.sig,
        tuple(v + da for v in mu.a_weights),
        tuple(v + db for v in mu.b_weights),
    )


def test_grid_flags_a_broken_round_trip(monkeypatch):
    def rewrite(kind, real, mu, kmap):
        out = real(mu)
        return _shifted(out, 1, 1) if kind == "back" else out

    summary, records = _grid_failures(monkeypatch, rewrite)
    assert summary.failures == summary.cases
    for record in records:
        assert (record["round_trip_ok"], record["injective_ok"], record["padding_ok"]) == (
            False, True, True,
        )


def test_grid_flags_two_weights_with_one_partner(monkeypatch):
    # Every weight of the first group is answered as that group's first
    # weight, and the round trip leads back to the weight that asked.
    state = {}

    def rewrite(kind, real, mu, kmap):
        if kind == "forward":
            state.setdefault("group", (kmap.source, kmap.target))
            state.setdefault("first", mu)
            state["mu"] = mu
            state["hit"] = state["group"] == (kmap.source, kmap.target)
        if not state["hit"]:
            return real(mu)
        if kind == "back":
            return state["mu"]
        return real(state["first"])

    _summary, records = _grid_failures(monkeypatch, rewrite)
    for record in records:
        assert (record["round_trip_ok"], record["injective_ok"], record["padding_ok"]) == (
            True, False, True,
        )


def test_grid_flags_a_partner_of_another_run_shape(monkeypatch):
    # In the group U(1, 1) -> U(1, 1) both shifts are 0, so a weight's runs
    # are its nonzero entries. The group's first weight is (0; 0), of run
    # shape (0, 0, 0, 0); its second is of another shape and is answered
    # with the first one's partners. No other weight of that second shape
    # shares the partner, so only the run-shape check can see it.
    group = (Signature(1, 1), Signature(1, 1))
    state = {"weights": [], "hit": False}

    def rewrite(kind, real, mu, kmap):
        if kind == "forward":
            in_group = (kmap.source, kmap.target) == group
            state["hit"] = in_group and len(state["weights"]) == 1
            if in_group:
                state["weights"].append(mu)
        if not state["hit"]:
            return real(mu)
        first, hit = state["weights"]
        if kind == "back":
            return hit
        return real(first)

    _summary, records = _grid_failures(monkeypatch, rewrite)
    first, hit = state["weights"][:2]
    assert (first.a_weights, first.b_weights) == ((0,), (0,))
    assert any(hit.a_weights + hit.b_weights)
    (record,) = records
    assert record["mu"] == hit.to_json()
    assert (record["round_trip_ok"], record["injective_ok"], record["padding_ok"]) == (
        True, False, True,
    )


def test_grid_flags_a_run_moved_up_the_tower(monkeypatch):
    def rewrite(kind, real, mu, kmap):
        out = real(mu)
        return _shifted(out, 1, 0) if kind == "up" else out

    summary, records = _grid_failures(monkeypatch, rewrite)
    assert summary.failures == summary.cases
    for record in records:
        assert (record["round_trip_ok"], record["injective_ok"], record["padding_ok"]) == (
            True, True, False,
        )


def _grid_cases():
    """(mu, ctx, target) for every row of _grid_rows, in its order.

    Sources are the K-types of U(p, q) with 1 <= p + q <= 3 and weights
    in -3..3; targets are every (r, s) with r + s <= 4.
    """
    weights = range(3, -4, -1)
    for n in range(1, 4):
        for p in range(n + 1):
            for a in itertools.combinations_with_replacement(weights, p):
                for b in itertools.combinations_with_replacement(weights, n - p):
                    mu = KType(Signature(p, n - p), a, b)
                    for m in range(5):
                        ctx = LiftContext(m % 2, n % 2, n, m)
                        for r in range(m + 1):
                            yield mu, ctx, Signature(r, m - r)


def _grid_rows():
    """One JSON row per (K-type, target): the partner and the split, or its error."""
    for mu, ctx, target in _grid_cases():
        partner = correspond_ktype(mu, ctx, target)
        try:
            split = [k.to_json() for k in split_mu(mu, ctx, target)]
        except PatternMismatch as exc:
            split = [type(exc).__name__, str(exc)]
        row = [
            mu.to_json(),
            [target.p, target.q],
            partner.to_json() if partner is not None else None,
            split,
        ]
        yield json.dumps(row, separators=(",", ":"))


def test_correspondence_and_split_are_pinned_on_a_grid():
    rows = list(_grid_rows())
    assert len(rows) == 10185
    assert sum(1 for row in rows if json.loads(row)[2] is None) == 7752
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "7e7939685528e89f820899326cdd34bf6cfb6cb68e398f1e3d785e8fc239d612"


def _assert_validated_build(k):
    """k equals the KType that the validating constructor builds from its fields.

    Same class, field types, fields and hash.
    """
    ref = KType(
        Signature(k.sig.p, k.sig.q),
        tuple([int(v) for v in k.a_weights]),
        tuple([int(v) for v in k.b_weights]),
    )
    assert type(k) is KType and type(k.sig) is Signature
    for part in (k.a_weights, k.b_weights):
        assert type(part) is tuple and all(type(v) is int for v in part)
    assert (k.sig, k.a_weights, k.b_weights) == (ref.sig, ref.a_weights, ref.b_weights)
    assert k == ref and hash(k) == hash(ref)


def _assert_partners_validated(mu, ctx, target):
    """The partner of mu, its back partner and its push-up partner are validated builds.

    Returns the partner, None when mu has none at target.
    """
    partner = correspond_ktype(mu, ctx, target)
    if partner is None:
        return None
    back = correspond_ktype(partner, ctx.reversed(), mu.sig)
    up_ctx = LiftContext(ctx.m0, ctx.n0, ctx.source_dim, ctx.target_dim + 2)
    up = correspond_ktype(mu, up_ctx, Signature(target.p + 1, target.q + 1))
    for k in (partner, back, up):
        _assert_validated_build(k)
    assert back == mu
    return partner


def test_grid_partners_equal_validated_builds(monkeypatch):
    # The grid's own partner builds, which pass in the cuts they have,
    # and then the same partners through the public function.
    built = []
    real_at = ktypes._KTypeMap.at

    def spy(kmap, a, b, cuts=None):
        built.append(real_at(kmap, a, b, cuts))
        return built[-1]

    monkeypatch.setattr(ktypes._KTypeMap, "at", spy)
    records = [record for _ok, _tag, record in suite_ktypes(emit=True, max_run=1, height=3)]
    monkeypatch.undo()
    assert len(records) == 4089
    assert len(built) == 3 * 4089
    for k in built:
        _assert_validated_build(k)
    for record in records:
        source = Signature(len(record["mu"]["a"]), len(record["mu"]["b"]))
        target = Signature(*record["target"])
        mu = KType(source, tuple(record["mu"]["a"]), tuple(record["mu"]["b"]))
        ctx = LiftContext(target.n % 2, source.n % 2, source.n, target.n)
        partner = _assert_partners_validated(mu, ctx, target)
        assert partner.to_json() == record["mu_prime"]


def test_pinned_grid_partners_equal_validated_builds():
    partners = [_assert_partners_validated(*case) for case in _grid_cases()]
    assert len(partners) == 10185
    assert partners.count(None) == 7752


def test_map_hands_a_broken_seam_to_the_validating_constructor():
    # U(1, 1) -> U(2, 0): the a-part is (3 - 1, pad) = (2, 0).
    kmap = ktypes._KTypeMap(Signature(1, 1), CTX, TARGET)
    assert kmap.at((3,), (-1,)) == KType(TARGET, (2, 0), ())
    kmap.ka -= 3
    with pytest.raises(ValueError, match="^a-weights must weakly decrease$"):
        kmap.at((3,), (-1,))
    # U(1, 1) -> U(0, 2): the b-part is (3 - 1, -3 + 1) = (2, -2).
    target = Signature(0, 2)
    kmap = ktypes._KTypeMap(Signature(1, 1), CTX, target)
    assert kmap.at((-3,), (3,)) == KType(target, (), (2, -2))
    kmap.kb += 5
    with pytest.raises(ValueError, match="^b-weights must weakly decrease$"):
        kmap.at((-3,), (3,))


def test_map_hands_a_weight_of_another_form_to_the_validating_constructor():
    kmap = ktypes._KTypeMap(Signature(1, 1), CTX, TARGET)
    with pytest.raises(ValueError, match="^weight lengths must match the signature$"):
        kmap.at((3, 3), (-1,))


def test_map_keeps_the_dimension_checks_of_correspond_ktype():
    mu = KType(Signature(1, 1), (3,), (-1,))
    for ctx, target, message in (
        (LiftContext(0, 1, 3, 2), TARGET, "source size 2 != context source_dim 3"),
        (LiftContext(1, 0, 2, 3), TARGET, "target size 2 != context target_dim 3"),
    ):
        for call in (correspond_ktype, split_mu):
            with pytest.raises(PreconditionViolation, match=f"^{message}$"):
                call(mu, ctx, target)
