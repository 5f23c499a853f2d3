"""Joint-harmonics weight correspondence and the compact-pair split."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetalift import (
    KType,
    LiftContext,
    PatternMismatch,
    Signature,
    correspond_ktype,
    split_mu,
)
from thetalift.suites import suite_ktypes, tally


CTX = LiftContext(0, 0, 2, 2)
TARGET = Signature(2, 0)


def test_ktype_validation():
    KType(Signature(2, 1), (3, 3), (-1,))
    with pytest.raises(ValueError):
        KType(Signature(2, 1), (3,), (-1,))  # wrong length
    with pytest.raises(ValueError):
        KType(Signature(2, 0), (1, 2), ())  # must weakly decrease
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


def test_ktype_suite_counts_at_the_benchmark_window():
    summary = tally("ktypes", suite_ktypes(emit=False, max_run=1, height=3))
    assert summary.failures == 0
    assert summary.cases == 4089
    assert summary.tags == {"checked": 4089}


def _grid_rows():
    """One JSON row per (K-type, target): the partner and the split, or its error.

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
                            target = Signature(r, m - r)
                            partner = correspond_ktype(mu, ctx, target)
                            try:
                                split = [k.to_json() for k in split_mu(mu, ctx, target)]
                            except PatternMismatch as exc:
                                split = [type(exc).__name__, str(exc)]
                            row = [
                                mu.to_json(),
                                [r, m - r],
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
