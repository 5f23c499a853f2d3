"""Doubled-int and HalfInt construction of the value types agree.

Every value type stores doubled ints and has two constructors: the
public one taking HalfInt values and from_twices taking the doubled
ints. On any input, valid or not, the two must give equal objects with
equal hashes and the same JSON, or raise the same exception class.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import thetalift
from thetalift import AParameter, AqBlock, HCParam, LParameter, Signature, half
from thetalift.core import SIDE_NONE, SIDE_P, SIDE_Q, ABGDSplit

twices = st.integers(-13, 13)
runs = st.lists(twices, max_size=5).map(tuple)


def halves(tw):
    return tuple(half(t) for t in tw)


def build(make):
    try:
        return make(), None
    except Exception as err:  # compared by class below
        return None, type(err)


def assert_same(from_twices, from_halves):
    a, a_err = build(from_twices)
    b, b_err = build(from_halves)
    assert a_err is b_err
    if a_err is None:
        assert a == b
        assert hash(a) == hash(b)
        if hasattr(a, "to_json"):
            assert a.to_json() == b.to_json()
    return a


def descending(draw, size, parity):
    """size distinct doubled values of the given parity, descending."""
    values = draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size, unique=True))
    return tuple(sorted((2 * v + parity for v in values), reverse=True))


@st.composite
def hc_inputs(draw):
    """(p, q, doubled entries, whether they are valid by construction)."""
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        tw = descending(draw, p + q, (p + q - 1) % 2)
        cut = tuple(sorted(tw[:p], reverse=True)) + tuple(sorted(tw[p:], reverse=True))
        return p, q, cut, True
    return p, q, draw(st.lists(twices, max_size=7).map(tuple)), False


@given(hc_inputs())
def test_hcparam(case):
    p, q, tw, valid = case
    lam = assert_same(
        lambda: HCParam.from_twices(Signature(p, q), tw),
        lambda: HCParam(Signature(p, q), halves(tw)),
    )
    assert lam is not None or not valid
    if lam is not None:
        assert lam.entries == halves(tw)
        assert lam.to_json()["p_part"] + lam.to_json()["q_part"] == [str(e) for e in lam.entries]
        assert HCParam.parse(str(lam)) == lam


sides = st.sampled_from((SIDE_NONE, SIDE_P, SIDE_Q, "X"))


@given(runs, runs, runs, runs, st.integers(0, 3), sides)
def test_abgd_split(a, b, g, d, chain_k, side):
    sp = assert_same(
        lambda: ABGDSplit.from_twices(a, b, g, d, chain_k, side),
        lambda: ABGDSplit(halves(a), halves(b), halves(g), halves(d), chain_k, side),
    )
    if sp is not None:
        assert (sp.alpha, sp.beta, sp.gamma, sp.delta) == (halves(a), halves(b), halves(g), halves(d))


@given(st.integers(-1, 3), st.integers(-1, 3), twices)
def test_aq_block(p_i, q_i, tw):
    block = assert_same(
        lambda: AqBlock.from_twices(p_i, q_i, tw),
        lambda: AqBlock(p_i, q_i, half(tw)),
    )
    if block is not None:
        assert block.lam_i == half(tw)
        assert block.to_json()["lambda"] == str(half(tw))


@st.composite
def l_inputs(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        return descending(draw, n, (n - 1) % 2), True
    return draw(st.lists(twices, max_size=5).map(tuple)), False


@given(l_inputs())
def test_lparameter(case):
    tw, valid = case
    phi = assert_same(lambda: LParameter.from_twices(tw), lambda: LParameter(halves(tw)))
    assert phi is not None or not valid
    if phi is not None:
        assert phi.kappas == halves(tw)


@st.composite
def a_inputs(draw):
    if draw(st.booleans()):
        n = draw(st.integers(0, 4))
        m = n + draw(st.integers(1, 3))
        tw0 = 2 * draw(st.integers(-6, 6)) + n % 2
        return descending(draw, n, (m - 1) % 2), tw0, m, True
    tw = draw(st.lists(twices, max_size=4).map(tuple))
    return tw, draw(twices), draw(st.integers(0, 7)), False


@given(a_inputs())
def test_aparameter(case):
    tw, tw0, m, valid = case
    phi_p = assert_same(
        lambda: AParameter.from_twices(tw, tw0, m),
        lambda: AParameter(halves(tw), half(tw0), m),
    )
    assert phi_p is not None or not valid
    if phi_p is not None:
        assert (phi_p.mus, phi_p.mu0) == (halves(tw), half(tw0))
        assert phi_p.to_json()["mu"] == [str(v) for v in phi_p.mus]


def test_internal_check_survives_optimize():
    # Under -O an assert would vanish; the determinant identity must not.
    code = (
        "import sys\n"
        "import thetalift.packets as pk\n"
        "from thetalift import InternalError, LParameter, SignCharacter, half\n"
        "pk.epsilon_of_signature = lambda p, q: 0\n"
        "try:\n"
        "    pk.pi_from_eta(LParameter((half(1), half(-1))), SignCharacter.parse('++'))\n"
        "except InternalError as err:\n"
        "    print(sys.flags.optimize, type(err).__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(thetalift.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "InternalError"]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # would silently stop holding; every check must be an explicit raise.
    package = Path(thetalift.__file__).resolve().parent
    found = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in thetalift: {found}"
