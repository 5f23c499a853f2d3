"""The value types: one constructor over doubled ints, HalfInt at the edges.

HCParam and LParameter are built from parsed text, so besides
from_twices, which takes the doubled ints, their public constructors
take HalfInt values; on any input, valid or not, the two must give
equal objects with equal hashes and the same JSON, or raise the same
exception class. ABGDSplit, AParameter and AqLambdaData have one
constructor, over doubled ints, and each validation rule they have is
checked through it. A guard pins where the package names HalfInt at all.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import thetalift
from thetalift import (
    AParameter,
    AqLambdaData,
    HCParam,
    LParameter,
    NotDominant,
    PreconditionViolation,
    RepeatedEntry,
    Signature,
    WrongParityClass,
    half,
)
from thetalift.core import ABGDSplit, half_text

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
        assert phi.kappa_tw == tw
        assert phi.to_json()["kappa"] == [half_text(t) for t in tw]


def test_halfint_constructors_take_only_halfint():
    # The HalfInt constructors name the type they expect and point to
    # from_twices for doubled ints.
    for value in (2, 2.0, "2"):
        kind = type(value).__name__
        with pytest.raises(TypeError, match=rf"^HCParam\(\) takes HalfInt entries, not {kind}; "
                           r"HCParam\.from_twices takes doubled ints$"):
            HCParam(Signature(1, 0), (value,))
        with pytest.raises(TypeError, match=rf"^LParameter\(\) takes HalfInt entries, not {kind}; "
                           r"LParameter\.from_twices takes doubled ints$"):
            LParameter((value,))


@given(runs, runs, runs, runs)
def test_abgd_split(a, b, g, d):
    # Any four runs: the split has no validation rule of its own.
    sp = ABGDSplit(a, b, g, d)
    assert (sp.alpha_tw, sp.beta_tw, sp.gamma_tw, sp.delta_tw) == (a, b, g, d)
    assert (sp.x, sp.y, sp.z, sp.w) == (len(a), len(b), len(g), len(d))


@given(st.integers(-1, 3), st.integers(-1, 3), twices)
def test_aq_lambda_data_block_triple(p_i, q_i, tw):
    # One block filling its own signature: only the block rules apply.
    target = Signature(max(p_i, 0), max(q_i, 0))
    valid = p_i >= 0 and q_i >= 0 and p_i + q_i >= 1 and tw % 2 == 0
    aq, err = build(lambda: AqLambdaData(target, [[p_i, q_i, tw]]))
    assert err is (None if valid else ValueError)
    if valid:
        assert aq.triples == ((p_i, q_i, tw),)
        assert aq.to_json() == [{"p": p_i, "q": q_i, "lambda": str(half(tw))}]
        assert hash(aq) == hash(AqLambdaData(target, ((p_i, q_i, tw),)))


@st.composite
def a_inputs(draw):
    if draw(st.booleans()):
        n = draw(st.integers(0, 4))
        m = n + draw(st.integers(1, 3))
        tw0 = 2 * draw(st.integers(-6, 6)) + n % 2
        return descending(draw, n, (m - 1) % 2), tw0, m, True
    tw = draw(st.lists(twices, max_size=4).map(tuple))
    return tw, draw(twices), draw(st.integers(0, 7)), False


def a_parameter_error(tw, tw0, m):
    """The class AParameter(tw, tw0, m) raises, by its rules in order, or None."""
    n = len(tw)
    if m <= n:
        return PreconditionViolation
    if any(v % 2 != (m - 1) % 2 for v in tw) or tw0 % 2 != n % 2:
        return WrongParityClass
    for a, b in zip(tw, tw[1:]):
        if a <= b:
            return NotDominant if a < b else RepeatedEntry
    return None


@given(a_inputs())
def test_aparameter(case):
    tw, tw0, m, valid = case
    phi_p, err = build(lambda: AParameter(tw, tw0, m))
    assert err is a_parameter_error(tw, tw0, m)
    assert phi_p is not None or not valid
    if phi_p is not None:
        i0 = 1 + sum(1 for v in tw if v > tw0)
        assert (phi_p.mu_tw, phi_p.mu0_tw, phi_p.m, phi_p.n, phi_p.i0) == (tw, tw0, m, len(tw), i0)
        assert phi_p.tie_at_i0 == (m - len(tw) == 1 and i0 <= len(tw) and tw[i0 - 1] == tw0)
        assert phi_p.to_json() == {
            "mu": [half_text(v) for v in tw],
            "mu0": half_text(tw0),
            "m": m,
            "i0": i0,
        }


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


# Where the package names HalfInt, half or halves: the parse and render
# edges. A new entry means a value type or helper grew a HalfInt path
# again; compute on the doubled ints instead, or add it here on purpose.
HALFINT_EDGE = {
    "cli._bounds",
    "cli.cmd_apacket",
    "core.HCParam.__init__",
    "core.HCParam.entries",
    "core.HalfInt.__eq__",
    "core.HalfInt.parse",
    "core._halfint_twices",
    "core.half",
    "core.parse_half_list",
    "lifting.aq_infinitesimal_character",
    "packets.LParameter.__init__",
    "suites.EnumerationBounds",
}


def _scopes_naming(package: Path, names: set[str]) -> set[str]:
    """'module.Class.function' of each innermost def or class whose code uses one of names."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id in names) or (
                isinstance(child, ast.Attribute) and child.attr in names
            ):
                found.add(scope)
            visit(child, scope)

    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), module)
    return found


def test_halfint_is_named_only_at_the_edges():
    package = Path(thetalift.__file__).resolve().parent
    assert _scopes_naming(package, {"HalfInt", "half", "halves"}) == HALFINT_EDGE
