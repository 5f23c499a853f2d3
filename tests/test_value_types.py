"""The value types: one constructor over doubled ints, HalfInt at the edges.

HCParam and LParameter are built from parsed text, so besides
from_twices, which takes the doubled ints, their public constructors
take HalfInt values; on any input, valid or not, the two must give
equal objects with equal hashes and the same JSON, or raise the same
exception class. ABGDSplit, AParameter and AqLambdaData have one
constructor, over doubled ints, and each validation rule they have is
checked through it. A guard pins where the package names HalfInt at all.
One contract, checked on every value type, pins equality, hashing,
immutability, repr, pickling and construction by keyword; another guard
pins that the frozen types store their fields through their bound slot
setters, never through object.__setattr__.
"""

import ast
import copy
import os
import pickle
import re
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
    EnumerationBounds,
    GlobalizationReport,
    HalfInt,
    HCParam,
    KType,
    LiftContext,
    LiftResult,
    LParameter,
    NotDominant,
    NVInvariants,
    PreconditionViolation,
    RepeatedEntry,
    SignCharacter,
    Signature,
    TowerPosition,
    WrongParityClass,
    ZetaSigns,
    half,
)
from thetalift.core import ABGDSplit, _Frozen, half_text
from thetalift.suites import SuiteSummary

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
    # from_twices for doubled ints. EnumerationBounds names its height,
    # which it read as height.twice before it tested the type.
    for value in (2, 2.0, "2", True):
        kind = type(value).__name__
        with pytest.raises(TypeError, match=rf"^HCParam\(\) takes HalfInt entries, not {kind}; "
                           r"HCParam\.from_twices takes doubled ints$"):
            HCParam(Signature(1, 0), (value,))
        with pytest.raises(TypeError, match=rf"^LParameter\(\) takes HalfInt entries, not {kind}; "
                           r"LParameter\.from_twices takes doubled ints$"):
            LParameter((value,))
        with pytest.raises(TypeError,
                           match=rf"^EnumerationBounds\(\) takes a HalfInt height, not {kind}$"):
            EnumerationBounds(1, 1, value)
    # HalfInt's own constructors test the exact type, so a bool, an int
    # subclass that would render as True/2, is refused as a float is.
    for value in (True, 2.0):
        kind = type(value).__name__
        with pytest.raises(TypeError, match=rf"^HalfInt\(\) takes an int, not {kind}$"):
            HalfInt(value)
        with pytest.raises(TypeError, match=r"^halves\(\) takes an int$"):
            HalfInt.halves(value)


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


def test_import_loads_no_dataclasses():
    # The value types are plain slotted classes: importing dataclasses
    # would also load inspect, ast, dis and tokenize, about a fifth of
    # the package's import time. -S keeps site's own imports out.
    code = "import sys, thetalift; sys.exit('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(thetalift.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr or "import thetalift loaded dataclasses"


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
    "core",  # (_set_twice,) = HalfInt._setters
    "core.HCParam.__init__",
    "core.HCParam.entries",
    "core.HalfInt.__eq__",
    "core.HalfInt.parse",
    "core._halfint_twices",
    "core.half",
    "core.parse_half_list",
    "lifting.aq_infinitesimal_character",
    "packets.LParameter.__init__",
    "suites.EnumerationBounds.__init__",
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


# Every value type, built by keyword with its defaults; the values of
# its fields in declaration order, derived fields included; and what
# its hash is the hash of: the fields' tuple, the triples alone for
# AqLambdaData, whose target follows from them, or None for the one
# mutable, unhashable type.
_LAM = HCParam(Signature(1, 1), (half(3), half(-1)))
VALUE_TYPES = [
    (lambda: Signature(p=1, q=2), {"p": 1, "q": 2}, "fields"),
    (lambda: HCParam(sig=Signature(1, 1), entries=(half(3), half(-1))),
     {"sig": Signature(1, 1), "entries_tw": (3, -1)}, "fields"),
    (lambda: LiftContext(m0=0, n0=1, source_dim=1, target_dim=2),
     {"m0": 0, "n0": 1, "source_dim": 1, "target_dim": 2}, "fields"),
    (lambda: ABGDSplit(alpha_tw=(3,), beta_tw=(), gamma_tw=(), delta_tw=(-1,)),
     {"alpha_tw": (3,), "beta_tw": (), "gamma_tw": (), "delta_tw": (-1,)}, "fields"),
    (lambda: KType(sig=Signature(1, 1), a_weights=(2,), b_weights=(0,)),
     {"sig": Signature(1, 1), "a_weights": (2,), "b_weights": (0,)}, "fields"),
    (lambda: AqLambdaData(target=Signature(1, 0), triples=((1, 0, 2),)),
     {"target": Signature(1, 0), "triples": ((1, 0, 2),)}, "triples"),
    (lambda: LiftResult(kind="vanishes"),
     {"kind": "vanishes", "param": None, "aq": None, "position": None}, "fields"),
    (lambda: NVInvariants(k_lambda=0, r_lambda=1, s_lambda=0, X_inf_tw=((3, 1),)),
     {"k_lambda": 0, "r_lambda": 1, "s_lambda": 0, "X_inf_tw": ((3, 1),)}, "fields"),
    (lambda: TowerPosition(l=0, t=1, swapped=False),
     {"l": 0, "t": 1, "swapped": False, "reason": None}, "fields"),
    (lambda: LParameter(kappas=(half(1), half(-1))), {"kappa_tw": (1, -1)}, "fields"),
    (lambda: AParameter(mu_tw=(2, -2), mu0_tw=0, m=3),
     {"mu_tw": (2, -2), "mu0_tw": 0, "m": 3, "n": 2, "i0": 2, "tie_at_i0": False}, "fields"),
    (lambda: SignCharacter(values=(1, -1)), {"values": (1, -1)}, "fields"),
    (lambda: EnumerationBounds(max_n=1, max_m_minus_n=1, height=half(3)),
     {"max_n": 1, "max_m_minus_n": 1, "height": half(3)}, "fields"),
    (lambda: SuiteSummary(name="li"), {"name": "li", "cases": 0, "failures": 0, "tags": {}}, None),
    (lambda: ZetaSigns(zetas=(1, -1), zeta0=-1), {"zetas": (1, -1), "zeta0": -1}, "fields"),
    (lambda: GlobalizationReport(t=1, deformed=_LAM, eta_preserved=True, li_holds=True,
                                 lift_matches=False),
     {"t": 1, "deformed": _LAM, "eta_preserved": True, "li_holds": True, "lift_matches": False},
     "fields"),
]


@pytest.mark.parametrize(
    "build_value, fields, hash_of", VALUE_TYPES,
    ids=[type(build_value()).__name__ for build_value, _fields, _hash_of in VALUE_TYPES],
)
def test_value_type_contract(build_value, fields, hash_of):
    value = build_value()
    cls = type(value)
    values = tuple(fields.values())
    assert tuple(getattr(value, name) for name in fields) == values
    assert repr(value) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    # Equality is by field and class-strict: the fields' own tuple is no match.
    assert value == build_value() and not value != build_value()
    assert value.__eq__(values) is NotImplemented and value != values
    assert value.__eq__(object()) is NotImplemented
    # pickle and copy restore a value field by field.
    assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value) == copy.copy(value)
    if hash_of is None:
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, next(iter(fields)), values[0])
        return
    assert hash(value) == hash(values if hash_of == "fields" else getattr(value, hash_of))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == values


# The public constructors that take tuples of ints store a tuple of what
# they are given, so a value built from lists is the value built from
# tuples: equal, hashing alike, with fields of the same types.
FROM_LISTS = {
    "KType": lambda seq: KType(Signature(1, 1), seq([2]), seq([0])),
    "HCParam.from_twices": lambda seq: HCParam.from_twices(Signature(1, 1), seq([3, -1])),
    "LParameter.from_twices": lambda seq: LParameter.from_twices(seq([1, -1])),
    "AParameter": lambda seq: AParameter(seq([2, -2]), 0, 3),
    "SignCharacter": lambda seq: SignCharacter(seq([1, -1])),
    "ZetaSigns": lambda seq: ZetaSigns(seq([1, -1]), -1),
    "ABGDSplit": lambda seq: ABGDSplit(seq([3]), seq([]), seq([]), seq([-1])),
}


@pytest.mark.parametrize("build", FROM_LISTS.values(), ids=FROM_LISTS)
def test_a_value_built_from_lists_is_the_value_built_from_tuples(build):
    got, want = build(list), build(tuple)
    assert got == want and hash(got) == hash(want)
    fields = type(want).__slots__
    assert [type(getattr(got, f)) for f in fields] == [type(getattr(want, f)) for f in fields]


# The same constructors, with Signature, LiftContext, EnumerationBounds and
# AqLambdaData, refuse a float or a bool where they take an int, naming
# themselves, so that neither reaches an answer. Each was accepted and
# rendered once: the float given here as 2.0 or 1.0, the bool as True.
WITH_A_FLOAT = {
    "Signature": (lambda x: Signature(x, 0), "Signature", 1.0),
    "LiftContext": (lambda x: LiftContext(x, 1, 1, 3), "LiftContext", 1.0),
    "HCParam.from_twices":
        (lambda x: HCParam.from_twices(Signature(1, 0), (x,)), "HCParam.from_twices", 2.0),
    "LParameter.from_twices":
        (lambda x: LParameter.from_twices((x, -1)), "LParameter.from_twices", 1.0),
    "AParameter.mu_tw": (lambda x: AParameter((x,), 1, 2), "AParameter", 3.0),
    "AParameter.mu0_tw": (lambda x: AParameter((3,), x, 2), "AParameter", 1.0),
    "AParameter.m": (lambda x: AParameter((3,), 1, x), "AParameter", 2.0),
    "SignCharacter": (lambda x: SignCharacter((x, -1)), "SignCharacter", 1.0),
    "KType": (lambda x: KType(Signature(1, 0), (x,), ()), "KType", 1.5),
    "EnumerationBounds.max_n":
        (lambda x: EnumerationBounds(x, 1, half(3)), "EnumerationBounds", 1.0),
    "EnumerationBounds.max_m_minus_n":
        (lambda x: EnumerationBounds(1, x, half(3)), "EnumerationBounds", 1.0),
    "AqLambdaData": (lambda x: AqLambdaData(Signature(1, 0), [(x, 0, 0)]), None, 1.0),
}


@pytest.mark.parametrize("build, owner, value", WITH_A_FLOAT.values(), ids=WITH_A_FLOAT)
def test_a_float_for_an_int_is_a_type_error(build, owner, value):
    for bad in (value, True):
        if owner is None:
            want = rf"^block entries must be ints: \(\({bad}, 0, 0\),\)$"
        else:
            want = rf"^{re.escape(owner)}\(\) takes ints, not {type(bad).__name__}$"
        with pytest.raises(TypeError, match=want):
            build(bad)


@pytest.mark.parametrize("value", [half(3), half(-4), HalfInt(0)], ids=str)
def test_halfint_pickles_and_copies(value):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is HalfInt and back.twice == value.twice
    for back in (copy.copy(value), copy.deepcopy(value)):
        assert type(back) is HalfInt and back.twice == value.twice and hash(back) == hash(value)
        with pytest.raises(AttributeError):
            back.twice = 1
        with pytest.raises(AttributeError):
            del back.twice


def _frozen_types():
    """Every _Frozen subclass the package defines."""
    found, todo = [], [_Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("thetalift."):
                found.append(cls)
    return found


def test_frozen_types_store_fields_through_their_slot_setters():
    # object.__setattr__ looks the field's name up on every call; a
    # frozen type stores its fields through the C-level setters bound in
    # _Frozen.__init_subclass__ instead. Only _Frozen's pickle-restore
    # hook, which takes the fields by name, may call it.
    package = Path(thetalift.__file__).resolve().parent
    assert _scopes_naming(package, {"__setattr__"}) == {"core._Frozen.__setstate__"}
    frozen = _frozen_types()
    contract = {type(build_value()) for build_value, _f, hash_of in VALUE_TYPES if hash_of}
    # HalfInt compares and hashes like the int it equals, so it has its
    # own tests rather than the contract.
    assert set(frozen) == contract | {HalfInt}
    for cls in frozen:
        slots = [cls.__dict__[name] for name in cls.__slots__]
        assert [setter.__self__ for setter in cls._setters] == slots, cls.__name__
        # The defining module unpacks each setter under its own field's name.
        module = sys.modules[cls.__module__]
        unpacked = {
            name: value for name, value in vars(module).items()
            if any(value is setter for setter in cls._setters)
        }
        assert unpacked == {f"_set_{s.__name__}": s.__set__ for s in slots}, cls.__name__


def test_suite_summary_tags_are_per_instance():
    a, b = SuiteSummary("li"), SuiteSummary("li")
    a.tags["x"] = 1
    assert b.tags == {}
