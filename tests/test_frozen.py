"""The package's value classes: repr, equality, hash and immutability."""

import numpy as np
import pytest

from haar_digits import cli
from haar_digits.laws import (
    Benford,
    FlatWindowSignificand,
    PowerLaw,
    ProductLaw,
    UniformSignificand,
)
from haar_digits.lie import ConeProblem, MCVolume
from haar_digits.samplers import GlnSample, SlnSample, WindowSpec
from haar_digits.significand import SignificandDecomposition
from haar_digits.sphere import SphereErf, SphereExact, SphereLimit
from haar_digits.stats import EmpiricalDigitDistribution, GOFReport

_M = np.zeros((1, 2, 2))
_D = np.ones((1, 2))
_SLN = SlnSample(_M, _M, _D)
_SLN_REPR = (
    "SlnSample(X=array([[[0., 0.],\n        [0., 0.]]]), Y=array([[[0., 0.],\n"
    "        [0., 0.]]]), diag=array([[1., 1.]]))"
)
_SIG, _COUNTS = np.array([1.5]), np.array([1, 0, 0, 0, 0, 0, 0, 0, 0])

# (class, positional arguments, the same call by keyword, its repr, whether
# it hashes); a field holding a dict or an array makes an instance unhashable.
CASES = [
    (
        cli._Report,
        ({"a": 1}, ("h",), [(1,)], True),
        dict(payload={"a": 1}, header=("h",), rows=[(1,)], passed=True),
        "_Report(payload={'a': 1}, header=('h',), rows=[(1,)], passed=True)",
        False,
    ),
    (
        cli._Group,
        (len, abs),
        dict(draw=len, law=abs),
        "_Group(draw=<built-in function len>, law=<built-in function abs>, matrix=True, "
        "reads=('n', 'entry'), min_n=1, diagonal_only=None)",
        True,
    ),
    (
        cli._Group,
        (len, abs, False, ("m",), 2, "msg"),
        dict(draw=len, law=abs, matrix=False, reads=("m",), min_n=2, diagonal_only="msg"),
        "_Group(draw=<built-in function len>, law=<built-in function abs>, matrix=False, "
        "reads=('m',), min_n=2, diagonal_only='msg')",
        True,
    ),
    (
        cli._Suite,
        (0, len, ()),
        dict(label=0, run=len, reads=()),
        "_Suite(label=0, run=<built-in function len>, reads=())",
        True,
    ),
    (Benford, (), dict(base=10), "Benford(base=10)", True),
    (Benford, (7,), dict(base=7), "Benford(base=7)", True),
    (PowerLaw, (), dict(base=10, k=2.0), "PowerLaw(base=10, k=2.0)", True),
    (PowerLaw, (10, 1e308), dict(base=10, k=1e308), "PowerLaw(base=10, k=1e+308)", True),
    (UniformSignificand, (3,), dict(base=3), "UniformSignificand(base=3)", True),
    (
        FlatWindowSignificand,
        (),
        dict(base=10, eps=1.0),
        "FlatWindowSignificand(base=10, eps=1.0)",
        True,
    ),
    (
        FlatWindowSignificand,
        (10, 0.25),
        dict(base=10, eps=0.25),
        "FlatWindowSignificand(base=10, eps=0.25)",
        True,
    ),
    (
        ProductLaw,
        ((Benford(), Benford(2)),),
        dict(laws=[Benford(), Benford(2)]),
        "ProductLaw(laws=(Benford(base=10), Benford(base=2)))",
        True,
    ),
    (ConeProblem, (2.0,), dict(x=2.0), "ConeProblem(x=2.0, eps=0.1)", True),
    (ConeProblem, (3.0, 0.5), dict(x=3.0, eps=0.5), "ConeProblem(x=3.0, eps=0.5)", True),
    (
        MCVolume,
        (5, 10, 1.0),
        dict(accepted=5, trials=10, box_volume=1.0),
        "MCVolume(accepted=5, trials=10, box_volume=1.0)",
        True,
    ),
    (WindowSpec, (), dict(eps=1.0, m=3), "WindowSpec(eps=1.0, m=3)", True),
    (WindowSpec, (0.5, 2), dict(eps=0.5, m=2), "WindowSpec(eps=0.5, m=2)", True),
    (SlnSample, (_M, _M, _D), dict(X=_M, Y=_M, diag=_D), _SLN_REPR, False),
    (
        GlnSample,
        (_SLN, _D[0, :1]),
        dict(sln=_SLN, det=_D[0, :1]),
        f"GlnSample(sln={_SLN_REPR}, det=array([1.]))",
        False,
    ),
    (
        SignificandDecomposition,
        (1.5, 2, -1),
        dict(significand=1.5, exponent=2, sign=-1),
        "SignificandDecomposition(significand=1.5, exponent=2, sign=-1)",
        True,
    ),
    (SphereExact, (), dict(base=10, n=2), "SphereExact(base=10, n=2, tail_tol=1e-12)", True),
    (SphereExact, (10, 9), dict(base=10, n=9), "SphereExact(base=10, n=9, tail_tol=1e-12)", True),
    (SphereErf, (7, 3), dict(base=7, n=3), "SphereErf(base=7, n=3, tail_tol=1e-12)", True),
    (SphereLimit, (), dict(base=10, n=1), "SphereLimit(base=10, n=1, tail_tol=1e-12)", True),
    (SphereLimit, (10, 4), dict(base=10, n=4), "SphereLimit(base=10, n=4, tail_tol=1e-12)", True),
    (
        EmpiricalDigitDistribution,
        (10, _SIG, _COUNTS, 0),
        dict(base=10, significands=_SIG, digit_counts=_COUNTS, n_rejected=0),
        "EmpiricalDigitDistribution(base=10, significands=array([1.5]), "
        "digit_counts=array([1, 0, 0, 0, 0, 0, 0, 0, 0]), n_rejected=0)",
        False,
    ),
    (
        GOFReport,
        ("ks", 0.1, None, 0.5, 0.01, 100),
        dict(test="ks", statistic=0.1, dof=None, p_approx=0.5, alpha=0.01, n=100),
        "GOFReport(test='ks', statistic=0.1, dof=None, p_approx=0.5, alpha=0.01, n=100)",
        True,
    ),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, text, hashable",
    CASES,
    ids=[f"{c[0].__name__}-{len(c[1])}-args" for c in CASES],
)
def test_value_class(cls, args, kwargs, text, hashable):
    obj, by_keyword = cls(*args), cls(**kwargs)
    assert repr(obj) == text
    assert repr(by_keyword) == text
    assert obj == by_keyword and not obj != by_keyword
    if hashable:
        assert hash(obj) == hash(by_keyword)
        assert len({obj, by_keyword}) == 1
    else:
        with pytest.raises(TypeError):
            hash(obj)
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unknown = None
    assert repr(obj) == text


def test_equality_holds_within_one_class():
    assert SphereErf(10, 4) != SphereLimit(10, 4)
    assert not SphereErf(10, 4) == SphereLimit(10, 4)
    assert Benford(10) != UniformSignificand(10)
    assert PowerLaw(10, 2.0) != PowerLaw(10, 3.0)
    assert SphereExact(10, 9) != SphereExact(7, 9)


def test_gof_report_dict_keys():
    assert GOFReport("ks", 0.1, None, 0.5, 0.01, 100).to_dict() == {
        "test": "ks",
        "statistic": 0.1,
        "dof": None,
        "p_approx": 0.5,
        "alpha": 0.01,
        "n": 100,
        "pass": True,
    }
