"""Every real parameter of the library goes through errors.check_real.

One row per (public function, real parameter): NaN, +-inf, True, a string
and a value just past each bound are refused with a DomainError that names
the parameter, before any word of a stream is drawn or skipped. The value
just inside each bound, and subnormal and huge magnitudes in range, are
answered without NaN or refused with a DomainError; and a NumPy real or an
int gives the bytes the float gives.
"""

import math
import pickle

import numpy as np
import pytest

from haar_digits.errors import DomainError, check_real
from haar_digits.laws import Benford, FlatWindowSignificand, PowerLaw, windowed_power_cdf
from haar_digits.lie import (
    ConeProblem,
    MCVolume,
    hyperbolic_cone_area,
    hyperbolic_cone_area_mc,
)
from haar_digits.rng import RngStream
from haar_digits import samplers as S
from haar_digits.significand import significand
from haar_digits.specfun import betainc, log_gamma
from haar_digits.stats import (
    chi_square_first_digit,
    chi_square_independence,
    ks_p_approx,
    ks_test,
)
from test_integer_args import _annotated_parameters

SAMPLE = S.sample_log_uniform(10, 3, RngStream(5), 400)
TABLE = np.full((3, 3), 10.0)
MC = MCVolume(accepted=5, trials=10, box_volume=1.0)
DOUBLE = np.finfo(float)
CONE_EPS = 2.0**-511
# The greatest k sample_power_density takes: draws 2^-53 apart near s = 1
# must stay within 1e-9 of PowerLaw's CDF.
POWER_K_MAX = 9007200.254740993


def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


# (function, parameter, a valid value, the greatest refused value below the
#  range or None, the least refused value above it or None, call(value, rng)).
ROWS = [
    ("significand", "x", 3.0, None, None, lambda v, r: significand(v)),
    ("PowerLaw", "k", 2.0, 0.0, None, lambda v, r: PowerLaw(10, v)),
    ("FlatWindowSignificand", "eps", 0.3, 0.0, None, lambda v, r: FlatWindowSignificand(10, v)),
    ("windowed_power_cdf", "k", 2.0, 0.0, None, lambda v, r: windowed_power_cdf(10, v, 3, 1.5)),
    ("log_gamma", "x", 2.5, 0.0, None, lambda v, r: log_gamma(v)),
    ("betainc", "a", 0.5, below(DOUBLE.tiny), above(1e8), lambda v, r: betainc(v, 2.0, 0.3)),
    ("betainc", "b", 2.0, below(DOUBLE.tiny), above(1e300), lambda v, r: betainc(0.5, v, 0.3)),
    ("RngStream.uniform", "low", -1.0, None, None, lambda v, r: r.uniform(v, 2.0, 4)),
    ("RngStream.uniform", "high", 1.0, -1.0, None, lambda v, r: r.uniform(-1.0, v, 4)),
    ("RngStream.gamma", "shape_param", 0.5, 0.0, None, lambda v, r: r.gamma(v, 4)),
    ("WindowSpec", "eps", 0.3, below(DOUBLE.tiny), above(DOUBLE.max / 2),
     lambda v, r: S.WindowSpec(eps=v)),
    ("sample_power_density", "k", 2.0, 0.0, above(POWER_K_MAX),
     lambda v, r: S.sample_power_density(10, v, 3, r, 4)),
    ("triangular_component_law", "eps", 0.3, 0.0, None,
     lambda v, r: S.triangular_component_law(3, 10, 0, 0, "left", v)),
    ("ConeProblem", "x", 10.0, below(1.0), None, lambda v, r: ConeProblem(v)),
    ("ConeProblem", "eps", 0.1, below(CONE_EPS), above(1.0), lambda v, r: ConeProblem(10.0, v)),
    ("MCVolume.sigma_gap", "exact", 0.6, None, None, lambda v, r: MC.sigma_gap(v)),
    ("MCVolume.agrees", "exact", 0.6, None, None, lambda v, r: MC.agrees(v)),
    ("hyperbolic_cone_area", "a", 0.5, 0.0, None, lambda v, r: hyperbolic_cone_area(v, 4.0)),
    ("hyperbolic_cone_area", "b", 4.0, 0.5, None, lambda v, r: hyperbolic_cone_area(0.5, v)),
    ("hyperbolic_cone_area_mc", "a", 0.5, 0.0, None,
     lambda v, r: hyperbolic_cone_area_mc(v, 4.0, r, 50)),
    ("hyperbolic_cone_area_mc", "b", 4.0, 0.5, None,
     lambda v, r: hyperbolic_cone_area_mc(0.5, v, r, 50)),
    ("ks_p_approx", "d", 0.01, None, None, lambda v, r: ks_p_approx(v, 100)),
    ("ks_test", "alpha", 0.01, 0.0, 1.0, lambda v, r: ks_test(SAMPLE, Benford(10), v)),
    ("chi_square_first_digit", "alpha", 0.01, 0.0, 1.0,
     lambda v, r: chi_square_first_digit(SAMPLE, Benford(10), v)),
    ("chi_square_independence", "alpha", 0.01, 0.0, 1.0,
     lambda v, r: chi_square_independence(TABLE, v)),
]
IDS = [f"{func}-{param}" for func, param, *_ in ROWS]

# Real parameters that take no check: the fields of result records, which
# hold what the library computed.
UNCHECKED = {
    ("SignificandDecomposition", "significand"),
    ("MCVolume", "box_volume"),
    ("GOFReport", "statistic"),
    ("GOFReport", "p_approx"),
    ("GOFReport", "alpha"),
}

MAGNITUDES = [5e-324, -5e-324, DOUBLE.tiny, 1e308, -1e308, DOUBLE.max, -DOUBLE.max]


def _values(out):
    """The floats a call returned, as one array (value classes field by field)."""
    if hasattr(out, "_values"):
        return np.concatenate([_values(v) for v in out._values()] or [np.empty(0)])
    if isinstance(out, (str, bool, type(None))):
        return np.empty(0)
    return np.asarray(out, dtype=float).reshape(-1)


def test_every_real_parameter_has_a_row():
    rows = {(func, param) for func, param, *_ in ROWS}
    assert len(rows) == len(ROWS)
    assert _annotated_parameters("float") == rows | UNCHECKED


@pytest.mark.parametrize("func, param, ok, lo, hi, call", ROWS, ids=IDS)
def test_real_parameters_refuse_what_is_not_a_finite_real_in_range(func, param, ok, lo, hi, call):
    bad = [math.nan, np.float64(math.nan), math.inf, -math.inf, True, False, np.True_, "3", None]
    bad += [v for v in (lo, hi) if v is not None]
    bad += [v for v in MAGNITUDES if (lo is not None and v <= lo) or (hi is not None and v >= hi)]
    for value in bad:
        rng = RngStream(1)
        # sample_power_density's bound above, its law's precision limit, is
        # checked apart: "k must be <= about 9.0e6".
        with pytest.raises(DomainError, match=rf"^{param} must be\b"):
            call(value, rng)
        assert rng.counter == 0 and rng._pending_normal is None, value


@pytest.mark.parametrize("func, param, ok, lo, hi, call", ROWS, ids=IDS)
def test_real_parameters_answer_in_range_or_refuse(func, param, ok, lo, hi, call):
    # The edges of the range and every magnitude inside it are answered
    # without NaN or refused by a DomainError before any word is drawn.
    inside = [above(lo)] if lo is not None else []
    inside += [below(hi)] if hi is not None else []
    inside += [v for v in MAGNITUDES if (lo is None or v > lo) and (hi is None or v < hi)]
    for value in inside:
        rng = RngStream(1)
        try:
            out = call(value, rng)
        except DomainError:
            assert rng.counter == 0, value
            continue
        assert not np.isnan(_values(out)).any(), value


@pytest.mark.parametrize("func, param, ok, lo, hi, call", ROWS, ids=IDS)
def test_numpy_reals_and_ints_read_as_the_float(func, param, ok, lo, hi, call):
    def run(value):
        rng = RngStream(1)
        out = call(value, rng)
        return pickle.dumps((out, rng.counter, rng._pending_normal))

    assert run(np.float64(ok)) == run(ok)
    if ok == int(ok):
        assert run(int(ok)) == run(ok)


def test_check_real_accepts_finite_reals_and_names_its_bounds():
    assert check_real(3, "x") == 3.0 and type(check_real(3, "x")) is float
    assert type(check_real(np.float32(0.5), "x")) is float and check_real(-5e-324, "x") == -5e-324
    assert check_real(1, "eps", 0.5, 1) == 1.0 and check_real(0.5, "eps", 0.5, 1) == 0.5
    with pytest.raises(DomainError, match=r"^alpha must be a finite real in \(0, 1\), got 1$"):
        check_real(1, "alpha", 0, 1, lo_open=True, hi_open=True)
    with pytest.raises(DomainError, match=r"^eps must be a finite real in \[0\.5, 1\], got 0\.25$"):
        check_real(0.25, "eps", 0.5, 1)
    with pytest.raises(DomainError, match=r"^k must be a finite real > 0, got 0$"):
        check_real(0, "k", 0, lo_open=True)
    with pytest.raises(DomainError, match=r"^x must be a finite real >= 1, got 0\.5$"):
        check_real(0.5, "x", 1)
    with pytest.raises(DomainError, match=r"^d must be a finite real, got nan$"):
        check_real(math.nan, "d")
    with pytest.raises(DomainError, match=r"^x must be a finite real, got 1000"):
        check_real(10**400, "x")  # an int past the double range
    for bad in (True, False, np.bool_(True), "3", None, 1j, [1.0], np.array(0.5)):
        with pytest.raises(DomainError):
            check_real(bad, "x")
