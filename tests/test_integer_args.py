"""Every integer parameter of the library goes through errors.check_int.

One row per (public function, integer parameter): 2.5, NaN, +-inf, True, a
string and a value just out of bounds are refused with a DomainError that
names the parameter, before any word of a stream is drawn or skipped, and
an integral float (3.0) or a NumPy integer gives the bytes the int gives.
"""

import importlib
import inspect
import math
import pickle

import numpy as np
import pytest

from haar_digits.errors import DomainError, check_int
from haar_digits.laws import (
    Benford,
    FlatWindowSignificand,
    PowerLaw,
    UniformSignificand,
    windowed_power_cdf,
)
from haar_digits.lie import (
    ConeProblem,
    MCVolume,
    hyperbolic_cone_area_mc,
    sl2_cone_volume_mc,
)
from haar_digits.rng import RngStream
from haar_digits import samplers as S
from haar_digits.significand import (
    check_base,
    first_digits,
    significand,
    significand_parts,
    significand_values,
)
from haar_digits.specfun import gamma_half_ratio
from haar_digits.sphere import (
    SphereErf,
    SphereExact,
    SphereLimit,
    sphere_joint_band_prob,
    sphere_joint_sig_approx,
    sphere_limit_cdf,
    sphere_sig_cdf_erf,
    sphere_sig_cdf_exact,
)
from haar_digits.stats import build_empirical, digit_contingency, ks_p_approx

SPEC = S.WindowSpec()
MC = MCVolume(accepted=5, trials=10, box_volume=1.0)
X = np.array([0.5, 3.0, 70.0, -2.0])

# (function, parameter, a valid value, least value, greatest value or None,
#  call(value, rng)). The entry rows are entries of a 3 x 3 matrix.
ROWS = [
    ("check_base", "base", 10, 2, None, lambda v, r: check_base(v)),
    ("significand", "base", 10, 2, None, lambda v, r: significand(3.0, v)),
    ("significand_parts", "base", 10, 2, None, lambda v, r: significand_parts(X, v)),
    ("significand_values", "base", 10, 2, None, lambda v, r: significand_values(X, v)),
    ("first_digits", "base", 10, 2, None, lambda v, r: first_digits(X, v)),
    ("Benford", "base", 10, 2, None, lambda v, r: Benford(v)),
    ("PowerLaw", "base", 10, 2, None, lambda v, r: PowerLaw(v, 2.0)),
    ("UniformSignificand", "base", 10, 2, None, lambda v, r: UniformSignificand(v)),
    ("FlatWindowSignificand", "base", 10, 2, None, lambda v, r: FlatWindowSignificand(v, 0.3)),
    ("windowed_power_cdf", "base", 10, 2, None, lambda v, r: windowed_power_cdf(v, 2.0, 3, 1.5)),
    ("windowed_power_cdf", "m", 3, 1, None, lambda v, r: windowed_power_cdf(10, 2.0, v, 1.5)),
    ("sphere_sig_cdf_exact", "n", 3, 1, None, lambda v, r: sphere_sig_cdf_exact(v, 10, 2.0)),
    ("sphere_sig_cdf_exact", "base", 10, 2, None, lambda v, r: sphere_sig_cdf_exact(3, v, 2.0)),
    ("sphere_sig_cdf_erf", "n", 3, 2, None, lambda v, r: sphere_sig_cdf_erf(v, 10, 2.0)),
    ("sphere_sig_cdf_erf", "base", 10, 2, None, lambda v, r: sphere_sig_cdf_erf(3, v, 2.0)),
    ("sphere_limit_cdf", "n", 3, 1, None, lambda v, r: sphere_limit_cdf(v, 10, 2.0)),
    ("sphere_limit_cdf", "base", 10, 2, None, lambda v, r: sphere_limit_cdf(3, v, 2.0)),
    ("sphere_joint_band_prob", "n", 3, 1, None,
     lambda v, r: sphere_joint_band_prob(v, ((0.1, 0.5),))),
    ("sphere_joint_sig_approx", "n", 3, 2, None,
     lambda v, r: sphere_joint_sig_approx(v, 10, ((1.0, 2.0),))),
    ("sphere_joint_sig_approx", "base", 10, 2, None,
     lambda v, r: sphere_joint_sig_approx(3, v, ((1.0, 2.0),))),
    ("SphereExact", "base", 10, 2, None, lambda v, r: SphereExact(v, 3)),
    ("SphereExact", "n", 3, 1, None, lambda v, r: SphereExact(10, v)),
    ("SphereErf", "base", 10, 2, None, lambda v, r: SphereErf(v, 3)),
    ("SphereErf", "n", 3, 2, None, lambda v, r: SphereErf(10, v)),
    ("SphereLimit", "base", 10, 2, None, lambda v, r: SphereLimit(v, 3)),
    ("SphereLimit", "n", 3, 1, None, lambda v, r: SphereLimit(10, v)),
    ("gamma_half_ratio", "n", 3, 1, None, lambda v, r: gamma_half_ratio(v)),
    ("RngStream", "seed", 3, None, None, lambda v, r: RngStream(v)),
    ("RngStream", "stream_id", 3, None, None, lambda v, r: RngStream(1, v)),
    ("RngStream.substream", "k", 3, None, None, lambda v, r: r.substream(v)),
    ("RngStream.skip", "n_words", 3, 0, None, lambda v, r: r.skip(v)),
    ("RngStream.raw", "n", 3, 0, None, lambda v, r: r.raw(v)),
    ("RngStream.random", "size", 3, 0, None, lambda v, r: r.random(v)),
    ("RngStream.uniform", "size", 3, 0, None, lambda v, r: r.uniform(-1.0, 1.0, v)),
    ("RngStream.normal", "size", 3, 0, None, lambda v, r: r.normal((v, 2))),
    ("RngStream.gamma", "size", 3, 0, None, lambda v, r: r.gamma(0.5, v)),
    ("RngStream.chi_square", "dof", 3, 1, None, lambda v, r: r.chi_square(v, 4)),
    ("RngStream.chi_square", "size", 3, 0, None, lambda v, r: r.chi_square(3, (2, v))),
    ("WindowSpec", "m", 3, 1, None, lambda v, r: S.WindowSpec(m=v)),
    ("sample_sphere_coords", "n", 3, 1, None, lambda v, r: S.sample_sphere_coords(v, 1, r, 4)),
    ("sample_sphere_coords", "k", 3, 1, 4, lambda v, r: S.sample_sphere_coords(3, v, r, 4)),
    ("sample_sphere_coords", "count", 3, 1, None,
     lambda v, r: S.sample_sphere_coords(3, 1, r, v)),
    ("sample_orthogonal_haar", "n", 3, 1, None, lambda v, r: S.sample_orthogonal_haar(v, r, 4)),
    ("sample_orthogonal_haar", "count", 3, 1, None,
     lambda v, r: S.sample_orthogonal_haar(3, r, v)),
    ("sample_orthogonal_entry", "n", 3, 1, None,
     lambda v, r: S.sample_orthogonal_entry(v, 0, 0, r, 4)),
    ("sample_orthogonal_entry", "i", 1, 0, 2,
     lambda v, r: S.sample_orthogonal_entry(3, v, 0, r, 4)),
    ("sample_orthogonal_entry", "j", 1, 0, 2,
     lambda v, r: S.sample_orthogonal_entry(3, 0, v, r, 4)),
    ("sample_orthogonal_entry", "count", 3, 1, None,
     lambda v, r: S.sample_orthogonal_entry(3, 0, 0, r, v)),
    ("sample_unitary_haar", "n", 3, 1, None, lambda v, r: S.sample_unitary_haar(v, r, 4)),
    ("sample_unitary_haar", "count", 3, 1, None, lambda v, r: S.sample_unitary_haar(3, r, v)),
    ("sample_unitary_entry", "n", 3, 1, None,
     lambda v, r: S.sample_unitary_entry(v, 0, 0, r, 4)),
    ("sample_unitary_entry", "i", 1, 0, 2, lambda v, r: S.sample_unitary_entry(3, v, 0, r, 4)),
    ("sample_unitary_entry", "j", 1, 0, 2, lambda v, r: S.sample_unitary_entry(3, 0, v, r, 4)),
    ("sample_unitary_entry", "count", 3, 1, None,
     lambda v, r: S.sample_unitary_entry(3, 0, 0, r, v)),
    ("sample_log_uniform", "base", 10, 2, None, lambda v, r: S.sample_log_uniform(v, 3, r, 4)),
    ("sample_log_uniform", "m", 3, 1, None, lambda v, r: S.sample_log_uniform(10, v, r, 4)),
    ("sample_log_uniform", "count", 3, 1, None, lambda v, r: S.sample_log_uniform(10, 3, r, v)),
    ("sample_power_density", "base", 10, 2, None,
     lambda v, r: S.sample_power_density(v, 2.0, 3, r, 4)),
    ("sample_power_density", "m", 3, 1, None,
     lambda v, r: S.sample_power_density(10, 2.0, v, r, 4)),
    ("sample_power_density", "count", 3, 1, None,
     lambda v, r: S.sample_power_density(10, 2.0, 3, r, v)),
    ("triangular_component_law", "n", 3, 1, None,
     lambda v, r: S.triangular_component_law(v, 10, 0, 0, "left")),
    ("triangular_component_law", "base", 10, 2, None,
     lambda v, r: S.triangular_component_law(3, v, 0, 0, "left")),
    ("triangular_component_law", "i", 1, 0, 2,
     lambda v, r: S.triangular_component_law(3, 10, v, 2, "left")),
    ("triangular_component_law", "j", 1, 0, 2,
     lambda v, r: S.triangular_component_law(3, 10, 0, v, "left")),
    ("sample_upper_triangular_window", "n", 3, 1, None,
     lambda v, r: S.sample_upper_triangular_window(v, 10, SPEC, "left", r, 4)),
    ("sample_upper_triangular_window", "base", 10, 2, None,
     lambda v, r: S.sample_upper_triangular_window(3, v, SPEC, "left", r, 4)),
    ("sample_upper_triangular_window", "count", 3, 1, None,
     lambda v, r: S.sample_upper_triangular_window(3, 10, SPEC, "left", r, v)),
    ("sample_triangular_entry", "n", 3, 1, None,
     lambda v, r: S.sample_triangular_entry(v, 10, SPEC, "left", 0, 0, r, 4)),
    ("sample_triangular_entry", "base", 10, 2, None,
     lambda v, r: S.sample_triangular_entry(3, v, SPEC, "left", 0, 0, r, 4)),
    ("sample_triangular_entry", "i", 1, 0, 2,
     lambda v, r: S.sample_triangular_entry(3, 10, SPEC, "left", v, 2, r, 4)),
    ("sample_triangular_entry", "j", 1, 0, 2,
     lambda v, r: S.sample_triangular_entry(3, 10, SPEC, "left", 0, v, r, 4)),
    ("sample_triangular_entry", "count", 3, 1, None,
     lambda v, r: S.sample_triangular_entry(3, 10, SPEC, "left", 0, 0, r, v)),
    ("sample_diagonal_window", "n", 3, 1, None,
     lambda v, r: S.sample_diagonal_window(v, 10, 3, r, 4)),
    ("sample_diagonal_window", "base", 10, 2, None,
     lambda v, r: S.sample_diagonal_window(3, v, 3, r, 4)),
    ("sample_diagonal_window", "m", 3, 1, None,
     lambda v, r: S.sample_diagonal_window(3, 10, v, r, 4)),
    ("sample_diagonal_window", "count", 3, 1, None,
     lambda v, r: S.sample_diagonal_window(3, 10, 3, r, v)),
    ("sample_diagonal_entry", "n", 3, 1, None,
     lambda v, r: S.sample_diagonal_entry(v, 10, 3, 0, r, 4)),
    ("sample_diagonal_entry", "base", 10, 2, None,
     lambda v, r: S.sample_diagonal_entry(3, v, 3, 0, r, 4)),
    ("sample_diagonal_entry", "m", 3, 1, None,
     lambda v, r: S.sample_diagonal_entry(3, 10, v, 0, r, 4)),
    ("sample_diagonal_entry", "i", 1, 0, 2,
     lambda v, r: S.sample_diagonal_entry(3, 10, 3, v, r, 4)),
    ("sample_diagonal_entry", "count", 3, 1, None,
     lambda v, r: S.sample_diagonal_entry(3, 10, 3, 0, r, v)),
    ("sample_sln_lud_window", "n", 3, 2, None,
     lambda v, r: S.sample_sln_lud_window(v, 10, SPEC, r, 4)),
    ("sample_sln_lud_window", "base", 10, 2, None,
     lambda v, r: S.sample_sln_lud_window(3, v, SPEC, r, 4)),
    ("sample_sln_lud_window", "count", 3, 1, None,
     lambda v, r: S.sample_sln_lud_window(3, 10, SPEC, r, v)),
    ("sample_sln_dfactor_entry", "n", 3, 2, None,
     lambda v, r: S.sample_sln_dfactor_entry(v, 10, SPEC, 0, r, 4)),
    ("sample_sln_dfactor_entry", "base", 10, 2, None,
     lambda v, r: S.sample_sln_dfactor_entry(3, v, SPEC, 0, r, 4)),
    ("sample_sln_dfactor_entry", "i", 1, 0, 2,
     lambda v, r: S.sample_sln_dfactor_entry(3, 10, SPEC, v, r, 4)),
    ("sample_sln_dfactor_entry", "count", 3, 1, None,
     lambda v, r: S.sample_sln_dfactor_entry(3, 10, SPEC, 0, r, v)),
    ("sample_sln_matrix_entry", "n", 3, 2, None,
     lambda v, r: S.sample_sln_matrix_entry(v, 10, SPEC, 0, 1, r, 4)),
    ("sample_sln_matrix_entry", "base", 10, 2, None,
     lambda v, r: S.sample_sln_matrix_entry(3, v, SPEC, 0, 1, r, 4)),
    ("sample_sln_matrix_entry", "i", 1, 0, 2,
     lambda v, r: S.sample_sln_matrix_entry(3, 10, SPEC, v, 1, r, 4)),
    ("sample_sln_matrix_entry", "j", 1, 0, 2,
     lambda v, r: S.sample_sln_matrix_entry(3, 10, SPEC, 0, v, r, 4)),
    ("sample_sln_matrix_entry", "count", 3, 1, None,
     lambda v, r: S.sample_sln_matrix_entry(3, 10, SPEC, 0, 1, r, v)),
    ("sample_gln_pos_window", "n", 3, 2, None,
     lambda v, r: S.sample_gln_pos_window(v, 10, SPEC, r, 4)),
    ("sample_gln_pos_window", "base", 10, 2, None,
     lambda v, r: S.sample_gln_pos_window(3, v, SPEC, r, 4)),
    ("sample_gln_pos_window", "count", 3, 1, None,
     lambda v, r: S.sample_gln_pos_window(3, 10, SPEC, r, v)),
    ("sample_gln_det", "n", 3, 2, None, lambda v, r: S.sample_gln_det(v, 10, SPEC, r, 4)),
    ("sample_gln_det", "base", 10, 2, None, lambda v, r: S.sample_gln_det(3, v, SPEC, r, 4)),
    ("sample_gln_det", "count", 3, 1, None, lambda v, r: S.sample_gln_det(3, 10, SPEC, r, v)),
    ("hyperbolic_cone_area_mc", "trials", 50, 1, None,
     lambda v, r: hyperbolic_cone_area_mc(1.0, 2.0, r, v)),
    ("sl2_cone_volume_mc", "trials", 50, 1, None,
     lambda v, r: sl2_cone_volume_mc(ConeProblem(10.0), r, v)),
    ("MCVolume.subregion", "accepted", 3, 0, 5, lambda v, r: MC.subregion(v)),
    ("build_empirical", "base", 10, 2, None, lambda v, r: build_empirical(X, v)),
    ("ks_p_approx", "n", 3, 1, None, lambda v, r: ks_p_approx(0.01, v)),
    ("digit_contingency", "base", 10, 2, None, lambda v, r: digit_contingency(X, X, v)),
]
IDS = [f"{func}-{param}" for func, param, *_ in ROWS]

# Integer parameters that take no check: result records, which hold what
# the library computed, and the word-level SplitMix64 finalizer.
UNCHECKED = {
    ("SignificandDecomposition", "exponent"),
    ("SignificandDecomposition", "sign"),
    ("MCVolume", "accepted"),
    ("MCVolume", "trials"),
    ("EmpiricalDigitDistribution", "base"),
    ("EmpiricalDigitDistribution", "n_rejected"),
    ("GOFReport", "n"),
    ("mix64", "z"),
}


def _annotated_parameters(annotation: str, names=()):
    """(function, parameter) for every parameter of a public function or
    method annotated `annotation`, and every one named in `names`."""
    found = set()
    for module in ("significand", "laws", "sphere", "specfun", "rng", "samplers", "lie", "stats"):
        mod = importlib.import_module(f"haar_digits.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            targets = [(name, obj)]
            if inspect.isclass(obj):
                targets = [(name, obj.__init__)] + [
                    (f"{name}.{attr}", fn)
                    for attr, fn in vars(obj).items()
                    if not attr.startswith("_") and inspect.isfunction(fn)
                ]
            for label, fn in targets:
                if not callable(fn):  # a constant such as TILE
                    continue
                params = inspect.signature(fn).parameters.values()
                found.update(
                    (label, p.name)
                    for p in params
                    if p.annotation == annotation or p.name in names
                )
    return found


def test_every_integer_parameter_has_a_row():
    rows = {(func, param) for func, param, *_ in ROWS}
    assert len(rows) == len(ROWS)
    assert _annotated_parameters("int", names=("size",)) == rows | UNCHECKED


@pytest.mark.parametrize("func, param, ok, lo, hi, call", ROWS, ids=IDS)
def test_integer_parameters_refuse_what_is_not_an_integer_in_range(func, param, ok, lo, hi, call):
    bad = [2.5, math.nan, math.inf, -math.inf, True, np.float64(ok + 0.5), "3"]
    bad += [lo - 1] if lo is not None else []
    bad += [hi + 1] if hi is not None else []
    for value in bad:
        rng = RngStream(1)
        with pytest.raises(DomainError, match=rf"\b{param} must be an integer\b"):
            call(value, rng)
        assert rng.counter == 0 and rng._pending_normal is None, value


@pytest.mark.parametrize("func, param, ok, lo, hi, call", ROWS, ids=IDS)
def test_integral_floats_and_numpy_integers_read_as_the_int(func, param, ok, lo, hi, call):
    def run(value):
        rng = RngStream(1)
        out = call(value, rng)
        return pickle.dumps((out, rng.counter, rng._pending_normal))

    assert run(float(ok)) == run(ok)
    assert run(np.int64(ok)) == run(ok)


def test_check_int_accepts_integers_and_names_its_bounds():
    assert check_int(3, "n") == 3 and type(check_int(3.0, "n")) is int
    assert check_int(np.uint64(2**64 - 1), "k") == 2**64 - 1
    assert check_int(-5, "seed") == -5 and check_int(10**400, "seed") == 10**400
    assert check_int(2, "i", 0, 2) == 2
    with pytest.raises(DomainError, match=r"^i must be an integer in \[0, 2\], got 3$"):
        check_int(3, "i", 0, 2)
    with pytest.raises(DomainError, match=r"^count must be an integer >= 1, got 2\.5$"):
        check_int(2.5, "count", 1)
    with pytest.raises(DomainError, match=r"^seed must be an integer, got None$"):
        check_int(None, "seed")
    for flag in (True, False, np.bool_(True)):
        with pytest.raises(DomainError):
            check_int(flag, "n")
