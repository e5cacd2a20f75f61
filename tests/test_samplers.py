"""Tests for the matrix-group and windowed-density samplers.

Monte Carlo assertions run at fixed seeds with thresholds several standard
errors wide, so they are deterministic and far from flaky.
"""

import math

import numpy as np
import pytest

from haar_digits import samplers
from haar_digits.errors import DomainError
from haar_digits.laws import Benford, FlatWindowSignificand, PowerLaw, UniformSignificand
from haar_digits.rng import RngStream
from haar_digits.samplers import (
    GlnSample,
    SlnSample,
    WindowSpec,
    apply_even_permutations,
    nilpotent_exp,
    permutation_parity,
    random_even_permutation,
    sample_diagonal_entry,
    sample_diagonal_window,
    sample_gln_det,
    sample_gln_pos_window,
    sample_log_uniform,
    sample_orthogonal_haar,
    sample_power_density,
    sample_sln_dfactor_entry,
    sample_sln_lud_window,
    sample_sphere,
    sample_sphere_coords,
    sample_triangular_entry,
    sample_unitary_haar,
    sample_upper_triangular_window,
    triangular_component_law,
)
from haar_digits.significand import significand_values
from haar_digits.sphere import SphereExact
from haar_digits.stats import build_empirical, ks_test


def _ks_passes(values, law, base=10):
    report = ks_test(build_empirical(values, base), law)
    return report.passed, report.statistic


# --- WindowSpec ---------------------------------------------------------------


def test_window_spec_defaults_and_validation():
    spec = WindowSpec()
    assert spec.eps == 1.0 and spec.m == 3
    assert WindowSpec(eps=0.25, m=1).m == 1
    for bad_eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            WindowSpec(eps=bad_eps)
    for bad_m in (0, -2, 1.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            WindowSpec(m=bad_m)


# --- spheres ------------------------------------------------------------------


def test_sample_sphere_shapes_and_norms():
    rng = RngStream(2024)
    single = sample_sphere(4, rng)
    assert single.shape == (5,)
    pts = sample_sphere(4, rng, count=500)
    assert pts.shape == (500, 5)
    norms = np.linalg.norm(pts, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_sample_sphere_coordinate_second_moment():
    # Each coordinate of a uniform point on S^n has E[x^2] = 1/(n+1).
    rng = RngStream(7)
    n = 5
    pts = sample_sphere(n, rng, count=20000)
    m2 = np.mean(pts**2, axis=0)
    assert np.allclose(m2, 1.0 / (n + 1), atol=0.007)


def test_sample_sphere_deterministic():
    a = sample_sphere(3, RngStream(11), count=8)
    b = sample_sphere(3, RngStream(11), count=8)
    assert np.array_equal(a, b)


def test_sample_sphere_coords_shapes_and_range():
    rng = RngStream(5)
    single = sample_sphere_coords(9, 3, rng)
    assert single.shape == (3,)
    coords = sample_sphere_coords(9, 3, rng, count=1000)
    assert coords.shape == (1000, 3)
    assert np.all(np.sum(coords**2, axis=1) < 1.0)
    assert np.all(np.abs(coords) < 1.0)


def test_sample_sphere_coords_validation():
    rng = RngStream(1)
    with pytest.raises(DomainError):
        sample_sphere_coords(3, 4, rng, count=2)
    with pytest.raises(DomainError):
        sample_sphere_coords(0, 1, rng, count=2)
    with pytest.raises(DomainError):
        sample_sphere_coords(3, 0, rng, count=2)


def test_sample_sphere_coords_second_moment():
    rng = RngStream(13)
    n, k = 9, 2
    coords = sample_sphere_coords(n, k, rng, count=20000)
    assert np.allclose(np.mean(coords**2, axis=0), 1.0 / (n + 1), atol=0.004)


def test_sphere_significands_match_exact_law():
    # Both the full-vector and the marginal sampler must reproduce the
    # analytic first-coordinate significand law.
    n = 5
    full = sample_sphere(n, RngStream(41), count=20000)[:, 0]
    ok_full, d_full = _ks_passes(full, SphereExact(base=10, n=n))
    assert ok_full, f"full-sphere KS statistic {d_full}"
    marginal = sample_sphere_coords(n, 1, RngStream(43), count=20000).ravel()
    ok_marg, d_marg = _ks_passes(marginal, SphereExact(base=10, n=n))
    assert ok_marg, f"marginal-sampler KS statistic {d_marg}"


# --- compact groups -----------------------------------------------------------


def test_orthogonal_haar_is_orthogonal():
    qs = sample_orthogonal_haar(5, RngStream(3), count=50)
    eye = np.eye(5)
    for q in qs:
        assert np.allclose(q.T @ q, eye, atol=1e-10)
    dets = np.linalg.det(qs)
    assert np.allclose(np.abs(dets), 1.0, atol=1e-10)
    # QR of a generic Gaussian matrix hits both components of O(n).
    assert (dets > 0).any() and (dets < 0).any()


def test_orthogonal_haar_shapes_info_and_determinism():
    single = sample_orthogonal_haar(3, RngStream(9))
    assert single.shape == (3, 3)
    mats, info = sample_orthogonal_haar(3, RngStream(9), count=4, return_info=True)
    assert mats.shape == (4, 3, 3)
    assert info == {"resampled": 0}
    again = sample_orthogonal_haar(3, RngStream(9), count=4)
    assert np.array_equal(mats, again)


class _SingularFirstBatch:
    """Stream wrapper whose first normal batch has an all-zero matrix at
    row `row`; QR of it gives diag(R) = 0, so the sampler must redraw it."""

    def __init__(self, stream, row):
        self.stream = stream
        self.row = row
        self.batches = 0

    def normal(self, size):
        g = self.stream.normal(size)
        if self.batches == 0:
            g[self.row] = 0.0
        self.batches += 1
        return g


def test_orthogonal_haar_resamples_singular_draw():
    plain = sample_orthogonal_haar(3, RngStream(31), count=6)
    stub = _SingularFirstBatch(RngStream(31), row=2)
    mats, info = sample_orthogonal_haar(3, stub, count=6, return_info=True)
    assert info == {"resampled": 1}
    assert stub.batches == 2
    others = [0, 1, 3, 4, 5]
    assert np.array_equal(mats[others], plain[others])
    assert not np.array_equal(mats[2], plain[2])
    for q in mats:
        assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)


def test_orthogonal_haar_first_entry_moment():
    # Columns of a Haar orthogonal matrix are uniform on S^(n-1), so
    # E[q_00^2] = 1/n.
    n = 4
    qs = sample_orthogonal_haar(n, RngStream(17), count=4000)
    assert np.mean(qs[:, 0, 0] ** 2) == pytest.approx(1.0 / n, abs=0.02)


def test_unitary_haar_is_unitary():
    us = sample_unitary_haar(4, RngStream(23), count=50)
    assert us.dtype.kind == "c"
    eye = np.eye(4)
    for u in us:
        assert np.allclose(u.conj().T @ u, eye, atol=1e-10)
    assert np.allclose(np.abs(np.linalg.det(us)), 1.0, atol=1e-10)


def test_unitary_haar_entry_moment():
    # |u_jk|^2 of a Haar unitary has mean 1/n.
    n = 3
    us = sample_unitary_haar(n, RngStream(29), count=4000)
    assert np.mean(np.abs(us[:, 0, 0]) ** 2) == pytest.approx(1.0 / n, abs=0.02)


def test_unitary_haar_footprint(traced_peak):
    # The complex Gaussian stack is filled a tile at a time and overwritten
    # by its rephased Q factors one QR slice at a time.
    us, peak = traced_peak(lambda: sample_unitary_haar(3, RngStream(37), count=100_000))
    assert peak <= 1.3 * us.nbytes


def test_haar_qr_slices_match_one_whole_stack_qr():
    # Past one QR slice, the sliced in-place QR gives the bytes that one
    # np.linalg.qr over the whole stack gives, with the same sign and phase fix.
    c = 2 * samplers._QR_SLICE + 5
    g = RngStream(41).normal((c, 4, 4))
    q, r = np.linalg.qr(g)
    q *= np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[:, None, :]
    assert sample_orthogonal_haar(4, RngStream(41), count=c).tobytes() == q.tobytes()
    st = RngStream(43)
    z = np.empty((c, 3, 3), dtype=complex)
    z.real = st.normal((c, 3, 3))
    z.imag = st.normal((c, 3, 3))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[:, None, :]
    assert sample_unitary_haar(3, RngStream(43), count=c).tobytes() == q.tobytes()


def test_orthogonal_haar_footprint(traced_peak):
    # The Gaussian stack is overwritten by its signed Q factors one QR slice
    # at a time.
    qs, peak = traced_peak(lambda: sample_orthogonal_haar(4, RngStream(37), count=100_000))
    assert peak <= 1.3 * qs.nbytes


# --- scalar windowed densities --------------------------------------------------


def test_log_uniform_range_and_benford():
    rng = RngStream(101)
    x = sample_log_uniform(10, 3, rng, count=30000)
    assert np.all((x >= 1.0) & (x < 1000.0))
    ok, d = _ks_passes(x, Benford(10))
    assert ok, f"KS statistic {d}"


def test_log_uniform_exponent_uniformity():
    x = sample_log_uniform(10, 3, RngStream(103), count=30000)
    exponents = np.floor(np.log10(x)).astype(int)
    counts = np.bincount(exponents, minlength=3)
    assert counts.sum() == 30000
    # Each decade holds N/3 +- 5 sigma (sigma ~ 82).
    assert np.all(np.abs(counts - 10000) < 450)


def test_log_uniform_validation():
    rng = RngStream(1)
    with pytest.raises(DomainError):
        sample_log_uniform(10, 0, rng, count=4)
    for bad_m in (2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            sample_log_uniform(10, bad_m, rng, count=4)
    with pytest.raises(DomainError):
        sample_log_uniform(1, 2, rng, count=4)
    with pytest.raises(DomainError):
        sample_log_uniform(10, 2, rng, count=0)


def test_power_density_inversion_is_uniform():
    # Push the draws back through the closed-form window CDF; the result
    # must be uniform on [0, 1].
    base, k, m = 10, 2.5, 3
    x = sample_power_density(base, k, m, RngStream(107), count=30000)
    assert np.all((x >= 1.0) & (x < float(base) ** m))
    r = math.expm1((1.0 - k) * m * math.log(base))
    u = np.expm1((1.0 - k) * np.log(x)) / r
    grid = np.linspace(0.0, 1.0, 201)
    ecdf = np.searchsorted(np.sort(u), grid, side="right") / u.size
    assert np.max(np.abs(ecdf - grid)) < 0.012  # KS bound, n = 3e4


def test_power_density_significand_law():
    x = sample_power_density(10, 2.0, 4, RngStream(109), count=30000)
    ok, d = _ks_passes(x, PowerLaw(10, 2.0))
    assert ok, f"KS statistic {d}"


def test_power_density_k1_delegates_to_log_uniform():
    a = sample_power_density(10, 1.0, 3, RngStream(113), count=100)
    b = sample_log_uniform(10, 3, RngStream(113), count=100)
    assert np.array_equal(a, b)


def test_power_density_validation():
    rng = RngStream(1)
    for bad_k in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            sample_power_density(10, bad_k, 2, rng, count=4)
    with pytest.raises(DomainError):
        sample_power_density(10, 2.0, 0, rng, count=4)


@pytest.mark.parametrize("base,m", [(10, 309), (10, 400), (2, 1024), (7, 365)])
def test_window_past_the_double_range_is_rejected(base, m):
    # B^m overflows, so the window would be cut short of m whole decades.
    for draw in (
        lambda: sample_log_uniform(base, m, RngStream(1), count=4),
        lambda: sample_power_density(base, 0.5, m, RngStream(1), count=4),
        lambda: sample_power_density(base, 2.0, m, RngStream(1), count=4),
        lambda: sample_diagonal_window(2, base, m, RngStream(1), count=4),
        lambda: sample_gln_pos_window(2, base, WindowSpec(m=m), RngStream(1), count=4),
    ):
        with pytest.raises(DomainError, match=f"m={m}, base {base}"):
            draw()


@pytest.mark.parametrize("base,m", [(10, 308), (2, 1023), (7, 364)])
def test_window_at_the_double_range_is_finite(base, m):
    for k in (0.5, 1.0, 2.0):
        x = sample_power_density(base, k, m, RngStream(3), count=1000)
        assert np.all(np.isfinite(x) & (x >= 1.0))


# --- triangular group ----------------------------------------------------------


def test_triangular_component_law_table():
    assert isinstance(triangular_component_law(3, 10, 0, 0, "left"), Benford)
    law = triangular_component_law(3, 10, 1, 1, "left")
    assert isinstance(law, PowerLaw) and law.k == 2.0
    law = triangular_component_law(3, 10, 2, 2, "left")
    assert isinstance(law, PowerLaw) and law.k == 3.0
    # Right Haar reverses the exponent order along the diagonal.
    assert isinstance(triangular_component_law(3, 10, 2, 2, "right"), Benford)
    law = triangular_component_law(3, 10, 0, 0, "right")
    assert isinstance(law, PowerLaw) and law.k == 3.0
    assert isinstance(triangular_component_law(3, 10, 0, 2, "left"), UniformSignificand)


def test_triangular_component_law_reads_eps():
    # A flat entry's law is FlatWindowSignificand(B, eps), which is the flat
    # law exactly when eps is a power of the base (1000 and 0.01 included,
    # which floor(log10) misreads).
    for eps in (1.0, 1000.0, 0.01, 1e7):
        assert isinstance(triangular_component_law(3, 10, 0, 2, "left", eps), UniformSignificand)
    law = triangular_component_law(3, 10, 0, 2, "left", 0.3)
    assert law == FlatWindowSignificand(10, 0.3) and law.t == pytest.approx(3.0, rel=1e-15)
    assert isinstance(triangular_component_law(3, 10, 1, 1, "left", 0.3), PowerLaw)


@pytest.mark.parametrize("eps, base", [(0.3, 10), (0.5, 10), (3.7, 7), (1.0, 10)])
def test_flat_entry_follows_its_window_law(eps, base):
    spec = WindowSpec(eps=eps, m=2)
    vals = sample_triangular_entry(3, base, spec, "left", 0, 1, RngStream(227), count=50_000)
    law = triangular_component_law(3, base, 0, 1, "left", eps)
    ok, d = _ks_passes(vals, law, base)
    assert ok, f"KS statistic {d}"


def test_triangular_component_law_validation():
    with pytest.raises(DomainError):
        triangular_component_law(3, 10, 2, 0, "left")  # below diagonal
    with pytest.raises(DomainError):
        triangular_component_law(3, 10, 0, 3, "left")  # out of range
    with pytest.raises(DomainError):
        triangular_component_law(3, 10, 0, 0, "two-sided")


def test_upper_triangular_window_structure():
    spec = WindowSpec(eps=0.5, m=2)
    mats = sample_upper_triangular_window(3, 10, spec, "left", RngStream(211), count=200)
    assert mats.shape == (200, 3, 3)
    assert np.all(mats[:, 1, 0] == 0.0)
    assert np.all(mats[:, 2, 0] == 0.0)
    assert np.all(mats[:, 2, 1] == 0.0)
    for i in range(3):
        d = mats[:, i, i]
        assert np.all((d >= 1.0) & (d < 100.0))
        for j in range(i + 1, 3):
            assert np.all(np.abs(mats[:, i, j]) <= 0.5)


def test_upper_triangular_window_entry_laws_hold():
    # eps = 1 is a power of the base, so the flat significand law for the
    # off-diagonal entry is exact, and the (1,1) left-Haar entry follows
    # the k=2 power law.
    spec = WindowSpec(eps=1.0, m=3)
    mats = sample_upper_triangular_window(2, 10, spec, "left", RngStream(223), count=30000)
    diag = mats[:, 1, 1]
    ok, d = _ks_passes(diag, PowerLaw(10, 2.0))
    assert ok, f"diagonal KS statistic {d}"
    upper = mats[:, 0, 1]
    ok, d = _ks_passes(upper, UniformSignificand(10))
    assert ok, f"off-diagonal KS statistic {d}"


def test_upper_triangular_window_deterministic():
    spec = WindowSpec()
    a = sample_upper_triangular_window(3, 10, spec, "right", RngStream(5), count=6)
    b = sample_upper_triangular_window(3, 10, spec, "right", RngStream(5), count=6)
    assert np.array_equal(a, b)
    with pytest.raises(DomainError):
        sample_upper_triangular_window(3, 10, spec, "two-sided", RngStream(5), count=6)


# --- diagonal group --------------------------------------------------------------


def test_diagonal_window_shapes_and_range():
    rng = RngStream(307)
    single = sample_diagonal_window(4, 10, 2, rng)
    assert single.shape == (4,)
    entries = sample_diagonal_window(4, 10, 2, rng, count=300)
    assert entries.shape == (300, 4)
    assert np.all((entries >= 1.0) & (entries < 100.0))


def test_diagonal_window_det_one():
    entries = sample_diagonal_window(3, 10, 2, RngStream(311), count=2000, det_one=True)
    prods = np.prod(entries, axis=1)
    assert np.allclose(prods, 1.0, rtol=1e-12)
    # Free entries stay in the window; the forced entry lands in (B^-2m, 1].
    assert np.all((entries[:, :2] >= 1.0) & (entries[:, :2] < 100.0))
    assert np.all((entries[:, 2] > 1e-4) & (entries[:, 2] <= 1.0))
    # With n = 1 the only entry would be pinned to 1/prod() = 1.
    with pytest.raises(DomainError, match="det_one needs n >= 2"):
        sample_diagonal_window(1, 10, 2, RngStream(311), count=4, det_one=True)


def test_diagonal_window_forced_entry_is_benford():
    entries = sample_diagonal_window(3, 10, 3, RngStream(313), count=30000, det_one=True)
    ok, d = _ks_passes(entries[:, 2], Benford(10))
    assert ok, f"forced-entry KS statistic {d}"


# --- nilpotent exponential --------------------------------------------------------


def test_nilpotent_exp_known_values():
    N = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(nilpotent_exp(N), np.array([[1.0, 2.0], [0.0, 1.0]]))
    N3 = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    expected = np.array([[1.0, 1.0, 3.5], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]])
    assert np.allclose(nilpotent_exp(N3), expected, atol=1e-15)
    # Strictly lower input works too.
    assert np.allclose(nilpotent_exp(N3.T), expected.T, atol=1e-15)


def test_nilpotent_exp_inverse_property():
    rng = RngStream(401)
    N = np.triu(rng.normal((5, 5)), k=1)
    prod = nilpotent_exp(N) @ nilpotent_exp(-N)
    assert np.allclose(prod, np.eye(5), atol=1e-12)


def test_nilpotent_exp_stacked():
    rng = RngStream(403)
    stack = np.triu(rng.normal((7, 4, 4)), k=1)
    out = nilpotent_exp(stack)
    assert out.shape == (7, 4, 4)
    for i in range(7):
        assert np.allclose(out[i], nilpotent_exp(stack[i]))


def test_nilpotent_exp_validation():
    with pytest.raises(DomainError):
        nilpotent_exp(np.array([[1.0, 2.0], [0.0, 0.0]]))  # diagonal entry
    with pytest.raises(DomainError):
        nilpotent_exp(np.array([[0.0, 1.0], [1.0, 0.0]]))  # both triangles
    with pytest.raises(DomainError):
        nilpotent_exp(np.array([[0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        nilpotent_exp(np.zeros((2, 3)))
    with pytest.raises(DomainError):  # one strictly lower, one strictly upper: mixed stack
        nilpotent_exp(np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]]))


# --- special linear group ----------------------------------------------------------


def test_sln_lud_window_structure():
    spec = WindowSpec(eps=0.8, m=2)
    sample = sample_sln_lud_window(3, 10, spec, RngStream(419), count=500)
    assert isinstance(sample, SlnSample)
    assert sample.g.shape == (500, 3, 3)
    # X strictly lower, Y strictly upper, entries inside the box.
    assert np.all(np.triu(sample.X, k=0) == 0.0)
    assert np.all(np.tril(sample.Y, k=0) == 0.0)
    assert np.all(np.abs(sample.X) <= 0.8)
    assert np.all(np.abs(sample.Y) <= 0.8)
    assert np.allclose(np.linalg.det(sample.g), 1.0, rtol=1e-10)


def test_sln_lud_window_diagonal_factor():
    spec = WindowSpec(eps=0.5, m=3)
    sample = sample_sln_lud_window(3, 10, spec, RngStream(421), count=30000)
    # g = (exp(X) exp(Y)) * d column-wise, so g_ij = (LU)_ij * d_j.
    lu = nilpotent_exp(sample.X) @ nilpotent_exp(sample.Y)
    assert np.array_equal(lu * sample.diag[:, None, :], sample.g)
    assert sample.g is sample.g  # formed once, on first read
    assert np.allclose(np.prod(sample.diag, axis=1), 1.0, rtol=1e-12)
    for col in (0, 1):
        ok, d = _ks_passes(sample.diag[:, col], Benford(10))
        assert ok, f"diag[{col}] KS statistic {d}"


def test_sln_lud_window_matrix_entry_is_benford():
    # Every entry of g is (LU factor) * d_j with d_j log-uniform over full
    # decades and independent of the factor, so by scale invariance its
    # significand is Benford -- diagonal entries included.
    spec = WindowSpec(eps=0.5, m=3)
    sample = sample_sln_lud_window(3, 10, spec, RngStream(431), count=30000)
    for (i, j) in ((2, 1), (1, 1)):
        ok, d = _ks_passes(sample.g[:, i, j], Benford(10))
        assert ok, f"entry ({i},{j}) KS statistic {d}"


def test_sln_lud_window_validation():
    rng = RngStream(1)
    with pytest.raises(DomainError):
        sample_sln_lud_window(1, 10, WindowSpec(), rng, count=4)


def test_sln_lud_window_footprint(traced_peak):
    # exp(X) and exp(Y) accumulate their series in place and the diagonal
    # scaling is applied to the product in place.
    spec = WindowSpec()
    g, peak = traced_peak(lambda: sample_sln_lud_window(3, 10, spec, RngStream(43), 250_000).g)
    assert peak <= 7.0 * g.nbytes


@pytest.mark.parametrize(
    "read",
    [
        lambda: sample_sln_dfactor_entry(3, 10, WindowSpec(), 0, RngStream(43), 250_000),
        lambda: sample_gln_det(3, 10, WindowSpec(), RngStream(43), 250_000),
    ],
    ids=["sln-diag", "gln-det"],
)
def test_windowed_factors_without_products_footprint(traced_peak, read):
    # A caller that reads one diagonal-factor entry or the determinant draws
    # one block of 250k values and skips the rest: the peak is that block
    # plus the uniform kernel's tile temporaries.
    _, peak = traced_peak(read)
    assert peak <= 1.5 * 250_000 * 8


def test_sln_and_gln_single_draws():
    spec = WindowSpec(eps=0.5, m=2)
    one = sample_sln_lud_window(3, 10, spec, RngStream(433))
    batch = sample_sln_lud_window(3, 10, spec, RngStream(433), count=1)
    assert one.g.shape == (3, 3) and one.diag.shape == (3,)
    assert np.array_equal(one.g, batch.g[0])
    gl_one = sample_gln_pos_window(3, 10, spec, RngStream(437))
    gl_batch = sample_gln_pos_window(3, 10, spec, RngStream(437), count=1)
    assert gl_one.matrices.shape == (3, 3) and np.ndim(gl_one.det) == 0
    assert np.array_equal(gl_one.matrices, gl_batch.matrices[0])
    assert gl_one.det == gl_batch.det[0]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_windowed_samplers_consume_the_documented_words(n):
    # One uniform is one word; the counts are those the docstrings state.
    c = 7
    spec = WindowSpec(eps=0.5, m=2)
    triangular_words = n * (n + 1) // 2 * c
    sln_words = n * (n - 1) * c + (n - 1) * c
    cases = [
        (lambda st: sample_log_uniform(10, 2, st, c), c),
        (lambda st: sample_power_density(10, 2.5, 2, st, c), c),
        (lambda st: sample_upper_triangular_window(n, 10, spec, "left", st, c), triangular_words),
        (lambda st: sample_diagonal_window(n, 10, 2, st, c), n * c),
        (lambda st: sample_diagonal_window(n, 10, 2, st, c, det_one=True), (n - 1) * c),
        (lambda st: sample_sln_lud_window(n, 10, spec, st, c), sln_words),
        (lambda st: sample_gln_pos_window(n, 10, spec, st, c), sln_words + c),
    ]
    # A one-entry read skips the blocks it does not read, but the counter
    # still ends past the whole layout.
    for i in range(n):
        cases.append((lambda st, i=i: sample_diagonal_entry(n, 10, 2, i, st, c), n * c))
        cases.append(
            (lambda st, i=i: sample_diagonal_entry(n, 10, 2, i, st, c, det_one=True), (n - 1) * c)
        )
        cases.append((lambda st, i=i: sample_sln_dfactor_entry(n, 10, spec, i, st, c), sln_words))
        for j in range(i, n):
            cases.append(
                (lambda st, i=i, j=j: sample_triangular_entry(n, 10, spec, "left", i, j, st, c),
                 triangular_words)
            )
    cases.append((lambda st: sample_gln_det(n, 10, spec, st, c), sln_words + c))
    for draw, words in cases:
        st = RngStream(491)
        draw(st)
        assert st.counter == words


@pytest.mark.parametrize("n", [2, 3, 5])
def test_one_entry_reads_equal_the_full_draws(n):
    # Each one-entry route gives bit for bit the column the full draw gives,
    # and leaves the stream where the full draw leaves it.
    c = 9
    spec = WindowSpec(eps=0.3, m=2)

    def same(one_entry, full):
        a, b = RngStream(503, 1), RngStream(503, 1)
        assert one_entry(a).tobytes() == np.ascontiguousarray(full(b)).tobytes()
        assert a.counter == b.counter
        assert a.random(3).tobytes() == b.random(3).tobytes()

    for side in ("left", "right"):
        for i in range(n):
            for j in range(i, n):
                same(
                    lambda st: sample_triangular_entry(n, 7, spec, side, i, j, st, c),
                    lambda st: sample_upper_triangular_window(n, 7, spec, side, st, c)[:, i, j],
                )
    for i in range(n):
        for det_one in (False, True):
            same(
                lambda st: sample_diagonal_entry(n, 10, 2, i, st, c, det_one=det_one),
                lambda st: sample_diagonal_window(n, 10, 2, st, c, det_one=det_one)[:, i],
            )
        same(
            lambda st: sample_sln_dfactor_entry(n, 10, spec, i, st, c),
            lambda st: sample_sln_lud_window(n, 10, spec, st, c).diag[:, i],
        )
    same(
        lambda st: sample_gln_det(n, 10, spec, st, c),
        lambda st: sample_gln_pos_window(n, 10, spec, st, c).det,
    )


def test_one_entry_reads_validate_the_entry():
    spec = WindowSpec()
    for i, j in ((1, 0), (0, 3), (-1, 0)):
        with pytest.raises(DomainError):
            sample_triangular_entry(3, 10, spec, "left", i, j, RngStream(1), 4)
    for i in (-1, 3):
        with pytest.raises(DomainError):
            sample_diagonal_entry(3, 10, 2, i, RngStream(1), 4)
        with pytest.raises(DomainError):
            sample_sln_dfactor_entry(3, 10, spec, i, RngStream(1), 4)
    single = sample_gln_det(3, 10, spec, RngStream(437))
    assert np.ndim(single) == 0
    assert single == sample_gln_pos_window(3, 10, spec, RngStream(437)).det


# --- permutations --------------------------------------------------------------


def test_permutation_parity_known():
    assert permutation_parity([0, 1, 2]) == 1
    assert permutation_parity([1, 0, 2]) == -1
    assert permutation_parity([1, 2, 0]) == 1
    assert permutation_parity([3, 2, 1, 0]) == 1  # two disjoint swaps
    with pytest.raises(DomainError):
        permutation_parity([0, 0, 2])


def test_random_even_permutation_always_even():
    rng = RngStream(443)
    for _ in range(200):
        P = random_even_permutation(4, rng)
        assert np.array_equal(np.sort(P, axis=1)[:, :-1], np.zeros((4, 3)))
        assert np.linalg.det(P) == pytest.approx(1.0, abs=1e-12)


def test_random_even_permutation_uniform_on_a3():
    # A_3 has exactly three elements; each should appear ~1/3 of the time.
    rng = RngStream(449)
    counts = {}
    draws = 3000
    for _ in range(draws):
        key = tuple(np.argmax(random_even_permutation(3, rng), axis=1))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    for key in counts:
        assert abs(counts[key] - draws / 3) < 130  # ~5 sigma


def test_apply_even_permutations():
    rng = RngStream(457)
    A = rng.normal((3, 3))
    P = random_even_permutation(3, rng)
    Q = random_even_permutation(3, rng)
    out = apply_even_permutations(A, P, Q)
    assert np.allclose(out, P @ A @ Q)
    # Stacked input.
    stack = rng.normal((5, 3, 3))
    out = apply_even_permutations(stack, P, Q)
    assert np.allclose(out, P @ stack @ Q)


def test_apply_even_permutations_rejects_odd():
    odd = np.eye(3)[[1, 0, 2]]
    even = np.eye(3)
    A = np.eye(3)
    with pytest.raises(DomainError):
        apply_even_permutations(A, odd, even)
    with pytest.raises(DomainError):
        apply_even_permutations(A, even, odd)
    with pytest.raises(DomainError):
        apply_even_permutations(A, np.full((3, 3), 0.5), even)


# --- GL_n^+ ---------------------------------------------------------------------


def test_gln_pos_window_determinant():
    spec = WindowSpec(eps=0.5, m=3)
    sample = sample_gln_pos_window(3, 10, spec, RngStream(461), count=2000)
    assert isinstance(sample, GlnSample)
    assert sample.matrices.shape == (2000, 3, 3)
    assert np.all(sample.det > 0.0)
    assert np.all((sample.det >= 1.0) & (sample.det < 1000.0))
    assert np.allclose(np.linalg.det(sample.matrices), sample.det, rtol=1e-10)
    # g = det^(1/n) times the SL_n factor, scaled after the factor is formed.
    scale = np.power(sample.det, 1.0 / 3)[:, None, None]
    assert np.array_equal(sample.matrices, sample.sln.g * scale)


def test_gln_pos_window_det_is_benford():
    spec = WindowSpec(eps=0.5, m=3)
    sample = sample_gln_pos_window(2, 10, spec, RngStream(463), count=30000)
    ok, d = _ks_passes(sample.det, Benford(10))
    assert ok, f"determinant KS statistic {d}"


def test_gln_pos_window_validation():
    rng = RngStream(1)
    with pytest.raises(DomainError):
        sample_gln_pos_window(1, 10, WindowSpec(), rng, count=4)


# --- significand consistency across samplers -------------------------------------


def test_scale_invariance_of_benford_samples():
    # Multiplying a Benford sample by any constant preserves the law.
    x = sample_log_uniform(10, 3, RngStream(467), count=30000)
    ok, d = _ks_passes(3.7 * x, Benford(10))
    assert ok, f"scaled KS statistic {d}"


def test_uniform_values_are_not_benford():
    # Uniform draws on [1, 1000) have a flat density, not 1/x; the KS test
    # against Benford must reject decisively.
    rng = RngStream(479)
    x = rng.uniform(1.0, 1000.0, 30000)
    report = ks_test(build_empirical(x, 10), Benford(10))
    assert not report.passed
    assert report.statistic > 0.05


def test_significand_values_roundtrip_on_samples():
    x = sample_power_density(10, 3.0, 2, RngStream(487), count=1000)
    s = significand_values(x, 10)
    assert np.all((s >= 1.0) & (s < 10.0))
