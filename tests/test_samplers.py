"""Tests for the matrix-group and windowed-density samplers.

Monte Carlo assertions run at fixed seeds with thresholds several standard
errors wide, so they are deterministic and far from flaky.
"""

import itertools
import math
import sys

import numpy as np
import pytest

from haar_digits import samplers
from haar_digits.errors import DomainError
from haar_digits.laws import Benford, FlatWindowSignificand, PowerLaw, UniformSignificand
from haar_digits.rng import TILE, RngStream
from haar_digits.samplers import (
    GlnSample,
    SlnSample,
    WindowSpec,
    nilpotent_exp,
    sample_diagonal_entry,
    sample_diagonal_window,
    sample_gln_det,
    sample_gln_pos_window,
    sample_log_uniform,
    sample_orthogonal_entry,
    sample_orthogonal_haar,
    sample_power_density,
    sample_sln_dfactor_entry,
    sample_sln_lud_window,
    sample_sln_matrix_entry,
    sample_sphere_coords,
    sample_triangular_entry,
    sample_unitary_entry,
    sample_unitary_haar,
    sample_upper_triangular_window,
    triangular_component_law,
)
from haar_digits.significand import significand_values
from haar_digits.sphere import SphereExact
from haar_digits.stats import build_empirical, ks_p_approx, ks_test


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


def test_window_spec_eps_bounds_at_the_edge_and_past_it():
    # eps is a normal double with 2 eps finite: the box [-eps, eps) is a
    # finite uniform range that holds enough doubles to be flat.
    low, high = sys.float_info.min, sys.float_info.max / 2
    for eps in (low, high):
        vals = sample_triangular_entry(2, 10, WindowSpec(eps=eps), "left", 0, 1, RngStream(5), 100)
        assert np.all(np.isfinite(vals)) and np.all(np.abs(vals) <= eps)
    for eps in (math.nextafter(low, 0.0), math.nextafter(high, math.inf)):
        with pytest.raises(DomainError, match=r"^eps must be a finite real in \["):
            WindowSpec(eps=eps)


# --- spheres ------------------------------------------------------------------


def test_sample_sphere_shapes_and_norms():
    rng = RngStream(2024)
    assert sample_sphere_coords(4, 5, rng, count=1).shape == (1, 5)
    pts = sample_sphere_coords(4, 5, rng, count=500)
    assert pts.shape == (500, 5)
    norms = np.linalg.norm(pts, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_sample_sphere_coordinate_second_moment():
    # Each coordinate of a uniform point on S^n has E[x^2] = 1/(n+1).
    rng = RngStream(7)
    n = 5
    pts = sample_sphere_coords(n, n + 1, rng, count=20000)
    m2 = np.mean(pts**2, axis=0)
    assert np.allclose(m2, 1.0 / (n + 1), atol=0.007)


def test_sample_sphere_deterministic():
    a = sample_sphere_coords(3, 4, RngStream(11), count=8)
    b = sample_sphere_coords(3, 4, RngStream(11), count=8)
    assert np.array_equal(a, b)


def _polar_reference(n, k, seed, count):
    """sample_sphere_coords(n, k, RngStream(seed), count) replayed by hand:
    the pairs of one untiled rng.random call, the first count*k accepted ones,
    each value's coordinates from k consecutive ones; and the counter, the
    words up to the last of them."""
    need = count * k
    uv = RngStream(seed).random(2 * (2 * need + 64)) * 2.0 - 1.0
    u, v = uv[0::2], uv[1::2]
    w = u * u + v * v
    kept = np.flatnonzero((w > 0.0) & (w < 1.0))
    assert kept.size >= need
    kept = kept[:need]
    u, w = u[kept], w[kept]
    d = n - np.arange(need) % k  # coordinate j is the first one of S^(n-j)
    with np.errstate(divide="ignore"):
        a = np.where(d > 1, 2.0 / (d - 1.0), np.inf)
    y = u * np.sqrt(-np.expm1(a * np.log(w)) / w)
    y = np.where(d == 0, np.copysign(1.0, u), y).reshape(count, k)
    x = y.copy()
    x[:, 1:] *= np.cumprod(np.sqrt(1.0 - y * y), axis=1)[:, :-1]
    return x, 2 * (int(kept[-1]) + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 50])
def test_sample_sphere_whole_point_replays_polar_pairs(n):
    # The whole point of S^n, k = n + 1, bit for bit the hand replay, with
    # the last coordinate sign(u) times the radius left; across tile edges too.
    for count in (1, 7, TILE + 3):
        rng = RngStream(47)
        got = sample_sphere_coords(n, n + 1, rng, count)
        reference, words = _polar_reference(n, n + 1, 47, count)
        assert got.tobytes() == reference.tobytes()
        assert rng.counter == words


def test_sample_sphere_coords_shapes_and_range():
    rng = RngStream(5)
    assert sample_sphere_coords(9, 3, rng, count=1).shape == (1, 3)
    coords = sample_sphere_coords(9, 3, rng, count=1000)
    assert coords.shape == (1000, 3)
    assert np.all(np.sum(coords**2, axis=1) < 1.0)
    assert np.all(np.abs(coords) < 1.0)


def test_sample_sphere_coords_validation():
    rng = RngStream(1)
    with pytest.raises(DomainError):
        sample_sphere_coords(3, 5, rng, count=2)  # S^3 has n + 1 = 4 coordinates
    with pytest.raises(DomainError):
        sample_sphere_coords(0, 1, rng, count=2)
    with pytest.raises(DomainError):
        sample_sphere_coords(3, 0, rng, count=2)


def test_sample_sphere_coords_second_moment():
    rng = RngStream(13)
    n, k = 9, 2
    coords = sample_sphere_coords(n, k, rng, count=20000)
    assert np.allclose(np.mean(coords**2, axis=0), 1.0 / (n + 1), atol=0.004)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
def test_sample_sphere_coords_replays_polar_pairs(k):
    # Rounds of at most TILE / 2 pairs; every bit and the counter are those
    # of the untiled hand replay, across tile edges too.
    count = 2 * TILE + 17
    rng = RngStream(29)
    got = sample_sphere_coords(9, k, rng, count)
    reference, words = _polar_reference(9, k, 29, count)
    assert got.tobytes() == reference.tobytes()
    assert rng.counter == words


@pytest.mark.parametrize("k", [1, 2, 10])  # 10 = n + 1, the whole point of S^9
def test_sample_sphere_coords_do_not_depend_on_how_a_draw_is_split(k):
    # Every 2- and 3-way split of one draw at the cuts below gives the bytes
    # and the final counter of the single call.
    n, count = 9, 2 * TILE + 17
    rng = RngStream(53)
    whole = sample_sphere_coords(n, k, rng, count).tobytes()
    cuts = (1, 17, TILE // 2, TILE, TILE + 1, 2 * TILE, count - 1)
    for split in [(c,) for c in cuts] + list(itertools.combinations(cuts, 2)):
        bounds = (0, *split, count)
        part = RngStream(53)
        got = [sample_sphere_coords(n, k, part, b - a) for a, b in zip(bounds, bounds[1:])]
        assert np.concatenate(got).tobytes() == whole, split
        assert part.counter == rng.counter, split


def test_sample_sphere_coords_footprint(traced_peak):
    # The output and one round's temporaries (1.3 MiB): no radius array at
    # k = 1, and nothing else of the output's size.
    coords, peak = traced_peak(lambda: sample_sphere_coords(9, 1, RngStream(31), 1_000_000))
    assert peak <= coords.nbytes + 1.5 * 2**20


def test_sphere_significands_match_exact_law():
    # Both the whole point (k = n + 1) and the marginal (k = 1) must
    # reproduce the analytic first-coordinate significand law.
    n = 5
    full = sample_sphere_coords(n, n + 1, RngStream(41), count=20000)[:, 0]
    ok_full, d_full = _ks_passes(full, SphereExact(base=10, n=n))
    assert ok_full, f"full-sphere KS statistic {d_full}"
    marginal = sample_sphere_coords(n, 1, RngStream(43), count=20000).ravel()
    ok_marg, d_marg = _ks_passes(marginal, SphereExact(base=10, n=n))
    assert ok_marg, f"marginal-sampler KS statistic {d_marg}"


# (n, a sphere whose law the draws must not pass for, or None): the controls
# are a tenth or a third of the dimension, and S^1 beside S^2.
_SPHERE_KS = [(1, None), (2, 1), (3, None), (9, 3), (100, 30), (50_000, 5_000)]


@pytest.mark.parametrize("n, control", _SPHERE_KS, ids=[f"n{n}" for n, _ in _SPHERE_KS])
def test_sphere_coordinate_passes_ks_against_its_own_sphere_only(n, control):
    # 10^6 draws at alpha = 1e-3: the law of S^n passes, a nearby one fails.
    draws = build_empirical(sample_sphere_coords(n, 1, RngStream(1000 + n), 10**6)[:, 0], 10)
    assert ks_test(draws, SphereExact(10, n)).passed
    if control is not None:
        assert not ks_test(draws, SphereExact(10, control)).passed


@pytest.mark.parametrize("n", [2, 3, 9, 100])
def test_sphere_two_coordinates_have_the_radius_law(n):
    # x_1^2 + x_2^2 of S^n is Beta(1, (n - 1)/2): CDF 1 - (1 - t)^((n-1)/2).
    # This checks the radius recursion r_1 = sqrt(1 - y_0^2) across pairs.
    x = sample_sphere_coords(n, 2, RngStream(2000 + n), 10**6)
    t = np.sort(np.sum(x * x, axis=1))
    cdf = -np.expm1((n - 1) / 2 * np.log1p(-t))
    i = np.arange(1, t.size + 1)
    d = max(np.max(i / t.size - cdf), np.max(cdf - (i - 1) / t.size))
    assert ks_p_approx(d, t.size) >= 1e-3


@pytest.mark.parametrize("n", [1, 2, 5, 50, 200])
def test_sphere_whole_points_are_unit_with_a_balanced_last_sign(n):
    # The recursion costs about one rounding a coordinate; the last
    # coordinate's sign is that of u, positive half of the time.
    pts = sample_sphere_coords(n, n + 1, RngStream(3000 + n), 20_000)
    assert np.max(np.abs(np.sum(pts * pts, axis=1) - 1.0)) <= (n + 1) * np.finfo(float).eps
    assert abs(np.mean(pts[:, -1] > 0.0) - 0.5) < 5 * 0.5 / math.sqrt(len(pts))


# Every public sampler with its arguments but `count`.
_SAMPLER_ARGS = {
    "sample_sphere_coords": (3, 1, RngStream(1)),
    "sample_orthogonal_haar": (3, RngStream(1)),
    "sample_orthogonal_entry": (3, 0, 1, RngStream(1)),
    "sample_unitary_haar": (3, RngStream(1)),
    "sample_unitary_entry": (3, 0, 1, RngStream(1)),
    "sample_log_uniform": (10, 2, RngStream(1)),
    "sample_power_density": (10, 2.0, 2, RngStream(1)),
    "sample_upper_triangular_window": (3, 10, WindowSpec(), "left", RngStream(1)),
    "sample_triangular_entry": (3, 10, WindowSpec(), "left", 0, 1, RngStream(1)),
    "sample_diagonal_window": (3, 10, 2, RngStream(1)),
    "sample_diagonal_entry": (3, 10, 2, 0, RngStream(1)),
    "sample_sln_lud_window": (3, 10, WindowSpec(), RngStream(1)),
    "sample_sln_dfactor_entry": (3, 10, WindowSpec(), 0, RngStream(1)),
    "sample_sln_matrix_entry": (3, 10, WindowSpec(), 0, 1, RngStream(1)),
    "sample_gln_pos_window": (3, 10, WindowSpec(), RngStream(1)),
    "sample_gln_det": (3, 10, WindowSpec(), RngStream(1)),
}


def test_every_public_sampler_is_listed():
    assert sorted(_SAMPLER_ARGS) == sorted(n for n in samplers.__all__ if n.startswith("sample_"))


@pytest.mark.parametrize("name", sorted(_SAMPLER_ARGS))
def test_every_sampler_requires_count(name):
    with pytest.raises(TypeError, match="count"):
        getattr(samplers, name)(*_SAMPLER_ARGS[name])


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


def test_orthogonal_haar_shapes_and_determinism():
    assert sample_orthogonal_haar(3, RngStream(9), count=1).shape == (1, 3, 3)
    mats = sample_orthogonal_haar(3, RngStream(9), count=4)
    assert mats.shape == (4, 3, 3)
    again = sample_orthogonal_haar(3, RngStream(9), count=4)
    assert np.array_equal(mats, again)


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
    # Each slice's vectors are drawn, reflected into its Q factors and
    # copied to the output before the next one is drawn.
    us, peak = traced_peak(lambda: sample_unitary_haar(3, RngStream(37), count=100_000))
    assert peak <= 1.3 * us.nbytes


_HAAR_QR_CASES = [(n, dtype) for dtype in (float, complex) for n in (1, 2, 3, 4, 10)]
_HAAR_QR_IDS = [f"{'R' if dtype is float else 'C'}{n}" for n, dtype in _HAAR_QR_CASES]
_PARTS = {float: 1, complex: 2}


def _vector_entries(n, cols):
    """Entries of a value's vectors g_0 .. g_(cols-1): n + (n - 1) + ..."""
    return cols * (2 * n - cols + 1) // 2


def _qr_slice(n, dtype):
    """Matrices per slice of a whole-matrix draw."""
    return samplers._qr_slice(_PARTS[dtype] * (_vector_entries(n, n) + n * n))


def _haar_qr_count(n, dtype):
    """Two whole slices and a short one."""
    return 2 * _qr_slice(n, dtype) + 5


def _gaussian_vectors(rng, count, n, cols, dtype):
    """The vectors g_0 .. g_(cols-1) of each of `count` values as the Haar
    samplers draw them: value by value, each value's vectors in turn, an
    entry one normal over R and two over C, its real and then its imaginary
    part. A list (one per value) of lists of Python numbers."""
    flat = rng.normal((count, _PARTS[dtype] * _vector_entries(n, cols))).view(dtype)
    offsets = [_vector_entries(n, k) for k in range(cols + 1)]
    return [[row[offsets[k] : offsets[k + 1]].tolist() for k in range(cols)] for row in flat]


def _householder_reference(vectors, n):
    """Q (n x c) of one value from its vectors g_0 .. g_(c-1), by plain
    Python arithmetic in the kernel's order (|z| of a complex is abs, libm's
    hypot, as np.hypot is). y_k = g_k / |g_k| and
    v_k = g_k + phi_k |g_k| e_0 with phi_k = g_k[0] / |g_k[0]|, or e_0 and
    e_0 for a zero g_k; 2 / |v_k|^2 = 1 / (|g_k| (|g_k| + |g_k[0]|)),
    or 2. Column j is H_0 ... H_(j-1) y_j, each H_k applied as
    x -= v_k (beta_k sum_t conj(v_k[t]) x[t]), the sum from 0 upward."""
    refl, q = [], np.zeros((n, len(vectors)), dtype=type(vectors[0][0]))
    for k, g in enumerate(vectors):
        acc = 0 * g[0]
        for z in g:
            acc += z.conjugate() * z
        nrm = math.sqrt(acc.real)
        if nrm == 0.0:
            unit = [1.0] + [0.0] * (n - k - 1)
            refl.append((unit, 2.0))
        else:
            a = abs(g[0])
            phi = g[0] / a if a else 1.0
            refl.append(([g[0] + phi * nrm] + g[1:], 1.0 / (nrm * (nrm + a))))
            unit = [z / nrm for z in g]
        x = [0.0] * k + unit
        for h in range(k - 1, -1, -1):
            v, beta = refl[h]
            acc = 0 * x[0]
            for t, z in enumerate(v):
                acc += z.conjugate() * x[h + t]
            w = acc * beta
            for t, z in enumerate(v):
                x[h + t] = x[h + t] - z * w
        q[:, k] = x
    return q


def _haar_draw(n, dtype, seed, count):
    """(vectors, Haar sample) of one seed: the vectors the sampler draws."""
    vectors = _gaussian_vectors(RngStream(seed), count, n, n, dtype)
    return vectors, samplers._haar_qr(n, RngStream(seed), count, dtype)


@pytest.mark.parametrize("lone", [True, False], ids=["lone", "sliced"])
@pytest.mark.parametrize("n, dtype", _HAAR_QR_CASES, ids=_HAAR_QR_IDS)
def test_haar_qr_matches_per_matrix_reference(n, dtype, lone):
    # Bit for bit, for a lone matrix and on both sides of each slice edge.
    count = 1 if lone else _haar_qr_count(n, dtype)
    vectors, q = _haar_draw(n, dtype, 41, count)
    step = _qr_slice(n, dtype)
    edges = {0, step - 1, step, 2 * step - 1, 2 * step, count - 1}
    for b in sorted(edges & set(range(count))):
        assert q[b].tobytes() == _householder_reference(vectors[b], n).tobytes(), b


@pytest.mark.parametrize("n, dtype", _HAAR_QR_CASES, ids=_HAAR_QR_IDS)
def test_haar_qr_output_does_not_depend_on_the_slice_size(monkeypatch, n, dtype):
    # Slices of _QR_SLICE_MIN values, the default, and one slice for all.
    count = _haar_qr_count(n, dtype)
    draws = []
    for doubles in (1, samplers._QR_SLICE_DOUBLES, 4 * n * n * count):
        monkeypatch.setattr(samplers, "_QR_SLICE_DOUBLES", doubles)
        reads = [None] + [(n - 1, j) for j in range(n)]
        draws.append([samplers._haar_qr(n, RngStream(43), count, dtype, e) for e in reads])
    for others in draws[1:]:
        for a, b in zip(draws[0], others):
            assert a.tobytes() == b.tobytes()


def _dense_reflection_product(vectors, n):
    """Q = H_0 ... H_(n-1) D of one value, each H_k a dense n x n matrix and
    the product formed with @."""
    q = np.eye(n, dtype=complex)
    phases = []
    for k, g in enumerate(vectors):
        g = np.array(g, dtype=complex)
        phi = g[0] / abs(g[0])
        v = g.copy()
        v[0] += phi * np.linalg.norm(g)
        h = np.eye(n, dtype=complex)
        h[k:, k:] -= 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
        q = q @ h
        phases.append(-phi)
    return q @ np.diag(phases)


@pytest.mark.parametrize("n, dtype", _HAAR_QR_CASES, ids=_HAAR_QR_IDS)
def test_haar_qr_is_the_product_of_its_reflections(n, dtype):
    vectors, q = _haar_draw(n, dtype, 47, 200)
    dense = np.array([_dense_reflection_product(v, n) for v in vectors])
    assert np.abs(q - dense).max() <= 1e-12
    assert np.abs(q.conj().transpose(0, 2, 1) @ q - np.eye(n)).max() <= 1e-14


def test_haar_samplers_make_no_lapack_qr_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    def draw():
        return sample_orthogonal_haar(4, RngStream(53), 9), sample_unitary_haar(3, RngStream(59), 9)

    plain = draw()
    monkeypatch.setattr(np.linalg, "qr", refuse)
    for a, b in zip(plain, draw()):
        assert a.tobytes() == b.tobytes()


def test_orthogonal_haar_footprint(traced_peak):
    # Each slice's vectors are drawn, reflected into its Q factors and
    # copied to the output before the next one is drawn.
    qs, peak = traced_peak(lambda: sample_orthogonal_haar(4, RngStream(37), count=100_000))
    assert peak <= 1.3 * qs.nbytes


@pytest.mark.parametrize("dtype", [float, complex], ids=["R", "C"])
def test_haar_word_order_is_value_by_value_and_vector_by_vector(dtype):
    # One normal draw, viewed as complex over C: a complex entry is two
    # consecutive normals, (real, imaginary). Value b holds the words
    # b * size to (b + 1) * size, its g_0 (n entries), then its g_1 (n - 1),
    # and so on to its g_(n-1) (one entry).
    n, count = 3, 5
    qs = samplers._haar_qr(n, RngStream(67), count, dtype)
    flat = RngStream(67).normal(count * _PARTS[dtype] * 6).view(dtype).reshape(count, 6)
    for q, row in zip(qs, flat.tolist()):
        assert q.tobytes() == _householder_reference([row[0:3], row[3:5], row[5:6]], n).tobytes()


class _ZeroVector:
    """Stream wrapper that zeroes vector g_k of value `row` of the first
    batch of normals, a batch of `count` n x n values."""

    def __init__(self, stream, n, count, row, k):
        self.stream = stream
        self.n, self.count, self.row, self.k = n, count, row, k
        self.batches = 0

    def normal(self, size):
        g = self.stream.normal(size)
        if self.batches == 0:
            per_entry = size[1] // _vector_entries(self.n, self.n)
            lo, hi = _vector_entries(self.n, self.k), _vector_entries(self.n, self.k + 1)
            g.reshape(self.count, -1)[self.row, per_entry * lo : per_entry * hi] = 0.0
        self.batches += 1
        return g


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("dtype", [float, complex], ids=["R", "C"])
def test_a_zero_vector_takes_the_fixed_reflection(dtype, k):
    # A g_k of zeros takes v_k = e_0 and y_k = e_0: the value is kept, the
    # stream is read once and the other values keep their bytes.
    n, count, row = 3, 6, 2
    plain = samplers._haar_qr(n, RngStream(31), count, dtype)
    stub = _ZeroVector(RngStream(31), n, count, row, k)
    mats = samplers._haar_qr(n, stub, count, dtype)
    assert stub.batches == 1
    others = [b for b in range(count) if b != row]
    assert mats[others].tobytes() == plain[others].tobytes()
    vectors = _gaussian_vectors(RngStream(31), count, n, n, dtype)[row]
    vectors[k] = [0 * vectors[k][0]] * len(vectors[k])
    assert mats[row].tobytes() == _householder_reference(vectors, n).tobytes()
    assert np.abs(mats[row].conj().T @ mats[row] - np.eye(n)).max() <= 1e-15


_ENTRY_READS = {
    float: (sample_orthogonal_haar, sample_orthogonal_entry),
    complex: (sample_unitary_haar, sample_unitary_entry),
}


@pytest.mark.parametrize("dtype", [float, complex], ids=["R", "C"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 10])
def test_haar_entry_reads_equal_full_draws(monkeypatch, n, dtype):
    # Slices of _QR_SLICE_MIN values: the count spans three whole slices
    # and a short one. An entry read draws the vectors g_0..g_j of each
    # value: at j = n - 1 the whole draw's words, so it reads the whole
    # draw's last column bit for bit; at other j, each value is column j of
    # the reflections of its own first j + 1 vectors.
    monkeypatch.setattr(samplers, "_QR_SLICE_DOUBLES", 1)
    step = samplers._QR_SLICE_MIN
    count = 3 * step + 37
    full_read, entry_read = _ENTRY_READS[dtype]
    rng = RngStream(71)
    full = full_read(n, rng, count)
    for i, j in itertools.product(range(n), repeat=2):
        entry_rng = RngStream(71)
        got = entry_read(n, i, j, entry_rng, count)
        assert got.shape == (count,)
        if j == n - 1:
            assert got.tobytes() == np.ascontiguousarray(full[:, i, j]).tobytes(), (i, j)
            assert entry_rng.counter == rng.counter
        vectors = _gaussian_vectors(RngStream(71), count, n, j + 1, dtype)
        for b in sorted({0, 5, step - 1, step, 2 * step, 3 * step, count - 1}):
            want = _householder_reference(vectors[b], n)[i, j]
            assert got[b].tobytes() == want.tobytes(), (i, j, b)
        one_call = RngStream(71)
        one_call.normal(count * _PARTS[dtype] * _vector_entries(n, j + 1))
        assert entry_rng.counter == one_call.counter


@pytest.mark.parametrize(
    "entry_read, n, i, j, law_n",
    [(sample_orthogonal_entry, 100, 0, 0, 99), (sample_unitary_entry, 20, 2, 1, 39)],
    ids=["O100-1,1", "U20-3,2"],
)
def test_haar_entry_reads_follow_the_sphere_law(entry_read, n, i, j, law_n):
    # A column of a Haar O(n) matrix is uniform on S^(n-1); the real part of
    # a U(n) entry is a coordinate of S^(2n-1). Level and seed fixed in
    # advance: alpha = 1e-3, seed 7. The same values fail against the law
    # of a sphere of a tenth the dimension.
    values = entry_read(n, i, j, RngStream(7), 20_000).real
    sample = build_empirical(values, 10)
    assert ks_test(sample, SphereExact(10, law_n), alpha=1e-3).passed
    assert not ks_test(sample, SphereExact(10, law_n // 10), alpha=1e-3).passed


@pytest.mark.parametrize("entry_read", [sample_orthogonal_entry, sample_unitary_entry])
def test_haar_entry_reads_refuse_entries_outside_the_matrix(entry_read):
    for i, j in ((3, 0), (0, 3), (-1, 0)):
        with pytest.raises(DomainError, match="out of range"):
            entry_read(3, i, j, RngStream(1), 4)


@pytest.mark.parametrize("dtype", [float, complex], ids=["R", "C"])
@pytest.mark.parametrize("n", [4, 10])
def test_haar_entry_reads_footprint(traced_peak, n, dtype):
    # One slice of vectors at a time beside the output, where a whole draw
    # would hold n^2 doubles a value (2 n^2 over C).
    entry_read = _ENTRY_READS[dtype][1]
    vals, peak = traced_peak(lambda: entry_read(n, 1, 2, RngStream(73), 400_000))
    assert peak <= vals.nbytes + 4 * 2**20


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


@pytest.mark.parametrize("base", [2, 10])
def test_power_density_k_bound_at_the_edge_and_past_it(base):
    # Draws near s = 1 are 2^-53 apart; PowerLaw's density there is about
    # k - 1, and (k - 1) * 2^-53 <= 1e-9 holds up to k = 1 + 1e-9 * 2^53.
    edge = 1.0 + 1e-9 * 2.0**53  # 9007200.25...
    assert PowerLaw(base, math.floor(edge)).density(1.0) * 2.0**-53 <= 1e-9
    x = sample_power_density(base, math.floor(edge), 1, RngStream(3), count=100)
    assert np.all((x >= 1.0) & (x < base))
    with pytest.raises(DomainError, match=r"k must be <= about 9.0e6"):
        sample_power_density(base, math.ceil(edge), 1, RngStream(3), count=100)


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
    assert sample_diagonal_window(4, 10, 2, rng, count=1).shape == (1, 4)
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


@pytest.mark.parametrize(
    "read",
    [
        lambda st: sample_diagonal_window(1000, 10, 3, st, 4, det_one=True),
        lambda st: sample_diagonal_entry(1000, 10, 3, 999, st, 4, det_one=True),
        lambda st: sample_sln_dfactor_entry(1000, 10, WindowSpec(), 999, st, 4),
    ],
    ids=["window", "entry", "sln-dfactor"],
)
@pytest.mark.filterwarnings("error")
def test_det_one_product_past_the_double_range_is_refused(read):
    # The product of 999 free entries of up to 3 decades each overflows; its
    # reciprocal used to be returned as zeros, where the law is Benford. The
    # refusal names n and m, and NumPy prints no overflow warning.
    with pytest.raises(DomainError, match=r"^det-one diagonal at n=1000, m=3: "):
        read(RngStream(3))


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


def test_sln_matrix_entry_footprint(traced_peak):
    # The factors as drawn, (n^2 - 1) doubles a value, the diagonal d and
    # the output, plus one 1 MiB slice of products: 7 n^2 for .g.
    c = 250_000
    spec = WindowSpec()
    _, peak = traced_peak(lambda: sample_sln_matrix_entry(3, 10, spec, 1, 1, RngStream(43), c))
    assert peak <= 15 * 8 * c


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sln_matrix_entry_equals_the_full_product(monkeypatch, n):
    # Slices of 7 matrices, so 30 values make four whole slices and a part.
    monkeypatch.setattr(samplers, "_QR_SLICE_DOUBLES", 1)
    monkeypatch.setattr(samplers, "_QR_SLICE_MIN", 7)
    c, spec = 30, WindowSpec(eps=0.3, m=2)
    for i in range(n):
        for j in range(n):
            a, b = RngStream(509), RngStream(509)
            one = sample_sln_matrix_entry(n, 10, spec, i, j, a, c)
            assert one.tobytes() == sample_sln_lud_window(n, 10, spec, b, c).g[:, i, j].tobytes()
            assert a.counter == b.counter


def test_sln_matrix_entry_past_the_double_range_raises():
    # At eps = 1e300 the products overflow; which ones do depends on d, so no
    # value is dropped.
    with pytest.raises(DomainError, match="n=3, eps=1e[+]300"):
        sample_sln_matrix_entry(3, 10, WindowSpec(eps=1e300), 1, 1, RngStream(7), 100)
    with pytest.raises(DomainError):
        sample_sln_matrix_entry(3, 10, WindowSpec(), 3, 0, RngStream(7), 100)


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
    # One draw is a batch of one, batch axis first.
    spec = WindowSpec(eps=0.5, m=2)
    one = sample_sln_lud_window(3, 10, spec, RngStream(433), count=1)
    assert one.g.shape == (1, 3, 3) and one.diag.shape == (1, 3)
    assert np.prod(one.diag) == pytest.approx(1.0, rel=1e-12)
    gl_one = sample_gln_pos_window(3, 10, spec, RngStream(437), count=1)
    assert gl_one.matrices.shape == (1, 3, 3) and gl_one.det.shape == (1,)
    assert np.linalg.det(gl_one.matrices[0]) == pytest.approx(gl_one.det[0], rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
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


@pytest.mark.parametrize("n", [2, 3, 5, 9])
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


@pytest.mark.parametrize("n", [2, 5])
def test_full_draws_follow_the_documented_block_order(n):
    # Reference: one draw of `count` values per block, in the order the
    # docstrings give. A full draw takes a run of blocks in one call and
    # must give the same bits.
    c, base = 5, 7
    spec = WindowSpec(eps=0.3, m=2)

    def diag(st, free):
        d = np.empty((c, n))
        for k in range(free):
            d[:, k] = sample_log_uniform(base, spec.m, st, c)
        if free < n:
            d[:, -1] = 1.0 / np.prod(d[:, :-1], axis=1)
        return d

    def sln(st):
        X, Y = np.zeros((c, n, n)), np.zeros((c, n, n))
        for canvas, below in ((X, True), (Y, False)):
            for i in range(n):
                for j in range(n):
                    if (i > j) if below else (i < j):
                        canvas[:, i, j] = st.uniform(-spec.eps, spec.eps, c)
        return X, Y, diag(st, n - 1)

    for side in ("left", "right"):
        ref, st = np.zeros((c, n, n)), RngStream(521)
        for i in range(n):
            k = i + 1 if side == "left" else n - i
            ref[:, i, i] = sample_power_density(base, k, spec.m, st, c)
            for j in range(i + 1, n):
                ref[:, i, j] = st.uniform(-spec.eps, spec.eps, c)
        got = sample_upper_triangular_window(n, base, spec, side, RngStream(521), c)
        assert got.tobytes() == ref.tobytes()
    for det_one in (False, True):
        got = sample_diagonal_window(n, base, spec.m, RngStream(523), c, det_one=det_one)
        assert got.tobytes() == diag(RngStream(523), n - 1 if det_one else n).tobytes()
    got = sample_sln_lud_window(n, base, spec, RngStream(541), c)
    assert [a.tobytes() for a in (got.X, got.Y, got.diag)] == [
        a.tobytes() for a in sln(RngStream(541))
    ]
    st = RngStream(547)
    r = sample_log_uniform(base, spec.m, st, c)
    got = sample_gln_pos_window(n, base, spec, RngStream(547), c)
    assert [a.tobytes() for a in (got.det, got.sln.X, got.sln.Y, got.sln.diag)] == [
        a.tobytes() for a in (r, *sln(st))
    ]


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
    one = sample_gln_det(3, 10, spec, RngStream(437), 1)
    assert one.shape == (1,)
    assert one == sample_gln_pos_window(3, 10, spec, RngStream(437), 1).det
    # A flat entry draws no power-density block, but its row's window and
    # side are still checked, before any word is skipped.
    for bad_spec, side in ((WindowSpec(m=400), "left"), (spec, "two-sided")):
        st = RngStream(1)
        with pytest.raises(DomainError):
            sample_triangular_entry(3, 10, bad_spec, side, 0, 1, st, 4)
        assert st.counter == 0


_BIG = 1000


class _CountingStream(RngStream):
    """An RngStream that counts its skip calls and the words raw generates."""

    def __init__(self, seed):
        super().__init__(seed)
        self.skips = self.generated = 0

    def skip(self, n_words):
        self.skips += 1
        super().skip(n_words)

    def raw(self, n):
        self.generated += n
        return super().raw(n)


@pytest.mark.parametrize(
    "read, words, blocks",
    [
        (lambda st: sample_triangular_entry(_BIG, 10, WindowSpec(), "left", 0, 1, st, 3),
         3, _BIG * (_BIG + 1) // 2),
        (lambda st: sample_triangular_entry(_BIG, 10, WindowSpec(), "right", 517, 517, st, 3),
         3, _BIG * (_BIG + 1) // 2),
        (lambda st: sample_triangular_entry(_BIG, 10, WindowSpec(), "left", 998, 999, st, 3),
         3, _BIG * (_BIG + 1) // 2),
        (lambda st: sample_diagonal_entry(_BIG, 10, 2, 517, st, 3), 3, _BIG),
        (lambda st: sample_diagonal_entry(_BIG, 2, 1, _BIG - 1, st, 3, det_one=True),
         (_BIG - 1) * 3, _BIG - 1),
        (lambda st: sample_sln_dfactor_entry(_BIG, 10, WindowSpec(), 517, st, 3),
         3, _BIG * _BIG - 1),
        (lambda st: sample_sln_dfactor_entry(_BIG, 2, WindowSpec(m=1), _BIG - 1, st, 3),
         (_BIG - 1) * 3, _BIG * _BIG - 1),
        (lambda st: sample_gln_det(_BIG, 10, WindowSpec(), st, 3), 3, _BIG * _BIG),
    ],
    ids=["tri-flat", "tri-diag", "tri-last", "diag", "diag-det-one-last", "sln-diag",
         "sln-last", "gln-det"],
)
# The det-one last entries are read in base 2 at m = 1, where the product of
# 999 free entries, below 2^999, is a double; in base 10 it is refused.
def test_one_entry_reads_are_o1_in_the_layout(read, words, blocks):
    # A read skips to its blocks, draws them and skips the rest: at most two
    # skips whatever n is, only its own words generated, and the counter
    # past the whole layout.
    st = _CountingStream(509)
    read(st)
    assert st.skips <= 2
    assert st.generated == words
    assert st.counter == blocks * 3


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
