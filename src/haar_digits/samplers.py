"""Seeded samplers for Haar and uniform measures on matrix groups and spheres.

Every sampler takes an RngStream and documents the order in which it
consumes the stream, so a fixed (seed, stream_id) and call sequence
reproduces samples bit-exactly. Batched variants (``count`` not None)
return arrays with the batch as the leading axis.

Windowed samplers draw Haar-density coordinates restricted to finite
windows: diagonal coordinates from x^(-k)-type densities on [1, B^m) and
unipotent (strictly triangular) coordinates uniformly from [-eps, eps].
The induced significand laws are window-independent for the diagonal
coordinates; for the uniform coordinates the flat significand law is exact
when eps is an integer power of B (WindowSpec defaults to eps = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .laws import Benford, DigitLaw, PowerLaw, UniformSignificand
from .rng import RngStream
from .significand import check_base

__all__ = [
    "WindowSpec",
    "SlnSample",
    "GlnSample",
    "sample_sphere",
    "sample_sphere_coords",
    "sample_orthogonal_haar",
    "sample_unitary_haar",
    "sample_log_uniform",
    "sample_power_density",
    "triangular_component_law",
    "sample_upper_triangular_window",
    "sample_diagonal_window",
    "nilpotent_exp",
    "sample_sln_lud_window",
    "random_even_permutation",
    "permutation_parity",
    "apply_even_permutations",
    "sample_gln_pos_window",
]


@dataclass(frozen=True)
class WindowSpec:
    """Finite sampling window: unipotent box half-width and decade count."""

    eps: float = 1.0
    m: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise DomainError(f"WindowSpec: eps must be > 0, got {self.eps}")
        if not (self.m >= 1 and self.m % 1 == 0):  # false for NaN and inf too
            raise DomainError(f"WindowSpec: m must be a positive integer, got {self.m}")


@dataclass(frozen=True)
class SlnSample:
    """LUD-decomposed SL_n batch: g = exp(X) exp(Y) d with det(g) = 1.

    The factors are drawn; g is formed from them on first read and kept.
    """

    X: np.ndarray
    Y: np.ndarray
    diag: np.ndarray

    @cached_property
    def g(self) -> np.ndarray:
        return _lud_product(self)


@dataclass(frozen=True)
class GlnSample:
    """Positive-determinant GL_n batch g = det^(1/n) * (SL_n sample).

    The SL_n factor and the determinant are drawn; the matrices are formed
    on first read and kept.
    """

    sln: SlnSample
    det: np.ndarray

    @cached_property
    def matrices(self) -> np.ndarray:
        g = _lud_product(self.sln)
        g *= np.power(self.det, 1.0 / g.shape[-1])[..., None, None]
        return g


def _check_dim(n: int, minimum: int = 1) -> int:
    if isinstance(n, bool) or int(n) != n or n < minimum:
        raise DomainError(f"dimension must be an integer >= {minimum}, got {n!r}")
    return int(n)


def _batch(count):
    if count is None:
        return 1, True
    c = int(count)
    if c < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    return c, False


def _squeeze(arr: np.ndarray, single: bool):
    return arr[0] if single else arr


# --- spheres ----------------------------------------------------------------


def sample_sphere(n: int, rng: RngStream, count=None):
    """Uniform points on S^n in R^(n+1) by normalizing Gaussian vectors.

    Consumes count*(n+1) normal variates (rows in order); zero-norm rows
    (probability ~0) are resampled in place.
    """
    n = _check_dim(n)
    c, single = _batch(count)
    pts = rng.normal((c, n + 1))
    while True:
        norms = np.linalg.norm(pts, axis=1)
        bad = norms == 0.0
        if not bad.any():
            break
        pts[bad] = rng.normal((int(bad.sum()), n + 1))  # pragma: no cover
    return _squeeze(pts / norms[:, None], single)


def sample_sphere_coords(n: int, k: int, rng: RngStream, count=None):
    """First k coordinates of uniform S^n points without the full vector.

    Uses (z_1..z_k)/sqrt(|z|^2 + W) with W chi-square on n+1-k degrees of
    freedom, which has exactly the joint law of the first k coordinates.
    Consumes count*k normals, then the chi-square draws. Essential when n
    is large (S^10000 histograms would otherwise need 10^10 normals).
    """
    n = _check_dim(n)
    k = _check_dim(k)
    if k > n:
        raise DomainError(f"need k <= n (k=n+1 is the full sphere), got k={k}, n={n}")
    c, single = _batch(count)
    z = rng.normal((c, k))
    norm = np.asarray(rng.chi_square(n + 1 - k, c), dtype=float).reshape(c)
    norm += np.sum(z * z, axis=1)
    z /= np.sqrt(norm, out=norm)[:, None]
    return _squeeze(z, single)


# --- compact groups ---------------------------------------------------------


def sample_orthogonal_haar(n: int, rng: RngStream, count=None, return_info: bool = False):
    """Haar-distributed O(n) matrices via Gaussian QR with sign correction.

    Consumes count*n*n normals (row-major per matrix); the QR factor is
    fixed up by the signs of diag(R) so the distribution is exactly Haar.
    Numerically singular draws (some |R_jj| = 0) are resampled and counted;
    pass return_info=True to receive the count.
    """
    n = _check_dim(n)
    c, single = _batch(count)
    out, ok = _signed_qr(rng.normal((c, n, n)))
    todo = np.flatnonzero(~ok)
    resampled = todo.size
    while todo.size:
        q, ok = _signed_qr(rng.normal((todo.size, n, n)))
        out[todo[ok]] = q[ok]
        todo = todo[~ok]
        resampled += todo.size
    result = _squeeze(out, single)
    if return_info:
        return result, {"resampled": resampled}
    return result


def _signed_qr(g: np.ndarray):
    """Q factors of a stack, columns flipped so diag(R) > 0, and a mask of
    the draws whose R has a nonzero diagonal (the others must be redrawn)."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= np.where(d < 0.0, -1.0, 1.0)[:, None, :]
    return q, np.all(d != 0.0, axis=1)


def sample_unitary_haar(n: int, rng: RngStream, count=None):
    """Haar-distributed U(n) matrices via complex Gaussian QR.

    Consumes 2*count*n*n normals (real parts row-major, then imaginary
    parts row-major, per batch); columns are rephased so diag(R) > 0.
    """
    n = _check_dim(n)
    c, single = _batch(count)
    z = np.empty((c, n, n), dtype=complex)
    z.real = rng.normal((c, n, n))
    z.imag = rng.normal((c, n, n))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(d)
    q *= np.where(mags > 0.0, d / np.where(mags > 0.0, mags, 1.0), 1.0)[:, None, :]
    return _squeeze(q, single)


# --- scalar windowed densities ----------------------------------------------


def _power_inverse(base: int, k: float, m: int, u: np.ndarray) -> np.ndarray:
    """Maps uniforms u on [0, 1) to the density proportional to x^(-k) on [1, B^m).

    k = 1 is dx/x and gives x = B^(m u); other k invert the closed-form
    window CDF. Every windowed density is drawn here, and this is the one
    check of a decade count: m must be a positive integer with B^m a finite
    double, so that the window is m whole decades.
    """
    if not (m >= 1 and m % 1 == 0):  # false for NaN and inf too
        raise DomainError(f"m must be a positive integer, got {m}")
    try:
        math.pow(base, m)
    except OverflowError:
        raise DomainError(f"window [1, B^m) with m={m}, base {base} overflows a double") from None
    if k == 1.0:
        return np.power(float(base), m * u)
    r = math.expm1((1.0 - k) * m * math.log(base))  # B^(m(1-k)) - 1
    return np.exp(np.log1p(u * r) / (1.0 - k))


def sample_log_uniform(base: int, m: int, rng: RngStream, count=None):
    """Draws from density 1/x on [1, B^m): x = B^(m U).

    The significand is exactly Benford for every integer m >= 1 and the
    significand exponent is uniform on {0..m-1}. Consumes count uniforms.
    """
    base = check_base(base)
    c, single = _batch(count)
    return _squeeze(_power_inverse(base, 1.0, m, rng.random(c)), single)


def sample_power_density(base: int, k: float, m: int, rng: RngStream, count=None):
    """Draws from density proportional to x^(-k) on [1, B^m) by inversion.

    k = 1 is sample_log_uniform. The induced significand law is
    PowerLaw(base, k) exactly, for every m. Consumes count uniforms.
    """
    base = check_base(base)
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"k must be > 0, got {k}")
    c, single = _batch(count)
    return _squeeze(_power_inverse(base, k, m, rng.random(c)), single)


# --- triangular and diagonal groups ------------------------------------------


def _haar_exponent(n: int, i: int, side: str) -> int:
    """k of the density a^(-k) of diagonal entry (i, i) under left or right Haar."""
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    return (i + 1) if side == "left" else (n - i)


def triangular_component_law(n: int, base: int, i: int, j: int, side: str) -> DigitLaw:
    """Predicted significand law for entry (i, j) (0-based) of the windowed
    invertible upper-triangular group under left or right Haar measure.

    Diagonal entry (i, i): PowerLaw with exponent i+1 (left Haar) or n-i
    (right Haar); exponent 1 is exactly Benford. Strictly upper entries are
    Lebesgue-windowed and get the flat significand law (exact when the
    window half-width is a power of the base). Entries below the diagonal
    are structurally zero and have no law.
    """
    n = _check_dim(n)
    base = check_base(base)
    expo = _haar_exponent(n, i, side)
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"entry ({i}, {j}) out of range for n={n}")
    if i > j:
        raise DomainError(f"entry ({i}, {j}) is structurally zero below the diagonal")
    if i < j:
        return UniformSignificand(base)
    if expo == 1:
        return Benford(base)
    return PowerLaw(base, float(expo))


def sample_upper_triangular_window(
    n: int,
    base: int,
    spec: WindowSpec,
    side: str,
    rng: RngStream,
    count=None,
) -> np.ndarray:
    """Windowed Haar draws from the invertible upper-triangular group.

    Diagonal entry (k, k) has density proportional to a^(-(k+1)) (left
    Haar) or a^(-(n-k)) (right Haar) on [1, B^m); strictly upper entries
    are uniform on [-eps, eps]. Entries are drawn row-major, each as a batch
    of `count`, so the draw consumes n(n+1)/2 * count uniforms. Returns the
    matrices; triangular_component_law gives each entry's predicted law.
    """
    n = _check_dim(n)
    base = check_base(base)
    c, single = _batch(count)
    mats = np.zeros((c, n, n))
    for i in range(n):
        k = float(_haar_exponent(n, i, side))
        mats[:, i, i] = _power_inverse(base, k, spec.m, rng.random(c))
        for j in range(i + 1, n):
            mats[:, i, j] = rng.uniform(-spec.eps, spec.eps, c)
    return _squeeze(mats, single)


def sample_diagonal_window(
    n: int,
    base: int,
    m: int,
    rng: RngStream,
    count=None,
    det_one: bool = False,
):
    """Diagonal-entry draws from the windowed diagonal group (Haar = prod dx/x).

    Free entries are log-uniform on [1, B^m); with det_one (n >= 2) the last
    entry is forced to 1/(product of the others) so the determinant is
    exactly 1 (its significand is still exactly Benford: minus a sum of
    independent uniform log-significands stays uniform mod 1). Returns
    entries of the diagonal, shape (count, n).

    Consumes (n-1 if det_one else n)*count uniforms, one batch per entry.
    """
    n = _check_dim(n)
    if det_one and n < 2:
        raise DomainError(f"det_one needs n >= 2 (n = 1 would pin the entry to 1), got n={n}")
    base = check_base(base)
    c, single = _batch(count)
    entries = np.empty((c, n))
    for idx in range(n - 1 if det_one else n):
        entries[:, idx] = _power_inverse(base, 1.0, m, rng.random(c))
    if det_one:
        entries[:, n - 1] = 1.0 / np.prod(entries[:, : n - 1], axis=1)
    return _squeeze(entries, single)


def nilpotent_exp(N: np.ndarray) -> np.ndarray:
    """Matrix exponential of strictly triangular N via the terminating series.

    exp(N) = sum_{j<n} N^j / j!, exact because N^n = 0. Accepts stacked
    input (..., n, n); raises DomainError unless N is strictly upper or
    strictly lower triangular (exact zeros).
    """
    N = np.asarray(N, dtype=float)
    if N.ndim < 2 or N.shape[-1] != N.shape[-2]:
        raise DomainError(f"nilpotent_exp: need square matrices, got shape {N.shape}")
    if not np.all(np.isfinite(N)):
        raise DomainError("nilpotent_exp: entries must be finite")
    n = N.shape[-1]
    rows, cols = np.tril_indices(n)  # the lower triangle with the diagonal
    if N[..., rows, cols].any() and N[..., cols, rows].any():
        raise DomainError("nilpotent_exp: matrix is not strictly triangular")
    out = np.broadcast_to(np.eye(n), N.shape).copy()
    out += N
    power = N
    fact = 1.0
    for j in range(2, n):
        power = power @ N
        fact *= j
        out += power / fact
    return out


def sample_sln_lud_window(
    n: int,
    base: int,
    spec: WindowSpec,
    rng: RngStream,
    count=None,
) -> SlnSample:
    """Windowed SL_n draws g = exp(X) exp(Y) d.

    X is a uniform box in the strictly lower algebra, Y a uniform box in
    the strictly upper algebra (entries on [-eps, eps], drawn row-major: X
    first, then Y), and d comes from sample_diagonal_window(det_one=True),
    so det(g) = 1 exactly: n(n-1)*count uniforms for X and Y, then
    (n-1)*count for d. The free diagonal entries d_11..d_{n-1,n-1} are iid
    with exactly Benford significands; the matrix diagonal g_ii =
    (unit-triangular factor) * d_ii inherits the Benford significand by
    scale invariance. Returns the factors; g is formed on first read of
    ``.g``.
    """
    n = _check_dim(n, minimum=2)
    base = check_base(base)
    c, single = _batch(count)
    X = np.zeros((c, n, n))
    for i in range(n):
        for j in range(i):
            X[:, i, j] = rng.uniform(-spec.eps, spec.eps, c)
    Y = np.zeros((c, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            Y[:, i, j] = rng.uniform(-spec.eps, spec.eps, c)
    diag = sample_diagonal_window(n, base, spec.m, rng, c, det_one=True)
    return SlnSample(_squeeze(X, single), _squeeze(Y, single), _squeeze(diag, single))


def _lud_product(sample: SlnSample) -> np.ndarray:
    """A fresh array exp(X) exp(Y) d of the sample's factors."""
    g = nilpotent_exp(sample.X) @ nilpotent_exp(sample.Y)
    g *= sample.diag[..., None, :]
    return g


def permutation_parity(sigma) -> int:
    """+1 for even permutations, -1 for odd (cycle-count method)."""
    sigma = np.asarray(sigma, dtype=np.int64)
    n = sigma.size
    if sorted(sigma.tolist()) != list(range(n)):
        raise DomainError("permutation_parity: not a permutation of 0..n-1")
    seen = np.zeros(n, dtype=bool)
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = int(sigma[j])
    return 1 if (n - cycles) % 2 == 0 else -1


def _permutation_matrix(sigma: np.ndarray) -> np.ndarray:
    n = sigma.size
    P = np.zeros((n, n))
    P[np.arange(n), sigma] = 1.0
    return P


def random_even_permutation(n: int, rng: RngStream) -> np.ndarray:
    """Uniform random even permutation as an n x n matrix with det +1.

    Fisher-Yates with stream-driven indices; an odd draw is composed with
    the transposition of the first two points, which maps the odd class
    bijectively onto the even class, so the result is uniform on A_n.
    """
    n = _check_dim(n)
    sigma = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.index_below(i + 1)
        sigma[i], sigma[j] = sigma[j], sigma[i]
    if n >= 2 and permutation_parity(sigma) < 0:
        sigma[0], sigma[1] = sigma[1].copy(), sigma[0].copy()
    return _permutation_matrix(sigma)


def _extract_permutation(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n) or not np.all((P == 0.0) | (P == 1.0)):
        raise DomainError("not a 0/1 permutation matrix")
    if not (np.all(P.sum(axis=0) == 1.0) and np.all(P.sum(axis=1) == 1.0)):
        raise DomainError("not a permutation matrix (row/column sums != 1)")
    return np.argmax(P, axis=1)


def apply_even_permutations(A, P, Q) -> np.ndarray:
    """P A Q for even permutation matrices P, Q, preserving SL membership.

    Both permutations must be even (det +1, i.e. P, Q in SL_n) or a
    DomainError is raised. A may be a single matrix or a stack (..., n, n);
    the diagonal of P A Q picks out one A-entry per row, so Benford
    components stay Benford.
    """
    A = np.asarray(A, dtype=float)
    for M in (P, Q):
        if permutation_parity(_extract_permutation(M)) < 0:
            raise DomainError("odd permutation: P A Q would leave SL_n")
    return np.asarray(P, dtype=float) @ A @ np.asarray(Q, dtype=float)


def sample_gln_pos_window(
    n: int,
    base: int,
    spec: WindowSpec,
    rng: RngStream,
    count=None,
) -> GlnSample:
    """Windowed GL_n^+ draws g = r^(1/n) * y with det(g) = r.

    r is log-uniform on [1, B^m), m = spec.m (drawn first, count uniforms),
    and y is an SL_n LUD sample (as sample_sln_lud_window consumes it), so
    the determinant significand is exactly Benford. Returns the SL_n factor
    y and the determinant vector; the matrices are formed from them on
    first read of ``.matrices``.
    """
    n = _check_dim(n, minimum=2)
    base = check_base(base)
    c, single = _batch(count)
    r = _power_inverse(base, 1.0, spec.m, rng.random(c))
    y = sample_sln_lud_window(n, base, spec, rng, count)
    return GlnSample(y, _squeeze(r, single))
