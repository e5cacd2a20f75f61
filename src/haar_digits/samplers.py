"""Seeded samplers for Haar and uniform measures on matrix groups and spheres.

Every sampler takes an RngStream and documents the order in which it
consumes the stream, so a fixed (seed, stream_id) and call sequence
reproduces samples bit-exactly. Batched variants (``count`` not None)
return arrays with the batch as the leading axis.

Windowed samplers draw Haar-density coordinates restricted to finite
windows: diagonal coordinates from x^(-k)-type densities on [1, B^m) and
unipotent (strictly triangular) coordinates uniformly from [-eps, eps].
The induced significand laws are window-independent for the diagonal
coordinates; a uniform coordinate follows FlatWindowSignificand(B, eps),
which is the flat law when eps is an integer power of B (WindowSpec
defaults to eps = 1).

Each windowed sampler consumes one block of `count` uniforms per
coordinate, in an order its layout fixes. The one-entry reads
(sample_triangular_entry, sample_diagonal_entry, sample_sln_dfactor_entry,
sample_gln_det) draw only the blocks their entry is made of and skip the
rest, so they advance the counter past the whole layout, exactly as the
full draw does, and give the same values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .laws import Benford, DigitLaw, FlatWindowSignificand, PowerLaw, UniformSignificand
from .rng import TILE, RngStream
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
    "sample_triangular_entry",
    "sample_diagonal_window",
    "sample_diagonal_entry",
    "nilpotent_exp",
    "sample_sln_lud_window",
    "sample_sln_dfactor_entry",
    "random_even_permutation",
    "permutation_parity",
    "apply_even_permutations",
    "sample_gln_pos_window",
    "sample_gln_det",
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


_QR_SLICE = 4096  # matrices per np.linalg.qr call


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
    out = rng.normal((c, n, n))
    todo = np.flatnonzero(~_qr_in_place(out, _signs))
    resampled = todo.size
    while todo.size:
        q = rng.normal((todo.size, n, n))
        ok = _qr_in_place(q, _signs)
        out[todo[ok]] = q[ok]
        todo = todo[~ok]
        resampled += todo.size
    result = _squeeze(out, single)
    if return_info:
        return result, {"resampled": resampled}
    return result


def _qr_in_place(g: np.ndarray, phase) -> np.ndarray:
    """Overwrites a stack with its Q factors, column j of each multiplied by
    phase(d)_j, d the diagonal of its R, and returns a mask of the matrices
    whose R has a nonzero diagonal (the others must be redrawn).

    QR runs over _QR_SLICE matrices at a time, so its R and workspace stay
    small; each matrix's factors do not depend on the slicing.
    """
    ok = np.empty(g.shape[0], dtype=bool)
    for start in range(0, g.shape[0], _QR_SLICE):
        q, r = np.linalg.qr(g[start : start + _QR_SLICE])
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q *= phase(d)[:, None, :]
        g[start : start + _QR_SLICE] = q
        ok[start : start + _QR_SLICE] = np.all(d != 0.0, axis=1)
    return ok


def _signs(d: np.ndarray) -> np.ndarray:
    """The column flips that make a real R's diagonal positive."""
    return np.where(d < 0.0, -1.0, 1.0)


def _phases(d: np.ndarray) -> np.ndarray:
    """The column rephasings that make a complex R's diagonal positive."""
    mags = np.abs(d)
    return np.where(mags > 0.0, d / np.where(mags > 0.0, mags, 1.0), 1.0)


def _fill_normals(dest: np.ndarray, rng: RngStream) -> None:
    """Writes the next dest.size normals into the 1-d dest, a tile at a time."""
    for start in range(0, dest.size, TILE):
        dest[start : start + TILE] = rng.normal(min(TILE, dest.size - start))


def sample_unitary_haar(n: int, rng: RngStream, count=None):
    """Haar-distributed U(n) matrices via complex Gaussian QR.

    Consumes 2*count*n*n normals (real parts row-major, then imaginary
    parts row-major, per batch); columns are rephased so diag(R) > 0.
    """
    n = _check_dim(n)
    c, single = _batch(count)
    z = np.empty((c, n, n), dtype=complex)
    parts = z.view(np.float64).reshape(-1, 2)  # (real, imaginary) per entry
    _fill_normals(parts[:, 0], rng)
    _fill_normals(parts[:, 1], rng)
    z /= math.sqrt(2.0)
    _qr_in_place(z, _phases)
    return _squeeze(z, single)


# --- scalar windowed densities ----------------------------------------------


def _power_block(base: int, k: float, m: int):
    """draw(rng, count): `count` values of the density proportional to
    x^(-k) on [1, B^m), one uniform u each, by inversion: k = 1 is dx/x and
    gives x = B^(m u); other k invert the closed-form window CDF.

    Every windowed density is drawn through here, and this is the one check
    of a decade count: m must be a positive integer with B^m a finite
    double, so that the window is m whole decades. The check runs when the
    block is made, before any word of a layout is drawn or skipped.
    """
    if not (m >= 1 and m % 1 == 0):  # false for NaN and inf too
        raise DomainError(f"m must be a positive integer, got {m}")
    try:
        math.pow(base, m)
    except OverflowError:
        raise DomainError(f"window [1, B^m) with m={m}, base {base} overflows a double") from None

    def draw(rng: RngStream, count: int) -> np.ndarray:
        u = rng.random(count)
        if k == 1.0:
            u *= m
            return np.power(float(base), u, out=u)
        u *= math.expm1((1.0 - k) * m * math.log(base))  # B^(m(1-k)) - 1
        np.log1p(u, out=u)
        u /= 1.0 - k
        return np.exp(u, out=u)

    return draw


def _flat_block(eps: float):
    """draw(rng, count): `count` values uniform on [-eps, eps), one uniform each."""
    return lambda rng, count: rng.uniform(-eps, eps, count)


def sample_log_uniform(base: int, m: int, rng: RngStream, count=None):
    """Draws from density 1/x on [1, B^m): x = B^(m U).

    The significand is exactly Benford for every integer m >= 1 and the
    significand exponent is uniform on {0..m-1}. Consumes count uniforms.
    """
    base = check_base(base)
    c, single = _batch(count)
    return _squeeze(_power_block(base, 1.0, m)(rng, c), single)


def sample_power_density(base: int, k: float, m: int, rng: RngStream, count=None):
    """Draws from density proportional to x^(-k) on [1, B^m) by inversion.

    k = 1 is sample_log_uniform. The induced significand law is
    PowerLaw(base, k) exactly, for every m. Consumes count uniforms.
    """
    base = check_base(base)
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"k must be > 0, got {k}")
    c, single = _batch(count)
    return _squeeze(_power_block(base, k, m)(rng, c), single)


# --- window layouts ------------------------------------------------------------
#
# A windowed sampler's draw is a layout: its blocks in stream order, each a
# (key, draw) pair for `count` uniforms of one coordinate. The key is a name
# and an index, ("U", i, j) for entry (i, j) of the matrix named U. The layout
# function is the one owner of the order; full draws and one-entry reads both
# walk it.


def _walk(layout, rng: RngStream, count: int, read=None):
    """Yields (key, values) for each block of `layout` whose key is in
    `read` (every block when read is None) and passes any other block with
    RngStream.skip, never generating its words. Run to the end, it leaves
    the counter count * len(layout) words on, whatever was read."""
    for key, draw in layout:
        if read is None or key in read:
            yield key, draw(rng, count)
        else:
            rng.skip(count)


def _read(layout, rng: RngStream, count: int, key):
    """The values of one block, walking the whole layout."""
    return dict(_walk(layout, rng, count, {key}))[key]


def _fill(blocks, canvases: dict) -> None:
    """Writes each block (name, *index) to canvases[name][:, *index]."""
    for (name, *index), vals in blocks:
        canvases[name][(slice(None), *index)] = vals


def _close_det_one(d: np.ndarray) -> np.ndarray:
    """Sets the last column of a (count, n) diagonal to 1 / (product of the others)."""
    d[:, -1] = 1.0 / np.prod(d[:, :-1], axis=1)
    return d


def _triangular_layout(n: int, base: int, spec: WindowSpec, side: str) -> list:
    """Entries ("U", i, j), j >= i, row-major: diagonal entries from their
    Haar power density, strictly upper ones flat on [-eps, eps]."""
    layout = []
    for i in range(n):
        layout.append((("U", i, i), _power_block(base, float(_haar_exponent(n, i, side)), spec.m)))
        layout += [(("U", i, j), _flat_block(spec.eps)) for j in range(i + 1, n)]
    return layout


def _diagonal_layout(n: int, base: int, m: int, det_one: bool) -> list:
    """Free diagonal entries ("d", i), i < n (i < n - 1 with det_one), log-uniform."""
    draw = _power_block(base, 1.0, m)
    return [(("d", i), draw) for i in range(n - 1 if det_one else n)]


def _sln_layout(n: int, base: int, spec: WindowSpec) -> list:
    """X entries ("X", i, j), i > j, then Y entries ("Y", i, j), i < j, each
    row-major and flat on [-eps, eps], then the det-one diagonal factor."""
    flat = _flat_block(spec.eps)
    layout = [(("X", i, j), flat) for i in range(n) for j in range(i)]
    layout += [(("Y", i, j), flat) for i in range(n) for j in range(i + 1, n)]
    return layout + _diagonal_layout(n, base, spec.m, det_one=True)


def _gln_layout(n: int, base: int, spec: WindowSpec) -> list:
    """The determinant ("r",), log-uniform, then the SL_n layout."""
    return [(("r",), _power_block(base, 1.0, spec.m))] + _sln_layout(n, base, spec)


def _diagonal_entry(layout: list, n: int, i: int, det_one: bool, rng: RngStream, c: int):
    """Entry i of a layout's ("d", k) diagonal, drawing only the blocks it
    is made of: its own, or every free one for a det-one last entry."""
    if not 0 <= i < n:
        raise DomainError(f"diagonal entry {i} out of range for n={n}")
    if det_one and i == n - 1:
        d = np.empty((c, n))
        _fill(_walk(layout, rng, c, {("d", k) for k in range(n - 1)}), {"d": d})
        return _close_det_one(d)[:, i]
    return _read(layout, rng, c, ("d", i))


def _lud_draw(layout: list, n: int, rng: RngStream, c: int, single: bool, **more) -> SlnSample:
    """The SL_n factors from every block of `layout`; blocks of other names
    go to the canvases in `more`."""
    canvases = {"X": np.zeros((c, n, n)), "Y": np.zeros((c, n, n)), "d": np.empty((c, n)), **more}
    _fill(_walk(layout, rng, c), canvases)
    _close_det_one(canvases["d"])
    return SlnSample(*(_squeeze(canvases[name], single) for name in "XYd"))


# --- triangular and diagonal groups ------------------------------------------


def _haar_exponent(n: int, i: int, side: str) -> int:
    """k of the density a^(-k) of diagonal entry (i, i) under left or right Haar."""
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    return (i + 1) if side == "left" else (n - i)


def _check_upper_entry(n: int, i: int, j: int) -> None:
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"entry ({i}, {j}) out of range for n={n}")
    if i > j:
        raise DomainError(f"entry ({i}, {j}) is structurally zero below the diagonal")


def triangular_component_law(
    n: int, base: int, i: int, j: int, side: str, eps: float = 1.0
) -> DigitLaw:
    """Predicted significand law for entry (i, j) (0-based) of the windowed
    invertible upper-triangular group under left or right Haar measure.

    Diagonal entry (i, i): PowerLaw with exponent i+1 (left Haar) or n-i
    (right Haar); exponent 1 is exactly Benford. Strictly upper entries are
    flat on [-eps, eps] and get FlatWindowSignificand(base, eps), which is
    UniformSignificand when eps is a power of the base. Entries below the
    diagonal are structurally zero and have no law.
    """
    n = _check_dim(n)
    base = check_base(base)
    expo = _haar_exponent(n, i, side)
    _check_upper_entry(n, i, j)
    if i < j:
        law = FlatWindowSignificand(base, eps)
        return UniformSignificand(base) if law.t == 1.0 else law
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
    sample_triangular_entry reads one entry and skips the other blocks, so
    it too advances the counter past all n(n+1)/2 * count words.
    """
    n = _check_dim(n)
    base = check_base(base)
    c, single = _batch(count)
    mats = np.zeros((c, n, n))
    _fill(_walk(_triangular_layout(n, base, spec, side), rng, c), {"U": mats})
    return _squeeze(mats, single)


def sample_triangular_entry(
    n: int,
    base: int,
    spec: WindowSpec,
    side: str,
    i: int,
    j: int,
    rng: RngStream,
    count=None,
) -> np.ndarray:
    """Entry (i, j) (0-based, i <= j) of sample_upper_triangular_window.

    Bit for bit the column that the full draw gives, but only this entry's
    `count` words are generated: the others are skipped, and the counter
    still advances past the whole layout, n(n+1)/2 * count words.
    """
    n = _check_dim(n)
    base = check_base(base)
    _check_upper_entry(n, i, j)
    c, single = _batch(count)
    layout = _triangular_layout(n, base, spec, side)
    return _squeeze(_read(layout, rng, c, ("U", i, j)), single)


def _check_diagonal(n: int, det_one: bool) -> int:
    n = _check_dim(n)
    if det_one and n < 2:
        raise DomainError(f"det_one needs n >= 2 (n = 1 would pin the entry to 1), got n={n}")
    return n


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
    sample_diagonal_entry reads one entry and skips the blocks it is not
    made of, so it too advances the counter past all of them.
    """
    n = _check_diagonal(n, det_one)
    base = check_base(base)
    c, single = _batch(count)
    d = np.empty((c, n))
    _fill(_walk(_diagonal_layout(n, base, m, det_one), rng, c), {"d": d})
    return _squeeze(_close_det_one(d) if det_one else d, single)


def sample_diagonal_entry(
    n: int,
    base: int,
    m: int,
    i: int,
    rng: RngStream,
    count=None,
    det_one: bool = False,
):
    """Entry i (0-based) of sample_diagonal_window, bit for bit.

    Draws only the blocks the entry is made of (its own, or all n - 1 for
    the det-one last entry) and skips the rest; the counter still advances
    past the whole layout, (n-1 if det_one else n)*count words.
    """
    n = _check_diagonal(n, det_one)
    base = check_base(base)
    c, single = _batch(count)
    layout = _diagonal_layout(n, base, m, det_one)
    return _squeeze(_diagonal_entry(layout, n, i, det_one, rng, c), single)


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
    first, then Y), and d is drawn as sample_diagonal_window(det_one=True),
    so det(g) = 1 exactly: n(n-1)*count uniforms for X and Y, then
    (n-1)*count for d. The free diagonal entries d_11..d_{n-1,n-1} are iid
    with exactly Benford significands; the matrix diagonal g_ii =
    (unit-triangular factor) * d_ii inherits the Benford significand by
    scale invariance. Returns the factors; g is formed on first read of
    ``.g``. sample_sln_dfactor_entry reads one entry of d and skips the
    other blocks, so it too advances the counter past all (n-1)(n+1)*count
    words.
    """
    n = _check_dim(n, minimum=2)
    base = check_base(base)
    c, single = _batch(count)
    return _lud_draw(_sln_layout(n, base, spec), n, rng, c, single)


def sample_sln_dfactor_entry(
    n: int,
    base: int,
    spec: WindowSpec,
    i: int,
    rng: RngStream,
    count=None,
):
    """Entry i (0-based) of the diagonal factor d of sample_sln_lud_window.

    Bit for bit the values of ``.diag[:, i]``, drawing only the blocks d_ii
    is made of (its own, or all n - 1 free ones for d_nn); the counter
    still advances past the whole layout, (n-1)(n+1)*count words.
    """
    n = _check_dim(n, minimum=2)
    base = check_base(base)
    c, single = _batch(count)
    layout = _sln_layout(n, base, spec)
    return _squeeze(_diagonal_entry(layout, n, i, True, rng, c), single)


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
    first read of ``.matrices``. sample_gln_det reads r and skips y, so it
    too advances the counter past all n^2 * count words.
    """
    n = _check_dim(n, minimum=2)
    base = check_base(base)
    c, single = _batch(count)
    r = np.empty(c)
    y = _lud_draw(_gln_layout(n, base, spec), n, rng, c, single, r=r)
    return GlnSample(y, _squeeze(r, single))


def sample_gln_det(n: int, base: int, spec: WindowSpec, rng: RngStream, count=None):
    """The determinants r of sample_gln_pos_window, bit for bit.

    Draws only r's `count` words; the SL_n factor is skipped, and the
    counter still advances past the whole layout, n^2 * count words.
    """
    n = _check_dim(n, minimum=2)
    base = check_base(base)
    c, single = _batch(count)
    return _squeeze(_read(_gln_layout(n, base, spec), rng, c, ("r",)), single)
