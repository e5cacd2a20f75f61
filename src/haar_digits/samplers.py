"""Seeded samplers for Haar and uniform measures on matrix groups and spheres.

Every sampler takes an RngStream and documents the order in which it
consumes the stream, so a fixed (seed, stream_id) and call sequence
reproduces samples bit-exactly. Every sampler draws a required `count`
and returns arrays with the batch as the leading axis.

Windowed samplers draw Haar-density coordinates restricted to finite
windows: diagonal coordinates from x^(-k)-type densities on [1, B^m) and
unipotent (strictly triangular) coordinates uniformly from [-eps, eps].
The induced significand laws are window-independent for the diagonal
coordinates; a uniform coordinate follows FlatWindowSignificand(B, eps),
which is the flat law when eps is an integer power of B (WindowSpec
defaults to eps = 1).

Each windowed sampler consumes one block of `count` uniforms per
coordinate, in an order its layout fixes, so block b is the words b*count
to (b+1)*count. The one-entry reads (sample_triangular_entry,
sample_diagonal_entry, sample_sln_dfactor_entry, sample_gln_det) skip to
the blocks their entry is made of, draw them in one call and skip the rest:
their Python work does not grow with n, they leave the counter where the
full draw does, and they give the same values bit for bit.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._frozen import Frozen
from .errors import DomainError, check_int, check_real
from .laws import Benford, DigitLaw, FlatWindowSignificand, PowerLaw, UniformSignificand
from .rng import TILE, RngStream
from .significand import check_base

__all__ = [
    "WindowSpec",
    "SlnSample",
    "GlnSample",
    "sample_sphere_coords",
    "sample_orthogonal_haar",
    "sample_orthogonal_entry",
    "sample_unitary_haar",
    "sample_unitary_entry",
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
    "sample_sln_matrix_entry",
    "sample_gln_pos_window",
    "sample_gln_det",
]


class WindowSpec(Frozen):
    """Finite sampling window: unipotent box half-width and decade count.

    eps is a normal double (a subnormal box holds too few doubles to be
    flat) with 2 eps finite, so that [-eps, eps) is a finite uniform range.
    """

    _fields = ("eps", "m")

    def __init__(self, eps: float = 1.0, m: int = 3):
        double = np.finfo(float)
        self._set(eps=check_real(eps, "eps", double.tiny, double.max / 2), m=check_int(m, "m", 1))


class SlnSample(Frozen):
    """LUD-decomposed SL_n batch: g = exp(X) exp(Y) d with det(g) = 1.

    The factors are drawn; g is formed from them on first read and kept.
    """

    _fields = ("X", "Y", "diag")

    def __init__(self, X: np.ndarray, Y: np.ndarray, diag: np.ndarray):
        self._set(X=X, Y=Y, diag=diag)

    @cached_property
    def g(self) -> np.ndarray:
        return _lud_product(self)


class GlnSample(Frozen):
    """Positive-determinant GL_n batch g = det^(1/n) * (SL_n sample).

    The SL_n factor and the determinant are drawn; the matrices are formed
    on first read and kept.
    """

    _fields = ("sln", "det")

    def __init__(self, sln: SlnSample, det: np.ndarray):
        self._set(sln=sln, det=det)

    @cached_property
    def matrices(self) -> np.ndarray:
        g = _lud_product(self.sln)
        g *= np.power(self.det, 1.0 / g.shape[-1])[..., None, None]
        return g


# Doubles in the work arrays of one slice of Haar values (1 MiB), so that
# they stay in a core's L2 cache. A slice still holds _QR_SLICE_MIN values
# when they are large, so that per-call overhead stays small.
_QR_SLICE_DOUBLES = 1 << 17
_QR_SLICE_MIN = 128


def _check_entry(n: int, *index) -> tuple:
    """The 0-based row and column (or the one diagonal index) of an entry of
    an n x n matrix, as ints, each in [0, n - 1]."""
    try:
        return tuple(check_int(v, name, 0, n - 1) for name, v in zip("ij", index))
    except DomainError as exc:
        where = ", ".join(map(repr, index))
        raise DomainError(f"entry ({where}) out of range for n={n}: {exc}") from None


# --- spheres ----------------------------------------------------------------


def sample_sphere_coords(n: int, k: int, rng: RngStream, count: int) -> np.ndarray:
    """First k (1 <= k <= n + 1) coordinates of uniform S^n points, one
    accepted Marsaglia polar pair a coordinate and no gamma deviate.

    A pair is two consecutive uniforms mapped to u, v = 2U - 1, and it is
    accepted when 0 < w = u^2 + v^2 < 1. The first coordinate of S^d is then
    y = u sqrt(-expm1(a ln w) / w) with a = 2 / (d - 1): u^2 / w = cos^2 of
    a uniform angle is Beta(1/2, 1/2), 1 - w^a is Beta(1, (d - 1)/2) and
    independent of it, and their product is Beta(1/2, d/2), the law of a
    squared coordinate of S^d; the sign of u makes y symmetric (after
    Bailey, Math. Comp. 62, 1994). At d = 1, a is infinite and y = u / sqrt(w)
    up to rounding; at d = 0, the last coordinate of a whole point
    (k = n + 1), y = sign(u).

    Coordinate j of a value is r_j y_j, where y_j is the first coordinate of
    S^(n-j), r_0 = 1 and r_(j+1) = r_j sqrt(1 - y_j^2): the other coordinates
    of a point scaled by 1 / sqrt(1 - x_0^2) are a point of S^(n-1). Value i
    takes accepted pairs i*k to i*k + k - 1. A round draws min(pairs still
    needed, TILE / 2) pairs, so no accepted pair is dropped: the values and
    the counter depend only on the stream and the number of values drawn,
    never on how a draw is split into calls or rounds. A coordinate costs
    about 2.5 uniforms whatever n is.
    """
    n = check_int(n, "n", 1)
    k = check_int(k, "k", 1, n + 1)  # S^n has n + 1 coordinates
    c = check_int(count, "count", 1)
    out = np.empty((c, k))
    y = out.reshape(-1)  # y_j of value i at i*k + j
    # a of each coordinate j; at d = 0 any finite y serves, its sign is kept.
    a = np.array([2.0 / (d - 1) if d > 1 else math.inf for d in range(n, n - k, -1)])
    pos = 0
    while pos < y.size:
        u, _, w = rng._polar_pairs(y.size - pos)
        f = np.log(w)
        f *= a[0] if k == 1 else a.take(np.arange(pos, pos + w.size) % k)
        np.expm1(f, out=f)
        f /= w
        np.negative(f, out=f)
        np.multiply(u, np.sqrt(f, out=f), out=y[pos : pos + w.size])
        pos += w.size
    if k == n + 1:
        np.copysign(1.0, out[:, n], out=out[:, n])
    if k > 1:  # x_j = r_j y_j, a tile of rows at a time
        step = max(1, TILE // k)
        for start in range(0, c, step):
            rows = out[start : start + step]
            r = np.multiply(rows[:, :-1], rows[:, :-1])
            np.subtract(1.0, r, out=r)
            np.sqrt(r, out=r)
            np.cumprod(r, axis=1, out=r)  # r[:, j] = r_(j+1)
            rows[:, 1:] *= r
    return out


# --- compact groups ---------------------------------------------------------


def sample_orthogonal_haar(n: int, rng: RngStream, count: int) -> np.ndarray:
    """Haar-distributed O(n) matrices: a product of n Householder reflections
    of Gaussian vectors, diag(R) > 0.

    Consumes count*n(n+1)/2 normals, a value's vectors g_0 .. g_(n-1) in
    turn (see _haar_qr).
    """
    n, count = check_int(n, "n", 1), check_int(count, "count", 1)
    return _haar_qr(n, rng, count, float)


def sample_orthogonal_entry(n: int, i: int, j: int, rng: RngStream, count: int) -> np.ndarray:
    """Entry (i, j) (0-based) of Haar O(n) matrices: count*(j+1)(2n-j)/2 normals.

    Column j of Q depends on the Gaussian vectors g_0..g_j only, so a value
    draws and reflects those alone, in the order sample_orthogonal_haar
    draws them. At j = n - 1 the values are column n - 1 of
    sample_orthogonal_haar's, bit for bit; at other j they have its law.
    A call holds its output and one slice of values.
    """
    n = check_int(n, "n", 1)
    i, j = _check_entry(n, i, j)
    return _haar_qr(n, rng, check_int(count, "count", 1), float, (i, j))


def sample_unitary_haar(n: int, rng: RngStream, count: int) -> np.ndarray:
    """Haar-distributed U(n) matrices: a product of n Householder reflections
    of complex Gaussian vectors, diag(R) > 0.

    Consumes count*n(n+1) normals, a (real, imaginary) pair per entry, in
    sample_orthogonal_haar's order.
    """
    n, count = check_int(n, "n", 1), check_int(count, "count", 1)
    return _haar_qr(n, rng, count, complex)


def sample_unitary_entry(n: int, i: int, j: int, rng: RngStream, count: int) -> np.ndarray:
    """Entry (i, j) (0-based) of Haar U(n) matrices: count*(j+1)(2n-j)
    normals, the vectors g_0..g_j of sample_unitary_haar's layout, drawn
    and reflected as sample_orthogonal_entry does."""
    n = check_int(n, "n", 1)
    i, j = _check_entry(n, i, j)
    return _haar_qr(n, rng, check_int(count, "count", 1), complex, (i, j))


def _haar_qr(n: int, rng: RngStream, count: int, dtype, entry=None) -> np.ndarray:
    """Entry (i, j) of `count` Haar matrices of O(n) (dtype float) or U(n)
    (complex), or the whole matrices when entry is None: one Householder
    product over R and C (Stewart, SIAM J. Numer. Anal. 17, 1980), with the
    diag(R) > 0 convention of Mezzadri (Notices AMS 54, 2007).

    Q = H_0 ... H_(n-1) D. H_k = I - 2 v_k v_k^H / |v_k|^2 acts on
    coordinates k..n-1, v_k = g_k + phi_k |g_k| e_0 for a fresh vector g_k
    of n - k Gaussian entries, phi_k = g_k[0] / |g_k[0]| (1 when that is 0)
    and D_kk = -phi_k. H_k fixes e_j for k > j and maps -phi_j e_0 to
    g_j / |g_j|, so column j is H_0 ... H_(j-1) y_j, with y_j = g_j / |g_j|
    on coordinates j..n-1. A g_k of zeros takes v_k = e_0 and y_k = e_0, a
    fixed reflection: no value is redrawn.

    A value draws the vectors its read needs, g_0 .. g_(c-1) with c = j + 1
    for an entry and n for a matrix, c(2n - c + 1)/2 entries in that order:
    one normal each over R, two over C (its real and then its imaginary
    part). The values are drawn one slice at a time and only the read of
    each slice is kept, so a call holds its output and one slice.
    """
    cols = n if entry is None else entry[1] + 1
    first = 0 if entry is None else entry[1]  # the first column read
    size = cols * (2 * n - cols + 1) // 2  # entries a value
    parts = 2 if dtype is complex else 1
    step = _qr_slice(parts * (size + n * (cols - first)))
    out = np.empty((count, n, n) if entry is None else count, dtype)
    for start in range(0, count, step):
        m = min(step, count - start)
        # A lone value gets a partner of zeros: np.einsum runs its sums over
        # the batch axis only when that axis is 2 or more long.
        g = np.zeros((size, max(m, 2)), dtype)
        g[:, :m] = rng.normal((m, parts * size)).view(dtype).T
        q = _householder(g, n, cols, first)[..., :m]
        out[start : start + m] = q.transpose(2, 0, 1) if entry is None else q[entry[0], 0]
        del g, q  # the next slice is drawn without this one
    return out


def _qr_slice(doubles: int) -> int:
    """Values per Householder slice, or per SL_n product slice, of work
    arrays that hold `doubles` doubles a value."""
    return max(_QR_SLICE_DOUBLES // doubles, _QR_SLICE_MIN)


def _householder(g: np.ndarray, n: int, cols: int, first: int) -> np.ndarray:
    """Columns first..c-1 of Q = H_0 ... H_(n-1) D (see _haar_qr) for every
    value b of g[t, b], which holds the entries of g_0 .. g_(c-1) in turn,
    as q[r, k - first, b] = entry r of column k; g_k is overwritten by v_k.

    Each sum is an np.einsum with the batch innermost, so every value's sums
    run from 0 in one fixed order: over t for |g_k|^2 and v_k^H x, and no
    value's result depends on the others or on the slice size. Column j
    meets H_(j-1), ..., H_0 in that order, whatever other columns are read.
    """
    q = np.zeros((n, cols - first, g.shape[1]), g.dtype)
    for k in range(cols - 1, -1, -1):
        off = k * (2 * n - k + 1) // 2
        gk = g[off : off + n - k]
        nrm = np.sqrt(np.einsum("tb,tb->b", gk.conj(), gk).real)
        zero = nrm == 0.0  # the stand-in e_0
        if k >= first:
            y = q[k:, k - first]
            _divide(gk, np.where(zero, 1.0, nrm), y)
            y[0, zero] = 1.0
        if k < cols - 1:  # H_k, on the columns after k
            a = np.hypot(gk[0].real, gk[0].imag)  # libm hypot; np.abs is not
            phi = np.empty_like(gk[0])
            _divide(gk[0], np.where(a == 0.0, 1.0, a), phi)
            phi[a == 0.0] = 1.0
            gk[0] += phi * nrm  # g_k is now v_k
            gk[0, zero] = 1.0
            x = q[k:, max(k + 1 - first, 0) :]
            coef = np.einsum("tb,tcb->cb", gk.conj(), x)
            coef *= 1.0 / np.where(zero, 0.5, nrm * (nrm + a))  # 2 / |v_k|^2
            x -= np.einsum("tb,cb->tcb", gk, coef)
    return q


def _divide(z: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    """out = z / r for real r, each part of a complex z divided on its own:
    NumPy would divide a complex by a real as a multiply by its reciprocal."""
    np.divide(z.real, r, out=out.real)
    if np.iscomplexobj(z):
        np.divide(z.imag, r, out=out.imag)


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
    m = check_int(m, "m", 1)
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


def sample_log_uniform(base: int, m: int, rng: RngStream, count: int):
    """Draws from density 1/x on [1, B^m): x = B^(m U).

    The significand is exactly Benford for every integer m >= 1 and the
    significand exponent is uniform on {0..m-1}. Consumes count uniforms.
    """
    base = check_base(base)
    return _power_block(base, 1.0, m)(rng, check_int(count, "count", 1))


def sample_power_density(base: int, k: float, m: int, rng: RngStream, count: int):
    """Draws from density proportional to x^(-k) on [1, B^m) by inversion.

    k = 1 is sample_log_uniform. The induced significand law is
    PowerLaw(base, k) exactly, for every m. Consumes count uniforms.

    Draws near s = 1 are 2^-53 apart, so their CDF can miss the law's by
    density(1) * 2^-53, which must stay within the DigitLaw contract's 1e-9:
    k up to about 9.0e6.
    """
    base = check_base(base)
    if PowerLaw(base, k).density(1.0) * 2.0**-53 > 1e-9:  # PowerLaw checks k > 0
        raise DomainError(
            f"k must be <= about 9.0e6 (draws 2^-53 apart near s = 1 would miss "
            f"PowerLaw's CDF by more than 1e-9), got {k}"
        )
    return _power_block(base, k, m)(rng, check_int(count, "count", 1))


# --- window layouts ------------------------------------------------------------
#
# Block b of an L-block layout is the words b*count to (b+1)*count. A full
# draw draws each run of consecutive blocks of one density in one call: uniform
# and the inverse-CDF power draw work elementwise in word order, so the values
# are those of the blocks drawn one by one, bit for bit.


def _run(draw, rng: RngStream, count: int, blocks: int) -> np.ndarray:
    """`blocks` consecutive blocks of one density drawn in one call, as a
    (count, blocks) array whose column k is block k."""
    return draw(rng, blocks * count).reshape(blocks, count).T


def _read_blocks(draw, rng: RngStream, count: int, b: int, L: int, blocks: int = 1):
    """Blocks b .. b + blocks - 1 of an L-block layout, as _run gives them:
    skips the words before them, draws them and skips the rest, so that the
    counter ends L * count words on."""
    rng.skip(b * count)
    vals = _run(draw, rng, count, blocks)
    rng.skip((L - b - blocks) * count)
    return vals


def _diagonal(free: np.ndarray, n: int, m: int) -> np.ndarray:
    """A (count, n) diagonal from its free entries: all n, or the first n - 1
    of a det-one diagonal, whose last entry is 1 / (the product of the others).
    That product of entries of up to m decades each can leave the double
    range; a product that is not a finite nonzero double raises DomainError."""
    d = np.empty((len(free), n))
    d[:, : free.shape[1]] = free
    if free.shape[1] < n:
        with np.errstate(over="ignore"):
            product = np.prod(d[:, :-1], axis=1)
        if not np.all(np.isfinite(product) & (product != 0.0)):
            raise DomainError(
                f"det-one diagonal at n={n}, m={m}: the product of the n - 1 free entries "
                "is not a finite nonzero double"
            )
        d[:, -1] = 1.0 / product
    return d


def _diagonal_entry(draw, n: int, m: int, i: int, free: int, first: int, rng: RngStream, c: int):
    """Entry i of a diagonal whose `free` blocks end a layout from block
    `first` on, drawing only the blocks it is made of: its own, or every free
    one for the last entry of a det-one diagonal (free = n - 1)."""
    (i,) = _check_entry(n, i)
    if i == free:
        return _diagonal(_read_blocks(draw, rng, c, first, first + free, free), n, m)[:, i]
    return _read_blocks(draw, rng, c, first + i, first + free)[:, 0]


def _lud_runs(n: int, base: int, spec: WindowSpec, rng: RngStream, c: int) -> tuple:
    """The SL_n factors as drawn: the blocks of X (i > j), then of Y (i < j),
    each row-major and flat on [-eps, eps], as (c, n(n-1)/2) arrays, then the
    (c, n) det-one diagonal d from its n - 1 free log-uniform blocks."""
    d_draw = _power_block(base, 1.0, spec.m)  # checks m before any word is drawn
    x = _run(_flat_block(spec.eps), rng, c, n * (n - 1) // 2)
    y = _run(_flat_block(spec.eps), rng, c, n * (n - 1) // 2)
    return x, y, _diagonal(_run(d_draw, rng, c, n - 1), n, spec.m)


def _lud_sample(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> SlnSample:
    """The SlnSample whose X and Y hold the runs x and y of _lud_runs."""
    c, n = d.shape
    X, Y = np.zeros((c, n, n)), np.zeros((c, n, n))
    for canvas, run, (rows, cols) in (
        (X, x, np.tril_indices(n, -1)),
        (Y, y, np.triu_indices(n, 1)),
    ):
        canvas[:, rows, cols] = run
    return SlnSample(X, Y, d)


# --- triangular and diagonal groups ------------------------------------------


def _haar_exponent(n: int, i: int, side: str) -> int:
    """k of the density a^(-k) of diagonal entry (i, i) under left or right Haar."""
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    return (i + 1) if side == "left" else (n - i)


def _check_upper_entry(n: int, i: int, j: int) -> tuple:
    i, j = _check_entry(n, i, j)
    if i > j:
        raise DomainError(f"entry ({i}, {j}) is structurally zero below the diagonal")
    return i, j


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
    n = check_int(n, "n", 1)
    base = check_base(base)
    i, j = _check_upper_entry(n, i, j)
    expo = _haar_exponent(n, i, side)
    flat = FlatWindowSignificand(base, eps)  # checks eps whatever the entry
    if i < j:
        return UniformSignificand(base) if flat.t == 1.0 else flat
    if expo == 1:
        return Benford(base)
    return PowerLaw(base, float(expo))


def sample_upper_triangular_window(
    n: int,
    base: int,
    spec: WindowSpec,
    side: str,
    rng: RngStream,
    count: int,
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
    n = check_int(n, "n", 1)
    base = check_base(base)
    c = check_int(count, "count", 1)
    mats = np.zeros((c, n, n))
    for i in range(n):  # the diagonal block, then the flat run right of it
        mats[:, i, i] = _power_block(base, float(_haar_exponent(n, i, side)), spec.m)(rng, c)
        mats[:, i, i + 1 :] = _run(_flat_block(spec.eps), rng, c, n - 1 - i)
    return mats


def sample_triangular_entry(
    n: int,
    base: int,
    spec: WindowSpec,
    side: str,
    i: int,
    j: int,
    rng: RngStream,
    count: int,
) -> np.ndarray:
    """Entry (i, j) (0-based, i <= j) of sample_upper_triangular_window.

    Bit for bit the column that the full draw gives, but only this entry's
    `count` words are generated: the others are skipped, and the counter
    still advances past the whole layout, n(n+1)/2 * count words.
    """
    n = check_int(n, "n", 1)
    base = check_base(base)
    i, j = _check_upper_entry(n, i, j)
    # The row's power block is made for a flat entry too: it refuses a bad
    # side or m before any word is skipped.
    power = _power_block(base, float(_haar_exponent(n, i, side)), spec.m)
    draw = power if i == j else _flat_block(spec.eps)
    b = i * n - i * (i - 1) // 2 + (j - i)  # rows 0 .. i-1 hold n, n-1, ... blocks
    return _read_blocks(draw, rng, check_int(count, "count", 1), b, n * (n + 1) // 2)[:, 0]


def _check_diagonal(n: int, det_one: bool) -> tuple:
    """n and its number of free entries, n - 1 with det_one."""
    n = check_int(n, "n", 1)
    if det_one and n < 2:
        raise DomainError(f"det_one needs n >= 2 (n = 1 would pin the entry to 1), got n={n}")
    return n, n - 1 if det_one else n


def sample_diagonal_window(
    n: int,
    base: int,
    m: int,
    rng: RngStream,
    count: int,
    det_one: bool = False,
):
    """Diagonal-entry draws from the windowed diagonal group (Haar = prod dx/x).

    Free entries are log-uniform on [1, B^m); with det_one (n >= 2) the last
    entry is forced to 1/(product of the others) so the determinant is
    exactly 1 (its significand is still exactly Benford: minus a sum of
    independent uniform log-significands stays uniform mod 1). Returns
    entries of the diagonal, shape (count, n).

    Consumes (n-1 if det_one else n)*count uniforms, one block per entry.
    sample_diagonal_entry reads one entry and skips the blocks it is not
    made of, so it too advances the counter past all of them.
    """
    n, free = _check_diagonal(n, det_one)
    base = check_base(base)
    c = check_int(count, "count", 1)
    return _diagonal(_run(_power_block(base, 1.0, m), rng, c, free), n, m)


def sample_diagonal_entry(
    n: int,
    base: int,
    m: int,
    i: int,
    rng: RngStream,
    count: int,
    det_one: bool = False,
):
    """Entry i (0-based) of sample_diagonal_window, bit for bit.

    Draws only the blocks the entry is made of (its own, or all n - 1 for
    the det-one last entry) and skips the rest; the counter still advances
    past the whole layout, (n-1 if det_one else n)*count words.
    """
    n, free = _check_diagonal(n, det_one)
    base = check_base(base)
    draw = _power_block(base, 1.0, m)
    return _diagonal_entry(draw, n, m, i, free, 0, rng, check_int(count, "count", 1))


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
    count: int,
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
    n = check_int(n, "n", 2)
    base = check_base(base)
    return _lud_sample(*_lud_runs(n, base, spec, rng, check_int(count, "count", 1)))


def sample_sln_dfactor_entry(
    n: int,
    base: int,
    spec: WindowSpec,
    i: int,
    rng: RngStream,
    count: int,
):
    """Entry i (0-based) of the diagonal factor d of sample_sln_lud_window.

    Bit for bit the values of ``.diag[:, i]``, drawing only the blocks d_ii
    is made of (its own, or all n - 1 free ones for d_nn); the counter
    still advances past the whole layout, (n-1)(n+1)*count words.
    """
    n = check_int(n, "n", 2)
    base = check_base(base)
    draw, c = _power_block(base, 1.0, spec.m), check_int(count, "count", 1)
    return _diagonal_entry(draw, n, spec.m, i, n - 1, n * (n - 1), rng, c)


def sample_sln_matrix_entry(
    n: int,
    base: int,
    spec: WindowSpec,
    i: int,
    j: int,
    rng: RngStream,
    count: int,
) -> np.ndarray:
    """Entry (i, j) (0-based) of sample_sln_lud_window(...).g, bit for bit.

    Draws the same words, keeps the factors as drawn (n^2 doubles a value:
    n(n-1) for X and Y, n for d) and forms exp(X) exp(Y) d one 1 MiB slice
    of matrices at a time, keeping only this entry of each, where the full
    draw holds 3 n^2 doubles a value in X, Y and g. An entry that is not a finite double (eps too large for
    the product) raises DomainError; which entries overflow depends on d,
    so dropping them would bias the law.
    """
    n = check_int(n, "n", 2)
    base = check_base(base)
    i, j = _check_entry(n, i, j)
    x, y, d = _lud_runs(n, base, spec, rng, check_int(count, "count", 1))
    out = np.empty(len(d))
    step = _qr_slice(n * n)
    for start in range(0, len(d), step):
        rows = slice(start, start + step)
        with np.errstate(over="ignore", invalid="ignore"):
            out[rows] = _lud_product(_lud_sample(x[rows], y[rows], d[rows]))[:, i, j]
    if not np.isfinite(out).all():
        raise DomainError(
            f"SL_n matrix entry at n={n}, eps={spec.eps}: exp(X) exp(Y) d leaves the "
            "double range"
        )
    return out


def _lud_product(sample: SlnSample) -> np.ndarray:
    """A fresh array exp(X) exp(Y) d of the sample's factors."""
    g = nilpotent_exp(sample.X) @ nilpotent_exp(sample.Y)
    g *= sample.diag[..., None, :]
    return g


def sample_gln_pos_window(
    n: int,
    base: int,
    spec: WindowSpec,
    rng: RngStream,
    count: int,
) -> GlnSample:
    """Windowed GL_n^+ draws g = r^(1/n) * y with det(g) = r.

    r is log-uniform on [1, B^m), m = spec.m (drawn first, count uniforms),
    and y is an SL_n LUD sample (as sample_sln_lud_window consumes it), so
    the determinant significand is exactly Benford. Returns the SL_n factor
    y and the determinant vector; the matrices are formed from them on
    first read of ``.matrices``. sample_gln_det reads r and skips y, so it
    too advances the counter past all n^2 * count words.
    """
    n = check_int(n, "n", 2)
    base = check_base(base)
    c = check_int(count, "count", 1)
    r = _power_block(base, 1.0, spec.m)(rng, c)
    return GlnSample(_lud_sample(*_lud_runs(n, base, spec, rng, c)), r)


def sample_gln_det(n: int, base: int, spec: WindowSpec, rng: RngStream, count: int):
    """The determinants r of sample_gln_pos_window, bit for bit.

    Draws only r's `count` words; the SL_n factor is skipped, and the
    counter still advances past the whole layout, n^2 * count words.
    """
    n = check_int(n, "n", 2)
    base = check_base(base)
    draw = _power_block(base, 1.0, spec.m)
    return _read_blocks(draw, rng, check_int(count, "count", 1), 0, n * n)[:, 0]
