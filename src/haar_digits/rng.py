"""Seeded, splittable, counter-based random stream.

The generator is SplitMix64 run in counter mode so that every draw is a
pure function of (seed, stream_id, counter) and streams can be split and
replayed bit-exactly on any platform. All arithmetic is modulo 2^64.

    GAMMA = 0x9E3779B97F4A7C15
    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
              z ^= z >> 27; z *= 0x94D049BB133111EB
              z ^= z >> 31; return z
    key(seed, stream_id) = mix64(mix64(seed) + GAMMA * stream_id)
    word_i = mix64(key + i * GAMMA)            for i = 1, 2, ..., 2^64 - 1

A uniform double in [0, 1) is (word >> 11) * 2^-53. Gaussian variates come
from the Marsaglia polar rejection method consuming uniforms strictly in
pair order with a one-deep carry buffer, so the Gaussian sequence is also a
pure function of the word stream (independent of how requests are batched).
Gamma variates use Marsaglia-Tsang; their draw pattern is deterministic for
a fixed (shape, size) call sequence.

Because word i depends on i alone, skip(n) passes n words in O(1) without
generating them. The windowed samplers use this: a read of one entry draws
that entry's block and skips the rest of the layout, leaving the counter
where the full draw leaves it. For the same reason the uniform, normal and
gamma kernels can work a tile of TILE words at a time; no value and no
counter depends on the tile size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, check_int, check_real

__all__ = ["RngStream", "GAMMA", "TILE", "mix64"]

_MASK = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_SUBSTREAM_SALT = 0x632BE59BD9B4E019
_INV_2_53 = 1.0 / 9007199254740992.0  # 2^-53
# Words per tile of the uniform, normal and gamma kernels: a tile's
# temporaries stay in a 2 MiB L2 cache. Output never depends on it.
TILE = 1 << 15

_U64_GAMMA = np.uint64(GAMMA)
_U64_MIX_A = np.uint64(_MIX_A)
_U64_MIX_B = np.uint64(_MIX_B)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int (mod 2^64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64 on every lane of a uint64 array, in place, with one scratch
    buffer of the same size."""
    t = np.empty_like(z)
    for shift, mult in ((_SH30, _U64_MIX_A), (_SH27, _U64_MIX_B)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult
    np.right_shift(z, _SH31, out=t)
    z ^= t
    return z


def _parse_size(size):
    if size is None:
        return None, 1
    if np.ndim(size) == 0:
        n = check_int(size, "size", 0)
        return (n,), n
    shape = tuple(check_int(d, "size", 0) for d in size)
    return shape, int(np.prod(shape, dtype=np.int64)) if shape else 1


class RngStream:
    """Deterministic stream addressed by (seed, stream_id, counter)."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = check_int(seed, "seed") & _MASK
        self.stream_id = check_int(stream_id, "stream_id") & _MASK
        self._key = np.uint64(mix64((mix64(self.seed) + GAMMA * self.stream_id) & _MASK))
        self.counter = 0
        self._pending_normal: float | None = None

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"RngStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"counter={self.counter})"
        )

    def substream(self, k: int) -> "RngStream":
        """Independent child stream; deterministic in (stream_id, k)."""
        child = mix64(self.stream_id ^ mix64((check_int(k, "k") + _SUBSTREAM_SALT) & _MASK))
        return RngStream(self.seed, child)

    def skip(self, n_words: int) -> None:
        """Advance the word counter without generating output."""
        self.counter += check_int(n_words, "n_words", 0)

    # --- raw words and uniforms -------------------------------------------

    def raw(self, n: int) -> np.ndarray:
        """Next n 64-bit words as a uint64 array.

        Word 2^64 - 1 is a stream's last: a draw past it raises DomainError
        and leaves the counter where it was, since wrapped words would repeat
        the stream's first ones.
        """
        n = check_int(n, "n", 0)
        self._check_room("raw", n)
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z *= _U64_GAMMA
        z += self._key
        return _mix64_inplace(z)

    def _check_room(self, caller: str, n: int) -> None:
        if self.counter + n > _MASK:
            raise DomainError(
                f"{caller}: {n} words after word {self.counter} pass word 2^64 - 1, a stream's last"
            )

    def random(self, size=None):
        """Uniform doubles in [0, 1): (word >> 11) * 2^-53, a tile at a time.

        A draw past word 2^64 - 1 is refused before its first tile, so the
        counter stays where it was."""
        shape, n = _parse_size(size)
        self._check_room("random", n)
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, TILE):
            dest = out[start : start + TILE]
            words = self.raw(dest.size)
            words >>= _SH11
            np.multiply(words, _INV_2_53, out=dest)
        if shape is None:
            return float(out[0])
        return out.reshape(shape)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform doubles in [low, high): low + (high - low) * U, high - low finite."""
        low = check_real(low, "low")
        high = check_real(high, "high", low, lo_open=True)
        check_real(high - low, "high - low")
        vals = self.random(size)
        if size is None:
            return low + (high - low) * vals
        vals *= high - low
        vals += low
        return vals

    # --- Gaussian and gamma variates --------------------------------------

    def normal(self, size=None):
        """Standard normal variates via Marsaglia polar rejection.

        Uniforms are consumed strictly in pair order and an odd accepted
        variate is carried to the next request. A round draws
        min(ceil(remaining / 2), TILE / 2) pairs, never more than the request
        still needs, so no accepted pair is dropped: the output sequence
        and the counter depend only on (seed, stream_id) and the running
        counter, never on how calls are batched or rounds are tiled.
        """
        shape, n = _parse_size(size)
        out = np.empty(n, dtype=np.float64)
        pos = 0
        if self._pending_normal is not None and n > 0:
            out[0] = self._pending_normal
            self._pending_normal = None
            pos = 1
        while pos < n:
            u, v, s = self._polar_pairs((n - pos + 1) // 2)
            f = np.log(s)
            f *= -2.0
            f /= s
            np.sqrt(f, out=f)
            # accepted pair p gives u_p f_p, v_p f_p; an odd request leaves
            # the last v_p f_p over (at most one, as a round draws at most
            # ceil(rem / 2) pairs).
            take = min(2 * u.size, n - pos)
            dest = out[pos : pos + take]
            np.multiply(u, f, out=dest[0::2])
            nv = take // 2
            np.multiply(v[:nv], f[:nv], out=dest[1::2])
            if nv < u.size:
                self._pending_normal = float(v[nv] * f[nv])
            pos += take
        if shape is None:
            return float(out[0])
        return out.reshape(shape)

    def _polar_pairs(self, pairs: int) -> tuple:
        """One Marsaglia polar round: min(pairs, TILE / 2) pairs of
        consecutive uniforms, each mapped to u, v = 2U - 1, and the accepted
        ones, 0 < w = u^2 + v^2 < 1, as arrays (u, v, w) in pair order. The
        normal and sphere kernels draw through here."""
        uv = self.random(2 * min(pairs, TILE // 2))
        uv *= 2.0
        uv -= 1.0
        u, v = uv[0::2], uv[1::2]
        w = u * u
        w += v * v
        idx = np.flatnonzero((w > 0.0) & (w < 1.0))
        return u.take(idx), v.take(idx), w.take(idx)

    def gamma(self, shape_param: float, size=None):
        """Gamma(shape, scale=1) variates via Marsaglia-Tsang rejection.

        For shape < 1 the standard boost gamma(a) = gamma(a+1) * U^(1/a) is
        applied. Each rejection round draws exactly `remaining` normals then
        `remaining` uniforms, so the draw pattern is deterministic for a
        fixed call sequence.
        """
        alpha = check_real(shape_param, "shape_param", 0, lo_open=True)
        shape, n = _parse_size(size)
        if alpha < 1.0:
            out = self._gamma_ge1(alpha + 1.0, n)
            for start in range(0, n, TILE):
                u = self.random(min(TILE, n - start))
                out[start : start + TILE] *= np.power(u, 1.0 / alpha, out=u)
        else:
            out = self._gamma_ge1(alpha, n)
        if shape is None:
            return float(out[0])
        return out.reshape(shape)

    def _gamma_ge1(self, alpha: float, n: int) -> np.ndarray:
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n, dtype=np.float64)
        pos = 0
        while pos < n:
            # One round: n - pos normals, then as many uniforms. The normals
            # wait in the unfilled tail out[pos:]; each tile of uniforms then
            # settles its candidates and packs the accepted ones down to
            # out[kept:], and kept never passes the end of the tile being read.
            for start in range(pos, n, TILE):
                out[start : start + TILE] = self.normal(min(TILE, n - start))
            kept = pos
            for start in range(pos, n, TILE):
                x = out[start : start + TILE]
                u = self.random(x.size)
                # t = 1 + c x and v = t^3, then the bound
                # ((0.5 x) x + d) - d v + d log(v), each step rounded as written.
                t = x * c
                t += 1.0
                v = t * t
                v *= t
                bound = np.multiply(x, 0.5, out=t)
                bound *= x
                bound += d
                term = np.multiply(v, d, out=x)
                bound -= term
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.log(v, out=term)
                    term *= d
                    bound += term
                    np.log(u, out=u)
                ok = v > 0.0
                ok &= u < bound
                idx = np.flatnonzero(ok)
                np.multiply(v.take(idx), d, out=out[kept : kept + idx.size])
                kept += idx.size
            pos = kept
        return out

    def chi_square(self, dof: int, size=None):
        """Chi-square variates with `dof` degrees of freedom (2*Gamma(dof/2))."""
        out = self.gamma(check_int(dof, "dof", 1) / 2.0, size)
        out *= 2.0
        return out
