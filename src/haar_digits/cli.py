"""Command-line surface: analytic laws, seeded samplers, verifications.

Subcommands
-----------
law     Tabulate a significand law of the `_LAWS` table (CDF, density,
        first-digit masses) on a 99-point grid.
sample  Draw a seeded Monte Carlo sample of one component of a `_GROUPS`
        row (matrix group / sphere), reduce to significands, and test it
        against the predicted analytic law (KS + first-digit chi-square).
fig1    First-digit frequencies of the leading sphere coordinate across a
        list of dimensions, with the limiting-law predictions alongside.
verify  Run the checks of the `_SUITES` rows: adjoint-determinant product
        identity and the cone-volume law behind the SL_2 window.

Each command returns a `_Report`; `main` alone writes it, as JSON or CSV,
through the one emitter `_emit`, and maps it to the exit code: 0 success,
1 a verification or goodness-of-fit check failed, 2 usage error. All
randomness derives from a single 64-bit seed (--seed, else the
HAAR_DIGITS_SEED environment variable, else 42) through named substreams,
so identical flags produce byte-identical output. Floats are printed with
12 significant digits; JSON payloads carry {"schema": 1} and no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import pickle
import sys
import zlib
from typing import Callable, Iterable, Optional

import numpy as np

from . import samplers
from ._frozen import Frozen
from .errors import ConsistencyError, DomainError, check_int, check_real
from .laws import Benford, DigitLaw, FlatWindowSignificand, PowerLaw, UniformSignificand
from .lie import (
    MC_SIGMAS,
    ConeProblem,
    adjoint_det_on_l,
    adjoint_det_on_u,
    hyperbolic_cone_area,
    hyperbolic_cone_area_mc,
    sl2_cone_volume,
    sl2_cone_volume_mc,
)
from .rng import RngStream
from .sphere import SphereErf, SphereExact, SphereLimit
from .stats import build_empirical, chi_square_first_digit, ks_test

__all__ = ["build_parser", "main"]

_DEFAULT_SEED = 42
_SEED_ENV = "HAAR_DIGITS_SEED"
_GRID_POINTS = 99
_SCALAR_CHUNK = 1 << 22  # values per block of a scalar group's sample and of fig1's
_MATRIX_CHUNK_SCALARS = 1 << 24  # a matrix group's block holds this // n^2 values
_SAMPLES_BLOCK = 1 << 16  # rows per write of --samples-out
_MAX_BASE = 1 << 16  # the largest --base: digit tables have B - 1 rows; samples stay below 10^5
_ADJOINT_DRAWS = 100  # (d, u) pairs per matrix size in verify --suite adjoint

# --- output plumbing ---------------------------------------------------------


def _fmt(value):
    """Floats as text at 12 significant digits, anything else as is."""
    return format(float(value), ".12g") if isinstance(value, (float, np.floating)) else value


def _jsonable(obj):
    """Convert to plain JSON types, rounding floats to 12 significant digits.

    JSON (RFC 8259) has no infinity or NaN, so non-finite floats become null.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj)) if math.isfinite(obj) else None
    return obj


def _open_out(path: str):
    """Open path for binary writing; a path that cannot be written is a usage error."""
    try:
        return open(path, "wb")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


class _Report(Frozen):
    """A command's result: `payload` for JSON, `header` and `rows` for CSV, and `passed`."""

    _fields = ("payload", "header", "rows", "passed")

    def __init__(self, payload: dict, header: tuple, rows: Iterable, passed: bool):
        self._set(payload=payload, header=header, rows=rows, passed=passed)


def _emit(report: _Report, fmt: str, out: Optional[str]) -> None:
    """Write the report in the chosen format to `out`, or to stdout."""
    if fmt == "json":
        text = json.dumps(_jsonable(report.payload), sort_keys=True, indent=2) + "\n"
    else:
        import csv  # only CSV output pays for the import

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.header)
        writer.writerows([_fmt(v) for v in row] for row in report.rows)
        text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with _open_out(out) as fh:
            fh.write(text.encode("utf-8"))


_SCALE = np.array([float(10 ** (12 - e)) for e in range(13)])  # 10^(12 - e), exact


@functools.cache
def _digit_tables():
    """The `--samples-out` writer's tables, built on first use.

    `words[j]` and `words[10_000 + j]` are the four ASCII digits of j,
    zero-padded, as a little-endian word: the first keeps every digit, the
    second turns the trailing '0's into NUL bytes (all four for j = 0).
    `tails[j]` is the second moved up a byte, with a newline after it. For a
    row with e integer digits, `low[e]` masks its first e bytes, `point[e]`
    puts '0' bytes under that mask and a '.' after it, and `dot[e]` is that
    '.' alone.
    """
    j = np.arange(10_000)
    digits = np.stack([j // 1000, j // 100 % 10, j // 10 % 10, j % 10], axis=1) + ord("0")
    digits = digits.astype(np.uint8)
    trimmed = digits.copy()
    for col in range(4):
        trimmed[(digits[:, col:] == ord("0")).all(axis=1), col] = 0
    words = np.concatenate([digits, trimmed]).view("<u4").ravel().astype(np.uint64)
    tails = (words[10_000:] << np.uint64(8)) | np.uint64(ord("\n") << 40)
    shift = 8 * np.arange(8, dtype=np.uint64)
    low = (np.uint64(1) << shift) - np.uint64(1)
    dot = np.uint64(ord(".")) << shift
    point = (np.uint64(0x3030303030303030) & low) | dot
    return words, words << np.uint64(32), tails, low, point, dot


def _sample_rows(block: np.ndarray) -> bytes:
    """The rows `format(v, ".12g")`, each ending in a newline, of a nonempty
    block of values in [1, 10^5), built as arrays.

    With e the number of integer digits of v (exact comparisons against
    powers of ten), the twelve significant digits are m, the half-even
    rounding of v * 10^(12 - e). The product is within half an ulp,
    <= 6.1e-5 below 10^12, of its exact value, so rint gives m except where
    the product lies within 1e-4 of a half; there m is rounded exactly from
    `float.as_integer_ratio`. An m of 10^12 carries into a new integer digit
    (9.9999999999996 prints 10). A row is two uint64 words: the digits of m,
    four at a time from `_digit_tables` with trailing zeros as NUL bytes,
    the integer digits, a '.', the rest and a newline. The '.' goes when no
    digit follows it, and dropping the NUL bytes leaves the rows.
    """
    words, high_words, tails, low, point, dot = _digit_tables()
    top = block.max()
    e = np.ones(block.size, dtype=np.intp)
    for power in (10.0, 100.0, 1000.0, 10000.0):
        if power > top:
            break
        e += block >= power
    exact = block * _SCALE[e]
    rounded = np.rint(exact)
    m = rounded.astype(np.int64)
    for i in np.flatnonzero(np.abs(exact - rounded) > 0.4999).tolist():
        num, den = float(block[i]).as_integer_ratio()
        q, r = divmod(num * 10 ** int(12 - e[i]), den)
        m[i] = q + (2 * r > den or (2 * r == den and q % 2 == 1))
    carry = m == 10**12
    if carry.any():
        m[carry] = 10**11
        e += carry
    hi = m // 10**8
    lo = m - hi * 10**8
    mid = lo // 10**4
    lo -= mid * 10**4
    # a group followed only by zero groups takes its trimmed word
    zero_lo = lo == 0
    np.add(mid, 10_000, out=mid, where=zero_lo)
    np.add(hi, 10_000, out=hi, where=mid == 10_000)
    first = high_words[mid]  # digits 0..7
    first |= words[hi]
    rows = np.empty((block.size, 2), dtype="<u8")
    np.right_shift(first, np.uint64(56), out=rows[:, 1])
    rows[:, 1] |= tails[lo]
    mask = low[e]
    head = first & mask  # the integer digits, which are never trimmed
    first ^= head
    head |= point[e]
    np.left_shift(first, np.uint64(8), out=rows[:, 0])
    rows[:, 0] |= head
    bare = np.flatnonzero(zero_lo)  # digits 8..11 are zero: maybe no digit follows the '.'
    bare = bare[first[bare] == 0]
    rows[bare, 0] ^= dot[e[bare]]
    return rows.tobytes().translate(None, b"\0")


def _write_samples(values: np.ndarray, path: str) -> None:
    """One-column CSV: header `significand`, then one %.12g row per value.

    Rows are built and written a block at a time, so the memory used does
    not grow with the row count.
    """
    with _open_out(path) as fh:
        fh.write(b"significand\n")
        for start in range(0, values.size, _SAMPLES_BLOCK):
            fh.write(_sample_rows(values[start : start + _SAMPLES_BLOCK]))


def _flatten(payload: dict, prefix: str = ""):
    """Depth-first (key, value) pairs of a payload; list entries become `key.i`."""
    for key in sorted(payload):
        val = payload[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, prefix=f"{name}.")
        elif isinstance(val, (list, tuple, np.ndarray)):
            for idx, item in enumerate(val):
                yield (f"{name}.{idx}", item)
        else:
            yield (name, val)


# --- shared flag handling -----------------------------------------------------


def _resolve_seed(arg_seed: Optional[int]) -> int:
    """--seed, else $HAAR_DIGITS_SEED, else the default; a seed is one 64-bit word,
    so a value outside [0, 2^64 - 1] is refused rather than reduced."""
    if arg_seed is not None:
        return check_int(arg_seed, "--seed", 0, 2**64 - 1)
    env = os.environ.get(_SEED_ENV)
    if env is None:
        return _DEFAULT_SEED
    try:
        seed = int(env, 0)
    except ValueError:
        raise DomainError(f"{_SEED_ENV} must be an integer, got {env!r}") from None
    return check_int(seed, _SEED_ENV, 0, 2**64 - 1)


def _route(args, option: str, reads: dict, chosen: str, defaults: dict) -> None:
    """Refuse each flag of `defaults` given to table row `chosen` that the row
    does not read (row r reads reads[r]), and each flag it reads that has no
    default (None) and was not given; fill in the others' defaults."""
    for flag in defaults:
        if getattr(args, flag) is not None and flag not in reads[chosen]:
            users = "|".join(row for row, flags in reads.items() if flag in flags)
            raise DomainError(
                f"--{flag.replace('_', '-')} is only valid with {option} {users}, not {chosen}"
            )
    for flag, default in defaults.items():
        if getattr(args, flag) is None:
            if default is None and flag in reads[chosen]:
                raise DomainError(f"{option} {chosen} requires --{flag}")
            setattr(args, flag, default)


def _parse_entry(text: str, n: int) -> tuple:
    try:
        i_str, j_str = text.split(",")
        i, j = int(i_str), int(j_str)
    except ValueError:
        raise DomainError(
            f"--entry expects 'row,col' with 1-based integers, got {text!r}"
        ) from None
    if not (1 <= i <= n and 1 <= j <= n):
        raise DomainError(f"--entry {text} out of range for n={n}")
    return i - 1, j - 1


def _parse_dims(text: str):
    try:
        dims = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise DomainError(f"--dims expects comma-separated integers, got {text!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise DomainError(f"--dims needs positive dimensions, got {text!r}")
    for i, d in enumerate(dims):  # each draws from root.substream(d): list it once
        if d in dims[:i]:
            raise DomainError(f"--dims repeats dimension {d}")
    return dims


def _grid(base: int) -> np.ndarray:
    """The significand grid 1 + j (B - 1) / 99, j = 1..99, that laws are
    tabulated on."""
    return np.array([1.0 + (j * (base - 1)) / _GRID_POINTS for j in range(1, _GRID_POINTS + 1)])


def _draw(generate, root: RngStream, count: int, block: int) -> np.ndarray:
    """`count` values of generate(stream, c) as one float array.

    Block b holds values b * block to min((b + 1) * block, count) - 1 and is
    drawn in one call on root.substream(b); the blocks follow each other in
    order. Each block starts a substream of its own, so a group's block size
    is part of what its output depends on.
    """
    if count < 1:
        raise DomainError(f"sample count must be >= 1, got {count}")
    try:
        out = np.empty(count) if count > block else None  # one block is returned as drawn
    except MemoryError:  # every caller draws --N values
        raise DomainError(f"--N {count} values cannot be allocated") from None
    for b, start in enumerate(range(0, count, block)):
        c = min(block, count - start)
        vals = np.asarray(generate(root.substream(b), c), dtype=float).reshape(c)
        if out is None:
            return vals
        out[start : start + c] = vals
    return out


def _fan_out(fn: Callable, items: list, limit: Optional[int]) -> list:
    """[fn(x) for x in items], computed by up to one process per usable CPU.

    With P = min(len(items), usable CPUs, limit) processes, where a limit of
    None sets no bound, process k computes items k, k + P, ... in order, up
    to its first item that raises. Process 0 is the caller; each other one
    is a fork that pickles the results it reached into a pipe and leaves by
    os._exit, so it runs none of the caller's exit handlers and flushes
    none of its streams. At P = 1 this is the plain loop and forks nothing.
    Once every fork is read and reaped, the caller computes in list order
    each item that no process finished, so the first failing item raises
    here, with the plain loop's message and this process's own traceback.
    A fork that ends without sending its results counts as a
    ConsistencyError at its first item, naming its items. The results come
    back in item order, so they do not depend on P. Every fork is reaped
    also when the caller's own share raises.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    procs = max(1, min(len(items), cpus, limit or cpus))
    shares, forks = [None] * procs, []
    try:
        for k in range(1, procs):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                status = 1
                try:
                    done = _share(fn, items[k::procs])
                    with open(write_end, "wb") as pipe:
                        pickle.dump(done, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            forks.append((k, pid, read_end))
        shares[0] = _share(fn, items[0::procs])
    finally:
        for k, pid, read_end in forks:
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            try:
                shares[k] = pickle.loads(data)
            except Exception:  # empty or cut short: the fork died before it sent
                code = os.waitstatus_to_exitcode(status)
                shares[k] = ConsistencyError(
                    f"the worker process for items {items[k::procs]} ended without "
                    f"a result (exit status {code})"
                )
    results = []
    for i, x in enumerate(items):
        done = shares[i % procs]
        if isinstance(done, ConsistencyError):
            raise done
        results.append(done[i // procs] if i // procs < len(done) else fn(x))
    return results


def _share(fn: Callable, share: list) -> list:
    """fn over `share` in order, up to the first item that raises."""
    done = []
    try:
        for x in share:
            done.append(fn(x))
    except Exception:
        pass  # the caller computes this item again and raises its error
    return done


# --- law command --------------------------------------------------------------


def _power_law(base: int, k: float) -> DigitLaw:
    return Benford(base) if k == 1.0 else PowerLaw(base, k)


# law name -> (law from the parsed args, the flags of _LAW_FLAGS it reads)
_LAWS = {
    "benford": (lambda a: Benford(a.base), ()),
    "power": (lambda a: _power_law(a.base, a.k), ("k",)),
    "uniform": (lambda a: UniformSignificand(a.base), ()),
    "flat-window": (lambda a: FlatWindowSignificand(a.base, a.eps), ("eps",)),
    "sphere-exact": (lambda a: SphereExact(base=a.base, n=a.n), ("n",)),
    "sphere-erf": (lambda a: SphereErf(base=a.base, n=a.n), ("n",)),
    "sphere-limit": (lambda a: SphereLimit(base=a.base, n=a.n), ("n",)),
}
_LAW_FLAGS = {"k": None, "n": None, "eps": None}  # no default: a law that reads one requires it


def _cmd_law(args) -> _Report:
    _route(args, "--law", {name: row[1] for name, row in _LAWS.items()}, args.law, _LAW_FLAGS)
    law = _LAWS[args.law][0](args)
    base = args.base
    grid = _grid(base)
    cdf = np.asarray(law.cdf(grid), dtype=float)
    density = np.asarray(law.density(grid), dtype=float)
    digit_probs = np.asarray(law.first_digit_probs(), dtype=float)
    masses = {str(d + 1): digit_probs[d] for d in range(base - 1)}
    payload = {
        "schema": 1,
        "command": "law",
        "law": repr(law),
        "base": base,
        "grid": grid,
        "cdf": cdf,
        "density": density,
        "digit_masses": masses,
    }
    rows = [("cdf", s, v) for s, v in zip(grid, cdf)]
    rows += [("density", s, v) for s, v in zip(grid, density)]
    rows += [("digit_mass", d, v) for d, v in masses.items()]
    return _Report(payload, ("quantity", "arg", "value"), rows, passed=True)


# --- sample command -----------------------------------------------------------


class _Group(Frozen):
    """What `sample --group NAME` draws and which law it predicts.

    draw(args, spec, i, j, stream, count) returns `count` values of the
    component; law(args, i, j) is its predicted significand law. (i, j) is
    the 0-based --entry of a group that reads one, (0, 0) otherwise. Entries
    call samplers through the module, so that tracing the module sees them.
    """

    _fields = ("draw", "law", "matrix", "reads", "min_n", "diagonal_only")

    def __init__(
        self,
        draw: Callable,
        law: Callable,
        matrix: bool = True,  # draws blocks of _MATRIX_CHUNK_SCALARS // n^2 values
        reads: tuple = ("n", "entry"),  # the flags of _SAMPLE_FLAGS it reads
        min_n: int = 1,  # the least --n it takes, checked before --entry is read
        # the error for an off-diagonal --entry, unless it reads --component matrix
        diagonal_only: Optional[str] = None,
    ):
        self._set(
            draw=draw, law=law, matrix=matrix, reads=reads, min_n=min_n, diagonal_only=diagonal_only
        )


def _sln_entry(a, spec, i, j, st, c):
    if a.component == "dfactor":
        return samplers.sample_sln_dfactor_entry(a.n, a.base, spec, i, st, c)
    return samplers.sample_sln_matrix_entry(a.n, a.base, spec, i, j, st, c)


_GROUPS = {
    "rplus": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_log_uniform(a.base, a.m, st, c),
        law=lambda a, i, j: Benford(a.base),
        matrix=False,
        reads=("m",),
    ),
    "power": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_power_density(a.base, a.k, a.m, st, c),
        law=lambda a, i, j: _power_law(a.base, a.k),
        matrix=False,
        reads=("k", "m"),
    ),
    "triangular": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_triangular_entry(
            a.n, a.base, spec, a.side, i, j, st, c
        ),
        law=lambda a, i, j: samplers.triangular_component_law(
            a.n, a.base, i, j, a.side, eps=a.eps
        ),
        reads=("n", "side", "entry", "m", "eps"),
    ),
    "diagonal": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_diagonal_entry(
            a.n, a.base, a.m, i, st, c, det_one=a.det_one
        ),
        law=lambda a, i, j: Benford(a.base),
        reads=("n", "det_one", "entry", "m"),
        diagonal_only="--group diagonal: --entry must be on the diagonal",
    ),
    "sln": _Group(
        draw=_sln_entry,
        law=lambda a, i, j: Benford(a.base),
        reads=("n", "component", "entry", "m", "eps"),
        diagonal_only="--group sln: --component dfactor is a diagonal; use --entry i,i, "
        "or --component matrix for any entry",
        min_n=2,
    ),
    "gln-det": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_gln_det(a.n, a.base, spec, st, c),
        law=lambda a, i, j: Benford(a.base),
        reads=("n", "m"),
        min_n=2,
    ),
    "orthogonal": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_orthogonal_entry(a.n, i, j, st, c),
        law=lambda a, i, j: SphereExact(base=a.base, n=a.n - 1),
        min_n=2,  # O(1) entries are +-1 and have no continuous law
    ),
    "unitary": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_unitary_entry(a.n, i, j, st, c).real,
        law=lambda a, i, j: SphereExact(base=a.base, n=2 * a.n - 1),
    ),
    "sphere": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_sphere_coords(a.n, 1, st, c)[:, 0],
        law=lambda a, i, j: SphereExact(base=a.base, n=a.n),
        matrix=False,
        reads=("n",),
    ),
}


def _gof(empirical, law: DigitLaw, alpha: float):
    """KS and first-digit chi-square reports of a sample against a law, and
    whether those that ran passed; the chi-square is skipped, with the
    reason, when an expected digit count is below 5."""
    ks = ks_test(empirical, law, alpha=alpha)
    reports = {"ks": ks.to_dict()}
    try:
        chi2 = chi_square_first_digit(empirical, law, alpha=alpha)
    except DomainError as exc:
        reports["chi2_first_digit"] = {"skipped": str(exc)}
        return reports, ks.passed
    reports["chi2_first_digit"] = chi2.to_dict()
    return reports, ks.passed and chi2.passed


# flag -> its value when it is not given; a group that reads k requires it.
_SAMPLE_FLAGS = {
    "n": 3, "k": None, "m": 3, "eps": 1.0, "entry": "1,1", "side": "left",
    "component": "dfactor", "det_one": False,
}


def _cmd_sample(args) -> _Report:
    seed = _resolve_seed(args.seed)
    check_real(args.alpha, "alpha", 0, 1, lo_open=True, hi_open=True)  # before any draw
    group = _GROUPS[args.group]
    _route(args, "--group", {r: g.reads for r, g in _GROUPS.items()}, args.group, _SAMPLE_FLAGS)
    spec = samplers.WindowSpec(eps=args.eps, m=args.m)
    if "n" in group.reads and args.n < group.min_n:
        raise DomainError(f"--group {args.group} needs --n >= {group.min_n}, got --n {args.n}")
    meta = {"group": args.group, "base": args.base}
    meta.update((flag, getattr(args, flag)) for flag in group.reads)
    i = j = 0
    if "entry" in group.reads:
        i, j = _parse_entry(args.entry, args.n)
        # Every SL_n matrix entry is Benford (README, *The laws*); d is diagonal.
        if group.diagonal_only is not None and i != j and args.component != "matrix":
            raise DomainError(group.diagonal_only)
        meta["entry"] = f"{i + 1},{j + 1}"
    block = max(1, _MATRIX_CHUNK_SCALARS // (args.n * args.n)) if group.matrix else _SCALAR_CHUNK
    law = group.law(args, i, j)
    # The run's stream is keyed by what it reads, so no two runs that read
    # different flags test the same numbers.
    key = zlib.crc32(json.dumps(meta, sort_keys=True, separators=(",", ":")).encode())
    root = RngStream(seed).substream(key)
    empirical = build_empirical(
        _draw(lambda st, c: group.draw(args, spec, i, j, st, c), root, args.N, block), args.base
    )
    reports, all_passed = _gof(empirical, law, args.alpha)
    payload = {
        "schema": 1,
        "command": "sample",
        "seed": seed,
        "N": args.N,
        "alpha": args.alpha,
        "law": repr(law),
        "n_rejected": empirical.n_rejected,
        "digit_freqs": empirical.digit_freqs(),
        "predicted_digit_freqs": np.asarray(law.first_digit_probs(), dtype=float),
        "tests": reports,
        "pass": bool(all_passed),
        **meta,
    }
    # Samples first: a run that cannot write them prints no report.
    if args.samples_out is not None:
        _write_samples(empirical.values, args.samples_out)
    return _Report(payload, ("key", "value"), _flatten(payload), payload["pass"])


# --- fig1 command --------------------------------------------------------------


def _fig1_freqs(root: RngStream, dim: int, count: int, base: int) -> np.ndarray:
    """One `fig1` dimension: the first-digit frequencies of `count` draws of
    the leading sphere coordinate, from root.substream(dim). Only the digit
    counts are read, so the significands are never sorted."""
    return build_empirical(
        _draw(
            lambda st, c: samplers.sample_sphere_coords(dim, 1, st, c)[:, 0],
            root.substream(dim),
            count,
            _SCALAR_CHUNK,
        ),
        base,
    ).digit_freqs()


def _cmd_fig1(args) -> _Report:
    seed = _resolve_seed(args.seed)
    dims = _parse_dims(args.dims)
    base = args.base
    root = RngStream(seed)
    header = ("dimension", "digit", "mc_freq", "predicted_freq")
    freqs_by_dim = _fan_out(lambda dim: _fig1_freqs(root, dim, args.N, base), dims, args.workers)
    rows = []
    for dim, freqs in zip(dims, freqs_by_dim):
        predicted = np.asarray(SphereLimit(base=base, n=dim).first_digit_probs())
        for digit in range(1, base):
            rows.append((dim, digit, float(freqs[digit - 1]), float(predicted[digit - 1])))
    payload = {
        "schema": 1,
        "command": "fig1",
        "base": base,
        "seed": seed,
        "N": args.N,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    return _Report(payload, header, rows, passed=True)


# --- verify command -------------------------------------------------------------


def _random_ud(stream: RngStream, n: int, draws: int):
    """`draws` pairs (d, u): |d_i| log-uniform on [1e-2, 1e2] with a random
    sign, u unit upper triangular with entries uniform on [-3, 3)."""
    mags = np.exp(stream.uniform(-2.0 * math.log(10.0), 2.0 * math.log(10.0), (draws, n)))
    signs = np.where(stream.random((draws, n)) < 0.5, -1.0, 1.0)
    rows, cols = np.triu_indices(n, k=1)
    u = np.tile(np.eye(n), (draws, 1, 1))
    u[:, rows, cols] = stream.uniform(-3.0, 3.0, (draws, rows.size))
    return mags * signs, u


def _check(name: str, passed, **detail) -> dict:
    """One verify check: its name, whether it passed, and what it measured."""
    return {"name": name, "passed": bool(passed), "detail": detail}


def _verify_adjoint(stream: RngStream):
    checks = []
    for n in range(2, 9):
        d, u = _random_ud(stream.substream(n), n, _ADJOINT_DRAWS)
        detail = {"n": n, "draws": _ADJOINT_DRAWS, "threshold": 1e-9}
        # NaN (written null) when the matrix route failed; it fails the check.
        product = u_dependence = math.nan
        try:
            det_u = adjoint_det_on_u(d, u)
            det_l = adjoint_det_on_l(d, u)
            det_l_identity = adjoint_det_on_l(d)
        except ConsistencyError as exc:
            detail["error"] = str(exc)
        else:
            product = float(np.abs(det_u * det_l - 1.0).max())
            u_dependence = float(
                (np.abs(det_l - det_l_identity) / np.maximum(np.abs(det_l_identity), 1e-300)).max()
            )
        detail["max_product_residual"] = product
        detail["max_u_dependence"] = u_dependence
        passed = product < 1e-9 and u_dependence < 1e-9
        checks.append(_check(f"adjoint_product_n{n}", passed, **detail))
    return checks


def _mc_detail(analytic, mc) -> dict:
    """How far the Monte Carlo estimate `mc` lies from `analytic`."""
    return {
        "analytic": analytic,
        "mc_estimate": mc.estimate,
        "mc_stderr": mc.stderr,
        "relative_gap": abs(mc.estimate - analytic) / analytic,
        "sigma_gap": mc.sigma_gap(analytic),
    }


def _mc_check(name: str, analytic: float, mc, **setup) -> dict:
    """A check that the Monte Carlo estimate `mc` agrees with `analytic` (MCVolume.agrees)."""
    detail = {**setup, **_mc_detail(analytic, mc), "threshold": MC_SIGMAS}
    return _check(name, mc.agrees(analytic), **detail)


def _verify_cone(stream: RngStream, eps: float, trials: int):
    # One draw in the cone of edge 10: its volume, the volumes of the cones of
    # edge 2 and 5 inside it (points with s <= x), and the law of the edge s.
    problem = ConeProblem(10.0, eps)
    mc, edges = sl2_cone_volume_mc(problem, stream.substream(1), trials)
    setup = {"eps": eps, "trials": trials}
    checks = [_mc_check("cone_volume_mc", sl2_cone_volume(problem), mc, x=problem.x, **setup)]
    xs = [2.0, 5.0, 10.0]
    exact = [sl2_cone_volume(ConeProblem(x, eps)) for x in xs]
    parts = [mc.subregion(int(np.count_nonzero(edges <= x))) for x in xs]
    gaps = [_mc_detail(v, part) for v, part in zip(exact, parts)]
    slope = {key: [gap[key] for gap in gaps] for key in gaps[0]}
    passed = all(part.agrees(v) for v, part in zip(exact, parts))
    checks.append(_check("cone_log_slope_mc", passed, x=xs, **setup, **slope, threshold=MC_SIGMAS))
    # The two-sided level of a normal deviate MC_SIGMAS standard errors out.
    alpha = math.erfc(MC_SIGMAS / math.sqrt(2.0))
    law = Benford(10)
    if edges.size:
        tests, passed = _gof(build_empirical(edges, law.base), law, alpha)
    else:
        tests, passed = {"error": "no trial fell in the cone: there is no edge to test"}, False
    checks.append(
        _check("cone_edge_is_benford", passed, x=problem.x, **setup, law=repr(law), **tests)
    )
    a, b = 0.5, 4.0
    area = hyperbolic_cone_area(a, b)
    area_mc = hyperbolic_cone_area_mc(a, b, stream.substream(2), trials)
    checks.append(_mc_check("hyperbolic_area_mc", area, area_mc, a=a, b=b, trials=trials))
    return checks


class _Suite(Frozen):
    """What `verify --suite NAME` checks."""

    _fields = ("label", "run", "reads")

    def __init__(
        self,
        label: int,  # the substream of the verify root it draws from
        run: Callable,  # run(stream, **flags) returns its checks
        reads: tuple,  # the flags of _VERIFY_FLAGS it reads
    ):
        self._set(label=label, run=run, reads=reads)


_SUITES = {
    "adjoint": _Suite(label=0, run=_verify_adjoint, reads=()),
    "cone": _Suite(label=1, run=_verify_cone, reads=("eps", "trials")),
}
_VERIFY_FLAGS = {"eps": 0.1, "trials": 1_000_000}  # flag -> its value when not given


def _cmd_verify(args) -> _Report:
    seed = _resolve_seed(args.seed)
    root = RngStream(seed)
    chosen = list(_SUITES.values()) if args.suite == "all" else [_SUITES[args.suite]]
    reads = {name: suite.reads for name, suite in _SUITES.items()} | {"all": tuple(_VERIFY_FLAGS)}
    _route(args, "--suite", reads, args.suite, _VERIFY_FLAGS)
    checks = []
    for suite in chosen:
        flags = {flag: getattr(args, flag) for flag in suite.reads}
        checks.extend(suite.run(root.substream(suite.label), **flags))
    payload = {
        "schema": 1,
        "command": "verify",
        "suite": args.suite,
        "seed": seed,
        "checks": checks,
        "pass": all(c["passed"] for c in checks),
    }
    details = [";".join(f"{k}={_fmt(v)}" for k, v in _flatten(c["detail"])) for c in checks]
    rows = [(c["name"], str(c["passed"]).lower(), d) for c, d in zip(checks, details)]
    return _Report(payload, ("check", "passed", "detail"), rows, payload["pass"])


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haar-digits",
        description="Analytic significand laws for Haar-random matrix "
        "components, with seeded Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, seeded=True, based=True):
        if based:
            p.add_argument(
                "--base", type=int, default=10,
                help=f"significand base, 2 to {_MAX_BASE} (default 10)",
            )
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        if seeded:
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help=f"RNG seed (default: ${_SEED_ENV} or {_DEFAULT_SEED})",
            )

    p_law = sub.add_parser("law", help="tabulate an analytic significand law")
    common(p_law, seeded=False)
    p_law.add_argument(
        "--law",
        required=True,
        choices=tuple(_LAWS),
    )
    p_law.add_argument("--k", type=float, default=None, help="power-law exponent")
    p_law.add_argument("--n", type=int, default=None, help="sphere dimension (S^n)")
    p_law.add_argument("--eps", type=float, default=None, help="flat window half-width")
    p_law.set_defaults(handler=_cmd_law)

    p_sample = sub.add_parser(
        "sample", help="sample one group component and test its significand law"
    )
    common(p_sample)
    p_sample.add_argument("--workers", type=int, help="most processes (sample uses one); "
                          "no output depends on it")
    p_sample.add_argument("--group", required=True, choices=tuple(_GROUPS))
    p_sample.add_argument("--N", type=int, default=100_000, help="sample count")
    p_sample.add_argument("--n", type=int, default=None, help="matrix size / sphere dimension")
    p_sample.add_argument("--k", type=float, default=None, help="power-density exponent")
    p_sample.add_argument("--m", type=int, help="window decades [1, B^m) (default 3)")
    p_sample.add_argument("--eps", type=float, help="unipotent box half-width (default 1)")
    p_sample.add_argument(
        "--entry", default=None, help="matrix entry, 1-based 'row,col' (default 1,1)"
    )
    p_sample.add_argument("--side", choices=("left", "right"), default=None)
    p_sample.add_argument(
        "--component",
        choices=("dfactor", "matrix"),
        default=None,
        help="sln: test the diagonal-factor entry or the matrix entry",
    )
    p_sample.add_argument(
        "--det-one", action="store_true", default=None, help="diagonal: force det = 1"
    )
    p_sample.add_argument("--alpha", type=float, default=0.001, help="test level")
    p_sample.add_argument("--samples-out", default=None, help="also write significands CSV here")
    p_sample.set_defaults(handler=_cmd_sample)

    p_fig1 = sub.add_parser(
        "fig1", help="first-digit frequencies of sphere coordinates across dimensions"
    )
    common(p_fig1)
    p_fig1.add_argument("--workers", type=int, help="most processes (default: one per usable "
                        "CPU); no output depends on it")
    p_fig1.add_argument(
        "--dims",
        default="100,200,500,10000,20000,50000",
        help="comma-separated sphere dimensions",
    )
    p_fig1.add_argument("--N", type=int, default=100_000, help="samples per dimension")
    p_fig1.set_defaults(handler=_cmd_fig1)

    p_verify = sub.add_parser("verify", help="run structural verification suites")
    common(p_verify, based=False)  # no check reads a base: the cone is base 10
    p_verify.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p_verify.add_argument("--eps", type=float, help="cone box half-width (default 0.1)")
    p_verify.add_argument("--trials", type=int, help="MC trials per cone-suite draw (default 1e6)")
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "base", 0) > _MAX_BASE:  # verify has no --base
            raise DomainError(f"--base must be at most {_MAX_BASE}, got {args.base}")
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise DomainError(f"workers must be >= 1, got {args.workers}")
        report = args.handler(args)
        _emit(report, args.format, args.out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
