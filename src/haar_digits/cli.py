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
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import samplers
from .errors import ConsistencyError, DomainError
from .laws import Benford, DigitLaw, PowerLaw, UniformSignificand
from .lie import (
    ConeProblem,
    adjoint_det_on_l,
    adjoint_det_on_u,
    hyperbolic_cone_area,
    hyperbolic_cone_area_mc,
    sl2_cone_induced_cdf,
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
_SCALAR_CHUNK = 1 << 22
_MATRIX_CHUNK_SCALARS = 1 << 24
_SAMPLES_BLOCK = 1 << 16  # rows per write of --samples-out

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
    """Open path for writing; a path that cannot be written is a usage error."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from None


@dataclass(frozen=True)
class _Report:
    """A command's result: `payload` for JSON, `header` and `rows` for CSV, and `passed`."""

    payload: dict
    header: tuple
    rows: Iterable
    passed: bool


def _emit(report: _Report, fmt: str, out: Optional[str]) -> None:
    """Write the report in the chosen format to `out`, or to stdout."""
    if fmt == "json":
        text = json.dumps(_jsonable(report.payload), sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.header)
        writer.writerows([_fmt(v) for v in row] for row in report.rows)
        text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with _open_out(out) as fh:
            fh.write(text)


def _write_samples(values: np.ndarray, path: str) -> None:
    """One-column CSV: header `significand`, then one %.12g row per value.

    Rows are formatted a block at a time, so the memory used does not grow
    with the row count.
    """
    with _open_out(path) as fh:
        fh.write("significand\n")
        for start in range(0, values.size, _SAMPLES_BLOCK):
            block = values[start : start + _SAMPLES_BLOCK].tolist()
            fh.write(("%.12g\n" * len(block)) % tuple(block))


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
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(_SEED_ENV)
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise DomainError(
                f"{_SEED_ENV} must be an integer, got {env!r}"
            ) from None
    return _DEFAULT_SEED


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
    return dims


def _grid(base: int) -> np.ndarray:
    """The significand grid 1 + j (B - 1) / 99, j = 1..99, that laws are
    tabulated on."""
    return np.array([1.0 + (j * (base - 1)) / _GRID_POINTS for j in range(1, _GRID_POINTS + 1)])


def _draw(generate, root: RngStream, count: int, workers: int, chunk: int) -> np.ndarray:
    """`count` values of generate(stream, c) as one float array.

    The count is split into `workers` near-equal shards; shard w draws from
    root.substream(w), at most `chunk` values per call, and the shards follow
    each other in order. Gamma deviates depend on the batch they are drawn
    in, so a group's chunk size is part of what its output depends on.
    """
    if count < 1:
        raise DomainError(f"sample count must be >= 1, got {count}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    quotient, remainder = divmod(count, workers)
    parts = []
    for w in range(workers):
        stream = root.substream(w)
        size = quotient + (1 if w < remainder else 0)
        for start in range(0, size, chunk):
            c = min(chunk, size - start)
            parts.append(np.asarray(generate(stream, c), dtype=float).reshape(c))
    return np.concatenate(parts)


# --- law command --------------------------------------------------------------


def _power_law(base: int, k: float) -> DigitLaw:
    return Benford(base) if k == 1.0 else PowerLaw(base, k)


# law name -> (law from (base, k, n), the one of --k / --n it takes, if any)
_LAWS = {
    "benford": (lambda base, k, n: Benford(base), None),
    "power": (lambda base, k, n: _power_law(base, k), "k"),
    "uniform": (lambda base, k, n: UniformSignificand(base), None),
    "sphere-exact": (lambda base, k, n: SphereExact(base=base, n=n), "n"),
    "sphere-erf": (lambda base, k, n: SphereErf(base=base, n=n), "n"),
    "sphere-limit": (lambda base, k, n: SphereLimit(base=base, n=n), "n"),
}


def _build_law(args) -> DigitLaw:
    make, takes = _LAWS[args.law]
    for flag, users in (("k", "--law power"), ("n", "the sphere laws")):
        if getattr(args, flag) is not None and flag != takes:
            raise DomainError(f"--{flag} is only valid with {users}, not {args.law}")
    if takes is not None and getattr(args, takes) is None:
        raise DomainError(f"--law {args.law} requires --{takes}")
    return make(args.base, args.k, args.n)


def _cmd_law(args) -> _Report:
    law = _build_law(args)
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


@dataclass(frozen=True)
class _Group:
    """What `sample --group NAME` draws and which law it predicts.

    draw(args, spec, i, j, stream, count) returns `count` values of the
    component; law(args, i, j) is its predicted significand law. (i, j) is
    the 0-based --entry of a group that reads one, (0, 0) otherwise. Entries
    call samplers through the module, so that tracing the module sees them.
    """

    draw: Callable
    law: Callable
    matrix: bool = True  # draws _MATRIX_CHUNK_SCALARS // n^2 a call
    echoes: tuple = ("n", "entry")  # flags it reads, copied into the payload
    requires: Optional[str] = None  # a flag that must be given
    min_n: int = 1  # the least --n it takes, checked before --entry is read
    diagonal_only: Optional[str] = None  # the error for an off-diagonal --entry


def _sln_entry(a, spec, i, j, st, c):
    if a.component == "dfactor":
        return samplers.sample_sln_dfactor_entry(a.n, a.base, spec, i, st, c)
    return samplers.sample_sln_lud_window(a.n, a.base, spec, st, c).g[:, i, i]


_GROUPS = {
    "rplus": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_log_uniform(a.base, a.m, st, c),
        law=lambda a, i, j: Benford(a.base),
        matrix=False,
        echoes=(),
    ),
    "power": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_power_density(a.base, a.k, a.m, st, c),
        law=lambda a, i, j: _power_law(a.base, a.k),
        matrix=False,
        echoes=("k",),
        requires="k",
    ),
    "triangular": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_triangular_entry(
            a.n, a.base, spec, a.side, i, j, st, c
        ),
        law=lambda a, i, j: samplers.triangular_component_law(
            a.n, a.base, i, j, a.side, eps=a.eps
        ),
        echoes=("n", "side", "entry"),
    ),
    "diagonal": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_diagonal_entry(
            a.n, a.base, a.m, i, st, c, det_one=a.det_one
        ),
        law=lambda a, i, j: Benford(a.base),
        echoes=("n", "det_one", "entry"),
        diagonal_only="--group diagonal: --entry must be on the diagonal",
    ),
    "sln": _Group(
        draw=_sln_entry,
        law=lambda a, i, j: Benford(a.base),
        echoes=("n", "component", "entry"),
        diagonal_only="--group sln: only diagonal components carry a predicted law; "
        "use --entry i,i",
        min_n=2,
    ),
    "gln-det": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_gln_det(a.n, a.base, spec, st, c),
        law=lambda a, i, j: Benford(a.base),
        echoes=("n",),
        min_n=2,
    ),
    "orthogonal": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_orthogonal_haar(a.n, st, c)[:, i, j],
        law=lambda a, i, j: SphereExact(base=a.base, n=a.n - 1),
        min_n=2,  # O(1) entries are +-1 and have no continuous law
    ),
    "unitary": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_unitary_haar(a.n, st, c)[:, i, j].real,
        law=lambda a, i, j: SphereExact(base=a.base, n=2 * a.n - 1),
    ),
    "sphere": _Group(
        draw=lambda a, spec, i, j, st, c: samplers.sample_sphere_coords(a.n, 1, st, c)[:, 0],
        law=lambda a, i, j: SphereExact(base=a.base, n=a.n),
        matrix=False,
        echoes=("n",),
    ),
}


# flag -> the value a group that reads it gets when it is not given. A flag
# given to a group that does not read it is a usage error.
_GROUP_FLAGS = {
    "n": 3, "k": None, "entry": "1,1", "side": "left", "component": "dfactor", "det_one": False
}


def _cmd_sample(args) -> _Report:
    seed = _resolve_seed(args.seed)
    if not (0.0 < args.alpha < 1.0):
        raise DomainError(f"alpha must be in (0, 1), got {args.alpha}")
    spec = samplers.WindowSpec(eps=args.eps, m=args.m)
    group = _GROUPS[args.group]
    for flag, default in _GROUP_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif flag not in group.echoes:
            users = [name for name, g in _GROUPS.items() if flag in g.echoes]
            raise DomainError(
                f"--{flag.replace('_', '-')} is only valid with --group {'|'.join(users)}, "
                f"not {args.group}"
            )
    if group.requires is not None and getattr(args, group.requires) is None:
        raise DomainError(f"--group {args.group} requires --{group.requires}")
    if "n" in group.echoes and args.n < group.min_n:
        raise DomainError(f"--group {args.group} needs --n >= {group.min_n}, got --n {args.n}")
    meta = {"group": args.group, "base": args.base, "window_m": args.m, "window_eps": args.eps}
    meta.update((flag, getattr(args, flag)) for flag in group.echoes)
    i = j = 0
    if "entry" in group.echoes:
        i, j = _parse_entry(args.entry, args.n)
        if group.diagonal_only is not None and i != j:
            raise DomainError(group.diagonal_only)
        meta["entry"] = f"{i + 1},{j + 1}"
    chunk = max(1, _MATRIX_CHUNK_SCALARS // (args.n * args.n)) if group.matrix else _SCALAR_CHUNK
    law = group.law(args, i, j)
    empirical = build_empirical(
        _draw(
            lambda st, c: group.draw(args, spec, i, j, st, c),
            RngStream(seed),
            args.N,
            args.workers,
            chunk,
        ),
        args.base,
    )
    ks = ks_test(empirical, law, alpha=args.alpha)
    reports = {"ks": ks.to_dict()}
    try:
        chi2 = chi_square_first_digit(empirical, law, alpha=args.alpha)
        reports["chi2_first_digit"] = chi2.to_dict()
        all_passed = ks.passed and chi2.passed
    except DomainError as exc:
        reports["chi2_first_digit"] = {"skipped": str(exc)}
        all_passed = ks.passed
    payload = {
        "schema": 1,
        "command": "sample",
        "seed": seed,
        "workers": args.workers,
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


def _cmd_fig1(args) -> _Report:
    seed = _resolve_seed(args.seed)
    dims = _parse_dims(args.dims)
    base = args.base
    root = RngStream(seed)
    header = ("dimension", "digit", "mc_freq", "predicted_freq")
    rows = []
    for dim in dims:
        freqs = build_empirical(
            _draw(
                lambda st, c: samplers.sample_sphere_coords(dim, 1, st, c)[:, 0],
                root.substream(dim),
                args.N,
                args.workers,
                _SCALAR_CHUNK,
            ),
            base,
        ).digit_freqs()
        predicted = np.asarray(SphereLimit(base=base, n=dim).first_digit_probs())
        for digit in range(1, base):
            rows.append((dim, digit, float(freqs[digit - 1]), float(predicted[digit - 1])))
    payload = {
        "schema": 1,
        "command": "fig1",
        "base": base,
        "seed": seed,
        "workers": args.workers,
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


def _verify_adjoint(stream: RngStream, draws: int = 100):
    checks = []
    for n in range(2, 9):
        d, u = _random_ud(stream.substream(n), n, draws)
        detail = {"n": n, "draws": draws, "threshold": 1e-9}
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


def _mc_check(name: str, analytic: float, mc, **setup) -> dict:
    """A check that the Monte Carlo estimate `mc` is within 2% of `analytic`."""
    gap = abs(mc.estimate - analytic) / analytic
    detail = {
        **setup,
        "analytic": analytic,
        "mc_estimate": mc.estimate,
        "mc_stderr": mc.stderr,
        "relative_gap": gap,
        "threshold": 0.02,
    }
    return _check(name, gap < 0.02, **detail)


def _verify_cone(stream: RngStream, eps: float, trials: int):
    ratios = [
        sl2_cone_volume(ConeProblem(x, eps)) / math.log(x) for x in (2.0, 5.0, 10.0)
    ]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    checks = [
        _check(
            "cone_log_slope_constant",
            spread < 1e-9,
            ratios=ratios,
            relative_spread=spread,
            threshold=1e-9,
        )
    ]
    problem = ConeProblem(10.0, eps)
    analytic = sl2_cone_volume(problem)
    mc = sl2_cone_volume_mc(problem, stream.substream(1), trials)
    checks.append(_mc_check("cone_volume_mc", analytic, mc, x=problem.x, eps=eps, trials=trials))
    base = 10
    grid = _grid(base)
    induced = np.asarray(sl2_cone_induced_cdf(grid, eps, base))
    benford = np.log(grid) / math.log(base)
    sup_gap = float(np.abs(induced - benford).max())
    checks.append(
        _check(
            "cone_induced_cdf_is_benford",
            sup_gap < 1e-9,
            sup_gap=sup_gap,
            threshold=1e-9,
            grid_points=len(grid),
        )
    )
    a, b = 0.5, 4.0
    area = hyperbolic_cone_area(a, b)
    area_mc = hyperbolic_cone_area_mc(a, b, stream.substream(2), trials)
    checks.append(_mc_check("hyperbolic_area_mc", area, area_mc, a=a, b=b, trials=trials))
    return checks


@dataclass(frozen=True)
class _Suite:
    """What `verify --suite NAME` checks."""

    label: int  # the substream of the verify root it draws from
    run: Callable  # run(stream, **flags) returns its checks
    flags: dict  # flag -> default, for each flag it reads; no other suite reads it


_SUITES = {
    "adjoint": _Suite(label=0, run=_verify_adjoint, flags={}),
    "cone": _Suite(label=1, run=_verify_cone, flags={"eps": 0.1, "trials": 1_000_000}),
}


def _cmd_verify(args) -> _Report:
    seed = _resolve_seed(args.seed)
    root = RngStream(seed)
    chosen = list(_SUITES.values()) if args.suite == "all" else [_SUITES[args.suite]]
    for name, suite in _SUITES.items():
        for flag, default in suite.flags.items():
            if getattr(args, flag) is None:
                setattr(args, flag, default)
            elif suite not in chosen:
                raise DomainError(f"--{flag} is only valid with --suite {name}|all")
    checks = []
    for suite in chosen:
        flags = {flag: getattr(args, flag) for flag in suite.flags}
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

    def common(p, seeded=True):
        p.add_argument("--base", type=int, default=10, help="significand base (default 10)")
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
    p_law.set_defaults(handler=_cmd_law)

    p_sample = sub.add_parser(
        "sample", help="sample one group component and test its significand law"
    )
    common(p_sample)
    p_sample.add_argument("--workers", type=int, default=1, help="Monte Carlo shards")
    p_sample.add_argument("--group", required=True, choices=tuple(_GROUPS))
    p_sample.add_argument("--N", type=int, default=100_000, help="sample count")
    p_sample.add_argument("--n", type=int, default=None, help="matrix size / sphere dimension")
    p_sample.add_argument("--k", type=float, default=None, help="power-density exponent")
    p_sample.add_argument("--m", type=int, default=3, help="window decades [1, B^m)")
    p_sample.add_argument("--eps", type=float, default=1.0, help="unipotent box half-width")
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
    p_fig1.add_argument("--workers", type=int, default=1, help="Monte Carlo shards")
    p_fig1.add_argument(
        "--dims",
        default="100,200,500,10000,20000,50000",
        help="comma-separated sphere dimensions",
    )
    p_fig1.add_argument("--N", type=int, default=100_000, help="samples per dimension")
    p_fig1.set_defaults(handler=_cmd_fig1)

    p_verify = sub.add_parser("verify", help="run structural verification suites")
    common(p_verify)
    p_verify.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p_verify.add_argument("--eps", type=float, help="cone box half-width (default 0.1)")
    p_verify.add_argument("--trials", type=int, help="MC trials per cone check (default 1e6)")
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
