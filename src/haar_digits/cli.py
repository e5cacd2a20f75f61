"""Command-line surface: analytic laws, seeded samplers, verifications.

Subcommands
-----------
law     Tabulate a significand law (CDF, density, first-digit masses) on a
        99-point grid.
sample  Draw a seeded Monte Carlo sample of one component of a matrix
        group / sphere, reduce to significands, and test against the
        predicted analytic law (KS + first-digit chi-square).
fig1    First-digit frequencies of the leading sphere coordinate across a
        list of dimensions, with the limiting-law predictions alongside.
verify  Structural checks: adjoint-determinant product identity and the
        cone-volume law behind the SL_2 window.

All randomness derives from a single 64-bit seed (--seed, else the
HAAR_DIGITS_SEED environment variable, else 42) through named substreams,
so identical flags produce byte-identical output. Floats are printed with
12 significant digits; JSON payloads carry {"schema": 1} and no
timestamps. Exit codes: 0 success, 1 a verification or goodness-of-fit
check failed, 2 usage error.
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
from typing import Optional

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
from .sphere import SphereExact, SphereLimit
from .stats import build_empirical, chi_square_first_digit, ks_test

__all__ = ["RunConfig", "build_parser", "main"]

_DEFAULT_SEED = 42
_SEED_ENV = "HAAR_DIGITS_SEED"
_GRID_POINTS = 99
_SCALAR_CHUNK = 1 << 22
_MATRIX_CHUNK_SCALARS = 1 << 24

_GROUPS = (
    "rplus",
    "power",
    "triangular",
    "diagonal",
    "sln",
    "gln-det",
    "orthogonal",
    "unitary",
    "sphere",
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by the sampling commands."""

    base: int = 10
    seed: int = _DEFAULT_SEED
    count: int = 100_000
    fmt: str = "json"
    out: Optional[str] = None
    workers: int = 1
    alpha: float = 0.001

    def __post_init__(self):
        if self.count < 1:
            raise DomainError(f"sample count must be >= 1, got {self.count}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must be in (0, 1), got {self.alpha}")


# --- output plumbing ---------------------------------------------------------


def _fmt_float(x: float) -> str:
    return format(float(x), ".12g")


def _jsonable(obj):
    """Convert to plain JSON types, rounding floats to 12 significant digits."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_fmt_float(obj))
    return obj


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    body = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    _emit(body + "\n", out)


def _emit_csv(header, rows, out: Optional[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [_fmt_float(v) if isinstance(v, (float, np.floating)) else v for v in row]
        )
    _emit(buf.getvalue(), out)


def _flatten(payload: dict, prefix: str = ""):
    """Depth-first key,value rows for CSV emission of report payloads."""
    for key in sorted(payload):
        val = payload[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            yield from _flatten(val, prefix=f"{name}.")
        elif isinstance(val, (list, tuple, np.ndarray)):
            for idx, item in enumerate(val):
                if isinstance(item, dict):
                    yield from _flatten(item, prefix=f"{name}.{idx}.")
                else:
                    yield (f"{name}.{idx}", item)
        else:
            yield (name, val)


def _emit_report(payload: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        _emit_json(payload, out)
    else:
        rows = [
            (k, _fmt_float(v) if isinstance(v, (float, np.floating)) else v)
            for k, v in _flatten(_jsonable(payload))
        ]
        _emit_csv(("key", "value"), rows, out)


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


def _law_name(law: DigitLaw) -> str:
    return repr(law)


# --- law command --------------------------------------------------------------


def _build_law(args) -> DigitLaw:
    base = args.base
    kind = args.law
    needs_k = kind == "power"
    needs_n = kind.startswith("sphere-")
    if args.k is not None and not needs_k:
        raise DomainError(f"--k is only valid with --law power, not {kind}")
    if args.n is not None and not needs_n:
        raise DomainError(f"--n is only valid with the sphere laws, not {kind}")
    if needs_k and args.k is None:
        raise DomainError("--law power requires --k")
    if needs_n and args.n is None:
        raise DomainError(f"--law {kind} requires --n")
    if kind == "benford":
        return Benford(base)
    if kind == "uniform":
        return UniformSignificand(base)
    if kind == "power":
        return Benford(base) if args.k == 1.0 else PowerLaw(base, args.k)
    if kind == "sphere-exact":
        return SphereExact(base=base, n=args.n)
    if kind == "sphere-erf":
        from .sphere import SphereErf

        return SphereErf(base=base, n=args.n)
    if kind == "sphere-limit":
        return SphereLimit(base=base, n=args.n)
    raise DomainError(f"unknown law {kind!r}")  # pragma: no cover


def _cmd_law(args) -> int:
    law = _build_law(args)
    base = args.base
    grid = np.array([1.0 + (j * (base - 1)) / _GRID_POINTS for j in range(1, _GRID_POINTS + 1)])
    cdf = np.asarray(law.cdf(grid), dtype=float)
    density = np.asarray(law.density(grid), dtype=float)
    digit_probs = np.asarray(law.first_digit_probs(), dtype=float)
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": "law",
            "law": _law_name(law),
            "base": base,
            "grid": grid,
            "cdf": cdf,
            "density": density,
            "digit_masses": {str(d + 1): digit_probs[d] for d in range(base - 1)},
        }
        _emit_json(payload, args.out)
    else:
        rows = [("cdf", _fmt_float(s), v) for s, v in zip(grid, cdf)]
        rows += [("density", _fmt_float(s), v) for s, v in zip(grid, density)]
        rows += [("digit_mass", str(d + 1), digit_probs[d]) for d in range(base - 1)]
        _emit_csv(("quantity", "arg", "value"), rows, args.out)
    return 0


# --- sample command -----------------------------------------------------------


def _shard_sizes(total: int, workers: int):
    quotient, remainder = divmod(total, workers)
    return [quotient + (1 if w < remainder else 0) for w in range(workers)]


def _collect(generate, stream: RngStream, total: int, chunk: int) -> np.ndarray:
    parts = []
    remaining = total
    while remaining > 0:
        c = min(chunk, remaining)
        parts.append(np.asarray(generate(stream, c), dtype=float).reshape(c))
        remaining -= c
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _sample_plan(args):
    """Return (generate(stream, count) -> component values, predicted law,
    per-call chunk size, metadata dict) for the requested group."""
    base = args.base
    group = args.group
    spec = samplers.WindowSpec(eps=args.eps, m=args.m)
    meta = {"group": group, "base": base, "window_m": args.m, "window_eps": args.eps}
    if group == "rplus":
        law = Benford(base)
        return (
            lambda st, c: samplers.sample_log_uniform(base, args.m, st, c),
            law,
            _SCALAR_CHUNK,
            meta,
        )
    if group == "power":
        if args.k is None:
            raise DomainError("--group power requires --k")
        law = Benford(base) if args.k == 1.0 else PowerLaw(base, args.k)
        meta["k"] = args.k
        return (
            lambda st, c: samplers.sample_power_density(base, args.k, args.m, st, c),
            law,
            _SCALAR_CHUNK,
            meta,
        )
    n = args.n
    if group == "sphere":
        law = SphereExact(base=base, n=n)
        meta["n"] = n
        return (
            lambda st, c: samplers.sample_sphere_coords(n, 1, st, c)[:, 0],
            law,
            _SCALAR_CHUNK,
            meta,
        )
    entry = _parse_entry(args.entry, n)
    i, j = entry
    meta["n"] = n
    meta["entry"] = f"{i + 1},{j + 1}"
    matrix_chunk = max(1, _MATRIX_CHUNK_SCALARS // (n * n))
    if group == "triangular":
        law = samplers.triangular_component_law(n, base, i, j, args.side)
        meta["side"] = args.side

        def gen(st, c):
            return samplers.sample_upper_triangular_window(
                n, base, spec, args.side, st, c
            ).matrices[:, i, j]

        return gen, law, matrix_chunk, meta
    if group == "diagonal":
        if i != j:
            raise DomainError("--group diagonal: --entry must be on the diagonal")
        meta["det_one"] = bool(args.det_one)
        law = Benford(base)

        def gen(st, c):
            return samplers.sample_diagonal_window(
                n, base, args.m, st, c, det_one=args.det_one
            )[:, i]

        return gen, law, matrix_chunk, meta
    if group == "sln":
        if i != j:
            raise DomainError(
                "--group sln: only diagonal components carry a predicted law; "
                "use --entry i,i"
            )
        meta["component"] = args.component
        law = Benford(base)

        def gen(st, c):
            sample = samplers.sample_sln_lud_window(n, base, spec, st, c)
            if args.component == "dfactor":
                return sample.diag[:, i]
            return sample.g[:, i, i]

        return gen, law, matrix_chunk, meta
    if group == "gln-det":
        law = Benford(base)

        def gen(st, c):
            return samplers.sample_gln_pos_window(n, base, args.m, spec, st, c).det

        return gen, law, matrix_chunk, meta
    if group == "orthogonal":
        law = SphereExact(base=base, n=n - 1)

        def gen(st, c):
            return samplers.sample_orthogonal_haar(n, st, c)[:, i, j]

        return gen, law, matrix_chunk, meta
    if group == "unitary":
        law = SphereExact(base=base, n=2 * n - 1)

        def gen(st, c):
            return samplers.sample_unitary_haar(n, st, c)[:, i, j].real

        return gen, law, matrix_chunk, meta
    raise DomainError(f"unknown group {group!r}")  # pragma: no cover


def _cmd_sample(args) -> int:
    config = RunConfig(
        base=args.base,
        seed=_resolve_seed(args.seed),
        count=args.N,
        fmt=args.format,
        out=args.out,
        workers=args.workers,
        alpha=args.alpha,
    )
    generate, law, chunk, meta = _sample_plan(args)
    root = RngStream(config.seed)
    values = np.concatenate(
        [
            _collect(generate, root.substream(w), size, chunk)
            for w, size in enumerate(_shard_sizes(config.count, config.workers))
            if size > 0
        ]
    )
    empirical = build_empirical(values, config.base)
    ks = ks_test(empirical, law, alpha=config.alpha)
    reports = {"ks": ks.to_dict()}
    try:
        chi2 = chi_square_first_digit(empirical, law, alpha=config.alpha)
        reports["chi2_first_digit"] = chi2.to_dict()
        all_passed = ks.passed and chi2.passed
    except DomainError as exc:
        reports["chi2_first_digit"] = {"skipped": str(exc)}
        all_passed = ks.passed
    payload = {
        "schema": 1,
        "command": "sample",
        "seed": config.seed,
        "workers": config.workers,
        "N": config.count,
        "alpha": config.alpha,
        "law": _law_name(law),
        "n_rejected": empirical.n_rejected,
        "digit_freqs": empirical.digit_freqs(),
        "predicted_digit_freqs": np.asarray(law.first_digit_probs(), dtype=float),
        "tests": reports,
        "pass": bool(all_passed),
        **meta,
    }
    _emit_report(payload, config.fmt, config.out)
    if args.samples_out is not None:
        _emit_csv(
            ("significand",),
            [(float(v),) for v in empirical.values],
            args.samples_out,
        )
    return 0 if all_passed else 1


# --- fig1 command --------------------------------------------------------------


def _cmd_fig1(args) -> int:
    config = RunConfig(
        base=args.base,
        seed=_resolve_seed(args.seed),
        count=args.N,
        fmt=args.format,
        out=args.out,
        workers=args.workers,
    )
    dims = _parse_dims(args.dims)
    base = config.base
    root = RngStream(config.seed)
    rows = []
    for dim in dims:
        dim_stream = root.substream(dim)
        values = np.concatenate(
            [
                _collect(
                    lambda st, c: samplers.sample_sphere_coords(dim, 1, st, c)[:, 0],
                    dim_stream.substream(w),
                    size,
                    _SCALAR_CHUNK,
                )
                for w, size in enumerate(_shard_sizes(config.count, config.workers))
                if size > 0
            ]
        )
        freqs = build_empirical(values, base).digit_freqs()
        predicted = np.asarray(SphereLimit(base=base, n=dim).first_digit_probs())
        for digit in range(1, base):
            rows.append((dim, digit, float(freqs[digit - 1]), float(predicted[digit - 1])))
    if config.fmt == "json":
        payload = {
            "schema": 1,
            "command": "fig1",
            "base": base,
            "seed": config.seed,
            "workers": config.workers,
            "N": config.count,
            "rows": [
                {
                    "dimension": d,
                    "digit": dg,
                    "mc_freq": mc,
                    "predicted_freq": pred,
                }
                for d, dg, mc, pred in rows
            ],
        }
        _emit_json(payload, config.out)
    else:
        _emit_csv(("dimension", "digit", "mc_freq", "predicted_freq"), rows, config.out)
    return 0


# --- verify command -------------------------------------------------------------


def _random_ud(stream: RngStream, n: int):
    mags = np.exp(np.asarray(stream.uniform(-2.0 * math.log(10.0), 2.0 * math.log(10.0), n)))
    signs = np.where(np.asarray(stream.random(n)) < 0.5, -1.0, 1.0)
    d = mags * signs
    u = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            u[i, j] = stream.uniform(-3.0, 3.0)
    return u, d


def _verify_adjoint(stream: RngStream, draws: int = 100):
    checks = []
    for n in range(2, 6):
        sub = stream.substream(n)
        worst_product = 0.0
        worst_u_dependence = 0.0
        failure = None
        for _ in range(draws):
            u, d = _random_ud(sub, n)
            try:
                det_u = adjoint_det_on_u(d, u)
                det_l = adjoint_det_on_l(d, u)
                det_l_identity = adjoint_det_on_l(d)
            except ConsistencyError as exc:
                failure = str(exc)
                break
            worst_product = max(worst_product, abs(det_u * det_l - 1.0))
            worst_u_dependence = max(
                worst_u_dependence,
                abs(det_l - det_l_identity) / max(abs(det_l_identity), 1e-300),
            )
        detail = {
            "n": n,
            "draws": draws,
            "max_product_residual": worst_product,
            "max_u_dependence": worst_u_dependence,
            "threshold": 1e-9,
        }
        if failure is not None:
            detail["error"] = failure
        checks.append(
            {
                "name": f"adjoint_product_n{n}",
                "passed": failure is None
                and worst_product < 1e-9
                and worst_u_dependence < 1e-9,
                "detail": detail,
            }
        )
    return checks


def _verify_cone(stream: RngStream, eps: float, trials: int):
    checks = []
    ratios = [
        sl2_cone_volume(ConeProblem(x, eps)) / math.log(x) for x in (2.0, 5.0, 10.0)
    ]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    checks.append(
        {
            "name": "cone_log_slope_constant",
            "passed": spread < 1e-9,
            "detail": {
                "ratios": ratios,
                "relative_spread": spread,
                "threshold": 1e-9,
            },
        }
    )
    problem = ConeProblem(10.0, eps)
    analytic = sl2_cone_volume(problem)
    mc = sl2_cone_volume_mc(problem, stream.substream(1), trials)
    gap = abs(mc.estimate - analytic) / analytic
    checks.append(
        {
            "name": "cone_volume_mc",
            "passed": gap < 0.02,
            "detail": {
                "x": problem.x,
                "eps": eps,
                "trials": trials,
                "analytic": analytic,
                "mc_estimate": mc.estimate,
                "mc_stderr": mc.stderr,
                "relative_gap": gap,
                "threshold": 0.02,
            },
        }
    )
    base = 10
    grid = np.array([1.0 + (j * (base - 1)) / _GRID_POINTS for j in range(1, _GRID_POINTS + 1)])
    induced = np.asarray(sl2_cone_induced_cdf(grid, eps, base))
    benford = np.log(grid) / math.log(base)
    sup_gap = float(np.abs(induced - benford).max())
    checks.append(
        {
            "name": "cone_induced_cdf_is_benford",
            "passed": sup_gap < 1e-9,
            "detail": {"sup_gap": sup_gap, "threshold": 1e-9, "grid_points": len(grid)},
        }
    )
    a, b = 0.5, 4.0
    area = hyperbolic_cone_area(a, b)
    area_mc = hyperbolic_cone_area_mc(a, b, stream.substream(2), trials)
    area_gap = abs(area_mc.estimate - area) / area
    checks.append(
        {
            "name": "hyperbolic_area_mc",
            "passed": area_gap < 0.02,
            "detail": {
                "a": a,
                "b": b,
                "trials": trials,
                "analytic": area,
                "mc_estimate": area_mc.estimate,
                "mc_stderr": area_mc.stderr,
                "relative_gap": area_gap,
                "threshold": 0.02,
            },
        }
    )
    return checks


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    root = RngStream(seed)
    checks = []
    if args.suite in ("adjoint", "all"):
        checks.extend(_verify_adjoint(root.substream(0)))
    if args.suite in ("cone", "all"):
        checks.extend(_verify_cone(root.substream(1), args.eps, args.trials))
    all_passed = all(c["passed"] for c in checks)
    payload = {
        "schema": 1,
        "command": "verify",
        "suite": args.suite,
        "seed": seed,
        "checks": checks,
        "pass": all_passed,
    }
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        rows = [
            (c["name"], str(bool(c["passed"])).lower())
            + tuple(
                f"{k}={_fmt_float(v) if isinstance(v, float) else v}"
                for k, v in sorted(c["detail"].items())
                if not isinstance(v, (list, tuple, np.ndarray))
            )
            for c in checks
        ]
        rows = [(name, ok, ";".join(rest)) for (name, ok, *rest) in rows]
        _emit_csv(("check", "passed", "detail"), rows, args.out)
    return 0 if all_passed else 1


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
        choices=("benford", "power", "uniform", "sphere-exact", "sphere-erf", "sphere-limit"),
    )
    p_law.add_argument("--k", type=float, default=None, help="power-law exponent")
    p_law.add_argument("--n", type=int, default=None, help="sphere dimension (S^n)")
    p_law.set_defaults(handler=_cmd_law)

    p_sample = sub.add_parser(
        "sample", help="sample one group component and test its significand law"
    )
    common(p_sample)
    p_sample.add_argument("--workers", type=int, default=1, help="Monte Carlo shards")
    p_sample.add_argument("--group", required=True, choices=_GROUPS)
    p_sample.add_argument("--N", type=int, default=100_000, help="sample count")
    p_sample.add_argument("--n", type=int, default=3, help="matrix size / sphere dimension")
    p_sample.add_argument("--k", type=float, default=None, help="power-density exponent")
    p_sample.add_argument("--m", type=int, default=3, help="window decades [1, B^m)")
    p_sample.add_argument("--eps", type=float, default=1.0, help="unipotent box half-width")
    p_sample.add_argument("--entry", default="1,1", help="matrix entry, 1-based 'row,col'")
    p_sample.add_argument("--side", choices=("left", "right"), default="left")
    p_sample.add_argument(
        "--component",
        choices=("dfactor", "matrix"),
        default="dfactor",
        help="sln: test the diagonal-factor entry or the matrix entry",
    )
    p_sample.add_argument("--det-one", action="store_true", help="diagonal: force det = 1")
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
    p_verify.add_argument("--suite", choices=("adjoint", "cone", "all"), default="all")
    p_verify.add_argument("--eps", type=float, default=0.1, help="cone box half-width")
    p_verify.add_argument(
        "--trials", type=int, default=1_000_000, help="Monte Carlo trials per cone check"
    )
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
