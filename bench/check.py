"""Correctness checks on the output of one haar-digits CLI invocation.

Each check returns a list of failure messages; an empty list means the
invocation passed. Determinism across passes is checked by the harness,
which compares digests of stdout and output files between passes run with
the same seed. No frozen digest is kept: output bytes may change between
commits on purpose, but never between two runs of one commit.
"""

from __future__ import annotations

import csv
import io
import json
import math

FIG1_ALPHA = 1e-6  # per-dimension chi-square level; passes repeat thousands of times
MASS_TOL = 1e-9


def chi2_sf(stat: float, dof: int) -> float:
    """Upper tail of the chi-square law, Q(dof/2, stat/2), in closed form."""
    h = 0.5 * stat
    if h <= 0.0:
        return 1.0
    if dof % 2 == 0:
        term = total = 1.0
        for i in range(1, dof // 2):
            term *= h / i
            total += term
        return math.exp(-h) * total
    term = 2.0 * math.sqrt(h / math.pi)
    total = 0.0
    for i in range(dof // 2):
        total += term
        term *= h / (i + 1.5)
    return math.erfc(math.sqrt(h)) + math.exp(-h) * total


def _json(stdout: bytes):
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _csv_report(stdout: bytes) -> dict:
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
    return {row[0]: row[1] for row in rows[1:] if len(row) == 2}


def check_sample(stdout: bytes, fmt: str, samples: bytes | None = None) -> list:
    if fmt == "json":
        payload, errors = _json(stdout)
        if errors:
            return errors
        passed = payload.get("pass") is True
        base, n_kept = payload.get("base"), payload.get("N", 0) - payload.get("n_rejected", 0)
    else:
        report = _csv_report(stdout)
        passed = report.get("pass") == "True"
        try:
            base = int(report["base"])
            n_kept = int(report["N"]) - int(report["n_rejected"])
        except (KeyError, ValueError):
            return ["CSV report lacks base, N or n_rejected"]
    errors = [] if passed else ["sample reports pass != true"]
    if samples is not None:
        errors += _check_samples_file(samples, base, n_kept)
    return errors


def _check_samples_file(data: bytes, base: int, n_kept: int) -> list:
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if not lines or lines[0] != b"significand":
        return ["samples file lacks the 'significand' header"]
    if len(lines) - 1 != n_kept:
        return [f"samples file has {len(lines) - 1} rows, expected {n_kept}"]
    lo, hi = float(lines[1]), float(lines[-1])
    if not (1.0 <= lo <= hi < base):
        return [f"samples file range [{lo}, {hi}] not sorted within [1, {base})"]
    return []


def check_law(stdout: bytes) -> list:
    payload, errors = _json(stdout)
    if errors:
        return errors
    cdf = payload.get("cdf") or []
    masses = list((payload.get("digit_masses") or {}).values())
    if not cdf or any(b < a for a, b in zip(cdf, cdf[1:])):
        errors.append("law CDF grid is not monotone")
    if any(not 0.0 <= v <= 1.0 for v in cdf):
        errors.append("law CDF leaves [0, 1]")
    if not masses or any(m < 0.0 for m in masses) or abs(sum(masses) - 1.0) > MASS_TOL:
        errors.append(f"law digit masses do not sum to 1 (sum {sum(masses)!r})")
    return errors


def check_verify(stdout: bytes) -> list:
    payload, errors = _json(stdout)
    if errors:
        return errors
    if payload.get("pass") is not True or not payload.get("checks"):
        errors.append("verify reports pass != true")
    return errors


def check_fig1(stdout: bytes, dims, reference) -> list:
    """Frequencies per dimension against reference(base, dim), the exact
    first-digit masses, by a chi-square test at FIG1_ALPHA."""
    payload, errors = _json(stdout)
    if errors:
        return errors
    base, count = payload.get("base"), payload.get("N")
    by_dim = {}
    for row in payload.get("rows", []):
        by_dim.setdefault(row["dimension"], {})[row["digit"]] = row["mc_freq"]
    if sorted(by_dim) != sorted(dims):
        return [f"fig1 dimensions {sorted(by_dim)} != requested {sorted(dims)}"]
    for dim, freqs in sorted(by_dim.items()):
        if sorted(freqs) != list(range(1, base)):
            errors.append(f"fig1 n={dim}: digits {sorted(freqs)} != 1..{base - 1}")
            continue
        observed = [freqs[d] for d in range(1, base)]
        if abs(sum(observed) - 1.0) > MASS_TOL:
            errors.append(f"fig1 n={dim}: frequencies sum to {sum(observed)!r}")
            continue
        expected = reference(base, dim)
        stat = sum(count * (o - e) ** 2 / e for o, e in zip(observed, expected))
        p = chi2_sf(stat, base - 2)
        if p < FIG1_ALPHA:
            errors.append(f"fig1 n={dim}: chi2={stat:.2f}, p={p:.2e} against the exact law")
    return errors
