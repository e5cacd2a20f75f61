"""End-to-end benchmark of the haar-digits CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is loaded from
``src/`` with no install step. One client runs the workload's CLI
invocations back to back, one child process at a time (a closed loop with
a single client), and repeats the whole pass until S seconds have been
measured, stopping at the pass boundary nearest to S. Every invocation is
checked for correctness (see check.py).

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:
``wall_s`` and ``cpu_s`` per pass, ``setup_s`` (a fresh interpreter
importing the package and evaluating every law the workload predicts),
``peak_rss_mb`` (the largest single-process peak in a pass) and
``pass_ratio`` (invocations that passed every check over those attempted).
``wall_s`` and ``cpu_s`` are means over the passes: on a shared host the
CPU speed can switch between levels far apart for tens of seconds at a
time, and a median of a handful of passes snaps to one level where the mean
follows the share of time spent at each. ``setup_s`` is the median of the
set-up repeats. With ``--trace 1`` untraced and traced passes alternate and
the line reports the per-layer metrics that tracer.py collects, plus the
tracing overhead.

The line before it records the machine, the library versions and the seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import check

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 3  # set-ups per run at least; cheap ones repeat until SETUP_S has passed
SETUP_S = 3.0
MIN_PASSES = 2  # determinism is checked between passes
WARM_SIZE = 200  # sample count of the warm-up pass (no law interpolant is built)
BUDGET_S = 165.0  # hard stop for one benchmark run
FIG1_DIMS = (100, 200, 500, 10000, 20000, 50000)


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``N`` is its sample count at scale 1, if it takes one."""

    kind: str  # sample | law | fig1 | verify
    args: tuple
    N: int | None = None
    fmt: str = "json"
    samples_out: bool = False

    def argv(self, seed: int, N: int | None, workdir: Path) -> list:
        argv = list(self.args)
        if self.kind != "law":
            argv += ["--seed", str(seed)]
        if N is not None:
            argv += ["--N", str(N)]
        if self.fmt != "json":
            argv += ["--format", self.fmt]
        if self.samples_out:
            argv += ["--samples-out", str(workdir / "samples.csv")]
        return argv


@dataclass(frozen=True)
class Workload:
    why: str
    invocations: tuple
    laws: tuple  # (class name, kwargs) of every law the invocations predict


def _sample(*args, N, workers, **kw):
    return Invocation("sample", ("sample", *args, "--workers", str(workers)), N, **kw)


WORKLOADS = {
    "sphere-verify": Workload(
        why="law-bound: each run builds a cold exact sphere law by quadrature",
        invocations=(
            _sample("--group", "sphere", "--n", "9", N=200_000, workers=1),
            _sample("--group", "orthogonal", "--n", "4", N=100_000, workers=1),
            _sample("--group", "unitary", "--n", "3", N=100_000, workers=1),
            Invocation("law", ("law", "--law", "sphere-exact", "--n", "9")),
        ),
        laws=(
            ("SphereExact", {"base": 10, "n": 9}),
            ("SphereExact", {"base": 10, "n": 3}),
            ("SphereExact", {"base": 10, "n": 5}),
        ),
    ),
    "windowed-mc": Workload(
        why="sampling-bound with closed-form and limit laws: RNG, matrix windows, significands, "
        "stats, lie, Gaussian and gamma sampling, bulk CSV output",
        invocations=(
            _sample("--group", "rplus", N=2_000_000, workers=2),
            _sample("--group", "power", "--k", "2", "--base", "7", N=2_000_000, workers=2),
            _sample("--group", "triangular", "--n", "4", "--entry", "1,2", N=500_000, workers=2),
            _sample("--group", "diagonal", "--det-one", N=1_000_000, workers=2),
            _sample("--group", "sln", N=500_000, workers=2),
            _sample("--group", "gln-det", N=500_000, workers=2),
            Invocation("verify", ("verify", "--suite", "all", "--trials", "1000000")),
            Invocation("fig1", ("fig1", "--dims", ",".join(map(str, FIG1_DIMS))), 1_000_000),
            _sample("--group", "rplus", N=1_000_000, workers=1, fmt="csv", samples_out=True),
        ),
        laws=(
            ("Benford", {"base": 10}),
            ("PowerLaw", {"base": 7, "k": 2.0}),
            ("UniformSignificand", {"base": 10}),
        )
        + tuple(("SphereLimit", {"base": 10, "n": d}) for d in FIG1_DIMS),
    ),
}

LAYER_UNITS = {
    "rng.busy_s": "s",
    "rng.words": "count",
    "rng.normal_yield": "ratio",
    "rng.gamma_yield": "ratio",
    "samplers.busy_s": "s",
    "samplers.items": "count",
    "samplers.calls": "count",
    "significand.busy_s": "s",
    "significand.values": "count",
    "stats.busy_s": "s",
    "laws.cdf_s": "s",
    "sphere.build_s": "s",
    "sphere.cdf_s": "s",
    "sphere.scalar_cdf_calls": "count",
    "specfun.busy_s": "s",
    "specfun.quad_calls": "count",
    "lie.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class Pass:
    """One run of every invocation of a workload, in order."""

    children: list = field(default_factory=list)
    bytes_out: int = 0
    failed: int = 0
    traces: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)


class Runner:
    """Spawns hermetic children and checks their output."""

    def __init__(self, root: Path, workdir: Path, seed: int, deadline: float):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.deadline = deadline
        self.digests = {}
        env = dict(os.environ)
        for var in ("HAAR_DIGITS_SEED", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
            env.pop(var, None)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        env["OPENBLAS_NUM_THREADS"] = str(nproc())
        self.env = env

    def spawn(self, cmd: list) -> Child:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Child(-1, 0.0, 0.0, 0.0, b"", b"benchmark time budget exhausted")
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            out_path.read_bytes(),
            err_path.read_bytes(),
        )

    def run_pass(self, workload: Workload, scale: float, traced=False, warm=False) -> Pass:
        result = Pass()
        for index, inv in enumerate(workload.invocations):
            size = None if inv.N is None else WARM_SIZE if warm else max(1, round(inv.N * scale))
            samples = self.workdir / "samples.csv"
            samples.unlink(missing_ok=True)
            argv = inv.argv(self.seed, size, self.workdir)
            if traced:
                trace_path = self.workdir / "trace.json"
                trace_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "haar_digits", *argv]
            child = self.spawn(cmd)
            if warm:
                continue
            files = samples.read_bytes() if inv.samples_out and samples.exists() else None
            errors = self.check(index, inv, child, files)
            result.children.append(child)
            result.failed += bool(errors)
            for msg in errors:
                print(f"FAIL {' '.join(argv)}: {msg}", file=sys.stderr)
            result.bytes_out += len(child.stdout) + len(files or b"")
            if traced and trace_path.exists():
                result.traces.append(json.loads(trace_path.read_text()))
        return result

    def check(self, index: int, inv: Invocation, child: Child, files: bytes | None) -> list:
        if child.returncode != 0:
            tail = child.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            return [f"exit code {child.returncode}: {' | '.join(tail)}"]
        if inv.kind == "sample":
            errors = check.check_sample(child.stdout, inv.fmt, files)
        elif inv.kind == "law":
            errors = check.check_law(child.stdout)
        elif inv.kind == "verify":
            errors = check.check_verify(child.stdout)
        else:
            errors = check.check_fig1(child.stdout, FIG1_DIMS, fig1_reference)
        digest = hashlib.sha256(child.stdout + b"\0" + (files or b"")).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            errors.append("output differs from the first pass with the same seed")
        return errors

    def setup(self, workload: Workload) -> Child:
        """Time a fresh interpreter's import and first evaluation of each law."""
        child = self.spawn([sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(workload.laws)])
        if child.returncode != 0:
            print(f"FAIL setup probe: {child.stderr.decode('utf-8', 'replace')}", file=sys.stderr)
        return child


@functools.cache
def fig1_reference(base: int, dim: int) -> list:
    """Exact first-digit masses of a sphere coordinate, from the checkout's package."""
    from haar_digits import SphereExact

    return [float(p) for p in SphereExact(base=base, n=dim).first_digit_probs()]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_info(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout differs across NumPy versions
        openblas = "unknown"
    return {
        "seed": seed,
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "openblas_threads": nproc(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": round(value) if unit in ("count", "bytes") else float(value), "unit": unit}


def _layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass (sums over its invocations)."""
    total, missing = Counter(), set()
    for tr in p.traces:
        total.update(tr["counters"])
        missing.update(tr["missing"])
    out = {name: total[name] for name in LAYER_UNITS}
    # A ratio whose base is zero (no variates of that kind drawn) reads 0.
    words, candidates = total["rng.normal_words"], total["rng.gamma_candidates"]
    out["rng.normal_yield"] = total["rng.normals"] / words if words else 0.0
    out["rng.gamma_yield"] = total["rng.gammas"] / candidates if candidates else 0.0
    out["cli.bytes_out"] = p.bytes_out
    return {k: v for k, v in out.items() if k not in missing}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 scale: float = 1.0, setup_reps: int = SETUP_REPS) -> dict:
    """Run one benchmark and return the result object."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=root))
    try:
        runner = Runner(root, workdir, seed, start + BUDGET_S)
        runner.run_pass(workload, scale, warm=True)
        setups = []
        t0 = time.monotonic()
        while not trace and (len(setups) < setup_reps or time.monotonic() - t0 < SETUP_S):
            setups.append(runner.setup(workload))
        plain, traced = [], []
        t0 = time.monotonic()
        while True:
            elapsed = time.monotonic() - t0
            enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
            if enough and elapsed + 0.5 * elapsed / len(plain + traced) >= seconds:
                break
            last = max([p.wall_s for p in plain + traced] or [0.0])
            if plain and time.monotonic() + 1.5 * last > start + BUDGET_S:
                print("benchmark time budget reached; stopping early", file=sys.stderr)
                break
            if trace and len(traced) < len(plain):
                traced.append(runner.run_pass(workload, scale, traced=True))
            else:
                plain.append(runner.run_pass(workload, scale))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = plain + traced
    attempted = sum(len(p.children) for p in passes) + len(setups)
    failed = sum(p.failed for p in passes) + sum(c.returncode != 0 for c in setups)
    if trace and not traced:
        failed += 1  # the budget ran out before a traced pass: nothing to report
        metrics = {}
    elif trace:
        layer = [_layer_metrics(p) for p in traced]
        metrics = {k: _metric(statistics.median(m[k] for m in layer), LAYER_UNITS[k]) for k in layer[0]}
        metrics["trace.overhead_s"] = _metric(
            statistics.fmean(p.wall_s for p in traced) - statistics.fmean(p.wall_s for p in plain), "s"
        )
    else:
        metrics = {
            "wall_s": _metric(statistics.fmean(p.wall_s for p in plain), "s"),
            "cpu_s": _metric(statistics.fmean(p.cpu_s for p in plain), "s"),
            "setup_s": _metric(statistics.median(c.wall_s for c in setups), "s"),
            "peak_rss_mb": _metric(statistics.median(max(c.maxrss_mb for c in p.children) for p in plain), "MiB"),
            "pass_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
    info = machine_info(seed)
    info.update(workload=name, trace=int(trace), passes=len(plain), traced_passes=len(traced),
                setup_reps=len(setups), seconds=seconds)
    return {
        "info": info,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "haar_digits" / "cli.py").is_file():
        print(f"error: no haar_digits source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps({"info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
