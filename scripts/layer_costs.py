#!/usr/bin/env python3
"""In-process cost of each layer a haar-digits run is built from.

Times every layer below on fixed seeded inputs, best of --repeats calls,
and reports milliseconds per 10^6 items. One more call, traced by
tracemalloc, gives the layer's peak memory in bytes per item, its output
included. An item is a word, deviate, value or row; for the Haar samplers
it is a matrix (one entry of it for the entry reads), and those draw
--items / 10 matrices a call to keep the memory small. The large-n entry
reads, O(100) at (1,1) and (1,100) and U(20) at (3,2) (1-based, as `sample
--entry` takes them), draw 1,000 values a call whatever --items is: a read
of the last column costs about 0.13 ms a value at O(100). The one-entry read
of a 1000 x 1000 triangular window draws the CLI's block at that n, 16
values a call, so its row is what `sample` pays per value. The sphere
coordinate rows at n = 9 and n = 50000 show what a coordinate costs at
`sample --group sphere` and at `fig1`'s largest dimension. For the SL_2
cone's rejection Monte Carlo, the one draw of `verify --suite cone`, an
item is a trial (a point of the bounding box). The table goes to
stdout and, with --out, the same numbers go to that path as JSON
(BENCH_layers.json by convention), together with the machine and the
library versions. Run it on two checkouts to compare them.

A start-up section follows: for fresh `python -c "import numpy"` and
`python -c "import haar_digits.cli"` processes, launched alternately, the
best wall time of --repeats, the best CPU time (ru_utime + ru_stime, which counts OpenBLAS
workers that spin while idle) and the peak RSS (ru_maxrss), and the modules
the second imports beyond the first, a list that does not vary from run to
run. The processes get the caller's environment: OPENBLAS_THREAD_TIMEOUT is
unset in the first unless the caller set it, and the second sets its own
default.

A source section ends the report: for each module of src/haar_digits and in
total, its lines and its code lines, those that are not blank, not only a
comment and not part of a docstring. It too does not vary from run to run.

Usage:
    PYTHONPATH=src python scripts/layer_costs.py --out BENCH_layers.json
"""

import argparse
import ast
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

# The start-up processes' environment, taken before importing haar_digits
# sets a default OPENBLAS_THREAD_TIMEOUT in this one.
_CALLER_ENV = dict(os.environ)

from haar_digits import cli, samplers  # noqa: E402
from haar_digits.lie import ConeProblem, sl2_cone_volume_mc  # noqa: E402
from haar_digits.rng import RngStream  # noqa: E402
from haar_digits.significand import significand_values  # noqa: E402
from haar_digits.sphere import SphereExact  # noqa: E402
from haar_digits.stats import build_empirical, ks_test  # noqa: E402


_LARGE_N_READS = 1000  # values a call of each large-n Haar entry read


def _layers(items: int, seed: int, workdir: str):
    """(name, item count, zero-argument call) for every layer."""
    rng = RngStream(seed)
    raw = samplers.sample_log_uniform(10, 3, RngStream(seed + 1), items)
    empirical = build_empirical(raw, 10)
    # A coordinate of S^9 that no haar_digits sampler draws: the KS sweep's
    # work depends on the sample, so a sampler's byte change must not move it.
    # z / sqrt(z^2 + chi^2_9), z standard normal, has the law of the first
    # coordinate of a normalized 10-dimensional Gaussian.
    gen = np.random.default_rng(seed + 2)
    z = gen.standard_normal(items)
    sphere = build_empirical(z / np.sqrt(z * z + gen.chisquare(9, items)), 10)
    law = SphereExact(base=10, n=9)
    law.cdf(np.linspace(1.0, 10.0, 99))  # warm: ks_test times the test, not the set-up
    matrices = max(1, items // 10)
    reads = cli._MATRIX_CHUNK_SCALARS // 1000**2
    spec = samplers.WindowSpec()
    path = os.path.join(workdir, "samples.csv")
    return [
        ("raw", items, lambda: rng.raw(items)),
        ("random", items, lambda: rng.random(items)),
        ("normal", items, lambda: rng.normal(items)),
        ("gamma(49.5)", items, lambda: rng.gamma(49.5, items)),
        ("sample_sphere_coords(9, 1)", items,
         lambda: samplers.sample_sphere_coords(9, 1, rng, items)),
        ("sample_sphere_coords(50000, 1)", items,
         lambda: samplers.sample_sphere_coords(50000, 1, rng, items)),
        ("significand_values", items, lambda: significand_values(raw, 10)),
        ("build_empirical", items, lambda: build_empirical(raw, 10).values),  # sorted
        ("ks_test (warm SphereExact(10, 9))", items, lambda: ks_test(sphere, law)),
        ("sample_orthogonal_haar(4)", matrices,
         lambda: samplers.sample_orthogonal_haar(4, rng, matrices)),
        ("sample_unitary_haar(3)", matrices,
         lambda: samplers.sample_unitary_haar(3, rng, matrices)),
        ("sample_orthogonal_entry(4)", matrices,
         lambda: samplers.sample_orthogonal_entry(4, 1, 2, rng, matrices)),
        ("sample_unitary_entry(3)", matrices,
         lambda: samplers.sample_unitary_entry(3, 1, 2, rng, matrices)),
        ("sample_orthogonal_entry(100) (1,1)", _LARGE_N_READS,
         lambda: samplers.sample_orthogonal_entry(100, 0, 0, rng, _LARGE_N_READS)),
        ("sample_orthogonal_entry(100) (1,100)", _LARGE_N_READS,
         lambda: samplers.sample_orthogonal_entry(100, 0, 99, rng, _LARGE_N_READS)),
        ("sample_unitary_entry(20) (3,2)", _LARGE_N_READS,
         lambda: samplers.sample_unitary_entry(20, 2, 1, rng, _LARGE_N_READS)),
        ("sample_triangular_entry(n=1000)", reads,
         lambda: samplers.sample_triangular_entry(1000, 10, spec, "left", 0, 1, rng, reads)),
        ("sample_sln_matrix_entry(3)", items,
         lambda: samplers.sample_sln_matrix_entry(3, 10, spec, 1, 1, rng, items)),
        ("--samples-out writer", items, lambda: cli._write_samples(empirical.values, path)),
        ("fig1 dimension (n=100)", items, lambda: cli._fig1_freqs(rng, 100, items, 10)),
        ("sl2_cone_volume_mc(x=10)", items,
         lambda: sl2_cone_volume_mc(ConeProblem(10.0), rng, items)),
    ]


_STARTUP = ("import numpy", "import haar_digits.cli")
_BEYOND_NUMPY = (
    "import sys, numpy; before = set(sys.modules); import haar_digits.cli; "
    "print(*sorted(set(sys.modules) - before))"
)
# Spawns `python -c code` for each code of argv[2:] in turn, argv[1] rounds
# of them, and prints one line per code: the least wall time, the least CPU
# time and the least ru_maxrss. The codes alternate within a round, so a
# drift in the host's speed reaches each of them alike. It runs in a fresh
# interpreter of its own because a child spawned from this process would
# report this process's peak: the kernel carries the parent's high-water
# mark over a vfork and exec.
_LAUNCHER = """
import os, sys, time
codes = sys.argv[2:]
runs = {code: [] for code in codes}
for _ in range(int(sys.argv[1])):
    for code in codes:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code], os.environ)
        _, status, usage = os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status):
            sys.exit(f"python -c {code!r} failed")
        cpu = usage.ru_utime + usage.ru_stime
        runs[code].append((time.perf_counter() - start, cpu, usage.ru_maxrss))
for code in codes:
    print(*(min(r[i] for r in runs[code]) for i in range(3)))
"""


def _startup(repeats: int) -> dict:
    """The start-up record: each _STARTUP process's best wall and CPU time
    and peak RSS, and the modules importing the CLI loads beyond NumPy's."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, (src, _CALLER_ENV.get("PYTHONPATH"))))
    env = {**_CALLER_ENV, "PYTHONPATH": path}

    def python(*args) -> str:
        return subprocess.run(
            [sys.executable, "-c", *args], env=env, capture_output=True, text=True, check=True
        ).stdout

    record = {}
    rows = python(_LAUNCHER, str(repeats), *_STARTUP).splitlines()
    for code, row in zip(_STARTUP, rows):
        best_s, best_cpu_s, maxrss_kib = row.split()
        record[code] = {
            "best_s": float(best_s),
            "best_cpu_s": float(best_cpu_s),
            "maxrss_mib": int(maxrss_kib) / 1024.0,
        }
    record["modules_beyond_numpy"] = python(_BEYOND_NUMPY).split()
    return record


def _source() -> dict:
    """Lines and code lines of each src/haar_digits module, and their sums.
    Docstrings are found with ast: the leading string of a module, class or
    function body."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    modules = {}
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            text = fh.read()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (
                    isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)
                ):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        lines = text.splitlines()
        code = [
            line
            for number, line in enumerate(lines, start=1)
            if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
        ]
        modules[name] = {"lines": len(lines), "code_lines": len(code)}
    total = {key: sum(m[key] for m in modules.values()) for key in ("lines", "code_lines")}
    return {"modules": modules, "total": total}


def _best(call, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _peak_bytes(call) -> int:
    """The most memory tracemalloc sees allocated during one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=1_000_000, help="items per call")
    parser.add_argument("--repeats", type=int, default=5, help="calls per layer; the best counts")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="also write the numbers here as JSON")
    args = parser.parse_args(argv)
    if args.items < 10 or args.repeats < 1:
        parser.error("--items must be >= 10 and --repeats >= 1")

    layers = {}
    print(f"# best of {args.repeats}, {args.items} items a call, seed {args.seed}")
    print(f"{'layer':36s} {'items':>9s} {'ms per 1e6':>11s} {'peak B/item':>12s}")
    with tempfile.TemporaryDirectory() as workdir:
        for name, count, call in _layers(args.items, args.seed, workdir):
            best = _best(call, args.repeats)
            per_million = best / count * 1e9
            per_item = _peak_bytes(call) / count
            layers[name] = {
                "items": count,
                "best_s": best,
                "ms_per_1e6": per_million,
                "peak_bytes_per_item": per_item,
            }
            print(f"{name:36s} {count:9d} {per_million:11.1f} {per_item:12.1f}")
    startup = _startup(args.repeats)
    print(f"# start-up, best of {args.repeats} fresh processes")
    print(f"{'process':36s} {'ms':>9s} {'CPU ms':>9s} {'peak RSS MiB':>12s}")
    for name in _STARTUP:
        best_ms, cpu_ms = startup[name]["best_s"] * 1e3, startup[name]["best_cpu_s"] * 1e3
        print(f"{name:36s} {best_ms:9.1f} {cpu_ms:9.1f} {startup[name]['maxrss_mib']:12.2f}")
    print("# modules beyond numpy: " + " ".join(startup["modules_beyond_numpy"]))
    source = _source()
    print("# source, src/haar_digits")
    print(f"{'module':36s} {'lines':>9s} {'code lines':>11s}")
    for name, counts in [*source["modules"].items(), ("total", source["total"])]:
        print(f"{name:36s} {counts['lines']:9d} {counts['code_lines']:11d}")
    if args.out is not None:
        record = {
            "machine": f"{platform.machine()}, {os.cpu_count()} cores, {platform.system()}",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "items": args.items,
            "repeats": args.repeats,
            "seed": args.seed,
            "layers": layers,
            "startup": startup,
            "source": source,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
