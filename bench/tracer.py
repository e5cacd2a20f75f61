"""Per-layer tracing of one haar-digits CLI invocation.

Run as ``python3 bench/tracer.py TRACE_OUT -- <haar-digits arguments>``.
Before ``haar_digits.cli.main`` runs, every public function and public
method of each traced module is wrapped in a span, and the wrapper is
installed under every name a caller looks it up by: a function imported
with ``from .stats import build_empirical`` is replaced in ``cli``'s
namespace as well as in ``stats``'s. Nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of its direct child
spans, so nested calls (``gamma`` -> ``normal`` -> ``raw``) are counted once
and a layer's busy time excludes the layers it calls. On exit the layer
counters are written to TRACE_OUT as JSON, and the process exits with the
CLI's return code.

Hooks whose target no longer exists are skipped and listed under
``"missing"``; the harness reports the metrics that depended only on them
as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# The haar_digits modules traced; each one is a layer.
LAYERS = (
    "rng",
    "samplers",
    "significand",
    "stats",
    "laws",
    "sphere",
    "specfun",
    "lie",
    "cli",
)

SCALAR_CDF_FUNCS = ("sphere.sphere_sig_cdf_exact", "sphere.sphere_sig_cdf_erf", "sphere.sphere_limit_cdf")
QUAD_FUNCS = ("specfun.integrate",)
SPHERE_LAW_CDFS = ("sphere.SphereExact.cdf", "sphere.SphereErf.cdf", "sphere.SphereLimit.cdf")
LAW_CDFS = tuple(f"laws.{cls}.cdf" for cls in ("Benford", "PowerLaw", "UniformSignificand", "ProductLaw"))
RAW, NORMAL, GAMMA = "rng.RngStream.raw", "rng.RngStream.normal", "rng.RngStream.gamma"
# The hooks each counter needs: every entry must be hooked, and an entry that
# is a tuple is met by any one of its members. Otherwise the counter is absent.
REQUIRED_HOOKS = {
    "rng.words": (RAW,),
    "rng.normal_yield": (NORMAL, RAW),
    "rng.gamma_yield": (GAMMA, NORMAL),
    "laws.cdf_s": (LAW_CDFS,),
    "sphere.build_s": (SPHERE_LAW_CDFS,),
    "sphere.cdf_s": (SPHERE_LAW_CDFS,),
    "sphere.scalar_cdf_calls": (SCALAR_CDF_FUNCS,),
    "specfun.quad_calls": (QUAD_FUNCS,),
    "cli.self_s": ("cli.main",),
}


def _size(obj) -> int:
    return int(np.size(obj)) if obj is not None else 0


class Tracer:
    """Span stack plus the layer counters the benchmark reports."""

    def __init__(self):
        self.stack = []  # per open span: [seconds covered by child spans]
        self.layer_depth = defaultdict(lambda: [0])  # layer -> open spans
        self.active = defaultdict(lambda: [0])  # span name -> open spans
        self.spans = {}  # name -> [layer, calls, inclusive s, self s]
        self.counts = defaultdict(float)
        self.seen_laws = set()
        self.hooked = set()
        self.layers = []

    # -- span bookkeeping -------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        on_exit = _counter_for(name)
        tracer, stack, clock = self, self.stack, time.perf_counter
        depth, active = self.layer_depth[layer], self.active[name]
        agg = self.spans[name] = [layer, 0, 0.0, 0.0]

        def traced(*args, **kwargs):
            outer = depth[0] == 0
            children = [0.0]
            stack.append(children)
            depth[0] += 1
            active[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] -= 1
                active[0] -= 1
                if stack:
                    stack[-1][0] += dt
                agg[1] += 1
                agg[2] += dt
                agg[3] += dt - children[0]
            if on_exit is not None:
                on_exit(tracer, fn, args, kwargs, result, dt, outer)
            return result

        return functools.wraps(fn)(traced)

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"haar_digits.{layer}")
            except ImportError:
                continue
        self.layers = list(modules)
        namespaces = [m for n, m in sys.modules.items() if n == "haar_digits" or n.startswith("haar_digits.")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{obj.__name__}.{meth}"
                        setattr(obj, meth, self.wrap(layer, name, fn))
                        self.hooked.add(name)
                elif inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self.wrap(layer, name, obj)
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                setattr(ns, key, wrapper)
                    self.hooked.add(name)
        # SphereErf/SphereLimit inherit cdf from a private base; hook each law.
        for name in SPHERE_LAW_CDFS:
            cls = getattr(modules.get("sphere"), name.split(".")[1], None)
            if cls is None or name in self.hooked or not hasattr(cls, "cdf"):
                continue
            setattr(cls, "cdf", self.wrap("sphere", name, cls.cdf))
            self.hooked.add(name)

    def report(self) -> dict:
        """Counters summable across invocations, and the metrics left absent."""

        def met(need):
            return any(n in self.hooked for n in need) if isinstance(need, tuple) else need in self.hooked

        counters = dict(self.counts)
        for layer, _, _, self_s in self.spans.values():
            counters[_busy_name(layer)] = counters.get(_busy_name(layer), 0.0) + self_s
        missing = [m for m, needs in REQUIRED_HOOKS.items() if not all(map(met, needs))]
        missing += [_busy_name(layer) for layer in LAYERS if layer not in self.layers]
        return {"counters": counters, "missing": sorted(missing)}


def _busy_name(layer: str) -> str:
    # The CLI's busy time is what main spends outside every other layer.
    return "cli.self_s" if layer == "cli" else f"{layer}.busy_s"


# --- counters attached to particular spans -----------------------------------


def _count_arg(fn, args, kwargs):
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return 1
    count = bound.arguments.get("count")
    return 1 if count is None else int(count)


def _on_raw(t, fn, args, kwargs, result, dt, outer):
    words = _size(result)
    t.counts["rng.words"] += words
    if t.active[NORMAL][0]:
        t.counts["rng.normal_words"] += words


def _on_normal(t, fn, args, kwargs, result, dt, outer):
    if t.active[NORMAL][0]:
        return  # nested normal call; counted by the outer one
    t.counts["rng.normals"] += _size(result)
    if t.active[GAMMA][0]:
        t.counts["rng.gamma_candidates"] += _size(result)


def _on_gamma(t, fn, args, kwargs, result, dt, outer):
    if not t.active[GAMMA][0]:
        t.counts["rng.gammas"] += _size(result)


def _on_sampler(t, fn, args, kwargs, result, dt, outer):
    if outer:
        t.counts["samplers.calls"] += 1
        t.counts["samplers.items"] += _count_arg(fn, args, kwargs)


def _on_significand(t, fn, args, kwargs, result, dt, outer):
    if outer:
        t.counts["significand.values"] += _size(args[0] if args else next(iter(kwargs.values()), None))


def _on_law_cdf(t, fn, args, kwargs, result, dt, outer):
    if not any(t.active[name][0] for name in LAW_CDFS):
        t.counts["laws.cdf_s"] += dt


def _on_sphere_cdf(t, fn, args, kwargs, result, dt, outer):
    if not outer:
        return
    law, s = args[0], (args[1] if len(args) > 1 else kwargs.get("s"))
    key = (type(law).__name__, repr(law))
    if np.ndim(s) > 0 and key not in t.seen_laws:
        t.seen_laws.add(key)
        t.counts["sphere.build_s"] += dt
    else:
        t.counts["sphere.cdf_s"] += dt


def _on_scalar_cdf(t, fn, args, kwargs, result, dt, outer):
    t.counts["sphere.scalar_cdf_calls"] += 1


def _on_quad(t, fn, args, kwargs, result, dt, outer):
    t.counts["specfun.quad_calls"] += 1


_COUNTERS = {
    RAW: _on_raw,
    NORMAL: _on_normal,
    GAMMA: _on_gamma,
    **{name: _on_quad for name in QUAD_FUNCS},
    **{name: _on_scalar_cdf for name in SCALAR_CDF_FUNCS},
    **{name: _on_sphere_cdf for name in SPHERE_LAW_CDFS},
    **{name: _on_law_cdf for name in LAW_CDFS},
}


def _counter_for(name: str):
    """The counter hook of a span, if its name carries one."""
    if name in _COUNTERS:
        return _COUNTERS[name]
    layer, _, attr = name.partition(".")
    if layer == "samplers" and attr.startswith("sample_"):
        return _on_sampler
    if layer == "significand" and "." not in attr and attr != "check_base":
        return _on_significand
    return None


def run_traced(trace_out: str, argv) -> int:
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("haar_digits.cli")
    try:
        return cli.main(argv)
    finally:
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py TRACE_OUT -- <haar-digits arguments>")
    sys.exit(run_traced(sys.argv[1], sys.argv[3:]))
