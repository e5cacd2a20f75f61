"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, in both the plain and the traced run, and that the correctness
checker rejects tampered CLI output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.001  # scales 10^5..10^6 samples down to 10^2..10^3


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    out = run.run_workload(workload, seed=3, seconds=0, trace=trace, root=ROOT, scale=TINY, setup_reps=1)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert {"seed", "nproc", "cpu_model", "python", "numpy", "openblas"} <= set(out["info"])


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def _cli(*args) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HAAR_DIGITS_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "haar_digits", *args], env=env, capture_output=True, check=True
    )
    return proc.stdout


def _reference(base, dim):
    from haar_digits import SphereExact

    return SphereExact(base=base, n=dim).first_digit_probs().tolist()


def _tamper(stdout: bytes, edit) -> bytes:
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload).encode()


def test_checker_rejects_tampered_fig1():
    sys.path.insert(0, str(ROOT / "src"))
    dims = (100, 10000)
    good = _cli("fig1", "--dims", "100,10000", "--N", "200000", "--seed", "5")
    assert check.check_fig1(good, dims, _reference) == []

    def shift_mass(payload):
        rows = [r for r in payload["rows"] if r["dimension"] == 100]
        rows[0]["mc_freq"] += 0.01  # digit 1 gains what digit 2 loses
        rows[1]["mc_freq"] -= 0.01

    assert check.check_fig1(_tamper(good, shift_mass), dims, _reference)
    assert check.check_fig1(good, (100, 200), _reference)
    assert check.check_fig1(_tamper(good, lambda p: p["rows"].pop()), dims, _reference)


def test_checker_rejects_tampered_law():
    good = _cli("law", "--law", "power", "--k", "2")
    assert check.check_law(good) == []

    def unsort(payload):
        payload["cdf"][10], payload["cdf"][11] = payload["cdf"][11], payload["cdf"][10]

    def inflate(payload):
        payload["digit_masses"]["1"] += 1e-6

    assert check.check_law(_tamper(good, unsort))
    assert check.check_law(_tamper(good, inflate))


def test_checker_rejects_failed_sample_and_verify(tmp_path):
    good = _cli("sample", "--group", "rplus", "--N", "5000", "--seed", "5")
    assert check.check_sample(good, "json") == []
    assert check.check_sample(_tamper(good, lambda p: p.update({"pass": False})), "json")
    good = _cli("verify", "--suite", "cone", "--trials", "200000", "--seed", "5")
    assert check.check_verify(good) == []
    assert check.check_verify(_tamper(good, lambda p: p.update({"pass": False})))

    samples = tmp_path / "s.csv"
    report = _cli("sample", "--group", "rplus", "--N", "5000", "--seed", "5",
                  "--format", "csv", "--samples-out", str(samples))
    data = samples.read_bytes()
    assert check.check_sample(report, "csv", data) == []
    assert check.check_sample(report.replace(b"pass,True", b"pass,False"), "csv", data)
    assert check.check_sample(report, "csv", data.rsplit(b"\n", 2)[0] + b"\n")


def _traced(script: str) -> dict:
    """Run script with tracer hooks installed; it must print one JSON value."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_tracer_hooks_names_where_callers_look_them_up():
    out = _traced(
        "import json, time, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "import haar_digits.cli as cli, haar_digits.sphere as sphere\n"
        "from haar_digits import RngStream\n"
        "t0 = time.perf_counter(); RngStream(1).chi_square(5, 20000); wall = time.perf_counter() - t0\n"
        "print(json.dumps({'wall': wall, 'report': t.report(),\n"
        "  'wrapped': [hasattr(f, '__wrapped__') for f in (cli.build_empirical, cli.ks_test,\n"
        "                                                  sphere.integrate_arcsine_weight)]}))\n"
    )
    counters = out["report"]["counters"]
    assert all(out["wrapped"])
    # gamma -> normal -> raw nest; self times add up to no more than the call.
    assert 0.0 < counters["rng.busy_s"] <= out["wall"]
    assert counters["rng.gammas"] == 20000 <= counters["rng.gamma_candidates"]
    assert counters["rng.words"] == counters["rng.normal_words"] + counters["rng.gamma_candidates"]


def test_tracer_reports_a_missing_hook_as_absent(tmp_path):
    out = _traced(
        "import json, sys, tracer, haar_digits.sphere as sphere\n"
        "for name in ('sphere_sig_cdf_exact', 'sphere_sig_cdf_erf', 'sphere_limit_cdf'):\n"
        "    delattr(sphere, name)\n"
        f"rc = tracer.run_traced({str(tmp_path / 't.json')!r},\n"
        f"                       ['law', '--law', 'benford', '--out', {str(tmp_path / 'law.json')!r}])\n"
        f"print(json.dumps({{'rc': rc, 'report': json.load(open({str(tmp_path / 't.json')!r}))}}))\n"
    )
    assert out["rc"] == 0
    assert out["report"]["missing"] == ["sphere.scalar_cdf_calls"]


def test_chi2_sf_matches_known_values():
    # Upper 5% points of the chi-square law for 1, 2, 7 and 8 degrees of freedom.
    for stat, dof in ((3.841459, 1), (5.991465, 2), (14.067140, 7), (15.507313, 8)):
        assert check.chi2_sf(stat, dof) == pytest.approx(0.05, rel=1e-5)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "windowed-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
