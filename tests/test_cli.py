"""End-to-end tests of the command-line interface.

All invocations run in-process through main(argv) so exit codes and
stdout/stderr can be asserted cheaply; one subprocess test covers the
python -m entry point.
"""

import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from haar_digits import cli, lie
from haar_digits.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- law ------------------------------------------------------------------------


def test_law_benford_json(capsys):
    code, out, err = run_cli(capsys, "law", "--law", "benford")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "law"
    assert payload["base"] == 10
    assert len(payload["grid"]) == 99
    # j = 11 gives s = 1 + 11*9/99 = 2 exactly on the grid.
    idx = payload["grid"].index(2.0)
    assert payload["cdf"][idx] == pytest.approx(math.log10(2.0), abs=1e-12)
    assert payload["digit_masses"]["1"] == pytest.approx(math.log10(2.0), abs=1e-12)
    assert payload["digit_masses"]["9"] == pytest.approx(math.log10(10.0 / 9.0), abs=1e-12)


def test_law_benford_csv(capsys):
    code, out, err = run_cli(capsys, "law", "--law", "benford", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,arg,value"
    assert "cdf,2,0.301029995664" in lines
    assert "digit_mass,1,0.301029995664" in lines
    # 99 cdf + 99 density + 9 digit rows + header
    assert len(lines) == 1 + 99 + 99 + 9


def test_law_sphere_exact_n2_is_flat(capsys):
    code, out, _ = run_cli(capsys, "law", "--law", "sphere-exact", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    grid = np.array(payload["grid"])
    cdf = np.array(payload["cdf"])
    assert np.max(np.abs(cdf - (grid - 1.0) / 9.0)) < 1e-9


def test_law_power_k1_equals_benford(capsys):
    _, out_power, _ = run_cli(capsys, "law", "--law", "power", "--k", "1")
    _, out_benford, _ = run_cli(capsys, "law", "--law", "benford")
    assert out_power == out_benford
    _, csv_power, _ = run_cli(capsys, "law", "--law", "power", "--k", "1", "--format", "csv")
    _, csv_benford, _ = run_cli(capsys, "law", "--law", "benford", "--format", "csv")
    assert csv_power == csv_benford


def test_law_other_base(capsys):
    code, out, _ = run_cli(capsys, "law", "--law", "benford", "--base", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["digit_masses"] == {"1": 1.0}
    assert max(payload["grid"]) == 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ("law", "--law", "benford", "--k", "2"),  # --k without power
        ("law", "--law", "power"),  # missing --k
        ("law", "--law", "power", "--k", "2", "--n", "5"),  # --n without sphere
        ("law", "--law", "sphere-exact"),  # missing --n
        ("law", "--law", "sphere-erf", "--n", "5", "--k", "2"),  # --k without power
        ("law", "--law", "uniform", "--n", "5"),  # --n without sphere
        ("law", "--law", "benford", "--base", "1"),
        ("sample", "--group", "triangular", "--entry", "2,1"),  # below diagonal
        ("sample", "--group", "sln", "--entry", "1,2"),  # off-diagonal
        ("sample", "--group", "diagonal", "--entry", "1,2"),  # off-diagonal
        ("sample", "--group", "rplus", "--N", "0"),
        ("sample", "--group", "power"),  # missing --k
        ("sample", "--group", "orthogonal", "--entry", "0,1"),  # 1-based
        ("sample", "--group", "orthogonal", "--entry", "4,1"),  # out of range
        ("sample", "--group", "orthogonal", "--entry", "pivot"),
        ("sample", "--group", "rplus", "--workers", "0"),
        ("sample", "--group", "rplus", "--alpha", "2.0"),
        ("sample", "--group", "rplus", "--k", "2"),  # --k without power
        ("sample", "--group", "orthogonal", "--k", "2"),  # --k without power
        ("sample", "--group", "rplus", "--entry", "1,1"),  # scalar groups read no --entry
        ("sample", "--group", "power", "--k", "2", "--entry", "1,1"),
        ("sample", "--group", "sphere", "--entry", "1,1"),
        ("sample", "--group", "gln-det", "--entry", "1,1"),  # tests the determinant
        # no group flag reaches a group that does not read it
        ("sample", "--group", "rplus", "--N", "100", "--side", "right", "--component", "matrix",
         "--det-one", "--n", "7"),
        ("sample", "--group", "sphere", "--side", "right"),
        ("sample", "--group", "orthogonal", "--component", "matrix"),
        ("fig1", "--dims", "abc"),
        ("fig1", "--dims", ""),
        ("fig1", "--dims", "0,5"),
        ("fig1", "--N", "0"),
        ("fig1", "--workers", "0"),
        ("sample", "--group", "orthogonal", "--n", "1"),  # O(1) entries are +-1
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_orthogonal_n1_names_its_flags(capsys):
    code, out, err = run_cli(capsys, "sample", "--group", "orthogonal", "--n", "1")
    assert code == 2 and out == ""
    assert "--group orthogonal" in err and "--n" in err and "got 0" not in err


@pytest.mark.parametrize(
    "group,n",
    [("orthogonal", "0"), ("unitary", "0"), ("triangular", "-1"), ("gln-det", "0"), ("sln", "1")],
)
def test_bad_n_is_blamed_on_n(capsys, group, n):
    # --n is checked before the default --entry is read against it.
    code, out, err = run_cli(capsys, "sample", "--group", group, "--n", n)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --group {group} needs --n >= ") and "--entry" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("law", "--law", "benford", "--out"),
        ("verify", "--suite", "cone", "--trials", "1000", "--out"),
        ("sample", "--group", "rplus", "--N", "1000", "--out"),
        ("sample", "--group", "rplus", "--N", "1000", "--samples-out"),
    ],
)
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.out"
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def test_law_json_writes_non_finite_as_null(capsys):
    # The n = 1 sphere density is infinite at s = B. JSON (RFC 8259) has no
    # Infinity, so the payload carries null there; CSV keeps inf.
    code, out, _ = run_cli(capsys, "law", "--law", "sphere-exact", "--n", "1")
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(out, parse_constant=reject)
    assert payload["density"][-1] is None
    assert all(math.isfinite(v) for v in payload["density"][:-1])
    _, csv_out, _ = run_cli(capsys, "law", "--law", "sphere-exact", "--n", "1", "--format", "csv")
    assert "density,10,inf" in csv_out.splitlines()


# --- group and law tables ---------------------------------------------------------


def _choices(command, flag):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "cmd").choices
    return next(a.choices for a in commands[command]._actions if flag in a.option_strings)


def test_parser_choices_are_the_table_keys():
    assert tuple(_choices("sample", "--group")) == tuple(cli._GROUPS)
    assert tuple(_choices("law", "--law")) == tuple(cli._LAWS)


@pytest.mark.parametrize("law", list(cli._LAWS))
def test_every_law_tabulates(capsys, law):
    # n = 100 keeps the erf law's mass beyond |x| = 1 below 1e-20.
    flag = {"k": ("--k", "2"), "n": ("--n", "100"), None: ()}[cli._LAWS[law][1]]
    code, out, err = run_cli(capsys, "law", "--law", law, *flag)
    assert code == 0 and err == ""
    payload = json.loads(out)
    cdf = np.array(payload["cdf"])
    assert np.all(np.diff(cdf) >= 0.0) and cdf[0] >= 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    assert sum(payload["digit_masses"].values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("group", list(cli._GROUPS))
def test_every_group_samples(capsys, group):
    flag = ("--k", "2") if cli._GROUPS[group].requires == "k" else ()
    code, out, err = run_cli(capsys, "sample", "--group", group, *flag, "--N", "3000", "--seed", "5")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["group"] == group and payload["pass"] is True
    assert payload["tests"]["ks"]["n"] == 3000
    reads_entry = "entry" in cli._GROUPS[group].echoes
    assert payload.get("entry") == ("1,1" if reads_entry else None)


# sha256 of stdout at --N 4000 --seed 7. These groups make no BLAS or LAPACK
# call, so the bytes do not depend on the linear-algebra library; a change here
# is a change to the random streams, the samplers or the output format.
FROZEN_SAMPLE_DIGESTS = {
    ("--group", "rplus", "--workers", "2"):
        "100051481bcbc5f1f3564db6937405a371c2b3f7895d348b73755f4b38b10d8f",
    ("--group", "power", "--k", "2", "--base", "7"):
        "eb358343d38228800d65bad9ab176db006efacbd0a3d6e2ffafcb33411fb738e",
    ("--group", "sphere", "--n", "9"):
        "0f2bc4848cb5b0945ecc82b402bb2c1b3af1e7e24f8f672a7183bbf020bc062e",
    ("--group", "triangular", "--n", "4", "--entry", "1,2", "--side", "right"):
        "a59755e20ae9ff1ac8345d802095313a0fca209163d12d516d029412f904d075",
    ("--group", "diagonal", "--det-one", "--entry", "2,2", "--format", "csv"):
        "60a220f76481d251d80c817b9015d2e5c6a08f8cb9be035ee8972cc3706d16f1",
    ("--group", "sln", "--workers", "2"):
        "96ddc1ba271f1d7fbc721def48bb9cea4e2f727e5981e0e0541ba17c014347c1",
}


@pytest.mark.parametrize("args", list(FROZEN_SAMPLE_DIGESTS), ids=lambda a: a[1])
def test_sample_stdout_digest_is_frozen(capsys, args):
    code, out, _ = run_cli(capsys, "sample", *args, "--N", "4000", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN_SAMPLE_DIGESTS[args]


# --- sample ---------------------------------------------------------------------


def test_sample_rplus_passes_and_is_deterministic(capsys):
    args = ("sample", "--group", "rplus", "--N", "20000", "--seed", "7")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["schema"] == 1
    assert payload["command"] == "sample"
    assert payload["seed"] == 7
    assert payload["N"] == 20000
    assert payload["pass"] is True
    assert payload["n_rejected"] == 0
    assert payload["tests"]["ks"]["pass"] is True
    assert payload["tests"]["chi2_first_digit"]["dof"] == 8
    assert sum(payload["digit_freqs"]) == pytest.approx(1.0, abs=1e-9)
    assert payload["predicted_digit_freqs"][0] == pytest.approx(math.log10(2.0), abs=1e-11)
    code_c, out_c, _ = run_cli(capsys, "sample", "--group", "rplus", "--N", "20000", "--seed", "8")
    assert out_c != out_a


def test_sample_sphere_group(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--group", "sphere", "--n", "2", "--N", "20000", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert "SphereExact" in payload["law"]
    assert payload["n"] == 2


def test_sample_small_n_skips_chi2(capsys):
    code, out, _ = run_cli(capsys, "sample", "--group", "rplus", "--N", "50", "--seed", "5")
    payload = json.loads(out)
    assert "skipped" in payload["tests"]["chi2_first_digit"]
    assert payload["pass"] is (code == 0)


def test_sample_mispredicted_law_exits_1(capsys):
    # eps = 0.3 is not a power of the base, so the flat significand law for
    # an off-diagonal triangular entry is genuinely wrong; the GOF tests
    # must reject it and the exit code must say so.
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--group",
        "triangular",
        "--n",
        "2",
        "--entry",
        "1,2",
        "--eps",
        "0.3",
        "--N",
        "20000",
        "--seed",
        "11",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["tests"]["ks"]["pass"] is False


def test_sample_workers_sharding(capsys):
    args = ("sample", "--group", "rplus", "--N", "9001", "--seed", "13", "--workers", "4")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["workers"] == 4
    assert payload["tests"]["ks"]["n"] == 9001


def test_sample_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HAAR_DIGITS_SEED", "99")
    _, out_env, _ = run_cli(capsys, "sample", "--group", "rplus", "--N", "1000")
    assert json.loads(out_env)["seed"] == 99
    # Explicit --seed wins over the environment.
    _, out_flag, _ = run_cli(capsys, "sample", "--group", "rplus", "--N", "1000", "--seed", "4")
    assert json.loads(out_flag)["seed"] == 4
    # Hex form is accepted.
    monkeypatch.setenv("HAAR_DIGITS_SEED", "0x2a")
    _, out_hex, _ = run_cli(capsys, "sample", "--group", "rplus", "--N", "1000")
    assert json.loads(out_hex)["seed"] == 42
    monkeypatch.setenv("HAAR_DIGITS_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "sample", "--group", "rplus", "--N", "1000")
    assert code == 2 and "HAAR_DIGITS_SEED" in err
    monkeypatch.delenv("HAAR_DIGITS_SEED")
    _, out_default, _ = run_cli(capsys, "sample", "--group", "rplus", "--N", "1000")
    assert json.loads(out_default)["seed"] == 42


def test_sample_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--group", "rplus", "--N", "20000", "--seed", "7", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert {"pass", "seed", "N", "law", "tests.ks.statistic"} <= keys
    assert "pass,True" in lines
    assert "seed,7" in lines


def test_sample_out_and_samples_out(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    samples_path = tmp_path / "sig.csv"
    code, stdout, _ = run_cli(
        capsys,
        "sample",
        "--group",
        "rplus",
        "--N",
        "5000",
        "--seed",
        "21",
        "--out",
        str(out_path),
        "--samples-out",
        str(samples_path),
    )
    assert code == 0
    assert stdout == ""  # everything went to the file
    _, inline, _ = run_cli(capsys, "sample", "--group", "rplus", "--N", "5000", "--seed", "21")
    assert out_path.read_text(encoding="utf-8") == inline
    lines = samples_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "significand"
    values = np.array([float(v) for v in lines[1:]])
    assert values.size == 5000
    assert np.all((values >= 1.0) & (values < 10.0))
    assert np.all(np.diff(values) >= 0.0)  # emitted sorted


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_samples_out_bytes_across_block_edge(tmp_path, capsys, monkeypatch, offset):
    # The block-wise writer must give the bytes of one csv.writer row per
    # significand, formatted ".12g", on either side of a block boundary.
    kept = []
    build = cli.build_empirical

    def keep(values, base):
        kept.append(build(values, base))
        return kept[-1]

    monkeypatch.setattr(cli, "build_empirical", keep)
    n = cli._SAMPLES_BLOCK + offset
    samples_path = tmp_path / "sig.csv"
    code, _, _ = run_cli(
        capsys, "sample", "--group", "rplus", "--N", str(n), "--seed", "5",
        "--samples-out", str(samples_path),
    )
    assert code == 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("significand",))
    for v in kept[0].values:
        writer.writerow([format(float(v), ".12g")])
    assert kept[0].n == n
    assert samples_path.read_bytes() == buf.getvalue().encode("utf-8")


def test_sample_sln_components_differ(capsys):
    base_args = (
        "sample", "--group", "sln", "--n", "3", "--entry", "2,2",
        "--N", "5000", "--seed", "17",
    )
    code_d, out_d, _ = run_cli(capsys, *base_args, "--component", "dfactor")
    code_m, out_m, _ = run_cli(capsys, *base_args, "--component", "matrix")
    assert code_d == 0 and code_m == 0
    pd = json.loads(out_d)
    pm = json.loads(out_m)
    assert pd["component"] == "dfactor" and pm["component"] == "matrix"
    assert pd["digit_freqs"] != pm["digit_freqs"]
    assert pd["pass"] is True and pm["pass"] is True


# --- fig1 -----------------------------------------------------------------------


def test_fig1_csv_shape_and_consistency(capsys):
    args = ("fig1", "--dims", "5,10", "--N", "5000", "--seed", "2", "--format", "csv")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimension,digit,mc_freq,predicted_freq"
    assert len(lines) == 1 + 2 * 9
    rows = [line.split(",") for line in lines[1:]]
    for dim in ("5", "10"):
        mc = [float(r[2]) for r in rows if r[0] == dim]
        pred = [float(r[3]) for r in rows if r[0] == dim]
        assert len(mc) == 9
        assert sum(mc) == pytest.approx(1.0, abs=1e-9)
        assert sum(pred) == pytest.approx(1.0, abs=1e-6)
        assert max(abs(m - p) for m, p in zip(mc, pred)) < 0.05


def test_fig1_dimension_streams_are_list_independent(capsys):
    # Adding a dimension to the list must not change the rows of the others.
    _, out_small, _ = run_cli(capsys, "fig1", "--dims", "5", "--N", "3000", "--seed", "2",
                              "--format", "csv")
    _, out_both, _ = run_cli(capsys, "fig1", "--dims", "5,10", "--N", "3000", "--seed", "2",
                             "--format", "csv")
    rows_small = [l for l in out_small.splitlines()[1:] if l.startswith("5,")]
    rows_both = [l for l in out_both.splitlines()[1:] if l.startswith("5,")]
    assert rows_small == rows_both


def test_fig1_json_round_trip(capsys):
    args = ("fig1", "--dims", "5", "--N", "3000", "--seed", "2")
    code, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert code == 0 and out_a == out_b
    payload = json.loads(out_a)
    assert payload["schema"] == 1
    assert payload["command"] == "fig1"
    assert len(payload["rows"]) == 9
    assert {r["digit"] for r in payload["rows"]} == set(range(1, 10))


# --- verify ---------------------------------------------------------------------


def test_verify_all_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "400000")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "verify"
    assert payload["pass"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "adjoint_product_n2",
        "adjoint_product_n3",
        "adjoint_product_n4",
        "adjoint_product_n5",
        "adjoint_product_n6",
        "adjoint_product_n7",
        "adjoint_product_n8",
        "cone_log_slope_constant",
        "cone_volume_mc",
        "cone_induced_cdf_is_benford",
        "hyperbolic_area_mc",
    ]
    assert all(c["passed"] for c in payload["checks"])


def test_verify_suites_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "adjoint", "--format", "csv", "--seed", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,passed,detail"
    assert len(lines) == 1 + 7
    assert all(line.split(",")[1] == "true" for line in lines[1:])
    code, out, _ = run_cli(capsys, "verify", "--suite", "cone", "--trials", "400000")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["checks"]) == 4


def test_verify_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "verify", "--suite", "adjoint")
    assert code == 0 and "workers" not in json.loads(out)


# sha256 of `verify --suite cone --trials 2500001 --seed 7` stdout: three Monte
# Carlo batches per rejection estimate (two full, one of a single point) and no
# BLAS or LAPACK call, so a change here is a change to the draws or the count.
FROZEN_CONE_DIGEST = "dd17c57f3a9e0a8b34cb5013969125b14d764feabf3d7818e80dbba273848781"


def test_verify_cone_stdout_digest_is_frozen(capsys):
    args = ("verify", "--suite", "cone", "--trials", "2500001", "--seed", "7")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN_CONE_DIGEST


def test_verify_adjoint_reports_consistency_failure(capsys, monkeypatch):
    # A negative tolerance makes the matrix route and the closed form disagree
    # on every draw; each check must fail with the error in its detail.
    monkeypatch.setattr(lie, "_REL_TOL", -1.0)
    code, out, _ = run_cli(capsys, "verify", "--suite", "adjoint", "--seed", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    for check in payload["checks"]:
        assert check["passed"] is False
        assert "closed form" in check["detail"]["error"]
        assert check["detail"]["error"].startswith("draw 0:")
        assert check["detail"]["max_product_residual"] is None


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "cone", "--trials", "50000", "--seed", "6")
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


# --- module entry point ------------------------------------------------------------


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "haar_digits", "law", "--law", "benford"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["schema"] == 1 and payload["command"] == "law"
