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
import os
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from haar_digits import cli, lie
from haar_digits.cli import main
from haar_digits.errors import ConsistencyError, DomainError
from haar_digits.laws import PowerLaw, UniformSignificand
from haar_digits.rng import RngStream
from haar_digits.significand import significand_values


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


def test_base_at_the_cap_runs(capsys):
    code, out, err = run_cli(
        capsys, "sample", "--group", "rplus", "--base", str(cli._MAX_BASE), "--N", "2000"
    )
    assert code == 0 and err == "" and json.loads(out)["base"] == cli._MAX_BASE


@pytest.mark.parametrize(
    "argv",
    [
        ("law", "--law", "benford"),
        ("sample", "--group", "rplus", "--N", "2000"),
        ("fig1", "--dims", "5", "--N", "100"),
    ],
)
@pytest.mark.parametrize("base", [cli._MAX_BASE + 1, 10**13])
def test_base_above_the_cap_exits_2(capsys, argv, base):
    code, out, err = run_cli(capsys, *argv, "--base", str(base))
    assert code == 2 and out == ""
    assert err == f"error: --base must be at most {cli._MAX_BASE}, got {base}\n"


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
        ("sample", "--group", "sln", "--entry", "1,2"),  # off-diagonal entry of the d factor
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
        ("fig1", "--dims", "5,5"),  # one substream per dimension: listed once
        ("fig1", "--N", "0"),
        ("fig1", "--workers", "0"),
        ("sample", "--group", "orthogonal", "--n", "1"),  # O(1) entries are +-1
        ("verify", "--suite", "adjoint", "--trials", "10"),  # only the cone suite reads it
        ("verify", "--suite", "adjoint", "--eps", "0.5"),
        # the window flags reach only the groups whose draws or law read them
        ("sample", "--group", "sphere", "--m", "6"),
        ("sample", "--group", "gln-det", "--eps", "0.5"),
        ("sample", "--group", "rplus", "--eps", "0"),
        # a seed is one 64-bit word: refused outside [0, 2^64 - 1], not reduced
        ("sample", "--group", "rplus", "--N", "1000", "--seed", "-1"),
        ("sample", "--group", "rplus", "--N", "1000", "--seed", str(2**64)),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", [("sample", "--group", "rplus"), ("fig1", "--workers", "1")])
def test_an_n_past_the_address_space_is_a_usage_error(capsys, command):
    # 10^15 doubles are 8 PB, past any x86-64 address space: the allocation
    # fails at once, before a word is drawn, and is named as --N, not a
    # failed check (exit 1) or a traceback.
    code, out, err = run_cli(capsys, *command, "--N", str(10**15))
    assert code == 2 and out == ""
    assert err.strip() == f"error: --N {10**15} values cannot be allocated"


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


def test_diagonal_det_one_needs_two_entries(capsys):
    # n = 1 would pin the only entry to 1/prod() = 1 and fail Benford.
    code, out, err = run_cli(capsys, "sample", "--group", "diagonal", "--n", "1", "--det-one")
    assert code == 2 and out == ""
    assert err.startswith("error: det_one needs n >= 2") and "got n=1" in err


@pytest.mark.parametrize(
    "args, named",
    [
        (("--group", "rplus", "--m", "400"), "m=400, base 10"),
        (("--group", "rplus", "--base", "2", "--m", "2000"), "m=2000, base 2"),
        (("--group", "power", "--k", "0.5", "--m", "400"), "m=400, base 10"),
        # Entries that read no power-density block still check the window.
        (("--group", "triangular", "--entry", "1,2", "--m", "400"), "m=400, base 10"),
        (("--group", "sln", "--n", "2", "--m", "400"), "m=400, base 10"),
    ],
)
def test_window_past_the_double_range_is_blamed_on_m(capsys, args, named):
    # B^m overflows: the window would be cut short of m whole decades.
    code, out, err = run_cli(capsys, "sample", *args, "--N", "1000")
    assert code == 2 and out == ""
    assert err.startswith("error: window [1, B^m)") and named in err


@pytest.mark.parametrize(
    "args, named",
    [
        (("--group", "triangular", "--entry", "1,2", "--eps", "9e307"),
         "eps must be a finite real in ["),
        (("--group", "triangular", "--entry", "1,2", "--eps", "1e-322"),
         "eps must be a finite real in ["),
        (("--group", "power", "--k", "1e15"), "k must be <= about 9.0e6"),
        (("--group", "power", "--k", "9007201"), "k must be <= about 9.0e6"),
        (("--group", "diagonal", "--det-one", "--n", "1000", "--entry", "1000,1000"),
         "det-one diagonal at n=1000, m=3: "),
        (("--group", "sln", "--n", "400", "--entry", "400,400"), "det-one diagonal at n=400, m=3: "),
        # Which entries overflow depends on d, so dropping them would bias the law.
        (("--group", "sln", "--component", "matrix", "--entry", "2,2", "--eps", "1e300"),
         "SL_n matrix entry at n=3, eps=1e+300: "),
    ],
)
def test_window_a_double_cannot_sample_exits_2(capsys, args, named):
    # A box of 2 eps past the largest double, a subnormal box, draws that
    # round onto a handful of doubles near 1, or a det-one product past the
    # double range would answer wrongly.
    code, out, err = run_cli(capsys, "sample", *args, "--N", "1000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "args",
    [
        ("--group", "triangular", "--n", "2", "--entry", "1,2", "--eps", "2.3e-308"),
        ("--group", "triangular", "--n", "2", "--entry", "1,2", "--eps", "8.9e307"),
        ("--group", "power", "--k", "1e6"),
        ("--group", "power", "--k", "9007200"),
    ],
)
def test_window_inside_the_double_bounds_passes(capsys, args):
    code, out, err = run_cli(capsys, "sample", *args, "--N", "20000")
    assert code == 0 and err == "" and json.loads(out)["pass"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, digest",
    [
        # (1 - k) ln s overflows to -inf, and expm1(-inf) = -1 is the CDF's limit.
        (("law", "--law", "power", "--k", "1e308"),
         "6b40e66d2f4fcf1b326fc9d5f506e4250dddac5651bf40410c789e5a02d4c435"),
        # Entries of g other than the one read overflow; it does not.
        (("sample", "--group", "sln", "--component", "matrix", "--entry", "2,2", "--eps", "1e150",
          "--N", "20000", "--seed", "5"),
         "29b760b7624eed2b492e8e35c08412007e9c38369ad8eedecb5d7ad39677842c"),
    ],
)
def test_an_overflow_no_output_depends_on_warns_nothing(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_entry_of_a_huge_layout_draws_each_value_on_its_own_stream(capsys):
    # At n = 10^8 a block is one value, so no stream's counter passes the
    # 5e15 words of one layout; 3700 values in one stream would pass 2^64.
    code, out, err = run_cli(capsys, "sample", "--group", "triangular", "--n", "100000000",
                             "--entry", "1,2", "--N", "3700", "--seed", "7")
    assert code == 0 and err == "" and json.loads(out)["tests"]["ks"]["n"] == 3700


def test_fig1_names_a_repeated_dimension(capsys):
    code, out, err = run_cli(capsys, "fig1", "--dims", "2,5,5")
    assert code == 2 and out == "" and "repeats dimension 5" in err


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
    assert tuple(_choices("verify", "--suite")) == (*cli._SUITES, "all")


@pytest.mark.parametrize("law", list(cli._LAWS))
def test_every_law_tabulates(capsys, law):
    # n = 100 keeps the erf law's mass beyond |x| = 1 below 1e-20.
    values = {"k": "2", "n": "100", "eps": "0.3"}
    flag = [arg for f in cli._LAWS[law][1] for arg in (f"--{f}", values[f])]
    code, out, err = run_cli(capsys, "law", "--law", law, *flag)
    assert code == 0 and err == ""
    payload = json.loads(out)
    cdf = np.array(payload["cdf"])
    assert np.all(np.diff(cdf) >= 0.0) and cdf[0] >= 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    assert sum(payload["digit_masses"].values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("group", list(cli._GROUPS))
def test_every_group_samples(capsys, group):
    flag = ("--k", "2") if "k" in cli._GROUPS[group].reads else ()
    code, out, err = run_cli(capsys, "sample", "--group", group, *flag, "--N", "3000", "--seed", "5")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["group"] == group and payload["pass"] is True
    assert payload["tests"]["ks"]["n"] == 3000
    reads_entry = "entry" in cli._GROUPS[group].reads
    assert payload.get("entry") == ("1,1" if reads_entry else None)
    # The payload echoes the flags the group reads and no other.
    report = {"schema", "command", "seed", "N", "alpha", "law", "n_rejected", "digit_freqs",
              "predicted_digit_freqs", "tests", "pass"}
    assert set(payload) - report == {"group", "base", *cli._GROUPS[group].reads}


# --- flag routing -------------------------------------------------------------------

# The options every row of a command reads. Each other option of law, sample
# and verify is routed: a table row reads it, and any other row refuses it.
COMMAND_WIDE = {
    "law": {"help", "law", "base", "format", "out"},
    "sample": {"help", "group", "base", "format", "out", "seed", "workers", "N", "alpha",
               "samples_out"},
    "verify": {"help", "suite", "format", "out", "seed"},
}
FLAG_VALUES = {"k": "2", "n": "5", "m": "2", "eps": "0.5", "entry": "1,1", "trials": "10",
               "base": "7"}


def _row_reads(command):
    """(selector option, {row: the flags it reads}) of a routed command."""
    if command == "law":
        return "--law", {name: row[1] for name, row in cli._LAWS.items()}
    if command == "sample":
        return "--group", {name: group.reads for name, group in cli._GROUPS.items()}
    reads = {name: suite.reads for name, suite in cli._SUITES.items()}
    return "--suite", {**reads, "all": tuple(f for flags in reads.values() for f in flags)}


def _routed_options(command):
    """(dest, option string, argv tail giving it) of each routed option."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "cmd").choices[command]
    for action in sub._actions:
        if action.dest not in COMMAND_WIDE[command]:
            value = () if action.nargs == 0 else (
                action.choices[0] if action.choices else FLAG_VALUES.get(action.dest, "1"),
            )
            yield action.dest, action.option_strings[0], (action.option_strings[0], *value)


ROUTED = [(c, *opt) for c in COMMAND_WIDE for opt in _routed_options(c)]
UNREAD = [
    (command, row, option, argv)
    for command, dest, option, argv in ROUTED
    for row, reads in _row_reads(command)[1].items()
    if dest not in reads
]


@pytest.mark.parametrize("command", list(COMMAND_WIDE))
def test_rows_read_exactly_the_routed_flags(command):
    # A routed option that no row reads would be refused by every row, and a
    # row entry that is no option could never be given.
    read = {flag for flags in _row_reads(command)[1].values() for flag in flags}
    assert read == {dest for c, dest, _, _ in ROUTED if c == command}


@pytest.mark.parametrize(
    "command, row, option, argv", UNREAD, ids=[" ".join(u[:3]) for u in UNREAD]
)
def test_flag_a_row_does_not_read_exits_2(capsys, command, row, option, argv):
    # A flag given to a row that does not read it is refused by name, not
    # echoed into the payload or dropped.
    selector, _ = _row_reads(command)
    code, out, err = run_cli(capsys, command, selector, row, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} is only valid with {selector} ")
    assert err.rstrip().endswith(f", not {row}")


def test_verify_has_no_base_flag(capsys):
    # No verify check reads a base (the cone suite is base 10).
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "adjoint", "--base", "7"])
    assert exc.value.code == 2
    assert "--base" in capsys.readouterr().err


def test_missing_required_flag_is_named(capsys):
    for argv, message in [
        (("law", "--law", "power"), "error: --law power requires --k"),
        (("law", "--law", "sphere-erf"), "error: --law sphere-erf requires --n"),
        (("law", "--law", "flat-window"), "error: --law flat-window requires --eps"),
        (("sample", "--group", "power"), "error: --group power requires --k"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.strip() == message


# sha256 of stdout at --N 4000 --seed 7. A change here is a change to the
# random streams, the samplers or the output format. No row makes a BLAS or
# LAPACK call; orthogonal and unitary sum their Householder steps through
# np.einsum, so their rows also pin NumPy's einsum loops. Re-taken when each
# run's stream began to be keyed by its echo and split into fixed blocks, and
# --workers left the payload; the --workers 2 rows draw what --workers 1 draws.
# The orthogonal and unitary rows were re-taken when an entry read began to
# draw only columns 0..j of each matrix, column by column, and the sphere row
# when a sphere coordinate began to be one polar pair, with no gamma deviate.
# The orthogonal row was re-taken when Q became a product of Householder
# reflections of fresh Gaussian vectors; the unitary row reads column 0,
# g_0 / |g_0| under either kernel, and kept its digest.
FROZEN_SAMPLE_DIGESTS = {
    ("--group", "rplus", "--workers", "2"):
        "a75356ac3cff45510cb40ed1cfd283af560d88b8150c707543942e861e3fdf75",
    ("--group", "power", "--k", "2", "--base", "7"):
        "9334dca353413e6ed6fd2660d51f1b3ecd54d139783405690082c7bcbf9fcc2e",
    ("--group", "sphere", "--n", "9"):
        "8b7b764a1ebfcdad13baf421d13fac870b9911a9131b130dc033da7aa24b4bb2",
    ("--group", "triangular", "--n", "4", "--entry", "1,2", "--side", "right"):
        "c3caf180a948aa271a6a346f782d8d82119df06df77b92014d18f60951b48fe4",
    ("--group", "diagonal", "--det-one", "--entry", "2,2", "--format", "csv"):
        "134b7276cc026e0867da36d0670713567a3026daeb9d36f5646288d483d65a28",
    ("--group", "sln", "--workers", "2"):
        "d6d31563daaa29590c0a569854badc08f19d775463f6066202dd48d6dd66724f",
    ("--group", "gln-det", "--workers", "2"):
        "2217ffe67ecb01a418a0fb37b05530a480cf7793fcf352a33a7bc4c399336246",
    ("--group", "orthogonal", "--n", "4", "--entry", "2,3"):
        "3b8e5a56674ca592978d1fe63e73577783f42e56438cab8f729877b4368b7da0",
    ("--group", "unitary", "--n", "3", "--format", "csv"):
        "b9b93af9046f4a3d7c9dccb2ac243a8136c56a7ecda019a43ac1444da020427b",
}


@pytest.mark.parametrize("args", list(FROZEN_SAMPLE_DIGESTS), ids=lambda a: a[1])
def test_sample_stdout_digest_is_frozen(capsys, args):
    code, out, _ = run_cli(capsys, "sample", *args, "--N", "4000", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN_SAMPLE_DIGESTS[args]


# sha256 of (stdout, --samples-out file) at --N 100000 --seed 7. At this size
# the uniform kernel and the sphere's polar rounds cross several tile edges,
# and the one-entry reads skip most of each windowed layout; the digests were
# taken from untiled kernels that drew every entry. Re-taken when each run's
# stream began to be keyed by its echo; the fixed blocks alone moved no file
# byte. The sphere row was re-taken when a coordinate became one polar pair.
FROZEN_LARGE_SAMPLE_DIGESTS = {
    ("--group", "sphere", "--n", "9"): (
        "6e86aeb8c8f15f53141ff21e28bc5a74ee4d3ee2ef4b8045c18b77240be57545",
        "131f94e39bf3d797d3f34293eea28dda8ced32d280cd206f25cb273fb79eca3a",
    ),
    ("--group", "triangular", "--n", "5", "--entry", "3,3"): (
        "e5ee9b737455d09e23ee300e40af4753f2be44ca185c04f75507bb09fbef67d3",
        "ef632d7dbfb791a8867d3ea3390568c6b4f76f1350d1775cf87e36ef2c6f78ad",
    ),
    # Re-taken when the significand reduction began to divide by B^k rounded
    # once: 3 of the 10^5 rows moved in the last printed digit.
    ("--group", "sln", "--n", "4", "--entry", "4,4"): (
        "3460fd34d3b0dbe9e4b8a962873a2ea8321895aa9ba9823e8d9326c0c90abc6c",
        "8c2ea8df48f0a0c2318e178781ebd84efa6f7c58a28172dc82d628c838d308da",
    ),
    ("--group", "diagonal", "--n", "4", "--entry", "3,3"): (
        "574338f83395aaa5d5ab54c3c9003c06a7248f06c7d700572cbd64f790778d9d",
        "782781ba3c939699b07749971a7b73b8974a574c5454df45483f64ce1f4d2bf4",
    ),
}


@pytest.mark.parametrize("args", list(FROZEN_LARGE_SAMPLE_DIGESTS), ids=lambda a: a[1])
def test_large_sample_digests_are_frozen(capsys, tmp_path, args):
    path = tmp_path / "samples.csv"
    code, out, _ = run_cli(
        capsys, "sample", *args, "--N", "100000", "--seed", "7", "--samples-out", str(path)
    )
    assert code == 0
    got = tuple(hashlib.sha256(b).hexdigest() for b in (out.encode("utf-8"), path.read_bytes()))
    assert got == FROZEN_LARGE_SAMPLE_DIGESTS[args]


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


def test_sample_mispredicted_law_exits_1(capsys, monkeypatch):
    # Predict the flat significand law for an off-diagonal triangular entry
    # at eps = 0.3, which is not a power of the base: the law is genuinely
    # wrong, the GOF tests must reject it and the exit code must say so.
    flat = lambda a, i, j: UniformSignificand(a.base)  # noqa: E731
    tri = cli._GROUPS["triangular"]
    group = cli._Group(tri.draw, flat, tri.matrix, tri.reads, tri.min_n, tri.diagonal_only)
    monkeypatch.setitem(cli._GROUPS, "triangular", group)
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


def test_sample_flat_entry_off_a_power_of_the_base_passes(capsys):
    # eps = 0.3 = 3 * 10^-1: the entry's significand law is
    # FlatWindowSignificand with t = 3, not the flat law (KS D was 0.517).
    code, out, _ = run_cli(
        capsys, "sample", "--group", "triangular", "--n", "4", "--entry", "1,2",
        "--eps", "0.3", "--N", "200000", "--seed", "7",
    )
    payload = json.loads(out)
    assert code == 0 and payload["pass"] is True
    assert payload["law"] == "FlatWindowSignificand(base=10, eps=0.3)"
    assert payload["tests"]["ks"]["statistic"] < 0.005


def test_law_flat_window_tabulates_the_law_a_flat_entry_is_tested_against(capsys):
    # t = 3: the CDF is [min(s, 3) - 1 + (s - 1) / 9] / 3, with a kink at s = 3.
    code, out, err = run_cli(capsys, "law", "--law", "flat-window", "--eps", "0.3")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["law"] == "FlatWindowSignificand(base=10, eps=0.3)"
    grid = np.array(payload["grid"])
    expected = (np.minimum(grid, 3.0) - 1.0 + (grid - 1.0) / 9.0) / 3.0
    assert payload["cdf"] == pytest.approx(expected, rel=1e-10)  # printed to 12 digits
    assert payload["digit_masses"]["1"] == pytest.approx((1.0 + 1.0 / 9.0) / 3.0, rel=1e-11)


def test_sample_flat_entry_at_a_power_of_the_base_predicts_the_flat_law(capsys):
    # eps = 1e-5 is the double nearest 10^-5, whose significand is exactly 1.
    code, out, _ = run_cli(
        capsys, "sample", "--group", "triangular", "--entry", "1,2", "--eps", "1e-5",
        "--N", "20000", "--seed", "7",
    )
    payload = json.loads(out)
    assert code == 0 and payload["law"] == "UniformSignificand(base=10)"


def _sample_at(capsys, tmp_path, workers, *args):
    """(stdout, --samples-out bytes) of `sample *args`, with --workers if it is given."""
    path = tmp_path / "samples.csv"
    flag = () if workers is None else ("--workers", str(workers))
    code, out, err = run_cli(capsys, "sample", *args, *flag, "--samples-out", str(path))
    assert code == 0 and err == ""
    return out, path.read_bytes()


@pytest.mark.parametrize(
    "args",
    [("--group", "sphere", "--n", "9"), ("--group", "orthogonal", "--n", "3", "--entry", "2,3")],
    ids=["scalar", "matrix"],
)
def test_sample_bytes_do_not_depend_on_workers(capsys, tmp_path, monkeypatch, args):
    # Blocks of 100 values, so --N 950 is ten blocks and the last one holds
    # 50. --workers only bounds the processes; no byte depends on it.
    monkeypatch.setattr(cli, "_SCALAR_CHUNK", 100)
    monkeypatch.setattr(cli, "_MATRIX_CHUNK_SCALARS", 100 * 3 * 3)
    group, sizes = cli._GROUPS[args[1]], []

    def draw(a, spec, i, j, st, c):
        sizes.append(c)
        return group.draw(a, spec, i, j, st, c)

    counted = cli._Group(
        draw, group.law, group.matrix, group.reads, group.min_n, group.diagonal_only
    )
    monkeypatch.setitem(cli._GROUPS, args[1], counted)
    runs = [
        _sample_at(capsys, tmp_path, workers, *args, "--N", "950", "--seed", "7")
        for workers in (None, 1, 2, 3, 10**9)
    ]
    assert all(run == runs[0] for run in runs)
    assert sizes == ([100] * 9 + [50]) * len(runs)


def test_sample_blocks_follow_the_documented_order(capsys, monkeypatch):
    # Block b is one sampler call on root.substream(b), with root the seed's
    # stream keyed by the run's echo, so the block sizes 40, 40 and 20 are
    # part of the bits: each block starts a substream of its own.
    monkeypatch.setattr(cli, "_SCALAR_CHUNK", 40)
    drawn, build = [], cli.build_empirical
    monkeypatch.setattr(cli, "build_empirical", lambda v, base: drawn.append(v) or build(v, base))
    code, _, _ = run_cli(capsys, "sample", "--group", "sphere", "--n", "9", "--N", "100",
                         "--seed", "7")
    assert code == 0
    root = RngStream(7).substream(zlib.crc32(b'{"base":10,"group":"sphere","n":9}'))
    expected = np.concatenate([
        cli.samplers.sample_sphere_coords(9, 1, root.substream(b), c)[:, 0]
        for b, c in enumerate((40, 40, 20))
    ])
    assert drawn[0].tobytes() == expected.tobytes()


def test_sample_stream_key_is_the_crc32_of_the_echo(capsys, tmp_path):
    # Worked from the README: the echo of `--group rplus` is its group, base
    # and --m, as JSON with sorted keys and no spaces; the key is its CRC-32.
    echo = '{"base":10,"group":"rplus","m":3}'
    assert zlib.crc32(echo.encode()) == 0x29E732CB
    out, rows = _sample_at(capsys, tmp_path, None, "--group", "rplus", "--N", "1000",
                           "--seed", "7")
    payload = json.loads(out)
    assert {key: payload[key] for key in json.loads(echo)} == json.loads(echo)
    root = RngStream(7).substream(0x29E732CB)
    block = cli.samplers.sample_log_uniform(10, 3, root.substream(0), 1000)
    expected = "".join(f"{v:.12g}\n" for v in np.sort(significand_values(block)))
    assert rows.decode() == "significand\n" + expected


def test_runs_that_read_different_flags_draw_different_numbers(capsys, tmp_path):
    # These groups all invert the same log-uniform draw; keyed by their echo,
    # no two of them test the same numbers, and base 7 is not base 10's draw.
    runs = [
        _sample_at(capsys, tmp_path, None, *args, "--N", "100000", "--seed", "7")
        for args in (
            ("--group", "rplus"),
            ("--group", "rplus", "--base", "7"),
            ("--group", "triangular", "--entry", "1,1"),
            ("--group", "gln-det"),
            ("--group", "diagonal", "--entry", "1,1"),
        )
    ]
    assert len({json.loads(out)["tests"]["ks"]["statistic"] for out, _ in runs}) == len(runs)
    assert len({rows for _, rows in runs}) == len(runs)


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
    for out_of_range in ("-1", hex(2**64)):
        monkeypatch.setenv("HAAR_DIGITS_SEED", out_of_range)
        code, _, err = run_cli(capsys, "sample", "--group", "rplus", "--N", "1000")
        assert code == 2 and err.startswith("error: HAAR_DIGITS_SEED must be an integer in [0, ")
    monkeypatch.setenv("HAAR_DIGITS_SEED", hex(2**64 - 1))
    _, out_top, _ = run_cli(capsys, "sample", "--group", "rplus", "--N", "1000")
    assert json.loads(out_top)["seed"] == 2**64 - 1
    monkeypatch.delenv("HAAR_DIGITS_SEED")
    _, out_default, _ = run_cli(capsys, "sample", "--group", "rplus", "--N", "1000")
    assert json.loads(out_default)["seed"] == 42


# Every command that draws resolves its seed the same way. Each is refused
# before any work, so the commands run at their defaults here.
SEEDED = {
    "sample": ("sample", "--group", "rplus", "--N", "1000"),
    "fig1": ("fig1",),
    "verify": ("verify", "--suite", "adjoint"),
}


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", [-1, 2**64])
@pytest.mark.parametrize("command", SEEDED)
def test_seed_outside_one_word_exits_2_naming_the_range(capsys, monkeypatch, command, value, source):
    argv = SEEDED[command]
    if source == "flag":
        name, argv = "--seed", (*argv, "--seed", str(value))
    else:
        name = "HAAR_DIGITS_SEED"
        monkeypatch.setenv(name, hex(value) if value > 0 else str(value))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {name} must be an integer in [0, {2**64 - 1}], got {value}\n"


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_are_sampled_as_given(capsys, monkeypatch, seed):
    args = ("sample", "--group", "rplus", "--N", "1000")
    code, out_flag, _ = run_cli(capsys, *args, "--seed", str(seed))
    assert code == 0 and json.loads(out_flag)["seed"] == seed
    monkeypatch.setenv("HAAR_DIGITS_SEED", hex(seed))
    code, out_env, _ = run_cli(capsys, *args)
    assert code == 0 and out_env == out_flag


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


def test_sln_dfactor_off_diagonal_names_the_matrix_component(capsys):
    code, out, err = run_cli(capsys, "sample", "--group", "sln", "--entry", "1,2")
    assert code == 2 and out == ""
    assert "--component dfactor" in err and "--component matrix" in err


@pytest.mark.parametrize("entry", ["1,2", "3,1"])
def test_sample_sln_off_diagonal_matrix_entries_are_benford(capsys, entry):
    # g_ij = (e^X e^Y)_ij d_j with d_j log-uniform over whole decades and
    # independent of the unipotent factor, so S(g_ij) is exactly Benford.
    code, out, err = run_cli(
        capsys, "sample", "--group", "sln", "--n", "3", "--component", "matrix",
        "--entry", entry, "--N", "200000", "--seed", "7",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["entry"] == entry and payload["law"] == "Benford(base=10)"
    assert payload["tests"]["ks"]["pass"] and payload["tests"]["chi2_first_digit"]["pass"]
    assert payload["pass"] is True


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


def _at_cpus(monkeypatch, cpus):
    """Make this host look as if it had `cpus` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _fig1_at(capsys, monkeypatch, cpus, *argv):
    """fig1 as run on a host with `cpus` usable CPUs."""
    _at_cpus(monkeypatch, cpus)
    return run_cli(capsys, "fig1", *argv)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fig1_bytes_do_not_depend_on_the_cpu_count(capsys, monkeypatch, fmt):
    # One process at 1 CPU, the caller and a fork at 2, three processes at 4.
    args = ("--dims", "5,10,100", "--N", "3000", "--seed", "2", "--format", fmt)
    runs = {cpus: _fig1_at(capsys, monkeypatch, cpus, *args) for cpus in (1, 2, 4)}
    assert all(code == 0 and err == "" for code, _, err in runs.values())
    assert runs[1][1] == runs[2][1] == runs[4][1]
    _assert_no_child_left()


def test_fig1_workers_bounds_the_forks_and_no_byte(capsys, monkeypatch):
    # min(dimensions, CPUs, --workers) processes, the caller among them.
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    args = ("--dims", "5,10,100,1000", "--N", "3000", "--seed", "2")
    outs = set()
    for workers in (None, 1, 2):
        for cpus in (1, 2, 4):
            forks.clear()
            flag = () if workers is None else ("--workers", str(workers))
            code, out, err = _fig1_at(capsys, monkeypatch, cpus, *args, *flag)
            assert code == 0 and err == ""
            assert len(forks) == min(cpus, workers or cpus) - 1
            outs.add(out)
    assert len(outs) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("failing", [(10,), (100,), (10, 100)])
def test_fig1_domain_error_in_a_dimension_reads_as_the_serial_run(capsys, monkeypatch, failing):
    # At 2 CPUs the caller draws dimensions 5 and 100 and a fork draws 10, so
    # the error comes from the fork, from the caller while the fork runs, or
    # from both; the first failing dimension in the list is reported.
    real = cli.samplers.sample_sphere_coords

    def sampler(n, *args):
        if n in failing:
            raise DomainError(f"dimension {n} refused")
        return real(n, *args)

    monkeypatch.setattr(cli.samplers, "sample_sphere_coords", sampler)
    runs = [_fig1_at(capsys, monkeypatch, cpus, "--dims", "5,10,100", "--N", "3000")
            for cpus in (1, 2)]
    assert runs[0] == runs[1] == (2, "", f"error: dimension {failing[0]} refused\n")
    _assert_no_child_left()


def test_fig1_names_the_dimensions_of_a_worker_that_dies(capsys, monkeypatch):
    caller = os.getpid()
    real = cli.samplers.sample_sphere_coords

    def sampler(*args):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(cli.samplers, "sample_sphere_coords", sampler)
    code, out, err = _fig1_at(capsys, monkeypatch, 2, "--dims", "5,10,100,1000", "--N", "3000")
    assert code == 1 and out == ""
    assert err.startswith("consistency failure: ")
    assert "[10, 1000]" in err and "exit status 3" in err
    _assert_no_child_left()


def test_fan_out_error_keeps_the_frames_of_the_failing_item(monkeypatch):
    # Whichever process first meets item 1, the caller computes it again and
    # raises its error with its own frames and no cause.
    def fn(x):
        if x == 1:
            raise ValueError(f"item {x} failed")
        return x

    for cpus in (1, 2, 4):
        _at_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="item 1 failed") as info:
            cli._fan_out(fn, [0, 1, 2], None)
        assert info.value.__cause__ is None
        assert info.traceback[-1].name == "fn"
        _assert_no_child_left()


class _TwoArgError(Exception):
    """An error that pickle cannot rebuild from its args."""

    def __init__(self, item, why):
        super().__init__(f"item {item}: {why}")
        self.item = item


def test_fan_out_raises_an_error_whatever_its_constructor(monkeypatch):
    def fn(x):
        if x == 1:
            raise _TwoArgError(x, "refused")
        return x

    _at_cpus(monkeypatch, 2)
    with pytest.raises(_TwoArgError, match="item 1: refused") as info:
        cli._fan_out(fn, [0, 1, 2], None)
    assert info.value.item == 1
    _assert_no_child_left()


@pytest.mark.parametrize(
    "raising, error, expected",
    [(0, ValueError, "item 0 failed"), (2, ConsistencyError, r"items \[1, 3\]")],
)
def test_fan_out_list_order_decides_between_a_dead_fork_and_an_error(
    monkeypatch, raising, error, expected
):
    # At 2 CPUs the caller computes items 0 and 2 and a fork, which dies,
    # items 1 and 3: the failure reported is the one at the first item.
    caller = os.getpid()

    def fn(x):
        if os.getpid() != caller:
            os._exit(3)
        if x == raising:
            raise ValueError(f"item {x} failed")
        return x

    _at_cpus(monkeypatch, 2)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(error, match=expected):
        cli._fan_out(fn, [0, 1, 2, 3], None)
    _assert_no_child_left()
    assert len(os.listdir("/proc/self/fd")) == fds


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
        "cone_volume_mc",
        "cone_log_slope_mc",
        "cone_edge_is_benford",
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


# sha256 of `verify --suite cone --trials 2097153 --seed 7` stdout: 33 Monte
# Carlo batches per rejection estimate (32 full, one of a single point) and no
# BLAS or LAPACK call, so a change here is a change to the draws, the count or
# the edge digit tests. Re-taken when the Monte Carlo checks began to report
# their gap in standard errors, and when the batch fell from 10^6 points to
# 2^16 and one draw began to check the cone's log slope and edge digits.
FROZEN_CONE_DIGEST = "a999f23b437f33bf6f39cd473134bfee107f74a7a94d5fa860b62977de75254c"


def test_verify_cone_stdout_digest_is_frozen(capsys):
    args = ("verify", "--suite", "cone", "--trials", "2097153", "--seed", "7")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN_CONE_DIGEST


# sha256 of stdout of law, fig1 and verify runs in JSON and CSV, taken before
# the commands shared one report route. The adjoint rows take determinants
# and inverses, so they also pin the LAPACK build. The verify row was
# re-taken with the cone digest, twice, and the fig1 JSON row when --workers
# left its payload. Both fig1 rows were re-taken when a sphere coordinate
# became one polar pair, with no gamma deviate.
FROZEN_REPORT_DIGESTS = {
    ("law", "--law", "benford"):
        "b3aea2929dc802ac9299ff543bd4ff4971c95869b481b00b732092d4dd608a8b",
    ("law", "--law", "sphere-exact", "--n", "9", "--format", "csv"):
        "2294fbd10541da31d317af80f179403b9527099a972de29ea9debb2c8775a371",
    ("fig1", "--dims", "5,100", "--N", "20000", "--seed", "7"):
        "0aee9683e1af4b7d407dcfa8be5d0a2f87991eea4b689b8351c7f31c88889289",
    ("fig1", "--dims", "5,100", "--N", "20000", "--seed", "7", "--format", "csv"):
        "a176decd2d31c2fe02f666748a4593c8be43c4388b9dac5435a3dea6a72392c5",
    ("verify", "--suite", "adjoint", "--seed", "3", "--format", "csv"):
        "6ebc2d20249bc08666de68448703c2c1bf7a925bffa43249ef70b7d77d5445eb",
    ("verify", "--trials", "200000", "--seed", "7"):
        "31951b3308d0480643e6055b5ac8a9ff64858493dc66a880c4e196962cd6b3ac",
}


@pytest.mark.parametrize("argv", list(FROZEN_REPORT_DIGESTS), ids=" ".join)
def test_report_stdout_digest_is_frozen(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN_REPORT_DIGESTS[argv]


def test_verify_csv_detail_keeps_list_entries(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "cone", "--trials", "20000", "--seed", "7", "--format", "csv"
    )
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("cone_log_slope_mc,"))
    name, passed, detail = row.split(",")
    pairs = dict(pair.split("=") for pair in detail.split(";"))
    lists = ("analytic", "mc_estimate", "mc_stderr", "relative_gap", "sigma_gap")
    def entries(key):
        return [f"{key}.{i}" for i in range(3)]

    assert list(pairs) == [
        *entries("analytic"), "eps", *entries("mc_estimate"), *entries("mc_stderr"),
        *entries("relative_gap"), *entries("sigma_gap"), "threshold", "trials", *entries("x"),
    ]
    _, out_json, _ = run_cli(capsys, "verify", "--suite", "cone", "--trials", "20000", "--seed", "7")
    slope = json.loads(out_json)["checks"][1]["detail"]
    assert slope["x"] == [2.0, 5.0, 10.0]
    for key in lists:
        assert [float(pairs[f"{key}.{i}"]) for i in range(3)] == slope[key]


def test_verify_all_is_adjoint_then_cone(capsys):
    def checks(*argv):
        code, out, _ = run_cli(capsys, "verify", *argv, "--seed", "7")
        assert code == 0
        return json.loads(out)["checks"]

    cone = ("--trials", "200000", "--eps", "0.2")
    assert checks("--suite", "all", *cone) == checks("--suite", "adjoint") + checks(
        "--suite", "cone", *cone
    )


@pytest.mark.parametrize("flag, value", [("--trials", "10"), ("--eps", "0.5")])
def test_verify_flag_no_suite_reads_is_named(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", "--suite", "adjoint", flag, value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} is only valid with --suite cone|all")


@pytest.mark.parametrize("seed", range(1, 9))
def test_verify_cone_passes_at_few_trials(capsys, seed):
    # The Monte Carlo verdict is in standard errors, so it holds at any
    # trial count; a fixed 2 % failed half of these seeds at 20000 trials.
    code, out, _ = run_cli(capsys, "verify", "--suite", "cone", "--trials", "20000",
                           "--seed", str(seed))
    assert code == 0, out


@pytest.mark.parametrize("seed", range(1, 9))
def test_verify_cone_passes_at_the_default_trials(capsys, seed):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cone", "--seed", str(seed))
    assert code == 0, out


def test_verify_cone_eps_squared_bound_at_the_edge_and_past_it(capsys):
    # eps = 2^-511 squares to the least normal double and every check passes;
    # the next double below it is refused by name. Before the bound, 1e-160
    # failed the induced-CDF check and 1e-320 ended in ZeroDivisionError.
    edge = 2.0**-511
    cone = ("verify", "--suite", "cone", "--trials", "20000", "--seed", "7", "--eps")
    code, out, err = run_cli(capsys, *cone, repr(edge))
    assert code == 0 and err == ""
    assert all(check["passed"] for check in json.loads(out)["checks"])
    for eps in (float(np.nextafter(edge, 0.0)), 1e-160, 1e-320):
        code, out, err = run_cli(capsys, *cone, repr(eps))
        assert code == 2 and out == ""
        assert err.startswith(f"error: eps must be a finite real in [{edge!r}, 1]"), err


@pytest.mark.parametrize(
    "name, formula",
    [("cone_volume_mc", "sl2_cone_volume"), ("hyperbolic_area_mc", "hyperbolic_cone_area")],
)
def test_verify_mc_check_catches_a_planted_error(capsys, monkeypatch, name, formula):
    # A closed form 5 % off is ~18 (cone) and ~30 (hyperbolic) standard
    # errors away at the default 10^6 trials. The edge digit check never
    # reads a closed form, so it still passes.
    exact = getattr(cli, formula)
    monkeypatch.setattr(cli, formula, lambda *a: 1.05 * exact(*a))
    code, out, _ = run_cli(capsys, "verify", "--suite", "cone", "--seed", "7")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks[name]["passed"] and checks[name]["detail"]["sigma_gap"] > 5.0
    assert checks["cone_log_slope_mc"]["passed"] == (name == "hyperbolic_area_mc")
    assert checks["cone_edge_is_benford"]["passed"]


def _cone_checks(capsys, *argv):
    code, out, err = run_cli(capsys, "verify", "--suite", "cone", "--seed", "7", *argv)
    assert err == ""
    return code, {c["name"]: c for c in json.loads(out)["checks"]}


@pytest.mark.parametrize("eps", ["0.5", "1"])
def test_verify_cone_passes_at_any_box_width(capsys, eps):
    # The edge law is Benford whatever the width of the window's
    # off-diagonal box; a wider box accepts fewer of its points.
    code, checks = _cone_checks(capsys, "--trials", "1000000", "--eps", eps)
    assert code == 0
    assert checks["cone_edge_is_benford"]["detail"]["ks"]["n"] > 50000


@pytest.mark.parametrize("law", [UniformSignificand(10), PowerLaw(10, 1.1)], ids=repr)
def test_verify_cone_edge_check_fails_against_a_wrong_law(capsys, monkeypatch, law):
    # Negative controls fixed before the run: 10^6 trials at seed 7, about
    # 114000 edges.
    monkeypatch.setattr(cli, "Benford", lambda base: law)
    code, checks = _cone_checks(capsys, "--trials", "1000000")
    assert code == 1
    edge = checks["cone_edge_is_benford"]
    assert not edge["passed"] and edge["detail"]["law"] == repr(law)
    assert not edge["detail"]["ks"]["pass"] and not edge["detail"]["chi2_first_digit"]["pass"]
    assert [name for name, c in checks.items() if not c["passed"]] == ["cone_edge_is_benford"]


def test_verify_cone_fails_when_membership_drops_the_window(capsys, monkeypatch):
    # Keeping only det in (0, 1] accepts points whose w / sqrt(det) is not a
    # window edge: neither their count nor their digits pass.
    def det_only(mats, problem):
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        return (det > 0.0) & (det <= 1.0)

    monkeypatch.setattr(lie, "sl2_cone_membership", det_only)
    code, checks = _cone_checks(capsys, "--trials", "1000000")
    assert code == 1
    assert [name for name, c in checks.items() if not c["passed"]] == [
        "cone_volume_mc", "cone_log_slope_mc", "cone_edge_is_benford"
    ]
    assert checks["cone_edge_is_benford"]["detail"]["ks"]["p_approx"] == 0.0


def test_verify_cone_edge_check_at_few_edges(capsys):
    # 500 trials accept about 57 points, too few for the chi-square's 5 a
    # cell (109 edges): it is skipped in sample's words and KS decides alone.
    code, checks = _cone_checks(capsys, "--trials", "500")
    assert code == 0
    detail = checks["cone_edge_is_benford"]["detail"]
    assert detail["ks"]["pass"] and 0 < detail["ks"]["n"] < 109
    assert detail["chi2_first_digit"]["skipped"].startswith(
        "sample too small for the digit chi-square: min expected count"
    )


def test_verify_one_trial_fails(capsys):
    # One trial rejected gives estimate 0 with a zero standard error: an
    # infinite gap (JSON null), not a pass. No edge is left to test.
    code, checks = _cone_checks(capsys, "--trials", "1")
    assert code == 1
    assert not any(check["passed"] for check in checks.values())
    assert checks["cone_volume_mc"]["detail"]["sigma_gap"] is None
    assert checks["hyperbolic_area_mc"]["detail"]["sigma_gap"] is None
    assert checks["cone_log_slope_mc"]["detail"]["sigma_gap"] == [None, None, None]
    assert checks["cone_edge_is_benford"]["detail"]["error"] == (
        "no trial fell in the cone: there is no edge to test"
    )


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


def _child_env(**extra):
    """The environment of a child that imports the package from the tree under
    test, as this process does, with no OPENBLAS_THREAD_TIMEOUT of its own."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    return {**env, "PYTHONPATH": path, **extra}


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "haar_digits", "law", "--law", "benford"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["schema"] == 1 and payload["command"] == "law"


def test_import_sets_the_openblas_idle_timeout_only_as_a_default():
    code = "import os, haar_digits; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    for extra, expected in (({}, "4"), ({"OPENBLAS_THREAD_TIMEOUT": "20"}, "20")):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=_child_env(**extra),
        )
        assert proc.returncode == 0 and proc.stdout == expected + "\n", extra


def test_cli_run_spends_no_more_cpu_than_wall_time():
    # With OpenBLAS's idle workers spinning before they sleep, this 0.21 s run
    # took 0.34 s of CPU on a 2-core host. Load only adds wall time, so the
    # check is one-sided; on one core it holds trivially.
    argv = [sys.executable, "-m", "haar_digits", "law", "--law", "benford"]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable,
        argv,
        _child_env(OPENBLAS_NUM_THREADS="2"),
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_utime + usage.ru_stime <= wall + 0.05
