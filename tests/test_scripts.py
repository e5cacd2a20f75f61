"""The scripts under scripts/ run with small arguments and print their tables."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, header",
    [
        (
            "erf_gap_table",
            ["--dims", "100,300", "--points", "9"],
            "# sup-gap between exact and erf CDF on 9 grid points, base 10",
        ),
        (
            "cone_volume_scan",
            ["--edges", "2,10", "--trials", "20000"],
            "# eps=0.1, 20000 trials per edge, seed=42",
        ),
    ],
)
def test_script_runs(capsys, name, argv, header):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == header


@pytest.mark.parametrize("edges", ["1", "2,1", "0.5", "", "two"])
def test_cone_volume_scan_rejects_bad_edges(capsys, edges):
    # ln(1) = 0 used to end in ZeroDivisionError; it is a usage error.
    with pytest.raises(SystemExit) as exc:
        _load("cone_volume_scan").main(["--edges", edges, "--trials", "100"])
    assert exc.value.code == 2
    assert "--edges" in capsys.readouterr().err
