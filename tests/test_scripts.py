"""The scripts under scripts/ run with small arguments and print their tables."""

import importlib.util
import json
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
    ],
)
def test_script_runs(capsys, name, argv, header):
    assert _load(name).main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == header


def test_layer_costs_writes_every_layer(capsys, tmp_path):
    out = tmp_path / "BENCH_layers.json"
    assert _load("layer_costs").main(["--items", "200", "--repeats", "1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# best of 1, 200 items a call, seed 7"
    startup = lines.index("# start-up, best of 1 fresh processes")
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record["layers"]) == sorted(line.split("  ")[0] for line in lines[2:startup])
    assert len(record["layers"]) == 21
    # A sphere coordinate costs the same at n = 9 and n = 50000.
    assert record["layers"]["sample_sphere_coords(50000, 1)"]["items"] == 200
    assert record["layers"]["sample_orthogonal_haar(4)"]["items"] == 20
    assert record["layers"]["sample_unitary_entry(3)"]["items"] == 20
    assert record["layers"]["sl2_cone_volume_mc(x=10)"]["items"] == 200
    assert record["layers"]["sample_orthogonal_entry(100) (1,100)"]["items"] == 1000
    assert all(layer["ms_per_1e6"] > 0 for layer in record["layers"].values())
    assert all(layer["peak_bytes_per_item"] > 0 for layer in record["layers"].values())
    # Fresh processes: importing the CLI costs time and memory beyond NumPy,
    # and loads the package's modules but neither dataclasses nor csv. Each
    # row gives the best wall and CPU time and the peak RSS.
    numpy, cli = record["startup"]["import numpy"], record["startup"]["import haar_digits.cli"]
    assert 0 < numpy["best_s"] and 0 < numpy["maxrss_mib"] < cli["maxrss_mib"]
    assert 0 < numpy["best_cpu_s"] and 0 < cli["best_cpu_s"]
    assert lines[startup + 1].split() == ["process", "ms", "CPU", "ms", "peak", "RSS", "MiB"]
    row = lines[startup + 3].split()
    assert row[:2] == ["import", "haar_digits.cli"]
    assert [float(v) for v in row[2:]] == pytest.approx(
        [cli["best_s"] * 1e3, cli["best_cpu_s"] * 1e3, cli["maxrss_mib"]], abs=0.051
    )
    beyond = record["startup"]["modules_beyond_numpy"]
    assert "haar_digits.cli" in beyond and "dataclasses" not in beyond and "csv" not in beyond
    source_at = lines.index("# source, src/haar_digits")
    assert lines[source_at - 1] == "# modules beyond numpy: " + " ".join(beyond)
    # The source section: each module's lines and code lines, and their sums.
    source = record["source"]
    modules = source["modules"]
    assert "samplers.py" in modules and "errors.py" in modules
    for key in ("lines", "code_lines"):
        assert source["total"][key] == sum(m[key] for m in modules.values())
    assert all(0 < m["code_lines"] <= m["lines"] for m in modules.values())
    assert lines[source_at + 2 :] == [
        f"{name:36s} {c['lines']:9d} {c['code_lines']:11d}"
        for name, c in [*modules.items(), ("total", source["total"])]
    ]
