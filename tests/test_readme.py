"""README.md is executed: its Python blocks run and its command lines run.

Command lines keep every flag as written, except that sample counts are
capped, so a documented flag that the CLI rejects fails here.
"""

import inspect
import re
import shlex
from pathlib import Path

import pytest

from haar_digits import samplers
from haar_digits.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.S)
COMMANDS = re.findall(r"^haar-digits .*$", README, flags=re.M)
CAPS = {"--N": "4000", "--trials": "20000"}
SAMPLERS_SECTION = README.split("\n## Samplers\n", 1)[1].split("\n## ", 1)[0]
SAMPLER_SIGNATURES = re.findall(r"`(sample_\w+)\(([^`]*)\)`", SAMPLERS_SECTION)


def test_readme_has_examples():
    assert PYTHON_BLOCKS and COMMANDS and SAMPLER_SIGNATURES


@pytest.mark.parametrize("name, params", SAMPLER_SIGNATURES, ids=[s[0] for s in SAMPLER_SIGNATURES])
def test_readme_sampler_signature(name, params):
    # A documented `name=...` has a default; a bare name is required.
    documented = [(p.split("=")[0].strip(), "=" in p) for p in params.split(",")]
    parameters = inspect.signature(getattr(samplers, name)).parameters.values()
    assert documented == [(p.name, p.default is not p.empty) for p in parameters]


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("line", COMMANDS, ids=[" ".join(line.split()[1:]) for line in COMMANDS])
def test_readme_command_runs(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    for i, arg in enumerate(argv[:-1]):
        if arg in CAPS:
            argv[i + 1] = CAPS[arg]
        elif arg == "--out":
            argv[i + 1] = str(tmp_path / argv[i + 1])
    assert main(argv) == 0, capsys.readouterr().err
