import json
import re
import shlex
from pathlib import Path

import goalchase
from goalchase.cli import _build_parser
from goalchase.core import config_from_json
from goalchase.simulator import run

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def test_readme_config_example_runs():
    assert len(blocks("json")) == 1
    obj = json.loads(blocks("json")[0])
    obj["steps"] = 5
    records, sim = run(config_from_json(obj))
    assert sim.t == 5
    assert [r["t"] for r in records] == [0, 1, 2, 3, 4, 5]


def test_readme_cli_commands_parse():
    commands = [
        shlex.split(line)[1:]
        for block in blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("goalchase ")
    ]
    assert {argv[0] for argv in commands} == {
        "run", "check", "witness", "compare", "sweep",
    }
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on an unknown flag


def test_readme_library_names_exist():
    names = re.findall(r"\bgc\.(\w+)", "".join(blocks("python")))
    assert names
    for name in names:
        assert hasattr(goalchase, name), name
