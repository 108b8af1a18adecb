import json
import re
from pathlib import Path

from goalchase.core import config_from_json
from goalchase.simulator import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_runs():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    obj = json.loads(blocks[0])
    obj["steps"] = 5
    records, sim = run(config_from_json(obj))
    assert sim.t == 5
    assert [r.t for r in records] == [0, 1, 2, 3, 4, 5]
