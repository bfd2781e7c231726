"""README's examples: each ``python`` block runs as written, and the weights
file shown is the default weights."""

from __future__ import annotations

import re
from pathlib import Path

from editspan import CostWeights

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_python_examples_run():
    blocks = _blocks("python")
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_weights_example_is_the_default_weights(tmp_path):
    (block,) = _blocks("ini")
    path = tmp_path / "weights.cfg"
    path.write_text(block, encoding="utf-8")
    assert CostWeights.from_file(path) == CostWeights()
