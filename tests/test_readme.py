"""README's examples: each ``python`` block runs as written, the weights
file shown is the default weights, every entry point it lists is public, and
README, the package metadata and CI name one lowest Python."""

from __future__ import annotations

import re
import tomllib
from pathlib import Path

import editspan
from editspan import CostWeights

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def test_listed_entry_points_are_public():
    (paragraph,) = re.findall(r"^Higher-level entry points:(.*?)\n\n", README, re.M | re.S)
    names = [name for name in re.findall(r"`([^`]+)`", paragraph) if name.isidentifier()]
    assert len(names) > 10
    for name in names:
        assert name in editspan.__all__, name
        getattr(editspan, name)


def test_readme_pyproject_and_ci_name_one_lowest_python():
    (readme,) = re.findall(r"^Python (3\.\d+)\+", README, re.M)
    with open(ROOT / "pyproject.toml", "rb") as file:
        requires = tomllib.load(file)["project"]["requires-python"]
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    (matrix,) = re.findall(r"python-version: \[\"(3\.\d+)\"", ci)
    assert (requires, matrix) == (f">={readme}", readme)
