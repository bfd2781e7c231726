"""Hostile inputs through the CLI.

Each case runs a command in a fresh interpreter, killed if it outlives
``BOUND_S``, and must end with its exit code and its exact stderr, with no
traceback. The span-file cases run ``editspan apply`` on a seeded
100,000-token source, and a failing one must leave the ``-o`` file it was
given as it was. The long-token cases run ``extract`` and ``score`` on a
10^6-character token that shares its character with a one-character token.
"""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from conftest import VOCAB, checkout_env

SOURCE_LEN = 100_000
BOUND_S = 10.0
OLD_OUTPUT = "output of an earlier run\n"
COUNT = 100_000


def _ignored(count: int) -> str:
    return f"ignored {count} malformed fragment(s) across 1 line(s)\n"


def _replace(at: int, *tokens: str):
    """The expected output: the source with token ``at`` replaced by ``tokens``."""
    return lambda src: src[:at] + list(tokens) + src[at + 1:]


def _unchanged(src):
    return src


# name: (span line, exit code, stderr, expected output tokens from the source's)
CASES = {
    "disjoint-ascending": (
        ", ".join(f"{i} {i + 1} w" for i in range(COUNT)), 0, "", lambda src: ["w"] * COUNT,
    ),
    "disjoint-descending": (
        ", ".join(f"{i} {i + 1} w" for i in reversed(range(COUNT))), 0, "",
        lambda src: ["w"] * COUNT,
    ),
    "one-span-repeated": (", ".join(["0 1 x"] * COUNT), 0, _ignored(COUNT - 1), _replace(0, "x")),
    "wide-span-then-overlaps": (
        f"0 {SOURCE_LEN} y, " + ", ".join(f"{i} {i + 1} z" for i in range(COUNT)), 0,
        _ignored(COUNT), lambda src: ["y"],
    ),
    "ascii-leading-zeros": ("0" * COUNT + "1 2 x", 0, "", _replace(1, "x")),
    "arabic-indic-leading-zeros": ("\u0660" * COUNT + "1 2 x", 0, "", _replace(1, "x")),
    "huge-end": ("0 " + "9" * COUNT + " x", 0, _ignored(1), _unchanged),
    "nul-in-replacement": ("0 1 a\x00b", 0, "", _replace(0, "a\x00b")),
    "next-line-in-replacement": ("0 1 a\x85b", 0, "", _replace(0, "a", "b")),
    "line-separator-in-replacement": ("0 1 a\u2028b", 0, "", _replace(0, "a", "b")),
    "bom-in-replacement": ("0 1 a\ufeffb", 0, "", _replace(0, "a\ufeffb")),
    "whitespace-only": (" \t ", 0, "", _unchanged),
    "padded-none": (" None ", 0, "", _unchanged),
    "lone-carriage-return": (
        "0 1 x\r1 2 y", 2, "editspan: error: line counts differ: sources has 1, spans has 2\n",
        None,
    ),
}


LONG = "x" * 10**6
# name: (command and its input files, file contents, expected stdout)
LONG_TOKEN_CASES = {
    "long-source-token": (["extract", "pairs.tsv"], {"pairs.tsv": LONG + "\tx"}, "0 1 x\n"),
    "long-target-token": (["extract", "pairs.tsv"], {"pairs.tsv": "x\t" + LONG}, f"0 1 {LONG}\n"),
    "long-hypothesis-token": (
        ["score", "sources.txt", "spans.txt", "targets.txt"],
        {"sources.txt": "x b c", "spans.txt": "0 1 " + LONG, "targets.txt": "y b c"},
        '{\n  "pairs": 1,\n  "agreement_rate": 1.0,\n  "mean_ratio": 1.0,\n'
        '  "precision": 0.0,\n  "recall": 0.0,\n  "f05": 0.0,\n  "ignored_fragments": 0\n}\n',
    ),
}


def _run(name: str, argv: list[str], cwd) -> subprocess.CompletedProcess:
    try:
        result = subprocess.run(
            [sys.executable, "-m", "editspan.cli", *argv], capture_output=True, text=True,
            encoding="utf-8", env=checkout_env(), cwd=cwd, timeout=BOUND_S,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{name}: {argv[0]} ran past {BOUND_S} s")
    assert "Traceback" not in result.stderr, result.stderr
    return result


@pytest.fixture(scope="module")
def source_tokens() -> list[str]:
    rng = random.Random(8)
    return [rng.choice(VOCAB) for _ in range(SOURCE_LEN)]


@pytest.mark.parametrize("name", CASES)
def test_apply_hostile_span_file(name, source_tokens, tmp_path):
    spans, code, expected_err, expected = CASES[name]
    sources, spans_file = tmp_path / "sources.txt", tmp_path / "spans.txt"
    output = tmp_path / "out.txt"
    sources.write_text(" ".join(source_tokens) + "\n", encoding="utf-8")
    spans_file.write_text(spans + "\n", encoding="utf-8", newline="")
    output.write_text(OLD_OUTPUT, encoding="utf-8")
    result = _run(name, ["apply", "sources.txt", "spans.txt", "-o", "out.txt"], tmp_path)
    assert (result.returncode, result.stderr) == (code, expected_err)
    written = output.read_text(encoding="utf-8")
    if expected is None:
        assert written == OLD_OUTPUT
    else:
        assert written == " ".join(expected(source_tokens)) + "\n"
    # the output was replaced whole or not at all, with no temporary file left
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "sources.txt", "spans.txt"]


@pytest.mark.parametrize("name", LONG_TOKEN_CASES)
def test_long_token_against_one_character(name, tmp_path):
    argv, files, expected = LONG_TOKEN_CASES[name]
    for file_name, text in files.items():
        (tmp_path / file_name).write_text(text + "\n", encoding="utf-8")
    result = _run(name, argv, tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == expected
