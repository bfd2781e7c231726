"""Peak memory against input size.

Each command runs in a fresh interpreter on N and then 3N copies of one
short pair, so its caches hold the same few entries at both sizes and any
growth in peak memory is memory kept per line. The peak is the ``VmHWM`` of
the command's own process, read from ``/proc/self/status`` as the command
ends; ``ru_maxrss`` of a child is not used, since a child started by
``vfork`` inherits its parent's peak. A list of all 3N lines would exceed
the bound three times over.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import checkout_env

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)

N = 40_000
GROWTH_KB = 4 * 1024  # from N to 3N lines
BOUND_S = 20.0
SOURCE, TARGET, SPANS = "the cat sat on the mat", "the cats sat on a mat", "1 2 cats, 4 5 a"
# the command, then its own peak in kB on stderr's last line
BOOT = """\
import sys
from editspan.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(peak, file=sys.stderr)
sys.exit(code)
"""
DATASET = [
    "build-dataset", "--gec", "pairs.tsv", "--paraphrase", "pairs.tsv", "--style", "pairs.tsv",
    "--simplify", "pairs.tsv", "--open-ended", "open.jsonl", "--per-task", "1",
    "--open-count", "1", "-o", "out.jsonl",
]
COMMANDS = {
    "extract": (["extract", "pairs.tsv", "-o", "out.txt"], N),
    "apply": (["apply", "sources.txt", "spans.txt", "-o", "out.txt"], N),
    # fewer lines: each row is aligned twice
    "score": (["score", "sources.txt", "spans.txt", "targets.txt"], N // 2),
    # fewer lines: the corpus check reads each of the four corpora, and the growth
    # is four times a corpus's lines
    "build-dataset": (DATASET, N // 4),
}


def _start(directory, argv: list[str], lines: int) -> subprocess.Popen:
    directory.mkdir()
    files = {
        "pairs.tsv": f"{SOURCE}\t{TARGET}\n", "sources.txt": f"{SOURCE}\n",
        "spans.txt": f"{SPANS}\n", "targets.txt": f"{TARGET}\n",
    }
    for name, line in files.items():
        (directory / name).write_text(line * lines, encoding="utf-8")
    (directory / "open.jsonl").write_text('{"instruction": "q", "output": "a"}\n')
    return subprocess.Popen(
        [sys.executable, "-c", BOOT, *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, env=checkout_env(), cwd=directory,
    )


def _peak_kb(process: subprocess.Popen) -> int:
    try:
        _, err = process.communicate(timeout=BOUND_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{process.args[3]} ran past {BOUND_S} s")
    assert process.returncode == 0, err
    return int(err.splitlines()[-1])


@pytest.mark.parametrize(
    "command",
    [
        "extract",
        "apply",
        "score",
        pytest.param(
            "build-dataset",
            marks=pytest.mark.xfail(
                strict=True, reason="keeps every valid corpus line (ROADMAP item 12)"
            ),
        ),
    ],
)
def test_peak_memory_does_not_grow_with_the_input(command, tmp_path):
    argv, lines = COMMANDS[command]
    # both sizes run at once; each peak is its own process's
    processes = [_start(tmp_path / name, argv, n) for name, n in (("N", lines), ("3N", 3 * lines))]
    try:
        small_kb, large_kb = map(_peak_kb, processes)
    finally:
        for process in processes:  # none is left running when one fails
            with process:
                process.kill()
    assert large_kb - small_kb <= GROWTH_KB, (
        f"{small_kb} kB on {lines} lines, {large_kb} kB on {3 * lines}"
    )
