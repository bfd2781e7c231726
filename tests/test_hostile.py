"""Hostile inputs through the CLI.

Each case runs a command in a fresh interpreter, killed if it outlives
``BOUND_S``, and must end with its exit code and its exact stderr, with no
traceback. The span-file cases run ``editspan apply`` on a seeded
100,000-token source, and a failing one must leave the ``-o`` file it was
given as it was. The input-file cases give ``extract``, ``score`` and
``build-dataset`` pairs, sentence files and sidecars: a 10^6-character
token that shares its character with a one-character token, two seeded
random 40,000-letter tokens, lines of 10^5
tokens a side, NUL, U+2028 or a BOM inside a line, a truncated BOM, and
sidecars that lack a sentence, hold a short row or hold 10^5 blank lines. The settings cases give
bad weights, instructions and open-ended files, and directories in place of
files, to ``extract`` and ``build-dataset``. The
file-argument cases give an empty file and a directory to each file argument
of each command, which must end with exit 0, 1 or 2, and on failure with one
error line, no ``-o`` file and no temporary file. The ``-o`` cases give
each command ``/dev/stdout`` into a pipe and into a file opened for append,
and ``/dev/fd/N`` on a pipe; ``extract`` also gets a file that stderr or
another descriptor appends to, named as ``/dev/stderr``, ``/dev/fd/N`` or
by its path: the output must be the bytes a regular ``-o`` file gets, with
what the shell writes around it kept. A file that stdin only reads is
replaced whole. A name of 255 bytes is written, new or existing, and a path
that ends in ``/`` or ``/.`` is refused as ``open`` refuses it.
"""

from __future__ import annotations

import os
import random
import string
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
_letters = random.Random(40)
RANDOM_A, RANDOM_B = (
    "".join(_letters.choices(string.ascii_lowercase, k=40_000)) for _ in range(2)
)
WORDS = [f"w{i % 50}" for i in range(10**5)]
SIDE = "a\ta\tDET\nb\tb\tNOUN\n\nb\tb\tNOUN\na\ta\tDET"  # "a b" and "b a"
SIDECAR = ["extract", "pairs.tsv", "--provider", "sidecar", "--annotations", "side.txt"]
A_1E5, B_1E5 = " ".join(["a"] * 10**5), " ".join(["b"] * 10**5)
OVER_BUDGET = (
    "aligning 100000 x 100000 tokens needs a band of 10000200001 cells, "
    "more than the budget of 1048576\n"
)


def _pairs(source: str, target: str) -> dict:
    return {"pairs.tsv": f"{source}\t{target}"}


# name: (command and its input files, file contents, exit code, stdout, stderr);
# bytes are written as they are, text with a newline
INPUT_CASES = {
    "long-source-token": (["extract", "pairs.tsv"], _pairs(LONG, "x"), 0, "0 1 x\n", ""),
    "long-target-token": (["extract", "pairs.tsv"], _pairs("x", LONG), 0, f"0 1 {LONG}\n", ""),
    # the character distance of the one SUB is priced in full
    "long-random-tokens": (
        ["extract", "pairs.tsv"], _pairs(RANDOM_A, RANDOM_B), 0, f"0 1 {RANDOM_B}\n", "",
    ),
    "long-hypothesis-token": (
        ["score", "sources.txt", "spans.txt", "targets.txt"],
        {"sources.txt": "x b c", "spans.txt": "0 1 " + LONG, "targets.txt": "y b c"}, 0,
        '{\n  "pairs": 1,\n  "agreement_rate": 1.0,\n  "mean_ratio": 1.0,\n'
        '  "precision": 0.0,\n  "recall": 0.0,\n  "f05": 0.0,\n  "ignored_fragments": 0\n}\n', "",
    ),
    # NUL and a BOM are not whitespace to str.split; U+2028 is
    "nul-in-pair": (["extract", "pairs.tsv"], _pairs("a\x00b c", "a c"), 0, "0 1 a\n", ""),
    "line-separator-in-pair": (
        ["extract", "pairs.tsv"], _pairs("a\u2028b c", "a c"), 0, "1 2\n", "",
    ),
    "bom-inside-pair": (["extract", "pairs.tsv"], _pairs("a\ufeffb c", "a c"), 0, "0 1 a\n", ""),
    "truncated-bom": (
        ["extract", "pairs.tsv"], {"pairs.tsv": b"\xef\xbba b\tb a\n"}, 2, "",
        "editspan: error: pairs.tsv: not valid UTF-8 text (invalid continuation byte)\n",
    ),
    "tokens-1e5-one-edit": (
        ["extract", "pairs.tsv"],
        _pairs(" ".join(WORDS), " ".join(WORDS[:50_000] + ["x"] + WORDS[50_001:])), 0,
        "50000 50001 x\n", "",
    ),
    "tokens-1e5-unrelated": (
        ["extract", "pairs.tsv"], _pairs(A_1E5, B_1E5), 2, "",
        "editspan: error: line 1: " + OVER_BUDGET,
    ),
    # both gec lines are sampled; the one past the budget is named by file and line
    "tokens-1e5-unrelated-build-dataset": (
        [
            "build-dataset", "--gec", "gec.tsv", "--paraphrase", "pairs.tsv", "--style",
            "pairs.tsv", "--simplify", "pairs.tsv", "--open-ended", "open.jsonl",
            "--per-task", "2", "--open-count", "1", "-o", "out.jsonl",
        ],
        {
            "gec.tsv": f"no tab\na b\tb a\n{A_1E5}\t{B_1E5}", "pairs.tsv": "a b\tb a\nb a\ta b",
            "open.jsonl": '{"instruction": "q", "output": "a"}',
        },
        2, "",
        "gec.tsv: skipped line 1: expected source<TAB>target, got 1 fields\n"
        "editspan: error: gec.tsv: line 3: " + OVER_BUDGET,
    ),
    # a gold target past the budget is named by the targets file and line
    "tokens-1e5-unrelated-score": (
        ["score", "sources.txt", "spans.txt", "targets.txt"],
        {
            "sources.txt": f"a b\n{A_1E5}", "spans.txt": "None\nNone",
            "targets.txt": f"b a\n{B_1E5}",
        },
        2, "", "editspan: error: targets.txt: line 2: " + OVER_BUDGET,
    ),
    "sidecar-missing-sentence": (
        SIDECAR, {**_pairs("a b", "b a"), "side.txt": "a\ta\tDET\nb\tb\tNOUN"}, 2, "",
        "editspan: error: line 1: no sidecar annotations for sentence: 'b a'\n",
    ),
    # the corpus check annotates every line, so the missing one is named by file and line
    "sidecar-missing-sentence-build-dataset": (
        [
            "build-dataset", "--gec", "gec.tsv", "--paraphrase", "pairs.tsv", "--style",
            "pairs.tsv", "--simplify", "pairs.tsv", "--open-ended", "open.jsonl",
            "--provider", "sidecar", "--annotations", "side.txt", "-o", "out.jsonl",
        ],
        {
            "gec.tsv": "a b\tb a\nb a\ta c", "pairs.tsv": "a b\tb a", "side.txt": SIDE,
            "open.jsonl": '{"instruction": "q", "output": "a"}',
        },
        2, "", "editspan: error: gec.tsv: line 2: no sidecar annotations for sentence: 'a c'\n",
    ),
    # the three files are line-aligned, so the line alone is named
    "sidecar-missing-sentence-score": (
        [
            "score", "sources.txt", "spans.txt", "targets.txt",
            "--provider", "sidecar", "--annotations", "side.txt",
        ],
        {
            "sources.txt": "a b\nb a", "spans.txt": "None\nNone", "targets.txt": "b a\na c",
            "side.txt": SIDE,
        },
        2, "", "editspan: error: line 2: no sidecar annotations for sentence: 'a c'\n",
    ),
    "sidecar-short-row": (
        SIDECAR, {**_pairs("a b", "b a"), "side.txt": SIDE.replace("b\tb\tNOUN", "b\tb", 1)}, 2,
        "", "editspan: error: side.txt: line 2: expected surface<TAB>lemma<TAB>pos\n",
    ),
    "sidecar-1e5-blank-lines": (
        SIDECAR, {**_pairs("a b", "b a"), "side.txt": "\n" * 10**5 + SIDE}, 0, "0 2 b a\n", "",
    ),
}


def _run(
    name: str, argv: list[str], cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen
) -> subprocess.CompletedProcess:
    try:
        result = subprocess.run(
            [sys.executable, "-m", "editspan.cli", *argv], stdout=stdout, stderr=stderr,
            text=True, encoding="utf-8", env=checkout_env(), cwd=cwd, timeout=BOUND_S, **popen,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{name}: {argv[0]} ran past {BOUND_S} s")
    assert "Traceback" not in (result.stderr or ""), result.stderr
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


@pytest.mark.parametrize("name", INPUT_CASES)
def test_hostile_input_file(name, tmp_path):
    argv, files, code, expected_out, expected_err = INPUT_CASES[name]
    for file_name, data in files.items():
        if isinstance(data, str):
            data = (data + "\n").encode("utf-8")
        (tmp_path / file_name).write_bytes(data)
    result = _run(name, argv, tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (code, expected_out, expected_err)
    # no output file is named, and none is left
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


PAIRS = "a b\tb a\n"
OPEN_ENDED = '{"instruction": "q", "output": "a"}\n'
DATASET = [
    "build-dataset", "--gec", "pairs.tsv", "--paraphrase", "pairs.tsv", "--style", "pairs.tsv",
    "--simplify", "pairs.tsv", "--per-task", "1", "--open-count", "1", "-o", "out.jsonl",
]
WEIGHTS = ["extract", "pairs.tsv", "--weights", "w.cfg"]
DIRECTORY = None  # in a case's files: make a directory of this name


def _is_a_directory(name: str) -> str:
    return f"editspan: error: [Errno 21] Is a directory: {name!r}\n"


# name: (command line, files besides pairs.tsv and open.jsonl, exit code, stderr)
SETTINGS_CASES = {
    "weights-nan": (
        WEIGHTS, {"w.cfg": "transpose_cost = nan"}, 1,
        "editspan: error: transpose_cost must be finite\n",
    ),
    "weights-overflow": (
        WEIGHTS, {"w.cfg": "transpose_cost = 1e400"}, 1,
        "editspan: error: transpose_cost must be finite\n",
    ),
    "weights-negative": (
        WEIGHTS, {"w.cfg": "transpose_cost = -1"}, 1,
        "editspan: error: transpose_cost must be positive\n",
    ),
    "weights-unknown-key": (
        WEIGHTS, {"w.cfg": "bogus = 1"}, 1, "editspan: error: unknown cost weight: 'bogus'\n",
    ),
    "weights-no-equals": (
        WEIGHTS, {"w.cfg": "transpose_cost 5"}, 1,
        "editspan: error: w.cfg: line 1: expected key = value\n",
    ),
    "pairs-directory": (["extract", "d"], {"d": DIRECTORY}, 1, _is_a_directory("d")),
    "weights-directory": (
        ["extract", "pairs.tsv", "--weights", "d"], {"d": DIRECTORY}, 1, _is_a_directory("d"),
    ),
    "annotations-directory": (
        ["extract", "pairs.tsv", "--provider", "sidecar", "--annotations", "d"],
        {"d": DIRECTORY}, 1, _is_a_directory("d"),
    ),
    "instructions-directory": (
        DATASET + ["--open-ended", "open.jsonl", "--instructions", "d"], {"d": DIRECTORY}, 1,
        _is_a_directory("d"),
    ),
    "open-ended-not-an-object": (
        DATASET + ["--open-ended", "bad.jsonl"], {"bad.jsonl": "[1]"}, 2,
        "editspan: error: bad.jsonl: line 1: expected a JSON object\n",
    ),
    # a file is named as given, not as its normalized path
    "open-ended-named-as-given": (
        DATASET + ["--open-ended", "./bad.jsonl"], {"bad.jsonl": "[1]"}, 2,
        "editspan: error: ./bad.jsonl: line 1: expected a JSON object\n",
    ),
    "annotations-named-as-given": (
        ["extract", "pairs.tsv", "--provider", "sidecar", "--annotations", "./side.txt"],
        {"side.txt": "a\ta"}, 2,
        "editspan: error: ./side.txt: line 1: expected surface<TAB>lemma<TAB>pos\n",
    ),
    "open-ended-lone-surrogate": (
        DATASET + ["--open-ended", "bad.jsonl"],
        {"bad.jsonl": '{"instruction": "q\\ud800", "output": "a"}'}, 2,
        "editspan: error: bad.jsonl: line 1: instruction is not valid Unicode: "
        "it holds a lone surrogate\n",
    ),
    # the rest of the message differs between Python versions
    "open-ended-nested-deep": (
        DATASET + ["--open-ended", "deep.jsonl"], {"deep.jsonl": "[" * 10**5 + "]" * 10**5},
        2, "editspan: error: deep.jsonl: line 1: invalid JSON: ",
    ),
}


def _run_in(tmp_path, name: str, argv: list[str], files: dict) -> subprocess.CompletedProcess:
    """Run ``argv`` beside ``pairs.tsv``, ``open.jsonl`` and ``files``."""
    (tmp_path / "pairs.tsv").write_text(PAIRS, encoding="utf-8")
    (tmp_path / "open.jsonl").write_text(OPEN_ENDED, encoding="utf-8")
    for file_name, text in files.items():
        if text is DIRECTORY:
            (tmp_path / file_name).mkdir()
        else:
            (tmp_path / file_name).write_text(text + "\n", encoding="utf-8")
    return _run(name, argv, tmp_path)


@pytest.mark.parametrize("name", SETTINGS_CASES)
def test_hostile_settings_file(name, tmp_path):
    argv, files, code, expected_err = SETTINGS_CASES[name]
    result = _run_in(tmp_path, name, argv, files)
    assert result.returncode == code
    assert result.stderr.startswith(expected_err)
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    if name != "open-ended-nested-deep":
        assert result.stderr == expected_err
    assert result.stdout == ""
    assert not (tmp_path / "out.jsonl").exists()


def test_a_weight_given_twice_takes_its_later_value(tmp_path):
    # "a b" -> "b a" is a swap at the default weights, a delete and an
    # insert where a swap costs 5
    twice = "transpose_cost = 0.5\ntranspose_cost = 5.0"
    result = _run_in(tmp_path, "weights-twice", WEIGHTS, {"w.cfg": twice})
    assert (result.returncode, result.stdout, result.stderr) == (0, "0 0 b, 1 2\n", "")


def test_an_instruction_given_twice_takes_its_later_value(tmp_path):
    twice = "gec = First.\ngec = Second."
    argv = DATASET + ["--open-ended", "open.jsonl", "--instructions", "i.cfg"]
    result = _run_in(tmp_path, "instructions-twice", argv, {"i.cfg": twice})
    assert (result.returncode, result.stderr) == (0, "")
    records = (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()
    assert '{"instruction": "Second.", "input": "a b", "output": "0 2 b a", "task": "gec"}' in records


def test_a_directory_as_output_is_named_as_given(tmp_path):
    (tmp_path / "d").mkdir()
    result = _run_in(tmp_path, "output-directory", ["extract", "pairs.tsv", "-o", "d"], {})
    assert (result.returncode, result.stdout, result.stderr) == (1, "", _is_a_directory("d"))
    # the directory is untouched, and no temporary file is left
    assert list((tmp_path / "d").iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "open.jsonl", "pairs.tsv"]


GIVEN = "given"  # the file argument under test
# good inputs for every command
GOOD_FILES = {
    "pairs.tsv": PAIRS, "sources.txt": "a b\n", "spans.txt": "0 2 b a\n",
    "targets.txt": "b a\n", "open.jsonl": OPEN_ENDED,
}


def _write_good_files(directory) -> list[str]:
    for file_name, text in GOOD_FILES.items():
        (directory / file_name).write_text(text, encoding="utf-8")
    return sorted(GOOD_FILES)


# each command on the good inputs, and the file options it also takes
COMMANDS = {
    "extract": (["extract", "pairs.tsv", "-o", "out.jsonl"], ("--weights", "--annotations")),
    "apply": (["apply", "sources.txt", "spans.txt", "-o", "out.jsonl"], ()),
    "score": (
        ["score", "sources.txt", "spans.txt", "targets.txt"], ("--weights", "--annotations"),
    ),
    "roundtrip": (["roundtrip", "pairs.tsv"], ("--weights", "--annotations")),
    "build-dataset": (
        DATASET + ["--open-ended", "open.jsonl"], ("--weights", "--annotations", "--instructions"),
    ),
}


def _file_arguments() -> dict[str, list[str]]:
    """``command-argument``: the command line with that one file argument ``GIVEN``."""
    cases = {}
    for command, (argv, options) in COMMANDS.items():
        for at, arg in enumerate(argv):
            if arg in GOOD_FILES or arg == "out.jsonl":
                flag = argv[at - 1]
                name = flag.lstrip("-") if flag.startswith("-") else arg.partition(".")[0]
                cases[f"{command}-{name}"] = argv[:at] + [GIVEN] + argv[at + 1:]
        for option in options:
            sidecar = ["--provider", "sidecar"] if option == "--annotations" else []
            cases[f"{command}-{option.lstrip('-')}"] = argv + sidecar + [option, GIVEN]
    return cases


FILE_ARGUMENTS = _file_arguments()


@pytest.mark.parametrize("kind", ["empty", "directory"])
@pytest.mark.parametrize("name", FILE_ARGUMENTS)
def test_empty_file_or_directory_as_file_argument(name, kind, tmp_path):
    argv = FILE_ARGUMENTS[name]
    _write_good_files(tmp_path)
    given = tmp_path / GIVEN
    if kind == "directory":
        given.mkdir()
    else:
        given.write_text("", encoding="utf-8")
    before = sorted(p.name for p in tmp_path.iterdir())
    result = _run(f"{name}-{kind}", argv, tmp_path)
    assert result.returncode in (0, 1, 2), result.stderr
    after = sorted(p.name for p in tmp_path.iterdir())
    if result.returncode == 0 and "out.jsonl" in argv:
        assert after == sorted(before + ["out.jsonl"])
    else:
        # a failure writes no -o file and leaves no temporary file
        assert after == before
    if result.returncode:
        assert result.stderr.startswith("editspan: error: ") and result.stderr.count("\n") == 1
        # the argument under test is left as it was
        if kind == "directory":
            assert list(given.iterdir()) == []
        else:
            assert given.read_text(encoding="utf-8") == ""


# each command that takes -o, on the good inputs
OUTPUT_COMMANDS = {name: argv for name, (argv, _) in COMMANDS.items() if "out.jsonl" in argv}


def _output_to(argv: list[str], output: str) -> list[str]:
    return [output if arg == "out.jsonl" else arg for arg in argv]


@pytest.fixture(scope="module")
def regular_output(tmp_path_factory) -> dict[str, str]:
    """Each command's ``-o`` file from a run into a regular file, then its stdout."""
    outputs = {}
    for command, argv in OUTPUT_COMMANDS.items():
        directory = tmp_path_factory.mktemp(command)
        _write_good_files(directory)
        result = _run(command, argv, directory)
        assert (result.returncode, result.stderr) == (0, ""), command
        outputs[command] = (directory / "out.jsonl").read_text(encoding="utf-8") + result.stdout
    return outputs


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_output_to_stdout_in_a_pipe(command, jobs, regular_output, tmp_path):
    # a pipe cannot be replaced: it gets the -o file's bytes, then the run's stdout
    files = _write_good_files(tmp_path)
    argv = _output_to(OUTPUT_COMMANDS[command], "/dev/stdout") + ["--jobs", jobs]
    result = _run(command, argv, tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, regular_output[command], "")
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_output_to_a_pipe_named_by_its_descriptor(regular_output, tmp_path):
    # the shape of bash's `-o >(...)`: /dev/fd/N is a pipe the shell opened
    _write_good_files(tmp_path)
    read_end, write_end = os.pipe()
    with open(read_end, encoding="utf-8") as reader:
        try:
            argv = _output_to(OUTPUT_COMMANDS["extract"], f"/dev/fd/{write_end}")
            result = _run("pipe-descriptor", argv, tmp_path, pass_fds=(write_end,))
        finally:
            os.close(write_end)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert reader.read() == regular_output["extract"]


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_output_to_stdout_in_a_file_opened_for_append(command, regular_output, tmp_path):
    # as in `{ editspan ... -o /dev/stdout; echo after; } >> log`: the log is
    # written through, not replaced, so what the shell writes around it stays
    files = sorted(_write_good_files(tmp_path) + ["log.txt"])
    log = tmp_path / "log.txt"
    log.write_text("old\n", encoding="utf-8")
    with open(log, "a", encoding="utf-8") as stdout:
        argv = _output_to(OUTPUT_COMMANDS[command], "/dev/stdout")
        result = _run(command, argv, tmp_path, stdout=stdout)
        stdout.write("after\n")
    assert (result.returncode, result.stderr) == (0, "")
    assert log.read_text(encoding="utf-8") == "old\n" + regular_output[command] + "after\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == files


@pytest.mark.parametrize("shape", ["stderr", "descriptor", "name"])
def test_output_to_a_file_another_descriptor_appends_to(shape, regular_output, tmp_path):
    # as in `{ editspan ... -o /dev/stderr; echo after >&2; } 2>> log`, and with
    # `3>> log` given as `-o /dev/fd/3` or as `-o log`: the log is written
    # through that descriptor, not replaced, so what the shell writes stays
    files = sorted(_write_good_files(tmp_path) + ["log.txt"])
    log = tmp_path / "log.txt"
    log.write_text("old\n", encoding="utf-8")
    with open(log, "a", encoding="utf-8") as held:
        output, popen = {
            "stderr": ("/dev/stderr", {"stderr": held}),
            "descriptor": (f"/dev/fd/{held.fileno()}", {"pass_fds": (held.fileno(),)}),
            "name": ("log.txt", {"pass_fds": (held.fileno(),)}),
        }[shape]
        result = _run(shape, _output_to(OUTPUT_COMMANDS["extract"], output), tmp_path, **popen)
        held.write("after\n")
    assert (result.returncode, result.stdout) == (0, "")
    assert log.read_text(encoding="utf-8") == "old\n" + regular_output["extract"] + "after\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_output_that_stdin_reads_is_replaced_whole(regular_output, tmp_path):
    # `editspan extract pairs.tsv -o out.jsonl < out.jsonl`: a descriptor that
    # only reads the file cannot write it, so the file is replaced as usual
    files = sorted(_write_good_files(tmp_path) + ["out.jsonl"])
    output = tmp_path / "out.jsonl"
    output.write_text(OLD_OUTPUT, encoding="utf-8")
    with open(output, encoding="utf-8") as stdin:
        result = _run("stdin", OUTPUT_COMMANDS["extract"], tmp_path, stdin=stdin)
        assert os.stat(output).st_ino != os.fstat(stdin.fileno()).st_ino
        assert stdin.read() == OLD_OUTPUT
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert output.read_text(encoding="utf-8") == regular_output["extract"]
    assert sorted(p.name for p in tmp_path.iterdir()) == files


LONGEST = "a" * 251 + ".txt"  # 255 bytes, the longest name most file systems take


@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("command", ["extract", "build-dataset"])
def test_output_with_the_longest_name(command, exists, regular_output, tmp_path):
    files = sorted(_write_good_files(tmp_path) + [LONGEST])
    if exists:
        (tmp_path / LONGEST).write_text(OLD_OUTPUT, encoding="utf-8")
    result = _run(command, _output_to(OUTPUT_COMMANDS[command], LONGEST), tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    written = (tmp_path / LONGEST).read_text(encoding="utf-8")
    assert written + result.stdout == regular_output[command]
    assert sorted(p.name for p in tmp_path.iterdir()) == files


# -o: the error; "held" is a regular file and "fresh" is not there
DIRECTORY_OUTPUTS = {
    "held/": _is_a_directory("held/"),
    "fresh/": _is_a_directory("fresh/"),
    "held/.": "editspan: error: [Errno 20] Not a directory: 'held/.'\n",
    "fresh/.": "editspan: error: [Errno 2] No such file or directory: 'fresh/.'\n",
}


@pytest.mark.parametrize("output", DIRECTORY_OUTPUTS)
@pytest.mark.parametrize("command", ["extract", "build-dataset"])
def test_output_path_that_names_a_directory(command, output, tmp_path):
    # realpath drops the ending, but open refuses the path
    files = sorted(_write_good_files(tmp_path) + ["held"])
    (tmp_path / "held").write_text(OLD_OUTPUT, encoding="utf-8")
    result = _run(output, _output_to(OUTPUT_COMMANDS[command], output), tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (1, "", DIRECTORY_OUTPUTS[output])
    assert (tmp_path / "held").read_text(encoding="utf-8") == OLD_OUTPUT
    assert sorted(p.name for p in tmp_path.iterdir()) == files


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_output_to_stdout_in_a_pipe_holds_the_lines_before_a_bad_one(jobs, tmp_path):
    pairs = "a b\tb a\n" * 99 + "missing tab\n" + "a\tb\n" * 50
    (tmp_path / "pairs.tsv").write_text(pairs, encoding="utf-8")
    argv = ["extract", "pairs.tsv", "-o", "/dev/stdout", "--jobs", jobs]
    result = _run("bad-line-to-stdout", argv, tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "0 2 b a\n" * 99, "editspan: error: line 100: expected source<TAB>target, got 1 fields\n",
    )
    # no temporary file is left
    assert [p.name for p in tmp_path.iterdir()] == ["pairs.tsv"]
