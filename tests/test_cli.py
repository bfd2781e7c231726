"""End-to-end command-line behavior, exit codes, and stream discipline."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys

import pytest

from conftest import (
    CASH_SPANS,
    CASH_SRC,
    CASH_TGT,
    PRIVACY_SRC,
    PRIVACY_TGT,
    SCHOLARS_SPANS,
    SCHOLARS_SRC,
    SCHOLARS_TGT,
    checkout_env,
    random_pairs,
)
from editspan import alignment, cli
from editspan.cli import main
from editspan.dataset import (
    MixSpec,
    TASK_INSTRUCTIONS,
    build_task_records,
    read_dataset_jsonl,
    read_open_ended_jsonl,
    write_jsonl,
)
from editspan.errors import DataError
from reference import reference_mix_and_sample


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def pairs_file(tmp_path):
    return _write(
        tmp_path / "pairs.tsv",
        f"{SCHOLARS_SRC}\t{SCHOLARS_TGT}\n{CASH_SRC}\t{CASH_TGT}\n",
    )


def test_extract_writes_span_lines_to_stdout(pairs_file, capsys):
    assert main(["extract", pairs_file]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines() == [SCHOLARS_SPANS, CASH_SPANS]
    assert out.err == ""


def test_extract_output_file(pairs_file, tmp_path, capsys):
    out_path = tmp_path / "spans.txt"
    assert main(["extract", pairs_file, "-o", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8").splitlines() == [
        SCHOLARS_SPANS, CASH_SPANS,
    ]
    assert capsys.readouterr().out == ""


def test_extract_line_count_matches_input(tmp_path, capsys):
    pairs = random_pairs(seed=2, count=25, max_len=10)
    path = _write(tmp_path / "pairs.tsv", "".join(f"{s}\t{t}\n" for s, t in pairs))
    assert main(["extract", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 25


def test_extract_jobs_do_not_change_output(tmp_path, capsys):
    pairs = random_pairs(seed=4, count=40, max_len=12)
    path = _write(tmp_path / "pairs.tsv", "".join(f"{s}\t{t}\n" for s, t in pairs))
    assert main(["extract", path]) == 0
    sequential = capsys.readouterr().out
    assert main(["extract", path, "--jobs", "2"]) == 0
    assert capsys.readouterr().out == sequential


def test_extract_malformed_line_is_a_data_error(tmp_path, capsys):
    path = _write(tmp_path / "pairs.tsv", "a\tb\nmissing tab\n")
    assert main(["extract", path]) == 2
    assert "line 2" in capsys.readouterr().err


def test_extract_data_error_leaves_no_output_file(tmp_path, capsys):
    path = _write(tmp_path / "pairs.tsv", "a\tb\nmissing tab\n")
    out_path = tmp_path / "spans.txt"
    assert main(["extract", path, "-o", str(out_path)]) == 2
    assert not out_path.exists()
    out_path.write_text("earlier run\n", encoding="utf-8")
    assert main(["extract", path, "-o", str(out_path), "--jobs", "2"]) == 2
    assert out_path.read_text(encoding="utf-8") == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.tsv", "spans.txt"]


def test_output_that_cannot_be_replaced_is_written_in_place(pairs_file, capsys):
    assert main(["extract", pairs_file, "-o", os.devnull]) == 0
    assert not os.path.isfile(os.devnull)


def test_missing_input_file_is_a_usage_error(capsys):
    assert main(["extract", "/nonexistent/pairs.tsv"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_provider_is_a_usage_error(pairs_file, capsys):
    assert main(["extract", pairs_file, "--provider", "spacy"]) == 1


def test_sidecar_without_annotations_is_a_usage_error(pairs_file, capsys):
    assert main(["extract", pairs_file, "--provider", "sidecar"]) == 1
    assert "annotations" in capsys.readouterr().err


def test_flags_belong_to_their_commands(pairs_file, tmp_path, capsys):
    sources = _write(tmp_path / "src.txt", "a b c\n")
    spans = _write(tmp_path / "spans.txt", "None\n")
    assert main(["extract", pairs_file, "--report", "text"]) == 1
    assert main(["apply", sources, spans, "--seed", "1"]) == 1
    assert main(["apply", sources, spans, "--provider", "naive"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    # the naive provider would ignore a sidecar file
    annotations = _write(tmp_path / "annotations.tsv", "a\ta\tDET\n")
    assert main(["extract", pairs_file, "--annotations", annotations]) == 1
    assert "naive provider takes no annotations file" in capsys.readouterr().err


def _run_python(*args):
    """Run a fresh interpreter that imports this checkout's ``editspan``."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=checkout_env()
    )


def test_multiprocessing_is_imported_only_when_a_pool_starts(pairs_file):
    # the imports cost every command's start, so a serial run goes without them
    code = (
        "import sys\n"
        "import editspan.cli\n"
        "def check(when):\n"
        "    loaded = sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules))\n"
        "    assert not loaded, f'{loaded} {when}'\n"
        "check('on import')\n"
        f"assert editspan.cli.main(['extract', {pairs_file!r}, '--jobs', '1']) == 0\n"
        "check('after --jobs 1')\n"
    )
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [SCHOLARS_SPANS, CASH_SPANS]


def test_commands_start_without_dataclasses_or_inspect(tmp_path):
    # `dataclasses` pulls in `inspect`, which costs every command's start;
    # -S keeps out whatever `site` would import
    paths = {name: _write(tmp_path / f"{name}.in", text) for name, text in _INPUTS.items()}
    score = ["score", paths["sources"], paths["spans"], paths["targets"]]
    build = [a.format(out=tmp_path / "out.jsonl", **paths) for a in _DATASET_ARGV]
    code = (
        "import sys\n"
        "import editspan.cli\n"
        "def check(when):\n"
        "    loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "    assert not loaded, f'{loaded} {when}'\n"
        "check('on import')\n"
        f"assert editspan.cli.main({score!r}) == 0\n"
        "check('after score')\n"
        f"assert editspan.cli.main({build + ['--jobs', '1']!r}) == 0\n"
        "check('after build-dataset')\n"
    )
    result = _run_python("-S", "-c", code)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(pairs_file, value, capsys):
    assert main(["extract", pairs_file, "--jobs", value]) == 1
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("jobs", "cpus", "expected"), [(64, 2, 2), (2, 2, 2), (1, 8, 1), (3, 8, 3), (5, 1, 1)]
)
def test_jobs_are_clamped_to_usable_cpus(monkeypatch, jobs, cpus, expected):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    assert cli._worker_count(jobs) == expected


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_apply_rewrites_sources(tmp_path, capsys):
    sources = _write(tmp_path / "src.txt", f"{PRIVACY_SRC}\n{PRIVACY_SRC}\n")
    spans = _write(tmp_path / "spans.txt", "7 9 invading\n7 8 invading, 8 9\n")
    assert main(["apply", sources, spans]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines() == [PRIVACY_TGT, PRIVACY_TGT]
    assert out.err == ""


def test_apply_none_lines_leave_sources_unchanged(tmp_path, capsys):
    sources = _write(tmp_path / "src.txt", "a b c\n")
    spans = _write(tmp_path / "spans.txt", "None\n")
    assert main(["apply", sources, spans]) == 0
    assert capsys.readouterr().out.splitlines() == ["a b c"]


def test_apply_reports_ignored_fragments_on_stderr(tmp_path, capsys):
    sources = _write(tmp_path / "src.txt", "a b c\n")
    spans = _write(tmp_path / "spans.txt", "garbage, 1 2 x\n")
    assert main(["apply", sources, spans]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines() == ["a x c"]
    assert "ignored 1" in out.err


def test_apply_line_count_mismatch_is_a_data_error(tmp_path, capsys):
    sources = _write(tmp_path / "src.txt", "a\nb\n")
    spans = _write(tmp_path / "spans.txt", "None\n")
    assert main(["apply", sources, spans]) == 2
    assert "line counts differ" in capsys.readouterr().err


def test_position_past_the_int_digit_limit_is_an_ignored_fragment(tmp_path, capsys):
    sources = _write(tmp_path / "src.txt", "a b c\n")
    spans = _write(tmp_path / "spans.txt", "9" * 5000 + " 1 x, 1 2 y\n")
    targets = _write(tmp_path / "tgt.txt", "a y c\n")
    assert main(["apply", sources, spans]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines() == ["a y c"]
    assert out.err == "ignored 1 malformed fragment(s) across 1 line(s)\n"
    assert main(["score", sources, spans, targets]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ignored_fragments"] == 1 and report["f05"] == 1.0


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "counts", [(150, 149), (149, 150), (150, 150, 149), (150, 70, 150), (0, 150, 150)]
)
def test_line_count_mismatch_is_found_while_streaming(tmp_path, counts, jobs, capsys):
    # more lines than one 64-line pool chunk, so the error comes mid-stream
    names = ("sources", "spans", "targets")[:len(counts)]
    lines = {"sources": "a b c\n", "spans": "1 2 x\n", "targets": "a x c\n"}
    paths = [_write(tmp_path / f"{name}.txt", lines[name] * n) for name, n in zip(names, counts)]
    out_path = tmp_path / "out.txt"
    if len(counts) == 2:
        argv = ["apply", *paths, "-o", str(out_path), "--jobs", jobs]
    else:
        argv = ["score", *paths, "--jobs", jobs]
    assert main(argv) == 2
    listing = ", ".join(f"{name} has {n}" for name, n in zip(names, counts))
    assert capsys.readouterr().err == f"editspan: error: line counts differ: {listing}\n"
    assert not out_path.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.txt" for n in names)


def test_apply_data_error_leaves_earlier_output_untouched(tmp_path, monkeypatch, capsys):
    sources = _write(tmp_path / "src.txt", "a b c\nd e f\ng h\n")
    spans = _write(tmp_path / "spans.txt", "None\nNone\nNone\n")
    out_path = tmp_path / "out.txt"
    out_path.write_text("earlier run\n", encoding="utf-8")
    apply_one = cli._apply_one

    def fail_on_line_two(row):
        if row[0] == "d e f":
            raise DataError("line 2: unreadable")
        return apply_one(row)

    monkeypatch.setattr(cli, "_apply_one", fail_on_line_two)
    assert main(["apply", sources, spans, "-o", str(out_path)]) == 2
    assert out_path.read_text(encoding="utf-8") == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "spans.txt", "src.txt"]
    monkeypatch.setattr(cli, "_apply_one", apply_one)
    assert main(["apply", sources, spans, "-o", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8") == "a b c\nd e f\ng h\n"


def test_score_reports_hand_computed_values(tmp_path, capsys):
    sources = _write(tmp_path / "src.txt", "a b c\na b c\na b c d\n")
    spans = _write(tmp_path / "spans.txt", "None\n1 2 x\n0 1, 1 2 b\n")
    targets = _write(tmp_path / "tgt.txt", "a b c\na x c\na b c\n")
    assert main(["score", sources, spans, targets]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pairs"] == 3
    assert report["agreement_rate"] == pytest.approx(2 / 3)
    assert report["mean_ratio"] == pytest.approx(1.0)
    assert report["precision"] == pytest.approx(1 / 3)
    assert report["recall"] == pytest.approx(1 / 2)
    assert report["f05"] == pytest.approx(5 / 14)
    assert report["ignored_fragments"] == 0


def test_score_text_report(tmp_path, capsys):
    sources = _write(tmp_path / "src.txt", "a b\n")
    spans = _write(tmp_path / "spans.txt", "None\n")
    targets = _write(tmp_path / "tgt.txt", "a b\n")
    assert main(["score", sources, spans, targets, "--report", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("pairs: ") for line in lines)
    assert any(line.startswith("f05: ") for line in lines)


def test_score_sidecar_without_the_hypothesis_output_is_a_data_error(tmp_path, capsys):
    # the sidecar holds the source and the target, but not "a x c", the
    # sentence the hypothesis spans make, which scoring has to annotate
    sources = _write(tmp_path / "src.txt", "a b c\n")
    spans = _write(tmp_path / "spans.txt", "1 2 x\n")
    targets = _write(tmp_path / "tgt.txt", "a d c\n")
    sidecar = _write(
        tmp_path / "annotations.tsv",
        "a\ta\tDET\nb\tb\tNOUN\nc\tc\tNOUN\n\na\ta\tDET\nd\td\tNOUN\nc\tc\tNOUN\n",
    )
    argv = ["score", sources, spans, targets, "--provider", "sidecar", "--annotations", sidecar]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "no sidecar annotations for sentence: 'a x c'" in out.err


def test_score_counts_a_runaway_hypothesis_as_not_agreeing(tmp_path, capsys):
    # a 60,000-token repetition loop makes the hypothesis's result too long to
    # align within the cell budget; that pair does not agree, the rest score
    source = " ".join(f"w{i}" for i in range(20))
    sources = _write(tmp_path / "src.txt", f"{source}\n{source}\n")
    loop = " ".join(["x"] * 60000)
    spans = _write(tmp_path / "spans.txt", f"20 20 {loop}\n20 20 .\n")
    targets = _write(tmp_path / "tgt.txt", f"{source} .\n{source} .\n")
    assert main(["score", sources, spans, targets]) == 0
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert list(report) == [
        "pairs", "agreement_rate", "mean_ratio", "precision", "recall", "f05",
        "ignored_fragments",
    ]
    assert (report["pairs"], report["agreement_rate"], report["precision"]) == (2, 0.5, 0.5)
    assert out.err == (
        f"{spans}: line 1: the hypothesis's result is too long to align; "
        "counted as not agreeing\n"
    )


def test_score_line_count_mismatch(tmp_path, capsys):
    sources = _write(tmp_path / "src.txt", "a\n")
    spans = _write(tmp_path / "spans.txt", "None\n")
    targets = _write(tmp_path / "tgt.txt", "a\nb\n")
    assert main(["score", sources, spans, targets]) == 2


def test_roundtrip_passes_on_adversarial_corpus(tmp_path, capsys):
    pairs = random_pairs(seed=9, count=120, max_len=14)
    pairs += [
        (SCHOLARS_SRC, SCHOLARS_TGT),
        ("¿qué? … ¿qué? …", "… ¿qué? ¿qué?"),
        ("a a a a", "a a"),
        ("", "now full"),
        ("gone entirely", ""),
    ]
    path = _write(tmp_path / "pairs.tsv", "".join(f"{s}\t{t}\n" for s, t in pairs))
    assert main(["roundtrip", path]) == 0
    out = capsys.readouterr().out
    assert f"roundtrip: {len(pairs)}/{len(pairs)} pair(s) ok" in out


def test_roundtrip_fails_when_wire_format_cannot_carry_the_pair(tmp_path, capsys):
    # a replacement whose comma is followed by two integers re-parses as a
    # fragment boundary, so this pair cannot survive serialize -> parse
    path = _write(tmp_path / "pairs.tsv", "a b\ta x , 4 4 b\n")
    assert main(["roundtrip", path]) == 2
    assert capsys.readouterr().out == (
        "line 1: serialized spans did not parse back cleanly\n"
        "roundtrip: 0/1 pair(s) ok\n"
    )


def test_roundtrip_fails_when_spans_parse_back_to_another_edit(tmp_path, capsys):
    # the spans are "0 1 x , 2 3": two clean fragments, where the comma and
    # the integers after it were meant as part of the first replacement
    path = _write(tmp_path / "pairs.tsv", "a b c\tx , 2 3 b c\n")
    assert main(["roundtrip", path]) == 2
    assert capsys.readouterr().out == (
        "line 1: roundtrip mismatch: 'x b' != 'x , 2 3 b c'\n"
        "roundtrip: 0/1 pair(s) ok\n"
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_ends_the_command_quietly(tmp_path, jobs):
    # more output than a pipe buffer holds, so a write fails once the
    # reader has gone
    pairs = _write(tmp_path / "pairs.tsv", f"a\t{'x' * 1000}\n" * 300)
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "editspan.cli",
            "extract", pairs, "--jobs", jobs]
    with open(tmp_path / "stderr.txt", "w+b") as err:
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=checkout_env()
        ) as proc:
            try:
                assert proc.stdout.read(5) == b"0 1 x"
                proc.stdout.close()
                assert proc.wait(timeout=60) == 1
            finally:
                proc.kill()
        err.seek(0)
        assert err.read() == b""


_SOURCE_20 = " ".join(f"w{i}" for i in range(20)) + "\n"
_FAILING_RUNS = {
    # a malformed line past the first 64-line chunk
    "extract-bad-line": (
        ["extract", "{pairs}"], {"pairs": "a b c\ta x c\n" * 99 + "missing tab\n" + "a\tb\n" * 50},
    ),
    # more sources than span lines, over more than one chunk
    "apply-short-spans": (
        ["apply", "{sources}", "{spans}"], {"sources": "a b c\n" * 200, "spans": "1 2 x\n" * 150},
    ),
    # line 1's hypothesis is too long to align, which is noted on stderr; line
    # 2's gold target is past the budget, a data error in the same chunk
    "score-note-then-error": (
        ["score", "{sources}", "{spans}", "{targets}"],
        {
            "sources": _SOURCE_20 * 2 + "a b\n",
            "spans": "20 20 " + " ".join(["x"] * 60000) + "\nNone\nNone\n",
            "targets": _SOURCE_20.replace("\n", " .\n") + " ".join(["y"] * 60000) + "\na b\n",
        },
    ),
    "extract-empty": (["extract", "{pairs}"], {"pairs": ""}),
}


@pytest.mark.parametrize("case", sorted(_FAILING_RUNS))
def test_jobs_never_change_what_a_failing_command_printed(tmp_path, monkeypatch, case, capsys):
    # a pool fails a chunk whole, yet every line before the error is printed
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv, files = _FAILING_RUNS[case]
    paths = {name: _write(tmp_path / f"{name}.txt", text) for name, text in files.items()}
    argv = [arg.format(**paths) for arg in argv]
    runs = []
    for jobs in ("1", "2"):
        code = main(argv + ["--jobs", jobs])
        out = capsys.readouterr()
        runs.append((code, out.out, out.err))
    assert runs[1] == runs[0]
    assert runs[0][0] == (0 if case == "extract-empty" else 2)


def test_a_dead_worker_ends_the_command(tmp_path):
    # A worker killed part way, as by the kernel's out-of-memory killer, ends
    # the command with a data error, no output file and no process left.
    # Workers are forked, so the patched extract_line reaches them. A chunk
    # of these lines outgrows a pipe's buffer, which hangs Python 3.10's exit
    # unless the pool's call queue is left unjoined (README "CLI").
    side = " ".join(["w"] * 400)
    pairs = _write(tmp_path / "pairs.tsv", f"{side} a\t{side} b\n" * 1200)
    out_path = tmp_path / "spans.txt"
    out_path.write_text("earlier run\n", encoding="utf-8")
    code = (
        "import os, signal, sys\n"
        "import editspan.cli as cli\n"
        "parent, extract_line = os.getpid(), cli.extract_line\n"
        "def dying(line, lineno, provider, weights):\n"
        "    if lineno == 100 and os.getpid() != parent:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return extract_line(line, lineno, provider, weights)\n"
        "cli.extract_line, cli._usable_cpus = dying, lambda: 2\n"
        f"sys.exit(cli.main(['extract', {pairs!r}, '--jobs', '2', '-o', {str(out_path)!r}]))\n"
    )
    with subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=checkout_env(), start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=10)
        finally:
            try:  # a process left in the group fails the test below, and is ended here
                os.killpg(proc.pid, signal.SIGKILL)
                left = True
            except ProcessLookupError:
                left = False
    assert (proc.returncode, out, err) == (2, b"", b"editspan: error: a worker process died\n")
    assert out_path.read_text(encoding="utf-8") == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.tsv", "spans.txt"]
    assert not left


def test_weights_file_changes_extraction(tmp_path, capsys):
    # transposition dearer than delete + insert: the swap stops using TRANS
    pairs = _write(tmp_path / "pairs.tsv", "a b\tb a\n")
    weights = _write(tmp_path / "weights.cfg", "transpose_cost = 5.0\n")
    assert main(["extract", pairs]) == 0
    default_out = capsys.readouterr().out
    assert main(["extract", pairs, "--weights", weights]) == 0
    tuned_out = capsys.readouterr().out
    assert default_out != tuned_out


def test_weights_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    pairs = _write(tmp_path / "pairs.tsv", "a b\tb a\n")
    plain = _write(tmp_path / "plain.cfg", "transpose_cost = 5.0\n")
    marked = _write(tmp_path / "marked.cfg", "\ufefftranspose_cost = 5.0\n")
    assert main(["extract", pairs, "--weights", plain]) == 0
    plain_out = capsys.readouterr().out
    assert main(["extract", pairs, "--weights", marked]) == 0
    assert capsys.readouterr().out == plain_out


def test_bad_weights_file_is_a_usage_error(tmp_path, capsys):
    pairs = _write(tmp_path / "pairs.tsv", "a\ta\n")
    weights = _write(tmp_path / "weights.cfg", "w_bogus = 1\n")
    assert main(["extract", pairs, "--weights", weights]) == 1
    assert "w_bogus" in capsys.readouterr().err


def test_weights_past_the_maximum_are_a_usage_error(tmp_path, capsys):
    # their sums would overflow: every path would cost inf
    pairs = _write(tmp_path / "pairs.tsv", "a b c d e\ta c d e f\n")
    weights = _write(tmp_path / "weights.cfg", "insert_cost = 1e308\ndelete_cost = 1e308\n")
    assert main(["extract", pairs, "--weights", weights]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "insert_cost must be at most 1e+300" in out.err


def test_pair_past_the_alignment_budget_is_a_data_error(tmp_path, capsys):
    # two unrelated 1500-token sentences: the band the first pass prices as
    # needed has about 1.8M of the table's 2.25M cells
    src = " ".join(f"s{i}" for i in range(1500))
    tgt = " ".join(f"t{i}" for i in range(1500))
    pairs = _write(tmp_path / "pairs.tsv", f"a\tb\n{src}\t{tgt}\n")
    out_path = tmp_path / "spans.txt"
    assert main(["extract", pairs, "-o", str(out_path)]) == 2
    assert "more than the budget of" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("line", ["w_char = nan", "insert_cost = inf", "w_pos = -inf"])
def test_weights_that_are_not_finite_are_a_usage_error(tmp_path, line, capsys):
    pairs = _write(tmp_path / "pairs.tsv", "a b\ta c\n")
    weights = _write(tmp_path / "weights.cfg", line + "\n")
    assert main(["extract", pairs, "--weights", weights]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{line.split()[0]} must be finite" in out.err


def test_extract_with_sidecar_provider(tmp_path, capsys):
    pairs = _write(tmp_path / "pairs.tsv", "The cats ran\tThe cat ran\n")
    annotations = _write(
        tmp_path / "annotations.tsv",
        "The\tthe\tDET\ncats\tcat\tNOUN\nran\trun\tVERB\n"
        "\n"
        "The\tthe\tDET\ncat\tcat\tNOUN\nran\trun\tVERB\n",
    )
    code = main([
        "extract", pairs, "--provider", "sidecar", "--annotations", annotations,
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["1 2 cat"]


def _dataset_args(tmp_path, seed="7"):
    corpora = {}
    for task in TASK_INSTRUCTIONS:
        rows = [f"src {task} sentence {j}\tsrc {task} line {j}\n" for j in range(3)]
        corpora[task] = _write(tmp_path / f"{task}.tsv", "".join(rows))
    open_path = _write(
        tmp_path / "open.jsonl",
        "".join(
            json.dumps({"instruction": f"q{i}", "input": "", "output": f"a{i}"}) + "\n"
            for i in range(5)
        ),
    )
    return [
        "build-dataset",
        "--gec", corpora["gec"],
        "--paraphrase", corpora["paraphrase"],
        "--style", corpora["style"],
        "--simplify", corpora["simplify"],
        "--open-ended", open_path,
        "--per-task", "2",
        "--open-count", "3",
        "--seed", seed,
    ]


def test_build_dataset_mixes_and_reports_counts(tmp_path, capsys):
    out_path = tmp_path / "mix.jsonl"
    assert main(_dataset_args(tmp_path) + ["--output", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "gec 2" in printed and "open_ended 3" in printed and "total 11" in printed
    records = read_dataset_jsonl(out_path)
    assert len(records) == 11
    open_records = [r for r in records if r.task == "open_ended"]
    assert all(r.instruction.startswith("q") and r.output.startswith("a") for r in open_records)
    task_records = [r for r in records if r.task != "open_ended"]
    assert all(r.instruction == TASK_INSTRUCTIONS[r.task] for r in task_records)


def test_build_dataset_same_seed_is_byte_identical(tmp_path):
    first, second = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert main(_dataset_args(tmp_path) + ["--output", str(first)]) == 0
    assert main(_dataset_args(tmp_path) + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_build_dataset_insufficient_records_is_a_data_error(tmp_path, capsys):
    args = _dataset_args(tmp_path)
    args[args.index("--per-task") + 1] = "99"
    assert main(args + ["--output", str(tmp_path / "mix.jsonl")]) == 2
    assert "need 99" in capsys.readouterr().err


def test_build_dataset_instruction_override(tmp_path, capsys):
    overrides = _write(tmp_path / "instructions.cfg", "gec = Fix the grammar.\n")
    out_path = tmp_path / "mix.jsonl"
    args = _dataset_args(tmp_path) + ["--output", str(out_path), "--instructions", overrides]
    assert main(args) == 0
    records = read_dataset_jsonl(out_path)
    gec = [r for r in records if r.task == "gec"]
    assert all(r.instruction == "Fix the grammar." for r in gec)
    others = [r for r in records if r.task == "style"]
    assert all(r.instruction == TASK_INSTRUCTIONS["style"] for r in others)


def test_instructions_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    overrides = _write(tmp_path / "instructions.cfg", "\ufeffgec = Fix the grammar.\n")
    out_path = tmp_path / "mix.jsonl"
    args = _dataset_args(tmp_path) + ["--output", str(out_path), "--instructions", overrides]
    assert main(args) == 0
    gec = [r for r in read_dataset_jsonl(out_path) if r.task == "gec"]
    assert gec and all(r.instruction == "Fix the grammar." for r in gec)


def test_build_dataset_unknown_override_task(tmp_path, capsys):
    overrides = _write(tmp_path / "instructions.cfg", "translation = Translate.\n")
    args = _dataset_args(tmp_path) + [
        "--output", str(tmp_path / "mix.jsonl"), "--instructions", overrides,
    ]
    assert main(args) == 1


@pytest.mark.parametrize("flag", ["--per-task", "--open-count"])
def test_negative_sample_count_is_a_usage_error(tmp_path, flag, capsys):
    args = _dataset_args(tmp_path)
    args[args.index(flag) + 1] = "-1"
    out_path = tmp_path / "mix.jsonl"
    assert main(args + ["--output", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 0, got -1" in err
    assert not out_path.exists()


def _large_corpora(tmp_path, seed, valid_lines):
    """Four corpora bigger than a sample, with malformed lines among the pairs."""
    rng = random.Random(seed)
    paths = {}
    for k, task in enumerate(TASK_INSTRUCTIONS):
        pairs = random_pairs(seed=100 * seed + k, count=valid_lines, max_len=12)
        lines = [f"{s}\t{t}" for s, t in pairs]
        for bad in ("no tab here", "one\ttwo\tthree", ""):
            lines.insert(rng.randrange(len(lines) + 1), bad)
        paths[task] = _write(tmp_path / f"{task}.tsv", "\n".join(lines) + "\n")
    open_path = _write(
        tmp_path / "open.jsonl",
        "".join(
            json.dumps({"instruction": f"q{i}", "input": f"x{i}", "output": f"a{i}"}) + "\n"
            for i in range(12)
        ),
    )
    corpora = [a for task, path in paths.items() for a in (f"--{task}", path)]
    return paths, ["build-dataset", *corpora, "--open-ended", open_path]


def _library_dataset(paths, open_path, spec, overrides, out_path):
    """The dataset built by aligning every line, then sampling the records."""
    task_sets, notes = {}, []
    for task, path in paths.items():
        with open(path, encoding="utf-8") as handle:
            lines = [line.rstrip("\r\n") for line in handle]
        task_sets[task], skipped = build_task_records(
            lines, task, instruction=overrides.get(task)
        )
        notes += [f"{path}: skipped {note}\n" for note in skipped]
    open_ended = read_open_ended_jsonl(open_path)
    write_jsonl(reference_mix_and_sample(task_sets, open_ended, spec), out_path)
    return "".join(notes)


@pytest.mark.parametrize(
    ("seed", "per_task", "open_count", "jobs"),
    [(0, 7, 5, "1"), (1, 0, 0, "1"), (2, 30, 12, "1"), (3, 11, 3, "2"), (4, 30, 0, "2")],
)
def test_build_dataset_matches_the_align_everything_pipeline(
    tmp_path, seed, per_task, open_count, jobs, capsys
):
    paths, args = _large_corpora(tmp_path, seed, valid_lines=30)
    overrides = {"gec": "Fix the grammar.", "simplify": ""} if seed % 2 else {}
    config = "".join(f"{task} = {text}\n" for task, text in overrides.items())
    args += [
        "--instructions", _write(tmp_path / "instructions.cfg", config),
        "--seed", str(seed), "--per-task", str(per_task), "--open-count", str(open_count),
    ]
    out_path, ref_path = tmp_path / "mix.jsonl", tmp_path / "ref.jsonl"
    assert main(args + ["--jobs", jobs, "-o", str(out_path)]) == 0
    err = capsys.readouterr().err
    spec = MixSpec(per_task, open_count, seed)
    notes = _library_dataset(paths, str(tmp_path / "open.jsonl"), spec, overrides, ref_path)
    assert err == notes and notes.count("skipped") == 12
    assert out_path.read_bytes() == ref_path.read_bytes()
    assert len(read_dataset_jsonl(out_path)) == 4 * per_task + open_count


def test_build_dataset_aligns_only_the_sampled_lines(tmp_path, monkeypatch, capsys):
    # extraction and ``align`` share one band fill; count that
    calls = []
    real_fill = alignment._fill_band

    def counting_fill(*args):
        calls.append(args)
        return real_fill(*args)

    monkeypatch.setattr(alignment, "_fill_band", counting_fill)
    paths, args = _large_corpora(tmp_path, seed=5, valid_lines=30)
    args += ["--per-task", "4", "--open-count", "2", "-o", str(tmp_path / "mix.jsonl")]
    assert main(args) == 0
    assert len(calls) == 4 * 4
    # the counter sees every alignment the library pipeline makes
    calls.clear()
    with open(paths["gec"], encoding="utf-8") as handle:
        build_task_records(handle, "gec")
    assert len(calls) == 30


def test_build_dataset_unsampled_line_missing_from_sidecar_is_a_data_error(
    tmp_path, capsys
):
    args = _dataset_args(tmp_path)
    blocks = []
    for task in TASK_INSTRUCTIONS:
        for j in range(3):
            for sentence in (f"src {task} sentence {j}", f"src {task} line {j}"):
                if sentence != "src style line 2":
                    blocks.append("".join(f"{w}\t{w}\tOTHER\n" for w in sentence.split()))
    sidecar = _write(tmp_path / "annotations.tsv", "\n".join(blocks))
    args[args.index("--per-task") + 1] = "0"
    out_path = tmp_path / "mix.jsonl"
    args += ["--provider", "sidecar", "--annotations", sidecar, "-o", str(out_path)]
    assert main(args) == 2
    assert "no sidecar annotations for sentence: 'src style line 2'" in capsys.readouterr().err
    assert not out_path.exists()


# one small file of every input kind; two lines each, so an ending shows
_INPUTS = {
    "pairs": "a b\ta c\nthe cat\tthe cats\n",
    "gec": "a b\ta c\nb a\tb c\n",
    "paraphrase": "x y\tx z\ny x\tz x\n",
    "style": "p q\tp r\nq p\tr p\n",
    "simplify": "u v w\tu w\nw v u\tw u\n",
    "sources": "a b\nthe cat\n",
    "spans": "1 2 c\n2 2 sat\n",
    "targets": "a c\nthe cat sat\n",
    "open": (
        '{"instruction": "q", "output": "a"}\n'
        '{"instruction": "r", "input": "i", "output": "b"}\n'
    ),
    "sidecar": (
        "a\ta\tDET\nb\tb\tNOUN\n\na\ta\tDET\nc\tc\tNOUN\n\n"
        "the\tthe\tDET\ncat\tcat\tNOUN\n\nthe\tthe\tDET\ncats\tcat\tNOUN\n"
    ),
    "weights": "# no swaps\ntranspose_cost = 5.0\n",
    "instructions": "gec = Fix it.\nstyle = Make it formal.\n",
}

# every corpus line and open-ended record is sampled
_DATASET_ARGV = [
    "build-dataset", "--gec", "{gec}", "--paraphrase", "{paraphrase}", "--style", "{style}",
    "--simplify", "{simplify}", "--open-ended", "{open}", "--per-task", "2",
    "--open-count", "2", "--instructions", "{instructions}", "-o", "{out}",
]


@pytest.mark.parametrize(
    ("argv", "bad", "code"),
    [
        (["extract", "{pairs}", "--weights", "{weights}", "-o", "{out}"], "pairs", 2),
        (["extract", "{pairs}", "--jobs", "2", "-o", "{out}"], "pairs", 2),
        (["extract", "{pairs}", "--weights", "{weights}", "-o", "{out}"], "weights", 1),
        (["roundtrip", "{pairs}"], "pairs", 2),
        (["apply", "{sources}", "{spans}", "-o", "{out}"], "sources", 2),
        (["apply", "{sources}", "{spans}", "-o", "{out}"], "spans", 2),
        (["score", "{sources}", "{spans}", "{targets}"], "targets", 2),
        (_DATASET_ARGV, "gec", 2),
        (_DATASET_ARGV, "open", 2),
        (_DATASET_ARGV + ["--provider", "sidecar", "--annotations", "{sidecar}"], "sidecar", 2),
        (_DATASET_ARGV, "instructions", 1),
    ],
    ids=[
        "extract-pairs", "extract-jobs2-pairs", "extract-weights", "roundtrip-pairs",
        "apply-sources", "apply-spans", "score-targets", "build-dataset-corpus",
        "build-dataset-open-ended", "build-dataset-sidecar", "build-dataset-instructions",
    ],
)
def test_input_that_is_not_utf8_is_a_clean_error(tmp_path, argv, bad, code, capsys):
    paths = {name: _write(tmp_path / f"{name}.in", text) for name, text in _INPUTS.items()}
    (tmp_path / f"{bad}.in").write_bytes(b"\xff" + _INPUTS[bad].encode("utf-8"))
    out_path = tmp_path / "out.txt"
    assert main([a.format(out=out_path, **paths) for a in argv]) == code
    err = capsys.readouterr().err
    assert f"{paths[bad]}: not valid UTF-8 text" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.in" for n in _INPUTS)


# a command that reads each input kind
_READERS = {
    "pairs": ["extract", "{pairs}", "-o", "{out}"],
    "gec": _DATASET_ARGV,
    "paraphrase": _DATASET_ARGV,
    "style": _DATASET_ARGV,
    "simplify": _DATASET_ARGV,
    "sidecar": [
        "extract", "{pairs}", "--provider", "sidecar", "--annotations", "{sidecar}",
        "-o", "{out}",
    ],
    "open": _DATASET_ARGV,
    "sources": ["apply", "{sources}", "{spans}", "-o", "{out}"],
    "spans": ["apply", "{sources}", "{spans}", "-o", "{out}"],
    "targets": ["score", "{sources}", "{spans}", "{targets}"],
    "weights": ["extract", "{pairs}", "--weights", "{weights}", "-o", "{out}"],
    "instructions": _DATASET_ARGV,
}


@pytest.mark.parametrize("variant", ["bom", "crlf", "cr"])
@pytest.mark.parametrize("name", list(_READERS))
def test_bom_and_line_endings_read_like_a_plain_lf_file(tmp_path, name, variant, capsys):
    paths = {n: _write(tmp_path / f"{n}.in", text) for n, text in _INPUTS.items()}
    out_path = tmp_path / "out.txt"
    argv = [a.format(out=out_path, **paths) for a in _READERS[name]]

    def run():
        code = main(argv)
        streams = capsys.readouterr()
        written = out_path.read_bytes() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        return code, streams.out, streams.err, written

    plain = run()
    assert plain[0] == 0
    text = _INPUTS[name]
    changed = {
        "bom": "\ufeff" + text,
        "crlf": text.replace("\n", "\r\n"),
        "cr": text.replace("\n", "\r"),
    }[variant]
    (tmp_path / f"{name}.in").write_bytes(changed.encode("utf-8"))
    assert run() == plain


@pytest.mark.parametrize(
    "argv", [["extract", "{pairs}", "-o", "{out}"], _DATASET_ARGV],
    ids=["extract", "build-dataset"],
)
def test_output_into_a_missing_directory_names_the_given_path(
    tmp_path, monkeypatch, argv, capsys
):
    monkeypatch.chdir(tmp_path)
    paths = {name: _write(tmp_path / f"{name}.in", text) for name, text in _INPUTS.items()}
    assert main([a.format(out="nodir/out.txt", **paths) for a in argv]) == 1
    assert capsys.readouterr() == (
        "", "editspan: error: [Errno 2] No such file or directory: 'nodir/out.txt'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.in" for n in _INPUTS)


def test_build_dataset_open_ended_error_names_the_file_as_given(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    args = _dataset_args(tmp_path)
    _write(tmp_path / "open.jsonl", '{"instruction": "q", "output": "a"}\n[1]\n')
    args[args.index("--open-ended") + 1] = "./open.jsonl"
    assert main(args + ["-o", "mix.jsonl"]) == 2
    out = capsys.readouterr()
    assert out.err == "editspan: error: open.jsonl: line 2: expected a JSON object\n"
    assert out.out == ""
    assert not (tmp_path / "mix.jsonl").exists()


@pytest.mark.parametrize("open_count", ["0", "5"])
def test_build_dataset_lone_surrogate_is_a_data_error_sampled_or_not(
    tmp_path, open_count, capsys
):
    args = _dataset_args(tmp_path)
    open_path = tmp_path / "open.jsonl"
    lines = open_path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = '{"instruction": "q", "input": "x\\ud800", "output": "a"}\n'
    open_path.write_text("".join(lines), encoding="utf-8")
    args[args.index("--open-count") + 1] = open_count
    out_path = tmp_path / "mix.jsonl"
    assert main(args + ["-o", str(out_path)]) == 2
    assert capsys.readouterr().err == (
        f"editspan: error: {open_path}: line 3: input is not valid Unicode: "
        "it holds a lone surrogate\n"
    )
    assert not out_path.exists()


@pytest.mark.parametrize(("per_task", "open_count"), [("2", "3"), ("0", "0"), ("1", "5")])
def test_build_dataset_summary_lists_every_task_in_order(
    tmp_path, per_task, open_count, capsys
):
    args = _dataset_args(tmp_path)
    args[args.index("--per-task") + 1] = per_task
    args[args.index("--open-count") + 1] = open_count
    assert main(args + ["-o", str(tmp_path / "mix.jsonl")]) == 0
    total = 4 * int(per_task) + int(open_count)
    assert capsys.readouterr().out == (
        f"gec {per_task}\nparaphrase {per_task}\nstyle {per_task}\n"
        f"simplify {per_task}\nopen_ended {open_count}\ntotal {total}\n"
    )
