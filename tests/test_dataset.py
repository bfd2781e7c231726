"""Record construction, deterministic mixing, validation, and JSONL round trips."""

from __future__ import annotations

import json
import random
import sys
from collections import Counter

import pytest

from editspan import alignment
from editspan.dataset import (
    DatasetRecord,
    MixSpec,
    OPEN_ENDED_TASK,
    TASK_INSTRUCTIONS,
    build_task_records,
    mix_and_sample,
    read_dataset_jsonl,
    read_open_ended_jsonl,
    scan_pair_lines,
    write_jsonl,
)
from editspan.errors import ConfigError, DataError
from editspan.text import SidecarProvider
from reference import reference_mix_and_sample, validate_dataset


def test_instruction_strings_are_fixed():
    assert TASK_INSTRUCTIONS == {
        "gec": "Rewrite the input text into grammatically correct text.",
        "paraphrase": "Rewrite the input text into paraphrased text.",
        "style": "Rewrite the input text into formal text.",
        "simplify": "Rewrite the input text into simpler text.",
    }


def test_build_task_records_basics():
    lines = [
        "she go to school\tshe goes to school",
        "all fine here\tall fine here",
    ]
    records, skipped = build_task_records(lines, "gec")
    assert skipped == []
    assert [r.task for r in records] == ["gec", "gec"]
    assert all(r.instruction == TASK_INSTRUCTIONS["gec"] for r in records)
    assert records[0].input == "she go to school"
    assert records[0].output == "1 2 goes"
    assert records[1].output == "None"


def test_build_task_records_skips_malformed_lines():
    lines = ["good\tpair", "no tab at all", "too\tmany\ttabs"]
    records, skipped = build_task_records(lines, "paraphrase")
    assert len(records) == 1
    assert len(skipped) == 2
    assert "line 2" in skipped[0] and "line 3" in skipped[1]


def test_build_task_records_missing_annotations_are_not_skipped(tmp_path):
    # only malformed lines are skipped; a provider's data error stops the build
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text("good\tgood\tADJ\n\npair\tpair\tNOUN\n", encoding="utf-8")
    provider = SidecarProvider.from_file(sidecar)
    records, skipped = build_task_records(["good\tpair", "no tab"], "gec", provider)
    assert len(records) == 1 and len(skipped) == 1
    with pytest.raises(DataError, match="no sidecar annotations"):
        build_task_records(["good\tpair", "unknown\tpair"], "gec", provider)


def test_build_task_records_normalizes_input_whitespace():
    records, _ = build_task_records(["a  b\ta c"], "simplify")
    assert records[0].input == "a b"


def test_build_task_records_unknown_task():
    with pytest.raises(ConfigError):
        build_task_records([], "translation")


def test_build_task_records_instruction_override():
    records, _ = build_task_records(["a\tb"], "style", instruction="Make it formal.")
    assert records[0].instruction == "Make it formal."
    assert records[0].task == "style"


def test_dataset_record_rejects_unknown_task():
    with pytest.raises(ValueError):
        DatasetRecord("i", "x", "None", "translation")


def test_mix_spec_defaults():
    spec = MixSpec()
    assert spec.per_task_count == 3000
    assert spec.open_ended_count == 13000
    with pytest.raises(ValueError):
        MixSpec(per_task_count=-1)


def _toy_sets():
    task_sets = {
        task: [
            DatasetRecord(TASK_INSTRUCTIONS[task], f"{task} input {i}", "None", task)
            for i in range(6)
        ]
        for task in TASK_INSTRUCTIONS
    }
    open_ended = [
        DatasetRecord(f"question {i}", "", f"answer {i}", OPEN_ENDED_TASK)
        for i in range(9)
    ]
    return task_sets, open_ended


def test_mix_and_sample_counts_and_membership():
    task_sets, open_ended = _toy_sets()
    spec = MixSpec(per_task_count=4, open_ended_count=7, seed=3)
    mixed = mix_and_sample(task_sets, open_ended, spec)
    assert len(mixed) == 4 * 4 + 7
    counts = Counter(r.task for r in mixed)
    assert counts == {"gec": 4, "paraphrase": 4, "style": 4, "simplify": 4,
                      OPEN_ENDED_TASK: 7}
    everything = {r for rs in task_sets.values() for r in rs} | set(open_ended)
    assert set(mixed) <= everything
    # without replacement: no record appears twice
    assert len(set(mixed)) == len(mixed)


def test_mix_and_sample_is_seed_deterministic():
    task_sets, open_ended = _toy_sets()
    spec = MixSpec(per_task_count=3, open_ended_count=5, seed=11)
    assert mix_and_sample(task_sets, open_ended, spec) == mix_and_sample(
        task_sets, open_ended, spec
    )
    other = mix_and_sample(task_sets, open_ended, MixSpec(3, 5, seed=12))
    assert other != mix_and_sample(task_sets, open_ended, spec)


def test_mix_and_sample_insufficient_records_names_the_set():
    task_sets, open_ended = _toy_sets()
    task_sets["style"] = task_sets["style"][:2]
    with pytest.raises(DataError, match="'style'"):
        mix_and_sample(task_sets, open_ended, MixSpec(per_task_count=3, open_ended_count=1))
    with pytest.raises(DataError, match="open-ended"):
        mix_and_sample(task_sets, open_ended, MixSpec(per_task_count=1, open_ended_count=10))


def test_mix_and_sample_matches_list_sampling_reference():
    rng = random.Random(5)
    for seed in range(300):
        task_sets = {
            task: [
                DatasetRecord(TASK_INSTRUCTIONS[task], f"{task} {i}", "None", task)
                for i in range(rng.randint(0, 40))
            ]
            for task in TASK_INSTRUCTIONS
        }
        open_ended = [
            DatasetRecord(f"q{i}", "", f"a{i}", OPEN_ENDED_TASK)
            for i in range(rng.randint(0, 60))
        ]
        smallest = min(len(records) for records in task_sets.values())
        per_task = rng.choice([0, smallest, rng.randint(0, smallest), smallest + 1])
        open_count = rng.choice([0, len(open_ended), rng.randint(0, len(open_ended) + 1)])
        spec = MixSpec(per_task, open_count, seed)
        try:
            expected = reference_mix_and_sample(task_sets, open_ended, spec)
        except DataError as exc:
            with pytest.raises(DataError) as caught:
                mix_and_sample(task_sets, open_ended, spec)
            assert str(caught.value) == str(exc)
            continue
        assert mix_and_sample(task_sets, open_ended, spec) == expected


def test_scan_pair_lines_checks_without_aligning(tmp_path, monkeypatch):
    def no_align(*args):
        raise AssertionError("scan_pair_lines aligned a line")

    # extraction and ``align`` share one band fill
    monkeypatch.setattr(alignment, "_fill_band", no_align)
    lines = ["a b\ta c", "no tab", "x\ty", "one\ttwo\tthree"]
    valid, skipped = scan_pair_lines(lines)
    assert valid == [(1, "a b\ta c"), (3, "x\ty")]
    monkeypatch.undo()
    assert skipped == build_task_records(lines, "gec")[1]
    sidecar = tmp_path / "annotations.tsv"
    sidecar.write_text("good\tgood\tADJ\n\npair\tpair\tNOUN\n", encoding="utf-8")
    provider = SidecarProvider.from_file(sidecar)
    assert scan_pair_lines(["good\tpair", "no tab"], provider)[0] == [(1, "good\tpair")]
    for missing in ("unknown\tpair", "good\tunknown"):
        with pytest.raises(DataError, match="no sidecar annotations for sentence: 'unknown'"):
            scan_pair_lines(["good\tpair", missing], provider)


def test_validate_dataset_accepts_built_records():
    pairs = [
        ("she go to school", "she goes to school"),
        ("keep this line", "keep this line"),
        ("drop the last word now", "drop the last word"),
    ]
    lines = [f"{s}\t{t}" for s, t in pairs]
    records, _ = build_task_records(lines, "gec")
    report = validate_dataset(records, [t for _, t in pairs])
    assert report.ok
    assert report.total == report.checked == 3


def test_validate_dataset_flags_unparseable_output():
    record = DatasetRecord(TASK_INSTRUCTIONS["gec"], "a b c", "0 99 x", "gec")
    report = validate_dataset([record])
    assert not report.ok
    assert report.failures[0][0] == 0
    assert "parse" in report.failures[0][1]


def test_validate_dataset_flags_wrong_target():
    record = DatasetRecord(TASK_INSTRUCTIONS["gec"], "a b c", "0 1 x", "gec")
    report = validate_dataset([record], ["a b c"])
    assert not report.ok
    assert "reproduce" in report.failures[0][1]


def test_validate_dataset_skips_open_ended():
    record = DatasetRecord("explain this", "", "free text, not spans", OPEN_ENDED_TASK)
    report = validate_dataset([record])
    assert report.ok
    assert report.checked == 0
    assert report.total == 1


def test_validate_dataset_targets_must_align():
    record = DatasetRecord(TASK_INSTRUCTIONS["gec"], "a", "None", "gec")
    with pytest.raises(ValueError):
        validate_dataset([record], ["a", "b"])


def test_write_jsonl_key_order_and_readback(tmp_path):
    path = tmp_path / "data.jsonl"
    records = [
        DatasetRecord(TASK_INSTRUCTIONS["gec"], "naïve input", "None", "gec"),
        DatasetRecord("q", "", "a", OPEN_ENDED_TASK),
    ]
    assert write_jsonl(records, path) == 2
    lines = path.read_text(encoding="utf-8").splitlines()
    assert list(json.loads(lines[0])) == ["instruction", "input", "output", "task"]
    assert "naïve" in lines[0]  # not ascii-escaped
    assert read_dataset_jsonl(path) == records


def test_write_jsonl_failure_leaves_earlier_file_untouched(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("earlier run\n", encoding="utf-8")
    path.chmod(0o640)

    def records():
        yield DatasetRecord("q", "", "a", OPEN_ENDED_TASK)
        raise DataError("corpus went away")

    with pytest.raises(DataError):
        write_jsonl(records(), path)
    assert path.read_text(encoding="utf-8") == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]
    assert write_jsonl([DatasetRecord("q", "", "a", OPEN_ENDED_TASK)], path) == 1
    assert len(read_dataset_jsonl(path)) == 1
    assert path.stat().st_mode & 0o777 == 0o640


def test_read_open_ended_jsonl(tmp_path):
    path = tmp_path / "open.jsonl"
    path.write_text(
        '{"instruction": "summarize", "input": "long text", "output": "short"}\n'
        '{"instruction": "list three colors", "output": "red green blue"}\n'
        '{"instruction": "i", "output": "o", "task": "translate"}\n'
        '{"instruction": 1, "input": null, "output": [1, "b"], "task": "gec"}\n',
        encoding="utf-8",
    )
    records = read_open_ended_jsonl(path)
    assert [r.task for r in records] == [OPEN_ENDED_TASK] * 4
    assert records[0].input == "long text"
    assert records[1].input == ""
    # any task key is ignored, and values that are not strings are read with str
    assert records[2:] == [
        DatasetRecord("i", "", "o", OPEN_ENDED_TASK),
        DatasetRecord("1", "None", "[1, 'b']", OPEN_ENDED_TASK),
    ]


def test_read_open_ended_jsonl_missing_keys(tmp_path):
    path = tmp_path / "open.jsonl"
    path.write_text('{"instruction": "no output"}\n', encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        read_open_ended_jsonl(path)


def test_read_dataset_jsonl_rejects_bad_json(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_dataset_jsonl(path)


def _reader_error(read, tmp_path, monkeypatch, text):
    """The message of the ``DataError`` that ``read`` raises on ``./bad.jsonl``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.jsonl").write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as caught:
        read("./bad.jsonl")
    return str(caught.value)


_RECORD = '{"instruction": "i", "input": "x", "output": "o", "task": "gec"}\n'


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("\nnot json\n", "line 2: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (_RECORD + '{"instruction": "i",\n', "line 2: invalid JSON: Expecting property name "
         "enclosed in double quotes: line 2 column 1 (char 21)"),
        ("[1, 2]\n", "line 1: expected a JSON object"),
        ('"text"\n', "line 1: expected a JSON object"),
        ("{}\n", "line 1: missing instruction, input, output, task"),
        ('{"task": "gec", "output": "o"}\n', "line 1: missing instruction, input"),
        (_RECORD + '{"instruction": "i", "input": "", "output": "o"}\n', "line 2: missing task"),
        (_RECORD * 2 + '{"instruction": "i", "input": "", "output": "o", "task": "translate"}\n',
         "line 3: unknown task label: 'translate'"),
        ('{"instruction": "i", "input": "", "output": "o", "task": 7}\n',
         "line 1: unknown task label: '7'"),
    ],
)
def test_read_dataset_jsonl_error_messages(tmp_path, monkeypatch, text, message):
    assert _reader_error(read_dataset_jsonl, tmp_path, monkeypatch, text) == (
        f"./bad.jsonl: {message}"
    )


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("\n  \nnot json\n", "line 3: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]\n", "line 1: expected a JSON object"),
        ("null\n", "line 1: expected a JSON object"),
        ("{}\n", "line 1: missing instruction, output"),
        ('{"input": "x", "task": "gec"}\n', "line 1: missing instruction, output"),
        ('{"instruction": "i", "output": "o"}\n{"output": "o"}\n', "line 2: missing instruction"),
    ],
)
def test_read_open_ended_jsonl_error_messages(tmp_path, monkeypatch, text, message):
    assert _reader_error(read_open_ended_jsonl, tmp_path, monkeypatch, text) == (
        f"./bad.jsonl: {message}"
    )


@pytest.mark.parametrize("read", [read_dataset_jsonl, read_open_ended_jsonl])
@pytest.mark.parametrize(
    ("field", "escaped"),
    [("instruction", "\\ud800"), ("output", "ok \\udfff"), ("input", "\\udc00x")],
)
def test_reader_lone_surrogate_is_a_data_error(tmp_path, monkeypatch, read, field, escaped):
    record = {"instruction": "i", "input": "", "output": "o", "task": "gec"}
    good = json.dumps(record) + "\n"
    bad = good.replace(f'"{field}": "{record[field]}"', f'"{field}": "{escaped}"')
    assert bad != good
    assert _reader_error(read, tmp_path, monkeypatch, good + bad) == (
        f"./bad.jsonl: line 2: {field} is not valid Unicode: it holds a lone surrogate"
    )


def test_reader_accepts_paired_surrogate_escapes(tmp_path):
    # an open-ended record's task key is ignored, lone surrogate and all
    path = tmp_path / "open.jsonl"
    path.write_text(
        '{"instruction": "\\ud83d\\ude00", "output": "o", "task": "\\ud800"}\n',
        encoding="utf-8",
    )
    records = read_open_ended_jsonl(path)
    assert records == [DatasetRecord("\U0001f600", "", "o", OPEN_ENDED_TASK)]


def test_reader_json_beyond_the_parser_limits_is_a_data_error(tmp_path, monkeypatch):
    deep = '{"instruction": ' + "[" * 100_000 + "]" * 100_000 + ', "output": "o"}\n'
    message = _reader_error(read_open_ended_jsonl, tmp_path, monkeypatch, deep)
    assert message.startswith("./bad.jsonl: line 1: invalid JSON: maximum recursion depth")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        huge = '{"instruction": ' + "1" * (limit + 1) + ', "output": "o"}\n'
        message = _reader_error(read_open_ended_jsonl, tmp_path, monkeypatch, huge)
        assert message.startswith("./bad.jsonl: line 1: invalid JSON: Exceeds the limit")
