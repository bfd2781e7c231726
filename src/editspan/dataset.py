"""Instruction-dataset construction from parallel corpora and an open-ended set.

Each rewriting task contributes records whose output is the serialized edit
script for its sentence pair; open-ended records pass through untouched. The
mixed dataset is sampled without replacement under a fixed seed, so a given
seed always produces byte-identical output. The draws depend only on how many
records each set has, so a corpus can be checked line by line, sampled by
index, and aligned only where a line was drawn.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from editspan._value import Value
from editspan.alignment import CostWeights, extract_line
from editspan.codec import serialize
from editspan.errors import ConfigError, DataError, PairLineError
# the task table, MixSpec and atomic_output are importable from here, too
from editspan.tasks import OPEN_ENDED_TASK, TASK_INSTRUCTIONS, TASK_LABELS, MixSpec
from editspan.text import (
    annotate,
    atomic_output,
    detokenize,
    parse_pair_line,
    read_lines,
    tokenize,
)


class DatasetRecord(Value):
    """One instruction-tuning record; field order is the JSON key order."""

    def __init__(self, instruction: str, input: str, output: str, task: str) -> None:
        if task not in TASK_LABELS:
            raise ValueError(f"unknown task label: {task!r}")
        self.__dict__.update(instruction=instruction, input=input, output=output, task=task)

    def to_json(self) -> str:
        return json.dumps(vars(self), ensure_ascii=False)


_FIELDS = ("instruction", "input", "output", "task")
# json.loads pairs valid surrogate escapes; any surrogate left is a lone one
_SURROGATE = re.compile("[\ud800-\udfff]")


def pair_record(
    line: str,
    task: str,
    instruction: str,
    provider=None,
    weights: Optional[CostWeights] = None,
    lineno: int = 0,
) -> DatasetRecord:
    """One ``source<TAB>target`` line as a record of ``task``.

    The record input is the detokenized source, so re-tokenizing it always
    yields the token count the output spans were built against.

    Raises:
        PairLineError: the line is not exactly two tab-separated fields.
    """
    src, _, script = extract_line(line, lineno, provider, weights)
    return DatasetRecord(instruction, detokenize(src), serialize(script), task)


def build_task_records(
    lines: Iterable[str],
    task: str,
    provider=None,
    weights: Optional[CostWeights] = None,
    instruction: Optional[str] = None,
) -> tuple[list[DatasetRecord], list[str]]:
    """Turn ``source<TAB>target`` lines into records for one rewriting task.

    Returns the records plus diagnostics for skipped malformed lines.
    """
    if task not in TASK_INSTRUCTIONS:
        raise ConfigError(f"unknown rewriting task: {task!r}")
    text = instruction if instruction is not None else TASK_INSTRUCTIONS[task]
    records: list[DatasetRecord] = []
    skipped: list[str] = []
    for lineno, line in enumerate(lines, 1):
        try:
            records.append(pair_record(line, task, text, provider, weights, lineno))
        except PairLineError as exc:
            skipped.append(str(exc))
    return records, skipped


def scan_pair_lines(
    lines: Iterable[str], provider=None
) -> tuple[list[tuple[int, str]], list[str]]:
    """Check ``source<TAB>target`` lines as ``build_task_records`` would, without aligning.

    Returns the well-formed lines with their 1-based line numbers, plus the
    same diagnostics for malformed ones. Both sides of every well-formed line
    are tokenized and annotated, so a provider's ``DataError`` (a sentence
    missing from the sidecar) stops the build whether or not the line is
    sampled.
    """
    valid: list[tuple[int, str]] = []
    skipped: list[str] = []
    for lineno, line in enumerate(lines, 1):
        try:
            src_text, tgt_text = parse_pair_line(line, lineno)
        except PairLineError as exc:
            skipped.append(str(exc))
            continue
        annotate(tokenize(src_text), provider)
        annotate(tokenize(tgt_text), provider)
        valid.append((lineno, line))
    return valid, skipped


def sample_picks(
    task_sizes: Mapping[str, int],
    open_size: int,
    spec: Optional[MixSpec] = None,
) -> list[tuple[Optional[str], int]]:
    """The draws of ``mix_and_sample`` made from the sizes of the sets alone.

    Returns ``(task, index)`` pairs in output order; open-ended picks have
    task ``None``. ``random.Random.sample`` and ``shuffle`` look only at
    lengths, so these are exactly the records ``mix_and_sample`` returns.

    Raises:
        DataError: a set has fewer records than its requested count.
    """
    spec = spec or MixSpec()
    rng = random.Random(spec.seed)
    picks: list[tuple[Optional[str], int]] = []
    for name in sorted(task_sizes):
        size = task_sizes[name]
        if size < spec.per_task_count:
            raise DataError(f"task {name!r} has {size} records, need {spec.per_task_count}")
        picks.extend((name, i) for i in rng.sample(range(size), spec.per_task_count))
    if open_size < spec.open_ended_count:
        raise DataError(
            f"open-ended set has {open_size} records, need {spec.open_ended_count}"
        )
    picks.extend((None, i) for i in rng.sample(range(open_size), spec.open_ended_count))
    rng.shuffle(picks)
    return picks


def mix_and_sample(
    task_sets: Mapping[str, Sequence[DatasetRecord]],
    open_ended: Sequence[DatasetRecord],
    spec: Optional[MixSpec] = None,
) -> list[DatasetRecord]:
    """Sample from each task set and the open-ended set, then shuffle.

    Sampling is without replacement and fully determined by ``spec.seed``.

    Raises:
        DataError: a set has fewer records than its requested count.
    """
    sizes = {name: len(records) for name, records in task_sets.items()}
    return [
        open_ended[i] if name is None else task_sets[name][i]
        for name, i in sample_picks(sizes, len(open_ended), spec)
    ]


def write_jsonl(records: Iterable[DatasetRecord], path: Union[str, Path]) -> int:
    """Write records as JSON Lines; returns the number written.

    The file at ``path`` is replaced only once every record is written.
    """
    count = 0
    with atomic_output(path) as handle:
        for record in records:
            handle.write(record.to_json())
            handle.write("\n")
            count += 1
    return count


def _read_jsonl(
    path: Union[str, Path], required: Sequence[str], task: Optional[str] = None
) -> list[DatasetRecord]:
    """Records from JSON Lines, one object per non-blank line.

    Every key in ``required`` must be present; other fields default to ``""``.
    Values are read with ``str``. A given ``task`` labels every record, and
    any ``task`` key in the line is ignored. A field holding a lone surrogate
    is an error, since it cannot be written as UTF-8.

    Raises:
        DataError: naming the file and line.
    """
    records = []
    for lineno, line in enumerate(read_lines(path), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
        try:
            if not isinstance(obj, dict):
                raise ValueError("expected a JSON object")
            missing = [key for key in required if key not in obj]
            if missing:
                raise ValueError(f"missing {', '.join(missing)}")
            values = {key: str(obj.get(key, "")) for key in _FIELDS}
            if task is not None:
                values["task"] = task
            for key, value in values.items():
                if _SURROGATE.search(value):
                    raise ValueError(f"{key} is not valid Unicode: it holds a lone surrogate")
            records.append(DatasetRecord(**values))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
    return records


def read_open_ended_jsonl(path: Union[str, Path]) -> list[DatasetRecord]:
    """Ingest pre-existing instruction records, labelling them open-ended."""
    return _read_jsonl(path, ("instruction", "output"), OPEN_ENDED_TASK)


def read_dataset_jsonl(path: Union[str, Path]) -> list[DatasetRecord]:
    """Read back a dataset written by ``write_jsonl``."""
    return _read_jsonl(path, _FIELDS)
