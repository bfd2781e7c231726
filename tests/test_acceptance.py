"""Acceptance suite: one timed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from time import perf_counter

from conftest import (
    CASH_SRC,
    CASH_TGT,
    PRIVACY_SRC,
    PRIVACY_TGT,
    SCHOLARS_SPANS,
    SCHOLARS_SRC,
    SCHOLARS_TGT,
    exhaustive_min_cost,
    random_pairs,
)
from editspan.alignment import CostWeights, align, extract_spans
from editspan.cli import main
from editspan.codec import NONE_SENTINEL, apply_edits, parse, serialize, split_fragments
from editspan.dataset import TASK_INSTRUCTIONS, read_dataset_jsonl
from editspan.metrics import compression
from editspan.text import annotate, detokenize, tokenize
from reference import agreement, validate_dataset


def _report(name: str, ok: bool, elapsed: float, limit: float | None, detail: str = "") -> None:
    """Print exactly one verdict line, then enforce it."""
    if limit is not None and elapsed >= limit:
        ok = False
        detail = f"took {elapsed:.2f}s, budget {limit:.0f}s; {detail}"
    budget = f"{elapsed:.2f}s" + (f" of {limit:.0f}s" if limit is not None else "")
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({budget})")
    assert ok, f"{name}: {detail}"


def test_criterion_01_three_edit_golden_pair():
    started = perf_counter()
    src = tokenize(SCHOLARS_SRC)
    wire = serialize(extract_spans(src, tokenize(SCHOLARS_TGT)))
    report = parse(SCHOLARS_SPANS, len(src))
    applied = detokenize(apply_edits(report.script, src))
    ok = wire == SCHOLARS_SPANS and report.ignored == 0 and applied == SCHOLARS_TGT
    _report(
        "01 insert+replace+delete extraction and application", ok,
        perf_counter() - started, 1.0, f"wire={wire!r} applied={applied!r}",
    )


def test_criterion_02_single_insertion_and_compression():
    started = perf_counter()
    src, tgt = tokenize(CASH_SRC), tokenize(CASH_TGT)
    wire = serialize(extract_spans(src, tgt))
    stat = compression(wire, tgt)
    ok = wire == "4 4 need" and abs(stat.ratio - 3 / 23) <= 1e-9
    _report(
        "02 single insertion compresses to 3/23 of the target", ok,
        perf_counter() - started, 1.0, f"wire={wire!r} ratio={stat.ratio!r}",
    )


def test_criterion_03_equivalent_scripts_but_one_canonical():
    started = perf_counter()
    src = tokenize(PRIVACY_SRC)
    merged, split = "7 9 invading", "7 8 invading, 8 9"
    out_merged = detokenize(apply_edits(parse(merged, len(src)).script, src))
    out_split = detokenize(apply_edits(parse(split, len(src)).script, src))
    ok = (
        out_merged == out_split == PRIVACY_TGT
        and agreement(parse(merged, len(src)).script, src) is True
        and agreement(parse(split, len(src)).script, src) is False
    )
    _report(
        "03 equivalent scripts apply identically, only one agrees", ok,
        perf_counter() - started, 1.0,
        f"merged={out_merged!r} split={out_split!r}",
    )


@lru_cache(maxsize=1)
def _synthetic_rows() -> tuple[tuple[str, str, str], ...]:
    """(source, serialized spans, target) for the shared 10k-pair corpus."""
    pairs = random_pairs(seed=20240811, count=10_000, max_len=40, max_edits=3)
    return tuple(
        (src, serialize(extract_spans(tokenize(src), tokenize(tgt))), tgt)
        for src, tgt in pairs
    )


def test_criterion_04_roundtrip_on_ten_thousand_pairs():
    started = perf_counter()
    rows = _synthetic_rows()
    bad = 0
    for src_text, wire, tgt_text in rows:
        src = tokenize(src_text)
        report = parse(wire, len(src))
        if report.ignored or detokenize(apply_edits(report.script, src)) != tgt_text:
            bad += 1
    ok = len(rows) == 10_000 and bad == 0
    _report(
        "04 extract/serialize/parse/apply roundtrip on 10000 pairs", ok,
        perf_counter() - started, 30.0, f"{bad} pair(s) failed",
    )


def test_criterion_05_alignment_cost_matches_exhaustive_search():
    started = perf_counter()
    rng = random.Random(5)
    vocab = ("cat", "cats", "act", ".")
    weights = CostWeights()
    mismatches = 0
    for _ in range(1_000):
        src = annotate(tokenize(" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6)))))
        tgt = annotate(tokenize(" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6)))))
        if align(src, tgt, weights).total_cost != exhaustive_min_cost(src, tgt, weights):
            mismatches += 1
    _report(
        "05 dynamic program equals brute-force minimum on 1000 pairs",
        mismatches == 0, perf_counter() - started, 60.0, f"{mismatches} mismatch(es)",
    )


def test_criterion_06_parser_totality_fuzz():
    started = perf_counter()
    rng = random.Random(6)
    alphabet = "0123456789 ,,,  --xyz\t…é"
    failures = 0
    checked = 0
    for _ in range(100_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 40)))
        if text.strip() == NONE_SENTINEL:
            continue
        checked += 1
        try:
            report = parse(text, rng.randint(0, 25))
            accounted = len(report.script.spans) + report.ignored == len(split_fragments(text))
            if not accounted or report.ignored != len(report.discarded):
                failures += 1
        except Exception:
            failures += 1
    ok = failures == 0 and checked > 99_000
    _report(
        "06 parse is total with exact fragment accounting on 100000 strings",
        ok, perf_counter() - started, 30.0, f"{failures} failure(s)",
    )


def test_criterion_07_malformed_fragment_rules():
    started = perf_counter()
    table = [
        # rule: fragments without two leading integers are discarded
        ("banana", 0, 1),
        ("7", 0, 1),
        ("x 1 2", 0, 1),
        ("3 x y", 0, 1),
        # rule: start must not exceed end
        ("3 2 x", 0, 1),
        # rule: positions must be non-negative
        ("-1 2 x", 0, 1),
        # rule: end must stay within the source
        ("5 99 y", 0, 1),
        ("0 11", 0, 1),
        # rule: a fragment must change something
        ("3 3", 0, 1),
        # rule: conflicting fragments keep only the first
        ("1 2 x, 1 2 y", 1, 1),
        # rules apply per fragment, not per line
        ("banana, 3 2 x, 5 99 y, 4 5 fine", 1, 3),
    ]
    problems = []
    for text, want_spans, want_ignored in table:
        report = parse(text, 10)
        if len(report.script.spans) != want_spans or report.ignored != want_ignored:
            problems.append(
                f"{text!r} -> {len(report.script.spans)} span(s), {report.ignored} ignored"
            )
    _report(
        "07 every malformed-fragment rule discards exactly that fragment",
        not problems, perf_counter() - started, 1.0, "; ".join(problems),
    )


def test_criterion_08_dataset_build_end_to_end(tmp_path, capsys):
    started = perf_counter()
    lookup: dict[tuple[str, str], str] = {}
    args = ["build-dataset"]
    for seed, task in enumerate(sorted(TASK_INSTRUCTIONS), start=101):
        pairs = random_pairs(seed=seed, count=3_000, max_len=12, tagged=True)
        path = tmp_path / f"{task}.tsv"
        path.write_text(
            "".join(f"{src}\t{tgt}\n" for src, tgt in pairs), encoding="utf-8"
        )
        lookup.update({(task, src): tgt for src, tgt in pairs})
        args += [f"--{task}", str(path)]
    open_path = tmp_path / "open.jsonl"
    open_path.write_text(
        "".join(
            json.dumps({"instruction": f"question {i}", "input": "", "output": f"answer {i}"})
            + "\n"
            for i in range(13_000)
        ),
        encoding="utf-8",
    )
    args += ["--open-ended", str(open_path), "--seed", "42"]

    first, second = tmp_path / "mix1.jsonl", tmp_path / "mix2.jsonl"
    code_first = main(args + ["--output", str(first)])
    code_second = main(args + ["--output", str(second)])
    capsys.readouterr()

    records = read_dataset_jsonl(first)
    targets = [
        lookup[(r.task, r.input)] if r.task in TASK_INSTRUCTIONS else None
        for r in records
    ]
    validation = validate_dataset(records, targets)
    ok = (
        code_first == 0
        and code_second == 0
        and len(records) == 25_000
        and validation.checked == 12_000
        and not validation.failures
        and first.read_bytes() == second.read_bytes()
    )
    _report(
        "08 dataset build emits 25000 valid records, byte-stable under a seed",
        ok, perf_counter() - started, 120.0,
        f"records={len(records)} checked={validation.checked} "
        f"failures={len(validation.failures)}",
    )


def test_criterion_09_spans_shorter_than_targets(tmp_path, capsys):
    started = perf_counter()
    rows = _synthetic_rows()
    paths = {}
    for name, column in (("sources", 0), ("spans", 1), ("targets", 2)):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(row[column] + "\n" for row in rows), encoding="utf-8")
        paths[name] = str(path)
    code = main(["score", paths["sources"], paths["spans"], paths["targets"]])
    report = json.loads(capsys.readouterr().out)
    span_total = sum(len(row[1].split()) for row in rows)
    target_total = sum(len(row[2].split()) for row in rows)
    ok = (
        code == 0
        and report["pairs"] == 10_000
        and report["mean_ratio"] < 1.0
        and span_total < target_total
    )
    _report(
        "09 span encodings average shorter than rewritten targets",
        ok, perf_counter() - started, None,
        f"mean_ratio={report['mean_ratio']!r} "
        f"span_tokens={span_total} target_tokens={target_total}",
    )
