"""The benchmark workloads.

Each workload writes its inputs, names the ``editspan`` command that runs on
them, makes the library call behind that command one item at a time, drives
the same pipeline step by step under a tracer, and checks every output.

Layers are the modules of ``src/editspan``: text, alignment, codec, metrics,
dataset and cli. Span names are ``<layer>.<step>``; ``item`` spans belong to
the harness.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import gen
from editspan import (
    CostWeights,
    DataError,
    EditScript,
    EditSpan,
    MixSpec,
    OpKind,
    PairStats,
    align,
    annotate,
    apply_edits,
    build_task_records,
    compression,
    detokenize,
    edit_f05,
    extract_spans,
    make_provider,
    merge_ops,
    mix_and_sample,
    pair_stats,
    parse,
    parse_pair_line,
    read_dataset_jsonl,
    read_open_ended_jsonl,
    reduce_stats,
    serialize,
    tokenize,
    write_jsonl,
)
from editspan.dataset import TASK_INSTRUCTIONS, DatasetRecord

TASKS = tuple(gen.TASK_MAX_EDITS)


class Checks:
    """Counts checks attempted and failed, keeping the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


class CountingProvider:
    """An ``AnnotationProvider`` that counts the calls and tokens it annotates."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls = 0
        self.tokens = 0

    def annotate(self, tokens):
        self.calls += 1
        self.tokens += len(tokens)
        return self.inner.annotate(tokens)


def check_span_line(checks: Checks, where: str, span_text: str, source: str, targets) -> None:
    """The span text parses with no ignored fragment and turns source into a target."""
    src = tokenize(source)
    report = parse(span_text, len(src))
    produced = " ".join(apply_edits(report.script, src).surfaces)
    checks.expect(
        report.ignored == 0 and produced in targets,
        f"{where}: spans {span_text!r} do not rebuild the target",
    )


def traced_extract(tr, src, tgt, provider, weights) -> EditScript:
    """``extract_spans`` driven step by step through public functions."""
    with tr.span("text.annotate"):
        sa = annotate(src, provider)
    with tr.span("text.annotate"):
        ta = annotate(tgt, provider)
    with tr.span("alignment.align"):
        alignment = align(sa, ta, weights)
    tr.counts["alignment.dp_cells"] += len(sa) * len(ta)
    with tr.span("alignment.merge"):
        surfaces = tgt.surfaces
        script = EditScript(tuple(
            EditSpan(op.src_start, op.src_end, surfaces[op.tgt_start:op.tgt_end])
            for op in merge_ops(alignment)
            if op.kind is not OpKind.MATCH
        ), len(src))
    return script


def traced_tokenize(tr, text: str):
    with tr.span("text.tokenize"):
        return tokenize(text)


class Workload:
    """Common shape; subclasses fill in the command, the call and the checks."""

    noun = "lines"       # what one input item is, for the per-second name
    command = ""         # the editspan subcommand
    jobs = 1             # --jobs of the timed command runs
    output = "out.txt"   # the file whose bytes are checked and digested

    def __init__(self, quick: bool = False) -> None:
        self.quick = quick
        self.weights = CostWeights()

    def load_provider(self, workdir: Path):
        return make_provider("naive")

    # subclasses: write(rng, vocab, workdir), argv(jobs), setup_argv(),
    # call(item), check(workdir, results, checks), traced(tr, item)

    def generate(self, seed: int, workdir: Path) -> None:
        """Write the inputs for ``seed`` and keep what the calls and checks need."""
        self.seed = seed
        self.write(random.Random(seed), gen.Vocab(), workdir)

    def library_loop(self, workdir: Path) -> list:
        """The work of one command run, in process and untraced."""
        return [self.call(item) for item in self.items]

    def traced_loop(self, tr, workdir: Path) -> list:
        """``library_loop`` driven step by step under the tracer."""
        results = []
        for i, item in enumerate(self.items):
            tr.item = i
            with tr.span("item"):
                results.append(self.traced(tr, item))
        tr.item = None
        return results


class Extract(Workload):
    command = "extract"
    noun = "pairs"

    def __init__(self, long: bool, count: int, jobs: int, quick=False):
        super().__init__(quick)
        self.long, self.jobs = long, jobs
        self.count = max(2, count // 8) if quick else count

    def write(self, rng, vocab, workdir: Path) -> None:
        if self.long:
            lo, hi = (50, 200) if self.quick else (200, 800)
            pairs = gen.long_pairs(rng, vocab, self.count, lo, hi)
        else:
            pairs = gen.short_pairs(rng, vocab, self.count)
        gen.write_pairs(workdir, pairs, gen.setup_pair(rng, vocab))
        self.items = [(" ".join(s), " ".join(t)) for s, t in pairs]

    def argv(self, jobs: int) -> list[str]:
        return ["extract", "pairs.tsv", "--jobs", str(jobs), "-o", self.output]

    def setup_argv(self) -> list[str]:
        return ["extract", "one.tsv", "-o", "one_out.txt"]

    def call(self, item) -> str:
        s, t = item
        return serialize(extract_spans(tokenize(s), tokenize(t), self.provider, self.weights))

    def traced(self, tr, item) -> str:
        s, t = item
        src, tgt = traced_tokenize(tr, s), traced_tokenize(tr, t)
        script = traced_extract(tr, src, tgt, self.provider, self.weights)
        with tr.span("codec.serialize"):
            return serialize(script)

    def check(self, workdir: Path, results: list, checks: Checks) -> None:
        lines = (workdir / self.output).read_text(encoding="utf-8").splitlines()
        checks.expect(len(lines) == len(self.items), f"{len(lines)} output lines")
        for i, (line, (s, t), ref) in enumerate(zip(lines, self.items, results), 1):
            check_span_line(checks, f"line {i}", line, s, {t})
            checks.expect(line == ref, f"line {i}: command and library disagree")


class Decode(Workload):
    """Shared inputs of the apply and score workloads: noisy model hypotheses."""

    def __init__(self, count: int, quick=False):
        super().__init__(quick)
        self.count = max(8, count // 20) if quick else count

    def write(self, rng, vocab, workdir: Path) -> None:
        pairs = gen.short_pairs(rng, vocab, self.count)
        gen.write_decode(workdir, rng, vocab, pairs, gen.setup_pair(rng, vocab))
        read = lambda f: (workdir / f).read_text(encoding="utf-8").splitlines()
        self.kinds = read("kinds.txt")
        self.targets = read("targets.txt")
        self.items = list(zip(read("sources.txt"), read("hyps.txt"), self.targets))


class Apply(Decode):
    command = "apply"

    def argv(self, jobs: int) -> list[str]:
        return ["apply", "sources.txt", "hyps.txt", "--jobs", str(jobs), "-o", self.output]

    def setup_argv(self) -> list[str]:
        return ["apply", "one_sources.txt", "one_hyps.txt", "-o", "one_out.txt"]

    def call(self, item) -> str:
        source, hyp, _ = item
        src = tokenize(source)
        return detokenize(apply_edits(parse(hyp, len(src)).script, src))

    def traced(self, tr, item) -> str:
        source, hyp, _ = item
        src = traced_tokenize(tr, source)
        report = traced_parse(tr, hyp, len(src))
        with tr.span("codec.apply_edits"):
            produced = apply_edits(report.script, src)
        with tr.span("text.detokenize"):
            return detokenize(produced)

    def check(self, workdir: Path, results: list, checks: Checks) -> None:
        lines = (workdir / self.output).read_text(encoding="utf-8").splitlines()
        checks.expect(len(lines) == len(self.items), f"{len(lines)} output lines")
        for i, (line, ref, kind, target) in enumerate(
            zip(lines, results, self.kinds, self.targets), 1
        ):
            checks.expect(line == ref, f"line {i}: command and library disagree")
            if kind == "gold":
                checks.expect(line == target, f"line {i}: gold spans do not give the target")


def traced_parse(tr, text: str, source_len: int):
    with tr.span("codec.parse"):
        report = parse(text, source_len)
    tr.counts["codec.parse.accepted"] += len(report.script.spans)
    tr.counts["codec.parse.fragments"] += len(report.script.spans) + report.ignored
    return report


class Score(Decode):
    command = "score"
    noun = "pairs"
    output = "stdout.txt"

    def argv(self, jobs: int) -> list[str]:
        return ["score", "sources.txt", "hyps.txt", "targets.txt", "--jobs", str(jobs)]

    def setup_argv(self) -> list[str]:
        return ["score", "one_sources.txt", "one_hyps.txt", "one_targets.txt"]

    def call(self, item) -> PairStats:
        source, hyp, target = item
        return pair_stats(tokenize(source), hyp, tokenize(target), self.provider, self.weights)

    def traced(self, tr, item) -> PairStats:
        """``pair_stats`` driven step by step."""
        source, hyp, target = item
        src, gold = traced_tokenize(tr, source), traced_tokenize(tr, target)
        before = self.provider.calls
        report = traced_parse(tr, hyp, len(src))
        with tr.span("metrics.gold_extract"):
            gold_script = traced_extract(tr, src, gold, self.provider, self.weights)
        with tr.span("metrics.edit_f05"):
            score = edit_f05(report.script, gold_script)
        with tr.span("metrics.canonicalize"):
            with tr.span("codec.apply_edits"):
                produced = apply_edits(report.script, src)
            canonical = traced_extract(tr, src, produced, self.provider, self.weights)
        with tr.span("metrics.compression"):
            ratio = compression(hyp, gold).ratio
        tr.counts["metrics.annotations"] += self.provider.calls - before
        tr.counts["metrics.pairs"] += 1
        return PairStats(
            agree=report.script.spans == canonical.spans, ratio=ratio,
            tp=score.tp, fp=score.fp, fn=score.fn, ignored=report.ignored,
        )

    def check(self, workdir: Path, results: list, checks: Checks) -> None:
        try:
            report = json.loads((workdir / self.output).read_text(encoding="utf-8"))
        except ValueError:
            report = None
        checks.expect(report == reduce_stats(results), "report is not reduce_stats of pair_stats")


class BuildDataset(Workload):
    command = "build-dataset"
    output = "out.jsonl"

    def __init__(self, per_corpus: int, quick=False):
        super().__init__(quick)
        self.per_corpus = max(8, per_corpus // 10) if quick else per_corpus
        # each corpus is 8/3 of what is sampled from it, as in 8000 lines for 3000
        self.per_task = self.per_corpus * 3 // 8
        self.open_count = self.per_task * 4
        self.open_lines = self.open_count * 2

    def write(self, rng, vocab, workdir: Path) -> None:
        gen.write_dataset(workdir, rng, vocab, self.per_corpus, self.open_lines)
        self.items = []
        self.targets: dict[tuple[str, str], set[str]] = {}
        for task in TASKS:
            for line in (workdir / f"{task}.tsv").read_text(encoding="utf-8").splitlines():
                self.items.append((task, line))
                s, t = line.split("\t")
                self.targets.setdefault((task, s), set()).add(t)

    def load_provider(self, workdir: Path):
        return make_provider("sidecar", workdir / "sidecar.tsv")

    def _argv(self, prefix: str, per_task: int, open_count: int, jobs: int, out: str):
        corpora = [a for task in TASKS for a in (f"--{task}", f"{prefix}{task}.tsv")]
        return ["build-dataset", *corpora, "--open-ended", f"{prefix}open.jsonl",
                "--provider", "sidecar", "--annotations", "sidecar.tsv",
                "--per-task", str(per_task), "--open-count", str(open_count),
                "--seed", str(self.seed), "--jobs", str(jobs), "-o", out]

    def argv(self, jobs: int) -> list[str]:
        return self._argv("", self.per_task, self.open_count, jobs, self.output)

    def setup_argv(self) -> list[str]:
        return self._argv("one_", 1, 1, 1, "one_out.jsonl")

    def call(self, item) -> DatasetRecord:
        task, line = item
        records, _ = build_task_records([line], task, self.provider, self.weights)
        return records[0]

    def _finish(self, records: list, workdir: Path, out: str, tr=None) -> None:
        """Sample and write the dataset from records built in corpus order."""
        task_sets = {task: [] for task in TASKS}
        for (task, _), record in zip(self.items, records):
            task_sets[task].append(record)
        spec = MixSpec(self.per_task, self.open_count, self.seed)
        if tr is None:
            write_jsonl(mix_and_sample(task_sets, read_open_ended_jsonl(workdir / "open.jsonl"),
                                       spec), workdir / out)
            return
        with tr.span("dataset.read_open_ended"):
            open_ended = read_open_ended_jsonl(workdir / "open.jsonl")
        with tr.span("dataset.mix_and_sample"):
            mixed = mix_and_sample(task_sets, open_ended, spec)
        with tr.span("dataset.write_jsonl"):
            write_jsonl(mixed, workdir / out)

    def library_loop(self, workdir: Path) -> list:
        """The whole command in process: build every task's records, sample, write."""
        records = []
        for task in TASKS:
            lines = [line for t, line in self.items if t == task]
            records += build_task_records(lines, task, self.provider, self.weights)[0]
        self._finish(records, workdir, "lib_out.jsonl")
        return records

    def traced_loop(self, tr, workdir: Path) -> list:
        """``cmd_build_dataset`` driven step by step: per line, then sample and write."""
        records = []
        for task in TASKS:
            with tr.span("dataset.read"):
                path = workdir / f"{task}.tsv"
                lines = path.read_text(encoding="utf-8").splitlines()
            tr.counts["dataset.lines_read"] += len(lines)
            with tr.span("dataset.build_task_records"):
                for lineno, line in enumerate(lines, 1):
                    tr.item = f"{task}:{lineno}"
                    with tr.span("item"):
                        records.append(self.traced_line(tr, task, line, lineno))
            tr.item = None
        tr.counts["dataset.lines_aligned"] = len(records)
        self._finish(records, workdir, "traced_out.jsonl", tr)
        tr.counts["dataset.records_used"] = 4 * self.per_task
        return records

    def traced_line(self, tr, task: str, line: str, lineno: int) -> DatasetRecord:
        with tr.span("text.parse_pair_line"):
            s, t = parse_pair_line(line, lineno)
        src, tgt = traced_tokenize(tr, s), traced_tokenize(tr, t)
        script = traced_extract(tr, src, tgt, self.provider, self.weights)
        with tr.span("codec.serialize"):
            output = serialize(script)
        with tr.span("text.detokenize"):
            source = detokenize(src)
        return DatasetRecord(TASK_INSTRUCTIONS[task], source, output, task)

    def check(self, workdir: Path, results: list, checks: Checks) -> None:
        try:
            records = read_dataset_jsonl(workdir / self.output)
        except DataError as exc:
            checks.expect(False, f"unreadable dataset: {exc}")
            return
        counts = {task: 0 for task in (*TASKS, "open_ended")}
        for i, record in enumerate(records, 1):
            counts[record.task] += 1
            if record.task != "open_ended":
                targets = self.targets.get((record.task, record.input), set())
                check_span_line(checks, f"record {i}", record.output, record.input, targets)
        for task in TASKS:
            checks.expect(counts[task] == self.per_task, f"{counts[task]} {task} records")
        checks.expect(counts["open_ended"] == self.open_count, "open-ended record count")
        for (task, line), record in zip(self.items, results):
            s, t = line.split("\t")
            check_span_line(checks, f"{task} library record", record.output, s, {t})
        self._finish(results, workdir, "ref_out.jsonl")
        checks.expect(
            (workdir / "ref_out.jsonl").read_bytes() == (workdir / self.output).read_bytes(),
            "command output differs from the library pipeline's",
        )
