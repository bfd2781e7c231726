"""Command-line pipeline: extract, apply, score, build-dataset, roundtrip.

Data goes to stdout (or ``--output``), diagnostics to stderr. Exit codes: 0
success, 1 usage or configuration error, 2 data error or a dead worker process.
Each command imports the modules it runs when it runs, so that no command
pays at start-up for another's.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import islice, zip_longest
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, TextIO, TypeVar

from editspan.codec import apply_edits, parse, serialize
from editspan.errors import BudgetError, ConfigError, DataError
from editspan.tasks import TASK_INSTRUCTIONS, TASK_LABELS, MixSpec
from editspan.text import (
    AnnotationProvider,
    atomic_output,
    detokenize,
    make_provider,
    read_lines,
    tokenize,
)

if TYPE_CHECKING:
    from editspan.alignment import CostWeights
    from editspan.dataset import DatasetRecord
    from editspan.metrics import PairStats

T = TypeVar("T")
R = TypeVar("R")
_CHUNK, _BLOCK = 64, 1024  # a pool's lines per task, and lines read ahead per worker

# per-process state for worker pools; set once before mapping
_PROVIDER = None
_WEIGHTS: Optional[CostWeights] = None


def _setup_worker(provider, weights) -> None:
    global _PROVIDER, _WEIGHTS
    _PROVIDER, _WEIGHTS = provider, weights


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(jobs: int) -> int:
    """``--jobs`` clamped to the CPUs this process may run on."""
    return min(jobs, _usable_cpus())


def _map_lines(
    fn: Callable[[T], R], items: Iterable[T], jobs: int, provider, weights
) -> Iterator[R]:
    """Map a pure function over items in order; every result before an error comes first."""
    jobs = _worker_count(jobs)
    _setup_worker(provider, weights)  # the parent, too, may map the rest of a block
    if jobs == 1:
        yield from map(fn, items)
        return
    # imported only here: it slows every command's start
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    items, size = iter(items), _BLOCK * jobs
    pool = ProcessPoolExecutor(jobs, initializer=_setup_worker, initargs=(provider, weights))
    try:
        while True:
            block, done = [], 0
            try:  # Executor.map reads its whole input first, so it gets a block at a time
                block.extend(islice(items, size))
            except Exception:  # an input error: the lines read before it come first
                yield from map(fn, block)
                raise
            try:
                for done, result in enumerate(pool.map(fn, block, chunksize=_CHUNK), 1):
                    yield result
            except BrokenProcessPool:
                raise DataError("a worker process died") from None
            except Exception:  # Executor.map fails a chunk whole; fn is pure, so rerun here
                yield from map(fn, block[done:])
            if len(block) < size:
                return
    finally:
        pool.shutdown(cancel_futures=True)  # waits only for chunks sent to a worker


def _extract_one(numbered: tuple[int, str]) -> str:
    from editspan.alignment import extract_line

    lineno, line = numbered
    return serialize(extract_line(line, lineno, _PROVIDER, _WEIGHTS)[2])


def _apply_one(row: tuple[str, str]) -> tuple[str, int]:
    source, span_text = row
    src = tokenize(source)
    report = parse(span_text, len(src))
    return detokenize(apply_edits(report.script, src)), report.ignored


def _score_one(row: tuple[str, str, str]) -> PairStats:
    from editspan.metrics import pair_stats

    source, span_text, target = row
    return pair_stats(tokenize(source), span_text, tokenize(target), _PROVIDER, _WEIGHTS)


def _roundtrip_one(numbered: tuple[int, str]) -> Optional[str]:
    from editspan.alignment import extract_line

    lineno, line = numbered
    src, tgt, script = extract_line(line, lineno, _PROVIDER, _WEIGHTS)
    report = parse(serialize(script), len(src))
    if report.ignored:
        return f"line {lineno}: serialized spans did not parse back cleanly"
    produced = apply_edits(report.script, src)
    if produced.surfaces != tgt.surfaces:
        return (
            f"line {lineno}: roundtrip mismatch: {detokenize(produced)!r} "
            f"!= {detokenize(tgt)!r}"
        )
    return None


def _record_one(job: tuple[str, str, int, str]) -> DatasetRecord:
    from editspan.dataset import pair_record

    task, instruction, lineno, line = job
    return pair_record(line, task, instruction, _PROVIDER, _WEIGHTS, lineno)


def _read_rows(paths: dict[str, str]) -> Iterator[tuple[str, ...]]:
    """The files' lines, one from each file per row, read as they are needed.

    Raises:
        DataError: at the end of the shortest file, if the line counts differ.
    """
    files = [(line.rstrip("\n") for line in read_lines(path)) for path in paths.values()]
    rows = 0
    for row in zip_longest(*files):
        if None in row:
            counts = [
                rows + (line is not None) + sum(1 for _ in lines)
                for line, lines in zip(row, files)
            ]
            listing = ", ".join(f"{name} has {n}" for name, n in zip(paths, counts))
            raise DataError(f"line counts differ: {listing}")
        rows += 1
        yield row


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """Standard output, or ``path`` written all or nothing."""
    if path is None:
        yield sys.stdout
    else:
        with atomic_output(path) as handle:
            yield handle


def _load_settings(args: argparse.Namespace) -> tuple[AnnotationProvider, CostWeights]:
    """The provider and weights the flags name; a bad provider is reported first."""
    from editspan.alignment import CostWeights

    provider = make_provider(args.provider, args.annotations)
    weights = CostWeights.from_file(args.weights) if args.weights else CostWeights()
    return provider, weights


def cmd_extract(args: argparse.Namespace) -> int:
    provider, weights = _load_settings(args)
    with _output(args.output) as out:
        numbered = enumerate(read_lines(args.pairs), 1)
        for span_line in _map_lines(_extract_one, numbered, args.jobs, provider, weights):
            print(span_line, file=out)
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    rows = _read_rows({"sources": args.sources, "spans": args.spans})
    lines = ignored_total = 0
    with _output(args.output) as out:
        for text, ignored in _map_lines(_apply_one, rows, args.jobs, None, None):
            lines += 1
            ignored_total += ignored
            print(text, file=out)
    if ignored_total:
        print(
            f"ignored {ignored_total} malformed fragment(s) across {lines} line(s)",
            file=sys.stderr,
        )
    return 0


def _note_over_budget(
    stats: Iterable[PairStats], spans_path: str, targets_path: str
) -> Iterator[PairStats]:
    """Pass ``stats`` through, noting on stderr each hypothesis too long to align.

    A gold target too long to align stops the command; ``_map_lines`` yields
    every result before it, so its ``BudgetError`` is given the line's number.
    """
    lineno = 0
    try:
        for lineno, stat in enumerate(stats, 1):
            if stat.over_budget:
                print(
                    f"{spans_path}: line {lineno}: the hypothesis's result is too long to "
                    "align; counted as not agreeing",
                    file=sys.stderr,
                )
            yield stat
    except BudgetError as exc:
        raise BudgetError(f"{targets_path}: line {lineno + 1}: {exc}") from None


def cmd_score(args: argparse.Namespace) -> int:
    from editspan.metrics import reduce_stats

    provider, weights = _load_settings(args)
    rows = _read_rows(
        {"sources": args.sources, "spans": args.spans, "targets": args.targets}
    )
    stats = _map_lines(_score_one, rows, args.jobs, provider, weights)
    report = reduce_stats(_note_over_budget(stats, args.spans, args.targets))
    if args.report == "text":
        for key, value in report.items():
            print(f"{key}: {value}")
    else:
        import json

        print(json.dumps(report, indent=2))
    return 0


def cmd_roundtrip(args: argparse.Namespace) -> int:
    provider, weights = _load_settings(args)
    failures = 0
    total = 0
    numbered = enumerate(read_lines(args.pairs), 1)
    for problem in _map_lines(_roundtrip_one, numbered, args.jobs, provider, weights):
        total += 1
        if problem is not None:
            failures += 1
            print(problem)
    print(f"roundtrip: {total - failures}/{total} pair(s) ok")
    return 2 if failures else 0


def cmd_build_dataset(args: argparse.Namespace) -> int:
    from editspan.alignment import read_kv_config
    from editspan.dataset import read_open_ended_jsonl, sample_picks, scan_pair_lines, write_jsonl

    provider, weights = _load_settings(args)
    overrides = {}
    if args.instructions:
        overrides = read_kv_config(args.instructions)
        unknown = set(overrides) - set(TASK_INSTRUCTIONS)
        if unknown:
            raise ConfigError(f"unknown task(s) in instructions file: {sorted(unknown)}")
    spec = MixSpec(args.per_task, args.open_count, args.seed)
    corpus_paths = {task: getattr(args, task) for task in TASK_INSTRUCTIONS}
    # Check every line first, keeping only its number and text; sampling needs
    # nothing but the counts, so only the sampled lines are ever aligned.
    corpora: dict[str, list[tuple[int, str]]] = {}
    for task, path in corpus_paths.items():
        corpora[task], skipped = scan_pair_lines(read_lines(path), provider)
        for note in skipped:
            print(f"{path}: skipped {note}", file=sys.stderr)
    open_ended = read_open_ended_jsonl(args.open_ended)
    sizes = {task: len(lines) for task, lines in corpora.items()}
    picks = sample_picks(sizes, len(open_ended), spec)
    jobs = [
        (task, overrides.get(task, TASK_INSTRUCTIONS[task]), *corpora[task][i])
        for task, i in picks
        if task is not None
    ]
    built: list[DatasetRecord] = []
    try:
        built.extend(_map_lines(_record_one, jobs, args.jobs, provider, weights))
    except BudgetError as exc:  # every record before the failing job was built
        raise BudgetError(f"{corpus_paths[jobs[len(built)][0]]}: {exc}") from None
    records = iter(built)
    mixed = [open_ended[i] if task is None else next(records) for task, i in picks]
    write_jsonl(mixed, args.output)
    counts = Counter(record.task for record in mixed)
    for task in TASK_LABELS:
        print(f"{task} {counts[task]}")
    print(f"total {len(mixed)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1 instead of argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type for integers no smaller than ``minimum``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return convert


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="editspan",
        description="Extract, apply, and score edit spans; build instruction datasets.",
    )
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs", type=_int_at_least(1), default=1,
        help="worker processes, at most the usable CPUs (default: 1)",
    )
    # alignment settings, for the commands that extract spans
    common = argparse.ArgumentParser(add_help=False, parents=[jobs])
    common.add_argument("--weights", metavar="FILE", help="cost weights as key = value lines")
    common.add_argument(
        "--provider", choices=("naive", "sidecar"), default="naive",
        help="annotation provider (default: naive)",
    )
    common.add_argument(
        "--annotations", metavar="FILE",
        help="sidecar annotations: surface<TAB>lemma<TAB>pos, blank line between sentences",
    )

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser(
        "extract", parents=[common],
        help="extract serialized spans from a source<TAB>target corpus",
    )
    p.add_argument("pairs", help="parallel corpus, one source<TAB>target pair per line")
    p.add_argument("-o", "--output", help="write span lines here instead of stdout")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "apply", parents=[jobs],
        help="apply serialized spans to source sentences",
    )
    p.add_argument("sources", help="source sentences, one per line")
    p.add_argument("spans", help="serialized span lines aligned with the sources")
    p.add_argument("-o", "--output", help="write rewritten text here instead of stdout")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser(
        "score", parents=[common],
        help="score hypothesis spans against gold targets",
    )
    p.add_argument("sources", help="source sentences, one per line")
    p.add_argument("spans", help="hypothesis span lines aligned with the sources")
    p.add_argument("targets", help="gold target sentences, one per line")
    p.add_argument(
        "--report", choices=("json", "text"), default="json",
        help="report format (default: json)",
    )
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "build-dataset", parents=[common],
        help="build the mixed instruction dataset as JSON Lines",
    )
    for task, instruction in TASK_INSTRUCTIONS.items():
        p.add_argument(
            f"--{task}", required=True, metavar="TSV",
            help=f"source<TAB>target pairs for the instruction {instruction!r}",
        )
    p.add_argument(
        "--open-ended", required=True, metavar="JSONL",
        help="pre-existing open-ended instruction records",
    )
    p.add_argument("--output", "-o", required=True, metavar="JSONL", help="output dataset path")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default: 0)")
    p.add_argument(
        "--per-task", type=_int_at_least(0), default=MixSpec.per_task_count,
        metavar="N",
        help=f"records sampled per rewriting task (default: {MixSpec.per_task_count})",
    )
    p.add_argument(
        "--open-count", type=_int_at_least(0), default=MixSpec.open_ended_count,
        metavar="N",
        help=f"open-ended records sampled (default: {MixSpec.open_ended_count})",
    )
    p.add_argument(
        "--instructions", metavar="FILE",
        help="override instruction strings: task = instruction lines",
    )
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser(
        "roundtrip", parents=[common],
        help="verify extract -> serialize -> parse -> apply on a corpus",
    )
    p.add_argument("pairs", help="parallel corpus, one source<TAB>target pair per line")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; surface the code instead
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout's reader is gone (as with ``| head``): stop quietly, with
        # stdout pointed at os.devnull so the interpreter's last flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ConfigError, DataError, OSError) as exc:
        print(f"editspan: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DataError) else 1


if __name__ == "__main__":
    sys.exit(main())
