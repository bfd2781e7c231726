"""Benchmark for editspan: end-to-end command runs and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload score-noisy --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

With ``--trace 0`` the run is a series of rounds until ``--seconds`` are used.
Each round times the workload's ``editspan`` command on a one-line input (the
set-up cost) and on the whole seeded input, each as its own process tree
measured with ``os.wait4``, then times the library call behind the command on
every item in a fresh process, one call at a time by one caller (a closed
loop). Each timing is taken once a round, and a run reports the median over
its rounds.
With ``--trace 1`` the same inputs go, five times over, through the command at
``--jobs 2`` and ``--jobs 1``, the untraced library loop, and the same pipeline
driven step by step under a tracer, which gives the per-layer numbers.
Every output is checked. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. Details, machine facts
and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
# The console entry point, plus a report of the process tree's peak RSS. It is
# read here, not from os.wait4: a child started with vfork and exec inherits
# the benchmark's own peak RSS into its ru_maxrss. VmHWM is the peak of the
# command's own memory; RUSAGE_CHILDREN covers the pool workers it reaped.
CLI_BOOT = """\
import os, resource, sys
from editspan.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(os.environ["PERFBENCH_PEAK_RSS"], "w") as out:
        out.write(str(max(own, workers)))
sys.exit(code)
"""
DEFAULT_SEED = 0
SETUP_RUNS = 2  # per round of the untraced run
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
MIN_ROUNDS = 4
TRACE_REPEATS = 5

END_TO_END = {
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "setup_s": "s",
    "cpu_ms_per_line": "ms",
    "peak_rss_mb": "MB",
}

LAYERS = ("text", "alignment", "codec", "metrics", "dataset")

PER_LAYER = {
    "text.tokenize.calls": "count",
    "text.tokenize.busy_ms": "ms",
    "text.annotate.tokens": "count",
    "text.annotate.busy_ms": "ms",
    "text.sidecar_load_ms": "ms",
    "text.sidecar_load_share": "ratio",
    "text.self_ms": "ms",
    "alignment.align.calls": "count",
    "alignment.align.busy_ms": "ms",
    "alignment.dp_cells": "count",
    "alignment.ns_per_cell": "ns",
    "alignment.merge.busy_ms": "ms",
    "alignment.char_cache.lookups": "count",
    "alignment.char_cache.misses": "count",
    "alignment.char_cache.size": "count",
    "alignment.self_ms": "ms",
    "codec.serialize.busy_ms": "ms",
    "codec.parse.calls": "count",
    "codec.parse.fragments": "count",
    "codec.parse.busy_ms": "ms",
    "codec.parse.us_per_fragment": "us",
    "codec.parse.accepted_ratio": "ratio",
    "codec.apply_edits.busy_ms": "ms",
    "codec.self_ms": "ms",
    "metrics.gold_extract.busy_ms": "ms",
    "metrics.canonicalize.busy_ms": "ms",
    "metrics.annotations_per_pair": "count",
    "metrics.self_ms": "ms",
    "dataset.lines_read": "count",
    "dataset.lines_aligned": "count",
    "dataset.aligned_used_ratio": "ratio",
    "dataset.build_task_records.busy_ms": "ms",
    "dataset.mix_and_sample.busy_ms": "ms",
    "dataset.write_jsonl.busy_ms": "ms",
    "dataset.self_ms": "ms",
    "cli.overhead_frac": "ratio",
    "cli.jobs2_speedup": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

# BENCHMARK.json keeps score-noisy and build-dataset, which between them run
# every layer, so that each run can last close to a minute, as a steady figure
# needs on a shared host. The others run on request and in --workload all;
# extract-long's trace shows how cli spreads few long lines over workers, and
# apply-noisy's that apply never aligns.
WORKLOADS = ("extract-short", "extract-long", "apply-noisy", "score-noisy", "build-dataset")


class BenchError(Exception):
    """The benchmark could not run: no program to measure, or a command failed."""


def make_workload(name: str, quick: bool):
    import workloads as w

    jobs2 = min(2, len(os.sched_getaffinity(0)))
    wl = {
        # 800 pairs: the 65,536-entry char-distance cache fills after about
        # 500 of them, and evicts from then on
        "extract-short": lambda: w.Extract(long=False, count=800, jobs=1, quick=quick),
        "extract-long": lambda: w.Extract(long=True, count=3, jobs=jobs2, quick=quick),
        "apply-noisy": lambda: w.Apply(count=6000, quick=quick),
        "score-noisy": lambda: w.Score(count=500, quick=quick),
        "build-dataset": lambda: w.BuildDataset(per_corpus=200, quick=quick),
    }[name]()
    wl.name = name
    return wl


def run_cli(workdir: Path, argv: list[str]) -> dict:
    """Run one ``editspan`` command as its own process tree; wall, CPU and max RSS.

    ``os.wait4`` reports the child's CPU together with that of the worker
    processes it reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_PEAK_RSS=str(workdir / "peak_rss"))
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_BOOT, *argv],
                                cwd=workdir, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-500:]
        raise BenchError(f"editspan {argv[0]} exited with {proc.returncode}: {tail}")
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": int((workdir / "peak_rss").read_text()) / 1024}


def tail_point(count: int) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Never below the median: with ``2 * TAIL_BEYOND`` samples or fewer the tail
    is the median.
    """
    rank = count - TAIL_BEYOND  # 1-based nearest rank
    return max(50.0, 100.0 * rank / count)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index, item id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                  self.item]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def summary(self) -> tuple[Counter, Counter, Counter]:
        """Inclusive time and calls per span name, and self time per layer."""
        busy, calls, child = Counter(), Counter(), [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_time[name.split(".")[0]] += end - start - inner
        return busy, calls, self_time

    def write(self, path: Path, origin: float) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(json.dumps([name, round((start - origin) * 1e6, 1),
                                         round((end - origin) * 1e6, 1), parent, item]))
                handle.write("\n")


def measure_setup(wl, workdir: Path, runs: int) -> float:
    run_cli(workdir, wl.setup_argv())  # untimed: writes the bytecode caches
    return statistics.median(run_cli(workdir, wl.setup_argv())["wall"] for _ in range(runs))


def check_digest(wl, workdir: Path, checks, details: dict) -> None:
    details["output_sha256"] = got = digest(workdir / wl.output)
    if wl.seed == DEFAULT_SEED and not wl.quick:
        want = json.loads(DIGESTS.read_text(encoding="utf-8")).get(wl.name)
        checks.expect(got == want, f"output digest {got} is not the recorded {want}")


def run_untraced(wl, workdir: Path, seconds: float, checks, details) -> dict:
    """End-to-end metrics from rounds of set-up runs, a command run and a pass
    of library calls, until ``seconds`` are used.

    Each timing is the median over the rounds: the command's wall and CPU
    time, the p50 and tail of each pass of calls, and the set-up runs. On a
    shared host the same code runs up to 1.9 times as fast in some spells as
    in others, so a run lasts long enough for its rounds to span several.
    """
    n = len(wl.items)
    run_cli(workdir, wl.setup_argv())  # untimed: writes the bytecode caches
    setups, runs, rounds, outputs, reference = [], [], [], set(), None
    began, round_s = time.perf_counter(), 0.0
    # every metric is sampled once a round, across the whole measuring window
    while len(runs) < MIN_ROUNDS or time.perf_counter() - began + round_s <= seconds:
        start = time.perf_counter()
        setups += [run_cli(workdir, wl.setup_argv())["wall"] for _ in range(SETUP_RUNS)]
        runs.append(run_cli(workdir, wl.argv(wl.jobs)))
        outputs.add(digest(workdir / wl.output))
        if len(runs) == 1:
            shutil.copy(workdir / wl.output, workdir / "first_output")
        loop = run_loop(workdir, "calls")
        rounds.append(loop["latencies"])
        if reference is None:
            reference = loop["results"]
        for i, (result, ref) in enumerate(zip(loop["results"], reference)):
            checks.expect(result == ref, f"item {i}: library calls differ between rounds")
        round_s = time.perf_counter() - start
    checks.expect(len(outputs) == 1, f"{len(outputs)} different outputs from one input")
    shutil.copy(workdir / "first_output", workdir / wl.output)
    wl.check(workdir, reference, checks)
    check_digest(wl, workdir, checks, details)

    q = tail_point(n)
    details.update(rounds=len(runs), tail_percentile=q, runs=runs, setups=setups)
    return {
        "items_per_s": n / statistics.median(r["wall"] for r in runs),
        "call_p50_ms": statistics.median(percentile(calls, 50) for calls in rounds) * 1e3,
        "call_tail_ms": statistics.median(percentile(calls, q) for calls in rounds) * 1e3,
        "setup_s": statistics.median(setups),
        "cpu_ms_per_line": statistics.median(r["cpu"] for r in runs) * 1e3 / n,
        "peak_rss_mb": max(r["maxrss_mb"] for r in runs),
    }


def run_loop(workdir: Path, mode: str) -> dict:
    """Run one library loop in a fresh process, so that it starts as cold as the
    command does; return what ``loop_main`` pickled."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--loop", mode,
            "--workdir", str(workdir)]
    try:
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"the {mode} library loop exited with {exc.returncode}") from None
    with open(workdir / f"loop-{mode}.pkl", "rb") as handle:
        return pickle.load(handle)


def loop_main(workdir: Path, mode: str) -> None:
    """Child side of ``run_loop``: one timed call on each call item, the
    untraced loop, or the traced one."""
    import workloads

    with open(workdir / "workload.pkl", "rb") as handle:
        wl = pickle.load(handle)
    start = time.perf_counter()
    wl.provider = wl.load_provider(workdir)
    out = {"load_s": time.perf_counter() - start}
    if mode == "calls":
        results, latencies = [], []
        for item in wl.items:
            start = time.perf_counter()
            results.append(wl.call(item))
            latencies.append(time.perf_counter() - start)
        out.update(results=results, latencies=latencies)
    elif mode == "plain":
        start = time.perf_counter()
        out["results"] = wl.library_loop(workdir)
        out["loop_s"] = time.perf_counter() - start
    else:
        wl.provider = counting = workloads.CountingProvider(wl.provider)
        tr = Tracer()
        start = time.perf_counter()
        out["results"] = wl.traced_loop(tr, workdir)
        out["loop_s"] = time.perf_counter() - start
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"{wl.name}-seed{wl.seed}-spans.jsonl", start)
        out.update(zip(("busy", "calls", "self_time"), tr.summary()),
                   counts=tr.counts, tokens=counting.tokens, spans=len(tr.spans),
                   char_cache=char_cache_info())
    with open(workdir / f"loop-{mode}.pkl", "wb") as handle:
        pickle.dump(out, handle)


def char_cache_info() -> tuple[int, int, int]:
    """Lookups, misses and final size of the aligner's character-distance cache
    in this process; zeros if the aligner no longer has that cache."""
    from editspan import alignment

    cached = getattr(alignment, "_char_distance_cached", None)
    if not hasattr(cached, "cache_info"):
        return 0, 0, 0
    info = cached.cache_info()
    return info.hits + info.misses, info.misses, info.currsize


def run_traced(wl, workdir: Path, checks, details) -> dict:
    """Per-layer metrics, from ``TRACE_REPEATS`` repeats of: the command at
    ``--jobs 2`` and ``--jobs 1``, the untraced library loop, and the traced
    loop, run in that order. A ratio of two times is taken within a repeat,
    where the two runs were next to each other, and every figure is the median
    over the repeats."""
    setup_s = measure_setup(wl, workdir, 2 * TRACE_REPEATS)
    all_jobs = sorted({1, min(2, len(os.sched_getaffinity(0)))}, reverse=True)
    repeats, outputs = [], set()
    for _ in range(TRACE_REPEATS):
        walls = {}
        for jobs in all_jobs:
            walls[jobs] = run_cli(workdir, wl.argv(jobs))["wall"]
            outputs.add(digest(workdir / wl.output))
        repeats.append((walls, run_loop(workdir, "plain"), run_loop(workdir, "traced")))
    checks.expect(len(outputs) == 1, "--jobs changed the output")
    check_digest(wl, workdir, checks, details)
    reference = repeats[0][1]["results"]
    wl.check(workdir, reference, checks)
    for _, plain, traced in repeats:
        checks.expect(plain["results"] == reference, "library loops disagree")
        checks.expect(len(traced["results"]) == len(reference), "traced loop lost items")
        for i, (a, b) in enumerate(zip(traced["results"], reference)):
            checks.expect(a == b, f"item {i}: traced pipeline differs from the library call")

    med = lambda f: statistics.median(f(*r) for r in repeats)
    traced = repeats[-1][2]  # counts are the same in every repeat
    calls, c = traced["calls"], traced["counts"]
    busy = lambda name: med(lambda w, p, t: t["busy"][name])
    self_s = lambda layer: med(lambda w, p, t: t["self_time"][layer])
    ms = lambda name: busy(name) * 1e3
    cells, fragments = c["alignment.dp_cells"], c["codec.parse.fragments"]
    loop_s = med(lambda w, p, t: p["loop_s"])
    provider_load_ms = med(lambda w, p, t: p["load_s"]) * 1e3
    lookups, misses, cache_size = traced["char_cache"]
    metrics = {
        "text.tokenize.calls": calls["text.tokenize"],
        "text.tokenize.busy_ms": ms("text.tokenize"),
        "text.annotate.tokens": traced["tokens"],
        "text.annotate.busy_ms": ms("text.annotate"),
        "text.sidecar_load_ms": provider_load_ms,
        "text.sidecar_load_share": provider_load_ms / (setup_s * 1e3),
        "alignment.align.calls": calls["alignment.align"],
        "alignment.align.busy_ms": ms("alignment.align"),
        "alignment.dp_cells": cells,
        "alignment.ns_per_cell": busy("alignment.align") * 1e9 / cells if cells else 0.0,
        "alignment.merge.busy_ms": ms("alignment.merge"),
        "alignment.char_cache.lookups": lookups,
        "alignment.char_cache.misses": misses,
        "alignment.char_cache.size": cache_size,
        "codec.serialize.busy_ms": ms("codec.serialize"),
        "codec.parse.calls": calls["codec.parse"],
        "codec.parse.fragments": fragments,
        "codec.parse.busy_ms": ms("codec.parse"),
        "codec.parse.us_per_fragment": busy("codec.parse") * 1e6 / fragments if fragments else 0.0,
        "codec.parse.accepted_ratio": c["codec.parse.accepted"] / fragments if fragments else 0.0,
        "codec.apply_edits.busy_ms": ms("codec.apply_edits"),
        "metrics.gold_extract.busy_ms": ms("metrics.gold_extract"),
        "metrics.canonicalize.busy_ms": ms("metrics.canonicalize"),
        "metrics.annotations_per_pair":
            c["metrics.annotations"] / c["metrics.pairs"] if c["metrics.pairs"] else 0.0,
        "dataset.lines_read": c["dataset.lines_read"],
        "dataset.lines_aligned": c["dataset.lines_aligned"],
        "dataset.aligned_used_ratio": c["dataset.records_used"] / c["dataset.lines_aligned"]
            if c["dataset.lines_aligned"] else 0.0,
        "dataset.build_task_records.busy_ms": ms("dataset.build_task_records"),
        "dataset.mix_and_sample.busy_ms": ms("dataset.mix_and_sample"),
        "dataset.write_jsonl.busy_ms": ms("dataset.write_jsonl"),
        "cli.overhead_frac": med(lambda w, p, t: 1 - p["loop_s"] / (w[1] - setup_s)),
        "cli.jobs2_speedup": med(lambda w, p, t: w[1] / w[max(w)]),
        "trace.coverage": med(lambda w, p, t: sum(t["self_time"][layer] for layer in LAYERS)
                              / p["loop_s"]),
        "trace.overhead_frac": med(lambda w, p, t: t["loop_s"] / p["loop_s"] - 1),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_s(layer) * 1e3
    details.update(command_walls=[w for w, _, _ in repeats], setup_s=setup_s,
                   library_loop_s=[p["loop_s"] for _, p, _ in repeats],
                   traced_loop_s=[t["loop_s"] for _, _, t in repeats], spans=traced["spans"])
    return {name: metrics[name] for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    import workloads

    wl = make_workload(name, quick)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    checks = workloads.Checks()
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "quick": quick, "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }
    try:
        wl.generate(seed, workdir)
        with open(workdir / "workload.pkl", "wb") as handle:
            pickle.dump(wl, handle)
        details["items"] = len(wl.items)
        if trace:
            metrics = run_traced(wl, workdir, checks, details)
        else:
            metrics = run_untraced(wl, workdir, seconds, checks, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(loadavg_end=os.getloadavg(), attempted=checks.attempted,
                   failed=checks.failed, failures=checks.notes, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    return {"workload": wl, "details": details, "metrics": metrics,
            "attempted": checks.attempted, "failed": checks.failed}


def show(run: dict, trace: bool) -> None:
    """Human-readable lines: every metric by name with its unit."""
    wl, d, m = run["workload"], run["details"], run["metrics"]
    print(f"# {d['workload']} seed {d['seed']} trace {d['trace']}: {d['items']} items, "
          f"{d['cpu_count']} cpus ({d['usable_cpus']} usable), python {d['python']}, "
          f"load {d['loadavg_start'][0]:.2f} -> {d['loadavg_end'][0]:.2f}")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:36s} {m[name]:14.6g} {unit}")
    else:
        # the per-command names these metrics have on this workload
        prefix = wl.command.split("-")[0]
        alias = {
            "items_per_s": f"{prefix}.{wl.noun}_per_s (median of {d['rounds']} runs)",
            "call_p50_ms": f"{prefix}.call_p50_ms (median of {d['rounds']} passes "
                           f"over {d['items']} items)",
            "call_tail_ms": f"{prefix}.call_tail_ms (p{d['tail_percentile']:.2f} of "
                            f"{d['items']} items, median of {d['rounds']} passes)",
        }
        for name, unit in END_TO_END.items():
            print(f"  {name:16s} {m[name]:14.6g} {unit:4s} {alias.get(name, '')}")
    frac = run["failed"] / run["attempted"]
    print(f"  failed_frac      {frac:14.6g} ratio ({run['failed']} of {run['attempted']} checks)")
    for note in d["failures"]:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--loop", choices=("calls", "plain", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still stops its children and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "editspan" / "__init__.py").is_file():
        print(f"perfbench: no editspan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import editspan

    if not Path(editspan.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported editspan from {editspan.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.loop:
        loop_main(args.workdir, args.loop)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            runs.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.quick))
            show(runs[-1], bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(runs) > 1
    result = {
        "correct": all(r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            (f"{r['details']['workload']}/{name}" if prefix else name):
                {"value": r["metrics"][name], "unit": unit}
            for r in runs for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
