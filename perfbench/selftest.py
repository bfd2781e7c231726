"""The benchmark's own tests, on small (``--quick``) inputs.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs editspan on the path)

BENCH = Path(__file__).resolve().parent


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class Workdir(unittest.TestCase):
    def setUp(self) -> None:
        self.dir = run.WORK / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def tearDown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def prepared(self, name: str):
        wl = run.make_workload(name, quick=True)
        wl.generate(0, self.dir)
        wl.provider = wl.load_provider(self.dir)
        return wl, wl.library_loop(self.dir)

    def failures(self, wl, results) -> int:
        checks = workloads.Checks()
        wl.check(self.dir, results, checks)
        self.assertGreater(checks.attempted, 0)
        return checks.failed


class ChecksCatchCorruption(Workdir):
    def test_corrupted_span_line(self):
        wl, results = self.prepared("extract-short")
        out = self.dir / wl.output
        out.write_text("".join(line + "\n" for line in results), encoding="utf-8")
        self.assertEqual(self.failures(wl, results), 0)
        edited = next(i for i, line in enumerate(results) if line != "None")
        lines = list(results)
        lines[edited] = "None"
        out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        self.assertGreater(self.failures(wl, results), 0)
        lines[edited] = results[edited] + ", junk"
        out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        self.assertGreater(self.failures(wl, results), 0)

    def test_wrong_score_report(self):
        wl, results = self.prepared("score-noisy")
        report = workloads.reduce_stats(results)
        out = self.dir / wl.output
        out.write_text(json.dumps(report, indent=2), encoding="utf-8")
        self.assertEqual(self.failures(wl, results), 0)
        out.write_text(json.dumps(dict(report, f05=report["f05"] + 1e-9)), encoding="utf-8")
        self.assertGreater(self.failures(wl, results), 0)

    def test_wrong_apply_line(self):
        wl, results = self.prepared("apply-noisy")
        lines = list(results)
        lines[0] += " extra"
        (self.dir / wl.output).write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")
        self.assertGreater(self.failures(wl, results), 0)


class Output(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name in run.WORKLOADS:
                proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--quick")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], proc.stdout)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for metric, unit in want.items():
                    self.assertTrue(any(metric in line and unit in line for line in lines[:-1]),
                                    f"{metric} not printed with its unit")

    def test_tail_percentile(self):
        self.assertEqual(run.tail_point(12), 50.0)
        self.assertAlmostEqual(run.tail_point(600), 100 * 590 / 600)
        values = list(range(1, 601))
        self.assertEqual(sum(v > run.percentile(values, run.tail_point(600)) for v in values), 10)


class WithoutProgram(Workdir):
    def test_fails_without_sources(self):
        (self.dir / "perfbench").mkdir()
        for path in BENCH.glob("*.py"):
            shutil.copy(path, self.dir / "perfbench" / path.name)
        shutil.copy(BENCH / "digests.json", self.dir / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", self.dir)
        proc = bench("--workload", "extract-short", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=self.dir)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
