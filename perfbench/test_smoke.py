"""Smoke test of the benchmark itself, at a reduced size.

Runs every workload with two batches, untraced and traced, and checks
that the output checks pass and that every metric ``BENCHMARK.json``
names is printed with its unit.  Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def _run(workload: str, trace: int):
    """``run.main`` on a two-batch copy of ``workload``."""
    full = workloads.WORKLOADS[workload]
    workloads.WORKLOADS[workload] = dataclasses.replace(full, batches=2)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(
                [
                    "--workload", workload,
                    "--seed", "3",
                    "--seconds", "0",
                    "--trace", str(trace),
                ]
            )
    finally:
        workloads.WORKLOADS[workload] = full
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_declared_workloads_exist(self):
        self.assertEqual(
            [entry["name"] for entry in SPEC["workloads"]],
            list(workloads.WORKLOADS),
        )

    def test_every_workload_passes_and_prints_every_metric(self):
        for name in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    code, lines, result = _run(name, trace)
                    self.assertEqual(code, 0, lines)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
                    printed = {
                        metric: value["unit"]
                        for metric, value in result["metrics"].items()
                    }
                    self.assertEqual(printed, declared)
                    self.assertTrue(
                        any(line.startswith("run digest=") for line in lines)
                    )

    def test_traced_and_untraced_runs_agree(self):
        _, untraced, _ = _run("contention", 0)
        _, traced, _ = _run("contention", 1)
        digests = [
            [line for line in lines if line.startswith(("batch", "run"))]
            for lines in (untraced, traced)
        ]
        self.assertEqual(digests[0], digests[1])

    def test_fails_without_the_program(self):
        """In a tree holding only the benchmark, it exits non-zero and
        prints no result."""
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                HERE,
                os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "contention", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
