#!/usr/bin/env python3
"""Self-test of the figure-production benchmark, at smoke budgets.

    python3 perfbench/test_run.py

Runs every workload untraced and traced, checks that each metric
BENCHMARK.json names is printed with its unit, that the pinned-digest check
rejects a tampered document, and that the pinned smoke digests are those of
the monolithic figure binaries' ``--json`` output.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def smoke(trace):
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "all",
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        check=True, capture_output=True, text=True, cwd=run.ROOT)
    return out.stdout.strip().splitlines()[-1]


class SmokeRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.results = {trace: json.loads(smoke(trace)) for trace in (0, 1)}

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = self.results[trace]
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], len(run.WORKLOADS))
            expected = {f"{w}.{m['name']}": m["unit"]
                        for w in run.WORKLOADS for m in self.spec[section]}
            self.assertEqual(set(result["metrics"]), set(expected))
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], expected[name], name)
                self.assertTrue(math.isfinite(metric["value"]), name)

    def test_tampered_documents_fail_the_digest_check(self):
        digests = json.loads(run.DIGESTS.read_text())
        for workload in run.WORKLOADS:
            out = run.OUT_DIR / f"{workload}-smoke"
            flags = json.loads((out / "result.json").read_text())["figure_flags"]
            document = (out / "protocol.json").read_bytes()
            self.assertIsNone(run.digest_problem(
                workload, "smoke", flags, run.sha256(out / "protocol.json"), digests))
            tampered = out / "tampered.json"
            tampered.write_bytes(document.replace(b"0", b"1", 1))
            self.assertIsNotNone(run.digest_problem(
                workload, "smoke", flags, run.sha256(tampered), digests))
            self.assertIsNotNone(run.digest_problem(
                workload, "smoke", flags[:-1], run.sha256(out / "protocol.json"), digests))

    @unittest.skipIf(shutil.which("cargo") is None, "needs cargo")
    def test_pinned_digests_are_the_monolithic_binaries_output(self):
        digests = json.loads(run.DIGESTS.read_text())["smoke"]
        for workload in run.WORKLOADS:
            entry = digests[workload]
            self.assertEqual(entry["binary"], run.BINARIES[workload])
            self.assertEqual(
                run.monolithic_digest(workload, entry["flags"], 2), entry["sha256"], workload)


if __name__ == "__main__":
    unittest.main()
