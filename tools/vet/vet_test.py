#!/usr/bin/env python3
"""Regression tests for TangoVet (tools/vet).

Each seeded fixture under testdata/ contains exactly one violation of one
invariant class; its clean counterpart (or in-fixture negative control)
proves the corresponding escape hatch works. Fixtures force --mode tokens
so the suite exercises the degraded frontend that CI actually runs.

  $ python3 tools/vet/vet_test.py
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
VET = os.path.join(HERE, "tangovet.py")
TESTDATA = os.path.join(HERE, "testdata")


def run_vet(root, *extra):
    """Runs tangovet.py on `root`; returns (exit_code, findings list)."""
    proc = subprocess.run(
        [sys.executable, VET, "--mode", "tokens", "--root", root,
         "--quiet", "--json", "-", *extra],
        capture_output=True, text=True)
    payload = json.loads(proc.stdout) if proc.stdout.strip() else {}
    return proc.returncode, payload.get("findings", [])


class FixtureTest(unittest.TestCase):
    """One seeded violation per fixture, one finding per run."""

    def assert_single(self, fixture, rule, file, line):
        code, findings = run_vet(os.path.join(TESTDATA, fixture))
        self.assertEqual(code, 1, f"{fixture}: expected findings")
        self.assertEqual(len(findings), 1,
                         f"{fixture}: expected exactly one finding, got "
                         f"{findings}")
        f = findings[0]
        self.assertEqual(f["rule"], rule)
        self.assertEqual(f["file"], file)
        self.assertEqual(f["line"], line)

    def test_hot_alloc_seeded(self):
        self.assert_single("hot_alloc", "alloc.container-growth",
                           "src/flow/hot.cpp", 15)

    def test_hot_alloc_clean_via_cold_and_allow(self):
        code, findings = run_vet(os.path.join(TESTDATA, "hot_alloc_clean"))
        self.assertEqual(code, 0, findings)
        self.assertEqual(findings, [])

    def test_wall_clock_in_sim(self):
        self.assert_single("wall_clock", "time.wall-clock",
                           "src/sim/clock.cpp", 9)

    def test_audit_missing(self):
        code, findings = run_vet(os.path.join(TESTDATA, "audit_missing"))
        self.assertEqual(code, 1)
        self.assertEqual(len(findings), 1, findings)
        self.assertEqual(findings[0]["rule"], "missing-audit")
        # Store::Put is the violation; Store::Del carries AUDIT_CHECK and is
        # the in-fixture negative control.
        self.assertIn("Store::Put", findings[0]["message"])
        self.assertNotIn("Store::Del", " ".join(f["message"]
                                                for f in findings))

    def test_lock_order_inversion(self):
        self.assert_single("lock_order", "lock-order",
                           "src/common/locks.cpp", 12)

    def test_lock_across_barrier(self):
        self.assert_single("lock_barrier", "lock-across-barrier",
                           "src/common/barrier.cpp", 17)

    def test_check_filter(self):
        # --check restricts the run: the hot_alloc fixture is clean under
        # the determinism check alone.
        code, findings = run_vet(os.path.join(TESTDATA, "hot_alloc"),
                                 "--check", "determinism")
        self.assertEqual(code, 0, findings)


class RepoTreeTest(unittest.TestCase):
    """The real src/ tree must stay vet-clean in degraded mode."""

    def test_repo_clean(self):
        code, findings = run_vet(REPO)
        self.assertEqual(
            code, 0,
            "repo tree has vet findings:\n" +
            "\n".join(f"{f['file']}:{f['line']}: {f['rule']}"
                      for f in findings))

    def test_repo_has_hot_entry_points(self):
        # Guards against the hot-alloc check going vacuous: the annotation
        # pass marked these entry points and they must stay marked.
        proc = subprocess.run(
            [sys.executable, VET, "--mode", "tokens", "--root", REPO,
             "--list-functions"],
            capture_output=True, text=True)
        hot = [l for l in proc.stdout.splitlines() if l.endswith(" HOT")]
        for needle in ("DssLcScheduler::DispatchType",
                       "Simulator::RunUntil", "ShardEngine::RunShardEpoch",
                       "nn::MatMulInto"):
            self.assertTrue(any(needle in l for l in hot),
                            f"{needle} lost its TANGO_HOT marker")


class SarifTest(unittest.TestCase):
    def test_sarif_output(self):
        out = os.path.join(TESTDATA, "..", "_sarif_tmp.json")
        proc = subprocess.run(
            [sys.executable, VET, "--mode", "tokens", "--root",
             os.path.join(TESTDATA, "hot_alloc"), "--quiet",
             "--sarif", out],
            capture_output=True, text=True)
        try:
            self.assertEqual(proc.returncode, 1)
            with open(out, encoding="utf-8") as f:
                sarif = json.load(f)
            self.assertEqual(sarif["version"], "2.1.0")
            results = sarif["runs"][0]["results"]
            self.assertEqual(len(results), 1)
            loc = results[0]["locations"][0]["physicalLocation"]
            self.assertEqual(
                loc["artifactLocation"]["uri"], "src/flow/hot.cpp")
            self.assertEqual(loc["region"]["startLine"], 15)
        finally:
            if os.path.exists(out):
                os.unlink(out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
