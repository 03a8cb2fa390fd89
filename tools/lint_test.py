#!/usr/bin/env python3
"""Regression tests for tools/lint.py rules.

The fixture trees under tools/testdata/lint/ hold one seeded violation per
content rule (violations/) and the matching escapes — allow annotations,
grandfathered names, exempt directories, placement new (clean/). Both trees
run with the environment-dependent checks (headers, format) skipped so the
suite passes with or without g++/clang-format on PATH.

  $ python3 tools/lint_test.py
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "lint.py")
TESTDATA = os.path.join(HERE, "testdata", "lint")

CONTENT_RULES = ("hot-path", "raw-new", "rng", "stats-struct",
                 "shard-isolation", "inference-tape", "storm-stream")
# Seeded findings per rule in the violations tree (one unless listed).
SEEDED = {"hot-path": 3}
SEEDED_TOTAL = sum(SEEDED.get(rule, 1) for rule in CONTENT_RULES)


def run_lint(root, *extra):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root,
         "--skip", "headers", "--skip", "format", *extra],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout


class ViolationsTest(unittest.TestCase):
    """Each content rule fires once per seeded violation."""

    def test_one_finding_per_rule(self):
        code, out = run_lint(os.path.join(TESTDATA, "violations"))
        self.assertEqual(code, 1, out)
        for rule in CONTENT_RULES:
            want = SEEDED.get(rule, 1)
            self.assertEqual(out.count(f"[{rule}]"), want,
                             f"expected {want} [{rule}] finding(s):\n{out}")
        self.assertIn(f"{SEEDED_TOTAL} finding(s)", out)

    def test_findings_name_the_seeded_lines(self):
        _, out = run_lint(os.path.join(TESTDATA, "violations"))
        for needle in ("src/sim/hot.cpp:5", "src/sched/dss_lc.cpp:6",
                       "src/metrics/state_storage.h:7",
                       "src/common/raw.cpp:3",
                       "src/common/rng_bad.cpp:6",
                       "src/common/counters.cpp:3",
                       "src/shard/cross.cpp:4", "src/nn/gemm.cpp:3",
                       "src/storm/gen.cpp:7"):
            self.assertIn(needle, out)

    def test_skip_disables_a_rule(self):
        code, out = run_lint(os.path.join(TESTDATA, "violations"),
                             "--skip", "rng")
        self.assertEqual(code, 1)
        self.assertNotIn("[rng]", out)
        self.assertIn(f"{SEEDED_TOTAL - 1} finding(s)", out)


class CleanTest(unittest.TestCase):
    """Escape hatches and exemptions silence every rule."""

    def test_clean_tree_passes(self):
        code, out = run_lint(os.path.join(TESTDATA, "clean"))
        self.assertEqual(code, 0, out)
        self.assertIn("lint: clean", out)


class RepoTreeTest(unittest.TestCase):
    """The repo itself stays lint-clean (fixtures pruned from the walk)."""

    def test_repo_clean(self):
        code, out = run_lint(os.path.dirname(HERE))
        self.assertEqual(code, 0, out)

    def test_bad_root_is_usage_error(self):
        code, _ = run_lint(os.path.join(TESTDATA, "no_such_dir"))
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
