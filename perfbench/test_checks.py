#!/usr/bin/env python3
"""Shows that each of the benchmark's checks can fail.

    python3 perfbench/test_checks.py

Runs the benchmark at a small scale, once clean and once per deliberate
fault (--inject), and asserts that the clean runs pass and that every
fault fails the run (exit 1, "correct": false) through the check it
targets:

  swap_neighbor  an answer's nearest neighbour swapped for the (k+1)-th
  drop_insert    an acked insert removed behind the checks' back
  checksum       sibling replicas fed different blobs at equal tags
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--seconds", "1", "--blobs", "4000", "--queries", "100",
         "--write_ops", "100"]


def run(workload, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "3", "--trace", "0",
               *SMALL, *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class ChecksCanFail(unittest.TestCase):

    def assert_passes(self, workload):
        code, result, err = run(workload)
        self.assertEqual(code, 0, err[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def assert_fails(self, workload, fault, message):
        code, result, err = run(workload, "--inject", fault)
        self.assertEqual(code, 1, err[-2000:])
        self.assertFalse(result["correct"])
        self.assertIn(message, err)

    def test_clean_runs_pass(self):
        self.assert_passes("knn-memory")
        self.assert_passes("fleet-wire-mixed")

    def test_swapped_neighbour_fails(self):
        self.assert_fails("knn-memory", "swap_neighbor", "k-NN of focus")

    def test_dropped_acked_insert_fails(self):
        self.assert_fails("knn-memory", "drop_insert", "lost acked insert")
        self.assert_fails("fleet-wire-mixed", "drop_insert",
                          "is not found at distance 0")

    def test_differing_replica_checksum_fails(self):
        self.assert_fails("fleet-wire-mixed", "checksum",
                          "disagrees with replica 0")


if __name__ == "__main__":
    unittest.main()
