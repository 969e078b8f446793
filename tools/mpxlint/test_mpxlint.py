#!/usr/bin/env python3
"""mpxlint self-tests: every seeded fixture must fire its check, the clean
control must not, and the real tree must scan clean against the baseline.

Runs under pytest or plain `python3 tools/mpxlint/test_mpxlint.py`
(ctest registers the plain form). Mirrors the PR 3 seeded-mutation
discipline: a check that cannot catch its own seeded violation is dead
code, not a gate.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args):
    """Run mpxlint as a subprocess; returns (exit_code, report_dict)."""
    cmd = [sys.executable, HERE, "--json", "--no-baseline", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    if proc.returncode not in (0, 1):
        raise AssertionError(
            f"mpxlint crashed ({proc.returncode}):\n{proc.stdout}\n"
            f"{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout)


def findings_of(report, check_id):
    return [f for f in report["findings"] if f["check"] == check_id]


class FixtureTests(unittest.TestCase):
    """One seeded violation per check; each must be caught."""

    def fixture(self, name):
        return os.path.join(FIXTURES, name)

    def test_rank_inversion_caught(self):
        code, report = run_lint("--check", "lock-rank",
                                self.fixture("rank_inversion.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "lock-rank")
        self.assertTrue(hits, f"lock-rank missed its fixture: {report}")
        self.assertTrue(any("inversion" in f["message"] for f in hits))

    def test_raw_atomic_in_modeled_code_caught(self):
        code, report = run_lint("--check", "mc-coverage",
                                self.fixture("raw_atomic_modeled.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "mc-coverage")
        members = {f["message"].split(" ", 1)[0] for f in hits}
        self.assertIn("Ring::head", members)
        self.assertIn("Ring::m", members)

    def test_unpaired_release_caught(self):
        code, report = run_lint("--check", "memory-order",
                                self.fixture("unpaired_release.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "memory-order")
        self.assertTrue(any("unpaired-release" in f["key"] for f in hits),
                        f"memory-order missed its fixture: {report}")

    def test_blocking_wait_in_poll_caught(self):
        code, report = run_lint("--check", "progress-contract",
                                self.fixture("blocking_poll.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "progress-contract")
        self.assertTrue(any("wait_all" in f["message"] for f in hits),
                        f"progress-contract missed its fixture: {report}")
        # The violation is transitive (poll -> helper_drain -> wait_all);
        # the path must be reported.
        self.assertTrue(any("helper_drain" in f["message"] for f in hits))

    def test_poll_until_in_poll_caught(self):
        # poll_until is the library's one idle-while-waiting loop; reaching
        # it from poll is a blocking wait like any other, and the helper
        # that hides it must appear in the reported path.
        code, report = run_lint("--check", "progress-contract",
                                self.fixture("poll_until_in_poll.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "progress-contract")
        self.assertTrue(any("'poll_until'" in f["message"] and
                            "settle" in f["message"] for f in hits),
                        f"missed poll_until reached from poll: {report}")

    def test_executor_shaped_violations_caught(self):
        # The schedule-executor shape (PR 7): poll -> drain_inbox ->
        # step_cursor hides the blocking wait two hops deep, and the
        # cursor-retire helper re-acquires a vci-ranked lock.
        code, report = run_lint("--check", "progress-contract",
                                self.fixture("exec_blocking_poll.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "progress-contract")
        self.assertTrue(any("wait_on_stream" in f["message"] and
                            "step_cursor" in f["message"] for f in hits),
                        f"missed the transitive blocking wait: {report}")
        self.assertTrue(any("rank vci" in f["message"] and
                            "retire_cursor" in f["message"] for f in hits),
                        f"missed the vci-ranked re-acquisition: {report}")

    def test_engine_driver_violations_caught(self):
        # The progress-driver shape (PR 9): the engine's worker loop may
        # call vci_poll bare (allowed boundary), but a blocking wait two
        # hops deep and a vci-ranked lock held across the poll are both
        # contract violations.
        code, report = run_lint("--check", "progress-contract",
                                self.fixture("engine_worker_blocking.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "progress-contract")
        self.assertTrue(any("wait_all" in f["message"] and
                            "drain_completions" in f["message"]
                            for f in hits),
                        f"missed the blocking wait in the driver: {report}")
        self.assertTrue(any("rank vci" in f["message"] and
                            "lock_slot_vci" in f["message"] for f in hits),
                        f"missed the vci-ranked acquisition: {report}")
        # ProgressThread::run is a driver root too: the blocking wait it
        # reaches through settle() is caught, its bare stream_progress is
        # not.
        self.assertTrue(any("'wait'" in f["message"] and
                            "ProgressThread::run" in f["message"] and
                            "settle" in f["message"] for f in hits),
                        f"missed the blocking wait in the helper: {report}")
        self.assertFalse(any("stream_progress" in f["message"]
                             for f in hits),
                         f"flagged the helper's entry-point call: {report}")
        # run()'s own poll_until is its loop, not a finding; the one
        # nested in linger() is.
        loops = [f for f in hits if "'poll_until'" in f["message"]]
        self.assertTrue(any("linger" in f["message"] for f in loops),
                        f"missed the nested poll_until: {report}")
        self.assertFalse(any("linger" not in f["message"] for f in loops),
                         f"flagged the helper's own loop: {report}")
        # The bare vci_poll in poll_one is the allowed boundary, not a
        # finding.
        self.assertFalse(any("poll_one" in f["message"] for f in hits),
                         f"flagged the allowed entry-point call: {report}")

    def test_mc_shim_outside_modeled_set_caught(self):
        # The inverse guard: mc:: shims in a file absent from
        # config.MODELED_FILES mean the protocol is never explored.
        code, report = run_lint("--check", "mc-coverage",
                                self.fixture("mc_shim_unlisted.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "mc-coverage")
        keys = {f["key"] for f in hits}
        self.assertIn("mc-coverage:unlisted:ForgottenRing::head", keys)
        self.assertIn("mc-coverage:unlisted:ForgottenRing::m", keys)
        self.assertTrue(all("MODELED_FILES" in f["message"] for f in hits))

    def test_verifier_call_in_poll_caught(self):
        # The schedule verifier (ir_verify) is compile-path only; reaching
        # it transitively from poll must be flagged with the path.
        code, report = run_lint("--check", "progress-contract",
                                self.fixture("verify_in_poll.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "progress-contract")
        self.assertTrue(any("verify_ranks" in f["message"] and
                            "revalidate_cache" in f["message"]
                            for f in hits),
                        f"missed the transitive verifier call: {report}")

    def test_topology_swap_call_in_poll_caught(self):
        # Control-plane topology mutations take the control mutex (below
        # vci) and drive progress while holding it; reaching one
        # transitively from poll must be flagged with the path.
        code, report = run_lint("--check", "progress-contract",
                                self.fixture("topology_swap_in_poll.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "progress-contract")
        self.assertTrue(any("swap_topology_for_test" in f["message"] and
                            "maybe_reroute" in f["message"]
                            for f in hits),
                        f"missed the transitive control-plane call: {report}")

    def test_shared_counter_on_datapath_caught(self):
        # RMWs on process-wide atomics in a datapath file: the namespace-
        # scope counter, the function-local static and the static accessor
        # idiom fire; member, thread_local, load-only and annotated
        # counters do not.
        code, report = run_lint("--check", "shared-counter",
                                self.fixture("shared_counter.cpp"))
        self.assertEqual(code, 1)
        keys = sorted(f["key"].rsplit(":", 1)[1]
                      for f in findings_of(report, "shared-counter"))
        self.assertEqual(keys, ["g_sends.fetch_add", "last.exchange",
                                "live_count().fetch_add",
                                "live_count().fetch_sub"],
                         f"unexpected shared-counter findings: {report}")

    def test_unannotated_guarded_field_caught(self):
        code, report = run_lint("--check", "tsa-ratchet",
                                self.fixture("unannotated_guarded.cpp"))
        self.assertEqual(code, 1)
        hits = findings_of(report, "tsa-ratchet")
        self.assertEqual(
            [f["key"] for f in hits],
            ["tsa-ratchet:Tracker::dropped"],
            f"expected exactly the 'dropped' field: {report}")

    def test_clean_control_is_clean(self):
        code, report = run_lint(self.fixture("clean.cpp"))
        self.assertEqual(code, 0, f"clean fixture flagged: {report}")
        self.assertEqual(report["findings"], [])


class TreeTests(unittest.TestCase):
    """The real tree must be clean modulo the checked-in baselines."""

    def test_repo_scan_is_clean(self):
        cmd = [sys.executable, HERE, "--json", "include", "src"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
        self.assertIn(proc.returncode, (0, 1),
                      f"mpxlint crashed:\n{proc.stdout}\n{proc.stderr}")
        report = json.loads(proc.stdout)
        self.assertEqual(
            proc.returncode, 0,
            "unbaselined findings in the tree:\n" + "\n".join(
                f"{f['file']}:{f['line']}: [{f['check']}] {f['message']}"
                for f in report["findings"]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
