"""Self-tests of the benchmark: each output check must fail on a broken output,
and the reference-speed clock must leave the probe's own time out.

    PYTHONPATH=src python3 bench/selftest.py

The file name keeps it out of pytest's ``test_*.py`` collection, so the
repository's own test run does not pay for it.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from refclock import REFERENCE_PROBE_S, SENSITIVITY, RefClock  # noqa: E402


def _campaign_dataset(tmp: str, task: str = "pick_place", goal: int = 2):
    from demoforge.campaign import CampaignConfig, run_campaign

    path = os.path.join(tmp, f"{task}.jsonl")
    cfg = CampaignConfig(
        task=task, goal_successes=goal, seed=3, mode="fixed_first", noise_min=0.0, noise_max=0.0,
        source_demo_seeds=(1001,), dataset_path=path,
    )
    return path, run_campaign(cfg)


class DatasetChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.path, cls.report = _campaign_dataset(cls.tmp.name)
        with open(cls.path) as fh:
            cls.lines = fh.read().splitlines()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _write(self, lines) -> str:
        path = os.path.join(self.tmp.name, "broken.jsonl")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def test_intact_dataset_passes(self):
        facts = checks.check_dataset(self.path, "pick_place", 2)
        self.assertEqual(facts["demos"], 2)
        checks.check_conservation(self.report)
        checks.check_round_trip(self.path, os.path.join(self.tmp.name, "rt.jsonl"))

    def test_corrupted_line_fails(self):
        broken = [self.lines[0], self.lines[1][: len(self.lines[1]) // 2]]
        with self.assertRaisesRegex(checks.CheckFailed, "does not parse"):
            checks.check_dataset(self._write(broken), "pick_place", 2)

    def test_missing_demo_fails(self):
        with self.assertRaisesRegex(checks.CheckFailed, "goal was 2"):
            checks.check_dataset(self._write(self.lines[:1]), "pick_place", 2)

    def test_block_outside_region_fails(self):
        doc = json.loads(self.lines[1])
        for obj in doc["steps"][-1]["obs"]["objects"]:
            if obj["name"] == "block":
                obj["pose"]["p"][0] += 0.05
        broken = [self.lines[0], json.dumps(doc, separators=(",", ":"))]
        with self.assertRaisesRegex(checks.CheckFailed, "misses the pick_place goal"):
            checks.check_dataset(self._write(broken), "pick_place", 2)

    def test_rotation_not_orthonormal_fails(self):
        doc = json.loads(self.lines[0])
        r = np.asarray(doc["steps"][3]["act"]["pose"]["R"]) * 1.001
        doc["steps"][3]["act"]["pose"]["R"] = r.tolist()
        broken = [json.dumps(doc, separators=(",", ":")), self.lines[1]]
        with self.assertRaisesRegex(checks.CheckFailed, "not orthonormal"):
            checks.check_dataset(self._write(broken), "pick_place", 2)

    def test_reflection_fails(self):
        doc = json.loads(self.lines[0])
        doc["steps"][0]["obs"]["robot"]["R"] = np.diag([1.0, 1.0, -1.0]).tolist()
        with self.assertRaisesRegex(checks.CheckFailed, "determinant"):
            checks.check_rotations(doc)

    def test_rollouts_not_conserved_fails(self):
        from dataclasses import replace

        with self.assertRaisesRegex(checks.CheckFailed, "not conserved"):
            checks.check_conservation(replace(self.report, total_rollouts=self.report.total_rollouts + 1))


class DecisionCheck(unittest.TestCase):
    def _recorded_decision(self):
        """Record one real add-arm decision the way the benchmark does."""
        import demoforge.campaign as campaign
        from demoforge.bandit import Arm, BanditState, PriorFit

        import tracing

        rec = tracing.Recorder(RefClock(), trace=False)
        rec.install()
        try:
            state = BanditState(arms=[Arm("a", 3, 2), Arm("b", 1, 3)], new_arm_attempts=4, new_arm_successes=2, goal_successes=20)
            rng = np.random.default_rng(np.random.SeedSequence([5, 41, 9]))
            campaign.decide_new_arm(state, 12, PriorFit(2.0, 3.0, 200), k=64, rng=rng)
        finally:
            rec.uninstall()
        self.assertEqual(len(rec.decisions), 1)
        return rec.decisions[0]

    def test_recorded_decision_passes_and_flipped_fails(self):
        d = self._recorded_decision()
        checks.check_decision(d)
        flipped = dict(d, answer=not d["answer"])
        with self.assertRaisesRegex(checks.CheckFailed, "recomputed"):
            checks.check_decision(flipped)

    def test_recompute_matches_the_package_estimates(self):
        from demoforge.bandit import Arm, BanditState, PriorFit, evaluate_add_decision

        d = self._recorded_decision()
        state = BanditState(arms=[Arm("a", 3, 2), Arm("b", 1, 3)], new_arm_attempts=4, new_arm_successes=2, goal_successes=20)
        ref = evaluate_add_decision(state, 12, PriorFit(2.0, 3.0, 200), k=64, rng=np.random.default_rng(np.random.SeedSequence([5, 41, 9])))
        mine = checks.recompute_decision(d)
        self.assertEqual(mine["e_stay"], ref.e_stay)
        self.assertEqual(mine["e_keep"], ref.e_keep)
        self.assertEqual(mine["answer"], ref.decision)


class EvaluationChecks(unittest.TestCase):
    def test_wilson_interval_mismatch_fails(self):
        from demoforge.campaign import EvalReport

        lo, hi = checks.wilson(7, 10)
        checks.check_eval(EvalReport(10, 7, 0.7, lo, hi), 10)
        with self.assertRaisesRegex(checks.CheckFailed, "Wilson"):
            checks.check_eval(EvalReport(10, 7, 0.7, lo, hi + 1e-6), 10)

    def test_switches_inside_cooldown_fail(self):
        checks.check_episode({"steps": 90, "switch_steps": [10, 15, 30]}, 40)
        with self.assertRaisesRegex(checks.CheckFailed, "closer than"):
            checks.check_episode({"steps": 90, "switch_steps": [10, 14]}, 40)
        with self.assertRaisesRegex(checks.CheckFailed, "before the disturbance"):
            checks.check_episode({"steps": 30, "switch_steps": []}, 40)


class ReferenceClock(unittest.TestCase):
    def test_probe_time_is_left_out(self):
        clock = RefClock()
        clock.ends = [1.0, 2.0, 3.0]
        clock.durations = [0.1, 0.2, 0.3]
        clock._cumulative = [0.1, 0.3, 0.6]
        self.assertAlmostEqual(clock.work_seconds(0.5, 2.5), 2.0 - 0.3)
        self.assertAlmostEqual(clock.work_seconds(2.5, 3.5), 1.0 - 0.3)
        self.assertAlmostEqual(clock.work_seconds(3.5, 4.0), 0.5)

    def test_live_probes_are_subtracted(self):
        clock = RefClock(period=0.02)
        clock.start()
        try:
            t0 = clock.now()
            end = t0 + 0.5
            while clock.now() < end:
                sum(range(1000))
            t1 = clock.now()
        finally:
            clock.stop()
        inside = [d for e, d in zip(clock.ends, clock.durations) if t0 <= e <= t1]
        self.assertGreaterEqual(len(inside), 3)
        self.assertAlmostEqual(clock.work_seconds(t0, t1), (t1 - t0) - sum(inside), places=12)

    def test_reference_time_scales_with_probe_speed(self):
        clock = RefClock()
        clock.ends = [float(t) for t in range(1, 11)]
        clock.durations = [2 * REFERENCE_PROBE_S] * 10  # a host half as fast as the reference
        clock._cumulative = list(np.cumsum(clock.durations))
        work = clock.work_seconds(0.0, 11.0)
        self.assertAlmostEqual(work, 11.0 - 20 * REFERENCE_PROBE_S)
        self.assertAlmostEqual(clock.ref_seconds(0.0, 11.0), work / 2**SENSITIVITY)


if __name__ == "__main__":
    start = time.perf_counter()
    result = unittest.main(exit=False, verbosity=2).result
    print(f"self-tests took {time.perf_counter() - start:.1f} s")
    sys.exit(0 if result.wasSuccessful() else 1)
