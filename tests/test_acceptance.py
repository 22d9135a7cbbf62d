"""End-to-end guarantees the package ships with, one test per guarantee.

Run with -v for one pass/fail line per check. Sample counts, tolerances,
and time budgets are pinned inside each test; the statistical checks use
paired seeds so both sides of every comparison face identical scenes.
"""

import json
import socket
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from demoforge.annotation import scripted_annotate
from demoforge.bandit import (
    Arm,
    BanditState,
    PriorFit,
    estimate_rollout_value,
    evaluate_add_decision,
    record_outcome,
    thompson_select,
)
from demoforge.campaign import (
    CampaignConfig,
    audit_dataset,
    ensemble_runner,
    evaluate_policy,
    feedforward_runner,
    read_dataset,
    run_campaign,
    write_dataset,
)
from demoforge.demos import Action
from demoforge.ensemble import EnsembleState, action_delta, ensemble_step, similarity
from demoforge.gateway import MockGateway
from demoforge.geometry import Pose, Rotation, rotvec_matrices
from demoforge.simworld import TaskSpec, record_demo
from demoforge.warping import TrajectorySegment, compute_warp, warp_positions, warp_rotations
from oracles import decide_oracle, grid_max_z_alignment
from test_ensemble import reattach_at, switch_steps


def segment(poses, grips):
    """A trajectory from Pose objects and gripper commands."""
    return TrajectorySegment(
        np.stack([q.position for q in poses]),
        np.stack([q.rotation.as_matrix() for q in poses]),
        np.asarray(grips, dtype=float),
    )


def random_rotation(rng, scale=1.0):
    return Rotation(rotvec_matrices(rng.normal(0.0, scale, 3)))


def random_pose(rng, span=1.0):
    return Pose(rng.uniform(-span, span, size=3), random_rotation(rng))


def test_warp_endpoints_rotations_and_free_dof_on_1000_instances():
    # Endpoint constraints within 1e-9 m; the free rotational degree of
    # freedom must align z at least as well as a 1e-3 rad grid search (to
    # 1e-5); re-aimed segment rotations hit their endpoint targets to 1e-9.
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    done = 0
    while done < 1000:
        old_start, old_end = random_pose(rng), random_pose(rng)
        new_start, new_end = random_pose(rng), random_pose(rng)
        c_old = old_end.position - old_start.position
        c_new = new_end.position - new_start.position
        if min(np.linalg.norm(c_old), np.linalg.norm(c_new)) < 1e-3:
            continue
        tf = compute_warp(old_start.position, old_end.position, new_start.position, new_end.position)
        ends = warp_positions(np.stack([old_start.position, old_end.position]), *tf)
        assert np.linalg.norm(ends[0] - new_start.position) < 1e-9
        assert np.linalg.norm(ends[1] - new_end.position) < 1e-9

        best, _ = grid_max_z_alignment(
            c_old / np.linalg.norm(c_old), c_new / np.linalg.norm(c_new), resolution=1e-3
        )
        assert tf[0][2, 2] >= best - 1e-5

        mid = random_rotation(rng).as_matrix()
        rots = np.stack([old_start.rotation.as_matrix(), mid, old_end.rotation.as_matrix()])
        out = warp_rotations(rots, new_start.rotation.as_matrix(), new_end.rotation.as_matrix())
        assert np.max(np.abs(out[0] - new_start.rotation.as_matrix())) < 1e-9
        assert np.max(np.abs(out[-1] - new_end.rotation.as_matrix())) < 1e-9
        done += 1
    assert time.perf_counter() - t0 < 5.0


def test_equal_chord_warps_preserve_pairwise_distances():
    rng = np.random.default_rng(22)
    done = 0
    while done < 100:
        pts = np.cumsum(rng.normal(0.0, 0.02, (20, 3)), axis=0)
        chord = pts[-1] - pts[0]
        if np.linalg.norm(chord) < 1e-3:
            continue
        new_start = rng.uniform(-0.5, 0.5, 3)
        new_end = new_start + random_rotation(rng).apply(chord)
        mapped = warp_positions(pts, *compute_warp(pts[0], pts[-1], new_start, new_end))
        assert np.max(np.abs(pdist(mapped) - pdist(pts))) < 1e-9
        done += 1


def test_thompson_concentrates_pulls_on_the_best_arm():
    # 3 arms with true p 0.1 / 0.5 / 0.9, 500 pulls, 200 repetitions:
    # on average at least 80% of pulls go to the p=0.9 arm.
    true_p = np.array([0.1, 0.5, 0.9])
    t0 = time.perf_counter()
    shares = []
    for rep in range(200):
        state = BanditState(arms=[Arm(f"a{i}") for i in range(3)])
        select_rng = np.random.default_rng([83, rep])
        outcome_rng = np.random.default_rng([84, rep])
        best_pulls = 0
        for _ in range(500):
            i = thompson_select(state, select_rng)
            best_pulls += i == 2
            record_outcome(state, i, bool(outcome_rng.random() < true_p[i]))
        shares.append(best_pulls / 500.0)
    assert float(np.mean(shares)) >= 0.80, float(np.mean(shares))
    assert time.perf_counter() - t0 < 30.0


def test_expected_success_estimate_is_accurate_and_monotone():
    # Single arm, true p = 0.5, horizon 100, 1000 sampled ground truths:
    # the Monte Carlo estimate lands within 50 +/- 1.5 (3 standard errors).
    k = 1000
    half = np.full((k, 1), 0.5)
    est = estimate_rollout_value(half, [(0, 0)], 100, 4242)
    assert abs(est - 50.0) <= 1.5, est
    # shared eval seed: longer horizons and better arms only help
    by_T = [estimate_rollout_value(half, [(0, 0)], T, 4242) for T in (25, 50, 75, 100, 150)]
    assert all(a < b for a, b in zip(by_T, by_T[1:])), by_T
    by_p = [
        estimate_rollout_value(np.full((k, 1), p), [(0, 0)], 100, 4242)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert all(a < b for a, b in zip(by_p, by_p[1:])), by_p


def test_new_arm_decision_agrees_with_brute_force_on_20_states():
    # The packaged decision and a loop-based reimplementation consume the
    # exact same sampled ground truths, virtual-arm start, and eval seed.
    rng = np.random.default_rng(55)
    agreements = 0
    for case in range(20):
        n_arms = 1 + case % 4
        state = BanditState(
            arms=[Arm(f"a{j}", int(rng.integers(0, 6)), int(rng.integers(0, 6))) for j in range(n_arms)]
        )
        state.new_arm_attempts = int(rng.integers(1, 9))
        state.new_arm_successes = int(rng.integers(0, state.new_arm_attempts + 1))
        T = int(rng.integers(2, 22))
        prior = PriorFit(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 5.0)), 100)
        dec = evaluate_add_decision(state, T, prior, k=100, rng=np.random.default_rng([56, case]))
        counts = [(a.n_suc, a.n_fail) for a in state.arms]
        want, _, _ = decide_oracle(dec.probability_sets, counts, dec.p_new, T, dec.p_add, dec.eval_seed)
        agreements += dec.decision == want
    assert agreements == 20, agreements


def test_bandit_campaign_beats_fresh_annotation_baseline():
    # Same seeds, same noisy-annotator family; the only difference is
    # whether annotations are reused by posterior or minted fresh every
    # rollout. Pooled over 20 paired repetitions.
    t0 = time.perf_counter()
    totals = {"bandit": [0, 0], "no_optimization": [0, 0]}
    for rep in range(20):
        for mode in totals:
            cfg = CampaignConfig(
                task="pick_place",
                goal_successes=30,
                seed=1000 + rep,
                mode=mode,
                noise_min=0.001,
                noise_max=0.020,
                decision_samples=200,
                prior_samples=300,
                max_rollouts=150,
            )
            report = run_campaign(cfg)
            totals[mode][0] += report.successes
            totals[mode][1] += report.total_rollouts
    bandit_rate = totals["bandit"][0] / totals["bandit"][1]
    baseline_rate = totals["no_optimization"][0] / totals["no_optimization"][1]
    assert bandit_rate >= 1.5 * baseline_rate, (bandit_rate, baseline_rate)
    assert time.perf_counter() - t0 < 300.0


def test_similarity_analytic_values_and_algebraic_properties():
    a = np.array([1.0, -2.0, 0.5, 0.0, 0.3, 0.0, 1.0])
    assert similarity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert similarity(a, 2.0 * a) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert similarity(a, -a) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        u = rng.normal(0.0, 1.0, 7)
        v = rng.normal(0.0, 1.0, 7)
        s = similarity(u, v)
        assert similarity(v, u) == s
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
        lam = float(rng.uniform(0.1, 10.0))
        scaled = similarity(lam * u, lam * v)
        assert scaled == pytest.approx(s, abs=1e-9)


def test_reattach_satisfies_thresholds_and_cooldown_under_fuzz():
    scale = np.concatenate([np.full(3, 0.01), np.full(3, 0.05), [0.5]])

    # every accepted reattach point clears both thresholds, recomputed here
    # from the raw action deltas
    rng = np.random.default_rng(88)
    accepted = 0
    for _ in range(300):
        n = int(rng.integers(6, 40))
        poses = [Pose(rng.uniform(-0.2, 0.2, 3), random_rotation(rng, 0.05))]
        for _ in range(n - 1):
            poses.append(
                Pose(
                    poses[-1].position + rng.normal(0.0, 0.01, 3),
                    random_rotation(rng, 0.05) @ poses[-1].rotation,
                )
            )
        traj = segment(poses, list(rng.choice([0.0, 1.0], size=n)))
        t_now = int(rng.integers(0, n - 1))
        current = Pose(poses[t_now].position + rng.normal(0.0, 0.01, 3), poses[t_now].rotation)
        grip = float(rng.choice([0.0, 1.0]))
        if rng.random() < 0.6:
            # feedback roughly follows the recorded motion: accepts likely
            nxt = traj.pose(min(t_now + 1, n - 1))
            target = Pose(nxt.position + rng.normal(0.0, 0.002, 3), nxt.rotation)
            fb_grip = float(traj.gripper[min(t_now + 1, n - 1)])
        else:
            # feedback wanders off on its own: rejections likely
            target = Pose(current.position + rng.normal(0.0, 0.01, 3), current.rotation)
            fb_grip = float(rng.choice([0.0, 1.0]))
        a_il = action_delta(current, grip, target, fb_grip) / scale
        tau = float(rng.uniform(0.2, 0.8))
        t_star = reattach_at(traj, current, grip, t_now, a_il, scale, tau=tau)
        if t_star is None:
            continue
        accepted += 1
        att = action_delta(current, grip, traj.pose(t_star), traj.gripper[t_star]) / scale
        lo, hi = (t_star, t_star + 1) if t_star + 1 < len(traj) else (t_star - 1, t_star)
        rec = action_delta(traj.pose(lo), traj.gripper[lo], traj.pose(hi), traj.gripper[hi]) / scale
        assert similarity(att, a_il) > tau
        assert similarity(rec, a_il) > tau
    assert accepted >= 30, accepted  # the accept path was actually exercised

    # 1000-step fuzzed traces: consecutive mode switches at least 5 apart
    total_switches = 0
    for trial in range(5):
        trng = np.random.default_rng([89, trial])
        n = int(trng.integers(10, 40))
        poses = [Pose(np.array([0.0, 0.0, 0.1]))]
        for _ in range(n - 1):
            poses.append(Pose(poses[-1].position + trng.normal(0.0, 0.008, 3)))
        traj = segment(poses, list(trng.choice([0.0, 1.0], size=n)))
        state = EnsembleState.initial(traj)
        pose, grip = poses[0], 1.0
        for _ in range(1000):
            fb = Action(Pose(pose.position + trng.normal(0.0, 0.01, 3)), float(trng.choice([0.0, 1.0])))
            act, state = ensemble_step(state, fb, pose, grip)
            pose, grip = act.pose, act.gripper
        switches = switch_steps(state)
        total_switches += len(switches)
        assert all(b - a >= 5 for a, b in zip(switches, switches[1:])), (trial, switches)
    assert total_switches >= 3, total_switches


def test_ensemble_recovers_where_feedforward_fails_on_disturbed_scenes():
    # the block teleports 0.064 m away shortly before the recorded grasp;
    # open-loop replay closes on empty air, the ensemble re-plans
    spec = TaskSpec("pick_place")
    source = record_demo(spec, 1001, demo_id="src")
    annotation = scripted_annotate(source, "pick_place")

    def disturb(traj):
        g = next(i for i in range(1, len(traj)) if traj.gripper[i] < traj.gripper[i - 1])
        return [(max(0, g - 25), "block", np.array([0.05, 0.04, 0.0]))]

    ff = evaluate_policy(feedforward_runner(annotation, source, disturbance=disturb), spec, 100, seed=9)
    ens = evaluate_policy(ensemble_runner(annotation, source, disturbance=disturb), spec, 100, seed=9)
    assert ens.successes > ff.successes, (ens.successes, ff.successes)


def test_feedforward_is_brittle_when_the_scene_drifts():
    walking, static = TaskSpec("stack_walking"), TaskSpec("stack")
    source_w = record_demo(walking, 1001, demo_id="w")
    source_s = record_demo(static, 1001, demo_id="s")
    rep_w = evaluate_policy(
        feedforward_runner(scripted_annotate(source_w, "stack_walking"), source_w), walking, 100, seed=10
    )
    rep_s = evaluate_policy(
        feedforward_runner(scripted_annotate(source_s, "stack"), source_s), static, 100, seed=10
    )
    assert rep_w.successes < rep_s.successes, (rep_w.successes, rep_s.successes)


def test_thousand_demo_dataset_round_trips_and_replays(tmp_path):
    # read(write(demos)) is byte-identical and every stored demo replays to
    # success from its recorded scene seed
    total = 0
    for task, goal in (("pick_place", 334), ("stack", 333), ("drawer_mug", 333)):
        data = tmp_path / f"{task}.jsonl"
        cfg = CampaignConfig(
            task=task,
            goal_successes=goal,
            seed=3,
            mode="fixed_first",
            noise_min=0.0,
            noise_max=0.0,
            dataset_path=str(data),
        )
        report = run_campaign(cfg)
        assert report.successes == goal
        demos = read_dataset(data)
        assert len(demos) == goal
        rewritten = tmp_path / f"{task}.rewritten.jsonl"
        write_dataset(demos, rewritten)
        assert rewritten.read_bytes() == data.read_bytes()
        rewritten.unlink()
        del demos
        audit = audit_dataset(data)
        assert audit.total == goal
        assert audit.all_ok, audit.failed_ids
        total += goal
        data.unlink()
    assert total == 1000


def test_llm_pipeline_runs_on_the_mock_gateway_with_network_blocked(tmp_path):
    # the suite-wide guard refuses outbound connections...
    with pytest.raises(RuntimeError, match="network connection"):
        socket.create_connection(("127.0.0.1", 9), timeout=0.25)

    # ...and a full llm-annotator campaign still runs to its goal on the
    # in-process mock
    source = record_demo(TaskSpec("pick_place"), 1001, demo_id="pick_place-src00")
    good = scripted_annotate(source, "pick_place")

    def responder(prompt):
        if prompt.startswith("You are assisting with analysis"):
            return ", ".join(str(k.t) for k in good.keyposes)
        kps = [
            {
                "t": k.t,
                "pos_mm": list(k.pos_mm),
                "euler_deg": list(k.euler_deg),
                "gripper": k.gripper,
                "objects": list(k.objects),
                "note": k.note,
            }
            for k in good.keyposes
        ]
        return json.dumps({"description": "pick and place", "keyposes": kps})

    cfg = CampaignConfig(
        task="pick_place",
        goal_successes=3,
        seed=5,
        annotator="llm",
        noise_min=0.0,
        noise_max=0.0,
        decision_samples=50,
        prior_samples=60,
        source_demo_seeds=(1001,),
        dataset_path=str(tmp_path / "generated.jsonl"),
    )
    report = run_campaign(cfg, gateway=MockGateway(responder=responder))
    assert report.successes == 3
