"""World mechanics: resets, step caps, attachment, walking, rollouts."""
import copy
import hashlib

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as SciRotation

from demoforge import campaign, simworld as sw
from demoforge.campaign import run_ensemble_episode
from demoforge.demos import Action, GRIPPER_CLOSED, GRIPPER_OPEN
from demoforge.geometry import Pose, Rotation
from demoforge.warping import TrajectorySegment
from oracles import (
    converged_oracle,
    demo_from_steps,
    fetch_oracle,
    grasp_offset_oracle,
    held_pose_oracle,
    observation_oracle,
    place_goal_oracle,
    record_demo_steps_oracle,
    rollout_steps_oracle,
    step_pose_toward_oracle,
    success_oracle,
)


WALKING_SHA256 = "f7d60e2d2968253ed4e0c61f91c73fe09be48437ccce39aa99860bcb30999ac7"


def segment(poses, grips):
    """A trajectory from Pose objects and gripper commands."""
    return TrajectorySegment(
        np.stack([q.position for q in poses]),
        np.stack([q.rotation.as_matrix() for q in poses]),
        np.asarray(grips, dtype=float),
    )


def hold_action(state, gripper=None):
    g = state.gripper if gripper is None else gripper
    return Action(state.robot_pose, g)


def demo_segment(demo):
    return segment([a.pose for _, a in demo.steps], [a.gripper for _, a in demo.steps])


class TestReset:
    def test_same_seed_identical(self):
        for kind in sw.BUNDLED_TASKS:
            s1, o1 = sw.reset(sw.TaskSpec(kind), 9)
            s2, o2 = sw.reset(sw.TaskSpec(kind), 9)
            assert set(s1.objects) == set(s2.objects)
            for name in s1.objects:
                assert np.array_equal(s1.objects[name].position, s2.objects[name].position)
                assert np.array_equal(
                    s1.objects[name].rotation.as_matrix(), s2.objects[name].rotation.as_matrix()
                )
            assert s1.task_metadata == s2.task_metadata
            for rid in s1.goal_regions:
                assert np.array_equal(s1.goal_regions[rid].pose.position, s2.goal_regions[rid].pose.position)
                assert s1.goal_regions[rid].color == s2.goal_regions[rid].color
            assert o1.text() == o2.text()

    def test_different_seeds_differ(self):
        s1, _ = sw.reset(sw.TaskSpec("pick_place"), 1)
        s2, _ = sw.reset(sw.TaskSpec("pick_place"), 2)
        assert not np.array_equal(s1.objects["block"].position, s2.objects["block"].position)

    def test_pick_place_positions_inside_region(self):
        spec = sw.TaskSpec("pick_place")
        for seed in range(1000):
            state, _ = sw.reset(spec, seed)
            x, y, _ = state.objects["block"].position
            assert abs(x) <= 0.10 + 1e-12
            assert abs(y) <= 0.15 + 1e-12

    def test_yaw_inside_range(self):
        spec = sw.TaskSpec("pick_place")
        for seed in range(200):
            state, _ = sw.reset(spec, seed)
            m = state.objects["block"].rotation.as_matrix()
            yaw = np.degrees(np.arctan2(m[1, 0], m[0, 0]))
            assert abs(yaw) <= 45.0 + 1e-9

    def test_flipped_fraction(self):
        spec = sw.TaskSpec("stack_flipped")
        flips = 0
        for seed in range(1000):
            state, _ = sw.reset(spec, seed)
            flips += state.goal_regions["goal_region"].color == "green_block,blue_block"
        assert abs(flips / 1000 - 0.5) <= 0.04

    def test_static_stack_never_flips(self):
        for seed in range(50):
            state, _ = sw.reset(sw.TaskSpec("stack"), seed)
            assert state.goal_regions["goal_region"].color == "blue_block,green_block"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sw.TaskSpec("juggling")

    def test_scene_observation_lists_regions_before_objects(self):
        _, obs = sw.reset(sw.TaskSpec("stack"), 0)
        names = list(obs.objects)
        assert names.index("goal_region") < names.index("blue_block")


class TestStep:
    def test_goal_at_current_pose_is_noop_except_t(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 3)
        before = state.objects["block"].position.copy()
        rp = state.robot_pose.position.copy()
        sw.step(state, hold_action(state))
        assert np.array_equal(state.robot_pose.position, rp)
        assert np.array_equal(state.objects["block"].position, before)

    def test_translation_cap_exact(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 3)
        start = state.robot_pose.position.copy()
        goal = start + np.array([1.0, 0.0, 0.0])
        sw.step(state, Action(Pose(goal), GRIPPER_OPEN))
        moved = state.robot_pose.position - start
        assert np.linalg.norm(moved) == pytest.approx(0.02, abs=1e-15)
        assert moved[1] == 0.0 and moved[2] == 0.0

    def test_rotation_cap_exact(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 3)
        goal = Pose(state.robot_pose.position.copy(), Rotation.about_z_deg(180.0))
        sw.step(state, Action(goal, GRIPPER_OPEN))
        assert Rotation.identity().angle_to(state.robot_pose.rotation) == pytest.approx(0.1, abs=1e-8)

    def test_reachable_goal_hit_exactly(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 3)
        goal = state.robot_pose.position + np.array([0.004, 0.003, 0.0])
        sw.step(state, Action(Pose(goal, state.robot_pose.rotation), GRIPPER_OPEN))
        assert np.array_equal(state.robot_pose.position, goal)

    def test_non_finite_action_rejected(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 3)
        bad = Action(Pose(np.zeros(3)), GRIPPER_OPEN)
        with pytest.raises(ValueError):
            bad.pose.position[0] = np.nan
        with pytest.raises(ValueError):
            sw.step(state, Action(Pose(np.zeros(3)), np.nan))


class TestAttachment:
    def grab_block(self, seed=5):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), seed)
        target = state.objects["block"].position.copy()
        for _ in range(400):
            if np.linalg.norm(state.robot_pose.position - target) <= 1e-12:
                break
            sw.step(state, Action(Pose(target), GRIPPER_OPEN))
        sw.step(state, Action(Pose(target), GRIPPER_CLOSED))
        assert state.attached_object == "block"
        return state

    def test_close_within_tolerance_attaches(self):
        self.grab_block()

    def test_close_out_of_tolerance_does_not_attach(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 5)
        sw.step(state, hold_action(state, GRIPPER_CLOSED))  # home is 0.2+ m from the block
        assert state.attached_object is None

    def test_attached_object_follows_rigidly(self):
        state = self.grab_block()
        offset = state.attach_offset
        rng = np.random.default_rng(0)
        for _ in range(30):
            goal = Pose(
                state.robot_pose.position + rng.normal(0, 0.01, 3),
                Rotation.about_z_deg(rng.uniform(-30, 30)),
            )
            sw.step(state, Action(goal, GRIPPER_CLOSED))
            # the block's pose in the gripper frame stays the grasp offset
            inv, got = state.robot_pose.rotation.inverse(), state.objects["block"]
            assert np.allclose(inv.apply(got.position - state.robot_pose.position), offset.position, atol=1e-12)
            assert np.allclose((inv @ got.rotation).as_matrix(), offset.rotation.as_matrix(), atol=1e-12)

    def test_open_detaches_and_rests(self):
        state = self.grab_block()
        lift = state.robot_pose.position + np.array([0.0, 0.0, 0.05])
        for _ in range(10):
            sw.step(state, Action(Pose(lift), GRIPPER_CLOSED))
        sw.step(state, hold_action(state, GRIPPER_OPEN))
        assert state.attached_object is None
        assert state.objects["block"].position[2] == pytest.approx(sw.BLOCK_HALF, abs=1e-12)

    def test_release_on_other_block_stacks(self):
        state, _ = sw.reset(sw.TaskSpec("stack"), 5)
        state.objects["green_block"] = Pose(
            state.objects["blue_block"].position + np.array([0.0, 0.0, 0.1])
        )
        state.attached_object = "green_block"
        ee, obj = state.robot_pose, state.objects["green_block"]
        inv = ee.rotation.inverse()
        state.attach_offset = Pose(inv.apply(obj.position - ee.position), inv @ obj.rotation)
        sw.step(state, hold_action(state, GRIPPER_OPEN))
        assert state.objects["green_block"].position[2] == pytest.approx(
            state.objects["blue_block"].position[2] + sw.BLOCK_SIZE, abs=1e-12
        )


class TestWalking:
    def test_displacement_per_step_exact_and_net_bounded(self):
        spec = sw.TaskSpec("stack_walking")
        state, _ = sw.reset(spec, 17)
        start = state.objects["blue_block"].position.copy()
        prev = start.copy()
        for _ in range(100):
            sw.step(state, hold_action(state))
            cur = state.objects["blue_block"].position
            assert np.linalg.norm(cur - prev) == pytest.approx(4e-4, abs=1e-15)
            assert cur[2] == prev[2]  # planar drift only
            prev = cur.copy()
        assert np.linalg.norm(prev - start) <= 0.04 + 1e-12

    def test_frozen_once_attached(self):
        spec = sw.TaskSpec("stack_walking")
        state, _ = sw.reset(spec, 17)
        target = state.objects["blue_block"].position.copy()
        # chase the walking block until caught
        for _ in range(600):
            target = state.objects["blue_block"].position.copy()
            sw.step(state, Action(Pose(target), GRIPPER_OPEN))
            if np.linalg.norm(state.robot_pose.position - state.objects["blue_block"].position) < 0.008:
                break
        sw.step(state, Action(Pose(state.objects["blue_block"].position.copy()), GRIPPER_CLOSED))
        assert state.attached_object == "blue_block"
        sw.step(state, hold_action(state, GRIPPER_OPEN))
        rest = state.objects["blue_block"].position.copy()
        for _ in range(50):
            sw.step(state, hold_action(state))
        assert np.array_equal(state.objects["blue_block"].position, rest)

    def test_walking_bits_pinned(self):
        # the drift's draws, angles and sums, over a recorded demo and a
        # feedforward replay of its actions on the next seed's drifting scene
        digest = hashlib.sha256()
        spec = sw.TaskSpec("stack_walking")
        for seed in (3, 11, 17, 29):
            demo = sw.record_demo(spec, seed)
            state, _ = sw.reset(spec, seed + 1)
            out = sw.rollout(state, demo.actions)
            for d in (demo, out.recording.demonstration("stack_walking")):
                for column in (d.entity_positions, d.entity_rotations, d.robot.positions, d.actions.positions):
                    digest.update(column.tobytes())
            digest.update(f"{out.success} {out.steps}".encode())
        assert digest.hexdigest() == WALKING_SHA256

    def test_static_tasks_do_not_walk(self):
        state, _ = sw.reset(sw.TaskSpec("stack"), 17)
        start = state.objects["blue_block"].position.copy()
        for _ in range(50):
            sw.step(state, hold_action(state))
        assert np.array_equal(state.objects["blue_block"].position, start)


class TestDisturbance:
    def test_zero_delta_unchanged(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 1)
        before = state.objects["block"].position.copy()
        sw.inject_disturbance(state, "block", np.zeros(3))
        assert np.array_equal(state.objects["block"].position, before)

    def test_attached_object_rejected(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 1)
        state.attached_object = "block"
        with pytest.raises(sw.ObjectAttached):
            sw.inject_disturbance(state, "block", np.array([0.01, 0, 0]))

    def test_unknown_object_rejected(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 1)
        with pytest.raises(KeyError):
            sw.inject_disturbance(state, "ghost", np.zeros(3))

    def test_disturbed_feedforward_rollout_fails(self):
        spec = sw.TaskSpec("pick_place")
        demo = sw.record_demo(spec, 2)
        state, _ = sw.reset(spec, 2)
        out = sw.rollout(state, demo_segment(demo), disturbances=[(5, "block", np.array([0.08, 0.08, 0.0]))])
        assert not out.success

    @pytest.mark.parametrize("pushed", ["blue_block", "green_block"], ids=["support", "load"])
    def test_load_falls_when_its_support_is_pushed_away(self, pushed):
        # push the bottom block out from under the top one, or the top block off the bottom one: either way the
        # top block ends on the ground, 5 cm from the other, and the bottom block stays on the ground
        state, _ = sw.reset(sw.TaskSpec("stack"), 0)
        bottom = state.objects["blue_block"].position
        state.objects["green_block"] = Pose(bottom + np.array([0.0, 0.0, sw.BLOCK_SIZE]))
        sw.inject_disturbance(state, pushed, np.array([0.05, 0.0, 0.0]))
        top_x = bottom[0] + (0.05 if pushed == "green_block" else 0.0)
        assert state.objects["green_block"].position.tolist() == [top_x, bottom[1], sw.BLOCK_HALF]
        assert state.objects["blue_block"].position[2] == sw.BLOCK_HALF

    @staticmethod
    def overlap(state):
        """Whether two blocks overlap: 4 cm cubes whose centres are under 4 cm apart in xy and in z intersect,
        whatever their yaw, as their inscribed cylinders do."""
        blocks = [p.position for n, p in state.objects.items() if n.endswith("block")]
        return any(
            np.linalg.norm(a[:2] - b[:2]) < sw.BLOCK_SIZE - 1e-9 and abs(a[2] - b[2]) < sw.BLOCK_SIZE - 1e-9
            for i, a in enumerate(blocks)
            for b in blocks[i + 1 :]
        )

    def test_pushed_stack_stays_solvable_and_physical(self):
        # a 1.3 cm push in +x on either block of a stack at one of three steps (before, during and after the
        # top block's placement): the support radius of 3 cm once let a released block rest on a block
        # floating above it, and a pushed support leave its load in the air
        for seed in range(60):
            for at in (200, 277, 350):
                for name in ("blue_block", "green_block"):
                    state, _ = sw.reset(sw.TaskSpec("stack"), seed)
                    for i in range(sw.RECORD_MAX_STEPS):
                        if i == at and state.attached_object != name:
                            sw.inject_disturbance(state, name, np.array([0.013, 0.0, 0.0]))
                        act = sw.scripted_action(state)
                        if act is None:
                            break
                        sw.step(state, act)
                    else:
                        pytest.fail(f"stack seed {seed}, {name} pushed at {at}: unsolved in {sw.RECORD_MAX_STEPS}")
                    assert sw.success(state) and not self.overlap(state), (seed, at, name)


class TestRollout:
    def test_scripted_demo_replays_to_success(self):
        for kind in sw.BUNDLED_TASKS:
            spec = sw.TaskSpec(kind)
            demo = sw.record_demo(spec, 4)
            state, _ = sw.reset(spec, 4)
            out = sw.rollout(state, demo_segment(demo))
            assert out.success, kind
            assert out.steps >= demo.horizon

    def test_record_demo_raises_when_the_controller_does_not_finish(self, monkeypatch):
        monkeypatch.setattr(sw, "RECORD_MAX_STEPS", 10)
        with pytest.raises(RuntimeError, match="did not finish pick_place within 10 steps"):
            sw.record_demo(sw.TaskSpec("pick_place"), 4)

    def test_record_demo_raises_when_the_controller_stops_short_of_success(self, monkeypatch):
        monkeypatch.setattr(sw, "scripted_action", lambda state: None)
        with pytest.raises(RuntimeError, match="failed pick_place on seed 4"):
            sw.record_demo(sw.TaskSpec("pick_place"), 4)

    def test_empty_motion_trajectory_fails(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 6)
        traj = segment([state.robot_pose, state.robot_pose], [1.0, 1.0])
        out = sw.rollout(state, traj)
        assert not out.success

    def test_far_point_converges_over_extra_steps(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 6)
        far = Pose(state.robot_pose.position + np.array([0.3, 0.0, 0.0]))
        traj = segment([far, far], [1.0, 1.0])
        out = sw.rollout(state, traj)
        assert np.allclose(out.recording.state.robot_pose.position, far.position, atol=1e-9)
        assert out.steps > 15  # 0.3 m at 0.02 m per step

    def test_trace_records_every_env_step(self):
        spec = sw.TaskSpec("pick_place")
        demo = sw.record_demo(spec, 4)
        state, _ = sw.reset(spec, 4)
        out = sw.rollout(state, demo_segment(demo))
        trace = out.recording.demonstration(spec.kind).steps
        assert len(trace) == out.steps
        assert all(isinstance(a.gripper, float) for _, a in trace)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_raises_before_any_step(self, bad):
        spec = sw.TaskSpec("pick_place")
        traj = sw.record_demo(spec, 4).actions
        positions = traj.positions.copy()
        positions[len(positions) // 2, 1] = bad
        state, _ = sw.reset(spec, 4)
        with pytest.raises(ValueError, match="pose position must be finite"):
            sw.rollout(state, TrajectorySegment(positions, traj.rotations, traj.gripper))
        assert state.robot_pose is sw.HOME_POSE and state.gripper == GRIPPER_OPEN

    def test_recording_keeps_the_trajectory_as_it_ran(self):
        # every point's pose holds a row of the rollout's own copy, not of the caller's arrays
        spec = sw.TaskSpec("pick_place")
        traj = sw.record_demo(spec, 4).actions
        positions, rotations = traj.positions.copy(), traj.rotations.copy()
        state, _ = sw.reset(spec, 4)
        out = sw.rollout(state, traj)
        traj.positions[:], traj.rotations[:] = 0.0, 0.0
        actions = out.recording.demonstration(spec.kind).actions
        assert out.steps == len(positions)  # a dense replay lands on every point in one step
        assert actions.positions.tobytes() == positions.tobytes() and actions.rotations.tobytes() == rotations.tobytes()
        assert state.robot_pose.position.tobytes() == positions[-1].tobytes()

    def test_rollout_and_ensemble_episode_step_the_state_they_are_handed(self):
        spec = sw.TaskSpec("pick_place")
        demo = sw.record_demo(spec, 4)
        for run in (sw.rollout, run_ensemble_episode):
            state, _ = sw.reset(spec, 4)
            assert not sw.success(state)
            assert run(state, demo_segment(demo)).success
            assert sw.success(state), run.__name__

    def test_pick_place_predicate_hand_constructed(self):
        state, _ = sw.reset(sw.TaskSpec("pick_place"), 8)
        center = state.goal_regions["target_region"].pose.position
        state.objects["block"] = Pose(center + np.array([0.01, 0.0, 0.0]))
        state.gripper = GRIPPER_OPEN
        assert sw.success(state)
        state.objects["block"] = Pose(center + np.array([0.03, 0.0, 0.0]))
        assert not sw.success(state)
        state.objects["block"] = Pose(center.copy())
        state.gripper = GRIPPER_CLOSED
        assert not sw.success(state)


def assert_columns_bitwise(demo, steps):
    """The demo's columns hold the bits of the per-step recording ``steps``."""
    want = demo_from_steps(steps, task=demo.task)
    assert (demo.entity_names, demo.entity_colors) == (want.entity_names, want.entity_colors)
    pairs = [(demo.entity_positions, want.entity_positions), (demo.entity_rotations, want.entity_rotations)]
    for got, exp in [(demo.actions, want.actions), (demo.robot, want.robot)]:
        pairs += [(got.positions, exp.positions), (got.rotations, exp.rotations), (got.gripper, exp.gripper)]
    for got, exp in pairs:
        assert got.dtype == exp.dtype and got.shape == exp.shape
        assert got.tobytes() == exp.tobytes()


def under_oracle(monkeypatch, fn, *args):
    """fn(*args) with the world's step maths swapped for their oracles."""
    with monkeypatch.context() as m:
        m.setattr(sw, "_step_pose_toward", step_pose_toward_oracle)
        m.setattr(sw, "_converged", converged_oracle)
        m.setattr(sw, "_fetch", fetch_oracle)
        return fn(*args)


def pose_bits(pose):
    return pose.position.tobytes() + pose.rotation.as_matrix().tobytes()


def pose_pairs(rng, n):
    """(current, goal) pairs whose distances (1e-13..1 m) and angles (1e-12..3
    rad) fall on both sides of every cap and tolerance: the same pose, a shared
    rotation, equal positions, and both moved, in either matrix memory layout."""
    rot = SciRotation.random(n, random_state=rng).as_matrix()
    pos = rng.uniform(-0.5, 0.5, (n, 3))
    unit = rng.normal(size=(2, n, 3))
    unit /= np.linalg.norm(unit, axis=2)[..., None]
    goal_pos = pos + unit[0] * 10.0 ** rng.uniform(-13, 0, n)[:, None]
    turn = unit[1] * 10.0 ** rng.uniform(-12, 0.5, n)[:, None]
    goal_rot = rot @ SciRotation.from_rotvec(turn).as_matrix()
    pairs = []
    for i in range(n):
        current = Pose(pos[i], Rotation(rot[i]))
        shape = i % 5
        if shape == 0:
            goal = current
        elif shape == 1:
            goal = Pose(goal_pos[i], current.rotation)
        elif shape == 2:
            goal = Pose(pos[i], Rotation(goal_rot[i]))
        elif shape == 3:
            goal = Pose(goal_pos[i], Rotation(goal_rot[i]))
        else:
            current = Pose(pos[i], Rotation(np.asfortranarray(rot[i])))
            goal = Pose(goal_pos[i], Rotation(np.asfortranarray(goal_rot[i])))
        pairs.append((current, goal))
    return pairs


def fuzzed_trajectory(rng, traj):
    """A recorded action track with some points nudged, some thrown across the
    workspace, some repeated, some gripper commands flipped, and a third of the
    points dropped so that the rest take extra env steps to reach."""
    positions, rotations, gripper = traj.positions.copy(), traj.rotations.copy(), traj.gripper.copy()
    n = len(gripper)
    roll = rng.random(n)
    nudge = roll < 0.5
    positions[nudge] += rng.normal(scale=1e-3, size=(nudge.sum(), 3))
    turn = SciRotation.from_rotvec(rng.normal(scale=0.05, size=(nudge.sum(), 3)))
    rotations[nudge] = rotations[nudge] @ turn.as_matrix()
    far = (roll >= 0.5) & (roll < 0.6)
    positions[far] = rng.uniform([-0.2, -0.2, 0.0], [0.2, 0.2, 0.3], (far.sum(), 3))
    rotations[far] = SciRotation.random(far.sum(), random_state=rng).as_matrix()
    again = np.flatnonzero((roll >= 0.6) & (roll < 0.7))
    again = again[again > 0]
    positions[again], rotations[again] = positions[again - 1], rotations[again - 1]
    flip = (roll >= 0.7) & (roll < 0.75)
    gripper[flip] = 1.0 - gripper[flip]
    keep = np.sort(np.r_[0, rng.choice(np.arange(1, n), size=2 * (n - 1) // 3, replace=False)])
    return TrajectorySegment(positions[keep], rotations[keep], gripper[keep])


def assert_states_bitwise(got, want):
    assert pose_bits(got.robot_pose) == pose_bits(want.robot_pose)
    for field in ("gripper", "attached_object", "frozen"):
        assert getattr(got, field) == getattr(want, field), field
    assert [(k, pose_bits(p)) for k, p in got.objects.items()] == [(k, pose_bits(p)) for k, p in want.objects.items()]
    offsets = [None if o is None else pose_bits(o) for o in (got.attach_offset, want.attach_offset)]
    assert offsets[0] == offsets[1]
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


def assert_grasp_matches_oracle(held_before, state):
    """After one step: the offset of a grasp it made, or the pose it moved a
    held object to, bit for bit that of the first-shipped rigid-transform
    maths (tests/oracles.py). Says which it checked: "grasp", "held" or None."""
    name, ee, offset = state.attached_object, state.robot_pose, state.attach_offset
    if name is None or held_before == name == "drawer":  # a drawer slides; only its offset's x is read
        return None
    ee_matrices = (ee.position, ee.rotation.as_matrix())
    if held_before != name:
        got, obj = offset, state.objects[name]
        want = grasp_offset_oracle(*ee_matrices, obj.position, obj.rotation.as_matrix())
    else:
        got = state.objects[name]
        want = held_pose_oracle(*ee_matrices, offset.position, offset.rotation.as_matrix())
    assert pose_bits(got) == want[0].tobytes() + want[1].tobytes()
    return "grasp" if held_before != name else "held"


def yaw_only_matrix(c, s, zero):
    """A rotation about z built entry by entry, with ``zero`` (0.0 or -0.0)
    and its negation in the z row and column."""
    return np.array([[c, -s, zero], [s, c, -zero], [-zero, zero, 1.0]])


class TestGraspMatchesOracle:
    @pytest.mark.parametrize("kind", sw.BUNDLED_TASKS)
    def test_record_demo(self, kind, monkeypatch):
        step, seen = sw.step, set()

        def checked_step(state, action):
            held = state.attached_object
            step(state, action)
            seen.add(assert_grasp_matches_oracle(held, state))
            return state

        monkeypatch.setattr(sw, "step", checked_step)
        sw.record_demo(sw.TaskSpec(kind), 4)
        assert {"grasp", "held"} <= seen

    def test_yaw_only_grasps_with_signed_zeros(self):
        # quarter turns give exact 0.0 and -0.0 products; neither the grasp
        # nor a held step may flip the sign of an exact-zero entry
        turns = [(1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, -1.0), (np.cos(0.5), np.sin(0.5))]
        rotations = [yaw_only_matrix(c, s, zero) for c, s in turns for zero in (0.0, -0.0)]
        places = [
            (np.array([0.0, -0.0, 0.05]), np.array([-0.0, 0.0, 0.054])),
            (np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, 0.0])),
        ]
        for ee_position, obj_position in places:
            for ee_rotation in rotations:
                for obj_rotation in rotations:
                    state, _ = sw.reset(sw.TaskSpec("pick_place"), 5)
                    state.robot_pose = Pose(ee_position, Rotation(ee_rotation.copy()))
                    state.objects["block"] = Pose(obj_position, Rotation(obj_rotation.copy()))
                    sw.step(state, hold_action(state, GRIPPER_CLOSED))
                    assert assert_grasp_matches_oracle(None, state) == "grasp"
                    for turn in rotations:
                        state.robot_pose = Pose(ee_position, Rotation(turn.copy()))
                        sw.step(state, hold_action(state, GRIPPER_CLOSED))
                        assert assert_grasp_matches_oracle("block", state) == "held"


def checked_action(state):
    """scripted_action on a block task, bit for bit the uncached place tree's step toward its goal."""
    act, goal = sw.scripted_action(state), place_goal_oracle(state)
    if goal is None:
        assert act is None
        return None
    want = step_pose_toward_oracle(state.robot_pose, goal[0], sw.POLICY_STEP, sw.POLICY_ANGULAR_STEP)
    assert (pose_bits(act.pose), act.gripper) == (pose_bits(want), goal[1])
    return act


def checked_step(state, action):
    """One world step, its end-effector, grasp or held pose and success bit for bit the uncached oracles'."""
    held = state.attached_object
    want = step_pose_toward_oracle(state.robot_pose, action.pose, sw.MAX_STEP, sw.MAX_ANGULAR_STEP)
    sw.step(state, action)
    assert pose_bits(state.robot_pose) == pose_bits(want)
    assert_grasp_matches_oracle(held, state)
    assert sw.success(state) == success_oracle(state)


def push(name, dx, dy):
    return lambda state: sw.inject_disturbance(state, name, [dx, dy, 0.0])


def shift_robot(state):  # a new Pose that keeps the end-effector's Rotation object
    state.robot_pose = Pose(state.robot_pose.position + np.array([0.004, -0.003, 0.002]), state.robot_pose.rotation)


def shift_offset(state):
    off = state.attach_offset
    state.attach_offset = Pose(off.position + np.array([0.001, 0.0, -0.002]), off.rotation)


def release_and_regrasp(state):
    """Open and close where the arm stands: the dropped block is grasped again, at a new offset, by the same Rotation."""
    name, rotation = state.attached_object, state.robot_pose.rotation
    checked_step(state, Action(state.robot_pose, GRIPPER_OPEN))
    assert state.attached_object is None
    checked_step(state, Action(state.robot_pose, GRIPPER_CLOSED))
    assert state.attached_object == name and state.robot_pose.rotation is rotation


class TestCachesServeNoStaleValue:
    """The world reuses the held object's rotated offset, each block's distance
    to its slot, the fetch's hover pose and the carry target while their
    operands are the same objects. Scripted episodes edited between steps
    match the uncached oracles (tests/oracles.py) at every step."""

    EDITS = {  # (held object or None, the n-th step with it held) -> edit made before that step
        "pick_place": {
            (None, 30): push("block", 0.03, -0.02),  # mid-fetch, on the way to the hover pose
            (None, 55): push("block", -0.02, 0.01),  # mid-fetch, on the way down to the block
            (None, 100): push("block", 0.0, 0.015),  # the placed block, on the way home
            ("block", 2): release_and_regrasp,
            ("block", 20): shift_robot,  # mid-carry
            ("block", 30): shift_offset,
        },
        "stack": {
            (None, 30): push("blue_block", 0.02, 0.02),
            ("blue_block", 15): push("green_block", -0.02, 0.03),  # mid-carry, the block still to fetch
            ("blue_block", 25): shift_robot,
            ("blue_block", 35): shift_offset,
            ("green_block", 2): release_and_regrasp,
            ("green_block", 20): push("blue_block", 0.03, 0.0),  # mid-carry, the placed block
        },
    }

    @pytest.mark.parametrize("kind", sorted(EDITS))
    @pytest.mark.parametrize("seed", [4, 11])
    def test_edited_scripted_episode(self, kind, seed):
        edits, counts = dict(self.EDITS[kind]), {}
        state, _ = sw.reset(sw.TaskSpec(kind), seed)
        for _ in range(sw.RECORD_MAX_STEPS):
            key = (state.attached_object, counts.get(state.attached_object, 0) + 1)
            counts[state.attached_object] = key[1]
            if key in edits:
                edits.pop(key)(state)
            act = checked_action(state)
            if act is None:
                break
            checked_step(state, act)
        assert act is None and sw.success(state)
        assert not edits  # every edit was made


class TestRecordingMatchesPerStepOracle:
    """The recorder keeps pose references and builds columns once; the oracle
    builds one observation object per env step and runs the step maths as
    first shipped (tests/oracles.py). Their bits must agree."""

    @pytest.mark.parametrize("kind", sw.BUNDLED_TASKS)
    def test_record_demo(self, kind, monkeypatch):
        spec = sw.TaskSpec(kind)
        want = under_oracle(monkeypatch, record_demo_steps_oracle, spec, 4)
        assert_columns_bitwise(sw.record_demo(spec, 4), want)

    @pytest.mark.parametrize("mode", ["replay", "disturbed", "sparse", "fuzzed"])
    @pytest.mark.parametrize("kind", sw.BUNDLED_TASKS)
    def test_rollout(self, kind, mode, monkeypatch):
        spec = sw.TaskSpec(kind)
        traj = sw.record_demo(spec, 4).actions
        state, _ = sw.reset(spec, 4)
        disturbances = None
        if mode == "disturbed":
            disturbances = [(5, list(state.objects)[-1], np.array([0.01, -0.01, 0.0]))]
        elif mode == "sparse":  # 9x the stride: points take extra env steps to converge
            keep = np.r_[0 : len(traj) : 9, len(traj) - 1]
            traj = TrajectorySegment(traj.positions[keep], traj.rotations[keep], traj.gripper[keep])
        elif mode == "fuzzed":
            rng = np.random.default_rng(sw.BUNDLED_TASKS.index(kind))
            traj = fuzzed_trajectory(rng, traj)
            # nothing is held until the first close executes, so disturbing up to it cannot raise
            first_close, names = int(np.argmax(traj.gripper < 0.5)), sorted(state.objects)
            disturbances = [
                (int(rng.integers(first_close + 1)), names[rng.integers(len(names))], [*rng.normal(0, 0.02, 2), 0.0])
                for _ in range(3)
            ]
        want = under_oracle(monkeypatch, rollout_steps_oracle, state, traj, disturbances)
        out = sw.rollout(state, traj, disturbances)
        assert_columns_bitwise(out.recording.demonstration(kind), want)


def scripted_steps(state, events=()):
    """(observation, action) pairs of the scripted controller run from ``state``
    until it is done; each (step, event) calls event(state) just before its step."""
    steps = []
    for i in range(sw.RECORD_MAX_STEPS):
        for at, event in events:
            if at == i:
                event(state)
        act = sw.scripted_action(state)
        if act is None:
            break
        steps.append((observation_oracle(state), act))
        sw.step(state, act)
    return steps


def fetched_poses(monkeypatch):
    """Every object pose ``_fetch`` reads, from now on: the list holds them, so no id is reused."""
    fetch, read = sw._fetch, []

    def reading(state, name):
        read.append(state.objects[name])
        return fetch(state, name)

    monkeypatch.setattr(sw, "_fetch", reading)
    return read


def push(delta):
    return lambda state: sw.inject_disturbance(state, "block", np.asarray(delta))


def turn(yaw_deg):
    rotation = Rotation.about_z_deg(yaw_deg)
    return lambda state: state.objects.update(block=Pose(state.objects["block"].position, rotation))


# a pick_place block pushed up to 3.6 cm, or turned in place, while the arm approaches it
APPROACH_EVENTS = {
    **{f"seed{seed}-push-at{at}": (seed, [(at, push([0.02, 0.01 * seed - 0.03, 0.0]))]) for seed in range(4) for at in (15, 30)},
    **{f"seed{seed}-turn-at{at}": (seed, [(at, turn(40.0 - 30.0 * seed))]) for seed in range(2) for at in (15, 30)},
}


class TestScriptedMatchesOracle:
    """The grasp rotation is worked out once per object pose; the oracle
    rebuilds it on every control step, as first shipped (tests/oracles.py).
    Where the object moves under the controller, their bits must agree."""

    @pytest.mark.parametrize("seed, events", APPROACH_EVENTS.values(), ids=APPROACH_EVENTS.keys())
    def test_pick_place_block_moved_mid_approach(self, seed, events, monkeypatch):
        spec = sw.TaskSpec("pick_place")
        want = under_oracle(monkeypatch, scripted_steps, sw.reset(spec, seed)[0], events)
        state, _ = sw.reset(spec, seed)
        read = fetched_poses(monkeypatch)
        got = scripted_steps(state, events)
        assert sw.success(state)
        assert len({id(p) for p in read}) == 2  # the controller saw the block before and after the move
        assert_columns_bitwise(demo_from_steps(got), want)

    @pytest.mark.parametrize("seed", range(4))
    def test_stack_walking_drift(self, seed, monkeypatch):
        spec = sw.TaskSpec("stack_walking")
        want = under_oracle(monkeypatch, scripted_steps, sw.reset(spec, seed)[0])
        state, _ = sw.reset(spec, seed)
        read = fetched_poses(monkeypatch)
        got = scripted_steps(state)
        assert sw.success(state)
        assert len({id(p) for p in read}) > 50  # each drift step replaces the unheld blocks' poses
        assert_columns_bitwise(demo_from_steps(got, task=spec.kind), want)


class TestGraspRotationOncePerObjectPose:
    @pytest.mark.parametrize(
        "seed, events", [(seed, []) for seed in range(4)] + [APPROACH_EVENTS["seed0-push-at15"], APPROACH_EVENTS["seed1-turn-at30"]]
    )
    def test_pick_place_trial(self, seed, events, monkeypatch):
        # the first-shipped controller made about 67 from_euler_deg calls a trial, one per control step
        state, _ = sw.reset(sw.TaskSpec("pick_place"), seed)
        from_euler, calls = Rotation.from_euler_deg.__func__, []
        monkeypatch.setattr(Rotation, "from_euler_deg", classmethod(lambda cls, *a: calls.append(a) or from_euler(cls, *a)))
        read = fetched_poses(monkeypatch)
        scripted_steps(state, events)
        assert sw.success(state)
        assert 0 < len(calls) <= len({id(p) for p in read}) == 1 + len(events)


TOL = sw.POSITION_TOLERANCE
# multiples of the tolerance that straddle both edges: placed (tol/2) and success (tol)
EDGES = (0.5 + 1e-9, 0.75, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.005)


def success_probes(state, rng):
    """Copies of ``state`` on the edges of ``success``: one unheld block, or
    all of them, at each EDGES multiple of the tolerance from its slot (for
    the drawer task: the drawer at that multiple of 2 cm from shut, the mug
    at that multiple of 4 cm from the interior's center), each also with
    the gripper closed, on nothing when nothing is held."""

    def probe(**moves):
        got = copy.copy(state)
        got.objects = {**state.objects, **{n: Pose(p, state.objects[n].rotation) for n, p in moves.items()}}
        return got

    probes = [state]
    for edge in EDGES:
        if state.spec.kind == "drawer_mug":
            drawer, mug = state.objects["drawer"].position, state.objects["mug"].position
            slide = np.array([state.task_metadata["drawer_closed_x"] - 0.02 * edge - drawer[0], 0.0, 0.0])
            interior = drawer + np.array([sw.DRAWER_INTERIOR_DX, 0.0, 0.0])
            axis = np.eye(3)[rng.integers(2)] * rng.choice([-1.0, 1.0])
            probes += [probe(drawer=drawer + slide, mug=mug + slide), probe(mug=interior + 0.04 * edge * axis)]
        else:
            unheld = [n for n in state.slots if n != state.attached_object]
            away = {n: state.slots[n] + TOL * edge * unit for n, unit in zip(unheld, unit_vectors(rng, len(unheld)))}
            probes += [probe(**{n: p}) for n, p in away.items()] + [probe(**away)]
    for got in probes[:]:
        closed = copy.copy(got)
        closed.gripper = GRIPPER_CLOSED
        probes.append(closed)
    return probes


def unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestSuccessMatchesOracle:
    """One ``success`` covers every task, with the blocks' slots worked out in
    ``reset``; the first-shipped per-task formulas are kept in tests/oracles.py."""

    @pytest.mark.parametrize("kind", sw.BUNDLED_TASKS)
    def test_perturbed_scripted_runs(self, kind):
        seen = set()
        for seed in range(3):
            rng = np.random.default_rng([seed, 30])
            state, _ = sw.reset(sw.TaskSpec(kind), seed)
            movable = [n for n in state.objects if n != "drawer"]
            pushes = {int(rng.integers(400)): (movable[int(rng.integers(len(movable)))], rng.uniform(-0.03, 0.03, 2)) for _ in range(3)}
            for i in range(sw.RECORD_MAX_STEPS):
                name, delta = pushes.get(i, (None, None))
                if name is not None and name != state.attached_object:
                    sw.inject_disturbance(state, name, [*delta, 0.0])
                act = sw.scripted_action(state)
                if i % 9 == 0 or act is None:
                    for probe in success_probes(state, rng):
                        want = success_oracle(probe)
                        assert sw.success(probe) == want, (seed, i)
                        seen.add(want)
                if act is None:
                    break
                sw.step(state, act)
        assert seen == {False, True}


class TestSuccessOncePerStep:
    """``scripted_action`` does not test ``success``: every tree ends in its
    own home-or-done step, and the loops that stop on success test it once
    per step. The first-shipped block trees tested it again, twice a step."""

    @staticmethod
    def counting(monkeypatch):
        calls = {"success": 0, "step": 0}
        success, step = sw.success, sw.step

        def counting_success(state):
            calls["success"] += 1
            return success(state)

        def counting_step(state, action):
            calls["step"] += 1
            return step(state, action)

        for module in (sw, campaign):
            monkeypatch.setattr(module, "success", counting_success)
        monkeypatch.setattr(campaign, "step", counting_step)
        return calls

    @pytest.mark.parametrize("kind", sw.BUNDLED_TASKS)
    def test_scripted_runner(self, kind, monkeypatch):
        calls = self.counting(monkeypatch)
        assert campaign.scripted_runner()(sw.TaskSpec(kind), 5)
        assert calls["step"] > 100
        assert calls["success"] == calls["step"] + 1  # before each step, and the test that finds it done

    @pytest.mark.parametrize("kind", ["pick_place", "stack"])
    def test_ensemble_episode(self, kind, monkeypatch):
        spec = sw.TaskSpec(kind)
        demo = sw.record_demo(spec, 4)
        first = {"pick_place": "block", "stack": "blue_block"}[kind]  # the bottom block
        grasp = demo.gripper_transition_timesteps()[0]
        state, _ = sw.reset(spec, 4)
        calls = self.counting(monkeypatch)
        out = run_ensemble_episode(state, demo_segment(demo), [(grasp - 25, first, np.array([0.05, 0.04, 0.0]))])
        assert out.success
        assert any(row["mode"] == "feedback" for row in out.ensemble.trace)  # the push hands control to the scripted feedback
        assert calls["success"] == calls["step"] + 2  # before each step, the test that ends the loop, the outcome


def parting_state(case):
    """A pick_place state, the arm at home, where the one placement tree and
    the first-shipped pick_place tree answer differently."""
    state, _ = sw.reset(sw.TaskSpec("pick_place"), 8)
    block, slot = state.objects["block"], state.slots["block"]
    if case == "closed-on-nothing":
        state.objects["block"], state.gripper = Pose(slot.copy(), block.rotation), GRIPPER_CLOSED
    else:
        state.objects["block"] = Pose(slot + np.array([0.75 * TOL, 0.0, 0.0]), block.rotation)
    return state


class TestWhereTheTreesPart:
    """Two states no caller reaches: ``scripted_runner`` and
    ``run_ensemble_episode`` test ``success`` before they ask the tree, and a
    recorded demo releases each block exactly on its slot. Both are pinned
    here so that a change to either answer is a decision, not an accident."""

    @pytest.mark.parametrize("case", ["closed-on-nothing", "placed-within-tol"])
    def test_pick_place(self, case):
        state = parting_state(case)
        block = state.objects["block"].position
        act = sw.scripted_action(state)
        assert act.gripper == GRIPPER_OPEN
        if case == "closed-on-nothing":
            # (a) the block sits in its slot: the tree opens the gripper and stays home, where
            # the first-shipped tree, not yet successful, opened it and went back for the block;
            # either way the task is done once the gripper is open
            assert not sw.success(state)
            assert act.pose is sw.HOME_POSE
            assert sw.success(sw.step(state, act))
        else:
            # (b) success holds, but a block counts as placed only within tol/2 of its slot: the
            # tree fetches the block again, where the first-shipped tree tested success and was done
            assert sw.success(state)
            home = sw.HOME_POSE.position
            assert sw._norm(act.pose.position[:2] - block[:2]) < sw._norm(home[:2] - block[:2])


class TestStepMatchesOracle:
    """The env step's maths run on Python floats and one relative rotation per
    step; every bit must be that of the numpy version kept in tests/oracles.py."""

    @pytest.mark.parametrize(
        "caps", [(sw.MAX_STEP, sw.MAX_ANGULAR_STEP), (sw.POLICY_STEP, sw.POLICY_ANGULAR_STEP), "random"]
    )
    def test_step_pose_toward(self, caps):
        rng = np.random.default_rng(41)
        branches = {}
        for current, goal in pose_pairs(rng, 15_000):
            max_step, max_angular = 10.0 ** rng.uniform(-13, 0, 2) if caps == "random" else caps
            want = step_pose_toward_oracle(current, goal, max_step, max_angular)
            got = sw._step_pose_toward(current, goal, max_step, max_angular)
            assert pose_bits(got) == pose_bits(want)
            reached = tuple(
                w.tobytes() == g.tobytes()
                for w, g in [(want.position, goal.position), (want.rotation.as_matrix(), goal.rotation.as_matrix())]
            )
            branches[reached] = branches.get(reached, 0) + 1
        # capped translation and rotation, each alone, and landing on the goal
        assert len(branches) == 4 and min(branches.values()) > 100, branches

    @pytest.mark.parametrize("tols", [(1e-9, 1e-7), (1e-9, 1e-9)])
    def test_converged(self, tols):
        rng = np.random.default_rng(43)
        outcomes = []
        for current, goal in pose_pairs(rng, 15_000):
            want = converged_oracle(current, goal, *tols)
            assert sw._converged(current, goal, *tols) == want
            outcomes.append(want)
        assert 1000 < sum(outcomes) < len(outcomes) - 1000

    @pytest.mark.parametrize("kind", sw.BUNDLED_TASKS)
    def test_step_on_random_actions(self, kind, monkeypatch):
        rng = np.random.default_rng(sw.BUNDLED_TASKS.index(kind))
        state, _ = sw.reset(sw.TaskSpec(kind), 31)
        twin = copy.deepcopy(state)
        grip = GRIPPER_OPEN
        seen = set()
        for _ in range(600):
            if rng.random() < 0.15:
                grip = 1.0 - grip
            roll = rng.random()
            if roll < 0.5:  # at or near an object, so that a close grabs it
                obj = state.objects[sorted(state.objects)[rng.integers(len(state.objects))]]
                pose = Pose(obj.position + rng.normal(scale=4e-3, size=3), obj.rotation)
            elif roll < 0.8:
                turn = SciRotation.random(random_state=rng).as_matrix()
                pose = Pose(rng.uniform([-0.2, -0.2, 0.0], [0.2, 0.2, 0.3]), Rotation(turn))
            else:
                pose = state.robot_pose
            action = Action(pose, grip)
            held = state.attached_object
            sw.step(state, action)
            under_oracle(monkeypatch, sw.step, twin, action)
            assert_states_bitwise(state, twin)
            seen.add(assert_grasp_matches_oracle(held, state))
        assert {"grasp", "held"} <= seen

    def test_norm_is_linalg_norm(self):
        rng = np.random.default_rng(47)
        for v in rng.normal(size=(50_000, 3)) * 10.0 ** rng.uniform(-12, 1, (50_000, 1)):
            for part in (v, v[:2]):
                assert np.float64(sw._norm(part)).tobytes() == np.float64(np.linalg.norm(part)).tobytes()


class TestDeterminism:
    def test_demo_recording_bit_identical(self):
        for kind in ("pick_place", "stack_walking"):
            spec = sw.TaskSpec(kind)
            d1, d2 = sw.record_demo(spec, 11), sw.record_demo(spec, 11)
            assert d1.horizon == d2.horizon
            for (o1, a1), (o2, a2) in zip(d1.steps, d2.steps):
                assert np.array_equal(a1.pose.position, a2.pose.position)
                assert np.array_equal(a1.pose.rotation.as_matrix(), a2.pose.rotation.as_matrix())
                assert a1.gripper == a2.gripper
                assert np.array_equal(o1.robot_pose.position, o2.robot_pose.position)

    def test_rollout_trace_bit_identical(self):
        spec = sw.TaskSpec("stack_walking")
        demo = sw.record_demo(spec, 12)
        seg = demo_segment(demo)
        o1 = sw.rollout(sw.reset(spec, 12)[0], seg)
        o2 = sw.rollout(sw.reset(spec, 12)[0], seg)
        assert o1.steps == o2.steps
        traces = [o.recording.demonstration(spec.kind).steps for o in (o1, o2)]
        for (ob1, _), (ob2, _) in zip(*traces):
            assert np.array_equal(ob1.robot_pose.position, ob2.robot_pose.position)
            for e1, e2 in zip(ob1.objects, ob2.objects):
                assert e1.name == e2.name
                assert np.array_equal(e1.pose.position, e2.pose.position)


def drawer_opening(state):
    return state.task_metadata["drawer_closed_x"] - state.objects["drawer"].position[0]


def mug_inside(state):
    """The mug within 4 cm, in x and y, of the interior center behind the handle."""
    rel = state.objects["mug"].position - state.objects["drawer"].position
    return abs(rel[0] - sw.DRAWER_INTERIOR_DX) < 0.04 and abs(rel[1]) < 0.04


def drawer_progress(state):
    """(drawer opened, mug held, mug inside an open drawer, drawer shut on the
    mug with the gripper open and free), read off the state."""
    opening, free = drawer_opening(state), state.attached_object is None
    return (
        opening >= 0.8 * state.task_metadata["drawer_travel"],
        state.attached_object == "mug",
        mug_inside(state) and free and opening > 0.02,
        mug_inside(state) and free and opening <= 0.02 and state.gripper == GRIPPER_OPEN,
    )


class TestDrawer:
    def open_drawer(self, seed=3):
        spec = sw.TaskSpec("drawer_mug")
        state, _ = sw.reset(spec, seed)
        handle = state.objects["drawer"].position.copy()
        for _ in range(200):
            if np.linalg.norm(state.robot_pose.position - handle) <= 1e-9:
                break
            sw.step(state, Action(Pose(handle), GRIPPER_OPEN))
        sw.step(state, Action(Pose(handle), GRIPPER_CLOSED))
        assert state.attached_object == "drawer"
        return spec, state

    def test_drawer_slides_with_gripper_and_clamps(self):
        _, state = self.open_drawer()
        closed_x = state.task_metadata["drawer_closed_x"]
        travel = state.task_metadata["drawer_travel"]
        goal = state.objects["drawer"].position + np.array([-0.5, 0.0, 0.0])
        for _ in range(60):
            sw.step(state, Action(Pose(goal), GRIPPER_CLOSED))
        assert sw._drawer_opening(state) == pytest.approx(travel, abs=1e-9)
        # pushing past the closed stop clamps too
        goal = state.objects["drawer"].position + np.array([0.5, 0.0, 0.0])
        for _ in range(60):
            sw.step(state, Action(Pose(goal), GRIPPER_CLOSED))
        assert state.objects["drawer"].position[0] == pytest.approx(closed_x, abs=1e-9)

    def test_drawer_only_slides_in_x(self):
        _, state = self.open_drawer()
        y0, z0 = state.objects["drawer"].position[1], state.objects["drawer"].position[2]
        goal = state.robot_pose.position + np.array([-0.05, 0.07, 0.05])
        for _ in range(20):
            sw.step(state, Action(Pose(goal), GRIPPER_CLOSED))
        assert state.objects["drawer"].position[1] == y0
        assert state.objects["drawer"].position[2] == z0

    def test_contained_mug_rides_with_drawer(self):
        _, state = self.open_drawer()
        # fully open, park the mug in the interior, then close
        goal = state.objects["drawer"].position + np.array([-0.5, 0.0, 0.0])
        for _ in range(60):
            sw.step(state, Action(Pose(goal), GRIPPER_CLOSED))
        interior = sw._drawer_interior_center(state)
        state.objects["mug"] = Pose(interior.copy())
        mug_rel = state.objects["mug"].position[0] - state.objects["drawer"].position[0]
        closed_x = state.task_metadata["drawer_closed_x"]
        goal = Pose(np.array([closed_x + 0.05, state.objects["drawer"].position[1], 0.05]))
        for _ in range(60):
            sw.step(state, Action(goal, GRIPPER_CLOSED))
        assert state.objects["drawer"].position[0] == pytest.approx(closed_x, abs=1e-9)
        assert state.objects["mug"].position[0] - state.objects["drawer"].position[0] == pytest.approx(
            mug_rel, abs=1e-9
        )
        sw.step(state, hold_action(state, GRIPPER_OPEN))
        assert drawer_opening(state) <= 0.02 and mug_inside(state)
        assert state.attached_object is None and state.gripper == GRIPPER_OPEN
        assert sw.success(state)

    def test_stage_progression_in_scripted_demo(self):
        # the solver opens the drawer, picks the mug up, puts it inside, then shuts the drawer, in that order
        spec = sw.TaskSpec("drawer_mug")
        state, _ = sw.reset(spec, 1)
        rows = [drawer_progress(state)]
        for _ in range(5000):
            act = sw.scripted_action(state)
            if act is None:
                break
            sw.step(state, act)
            rows.append(drawer_progress(state))
        assert not any(rows[0])
        assert rows[-1][3] and sw.success(state)
        firsts = [[row[k] for row in rows].index(True) for k in range(4)]
        assert firsts == sorted(set(firsts))


class TestScriptedDemos:
    def test_all_tasks_solved_across_seeds(self):
        for kind in sw.BUNDLED_TASKS:
            spec = sw.TaskSpec(kind)
            for seed in range(3):
                demo = sw.record_demo(spec, seed)
                assert demo.success
                assert demo.task == kind

    def test_transition_counts(self):
        assert len(sw.record_demo(sw.TaskSpec("pick_place"), 0).gripper_transition_timesteps()) == 2
        assert len(sw.record_demo(sw.TaskSpec("stack"), 0).gripper_transition_timesteps()) == 4
        assert len(sw.record_demo(sw.TaskSpec("drawer_mug"), 0).gripper_transition_timesteps()) == 6

    def test_demo_starts_and_ends_at_home_open(self):
        demo = sw.record_demo(sw.TaskSpec("pick_place"), 0)
        assert np.allclose(demo.observation(0).robot_pose.position, sw.HOME_POSE.position)
        assert demo.action(demo.horizon).gripper == GRIPPER_OPEN
        assert np.allclose(demo.action(demo.horizon).pose.position, sw.HOME_POSE.position, atol=1e-9)

    def test_policy_recovers_from_teleport(self):
        spec = sw.TaskSpec("pick_place")
        state, _ = sw.reset(spec, 21)
        for _ in range(40):
            sw.step(state, sw.scripted_action(state))
        sw.inject_disturbance(state, "block", np.array([0.05, -0.04, 0.0]))
        for _ in range(3000):
            act = sw.scripted_action(state)
            if act is None:
                break
            sw.step(state, act)
        assert sw.success(state)
