"""Annotation pipeline: summarizer, viewframes, LLM parsing, repair, scripted path."""
import json
import re
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest

from demoforge import demos, simworld as sw
from demoforge.annotation import (
    Annotation,
    AnnotationFailed,
    Keypose,
    MalformedResponse,
    TaskDescription,
    annotate,
    create_annotation,
    parse_viewframes,
    render_prompt,
    repair_annotation,
    scripted_annotate,
)
from scipy.spatial.transform import Rotation as SR

from demoforge.demos import SUMMARY_CADENCE, SUMMARY_JITTER, Action, Demonstration, Observation, TrajectorySegment
from demoforge.gateway import AuditLog, MockGateway
from demoforge.geometry import Pose, Rotation
from oracles import demo_from_steps, replies, scripted_annotate_oracle, summarize_demo_oracle

TASK = TaskDescription("Pick up the block and place it on the target region.")
LONG_INTEGER = "7" * 5000  # past int()'s default limit of 4300 digits


def synthetic_demo(horizon=100, yaw_per_step=0.3):
    """Straight-line demo with a slowly yawing wrist; gripper closes halfway."""
    steps = []
    for t in range(horizon + 1):
        pose = Pose(np.array([0.001 * t, 0.0, 0.1]), Rotation.about_z_deg(yaw_per_step * t))
        grip = 0.0 if horizon // 3 <= t < 2 * horizon // 3 else 1.0
        steps.append((Observation(pose, grip, []), Action(pose, grip)))
    return demo_from_steps(steps, task="pick_place", demo_id="synthetic", seed=0)


def sampled_steps(summary):
    """The timesteps of a summary's rows."""
    return [int(t) for t in re.findall(r"^t=(\d+):", summary, flags=re.MULTILINE)]


def robot_rows(summary):
    """Each summary row's robot text, by timestep."""
    return {int(t): robot for t, robot in re.findall(r"^t=(\d+): robot (.*)$", summary, flags=re.MULTILINE)}


def cut(demo, n):
    """The demo's columns cut to their first n rows, past the n >= 2 rule
    that constructing them enforces."""
    for seg in (demo.actions, demo.robot):
        seg.positions, seg.rotations, seg.gripper = seg.positions[:n], seg.rotations[:n], seg.gripper[:n]
    demo.entity_positions, demo.entity_rotations = demo.entity_positions[:n], demo.entity_rotations[:n]
    return demo


def good_response(demo, timesteps=(10, 50)):
    kps = []
    for t in timesteps:
        a = demo.action(t)
        kps.append(
            {
                "t": t,
                "pos_mm": list(a.pose.position * 1000.0),
                "euler_deg": list(a.pose.rotation.euler_deg()),
                "gripper": a.gripper,
                "objects": ["block"],
                "note": "near the block",
            }
        )
    return json.dumps({"description": "Approach, grasp, carry.", "keyposes": kps})


class TestSummarize:
    def test_zero_jitter_exact_cadence(self, monkeypatch):
        monkeypatch.setattr(demos, "SUMMARY_JITTER", 0)
        rows = sampled_steps(synthetic_demo(100).summary)
        assert rows == list(range(0, 101, SUMMARY_CADENCE))
        assert len(rows) == 21

    def test_endpoints_always_present(self):
        for horizon in range(1, 80):
            ts = sampled_steps(synthetic_demo(horizon).summary)
            assert ts[0] == 0
            assert ts[-1] == horizon

    def test_gaps_within_bounds(self):
        for horizon in range(1, 80):
            gaps = np.diff(sampled_steps(synthetic_demo(horizon).summary))
            assert gaps.max() <= SUMMARY_CADENCE + SUMMARY_JITTER
            # every gap but possibly the last honors the lower bound
            assert all(g >= SUMMARY_CADENCE - SUMMARY_JITTER for g in gaps[:-1])
            assert gaps[-1] >= 1

    def test_deterministic_per_seed(self):
        a = synthetic_demo(88).summary
        b = synthetic_demo(88).summary
        assert a == b
        assert len(set(np.diff(sampled_steps(a)))) > 1  # the gaps are jittered

    def test_robot_rotation_is_home_relative(self):
        robot = robot_rows(synthetic_demo(100, yaw_per_step=0.5).summary)
        # at t=0 the robot sits at its home rotation: zeros
        assert "rotation_deg [0.00, 0.00, 0.00]" in robot[0]
        # later rows report the offset from home, not the absolute yaw
        t = sorted(robot)[4]
        assert f"[0.00, 0.00, {0.5 * t:.2f}]" in robot[t]

    def test_gripper_word_in_rows(self):
        words = [text.rsplit(" ", 1)[-1] for text in robot_rows(synthetic_demo(90).summary).values()]
        assert "open" in words and "closed" in words

    def test_tiny_demo(self):
        demo = synthetic_demo(1)
        assert sampled_steps(demo.summary) == [0, 1]


def posed_demo(robot_rot, robot_pos, entity_rot, entity_pos):
    """A demo built straight from (n, 3, 3) / (n, 3) robot and (n, m, 3, 3) /
    (n, m, 3) entity columns; the gripper closes on every third step."""
    n, m = entity_pos.shape[:2]
    track = TrajectorySegment(robot_pos, robot_rot, np.where(np.arange(n) % 3 == 1, 0.0, 1.0))
    return Demonstration(
        "pick_place", actions=track, robot=track, entity_names=tuple(f"obj{j}" for j in range(m)),
        entity_colors=(None,) * m, entity_positions=entity_pos, entity_rotations=entity_rot, demo_id="posed",
    )


def awkward_rotations(rng, size):
    """(size, 3, 3) rotations that stress the Euler text: gimbal lock at pitch
    +/-90, angles that round to -0.00, the identity, drift past scipy's
    orthogonality bound (it projects those), and uniform draws."""
    kind = rng.integers(6, size=size)
    euler = rng.uniform(-180.0, 180.0, size=(size, 3))
    euler[:, 1] = np.where(kind == 0, rng.choice([-90.0, 90.0], size=size), euler[:, 1] / 2.0)
    euler[kind == 1] = rng.choice([-0.004, -1e-9, 0.0, 0.004], size=(int(np.sum(kind == 1)), 3))
    euler[kind == 2] = 0.0
    matrices = SR.from_euler("XYZ", euler, degrees=True).as_matrix()
    matrices[kind == 3] += rng.normal(scale=1e-11, size=(int(np.sum(kind == 3)), 3, 3))
    return matrices


def awkward_positions(rng, size):
    """(size, 3) positions in meters: uniform, a hair below zero (-0.000 mm
    before the + 0.0), and on the half-micrometre rounding boundaries."""
    pos = rng.uniform(-0.5, 0.5, size=(size, 3))
    kind = rng.integers(3, size=size)
    pos[kind == 1] = -rng.uniform(0.0, 4e-7, size=(int(np.sum(kind == 1)), 3))
    pos[kind == 2] = rng.integers(-2000, 2000, size=(int(np.sum(kind == 2)), 3)) * 1e-6 + 5e-7
    return pos


class TestSummaryOracle:
    """Demonstration.summary's one batched Euler conversion writes, byte for byte,
    the rows of the per-pose summariser it replaced."""

    @staticmethod
    def assert_same_rows(demo):
        assert demo.summary == summarize_demo_oracle(demo)

    @pytest.mark.parametrize("task", sw.BUNDLED_TASKS)
    def test_recorded_demos(self, task):
        for seed in (1001, 1002):
            self.assert_same_rows(sw.record_demo(sw.TaskSpec(task), seed, demo_id="src"))

    def test_gimbal_lock_and_negative_zero(self, monkeypatch):
        n = 12
        euler = [[0.0, 0.0, 0.0], [10.0, 90.0, 20.0], [-30.0, -90.0, 5.0], [0.0, 0.0, -0.004], [-0.001, 0.0, 0.0]]
        robot = SR.from_euler("XYZ", (euler * 3)[:n], degrees=True).as_matrix()
        entity = SR.from_euler("XYZ", ((euler[::-1] * 6)[: 2 * n]), degrees=True).as_matrix().reshape(n, 2, 3, 3)
        robot_pos = np.tile([-1e-7, 0.0, -4e-7], (n, 1))
        demo = posed_demo(robot, robot_pos, entity, np.tile([[-2e-7, 1e-3, 0.0]], (n, 2, 1)))
        monkeypatch.setattr(demos, "SUMMARY_CADENCE", 1)  # every row
        monkeypatch.setattr(demos, "SUMMARY_JITTER", 0)
        rows = demo.summary
        assert rows == summarize_demo_oracle(demo, cadence=1, jitter=0)
        assert sampled_steps(rows) == list(range(n))
        assert "-0.00 " not in rows and "-0.00]" not in rows and "-0.000" not in rows

    def test_non_identity_home(self):
        rng = np.random.default_rng(3)
        n = 30
        robot = SR.random(n, random_state=rng).as_matrix()
        robot[0] = SR.from_euler("XYZ", [35.0, -60.0, 120.0], degrees=True).as_matrix()
        demo = posed_demo(robot, awkward_positions(rng, n), awkward_rotations(rng, n).reshape(n, 1, 3, 3),
                          awkward_positions(rng, n).reshape(n, 1, 3))
        self.assert_same_rows(demo)
        assert "rotation_deg [0.00, 0.00, 0.00]" in robot_rows(demo.summary)[0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_step_demos(self, n):
        rng = np.random.default_rng(n)
        demo = posed_demo(awkward_rotations(rng, 2), awkward_positions(rng, 2),
                          awkward_rotations(rng, 4).reshape(2, 2, 3, 3), awkward_positions(rng, 4).reshape(2, 2, 3))
        self.assert_same_rows(cut(demo, n))

    def test_fuzz(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n, m = int(rng.integers(2, 60)), int(rng.integers(0, 4))
            demo = posed_demo(
                awkward_rotations(rng, n), awkward_positions(rng, n),
                awkward_rotations(rng, n * m).reshape(n, m, 3, 3), awkward_positions(rng, n * m).reshape(n, m, 3),
            )
            self.assert_same_rows(demo)


class TestSelectViewframes:
    def run(self, response, horizon=100):
        return parse_viewframes(response, horizon)

    def test_plain_list(self):
        assert self.run("0, 25, 50") == [0, 25, 50]

    def test_dedupe_keeps_first_mention_then_sorts(self):
        assert self.run("50, 10, 50, 10, 20") == [10, 20, 50]

    def test_cap_keeps_first_distinct_eight(self):
        resp = ", ".join(str(t) for t in [90, 80, 70, 60, 50, 40, 30, 20, 10, 0])
        assert self.run(resp) == [20, 30, 40, 50, 60, 70, 80, 90]

    def test_out_of_range_is_malformed(self):
        with pytest.raises(MalformedResponse):
            self.run("5, 101")
        with pytest.raises(MalformedResponse):
            self.run("-3, 5")

    def test_no_integers_is_malformed(self):
        with pytest.raises(MalformedResponse):
            self.run("I would focus on the grasp moment.")

    def test_prose_with_numbers_accepted(self):
        assert self.run("Frames 10 and 35 look key; maybe 90 too.") == [10, 35, 90]

    def test_overlong_integer_restarts_then_fails(self, audit_log):
        # int() refuses more than 4300 digits with a bare ValueError, which once escaped the campaign
        gw = MockGateway(replies([f"frames 10 and {LONG_INTEGER}"] * 3 + ["unused"]), audit_log)
        with pytest.raises(AnnotationFailed):
            create_annotation(gw, synthetic_demo(100), TASK)
        assert len(AuditLog.read(audit_log.path)) == 3


class TestAnnotate:
    def test_good_response_round_trip(self):
        demo = synthetic_demo(100)
        gw = MockGateway(replies([good_response(demo)]))
        ann = annotate(gw, demo, [10, 50], TASK)
        ts = [k.t for k in ann.keyposes]
        assert ts == [0, 10, 50, 100]  # endpoints inserted, response frames kept
        for k in ann.keyposes:
            a = demo.action(k.t)
            assert np.array_equal(k.pos_mm, a.pose.position * 1000.0)
            assert k.gripper == a.gripper
        assert ann.created_by == "llm()"
        assert ann.source_demo_id == "synthetic"

    def test_malformed_then_good_retries_on_fresh_session(self, audit_log):
        demo = synthetic_demo(100)
        gw = MockGateway(replies(["not json at all", good_response(demo)]), audit_log)
        ann = annotate(gw, demo, [10, 50], TASK)
        assert len(ann.keyposes) == 4
        entries = AuditLog.read(audit_log.path)
        assert len(entries) == 2
        assert entries[0].session_id != entries[1].session_id

    def test_exhaustion_after_three_attempts(self, audit_log):
        demo = synthetic_demo(100)
        gw = MockGateway(replies(["nope", "{}", '{"keyposes": []}', "unused"]), audit_log)
        with pytest.raises(AnnotationFailed):
            annotate(gw, demo, [10], TASK)
        assert len(AuditLog.read(audit_log.path)) == 3

    def test_out_of_range_keypose_is_retried(self):
        demo = synthetic_demo(100)
        bad = json.dumps(
            {"description": "", "keyposes": [{"t": 999, "pos_mm": [0, 0, 0], "euler_deg": [0, 0, 0], "gripper": 1.0}]}
        )
        gw = MockGateway(replies([bad, good_response(demo)]))
        ann = annotate(gw, demo, [10, 50], TASK)
        assert [k.t for k in ann.keyposes] == [0, 10, 50, 100]

    @pytest.mark.parametrize(
        "patch",
        [{"keyposes": 5}, {"keyposes": None}, {"keyposes": [1]}, {"keyposes": ["x"]}, {"keyposes": [[]]},
         {"objects": [1]}, {"objects": "block"}, {"objects": {"block": 1}},
         {"t": float("inf")}, {"t": 10.7}, {"t": "10"}, {"t": True}, {"pos_mm": ["1", "2", "3"]},
         {"euler_deg": [0, False, 0]}, {"gripper": "1.0"}, {"gripper": True}, {"note": None}, {"note": 5},
         {"description": None}, {"description": ["pick"]}],
        ids=repr,
    )
    def test_bad_reply_shape_is_retried(self, audit_log, patch):
        # each of these once escaped annotate (TypeError, OverflowError), broke
        # repair_annotation, split "block" into letters, took a mapping's keys or
        # was coerced (10.7 and "10" to 10, True to 1); a keypose entry that is
        # not an object must not escape as AttributeError; a null note or description
        # once became the text "None" in the annotation's description
        demo = synthetic_demo(100)
        doc = json.loads(good_response(demo))
        if "keyposes" in patch or "description" in patch:
            doc.update(patch)
        else:
            doc["keyposes"][0].update(patch)
        gw = MockGateway(replies([json.dumps(doc), good_response(demo)]), audit_log)
        ann = annotate(gw, demo, [10, 50], TASK)
        assert [k.t for k in ann.keyposes] == [0, 10, 50, 100]
        assert all(k.objects in ((), ("block",)) for k in ann.keyposes)
        assert len(AuditLog.read(audit_log.path)) == 2

    def test_overlong_integer_restarts_then_fails(self, audit_log):
        # json.loads raises a bare ValueError, not a JSONDecodeError, past int()'s 4300 digits
        reply = '{"keyposes": [{"t": %s, "pos_mm": [0, 0, 0], "euler_deg": [0, 0, 0], "gripper": 1.0}]}' % LONG_INTEGER
        gw = MockGateway(replies([reply] * 3 + ["unused"]), audit_log)
        with pytest.raises(AnnotationFailed):
            annotate(gw, synthetic_demo(100), [10], TASK)
        assert len(AuditLog.read(audit_log.path)) == 3

    def test_deeply_nested_reply_restarts_then_fails(self, audit_log):
        # json.loads recurses once per nesting level: a RecursionError once escaped the campaign
        gw = MockGateway(replies(["[" * 100_000] * 3 + ["unused"]), audit_log)
        with pytest.raises(AnnotationFailed):
            annotate(gw, synthetic_demo(100), [10], TASK)
        assert len(AuditLog.read(audit_log.path)) == 3

    def test_code_fenced_json_accepted(self):
        demo = synthetic_demo(100)
        fenced = "```json\n" + good_response(demo) + "\n```"
        gw = MockGateway(replies([fenced]))
        ann = annotate(gw, demo, [10, 50], TASK)
        assert len(ann.keyposes) == 4

    def test_frames_outside_range_rejected_before_any_call(self, audit_log):
        demo = synthetic_demo(100)
        gw = MockGateway(replies(["never used"]), audit_log)
        with pytest.raises(ValueError):
            annotate(gw, demo, [500], TASK)
        assert not audit_log.path.exists()


class TestRepair:
    def test_duplicates_collapse_to_first(self):
        demo = synthetic_demo(50)
        k1 = Keypose(20, np.array([1.0, 2.0, 3.0]), np.zeros(3), 1.0, ["a"], "first")
        k2 = Keypose(20, np.array([9.0, 9.0, 9.0]), np.zeros(3), 0.0, ["b"], "second")
        raw = Annotation("ann-x", "d", "scripted", "", [k1, k2])
        fixed = repair_annotation(raw, demo)
        kept = [k for k in fixed.keyposes if k.t == 20]
        assert len(kept) == 1
        assert kept[0].objects == ("a",)
        assert kept[0].note == "first"

    def test_poses_overwritten_from_demo(self):
        demo = synthetic_demo(50)
        raw = Annotation("ann-x", "d", "llm()", "", [Keypose(25, np.array([9e6, 9e6, 9e6]), np.array([90.0, 0, 0]), 0.5)])
        fixed = repair_annotation(raw, demo)
        k = next(k for k in fixed.keyposes if k.t == 25)
        a = demo.action(25)
        assert np.array_equal(k.pos_mm, a.pose.position * 1000.0)
        assert np.array_equal(k.euler_deg, a.pose.rotation.euler_deg())
        assert k.gripper == a.gripper

    def test_endpoints_inserted(self):
        demo = synthetic_demo(50)
        raw = Annotation("ann-x", "d", "llm()", "", [Keypose(25, np.zeros(3), np.zeros(3), 1.0)])
        fixed = repair_annotation(raw, demo)
        assert [k.t for k in fixed.keyposes] == [0, 25, 50]

    def test_description_block_regenerated(self):
        demo = synthetic_demo(50)
        raw = Annotation(
            "ann-x",
            "d",
            "llm()",
            "The robot slides right.\n\nKey poses:\nt=7: stale line",
            [Keypose(25, np.zeros(3), np.zeros(3), 1.0)],
        )
        fixed = repair_annotation(raw, demo)
        assert "stale line" not in fixed.description_text
        assert fixed.description_text.startswith("The robot slides right.")
        assert "Key poses:" in fixed.description_text
        assert "t=25:" in fixed.description_text

    def test_idempotent_on_randomized_raw_annotations(self):
        demo = synthetic_demo(80)
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            kps = [
                Keypose(
                    int(rng.integers(0, 81)),
                    rng.normal(0, 500, 3),
                    rng.normal(0, 60, 3),
                    float(rng.random()),
                    ["obj"] if rng.random() < 0.5 else [],
                    "n" if rng.random() < 0.5 else "",
                )
                for _ in range(n)
            ]
            raw = Annotation("ann-r", "d", "llm()", "desc", kps)
            once = repair_annotation(raw, demo)
            twice = repair_annotation(once, demo)
            assert [k.t for k in once.keyposes] == [k.t for k in twice.keyposes]
            for a, b in zip(once.keyposes, twice.keyposes):
                assert np.array_equal(a.pos_mm, b.pos_mm)
                assert np.array_equal(a.euler_deg, b.euler_deg)
                assert a.gripper == b.gripper
            assert once.description_text == twice.description_text
            ts = [k.t for k in once.keyposes]
            assert ts[0] == 0 and ts[-1] == 80 and ts == sorted(set(ts))


class TestScriptedAnnotate:
    def test_pick_place_keypose_structure(self):
        demo = sw.record_demo(sw.TaskSpec("pick_place"), 0)
        ann = scripted_annotate(demo, "pick_place")
        ts = [k.t for k in ann.keyposes]
        assert len(ts) == 4
        assert ts == sorted(set([0, demo.horizon] + demo.gripper_transition_timesteps()))
        assert ann.created_by == "scripted"

    def test_grasp_anchors_grasped_object_release_anchors_target(self):
        demo = sw.record_demo(sw.TaskSpec("pick_place"), 0)
        ann = scripted_annotate(demo, "pick_place")
        t_close, t_open = demo.gripper_transition_timesteps()
        by_t = {k.t: k for k in ann.keyposes}
        assert by_t[t_close].objects == ("block",)
        assert by_t[t_open].objects == ("target_region",)

    def test_stack_release_anchors_goal_region_both_times(self):
        demo = sw.record_demo(sw.TaskSpec("stack"), 0)
        ann = scripted_annotate(demo, "stack")
        trans = demo.gripper_transition_timesteps()
        by_t = {k.t: k for k in ann.keyposes}
        assert len(ann.keyposes) == 6
        assert by_t[trans[0]].objects == ("blue_block",)
        assert by_t[trans[1]].objects == ("goal_region",)
        assert by_t[trans[2]].objects == ("green_block",)
        assert by_t[trans[3]].objects == ("goal_region",)

    def test_drawer_releases_anchor_drawer(self):
        demo = sw.record_demo(sw.TaskSpec("drawer_mug"), 0)
        ann = scripted_annotate(demo, "drawer_mug")
        assert len(ann.keyposes) == 8
        trans = demo.gripper_transition_timesteps()
        by_t = {k.t: k for k in ann.keyposes}
        for t_open in trans[1::2]:
            assert by_t[t_open].objects == ("drawer",)

    def test_no_transition_demo_gets_endpoints_only(self):
        demo = synthetic_demo(40)
        demo.actions.gripper[:] = 1.0  # force constant gripper
        demo.robot.gripper[:] = 1.0
        ann = scripted_annotate(demo, "pick_place")
        assert [k.t for k in ann.keyposes] == [0, 40]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            scripted_annotate(synthetic_demo(10), "unknown_task")

    def test_keypose_block_in_description(self):
        demo = sw.record_demo(sw.TaskSpec("pick_place"), 0)
        ann = scripted_annotate(demo, "pick_place")
        assert "Key poses:" in ann.description_text
        assert f"t={demo.horizon}:" in ann.description_text


def column_demo(robot_pos, grippers, entities):
    """A demo with a fixed-rotation robot track at ``robot_pos`` (n, 3) and
    ``entities`` as (name, colour, (n, 3) positions) triples."""
    n = len(robot_pos)
    track = TrajectorySegment(np.asarray(robot_pos, float), np.tile(np.eye(3), (n, 1, 1)), np.asarray(grippers, float))
    return Demonstration(
        "pick_place", actions=track, robot=track, entity_names=tuple(e[0] for e in entities),
        entity_colors=tuple(e[1] for e in entities), entity_positions=np.stack([e[2] for e in entities], axis=1),
        entity_rotations=np.tile(np.eye(3), (n, len(entities), 1, 1)), demo_id="columns",
    )


class TestScriptedAnnotateOracle:
    """scripted_annotate, reading the demo's columns, writes the annotation
    the Observation-walking annotator it replaced wrote, id aside."""

    @staticmethod
    def same(demo, task_kind):
        got, want = asdict(scripted_annotate(demo, task_kind)), asdict(scripted_annotate_oracle(demo, task_kind))
        del got["id"], want["id"]
        assert got == want
        return got

    @pytest.mark.parametrize("task", sw.BUNDLED_TASKS)
    def test_recorded_demos(self, task):
        for seed in range(1000, 1020):
            self.same(sw.record_demo(sw.TaskSpec(task), seed, demo_id=f"{task}-{seed}"), task)

    def test_exact_distance_tie_goes_to_the_first_entity(self):
        # every entity sits exactly 25 cm from the gripper (binary-exact
        # coordinates); at the release the held block drops out and the tie remains
        n = 6
        robot = np.tile([0.5, 0.0, 0.25], (n, 1))
        entities = [
            ("cup", None, robot + [0.25, 0.0, 0.0]),
            ("marker", "red", robot - [0.25, 0.0, 0.0]),
            ("block", None, np.where(np.arange(n)[:, None] == 4, robot, robot + [0.0, 0.25, 0.0])),
        ]
        doc = self.same(column_demo(robot, [1, 1, 0, 0, 1, 1], entities), "pick_place")
        assert [k["objects"] for k in doc["keyposes"]] == [("cup",)] * 4

    def test_release_right_over_a_goal_marker(self):
        # at the release (t = 4) the block and the marker both sit on the gripper:
        # the colourless block is held and skipped, the marker wins at distance 0
        n = 6
        robot = np.array(
            [[0.0, 0.0, 0.2], [0.1, 0.0, 0.1], [0.1, 0.0, 0.1], [0.2, 0.1, 0.1], [0.2, 0.1, 0.1], [0.2, 0.1, 0.2]]
        )
        block = np.concatenate([np.tile([0.1, 0.0, 0.1], (3, 1)), robot[3:]])
        entities = [("target_region", "green", np.tile([0.2, 0.1, 0.1], (n, 1))), ("block", None, block)]
        doc = self.same(column_demo(robot, [1, 1, 0, 0, 1, 1], entities), "pick_place")
        assert [k["objects"] for k in doc["keyposes"]] == [("block",), ("block",), ("target_region",), ("block",)]


class TestSerialization:
    @pytest.mark.parametrize("task", sw.BUNDLED_TASKS)
    def test_annotation_json_round_trip_bitwise(self, task):
        ann = scripted_annotate(sw.record_demo(sw.TaskSpec(task), 1), task)
        assert Annotation.from_json(json.loads(json.dumps(asdict(ann)))) == ann

    def test_keypose_round_trip_fuzz(self):
        # float text round-trips exactly, so equal wire text is equal bits (the sign of -0.0 too)
        rng = np.random.default_rng(25)
        specials = [0.0, -0.0, 5e-324, -2.2e-310, 1e308, -1e308, 250, -7, 0]  # ints: integer-valued JSON numbers
        names = ["block", "tür", "目标"]

        def value():
            return specials[rng.integers(len(specials))] if rng.random() < 0.6 else float(rng.normal(0.0, 1e3))

        for _ in range(500):
            doc = {
                "t": int(rng.integers(0, 10**6)),
                "pos_mm": [value() for _ in range(3)],
                "euler_deg": [value() for _ in range(3)],
                "gripper": value(),
                "objects": [names[i] for i in rng.integers(len(names), size=rng.integers(0, 3))],
                "note": "über 3 mm — ok" if rng.random() < 0.5 else "",
            }
            kp = Keypose.from_json(json.loads(json.dumps(doc)))
            assert all(type(v) is float for v in (*kp.pos_mm, *kp.euler_deg, kp.gripper))
            assert (kp.pos_mm, kp.euler_deg) == (tuple(doc["pos_mm"]), tuple(doc["euler_deg"]))
            wire = json.dumps(asdict(kp))
            back = Keypose.from_json(json.loads(wire))
            assert back == kp and json.dumps(asdict(back)) == wire

    @pytest.mark.parametrize(
        "patch, error",
        [
            ({"t": 0.0}, TypeError), ({"t": "0"}, TypeError), ({"t": True}, TypeError), ({"t": None}, TypeError),
            ({"t": -1}, ValueError),
            ({"pos_mm": "0, 0, 0"}, TypeError), ({"pos_mm": {"x": 0}}, TypeError), ({"pos_mm": ["0", 0, 0]}, TypeError),
            ({"pos_mm": [[0, 0, 0]]}, TypeError), ({"euler_deg": [0, True, 0]}, TypeError),
            ({"euler_deg": [0, None, 0]}, TypeError),
            ({"pos_mm": [0, 0]}, ValueError), ({"euler_deg": [0, 0, 0, 0]}, ValueError), ({"pos_mm": []}, ValueError),
            ({"pos_mm": [float("nan"), 0, 0]}, ValueError), ({"euler_deg": [0, float("-inf"), 0]}, ValueError),
            ({"pos_mm": [10**400, 0, 0]}, OverflowError), ({"gripper": 10**400}, OverflowError),
            ({"gripper": True}, TypeError), ({"gripper": "1.0"}, TypeError), ({"gripper": None}, TypeError),
            ({"note": None}, TypeError), ({"note": 5}, TypeError),
        ],
        ids=repr,
    )
    def test_keypose_from_json_rejects(self, patch, error):
        doc = {"t": 3, "pos_mm": [0, 0, 0], "euler_deg": [0, 0, 0], "gripper": 1.0, "objects": [], "note": ""}
        with pytest.raises(error):
            Keypose.from_json({**doc, **patch})

    @pytest.mark.parametrize("key", ["t", "pos_mm", "euler_deg", "gripper"])
    def test_keypose_from_json_needs_its_pose_keys(self, key):
        doc = {"t": 3, "pos_mm": [0, 0, 0], "euler_deg": [0, 0, 0], "gripper": 1.0}
        del doc[key]
        with pytest.raises(KeyError):
            Keypose.from_json(doc)

    @pytest.mark.parametrize("doc", [[], "keypose", None, 3], ids=repr)
    def test_keypose_entry_must_be_an_object(self, doc):
        with pytest.raises(TypeError):
            Keypose.from_json(doc)

    def test_keypose_and_annotation_are_frozen(self):
        ann = scripted_annotate(sw.record_demo(sw.TaskSpec("pick_place"), 1), "pick_place")
        with pytest.raises(FrozenInstanceError):
            ann.keyposes[0].t = 1
        with pytest.raises(FrozenInstanceError):
            ann.id = "other"
        with pytest.raises(AttributeError):
            ann.keyposes.append(ann.keyposes[0])

    def test_keypose_pose_view_matches_storage(self):
        pose = Pose(np.array([0.12, -0.03, 0.2]), Rotation.from_euler_deg(10.0, -20.0, 30.0))
        kp = Keypose.from_pose(5, pose, 1.0)
        assert np.allclose(kp.pose.position, pose.position, atol=1e-15)
        assert np.allclose(kp.pose.rotation.as_matrix(), pose.rotation.as_matrix(), atol=1e-12)

    def test_keypose_json_keys_exact(self):
        # the retarget prompt's keypose line: key names, key order and float text
        kp = Keypose(3, (1.5, -0.0, 250.0), (0.0, 90.0, -45.0), 1.0, ("block",), "x")
        assert json.dumps(asdict(kp)) == (
            '{"t": 3, "pos_mm": [1.5, -0.0, 250.0], "euler_deg": [0.0, 90.0, -45.0], '
            '"gripper": 1.0, "objects": ["block"], "note": "x"}'
        )

    @pytest.mark.parametrize("objects", ["block", [1], {"block": 1}, None], ids=repr)
    def test_keypose_objects_must_be_a_list_of_names(self, objects):
        doc = {"t": 3, "pos_mm": [0, 0, 0], "euler_deg": [0, 0, 0], "gripper": 1.0, "objects": objects}
        with pytest.raises(ValueError, match="objects"):
            Keypose.from_json(doc)

    def test_non_finite_keypose_rejected(self):
        with pytest.raises(ValueError):
            Keypose(0, np.array([np.nan, 0, 0]), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            Keypose(-1, np.zeros(3), np.zeros(3), 1.0)


class TestCreateAnnotation:
    def test_end_to_end_with_scripted_responses(self, audit_log):
        demo = synthetic_demo(100)
        gw = MockGateway(replies(["10, 50", good_response(demo)]), audit_log)
        ann = create_annotation(gw, demo, TASK)
        assert [k.t for k in ann.keyposes] == [0, 10, 50, 100]
        assert len(AuditLog.read(audit_log.path)) == 2

    def test_viewframe_retry_then_success(self, audit_log):
        demo = synthetic_demo(100)
        gw = MockGateway(replies(["no frames here", "10, 50", good_response(demo)]), audit_log)
        ann = create_annotation(gw, demo, TASK)
        assert len(ann.keyposes) == 4
        assert len(AuditLog.read(audit_log.path)) == 3

    def test_viewframe_exhaustion(self):
        demo = synthetic_demo(100)
        gw = MockGateway(replies(["nope", "still nope", "none at all", "unused"]))
        with pytest.raises(AnnotationFailed):
            create_annotation(gw, demo, TASK)


class TestRenderPrompt:
    def test_literal_json_braces_survive(self):
        text = render_prompt("annotate", task="T", rows="R", frames="1, 2", horizon=9)
        assert '"keyposes"' in text
        assert "{" in text
        assert "T" in text and "R" in text

    def test_missing_field_raises(self):
        with pytest.raises(KeyError):
            render_prompt("annotate", task="T")

    def test_all_templates_render(self):
        render_prompt("viewframes", task="t", rows="r", horizon=5, cap=8)
        render_prompt("annotate", task="t", rows="r", frames="0", horizon=5)
        render_prompt("retarget", task="t", description="d", keyposes="k", observation="o")
