"""Retargeting: request rendering, LLM parse/retry rules, scripted oracle."""
import json
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest

from demoforge import simworld as sw
from demoforge.annotation import Annotation, Keypose, TaskDescription, scripted_annotate
from demoforge.demos import SceneObservation
from demoforge.gateway import AuditLog, MockGateway
from demoforge.geometry import Pose, Rotation
from demoforge.retargeting import (
    RetargetFailed,
    UnknownObject,
    retarget,
    scripted_retarget,
)
from oracles import replies

TASK = TaskDescription("Stack the blocks on the goal region.")


def simple_annotation():
    kps = [
        Keypose(0, np.array([0.0, 0.0, 250.0]), np.zeros(3), 1.0, [], ""),
        Keypose(10, np.array([50.0, -20.0, 20.0]), np.array([0.0, 0.0, 15.0]), 0.0, ["block"], "at the block"),
        Keypose(20, np.array([120.0, 80.0, 21.0]), np.zeros(3), 1.0, ["target_region"], "over the target"),
        Keypose(30, np.array([0.0, 0.0, 250.0]), np.zeros(3), 1.0, [], ""),
    ]
    return Annotation("ann-t", "demo-1", "scripted", "Pick the block, place it.", kps)


def scene(block=(0.05, -0.02, 0.02), region=(0.12, 0.08, 0.02), block_yaw=15.0):
    return SceneObservation(
        robot_pose=Pose(np.array([0.0, 0.0, 0.25])),
        objects={
            "target_region": Pose(np.asarray(region, dtype=float)),
            "block": Pose(np.asarray(block, dtype=float), Rotation.about_z_deg(block_yaw)),
        },
        task_metadata={"hint": "one block"},
    )


def keyposes_in_prompt(prompt):
    """The keypose lines of the rendered request, parsed back out."""
    kps = []
    for line in prompt.splitlines():
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "t" in doc:
            kps.append(doc)
    return kps


def echo_responder(prompt):
    """Reply with exactly the keyposes present in the prompt."""
    return json.dumps({"keyposes": keyposes_in_prompt(prompt)})


class TestSceneObservation:
    def test_text_renders_robot_objects_and_metadata(self):
        text = scene().text()
        lines = text.splitlines()
        assert lines[0].startswith("robot position_mm [0.000, 0.000, 250.000]")
        assert "rotation_deg [0.00, 0.00, 0.00]" in lines[0]
        assert any(l.startswith("target_region") for l in lines)
        assert any(l.startswith("block") for l in lines)
        assert "hint: one block" in text

    def test_no_negative_zero_in_text(self):
        obs = SceneObservation(
            robot_pose=Pose(np.array([-1e-9, 0.0, 0.25]), Rotation.about_z_deg(-1e-9))
        )
        assert "-0.00" not in obs.text()

    def test_zero_object_scene(self):
        obs = SceneObservation(robot_pose=Pose(np.array([0.0, 0.0, 0.25])))
        assert obs.text().startswith("robot ")
        assert len(obs.text().splitlines()) == 1

    def test_home_relative_rotation(self):
        obs = SceneObservation(robot_pose=Pose(np.zeros(3), Rotation.about_z_deg(30.0)))
        # against its own rotation as home, the report reads zero
        assert "rotation_deg [0.00, 0.00, 0.00]" in obs.text()


class TestRequest:
    def test_render_carries_description_keyposes_observation(self, audit_log):
        ann = simple_annotation()
        gw = MockGateway(responder=echo_responder, audit_log=audit_log)
        retarget(gw, ann, TASK, scene())
        text = AuditLog.read(audit_log.path)[0].request
        assert TASK.text in text
        assert ann.description_text in text
        for kp in ann.keyposes:
            assert json.dumps(asdict(kp)) in text
        assert "target_region" in text


class TestRetarget:
    def test_echo_identity_bitwise(self):
        ann = simple_annotation()
        gw = MockGateway(responder=echo_responder)
        out = retarget(gw, ann, TASK, scene())
        assert out == list(ann.keyposes)

    def test_moved_poses_taken_non_pose_fields_inherited(self):
        ann = simple_annotation()

        def shift(prompt):
            kps = keyposes_in_prompt(prompt)
            for kp in kps:
                kp["pos_mm"][0] += 70.0
                kp["gripper"] = 0.123  # must be ignored
                kp["objects"] = ["bogus"]
                kp["note"] = "bogus"
            return json.dumps({"keyposes": kps})

        gw = MockGateway(responder=shift)
        out = retarget(gw, ann, TASK, scene())
        for a, b in zip(ann.keyposes, out):
            assert b.pos_mm[0] == a.pos_mm[0] + 70.0
            assert b.gripper == a.gripper
            assert b.objects == a.objects
            assert b.note == a.note

    def test_wrong_count_retries_then_fails(self, audit_log):
        ann = simple_annotation()
        short = json.dumps({"keyposes": [asdict(ann.keyposes[0])]})
        gw = MockGateway(replies([short, short, short, "unused"]), audit_log)
        with pytest.raises(RetargetFailed):
            retarget(gw, ann, TASK, scene())
        assert len(AuditLog.read(audit_log.path)) == 3

    def test_wrong_timestep_is_malformed(self):
        ann = simple_annotation()

        def drift(prompt):
            kps = keyposes_in_prompt(prompt)
            kps[0]["t"] += 1
            return json.dumps({"keyposes": kps})

        gw = MockGateway(responder=drift)
        with pytest.raises(RetargetFailed):
            retarget(gw, ann, TASK, scene())

    @pytest.mark.parametrize(
        "patch", [{"t": 0.0}, {"t": "0"}, {"t": False}, {"pos_mm": ["0", "0", "250"]}, {"euler_deg": [0, True, 0]}],
        ids=repr,
    )
    def test_mistyped_keypose_field_is_retried(self, audit_log, patch):
        # once coerced by int() and np.asarray: a float or bool t, number strings in a pose
        ann = simple_annotation()
        good = [asdict(k) for k in ann.keyposes]
        bad = [{**good[0], **patch}] + good[1:]
        gw = MockGateway(replies([json.dumps({"keyposes": bad}), json.dumps({"keyposes": good})]), audit_log)
        out = retarget(gw, ann, TASK, scene())
        assert [k.t for k in out] == [0, 10, 20, 30]
        assert len(AuditLog.read(audit_log.path)) == 2

    def test_overlong_integer_restarts_then_fails(self, audit_log):
        # json.loads raises a bare ValueError, not a JSONDecodeError, past int()'s 4300 digits
        ann = simple_annotation()
        kps = [asdict(k) for k in ann.keyposes]
        reply = json.dumps({"keyposes": kps}).replace('"t": 0', '"t": ' + "7" * 5000, 1)
        gw = MockGateway(replies([reply] * 3 + ["unused"]), audit_log)
        with pytest.raises(RetargetFailed):
            retarget(gw, ann, TASK, scene())
        assert len(AuditLog.read(audit_log.path)) == 3

    def test_deeply_nested_reply_restarts_then_fails(self, audit_log):
        gw = MockGateway(replies(['{"keyposes": ' + "[" * 100_000] * 3 + ["unused"]), audit_log)
        with pytest.raises(RetargetFailed):
            retarget(gw, simple_annotation(), TASK, scene())
        assert len(AuditLog.read(audit_log.path)) == 3

    def test_non_finite_pose_is_malformed(self):
        ann = simple_annotation()

        def poison(prompt):
            kps = keyposes_in_prompt(prompt)
            kps[0]["pos_mm"] = [1e400, 0, 0]  # json serializes as Infinity
            return json.dumps({"keyposes": kps})

        gw = MockGateway(responder=poison)
        with pytest.raises(RetargetFailed):
            retarget(gw, ann, TASK, scene())

    def test_retry_then_success_uses_fresh_sessions(self, audit_log):
        ann = simple_annotation()
        good = json.dumps({"keyposes": [asdict(k) for k in ann.keyposes]})
        gw = MockGateway(replies(["garbage", good]), audit_log)
        out = retarget(gw, ann, TASK, scene())
        assert len(out) == 4
        entries = AuditLog.read(audit_log.path)
        assert len(entries) == 2
        assert entries[0].session_id != entries[1].session_id


class TestScriptedRetarget:
    def test_unmoved_scene_is_identity(self):
        ann = simple_annotation()
        obs = scene()
        out = scripted_retarget(ann, obs, obs)
        for a, b in zip(ann.keyposes, out):
            assert np.array_equal(b.pose.position, a.pose.position)
            assert np.allclose(b.pose.rotation.as_matrix(), a.pose.rotation.as_matrix(), atol=1e-12)
            assert b.t == a.t
            assert b.gripper == a.gripper

    def test_translation_follows_anchor_object(self):
        ann = simple_annotation()
        old = scene(block=(0.05, -0.02, 0.02))
        new = scene(block=(0.15, -0.02, 0.02))  # +10 cm in x
        out = scripted_retarget(ann, new, old)
        moved = out[1]  # anchored to block
        assert np.allclose(moved.pose.position, ann.keyposes[1].pose.position + np.array([0.1, 0.0, 0.0]), atol=1e-12)
        # region anchor unmoved, so that keypose stays put
        assert np.array_equal(out[2].pose.position, ann.keyposes[2].pose.position)

    def test_unanchored_keyposes_copied_verbatim(self):
        ann = simple_annotation()
        old = scene()
        new = scene(block=(0.15, 0.1, 0.02), region=(0.0, 0.0, 0.02))
        out = scripted_retarget(ann, new, old, noise_std=0.005, rng=0)
        for idx in (0, 3):  # the unanchored home keyposes
            assert np.array_equal(out[idx].pos_mm, ann.keyposes[idx].pos_mm)
            assert np.array_equal(out[idx].euler_deg, ann.keyposes[idx].euler_deg)

    def test_unanchored_keyposes_cannot_be_edited(self):
        # an unanchored keypose is returned as the annotation's own value, so
        # every edit to it, its poses or its object names must raise
        ann = simple_annotation()
        before = asdict(ann)
        out = scripted_retarget(ann, scene(), scene())
        for idx in (0, 3):
            kp = out[idx]
            with pytest.raises(FrozenInstanceError):
                kp.gripper = 0.5
            with pytest.raises(TypeError):
                kp.pos_mm[0] = -1.0
            with pytest.raises(TypeError):
                kp.euler_deg[0] = 45.0
            with pytest.raises(AttributeError):
                kp.objects.append("block")
        assert asdict(ann) == before

    def test_yaw_delta_rotates_orientation_not_position(self):
        ann = simple_annotation()
        old = scene(block_yaw=0.0)
        new = scene(block_yaw=25.0)
        out = scripted_retarget(ann, new, old)
        want = Rotation.about_z_deg(25.0) @ ann.keyposes[1].pose.rotation
        assert np.allclose(out[1].pose.rotation.as_matrix(), want.as_matrix(), atol=1e-12)
        assert np.allclose(out[1].pose.position, ann.keyposes[1].pose.position, atol=1e-15)

    def test_noise_statistics_match_request(self):
        ann = simple_annotation()
        obs = scene()
        errors = []
        for run in range(1000):
            out = scripted_retarget(ann, obs, obs, noise_std=0.005, rng=run)
            errors.append(out[1].pose.position - ann.keyposes[1].pose.position)
        errors = np.asarray(errors)
        assert np.all(np.abs(errors.mean(axis=0)) < 0.0005)
        assert abs(errors.std() - 0.005) < 0.0005

    def test_noise_zero_is_exact(self):
        ann = simple_annotation()
        obs = scene()
        out = scripted_retarget(ann, obs, obs, noise_std=0.0, rng=7)
        assert np.array_equal(out[1].pose.position, ann.keyposes[1].pose.position)

    def test_noise_deterministic_per_seed(self):
        ann = simple_annotation()
        obs = scene()
        a = scripted_retarget(ann, obs, obs, noise_std=0.01, rng=42)
        b = scripted_retarget(ann, obs, obs, noise_std=0.01, rng=42)
        for x, y in zip(a, b):
            assert np.array_equal(x.pos_mm, y.pos_mm)

    def test_unknown_anchor_object_raises(self):
        ann = simple_annotation()
        obs = scene()
        missing = SceneObservation(robot_pose=obs.robot_pose, objects={"target_region": obs.objects["target_region"]})
        with pytest.raises(UnknownObject):
            scripted_retarget(ann, missing, obs)
        with pytest.raises(UnknownObject):
            scripted_retarget(ann, obs, missing)

    def test_cardinality_and_timesteps_preserved(self):
        demo = sw.record_demo(sw.TaskSpec("stack"), 2)
        ann = scripted_annotate(demo, "stack")
        old = sw.scene_observation(sw.reset(sw.TaskSpec("stack"), 2)[0])
        new = sw.scene_observation(sw.reset(sw.TaskSpec("stack"), 33)[0])
        out = scripted_retarget(ann, new, old)
        assert [k.t for k in out] == [k.t for k in ann.keyposes]
        assert [k.gripper for k in out] == [k.gripper for k in ann.keyposes]
