"""Every LLM call goes through the one query function: it must make the same
requests, on the same sessions and at the same temperatures, and give the
same result bits or the same exception class as the loops it replaced (kept
in tests/oracles.py), over scripted reply sequences."""
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from demoforge.annotation import Annotation, Keypose, TaskDescription, annotate, create_annotation
from demoforge.demos import Action, ObjectObservation, Observation, SceneObservation
from demoforge.gateway import AuditLog, GatewayError, MockGateway
from demoforge.geometry import Pose, Rotation
from demoforge.retargeting import retarget
from oracles import annotate_oracle, create_annotation_oracle, demo_from_steps, replies, retarget_oracle

TASK = TaskDescription("Pick up the block and place it inside the goal region.")
HORIZON = 40


class TemperatureGateway(MockGateway):
    """A scripted gateway that also records each completion's temperature."""

    def __init__(self, responses, audit_log):
        super().__init__(replies(responses), audit_log)
        self.temperatures = []

    def _transport(self, prompt, attachments, temperature):
        self.temperatures.append(temperature)
        return super()._transport(prompt, attachments, temperature)


def small_demo():
    """A short carry of a block to a region: gripper closes at 12, opens at 30."""
    region = Pose(np.array([0.12, 0.08, 0.0]))
    steps = []
    for t in range(HORIZON + 1):
        pose = Pose(np.array([0.002 * t, -0.001 * t, 0.1 - 0.001 * t]), Rotation.about_z_deg(0.5 * t))
        grip = 0.0 if 12 <= t < 30 else 1.0
        block = Pose(np.array([0.03, -0.01, 0.02])) if t < 12 else pose
        objects = [ObjectObservation("region", region, "red"), ObjectObservation("block", block, None)]
        steps.append((Observation(pose, grip, objects), Action(pose, grip)))
    return demo_from_steps(steps, task="pick_place", demo_id="small", seed=0)


def small_annotation():
    kps = [
        Keypose(0, np.array([0.0, 0.0, 250.0]), np.zeros(3), 1.0, [], ""),
        Keypose(12, np.array([50.0, -20.0, 20.0]), np.array([0.0, 0.0, 15.0]), 0.0, ["block"], "at the block"),
        Keypose(30, np.array([120.0, 80.0, 21.0]), np.zeros(3), 1.0, ["region"], "over the region"),
        Keypose(40, np.array([0.0, 0.0, 250.0]), np.zeros(3), 1.0, [], ""),
    ]
    return Annotation("ann-q", "small", "scripted", "Pick the block, place it.", kps)


def small_scene():
    return SceneObservation(
        robot_pose=Pose(np.array([0.0, 0.0, 0.25])),
        objects={"region": Pose(np.array([0.1, 0.1, 0.0])), "block": Pose(np.array([0.04, 0.0, 0.02]))},
    )


def keypose_doc(rng, t, objects=None):
    return {
        "t": t,
        "pos_mm": [float(v) for v in rng.normal(0.0, 100.0, 3)],
        "euler_deg": [float(v) for v in rng.uniform(-180.0, 180.0, 3)],
        "gripper": float(rng.integers(2)),
        "objects": objects if objects is not None else [str(rng.choice(["block", "region", "mug"]))],
        "note": "note",
    }


def viewframe_reply(rng):
    kind = rng.integers(4)
    if kind == 0:
        return ", ".join(str(t) for t in rng.integers(0, HORIZON + 1, rng.integers(1, 12)))
    if kind == 1:
        return f"Frames {rng.integers(0, HORIZON + 1)} and {rng.integers(0, HORIZON + 1)} matter."
    if kind == 2:
        return f"{rng.integers(0, HORIZON)}, {HORIZON + 1 + rng.integers(50)}"  # out of range
    return "the grasp, I think"  # no integers


# keypose entries that are not JSON objects
NOT_AN_OBJECT = [1, "x", [], None]


def annotation_reply(rng):
    kind = rng.integers(13)  # 9-11 are good replies too
    items = [keypose_doc(rng, int(t)) for t in rng.integers(0, HORIZON + 1, rng.integers(1, 5))]
    doc = {"description": "Carry the block.\n\nKey poses:\nt=0: stale", "keyposes": items}
    if kind == 1:
        return "```json\n" + json.dumps(doc) + "\n```"
    if kind == 2:
        return "{not json"
    if kind == 3:
        return json.dumps({"description": "no keyposes"})
    if kind == 4:
        del items[0][str(rng.choice(["t", "pos_mm", "euler_deg", "gripper"]))]  # a missing key
    elif kind == 5:
        items[-1]["t"] = int(rng.choice([-1, HORIZON + 1 + rng.integers(20)]))  # outside the demo
    elif kind == 6:
        items[0]["pos_mm"][int(rng.integers(3))] = float(rng.choice([np.inf, -np.inf, np.nan]))
    elif kind == 7:
        doc["keyposes"] = []
    elif kind == 8:
        items[0]["pos_mm"] = items[0]["pos_mm"][:2]  # the wrong shape
    elif kind == 12:
        items[int(rng.integers(len(items)))] = NOT_AN_OBJECT[int(rng.integers(len(NOT_AN_OBJECT)))]
    return json.dumps(doc)


def retarget_reply(rng, annotation):
    kind = rng.integers(9)
    items = [keypose_doc(rng, k.t, objects=["bogus"]) for k in annotation.keyposes]
    if kind == 1:
        return "```\n" + json.dumps({"keyposes": items}) + "\n```"
    if kind == 2:
        return "no json here"
    if kind == 3:
        return json.dumps({"keypose": items})  # a missing key
    if kind == 4:
        del items[int(rng.integers(len(items)))]  # the wrong count
    elif kind == 5:
        items[int(rng.integers(len(items)))]["t"] += int(rng.choice([-1, 1]))  # a drifted t
    elif kind == 6:
        items[int(rng.integers(len(items)))]["euler_deg"][0] = float(rng.choice([np.inf, np.nan]))
    elif kind == 7:
        del items[0]["pos_mm"]
    elif kind == 8:
        items[int(rng.integers(len(items)))] = NOT_AN_OBJECT[int(rng.integers(len(NOT_AN_OBJECT)))]
    return json.dumps({"keyposes": items})


def script(rng, reply, most=6):
    """Up to ``most`` replies; before each, the transport may die."""
    out = []
    for _ in range(rng.integers(1, most + 1)):
        if rng.random() < 0.1:
            out.append(GatewayError("connection reset", kind="transport"))
        out.append(reply(rng))
    return out


def keypose_bits(kps):
    # float text round-trips exactly, so equal text is equal bits
    return [json.dumps(asdict(k)) for k in kps]


def outcome(call, responses):
    """What ``call(gateway)`` gives, and what its gateway logged."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "audit.jsonl"
        gw = TemperatureGateway(responses, AuditLog(path))
        try:
            out = call(gw)
        except GatewayError as err:
            result = ("GatewayError", err.kind)
        except Exception as err:  # noqa: BLE001 - the class is what is compared
            result = (type(err).__name__,)
        else:
            if isinstance(out, Annotation):
                result = ("ok", keypose_bits(out.keyposes), out.description_text, out.source_demo_id, out.created_by)
            else:
                result = ("ok", keypose_bits(out))
        logged = AuditLog.read(path) if path.exists() else []
    exchanges = [(e.session_id, e.request, e.response, e.retries) for e in logged]
    return result, exchanges, gw.temperatures


def check_against_oracle(new, old, make_script, n, seed):
    rng = np.random.default_rng(seed)
    seen = {}
    for case in range(n):
        responses = make_script(rng)
        got, want = outcome(new, list(responses)), outcome(old, list(responses))
        assert got == want, case
        seen[got[0][0]] = seen.get(got[0][0], 0) + 1
    return seen


@pytest.fixture(scope="module")
def demo():
    return small_demo()


def test_create_annotation_matches_the_old_loops(demo):
    def make_script(rng):
        return script(rng, lambda r: viewframe_reply(r) if r.random() < 0.5 else annotation_reply(r), most=10)

    seen = check_against_oracle(
        lambda gw: create_annotation(gw, demo, TASK), lambda gw: create_annotation_oracle(gw, demo, TASK),
        make_script, 400, seed=11,
    )
    assert seen.get("ok", 0) >= 40 and seen.get("AnnotationFailed", 0) >= 40 and seen.get("GatewayError", 0) >= 40, seen


def test_annotate_matches_the_old_loop(demo):
    frames_by_case = []

    def make_script(rng):
        frames_by_case.append([int(t) for t in rng.integers(0, HORIZON + 3, rng.integers(1, 4))])
        return script(rng, annotation_reply)

    rng = np.random.default_rng(12)
    seen = {}
    for case in range(300):
        responses = make_script(rng)
        frames = frames_by_case[-1]
        got = outcome(lambda gw: annotate(gw, demo, frames, TASK), list(responses))
        want = outcome(lambda gw: annotate_oracle(gw, demo, frames, TASK), list(responses))
        assert got == want, case
        seen[got[0][0]] = seen.get(got[0][0], 0) + 1
    assert min(seen.get(k, 0) for k in ("ok", "AnnotationFailed", "GatewayError", "ValueError")) >= 20, seen


def test_retarget_matches_the_old_loop():
    ann, scene = small_annotation(), small_scene()
    seen = check_against_oracle(
        lambda gw: retarget(gw, ann, TASK, scene), lambda gw: retarget_oracle(gw, ann, TASK, scene),
        lambda rng: script(rng, lambda r: retarget_reply(r, ann)), 400, seed=13,
    )
    assert seen.get("ok", 0) >= 40 and seen.get("RetargetFailed", 0) >= 40 and seen.get("GatewayError", 0) >= 40, seen
