"""A competent stand-in for the LLM behind demoforge's MockGateway.

The responder answers the three prompts demoforge sends (viewframes,
annotate, retarget) from the prompt text and from the benchmark's own
record of the source demonstration, the way a capable model reading the
same trace would:

- viewframes: the timesteps where the gripper command changes;
- annotate: keyposes at the endpoints and at each gripper change; a grasp
  is anchored to the movable object nearest the end-effector, a release to
  the nearest goal marker, the endpoints to nothing;
- retarget: each anchored keypose moves with its anchor's position change
  and turns with its anchor's yaw change, read off the new scene's text.

Two fault modes reproduce inputs the program does not survive today:
``unknown_object`` names an entity absent from the scene at the grasp, and
``near_duplicate`` adds a keypose one step before the release, sharing its
anchor, where the recorded commanded position does not move.

Nothing here imports demoforge's geometry: rotations go through scipy.
"""
from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation as SR

FAULTS = (None, "unknown_object", "near_duplicate")
ABSENT_ENTITY = "mug"

_HORIZON = re.compile(r"runs from timestep 0 to (\d+)")
_ROW_ENTITY = re.compile(r"^\s+(\w+) position_mm \[([^\]]+)\]", re.MULTILINE)
_SCENE_ENTITY = re.compile(r"^(\w+) position_mm \[([^\]]+)\] rotation_deg \[([^\]]+)\]$", re.MULTILINE)
_NEW_SCENE = "New scene initial observation"


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


@dataclass
class SourceRecord:
    """What the benchmark itself keeps of one recorded source demo."""

    horizon: int
    act_pos: np.ndarray  # (T+1, 3) commanded positions, meters
    act_rot: np.ndarray  # (T+1, 3, 3)
    grip: np.ndarray  # (T+1,)
    robot_pos: np.ndarray  # (T+1, 3) observed end-effector positions
    entities: list[tuple[str, bool]]  # (name, is goal marker), observation order
    entity_pos: np.ndarray  # (T+1, n_entities, 3)
    start_yaw_deg: dict[str, float]

    @classmethod
    def from_demo(cls, demo) -> "SourceRecord":
        obs0 = demo.steps[0][0]
        entities = [(o.name, o.color is not None) for o in obs0.objects]
        yaw = {}
        for o in obs0.objects:
            m = o.pose.rotation.as_matrix()
            yaw[o.name] = float(np.degrees(np.arctan2(m[1, 0], m[0, 0])))
        return cls(
            horizon=len(demo.steps) - 1,
            act_pos=np.array([a.pose.position for _, a in demo.steps]),
            act_rot=np.array([a.pose.rotation.as_matrix() for _, a in demo.steps]),
            grip=np.array([a.gripper for _, a in demo.steps], dtype=float),
            robot_pos=np.array([o.robot_pose.position for o, _ in demo.steps]),
            entities=entities,
            entity_pos=np.array([[e.pose.position for e in o.objects] for o, _ in demo.steps]),
            start_yaw_deg=yaw,
        )

    def transitions(self) -> list[int]:
        return [t for t in range(1, self.horizon + 1) if self.grip[t] != self.grip[t - 1]]

    def keypose_timesteps(self) -> list[int]:
        return sorted({0, self.horizon, *self.transitions()})

    def anchor(self, t: int) -> str | None:
        if t in (0, self.horizon) or t not in self.transitions():
            return None
        grasp = self.grip[t] < 0.5
        best, best_d = None, np.inf
        for j, (name, is_marker) in enumerate(self.entities):
            if is_marker == grasp:  # grasps pick movables, releases pick markers
                continue
            ref = self.robot_pos[t] if grasp else self.act_pos[t]
            d = float(np.linalg.norm(self.entity_pos[t, j] - ref))
            if d < best_d:
                best, best_d = name, d
        return best


def _keypose_doc(t, pos_mm, euler_deg, gripper, objects, note="") -> dict:
    return {
        "t": int(t),
        "pos_mm": [float(v) for v in pos_mm],
        "euler_deg": [float(v) for v in euler_deg],
        "gripper": float(gripper),
        "objects": list(objects),
        "note": note,
    }


class CompetentResponder:
    """Callable prompt -> response for ``MockGateway(responder=...)``.

    ``calls`` keeps (start, end, request chars, response chars) per call so
    the responder's own time can be kept apart from the gateway's.
    """

    def __init__(self, source, fault: str | None = None):
        if fault not in FAULTS:
            raise ValueError(f"fault must be one of {FAULTS}, got {fault!r}")
        self.rec = SourceRecord.from_demo(source)
        self.fault = fault
        self.calls: list[tuple[float, float, int, int]] = []

    def __call__(self, prompt: str) -> str:
        t0 = time.perf_counter()
        if prompt.startswith("You are assisting with analysis"):
            text = self._viewframes(prompt)
        elif prompt.startswith("You are writing a reusable annotation"):
            text = self._annotate(prompt)
        elif prompt.startswith("A robot manipulation behavior was recorded once"):
            text = self._retarget(prompt)
        else:
            raise ValueError(f"unrecognised prompt: {prompt[:60]!r}")
        self.calls.append((t0, time.perf_counter(), len(prompt), len(text)))
        return text

    def _check_rows(self, prompt: str) -> None:
        """The prompt's trace must be the recorded source demo's."""
        rec = self.rec
        first: dict[str, np.ndarray] = {}
        for name, pos in _ROW_ENTITY.findall(prompt):
            first.setdefault(name, _floats(pos))
        same = int(_HORIZON.search(prompt).group(1)) == rec.horizon and all(
            name in first and np.allclose(first[name], rec.entity_pos[0, j] * 1000.0, atol=2e-3)
            for j, (name, _) in enumerate(rec.entities)
        )
        if not same:
            raise ValueError("prompt does not describe the recorded source demo")

    def _viewframes(self, prompt: str) -> str:
        self._check_rows(prompt)
        return ", ".join(str(t) for t in self.rec.transitions())

    def _annotate(self, prompt: str) -> str:
        self._check_rows(prompt)
        rec = self.rec
        timesteps = rec.keypose_timesteps()
        releases = [t for t in rec.transitions() if rec.grip[t] >= 0.5]
        extra = None
        if self.fault == "near_duplicate":
            extra = releases[-1] - 1
            timesteps = sorted(set(timesteps) | {extra})
        keyposes = []
        for t in timesteps:
            anchor = rec.anchor(t + 1 if t == extra else t)
            objects = [anchor] if anchor else []
            if self.fault == "unknown_object" and anchor and rec.grip[t] < 0.5:
                objects = [ABSENT_ENTITY]
            euler = SR.from_matrix(rec.act_rot[t]).as_euler("XYZ", degrees=True)
            note = f"relative to {objects[0]}" if objects else ""
            keyposes.append(_keypose_doc(t, rec.act_pos[t] * 1000.0, euler, rec.grip[t], objects, note))
        return json.dumps({"description": "Grasp, carry, release, return home.", "keyposes": keyposes})

    def _retarget(self, prompt: str) -> str:
        head, scene_text = prompt.split(_NEW_SCENE, 1)
        keyposes = [json.loads(line) for line in head.splitlines() if line.startswith('{"t"')]
        rec = self.rec
        if [k["t"] for k in keyposes] != rec.keypose_timesteps():
            raise ValueError("keyposes to retarget are not the recorded source demo's")
        scene = {name: (_floats(pos), _floats(rot)) for name, pos, rot in _SCENE_ENTITY.findall(scene_text)}
        start_mm = {name: rec.entity_pos[0, j] * 1000.0 for j, (name, _) in enumerate(rec.entities)}
        out = []
        for k in keyposes:
            pos, euler = np.array(k["pos_mm"]), np.array(k["euler_deg"])
            if k["objects"]:
                name = k["objects"][0]
                new_pos, new_rot = scene[name]
                pos = pos + (new_pos - start_mm[name])
                turn = SR.from_euler("z", new_rot[2] - rec.start_yaw_deg[name], degrees=True)
                euler = (turn * SR.from_euler("XYZ", euler, degrees=True)).as_euler("XYZ", degrees=True)
            out.append(_keypose_doc(k["t"], pos, euler, k["gripper"], k["objects"], k.get("note", "")))
        return json.dumps({"keyposes": out})
