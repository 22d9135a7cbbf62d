"""Adapting an annotation's keyposes to a new scene.

Given the annotated demo and the new scene's initial observation, produce
K': the same keyposes with poses adjusted for where the objects now are.
The LLM path renders everything into one prompt and trusts only pose fields
of the reply; the scripted path is the idealized object-anchored version
used as the deterministic oracle (and, with noise, as a family of imperfect
retargeters of varying quality for the bandit to sort out).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .annotation import Keypose, MalformedResponse, TaskDescription, _strip_code_fences, render_prompt
from .geometry import Pose, Rotation, pose_text


class RetargetFailed(RuntimeError):
    """All retargeting attempts exhausted."""


class UnknownObject(KeyError):
    """A keypose references an object absent from an observation."""


@dataclass
class SceneObservation:
    """Initial observation of a scene: robot pose plus an object pose map."""

    robot_pose: Pose
    objects: dict[str, Pose] = field(default_factory=dict)
    task_metadata: dict = field(default_factory=dict)

    def text(self, home: Rotation | None = None) -> str:
        home = home if home is not None else self.robot_pose.rotation
        lines = [f"robot {pose_text(self.robot_pose, home=home)}"]
        for name in self.objects:
            lines.append(f"{name} {pose_text(self.objects[name])}")
        for key, value in self.task_metadata.items():
            lines.append(f"{key}: {value}")
        return "\n".join(lines)


@dataclass
class RetargetRequest:
    description_text: str
    task: TaskDescription
    observation: SceneObservation
    keyposes: list[Keypose]

    def render(self) -> str:
        """Canonical prompt body; stored in campaign logs alongside replies."""
        kp_lines = "\n".join(json.dumps(k.to_json()) for k in self.keyposes)
        return render_prompt(
            "retarget",
            task=self.task.text,
            description=self.description_text,
            keyposes=kp_lines,
            observation=self.observation.text(),
        )


def build_request(ann, task: TaskDescription, obs: SceneObservation) -> RetargetRequest:
    return RetargetRequest(
        description_text=ann.description_text,
        task=task,
        observation=obs,
        keyposes=[k.copy() for k in ann.keyposes],
    )


def _parse_retarget_response(text: str, original: list[Keypose]) -> list[Keypose]:
    try:
        doc = json.loads(_strip_code_fences(text))
    except json.JSONDecodeError as err:
        raise MalformedResponse(f"response is not JSON: {err}") from None
    items = doc.get("keyposes") if isinstance(doc, dict) else None
    if not isinstance(items, list) or len(items) != len(original):
        got = len(items) if isinstance(items, list) else "no"
        raise MalformedResponse(f"expected {len(original)} keyposes, got {got}")
    out = []
    for item, orig in zip(items, original):
        try:
            t = int(item["t"])
            pos_mm = np.asarray(item["pos_mm"], dtype=float).reshape(3)
            euler_deg = np.asarray(item["euler_deg"], dtype=float).reshape(3)
        except (KeyError, TypeError, ValueError) as err:
            raise MalformedResponse(f"bad keypose entry {item!r}: {err}") from None
        if t != orig.timestep:
            raise MalformedResponse(f"timestep drift: got {t}, want {orig.timestep}")
        if not (np.all(np.isfinite(pos_mm)) and np.all(np.isfinite(euler_deg))):
            raise MalformedResponse(f"non-finite pose in {item!r}")
        # only poses are trusted from the response; everything else inherits
        out.append(
            Keypose(
                timestep=orig.timestep,
                pos_mm=pos_mm,
                euler_deg=euler_deg,
                gripper=orig.gripper,
                relevant_objects=list(orig.relevant_objects),
                relation_note=orig.relation_note,
            )
        )
    return out


def retarget(gateway, req: RetargetRequest, max_retries: int = 3) -> list[Keypose]:
    """LLM retargeting with fixed keypose cardinality and timesteps.

    A reply that changes the count or the timesteps is malformed: discarded
    and retried on a fresh session, then RetargetFailed.
    """
    prompt = req.render()
    last_error: Exception | None = None
    for _ in range(max_retries):
        text = gateway.fresh_session().complete(prompt, temperature=0.2)
        try:
            return _parse_retarget_response(text, req.keyposes)
        except MalformedResponse as err:
            last_error = err
    raise RetargetFailed(f"no usable retarget after {max_retries} attempts: {last_error}")


def _yaw_deg(rot: Rotation) -> float:
    m = rot.as_matrix()
    return float(np.degrees(np.arctan2(m[1, 0], m[0, 0])))


def scripted_retarget(
    ann,
    obs: SceneObservation,
    old_obs: SceneObservation,
    noise_std: float = 0.0,
    rng=None,
) -> list[Keypose]:
    """Object-anchored retargeting oracle.

    Keyposes with a relevant object translate by that object's position delta
    between the two observations and rotate by its yaw delta about z; others
    stay put. noise_std (meters) adds per-axis Gaussian error to the anchored
    keypose positions, modeling an imperfect retargeter.
    """
    rng = np.random.default_rng(rng)
    out = []
    for kp in ann.keyposes:
        if not kp.relevant_objects:
            out.append(kp.copy())
            continue
        name = kp.relevant_objects[0]
        if name not in obs.objects or name not in old_obs.objects:
            raise UnknownObject(f"{name!r} missing from observation")
        delta = obs.objects[name].position - old_obs.objects[name].position
        dyaw = _yaw_deg(obs.objects[name].rotation) - _yaw_deg(old_obs.objects[name].rotation)
        new_pos = kp.position + delta
        if noise_std > 0.0:
            new_pos = new_pos + rng.normal(0.0, noise_std, size=3)
        new_rot = Rotation.about_z_deg(dyaw) @ kp.rotation
        out.append(
            Keypose.from_pose(kp.timestep, Pose(new_pos, new_rot), kp.gripper, kp.relevant_objects, kp.relation_note)
        )
    return out
