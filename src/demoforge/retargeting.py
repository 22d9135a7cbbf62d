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
from dataclasses import asdict

import numpy as np

from .annotation import Keypose, TaskDescription, render_prompt, reply_keyposes
from .demos import SceneObservation
from .gateway import MalformedResponse, query
from .geometry import Pose, Rotation


class RetargetFailed(RuntimeError):
    """All retargeting attempts exhausted."""


class UnknownObject(KeyError):
    """A keypose references an object absent from an observation."""


def _parse_retarget_response(text: str, original: tuple[Keypose, ...]) -> list[Keypose]:
    _, items = reply_keyposes(text)
    if len(items) != len(original):
        raise MalformedResponse(f"expected {len(original)} keyposes, got {len(items)}")
    out = []
    for item, orig in zip(items, original):
        # only poses are trusted from the response; everything else inherits
        try:
            kp = Keypose.from_json({**item, "gripper": orig.gripper, "objects": list(orig.objects), "note": orig.note})
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise MalformedResponse(f"bad keypose entry {item!r}: {err}") from None
        if kp.t != orig.t:
            raise MalformedResponse(f"timestep drift: got {kp.t}, want {orig.t}")
        out.append(kp)
    return out


def retarget(gateway, annotation, task: TaskDescription, scene: SceneObservation) -> list[Keypose]:
    """LLM retargeting of the annotation's keyposes to ``scene``.

    A reply that changes the keypose count or a timestep is malformed, and
    the query restarts on a fresh session (see ``query``).
    """
    prompt = render_prompt(
        "retarget",
        task=task.text,
        description=annotation.description_text,
        keyposes="\n".join(json.dumps(asdict(k)) for k in annotation.keyposes),
        observation=scene.text(),
    )
    return query(
        gateway, prompt, lambda text: _parse_retarget_response(text, annotation.keyposes),
        temperature=0.2, failure=RetargetFailed,
    )


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
        if not kp.objects:
            out.append(kp)
            continue
        name = kp.objects[0]
        if name not in obs.objects or name not in old_obs.objects:
            raise UnknownObject(f"{name!r} missing from observation")
        delta = obs.objects[name].position - old_obs.objects[name].position
        dyaw = obs.objects[name].rotation.yaw_deg() - old_obs.objects[name].rotation.yaw_deg()
        pose = kp.pose
        new_pos = pose.position + delta
        if noise_std > 0.0:
            new_pos = new_pos + rng.normal(0.0, noise_std, size=3)
        new_rot = Rotation.about_z_deg(dyaw) @ pose.rotation
        out.append(Keypose.from_pose(kp.t, Pose(new_pos, new_rot), kp.gripper, kp.objects, kp.note))
    return out
