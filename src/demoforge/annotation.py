"""Turning one demonstration into a reusable annotated demo.

The annotation is the unit of reuse: a keypose list (where the task inflects:
grasps, releases, endpoints) plus a processed description of the demo. It is
produced either by an LLM over a text summary of the demo, or by a scripted
annotator that keys on gripper transitions (the deterministic stand-in used
throughout the tests).

LLM responses are never trusted: listed keypose poses are overwritten with
the recorded poses at those timesteps, endpoints are inserted if missing,
and out-of-range or unparseable responses restart the whole query against a
fresh session.

Keypose poses are stored in the prompt units (millimeters / intrinsic X-Y-Z
degrees) so serialization is exact; the meters/Rotation view is derived.
"""
from __future__ import annotations

import json
import math
import re
import uuid
from dataclasses import dataclass, replace

import numpy as np

from .demos import Demonstration, gripper_word
from .gateway import MalformedResponse, query
from .geometry import Pose, Rotation, pose_text
from .simworld import BUNDLED_TASKS

VIEWFRAME_CAP = 8


class AnnotationFailed(RuntimeError):
    """All annotation attempts exhausted."""


@dataclass
class TaskDescription:
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("task description must be non-empty")


@dataclass(frozen=True)
class Keypose:
    """One key moment of a demo: a frozen value whose field names are its
    JSON keys, so ``dataclasses.asdict`` is its wire form. pos_mm / euler_deg
    are the stored truth; ``pose`` is the meters/Rotation view."""

    t: int
    pos_mm: tuple[float, float, float]
    euler_deg: tuple[float, float, float]
    gripper: float
    objects: tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("keypose timestep must be >= 0")
        pos_mm, euler_deg = tuple(map(float, self.pos_mm)), tuple(map(float, self.euler_deg))
        if len(pos_mm) != 3 or len(euler_deg) != 3 or not all(map(math.isfinite, pos_mm + euler_deg)):
            raise ValueError("keypose pose must be 3 finite numbers for position and for rotation")
        coerced = dict(pos_mm=pos_mm, euler_deg=euler_deg, gripper=float(self.gripper), objects=tuple(self.objects))
        for name, value in coerced.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_pose(cls, t: int, pose: Pose, gripper: float, objects=(), note="") -> "Keypose":
        return cls(t, pose.position * 1000.0, pose.rotation.euler_deg(), gripper, objects, note)

    @property
    def pose(self) -> Pose:
        return Pose(np.divide(self.pos_mm, 1000.0), Rotation.from_euler_deg(*self.euler_deg))

    @classmethod
    def from_json(cls, doc: dict) -> "Keypose":
        """A keypose entry as JSON reads it: t an integer, pos_mm and euler_deg lists of
        numbers, gripper a number (bools are neither), objects a list of names, note a string."""
        if not isinstance(doc, dict):
            raise TypeError(f"keypose entry must be an object, got {doc!r}")
        t, pos_mm, euler_deg, gripper = doc["t"], doc["pos_mm"], doc["euler_deg"], doc["gripper"]
        if isinstance(t, bool) or not isinstance(t, int):
            raise TypeError(f"keypose t must be an integer, got {t!r}")
        if not _number(gripper) or not all(isinstance(p, list) and all(map(_number, p)) for p in (pos_mm, euler_deg)):
            raise TypeError(f"keypose poses must be lists of numbers and its gripper a number, got {doc!r}")
        objects = doc.get("objects", [])
        if not isinstance(objects, list) or not all(isinstance(name, str) for name in objects):
            raise ValueError(f"keypose objects must be a list of names, got {objects!r}")
        note = doc.get("note", "")
        if not isinstance(note, str):
            raise TypeError(f"keypose note must be a string, got {note!r}")
        return cls(t, pos_mm, euler_deg, gripper, objects, note)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Annotation:
    """A frozen value; ``dataclasses.asdict`` is the checkpoint's annotation
    record, keys in field order."""

    id: str
    source_demo_id: str
    created_by: str  # "scripted" or "llm()"
    description_text: str
    keyposes: tuple[Keypose, ...]

    def __post_init__(self):
        object.__setattr__(self, "keyposes", tuple(self.keyposes))

    @classmethod
    def from_json(cls, doc: dict) -> "Annotation":
        texts = {name: doc[name] for name in ("id", "description_text", "source_demo_id", "created_by")}
        wrong = {name: value for name, value in texts.items() if not isinstance(value, str)}
        if wrong:
            raise TypeError(f"annotation fields must be strings, got {wrong!r}")
        return cls(keyposes=[Keypose.from_json(k) for k in doc["keyposes"]], **texts)


_INT_TOKEN = re.compile(r"-?\d+")


def parse_viewframes(text: str, horizon: int) -> list[int]:
    """The reply to the viewframes prompt, read as a list of integers.

    Anything outside [0, horizon] is a MalformedResponse. Deduplication
    keeps first mention, the cap keeps the first VIEWFRAME_CAP distinct
    frames, and the result is sorted.
    """
    try:
        tokens = [int(tok) for tok in _INT_TOKEN.findall(text)]
    except ValueError as err:  # a token past int()'s digit limit
        raise MalformedResponse(f"unreadable timestep: {err}") from None
    if not tokens:
        raise MalformedResponse(f"no timesteps in response: {text!r}")
    seen: list[int] = []
    for t in tokens:
        if t < 0 or t > horizon:
            raise MalformedResponse(f"timestep {t} outside [0, {horizon}]")
        if t not in seen:
            seen.append(t)
    return sorted(seen[:VIEWFRAME_CAP])


def reply_keyposes(text: str) -> tuple[dict, list]:
    """A keypose reply's JSON object, code fences allowed, and its
    "keyposes" list."""
    m = re.search(r"```(?:json)?\s*(.*?)```", text, flags=re.DOTALL)
    try:
        doc = json.loads(m.group(1) if m else text)
    except (ValueError, RecursionError) as err:  # JSONDecodeError, an integer past int()'s digit limit, deep nesting
        raise MalformedResponse(f"response is not JSON: {err}") from None
    items = doc.get("keyposes") if isinstance(doc, dict) else None
    if not isinstance(items, list):
        raise MalformedResponse(f"response has no 'keyposes' list: {items!r}")
    return doc, items


def _parse_annotation_response(text: str, horizon: int) -> tuple[str, list[Keypose]]:
    doc, items = reply_keyposes(text)
    keyposes = []
    for item in items:
        try:
            kp = Keypose.from_json(item)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise MalformedResponse(f"bad keypose entry {item!r}: {err}") from None
        if kp.t > horizon:
            raise MalformedResponse(f"keypose timestep {kp.t} outside demo range")
        keyposes.append(kp)
    if not keyposes:
        raise MalformedResponse("empty keypose list")
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise MalformedResponse(f"description must be a string, got {description!r}")
    return description, keyposes


def annotate(gateway, demo: Demonstration, frames: list[int], task: TaskDescription) -> Annotation:
    """The annotation query, then repair_annotation on its keyposes.

    A reply that does not parse or lists a timestep past the horizon is
    discarded and the query restarts on a fresh session (see ``query``).
    """
    if any(t < 0 or t > demo.horizon for t in frames):
        raise ValueError("frames outside demo range")
    prompt = render_prompt(
        "annotate",
        task=task.text,
        rows=demo.summary,
        frames=", ".join(str(t) for t in frames),
        horizon=demo.horizon,
    )
    description, keyposes = query(
        gateway, prompt, lambda text: _parse_annotation_response(text, demo.horizon),
        temperature=0.7, failure=AnnotationFailed,
    )
    raw = Annotation(
        id=f"ann-{uuid.uuid4().hex[:12]}",
        keyposes=keyposes,
        description_text=description,
        source_demo_id=demo.demo_id,
        created_by="llm()",
    )
    return repair_annotation(raw, demo)


_KEYPOSE_BLOCK = re.compile(r"\n*Key poses:\n(?:.*\n?)*", flags=re.MULTILINE)


def _keypose_block(keyposes: list[Keypose]) -> str:
    lines = ["Key poses:"]
    for k in keyposes:
        objs = ", ".join(k.objects) if k.objects else "none"
        note = f"; note: {k.note}" if k.note else ""
        lines.append(
            f"t={k.t}: {pose_text(k.pose)} gripper {gripper_word(k.gripper)}"
            f"; objects: {objs}{note}"
        )
    return "\n".join(lines)


def repair_annotation(raw: Annotation, demo: Demonstration) -> Annotation:
    """Make an annotation trustworthy regardless of who wrote it.

    Listed keypose poses and grippers are overwritten with the demo's
    recorded commanded pose at that timestep, endpoints (t=0, t=T) are
    inserted when missing, duplicates collapse to the first mention, and
    the description's "Key poses:" block is regenerated to match.
    Idempotent by construction.
    """
    by_t: dict[int, Keypose] = {}
    for kp in sorted(raw.keyposes, key=lambda k: k.t):
        by_t.setdefault(kp.t, kp)
    for t in (0, demo.horizon):
        by_t.setdefault(t, Keypose(t, np.zeros(3), np.zeros(3), 0.0))

    repaired = []
    for t, kp in sorted(by_t.items()):
        action = demo.action(t)
        repaired.append(Keypose.from_pose(t, action.pose, action.gripper, kp.objects, kp.note))

    body = _KEYPOSE_BLOCK.sub("", raw.description_text).rstrip()
    description = (body + "\n\n" if body else "") + _keypose_block(repaired)
    return replace(raw, keyposes=repaired, description_text=description)


# The container task's place target (the drawer) is observed at its handle,
# 10 cm from where releases actually happen, so nearest-entity would anchor
# the mug instead. The LLM annotator reads this relation off the scene; the
# scripted one needs it spelled out.
_RELEASE_ANCHOR_OVERRIDE = {"drawer_mug": "drawer"}


def scripted_annotate(demo: Demonstration, task_kind: str) -> Annotation:
    """Deterministic annotator: keyposes at gripper transitions plus endpoints.

    Each keypose anchors to the scene entity nearest the end-effector at that
    timestep. At release keyposes the object being held is skipped: its
    distance is degenerately zero and the pose relates to the place target,
    not the carried object. Held candidates are movable entities (no color
    tag) within 15 mm of the gripper; goal markers are never held, so they
    stay eligible and win the anchor at a release right on top of them.
    """
    if task_kind not in BUNDLED_TASKS:
        raise ValueError(f"unknown task kind {task_kind!r}; bundled: {sorted(BUNDLED_TASKS)}")

    timesteps = sorted(set([0, demo.horizon] + demo.gripper_transition_timesteps()))
    names, colors = demo.entity_names, demo.entity_colors
    keyposes = []
    for t in timesteps:
        action, positions = demo.action(t), demo.entity_positions[t]
        releasing = t > 0 and action.gripper >= 0.5 and demo.actions.gripper[t - 1] < 0.5
        override = _RELEASE_ANCHOR_OVERRIDE.get(task_kind) if releasing else None
        if override is not None:
            anchor = names.index(override) if override in names else None
        else:
            dists = [float(np.linalg.norm(p - demo.robot.positions[t])) for p in positions]
            held = {n for n, c, d in zip(names, colors, dists) if releasing and c is None and d < 0.015}
            # the first of equally distant entities wins; goal markers come first, so ties go to the marker
            anchor = min((j for j, n in enumerate(names) if n not in held), key=dists.__getitem__, default=None)
        objects, note = [], ""
        if anchor is not None:
            offset_mm = (action.pose.position - positions[anchor]) * 1000.0
            objects = [names[anchor]]
            note = (
                f"end-effector offset from {names[anchor]}: "
                f"[{offset_mm[0]:.1f}, {offset_mm[1]:.1f}, {offset_mm[2]:.1f}] mm"
            )
        keyposes.append(Keypose.from_pose(t, action.pose, action.gripper, objects, note))

    raw = Annotation(
        id=f"ann-{uuid.uuid4().hex[:12]}",
        keyposes=keyposes,
        description_text=f"Scripted annotation of a {task_kind} demonstration.",
        source_demo_id=demo.demo_id,
        created_by="scripted",
    )
    return repair_annotation(raw, demo)


def create_annotation(gateway, demo: Demonstration, task: TaskDescription) -> Annotation:
    """Pick viewframes over the demo's summary, then annotate: the whole query
    pipeline.

    Viewframe selection and annotation are separate queries; a malformed
    frame selection restarts only its own stage.
    """
    prompt = render_prompt("viewframes", task=task.text, rows=demo.summary, horizon=demo.horizon, cap=VIEWFRAME_CAP)
    frames = query(
        gateway, prompt, lambda text: parse_viewframes(text, demo.horizon),
        temperature=0.2, failure=AnnotationFailed,
    )
    return annotate(gateway, demo, frames, task)


def render_prompt(name: str, **fields) -> str:
    from importlib import resources
    from string import Template

    text = resources.files("demoforge").joinpath(f"prompts/{name}.txt").read_text(encoding="utf-8")
    return Template(text).substitute(**fields)
