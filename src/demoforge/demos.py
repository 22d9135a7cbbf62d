"""Demonstration containers: dense robot trajectories plus scene snapshots.

A demonstration is the unit everything else consumes: the annotators read
it, the warper reshapes it, the dataset writer serializes it. It is held as
aligned columns, one row per timestep 0..T; poses are meters/radians
internally. What is derived from the demo alone, its prompt summary and its
start scene, is worked out once and cached on it. ``Observation`` and
``Action`` are per-step edge views built from the columns on demand for
readers of ``steps``. ``SceneObservation`` is a scene's initial snapshot, as
the world's reset returns it and the retargeters read it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Pose, Rotation, euler_degrees, pose_rows_text, pose_text

GRIPPER_OPEN = 1.0
GRIPPER_CLOSED = 0.0
SUMMARY_CADENCE = 5  # the summary samples every SUMMARY_CADENCE +/- SUMMARY_JITTER timesteps
SUMMARY_JITTER = 2


@dataclass
class ObjectObservation:
    """One scene entity as the robot sees it: name, pose, optional color tag."""

    name: str
    pose: Pose
    color: str | None = None


@dataclass
class Observation:
    """Robot pose, gripper opening in [0, 1], and every visible object."""

    robot_pose: Pose
    gripper: float
    objects: list[ObjectObservation] = field(default_factory=list)


@dataclass
class Action:
    """Goal-pose action: where the end-effector should head, and the gripper."""

    pose: Pose
    gripper: float


@dataclass
class TrajectorySegment:
    """Aligned arrays: positions (n, 3), rotation matrices (n, 3, 3) and
    gripper commands (n,); n >= 2."""

    positions: np.ndarray
    rotations: np.ndarray
    gripper: np.ndarray

    def __post_init__(self):
        n = len(self.positions)
        if n < 2:
            raise ValueError("segment needs at least 2 poses")
        if self.positions.shape != (n, 3) or self.rotations.shape != (n, 3, 3) or self.gripper.shape != (n,):
            raise ValueError("positions, rotations and gripper must align as (n, 3), (n, 3, 3) and (n,)")

    def __len__(self) -> int:
        return len(self.positions)

    def pose(self, i: int) -> Pose:
        return Pose(self.positions[i], Rotation(self.rotations[i].copy()))

    def action(self, i: int) -> Action:
        return Action(self.pose(i), float(self.gripper[i]))


@dataclass
class Demonstration:
    """Aligned columns, one row per timestep: the commanded ``actions`` (what
    gets warped and replayed), the observed ``robot`` track, and the poses of
    m scene entities, goal regions first, whose names and colour tags hold
    for the whole demo: positions (n, m, 3) and rotations (n, m, 3, 3)."""

    task: str
    actions: TrajectorySegment
    robot: TrajectorySegment
    entity_names: tuple[str, ...]
    entity_colors: tuple[str | None, ...]
    entity_positions: np.ndarray
    entity_rotations: np.ndarray
    demo_id: str = ""
    seed: int | None = None
    success: bool = True
    # where the demo came from: {"kind": "human_scripted"} or
    # {"kind": "generated", "annotation_id": ..., "seed": ...}
    provenance: dict = field(default_factory=lambda: {"kind": "human_scripted"})

    def __post_init__(self):
        n, m = len(self.actions), len(self.entity_names)
        shapes = (len(self.robot), len(self.entity_colors), self.entity_positions.shape, self.entity_rotations.shape)
        if shapes != (n, m, (n, m, 3), (n, m, 3, 3)):
            raise ValueError(f"demonstration columns must align on {n} steps and {m} entities")

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def horizon(self) -> int:
        """Last timestep index T (length - 1)."""
        return len(self) - 1

    def observation(self, t: int) -> Observation:
        poses = [Pose(p, Rotation(r.copy())) for p, r in zip(self.entity_positions[t], self.entity_rotations[t])]
        objects = [ObjectObservation(*entity) for entity in zip(self.entity_names, poses, self.entity_colors)]
        return Observation(self.robot.pose(t), float(self.robot.gripper[t]), objects)

    def action(self, t: int) -> Action:
        return self.actions.action(t)

    @cached_property
    def steps(self) -> tuple[tuple[Observation, Action], ...]:
        """(observation, action) view of the columns, built on first read."""
        return tuple((self.observation(t), self.action(t)) for t in range(len(self)))

    @cached_property
    def scene(self) -> SceneObservation:
        """The demo's start scene: step 0's robot pose and entity poses (a repeated name: its last pose)."""
        poses = [Pose(p, Rotation(r.copy())) for p, r in zip(self.entity_positions[0], self.entity_rotations[0])]
        return SceneObservation(self.robot.pose(0), dict(zip(self.entity_names, poses)))

    @cached_property
    def summary(self) -> str:
        """The demo as prompt text: a row of robot and object poses about every SUMMARY_CADENCE timesteps.

        Gaps are drawn uniformly from [SUMMARY_CADENCE - SUMMARY_JITTER,
        SUMMARY_CADENCE + SUMMARY_JITTER] from a fixed seed while always landing
        exactly on t = 0 and t = T; the jitter keeps downstream consumers from
        anchoring to exact timestep arithmetic. When the horizon forces it (tiny
        demos, indivisible remainders) the final gap may fall below the lower
        bound, never above the upper one.

        Robot rotations are reported relative to the home rotation (the first
        observation's rotation); object rotations are absolute.
        """
        rng = np.random.default_rng(0)
        horizon = self.horizon
        lo, hi = SUMMARY_CADENCE - SUMMARY_JITTER, SUMMARY_CADENCE + SUMMARY_JITTER

        timesteps = [0]
        while timesteps[-1] < horizon:
            rem = horizon - timesteps[-1]
            allowed = [g for g in range(lo, min(hi, rem) + 1) if rem - g == 0 or rem - g >= lo]
            gap = int(rng.choice(allowed)) if allowed else min(rem, hi)
            timesteps.append(timesteps[-1] + gap)

        ts, n, m = timesteps, len(timesteps), len(self.entity_names)
        positions = np.concatenate([self.robot.positions[ts], self.entity_positions[ts].reshape(-1, 3)])
        # robot rotations relative to home (home^-1 @ r), then the entities'
        robot = np.matmul(self.robot.rotations[0].T, self.robot.rotations[ts])
        rotations = np.concatenate([robot, self.entity_rotations[ts].reshape(-1, 3, 3)])
        texts = pose_rows_text(positions, euler_degrees(rotations))
        grippers = self.robot.gripper[ts].tolist()
        lines = []
        for i, t in enumerate(ts):
            # a repeated name: one row, last pose
            objects = dict(zip(self.entity_names, texts[n + i * m : n + i * m + m]))
            lines += [f"t={t}: robot {texts[i]} gripper {gripper_word(grippers[i])}"]
            lines += [f"       {name} {text}" for name, text in objects.items()]
        return "\n".join(lines)

    def gripper_transition_timesteps(self) -> list[int]:
        """Timesteps where the commanded gripper changes from the previous step."""
        g = self.actions.gripper
        return (np.flatnonzero(g[1:] != g[:-1]) + 1).tolist()


def gripper_word(g: float) -> str:
    return "open" if g >= 0.5 else "closed"


@dataclass
class SceneObservation:
    """Initial observation of a scene: robot pose plus an object pose map."""

    robot_pose: Pose
    objects: dict[str, Pose] = field(default_factory=dict)
    task_metadata: dict = field(default_factory=dict)

    def text(self) -> str:
        # the robot's rotation relative to its own home rotation: always zero
        lines = [f"robot {pose_text(Pose(self.robot_pose.position))}"]
        for name in self.objects:
            lines.append(f"{name} {pose_text(self.objects[name])}")
        for key, value in self.task_metadata.items():
            lines.append(f"{key}: {value}")
        return "\n".join(lines)
