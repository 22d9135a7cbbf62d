"""Demonstration containers: dense robot trajectories plus scene snapshots.

A demonstration is the unit everything else consumes: the summarizer reads
it, the warper reshapes it, the dataset writer serializes it. Timesteps are
integers 0..T; poses are meters/radians internally. Poses are immutable
values, so observations and actions share them rather than copy them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose

GRIPPER_OPEN = 1.0
GRIPPER_CLOSED = 0.0


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
class Demonstration:
    """A dense trajectory: per-timestep observation and commanded action.

    ``steps[t]`` is the (observation, action) pair at integer timestep t.
    The commanded poses (actions) are what gets warped and replayed; the
    observations feed the summarizer.
    """

    task: str
    steps: list[tuple[Observation, Action]]
    demo_id: str = ""
    seed: int | None = None
    success: bool = True
    # where the demo came from: {"kind": "human_scripted"} or
    # {"kind": "generated", "annotation_id": ..., "seed": ...}
    provenance: dict = field(default_factory=lambda: {"kind": "human_scripted"})

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def horizon(self) -> int:
        """Last timestep index T (length - 1)."""
        return len(self.steps) - 1

    def observation(self, t: int) -> Observation:
        return self.steps[t][0]

    def action(self, t: int) -> Action:
        return self.steps[t][1]

    def grippers(self) -> np.ndarray:
        return np.asarray([a.gripper for _, a in self.steps], dtype=float)

    def gripper_transition_timesteps(self) -> list[int]:
        """Timesteps where the commanded gripper changes from the previous step."""
        g = self.grippers()
        return [t for t in range(1, len(g)) if g[t] != g[t - 1]]
