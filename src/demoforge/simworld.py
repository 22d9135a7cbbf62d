"""Kinematic desk-scale manipulation world.

No dynamics, no collision: the end-effector moves toward goal poses under
per-step caps, a closing gripper within grasp tolerance attaches the nearest
object rigidly, opening drops it to rest. That is deliberately minimal - the
interesting logic being exercised lives in warping, annotation reuse, and
the bandit, and a kinematic world keeps every trace bit-deterministic.

Bundled tasks:
  pick_place     one block into a goal region
  stack          blue then green onto one goal spot (order in task metadata)
  stack_flipped  stack, but the goal order flips for half the seeds
  stack_walking  stack, but blocks random-walk 0.4 mm/step until first grasp
  drawer_mug     open a prismatic drawer, put the mug in, close it

The four block tasks are one placement task: pick_place is a one-block
stack. ``reset`` works out each block's resting slot in its goal region
once (regions never move), and ``success`` and the scripted solver read
those slots.

The scripted controller is stateless over world state, so it doubles as the
demo solver and as the recovering feedback policy for ensembles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .demos import Action, Demonstration, GRIPPER_CLOSED, GRIPPER_OPEN, SceneObservation, TrajectorySegment
from .geometry import Pose, Rotation

BUNDLED_TASKS = ("pick_place", "stack", "stack_flipped", "stack_walking", "drawer_mug")

BLOCK_SIZE = 0.04
BLOCK_HALF = BLOCK_SIZE / 2.0
MUG_HALF = 0.03
HOME_POSE = Pose(np.array([0.0, 0.0, 0.25]), Rotation.identity())

DRAWER_TRAVEL = 0.12
DRAWER_INTERIOR_DX = 0.10  # interior center sits this far behind the handle

REGION_EXTENTS = (0.20, 0.30)  # scene randomization area, x by y
YAW_RANGE_DEG = 45.0
POSITION_TOLERANCE = 0.02
GRASP_TOLERANCE = 0.01
MAX_STEP = 0.02  # per env step
MAX_ANGULAR_STEP = 0.1
WALK_STEP = 4e-4  # stack_walking drift per env step
CONVERGENCE_CAP = 50  # extra env steps a rollout grants one trajectory point
RECORD_MAX_STEPS = 3000


class ObjectAttached(ValueError):
    """Disturbances may not touch an object while the gripper holds it."""


@dataclass
class TaskSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in BUNDLED_TASKS:
            raise ValueError(f"unknown task kind {self.kind!r}")


@dataclass(frozen=True)
class Region:
    pose: Pose  # center, identity rotation
    color: str


@dataclass
class WorldState:
    spec: TaskSpec
    robot_pose: Pose
    gripper: float
    objects: dict[str, Pose]
    goal_regions: dict[str, Region]
    rng: np.random.Generator
    attached_object: str | None = None
    attach_offset: Pose | None = None  # the held object's pose in the gripper frame
    frozen: set[str] = field(default_factory=set)
    task_metadata: dict = field(default_factory=dict)
    slots: dict[str, np.ndarray] = field(default_factory=dict)  # block -> resting position, bottom first


def _sample_in_region(rng, extents) -> np.ndarray:
    x = rng.uniform(-extents[0] / 2.0, extents[0] / 2.0)
    y = rng.uniform(-extents[1] / 2.0, extents[1] / 2.0)
    return np.array([x, y, 0.0])


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a vector, bit for bit: it too takes the root of v.v."""
    return math.sqrt(v.dot(v))


def reset(spec: TaskSpec, seed) -> tuple[WorldState, SceneObservation]:
    """Deterministic scene randomization: same seed, same state, always."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xD35C]))
    objects: dict[str, Pose] = {}
    regions: dict[str, Region] = {}
    metadata: dict = {}

    def block_pose():
        pos = _sample_in_region(rng, REGION_EXTENTS) + np.array([0.0, 0.0, BLOCK_HALF])
        yaw = rng.uniform(-YAW_RANGE_DEG, YAW_RANGE_DEG)
        return Pose(pos, Rotation.about_z_deg(yaw))

    def clear_of_blocks(xy) -> bool:
        return all(_norm(xy - o.position[:2]) >= 0.06 for o in objects.values())

    slots: dict[str, np.ndarray] = {}
    if spec.kind != "drawer_mug":
        order = ["block"] if spec.kind == "pick_place" else ["blue_block", "green_block"]
        for name in order:  # each block 6 cm clear of the earlier ones
            pose = block_pose()
            while not clear_of_blocks(pose.position[:2]):
                pose = block_pose()
            objects[name] = pose
        center = _sample_in_region(rng, REGION_EXTENTS) + np.array([0.0, 0.0, BLOCK_HALF])
        while not clear_of_blocks(center[:2]):
            center = _sample_in_region(rng, REGION_EXTENTS) + np.array([0.0, 0.0, BLOCK_HALF])
        if spec.kind == "stack_flipped" and rng.random() < 0.5:
            order = order[::-1]
        if spec.kind == "pick_place":
            regions["target_region"] = Region(Pose(center), "target")
        else:
            regions["goal_region"] = Region(Pose(center), ",".join(order))
            metadata["goal_colors"] = {"goal_region": ",".join(order)}
        slots = {name: center + np.array([0.0, 0.0, i * BLOCK_SIZE]) for i, name in enumerate(order)}
    else:
        handle = np.array([0.20, rng.uniform(-0.10, 0.10), 0.05])
        objects["drawer"] = Pose(handle, Rotation.identity())
        metadata["drawer_closed_x"] = float(handle[0])
        metadata["drawer_travel"] = DRAWER_TRAVEL
        mug = _sample_in_region(rng, (0.12, 0.20)) + np.array([-0.08, 0.0, MUG_HALF])
        objects["mug"] = Pose(mug, Rotation.about_z_deg(rng.uniform(-YAW_RANGE_DEG, YAW_RANGE_DEG)))

    state = WorldState(
        spec=spec,
        robot_pose=HOME_POSE,
        gripper=GRIPPER_OPEN,
        objects=objects,
        goal_regions=regions,
        rng=rng,
        task_metadata=metadata,
        slots=slots,
    )
    return state, scene_observation(state)


def scene_observation(state: WorldState) -> SceneObservation:
    """Retargeting-facing view of the current state: regions first (they
    win nearest-entity ties), then movable objects."""
    entities = {**{rid: r.pose for rid, r in state.goal_regions.items()}, **state.objects}
    return SceneObservation(state.robot_pose, entities, dict(state.task_metadata))


def _step_pose_toward(current: Pose, goal: Pose, max_step: float, max_angular: float) -> Pose:
    delta = goal.position - current.position
    dist = _norm(delta)
    angle = current.rotation.angle_to(goal.rotation)
    if dist <= max_step and angle <= max_angular:
        return goal
    new_pos = goal.position if dist <= max_step else current.position + delta * (max_step / dist)
    rot = current.rotation
    new_rot = goal.rotation if angle <= max_angular else rot @ (rot.inverse() @ goal.rotation).power(max_angular / angle)
    return Pose.unchecked(new_pos, new_rot)


def _rest_z(state: WorldState, name: str, position: np.ndarray) -> float:
    """Resting height under position: ground, or on top of a block whose centre lies below it."""
    half = MUG_HALF if name == "mug" else BLOCK_HALF
    top = half
    for other, pose in state.objects.items():
        if other in (name, "drawer", state.attached_object):
            continue
        if pose.position[2] < position[2] and _norm(pose.position[:2] - position[:2]) < 0.03:
            other_half = MUG_HALF if other == "mug" else BLOCK_HALF
            top = max(top, pose.position[2] + other_half + half)
    return top


def _drawer_opening(state: WorldState) -> float:
    return float(state.task_metadata["drawer_closed_x"] - state.objects["drawer"].position[0])


def _drawer_interior_center(state: WorldState) -> np.ndarray:
    d = state.objects["drawer"].position
    return np.array([d[0] + DRAWER_INTERIOR_DX, d[1], MUG_HALF])


def _mug_in_drawer(state: WorldState) -> bool:
    rel = state.objects["mug"].position - _drawer_interior_center(state)
    return bool(abs(rel[0]) < 0.04 and abs(rel[1]) < 0.04)


def step(state: WorldState, action: Action) -> WorldState:
    """Advance one timestep. Mutates and returns ``state``.

    Order: end-effector moves (capped), any attached object follows, then
    the gripper command is applied (close may attach, open detaches), then
    walking objects drift. Attachment is re-evaluated whenever the command
    is "close" and nothing is held, so a closed gripper passing within grasp
    tolerance does grab - there is no collision model to say otherwise.
    """
    if not math.isfinite(action.gripper):  # a Pose's position is finite by construction
        raise ValueError("action must be finite")

    state.robot_pose = _step_pose_toward(state.robot_pose, action.pose, MAX_STEP, MAX_ANGULAR_STEP)

    if state.attached_object is not None:
        name = state.attached_object
        if name == "drawer":
            closed_x = state.task_metadata["drawer_closed_x"]
            raw_x = state.robot_pose.position[0] - state.attach_offset.position[0]
            new_x = float(np.clip(raw_x, closed_x - state.task_metadata["drawer_travel"], closed_x))
            old = state.objects["drawer"]
            dx = new_x - old.position[0]
            # containment judged against the drawer pose before this step's slide
            carries_mug = _mug_in_drawer(state)
            state.objects["drawer"] = Pose.unchecked(old.position + np.array([dx, 0.0, 0.0]), old.rotation)
            if carries_mug:
                mug = state.objects["mug"]
                state.objects["mug"] = Pose.unchecked(mug.position + np.array([dx, 0.0, 0.0]), mug.rotation)
        else:
            ee, off = state.robot_pose, state.attach_offset
            state.objects[name] = Pose.unchecked(ee.rotation.apply(off.position) + ee.position, ee.rotation @ off.rotation)

    closing = action.gripper < 0.5
    if closing and state.attached_object is None:
        name = _grabbable_object(state)
        if name is not None:
            state.frozen.add(name)
            ee, obj = state.robot_pose, state.objects[name]
            inv = ee.rotation.inverse()
            state.attach_offset = Pose.unchecked(inv.apply(obj.position) - inv.apply(ee.position), inv @ obj.rotation)
            state.attached_object = name
    elif not closing and state.attached_object is not None:
        name = state.attached_object
        state.attached_object = None
        state.attach_offset = None
        if name != "drawer":
            pose = state.objects[name]
            rest = pose.position.copy()
            rest[2] = _rest_z(state, name, pose.position)
            state.objects[name] = Pose.unchecked(rest, pose.rotation)
    state.gripper = action.gripper

    if state.spec.kind == "stack_walking":
        for name in sorted(state.objects):
            if name in state.frozen or name == state.attached_object:
                continue
            theta = state.rng.uniform(0.0, 2.0 * np.pi)
            drift = WALK_STEP * np.array([np.cos(theta), np.sin(theta), 0.0])
            pose = state.objects[name]
            state.objects[name] = Pose.unchecked(pose.position + drift, pose.rotation)

    return state


def _grabbable_object(state: WorldState) -> str | None:
    best, best_d = None, GRASP_TOLERANCE
    for name in sorted(state.objects):
        d = _norm(state.objects[name].position - state.robot_pose.position)
        if d < best_d:
            best, best_d = name, d
    return best


def inject_disturbance(state: WorldState, object_id: str, delta) -> WorldState:
    if object_id not in state.objects:
        raise KeyError(f"no object {object_id!r}")
    if state.attached_object == object_id:
        raise ObjectAttached(f"{object_id!r} is held by the gripper")
    pose = state.objects[object_id]
    state.objects[object_id] = Pose(pose.position + np.asarray(delta, dtype=float), pose.rotation)
    # the pushed block, and any whose support was pushed away, falls onto what now lies below it, bottom up
    for name in sorted(state.objects, key=lambda n: state.objects[n].position[2]):
        pose, rest = state.objects[name], _rest_z(state, name, state.objects[name].position)
        if name not in ("drawer", state.attached_object) and rest < pose.position[2]:
            state.objects[name] = Pose.unchecked(np.array([*pose.position[:2], rest]), pose.rotation)
    return state


def success(state: WorldState) -> bool:
    """Pure predicate on the world state: nothing held, gripper open, and
    either the mug shut in the drawer or every block within tolerance of its slot."""
    if state.attached_object is not None or state.gripper < 0.5:
        return False
    if state.spec.kind == "drawer_mug":
        return _drawer_opening(state) <= 0.02 and _mug_in_drawer(state)
    for name, slot in state.slots.items():
        if not _norm(state.objects[name].position - slot) <= POSITION_TOLERANCE:
            return False
    return True


class Recording:
    """One row per env step, taken just before it, of references to the
    world's immutable poses. ``demonstration`` builds the columns, once, for
    a caller that keeps the episode."""

    def __init__(self, state: WorldState):
        self.state, self.rows = state, []

    def record(self, action: Action) -> None:
        s = self.state
        self.rows.append((s.robot_pose, s.gripper, action.pose, action.gripper, tuple(s.objects.values())))

    def demonstration(self, task: str, **meta) -> Demonstration:
        # goal regions never move, and no entity comes or goes mid-episode
        regions, objects = self.state.goal_regions.values(), self.state.objects
        robot, grip, act, act_grip, moving = zip(*self.rows)
        positions, rotations = _stack([p for row in moving for p in (*(r.pose for r in regions), *row)])
        n, m = len(self.rows), len(regions) + len(objects)
        return Demonstration(
            task,
            actions=TrajectorySegment(*_stack(act), np.array(act_grip, dtype=float)),
            robot=TrajectorySegment(*_stack(robot), np.array(grip, dtype=float)),
            entity_names=(*self.state.goal_regions, *objects),
            entity_colors=(*(r.color for r in regions), *(None for _ in objects)),
            entity_positions=positions.reshape(n, m, 3),
            entity_rotations=rotations.reshape(n, m, 3, 3),
            **meta,
        )


def _stack(poses) -> tuple[np.ndarray, np.ndarray]:
    """Positions (k, 3) and rotation matrices (k, 3, 3) of k poses."""
    positions = np.array([p.position for p in poses]).reshape(-1, 3)
    return positions, np.array([p.rotation.as_matrix() for p in poses]).reshape(-1, 3, 3)


@dataclass
class RolloutOutcome:
    success: bool
    steps: int
    recording: Recording


def rollout(
    state: WorldState,
    traj: TrajectorySegment,
    disturbances: list[tuple[int, str, np.ndarray]] | None = None,
) -> RolloutOutcome:
    """Execute a trajectory point-by-point as goal actions, stepping ``state`` in place.

    Each point gets one env step, then up to CONVERGENCE_CAP extra steps of
    the same action until the end-effector lands on it. ``disturbances`` is
    a list of (point_index, object_id, delta), each applied in list order
    just before its point executes. Every env step is recorded;
    ``recording.demonstration`` turns the run into a dataset demonstration.
    Raises ValueError, before any step, when a position is not finite.
    """
    positions, rotations = traj.positions.copy(), traj.rotations.copy()  # each point's pose holds its rows
    if not np.isfinite(positions).all():
        raise ValueError("pose position must be finite")
    rec = Recording(state)
    for i, grip in enumerate(traj.gripper.tolist()):
        for idx, obj, delta in disturbances or ():
            if idx == i:
                inject_disturbance(state, obj, delta)
        action = Action(Pose.unchecked(positions[i], Rotation(rotations[i])), grip)
        for _ in range(1 + CONVERGENCE_CAP):
            rec.record(action)
            step(state, action)
            if _converged(state.robot_pose, action.pose):
                break
    return RolloutOutcome(success=success(state), steps=len(rec.rows), recording=rec)


# angular tolerance sits above arccos round-off for bitwise-equal matrices
def _converged(current: Pose, goal: Pose, pos_tol: float = 1e-9, ang_tol: float = 1e-7) -> bool:
    return (
        current.position is goal.position or _norm(current.position - goal.position) <= pos_tol
    ) and current.rotation.angle_to(goal.rotation) <= ang_tol


# ---------------------------------------------------------------------------
# Scripted controller: stateless over world state, so it recovers from any
# disturbance and doubles as both the demo solver and the feedback policy.

APPROACH_HEIGHT = 0.10
CARRY_HEIGHT = 0.15
# Stride sits well below the env cap so every commanded pose is reached in
# one env step, and small enough that recorded demos are dense (hundreds of
# steps, like real teleop traces) rather than a handful of waypoint hops.
POLICY_STEP = 0.004
POLICY_ANGULAR_STEP = 0.09


def scripted_action(state: WorldState) -> Action | None:
    """The closed-loop solver's next action for ``state.spec``'s task.

    Reads the current state only; nothing is remembered between calls.
    Returns None when the task's tree has put everything in place and the
    arm is back at home hover. It does not test ``success`` itself: each
    tree ends in its own home-or-done step, and the callers that stop on
    success test it once per step.
    """
    goal = _drawer_mug_goal(state) if state.spec.kind == "drawer_mug" else _place_goal(state)
    if goal is None:
        return None
    goal_pose, grip = goal
    return Action(_step_pose_toward(state.robot_pose, goal_pose, POLICY_STEP, POLICY_ANGULAR_STEP), grip)


# -- task trees -------------------------------------------------------------


def _home_or_done(state: WorldState) -> tuple[Pose, float] | None:
    if _converged(state.robot_pose, HOME_POSE, 1e-9, 1e-9) and state.gripper >= 0.5:
        return None
    return HOME_POSE, GRIPPER_OPEN


def _place_goal(state: WorldState):
    """Carry a held block to just above its slot; else fetch the first
    block, bottom up, not yet placed; else go home."""
    if state.attached_object is not None:
        return _carry_to(state, state.slots[state.attached_object] + np.array([0.0, 0.0, 0.001]))
    for name, slot in state.slots.items():
        if not _norm(state.objects[name].position - slot) <= POSITION_TOLERANCE / 2.0:  # not placed yet
            return _fetch(state, name)
    return _home_or_done(state)


def _drawer_mug_goal(state: WorldState):
    meta = state.task_metadata
    opening = _drawer_opening(state)
    handle = state.objects["drawer"].position
    if _mug_in_drawer(state) and state.attached_object is None:
        # close the drawer: grab the handle and push it back in
        return _home_or_done(state) if opening <= 0.02 else _fetch(state, "drawer")
    if state.attached_object == "drawer":
        target_x = meta["drawer_closed_x"] if _mug_in_drawer(state) else meta["drawer_closed_x"] - meta["drawer_travel"]
        if abs(handle[0] - target_x) < 1e-6:
            return state.robot_pose, GRIPPER_OPEN
        return Pose(np.array([target_x, handle[1], handle[2]])), GRIPPER_CLOSED
    if state.attached_object == "mug":
        interior = _drawer_interior_center(state)
        return _carry_to(state, np.array([interior[0], interior[1], MUG_HALF + 0.001]))
    return _fetch(state, "drawer" if opening < 0.8 * meta["drawer_travel"] else "mug")


# -- shared motion primitives -----------------------------------------------


def _fetch(state: WorldState, name: str):
    """Approach above, descend, close, on an object that is not held."""
    pose, ee = state.objects[name], state.robot_pose.position
    obj, rot = pose.position, pose.heading if name != "drawer" else Rotation.identity()
    close = _norm(ee - obj) <= 0.008
    if close or _norm(ee[:2] - obj[:2]) <= 0.003 and ee[2] <= obj[2] + APPROACH_HEIGHT + 1e-6:
        return Pose.unchecked(obj, rot), GRIPPER_CLOSED if close else GRIPPER_OPEN
    return Pose.unchecked(np.array([obj[0], obj[1], obj[2] + APPROACH_HEIGHT]), rot), GRIPPER_OPEN


def _carry_to(state: WorldState, place: np.ndarray):
    """Lift, traverse at carry height, descend, release on arrival."""
    ee, rot = state.robot_pose.position, state.robot_pose.rotation
    d_xy = _norm(ee[:2] - place[:2])
    if d_xy <= 0.003:
        arrived = d_xy <= 1e-9 and abs(ee[2] - place[2]) <= 1e-9
        return Pose.unchecked(place, rot), GRIPPER_OPEN if arrived else GRIPPER_CLOSED
    xy = ee if ee[2] < CARRY_HEIGHT - 1e-6 else place  # lift where it is, then traverse
    return Pose.unchecked(np.array([xy[0], xy[1], CARRY_HEIGHT]), rot), GRIPPER_CLOSED


def record_demo(spec: TaskSpec, seed, demo_id: str = "") -> Demonstration:
    """Run the scripted controller from a fresh reset, recording every step.

    The recorded steps form the demonstration that the annotation pipeline
    consumes; replaying the actions from the same seed reproduces the run
    bit for bit.
    """
    state, _ = reset(spec, seed)
    rec = Recording(state)
    for _ in range(RECORD_MAX_STEPS):
        act = scripted_action(state)
        if act is None:
            break
        rec.record(act)
        step(state, act)
    else:
        raise RuntimeError(f"scripted policy did not finish {spec.kind} within {RECORD_MAX_STEPS} steps")
    if not success(state):
        raise RuntimeError(f"scripted policy failed {spec.kind} on seed {seed}")
    return rec.demonstration(spec.kind, demo_id=demo_id or f"{spec.kind}-{seed}", seed=int(seed))
