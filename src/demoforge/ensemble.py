"""Similarity-gated switching between feedforward replay and a feedback policy.

The feedforward arm executes a warped trajectory verbatim; a feedback policy
runs shadow alongside. Actions are compared as normalized goal-minus-current
deltas under a magnitude-aware cosine similarity: prolonged disagreement
hands control to feedback, and control returns by reattaching to the most
action-compatible future trajectory point. A cooldown keeps the mode from
thrashing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .demos import Action, TrajectorySegment
from .geometry import _ORTHO_TOL, Pose, check_rotation_matrices, matrix_rotvecs, trusted_rotation

TAU_SWITCH = 0.5
TAU_REATTACH = 0.5
STREAK_WINDOW = 3
COOLDOWN = 5
# check_rotation_matrices keeps every gramian entry within _ORTHO_TOL of I's, so a trajectory rotation's singular
# values lie within 1.5 _ORTHO_TOL of 1 and its chord to the nearest rotation is under 1.9 _ORTHO_TOL; to the one
# scipy projects it to, at most 1.04 _ORTHO_TOL was measured. Its chord to a trusted rotation shrinks by less
_CHORD_SLACK = 4.0 * _ORTHO_TOL


def action_delta(from_pose: Pose, from_grip: float, to_pose: Pose, to_grip: float) -> np.ndarray:
    """Raw 7-vector between two (pose, gripper) states: position delta (3),
    rotation vector delta (3), gripper delta (1)."""
    dpos = to_pose.position - from_pose.position
    drot = (from_pose.rotation.inverse() @ to_pose.rotation).rotvec()
    return np.concatenate([dpos, drot, [float(to_grip) - float(from_grip)]])


def _row_deltas(from_pos, from_rot, from_grip, to_pos, to_rot, to_grip) -> np.ndarray:
    """action_delta row by row; a single from-state broadcasts over the to-rows."""
    rotvecs = matrix_rotvecs(np.matmul(np.swapaxes(from_rot, -1, -2), to_rot)).reshape(-1, 3)
    return np.column_stack([to_pos - from_pos, rotvecs, to_grip - from_grip])


def _step_deltas(traj: TrajectorySegment) -> np.ndarray:
    """Raw action recorded along the trajectory: row t steps from point t to t + 1."""
    p, r, g = traj.positions, traj.rotations, traj.gripper
    return _row_deltas(p[:-1], r[:-1], g[:-1], p[1:], r[1:], g[1:])


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Magnitude-aware cosine: cosine scaled by L1-norm agreement.

    1 means same direction and same size; the sign is the cosine's. Zero
    vectors fall outside the formula: two idle actions agree perfectly (1),
    an idle action tells nothing about a moving one (0). ActionRows.similarity
    is the batch form; a one-row batch can round differently, so both stay.
    """
    na1, nb1 = float(np.abs(a).sum()), float(np.abs(b).sum())
    if na1 == 0.0 and nb1 == 0.0:
        return 1.0
    if na1 == 0.0 or nb1 == 0.0:
        return 0.0
    magnitude = 2.0 * min(na1, nb1) / (na1 + nb1)
    cosine = float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return magnitude * max(-1.0, min(1.0, cosine))


@dataclass(frozen=True)
class ActionRows:
    """Normalized action rows with their L1 and L2 norms, checked finite once."""

    rows: np.ndarray
    l1: np.ndarray
    l2: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray) -> "ActionRows":
        if not np.all(np.isfinite(rows)):
            raise ValueError("normalized action must be finite")
        return cls(rows, np.abs(rows).sum(axis=1), np.linalg.norm(rows, axis=1))

    def __getitem__(self, index) -> "ActionRows":
        return ActionRows(self.rows[index], self.l1[index], self.l2[index])

    def similarity(self, single: np.ndarray) -> np.ndarray:
        """similarity() between each row and one vector."""
        nb1 = float(np.abs(single).sum())
        if nb1 == 0.0:
            return np.where(self.l1 == 0.0, 1.0, 0.0)
        out = np.zeros(len(self.rows))  # rows with zero L1 norm score 0 against a mover
        live = self.l1 > 0.0
        n1 = self.l1[live]
        magnitude = 2.0 * np.minimum(n1, nb1) / (n1 + nb1)
        cosine = (self.rows[live] @ single) / (self.l2[live] * float(np.linalg.norm(single)))
        out[live] = magnitude * np.clip(cosine, -1.0, 1.0)
        return out


def _attach_floor(state: EnsembleState, start: int, position: np.ndarray, here: np.ndarray, grip: float) -> np.ndarray:
    """A lower bound on each point's normalized attach L1 from start on: its position and gripper terms plus
    |rotvec| / max rotation scale, and |rotvec| is the angle theta >= the chord 2 sin(theta / 2). Each term is
    1-Lipschitz in the current position, rotation matrix and gripper, in the distance select_reattach's anchor uses."""
    traj, s = state.ff_trajectory, state.scale
    low = (np.abs(traj.positions[start:] - position) / s[:3]).sum(axis=1) + np.abs(traj.gripper[start:] - grip) / s[6]
    chord = np.sqrt(np.square(traj.rotations[start:] - here).sum(axis=(1, 2)) / 2.0) - _CHORD_SLACK
    return low + chord / s[3:6].max()


def _cutoff(nb1: float, tau: float) -> float:  # a row above tau has L1 < nb1 (2 - tau) / tau; 1e-9 for rounding
    return nb1 * (2.0 - tau) / tau * (1.0 + 1e-9)  # rounding keeps it monotone in nb1


def _anchor_clears(state: EnsembleState, start: int, position: list, here: list, grip: float, cut: float) -> bool:
    """Whether the anchor's minimum, less how far the arm (position, flat rotation matrix and gripper as Python
    floats) has moved since in the bound's terms, clears cut: then no point from start on scores above tau."""
    if state.anchor is None or start < state.anchor[0]:  # a later suffix start drops rows only
        return False
    _, floor, x0, h0, g0 = state.anchor
    s = state.scale.tolist()  # NaN or inf on a non-finite input, and the comparison fails
    moved = sum(abs(a - b) / c for a, b, c in zip(position, x0, s)) + abs(grip - g0) / s[6]
    moved += math.dist(here, h0) / math.sqrt(2.0) / max(s[3:6])
    return floor - moved >= cut + 1e-9 * (abs(floor) + moved)


def select_reattach(
    state: EnsembleState, current_pose: Pose, current_gripper: float, a_il: np.ndarray, tau: float = TAU_REATTACH
) -> int | None:
    """Best future trajectory point to resume feedforward at, if any.

    A candidate t past the state's cursor is feasible when both the recorded
    action along the trajectory at t and the reattach action (from here to
    the trajectory pose at t) agree with the feedback action above tau.
    Returns the feasible t with the highest reattach similarity, earliest on
    ties. A bound without rotations first tries to prove the whole suffix
    infeasible, and the state keeps its minimum as an anchor: while that
    minimum, less how far the arm has moved since, clears the cutoff, the
    scan is empty with no array work. Otherwise the recorded filter reads the
    state's per-trajectory table, and reattach actions are built only for
    the points that pass it and the bound. Such a proof never drops single
    points: a row's similarity bits can depend on the batch it is scored in.
    """
    traj, start = state.ff_trajectory, state.ff_cursor + 1
    if start >= len(traj):
        return None
    x, here, grip, scale = current_pose.position, current_pose.rotation.as_matrix(), float(current_gripper), state.scale
    nb1 = float(np.abs(a_il).sum())
    low = None
    if tau > 0.0 and nb1 > 0.0 and trusted_rotation(here):
        cut, xs, hs = _cutoff(nb1, tau), x.tolist(), here.ravel().tolist()
        if _anchor_clears(state, start, xs, hs, grip, cut):
            return None
        bound = _attach_floor(state, start, x, here, grip)
        if np.isfinite(bound).all():  # a non-finite row raises below instead
            low, state.anchor = bound, (start, float(bound.min()), xs, hs, grip)
            if state.anchor[1] >= cut:
                return None
    cand = start + np.flatnonzero(state.recorded[start:].similarity(a_il) > tau)
    if not cand.size or low is not None and low[cand - start].min() >= cut:
        return None
    p, r, g = traj.positions[cand], traj.rotations[cand], traj.gripper[cand]
    att = _row_deltas(x, here, grip, p, r, g)
    att_sims = ActionRows.of(att / scale).similarity(a_il)
    feasible = att_sims > tau
    if not feasible.any():
        return None
    return int(cand[feasible][np.argmax(att_sims[feasible])])  # first max: earliest tie


@dataclass
class EnsembleState:
    ff_trajectory: TrajectorySegment  # read-only: the recorded table and the reattach anchor hold while it does
    scale: np.ndarray  # per-dimension std of the trajectory's step actions, floored at 1e-6
    recorded: ActionRows  # the trajectory's own action at each point; the last repeats the final step
    mode: str = "feedforward"
    ff_cursor: int = 0
    cooldown_remaining: int = 0
    disagreement_streak: int = 0
    trace: list[dict] = field(default_factory=list)
    # select_reattach's last suffix bound: (suffix start, its minimum, position, rotation matrix, gripper)
    anchor: tuple | None = None

    @classmethod
    def initial(cls, traj: TrajectorySegment) -> "EnsembleState":
        traj = TrajectorySegment(*(np.array(a) for a in (traj.positions, traj.rotations, traj.gripper)))
        for a in (traj.positions, traj.rotations, traj.gripper):
            a.setflags(write=False)  # a copy no caller can write
        check_rotation_matrices(traj.rotations)  # the reattach scan's chord bound holds for proper rotations
        raw = _step_deltas(traj)
        scale = np.maximum(raw.std(axis=0), 1e-6)
        return cls(traj, scale, ActionRows.of(np.concatenate([raw, raw[-1:]]) / scale))


def _normalized(state: EnsembleState, pose: Pose, grip: float, goal: Action) -> np.ndarray:
    """The step from (pose, grip) to goal, divided by the state's scale."""
    vector = action_delta(pose, grip, goal.pose, goal.gripper) / state.scale
    if not np.all(np.isfinite(vector)):
        raise ValueError("normalized action must be finite")
    return vector


def _scan_proved_empty(state: EnsembleState, pose: Pose, grip: float, goal: Action) -> bool:
    """select_reattach's anchor exit before the feedback action a is built, on a bound of a's L1: its position and
    gripper quotients plus theta sqrt(sum s_rot^-2) (Cauchy-Schwarz), theta <= (pi / 2) 2 sin(theta / 2) the chord.
    Only a position or gripper move proves a != 0; on a NaN or inf a comparison fails and building a raises."""
    start, here, there = state.ff_cursor + 1, pose.rotation.as_matrix(), goal.pose.rotation.as_matrix()
    if not (start < len(state.ff_trajectory) and trusted_rotation(here) and trusted_rotation(there)):
        return False
    s, x, g, p = state.scale.tolist(), pose.position.tolist(), float(grip), goal.pose.position.tolist()
    linear = sum(abs(b - a) / c for a, b, c in zip(x, p, s)) + abs(float(goal.gripper) - g) / s[6]
    here = here.ravel().tolist()
    chord = math.dist(here, there.ravel().tolist()) / math.sqrt(2.0) + _CHORD_SLACK
    nb1 = (linear + math.pi / 2.0 * chord * math.hypot(1.0 / s[3], 1.0 / s[4], 1.0 / s[5])) * (1.0 + 1e-9)
    return linear > 0.0 and _anchor_clears(state, start, x, here, g, _cutoff(nb1, TAU_REATTACH))


def ensemble_step(
    state: EnsembleState, feedback_action: Action, current_pose: Pose, current_gripper: float
) -> tuple[Action, EnsembleState]:
    """Advance the switching machine one control step.

    Feedforward executes the cursor's trajectory action while scoring it
    against the feedback action; a streak of STREAK_WINDOW similarities
    below TAU_SWITCH flips to feedback once the COOLDOWN since the last flip
    has elapsed. Feedback executes the feedback action and scans for a
    reattach point (select_reattach at TAU_REATTACH), resuming feedforward
    there. Cursor exhaustion makes feedback permanent: the flip label waits
    out any live cooldown (acting as fallback in the meantime) so flips
    always sit >= COOLDOWN apart.
    """
    traj = state.ff_trajectory
    if state.cooldown_remaining > 0:
        state.cooldown_remaining -= 1
    sim = None

    if state.mode == "feedback":
        executed = feedback_action
        flip = False
        if state.cooldown_remaining == 0 and not _scan_proved_empty(state, current_pose, current_gripper, executed):
            a_il = _normalized(state, current_pose, current_gripper, feedback_action)
            t_star = select_reattach(state, current_pose, current_gripper, a_il, TAU_REATTACH)
            if t_star is not None:
                state.ff_cursor, flip = t_star, True
    elif state.ff_cursor < len(traj):
        executed = traj.action(state.ff_cursor)
        a_ff = _normalized(state, current_pose, current_gripper, executed)
        sim = similarity(a_ff, _normalized(state, current_pose, current_gripper, feedback_action))
        if sim < TAU_SWITCH:
            state.disagreement_streak += 1
        else:
            state.disagreement_streak = 0
        state.ff_cursor += 1
        flip = state.disagreement_streak >= STREAK_WINDOW
    else:  # cursor exhausted: feedback for good
        executed = feedback_action
        flip = True

    # in feedback mode the streak is already 0: every flip into it resets it
    switched = flip and state.cooldown_remaining == 0
    if switched:
        state.mode = "feedforward" if state.mode == "feedback" else "feedback"
        state.cooldown_remaining = COOLDOWN
        state.disagreement_streak = 0

    state.trace.append(
        {
            "step": len(state.trace),
            "mode": state.mode,
            "similarity": sim,
            "switched": switched,
            "ff_cursor": state.ff_cursor,
        }
    )
    return executed, state

