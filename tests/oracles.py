"""Independent reference implementations used to check package outputs.

Everything here is written from first principles (Rodrigues formula,
textbook quaternion slerp, brute-force grids) and deliberately avoids
importing the package's own math, so a shared bug cannot hide. ``replies``
scripts the in-process gateway for the LLM tests.
"""
import copy
import json
import re
import uuid
from collections import namedtuple
from dataclasses import asdict

import numpy as np


def rodrigues(axis, angle):
    """Rotation matrix about a (not necessarily unit) axis by angle."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def minimal_rotation(u_from, u_to):
    cross = np.cross(u_from, u_to)
    s = np.linalg.norm(cross)
    d = float(np.dot(u_from, u_to))
    if s < 1e-12:
        if d > 0:
            return np.eye(3)
        axis = np.cross(u_from, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-6:
            axis = np.cross(u_from, [0.0, 1.0, 0.0])
        return rodrigues(axis, np.pi)
    return rodrigues(cross, np.arctan2(s, d))


def grid_max_z_alignment(u_old, u_new, resolution=1e-3):
    """Brute-force max of z^T R z over rotations mapping u_old -> u_new.

    Candidates are Rot(u_new, phi) @ R_align for phi on a grid; returns
    (best value, best phi). Evaluated via explicit matrix algebra.
    """
    r_align = minimal_rotation(u_old, u_new)
    n = np.asarray(u_new, dtype=float)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    z = np.array([0.0, 0.0, 1.0])
    # z^T Rot(n,phi) R_align z = c0*cos + c1*sin + c2*(1-cos) + c3 ... collect
    # the three matrix pieces of the Rodrigues expansion separately
    m = r_align @ z
    c_cos = float(z @ m)
    c_sin = float(z @ k @ m)
    c_one = float(z @ np.outer(n, n) @ m)
    phis = np.arange(0.0, 2.0 * np.pi, resolution)
    vals = c_cos * np.cos(phis) + c_sin * np.sin(phis) + c_one * (1.0 - np.cos(phis))
    i = int(np.argmax(vals))
    return float(vals[i]), float(phis[i])


def quat_slerp_matrix(m0, m1, u):
    """Slerp two rotation matrices via quaternions, return a matrix."""
    q0, q1 = _mat_to_quat(m0), _mat_to_quat(m1)
    if np.dot(q0, q1) < 0.0:
        q1 = -q1
    cos_o = np.clip(np.dot(q0, q1), -1.0, 1.0)
    omega = np.arccos(cos_o)
    if omega < 1e-12:
        q = q0
    else:
        q = (np.sin((1 - u) * omega) * q0 + np.sin(u * omega) * q1) / np.sin(omega)
    return _quat_to_mat(q / np.linalg.norm(q))


def slerp_matrix(m0, m1, u):
    """m0 @ (m0^T m1)^u by plain scipy: constant angular velocity from m0 (u = 0) to m1 (u = 1)."""
    from scipy.spatial.transform import Rotation

    return m0 @ (Rotation.from_matrix(m0.T @ m1) ** u).as_matrix()


def _mat_to_quat(m):
    # Shepperd's method, (w, x, y, z)
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        return np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    i = int(np.argmax(np.diag(m)))
    if i == 0:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        return np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s])
    if i == 1:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        return np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s])
    s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
    return np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s])


def _quat_to_mat(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


# -- warp --------------------------------------------------------------------
# The warp as it was written on rotation and transform objects, before it ran
# on plain arrays. scipy's public Rotation does its rotation-vector
# conversions. It is kept to pin the array form bit for bit.


class WarpRotation:
    """A 3x3 rotation matrix as an object, with the operations the warp reads."""

    def __init__(self, matrix):
        self.m = np.asarray(matrix, dtype=float)

    @classmethod
    def identity(cls):
        return cls(np.eye(3))

    @classmethod
    def from_rotvec(cls, rotvec):
        from scipy.spatial.transform import Rotation

        return cls(Rotation.from_rotvec(rotvec).as_matrix())

    def rotvec(self):
        from scipy.spatial.transform import Rotation

        return Rotation.from_matrix(self.m).as_rotvec()

    def inverse(self):
        return WarpRotation(self.m.T)

    def __matmul__(self, other):
        return WarpRotation(self.m @ other.m)

    def apply(self, v):
        return np.asarray(v, dtype=float) @ self.m.T


# p -> scale * rotation p + translation, rotation a WarpRotation
WarpTransform = namedtuple("WarpTransform", "rotation translation scale")


def _minimal_rotation_oracle(u_from, u_to):
    cross = np.cross(u_from, u_to)
    s = np.linalg.norm(cross)
    d = float(u_from @ u_to)
    if s < 1e-12:
        if d > 0.0:
            return WarpRotation.identity()
        axis = np.cross(u_from, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-6:
            axis = np.cross(u_from, [0.0, 1.0, 0.0])
        axis = axis / np.linalg.norm(axis)
        return WarpRotation.from_rotvec(np.pi * axis)
    return WarpRotation.from_rotvec(np.arctan2(s, d) * (cross / s))


def _z_optimal_rotation_oracle(u_old, u_new):
    r_align = _minimal_rotation_oracle(u_old, u_new)
    n = u_new
    w = r_align.apply([0.0, 0.0, 1.0])
    a = float(w[2] - n[2] * (n @ w))
    b = float(np.cross(n, w)[2])
    if np.hypot(a, b) > 1e-12:
        phi = np.arctan2(b, a)
    else:
        m = r_align.m
        skew = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
        a2 = float(np.trace(m) - n @ m @ n)
        b2 = float(np.trace(skew @ m))
        phi = np.arctan2(b2, a2) if np.hypot(a2, b2) > 1e-12 else 0.0
    return WarpRotation.from_rotvec(phi * n) @ r_align


def compute_warp_oracle(old_start, old_end, new_start, new_end):
    """The WarpTransform mapping the old start/end Pose positions onto the new
    ones; raises the package's DegenerateChord where the warp must."""
    from demoforge.warping import EPS_CHORD, DegenerateChord

    c_old = old_end.position - old_start.position
    c_new = new_end.position - new_start.position
    len_old = float(np.linalg.norm(c_old))
    len_new = float(np.linalg.norm(c_new))
    if len_old <= EPS_CHORD:
        if len_new > EPS_CHORD:
            raise DegenerateChord("old chord is a point, new chord is not")
        return WarpTransform(WarpRotation.identity(), new_start.position - old_start.position, 1.0)
    if len_new == 0.0:
        rot, scale = WarpRotation.identity(), 1e-12
    else:
        rot = _z_optimal_rotation_oracle(c_old / len_old, c_new / len_new)
        scale = len_new / len_old
    return WarpTransform(rot, new_start.position - scale * rot.apply(old_start.position), scale)


def warp_trajectory_oracle(demo, old_keyposes, new_keyposes):
    """(positions, rotations) of the demo's actions warped span by span
    through (t, Pose) keypose lists that already passed the warp's checks."""
    src = demo.actions
    positions, rotations = np.empty_like(src.positions), np.empty_like(src.rotations)
    for (t0, old_0), (t1, old_1), (_, new_0), (_, new_1) in zip(
        old_keyposes, old_keyposes[1:], new_keyposes, new_keyposes[1:]
    ):
        span = slice(t0, t1 + 1)
        tf = compute_warp_oracle(old_0, old_1, new_0, new_1)
        rotated = np.matmul(src.positions[span][:, None, :], tf.rotation.m.T)[:, 0]
        positions[span] = tf.scale * rotated + tf.translation
        start, end = WarpRotation(new_0.rotation.as_matrix()), WarpRotation(new_1.rotation.as_matrix())
        seg_rots = src.rotations[span]
        n = len(seg_rots)
        delta_0 = start @ WarpRotation(seg_rots[0]).inverse()
        delta_t = end @ WarpRotation(seg_rots[-1]).inverse()
        rotvec = (delta_0.inverse() @ delta_t).rotvec()
        partial = np.stack([WarpRotation.from_rotvec(u * rotvec).m for u in np.arange(n) / (n - 1)])
        rotations[span] = np.matmul(np.matmul(delta_0.m, partial), seg_rots)
        positions[[t0, t1]] = new_0.position, new_1.position
        rotations[[t0, t1]] = start.m, end.m
    return positions, rotations


def wilson_interval(successes, total, z=1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * np.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def simulate_thompson_total(prob_sets, counts, T, eval_seed):
    """Loop-based Thompson simulation: mean successes over the sampled truths.

    Consumes randomness in the same order as the package (one (k, n) uniform
    block then one k-vector per step) but runs the bookkeeping with explicit
    Python loops and per-row posterior inversion.
    """
    from scipy.special import betaincinv

    prob_sets = np.asarray(prob_sets, dtype=float)
    k, n = prob_sets.shape
    rng = np.random.default_rng(eval_seed)
    suc = [[float(c[0]) for c in counts] for _ in range(k)]
    fail = [[float(c[1]) for c in counts] for _ in range(k)]
    totals = [0.0] * k
    for _ in range(max(T, 0)):
        u_theta = rng.random((k, n))
        u_out = rng.random(k)
        for row in range(k):
            a = np.array(suc[row]) + 1.0
            b = np.array(fail[row]) + 1.0
            theta = betaincinv(a, b, u_theta[row])
            best = 0
            for i in range(1, n):
                if theta[i] > theta[best]:
                    best = i
            if u_out[row] < prob_sets[row][best]:
                suc[row][best] += 1.0
                totals[row] += 1.0
            else:
                fail[row][best] += 1.0
    return sum(totals) / k


def simulate_thompson_passes(prob_sets, counts, T, eval_seed):
    """The vectorised simulator that inverts every posterior draw with
    betaincinv: (mean total after T-1 pulls, mean total after T pulls),
    consuming randomness in the package's order."""
    from scipy.special import betaincinv

    prob_sets = np.asarray(prob_sets, dtype=float)
    k, n = prob_sets.shape
    if T <= 0:
        return 0.0, 0.0
    rng = np.random.default_rng(eval_seed)
    a, b = (np.tile(c, (k, 1)) for c in np.asarray(counts, dtype=float).reshape(n, 2).T + 1.0)
    total = np.zeros(k)
    rows = np.arange(k)
    before_last = 0.0
    for step in range(T):
        if step == T - 1:
            before_last = float(np.mean(total))
        choice = np.argmax(betaincinv(a, b, rng.random((k, n))), axis=1)
        won = rng.random(k) < prob_sets[rows, choice]
        a[rows, choice] += won
        b[rows, choice] += ~won
        total += won
    return before_last, float(np.mean(total))


def decide_oracle(prob_sets, counts, p_new, T, p_add, eval_seed):
    """Brute-force version of the add-a-new-arm decision."""
    e_stay = simulate_thompson_total(prob_sets, counts, T, eval_seed)
    e_keep = simulate_thompson_total(prob_sets, counts, T - 1, eval_seed)
    augmented = np.column_stack([prob_sets, p_new])
    e_with_new = simulate_thompson_total(augmented, list(counts) + [(1, 0)], T - 1, eval_seed)
    e_add = p_add * (1.0 + e_with_new) + (1.0 - p_add) * e_keep
    return e_add > e_stay, e_stay, e_add


def select_reattach_oracle(traj, current_pose, current_gripper, t_now, a_il, scale, tau):
    """The reattach scan as first shipped: attach rows over the whole rest of
    the trajectory, then the recorded action gathered for each candidate.

    ``traj`` needs ``positions``, ``rotations``, ``gripper`` and ``len``;
    ``current_pose`` a ``position`` and ``rotation.as_matrix()``; ``a_il`` and
    ``scale`` are (7,) vectors.
    """
    start = t_now + 1
    if start >= len(traj):
        return None
    p, r, g = traj.positions, traj.rotations, traj.gripper
    att = reattach_row_deltas(
        current_pose.position, current_pose.rotation.as_matrix(), float(current_gripper), p[start:], r[start:], g[start:]
    ) / scale
    if not np.all(np.isfinite(att)):
        raise ValueError("normalized action must be finite")
    att_sims = reattach_similarities(att, a_il)
    cand = start + np.flatnonzero(att_sims > tau)
    if not cand.size:
        return None
    # recorded action at each candidate; the last point repeats the final step
    lo = np.minimum(cand, len(traj) - 2)
    rec = reattach_row_deltas(p[lo], r[lo], g[lo], p[lo + 1], r[lo + 1], g[lo + 1]) / scale
    feasible = cand[reattach_similarities(rec, a_il) > tau]
    if not feasible.size:
        return None
    return int(feasible[np.argmax(att_sims[feasible - start])])  # first max: earliest tie


def reattach_row_deltas(from_pos, from_rot, from_grip, to_pos, to_rot, to_grip):
    """Raw 7-vector actions row by row: position, relative rotation vector, gripper."""
    from scipy.spatial.transform import Rotation

    rel = np.matmul(np.swapaxes(from_rot, -1, -2), to_rot)
    rotvecs = Rotation.from_matrix(rel).as_rotvec().reshape(-1, 3)
    return np.column_stack([to_pos - from_pos, rotvecs, to_grip - from_grip])


def reattach_similarities(vectors, single):
    """Magnitude-aware cosine of each row against one vector."""
    nb1 = float(np.abs(single).sum())
    na1 = np.abs(vectors).sum(axis=1)
    if nb1 == 0.0:
        return np.where(na1 == 0.0, 1.0, 0.0)
    out = np.zeros(len(vectors))
    live = na1 > 0.0
    if np.any(live):
        v = vectors[live]
        n1 = na1[live]
        magnitude = 2.0 * np.minimum(n1, nb1) / (n1 + nb1)
        cosine = (v @ single) / (np.linalg.norm(v, axis=1) * float(np.linalg.norm(single)))
        out[live] = magnitude * np.clip(cosine, -1.0, 1.0)
    return out


class TrajectoryExhausted(RuntimeError):
    """Feedforward cursor ran off the end of the trajectory."""


def ensemble_step_oracle(state, feedback_action, current_pose, current_gripper):
    """The switching machine as it stood before its mode flips were written
    once: each branch sets mode, cooldown and streak itself, and the end of
    the trajectory is found by raising and catching TrajectoryExhausted."""
    from demoforge.ensemble import (
        COOLDOWN,
        STREAK_WINDOW,
        TAU_REATTACH,
        TAU_SWITCH,
        action_delta,
        select_reattach,
        similarity,
    )

    def normalized(goal):
        vector = action_delta(current_pose, current_gripper, goal.pose, goal.gripper) / state.scale
        if not np.all(np.isfinite(vector)):
            raise ValueError("normalized action must be finite")
        return vector

    def trajectory_action(traj, cursor):
        if cursor >= len(traj):
            raise TrajectoryExhausted(f"cursor {cursor} past trajectory end {len(traj) - 1}")
        return traj.action(cursor)

    traj = state.ff_trajectory
    if state.cooldown_remaining > 0:
        state.cooldown_remaining -= 1
    switched = False
    sim = None

    if state.mode == "feedforward":
        try:
            executed = trajectory_action(traj, state.ff_cursor)
        except TrajectoryExhausted:
            executed = feedback_action
            if state.cooldown_remaining == 0:
                state.mode = "feedback"
                state.cooldown_remaining = COOLDOWN
                state.disagreement_streak = 0
                switched = True
        else:
            sim = similarity(normalized(executed), normalized(feedback_action))
            if sim < TAU_SWITCH:
                state.disagreement_streak += 1
            else:
                state.disagreement_streak = 0
            state.ff_cursor += 1
            if state.disagreement_streak >= STREAK_WINDOW and state.cooldown_remaining == 0:
                state.mode = "feedback"
                state.cooldown_remaining = COOLDOWN
                state.disagreement_streak = 0
                switched = True
    else:
        executed = feedback_action
        if state.cooldown_remaining == 0:
            t_star = select_reattach(state, current_pose, current_gripper, normalized(feedback_action), TAU_REATTACH)
            if t_star is not None:
                state.mode = "feedforward"
                state.ff_cursor = t_star
                state.cooldown_remaining = COOLDOWN
                switched = True

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


def beta_loglik(alpha, beta, samples):
    from scipy.special import betaln

    s = np.asarray(samples, dtype=float)
    return float(np.sum((alpha - 1) * np.log(s) + (beta - 1) * np.log1p(-s)) - len(s) * betaln(alpha, beta))


def beta_mle_grid(samples, lo=-4.0, hi=6.0, steps=241):
    """Exhaustive log-spaced grid search for the Beta MLE, refined twice."""
    best = (-np.inf, 1.0, 1.0)
    grid = np.logspace(lo, hi, steps, base=np.e)
    for a in grid:
        for b in grid:
            ll = beta_loglik(a, b, samples)
            if ll > best[0]:
                best = (ll, a, b)
    # two local refinements around the best cell
    _, a0, b0 = best
    for _ in range(2):
        fa = np.exp(np.linspace(-0.06, 0.06, 25))
        for a in a0 * fa:
            for b in b0 * fa:
                ll = beta_loglik(a, b, samples)
                if ll > best[0]:
                    best = (ll, a, b)
        _, a0, b0 = best
    return best[1], best[2], best[0]


# -- demonstrations ----------------------------------------------------------
# The world's own step, reset and controller drive these; what they check is
# the recording: one observation object per env step, taken before the step.


def observation_oracle(state):
    """Per-step observation as first shipped: regions first, then movable objects."""
    from demoforge.demos import ObjectObservation, Observation

    entities = [ObjectObservation(rid, r.pose, r.color) for rid, r in state.goal_regions.items()]
    entities += [ObjectObservation(name, pose, None) for name, pose in state.objects.items()]
    return Observation(state.robot_pose, state.gripper, entities)


def record_demo_steps_oracle(spec, seed, max_steps=3000):
    """(observation, action) pairs of the scripted controller from a fresh reset."""
    from demoforge import simworld as sw

    state, _ = sw.reset(spec, seed)
    steps = []
    for _ in range(max_steps):
        act = sw.scripted_action(state)
        if act is None:
            break
        steps.append((observation_oracle(state), act))
        sw.step(state, act)
    return steps


def rollout_steps_oracle(state, traj, disturbances=None):
    """(observation, action) pairs of every env step a rollout of ``traj`` takes."""
    from demoforge import simworld as sw
    from demoforge.demos import Action

    state = copy.deepcopy(state)
    by_point = {}
    for idx, obj, delta in disturbances or []:
        by_point.setdefault(idx, []).append((obj, delta))
    steps = []
    for i in range(len(traj)):
        for obj, delta in by_point.get(i, []):
            sw.inject_disturbance(state, obj, delta)
        action = Action(traj.pose(i), float(traj.gripper[i]))
        steps.append((observation_oracle(state), action))
        sw.step(state, action)
        extra = 0
        while extra < sw.CONVERGENCE_CAP and not sw._converged(state.robot_pose, action.pose):
            steps.append((observation_oracle(state), action))
            sw.step(state, action)
            extra += 1
    return steps


# -- grasp -------------------------------------------------------------------
# The world's grasp maths as first shipped, through a unit-scale rigid
# transform's compose, inverse and transform_pose, unrolled into numpy on the
# same 3x3 matrices and in the same order of operations.


def grasp_offset_oracle(ee_position, ee_rotation, obj_position, obj_rotation):
    """(position, rotation matrix) of a grasped object in the gripper frame:
    ee.inverse().compose(obj)."""
    inv = ee_rotation.T
    inv_translation = -(ee_position @ inv.T) / 1.0
    return 1.0 * (obj_position @ inv.T) + inv_translation, inv @ obj_rotation


def held_pose_oracle(ee_position, ee_rotation, offset_position, offset_rotation):
    """(position, rotation matrix) of the held object:
    ee.compose(offset).transform_pose(Pose(origin))."""
    rotation = ee_rotation @ offset_rotation
    translation = 1.0 * (offset_position @ ee_rotation.T) + ee_position
    return 1.0 * (np.zeros(3) @ rotation.T) + translation, rotation @ np.eye(3)


def demo_from_steps(steps, task="pick_place", **meta):
    """A Demonstration whose columns stack (observation, action) pairs; every
    observation lists the same entities as the first."""
    from demoforge.demos import Demonstration, TrajectorySegment

    def track(poses, grippers):
        return TrajectorySegment(
            np.array([p.position for p in poses]),
            np.array([p.rotation.as_matrix() for p in poses]),
            np.array(grippers, dtype=float),
        )

    obs = [o for o, _ in steps]
    acts = [a for _, a in steps]
    n, m = len(steps), len(obs[0].objects)
    entities = [e.pose for o in obs for e in o.objects]
    return Demonstration(
        task,
        actions=track([a.pose for a in acts], [a.gripper for a in acts]),
        robot=track([o.robot_pose for o in obs], [o.gripper for o in obs]),
        entity_names=tuple(e.name for e in obs[0].objects),
        entity_colors=tuple(e.color for e in obs[0].objects),
        entity_positions=np.array([p.position for p in entities]).reshape(n, m, 3),
        entity_rotations=np.array([p.rotation.as_matrix() for p in entities]).reshape(n, m, 3, 3),
        **meta,
    )


# -- dataset line ------------------------------------------------------------
# The dataset line as it was built before the encoder formatted each distinct
# pose row once: a dict per pose, and json.dumps over the whole document.


def _pose_docs(positions, rotations):
    return [{"p": p, "R": r} for p, r in zip(positions.tolist(), rotations.tolist())]


def demo_to_doc(demo):
    """The JSON document of one demo; json.dumps(doc, separators=(",", ":")) is its dataset line."""
    robot = _pose_docs(demo.robot.positions, demo.robot.rotations)
    act = _pose_docs(demo.actions.positions, demo.actions.rotations)
    entity_poses = _pose_docs(demo.entity_positions.reshape(-1, 3), demo.entity_rotations.reshape(-1, 3, 3))
    entities = list(enumerate(zip(demo.entity_names, demo.entity_colors)))
    m = len(entities)
    steps = [
        {
            "obs": {
                "robot": robot[t],
                "gripper": g_obs,
                "objects": [{"name": n, "pose": entity_poses[t * m + j], "color": c} for j, (n, c) in entities],
            },
            "act": {"pose": act[t], "gripper": g_act},
        }
        for t, (g_obs, g_act) in enumerate(zip(demo.robot.gripper.tolist(), demo.actions.gripper.tolist()))
    ]
    meta = {"id": demo.demo_id, "task": demo.task, "seed": demo.seed, "success": demo.success}
    return {**meta, "provenance": demo.provenance, "steps": steps}


def read_dataset_oracle(path):
    """read_dataset with every line through demo_from_doc(json.loads(line)), the path a line takes
    when it is not in the writer's exact form."""
    from demoforge.campaign import SchemaViolation, demo_from_doc

    demos = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode()
                if line.strip():
                    demos.append(demo_from_doc(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as err:
                raise SchemaViolation(line_no, str(err)) from err
    return demos


# -- world step --------------------------------------------------------------
# The env step's maths as it stood before it ran on Python floats: numpy calls
# on single values, and a Rotation wrapper for every inverse and product.


def angle_rad_oracle(matrix):
    """Rotation.angle_rad as first shipped, on a 3x3 matrix."""
    c = np.clip((np.trace(matrix) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.arccos(c))


def step_pose_toward_oracle(current, goal, max_step, max_angular):
    """simworld._step_pose_toward as first shipped."""
    from demoforge.geometry import Pose

    delta = goal.position - current.position
    dist = float(np.linalg.norm(delta))
    new_pos = goal.position if dist <= max_step else current.position + delta * (max_step / dist)
    rel = current.rotation.inverse() @ goal.rotation
    angle = angle_rad_oracle(rel.as_matrix())
    if angle <= max_angular:
        new_rot = goal.rotation
    else:
        new_rot = current.rotation @ rel.power(max_angular / angle)
    return Pose(new_pos, new_rot)


def converged_oracle(current, goal, pos_tol=1e-9, ang_tol=1e-7):
    """simworld._converged as first shipped."""
    return (
        float(np.linalg.norm(current.position - goal.position)) <= pos_tol
        and angle_rad_oracle((current.rotation.inverse() @ goal.rotation).as_matrix()) <= ang_tol
    )


def success_oracle(state):
    """simworld.success as first shipped: one formula per task, each block's
    goal read from the goal region's pose and colour on every call."""
    from demoforge import simworld as sw

    kind, tol = state.spec.kind, sw.POSITION_TOLERANCE
    free = state.attached_object is None and state.gripper >= 0.5
    if kind == "pick_place":
        block = state.objects["block"].position
        return free and float(np.linalg.norm(block - state.goal_regions["target_region"].pose.position)) <= tol
    if kind in ("stack", "stack_flipped", "stack_walking"):
        order = state.goal_regions["goal_region"].color.split(",")
        base = state.goal_regions["goal_region"].pose.position
        bottom = state.objects[order[0]].position
        top = state.objects[order[1]].position
        return (
            free
            and float(np.linalg.norm(bottom - base)) <= tol
            and float(np.linalg.norm(top - (base + np.array([0.0, 0.0, sw.BLOCK_SIZE])))) <= tol
        )
    drawer, mug = state.objects["drawer"].position, state.objects["mug"].position
    closed = state.task_metadata["drawer_closed_x"] - drawer[0] <= 0.02
    rel = mug - np.array([drawer[0] + sw.DRAWER_INTERIOR_DX, drawer[1], sw.MUG_HALF])
    inside = abs(rel[0]) < 0.04 and abs(rel[1]) < 0.04
    return bool(inside and closed and free)


def fetch_oracle(state, name, grasp_only=False):
    """simworld._fetch as first shipped: the grasp rotation rebuilt from the
    object's yaw on every call, and both the approach and the grasp pose built."""
    from scipy.spatial.transform import Rotation as SciRotation

    from demoforge import simworld as sw
    from demoforge.demos import GRIPPER_CLOSED, GRIPPER_OPEN
    from demoforge.geometry import Pose, Rotation

    if state.attached_object == name:
        return None if grasp_only else sw._carry_to(state, state.objects[name].position)
    obj = state.objects[name]
    m = obj.rotation.as_matrix()
    yaw = float(np.degrees(np.arctan2(m[1, 0], m[0, 0])))
    turn = SciRotation.from_euler("XYZ", [0.0, 0.0, yaw], degrees=True).as_matrix()
    rot = Rotation(turn) if name != "drawer" else Rotation(np.eye(3))
    above = Pose(np.array([obj.position[0], obj.position[1], obj.position[2] + sw.APPROACH_HEIGHT]), rot)
    grasp = Pose(obj.position.copy(), rot)
    d_xy = float(np.linalg.norm(state.robot_pose.position[:2] - obj.position[:2]))
    d = float(np.linalg.norm(state.robot_pose.position - obj.position))
    if d <= 0.008:
        return grasp, GRIPPER_CLOSED
    if d_xy <= 0.003 and state.robot_pose.position[2] <= obj.position[2] + sw.APPROACH_HEIGHT + 1e-6:
        return grasp, GRIPPER_OPEN
    return above, GRIPPER_OPEN


def place_goal_oracle(state):
    """simworld._place_goal as first shipped: each block's distance to its slot,
    the carry target and (through fetch_oracle) the hover pose rebuilt on every call."""
    from demoforge import simworld as sw

    if state.attached_object is not None:
        return sw._carry_to(state, state.slots[state.attached_object] + np.array([0.0, 0.0, 0.001]))
    for name, slot in state.slots.items():
        if not float(np.linalg.norm(state.objects[name].position - slot)) <= sw.POSITION_TOLERANCE / 2.0:
            return fetch_oracle(state, name)
    return sw._home_or_done(state)


# -- LLM replies -------------------------------------------------------------


def replies(script):
    """A ``MockGateway`` responder that answers each completion with the next
    entry of ``script``. An entry that is an exception is raised instead, the
    way a dead transport raises ``GatewayError``; past the end of the script
    the transport is dead."""
    from demoforge.gateway import GatewayError

    queue = list(script)

    def responder(prompt):
        if not queue:
            raise GatewayError("no scripted reply left", kind="exhausted")
        item = queue.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    return responder


# -- LLM queries -------------------------------------------------------------
# annotate, create_annotation and retarget as they stood before every LLM call
# went through one query function: each stage keeps its own copy of the
# fresh-session, complete, parse, restart loop, and retarget renders its
# prompt from a request that holds copies of the keyposes.

_INT_TOKEN_ORACLE = re.compile(r"-?\d+")


def _strip_code_fences_oracle(text):
    m = re.search(r"```(?:json)?\s*(.*?)```", text, flags=re.DOTALL)
    return m.group(1) if m else text


def _keypose_from_json_oracle(doc):
    from demoforge.annotation import Keypose

    return Keypose(
        t=int(doc["t"]),
        pos_mm=doc["pos_mm"],
        euler_deg=doc["euler_deg"],
        gripper=float(doc["gripper"]),
        objects=list(doc.get("objects", [])),
        note=str(doc.get("note", "")),
    )


def select_viewframes_oracle(gateway, summary, horizon, task):
    from demoforge.annotation import VIEWFRAME_CAP, render_prompt
    from demoforge.gateway import MalformedResponse

    prompt = render_prompt("viewframes", task=task.text, rows=summary, horizon=horizon, cap=VIEWFRAME_CAP)
    text = gateway.fresh_session().complete(prompt, temperature=0.2)
    tokens = [int(tok) for tok in _INT_TOKEN_ORACLE.findall(text)]
    if not tokens:
        raise MalformedResponse(f"no timesteps in response: {text!r}")
    seen = []
    for t in tokens:
        if t < 0 or t > horizon:
            raise MalformedResponse(f"timestep {t} outside [0, {horizon}]")
        if t not in seen:
            seen.append(t)
    return sorted(seen[:VIEWFRAME_CAP])


def parse_annotation_response_oracle(text, demo):
    from demoforge.gateway import MalformedResponse

    try:
        doc = json.loads(_strip_code_fences_oracle(text))
    except json.JSONDecodeError as err:
        raise MalformedResponse(f"response is not JSON: {err}") from None
    if not isinstance(doc, dict) or "keyposes" not in doc:
        raise MalformedResponse("response missing 'keyposes'")
    description = str(doc.get("description", ""))
    keyposes = []
    for item in doc["keyposes"]:
        try:
            kp = _keypose_from_json_oracle(item)
        except (KeyError, TypeError, ValueError) as err:
            raise MalformedResponse(f"bad keypose entry {item!r}: {err}") from None
        if kp.t > demo.horizon:
            raise MalformedResponse(f"keypose timestep {kp.t} outside demo range")
        keyposes.append(kp)
    if not keyposes:
        raise MalformedResponse("empty keypose list")
    return description, keyposes


def annotate_oracle(gateway, demo, frames, task, summary=None, max_retries=3):
    from demoforge.annotation import Annotation, AnnotationFailed, render_prompt, repair_annotation
    from demoforge.gateway import MalformedResponse

    if any(t < 0 or t > demo.horizon for t in frames):
        raise ValueError("frames outside demo range")
    summary = summary if summary is not None else summarize_demo_oracle(demo)
    prompt = render_prompt(
        "annotate",
        task=task.text,
        rows=summary,
        frames=", ".join(str(t) for t in frames),
        horizon=demo.horizon,
    )
    last_error = None
    for _ in range(max_retries):
        text = gateway.fresh_session().complete(prompt, temperature=0.7)
        try:
            description, keyposes = parse_annotation_response_oracle(text, demo)
        except MalformedResponse as err:
            last_error = err
            continue
        raw = Annotation(
            id=f"ann-{uuid.uuid4().hex[:12]}",
            keyposes=keyposes,
            description_text=description,
            source_demo_id=demo.demo_id,
            created_by="llm()",
        )
        return repair_annotation(raw, demo)
    raise AnnotationFailed(f"no usable annotation after {max_retries} attempts: {last_error}")


def create_annotation_oracle(gateway, demo, task, max_retries=3):
    from demoforge.annotation import AnnotationFailed
    from demoforge.gateway import MalformedResponse

    summary = summarize_demo_oracle(demo)
    last_error = None
    for _ in range(max_retries):
        try:
            frames = select_viewframes_oracle(gateway, summary, demo.horizon, task)
            break
        except MalformedResponse as err:
            last_error = err
    else:
        raise AnnotationFailed(f"viewframe selection failed {max_retries} times: {last_error}")
    return annotate_oracle(gateway, demo, frames, task, summary=summary, max_retries=max_retries)


def parse_retarget_response_oracle(text, original):
    from demoforge.annotation import Keypose
    from demoforge.gateway import MalformedResponse

    try:
        doc = json.loads(_strip_code_fences_oracle(text))
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
        if t != orig.t:
            raise MalformedResponse(f"timestep drift: got {t}, want {orig.t}")
        if not (np.all(np.isfinite(pos_mm)) and np.all(np.isfinite(euler_deg))):
            raise MalformedResponse(f"non-finite pose in {item!r}")
        out.append(
            Keypose(
                t=orig.t,
                pos_mm=pos_mm,
                euler_deg=euler_deg,
                gripper=orig.gripper,
                objects=list(orig.objects),
                note=orig.note,
            )
        )
    return out


def retarget_oracle(gateway, annotation, task, scene, max_retries=3):
    from demoforge.annotation import render_prompt
    from demoforge.gateway import MalformedResponse
    from demoforge.retargeting import RetargetFailed

    prompt = render_prompt(
        "retarget",
        task=task.text,
        description=annotation.description_text,
        keyposes="\n".join(json.dumps(asdict(k)) for k in annotation.keyposes),
        observation=scene.text(),
    )
    last_error = None
    for _ in range(max_retries):
        text = gateway.fresh_session().complete(prompt, temperature=0.2)
        try:
            return parse_retarget_response_oracle(text, annotation.keyposes)
        except MalformedResponse as err:
            last_error = err
    raise RetargetFailed(f"no usable retarget after {max_retries} attempts: {last_error}")


# -- Demo summary ------------------------------------------------------------
# Demonstration.summary and pose_text as they stood before the summary
# converted all of its sampled rotations in one scipy call: one Observation
# per sampled timestep and one Euler conversion and format per pose.


def _pose_text_oracle(pose, home=None):
    rot = pose.rotation if home is None else home.inverse() @ pose.rotation
    mm = np.round(pose.position * 1000.0, 3) + 0.0
    e = np.round(rot.euler_deg(), 2) + 0.0
    return (
        f"position_mm [{mm[0]:.3f}, {mm[1]:.3f}, {mm[2]:.3f}] "
        f"rotation_deg [{e[0]:.2f}, {e[1]:.2f}, {e[2]:.2f}]"
    )


def summarize_demo_oracle(demo, cadence=5, jitter=2, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    horizon = demo.horizon
    lo, hi = max(1, cadence - jitter), cadence + jitter
    timesteps = [0]
    while timesteps[-1] < horizon:
        rem = horizon - timesteps[-1]
        allowed = [g for g in range(lo, min(hi, rem) + 1) if rem - g == 0 or rem - g >= lo]
        gap = int(rng.choice(allowed)) if allowed else min(rem, hi)
        timesteps.append(timesteps[-1] + gap)

    home = demo.observation(0).robot_pose.rotation
    lines = []
    for t in timesteps:
        obs = demo.observation(t)
        robot = f"{_pose_text_oracle(obs.robot_pose, home=home)} gripper {'open' if obs.gripper >= 0.5 else 'closed'}"
        objs = {o.name: _pose_text_oracle(o.pose) for o in obs.objects}
        lines.append(f"t={t}: robot {robot}")
        lines += [f"       {name} {text}" for name, text in objs.items()]
    return "\n".join(lines)


# -- Scripted annotator ------------------------------------------------------
# scripted_annotate as it stood before it read the demo's columns: one
# Observation per keypose timestep, the held set and the nearest entity
# found by walking its objects.


def _held_candidates_oracle(obs):
    return {
        o.name
        for o in obs.objects
        if o.color is None and float(np.linalg.norm(o.pose.position - obs.robot_pose.position)) < 0.015
    }


def _nearest_object_oracle(obs, exclude):
    # strict < keeps the first of equally distant entities
    best, best_d = None, np.inf
    for o in obs.objects:
        if o.name in exclude:
            continue
        d = float(np.linalg.norm(o.pose.position - obs.robot_pose.position))
        if d < best_d:
            best, best_d = o, d
    return best


def scripted_annotate_oracle(demo, task_kind):
    from demoforge.annotation import Annotation, Keypose, repair_annotation

    override_for = {"drawer_mug": "drawer"}
    timesteps = sorted(set([0, demo.horizon] + demo.gripper_transition_timesteps()))
    keyposes = []
    for t in timesteps:
        obs = demo.observation(t)
        action = demo.action(t)
        releasing = t > 0 and action.gripper >= 0.5 and demo.action(t - 1).gripper < 0.5
        override = override_for.get(task_kind) if releasing else None
        if override is not None:
            anchor = next((o for o in obs.objects if o.name == override), None)
        else:
            held = _held_candidates_oracle(obs) if releasing else set()
            anchor = _nearest_object_oracle(obs, exclude=held)
        objects, note = [], ""
        if anchor is not None:
            offset_mm = (action.pose.position - anchor.pose.position) * 1000.0
            objects = [anchor.name]
            note = (
                f"end-effector offset from {anchor.name}: "
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
