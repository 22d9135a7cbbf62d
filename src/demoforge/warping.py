"""Endpoint-aligning trajectory warps, on plain arrays.

Given a demonstration segment and new start/end poses, find the similarity
transform p -> scale * R p + t that maps the old chord (start -> end
positions) onto the new one exactly, using the leftover rotational freedom
about the new chord to keep the warp as upright as possible (maximize
z^T R z). Orientations are not pushed through that transform; they are re-aimed
separately by interpolating the delta rotation between the segment endpoints.

Uniform scale = |new chord| / |old chord| makes both endpoint constraints
exactly satisfiable; it reduces to a rigid transform when the chords have
equal length.
"""
from __future__ import annotations

import numpy as np

from .demos import Demonstration, TrajectorySegment
from .geometry import Pose, matrix_rotvecs, rotvec_matrices

EPS_CHORD = 1e-6  # meters; chords shorter than this have no usable direction

_Z = np.array([0.0, 0.0, 1.0])


class DegenerateChord(ValueError):
    """Old chord collapsed to a point while the new one did not."""


class KeyposeMismatch(ValueError):
    """Old/new keypose lists disagree in length, order, or timesteps."""


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def _minimal_rotation_between(u_from: np.ndarray, u_to: np.ndarray) -> np.ndarray:
    """Smallest-angle rotation matrix taking unit vector u_from onto u_to."""
    cross = np.cross(u_from, u_to)
    s = np.linalg.norm(cross)
    d = float(u_from @ u_to)
    if s < 1e-12:
        if d > 0.0:
            return np.eye(3)
        # antiparallel: half-turn about a deterministic orthogonal axis
        axis = np.cross(u_from, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-6:
            axis = np.cross(u_from, [0.0, 1.0, 0.0])
        axis = axis / np.linalg.norm(axis)
        return rotvec_matrices(np.pi * axis)
    return rotvec_matrices(np.arctan2(s, d) * (cross / s))


def _z_optimal_chord_rotation(u_old: np.ndarray, u_new: np.ndarray) -> np.ndarray:
    """The rotation matrix mapping u_old -> u_new that maximizes z^T R z.

    Every solution has the form Rot(u_new, phi) @ R_align. The objective is
    a*cos(phi) + b*sin(phi) + const, maximized in closed form at
    phi = atan2(b, a). When the objective is flat (new chord parallel to z),
    the tie-break picks the phi minimizing the total rotation angle of R.
    """
    r_align = _minimal_rotation_between(u_old, u_new)
    n = u_new
    w = _Z @ r_align.T
    a = float(w[2] - n[2] * (n @ w))
    b = float(np.cross(n, w)[2])  # z . (n x w)
    if np.hypot(a, b) > 1e-12:
        phi = np.arctan2(b, a)
    else:
        # flat objective: minimize rotation angle <=> maximize trace
        a2 = float(np.trace(r_align) - n @ r_align @ n)
        b2 = float(np.trace(_skew(n) @ r_align))
        phi = np.arctan2(b2, a2) if np.hypot(a2, b2) > 1e-12 else 0.0
    return rotvec_matrices(phi * n) @ r_align


def compute_warp(
    old_start: np.ndarray, old_end: np.ndarray, new_start: np.ndarray, new_end: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """(rotation (3, 3), translation (3,), scale) of the similarity transform
    p -> scale * rotation p + translation mapping the old start/end positions
    onto the new ones.

    Both endpoint constraints hold by construction. Among all solutions the
    rotation maximizes z^T R z. Raises DegenerateChord when the old chord is
    a point but the new one is not (no consistent direction to stretch).
    """
    c_old = old_end - old_start
    c_new = new_end - new_start
    len_old = float(np.linalg.norm(c_old))
    len_new = float(np.linalg.norm(c_new))

    if len_old <= EPS_CHORD:
        if len_new > EPS_CHORD:
            raise DegenerateChord(
                f"old chord {len_old:.2e} m is a point but new chord is {len_new:.2e} m"
            )
        # both chords collapse: only the start constraint is informative
        return np.eye(3), new_start - old_start, 1.0

    if len_new == 0.0:
        # target collapses to a point: scale floored to stay positive, end
        # constraint still met far within tolerance
        rotation, scale = np.eye(3), 1e-12
    else:
        rotation = _z_optimal_chord_rotation(c_old / len_old, c_new / len_new)
        scale = len_new / len_old
    return rotation, new_start - scale * (old_start @ rotation.T), scale


def warp_positions(positions: np.ndarray, rotation: np.ndarray, translation: np.ndarray, scale: float) -> np.ndarray:
    """scale * rotation p + translation for every row p of (n, 3) positions."""
    # one vector-matrix product per row: the bits of warping each point on its own
    return scale * np.matmul(positions[:, None, :], rotation.T)[:, 0] + translation


def warp_rotations(rotations: np.ndarray, start_rot: np.ndarray, end_rot: np.ndarray) -> np.ndarray:
    """Re-aim (n, 3, 3) rotations so they end at the requested orientations.

    delta_0 = start_rot @ R_0^-1 and delta_T = end_rot @ R_T^-1 are the
    corrections needed at the endpoints; in between, the correction is
    slerped with parameter t / T_seg and left-applied to the demo rotation.
    """
    n = len(rotations)
    delta_0 = start_rot @ rotations[0].T
    delta_t = end_rot @ rotations[-1].T
    rotvec = matrix_rotvecs(delta_0.T @ delta_t)
    partial = rotvec_matrices((np.arange(n) / (n - 1))[:, None] * rotvec)
    return np.matmul(np.matmul(delta_0, partial), rotations)


def _validate_keyposes(
    demo: Demonstration,
    old_keyposes: list[tuple[int, Pose]],
    new_keyposes: list[tuple[int, Pose]],
) -> list[int]:
    if len(old_keyposes) != len(new_keyposes):
        raise KeyposeMismatch(f"{len(old_keyposes)} old vs {len(new_keyposes)} new keyposes")
    if len(old_keyposes) < 2:
        raise KeyposeMismatch("need at least 2 keyposes (start and end)")
    ts_old = [t for t, _ in old_keyposes]
    ts_new = [t for t, _ in new_keyposes]
    if ts_old != ts_new:
        raise KeyposeMismatch(f"old timesteps {ts_old} != new timesteps {ts_new}")
    if any(b <= a for a, b in zip(ts_old, ts_old[1:])):
        raise KeyposeMismatch(f"timesteps not strictly increasing: {ts_old}")
    if ts_old[0] != 0 or ts_old[-1] != demo.horizon:
        raise KeyposeMismatch(
            f"keyposes must span the demo: got [{ts_old[0]}, {ts_old[-1]}], want [0, {demo.horizon}]"
        )
    return ts_old


def warp_trajectory_by_keyposes(
    demo: Demonstration,
    old_keyposes: list[tuple[int, Pose]],
    new_keyposes: list[tuple[int, Pose]],
) -> TrajectorySegment:
    """Warp a full demo piecewise through a retargeted keypose list.

    Each span between consecutive keyposes is warped independently with its
    own endpoint-aligning transform, then boundary poses are snapped to the
    new keypose values so adjacent spans agree bitwise at shared timesteps.
    """
    timesteps = _validate_keyposes(demo, old_keyposes, new_keyposes)
    src = demo.actions
    out = TrajectorySegment(np.empty_like(src.positions), np.empty_like(src.rotations), src.gripper)
    for i in range(len(timesteps) - 1):
        t0, t1 = timesteps[i], timesteps[i + 1]
        new_0, new_1 = new_keyposes[i][1], new_keyposes[i + 1][1]
        rot_0, rot_1 = new_0.rotation.as_matrix(), new_1.rotation.as_matrix()
        span = slice(t0, t1 + 1)
        tf = compute_warp(old_keyposes[i][1].position, old_keyposes[i + 1][1].position, new_0.position, new_1.position)
        out.positions[span] = warp_positions(src.positions[span], *tf)
        out.rotations[span] = warp_rotations(src.rotations[span], rot_0, rot_1)
        # snap boundaries to the exact keypose values for bitwise continuity
        out.positions[[t0, t1]] = new_0.position, new_1.position
        out.rotations[[t0, t1]] = rot_0, rot_1
    return out
