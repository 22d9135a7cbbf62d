"""Rigid-body poses and rotations.

Poses hold meters and rotation matrices. A pose becomes millimeters and
degrees, for text a person or an LLM reads, only in the Euler-degree helpers
and ``pose_text``/``pose_rows_text`` here, and in ``Keypose.from_pose`` and
``Keypose.pose`` in ``annotation``.

Euler angles use the intrinsic X-Y-Z (roll-pitch-yaw) convention,
in degrees, at every serialization boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial.transform import _rotation_cy as _backend  # scipy's Rotation minus its dispatch; pinned in pyproject

EULER_SEQ = "XYZ"  # intrinsic X-Y-Z

_ORTHO_TOL = 1e-9
_TRUSTED_GRAM_TOL = 1e-13  # a tenth of scipy's 1e-12: no rounding gap between two gramians straddles both


def trusted_rotation(matrix: np.ndarray) -> bool:
    """True when a 3x3 matrix, or every matrix of an (n, 3, 3) stack, has max|M M^T - I| <= _TRUSTED_GRAM_TOL
    and det > 0: a proper rotation scipy's from_matrix takes as it is."""
    tol = _TRUSTED_GRAM_TOL
    if matrix.ndim == 2:  # on Python floats; with the gramian this near I, det is +/-1, so its sign is enough
        (a, b, c), (d, e, f), (g, h, i) = matrix.tolist()
        return (
            abs(a * a + b * b + c * c - 1.0) <= tol
            and abs(d * d + e * e + f * f - 1.0) <= tol
            and abs(g * g + h * h + i * i - 1.0) <= tol
            and abs(a * d + b * e + c * f) <= tol
            and abs(a * g + b * h + c * i) <= tol
            and abs(d * g + e * h + f * i) <= tol
            and a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) > 0.0
        )
    gram = np.matmul(matrix, np.swapaxes(matrix, -1, -2))
    return bool(np.all(np.abs(gram - np.eye(3)) <= tol) and np.all(np.linalg.det(matrix) > 0.0))


def matrix_quats(matrix: np.ndarray) -> np.ndarray:
    """Quaternion (4,) of a 3x3 matrix or (n, 4) of an (n, 3, 3) stack; the package's one call of scipy's from_matrix.

    scipy raises on det <= 0 and SVD-projects any matrix whose gramian is not within 1e-12 of I. Every
    trusted_rotation matrix passes that check unprojected, so scipy skips it at no change in bits; any
    other finite matrix takes scipy's checked path.
    """
    trusted = trusted_rotation(matrix)
    if not trusted and not np.isfinite(matrix).all():  # scipy's SVD never returns on some +inf entries
        raise ValueError("rotation matrix has non-finite entries")
    return _backend.from_matrix(np.asarray(matrix, dtype=float), assume_valid=trusted)


def _rows(convert, quats: np.ndarray, *args, **kwargs) -> np.ndarray:
    """Backend convert of an (n, 4) stack; a (4,) quaternion goes in as a (1, 4) row and out as row 0, as in scipy."""
    return convert(quats[None], *args, **kwargs)[0] if quats.ndim == 1 else convert(quats, *args, **kwargs)


def matrix_rotvecs(matrix: np.ndarray) -> np.ndarray:
    """Rotation vector (3,) of a 3x3 matrix, or the (n, 3) stack of an (n, 3, 3) stack, in one scipy call."""
    return _rows(_backend.as_rotvec, matrix_quats(matrix))


def euler_degrees(matrix: np.ndarray) -> np.ndarray:
    """Intrinsic X-Y-Z Euler angles in degrees of a 3x3 matrix or an (n, 3, 3) stack, in one scipy call. At gimbal
    lock (pitch +/-90 deg), where the triple is not unique, it gives the one with a zero third angle and no warning."""
    return _rows(_backend.as_euler, matrix_quats(matrix), EULER_SEQ, degrees=True, suppress_warnings=True)


def rotvec_matrices(rotvec: np.ndarray) -> np.ndarray:
    """Rotation matrix of a rotation vector (3,), or the (n, 3, 3) stack of an (n, 3) stack, in one scipy call."""
    return _rows(_backend.as_matrix, _backend.from_rotvec(np.asarray(rotvec, dtype=float)))


def check_rotation_matrices(matrices: np.ndarray) -> None:
    """Raise ValueError unless every matrix of an (n, 3, 3) stack is a proper rotation: det within _ORTHO_TOL
    of 1 and every entry of M M^T within _ORTHO_TOL of I's."""
    if matrices.ndim != 3 or matrices.shape[1:] != (3, 3):
        raise ValueError(f"rotation matrices must stack as (n, 3, 3), got {matrices.shape}")
    if np.any(np.abs(np.linalg.det(matrices) - 1.0) > _ORTHO_TOL):
        raise ValueError("matrix determinant is not +1")
    if not np.all(np.abs(np.matmul(matrices, matrices.transpose(0, 2, 1)) - np.eye(3)) <= _ORTHO_TOL):
        raise ValueError("matrix is not orthonormal")


def matrix_angle(m: np.ndarray) -> float:
    """Total rotation angle in [0, pi] of a 3x3 rotation matrix."""
    # np.trace's left-to-right sum and np.clip (NaN stays NaN) on Python floats; not math.acos: its bits differ
    c = ((m.item(0) + m.item(4)) + m.item(8) - 1.0) / 2.0
    return float(np.arccos(min(max(c, -1.0), 1.0)))


class Rotation:
    """A proper rotation in SO(3), stored as a 3x3 matrix that is never written.

    Construct via the classmethods; the raw constructor trusts its input.
    """

    __slots__ = ("_m", "_own_angle")

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
        self._m = m
        self._own_angle = None  # angle_to(self), worked out on first use

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    @classmethod
    def from_euler_deg(cls, roll: float, pitch: float, yaw: float) -> "Rotation":
        """Intrinsic X-Y-Z Euler angles in degrees -> rotation.

        Equals the matrix product Rx(roll) @ Ry(pitch) @ Rz(yaw).
        """
        if not all(map(math.isfinite, (roll, pitch, yaw))):
            raise ValueError("euler angles must be finite")
        angles = np.asarray([roll, pitch, yaw], dtype=float)
        return cls(_rows(_backend.as_matrix, _backend.from_euler(EULER_SEQ, angles, degrees=True)))

    @classmethod
    def about_z_deg(cls, yaw: float) -> "Rotation":
        return cls.from_euler_deg(0.0, 0.0, yaw)

    def euler_deg(self) -> np.ndarray:
        """Intrinsic X-Y-Z Euler angles in degrees, as euler_degrees gives them."""
        return euler_degrees(self._m)

    def as_matrix(self) -> np.ndarray:
        return self._m.copy()

    def rotvec(self) -> np.ndarray:
        return matrix_rotvecs(self._m)

    def inverse(self) -> "Rotation":
        return Rotation(self._m.T)

    def yaw_deg(self) -> float:
        """Heading about z in degrees: the angle of the rotated x axis in the xy-plane."""
        return float(np.degrees(np.arctan2(self._m[1, 0], self._m[0, 0])))

    def __matmul__(self, other: "Rotation") -> "Rotation":
        if not isinstance(other, Rotation):
            return NotImplemented
        return Rotation(self._m @ other._m)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Rotate a 3-vector (or array of 3-vectors, last axis 3)."""
        return np.asarray(v, dtype=float) @ self._m.T

    def power(self, fraction: float) -> "Rotation":
        """Fractional rotation exp(fraction * log R); power(0) is the exact identity."""
        return Rotation(_rows(_backend.as_matrix, _rows(_backend.pow, matrix_quats(self._m), float(fraction))))

    def angle_to(self, other: "Rotation") -> float:
        """matrix_angle of inverse() @ other; the angle to itself (R^T R's round-off) is worked out once."""
        if other is not self:
            return matrix_angle(self._m.T @ other._m)
        if self._own_angle is None:
            self._own_angle = matrix_angle(self._m.T @ self._m)
        return self._own_angle

    def __repr__(self) -> str:
        e = self.euler_deg()
        return f"Rotation(euler_deg=[{e[0]:.3f}, {e[1]:.3f}, {e[2]:.3f}])"


@dataclass(frozen=True)
class Pose:
    """Position (meters) plus rotation of a rigid body or end-effector.

    A value: the position is read-only and the rotation is never written,
    so holders share a pose instead of copying it.
    """

    position: np.ndarray
    rotation: Rotation = field(default_factory=Rotation.identity)

    def __post_init__(self):
        position = np.array(self.position, dtype=float).reshape(3)
        # math.isfinite over three floats costs a fraction of a numpy ufunc call
        if not all(map(math.isfinite, position.tolist())):
            raise ValueError("pose position must be finite")
        position.setflags(write=False)
        object.__setattr__(self, "position", position)

    @classmethod
    def unchecked(cls, position: np.ndarray, rotation: Rotation) -> "Pose":
        """A pose of a finite (3,) float position that nothing else writes, made read-only: no copy, no check."""
        position.setflags(write=False)
        pose = object.__new__(cls)
        pose.__dict__.update(position=position, rotation=rotation)
        return pose

    @cached_property
    def heading(self) -> Rotation:
        """The rotation about z alone by this pose's yaw, worked out once per pose."""
        return Rotation.about_z_deg(self.rotation.yaw_deg())


def pose_rows_text(positions: np.ndarray, euler_deg: np.ndarray) -> list[str]:
    """pose_text of n poses given as (n, 3) positions in meters and (n, 3) Euler angles in degrees."""
    # round first, then add 0.0 so values like -1e-15 print as 0.000 not -0.000
    mm, e = (np.round(positions * 1000.0, 3) + 0.0).tolist(), (np.round(euler_deg, 2) + 0.0).tolist()
    return [
        f"position_mm [{x:.3f}, {y:.3f}, {z:.3f}] rotation_deg [{r:.2f}, {p:.2f}, {w:.2f}]"
        for (x, y, z), (r, p, w) in zip(mm, e)
    ]


def pose_text(pose: Pose) -> str:
    """Render a pose as millimeters (3 decimals) / Euler degrees (2 decimals).

    This and pose_rows_text are the one formatting of all prompts and human-facing text.
    """
    return pose_rows_text(pose.position[None], pose.rotation.euler_deg()[None])[0]
