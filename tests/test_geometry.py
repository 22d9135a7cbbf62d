import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as SciRotation

from demoforge import geometry
from demoforge.geometry import (
    Pose,
    Rotation,
    check_rotation_matrices,
    euler_degrees,
    matrix_angle,
    matrix_quats,
    matrix_rotvecs,
    pose_text,
    rotvec_matrices,
)
from oracles import angle_rad_oracle

ROOT = Path(__file__).resolve().parent.parent


def _rx(deg):
    a = np.radians(deg)
    return np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])


def _ry(deg):
    a = np.radians(deg)
    return np.array([[np.cos(a), 0, np.sin(a)], [0, 1, 0], [-np.sin(a), 0, np.cos(a)]])


def _rz(deg):
    a = np.radians(deg)
    return np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])


def random_rotation(rng):
    v = rng.normal(size=3)
    return Rotation(rotvec_matrices(v))


class TestRotation:
    def test_euler_matches_explicit_matrix_product(self):
        # oracle: hand-built elementary rotations, intrinsic X-Y-Z = Rx @ Ry @ Rz
        got = Rotation.from_euler_deg(10.0, 20.0, 30.0).as_matrix()
        want = _rx(10.0) @ _ry(20.0) @ _rz(30.0)
        assert np.allclose(got, want, atol=1e-9)

    def test_euler_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            angles = rng.uniform([-179, -85, -179], [179, 85, 179])  # stay off gimbal lock
            r = Rotation.from_euler_deg(*angles)
            back = r.euler_deg()
            assert np.allclose(back, angles, atol=1e-6)

    def test_gimbal_lock_preserves_matrix(self):
        # at pitch = 90 the euler triple is not unique; the canonical triple
        # must still reconstruct the same matrix
        r = Rotation.from_euler_deg(25.0, 90.0, 40.0)
        e = r.euler_deg()
        assert np.allclose(Rotation.from_euler_deg(*e).as_matrix(), r.as_matrix(), atol=1e-9)
        assert e[2] == pytest.approx(0.0, abs=1e-9)

    def test_from_matrix_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            check_rotation_matrices((np.eye(3) * 2.0)[None])
        with pytest.raises(ValueError):
            check_rotation_matrices(np.diag([1.0, 1.0, -1.0])[None])  # det = -1

    def test_inverse_and_compose(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = random_rotation(rng)
            assert np.allclose((r @ r.inverse()).as_matrix(), np.eye(3), atol=1e-12)

    def test_yaw_is_the_heading_of_the_x_axis(self):
        for yaw in np.linspace(-179.0, 179.0, 37):
            assert Rotation.about_z_deg(yaw).yaw_deg() == pytest.approx(yaw, abs=1e-9)
            tilted = Rotation.from_euler_deg(0.0, 0.0, yaw) @ Rotation.from_euler_deg(25.0, 0.0, 0.0)
            assert tilted.yaw_deg() == pytest.approx(yaw, abs=1e-9)

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(3)
        r = random_rotation(rng)
        v = rng.normal(size=3)
        assert np.allclose(r.apply(v), r.as_matrix() @ v, atol=1e-12)
        vs = rng.normal(size=(5, 3))
        assert np.allclose(r.apply(vs), vs @ r.as_matrix().T, atol=1e-12)

    def test_power_zero_is_exact_identity(self):
        r = Rotation.from_euler_deg(33.0, -12.0, 78.0)
        assert np.array_equal(r.power(0.0).as_matrix(), np.eye(3))

    def test_angle_to(self):
        r0 = Rotation.about_z_deg(10.0)
        r1 = Rotation.about_z_deg(55.0)
        assert r0.angle_to(r1) == pytest.approx(np.radians(45.0), abs=1e-12)


class TestAngleMatchesOracle:
    """matrix_angle runs on Python floats; it must return the bits of the numpy
    version it replaced, kept in tests/oracles.py."""

    @staticmethod
    def matrices(rng):
        n = 40_000
        a = SciRotation.random(n, random_state=rng).as_matrix()
        b = SciRotation.random(n, random_state=rng).as_matrix()
        # rotvecs of length 1e-12..1e-3 and pi minus that: traces round to just past 3 and -1
        axis = rng.normal(size=(n, 3))
        tiny = axis * (10.0 ** rng.uniform(-12, -3, n) / np.linalg.norm(axis, axis=1))[:, None]
        half = axis * ((np.pi - 10.0 ** rng.uniform(-12, -3, n)) / np.linalg.norm(axis, axis=1))[:, None]
        products = [
            np.matmul(a.transpose(0, 2, 1), b),
            np.matmul(a.transpose(0, 2, 1), a @ SciRotation.from_rotvec(tiny).as_matrix()),
            np.matmul(a.transpose(0, 2, 1), a @ SciRotation.from_rotvec(half).as_matrix()),
        ]
        up, down = np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)
        made = [np.eye(3), np.diag([up, 1.0, 1.0]), np.diag([up, up, up]), np.diag([-1.0, -1.0, 1.0])]
        made += [np.diag([down, -1.0, 1.0]), np.diag([down, down, 1.0]), np.full((3, 3), np.nan)]
        made += [np.diag([np.inf, 1.0, 1.0]), np.diag([-np.inf, 1.0, 1.0])]
        return [*np.concatenate(products), *made]

    def test_bits_equal_on_products_past_the_clamp_and_nan(self):
        rng = np.random.default_rng(29)
        matrices = self.matrices(rng)
        assert len(matrices) >= 100_000
        past_one = past_minus_one = 0
        for i, m in enumerate(matrices):
            if i % 2:  # the other memory layout of the same values
                m = np.asfortranarray(m)
            with np.errstate(invalid="ignore"):
                want = angle_rad_oracle(m)
                c = (np.trace(m) - 1.0) / 2.0
            past_one += bool(c > 1.0)
            past_minus_one += bool(c < -1.0)
            assert np.float64(matrix_angle(m)).tobytes() == np.float64(want).tobytes(), m
        assert past_one > 100 and past_minus_one > 100
        assert np.isnan(matrix_angle(np.full((3, 3), np.nan)))

    def test_angle_to_bits_equal(self):
        rng = np.random.default_rng(31)
        for m0, m1 in zip(*(SciRotation.random(5000, random_state=rng).as_matrix() for _ in range(2))):
            r0, r1 = Rotation(m0), Rotation(m1)
            assert r0.angle_to(r1) == angle_rad_oracle((r0.inverse() @ r1).as_matrix())
            assert r0.angle_to(r0) == angle_rad_oracle((r0.inverse() @ r0).as_matrix())
            assert r0.angle_to(r0) == angle_rad_oracle((r0.inverse() @ r0).as_matrix())  # the kept angle


def slerp(r0, r1, fraction):
    """Constant-angular-velocity interpolation from r0 (fraction 0) to r1 (1), through Rotation.power."""
    return r0 @ (r0.inverse() @ r1).power(fraction)


def test_slerp_midpoint_about_z():
    # halfway between identity and Rz(90 deg) is Rz(45 deg)
    mid = slerp(Rotation.identity(), Rotation.about_z_deg(90.0), 0.5)
    assert np.allclose(mid.as_matrix(), Rotation.about_z_deg(45.0).as_matrix(), atol=1e-12)


def test_slerp_endpoints_and_constant_speed():
    rng = np.random.default_rng(19)
    for _ in range(50):
        r0, r1 = random_rotation(rng), random_rotation(rng)
        assert np.allclose(slerp(r0, r1, 0.0).as_matrix(), r0.as_matrix(), atol=1e-12)
        assert np.allclose(slerp(r0, r1, 1.0).as_matrix(), r1.as_matrix(), atol=1e-9)
        total = r0.angle_to(r1)
        u = rng.uniform()
        assert r0.angle_to(slerp(r0, r1, u)) == pytest.approx(u * total, abs=1e-7)


def test_pose_text_units_and_relative_rotation():
    pose = Pose(np.array([0.1234567, -0.05, 0.2]), Rotation.about_z_deg(30.0))
    txt = pose_text(pose)
    assert "position_mm [123.457, -50.000, 200.000]" in txt
    assert "rotation_deg [0.00, 0.00, 30.00]" in txt


def test_pose_requires_finite_position():
    with pytest.raises(ValueError):
        Pose(np.array([np.nan, 0.0, 0.0]))


def test_pose_keeps_its_own_copy_of_the_position():
    source = np.array([0.1, 0.2, 0.3])
    pose = Pose(source)
    source[0] = 9.0
    assert pose.position.tolist() == [0.1, 0.2, 0.3]


def test_pose_is_immutable():
    for pose in (Pose(np.array([0.1, 0.2, 0.3])), Pose.unchecked(np.array([0.1, 0.2, 0.3]), Rotation.identity())):
        with pytest.raises(ValueError):
            pose.position[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            pose.position = np.zeros(3)


def test_unchecked_pose_holds_its_parts_as_given():
    position, rotation = np.array([0.1, -0.2, 0.3]), Rotation.about_z_deg(20.0)
    pose = Pose.unchecked(position, rotation)
    assert pose.position is position and pose.rotation is rotation
    assert pose_text(pose) == pose_text(Pose(position, rotation))


def test_heading_is_the_yaw_rotation_worked_out_once():
    rng = np.random.default_rng(37)
    for m in SciRotation.random(200, random_state=rng).as_matrix():
        pose = Pose(rng.normal(size=3), Rotation(m))
        want = Rotation.about_z_deg(pose.rotation.yaw_deg()).as_matrix()
        assert pose.heading.as_matrix().tobytes() == want.tobytes()
        assert pose.heading is pose.heading


def outcome(call):
    """call(), or the type it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the public as_euler warns at gimbal lock
            return call()
    except (ValueError, np.linalg.LinAlgError) as err:
        return type(err)


def assert_same_outcome(call, public_call):
    """call() and public_call() give the same bits, or raise the same exception type."""
    got, want = outcome(call), outcome(public_call)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert np.array_equal(got, want, equal_nan=True)


def public_rotvec(matrix):
    return SciRotation.from_matrix(matrix).as_rotvec()


def public_euler(matrix):
    return SciRotation.from_matrix(matrix).as_euler("XYZ", degrees=True)


def assert_same_as_plain_scipy(matrix):
    assert_same_outcome(
        lambda: (matrix_rotvecs(matrix), euler_degrees(matrix)), lambda: (public_rotvec(matrix), public_euler(matrix))
    )


def trusted(matrix):
    """The assume_valid flag matrix_quats hands scipy's backend for matrix; the backend itself is not called."""
    flags = []
    stub = SimpleNamespace(from_matrix=lambda m, assume_valid: flags.append(assume_valid))
    with mock.patch.object(geometry, "_backend", stub):
        matrix_quats(matrix)
    return flags == [True]


def unit_off_diagonal(i, j, x):
    """The identity with x at (i, j): its gramian differs from I by exactly |x| at (i, j) and (j, i),
    and by x * x (lost to rounding at these sizes) at (i, i)."""
    m = np.eye(3)
    m[i, j] = x
    return m


OFF_DIAGONAL = [(i, j) for i in range(3) for j in range(3) if i != j]


def non_finite_cases(bad):
    """A rotation with bad in each entry in turn, alone and stacked after a clean one, and a matrix of bad."""
    base = SciRotation.from_rotvec([0.3, -0.2, 0.9]).as_matrix()
    cases = [np.full((3, 3), bad)]
    for k in range(9):
        m = base.copy()
        m.flat[k] = bad
        cases += [m, np.stack([base, m])]
    return cases


NON_FINITE_PROBE = """
import sys
import test_geometry as t

for m in t.non_finite_cases(float(sys.argv[1])):
    try:
        t.matrix_quats(m)
    except ValueError as err:
        assert "non-finite" in str(err), err
    else:
        raise AssertionError(m)
"""


class TestScipyRotation:
    """The guarded helper against a plain scipy from_matrix call, bit for bit."""

    def test_random_products_single_and_stacked(self):
        rng = np.random.default_rng(41)
        a, b = (SciRotation.random(3000, random_state=rng).as_matrix() for _ in range(2))
        products = np.matmul(np.swapaxes(a, -1, -2), b)
        assert trusted(products)
        assert_same_as_plain_scipy(products)
        for m in products[:600]:
            assert trusted(m)
            assert_same_as_plain_scipy(m)
        for m, u in zip(products[:300], rng.uniform(0.0, 1.0, 300)):
            assert np.array_equal(Rotation(m).power(u).as_matrix(), (SciRotation.from_matrix(m) ** u).as_matrix())

    def test_stacked_rows_match_single_calls(self):
        rng = np.random.default_rng(43)
        stack = SciRotation.random(2000, random_state=rng).as_matrix() @ SciRotation.random(random_state=rng).as_matrix()
        rotvecs, eulers = matrix_rotvecs(stack), euler_degrees(stack)
        for k in range(0, 2000, 7):
            assert np.array_equal(rotvecs[k], matrix_rotvecs(stack[k]))
            assert np.array_equal(eulers[k], euler_degrees(stack[k]))

    @pytest.mark.parametrize("i, j", OFF_DIAGONAL)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_ulp_either_side_of_the_guard(self, i, j, sign):
        inside = unit_off_diagonal(i, j, sign * 1e-13)
        outside = unit_off_diagonal(i, j, sign * np.nextafter(1e-13, 1.0))
        assert trusted(inside) and trusted(inside[None])
        assert not trusted(outside) and not trusted(outside[None])
        for m in (inside, outside, np.stack([inside, outside])):
            assert_same_as_plain_scipy(m)

    @pytest.mark.parametrize("x", [5e-13, 1e-12, np.nextafter(1e-12, 1.0), 2e-12, 1e-9])
    def test_drift_up_to_and_past_scipys_bound_takes_the_checked_path(self, x):
        rng = np.random.default_rng(47)
        base = SciRotation.random(random_state=rng).as_matrix()
        for i, j in OFF_DIAGONAL:
            drifted = unit_off_diagonal(i, j, x)
            for m in (drifted, base @ drifted, np.stack([base, base @ drifted])):
                assert not trusted(m)
                assert_same_as_plain_scipy(m)
        # past 1e-12 scipy projects: its bits are not those of the trusted conversion
        if x >= 2e-12:
            m = unit_off_diagonal(0, 1, x)
            projected = SciRotation.from_matrix(m).as_quat()
            assert not np.array_equal(projected, SciRotation.from_matrix(m, assume_valid=True).as_quat())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_take_the_checked_path(self, bad):
        for m in non_finite_cases(bad):  # refused before scipy is called
            stub = SimpleNamespace(from_matrix=mock.Mock())
            with mock.patch.object(geometry, "_backend", stub), pytest.raises(ValueError, match="non-finite"):
                matrix_quats(m)
            stub.from_matrix.assert_not_called()
        # scipy's checked path never returns on some matrices with a +inf entry
        # (its SVD spins), so the real calls run in a child under a timeout
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
        result = subprocess.run(
            [sys.executable, "-c", NON_FINITE_PROBE, repr(float(bad))], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_reflections_still_raise(self):
        rng = np.random.default_rng(53)
        rotations = SciRotation.random(50, random_state=rng).as_matrix()
        for m in [np.diag([1.0, 1.0, -1.0]), -np.eye(3), *(-rotations[:20])]:
            assert not trusted(m)  # orthonormal to the guard's tolerance, but det = -1
            with pytest.raises(ValueError):
                matrix_quats(m)
        stack = rotations.copy()
        stack[17] = -stack[17]
        assert not trusted(stack)
        with pytest.raises(ValueError):
            matrix_quats(stack)
        with pytest.raises(ValueError):
            Rotation(np.diag([1.0, -1.0, 1.0])).rotvec()


def assert_bits(got, want):
    assert np.array_equal(got, want, equal_nan=True)


def random_products(n, seed):
    rng = np.random.default_rng(seed)
    a, b = (SciRotation.random(n, random_state=rng).as_matrix() for _ in range(2))
    return np.matmul(np.swapaxes(a, -1, -2), b)


def gimbal_triples():
    """Intrinsic XYZ triples at pitch +/-90 deg, within 1e-7 deg of it, and with -0.0 entries."""
    triples = []
    for pole in (90.0, -90.0):
        for off in (0.0, 1e-7, -1e-7, 1e-9, -1e-9, 5e-8):
            for roll, yaw in ((25.0, 40.0), (-170.0, 0.0), (0.0, -0.0), (-0.0, 135.0)):
                triples.append((roll, pole + off, yaw))
    triples += [(-0.0, -0.0, -0.0), (-0.0, 0.0, 10.0), (0.0, -0.0, -0.0), (-0.0, 45.0, -0.0)]
    return triples


class TestBackendMatchesPublicRotation:
    """Every geometry entry point against the public scipy Rotation call it replaces, bit for bit."""

    def test_matrix_conversions_single_stacked_one_row_and_transposed(self):
        products = random_products(500, 59)
        views = [products, products[:1], products[7:8], np.swapaxes(products, -1, -2), products[::3]]
        views += [products[0].T, np.eye(3)]
        views += list(products[:100]) + [m.T for m in products[100:150]]
        for m in views:
            assert_bits(matrix_quats(m), SciRotation.from_matrix(m).as_quat())
            assert_bits(matrix_rotvecs(m), public_rotvec(m))
            assert_same_outcome(lambda: euler_degrees(m), lambda: public_euler(m))
            if m.ndim == 2:
                assert_bits(Rotation(m).rotvec(), public_rotvec(m))
                assert_same_outcome(lambda: Rotation(m).euler_deg(), lambda: public_euler(m))

    def test_euler_triples_at_and_near_gimbal_lock_and_negative_zero(self):
        triples = gimbal_triples()
        for roll, pitch, yaw in triples:
            got = Rotation.from_euler_deg(roll, pitch, yaw).as_matrix()
            assert_bits(got, SciRotation.from_euler("XYZ", [roll, pitch, yaw], degrees=True).as_matrix())
            assert_same_outcome(lambda: euler_degrees(got), lambda: public_euler(got))
        stack = SciRotation.from_euler("XYZ", triples, degrees=True).as_matrix()
        assert_same_outcome(lambda: euler_degrees(stack), lambda: public_euler(stack))
        assert_bits(matrix_rotvecs(stack), public_rotvec(stack))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_euler_angles_raise(self, bad):
        for triple in ((bad, 0.0, 0.0), (0.0, np.float64(bad), 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ValueError, match="euler angles must be finite"):
                Rotation.from_euler_deg(*triple)

    def test_identity(self):
        eye = np.eye(3)
        assert_bits(Rotation.identity().rotvec(), public_rotvec(eye))
        assert_bits(euler_degrees(eye), public_euler(eye))
        assert_bits(Rotation.from_euler_deg(0.0, 0.0, 0.0).as_matrix(), SciRotation.identity().as_matrix())
        assert_bits(rotvec_matrices(np.zeros(3)), SciRotation.from_rotvec(np.zeros(3)).as_matrix())
        for f in (0.5, 1.0, 0.3):
            assert_bits(Rotation.identity().power(f).as_matrix(), (SciRotation.from_matrix(eye) ** f).as_matrix())

    def test_rotvecs_at_angle_zero_pi_and_just_below_pi(self):
        rng = np.random.default_rng(61)
        axes = rng.normal(size=(40, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        axes = np.concatenate([np.eye(3), -np.eye(3), axes])
        rotvecs = np.concatenate([axes * a for a in (0.0, np.pi, np.pi - 1e-12)] + [np.zeros((1, 3))])
        want = SciRotation.from_rotvec(rotvecs).as_matrix()
        assert_bits(rotvec_matrices(rotvecs), want)
        assert_bits(rotvec_matrices(rotvecs[:1]), want[:1])
        for v, w in zip(rotvecs, want):
            assert_bits(rotvec_matrices(v), SciRotation.from_rotvec(v).as_matrix())
            assert_bits(Rotation(w).rotvec(), public_rotvec(w))
        assert_bits(matrix_rotvecs(want), public_rotvec(want))

    def test_power_at_step_fractions_half_and_one(self):
        # _step_pose_toward takes the power max_angular / angle (0.1 or 0.09 rad) of a rotation whose angle exceeds it
        products = random_products(200, 67)
        for m in products:
            angle = matrix_angle(m)
            for f in (0.1 / angle, 0.09 / angle, 0.5, 1.0, 0.0, -0.0):  # power(0) is the backend's, no shortcut
                assert_bits(Rotation(m).power(f).as_matrix(), (SciRotation.from_matrix(m) ** f).as_matrix())

    def test_untrusted_finite_matrices_match_or_raise_alike(self):
        products = random_products(30, 71)
        flipped = products * np.array([1.0, 1.0, -1.0])  # det -1
        for m in [*products * 1.001, *flipped, np.diag([1.0, 1.0, -1.0]), products * 1.001, flipped]:
            assert not trusted(m)
            assert_same_outcome(lambda: matrix_quats(m), lambda: SciRotation.from_matrix(m).as_quat())
            assert_same_outcome(lambda: matrix_rotvecs(m), lambda: public_rotvec(m))
            assert_same_outcome(lambda: euler_degrees(m), lambda: public_euler(m))
            if m.ndim == 2:
                assert_same_outcome(
                    lambda: Rotation(m).power(0.5).as_matrix(), lambda: (SciRotation.from_matrix(m) ** 0.5).as_matrix()
                )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrices_still_raise_value_error(self, bad):
        for m in non_finite_cases(bad):
            for convert in (matrix_quats, matrix_rotvecs, euler_degrees):
                with pytest.raises(ValueError, match="non-finite"):
                    convert(m)
            if m.ndim == 2:
                with pytest.raises(ValueError, match="non-finite"):
                    Rotation(m).power(0.5)

    def test_euler_degrees_lets_no_gimbal_lock_warning_escape(self):
        locked = SciRotation.from_euler("XYZ", [25.0, 90.0, 40.0], degrees=True).as_matrix()
        stack = SciRotation.from_euler("XYZ", gimbal_triples(), degrees=True).as_matrix()
        with pytest.warns(UserWarning, match="Gimbal lock"):
            public_euler(locked)  # the public call warns on this matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            euler_degrees(locked)
            euler_degrees(stack)
            Rotation(locked).euler_deg()
