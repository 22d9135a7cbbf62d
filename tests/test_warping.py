import numpy as np
import pytest

from demoforge.demos import Action, Observation
from demoforge.geometry import Pose, Rotation, rotvec_matrices
from demoforge.simworld import BUNDLED_TASKS, TaskSpec, record_demo
from demoforge.warping import (
    DegenerateChord,
    KeyposeMismatch,
    TrajectorySegment,
    compute_warp,
    warp_positions,
    warp_rotations,
    warp_trajectory_by_keyposes,
)

from oracles import (
    compute_warp_oracle,
    demo_from_steps,
    grid_max_z_alignment,
    quat_slerp_matrix,
    slerp_matrix,
    warp_trajectory_oracle,
)


def segment(poses, grips):
    """A trajectory from Pose objects and gripper commands."""
    return TrajectorySegment(
        np.stack([q.position for q in poses]),
        np.stack([q.rotation.as_matrix() for q in poses]),
        np.asarray(grips, dtype=float),
    )


def p(x, y, z, rot=None):
    return Pose(np.array([x, y, z], dtype=float), rot or Rotation.identity())


def random_rotation(rng, scale=1.0):
    return Rotation(rotvec_matrices(rng.normal(0.0, scale, size=3)))


def random_pose(rng, span=1.0):
    return Pose(rng.uniform(-span, span, size=3), random_rotation(rng))


def warp(*poses):
    """compute_warp on the positions of four poses."""
    return compute_warp(*(q.position for q in poses))


def transform_point(tf, point):
    """One point through a (rotation, translation, scale) warp."""
    return warp_positions(np.asarray(point, dtype=float)[None], *tf)[0]


class TestComputeWarp:
    def test_identity_when_endpoints_match(self):
        a, b = p(0.1, 0.2, 0.3), p(0.4, 0.5, 0.6)
        rot, translation, scale = warp(a, b, a, b)
        assert scale == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rot, np.eye(3), atol=1e-9)
        assert np.allclose(translation, 0.0, atol=1e-9)

    def test_x_chord_to_y_chord_is_90_about_z(self):
        # frozen grid-search oracle (1e-4 resolution): max z.R.z = 1.0 at phi = 0,
        # which lands on exactly Rz(90 deg)
        rot, translation, scale = warp(p(0, 0, 0), p(1, 0, 0), p(0, 0, 0), p(0, 1, 0))
        assert np.allclose(rot, Rotation.about_z_deg(90.0).as_matrix(), atol=1e-9)
        assert rot[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(translation, 0.0, atol=1e-12)
        assert scale == pytest.approx(1.0, abs=1e-12)
        oracle_val, _ = grid_max_z_alignment([1.0, 0, 0], [0, 1.0, 0], resolution=1e-4)
        assert rot[2, 2] >= oracle_val - 1e-9

    def test_collinear_stretch(self):
        rot, _, scale = warp(p(0, 0, 0), p(1, 0, 0), p(0, 0, 0), p(2, 0, 0))
        assert scale == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(rot, np.eye(3), atol=1e-9)

    def test_endpoint_exactness_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            os_, oe = random_pose(rng), random_pose(rng)
            ns, ne = random_pose(rng), random_pose(rng)
            if np.linalg.norm(oe.position - os_.position) < 1e-3:
                continue
            tf = warp(os_, oe, ns, ne)
            assert np.linalg.norm(transform_point(tf, os_.position) - ns.position) < 1e-9
            assert np.linalg.norm(transform_point(tf, oe.position) - ne.position) < 1e-9

    def test_z_alignment_beats_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            os_, oe = random_pose(rng), random_pose(rng)
            ns, ne = random_pose(rng), random_pose(rng)
            c_old = oe.position - os_.position
            c_new = ne.position - ns.position
            if min(np.linalg.norm(c_old), np.linalg.norm(c_new)) < 1e-3:
                continue
            got = warp(os_, oe, ns, ne)[0][2, 2]
            best, _ = grid_max_z_alignment(
                c_old / np.linalg.norm(c_old), c_new / np.linalg.norm(c_new), resolution=1e-3
            )
            assert got >= best - 1e-5

    def test_rigid_when_chords_equal(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            os_ = random_pose(rng)
            d = rng.normal(size=3)
            oe = Pose(os_.position + d)
            ns = random_pose(rng)
            # rotate the same chord somewhere else: length unchanged
            ne = Pose(ns.position + random_rotation(rng).apply(d))
            tf = warp(os_, oe, ns, ne)
            assert tf[2] == pytest.approx(1.0, abs=1e-9)
            pts = rng.uniform(-1, 1, size=(4, 3))
            imgs = np.stack([transform_point(tf, q) for q in pts])
            for i in range(4):
                for j in range(i + 1, 4):
                    assert np.linalg.norm(imgs[i] - imgs[j]) == pytest.approx(
                        np.linalg.norm(pts[i] - pts[j]), abs=1e-9
                    )

    def test_chord_along_z_tie_break_is_deterministic_and_minimal(self):
        # new chord parallel to z: objective is flat, tie-break must pick the
        # smallest total rotation; mapping z-chord onto itself needs none at all
        rot = warp(p(0, 0, 0), p(0, 0, 1), p(0.2, 0, 0), p(0.2, 0, 1))[0]
        assert np.allclose(rot, np.eye(3), atol=1e-9)
        rot2 = warp(p(0, 0, 0), p(0, 0, 1), p(0.2, 0, 0), p(0.2, 0, 1))[0]
        assert np.array_equal(rot, rot2)

    def test_degenerate_both_chords(self):
        a = p(0.1, 0.1, 0.1)
        tf = warp(a, a, p(0.5, 0, 0), p(0.5, 0, 0))
        assert tf[2] == 1.0
        assert np.allclose(tf[0], np.eye(3), atol=1e-12)
        assert np.allclose(transform_point(tf, a.position), [0.5, 0, 0], atol=1e-12)

    def test_degenerate_old_chord_raises(self):
        a = p(0.1, 0.1, 0.1)
        with pytest.raises(DegenerateChord):
            warp(a, a, p(0, 0, 0), p(1, 0, 0))


class TestWarpPositions:
    POSITIONS = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_identity(self):
        out = warp_positions(self.POSITIONS, np.eye(3), np.zeros(3), 1.0)
        assert np.allclose(out, self.POSITIONS)

    def test_pure_translation(self):
        out = warp_positions(self.POSITIONS, np.eye(3), np.array([0.1, -0.2, 0.3]), 1.0)
        assert np.allclose(out, self.POSITIONS + np.array([0.1, -0.2, 0.3]))

    def test_collinear_ratios_preserved(self):
        # frozen affine-invariance oracle: images of (0,0,0),(0.3,0,0),(1,0,0)
        # under the 90-about-z warp stay collinear with ratio 0.3
        tf = warp(p(0, 0, 0), p(1, 0, 0), p(0, 0, 0), p(0, 1, 0))
        out = warp_positions(self.POSITIONS, *tf)
        v1, v2 = out[1] - out[0], out[2] - out[0]
        assert np.linalg.norm(np.cross(v1, v2)) < 1e-12
        assert np.linalg.norm(v1) / np.linalg.norm(v2) == pytest.approx(0.3, abs=1e-12)


class TestWarpRotations:
    @staticmethod
    def _warp(rots, start, end):
        """warp_rotations on Rotation objects, as a list of matrices."""
        return list(warp_rotations(np.stack([r.as_matrix() for r in rots]), start.as_matrix(), end.as_matrix()))

    def test_unchanged_when_endpoints_match(self):
        rots = [Rotation.about_z_deg(a) for a in (0.0, 20.0, 50.0)]
        for got, want in zip(self._warp(rots, rots[0], rots[-1]), rots):
            assert np.allclose(got, want.as_matrix(), atol=1e-9)

    def test_constant_delta(self):
        rots = [Rotation.about_z_deg(a) for a in (0.0, 20.0, 50.0)]
        dz = Rotation.about_z_deg(90.0)
        for got, base in zip(self._warp(rots, dz @ rots[0], dz @ rots[-1]), rots):
            assert np.allclose(got, (dz @ base).as_matrix(), atol=1e-9)

    def test_midpoint_delta_is_half_turn(self):
        # frozen quaternion-slerp oracle: midpoint of I -> Rz(90) is Rz(45)
        out = self._warp([Rotation.identity()] * 3, Rotation.identity(), Rotation.about_z_deg(90.0))
        assert np.allclose(out[1], Rotation.about_z_deg(45.0).as_matrix(), atol=1e-6)

    def test_midpoint_matches_quaternion_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            rots = [random_rotation(rng) for _ in range(3)]
            new0, new2 = random_rotation(rng), random_rotation(rng)
            out = self._warp(rots, new0, new2)
            d0 = new0.as_matrix() @ rots[0].as_matrix().T
            d2 = new2.as_matrix() @ rots[2].as_matrix().T
            want = quat_slerp_matrix(d0, d2, 0.5) @ rots[1].as_matrix()
            assert np.linalg.norm(out[1] - want) < 1e-9

    def test_endpoint_rotations_exact(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            rots = [random_rotation(rng) for _ in range(5)]
            new0, new4 = random_rotation(rng), random_rotation(rng)
            out = self._warp(rots, new0, new4)
            assert np.linalg.norm(out[0] - new0.as_matrix()) < 1e-9
            assert np.linalg.norm(out[-1] - new4.as_matrix()) < 1e-9


def test_span_warp_matches_per_pose_loop_bitwise():
    # the span maths must give the bits of warping one pose at a time, as
    # the same config and seed must keep giving the same dataset bytes
    seg = record_demo(TaskSpec("stack"), 1001).actions
    rng = np.random.default_rng(31)
    rot, translation, scale = compute_warp(seg.positions[0], seg.positions[-1], *rng.uniform(-1, 1, size=(2, 3)))
    new0, new1 = rotvec_matrices(rng.normal(size=3)), rotvec_matrices(rng.normal(size=3))
    positions = warp_positions(seg.positions, rot, translation, scale)
    rotations = warp_rotations(seg.rotations, new0, new1)
    n = len(seg)
    d0, d1 = new0 @ seg.rotations[0].T, new1 @ seg.rotations[-1].T
    for t in range(n - 1):  # the last point is snapped to its keypose by the caller
        assert np.array_equal(positions[t], scale * (seg.positions[t] @ rot.T) + translation)
        assert np.array_equal(rotations[t], slerp_matrix(d0, d1, t / (n - 1)) @ seg.rotations[t])


def make_demo(positions, rots=None, grippers=None, task="pick_place"):
    n = len(positions)
    rots = rots or [Rotation.identity()] * n
    grippers = grippers if grippers is not None else [1.0] * n
    steps = []
    for i in range(n):
        pose = Pose(np.asarray(positions[i], dtype=float), rots[i])
        obs = Observation(pose, grippers[i], [])
        steps.append((obs, Action(pose, grippers[i])))
    return demo_from_steps(steps, task=task, demo_id="d0")


class TestWarpTrajectoryByKeyposes:
    def _demo(self):
        xs = np.linspace(0.0, 1.0, 11)
        rots = [Rotation.about_z_deg(5.0 * i) for i in range(11)]
        return make_demo([[x, 0.0, 0.1] for x in xs], rots, [1.0] * 5 + [0.0] * 6)

    def _kp(self, demo, ts):
        return [(t, demo.action(t).pose) for t in ts]

    def test_identity_warp(self):
        demo = self._demo()
        kp = self._kp(demo, [0, 5, 10])
        out = warp_trajectory_by_keyposes(demo, kp, self._kp(demo, [0, 5, 10]))
        assert len(out) == len(demo)
        for t in range(len(demo)):
            assert np.allclose(out.pose(t).position, demo.action(t).pose.position, atol=1e-9)
            assert np.allclose(out.pose(t).rotation.as_matrix(), demo.action(t).pose.rotation.as_matrix(), atol=1e-9)
            assert out.gripper[t] == demo.action(t).gripper

    def test_single_segment_end_shift(self):
        demo = self._demo()
        old = self._kp(demo, [0, 10])
        new = self._kp(demo, [0, 10])
        new[1] = (10, Pose(old[1][1].position + np.array([0.1, 0.0, 0.0]), old[1][1].rotation))
        out = warp_trajectory_by_keyposes(demo, old, new)
        assert np.allclose(out.pose(-1).position, demo.action(10).pose.position + [0.1, 0, 0], atol=1e-9)
        assert np.allclose(out.pose(0).position, demo.action(0).pose.position, atol=1e-12)

    def test_middle_keypose_moved_segments_align(self):
        demo = self._demo()
        old = self._kp(demo, [0, 5, 10])
        new = self._kp(demo, [0, 5, 10])
        moved = Pose(old[1][1].position + np.array([0.0, 0.2, 0.05]), Rotation.about_z_deg(60.0))
        new[1] = (5, moved)
        out = warp_trajectory_by_keyposes(demo, old, new)
        # each segment independently lands on its keypose endpoints
        assert np.allclose(out.pose(0).position, new[0][1].position, atol=1e-9)
        assert np.allclose(out.pose(5).position, moved.position, atol=1e-9)
        assert np.allclose(out.pose(10).position, new[2][1].position, atol=1e-9)
        assert np.allclose(out.pose(5).rotation.as_matrix(), moved.rotation.as_matrix(), atol=1e-9)

    def test_boundary_is_bitwise_shared(self):
        demo = self._demo()
        old = self._kp(demo, [0, 5, 10])
        new = self._kp(demo, [0, 5, 10])
        new[1] = (5, Pose(np.array([0.7, 0.3, 0.2]), Rotation.about_z_deg(45.0)))
        # warp the two spans separately and compare the shared keypose pose
        left = warp_trajectory_by_keyposes(
            make_demo([demo.action(t).pose.position for t in range(6)],
                      [demo.action(t).pose.rotation for t in range(6)],
                      [demo.action(t).gripper for t in range(6)]),
            [(0, old[0][1]), (5, old[1][1])],
            [(0, new[0][1]), (5, new[1][1])],
        )
        right = warp_trajectory_by_keyposes(
            make_demo([demo.action(t).pose.position for t in range(5, 11)],
                      [demo.action(t).pose.rotation for t in range(5, 11)],
                      [demo.action(t).gripper for t in range(5, 11)]),
            [(0, old[1][1]), (5, old[2][1])],
            [(0, new[1][1]), (5, new[2][1])],
        )
        assert np.array_equal(left.pose(-1).position, right.pose(0).position)
        assert np.array_equal(left.pose(-1).rotation.as_matrix(), right.pose(0).rotation.as_matrix())

    def test_gripper_copied_verbatim(self):
        demo = self._demo()
        old = self._kp(demo, [0, 5, 10])
        new = self._kp(demo, [0, 5, 10])
        new[2] = (10, Pose(np.array([2.0, 1.0, 0.3]), Rotation.identity()))
        out = warp_trajectory_by_keyposes(demo, old, new)
        assert out.gripper.tolist() == [demo.action(t).gripper for t in range(len(demo))]

    def test_mismatch_errors(self):
        demo = self._demo()
        kp3 = self._kp(demo, [0, 5, 10])
        with pytest.raises(KeyposeMismatch):
            warp_trajectory_by_keyposes(demo, kp3, kp3[:2])
        with pytest.raises(KeyposeMismatch):
            warp_trajectory_by_keyposes(demo, self._kp(demo, [0, 5]), self._kp(demo, [0, 6]))
        dup = self._kp(demo, [0, 10])
        dup[1] = (0, dup[1][1])  # timesteps [0, 0]: not strictly increasing
        with pytest.raises(KeyposeMismatch):
            warp_trajectory_by_keyposes(demo, dup, [(t, q) for t, q in dup])
        with pytest.raises(KeyposeMismatch):
            warp_trajectory_by_keyposes(demo, self._kp(demo, [1, 10]), self._kp(demo, [1, 10]))
        with pytest.raises(KeyposeMismatch):
            warp_trajectory_by_keyposes(demo, self._kp(demo, [0, 5]), self._kp(demo, [0, 5]))


def test_segment_validation():
    with pytest.raises(ValueError):
        segment([p(0, 0, 0)], [1.0])
    with pytest.raises(ValueError):
        segment([p(0, 0, 0), p(1, 0, 0)], [1.0])
    with pytest.raises(ValueError):
        TrajectorySegment(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2))


# -- bit-for-bit against the object-form warp --------------------------------

BRANCHES = (
    "random", "both_collapsed", "new_chord_zero", "parallel", "antiparallel", "antiparallel_x", "new_chord_along_z",
    "z_chord_reversed", "old_collapsed",
)


def branch_chords(kind, rng):
    """(old chord, new chord) that send the warp of one span down one branch."""
    chord = rng.normal(size=3) * rng.uniform(0.01, 0.3)
    tiny = rng.uniform(-5e-7, 5e-7, size=3)  # under EPS_CHORD but not zero
    length = rng.uniform(0.01, 0.3)
    return {
        "random": lambda: (chord, rng.normal(size=3) * rng.uniform(0.01, 0.3)),
        "both_collapsed": lambda: (tiny, rng.uniform(-5e-7, 5e-7, size=3)),
        "new_chord_zero": lambda: (chord, np.zeros(3)),
        "parallel": lambda: (chord, 2.0 * chord),  # a power of two keeps the unit chords exactly equal
        "antiparallel": lambda: (chord, -2.0 * chord),
        "antiparallel_x": lambda: (np.array([length, 0.0, 0.0]), np.array([-0.5 * length, 0.0, 0.0])),
        "new_chord_along_z": lambda: (chord, np.array([0.0, 0.0, rng.choice([-1.0, 1.0]) * length])),
        "z_chord_reversed": lambda: (np.array([0.0, 0.0, -length]), np.array([0.0, 0.0, 2.0 * length])),
        "old_collapsed": lambda: (tiny, chord),
    }[kind]()


def branch_keyposes(rng, demo, kind):
    """Old and new (t, Pose) keypose lists over the demo; one random span takes
    the chords of ``kind``, every other span a random retarget."""
    inner = rng.choice(np.arange(1, demo.horizon), size=int(rng.integers(0, 6)), replace=False)
    ts = [0, *sorted(int(t) for t in inner), demo.horizon]
    old = [demo.actions.pose(t) for t in ts]
    new = [Pose(q.position + rng.normal(0.0, 0.05, 3), random_rotation(rng, 0.3) @ q.rotation) for q in old]
    i = int(rng.integers(len(ts) - 1))
    c_old, c_new = branch_chords(kind, rng)
    old[i + 1] = Pose(old[i].position + c_old, old[i + 1].rotation)
    new[i + 1] = Pose(new[i].position + c_new, new[i + 1].rotation)
    return list(zip(ts, old)), list(zip(ts, new)), i


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def source_demos():
    return [record_demo(TaskSpec(task), 1001 + k) for k, task in enumerate(BUNDLED_TASKS)]


@pytest.mark.parametrize("kind", BRANCHES)
def test_warp_matches_object_form_oracle_bit_for_bit(kind, source_demos):
    # the array warp must keep the bits the object form gave, on every branch,
    # or the same config and seed would stop giving the same dataset bytes
    rng = np.random.default_rng(sum(map(ord, kind)))
    for trial in range(20):
        demo = source_demos[trial % len(source_demos)]
        old, new, i = branch_keyposes(rng, demo, kind)
        span = (old[i][1], old[i + 1][1], new[i][1], new[i + 1][1])
        if kind == "old_collapsed":
            runs = (
                lambda: compute_warp(*(q.position for q in span)),
                lambda: compute_warp_oracle(*span),
                lambda: warp_trajectory_by_keyposes(demo, old, new),
                lambda: warp_trajectory_oracle(demo, old, new),
            )
            for run in runs:
                with pytest.raises(DegenerateChord):
                    run()
            continue
        rot, translation, scale = compute_warp(*(q.position for q in span))
        want = compute_warp_oracle(*span)
        assert same_bits(rot, want.rotation.m) and same_bits(translation, want.translation)
        assert type(scale) is float and scale == want.scale
        out = warp_trajectory_by_keyposes(demo, old, new)
        positions, rotations = warp_trajectory_oracle(demo, old, new)
        assert same_bits(out.positions, positions) and same_bits(out.rotations, rotations)
        assert same_bits(out.gripper, demo.actions.gripper)
