"""Similarity algebra, reattachment selection, and the switching machine."""
import dataclasses

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as SciRotation

from demoforge import ensemble
from demoforge.demos import Action
from demoforge.ensemble import (
    _CHORD_SLACK,
    TAU_REATTACH,
    _normalized,
    _row_deltas,
    _step_deltas,
    ActionRows,
    EnsembleState,
    action_delta,
    ensemble_step,
    select_reattach,
    similarity,
)
from demoforge.geometry import Pose, Rotation, rotvec_matrices
from demoforge.warping import TrajectorySegment
from oracles import ensemble_step_oracle, reattach_row_deltas, reattach_similarities, select_reattach_oracle


def segment(poses, grips):
    """A trajectory from Pose objects and gripper commands."""
    return TrajectorySegment(
        np.stack([q.position for q in poses]),
        np.stack([q.rotation.as_matrix() for q in poses]),
        np.asarray(grips, dtype=float),
    )


def vec(*vals):
    return np.asarray(vals, dtype=float)


def line_traj(n=10, step=0.01, grip=1.0):
    poses = [Pose(np.array([step * i, 0.0, 0.1])) for i in range(n)]
    return segment(poses, [grip] * n)


def state_with_scale(traj, scale):
    """EnsembleState.initial(traj) with a chosen scale in place of the trajectory's own, and its table to match."""
    state = EnsembleState.initial(traj)
    raw = _step_deltas(traj)
    state.scale, state.recorded = scale, ActionRows.of(np.concatenate([raw, raw[-1:]]) / scale)
    return state


def reattach_at(traj, current_pose, current_gripper, t_now, a_il, scale, tau=TAU_REATTACH):
    """select_reattach from a fresh state with the given scale over traj whose cursor sits at t_now."""
    state = state_with_scale(traj, scale)
    state.ff_cursor = t_now
    return select_reattach(state, current_pose, current_gripper, a_il, tau)


def switch_steps(state):
    """The trace's steps on which the mode flipped."""
    return [e["step"] for e in state.trace if e["switched"]]


class TestSimilarity:
    def test_identical_nonzero_is_one(self):
        a = vec(1.0, -2.0, 0.5, 0.0, 0.0, 0.0, 1.0)
        assert similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_double_magnitude_is_two_thirds(self):
        a = vec(1.0, -2.0, 0.5, 0.0, 0.0, 0.0, 1.0)
        assert similarity(a, 2.0 * a) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_negated_is_minus_one(self):
        a = vec(0.3, 0.0, -0.7, 0.1, 0.0, 0.0, 0.0)
        assert similarity(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_both_zero_is_one(self):
        assert similarity(vec(0, 0, 0), vec(0, 0, 0)) == 1.0

    def test_exactly_one_zero_is_zero(self):
        a = vec(1.0, 0.0, 0.0)
        assert similarity(a, vec(0, 0, 0)) == 0.0
        assert similarity(vec(0, 0, 0), a) == 0.0

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            a = rng.normal(0, 1, 7)
            b = rng.normal(0, 1, 7)
            assert similarity(a, b) == similarity(b, a)

    def test_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            a = rng.normal(0, rng.uniform(0.1, 10), 7)
            b = rng.normal(0, rng.uniform(0.1, 10), 7)
            assert -1.0 - 1e-12 <= similarity(a, b) <= 1.0 + 1e-12

    def test_joint_positive_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            a = rng.normal(0, 1, 7)
            b = rng.normal(0, 1, 7)
            c = rng.uniform(1e-3, 1e3)
            s1 = similarity(a, b)
            s2 = similarity(c * a, c * b)
            assert s1 == pytest.approx(s2, abs=1e-9)

    def test_orthogonal_is_zero(self):
        assert similarity(vec(1, 0, 0), vec(0, 1, 0)) == pytest.approx(0.0, abs=1e-15)


class TestNormalize:
    def test_zero_action_stays_zero(self):
        traj = line_traj(6)
        out = _normalized(EnsembleState.initial(traj), traj.pose(2), 1.0, Action(traj.pose(2), 1.0))
        assert np.array_equal(out, np.zeros(7))

    def test_floor_protects_constant_dimensions(self):
        # a straight line along x at growing steps: every other dimension of its step actions is constant
        traj = segment([Pose(np.array([0.01 * i * i, 0.0, 0.1])) for i in range(6)], [1.0] * 6)
        scale = EnsembleState.initial(traj).scale
        assert scale[0] > 1e-6
        assert np.all(scale[1:] == 1e-6)

    def test_normalized_similarity_scale_invariant(self):
        rng = np.random.default_rng(4)
        scale = rng.uniform(0.01, 1.0, 7)
        for _ in range(500):
            a = rng.normal(0, 0.05, 7)
            b = rng.normal(0, 0.05, 7)
            c = rng.uniform(0.01, 100.0)
            s1 = similarity(a / scale, b / scale)
            s2 = similarity(c * a / scale, c * b / scale)
            assert s1 == pytest.approx(s2, abs=1e-9)

    def test_stats_from_trajectory_matches_numpy(self):
        traj = line_traj(6)
        deltas = np.stack(
            [
                action_delta(traj.pose(i), traj.gripper[i], traj.pose(i + 1), traj.gripper[i + 1])
                for i in range(5)
            ]
        )
        want = np.maximum(deltas.std(axis=0), 1e-6)
        assert np.array_equal(EnsembleState.initial(traj).scale, want)


def test_stats_match_per_pose_loop_on_a_turning_trajectory():
    rng = np.random.default_rng(13)
    poses = [Pose(np.zeros(3), Rotation(rotvec_matrices(rng.normal(size=3))))]
    for _ in range(59):
        prev = poses[-1]
        poses.append(Pose(prev.position + rng.normal(0, 0.01, 3), Rotation(rotvec_matrices(rng.normal(0, 0.1, 3))) @ prev.rotation))
    traj = segment(poses, rng.choice([0.0, 1.0], size=60))
    deltas = np.stack(
        [action_delta(traj.pose(i), traj.gripper[i], traj.pose(i + 1), traj.gripper[i + 1]) for i in range(59)]
    )
    assert np.array_equal(EnsembleState.initial(traj).scale, np.maximum(deltas.std(axis=0), 1e-6))


def test_row_deltas_match_plain_scipy_and_single_deltas_bit_for_bit():
    rng = np.random.default_rng(17)
    n = 400
    p, g = rng.normal(0.0, 0.3, (n, 3)), rng.choice([0.0, 1.0], n)
    r = rotvec_matrices(rng.normal(size=3)) @ SciRotation.random(n, random_state=rng).as_matrix()
    rows = _row_deltas(p[:-1], r[:-1], g[:-1], p[1:], r[1:], g[1:])
    assert np.array_equal(rows, reattach_row_deltas(p[:-1], r[:-1], g[:-1], p[1:], r[1:], g[1:]))
    here = Pose(p[0], Rotation(r[0]))
    fanned = _row_deltas(here.position, r[0], float(g[0]), p, r, g)
    assert np.array_equal(fanned, reattach_row_deltas(p[0], r[0], float(g[0]), p, r, g))
    for k in range(0, n, 3):
        assert np.array_equal(fanned[k], action_delta(here, g[0], Pose(p[k], Rotation(r[k])), g[k]))
        if k < n - 1:
            step = action_delta(Pose(p[k], Rotation(r[k])), g[k], Pose(p[k + 1], Rotation(r[k + 1])), g[k + 1])
            assert np.array_equal(rows[k], step)


class TestActionDelta:
    def test_pose_translation_and_gripper(self):
        a = Pose(np.array([0.0, 0.0, 0.0]))
        b = Pose(np.array([0.1, -0.2, 0.3]))
        d = action_delta(a, 1.0, b, 0.0)
        assert np.allclose(d[:3], [0.1, -0.2, 0.3])
        assert np.allclose(d[3:6], 0.0)
        assert d[6] == -1.0

    def test_rotation_delta_is_relative_rotvec(self):
        a = Pose(np.zeros(3), Rotation.about_z_deg(10.0))
        b = Pose(np.zeros(3), Rotation.about_z_deg(40.0))
        d = action_delta(a, 1.0, b, 1.0)
        assert np.allclose(d[3:6], [0.0, 0.0, np.radians(30.0)], atol=1e-12)


def brute_force_reattach(traj, current_pose, current_gripper, t_now, a_il, scale, tau):
    best_t, best = None, -np.inf
    for t in range(t_now + 1, len(traj)):
        att = action_delta(current_pose, current_gripper, traj.pose(t), traj.gripper[t]) / scale
        lo, hi = (t, t + 1) if t + 1 < len(traj) else (t - 1, t)
        rec = action_delta(traj.pose(lo), traj.gripper[lo], traj.pose(hi), traj.gripper[hi]) / scale
        s_att, s_rec = similarity(att, a_il), similarity(rec, a_il)
        if s_att > tau and s_rec > tau and s_att > best:
            best_t, best = t, s_att
    return best_t


class TestSelectReattach:
    def scale(self):
        return np.concatenate([np.full(3, 0.01), np.full(3, 0.05), [0.5]])

    def test_on_trajectory_returns_next_point_with_similarity_one(self):
        traj = line_traj(10)
        current = traj.pose(0)
        a_il = action_delta(current, 1.0, traj.pose(1), traj.gripper[1]) / self.scale()
        t = reattach_at(traj, current, 1.0, 0, a_il, self.scale())
        assert t == 1
        att = action_delta(current, 1.0, traj.pose(1), traj.gripper[1]) / self.scale()
        assert similarity(att, a_il) == pytest.approx(1.0, abs=1e-12)

    def test_tie_goes_to_earliest(self):
        # trajectory revisits x=0.01 at t=1 and t=3 with identical onward
        # motion, so both candidates score exactly 1.0
        poses = [
            Pose(np.array([0.0, 0.0, 0.1])),
            Pose(np.array([0.01, 0.0, 0.1])),
            Pose(np.array([0.02, 0.0, 0.1])),
            Pose(np.array([0.01, 0.0, 0.1])),
            Pose(np.array([0.02, 0.0, 0.1])),
        ]
        traj = segment(poses, [1.0] * 5)
        current = poses[0]
        a_il = action_delta(current, 1.0, poses[1], 1.0) / self.scale()
        assert reattach_at(traj, current, 1.0, 0, a_il, self.scale()) == 1

    def test_orthogonal_feedback_returns_none(self):
        traj = line_traj(8)
        current = traj.pose(0)
        sideways = Pose(current.position + np.array([0.0, 0.01, 0.0]))
        a_il = action_delta(current, 1.0, sideways, 1.0) / self.scale()
        assert reattach_at(traj, current, 1.0, 0, a_il, self.scale(), tau=0.5) is None

    def test_argmax_prefers_later_higher_similarity(self):
        # two feasible candidates; the later one matches the feedback better
        scale = self.scale()
        current = Pose(np.array([0.0, 0.0, 0.1]))
        poses = [
            current,
            Pose(np.array([0.010, 0.004, 0.1])),
            Pose(np.array([0.013, 0.000, 0.1])),
        ]
        traj = segment(poses, [1.0] * 3)
        forward = Pose(current.position + np.array([0.01, 0.0, 0.0]))
        a_il = action_delta(current, 1.0, forward, 1.0) / scale
        tau = 0.3
        got = reattach_at(traj, current, 1.0, 0, a_il, scale, tau=tau)
        assert got == 2
        assert got == brute_force_reattach(traj, current, 1.0, 0, a_il, scale, tau)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        scale = self.scale()
        for _ in range(200):
            n = int(rng.integers(3, 12))
            poses = [Pose(rng.normal(0, 0.02, 3) + np.array([0, 0, 0.1]))]
            for _ in range(n - 1):
                poses.append(Pose(poses[-1].position + rng.normal(0, 0.01, 3)))
            grips = list(rng.choice([0.0, 1.0], size=n))
            traj = segment(poses, grips)
            current = Pose(rng.normal(0, 0.02, 3) + np.array([0, 0, 0.1]))
            goal = Pose(current.position + rng.normal(0, 0.01, 3))
            a_il = action_delta(current, 1.0, goal, float(rng.choice([0.0, 1.0]))) / scale
            t_now = int(rng.integers(0, n - 1))
            tau = float(rng.uniform(0.0, 0.9))
            assert reattach_at(traj, current, 1.0, t_now, a_il, scale, tau=tau) == brute_force_reattach(
                traj, current, 1.0, t_now, a_il, scale, tau
            )

    def test_no_candidates_past_end(self):
        traj = line_traj(4)
        current = traj.pose(0)
        a_il = action_delta(current, 1.0, traj.pose(1), 1.0) / self.scale()
        assert reattach_at(traj, current, 1.0, 3, a_il, self.scale()) is None


def fuzz_reattach_instance(rng, t_choice):
    """A turning trajectory, a nearby state and a feedback action; t_choice
    0-3 puts the cursor at 0, n-3, n-2 or n-1."""
    n = int(rng.integers(3, 40))
    turn = float(rng.choice([0.05, 0.3]))
    poses = [Pose(rng.uniform(-0.2, 0.2, 3), Rotation(rotvec_matrices(rng.normal(0.0, 1.0, 3))))]
    for _ in range(n - 1):
        step = Rotation(rotvec_matrices(rng.normal(0.0, turn, 3)))
        poses.append(Pose(poses[-1].position + rng.normal(0.0, 0.01, 3), step @ poses[-1].rotation))
    grips = list(rng.choice([0.0, 1.0], size=n))
    if n >= 6 and rng.random() < 0.4:
        # revisit an earlier stretch: its attach and recorded rows repeat
        # bit for bit, so their scores tie exactly
        k = int(rng.integers(2, n // 2 + 1))
        i = int(rng.integers(0, n - 2 * k + 1))
        j = int(rng.integers(i + k, n - k + 1))
        poses[j : j + k], grips[j : j + k] = poses[i : i + k], grips[i : i + k]
    traj = segment(poses, grips)
    t_now = [0, n - 3, n - 2, n - 1][t_choice]
    if rng.random() < 0.5:
        scale = EnsembleState.initial(traj).scale
    else:
        scale = rng.uniform(0.005, 0.5, 7)
    if rng.random() < 0.6:
        # feedback roughly follows the recorded motion from near the cursor
        here = poses[t_now]
        current = Pose(here.position + rng.normal(0.0, 0.01, 3), here.rotation)
        nxt = poses[min(t_now + 1, n - 1)]
        target = Pose(nxt.position + rng.normal(0.0, 0.003, 3), nxt.rotation)
        grip = fb_grip = float(grips[min(t_now + 1, n - 1)])
    else:
        current, target = poses[int(rng.integers(0, n))], poses[int(rng.integers(0, n))]
        grip, fb_grip = float(rng.choice([0.0, 1.0])), float(rng.choice([0.0, 1.0]))
    a_il = action_delta(current, grip, target, fb_grip) / scale
    return traj, current, grip, t_now, a_il, scale


class TestReattachMatchesOracle:
    """The table-first scan picks what the scan as first shipped picks.

    BLAS may round a row's dot product differently with the batch it sits
    in, so a similarity can move by an ulp between the two scans; tau is
    drawn next to the similarity values, but outside that rounding band.
    """

    def test_fuzzed_instances(self):
        rng = np.random.default_rng(2024)
        picks = {"none": 0, "last": 0, "other": 0}
        ties = 0
        for trial in range(2400):
            traj, current, grip, t_now, a_il, scale = fuzz_reattach_instance(rng, trial % 4)
            n, start = len(traj), t_now + 1
            state = state_with_scale(traj, scale)
            state.ff_cursor = t_now
            taus = [TAU_REATTACH, float(rng.uniform(-0.2, 0.95))]
            if start < n:
                p, r, g = traj.positions, traj.rotations, traj.gripper
                att = reattach_row_deltas(
                    current.position, current.rotation.as_matrix(), grip, p[start:], r[start:], g[start:]
                ) / scale
                lo = np.minimum(np.arange(start, n), n - 2)
                rec = reattach_row_deltas(p[lo], r[lo], g[lo], p[lo + 1], r[lo + 1], g[lo + 1]) / scale
                # the table holds the recorded rows the first scan gathered, bit for bit
                assert np.array_equal(state.recorded.rows[start:], rec)
                att_sims = reattach_similarities(att, a_il)
                rec_sims = reattach_similarities(rec, a_il)
                near = float(rng.choice(np.concatenate([att_sims, rec_sims])))
                taus.append(near + float(rng.choice([-1e-12, 1e-12])))
            for tau in taus:
                want = select_reattach_oracle(traj, current, grip, t_now, a_il, scale, tau)
                assert select_reattach(state, current, grip, a_il, tau) == want, (trial, tau)
                picks["none" if want is None else "last" if want == n - 1 else "other"] += 1
                if want is not None:
                    feasible = (att_sims > tau) & (rec_sims > tau)
                    ties += int(np.sum(att_sims[feasible] == att_sims[want - start]) > 1)
        assert min(picks.values()) >= 300, picks
        assert ties >= 30, ties


def candidates(state, a_il, tau):
    """The points past the cursor whose recorded action agrees with a_il above tau."""
    start = state.ff_cursor + 1
    return start + np.flatnonzero(state.recorded[start:].similarity(a_il) > tau)


def attach_l1_floor(state, points, current, grip):
    """The smallest lower bound select_reattach's certificate puts on the points' normalized attach L1."""
    traj, scale = state.ff_trajectory, state.scale
    chord = np.sqrt(np.square(traj.rotations[points] - current.rotation.as_matrix()).sum(axis=(1, 2)) / 2.0)
    low = (np.abs(traj.positions[points] - current.position) / scale[:3]).sum(axis=1)
    low += np.abs(traj.gripper[points] - grip) / scale[6] + (chord - _CHORD_SLACK) / scale[3:6].max()
    return float(low.min())


def cutoff(a_il, tau):
    """The attach L1 at or past which a row scores no more than tau against a_il, with the certificate's margin."""
    return float(np.abs(a_il).sum()) * (2.0 - tau) / tau * (1.0 + 1e-9)


class TestReattachCertificate:
    """select_reattach proves a scan empty from positions, grippers and rotation chords before it builds any
    attach row; fired or not, it picks what the scan as first shipped picks, and raises where that scan raises."""

    TAUS = (-0.2, 0.0, 0.1, 0.5, 0.95)

    @staticmethod
    def scan(monkeypatch, state, current, grip, a_il, tau):
        """select_reattach's pick and whether it built attach rows."""
        calls = []

        def counted(*args):
            calls.append(1)
            return _row_deltas(*args)

        monkeypatch.setattr(ensemble, "_row_deltas", counted)
        pick = select_reattach(state, current, grip, a_il, tau)
        monkeypatch.setattr(ensemble, "_row_deltas", _row_deltas)
        return pick, bool(calls)

    @staticmethod
    def far_instance(rng, traj, state, t_now):
        """A state well off the trajectory, fed an action like one recorded past the cursor."""
        turn = Rotation(rotvec_matrices(rng.normal(0.0, 1.0, 3)))
        current = Pose(traj.positions[t_now] + rng.normal(0.0, float(rng.choice([0.3, 1.0])), 3), turn)
        j = int(rng.integers(min(t_now + 1, len(traj) - 1), len(traj)))
        row = state.recorded.rows[j] * float(rng.uniform(0.9, 1.1)) + rng.normal(0.0, 0.005, 7)
        return current, float(rng.choice([0.0, 1.0])), row

    def test_fuzzed_far_near_and_zero_feedback(self, monkeypatch):
        rng = np.random.default_rng(77)
        fired = picked = 0
        for trial in range(600):
            traj, current, grip, t_now, a_il, scale = fuzz_reattach_instance(rng, trial % 4)
            state = state_with_scale(traj, scale)
            state.ff_cursor = t_now
            # the current rotation tripled: scipy projects it back, and its chord to the trajectory means nothing
            tripled = Pose(current.position, Rotation(3.0 * current.rotation.as_matrix()))
            cases = [(current, grip, a_il), self.far_instance(rng, traj, state, t_now), (tripled, grip, a_il)]
            cases.append((current, grip, np.zeros(7)))
            for current, grip, a_il in cases:
                for tau in self.TAUS:
                    want = select_reattach_oracle(traj, current, grip, t_now, a_il, scale, tau)
                    got, built = self.scan(monkeypatch, state, current, grip, a_il, tau)
                    assert got == want, (trial, tau)
                    fired += bool(candidates(state, a_il, tau).size) and not built
                    picked += want is not None
        assert fired >= 600 and picked >= 800, (fired, picked)

    def test_bound_within_1e12_of_the_cutoff(self, monkeypatch):
        # a state near the trajectory moved off along a ray until the certificate's bound over the whole suffix
        # sits 1e-12 (relative) either side of its cutoff: below it the scan must build attach rows for the
        # recorded filter's candidates, at or above it it may not; a_il, and with it the candidates, stays as it is
        rng = np.random.default_rng(78)
        sides = {-1.0: 0, 1.0: 0}
        for trial in range(300):
            traj, current, grip, t_now, _, scale = fuzz_reattach_instance(rng, trial % 3)
            state = state_with_scale(traj, scale)
            state.ff_cursor = t_now
            a_il = self.far_instance(rng, traj, state, t_now)[2]
            tau, side = float(rng.choice([0.1, 0.5, 0.95])), float(rng.choice([-1.0, 1.0]))
            cand, target = candidates(state, a_il, tau), cutoff(a_il, tau) * (1.0 + side * 1e-12)
            suffix, ray = np.arange(t_now + 1, len(traj)), rng.normal(0.0, 0.1, 3)

            def moved(lam):
                return Pose(current.position + lam * ray, current.rotation)

            def floor_at(lam):
                return attach_l1_floor(state, suffix, moved(lam), grip)

            if not cand.size or not target > 0.0 or floor_at(0.0) >= target:
                continue
            lo, hi = 0.0, 1.0
            while floor_at(hi) < target:
                hi *= 2.0
            while lo < (mid := (lo + hi) / 2.0) < hi:  # the floor is continuous in lam: bisect to adjacent floats
                lo, hi = (mid, hi) if floor_at(mid) < target else (lo, mid)
            lam = hi if side > 0.0 else lo  # at or past the cutoff, or short of it
            assert abs(floor_at(lam) / cutoff(a_il, tau) - 1.0) < 2e-12
            want = select_reattach_oracle(traj, moved(lam), grip, t_now, a_il, scale, tau)
            got, built = self.scan(monkeypatch, state, moved(lam), grip, a_il, tau)
            assert got == want, (trial, tau, side)
            assert built == (side < 0.0), (trial, tau, side)
            sides[side] += 1
        assert min(sides.values()) >= 80, sides

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("where", ["position", "rotation", "gripper", "current gripper"])
    def test_non_finite_attach_row_still_raises(self, monkeypatch, bad, where):
        # a non-finite current gripper, in a far scan the bound proves empty while the gripper is finite, raises
        # as the first scan does. The trajectory cannot go bad after the state checked it: the state holds a
        # read-only copy, so a write into it raises, and a caller's later write to its own arrays misses it
        rng = np.random.default_rng(79)
        checked = 0
        for trial in range(40):
            traj, _, _, t_now, _, scale = fuzz_reattach_instance(rng, 0)
            state = state_with_scale(traj, scale)
            current, grip, a_il = self.far_instance(rng, traj, state, t_now)
            cand = candidates(state, a_il, TAU_REATTACH)
            if not cand.size or self.scan(monkeypatch, state, current, grip, a_il, TAU_REATTACH)[1]:
                continue
            k = int(rng.choice(cand))
            if where == "current gripper":
                with np.errstate(invalid="ignore"):  # inf - inf in the matmuls and dets
                    with pytest.raises(ValueError):
                        select_reattach_oracle(traj, current, bad, t_now, a_il, scale, TAU_REATTACH)
                    with pytest.raises(ValueError):
                        select_reattach(state, current, bad, a_il, TAU_REATTACH)
            else:
                name, index = {"position": ("positions", (k, 1)), "rotation": ("rotations", (k, 1, 2))}.get(
                    where, ("gripper", k)
                )
                with pytest.raises(ValueError, match="read-only"):
                    getattr(state.ff_trajectory, name)[index] = bad
                getattr(traj, name)[index] = bad
                assert np.isfinite(getattr(state.ff_trajectory, name)).all()
                want = select_reattach_oracle(state.ff_trajectory, current, grip, t_now, a_il, scale, TAU_REATTACH)
                assert select_reattach(state, current, grip, a_il, TAU_REATTACH) == want
            checked += 1
        assert checked >= 10, checked

    def test_trajectory_rotations_must_be_proper(self):
        traj = line_traj(5)
        traj.rotations[2] *= 1.001  # scipy would project it; the chord bound would not hold
        with pytest.raises(ValueError, match="determinant"):
            EnsembleState.initial(traj)

    @pytest.mark.parametrize("stretch, proper", [(4e-10, True), (4e-6, False)])
    def test_trajectory_rotations_orthonormal_to_1e9(self, stretch, proper):
        # a gramian diagonal 2 * stretch from 1; np.allclose's default rtol once let 8e-6 through
        traj = line_traj(5)
        traj.rotations[2] = np.diag([1.0 + stretch, 1.0 - stretch, 1.0])
        if proper:
            EnsembleState.initial(traj)
        else:
            with pytest.raises(ValueError, match="orthonormal"):
                EnsembleState.initial(traj)


def counting_floors(monkeypatch):
    """A list that gains an entry each time select_reattach bounds a suffix."""
    calls = []
    real = ensemble._attach_floor
    monkeypatch.setattr(ensemble, "_attach_floor", lambda *args: calls.append(1) or real(*args))
    return calls


class TestReattachAnchor:
    """Across scans of one state, the anchor select_reattach leaves, less how far the arm has moved since, lets the
    pre-check prove a feedback step's scan empty; a scan it cannot prove empty is the full scan, and every pick is
    the first-shipped scan's."""

    def test_scan_sequences_match_the_oracle(self):
        # the current position, rotation and gripper walk, the cursor jumps now and then (back as well as on),
        # and the feedback action is now one recorded past the cursor, now a step all or part of the way to a
        # trajectory point; that step goes through the pre-check first, as in ensemble_step, and the scan runs only
        # where it does not fire (never the whole way to a point past the cursor: that point's attach row is the action)
        rng = np.random.default_rng(80)
        scans = picked = proved = 0
        for trial in range(140):
            traj, current, grip, t_now, a_il, scale = fuzz_reattach_instance(rng, 0)
            state = state_with_scale(traj, scale)
            n = len(traj)
            if trial % 2:
                current, grip, _ = TestReattachCertificate.far_instance(rng, traj, state, t_now)
            x, rot = current.position, current.rotation
            step = float(rng.choice([0.002, 0.02]))
            for _ in range(40):
                x = x + rng.normal(0.0, step, 3)
                rot = Rotation(rotvec_matrices(rng.normal(0.0, 5.0 * step, 3))) @ rot
                grip = grip if rng.random() < 0.8 else float(rng.choice([0.0, 1.0, rng.uniform()]))
                if rng.random() < 0.1:
                    state.ff_cursor = int(rng.integers(0, n))
                pose, j = Pose(x, rot), int(rng.integers(min(state.ff_cursor + 1, n - 1), n))
                tau = float(rng.choice([0.1, 0.5, 0.95]))
                if rng.random() < 0.5:
                    a_il = state.recorded.rows[j] * float(rng.uniform(0.5, 1.5))
                else:
                    f, tau = float(rng.choice([1.0, 0.2, 0.05])), TAU_REATTACH
                    turn = (rot.inverse() @ traj.pose(j).rotation).power(f)
                    toward = Pose(x + f * (traj.positions[j] - x), rot @ turn)
                    goal = Action(toward, grip + f * (traj.gripper[j] - grip))
                    a_il = action_delta(pose, grip, goal.pose, goal.gripper) / scale
                    if ensemble._scan_proved_empty(state, pose, grip, goal):
                        assert select_reattach_oracle(traj, pose, grip, state.ff_cursor, a_il, scale, tau) is None
                        proved += 1
                        continue
                want = select_reattach_oracle(traj, pose, grip, state.ff_cursor, a_il, scale, tau)
                assert select_reattach(state, pose, grip, a_il, tau) == want, (trial, tau)
                scans += 1
                picked += want is not None
        # the pre-check ended 870 of the 2809 steps toward a trajectory point (31 %) when this was written
        assert picked >= 300 and proved >= 600, (picked, proved, scans)

    def test_cursor_moved_back_bounds_the_longer_suffix(self, monkeypatch):
        # anchored on the last point alone, far from the arm; with the cursor back at the start the point just
        # ahead of the arm is a perfect reattach, which an anchor over the shorter suffix would hide
        traj = line_traj(10)
        state = EnsembleState.initial(traj)
        a_il = state.recorded.rows[1]
        floors = counting_floors(monkeypatch)
        state.ff_cursor = 8
        assert select_reattach(state, traj.pose(1), 1.0, a_il) is None and len(floors) == 1
        state.ff_cursor = 0
        assert select_reattach_oracle(traj, traj.pose(1), 1.0, 0, a_il, state.scale, TAU_REATTACH) == 2
        assert select_reattach(state, traj.pose(1), 1.0, a_il) == 2 and len(floors) == 2


def precheck_cutoff(state, pose, grip, goal):
    """The cutoff at TAU_REATTACH of the pre-check's bound on the feedback action's L1, in numpy."""
    s, here, there = state.scale, pose.rotation.as_matrix(), goal.pose.rotation.as_matrix()
    linear = (np.abs(goal.pose.position - pose.position) / s[:3]).sum() + abs(goal.gripper - grip) / s[6]
    chord = np.linalg.norm(here - there) / np.sqrt(2.0) + _CHORD_SLACK
    nb1 = (linear + np.pi / 2.0 * chord * np.sqrt(np.sum(1.0 / s[3:6] ** 2))) * (1.0 + 1e-9)
    return nb1 * (2.0 - TAU_REATTACH) / TAU_REATTACH * (1.0 + 1e-9)


def anchor_lead(state, pose, grip):
    """The anchor's minimum less how far the arm has moved since and less the rounding margin, in numpy."""
    _, floor, x0, h0, g0 = state.anchor
    s = state.scale
    moved = (np.abs(pose.position - x0) / s[:3]).sum() + abs(grip - g0) / s[6]
    moved += np.linalg.norm(pose.rotation.as_matrix().ravel() - h0) / np.sqrt(2.0) / s[3:6].max()
    return floor - moved - 1e-9 * (abs(floor) + moved)


class TestScanPrecheck:
    """ensemble_step proves a feedback scan empty before it builds the feedback action, from the anchor and a
    bound on the action's L1; whenever that proof fires, select_reattach on the built action returns None."""

    @staticmethod
    def fires(state, pose, grip, goal):
        """Whether the pre-check fires; if it does, the scan on the built action must return None. It runs on a
        copy of the state, whose anchor it rewrites."""
        if not ensemble._scan_proved_empty(state, pose, grip, goal):
            return False
        copy = dataclasses.replace(state)
        assert select_reattach(copy, pose, grip, _normalized(copy, pose, grip, goal), TAU_REATTACH) is None
        return True

    def test_fuzzed_bounds_1e12_either_side_of_the_anchor(self):
        # an anchored state moves a little in position, rotation and gripper, and a feedback action, moving or
        # turning or both, is stretched until the bound's cutoff sits 1e-12 (relative) either side of the anchor's
        # lead: below it the pre-check must fire, above it not; rotation-only and hold actions, untrusted rotations,
        # a cursor before the anchor's start or at the end, and a non-finite feedback gripper never let it fire
        rng = np.random.default_rng(82)
        sides, refused = {-1.0: 0, 1.0: 0}, 0
        for trial in range(300):
            traj, _, _, t_now, _, scale = fuzz_reattach_instance(rng, trial % 3)
            state = state_with_scale(traj, scale)
            state.ff_cursor = t_now
            current, grip, row = TestReattachCertificate.far_instance(rng, traj, state, t_now)
            select_reattach(state, current, grip, row, TAU_REATTACH)
            if state.anchor is None:
                continue
            nudge = Rotation(rotvec_matrices(rng.normal(0.0, 0.05, 3)))
            pose = Pose(current.position + rng.normal(0.0, 0.01, 3), nudge @ current.rotation)
            grip += float(rng.normal(0.0, 0.05))
            turn = Rotation(rotvec_matrices(rng.normal(0.0, 0.2, 3))) @ pose.rotation
            goal_rot = turn if trial % 2 else pose.rotation
            d, dg = rng.normal(0.0, 0.01, 3), float(rng.choice([0.0, rng.normal(0.0, 0.3)]))
            side, lead = float(rng.choice([-1.0, 1.0])), anchor_lead(state, pose, grip)
            target = lead * (1.0 + side * 1e-12)

            def goal(lam, rot=goal_rot, g=grip):
                return Action(Pose(pose.position + lam * d, rot), g + lam * dg)

            for refuse in (Action(Pose(pose.position, turn), grip), Action(pose, grip)):  # rotation-only, hold
                assert not self.fires(state, pose, grip, refuse)
            if not lead > 0.0 or precheck_cutoff(state, pose, grip, goal(0.0)) >= target:
                continue
            lo, hi = 0.0, 1.0
            while precheck_cutoff(state, pose, grip, goal(hi)) < target:
                hi *= 2.0
            while lo < (mid := (lo + hi) / 2.0) < hi:  # the cutoff grows continuously in lam: bisect to adjacent floats
                lo, hi = (mid, hi) if precheck_cutoff(state, pose, grip, goal(mid)) < target else (lo, mid)
            assert abs(precheck_cutoff(state, pose, grip, goal(lo)) / lead - 1.0) < 2e-12
            assert self.fires(state, pose, grip, goal(lo)) == (side < 0.0), (trial, side)
            sides[side] += 1
            if side > 0.0:
                continue
            # what fired above may not fire with an untrusted rotation, a cursor it cannot cover or a bad gripper
            skewed = Rotation(pose.rotation.as_matrix() * (1.0 + 1e-10))
            assert not self.fires(state, Pose(pose.position, skewed), grip, goal(lo))
            assert not self.fires(state, pose, grip, goal(lo, rot=Rotation(goal_rot.as_matrix() * (1.0 + 1e-10))))
            for bad in (np.nan, np.inf):
                assert not ensemble._scan_proved_empty(state, pose, grip, goal(lo, g=bad))
                assert not ensemble._scan_proved_empty(state, pose, bad, goal(lo))
            for cursor in (t_now - 1, len(traj) - 1) if t_now else (len(traj) - 1,):
                state.ff_cursor = cursor
                assert not self.fires(state, pose, grip, goal(lo))
            refused += 1
        assert min(sides.values()) >= 60 and refused >= 60, (sides, refused)


def perfect_feedback(traj, cursor):
    """The trajectory's own action: a feedback policy in exact agreement."""
    i = min(cursor, len(traj) - 1)
    return Action(traj.pose(i), float(traj.gripper[i]))


class TestEnsembleStep:
    def test_perfect_agreement_replays_trajectory_verbatim(self):
        traj = line_traj(12)
        state = EnsembleState.initial(traj)
        pose, grip = traj.pose(0), 1.0
        executed = []
        for step in range(12):
            act, state = ensemble_step(state, perfect_feedback(traj, step), pose, grip)
            executed.append(act)
            pose = act.pose  # kinematic: we land on the goal
        assert all(e["mode"] == "feedforward" for e in state.trace)
        assert switch_steps(state) == []
        for i, act in enumerate(executed):
            assert np.array_equal(act.pose.position, traj.pose(i).position)

    def test_disagreement_streak_switches_on_step_w(self):
        traj = line_traj(12)
        state = EnsembleState.initial(traj)
        pose, grip = traj.pose(0), 1.0
        backward = Action(Pose(pose.position - np.array([0.05, 0.0, 0.0])), 1.0)
        modes = []
        for _ in range(4):
            act, state = ensemble_step(state, backward, pose, grip)
            modes.append(state.mode)
        assert modes == ["feedforward", "feedforward", "feedback", "feedback"]
        assert switch_steps(state) == [2]

    def test_agreement_resets_streak(self):
        traj = line_traj(20)
        state = EnsembleState.initial(traj)
        pose, grip = traj.pose(0), 1.0
        backward = Action(Pose(pose.position - np.array([0.05, 0.0, 0.0])), 1.0)
        for step in range(10):
            fb = backward if step % 2 == 0 else perfect_feedback(traj, state.ff_cursor)
            _, state = ensemble_step(state, fb, pose, grip)
        assert state.mode == "feedforward"
        assert switch_steps(state) == []

    def test_reattach_waits_out_cooldown(self):
        traj = line_traj(40)
        state = EnsembleState.initial(traj)
        pose, grip = traj.pose(0), 1.0
        backward = Action(Pose(pose.position - np.array([0.05, 0.0, 0.0])), 1.0)
        # three disagreeing steps force the switch at step 2
        for _ in range(3):
            act, state = ensemble_step(state, backward, pose, grip)
            pose = act.pose
        assert state.mode == "feedback"
        # feedback now walks the recorded direction at the recorded pace, so
        # a reattach is available immediately, but the cooldown holds it
        for _ in range(10):
            fb = Action(Pose(pose.position + np.array([0.01, 0.0, 0.0])), 1.0)
            act, state = ensemble_step(state, fb, pose, grip)
            pose = act.pose
            if state.mode == "feedforward":
                break
        switches = switch_steps(state)
        assert len(switches) == 2
        assert switches[1] - switches[0] >= 5

    def test_exhaustion_flips_to_feedback_and_stays(self):
        traj = line_traj(2)
        state = EnsembleState.initial(traj)
        pose, grip = traj.pose(0), 1.0
        fb = Action(Pose(pose.position + np.array([0.01, 0.0, 0.0])), 1.0)
        for _ in range(2):
            act, state = ensemble_step(state, perfect_feedback(traj, state.ff_cursor), pose, grip)
        assert state.mode == "feedforward"
        act, state = ensemble_step(state, fb, pose, grip)
        assert state.mode == "feedback"
        assert np.array_equal(act.pose.position, fb.pose.position)  # feedback executed
        for _ in range(20):
            act, state = ensemble_step(state, fb, pose, grip)
        assert state.mode == "feedback"
        assert len(switch_steps(state)) == 1

    def test_switch_spacing_invariant_under_fuzz(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = int(rng.integers(8, 30))
            poses = [Pose(np.array([0.0, 0.0, 0.1]))]
            for _ in range(n - 1):
                poses.append(Pose(poses[-1].position + rng.normal(0, 0.008, 3)))
            traj = segment(poses, list(rng.choice([0.0, 1.0], size=n)))
            state = EnsembleState.initial(traj)
            pose, grip = poses[0], 1.0
            for _ in range(300):
                fb = Action(Pose(pose.position + rng.normal(0, 0.01, 3)), float(rng.choice([0.0, 1.0])))
                act, state = ensemble_step(state, fb, pose, grip)
                pose = act.pose
                grip = act.gripper
            switches = switch_steps(state)
            assert all(b - a >= 5 for a, b in zip(switches, switches[1:])), (trial, switches)

    def test_trace_records_every_step(self):
        traj = line_traj(5)
        state = EnsembleState.initial(traj)
        pose = traj.pose(0)
        for step in range(8):
            _, state = ensemble_step(state, perfect_feedback(traj, min(step, 4)), pose, 1.0)
        assert [e["step"] for e in state.trace] == list(range(8))
        assert all(e["mode"] in ("feedforward", "feedback") for e in state.trace)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("mode", ["feedforward", "feedback"])
    def test_non_finite_feedback_gripper_rejected(self, mode, bad):
        # feedforward scores the feedback action on every step; feedback, with its cooldown out, scans for a reattach
        traj = line_traj(8)
        state = EnsembleState.initial(traj)
        state.mode = mode
        pose = traj.pose(0)
        with pytest.raises(ValueError, match="normalized action must be finite"):
            ensemble_step(state, Action(traj.pose(1), bad), pose, 1.0)


class TestEnsembleStepMatchesOracle:
    """One flip block and a bounds check on the cursor do what three flip
    blocks and a raised TrajectoryExhausted did, bit for bit."""

    @staticmethod
    def feedback(rng, traj, state, pose, grip):
        """On the trajectory (its pose just past the cursor, sometimes nudged),
        off it (a random move), or idle."""
        u, n = rng.random(), len(traj)
        if u < 0.5:
            i = min(state.ff_cursor + int(rng.integers(0, 3)), n - 1)
            target = traj.pose(i)
            if rng.random() < 0.3:
                target = Pose(target.position + rng.normal(0.0, 0.003, 3), target.rotation)
            return Action(target, float(traj.gripper[i]))
        if u < 0.85:
            turn = Rotation(rotvec_matrices(rng.normal(0.0, 0.2, 3)))
            moved = Pose(pose.position + rng.normal(0.0, 0.02, 3), turn @ pose.rotation)
            return Action(moved, float(rng.choice([0.0, 1.0])))
        return Action(pose, grip)

    def test_fuzzed_episodes(self):
        rng = np.random.default_rng(909)
        flips = exhausted = fallbacks = 0
        for episode in range(150):
            n = int(rng.integers(2, 41))
            poses = [Pose(rng.uniform(-0.2, 0.2, 3), Rotation(rotvec_matrices(rng.normal(0.0, 1.0, 3))))]
            for _ in range(n - 1):
                step = Rotation(rotvec_matrices(rng.normal(0.0, 0.1, 3)))
                poses.append(Pose(poses[-1].position + rng.normal(0.0, 0.01, 3), step @ poses[-1].rotation))
            traj = segment(poses, list(rng.choice([0.0, 1.0], size=n)))
            got, want = EnsembleState.initial(traj), EnsembleState.initial(traj)
            pose, grip = poses[0], float(traj.gripper[0])
            for t in range(int(rng.integers(20, 80))):
                fb = self.feedback(rng, traj, got, pose, grip)
                exhausted += got.ff_cursor >= n
                # feedforward past the end while the cooldown holds the flip back
                fallbacks += got.mode == "feedforward" and got.ff_cursor >= n and got.cooldown_remaining > 1
                act, got = ensemble_step(got, fb, pose, grip)
                ref, want = ensemble_step_oracle(want, fb, pose, grip)
                where = (episode, t)
                assert np.array_equal(act.pose.position, ref.pose.position), where
                assert np.array_equal(act.pose.rotation.as_matrix(), ref.pose.rotation.as_matrix()), where
                assert act.gripper == ref.gripper, where
                for name in ("mode", "ff_cursor", "cooldown_remaining", "disagreement_streak"):
                    assert getattr(got, name) == getattr(want, name), (where, name)
                assert got.trace == want.trace, where
                flips += got.trace[-1]["switched"]
                pose, grip = act.pose, float(act.gripper)
        assert flips >= 250 and exhausted >= 1500 and fallbacks >= 30, (flips, exhausted, fallbacks)
