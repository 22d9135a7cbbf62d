"""Output checks, computed apart from the program.

Each check raises CheckFailed with a reason. Nothing here calls demoforge's
own success predicates, geometry or bandit code: goal relations use the
benchmark's own constants, rotations are checked with plain numpy, and
add-arm decisions are recomputed by the benchmark's own Thompson simulator.
The only demoforge calls are the I/O pair the round-trip check is about.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.special import betaincinv

# the desk world's task geometry, restated (see README.md, "Output checks")
POSITION_TOLERANCE = 0.02
STACK_HEIGHT = 0.04
DRAWER_CLOSED_X = 0.20
DRAWER_CLOSED_SLACK = 0.02
DRAWER_INTERIOR_DX = 0.10
MUG_IN_DRAWER = 0.04
ROTATION_TOLERANCE = 1e-9
COOLDOWN = 5
Z95 = 1.959963984540054


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


# -- generate -----------------------------------------------------------------


def _rotations(doc: dict) -> np.ndarray:
    mats = []
    for row in doc["steps"]:
        obs = row["obs"]
        mats.append(obs["robot"]["R"])
        mats.extend(o["pose"]["R"] for o in obs["objects"])
        mats.append(row["act"]["pose"]["R"])
    return np.asarray(mats, dtype=float)


def check_rotations(doc: dict) -> None:
    r = _rotations(doc)
    _require(r.ndim == 3 and r.shape[1:] == (3, 3), f"demo {doc.get('id')}: rotations are not 3x3")
    gram = np.einsum("nij,nkj->nik", r, r) - np.eye(3)
    worst = float(np.abs(gram).max())
    _require(worst <= ROTATION_TOLERANCE, f"demo {doc['id']}: rotation not orthonormal (|RR^T - I| = {worst:.2e})")
    det = np.linalg.det(r)
    _require(bool(np.all(np.abs(det - 1.0) <= ROTATION_TOLERANCE)), f"demo {doc['id']}: rotation determinant is not +1")


def goal_met(task: str, obs: dict) -> bool:
    """The task's goal relation on one recorded observation."""
    if obs["gripper"] < 0.5:
        return False
    ents = {o["name"]: o for o in obs["objects"]}
    pos = {name: np.asarray(o["pose"]["p"], dtype=float) for name, o in ents.items()}
    if task == "pick_place":
        return float(np.linalg.norm(pos["block"] - pos["target_region"])) <= POSITION_TOLERANCE
    if task in ("stack", "stack_flipped", "stack_walking"):
        bottom, top = ents["goal_region"]["color"].split(",")
        base = pos["goal_region"]
        return (
            float(np.linalg.norm(pos[bottom] - base)) <= POSITION_TOLERANCE
            and float(np.linalg.norm(pos[top] - base - [0.0, 0.0, STACK_HEIGHT])) <= POSITION_TOLERANCE
        )
    if task == "drawer_mug":
        drawer, mug = pos["drawer"], pos["mug"]
        closed = drawer[0] >= DRAWER_CLOSED_X - DRAWER_CLOSED_SLACK
        rel = mug[:2] - (drawer[:2] + [DRAWER_INTERIOR_DX, 0.0])
        return bool(closed and np.all(np.abs(rel) < MUG_IN_DRAWER))
    raise CheckFailed(f"no goal relation for task {task!r}")


def check_dataset(path, task: str, goal: int) -> dict:
    """Every line parses, rotations are proper, every demo ends at the goal,
    and there are exactly ``goal`` demos. Returns size and SHA-256."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = [line for line in data.split(b"\n") if line.strip()]
    for n, line in enumerate(lines, start=1):
        try:
            doc = json.loads(line)
        except ValueError as err:
            raise CheckFailed(f"{path} line {n} does not parse: {err}") from None
        _require(doc.get("task") == task, f"{path} line {n}: task {doc.get('task')!r}, want {task!r}")
        _require(doc.get("success") is True and isinstance(doc.get("seed"), int), f"{path} line {n}: not a seeded success")
        _require(len(doc["steps"]) >= 2, f"{path} line {n}: fewer than 2 steps")
        check_rotations(doc)
        _require(goal_met(task, doc["steps"][-1]["obs"]), f"{path} line {n}: last observation misses the {task} goal")
    _require(len(lines) == goal, f"{path}: {len(lines)} demos, goal was {goal}")
    return {"demos": len(lines), "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def check_conservation(report) -> None:
    pulls = sum(row["n_suc"] + row["n_fail"] for row in report.per_arm)
    discarded = report.new_arm_attempts - report.new_arm_successes
    _require(
        pulls + discarded == report.total_rollouts,
        f"rollouts not conserved: {pulls} pulls + {discarded} discarded mints != {report.total_rollouts}",
    )
    _require(report.successes == report.goal_successes, f"{report.successes} successes, goal {report.goal_successes}")


# -- audit --------------------------------------------------------------------


def check_round_trip(path, scratch_path) -> None:
    from demoforge.campaign import read_dataset, write_dataset

    write_dataset(read_dataset(path), scratch_path)
    with open(path, "rb") as a, open(scratch_path, "rb") as b:
        _require(a.read() == b.read(), f"{path}: write_dataset(read_dataset(p)) differs from p")


def check_audit(result, demos: int) -> None:
    _require(result.total == demos, f"audit saw {result.total} demos, dataset has {demos}")
    _require(result.replayed_ok == demos and not result.failed_ids, f"demos failed to replay: {result.failed_ids}")


# -- bandit -------------------------------------------------------------------


def thompson_totals(prob_sets: np.ndarray, counts, steps: int, eval_seed: int, also_at: int | None = None):
    """Mean successes of ``steps`` Thompson pulls over the k sampled truths.

    Posterior draws invert the regularised incomplete beta on uniforms
    drawn (k, n) then k per step from ``eval_seed``. With ``also_at`` the
    mean after that many steps is returned too, from the same pass.
    """
    k, n = prob_sets.shape
    rng = np.random.default_rng(eval_seed)
    a = np.tile(np.array([c[0] for c in counts], dtype=float) + 1.0, (k, 1))
    b = np.tile(np.array([c[1] for c in counts], dtype=float) + 1.0, (k, 1))
    rows = np.arange(k)
    wins = np.zeros(k)
    at = 0.0
    for step in range(steps):
        if step == also_at:
            at = float(wins.mean())
        u_theta = rng.random((k, n))
        u_out = rng.random(k)
        pick = np.argmax(betaincinv(a, b, u_theta), axis=1)
        won = u_out < prob_sets[rows, pick]
        a[rows, pick] += won
        b[rows, pick] += ~won
        wins += won
    if also_at == steps:
        at = float(wins.mean())
    return float(wins.mean()), at


def recompute_decision(d: dict) -> dict:
    """The add-arm decision from its recorded inputs and shared seed."""
    state = d["rng"]
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    rng = np.random.Generator(bit_generator)
    k, T, counts = d["k"], d["T"], [tuple(c) for c in d["counts"]]
    prob = np.empty((k, len(counts)))
    for i, (s, f) in enumerate(counts):
        prob[:, i] = rng.beta(s + 1, f + 1, size=k)
    p_new = rng.beta(d["alpha"], d["beta"], size=k)
    eval_seed = int(rng.integers(2**63))
    e_stay, e_keep = thompson_totals(prob, counts, T, eval_seed, also_at=T - 1)
    e_with_new, _ = thompson_totals(np.column_stack([prob, p_new]), counts + [(1, 0)], T - 1, eval_seed)
    p_add = (d["new_arm_successes"] + 1) / (d["new_arm_attempts"] + 2)
    e_add = p_add * (1.0 + e_with_new) + (1.0 - p_add) * e_keep
    return {"answer": bool(e_add > e_stay), "e_stay": e_stay, "e_keep": e_keep, "e_add": e_add}


def check_decision(d: dict) -> None:
    if not isinstance(d["rng"], dict):
        raise CheckFailed(f"decision rng was passed as {type(d['rng']).__name__}, not a generator")
    r = recompute_decision(d)
    _require(r["answer"] == d["answer"], f"add-arm decision at T={d['T']}: program said {d['answer']}, recomputed {r['answer']}")
    _require(r["e_keep"] <= r["e_stay"] <= d["T"], f"add-arm decision at T={d['T']}: e_keep {r['e_keep']} e_stay {r['e_stay']}")


# -- evaluate -----------------------------------------------------------------


def wilson(successes: int, trials: int) -> tuple[float, float]:
    p = successes / trials
    denom = 1.0 + Z95 * Z95 / trials
    center = (p + Z95 * Z95 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / trials + Z95 * Z95 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def check_eval(report, trials: int) -> None:
    _require(report.n_trials == trials, f"evaluation ran {report.n_trials} trials, asked {trials}")
    _require(0 <= report.successes <= trials, "successes outside [0, trials]")
    _require(report.rate == report.successes / trials, "rate is not successes / trials")
    lo, hi = wilson(report.successes, trials)
    _require(
        abs(lo - report.ci_low) <= 1e-12 and abs(hi - report.ci_high) <= 1e-12,
        f"Wilson interval [{report.ci_low}, {report.ci_high}], recomputed [{lo}, {hi}]",
    )


def check_episode(ep: dict, disturbance_step: int) -> None:
    _require(ep["steps"] > disturbance_step, f"episode ended at step {ep['steps']} before the disturbance at {disturbance_step}")
    gaps = np.diff(ep["switch_steps"])
    _require(bool(np.all(gaps >= COOLDOWN)), f"mode switches closer than {COOLDOWN} steps: {ep['switch_steps']}")


def sequence_digest(events) -> str:
    return hashlib.sha256(json.dumps(list(events)).encode()).hexdigest()
