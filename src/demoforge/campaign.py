"""Campaign orchestration: mint annotations, retarget, warp, roll out, persist.

The generation loop treats each annotation as a bandit arm and each rollout
as one Bernoulli pull. Successful rollouts land in a JSON-lines dataset with
enough provenance to replay them from their reset seed; the bandit state is
checkpointed after every rollout so an interrupted campaign resumes without
losing work.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np
from scipy.special import ndtri

from . import simworld
from .annotation import (
    Annotation,
    AnnotationFailed,
    TaskDescription,
    create_annotation,
    repair_annotation,
    scripted_annotate,
)
from .bandit import (
    Arm,
    BanditState,
    decide_new_arm,
    estimate_horizon,
    fit_arm_prior,
    record_outcome,
    thompson_select,
)
from .demos import Action, Demonstration, TrajectorySegment
from .ensemble import EnsembleState, ensemble_step
from .gateway import GatewayError
from .geometry import check_rotation_matrices
from .retargeting import RetargetFailed, retarget, scripted_retarget
from .simworld import (
    BUNDLED_TASKS,
    TaskSpec,
    inject_disturbance,
    record_demo,
    reset,
    rollout,
    scripted_action,
    step,
    success,
)
from .warping import warp_trajectory_by_keyposes

TASK_DESCRIPTIONS = {
    "pick_place": "Pick up the block and place it inside the goal region.",
    "stack": "Stack the two blocks on the goal region in the tagged color order.",
    "stack_flipped": "Stack the two blocks on the goal region in the tagged color order.",
    "stack_walking": "Stack the two slowly drifting blocks on the goal region in the tagged color order.",
    "drawer_mug": "Open the drawer, put the mug inside, and close it.",
}

_Z95 = float(ndtri(0.975))

# seed-stream tags: every random decision derives from (campaign seed, tag,
# counter), so a resumed campaign replays the identical stream
_TAG_SCENE = 11
_TAG_MINT = 23
_TAG_NOISE = 37
_TAG_DECIDE = 41
_TAG_THOMPSON = 53
_TAG_PRIOR = 67
_TAG_EVAL = 79


class ConfigError(ValueError):
    """Bad campaign configuration; the CLI maps this to exit code 2."""


class SchemaViolation(ValueError):
    """A dataset line that does not parse into a demonstration."""

    def __init__(self, line: int, why: str):
        self.line = line
        super().__init__(f"line {line}: {why}")


def _seeded(seed: int, tag: int, *counters: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, *map(int, counters)]))


def _derived_seed(seed: int, tag: int, n: int) -> int:
    return int(np.random.SeedSequence([int(seed), tag, int(n)]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Dataset persistence: JSON lines, one demonstration per line. Each line is, byte
# for byte, what json.dumps(doc, separators=(",", ":")) writes for the document
# {"id", "task", "seed", "success", "provenance", "steps"}, keys in that order:
# a step is {"obs":{"robot":P,"gripper":g,"objects":[{"name","pose":P,"color"},..]},
# "act":{"pose":P,"gripper":g}} and a pose P is {"p":[x,y,z],"R":[[..],[..],[..]]}.
# Floats are float.__repr__, NaN and Infinity as json writes them, so
# read(write(demos)) is identical bit for bit. Pose rows repeat (entities at rest,
# a held grasp), so each distinct row of a line is formatted once, keyed on its
# bytes: -0.0 == 0.0, but the two print apart.

_JSON = json.JSONEncoder(separators=(",", ":")).encode
_POSE = '{"p":[%r,%r,%r],"R":[[%r,%r,%r],[%r,%r,%r],[%r,%r,%r]]}'
_OBJECT = '{"name":%s,"pose":%s,"color":%s}'
_STEP = '{"obs":{"robot":%s,"gripper":%s,"objects":[%s]},"act":{"pose":%s,"gripper":%s}}'
_LINE = '{"id":%s,"task":%s,"seed":%s,"success":%s,"provenance":%s,"steps":[%s]}'


def _pose_texts(positions: np.ndarray, rotations: np.ndarray) -> list[str]:
    rows = np.concatenate([positions, rotations.reshape(-1, 9)], axis=1, dtype=float)
    ids: dict[bytes, int] = {}
    index = [ids.setdefault(key, len(ids)) for key in rows.view(np.dtype((np.void, 96))).ravel().tolist()]
    distinct = np.frombuffer(b"".join(ids), dtype=float).reshape(-1, 12)
    texts = [
        _POSE % tuple(r) if finite else '{"p":%s,"R":%s}' % (_JSON(r[:3]), _JSON([r[3:6], r[6:9], r[9:]]))
        for r, finite in zip(distinct.tolist(), np.isfinite(distinct).all(axis=1).tolist())
    ]
    return [texts[i] for i in index]


def demo_line(demo: Demonstration) -> str:
    """The dataset line of one demo, without its newline."""
    n, m = len(demo), len(demo.entity_names)
    poses = _pose_texts(
        np.concatenate([demo.robot.positions, demo.actions.positions, demo.entity_positions.reshape(-1, 3)]),
        np.concatenate([demo.robot.rotations, demo.actions.rotations, demo.entity_rotations.reshape(-1, 3, 3)]),
    )
    grippers = _JSON(demo.robot.gripper.tolist() + demo.actions.gripper.tolist())[1:-1].split(",")
    names, colors = [_JSON(name) for name in demo.entity_names], [_JSON(color) for color in demo.entity_colors]
    objects = [_OBJECT % row for row in zip(names * n, poses[2 * n :], colors * n)]
    objects = [",".join(objects[t * m : t * m + m]) for t in range(n)]
    steps = ",".join(map(_STEP.__mod__, zip(poses[:n], grippers[:n], objects, poses[n : 2 * n], grippers[n:])))
    meta = map(_JSON, (demo.demo_id, demo.task, demo.seed, demo.success, demo.provenance))
    return _LINE % (*meta, steps)


# Reading mirrors demo_line. A line in exactly its form splits, around each pose
# text and the gripper after it, into a header, the same glue at every step and a
# tail. Each distinct pose and gripper text is parsed once with float, as json
# parses a number with a fraction or an exponent. Any other line (NaN, Infinity,
# whitespace, other key orders, each malformed line) goes through json.loads and
# demo_from_doc, so both paths read a document the same way. _POSE_SPLIT finds a
# pose as four runs of text between "]"s, far quicker than [^{}]* would.
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_STRING = r'"(?:[^"\\\x00-\x1f]|\\["\\/bfnrt]|\\u[0-9a-fA-F]{4})*"'
_POSE_SPLIT = re.compile(r'\{"p":\[([^]]*\][^]]*\][^]]*\][^]]*)\]\]\}(?:,"gripper":([^,}]*))?')
_POSE_BODY = re.compile(re.escape(_POSE[6:-3]).replace("%r", f"({_NUMBER})"))
_OBJECT_TOKENS = re.compile(re.escape(_OBJECT) % (f"({_STRING})", "0", f"({_STRING}|null)"))
_STEP_OPEN, _STEP_CLOSE = _STEP[: _STEP.index("%s")], _STEP[_STEP.rindex("%s") + 2 :]
_NEXT_STEP, _HEAD_END, _TAIL = _STEP_CLOSE + "," + _STEP_OPEN, ',"steps":[' + _STEP_OPEN, _STEP_CLOSE + "]}"


def _canonical_demo(line: str) -> Demonstration | None:
    """The demo of a line in demo_line's form, checked as demo_from_doc checks it; None for any other line."""
    parts = _POSE_SPLIT.split(line.rstrip("\r\n"))
    glue, bodies, grippers = parts[0::3], parts[1::3], parts[2::3]
    # step 0's poses: the robot's, one per entity, the action's (a line of one step fails every check below)
    s = glue.index(_NEXT_STEP, 1) if _NEXT_STEP in glue[1:] else len(glue)
    n, m, cycle = len(bodies) // s, s - 2, glue[1 : s + 1]
    step = _STEP_OPEN + "".join(
        "0" + ',"gripper":0' * (g is not None) + text for g, text in zip(grippers, cycle[:-1] + [_STEP_CLOSE])
    )
    entities = _OBJECT_TOKENS.findall(step)
    objects = ",".join(_OBJECT % (name, 0, color) for name, color in entities)
    robot, act = grippers[0::s], grippers[s - 1 :: s]
    if len(bodies) != n * s or step != _STEP % (0, 0, objects, 0, 0) or not glue[0].endswith(_HEAD_END):
        return None
    if glue[1:] != cycle * (n - 1) + cycle[:-1] + [_TAIL] or grippers.count(None) != n * m or None in robot + act:
        return None
    ids: dict[str, int] = {}
    index = [ids.setdefault(body, len(ids)) for body in bodies]
    poses = [_POSE_BODY.fullmatch(body) for body in ids]
    values = {g: re.fullmatch(_NUMBER, g) and float(g) for g in set(robot + act)}
    if None in poses or None in values.values():
        return None
    try:
        header = json.loads(glue[0][: -len(_HEAD_END)] + "}")
    except ValueError:
        return None
    if list(header) != ["id", "task", "seed", "success", "provenance"]:
        return None
    _check_header(header)
    table = np.array([list(map(float, pose.groups())) for pose in poses])
    order = np.array(index).reshape(n, s)
    order = np.concatenate([order[:, 0], order[:, -1], order[:, 1:-1].ravel()])  # robot track, actions, entities
    rotations = table[order, 3:].reshape(-1, 3, 3)
    check_rotation_matrices(rotations)
    grippers = np.array([[values[g] for g in robot], [values[g] for g in act]])
    entities = [(json.loads(name), json.loads(color)) for name, color in entities]
    return _demo(header, entities, table[order, :3], rotations, grippers)


def _check_header(doc: dict) -> None:
    # replay resets the world from these two, so they are checked where they enter
    if doc["task"] not in BUNDLED_TASKS:
        raise ValueError(f"unknown task {doc['task']!r}")
    _check_int("seed", doc["seed"], 0)
    for name, kind, what in (("id", str, "a string"), ("success", bool, "a bool"), ("provenance", dict, "an object")):
        if not isinstance(doc[name], kind):
            raise ValueError(f"{name} must be {what}, got {doc[name]!r}")


def _check_json_numbers(*columns) -> None:
    # np.asarray(column, dtype=float) takes "0.25", True and None as well
    for value in (v for column in columns for v in np.asarray(column, dtype=object).flat):
        if type(value) not in (int, float):
            raise ValueError(f"pose entries and grippers must be JSON numbers, got {value!r}")


def _demo(doc: dict, entities: list, positions, rotations, grippers) -> Demonstration:
    """The demo of a checked header and its pose columns: robot track, actions, then entities."""
    if not (np.isfinite(positions).all() and np.isfinite(grippers).all()):
        raise ValueError("positions and grippers must be finite")
    n, m = grippers.shape[1], len(entities)
    return Demonstration(
        task=doc["task"],
        actions=TrajectorySegment(positions[n : 2 * n], rotations[n : 2 * n], grippers[1]),
        robot=TrajectorySegment(positions[:n], rotations[:n], grippers[0]),
        entity_names=tuple(name for name, _ in entities),
        entity_colors=tuple(color for _, color in entities),
        entity_positions=positions[2 * n :].reshape(n, m, 3),
        entity_rotations=rotations[2 * n :].reshape(n, m, 3, 3),
        demo_id=doc["id"],
        seed=doc["seed"],
        success=doc["success"],
        provenance=dict(doc["provenance"]),
    )


def demo_from_doc(doc: dict) -> Demonstration:
    _check_header(doc)
    obs = [row["obs"] for row in doc["steps"]]
    acts = [row["act"] for row in doc["steps"]]
    n = len(obs)
    if n < 2:
        raise ValueError(f"demonstration needs at least 2 steps, got {n}")
    entities = [(o["name"], o["color"]) for o in obs[0]["objects"]]
    if not all(isinstance(name, str) and (color is None or isinstance(color, str)) for name, color in entities):
        raise ValueError(f"entity names must be strings and colours strings or null, got {entities!r}")
    for t, o in enumerate(obs):
        if [(e["name"], e["color"]) for e in o["objects"]] != entities:
            raise ValueError(f"step {t}: entity names, colours or count differ from step 0")
    # every pose of the demo as one column: robot track, actions, then entities
    pose_docs = [o["robot"] for o in obs] + [a["pose"] for a in acts] + [e["pose"] for o in obs for e in o["objects"]]
    position_docs, rotation_docs = [d["p"] for d in pose_docs], [d["R"] for d in pose_docs]
    positions = np.asarray(position_docs, dtype=float)
    if positions.shape != (len(pose_docs), 3):
        raise ValueError(f"positions must stack as ({len(pose_docs)}, 3), got {positions.shape}")
    rotations = np.asarray(rotation_docs, dtype=float)
    _check_json_numbers(position_docs, rotation_docs)
    check_rotation_matrices(rotations)
    gripper_docs = [[o["gripper"] for o in obs], [a["gripper"] for a in acts]]
    grippers = np.asarray(gripper_docs, dtype=float)
    _check_json_numbers(gripper_docs)
    return _demo(doc, entities, positions, rotations, grippers)


def write_dataset(demos: list[Demonstration], path) -> None:
    with open(path, "w") as fh:
        fh.writelines(demo_line(demo) + "\n" for demo in demos)


def append_demo(path, demo: Demonstration) -> None:
    with open(path, "a") as fh:
        fh.write(demo_line(demo) + "\n")


def read_dataset(path) -> list[Demonstration]:
    demos = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode()  # a UnicodeDecodeError is a ValueError, and names its line
                if line.strip():
                    demo = _canonical_demo(line)
                    demos.append(demo if demo is not None else demo_from_doc(json.loads(line)))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as err:  # deep nesting recurses
                raise SchemaViolation(line_no, str(err)) from err
    return demos


def replay_demo(demo: Demonstration) -> bool:
    """Re-execute a stored demo's actions from its recorded reset seed."""
    if demo.seed is None:
        raise ValueError(f"demo {demo.demo_id!r} has no recorded seed to replay from")
    spec = TaskSpec(demo.task)
    state, _ = reset(spec, demo.seed)
    return rollout(state, demo.actions).success


@dataclass
class AuditResult:
    total: int
    replayed_ok: int
    failed_ids: list[str]

    @property
    def all_ok(self) -> bool:
        return self.replayed_ok == self.total


def audit_dataset(path) -> AuditResult:
    """Replay every stored demo; the dataset is self-consistent iff all pass."""
    demos = read_dataset(path)
    failed = [d.demo_id for d in demos if not replay_demo(d)]
    return AuditResult(total=len(demos), replayed_ok=len(demos) - len(failed), failed_ids=failed)


# ---------------------------------------------------------------------------
# Policy evaluation.


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat, z = successes / trials, _Z95
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class EvalReport:
    n_trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float


def evaluate_policy(policy, spec: TaskSpec, n_trials: int, seed: int = 0) -> EvalReport:
    """Run ``policy(spec, scene_seed) -> bool`` over n seeded fresh scenes.

    Scene seeds depend only on (seed, trial index), so two policies
    evaluated with the same seed face identical scenes, trial for trial.
    """
    wins = 0
    for i in range(n_trials):
        wins += bool(policy(spec, _derived_seed(seed, _TAG_EVAL, i)))
    lo, hi = wilson_interval(wins, n_trials)
    return EvalReport(n_trials, wins, wins / n_trials, lo, hi)


def _warp(annotation, source_demo, keyposes):
    pairs = [[(k.t, k.pose) for k in kps] for kps in (annotation.keyposes, keyposes)]
    return warp_trajectory_by_keyposes(source_demo, *pairs)


def scripted_runner():
    """The oracle controller run closed-loop: succeeds unless the task can't."""

    def run(spec: TaskSpec, scene_seed: int) -> bool:
        state, _ = reset(spec, scene_seed)
        for _ in range(simworld.RECORD_MAX_STEPS):
            if success(state):
                return True
            step(state, scripted_action(state))
        return success(state)

    return run


def _warped_runner(execute, annotation, source_demo, noise_std, disturbance):
    """Fresh scene, retarget and warp, optional disturbance, then ``execute(state, traj, disturbances)``,
    whose outcome has ``.success``; a lambda as ``execute`` reads the module's name at each call."""

    def run(spec: TaskSpec, scene_seed: int) -> bool:
        state, scene = reset(spec, scene_seed)
        rng = _seeded(scene_seed, _TAG_NOISE, 0)
        traj = _warp(annotation, source_demo, scripted_retarget(annotation, scene, source_demo.scene, noise_std, rng))
        dist = disturbance(traj) if disturbance else None
        return execute(state, traj, dist).success

    return run


def feedforward_runner(annotation, source_demo, noise_std: float = 0.0, disturbance=None):
    """Open-loop replay of the warped trajectory on a fresh scene.

    ``disturbance`` maps the warped trajectory to (point_index, object,
    delta) triples, so perturbations can be placed relative to e.g. the
    grasp timestep of this particular trajectory.
    """
    return _warped_runner(lambda *args: rollout(*args), annotation, source_demo, noise_std, disturbance)


def ensemble_runner(annotation, source_demo, noise_std: float = 0.0, disturbance=None):
    """Warped trajectory plus scripted feedback under the switching ensemble."""
    return _warped_runner(lambda *args: run_ensemble_episode(*args), annotation, source_demo, noise_std, disturbance)


@dataclass
class EpisodeOutcome:
    success: bool
    steps: int
    ensemble: EnsembleState


def run_ensemble_episode(state, traj: TrajectorySegment, disturbances=None) -> EpisodeOutcome:
    """Step ``state`` in place under the feedforward/feedback switching machine.

    The scripted controller provides the feedback action each step; when it
    has nothing to say (it believes the task is done) the ensemble is fed a
    hold-position action. ``disturbances`` are (env step, object, delta),
    applied in list order just before their step.
    """
    es = EnsembleState.initial(traj)
    for i in range(2 * len(traj) + 400):
        if success(state):
            break
        for idx, obj, delta in disturbances or ():
            if idx == i:
                inject_disturbance(state, obj, delta)
        fb = scripted_action(state) or Action(state.robot_pose, state.gripper)
        act, es = ensemble_step(es, fb, state.robot_pose, state.gripper)
        step(state, act)
    return EpisodeOutcome(success=success(state), steps=len(es.trace), ensemble=es)


# ---------------------------------------------------------------------------
# The campaign itself.


def _check_int(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")


def _check_number(name: str, value, least: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")


@dataclass
class CampaignConfig:
    task: str
    goal_successes: int
    seed: int = 0
    mode: str = "bandit"  # bandit | no_optimization | fixed_first
    annotator: str = "scripted"  # scripted | llm
    retargeter: str = "scripted"  # scripted | llm
    noise_min: float = 0.001  # meters; per-annotation retarget noise floor
    noise_max: float = 0.020
    decision_samples: int = 1000  # k ground-truth sets per add-arm decision
    prior_samples: int = 1000  # m posterior samples per arm for the prior fit
    source_demo_seeds: tuple = (1001, 1002, 1003)
    max_rollouts: int | None = None
    dataset_path: str | None = None
    checkpoint_path: str | None = None

    MODES = ("bandit", "no_optimization", "fixed_first")

    def validate(self) -> None:
        if self.task not in BUNDLED_TASKS:
            raise ConfigError(f"unknown task {self.task!r}; pick one of {BUNDLED_TASKS}")
        if self.mode not in self.MODES:
            raise ConfigError(f"mode must be one of {self.MODES}, got {self.mode!r}")
        if self.annotator not in ("scripted", "llm"):
            raise ConfigError(f"annotator must be scripted or llm, got {self.annotator!r}")
        if self.retargeter not in ("scripted", "llm"):
            raise ConfigError(f"retargeter must be scripted or llm, got {self.retargeter!r}")
        for name in ("noise_min", "noise_max"):
            _check_number(name, getattr(self, name), 0.0)
        if self.noise_min > self.noise_max:
            raise ConfigError("need noise_min <= noise_max")
        for name, least in (("goal_successes", 1), ("seed", 0), ("decision_samples", 1), ("prior_samples", 1)):
            _check_int(name, getattr(self, name), least)
        if self.max_rollouts is not None:
            _check_int("max_rollouts", self.max_rollouts, 0)
        if not self.source_demo_seeds:
            raise ConfigError("need at least one source demo seed")
        for demo_seed in self.source_demo_seeds:
            _check_int("source_demo_seeds", demo_seed, 0)
        for name in ("dataset_path", "checkpoint_path"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a path string, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown, key=repr)}")
        missing = {"task", "goal_successes"} - set(doc)
        if missing:
            raise ConfigError(f"missing required config keys: {sorted(missing)}")
        doc = dict(doc)
        try:
            if "source_demo_seeds" in doc:
                doc["source_demo_seeds"] = tuple(doc["source_demo_seeds"])
            cfg = cls(**doc)
        except TypeError as err:
            raise ConfigError(str(err)) from err
        cfg.validate()
        return cfg

    def fingerprint(self) -> dict:
        """Every field but the run's cap and paths: the fields that determine the campaign's random stream."""
        run = ("max_rollouts", "dataset_path", "checkpoint_path")
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in run}
        return doc | {"source_demo_seeds": list(self.source_demo_seeds)}


@dataclass
class ArmMeta:
    """Everything needed to roll an arm out again: its annotation, whose source_demo_id
    names the demo its keyposes index, and the noise level it was minted with."""

    annotation: Annotation
    noise_std: float


@dataclass
class CampaignReport:
    task: str
    mode: str
    goal_successes: int
    total_rollouts: int
    successes: int
    new_arm_attempts: int
    new_arm_successes: int
    per_arm: list[dict]
    best_arm_rate: float
    success_rate: float
    wall_time: float
    baseline_rate: float | None = None

    def __post_init__(self):
        if self.successes > self.total_rollouts:
            raise ValueError("successes cannot exceed total rollouts")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "CampaignReport":
        return cls(**doc)

    def render_table(self) -> str:
        lines = [
            f"task: {self.task}   mode: {self.mode}",
            f"successes: {self.successes}/{self.total_rollouts} rollouts "
            f"(rate {self.success_rate:.3f}, goal {self.goal_successes})",
            f"new arms: {self.new_arm_successes} kept / {self.new_arm_attempts} attempted",
            f"best arm rate: {self.best_arm_rate:.3f}",
        ]
        if self.baseline_rate is not None:
            lines.append(f"no-optimization baseline rate: {self.baseline_rate:.3f}")
        lines += [f"wall time: {self.wall_time:.1f} s", ""]
        lines.append(f"{'arm':<24}{'successes':>10}{'failures':>10}{'noise mm':>10}")
        for row in self.per_arm:
            noise_mm = row["noise_std"] * 1000.0
            lines.append(f"{row['annotation_id']:<24}{row['n_suc']:>10}{row['n_fail']:>10}{noise_mm:>10.1f}")
        return "\n".join(lines)


def _record_source_demos(cfg: CampaignConfig) -> dict[str, Demonstration]:
    spec = TaskSpec(cfg.task)
    demos = (record_demo(spec, s, demo_id=f"{cfg.task}-src{j:02d}") for j, s in enumerate(cfg.source_demo_seeds))
    return {demo.demo_id: demo for demo in demos}


def _mint_draw(cfg: CampaignConfig, sources: dict, mint_idx: int) -> tuple[str, float]:
    """Mint mint_idx's seeded draw: the id of its source demo and its retarget noise."""
    rng = _seeded(cfg.seed, _TAG_MINT, mint_idx)
    return sorted(sources)[int(rng.integers(len(sources)))], float(rng.uniform(cfg.noise_min, cfg.noise_max))


def _mint_arm(cfg: CampaignConfig, state: BanditState, sources: dict, gateway) -> ArmMeta:
    mint_idx = state.new_arm_attempts
    source_id, noise = _mint_draw(cfg, sources, mint_idx)
    source = sources[source_id]
    if cfg.annotator == "scripted":
        ann = scripted_annotate(source, cfg.task)
    else:
        task = TaskDescription(TASK_DESCRIPTIONS[cfg.task])
        ann = create_annotation(gateway, source, task)
    return ArmMeta(annotation=replace(ann, id=f"{cfg.task}-arm{mint_idx:03d}"), noise_std=noise)


def _rollout_arm(cfg, meta: ArmMeta, source: Demonstration, scene_seed: int, rollout_idx: int, gateway):
    """One pull of an arm: fresh scene, retarget, warp, roll out; the demo to keep, or None."""
    spec = TaskSpec(cfg.task)
    state, scene = reset(spec, scene_seed)
    if cfg.retargeter == "scripted":
        rng = _seeded(cfg.seed, _TAG_NOISE, rollout_idx)
        kps = scripted_retarget(meta.annotation, scene, source.scene, meta.noise_std, rng)
    else:
        kps = retarget(gateway, meta.annotation, TaskDescription(TASK_DESCRIPTIONS[cfg.task]), scene)
    out = rollout(state, _warp(meta.annotation, source, kps))
    if not out.success:
        return None
    provenance = dict(kind="generated", annotation_id=meta.annotation.id, seed=scene_seed, noise_std=meta.noise_std)
    demo_id = f"{cfg.task}-gen{scene_seed:010d}"
    return out.recording.demonstration(cfg.task, demo_id=demo_id, seed=scene_seed, provenance=provenance)


def _should_mint(cfg: CampaignConfig, state: BanditState, rollout_idx: int) -> bool:
    if not state.arms or cfg.mode == "no_optimization":
        return True
    if cfg.mode == "fixed_first":
        return False
    T = estimate_horizon(state)
    # seeded off the posterior counts, all the fit reads, so a resumed campaign fits the same prior
    counts = [c for a in state.arms for c in (a.n_suc, a.n_fail)]
    prior = fit_arm_prior(state.arms, m=cfg.prior_samples, rng=_seeded(cfg.seed, _TAG_PRIOR, *counts))
    return decide_new_arm(
        state, T, prior, k=cfg.decision_samples, rng=_seeded(cfg.seed, _TAG_DECIDE, rollout_idx)
    )


def _write_checkpoint(cfg, state, arms_meta, rollouts, elapsed) -> None:
    if cfg.checkpoint_path is None:
        return
    doc = {
        "fingerprint": cfg.fingerprint(),
        "arms": [
            {"annotation": asdict(m.annotation), "noise_std": m.noise_std, "n_suc": arm.n_suc, "n_fail": arm.n_fail}
            for arm, m in zip(state.arms, arms_meta)
        ],
        "new_arm_attempts": state.new_arm_attempts,
        "successes": state.current_successes,
        "rollouts": rollouts,
        "elapsed": elapsed,
    }
    tmp = str(cfg.checkpoint_path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(doc))  # json.dump's bytes, from json's C encoder
    os.replace(tmp, cfg.checkpoint_path)


def _truncate_dataset(path, keep: int) -> None:
    """Cut the dataset back to its first ``keep`` complete demo lines.

    A kill between append_demo and _write_checkpoint leaves the dataset one
    demo ahead, possibly with a torn last line; the resumed campaign
    regenerates what is cut, bit for bit. Fewer complete lines than the
    checkpoint counts is a dataset that lost demos, and is refused.
    """
    try:
        with open(path, "rb+") as fh:
            have, end = 0, 0
            for line in fh:
                if have == keep or not line.endswith(b"\n"):
                    break
                end += len(line)
                have += bool(line.strip())
            if have < keep:
                raise ConfigError(f"dataset has {have} demos but checkpoint says {keep}")
            fh.truncate(end)
    except OSError as err:
        raise ConfigError(f"cannot resume into dataset {path}: {err}") from err


def _load_checkpoint(cfg: CampaignConfig, sources: dict):
    try:
        with open(cfg.checkpoint_path) as fh:
            doc = json.load(fh)
        fingerprint, records, rollouts, elapsed = doc["fingerprint"], doc["arms"], doc["rollouts"], doc["elapsed"]
        arms_meta = [ArmMeta(Annotation.from_json(r["annotation"]), r["noise_std"]) for r in records]
        # every kept mint is an arm that starts with its one success
        counts = [(k, doc[k], 0) for k in ("rollouts", "new_arm_attempts", "successes")]
        counts += [(f"arm {k}", r[k], least) for r in records for k, least in (("n_suc", 1), ("n_fail", 0))]
    except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as err:  # RecursionError: deep nesting
        raise ConfigError(f"unreadable checkpoint {cfg.checkpoint_path}: {err}") from err
    if fingerprint != cfg.fingerprint():
        raise ConfigError("checkpoint was produced by a different campaign configuration")
    for name, value, least in counts:
        _check_int(f"checkpoint {name}", value, least)
    for name, value in [("elapsed", elapsed)] + [("arm noise_std", m.noise_std) for m in arms_meta]:
        _check_number(f"checkpoint {name}", value, 0.0)
    last = -1  # each arm is the mint its id names, _mint_arm's f"{task}-arm{i:03d}", in mint order
    for ann, noise in [(m.annotation, m.noise_std) for m in arms_meta]:
        digits = ann.id.removeprefix(f"{cfg.task}-arm")
        i = int(digits) if digits.isascii() and digits.isdigit() and len(digits) <= 18 else -1
        if ann.id != f"{cfg.task}-arm{i:03d}" or not last < i < doc["new_arm_attempts"]:
            raise ConfigError(f"checkpoint arm id {ann.id!r} names no mint in ({last}, {doc['new_arm_attempts']})")
        source_id, drawn = _mint_draw(cfg, sources, i)
        if (ann.source_demo_id, repr(noise)) != (source_id, repr(drawn)):  # repr: an int 0 or -0.0 is not 0.0
            raise ConfigError(f"checkpoint arm {ann.id!r} does not hold mint {i}'s source demo and noise")
        last = i
        # every arm was minted through repair_annotation, which indexes the source demo at each keypose's t
        try:
            repaired = repair_annotation(ann, sources[ann.source_demo_id])
        except IndexError as err:
            raise ConfigError(f"checkpoint arm {ann.id!r} has a keypose past its source demo: {err}") from err
        if repaired != ann:
            raise ConfigError(f"checkpoint arm {ann.id!r} is not its own repair against {ann.source_demo_id!r}")
        # scripted retargeting anchors a keypose on its first relevant object, looked up in the source scene
        anchors = [k.objects[0] for k in ann.keyposes if k.objects]
        unknown = [name for name in anchors if name not in sources[ann.source_demo_id].entity_names]
        if cfg.retargeter == "scripted" and unknown:
            raise ConfigError(f"checkpoint arm keyposes anchor on {unknown}, not in source demo {ann.source_demo_id!r}")
    # derived, not stored: the goal from cfg (the fingerprint pins it), the kept-mint count and each arm's id
    arms = [Arm(m.annotation.id, r["n_suc"], r["n_fail"]) for m, r in zip(arms_meta, records)]
    kept, attempts, successes = len(arms), doc["new_arm_attempts"], doc["successes"]
    pulls, suc = sum(a.n_suc + a.n_fail for a in arms), sum(a.n_suc for a in arms)
    # run_campaign asserts the rollouts add up
    if not (kept <= attempts and successes == suc and pulls + attempts - kept == rollouts):
        raise ConfigError(
            f"checkpoint counts do not add up: {rollouts} rollouts, {attempts} new-arm attempts, "
            f"{kept} arms with {pulls} pulls and {suc} successes, {successes} successes recorded"
        )
    state = BanditState(arms, attempts, kept, goal_successes=cfg.goal_successes, current_successes=successes)
    return state, arms_meta, rollouts, elapsed


def run_campaign(cfg: CampaignConfig, gateway=None, resume: bool = False) -> CampaignReport:
    """Generate demonstrations until goal_successes land in the dataset.

    Each iteration either mints a new annotation (always, in no_optimization
    mode; never after the first, in fixed_first mode; by expected-value
    comparison in bandit mode) or Thompson-samples an existing arm, then
    rolls the choice out on a fresh scene. Gateway transport errors abort
    with the checkpoint already written; rerun with resume=True to continue.
    """
    cfg.validate()
    if (cfg.annotator == "llm" or cfg.retargeter == "llm") and gateway is None:
        raise ConfigError("llm annotator/retargeter needs a gateway")
    for name in ("dataset_path", "checkpoint_path"):
        path = getattr(cfg, name)
        if path is not None and (
            path == "" or os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path)))
        ):
            raise ConfigError(f"{name} {path!r} must name a file in an existing directory")
    # each checkpoint write replaces its path and removes its temp file: neither may be the dataset
    if cfg.dataset_path is not None and cfg.checkpoint_path is not None:
        checkpoint_files = (os.path.realpath(cfg.checkpoint_path), os.path.realpath(cfg.checkpoint_path + ".tmp"))
        if os.path.realpath(cfg.dataset_path) in checkpoint_files:
            raise ConfigError(f"dataset_path {cfg.dataset_path!r} is the checkpoint file or its temp file")

    sources = _record_source_demos(cfg)
    resuming = resume and cfg.checkpoint_path is not None and os.path.exists(cfg.checkpoint_path)
    if resuming:
        state, arms_meta, rollouts, elapsed_prior = _load_checkpoint(cfg, sources)
        if cfg.dataset_path is not None:
            _truncate_dataset(cfg.dataset_path, state.current_successes)
    else:
        state = BanditState(goal_successes=cfg.goal_successes)
        arms_meta, rollouts, elapsed_prior = [], 0, 0.0
        if cfg.dataset_path is not None:
            open(cfg.dataset_path, "w").close()

    t0 = time.monotonic()

    while state.current_successes < cfg.goal_successes:
        if cfg.max_rollouts is not None and rollouts >= cfg.max_rollouts:
            break
        minted = _should_mint(cfg, state, rollouts)
        scene_seed = _derived_seed(cfg.seed, _TAG_SCENE, rollouts)
        try:
            if minted:
                meta = _mint_arm(cfg, state, sources, gateway)
            else:
                pull_idx = thompson_select(state, _seeded(cfg.seed, _TAG_THOMPSON, rollouts))
                meta = arms_meta[pull_idx]
            demo = _rollout_arm(cfg, meta, sources[meta.annotation.source_demo_id], scene_seed, rollouts, gateway)
        except (AnnotationFailed, RetargetFailed):
            demo = None
        except GatewayError:
            _write_checkpoint(cfg, state, arms_meta, rollouts, elapsed_prior + time.monotonic() - t0)
            raise

        if minted:
            state.new_arm_attempts += 1
            if demo is not None:
                state.new_arm_successes += 1
                state.arms.append(Arm(meta.annotation.id, 1, 0))
                arms_meta.append(meta)
        else:
            record_outcome(state, pull_idx, demo is not None)
        if demo is not None:
            state.current_successes += 1
            if cfg.dataset_path is not None:
                append_demo(cfg.dataset_path, demo)
        rollouts += 1
        _write_checkpoint(cfg, state, arms_meta, rollouts, elapsed_prior + time.monotonic() - t0)

    elapsed = elapsed_prior + time.monotonic() - t0
    discarded = state.new_arm_attempts - state.new_arm_successes
    pulls_on_arms = sum(a.n_suc + a.n_fail for a in state.arms)
    assert pulls_on_arms + discarded == rollouts, "rollout conservation violated"

    per_arm = [
        {"annotation_id": arm.annotation_id, "n_suc": arm.n_suc, "n_fail": arm.n_fail, "noise_std": meta.noise_std}
        for arm, meta in zip(state.arms, arms_meta)
    ]
    if state.arms:
        best = max(state.arms, key=lambda a: a.posterior_mean)
        best_rate = best.n_suc / (best.n_suc + best.n_fail)
    else:
        best_rate = 0.0
    return CampaignReport(
        task=cfg.task,
        mode=cfg.mode,
        goal_successes=cfg.goal_successes,
        total_rollouts=rollouts,
        successes=state.current_successes,
        new_arm_attempts=state.new_arm_attempts,
        new_arm_successes=state.new_arm_successes,
        per_arm=per_arm,
        best_arm_rate=best_rate,
        success_rate=state.current_successes / rollouts if rollouts else 0.0,
        wall_time=elapsed,
    )
