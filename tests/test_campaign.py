"""Dataset persistence, policy evaluation, and the generation campaign."""
import dataclasses
import functools
import io
import json
import os
import re

import numpy as np
import pytest

from demoforge import campaign, ensemble, simworld
from demoforge.annotation import create_annotation, scripted_annotate
from demoforge.bandit import BanditState
from demoforge.campaign import (
    CampaignConfig,
    CampaignReport,
    ConfigError,
    SchemaViolation,
    _warp,
    append_demo,
    audit_dataset,
    demo_from_doc,
    demo_line,
    ensemble_runner,
    evaluate_policy,
    feedforward_runner,
    read_dataset,
    replay_demo,
    run_campaign,
    run_ensemble_episode,
    scripted_runner,
    wilson_interval,
    write_dataset,
)
from demoforge.demos import Action, Demonstration, Observation, ObjectObservation, SceneObservation, TrajectorySegment
from demoforge.gateway import AuditLog, GatewayError, MockGateway
from demoforge.geometry import Pose, Rotation
from demoforge.retargeting import RetargetFailed, scripted_retarget
from demoforge.simworld import BUNDLED_TASKS, ObjectAttached, TaskSpec, record_demo, reset
from oracles import (
    demo_from_steps,
    demo_to_doc,
    read_dataset_oracle,
    replies,
    select_reattach_oracle,
    summarize_demo_oracle,
    wilson_interval as wilson_oracle,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def scripted_warp(ann, src, scene, noise_std=0.0, rng=None):
    """The source demo warped onto the scripted retarget of ``ann`` to ``scene``."""
    return _warp(ann, src, scripted_retarget(ann, scene, src.scene, noise_std, rng))


def random_demo(rng, n_steps=None, task="pick_place"):
    n = n_steps or int(rng.integers(2, 9))
    steps = []
    for _ in range(n):
        objects = [
            ObjectObservation(
                name,
                Pose(rng.normal(0, 0.1, 3), Rotation.about_z_deg(float(rng.uniform(-40, 40)))),
                color,
            )
            for name, color in (("target_region", "green"), ("block", None))
        ]
        obs = Observation(Pose(rng.normal(0, 0.1, 3)), float(rng.choice([0.0, 1.0])), objects)
        act = Action(
            Pose(rng.normal(0, 0.1, 3), Rotation.about_z_deg(float(rng.uniform(-40, 40)))),
            float(rng.choice([0.0, 1.0])),
        )
        steps.append((obs, act))
    return demo_from_steps(
        steps,
        task=task,
        demo_id=f"d{rng.integers(1e9)}",
        seed=int(rng.integers(1e6)),
        success=True,
        provenance={"kind": "generated", "annotation_id": "a1", "seed": 3},
    )


def demos_equal(a: Demonstration, b: Demonstration) -> bool:
    if (a.task, a.demo_id, a.seed, a.success, a.provenance) != (b.task, b.demo_id, b.seed, b.success, b.provenance):
        return False
    if len(a) != len(b):
        return False
    for (oa, aa), (ob, ab) in zip(a.steps, b.steps):
        if not np.array_equal(oa.robot_pose.position, ob.robot_pose.position):
            return False
        if not np.array_equal(oa.robot_pose.rotation.as_matrix(), ob.robot_pose.rotation.as_matrix()):
            return False
        if oa.gripper != ob.gripper or aa.gripper != ab.gripper:
            return False
        if not np.array_equal(aa.pose.position, ab.pose.position):
            return False
        if not np.array_equal(aa.pose.rotation.as_matrix(), ab.pose.rotation.as_matrix()):
            return False
        if [(x.name, x.color) for x in oa.objects] != [(y.name, y.color) for y in ob.objects]:
            return False
        for x, y in zip(oa.objects, ob.objects):
            if not np.array_equal(x.pose.position, y.pose.position):
                return False
            if not np.array_equal(x.pose.rotation.as_matrix(), y.pose.rotation.as_matrix()):
                return False
    return True


class TestDataset:
    def test_round_trip_100_random_demos(self, tmp_path):
        rng = np.random.default_rng(0)
        demos = [random_demo(rng) for _ in range(100)]
        path = tmp_path / "d.jsonl"
        write_dataset(demos, path)
        back = read_dataset(path)
        assert len(back) == 100
        assert all(demos_equal(a, b) for a, b in zip(demos, back))

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        demos = [random_demo(rng) for _ in range(20)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(demos, p1)
        write_dataset(read_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.touch()
        assert read_dataset(path) == []

    def test_truncated_line_reports_line_number(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "d.jsonl"
        write_dataset([random_demo(rng) for _ in range(3)], path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation) as err:
            read_dataset(path)
        assert err.value.line == 2

    def test_missing_field_reports_line_number(self, tmp_path):
        rng = np.random.default_rng(3)
        doc = demo_to_doc(random_demo(rng))
        del doc["steps"][0]["act"]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SchemaViolation) as err:
            read_dataset(path)
        assert err.value.line == 1

    def test_bad_late_object_rotation_reports_line_number(self, tmp_path):
        rng = np.random.default_rng(8)
        docs = [demo_to_doc(random_demo(rng, n_steps=8)) for _ in range(3)]
        # unit determinant, but a shear: only the orthonormality test catches it
        docs[1]["steps"][6]["obs"]["objects"][1]["pose"]["R"] = [[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        with pytest.raises(SchemaViolation, match="orthonormal") as err:
            read_dataset(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "field, value", [("task", "nope"), ("task", 7), ("seed", "abc"), ("seed", -5), ("seed", None)]
    )
    def test_unreplayable_task_or_seed_reports_line_number(self, tmp_path, field, value):
        rng = np.random.default_rng(9)
        docs = [demo_to_doc(random_demo(rng)) for _ in range(2)]
        docs[1][field] = value
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        with pytest.raises(SchemaViolation, match=field) as err:
            read_dataset(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "field, value",
        [("success", "false"), ("success", 1), ("id", 17), ("id", None), ("provenance", [["kind", "generated"]])],
    )
    def test_mistyped_id_success_or_provenance_reports_line_number(self, tmp_path, field, value):
        # "false" would read as a successful demo through bool(), and pairs as an object through dict()
        rng = np.random.default_rng(12)
        docs = [demo_to_doc(random_demo(rng)) for _ in range(2)]
        docs[1][field] = value
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        with pytest.raises(SchemaViolation, match=field) as err:
            read_dataset(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("column", ["obs", "act"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_gripper_reports_line_number(self, tmp_path, column, value):
        rng = np.random.default_rng(10)
        docs = [demo_to_doc(random_demo(rng, n_steps=4)) for _ in range(2)]
        docs[1]["steps"][2][column]["gripper"] = value
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        with pytest.raises(SchemaViolation, match="finite") as err:
            read_dataset(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("change", ["renamed", "recoloured", "dropped"])
    def test_entities_changing_mid_demo_report_line_number(self, tmp_path, change):
        rng = np.random.default_rng(11)
        docs = [demo_to_doc(random_demo(rng, n_steps=5)) for _ in range(3)]
        objects = docs[2]["steps"][3]["obs"]["objects"]
        if change == "renamed":
            objects[1]["name"] = "other_block"
        elif change == "recoloured":
            objects[0]["color"] = "red"
        else:
            del objects[1]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        with pytest.raises(SchemaViolation, match="step 3") as err:
            read_dataset(path)
        assert err.value.line == 3

    def test_single_step_demo_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        doc = demo_to_doc(random_demo(rng, n_steps=3))
        doc["steps"] = doc["steps"][:1]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SchemaViolation):
            read_dataset(path)

    def test_append_accumulates(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "d.jsonl"
        write_dataset([], path)
        for i in range(4):
            append_demo(path, random_demo(rng))
            assert len(read_dataset(path)) == i + 1

    def test_doc_round_trip_preserves_structure(self):
        rng = np.random.default_rng(6)
        demo = random_demo(rng)
        assert demos_equal(demo, demo_from_doc(demo_to_doc(demo)))

    def test_recorded_demo_replays_to_success(self, tmp_path):
        demo = record_demo(TaskSpec("pick_place"), 77, demo_id="d77")
        path = tmp_path / "d.jsonl"
        write_dataset([demo], path)
        back = read_dataset(path)[0]
        assert demos_equal(demo, back)
        assert replay_demo(back)

    def test_replay_without_seed_rejected(self):
        rng = np.random.default_rng(7)
        demo = random_demo(rng)
        demo.seed = None
        with pytest.raises(ValueError):
            replay_demo(demo)

    def test_audit_counts_failures(self, tmp_path):
        good = record_demo(TaskSpec("pick_place"), 78, demo_id="good")
        bad = record_demo(TaskSpec("pick_place"), 79, demo_id="bad")
        bad.seed = 80  # wrong scene: the replayed actions miss everything
        path = tmp_path / "d.jsonl"
        write_dataset([good, bad], path)
        result = audit_dataset(path)
        assert result.total == 2
        assert result.replayed_ok == 1
        assert result.failed_ids == ["bad"]
        assert not result.all_ok


# floats whose text is easy to get wrong: signed zeros, subnormals, both
# exponent forms, shortest round-trip digits, and the non-finite values
ODD_FLOATS = [
    0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e-05, 1.1e-05, 1e16, -1.5e16, 1e300, 0.1, 1 / 3, 123456789.0,
    float("nan"), float("inf"), float("-inf"),
]
ODD_NAMES = ["block", "tasse à café", "ブロック", "\U0001f375 mug", 'quote " and \\ backslash', "tab\tnew\nline", ""]
ODD_PROVENANCE = [
    {"kind": "human_scripted"},
    {},
    {"kind": "generated", "annotation_id": "pick_place-arm000", "seed": 3, "noise_std": 0.012345678901234567},
    {"nested": {"list": [1, -0.0, None, True, "é"], "deep": {"x": [float("nan"), float("-inf"), 1e-05]}}, "ü": "✓"},
    {"1e-05": 1e-05, "big": 10**30, "neg": -7, "empty": [], "none": None},
]


def odd_demo(rng) -> Demonstration:
    """A demo whose pose rows repeat, including two rows apart only in the sign of a zero, with odd floats,
    names, colours and provenance; the columns need not be valid poses, as only the encoder reads them."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(0, 4))
    pool = rng.normal(0.0, 1.0, (6, 12)) * 10.0 ** rng.integers(-30, 30, (6, 12))
    odd = rng.random(pool.shape) < 0.4
    pool[odd] = rng.choice(ODD_FLOATS, int(odd.sum()))
    pool = np.concatenate([pool, pool[:1]])
    pool[0, 0], pool[-1, 0] = 0.0, -0.0
    rows = pool[rng.integers(0, len(pool), (2 + m) * n)]
    grippers = rng.choice([0.0, -0.0, 1.0, 0.5, 1e-05, float("nan"), float("inf")], 2 * n)

    def segment(k):
        part = rows[k * n : k * n + n]
        return TrajectorySegment(part[:, :3], part[:, 3:].reshape(n, 3, 3), grippers[k * n : k * n + n])

    def pick(options):
        return options[int(rng.integers(len(options)))]

    return Demonstration(
        "pick_place",
        actions=segment(1),
        robot=segment(0),
        entity_names=tuple(pick(ODD_NAMES) for _ in range(m)),
        entity_colors=tuple(pick([None, "green", "rouge foncé", "紅"]) for _ in range(m)),
        entity_positions=rows[2 * n :, :3].reshape(n, m, 3),
        entity_rotations=rows[2 * n :, 3:].reshape(n, m, 3, 3),
        demo_id=pick(["", "d1", "démo-ü"]) + str(int(rng.integers(1000))),
        seed=pick([None, 0, int(rng.integers(2**62))]),
        success=bool(rng.random() < 0.5),
        provenance=pick(ODD_PROVENANCE),
    )


def dumped_line(demo: Demonstration) -> str:
    return json.dumps(demo_to_doc(demo), separators=(",", ":"))


class TestDatasetLine:
    """The encoder against json.dumps of the whole document, byte for byte."""

    def test_matches_json_dumps_on_odd_demos(self):
        rng = np.random.default_rng(61)
        for _ in range(400):
            demo = odd_demo(rng)
            assert demo_line(demo) == dumped_line(demo)

    @pytest.mark.parametrize("task", ["pick_place", "stack", "drawer_mug"])
    def test_matches_json_dumps_on_recorded_demos(self, task):
        demo = record_demo(TaskSpec(task), 1001, demo_id=f"{task}-src00")
        assert demo_line(demo) == dumped_line(demo)

    def test_signed_zero_survives_a_repeated_row(self, tmp_path):
        demo = record_demo(TaskSpec("pick_place"), 77, demo_id="d77")
        demo.robot.positions[1] = demo.robot.positions[0]
        demo.robot.positions[0, 2], demo.robot.positions[1, 2] = 0.0, -0.0
        line = demo_line(demo)
        assert line == dumped_line(demo)
        path = tmp_path / "d.jsonl"
        path.write_text(line + "\n")
        z = read_dataset(path)[0].robot.positions[:2, 2]
        assert z.tolist() == [0.0, 0.0] and np.signbit(z).tolist() == [False, True]

    def test_append_and_write_give_the_same_lines(self, tmp_path):
        rng = np.random.default_rng(62)
        demos = [odd_demo(rng) for _ in range(30)]
        written, appended = tmp_path / "w.jsonl", tmp_path / "a.jsonl"
        write_dataset(demos, written)
        for demo in demos:
            append_demo(appended, demo)
        expected = "".join(dumped_line(demo) + "\n" for demo in demos)
        assert written.read_text() == appended.read_text() == expected


def demo_bits(demo: Demonstration):
    columns = [demo.robot, demo.actions]
    arrays = [a for c in columns for a in (c.positions, c.rotations, c.gripper)]
    arrays += [demo.entity_positions, demo.entity_rotations]
    meta = (demo.task, demo.demo_id, demo.seed, type(demo.seed), demo.success, type(demo.success))
    # json.dumps tells 1 from 1.0 and -0.0 from 0.0, and reads NaN as equal to itself
    entities = (demo.entity_names, demo.entity_colors)
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays], meta, json.dumps(demo.provenance), entities


def read_outcome(read, path):
    try:
        return read(path)
    except SchemaViolation as err:
        return err


def assert_reads_like_the_oracle(path):
    """read_dataset gives what json.loads + demo_from_doc give on every line: the same column bits,
    metadata, names and colours, or the same SchemaViolation at the same line. Returns the oracle's outcome."""
    got, want = read_outcome(read_dataset, path), read_outcome(read_dataset_oracle, path)
    if isinstance(want, SchemaViolation):
        assert isinstance(got, SchemaViolation), f"read {len(got)} demos, oracle raised {want}"
        assert (got.line, str(got)) == (want.line, str(want))
    else:
        assert not isinstance(got, SchemaViolation), f"raised {got}, oracle read {len(want)} demos"
        assert [demo_bits(d) for d in got] == [demo_bits(d) for d in want]
    return want


def path_taken(line: str) -> str:
    try:
        return "fallback" if campaign._canonical_demo(line) is None else "canonical"
    except ValueError:
        return "canonical error"


def finite_variant(demo: Demonstration, rng, valid_rotations: bool) -> Demonstration:
    """demo with NaN and infinities swapped for 0.0 and the largest floats and, if asked, its rotations drawn from a
    small pool of proper ones (so rows still repeat) and an integer seed: a line in the canonical form that reads
    back, or else fails the rotation check."""
    pool = np.array([Rotation.about_z_deg(a).as_matrix() for a in (0.0, 90.0, -33.0, 180.0)])
    n, m = len(demo), len(demo.entity_names)

    def rotations(current, shape):
        return pool[rng.integers(0, len(pool), shape[0] * shape[1])].reshape(shape) if valid_rotations else current

    def segment(track):
        rots = rotations(track.rotations, (n, 1, 3, 3)).reshape(n, 3, 3)
        return TrajectorySegment(np.nan_to_num(track.positions), np.nan_to_num(rots), np.nan_to_num(track.gripper))

    return dataclasses.replace(
        demo,
        robot=segment(demo.robot),
        actions=segment(demo.actions),
        entity_positions=np.nan_to_num(demo.entity_positions),
        entity_rotations=np.nan_to_num(rotations(demo.entity_rotations, (n, m, 3, 3))),
        seed=7 if valid_rotations else demo.seed,
    )


def canonical_dump(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _set(*keys, value):
    def damage(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value

    return damage


SHEAR = [[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
# det 1 - 1.6e-11, and a gramian diagonal 8e-6 from 1: inside np.allclose's default rtol, outside the 1e-9 bound
STRETCH = [[1.0 + 4e-6, 0.0, 0.0], [0.0, 1.0 - 4e-6, 0.0], [0.0, 0.0, 1.0]]
# the malformed-line cases of TestDataset, and the type checks, as (damage to line 2's document, error text)
DOC_DAMAGES = {
    "missing act": (lambda doc: doc["steps"][0].pop("act"), "act"),
    "late shear": (_set("steps", 3, "obs", "objects", 1, "pose", "R", value=SHEAR), "orthonormal"),
    "stretch": (_set("steps", 3, "act", "pose", "R", value=STRETCH), "orthonormal"),
    "task nope": (_set("task", value="nope"), "task"),
    "task 7": (_set("task", value=7), "task"),
    "seed text": (_set("seed", value="abc"), "seed"),
    "seed negative": (_set("seed", value=-5), "seed"),
    "seed null": (_set("seed", value=None), "seed"),
    "success text": (_set("success", value="false"), "success"),
    "success 1": (_set("success", value=1), "success"),
    "id 17": (_set("id", value=17), "id"),
    "id null": (_set("id", value=None), "id"),
    "provenance pairs": (_set("provenance", value=[["kind", "generated"]]), "provenance"),
    "obs gripper NaN": (_set("steps", 2, "obs", "gripper", value=float("nan")), "finite"),
    "act gripper inf": (_set("steps", 2, "act", "gripper", value=float("inf")), "finite"),
    "renamed": (_set("steps", 3, "obs", "objects", 1, "name", value="other_block"), "step 3"),
    "recoloured": (_set("steps", 3, "obs", "objects", 0, "color", value="red"), "step 3"),
    "dropped": (lambda doc: doc["steps"][3]["obs"]["objects"].pop(1), "step 3"),
    "single step": (lambda doc: doc.update(steps=doc["steps"][:1]), "at least 2 steps"),
    "position as text": (_set("steps", 1, "obs", "robot", "p", 0, value="0.25"), "JSON numbers, got '0.25'"),
    "rotation entry true": (_set("steps", 4, "act", "pose", "R", 0, 0, value=True), "JSON numbers, got True"),
    "gripper as text": (_set("steps", 0, "act", "gripper", value="1.0"), "JSON numbers, got '1.0'"),
    "gripper true": (_set("steps", 3, "obs", "gripper", value=True), "JSON numbers, got True"),
    "gripper null": (_set("steps", 3, "obs", "gripper", value=None), "JSON numbers, got None"),
    "name 5": (lambda doc: [_set("obs", "objects", 0, "name", value=5)(row) for row in doc["steps"]], "names"),
    "colour 7": (lambda doc: [_set("obs", "objects", 1, "color", value=7)(row) for row in doc["steps"]], "colours"),
    "position beyond float": (_set("steps", 1, "act", "pose", "p", 2, value=10**400), "too large"),
}
def in_step(t, pattern, repl):
    """An edit of a canonical line: the first match of pattern in step t replaced."""

    def edit(line):
        steps = line.split('{"obs":')
        steps[t + 1] = re.sub(pattern, repl, steps[t + 1], count=1)
        return '{"obs":'.join(steps)

    return edit


# edits of line 2's text, as (edit, error text)
TEXT_DAMAGES = {
    "truncated": (lambda line: line[: len(line) // 2], None),
    "position 1e999": (in_step(2, r'\{"p":\[[^,]*', '{"p":[1e999'), "finite"),
    "rotation entry 1e999": (in_step(2, r'"R":\[\[[^,]*', '"R":[[1e999'), "matrix"),
    "robot gripper dropped": (in_step(3, r',"gripper":[^,]*(?=,"objects")', ""), "gripper"),
    "gripper after an entity pose": (in_step(3, r'(?=,"color")', ',"gripper":x'), "Expecting value"),
}


def damaged_dataset(path, demos, line, dump=canonical_dump):
    docs = [demo_to_doc(d) for d in demos]
    lines = [dump(doc) for doc in docs]
    if isinstance(line, str):
        lines[1] = line
    else:
        line(docs[1])
        lines[1] = dump(docs[1])
    path.write_bytes("".join(text + "\n" for text in lines).encode())


class TestCanonicalRead:
    """read_dataset decodes a line in demo_line's exact form without json.loads; each result must be what
    read_dataset_oracle, json.loads and demo_from_doc on every line, gives."""

    def demos(self, seed, n_steps=5):
        rng = np.random.default_rng(seed)
        return [random_demo(rng, n_steps=n_steps) for _ in range(3)]

    def test_fuzzed_lines_read_like_the_oracle(self, tmp_path):
        rng = np.random.default_rng(63)
        path = tmp_path / "d.jsonl"
        taken = {"canonical": 0, "canonical error": 0, "fallback": 0}
        for _ in range(400):
            demo = odd_demo(rng)
            for variant in (demo, finite_variant(demo, rng, False), finite_variant(demo, rng, True)):
                line = demo_line(variant)
                path.write_text(line + "\n")
                with np.errstate(all="ignore"):  # both readers' det overflows and divides by zero on odd floats
                    assert_reads_like_the_oracle(path)
                    taken[path_taken(line)] += 1
        assert min(taken.values()) > 50, taken

    @pytest.mark.parametrize("task", BUNDLED_TASKS)
    def test_recorded_demos_read_like_the_oracle(self, tmp_path, task):
        demos = [record_demo(TaskSpec(task), seed, demo_id=f"{task}-{seed}") for seed in (1001, 1002)]
        path = tmp_path / "d.jsonl"
        write_dataset(demos, path)
        assert [path_taken(line) for line in path.read_text().splitlines()] == ["canonical"] * 2
        assert len(assert_reads_like_the_oracle(path)) == 2

    @pytest.mark.parametrize("case", sorted(DOC_DAMAGES))
    @pytest.mark.parametrize("dump", [canonical_dump, json.dumps], ids=["canonical", "spaced"])
    def test_damaged_document_reads_like_the_oracle(self, tmp_path, case, dump):
        damage, why = DOC_DAMAGES[case]
        path = tmp_path / "d.jsonl"
        damaged_dataset(path, self.demos(13), damage, dump)
        want = assert_reads_like_the_oracle(path)
        assert isinstance(want, SchemaViolation) and want.line == 2 and why in str(want)

    def test_nested_positions_rejected(self, tmp_path):
        # [[x], [y], [z]] stacks as (poses, 3, 1), which a reshape would flatten into [x, y, z]
        doc = demo_to_doc(record_demo(TaskSpec("pick_place"), 1001, demo_id="src"))
        for row in doc["steps"]:
            for pose in [row["obs"]["robot"], row["act"]["pose"]] + [e["pose"] for e in row["obs"]["objects"]]:
                pose["p"] = [[x] for x in pose["p"]]
        line = canonical_dump(doc)
        assert path_taken(line) == "fallback"
        path = tmp_path / "d.jsonl"
        path.write_text(line + "\n")
        want = assert_reads_like_the_oracle(path)
        assert isinstance(want, SchemaViolation) and want.line == 1 and "positions must stack as" in str(want)

    @pytest.mark.parametrize("case", sorted(TEXT_DAMAGES))
    def test_damaged_canonical_text_reads_like_the_oracle(self, tmp_path, case):
        edit, why = TEXT_DAMAGES[case]
        demos = self.demos(14)
        path = tmp_path / "d.jsonl"
        damaged_dataset(path, demos, edit(demo_line(demos[1])))
        want = assert_reads_like_the_oracle(path)
        assert isinstance(want, SchemaViolation) and want.line == 2 and (why is None or why in str(want))

    @pytest.mark.parametrize(
        "provenance",
        [{"p": [1.0, 2.0]}, json.loads('{"p":[0.0,0.0,0.0],"R":[[1.0,0.0,0.0],[0.0,1.0,0.0],[0.0,0.0,1.0]]}')],
        ids=["a p key", "a whole pose"],
    )
    def test_pose_text_inside_provenance(self, tmp_path, provenance):
        demos = self.demos(15)
        demos[1].provenance = provenance
        path = tmp_path / "d.jsonl"
        write_dataset(demos, path)
        assert assert_reads_like_the_oracle(path)[1].provenance == provenance

    @pytest.mark.parametrize("ascii_only", [True, False], ids=["escaped", "raw utf-8"])
    def test_escaped_and_non_ascii_names(self, tmp_path, ascii_only):
        names = ('quote " and \\ backslash', "tab\tnew\nline ブロック")
        demo = dataclasses.replace(self.demos(16)[0], entity_names=names, entity_colors=("紅", None))
        line = json.dumps(demo_to_doc(demo), separators=(",", ":"), ensure_ascii=ascii_only)
        assert path_taken(line) == "canonical"
        path = tmp_path / "d.jsonl"
        path.write_bytes((line + "\n").encode())
        back = assert_reads_like_the_oracle(path)[0]
        assert (back.entity_names, back.entity_colors) == (demo.entity_names, demo.entity_colors)

    def test_zero_entity_demo(self, tmp_path):
        demo = self.demos(17)[0]
        n = len(demo)
        demo = dataclasses.replace(
            demo,
            entity_names=(),
            entity_colors=(),
            entity_positions=np.empty((n, 0, 3)),
            entity_rotations=np.empty((n, 0, 3, 3)),
        )
        path = tmp_path / "d.jsonl"
        write_dataset([demo], path)
        assert path_taken(demo_line(demo)) == "canonical"
        assert assert_reads_like_the_oracle(path)[0].entity_positions.shape == (n, 0, 3)

    def test_crlf_endings_and_no_final_newline(self, tmp_path):
        demos = self.demos(18)
        path = tmp_path / "d.jsonl"
        path.write_bytes("\r\n".join(demo_line(d) for d in demos).encode())
        assert len(assert_reads_like_the_oracle(path)) == 3
        assert path_taken(demo_line(demos[0]) + "\r\n") == "canonical"

    @pytest.mark.parametrize("where", [1, 2])
    def test_undecodable_bytes_name_their_line(self, tmp_path, where):
        path = tmp_path / "d.jsonl"
        write_dataset(self.demos(19), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[where - 1] = lines[where - 1][:100] + b"\xff" + lines[where - 1][100:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(SchemaViolation, match="utf-8") as err:
            read_dataset(path)
        assert err.value.line == where
        assert_reads_like_the_oracle(path)

    def test_every_written_line_takes_the_canonical_path(self, tmp_path, monkeypatch):
        cfg = CampaignConfig(
            task="stack",
            goal_successes=3,
            mode="fixed_first",
            seed=4,
            noise_min=0.0,
            noise_max=0.0,
            dataset_path=str(tmp_path / "c.jsonl"),
            checkpoint_path=str(tmp_path / "c.ckpt.json"),
        )
        run_campaign(cfg)
        recorded = tmp_path / "recorded.jsonl"
        write_dataset([record_demo(TaskSpec(task), 1001, demo_id=task) for task in BUNDLED_TASKS], recorded)

        def no_fallback(doc):
            raise AssertionError("a line demo_line wrote was decoded through json.loads")

        monkeypatch.setattr(campaign, "demo_from_doc", no_fallback)
        assert [d.demo_id for d in read_dataset(recorded)] == list(BUNDLED_TASKS)
        assert all(d.provenance["kind"] == "generated" for d in read_dataset(cfg.dataset_path))
        assert len(read_dataset(cfg.dataset_path)) == 3


class TestWilson:
    def test_matches_oracle_on_grid(self):
        for suc, n in [(0, 10), (5, 10), (10, 10), (1, 1000), (999, 1000), (37, 50)]:
            lo, hi = wilson_interval(suc, n)
            olo, ohi = wilson_oracle(suc, n)
            assert lo == pytest.approx(olo, abs=1e-12)
            assert hi == pytest.approx(ohi, abs=1e-12)

    def test_bounds_and_ordering(self):
        lo, hi = wilson_interval(3, 7)
        assert 0.0 <= lo < 3 / 7 < hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestEvaluate:
    @pytest.mark.parametrize("kind", BUNDLED_TASKS)
    def test_scripted_policy_is_perfect(self, kind):
        rep = evaluate_policy(scripted_runner(), TaskSpec(kind), 10, seed=1)
        assert rep.rate == 1.0
        assert rep.ci_high == pytest.approx(1.0, abs=1e-12)

    def test_scripted_trial_fails_at_its_step_cap(self, monkeypatch):
        # a trial gets the steps the recorder gets
        monkeypatch.setattr(simworld, "RECORD_MAX_STEPS", 10)
        assert evaluate_policy(scripted_runner(), TaskSpec("pick_place"), 3, seed=1).successes == 0

    def test_same_seed_same_scenes(self):
        seen = [[], []]
        for trial in range(2):
            policy = lambda spec, s, acc=seen[trial]: acc.append(s) or True
            evaluate_policy(policy, TaskSpec("pick_place"), 5, seed=9)
        assert seen[0] == seen[1]

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ValueError):
            evaluate_policy(scripted_runner(), TaskSpec("pick_place"), 0)

    def test_scene_and_trial_seeds_are_pinned(self):
        # datasets and evaluations replay from these: the seed derivation may not drift
        scene_seeds = [campaign._derived_seed(s, campaign._TAG_SCENE, n) for s, n in ((0, 0), (0, 1), (1, 5), (7, 123))]
        assert scene_seeds == [2218153353, 1729027044, 1393054867, 3324756085]
        trial_seeds = []
        evaluate_policy(lambda spec, s: trial_seeds.append(s) or True, TaskSpec("pick_place"), 3, seed=4)
        assert trial_seeds == [3546456798, 1907355930, 3162882458]

    def test_clean_feedforward_is_perfect(self):
        src = record_demo(TaskSpec("pick_place"), 1001, demo_id="src")
        ann = scripted_annotate(src, "pick_place")
        rep = evaluate_policy(feedforward_runner(ann, src), TaskSpec("pick_place"), 8, seed=2)
        assert rep.rate == 1.0

    def test_walking_strictly_below_static_stack(self):
        rates = {}
        for task in ("stack", "stack_walking"):
            src = record_demo(TaskSpec(task), 1001, demo_id=f"{task}-src")
            ann = scripted_annotate(src, task)
            rates[task] = evaluate_policy(feedforward_runner(ann, src), TaskSpec(task), 25, seed=4).rate
        assert rates["stack_walking"] < rates["stack"]


def grasp_disturbance(traj, delta=(0.05, 0.04, 0.0), lead=25):
    """Teleport the block shortly before the trajectory's first close."""
    g = next(i for i in range(1, len(traj)) if traj.gripper[i] < traj.gripper[i - 1])
    return [(max(0, g - lead), "block", np.asarray(delta))]


class TestEnsembleEpisode:
    def setup_method(self):
        self.spec = TaskSpec("pick_place")
        self.src = record_demo(self.spec, 1001, demo_id="src")
        self.ann = scripted_annotate(self.src, "pick_place")

    def test_undisturbed_episode_succeeds(self):
        rep = evaluate_policy(ensemble_runner(self.ann, self.src), self.spec, 5, seed=3)
        assert rep.rate == 1.0

    def test_disturbed_episode_recovers_with_a_switch(self):
        rep = evaluate_policy(
            ensemble_runner(self.ann, self.src, disturbance=grasp_disturbance), self.spec, 5, seed=3
        )
        assert rep.rate == 1.0

    def test_disturbed_beats_feedforward_on_paired_seeds(self):
        ff = evaluate_policy(
            feedforward_runner(self.ann, self.src, disturbance=grasp_disturbance), self.spec, 10, seed=6
        )
        en = evaluate_policy(
            ensemble_runner(self.ann, self.src, disturbance=grasp_disturbance), self.spec, 10, seed=6
        )
        assert en.successes > ff.successes

    def test_switch_recorded_in_episode_outcome(self):
        state, scene = reset(self.spec, 12345)
        traj = scripted_warp(self.ann, self.src, scene)
        out = run_ensemble_episode(state, traj, disturbances=grasp_disturbance(traj))
        assert out.success
        assert any(e["switched"] for e in out.ensemble.trace)

    def test_step_cap_ends_an_episode_that_never_succeeds(self, monkeypatch):
        state, scene = reset(self.spec, 5)
        traj = scripted_warp(self.ann, self.src, scene)
        monkeypatch.setattr(campaign, "success", lambda state: False)
        out = run_ensemble_episode(state, traj)
        assert not out.success
        assert out.steps == 2 * len(traj) + 400

    def test_traces_match_the_oracle_scan(self, monkeypatch):
        # disturbed episodes step for step as under the scan as first shipped,
        # which sees the trajectory, not the state's recorded-action table
        def traces():
            out = []
            for noise_std in (0.0, 0.01):
                for seed in range(10):
                    state, scene = reset(self.spec, 700 + seed)
                    traj = scripted_warp(self.ann, self.src, scene, noise_std, np.random.default_rng(seed))
                    out.append(run_ensemble_episode(state, traj, disturbances=grasp_disturbance(traj)).ensemble.trace)
            return out

        picks, built, scans = [], [], []  # scans: whether each shipped scan built attach rows
        floors = []  # one entry per suffix bound the shipped scans computed
        skipped = []  # one entry per feedback step whose scan the pre-check proved empty before building its action
        real_scan, real_rows, real_floor = ensemble.select_reattach, ensemble._row_deltas, ensemble._attach_floor
        real_precheck = ensemble._scan_proved_empty

        def oracle(state, pose, grip, a_il, tau):
            picks.append(select_reattach_oracle(state.ff_trajectory, pose, grip, state.ff_cursor, a_il, state.scale, tau))
            return picks[-1]

        def counted(*args):
            before = len(built)
            pick = real_scan(*args)
            scans.append(len(built) > before)
            return pick

        monkeypatch.setattr(ensemble, "_row_deltas", lambda *args: built.append(1) or real_rows(*args))
        monkeypatch.setattr(ensemble, "_attach_floor", lambda *args: floors.append(1) or real_floor(*args))
        monkeypatch.setattr(ensemble, "_scan_proved_empty", lambda *args: real_precheck(*args) and not skipped.append(1))
        monkeypatch.setattr(ensemble, "select_reattach", counted)
        shipped = traces()
        # the oracle scores every feedback scan, the ones the pre-check skipped included
        monkeypatch.setattr(ensemble, "_scan_proved_empty", lambda *args: False)
        monkeypatch.setattr(ensemble, "select_reattach", oracle)
        assert traces() == shipped
        assert len(picks) >= 2000 and len(skipped) + len(scans) == len(picks), (len(picks), len(skipped), len(scans))
        assert sum(p is not None for p in picks) >= 2, picks
        # the pre-check ends most scans before the feedback action is built: 3084 of 3608 when this was written
        assert len(skipped) > 0.75 * len(picks), (len(skipped), len(picks))
        # the emptiness certificate spares most scans their rotations: 93 of 3608 built attach rows
        assert sum(scans) < 0.2 * len(picks), (sum(scans), len(picks))
        # and the pre-check most scans their suffix bound: 524 of 3608 scans computed one when this was written
        assert len(floors) < 0.25 * len(picks), (len(floors), len(picks))

    def test_disturbing_held_object_rejected(self):
        state, scene = reset(self.spec, 5)
        traj = scripted_warp(self.ann, self.src, scene)
        g = next(i for i in range(1, len(traj)) if traj.gripper[i] < traj.gripper[i - 1])
        with pytest.raises(ObjectAttached):
            run_ensemble_episode(state, traj, disturbances=[(g + 40, "block", np.array([0.05, 0.0, 0.0]))])


class TestConfig:
    def test_from_dict_defaults_and_validation(self):
        cfg = CampaignConfig.from_dict({"task": "stack", "goal_successes": 5})
        assert cfg.mode == "bandit"
        assert cfg.source_demo_seeds == (1001, 1002, 1003)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            CampaignConfig.from_dict({"task": "stack", "goal_successes": 5, "goal": 5})

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError, match="missing required"):
            CampaignConfig.from_dict({"task": "stack"})

    @pytest.mark.parametrize(
        "patch",
        [
            {"task": "juggle"},
            {"goal_successes": 0},
            {"mode": "greedy"},
            {"annotator": "human"},
            {"retargeter": "human"},
            {"noise_min": -0.001},
            {"noise_min": 0.03, "noise_max": 0.02},
            {"decision_samples": 0},
            {"source_demo_seeds": ()},
        ],
    )
    def test_invalid_values_rejected(self, patch):
        doc = {"task": "pick_place", "goal_successes": 3, **patch}
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "patch",
        [
            {"seed": -1},
            {"seed": "7"},
            {"seed": 7.0},
            {"goal_successes": 2.5},
            {"goal_successes": True},
            {"decision_samples": 2.5},
            {"prior_samples": 1.5},
            {"max_rollouts": -3},
            {"max_rollouts": 2.0},
            {"source_demo_seeds": ["a"]},
            {"source_demo_seeds": [1001, -5]},
            {"source_demo_seeds": 1001},
            {"noise_max": "0.02"},
            {"noise_max": float("inf")},
        ],
    )
    def test_values_that_would_break_the_campaign_rejected(self, patch):
        # each of these would crash run_campaign later or silently change
        # what it does, so loading the config must refuse it
        doc = {"task": "pick_place", "goal_successes": 2, "max_rollouts": 6, **patch}
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "patch", [{"dataset_path": 1}, {"checkpoint_path": ["c.json"]}, {"dataset_path": True}], ids=repr
    )
    def test_non_string_paths_rejected(self, patch):
        # run_campaign would open(1, "w") and close standard output
        with pytest.raises(ConfigError, match="path"):
            CampaignConfig.from_dict({"task": "pick_place", "goal_successes": 1, **patch})

    @pytest.mark.parametrize("patch", [{"seed": 0, "max_rollouts": 0}, {"max_rollouts": None}])
    def test_boundary_values_accepted(self, patch):
        cfg = CampaignConfig.from_dict({"task": "pick_place", "goal_successes": 1, **patch})
        assert all(getattr(cfg, key) == value for key, value in patch.items())

    def test_max_retries_is_an_unknown_key(self):
        # every query makes gateway.MAX_RETRIES attempts; the campaign no longer sets it
        with pytest.raises(ConfigError, match=r"unknown config keys: \['max_retries'\]"):
            CampaignConfig.from_dict({"task": "pick_place", "goal_successes": 1, "max_retries": 3})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict([1, 2])

    def test_fingerprint_is_every_field_but_the_run_fields(self):
        # a new config field is fingerprinted unless it is named here; the literal is the checkpoint's bytes
        cfg = CampaignConfig(task="pick_place", goal_successes=10)
        run = {"max_rollouts", "dataset_path", "checkpoint_path"}
        assert list(cfg.fingerprint()) == [f.name for f in dataclasses.fields(cfg) if f.name not in run]
        assert json.dumps(cfg.fingerprint()) == (
            '{"task": "pick_place", "goal_successes": 10, "seed": 0, "mode": "bandit", "annotator": "scripted", '
            '"retargeter": "scripted", "noise_min": 0.001, "noise_max": 0.02, "decision_samples": 1000, '
            '"prior_samples": 1000, "source_demo_seeds": [1001, 1002, 1003]}'
        )


class TestCampaign:
    def cfg(self, tmp_path=None, tag="c", **kw):
        base = dict(
            task="pick_place",
            goal_successes=10,
            seed=5,
            noise_min=0.0,
            noise_max=0.0,
            decision_samples=100,
            prior_samples=150,
        )
        base.update(kw)
        if tmp_path is not None:
            base.setdefault("dataset_path", str(tmp_path / f"{tag}.jsonl"))
            base.setdefault("checkpoint_path", str(tmp_path / f"{tag}.ckpt.json"))
        return CampaignConfig(**base)

    def test_oracle_components_never_fail(self, tmp_path):
        rep = run_campaign(self.cfg(tmp_path, goal_successes=20))
        assert rep.successes == 20
        assert rep.total_rollouts == 20
        assert rep.success_rate == 1.0

    def test_fixed_first_uses_one_arm(self, tmp_path):
        rep = run_campaign(self.cfg(tmp_path, goal_successes=20, mode="fixed_first"))
        assert rep.successes == 20
        assert len(rep.per_arm) == 1
        assert rep.per_arm[0]["n_suc"] == 20

    def test_no_optimization_mints_every_rollout(self, tmp_path):
        rep = run_campaign(self.cfg(tmp_path, goal_successes=8, mode="no_optimization"))
        assert rep.new_arm_attempts == rep.total_rollouts
        assert rep.successes == 8

    def test_success_counter_equals_dataset_lines(self, tmp_path):
        cfg = self.cfg(tmp_path, goal_successes=6, noise_min=0.004, noise_max=0.018, max_rollouts=60)
        rep = run_campaign(cfg)
        demos = read_dataset(cfg.dataset_path)
        assert len(demos) == rep.successes
        assert all(d.provenance["kind"] == "generated" for d in demos)
        assert all(d.provenance["annotation_id"] for d in demos)

    def test_generated_demos_replay_to_success(self, tmp_path):
        cfg = self.cfg(tmp_path, goal_successes=5)
        run_campaign(cfg)
        result = audit_dataset(cfg.dataset_path)
        assert result.all_ok

    def test_rollout_conservation(self, tmp_path):
        rep = run_campaign(
            self.cfg(tmp_path, goal_successes=8, noise_min=0.005, noise_max=0.02, max_rollouts=80)
        )
        pulled = sum(r["n_suc"] + r["n_fail"] for r in rep.per_arm)
        discarded = rep.new_arm_attempts - rep.new_arm_successes
        assert pulled + discarded == rep.total_rollouts
        assert rep.successes <= rep.total_rollouts

    def test_bandit_reuses_arms_instead_of_minting(self, tmp_path):
        # the statistical uplift over no_optimization is a 20-repetition
        # claim; here we only check the mode mechanically exploits arms
        rep = run_campaign(
            self.cfg(
                tmp_path,
                goal_successes=12,
                noise_min=0.001,
                noise_max=0.02,
                max_rollouts=250,
            )
        )
        assert rep.new_arm_attempts < rep.total_rollouts
        assert max(r["n_suc"] + r["n_fail"] for r in rep.per_arm) >= 3

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        full = run_campaign(self.cfg(tmp_path, tag="full", goal_successes=10, noise_min=0.002, noise_max=0.015, max_rollouts=100))
        part_cfg = self.cfg(tmp_path, tag="part", goal_successes=10, noise_min=0.002, noise_max=0.015, max_rollouts=100)
        interrupted = run_campaign(
            self.cfg(tmp_path, tag="part", goal_successes=10, noise_min=0.002, noise_max=0.015, max_rollouts=5)
        )
        assert interrupted.total_rollouts == 5
        resumed = run_campaign(part_cfg, resume=True)
        a, b = full.to_json(), resumed.to_json()
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b
        ids_full = [d.demo_id for d in read_dataset(tmp_path / "full.jsonl")]
        ids_part = [d.demo_id for d in read_dataset(tmp_path / "part.jsonl")]
        assert ids_full == ids_part

    def test_resume_with_different_config_rejected(self, tmp_path):
        run_campaign(self.cfg(tmp_path, tag="r", goal_successes=3, max_rollouts=2))
        other = self.cfg(tmp_path, tag="r", goal_successes=3, seed=6)
        with pytest.raises(ConfigError, match="different campaign configuration"):
            run_campaign(other, resume=True)

    def test_resume_detects_dataset_drift(self, tmp_path):
        cfg = self.cfg(tmp_path, tag="s", goal_successes=4, max_rollouts=3)
        run_campaign(cfg)
        with open(cfg.dataset_path, "a") as fh:
            fh.write("\n")  # blank lines are fine
        lines = open(cfg.dataset_path).readlines()
        with open(cfg.dataset_path, "w") as fh:
            fh.writelines(lines[:-2])  # drop a real demo
        with pytest.raises(ConfigError, match="dataset"):
            run_campaign(self.cfg(tmp_path, tag="s", goal_successes=4), resume=True)

    @pytest.mark.parametrize("tail", ["torn", "whole"])
    def test_resume_cuts_dataset_back_to_checkpoint(self, tmp_path, tail):
        # a kill between append_demo and the checkpoint write leaves the
        # dataset ahead of the checkpoint, by a torn or a whole line
        run_campaign(self.cfg(tmp_path, tag="full", goal_successes=5))
        run_campaign(self.cfg(tmp_path, tag="part", goal_successes=5, max_rollouts=3))
        part = tmp_path / "part.jsonl"
        last = part.read_bytes().splitlines(keepends=True)[-1]
        with open(part, "ab") as fh:
            fh.write(last[: len(last) // 2] if tail == "torn" else last)
        run_campaign(self.cfg(tmp_path, tag="part", goal_successes=5), resume=True)
        assert part.read_bytes() == (tmp_path / "full.jsonl").read_bytes()

    def test_max_rollouts_caps_the_loop(self, tmp_path):
        rep = run_campaign(self.cfg(tmp_path, goal_successes=50, max_rollouts=4))
        assert rep.total_rollouts == 4
        assert rep.successes <= 4

    def test_llm_mode_needs_gateway(self):
        with pytest.raises(ConfigError, match="gateway"):
            run_campaign(self.cfg(annotator="llm"))

    def test_gateway_transport_failure_checkpoints_and_resumes(self, tmp_path):
        source = record_demo(TaskSpec("pick_place"), 1001, demo_id="pick_place-src00")
        good_ann = scripted_annotate(source, "pick_place")

        def responder(prompt):
            if prompt.startswith("You are assisting with analysis"):
                return ", ".join(str(k.t) for k in good_ann.keyposes)
            kps = [
                {
                    "t": k.t,
                    "pos_mm": list(k.pos_mm),
                    "euler_deg": list(k.euler_deg),
                    "gripper": k.gripper,
                    "objects": list(k.objects),
                    "note": k.note,
                }
                for k in good_ann.keyposes
            ]
            return json.dumps({"description": "pick and place", "keyposes": kps})

        cfg = self.cfg(
            tmp_path,
            goal_successes=3,
            annotator="llm",
            source_demo_seeds=(1001,),
        )
        broken = MockGateway(replies([]))  # no reply left: a dead transport
        with pytest.raises(GatewayError):
            run_campaign(cfg, gateway=broken)
        assert os.path.exists(cfg.checkpoint_path)

        rep = run_campaign(cfg, gateway=MockGateway(responder=responder), resume=True)
        assert rep.successes == 3

    def test_llm_retarget_failures_counted_as_rollouts(self, tmp_path):
        # a gateway that always answers garbage: every retarget attempt
        # exhausts its retries and the pull is logged as a failed rollout
        cfg = self.cfg(
            tmp_path,
            goal_successes=2,
            retargeter="llm",
            max_rollouts=3,
            source_demo_seeds=(1001,),
        )
        rep = run_campaign(cfg, gateway=MockGateway(responder=lambda prompt: "no keyposes here"))
        assert rep.total_rollouts == 3
        assert rep.successes == 0
        assert rep.new_arm_attempts == 3
        assert rep.new_arm_successes == 0

    @staticmethod
    def assert_rollouts_add_up(rep):
        pulled = sum(r["n_suc"] + r["n_fail"] for r in rep.per_arm)
        assert pulled + rep.new_arm_attempts - rep.new_arm_successes == rep.total_rollouts

    def test_llm_retarget_failure_is_a_failed_pull_of_the_chosen_arm(self, tmp_path, monkeypatch):
        # the first retarget works, so the minted arm is kept; each later one
        # fails, and every such pull is a failure of that one arm
        source = record_demo(TaskSpec("pick_place"), 1001, demo_id="pick_place-src00")
        first = source.observation(0)
        old_scene = SceneObservation(first.robot_pose, {o.name: o.pose for o in first.objects})
        calls = []

        def retarget_once(gateway, annotation, task, scene):
            calls.append(scene)
            if len(calls) > 1:
                raise RetargetFailed("no usable retarget")
            return scripted_retarget(scripted_annotate(source, "pick_place"), scene, old_scene)

        monkeypatch.setattr(campaign, "retarget", retarget_once)
        cfg = self.cfg(
            tmp_path, goal_successes=3, mode="fixed_first", retargeter="llm", max_rollouts=5, source_demo_seeds=(1001,)
        )
        rep = run_campaign(cfg, gateway=MockGateway(responder=lambda prompt: "unused"))
        assert len(calls) == rep.total_rollouts == 5
        assert rep.successes == 1
        assert (rep.new_arm_attempts, rep.new_arm_successes) == (1, 1)
        assert [(r["n_suc"], r["n_fail"]) for r in rep.per_arm] == [(1, 4)]
        self.assert_rollouts_add_up(rep)

    def test_llm_annotation_failures_are_discarded_attempts(self, tmp_path):
        # a gateway with no usable answer: every mint fails, so every
        # rollout is an attempt that adds no arm
        cfg = self.cfg(tmp_path, goal_successes=2, annotator="llm", max_rollouts=3, source_demo_seeds=(1001,))
        rep = run_campaign(cfg, gateway=MockGateway(responder=lambda prompt: "no frames here"))
        assert (rep.total_rollouts, rep.successes) == (3, 0)
        assert (rep.new_arm_attempts, rep.new_arm_successes) == (3, 0)
        assert rep.per_arm == []
        assert read_dataset(cfg.dataset_path) == []
        self.assert_rollouts_add_up(rep)

    def test_checkpoint_is_json_dump_bytes(self, tmp_path):
        # the checkpoint goes through json's C encoder; its bytes are what json.dump writes
        cfg = self.cfg(tmp_path, goal_successes=4, mode="no_optimization", noise_min=0.0005, noise_max=0.001)
        rep = run_campaign(cfg)
        assert len(rep.per_arm) >= 3
        with open(cfg.checkpoint_path) as fh:
            written = fh.read()
        buf = io.StringIO()
        json.dump(json.loads(written), buf)
        assert written == buf.getvalue()

    def test_output_paths_checked_before_any_rollout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(campaign, "record_demo", lambda *a, **kw: pytest.fail("recorded a demo"))
        monkeypatch.chdir(tmp_path)
        for name in ("dataset_path", "checkpoint_path"):
            for path in (tmp_path / "missing" / "out.json", tmp_path, ""):
                cfg = self.cfg(tmp_path, **{name: str(path)})
                with pytest.raises(ConfigError, match=f"{name} .* must name a file in an existing directory"):
                    run_campaign(cfg)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("spelling", ["same path", "temp file", "dotted path", "symlink"])
    def test_dataset_on_a_checkpoint_file_rejected_before_any_rollout(self, tmp_path, monkeypatch, spelling):
        # every checkpoint write replaces the checkpoint and removes its temp file
        monkeypatch.setattr(campaign, "record_demo", lambda *a, **kw: pytest.fail("recorded a demo"))
        ckpt = str(tmp_path / "c.ckpt.json")
        dataset = {
            "same path": ckpt,
            "temp file": ckpt + ".tmp",
            "dotted path": str(tmp_path / "sub" / ".." / "c.ckpt.json"),
            "symlink": str(tmp_path / "link.jsonl"),
        }[spelling]
        if spelling == "symlink":
            os.symlink(ckpt, dataset)
        with pytest.raises(ConfigError, match="dataset_path .* is the checkpoint file or its temp file"):
            run_campaign(self.cfg(tmp_path, dataset_path=dataset, checkpoint_path=ckpt))
        assert os.listdir(tmp_path) == (["link.jsonl"] if spelling == "symlink" else [])


class Killed(BaseException):
    """A kill at a persistence boundary: no handler in the campaign catches it."""


class TornWriter:
    """A file whose first write stops halfway, as a kill in the middle of writing it leaves it."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise Killed("torn write")


class TestCheckpoint:
    """A bandit campaign that discards mints and fails pulls, killed and resumed."""

    BOUNDARIES = ("append_demo before writing", "append_demo torn line", "checkpoint temp write", "checkpoint replace")

    def cfg(self, tmp_path, tag):
        return CampaignConfig(
            task="pick_place", goal_successes=6, seed=5, noise_min=0.004, noise_max=0.018, decision_samples=100,
            prior_samples=150, max_rollouts=60,
            dataset_path=str(tmp_path / f"{tag}.jsonl"), checkpoint_path=str(tmp_path / f"{tag}.ckpt.json"),
        )

    @staticmethod
    def fail_once(monkeypatch, boundary, at):
        """Make the at-th call at ``boundary`` (0-based) die; the calls made so far are returned."""
        calls = []

        def due():
            calls.append(None)
            return len(calls) == at + 1

        if boundary.startswith("append_demo"):
            real_append = campaign.append_demo

            def append(path, demo):
                if due():
                    if boundary == "append_demo torn line":
                        with TornWriter(open(path, "a")) as fh:
                            fh.write(demo_line(demo) + "\n")
                    raise Killed(boundary)
                real_append(path, demo)

            monkeypatch.setattr(campaign, "append_demo", append)
        elif boundary == "checkpoint temp write":

            def opener(path, *args, **kwargs):
                fh = open(path, *args, **kwargs)
                return TornWriter(fh) if str(path).endswith(".tmp") and due() else fh

            monkeypatch.setattr(campaign, "open", opener, raising=False)
        else:
            real_replace = os.replace

            def replace(src, dst):
                if due():
                    raise Killed(boundary)
                real_replace(src, dst)

            monkeypatch.setattr(campaign.os, "replace", replace)
        return calls

    # at 0 no checkpoint exists yet; the third checkpoint write follows the first kept demo, so a kill
    # there leaves the dataset one demo ahead of the checkpoint
    @pytest.mark.parametrize("at", [0, 2])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_kill_at_a_persistence_boundary_then_resume(self, tmp_path, monkeypatch, boundary, at):
        full = run_campaign(self.cfg(tmp_path, "full"))
        cfg = self.cfg(tmp_path, "part")
        with monkeypatch.context() as patch:
            calls = self.fail_once(patch, boundary, at)
            with pytest.raises(Killed):
                run_campaign(cfg)
        assert len(calls) == at + 1
        if boundary == "append_demo torn line":
            assert not (tmp_path / "part.jsonl").read_bytes().endswith(b"\n")
        if boundary == "checkpoint temp write":
            assert (tmp_path / "part.ckpt.json.tmp").exists()
        resumed = run_campaign(cfg, resume=True)
        assert (tmp_path / "part.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()
        a, b = full.to_json(), resumed.to_json()
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b

    # one arm record as checkpoints have always written it: the annotation's
    # keys are the Annotation and Keypose field names, in field order, and its
    # poses and key-pose block are source demo 00's, as repair_annotation writes them;
    # its source demo and noise are mint 0's seeded draw, as its id says
    ONE_ARM = (
        '{"annotation": {"id": "pick_place-arm000", "source_demo_id": "pick_place-src00", "created_by": "scripted", '
        '"description_text": "Scripted annotation of a pick_place demonstration.\\n\\nKey poses:\\n'
        't=0: position_mm [2.077, 1.966, 247.204] rotation_deg [0.00, 0.00, 5.16] gripper open; objects: none\\n'
        't=265: position_mm [0.000, 0.000, 250.000] rotation_deg [0.00, 0.00, 0.00] gripper open; objects: block; '
        'note: end-effector offset from block: [0.0, 0.0, 12.5] mm", "keyposes": ['
        '{"t": 0, "pos_mm": [2.077380871307255, 1.9658139568441333, 247.2035622297996], '
        '"euler_deg": [-0.0, 0.0, 5.156620156177407], "gripper": 1.0, "objects": [], "note": ""}, '
        '{"t": 265, "pos_mm": [0.0, 0.0, 250.0], "euler_deg": [-0.0, 0.0, 0.0], "gripper": 1.0, '
        '"objects": ["block"], "note": "end-effector offset from block: [0.0, 0.0, 12.5] mm"}]}, '
        '"noise_std": 0.014375196856435419, "n_suc": 3, "n_fail": 2}'
    )

    def test_one_arm_checkpoint_loads_and_rewrites_unchanged(self, tmp_path):
        cfg = self.cfg(tmp_path, "lit")
        arm = json.loads(self.ONE_ARM)
        assert list(arm) == ["annotation", "noise_std", "n_suc", "n_fail"]
        assert list(arm["annotation"]) == ["id", "source_demo_id", "created_by", "description_text", "keyposes"]
        doc = {
            "fingerprint": cfg.fingerprint(), "arms": [arm], "new_arm_attempts": 2, "successes": 3, "rollouts": 6,
            "elapsed": 2e-05,  # exponent number text
        }
        with open(cfg.checkpoint_path, "w") as fh:
            fh.write(json.dumps(doc))
        state, arms_meta, rollouts, elapsed = campaign._load_checkpoint(cfg, campaign._record_source_demos(cfg))
        assert [(a.annotation_id, a.n_suc, a.n_fail) for a in state.arms] == [("pick_place-arm000", 3, 2)]
        assert [k.objects for k in arms_meta[0].annotation.keyposes] == [(), ("block",)]
        os.remove(cfg.checkpoint_path)
        campaign._write_checkpoint(cfg, state, arms_meta, rollouts, elapsed)
        with open(cfg.checkpoint_path) as fh:
            assert fh.read() == json.dumps(doc)  # same keys, key order and number text

    def test_every_checkpoint_rebuilds_the_live_state(self, tmp_path, monkeypatch):
        cfg = self.cfg(tmp_path, "rt")
        sources = campaign._record_source_demos(cfg)
        write = campaign._write_checkpoint
        written = []

        def write_then_load(cfg, state, arms_meta, rollouts, elapsed):
            write(cfg, state, arms_meta, rollouts, elapsed)
            loaded, loaded_meta, loaded_rollouts, loaded_elapsed = campaign._load_checkpoint(cfg, sources)
            assert loaded == state  # every BanditState field
            assert [(m.annotation, m.noise_std) for m in loaded_meta] == [
                (m.annotation, m.noise_std) for m in arms_meta
            ]
            assert (loaded_rollouts, loaded_elapsed) == (rollouts, elapsed)
            written.append(rollouts)

        # k = 0: what a gateway error before the first rollout leaves
        write_then_load(cfg, BanditState(goal_successes=cfg.goal_successes), [], 0, 0.0)
        monkeypatch.setattr(campaign, "_write_checkpoint", write_then_load)
        rep = run_campaign(cfg)
        assert written == list(range(rep.total_rollouts + 1))
        assert rep.new_arm_attempts > rep.new_arm_successes >= 2
        assert any(row["n_fail"] for row in rep.per_arm)
        with open(cfg.checkpoint_path) as fh:
            doc = json.load(fh)
        assert list(doc) == ["fingerprint", "arms", "new_arm_attempts", "successes", "rollouts", "elapsed"]
        assert all(list(arm) == ["annotation", "noise_std", "n_suc", "n_fail"] for arm in doc["arms"])


class TestSummaryOncePerSource:
    """An LLM-annotated campaign summarises each source demo it mints from once."""

    SEEDS = (1001, 1002)

    @pytest.fixture(scope="class")
    def responder(self):
        spec = TaskSpec("pick_place")
        sources = [record_demo(spec, s, demo_id=f"pick_place-src{j:02d}") for j, s in enumerate(self.SEEDS)]
        assert len({d.horizon for d in sources}) == len(sources)
        keyposes = {d.horizon: scripted_annotate(d, "pick_place").keyposes for d in sources}

        def respond(prompt):
            kps = keyposes[int(re.search(r"runs from timestep 0 to (\d+)", prompt).group(1))]
            if prompt.startswith("You are assisting with analysis"):
                return ", ".join(str(k.t) for k in kps)
            return json.dumps({"description": "pick and place", "keyposes": [dataclasses.asdict(k) for k in kps]})

        return respond

    def run(self, tmp_path, responder, tag):
        cfg = CampaignConfig(
            task="pick_place", goal_successes=6, seed=3, mode="no_optimization", annotator="llm",
            noise_min=0.0, noise_max=0.002, source_demo_seeds=self.SEEDS,
            dataset_path=str(tmp_path / f"{tag}.jsonl"), checkpoint_path=str(tmp_path / f"{tag}.ckpt.json"),
        )
        audit_path = tmp_path / f"{tag}.audit.jsonl"
        rep = run_campaign(cfg, gateway=MockGateway(responder, AuditLog(audit_path)))
        with open(cfg.dataset_path, "rb") as fh:
            dataset = fh.read()
        return rep, [e.request for e in AuditLog.read(audit_path)], dataset

    def test_once_per_source_and_same_requests(self, tmp_path, monkeypatch, responder):
        built = []
        summary = Demonstration.__dict__["summary"]

        def counting(demo):
            built.append(demo)
            return summary.func(demo)

        counted = functools.cached_property(counting)
        counted.__set_name__(Demonstration, "summary")
        with monkeypatch.context() as patch:
            patch.setattr(Demonstration, "summary", counted)
            rep, requests, dataset = self.run(tmp_path, responder, "once")
        assert rep.new_arm_attempts == rep.total_rollouts >= 6
        # one build per source demo object, however many mints read it
        assert len({id(demo) for demo in built}) == len(built)
        assert sorted(demo.demo_id for demo in built) == ["pick_place-src00", "pick_place-src01"]

        def per_mint(gateway, demo, task):
            # the summary rebuilt on every mint, by the per-pose summariser
            demo.__dict__["summary"] = summarize_demo_oracle(demo)
            return create_annotation(gateway, demo, task)

        monkeypatch.setattr(campaign, "create_annotation", per_mint)
        old_rep, old_requests, old_dataset = self.run(tmp_path, responder, "every")
        assert len(requests) == 2 * rep.new_arm_attempts
        assert requests == old_requests
        assert dataset == old_dataset
        assert rep.per_arm == old_rep.per_arm


class TestReport:
    def test_round_trip_and_table(self):
        rep = CampaignReport(
            task="pick_place",
            mode="bandit",
            goal_successes=5,
            total_rollouts=9,
            successes=5,
            new_arm_attempts=3,
            new_arm_successes=2,
            per_arm=[{"annotation_id": "a0", "n_suc": 4, "n_fail": 2, "noise_std": 0.004}],
            best_arm_rate=4 / 6,
            success_rate=5 / 9,
            wall_time=1.25,
        )
        assert CampaignReport.from_json(rep.to_json()) == rep
        table = rep.render_table()
        assert "a0" in table and "4" in table and "pick_place" in table

    def test_successes_capped_by_rollouts(self):
        with pytest.raises(ValueError):
            CampaignReport(
                task="t",
                mode="bandit",
                goal_successes=1,
                total_rollouts=1,
                successes=2,
                new_arm_attempts=0,
                new_arm_successes=0,
                per_arm=[],
                best_arm_rate=0.0,
                success_rate=1.0,
                wall_time=0.0,
            )
