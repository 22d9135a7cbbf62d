"""CLI surface: verbs, config parsing, exit codes."""

import json
import os

import pytest
import requests
import yaml
from click.testing import CliRunner

from demoforge.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, campaign, gateway=None):
    doc = {"campaign": campaign}
    if gateway is not None:
        doc["gateway"] = gateway
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def tiny_campaign(tmp_path, **overrides):
    doc = {
        "task": "pick_place",
        "goal_successes": 3,
        "seed": 9,
        "noise_min": 0.0,
        "noise_max": 0.0,
        "decision_samples": 50,
        "prior_samples": 60,
        "dataset_path": str(tmp_path / "data.jsonl"),
        "checkpoint_path": str(tmp_path / "ckpt.json"),
    }
    doc.update(overrides)
    return doc


class TestGenerate:
    def test_runs_to_goal_and_writes_artifacts(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path))
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["generate", "-c", cfg, "--report-out", str(out)])
        assert result.exit_code == 0, result.output
        assert "successes: 3/3" in result.output
        assert len((tmp_path / "data.jsonl").read_text().splitlines()) == 3
        doc = json.loads(out.read_text())
        assert doc["successes"] == 3

    def test_resume_after_completion_is_a_no_op(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path))
        first = runner.invoke(main, ["generate", "-c", cfg])
        assert first.exit_code == 0, first.output
        again = runner.invoke(main, ["generate", "-c", cfg, "--resume"])
        assert again.exit_code == 0, again.output
        assert "successes: 3/3" in again.output

    def test_unknown_task_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path, task="juggle"))
        result = runner.invoke(main, ["generate", "-c", cfg])
        assert result.exit_code == 2
        assert "juggle" in result.output

    def test_missing_campaign_section_exits_2(self, runner, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump({"gateway": {"endpoint": "x"}}))
        result = runner.invoke(main, ["generate", "-c", str(path)])
        assert result.exit_code == 2
        assert "campaign" in result.output

    def test_unknown_section_exits_2(self, runner, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump({"campaign": tiny_campaign(tmp_path), "extra": 1}))
        result = runner.invoke(main, ["generate", "-c", str(path)])
        assert result.exit_code == 2
        assert "extra" in result.output

    @pytest.mark.parametrize("section", ["campaign", "top", "gateway"])
    def test_mixed_type_unknown_keys_exit_2_naming_both(self, runner, tmp_path, section):
        # int and str keys do not compare, so the unknown keys are sorted by repr
        extra = {1: "x", "foo": "y"}
        doc = {"campaign": tiny_campaign(tmp_path, annotator="llm"), "gateway": {"endpoint": "http://localhost:1"}}
        (doc if section == "top" else doc[section]).update(extra)
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["generate", "-c", str(path)])
        assert result.exit_code == 2, result.output
        assert "['foo', 1]" in result.output and "not supported" not in result.output

    def test_non_mapping_config_exits_2(self, runner, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- just\n- a list\n")
        result = runner.invoke(main, ["generate", "-c", str(path)])
        assert result.exit_code == 2

    def test_deeply_nested_config_exits_2(self, runner, tmp_path):
        # the YAML composer recurses once per nesting level and raises RecursionError
        path = tmp_path / "c.yaml"
        path.write_text("campaign: " + "[" * 100_000 + "]" * 100_000 + "\n")
        result = runner.invoke(main, ["generate", "-c", str(path)])
        assert result.exit_code == 2, result.output
        assert "malformed config" in result.output

    def test_config_file_missing_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "-c", str(tmp_path / "absent.yaml")])
        assert result.exit_code == 2

    def test_config_with_invalid_utf8_exits_2(self, runner, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_bytes(yaml.safe_dump({"campaign": tiny_campaign(tmp_path)}).encode() + b"# \xff\n")
        result = runner.invoke(main, ["generate", "-c", str(path)])
        assert result.exit_code == 2, result.output
        assert "cannot read" in result.output and "utf-8" in result.output

    @pytest.mark.parametrize("where", ["missing directory", "a directory", "empty"])
    @pytest.mark.parametrize("name", ["dataset_path", "checkpoint_path"])
    def test_bad_output_path_exits_2_before_any_rollout(self, runner, tmp_path, monkeypatch, name, where):
        monkeypatch.chdir(tmp_path)  # where an empty path would leave its files
        out = {"missing directory": tmp_path / "missing" / "out.json", "a directory": tmp_path / "out"}.get(where, "")
        if where == "a directory":
            out.mkdir()
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path, **{name: str(out)}))
        result = runner.invoke(main, ["generate", "-c", cfg])
        assert result.exit_code == 2, result.output
        assert f"error: {name}" in result.output
        assert sorted(os.listdir(tmp_path)) == sorted(["c.yaml"] + (["out"] if where == "a directory" else []))

    @pytest.mark.parametrize("suffix", ["", ".tmp"])
    def test_dataset_on_a_checkpoint_file_exits_2(self, runner, tmp_path, suffix):
        cfg = write_config(
            tmp_path / "c.yaml", tiny_campaign(tmp_path, dataset_path=str(tmp_path / "ckpt.json") + suffix)
        )
        result = runner.invoke(main, ["generate", "-c", cfg])
        assert result.exit_code == 2, result.output
        assert "error: dataset_path" in result.output
        assert os.listdir(tmp_path) == ["c.yaml"]

    def test_unwritable_report_out_prints_table_then_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path))
        result = runner.invoke(main, ["generate", "-c", cfg, "--report-out", str(tmp_path / "missing" / "r.json")])
        assert result.exit_code == 2, result.output
        assert "successes: 3/3" in result.output
        assert "error: cannot write report" in result.output
        assert result.output.index("successes: 3/3") < result.output.index("error:")
        assert len((tmp_path / "data.jsonl").read_text().splitlines()) == 3

    def test_llm_mode_without_gateway_section_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path, annotator="llm"))
        result = runner.invoke(main, ["generate", "-c", cfg])
        assert result.exit_code == 2
        assert "gateway" in result.output

    def test_gateway_without_endpoint_exits_2(self, runner, tmp_path):
        cfg = write_config(
            tmp_path / "c.yaml",
            tiny_campaign(tmp_path, annotator="llm"),
            gateway={"model": "m"},
        )
        result = runner.invoke(main, ["generate", "-c", cfg])
        assert result.exit_code == 2
        assert "endpoint" in result.output

    @pytest.mark.parametrize(
        "patch",
        [{"modle": "m"}, {"model": 5}, {"max_retries": "3"}, {"max_retries": -1}, {"timeout": 0}, {"backoff_base": -1}],
        ids=repr,
    )
    def test_bad_gateway_value_exits_2(self, runner, tmp_path, monkeypatch, patch):
        def no_network(*args, **kwargs):
            raise AssertionError("a bad gateway section must be refused before any request")

        monkeypatch.setattr(requests, "post", no_network)
        monkeypatch.setenv("DEMOFORGE_TEST_KEY", "k")
        cfg = write_config(
            tmp_path / "c.yaml",
            tiny_campaign(tmp_path, annotator="llm"),
            gateway={"endpoint": "http://localhost:1", "credential_env": "DEMOFORGE_TEST_KEY", **patch},
        )
        result = runner.invoke(main, ["generate", "-c", cfg])
        assert result.exit_code == 2, result.output
        assert "bad gateway section" in result.output

    def test_missing_credential_exits_3(self, runner, tmp_path, monkeypatch):
        # Credential lookup happens before any network traffic, so this
        # exercises the gateway failure path without ever opening a socket.
        monkeypatch.delenv("DEMOFORGE_TEST_KEY", raising=False)
        cfg = write_config(
            tmp_path / "c.yaml",
            tiny_campaign(tmp_path, annotator="llm"),
            gateway={"endpoint": "http://localhost:1", "credential_env": "DEMOFORGE_TEST_KEY"},
        )
        result = runner.invoke(main, ["generate", "-c", cfg])
        assert result.exit_code == 3
        assert "DEMOFORGE_TEST_KEY" in result.output

    def test_malformed_reply_body_exits_3_after_checkpoint(self, runner, tmp_path, monkeypatch):
        class NotJson:
            status_code = 200

            def json(self):
                raise requests.exceptions.JSONDecodeError("Expecting value", "<html>", 0)

        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: NotJson())
        monkeypatch.setenv("DEMOFORGE_TEST_KEY", "k")
        cfg = write_config(
            tmp_path / "c.yaml",
            tiny_campaign(tmp_path, annotator="llm"),
            gateway={"endpoint": "http://localhost:1", "credential_env": "DEMOFORGE_TEST_KEY"},
        )
        result = runner.invoke(main, ["generate", "-c", cfg])
        assert result.exit_code == 3, result.output
        assert json.loads((tmp_path / "ckpt.json").read_text())["rollouts"] == 0

    # checkpoint field edits: (path to the field, value). The bandit's current successes load from
    # "successes", and a bandit arm's id from its annotation's id
    FIELD_DAMAGE = {
        "rollouts not a count": (("rollouts",), "x"),
        "rollouts negative": (("rollouts",), -3),
        "elapsed not a number": (("elapsed",), "x"),
        "bandit current a string": (("successes",), "2"),
        "arm noise not a number": (("arms", 0, "noise_std"), "x"),
        "arm noise NaN": (("arms", 0, "noise_std"), float("nan")),
        "arm source demo unknown": (("arms", 0, "annotation", "source_demo_id"), "nope"),
        "arm source demo a list": (("arms", 0, "annotation", "source_demo_id"), ["pick_place-src00"]),
        "arm records missing": (("arms",), []),
        "bandit arm id a list": (("arms", 0, "annotation", "id"), [1]),
        "arm description null": (("arms", 0, "annotation", "description_text"), None),
        "arm creator a number": (("arms", 0, "annotation", "created_by"), 5),
        "arm n_suc zero": (("arms", 0, "n_suc"), 0),
        "attempts inflated": (("new_arm_attempts",), 3),
        "current off by one": (("successes",), 0),
    }
    # edits of the one arm's keypose list
    KEYPOSE_DAMAGE = {
        "keypose past the horizon": lambda kps: kps[-1].update(t=99999),
        "two keyposes swapped": lambda kps: kps.insert(1, kps.pop(2)),
        "keypose anchored on an absent object": lambda kps: kps[1].update(objects=["mug"]),
        "keypose objects not all names": lambda kps: kps[1].update(objects=["block", 5]),
        "keypose objects a mapping": lambda kps: kps[1].update(objects={"block": 1}),
        "keypose timestep infinite": lambda kps: kps[1].update(t=float("inf")),
        "keypose not an object": lambda kps: kps.__setitem__(1, 1),
        "keypose timestep fractional": lambda kps: kps[1].update(t=kps[1]["t"] + 0.7),
        "keypose timestep a string": lambda kps: kps[1].update(t=str(kps[1]["t"])),
        "keypose timestep a bool": lambda kps: kps[0].update(t=False),
        "keypose position strings": lambda kps: kps[1].update(pos_mm=[str(v) for v in kps[1]["pos_mm"]]),
        "keypose gripper a bool": lambda kps: kps[1].update(gripper=kps[1]["gripper"] >= 0.5),
        "keypose note null": lambda kps: kps[1].update(note=None),
    }

    @pytest.mark.parametrize(
        "damage",
        ["dataset deleted", "checkpoint torn", "checkpoint not a mapping", "checkpoint nested too deep",
         *FIELD_DAMAGE, *KEYPOSE_DAMAGE],
    )
    def test_resume_from_damaged_files_exits_2(self, runner, tmp_path, damage):
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path, goal_successes=1))
        assert runner.invoke(main, ["generate", "-c", cfg]).exit_code == 0
        if damage == "dataset deleted":
            (tmp_path / "data.jsonl").unlink()
        elif damage in self.FIELD_DAMAGE:
            path, value = self.FIELD_DAMAGE[damage]
            doc = json.loads((tmp_path / "ckpt.json").read_text())
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            (tmp_path / "ckpt.json").write_text(json.dumps(doc))
        elif damage in self.KEYPOSE_DAMAGE:
            doc = json.loads((tmp_path / "ckpt.json").read_text())
            self.KEYPOSE_DAMAGE[damage](doc["arms"][0]["annotation"]["keyposes"])
            (tmp_path / "ckpt.json").write_text(json.dumps(doc))
        elif damage == "checkpoint nested too deep":
            (tmp_path / "ckpt.json").write_text('{"fingerprint": ' + "[" * 100_000 + "]" * 100_000 + "}")
        else:
            (tmp_path / "ckpt.json").write_text('{"fingerprint": ' if damage == "checkpoint torn" else "[]")
        result = runner.invoke(main, ["generate", "-c", cfg, "--resume"])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output


    def test_resume_from_pre_change_checkpoint_exits_2(self, runner, tmp_path):
        # the format before arms carried their counts: a "bandit" block beside a parallel "arms" list
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path, goal_successes=1))
        assert runner.invoke(main, ["generate", "-c", cfg]).exit_code == 0
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        arm = doc["arms"][0]
        bandit_arm = {"annotation_id": arm["annotation"]["id"], "n_suc": arm["n_suc"], "n_fail": arm["n_fail"]}
        old = {
            "fingerprint": doc["fingerprint"],
            "bandit": {
                "arms": [bandit_arm], "new_arm_attempts": doc["new_arm_attempts"], "new_arm_successes": 1,
                "goal": 1, "current": doc["successes"], "seed": 9,
            },
            "arms": [{k: arm[k] for k in ("annotation", "noise_std")} | {"source_demo_id": "pick_place-src00"}],
            "rollouts": doc["rollouts"],
            "elapsed": doc["elapsed"],
        }
        (tmp_path / "ckpt.json").write_text(json.dumps(old))
        result = runner.invoke(main, ["generate", "-c", cfg, "--resume"])
        assert result.exit_code == 2, result.output
        assert "error: unreadable checkpoint" in result.output


class TestEvaluate:
    def test_scripted_policy(self, runner):
        result = runner.invoke(main, ["evaluate", "--task", "pick_place", "--trials", "4"])
        assert result.exit_code == 0, result.output
        assert "4/4" in result.output
        assert "rate 1.000" in result.output

    def test_feedforward_policy(self, runner):
        result = runner.invoke(
            main,
            ["evaluate", "--task", "pick_place", "--policy", "feedforward", "--trials", "3"],
        )
        assert result.exit_code == 0, result.output
        assert "feedforward on pick_place: 3/3" in result.output

    def test_bad_trial_count_exits_2(self, runner):
        result = runner.invoke(main, ["evaluate", "--task", "pick_place", "--trials", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_exits_2(self, runner, noise):
        result = runner.invoke(
            main,
            ["evaluate", "--task", "pick_place", "--policy", "feedforward", "--trials", "1", "--noise-std", noise],
        )
        assert result.exit_code == 2, result.output
        assert "--noise-std" in result.output

    @pytest.mark.parametrize(
        "option", [["--seed", "-1"], ["--policy", "feedforward", "--source-seed", "-1"]], ids=["seed", "source-seed"]
    )
    def test_negative_seed_exits_2(self, runner, option):
        result = runner.invoke(main, ["evaluate", "--task", "pick_place", "--trials", "1", *option])
        assert result.exit_code == 2, result.output
        assert option[-2] in result.output

    def test_unknown_task_rejected_by_click(self, runner):
        result = runner.invoke(main, ["evaluate", "--task", "juggle"])
        assert result.exit_code == 2


class TestReplay:
    def generate(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path))
        assert runner.invoke(main, ["generate", "-c", cfg]).exit_code == 0
        return tmp_path / "data.jsonl"

    def test_clean_dataset_exits_0(self, runner, tmp_path):
        dataset = self.generate(runner, tmp_path)
        result = runner.invoke(main, ["replay", str(dataset)])
        assert result.exit_code == 0, result.output
        assert "replayed 3/3" in result.output

    def test_corrupt_line_exits_2(self, runner, tmp_path):
        dataset = self.generate(runner, tmp_path)
        with open(dataset, "a") as fh:
            fh.write("{not json\n")
        result = runner.invoke(main, ["replay", str(dataset)])
        assert result.exit_code == 2
        assert "line 4" in result.output

    @pytest.mark.parametrize(
        "damage", ["gripper NaN", "entity renamed", "success as text", "numeric id", "provenance as pairs"]
    )
    def test_unreplayable_line_exits_2(self, runner, tmp_path, damage):
        dataset = self.generate(runner, tmp_path)
        lines = dataset.read_text().splitlines()
        doc = json.loads(lines[1])
        if damage == "gripper NaN":
            doc["steps"][5]["act"]["gripper"] = float("nan")
        elif damage == "entity renamed":
            doc["steps"][5]["obs"]["objects"][-1]["name"] = "mug"
        elif damage == "success as text":
            doc["success"] = "false"
        elif damage == "numeric id":
            doc["id"] = 17
        else:
            doc["provenance"] = list(doc["provenance"].items())
        lines[1] = json.dumps(doc)
        dataset.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", str(dataset)])
        assert result.exit_code == 2, result.output
        assert "line 2" in result.output

    def test_deeply_nested_key_exits_2(self, runner, tmp_path):
        # json.loads recurses once per nesting level and raises RecursionError
        dataset = self.generate(runner, tmp_path)
        lines = dataset.read_text().splitlines()
        lines[1] = lines[1][:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}"
        dataset.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", str(dataset)])
        assert result.exit_code == 2, result.output
        assert "line 2:" in result.output and "recursion" in result.output

    @pytest.mark.parametrize("line", [1, 2])
    def test_undecodable_bytes_exit_2(self, runner, tmp_path, line):
        dataset = self.generate(runner, tmp_path)
        lines = dataset.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        dataset.write_bytes(b"".join(lines))
        result = runner.invoke(main, ["replay", str(dataset)])
        assert result.exit_code == 2, result.output
        assert f"line {line}:" in result.output and "utf-8" in result.output

    def test_failing_demo_exits_1(self, runner, tmp_path):
        dataset = self.generate(runner, tmp_path)
        lines = dataset.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["seed"] = doc["seed"] + 1  # wrong scene: replay cannot succeed
        lines[0] = json.dumps(doc)
        dataset.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", str(dataset)])
        assert result.exit_code == 1
        assert "failed:" in result.output


class TestReport:
    def test_round_trip_render(self, runner, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", tiny_campaign(tmp_path))
        out = tmp_path / "report.json"
        generated = runner.invoke(main, ["generate", "-c", cfg, "--report-out", str(out)])
        assert generated.exit_code == 0
        rendered = runner.invoke(main, ["report", str(out)])
        assert rendered.exit_code == 0
        assert rendered.output.strip() in generated.output

    def test_garbage_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{]")
        result = runner.invoke(main, ["report", str(path)])
        assert result.exit_code == 2

    def test_deeply_nested_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"task": ' + "[" * 100_000 + "]" * 100_000 + "}")
        result = runner.invoke(main, ["report", str(path)])
        assert result.exit_code == 2, result.output
        assert "cannot read report" in result.output

    # a report as generate writes it, and edits that break only the rendering
    GOOD_REPORT = {
        "task": "pick_place", "mode": "bandit", "goal_successes": 1, "total_rollouts": 1, "successes": 1,
        "new_arm_attempts": 1, "new_arm_successes": 1,
        "per_arm": [{"annotation_id": "pick_place-arm000", "n_suc": 1, "n_fail": 0, "noise_std": 0.0}],
        "best_arm_rate": 1.0, "success_rate": 1.0, "wall_time": 0.5,
    }
    RENDER_DAMAGE = {
        "arm row without noise_std": {"per_arm": [{"annotation_id": "a", "n_suc": 1, "n_fail": 0}]},
        "success rate a string": {"success_rate": "x"},
        "per_arm a string": {"per_arm": "x"},
    }

    @pytest.mark.parametrize("damage", RENDER_DAMAGE)
    def test_unrenderable_report_exits_2(self, runner, tmp_path, damage):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(self.GOOD_REPORT))
        assert runner.invoke(main, ["report", str(path)]).exit_code == 0
        path.write_text(json.dumps(self.GOOD_REPORT | self.RENDER_DAMAGE[damage]))
        result = runner.invoke(main, ["report", str(path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output

    def test_wrong_shape_exits_2(self, runner, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"task": "pick_place"}))
        result = runner.invoke(main, ["report", str(path)])
        assert result.exit_code == 2
