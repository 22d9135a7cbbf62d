"""The seed-1 results of the benchmark's three workloads, pinned.

Each test runs round 0 of one workload of ``bench/session.py`` in-process
(generate, audit, evaluate), with the benchmark's own configs, seeds and
output checks, and asserts the SHA-256 of what it wrote: the datasets, the
bandit's decide/pull sequence, and for the mock-LLM workload the gateway's
request texts and the ensemble episodes of the evaluation. A change that
moves one bit of a warped pose, a world step, a Thompson pick or a reattach
pick fails here. A separate test hashes the full switching-ensemble trace
of ten disturbed trials, every similarity float included.

The digests hold for one numeric stack only; the test names it and fails,
never skips, on any other.
"""
import hashlib
import importlib
import itertools
import json
import pathlib

import numpy as np
import pytest
import scipy

from demoforge import campaign, gateway
from demoforge.annotation import scripted_annotate
from demoforge.gateway import AuditLog
from demoforge.simworld import TaskSpec, record_demo

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

NUMERIC_STACK = {"numpy": "2.4.6", "scipy": "1.17.1", "OpenBLAS": "0.3.31"}

DIGESTS = {
    "scripted_reuse": [
        ("r00-pick_place.jsonl", "a69111ac42c8b9c8a0d013eec0839bb0baeeb6e9bef27349bde6033054d03982"),
        ("r00-stack.jsonl", "3777632d4c47b5ba6ae4d1d15572e030dea97046febd6bfbe250eb042c2de985"),
        ("r00-drawer_mug.jsonl", "459bcb6b0f11cd6606d49fdfa55f90c8c3716fece48ce24223d9136d8dfccf7c"),
    ],
    "bandit_production": [
        ("r00-pick_place-bandit.jsonl", "feb587e4d1dec6c315b9549290d18dd8fe76022ffc301390972aa205125be25d"),
        ("r00-pick_place-bandit.jsonl bandit-sequence", "2f0e7b9f3257d5b4a44d5739b26351224c25270000b5d823a7031a3d18309dfe"),
    ],
    "llm_fresh": [
        ("r00-pick_place-llm.jsonl", "7aa6b1f9858ce6e9183106ebf313d927e939d832c795cfb52030207aeb5483ca"),
    ],
}
LLM_REQUESTS_SHA256 = "8f0af69f77296aa224f97f3801269d03a518697e7facf24e764165a5a6035abd"
LLM_EPISODES_SHA256 = "d540a11a06fe7f3ad3da98ea15fbdcb1779509b6e0d1bb0424636e854a01d2ad"


def numeric_stack() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    return {"numpy": np.__version__, "scipy": scipy.__version__, "OpenBLAS": ".".join(blas.split(".")[:3])}


class CountingClock:
    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        self.t += 1.0
        return self.t


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_round_zero(workload, out_dir, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    bench_session = importlib.import_module("session")
    tracing = importlib.import_module("tracing")
    # every gateway the session builds without a log gets its own audit file,
    # in place before set-up's first request
    numbers = itertools.count()
    monkeypatch.setattr(gateway, "AuditLog", lambda: AuditLog(out_dir / f"audit-{next(numbers)}.jsonl"))
    clock = CountingClock()
    session = bench_session.Session(workload, 1, str(out_dir), clock, tracing.Recorder(clock, trace=False))
    session.setup()
    session.rec.install()
    try:
        session.round(0)
    finally:
        session.rec.uninstall()
    session.run_checks()
    return session


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_one_round_zero_digests(workload, tmp_path, monkeypatch):
    assert numeric_stack() == NUMERIC_STACK, (
        f"the pinned digests were taken on {NUMERIC_STACK}; this stack is {numeric_stack()}"
    )
    session = run_round_zero(workload, tmp_path, monkeypatch)
    assert session.problems == []
    assert session.digests == [f"digest {workload} {name} sha256={digest}" for name, digest in DIGESTS[workload]]
    if workload == "llm_fresh":
        requests = "\n".join(e.request for e in AuditLog.read(session.gateway.audit_log.path))
        assert sha256(requests) == LLM_REQUESTS_SHA256
        assert sha256(json.dumps(session.rec.episodes)) == LLM_EPISODES_SHA256


ENSEMBLE_TRACES_SHA256 = "367a95bcb96ee9b3c5d6938deda21c7f0b3e103a31a79b72218c09d8f32bac9a"


def test_disturbed_ensemble_traces(monkeypatch):
    """Ten ``ensemble_runner`` trials on pick_place, the block pushed 6.4 cm
    25 points before the first gripper close (the benchmark's disturbance):
    the SHA-256 of every step's trace entry, ``similarity`` floats included."""
    assert numeric_stack() == NUMERIC_STACK, (
        f"the pinned trace digest was taken on {NUMERIC_STACK}; this stack is {numeric_stack()}"
    )
    spec = TaskSpec("pick_place")
    source = record_demo(spec, 1001)

    def disturb(traj):
        grasp = next(i for i in range(1, len(traj)) if traj.gripper[i] < traj.gripper[i - 1])
        return [(max(0, grasp - 25), "block", np.array([0.05, 0.04, 0.0]))]

    traces = []
    episode = campaign.run_ensemble_episode

    def traced(*args):
        out = episode(*args)
        traces.append(out.ensemble.trace)
        return out

    monkeypatch.setattr(campaign, "run_ensemble_episode", traced)
    runner = campaign.ensemble_runner(scripted_annotate(source, "pick_place"), source, disturbance=disturb)
    assert campaign.evaluate_policy(runner, spec, 10, seed=0).successes == 10
    assert len(traces) == 10
    assert sha256(json.dumps(traces)) == ENSEMBLE_TRACES_SHA256
