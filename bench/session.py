"""One benchmark session in a fresh single-threaded process.

    python3 bench/session.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR [--setup-only]

Sets the workload up (imports, mock gateway, evaluation source demo,
warm-up), then runs whole rounds of one user session (generate, audit,
evaluate) until the next round would end past ``--seconds``, then checks
every output and prints one JSON object as its last line. ``bench/run.py``
is the entry point; it pins the thread pools and sets PYTHONPATH.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("scripted_reuse", "bandit_production", "llm_fresh")

# scripted_reuse: three tasks, every rollout kept; the audit takes the largest file
SCRIPTED_TASKS = ("pick_place", "stack", "drawer_mug")
SCRIPTED_GOAL = 4
SCRIPTED_EVAL_TRIALS = 10
# bandit_production: one fixed campaign; its random path sets the cost
BANDIT_SEED = 6
BANDIT_GOAL = 40
BANDIT_EVAL_TRIALS = 250
# llm_fresh: a fresh mock annotation and retarget for every rollout
LLM_GOAL = 12
LLM_EVAL_TRIALS = 10
FAULT_SEED = 7
FAULT_NOISE = 0.005
# one recorded source demo per task: which of several a mint picks would
# otherwise move demo length, and so the rates, from seed to seed
SOURCE_SEED = 1001


def derive(*keys) -> int:
    """A campaign or evaluation seed from the run seed and a position."""
    import numpy as np

    return int(np.random.SeedSequence([0xBE4C, *keys]).generate_state(1)[0])


class Op:
    """One call of a demoforge command and the checks owed on its output."""

    def __init__(self, phase: str, units: int, expect=None):
        self.phase, self.units, self.expect = phase, units, expect
        self.t0 = self.t1 = 0.0
        self.ok = False
        self.result = None
        self.error: Exception | None = None
        self.checks: list = []


class Session:
    def __init__(self, workload: str, seed: int, out_dir: str, clock, recorder):
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.clock, self.rec = clock, recorder
        self.ops: list[Op] = []
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.dataset_bytes = 0
        self.reports: list = []  # (mode, CampaignReport) of generate ops
        self.disturbance_steps: list[int] = []
        self.responder = None
        self._decision_cache: dict[str, bool] = {}

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        from demoforge import bandit, campaign
        from demoforge.annotation import TaskDescription, create_annotation, scripted_annotate
        from demoforge.gateway import MockGateway
        from demoforge.simworld import TaskSpec, record_demo

        from mockllm import CompetentResponder

        warm_seed = derive(self.seed, 0xA11)
        if self.workload == "scripted_reuse":
            self.eval_spec = TaskSpec("stack_walking")
            source = record_demo(self.eval_spec, SOURCE_SEED, demo_id="stack_walking-src")
            self.runner = campaign.feedforward_runner(scripted_annotate(source, "stack_walking"), source)
        elif self.workload == "bandit_production":
            self.eval_spec = TaskSpec("pick_place")
            self.runner = campaign.scripted_runner()
            # first calls into scipy's optimiser and betaincinv load lazily
            state = bandit.BanditState(arms=[bandit.Arm("warm", 2, 1)], goal_successes=4)
            prior = bandit.fit_arm_prior(state.arms, m=50, rng=0)
            bandit.decide_new_arm(state, 3, prior, k=20, rng=0)
        else:
            self.eval_spec = TaskSpec("pick_place")
            source = record_demo(self.eval_spec, SOURCE_SEED, demo_id="pick_place-src00")
            self.responder = CompetentResponder(source)
            self.gateway = MockGateway(responder=self.responder)
            self.fault_gateways = {
                fault: MockGateway(responder=CompetentResponder(source, fault=fault))
                for fault in ("unknown_object", "near_duplicate")
            }
            annotation = create_annotation(
                self.gateway, source, TaskDescription(campaign.TASK_DESCRIPTIONS["pick_place"])
            )
            self.runner = campaign.ensemble_runner(annotation, source, disturbance=self._disturb)
        self.runner(self.eval_spec, warm_seed)
        self.disturbance_steps.clear()

    def _disturb(self, traj):
        """Displace the block 6.4 cm shortly before the recorded grasp."""
        import numpy as np

        grasp = next(i for i in range(1, len(traj)) if traj.gripper[i] < traj.gripper[i - 1])
        step = max(0, grasp - 25)
        self.disturbance_steps.append(step)
        return [(step, "block", np.array([0.05, 0.04, 0.0]))]

    # -- operations -----------------------------------------------------------

    def _run(self, op: Op, fn):
        self.ops.append(op)
        with self.rec.phase(op.phase):
            op.t0 = self.clock.now()
            try:
                op.result = fn()
                op.ok = True
            except Exception as err:  # a failed operation is counted, the run goes on
                op.error = err
            op.t1 = self.clock.now()
        if not op.ok and (op.expect is None or not isinstance(op.error, op.expect)):
            self.problems.append(f"{op.phase}: unexpected {type(op.error).__name__}: {op.error}")
        return op.result

    def _generate(self, cfg, gateway=None, expect=None) -> Op:
        from demoforge.campaign import run_campaign

        op = Op("generate" if expect is None else "fault", cfg.goal_successes, expect)
        d0, e0 = len(self.rec.decisions), len(self.rec.events)
        report = self._run(op, lambda: run_campaign(cfg, gateway=gateway))
        if report is not None:
            if op.phase == "generate":
                self.reports.append((cfg.mode, report))
            decisions = self.rec.decisions[d0:]
            events = self.rec.events[e0:]
            op.checks.append(lambda: self._check_generated(cfg, report, decisions, events))
        return op

    def _check_generated(self, cfg, report, decisions, events) -> None:
        import checks

        facts = checks.check_dataset(cfg.dataset_path, cfg.task, cfg.goal_successes)
        checks.check_conservation(report)
        self.dataset_bytes += facts["bytes"]
        self.digests.append(f"digest {self.workload} {os.path.basename(cfg.dataset_path)} sha256={facts['sha256']}")
        for d in decisions:
            key = json.dumps(d, sort_keys=True, default=str)
            if key not in self._decision_cache:
                checks.check_decision(d)  # raises on a mismatch
                self._decision_cache[key] = d["answer"]
        if cfg.mode == "bandit":
            digest = checks.sequence_digest(events + [("arms", report.per_arm)])
            self.digests.append(f"digest {self.workload} {os.path.basename(cfg.dataset_path)} bandit-sequence sha256={digest}")

    def _audit(self, path: str, demos: int) -> Op:
        from demoforge.campaign import audit_dataset

        import checks

        op = Op("audit", demos)
        result = self._run(op, lambda: audit_dataset(path))
        scratch = os.path.join(self.out_dir, "round-trip.jsonl")
        op.checks.append(lambda: checks.check_audit(result, demos))
        op.checks.append(lambda: checks.check_round_trip(path, scratch))
        return op

    def _evaluate(self, r: int, trials: int) -> Op:
        from demoforge.campaign import evaluate_policy

        import checks

        op = Op("evaluate", trials)
        e0, s0 = len(self.rec.episodes), len(self.disturbance_steps)
        report = self._run(op, lambda: evaluate_policy(self.runner, self.eval_spec, trials, seed=derive(self.seed, r, 0xE7)))
        op.checks.append(lambda: checks.check_eval(report, trials))
        if self.workload == "llm_fresh":
            episodes = self.rec.episodes[e0:]
            steps = self.disturbance_steps[s0:]

            def check_episodes():
                if len(episodes) != trials or len(steps) != trials:
                    raise checks.CheckFailed(f"{len(episodes)} episodes for {trials} trials")
                for ep, step in zip(episodes, steps):
                    checks.check_episode(ep, step)

            op.checks.append(check_episodes)
        return op

    def _config(self, r: int, name: str, **fields):
        from demoforge.campaign import CampaignConfig

        stem = os.path.join(self.out_dir, f"r{r:02d}-{name}")
        return CampaignConfig(dataset_path=stem + ".jsonl", checkpoint_path=stem + ".ckpt.json", **fields)

    def round(self, r: int) -> None:
        if self.workload == "scripted_reuse":
            paths = []
            for j, task in enumerate(SCRIPTED_TASKS):
                cfg = self._config(
                    r, task, task=task, goal_successes=SCRIPTED_GOAL, seed=derive(self.seed, r, j),
                    mode="fixed_first", noise_min=0.0, noise_max=0.0, source_demo_seeds=(SOURCE_SEED,),
                )
                if self._generate(cfg).ok:
                    paths.append(cfg.dataset_path)
            if paths:
                self._audit(max(paths, key=os.path.getsize), SCRIPTED_GOAL)
            self._evaluate(r, SCRIPTED_EVAL_TRIALS)
        elif self.workload == "bandit_production":
            cfg = self._config(
                r, "pick_place-bandit", task="pick_place", goal_successes=BANDIT_GOAL, seed=BANDIT_SEED,
                mode="bandit", decision_samples=1000, prior_samples=1000,
            )
            if self._generate(cfg).ok:
                self._audit(cfg.dataset_path, BANDIT_GOAL)
            self._evaluate(r, BANDIT_EVAL_TRIALS)
        else:
            from demoforge.retargeting import UnknownObject
            from demoforge.warping import DegenerateChord

            cfg = self._config(
                r, "pick_place-llm", task="pick_place", goal_successes=LLM_GOAL, seed=derive(self.seed, r),
                mode="no_optimization", annotator="llm", retargeter="llm", source_demo_seeds=(SOURCE_SEED,),
            )
            main = self._generate(cfg, self.gateway)
            for fault, expect in (("unknown_object", UnknownObject), ("near_duplicate", DegenerateChord)):
                noise = FAULT_NOISE if fault == "near_duplicate" else 0.0
                fault_cfg = self._config(
                    r, f"fault-{fault}", task="pick_place", goal_successes=1, seed=FAULT_SEED,
                    mode="no_optimization", annotator="llm", retargeter="scripted",
                    noise_min=noise, noise_max=noise, source_demo_seeds=(SOURCE_SEED,),
                )
                self._generate(fault_cfg, self.fault_gateways[fault], expect=expect)
            if main.ok:
                self._audit(cfg.dataset_path, LLM_GOAL)
            self._evaluate(r, LLM_EVAL_TRIALS)

    # -- results --------------------------------------------------------------

    def run_checks(self) -> None:
        for op in self.ops:
            for check in op.checks if op.ok else []:
                try:
                    check()
                except Exception as err:  # every failed check is reported, none stops the rest
                    op.ok = False
                    self.problems.append(f"{op.phase} check: {type(err).__name__}: {err}")
                    break

    def rate(self, phase: str) -> float:
        done = [op for op in self.ops if op.phase == phase and op.ok]
        seconds = sum(self.clock.ref_seconds(op.t0, op.t1) for op in done)
        return sum(op.units for op in done) / seconds if seconds > 0 else 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    from refclock import RefClock

    clock = RefClock()
    clock.start()
    import tracing

    session = Session(args.workload, args.seed, args.out, clock, tracing.Recorder(clock, trace=bool(args.trace)))
    session.setup()
    t_setup = clock.now()
    clock.ensure_probes()
    setup_s = clock.ref_seconds(T_PROCESS, t_setup)
    if args.setup_only:
        clock.stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rec = session.rec
    rec.install()
    if args.workload == "llm_fresh":
        rec.instrument_gateway(session.gateway)
    t_rounds = clock.now()
    rounds = 0
    while True:
        t0 = clock.now()
        session.round(rounds)
        rounds += 1
        t1 = clock.now()
        if t1 + (t1 - t0) > t_rounds + args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.stop()
    rec.uninstall()

    session.run_checks()
    print(f"host probe_median_ms={1e3 * statistics.median(clock.durations):.4f} rounds={rounds}")
    for line in session.digests:
        print(line)
    for line in session.problems:
        print(f"problem {line}", file=sys.stderr)

    if args.trace:
        metrics = tracing.layer_metrics(session, rounds)
    else:
        metrics = {
            "setup_s": setup_s,
            "gen_demos_per_s": session.rate("generate"),
            "audit_demos_per_s": session.rate("audit"),
            "eval_trials_per_s": session.rate("evaluate"),
            "peak_rss_mib": peak_rss_mib,
        }
    print(
        json.dumps(
            {
                "correct": not session.problems,
                "attempted": len(session.ops),
                "failed": sum(1 for op in session.ops if not op.ok),
                "rounds": rounds,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
