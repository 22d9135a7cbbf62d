"""Spans and output capture around demoforge.campaign's calls into each layer.

The benchmark never edits demoforge. It rebinds, in the ``demoforge.campaign``
module namespace, the public functions the campaign code calls into the
other layers, and records one span per call: name, start, end, parent span
and a small payload read off the arguments or result. ``geometry`` and
``demos`` are measured through their callers; wrapping every Pose would
measure the wrapper.

Untraced runs install only the three capture wrappers the output checks
need (add-arm decision inputs and answers, Thompson pulls, ensemble
episodes); they record values, never times.
"""
from __future__ import annotations

import contextlib
import copy
import inspect
import os

import demoforge.campaign as campaign

# campaign-namespace name -> span name
TRACE_TARGETS = {
    "decide_new_arm": "bandit.decide",
    "fit_arm_prior": "bandit.prior_fit",
    "thompson_select": "bandit.thompson",
    "warp_trajectory_by_keyposes": "warping.warp",
    "rollout": "simworld.rollout",
    "reset": "simworld.reset",
    "record_demo": "simworld.record_demo",
    "create_annotation": "annotation.mint",
    "retarget": "retargeting.retarget",
    "append_demo": "campaign.encode",
    "read_dataset": "campaign.decode",
    "replay_demo": "campaign.replay",
    "run_ensemble_episode": "ensemble.episode",
}
CAPTURE_TARGETS = ("decide_new_arm", "thompson_select", "run_ensemble_episode")


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "info", "error")

    def __init__(self, name, t0, parent):
        self.name, self.t0, self.t1, self.parent = name, t0, None, parent
        self.info = None
        self.error = None


class Recorder:
    """Installs the wrappers, keeps spans in memory, and restores on exit."""

    def __init__(self, clock, trace: bool):
        self.clock = clock
        self.trace = trace
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: dict[str, object] = {}
        self.decisions: list[dict] = []
        self.events: list[tuple] = []  # ("decide", answer) / ("pull", arm index), in call order
        self.episodes: list[dict] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock.now(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.t1 = self.clock.now()
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def phase(self, name: str):
        """The parent span of one call of a demoforge command, when tracing."""
        idx = self._open(f"phase.{name}") if self.trace else None
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)

    # -- wrappers -----------------------------------------------------------

    def install(self) -> None:
        names = TRACE_TARGETS if self.trace else CAPTURE_TARGETS
        for name in names:
            fn = getattr(campaign, name)
            self._saved[name] = fn
            setattr(campaign, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(campaign, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        span_name = TRACE_TARGETS[name]
        sig = inspect.signature(fn)
        rec = self

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            before = rec._capture_before(name, bound.arguments)
            idx = rec._open(span_name) if rec.trace else None
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                if idx is not None:
                    rec._close(idx).error = type(err).__name__
                raise
            if idx is not None:
                rec._close(idx).info = _payload(name, bound.arguments, out)
            rec._capture_after(name, before, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def instrument_gateway(self, gateway) -> None:
        """Span every completion made through ``gateway``'s sessions."""
        if not self.trace:
            return
        fresh = gateway.fresh_session
        rec = self

        def fresh_session():
            session = fresh()
            inner = session.complete

            def complete(prompt, attachments=None, **params):
                idx = rec._open("gateway.complete")
                try:
                    return inner(prompt, attachments, **params)
                finally:
                    rec._close(idx)

            session.complete = complete
            return session

        gateway.fresh_session = fresh_session

    # -- capture for the output checks --------------------------------------

    def _capture_before(self, name: str, a: dict):
        if name != "decide_new_arm":
            return None
        state, rng = a["state"], a["rng"]
        return {
            "counts": [(arm.n_suc, arm.n_fail) for arm in state.arms],
            "new_arm_attempts": state.new_arm_attempts,
            "new_arm_successes": state.new_arm_successes,
            "T": int(a["T"]),
            "alpha": float(a["prior"].alpha_hat),
            "beta": float(a["prior"].beta_hat),
            "k": int(a["k"]),
            # the generator is consumed by the call: keep its state from before
            "rng": copy.deepcopy(rng.bit_generator.state) if hasattr(rng, "bit_generator") else rng,
        }

    def _capture_after(self, name: str, before, out) -> None:
        if name == "decide_new_arm":
            before["answer"] = bool(out)
            self.decisions.append(before)
            self.events.append(("decide", bool(out)))
        elif name == "thompson_select":
            self.events.append(("pull", int(out)))
        elif name == "run_ensemble_episode":
            trace = out.ensemble.trace
            self.episodes.append(
                {
                    "steps": out.steps,
                    "success": out.success,
                    "switch_steps": [e["step"] for e in trace if e["switched"]],
                    "feedback_steps": sum(1 for e in trace if e["mode"] == "feedback"),
                }
            )


def _payload(name: str, a: dict, out):
    if name == "rollout":
        return out.steps
    if name == "warp_trajectory_by_keyposes":
        return len(out)
    if name == "decide_new_arm":
        T, k = int(a["T"]), int(a["k"])
        return k * (T + 2 * (T - 1)) if a["state"].arms else 0
    if name == "read_dataset":
        return os.path.getsize(a["path"])
    if name == "run_ensemble_episode":
        trace = out.ensemble.trace
        return (
            out.steps,
            sum(1 for e in trace if e["mode"] == "feedback"),
            sum(1 for e in trace if e["switched"]),
        )
    return None


def layer_metrics(session, rounds: int) -> dict:
    """Per-layer figures from the spans of a traced session, per round
    (one user session of generate, audit, evaluate) and at reference speed.
    Spans inside the fault campaigns are left out, as their time is."""
    rec, clock = session.rec, session.clock
    spans = rec.spans
    dur = [clock.ref_seconds(s.t0, s.t1) for s in spans]

    def phase_of(i):
        while i is not None and not spans[i].name.startswith("phase."):
            i = spans[i].parent
        return spans[i].name[len("phase."):] if i is not None else None

    phase = [phase_of(i) for i in range(len(spans))]
    counted = [p in ("generate", "audit", "evaluate") for p in phase]

    def pick(name, in_phase=None):
        return [
            i for i, s in enumerate(spans)
            if s.name == name and counted[i] and (in_phase is None or phase[i] == in_phase)
        ]

    def total(idx):
        return sum(dur[i] for i in idx)

    def mean_ms(idx):
        return 1e3 * total(idx) / len(idx) if idx else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    per = 1.0 / rounds
    m: dict[str, float] = {}

    gen_phases = pick("phase.generate")
    decide, fits, thompson = pick("bandit.decide"), pick("bandit.prior_fit"), pick("bandit.thompson")
    sim_steps = sum(spans[i].info for i in decide)
    bandit_reports = [r for mode, r in session.reports if mode == "bandit"]
    m["bandit.decide_calls"] = len(decide) * per
    m["bandit.decide_ms"] = mean_ms(decide)
    m["bandit.sim_steps"] = sim_steps * per
    m["bandit.ns_per_sim_step"] = 1e9 * ratio(total(decide), sim_steps)
    m["bandit.prior_fits"] = len(fits) * per
    m["bandit.prior_fit_ms"] = mean_ms(fits)
    m["bandit.thompson_calls"] = len(thompson) * per
    m["bandit.new_arm_kept_per_attempt"] = ratio(
        sum(r.new_arm_successes for r in bandit_reports), sum(r.new_arm_attempts for r in bandit_reports)
    )
    m["bandit.generate_share"] = ratio(total(decide + fits + thompson), total(gen_phases))

    warps = pick("warping.warp")
    poses = sum(spans[i].info for i in warps)
    m["warping.calls"] = len(warps) * per
    m["warping.ms_per_warp"] = mean_ms(warps)
    m["warping.poses"] = poses * per
    m["warping.us_per_pose"] = 1e6 * ratio(total(warps), poses)

    for prefix, in_phase in (("simworld.", "generate"), ("simworld.replay_", "audit"), ("simworld.eval_", "evaluate")):
        rolls = pick("simworld.rollout", in_phase)
        steps = sum(spans[i].info for i in rolls)
        m[prefix + "rollout_calls"] = len(rolls) * per
        m[prefix + "env_steps"] = steps * per
        m[prefix + "us_per_env_step"] = 1e6 * ratio(total(rolls), steps)
    m["simworld.reset_ms"] = mean_ms(pick("simworld.reset"))
    m["simworld.record_demo_ms"] = mean_ms(pick("simworld.record_demo"))

    gen_ops = [op for op in session.ops if op.phase == "generate" and op.ok]
    children = {i: 0.0 for i in gen_phases}
    for i, s in enumerate(spans):
        if s.parent in children:
            children[s.parent] += dur[i]
    decode = pick("campaign.decode")
    decoded_bytes = sum(spans[i].info for i in decode)
    eval_ops = [op for op in session.ops if op.phase == "evaluate" and op.ok]
    reports = [r for _, r in session.reports]
    m["campaign.generate_s"] = total(gen_phases) * per
    m["campaign.self_s"] = sum(dur[i] - children[i] for i in gen_phases) * per
    m["campaign.kept_per_rollout"] = ratio(sum(r.successes for r in reports), sum(r.total_rollouts for r in reports))
    m["campaign.encode_ms"] = mean_ms(pick("campaign.encode"))
    m["campaign.dataset_mib"] = session.dataset_bytes / 2**20 * per
    m["campaign.decode_ms"] = mean_ms(decode)
    m["campaign.decode_mib_per_s"] = ratio(decoded_bytes / 2**20, total(decode))
    m["campaign.replay_ms"] = mean_ms(pick("campaign.replay"))
    m["campaign.eval_ms"] = 1e3 * ratio(total(pick("phase.evaluate")), sum(op.units for op in eval_ops))

    mints, retargets = pick("annotation.mint"), pick("retargeting.retarget")
    m["annotation.mints"] = len(mints) * per
    m["annotation.mint_ms"] = mean_ms(mints)
    m["annotation.failed"] = sum(1 for i in mints if spans[i].error) * per
    m["retargeting.calls"] = len(retargets) * per
    m["retargeting.ms"] = mean_ms(retargets)
    m["retargeting.failed"] = sum(1 for i in retargets if spans[i].error) * per

    completions = pick("gateway.complete")
    windows = [(spans[i].t0, spans[i].t1) for i in completions]
    responder_calls = session.responder.calls if session.responder else []
    calls = [c for c in responder_calls if any(a <= c[0] and c[1] <= b for a, b in windows)]
    responder_s = sum(clock.ref_seconds(c[0], c[1]) for c in calls)
    m["gateway.completions"] = len(completions) * per
    m["gateway.completions_per_query"] = ratio(len(completions), len(mints) + len(retargets))
    m["gateway.ms_per_completion"] = 1e3 * ratio(total(completions) - responder_s, len(completions))
    m["gateway.responder_s"] = responder_s * per
    m["gateway.request_kib"] = sum(c[2] for c in calls) / 1024 * per
    m["gateway.response_kib"] = sum(c[3] for c in calls) / 1024 * per

    episodes = pick("ensemble.episode")
    ens_steps = sum(spans[i].info[0] for i in episodes)
    m["ensemble.episodes"] = len(episodes) * per
    m["ensemble.steps"] = ens_steps * per
    m["ensemble.us_per_step"] = 1e6 * ratio(total(episodes), ens_steps)
    m["ensemble.feedback_steps"] = sum(spans[i].info[1] for i in episodes) * per
    m["ensemble.switches"] = sum(spans[i].info[2] for i in episodes) * per

    m["trace.gen_demos_per_s"] = session.rate("generate")
    m["trace.audit_demos_per_s"] = session.rate("audit")
    m["trace.eval_trials_per_s"] = session.rate("evaluate")
    m["trace.rounds"] = float(rounds)
    return m
