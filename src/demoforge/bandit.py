"""Thompson-sampling bandit over annotations, with dynamic arm creation.

Each annotation is an arm with posterior Beta(n_suc+1, n_fail+1). Pulling an
arm means running one rollout from that annotation. The interesting part is
deciding when minting a brand-new annotation beats milking the arms we have:
the expected value of adding an arm is estimated by brute-force simulation
over k sampled ground-truth probability vectors and compared against staying
put, using common random numbers so the comparison is noise-free. Each pull's
argmax is read off certified quantile guesses, bit-equal to betaincinv's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, betaincinv, betaln, ndtri


class NoArms(ValueError):
    """Operation needs at least one arm."""


class GoalReached(ValueError):
    """current_successes already meets the goal; no horizon to estimate."""


@dataclass
class Arm:
    annotation_id: str
    n_suc: int = 0
    n_fail: int = 0

    def __post_init__(self):
        if self.n_suc < 0 or self.n_fail < 0:
            raise ValueError("arm counts must be nonnegative")

    @property
    def posterior_mean(self) -> float:
        return (self.n_suc + 1) / (self.n_suc + self.n_fail + 2)


@dataclass
class BanditState:
    arms: list[Arm] = field(default_factory=list)
    new_arm_attempts: int = 0
    new_arm_successes: int = 0
    goal_successes: int = 0
    current_successes: int = 0


@dataclass
class PriorFit:
    """Maximum-likelihood Beta over pooled posterior samples: the prior a
    fresh annotation's success rate is assumed to be drawn from."""

    alpha_hat: float
    beta_hat: float
    m: int

    def __post_init__(self):
        if not (self.alpha_hat > 0 and self.beta_hat > 0):
            raise ValueError("fitted parameters must be positive")


def thompson_select(state: BanditState, rng) -> int:
    """One posterior draw per arm; the argmax wins, lowest index on ties."""
    if not state.arms:
        raise NoArms("thompson_select needs at least one arm")
    rng = np.random.default_rng(rng)
    draws = np.array([rng.beta(a.n_suc + 1, a.n_fail + 1) for a in state.arms])
    return int(np.argmax(draws))


def record_outcome(state: BanditState, arm_index: int, success: bool) -> BanditState:
    arm = state.arms[arm_index]
    if success:
        arm.n_suc += 1
    else:
        arm.n_fail += 1
    return state


def estimate_p_add(state: BanditState) -> float:
    """Laplace estimate of the chance a freshly minted annotation works."""
    return (state.new_arm_successes + 1) / (state.new_arm_attempts + 2)


def estimate_horizon(state: BanditState) -> int:
    """Remaining pulls needed: (goal - current) / best posterior mean, ceil."""
    if state.current_successes >= state.goal_successes:
        raise GoalReached(f"{state.current_successes} >= goal {state.goal_successes}")
    if not state.arms:
        raise NoArms("estimate_horizon needs at least one arm")
    best = max(a.posterior_mean for a in state.arms)
    return max(1, math.ceil((state.goal_successes - state.current_successes) / best))


def _beta_neg_loglik(log_params: np.ndarray, n: int, log_sum: float, log1m_sum: float) -> float:
    a, b = np.exp(log_params)
    return float(n * betaln(a, b) - (a - 1) * log_sum - (b - 1) * log1m_sum)


def fit_arm_prior(arms: list[Arm], m: int = 1000, rng=None) -> PriorFit:
    """MLE Beta fit over m posterior samples pooled from every arm."""
    from scipy.optimize import minimize  # slow to import, and only a fit needs it
    if not arms:
        raise NoArms("fit_arm_prior needs at least one arm")
    rng = np.random.default_rng(rng)
    pooled = np.concatenate([rng.beta(a.n_suc + 1, a.n_fail + 1, size=m) for a in arms])
    pooled = np.clip(pooled, 1e-6, 1.0 - 1e-6)

    # method-of-moments start, then Nelder-Mead on (log a, log b)
    mu, var = float(np.mean(pooled)), float(np.var(pooled))
    common = max(mu * (1 - mu) / max(var, 1e-12) - 1.0, 1e-3)
    x0 = np.log(np.clip([mu * common, (1 - mu) * common], 1e-3, 1e6))
    sums = (len(pooled), np.sum(np.log(pooled)), np.sum(np.log1p(-pooled)))  # the loglik's sums, once per fit
    res = minimize(_beta_neg_loglik, x0, args=sums, method="Nelder-Mead", options={"xatol": 1e-8, "fatol": 1e-10})
    alpha_hat, beta_hat = np.exp(res.x)
    return PriorFit(float(alpha_hat), float(beta_hat), m)


def estimate_rollout_value(probability_sets: np.ndarray, arms: list[tuple[int, int]], T: int, rng) -> float:
    """Mean total successes of T Thompson pulls, averaged over k ground truths.

    probability_sets is (k, n): row j is one sampled ground-truth success probability
    in [0, 1] per arm; arms gives the finite, nonnegative (n_suc, n_fail) starting
    counts of the matching virtual arms; no arms raises NoArms and other input
    ValueError. Every step draws a (k, n) block of uniforms, pulls each row's
    argmax of posterior quantiles at them (certified, bit-equal to the betaincinv
    argmax), then draws k outcome
    uniforms. So with the same seed a T-step run is a bitwise prefix of a (T+1)-step
    run and raising any ground-truth p only flips failures into successes.
    evaluate_add_decision relies on the prefix property to read E_{T-1} off the E_T pass.
    """
    return _simulate_thompson(probability_sets, arms, T, rng)[1]


def _quantile_guess(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Guessed Beta(a, b) quantiles at u: A&S 26.5.22 (ibeta_inv's start), exact if a or b is 1."""
    y = -ndtri(u)
    lam = (y * y - 3.0) / 6.0
    ra, rb = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
    h = 2.0 / (ra + rb)
    w = y * np.sqrt(h + lam) / h - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = a / (a + b * np.exp(2.0 * w))
    exact = b == 1.0
    x[exact] = u[exact] ** (1.0 / a[exact])
    exact = a == 1.0
    x[exact] = -np.expm1(np.log1p(-u[exact]) / b[exact])
    return x


def _posterior_argmax(a: np.ndarray, b: np.ndarray, rng) -> np.ndarray:
    """np.argmax(betaincinv(a, b, u), axis=0) bit for bit, for (n, k) a, b >= 1 and u drawn as
    one (k, n) block. A column is certified, not inverted, when betainc puts its top guess above
    x + 1e-9 and every other arm below x - 1e-9 (x midway between the top two guesses) by 1e-12
    in u, far beyond the few hundred ulp betainc and betaincinv may be off; ties never certify."""
    n, k = a.shape
    u = np.ascontiguousarray(rng.random((k, n)).T)
    if n == 1:
        return np.zeros(k, dtype=np.intp)
    with np.errstate(all="ignore"):
        x = _quantile_guess(a, b, u)
        top = np.argmax(x, axis=0)
        is_top = np.arange(n)[:, None] == top
        mid = 0.5 * (x.max(axis=0) + np.where(is_top, -np.inf, x).max(axis=0))
        cdf = betainc(a, b, np.where(is_top, mid + 1e-9, mid - 1e-9))
        doubt = ~np.where(is_top, cdf < u - 1e-12, cdf > u + 1e-12).all(axis=0)
    if doubt.any():
        top[doubt] = np.argmax(betaincinv(a[:, doubt], b[:, doubt], u[:, doubt]), axis=0)
    return top


def _simulate_thompson(probability_sets, arms, T: int, rng) -> tuple[float, float]:
    """(mean total after T-1 pulls, mean total after T pulls) of one run."""
    probability_sets = np.asarray(probability_sets, dtype=float)
    if probability_sets.ndim == 1:  # k samples of a single arm
        probability_sets = probability_sets[:, None]
    k, n = probability_sets.shape
    if len(arms) != n:
        raise ValueError(f"{len(arms)} arms but probability sets have {n} columns")
    if n == 0:
        raise NoArms("a Thompson simulation needs at least one arm")
    counts = np.asarray(arms, dtype=float).reshape(n, 2)
    if not (np.all((counts >= 0) & (counts < np.inf)) and np.all((probability_sets >= 0) & (probability_sets <= 1))):
        raise ValueError("arm counts must be finite and nonnegative, probability sets in [0, 1]")
    if T <= 0:
        return 0.0, 0.0
    rng = np.random.default_rng(rng)

    # Beta posterior parameters, counts + 1, one column per ground truth
    a, b = (np.repeat(c[:, None], k, axis=1) for c in counts.T + 1.0)
    total = np.zeros(k)
    rows = np.arange(k)
    before_last = 0.0
    for step in range(T):
        if step == T - 1:
            before_last = float(np.mean(total))
        choice = _posterior_argmax(a, b, rng)
        won = rng.random(k) < probability_sets[rows, choice]
        a[choice, rows] += won
        b[choice, rows] += ~won
        total += won
    return before_last, float(np.mean(total))


@dataclass
class AddDecision:
    """Everything decide_new_arm looked at, for auditing and tests."""

    decision: bool
    e_stay: float  # E_T(P)
    e_keep: float  # E_{T-1}(P)
    e_with_new: float  # E_{T-1}(P + {p_new})
    p_add: float
    probability_sets: np.ndarray
    p_new: np.ndarray
    eval_seed: int


def evaluate_add_decision(state: BanditState, T: int, prior: PriorFit, k: int = 1000, rng=None) -> AddDecision:
    """Work out whether minting a new annotation beats pulling existing arms.

    E_add = P_add * (1 + E_{T-1}(P + {p_new})) + (1 - P_add) * E_{T-1}(P),
    compared against E_T(P). The k ground-truth probability sets are drawn
    once and shared by all three estimates, which also share one eval seed,
    in two simulations: E_{T-1}(P) is the bitwise (T-1)-step prefix of the
    T-step E_T(P) pass, and one (T-1)-step pass adds the virtual new arm,
    which starts at 1 success / 0 failures.
    """
    if not state.arms:
        raise NoArms("evaluate_add_decision needs at least one arm")
    rng = np.random.default_rng(rng)
    counts = [(a.n_suc, a.n_fail) for a in state.arms]
    n = len(counts)
    prob_sets = np.empty((k, n))
    for i, (s, f) in enumerate(counts):
        prob_sets[:, i] = rng.beta(s + 1, f + 1, size=k)
    p_new = rng.beta(prior.alpha_hat, prior.beta_hat, size=k)
    eval_seed = int(rng.integers(2**63))

    e_keep, e_stay = _simulate_thompson(prob_sets, counts, T, eval_seed)
    e_with_new = estimate_rollout_value(
        np.column_stack([prob_sets, p_new]), counts + [(1, 0)], T - 1, eval_seed
    )
    p_add = estimate_p_add(state)
    e_add = p_add * (1.0 + e_with_new) + (1.0 - p_add) * e_keep
    return AddDecision(
        decision=bool(e_add > e_stay),
        e_stay=e_stay,
        e_keep=e_keep,
        e_with_new=e_with_new,
        p_add=p_add,
        probability_sets=prob_sets,
        p_new=p_new,
        eval_seed=eval_seed,
    )


def decide_new_arm(state: BanditState, T: int, prior: PriorFit, k: int = 1000, rng=None) -> bool:
    """True when a new annotation is worth minting. With no arms, always."""
    if not state.arms:
        return True
    return evaluate_add_decision(state, T, prior, k=k, rng=rng).decision
