"""Adversarial refinement of a single latent code inside an L2 or Linf ball.

Both refiners maximize the embedding-similarity objective through an
AttackSession and share the same bookkeeping contract:

  * the unperturbed latent is evaluated first (one query); refinement
    iterations start after that,
  * ``trace`` holds one similarity per iteration (the initial evaluation
    is reported separately as ``initial_similarity``),
  * every evaluated iterate has already been projected into the budget
    ball, so feasibility holds at all times,
  * the refiner returns at the first iterate reaching the confidence bar
    tau_C, otherwise after the budget with the best iterate seen.

The white-box path is projected gradient ascent with momentum and an
adaptive step schedule: progress is reviewed at a thinning sequence of
checkpoints and, when a review fails, the step is halved and the search
restarts from the best point so far.  Each evaluated point costs one
``session.value_and_grad`` call: one forward pass gives the charged
similarity and a gradient closure.  The closures of the current and the
best point are kept, so a restart reuses the best point's gradient and a
stop at tau_C runs no backward pass.  The black-box path is a greedy
coordinate search driven entirely by observed objective gains; it never
touches gradients, and picks each coordinate with one vectorised
lexicographic argmax.

Both searches are fixed; their values are module constants, not config
keys:

  * white-box: momentum 0.75; first step 0.1 * epsilon; checkpoint gaps
    start at 0.22 of t_max and shrink by 0.03 down to 0.06; success
    fraction 0.75;
  * black-box: step 0.5, halved after d consecutive rejections (d the
    latent size), down to 1e-3; gain decay 0.9.
"""
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import EmbeddingVector, LatentCode
from .errors import ConfigInvalid, NonFiniteLoss
from .models import AttackSession

NORM_L2 = "l2"
NORM_LINF = "linf"

STOP_CONFIDENCE = "confidence_reached"
STOP_BUDGET = "budget_exhausted"


@dataclass(frozen=True)
class PerturbationBudget:
    norm: str
    epsilon: float

    def __post_init__(self):
        if self.norm not in (NORM_L2, NORM_LINF):
            raise ConfigInvalid(f"norm must be {NORM_L2!r} or {NORM_LINF!r}, got {self.norm!r}")
        if not self.epsilon > 0:
            raise ConfigInvalid(f"epsilon must be > 0, got {self.epsilon}")


@dataclass(frozen=True)
class RefineResult:
    refined: LatentCode
    initial_similarity: float
    final_similarity: float
    iterations_used: int
    queries_used: int
    stop_reason: str
    trace: Tuple[float, ...]


# White-box schedule: a review at each of _checkpoints(t_max) halves the
# step when fewer than _SUCCESS_FRACTION of its window's iterations
# improved, or when the best value stalled and the step was not already
# halved.
_MOMENTUM = 0.75
_INITIAL_STEP_FACTOR = 0.1
_CHECKPOINT_INITIAL = 0.22
_CHECKPOINT_SHRINK = 0.03
_CHECKPOINT_MIN = 0.06
_SUCCESS_FRACTION = 0.75

# Black-box search: a coordinate's priority is an exponentially decayed
# average of the gains its proposals produced.  The step is scaled by
# _GREEDY_STEP_DECAY after d (one sweep of the latent) consecutive
# rejections, never below _GREEDY_MIN_STEP.
_GREEDY_INITIAL_STEP = 0.5
_GREEDY_STEP_DECAY = 0.5
_GREEDY_GAIN_DECAY = 0.9
_GREEDY_MIN_STEP = 1e-3


def project(delta: np.ndarray, budget: PerturbationBudget) -> np.ndarray:
    """Map a perturbation into the budget ball (idempotent).

    L2: radial scaling by min(1, eps/||delta||).  Linf: per-coordinate
    clamp to [-eps, eps].  The L2 rescale repeats if rounding left the
    norm a few ulp above eps, so the result is a true fixed point.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if budget.norm == NORM_L2:
        norm = float(np.linalg.norm(delta))
        while norm > budget.epsilon:
            delta = delta * (budget.epsilon / norm)
            norm = float(np.linalg.norm(delta))
        return delta
    return np.clip(delta, -budget.epsilon, budget.epsilon)


def _checkpoints(t_max: int):
    """Strictly increasing iteration indices of the step-review points:
    cumulative fractions of t_max whose gaps start at _CHECKPOINT_INITIAL
    and shrink by _CHECKPOINT_SHRINK down to _CHECKPOINT_MIN."""
    points = []
    p_prev, p = 0.0, _CHECKPOINT_INITIAL
    while True:
        w = int(math.ceil(p * t_max))
        if w >= t_max:
            break
        if not points or w > points[-1]:
            points.append(w)
        gap = max(p - p_prev - _CHECKPOINT_SHRINK, _CHECKPOINT_MIN)
        p_prev, p = p, p + gap
    return points


def _finite_or_raise(value: float, trace):
    if not math.isfinite(value):
        raise NonFiniteLoss(f"objective evaluated to {value!r}", trace=trace)
    return value


def _result(x_G: LatentCode, best_delta, s0: float, best_s: float, trace,
            stop_reason: str) -> RefineResult:
    """The result of a refinement whose evaluations after the initial one
    produced ``trace``; ``best_delta`` None means x_G itself is returned.

    Each iteration costs one query on top of the initial evaluation.
    """
    refined = x_G
    if best_delta is not None:
        refined = LatentCode(values=x_G.values + best_delta, seed=x_G.seed,
                             p_K=x_G.p_K, p_D=x_G.p_D)
    return RefineResult(refined=refined, initial_similarity=s0,
                        final_similarity=best_s, iterations_used=len(trace),
                        queries_used=len(trace) + 1, stop_reason=stop_reason,
                        trace=tuple(trace))


def refine_whitebox(x_G: LatentCode, target: EmbeddingVector,
                    session: AttackSession, budget: PerturbationBudget,
                    t_max: int, tau_C: float) -> RefineResult:
    """Projected gradient ascent with momentum and adaptive step halving."""
    if t_max < 1:
        raise ConfigInvalid(f"t_max must be >= 1, got {t_max}")
    x0 = x_G.values
    trace = []
    s0, grad_fn = session.value_and_grad(x0, target)
    _finite_or_raise(s0, trace)
    if s0 >= tau_C:
        return _result(x_G, None, s0, s0, trace, STOP_CONFIDENCE)

    step = _INITIAL_STEP_FACTOR * budget.epsilon
    delta = np.zeros_like(x0)
    delta_prev = delta
    # The gradient of each evaluated point is kept, unevaluated, so a
    # checkpoint restart from the best point runs no extra forward pass.
    best_s, best_delta, best_grad_fn = s0, delta, grad_fn
    s_prev = s0
    successes = 0
    checkpoints = _checkpoints(t_max)
    next_cp = 0
    window_start = 0
    best_at_last_cp = best_s
    halved_at_last_cp = True  # suppress the stall rule before the first review

    stop_reason = STOP_BUDGET
    for it in range(1, t_max + 1):
        grad = grad_fn()
        if budget.norm == NORM_L2:
            gnorm = float(np.linalg.norm(grad))
            direction = grad / gnorm if gnorm > 0 else grad
        else:
            direction = np.sign(grad)
        z = project(delta + step * direction, budget)
        a = _MOMENTUM if it > 1 else 1.0
        candidate = project(delta + a * (z - delta) + (1.0 - a) * (delta - delta_prev),
                            budget)
        delta_prev, delta = delta, candidate

        s, grad_fn = session.value_and_grad(x0 + delta, target)
        _finite_or_raise(s, trace)
        trace.append(s)
        if s > s_prev:
            successes += 1
        s_prev = s
        if s > best_s:
            best_s, best_delta, best_grad_fn = s, delta, grad_fn
        if s >= tau_C:
            stop_reason = STOP_CONFIDENCE
            break

        if next_cp < len(checkpoints) and it == checkpoints[next_cp]:
            window = it - window_start
            too_few = successes < _SUCCESS_FRACTION * window
            stalled = (not halved_at_last_cp) and (best_s <= best_at_last_cp)
            if too_few or stalled:
                step *= 0.5
                delta = best_delta
                delta_prev = best_delta
                grad_fn = best_grad_fn
                s_prev = best_s
                halved_at_last_cp = True
            else:
                halved_at_last_cp = False
            best_at_last_cp = best_s
            successes = 0
            window_start = it
            next_cp += 1

    return _result(x_G, best_delta, s0, best_s, trace, stop_reason)


def _greedy_coordinate(scores: np.ndarray, last_visit: np.ndarray) -> int:
    """The coordinate with the highest decayed gain; ties go to the least
    recently visited, then the lowest index, which makes the opening pass
    a plain sweep.

    This is the lexicographic maximum of (score, -last_visit, -index).
    """
    ties = np.flatnonzero(scores == scores.max())
    if ties.size > 1:
        visits = last_visit[ties]
        ties = ties[visits == visits.min()]
    return int(ties[0])


def refine_blackbox(x_G: LatentCode, target: EmbeddingVector,
                    session: AttackSession, budget: PerturbationBudget,
                    query_cap: int, tau_C: float) -> RefineResult:
    """Greedy coordinate search under a hard evaluation budget.

    Every proposal costs exactly one query; a proposal is kept only if it
    improves the best objective seen.  Gradients are never requested.
    """
    if query_cap < 1:
        raise ConfigInvalid(f"query_cap must be >= 1, got {query_cap}")
    x0 = x_G.values
    d = x0.size
    trace = []
    s0 = _finite_or_raise(session.loss(x0, target), trace)
    if s0 >= tau_C:
        return _result(x_G, None, s0, s0, trace, STOP_CONFIDENCE)

    scores = np.full(d, np.inf)       # untried coordinates go first
    last_visit = np.full(d, -1, dtype=np.int64)
    preferred = np.ones(d)
    delta = np.zeros(d)
    best_delta = delta
    best_s = s0
    step = _GREEDY_INITIAL_STEP
    consecutive_fails = 0
    queries = 1
    stop_reason = STOP_BUDGET

    while queries < query_cap:
        coord = _greedy_coordinate(scores, last_visit)
        sign = preferred[coord]
        proposal = delta.copy()
        proposal[coord] += sign * step
        proposal = project(proposal, budget)

        s = _finite_or_raise(session.loss(x0 + proposal, target), trace)
        queries += 1
        trace.append(s)
        gain = s - best_s
        if gain > 0:
            delta = proposal
            best_delta = proposal
            best_s = s
            consecutive_fails = 0
        else:
            preferred[coord] = -sign
            consecutive_fails += 1
            if consecutive_fails >= d:
                step = max(step * _GREEDY_STEP_DECAY, _GREEDY_MIN_STEP)
                consecutive_fails = 0
        observed = max(gain, 0.0)
        if math.isinf(scores[coord]):
            scores[coord] = observed
        else:
            scores[coord] = (_GREEDY_GAIN_DECAY * scores[coord]
                             + (1.0 - _GREEDY_GAIN_DECAY) * observed)
        last_visit[coord] = queries

        if s >= tau_C:
            stop_reason = STOP_CONFIDENCE
            break

    return _result(x_G, best_delta, s0, best_s, trace, stop_reason)
