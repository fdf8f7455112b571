"""Adversarial refinement of a single latent code inside an L2 or Linf ball.

Both refiners maximize the embedding-similarity objective through an
AttackSession.  One driver, ``_drive``, owns their bookkeeping contract:

  * the unperturbed latent is evaluated first (one query), and a start
    already at the confidence bar tau_C is returned as it is;
  * every later evaluation is one iteration and one ``trace`` entry (the
    initial evaluation is reported separately as ``initial_similarity``);
  * a non-finite objective raises NonFiniteLoss carrying the trace so far;
  * the run returns at the first point reaching tau_C, otherwise after
    its iteration cap, with the best point seen.

The searches are step rules: generators that yield the next perturbation,
already projected into the budget ball so that feasibility holds at all
times, and receive ``(s, grad_fn)`` for it.  The driver never asks a rule
for a proposal it will not charge.  The three rules:

  * ``_ascent`` (white-box): projected gradient ascent with momentum and
    backtracking.  A point above the best so far is kept and the next
    step carries momentum; any other point halves the step, and the next
    step starts afresh, without momentum, from the best point along its
    direction.  Each point costs one ``session.value_and_grad`` call: one
    forward pass gives the charged similarity and a gradient closure,
    called only for a new best point that ``_drive`` asks to step from.
    The best point's direction is kept, so a restart runs no backward
    pass and no point's backward pass runs twice.
  * ``_line_search`` (black-box opening): the projections of step *
    direction / ||direction|| for the steps in _LINE_SEARCH_STEPS, where
    the pipeline passes the slope of a linear fit to the similarities
    selection already paid for.  It ends at the first point that does not
    improve, or, uncharged, at a step that the ball clips onto the point
    it holds.  A zero or non-finite direction, or none, skips it.
  * ``_greedy_search`` (black-box): a coordinate search from the opening's
    best point, driven by observed gains and never by gradients.  It picks
    each coordinate with one argmax over the scores and, on a tie, one
    argmin over the tied coordinates' last visits.  A proposal that the
    ball clips onto the point it holds (a saturated Linf coordinate
    pushed outward) is a rejection without a query.

Around the session's matrix-vector products each step adds only a few
vector operations and Python-float arithmetic; norms are ``core._norm``.
Both searches are fixed; their values are module constants, not config
keys:

  * white-box: first step 0.1 * epsilon along the normalised gradient
    (L2) or its sign (Linf); momentum 0.75 after an improving point; the
    step halves at every other point;
  * black-box: line-search steps 0.5, 1, 2, 4, 8, 16 and 32 along the
    direction; then a greedy step of 0.5, halved after d consecutive
    rejections (d the latent size), down to 1e-3; gain decay 0.9.
"""
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import EmbeddingVector, LatentCode, _norm
from .errors import ConfigInvalid, DimensionMismatch, NonFiniteLoss
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
        if not 0 < self.epsilon < math.inf:
            raise ConfigInvalid(f"epsilon must be finite and > 0, got {self.epsilon}")


@dataclass(frozen=True)
class RefineResult:
    refined: LatentCode
    initial_similarity: float
    final_similarity: float
    iterations_used: int
    stop_reason: str
    trace: Tuple[float, ...]

    @property
    def queries_used(self) -> int:
        """Queries charged: the initial evaluation plus one per iteration."""
        return self.iterations_used + 1


# White-box ascent: the first step is _INITIAL_STEP_FACTOR * epsilon, and
# every step after an improving one carries momentum _MOMENTUM.
_MOMENTUM = 0.75
_INITIAL_STEP_FACTOR = 0.1

# Black-box search: a coordinate's priority is an exponentially decayed
# average of the gains its proposals produced.  The step is scaled by
# _GREEDY_STEP_DECAY after d (one sweep of the latent) consecutive
# rejections, never below _GREEDY_MIN_STEP.
_GREEDY_INITIAL_STEP = 0.5
_GREEDY_STEP_DECAY = 0.5
_GREEDY_GAIN_DECAY = 0.9
_GREEDY_MIN_STEP = 1e-3
# Black-box opening: distances along the unit direction, tried in order.
_LINE_SEARCH_STEPS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def project(delta: np.ndarray, budget: PerturbationBudget) -> np.ndarray:
    """Map a perturbation into the budget ball (idempotent).

    L2: radial scaling by min(1, eps/||delta||).  Linf: per-coordinate
    clamp to [-eps, eps].  The L2 rescale repeats if rounding left the
    norm a few ulp above eps, so the result is a true fixed point.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if budget.norm == NORM_L2:
        norm = _norm(delta)
        while norm > budget.epsilon:
            delta = delta * (budget.epsilon / norm)
            norm = _norm(delta)
        return delta
    return delta.clip(-budget.epsilon, budget.epsilon)


def _drive(x_G: LatentCode, target: EmbeddingVector, evaluate, iterations: int,
           tau_C: float, steps) -> RefineResult:
    """Run the step rule ``steps`` under the contract in the module
    docstring.  ``evaluate(latent, target)`` is one charged query returning
    ``(s, grad_fn)``; at most ``iterations`` follow the initial one."""
    x0 = x_G.values
    trace = []  # the initial similarity, then one per iteration
    latent, delta, best_s = x0, np.zeros(x0.size), -math.inf
    next(steps)
    for it in range(iterations + 1):
        s, grad_fn = evaluate(latent, target)
        if not math.isfinite(s):
            raise NonFiniteLoss(f"objective evaluated to {s!r}", trace=trace[1:])
        trace.append(s)
        if s > best_s:
            best_s, best_delta = s, delta
        if s >= tau_C:
            break
        if it < iterations:
            delta = steps.send((s, grad_fn))
            latent = x0 + delta
    refined = x_G if trace[0] >= tau_C else LatentCode(x0 + best_delta)
    stop_reason = STOP_CONFIDENCE if trace[-1] >= tau_C else STOP_BUDGET
    return RefineResult(refined=refined, initial_similarity=trace[0],
                        final_similarity=best_s, iterations_used=len(trace) - 1,
                        stop_reason=stop_reason, trace=tuple(trace[1:]))


def refine_whitebox(x_G: LatentCode, target: EmbeddingVector,
                    session: AttackSession, budget: PerturbationBudget,
                    t_max: int, tau_C: float) -> RefineResult:
    """Projected gradient ascent with momentum and backtracking."""
    if t_max < 1:
        raise ConfigInvalid(f"t_max must be >= 1, got {t_max}")
    return _drive(x_G, target, session.value_and_grad, t_max, tau_C,
                  _ascent(x_G.values.size, budget))


def _ascent(d: int, budget: PerturbationBudget):
    """White-box step rule (see the module docstring)."""
    best_s, grad_fn = yield
    step = _INITIAL_STEP_FACTOR * budget.epsilon
    best_delta = delta = delta_prev = np.zeros(d)
    a = 1.0  # a fresh start takes no momentum
    while True:
        if grad_fn is not None:  # a new best point: step along its gradient
            grad = grad_fn()
            if budget.norm == NORM_L2:
                gnorm = _norm(grad)
                direction = grad / gnorm if gnorm > 0 else grad
            else:
                direction = np.sign(grad)
        z = project(delta + step * direction, budget)
        candidate = project(delta + a * (z - delta) + (1.0 - a) * (delta - delta_prev),
                            budget)
        delta_prev, delta = delta, candidate

        s, grad_fn = yield delta
        if s > best_s:
            best_s, best_delta, a = s, delta, _MOMENTUM
        else:
            # Backtrack: halve the step and start afresh from the best
            # point along its kept direction, with no second backward pass.
            step *= 0.5
            delta = delta_prev = best_delta
            a, grad_fn = 1.0, None


def _greedy_coordinate(scores: np.ndarray, last_visit: np.ndarray) -> int:
    """The coordinate with the highest decayed gain; ties go to the least
    recently visited, then the lowest index, which makes the opening pass
    a plain sweep.

    This is the lexicographic maximum of (score, -last_visit, -index).
    """
    best = scores.argmax()
    ties = (scores == scores[best]).nonzero()[0]
    if ties.size == 1:
        return int(best)
    return int(ties[last_visit[ties].argmin()])


def refine_blackbox(x_G: LatentCode, target: EmbeddingVector,
                    session: AttackSession, budget: PerturbationBudget,
                    query_cap: int, tau_C: float,
                    direction: Optional[np.ndarray] = None) -> RefineResult:
    """Greedy coordinate search under a hard evaluation budget, opened by
    a line search along ``direction`` when one is given.

    Every proposal costs exactly one query; a proposal is kept only if it
    improves the best objective seen.  Gradients are never requested.
    ``direction`` must have the latent's shape; a zero or non-finite one
    runs the search exactly as ``direction=None`` does.
    """
    if query_cap < 1:
        raise ConfigInvalid(f"query_cap must be >= 1, got {query_cap}")
    x0 = x_G.values
    if direction is not None:
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != x0.shape:
            raise DimensionMismatch(f"direction of shape {direction.shape} "
                                    f"for a latent of shape {x0.shape}")
    return _drive(x_G, target, lambda latent, t: (session.loss(latent, t), None),
                  query_cap - 1, tau_C, _black_box(x0.size, budget, direction))


def _black_box(d: int, budget: PerturbationBudget, direction: Optional[np.ndarray]):
    """Black-box step rule: the opening along a nonzero, finite
    ``direction``, then the greedy search from the best point it hands over."""
    best_s, _ = yield
    delta = np.zeros(d)
    length = _norm(direction) if direction is not None else 0.0
    if 0.0 < length < math.inf:
        delta, best_s = yield from _line_search(delta, best_s, direction / length,
                                                budget)
    yield from _greedy_search(delta, best_s, budget)


def _line_search(delta: np.ndarray, best_s: float, unit: np.ndarray,
                 budget: PerturbationBudget):
    """Opening step rule; returns the best point and its similarity."""
    for distance in _LINE_SEARCH_STEPS:
        proposal = project(distance * unit, budget)
        if np.array_equal(proposal, delta):
            break
        s, _ = yield proposal
        if s <= best_s:
            break
        delta, best_s = proposal, s
    return delta, best_s


def _greedy_search(delta: np.ndarray, best_s: float, budget: PerturbationBudget):
    """Greedy coordinate step rule from the point ``delta`` at ``best_s``."""
    d = delta.size
    scores = np.full(d, np.inf)       # untried coordinates go first
    last_visit = np.full(d, -1, dtype=np.int64)
    preferred = [1.0] * d
    step = _GREEDY_INITIAL_STEP
    consecutive_fails = 0

    for visit in itertools.count():
        coord = _greedy_coordinate(scores, last_visit)
        sign = preferred[coord]
        proposal = delta.copy()
        proposal[coord] += sign * step
        proposal = project(proposal, budget)
        if np.array_equal(proposal, delta):
            s = best_s  # clipped onto the held point: a rejection, uncharged
        else:
            s, _ = yield proposal
        gain = s - best_s
        if gain > 0:
            delta, best_s = proposal, s
            consecutive_fails = 0
        else:
            preferred[coord] = -sign
            consecutive_fails += 1
            if consecutive_fails >= d:
                step = max(step * _GREEDY_STEP_DECAY, _GREEDY_MIN_STEP)
                consecutive_fails = 0
        observed = max(gain, 0.0)
        score = scores.item(coord)
        if math.isinf(score):
            scores[coord] = observed
        else:
            scores[coord] = (_GREEDY_GAIN_DECAY * score
                             + (1.0 - _GREEDY_GAIN_DECAY) * observed)
        last_visit[coord] = visit
