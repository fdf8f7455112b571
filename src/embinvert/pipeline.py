"""Attack orchestration: ranked sequential refinement with exact accounting.

``run_attack`` decides the mode once and binds that mode's refiner; in
black-box mode the per-candidate cap is derived from the global budget so
the total can never overrun it.  ``ranked_adversary`` is the ranking
policy alone: candidates are refined strictly in rank order, the loop
halts at the first that reaches the confidence bar, and otherwise the
highest final similarity wins (ties go to the lower rank, the cheaper
find).  The ledger adds the selection cost V to the refiners' queries.
In black-box mode selection's V answers are reused at no query cost: the
slope of a linear fit of them on the pool latents is the direction each
candidate's refinement opens its line search along.  The attack returns
the refined latent, not an image.
"""
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import LatentCode, TargetSpec
from .errors import AllCandidatesFailed, BudgetTooSmall, ConfigInvalid, NonFiniteLoss
from .models import AttackSession, QueryLedger
from .pool import LatentPool
from .ranking import RankedCandidate, rank_candidates
from .refine import (
    PerturbationBudget,
    RefineResult,
    STOP_CONFIDENCE,
    refine_blackbox,
    refine_whitebox,
)

MODE_WHITEBOX = "whitebox"
MODE_BLACKBOX = "blackbox"


@dataclass(frozen=True)
class AttackResult:
    """The chosen candidate's refined latent, whose image is
    ``generator.generate_batch(refined_latent.values[None])[0]``, and the
    attack's accounting."""

    refined_latent: LatentCode
    chosen_rank: int
    final_similarity: float
    ledger: QueryLedger
    candidates: Tuple[RankedCandidate, ...]
    candidate_traces: Tuple[RefineResult, ...]
    wall_time: float


def check_mode_budget(mode: str, t_max: Optional[int], q_max: Optional[int],
                      n: int):
    """The mode/budget rule of every attack entry point.

    White-box takes ``t_max`` and no ``q_max``; black-box takes ``q_max``
    and no ``t_max``; ``t_max``, ``q_max`` and N are each >= 1.  Raises
    ConfigInvalid otherwise.
    """
    if mode == MODE_WHITEBOX:
        if t_max is None or q_max is not None:
            raise ConfigInvalid("white-box mode requires t_max and forbids q_max")
    elif mode == MODE_BLACKBOX:
        if q_max is None or t_max is not None:
            raise ConfigInvalid("black-box mode requires q_max and forbids t_max")
    else:
        raise ConfigInvalid(f"mode must be whitebox or blackbox, got {mode!r}")
    if t_max is not None and t_max < 1:
        raise ConfigInvalid(f"t_max must be >= 1, got {t_max}")
    if q_max is not None and q_max < 1:
        raise ConfigInvalid(f"q_max must be >= 1, got {q_max}")
    if n < 1:
        raise ConfigInvalid(f"top_n must be >= 1, got {n}")


def check_tau_C(tau_C: float):
    """0 < tau_C <= 1, for a configured and a calibrated bar alike."""
    if not 0.0 < tau_C <= 1.0:
        raise ConfigInvalid(f"tau_c must be in (0, 1], got {tau_C}")


def compute_tmax(q_max: int, v: int, n: int) -> int:
    """Per-candidate iteration cap that keeps N refinements plus the
    V selection queries inside the global budget: floor((q_max - v) / n).

    Raises ConfigInvalid when check_mode_budget rejects (q_max, n), and
    BudgetTooSmall when the cap would be 0."""
    check_mode_budget(MODE_BLACKBOX, None, q_max, n)
    if q_max <= v:
        raise BudgetTooSmall(
            f"query budget {q_max} does not exceed the selection cost V = {v}")
    if q_max - v < n:
        raise BudgetTooSmall(
            f"budget {q_max} leaves no refinement queries for {n} candidates "
            f"after V = {v}")
    return (q_max - v) // n


def ranked_adversary(pool: LatentPool, candidates: Sequence[RankedCandidate],
                     refine: Callable[[LatentCode], RefineResult],
                     ledger: QueryLedger) -> AttackResult:
    """Refine candidates in rank order with early stop and argmax fallback.

    ``refine(x_G)`` is one candidate's refinement as run_attack binds it,
    and ``ledger`` its session's.  A candidate whose refinement aborts on a
    non-finite objective is skipped: AllCandidatesFailed if all abort,
    ConfigInvalid if there are none.
    """
    if not candidates:
        raise ConfigInvalid("no candidates to refine; top_n must be >= 1")

    started = time.perf_counter()
    refined: List[Tuple[RankedCandidate, RefineResult]] = []
    for cand in candidates:
        try:
            result = refine(pool.entries[cand.pool_index].latent)
        except NonFiniteLoss:
            continue
        refined.append((cand, result))
        if result.stop_reason == STOP_CONFIDENCE:
            break
    if not refined:
        raise AllCandidatesFailed(
            f"all {len(candidates)} candidate refinements aborted")

    # max keeps the first of equal similarities: the lower rank.
    chosen_cand, chosen_result = max(
        refined, key=lambda pair: pair[1].final_similarity)
    return AttackResult(
        refined_latent=chosen_result.refined,
        chosen_rank=chosen_cand.rank,
        final_similarity=chosen_result.final_similarity,
        ledger=ledger,
        candidates=tuple(c for c, _ in refined),
        candidate_traces=tuple(r for _, r in refined),
        wall_time=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class AttackSettings:
    """Everything run_attack needs beyond the pool and the backend."""

    mode: str
    budget: PerturbationBudget
    tau_C: float
    n_top: int
    t_max: Optional[int] = None       # white-box per-candidate iterations
    q_max: Optional[int] = None       # black-box global query budget

    def __post_init__(self):
        check_mode_budget(self.mode, self.t_max, self.q_max, self.n_top)
        check_tau_C(self.tau_C)


def run_attack(target_spec: TargetSpec, pool: LatentPool,
               settings: AttackSettings, backend) -> AttackResult:
    """Full attack on one target: rank, select, refine.

    ``backend`` provides ``generator`` and ``embedder_by_id``; the target
    model is looked up from ``target_spec.target_model_id``.  Only the
    target embedding and model id are ever read from ``target_spec``; the
    identity annotation is evaluation-side metadata that the attack must
    stay blind to.  A black-box budget that leaves no refinement queries
    raises BudgetTooSmall before any query is charged.
    """
    started = time.perf_counter()
    embedder = backend.embedder_by_id(target_spec.target_model_id)
    target = target_spec.target_embedding
    whitebox = settings.mode == MODE_WHITEBOX
    ledger = QueryLedger(q_max=settings.q_max)
    session = AttackSession(backend.generator, embedder, ledger,
                            allow_gradient=whitebox)
    # Looked up per call, so a wrapper set on pipeline.refine_* is bound.
    if whitebox:
        refine = partial(refine_whitebox, t_max=settings.t_max)
    else:
        refine = partial(refine_blackbox, query_cap=compute_tmax(
            settings.q_max, pool.V, min(settings.n_top, pool.V)))
    refine = partial(refine, target=target, session=session,
                     budget=settings.budget, tau_C=settings.tau_C)

    sims = None if whitebox else np.empty(pool.V)
    selected = rank_candidates(pool, target, embedder, settings.n_top, ledger,
                               out=sims)
    if not whitebox:
        refine = partial(refine, direction=pool.similarity_slope(sims))
    result = ranked_adversary(pool, selected, refine, ledger)
    return replace(result, wall_time=time.perf_counter() - started)
