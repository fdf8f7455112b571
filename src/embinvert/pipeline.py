"""Attack orchestration: ranked sequential refinement with exact accounting.

Candidates are refined strictly in rank order.  The loop halts at the
first candidate whose refinement reaches the confidence bar; if none does,
every candidate is refined and the one with the highest final similarity
wins (ties go to the lower rank, the cheaper find).  The query ledger adds
the selection cost V to whatever the refiners consumed, and in black-box
mode the per-candidate iteration cap is derived from the global budget so
the total can never overrun it.
"""
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .core import EmbeddingVector, ImageSample, LatentCode, TargetSpec
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
    reconstruction: ImageSample
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
                     target: EmbeddingVector, session: AttackSession,
                     budget: PerturbationBudget, tau_C: float, mode: str,
                     t_max: Optional[int] = None,
                     query_cap: Optional[int] = None) -> AttackResult:
    """Refine candidates in rank order with early stop and argmax fallback.

    ``query_cap``, the black-box cap per candidate, takes the place of
    ``q_max`` in check_mode_budget, and the number of candidates that of N.
    Candidates whose refinement aborts on a non-finite objective are
    skipped; if every candidate aborts, AllCandidatesFailed is raised.
    """
    check_mode_budget(mode, t_max, query_cap, len(candidates))

    started = time.perf_counter()
    refined: List[Tuple[RankedCandidate, RefineResult]] = []
    for cand in candidates:
        x_G = pool.entries[cand.pool_index].latent
        try:
            if mode == MODE_WHITEBOX:
                result = refine_whitebox(x_G, target, session, budget,
                                         t_max, tau_C)
            else:
                result = refine_blackbox(x_G, target, session, budget,
                                         query_cap, tau_C)
        except NonFiniteLoss:
            continue
        refined.append((cand, result))
        if result.stop_reason == STOP_CONFIDENCE:
            break
    if not refined:
        raise AllCandidatesFailed(
            f"all {len(candidates)} candidate refinements aborted")

    best_idx = 0
    for i in range(1, len(refined)):
        if refined[i][1].final_similarity > refined[best_idx][1].final_similarity:
            best_idx = i
    chosen_cand, chosen_result = refined[best_idx]
    reconstruction = session.generator.generate(chosen_result.refined)
    return AttackResult(
        reconstruction=reconstruction,
        refined_latent=chosen_result.refined,
        chosen_rank=chosen_cand.rank,
        final_similarity=chosen_result.final_similarity,
        ledger=session.ledger,
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
    generator = backend.generator
    target = target_spec.target_embedding
    query_cap = None
    if settings.mode == MODE_BLACKBOX:
        query_cap = compute_tmax(settings.q_max, pool.V,
                                 min(settings.n_top, pool.V))

    ledger = QueryLedger(q_max=settings.q_max)
    session = AttackSession(generator, embedder, ledger,
                            allow_gradient=settings.mode == MODE_WHITEBOX)

    selected = rank_candidates(pool, target, embedder, settings.n_top, ledger)
    result = ranked_adversary(pool, selected, target, session, settings.budget,
                              settings.tau_C, settings.mode,
                              t_max=settings.t_max, query_cap=query_cap)
    return replace(result, wall_time=time.perf_counter() - started)
