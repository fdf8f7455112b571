"""embinvert: training-free inversion of identity embeddings.

Reconstructs an identity-matching image from a single embedding vector by
(a) screening a reusable pool of generator latents for normality and face
presence, (b) ranking the pool against the target embedding, and
(c) sequentially refining the best candidates inside an L2/Linf ball with
confidence-aware early stopping, under exact query accounting.
"""
from .core import (
    EmbeddingVector,
    ImageSample,
    LatentCode,
    TargetSpec,
    cosine_similarity,
    decide_match,
)
from .errors import EmbinvertError
from .evaluation import (
    CalibrationSet,
    EvaluationCase,
    EvaluationReport,
    calibration_set_from_images,
    compute_eer_threshold,
    cross_model_report,
)
from .models import (
    AttackSession,
    DetectorHandle,
    EmbedderHandle,
    GeneratorHandle,
    QueryLedger,
    SyntheticWorld,
    WorldConfig,
    make_synthetic_world,
)
from .normality import NormalityResult, k2_test, kurtosis_transform, skewness_transform
from .pipeline import (
    AttackResult,
    AttackSettings,
    compute_tmax,
    ranked_adversary,
    run_attack,
)
from .pool import (
    LatentPool,
    PoolEntry,
    build_pool,
    load_pool,
    sample_latent,
    save_pool,
)
from .ranking import RankedCandidate, rank_candidates
from .refine import (
    PerturbationBudget,
    RefineResult,
    project,
    refine_blackbox,
    refine_whitebox,
)

__version__ = "0.1.0"
