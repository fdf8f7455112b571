"""The library's public surface, pinned: a change to it shows up here."""
import types

import embinvert

PUBLIC_NAMES = [
    "AttackResult", "AttackSession", "AttackSettings", "CalibrationSet",
    "DetectorHandle", "EmbedderHandle", "EmbeddingVector", "EmbinvertError",
    "EvaluationCase", "EvaluationReport", "GeneratorHandle", "ImageSample",
    "LatentCode", "LatentPool", "NormalityResult", "PerturbationBudget",
    "PoolEntry", "QueryLedger", "RankedCandidate", "RefineResult",
    "SyntheticWorld", "TargetSpec", "WorldConfig", "build_pool",
    "calibration_set_from_images", "compute_eer_threshold", "compute_tmax",
    "cosine_similarity", "cross_model_report", "decide_match", "k2_test",
    "kurtosis_transform", "load_pool", "make_synthetic_world", "project",
    "rank_candidates", "ranked_adversary", "refine_blackbox", "refine_whitebox",
    "run_attack", "sample_latent", "save_pool", "skewness_transform",
]


def test_public_names_of_the_package():
    # Submodules are left out: which of them are attributes of the package
    # depends on what else has been imported.
    names = sorted(name for name, value in vars(embinvert).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
