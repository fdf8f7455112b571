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


HANDLE_ATTRIBUTES = {
    "GeneratorHandle": ["d_lat", "generate_batch", "generate_vjp", "generator_id",
                        "output_shape"],
    "EmbedderHandle": ["d_emb", "embed_batch", "embed_vjp", "model_id", "tau_F"],
    "DetectorHandle": ["detect_batch", "detector_id"],
}


def test_public_attributes_of_the_handle_contracts():
    # Declared attributes and methods alike: what an adapter implements.
    found = {}
    for name in HANDLE_ATTRIBUTES:
        cls = getattr(embinvert, name)
        found[name] = sorted(attr for attr in {*vars(cls), *cls.__annotations__}
                             if not attr.startswith("_"))
    assert found == HANDLE_ATTRIBUTES
