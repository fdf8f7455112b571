"""Threshold calibration and the identity-recovery evaluation protocol.

Two thresholds are calibrated here: the decision threshold tau_F (minimum
equal error rate over genuine/impostor score sets) and the confidence
threshold tau_C (maximum similarity among real same-identity image pairs,
the early-stop bar for refinement).

Recovery is scored two ways: Type I (reconstruction matches the exact
target image in embedding space) and Type II (reconstruction matches the
identity's other images, the target itself excluded).  Cross-model rows
evaluate every reconstruction under every configured model, target model
included, and averages span all of them.
"""
import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import ImageSample, cosine_similarity, decide_match
from .errors import (
    ConfigInvalid,
    EmptyCalibration,
    InsufficientImages,
    LengthMismatch,
    TargetLeak,
)


@dataclass(frozen=True)
class CalibrationSet:
    """Genuine (same identity) and impostor (cross identity) score samples."""

    genuine_scores: Tuple[float, ...]
    impostor_scores: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "genuine_scores", tuple(float(s) for s in self.genuine_scores))
        object.__setattr__(self, "impostor_scores", tuple(float(s) for s in self.impostor_scores))
        for s in self.genuine_scores + self.impostor_scores:
            if not -1.0 <= s <= 1.0:
                raise ValueError(f"calibration score {s} outside [-1, 1]")


def compute_eer_threshold(cal: CalibrationSet) -> Tuple[float, float]:
    """Threshold minimizing |FAR - FRR| over the merged score grid.

    FAR(t) counts impostor scores >= t, FRR(t) genuine scores < t, matching
    the inclusive decision rule.  FAR - FRR is non-increasing in t, so the
    optimal grid points form one contiguous run; the returned threshold is
    the midpoint of the continuous interval that run represents (each grid
    point t_i stands for (t_{i-1}, t_i], with -1 as the bottom edge).
    Returns (threshold, achieved EER).
    """
    if not cal.genuine_scores or not cal.impostor_scores:
        raise EmptyCalibration("both genuine and impostor scores are required")
    gen = np.sort(cal.genuine_scores)
    imp = np.sort(cal.impostor_scores)
    grid = np.unique(np.concatenate([gen, imp]))
    # Counts below each grid point: imp >= t is the complement of imp < t.
    far = (imp.size - np.searchsorted(imp, grid, side="left")) / imp.size
    frr = np.searchsorted(gen, grid, side="left") / gen.size
    diff = np.abs(far - frr)
    best = diff.min()
    optimal = np.flatnonzero(diff == best)
    # First contiguous run of optimal grid indices.
    run_start = optimal[0]
    run_end = run_start
    for idx in optimal[1:]:
        if idx == run_end + 1:
            run_end = idx
        else:
            break
    lower = grid[run_start - 1] if run_start > 0 else -1.0
    threshold = (lower + grid[run_end]) / 2.0
    eer = (far[run_start] + frr[run_start]) / 2.0
    return float(threshold), float(eer)


def calibration_set_from_images(images_by_identity: Sequence[Sequence[ImageSample]],
                                embedder, seed,
                                impostor_factor: int = 1) -> CalibrationSet:
    """Build genuine/impostor score samples from identity-grouped images.

    Genuine pairs are exhaustive (all same-identity distinct pairs);
    impostor pairs are a seeded random sample, impostor_factor per genuine
    pair, so FAR and FRR are estimated from balanced counts.
    """
    if len(images_by_identity) < 2:
        raise EmptyCalibration("impostor pairs need at least two identities")
    embeddings = [[embedder.embed(img) for img in group]
                  for group in images_by_identity]
    genuine = [
        cosine_similarity(group[a], group[b])
        for group in embeddings
        for a in range(len(group)) for b in range(a + 1, len(group))
    ]
    if not genuine:
        raise EmptyCalibration("no identity has two images; no genuine pairs")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    impostor = []
    n_id = len(embeddings)
    while len(impostor) < impostor_factor * len(genuine):
        i, j = rng.choice(n_id, size=2, replace=False)
        a = rng.integers(0, len(embeddings[i]))
        b = rng.integers(0, len(embeddings[j]))
        impostor.append(cosine_similarity(embeddings[i][a], embeddings[j][b]))
    return CalibrationSet(genuine_scores=genuine, impostor_scores=impostor)


def compute_confidence_threshold(images_by_identity: Sequence[Sequence[ImageSample]],
                                 embedder,
                                 include_cross_identity: bool = False) -> float:
    """Maximum pairwise similarity over real image pairs.

    Default pairs are same-identity, distinct images.  The cross-identity
    variant (all distinct image pairs) is available behind the flag.
    """
    embeddings = [[embedder.embed(img) for img in group] for group in images_by_identity]
    best = None
    if include_cross_identity:
        flat = [e for group in embeddings for e in group]
        for a in range(len(flat)):
            for b in range(a + 1, len(flat)):
                s = cosine_similarity(flat[a], flat[b])
                best = s if best is None else max(best, s)
    else:
        for group in embeddings:
            for a in range(len(group)):
                for b in range(a + 1, len(group)):
                    s = cosine_similarity(group[a], group[b])
                    best = s if best is None else max(best, s)
    if best is None:
        raise InsufficientImages(
            "confidence threshold needs at least one identity with two images"
            if not include_cross_identity else
            "confidence threshold needs at least two images"
        )
    return float(best)


def _image_digest(image: ImageSample) -> str:
    return hashlib.sha256(image.values.tobytes()).hexdigest()


def type1_accuracy(reconstructions: Sequence[ImageSample],
                   targets: Sequence[ImageSample],
                   embedder, tau_F: float) -> float:
    """Fraction of reconstructions matching their exact target image."""
    if len(reconstructions) != len(targets):
        raise LengthMismatch(
            f"{len(reconstructions)} reconstructions vs {len(targets)} targets")
    if not reconstructions:
        raise LengthMismatch("empty evaluation")
    hits = 0
    for rec, tgt in zip(reconstructions, targets):
        s = cosine_similarity(embedder.embed(rec), embedder.embed(tgt))
        hits += decide_match(s, tau_F)
    return hits / len(reconstructions)


def type2_accuracy(reconstructions: Sequence[ImageSample],
                   alt_images: Sequence[Sequence[ImageSample]],
                   embedder, tau_F: float,
                   targets: Sequence[ImageSample]) -> float:
    """Fraction of (reconstruction, alternate) pairs that match.

    Alternates are the identity's other images; the target image itself is
    forbidden and detected by checksum (TargetLeak).
    """
    if not (len(reconstructions) == len(alt_images) == len(targets)):
        raise LengthMismatch(
            f"lengths differ: {len(reconstructions)} reconstructions, "
            f"{len(alt_images)} alternate groups, {len(targets)} targets")
    if not reconstructions:
        raise LengthMismatch("empty evaluation")
    j_counts = {len(group) for group in alt_images}
    if len(j_counts) != 1:
        raise LengthMismatch(f"alternate counts differ across identities: {sorted(j_counts)}")
    j = j_counts.pop()
    if j < 1:
        raise LengthMismatch("need at least one alternate image per target")
    hits = 0
    for i, (rec, group, tgt) in enumerate(zip(reconstructions, alt_images, targets)):
        tgt_digest = _image_digest(tgt)
        rec_emb = embedder.embed(rec)
        for alt in group:
            if _image_digest(alt) == tgt_digest:
                raise TargetLeak(f"alternate of target {i} equals the target image")
            s = cosine_similarity(rec_emb, embedder.embed(alt))
            hits += decide_match(s, tau_F)
    return hits / (len(reconstructions) * j)


@dataclass(frozen=True)
class ReportRow:
    target_id: str
    target_model_id: str
    eval_model_id: str
    similarity: float
    type1_hit: bool
    type2_rate: float
    queries: int
    wall_time: float


@dataclass(frozen=True)
class ModelAverage:
    eval_model_id: str
    type1_accuracy: float
    type2_accuracy: float
    mean_similarity: float
    n_targets: int


@dataclass(frozen=True)
class EvaluationReport:
    rows: Tuple[ReportRow, ...]
    per_model: Tuple[ModelAverage, ...]
    cross_model_type1: float
    cross_model_type2: float
    cross_model_similarity: float


@dataclass(frozen=True)
class EvaluationCase:
    """One attacked target, packaged for cross-model scoring."""

    target_id: str
    target_model_id: str
    reconstruction: ImageSample
    target_image: ImageSample
    alt_images: Tuple[ImageSample, ...]
    queries: int
    wall_time: float


def cross_model_report(cases: Sequence[EvaluationCase],
                       eval_models: Sequence,
                       tau_F_by_model: Optional[Mapping[str, float]] = None) -> EvaluationReport:
    """Score every reconstruction under every configured model.

    One row per (target, eval model); per-model averages over targets; the
    cross-model aggregate averages over ALL models, the target model
    included.  tau_F defaults to each model's calibrated threshold.
    """
    if not cases:
        raise LengthMismatch("no evaluation cases")
    if not eval_models:
        raise ConfigInvalid("no evaluation models configured")
    thresholds: Dict[str, float] = {}
    for model in eval_models:
        tau = None
        if tau_F_by_model is not None and model.model_id in tau_F_by_model:
            tau = tau_F_by_model[model.model_id]
        elif model.tau_F is not None:
            tau = model.tau_F
        if tau is None:
            raise ConfigInvalid(f"no tau_F for eval model {model.model_id!r}")
        thresholds[model.model_id] = float(tau)

    rows = []
    for case in cases:
        for model in eval_models:
            tau = thresholds[model.model_id]
            sim = cosine_similarity(model.embed(case.reconstruction),
                                    model.embed(case.target_image))
            t2 = type2_accuracy([case.reconstruction], [list(case.alt_images)],
                                model, tau, [case.target_image])
            rows.append(ReportRow(
                target_id=case.target_id,
                target_model_id=case.target_model_id,
                eval_model_id=model.model_id,
                similarity=sim,
                type1_hit=decide_match(sim, tau),
                type2_rate=t2,
                queries=case.queries,
                wall_time=case.wall_time,
            ))

    per_model = []
    for model in eval_models:
        mrows = [r for r in rows if r.eval_model_id == model.model_id]
        per_model.append(ModelAverage(
            eval_model_id=model.model_id,
            type1_accuracy=sum(r.type1_hit for r in mrows) / len(mrows),
            type2_accuracy=sum(r.type2_rate for r in mrows) / len(mrows),
            mean_similarity=sum(r.similarity for r in mrows) / len(mrows),
            n_targets=len(mrows),
        ))
    k = len(per_model)
    return EvaluationReport(
        rows=tuple(rows),
        per_model=tuple(per_model),
        cross_model_type1=sum(m.type1_accuracy for m in per_model) / k,
        cross_model_type2=sum(m.type2_accuracy for m in per_model) / k,
        cross_model_similarity=sum(m.mean_similarity for m in per_model) / k,
    )
