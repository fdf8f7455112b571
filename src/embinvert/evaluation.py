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

Evaluation is batch-first: each function embeds all of its images with one
``embed_batch`` call per model, normalises the rows, and scores pairs as
row dot products (same-identity pairs are the upper triangle of each
identity's Gram block), clamped to [-1, 1] like ``cosine_similarity``.
Scores differ from a per-pair loop over ``embed`` by float rounding only;
impostor pairs are still drawn one at a time, so a seed names the same
pairs as before.
"""
import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import ImageSample, decide_match
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyCalibration,
    InsufficientImages,
    LengthMismatch,
    ShapeMismatch,
    TargetLeak,
    ZeroNormEmbedding,
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


# Pairs scored per gather: keeps the two gathered row blocks a few MB each.
_SCORE_BLOCK = 2048


def _unit_embeddings(groups: Sequence[Sequence[ImageSample]],
                     embedder) -> Tuple[np.ndarray, np.ndarray]:
    """Embed grouped images with one ``embed_batch`` call.

    Returns the unit-norm embedding rows, group after group, and each
    group's start row with the total row count appended.  At least one
    image is required.
    """
    images = [img for group in groups for img in group]
    starts = np.cumsum([0] + [len(group) for group in groups])
    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise ShapeMismatch(f"images of differing shapes {sorted(shapes)}")
    rows = np.asarray(embedder.embed_batch(np.stack([img.values for img in images])),
                      dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != len(images):
        raise DimensionMismatch(
            f"embeddings of shape {rows.shape} for {len(images)} images; "
            "expected one row per image")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormEmbedding("cosine similarity undefined for zero-norm embedding")
    return rows / norms[:, None], starts


def _pair_scores(unit: np.ndarray, rows_a, rows_b) -> np.ndarray:
    """Cosine of each (rows_a[k], rows_b[k]) pair, clamped to [-1, 1]."""
    rows_a = np.asarray(rows_a, dtype=np.intp)
    rows_b = np.asarray(rows_b, dtype=np.intp)
    scores = np.empty(rows_a.size)
    for lo in range(0, rows_a.size, _SCORE_BLOCK):
        hi = lo + _SCORE_BLOCK
        scores[lo:hi] = np.einsum("ij,ij->i", unit[rows_a[lo:hi]],
                                  unit[rows_b[lo:hi]])
    return np.clip(scores, -1.0, 1.0)


def _genuine_scores(unit: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Scores of every same-group pair: group by group, (a, b) with a < b in
    row-major order, the upper triangle of each group's Gram block."""
    triu = {}
    rows_a, rows_b = [], []
    for start, stop in zip(starts[:-1], starts[1:]):
        m = int(stop - start)
        if m not in triu:
            triu[m] = np.triu_indices(m, 1)
        a, b = triu[m]
        rows_a.append(a + start)
        rows_b.append(b + start)
    return _pair_scores(unit, np.concatenate(rows_a), np.concatenate(rows_b))


def calibration_set_from_images(images_by_identity: Sequence[Sequence[ImageSample]],
                                embedder, seed) -> CalibrationSet:
    """Build genuine/impostor score samples from identity-grouped images.

    Genuine pairs are exhaustive (all same-identity distinct pairs);
    impostor pairs are a seeded random sample, one per genuine pair, so
    FAR and FRR are estimated from balanced counts.
    """
    if len(images_by_identity) < 2:
        raise EmptyCalibration("impostor pairs need at least two identities")
    if all(len(group) < 2 for group in images_by_identity):
        raise EmptyCalibration("no identity has two images; no genuine pairs")
    if any(len(group) == 0 for group in images_by_identity):
        raise InsufficientImages("impostor pairs need an image of every identity")
    unit, starts = _unit_embeddings(images_by_identity, embedder)
    genuine = _genuine_scores(unit, starts)
    # Impostor pairs are drawn one at a time, as when each was scored on
    # the spot, so a seed keeps naming the same pairs; only scoring is batched.
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    first = starts.tolist()
    sizes = [len(group) for group in images_by_identity]
    rows_a, rows_b = [], []
    for _ in range(genuine.size):
        i, j = rng.choice(len(sizes), size=2, replace=False)
        rows_a.append(first[i] + rng.integers(0, sizes[i]))
        rows_b.append(first[j] + rng.integers(0, sizes[j]))
    return CalibrationSet(genuine_scores=genuine,
                          impostor_scores=_pair_scores(unit, rows_a, rows_b))


def compute_confidence_threshold(images_by_identity: Sequence[Sequence[ImageSample]],
                                 embedder) -> float:
    """Maximum similarity over real same-identity pairs of distinct images."""
    if all(len(group) < 2 for group in images_by_identity):
        raise InsufficientImages(
            "confidence threshold needs at least one identity with two images")
    unit, starts = _unit_embeddings(images_by_identity, embedder)
    return float(_genuine_scores(unit, starts).max())


def _image_digest(image: ImageSample) -> str:
    return hashlib.sha256(image.values.tobytes()).hexdigest()


def _scores_to_first(unit: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each row's score against the first row of its group."""
    firsts = np.repeat(starts[:-1], np.diff(starts))
    return _pair_scores(unit, firsts, np.arange(len(unit)))


def _check_alternates(alt_images: Sequence[Sequence[ImageSample]],
                      targets: Sequence[ImageSample]):
    """Every target needs an alternate, and no alternate may be the target
    image itself (detected by checksum)."""
    for i, (group, tgt) in enumerate(zip(alt_images, targets)):
        if len(group) < 1:
            raise LengthMismatch("need at least one alternate image per target")
        tgt_digest = _image_digest(tgt)
        for alt in group:
            if _image_digest(alt) == tgt_digest:
                raise TargetLeak(f"alternate of target {i} equals the target image")


def _type2_hits(scores: np.ndarray, starts: np.ndarray, first_alt: int,
                tau_F: float) -> np.ndarray:
    """Per group, how many alternates (rows ``first_alt`` onwards within the
    group) match the group's reconstruction (its first row)."""
    matched = np.concatenate(([0], np.cumsum(decide_match(scores, tau_F))))
    return matched[starts[1:]] - matched[starts[:-1] + first_alt]


def type1_accuracy(reconstructions: Sequence[ImageSample],
                   targets: Sequence[ImageSample],
                   embedder, tau_F: float) -> float:
    """Fraction of reconstructions matching their exact target image."""
    if len(reconstructions) != len(targets):
        raise LengthMismatch(
            f"{len(reconstructions)} reconstructions vs {len(targets)} targets")
    if not reconstructions:
        raise LengthMismatch("empty evaluation")
    unit, starts = _unit_embeddings(list(zip(reconstructions, targets)), embedder)
    hits = decide_match(_scores_to_first(unit, starts)[starts[:-1] + 1], tau_F)
    return int(hits.sum()) / len(reconstructions)


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
    _check_alternates(alt_images, targets)
    unit, starts = _unit_embeddings(
        [(rec, *group) for rec, group in zip(reconstructions, alt_images)], embedder)
    hits = _type2_hits(_scores_to_first(unit, starts), starts, 1, tau_F)
    return int(hits.sum()) / (len(reconstructions) * j_counts.pop())


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

    alt_images = [case.alt_images for case in cases]
    _check_alternates(alt_images, [case.target_image for case in cases])
    # One group per case: reconstruction, target, then the alternates.
    groups = [(case.reconstruction, case.target_image, *case.alt_images)
              for case in cases]
    scored = []
    for model in eval_models:
        unit, starts = _unit_embeddings(groups, model)
        scores = _scores_to_first(unit, starts)
        scored.append((scores[starts[:-1] + 1],
                       _type2_hits(scores, starts, 2, thresholds[model.model_id])))
    rows = []
    for i, case in enumerate(cases):
        for model, (sims, hits) in zip(eval_models, scored):
            sim = float(sims[i])
            rows.append(ReportRow(
                target_id=case.target_id,
                target_model_id=case.target_model_id,
                eval_model_id=model.model_id,
                similarity=sim,
                type1_hit=decide_match(sim, thresholds[model.model_id]),
                type2_rate=int(hits[i]) / len(alt_images[i]),
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
