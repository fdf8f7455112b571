"""Threshold calibration and the identity-recovery evaluation protocol.

Two thresholds are calibrated here: the decision threshold tau_F (minimum
equal error rate over genuine/impostor score sets) and the confidence
threshold tau_C (maximum similarity among real same-identity image pairs,
the early-stop bar for refinement).  No handle calibrates itself: the CLI's
``calibrate``, and ``report`` for a model with no other tau_F, compute a
model's tau_F with ``calibration_set_from_images`` and
``compute_eer_threshold`` on the seed ``models.impostor_stream`` names.

Recovery is scored two ways, both by ``cross_model_report``: Type I
(reconstruction matches the exact target image in embedding space) and
Type II (reconstruction matches the identity's other images, the target
itself excluded).  Cross-model rows evaluate every reconstruction under
every configured model, target model included, at the tau_F the caller
gives for each model, and averages span all of them.  The tau_C of a set
of identity images is ``calibration_set_from_images(...).tau_C``.

Evaluation is batch-first: each function embeds all of its images with one
``embed_batch`` call per model, normalises the rows, and scores pairs as
row dot products (same-identity pairs are the upper triangle of each
identity's Gram block), clamped to [-1, 1] like ``cosine_similarity``.
Scores differ from a per-pair loop over ``embed_vjp`` by float rounding only.
Impostor pairs are decoded from one block of raw generator words, the way
numpy's ``choice`` and ``integers`` would consume them one pair at a
time, so a seed names the same pairs as the per-pair draw, bit for bit;
the per-pair draw still runs where the block cannot be decoded exactly.
"""
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from .core import ImageSample, decide_match
from .errors import (
    ConfigInvalid,
    EmptyCalibration,
    InsufficientImages,
    LengthMismatch,
    ShapeMismatch,
    TargetLeak,
)
from .models import _embedding_rows


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

    @property
    def tau_C(self) -> float:
        """The confidence threshold: the maximum same-identity score."""
        if not self.genuine_scores:
            raise EmptyCalibration("tau_C needs at least one genuine score")
        return max(self.genuine_scores)


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
    run_start, run_end = np.flatnonzero(diff == diff.min())[[0, -1]]
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
    rows, norms = _embedding_rows(embedder, np.stack([img.values for img in images]))
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
    rows_a, rows_b = _impostor_rows(
        np.random.default_rng(np.random.SeedSequence(seed)), starts, genuine.size)
    return CalibrationSet(genuine_scores=genuine,
                          impostor_scores=_pair_scores(unit, rows_a, rows_b))


def _impostor_rows(rng, starts: np.ndarray, count: int):
    """Rows of ``count`` seeded impostor pairs, as ``_impostor_rows_one_by_one``
    draws them: decoded from one block of words where that is exact, else
    drawn pair by pair from the generator's state before the block."""
    state = rng.bit_generator.state
    rows = _impostor_rows_from_block(rng, starts, count)
    if rows is None:
        rng.bit_generator.state = state
        rows = _impostor_rows_one_by_one(rng, starts, count)
    return rows


def _impostor_rows_one_by_one(rng, starts: np.ndarray, count: int):
    """Per pair: two distinct identities, ``rng.choice(n, 2, replace=False)``,
    then one image of each, ``rng.integers(0, size)``."""
    first = starts.tolist()
    sizes = np.diff(starts).tolist()
    rows_a, rows_b = [], []
    for _ in range(count):
        i, j = rng.choice(len(sizes), size=2, replace=False)
        rows_a.append(first[i] + rng.integers(0, sizes[i]))
        rows_b.append(first[j] + rng.integers(0, sizes[j]))
    return rows_a, rows_b


def _bounded(words: np.ndarray, m):
    """numpy's bounded draw over ``m`` values from one 32-bit word each
    (Lemire's method), and whether numpy would reject the word and draw
    another one instead."""
    m = np.asarray(m, dtype=np.uint64)
    scaled = words * m
    return ((scaled >> 32).astype(np.intp),
            (scaled & 0xFFFFFFFF) < np.uint64(1 << 32) % m)


def _impostor_rows_from_block(rng, starts: np.ndarray, count: int):
    """``_impostor_rows_one_by_one`` decoded from one block of 32-bit words,
    or None where the decoding would not be exact.

    For two of n values, numpy's ``choice`` runs Floyd's algorithm and then
    a shuffle: a bounded draw over n - 1 values gives a, one over n values
    gives b (n - 1 if b == a), and a draw over 2 values swaps them when it
    is 0.  Each ``integers(0, size)`` is one more bounded draw.  A bounded
    draw over one value takes no word; over more, one word unless numpy
    rejects it.  So with two images of every identity each pair takes the
    same words, and any rejected word gives None.
    """
    sizes = np.diff(starts)
    n = sizes.size
    if sizes.min() < 2:
        return None
    # A draw over 2**32 values takes one 32-bit word whatever the dtype;
    # uint64 leaves room for the words' products with m.
    words = rng.integers(0, 1 << 32, size=(count, 5 - (n == 2)), dtype=np.uint64)
    if n == 2:  # a's draw over one value takes no word
        words = np.column_stack([np.zeros(count, np.uint64), words])
    a, rejected_a = _bounded(words[:, 0], n - 1)
    b, rejected_b = _bounded(words[:, 1], n)
    b[b == a] = n - 1
    keep = _bounded(words[:, 2], 2)[0] == 1  # over two values, never rejected
    i = np.where(keep, a, b)
    j = np.where(keep, b, a)
    image_i, rejected_i = _bounded(words[:, 3], sizes[i])
    image_j, rejected_j = _bounded(words[:, 4], sizes[j])
    if (rejected_a | rejected_b | rejected_i | rejected_j).any():
        return None
    return starts[i] + image_i, starts[j] + image_j


def _check_alternates(cases: Sequence["EvaluationCase"]):
    """Every target needs an alternate, and no alternate may be the target
    image itself: the same pixel bytes."""
    for i, case in enumerate(cases):
        if len(case.alt_images) < 1:
            raise LengthMismatch("need at least one alternate image per target")
        target = case.target_image.values.tobytes()
        for alt in case.alt_images:
            if alt.values.tobytes() == target:
                raise TargetLeak(f"alternate of target {i} equals the target image")


def _type2_hits(scores: np.ndarray, starts: np.ndarray,
                tau_F: float) -> np.ndarray:
    """Per (reconstruction, target, *alternates) group, how many alternates
    (rows 2 onwards within the group) match the reconstruction."""
    matched = np.concatenate(([0], np.cumsum(decide_match(scores, tau_F))))
    return matched[starts[1:]] - matched[starts[:-1] + 2]


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
                       tau_F_by_model: Mapping[str, float]) -> EvaluationReport:
    """Score every reconstruction under every configured model.

    One row per (target, eval model); per-model averages over targets; the
    cross-model aggregate averages over ALL models, the target model
    included.  Each model is judged at ``tau_F_by_model[model_id]``;
    ConfigInvalid names a model the mapping leaves out.
    """
    if not cases:
        raise LengthMismatch("no evaluation cases")
    if not eval_models:
        raise ConfigInvalid("no evaluation models configured")
    for model in eval_models:
        if model.model_id not in tau_F_by_model:
            raise ConfigInvalid(f"no tau_F for eval model {model.model_id!r}")

    _check_alternates(cases)
    # One group per case: reconstruction, target, then the alternates.
    groups = [(case.reconstruction, case.target_image, *case.alt_images)
              for case in cases]
    by_model = []
    for model in eval_models:
        tau_F = tau_F_by_model[model.model_id]
        unit, starts = _unit_embeddings(groups, model)
        # Each row's score against its group's reconstruction.
        scores = _pair_scores(unit, np.repeat(starts[:-1], np.diff(starts)),
                              np.arange(len(unit)))
        sims = scores[starts[:-1] + 1].tolist()
        hits = _type2_hits(scores, starts, tau_F)
        by_model.append([ReportRow(
            target_id=case.target_id,
            target_model_id=case.target_model_id,
            eval_model_id=model.model_id,
            similarity=sim,
            type1_hit=decide_match(sim, tau_F),
            type2_rate=int(n_hits) / len(case.alt_images),
            queries=case.queries,
            wall_time=case.wall_time,
        ) for case, sim, n_hits in zip(cases, sims, hits)])

    n = len(cases)
    per_model = [ModelAverage(
        eval_model_id=model.model_id,
        type1_accuracy=sum(r.type1_hit for r in mrows) / n,
        type2_accuracy=sum(r.type2_rate for r in mrows) / n,
        mean_similarity=sum(r.similarity for r in mrows) / n,
    ) for model, mrows in zip(eval_models, by_model)]
    k = len(per_model)
    return EvaluationReport(
        # Case by case, one row per model.
        rows=tuple(row for case_rows in zip(*by_model) for row in case_rows),
        per_model=tuple(per_model),
        cross_model_type1=sum(m.type1_accuracy for m in per_model) / k,
        cross_model_type2=sum(m.type2_accuracy for m in per_model) / k,
        cross_model_similarity=sum(m.mean_similarity for m in per_model) / k,
    )
