import hashlib

import numpy as np
import pytest

from embinvert.core import EmbeddingVector, ImageSample
from embinvert.errors import (
    ConfigInvalid,
    EmptyCalibration,
    InsufficientImages,
    LengthMismatch,
    TargetLeak,
)
from embinvert.evaluation import (
    CalibrationSet,
    EvaluationCase,
    calibration_set_from_images,
    compute_confidence_threshold,
    compute_eer_threshold,
    cross_model_report,
    type1_accuracy,
    type2_accuracy,
)
from embinvert.models import WorldConfig, make_synthetic_world

from conftest import DESK_SEED


def eer_sweep_oracle(genuine, impostor):
    """Brute-force reference: plain-python sweep over the merged grid with
    the same midpoint-of-optimal-interval convention."""
    grid = sorted(set(genuine) | set(impostor))
    stats = []
    for t in grid:
        far = sum(1 for s in impostor if s >= t) / len(impostor)
        frr = sum(1 for s in genuine if s < t) / len(genuine)
        stats.append((far, frr))
    diffs = [abs(far - frr) for far, frr in stats]
    best = min(diffs)
    first = diffs.index(best)
    last = first
    while last + 1 < len(grid) and diffs[last + 1] == best:
        last += 1
    lower = grid[first - 1] if first > 0 else -1.0
    threshold = (lower + grid[last]) / 2.0
    eer = (stats[first][0] + stats[first][1]) / 2.0
    return threshold, eer


def eer_loop_reference(cal):
    """The per-grid-point numpy loop that compute_eer_threshold replaced."""
    gen = np.asarray(cal.genuine_scores)
    imp = np.asarray(cal.impostor_scores)
    grid = np.unique(np.concatenate([gen, imp]))
    far = np.array([np.mean(imp >= t) for t in grid])
    frr = np.array([np.mean(gen < t) for t in grid])
    diff = np.abs(far - frr)
    optimal = np.flatnonzero(diff == diff.min())
    run_start = run_end = optimal[0]
    for idx in optimal[1:]:
        if idx != run_end + 1:
            break
        run_end = idx
    lower = grid[run_start - 1] if run_start > 0 else -1.0
    threshold = (lower + grid[run_end]) / 2.0
    eer = (far[run_start] + frr[run_start]) / 2.0
    return float(threshold), float(eer)


class TestComputeEerThreshold:
    def test_separable_scores_give_midpoint(self):
        cal = CalibrationSet(genuine_scores=(0.9, 0.8), impostor_scores=(0.1, 0.2))
        tau, eer = compute_eer_threshold(cal)
        assert tau == pytest.approx(0.5)
        assert eer == 0.0

    def test_crossing_example(self):
        cal = CalibrationSet(genuine_scores=(0.6, 0.4), impostor_scores=(0.5, 0.3))
        tau, eer = compute_eer_threshold(cal)
        oracle_tau, oracle_eer = eer_sweep_oracle([0.6, 0.4], [0.5, 0.3])
        assert tau == oracle_tau
        assert eer == oracle_eer == 0.5

    def test_empty_calibration_rejected(self):
        with pytest.raises(EmptyCalibration):
            compute_eer_threshold(CalibrationSet((), (0.1,)))
        with pytest.raises(EmptyCalibration):
            compute_eer_threshold(CalibrationSet((0.9,), ()))

    def test_equals_sweep_oracle_on_random_score_sets(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n_g = int(rng.integers(2, 40))
            n_i = int(rng.integers(2, 40))
            genuine = np.clip(rng.normal(0.55, 0.25, n_g), -1, 1)
            impostor = np.clip(rng.normal(0.30, 0.25, n_i), -1, 1)
            cal = CalibrationSet(tuple(genuine), tuple(impostor))
            assert compute_eer_threshold(cal) == eer_sweep_oracle(
                list(genuine), list(impostor))

    def test_equals_sweep_oracle_on_seeded_worlds(self):
        # Higher identity noise makes the score sets genuinely overlap.
        for seed in range(20):
            world = make_synthetic_world(
                WorldConfig(n_identities=6, images_per_identity=3,
                            identity_noise=1.0), seed)
            for k, emb in enumerate(world.embedders):
                cal = calibration_set_from_images(
                    [rec.images for rec in world.identities], emb,
                    seed=[seed, 4, k])
                assert compute_eer_threshold(cal) == eer_sweep_oracle(
                    list(cal.genuine_scores), list(cal.impostor_scores))

    def test_equals_loop_reference_on_tie_heavy_sets(self):
        # Scores on a coarse grid: many exact ties within and across sets.
        rng = np.random.default_rng(21)
        for _ in range(200):
            n_g = int(rng.integers(1, 60))
            n_i = int(rng.integers(1, 60))
            levels = int(rng.integers(2, 12))
            genuine = rng.integers(0, levels + 1, n_g) / levels * 1.6 - 0.6
            impostor = rng.integers(0, levels + 1, n_i) / levels * 1.6 - 1.0
            cal = CalibrationSet(tuple(np.clip(genuine, -1, 1)),
                                 tuple(np.clip(impostor, -1, 1)))
            assert compute_eer_threshold(cal) == eer_loop_reference(cal)

    def test_score_domain_validated(self):
        with pytest.raises(ValueError):
            CalibrationSet(genuine_scores=(1.5,), impostor_scores=(0.1,))


class GramEmbedder:
    """Embedder whose images carry their own embedding in the table."""

    model_id = "gram"
    tau_F = 0.5
    supports_gradient = False
    d_emb = 3

    def __init__(self, table):
        self.table = table

    def embed(self, image):
        return EmbeddingVector(self.table[hashlib.sha256(
            image.values.tobytes()).hexdigest()])


def images_with_gram(sims_matrix):
    """Build unit-norm embeddings realizing the given cosine Gram matrix."""
    gram = np.asarray(sims_matrix)
    chol = np.linalg.cholesky(gram)
    images, table = [], {}
    for i, row in enumerate(chol):
        img = ImageSample(np.full((1, 2, 2), float(i) / 8.0))
        table[hashlib.sha256(img.values.tobytes()).hexdigest()] = row
        images.append(img)
    return images, GramEmbedder(table)


class TestConfidenceThreshold:
    def test_max_same_identity_similarity(self):
        images, embedder = images_with_gram(
            [[1.0, 0.91, 0.95], [0.91, 1.0, 0.88], [0.95, 0.88, 1.0]])
        tau_c = compute_confidence_threshold([images], embedder)
        assert tau_c == pytest.approx(0.95, abs=1e-12)

    def test_single_image_identities_rejected(self):
        images, embedder = images_with_gram([[1.0, 0.9], [0.9, 1.0]])
        with pytest.raises(InsufficientImages):
            compute_confidence_threshold([[images[0]], [images[1]]], embedder)

    def test_cross_identity_flag_widens_pair_set(self):
        images, embedder = images_with_gram(
            [[1.0, 0.4, 0.99], [0.4, 1.0, 0.3], [0.99, 0.3, 1.0]])
        # identities: {0, 1} and {2}; same-identity max is 0.4
        grouped = [[images[0], images[1]], [images[2]]]
        assert compute_confidence_threshold(grouped, embedder) == pytest.approx(0.4)
        widened = compute_confidence_threshold(grouped, embedder,
                                               include_cross_identity=True)
        assert widened == pytest.approx(0.99)

    def test_world_confidence_bar_above_decision_bar(self):
        for seed in (DESK_SEED, 19, 23):
            world = make_synthetic_world(WorldConfig(n_identities=8), seed)
            groups = [rec.images for rec in world.identities]
            for emb in world.embedders:
                tau_c = compute_confidence_threshold(groups, emb)
                assert tau_c >= emb.tau_F


def fixed_sim_pairs(sims, tau_F=0.5):
    """Reconstruction/target image pairs with prescribed similarities."""
    n = len(sims)
    table = {}
    recs, tgts = [], []
    for i, s in enumerate(sims):
        rec = ImageSample(np.full((1, 1, 2), float(i) / 256.0))
        tgt = ImageSample(np.full((1, 1, 2), (float(i) + 100.0) / 256.0))
        table[hashlib.sha256(rec.values.tobytes()).hexdigest()] = \
            np.array([1.0, 0.0, 0.0])
        table[hashlib.sha256(tgt.values.tobytes()).hexdigest()] = \
            np.array([s, np.sqrt(1 - s * s), 0.0])
        recs.append(rec)
        tgts.append(tgt)
    return recs, tgts, GramEmbedder(table)


class TestTypeOneAccuracy:
    def test_perfect_reconstructions(self, desk_world):
        f = desk_world.embedders[0]
        targets = [rec.images[0] for rec in desk_world.identities[:5]]
        assert type1_accuracy(targets, targets, f, f.tau_F) == 1.0

    def test_all_below_threshold(self):
        recs, tgts, embedder = fixed_sim_pairs([0.1, 0.2, 0.3])
        assert type1_accuracy(recs, tgts, embedder, 0.5) == 0.0

    def test_hand_counted_two_of_three(self):
        recs, tgts, embedder = fixed_sim_pairs([0.9, 0.1, 0.8])
        assert type1_accuracy(recs, tgts, embedder, 0.5) == pytest.approx(2 / 3)

    def test_reorder_invariance(self):
        sims = [0.9, 0.1, 0.8, 0.6, 0.2]
        recs, tgts, embedder = fixed_sim_pairs(sims)
        base = type1_accuracy(recs, tgts, embedder, 0.5)
        perm = [3, 1, 4, 0, 2]
        shuffled = type1_accuracy([recs[i] for i in perm],
                                  [tgts[i] for i in perm], embedder, 0.5)
        assert base == shuffled

    def test_length_mismatch(self):
        recs, tgts, embedder = fixed_sim_pairs([0.9, 0.1])
        with pytest.raises(LengthMismatch):
            type1_accuracy(recs, tgts[:1], embedder, 0.5)


class TestTypeTwoAccuracy:
    def test_hand_counted_half(self):
        # one identity, two alternates: one hit, one miss
        table = {}

        def img(tag, vec):
            image = ImageSample(np.full((1, 1, 2), tag / 256.0))
            table[hashlib.sha256(image.values.tobytes()).hexdigest()] = vec
            return image

        rec = img(0.0, np.array([1.0, 0.0, 0.0]))
        tgt = img(1.0, np.array([0.9, np.sqrt(1 - 0.81), 0.0]))
        alt_hit = img(2.0, np.array([0.8, 0.6, 0.0]))
        alt_miss = img(3.0, np.array([0.1, np.sqrt(1 - 0.01), 0.0]))
        embedder = GramEmbedder(table)
        rate = type2_accuracy([rec], [[alt_hit, alt_miss]], embedder, 0.5, [tgt])
        assert rate == 0.5

    def test_target_leak_detected(self, desk_world):
        f = desk_world.embedders[0]
        rec_images = desk_world.identities[0].images
        target = rec_images[0]
        with pytest.raises(TargetLeak):
            type2_accuracy([rec_images[1]], [[rec_images[2], target]],
                           f, f.tau_F, [target])

    def test_alternate_counts_must_match(self, desk_world):
        f = desk_world.embedders[0]
        ids = desk_world.identities
        with pytest.raises(LengthMismatch):
            type2_accuracy(
                [ids[0].images[0], ids[1].images[0]],
                [[ids[0].images[1]], [ids[1].images[1], ids[1].images[2]]],
                f, f.tau_F,
                [ids[0].images[3], ids[1].images[3]])

    def test_reorder_invariance(self, desk_world):
        f = desk_world.embedders[0]
        ids = desk_world.identities[:4]
        recs = [rec.images[0] for rec in ids]
        alts = [list(rec.images[1:3]) for rec in ids]
        tgts = [rec.images[3] for rec in ids]
        base = type2_accuracy(recs, alts, f, f.tau_F, tgts)
        perm = [2, 0, 3, 1]
        shuffled = type2_accuracy([recs[i] for i in perm],
                                  [alts[i] for i in perm], f, f.tau_F,
                                  [tgts[i] for i in perm])
        assert base == shuffled


class TestCrossModelReport:
    @pytest.fixture()
    def cases(self, desk_world):
        out = []
        for t, rec in enumerate(desk_world.identities[:2]):
            out.append(EvaluationCase(
                target_id=f"t{t}",
                target_model_id=desk_world.embedders[0].model_id,
                reconstruction=rec.images[1],  # a genuine alternate: should match
                target_image=rec.images[0],
                alt_images=tuple(rec.images[2:]),
                queries=100 + t,
                wall_time=0.5,
            ))
        return out

    def test_row_and_average_combinatorics(self, desk_world, cases):
        report = cross_model_report(cases, desk_world.embedders)
        assert len(report.rows) == 4  # 2 targets x 2 models
        assert len(report.per_model) == 2

    def test_averages_recompute_from_rows(self, desk_world, cases):
        report = cross_model_report(cases, desk_world.embedders)
        for avg in report.per_model:
            rows = [r for r in report.rows if r.eval_model_id == avg.eval_model_id]
            assert avg.type1_accuracy == pytest.approx(
                sum(r.type1_hit for r in rows) / len(rows), abs=1e-12)
            assert avg.type2_accuracy == pytest.approx(
                sum(r.type2_rate for r in rows) / len(rows), abs=1e-12)
            assert avg.mean_similarity == pytest.approx(
                sum(r.similarity for r in rows) / len(rows), abs=1e-12)
        assert report.cross_model_type2 == pytest.approx(
            sum(m.type2_accuracy for m in report.per_model) / len(report.per_model),
            abs=1e-12)

    def test_cross_model_average_includes_target_model(self, desk_world, cases):
        report = cross_model_report(cases, desk_world.embedders)
        eval_ids = {r.eval_model_id for r in report.rows}
        assert desk_world.embedders[0].model_id in eval_ids  # the target model
        assert desk_world.embedders[1].model_id in eval_ids

    def test_threshold_override(self, desk_world, cases):
        # with an impossible bar nothing matches
        overrides = {e.model_id: 1.0 for e in desk_world.embedders}
        report = cross_model_report(cases, desk_world.embedders, overrides)
        assert report.cross_model_type2 <= 0.01

    def test_missing_threshold_rejected(self, desk_world, cases):
        class Bare:
            model_id = "bare"
            tau_F = None
            d_emb = 32

            def embed(self, image):
                return desk_world.embedders[0].embed(image)

        with pytest.raises(ConfigInvalid):
            cross_model_report(cases, [Bare()])

    def test_no_cases_rejected(self, desk_world):
        with pytest.raises(LengthMismatch):
            cross_model_report([], desk_world.embedders)
