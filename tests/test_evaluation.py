import hashlib

import numpy as np
import pytest

from embinvert.core import EmbeddingVector, ImageSample, cosine_similarity, decide_match
from embinvert.errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyCalibration,
    InsufficientImages,
    LengthMismatch,
    TargetLeak,
    ZeroNormEmbedding,
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
from embinvert.models import EmbedderHandle, SyntheticEmbedder, WorldConfig, make_synthetic_world

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


class GramEmbedder(EmbedderHandle):
    """Embedder whose images carry their own embedding in the table.

    It implements only ``embed``; ``embed_batch`` is the inherited default.
    """

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

    def test_cross_identity_pairs_ignored(self):
        images, embedder = images_with_gram(
            [[1.0, 0.4, 0.99], [0.4, 1.0, 0.3], [0.99, 0.3, 1.0]])
        # identities: {0, 1} and {2}; same-identity max is 0.4, the 0.99
        # cross-identity pair does not count
        grouped = [[images[0], images[1]], [images[2]]]
        assert compute_confidence_threshold(grouped, embedder) == pytest.approx(0.4)

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


# The per-image, per-pair loops that the batched evaluation replaced, kept
# here as the reference it must reproduce.

def calibration_loop_reference(images_by_identity, embedder, seed):
    embeddings = [[embedder.embed(img) for img in group]
                  for group in images_by_identity]
    genuine = [
        cosine_similarity(group[a], group[b])
        for group in embeddings
        for a in range(len(group)) for b in range(a + 1, len(group))
    ]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    impostor = []
    n_id = len(embeddings)
    while len(impostor) < len(genuine):
        i, j = rng.choice(n_id, size=2, replace=False)
        a = rng.integers(0, len(embeddings[i]))
        b = rng.integers(0, len(embeddings[j]))
        impostor.append(cosine_similarity(embeddings[i][a], embeddings[j][b]))
    return CalibrationSet(genuine_scores=genuine, impostor_scores=impostor)


def confidence_loop_reference(images_by_identity, embedder):
    embeddings = [[embedder.embed(img) for img in group]
                  for group in images_by_identity]
    return max(cosine_similarity(group[a], group[b])
               for group in embeddings
               for a in range(len(group)) for b in range(a + 1, len(group)))


def report_rows_loop_reference(cases, eval_models):
    rows = []
    for case in cases:
        for model in eval_models:
            rec_emb = model.embed(case.reconstruction)
            sim = cosine_similarity(rec_emb, model.embed(case.target_image))
            hits = sum(decide_match(cosine_similarity(rec_emb, model.embed(alt)),
                                    model.tau_F)
                       for alt in case.alt_images)
            rows.append((sim, decide_match(sim, model.tau_F),
                         hits / len(case.alt_images)))
    return rows


# Seeds 7, 19 and 23 at desk size; 1009 at the paper-point size of
# 200 identities x 8 images with 128-d embeddings.
REFERENCE_WORLDS = [
    (7, WorldConfig()),
    (19, WorldConfig(n_identities=12, images_per_identity=5, identity_noise=1.0)),
    (23, WorldConfig(n_identities=9, images_per_identity=3, embedder_dims=(16, 48))),
    (1009, WorldConfig(n_identities=200, images_per_identity=8,
                       embedder_dims=(128, 128))),
]


@pytest.fixture(scope="module", params=REFERENCE_WORLDS, ids=lambda p: f"seed{p[0]}")
def reference_world(request):
    seed, config = request.param
    return seed, make_synthetic_world(config, seed)


class CountingEmbedder(SyntheticEmbedder):
    """A synthetic embedder that counts its ``embed``/``embed_batch`` calls."""

    def __init__(self, inner):
        self.__dict__.update(inner.__dict__)
        self.embed_calls = 0
        self.batch_calls = 0

    def embed(self, image):
        self.embed_calls += 1
        return super().embed(image)

    def embed_batch(self, images):
        self.batch_calls += 1
        return super().embed_batch(images)


class BrokenBatchEmbedder(EmbedderHandle):
    """Returns ``embed_batch`` output of the wrong shape."""

    model_id = "broken"
    tau_F = 0.5
    d_emb = 4

    def __init__(self, trim_rows):
        self.trim_rows = trim_rows

    def embed_batch(self, images):
        rows = np.ones((len(images), self.d_emb))
        return rows[1:] if self.trim_rows else rows.reshape(-1)


def evaluation_cases(world, n, n_alts=None):
    """Reconstructions from the next identity, so that some rows miss."""
    ids = world.identities
    cases = []
    for t in range(n):
        own, other = ids[t % len(ids)], ids[(t + 1) % len(ids)]
        alts = own.images[1:] if n_alts is None else own.images[1:1 + n_alts(t)]
        cases.append(EvaluationCase(
            target_id=f"t{t}", target_model_id=world.embedders[0].model_id,
            reconstruction=(own.images[1] if t % 3 else other.images[0]),
            target_image=own.images[0], alt_images=tuple(alts),
            queries=t, wall_time=0.0))
    return cases


class TestBatchedEvaluationMatchesLoops:
    def test_calibration_scores_and_thresholds(self, reference_world):
        seed, world = reference_world
        groups = [rec.images for rec in world.identities]
        for k, emb in enumerate(world.embedders):
            cal = calibration_set_from_images(groups, emb, seed=[seed, 4, k])
            ref = calibration_loop_reference(groups, emb, seed=[seed, 4, k])
            assert len(cal.genuine_scores) == len(ref.genuine_scores)
            assert len(cal.impostor_scores) == len(ref.impostor_scores)
            np.testing.assert_allclose(cal.genuine_scores, ref.genuine_scores,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(cal.impostor_scores, ref.impostor_scores,
                                       rtol=0, atol=1e-12)
            tau_f, eer = compute_eer_threshold(cal)
            ref_tau_f, ref_eer = compute_eer_threshold(ref)
            assert abs(tau_f - ref_tau_f) <= 1e-12
            assert abs(eer - ref_eer) <= 1e-12
            assert abs(emb.tau_F - ref_tau_f) <= 1e-12  # calibrated on first read
            tau_c = compute_confidence_threshold(groups, emb)
            assert abs(tau_c - confidence_loop_reference(groups, emb)) <= 1e-12

    def test_unequal_groups(self, desk_world):
        ids = desk_world.identities
        groups = [ids[0].images, ids[1].images[:1], ids[2].images[:2],
                  ids[3].images[:3]]
        emb = desk_world.embedders[0]
        cal = calibration_set_from_images(groups, emb, seed=5)
        ref = calibration_loop_reference(groups, emb, seed=5)
        np.testing.assert_allclose(cal.genuine_scores, ref.genuine_scores,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(cal.impostor_scores, ref.impostor_scores,
                                   rtol=0, atol=1e-12)
        assert abs(compute_confidence_threshold(groups, emb)
                   - confidence_loop_reference(groups, emb)) <= 1e-12

    def test_cross_model_report_rows(self, reference_world):
        _seed, world = reference_world
        cases = evaluation_cases(world, 40)
        report = cross_model_report(cases, world.embedders)
        ref = report_rows_loop_reference(cases, world.embedders)
        assert len(report.rows) == len(ref)
        assert any(not row.type1_hit for row in report.rows)
        for row, (sim, hit, rate) in zip(report.rows, ref):
            assert abs(row.similarity - sim) <= 1e-12
            assert row.type1_hit == hit
            assert row.type2_rate == rate

    def test_cross_model_report_with_differing_alternate_counts(self, desk_world):
        cases = evaluation_cases(desk_world, 9, n_alts=lambda t: 1 + t % 3)
        report = cross_model_report(cases, desk_world.embedders)
        ref = report_rows_loop_reference(cases, desk_world.embedders)
        assert [(r.type1_hit, r.type2_rate) for r in report.rows] == \
            [(hit, rate) for _sim, hit, rate in ref]

    def test_type1_and_type2_accuracy(self, desk_world):
        cases = evaluation_cases(desk_world, 12)
        recs = [c.reconstruction for c in cases]
        tgts = [c.target_image for c in cases]
        alts = [c.alt_images for c in cases]
        for emb in desk_world.embedders:
            ref = report_rows_loop_reference(cases, [emb])
            assert type1_accuracy(recs, tgts, emb, emb.tau_F) == \
                sum(hit for _s, hit, _r in ref) / len(cases)
            hits = sum(round(rate * len(alts[0])) for _s, _h, rate in ref)
            assert type2_accuracy(recs, alts, emb, emb.tau_F, tgts) == \
                hits / (len(cases) * len(alts[0]))


class TestBatchedEvaluationCalls:
    def test_one_embed_batch_per_model_and_no_embed(self, desk_world):
        groups = [rec.images for rec in desk_world.identities]
        cases = evaluation_cases(desk_world, 5)
        recs = [c.reconstruction for c in cases]
        tgts = [c.target_image for c in cases]
        alts = [c.alt_images for c in cases]
        calls = {
            "calibration_set_from_images":
                lambda emb: calibration_set_from_images(groups, emb, seed=1),
            "compute_confidence_threshold":
                lambda emb: compute_confidence_threshold(groups, emb),
            "type1_accuracy": lambda emb: type1_accuracy(recs, tgts, emb, 0.5),
            "type2_accuracy": lambda emb: type2_accuracy(recs, alts, emb, 0.5, tgts),
        }
        for name, call in calls.items():
            emb = CountingEmbedder(desk_world.embedders[0])
            call(emb)
            assert (name, emb.batch_calls, emb.embed_calls) == (name, 1, 0)
        models = [CountingEmbedder(e) for e in desk_world.embedders]
        cross_model_report(cases, models)
        assert [(m.batch_calls, m.embed_calls) for m in models] == [(1, 0), (1, 0)]


class TestBatchedEvaluationErrors:
    def test_target_leak_in_cross_model_report(self, desk_world):
        cases = evaluation_cases(desk_world, 3)
        leaked = cases[2]
        cases[2] = EvaluationCase(
            leaked.target_id, leaked.target_model_id, leaked.reconstruction,
            leaked.target_image, leaked.alt_images + (leaked.target_image,),
            leaked.queries, leaked.wall_time)
        with pytest.raises(TargetLeak, match="alternate of target 2 equals"):
            cross_model_report(cases, desk_world.embedders)

    def test_empty_alternates_rejected(self, desk_world):
        cases = evaluation_cases(desk_world, 3, n_alts=lambda t: 0 if t == 1 else 2)
        with pytest.raises(LengthMismatch, match="at least one alternate"):
            cross_model_report(cases, desk_world.embedders)
        f = desk_world.embedders[0]
        ids = desk_world.identities[:2]
        with pytest.raises(LengthMismatch, match="at least one alternate"):
            type2_accuracy([rec.images[1] for rec in ids], [[], []], f, 0.5,
                           [rec.images[0] for rec in ids])

    def test_zero_norm_embedding_rejected(self):
        images, embedder = images_with_gram([[1.0, 0.5], [0.5, 1.0]])
        zero = ImageSample(np.full((1, 2, 2), 0.75))
        embedder.table[hashlib.sha256(zero.values.tobytes()).hexdigest()] = \
            np.zeros(2)
        with pytest.raises(ZeroNormEmbedding):
            compute_confidence_threshold([images + [zero]], embedder)
        with pytest.raises(ZeroNormEmbedding):
            calibration_set_from_images([images, [zero]], embedder, seed=0)
        with pytest.raises(ZeroNormEmbedding):
            type1_accuracy([zero], [images[0]], embedder, 0.5)

    @pytest.mark.parametrize("trim_rows", [True, False])
    def test_bad_embed_batch_shape_rejected(self, desk_world, trim_rows):
        groups = [rec.images for rec in desk_world.identities[:3]]
        embedder = BrokenBatchEmbedder(trim_rows)
        with pytest.raises(DimensionMismatch):
            calibration_set_from_images(groups, embedder, seed=0)
        with pytest.raises(DimensionMismatch):
            compute_confidence_threshold(groups, embedder)
        with pytest.raises(DimensionMismatch):
            cross_model_report(evaluation_cases(desk_world, 2), [embedder])

    def test_too_few_images_rejected(self, desk_world):
        f = desk_world.embedders[0]
        ids = desk_world.identities
        with pytest.raises(EmptyCalibration, match="two identities"):
            calibration_set_from_images([ids[0].images], f, seed=0)
        with pytest.raises(EmptyCalibration, match="no genuine pairs"):
            calibration_set_from_images([ids[0].images[:1], ids[1].images[:1]],
                                        f, seed=0)
        with pytest.raises(InsufficientImages, match="every identity"):
            calibration_set_from_images([ids[0].images, ()], f, seed=0)
        with pytest.raises(InsufficientImages):
            compute_confidence_threshold([], f)
