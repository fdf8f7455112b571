import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embinvert import evaluation
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
    compute_eer_threshold,
    cross_model_report,
)
from embinvert.models import (
    EmbedderHandle,
    SyntheticEmbedder,
    WorldConfig,
    impostor_stream,
    make_synthetic_world,
)

from conftest import DESK_SEED, forward, world_tau_F


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

    It implements only ``embed_batch``, one table lookup per image.
    """

    model_id = "gram"
    tau_F = 0.5
    d_emb = 3

    def __init__(self, table):
        self.table = table

    def embed_batch(self, images):
        return np.stack([self.table[hashlib.sha256(image.tobytes()).hexdigest()]
                         for image in images])


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
            [[1.0, 0.91, 0.95, 0.0], [0.91, 1.0, 0.88, 0.0],
             [0.95, 0.88, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        cal = calibration_set_from_images([images[:3], images[3:]], embedder, seed=0)
        assert cal.tau_C == pytest.approx(0.95, abs=1e-12)

    def test_single_image_identities_rejected(self):
        images, embedder = images_with_gram([[1.0, 0.9], [0.9, 1.0]])
        with pytest.raises(EmptyCalibration, match="no genuine pairs"):
            calibration_set_from_images([[images[0]], [images[1]]], embedder, seed=0)

    def test_cross_identity_pairs_ignored(self):
        images, embedder = images_with_gram(
            [[1.0, 0.4, 0.99], [0.4, 1.0, 0.3], [0.99, 0.3, 1.0]])
        # identities: {0, 1} and {2}; same-identity max is 0.4, the 0.99
        # cross-identity pair does not count
        grouped = [[images[0], images[1]], [images[2]]]
        cal = calibration_set_from_images(grouped, embedder, seed=0)
        assert cal.tau_C == pytest.approx(0.4)

    def test_calibration_set_tau_C_is_the_same_rule(self, desk_world):
        groups = [rec.images for rec in desk_world.identities]
        for k, emb in enumerate(desk_world.embedders):
            cal = calibration_set_from_images(groups, emb, seed=k)
            assert cal.tau_C == max(cal.genuine_scores)
            assert abs(cal.tau_C - confidence_loop_reference(groups, emb)) <= 1e-12
        with pytest.raises(EmptyCalibration):
            CalibrationSet(genuine_scores=(), impostor_scores=(0.1,)).tau_C

    def test_world_confidence_bar_above_decision_bar(self):
        for seed in (DESK_SEED, 19, 23):
            world = make_synthetic_world(WorldConfig(n_identities=8), seed)
            groups = [rec.images for rec in world.identities]
            taus = world_tau_F(world)
            for k, emb in enumerate(world.embedders):
                cal = calibration_set_from_images(
                    groups, emb, seed=impostor_stream(seed, k))
                assert cal.tau_C >= taus[emb.model_id]


def unit_at(s):
    """A unit vector whose cosine with (1, 0, 0) is ``s``."""
    return np.array([s, np.sqrt(1 - s * s), 0.0])


def toy_cases(target_sims, alt_sims):
    """Cases under one GramEmbedder, judged at tau_F 0.5 by ``TOY_TAU_F``:
    every reconstruction embeds to (1, 0, 0), case i's target scores
    ``target_sims[i]`` against it and its alternates ``alt_sims[i]``."""
    table = {}

    def image(embedding):
        img = ImageSample(np.full((1, 1, 2), len(table) / 256.0))
        table[hashlib.sha256(img.values.tobytes()).hexdigest()] = embedding
        return img

    cases = [EvaluationCase(
        target_id=f"t{i}", target_model_id="gram",
        reconstruction=image(np.array([1.0, 0.0, 0.0])),
        target_image=image(unit_at(s)),
        alt_images=tuple(image(unit_at(a)) for a in alts),
        queries=i, wall_time=0.0)
        for i, (s, alts) in enumerate(zip(target_sims, alt_sims))]
    return cases, GramEmbedder(table)


TOY_TAU_F = {"gram": 0.5}


def permuted(cases, perm):
    return [cases[i] for i in perm]


class TestTypeOneAccuracy:
    def test_perfect_reconstructions(self, desk_world):
        cases = [EvaluationCase(
            target_id=f"t{t}", target_model_id=desk_world.embedders[0].model_id,
            reconstruction=rec.images[0], target_image=rec.images[0],
            alt_images=tuple(rec.images[1:]), queries=0, wall_time=0.0)
            for t, rec in enumerate(desk_world.identities[:5])]
        f = desk_world.embedders[0]
        report = cross_model_report(cases, [f], world_tau_F(desk_world))
        assert report.per_model[0].type1_accuracy == 1.0

    def test_all_below_threshold(self):
        cases, embedder = toy_cases([0.1, 0.2, 0.3], [[0.9]] * 3)
        report = cross_model_report(cases, [embedder], TOY_TAU_F)
        assert report.per_model[0].type1_accuracy == 0.0

    def test_hand_counted_two_of_three(self):
        cases, embedder = toy_cases([0.9, 0.1, 0.8], [[0.9]] * 3)
        report = cross_model_report(cases, [embedder], TOY_TAU_F)
        assert [row.type1_hit for row in report.rows] == [True, False, True]
        assert report.per_model[0].type1_accuracy == pytest.approx(2 / 3)

    def test_reorder_invariance(self):
        cases, embedder = toy_cases([0.9, 0.1, 0.8, 0.6, 0.2], [[0.9]] * 5)
        base = cross_model_report(cases, [embedder], TOY_TAU_F)
        shuffled = cross_model_report(permuted(cases, [3, 1, 4, 0, 2]),
                                      [embedder], TOY_TAU_F)
        assert base.per_model[0].type1_accuracy == \
            shuffled.per_model[0].type1_accuracy


class TestTypeTwoAccuracy:
    def test_hand_counted_half(self):
        # one identity, two alternates: one hit, one miss
        cases, embedder = toy_cases([0.9], [[0.8, 0.1]])
        report = cross_model_report(cases, [embedder], TOY_TAU_F)
        assert report.rows[0].type2_rate == 0.5

    def test_target_leak_detected(self, desk_world):
        f = desk_world.embedders[0]
        rec_images = desk_world.identities[0].images
        target = rec_images[0]
        case = EvaluationCase(
            target_id="t0", target_model_id=f.model_id,
            reconstruction=rec_images[1], target_image=target,
            alt_images=(rec_images[2], target), queries=0, wall_time=0.0)
        with pytest.raises(TargetLeak):
            cross_model_report([case], [f], world_tau_F(desk_world))

    def test_reorder_invariance(self, desk_world):
        f = desk_world.embedders[0]
        cases = [EvaluationCase(
            target_id=f"t{t}", target_model_id=f.model_id,
            reconstruction=rec.images[0], target_image=rec.images[3],
            alt_images=tuple(rec.images[1:3]), queries=0, wall_time=0.0)
            for t, rec in enumerate(desk_world.identities[:4])]
        taus = world_tau_F(desk_world)
        base = cross_model_report(cases, [f], taus)
        shuffled = cross_model_report(permuted(cases, [2, 0, 3, 1]), [f], taus)
        assert base.per_model[0].type2_accuracy == \
            shuffled.per_model[0].type2_accuracy


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
        report = cross_model_report(cases, desk_world.embedders,
                                    world_tau_F(desk_world))
        assert len(report.rows) == 4  # 2 targets x 2 models
        assert len(report.per_model) == 2

    def test_averages_recompute_from_rows(self, desk_world, cases):
        report = cross_model_report(cases, desk_world.embedders,
                                    world_tau_F(desk_world))
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
        report = cross_model_report(cases, desk_world.embedders,
                                    world_tau_F(desk_world))
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
            tau_F = 0.5
            d_emb = 32

            def embed_batch(self, images):
                return desk_world.embedders[0].embed_batch(images)

        # The mapping is the only source: a model's own tau_F is not read.
        with pytest.raises(ConfigInvalid, match="no tau_F for eval model 'bare'"):
            cross_model_report(cases, [Bare()], {})
        taus = world_tau_F(desk_world)
        del taus[desk_world.embedders[1].model_id]
        with pytest.raises(ConfigInvalid, match="no tau_F"):
            cross_model_report(cases, desk_world.embedders, taus)

    def test_no_cases_rejected(self, desk_world):
        with pytest.raises(LengthMismatch):
            cross_model_report([], desk_world.embedders, world_tau_F(desk_world))

    def test_three_model_averages_are_in_order_sums_bit_for_bit(self):
        world = make_synthetic_world(WorldConfig(embedder_dims=(32, 24, 16)),
                                     DESK_SEED)
        identities = world.identities
        # Odd cases reconstruct another identity, so hits and misses mix.
        cases = [EvaluationCase(
            target_id=f"t{t}", target_model_id=world.embedders[0].model_id,
            reconstruction=identities[t + t % 2].images[1],
            target_image=identities[t].images[0],
            alt_images=tuple(identities[t].images[2:]),
            queries=t, wall_time=0.0) for t in range(13)]
        report = cross_model_report(cases, world.embedders, world_tau_F(world))
        assert [m.eval_model_id for m in report.per_model] == \
            [e.model_id for e in world.embedders]
        for avg in report.per_model:
            rows = [r for r in report.rows if r.eval_model_id == avg.eval_model_id]
            assert [r.target_id for r in rows] == [c.target_id for c in cases]
            assert avg.type1_accuracy == sum(r.type1_hit for r in rows) / 13
            assert avg.type2_accuracy == sum(r.type2_rate for r in rows) / 13
            assert avg.mean_similarity == sum(r.similarity for r in rows) / 13
        averages = report.per_model
        assert report.cross_model_type1 == sum(m.type1_accuracy for m in averages) / 3
        assert report.cross_model_type2 == sum(m.type2_accuracy for m in averages) / 3
        assert report.cross_model_similarity == \
            sum(m.mean_similarity for m in averages) / 3
        assert 0.0 < report.cross_model_type1 < 1.0


# The per-image, per-pair loops that the batched evaluation replaced, kept
# here as the reference it must reproduce.

def calibration_loop_reference(images_by_identity, embedder, seed):
    embeddings = [[forward(embedder, img) for img in group]
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
    embeddings = [[forward(embedder, img) for img in group]
                  for group in images_by_identity]
    return max(cosine_similarity(group[a], group[b])
               for group in embeddings
               for a in range(len(group)) for b in range(a + 1, len(group)))


def report_rows_loop_reference(cases, eval_models, thresholds):
    rows = []
    for case in cases:
        for model in eval_models:
            tau_F = thresholds[model.model_id]
            rec_emb = forward(model, case.reconstruction)
            sim = cosine_similarity(rec_emb, forward(model, case.target_image))
            hits = sum(decide_match(cosine_similarity(rec_emb, forward(model, alt)),
                                    tau_F)
                       for alt in case.alt_images)
            rows.append((sim, decide_match(sim, tau_F),
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
    """A synthetic embedder that counts its ``embed_batch``/``embed_vjp`` calls."""

    def __init__(self, inner):
        self.__dict__.update(inner.__dict__)
        self.vjp_calls = 0
        self.batch_calls = 0

    def embed_vjp(self, image):
        self.vjp_calls += 1
        return super().embed_vjp(image)

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
        taus = world_tau_F(world)
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
            assert abs(taus[emb.model_id] - ref_tau_f) <= 1e-12  # calibrate's
            assert abs(cal.tau_C - confidence_loop_reference(groups, emb)) <= 1e-12

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
        assert abs(cal.tau_C - confidence_loop_reference(groups, emb)) <= 1e-12

    def test_cross_model_report_rows(self, reference_world):
        _seed, world = reference_world
        cases = evaluation_cases(world, 40)
        taus = world_tau_F(world)
        report = cross_model_report(cases, world.embedders, taus)
        ref = report_rows_loop_reference(cases, world.embedders, taus)
        assert len(report.rows) == len(ref)
        assert any(not row.type1_hit for row in report.rows)
        for row, (sim, hit, rate) in zip(report.rows, ref):
            assert abs(row.similarity - sim) <= 1e-12
            assert row.type1_hit == hit
            assert row.type2_rate == rate

    def test_cross_model_report_with_differing_alternate_counts(self, desk_world):
        cases = evaluation_cases(desk_world, 9, n_alts=lambda t: 1 + t % 3)
        taus = world_tau_F(desk_world)
        report = cross_model_report(cases, desk_world.embedders, taus)
        ref = report_rows_loop_reference(cases, desk_world.embedders, taus)
        assert [(r.type1_hit, r.type2_rate) for r in report.rows] == \
            [(hit, rate) for _sim, hit, rate in ref]

    def test_model_averages(self, desk_world):
        cases = evaluation_cases(desk_world, 12)
        taus = world_tau_F(desk_world)
        report = cross_model_report(cases, desk_world.embedders, taus)
        for emb, avg in zip(desk_world.embedders, report.per_model):
            ref = report_rows_loop_reference(cases, [emb], taus)
            assert avg.type1_accuracy == \
                sum(hit for _s, hit, _r in ref) / len(cases)
            assert avg.type2_accuracy == \
                sum(rate for _s, _h, rate in ref) / len(cases)


class TestBatchedEvaluationCalls:
    def test_one_embed_batch_per_model_and_no_embed(self, desk_world):
        groups = [rec.images for rec in desk_world.identities]
        cases = evaluation_cases(desk_world, 5)
        emb = CountingEmbedder(desk_world.embedders[0])
        calibration_set_from_images(groups, emb, seed=1)
        assert (emb.batch_calls, emb.vjp_calls) == (1, 0)
        models = [CountingEmbedder(e) for e in desk_world.embedders]
        cross_model_report(cases, models, world_tau_F(desk_world))
        assert [(m.batch_calls, m.vjp_calls) for m in models] == [(1, 0), (1, 0)]


class TestBatchedEvaluationErrors:
    def test_target_leak_in_cross_model_report(self, desk_world):
        cases = evaluation_cases(desk_world, 3)
        leaked = cases[2]
        cases[2] = EvaluationCase(
            leaked.target_id, leaked.target_model_id, leaked.reconstruction,
            leaked.target_image, leaked.alt_images + (leaked.target_image,),
            leaked.queries, leaked.wall_time)
        with pytest.raises(TargetLeak, match="alternate of target 2 equals"):
            cross_model_report(cases, desk_world.embedders,
                               world_tau_F(desk_world))

    def test_empty_alternates_rejected(self, desk_world):
        cases = evaluation_cases(desk_world, 3, n_alts=lambda t: 0 if t == 1 else 2)
        with pytest.raises(LengthMismatch, match="at least one alternate"):
            cross_model_report(cases, desk_world.embedders,
                               world_tau_F(desk_world))

    def test_zero_norm_embedding_rejected(self):
        images, embedder = images_with_gram([[1.0, 0.5], [0.5, 1.0]])
        zero = ImageSample(np.full((1, 2, 2), 0.75))
        embedder.table[hashlib.sha256(zero.values.tobytes()).hexdigest()] = \
            np.zeros(2)
        with pytest.raises(ZeroNormEmbedding):
            calibration_set_from_images([images, [zero]], embedder, seed=0)
        case = EvaluationCase(
            target_id="t0", target_model_id="gram", reconstruction=zero,
            target_image=images[0], alt_images=(images[1],), queries=0,
            wall_time=0.0)
        with pytest.raises(ZeroNormEmbedding):
            cross_model_report([case], [embedder], {"gram": 0.5})

    @pytest.mark.parametrize("trim_rows", [True, False])
    def test_bad_embed_batch_shape_rejected(self, desk_world, trim_rows):
        groups = [rec.images for rec in desk_world.identities[:3]]
        embedder = BrokenBatchEmbedder(trim_rows)
        with pytest.raises(DimensionMismatch):
            calibration_set_from_images(groups, embedder, seed=0)
        with pytest.raises(DimensionMismatch):
            cross_model_report(evaluation_cases(desk_world, 2), [embedder],
                               {"broken": 0.5})

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


def seeded_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def layout_starts(sizes):
    return np.cumsum([0] + list(sizes))


def genuine_count(sizes):
    return sum(m * (m - 1) // 2 for m in sizes)


def assert_same_rows(rows, ref):
    assert np.array_equal(np.asarray(rows[0]), np.asarray(ref[0]))
    assert np.array_equal(np.asarray(rows[1]), np.asarray(ref[1]))


# numpy's PCG64 steps a 128-bit LCG and emits the XSL-RR output of the new
# state; each 64-bit output gives two uint32 words, the low half first.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_INC = 0x5851F42D4C957F2D14057B7EF767814F


def generator_with_word(word, index):
    """A ``Generator`` whose ``index``-th uint32 word is ``word``."""
    other = 0x9E3779B9  # the other half of the same 64-bit output
    output = word | other << 32 if index % 2 == 0 else other | word << 32
    high = 0x0123456789ABCDEF  # top six bits 0: XSL-RR does not rotate
    state = high << 64 | (high ^ output)
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(index // 2 + 1):
        state = (state - _PCG64_INC) * inverse % (1 << 128)
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": _PCG64_INC},
                           "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


# tau_F, EER and tau_C per (world, seed, embedder), as hex floats, from the
# per-pair impostor draw.
WORLDS = {
    "desk": WorldConfig(),
    "200x8": WorldConfig(n_identities=200, images_per_identity=8,
                         embedder_dims=(128, 128)),
}
PINNED_THRESHOLDS = {
    ("desk", 7, 0): ("0x1.3dbe1d786fdbbp-1", "0x0.0p+0", "0x1.eec27301669e9p-1"),
    ("desk", 7, 1): ("0x1.676f51621f5d6p-1", "0x0.0p+0", "0x1.ee2c4351e96b1p-1"),
    ("desk", 1009, 0): ("0x1.33ae51f473fecp-1", "0x0.0p+0", "0x1.e9f8e0400228ap-1"),
    ("desk", 1009, 1): ("0x1.4f094132292fep-1", "0x0.0p+0", "0x1.ec7372fed1002p-1"),
    ("200x8", 7, 0): ("0x1.594e5c181170ep-1", "0x0.0p+0", "0x1.ee14a91599505p-1"),
    ("200x8", 7, 1): ("0x1.445decbe9d8bap-1", "0x0.0p+0", "0x1.ee15a5f8c7bb0p-1"),
    ("200x8", 1009, 0): ("0x1.4c71566fd2a2cp-1", "0x0.0p+0", "0x1.ec3c00e5794b5p-1"),
    ("200x8", 1009, 1): ("0x1.6af0b83f5075ap-1", "0x0.0p+0", "0x1.edf0a83010626p-1"),
}


class TestImpostorBlockDraw:
    """The block decode names exactly the pairs of the per-pair draw."""

    def test_reference_worlds(self, reference_world):
        seed, world = reference_world
        sizes = [len(rec.images) for rec in world.identities]
        starts, count = layout_starts(sizes), genuine_count(sizes)
        for k in range(len(world.embedders)):
            stream = impostor_stream(seed, k)
            rows = evaluation._impostor_rows_from_block(seeded_rng(stream), starts, count)
            assert rows is not None
            assert_same_rows(rows, evaluation._impostor_rows_one_by_one(
                seeded_rng(stream), starts, count))

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=2, max_size=30),
           seed=st.integers(0, 2**64 - 1) | st.sampled_from([0, 7, 1009]))
    def test_generated_layouts(self, sizes, seed):
        starts, count = layout_starts(sizes), max(1, genuine_count(sizes))
        ref = evaluation._impostor_rows_one_by_one(seeded_rng(seed), starts, count)
        block = evaluation._impostor_rows_from_block(seeded_rng(seed), starts, count)
        # A size-1 identity's image draw takes no word, so the block cannot
        # be decoded; otherwise a rejected word is the only way out, and at
        # most 30 values per draw make one about 1 in 10**8 per word.
        assert (block is not None) == (min(sizes) >= 2)
        if block is not None:
            assert_same_rows(block, ref)
        assert_same_rows(evaluation._impostor_rows(seeded_rng(seed), starts, count), ref)

    def test_generator_with_word(self):
        for index in (0, 1, 6, 77):
            rng = generator_with_word(0xDEADBEEF, index)
            words = rng.integers(0, 1 << 32, size=index + 1, dtype=np.uint32)
            assert words[index] == 0xDEADBEEF

    # Seven identities of three images: the draws in slots 0, 1, 3 and 4 are
    # over 6, 7, 3 and 3 values, and numpy rejects the word 0 for each.
    @pytest.mark.parametrize("slot", [0, 1, 3, 4])
    @pytest.mark.parametrize("pair", [0, 13])
    def test_rejected_word_falls_back(self, slot, pair):
        starts, count = layout_starts([3] * 7), 21
        assert evaluation._bounded(np.zeros(1, np.uint32), (6, 7, 2, 3, 3)[slot])[1]
        index = 5 * pair + slot
        block = evaluation._impostor_rows_from_block(
            generator_with_word(0, index), starts, count)
        assert block is None
        ref = evaluation._impostor_rows_one_by_one(
            generator_with_word(0, index), starts, count)
        assert_same_rows(evaluation._impostor_rows(
            generator_with_word(0, index), starts, count), ref)

    @pytest.mark.parametrize("word", [0, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF])
    def test_swap_draw_never_rejects(self, word):
        # 2**32 % 2 == 0: the shuffle's draw over two values takes any word.
        starts, count = layout_starts([3] * 7), 21
        assert not evaluation._bounded(np.array([word], np.uint32), 2)[1]
        block = evaluation._impostor_rows_from_block(
            generator_with_word(word, 5 * 13 + 2), starts, count)
        assert block is not None
        assert_same_rows(block, evaluation._impostor_rows_one_by_one(
            generator_with_word(word, 5 * 13 + 2), starts, count))

    @pytest.mark.parametrize("world, seed", [
        ("desk", 7), ("desk", 1009), ("200x8", 7), ("200x8", 1009)])
    def test_pinned_thresholds(self, world, seed):
        w = make_synthetic_world(WORLDS[world], seed)
        groups = [rec.images for rec in w.identities]
        for k, emb in enumerate(w.embedders):
            cal = calibration_set_from_images(groups, emb, seed=impostor_stream(seed, k))
            tau_f, eer = compute_eer_threshold(cal)
            assert (tau_f.hex(), eer.hex(), cal.tau_C.hex()) == \
                PINNED_THRESHOLDS[world, seed, k]
