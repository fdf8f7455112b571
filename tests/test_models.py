import copy
import time

import numpy as np
import pytest

from embinvert.core import EmbeddingVector, ImageSample, LatentCode, cosine_similarity
from embinvert.errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmbinvertError,
    GradientUnavailable,
    LedgerOverrun,
    ShapeMismatch,
    ZeroNormEmbedding,
)
from embinvert.evaluation import calibration_set_from_images, compute_eer_threshold
from embinvert.models import (
    AttackSession,
    EmbedderHandle,
    GeneratorHandle,
    QueryLedger,
    SyntheticDetector,
    SyntheticEmbedder,
    SyntheticGenerator,
    WorldConfig,
    make_synthetic_world,
)
from embinvert.pool import sample_latent

from conftest import DESK_SEED, forward, world_tau_F
from oracle_loss import loss_eval, loss_gradient


class TestSyntheticGenerator:
    def test_zero_latent_reproduces_bias_field(self, desk_world):
        g = desk_world.generator
        out = forward(g, LatentCode(np.zeros(g.d_lat)))
        expected = np.tanh(g.bias).reshape(g.output_shape)
        assert np.array_equal(out.values, expected)

    def test_deterministic(self, desk_world):
        g = desk_world.generator
        lat = sample_latent(g.d_lat, 123)
        a, b = forward(g, lat), forward(g, lat)
        assert a == b

    def test_output_shape_and_range(self, desk_world):
        g = desk_world.generator
        out = forward(g, sample_latent(g.d_lat, 5))
        assert out.shape == g.output_shape
        assert np.all(out.values > -1) and np.all(out.values < 1)

    def test_wrong_latent_length_rejected(self, desk_world):
        with pytest.raises(DimensionMismatch):
            forward(desk_world.generator, LatentCode(np.zeros(3)))


class TestSyntheticEmbedder:
    def test_unit_norm_output(self, desk_world):
        f = desk_world.embedders[0]
        img = desk_world.identities[0].images[0]
        assert forward(f, img).norm == pytest.approx(1.0, abs=1e-9)

    def test_wrong_shape_rejected(self, desk_world):
        with pytest.raises(ShapeMismatch):
            forward(desk_world.embedders[0], ImageSample(np.zeros((3, 4, 4))))

    def test_same_identity_pairs_pass_threshold(self, desk_world):
        f = desk_world.embedders[0]
        tau_F = world_tau_F(desk_world)[f.model_id]
        hits = total = 0
        for rec in desk_world.identities:
            embs = [forward(f, img) for img in rec.images]
            for a in range(len(embs)):
                for b in range(a + 1, len(embs)):
                    hits += cosine_similarity(embs[a], embs[b]) >= tau_F
                    total += 1
        assert hits / total >= 0.95

    def test_cross_identity_pairs_fail_threshold(self, desk_world):
        f = desk_world.embedders[0]
        tau_F = world_tau_F(desk_world)[f.model_id]
        rng = np.random.default_rng(99)
        hits = 0
        trials = 200
        for _ in range(trials):
            i, j = rng.choice(len(desk_world.identities), 2, replace=False)
            a = rng.integers(0, 4)
            b = rng.integers(0, 4)
            s = cosine_similarity(forward(f, desk_world.identities[i].images[a]),
                                  forward(f, desk_world.identities[j].images[b]))
            hits += s < tau_F
        assert hits / trials >= 0.95


def identity_image_stack(world):
    return np.stack([img.values for rec in world.identities for img in rec.images])


class TestEmbedBatch:
    def test_rows_equal_per_sample_embeds(self, desk_world):
        stack = identity_image_stack(desk_world)
        for f in desk_world.embedders:
            batch = f.embed_batch(stack)
            looped = np.stack([forward(f, ImageSample(img)).values for img in stack])
            assert batch.shape == (len(stack), f.d_emb)
            np.testing.assert_allclose(batch, looped, rtol=0, atol=1e-12)

    def test_wrong_image_shape_rejected(self, desk_world):
        f = desk_world.embedders[0]
        with pytest.raises(ShapeMismatch):
            f.embed_batch(np.zeros((2, 3, 4, 4)))
        with pytest.raises(ShapeMismatch):
            f.embed_batch(np.zeros(desk_world.config.image_shape))

    def test_zero_image_rejected(self, desk_world):
        f = desk_world.embedders[0]
        stack = identity_image_stack(desk_world)[:3].copy()
        stack[1] = 0.0
        with pytest.raises(ZeroNormEmbedding):
            f.embed_batch(stack)


class TestGenerateBatch:
    @pytest.mark.parametrize("B", [0, 1, 7])
    def test_rows_equal_generate_bit_for_bit(self, desk_world, B):
        g = desk_world.generator
        latents = np.random.default_rng(B).standard_normal((B, g.d_lat))
        batch = g.generate_batch(latents)
        assert batch.shape == (B,) + g.output_shape
        for row, x in zip(batch, latents):
            assert np.array_equal(row, g.generate_vjp(x)[0])

    def test_identity_latents_give_the_worlds_images(self, desk_world):
        # One gemv per row: a GEMM here would move the last bits, and the
        # thresholds with them.
        g = desk_world.generator
        latents = np.concatenate([rec.latents for rec in desk_world.identities])
        images = [img for rec in desk_world.identities for img in rec.images]
        batch = g.generate_batch(latents)
        for row, x, image in zip(batch, latents, images):
            assert np.array_equal(row, g.generate_vjp(x)[0])
            assert np.array_equal(row, image.values)

    @pytest.mark.parametrize("shape", [(64,), (2, 63), (1, 2, 64)])
    def test_wrong_latent_stack_rejected(self, desk_world, shape):
        with pytest.raises(DimensionMismatch):
            desk_world.generator.generate_batch(np.zeros(shape))


class TestSyntheticDetector:
    def test_identity_images_score_high(self, desk_world):
        d = desk_world.detector
        for rec in desk_world.identities:
            for img in rec.images:
                assert forward(d, img) >= 0.999

    @pytest.mark.parametrize("B", [0, 1, 7])
    def test_batch_scores_equal_batches_of_one(self, desk_world, B):
        d = desk_world.detector
        stack = identity_image_stack(desk_world)[:B]
        assert d.detect_batch(stack) == [d.detect_batch(img[None])[0] for img in stack]

    def test_zero_image_regression_value(self, desk_world):
        # Pinned on first run of the seed-7 world.
        zero = ImageSample(np.zeros(desk_world.config.image_shape))
        assert forward(desk_world.detector, zero) == pytest.approx(
            4.252928021431088e-24, rel=1e-9)

    def test_shape_mismatch_rejected(self, desk_world):
        with pytest.raises(ShapeMismatch):
            forward(desk_world.detector, ImageSample(np.zeros((1, 2, 2))))

    def test_input_shape_must_hold_the_template(self, desk_world):
        d = desk_world.detector
        with pytest.raises(ShapeMismatch):
            SyntheticDetector(d.template, d.offset, d.slope, input_shape=(3, 16, 15))
        # The same number of values in another shape is checked per image.
        flat = SyntheticDetector(d.template, d.offset, d.slope,
                                 input_shape=(1, 1, d.template.size))
        with pytest.raises(ShapeMismatch):
            forward(flat, desk_world.identities[0].images[0])

    def test_confidence_in_unit_interval(self, desk_world):
        g = desk_world.generator
        for seed in range(20):
            img = forward(g, sample_latent(g.d_lat, seed))
            assert 0.0 <= forward(desk_world.detector, img) <= 1.0


class TestLossEval:
    def test_source_latent_scores_one(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        lat = sample_latent(g.d_lat, 77)
        target = forward(f, forward(g, lat))
        assert loss_eval(g, f, lat, target) == pytest.approx(1.0, abs=1e-6)

    def test_random_latent_vs_random_target_is_uninformative(self):
        # Cosine noise scales like 1/sqrt(d_emb), so the 0.3 bound is checked
        # on a 128-dim embedder; at the default 32 dims the same experiment
        # sits near 92%, see the companion test below.
        world = make_synthetic_world(WorldConfig(embedder_dims=(128, 128)), DESK_SEED)
        g, f = world.generator, world.embedders[0]
        rng = np.random.default_rng(1234)
        low = 0
        trials = 1000
        for _ in range(trials):
            lat = LatentCode(rng.standard_normal(g.d_lat))
            raw = rng.standard_normal(f.d_emb)
            target = EmbeddingVector(raw / np.linalg.norm(raw))
            low += abs(loss_eval(g, f, lat, target)) < 0.3
        assert low / trials >= 0.99

    def test_random_similarity_is_centered_at_default_dims(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        rng = np.random.default_rng(1234)
        sims = []
        for _ in range(500):
            lat = LatentCode(rng.standard_normal(g.d_lat))
            raw = rng.standard_normal(f.d_emb)
            target = EmbeddingVector(raw / np.linalg.norm(raw))
            sims.append(loss_eval(g, f, lat, target))
        sims = np.array(sims)
        assert abs(np.mean(sims)) < 0.05
        assert np.mean(np.abs(sims) < 0.3) >= 0.85

    def test_dimension_mismatch_propagates(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        with pytest.raises(DimensionMismatch):
            loss_eval(g, f, LatentCode(np.zeros(5)), EmbeddingVector(np.ones(f.d_emb)))


class TestLossGradient:
    def test_matches_central_finite_differences(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        rng = np.random.default_rng(2024)
        h = 1e-4
        for trial in range(20):
            lat = LatentCode(rng.standard_normal(g.d_lat))
            raw = rng.standard_normal(f.d_emb)
            target = EmbeddingVector(raw / np.linalg.norm(raw))
            grad = loss_gradient(g, f, lat, target)
            fd = np.empty_like(grad)
            for i in range(g.d_lat):
                up = lat.values.copy()
                down = lat.values.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (loss_eval(g, f, LatentCode(up), target)
                         - loss_eval(g, f, LatentCode(down), target)) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4, f"trial {trial}: relative error {rel}"

    def test_vanishes_at_global_maximum(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        lat = sample_latent(g.d_lat, 31)
        target = forward(f, forward(g, lat))  # loss(lat) == 1, the global max
        assert np.linalg.norm(loss_gradient(g, f, lat, target)) < 1e-6

    def test_blackbox_session_refuses_gradients(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        session = AttackSession(g, f, QueryLedger(), allow_gradient=False)
        target = EmbeddingVector(np.ones(f.d_emb) / np.sqrt(f.d_emb))
        with pytest.raises(GradientUnavailable):
            session.value_and_grad(np.zeros(g.d_lat), target)


def random_target(rng, d_emb):
    raw = rng.standard_normal(d_emb)
    return EmbeddingVector(raw / np.linalg.norm(raw))


class PlainGenerator(GeneratorHandle):
    """A forward-only adapter: it implements only generate_batch."""

    def __init__(self, inner):
        self.inner = inner
        self.d_lat = inner.d_lat
        self.output_shape = inner.output_shape
        self.generator_id = inner.generator_id

    def generate_batch(self, latents):
        return self.inner.generate_batch(latents)


class PlainEmbedder(EmbedderHandle):
    """A forward-only adapter: it implements only embed_batch, one image at
    a time through its inner embedder's own single-image arithmetic."""

    def __init__(self, inner):
        self.inner = inner
        self.d_emb = inner.d_emb
        self.tau_F = inner.tau_F
        self.model_id = inner.model_id

    def embed_batch(self, images):
        return np.stack([forward(self.inner, image).values for image in images])


class NormalisingEmbedder(EmbedderHandle):
    """An adapter-shaped embedder with gradients: ``embed_batch`` returns the
    unnormalised features 3·W·img of its inner embedder's weight W, and
    ``embed_vjp`` normalises them inside itself and its pullback, as the
    README's adapter section asks of a model whose features are not unit-norm."""

    def __init__(self, inner):
        self.weight = inner.weight
        self.d_emb = inner.d_emb
        self.tau_F = inner.tau_F
        self.model_id = inner.model_id

    def embed_batch(self, images):
        return 3.0 * (images.reshape(len(images), -1) @ self.weight.T)

    def embed_vjp(self, image):
        raw = 3.0 * self.weight.dot(image.reshape(-1))
        norm = np.linalg.norm(raw)
        unit = raw / norm

        def pullback(cotangent):
            cot_raw = (cotangent - unit.dot(cotangent) * unit) / norm
            return 3.0 * self.weight.T.dot(cot_raw).reshape(image.shape)

        return unit, pullback


class TestValueAndGrad:
    def test_value_and_gradient_equal_the_references(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        session = AttackSession(g, f, QueryLedger(), allow_gradient=True)
        rng = np.random.default_rng(505)
        for trial in range(60):
            x = rng.standard_normal(g.d_lat) * (1 + trial % 4)
            target = random_target(rng, f.d_emb)
            s, grad_fn = session.value_and_grad(x, target)
            assert s == session.loss(x, target)
            assert s == loss_eval(g, f, LatentCode(x), target)
            assert np.array_equal(grad_fn(), loss_gradient(g, f, LatentCode(x), target))

    def test_unnormalised_target(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[1]
        session = AttackSession(g, f, QueryLedger(), allow_gradient=True)
        x = sample_latent(g.d_lat, 8)
        target = EmbeddingVector(np.arange(1.0, f.d_emb + 1.0))
        s, grad_fn = session.value_and_grad(x.values, target)
        assert s == loss_eval(g, f, x, target)
        assert np.array_equal(grad_fn(), loss_gradient(g, f, x, target))

    def test_forward_only_defaults_give_the_value_and_no_gradient(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        plain_g, plain_f = PlainGenerator(g), PlainEmbedder(f)
        fused = AttackSession(g, f, QueryLedger(), allow_gradient=True)
        ledger = QueryLedger()
        plain = AttackSession(plain_g, plain_f, ledger, allow_gradient=True)
        rng = np.random.default_rng(506)
        for _ in range(10):
            x = rng.standard_normal(g.d_lat)
            target = random_target(rng, f.d_emb)
            assert plain.loss(x, target) == fused.loss(x, target)
            charged = ledger.total
            with pytest.raises(GradientUnavailable):
                plain.value_and_grad(x, target)
            assert ledger.total == charged
        image, generator_pullback = plain_g.generate_vjp(x)
        embedding, embedder_pullback = plain_f.embed_vjp(image)
        assert np.array_equal(image, forward(g, LatentCode(x)).values)
        assert np.array_equal(embedding, forward(f, ImageSample(image)).values)
        with pytest.raises(GradientUnavailable, match=f.model_id):
            embedder_pullback(target.values)
        with pytest.raises(GradientUnavailable, match=g.generator_id):
            generator_pullback(image)
        with pytest.raises(GradientUnavailable):
            loss_gradient(plain_g, plain_f, LatentCode(x), target)

    def test_one_query_and_a_free_gradient(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        ledger = QueryLedger(q_max=1)
        session = AttackSession(g, f, ledger, allow_gradient=True)
        target = forward(f, desk_world.identities[0].images[0])
        _, grad_fn = session.value_and_grad(np.zeros(g.d_lat), target)
        assert (ledger.q_topn, ledger.q_adv) == (0, 1)
        grad_fn()
        grad_fn()
        assert ledger.total == 1
        with pytest.raises(LedgerOverrun):
            session.value_and_grad(np.zeros(g.d_lat), target)

    def test_blackbox_session_raises_before_charging(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        ledger = QueryLedger()
        session = AttackSession(g, f, ledger, allow_gradient=False)
        target = forward(f, desk_world.identities[0].images[0])
        with pytest.raises(GradientUnavailable):
            session.value_and_grad(np.zeros(g.d_lat), target)
        assert ledger.total == 0

    def test_handle_without_gradient_raises(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        session = AttackSession(g, PlainEmbedder(f), QueryLedger(),
                                allow_gradient=True)
        target = forward(f, desk_world.identities[0].images[0])
        with pytest.raises(GradientUnavailable):
            session.value_and_grad(np.zeros(g.d_lat), target)
        # The objective alone needs no gradient.
        assert session.loss(np.zeros(g.d_lat), target) == loss_eval(
            g, f, LatentCode(np.zeros(g.d_lat)), target)

    def test_gradients_follow_the_classes_vjps(self, desk_world):
        # Gradients need both classes to override their *_vjp; nothing
        # else declares them.
        g, f = desk_world.generator, desk_world.embedders[0]

        class VjpGenerator(PlainGenerator):
            def generate_vjp(self, latent_values):
                return self.inner.generate_vjp(latent_values)

        class VjpEmbedder(PlainEmbedder):
            def embed_vjp(self, image):
                return self.inner.embed_vjp(image)

        target = forward(f, desk_world.identities[0].images[0])
        x = sample_latent(g.d_lat, 9)
        for pair in ((PlainGenerator(g), VjpEmbedder(f)), (VjpGenerator(g), PlainEmbedder(f))):
            session = AttackSession(*pair, QueryLedger(), allow_gradient=True)
            with pytest.raises(GradientUnavailable):
                session.value_and_grad(x.values, target)
        session = AttackSession(VjpGenerator(g), VjpEmbedder(f), QueryLedger(),
                                allow_gradient=True)
        s, grad_fn = session.value_and_grad(x.values, target)
        assert s == loss_eval(g, f, x, target)
        assert np.array_equal(grad_fn(), loss_gradient(g, f, x, target))

    def test_zero_target_rejected(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        session = AttackSession(g, f, QueryLedger(), allow_gradient=True)
        with pytest.raises(ZeroNormEmbedding):
            session.value_and_grad(np.zeros(g.d_lat), EmbeddingVector(np.zeros(f.d_emb)))

    def test_boundary_checks_kept(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        session = AttackSession(g, f, QueryLedger(), allow_gradient=True)
        target = forward(f, desk_world.identities[0].images[0])
        with pytest.raises(DimensionMismatch):
            session.value_and_grad(np.zeros(5), target)
        with pytest.raises(DimensionMismatch):
            session.value_and_grad(np.zeros((2, g.d_lat)), target)
        with pytest.raises(DimensionMismatch):
            session.value_and_grad(np.zeros(g.d_lat), EmbeddingVector(np.ones(3)))
        with pytest.raises(ShapeMismatch):
            f.embed_vjp(np.zeros((3, 4, 4)))
        with pytest.raises(ZeroNormEmbedding):
            f.embed_vjp(np.zeros(desk_world.config.image_shape))
        nan_image = np.full(desk_world.config.image_shape, np.nan)
        # A NaN image embeds to NaN, and refinement rejects its similarity.
        assert np.isnan(f.embed_vjp(nan_image)[0]).all()
        with pytest.raises(ValueError, match=r"pixel values must lie in \[-1, 1\]"):
            ImageSample(nan_image)

    def test_one_forward_pass_per_evaluated_point(self, desk_world):
        from embinvert.refine import PerturbationBudget, refine_whitebox

        counts = {}

        def count(name):
            counts[name] = counts.get(name, 0) + 1

        def counted(pullback, name):
            def wrapped(cotangent):
                count(name)
                return pullback(cotangent)
            return wrapped

        class CountingGenerator(SyntheticGenerator):
            def generate_vjp(self, latent_values):
                count("generator forward")
                image, pullback = super().generate_vjp(latent_values)
                return image, counted(pullback, "generator backward")

        class CountingEmbedder(SyntheticEmbedder):
            def embed_vjp(self, image):
                count("embedder forward")
                embedding, pullback = super().embed_vjp(image)
                return embedding, counted(pullback, "embedder backward")

        g0, f0 = desk_world.generator, desk_world.embedders[0]
        g = CountingGenerator(g0.d_lat, g0.output_shape, np.random.SeedSequence([DESK_SEED, 0]))
        f = CountingEmbedder(f0.d_emb, f0.input_shape,
                             np.random.SeedSequence([DESK_SEED, 1, 0]), model_id="counted")
        assert np.array_equal(g.weight, g0.weight) and np.array_equal(f.weight, f0.weight)
        session = AttackSession(g, f, QueryLedger(), allow_gradient=True)
        target = forward(f0, desk_world.identities[2].images[1])
        r = refine_whitebox(sample_latent(g.d_lat, 40), target, session,
                            PerturbationBudget("l2", 35.0), t_max=50, tau_C=2.0)
        assert r.queries_used == 51 and r.iterations_used == 50
        # A backward pass runs for each of the first 50 points that set a new
        # best; a restart from the best point reuses its direction.
        values = (r.initial_similarity,) + r.trace
        new_bests = sum(v > max(values[:i], default=-np.inf)
                        for i, v in enumerate(values[:-1]))
        assert 0 < new_bests < 50
        assert counts == {
            "generator forward": 51, "embedder forward": 51,
            "generator backward": new_bests, "embedder backward": new_bests,
        }


class TestMakeSyntheticWorld:
    def test_identical_seeds_give_bit_equal_worlds(self):
        cfg = WorldConfig(n_identities=4, images_per_identity=3)
        w1 = make_synthetic_world(cfg, 3)
        w2 = make_synthetic_world(cfg, 3)
        assert np.array_equal(w1.generator.weight, w2.generator.weight)
        assert np.array_equal(w1.generator.bias, w2.generator.bias)
        for e1, e2 in zip(w1.embedders, w2.embedders):
            assert np.array_equal(e1.weight, e2.weight)
        assert world_tau_F(w1) == world_tau_F(w2)
        assert w1.detector.offset == w2.detector.offset
        for r1, r2 in zip(w1.identities, w2.identities):
            assert np.array_equal(r1.latents, r2.latents)
            assert all(a == b for a, b in zip(r1.images, r2.images))

    def test_different_seeds_differ(self):
        cfg = WorldConfig(n_identities=4, images_per_identity=3)
        w1 = make_synthetic_world(cfg, 3)
        w2 = make_synthetic_world(cfg, 4)
        assert not np.array_equal(w1.generator.weight, w2.generator.weight)

    def test_default_config_builds_quickly(self):
        start = time.perf_counter()
        make_synthetic_world(WorldConfig(), 17)
        assert time.perf_counter() - start < 10.0

    def test_world_build_calibrates_no_threshold(self, calibration_calls):
        world = make_synthetic_world(WorldConfig(), 7)
        assert [e.tau_F for e in world.embedders] == [None, None]
        assert calibration_calls == []

    def test_single_embedder_rejected(self):
        with pytest.raises(ConfigInvalid):
            make_synthetic_world(WorldConfig(embedder_dims=(32,)), 7)

    def test_eer_at_most_ten_percent(self, desk_world):
        for k, emb in enumerate(desk_world.embedders):
            cal = calibration_set_from_images(
                [rec.images for rec in desk_world.identities], emb,
                seed=[DESK_SEED, 4, k])
            _, eer = compute_eer_threshold(cal)
            assert eer <= 0.10

    def test_embedders_get_distinct_thresholds(self, desk_world):
        taus = set(world_tau_F(desk_world).values())
        assert len(taus) == len(desk_world.embedders)

    @pytest.mark.parametrize("dims, d_lat, shape", [
        ((128, 128), 64, (3, 16, 16)), ((32, 32, 7), 20, (1, 5, 3))])
    def test_weights_start_on_64_byte_boundaries(self, dims, d_lat, shape):
        # gemv runs up to 1.6x faster on them; the values are the seeded draw.
        world = make_synthetic_world(
            WorldConfig(d_lat=d_lat, image_shape=shape, embedder_dims=dims), 7)
        g = world.generator
        rng = np.random.default_rng(np.random.SeedSequence([7, 0]))
        assert np.array_equal(g.weight, rng.standard_normal(g.weight.shape)
                              / np.sqrt(d_lat))
        for w in [g.weight] + [e.weight for e in world.embedders]:
            assert w.ctypes.data % 64 == 0 and w.flags.c_contiguous

    def test_results_do_not_depend_on_weight_alignment(self, desk_world):
        # Forward and backward products keep their bits at every 16-byte
        # offset, so the alignment moves time only.
        g, f = desk_world.generator, desk_world.embedders[0]
        x = sample_latent(g.d_lat, 3).values
        rng = np.random.default_rng(5)
        v, c = rng.standard_normal(g.output_shape), rng.standard_normal(f.d_emb)
        latents = rng.standard_normal((9, g.d_lat))

        def outputs(gen, emb):
            image, g_pull = gen.generate_vjp(x)
            unit, f_pull = emb.embed_vjp(image)
            return [image, g_pull(v), unit, f_pull(c), gen.generate_batch(latents),
                    emb.embed_batch(gen.generate_batch(latents))]

        expected = outputs(g, f)
        for offset in (1, 2, 3):
            gen, emb = copy.copy(g), copy.copy(f)
            for handle in (gen, emb):
                buf = np.empty(handle.weight.size + 16)
                start = -buf.ctypes.data % 64 // 8 + offset * 2
                handle.weight = buf[start:start + handle.weight.size].reshape(
                    handle.weight.shape)
                handle.weight[...] = getattr(g if handle is gen else f, "weight")
                assert handle.weight.ctypes.data % 64 == 16 * offset
            for got, want in zip(outputs(gen, emb), expected):
                assert np.array_equal(got, want)


class TestQueryLedger:
    def test_accumulates_phases_separately(self):
        ledger = QueryLedger()
        ledger.charge_topn(100)
        ledger.charge_adv(3)
        ledger.charge_adv()
        assert (ledger.q_topn, ledger.q_adv, ledger.total) == (100, 4, 104)

    def test_budget_overrun_is_a_hard_error(self):
        ledger = QueryLedger(q_max=5)
        ledger.charge_topn(5)
        assert ledger.total == ledger.q_max
        with pytest.raises(RuntimeError):
            ledger.charge_adv(1)

    def test_overrun_is_a_framework_error(self):
        ledger = QueryLedger(q_max=5)
        with pytest.raises(LedgerOverrun) as info:
            ledger.charge_topn(6)
        assert isinstance(info.value, EmbinvertError)
        assert ledger.total == 0

    def test_session_loss_charges_one_query(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        ledger = QueryLedger()
        session = AttackSession(g, f, ledger, allow_gradient=True)
        target = forward(f, desk_world.identities[0].images[0])
        session.loss(np.zeros(g.d_lat), target)
        session.loss(np.zeros(g.d_lat), target)
        assert ledger.q_adv == 2 and ledger.q_topn == 0

    def test_session_gradient_is_not_charged(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        ledger = QueryLedger()
        session = AttackSession(g, f, ledger, allow_gradient=True)
        target = forward(f, desk_world.identities[0].images[0])
        _, grad_fn = session.value_and_grad(np.zeros(g.d_lat), target)
        assert ledger.total == 1
        grad_fn()
        assert ledger.total == 1
