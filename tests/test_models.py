import sys
import time
from concurrent.futures import ThreadPoolExecutor

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
    SyntheticEmbedder,
    SyntheticGenerator,
    WorldConfig,
    loss_eval,
    loss_gradient,
    make_synthetic_world,
)
from embinvert.pool import sample_latent

from conftest import DESK_SEED


class TestSyntheticGenerator:
    def test_zero_latent_reproduces_bias_field(self, desk_world):
        g = desk_world.generator
        out = g.generate(LatentCode(np.zeros(g.d_lat)))
        expected = np.tanh(g.bias).reshape(g.output_shape)
        assert np.array_equal(out.values, expected)

    def test_deterministic(self, desk_world):
        g = desk_world.generator
        lat = sample_latent(g.d_lat, 123)
        a, b = g.generate(lat), g.generate(lat)
        assert a == b

    def test_output_shape_and_range(self, desk_world):
        g = desk_world.generator
        out = g.generate(sample_latent(g.d_lat, 5))
        assert out.shape == g.output_shape
        assert np.all(out.values > -1) and np.all(out.values < 1)

    def test_wrong_latent_length_rejected(self, desk_world):
        with pytest.raises(DimensionMismatch):
            desk_world.generator.generate(LatentCode(np.zeros(3)))


class TestSyntheticEmbedder:
    def test_unit_norm_output(self, desk_world):
        f = desk_world.embedders[0]
        img = desk_world.identities[0].images[0]
        assert f.embed(img).norm == pytest.approx(1.0, abs=1e-9)

    def test_wrong_shape_rejected(self, desk_world):
        with pytest.raises(ShapeMismatch):
            desk_world.embedders[0].embed(ImageSample(np.zeros((3, 4, 4))))

    def test_same_identity_pairs_pass_threshold(self, desk_world):
        f = desk_world.embedders[0]
        hits = total = 0
        for rec in desk_world.identities:
            embs = [f.embed(img) for img in rec.images]
            for a in range(len(embs)):
                for b in range(a + 1, len(embs)):
                    hits += cosine_similarity(embs[a], embs[b]) >= f.tau_F
                    total += 1
        assert hits / total >= 0.95

    def test_cross_identity_pairs_fail_threshold(self, desk_world):
        f = desk_world.embedders[0]
        rng = np.random.default_rng(99)
        hits = 0
        trials = 200
        for _ in range(trials):
            i, j = rng.choice(len(desk_world.identities), 2, replace=False)
            a = rng.integers(0, 4)
            b = rng.integers(0, 4)
            s = cosine_similarity(f.embed(desk_world.identities[i].images[a]),
                                  f.embed(desk_world.identities[j].images[b]))
            hits += s < f.tau_F
        assert hits / trials >= 0.95


def identity_image_stack(world):
    return np.stack([img.values for rec in world.identities for img in rec.images])


class TestEmbedBatch:
    def test_rows_equal_per_sample_embeds(self, desk_world):
        stack = identity_image_stack(desk_world)
        for f in desk_world.embedders:
            batch = f.embed_batch(stack)
            looped = np.stack([f.embed(ImageSample(img)).values for img in stack])
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

    def test_default_calls_embed_once_per_image(self, desk_world):
        inner = desk_world.embedders[0]

        class EmbedOnly(EmbedderHandle):
            d_emb = inner.d_emb
            calls = 0

            def embed(self, image):
                self.calls += 1
                return inner.embed(image)

        stack = identity_image_stack(desk_world)[:5]
        f = EmbedOnly()
        out = f.embed_batch(stack)
        assert f.calls == len(stack)
        assert np.array_equal(
            out, np.stack([inner.embed(ImageSample(img)).values for img in stack]))


class TestSyntheticDetector:
    def test_identity_images_score_high(self, desk_world):
        d = desk_world.detector
        for rec in desk_world.identities:
            for img in rec.images:
                assert d.detect(img) >= 0.999

    def test_zero_image_regression_value(self, desk_world):
        # Pinned on first run of the seed-7 world.
        zero = ImageSample(np.zeros(desk_world.config.image_shape))
        assert desk_world.detector.detect(zero) == pytest.approx(
            4.252928021431088e-24, rel=1e-9)

    def test_shape_mismatch_rejected(self, desk_world):
        with pytest.raises(ShapeMismatch):
            desk_world.detector.detect(ImageSample(np.zeros((1, 2, 2))))

    def test_confidence_in_unit_interval(self, desk_world):
        g = desk_world.generator
        for seed in range(20):
            img = g.generate(sample_latent(g.d_lat, seed))
            assert 0.0 <= desk_world.detector.detect(img) <= 1.0


class TestLossEval:
    def test_source_latent_scores_one(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        lat = sample_latent(g.d_lat, 77)
        target = f.embed(g.generate(lat))
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
        target = f.embed(g.generate(lat))  # loss(lat) == 1, the global max
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
    """An adapter that implements only generate and vjp."""

    def __init__(self, inner):
        self.inner = inner
        self.d_lat = inner.d_lat
        self.output_shape = inner.output_shape
        self.supports_gradient = True
        self.generator_id = "plain-generator"

    def generate(self, latent):
        return self.inner.generate(latent)

    def vjp(self, latent_values, image_cotangent):
        return self.inner.vjp(latent_values, image_cotangent)


class PlainEmbedder(EmbedderHandle):
    """An adapter that implements only embed and vjp."""

    def __init__(self, inner, supports_gradient=True):
        self.inner = inner
        self.d_emb = inner.d_emb
        self.tau_F = inner.tau_F
        self.supports_gradient = supports_gradient
        self.model_id = "plain-embedder"

    def embed(self, image):
        return self.inner.embed(image)

    def vjp(self, image, embedding_cotangent):
        return self.inner.vjp(image, embedding_cotangent)


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

    def test_base_class_defaults_match_the_overrides(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        fused = AttackSession(g, f, QueryLedger(), allow_gradient=True)
        plain = AttackSession(PlainGenerator(g), PlainEmbedder(f), QueryLedger(),
                              allow_gradient=True)
        rng = np.random.default_rng(506)
        for _ in range(10):
            x = rng.standard_normal(g.d_lat)
            target = random_target(rng, f.d_emb)
            s, grad_fn = fused.value_and_grad(x, target)
            s_plain, grad_fn_plain = plain.value_and_grad(x, target)
            assert s == s_plain
            assert np.array_equal(grad_fn(), grad_fn_plain())

    def test_one_query_and_a_free_gradient(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        ledger = QueryLedger(q_max=1)
        session = AttackSession(g, f, ledger, allow_gradient=True)
        target = f.embed(desk_world.identities[0].images[0])
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
        target = f.embed(desk_world.identities[0].images[0])
        with pytest.raises(GradientUnavailable):
            session.value_and_grad(np.zeros(g.d_lat), target)
        assert ledger.total == 0

    def test_handle_without_gradient_raises(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        session = AttackSession(g, PlainEmbedder(f, supports_gradient=False),
                                QueryLedger(), allow_gradient=True)
        target = f.embed(desk_world.identities[0].images[0])
        with pytest.raises(GradientUnavailable):
            session.value_and_grad(np.zeros(g.d_lat), target)
        # The objective alone needs no gradient.
        assert session.loss(np.zeros(g.d_lat), target) == loss_eval(
            g, f, LatentCode(np.zeros(g.d_lat)), target)

    def test_zero_target_rejected(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        session = AttackSession(g, f, QueryLedger(), allow_gradient=True)
        with pytest.raises(ZeroNormEmbedding):
            session.value_and_grad(np.zeros(g.d_lat), EmbeddingVector(np.zeros(f.d_emb)))

    def test_boundary_checks_kept(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        session = AttackSession(g, f, QueryLedger(), allow_gradient=True)
        target = f.embed(desk_world.identities[0].images[0])
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
        with pytest.raises(ValueError, match="finite"):
            f.embed_vjp(nan_image)
        with pytest.raises(ValueError, match="finite"):
            f.embed(ImageSample(nan_image))

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
            def generate(self, latent):
                count("generate")
                return super().generate(latent)

            def vjp(self, latent_values, image_cotangent):
                count("generator vjp")
                return super().vjp(latent_values, image_cotangent)

            def generate_vjp(self, latent_values):
                count("generator forward")
                image, pullback = super().generate_vjp(latent_values)
                return image, counted(pullback, "generator backward")

        class CountingEmbedder(SyntheticEmbedder):
            def embed(self, image):
                count("embed")
                return super().embed(image)

            def vjp(self, image, embedding_cotangent):
                count("embedder vjp")
                return super().vjp(image, embedding_cotangent)

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
        target = f0.embed(desk_world.identities[2].images[1])
        r = refine_whitebox(sample_latent(g.d_lat, 40), target, session,
                            PerturbationBudget("l2", 35.0), t_max=50, tau_C=2.0)
        assert r.queries_used == 51 and r.iterations_used == 50
        assert counts == {
            "generator forward": 51, "embedder forward": 51,
            "generator backward": 50, "embedder backward": 50,
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
            assert e1.tau_F == e2.tau_F
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
        taus = {e.tau_F for e in desk_world.embedders}
        assert len(taus) == len(desk_world.embedders)


class TestLazyTauF:
    @pytest.mark.parametrize("seed", [7, 19, 1009])
    def test_equals_a_direct_calibration(self, seed):
        world = make_synthetic_world(WorldConfig(), seed)
        groups = [rec.images for rec in world.identities]
        for k, emb in enumerate(world.embedders):
            direct, _eer = compute_eer_threshold(
                calibration_set_from_images(groups, emb, seed=[seed, 4, k]))
            assert emb.tau_F == direct

    def test_world_build_does_not_calibrate(self, calibration_calls):
        make_synthetic_world(WorldConfig(), 7)
        assert calibration_calls == []

    def test_two_reads_calibrate_once(self, calibration_calls):
        emb = make_synthetic_world(WorldConfig(), 7).embedders[1]
        first = emb.tau_F
        assert emb.tau_F == first
        assert calibration_calls == [emb.model_id]

    def test_concurrent_first_reads_agree(self):
        seed = 19
        direct = make_synthetic_world(WorldConfig(), seed).embedders[0].tau_F
        emb = make_synthetic_world(WorldConfig(), seed).embedders[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: emb.tau_F) for _ in range(8)]
                reads = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert reads == [direct] * 8
        assert emb.tau_F == direct

    def test_assignment_before_reading_never_calibrates(self, calibration_calls):
        emb = make_synthetic_world(WorldConfig(), 7).embedders[0]
        emb.tau_F = 0.25
        assert emb.tau_F == 0.25
        assert calibration_calls == []

    def test_single_image_identities_read_none(self, calibration_calls):
        world = make_synthetic_world(WorldConfig(images_per_identity=1), 7)
        assert [e.tau_F for e in world.embedders] == [None, None]
        assert calibration_calls == []


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
        assert ledger.remaining() == 0
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
        target = f.embed(desk_world.identities[0].images[0])
        session.loss(np.zeros(g.d_lat), target)
        session.loss(np.zeros(g.d_lat), target)
        assert ledger.q_adv == 2 and ledger.q_topn == 0

    def test_session_gradient_is_not_charged(self, desk_world):
        g, f = desk_world.generator, desk_world.embedders[0]
        ledger = QueryLedger()
        session = AttackSession(g, f, ledger, allow_gradient=True)
        target = f.embed(desk_world.identities[0].images[0])
        _, grad_fn = session.value_and_grad(np.zeros(g.d_lat), target)
        assert ledger.total == 1
        grad_fn()
        assert ledger.total == 1
