import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from embinvert.core import (
    EmbeddingVector,
    ImageSample,
    LatentCode,
    TargetSpec,
    _norm,
    cosine_similarity,
    decide_match,
)
from embinvert.errors import DimensionMismatch, ZeroNormEmbedding


def vec(*vals):
    return EmbeddingVector(np.array(vals, dtype=float))


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        z = vec(0.3, -1.2, 4.0)
        assert cosine_similarity(z, z) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_is_minus_one(self):
        z = vec(0.3, -1.2, 4.0)
        neg = EmbeddingVector(-z.values)
        assert cosine_similarity(z, neg) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(vec(1.0, 0.0), vec(0.0, 1.0)) == 0.0

    def test_zero_norm_raises(self):
        with pytest.raises(ZeroNormEmbedding):
            cosine_similarity(vec(0.0, 0.0), vec(1.0, 0.0))
        with pytest.raises(ZeroNormEmbedding):
            cosine_similarity(vec(1.0, 0.0), vec(0.0, 0.0))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity(vec(1.0, 0.0), vec(1.0, 0.0, 0.0))

    @given(arrays(np.float64, 8, elements=st.floats(-10, 10)),
           arrays(np.float64, 8, elements=st.floats(-10, 10)))
    def test_symmetry(self, a, b):
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        va, vb = EmbeddingVector(a), EmbeddingVector(b)
        assert cosine_similarity(va, vb) == pytest.approx(
            cosine_similarity(vb, va), abs=1e-12)

    @given(arrays(np.float64, 6, elements=st.floats(-10, 10)),
           arrays(np.float64, 6, elements=st.floats(-10, 10)),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scale_invariance(self, a, b, c):
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        base = cosine_similarity(EmbeddingVector(a), EmbeddingVector(b))
        scaled = cosine_similarity(EmbeddingVector(c * a), EmbeddingVector(b))
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_result_clamped_to_valid_range(self):
        a = vec(1.0, 1.0, 1.0)
        assert -1.0 <= cosine_similarity(a, a) <= 1.0

    def test_overflow_gives_nan_not_minus_one(self):
        # The clamp lets NaN through, so the refiners' finiteness check
        # sees it instead of a similarity of -1.0.
        v = vec(1e200, 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(cosine_similarity(v, v))


def assert_norm_bits(v):
    """``_norm(v)`` is ``np.linalg.norm(v)`` to the last bit, NaN included."""
    ours, reference = np.float64(_norm(v)), np.linalg.norm(v)
    assert ours.tobytes() == reference.tobytes(), (ours, reference)


class TestNorm:
    # The refiners, the session's cosine and the synthetic embedder take
    # every norm through _norm; their answers stay the same only because
    # it equals np.linalg.norm bit for bit.

    def test_random_vectors_of_every_length_up_to_1024(self):
        rng = np.random.default_rng(20)
        for n in range(1, 1025):
            v = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            assert_norm_bits(v)

    def test_strided_and_reversed_views(self):
        # A strided dot sums in another order than a contiguous one.
        rng = np.random.default_rng(21)
        for n in (1, 2, 7, 64, 128, 513, 1024):
            base = rng.standard_normal(3 * n)
            for view in (base[::3], base[1::3], base[::-1][:n], base[:n][::-1]):
                assert_norm_bits(view)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 1024])
    def test_zeros(self, n):
        assert_norm_bits(np.zeros(n))
        assert_norm_bits(-np.zeros(n))
        assert _norm(np.zeros(n)) == 0.0

    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("n", [1, 3, 64, 1024])
    def test_inf_and_nan(self, special, n):
        v = np.random.default_rng(n).standard_normal(n)
        with np.errstate(invalid="ignore"):
            for at in {0, n // 2, n - 1}:
                w = v.copy()
                w[at] = special
                assert_norm_bits(w)
            assert_norm_bits(np.array([np.inf, np.nan] * n))

    @pytest.mark.parametrize("exponent", [-200, -160, -154, 154, 160, 200])
    def test_entries_near_the_ends_of_the_float_range(self, exponent):
        # Squares underflow to zero below 1e-162 and overflow above 1e154.
        rng = np.random.default_rng(exponent + 1000)
        with np.errstate(over="ignore", under="ignore"):
            for n in (1, 2, 64, 1024):
                assert_norm_bits(rng.standard_normal(n) * 10.0 ** exponent)
                assert_norm_bits(np.full(n, 10.0 ** exponent))

    def test_embedding_vector_norm(self):
        z = vec(3.0, -4.0, 12.0)
        assert z.norm == 13.0 and type(z.norm) is float


class TestDecideMatch:
    def test_boundary_equality_matches(self):
        assert decide_match(0.40, 0.40) is True

    def test_just_below_threshold(self):
        assert decide_match(0.39, 0.40) is False

    def test_clear_match_above_threshold(self):
        assert decide_match(0.50, 0.40) is True

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    def test_monotone_in_similarity(self, s1, s2, tau):
        lo, hi = min(s1, s2), max(s1, s2)
        if decide_match(lo, tau):
            assert decide_match(hi, tau)


class TestDomainTypes:
    def test_latent_code_holds_only_values(self):
        # Screening facts live on pool.PoolEntry, not on the latent.
        assert [f.name for f in dataclasses.fields(LatentCode)] == ["values"]
        code = LatentCode([1, 2, 3])
        assert code.values.dtype == np.float64 and len(code) == 3
        assert code == LatentCode(np.array([1.0, 2.0, 3.0]))
        assert code != LatentCode(np.array([1.0, 2.0, 4.0]))
        with pytest.raises(DimensionMismatch):
            LatentCode(np.zeros((2, 2)))

    def test_embedding_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EmbeddingVector(np.array([1.0, np.nan]))

    def test_embedding_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingVector(np.zeros((2, 2)))

    def test_image_requires_chw(self):
        with pytest.raises(DimensionMismatch):
            ImageSample(np.zeros((4, 4)))
        img = ImageSample(np.zeros((3, 4, 4)))
        assert img.shape == (3, 4, 4)
        assert img.flat().shape == (48,)

    @pytest.mark.parametrize("bad", [1.5, -1.5, np.nan, np.inf])
    def test_image_rejects_pixels_outside_the_range(self, bad):
        ImageSample(np.full((1, 2, 2), 1.0))
        ImageSample(np.full((1, 2, 2), -1.0))
        values = np.zeros((1, 2, 2))
        values[0, 1, 0] = bad
        with pytest.raises(ValueError, match="pixel values"):
            ImageSample(values)

    @pytest.mark.parametrize("bad", [1.5, -1.5, np.nan])
    @pytest.mark.parametrize("index", [0, 2])
    def test_image_stack_rejects_a_pixel_outside_the_range_in_any_slice(
            self, bad, index):
        values = np.zeros((3, 1, 2, 2))
        values[index, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="pixel values"):
            ImageSample.stack(values)
        with pytest.raises(ValueError, match="pixel values"):
            ImageSample.stack(values.astype(np.float32))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2, 2), (1, 1, 1, 2, 2)])
    def test_image_stack_requires_four_dimensions(self, shape):
        with pytest.raises(DimensionMismatch):
            ImageSample.stack(np.zeros(shape))

    def test_image_stack_slices_equal_single_samples(self):
        values = np.random.default_rng(0).uniform(-1, 1, (4, 3, 2, 2))
        samples = ImageSample.stack(values)
        assert samples == tuple(ImageSample(v) for v in values)
        assert all(s.values.base is values for s in samples)
        assert ImageSample.stack(np.zeros((0, 3, 2, 2))) == ()
        # A float32 stack gives float64 copies, one per slice.
        narrow = values.astype(np.float32)
        samples = ImageSample.stack(narrow)
        assert samples == tuple(ImageSample(v.astype(np.float64)) for v in narrow)
        assert all(s.values.dtype == np.float64 and s.values.flags.owndata
                   for s in samples)

    def test_target_spec_identity_is_optional_metadata(self):
        spec = TargetSpec(vec(1.0, 0.0), "model-a")
        assert spec.identity_id is None
        tagged = TargetSpec(vec(1.0, 0.0), "model-a", identity_id="id007")
        assert tagged == spec  # identity annotation is not part of equality
