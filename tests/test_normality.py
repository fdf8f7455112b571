import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embinvert import pool as pool_module
from embinvert.errors import DegenerateSample, PoolExhausted, SampleTooSmall
from embinvert.normality import (
    k2_pvalues,
    k2_test,
    kurtosis_transform,
    skewness_transform,
)
from embinvert.pool import build_pool, sample_latent

from oracle_normality import oracle_k2, oracle_kurt_z, oracle_skew_z

# Expected values below were produced by the extended-precision oracle in
# oracle_normality.py and frozen; the oracle itself is also run live against
# the implementation in the acceptance suite.


class TestSkewnessTransform:
    def test_symmetric_sample_gives_zero(self):
        x = np.concatenate([np.arange(1, 50.0), -np.arange(1, 50.0)])
        assert skewness_transform(x) == 0.0

    def test_matches_oracle_on_seeded_normal(self):
        x = np.random.default_rng(42).standard_normal(4096)
        assert skewness_transform(x) == pytest.approx(0.110043265225656, abs=1e-9)

    def test_exponential_sample_is_strongly_skewed(self):
        x = np.random.default_rng(43).exponential(1.0, 4096)
        z = skewness_transform(x)
        assert z == pytest.approx(31.678370752119655, abs=1e-9)
        assert z > 3

    def test_small_sample_rejected(self):
        with pytest.raises(SampleTooSmall):
            skewness_transform(np.arange(7.0))

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSample):
            skewness_transform(np.ones(64))


class TestKurtosisTransform:
    def test_matches_oracle_on_seeded_normal(self):
        x = np.random.default_rng(42).standard_normal(4096)
        assert kurtosis_transform(x) == pytest.approx(-0.018021460711006573, abs=1e-9)

    def test_uniform_sample_is_platykurtic(self):
        x = np.random.default_rng(44).uniform(-1, 1, 8192)
        z = kurtosis_transform(x)
        assert z == pytest.approx(-88.40212228318, abs=1e-9)
        assert z < -3

    def test_small_sample_rejected(self):
        with pytest.raises(SampleTooSmall):
            kurtosis_transform(np.arange(19.0))

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSample):
            kurtosis_transform(np.full(64, 2.5))


class TestK2Test:
    def test_combines_transforms_and_closed_form_tail(self):
        x = np.random.default_rng(42).standard_normal(4096)
        res = k2_test(x)
        assert res.k2 == pytest.approx(res.z_skew ** 2 + res.z_kurt ** 2, abs=1e-12)
        assert res.p_value == pytest.approx(np.exp(-res.k2 / 2), abs=1e-15)
        assert res.p_value == pytest.approx(0.9938021398326629, abs=1e-9)

    def test_full_latent_size_sample_matches_oracle(self):
        x = np.random.default_rng(45).standard_normal(196608)
        res = k2_test(x)
        assert res.z_skew == pytest.approx(0.19484613401798145, abs=1e-9)
        assert res.z_kurt == pytest.approx(0.1920019571573418, abs=1e-9)
        assert res.p_value == pytest.approx(0.9632764047097304, abs=1e-9)

    def test_injected_outlier_is_detected(self):
        x = np.random.default_rng(46).standard_normal(4096)
        x[0] = 50.0
        assert k2_test(x).p_value < 1e-10

    def test_mesokurtic_quantile_construction_passes(self):
        from scipy.stats import norm
        x = norm.ppf((np.arange(4096) + 0.5) / 4096)
        res = k2_test(x)
        assert abs(res.z_skew) < 1e-9  # symmetric construction
        assert res.p_value > 0.5

    def test_deterministic_for_a_given_sample(self):
        x = np.random.default_rng(5).standard_normal(512)
        assert k2_test(x) == k2_test(x)

    def test_flattens_multidimensional_input(self):
        x = np.random.default_rng(5).standard_normal((3, 16, 16))
        assert k2_test(x) == k2_test(x.reshape(-1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000),
           st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=-50.0, max_value=50.0))
    def test_affine_invariance(self, seed, scale, shift):
        x = np.random.default_rng(seed).standard_normal(256)
        base = k2_test(x)
        mapped = k2_test(scale * x + shift)
        assert mapped.z_skew == pytest.approx(base.z_skew, abs=1e-9)
        assert mapped.z_kurt == pytest.approx(base.z_kurt, abs=1e-9)
        assert mapped.p_value == pytest.approx(base.p_value, abs=1e-9)

    def test_negative_scale_flips_skew_only(self):
        x = np.random.default_rng(11).standard_normal(256)
        base, flipped = k2_test(x), k2_test(-x)
        assert flipped.z_skew == pytest.approx(-base.z_skew, abs=1e-12)
        assert flipped.p_value == pytest.approx(base.p_value, abs=1e-12)


class TestAgainstOracleSweep:
    def test_implementation_tracks_oracle_across_distributions(self):
        rng_seeds = range(100, 110)
        for seed in rng_seeds:
            rng = np.random.default_rng(seed)
            for sample in (rng.standard_normal(64),
                           rng.exponential(1.0, 256),
                           rng.uniform(-1, 1, 256)):
                res = k2_test(sample)
                zs = oracle_skew_z(sample)
                zk = oracle_kurt_z(sample)
                _, _, k2, p = oracle_k2(sample)
                assert res.z_skew == pytest.approx(zs, abs=1e-9)
                assert res.z_kurt == pytest.approx(zk, abs=1e-9)
                assert res.p_value == pytest.approx(p, abs=1e-9)


class TestK2PValues:
    # Rows per sample size; the sizes straddle the n >= 20 kurtosis floor
    # and the pairwise-summation block of numpy's reductions.
    SIZES = {20: 25_000, 21: 25_000, 64: 25_000, 129: 12_000, 512: 8_000,
             1000: 4_000, 4096: 1_500}

    def test_equals_k2_test_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        total = 0
        for n, count in self.SIZES.items():
            third = count // 3
            batches = (
                # what sample_latent draws: normals rounded to float32
                rng.standard_normal((count - 2 * third, n))
                .astype(np.float32).astype(np.float64),
                rng.standard_normal((third, n)),
                rng.exponential(1.0, (third, n)),
            )
            for rows in batches:
                p = k2_pvalues(rows)
                expected = np.array([k2_test(row).p_value for row in rows])
                mismatched = np.flatnonzero(p != expected)
                assert mismatched.size == 0, (n, mismatched[:5])
                total += len(rows)
        assert total >= 100_000

    def test_p_values_pinned_to_the_last_bit(self):
        # Frozen p-values of four pool latents, recorded with numpy's
        # AVX-512 loops.  Stored p_K values, and so pool bytes, move only by
        # a declared change to the arithmetic.  Their last bits also follow
        # numpy's SIMD dispatch: with NPY_DISABLE_CPU_FEATURES="X86_V4
        # AVX512_ICL AVX512_SPR" this pin fails.
        pinned = {151: "0x1.44c9a177c0670p-2", 186: "0x1.d43f6a34dc79ap-1",
                  212: "0x1.6c1f9ad2fa6a2p-2", 246: "0x1.b5ca44692be0ep-3"}
        rows = np.stack([sample_latent(64, seed).values for seed in pinned])
        expected = [float.fromhex(h) for h in pinned.values()]
        assert k2_pvalues(rows).tolist() == expected
        assert [k2_test(row).p_value for row in rows] == expected

    @pytest.mark.parametrize("n, floor", [
        (19, "kurtosis_transform requires n >= 20"),
        (7, "skewness_transform requires n >= 8"),
    ])
    def test_rows_below_the_floors_rejected(self, n, floor):
        rows = np.random.default_rng(3).standard_normal((5, n))
        with pytest.raises(SampleTooSmall, match=floor):
            k2_pvalues(rows)

    def test_any_constant_row_rejected(self):
        rows = np.random.default_rng(3).standard_normal((5, 64))
        rows[2] = 1.5
        with pytest.raises(DegenerateSample):
            k2_pvalues(rows)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            k2_pvalues(np.random.default_rng(3).standard_normal(64))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf rows
    def test_non_finite_and_two_point_rows_never_accepted(self):
        rng = np.random.default_rng(9)
        rows = np.concatenate([
            rng.standard_normal((2, 64)),
            # two-point rows: the lowest kurtosis, a negative denominator
            np.where(rng.random((500, 64)) < 0.5, -1.0, 1.0)
            + 1e-3 * rng.standard_normal((500, 64)),
        ])
        rows[0, 3] = np.inf
        rows[1, 0] = 1e300
        p = k2_pvalues(rows)
        # NaN passes no threshold, 0 included; the two-point rows none
        # above 1e-3.
        assert np.isnan(p[:2]).all()
        assert p[2:].max() < 1e-3


class TestK2Screen:
    """The K² screen as build_pool runs it on each drawn chunk: the rows
    with k2_pvalues(chunk) >= tau_K go on, each stored with that p, and a
    chunk k2_pvalues rejects stops the build."""

    TAUS = (0.0, 0.5, 0.9, 0.999, 1.0)

    @staticmethod
    def build_from(draw, monkeypatch, world, V, tau_K=0.5, max_draw_factor=1):
        monkeypatch.setattr(pool_module, "_draw_block", draw)
        return build_pool(world.generator, world.detector, V=V, tau_K=tau_K,
                          tau_D=0.0, build_seed=0,
                          max_draw_factor=max_draw_factor)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf rows
    @pytest.mark.parametrize("tau", TAUS)
    def test_equals_k2_pvalues_on_non_normal_rows(self, tau, desk_world,
                                                  monkeypatch):
        rng = np.random.default_rng(9)
        shape = (500, desk_world.generator.d_lat)
        rows = np.concatenate([
            rng.exponential(1.0, shape),
            rng.standard_cauchy(shape),
            rng.uniform(-1.0, 1.0, shape),
            # two-point rows: the lowest kurtosis, a negative denominator
            np.where(rng.random(shape) < 0.5, -1.0, 1.0)
            + 1e-3 * rng.standard_normal(shape),
        ])
        rows[0, 3] = np.inf
        rows[1, 0] = 1e300
        p = k2_pvalues(rows)
        expected = np.flatnonzero(p >= tau)
        assert not {0, 1} & set(expected.tolist())
        draws = []

        def draw(d_lat, first_seed, count):
            # Candidate i is rows[i]; every build below ends in one chunk.
            draws.append(first_seed)
            return rows[first_seed:first_seed + count].copy()

        if expected.size == 0:
            with pytest.raises(PoolExhausted, match="accepted only 0 of 1"):
                self.build_from(draw, monkeypatch, desk_world, V=1, tau_K=tau,
                                max_draw_factor=len(rows))
        else:
            pool = self.build_from(
                draw, monkeypatch, desk_world, V=expected.size, tau_K=tau,
                max_draw_factor=-(-len(rows) // expected.size))
            assert [e.seed for e in pool.entries] == expected.tolist()
            assert [e.p_K for e in pool.entries] == p[expected].tolist()
            for e in pool.entries:
                assert e.latent.values.tobytes() == rows[e.seed].tobytes()
        assert draws == [0]

    @pytest.mark.parametrize("n, floor", [
        (19, "kurtosis_transform requires n >= 20"),
        (7, "skewness_transform requires n >= 8"),
    ])
    def test_rows_below_the_floors_rejected(self, n, floor):
        # The screen raises before the generator or detector is called.
        generator = types.SimpleNamespace(d_lat=n, generator_id="stub")
        with pytest.raises(SampleTooSmall, match=floor):
            build_pool(generator, None, V=5, tau_K=0.5, tau_D=0.0,
                       build_seed=3)

    def test_any_constant_row_rejected(self, desk_world, monkeypatch):
        rows = np.random.default_rng(3).standard_normal(
            (5, desk_world.generator.d_lat))
        rows[2] = 1.5
        with pytest.raises(DegenerateSample, match="zero-variance"):
            self.build_from(lambda d_lat, first_seed, count: rows,
                            monkeypatch, desk_world, V=5)

    def test_one_dimensional_input_rejected(self, desk_world, monkeypatch):
        # A one-candidate chunk squeezed to 1-D is not screened as one
        # flattened sample.
        real_draw = pool_module._draw_block
        with pytest.raises(ValueError, match="2-D"):
            self.build_from(
                lambda d_lat, first_seed, count:
                    real_draw(d_lat, first_seed, count).reshape(-1),
                monkeypatch, desk_world, V=1)
