import dataclasses
import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embinvert.core import ImageSample, LatentCode
from embinvert.errors import (
    ChecksumMismatch,
    ConfigInvalid,
    DimensionMismatch,
    FormatVersionMismatch,
    IoFailure,
    PoolExhausted,
    SampleTooSmall,
    ShapeMismatch,
    ZeroNormEmbedding,
)
from embinvert import pool as pool_module
from embinvert.models import (
    DetectorHandle,
    EmbedderHandle,
    GeneratorHandle,
    SyntheticGenerator,
)
from embinvert.normality import k2_pvalues, k2_test
from embinvert.pool import (
    LatentPool,
    PoolEntry,
    build_pool,
    load_pool,
    sample_latent,
    save_pool,
)

from conftest import forward


class TestSampleLatent:
    def test_same_seed_is_identical(self):
        assert sample_latent(64, 5) == sample_latent(64, 5)

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample_latent(64, 5).values,
                                  sample_latent(64, 6).values)

    def test_moments_track_standard_normal(self):
        means, variances = [], []
        for seed in range(10_000):
            v = sample_latent(4096, seed).values
            means.append(v.mean())
            variances.append(v.var())
        assert abs(np.mean(means)) < 0.05
        assert abs(np.mean(variances) - 1.0) < 0.05

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            sample_latent(0, 1)

    def test_values_are_float32_representable(self):
        v = sample_latent(128, 9).values
        assert np.array_equal(v, v.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 - 1, 2**63,
                                      2**64 - 1])
    def test_equals_default_rng_across_the_seed_range(self, seed):
        assert np.array_equal(sample_latent(64, seed).values,
                              default_rng_latent(64, seed))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            sample_latent(64, seed)


def default_rng_latent(d_lat, seed):
    """The per-candidate stream the pool has always drawn from."""
    return (np.random.default_rng(seed).standard_normal(d_lat)
            .astype(np.float32).astype(np.float64))


class TestDrawBlock:
    """The chunk draw of build_pool is the per-seed stream, row for row."""

    @pytest.mark.parametrize("d_lat", [20, 64])
    @pytest.mark.parametrize("first_seed", [
        0,                     # seeds 0..4095
        2**32 - 2048,          # a chunk that crosses 2**32
        2**63 - 4096,          # the last seeds below 2**63
        2**64 - 4096,          # the top of the range, up to 2**64 - 1
    ])
    def test_rows_equal_default_rng_per_seed(self, d_lat, first_seed):
        block = pool_module._draw_block(d_lat, first_seed, 4096)
        assert block.shape == (4096, d_lat)
        for i, row in enumerate(block):
            assert np.array_equal(row, default_rng_latent(d_lat, first_seed + i)), i

    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(1, 6), d_lat=st.sampled_from([20, 64]),
           data=st.data())
    def test_any_block_equals_default_rng_per_seed(self, count, d_lat, data):
        first_seed = data.draw(st.integers(0, 2**64 - count), label="first_seed")
        block = pool_module._draw_block(d_lat, first_seed, count)
        assert block.shape == (count, d_lat)
        for i, row in enumerate(block):
            assert np.array_equal(row, default_rng_latent(d_lat, first_seed + i)), i

    def test_one_row_block_is_sample_latent(self):
        assert np.array_equal(pool_module._draw_block(64, 9, 1)[0],
                              sample_latent(64, 9).values)


class TestPoolEntry:
    @staticmethod
    def entry(**scores):
        fields = dict(seed=9, p_K=0.5, p_D=0.5)
        fields.update(scores)
        return PoolEntry(LatentCode(np.arange(4.0)),
                         ImageSample(np.zeros((1, 2, 2))), **fields)

    def test_validates_screening_probabilities(self):
        for name in ("p_K", "p_D"):
            for value in (1.5, -0.1, 1.0000001, float("nan")):
                with pytest.raises(ValueError, match=f"{name} must be in"):
                    self.entry(**{name: value})

    def test_scores_at_the_bounds_accepted(self):
        for value in (0.0, 1.0):
            entry = self.entry(p_K=value, p_D=value)
            assert (entry.seed, entry.p_K, entry.p_D) == (9, value, value)


class TestScreenNormality:
    """The normality screen as build_pool runs it: k2_pvalues per chunk."""

    def test_outlier_code_rejected_at_paper_threshold(self, desk_world,
                                                      monkeypatch):
        outlier = np.random.default_rng(46).standard_normal(desk_world.generator.d_lat)
        outlier[0] = 50.0
        assert k2_test(outlier).p_value < 1e-10
        # The outlier replaces the first candidate the build would accept.
        first = build_pool(desk_world.generator, desk_world.detector, V=1,
                           tau_K=0.999, tau_D=0.0,
                           build_seed=0).entries[0].seed
        real_draw = pool_module._draw_block
        injected = []

        def draw(d_lat, first_seed, count):
            block = real_draw(d_lat, first_seed, count)
            if first_seed <= first < first_seed + count:
                block[first - first_seed] = outlier
                injected.append(first)
            return block

        monkeypatch.setattr(pool_module, "_draw_block", draw)
        pool = build_pool(desk_world.generator, desk_world.detector, V=1,
                          tau_K=0.999, tau_D=0.0, build_seed=0)
        assert injected == [first]
        assert pool.entries[0].seed > first

    def test_candidate_accepted_at_its_own_p_only(self, desk_world):
        # The screen compares the stored p itself with tau_K: a candidate
        # passes at its own p_K and fails one ulp above it.
        for seed in (5, 186):
            latent = sample_latent(desk_world.generator.d_lat, seed)
            p_K = k2_test(latent.values).p_value
            at = build_pool(desk_world.generator, desk_world.detector, V=1,
                            tau_K=p_K, tau_D=0.0, build_seed=seed)
            assert [(e.seed, e.p_K) for e in at.entries] == [(seed, p_K)]
            above = build_pool(desk_world.generator, desk_world.detector, V=1,
                               tau_K=np.nextafter(p_K, 2.0), tau_D=0.0,
                               build_seed=seed)
            assert above.entries[0].seed > seed

    def test_zero_threshold_accepts_everything(self, desk_world):
        pool = build_pool(desk_world.generator, desk_world.detector, V=10,
                          tau_K=0.0, tau_D=0.0, build_seed=0)
        assert pool.stats.normality_accepted == pool.stats.drawn == 10

    def test_null_acceptance_rate_near_tail_mass(self):
        accepted = 0
        for start in range(0, 4000, 250):
            rows = np.stack([sample_latent(4096, seed).values
                             for seed in range(start, start + 250)])
            accepted += int(np.count_nonzero(k2_pvalues(rows) >= 0.999))
        # tail mass 0.001; allow generous Monte Carlo slack
        assert 0 <= accepted <= 16

    def test_records_p_value_from_k2(self, desk_world):
        pool = build_pool(desk_world.generator, desk_world.detector, V=20,
                          tau_K=0.5, tau_D=0.0, build_seed=3)
        for entry in pool.entries:
            assert entry.p_K == k2_test(entry.latent.values).p_value

    def test_short_code_propagates_sample_error(self, desk_world):
        generator = SyntheticGenerator(8, (1, 2, 2), np.random.SeedSequence(0),
                                       generator_id="short")
        with pytest.raises(SampleTooSmall):
            build_pool(generator, desk_world.detector, V=1, tau_K=0.5,
                       tau_D=0.0, build_seed=0)

    def test_threshold_above_one_rejects_everything(self, desk_world):
        # A threshold above 1 would reject every draw; the build refuses it
        # before drawing anything.
        calls = []
        generator = _CountingGenerator(desk_world.generator, calls)
        with pytest.raises(ConfigInvalid):
            build_pool(generator, desk_world.detector, V=1,
                       tau_K=1.0 + 1e-9, tau_D=0.0, build_seed=0)
        assert calls == []


class _ScriptedDetector(DetectorHandle):
    """Returns the given confidences in turn, one per image scored, and
    records the size of each ``detect_batch`` call."""

    detector_id = "scripted"

    def __init__(self, scores):
        self._scores = iter(scores)
        self.batch_sizes = []

    def detect_batch(self, images):
        self.batch_sizes.append(len(images))
        return [next(self._scores) for _ in images]


class TestScreenFace:
    """The face screen: ``build_pool`` keeps a survivor iff ``p_D >= tau_D``."""

    def test_identity_image_accepted_at_paper_threshold(self, desk_world):
        image = desk_world.identities[3].images[1]
        assert forward(desk_world.detector, image) >= 0.999

    def test_threshold_above_one_rejects_any_image(self, desk_world):
        # Confidences never exceed 1, and the build refuses a tau_D above 1
        # before drawing, so no image passes a threshold above 1.
        for rec in desk_world.identities[:5]:
            for image in rec.images:
                assert forward(desk_world.detector, image) <= 1.0
        with pytest.raises(ConfigInvalid):
            build_pool(desk_world.generator, desk_world.detector, V=1,
                       tau_K=0.0, tau_D=1.0 + 1e-9, build_seed=0)

    def test_zero_image_rejected_per_pinned_score(self, desk_world):
        zero = ImageSample(np.zeros(desk_world.config.image_shape))
        p_D = forward(desk_world.detector, zero)
        assert not p_D >= 0.999
        assert p_D == pytest.approx(4.252928021431088e-24, rel=1e-9)

    def test_survivor_scoring_exactly_tau_D_is_kept(self, desk_world):
        below = np.nextafter(0.75, 0.0)
        detector = _ScriptedDetector([0.75, below, 0.75, below, 0.75])
        pool = build_pool(desk_world.generator, detector, V=3, tau_K=0.0,
                          tau_D=0.75, build_seed=40)
        assert [e.seed for e in pool.entries] == [40, 42, 44]
        assert [e.p_D for e in pool.entries] == [0.75] * 3
        assert pool.stats.detector_accepted == 3
        assert pool.stats.normality_accepted == 5
        # Each batch holds V - accepted survivors, no more.
        assert detector.batch_sizes == [3, 1, 1]


class TestBuildPool:
    def test_desk_pool_satisfies_both_thresholds(self, desk_pool):
        assert len(desk_pool.entries) == 100
        for entry in desk_pool.entries:
            assert entry.p_K >= 0.999
            assert entry.p_D >= 0.999

    def test_stored_p_k_is_k2_test_bit_for_bit(self, desk_pool):
        for entry in desk_pool.entries:
            assert entry.p_K == k2_test(entry.latent.values).p_value

    def test_trivial_thresholds_accept_first_draw(self, desk_world):
        calls = []
        generator = _CountingGenerator(desk_world.generator, calls)
        pool = build_pool(generator, desk_world.detector, V=1,
                          tau_K=0.0, tau_D=0.0, build_seed=123)
        assert pool.stats.drawn == 1
        assert len(calls) == 1

    def test_build_is_deterministic(self, desk_world):
        a = build_pool(desk_world.generator, desk_world.detector, 20, 0.9, 0.9,
                       build_seed=42)
        b = build_pool(desk_world.generator, desk_world.detector, 20, 0.9, 0.9,
                       build_seed=42)
        assert a == b
        assert a.stats == b.stats

    def test_generator_called_once_per_normality_acceptance(self, desk_world):
        calls = []
        generator = _CountingGenerator(desk_world.generator, calls)
        pool = build_pool(generator, desk_world.detector, V=10,
                          tau_K=0.8, tau_D=0.5, build_seed=9)
        assert len(calls) == pool.stats.normality_accepted
        assert pool.stats.normality_accepted < pool.stats.drawn

    def test_entries_are_target_agnostic(self, quick_pool):
        for entry in quick_pool.entries:
            assert set(vars(entry)) == {"latent", "image", "seed", "p_K", "p_D"}

    def test_exhaustion_raises(self, desk_world):
        with pytest.raises(PoolExhausted):
            build_pool(desk_world.generator, desk_world.detector, V=5,
                       tau_K=0.99999999, tau_D=0.999, build_seed=0,
                       max_draw_factor=10)

    def test_thresholds_validated_at_build(self, desk_world):
        with pytest.raises(ConfigInvalid):
            build_pool(desk_world.generator, desk_world.detector, V=1,
                       tau_K=1.5, tau_D=0.5, build_seed=0)
        with pytest.raises(ConfigInvalid):
            build_pool(desk_world.generator, desk_world.detector, V=0,
                       tau_K=0.5, tau_D=0.5, build_seed=0)

    def test_production_volume_at_paper_thresholds(self, desk_world):
        # The full-scale operating point: a thousand entries, both screens
        # at 0.999.  The normality screen's null tail mass makes this cost
        # about a million draws, which the batched normality screen absorbs.
        pool = build_pool(desk_world.generator, desk_world.detector, V=1000,
                          tau_K=0.999, tau_D=0.999, build_seed=7)
        assert len(pool.entries) == 1000
        assert all(e.p_K >= 0.999 and e.p_D >= 0.999
                   for e in pool.entries)
        assert 0.0003 < pool.stats.normality_rate < 0.003

    def test_latents_own_their_memory(self, desk_pool, quick_pool):
        # A view of a chunk's row would keep the whole chunk alive.
        for pool in (desk_pool, quick_pool):
            for entry in pool.entries:
                assert entry.latent.values.base is None
                assert entry.latent.values.flags.owndata

    @pytest.mark.parametrize("build_seed, V, factor", [
        (-1, 1, 10),
        (2**63 - 10, 1, 11),            # the last candidate seed is 2**63
        (2**63 - 1, 5, 10_000),
        (2**64, 1, 1),
    ])
    def test_seed_beyond_the_file_field_refused_before_drawing(
            self, desk_world, monkeypatch, build_seed, V, factor):
        def draw(*args):
            raise AssertionError("drew a candidate")

        monkeypatch.setattr(pool_module, "_draw_block", draw)
        with pytest.raises(ConfigInvalid, match="build seed"):
            build_pool(desk_world.generator, desk_world.detector, V=V,
                       tau_K=0.0, tau_D=0.0, build_seed=build_seed,
                       max_draw_factor=factor)

    def test_largest_seed_builds_and_round_trips(self, desk_world, tmp_path):
        pool = build_pool(desk_world.generator, desk_world.detector, V=1,
                          tau_K=0.0, tau_D=0.0, build_seed=2**63 - 10,
                          max_draw_factor=10)
        assert pool.entries[0].seed == 2**63 - 10
        path = tmp_path / "pool.lpool"
        save_pool(pool, path)
        assert load_pool(path) == pool

    def test_cached_images_match_regeneration(self, desk_world, quick_pool):
        entry = quick_pool.entries[0]
        regen = forward(desk_world.generator, entry.latent)
        as_stored = regen.values.astype(np.float32).astype(np.float64)
        assert np.array_equal(entry.image.values, as_stored)


class _CountingGenerator(GeneratorHandle):
    """Forwards to ``inner`` and appends every latent row it generates to
    ``calls``."""

    def __init__(self, inner, calls):
        self._inner = inner
        self._calls = calls
        self.d_lat = inner.d_lat
        self.output_shape = inner.output_shape
        self.generator_id = inner.generator_id

    def generate_batch(self, latents):
        self._calls.extend(latents)
        return self._inner.generate_batch(latents)


class TestPoolPersistence:
    def test_round_trip_preserves_everything(self, desk_pool, tmp_path):
        path = tmp_path / "pool.lpool"
        save_pool(desk_pool, path)
        loaded = load_pool(path)
        assert loaded == desk_pool
        assert loaded.stats is None  # build stats are not persisted

    def test_truncated_file_rejected(self, quick_pool, tmp_path):
        path = tmp_path / "pool.lpool"
        save_pool(quick_pool, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ChecksumMismatch):
            load_pool(path)

    def test_flipped_byte_rejected(self, quick_pool, tmp_path):
        path = tmp_path / "pool.lpool"
        save_pool(quick_pool, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumMismatch):
            load_pool(path)

    def test_newer_format_version_rejected(self, quick_pool, tmp_path):
        import struct
        import zlib
        path = tmp_path / "pool.lpool"
        save_pool(quick_pool, path)
        data = bytearray(path.read_bytes())
        data[5:7] = struct.pack("<H", 2)  # bump version field
        body = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(body))  # keep checksum valid
        path.write_bytes(bytes(data))
        with pytest.raises(FormatVersionMismatch):
            load_pool(path)

    def test_entry_corruption_caught_even_with_valid_file_crc(self, quick_pool,
                                                              tmp_path):
        import struct
        import zlib
        path = tmp_path / "pool.lpool"
        save_pool(quick_pool, path)
        data = bytearray(path.read_bytes())
        # flip a byte inside the first entry's payload, then repair the
        # whole-file checksum so only the per-entry one can catch it
        header_len = len(b"LPOOL") + 3 + 20 + 28 + 2 + len(quick_pool.generator_id)
        data[header_len + 30] ^= 0xFF
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumMismatch, match="entry"):
            load_pool(path)

    def test_not_a_pool_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a pool")
        with pytest.raises(IoFailure):
            load_pool(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_pool(tmp_path / "absent.lpool")

    def test_stable_bytes_across_saves(self, quick_pool, tmp_path):
        p1, p2 = tmp_path / "a.lpool", tmp_path / "b.lpool"
        save_pool(quick_pool, p1)
        save_pool(quick_pool, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_pinned_across_code_versions(self, desk_world, tmp_path):
        # Two saves by the same code cannot catch a codec rewrite that
        # drifts; these are the bytes format version 1 holds for this pool.
        # The stored p_K bits follow numpy's SIMD dispatch, so these bytes
        # were recorded with numpy's AVX-512 loops.
        pool = build_pool(desk_world.generator, desk_world.detector, V=8,
                          tau_K=0.5, tau_D=0.5, build_seed=7)
        first, again = tmp_path / "a.lpool", tmp_path / "b.lpool"
        save_pool(pool, first)
        data = first.read_bytes()
        assert len(data) == 26937
        assert hashlib.sha256(data).hexdigest() == (
            "858de46d2f2861aa5d4b4ec569e0f030f0029e2c53123f6b5b42bead6362df47")
        save_pool(load_pool(first), again)
        assert again.read_bytes() == data



class FlakyEmbedder(EmbedderHandle):
    """Fails its first ``failures`` batch calls in the given way, then
    returns constant rows; counts every call."""

    model_id = "flaky"
    tau_F = 0.5
    d_emb = 4

    def __init__(self, failure=None, failures=0):
        self.failure = failure
        self.failures = failures
        self.calls = 0

    def embed_batch(self, images):
        self.calls += 1
        rows = np.ones((len(images), self.d_emb))
        if self.calls > self.failures:
            return rows
        if self.failure == "shape":
            raise ShapeMismatch("bad image stack")
        if self.failure == "rows":
            return rows[1:]
        rows[2] = 0.0
        return rows


class TestEmbeddingCache:
    def test_one_batch_call_per_handle(self, quick_pool):
        pool = dataclasses.replace(quick_pool)
        embedder = FlakyEmbedder()
        first = pool.embeddings(embedder)
        for _ in range(5):
            rows, norms = pool.embeddings(embedder)
            assert rows is first[0] and norms is first[1]
        assert embedder.calls == 1
        assert rows.shape == (pool.V, embedder.d_emb)
        assert not rows.flags.writeable and not norms.flags.writeable
        np.testing.assert_array_equal(norms, np.linalg.norm(rows, axis=1))

    def test_keyed_by_handle_not_model_id(self, quick_pool):
        pool = dataclasses.replace(quick_pool)
        a = FlakyEmbedder()
        b = FlakyEmbedder()
        assert a.model_id == b.model_id
        pool.embeddings(a)
        pool.embeddings(b)
        pool.embeddings(a)
        assert (a.calls, b.calls) == (1, 1)

    @pytest.mark.parametrize("failure, error", [
        ("shape", ShapeMismatch),
        ("rows", DimensionMismatch),
        ("zero", ZeroNormEmbedding),
    ])
    def test_failed_fill_caches_nothing(self, quick_pool, failure, error):
        pool = dataclasses.replace(quick_pool)
        embedder = FlakyEmbedder(failure, failures=3)
        for calls in (1, 2, 3):
            with pytest.raises(error):
                pool.embeddings(embedder)
            assert embedder.calls == calls
        pool.embeddings(embedder)
        pool.embeddings(embedder)
        assert embedder.calls == 4

    def test_warm_cache_is_invisible(self, quick_pool, desk_world, tmp_path):
        cold = dataclasses.replace(quick_pool)
        warm = dataclasses.replace(quick_pool)
        for embedder in desk_world.embedders:
            warm.embeddings(embedder)
        assert warm == cold
        assert repr(warm) == repr(cold)
        save_pool(cold, tmp_path / "cold.lpool")
        save_pool(warm, tmp_path / "warm.lpool")
        assert ((tmp_path / "warm.lpool").read_bytes()
                == (tmp_path / "cold.lpool").read_bytes())

_HEADER_FIELDS = {"d_lat": 8, "C": 12, "H": 16, "W": 20, "V": 24, "count": 52}
_ID_OFFSET = 58  # magic, version, algo, five u32, two f64, i64, u32, u16


# What a malformed pool file may raise: the classes the CLI maps to exit 4.
EXIT_4_ERRORS = (IoFailure, ChecksumMismatch, FormatVersionMismatch)


def reseal(data: bytearray) -> bytes:
    """Recompute every entry CRC the reader will check, then the file CRC.

    The layout is read from the (possibly mutated) header, so a mutated
    field moves the CRCs to where the reader looks for them.
    """
    d_lat, c, h, w = struct.unpack_from("<4I", data, 8)
    (count,) = struct.unpack_from("<I", data, 52)
    (id_len,) = struct.unpack_from("<H", data, 56)
    entry_len = 24 + 4 * d_lat + 4 * c * h * w
    pos = _ID_OFFSET + id_len
    for _ in range(count):
        if pos + entry_len + 4 > len(data) - 4:
            break
        struct.pack_into("<I", data, pos + entry_len,
                         zlib.crc32(bytes(data[pos:pos + entry_len])))
        pos += entry_len + 4
    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
    return bytes(data)


@pytest.fixture(scope="module")
def small_pool_bytes(quick_pool, tmp_path_factory):
    pool = LatentPool(entries=quick_pool.entries[:3], tau_K=quick_pool.tau_K,
                      tau_D=quick_pool.tau_D, generator_id=quick_pool.generator_id,
                      build_seed=quick_pool.build_seed)
    path = tmp_path_factory.mktemp("pool") / "small.lpool"
    save_pool(pool, path)
    return path.read_bytes()


def load_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "p.lpool"
    path.write_bytes(data)
    return load_pool(path)


class TestMalformedPool:
    """Files whose checksums match but whose fields are out of range."""

    def test_resealed_pool_still_loads(self, small_pool_bytes, tmp_path_factory):
        data = reseal(bytearray(small_pool_bytes))
        assert data == small_pool_bytes
        assert load_bytes(tmp_path_factory, data).V == 3

    def test_empty_pool_rejected(self, small_pool_bytes, tmp_path_factory):
        # V = 0 with no entries and valid checksums: a pool holds at least
        # one entry, so this is malformed rather than an empty pool.
        (id_len,) = struct.unpack_from("<H", small_pool_bytes, 56)
        data = bytearray(small_pool_bytes[:_ID_OFFSET + id_len] + bytes(4))
        struct.pack_into("<I", data, _HEADER_FIELDS["V"], 0)
        struct.pack_into("<I", data, _HEADER_FIELDS["count"], 0)
        with pytest.raises(IoFailure, match="malformed"):
            load_bytes(tmp_path_factory, reseal(data))

    def test_non_utf8_generator_id(self, small_pool_bytes, tmp_path_factory):
        data = bytearray(small_pool_bytes)
        data[_ID_OFFSET] = 0xFF
        with pytest.raises(IoFailure, match="malformed"):
            load_bytes(tmp_path_factory, reseal(data))

    @pytest.mark.parametrize("field_offset, value", [
        (8, 1.5), (8, -0.25), (8, float("nan")),      # p_K
        (16, 2.0), (16, float("inf")),                  # p_D
        (8, 0.25), (16, 0.25),   # valid, but below the file's tau_K, tau_D
    ])
    def test_score_out_of_range(self, small_pool_bytes, tmp_path_factory,
                                field_offset, value):
        (id_len,) = struct.unpack_from("<H", small_pool_bytes, 56)
        data = bytearray(small_pool_bytes)
        struct.pack_into("<d", data, _ID_OFFSET + id_len + field_offset, value)
        with pytest.raises(IoFailure, match="malformed"):
            load_bytes(tmp_path_factory, reseal(data))

    def test_pixel_out_of_range(self, small_pool_bytes, tmp_path_factory):
        (id_len,) = struct.unpack_from("<H", small_pool_bytes, 56)
        (d_lat,) = struct.unpack_from("<I", small_pool_bytes, 8)
        for value in (1.5, float("nan")):
            data = bytearray(small_pool_bytes)
            struct.pack_into("<f", data, _ID_OFFSET + id_len + 24 + 4 * d_lat + 8, value)
            with pytest.raises(IoFailure, match="malformed.*pixel values"):
                load_bytes(tmp_path_factory, reseal(data))

    def test_pixel_out_of_range_in_the_last_entry(self, small_pool_bytes,
                                                  tmp_path_factory):
        # The image column is range-checked as one stack; its last pixel
        # sits just before the file's last entry CRC and whole-file CRC.
        data = bytearray(small_pool_bytes)
        struct.pack_into("<f", data, len(data) - 12, 1.5)
        with pytest.raises(IoFailure, match="malformed.*pixel values"):
            load_bytes(tmp_path_factory, reseal(data))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_latent_not_finite(self, small_pool_bytes, tmp_path_factory, value):
        (id_len,) = struct.unpack_from("<H", small_pool_bytes, 56)
        data = bytearray(small_pool_bytes)
        struct.pack_into("<f", data, _ID_OFFSET + id_len + 24 + 4, value)
        with pytest.raises(IoFailure, match="malformed.*latent value is not finite"):
            load_bytes(tmp_path_factory, reseal(data))

    @pytest.mark.parametrize("field, value", [("V", 2), ("count", 2), ("count", 4)])
    def test_entry_count_other_than_v(self, small_pool_bytes, tmp_path_factory,
                                      field, value):
        data = bytearray(small_pool_bytes)
        struct.pack_into("<I", data, _HEADER_FIELDS[field], value)
        with pytest.raises(IoFailure, match="malformed"):
            load_bytes(tmp_path_factory, reseal(data))

    def test_bytes_after_the_last_entry(self, small_pool_bytes, tmp_path_factory):
        data = bytearray(small_pool_bytes[:-4] + bytes(8))
        with pytest.raises(IoFailure, match="malformed.*after the last entry"):
            load_bytes(tmp_path_factory, reseal(data))

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                          min_size=1, max_size=4),
           field=st.sampled_from([None] + sorted(_HEADER_FIELDS)),
           field_value=st.integers(0, 2**32 - 1) | st.integers(0, 4),
           cut=st.none() | st.integers(0, 10**6))
    def test_fuzz_resealed_mutations(self, small_pool_bytes, tmp_path_factory,
                                     edits, field, field_value, cut):
        data = bytearray(small_pool_bytes)
        for pos, byte in edits:
            data[pos % (len(data) - 4)] = byte
        if field is not None:
            struct.pack_into("<I", data, _HEADER_FIELDS[field], field_value)
        data = reseal(data)
        if cut is not None:
            data = data[:cut % len(data)]
        try:
            load_bytes(tmp_path_factory, data)
        except EXIT_4_ERRORS:
            pass

    @settings(max_examples=200, deadline=None)
    @given(prefix=st.sampled_from([b"", b"LPOOL", b"LPOOL\x01\x00\x01"]),
           body=st.binary(max_size=200))
    def test_fuzz_arbitrary_bytes(self, tmp_path_factory, prefix, body):
        data = prefix + body
        data += struct.pack("<I", zlib.crc32(data))
        for candidate in (prefix + body, data):
            try:
                load_bytes(tmp_path_factory, candidate)
            except EXIT_4_ERRORS:
                pass
