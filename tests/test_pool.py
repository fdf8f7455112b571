import dataclasses
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
    EmbinvertError,
    FormatVersionMismatch,
    IoFailure,
    PoolExhausted,
    SampleTooSmall,
    ShapeMismatch,
    ZeroNormEmbedding,
)
from embinvert import pool as pool_module
from embinvert.models import EmbedderHandle, SyntheticGenerator
from embinvert.normality import k2_pvalues, k2_test
from embinvert.pool import (
    LatentPool,
    build_pool,
    load_pool,
    sample_latent,
    save_pool,
    screen_face,
)


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


class TestScreenNormality:
    """The normality screen as build_pool runs it: k2_pvalues per chunk."""

    def test_outlier_code_rejected_at_paper_threshold(self, desk_world,
                                                      monkeypatch):
        outlier = np.random.default_rng(46).standard_normal(desk_world.generator.d_lat)
        outlier[0] = 50.0
        assert k2_test(outlier).p_value < 1e-10
        real_sample = pool_module.sample_latent

        def sample(d_lat, seed):
            return LatentCode(outlier, seed=seed) if seed == 0 else real_sample(d_lat, seed)

        monkeypatch.setattr(pool_module, "sample_latent", sample)
        pool = build_pool(desk_world.generator, desk_world.detector, V=1,
                          tau_K=0.999, tau_D=0.0, build_seed=0)
        assert pool.entries[0].latent.seed != 0

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
            assert entry.latent.p_K == k2_test(entry.latent.values).p_value

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


class TestScreenFace:
    def test_identity_image_accepted_at_paper_threshold(self, desk_world):
        image = desk_world.identities[3].images[1]
        accepted, p_D = screen_face(image, desk_world.detector, tau_D=0.999)
        assert accepted and p_D >= 0.999

    def test_threshold_above_one_rejects_any_image(self, desk_world):
        image = desk_world.identities[0].images[0]
        accepted, p_D = screen_face(image, desk_world.detector, tau_D=1.0 + 1e-9)
        assert not accepted and p_D <= 1.0

    def test_zero_image_rejected_per_pinned_score(self, desk_world):
        zero = ImageSample(np.zeros(desk_world.config.image_shape))
        accepted, p_D = screen_face(zero, desk_world.detector, tau_D=0.999)
        assert not accepted
        assert p_D == pytest.approx(4.252928021431088e-24, rel=1e-9)


class TestBuildPool:
    def test_desk_pool_satisfies_both_thresholds(self, desk_pool):
        assert len(desk_pool.entries) == 100
        for entry in desk_pool.entries:
            assert entry.latent.p_K >= 0.999
            assert entry.latent.p_D >= 0.999

    def test_stored_p_k_is_k2_test_bit_for_bit(self, desk_pool):
        for entry in desk_pool.entries:
            assert entry.latent.p_K == k2_test(entry.latent.values).p_value

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
            assert set(vars(entry)) == {"latent", "image"}

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
        assert all(e.latent.p_K >= 0.999 and e.latent.p_D >= 0.999
                   for e in pool.entries)
        assert 0.0003 < pool.stats.normality_rate < 0.003

    def test_cached_images_match_regeneration(self, desk_world, quick_pool):
        entry = quick_pool.entries[0]
        regen = desk_world.generator.generate(entry.latent)
        as_stored = regen.values.astype(np.float32).astype(np.float64)
        assert np.array_equal(entry.image.values, as_stored)


class _CountingGenerator:
    def __init__(self, inner, calls):
        self._inner = inner
        self._calls = calls

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def generate(self, latent):
        self._calls.append(latent.seed)
        return self._inner.generate(latent)


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



class FlakyEmbedder(EmbedderHandle):
    """Fails its first ``failures`` batch calls in the given way, then
    returns constant rows; counts every call."""

    model_id = "flaky"
    tau_F = 0.5
    supports_gradient = False
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
    pool = LatentPool(entries=quick_pool.entries[:3], V=3, tau_K=quick_pool.tau_K,
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

    def test_non_utf8_generator_id(self, small_pool_bytes, tmp_path_factory):
        data = bytearray(small_pool_bytes)
        data[_ID_OFFSET] = 0xFF
        with pytest.raises(IoFailure, match="malformed"):
            load_bytes(tmp_path_factory, reseal(data))

    @pytest.mark.parametrize("field_offset, value", [
        (8, 1.5), (8, -0.25), (8, float("nan")),      # p_K
        (16, 2.0), (16, float("inf")),                  # p_D
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
        data = bytearray(small_pool_bytes)
        struct.pack_into("<f", data, _ID_OFFSET + id_len + 24 + 4 * d_lat + 8, 1.5)
        with pytest.raises(IoFailure, match="malformed"):
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
        except EmbinvertError:
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
            except EmbinvertError:
                pass
